"""Random tensor constructions used by the tests and experiments.

All generators are pure functions of their arguments and the given
stream: they derive fixed substreams per constituent (substream i for
core i, substream 0/1 for positions/values, and so on) instead of
consuming shared state, so results are independent of call order.
A fractional count or a NaN parameter raises ValueError.
"""

import math

import numpy as np

from .tensor import (
    SparseTensor, check_dense_size, check_integers, check_shape, element_count,
)
from .tt import (
    TTTensor, clip_ranks, core_shapes, left_unfold, right_unfold, tt_evaluate,
)
from .linalg import svd


def gaussian_dense(shape, rng):
    """Dense tensor of independent standard normals."""
    shape = check_shape(shape)
    check_dense_size(shape)
    return rng.normals(shape)


def gaussian_sparse(shape, nnz, rng):
    """Sparse tensor with exactly nnz uniform positions holding standard normals.

    The positions are the first nnz distinct index tuples of substream 0's
    uniform draws; the values are the first nnz normals of substream 1, in
    draw order.  The stored entry count is fixed because the sketch cost is
    proportional to it.  While too few draws are distinct, a batch twice as
    large is drawn; draw i does not depend on the batch size, so the kept
    positions do not either.
    """
    shape = check_shape(shape)
    (nnz,) = check_integers((nnz,), "entry count")
    total = element_count(shape)
    if nnz < 0 or nnz > total:
        raise ValueError(f"nnz must lie in [0, {total}], got {nnz}")
    want = nnz
    while True:
        rows = rng.substream(0).index_draws(want, shape)
        _, first = np.unique(rows, axis=0, return_index=True)
        if first.size >= nnz:
            break
        want *= 2
    keep = rows[np.sort(first)[:nnz]]
    return SparseTensor(shape, keep, rng.substream(1).normals(nnz))


def random_tt(shape, ranks, rng):
    """Train whose cores hold independent standard normals.

    Core i (1-based) draws from substream i; ranks are clipped to the
    dimension products.
    """
    shape = check_shape(shape)
    dims = core_shapes(shape, clip_ranks(shape, ranks))
    return TTTensor([rng.substream(i).normals(dim) for i, dim in enumerate(dims, 1)])


def decay_values(count, exponent, cutoff):
    """The prescribed singular-value profile 1, 2^-e, ..., cutoff^-e, 0, ..."""
    count, cutoff = check_integers((count, cutoff), "count and cutoff")
    if count < 1:
        raise ValueError("need at least one singular value")
    ks = np.arange(1, count + 1, dtype=np.float64)
    vals = ks ** (-float(exponent))
    vals[cutoff:] = 0.0
    return vals


def random_tt_decay(shape, ranks, decay_exponent, cutoff, rng):
    """Train with prescribed decaying spectra on its unfoldings.

    Starts from random_tt (substream 0) and, for each neighbouring pair
    of cores, contracts the pair, takes its SVD and puts the decay
    profile in place of the singular values before splitting again.  One
    left-to-right sweep leaves every unfolding with an approximately
    polynomial spectrum; the last-treated edge is exact by construction.
    Edge ranks grow to the available rank of the pair, so the result is a
    genuinely high-rank tensor.
    """
    if not decay_exponent > 0:
        raise ValueError("decay exponent must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    t = random_tt(shape, ranks, rng.substream(0))
    cores = t.cores
    for i in range(len(cores) - 1):
        left, right = cores[i], cores[i + 1]
        u, s, vt = svd(left_unfold(left) @ right_unfold(right))
        vals = decay_values(s.shape[0], decay_exponent, cutoff)
        cores[i] = u.reshape(*left.shape[:-1], -1)
        cores[i + 1] = (vals[:, None] * vt).reshape(-1, *right.shape[1:])
    return TTTensor(cores)


def noisy_low_rank(shape, ranks, tau, rng):
    """Unit-norm exact train plus tau times a unit-norm dense noise tensor.

    The exact part comes from substream 0, the noise direction from
    substream 1; tau = 0 returns the normalized exact tensor itself.
    """
    if not 0 <= tau < math.inf:
        raise ValueError("noise level must be finite and nonnegative")
    shape = check_shape(shape)
    check_dense_size(shape)
    x = tt_evaluate(random_tt(shape, ranks, rng.substream(0)))
    nx = np.linalg.norm(x.ravel())
    if nx == 0.0:
        raise ValueError("degenerate zero draw for the exact part")
    x /= nx
    if tau > 0:
        noise = gaussian_dense(shape, rng.substream(1))
        noise_norm = np.linalg.norm(noise.ravel())
        x += (tau / noise_norm) * noise
    return x
