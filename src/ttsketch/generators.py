"""Random tensor constructions used by the tests and experiments.

All generators are pure functions of their arguments and the given
stream: they derive fixed substreams per constituent (substream i for
core i, substream 0/1 for positions/values, and so on) instead of
consuming shared state, so results are independent of call order.
"""

import numpy as np

from .tensor import SparseTensor, check_dense_size, check_shape, element_count
from .tt import TTTensor, clip_ranks, tt_evaluate
from .linalg import svd


def gaussian_dense(shape, rng):
    """Dense tensor of independent standard normals."""
    shape = check_shape(shape)
    check_dense_size(shape)
    return rng.normals(shape)


def gaussian_sparse(shape, nnz, rng):
    """Sparse tensor with nnz uniform positions holding standard normals.

    Positions are drawn independently and uniformly over the whole index
    range (substream 0), values are standard normals (substream 1).  When
    two draws hit the same position the later one wins, so the stored
    entry count can be below nnz.
    """
    shape = check_shape(shape)
    nnz = int(nnz)
    total = element_count(shape)
    if nnz < 0 or nnz > total:
        raise ValueError(f"nnz must lie in [0, {total}], got {nnz}")
    if nnz == 0:
        return SparseTensor(shape, np.empty((0, len(shape)), dtype=np.int64), [])
    idx = rng.substream(0).index_draws(nnz, shape)
    values = rng.substream(1).normals(nnz)
    # np.unique keeps the first occurrence; scan reversed to keep the last.
    # Its rows come out in canonical order, which SparseTensor keeps.
    rows, first_in_rev = np.unique(idx[::-1], axis=0, return_index=True)
    return SparseTensor(shape, rows, values[nnz - 1 - first_in_rev])


def random_tt(shape, ranks, rng):
    """Train whose cores hold independent standard normals.

    Core i (1-based) draws from substream i; ranks are clipped to the
    dimension products.
    """
    shape = check_shape(shape)
    ranks = clip_ranks(shape, ranks)
    d = len(shape)
    cores = [rng.substream(1).normals((shape[0], ranks[0]))]
    for i in range(1, d - 1):
        cores.append(rng.substream(i + 1).normals((ranks[i - 1], shape[i], ranks[i])))
    cores.append(rng.substream(d).normals((ranks[d - 2], shape[d - 1])))
    return TTTensor(cores)


def decay_values(count, exponent, cutoff):
    """The prescribed singular-value profile 1, 2^-e, ..., cutoff^-e, 0, ..."""
    if count < 1:
        raise ValueError("need at least one singular value")
    ks = np.arange(1, count + 1, dtype=np.float64)
    vals = ks ** (-float(exponent))
    vals[int(cutoff):] = 0.0
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
    if decay_exponent <= 0:
        raise ValueError("decay exponent must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    t = random_tt(shape, ranks, rng.substream(0))
    cores = t.cores
    d = len(cores)
    for i in range(d - 1):
        left = cores[i]
        right = cores[i + 1]
        r_mid = left.shape[-1]
        lmat = left.reshape(-1, r_mid)
        rmat = right.reshape(r_mid, -1)
        merged = lmat @ rmat
        u, s, vt = svd(merged)
        k = s.shape[0]
        vals = decay_values(k, decay_exponent, cutoff)
        new_left = u if left.ndim == 2 else u.reshape(left.shape[0], left.shape[1], k)
        carry = vals[:, None] * vt
        if right.ndim == 2:
            new_right = carry
        else:
            new_right = carry.reshape(k, right.shape[1], right.shape[2])
        cores[i] = new_left
        cores[i + 1] = new_right
    return TTTensor(cores)


def noisy_low_rank(shape, ranks, tau, rng):
    """Unit-norm exact train plus tau times a unit-norm dense noise tensor.

    The exact part comes from substream 0, the noise direction from
    substream 1; tau = 0 returns the normalized exact tensor itself.
    """
    if tau < 0:
        raise ValueError("noise level must be nonnegative")
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
