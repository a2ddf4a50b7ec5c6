"""Train decompositions: deterministic SVD sweeps and the randomized sketch.

The deterministic path repeatedly unfolds the remainder against the
leading mode group, takes its left singular factor, keeps that as a
core and carries the projection of the unfolding onto it forward; ranks
come either from a relative singular value threshold (exact mode) or
from prescribed targets (truncated mode).  The unfoldings are mostly
wide, so each step takes the R factor of the long side and the SVD of
that small square (Chan's R-SVD, ACM TOMS 8, 1982); the right singular
factor, as large as the unfolding, is never formed.  Its error satisfies
the usual sqrt(d-1) quasi-optimality factor against the unfolding tails.

The randomized path never forms the leading unfoldings at full size.
Walking from the last mode down to the second, it sketches the current
remainder b with a Gaussian tensor g over all leading modes, makes the
sketch's rows orthonormal (an RQ factorization), keeps those rows as
the core and projects b onto them; the first core finally holds the
projected weights, so evaluating the train applies an orthogonal
projector to the input.  Every Gaussian entry is a pure function of
(step, position) through the counter-based stream, which is what lets
the sparse fast path materialize only the entries of g that meet stored
data: identical seeds make both paths consume identical random values.

For sparse input with N stored entries the sketch step draws s Gaussian
entries per distinct index prefix (one column of g per occupied leading
position, at most N of them) and the projection keeps one row per entry;
both contractions are one matrix product per mode value, so the total
cost grows linearly in the tensor order at fixed N and s.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
# svd is unused here but stays bound: perfbench's tracer test expects it.
from .linalg import left_svd, numerical_rank, rq_row_orthonormal, svd  # noqa: F401
from .tensor import (
    SparseTensor, check_finite, check_integers, element_count,
    first_differing_mode, norm,
)
from .tt import TTTensor, clip_ranks, integral_ranks, tt_evaluate, zero_tt

_E = math.e


@dataclass
class OversamplingSpec:
    """Target rank plus oversampling; the sketch uses s = rank + extra rows."""

    rank: int
    oversampling: int = 0

    def __post_init__(self):
        self.rank, self.oversampling = check_integers(
            (self.rank, self.oversampling), "rank and oversampling")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.oversampling < 0:
            raise ValueError("oversampling must be nonnegative")

    @property
    def sketch_size(self):
        return self.rank + self.oversampling


@dataclass
class DecompositionReport:
    """What a decomposition did: achieved ranks, cut energy (deterministic
    sweep only), wall time, and whether the input was zero (degenerate)."""

    ranks: tuple
    discarded_energy: tuple = ()
    wall_time_s: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        if any(e < 0 for e in self.discarded_energy):
            raise ValueError("discarded energies must be nonnegative")


def compute_eta(rank, oversampling, t=1.0, u=1.0):
    """Quasi-optimality factor of one sketched projection step.

    eta = 1 + t*sqrt(12 r / p) + u*t*e*sqrt(r+p)/(p+1), valid for
    oversampling p >= 4 and t, u >= 1.  A step exceeds eta times the
    best error with probability at most 5 t^-p + 2 exp(-u^2/2).
    """
    r, p = check_integers((rank, oversampling), "rank and oversampling")
    if r < 1:
        raise ValueError("rank must be positive")
    if p < 4:
        raise ValueError("the bound requires oversampling >= 4")
    if t < 1 or u < 1:
        raise ValueError("t and u must be at least 1")
    return 1.0 + t * math.sqrt(12.0 * r / p) + u * t * _E * math.sqrt(r + p) / (p + 1)


def success_probability(oversampling, t=1.0, u=1.0, steps=1):
    """Lower bound on the chance that all `steps` projections stay within eta."""
    p, steps = check_integers((oversampling, steps), "oversampling and steps")
    single = 1.0 - 5.0 * t ** (-p) - 2.0 * math.exp(-u * u / 2.0)
    return max(0.0, single) ** steps


def randomized_range(a, spec, rng):
    """Orthonormal columns approximately spanning the range of a.

    `a` only needs a shape and matrix multiplication, so implicit
    operators qualify.  Draws an (n2, s) Gaussian test matrix from the
    given stream, multiplies, and orthonormalizes the product.
    """
    _, n = a.shape
    g = rng.normals((spec.sketch_size, n)).T
    b = a @ g
    q, _ = np.linalg.qr(np.asarray(b, dtype=np.float64))
    return q


def relative_error(x, t):
    """||x - evaluation of t|| / ||x|| for a dense reference tensor."""
    x = np.asarray(x, dtype=np.float64)
    nx = norm(x)
    if nx == 0.0:
        raise ValueError("relative error is undefined against a zero tensor")
    y = tt_evaluate(t)
    if y.shape != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.linalg.norm((x - y).ravel()) / nx)


def _zero_result(shape, t0):
    report = DecompositionReport(
        ranks=(1,) * (len(shape) - 1),
        wall_time_s=time.perf_counter() - t0,
        degenerate=True,
    )
    return zero_tt(shape), report


# ---------------------------------------------------------------------------
# deterministic sweep

def _svd_sweep(x, pick_rank):
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    d = len(shape)
    if d < 2:
        raise ValueError("decomposition needs order >= 2")
    t0 = time.perf_counter()
    if not x.any():
        return _zero_result(shape, t0)
    check_finite(x)
    cores = []
    discarded = []
    cur = x.reshape(shape[0], -1)
    r_prev = 1
    for i in range(d - 1):
        u, s = left_svd(cur)
        k = max(1, min(pick_rank(s, i), s.shape[0]))
        discarded.append(float(np.sum(s[k:] ** 2)))
        if i == 0:
            cores.append(u[:, :k])
        else:
            cores.append(u[:, :k].reshape(r_prev, shape[i], k))
        rest = u[:, :k].T @ cur
        if i < d - 2:
            cur = rest.reshape(k * shape[i + 1], -1)
        else:
            cur = rest
        r_prev = k
    cores.append(cur)
    result = TTTensor(cores, ortho="left")
    report = DecompositionReport(
        ranks=result.ranks,
        discarded_energy=tuple(discarded),
        wall_time_s=time.perf_counter() - t0,
    )
    return result, report


def tt_svd_exact(x, rel_tol=1e-12):
    """Left-orthogonal train reproducing x up to the given relative cut.

    Each step keeps the numerical rank of the unfolding at rel_tol, so
    with the default tolerance the result matches x to working precision
    and the achieved ranks are the numerical unfolding ranks.
    """
    if not rel_tol >= 0:
        raise ValueError("relative tolerance must be nonnegative")
    return _svd_sweep(x, lambda s, _i: numerical_rank(s, rel_tol))


def tt_svd_truncated(x, target_ranks):
    """Train truncated to the target ranks by the deterministic sweep."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("decomposition needs order >= 2")
    target = clip_ranks(x.shape, target_ranks)
    return _svd_sweep(x, lambda s, i: target[i])


# ---------------------------------------------------------------------------
# randomized sketch

def _randomized_dense(x, sketch, rng):
    shape = x.shape
    d = len(shape)
    cores = [None] * d
    lead = element_count(shape[:-1])
    b = x.reshape(lead, shape[-1])
    t_dim = 1
    for j in range(d, 1, -1):
        n_j = shape[j - 1]
        s_prev = sketch[j - 2]
        key = rng.substream(j).key
        # The Gaussian block is freed by the product that consumes it, so
        # it never lives beside the next step's b: a step holds b, one
        # draw of s_prev * lead normals and then b beside its projection.
        a = _kernels.standard_normals(key, s_prev * lead).reshape(s_prev, lead) @ b
        _, q = rq_row_orthonormal(a)
        # q keeps min(s_prev, n_j * t_dim) rows: a sketch wider than the
        # unfolding clamps to the feasible width near the right boundary.
        t_next = q.shape[0]
        cores[j - 1] = q if j == d else q.reshape(t_next, n_j, t_dim)
        b = b @ q.T
        if j > 2:
            lead //= shape[j - 2]
            b = b.reshape(lead, shape[j - 2] * t_next)
        t_dim = t_next
    cores[0] = b
    return TTTensor(cores, ortho="right")


def _prefix_codes(idx, shape):
    """Row-major codes of the index prefixes, reduced mod 2**64.

    Row k holds the code of idx[:, :k], built left to right by Horner's
    rule in wrapping uint64 arithmetic.  The counters of the sketch only
    need the codes mod 2**64, so shapes past 2**64 elements need no
    wider integers.
    """
    nnz, d = idx.shape
    codes = np.zeros((d, nnz), dtype=np.uint64)
    for k in range(1, d):
        np.multiply(codes[k - 1], np.uint64(shape[k - 1]), out=codes[k])
        codes[k] += idx[:, k - 1].astype(np.uint64)
    return codes


def _randomized_sparse(xs, sketch, rng):
    shape = xs.shape
    d = len(shape)
    heads = _prefix_codes(xs.idx, shape)
    vals = xs.values[:, None]
    cores = [None] * d
    lead = element_count(shape)
    t_dim = 1
    # One row per stored entry throughout: entries whose leading positions
    # coincide are kept split (their contributions add linearly at every
    # stage), so the work per step is proportional to the entry count and
    # the whole pass scales linearly in the order.  Each step reorders the
    # rows by their index in the current mode; `order` maps rows to entries.
    order = np.arange(xs.nnz)
    # The Gaussian row of an entry depends on its prefix idx[:, :j-1] alone.
    # The entries are in canonical order, so those sharing a prefix are
    # adjacent: a new prefix starts wherever an entry first differs from
    # the one before it in a mode below j-1.  Each step draws one row per
    # distinct prefix and gathers it to the entries.  The runs come from the
    # indices, not the codes, which wrap mod 2**64.
    split = first_differing_mode(xs.idx)
    for j in range(d, 1, -1):
        n_j = shape[j - 1]
        s_prev = sketch[j - 2]
        lead //= n_j
        mu = xs.idx[order, j - 1]
        # Stable, so the order is reproducible; a narrow key lets numpy
        # use its radix sort.
        by_mode = np.argsort(mu.astype(np.min_scalar_type(n_j - 1)), kind="stable")
        order = order[by_mode]
        mu = mu[by_mode]
        vals = vals[by_mode]
        key = rng.substream(j).key
        new = split < j - 1  # split[0] == 0, so entry 0 starts a run
        run = np.cumsum(new) - 1
        # The rows drawn per prefix go to the sketch with the map from
        # entries to prefixes, which gathers them one mode group at a time;
        # they are freed before the update.  A step thus holds the projected
        # rows, the rows per prefix and one group's gathered rows, then the
        # projected rows beside the next ones.
        gam = _kernels.gammas_at(
            heads[j - 1][new], s_prev, np.uint64(lead % 2 ** 64), np.uint64(key)
        )
        a_by_mode = _kernels.sparse_sketch(mu, vals, gam, run[order], n_j)
        del gam
        a = np.ascontiguousarray(a_by_mode.transpose(1, 0, 2)).reshape(
            s_prev, n_j * t_dim
        )
        _, q = rq_row_orthonormal(a)
        t_next = q.shape[0]  # clamps to n_j * t_dim near the right boundary
        cores[j - 1] = q if j == d else q.reshape(t_next, n_j, t_dim)
        w_by_mode = np.ascontiguousarray(
            q.reshape(t_next, n_j, t_dim).transpose(1, 0, 2)
        )
        vals = _kernels.sparse_update(mu, vals, w_by_mode)
        t_dim = t_next
    # bincount adds each column in entry order, as a scatter-add would.
    first = xs.idx[order, 0]
    cores[0] = np.column_stack(
        [np.bincount(first, vals[:, c], shape[0]) for c in range(t_dim)]
    )
    return TTTensor(cores, ortho="right")


def randomized_tt_svd(x, sketch_ranks, rng):
    """Sketch-based train decomposition of a dense or sparse tensor.

    `sketch_ranks` (an int or one int per edge) fixes the number of
    Gaussian sketch rows per step and thereby the ranks of the result.
    An int is clipped to the dimension products first; an explicit
    per-edge sequence is used exactly as given (widths beyond the
    feasible rank only cost memory, never correctness).  The output is
    right-orthogonal in cores 2..d and evaluating it applies an
    orthogonal projector to x, so the error never exceeds ||x||.  When
    the train rank of x is elementwise at most the sketch ranks, the
    reconstruction is exact with probability one.

    Dense and sparse inputs consume the per-step Gaussian streams
    identically, so both representations of the same tensor under the
    same stream produce the same train up to floating point roundoff
    as long as the widths are feasible (within the clipped ranks).
    Wider sketches pad cores with arbitrary orthonormal directions that
    may differ between the paths; the represented tensor still agrees.

    Dense input holding NaN or inf raises ValueError.  A zero input
    gives the all-zero train with a degenerate report.
    """
    t0 = time.perf_counter()
    if not isinstance(x, SparseTensor):
        x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    if len(shape) < 2:
        raise ValueError("decomposition needs order >= 2")
    if np.isscalar(sketch_ranks):
        sketch = clip_ranks(shape, sketch_ranks)
    else:
        sketch = tuple(integral_ranks(sketch_ranks, len(shape) - 1))
    if isinstance(x, SparseTensor):
        if x.nnz == 0:
            return _zero_result(shape, t0)
        result = _randomized_sparse(x, sketch, rng)
    else:
        if not x.any():
            return _zero_result(shape, t0)
        check_finite(x)
        result = _randomized_dense(x, sketch, rng)
    report = DecompositionReport(
        ranks=result.ranks, wall_time_s=time.perf_counter() - t0
    )
    return result, report
