"""Train decompositions: deterministic SVD sweeps and the randomized sketch.

The deterministic path repeatedly unfolds the remainder against the
leading mode group, takes its left singular factor, keeps that as a
core and carries the projection of the unfolding onto it forward; ranks
come either from a relative singular value threshold (exact mode) or
from prescribed targets (truncated mode).  The unfoldings are mostly
wide, so each step takes the R factor of the long side and the SVD of
that small square (Chan's R-SVD, ACM TOMS 8, 1982); the right singular
factor, as large as the unfolding, is never formed.  linalg.left_svd
takes that R factor as a TSQR tree of cache-sized row blocks where the
unfolding has few rows, so the sweep never copies a whole unfolding for
LAPACK.  Its error satisfies the usual sqrt(d-1) quasi-optimality
factor against the unfolding tails.

The randomized path never forms the leading unfoldings at full size.
Walking from the last mode down to the second, it sketches the current
remainder b with a Gaussian tensor g over all leading modes, makes the
sketch's rows orthonormal (an RQ factorization), keeps those rows as
the core and projects b onto them; the first core finally holds the
projected weights, so evaluating the train applies an orthogonal
projector to the input.  Every Gaussian entry is a pure function of
(step, row, position) through the counter-based stream: row k of step j
reads the substream derive_key(step key, k) at the position's prefix
code, built by chained mixing of its indices, and rows 2m and 2m+1 share
one Box-Muller pair (_kernels.gammas_at).  That is what lets the sparse
fast path materialize only the entries of g that meet stored data:
identical seeds make both paths consume identical random values, and
no two rows or prefixes share a counter, at any order.  For a matrix the
one step is the Gaussian range finder of its rows (Halko, Martinsson &
Tropp, SIAM Rev. 53, 2011, sec. 4); compute_eta and success_probability
give the constants of its tail bound.

One loop (_sketch_sweep) runs the steps for both representations and
for ALS (als); the remainders differ only in their sketch, projection
and first core.  For sparse input with N stored entries the sketch
draws s Gaussian entries per distinct index prefix (one column of g per
occupied leading position, at most N of them) and the remainder keeps one
row per distinct index prefix of the step's length, at most N of them:
after an update each row depends on its prefix one mode shorter alone,
so the rows sharing that prefix are added into one.  Both contractions
are one matrix product per mode value, so the cost grows linearly in the
order at fixed N and s, and falls where the entries share prefixes.
The dense step derives its lead positions' codes chunk by chunk from the
parent level's; the sparse sweep keeps one code per row and steps it
back one index per step, by the mixer's inverse.  The identity steps
before the first draw (below) only move each stored value to its
suffix's column, so the sparse remainder defers them and places every
entry once, by one scatter into one row per distinct prefix, and builds
codes for those rows alone.

Each sweep's loop bounds its ranks by its unfoldings' rows and columns (a
sketch takes at most as many rows as the unfolding has), so the entry
points only check that widths and targets are positive integers.  A step
whose orthonormal factor would be square keeps every direction, so it
only rotates the remainder: a sketch with at least as many rows as the
unfolding has columns (the range finder's exact case), or a truncation
target of at least the unfolding's rows where it has no more rows than
columns.  Both sweeps make such a step an identity core and draw, factor
and copy nothing; only a sparse identity step after a draw multiplies,
by the identity, to keep one update path.  The exact sweep's ranks depend on the singular values,
so it factors all.

Every entry point takes a finite real dense array (NaN, inf or a complex
dtype raises ValueError) or a SparseTensor, which the deterministic sweeps
densify, of order >= 2.
Once the method's own parameters pass, a zero input gets the rank-one zero
train and a degenerate report without a sweep.  A report holds the ranks
and the wall time, and for the deterministic sweeps the energy cut per edge.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
# svd is unused here but stays bound: perfbench's tracer test expects it.
from .linalg import (  # noqa: F401
    cut_energy, left_svd, numerical_rank, rq_row_orthonormal, svd,
)
from .tensor import (
    SparseTensor, as_real, check_finite, check_integers, element_count,
)
from .tt import TTTensor, integral_ranks, tt_evaluate, zero_tt

_E = math.e


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


def _check_t_u(t, u):
    if not (t >= 1 and u >= 1):
        raise ValueError("t and u must be at least 1")


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
    _check_t_u(t, u)
    return 1.0 + t * math.sqrt(12.0 * r / p) + u * t * _E * math.sqrt(r + p) / (p + 1)


def success_probability(oversampling, t=1.0, u=1.0, steps=1):
    """Lower bound on the chance that all `steps` projections stay within eta."""
    p, steps = check_integers((oversampling, steps), "oversampling and steps")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    _check_t_u(t, u)
    single = 1.0 - 5.0 * t ** (-p) - 2.0 * math.exp(-u * u / 2.0)
    return max(0.0, single) ** steps


def relative_error(x, t):
    """||x - evaluation of t|| / ||x||; a SparseTensor x is densified.

    Both are scaled by 2^-e, max |x| = m 2^e with m in [0.5, 1), so the
    norms neither overflow nor underflow for any finite x.  A product with
    a power of two is exact away from subnormals, so the ratio is the one
    computed unscaled wherever that one is in range.
    """
    x = x.to_dense() if isinstance(x, SparseTensor) else as_real(x, "tensor entries")
    if t.shape != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {t.shape}")
    big = max(x.max(), -x.min()) if x.size else 0.0
    if big == 0.0:
        raise ValueError("relative error is undefined against a zero tensor")
    e = -int(np.frexp(big)[1])
    y = tt_evaluate(t)
    np.ldexp(y, e, out=y)
    diff = np.ldexp(x, e)
    nx = np.linalg.norm(diff.ravel())
    diff -= y
    return float(np.linalg.norm(diff.ravel()) / nx)


def _admit(x):
    """Real dense input as float64 and a SparseTensor as it is, of order >= 2."""
    if not isinstance(x, SparseTensor):
        x = as_real(x, "tensor entries")
    if x.ndim < 2:
        raise ValueError("decomposition needs order >= 2")
    return x


def _decompose(x, sweep):
    """Train and report of admitted x; sweep(x) gives (train, cut energies)."""
    t0 = time.perf_counter()
    # Dense input is read twice, by check_finite's min and max, which also
    # tell whether it is zero.
    degenerate = not x.nnz if isinstance(x, SparseTensor) else check_finite(x)
    result, discarded = (zero_tt(x.shape), ()) if degenerate else sweep(x)
    report = DecompositionReport(
        result.ranks, tuple(discarded), time.perf_counter() - t0, degenerate
    )
    return result, report


# ---------------------------------------------------------------------------
# deterministic sweep

def _svd_sweep(x, target=None, rel_tol=0.0):
    """Left-orthogonal train and cuts; edge i keeps target[i] or the rank at rel_tol."""
    if isinstance(x, SparseTensor):
        x = x.to_dense()
    shape = x.shape
    d = len(shape)
    cores = []
    discarded = []
    cur = x.reshape(shape[0], -1)
    r_prev = 1
    for i in range(d - 1):
        if target is not None and cur.shape[0] <= min(target[i], cur.shape[1]):
            # The target keeps every row, so u would be square: the identity.
            u, cut, rest = np.eye(cur.shape[0]), 0.0, cur
        else:
            u, s = left_svd(cur)
            k = max(1, numerical_rank(s, rel_tol)) if target is None else target[i]
            u, cut = u[:, :k], cut_energy(s, k)
            rest = u.T @ cur
        k = u.shape[1]
        discarded.append(cut)
        cores.append(u if i == 0 else u.reshape(r_prev, shape[i], k))
        cur = rest.reshape(k * shape[i + 1], -1) if i < d - 2 else rest
        r_prev = k
    cores.append(cur.copy())  # a view of x if every step was the identity
    return TTTensor(cores, ortho="left"), discarded


def tt_svd_exact(x, rel_tol=1e-12):
    """Left-orthogonal train reproducing x up to the given relative cut.

    Each step keeps the numerical rank of the unfolding at rel_tol, so
    with the default tolerance the result matches x to working precision
    and the achieved ranks are the numerical unfolding ranks.
    """
    if not rel_tol >= 0:
        raise ValueError("relative tolerance must be nonnegative")
    return _decompose(_admit(x), lambda x: _svd_sweep(x, rel_tol=rel_tol))


def tt_svd_truncated(x, target_ranks):
    """Train truncated to the target ranks by the deterministic sweep."""
    x = _admit(x)
    target = integral_ranks(target_ranks, x.ndim - 1)
    return _decompose(x, lambda x: _svd_sweep(x, target))


# ---------------------------------------------------------------------------
# randomized sketch

def _sketch_sweep(b, sketch, rng):
    """Right-orthogonal train of the remainder b of a tensor of b.shape.

    b gives its sketch(j, s, key), an (s, n_j * t) matrix, its projection
    project(j, q) onto the rows of q and, after step 2, its first_core().
    """
    d = len(b.shape)
    cores = [None] * d
    t = 1
    lead = element_count(b.shape[:-1])  # rows of the unfolding at step j
    for j in range(d, 1, -1):
        n_j = b.shape[j - 1]
        # q keeps min(s, n_j * t) rows; a sketch covering the n_j * t columns
        # would make it square (b q^T q = b): the identity step, q None.
        s = min(sketch[j - 2], lead)
        q = None if s >= n_j * t else rq_row_orthonormal(
            b.sketch(j, s, rng.substream(j).key))[1]
        core = np.eye(n_j * t) if q is None else q
        cores[j - 1] = core if j == d else core.reshape(-1, n_j, t)
        t = core.shape[0]
        b.project(j, q)
        lead //= b.shape[j - 2]
    cores[0] = b.first_core()
    return TTTensor(cores, ortho="right")


class _DenseRemainder:
    """b as a dense (leading positions, n_j * t) matrix."""

    def __init__(self, x):
        self.shape = x.shape
        self.b = x.reshape(element_count(x.shape[:-1]), x.shape[-1])

    def sketch(self, j, s, key):
        # Column p of the Gaussian block is drawn at the code of lead
        # position p; gammas_at derives those codes chunk by chunk from the
        # parent level's, so no code array is as long as the block's rows.
        # The block is freed by the product that consumes it, so it never
        # lives beside the next step's b: a step holds b, one block of
        # s * lead normals and then b beside its projection.
        parents = np.zeros(1, dtype=np.uint64)
        for n in self.shape[:j - 2]:
            parents = _kernels.extend_codes(parents[:, None], np.arange(n)).reshape(-1)
        return _kernels.gammas_at(parents, s, key, self.shape[j - 2]) @ self.b

    def project(self, j, q):
        b = self.b if q is None else self.b @ q.T
        self.b = b.reshape(-1, self.shape[j - 2] * b.shape[1]) if j > 2 else b

    def first_core(self):
        return self.b.copy()  # a view of x if every step was the identity


class _SparseRemainder:
    """b as one row of length t per distinct index prefix, rows in `order`.

    Step j's rows are the distinct prefixes idx[:, :j] of the stored
    entries: after step j's update a row depends on its prefix idx[:, :j-1]
    alone, so the rows sharing that prefix are added into one.  Each row
    keeps, in canonical order, the id of its first entry (`rows`), through
    which it reads its indices, its prefix code and its split; `order`
    lists the rows sorted by their index in the current mode, the order of
    `vals` and `mu`.

    The steps before the first draw are identity steps, which only move
    each entry to its suffix's column, so the rows are placed once, at the
    first sketch or first core (_place): after identity steps d..m+1 each
    entry's value sits in the row of its prefix idx[:, :m], at the
    row-major index of its suffix idx[:, m:], and nothing else is nonzero.
    Distinct entries only add to zeros there, so the placed rows are the
    ones the identity updates and merges would build, bit for bit.  An
    identity step after a draw projects like any other step.

    The Gaussian column of a row depends on its prefix idx[:, :j-1] alone,
    through the prefix's code: `codes` holds each row's code at the current
    step and steps back one index per step (extend_codes is invertible), so
    one level is ever held, and it is first built for the placed rows only.
    The rows are in canonical order, so those sharing a prefix are adjacent:
    a new prefix starts wherever a row first differs from the one before it
    in a mode below j-1 (its `split`, which starts as the tensor's).  The
    runs come from the indices, not the codes; the same runs place the
    entries, pick the Gaussian columns and, after an update, the rows that
    are added.
    """

    def __init__(self, xs):
        self.idx, self.shape = xs.idx, xs.shape
        self.values, self.split = xs.values, xs.split
        # The prefix length of the rows while every step so far was the
        # identity; None once they are placed.
        self.pending = xs.ndim
        self.runs = (None,)

    def _place(self):
        """One row per distinct prefix of length m = pending, each entry's
        value at its suffix's row-major column, rows sorted by mode m."""
        m, self.pending = self.pending, None
        d = len(self.shape)
        new = self.split < m  # split[0] == 0, so entry 0 starts a prefix
        # The identity steps d..m+1 merged last at step c+1, c the smallest
        # split at or past m: rows in canonical order, then one stable sort
        # per step, by modes c, c-1, ..., m.  So the rows sort by their
        # indices in modes m+1..c before mode m.
        c = int(self.split[~new].min(initial=d))
        self.rows = np.flatnonzero(new)
        self.split = self.split[new]
        self.deepest = int(self.split.max())
        self.codes = np.zeros(len(self.rows), dtype=np.uint64)
        for k in range(m - 1):
            self.codes = _kernels.extend_codes(self.codes, self.idx[self.rows, k])
        t = element_count(self.shape[m:])
        within = np.zeros(len(self.rows), dtype=np.int64)
        for k in range(m, c):
            within *= self.shape[k]
            within += self.idx[self.rows, k]
        self.order = np.argsort(within.astype(np.min_scalar_type(t - 1)), kind="stable")
        self._sort(m, self.idx[self.rows, m - 1])
        # Each entry's row in the sorted order, then by Horner's rule over
        # its suffix its position in vals: row * t + column.
        where = np.empty_like(self.order)
        where[self.order] = np.arange(len(self.order))
        flat = where[np.cumsum(new) - 1]
        for k in range(m, d):
            flat *= self.shape[k]
            flat += self.idx[:, k]
        self.vals = np.zeros((len(self.rows), t))
        self.vals.reshape(-1)[flat] = self.values

    def _sort(self, j, column):
        # Rows by mode j for step j, whose indices in canonical row order are
        # column; stable, so the order is reproducible, and a narrow key
        # lets numpy use its radix sort.  The caller moves vals.
        n_j = self.shape[j - 1]
        mu = column[self.order]
        by_mode = np.argsort(mu.astype(np.min_scalar_type(n_j - 1)), kind="stable")
        self.order = self.order[by_mode]
        self.mu = mu[by_mode]
        return by_mode

    def _runs(self, j):
        """Which rows start a prefix of length j-1, in canonical order, and
        the run of each sorted row; found once per step."""
        if self.runs[0] != j:
            new = self.split < j - 1  # split[0] == 0, so row 0 starts a run
            self.runs = (j, new, (np.cumsum(new) - 1)[self.order])
        return self.runs[1:]

    def sketch(self, j, s, key):
        # One column per prefix, gathered to the rows one mode group at a
        # time and freed on return: a step holds the projected rows, the
        # columns per prefix and one group's gathered columns, then the
        # projected rows beside the next ones.
        if self.pending is not None:
            self._place()
        new, run = self._runs(j)
        gam = _kernels.gammas_at(self.codes[new], s, key)
        a = _kernels.sparse_sketch(self.mu, self.vals, gam, run, self.shape[j - 1])
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(s, -1)

    def project(self, j, q):
        if q is None and self.pending is not None:
            self.pending = j - 1
            return
        n_j = self.shape[j - 1]
        q = np.eye(n_j * self.vals.shape[1]) if q is None else q
        w = q.reshape(q.shape[0], n_j, -1).transpose(1, 0, 2)
        self.vals = _kernels.sparse_update(self.mu, self.vals, np.ascontiguousarray(w))
        if j > 2:
            if self.deepest >= j - 1:
                self._merge(j)
            column = self.idx[self.rows, j - 2]
            self.codes = _kernels.parent_codes(self.codes, column)
            self.vals = self.vals[self._sort(j - 1, column)]

    def _merge(self, j):
        # The rows of a run are added in the sorted row order into one row
        # per run, in canonical order.  A run meets each mode value at most
        # once, so a mode group adds into distinct rows: one indexed add per
        # group, each sum started from 0.0, as a scatter-add would.
        new, run = self._runs(j)
        merged = np.zeros((np.count_nonzero(new), self.vals.shape[1]))
        bounds = _kernels._runs(self.mu)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            merged[run[lo:hi]] += self.vals[lo:hi]
        self.vals = merged
        self.rows, self.codes, self.split = self.rows[new], self.codes[new], self.split[new]
        self.deepest = int(self.split.max())
        self.order = np.arange(len(merged))

    def first_core(self):
        # bincount adds each column in row order, as a scatter-add would.
        if self.pending is not None:
            self._place()
        first, n_1 = self.idx[self.rows[self.order], 0], self.shape[0]
        return np.column_stack([np.bincount(first, v, n_1) for v in self.vals.T])


def randomized_tt_svd(x, sketch_ranks, rng):
    """Sketch-based train decomposition of a dense or sparse tensor.

    `sketch_ranks` (an int or one int per edge) fixes the number of
    Gaussian sketch rows per step and thereby the ranks of the result:
    edge j reaches min(width, rows, n_{j+1} * r_{j+1}) of its unfolding,
    never more than `clip_ranks` gives.  The output is right-orthogonal
    in cores 2..d and evaluating it applies an orthogonal projector to
    x, so the error never exceeds ||x||.  When the train rank of x is
    elementwise at most the sketch ranks, the reconstruction is exact
    with probability one.

    Dense and sparse inputs consume the per-step Gaussian streams
    identically, so both representations of the same tensor under the
    same stream produce the same train up to floating point roundoff
    where the widths are within the unfoldings' numerical ranks.  Wider
    sketches pad cores with arbitrary orthonormal directions that may
    differ between the paths; the represented tensor still agrees.
    """
    x = _admit(x)
    sketch = integral_ranks(sketch_ranks, x.ndim - 1)
    remainder = _SparseRemainder if isinstance(x, SparseTensor) else _DenseRemainder
    return _decompose(x, lambda x: (_sketch_sweep(remainder(x), sketch, rng), ()))
