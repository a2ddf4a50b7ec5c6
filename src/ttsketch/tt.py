"""Tensor-train representation and the operations that keep it usable.

A train over shape (n_1, ..., n_d), d >= 2, stores cores
W_1 (n_1 x r_1), W_i (r_{i-1} x n_i x r_i), W_d (r_{d-1} x n_d); the
boundary cores are genuinely order 2, no dummy modes.  Evaluation
contracts neighbouring cores over the rank edges, left to right.

Orthogonality is tracked explicitly: "left" means cores 1..d-1 have
orthonormal columns when unfolded (row modes {1,2}); "right" means cores
2..d have orthonormal rows when unfolded (row mode {1}).  In either state
the whole train's norm is the norm of the single non-orthogonal boundary
core, which is what tt_norm exploits.
"""

import numpy as np

from .linalg import rq_row_orthonormal, truncated_svd
from .tensor import check_dense_size, check_integers, check_shape, element_count


class TTTensor:
    """Train of cores; `ortho` is None, "left" or "right"."""

    __slots__ = ("cores", "ortho")

    def __init__(self, cores, ortho=None):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if len(cores) < 2:
            raise ValueError("a tensor train needs at least two cores")
        for i, c in enumerate(cores):
            if c.ndim < 2:
                raise ValueError(f"core {i} has shape {c.shape}, expected 2 or 3 axes")
        if ortho not in (None, "left", "right"):
            raise ValueError(f"unknown orthogonality state {ortho!r}")
        self.cores = cores
        self.ortho = ortho
        # The first core whose shape differs from the layout that the
        # modes and ranks read off the cores imply is the one at fault.
        for i, (c, dims) in enumerate(zip(cores, core_shapes(self.shape, self.ranks))):
            if c.shape != dims:
                raise ValueError(f"core {i} has shape {c.shape}, expected {dims}")

    @property
    def order(self):
        return len(self.cores)

    @property
    def shape(self):
        return (self.cores[0].shape[0], *(c.shape[1] for c in self.cores[1:]))

    @property
    def ranks(self):
        return tuple(c.shape[-1] for c in self.cores[:-1])

    def copy(self):
        return TTTensor([c.copy() for c in self.cores], ortho=self.ortho)

    def __repr__(self):
        return f"TTTensor(shape={self.shape}, ranks={self.ranks}, ortho={self.ortho})"


def core_shapes(shape, ranks):
    """Core shapes of a train: (n_1, r_1), (r_{i-1}, n_i, r_i), (r_{d-1}, n_d)."""
    edges = (1, *ranks, 1)
    dims = [(edges[i], n, edges[i + 1]) for i, n in enumerate(shape)]
    dims[0], dims[-1] = dims[0][1:], dims[-1][:2]
    return dims


def integral_ranks(ranks, edges):
    """One positive int per edge; a single value applies to every edge.

    Python and numpy integers (and integral floats) pass; a fractional
    rank raises ValueError instead of being floored.
    """
    ranks = [ranks] * edges if np.isscalar(ranks) else list(ranks)
    if len(ranks) != edges:
        raise ValueError(f"expected {edges} ranks, got {len(ranks)}")
    ranks = check_integers(ranks, "ranks")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    return ranks


def clip_ranks(shape, ranks):
    """Clip requested ranks to the dimension products on both sides.

    `ranks` may be a single int, applied to every edge.  Edge i (between
    modes i and i+1, 0-based) can never usefully exceed the element count
    of either side, so r_i = min(request, prod(left), prod(right)).
    """
    shape = check_shape(shape)
    d = len(shape)
    if d < 2:
        raise ValueError("rank clipping needs order >= 2")
    ranks = integral_ranks(ranks, d - 1)
    out = []
    left = 1
    for i in range(d - 1):
        left *= shape[i]
        right = element_count(shape[i + 1:])
        out.append(min(ranks[i], left, right))
    return tuple(out)


def zero_tt(shape):
    """All-zero train with every rank equal to one."""
    shape = check_shape(shape)
    if len(shape) < 2:
        raise ValueError("a tensor train needs order >= 2")
    dims = core_shapes(shape, [1] * (len(shape) - 1))
    return TTTensor([np.zeros(dim) for dim in dims])


def tt_evaluate(t):
    """Contract all cores into the dense tensor the train represents."""
    shape = t.shape
    check_dense_size(shape)
    out = t.cores[0]
    for core in t.cores[1:-1]:
        r_in, n, r_out = core.shape
        out = out.reshape(-1, r_in) @ core.reshape(r_in, n * r_out)
        out = out.reshape(-1, r_out)
    out = out @ t.cores[-1]
    return out.reshape(shape)


def left_unfold(core):
    """Row modes {1,2}: (r_in*n, r_out) for interior cores, identity for W_1."""
    return core.reshape(-1, core.shape[-1])


def right_unfold(core):
    """Row mode {1}: (r_in, n*r_out) for interior cores, identity for W_d."""
    return core.reshape(core.shape[0], -1)


def orthogonalize_right(t):
    """Equal train whose cores 2..d have orthonormal rows.

    Every core of the result is a new array; the input is not modified.
    """
    cores = list(t.cores)
    for i in range(len(cores) - 1, 0, -1):
        r, q = rq_row_orthonormal(right_unfold(cores[i]))
        cores[i] = q.reshape(-1, *cores[i].shape[1:])
        prev = cores[i - 1]
        cores[i - 1] = (left_unfold(prev) @ r).reshape(*prev.shape[:-1], -1)
    return TTTensor(cores, ortho="right")


def tt_norm(t):
    """Frobenius norm of the represented tensor, computed in TT form."""
    if t.ortho == "left":
        return float(np.linalg.norm(t.cores[-1]))
    if t.ortho == "right":
        return float(np.linalg.norm(t.cores[0]))
    return tt_norm(orthogonalize_right(t))


def tt_round(t, target_ranks):
    """Truncate a train to the target ranks.

    Right-orthogonalizes first, then runs one left-to-right sweep of
    rank-truncated SVDs, so each local cut is taken against an
    orthonormal environment.  The result is left-orthogonal with ranks
    min(target, input rank) per edge.
    """
    target = clip_ranks(t.shape, target_ranks)
    cores = orthogonalize_right(t).cores
    for i in range(len(cores) - 1):
        core, nxt = cores[i], cores[i + 1]
        u, s, vt, _ = truncated_svd(left_unfold(core), target[i])
        cores[i] = u.reshape(*core.shape[:-1], -1)
        carry = s[:, None] * vt
        cores[i + 1] = (carry @ right_unfold(nxt)).reshape(-1, *nxt.shape[1:])
    return TTTensor(cores, ortho="left")
