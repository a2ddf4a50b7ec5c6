"""Thin wrappers over LAPACK factorizations with fixed sign conventions.

The decompositions themselves are delegated to numpy; what this module
adds is determinism (each factor's sign ambiguity is resolved the same
way everywhere) and the small variants the decomposition sweeps need:
rank-truncated SVD and its cut energy, the left factor and singular
values of a wide matrix from the R factor of its long side (Chan's
R-SVD), a row-orthonormal RQ, and a relative-threshold numerical rank.
Every factorization reads its matrix through tensor.as_real, so complex
input raises ValueError instead of losing its imaginary part.
"""

import numpy as np

from .tensor import as_real


def _fix_svd_signs(u, vt):
    # Largest-magnitude entry of every left singular vector made nonnegative
    # (the first one on ties).  Column maxima and minima settle every column
    # whose largest magnitude m has one sign; only columns holding both +m
    # and -m (or only zeros) need positions.  Reductions and in-place
    # negation copy no full factor.
    if u.size:
        top = u.max(axis=0)
        low = -u.min(axis=0)
        flip = low > top
        tie = low == top
        if tie.any():
            sub = u[:, tie]
            flip[tie] = np.argmin(sub, axis=0) < np.argmax(sub, axis=0)
        np.negative(u, out=u, where=flip)
        np.negative(vt, out=vt, where=flip[:, None])
    return u, vt


def svd(a):
    """Thin SVD a = u @ diag(s) @ vt with deterministic signs."""
    a = as_real(a, "svd input")
    if a.ndim != 2:
        raise ValueError("svd expects a matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    u, vt = _fix_svd_signs(u, vt)
    return u, s, vt


def left_svd(a):
    """Left singular vectors and singular values of a; vt is never formed.

    A wide matrix is reduced first (Chan, ACM TOMS 8, 1982): a.T = q @ r
    gives a = r.T @ q.T, so the square r.T has the same u and s, and q is
    not formed either.  Tall and square matrices take the plain SVD.
    """
    a = as_real(a, "left_svd input")
    if a.ndim != 2:
        raise ValueError("left_svd expects a matrix")
    if a.shape[0] < a.shape[1]:
        a = np.linalg.qr(a.T, mode="r").T
    u, s, _ = svd(a)
    return u, s


def truncated_svd(a, rank):
    """Leading `rank` singular triples (fewer only if the matrix is smaller).

    Also returns the discarded energy, cut_energy(s, k).
    """
    if rank < 1:
        raise ValueError("target rank must be positive")
    u, s, vt = svd(a)
    k = min(int(rank), s.shape[0])
    return u[:, :k], s[:k], vt[:k, :], cut_energy(s, k)


def cut_energy(s, k):
    """The energy cut by keeping k singular values: the sum of the squares
    of s[k:], a float.  A sum too large for a float is inf, without an
    overflow warning; a finite one is the plain sum of squares."""
    with np.errstate(over="ignore"):
        return float(np.sum(s[k:] ** 2))


def qr(a):
    """Thin QR with nonnegative diagonal of r."""
    a = as_real(a, "qr input")
    if a.ndim != 2:
        raise ValueError("qr expects a matrix")
    q, r = np.linalg.qr(a)
    neg = np.diag(r) < 0
    if np.any(neg):
        q[:, neg] = -q[:, neg]
        r[neg, :] = -r[neg, :]
    return q, r


def rq_row_orthonormal(a):
    """Factor a = r @ q where q has orthonormal rows.

    Computed through the QR of the transpose; q has min(a.shape) rows.
    """
    qt, rt = qr(np.transpose(a))
    return rt.T, qt.T


def numerical_rank(s, rel_tol):
    """Number of singular values above rel_tol times the largest one."""
    s = np.asarray(s)
    if not rel_tol >= 0:
        raise ValueError("relative tolerance must be nonnegative")
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
