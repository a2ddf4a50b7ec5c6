"""Thin wrappers over LAPACK factorizations with fixed sign conventions.

The decompositions themselves are delegated to numpy; what this module
adds is determinism (each factor's sign ambiguity is resolved the same
way everywhere) and the small variants the decomposition sweeps need:
rank-truncated SVD and its cut energy, the left factor and singular
values of a wide matrix from the R factor of its long side (Chan's
R-SVD), a row-orthonormal RQ, and a relative-threshold numerical rank.
Every factorization reads its matrix through tensor.as_real, so complex
input raises ValueError instead of losing its imaginary part.  This is
the one module that calls numpy's LAPACK factorizations.

The R factor of a long side with few columns is taken as a TSQR tree
(Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012): the
rows are cut into blocks of _BLOCK_ELEMENTS (64 KiB), the blocks are
factored _GROUP at a time in one stacked np.linalg.qr call, and their
R factors, stacked with the leftover rows, are factored the same way
until one block is left.  For so few columns LAPACK's QR is a level-2
panel that passes over the whole matrix once per column, and OpenBLAS
threads those passes past about 8192 elements, which on few cores costs
more than it saves; a 64 KiB block stays in cache and below that
threshold.  numpy's qr copies its input, so the groups also bound that
copy to about 1 MiB.  The tree changes R at roundoff only.
"""

import numpy as np

from .tensor import as_real

# A row block of k columns has _BLOCK_ELEMENTS // k rows.  Rows are cut
# into blocks only where a block holds at least _MIN_ROWS_PER_COLUMN * k
# rows (k <= 45), so each level shrinks the matrix at least that much.
# Wider matrices lose with any block: on two cores the R factor of
# 100 x 20000 took 58 ms in one call, 187 ms with 2k-row blocks and
# 191 ms with 4k-row ones.
_BLOCK_ELEMENTS = 2 ** 13
_GROUP = 16
_MIN_ROWS_PER_COLUMN = 4


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
    not formed either.  r is taken block by block (_tall_r), which leaves
    it exact up to roundoff and the signs of its rows; neither changes u
    beyond roundoff, since the SVD fixes its own signs.  Tall and square
    matrices, and matrices without rows, take the plain SVD.
    """
    a = as_real(a, "left_svd input")
    if a.ndim != 2:
        raise ValueError("left_svd expects a matrix")
    if 0 < a.shape[0] < a.shape[1]:
        a = _tall_r(a.T).T
    u, s, _ = svd(a)
    return u, s


def _tall_r(t):
    """The k x k R factor of the tall m x k matrix t (m >= k >= 1), as a TSQR tree.

    Each level factors its full row blocks through a copy-free (nb, rows, k)
    view, _GROUP blocks per call, and stacks their R factors above the
    leftover rows; the last level, at most one block, is one call.  A
    matrix of one block, or with blocks of fewer than
    _MIN_ROWS_PER_COLUMN * k rows, is that one call alone.
    """
    k = t.shape[1]
    rows = _BLOCK_ELEMENTS // k
    while rows >= _MIN_ROWS_PER_COLUMN * k and t.shape[0] > rows:
        nb = t.shape[0] // rows
        blocks = t[:nb * rows].reshape(nb, rows, k)
        up = np.empty((nb * k + t.shape[0] - nb * rows, k))
        stacked = up[:nb * k].reshape(nb, k, k)
        for i in range(0, nb, _GROUP):
            stacked[i:i + _GROUP] = np.linalg.qr(blocks[i:i + _GROUP], mode="r")
        up[nb * k:] = t[nb * rows:]
        t = up
    return np.linalg.qr(t, mode="r")


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
