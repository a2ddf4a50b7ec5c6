"""Alternating least squares for train approximation, half-sweep form.

Starting from randomly drawn, right-orthogonalized cores 2..d, the
left-to-right half sweep solves each core's least-squares problem in
turn while every other core is fixed.  Because the environment of the
active core is kept orthonormal (left neighbours via the QR pushed
ahead of the sweep, right neighbours by the initialization), each local
solve is just a contraction of the target against the fixed cores, and
the objective ||f - x||^2 after an update is ||f||^2 minus the squared
norm of the updated core.

For matrices (d = 2) one half sweep reproduces the sketched range
finder: the first solve multiplies f by the random right core, the QR
of that product fixes the same column space the range finder would
orthonormalize, and the second solve projects f onto it.
"""

import numpy as np

from .linalg import qr
from .tensor import check_dense_size, check_finite, element_count
from .tt import TTTensor, clip_ranks, core_shapes, orthogonalize_right


def _draw_tail_cores(shape, ranks, rng):
    # Cores 2..d, core j drawn from substream j, then right-orthogonalized
    # among themselves: a zero placeholder for core 1 takes the leftover
    # triangular factor and is dropped, as the sweep never reads core 1.
    dims = core_shapes(shape, ranks)
    cores = [np.zeros(dims[0])]
    cores += [rng.substream(j).normals(dim) for j, dim in enumerate(dims[1:], 2)]
    cores = orthogonalize_right(TTTensor(cores)).cores
    cores[0] = None
    return cores


def _tail_matrices(shape, cores):
    # tails[j]: the chain of cores j..d as a (prod(n_j..n_d), r_{j-1}) matrix.
    d = len(shape)
    tails = [None] * (d + 1)
    tails[d] = cores[d - 1].T
    for j in range(d - 1, 1, -1):
        w = cores[j - 1]
        folded = np.tensordot(w, tails[j + 1], axes=([2], [1]))
        tails[j] = folded.transpose(1, 2, 0).reshape(-1, w.shape[0])
    return tails


def _sweep_left_to_right(f, tail_cores):
    shape = f.shape
    d = len(shape)
    tails = _tail_matrices(shape, tail_cores)
    f_norm2 = float(np.dot(f.ravel(), f.ravel()))
    objectives = []
    cores = [None] * d
    work = f.reshape(1, -1)
    r_prev = 1
    for i in range(1, d + 1):
        n_i = shape[i - 1]
        if i < d:
            rest = element_count(shape[i:])
            u_mat = work.reshape(r_prev * n_i, rest) @ tails[i + 1]
            objectives.append(max(f_norm2 - float(np.sum(u_mat ** 2)), 0.0))
            q, _ = qr(u_mat)
            cores[i - 1] = q if i == 1 else q.reshape(r_prev, n_i, q.shape[1])
            work = q.T @ work.reshape(r_prev * n_i, rest)
            r_prev = q.shape[1]
        else:
            u_mat = work.reshape(r_prev, n_i)
            objectives.append(max(f_norm2 - float(np.sum(u_mat ** 2)), 0.0))
            cores[i - 1] = u_mat
    return TTTensor(cores, ortho="left"), objectives


def als_half_sweep(f, ranks, rng):
    """Approximate a dense tensor by one left-to-right half sweep.

    `ranks` (an int or one value per edge) is clipped to the dimension
    products.  Returns the left-orthogonal train and the objective values
    ||f - x||^2 recorded after each of the d core updates
    (non-increasing).  When the train rank of f is elementwise at most
    the target, the half sweep reaches zero error with probability one.
    """
    f = np.asarray(f, dtype=np.float64)
    shape = f.shape
    if len(shape) < 2:
        raise ValueError("ALS needs order >= 2")
    check_dense_size(shape)
    if not f.any():
        raise ValueError("ALS target must be nonzero")
    check_finite(f)
    ranks = clip_ranks(shape, ranks)
    return _sweep_left_to_right(f, _draw_tail_cores(shape, ranks, rng))
