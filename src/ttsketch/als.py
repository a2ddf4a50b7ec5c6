"""Alternating least squares for train approximation, half-sweep form.

From random right-orthogonalized cores 2..d, the left-to-right half
sweep solves each core's least-squares problem with the others fixed.
The active core's environment is orthonormal, so each solve contracts
the target against the fixed cores: it is the randomized sweep with the
start train as its test matrix, and it runs through decompose's loop on
the mode-reversed target g = f.transpose(d-1, ..., 0).  At the loop's
step j (ALS's step i = d - j + 1) the sketch is Omega^T b, Omega the
start cores i+1..d contracted one at a time into b, never formed: ALS's
local solution with its rows permuted.  Reversing the loop's train and
transposing each core gives ALS's left-orthogonal train; a square step is
the loop's identity step, a gauge ALS would fill with a square q.  Omega
has orthonormal columns, so the objective ||f - x||^2 after step i is
||f||^2 - ||Omega^T b||^2, and ||f||^2 - ||W_1||^2 after the last.  For
matrices (d = 2) one half sweep is the sketched range finder.
"""

import numpy as np

from .decompose import _DenseRemainder, _sketch_sweep
# qr is unused here but stays bound: perfbench's tracer test expects it.
from .linalg import qr  # noqa: F401
from .tensor import as_real, check_finite
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


class _StartTrainRemainder(_DenseRemainder):
    """b of the mode-reversed target, sketched by the start train's cores,
    not by keys; `objectives` gathers ||f - x||^2 after each of the d updates."""

    def __init__(self, g, tail_cores):
        super().__init__(g)
        self.f_norm2 = float(np.vdot(self.b, self.b))
        # Core k as an (r_{k-1}, r_k * n_k) matrix, last core first: one
        # product per core takes b's leading mode and rank into the next rank.
        self.tests = [np.swapaxes(c, 1, -1).reshape(len(c), -1)
                      for c in reversed(tail_cores[1:])]
        self.objectives = []

    def _record(self, a):
        self.objectives.append(max(self.f_norm2 - float(np.sum(a ** 2)), 0.0))
        return a

    def sketch(self, j, s, key):
        a = self.b  # s is the clipped rank r_i, the rows of the last product
        for m in self.tests[:j - 1]:
            a = m @ a.reshape(m.shape[1], -1)
        return self._record(a)

    def project(self, j, q):
        if q is None:  # the loop skips the sketch, not ALS's objective
            self.sketch(j, None, None)
        super().project(j, q)

    def first_core(self):
        return self._record(super().first_core())


def als_half_sweep(f, ranks, rng):
    """Approximate a dense tensor by one left-to-right half sweep.

    `ranks` (an int or one value per edge) is clipped to the dimension
    products.  Returns the left-orthogonal train and the objective values
    ||f - x||^2 recorded after each of the d core updates
    (non-increasing).  When the train rank of f is elementwise at most
    the target, the half sweep reaches zero error with probability one.
    """
    f = as_real(f, "ALS target")
    shape = f.shape
    if len(shape) < 2:
        raise ValueError("ALS needs order >= 2")
    if check_finite(f):
        raise ValueError("ALS target must be nonzero")
    ranks = clip_ranks(shape, ranks)
    b = _StartTrainRemainder(f.T, _draw_tail_cores(shape, ranks, rng))
    t = _sketch_sweep(b, ranks[::-1], rng)
    return TTTensor([c.T for c in reversed(t.cores)], ortho="left"), b.objectives
