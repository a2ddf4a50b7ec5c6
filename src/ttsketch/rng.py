"""Counter-based random streams.

Every stream is identified by a 64-bit key derived from a user seed.
Draw i of a stream is a pure function of (key, i): the i-th normal is
produced by the Box-Muller transform from two 64-bit mixer outputs at
counters 2i and 2i+1.  Its cosine is taken from a tangent (see
_kernels), so it agrees with the np.cos form to 2e-15 and its last bits
follow numpy's tan, as they followed libm's cos before.  Substreams are
derived by index, so independent objects (cores, samples, sketch steps)
get decorrelated streams without any shared mutable state.  The sketch
of a decomposition step draws through its step's key in a layout of its
own (one substream per sketch row, read at prefix codes, two rows per
Box-Muller pair; see _kernels.gammas_at), not through normals().  Repeated
calls with the same stream and arguments return identical values by
construction, which is what makes decompositions and experiments
reproducible.
"""

import numpy as np

from . import _kernels
from .tensor import check_integers, element_count


class RngStream:
    """A reproducible stream of draws identified by (seed, substream path)."""

    __slots__ = ("seed", "key")

    def __init__(self, seed, _key=None):
        (self.seed,) = check_integers((seed,), "seed")
        self.key = _kernels.key_from_seed(self.seed) if _key is None else int(_key)

    def substream(self, *indices):
        """Derive an independent stream; indices must be nonnegative ints."""
        key = self.key
        for idx in check_integers(indices, "substream indices"):
            key = _kernels.derive_key(key, idx)
        return RngStream(self.seed, _key=key)

    def normals(self, shape):
        """Standard normal draws at counters 0..size-1, reshaped C-order."""
        shape = check_integers((shape,) if np.ndim(shape) == 0 else shape, "sizes")
        return _kernels.standard_normals(self.key, element_count(shape)).reshape(shape)

    def index_draws(self, count, bounds):
        """Uniform multi-indices: an (count, len(bounds)) int64 array.

        Column k is uniform on [0, bounds[k]), 1 <= bounds[k] <= 2**63.
        Entry (i, k) consumes counter i*len(bounds)+k, so the draw order
        is row-major by entry.
        """
        (count,) = check_integers((count,), "draw count")
        bounds = check_integers(bounds, "index bounds")
        if not all(1 <= b <= 2 ** 63 for b in bounds):
            raise ValueError(f"index bounds must lie in [1, 2**63], got {bounds}")
        d = len(bounds)
        out = np.empty((count, d), dtype=np.int64)
        base = np.arange(count, dtype=np.uint64) * np.uint64(d)
        for k, b in enumerate(bounds):
            out[:, k] = _kernels.indices_at(np.uint64(self.key), base + np.uint64(k), b)
        return out

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key=0x{self.key:016x})"
