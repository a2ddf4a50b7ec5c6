"""Dense and sparse tensors and the checks on their shapes and entries.

Dense tensors are plain numpy float64 arrays indexed 0-based.  The
canonical linearization of a mode group is row-major (last index varies
fastest), which matches numpy's C order, so unfolding against the
leading modes is a reshape.

Sparse tensors store coordinates explicitly and may describe shapes whose
dense element count would not be addressable; every densifying operation
guards against that.
"""

import numpy as np

# Largest dense element count the package will materialize.
MAX_DENSE_ELEMENTS = 2 ** 40
_INT64_MAX = int(np.iinfo(np.int64).max)


def element_count(shape):
    total = 1
    for n in shape:
        total *= int(n)
    return total


def check_integers(values, what):
    """The values as python ints; a fractional one raises ValueError.

    Python and numpy integers and integral floats pass, where int()
    alone would floor a fraction silently.
    """
    values = list(values)
    try:
        out = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != values:
        raise ValueError(f"{what} must be integers, got {values}")
    return out


def check_shape(shape):
    shape = tuple(check_integers(shape, "mode sizes"))
    if len(shape) < 1:
        raise ValueError("tensor order must be at least 1")
    if any(n < 1 for n in shape):
        raise ValueError(f"mode sizes must be positive, got {shape}")
    return shape


def check_dense_size(shape):
    total = element_count(shape)
    if total > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"dense tensor with {total} elements exceeds the addressable "
            f"limit of 2**40; use the sparse representation"
        )
    return total


def check_finite(x, what="dense tensor"):
    """Reject a dense tensor holding NaN or inf; True if every entry is 0.

    A NaN makes min and max NaN and an inf makes one of them infinite, so
    two reductions find both without an x.size boolean mask.  Both start
    from 0, so they read 0 and 0 exactly when x has no nonzero entry (-0.0
    included, or no entry at all).
    """
    lo, hi = x.min(initial=0.0), x.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{what} entries must be finite")
    return lo == hi == 0.0


def as_real(a, what):
    """a as a float64 array; a SparseTensor, or complex input whose imaginary
    part the cast would drop, raises ValueError.  The check reads the dtype."""
    if isinstance(a, SparseTensor):
        raise ValueError(f"{what} must be a dense array, got a SparseTensor")
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got dtype {a.dtype}")
    return np.asarray(a, dtype=np.float64)


def first_differing_mode(idx):
    """Mode in which each row of an (nnz, d) index array first differs from
    the row before it.

    Row 0, which has no row before it, and a row equal to the row before it
    both get 0.  The result has the narrowest unsigned type that holds d.
    """
    split = np.zeros(idx.shape[0], dtype=np.min_scalar_type(idx.shape[1]))
    if idx.shape[0] > 1:
        split[1:] = np.argmax(idx[1:] != idx[:-1], axis=1)
    return split


def _canonical_split(idx):
    """first_differing_mode(idx) if the rows of idx are in strict row-major
    order, else None.  Strict order: each row is larger than the row before
    it in the first mode where the two differ (equal rows differ nowhere
    and compare equal in mode 0)."""
    # Mode 0 alone already rejects most unordered input, in O(nnz).
    if np.any(idx[1:, 0] < idx[:-1, 0]):
        return None
    split = first_differing_mode(idx)
    at = split[1:, None]
    if np.all(np.take_along_axis(idx[1:], at, axis=1)
              > np.take_along_axis(idx[:-1], at, axis=1)):
        return split
    return None


class SparseTensor:
    """Coordinate-format tensor: sorted unique multi-indices plus values.

    Entries are kept in canonical (row-major linear) order, duplicates are
    rejected and explicit zeros dropped, so equal tensors have equal
    storage.  Shapes may exceed any dense limit; only the entries exist.
    Index and value arrays that need no change (int64 and float64,
    C-ordered, in canonical order, no zeros) are kept as given, shared with
    the caller rather than copied.  `split` is first_differing_mode(idx),
    computed once, by the canonical-order check or after the sort; the
    sparse sweep reads it.
    """

    __slots__ = ("shape", "idx", "values", "split")

    def __init__(self, shape, idx, values):
        self.shape = check_shape(shape)
        d = len(self.shape)
        idx = np.asarray(idx, dtype=np.int64)
        values = as_real(values, "sparse values")
        if idx.ndim != 2 or idx.shape[1] != d:
            raise ValueError(f"index array must be (nnz, {d}), got {idx.shape}")
        if values.shape != (idx.shape[0],):
            raise ValueError("values length does not match index rows")
        if not np.all(np.isfinite(values)):
            raise ValueError("sparse values must be finite")
        # One flat minimum and one contiguous compare against the largest
        # index per mode (clipped to int64, where every index fits); the
        # per-mode reductions run only to name the first mode at fault.
        top = np.array([min(n - 1, _INT64_MAX) for n in self.shape], dtype=np.int64)
        if idx.min(initial=0) < 0 or (idx > top).any():
            bad = (idx.min(axis=0) < 0) | (idx.max(axis=0) > top)
            k = int(np.argmax(bad))
            raise ValueError(
                f"index out of range in mode {k} for size {self.shape[k]}"
            )
        keep = values != 0.0
        if not keep.all():
            idx = idx[keep]
            values = values[keep]
        # Rows already in canonical order, as save_sparse writes them, are
        # kept as given; anything else is sorted and checked for duplicates.
        split = _canonical_split(idx)
        if split is None:
            # Big-endian bytes of nonnegative indices compare like the
            # numbers, so sorting each row as one byte string gives the
            # row-major (lexicographic) order.
            row = np.dtype((np.void, 8 * d))
            order = np.argsort(
                np.ascontiguousarray(idx, dtype=">u8").view(row).ravel()
            )
            idx = idx[order]
            values = values[order]
            rows = idx.view(row).ravel()
            if np.any(rows[1:] == rows[:-1]):
                raise ValueError("duplicate multi-indices in sparse tensor")
            split = first_differing_mode(idx)
        self.idx = np.ascontiguousarray(idx)
        self.values = np.ascontiguousarray(values)
        self.split = split

    @property
    def nnz(self):
        return self.idx.shape[0]

    @property
    def ndim(self):
        return len(self.shape)

    def to_dense(self):
        check_dense_size(self.shape)
        out = np.zeros(self.shape)
        if self.nnz:
            out[tuple(self.idx.T)] = self.values
        return out

