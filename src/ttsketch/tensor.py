"""Dense and sparse tensors plus the mode-wise primitives built on them.

Dense tensors are plain numpy float64 arrays indexed 0-based.  The
canonical linearization of a mode group is row-major (last index varies
fastest), which matches numpy's C order, so matricization is a transpose
followed by a reshape.

Sparse tensors store coordinates explicitly and may describe shapes whose
dense element count would not be addressable; every densifying operation
guards against that.
"""

import numpy as np

# Largest dense element count the package will materialize.
MAX_DENSE_ELEMENTS = 2 ** 40


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


def check_finite(x):
    """Reject a dense tensor holding NaN or inf.

    A NaN makes min and max NaN and an inf makes one of them infinite, so
    two reductions find both without an x.size boolean mask.
    """
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError("dense tensor entries must be finite")


def _check_modes(modes, d, what="mode set"):
    modes = tuple(int(m) for m in modes)
    if len(modes) == 0:
        raise ValueError(f"{what} must be nonempty")
    if len(set(modes)) != len(modes):
        raise ValueError(f"{what} has repeated modes: {modes}")
    if any(m < 0 or m >= d for m in modes):
        raise ValueError(f"{what} {modes} out of range for order {d}")
    return modes


def matricize(x, row_modes):
    """Unfold a dense tensor into a matrix.

    `row_modes` (0-based, strictly increasing) index the modes mapped to
    rows; the remaining modes, in their original order, map to columns.
    Both groups are linearized row-major.
    """
    x = np.asarray(x)
    d = x.ndim
    row_modes = _check_modes(row_modes, d, "row mode set")
    if any(a >= b for a, b in zip(row_modes, row_modes[1:])):
        raise ValueError(f"row mode set must be strictly increasing, got {row_modes}")
    col_modes = tuple(m for m in range(d) if m not in row_modes)
    rows = element_count(x.shape[m] for m in row_modes)
    cols = element_count(x.shape[m] for m in col_modes)
    return x.transpose(row_modes + col_modes).reshape(rows, cols)


def contract(x, x_modes, y, y_modes):
    """Contract dense tensors over paired modes.

    Pair k joins mode x_modes[k] of x with mode y_modes[k] of y; the
    result carries the remaining modes of x followed by those of y, each
    group in its original order.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    x_modes = _check_modes(x_modes, x.ndim, "x mode list")
    y_modes = _check_modes(y_modes, y.ndim, "y mode list")
    if len(x_modes) != len(y_modes):
        raise ValueError("paired mode lists must have equal length")
    for a, b in zip(x_modes, y_modes):
        if x.shape[a] != y.shape[b]:
            raise ValueError(
                f"cannot contract mode {a} of shape {x.shape} with mode "
                f"{b} of shape {y.shape}: sizes differ"
            )
    return np.tensordot(x, y, axes=(x_modes, y_modes))


def inner(x, y):
    """Frobenius inner product of two dense tensors of equal shape."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shapes {x.shape} and {y.shape} differ")
    return float(np.dot(x.ravel(), y.ravel()))


def norm(x):
    if isinstance(x, SparseTensor):
        return float(np.linalg.norm(x.values))
    return float(np.linalg.norm(np.asarray(x).ravel()))


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


def _strictly_increasing(idx):
    """Whether the rows of idx are in strict row-major order: each row is
    larger than the row before it in the first mode where the two differ
    (equal rows differ nowhere and compare equal in mode 0)."""
    # Mode 0 alone already rejects most unordered input, in O(nnz).
    if np.any(idx[1:, 0] < idx[:-1, 0]):
        return False
    split = first_differing_mode(idx)[1:, None]
    return bool(np.all(
        np.take_along_axis(idx[1:], split, axis=1)
        > np.take_along_axis(idx[:-1], split, axis=1)
    ))


class SparseTensor:
    """Coordinate-format tensor: sorted unique multi-indices plus values.

    Entries are kept in canonical (row-major linear) order, duplicates are
    rejected and explicit zeros dropped, so equal tensors have equal
    storage.  Shapes may exceed any dense limit; only the entries exist.
    Index and value arrays that need no change (int64 and float64,
    C-ordered, in canonical order, no zeros) are kept as given, shared with
    the caller rather than copied.
    """

    __slots__ = ("shape", "idx", "values")

    def __init__(self, shape, idx, values):
        self.shape = check_shape(shape)
        d = len(self.shape)
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if idx.ndim != 2 or idx.shape[1] != d:
            raise ValueError(f"index array must be (nnz, {d}), got {idx.shape}")
        if values.shape != (idx.shape[0],):
            raise ValueError("values length does not match index rows")
        if not np.all(np.isfinite(values)):
            raise ValueError("sparse values must be finite")
        if idx.shape[0]:
            bad = (idx.min(axis=0) < 0) | (idx.max(axis=0) >= self.shape)
            if bad.any():
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
        if idx.shape[0] > 1 and not _strictly_increasing(idx):
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
        self.idx = np.ascontiguousarray(idx)
        self.values = np.ascontiguousarray(values)

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

