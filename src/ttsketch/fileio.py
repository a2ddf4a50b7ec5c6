"""Plain-text tensor formats.

Three whitespace-delimited formats, each opened by a tag token:

  dense  d  n_1 ... n_d            followed by prod(n_i) values in
                                   row-major order
  sparse d  n_1 ... n_d  N         followed by N lines "i_1 ... i_d value"
                                   with 1-based indices
  tt     d  n_1 ... n_d  r_1 ... r_{d-1}
                                   followed by the cores in order, each
                                   flattened row-major

Readers work on the token stream, so line breaks are cosmetic; writers
put one record per line for dense values and sparse entries and one
core per line for trains.  All values must be finite.
"""

import numpy as np

from .tensor import SparseTensor, check_dense_size, check_shape, element_count
from .tt import TTTensor


def _fmt(v):
    return format(float(v), ".17g")


def _token_reader(text, what):
    tokens = text.split()
    pos = 0

    def take(count=None):
        nonlocal pos
        if count is None:
            if pos >= len(tokens):
                raise ValueError(f"truncated {what} data")
            tok = tokens[pos]
            pos += 1
            return tok
        if pos + count > len(tokens):
            raise ValueError(f"truncated {what} data")
        out = tokens[pos:pos + count]
        pos += count
        return out

    def done():
        if pos != len(tokens):
            raise ValueError(f"trailing tokens in {what} data")

    return take, done


def _take_int(take, what):
    tok = take()
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected an integer in {what}, got {tok!r}") from None


def _floats(tokens, what):
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ValueError(f"bad number in {what}: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite value in {what}")
    return vals


def save_dense(path, x):
    x = np.asarray(x, dtype=np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        head = ["dense", str(x.ndim)] + [str(n) for n in x.shape]
        fh.write(" ".join(head) + "\n")
        for row in x.reshape(-1, x.shape[-1]):
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def load_dense(text):
    take, done = _token_reader(text, "dense tensor")
    if take() != "dense":
        raise ValueError("not a dense tensor file")
    d = _take_int(take, "dense header")
    if d < 1:
        raise ValueError("order must be positive")
    shape = check_shape(_take_int(take, "dense header") for _ in range(d))
    total = check_dense_size(shape)
    vals = _floats(take(total), "dense values")
    done()
    return vals.reshape(shape)


def save_sparse(path, x):
    if not isinstance(x, SparseTensor):
        raise TypeError("save_sparse expects a SparseTensor")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        head = ["sparse", str(x.ndim)] + [str(n) for n in x.shape] + [str(x.nnz)]
        fh.write(" ".join(head) + "\n")
        for row, v in zip(x.idx, x.values):
            fh.write(" ".join(str(int(i) + 1) for i in row) + " " + _fmt(v) + "\n")


def load_sparse(text):
    take, done = _token_reader(text, "sparse tensor")
    if take() != "sparse":
        raise ValueError("not a sparse tensor file")
    d = _take_int(take, "sparse header")
    if d < 1:
        raise ValueError("order must be positive")
    shape = check_shape(_take_int(take, "sparse header") for _ in range(d))
    nnz = _take_int(take, "sparse header")
    if nnz < 0:
        raise ValueError("entry count must be nonnegative")
    # The entries as one table: d 1-based indices and a value per entry.
    table = take(nnz * (d + 1))
    try:
        values = np.array(table[d::d + 1], dtype=np.float64)
    except ValueError:
        # Name the first entry whose value is no number.
        for row, tok in enumerate(table[d::d + 1]):
            try:
                float(tok)
            except ValueError:
                raise ValueError(
                    f"entry {row + 1}: bad number {tok!r}"
                ) from None
        raise
    del table[d::d + 1]
    try:
        idx = np.array(table, dtype=np.int64).reshape(nnz, d)
    except (ValueError, OverflowError):
        # Name the first token that is no integer or no valid index.
        for pos, tok in enumerate(table):
            try:
                i = int(tok)
            except ValueError:
                raise ValueError(
                    f"expected an integer in sparse entry, got {tok!r}"
                ) from None
            if not 1 <= i <= shape[pos % d]:
                raise _index_error(pos // d, pos % d, i, shape) from None
        raise
    del table
    idx -= 1
    bad = (idx < 0) | (idx >= shape)
    bad_entry = bad.any(axis=1) | ~np.isfinite(values)
    if bad_entry.any():
        row = int(np.argmax(bad_entry))
        if bad[row].any():
            k = int(np.argmax(bad[row]))
            raise _index_error(row, k, int(idx[row, k]) + 1, shape)
        raise ValueError(f"entry {row + 1}: non-finite value")
    done()
    return SparseTensor(shape, idx, values)


def _index_error(row, k, i, shape):
    return ValueError(
        f"entry {row + 1}: index {i} out of range for mode "
        f"size {shape[k]} (indices are 1-based)"
    )


def save_tt(path, t):
    if not isinstance(t, TTTensor):
        raise TypeError("save_tt expects a TTTensor")
    shape = t.shape
    ranks = t.ranks
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        head = (
            ["tt", str(len(shape))]
            + [str(n) for n in shape]
            + [str(r) for r in ranks]
        )
        fh.write(" ".join(head) + "\n")
        for core in t.cores:
            fh.write(" ".join(_fmt(v) for v in core.ravel()) + "\n")


def load_tt(text):
    take, done = _token_reader(text, "tensor train")
    if take() != "tt":
        raise ValueError("not a tensor train file")
    d = _take_int(take, "tt header")
    if d < 2:
        raise ValueError("a tensor train needs order >= 2")
    shape = check_shape(_take_int(take, "tt header") for _ in range(d))
    ranks = [_take_int(take, "tt header") for _ in range(d - 1)]
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    dims = [(shape[0], ranks[0])]
    for i in range(1, d - 1):
        dims.append((ranks[i - 1], shape[i], ranks[i]))
    dims.append((ranks[d - 2], shape[d - 1]))
    cores = []
    for dim in dims:
        count = element_count(dim)
        cores.append(_floats(take(count), "tt core").reshape(dim))
    done()
    return TTTensor(cores)


def load_tensor_file(path):
    """Load a dense or sparse tensor file, deciding by the leading tag."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tag = text.split(None, 1)
    if not tag:
        raise ValueError(f"{path}: empty tensor file")
    if tag[0] == "dense":
        return load_dense(text)
    if tag[0] == "sparse":
        return load_sparse(text)
    raise ValueError(f"{path}: unknown tensor format tag {tag[0]!r}")


def load_tt_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return load_tt(fh.read())
