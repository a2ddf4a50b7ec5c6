"""Plain-text tensor formats.

Three whitespace-delimited formats share one grammar: a tag, the order
d, the mode sizes and any further header integers, then the body:

  dense  d  n_1 ... n_d            followed by prod(n_i) values in
                                   row-major order
  sparse d  n_1 ... n_d  N         followed by N lines "i_1 ... i_d value"
                                   with 1-based indices
  tt     d  n_1 ... n_d  r_1 ... r_{d-1}
                                   followed by the cores in order, each
                                   flattened row-major

Readers split the text once, cut the header and any trailing tokens out
of that token list in place and convert the body in one numpy call, so
line breaks are cosmetic; a short body is reported before a bad value in
it, trailing tokens after it.  Writers put one record per line for dense
values and sparse entries and one core per line for trains.  All values
must be finite.
"""

import math

import numpy as np

from .tensor import SparseTensor, check_dense_size, check_shape, element_count
from .tt import TTTensor, core_shapes


_INT64_MAX = int(np.iinfo(np.int64).max)


def _fmt(v):
    return format(float(v), ".17g")


def _split(text, tag, extra):
    """The shape, the extra(d) header ints and the body of a `tag` file.

    Splits the text once and deletes the header (tag, order d, d mode
    sizes, extra(d) ints) from the front of the token list in place; the
    rest of the list is the body.
    """
    what = "tensor train" if tag == "tt" else f"{tag} tensor"
    tokens = text.split()

    def ints(start, count):
        out = []
        for tok in tokens[start:start + count]:
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"expected an integer in {tag} header, got {tok!r}") from None
        if len(out) < count:
            raise ValueError(f"truncated {what} data")
        return out

    if tokens[:1] != [tag]:
        raise ValueError(f"not a {what} file" if tokens else f"truncated {what} data")
    d = ints(1, 1)[0]
    if d < 1:
        raise ValueError("order must be positive")
    shape = check_shape(ints(2, d))
    head = ints(2 + d, extra(d))
    del tokens[:2 + d + len(head)]
    return shape, head, tokens


def _cut(tokens, count, what):
    """Keep the first `count` body tokens in place; True if more followed."""
    if len(tokens) < count:
        raise ValueError(f"truncated {what} data")
    trailing = len(tokens) > count
    del tokens[count:]
    return trailing


def _floats(tokens, what):
    try:
        vals = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"bad number in {what}: {exc}") from None
    if not (np.isfinite(vals.min(initial=0.0)) and np.isfinite(vals.max(initial=0.0))):
        raise ValueError(f"non-finite value in {what}")
    return vals


def _write(path, head, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(map(str, head)) + "\n")
        for line in lines:
            fh.write(line + "\n")


def save_dense(path, x):
    x = np.asarray(x, dtype=np.float64)
    _write(path, ["dense", x.ndim, *x.shape],
           (" ".join(map(_fmt, row)) for row in x.reshape(-1, x.shape[-1])))


def load_dense(text):
    shape, _, tokens = _split(text, "dense", lambda d: 0)
    trailing = _cut(tokens, check_dense_size(shape), "dense tensor")
    vals = _floats(tokens, "dense values")
    if trailing:
        raise ValueError("trailing tokens in dense tensor data")
    return vals.reshape(shape)


def save_sparse(path, x):
    if not isinstance(x, SparseTensor):
        raise TypeError("save_sparse expects a SparseTensor")
    _write(path, ["sparse", x.ndim, *x.shape, x.nnz],
           (" ".join(str(int(i) + 1) for i in row) + " " + _fmt(v)
            for row, v in zip(x.idx, x.values)))


def load_sparse(text):
    shape, (nnz,), tokens = _split(text, "sparse", lambda d: 1)
    if nnz < 0:
        raise ValueError("entry count must be nonnegative")
    # The entries as one table: d 1-based indices and a value per entry,
    # cut out of the token list in place rather than copied from it, and
    # converted in one shot each; any failure takes the slow path, which
    # names the first entry at fault.  Trailing tokens are reported only
    # for a table that loads.
    d = len(shape)
    trailing = _cut(tokens, nnz * (d + 1), "sparse tensor")
    values = tokens[d::d + 1]
    del tokens[d::d + 1]
    try:
        values = np.array(values, dtype=np.float64)
        idx = np.array(tokens, dtype=np.int64).reshape(nnz, d)
        ok = (np.all(idx.min(axis=0, initial=1) >= 1)
              and np.all(idx.max(axis=0, initial=1) <= shape)
              and np.isfinite(values.min(initial=0.0))
              and np.isfinite(values.max(initial=0.0)))
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        raise _first_bad_entry(tokens, values, shape)
    del tokens
    if trailing:
        raise ValueError("trailing tokens in sparse tensor data")
    idx -= 1
    return SparseTensor(shape, idx, values)


def _first_bad_entry(idx_tokens, values, shape):
    """The error naming the first sparse entry that does not load.

    Walks the entries in order with the conversions of the one-shot path:
    int for the index tokens (at most the int64 maximum) and float for the
    value, given as a token or as the number already converted.
    """
    d = len(shape)
    for row, value in enumerate(values, 1):
        for k, tok in enumerate(idx_tokens[(row - 1) * d:row * d]):
            try:
                i = int(tok)
            except ValueError:
                return ValueError(
                    f"entry {row}: expected an integer index, got {tok!r}")
            if not 1 <= i <= min(shape[k], _INT64_MAX):
                return ValueError(
                    f"entry {row}: index {i} out of range for mode "
                    f"size {shape[k]} (indices are 1-based)")
        try:
            value = float(value)
        except ValueError:
            return ValueError(f"entry {row}: bad number {value!r}")
        if not math.isfinite(value):
            return ValueError(f"entry {row}: non-finite value")
    raise AssertionError("no bad entry in a table that failed to load")


def save_tt(path, t):
    if not isinstance(t, TTTensor):
        raise TypeError("save_tt expects a TTTensor")
    _write(path, ["tt", t.order, *t.shape, *t.ranks],
           (" ".join(map(_fmt, core.ravel())) for core in t.cores))


def load_tt(text):
    shape, ranks, tokens = _split(text, "tt", lambda d: d - 1)
    if len(shape) < 2:
        raise ValueError("a tensor train needs order >= 2")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    dims = core_shapes(shape, ranks)
    sizes = [element_count(dim) for dim in dims]
    trailing = _cut(tokens, sum(sizes), "tensor train")
    vals = _floats(tokens, "tt core")
    if trailing:
        raise ValueError("trailing tokens in tensor train data")
    parts = np.split(vals, np.cumsum(sizes[:-1]))
    return TTTensor([part.reshape(dim) for part, dim in zip(parts, dims)])


def load_tensor_file(path):
    """Load a dense or sparse tensor file, deciding by the leading tag."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    # Keep only the tag: the rest of a split in two is a copy of the text.
    tag = text.split(None, 1)[:1]
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
