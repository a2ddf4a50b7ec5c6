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

Readers walk the text a chunk at a time, with one str.split per chunk; a
token or entry cut at a chunk's end moves to the next chunk, so line
breaks are cosmetic and no list of all tokens is ever held.  Each chunk's
values convert in one numpy call into a preallocated float64 array; a
short body is reported before a bad value in it, trailing tokens after
it.  Sparse index tokens are read from their digits, a chunk's tokens
joined into one ASCII string; a chunk holding a token that is not 1 to 18
ASCII digits converts through numpy instead, so both routes load the same
files with the same messages.  Sparse indices are read as int64, so a
file holds 1-based indices up to 2^63 - 1, in modes of any size;
save_sparse refuses an entry past that before it opens the file.  Writers put one record per
line for dense values and sparse entries and one core per line for
trains.  All values must be finite.
"""

import itertools
import math

import numpy as np

from .tensor import (
    _INT64_MAX, SparseTensor, as_real, check_dense_size, check_finite,
    check_shape, element_count,
)
from .tt import TTTensor, core_shapes


# Characters of text split per chunk, and the most digits read by digit
# arithmetic (10^18 - 1 < 2^63 - 1).  A chunk's tokens and the arrays that
# convert them take about 2 MB on a sparse index table.
_CHUNK = 2 ** 16
_MAX_DIGITS = 18


def _fmt(v):
    return format(float(v), ".17g")


def _chunks(text):
    """The tokens of text, one list per _CHUNK characters; a token cut at a
    chunk's end moves whole to the next list."""
    carry = ""
    for lo in range(0, len(text), _CHUNK):
        piece = carry + text[lo:lo + _CHUNK]
        tokens = piece.split()
        carry = ""
        if tokens and lo + _CHUNK < len(text) and not piece[-1].isspace():
            carry = tokens.pop()
        yield tokens


def _open(text, tag, extra):
    """The shape, the extra(d) header ints and the body of a `tag` file.

    The header (tag, order d, d mode sizes, extra(d) ints) is read from the
    first chunks; the body is the rest of the walk: the tokens left in the
    header's chunk, then the chunks after it.
    """
    what = "tensor train" if tag == "tt" else f"{tag} tensor"
    chunks = _chunks(text)
    tokens = []

    def fill(count):
        while len(tokens) < count:
            more = next(chunks, None)
            if more is None:
                break
            tokens.extend(more)

    def ints(start, count):
        fill(start + count)
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

    fill(1)
    if tokens[:1] != [tag]:
        raise ValueError(f"not a {what} file" if tokens else f"truncated {what} data")
    d = ints(1, 1)[0]
    if d < 1:
        raise ValueError("order must be positive")
    shape = check_shape(ints(2, d))
    head = ints(2 + d, extra(d))
    del tokens[:2 + d + len(head)]
    return shape, head, itertools.chain([tokens], chunks)


def _room(text, count, what):
    """count, if the text can hold that many body tokens: each takes a
    character and all but the last a separator.  A count it cannot hold is
    a short body, reported before anything is allocated for it."""
    if 2 * count - 1 > len(text):
        raise ValueError(f"truncated {what} data")
    return count


def _walk(body, count, record, what, take):
    """Hand the first `count` body tokens to take(start, tokens), in lists
    of whole records of `record` tokens, start the index of the list's
    first record; True if more tokens follow.

    A body too short raises first, then the first ValueError of take, after
    which the rest is only counted.
    """
    done, part, error, trailing = 0, [], None, False
    for tokens in body:
        tokens[:0] = part
        trailing = len(tokens) > count - done
        del tokens[count - done:]
        cut = len(tokens) - len(tokens) % record
        part = tokens[cut:]
        del tokens[cut:]
        if tokens and error is None:
            try:
                take(done // record, tokens)
            except ValueError as exc:
                error = exc
        done += cut
        if trailing:
            break
    if done < count:
        raise ValueError(f"truncated {what} data")
    if error is not None:
        raise error
    return trailing


def _floats(text, body, count, what, where):
    """The first `count` body tokens as float64, all finite, and no more."""
    vals = np.empty(_room(text, count, what))

    def take(start, tokens):
        try:
            vals[start:start + len(tokens)] = np.array(tokens, dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"bad number in {where}: {exc}") from None

    trailing = _walk(body, count, 1, what, take)
    if not (np.isfinite(vals.min(initial=0.0)) and np.isfinite(vals.max(initial=0.0))):
        raise ValueError(f"non-finite value in {where}")
    if trailing:
        raise ValueError(f"trailing tokens in {what} data")
    return vals


def _write(path, head, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(map(str, head)) + "\n")
        for line in lines:
            fh.write(line + "\n")


def save_dense(path, x):
    x = as_real(x, "dense tensor")
    check_shape(x.shape)
    check_finite(x)
    _write(path, ["dense", x.ndim, *x.shape],
           (" ".join(map(_fmt, row)) for row in x.reshape(-1, x.shape[-1])))


def load_dense(text):
    shape, _, body = _open(text, "dense", lambda d: 0)
    count = check_dense_size(shape)
    return _floats(text, body, count, "dense tensor", "dense values").reshape(shape)


def save_sparse(path, x):
    if not isinstance(x, SparseTensor):
        raise TypeError("save_sparse expects a SparseTensor")
    # The file's indices are 1-based and load_sparse reads them as int64,
    # so the 0-based index 2^63 - 1 of a larger mode has no form it reads.
    if x.idx.max(initial=-1) == _INT64_MAX:
        row, k = np.argwhere(x.idx == _INT64_MAX)[0]
        raise ValueError(
            f"entry {row + 1}: index {_INT64_MAX + 1} of mode {k + 1} "
            f"(1-based) exceeds the int64 maximum {_INT64_MAX} of sparse files")
    _write(path, ["sparse", x.ndim, *x.shape, x.nnz],
           (" ".join(str(int(i) + 1) for i in row) + " " + _fmt(v)
            for row, v in zip(x.idx, x.values)))


def load_sparse(text):
    shape, (nnz,), body = _open(text, "sparse", lambda d: 1)
    if nnz < 0:
        raise ValueError("entry count must be nonnegative")
    # The entries as a table of d 1-based indices and a value per entry,
    # converted a chunk of whole entries at a time: the values in one shot,
    # the indices from their digits.  A chunk that fails takes the slow
    # path, which walks its entries to name the first at fault.  Trailing
    # tokens are reported only for a table that loads.
    d = len(shape)
    count = _room(text, nnz * (d + 1), "sparse tensor")
    top = np.array([min(n, _INT64_MAX) for n in shape], dtype=np.int64)
    values = np.empty(nnz)
    idx = np.empty((nnz, d), dtype=np.int64)

    def take(row, tokens):
        vals = tokens[d::d + 1]
        del tokens[d::d + 1]
        end = row + len(vals)
        try:
            vals = np.array(vals, dtype=np.float64)
            got = _from_digits(tokens)
            idx[row:end] = (np.array(tokens, dtype=np.int64) if got is None
                            else got).reshape(-1, d)
            ok = (idx[row:end].min() >= 1 and not (idx[row:end] > top).any()
                  and np.isfinite(vals.min()) and np.isfinite(vals.max()))
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise _first_bad_entry(tokens, vals, shape, row)
        values[row:end] = vals

    if _walk(body, count, d + 1, "sparse tensor", take):
        raise ValueError("trailing tokens in sparse tensor data")
    idx -= 1
    return SparseTensor(shape, idx, values)


def _from_digits(part):
    """The values of tokens that are all 1 to 18 ASCII digits, or None; any
    other token (a sign, an underscore, a non-ASCII digit, 19 or more
    digits) is left to numpy's conversion, which says what loads.

    The tokens come from str.split, so none is empty or holds a space:
    joined by single spaces, each one ends before the next space.  The
    digits are added in one pass per digit position, counted from each
    token's end; 18 digits stay below 2^63, so the sums are exact.
    """
    try:
        text = (" ".join(part) + " ").encode("ascii")
    except UnicodeEncodeError:
        return None
    digit = np.frombuffer(text, dtype=np.uint8) - np.uint8(48)  # " " wraps to 240
    ends = np.flatnonzero(digit == 240)
    if np.count_nonzero(digit < 10) != len(text) - len(ends):
        return None
    width = np.diff(ends, prepend=-1) - 1
    top = int(width.max())
    if top > _MAX_DIGITS:
        return None
    out = digit[ends - 1].astype(np.int64)
    for q in range(1, top):
        out += np.where(width > q, digit[ends - (q + 1)], 0) * np.int64(10 ** q)
    return out


def _first_bad_entry(idx_tokens, values, shape, before=0):
    """The error naming the first sparse entry that does not load, of the
    entries after the first `before`.

    Walks the entries in order with the conversions of the one-shot path:
    int for the index tokens (at most the int64 maximum) and float for the
    value, given as a token or as the number already converted.
    """
    d = len(shape)
    for i, value in enumerate(values):
        row = before + i + 1
        for k, tok in enumerate(idx_tokens[i * d:(i + 1) * d]):
            try:
                i = int(tok)
            except ValueError:
                return ValueError(
                    f"entry {row}: expected an integer index, got {tok!r}")
            if not 1 <= i <= min(shape[k], _INT64_MAX):
                limit = (f"the int64 maximum {_INT64_MAX}"
                         if i > _INT64_MAX and shape[k] > _INT64_MAX
                         else f"mode size {shape[k]}")
                return ValueError(
                    f"entry {row}: index {i} out of range for {limit} "
                    f"(indices are 1-based)")
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
    for core in t.cores:
        check_finite(core, "tt core")
    _write(path, ["tt", t.order, *t.shape, *t.ranks],
           (" ".join(map(_fmt, core.ravel())) for core in t.cores))


def load_tt(text):
    shape, ranks, body = _open(text, "tt", lambda d: d - 1)
    if len(shape) < 2:
        raise ValueError("a tensor train needs order >= 2")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    dims = core_shapes(shape, ranks)
    sizes = [element_count(dim) for dim in dims]
    vals = _floats(text, body, sum(sizes), "tensor train", "tt core")
    parts = np.split(vals, np.cumsum(sizes[:-1]))
    return TTTensor([part.reshape(dim) for part, dim in zip(parts, dims)])


def load_tensor_file(path):
    """Load a dense or sparse tensor file, deciding by the leading tag."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tag = next(filter(None, _chunks(text)), [])[:1]
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
