"""Text formats: round trips, 1-based indices on disk, error reporting."""

import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles as o
from ttsketch import (
    RngStream, SparseTensor, TTTensor, gaussian_sparse, random_tt,
)
from ttsketch.fileio import (
    load_dense, load_sparse, load_tensor_file, load_tt, load_tt_file,
    save_dense, save_sparse, save_tt,
)


def test_dense_round_trip(tmp_path):
    x = RngStream(1).normals((3, 4, 2))
    path = tmp_path / "x.txt"
    save_dense(path, x)
    back = load_tensor_file(path)
    assert np.array_equal(back, x)
    header = path.read_text().splitlines()[0]
    assert header == "dense 3 3 4 2"


def test_sparse_round_trip_one_based(tmp_path):
    xs = gaussian_sparse((4, 5, 6), 12, RngStream(2))
    path = tmp_path / "s.txt"
    save_sparse(path, xs)
    text = path.read_text()
    first_entry = text.splitlines()[1].split()
    stored = [int(t) - 1 for t in first_entry[:3]]
    assert stored == list(xs.idx[0])
    back = load_tensor_file(path)
    assert isinstance(back, SparseTensor)
    assert np.array_equal(back.idx, xs.idx)
    assert np.array_equal(back.values, xs.values)


def test_tt_round_trip(tmp_path):
    t = random_tt((3, 4, 5), 3, RngStream(3))
    path = tmp_path / "t.txt"
    save_tt(path, t)
    back = load_tt_file(path)
    assert back.shape == t.shape and back.ranks == t.ranks
    for ca, cb in zip(t.cores, back.cores):
        assert np.array_equal(ca, cb)


def test_values_survive_17_digit_round_trip(tmp_path):
    x = np.array([[1.0 / 3.0, np.pi], [2.0**-52, -1e300]])
    path = tmp_path / "v.txt"
    save_dense(path, x)
    assert np.array_equal(load_dense(path.read_text()), x)


def test_line_breaks_are_cosmetic():
    text = "dense\n2\n 2 2\n1 2\n3\n4"
    assert np.array_equal(load_dense(text), [[1.0, 2.0], [3.0, 4.0]])


def test_dense_errors():
    with pytest.raises(ValueError):
        load_dense("sparse 1 2 1 1")
    with pytest.raises(ValueError, match="truncated"):
        load_dense("dense 2 2 2 1 2 3")
    with pytest.raises(ValueError, match="trailing"):
        load_dense("dense 2 2 2 1 2 3 4 5")
    with pytest.raises(ValueError, match="non-finite"):
        load_dense("dense 1 2 1 inf")
    with pytest.raises(ValueError):
        load_dense("dense x 2")


def test_sparse_errors():
    with pytest.raises(ValueError, match="entry 2"):
        load_sparse("sparse 2 3 3 2 1 1 5.0 9 1 2.0")
    with pytest.raises(ValueError, match="non-finite"):
        load_sparse("sparse 2 3 3 1 1 1 nan")
    with pytest.raises(ValueError):
        load_sparse("sparse 2 3 3 -1")


def test_sparse_entry_errors_name_the_entry():
    with pytest.raises(ValueError, match="truncated"):
        load_sparse("sparse 2 3 3 2 1 1 5.0 1 2")
    with pytest.raises(ValueError, match="trailing"):
        load_sparse("sparse 2 3 3 1 1 1 5.0 2")
    with pytest.raises(ValueError, match="expected an integer .* '1.5'"):
        load_sparse("sparse 2 3 3 2 1 1 5.0 1.5 1 2.0")
    with pytest.raises(ValueError, match="entry 2: index 0 out of range"):
        load_sparse("sparse 2 3 3 2 1 1 5.0 2 0 2.0")
    with pytest.raises(ValueError, match="entry 2: index 10000000000000000000000"):
        load_sparse("sparse 2 3 3 2 1 1 5.0 1 10000000000000000000000 2.0")
    # the first bad entry wins, whatever is wrong with it
    with pytest.raises(ValueError, match="entry 1: non-finite"):
        load_sparse("sparse 2 3 3 2 1 1 inf 1 4 2.0")
    with pytest.raises(ValueError, match="entry 2: index 4"):
        load_sparse("sparse 2 3 3 3 1 1 1.0 1 4 2.0 2 2 nan")
    with pytest.raises(ValueError, match="entry 1: bad number 'abc'"):
        load_sparse("sparse 2 2 2 1 1 1 abc")
    with pytest.raises(ValueError, match="entry 2: bad number '2.0x'"):
        load_sparse("sparse 2 2 2 2 1 1 1.0 2 2 2.0x")
    with pytest.raises(ValueError, match="entry 2: expected an integer index, got '1.5'"):
        load_sparse("sparse 2 3 3 2 1 1 5.0 1.5 1 2.0")
    # a bad value in a later entry does not hide an earlier bad entry
    with pytest.raises(ValueError, match="entry 1: expected an integer index, got 'x'"):
        load_sparse("sparse 2 3 3 2  1 x 5.0  1 1 abc")
    with pytest.raises(ValueError, match="entry 1: index 9 out of range"):
        load_sparse("sparse 2 3 3 2  1 9 5.0  1 1 abc")
    with pytest.raises(ValueError, match="entry 1: non-finite"):
        load_sparse("sparse 2 3 3 2  1 1 inf  1 1 abc")


_RANGE = "out of range for mode size 3 (indices are 1-based)"


@pytest.mark.parametrize("text, message", [
    ("", "truncated sparse tensor data"),
    ("dense 1 2 1 2", "not a sparse tensor file"),
    ("sparse", "truncated sparse tensor data"),
    ("sparse x", "expected an integer in sparse header, got 'x'"),
    ("sparse 0 1", "order must be positive"),
    ("sparse 2 3", "truncated sparse tensor data"),
    ("sparse 2 3 y 1", "expected an integer in sparse header, got 'y'"),
    ("sparse 2 3 0 1", "mode sizes must be positive, got (3, 0)"),
    ("sparse 2 3 3", "truncated sparse tensor data"),
    ("sparse 2 3 3 z", "expected an integer in sparse header, got 'z'"),
    ("sparse 2 3 3 -1", "entry count must be nonnegative"),
    ("sparse 2 3 3 1", "truncated sparse tensor data"),
    ("sparse 2 3 3 2 1 1 5.0 1 2", "truncated sparse tensor data"),
    ("sparse 2 3 3 1 1 1 5.0 2", "trailing tokens in sparse tensor data"),
    ("sparse 2 3 3 0 7", "trailing tokens in sparse tensor data"),
    ("sparse 2 3 3 2 1 1 5.0 1.5 1 2.0",
     "entry 2: expected an integer index, got '1.5'"),
    ("sparse 2 3 3 2 1 1 5.0 2 0 2.0", f"entry 2: index 0 {_RANGE}"),
    ("sparse 2 3 3 2 1 1 5.0 -1 1 2.0", f"entry 2: index -1 {_RANGE}"),
    ("sparse 2 3 3 2 1 1 5.0 1 10000000000000000000000 2.0",
     f"entry 2: index 10000000000000000000000 {_RANGE}"),
    ("sparse 2 3 3 2 1 1 5.0 1 2 -inf", "entry 2: non-finite value"),
    ("sparse 2 3 3 2 1 1 5.0 1 2 nan", "entry 2: non-finite value"),
    ("sparse 2 3 3 2 1 1 5.0 1 2 1e999", "entry 2: non-finite value"),
    ("sparse 2 2 2 2 1 1 1.0 2 2 2.0x", "entry 2: bad number '2.0x'"),
    # a bad entry is named before trailing tokens are
    ("sparse 2 3 3 2  1 1 5.0  1 1 abc  7", "entry 2: bad number 'abc'"),
    ("sparse 2 3 3 2  1 1 5.0  1 9 1.0  7 8", f"entry 2: index 9 {_RANGE}"),
    ("sparse 2 3 3 2  1 1 5.0  1 1 1.0  7", "trailing tokens in sparse tensor data"),
])
def test_sparse_reader_messages_are_exact(text, message):
    with pytest.raises(ValueError) as err:
        load_sparse(text)
    assert str(err.value) == message


def test_sparse_load_holds_one_token_list():
    # Beside the token list that splitting the text makes, the load holds
    # the result and the list of value tokens; a second copy of the entry
    # table's tokens (d + 1 list slots per entry) does not fit.
    rng = np.random.default_rng(0)
    d, n = 8, 20000
    idx = np.unique(rng.integers(0, 50, (n, d)), axis=0)
    n = idx.shape[0]
    text = "\n".join(
        [" ".join(["sparse", str(d)] + ["50"] * d + [str(n)])]
        + [" ".join(map(str, row + 1)) + " " + format(v, ".17g")
           for row, v in zip(idx, rng.standard_normal(n))])
    tokens = o.peak_bytes(text.split)
    peak = o.peak_bytes(lambda: load_sparse(text))
    assert peak < tokens + 8 * (d + 1) * n


def test_sparse_line_breaks_are_cosmetic():
    x = load_sparse("sparse 3\n2 3 4 2\n1 1\n1 0.5 2 3 4\n-2.0\n")
    assert x.shape == (2, 3, 4)
    assert x.idx.tolist() == [[0, 0, 0], [1, 2, 3]]
    assert x.values.tolist() == [0.5, -2.0]


def test_tt_errors():
    with pytest.raises(ValueError):
        load_tt("tt 1 5")
    with pytest.raises(ValueError, match="truncated"):
        load_tt("tt 2 2 2 1 1 2")
    with pytest.raises(ValueError):
        load_tt("tt 2 2 2 0")


_BAD = "could not convert string to float"


@pytest.mark.parametrize("text, message", [
    ("", "truncated tensor train data"),
    ("dense 1 1 1", "not a tensor train file"),
    ("tt x", "expected an integer in tt header, got 'x'"),
    ("tt 1 5", "a tensor train needs order >= 2"),
    ("tt 2 2 x", "expected an integer in tt header, got 'x'"),
    ("tt 2 2 2", "truncated tensor train data"),
    ("tt 2 2 2 0", "ranks must be positive"),
    ("tt 2 2 2 1 1 2", "truncated tensor train data"),
    ("tt 2 2 2 1 1 x 3 4", f"bad number in tt core: {_BAD}: 'x'"),
    ("tt 3 2 2 2 1 1  1 2  3 4  5 6x  7 8", f"bad number in tt core: {_BAD}: '6x'"),
    ("tt 2 2 2 1 1 inf 3 4", "non-finite value in tt core"),
    ("tt 2 2 2 1 1 2 3 -1e999", "non-finite value in tt core"),
    ("tt 2 2 2 1 1 2 3 4 5", "trailing tokens in tensor train data"),
    # a bad value is named before trailing tokens are, but a short body
    # is reported before the bad value in it
    ("tt 2 2 2 1 1 nan 3 4 5", "non-finite value in tt core"),
    ("tt 2 2 2 1 x 2 3", "truncated tensor train data"),
])
def test_tt_reader_messages_are_exact(text, message):
    with pytest.raises(ValueError) as err:
        load_tt(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("", "truncated dense tensor data"),
    ("sparse 1 2", "not a dense tensor file"),
    ("dense x 2", "expected an integer in dense header, got 'x'"),
    ("dense 0", "order must be positive"),
    ("dense 2 2 0", "mode sizes must be positive, got (2, 0)"),
    ("dense 2 2 2 1 2 3", "truncated dense tensor data"),
    ("dense 1 2 1 x", f"bad number in dense values: {_BAD}: 'x'"),
    ("dense 1 2 1 2.0x", f"bad number in dense values: {_BAD}: '2.0x'"),
    ("dense 1 2 1 inf", "non-finite value in dense values"),
    ("dense 1 2 -inf 1", "non-finite value in dense values"),
    ("dense 2 2 2 1 2 3 4 5", "trailing tokens in dense tensor data"),
    ("dense 1 2 1 nan 5", "non-finite value in dense values"),
    ("dense 2 2 2 x 2 3", "truncated dense tensor data"),
])
def test_dense_reader_messages_are_exact(text, message):
    with pytest.raises(ValueError) as err:
        load_dense(text)
    assert str(err.value) == message


def test_dense_load_holds_one_token_list():
    # Beside the token list that splitting the text makes, the load holds
    # the result, 8 bytes a value; a second list of the value tokens (8
    # bytes a slot) or a list of python floats (32 bytes a value) does
    # not fit.
    n = 40000
    x = np.random.default_rng(0).standard_normal(n)
    text = f"dense 2 200 {n // 200}\n" + "\n".join(format(v, ".17g") for v in x)
    tokens = o.peak_bytes(text.split)
    peak = o.peak_bytes(lambda: load_dense(text))
    assert peak < tokens + 16 * n


def test_unknown_tag(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mystery 1 2\n")
    with pytest.raises(ValueError, match="unknown tensor format"):
        load_tensor_file(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_tensor_file(empty)


# Finite doubles, with signed zeros, the smallest subnormal and values near
# the top of the range drawn often.
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _saved_text(save, x):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.txt")
        save(path, x)
        with open(path, encoding="ascii") as fh:
            return fh.read()


def _rewrap(text, seed):
    """The same tokens with every newline replaced by random whitespace."""
    rnd = random.Random(seed)
    return "".join(
        rnd.choice(" \t\n\r\x0b\x0c") * rnd.randint(1, 3) if c == "\n" else c
        for c in text
    )


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=3),
              elements=FLOATS), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_dense_files_round_trip_bit_exact(x, seed):
    text = _saved_text(save_dense, x)
    assert _same_bits(load_dense(text), x)  # signbit of -0.0 included
    assert _same_bits(load_dense(_rewrap(text, seed)), x)


@st.composite
def sparse_tensors(draw):
    shape = draw(st.one_of(
        st.just((2,) * 70),
        st.lists(st.integers(1, 2 ** 62), min_size=1, max_size=5).map(tuple),
    ))
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, n - 1) for n in shape)),
        max_size=20, unique=True,
    ))
    values = draw(st.lists(FLOATS.filter(lambda v: v != 0.0),
                           min_size=len(rows), max_size=len(rows)))
    idx = np.array(rows, dtype=np.int64).reshape(len(rows), len(shape))
    return SparseTensor(shape, idx, values)


@example(SparseTensor((2 ** 62, 1), [[2 ** 62 - 1, 0]], [5e-324]), 0)
@example(SparseTensor((2,) * 70, [[1] * 70], [-1e300]), 1)
@given(sparse_tensors(), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_sparse_files_round_trip_bit_exact(xs, seed):
    text = _saved_text(save_sparse, xs)
    for back in (load_sparse(text), load_sparse(_rewrap(text, seed))):
        assert back.shape == xs.shape
        assert np.array_equal(back.idx, xs.idx)
        assert _same_bits(back.values, xs.values)


@st.composite
def trains(draw):
    d = draw(st.integers(2, 5))
    shape = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    ranks = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    dims = [(shape[0], ranks[0])]
    dims += [(ranks[i - 1], shape[i], ranks[i]) for i in range(1, d - 1)]
    dims.append((ranks[-1], shape[-1]))
    return TTTensor([draw(arrays(np.float64, dim, elements=FLOATS))
                     for dim in dims])


@given(trains(), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_train_files_round_trip_bit_exact(t, seed):
    text = _saved_text(save_tt, t)
    for back in (load_tt(text), load_tt(_rewrap(text, seed))):
        assert back.shape == t.shape and back.ranks == t.ranks
        assert all(_same_bits(a, b) for a, b in zip(back.cores, t.cores))
