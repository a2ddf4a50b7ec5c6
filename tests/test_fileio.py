"""Text formats: round trips, 1-based indices on disk, error reporting."""

import numpy as np
import pytest

from ttsketch import RngStream, SparseTensor, gaussian_sparse, random_tt
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


def test_unknown_tag(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mystery 1 2\n")
    with pytest.raises(ValueError, match="unknown tensor format"):
        load_tensor_file(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_tensor_file(empty)
