"""Matricization, contraction and sparse storage against naive oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import RngStream, SparseTensor
from ttsketch.tensor import as_real, check_dense_size, first_differing_mode


def _graded_tensor():
    # x[i,j,k] = 100 i + 10 j + k, shape (2, 3, 2)
    x = np.zeros((2, 3, 2))
    for i, j, k in np.ndindex(2, 3, 2):
        x[i, j, k] = 100 * i + 10 * j + k
    return x


def test_matricize_order_two_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(o.matricize(x, (0,)), x)


def test_matricize_constant_tensor():
    x = np.ones((2, 2, 2))
    m = o.matricize(x, (0, 1))
    assert m.shape == (4, 2)
    assert np.all(m == 1.0)


def test_matricize_graded_tensor_against_oracle():
    x = _graded_tensor()
    m = o.matricize(x, (0, 1))
    assert np.array_equal(m, o.naive_matricize(x, [0, 1]))
    # the same table, written out: rows ordered (i,j) row-major, columns k
    want = np.array([
        [0.0, 1.0], [10.0, 11.0], [20.0, 21.0],
        [100.0, 101.0], [110.0, 111.0], [120.0, 121.0],
    ])
    assert np.array_equal(m, want)


def test_matricize_rejects_bad_mode_sets():
    x = np.ones((2, 3, 2))
    with pytest.raises(ValueError):
        o.matricize(x, ())
    with pytest.raises(ValueError):
        o.matricize(x, (1, 0))
    with pytest.raises(ValueError):
        o.matricize(x, (0, 3))
    with pytest.raises(ValueError):
        o.matricize(x, (1, 1))


def test_matricize_round_trips_random_mode_sets():
    rng = RngStream(11)
    shape = (2, 3, 2, 4)
    x = rng.normals(shape)
    for row_modes in [(0,), (1,), (3,), (0, 1), (0, 3), (1, 2), (0, 1, 2),
                      (1, 2, 3), (0, 1, 2, 3)]:
        m = o.matricize(x, row_modes)
        assert np.array_equal(m, o.naive_matricize(x, list(row_modes)))


def test_contract_vector_inner():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    assert float(o.contract(u, (0,), v, (0,))) == 11.0


def test_contract_identity_matvec():
    a = np.eye(2)
    v = np.array([5.0, 7.0])
    assert np.array_equal(o.contract(a, (1,), v, (0,)), v)


def test_contract_against_quintuple_loop():
    rng = RngStream(3)
    x = rng.substream(0).normals((2, 3, 2))
    y = rng.substream(1).normals((3, 2, 2))
    got = o.contract(x, (1, 2), y, (0, 2))
    want = o.naive_contract(x, [1, 2], y, [0, 2])
    assert got.shape == (2, 2)
    assert np.allclose(got, want, atol=1e-13)


def test_contract_size_mismatch():
    with pytest.raises(ValueError):
        o.contract(np.ones((2, 3)), (1,), np.ones((4, 2)), (0,))


def test_inner_trivials_and_oracle():
    x = RngStream(4).substream(0).normals((3, 3, 3))
    y = RngStream(4).substream(1).normals((3, 3, 3))
    assert o.inner(x, np.zeros_like(x)) == 0.0
    e = np.zeros((2, 2))
    e[0, 0] = 1.0
    assert o.inner(e, e) == 1.0
    assert abs(o.inner(x, y) - o.naive_inner(x, y)) < 1e-12


def test_sparse_empty_and_single():
    empty = SparseTensor((2, 2, 2), np.empty((0, 3), dtype=np.int64), [])
    assert empty.nnz == 0
    assert np.all(empty.to_dense() == 0.0)
    one = SparseTensor((2, 2, 2), [[1, 1, 1]], [2.5])
    dense = one.to_dense()
    assert dense[1, 1, 1] == 2.5
    assert np.sum(dense != 0.0) == 1


def test_sparse_matches_placement_oracle():
    rng = RngStream(8)
    idx = rng.substream(0).index_draws(10, (4, 4, 4))
    idx = np.unique(idx, axis=0)
    values = rng.substream(1).normals(idx.shape[0])
    xs = SparseTensor((4, 4, 4), idx, values)
    assert np.array_equal(
        xs.to_dense(), o.naive_sparse_dense((4, 4, 4), idx, values)
    )


def test_sparse_canonical_order_and_validation():
    a = SparseTensor((3, 3), [[2, 1], [0, 0]], [4.0, 5.0])
    b = SparseTensor((3, 3), [[0, 0], [2, 1]], [5.0, 4.0])
    assert np.array_equal(a.idx, b.idx)
    assert np.array_equal(a.values, b.values)
    dropped = SparseTensor((3, 3), [[1, 1], [2, 2]], [0.0, 1.0])
    assert dropped.nnz == 1
    with pytest.raises(ValueError):
        SparseTensor((3, 3), [[1, 1], [1, 1]], [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseTensor((3, 3), [[3, 0]], [1.0])
    with pytest.raises(ValueError):
        SparseTensor((3, 3), [[0, 0]], [np.inf])


def test_sparse_range_error_names_first_bad_mode():
    with pytest.raises(ValueError, match="mode 1 for size 4"):
        SparseTensor((3, 4, 5), [[0, 0, 0], [2, 4, 5]], [1.0, 2.0])
    with pytest.raises(ValueError, match="mode 0 for size 3"):
        SparseTensor((3, 4), [[0, 0], [-1, 1]], [1.0, 2.0])
    # the first mode at fault is named, whichever row and bound fail first
    with pytest.raises(ValueError, match="mode 1 for size 4"):
        SparseTensor((3, 4, 5), [[2, 0, 9], [0, 4, 0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="mode 0 for size 3"):
        SparseTensor((3, 4, 5), [[0, -1, 0], [3, 0, 0]], [1.0, 2.0])


def test_sparse_range_check_at_the_int64_edge():
    # The largest index of a mode of size 2^64 is 2^64 - 1, clipped to the
    # int64 maximum: 2^63 - 1 is in range (comparing with the clipped size
    # 2^63 - 1 itself would refuse it), and so is the same index in a mode
    # of size 2^63.
    top = 2 ** 63 - 1
    for n in (2 ** 64, 2 ** 63):
        xs = SparseTensor((2, n), [[1, top]], [1.0])
        assert xs.idx.tolist() == [[1, top]]
    with pytest.raises(ValueError, match=f"mode 1 for size {top}"):
        SparseTensor((2, top), [[1, top]], [1.0])


@st.composite
def coordinate_lists(draw):
    # Mode sizes around byte and word boundaries, so that the byte-string
    # sort must agree with the numeric order across bytes.
    sizes = st.sampled_from([1, 2, 3, 255, 256, 257, 2 ** 32 + 1, 2 ** 62])
    shape = tuple(draw(st.lists(sizes, min_size=1, max_size=5)))
    rows = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)),
                         max_size=30, unique=True))
    return shape, np.array(rows, dtype=np.int64).reshape(-1, len(shape))


@given(coordinate_lists())
@settings(max_examples=60, deadline=None)
def test_sparse_canonical_order_matches_lexsort(case):
    shape, idx = case
    values = np.arange(1.0, idx.shape[0] + 1.0)
    xs = SparseTensor(shape, np.asfortranarray(idx), values)
    order = np.lexsort(idx.T[::-1])
    assert np.array_equal(xs.idx, idx[order])
    assert np.array_equal(xs.values, values[order])
    if idx.shape[0]:
        with pytest.raises(ValueError, match="duplicate"):
            SparseTensor(shape, np.vstack([idx, idx[-1:]]), np.append(values, 1.0))


@st.composite
def storage_cases(draw):
    """(shape, idx, values) in canonical order or shuffled, maybe with one
    duplicated row and explicit zeros, C- or Fortran-ordered."""
    shape, idx = draw(coordinate_lists())
    n = idx.shape[0]
    idx = idx[np.lexsort(idx.T[::-1])]
    if n and draw(st.booleans()):
        at = draw(st.integers(0, n - 1))
        idx = np.insert(idx, at, idx[at], axis=0)  # adjacent, still sorted
    if draw(st.booleans()):
        idx = idx[draw(st.permutations(range(idx.shape[0])))]
    values = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 3.0]),
                                    min_size=idx.shape[0],
                                    max_size=idx.shape[0])))
    if draw(st.booleans()):
        idx = np.asfortranarray(idx)
    return shape, idx.reshape(-1, len(shape)), values


def _same_storage(shape, idx, values):
    try:
        want = o.ref_canonical(idx, values)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            SparseTensor(shape, idx, values)
        return
    xs = SparseTensor(shape, idx, values)
    assert np.array_equal(xs.idx, want[0])
    assert np.array_equal(xs.values, want[1])
    assert xs.idx.dtype == np.int64 and xs.idx.flags.c_contiguous
    # the split is the stored rows', found once by the order check or the sort
    want = first_differing_mode(xs.idx)
    assert xs.split.dtype == want.dtype and np.array_equal(xs.split, want)


_S = (4, 3)


@pytest.mark.parametrize("idx, values", [
    ([[0, 1], [2, 0], [3, 2]], [1.0, 2.0, 3.0]),               # sorted
    ([[2, 0], [0, 1], [3, 2]], [1.0, 2.0, 3.0]),               # unsorted
    ([[0, 1], [2, 0], [2, 0], [3, 2]], [1.0, 2.0, 4.0, 3.0]),  # sorted, dup
    ([[2, 0], [0, 1], [2, 0]], [1.0, 2.0, 4.0]),               # unsorted, dup
    ([[2, 0], [0, 1], [2, 0]], [1.0, 2.0, 0.0]),               # zero drops dup
    ([[0, 1], [0, 2], [1, 0]], [1.0, 0.0, 3.0]),               # zero dropped
    (np.empty((0, 2), dtype=np.int64), []),                   # nnz 0
    ([[1, 2]], [5.0]),                                          # nnz 1
    ([[1, 2], [3, 0]], [5.0, 6.0]),                             # nnz 2 sorted
    ([[3, 0], [1, 2]], [5.0, 6.0]),                             # nnz 2 unsorted
    ([[3, 0], [3, 0]], [5.0, 6.0]),                             # nnz 2 dup
    (np.asfortranarray([[0, 1], [2, 0], [3, 2]]), [1.0, 2.0, 3.0]),
    (np.asfortranarray([[3, 2], [0, 1], [2, 0]]), [1.0, 2.0, 3.0]),
])
def test_sparse_storage_matches_sort_oracle_examples(idx, values):
    _same_storage(_S, np.asarray(idx), np.asarray(values))


@given(storage_cases())
@settings(max_examples=80, deadline=None)
def test_sparse_storage_matches_sort_oracle(case):
    _same_storage(*case)


def test_canonical_input_skips_the_sort():
    idx = np.array([[0, 1, 2], [0, 2, 0], [1, 0, 0], [2, 2, 2]])
    with mock.patch.object(np, "argsort", side_effect=AssertionError):
        xs = SparseTensor((3, 3, 3), idx, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(xs.idx, idx)


def test_dense_size_guard():
    check_dense_size((1024, 1024, 1024))  # exactly 2**30, fine
    huge = SparseTensor((2,) * 50, [[0] * 50], [1.0])
    with pytest.raises(ValueError):
        huge.to_dense()


@pytest.mark.parametrize("values", [np.array([1.0 + 2j]), [1j], np.array([3 + 0j])],
                         ids=["array", "list", "zero-imaginary"])
def test_sparse_complex_values_rejected(values):
    # Every complex dtype is refused before the cast, which would drop the
    # imaginary part of an array and fail with a TypeError on a list.
    with pytest.raises(ValueError, match="sparse values must be real"):
        SparseTensor((2, 3), [[0, 1]], values)


def test_as_real_refuses_a_sparse_tensor():
    # np.asarray would wrap it in an object array, whose cast raises a
    # TypeError that names no reader.
    xs = SparseTensor((2, 3), [[0, 1]], [1.0])
    with pytest.raises(ValueError, match="target must be a dense array, got a SparseTensor"):
        as_real(xs, "target")
