"""Train representation: evaluation, clipping, orthogonalization, rounding."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import (
    RngStream, TTTensor, clip_ranks, orthogonalize_right, randomized_tt_svd,
    random_tt, tt_evaluate, tt_norm, tt_round, tt_svd_truncated, zero_tt,
)
from ttsketch.tt import core_shapes, left_unfold, right_unfold


def test_core_validation():
    with pytest.raises(ValueError):
        TTTensor([np.ones((2, 2))])
    with pytest.raises(ValueError):
        TTTensor([np.ones((2, 2)), np.ones((3, 2))])  # rank mismatch
    with pytest.raises(ValueError):
        TTTensor([np.ones((2, 2, 2)), np.ones((2, 2))])  # boundary order
    with pytest.raises(ValueError):
        TTTensor([np.ones((2, 2)), np.ones((2, 2))], ortho="diagonal")


@pytest.mark.parametrize("shapes, message", [
    ([(2, 2), (3, 2)], "core 1 has shape (3, 2), expected (2, 2)"),
    ([(2, 2, 2), (2, 2)], "core 0 has shape (2, 2, 2), expected (2, 2)"),
    ([(2, 3), (3, 4), (4, 2)], "core 1 has shape (3, 4), expected (3, 4, 4)"),
    ([(2, 3), (3, 4, 5), (4, 2)], "core 2 has shape (4, 2), expected (5, 2)"),
    ([(2, 3), (3, 4, 5), (5, 2, 1)], "core 2 has shape (5, 2, 1), expected (5, 2)"),
    ([(2, 2), (2, 2, 2, 1)], "core 1 has shape (2, 2, 2, 1), expected (2, 2)"),
    ([(2, 2), (2,)], "core 1 has shape (2,), expected 2 or 3 axes"),
    ([(), (2, 2)], "core 0 has shape (), expected 2 or 3 axes"),
])
def test_core_validation_names_the_first_bad_core(shapes, message):
    with pytest.raises(ValueError) as err:
        TTTensor([np.ones(shape) for shape in shapes])
    assert str(err.value) == message


@pytest.mark.parametrize("shapes", [
    [(2, 0), (0, 3)], [(2, 1), (1, 0)], [(0, 1), (1, 3)], [(2, 1), (1, 0, 1), (1, 3)],
], ids=["rank", "last-mode", "first-mode", "interior-mode"])
def test_zero_ranks_and_mode_sizes_rejected(shapes):
    # The writer would put them in a file the reader refuses, and rounding
    # would fail in a reshape.
    with pytest.raises(ValueError, match="mode sizes and ranks must be positive"):
        TTTensor([np.zeros(shape) for shape in shapes])


def test_complex_cores_rejected():
    with pytest.raises(ValueError, match="core 1 must be real"):
        TTTensor([np.ones((2, 1)), np.ones((1, 3)) * 1j])


@pytest.mark.parametrize("ortho, shapes, core", [
    ("right", [(5, 5), (5, 2)], 1),
    ("right", [(2, 5), (5, 2, 2), (2, 3)], 1),
    ("left", [(2, 5), (5, 5)], 0),
    ("left", [(4, 2), (2, 2, 5), (5, 3)], 1),
], ids=["right-last", "right-interior", "left-first", "left-interior"])
def test_orthogonality_flag_checked_against_core_shapes(ortho, shapes, core):
    # An unfolding with more rows than columns has no orthonormal rows, and
    # the mirror for columns; tt_round would trust the flag to rank 5.
    cores = [np.ones(shape) for shape in shapes]
    with pytest.raises(ValueError, match=f"core {core} has shape .* no {ortho}-"):
        TTTensor(cores, ortho=ortho)
    TTTensor(cores)  # the shapes themselves are a valid train


def test_orthogonality_flag_leaves_the_free_core_unchecked():
    # Core 1 of a "right" train and core d of a "left" one carry the norm.
    assert TTTensor([np.ones((2, 5)), np.ones((5, 2, 3)), np.ones((3, 4))],
                    ortho="right").ortho == "right"
    assert TTTensor([np.ones((4, 3)), np.ones((3, 2, 5)), np.ones((5, 2))],
                    ortho="left").ortho == "left"


def test_core_shapes():
    assert core_shapes((3, 4), (2,)) == [(3, 2), (2, 4)]
    assert core_shapes((3, 4, 5, 6), (2, 7, 1)) == [
        (3, 2), (2, 4, 7), (7, 5, 1), (1, 6)]
    for t in (zero_tt((2, 3, 4)), random_tt((3, 4, 5, 2), (2, 9, 2), RngStream(8))):
        assert [c.shape for c in t.cores] == core_shapes(t.shape, t.ranks)


def test_evaluate_rank_one_outer_product():
    a, b, c = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
    t = TTTensor([a[:, None], b[None, :, None], c[None, :]])
    assert np.allclose(tt_evaluate(t), np.einsum("i,j,k->ijk", a, b, c))


def test_evaluate_identity_chain_gives_delta():
    n = 3
    w2 = np.zeros((n, n, n))
    for i in range(n):
        w2[i, i, i] = 1.0
    t = TTTensor([np.eye(n), w2, np.eye(n)])
    x = tt_evaluate(t)
    for i, j, k in np.ndindex(n, n, n):
        assert x[i, j, k] == (1.0 if i == j == k else 0.0)


def test_evaluate_matches_index_sum_oracle():
    t = random_tt((3, 3, 3, 3), 2, RngStream(41))
    assert np.allclose(tt_evaluate(t), o.naive_tt_evaluate(t.cores), atol=1e-12)


def test_clip_ranks_values():
    assert clip_ranks((5, 5, 5), 1) == (1, 1)
    assert clip_ranks((2, 2, 2, 2, 2), 3) == (2, 3, 3, 2)
    assert clip_ranks((4,) * 8, 20) == (4, 16, 20, 20, 20, 16, 4)
    # per-position min against both side products
    shape = (3, 2, 4, 2)
    got = clip_ranks(shape, 5)
    for i in range(3):
        left = int(np.prod(shape[:i + 1]))
        right = int(np.prod(shape[i + 1:]))
        assert got[i] == min(5, left, right)
    assert clip_ranks((2, 3, 2), (1, 9)) == (1, 2)
    with pytest.raises(ValueError):
        clip_ranks((2, 2), (0,))
    with pytest.raises(ValueError):
        clip_ranks((2, 2, 2), (1,))
    # integral values of any type pass; fractions are not floored
    assert clip_ranks((2, 3, 2), np.int64(2)) == clip_ranks((2, 3, 2), 2.0) == (2, 2)
    assert clip_ranks((3, 4, 5), np.array(2)) == (2, 2)
    assert clip_ranks((2, 3, 2), (np.int32(1), 9)) == (1, 2)
    for ranks in (2.7, (1, 2.5), np.array([1.0, 0.5]), np.array(2.5)):
        with pytest.raises(ValueError, match="integers"):
            clip_ranks((2, 3, 2), ranks)


def test_zero_tt():
    t = zero_tt((2, 3, 4))
    assert t.ranks == (1, 1)
    assert np.all(tt_evaluate(t) == 0.0)


def test_norm_trivials():
    e1 = np.array([1.0, 0.0])
    t = TTTensor([e1[:, None], e1[None, :, None], e1[None, :]])
    assert abs(tt_norm(t) - 1.0) < 1e-14
    scaled = t.copy()
    scaled.cores[1] = 3.0 * scaled.cores[1]
    assert abs(tt_norm(scaled) - 3.0) < 1e-13


def test_norm_matches_dense():
    t = random_tt((3, 4, 3, 4), 3, RngStream(42))
    want = np.linalg.norm(tt_evaluate(t).ravel())
    assert abs(tt_norm(t) - want) < 1e-11 * want
    assert t.ortho is None  # input untouched


def test_unfoldings_of_boundary_cores_are_the_cores():
    w1, _, wd = random_tt((3, 4, 2), 2, RngStream(43)).cores
    assert np.array_equal(left_unfold(w1), w1)
    assert np.array_equal(right_unfold(wd), wd)


def test_orthogonalize_right():
    t = random_tt((3, 4, 3, 4), 3, RngStream(44))
    x = tt_evaluate(t)
    rt = orthogonalize_right(t)
    assert rt.ortho == "right"
    assert np.linalg.norm(tt_evaluate(rt) - x) < 1e-12 * np.linalg.norm(x)
    for core in rt.cores[1:]:
        m = right_unfold(core)
        assert np.linalg.norm(m @ m.T - np.eye(m.shape[0])) < 1e-12


def test_orthogonalize_right_rank_one_pushes_magnitude():
    t = TTTensor([
        np.array([[3.0], [0.0]]),
        np.array([[[0.0], [2.0]]]),
        np.array([[5.0, 0.0]]),
    ])
    rt = orthogonalize_right(t)
    for core in rt.cores[1:]:
        assert abs(np.linalg.norm(core.ravel()) - 1.0) < 1e-14
    assert abs(np.linalg.norm(rt.cores[0]) - 30.0) < 1e-13


def test_orthogonalize_preserves_already_orthogonal():
    t = orthogonalize_right(random_tt((3, 3, 3), 2, RngStream(45)))
    x = tt_evaluate(t)
    again = orthogonalize_right(t)
    assert np.linalg.norm(tt_evaluate(again) - x) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("core", [0, 1])
def test_round_refuses_non_finite_cores(bad, core):
    # Before any SVD, which would fail with "SVD did not converge".
    cores = [np.ones((3, 2)), np.ones((2, 3))]
    cores[core][0, 0] = bad
    with pytest.raises(ValueError, match=f"core {core} entries must be finite"):
        tt_round(TTTensor(cores), 1)


def test_round_no_op_at_current_ranks():
    t = random_tt((3, 4, 3), 3, RngStream(46))
    x = tt_evaluate(t)
    r = tt_round(t, t.ranks)
    assert np.linalg.norm(tt_evaluate(r) - x) < 1e-12 * np.linalg.norm(x)
    assert r.ortho == "left"


def test_round_padded_rank_one():
    a, b, c = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
    w1 = np.zeros((2, 3))
    w1[:, 0] = a
    w2 = np.zeros((3, 2, 3))
    w2[0, :, 0] = b
    w3 = np.zeros((3, 2))
    w3[0, :] = c
    t = TTTensor([w1, w2, w3])
    x = tt_evaluate(t)
    r = tt_round(t, 1)
    assert r.ranks == (1, 1)
    assert np.linalg.norm(tt_evaluate(r) - x) < 1e-12 * np.linalg.norm(x)


def test_round_matches_dense_truncation_error():
    t = random_tt((4, 4, 4, 4), 6, RngStream(47))
    x = tt_evaluate(t)
    nx = np.linalg.norm(x.ravel())
    rounded = tt_round(t, 3)
    err_round = np.linalg.norm((tt_evaluate(rounded) - x).ravel()) / nx
    dense_t, _ = tt_svd_truncated(x, 3)
    err_dense = np.linalg.norm((tt_evaluate(dense_t) - x).ravel()) / nx
    assert abs(err_round - err_dense) < 1e-10


@st.composite
def train_cases(draw):
    """(train, target ranks): orders 2-6, mode sizes 1-4, edge ranks 1-6.

    Ranks above the dimension products stay unclipped in Gaussian cores;
    each sweep's loop bounds them by the rows and columns of its unfoldings.
    The two sweeps give the core layouts the package itself produces.
    """
    d = draw(st.integers(2, 6))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    edge_ranks = st.lists(st.integers(1, 6), min_size=d - 1, max_size=d - 1)
    ranks, target = draw(edge_ranks), draw(edge_ranks)
    source = draw(st.sampled_from(["gaussian", "randomized", "svd"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if source == "gaussian":
        dims = [(shape[0], ranks[0])]
        dims += [(ranks[i - 1], shape[i], ranks[i]) for i in range(1, d - 1)]
        dims.append((ranks[-1], shape[-1]))
        return TTTensor([rng.standard_normal(dim) for dim in dims]), target
    x = rng.standard_normal(shape)
    if source == "randomized":
        return randomized_tt_svd(x, ranks, RngStream(d))[0], target
    return tt_svd_truncated(x, ranks)[0], target


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                  b.view(np.uint64))


@example((TTTensor([np.ones((1, 1)), np.ones((1, 1))]), [1]))
@example((random_tt((4, 1, 3), 1, RngStream(3)), [1, 1]))
@example((random_tt((2, 3, 2, 4), (2, 6, 4), RngStream(4)), [6, 1, 6]))
@given(train_cases())
@settings(max_examples=60, deadline=None)
def test_train_operations_match_the_refold_reference(case):
    t, target = case
    before = [c.copy() for c in t.cores]
    for got, want in ((orthogonalize_right(t), o.ref_orthogonalize_right(t)),
                      (tt_round(t, target), o.ref_tt_round(t, target))):
        assert got.ortho == want.ortho
        assert all(_same_bits(a, b) for a, b in zip(got.cores, want.cores))
        assert len(got.cores) == len(want.cores)
        # the result holds new arrays only
        assert not any(np.shares_memory(a, c) for a in got.cores for c in t.cores)
    # no input core was modified
    assert all(_same_bits(c, b) for c, b in zip(t.cores, before))


@example((randomized_tt_svd(np.arange(1.0, 25.0).reshape(2, 3, 4), 3, RngStream(5))[0],
          [1, 2]))
@given(train_cases())
@settings(max_examples=60, deadline=None)
def test_round_trusts_a_right_orthogonal_train(case):
    # A train flagged "right" is rounded as it is; the same cores without
    # the flag are right-orthogonalized first.  Both sweeps cut the spectra
    # of the same unfoldings, so they agree to roundoff.
    t, target = case
    r = orthogonalize_right(t)
    got, want = tt_round(r, target), tt_round(TTTensor(r.cores), target)
    assert got.ranks == want.ranks
    y = tt_evaluate(want)
    assert np.linalg.norm(tt_evaluate(got) - y) <= 1e-12 * np.linalg.norm(y)
    # the result holds new arrays only
    assert not any(np.shares_memory(a, c) for a in got.cores for c in r.cores)


def test_round_of_a_train_of_norm_1e200_cuts_without_warning():
    # The cut energy (2e400 here) is too large for a float; the rounding
    # itself stays in range.
    t = TTTensor([np.diag([1e200, 1e200]), np.eye(2)], ortho="right")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = tt_round(t, 1)
    assert r.ranks == (1,)
    assert np.array_equal(tt_evaluate(r), np.diag([1e200, 0.0]))
