"""Half-sweep alternating least squares behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import (
    RngStream, SparseTensor, als_half_sweep, clip_ranks, gaussian_dense,
    random_tt, relative_error, tt_evaluate,
)
from ttsketch.als import _draw_tail_cores
from ttsketch.tt import left_unfold


def test_objectives_non_increasing():
    rng = RngStream(81)
    for trial in range(50):
        x = gaussian_dense((3, 3, 3, 3), rng.substream(trial, 0))
        _, obj = als_half_sweep(x, 2, rng.substream(trial, 1))
        assert len(obj) == 4
        for a, b in zip(obj, obj[1:]):
            assert b <= a + 1e-9 * max(1.0, a)


def test_exact_recovery_of_low_rank_target():
    rng = RngStream(82)
    x = tt_evaluate(random_tt((3, 4, 3, 4), 2, rng.substream(0)))
    t, obj = als_half_sweep(x, clip_ranks(x.shape, 2), rng.substream(1))
    f2 = float(np.sum(x**2))
    # The objective is f2 - ||u||^2 with ||u|| = ||x|| in exact arithmetic.
    # Both sums of squares are accurate to a few units of roundoff of f2
    # (one dot over 144 entries; the three orthonormal projections that
    # carry the target to the last core each keep its norm to a few eps),
    # so the difference is roundoff, not zero: a small multiple of eps*f2.
    # The worst over seeds 0..199 is 5 eps*f2; seed 82 gives 0.84 eps*f2.
    assert obj[-1] <= 16 * np.finfo(np.float64).eps * f2
    assert relative_error(x, t) <= 1e-10
    assert t.ortho == "left"
    for core in t.cores[:-1]:
        m = left_unfold(core)
        assert np.linalg.norm(m.T @ m - np.eye(m.shape[1])) < 1e-12


def test_matrix_case_matches_sketched_projector():
    # for matrices the half sweep projects onto the column space of
    # f times the random right core
    rng = RngStream(83)
    f = gaussian_dense((8, 6), rng.substream(0))
    seed = rng.substream(1)
    t, _ = als_half_sweep(f, (3,), seed)
    g = seed.substream(2).normals((3, 6))
    y = f @ g.T
    q, _ = np.linalg.qr(y)
    want = q @ (q.T @ f)
    assert np.linalg.norm(tt_evaluate(t) - want) < 1e-10


def test_objective_tracks_true_error():
    rng = RngStream(84)
    x = gaussian_dense((3, 3, 3), rng.substream(0))
    t, obj = als_half_sweep(x, 2, rng.substream(1))
    err2 = np.linalg.norm((tt_evaluate(t) - x).ravel()) ** 2
    assert abs(obj[-1] - err2) < 1e-9 * max(1.0, err2)


def test_validation():
    rng = RngStream(86)
    with pytest.raises(ValueError):
        als_half_sweep(np.zeros((2, 2)), 1, rng)
    with pytest.raises(ValueError):
        als_half_sweep(np.ones(3), 1, rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_target_rejected(bad):
    f = np.ones((3, 4, 2))
    f[1, 2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        als_half_sweep(f, 2, RngStream(87))


def test_nan_among_zeros_is_not_called_zero():
    # One read decides both: min and max are NaN, not 0 and 0.
    with pytest.raises(ValueError, match="finite"):
        als_half_sweep(np.array([[0.0, np.nan], [0.0, 0.0]]), 1, RngStream(87))


def test_sparse_target_rejected():
    xs = SparseTensor((2, 3), np.array([[0, 1]]), np.array([1.0]))
    with pytest.raises(ValueError, match="ALS target must be a dense array"):
        als_half_sweep(xs, 1, RngStream(87))


def test_complex_target_rejected():
    # The real part alone would be fitted; the imaginary part is not dropped.
    with pytest.raises(ValueError, match="ALS target must be real"):
        als_half_sweep(np.ones((3, 4, 2)) * (1 + 2j), 2, RngStream(87))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_tail_draw_matches_hand_orthogonalization(d, n):
    # Requests of 64 at n = 2 clip to 2, 4, ... at both ends of the train.
    shape = (n,) * d
    for request in (1, 2, 5, 64):
        ranks = clip_ranks(shape, request)
        for seed in range(3):
            got = _draw_tail_cores(shape, ranks, RngStream(seed))
            want = o.ref_draw_tail_cores(shape, ranks, RngStream(seed))
            assert got[0] is None and want[0] is None
            for a, b in zip(got[1:], want[1:]):
                assert a.shape == b.shape
                assert np.array_equal(a, b)


def _square_step(shape, ranks):
    # A step whose q would be square: the loop's identity step, where ALS
    # factors a square q and the two trains differ by that gauge.
    edges = (1, *ranks)
    return any(edges[i] * shape[i] <= edges[i + 1] for i in range(len(ranks)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.lists(st.integers(1, 5), min_size=2, max_size=5).map(tuple),
       width=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(7, 3), width=2, seed=1)  # order 2, tall
@example(shape=(3, 7), width=2, seed=2)  # order 2, wide
@example(shape=(1, 4, 1, 3, 1), width=2, seed=3)  # unit modes
@example(shape=(2, 3, 2), width=50, seed=4)  # requests above the clipped ranks
@example(shape=(4, 4, 4, 4), width=16, seed=5)  # two identity steps
def test_matches_the_half_sweep_in_its_own_loop(shape, width, seed):
    f = gaussian_dense(shape, RngStream(seed).substream(0))
    ranks = clip_ranks(shape, width)
    t, obj = als_half_sweep(f, width, RngStream(seed).substream(1))
    want, want_obj = o.ref_als_half_sweep(
        f, _draw_tail_cores(shape, ranks, RngStream(seed).substream(1)))
    assert t.ranks == want.ranks == ranks
    assert t.ortho == "left"
    y = tt_evaluate(want)
    assert np.linalg.norm(tt_evaluate(t) - y) <= 1e-12 * np.linalg.norm(y)
    # Both objectives are f2 - ||a||^2 with ||a|| <= ||f||, a reached from f
    # through at most d - 1 products with orthonormal factors on either side
    # (projections, the start train's cores), each of which keeps ||a||^2 to
    # a few units of eps * f2; f2 itself is summed in another order.  So the
    # two differ by a small multiple of d * eps * f2: the worst over 3000
    # random cases of orders 2..5 was 8.4 eps * f2, at d = 5.
    f2 = float(np.sum(f ** 2))
    floor = 4 * len(shape) * np.finfo(np.float64).eps * f2
    assert len(obj) == len(want_obj) == len(shape)
    assert max(abs(a - b) for a, b in zip(obj, want_obj)) <= floor
    if not _square_step(shape, ranks):
        for a, b in zip(t.cores, want.cores):
            assert a.shape == b.shape
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
