"""Half-sweep alternating least squares behavior."""

import numpy as np
import pytest

import oracles as o
from ttsketch import (
    RngStream, als_half_sweep, clip_ranks, gaussian_dense,
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
    assert obj[-1] <= 1e-20 * f2
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
