"""Seeded tensor constructions: distributions, spectra, dedup semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles as o

from ttsketch import (
    RngStream, SparseTensor, gaussian_dense, gaussian_sparse, noisy_low_rank, random_tt,
    random_tt_decay, tt_evaluate, matricize,
)
from ttsketch.generators import decay_values


def test_gaussian_dense_reproducible():
    a = gaussian_dense((3, 4), RngStream(1))
    b = gaussian_dense((3, 4), RngStream(1))
    assert np.array_equal(a, b)
    assert a.shape == (3, 4)


def test_gaussian_sparse_empty_and_full():
    empty = gaussian_sparse((2, 2), 0, RngStream(1))
    assert empty.nnz == 0
    full = gaussian_sparse((2, 2), 4, RngStream(1))
    assert full.nnz <= 4  # collisions may reduce the stored count
    with pytest.raises(ValueError):
        gaussian_sparse((2, 2), 5, RngStream(1))


def test_gaussian_sparse_keep_last_dedup():
    # Reconstruct the draw sequence directly and apply last-wins by hand.
    shape = (4, 4)
    nnz = 16  # dense enough that collisions certainly happen
    rng = RngStream(77)
    idx = rng.substream(0).index_draws(nnz, shape)
    values = rng.substream(1).normals(nnz)
    want = {}
    for i in range(nnz):
        want[tuple(idx[i])] = values[i]
    xs = gaussian_sparse(shape, nnz, rng)
    assert xs.nnz == len(want)
    got = {tuple(r): v for r, v in zip(xs.idx, xs.values)}
    assert got == want


@example((2,) * 40, 30, 1)
@example((2,) * 80, 30, 2)
@example((3, 2, 4), 24, 3)
@given(st.sampled_from([(2,) * 40, (2,) * 80, (3, 2, 4), (5, 5)]),
       st.integers(1, 24), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_gaussian_sparse_matches_dict_dedup(shape, nnz, seed):
    # Below and above 2**62 elements the kept draws are those of the
    # python-dict loop: the last draw of every distinct position.
    rng = RngStream(seed)
    idx = rng.substream(0).index_draws(nnz, shape)
    values = rng.substream(1).normals(nnz)
    keep = o.ref_keep_last(idx)
    want = SparseTensor(shape, idx[keep], values[keep])
    xs = gaussian_sparse(shape, nnz, rng)
    assert np.array_equal(xs.idx, want.idx)
    assert np.array_equal(xs.values, want.values)


def test_gaussian_sparse_occupancy_uniform():
    # chi-square occupancy over all 512 slots at the 1% level
    shape = (8, 8, 8)
    counts = np.zeros(512)
    total = 0
    for trial in range(200):
        xs = gaussian_sparse(shape, 50, RngStream(1000).substream(trial))
        flat = xs.idx[:, 0] * 64 + xs.idx[:, 1] * 8 + xs.idx[:, 2]
        counts[flat] += 1
        total += xs.nnz
    expected = total / 512.0
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    assert chi2 < stats.chi2.ppf(0.99, 511)


def test_random_tt_rank_one():
    t = random_tt((3, 3, 3), 1, RngStream(5))
    x = tt_evaluate(t)
    for i in range(1, 3):
        m = matricize(x, tuple(range(i)))
        s = np.linalg.svd(m, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == 1


def test_random_tt_reproducible_and_rank_two():
    t1 = random_tt((4, 4, 4, 4), 2, RngStream(6))
    t2 = random_tt((4, 4, 4, 4), 2, RngStream(6))
    for c1, c2 in zip(t1.cores, t2.cores):
        assert np.array_equal(c1, c2)
    x = tt_evaluate(t1)
    for i in range(1, 4):
        m = matricize(x, tuple(range(i)))
        s = np.linalg.svd(m, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == 2


def test_decay_values_profile():
    vals = decay_values(6, 2.0, 4)
    want = np.array([1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0, 0.0, 0.0])
    assert np.allclose(vals, want)
    with pytest.raises(ValueError):
        decay_values(0, 2.0, 4)


def test_decay_matrix_case_exact():
    t = random_tt_decay((8, 8), 6, 2.0, 250, RngStream(9))
    x = tt_evaluate(t)
    s = np.linalg.svd(x, compute_uv=False)
    k = np.sum(s > 1e-12)
    want = decay_values(len(s), 2.0, 250)[:k]
    assert np.max(np.abs(s[:k] - want)) < 1e-12


def _mid_edge_slope(t):
    # log-log slope of the middle unfolding's singular values
    x = tt_evaluate(t)
    m = matricize(x, (0, 1, 2))
    s = np.linalg.svd(m, compute_uv=False)
    s = s[s > s[0] * 1e-12]
    k = np.arange(1, len(s) + 1, dtype=float)
    return np.polyfit(np.log(k), np.log(s), 1)[0]


def test_decay_spectra_follow_profile():
    # Only the last merged pair carries the imposed values exactly (see
    # the d=2 test above); earlier edges are perturbed by the later
    # replacements, which compound the dominant direction. What survives
    # at every edge is the decay itself: a sharp leading drop and a
    # power-law tail whose fitted slope tracks the requested exponent.
    t = random_tt_decay((4,) * 6, 10, 2.0, 250, RngStream(10))
    x = tt_evaluate(t)
    for i in range(1, 6):
        m = matricize(x, tuple(range(i)))
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] / s[0] < 0.3, (i, s[1] / s[0])
    assert -3.3 < _mid_edge_slope(t) < -2.0


def test_decay_slope_tracks_exponent():
    slopes = [
        _mid_edge_slope(random_tt_decay((4,) * 6, 10, e, 250, RngStream(10)))
        for e in (1.0, 2.0, 3.0)
    ]
    assert slopes[0] > slopes[1] > slopes[2]
    assert -1.7 < slopes[0] < -0.9
    assert -4.9 < slopes[2] < -3.5


def test_decay_validation():
    rng = RngStream(11)
    with pytest.raises(ValueError):
        random_tt_decay((4, 4), 2, 0.0, 250, rng)
    with pytest.raises(ValueError):
        random_tt_decay((4, 4), 2, 2.0, 0, rng)


def test_noisy_low_rank_tau_zero():
    x = noisy_low_rank((3, 3, 3), 2, 0.0, RngStream(12))
    assert abs(np.linalg.norm(x.ravel()) - 1.0) < 1e-13


def test_noisy_low_rank_noise_norm_exact():
    rng = RngStream(13)
    x0 = noisy_low_rank((3, 3, 3), 2, 0.0, rng)
    x = noisy_low_rank((3, 3, 3), 2, 0.1, rng)
    assert abs(np.linalg.norm((x - x0).ravel()) - 0.1) < 1e-14
    with pytest.raises(ValueError):
        noisy_low_rank((3, 3, 3), 2, -0.1, rng)


def test_sparse_values_are_gaussian():
    xs = gaussian_sparse((32, 32, 32), 4000, RngStream(14))
    vals = xs.values
    assert abs(vals.mean()) < 0.08
    assert 0.9 < vals.var() < 1.1
    assert np.all(xs.to_dense()[tuple(xs.idx.T)] == vals)
