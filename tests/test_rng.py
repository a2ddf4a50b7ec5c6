"""Counter-based stream behavior: anchors and statistics."""

import math

import numpy as np
import pytest

import oracles as o
from ttsketch import RngStream
from ttsketch import _kernels as K

KEY42 = 0xBDD732262FEB6E95  # frozen: oracles.ref_key(42)


def test_key_and_substream_anchors():
    assert K.key_from_seed(42) == KEY42
    assert K.key_from_seed(0) == 0xE220A8397B1DCDAF
    assert K.derive_key(KEY42, 0) == 0x4292BB992558E69E
    assert K.derive_key(KEY42, 3) == 0xC89BDB28231926D1
    assert RngStream(42).key == KEY42
    assert RngStream(42).substream(3).key == 0xC89BDB28231926D1


def test_raw_value_anchors():
    got = K._values_np(np.uint64(KEY42), np.arange(4, dtype=np.uint64))
    assert [int(v) for v in got] == [
        0x57E1FABA65107204,
        0xF4ABD143FEB24055,
        0x7C816738C12903B2,
        0x113E5DEC6F8FD8A8,
    ]


def test_values_match_oracle_transcription():
    counters = np.array([0, 1, 5, 2**63, 2**64 - 1], dtype=np.uint64)
    got = K._values_np(np.uint64(KEY42), counters)
    want = [o.ref_value(KEY42, int(c)) for c in counters]
    assert [int(v) for v in got] == want


def test_normal_anchors():
    # Frozen from the oracle's Box-Muller; loose tolerance because the
    # backends round log/cos differently than python's math library.
    want = np.array([
        1.4061449625634999,
        1.0947531324548505,
        0.8051210645493542,
        -0.173230711194762,
    ])
    got = RngStream(42).normals(4)
    assert np.max(np.abs(got - want)) < 1e-12


def test_index_anchors():
    got = RngStream(42).substream()  # no-op substream, same stream
    draws = K.indices_at(np.uint64(KEY42), np.arange(10, dtype=np.uint64),
                         np.uint64(7))
    assert list(draws) == [2, 6, 3, 0, 4, 0, 1, 5, 0, 5]
    assert got.key == KEY42


def test_repeated_calls_identical():
    rng = RngStream(9)
    a = rng.normals((2, 2))
    b = rng.normals((2, 2))
    assert np.array_equal(a, b)


def test_counter_layout_row_major():
    rng = RngStream(5)
    flat = rng.normals(6)
    assert np.array_equal(rng.normals((2, 3)).ravel(), flat)
    assert np.array_equal(o.normals_at(rng.key, np.arange(6, dtype=np.uint64)), flat)


def test_explicit_counters_match_oracle():
    rng = RngStream(17)
    counters = np.array([3, 10**9, 2**53], dtype=np.uint64)
    got = o.normals_at(rng.key, counters)
    want = [o.ref_normal(rng.key, int(c)) for c in counters]
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_sample_moments():
    # ~3 sigma windows for 1e4 draws.
    draws = RngStream(123).normals(10**4)
    assert -0.05 < draws.mean() < 0.05
    assert 0.94 < draws.var() < 1.06


def test_tan_cosine_matches_cos_form():
    # The kernel takes cos(2 pi u2) as (1 - t^2)/(1 + t^2), t = tan(pi u2),
    # from the same rounded argument as np.cos(2 pi u2).  Both cosines are
    # within a few ulps of the true one, and the radius sqrt(-2 log u1) is
    # below sqrt(106 log 2) < 8.6, so 1e-14 allows about 5 ulps of cosine
    # disagreement.
    n = 2 ** 20
    ranges = ((KEY42, 0), (1, 3 ** 40), (2 ** 64 - 1, 2 ** 64 - n // 2))
    for key, start in ranges:
        # the last range wraps mod 2**64 halfway through
        counters = np.uint64(start) + np.arange(n, dtype=np.uint64)
        got = o.normals_at(key, counters)
        want = o.ref_normals_cos_vec(key, counters)
        assert np.max(np.abs(got - want)) <= 1e-14


def test_moments_and_tails():
    # Each window is 5 standard errors of its statistic for n standard
    # normal draws: sqrt(1/n) for the mean, sqrt(2/n) for the variance,
    # sqrt(24/n) for the kurtosis and sqrt(p (1 - p) / n) for a tail
    # frequency p.
    n = 2 ** 22
    z = RngStream(2024).normals(n)
    mean = z.mean()
    centered = z - mean
    var = np.mean(centered ** 2)
    kurtosis = np.mean(centered ** 4) / var ** 2
    assert abs(mean) < 5 * math.sqrt(1 / n)
    assert abs(var - 1) < 5 * math.sqrt(2 / n)
    assert abs(kurtosis - 3) < 5 * math.sqrt(24 / n)
    for c in (3, 4):
        p = math.erfc(c / math.sqrt(2))
        freq = np.count_nonzero(np.abs(z) > c) / n
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n)


# ---------------------------------------------------------------------------
# The sketch's draws: two rows per Box-Muller pair, one substream per row

@pytest.fixture(scope="module")
def sketch_sample():
    """8 sketch rows at the 4**9 lead positions of a (4,)*10 step, through
    gammas_at's dense path: 2**20 cosine and 2**20 sine draws."""
    parents = o.ref_level_codes_vec((4,) * 8)
    return K.gammas_at(parents, 8, RngStream(2025).substream(10).key, 4)


def _assert_standard_normal(z):
    # Windows as in test_moments_and_tails: 5 standard errors per statistic.
    n = z.size
    mean = z.mean()
    centered = z - mean
    var = np.mean(centered ** 2)
    kurtosis = np.mean(centered ** 4) / var ** 2
    assert abs(mean) < 5 * math.sqrt(1 / n)
    assert abs(var - 1) < 5 * math.sqrt(2 / n)
    assert abs(kurtosis - 3) < 5 * math.sqrt(24 / n)
    for c in (3, 4):
        p = math.erfc(c / math.sqrt(2))
        freq = np.count_nonzero(np.abs(z) > c) / n
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("rows", ["cosine", "sine"])
def test_sketch_rows_moments_and_tails(sketch_sample, rows):
    _assert_standard_normal(sketch_sample[(0 if rows == "cosine" else 1)::2])


def test_sketch_rows_uncorrelated(sketch_sample):
    # The sample correlation of n independent pairs has standard error
    # 1/sqrt(n): rows of one pair (cosine, sine of one angle), and rows of
    # adjacent pairs, each within 5 of them.
    g = sketch_sample
    n = g.shape[1]
    for a, b in [(0, 1), (2, 3), (6, 7), (1, 2), (0, 2), (1, 3), (5, 6)]:
        assert abs(np.corrcoef(g[a], g[b])[0, 1]) < 5 / math.sqrt(n)


@pytest.mark.parametrize("s", [1, 2, 5, 8])
def test_sketch_row_does_not_depend_on_width(s):
    # Row k reads its own substream, whatever the width: the first s rows
    # of a wider draw are the same bits, on both paths.
    key = RngStream(31).substream(4).key
    codes = o.ref_level_codes_vec((3, 5, 7))
    assert np.array_equal(K.gammas_at(codes, s + 3, key)[:s].view(np.uint64),
                          K.gammas_at(codes, s, key).view(np.uint64))
    parents = o.ref_level_codes_vec((3, 5))
    assert np.array_equal(K.gammas_at(parents, s + 3, key, 7)[:s].view(np.uint64),
                          K.gammas_at(parents, s, key, 7).view(np.uint64))


def test_sketch_entries_match_python_int_layout():
    # Python-int codes, keys and raw values, and math.cos / math.sin of
    # 2 pi u2: the tangent forms agree to roundoff, radius at most 8.5.
    key = RngStream(8).substream(3).key
    prefixes = [(0, 0), (2, 6), (3, 1), (1, 5)]
    codes = np.array([o.ref_code(p) for p in prefixes], dtype=np.uint64)
    g = K.gammas_at(codes, 7, key)
    for col, h in enumerate(codes):
        for k in range(7):
            assert abs(g[k, col] - o.ref_sketch_entry(key, k, int(h))) < 1e-14


def test_substreams_decorrelated():
    rng = RngStream(123)
    a = rng.substream(0).normals(10**4)
    b = rng.substream(1).normals(10**4)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_substream_chaining_matches_stepwise():
    rng = RngStream(7)
    assert rng.substream(2, 5).key == rng.substream(2).substream(5).key
    assert rng.substream(2).key != rng.substream(3).key


def test_negative_substream_rejected():
    with pytest.raises(ValueError):
        RngStream(1).substream(-1)


def test_index_draws_layout_and_bounds():
    rng = RngStream(31)
    draws = rng.index_draws(50, (5, 3, 7))
    assert draws.shape == (50, 3)
    for k, bound in enumerate((5, 3, 7)):
        col = draws[:, k]
        assert col.min() >= 0 and col.max() < bound
        want = [o.ref_index(rng.key, 3 * i + k, bound) for i in range(50)]
        assert list(col) == want
    with pytest.raises(ValueError):
        rng.index_draws(3, (4, 0))
    with pytest.raises(ValueError, match="2\\*\\*63"):
        rng.index_draws(3, (4, 2 ** 63 + 1))
    with pytest.raises(ValueError, match="integers"):
        rng.index_draws(3, (4, 2.5))


@pytest.mark.parametrize(
    "bound", [2 ** 11, 2 ** 12, 3 * 10 ** 6, 2 ** 40, 2 ** 62, 2 ** 63])
def test_index_draws_exact_for_large_bounds(bound):
    # The exact floor(u * bound / 2**53) for the top 53 bits u, as a python
    # int; a plain uint64 product wraps above 2**11 and keeps every draw
    # below 2048.
    rng = RngStream(43)
    got = K.indices_at(np.uint64(rng.key), np.arange(2000, dtype=np.uint64), bound)
    want = [o.ref_index(rng.key, c, bound) for c in range(2000)]
    assert [int(v) for v in got] == want
    assert 0.45 < np.mean(got >= bound // 2) < 0.55
    assert rng.index_draws(1000, [bound]).max() >= bound // 2

