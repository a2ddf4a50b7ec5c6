"""Counter-based stream behavior: anchors and statistics."""

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
    at = K.gammas_at(np.arange(6, dtype=np.uint64), 1, 0, rng.key)[:, 0]
    assert np.array_equal(at, flat)


def test_explicit_counters_match_oracle():
    rng = RngStream(17)
    counters = np.array([3, 10**9, 2**53], dtype=np.uint64)
    got = K.gammas_at(counters, 1, 0, rng.key)[:, 0]
    want = [o.ref_normal(rng.key, int(c)) for c in counters]
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_sample_moments():
    # ~3 sigma windows for 1e4 draws.
    draws = RngStream(123).normals(10**4)
    assert -0.05 < draws.mean() < 0.05
    assert 0.94 < draws.var() < 1.06


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

