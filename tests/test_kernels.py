"""Chunked normals, grouped sparse kernels, uint64 prefix codes and the
one-row-per-prefix Gaussian draw against oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import RngStream, SparseTensor, randomized_tt_svd
from ttsketch import _kernels as K
from ttsketch.decompose import _prefix_codes


C = K._CHUNK


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


KEYS = st.integers(0, 2 ** 64 - 1)


@example(0, 1)
@example(1, 2 ** 64 - 1)
@example(C - 1, 3)
@example(C, 4)
@example(C + 1, 5)
@example(3 * C + 5, 6)
@given(st.integers(0, 3 * C + 7), KEYS)
@settings(max_examples=25, deadline=None)
def test_standard_normals_match_unchunked_stream(count, key):
    got = K.standard_normals(key, count)
    assert _same_bits(got, o.ref_normals_vec(key, np.arange(count, dtype=np.uint64)))


@example(2 ** 63 - 3, 7, 1)            # 2c crosses 2**64
@example(2 ** 64 - 4, 9, 2)            # c itself wraps to 0
@example(2 ** 64 - C // 2, C + 3, 3)   # the wrap inside a chunk, two chunks
@given(st.sampled_from([2 ** 63, 2 ** 64]).flatmap(
           lambda edge: st.integers(edge - 2 * C, edge - 1)),
       st.integers(1, 2 * C + 3), KEYS)
@settings(max_examples=25, deadline=None)
def test_normals_at_wrapping_counters(start, count, key):
    # One normal per head at p_mod = 0: the normals at explicit counters.
    counters = np.uint64(start) + np.arange(count, dtype=np.uint64)  # wraps
    got = K.gammas_at(counters, 1, 0, np.uint64(key))[:, 0]
    assert _same_bits(got, o.ref_normals_vec(key, counters))


@example(3 * C // 7 + 1, 7, 2 ** 64 - 1, 1)   # N*s_prev not a multiple of C
@example(5, C + 3, 2 ** 62 + 1, 2)            # one row longer than a chunk
@example(0, 4, 3, 3)                          # no rows
@given(st.integers(0, 3 * C // 8), st.integers(1, 40),
       st.integers(0, 2 ** 64 - 1), KEYS)
@settings(max_examples=25, deadline=None)
def test_gammas_at_matches_unchunked_stream(n, s_prev, p_mod, key):
    heads = np.random.default_rng(n + s_prev).integers(
        0, 2 ** 64, n, dtype=np.uint64, endpoint=False)
    got = K.gammas_at(heads, s_prev, np.uint64(p_mod), np.uint64(key))
    ks = np.arange(s_prev, dtype=np.uint64) * np.uint64(p_mod)
    want = o.ref_normals_vec(key, heads[:, None] + ks[None, :])
    assert _same_bits(got, want)


def test_chunked_draws_hold_little_beyond_their_output():
    # A one-shot draw holds five full-size temporaries beside its output
    # (about 9x the output); chunks keep a fixed few hundred kilobytes.
    count = 2 ** 20
    assert o.peak_bytes(lambda: K.standard_normals(12345, count)) < 8 * count + 2 ** 20
    n, s = 80_000, 8
    heads = np.arange(n, dtype=np.uint64) * np.uint64(2 ** 40 + 1)
    peak = o.peak_bytes(lambda: K.gammas_at(heads, s, np.uint64(3 ** 30), np.uint64(7)))
    assert peak < 8 * n * s + 2 ** 20


@st.composite
def kernel_cases(draw):
    """(n_j, mu, s, t, seed): mode indices of a step plus the block sizes."""
    n_j = draw(st.integers(1, 40))
    mu = draw(st.lists(st.integers(0, n_j - 1), max_size=30))
    s = draw(st.integers(1, 5))
    t = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n_j, mu, s, t, seed


def _step(case):
    """(n_j, mu, vals, gam, rows, w): gam holds one Gaussian row per prefix,
    fewer than the entries, and rows maps each entry to its prefix's row."""
    n_j, mu, s, t, seed = case
    rng = np.random.default_rng(seed)
    mu = np.sort(np.asarray(mu, dtype=np.int64))
    vals = rng.standard_normal((mu.size, t))
    gam = rng.standard_normal((max(1, mu.size // 2), s))
    rows = rng.integers(0, gam.shape[0], mu.size)
    w = rng.standard_normal((n_j, s, t))
    return n_j, mu, vals, gam, rows, w


KERNEL_EXAMPLES = (
    (6, [0, 0, 2, 5, 5], 3, 2, 1),   # empty mode groups 1, 3 and 4
    (1, [0, 0, 0, 0], 2, 3, 2),      # a single mode value
    (40, [7, 39], 4, 1, 3),          # more mode values than entries
    (3, [], 2, 2, 4),                # no entries at all
)


def _with_examples(test):
    for case in KERNEL_EXAMPLES:
        test = example(case)(test)
    return test


@_with_examples
@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_sketch_matches_scatter_oracle(case):
    n_j, mu, vals, gam, rows, _ = _step(case)
    a = K.sparse_sketch(mu, vals, gam, rows, n_j)
    assert a.shape == (n_j, gam.shape[1], vals.shape[1])
    np.testing.assert_allclose(a, o.ref_sparse_sketch(mu, vals, gam[rows], n_j),
                               rtol=1e-12, atol=1e-12)
    empty = np.setdiff1d(np.arange(n_j), mu)
    assert not a[empty].any()


@_with_examples
@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_update_matches_scatter_oracle(case):
    _, mu, vals, _, _, w = _step(case)
    out = K.sparse_update(mu, vals, w)
    assert out.shape == (vals.shape[0], w.shape[1])
    np.testing.assert_allclose(out, o.ref_sparse_update(mu, vals, w),
                               rtol=1e-12, atol=1e-12)


@st.composite
def long_sparse(draw):
    """Sparse tensors whose element count is at or past 2**60: binary modes
    at orders 60, 62, 64 and 80, or (2**16)**4."""
    if draw(st.booleans()):
        shape = (2,) * draw(st.sampled_from([60, 62, 64, 80]))
    else:
        shape = (2 ** 16,) * 4
    nnz = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.column_stack([rng.integers(0, n, nnz) for n in shape])
    if draw(st.booleans()):
        idx[0] = np.array(shape) - 1  # the last position: every code wraps
    idx = np.unique(idx, axis=0)
    return SparseTensor(shape, idx, 1.0 + rng.random(idx.shape[0]))


@given(long_sparse())
@settings(max_examples=40, deadline=None)
def test_prefix_codes_match_python_int_heads(x):
    codes = _prefix_codes(x.idx, x.shape)
    assert codes.dtype == np.uint64
    for j, mu, heads, _ in o.ref_step_heads(x.idx, x.shape):
        assert np.array_equal(x.idx[:, j - 1], mu)
        assert np.array_equal(codes[j - 1], heads)


def _suffix_order(idx, j):
    """Rows of step j: the entries sorted by their indices in modes
    j-1, j, ..., d-1 (mode j-1 first), ties kept in entry order."""
    return np.lexsort(idx[:, j - 1:].T[::-1])


@given(long_sparse(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_sketch_gaussians_match_python_int_path(x, seed):
    # The Gaussian row that each stored entry meets in the sketch is the one
    # the python-int counters give, bit for bit, and every step draws one
    # row per distinct index prefix.
    drawn = []
    sketched = []
    gammas_at = K.gammas_at
    sparse_sketch = K.sparse_sketch

    def spy_gammas(heads, s_prev, p_mod, key):
        drawn.append((heads.shape[0], int(key)))
        return gammas_at(heads, s_prev, p_mod, key)

    def spy_sketch(mu, vals, gam, rows, n_j):
        sketched.append((mu.copy(), gam[rows]))
        return sparse_sketch(mu, vals, gam, rows, n_j)

    with mock.patch.object(K, "gammas_at", spy_gammas), \
            mock.patch.object(K, "sparse_sketch", spy_sketch):
        randomized_tt_svd(x, (2,) * (x.ndim - 1), RngStream(seed))
    steps = list(o.ref_step_heads(x.idx, x.shape))
    assert len(drawn) == len(sketched) == len(steps)
    for (n_heads, key), (mu, gam), (j, ref_mu, ref_heads, ref_p) in zip(
            drawn, sketched, steps):
        assert n_heads == len(np.unique(x.idx[:, :j - 1], axis=0))
        order = _suffix_order(x.idx, j)
        assert np.array_equal(mu, ref_mu[order])
        counters = np.array(
            [[(int(h) + k * ref_p) % 2 ** 64 for k in range(gam.shape[1])]
             for h in ref_heads[order]], dtype=np.uint64)
        assert _same_bits(gam, o.ref_normals_vec(key, counters))
        for k in range(gam.shape[1]):
            assert abs(gam[0, k] - o.ref_normal(key, int(counters[0, k]))) < 1e-12


# ---------------------------------------------------------------------------
# One Gaussian row per distinct prefix: same cores as the per-entry draw

def _assert_same_cores(x, widths, seed):
    t, _ = randomized_tt_svd(x, widths, RngStream(seed))
    want = o.ref_randomized_sparse(x, widths, RngStream(seed))
    assert len(t.cores) == len(want)
    for got, ref in zip(t.cores, want):
        assert _same_bits(got, ref)


@st.composite
def shared_prefix_sparse(draw):
    """Small mode sizes, so that many stored entries share index prefixes."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=8)))
    rows = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)),
                         min_size=1, max_size=40, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.array(rows, dtype=np.int64)
    return SparseTensor(shape, idx, rng.standard_normal(idx.shape[0]))


@given(st.one_of(shared_prefix_sparse(), long_sparse()), st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_draw_matches_per_entry_draw(x, data):
    widths = tuple(data.draw(st.lists(st.integers(1, 6), min_size=x.ndim - 1,
                                      max_size=x.ndim - 1)))
    _assert_same_cores(x, widths, data.draw(st.integers(0, 2 ** 16)))


def _binary_class_b(d):
    # Entry e (0-7) holds e + 1: modes 0-2 hold the bits of e, the last
    # three modes the same bits reversed, and every middle mode is 1.  Past
    # order 66 the weights of modes 0-2 in a prefix code are multiples of
    # 2**64, so distinct prefixes share a code.
    e = np.arange(8)
    bits = (e[:, None] >> np.arange(2, -1, -1)) & 1
    idx = np.ones((8, d), dtype=np.int64)
    idx[:, :3] = bits
    idx[:, -3:] = bits[:, ::-1]
    return SparseTensor((2,) * d, idx, e + 1.0)


def _one_long_prefix():
    # Nine entries that agree in their first 18 modes.
    idx = np.zeros((9, 20), dtype=np.int64)
    idx[:, :18] = 1
    idx[:, 18:] = np.array([(a, b) for a in range(3) for b in range(3)])
    return SparseTensor((3,) * 20, idx, np.arange(1.0, 10.0))


def _random_sparse(n, d, nnz, seed):
    rng = np.random.default_rng(seed)
    idx = np.unique(rng.integers(0, n, (nnz, d)), axis=0)
    return SparseTensor((n,) * d, idx, rng.standard_normal(idx.shape[0]))


@pytest.mark.parametrize("x, width", [
    (SparseTensor((3, 4), [[0, 1], [0, 3], [2, 0]], [1.0, -2.0, 0.5]), 2),
    (SparseTensor((3, 4, 5), [[2, 1, 4]], [3.0]), 2),
    (_one_long_prefix(), 4),
    (_random_sparse(2, 80, 60, 1), 20),
    (_binary_class_b(68), 10),
    (_binary_class_b(90), 10),
], ids=["order-2", "nnz-1", "one-long-prefix", "binary-80",
        "class-b-68", "class-b-90"])
def test_prefix_draw_matches_per_entry_draw_examples(x, width):
    for seed in range(3):
        _assert_same_cores(x, (width,) * (x.ndim - 1), seed)


@pytest.mark.parametrize("d", [68, 90])
def test_class_b_input_has_colliding_prefix_codes(d):
    # The prefixes stay separate runs although their codes coincide, so the
    # colliding rows keep the values the per-entry draw gives them.
    x = _binary_class_b(d)
    codes = _prefix_codes(x.idx, x.shape)
    prefixes = [len(np.unique(x.idx[:, :k], axis=0)) for k in range(d)]
    assert any(len(np.unique(codes[k])) < prefixes[k] for k in range(1, d))
    heads = []
    gammas_at = K.gammas_at

    def spy(h, s_prev, p_mod, key):
        heads.append(h.shape[0])
        return gammas_at(h, s_prev, p_mod, key)

    with mock.patch.object(K, "gammas_at", spy):
        randomized_tt_svd(x, 10, RngStream(0))
    assert heads == [prefixes[j - 1] for j in range(d, 1, -1)]


def test_sparse_sweep_holds_no_per_level_arrays():
    # Live at once, beside the input: the prefix codes (d*N uint64), the
    # result's cores, gammas_at's chunk scratch (its counters and two
    # uint64 work arrays of _CHUNK entries each) and at most three arrays
    # of N x s floats: the projected rows, the rows drawn per prefix and
    # one mode group's rows gathered from them during the sketch, then the
    # projected rows and the next ones during the update.  Everything else
    # is O(N) or O(s^2 n).  Gathering the rows of all entries at once, or
    # one more array of d*N integers, such as a run array kept for every
    # level, does not fit.
    for x, s in ((_random_sparse(2, 80, 500, 5), 20),
                 (_random_sparse(8, 12, 4000, 5), 16)):
        n = x.nnz
        widths = (s,) * (x.ndim - 1)
        t, _ = randomized_tt_svd(x, widths, RngStream(3))
        cores = sum(c.nbytes for c in t.cores)
        peak = o.peak_bytes(lambda: randomized_tt_svd(x, widths, RngStream(3)))
        assert peak < x.ndim * n * 8 + cores + 3 * C * 8 + 3 * n * s * 8


def test_dense_sketch_frees_each_gaussian_block():
    # A dense step holds its b and one Gaussian block of s x lead normals
    # (plus the chunk scratch), then b beside its projection onto the core:
    # the block never outlives its product, so it never sits beside the
    # next b or the next step's block.  At the first step b is the input.
    shape, s = (4,) * 9, 8
    x = np.random.default_rng(0).standard_normal(shape)
    widths = (s,) * (len(shape) - 1)
    t, _ = randomized_tt_svd(x, widths, RngStream(3))
    cores = sum(c.nbytes for c in t.cores)
    lead = x.size // shape[-1]
    held = bound = 0
    for j in range(len(shape), 1, -1):
        b_next = 8 * lead * t.cores[j - 1].shape[0]
        bound = max(bound, held + max(8 * s * lead, b_next))
        held = b_next
        lead //= shape[j - 2]
    peak = o.peak_bytes(lambda: randomized_tt_svd(x, widths, RngStream(3)))
    assert peak < bound + cores + 3 * C * 8 + 2 ** 16
