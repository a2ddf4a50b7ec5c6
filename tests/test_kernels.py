"""Chunked normals, grouped sparse kernels and uint64 prefix codes against oracles."""

import tracemalloc
from unittest import mock

import numpy as np
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
    counters = np.uint64(start) + np.arange(count, dtype=np.uint64)  # wraps
    got = K.normals_at(np.uint64(key), counters)
    assert _same_bits(got, o.ref_normals_vec(key, counters))
    assert _same_bits(K.normals_at(np.uint64(key), counters.reshape(1, -1)),
                      got.reshape(1, -1))


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


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_draws_hold_little_beyond_their_output():
    # A one-shot draw holds five full-size temporaries beside its output
    # (about 9x the output); chunks keep a fixed few hundred kilobytes.
    count = 2 ** 20
    assert _peak_bytes(lambda: K.standard_normals(12345, count)) < 8 * count + 2 ** 20
    n, s = 80_000, 8
    heads = np.arange(n, dtype=np.uint64) * np.uint64(2 ** 40 + 1)
    peak = _peak_bytes(lambda: K.gammas_at(heads, s, np.uint64(3 ** 30), np.uint64(7)))
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
    n_j, mu, s, t, seed = case
    rng = np.random.default_rng(seed)
    mu = np.sort(np.asarray(mu, dtype=np.int64))
    vals = rng.standard_normal((mu.size, t))
    gam = rng.standard_normal((mu.size, s))
    w = rng.standard_normal((n_j, s, t))
    return n_j, mu, vals, gam, w


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
    n_j, mu, vals, gam, _ = _step(case)
    a = K.sparse_sketch(mu, vals, gam, n_j)
    assert a.shape == (n_j, gam.shape[1], vals.shape[1])
    np.testing.assert_allclose(a, o.ref_sparse_sketch(mu, vals, gam, n_j),
                               rtol=1e-12, atol=1e-12)
    empty = np.setdiff1d(np.arange(n_j), mu)
    assert not a[empty].any()


@_with_examples
@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_update_matches_scatter_oracle(case):
    _, mu, vals, _, w = _step(case)
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


@given(long_sparse(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_sketch_gaussians_match_python_int_path(x, seed):
    # Every Gaussian row the decomposition draws is the one the python-int
    # counters give, bit for bit; rows come sorted by mode, so both sides
    # are aligned by head code (equal heads draw equal rows).
    calls = []
    gammas_at = K.gammas_at

    def spy(heads, s_prev, p_mod, key):
        gam = gammas_at(heads, s_prev, p_mod, key)
        calls.append((heads.copy(), s_prev, int(p_mod), key, gam))
        return gam

    with mock.patch.object(K, "gammas_at", spy):
        randomized_tt_svd(x, (2,) * (x.ndim - 1), RngStream(seed))
    steps = list(o.ref_step_heads(x.idx, x.shape))
    assert len(calls) == len(steps)
    for (heads, s_prev, p_mod, key, gam), (_, _, ref_heads, ref_p) in zip(calls, steps):
        assert p_mod == ref_p
        mine = np.argsort(heads, kind="stable")
        ref = np.argsort(ref_heads, kind="stable")
        assert np.array_equal(heads[mine], ref_heads[ref])
        want = gammas_at(ref_heads[ref], s_prev, np.uint64(ref_p), key)
        assert np.array_equal(gam[mine], want)
        for k in range(s_prev):
            counter = (int(heads[0]) + k * ref_p) % 2 ** 64
            assert abs(gam[0, k] - o.ref_normal(int(key), counter)) < 1e-12
