"""Chunked normals, grouped sparse kernels, chained prefix codes, the
sketch draw (one column per prefix, two rows per pair) and the dense sweep
against oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import (
    RngStream, SparseTensor, TTTensor, clip_ranks, decompose, randomized_tt_svd,
    tt_evaluate, tt_svd_truncated,
)
from ttsketch import _kernels as K


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
    assert _same_bits(o.normals_at(key, counters), o.ref_normals_vec(key, counters))


def _codes(n, seed):
    return np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64,
                                                endpoint=False)


@example(3 * C // 7 + 1, 7, 1)   # n*s not a multiple of C
@example(5, C + 3, 2)            # more pairs than a chunk has columns
@example(C + 5, 2, 4)            # one pair, rows longer than a chunk
@example(0, 4, 3)                # no positions
@given(st.integers(0, 3 * C // 8), st.integers(1, 40), KEYS)
@settings(max_examples=25, deadline=None)
def test_gammas_at_matches_unchunked_stream(n, s, key):
    codes = _codes(n, n + s)
    got = K.gammas_at(codes, s, key)
    assert _same_bits(got, o.ref_sketch_rows_vec(key, codes, s))


@example(1, C + 3, 3, 1)    # one parent whose children outnumber a chunk
@example(C // 2 + 1, 4, 15, 2)   # a long dense level at an odd width
@example(0, 3, 2, 3)        # no parents
@given(st.integers(0, 600), st.integers(1, 40), st.integers(1, 9), KEYS)
@settings(max_examples=25, deadline=None)
def test_gammas_at_children_match_their_codes(n, fan, s, key):
    # With children, the chunks derive each position's code from its
    # parent's: the same draws as at the children's codes themselves.
    parents = _codes(n, n + fan)
    got = K.gammas_at(parents, s, key, fan)
    children = o.ref_child_codes_vec(parents, fan)
    assert _same_bits(got, o.ref_sketch_rows_vec(key, children, s))


def test_chunked_draws_hold_little_beyond_their_output():
    # A one-shot draw holds five full-size temporaries beside its output
    # (about 9x the output); chunks keep a fixed few hundred kilobytes.
    count = 2 ** 20
    assert o.peak_bytes(lambda: K.standard_normals(12345, count)) < 8 * count + 2 ** 20
    n, s = 80_000, 8
    codes = _codes(n, 0)
    assert o.peak_bytes(lambda: K.gammas_at(codes, s, 7)) < 8 * n * s + 2 ** 20
    # A dense level: only the parents' codes are held, not one per column.
    parents = _codes(n // 4, 1)
    assert o.peak_bytes(lambda: K.gammas_at(parents, s, 7, 4)) < 8 * n * s + 2 ** 20


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
    """(n_j, mu, vals, gam, rows, w): gam holds one Gaussian column per
    prefix, fewer than the entries, and rows maps each entry to its
    prefix's column."""
    n_j, mu, s, t, seed = case
    rng = np.random.default_rng(seed)
    mu = np.sort(np.asarray(mu, dtype=np.int64))
    vals = rng.standard_normal((mu.size, t))
    gam = rng.standard_normal((s, max(1, mu.size // 2)))
    rows = rng.integers(0, gam.shape[1], mu.size)
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
    assert a.shape == (n_j, gam.shape[0], vals.shape[1])
    np.testing.assert_allclose(a, o.ref_sparse_sketch(mu, vals, gam[:, rows].T, n_j),
                               rtol=1e-12, atol=1e-12)
    empty = np.setdiff1d(np.arange(n_j), mu)
    assert not a[empty].any()


@_with_examples
@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_update_matches_scatter_oracle(case):
    # Both modes: every row projected where it is, and every row added into
    # row run[i] of count zero rows as it is projected.
    _, mu, vals, _, _, w = _step(case)
    out = K.sparse_update(mu, vals, w)
    assert out.shape == (vals.shape[0], w.shape[1])
    want = o.ref_sparse_update(mu, vals, w)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    run, count = _runs_of(mu, case[-1])
    added = K.sparse_update(mu, vals, w, run, count)
    in_row_order = np.zeros((count, w.shape[1]))
    for i, r in enumerate(run):
        in_row_order[r] += out[i]
    assert _same_bits(added, in_row_order)
    ref = np.zeros_like(in_row_order)
    np.add.at(ref, run, want)
    np.testing.assert_allclose(added, ref, rtol=1e-12, atol=1e-12)


def _runs_of(mu, seed):
    """(run, count): the one of count rows that each row of sorted mu adds
    into, distinct within each mode value as in the sweep (a prefix meets
    each mode value once); some of the count rows may take no row."""
    rng = np.random.default_rng([seed, 1])
    sizes = np.unique(mu, return_counts=True)[1]
    count = int(sizes.max(initial=0)) + int(rng.integers(0, 3))
    run = [rng.permutation(count)[:k] for k in sizes]
    return np.concatenate(run) if run else np.zeros(0, dtype=np.int64), count


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
def test_prefix_codes_match_python_int_codes(x):
    # Built forward one index at a time, every level is the python-int
    # chain; stepped back from the last level, every level comes back.
    d = x.ndim
    levels = [np.zeros(x.nnz, dtype=np.uint64)]
    for k in range(d - 1):
        levels.append(K.extend_codes(levels[-1], x.idx[:, k]))
    assert levels[-1].dtype == np.uint64
    for j, mu, codes in o.ref_step_codes(x.idx, x.shape):
        assert np.array_equal(x.idx[:, j - 1], mu)
        assert np.array_equal(levels[j - 1], codes)
    codes = levels[-1]
    for k in range(d - 1, 0, -1):
        codes = K.parent_codes(codes, x.idx[:, k - 1])
        assert np.array_equal(codes, levels[k - 1])


_EDGES = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=20),
       st.integers(0, 2 ** 40))
@settings(max_examples=40, deadline=None)
def test_parent_codes_invert_extend_codes(values, index):
    assert int(K._U_M1_INV) * K._M1 % 2 ** 64 == int(K._U_M2_INV) * K._M2 % 2 ** 64 == 1
    h = np.concatenate([_EDGES, np.array(values, dtype=np.uint64)])
    for i in (np.zeros(h.size, dtype=np.int64), np.full(h.size, index),
              np.arange(h.size)):
        up = K.extend_codes(h, i)
        assert [int(v) for v in up] == [o.ref_mix((int(a) + (int(b) + 1) * o._PHI) % 2 ** 64)
                                        for a, b in zip(h, i)]
        assert np.array_equal(K.parent_codes(up, i), h)
        # and the other way round: every value is some prefix's code
        assert np.array_equal(K.extend_codes(K.parent_codes(h, i), i), h)


@example(0, 1)
@example(2 ** 64 - 1, 41)
@given(KEYS, st.integers(1, 64))
@settings(max_examples=25, deadline=None)
def test_row_keys_are_the_substream_keys(key, count):
    got = K.row_keys(key, count)
    assert [int(v) for v in got] == [K.derive_key(key, k) for k in range(count)]


def _drawing_steps(shape, widths):
    """The steps j = d..2 whose width, clamped to the rows of their
    unfolding, is below their n_j * t columns.

    Every other step is the identity: its width covers the unfolding, so it
    keeps all n_j * t directions and draws nothing.
    """
    t, steps = 1, []
    for j in range(len(shape), 1, -1):
        cols = shape[j - 1] * t
        s = min(widths[j - 2], math.prod(shape[:j - 1]))
        if s < cols:
            steps.append(j)
        t = min(s, cols)
    return steps


@given(long_sparse(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_sketch_gaussians_match_python_int_path(x, seed):
    # The Gaussian column that each row meets in the sketch is the one its
    # python-int prefix code gives, bit for bit: every drawing step draws one
    # column per distinct index prefix, at that prefix's code, and sketches
    # one row per distinct prefix one mode longer, which meets its parent
    # prefix's column.
    drawn = []
    sketched = []
    gammas_at = K.gammas_at
    sparse_sketch = K.sparse_sketch

    def spy_gammas(codes, s, key):
        gam = gammas_at(codes, s, key)
        drawn.append((codes.copy(), int(key), gam))
        return gam

    def spy_sketch(mu, vals, gam, rows, n_j):
        sketched.append((mu.copy(), gam[:, rows]))
        return sparse_sketch(mu, vals, gam, rows, n_j)

    with mock.patch.object(K, "gammas_at", spy_gammas), \
            mock.patch.object(K, "sparse_sketch", spy_sketch):
        randomized_tt_svd(x, (2,) * (x.ndim - 1), RngStream(seed))
    drawing = _drawing_steps(x.shape, (2,) * (x.ndim - 1))
    steps = [step for step in o.ref_step_codes(x.idx, x.shape) if step[0] in drawing]
    assert len(drawn) == len(sketched) == len(steps)
    for (codes, key, draw), (mu, gam), (j, ref_mu, ref_codes) in zip(drawn, sketched, steps):
        _, first = np.unique(x.idx[:, :j - 1], axis=0, return_index=True)
        assert np.array_equal(codes, ref_codes[np.sort(first)])
        for k in range(draw.shape[0]):
            want = o.ref_sketch_entry(key, k, int(codes[0]))
            assert abs(draw[k, 0] - want) < 1e-12
        # The rows, in whatever order the sweep sorts them within a mode
        # value, are the prefixes of length j, each with its mode index and
        # its column.
        _, first = np.unique(x.idx[:, :j], axis=0, return_index=True)
        ref = o.ref_sketch_rows_vec(key, ref_codes[first], gam.shape[0])
        assert np.all(mu[1:] >= mu[:-1])
        assert _same_rows(np.column_stack([mu.astype(np.uint64), gam.T.view(np.uint64)]),
                          np.column_stack([ref_mu[first].astype(np.uint64),
                                           ref.T.view(np.uint64)]))


def _same_rows(a, b):
    """Whether a and b hold the same rows, in any order."""
    return a.shape == b.shape and np.array_equal(a[np.lexsort(a.T[::-1])],
                                                 b[np.lexsort(b.T[::-1])])


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
    (o.binary_class_b(68), 10),
    (o.binary_class_b(90), 10),
], ids=["order-2", "nnz-1", "one-long-prefix", "binary-80",
        "class-b-68", "class-b-90"])
def test_prefix_draw_matches_per_entry_draw_examples(x, width):
    for seed in range(3):
        _assert_same_cores(x, (width,) * (x.ndim - 1), seed)


@pytest.mark.parametrize("d", [68, 90])
def test_class_b_prefixes_get_distinct_codes(d):
    # Row-major position codes reduced mod 2**64 gave the prefixes of this
    # input equal codes past order 66; chained codes keep them apart, and
    # every drawing step draws one column per prefix, at distinct codes.
    x = o.binary_class_b(d)
    prefixes = [len(np.unique(x.idx[:, :k], axis=0)) for k in range(d)]
    for j, _, codes in o.ref_step_codes(x.idx, x.shape):
        assert len(np.unique(codes)) == prefixes[j - 1]
    drawn = []
    gammas_at = K.gammas_at

    def spy(codes, s, key):
        drawn.append(len(np.unique(codes)))
        return gammas_at(codes, s, key)

    with mock.patch.object(K, "gammas_at", spy):
        randomized_tt_svd(x, 10, RngStream(0))
    drawing = _drawing_steps(x.shape, clip_ranks(x.shape, 10))
    assert drawn == [prefixes[j - 1] for j in drawing]


# ---------------------------------------------------------------------------
# One sweep loop: the dense cores bit for bit as the dense path's own loop

@st.composite
def dense_sweeps(draw):
    """A dense input of order 2-7, an int or per-edge width, and a seed."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=7)))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(shape)
    edges = len(shape) - 1
    widths = draw(st.one_of(
        st.integers(1, 30),
        st.lists(st.integers(1, 30), min_size=edges, max_size=edges).map(tuple),
    ))
    return x, widths, draw(st.integers(0, 2 ** 16))


# Per-edge widths above the clamp at both boundaries, an int width past
# every dimension product, order 2 with a mode of size 1.
@example((np.arange(1.0, 25.0).reshape(2, 3, 4), (30, 30), 1))
@example((np.arange(1.0, 6.0).reshape(1, 5), 3, 2))
@example((np.random.default_rng(3).standard_normal((2,) * 7), 100, 3))
@given(dense_sweeps())
@settings(max_examples=60, deadline=None)
def test_dense_sweep_matches_its_own_loop(case):
    x, widths, seed = case
    t, _ = randomized_tt_svd(x, widths, RngStream(seed))
    per_edge = clip_ranks(x.shape, widths) if isinstance(widths, int) else widths
    want = o.ref_randomized_dense(x, per_edge, RngStream(seed))
    assert len(t.cores) == len(want.cores)
    for got, ref in zip(t.cores, want.cores):
        assert _same_bits(got, ref)


# ---------------------------------------------------------------------------
# Identity steps: the same tensor as drawing at every step, and no work

@given(st.one_of(dense_sweeps(), st.tuples(shared_prefix_sparse(), st.data())))
@settings(max_examples=60, deadline=None)
def test_identity_steps_represent_the_draw_every_step_tensor(case):
    # An identity step keeps the whole row space, as the square orthogonal q
    # of a draw would: the train moves by an orthogonal gauge only, so the
    # ranks agree and the tensors agree to roundoff.
    if isinstance(case[0], SparseTensor):
        x, data = case
        widths = tuple(data.draw(st.lists(st.integers(1, 30), min_size=x.ndim - 1,
                                          max_size=x.ndim - 1)))
        seed = data.draw(st.integers(0, 2 ** 16))
        want = TTTensor(o.ref_randomized_sparse(x, widths, RngStream(seed), draw_all=True))
    else:
        x, widths, seed = case
        per_edge = clip_ranks(x.shape, widths) if isinstance(widths, int) else widths
        want = o.ref_randomized_dense(x, per_edge, RngStream(seed), draw_all=True)
    t, _ = randomized_tt_svd(x, widths, RngStream(seed))
    assert t.ranks == want.ranks
    y = tt_evaluate(want)
    assert np.linalg.norm(tt_evaluate(t) - y) <= 1e-12 * np.linalg.norm(y)


def _calls(module, name, log, record):
    """Patch module.name by a spy that appends record(*args) to log."""
    fn = getattr(module, name)

    def spy(*args):
        log.append(record(*args))
        return fn(*args)

    return mock.patch.object(module, name, spy)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_identity_steps_draw_and_factor_nothing(sparse):
    # Widths (2, 9, 5, 3) against the columns n_j * t of steps 5..2: 3 >= 2
    # and 5 >= 4 make steps 5 and 4 the identity.  Step 3 clamps 9 to the 6
    # rows of its unfolding; 6 < 16 and 2 < 12 make steps 3 and 2 draw and
    # factor.
    shape, widths = (3, 2, 4, 2, 2), (2, 9, 5, 3)
    x = np.random.default_rng(1).standard_normal(shape)
    if sparse:
        x = SparseTensor(shape, np.argwhere(x), x[x != 0])
    drawing = _drawing_steps(shape, widths)
    assert drawing == [3, 2]
    keys = {RngStream(4).substream(j).key: j for j in range(2, len(shape) + 1)}
    drawn, factored = [], []
    with _calls(K, "standard_normals", drawn, lambda key, count: keys[int(key)]), \
            _calls(K, "gammas_at", drawn, lambda codes, s, key, *fan: keys[int(key)]), \
            _calls(decompose, "rq_row_orthonormal", factored, lambda a: a.shape):
        t, _ = randomized_tt_svd(x, widths, RngStream(4))
    assert drawn == drawing
    assert factored == [(6, 4 * 4), (2, 2 * 6)]
    assert t.ranks == (2, 6, 4, 2)


@pytest.mark.parametrize("shape, rank", [
    ((2, 3, 4, 3, 2), 6), ((4,) * 6, 16), ((3, 3), 5), ((2, 2, 2), 1),
])
def test_truncated_sweep_factors_only_below_the_row_count(shape, rank):
    # Edge i factors its (r_{i-1} n_i) x rest unfolding only when the target
    # keeps fewer directions than it has rows; otherwise u would be square
    # orthogonal and the step keeps the identity.
    x = np.random.default_rng(2).standard_normal(shape)
    target = clip_ranks(shape, rank)
    rows = [shape[0]] + [target[i - 1] * shape[i] for i in range(1, len(shape) - 1)]
    factored = []
    with _calls(decompose, "left_svd", factored, lambda a: a.shape[0]):
        t, report = tt_svd_truncated(x, rank)
    assert factored == [r for r, k in zip(rows, target) if k < r]
    assert t.ranks == target
    assert all(report.discarded_energy[i] == 0.0
               for i, (r, k) in enumerate(zip(rows, target)) if k >= r)


@pytest.mark.parametrize("shape, run", [
    ((2, 2), lambda x: randomized_tt_svd(x, (5,), RngStream(0))),
    ((3, 3), lambda x: tt_svd_truncated(x, 5)),
], ids=["randomized-2x2", "truncated-3x3"])
def test_all_identity_train_holds_no_view_of_the_input(shape, run):
    # Every step is the identity, so the first (randomized) or last
    # (deterministic) core holds the input's entries, exactly: it must be a
    # copy.
    x = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    x.flags.writeable = False  # the input is never written
    t, _ = run(x)
    assert not any(np.shares_memory(c, x) for c in t.cores)
    assert np.array_equal(tt_evaluate(t), x)


# ---------------------------------------------------------------------------
# What one sweep step holds

def test_sparse_sweep_holds_no_per_level_arrays():
    # Live at once, beside the input: one level of prefix codes (N uint64,
    # and the next level while it steps back), the result's cores,
    # gammas_at's chunk scratch (at most three arrays of _CHUNK entries) and
    # at most three arrays of N x s floats: the projected rows, the columns
    # drawn per prefix and one mode group's columns gathered from them
    # during the sketch, then the projected rows and the next ones during
    # the update.  Everything else is O(N) or O(s^2 n).  Gathering the
    # columns of all entries at once, or one more array of d*N integers,
    # such as the codes or a run array kept for every level, does not fit.
    for x, s in ((_random_sparse(2, 80, 500, 5), 20),
                 (_random_sparse(8, 12, 4000, 5), 16)):
        n = x.nnz
        widths = (s,) * (x.ndim - 1)
        t, _ = randomized_tt_svd(x, widths, RngStream(3))
        cores = sum(c.nbytes for c in t.cores)
        peak = o.peak_bytes(lambda: randomized_tt_svd(x, widths, RngStream(3)))
        assert peak < 2 * n * 8 + cores + 3 * C * 8 + 3 * n * s * 8


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


def test_identity_step_draws_no_block_and_copies_nothing():
    # At (4,)*9 and width 8, step 9 is the identity (8 >= its 4 columns): it
    # draws no 8 x 4^8 block and makes no projected copy, and b stays a view
    # of the input.  Step 8 then holds its 8 x 4^7 block and, after that, its
    # projection, of 4^7 x 8; every later step holds less.  Drawing at
    # step 9 would hold a 4 MB block, more than this bound allows.
    shape, s = (4,) * 9, 8
    x = np.random.default_rng(0).standard_normal(shape)
    widths = (s,) * (len(shape) - 1)
    t, _ = randomized_tt_svd(x, widths, RngStream(3))
    cores = sum(c.nbytes for c in t.cores)
    lead = x.size // (shape[-1] * shape[-2])
    block, projection = 8 * s * lead, 8 * lead * t.cores[-2].shape[0]
    peak = o.peak_bytes(lambda: randomized_tt_svd(x, widths, RngStream(3)))
    assert peak < block + projection + cores + 3 * C * 8 + 2 ** 16
