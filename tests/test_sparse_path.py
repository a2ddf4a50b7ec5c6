"""The sparse fast path must reproduce the dense path draw for draw."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from gates import chord_slope_ratio, linear_growth_bound
from test_cli import _outer_product_sum as _outer_product_file_input
from test_kernels import _drawing_steps, _same_bits, shared_prefix_sparse
from ttsketch import (
    RngStream, SparseTensor, TTTensor, clip_ranks, gaussian_dense, gaussian_sparse,
    randomized_tt_svd, relative_error, tt_evaluate, tt_norm,
)
from ttsketch import _kernels as K
from ttsketch.experiments import ExperimentConfig, resolve_config
from ttsketch.tt import right_unfold


def _paths_agree(shape, nnz, sketch, seed, tol=1e-10):
    rng = RngStream(seed)
    xs = gaussian_sparse(shape, nnz, rng.substream(0))
    x = xs.to_dense()
    a, _ = randomized_tt_svd(xs, sketch, rng.substream(1))
    b, _ = randomized_tt_svd(x, sketch, rng.substream(1))
    assert a.ranks == b.ranks
    for ca, cb in zip(a.cores, b.cores):
        assert np.max(np.abs(ca - cb)) < tol
    return a


def test_paths_agree_small_orders():
    _paths_agree((4, 5, 3), 20, clip_ranks((4, 5, 3), 3), seed=1)
    _paths_agree((3, 3, 3, 3, 3), 40, clip_ranks((3,) * 5, 4), seed=2)
    _paths_agree((6, 2, 5, 4), 30, clip_ranks((6, 2, 5, 4), 5), seed=3)


def test_paths_agree_long_binary_train():
    shape = (2,) * 20
    sketch = clip_ranks(shape, 20)
    _paths_agree(shape, 500, sketch, seed=4)


_SHAPE_AND_WIDTHS = st.lists(st.integers(1, 4), min_size=2, max_size=6).flatmap(
    lambda shape: st.tuples(
        st.just(tuple(shape)),
        st.lists(st.integers(1, 6), min_size=len(shape) - 1,
                 max_size=len(shape) - 1).map(tuple),
    )
)


@given(_SHAPE_AND_WIDTHS, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_explicit_widths_clamp_at_both_boundaries(shape_widths, seed):
    # The widths reached are the rows of each RQ factor: the width, clamped
    # to the rows of the unfolding (its left boundary) and to its columns,
    # which clamp from the right boundary inwards.
    shape, widths = shape_widths
    d = len(shape)
    want = [0] * (d - 1)
    r = 1
    for j in range(d - 1, 0, -1):
        r = min(widths[j - 1], math.prod(shape[:j]), shape[j] * r)
        want[j - 1] = r
    rng = RngStream(seed)
    x = gaussian_dense(shape, rng.substream(0))
    x[rng.substream(1).normals(shape) < 0] = 0.0
    x.flat[0] = 1.0  # never the zero tensor
    idx = np.argwhere(x)
    xs = SparseTensor(shape, idx, x[tuple(idx.T)])
    nx2 = float(np.sum(x ** 2))
    for source in (x, xs):
        t, _ = randomized_tt_svd(source, widths, rng.substream(2))
        assert t.ranks == tuple(want)
        for core in t.cores[1:]:
            q = right_unfold(core)
            assert np.max(np.abs(q @ q.T - np.eye(q.shape[0]))) < 1e-12
        # an orthogonal projection: ||x||^2 = ||Px||^2 + ||x - Px||^2
        y = tt_evaluate(t)
        assert abs(nx2 - np.sum(y ** 2) - np.sum((x - y) ** 2)) <= 1e-10 * nx2


def test_gamma_counters_match_dense_layout():
    # Column u of a sparse step's draw, at the code of prefix u, must be the
    # dense g entry at the same (row, column) position: the dense block's
    # column p is drawn at the code of lead position p, derived from its
    # parent's code.
    key = K.key_from_seed(99)
    s, shape = 5, (3, 5)
    parents = K.extend_codes(np.zeros((1, 1), dtype=np.uint64), np.arange(shape[0]))
    dense_g = K.gammas_at(parents.reshape(-1), s, key, shape[1])
    positions = [0, 3, 7, 14]
    codes = np.zeros(len(positions), dtype=np.uint64)
    for i in np.array(np.unravel_index(positions, shape)):
        codes = K.extend_codes(codes, i)
    gam = K.gammas_at(codes, s, key)
    for u, p in enumerate(positions):
        for k in range(s):
            assert gam[k, u] == dense_g[k, p]


def test_single_entry_exact():
    xs = SparseTensor((3, 4, 5), [[1, 2, 3]], [2.5])
    t, _ = randomized_tt_svd(xs, (1, 1), RngStream(6))
    assert relative_error(xs.to_dense(), t) < 1e-12


def test_unaddressable_shape_runs():
    # total element count exceeds 2**62: positions carried as python ints
    shape = (2**16,) * 4
    idx = np.array([
        [11, 222, 3333, 44444],
        [11, 222, 3333, 55555],
        [99, 1, 2, 3],
    ], dtype=np.int64)
    xs = SparseTensor(shape, idx, [1.0, 2.0, 3.0])
    t, report = randomized_tt_svd(xs, (2, 2, 2), RngStream(7))
    assert report.ranks == (2, 2, 2)
    for core in t.cores[1:]:
        m = right_unfold(core)
        assert np.linalg.norm(m @ m.T - np.eye(m.shape[0])) < 1e-12
    # projector: reconstruction norm never exceeds the data norm
    assert tt_norm(t) <= np.linalg.norm(xs.values) + 1e-12


def test_unaddressable_rank_one_exact():
    # a single entry is a rank-1 train the sketch must capture exactly
    shape = (2**16,) * 4
    xs = SparseTensor(shape, [[5, 6, 7, 8]], [2.5])
    t, _ = randomized_tt_svd(xs, (1, 1, 1), RngStream(8))
    # evaluate the train at the stored position only
    v = t.cores[0][5, :]
    v = v @ t.cores[1][:, 6, :]
    v = v @ t.cores[2][:, 7, :]
    got = float(v @ t.cores[3][:, 8])
    assert abs(got - 2.5) < 1e-12
    assert abs(tt_norm(t) - 2.5) < 1e-12


def test_long_order_smoke():
    # far beyond any dense limit; cost stays linear in the order
    shape = (2,) * 62
    rng = RngStream(9)
    xs = gaussian_sparse(shape, 100, rng.substream(0))
    t, report = randomized_tt_svd(xs, clip_ranks(shape, 6), rng.substream(1))
    assert len(report.ranks) == 61
    assert tt_norm(t) <= np.linalg.norm(xs.values) + 1e-10


# ---------------------------------------------------------------------------
# One row per distinct prefix

def _outer_product_sum(seed=5):
    """A sum of three outer products of sparse mode vectors at 5^6, as the
    benchmark's sparse CLI input is at 8^8: the entries share prefixes."""
    rng = np.random.default_rng(seed)
    shape, supports = (5,) * 6, (3, 3, 3, 2, 2, 2)
    x = np.zeros(shape)
    for _ in range(3):
        term = np.ones(())
        for n, k in zip(shape, supports):
            vec = np.zeros(n)
            vec[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
            term = np.multiply.outer(term, vec)
        x += term
    idx = np.argwhere(x)
    return SparseTensor(shape, idx, x[tuple(idx.T)])


def _distinct_prefixes(x, j):
    return len(np.unique(x.idx[:, :j], axis=0))


def _assert_one_row_per_prefix(x, widths, seed):
    # After step j+1's update a row depends only on its prefix idx[:, :j], so
    # step j updates one row per distinct prefix of length j: the merged
    # rows.  The identity steps before the first draw update nothing: each
    # entry is placed once, in its prefix's row of the first drawing step
    # (or of the first core), and every step from that draw on updates.
    drawing = _drawing_steps(x.shape, widths)
    first = drawing[0] if drawing else 1
    rows = []
    sparse_update = K.sparse_update

    def spy(mu, vals, w, *merge):
        rows.append(len(mu))
        return sparse_update(mu, vals, w, *merge)

    with mock.patch.object(K, "sparse_update", spy):
        randomized_tt_svd(x, widths, RngStream(seed))
    assert rows == [_distinct_prefixes(x, j) for j in range(first, 1, -1)]


def _assert_represents_the_per_entry_tensor(x, widths, seed):
    # Merging changes only the order of the additions: a merged row is the
    # sum of its entries' rows, which the per-entry sweep adds later, inside
    # the sketch's products and the first core's scatter-add.  Both draw the
    # same Gaussians and take the same widths, so the ranks are equal, and
    # in exact arithmetic so are the represented tensors.  A sum of at most
    # N terms a_i, computed in any order, is off by at most (N u) sum |a_i|
    # <= N^1.5 u ||a|| (Higham, Accuracy and Stability, ch. 4): 1.7e-12 for
    # the pinned input's N = 621, the largest here.  The RQ is backward
    # stable and the represented tensor is x projected step by step, so
    # over at most 7 steps that gives about 1e-11 of ||x||, times the
    # sketches' condition numbers.  The worst case needs every rounding to
    # push one way; with random signs the error grows like sqrt(N) u, about
    # 3e-15 here, which leaves the bound of 1e-11 a factor of 1e3 for the
    # condition numbers of Gaussian sketches of at most 8 rows.
    t, _ = randomized_tt_svd(x, widths, RngStream(seed))
    want = TTTensor(o.ref_randomized_sparse(x, widths, RngStream(seed), merge=False))
    assert t.ranks == want.ranks
    y = tt_evaluate(want)
    assert np.linalg.norm(tt_evaluate(t) - y) <= 1e-11 * np.linalg.norm(x.values)


# At 5^6, width 8 makes step 6 the identity (8 >= 5) and steps 5..2 draw.
# The per-edge widths draw at step 6 (2 < 5), keep step 5 as the identity
# (10 >= 5 * 2), draw at step 4 (3 < 50), keep step 3 (15 >= 5 * 3) and
# draw at step 2 (5 < 75): identity steps after a draw project as before.
_OUTER_WIDTHS = [(1,) * 5, (3,) * 5, (8,) * 5, (5, 15, 3, 10, 2)]
_OUTER_IDS = ["1", "3", "8", "per-edge"]


def test_outer_product_sum_widths_draw_where_stated():
    assert [_drawing_steps((5,) * 6, w) for w in _OUTER_WIDTHS] == [
        [6, 5, 4, 3, 2], [6, 5, 4, 3, 2], [5, 4, 3, 2], [6, 4, 2]]


@pytest.mark.parametrize("widths", _OUTER_WIDTHS, ids=_OUTER_IDS)
def test_outer_product_sum_updates_one_row_per_distinct_prefix(widths):
    x = _outer_product_sum()
    for seed in range(3):
        _assert_one_row_per_prefix(x, widths, seed)


@pytest.mark.parametrize("widths", _OUTER_WIDTHS, ids=_OUTER_IDS)
def test_outer_product_sum_represents_the_per_entry_tensor(widths):
    x = _outer_product_sum()
    for seed in range(3):
        _assert_represents_the_per_entry_tensor(x, widths, seed)


@pytest.mark.parametrize("widths", _OUTER_WIDTHS, ids=_OUTER_IDS)
def test_outer_product_sum_matches_the_per_entry_draw_bit_for_bit(widths):
    x = _outer_product_sum()
    for seed in range(3):
        t, _ = randomized_tt_svd(x, widths, RngStream(seed))
        want = o.ref_randomized_sparse(x, widths, RngStream(seed))
        assert all(_same_bits(a, b) for a, b in zip(t.cores, want, strict=True))


def _widths(x, data):
    return tuple(data.draw(st.lists(st.integers(1, 6), min_size=x.ndim - 1,
                                    max_size=x.ndim - 1)))


@given(shared_prefix_sparse(), st.data())
@settings(max_examples=60, deadline=None)
def test_each_step_updates_one_row_per_distinct_prefix(x, data):
    _assert_one_row_per_prefix(x, _widths(x, data), data.draw(st.integers(0, 2 ** 16)))


@given(shared_prefix_sparse(), st.data())
@settings(max_examples=60, deadline=None)
def test_merged_rows_represent_the_per_entry_tensor(x, data):
    _assert_represents_the_per_entry_tensor(
        x, _widths(x, data), data.draw(st.integers(0, 2 ** 16)))


def test_leading_identity_step_holds_only_the_merged_rows():
    # One outer product at 8^8 with supports (4, 4, 4, 4, 3, 3, 3, 8): N =
    # 55296 entries, P = N / 8 distinct prefixes of length 7.  At width 8
    # step 8 is the identity (8 >= its 8 columns) and step 7 draws, so the
    # entries are placed in P rows of 8 columns, the merged rows of step 7.
    # Beside the input the sweep then holds, at most:
    # - two arrays of N integers while it places the entries (each entry's
    #   run, then its position in the rows);
    # - two arrays of P x 8 floats: the rows beside their projection, or
    #   the projection beside the merged rows, which are fewer;
    # - eight arrays of P integers or codes (first entries, codes and the
    #   next level's, sort order, mode indices, runs, positions, splits);
    # - the cores and gammas_at's chunk scratch.
    # Updating every entry at the identity step, N x 8 floats, does not fit.
    rng = np.random.default_rng(3)
    pos = [np.sort(rng.choice(8, k, replace=False)) for k in (4, 4, 4, 4, 3, 3, 3, 8)]
    idx = np.stack([g.ravel() for g in np.meshgrid(*pos, indexing="ij")], axis=1)
    x = SparseTensor((8,) * 8, idx, rng.standard_normal(idx.shape[0]))
    n, p, s = x.nnz, _distinct_prefixes(x, 7), 8
    assert (n, p) == (55296, 6912)
    widths = (s,) * 7
    assert _drawing_steps(x.shape, widths) == [7, 6, 5, 4, 3, 2]
    t, _ = randomized_tt_svd(x, widths, RngStream(3))
    cores = sum(c.nbytes for c in t.cores)
    peak = o.peak_bytes(lambda: randomized_tt_svd(x, widths, RngStream(3)))
    assert peak < 8 * (2 * n + 2 * p * s + 8 * p) + cores + 3 * K._CHUNK * 8


def test_first_drawing_step_adds_its_rows_as_it_projects_them():
    # Two outer products at 16^6, supports (6, 6, 6, 5, 5, 8): N = 86400
    # entries, P = N / 8 distinct prefixes of length 5.  At width 8 step 6
    # draws (8 < its 16 columns), so every entry is a row of that step, and
    # its update adds them into the P rows of step 5.  Beside the input the
    # sweep then holds, at most:
    # - while it places the entries, nine arrays of N 8-byte values (first
    #   entries, codes, sort order, mode indices, in-row positions, values
    #   and the code chain's or the sort's temporaries) and two of N bytes
    #   (the prefix flags and splits);
    # - while it projects them, six of those arrays (first entries, codes,
    #   sort order, mode indices, values and runs) and three arrays of at
    #   most P x 8 floats: the added rows, one mode group's products and
    #   the rows they add to (a group meets each prefix once);
    # - the cores and gammas_at's chunk scratch.
    # Projecting every entry before adding them, N x 8 floats, does not fit.
    x = _outer_product_file_input((16,) * 6, (6, 6, 6, 5, 5, 8), 2, seed=4)
    n, p, s = x.nnz, _distinct_prefixes(x, 5), 8
    assert (n, p) == (86400, 10800)
    widths = (s,) * 5
    assert _drawing_steps(x.shape, widths) == [6, 5, 4, 3, 2]
    t, _ = randomized_tt_svd(x, widths, RngStream(3))
    cores = sum(c.nbytes for c in t.cores)
    peak = o.peak_bytes(lambda: randomized_tt_svd(x, widths, RngStream(3)))
    assert peak < 8 * (9 * n + 3 * p * s) + 2 * n + cores + 3 * K._CHUNK * 8


def test_runtime_study_work_is_linear_in_the_order():
    # The noise-free companion of C06 (test_acceptance): the runtime study's
    # inputs as C06 draws its sample 0, with the kernels' work counted
    # instead of timed: rows x s x t, the multiply-adds of the matrix
    # products, summed over the sweep's sparse_sketch and sparse_update
    # calls.  C06's chord/first-step statistic and bound apply unchanged.
    orders = (10, 20, 40, 60)
    sketch, update = K.sparse_sketch, K.sparse_update
    work = []

    def count_sketch(mu, vals, gam, *rest):
        work[-1] += len(mu) * gam.shape[0] * vals.shape[1]
        return sketch(mu, vals, gam, *rest)

    def count_update(mu, vals, w, *rest):
        work[-1] += len(mu) * w.shape[1] * vals.shape[1]
        return update(mu, vals, w, *rest)

    for d in orders:
        cfg = resolve_config(ExperimentConfig("runtime", d=d, samples=5, seed=304))[0]
        assert (cfg.n, cfg.nnz, cfg.r + cfg.p) == (2, 500, 20)
        stream = RngStream(304).substream(0, 0)
        xs = gaussian_sparse((cfg.n,) * d, cfg.nnz, stream.substream(0))
        work.append(0)
        with mock.patch.object(K, "sparse_sketch", count_sketch), \
                mock.patch.object(K, "sparse_update", count_update):
            randomized_tt_svd(xs, cfg.r + cfg.p, stream.substream(1))
    bound = linear_growth_bound(orders)
    assert bound == pytest.approx(math.sqrt(7 / 3))
    assert chord_slope_ratio(orders, work) <= bound
