"""Properties every decomposition entry point shares, checked through each.

The deterministic sweeps (`tt_svd_exact`, `tt_svd_truncated`) and the
randomized sketch (`randomized_tt_svd`, dense and sparse) admit their
input, short-cut the zero tensor and write their report in one place;
these properties hold for all of them on small random shapes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttsketch import (
    RngStream, SparseTensor, TTTensor, clip_ranks, gaussian_dense, gaussian_sparse,
    random_tt, randomized_tt_svd, relative_error, tt_evaluate, tt_round,
    tt_svd_exact, tt_svd_truncated,
)
from ttsketch.tt import core_shapes

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
_SHAPES = st.lists(st.integers(1, 4), min_size=2, max_size=5).map(tuple)
_SEEDS = st.integers(0, 2 ** 32 - 1)

# Every entry point as (name, call(x, rank, seed)); the sweeps record the
# energy cut per edge, the sketch records none.
_ENTRY_POINTS = [
    ("exact", lambda x, r, seed: tt_svd_exact(x)),
    ("truncated", lambda x, r, seed: tt_svd_truncated(x, r)),
    ("randomized", lambda x, r, seed: randomized_tt_svd(x, r, RngStream(seed))),
]
_SWEEPS = {"exact", "truncated"}


def _zero_sparse(shape, stored):
    # Stored values that are all zero: the tensor is zero whatever the indices.
    flat = np.arange(min(stored, int(np.prod(shape))))
    idx = np.stack(np.unravel_index(flat, shape), axis=1)
    return SparseTensor(shape, idx, np.zeros(len(flat)))


def _check_report(name, x_is_zero, t, report, d):
    assert report.ranks == t.ranks
    assert report.degenerate == x_is_zero
    if name in _SWEEPS and not x_is_zero:
        assert len(report.discarded_energy) == d - 1
    else:
        assert report.discarded_energy == ()
    assert report.wall_time_s > 0.0


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
@given(shape=_SHAPES, rank=st.integers(1, 4), seed=_SEEDS)
@_SETTINGS
def test_exact_recovery_at_matching_rank(name, call, shape, rank, seed):
    # A train of ranks <= r is reproduced by every method at rank r.
    x = tt_evaluate(random_tt(shape, rank, RngStream(seed).substream(0)))
    t, report = call(x, rank, seed + 1)
    assert relative_error(x, t) <= 1e-10
    _check_report(name, False, t, report, len(shape))


@given(shape=_SHAPES, nnz=st.integers(1, 12), seed=_SEEDS)
@_SETTINGS
def test_sparse_exact_recovery_at_matching_rank(shape, nnz, seed):
    # nnz stored entries give train ranks <= nnz, so width nnz is exact.
    nnz = min(nnz, int(np.prod(shape)))
    xs = gaussian_sparse(shape, nnz, RngStream(seed).substream(0))
    t, report = randomized_tt_svd(xs, nnz, RngStream(seed).substream(1))
    assert relative_error(xs.to_dense(), t) <= 1e-10
    _check_report("randomized", False, t, report, len(shape))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@given(shape=_SHAPES, width=st.integers(1, 6), seed=_SEEDS)
@_SETTINGS
def test_sketch_is_an_orthogonal_projection(sparse, shape, width, seed):
    # ||x||^2 = ||Px||^2 + ||x - Px||^2 for the projector P the train applies.
    rng = RngStream(seed)
    if sparse:
        x = gaussian_sparse(shape, min(6, int(np.prod(shape))), rng.substream(0))
        dense = x.to_dense()
    else:
        x = dense = gaussian_dense(shape, rng.substream(0))
    y = tt_evaluate(randomized_tt_svd(x, width, rng.substream(1))[0])
    lhs = float(np.sum(dense ** 2))
    rhs = float(np.sum(y ** 2)) + float(np.sum((dense - y) ** 2))
    assert abs(lhs - rhs) <= 1e-12 * lhs


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@given(shape=_SHAPES, width=st.integers(1, 20), seed=_SEEDS)
@_SETTINGS
def test_int_width_is_its_clipped_ranks(sparse, shape, width, seed):
    # An int width reaches the ranks clip_ranks gives; passing those widths
    # explicitly gives the same cores, bit for bit.
    rng = RngStream(seed)
    if sparse:
        x = gaussian_sparse(shape, min(5, int(np.prod(shape))), rng.substream(0))
    else:
        x = gaussian_dense(shape, rng.substream(0))
    a, _ = randomized_tt_svd(x, width, rng.substream(1))
    b, _ = randomized_tt_svd(x, clip_ranks(shape, width), rng.substream(1))
    assert len(a.cores) == len(b.cores)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)


def _loop_bound(shape, widths):
    """r_j = min(w_j, lead_j, n_{j+1} r_{j+1}): the width, the rows of the
    unfolding at edge j and its columns, from the right boundary inwards."""
    r, ranks = 1, []
    for j in range(len(shape) - 1, 0, -1):
        r = min(widths[j - 1], math.prod(shape[:j]), shape[j] * r)
        ranks.append(r)
    return tuple(ranks[::-1])


def _edge_widths(shape, top):
    return st.lists(st.integers(1, top), min_size=len(shape) - 1,
                    max_size=len(shape) - 1).map(tuple)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@given(shape=_SHAPES, data=st.data(), seed=_SEEDS)
@_SETTINGS
def test_per_edge_widths_reach_the_loop_bound(sparse, shape, data, seed):
    # The sweep's loop bounds every rank: a per-edge width reaches
    # min(w_j, lead_j, n_{j+1} r_{j+1}), never more than clip_ranks gives
    # (an int width gives clip_ranks' bits: test_int_width_is_its_clipped_ranks).
    widths = data.draw(_edge_widths(shape, 40))
    rng = RngStream(seed)
    if sparse:
        x = gaussian_sparse(shape, min(5, int(np.prod(shape))), rng.substream(0))
    else:
        x = gaussian_dense(shape, rng.substream(0))
    t, report = randomized_tt_svd(x, widths, rng.substream(1))
    assert t.ranks == report.ranks == _loop_bound(shape, widths)
    assert all(r <= c for r, c in zip(t.ranks, clip_ranks(shape, widths)))


@given(shape=_SHAPES, data=st.data(), seed=_SEEDS)
@_SETTINGS
def test_targets_above_the_clip_change_no_bit(shape, data, seed):
    # The deterministic sweep and tt_round slice each rank at the rows and
    # columns of its unfolding, so per-edge targets above clip_ranks give
    # the bits the clipped targets give, for x and for an oversized train.
    above = data.draw(_edge_widths(shape, 30))
    clipped = clip_ranks(shape, above)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    oversized = TTTensor([rng.standard_normal(dims) for dims in core_shapes(
        shape, data.draw(_edge_widths(shape, 9)))])
    for fn, arg in ((lambda a, r: tt_svd_truncated(a, r)[0], x), (tt_round, oversized)):
        a, b = fn(arg, above), fn(arg, clipped)
        assert a.ranks == b.ranks
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca.view(np.uint64), cb.view(np.uint64))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_widths_past_the_leading_rows_clamp_there(sparse):
    # (2, 3, 4, 3) at widths (30, 30, 30): the unfoldings at the three edges
    # have 2, 6 and 3 rows or columns at most, so no edge holds more, the
    # first core is 2 x 2 and the int width 30 gives the same bits.
    x = np.random.default_rng(0).standard_normal((2, 3, 4, 3))
    x[x < -0.5] = 0.0
    if sparse:
        idx = np.argwhere(x)
        x = SparseTensor(x.shape, idx, x[tuple(idx.T)])
    t, _ = randomized_tt_svd(x, (30, 30, 30), RngStream(1))
    assert t.ranks == (2, 6, 3)
    assert t.cores[0].shape == (2, 2)
    assert relative_error(x, t) <= 1e-12
    for ca, cb in zip(t.cores, randomized_tt_svd(x, 30, RngStream(1))[0].cores):
        assert np.array_equal(ca, cb)


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), rank=st.integers(1, 7), seed=_SEEDS)
@_SETTINGS
def test_order_two_dense_and_sparse(name, call, n1, n2, rank, seed):
    # Matrices pass every door; a sparse matrix gives the dense one's train
    # (the sweeps densify it, the sketch draws the same Gaussians).
    rng = RngStream(seed)
    xs = gaussian_sparse((n1, n2), min(4, n1 * n2), rng.substream(0))
    x = xs.to_dense()
    t, report = call(x, rank, seed)
    ts, report_s = call(xs, rank, seed)
    _check_report(name, False, t, report, 2)
    _check_report(name, False, ts, report_s, 2)
    assert report_s.ranks == report.ranks
    assert np.allclose(tt_evaluate(ts), tt_evaluate(t), rtol=0.0, atol=1e-12)
    if name in _SWEEPS:
        assert report_s.discarded_energy == report.discarded_energy
        for cs, cd in zip(ts.cores, t.cores):
            assert np.array_equal(cs, cd)


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
@pytest.mark.parametrize("form", ["dense", "sparse-empty", "sparse-zero-values"])
@given(shape=_SHAPES, rank=st.integers(1, 4), seed=_SEEDS)
@_SETTINGS
def test_zero_input_is_degenerate(name, call, form, shape, rank, seed):
    if form == "dense":
        x = np.zeros(shape)
    else:
        x = _zero_sparse(shape, 0 if form == "sparse-empty" else 5)
    t, report = call(x, rank, seed)
    _check_report(name, True, t, report, len(shape))
    assert t.ranks == (1,) * (len(shape) - 1)
    assert t.shape == shape
    assert all(not core.any() for core in t.cores)


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize("call", [
    lambda x, r: tt_svd_truncated(x, r),
    lambda x, r: randomized_tt_svd(x, r, RngStream(3)),
], ids=["truncated", "randomized"])
@given(shape=_SHAPES, rank=st.sampled_from([2.5, 0.5, (1.5,), 0, -1]))
@_SETTINGS
def test_bad_ranks_rejected_on_zero_input(call, form, shape, rank):
    # Parameters are checked before the zero short cut.
    x = np.zeros(shape) if form == "dense" else _zero_sparse(shape, 0)
    if isinstance(rank, tuple):
        rank = rank * (len(shape) - 1)
    with pytest.raises(ValueError, match="integers|positive"):
        call(x, rank)


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize("rel_tol", [-1e-3, float("nan")])
def test_bad_tolerance_rejected_on_zero_input(form, rel_tol):
    x = np.zeros((3, 2, 4)) if form == "dense" else _zero_sparse((3, 2, 4), 0)
    with pytest.raises(ValueError, match="tolerance"):
        tt_svd_exact(x, rel_tol)


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
def test_complex_input_rejected(name, call):
    # Never the decomposition of the real part alone, nor the zero train of
    # a purely imaginary input.
    for x in (np.ones((2, 3, 4)) * (1 + 2j), np.ones((2, 3)) * 2j):
        with pytest.raises(ValueError, match="tensor entries must be real"):
            call(x, 2, 0)


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
@pytest.mark.parametrize("x", [
    np.zeros(4), np.ones(3), np.float64(0.0), SparseTensor((5,), [[1]], [2.0]),
], ids=["zero-vector", "vector", "scalar", "sparse-vector"])
def test_order_below_two_rejected(name, call, x):
    with pytest.raises(ValueError, match="decomposition needs order >= 2"):
        call(x, 2, 0)
