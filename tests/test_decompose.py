"""Deterministic and randomized decompositions against frozen oracles."""

import math
import warnings

import numpy as np
import pytest

import oracles as o
from ttsketch import (
    RngStream, SparseTensor, TTTensor, clip_ranks, compute_eta,
    gaussian_dense, gaussian_sparse, random_tt, randomized_tt_svd,
    relative_error, success_probability,
    tt_evaluate, tt_norm, tt_svd_exact, tt_svd_truncated, zero_tt,
)
from ttsketch.experiments import ExperimentConfig, resolve_config
from ttsketch.generators import decay_values
from ttsketch.linalg import numerical_rank
from ttsketch.tt import right_unfold

ETA_10_5 = 7.653622860886378     # frozen: 1 + sqrt(24) + e*sqrt(15)/6
ETA_12_4_2_3 = 26.047752776603417  # frozen from 60-digit evaluation


# ---------------------------------------------------------------------------
# deterministic sweep

def test_exact_rank_one_outer():
    v = np.array([1.0, 2.0])
    x = np.einsum("i,j,k->ijk", v, v, v)
    t, report = tt_svd_exact(x)
    assert t.ranks == (1, 1)
    assert relative_error(x, t) < 1e-13
    assert not report.degenerate


def test_exact_matrix_case_is_svd_rank():
    rng = RngStream(51)
    a = rng.substream(0).normals((6, 3)) @ rng.substream(1).normals((3, 8))
    t, report = tt_svd_exact(a)
    assert report.ranks == (np.linalg.matrix_rank(a),)
    assert relative_error(a, t) < 1e-12


def test_exact_recovers_generated_train():
    x = tt_evaluate(random_tt((3, 3, 3, 3, 3), 2, RngStream(52)))
    t, report = tt_svd_exact(x)
    assert report.ranks == (2, 2, 2, 2)
    assert relative_error(x, t) <= 1e-11
    assert t.ortho == "left"


def test_truncated_exact_ranks_zero_error():
    x = tt_evaluate(random_tt((3, 4, 3), 2, RngStream(53)))
    t, report = tt_svd_truncated(x, 2)
    assert relative_error(x, t) < 1e-12
    assert all(e < 1e-20 for e in report.discarded_energy)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_relative_error_of_finite_input_far_from_one(scale):
    # ||x||^2 overflowed at 1e200 (the error read nan) and underflowed to 0
    # at 1e-170 (it raised the zero-tensor error); scaled by a power of two
    # the true value 1/sqrt(2) comes out.
    x = np.diag([scale, scale])
    t, _ = tt_svd_truncated(x, 1)
    assert relative_error(x, t) == pytest.approx(1 / math.sqrt(2), rel=1e-14)


def test_truncated_cut_too_large_for_a_float_is_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, report = tt_svd_truncated(np.diag([1e200, 1e200]), 1)
    assert report.discarded_energy == (np.inf,)
    assert t.ranks == (1,)
    assert np.array_equal(tt_evaluate(t), np.diag([1e200, 0.0]))


def test_relative_error_in_range_keeps_its_bits():
    # A product with a power of two is exact, so the scaled ratio is the
    # unscaled one, bit for bit.
    for seed, scale in enumerate([1.0, 3.0e5, 7.0e-9]):
        x = scale * gaussian_dense((3, 4, 5), RngStream(seed))
        t, _ = tt_svd_truncated(x, 2)
        y = tt_evaluate(t)
        want = float(np.linalg.norm((x - y).ravel()) / np.linalg.norm(x.ravel()))
        assert relative_error(x, t) == want


def test_truncated_matrix_eckart_young():
    a = gaussian_dense((8, 6), RngStream(54))
    t, _ = tt_svd_truncated(a, 3)
    s = np.linalg.svd(a, compute_uv=False)
    want = math.sqrt(np.sum(s[3:] ** 2))
    got = relative_error(a, t) * np.linalg.norm(a)
    assert abs(got - want) < 1e-10


def test_truncated_quasi_optimality_window():
    # error between the largest single unfolding tail and the
    # sqrt(d-1)-inflated root-sum-square of all tails
    rng = RngStream(55)
    for trial in range(5):
        x = gaussian_dense((3, 4, 2, 3), rng.substream(trial))
        t, _ = tt_svd_truncated(x, 2)
        err = relative_error(x, t) * np.linalg.norm(x.ravel())
        tails = o.unfolding_tails(x, clip_ranks(x.shape, 2))
        assert err >= max(tails) - 1e-10
        assert err <= math.sqrt(len(tails)) * math.sqrt(sum(v**2 for v in tails)) + 1e-10


def test_truncated_discarded_energy_accounts_error():
    x = gaussian_dense((4, 4, 4), RngStream(56))
    t, report = tt_svd_truncated(x, 2)
    err2 = (relative_error(x, t) * np.linalg.norm(x.ravel())) ** 2
    assert err2 <= sum(report.discarded_energy) + 1e-10


def _exact_rank_cases():
    # Orders 2-6 with random modes and ranks, then shapes with tall
    # unfoldings: order 2 both ways, a tall first unfolding.
    rng = RngStream(57)
    cases = []
    for trial in range(32):
        d = 2 + trial % 5
        modes = rng.substream(trial, 0).index_draws(1, [4] * d)[0]
        cases.append((tuple(int(n) + 2 for n in modes), 1 + trial % 4))
    cases += [((9, 3), 2), ((3, 9), 2), ((12, 2, 2), 3), ((20, 3, 2, 2), 4),
              ((2, 2, 12), 3)]
    return [pytest.param(shape, rank, trial,
                         id="x".join(map(str, shape)) + f"-r{rank}")
            for trial, (shape, rank) in enumerate(cases)]


@pytest.mark.parametrize("shape, rank, trial", _exact_rank_cases())
def test_exact_sweep_matches_full_svd_sweep(shape, rank, trial):
    x = tt_evaluate(random_tt(shape, rank, RngStream(57).substream(trial, 1)))
    t, report = tt_svd_exact(x)
    want, want_report = o.ref_svd_sweep(x, lambda s, _i: numerical_rank(s, 1e-12))
    assert report.ranks == want_report.ranks == t.ranks
    assert t.ortho == "left"
    assert relative_error(x, t) <= 1e-11
    assert np.linalg.norm(tt_evaluate(t) - tt_evaluate(want)) <= 1e-11 * np.linalg.norm(x)


@pytest.mark.parametrize("shape", [(9, 3), (3, 9), (12, 2, 2), (3, 4, 5, 2), (4,) * 6],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_truncated_sweep_matches_full_svd_sweep(shape, rank):
    x = gaussian_dense(shape, RngStream(58).substream(rank))
    target = clip_ranks(shape, rank)
    t, report = tt_svd_truncated(x, rank)
    want, want_report = o.ref_svd_sweep(x, lambda s, i: target[i])
    assert report.ranks == want_report.ranks == target
    # Discarded energies on the scale they share, the energy of x.
    energy = float(np.sum(x * x))
    got = np.array(report.discarded_energy)
    assert np.max(np.abs(got - want_report.discarded_energy)) <= 1e-12 * energy
    assert np.linalg.norm(tt_evaluate(t) - tt_evaluate(want)) <= 1e-10 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# eta and probability bounds

def test_eta_frozen_values():
    assert abs(compute_eta(10, 5) - ETA_10_5) < 1e-12
    assert abs(compute_eta(10, 5) - 7.6535) < 1e-3
    assert abs(compute_eta(12, 4, t=2.0, u=3.0) - ETA_12_4_2_3) < 1e-12


def test_eta_high_precision_cross_check():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    want = (1 + 2 * mp.sqrt(mp.mpf(12) * 12 / 4)
            + 3 * 2 * mp.e * mp.sqrt(mp.mpf(16)) / 5)
    assert abs(compute_eta(12, 4, t=2.0, u=3.0) - float(want)) < 1e-12


def test_eta_scales_linearly_in_t():
    base = compute_eta(8, 6, t=1.0, u=1.0)
    big = compute_eta(8, 6, t=10.0, u=1.0)
    assert abs((big - 1.0) - 10.0 * (base - 1.0)) < 1e-10


def test_eta_domain():
    with pytest.raises(ValueError):
        compute_eta(10, 3)
    with pytest.raises(ValueError):
        compute_eta(0, 5)
    with pytest.raises(ValueError):
        compute_eta(10, 5, t=0.5)


def test_success_probability():
    single = 1.0 - 5.0 * 2.0**-6 - 2.0 * math.exp(-2.0)
    assert abs(success_probability(6, t=2.0, u=2.0) - single) < 1e-14
    assert abs(success_probability(6, t=2.0, u=2.0, steps=3) - single**3) < 1e-14
    assert success_probability(4, t=1.0, u=1.0) == 0.0  # clamped at zero
    assert success_probability(4, steps=0) == 1.0  # no step can fail
    # A negative count would give a bound above 1, or divide by zero once
    # the single-step bound is clamped at zero.
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        success_probability(10, t=2.0, u=3.0, steps=-1)
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        success_probability(4, steps=-1)
    # Below p = 4 the bound does not hold; it read 0.0 at p = -1 and about
    # 0.93 at p = 2, t = 10, u = 3.
    for p in (-1, 0, 2, 3):
        with pytest.raises(ValueError, match="oversampling >= 4"):
            success_probability(p, t=10.0, u=3.0)


# ---------------------------------------------------------------------------
# range finder: the matrix case of the randomized sweep, on the row space

def _row_range_residual(a, width, stream):
    q = randomized_tt_svd(a, width, stream)[0].cores[1]
    return np.linalg.norm(a - (a @ q.T) @ q)


def test_range_finder_exact_rank_one():
    rng = RngStream(61)
    a = np.outer(rng.substream(0).normals(9), rng.substream(1).normals(7))
    assert _row_range_residual(a, 3, rng.substream(2)) <= 1e-12 * np.linalg.norm(a)


def test_range_finder_projector_capture():
    rng = RngStream(62)
    basis, _ = np.linalg.qr(rng.normals((10, 3)))
    a = basis @ basis.T  # orthogonal projector of rank 3
    assert _row_range_residual(a, 7, rng.substream(1)) < 1e-12


def test_range_finder_frobenius_bound_small_matrix():
    # two-term tail bound at t = u = 1 on a fixed decaying spectrum;
    # expected to hold in >= 90 of 100 trials.  a and a^T share their
    # singular values, so the bound holds for the row space alike.
    sigma = 2.0 ** -np.arange(16, dtype=np.float64)
    rng = RngStream(63)
    ub, _ = np.linalg.qr(rng.substream(0).normals((16, 16)))
    vb, _ = np.linalg.qr(rng.substream(1).normals((16, 16)))
    a = ub @ np.diag(sigma) @ vb.T
    r, p = 4, 4
    tail = math.sqrt(np.sum(sigma[r:] ** 2))
    bound = (1 + math.sqrt(12.0 * r / p)) * tail \
        + math.e * math.sqrt(r + p) / (p + 1) * sigma[r]
    hits = sum(_row_range_residual(a, r + p, rng.substream(2, trial)) <= bound
               for trial in range(100))
    assert hits >= 90


# ---------------------------------------------------------------------------
# randomized train decomposition

def test_randomized_exact_on_low_rank():
    rng = RngStream(64)
    x = tt_evaluate(random_tt((3, 4, 3, 4), 2, rng.substream(0)))
    t, report = randomized_tt_svd(x, clip_ranks(x.shape, 2), rng.substream(1))
    assert relative_error(x, t) <= 1e-10
    assert t.ortho == "right"
    assert report.ranks == t.ranks


def test_randomized_right_orthogonal_cores():
    rng = RngStream(65)
    x = gaussian_dense((3, 4, 3, 4), rng.substream(0))
    t, _ = randomized_tt_svd(x, clip_ranks(x.shape, 3), rng.substream(1))
    for core in t.cores[1:]:
        m = right_unfold(core)
        assert np.linalg.norm(m @ m.T - np.eye(m.shape[0])) < 1e-12


def test_randomized_is_orthogonal_projection():
    # first core equals the target contracted against the orthonormal
    # tail chain, and the Pythagoras split holds
    rng = RngStream(66)
    x = gaussian_dense((3, 3, 3, 3), rng.substream(0))
    t, _ = randomized_tt_svd(x, clip_ranks(x.shape, 2), rng.substream(1))
    chain = t.cores[-1].T
    for core in reversed(t.cores[1:-1]):
        folded = np.tensordot(core, chain, axes=([2], [1]))
        chain = folded.transpose(1, 2, 0).reshape(-1, core.shape[0])
    assert np.linalg.norm(chain.T @ chain - np.eye(chain.shape[1])) < 1e-12
    w1 = x.reshape(x.shape[0], -1) @ chain
    assert np.linalg.norm(w1 - t.cores[0]) < 1e-11
    y = tt_evaluate(t)
    lhs = np.linalg.norm(x.ravel()) ** 2
    rhs = np.linalg.norm(y.ravel()) ** 2 + np.linalg.norm((x - y).ravel()) ** 2
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_randomized_matrix_case_matches_range_finder():
    # For matrices the sketch step is the range finder of x.T whose test
    # matrix is the sketch's draw (row k at the code of row i of x), so
    # both project onto the same subspace.
    rng = RngStream(67)
    x = gaussian_dense((8, 6), rng.substream(0))
    seed = rng.substream(1)
    t, _ = randomized_tt_svd(x, (3,), seed)
    g = o.ref_sketch_rows_vec(seed.substream(2).key, o.ref_level_codes_vec((8,)), 3)
    q, _ = np.linalg.qr(x.T @ g.T)
    p_tt = t.cores[1].T @ t.cores[1]
    p_rf = q @ q.T
    assert np.linalg.norm(p_tt - p_rf) < 1e-10
    err_tt = np.linalg.norm(x - tt_evaluate(t))
    err_rf = np.linalg.norm(x.T - q @ (q.T @ x.T))
    assert abs(err_tt - err_rf) < 1e-10


def test_randomized_report_wall_time():
    x = gaussian_dense((3, 3, 3), RngStream(69).substream(0))
    _, report = randomized_tt_svd(
        x, clip_ranks(x.shape, 4), RngStream(69).substream(1)
    )
    assert report.wall_time_s > 0.0


# ---------------------------------------------------------------------------
# zero input, at every entry point

def _empty_sparse(shape):
    return SparseTensor(shape, np.empty((0, len(shape)), dtype=np.int64), [])


@pytest.mark.parametrize(
    "shape", [(3, 2), (2, 3, 2), (3, 3, 3), (2, 3, 2, 4)],
    ids=lambda shape: "x".join(map(str, shape)),
)
@pytest.mark.parametrize("decompose", [
    lambda shape: tt_svd_exact(np.zeros(shape)),
    lambda shape: tt_svd_truncated(np.zeros(shape), 2),
    lambda shape: randomized_tt_svd(np.zeros(shape), 2, RngStream(68)),
    lambda shape: randomized_tt_svd(_empty_sparse(shape), 2, RngStream(5)),
], ids=["exact", "truncated", "randomized-dense", "randomized-sparse"])
def test_zero_input_gives_zero_train(decompose, shape):
    t, report = decompose(shape)
    d = len(shape)
    assert report.ranks == (1,) * (d - 1)
    assert t.ranks == (1,) * (d - 1)
    assert report.degenerate
    assert report.discarded_energy == ()
    assert t.shape == shape
    assert all(not core.any() for core in t.cores)
    assert np.all(tt_evaluate(t) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("decompose", [
    lambda x: tt_svd_exact(x),
    lambda x: tt_svd_truncated(x, 2),
    lambda x: randomized_tt_svd(x, 2, RngStream(72)),
], ids=["exact", "truncated", "randomized"])
def test_non_finite_dense_input_rejected(decompose, bad):
    x = np.ones((3, 4, 2))
    x[2, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        decompose(x)


@pytest.mark.parametrize("entries, degenerate", [
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], True),
    ([-0.0, -0.0, -0.0, -0.0, -0.0, -0.0], True),
    ([0.0, -0.0, 0.0, -0.0, -0.0, 0.0], True),
    ([0.0, 0.0, 5e-324, 0.0, 0.0, 0.0], False),
    ([0.0, 0.0, 0.0, 0.0, 0.0, -5e-324], False),
    ([0.0, np.nan, 0.0, 0.0, 0.0, 0.0], None),
    ([-0.0, 0.0, 0.0, np.inf, 0.0, 0.0], None),
    ([0.0, 0.0, 0.0, 0.0, -np.inf, 0.0], None),
    ([np.inf, -np.inf, 0.0, 0.0, 0.0, 0.0], None),
    ([1.0, np.nan, -1.0, 0.0, 0.0, 0.0], None),
], ids=["zero", "negative-zero", "signed-zeros", "subnormal", "negative-subnormal",
        "nan-among-zeros", "inf-among-zeros", "minus-inf-among-zeros", "both-infs",
        "nan-among-values"])
@pytest.mark.parametrize("decompose", [
    lambda x: tt_svd_exact(x),
    lambda x: tt_svd_truncated(x, 2),
    lambda x: randomized_tt_svd(x, 2, RngStream(72)),
], ids=["exact", "truncated", "randomized"])
def test_admission_tells_zero_from_non_finite(decompose, entries, degenerate):
    # One min and one max decide both: a tensor of zeros of either sign is
    # degenerate, any NaN or inf is refused, whatever else is stored.
    x = np.array(entries).reshape(3, 2)
    if degenerate is None:
        with pytest.raises(ValueError, match="dense tensor entries must be finite"):
            decompose(x)
    else:
        _, report = decompose(x)
        assert report.degenerate == degenerate


def test_nan_relative_tolerance_rejected():
    x = gaussian_dense((3, 4, 5), RngStream(73))
    with pytest.raises(ValueError, match="tolerance"):
        tt_svd_exact(x, float("nan"))


@pytest.mark.parametrize("decompose", [
    lambda x, r: tt_svd_truncated(x, r),
    lambda x, r: randomized_tt_svd(x, r, RngStream(74)),
], ids=["truncated", "randomized"])
def test_fractional_ranks_rejected(decompose):
    x = gaussian_dense((3, 4, 5), RngStream(75))
    for ranks in (2.7, (2, 2.5), np.array([2.0, 1.5]), np.array(2.5)):
        with pytest.raises(ValueError, match="integers"):
            decompose(x, ranks)
    # a 0-d array is one value, like a numpy scalar
    for ranks in (2, np.int64(2), (np.int32(2), 2), np.array([2, 2]), np.array(2)):
        t, report = decompose(x, ranks)
        assert report.ranks == t.ranks == (2, 2)


def test_fractional_counts_rejected():
    for call in (
        lambda: compute_eta(10.7, 5.9),
        lambda: compute_eta(10, 5.5),
        lambda: success_probability(4.5),
        lambda: success_probability(5, steps=1.5),
        lambda: RngStream(0).normals((2.5, 1)),
        lambda: RngStream(0).normals(2.7),
        lambda: RngStream(0).normals(np.array(2.7)),
        lambda: gaussian_dense((3, 2.5), RngStream(0)),
        lambda: gaussian_sparse((4, 4), 2.5, RngStream(0)),
        lambda: decay_values(4, 1.0, 2.5),
        lambda: decay_values(4.5, 1.0, 2),
        lambda: RngStream(0).index_draws(2.5, [3]),
        lambda: RngStream(0).substream(1.5),
        lambda: RngStream(2.5),
        lambda: o.matricize(np.ones((2, 3)), (0.5,)),
        lambda: o.contract(np.ones((2, 3)), (1.5,), np.ones((3, 2)), (0,)),
        lambda: resolve_config(ExperimentConfig("order", d=4.5)),
        lambda: resolve_config(ExperimentConfig("oversampling", p=2.7)),
        lambda: resolve_config(ExperimentConfig("runtime", samples=2.5)),
    ):
        with pytest.raises(ValueError, match="integers"):
            call()
    # integral values of any integer or float type still pass
    assert compute_eta(10.0, np.int32(5)) == compute_eta(10, 5)
    assert success_probability(6.0, steps=2.0) == success_probability(6, steps=2)
    assert np.array_equal(RngStream(0).normals(3.0), RngStream(0).normals(3))
    assert np.array_equal(RngStream(0).normals(np.array(3)), RngStream(0).normals(3))
    assert np.array_equal(decay_values(4.0, 1.0, np.int64(2)), decay_values(4, 1.0, 2))
    assert np.array_equal(RngStream(0).index_draws(np.int64(2), [3]),
                          RngStream(0).index_draws(2, [3]))
    assert RngStream(0).substream(1.0).key == RngStream(0).substream(1).key
    assert RngStream(np.int32(2)).key == RngStream(2.0).key == RngStream(2).key
    assert np.array_equal(o.matricize(np.ones((2, 3)), (np.int64(1),)), np.ones((3, 2)))
    assert resolve_config(ExperimentConfig("order", d=4.0, samples=np.int64(3))) \
        == resolve_config(ExperimentConfig("order", d=4, samples=3))


@pytest.mark.parametrize("call", [
    lambda: compute_eta(10, 5, t=math.nan),
    lambda: compute_eta(10, 5, u=math.nan),
    lambda: success_probability(5, t=math.nan),
    lambda: success_probability(5, u=math.nan),
], ids=["eta-t", "eta-u", "probability-t", "probability-u"])
def test_eta_parameters_nan_rejected(call):
    with pytest.raises(ValueError, match="t and u must be at least 1"):
        call()


def test_randomized_error_never_exceeds_norm():
    rng = RngStream(70)
    for trial in range(5):
        x = gaussian_dense((3, 4, 3), rng.substream(trial, 0))
        t, _ = randomized_tt_svd(x, (2, 2), rng.substream(trial, 1))
        assert relative_error(x, t) <= 1.0 + 1e-12


def _binary_energy_lost(d, seed):
    # 10 stored entries have TT rank <= 10, so width 20 must be exact, and
    # an exact projection keeps all of the energy.
    rng = RngStream(seed)
    xs = gaussian_sparse((2,) * d, 10, rng.substream(0))
    t, _ = randomized_tt_svd(xs, clip_ranks(xs.shape, 20), rng.substream(1))
    return 1.0 - tt_norm(t) ** 2 / np.sum(xs.values ** 2)


def test_sparse_binary_order_60_exact():
    for seed in range(5):
        assert abs(_binary_energy_lost(60, seed)) < 1e-12


def test_sparse_binary_order_80_exact():
    # Each sketch row reads its own substream, so rows cannot repeat however
    # many leading positions a step has (2**79 at order 80).
    for seed in range(5):
        assert abs(_binary_energy_lost(80, seed)) < 1e-12


@pytest.mark.parametrize("d", [68, 90])
def test_sparse_binary_class_b_exact(d):
    # Eight entries of TT rank <= 8 at width 10: exact, although their
    # row-major positions agree mod 2**64 in many prefixes (chained prefix
    # codes do not).
    xs = o.binary_class_b(d)
    for seed in range(3):
        t, _ = randomized_tt_svd(xs, clip_ranks(xs.shape, 10), RngStream(seed))
        assert abs(1.0 - tt_norm(t) ** 2 / np.sum(xs.values ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# relative error

def test_relative_error_trivials():
    x = tt_evaluate(random_tt((3, 3, 3), 2, RngStream(71)))
    t, _ = tt_svd_exact(x)
    assert relative_error(x, t) < 1e-13
    assert abs(relative_error(x, zero_tt(x.shape)) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), zero_tt((2, 2)))


def test_relative_error_refuses_complex_input():
    # Cast to float64, the real part alone would read an error of 2.8e-16.
    t, _ = tt_svd_truncated(np.ones((2, 3)), 1)
    with pytest.raises(ValueError, match="tensor entries must be real"):
        relative_error(np.ones((2, 3)) * (1 + 1j), t)


def test_relative_error_checks_shapes_before_evaluating(monkeypatch):
    x = np.ones((3, 4, 5))
    # 2**64 elements: no dense evaluation is even addressable
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_error(x, zero_tt((2 ** 16,) * 4))
    # 2**30 elements, 8 GB once evaluated: the mismatch must be found first
    monkeypatch.setattr(
        "ttsketch.decompose.tt_evaluate",
        lambda t: pytest.fail("relative_error evaluated a mismatched train"),
    )
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_error(x, zero_tt((2 ** 10,) * 3))


def test_relative_error_densifies_sparse_input():
    xs = gaussian_sparse((3, 4, 5), 20, RngStream(73))
    t, _ = randomized_tt_svd(xs, 2, RngStream(74))
    assert relative_error(xs, t) == relative_error(xs.to_dense(), t)
    # A sparse input past 2**40 elements raises the dense limit, like the
    # deterministic sweeps, before anything is evaluated.
    big = SparseTensor((2 ** 16,) * 4, [[0, 1, 2, 3]], [1.0])
    with pytest.raises(ValueError, match="limit of 2\\*\\*40"):
        relative_error(big, zero_tt(big.shape))


def test_relative_error_orthogonal_residual():
    # x = y + e with e orthogonal to y, ||e|| = 0.3, ||x|| = 2 -> 0.15
    rng = RngStream(72)
    a, b = rng.substream(0).normals(4), rng.substream(1).normals(4)
    y = np.outer(a, b)
    y *= math.sqrt(4.0 - 0.09) / np.linalg.norm(y)
    e = rng.substream(2).normals((4, 4))
    e -= (np.sum(e * y) / np.sum(y * y)) * y
    e *= 0.3 / np.linalg.norm(e)
    x = y + e
    t = TTTensor([a[:, None] * math.sqrt(4.0 - 0.09) / (np.linalg.norm(a) * np.linalg.norm(b)),
                  b[None, :]])
    assert np.linalg.norm(tt_evaluate(t) - y) < 1e-12
    assert abs(relative_error(x, t) - 0.15) < 1e-12
