"""Experiment driver: grids, determinism, CSV contract."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import RngStream, SparseTensor

from ttsketch.experiments import (
    CSV_COLUMNS, CSV_VERSION, EXPERIMENT_NAMES, ExperimentConfig, NOISE_GRID,
    ORDER_GRID,
    OVERSAMPLING_GRID, RUNTIME_GRID, _sparse_exact_count, read_csv,
    resolve_config, run_experiment, write_csv,
)

TINY = dict(d=4, n=3, r_star=2, r=2, samples=2)
STUDIES = (
    "noise", "oversampling", "oversampling-decay",
    "order", "order-decay", "runtime", "als",
)


def _csv_text(records):
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def _strip_times(text):
    rows = []
    for line in text.splitlines()[2:]:
        cells = line.split(",")
        rows.append(",".join(cells[:7]))
    return rows


def test_resolve_config_defaults():
    assert EXPERIMENT_NAMES == STUDIES
    cfg, grid = resolve_config(ExperimentConfig("noise"))
    assert (cfg.d, cfg.n, cfg.r_star, cfg.r, cfg.p) == (10, 4, 10, 10, 5)
    assert cfg.samples == 32
    assert grid == NOISE_GRID
    cfg, grid = resolve_config(ExperimentConfig("noise", tau=0.05))
    assert grid == (0.05,)
    cfg, grid = resolve_config(ExperimentConfig("oversampling-decay"))
    assert grid == OVERSAMPLING_GRID
    assert (cfg.r_star, cfg.decay_exp, cfg.cutoff) == (64, 2.0, 250)
    cfg, grid = resolve_config(ExperimentConfig("order"))
    assert grid == ORDER_GRID
    cfg, grid = resolve_config(ExperimentConfig("runtime"))
    assert grid == RUNTIME_GRID and cfg.n == 2 and cfg.nnz == 500
    cfg, grid = resolve_config(ExperimentConfig("als"))
    assert cfg.samples == 16
    cfg, grid = resolve_config(ExperimentConfig("noise", full_scale=True))
    assert cfg.samples == 256
    with pytest.raises(ValueError):
        resolve_config(ExperimentConfig("unknown"))
    for name in ("noise", "oversampling", "als"):
        with pytest.raises(ValueError, match="oversampling must be nonnegative"):
            resolve_config(ExperimentConfig(name, p=-1))
    cfg, grid = resolve_config(ExperimentConfig("oversampling", p=0))
    assert grid == (0,)


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("name", ["noise", "runtime", "als"])
def test_resolve_config_rejects_nonpositive_samples(name, samples):
    with pytest.raises(ValueError, match="samples must be positive"):
        resolve_config(ExperimentConfig(name, samples=samples))


@pytest.mark.parametrize("fixed", [
    {}, {"full_scale": True}, {"full_scale": True, "samples": 3},
    {"d": 5}, {"d": 5, "full_scale": True}, {"p": 3}, {"p": 0},
    {"tau": 0.03}, {"tau": 0}, {"tau": 0, "p": 0, "d": 4},
], ids=lambda fixed: (
    ",".join(f"{k}={v}" for k, v in fixed.items()) or "defaults"))
@pytest.mark.parametrize("name", STUDIES)
def test_resolve_config_matches_if_chain(name, fixed):
    cfg, grid = resolve_config(ExperimentConfig(name, **fixed))
    want_cfg, want_grid = o.ref_resolve_config(ExperimentConfig(name, **fixed))
    assert cfg == want_cfg
    assert grid == want_grid
    assert [type(g) for g in grid] == [type(g) for g in want_grid]


def test_noise_experiment_deterministic_modulo_times():
    cfg = ExperimentConfig("noise", tau=0.05, seed=7, **TINY)
    a = _csv_text(run_experiment(cfg))
    b = _csv_text(run_experiment(cfg))
    assert _strip_times(a) == _strip_times(b)
    assert a.splitlines()[0] == CSV_VERSION
    assert a.splitlines()[1] == ",".join(CSV_COLUMNS)


def test_records_consistent_and_ratio_recomputable():
    cfg = ExperimentConfig("noise", tau=0.03, seed=8, **TINY)
    records = run_experiment(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.experiment == "noise"
        assert rec.param == 0.03
        assert rec.eps_det > 0 and rec.eps_rnd > 0
        assert abs(rec.ratio - rec.eps_rnd / rec.eps_det) < 1e-15
        assert rec.t_rnd_ms > 0 and rec.t_det_ms > 0


def test_workers_reproduce_serial_run():
    cfg = ExperimentConfig("noise", tau=0.02, seed=9, **TINY)
    serial = _csv_text(run_experiment(cfg))
    threaded = _csv_text(run_experiment(
        ExperimentConfig("noise", tau=0.02, seed=9, workers=3, **TINY)
    ))
    assert _strip_times(serial) == _strip_times(threaded)


def test_csv_round_trip():
    cfg = ExperimentConfig("oversampling", p=2, seed=10, tau=0.05, **TINY)
    records = run_experiment(cfg)
    text = _csv_text(records)
    back = read_csv(io.StringIO(text))
    assert len(back) == len(records)
    for x, y in zip(records, back):
        assert (x.experiment, x.sample, x.seed) == (y.experiment, y.sample, y.seed)
        assert x.eps_det == y.eps_det and x.eps_rnd == y.eps_rnd
    with pytest.raises(ValueError):
        read_csv(io.StringIO("# wrong version\n"))
    short = "\n".join(text.splitlines()[:2] + ["noise,0,10,2,0.5"]) + "\n"
    with pytest.raises(ValueError, match="line 3: expected 9 cells, got 5"):
        read_csv(io.StringIO(short))


def test_runtime_experiment_rows():
    cfg = ExperimentConfig("runtime", d=8, nnz=40, r=3, p=2, samples=2, seed=11)
    records = run_experiment(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.t_rnd_ms > 0
        assert rec.t_det_ms is not None  # 2**8 is densifiable
        assert rec.eps_det is None
    text = _csv_text(records)
    row = text.splitlines()[2].split(",")
    assert row[4] == "" and row[5] == ""  # blank unset columns


@example((2, 2, 2), 8, 1)    # every position: redraws until all are seen
@example((2,) * 8, 40, 11)   # the runtime study's first shape
@given(st.sampled_from([(2, 2, 2), (3, 4), (2,) * 8, (2,) * 70]),
       st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_sparse_exact_count_matches_set_loop(shape, nnz, seed):
    stream = RngStream(seed)
    xs = _sparse_exact_count(shape, nnz, stream)
    want = nnz
    while (keep := o.ref_first_distinct(
            stream.substream(0).index_draws(want, shape), nnz)) is None:
        want *= 2
    ref = SparseTensor(shape, keep, stream.substream(1).normals(nnz))
    assert xs.nnz == nnz
    assert np.array_equal(xs.idx, ref.idx)
    assert np.array_equal(xs.values, ref.values)


def test_decay_experiment_runs():
    cfg = ExperimentConfig(
        "oversampling-decay", d=4, n=3, r_star=6, r=2, p=1,
        decay_exp=2.0, cutoff=10, samples=1, seed=12,
    )
    records = run_experiment(cfg)
    assert len(records) == 1
    assert records[0].eps_det > 0


def test_als_experiment_rows_paired():
    cfg = ExperimentConfig(
        "als", d=4, n=3, r_star=4, r=2, p=1,
        decay_exp=2.0, cutoff=10, samples=2, seed=13,
    )
    records = run_experiment(cfg)
    assert [r.experiment for r in records] == ["als", "als-rnd"] * 2
    for als_rec, rnd_rec in zip(records[0::2], records[1::2]):
        assert als_rec.eps_det == rnd_rec.eps_det  # same target, same sweep
        assert als_rec.sample == rnd_rec.sample
