"""Error-factor and runtime studies comparing the decomposition paths.

Each experiment sweeps one parameter over a grid, draws `samples`
independent targets per grid point, decomposes every target with the
deterministic sweep and with the randomized pipeline (sketch at rank
r+p, then deterministic truncation back to r), and records the relative
errors plus their ratio.  Per-sample streams are derived from the root
seed and the (grid point, sample) position, so every record is a pure
function of the configuration: rerunning a configuration reproduces the
CSV byte for byte except for the wall-time columns, and samples may be
computed in any order or in parallel.

Experiments:

  noise               exact rank-r* target plus scaled dense noise,
                      sweeping the noise level tau
  oversampling        noisy targets at fixed tau, sweeping p
  oversampling-decay  targets with polynomially decaying spectra, sweeping p
  order               noisy targets, sweeping the tensor order d
  order-decay         decaying-spectrum targets, sweeping d
  runtime             sparse targets, sweeping d; times the sketch path
                      (and the dense deterministic path while the dense
                      tensor stays small)
  als                 decaying-spectrum targets, sweeping p; runs the
                      ALS half sweep through the same truncation
                      pipeline and emits paired rows tagged "als" (the
                      eps_rnd column holds the ALS error) and "als-rnd"
                      (the usual randomized error on the same target)
"""

import csv
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .als import AlsConfig, als_half_sweep
from .decompose import randomized_tt_svd, relative_error, tt_svd_truncated
from .generators import noisy_low_rank, random_tt_decay
from .rng import RngStream
from .tensor import SparseTensor, element_count, sparse_to_dense
from .tt import clip_ranks, tt_evaluate, tt_round

CSV_VERSION = "# ttsketch csv v1"
CSV_COLUMNS = (
    "experiment", "sample", "seed", "param",
    "eps_det", "eps_rnd", "ratio", "t_rnd_ms", "t_det_ms",
)

EXPERIMENT_NAMES = (
    "noise", "oversampling", "oversampling-decay",
    "order", "order-decay", "runtime", "als",
)

NOISE_GRID = tuple(round(0.01 * i, 2) for i in range(11))
OVERSAMPLING_GRID = (0, 1, 2, 3, 5, 8, 12, 17, 25)
ORDER_GRID = tuple(range(4, 12))
ORDER_GRID_FULL = tuple(range(4, 14))
RUNTIME_GRID = (10, 20, 40, 60)

# Largest dense size the runtime experiment will densify for the
# deterministic reference timing.
RUNTIME_DENSE_LIMIT = 2 ** 20


@dataclass
class ExperimentConfig:
    """Knobs of one experiment run; unset fields take experiment defaults."""

    experiment: str
    d: int = None
    n: int = None
    r_star: int = None
    r: int = None
    p: int = None
    tau: float = None
    samples: int = None
    seed: int = 1
    nnz: int = None
    decay_exp: float = None
    cutoff: int = None
    full_scale: bool = False
    workers: int = 1


@dataclass
class SampleRecord:
    """One CSV row; times in milliseconds, unset fields written blank."""

    experiment: str
    sample: int
    seed: int
    param: float
    eps_det: float = None
    eps_rnd: float = None
    ratio: float = None
    t_rnd_ms: float = None
    t_det_ms: float = None


def _fill(cfg, **defaults):
    updates = {k: v for k, v in defaults.items() if getattr(cfg, k) is None}
    return replace(cfg, **updates)


def resolve_config(cfg):
    """Apply per-experiment defaults and build the parameter grid."""
    name = cfg.experiment
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}")
    if cfg.p is not None and cfg.p < 0:
        raise ValueError("oversampling must be nonnegative")
    base_samples = 256 if cfg.full_scale else 32
    if name == "noise":
        cfg = _fill(cfg, d=10, n=4, r_star=10, r=10, p=5, samples=base_samples)
        grid = NOISE_GRID if cfg.tau is None else (float(cfg.tau),)
    elif name == "oversampling":
        cfg = _fill(cfg, d=10, n=4, r_star=10, r=10, tau=0.05,
                    samples=base_samples)
        grid = OVERSAMPLING_GRID if cfg.p is None else (int(cfg.p),)
    elif name == "oversampling-decay":
        cfg = _fill(cfg, d=10, n=4, r_star=64, r=10, decay_exp=2.0,
                    cutoff=250, samples=base_samples)
        grid = OVERSAMPLING_GRID if cfg.p is None else (int(cfg.p),)
    elif name == "order":
        cfg = _fill(cfg, n=4, r_star=10, r=10, p=5, tau=0.05,
                    samples=base_samples)
        full = ORDER_GRID_FULL if cfg.full_scale else ORDER_GRID
        grid = full if cfg.d is None else (int(cfg.d),)
    elif name == "order-decay":
        cfg = _fill(cfg, n=4, r_star=64, r=10, p=5, decay_exp=2.0, cutoff=250,
                    samples=base_samples)
        full = ORDER_GRID_FULL if cfg.full_scale else ORDER_GRID
        grid = full if cfg.d is None else (int(cfg.d),)
    elif name == "runtime":
        cfg = _fill(cfg, n=2, r=10, p=10, nnz=500, samples=base_samples)
        grid = RUNTIME_GRID if cfg.d is None else (int(cfg.d),)
    else:  # als
        cfg = _fill(cfg, d=10, n=4, r_star=64, r=10, decay_exp=2.0,
                    cutoff=250, samples=16 if not cfg.full_scale else 256)
        grid = OVERSAMPLING_GRID if cfg.p is None else (int(cfg.p),)
    return cfg, grid


def _noisy_target(cfg, tau, stream):
    shape = (cfg.n,) * cfg.d
    return noisy_low_rank(shape, cfg.r_star, tau, stream)


def _decay_target(cfg, d, stream):
    shape = (cfg.n,) * d
    t = random_tt_decay(shape, cfg.r_star, cfg.decay_exp, cfg.cutoff, stream)
    return tt_evaluate(t)


def _both_errors(x, r, p, stream):
    shape = x.shape
    t0 = time.perf_counter()
    y_det, _ = tt_svd_truncated(x, r)
    t_det = 1e3 * (time.perf_counter() - t0)
    eps_det = relative_error(x, y_det)
    t0 = time.perf_counter()
    y_sketch, _ = randomized_tt_svd(x, clip_ranks(shape, r + p), stream)
    y_rnd = tt_round(y_sketch, r)
    t_rnd = 1e3 * (time.perf_counter() - t0)
    eps_rnd = relative_error(x, y_rnd)
    ratio = eps_rnd / eps_det if eps_det > 0 else math.nan
    return eps_det, eps_rnd, ratio, t_rnd, t_det


def _error_sample(cfg, name, param, sample_idx, stream):
    if name == "noise":
        x = _noisy_target(cfg, param, stream.substream(0))
        p = cfg.p
    elif name == "oversampling":
        x = _noisy_target(cfg, cfg.tau, stream.substream(0))
        p = int(param)
    elif name == "oversampling-decay":
        x = _decay_target(cfg, cfg.d, stream.substream(0))
        p = int(param)
    elif name == "order":
        cfg = replace(cfg, d=int(param))
        x = _noisy_target(cfg, cfg.tau, stream.substream(0))
        p = cfg.p
    else:  # order-decay
        x = _decay_target(cfg, int(param), stream.substream(0))
        p = cfg.p
    eps_det, eps_rnd, ratio, t_rnd, t_det = _both_errors(
        x, cfg.r, p, stream.substream(1)
    )
    return [SampleRecord(
        experiment=name, sample=sample_idx, seed=cfg.seed, param=param,
        eps_det=eps_det, eps_rnd=eps_rnd, ratio=ratio,
        t_rnd_ms=t_rnd, t_det_ms=t_det,
    )]


def _sparse_exact_count(shape, nnz, stream):
    """Sparse Gaussian tensor with exactly nnz distinct positions.

    The runtime study fixes the stored-entry count, and the sketch cost
    is proportional to it, so colliding position draws are skipped and
    redrawn (deterministically: the first nnz distinct index tuples of
    the stream) instead of merged.
    """
    total = element_count(shape)
    if not 0 < nnz <= total:
        raise ValueError("entry count must be in [1, element count]")
    want = nnz
    while True:
        rows = stream.substream(0).index_draws(want, shape)
        _, first = np.unique(rows, axis=0, return_index=True)
        if first.size >= nnz:
            break
        want *= 2
    keep = rows[np.sort(first)[:nnz]]
    values = stream.substream(1).normals(nnz)
    return SparseTensor(shape, keep, values)


def _runtime_sample(cfg, param, sample_idx, stream):
    d = int(param)
    shape = (cfg.n,) * d
    xs = _sparse_exact_count(shape, cfg.nnz, stream.substream(0))
    # The same requested width at every edge (no rank clipping).  The
    # widths reached still clamp near the right boundary (to 2, 4, 8, 16
    # for binary modes at width 20), so every order pays the same cheaper
    # ramp there and a full-width cost per interior step: the time is
    # affine in the order.  Clipping the request would narrow the left
    # edges too and make the small-order points cheaper still.
    sketch = (cfg.r + cfg.p,) * (d - 1)
    decomp_stream = stream.substream(1)

    def run_once():
        t0 = time.perf_counter()
        randomized_tt_svd(xs, sketch, decomp_stream)
        return 1e3 * (time.perf_counter() - t0)

    run_once()  # warm-up discarded
    t_rnd = statistics.median(run_once() for _ in range(3))

    t_det = None
    if element_count(shape) <= RUNTIME_DENSE_LIMIT:
        x = sparse_to_dense(xs)

        def det_once():
            t0 = time.perf_counter()
            tt_svd_truncated(x, cfg.r)
            return 1e3 * (time.perf_counter() - t0)

        det_once()
        t_det = statistics.median(det_once() for _ in range(3))
    return [SampleRecord(
        experiment="runtime", sample=sample_idx, seed=cfg.seed, param=d,
        t_rnd_ms=t_rnd, t_det_ms=t_det,
    )]


def _als_sample(cfg, param, sample_idx, stream):
    p = int(param)
    x = _decay_target(cfg, cfg.d, stream.substream(0))
    shape = x.shape
    eps_det, eps_rnd, rnd_ratio, t_rnd, t_det = _both_errors(
        x, cfg.r, p, stream.substream(1)
    )
    t0 = time.perf_counter()
    als_cfg = AlsConfig(ranks=clip_ranks(shape, cfg.r + p))
    y_als_full, _ = als_half_sweep(x, als_cfg, stream.substream(2))
    y_als = tt_round(y_als_full, cfg.r)
    t_als = 1e3 * (time.perf_counter() - t0)
    eps_als = relative_error(x, y_als)
    als_ratio = eps_als / eps_det if eps_det > 0 else math.nan
    return [
        SampleRecord(
            experiment="als", sample=sample_idx, seed=cfg.seed, param=p,
            eps_det=eps_det, eps_rnd=eps_als, ratio=als_ratio,
            t_rnd_ms=t_als, t_det_ms=t_det,
        ),
        SampleRecord(
            experiment="als-rnd", sample=sample_idx, seed=cfg.seed, param=p,
            eps_det=eps_det, eps_rnd=eps_rnd, ratio=rnd_ratio,
            t_rnd_ms=t_rnd, t_det_ms=t_det,
        ),
    ]


def run_experiment(cfg):
    """Run one configured experiment and return its records in grid order."""
    cfg, grid = resolve_config(cfg)
    name = cfg.experiment
    root = RngStream(cfg.seed)
    tasks = [
        (pi, param, si)
        for pi, param in enumerate(grid)
        for si in range(cfg.samples)
    ]

    def run_task(task):
        pi, param, si = task
        stream = root.substream(pi, si)
        if name == "runtime":
            return _runtime_sample(cfg, param, si, stream)
        if name == "als":
            return _als_sample(cfg, param, si, stream)
        return _error_sample(cfg, name, param, si, stream)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(run_task, tasks))
    else:
        chunks = [run_task(t) for t in tasks]
    return [rec for chunk in chunks for rec in chunk]


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def write_csv(records, fh):
    """Write records with the versioned header; LF line endings."""
    fh.write(CSV_VERSION + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([
            rec.experiment, rec.sample, _cell(rec.seed), _cell(rec.param),
            _cell(rec.eps_det), _cell(rec.eps_rnd), _cell(rec.ratio),
            _cell(rec.t_rnd_ms), _cell(rec.t_det_ms),
        ])


def read_csv(fh):
    """Read records written by write_csv (used by tests and tooling)."""
    first = fh.readline().rstrip("\n")
    if first != CSV_VERSION:
        raise ValueError(f"unexpected csv version line {first!r}")
    reader = csv.reader(fh)
    header = tuple(next(reader))
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected csv header {header!r}")

    def num(tok):
        return None if tok == "" else float(tok)

    records = []
    for row in reader:
        records.append(SampleRecord(
            experiment=row[0], sample=int(row[1]), seed=int(float(row[2])),
            param=float(row[3]), eps_det=num(row[4]), eps_rnd=num(row[5]),
            ratio=num(row[6]), t_rnd_ms=num(row[7]), t_det_ms=num(row[8]),
        ))
    return records
