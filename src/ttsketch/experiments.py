"""Error-factor and runtime studies comparing the decomposition paths.

Each experiment sweeps one configuration field over a grid, draws
`samples` independent targets per grid point, decomposes every target
with the deterministic sweep and with the randomized pipeline (sketch at
rank r+p, then deterministic truncation back to r), and records the
relative errors plus their ratio.  Per-sample streams are derived from
the root seed and the (grid point, sample) position, so every record is
a pure function of the configuration: a rerun reproduces the CSV byte
for byte except for the wall-time columns, whatever order or thread the
samples run in.

The studies are one table, `_STUDIES`: per study the defaults of unset
fields, the swept field (setting it fixes a one-point grid), the default
grid and the target builder.  The targets come from `generators`; the
error studies pass the width r+p as an int, which the decompositions
clip themselves.  Records are written as CSV, never read back.

  study               sweeps  targets
  noise               tau     exact rank-r* train plus scaled dense noise
  oversampling        p       noisy, at fixed tau
  oversampling-decay  p       polynomially decaying unfolding spectra
  order               d       noisy
  order-decay         d       decaying spectra
  runtime             d       gaussian_sparse (exactly nnz entries); times the
                              sketch path (and the dense deterministic
                              path while the dense tensor stays small)
  als                 p       decaying spectra; rows tagged "als" hold the
                              ALS half sweep's error in eps_rnd, paired
                              with "als-rnd" rows of the usual randomized
                              error on the same target
"""

import csv
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

from .als import als_half_sweep
from .decompose import randomized_tt_svd, relative_error, tt_svd_truncated
from .generators import gaussian_sparse, noisy_low_rank, random_tt_decay
from .rng import RngStream
from .tensor import element_count
from .tt import tt_evaluate, tt_round

NOISE_GRID = tuple(round(0.01 * i, 2) for i in range(11))
OVERSAMPLING_GRID = (0, 1, 2, 3, 5, 8, 12, 17, 25)
ORDER_GRID = tuple(range(4, 12))
ORDER_GRID_FULL = tuple(range(4, 14))
RUNTIME_GRID = (10, 20, 40, 60)

# Largest dense size the runtime experiment will densify for the
# deterministic reference timing.
RUNTIME_DENSE_LIMIT = 2 ** 20


@dataclass(slots=True)
class ExperimentConfig:
    """Knobs of one experiment run; unset fields take experiment defaults.

    Slotted: every sample holds its own copy with the swept field set.
    """

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


CSV_VERSION = "# ttsketch csv v1"
CSV_COLUMNS = tuple(f.name for f in fields(SampleRecord))


def _noisy_target(cfg, stream):
    return noisy_low_rank((cfg.n,) * cfg.d, cfg.r_star, cfg.tau, stream)


def _decay_target(cfg, stream):
    t = random_tt_decay((cfg.n,) * cfg.d, cfg.r_star, cfg.decay_exp,
                        cfg.cutoff, stream)
    return tt_evaluate(t)


_NOISY = dict(n=4, r_star=10, r=10, samples=32)
_DECAY = dict(n=4, r_star=64, r=10, decay_exp=2.0, cutoff=250, samples=32)

# study: (defaults of unset fields, swept field, default grid, target)
_STUDIES = {
    "noise": (dict(_NOISY, d=10, p=5), "tau", NOISE_GRID, _noisy_target),
    "oversampling": (dict(_NOISY, d=10, tau=0.05), "p", OVERSAMPLING_GRID,
                     _noisy_target),
    "oversampling-decay": (dict(_DECAY, d=10), "p", OVERSAMPLING_GRID,
                           _decay_target),
    "order": (dict(_NOISY, p=5, tau=0.05), "d", ORDER_GRID, _noisy_target),
    "order-decay": (dict(_DECAY, p=5), "d", ORDER_GRID, _decay_target),
    "runtime": (dict(n=2, r=10, p=10, nnz=500, samples=32), "d",
                RUNTIME_GRID, None),
    "als": (dict(_DECAY, d=10, samples=16), "p", OVERSAMPLING_GRID,
            _decay_target),
}

EXPERIMENT_NAMES = tuple(_STUDIES)


def resolve_config(cfg):
    """Apply per-experiment defaults and build the parameter grid."""
    if cfg.experiment not in _STUDIES:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    if cfg.p is not None and cfg.p < 0:
        raise ValueError("oversampling must be nonnegative")
    defaults, field, grid, _ = _STUDIES[cfg.experiment]
    if cfg.full_scale:
        defaults = dict(defaults, samples=256)
        if grid is ORDER_GRID:
            grid = ORDER_GRID_FULL
    fixed = getattr(cfg, field)
    if fixed is not None:
        grid = (type(grid[0])(fixed),)
    cfg = replace(cfg, **{k: v for k, v in defaults.items()
                          if getattr(cfg, k) is None})
    if cfg.samples < 1:
        raise ValueError("samples must be positive")
    return cfg, grid


def _error_sample(cfg, target, pipelines, param, sample_idx, stream):
    """One target, its deterministic sweep, and one row per pipeline.

    A pipeline (tag, method, substream) decomposes the target at width
    r+p with method(x, ranks, stream) and rounds the train back to r.
    Each train is dropped before the next one is built, so no two are
    alive at once.
    """
    x = target(cfg, stream.substream(0))
    y, report = tt_svd_truncated(x, cfg.r)
    t_det = 1e3 * report.wall_time_s
    eps_det = relative_error(x, y)
    del y
    records = []
    for tag, method, sub in pipelines:
        t0 = time.perf_counter()
        y = tt_round(method(x, cfg.r + cfg.p, stream.substream(sub))[0], cfg.r)
        t = 1e3 * (time.perf_counter() - t0)
        eps = relative_error(x, y)
        del y
        records.append(SampleRecord(
            experiment=tag, sample=sample_idx, seed=cfg.seed, param=param,
            eps_det=eps_det, eps_rnd=eps,
            ratio=eps / eps_det if eps_det > 0 else math.nan,
            t_rnd_ms=t, t_det_ms=t_det,
        ))
    return records


def _median_ms(fn, *args):
    """Median milliseconds of three decompositions fn(*args), as their
    reports time them, after one warm-up call whose time is thrown away."""
    times = [1e3 * fn(*args)[1].wall_time_s for _ in range(4)]
    return statistics.median(times[1:])


def _runtime_sample(cfg, param, sample_idx, stream):
    shape = (cfg.n,) * cfg.d
    # gaussian_sparse also accepts 0 entries, which leave nothing to time.
    if not 0 < cfg.nnz <= element_count(shape):
        raise ValueError("entry count must be in [1, element count]")
    xs = gaussian_sparse(shape, cfg.nnz, stream.substream(0))
    t_rnd = _median_ms(randomized_tt_svd, xs, cfg.r + cfg.p, stream.substream(1))
    t_det = None
    if element_count(shape) <= RUNTIME_DENSE_LIMIT:
        t_det = _median_ms(tt_svd_truncated, xs.to_dense(), cfg.r)
    return [SampleRecord(
        experiment="runtime", sample=sample_idx, seed=cfg.seed, param=param,
        t_rnd_ms=t_rnd, t_det_ms=t_det,
    )]


def run_experiment(cfg):
    """Run one configured experiment and return its records in grid order."""
    cfg, grid = resolve_config(cfg)
    name = cfg.experiment
    _, field, _, target = _STUDIES[name]
    if name == "als":
        pipelines = [("als", als_half_sweep, 2),
                     ("als-rnd", randomized_tt_svd, 1)]
    else:
        pipelines = [(name, randomized_tt_svd, 1)]
    root = RngStream(cfg.seed)
    tasks = [
        (pi, param, si)
        for pi, param in enumerate(grid)
        for si in range(cfg.samples)
    ]

    def run_task(task):
        pi, param, si = task
        point = replace(cfg, **{field: param})
        stream = root.substream(pi, si)
        if target is None:
            return _runtime_sample(point, param, si, stream)
        return _error_sample(point, target, pipelines, param, si, stream)

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
        writer.writerow([_cell(getattr(rec, c)) for c in CSV_COLUMNS])
