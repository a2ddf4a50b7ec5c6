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
grid and the target builder.

  study               sweeps  targets
  noise               tau     exact rank-r* train plus scaled dense noise
  oversampling        p       noisy, at fixed tau
  oversampling-decay  p       polynomially decaying unfolding spectra
  order               d       noisy
  order-decay         d       decaying spectra
  runtime             d       sparse, exactly nnz entries; times the
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

import numpy as np

from .als import als_half_sweep
from .decompose import randomized_tt_svd, relative_error, tt_svd_truncated
from .generators import noisy_low_rank, random_tt_decay
from .rng import RngStream
from .tensor import SparseTensor, element_count
from .tt import clip_ranks, tt_evaluate, tt_round

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
    t0 = time.perf_counter()
    y = tt_svd_truncated(x, cfg.r)[0]
    t_det = 1e3 * (time.perf_counter() - t0)
    eps_det = relative_error(x, y)
    del y
    ranks = clip_ranks(x.shape, cfg.r + cfg.p)
    records = []
    for tag, method, sub in pipelines:
        t0 = time.perf_counter()
        y = tt_round(method(x, ranks, stream.substream(sub))[0], cfg.r)
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


def _median_ms(fn, *args):
    """Median milliseconds of three calls of fn(*args), after one warm-up
    call whose time is thrown away."""
    times = []
    for _ in range(4):
        t0 = time.perf_counter()
        fn(*args)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times[1:])


def _runtime_sample(cfg, param, sample_idx, stream):
    d = cfg.d
    shape = (cfg.n,) * d
    xs = _sparse_exact_count(shape, cfg.nnz, stream.substream(0))
    # The same requested width at every edge (no rank clipping).  The
    # widths reached still clamp near the right boundary (to 2, 4, 8, 16
    # for binary modes at width 20), so every order pays the same cheaper
    # ramp there and a full-width cost per interior step: the time is
    # affine in the order.  Clipping the request would narrow the left
    # edges too and make the small-order points cheaper still.
    sketch = (cfg.r + cfg.p,) * (d - 1)
    t_rnd = _median_ms(randomized_tt_svd, xs, sketch, stream.substream(1))
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


def _num(tok):
    return None if tok == "" else float(tok)


# One parser per column; the unlisted ones are optional numbers.
_PARSERS = dict(experiment=str, sample=int, seed=lambda t: int(float(t)),
                param=float)


def read_csv(fh):
    """Read records written by write_csv (used by tests and tooling)."""
    first = fh.readline().rstrip("\n")
    if first != CSV_VERSION:
        raise ValueError(f"unexpected csv version line {first!r}")
    reader = csv.reader(fh)
    header = tuple(next(reader))
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected csv header {header!r}")
    records = []
    for row in reader:
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(
                f"csv line {reader.line_num + 1}: expected "
                f"{len(CSV_COLUMNS)} cells, got {len(row)}"
            )
        records.append(SampleRecord(*(
            _PARSERS.get(c, _num)(tok) for c, tok in zip(CSV_COLUMNS, row)
        )))
    return records
