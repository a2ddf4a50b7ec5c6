"""The benchmark's workloads: inputs from the seed, operations, output checks.

A workload builds its inputs with numpy's own generator from the workload
seed, so a change to ``ttsketch.generators`` or to the package RNG does not
change what is measured (``experiments`` is the exception: building its
targets is part of a sample).  ``operations`` gives one call per input;
running each once is a round.  The package is called through module
attributes, so the tracer's wrappers see every call.
"""

import contextlib
import functools
import io
import os
import statistics

import numpy as np

from ttsketch import cli, decompose, experiments, tt
from ttsketch.rng import RngStream
from ttsketch.tensor import SparseTensor

import checks


def _distinct_rows(rng, count, d, n):
    """`count` distinct multi-indices over (n,)*d, in draw order."""
    seen, rows = set(), []
    while len(rows) < count:
        for row in rng.integers(0, n, size=(count - len(rows), d)):
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                rows.append(row)
    return np.array(rows)


def _random_cores(rng, shape, rank):
    """Gaussian cores with ranks clipped to the dimension products."""
    d = len(shape)
    ranks = [1] + [min(rank, int(np.prod(shape[:k])), int(np.prod(shape[k:])))
                   for k in range(1, d)] + [1]
    cores = [rng.standard_normal((ranks[k], shape[k], ranks[k + 1]))
             for k in range(d)]
    cores[0] = cores[0][0]
    cores[-1] = cores[-1][..., 0]
    return cores


def _rnd_pipeline(x, width, rank, stream):
    """The randomized pipeline: sketch at width r+p, then round to r."""
    sketch, _ = decompose.randomized_tt_svd(
        x, tt.clip_ranks(x.shape, width), stream
    )
    return sketch, tt.tt_round(sketch, rank)


def _equal(a, b):
    """Bitwise equality of arrays or nested lists of arrays."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return len(a) == len(b) and all(_equal(p, q) for p, q in zip(a, b))


class Workload:
    """One set of inputs and the operation run on each of them."""

    name = None

    def build(self, seed, workdir):
        raise NotImplementedError

    def operations(self, seed, inputs, workdir):
        raise NotImplementedError

    def settle(self, output):
        """Turn an operation's return value into its checked output."""
        return output

    def same(self, a, b):
        return _equal(a, b)

    def check(self, inputs, outputs):
        """Failure messages; an output is None when its operation never ran."""
        raise NotImplementedError

    def err_ratio(self, seed, inputs, outputs):
        """Median eps_rnd / eps_det over the inputs that ran; 0 where the
        workload has no deterministic reference, None where no input has a
        deterministic error above roundoff."""
        return 0.0


class SparseOrder(Workload):
    """Sparse binary-mode tensors at orders 40 and 80, randomized pipeline.

    The sparse kernels do nearly all the work; no dense GEMM or large SVD
    runs.  Order 80 (2^80 elements) takes the Python-int index path.
    """
    name = "sparse-order"
    orders = (40, 80)
    nnz = 500
    width = 20
    rank = 10

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        inputs = []
        for d in self.orders:
            idx = _distinct_rows(rng, self.nnz, d, 2)
            inputs.append(SparseTensor((2,) * d, idx, rng.standard_normal(self.nnz)))
        return inputs

    def operations(self, seed, inputs, workdir):
        root = RngStream(seed)
        return [
            functools.partial(self._run, x, root.substream(i))
            for i, x in enumerate(inputs)
        ]

    def _run(self, x, stream):
        sketch, rounded = _rnd_pipeline(x, self.width, self.rank, stream)
        return [sketch.cores, rounded.cores]

    def check(self, inputs, outputs):
        fails = []
        for x, out in zip(inputs, outputs):
            if out is not None:
                fails += [f"d={x.ndim}: {msg}" for msg in checks.check_sparse_sketch(
                    x.idx, x.values, *out, self.rank)]
        return fails


class _Dense(Workload):
    """Noisy low-rank tensors at 4^10: unit-norm rank-10 train plus noise."""

    shape = (4,) * 10
    instances = 3
    construction_rank = 10
    tau = 0.05
    rank = 10
    width = 15

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.instances):
            x = checks.train_dense(
                _random_cores(rng, self.shape, self.construction_rank))
            x /= np.linalg.norm(x)
            noise = rng.standard_normal(self.shape)
            x += (self.tau / np.linalg.norm(noise)) * noise
            inputs.append(x)
        return inputs

    def _rnd(self, x, stream):
        sketch, rounded = _rnd_pipeline(x, self.width, self.rank, stream)
        return [sketch.cores, rounded.cores]

    def _det(self, x):
        return decompose.tt_svd_truncated(x, self.rank)[0].cores

    def err_ratio(self, seed, inputs, outputs):
        root = RngStream(seed)
        ratios = []
        for i, x in enumerate(inputs):
            if outputs[i] is None:
                continue
            nx = np.linalg.norm(x)
            rounded = self._rnd(x, root.substream(i))[1]
            eps_rnd = np.linalg.norm(x - checks.train_dense(rounded)) / nx
            eps_det = np.linalg.norm(x - checks.train_dense(self._det(x))) / nx
            if eps_det > checks.ROUNDOFF:
                ratios.append(eps_rnd / eps_det)
        return statistics.median(ratios) if ratios else None


class DenseSketch(_Dense):
    """The randomized pipeline on the dense inputs.

    Gaussian generation dominates and its temporaries set the peak memory;
    the sparse kernels stay idle.
    """
    name = "dense-sketch"

    def operations(self, seed, inputs, workdir):
        root = RngStream(seed)
        return [
            functools.partial(self._rnd, x, root.substream(i))
            for i, x in enumerate(inputs)
        ]

    def check(self, inputs, outputs):
        fails = []
        for i, (x, out) in enumerate(zip(inputs, outputs)):
            if out is not None:
                tails = checks.unfolding_tails(x, self.rank)
                fails += [f"input {i}: {msg}" for msg in checks.check_dense_sketch(
                    x, tails, *out, self.rank)]
        return fails


class DenseSweep(_Dense):
    """The deterministic sweep on the same dense inputs: SVDs dominate."""
    name = "dense-sweep"

    def operations(self, seed, inputs, workdir):
        return [functools.partial(self._det, x) for x in inputs]

    def check(self, inputs, outputs):
        fails = []
        for i, (x, det) in enumerate(zip(inputs, outputs)):
            if det is not None:
                tails = checks.unfolding_tails(x, self.rank)
                fails += [f"input {i}: {msg}" for msg in checks.check_dense_sweep(
                    x, tails, det, self.rank)]
        return fails


class Experiments(Workload):
    """One sample at every grid point of noise, order-decay and als.

    Orders are capped at 8 so that a round fits a run; many medium-sized
    calls go through generators, SVDs, rounding, evaluation and ALS.
    """
    name = "experiments"
    order = 8

    def build(self, seed, workdir):
        points = [("noise", {"d": self.order, "tau": tau})
                  for tau in experiments.NOISE_GRID]
        points += [("order-decay", {"d": d})
                   for d in experiments.ORDER_GRID if d <= self.order]
        points += [("als", {"d": self.order, "p": p})
                   for p in experiments.OVERSAMPLING_GRID]
        return [
            (experiments.resolve_config(experiments.ExperimentConfig(
                experiment=name, samples=1, seed=seed, workers=1, **fixed))[0],
             fixed["d"])
            for name, fixed in points
        ]

    def operations(self, seed, inputs, workdir):
        return [functools.partial(self._run, cfg, d) for cfg, d in inputs]

    def _run(self, cfg, d):
        return [(rec, d) for rec in experiments.run_experiment(cfg)]

    def same(self, a, b):
        def errors(out):
            return [(r.experiment, r.param, r.eps_det, r.eps_rnd) for r, _ in out]
        return errors(a) == errors(b)

    def check(self, inputs, outputs):
        return checks.check_sample_records(
            [pair for out in outputs if out is not None for pair in out])

    def err_ratio(self, seed, inputs, outputs):
        ratios = [rec.ratio for out in outputs if out is not None
                  for rec, _ in out
                  if rec.experiment != "als" and rec.eps_det > checks.ROUNDOFF]
        return statistics.median(ratios) if ratios else None


class CliSparseFile(Workload):
    """``ttsketch decompose --method rand`` on a sparse coordinate file.

    The only workload that reads and writes files.  The input is a sum of
    `terms` sparse outer products at 8^8, about 8e4 stored entries.
    """
    name = "cli-sparse-file"
    shape = (8,) * 8
    supports = (4, 4, 4, 4, 3, 3, 3, 3)
    terms = 4
    rank = terms
    oversampling = 4
    max_rel_error = 1e-6

    def _input_cores(self, rng):
        # A sum of `terms` outer products of sparse mode vectors, written as
        # a train of rank `terms` with block-diagonal interior cores.
        d, n, r = len(self.shape), self.shape[0], self.terms
        cores = [np.zeros((n, r))] + [np.zeros((r, n, r)) for _ in range(d - 2)]
        cores.append(np.zeros((r, n)))
        support = []
        for t in range(r):
            rows = []
            for m, k in enumerate(self.supports):
                pos = np.sort(rng.choice(n, size=k, replace=False))
                vec = rng.standard_normal(k)
                rows.append(pos)
                if m == 0:
                    cores[0][pos, t] = vec
                elif m == d - 1:
                    cores[m][t, pos] = vec
                else:
                    cores[m][t, pos, t] = vec
            grid = np.meshgrid(*rows, indexing="ij")
            support.append(np.stack([g.ravel() for g in grid], axis=1))
        codes = np.unique(np.ravel_multi_index(np.concatenate(support).T,
                                               self.shape))
        return cores, np.stack(np.unravel_index(codes, self.shape), axis=1)

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        cores, idx = self._input_cores(rng)
        vals = checks.train_at(cores, idx)
        keep = vals != 0.0
        idx, vals = idx[keep], vals[keep]
        path = os.path.join(workdir, "input.txt")
        d = len(self.shape)
        header = " ".join(["sparse", str(d)] + [str(n) for n in self.shape]
                          + [str(len(vals))])
        table = np.column_stack([idx + 1, vals])
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            np.savetxt(fh, table, fmt=["%d"] * d + ["%.17g"], header=header,
                       comments="")
        return {"path": path, "idx": idx, "vals": vals}

    def operations(self, seed, inputs, workdir):
        out = os.path.join(workdir, "train.tt")
        argv = ["decompose", "--input", inputs["path"], "--method", "rand",
                "--r", str(self.rank), "--p", str(self.oversampling),
                "--seed", str(seed), "--out", out]
        return [functools.partial(self._run, argv, out)]

    def _run(self, argv, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ttsketch decompose exited with {code}")
        return out

    def settle(self, output):
        with open(output, encoding="ascii") as fh:
            return checks.parse_tt(fh.read())

    def check(self, inputs, outputs):
        idx, vals = inputs["idx"], inputs["vals"]
        shape, read_idx, read_vals = checks.read_sparse(inputs["path"])
        fails = []
        if not (shape == self.shape and np.array_equal(read_idx, idx)
                and np.array_equal(read_vals, vals)):
            fails.append("the input file does not hold the entries checked against")
        for written in outputs:
            if written is not None:
                fails += checks.check_cli_train(
                    idx, vals, written, self.shape, self.rank, self.max_rel_error)
        return fails


WORKLOADS = {w.name: w for w in (
    SparseOrder(), DenseSketch(), DenseSweep(), Experiments(), CliSparseFile()
)}
