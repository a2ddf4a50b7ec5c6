"""Tests of the benchmark's own output checks and of the tracer.

Run from the root of the repository:  python3 -m pytest perfbench -q

Each workload runs one round at reduced size; its checks must pass on the
package's outputs and fail on a perturbed core or a rank above the target.
The tracer must patch every binding of the traced functions, and the self
times it reports, with the unattributed remainder, must add up to the wall
time of the traced operations.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The traced self times must add up to the traced wall time within this
# share plus this many seconds per operation: entering and leaving the
# root span costs a few microseconds that no span sees.
ADD_UP_SHARE = 0.01
ADD_UP_PER_OPERATION_S = 50e-6


def small(cls, **sizes):
    wl = cls()
    for name, value in sizes.items():
        setattr(wl, name, value)
    return wl


SMALL = {
    "sparse-order": small(workloads.SparseOrder, orders=(12, 70), nnz=60),
    "dense-sketch": small(workloads.DenseSketch, shape=(4,) * 6, instances=2),
    "dense-sweep": small(workloads.DenseSweep, shape=(4,) * 6, instances=2),
    "experiments": small(workloads.Experiments, order=6),
    "cli-sparse-file": small(workloads.CliSparseFile,
                             supports=(3, 3, 2, 2, 2, 2, 2, 2)),
}


def one_round(wl, tmp_path, seed=5):
    inputs = wl.build(seed, str(tmp_path))
    ops = wl.operations(seed, inputs, str(tmp_path))
    return inputs, [wl.settle(op()) for op in ops]


def paired(wl):
    """Whether an output is [sketch, rounded train] rather than one train."""
    return isinstance(wl, (workloads.SparseOrder, workloads.DenseSketch))


def bump(cores):
    """The same cores with every entry of core 2 moved by 0.1."""
    cores = [c.copy() for c in cores]
    cores[1] = cores[1] + 0.1
    return cores


def pad_rank(cores):
    """The same train with its widest edge doubled by zero columns."""
    cores = [c.copy() for c in cores]
    k = int(np.argmax([c.shape[-1] for c in cores[:-1]]))
    extra = cores[k].shape[-1]
    cores[k] = np.pad(cores[k], [(0, 0)] * (cores[k].ndim - 1) + [(0, extra)])
    nxt = cores[k + 1]
    cores[k + 1] = np.pad(nxt, [(0, extra)] + [(0, 0)] * (nxt.ndim - 1))
    return cores


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    return {name: (wl, *one_round(wl, tmp_path_factory.mktemp(name.replace("-", "_"))))
            for name, wl in SMALL.items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_package_outputs(rounds, name):
    wl, inputs, outputs = rounds[name]
    assert wl.check(inputs, outputs) == []


# The failure a bumped core must cause, per workload.
BUMP_FAILS = {
    "sparse-order": "not right-orthonormal",
    "dense-sketch": "||x - Px||^2",
    "dense-sweep": "outside",
    "cli-sparse-file": "not left-orthonormal",
}


@pytest.mark.parametrize("name", sorted(BUMP_FAILS))
def test_perturbed_core_fails(rounds, name):
    wl, inputs, outputs = rounds[name]
    first = outputs[0]
    bad = [bump(first[0]), first[1]] if paired(wl) else bump(first)
    fails = wl.check(inputs, [bad] + outputs[1:])
    assert any(BUMP_FAILS[name] in msg for msg in fails), fails


@pytest.mark.parametrize("name", sorted(set(SMALL) - {"experiments"}))
def test_rank_above_target_fails(rounds, name):
    wl, inputs, outputs = rounds[name]
    first = outputs[0]
    bad = [first[0], pad_rank(first[1])] if paired(wl) else pad_rank(first)
    fails = wl.check(inputs, [bad] + outputs[1:])
    assert any("exceed" in msg for msg in fails), fails


@pytest.mark.parametrize("name", ["dense-sketch", "sparse-order"])
def test_perturbed_rounded_core_fails(rounds, name):
    wl, inputs, outputs = rounds[name]
    sketch, rounded = outputs[0]
    fails = wl.check(inputs, [[sketch, bump(rounded)]] + outputs[1:])
    assert any("rounded train is no projection" in msg for msg in fails), fails


@pytest.mark.parametrize("name", ["dense-sketch", "sparse-order"])
def test_rounded_train_of_wrong_size_fails(rounds, name):
    wl, inputs, outputs = rounds[name]
    sketch, rounded = outputs[0]
    half = [c.copy() for c in rounded]
    half[-1] *= 0.5
    fails = wl.check(inputs, [[sketch, half]] + outputs[1:])
    assert any("rounded train is no projection" in msg for msg in fails), fails
    zero = [np.zeros_like(c) for c in rounded]
    fails = wl.check(inputs, [[sketch, zero]] + outputs[1:])
    assert any("rounding error^2" in msg for msg in fails), fails


def test_train_tails_match_the_dense_unfoldings():
    rng = np.random.default_rng(1)
    cores = workloads._random_cores(rng, (3, 4, 2, 5), 4)
    want = checks.unfolding_tails(checks.train_dense(cores), 2)
    assert checks.train_tails(cores, 2) == pytest.approx(want, rel=1e-10)


def test_sparse_identity_catches_a_scaled_first_core(rounds):
    wl, inputs, outputs = rounds["sparse-order"]
    sketch = [c.copy() for c in outputs[0][0]]
    sketch[0] *= 1.0 + 1e-6
    fails = wl.check(inputs, [[sketch, outputs[0][1]]] + outputs[1:])
    assert any("<x, Px>" in msg for msg in fails), fails


def test_dense_sketch_pythagoras_catches_a_scaled_first_core(rounds):
    wl, inputs, outputs = rounds["dense-sketch"]
    sketch = [c.copy() for c in outputs[0][0]]
    sketch[0] *= 1.0 + 1e-6
    fails = wl.check(inputs, [[sketch, outputs[0][1]]] + outputs[1:])
    assert any("||x - Px||^2" in msg for msg in fails), fails


def test_experiment_checks_catch_a_low_ratio_and_inexact_recovery(rounds):
    wl, inputs, outputs = rounds["experiments"]
    flat = [rec for out in outputs for rec, _ in out]
    exact = next(r for r in flat if r.experiment == "noise" and r.param == 0.0)
    noisy = next(r for r in flat if r.experiment == "noise" and r.param > 0.0)
    saved = exact.eps_rnd, noisy.ratio
    try:
        exact.eps_rnd = 1e-6
        noisy.ratio = 0.1
        fails = wl.check(inputs, outputs)
    finally:
        exact.eps_rnd, noisy.ratio = saved
    assert any("exact recovery" in msg for msg in fails), fails
    assert any("below 1/sqrt(d-1)" in msg for msg in fails), fails


def test_cli_check_reads_the_written_file(rounds, tmp_path):
    wl, inputs, outputs = rounds["cli-sparse-file"]
    path = tmp_path / "bad.tt"
    cores = outputs[0]
    header = ["tt", str(len(cores))] + [str(n) for n in wl.shape]
    header += [str(c.shape[-1]) for c in cores[:-1]]
    values = np.concatenate([c.ravel() for c in cores])
    values[0] += 0.5
    path.write_text(" ".join(header) + "\n" + " ".join(repr(float(v)) for v in values))
    assert wl.check(inputs, [wl.settle(str(path))])
    with pytest.raises(ValueError):
        checks.parse_tt(" ".join(header) + "\n1.0")


def test_cli_check_reads_the_input_file(rounds):
    wl, inputs, outputs = rounds["cli-sparse-file"]
    vals = inputs["vals"].copy()
    vals[0] += 1e-12
    fails = wl.check(dict(inputs, vals=vals), outputs)
    assert any("input file" in msg for msg in fails), fails


def test_unfolding_tails_match_numpy_svd():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5))
    tails = checks.unfolding_tails(x, 2)
    s = np.linalg.svd(x.reshape(3, 20), compute_uv=False)
    assert tails[0] == pytest.approx(s[2])


def test_install_patches_every_binding_and_uninstall_restores():
    import ttsketch.cli  # noqa: F401  (every traced module loaded)
    import ttsketch.experiments  # noqa: F401
    import ttsketch.fileio  # noqa: F401

    originals = {
        id(getattr(sys.modules[f"ttsketch.{module}"], name)): f"{module}.{name}"
        for module, name, *_ in tracing.SPANS
    }

    def bindings():
        found = []
        for modname, module in list(sys.modules.items()):
            namespace = getattr(module, "__dict__", None)
            if isinstance(namespace, dict):
                found += [(modname, attr) for attr, value in namespace.items()
                          if id(value) in originals]
        return found

    before = bindings()
    assert ("ttsketch.decompose", "svd") in before
    assert ("ttsketch.als", "qr") in before
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bindings() == []
    finally:
        tracer.uninstall()
    assert sorted(bindings()) == sorted(before)


def test_same_layer_calls_merge_and_counts_still_add():
    from ttsketch import linalg

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation():
            linalg.rq_row_orthonormal(np.ones((3, 5)))
            linalg.truncated_svd(np.eye(4), 2)
    finally:
        tracer.uninstall()
    assert tracer.seconds["linalg.qr_s"] == 0.0
    assert tracer.seconds["linalg.rq_s"] > 0.0
    assert tracer.counts["linalg.svd_n"] == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_self_times_add_up_to_the_wall_time(name, tmp_path):
    wl = SMALL[name]
    inputs = wl.build(3, str(tmp_path))
    ops = wl.operations(3, inputs, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall = sum(run.run_round(wl, ops, [None] * len(ops), tally(),
                                 tracer.operation))
    finally:
        tracer.uninstall()
    self_times = tracer.per_operation()
    total = sum(self_times[m] for m in tracing.TIME_METRICS) * len(ops)
    assert min(tracer.seconds.values()) >= 0.0
    assert total == pytest.approx(tracer.wall, rel=1e-9)
    assert abs(total - wall) <= ADD_UP_SHARE * wall + ADD_UP_PER_OPERATION_S * len(ops)


def tally():
    return {"attempted": 0, "failed": 0, "fails": []}


def test_a_raising_operation_counts_as_failed_and_the_round_goes_on():
    counts = tally()
    outputs = [None, None]
    ops = [lambda: 1 / 0, lambda: [np.ones(2)]]
    times = run.run_round(workloads.SparseOrder(), ops, outputs, counts)
    assert counts == {"attempted": 2, "failed": 1, "fails": []}
    assert len(times) == 1 and outputs[0] is None


class Raising(workloads.Workload):
    """A workload whose one operation always raises."""

    def build(self, seed, workdir):
        return [seed]

    def operations(self, seed, inputs, workdir):
        return [lambda: 1 / 0]

    def check(self, inputs, outputs):
        return []


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_whose_every_operation_raises_still_reports(trace, tmp_path):
    result = run.measure(Raising(), 1, 0.0, trace, str(tmp_path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    json.dumps(result)
    if trace:
        assert result["metrics"]["decompose.err_ratio"]["value"] is None
    else:
        assert result["metrics"]["op_s"]["value"] is None
        assert result["metrics"]["peak_mb"]["value"] is None


def test_a_changed_result_in_a_later_round_fails_the_check():
    counts = tally()
    outputs = [[np.ones(2)]]
    run.run_round(workloads.SparseOrder(), [lambda: [np.zeros(2)]], outputs, counts)
    assert counts["fails"]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_the_benchmark_file():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric_of_its_kind(trace, key):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-order",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in benchmark_spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
