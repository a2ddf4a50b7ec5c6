"""Benchmark of the ttsketch package: one workload per run, one JSON line out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds the workload's inputs from the seed, runs one warm-up
round, then whole rounds of the workload's operations until S seconds have
passed, building the inputs again after each round to time the set-up,
and one more round under tracemalloc for the peak memory.  It checks the
outputs and prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median build time), ``op_s`` (mean operation time of a round, median over
the rounds) and ``peak_mb``.  With ``--trace 1`` the timed rounds run under
the tracer and the metrics are the per-layer ones, per operation.  The
package is imported from ``src/`` of the checkout this file lives in; the
run stops with exit code 2 when it is missing.
"""

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
# After each timed round the inputs are built again, at least once and
# until this share of the round's time has passed, so the set-up builds
# span the whole run, as the rounds do.  On a shared host the speed
# drifts over seconds (medians of 3 s windows of builds in one process
# differed by up to 30%), and a burst of builds before the rounds samples
# one such window only.
SETUP_SHARE = 0.1


def run_round(workload, ops, outputs, tally, span=contextlib.nullcontext):
    """Run every operation once, each inside `span()`; return their wall times.

    `outputs[i]` holds the first result of operation i; every later result
    must equal it, so the outputs of every round are checked.
    """
    times = []
    for i, op in enumerate(ops):
        tally["attempted"] += 1
        try:
            t0 = time.perf_counter()
            with span():
                out = op()
            times.append(time.perf_counter() - t0)
        except Exception:
            tally["failed"] += 1
            traceback.print_exc(file=sys.stderr)
            continue
        out = workload.settle(out)
        if outputs[i] is None:
            outputs[i] = out
        elif not workload.same(outputs[i], out):
            tally["fails"].append(f"operation {i} gave a different result "
                                  f"than its first run")
    return times


class PeakMemory:
    """Largest tracemalloc peak of one operation above its starting size."""

    def __init__(self):
        self.peak = 0

    @contextlib.contextmanager
    def operation(self):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)


def measure(workload, seed, seconds, trace, workdir):
    tally = {"attempted": 0, "failed": 0, "fails": []}
    setups = []

    def build():
        t0 = time.perf_counter()
        inputs = workload.build(seed, workdir)
        setups.append(time.perf_counter() - t0)
        return inputs

    inputs = build()
    ops = workload.operations(seed, inputs, workdir)

    outputs = [None] * len(ops)
    run_round(workload, ops, outputs, tally)  # warm-up

    tracer = Tracer()
    span = tracer.operation if trace else contextlib.nullcontext
    round_means = []
    if trace:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            times = run_round(workload, ops, outputs, tally, span)
            if times:
                round_means.append(statistics.fmean(times))
            if not trace:
                spent = 0.0
                while True:
                    build()
                    spent += setups[-1]
                    if spent >= SETUP_SHARE * sum(times):
                        break
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()

    # When every operation raised, nothing was timed or checked: the
    # metrics that need a result are null and the run is not correct.
    done = any(out is not None for out in outputs)
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in tracer.per_operation().items()}
        ratio = workload.err_ratio(seed, inputs, outputs) if done else None
        metrics["decompose.err_ratio"] = {"value": ratio, "unit": "1"}
    else:
        memory = PeakMemory()
        tracemalloc.start()
        try:
            run_round(workload, ops, outputs, tally, memory.operation)
        finally:
            tracemalloc.stop()
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(round_means) if done else None,
                     "unit": "s"},
            "peak_mb": {"value": memory.peak / 1e6 if done else None,
                        "unit": "MB"},
        }

    fails = tally["fails"] + workload.check(inputs, outputs)
    if not done:
        fails.append("every operation raised, so no output was checked")
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_read"):
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ttsketch" / "__init__.py").is_file():
        print(f"no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="_work", dir=Path(__file__).resolve().parent)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
