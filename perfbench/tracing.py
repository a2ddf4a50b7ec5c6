"""Per-layer self times for the traced run, recorded from outside the package.

The tracer replaces chosen package functions by wrappers in every module
namespace that binds them (``decompose``, ``tt``, ``als`` and
``generators`` import ``svd``, ``qr`` and ``rq_row_orthonormal`` by name,
so patching ``linalg`` alone would miss most calls).  Each wrapper opens a
span; a span's self time is its duration minus the durations of the
wrapped calls made inside it, and is added to the span's metric.

A wrapped call made while a span of the same layer is innermost opens no
span of its own: ``rq_row_orthonormal`` calling ``qr`` counts as RQ time,
``truncated_svd`` calling ``svd`` as SVD time.  Counts are taken on every
call, merged or not.

``operation()`` is the root span around one benchmark operation.  Its self
time, the benchmark's own code plus package code that no wrapper covers,
goes to ``trace.unattributed_s``, so the self times of all metrics add up
to the summed durations of the root spans.  The tracer keeps one stack and
is meant for a single thread.
"""

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, function, time metric, count metric, amount counted per call)
SPANS = (
    ("_kernels", "standard_normals", "kernels.normals_s",
     "kernels.normals_n", lambda key, count: int(count)),
    ("_kernels", "gammas_at", "kernels.gammas_s", None, None),
    ("_kernels", "sparse_sketch", "kernels.sketch_s",
     "kernels.rows_n", lambda mu, *rest: len(mu)),
    ("_kernels", "sparse_update", "kernels.update_s",
     "kernels.rows_n", lambda mu, *rest: len(mu)),
    ("linalg", "svd", "linalg.svd_s", "linalg.svd_n", lambda a: 1),
    ("linalg", "truncated_svd", "linalg.svd_s", None, None),
    ("linalg", "qr", "linalg.qr_s", None, None),
    ("linalg", "rq_row_orthonormal", "linalg.rq_s", None, None),
    ("decompose", "randomized_tt_svd", "decompose.rnd_self_s", None, None),
    ("decompose", "tt_svd_truncated", "decompose.det_self_s", None, None),
    ("decompose", "relative_error", "decompose.relerr_s", None, None),
    ("tt", "tt_round", "tt.round_self_s", None, None),
    ("tt", "tt_evaluate", "tt.evaluate_s", None, None),
    ("generators", "gaussian_dense", "generators.self_s", None, None),
    ("generators", "random_tt", "generators.self_s", None, None),
    ("generators", "random_tt_decay", "generators.self_s", None, None),
    ("generators", "noisy_low_rank", "generators.self_s", None, None),
    ("als", "als_half_sweep", "als.sweep_self_s", None, None),
    ("experiments", "run_experiment", "experiments.self_s", None, None),
    ("fileio", "load_tensor_file", "fileio.load_s",
     "fileio.bytes_read", lambda path: os.path.getsize(path)),
    ("fileio", "save_tt", "fileio.save_s", None, None),
    ("cli", "main", "cli.self_s", None, None),
)

UNATTRIBUTED = "trace.unattributed_s"

TIME_METRICS = tuple(dict.fromkeys(
    [metric for _, _, metric, _, _ in SPANS] + [UNATTRIBUTED]
))
COUNT_METRICS = tuple(dict.fromkeys(
    counter for _, _, _, counter, _ in SPANS if counter is not None
))


class Tracer:
    """Self seconds and counts per metric, summed over the traced operations."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.operations = 0
        self.wall = 0.0
        # Open spans, innermost last: [layer, seconds spent in child spans].
        self._stack = []
        self._patched = []

    def _wrap(self, fn, metric, counter, amount):
        layer = metric.split(".", 1)[0]
        stack = self._stack
        seconds = self.seconds
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counter is not None:
                counts[counter] += amount(*args, **kwargs)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                seconds[metric] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return span

    def install(self):
        """Patch every binding of the traced functions in loaded modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, name, metric, counter, amount in SPANS:
            original = getattr(
                importlib.import_module(f"ttsketch.{module}"), name
            )
            wrappers[id(original)] = (
                original, self._wrap(original, metric, counter, amount)
            )
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._patched.append((namespace, attr, value))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    @contextlib.contextmanager
    def operation(self):
        """Root span around one benchmark operation."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        frame = ["bench", 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.seconds[UNATTRIBUTED] += dt - frame[1]
            self.wall += dt
            self.operations += 1

    def per_operation(self):
        """Every time and count metric divided by the operations traced."""
        ops = max(self.operations, 1)
        out = {m: self.seconds.get(m, 0.0) / ops for m in TIME_METRICS}
        out.update({m: self.counts.get(m, 0) / ops for m in COUNT_METRICS})
        out["trace.op_s"] = self.wall / ops
        return out
