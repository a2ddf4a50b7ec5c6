"""Acceptance suite: one test per criterion, each printing its verdict.

Every test prints a single [PASS]/[FAIL] line with the measured numbers
(straight to the terminal, bypassing capture) before asserting, so a
full run reads as a checklist.
"""

import math

import numpy as np

import oracles as o
from gates import (
    chord_slope_ratio, linear_growth_bound, paired_not_lower,
    quadratic_chord_ratio,
)
from ttsketch import (
    RngStream, als_half_sweep, clip_ranks,
    gaussian_dense, gaussian_sparse, random_tt, randomized_tt_svd,
    relative_error, tt_evaluate, tt_svd_truncated,
)
from ttsketch.decompose import compute_eta
from ttsketch.experiments import (
    ExperimentConfig, _runtime_sample, resolve_config, run_experiment,
)
from ttsketch.linalg import svd


def _verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_c01_randomized_exact_recovery(capsys):
    worst = 0.0
    trial = 0
    rng = RngStream(201)
    for d in (3, 4, 5, 6):
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                for rep in (0, 1, 2):
                    if trial >= 100:
                        break
                    stream = rng.substream(trial)
                    x = tt_evaluate(random_tt((n,) * d, r, stream.substream(0)))
                    t, _ = randomized_tt_svd(
                        x, clip_ranks(x.shape, r), stream.substream(1)
                    )
                    worst = max(worst, relative_error(x, t))
                    trial += 1
    _verdict(
        capsys, trial == 100 and worst <= 1e-10,
        "C01 exact recovery at matching sketch rank",
        f"{trial} trials, worst relative error {worst:.3e} (limit 1e-10)",
    )


def test_c02_deterministic_quasi_optimality(capsys):
    shapes = [(3, 4, 2, 3), (4, 4, 4), (2, 3, 4, 2, 3), (4, 3, 4, 3), (2, 2, 3, 2, 4)]
    rng = RngStream(202)
    ok = True
    detail = ""
    for trial in range(100):
        shape = shapes[trial % len(shapes)]
        ranks = clip_ranks(shape, 1 + trial % 3)
        x = gaussian_dense(shape, rng.substream(trial))
        t, _ = tt_svd_truncated(x, ranks)
        err = relative_error(x, t) * np.linalg.norm(x.ravel())
        tails = []
        for i in range(1, len(shape)):
            s = np.linalg.svd(o.matricize(x, tuple(range(i))), compute_uv=False)
            tails.append(math.sqrt(np.sum(s[ranks[i - 1]:] ** 2)))
        lower = max(tails) - 1e-10
        upper = math.sqrt(len(shape) - 1) * math.sqrt(sum(v**2 for v in tails)) + 1e-10
        if not (lower <= err <= upper):
            ok = False
            detail = f"trial {trial}: err {err:.6g} outside [{lower:.6g}, {upper:.6g}]"
            break
    if ok:
        detail = "100 trials inside [max tail, sqrt(d-1)*rss of tails]"
    _verdict(capsys, ok, "C02 deterministic sweep quasi-optimality", detail)


def test_c03_noise_experiment(capsys):
    records = run_experiment(
        ExperimentConfig("noise", tau=0.05, samples=32, seed=301)
    )
    eps = [r.eps_det for r in records]
    ratios = [r.ratio for r in records]
    mean_ratio = float(np.mean(ratios))
    ok = (len(records) == 32
          and all(0.045 <= e <= 0.055 for e in eps)
          and 1.3 <= mean_ratio <= 2.0)
    _verdict(
        capsys, ok, "C03 noise study at tau=0.05",
        f"eps_det in [{min(eps):.4f}, {max(eps):.4f}] (need [0.045, 0.055]); "
        f"mean ratio {mean_ratio:.3f} (need [1.3, 2.0])",
    )


def test_c04_oversampling_monotonicity(capsys):
    means = {}
    for p in (2, 25):
        records = run_experiment(
            ExperimentConfig("oversampling-decay", p=p, samples=32, seed=302)
        )
        means[p] = float(np.mean([r.ratio for r in records]))
    ok = means[25] < means[2]
    _verdict(
        capsys, ok, "C04 error factor decreases with oversampling",
        f"mean ratio p=2: {means[2]:.3f}, p=25: {means[25]:.3f}",
    )


def test_c05_order_stability(capsys):
    means = {}
    for d in (5, 8, 11):
        records = run_experiment(
            ExperimentConfig("order", d=d, samples=16, seed=303)
        )
        means[d] = float(np.mean([r.ratio for r in records]))
    ok = means[11] <= 1.3 * means[8]
    _verdict(
        capsys, ok, "C05 error factor stable in the order",
        f"mean ratio d=5: {means[5]:.3f}, d=8: {means[8]:.3f}, "
        f"d=11: {means[11]:.3f} (need d=11 <= 1.3 * d=8)",
    )


def test_c06_sparse_runtime_scaling(capsys):
    # The runtime study's samples at each order, as run_experiment draws
    # them, but interleaved: sample si times the orders in an order rotated
    # by si, so drift during the test reaches every order alike rather
    # than the last one alone.
    orders = (10, 20, 40, 60)
    configs = {d: resolve_config(ExperimentConfig("runtime", d=d, samples=5, seed=304))[0]
               for d in orders}
    samples = {d: [] for d in orders}
    for si in range(5):
        stream = RngStream(304).substream(0, si)
        for k in range(len(orders)):
            d = orders[(si + k) % len(orders)]
            record, = _runtime_sample(configs[d], d, si, stream)
            samples[d].append(record.t_rnd_ms)
    times = {d: float(np.median(samples[d])) for d in orders}
    ds = np.array(sorted(times), dtype=np.float64)
    ts = np.array([times[int(d)] for d in ds])
    slope, intercept = np.polyfit(ds, ts, 1)
    fitted = slope * ds + intercept
    ss_res = float(np.sum((ts - fitted) ** 2))
    ss_tot = float(np.sum((ts - ts.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    # The widths clamp near both boundaries (identity steps on the right,
    # steps with fewer rows than the width on the left), so the time is
    # affine in d with two fixed, cheaper ramps, not proportional to d.  The
    # chord-over-first-step slope ratio cancels that offset: 1 for linear
    # growth, (60 + 10) / (20 + 10) for quadratic growth.
    growth = chord_slope_ratio(ds, ts)
    bound = linear_growth_bound(ds)
    ok = r2 >= 0.9 and growth <= bound
    _verdict(
        capsys, ok, "C06 sketch time linear in the order",
        f"times ms {[round(times[d], 2) for d in (10, 20, 40, 60)]}; "
        f"chord/first-step slope {growth:.2f} (limit {bound:.2f}, "
        f"quadratic {quadratic_chord_ratio(ds):.2f}); "
        f"R^2 = {r2:.4f} (need >= 0.9)",
    )


def test_c07_sparse_dense_equivalence(capsys):
    worst = 0.0
    rng = RngStream(305)
    for trial in range(50):
        d = 3 + trial % 10  # orders 3..12
        shape = (2,) * d
        stream = rng.substream(trial)
        nnz = min(30 + trial, 2**d)
        xs = gaussian_sparse(shape, nnz, stream.substream(0))
        sketch = clip_ranks(shape, 5)
        a, _ = randomized_tt_svd(xs, sketch, stream.substream(1))
        b, _ = randomized_tt_svd(xs.to_dense(), sketch, stream.substream(1))
        for ca, cb in zip(a.cores, b.cores):
            worst = max(worst, float(np.max(np.abs(ca - cb))))
    _verdict(
        capsys, worst <= 1e-10,
        "C07 sparse path equals dense path",
        f"50 trials d=3..12, worst core deviation {worst:.3e} (limit 1e-10)",
    )


def test_c08_range_finder_bound(capsys):
    # Fixed decaying-spectrum matrix; Frobenius-form bound at t=u=2, p=6.
    # The range finder is the matrix case of the sweep: its one step
    # sketches the rows of a at width r + p, and the last core q has
    # orthonormal rows spanning the sketch's row space, so the train
    # evaluates to a q^T q and its error is ||a - a q^T q||.  That is the
    # range finder of a^T; a and a^T share their singular values, so the
    # rank-r tail, and with it the bound eta * tail, are those of a.
    n = 32
    r, p, t, u = 6, 6, 2.0, 2.0
    sigma = (1.0 + np.arange(n)) ** -2.0
    rng = RngStream(306)
    ub, _ = np.linalg.qr(rng.substream(0).normals((n, n)))
    vb, _ = np.linalg.qr(rng.substream(1).normals((n, n)))
    a = ub @ np.diag(sigma) @ vb.T
    tail = math.sqrt(np.sum(sigma[r:] ** 2))
    bound = compute_eta(r, p, t=t, u=u) * tail
    errors = []
    for trial in range(200):
        train, _ = randomized_tt_svd(a, r + p, rng.substream(2, trial))
        q = train.cores[1]
        errors.append(np.linalg.norm(a - (a @ q.T) @ q))
    hits = sum(e <= bound for e in errors)
    _verdict(
        capsys, hits >= 190,
        "C08 sketched range bound holds statistically",
        f"{hits}/200 trials within eta*tail (need >= 190), "
        f"worst {max(errors) / tail:.3f}*tail",
    )


def test_c09_projector_identity(capsys):
    worst = 0.0
    rng = RngStream(307)
    for trial in range(100):
        d = 3 + trial % 4
        n = 2 + trial % 3
        stream = rng.substream(trial)
        x = gaussian_dense((n,) * d, stream.substream(0))
        t, _ = randomized_tt_svd(
            x, clip_ranks(x.shape, 2 + trial % 3), stream.substream(1)
        )
        y = tt_evaluate(t)
        lhs = float(np.sum(x**2))
        rhs = float(np.sum(y**2)) + float(np.sum((x - y) ** 2))
        worst = max(worst, abs(lhs - rhs) / lhs)
    _verdict(
        capsys, worst <= 1e-10,
        "C09 evaluation acts as an orthogonal projector",
        f"100 instances, worst Pythagoras defect {worst:.3e} (limit 1e-10)",
    )


def test_c10_als_comparison(capsys):
    # The two methods coincide for matrices and no ordering is promised for
    # d > 2, so "at least" is a paired one-sided test on the per-target
    # differences als - rnd: it fails only when ALS is significantly lower.
    # Family-wise level 1%, Bonferroni over the p grid.
    grid = (2, 10, 25)
    tests = {}
    for p in grid:
        records = run_experiment(ExperimentConfig("als", p=p, samples=16, seed=308))
        als = {r.sample: r.ratio for r in records if r.experiment == "als"}
        rnd = {r.sample: r.ratio for r in records if r.experiment == "als-rnd"}
        order = sorted(als)
        tests[p] = paired_not_lower(
            [als[s] for s in order], [rnd[s] for s in order], 0.01 / len(grid)
        )
    rng = RngStream(309)
    x = tt_evaluate(random_tt((4,) * 5, 3, rng.substream(0)))
    t, _ = als_half_sweep(x, clip_ranks(x.shape, 3), rng.substream(1))
    exact_err = relative_error(x, t)
    ok = exact_err <= 1e-10 and all(r.ok for r in tests.values())
    detail = "; ".join(
        f"p={p}: mean(als-rnd) {r.mean:+.3g}, se {r.se:.2g}, t {r.t:+.2f}"
        for p, r in tests.items()
    )
    critical = tests[grid[0]].critical
    _verdict(
        capsys, ok, "C10 half-sweep error factor at least the sketched one",
        f"{detail} (need t >= {-critical:.2f}); "
        f"exact-input als error {exact_err:.3e} (limit 1e-10)",
    )


def test_c11_oracle_bundle(capsys):
    rng = RngStream(310)
    checks = []
    # nested-loop contraction
    x = rng.substream(0).normals((2, 3, 2))
    y = rng.substream(1).normals((3, 2, 2))
    got = o.contract(x, (1, 2), y, (0, 2))
    checks.append(float(np.max(np.abs(got - o.naive_contract(x, [1, 2], y, [0, 2])))))
    # flatten-and-dot inner product
    u = rng.substream(2).normals((3, 3, 3))
    v = rng.substream(3).normals((3, 3, 3))
    checks.append(abs(o.inner(u, v) - o.naive_inner(u, v)))
    # Gram-eigenvalue singular values
    a = rng.substream(4).normals((5, 3))
    checks.append(float(np.max(np.abs(svd(a)[1] - o.gram_singular_values(a)))))
    # densify-and-decompose round trip
    t = random_tt((3, 3, 3, 3), 2, rng.substream(5))
    xd = tt_evaluate(t)
    td, report = tt_svd_truncated(xd, 2)
    checks.append(relative_error(xd, td))
    checks.append(float(np.max(np.abs(tt_evaluate(td) - o.naive_tt_evaluate(td.cores)))))
    worst = max(checks)
    _verdict(
        capsys, worst <= 1e-10,
        "C11 oracle bundle agreement",
        f"five oracle comparisons, worst deviation {worst:.3e} (limit 1e-10)",
    )
