"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (explicit
index loops, Gram-matrix eigenvalues via Jacobi rotations, python-int
bit mixing) and shares no code with the package, so agreement between
the two is meaningful.  The exceptions keep the package's arithmetic so
that each can be compared bit for bit: ref_randomized_sparse changes only
how the sketch rows are drawn, ref_draw_tail_cores right-orthogonalizes
by hand with the package's RQ, and ref_orthogonalize_right and
ref_tt_round are the train operations before their refolds became
reshapes, kept word for word.
ref_resolve_config is the experiment driver's earlier per-study if chain,
kept word for word as the reference for the table that replaced it.
peak_bytes is the allocation peak that the memory bounds measure.
"""

import math
import tracemalloc

import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_GAMMA2 = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def peak_bytes(fn):
    """Largest total of traced allocations while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ref_mix(z):
    """splitmix64 finalizer, transcribed independently from the constants."""
    z &= _MASK
    z = (z ^ (z >> 30)) * _M1 & _MASK
    z = (z ^ (z >> 27)) * _M2 & _MASK
    return z ^ (z >> 31)


def ref_key(seed):
    return ref_mix((seed + _PHI) & _MASK)


def ref_subkey(key, index):
    return ref_mix((key + (index + 1) * _GAMMA2) & _MASK)


def ref_value(key, counter):
    return ref_mix((key + ((counter + 1) * _PHI)) & _MASK)


def ref_normal(key, i):
    """Box-Muller normal draw i of the stream with the given key."""
    v1 = ref_value(key, 2 * i)
    v2 = ref_value(key, 2 * i + 1)
    u1 = ((v1 >> 11) + 1) * 2.0 ** -53
    u2 = (v2 >> 11) * 2.0 ** -53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def ref_normals_vec(key, counters):
    """Normals at the given counters in one vectorized pass.

    The unchunked stream: every intermediate (both counter arrays, both
    raw outputs, both uniforms) is built at full size, with the same
    integer and float operations as ref_normal.
    """
    def values(c):
        z = np.uint64(key) + (c + np.uint64(1)) * np.uint64(_PHI)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
        return z

    c2 = np.asarray(counters).astype(np.uint64) * np.uint64(2)
    v1 = values(c2)
    v2 = values(c2 + np.uint64(1))
    u1 = ((v1 >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
    u2 = (v2 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def ref_keep_last(idx):
    """Row numbers of the last draw of each distinct index row, ascending."""
    last = {}
    for i, row in enumerate(idx):
        last[tuple(int(v) for v in row)] = i
    return sorted(last.values())


def ref_first_distinct(rows, count):
    """The first `count` distinct rows in draw order, or None if fewer."""
    seen = set()
    keep = []
    for row in rows:
        pos = tuple(int(v) for v in row)
        if pos not in seen:
            seen.add(pos)
            keep.append(pos)
            if len(keep) == count:
                return np.array(keep, dtype=np.int64)
    return None


def ref_canonical(idx, values):
    """Sparse storage the obvious way: drop zeros, sort the rows as tuples.

    Returns (idx, values) in row-major order, or raises the package's
    duplicate message when two stored rows are equal.
    """
    rows = [(tuple(int(i) for i in row), float(v))
            for row, v in zip(idx, values) if v != 0.0]
    rows.sort(key=lambda rv: rv[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise ValueError("duplicate multi-indices in sparse tensor")
    d = np.asarray(idx).shape[1]
    return (np.array([r for r, _ in rows], dtype=np.int64).reshape(-1, d),
            np.array([v for _, v in rows], dtype=np.float64))


def ref_index(key, counter, bound):
    return ((ref_value(key, counter) >> 11) * bound) >> 53


def ref_step_heads(idx, shape):
    """Per-step sketch counters of the sparse path, via python-int codes.

    Yields (j, mu, heads, p_mod) for the steps j = d..2: each entry's
    full row-major position is a python int, mu = code % n_j and the head
    code // n_j are peeled off one mode at a time, and the heads and the
    leading dimension p_mod are reduced mod 2**64 only at the end.
    """
    d = len(shape)
    codes = []
    for row in idx:
        pos = 0
        for k in range(d):
            pos = pos * int(shape[k]) + int(row[k])
        codes.append(pos)
    space = 1
    for n in shape:
        space *= int(n)
    for j in range(d, 1, -1):
        n_j = int(shape[j - 1])
        space //= n_j
        mu = np.array([c % n_j for c in codes], dtype=np.int64)
        codes = [c // n_j for c in codes]
        heads = np.array([c % 2 ** 64 for c in codes], dtype=np.uint64)
        yield j, mu, heads, space % 2 ** 64


def ref_randomized_sparse(xs, sketch, rng):
    """Cores of the sparse randomized sweep, drawing one row per entry.

    The per-entry draw: every step asks gammas_at for the Gaussian row of
    each stored entry, so entries sharing a prefix draw the same row again.
    The bit-identity tests compare the package's one-row-per-prefix draw
    with it, so unlike the rest of this module it runs the package's own
    kernels, RQ and prefix codes: only the draw (each entry maps to its own
    row) and the first core's scatter-add (np.add.at here) may differ.
    `sketch` is one width per edge.
    """
    from ttsketch import _kernels as K
    from ttsketch.decompose import _prefix_codes
    from ttsketch.linalg import rq_row_orthonormal

    shape = xs.shape
    d = len(shape)
    heads = _prefix_codes(xs.idx, shape)
    vals = xs.values[:, None]
    cores = [None] * d
    lead = 1
    for n in shape:
        lead *= int(n)
    t_dim = 1
    order = np.arange(xs.nnz)
    for j in range(d, 1, -1):
        n_j = shape[j - 1]
        s_prev = sketch[j - 2]
        lead //= n_j
        mu = xs.idx[order, j - 1]
        by_mode = np.argsort(mu, kind="stable")
        order = order[by_mode]
        mu = mu[by_mode]
        vals = vals[by_mode]
        key = rng.substream(j).key
        gam = K.gammas_at(
            heads[j - 1][order], s_prev, np.uint64(lead % 2 ** 64), np.uint64(key)
        )
        a_by_mode = K.sparse_sketch(mu, vals, gam, np.arange(len(mu)), n_j)
        a = np.ascontiguousarray(a_by_mode.transpose(1, 0, 2)).reshape(
            s_prev, n_j * t_dim
        )
        _, q = rq_row_orthonormal(a)
        t_next = q.shape[0]
        cores[j - 1] = q if j == d else q.reshape(t_next, n_j, t_dim)
        w_by_mode = np.ascontiguousarray(
            q.reshape(t_next, n_j, t_dim).transpose(1, 0, 2)
        )
        vals = K.sparse_update(mu, vals, w_by_mode)
        t_dim = t_next
    w1 = np.zeros((shape[0], t_dim))
    np.add.at(w1, xs.idx[order, 0], vals)
    cores[0] = w1
    return cores


def ref_draw_tail_cores(shape, ranks, rng):
    """Random cores 2..d of the ALS half sweep, right-orthogonalized by hand.

    Core j is drawn from substream j; the RQ sweep runs from core d down to
    core 2 and drops the leftover triangular factor.  Entry 0 is None.  It
    uses the package's RQ, so the package's draw through the train's own
    orthogonalization can be compared with it bit for bit.
    """
    from ttsketch.linalg import rq_row_orthonormal
    from ttsketch.tt import left_unfold, right_unfold

    d = len(shape)
    cores = [None] * d
    for j in range(2, d):
        cores[j - 1] = rng.substream(j).normals(
            (ranks[j - 2], shape[j - 1], ranks[j - 1])
        )
    cores[d - 1] = rng.substream(d).normals((ranks[d - 2], shape[d - 1]))
    for j in range(d, 2, -1):
        r_, q = rq_row_orthonormal(right_unfold(cores[j - 1]))
        cores[j - 1] = q if j == d else q.reshape(cores[j - 1].shape)
        prev = cores[j - 2]
        cores[j - 2] = (left_unfold(prev) @ r_).reshape(prev.shape)
    _, q = rq_row_orthonormal(right_unfold(cores[1]))
    cores[1] = q if d == 2 else q.reshape(cores[1].shape)
    return cores


# Right orthogonalization and rounding as they were while the boundary
# cores had their own unfold and refold branches and the input cores were
# copied first: word for word apart from the ref_ names, kept as the
# bit-for-bit reference of the reshape-only rewrite.

def ref_left_unfold(core):
    """Row modes {1,2}: (r_in*n, r_out) for interior cores, identity for W_1."""
    if core.ndim == 2:
        return core
    r_in, n, r_out = core.shape
    return core.reshape(r_in * n, r_out)


def ref_right_unfold(core):
    """Row mode {1}: (r_in, n*r_out) for interior cores, identity for W_d."""
    if core.ndim == 2:
        return core
    r_in, n, r_out = core.shape
    return core.reshape(r_in, n * r_out)


def _ref_refold_left(mat, core_shape):
    if len(core_shape) == 2:
        return mat
    r_in, n, _ = core_shape
    return mat.reshape(r_in, n, mat.shape[1])


def _ref_refold_right(mat, core_shape):
    if len(core_shape) == 2:
        return mat
    _, n, r_out = core_shape
    return mat.reshape(mat.shape[0], n, r_out)


def ref_orthogonalize_right(t):
    """Equal train whose cores 2..d have orthonormal rows."""
    from ttsketch.linalg import rq_row_orthonormal
    from ttsketch.tt import TTTensor

    cores = [c.copy() for c in t.cores]
    d = len(cores)
    for i in range(d - 1, 0, -1):
        mat = ref_right_unfold(cores[i])
        r, q = rq_row_orthonormal(mat)
        cores[i] = _ref_refold_right(q, (q.shape[0],) + cores[i].shape[1:])
        prev = ref_left_unfold(cores[i - 1])
        cores[i - 1] = _ref_refold_left(prev @ r, cores[i - 1].shape[:-1] + (r.shape[1],))
    return TTTensor(cores, ortho="right")


def ref_tt_round(t, target_ranks):
    """Truncate a train to the target ranks.

    Right-orthogonalizes first, then runs one left-to-right sweep of
    rank-truncated SVDs, so each local cut is taken against an
    orthonormal environment.  The result is left-orthogonal with ranks
    min(target, input rank) per edge.
    """
    from ttsketch.linalg import truncated_svd
    from ttsketch.tt import TTTensor, clip_ranks

    target = clip_ranks(t.shape, target_ranks)
    work = ref_orthogonalize_right(t)
    cores = work.cores
    d = len(cores)
    for i in range(d - 1):
        mat = ref_left_unfold(cores[i])
        u, s, vt, _ = truncated_svd(mat, target[i])
        cores[i] = _ref_refold_left(u, cores[i].shape[:-1] + (u.shape[1],))
        carry = s[:, None] * vt
        nxt = ref_right_unfold(cores[i + 1])
        cores[i + 1] = _ref_refold_right(carry @ nxt, (carry.shape[0],) + cores[i + 1].shape[1:])
    return TTTensor(cores, ortho="left")


def ref_fix_svd_signs(u, vt):
    """SVD sign fix column by column: the largest |entry| of each column
    of u (the first one on ties) made nonnegative, the row of vt along."""
    u = u.copy()
    vt = vt.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        i = np.argmax(np.abs(col))
        if col[i] < 0:
            u[:, j] = -col
            vt[j, :] = -vt[j, :]
    return u, vt


def _ref_fill(cfg, **defaults):
    from dataclasses import replace

    updates = {k: v for k, v in defaults.items() if getattr(cfg, k) is None}
    return replace(cfg, **updates)


def ref_resolve_config(cfg):
    """Apply per-experiment defaults and build the parameter grid."""
    from ttsketch.experiments import (
        NOISE_GRID, ORDER_GRID, ORDER_GRID_FULL, OVERSAMPLING_GRID,
        RUNTIME_GRID,
    )

    EXPERIMENT_NAMES = (
        "noise", "oversampling", "oversampling-decay",
        "order", "order-decay", "runtime", "als",
    )
    _fill = _ref_fill
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


def ref_sparse_sketch(mu, vals, gam, n_j):
    """Per-entry scatter: a[mu[i]] += outer(gam[i], vals[i])."""
    a = np.zeros((n_j, gam.shape[1], vals.shape[1]))
    contrib = gam[:, :, None] * vals[:, None, :]
    np.add.at(a, mu, contrib)
    return a


def ref_sparse_update(mu, vals, w):
    """Per-entry product: row i is w[mu[i]] @ vals[i]."""
    return np.einsum("ikq,iq->ik", w[mu], vals)


def naive_matricize(x, row_modes):
    """Index-map unfolding: loop every entry, place it by mixed radix."""
    x = np.asarray(x)
    d = x.ndim
    col_modes = [m for m in range(d) if m not in row_modes]
    rows = 1
    for m in row_modes:
        rows *= x.shape[m]
    cols = 1
    for m in col_modes:
        cols *= x.shape[m]
    out = np.zeros((rows, cols))
    for idx in np.ndindex(*x.shape):
        r = 0
        for m in row_modes:
            r = r * x.shape[m] + idx[m]
        c = 0
        for m in col_modes:
            c = c * x.shape[m] + idx[m]
        out[r, c] = x[idx]
    return out


def naive_contract(x, x_modes, y, y_modes):
    """Nested-loop contraction over the paired modes."""
    x = np.asarray(x)
    y = np.asarray(y)
    x_free = [m for m in range(x.ndim) if m not in x_modes]
    y_free = [m for m in range(y.ndim) if m not in y_modes]
    out_shape = [x.shape[m] for m in x_free] + [y.shape[m] for m in y_free]
    sum_shape = [x.shape[m] for m in x_modes]
    out = np.zeros(out_shape) if out_shape else np.zeros(())
    for free in np.ndindex(*out_shape):
        total = 0.0
        for bound in np.ndindex(*sum_shape):
            xi = [0] * x.ndim
            yi = [0] * y.ndim
            for pos, m in enumerate(x_free):
                xi[m] = free[pos]
            for pos, m in enumerate(y_free):
                yi[m] = free[len(x_free) + pos]
            for pos, (a, b) in enumerate(zip(x_modes, y_modes)):
                xi[a] = bound[pos]
                yi[b] = bound[pos]
            total += x[tuple(xi)] * y[tuple(yi)]
        out[free] = total
    return out


def naive_inner(x, y):
    return float(np.dot(np.asarray(x).ravel(), np.asarray(y).ravel()))


def naive_sparse_dense(shape, idx, values):
    out = np.zeros(shape)
    for row, v in zip(idx, values):
        out[tuple(int(i) for i in row)] = v
    return out


def naive_tt_evaluate(cores):
    """Entry-by-entry evaluation by summing over all rank indices."""
    d = len(cores)
    shape = [cores[0].shape[0]]
    shape += [c.shape[1] for c in cores[1:-1]]
    shape.append(cores[-1].shape[1])
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        v = cores[0][idx[0], :]
        for i in range(1, d - 1):
            v = v @ cores[i][:, idx[i], :]
        out[idx] = float(v @ cores[-1][:, idx[-1]])
    return out


def jacobi_eigenvalues(a, sweeps=60, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] ** 2
        if math.sqrt(2.0 * off) <= tol * max(1.0, np.linalg.norm(np.diag(a))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def gram_singular_values(a):
    """Singular values of a via Jacobi eigenvalues of the smaller Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    g = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    eig = jacobi_eigenvalues(g)
    return np.sqrt(np.clip(eig, 0.0, None))


def best_rank_tail(a, rank):
    """Frobenius error of the best rank-`rank` approximation of a matrix."""
    s = gram_singular_values(a)
    return float(math.sqrt(max(np.sum(s[rank:] ** 2), 0.0)))


def unfolding_tails(x, ranks):
    """Best-approximation tails of every leading unfolding at the given ranks."""
    x = np.asarray(x)
    d = x.ndim
    tails = []
    for i in range(1, d):
        m = naive_matricize(x, list(range(i)))
        tails.append(best_rank_tail(m, ranks[i - 1]))
    return tails
