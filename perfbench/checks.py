"""Output checks computed apart from the package.

Every quantity here is derived with plain numpy from the cores and the
input, never through ``ttsketch``: train values at given entries, the dense
tensor of a train, its norm by Gram contraction, unfolding tails by numpy
SVDs, orthonormality gaps and a parser for the ``tt`` text format.  Each
``check_*`` function returns a list of failure messages, empty on success.
"""

import numpy as np

# Orthonormality and identity checks are roundoff-level; the bounds
# between errors allow for the same relative slack.
ORTHO_TOL = 1e-10
IDENTITY_TOL = 1e-9
ROUNDOFF = 1e-10


def train_at(cores, idx):
    """Values of the train with these cores at the rows of idx (N x d)."""
    v = cores[0][idx[:, 0]]
    for k, core in enumerate(cores[1:-1], start=1):
        v = np.einsum("nr,rns->ns", v, core[:, idx[:, k], :])
    return np.einsum("nr,rn->n", v, cores[-1][:, idx[:, -1]])


def train_dense(cores):
    """The dense tensor a train represents, by successive tensordot."""
    out = cores[0]
    for core in cores[1:]:
        out = np.tensordot(out, core, axes=(out.ndim - 1, 0))
    return out


def train_inner(a, b):
    """<A, B> of two trains of one shape by Gram contraction; needs no
    orthogonality."""
    g = a[0].T @ b[0]
    for ca, cb in zip(a[1:-1], b[1:-1]):
        g = np.einsum("ab,anc,bnd->cd", g, ca, cb)
    return float(np.einsum("ab,an,bn->", g, a[-1], b[-1]))


def unfolding_tails(x, rank):
    """eps_k: the best rank-`rank` error of unfolding k, for k = 1..d-1."""
    tails = []
    for k in range(1, x.ndim):
        a = x.reshape(int(np.prod(x.shape[:k])), -1)
        s = np.linalg.svd(a if a.shape[0] <= a.shape[1] else a.T,
                          compute_uv=False)
        tails.append(float(np.sqrt(np.sum(s[rank:] ** 2))))
    return np.array(tails)


def train_tails(cores, rank):
    """eps_k of the tensor a train represents, for k = 1..d-1, without
    forming it.

    A right-to-left QR sweep makes cores 2..d right-orthonormal; a
    left-to-right QR sweep then keeps the cores before edge k
    left-orthonormal, so unfolding k has the singular values of the carried
    core k, a matrix of r_{k-1} n_k rows and r_k columns.
    """
    cores = [cores[0][None], *cores[1:-1], cores[-1][..., None]]
    for k in range(len(cores) - 1, 0, -1):
        c = cores[k]
        q, r = np.linalg.qr(c.reshape(c.shape[0], -1).T)
        cores[k] = q.T.reshape(-1, *c.shape[1:])
        cores[k - 1] = np.tensordot(cores[k - 1], r.T, axes=(2, 0))
    tails = []
    for k in range(len(cores) - 1):
        c = cores[k]
        m = c.reshape(-1, c.shape[2])
        s = np.linalg.svd(m, compute_uv=False)
        tails.append(float(np.sqrt(np.sum(s[rank:] ** 2))))
        q, r = np.linalg.qr(m)
        cores[k + 1] = np.tensordot(r, cores[k + 1], axes=(1, 0))
    return np.array(tails)


def right_gap(cores):
    """Largest deviation of cores 2..d from orthonormal rows (row mode {1})."""
    gaps = [0.0]
    for core in cores[1:]:
        m = core.reshape(core.shape[0], -1)
        gaps.append(np.abs(m @ m.T - np.eye(m.shape[0])).max())
    return float(max(gaps))


def left_gap(cores):
    """Largest deviation of cores 1..d-1 from orthonormal columns."""
    gaps = [0.0]
    for core in cores[:-1]:
        m = core.reshape(-1, core.shape[-1])
        gaps.append(np.abs(m.T @ m - np.eye(m.shape[1])).max())
    return float(max(gaps))


def ranks_of(cores):
    return tuple(c.shape[-1] for c in cores[:-1])


def parse_tt(text):
    """Cores of a ``tt`` file: tag, order, shape, ranks, then row-major cores."""
    tokens = text.split()
    if not tokens or tokens[0] != "tt":
        raise ValueError("not a tt file")
    d = int(tokens[1])
    shape = [int(t) for t in tokens[2:2 + d]]
    ranks = [int(t) for t in tokens[2 + d:1 + 2 * d]]
    values = np.array(tokens[1 + 2 * d:], dtype=np.float64)
    dims = [(shape[0], ranks[0])]
    dims += [(ranks[i - 1], shape[i], ranks[i]) for i in range(1, d - 1)]
    dims.append((ranks[-1], shape[-1]))
    sizes = [int(np.prod(dim)) for dim in dims]
    if sum(sizes) != values.size:
        raise ValueError(f"tt file holds {values.size} values, "
                         f"its header asks for {sum(sizes)}")
    bounds = np.cumsum([0] + sizes)
    return [values[a:b].reshape(dim)
            for a, b, dim in zip(bounds[:-1], bounds[1:], dims)]


def read_sparse(path):
    """Shape, 0-based indices and values of a sparse coordinate file: a
    header ``sparse d n_1 .. n_d nnz``, then one 1-based entry per line."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        table = np.loadtxt(fh, ndmin=2)
    if not header or header[0] != "sparse":
        raise ValueError("not a sparse coordinate file")
    d = int(header[1])
    shape = tuple(int(t) for t in header[2:2 + d])
    if table.shape != (int(header[2 + d]), d + 1):
        raise ValueError(f"table of shape {table.shape} does not match "
                         f"the header {' '.join(header)}")
    return shape, table[:, :d].astype(np.int64) - 1, table[:, d]


def sparse_rel_error(idx, vals, cores):
    """||x - Y|| / ||x|| from ||x||^2 - 2<x, Y> + ||Y||^2, <x, Y> at the entries."""
    x2 = float(vals @ vals)
    cross = float(vals @ train_at(cores, idx))
    return float(np.sqrt(max(x2 - 2.0 * cross + train_inner(cores, cores), 0.0) / x2))


def check_ranks(name, cores, rank):
    ranks = ranks_of(cores)
    if max(ranks) > rank:
        return [f"{name}: ranks {ranks} exceed {rank}"]
    return []


def check_rounding(sketch, rounded, rank):
    """The rounded train y of the sketch Px: ranks <= r, left-orthonormal
    cores 1..d-1, <Px, y> = ||y||^2 (y is an orthogonal projection of Px),
    and ||Px - y||^2 <= sum_k eps_k(Px)^2, the TT-SVD bound."""
    fails = check_ranks("rounded train", rounded, rank)
    gap = left_gap(rounded)
    if gap > ORTHO_TOL:
        fails.append(f"rounded cores 1..d-1 not left-orthonormal (gap {gap:.3g})")
    px2 = train_inner(sketch, sketch)
    y2 = train_inner(rounded, rounded)
    cross = train_inner(sketch, rounded)
    if abs(cross - y2) > IDENTITY_TOL * px2:
        fails.append(f"rounded train is no projection of Px: <Px, y> = "
                     f"{cross!r}, ||y||^2 = {y2!r}")
    resid2 = px2 - 2.0 * cross + y2
    bound2 = float(np.sum(train_tails(sketch, rank) ** 2))
    if resid2 > bound2 * (1.0 + IDENTITY_TOL) + IDENTITY_TOL * px2:
        fails.append(f"rounding error^2 {resid2!r} above "
                     f"sum_k eps_k(Px)^2 = {bound2!r}")
    return fails


def check_sparse_sketch(idx, vals, sketch, rounded, rank):
    """Right-orthonormal cores 2..d, <x, Px> = ||W1||^2 <= ||x||^2, and the
    rounding of Px (`check_rounding`)."""
    fails = []
    gap = right_gap(sketch)
    if gap > ORTHO_TOL:
        fails.append(f"sketch cores 2..d not right-orthonormal (gap {gap:.3g})")
    x2 = float(vals @ vals)
    cross = float(vals @ train_at(sketch, idx))
    w1 = float(np.sum(sketch[0] ** 2))
    if abs(cross - w1) > IDENTITY_TOL * x2:
        fails.append(f"<x, Px> = {cross!r} differs from ||W1||^2 = {w1!r}")
    if w1 > x2 * (1.0 + IDENTITY_TOL):
        fails.append(f"||W1||^2 = {w1!r} exceeds ||x||^2 = {x2!r}")
    return fails + check_rounding(sketch, rounded, rank)


def check_dense_sketch(x, tails, sketch, rounded, rank):
    """||x - Px||^2 = ||x||^2 - ||W1||^2, ||x - y_rnd|| >= max_k eps_k, and
    the rounding of Px (`check_rounding`)."""
    fails = []
    x2 = float(np.sum(x * x))
    resid2 = float(np.sum((x - train_dense(sketch)) ** 2))
    w1 = float(np.sum(sketch[0] ** 2))
    if abs(resid2 - (x2 - w1)) > IDENTITY_TOL * x2:
        fails.append(f"||x - Px||^2 = {resid2!r} differs from "
                     f"||x||^2 - ||W1||^2 = {x2 - w1!r}")
    err = float(np.linalg.norm(x - train_dense(rounded)))
    if err < tails.max() * (1.0 - IDENTITY_TOL):
        fails.append(f"randomized error {err!r} below the best unfolding "
                     f"tail {tails.max()!r}")
    return fails + check_rounding(sketch, rounded, rank)


def check_dense_sweep(x, tails, det, rank):
    """max_k eps_k <= ||x - y_det|| <= (sum_k eps_k^2)^(1/2)."""
    fails = []
    err = float(np.linalg.norm(x - train_dense(det)))
    low = float(tails.max())
    high = float(np.sqrt(np.sum(tails ** 2)))
    if not low * (1.0 - IDENTITY_TOL) <= err <= high * (1.0 + IDENTITY_TOL):
        fails.append(f"deterministic error {err!r} outside "
                     f"[{low!r}, {high!r}]")
    return fails + check_ranks("deterministic train", det, rank)


def check_sample_records(records):
    """Ratios above roundoff >= 1/sqrt(d-1); exact recovery at tau = 0."""
    fails = []
    for rec, d in records:
        label = f"{rec.experiment} param={rec.param} sample={rec.sample}"
        if rec.experiment == "noise" and rec.param == 0.0:
            if max(rec.eps_det, rec.eps_rnd) > ROUNDOFF:
                fails.append(f"{label}: no exact recovery at tau = 0 "
                             f"(eps_det {rec.eps_det!r}, eps_rnd {rec.eps_rnd!r})")
        elif rec.eps_det > ROUNDOFF:
            floor = 1.0 / np.sqrt(d - 1)
            if rec.ratio < floor * (1.0 - IDENTITY_TOL):
                fails.append(f"{label}: ratio {rec.ratio!r} below "
                             f"1/sqrt(d-1) = {floor!r}")
    return fails


def check_cli_train(idx, vals, cores, shape, rank, max_rel_error):
    """Shape, ranks <= r, left-orthonormal cores 1..d-1, small error."""
    got = tuple([cores[0].shape[0]] + [c.shape[1] for c in cores[1:]])
    if got != tuple(shape):
        return [f"written train has shape {got}, expected {tuple(shape)}"]
    fails = check_ranks("written train", cores, rank)
    gap = left_gap(cores)
    if gap > ORTHO_TOL:
        fails.append(f"written cores 1..d-1 not left-orthonormal (gap {gap:.3g})")
    err = sparse_rel_error(idx, vals, cores)
    if err > max_rel_error:
        fails.append(f"relative error {err!r} above {max_rel_error!r}")
    return fails
