"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (explicit
index loops, Gram-matrix eigenvalues via Jacobi rotations, python-int
bit mixing) and shares no code with the package, so agreement between
the two is meaningful.  The exceptions keep the package's arithmetic so
that each can be compared bit for bit: ref_normals_vec takes its cosine
by the package's tan identity (ref_normals_cos_vec takes it by np.cos,
to bound the distance between the two), ref_sketch_rows_vec forms the
sketch's pairs with the package's float operations in its order
(ref_sketch_entry takes them by python ints and math.cos / math.sin),
ref_randomized_sparse runs the package's kernels but draws one sketch
column per row through ref_sketch_rows_vec and merges the rows that share
a prefix by its own grouping (or, with merge=False, keeps one row per
entry), ref_randomized_dense is the
dense sweep in its own loop, drawing through ref_sketch_rows_vec, kept
word for word but for its identity steps and its clamp of each width to
the unfolding's rows (both keep, with draw_all, the sweep that draws at
every step),
ref_als_half_sweep is the ALS half sweep in its own loop, with the
package's QR, kept word for word as the reference of the shared loop's,
ref_draw_tail_cores right-orthogonalizes by hand with the package's RQ,
and ref_orthogonalize_right and ref_tt_round are the train operations
before their refolds became reshapes, kept word for word but for
ref_tt_round trusting a right-orthogonal train.  ref_svd_sweep is the deterministic sweep
as it was before it took its steps from the R factor: one full SVD per
unfolding, the remainder carried as s * vt, kept word for word.
ref_resolve_config is the experiment driver's earlier per-study if chain,
kept word for word as the reference for the table that replaced it, and
ref_load_sparse is the sparse file reader before it read its index
tokens by their digits or walked the text in chunks, kept word for word
with its own whole-text split and the package's first_bad_entry.
matricize, contract and inner are the dense mode-wise helpers the tests
unfold and contract with, checked against naive_matricize, naive_contract
and naive_inner.
peak_bytes is the allocation peak that the memory bounds measure,
binary_class_b builds the sparse input that row-major codes mod 2**64
could not tell apart, and normals_at draws the package's stream at explicit counters through its
chunk kernel, for counters that standard_normals does not reach.
"""

import math
import struct
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


def _ref_split(text, tag, extra):
    """The shape, the extra(d) header ints and the body of a `tag` file.

    Splits the text once and deletes the header (tag, order d, d mode
    sizes, extra(d) ints) from the front of the token list in place; the
    rest of the list is the body.
    """
    from ttsketch.tensor import check_shape

    what = "tensor train" if tag == "tt" else f"{tag} tensor"
    tokens = text.split()

    def ints(start, count):
        out = []
        for tok in tokens[start:start + count]:
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"expected an integer in {tag} header, got {tok!r}") from None
        if len(out) < count:
            raise ValueError(f"truncated {what} data")
        return out

    if tokens[:1] != [tag]:
        raise ValueError(f"not a {what} file" if tokens else f"truncated {what} data")
    d = ints(1, 1)[0]
    if d < 1:
        raise ValueError("order must be positive")
    shape = check_shape(ints(2, d))
    head = ints(2 + d, extra(d))
    del tokens[:2 + d + len(head)]
    return shape, head, tokens


def _ref_cut(tokens, count, what):
    """Keep the first `count` body tokens in place; True if more followed."""
    if len(tokens) < count:
        raise ValueError(f"truncated {what} data")
    trailing = len(tokens) > count
    del tokens[count:]
    return trailing


def ref_load_sparse(text):
    """The sparse reader as it was before it read its index tokens from
    their digits: one split of the whole text, one np.array call for the
    whole index table and per-mode range checks, kept word for word."""
    from ttsketch.fileio import _first_bad_entry
    from ttsketch.tensor import SparseTensor

    shape, (nnz,), tokens = _ref_split(text, "sparse", lambda d: 1)
    if nnz < 0:
        raise ValueError("entry count must be nonnegative")
    # The entries as one table: d 1-based indices and a value per entry,
    # cut out of the token list in place rather than copied from it, and
    # converted in one shot each; any failure takes the slow path, which
    # names the first entry at fault.  Trailing tokens are reported only
    # for a table that loads.
    d = len(shape)
    trailing = _ref_cut(tokens, nnz * (d + 1), "sparse tensor")
    values = tokens[d::d + 1]
    del tokens[d::d + 1]
    try:
        values = np.array(values, dtype=np.float64)
        idx = np.array(tokens, dtype=np.int64).reshape(nnz, d)
        ok = (np.all(idx.min(axis=0, initial=1) >= 1)
              and np.all(idx.max(axis=0, initial=1) <= shape)
              and np.isfinite(values.min(initial=0.0))
              and np.isfinite(values.max(initial=0.0)))
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        raise _first_bad_entry(tokens, values, shape)
    del tokens
    if trailing:
        raise ValueError("trailing tokens in sparse tensor data")
    idx -= 1
    return SparseTensor(shape, idx, values)


def normals_at(key, counters):
    """Normals of the stream `key` at explicit counters, _CHUNK at a time."""
    from ttsketch import _kernels as K

    out = np.empty(counters.shape[0])
    for lo in range(0, counters.shape[0], K._CHUNK):
        K._normals_into(key, counters[lo:lo + K._CHUNK], out[lo:lo + K._CHUNK])
    return out


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


def _ref_mix_vec(z):
    """ref_mix on a uint64 array, wrapping as python ints reduced mod 2**64."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def _ref_values_vec(key, c):
    """ref_value at the uint64 counters c."""
    return _ref_mix_vec(np.uint64(key) + (c + np.uint64(1)) * np.uint64(_PHI))


def _ref_uniforms_vec(key, counters):
    """Both Box-Muller uniforms at the given counters, as in ref_normal."""
    c2 = np.asarray(counters).astype(np.uint64) * np.uint64(2)
    v1 = _ref_values_vec(key, c2)
    v2 = _ref_values_vec(key, c2 + np.uint64(1))
    u1 = ((v1 >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
    u2 = (v2 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return u1, u2


def ref_normals_vec(key, counters):
    """Normals at the given counters in one vectorized pass.

    The unchunked stream: every intermediate (both counter arrays, both
    raw outputs, both uniforms) is built at full size, with the same
    integer and float operations, in the same order, as the package's
    chunked kernel: the cosine is (1 - t^2) / (1 + t^2) at t = tan(pi u2).
    """
    u1, u2 = _ref_uniforms_vec(key, counters)
    t = np.tan(math.pi * u2)
    t2 = t * t
    return np.sqrt(-2.0 * np.log(u1)) * ((1.0 - t2) / (1.0 + t2))


def ref_normals_cos_vec(key, counters):
    """ref_normals_vec with the cosine taken by np.cos(2 pi u2) directly."""
    u1, u2 = _ref_uniforms_vec(key, counters)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


# The sketch's layout: prefix codes by chained mixing, one substream per
# sketch row, read at the code, and one Box-Muller pair per two rows.

def ref_code(prefix):
    """Code of an index prefix: h = 0, then h = mix(h + (i + 1) phi) per index."""
    h = 0
    for i in prefix:
        h = ref_mix(h + (int(i) + 1) * _PHI)
    return h


def ref_child_codes_vec(codes, n):
    """Codes of the n children of each code, in row-major order."""
    steps = (np.arange(n, dtype=np.uint64) + np.uint64(1)) * np.uint64(_PHI)
    return _ref_mix_vec(np.asarray(codes, dtype=np.uint64)[:, None] + steps[None, :]).reshape(-1)


def ref_level_codes_vec(shape):
    """ref_code of every index prefix over `shape`, in row-major order."""
    codes = np.zeros(1, dtype=np.uint64)
    for n in shape:
        codes = ref_child_codes_vec(codes, n)
    return codes


def binary_class_b(d):
    """Eight entries at order d whose row-major codes collide mod 2**64.

    Entry e (0-7) holds e + 1: modes 0-2 hold the bits of e, the last three
    modes the same bits reversed, and every middle mode is 1.  Past order
    66 the weights of modes 0-2 in a row-major position are multiples of
    2**64, so codes reduced mod 2**64 would not tell those prefixes apart.
    """
    from ttsketch import SparseTensor

    e = np.arange(8)
    bits = (e[:, None] >> np.arange(2, -1, -1)) & 1
    idx = np.ones((8, d), dtype=np.int64)
    idx[:, :3] = bits
    idx[:, -3:] = bits[:, ::-1]
    return SparseTensor((2,) * d, idx, e + 1.0)


def _ref_unit(v):
    """The float in [1, 2) whose 52 mantissa bits are the top bits of v."""
    return struct.unpack("<d", struct.pack("<Q", (v >> 12) | 0x3FF0000000000000))[0]


def ref_sketch_entry(step_key, k, h):
    """Sketch row k at code h: rows 2m and 2m+1 are r cos and r sin of the
    pair drawn from substreams 2m and 2m+1 at counter h."""
    m = k // 2
    u1 = 2.0 - _ref_unit(ref_value(ref_subkey(step_key, 2 * m), h))
    u2 = _ref_unit(ref_value(ref_subkey(step_key, 2 * m + 1), h)) - 1.0
    r = math.sqrt(-2.0 * math.log(u1))
    return r * (math.sin if k % 2 else math.cos)(2.0 * math.pi * u2)


def ref_sketch_rows_vec(step_key, codes, s):
    """Rows 0..s-1 of the sketch at the given codes, unchunked, one pair of
    rows at a time: the package's float operations in its order."""
    codes = np.asarray(codes, dtype=np.uint64)
    one = np.uint64(0x3FF0000000000000)
    out = np.empty((s, codes.shape[0]))
    for k in range(0, s, 2):
        units = [((_ref_values_vec(ref_subkey(step_key, row), codes) >> np.uint64(12)) | one)
                 .view(np.float64) for row in (k, k + 1)]
        r = np.sqrt(np.log(2.0 - units[0]) * -2.0)
        t = np.tan((units[1] - 1.0) * math.pi)
        t2 = t * t
        q = r / (t2 + 1.0)
        out[k] = q * (1.0 - t2)
        if k + 1 < s:
            out[k + 1] = (t * 2.0) * q
    return out


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


def ref_step_codes(idx, shape):
    """Per-step sketch codes of the sparse path, by python-int mixing.

    Yields (j, mu, codes) for the steps j = d..2: mu is each entry's index
    in mode j-1 and codes the ref_code of its prefix idx[:, :j-1].
    """
    d = len(shape)
    chains = []
    for row in idx:
        h, chain = 0, [0]
        for i in row[:-1]:
            h = ref_mix(h + (int(i) + 1) * _PHI)
            chain.append(h)
        chains.append(chain)
    for j in range(d, 1, -1):
        mu = np.array([int(row[j - 1]) for row in idx], dtype=np.int64)
        yield j, mu, np.array([chain[j - 1] for chain in chains], dtype=np.uint64)


def ref_randomized_sparse(xs, sketch, rng, draw_all=False, merge=True):
    """Cores of the sparse randomized sweep, drawing one column per row.

    The per-entry draw: every step draws the Gaussian column of each row at
    the python-int prefix code of its entry (ref_step_codes) through
    ref_sketch_rows_vec, so rows sharing a prefix draw the same column
    again.  The bit-identity tests compare the package's one-column-per-
    prefix draw with it, so unlike the rest of this module it runs the
    package's own sketch and update kernels and RQ: only the codes and the
    draw, the grouping of the rows and the scatter-adds (np.add.at here)
    are its own.
    With merge, after each update the rows that share a prefix of length
    j-1 are added into one, grouped by np.unique of the prefixes: only where
    some prefix repeats, into rows in canonical prefix order, each added in
    the step's sorted row order; a merged row reads its indices through the
    first entry of its prefix.  With merge=False every entry keeps its own
    row at every step, as the sweep did before it merged rows.
    `sketch` is one width per edge; a step takes at most as many rows as
    its unfolding has (lead).  A step whose width covers its n_j * t
    columns is the identity and draws nothing; with draw_all it draws and
    factors anyway, as the sweep did before it had identity steps.
    """
    from ttsketch import _kernels as K
    from ttsketch.linalg import rq_row_orthonormal

    shape = xs.shape
    d = len(shape)
    codes = {j: c for j, _, c in ref_step_codes(xs.idx, shape)}
    vals = xs.values[:, None]
    cores = [None] * d
    lead = 1
    for n in shape:
        lead *= int(n)
    t_dim = 1
    entry = np.arange(xs.nnz)  # the entry each row reads its indices from
    for j in range(d, 1, -1):
        n_j = shape[j - 1]
        lead //= n_j
        s_prev = min(sketch[j - 2], lead)
        mu = xs.idx[entry, j - 1]
        by_mode = np.argsort(mu, kind="stable")
        entry = entry[by_mode]
        mu = mu[by_mode]
        vals = vals[by_mode]
        if s_prev >= n_j * t_dim and not draw_all:
            q = np.eye(n_j * t_dim)
        else:
            gam = ref_sketch_rows_vec(rng.substream(j).key, codes[j][entry], s_prev)
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
        if merge and j > 2:
            prefixes, group = np.unique(xs.idx[entry, :j - 1], axis=0, return_inverse=True)
            group = group.reshape(-1)
            if len(prefixes) < len(entry):
                merged = np.zeros((len(prefixes), t_dim))
                np.add.at(merged, group, vals)
                first = np.full(len(prefixes), xs.nnz)
                np.minimum.at(first, group, entry)
                vals, entry = merged, first
    w1 = np.zeros((shape[0], t_dim))
    np.add.at(w1, xs.idx[entry, 0], vals)
    cores[0] = w1
    return cores


def ref_randomized_dense(x, sketch, rng, draw_all=False):
    """Train of the dense randomized sweep, as written in its own loop.

    The dense sweep before the dense and sparse paths shared one loop,
    kept word for word but for its identity steps, its width clamp and its
    draw, which is ref_sketch_rows_vec at the codes of every lead position:
    the bit-identity test compares the package's shared loop with it.  `x` is
    a float64 array, `sketch` one width per edge; a step takes at most as
    many rows as its unfolding has (lead).  A step whose width covers its
    n_j * t columns keeps eye(n_j * t) as its core and b as it is; with
    draw_all it draws, factors and projects anyway, as the sweep did
    before it had identity steps.
    """
    from ttsketch.linalg import rq_row_orthonormal
    from ttsketch.tensor import element_count
    from ttsketch.tt import TTTensor

    shape = x.shape
    d = len(shape)
    cores = [None] * d
    lead = element_count(shape[:-1])
    b = x.reshape(lead, shape[-1])
    t_dim = 1
    for j in range(d, 1, -1):
        n_j = shape[j - 1]
        s_prev = min(sketch[j - 2], lead)
        if s_prev >= n_j * t_dim and not draw_all:
            t_next = n_j * t_dim
            q = np.eye(t_next)
        else:
            key = rng.substream(j).key
            # The Gaussian block is freed by the product that consumes it, so
            # it never lives beside the next step's b: a step holds b, one
            # draw of s_prev * lead normals and then b beside its projection.
            a = ref_sketch_rows_vec(key, ref_level_codes_vec(shape[:j - 1]), s_prev) @ b
            _, q = rq_row_orthonormal(a)
            # q keeps min(s_prev, n_j * t_dim) rows: a sketch wider than the
            # unfolding clamps to the feasible width near the right boundary.
            t_next = q.shape[0]
            b = b @ q.T
        cores[j - 1] = q if j == d else q.reshape(t_next, n_j, t_dim)
        if j > 2:
            lead //= shape[j - 2]
            b = b.reshape(lead, shape[j - 2] * t_next)
        t_dim = t_next
    cores[0] = b
    return TTTensor(cores, ortho="right")


# The ALS half sweep as it was in its own loop, before it ran through the
# randomized sweep's: the tail matrices built up front, one QR per step.
# Word for word apart from the ref_ names and the imports.

def _ref_tail_matrices(shape, cores):
    # tails[j]: the chain of cores j..d as a (prod(n_j..n_d), r_{j-1}) matrix.
    d = len(shape)
    tails = [None] * (d + 1)
    tails[d] = cores[d - 1].T
    for j in range(d - 1, 1, -1):
        w = cores[j - 1]
        folded = np.tensordot(w, tails[j + 1], axes=([2], [1]))
        tails[j] = folded.transpose(1, 2, 0).reshape(-1, w.shape[0])
    return tails


def ref_als_half_sweep(f, tail_cores):
    """Left-orthogonal train and objectives of ALS's own half sweep of f
    from the right-orthogonal cores 2..d (entry 0 unread)."""
    from ttsketch.linalg import qr
    from ttsketch.tensor import element_count
    from ttsketch.tt import TTTensor

    shape = f.shape
    d = len(shape)
    tails = _ref_tail_matrices(shape, tail_cores)
    f_norm2 = float(np.dot(f.ravel(), f.ravel()))
    objectives = []
    cores = [None] * d
    work = f.reshape(1, -1)
    r_prev = 1
    for i in range(1, d + 1):
        n_i = shape[i - 1]
        if i < d:
            rest = element_count(shape[i:])
            u_mat = work.reshape(r_prev * n_i, rest) @ tails[i + 1]
            objectives.append(max(f_norm2 - float(np.sum(u_mat ** 2)), 0.0))
            q, _ = qr(u_mat)
            cores[i - 1] = q if i == 1 else q.reshape(r_prev, n_i, q.shape[1])
            work = q.T @ work.reshape(r_prev * n_i, rest)
            r_prev = q.shape[1]
        else:
            u_mat = work.reshape(r_prev, n_i)
            objectives.append(max(f_norm2 - float(np.sum(u_mat ** 2)), 0.0))
            cores[i - 1] = u_mat
    return TTTensor(cores, ortho="left"), objectives


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

    Right-orthogonalizes first, unless the train already is, then runs one
    left-to-right sweep of rank-truncated SVDs, so each local cut is taken
    against an orthonormal environment.  The result is left-orthogonal with
    ranks min(target, input rank) per edge.
    """
    from ttsketch.linalg import truncated_svd
    from ttsketch.tt import TTTensor, clip_ranks

    target = clip_ranks(t.shape, target_ranks)
    work = t if t.ortho == "right" else ref_orthogonalize_right(t)
    cores = list(work.cores)
    d = len(cores)
    for i in range(d - 1):
        mat = ref_left_unfold(cores[i])
        u, s, vt, _ = truncated_svd(mat, target[i])
        cores[i] = _ref_refold_left(u, cores[i].shape[:-1] + (u.shape[1],))
        carry = s[:, None] * vt
        nxt = ref_right_unfold(cores[i + 1])
        cores[i + 1] = _ref_refold_right(carry @ nxt, (carry.shape[0],) + cores[i + 1].shape[1:])
    return TTTensor(cores, ortho="left")


def ref_svd_sweep(x, pick_rank):
    """Deterministic TT-SVD sweep with a full SVD of every unfolding."""
    import time

    from ttsketch.decompose import DecompositionReport
    from ttsketch.linalg import svd
    from ttsketch.tensor import check_finite
    from ttsketch.tt import TTTensor, zero_tt

    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    d = len(shape)
    if d < 2:
        raise ValueError("decomposition needs order >= 2")
    t0 = time.perf_counter()
    if not x.any():
        report = DecompositionReport(
            ranks=(1,) * (d - 1),
            wall_time_s=time.perf_counter() - t0,
            degenerate=True,
        )
        return zero_tt(shape), report
    check_finite(x)
    cores = []
    discarded = []
    cur = x.reshape(shape[0], -1)
    r_prev = 1
    for i in range(d - 1):
        u, s, vt = svd(cur)
        k = max(1, min(pick_rank(s, i), s.shape[0]))
        discarded.append(float(np.sum(s[k:] ** 2)))
        if i == 0:
            cores.append(u[:, :k])
        else:
            cores.append(u[:, :k].reshape(r_prev, shape[i], k))
        rest = s[:k, None] * vt[:k]
        if i < d - 2:
            cur = rest.reshape(k * shape[i + 1], -1)
        else:
            cur = rest
        r_prev = k
    cores.append(cur)
    result = TTTensor(cores, ortho="left")
    report = DecompositionReport(
        ranks=result.ranks,
        discarded_energy=tuple(discarded),
        wall_time_s=time.perf_counter() - t0,
    )
    return result, report


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


# The dense mode-wise helpers the tests unfold and contract with,
# checked against the naive versions below.

def _check_modes(modes, d, what="mode set"):
    from ttsketch.tensor import check_integers

    modes = tuple(check_integers(modes, what))
    if len(modes) == 0:
        raise ValueError(f"{what} must be nonempty")
    if len(set(modes)) != len(modes):
        raise ValueError(f"{what} has repeated modes: {modes}")
    if any(m < 0 or m >= d for m in modes):
        raise ValueError(f"{what} {modes} out of range for order {d}")
    return modes


def matricize(x, row_modes):
    """Unfold a dense tensor into a matrix.

    `row_modes` (0-based, strictly increasing) index the modes mapped to
    rows; the remaining modes, in their original order, map to columns.
    Both groups are linearized row-major.
    """
    from ttsketch.tensor import element_count

    x = np.asarray(x)
    d = x.ndim
    row_modes = _check_modes(row_modes, d, "row mode set")
    if any(a >= b for a, b in zip(row_modes, row_modes[1:])):
        raise ValueError(f"row mode set must be strictly increasing, got {row_modes}")
    col_modes = tuple(m for m in range(d) if m not in row_modes)
    rows = element_count(x.shape[m] for m in row_modes)
    cols = element_count(x.shape[m] for m in col_modes)
    return x.transpose(row_modes + col_modes).reshape(rows, cols)


def contract(x, x_modes, y, y_modes):
    """Contract dense tensors over paired modes.

    Pair k joins mode x_modes[k] of x with mode y_modes[k] of y; the
    result carries the remaining modes of x followed by those of y, each
    group in its original order.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    x_modes = _check_modes(x_modes, x.ndim, "x mode list")
    y_modes = _check_modes(y_modes, y.ndim, "y mode list")
    if len(x_modes) != len(y_modes):
        raise ValueError("paired mode lists must have equal length")
    for a, b in zip(x_modes, y_modes):
        if x.shape[a] != y.shape[b]:
            raise ValueError(
                f"cannot contract mode {a} of shape {x.shape} with mode "
                f"{b} of shape {y.shape}: sizes differ"
            )
    return np.tensordot(x, y, axes=(x_modes, y_modes))


def inner(x, y):
    """Frobenius inner product of two dense tensors of equal shape."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shapes {x.shape} and {y.shape} differ")
    return float(np.dot(x.ravel(), y.ravel()))


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
