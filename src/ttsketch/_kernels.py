"""Hot numeric kernels, vectorized with numpy.

The counter-based stream (splitmix64 mixing, Box-Muller normals, bounded
index draws), the sketch's Gaussian draw at chained prefix codes
(gammas_at, for the dense and the sparse sweep alike) and the two
contractions of a sparse sketch step.

The stream's normals (standard_normals) are drawn in chunks of _CHUNK
counters.  Each chunk is mixed and
transformed in place in two scratch arrays that stay in cache and is
written straight into the preallocated output, so a draw of any size
holds the output plus a fixed few hundred kilobytes.  The integer and
float operations per counter are the same, in the same order, as in a
one-shot draw, so the values are bit-identical to the unchunked stream.

The Box-Muller cosine cos(2 pi u) is taken as (1 - t^2) / (1 + t^2) at
t = tan(pi u), because numpy's float64 tan runs a SIMD loop where its cos
does not: a normal costs about half as much.  Every normal is within
2e-15 of the np.cos form (4.4e-16 in the cosine, over 2.5e7 draws).  The
last bits depend on numpy's tan dispatch, as they depended on libm's cos
before.

The sketch's draw keeps the sine of each pair as well, 2t / (1 + t^2),
so one pair of mixer outputs, one log, sqrt and tan make two normals:
sketch rows 2m and 2m+1.  Each row reads its own substream at the
position's prefix code, so no two rows or positions share a counter at
any order, and the chunks are pairs x positions blocks written in place.

The sketch contractions take the sweep's rows sorted by their index in
the current mode and run one matrix product per run of equal mode
values, so step j costs O(P_j*s*t) in BLAS-3 calls for its P_j <= N rows,
one per distinct index prefix of length j of the N stored entries, s
sketch rows and t columns.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15        # counter increment (splitmix64 gamma)
_GAMMA2 = 0xD1B54A32D192ED03     # substream increment, distinct from _PHI
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_PHI = np.uint64(_PHI)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U_GAMMA2 = np.uint64(_GAMMA2)
_U_M1_INV = np.uint64(0x96DE1B173F119089)  # inverses of _M1 and _M2 mod 2**64
_U_M2_INV = np.uint64(0x319642B2D24D8EC3)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_U12 = np.uint64(12)
_U21 = np.uint64(21)
_U54 = np.uint64(54)
_U60 = np.uint64(60)
_U62 = np.uint64(62)
_U32 = np.uint64(32)
_U_LO = np.uint64(0xFFFFFFFF)
_U1 = np.uint64(1)
_TWO53_INV = float(2.0 ** -53)
_U_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0


# ---------------------------------------------------------------------------
# Integer mixing (python ints, used for key derivation; never hot)

def finalize_u64(z):
    """splitmix64 finalizer on a python int, reduced mod 2**64."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    z ^= z >> 31
    return z


def key_from_seed(seed):
    return finalize_u64((int(seed) & _MASK) + _PHI)


def derive_key(key, index):
    """Key of substream `index` (>= 0) of the stream with key `key`."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return finalize_u64((key + (index + 1) * _GAMMA2) & _MASK)


# ---------------------------------------------------------------------------
# Vectorized stream

# Counters per chunk: the chunk's counters, its two uint64 scratch arrays
# and its slice of the output take 512 KiB, within a core's L2.
_CHUNK = 1 << 14
_U_2PHI = np.uint64((2 * _PHI) & _MASK)


def _values_np(key, counters):
    """Raw 64-bit outputs at the given counters (uint64 array in, uint64 out)."""
    z = counters * _U_PHI
    z += np.uint64((int(key) + _PHI) & _MASK)
    _mix_into(z, np.empty_like(z))
    return z


def _mix_into(z, scratch):
    """splitmix64 finalizer of z, in place; scratch has z's shape."""
    np.right_shift(z, _U30, out=scratch)
    z ^= scratch
    z *= _U_M1
    np.right_shift(z, _U27, out=scratch)
    z ^= scratch
    z *= _U_M2
    np.right_shift(z, _U31, out=scratch)
    z ^= scratch


def _normals_into(key, c, out):
    """Write the normals at counters c (1-d) of the stream `key` into out.

    The normal at counter c is the Box-Muller transform of the raw outputs
    at counters 2c and 2c+1, the mixes of key + (2c+1)*phi and
    key + (2c+2)*phi mod 2**64.
    """
    z = np.empty(c.shape, dtype=np.uint64)
    scratch = np.empty_like(z)
    key = int(key)
    # u1 = ((v1 >> 11) + 1) * 2**-53 in (0, 1]; out = sqrt(-2 log u1)
    np.multiply(c, _U_2PHI, out=z)
    z += np.uint64((key + _PHI) & _MASK)
    _mix_into(z, scratch)
    z >>= _U11
    z += _U1
    np.multiply(z, _TWO53_INV, out=out)
    np.log(out, out=out)
    out *= -2.0
    np.sqrt(out, out=out)
    # u2 = (v2 >> 11) * 2**-53 in [0, 1); out *= cos(2 pi u2)
    np.multiply(c, _U_2PHI, out=z)
    z += np.uint64((key + 2 * _PHI) & _MASK)
    _mix_into(z, scratch)
    z >>= _U11
    # cos(2 pi u2) = (1 - t^2) / (1 + t^2) with t = tan(pi u2).  At
    # u2 = 1/2, t = 1.6e16 and t^2 stays finite, so the cosine is -1.
    t = scratch.view(np.float64)
    np.multiply(z, _TWO53_INV, out=t)
    t *= math.pi
    np.tan(t, out=t)
    t2 = z.view(np.float64)  # z is free once u2 is formed
    np.multiply(t, t, out=t2)
    np.subtract(1.0, t2, out=t)
    t2 += 1.0
    t /= t2
    out *= t


def indices_at(key, counters, bound):
    """Uniform draws on [0, bound) at the given counters, bound <= 2**63.

    Draw i is floor(u * bound / 2**53) for the top 53 bits u of the raw
    output, exact for every bound: the 116-bit product is formed from
    32-bit limbs, so no partial product wraps in uint64.
    """
    u = _values_np(key, counters.astype(np.uint64)) >> _U11
    b_hi, b_lo = np.uint64(int(bound) >> 32), np.uint64(int(bound) & 0xFFFFFFFF)
    u_hi, u_lo = u >> _U32, u & _U_LO
    low = u_lo * b_lo
    mid = u_hi * b_lo + (low >> _U32)
    mid2 = u_lo * b_hi + (mid & _U_LO)
    high = u_hi * b_hi + (mid >> _U32) + (mid2 >> _U32)
    # product >> 53: the high word's bits above 11, then bits 53..63 of
    # the low word, which are bits 21..31 of mid2
    return ((high << _U11) | ((mid2 & _U_LO) >> _U21)).astype(np.int64)


def row_keys(key, count):
    """derive_key(key, k) for k < count, in one vectorized pass."""
    z = np.arange(1, count + 1, dtype=np.uint64) * _U_GAMMA2
    z += np.uint64(key)
    _mix_into(z, np.empty_like(z))
    return z


def _index_steps(index):
    """(index + 1) * phi mod 2**64: what a prefix code adds for its next index."""
    steps = np.multiply(index, _U_PHI, dtype=np.uint64, casting="unsafe")
    steps += _U_PHI
    return steps


def extend_codes(codes, index):
    """Codes of the prefixes `codes` extended by `index` (broadcast).

    The code of a prefix is h_0 = 0 and h_k = mix(h_{k-1} + (i_k + 1) phi)
    with the splitmix64 finalizer: a bijection of h_{k-1} for each index,
    so distinct prefixes collide only by chance, about 2**-64 per pair.
    """
    z = codes + _index_steps(index)
    _mix_into(z, np.empty_like(z))
    return z


def parent_codes(codes, index):
    """Inverse of extend_codes: the codes of the prefixes without their
    last index, which is `index`."""
    z = codes.copy()
    w = np.empty_like(z)
    # Each z ^= z >> k of the finalizer (k < 32) is undone by z ^= z >> k
    # and then z ^= z >> 2k, since 3k >= 64; each product by its inverse.
    for shift, twice, inverse in ((_U31, _U62, _U_M2_INV), (_U27, _U54, _U_M1_INV),
                                  (_U30, _U60, None)):
        np.right_shift(z, shift, out=w)
        z ^= w
        np.right_shift(z, twice, out=w)
        z ^= w
        if inverse is not None:
            z *= inverse
    z -= _index_steps(index)
    return z


def gammas_at(codes, s, key, children=None):
    """Sketch rows 0..s-1 of the stream `key` at positions with these codes.

    Returns g of shape (s, positions).  Row k reads the raw stream with key
    derive_key(key, k) at counter h, the position's prefix code, and rows
    2m, 2m+1 share one Box-Muller pair: u1 = 1 - (v1 >> 12) 2**-52 in
    (0, 1] from row 2m's stream, u2 = (v2 >> 12) 2**-52 in [0, 1) from row
    2m+1's, and with r = sqrt(-2 log u1), t = tan(pi u2), q = r / (1 + t^2),

        g[2m] = (1 - t^2) q = r cos(2 pi u2),   g[2m+1] = 2t q = r sin(2 pi u2).

    Row k does not depend on s.  The positions are the codes themselves,
    or with children = n the n children of each code in row-major order
    (position p extends code p // n by index p % n), derived one chunk at a
    time, so the dense sketch holds only the codes of its parent level.

    Each chunk is a contiguous block of pairs x positions of about _CHUNK
    elements (whole parents, so more when one parent has more children):
    one pair by _CHUNK positions on long rows, all pairs at once when there
    are few positions.  Every step writes into g or into chunk arrays, so a
    draw holds g, two uint64 chunk arrays (three for short rows) and the
    chunk's codes.
    """
    fan = 1 if children is None else int(children)
    out = np.empty((s, codes.shape[0] * fan))
    pairs = (s + 1) // 2
    keys = row_keys(key, 2 * pairs) + _U_PHI  # raw(k, h) = mix(h phi + keys[k])
    per = max(1, min(codes.shape[0], _CHUNK // fan))  # codes per chunk
    block = max(1, min(pairs, _CHUNK // (per * fan)))  # pairs per chunk
    c = np.empty(per * fan, dtype=np.uint64)
    z, w = np.empty((2, block * per * fan), dtype=np.uint64)
    # Blocks of several pairs keep r contiguous too; one pair keeps it in
    # its cosine row, so a long dense row holds no third chunk array.
    r = np.empty(block * per * fan) if block > 1 else None
    steps = None if children is None else _index_steps(np.arange(fan))
    for lo in range(0, codes.shape[0], per):
        hi = min(lo + per, codes.shape[0])
        cols = (hi - lo) * fan
        hphi = c[:cols]
        if children is None:
            np.multiply(codes[lo:hi], _U_PHI, out=hphi)
        else:
            # One call per child or per parent, whichever is fewer: a
            # broadcast this narrow would buffer a chunk-sized temporary.
            grid = hphi.reshape(hi - lo, fan)
            if fan <= hi - lo:
                for i in range(fan):
                    np.add(codes[lo:hi], steps[i], out=grid[:, i])
            else:
                for p in range(hi - lo):
                    np.add(codes[lo + p], steps, out=grid[p])
            _mix_into(hphi, w[:cols])
            hphi *= _U_PHI
        for m in range(0, pairs, block):
            k = min(block, pairs - m)
            rows = slice(2 * m, 2 * (m + k))
            _pairs_into(hphi, keys[rows], out[rows, lo * fan:lo * fan + cols],
                        z[:k * cols].reshape(k, cols), w[:k * cols].reshape(k, cols),
                        None if r is None else r[:k * cols].reshape(k, cols))
    return out


def _pairs_into(hphi, keys, out, z, w, r):
    """Rows 2m (cosine) and 2m+1 (sine) of out from the pairs of keys.

    hphi holds h * phi per column; out has 2k rows, or 2k - 1 when the last
    pair lost its sine row to an odd width.  z and w are contiguous uint64
    (k, columns) scratch.  r and q live in r, or with r None in the cosine
    rows, which are then contiguous (k = 1): the values are the same.  The
    uniforms are built from their bits, [1, 2) under the exponent of 1.0,
    with no integer to float conversion.
    """
    cos, sin = out[0::2], out[1::2]
    full = sin.shape[0]
    rad = cos if r is None else r
    f = z.view(np.float64)
    t = w.view(np.float64)
    np.add(hphi, keys[0::2, None], out=z)
    _mix_into(z, w)
    z >>= _U12
    z |= _U_ONE
    np.subtract(2.0, f, out=rad)  # u1
    np.log(rad, out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)  # r
    np.add(hphi, keys[1::2, None], out=z)
    _mix_into(z, w)
    z >>= _U12
    z |= _U_ONE
    np.subtract(f, 1.0, out=t)  # u2
    t *= math.pi
    np.tan(t, out=t)
    # At u2 = 1/2, t = 1.6e16 and t^2 stays finite: the cosine is -r.
    np.multiply(t, t, out=f)
    np.multiply(t[:full], 2.0, out=sin)
    np.subtract(1.0, f, out=t)  # 1 - t^2
    f += 1.0
    rad /= f  # q
    sin *= rad[:full]
    np.multiply(rad, t, out=cos)


# ---------------------------------------------------------------------------
# Sparse sketch step, rows sorted by mode index

def _runs(mu):
    """Start offsets of the runs of equal values in sorted mu, then len(mu)."""
    cut = np.flatnonzero(mu[1:] != mu[:-1]) + 1
    return [0, *cut.tolist(), len(mu)] if len(mu) else [0]


def sparse_sketch(mu, vals, gam, rows, n_j):
    """Sketch of one step: a[m] = gam[:, rows[mu == m]] @ vals[mu == m].

    mu (sorted ascending) is each row's index in the current mode, vals
    (R, t) its projected row and gam[:, rows[i]] its Gaussian sketch
    column: gam (s, P) holds one column per distinct prefix, as gammas_at
    draws them, and rows maps the rows to them.  The columns are
    gathered one mode group at a time, so beside gam and vals the sketch
    holds one group's columns, never all R of them.  The result has shape
    (n_j, s, t).
    """
    a = np.zeros((n_j, gam.shape[0], vals.shape[1]))
    bounds = _runs(mu)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.matmul(np.take(gam, rows[lo:hi], axis=1), vals[lo:hi], out=a[mu[lo]])
    return a


def sparse_update(mu, vals, w):
    """Projection of one step: row i of the result is w[mu[i]] @ vals[i].

    mu (sorted ascending) indexes the (n_j, s, t) blocks w of the new
    core; every row is projected where it is, so nothing is scattered.
    """
    out = np.empty((vals.shape[0], w.shape[1]))
    bounds = _runs(mu)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.matmul(vals[lo:hi], w[mu[lo]].T, out=out[lo:hi])
    return out


def standard_normals(key, count):
    """Normals at counters 0..count-1 for the stream with the given key."""
    out = np.empty(count)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        _normals_into(key, np.arange(lo, hi, dtype=np.uint64), out[lo:hi])
    return out
