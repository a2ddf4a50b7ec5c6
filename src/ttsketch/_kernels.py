"""Hot numeric kernels, vectorized with numpy.

The counter-based stream (splitmix64 mixing, Box-Muller normals, bounded
index draws) and the two contractions of a sparse sketch step.

Normals are drawn in chunks of _CHUNK counters.  Each chunk is mixed and
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

The sketch contractions take the stored entries sorted by their index in
the current mode and run one matrix product per run of equal mode
values, so a step costs O(N*s*t) in BLAS-3 calls for N entries, s sketch
rows and t columns.
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
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_U21 = np.uint64(21)
_U32 = np.uint64(32)
_U_LO = np.uint64(0xFFFFFFFF)
_U1 = np.uint64(1)
_TWO53_INV = float(2.0 ** -53)


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


def gammas_at(heads, s_prev, p_mod, key):
    """Sketch rows met by stored entries: normals at counters head + k*p_mod.

    Row u, column k is the dense Gaussian g[k, heads[u]] of a sketch step
    whose leading dimension is p_mod (mod 2**64), for k < s_prev.  The
    sparse path passes the codes of the distinct index prefixes of a step,
    one head per occupied leading position, and gathers the rows to the
    entries.  Rows are drawn in blocks of about _CHUNK normals (one row
    per block when a row alone is longer).
    """
    ks = np.arange(s_prev, dtype=np.uint64) * np.uint64(p_mod)
    out = np.empty((heads.shape[0], s_prev))
    step = max(1, _CHUNK // s_prev)
    for lo in range(0, heads.shape[0], step):
        counters = heads[lo:lo + step, None] + ks[None, :]
        _normals_into(key, counters.reshape(-1), out[lo:lo + step].reshape(-1))
    return out


# ---------------------------------------------------------------------------
# Sparse sketch step, entries sorted by mode index

def _runs(mu):
    """Start offsets of the runs of equal values in sorted mu, then len(mu)."""
    cut = np.flatnonzero(mu[1:] != mu[:-1]) + 1
    return [0, *cut.tolist(), len(mu)] if len(mu) else [0]


def sparse_sketch(mu, vals, gam, rows, n_j):
    """Sketch of one step: a[m] = gam[rows[mu == m]].T @ vals[mu == m].

    mu (sorted ascending) is each entry's index in the current mode, vals
    (N, t) its projected row and gam[rows[i]] its Gaussian sketch row: gam
    holds one row of s per distinct prefix and rows maps the entries to
    them.  The rows are gathered one mode group at a time, so beside gam
    and vals the sketch holds one group's rows, never all N of them.  The
    result has shape (n_j, s, t).
    """
    a = np.zeros((n_j, gam.shape[1], vals.shape[1]))
    bounds = _runs(mu)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # np.take copies whole rows, about 3x faster here than fancy indexing.
        np.matmul(np.take(gam, rows[lo:hi], axis=0).T, vals[lo:hi], out=a[mu[lo]])
    return a


def sparse_update(mu, vals, w):
    """Projection of one step: row i of the result is w[mu[i]] @ vals[i].

    mu (sorted ascending) indexes the (n_j, s, t) blocks w of the new
    core; every entry keeps its own row, so nothing is scattered.
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
