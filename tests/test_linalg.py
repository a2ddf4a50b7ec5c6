"""Factorization wrappers: sign conventions and oracle agreement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from ttsketch import RngStream, clip_ranks, random_tt, tt_evaluate, tt_svd_exact
from ttsketch import linalg
from ttsketch.linalg import (
    _fix_svd_signs, _tall_r, cut_energy, left_svd, numerical_rank, qr,
    rq_row_orthonormal, svd, truncated_svd,
)


def test_svd_identity():
    u, s, vt = svd(np.eye(3))
    assert np.allclose(s, 1.0)
    assert np.allclose(u @ np.diag(s) @ vt, np.eye(3), atol=1e-14)


def test_svd_diagonal_signed_permutations():
    u, s, vt = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0])
    # factors are signed permutations; the sign convention pins them to I
    assert np.allclose(np.abs(u), np.eye(3), atol=1e-14)
    assert np.allclose(np.abs(vt), np.eye(3), atol=1e-14)
    assert np.all(np.diag(u) > 0)


def test_svd_sign_convention_flips_consistently():
    u, s, vt = svd(-np.eye(2))
    assert np.allclose(u @ np.diag(s) @ vt, -np.eye(2), atol=1e-14)
    assert np.all(np.diag(u) > 0)  # signs pushed into vt


def test_svd_against_gram_eigenvalue_oracle():
    a = RngStream(21).normals((5, 3))
    u, s, vt = svd(a)
    assert np.linalg.norm(u @ np.diag(s) @ vt - a) < 1e-12
    want = o.gram_singular_values(a)
    assert np.max(np.abs(s - want)) < 1e-10


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (6, 6), (2, 9), (4, 65536)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rounded", [False, True], ids=["normal", "rounded"])
def test_fix_svd_signs_matches_column_loop(shape, seed, rounded):
    rng = RngStream(seed)
    u = rng.substream(0).normals(shape)
    if rounded:  # small integers: ties of +m and -m, and zero columns
        u = np.round(u)
    vt = rng.substream(1).normals((shape[1], 5))
    if shape[1] >= 3:
        u[:, :3] = 0.0  # column 0 stays all zero: nothing to flip
        u[:2, 1] = (0.5, -0.5)  # tied magnitudes: the first one decides
        u[:2, 2] = (-0.5, 0.5)
        u[:2, 0] = (-0.0, 0.0)
    want_u, want_vt = o.ref_fix_svd_signs(u, vt)
    got_u, got_vt = _fix_svd_signs(u.copy(), vt.copy())
    assert np.array_equal(got_u, want_u) and np.array_equal(got_vt, want_vt)
    assert np.array_equal(np.signbit(got_u), np.signbit(want_u))
    assert np.array_equal(np.signbit(got_vt), np.signbit(want_vt))


def test_svd_deterministic():
    a = RngStream(22).normals((6, 4))
    u1, s1, vt1 = svd(a)
    u2, s2, vt2 = svd(a.copy())
    assert np.array_equal(u1, u2) and np.array_equal(vt1, vt2)


@st.composite
def svd_cases(draw):
    """(kind, shape, inner rank or None, seed) for left_svd's property test."""
    kind = draw(st.sampled_from(["wide", "tall", "square", "deficient", "row"]))
    short = draw(st.integers(1, 12))
    long = draw(st.integers(short + 1, 400))
    if kind == "wide":
        shape = (short, long)
    elif kind == "tall":
        shape = (long, short)
    elif kind == "square":
        shape = (short, short)
    elif kind == "row":
        shape = (1, long)
    else:
        shape = draw(st.sampled_from([(short + 1, long), (long, short + 1)]))
    inner = draw(st.integers(1, min(shape) - 1)) if kind == "deficient" else None
    return kind, shape, inner, draw(st.integers(0, 2 ** 32 - 1))


def _svd_case(shape, inner, seed):
    rng = RngStream(seed)
    if inner is None:
        return rng.normals(shape)
    return (rng.substream(0).normals((shape[0], inner))
            @ rng.substream(1).normals((inner, shape[1])))


@example(("wide", (4, 4 ** 6), None, 0))
@example(("wide", (16, 4 ** 5), None, 1))
@example(("deficient", (3, 50), 1, 2))
@example(("deficient", (50, 3), 2, 3))
@example(("row", (1, 1), None, 4))
@given(svd_cases())
@settings(max_examples=60, deadline=None)
def test_left_svd_matches_numpy_svd(case):
    _, shape, inner, seed = case
    a = _svd_case(shape, inner, seed)
    u, s = left_svd(a)
    want_u, want_s, _ = np.linalg.svd(a, full_matrices=False)
    assert u.shape == want_u.shape and s.shape == want_s.shape
    s0 = want_s[0]
    assert np.max(np.abs(s - want_s)) <= 1e-12 * s0
    assert numerical_rank(s, 1e-12) == numerical_rank(want_s, 1e-12)
    # Columns are pinned (up to sign) where their singular value stands
    # apart from its neighbours and from zero.
    gaps = np.abs(np.diff(np.concatenate(([np.inf], want_s, [0.0]))))
    separated = np.minimum(gaps[:-1], gaps[1:]) > 1e-2 * s0
    assert np.max(np.abs(np.abs(u[:, separated]) - np.abs(want_u[:, separated])),
                  initial=0.0) <= 1e-10
    # Sign convention of _fix_svd_signs: largest-magnitude entry nonnegative.
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    assert np.all(top >= 0.0)


def _block_rows(k):
    return linalg._BLOCK_ELEMENTS // k


# Around one block (rows - 1, rows, rows + 1), two blocks and a leftover,
# and trees of two or more levels (16 x 65536: 128 blocks of 512 rows,
# then 4 of 512 rows of stacked R factors; 40 x 16384: 80 blocks of 204
# rows, then 16, then one).
_TREE_SHAPES = [(16, _block_rows(16) + dm) for dm in (-1, 0, 1)] + [
    (16, 2 * _block_rows(16) + 3), (40, _block_rows(40) + 1),
    (40, 2 * _block_rows(40) + 3), (4, 4 ** 9), (16, 65536), (40, 16384)]


@pytest.mark.parametrize("inner", [None, 3], ids=["full", "rank3"])
@pytest.mark.parametrize("shape", _TREE_SHAPES, ids=str)
def test_blocked_left_svd_matches_numpy_svd(shape, inner):
    a = _svd_case(shape, inner, shape[1])
    u, s = left_svd(a)
    want_u, want_s, _ = np.linalg.svd(a, full_matrices=False)
    s0 = want_s[0]
    assert np.max(np.abs(s - want_s)) <= 1e-13 * s0
    # u diag(s) u^T is (a a^T)^(1/2), whatever the multiplicities of s.
    root, want_root = (w * t @ w.T for w, t in ((u, s), (want_u, want_s)))
    assert np.max(np.abs(root - want_root)) <= 1e-13 * s0
    r = numerical_rank(s, 1e-12)
    assert r == numerical_rank(want_s, 1e-12) == (inner or shape[0])
    # The range of an exactly low-rank a is the span of its first r columns.
    p, want_p = (w[:, :r] @ w[:, :r].T for w in (u, want_u))
    assert np.max(np.abs(p - want_p)) <= 1e-13


@pytest.mark.parametrize("shape", [(16, 65536), (40, 16384), (45, 300)], ids=str)
def test_blocked_r_of_a_zero_matrix_is_zero(shape):
    a = np.zeros(shape)
    assert not _tall_r(a.T).any()
    u, s = left_svd(a)
    assert not s.any() and np.array_equal(u, np.eye(shape[0]))


@pytest.mark.parametrize("k, m", [
    (46, 10 ** 4),  # 178-row blocks, fewer than 4k rows: never blocked
    (45, _block_rows(45)),  # 182-row blocks: one block is one call
    (16, _block_rows(16)), (4, _block_rows(4)), (1, 200),
])
def test_unblocked_r_is_the_single_lapack_call(k, m):
    a = _svd_case((k, m), None, k)
    assert np.array_equal(_tall_r(a.T), np.linalg.qr(a.T, mode="r"))
    u, s = left_svd(a)
    want_u, want_s, _ = svd(np.linalg.qr(a.T, mode="r").T)
    assert np.array_equal(u, want_u) and np.array_equal(s, want_s)


def test_blocks_are_cut_up_to_k_45():
    assert _block_rows(45) >= linalg._MIN_ROWS_PER_COLUMN * 45
    assert _block_rows(46) < linalg._MIN_ROWS_PER_COLUMN * 46


def test_blocked_left_svd_copies_a_quarter_of_its_input_at_most():
    # A single LAPACK call copies the whole 8 MiB input; the tree copies
    # one group of blocks (1 MiB) and the stacked R factors (1/32 of it).
    a = _svd_case((16, 65536), None, 0)
    assert o.peak_bytes(lambda: left_svd(a)) <= a.nbytes / 4 + 2 ** 20


@pytest.mark.parametrize("shape, rank", [
    ((4,) * 10, 6), ((4,) * 10, 12), ((2,) * 18, 6), ((3,) * 11, 6),
], ids=["4^10-r6", "4^10-r12", "2^18-r6", "3^11-r6"])
def test_exact_sweep_keeps_the_ranks_of_exact_trains(shape, rank):
    x = tt_evaluate(random_tt(shape, rank, RngStream(rank)))
    t, report = tt_svd_exact(x)
    assert report.ranks == clip_ranks(shape, rank)
    assert np.linalg.norm(tt_evaluate(t) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("m", [5, 10 ** 4])
def test_left_svd_of_a_matrix_without_rows_is_empty(m):
    u, s = left_svd(np.zeros((0, m)))
    assert u.shape == (0, 0) and s.shape == (0,)


def test_left_svd_rejects_non_matrices():
    with pytest.raises(ValueError, match="matrix"):
        left_svd(np.ones(3))


@pytest.mark.parametrize("factor", [svd, left_svd, qr, rq_row_orthonormal],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("a", [1j * np.eye(2), np.ones((2, 3)) * (1 + 2j)],
                         ids=["imaginary", "complex"])
def test_factorizations_refuse_complex_input(factor, a):
    # Casting would drop the imaginary part: svd(1j * I) would give the
    # singular values of the zero matrix.
    with pytest.raises(ValueError, match="must be real, got dtype complex128"):
        factor(a)


def test_truncated_svd_trivials():
    a = np.outer([1.0, 2.0], [3.0, 4.0])
    u, s, vt, cut = truncated_svd(a, 1)
    assert np.linalg.norm(u @ np.diag(s) @ vt - a) < 1e-13
    assert cut < 1e-26
    u, s, vt, cut = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert abs(np.linalg.norm(np.diag([3.0, 2.0, 1.0]) - u @ np.diag(s) @ vt) - 1.0) < 1e-13
    assert abs(cut - 1.0) < 1e-13


def test_cut_energy_keeps_finite_bits_and_overflows_quietly():
    # The suite turns warnings into errors, so an overflow warning would
    # raise here.
    s = RngStream(24).normals(7)
    for k in range(8):
        assert cut_energy(s, k) == float(np.sum(s[k:] ** 2))
    assert cut_energy(np.array([1e200, 1e200]), 1) == np.inf
    assert cut_energy(np.array([1e200, 1e154, 1e154]), 1) == np.inf  # the sum
    assert cut_energy(np.array([1e200, 1e150]), 1) == 1e150 ** 2
    assert cut_energy(np.array([1e200]), 1) == 0.0


def test_truncated_svd_tail_oracle():
    a = RngStream(23).normals((6, 4))
    u, s, vt, cut = truncated_svd(a, 2)
    full_s = np.linalg.svd(a, compute_uv=False)
    want = np.sqrt(np.sum(full_s[2:] ** 2))
    assert abs(np.linalg.norm(a - u @ np.diag(s) @ vt) - want) < 1e-12
    assert abs(cut - want**2) < 1e-12
    with pytest.raises(ValueError):
        truncated_svd(a, 0)


def test_qr_trivials():
    q, r = qr(np.eye(3)[:, ::-1])
    assert np.allclose(np.abs(q), np.eye(3)[:, ::-1], atol=1e-14)
    assert np.allclose(np.abs(np.diag(r)), 1.0)
    v = np.array([[3.0], [4.0]])
    q, r = qr(v)
    assert np.allclose(q, v / 5.0)
    assert np.allclose(r, [[5.0]])


def test_qr_reconstruction():
    a = RngStream(24).normals((8, 3))
    q, r = qr(a)
    assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-12
    assert np.linalg.norm(q @ r - a) < 1e-12
    assert np.all(np.diag(r) >= 0)


def test_rq_trivials():
    a = np.zeros((1, 5))
    a[0, -1] = 1.0
    r, q = rq_row_orthonormal(a)
    assert np.allclose(q, a)
    assert np.allclose(r, [[1.0]])
    rows = qr(RngStream(25).normals((6, 3)))[0].T  # orthonormal rows
    r, q = rq_row_orthonormal(rows)
    assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-12


def test_rq_reconstruction():
    a = RngStream(26).normals((3, 10))
    r, q = rq_row_orthonormal(a)
    assert np.linalg.norm(r @ q - a) < 1e-12
    assert np.linalg.norm(q @ q.T - np.eye(3)) < 1e-12


def test_numerical_rank():
    assert numerical_rank(np.array([3.0, 2.0, 1.0]), 1e-12) == 3
    assert numerical_rank(np.array([1.0, 1e-16]), 1e-12) == 1
    assert numerical_rank(np.array([]), 1e-12) == 0
    assert numerical_rank(np.array([0.0, 0.0]), 1e-12) == 0
    rng = RngStream(27)
    a = (np.outer(rng.substream(0).normals(5), rng.substream(1).normals(5))
         + np.outer(rng.substream(2).normals(5), rng.substream(3).normals(5)))
    s = np.linalg.svd(a, compute_uv=False)
    assert numerical_rank(s, 1e-10) == 2
    with pytest.raises(ValueError, match="tolerance"):
        numerical_rank(s, float("nan"))
    with pytest.raises(ValueError, match="tolerance"):
        numerical_rank(s, -1e-12)
