"""The sparse fast path must reproduce the dense path draw for draw."""

import numpy as np

from ttsketch import (
    RngStream, SparseTensor, clip_ranks, gaussian_sparse, randomized_tt_svd,
    relative_error, tt_norm,
)
from ttsketch import _kernels as K
from ttsketch.tt import right_unfold


def _paths_agree(shape, nnz, sketch, seed, tol=1e-10):
    rng = RngStream(seed)
    xs = gaussian_sparse(shape, nnz, rng.substream(0))
    x = xs.to_dense()
    a, _ = randomized_tt_svd(xs, sketch, rng.substream(1))
    b, _ = randomized_tt_svd(x, sketch, rng.substream(1))
    assert a.ranks == b.ranks
    for ca, cb in zip(a.cores, b.cores):
        assert np.max(np.abs(ca - cb)) < tol
    return a


def test_paths_agree_small_orders():
    _paths_agree((4, 5, 3), 20, clip_ranks((4, 5, 3), 3), seed=1)
    _paths_agree((3, 3, 3, 3, 3), 40, clip_ranks((3,) * 5, 4), seed=2)
    _paths_agree((6, 2, 5, 4), 30, clip_ranks((6, 2, 5, 4), 5), seed=3)


def test_paths_agree_long_binary_train():
    shape = (2,) * 20
    sketch = clip_ranks(shape, 20)
    _paths_agree(shape, 500, sketch, seed=4)


def test_gamma_counters_match_dense_layout():
    # gamma (k, head) of a step must be the dense g entry at the same
    # (row, column) position, i.e. the normal draw at counter k*L + head
    key = np.uint64(K.key_from_seed(99))
    s_prev, lead = 4, 15
    dense_g = K.standard_normals(key, s_prev * lead).reshape(s_prev, lead)
    heads = np.array([0, 3, 7, 14], dtype=np.uint64)
    gam = K.gammas_at(heads, s_prev, np.uint64(lead), key)
    for u, h in enumerate(heads):
        for k in range(s_prev):
            assert gam[u, k] == dense_g[k, int(h)]


def test_single_entry_exact():
    xs = SparseTensor((3, 4, 5), [[1, 2, 3]], [2.5])
    t, _ = randomized_tt_svd(xs, (1, 1), RngStream(6))
    assert relative_error(xs.to_dense(), t) < 1e-12


def test_unaddressable_shape_runs():
    # total element count exceeds 2**62: positions carried as python ints
    shape = (2**16,) * 4
    idx = np.array([
        [11, 222, 3333, 44444],
        [11, 222, 3333, 55555],
        [99, 1, 2, 3],
    ], dtype=np.int64)
    xs = SparseTensor(shape, idx, [1.0, 2.0, 3.0])
    t, report = randomized_tt_svd(xs, (2, 2, 2), RngStream(7))
    assert report.ranks == (2, 2, 2)
    for core in t.cores[1:]:
        m = right_unfold(core)
        assert np.linalg.norm(m @ m.T - np.eye(m.shape[0])) < 1e-12
    # projector: reconstruction norm never exceeds the data norm
    assert tt_norm(t) <= np.linalg.norm(xs.values) + 1e-12


def test_unaddressable_rank_one_exact():
    # a single entry is a rank-1 train the sketch must capture exactly
    shape = (2**16,) * 4
    xs = SparseTensor(shape, [[5, 6, 7, 8]], [2.5])
    t, _ = randomized_tt_svd(xs, (1, 1, 1), RngStream(8))
    # evaluate the train at the stored position only
    v = t.cores[0][5, :]
    v = v @ t.cores[1][:, 6, :]
    v = v @ t.cores[2][:, 7, :]
    got = float(v @ t.cores[3][:, 8])
    assert abs(got - 2.5) < 1e-12
    assert abs(tt_norm(t) - 2.5) < 1e-12


def test_long_order_smoke():
    # far beyond any dense limit; cost stays linear in the order
    shape = (2,) * 62
    rng = RngStream(9)
    xs = gaussian_sparse(shape, 100, rng.substream(0))
    t, report = randomized_tt_svd(xs, clip_ranks(shape, 6), rng.substream(1))
    assert len(report.ranks) == 61
    assert tt_norm(t) <= np.linalg.norm(xs.values) + 1e-10
