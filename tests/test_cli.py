"""Command line entry point, run in process."""

import csv
import os

import numpy as np
import pytest

import oracles as o
from test_fileio import _CHUNK_ALLOWANCE
from ttsketch import RngStream, SparseTensor, gaussian_sparse, random_tt, tt_evaluate
from ttsketch.cli import main
from ttsketch.experiments import CSV_COLUMNS, CSV_VERSION
from ttsketch.fileio import load_tt_file, save_dense, save_sparse


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "noise.csv"
    code = main([
        "run", "noise", "--tau", "0.05", "--d", "4", "--n", "3",
        "--rstar", "2", "--r", "2", "--samples", "2", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        assert fh.readline() == CSV_VERSION + "\n"
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3 and all(len(row) == len(CSV_COLUMNS) for row in rows)
    assert capsys.readouterr().out == ""  # csv went to the file, not stdout


def test_run_stdout(capsys):
    code = main([
        "run", "noise", "--tau", "0.0", "--d", "4", "--n", "2",
        "--rstar", "1", "--r", "1", "--samples", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# ttsketch csv v1\n")
    assert len(out.splitlines()) == 3


def test_decompose_dense_det(tmp_path, capsys):
    x = tt_evaluate(random_tt((3, 4, 3), 2, RngStream(5)))
    src = tmp_path / "x.txt"
    save_dense(src, x)
    dst = tmp_path / "x.tt"
    code = main([
        "decompose", "--input", str(src), "--method", "det",
        "--r", "2", "--out", str(dst),
    ])
    assert code == 0
    t = load_tt_file(dst)
    assert np.linalg.norm(tt_evaluate(t) - x) < 1e-10 * np.linalg.norm(x)
    assert "rel_error=" in capsys.readouterr().out


def test_decompose_sparse_rand(tmp_path, capsys):
    xs = gaussian_sparse((4, 4, 4), 10, RngStream(6))
    src = tmp_path / "s.txt"
    save_sparse(src, xs)
    dst = tmp_path / "s.tt"
    code = main([
        "decompose", "--input", str(src), "--method", "rand",
        "--r", "4", "--p", "2", "--seed", "9", "--out", str(dst),
    ])
    assert code == 0
    t = load_tt_file(dst)
    assert t.shape == (4, 4, 4)
    assert "time=" in capsys.readouterr().out


def test_decompose_sparse_det_prints_the_error(tmp_path, capsys):
    # The deterministic sweep densifies a sparse input, so its error is
    # printed as for dense input.
    xs = gaussian_sparse((4, 4, 4), 10, RngStream(6))
    src = tmp_path / "s.txt"
    save_sparse(src, xs)
    code = main(["decompose", "--input", str(src), "--method", "det",
                 "--r", "10", "--out", str(tmp_path / "s.tt")])
    assert code == 0
    err = float(capsys.readouterr().out.split("rel_error=")[1])
    assert err < 1e-12  # rank 10 covers every unfolding of 4x4x4


def _outer_product_sum(shape, supports, terms, seed):
    """A sum of sparse outer products, stored sparse: each term is the outer
    product of random vectors on random supports, as in the benchmark's
    sparse file."""
    rng = np.random.default_rng(seed)
    codes, values = [], []
    for _ in range(terms):
        pos = [np.sort(rng.choice(n, size=k, replace=False)) for n, k in zip(shape, supports)]
        term = np.ones(())
        for k in supports:
            term = np.multiply.outer(term, rng.standard_normal(k))
        grid = np.meshgrid(*pos, indexing="ij")
        codes.append(np.ravel_multi_index([g.ravel() for g in grid], shape))
        values.append(term.ravel())
    code, at = np.unique(np.concatenate(codes), return_inverse=True)
    return SparseTensor(shape, np.stack(np.unravel_index(code, shape), axis=1),
                        np.bincount(at, np.concatenate(values)))


def test_decompose_sparse_file_holds_the_text_and_two_tensors(tmp_path):
    # Two outer products at 16^6, supports (6, 6, 6, 5, 5, 8): N = 86400
    # entries, one row per 8 of them at the distinct prefixes of length 5.
    # At width r + p = 16 step 6 is the identity (16 >= its 16 columns).
    # The command holds the text while it loads and the SparseTensor from
    # then on, 8 d + 9 bytes an entry.  Beside them:
    # - the load holds the SparseTensor's checks (a boolean per index and
    #   three int64 an entry, less than the tensor) and one chunk
    #   (_CHUNK_ALLOWANCE);
    # - the sweep holds its rows, one per distinct prefix of the first
    #   drawing step, 16 wide (16 N bytes here), beside their projection,
    #   and a few arrays of N integers: less than the tensor again.
    # A list of the whole text's tokens, or an update of every entry at the
    # identity step (N x 16 floats), does not fit.
    x = _outer_product_sum((16,) * 6, (6, 6, 6, 5, 5, 8), 2, seed=4)
    assert x.nnz == 86400
    src, dst = tmp_path / "s.txt", tmp_path / "s.tt"
    save_sparse(src, x)
    argv = ["decompose", "--input", str(src), "--method", "rand",
            "--r", "12", "--p", "4", "--seed", "1", "--out", str(dst)]
    peak = o.peak_bytes(lambda: main(argv))
    tensor = x.idx.nbytes + x.values.nbytes + x.split.nbytes
    assert peak < os.path.getsize(src) + 2 * tensor + _CHUNK_ALLOWANCE
    assert load_tt_file(dst).shape == x.shape


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_decompose_prints_the_error_of_input_far_from_one(tmp_path, capsys, scale):
    # The printed error read nan at 1e200 and the command exited 1 at
    # 1e-170, after writing the train.
    src = tmp_path / "x.txt"
    save_dense(src, np.diag([scale, scale]))
    code = main(["decompose", "--input", str(src), "--method", "det",
                 "--r", "1", "--out", str(tmp_path / "x.tt")])
    assert code == 0
    assert capsys.readouterr().out.split("rel_error=")[1] == "0.707107\n"


@pytest.mark.parametrize("method", ["det", "rand"])
def test_decompose_zero_file_prints_no_error(tmp_path, capsys, method):
    # A zero tensor has no relative error; the zero train is written and
    # the command succeeds.
    src = tmp_path / "z.txt"
    save_dense(src, np.zeros((3, 4, 2)))
    dst = tmp_path / "z.tt"
    code = main(["decompose", "--input", str(src), "--method", method,
                 "--r", "2", "--out", str(dst)])
    assert code == 0
    t = load_tt_file(dst)
    assert t.ranks == (1, 1) and not tt_evaluate(t).any()
    out = capsys.readouterr().out
    assert "ranks=1,1" in out and "rel_error" not in out


@pytest.mark.parametrize("method, flags, message", [
    ("det", ["--r", "0"], "--r must be positive"),
    ("rand", ["--r", "1", "--p", "-1"], "--p must be nonnegative"),
], ids=["r-0", "p-negative"])
def test_decompose_rejects_bad_rank(tmp_path, method, flags, message):
    x = tt_evaluate(random_tt((3, 3), 1, RngStream(7)))
    src = tmp_path / "m.txt"
    save_dense(src, x)
    dst = tmp_path / "m.tt"
    with pytest.raises(SystemExit, match=message):
        main(["decompose", "--input", str(src), "--method", method,
              *flags, "--out", str(dst)])
    assert not dst.exists()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonsense"])


@pytest.mark.parametrize("argv, message", [
    (["run", "noise", "--p", "-1"], "oversampling must be nonnegative"),
    (["run", "noise", "--samples", "0", "--d", "4", "--n", "2", "--r", "1",
      "--rstar", "1"], "samples must be positive"),
    (["run", "runtime", "--d", "5"],
     r"entry count must be in \[1, element count\]"),
    (["run", "runtime", "--nnz", "0"],
     r"entry count must be in \[1, element count\]"),
    (["run", "runtime", "--nnz", "5000", "--d", "10"],
     r"entry count must be in \[1, element count\]"),
    (["run", "noise", "--tau", "nan"], "noise level must be finite"),
    (["run", "noise", "--tau", "inf"], "noise level must be finite"),
    (["run", "order-decay", "--decay-exp", "nan", "--d", "4", "--samples", "1"],
     "decay exponent must be positive"),
    (["decompose", "--input", "missing.txt", "--method", "det", "--r", "1"],
     "No such file or directory: 'missing.txt'"),
    (["decompose", "--input", "missing.txt", "--method", "rand", "--r", "0"],
     "--r must be positive"),
], ids=["run-p-negative", "run-samples-0", "run-nnz-above-size",
        "run-nnz-0", "run-nnz-5000-d-10", "run-tau-nan", "run-tau-inf",
        "run-decay-exp-nan", "decompose-missing-input",
        "decompose-missing-input-r-0"])
def test_errors_end_in_one_line(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match=message) as info:
        main([*argv, "--out", "out.txt"])
    assert isinstance(info.value.code, str)  # a message, not a traceback
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["det", "rand"])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_decompose_order_one_is_one_line(tmp_path, kind, method):
    src = tmp_path / "v.txt"
    if kind == "dense":
        save_dense(src, [1.0, 2.0, 3.0])
    else:
        save_sparse(src, SparseTensor((5,), [[1], [3]], [1.0, -2.0]))
    dst = tmp_path / "v.tt"
    with pytest.raises(SystemExit, match="decomposition needs order >= 2") as info:
        main(["decompose", "--input", str(src), "--method", method,
              "--r", "1", "--out", str(dst)])
    assert isinstance(info.value.code, str)
    assert not dst.exists()
