"""Command line entry point, run in process."""

import numpy as np
import pytest

from ttsketch import RngStream, gaussian_sparse, random_tt, tt_evaluate
from ttsketch.cli import main
from ttsketch.experiments import read_csv
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
        records = read_csv(fh)
    assert len(records) == 2
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
    (["decompose", "--input", "missing.txt", "--method", "det", "--r", "1"],
     "No such file or directory: 'missing.txt'"),
], ids=["run-p-negative", "run-samples-0", "run-nnz-above-size",
        "decompose-missing-input"])
def test_errors_end_in_one_line(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match=message) as info:
        main([*argv, "--out", "out.txt"])
    assert isinstance(info.value.code, str)  # a message, not a traceback
    assert list(tmp_path.iterdir()) == []
