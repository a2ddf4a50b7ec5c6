"""Command line entry point.

Two subcommands:

  ttsketch run <experiment> [options]
      Run one of the named studies and write its CSV (stdout by
      default).  Desk-scale sample counts are the default; --full-scale
      switches to the large sample counts and grids.

  ttsketch decompose --input FILE --method {det,rand} --r N [...]
      Decompose a dense or sparse tensor file into a train file.  The
      randomized method sketches at rank r+p and truncates back to r.
"""

import argparse
import sys
import time
from dataclasses import fields

from .decompose import randomized_tt_svd, relative_error, tt_svd_truncated
from .experiments import (
    EXPERIMENT_NAMES, ExperimentConfig, run_experiment, write_csv,
)
from .fileio import load_tensor_file, save_tt
from .rng import RngStream
from .tensor import SparseTensor
from .tt import tt_round


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ttsketch",
        description="tensor-train decomposition experiments and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and emit CSV")
    run.add_argument("experiment", choices=EXPERIMENT_NAMES)
    run.add_argument("--d", type=int, help="tensor order (fixes the order grid)")
    run.add_argument("--n", type=int, help="mode size")
    run.add_argument("--rstar", type=int, dest="r_star",
                     help="construction rank of the targets")
    run.add_argument("--r", type=int, help="approximation rank")
    run.add_argument("--p", type=int, help="oversampling (fixes the p grid)")
    run.add_argument("--tau", type=float, help="noise level (fixes the tau grid)")
    run.add_argument("--samples", type=int, help="samples per grid point")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--nnz", type=int, help="stored entries of sparse targets")
    run.add_argument("--decay-exp", type=float, dest="decay_exp",
                     help="spectrum decay exponent")
    run.add_argument("--cutoff", type=int, help="spectrum cutoff index")
    run.add_argument("--out", help="CSV path (default: stdout)")
    run.add_argument("--full-scale", action="store_true",
                     help="use the large sample counts and grids")
    run.add_argument("--workers", type=int, default=1,
                     help="thread pool size for samples")

    dec = sub.add_parser("decompose", help="decompose a tensor file")
    dec.add_argument("--input", required=True, help="dense or sparse tensor file")
    dec.add_argument("--method", required=True, choices=("det", "rand"))
    dec.add_argument("--r", required=True, type=int, help="target rank")
    dec.add_argument("--p", type=int, default=0, help="oversampling (rand)")
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--out", required=True, help="train file to write")
    return parser


def _cmd_run(args):
    # Every config field has the argparse dest of the same name.
    cfg = ExperimentConfig(**{
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
    })
    records = run_experiment(cfg)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            write_csv(records, fh)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    else:
        write_csv(records, sys.stdout)
    return 0


def _cmd_decompose(args):
    # Options first: a bad --r or --p costs no parse, even of a missing file.
    if args.r < 1:
        raise SystemExit("--r must be positive")
    if args.p < 0:
        raise SystemExit("--p must be nonnegative")
    x = load_tensor_file(args.input)
    t0 = time.perf_counter()
    if args.method == "det":
        result, report = tt_svd_truncated(x, args.r)
    else:
        draft, report = randomized_tt_svd(x, args.r + args.p, RngStream(args.seed))
        result = tt_round(draft, args.r)
    elapsed = time.perf_counter() - t0
    save_tt(args.out, result)
    line = (
        f"method={args.method} shape={'x'.join(str(n) for n in x.shape)} "
        f"ranks={','.join(str(r) for r in result.ranks)} time={elapsed:.3f}s"
    )
    # A sparse x is densified for its error only where the deterministic
    # sweep densified it anyway; a zero x has no relative error.
    sparse_rand = args.method == "rand" and isinstance(x, SparseTensor)
    if not (report.degenerate or sparse_rand):
        line += f" rel_error={relative_error(x, result):.6g}"
    print(line)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command = _cmd_run if args.command == "run" else _cmd_decompose
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        # Bad options and unreadable files end in one line, not a traceback.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
