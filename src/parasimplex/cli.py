"""Command-line front end.

Subcommands: ``solve`` (a program file), ``dantzig`` / ``svm`` / ``diffnet``
(build + solve from data files), ``gen`` (write synthetic data), ``bench``
(replicated timing/accuracy runs).

Exit codes: 0 path traced to the target (or lambda hit zero), 2 the problem
is unbounded or infeasible, 3 numerical failure, 4 pivot budget exhausted,
64 usage or input errors. PSM_LOG=info logs each refactorization at a failed
pivot to stderr; PSM_LOG=trace also prints there, once the solve returns, one
tab-separated line per pivot of the returned path.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import io as pio
from .core import SolutionPath, Termination
from .engine import SolveOptions, solve_path
from .errors import InfeasibleAtLargeLambda, ParasimplexError, SingularBasis
from .experiments import (
    DantzigGenConfig,
    DiffNetGenConfig,
    breakpoint_violations,
    gen_dantzig,
    gen_diffnet,
    run_dantzig_bench,
    run_diffnet_bench,
    stop_options,
    summarize,
)
from .reductions import (
    DantzigInstance,
    DiffNetInstance,
    SvmInstance,
    build_dantzig,
    build_diffnet,
    build_svm,
    recover_dantzig,
    recover_diffnet,
    recover_svm,
)

EXIT_OK = 0
EXIT_NO_SOLUTION = 2
EXIT_NUMERICAL = 3
EXIT_PIVOT_CAP = 4
EXIT_USAGE = 64

_TERMINATION_EXIT = {
    Termination.REACHED_TARGET: EXIT_OK,
    Termination.LAMBDA_NONPOSITIVE: EXIT_OK,
    Termination.UNBOUNDED: EXIT_NO_SOLUTION,
    Termination.INFEASIBLE: EXIT_NO_SOLUTION,
    Termination.NUMERICAL_FAILURE: EXIT_NUMERICAL,
    Termination.ITERATION_CAP: EXIT_PIVOT_CAP,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on bad usage instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging() -> bool:
    """Configure the package logger from PSM_LOG; True if it asks for pivot lines."""
    mode = os.environ.get("PSM_LOG", "off").strip().lower()
    if mode in ("info", "trace"):
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO,
            format="%(name)s %(levelname)s %(message)s",
        )
    return mode == "trace"


def _solve(args: argparse.Namespace, program, opts: SolveOptions, basis=None) -> SolutionPath:
    """``solve_path``, then under PSM_LOG=trace one stderr line per returned pivot."""
    path = solve_path(program, opts, initial_basis=basis)
    if args.trace:
        for i, ev in enumerate(path.events, start=1):
            print(f"{i}\t{ev.kind.value}\t{ev.entering}\t{ev.leaving}"
                  f"\t{ev.lambda_star:.12g}\t{ev.t:.6g}\t{ev.s:.6g}", file=sys.stderr)
    return path


def _report(path: SolutionPath, orig=None) -> int:
    """Print orig's support size at the terminal lambda, if given, and the outcome."""
    if orig is not None and orig.segments:
        print(f"terminal_support_size={len(orig.support_at(path.terminal_lambda))}")
    print(
        f"termination={path.termination.value} pivots={path.num_pivots} "
        f"segments={len(path.segments)} terminal_lambda={path.terminal_lambda:.10g}"
    )
    code = _TERMINATION_EXIT[path.termination]
    if code in (EXIT_NO_SOLUTION, EXIT_NUMERICAL) and path.termination_detail:
        print(path.termination_detail, file=sys.stderr)
    return code


def cmd_solve(args: argparse.Namespace) -> int:
    src = Path(args.program)
    program = (
        pio.load_program_json(src)
        if src.suffix.lower() == ".json"
        else pio.load_program_coo(src)
    )
    basis = None
    if args.basis:
        basis = [int(t) for t in args.basis.split(",") if t.strip()]
    opts = SolveOptions(lambda_target=args.target, max_pivots=args.max_pivots)
    path = _solve(args, program, opts, basis)
    if args.out_json:
        pio.save_path_json(args.out_json, path)
    if args.out_csv:
        pio.save_path_csv(args.out_csv, path)
    return _report(path)


def cmd_dantzig(args: argparse.Namespace) -> int:
    if args.sigma is not None and args.stop_rule.startswith("value:"):
        raise ValueError("--sigma applies only to the path-demo and benchmark stop rules")
    X = pio.load_matrix_csv(args.x)
    y = pio.load_vector_csv(args.y)
    inst = DantzigInstance(X, y)
    opts = stop_options(args.stop_rule, inst, 1.0 if args.sigma is None else args.sigma)
    path = _solve(args, build_dantzig(inst), opts)
    orig = recover_dantzig(path)
    if args.out:
        pio.save_original_path_csv(args.out, orig, breakpoint_violations(X, y, orig))
    return _report(path, orig)


def cmd_svm(args: argparse.Namespace) -> int:
    X = pio.load_matrix_csv(args.x)
    y = pio.load_vector_csv(args.y)
    inst = SvmInstance(X, y)
    program, basis = build_svm(inst)
    path = _solve(args, program, SolveOptions(lambda_target=args.target), basis)
    orig = recover_svm(path, inst)
    if args.out:
        pio.save_original_path_csv(args.out, orig)
    return _report(path, orig)


def cmd_diffnet(args: argparse.Namespace) -> int:
    S_X = pio.load_matrix_csv(args.sx)
    S_Y = pio.load_matrix_csv(args.sy)
    inst = DiffNetInstance.from_covariances(S_X, S_Y)
    path = _solve(args, build_diffnet(inst), stop_options(args.stop_rule, inst))
    orig = recover_diffnet(path, inst)
    if args.out:
        pio.save_original_path_csv(args.out, orig)
    return _report(path, orig)


def _gen_config(args: argparse.Namespace):
    """The generator config that ``gen`` and ``bench`` read from the flags."""
    if args.family == "dantzig":
        sigma = 1.0 if args.sigma is None else args.sigma
        return DantzigGenConfig(
            n=args.n, d=args.d, s=args.s, sigma=sigma, rng_seed=args.seed
        )
    if args.sigma is not None:
        raise ValueError("--sigma is dantzig-only")
    return DiffNetGenConfig(d=args.d, n=args.n, sparsity=args.s, rng_seed=args.seed)


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _gen_config(args)
    if args.family == "dantzig":
        X, y, theta0 = gen_dantzig(cfg)
        files = {"X.csv": X, "y.csv": y.reshape(-1, 1),
                 "theta0.csv": theta0.reshape(-1, 1)}
    else:
        S_X, S_Y, delta0 = gen_diffnet(cfg)
        files = {"SX.csv": S_X, "SY.csv": S_Y, "delta0.csv": delta0}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in files.items():
        pio.save_matrix_csv(out / name, M)
    print(f"wrote {' '.join(files)} to {out}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _gen_config(args)
    if args.family == "dantzig":
        rule = "benchmark" if args.stop_rule is None else args.stop_rule
        records = run_dantzig_bench(cfg, stop_rule=rule, repetitions=args.reps)
    elif args.stop_rule is not None:
        raise ValueError("--stop-rule is dantzig-only: bench diffnet stops at "
                         "the true sparsity")
    else:
        records = run_diffnet_bench(cfg, repetitions=args.reps)
    if args.out_csv:
        pio.save_bench_csv(args.out_csv, records)
    stats = summarize(records)
    if args.out_summary:
        pio.save_summary_json(args.out_summary, stats)
    for key in sorted(stats):
        print(f"{key}={stats[key]:.6g}")
    return EXIT_OK if stats.get("completed", 0.0) else EXIT_NUMERICAL


def build_parser() -> _Parser:
    parser = _Parser(prog="parasimplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="trace the path of a program file")
    p_solve.add_argument("program", help=".json or sparse-text program file")
    p_solve.add_argument("--target", type=float, default=0.0)
    p_solve.add_argument("--max-pivots", type=int, default=None)
    p_solve.add_argument("--basis", default=None,
                         help="comma-separated starting basis columns")
    p_solve.add_argument("--out-json", default=None)
    p_solve.add_argument("--out-csv", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_dz = sub.add_parser("dantzig", help="l1 regression path from X,y CSVs")
    p_dz.add_argument("--x", required=True)
    p_dz.add_argument("--y", required=True)
    p_dz.add_argument("--stop-rule", default="path-demo")
    p_dz.add_argument("--sigma", type=float, default=None,
                      help="noise scale of path-demo and benchmark (default 1)")
    p_dz.add_argument("--out", default=None, help="path CSV in theta coordinates")
    p_dz.set_defaults(func=cmd_dantzig)

    p_svm = sub.add_parser("svm", help="l1-constrained classifier path")
    p_svm.add_argument("--x", required=True)
    p_svm.add_argument("--y", required=True, help="labels in {-1,+1}")
    p_svm.add_argument("--target", type=float, default=0.0)
    p_svm.add_argument("--out", default=None)
    p_svm.set_defaults(func=cmd_svm)

    p_dn = sub.add_parser("diffnet", help="precision-difference path from "
                                          "covariance CSVs")
    p_dn.add_argument("--sx", required=True)
    p_dn.add_argument("--sy", required=True)
    p_dn.add_argument("--stop-rule", default="value:0",
                      help="value:<lambda> or sparsity:<k>")
    p_dn.add_argument("--out", default=None)
    p_dn.set_defaults(func=cmd_diffnet)

    # the generator flags of gen and bench, read by _gen_config
    gen_flags = _Parser(add_help=False)
    gen_flags.add_argument("family", choices=("dantzig", "diffnet"))
    gen_flags.add_argument("--n", type=int, default=100)
    gen_flags.add_argument("--d", type=int, default=250)
    gen_flags.add_argument("--s", type=int, default=5,
                           help="true support size (dantzig) or off-diagonal "
                                "perturbations (diffnet)")
    gen_flags.add_argument("--sigma", type=float, default=None,
                           help="noise scale (dantzig only; default 1)")
    gen_flags.add_argument("--seed", type=int, default=None)

    p_gen = sub.add_parser("gen", parents=[gen_flags],
                           help="write a synthetic instance to CSVs")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", parents=[gen_flags],
                             help="replicated runs with summary stats")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--stop-rule", default=None,
                         help="dantzig only: path-demo, benchmark (default) "
                              "or value:<lambda>")
    p_bench.add_argument("--out-csv", default=None)
    p_bench.add_argument("--out-summary", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.trace = _setup_logging()
    try:
        return args.func(args)
    except InfeasibleAtLargeLambda as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except SingularBasis as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ParasimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
