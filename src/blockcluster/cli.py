"""Command-line interface: simulate, fit, evaluate, bound.

Exit codes: 0 success, 2 bad flags or validation, 3 I/O failure, 4 domain
error (e.g. a rate function applied to out-of-range data).  Data goes to
stdout or the requested output files; diagnostics go to stderr.  Label
files are 0-based.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import evaluation, matrixio, model, optimizer, simharness
from .criterion import RATE_KINDS
from .errors import DomainError, PartitionError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_matrix(path, fmt):
    if fmt == "binary":
        return matrixio.read_matrix_binary(path)
    return matrixio.read_matrix_csv(path)


def cmd_fit(args) -> int:
    X = _read_matrix(args.input, args.format)
    config = optimizer.FitConfig(
        K=args.K, L=args.L, rate=args.rate, restarts=args.restarts,
        max_sweeps=args.max_sweeps, min_frac=args.min_frac,
        kmeans_iters=args.kmeans_iters, seed=args.seed,
    )
    t0 = time.perf_counter()
    result = optimizer.fit(X, config)
    elapsed_ms = 1e3 * (time.perf_counter() - t0)
    prefix = args.output
    matrixio.write_labels_csv(result.labels.row_labels, f"{prefix}.rows.csv")
    matrixio.write_labels_csv(result.labels.col_labels, f"{prefix}.cols.csv")
    report = {
        "criterion": result.criterion,
        "sweeps": len(result.sweep_trajectory),
        "sweep_trajectory": result.sweep_trajectory,
        "restart_index": result.restart_index,
        "restarts": config.restarts,
        "converged": result.converged,
        "moves_applied": result.moves_applied,
        "wall_time_ms": elapsed_ms,
        "seed": config.seed,
    }
    with open(f"{prefix}.report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    plan = simharness.parse_plan_file(args.plan)
    if args.seed is not None:
        plan.seed = args.seed
    prefix = args.output or plan.output_path or "simulation"
    records_path = f"{prefix}.records.csv"
    written = list(simharness.write_records(simharness.run_plan(plan), records_path))
    summary = simharness.aggregate(written)
    simharness.write_summary(summary, f"{prefix}.summary.csv")
    failures = sum(1 for rec in written if rec.error)
    print(
        json.dumps(
            {"records": len(written), "failures": failures,
             "records_path": records_path,
             "summary_path": f"{prefix}.summary.csv"}
        )
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    def load(rows_path, cols_path):
        g = matrixio.read_labels_csv(rows_path)
        h = matrixio.read_labels_csv(cols_path)
        return g, h

    tg, th = load(args.truth_rows, args.truth_cols)
    eg, eh = load(args.est_rows, args.est_cols)
    K = int(max(tg.max(), eg.max())) + 1
    L = int(max(th.max(), eh.max())) + 1
    truth = model.LabelAssignment(row_labels=tg, col_labels=th, K=K, L=L)
    estimate = model.LabelAssignment(row_labels=eg, col_labels=eh, K=K, L=L)
    row_rate, col_rate, overall = evaluation.misclassification(truth, estimate)
    print(
        json.dumps(
            {"row_rate": row_rate, "col_rate": col_rate, "overall": overall}
        )
    )
    return EXIT_OK


def cmd_bound(args) -> int:
    inp = evaluation.TailBoundInput(
        m=args.m, n=args.n, K=args.K, L=args.L, epsilon=args.epsilon,
        delta=args.delta, tau=args.tau, sigma=args.sigma, c_lip=args.c_lip,
        T_n=args.T_n,
    )
    print(json.dumps({"bound": evaluation.gaussian_tail_bound(inp)}))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="blockcluster", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="bicluster a matrix")
    p_fit.add_argument("--input", required=True, help="input matrix path")
    p_fit.add_argument("--output", required=True,
                       help="output prefix for .rows.csv/.cols.csv/.report.json")
    p_fit.add_argument("--K", type=int, required=True, help="number of row classes")
    p_fit.add_argument("--L", type=int, required=True, help="number of column classes")
    p_fit.add_argument("--rate", required=True, choices=RATE_KINDS)
    p_fit.add_argument("--restarts", type=int, default=1)
    p_fit.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=100)
    p_fit.add_argument("--min-frac", dest="min_frac", type=float, default=0.0,
                       help="minimum class proportion (0 <= eps < 0.5)")
    p_fit.add_argument("--kmeans-iters", dest="kmeans_iters", type=int, default=50)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--format", choices=("csv", "binary"), default="csv")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo plan")
    p_sim.add_argument("--plan", required=True, help="plan config file")
    p_sim.add_argument("--output", default="", help="output prefix")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the plan's seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="misclassification of an estimate")
    p_eval.add_argument("--truth-rows", required=True)
    p_eval.add_argument("--truth-cols", required=True)
    p_eval.add_argument("--est-rows", required=True)
    p_eval.add_argument("--est-cols", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_bound = sub.add_parser("bound", help="Gaussian finite-sample tail bound")
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--K", type=int, required=True)
    p_bound.add_argument("--L", type=int, required=True)
    p_bound.add_argument("--epsilon", type=float, required=True)
    p_bound.add_argument("--delta", type=float, required=True)
    p_bound.add_argument("--tau", type=float, required=True)
    p_bound.add_argument("--sigma", type=float, required=True)
    p_bound.add_argument("--c-lip", dest="c_lip", type=float, required=True)
    p_bound.add_argument("--T-n", dest="T_n", type=int, required=True)
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (DomainError, PartitionError) as exc:
        print(f"blockcluster: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"blockcluster: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"blockcluster: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
