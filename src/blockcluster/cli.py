"""Command-line interface: simulate, fit, evaluate, bound.

Exit codes: 0 success, 2 bad flags or validation, 3 I/O failure, 4 domain
error (e.g. a rate function applied to out-of-range data, or a simulation
whose every record failed).  Data goes to stdout or the requested output
files; diagnostics go to stderr.  Label files are 0-based.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _add_fields(parser, cls, **extras) -> None:
    """A ``--name`` flag for each field of the dataclass ``cls``, its
    underscores spelled as dashes: typed by the field's annotation, with the
    field's default, or required if it has none.  ``extras`` maps a field
    to further ``add_argument`` keywords."""
    for f in dataclasses.fields(cls):
        default = ({"required": True} if f.default is dataclasses.MISSING
                   else {"default": f.default})
        parser.add_argument(f"--{f.name.replace('_', '-')}",
                            type=simharness._SCALARS[f.type], **default,
                            **extras.get(f.name, {}))


def _from_flags(build, args, names=None):
    """``build`` given the flags ``names``, by default the fields of the
    dataclass ``build``; an error naming one names its flag."""
    names = names or [f.name for f in dataclasses.fields(build)]
    try:
        return build(**{name: getattr(args, name) for name in names})
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in names:
            raise
        raise type(exc)(f"--{name.replace('_', '-')} {rest}") from exc


def cmd_fit(args) -> int:
    X = getattr(matrixio, f"read_matrix_{args.format}")(args.input)
    config = _from_flags(optimizer.FitConfig, args)
    t0 = time.perf_counter()
    result = optimizer.fit(X, config)
    elapsed_ms = 1e3 * (time.perf_counter() - t0)
    prefix = args.output
    matrixio.write_labels_csv(result.labels.row_labels, f"{prefix}.rows.csv")
    matrixio.write_labels_csv(result.labels.col_labels, f"{prefix}.cols.csv")
    report = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result) if f.name != "labels"}
    report.update(sweeps=len(result.sweep_trajectory), restarts=config.restarts,
                  wall_time_ms=elapsed_ms, seed=config.seed)
    with open(f"{prefix}.report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    plan = simharness.parse_plan_file(args.plan)
    if args.seed is not None:
        plan = _from_flags(lambda seed: dataclasses.replace(plan, seed=seed), args, ["seed"])
    prefix = args.output or plan.output_path or "simulation"
    records_path = f"{prefix}.records.csv"
    written = list(simharness.write_records(simharness.run_plan(plan), records_path))
    summary = simharness.aggregate(written)
    simharness.write_summary(summary, f"{prefix}.summary.csv")
    failures = [rec.error for rec in written if rec.error]
    print(
        json.dumps(
            {"records": len(written), "failures": len(failures),
             "records_path": records_path,
             "summary_path": f"{prefix}.summary.csv"}
        )
    )
    if failures and len(failures) == len(written):
        print(f"blockcluster: every record failed; the first: {failures[0]}",
              file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_evaluate(args) -> int:
    tg, th, eg, eh = (matrixio.read_labels_csv(path) for path in
                      (args.truth_rows, args.truth_cols, args.est_rows, args.est_cols))
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
    inp = _from_flags(evaluation.TailBoundInput, args)
    print(json.dumps({"bound": evaluation.gaussian_tail_bound(inp)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The ``blockcluster`` parser; argparse reports a bad flag with the
    usage and exit status 2, ``EXIT_USAGE``."""
    parser = argparse.ArgumentParser(prog="blockcluster", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="bicluster a matrix")
    p_fit.add_argument("--input", required=True, help="input matrix path")
    p_fit.add_argument("--output", required=True,
                       help="output prefix for .rows.csv/.cols.csv/.report.json")
    _add_fields(p_fit, optimizer.FitConfig, K={"help": "number of row classes"},
                L={"help": "number of column classes"}, rate={"choices": RATE_KINDS},
                min_frac={"help": "minimum class proportion (0 <= eps < 0.5)"})
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
    _add_fields(p_bound, evaluation.TailBoundInput)
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
    except (ValueError, OSError) as exc:
        print(f"blockcluster: {exc}", file=sys.stderr)
        return (EXIT_DOMAIN if isinstance(exc, (DomainError, PartitionError))
                else EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
