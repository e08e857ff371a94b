"""Parameter-grid Monte-Carlo driver: generate, fit, evaluate, aggregate.

A plan enumerates grid cells (design, n, gamma, b); each cell is replicated
with per-replicate derived seeds, so method comparisons within a replicate
see identical data and (for the profile-likelihood methods) share one
k-means initialization.  The KM baseline reports that initialization
itself.  Records stream out one per (cell, replicate, method); per-record
failures are captured in the record rather than aborting the grid.

Plan files are plain ``key = value`` text ('#' starts a comment):

    design     = poisson          # poisson | bernoulli | gaussian | student_t
    n_values   = 200, 500, 1000
    gamma_values = 0.5, 1, 2
    b_values   = 5, 10, 20
    replicates = 20
    methods    = PL-Pois, KM      # PL-Pois | PL-Gaus | PL-Bern | KM
    seed       = 7

Set BLOCKCLUSTER_WORKERS=<k> (an integer >= 1) to run replicates in a
process pool of at most k workers, no more than the CPU count or the
number of replicates.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from typing import Iterable, Iterator

from . import evaluation, model, optimizer

WORKERS_ENV = "BLOCKCLUSTER_WORKERS"

METHODS = ("PL-Pois", "PL-Gaus", "PL-Bern", "KM")
_METHOD_RATE = {"PL-Pois": "poisson", "PL-Gaus": "gaussian", "PL-Bern": "bernoulli"}

#: designs on which each profile-likelihood rate is admissible
_METHOD_DESIGNS = {
    "PL-Pois": {"poisson", "bernoulli"},
    "PL-Gaus": {"poisson", "bernoulli", "gaussian", "student_t"},
    "PL-Bern": {"bernoulli"},
    "KM": {"poisson", "bernoulli", "gaussian", "student_t"},
}


@dataclass
class SimPlan:
    design: str
    n_values: list[int]
    gamma_values: list[float]
    b_values: list[float]
    replicates: int
    methods: list[str]
    seed: int
    output_path: str = ""
    max_sweeps: int = 100
    kmeans_iters: int = 50

    def __post_init__(self):
        if self.design not in model.DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if not self.n_values or not self.gamma_values or not self.b_values:
            raise ValueError("n_values, gamma_values, and b_values must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; expected one of {METHODS}")
            if self.design not in _METHOD_DESIGNS[meth]:
                raise ValueError(
                    f"method {meth} is not applicable to the {self.design} design"
                )

    def cells(self) -> list[tuple[int, float, float]]:
        return [
            (n, gamma, b)
            for gamma in self.gamma_values
            for n in self.n_values
            for b in self.b_values
        ]


@dataclass
class SimRecord:
    design: str
    n: int
    m: int
    gamma: float
    b: float
    method: str
    replicate: int
    seed: int
    row_rate: float = math.nan
    col_rate: float = math.nan
    overall: float = math.nan
    criterion: float = math.nan
    sweeps: int = 0
    wall_time_ms: float = 0.0
    error: str = ""


RECORD_FIELDS = [f.name for f in fields(SimRecord)]


def _run_replicate(plan: SimPlan, cell_index: int, n: int, gamma: float,
                   b: float, replicate: int) -> list[SimRecord]:
    m = int(round(gamma * n))
    seed = model.derived_seed(plan.seed, cell_index, replicate)
    base = dict(
        design=plan.design, n=n, m=m, gamma=gamma, b=b,
        replicate=replicate, seed=seed,
    )
    try:
        spec = model.design_spec(plan.design, b, n)
        X, truth = model.generate(spec, m, n, seed)
        init = optimizer.kmeans_init(
            X, spec.K, spec.L,
            seed=model.derived_seed(seed, 0),
            iters=plan.kmeans_iters,
        )
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        return [
            SimRecord(method=meth, error=f"{type(exc).__name__}: {exc}", **base)
            for meth in plan.methods
        ]
    records = []
    for meth in plan.methods:
        t0 = time.perf_counter()
        try:
            if meth == "KM":
                labels, criterion, sweeps = init, math.nan, 0
            else:
                config = optimizer.FitConfig(
                    K=spec.K, L=spec.L, rate=_METHOD_RATE[meth],
                    max_sweeps=plan.max_sweeps,
                    kmeans_iters=plan.kmeans_iters,
                    seed=model.derived_seed(seed, 0),
                )
                result = optimizer.fit(X, config, init=init)
                labels, criterion = result.labels, result.criterion
                sweeps = len(result.sweep_trajectory)
            row_rate, col_rate, overall = evaluation.misclassification(truth, labels)
            records.append(
                SimRecord(
                    method=meth, row_rate=row_rate, col_rate=col_rate,
                    overall=overall, criterion=criterion, sweeps=sweeps,
                    wall_time_ms=1e3 * (time.perf_counter() - t0), **base,
                )
            )
        except Exception as exc:  # noqa: BLE001
            records.append(
                SimRecord(
                    method=meth, error=f"{type(exc).__name__}: {exc}",
                    wall_time_ms=1e3 * (time.perf_counter() - t0), **base,
                )
            )
    return records


def _task(args):
    return _run_replicate(*args)


def _worker_count(tasks: int) -> int:
    """Pool size from BLOCKCLUSTER_WORKERS (default 1), clamped to the CPU
    count and the number of tasks; a value that is not an integer >= 1
    raises ValueError."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return max(1, min(workers, os.cpu_count() or 1, tasks))


def run_plan(plan: SimPlan) -> Iterator[SimRecord]:
    """Execute every (cell, replicate, method) of the plan, streaming records."""
    tasks = [
        (plan, ci, n, gamma, b, rep)
        for ci, (n, gamma, b) in enumerate(plan.cells())
        for rep in range(plan.replicates)
    ]
    workers = _worker_count(len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for records in pool.map(_task, tasks, chunksize=1):
                yield from records
    else:
        for task in tasks:
            yield from _task(task)


def write_records(records: Iterable[SimRecord], path) -> Iterator[SimRecord]:
    """Append-as-you-go CSV writer; re-yields each record after writing."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))
            fh.flush()
            yield rec


def read_records(path) -> list[SimRecord]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                SimRecord(
                    design=row["design"], n=int(row["n"]), m=int(row["m"]),
                    gamma=float(row["gamma"]), b=float(row["b"]),
                    method=row["method"], replicate=int(row["replicate"]),
                    seed=int(row["seed"]), row_rate=float(row["row_rate"]),
                    col_rate=float(row["col_rate"]), overall=float(row["overall"]),
                    criterion=float(row["criterion"]), sweeps=int(row["sweeps"]),
                    wall_time_ms=float(row["wall_time_ms"]), error=row["error"],
                )
            )
    return out


SUMMARY_FIELDS = [
    "design", "gamma", "n", "b", "method",
    "mean", "sd", "min", "max", "count", "failures",
]


def aggregate(records: Iterable[SimRecord]) -> list[dict]:
    """Per (gamma, n, b, method): mean, sample SD, min, max of the overall
    rate, plus the failure count.  Rows are ordered by gamma block."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    designs = {rec.design for rec in records}
    if len(designs) > 1:
        raise ValueError(f"records span multiple designs: {sorted(designs)}")
    groups: dict[tuple, list[SimRecord]] = {}
    for rec in records:
        groups.setdefault((rec.gamma, rec.n, rec.b, rec.method), []).append(rec)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], str(k[3]))):
        gamma, n, b, method = key
        ok = [r.overall for r in groups[key] if not r.error]
        failures = sum(1 for r in groups[key] if r.error)
        if ok:
            mean = math.fsum(ok) / len(ok)
            if len(ok) > 1:
                sd = math.sqrt(
                    math.fsum((x - mean) ** 2 for x in ok) / (len(ok) - 1)
                )
            else:
                sd = 0.0
            lo, hi = min(ok), max(ok)
        else:
            mean = sd = lo = hi = math.nan
        out.append(
            {
                "design": records[0].design, "gamma": gamma, "n": n, "b": b,
                "method": method, "mean": mean, "sd": sd, "min": lo, "max": hi,
                "count": len(ok), "failures": failures,
            }
        )
    return out


def write_summary(summary: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(summary)


_LIST_KEYS = {"n_values", "gamma_values", "b_values", "methods"}
_INT_KEYS = {"replicates", "seed", "max_sweeps", "kmeans_iters"}


def parse_plan_file(path) -> SimPlan:
    """Read a key = value plan file (see module docstring for the schema)."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    kwargs: dict = {}
    for key, value in raw.items():
        if key == "design":
            kwargs["design"] = value
        elif key == "output":
            kwargs["output_path"] = value
        elif key == "methods":
            kwargs["methods"] = [v.strip() for v in value.split(",") if v.strip()]
        elif key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "n_values":
                kwargs[key] = [int(v) for v in items]
            else:
                kwargs[key] = [float(v) for v in items]
        elif key in _INT_KEYS:
            kwargs[key] = int(value)
        else:
            raise ValueError(f"{path}: unknown plan key {key!r}")
    missing = {"design", "n_values", "gamma_values", "b_values", "replicates",
               "methods", "seed"} - set(kwargs)
    if missing:
        raise ValueError(f"{path}: missing plan keys {sorted(missing)}")
    return SimPlan(**kwargs)
