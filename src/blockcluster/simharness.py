"""Parameter-grid Monte-Carlo driver: generate, fit, evaluate, aggregate.

A plan enumerates grid cells (design, n, gamma, b); each cell is replicated
with per-replicate derived seeds, so method comparisons within a replicate
see identical data and (for the profile-likelihood methods) share one
k-means initialization.  The KM baseline reports that initialization
itself.  Records stream out one per (cell, replicate, method); per-record
failures are captured in the record rather than aborting the grid.

Plan files are plain ``key = value`` text ('#' starts a comment, a repeated
key keeps its last value, lists are comma-separated).  The keys are the
fields of ``SimPlan``, ``output_path`` spelled ``output``; the last three
are optional:

    design       = poisson          # poisson | bernoulli | gaussian | student_t
    n_values     = 200, 500, 1000   # columns n
    gamma_values = 0.5, 1, 2        # rows m = round(gamma * n)
    b_values     = 5, 10, 20        # design signal strength
    replicates   = 20
    methods      = PL-Pois, KM      # PL-Pois | PL-Gaus | PL-Bern | KM
    seed         = 7
    output       = sim              # output prefix; --output overrides it
    max_sweeps   = 100              # sweeps per fit (default: 100)
    kmeans_iters = 50               # Lloyd steps per k-means start (default: 50)

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
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain
from typing import Iterable, Iterator

from . import evaluation, model, optimizer

WORKERS_ENV = "BLOCKCLUSTER_WORKERS"

#: method -> (profile-likelihood rate, or None for the k-means baseline;
#: the designs on which the method is admissible)
_METHODS = {
    "PL-Pois": ("poisson", {"poisson", "bernoulli"}),
    "PL-Gaus": ("gaussian", set(model.DESIGNS)),
    "PL-Bern": ("bernoulli", {"bernoulli"}),
    "KM": (None, set(model.DESIGNS)),
}
METHODS = tuple(_METHODS)


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
        for key in ("replicates", "max_sweeps", "kmeans_iters"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; expected one of {METHODS}")
            if self.design not in _METHODS[meth][1]:
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


_SCALARS = {"int": int, "float": float, "str": str}


def _parse_value(annotation: str, text: str):
    """``text`` as a value of a field whose annotation (a string here) is
    int, float, str, or a comma-separated ``list[...]`` of one of them."""
    if annotation.startswith("list["):
        item = _SCALARS[annotation[len("list["):-1]]
        return [item(v.strip()) for v in text.split(",") if v.strip()]
    return _SCALARS[annotation](text)


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
        rate = _METHODS[meth][0]
        try:
            if rate is None:  # KM: no criterion, no sweeps
                labels, outcome = init, {}
            else:
                config = optimizer.FitConfig(
                    K=spec.K, L=spec.L, rate=rate,
                    max_sweeps=plan.max_sweeps,
                    kmeans_iters=plan.kmeans_iters,
                    seed=model.derived_seed(seed, 0),
                )
                result = optimizer.fit(X, config, init=init)
                labels = result.labels
                outcome = dict(criterion=result.criterion,
                               sweeps=len(result.sweep_trajectory))
            row_rate, col_rate, overall = evaluation.misclassification(truth, labels)
            outcome.update(row_rate=row_rate, col_rate=col_rate, overall=overall)
        except Exception as exc:  # noqa: BLE001
            outcome = dict(error=f"{type(exc).__name__}: {exc}")
        records.append(SimRecord(
            method=meth, wall_time_ms=1e3 * (time.perf_counter() - t0),
            **outcome, **base,
        ))
    return records


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
            for records in pool.map(_run_replicate, *zip(*tasks), chunksize=1):
                yield from records
    else:
        for task in tasks:
            yield from _run_replicate(*task)


def write_records(records: Iterable[SimRecord], path) -> Iterator[SimRecord]:
    """Append-as-you-go CSV writer; re-yields each record after writing.
    The file is created with the first record, so a run that fails before
    its first record (a bad BLOCKCLUSTER_WORKERS, say) leaves no file."""
    records = iter(records)
    first = next(records, None)
    if first is None:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        for rec in chain([first], records):
            writer.writerow(asdict(rec))
            fh.flush()
            yield rec


def read_records(path) -> list[SimRecord]:
    with open(path, newline="") as fh:
        return [
            SimRecord(**{f.name: _parse_value(f.type, row[f.name])
                         for f in fields(SimRecord)})
            for row in csv.DictReader(fh)
        ]


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
        ok = [r.overall for r in groups[key] if not r.error]
        failures = sum(1 for r in groups[key] if r.error)
        if ok:
            mean = math.fsum(ok) / len(ok)
            # sample SD; a single value is exactly its mean, so SD 0
            sd = math.sqrt(math.fsum((x - mean) ** 2 for x in ok)
                           / max(len(ok) - 1, 1))
            lo, hi = min(ok), max(ok)
        else:
            mean = sd = lo = hi = math.nan
        values = (records[0].design, *key, mean, sd, lo, hi, len(ok), failures)
        out.append(dict(zip(SUMMARY_FIELDS, values)))
    return out


def write_summary(summary: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(summary)


def parse_plan_file(path) -> SimPlan:
    """Read a key = value plan file (see the module docstring for the keys)."""
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
    plan_keys = {"output" if f.name == "output_path" else f.name: f
                 for f in fields(SimPlan)}
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in plan_keys:
            raise ValueError(f"{path}: unknown plan key {key!r}")
        f = plan_keys[key]
        try:
            kwargs[f.name] = _parse_value(f.type, value)
        except ValueError as exc:
            raise ValueError(f"{path}: plan key {key!r}: {exc}") from None
    missing = {key for key, f in plan_keys.items() if f.default is MISSING} - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing plan keys {sorted(missing)}")
    try:
        return SimPlan(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
