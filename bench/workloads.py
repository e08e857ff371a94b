"""The benchmark's workloads: sim_desk, cli_fit and fit_hard.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs units of work, one at a time, for a single closed-loop client.  A unit
reports the latency of each op it ran, its wall time with verification left
out, and one verdict per op ('' when the op's outputs check out).

Why these three: together they use each layer two ways.  The sweep makes
few moves per fit on sim_desk (cost: the per-sweep rebuild) and thousands on
fit_hard (cost: the apply phase).  ``kmeans_init`` runs many times on
matrices that fit in cache on sim_desk and once on a matrix far larger than
cache on cli_fit.  fit_hard bypasses ``kmeans_init`` and ``generate``;
cli_fit is the only workload that runs ``cli`` and ``matrixio``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from blockcluster import cli, criterion, evaluation, matrixio, model, optimizer, simharness

#: the modules a traced run patches, by the short names spans.TARGETS uses
MODULES = {
    "cli": cli, "evaluation": evaluation, "matrixio": matrixio,
    "model": model, "optimizer": optimizer, "simharness": simharness,
}

BENCH = Path(__file__).resolve().parent

#: relative tolerance between a reported criterion and the recomputed one
REL_TOL = 1e-9

#: fit_hard ops whose labels go into the digest and whose misclassification
#: goes into recovered_frac, so that runs of different length (and commits
#: of different speed) report on the same fits
REFERENCE_OPS = 24

#: fit_hard draws its block means from this fixed stream: every workload
#: seed poses the same planted model (and so needs about the same sweeps and
#: moves per fit), and the seed draws the labels, the noise and the starts
MEANS_SEED = 0

#: a CLI child that runs longer than this is killed and its op fails
CHILD_TIMEOUT_S = 120

#: cli_fit cycles ``--seed`` over this many k-means seeds.  Run time and peak
#: memory of k-means depend on its starts: with one seed per run they swung
#: by up to a quarter from one workload seed to the next
KMEANS_SEEDS = 4

FULL = {
    # the shipped plan as is
    "sim_desk": {},
    # Poisson 2x3 design, b = 10; X is 32 MB
    "cli_fit": {"n": 2000, "b": 10.0},
    # Gaussian 8x8, uniform p and q, means 0.5 * N(0, 1), sigma = 1; X is 8 MB
    "fit_hard": {"n": 1000, "K": 8},
}

#: sizes for the smoke test
TINY = {
    "sim_desk": {"n_values": [24], "b_values": [10.0], "replicates": 2},
    "cli_fit": {"n": 40, "b": 10.0},
    "fit_hard": {"n": 48, "K": 3},
}


@dataclass
class Unit:
    op_s: list[float]
    wall_s: float
    verdicts: list[str]
    #: 1 - overall misclassification of each profile-likelihood fit
    recovered: list[float] = field(default_factory=list)
    #: spans recorded in a child process
    spans: list = field(default_factory=list)
    #: cli_fit: child wall minus the time inside cli.main
    startup_s: float | None = None
    #: cli_fit: the child's peak RSS
    rss_mb: float | None = None


def check_fit(X: model.DataMatrix, g: np.ndarray, h: np.ndarray, K: int, L: int,
              value: float, rate: str) -> str:
    """'' if the labels are in range, no class is empty and ``value`` is the
    criterion of (g, h) within REL_TOL; else the reason."""
    for lab, k, axis, size in ((g, K, "row", X.m), (h, L, "column", X.n)):
        if lab.shape != (size,):
            return f"{axis} labels have shape {lab.shape}, expected ({size},)"
        if lab.min() < 0 or lab.max() >= k:
            return f"{axis} label out of range"
        if np.bincount(lab, minlength=k).min() == 0:
            return f"empty {axis} class"
    labels = model.LabelAssignment(row_labels=g, col_labels=h, K=K, L=L)
    ref = criterion.criterion_value(
        criterion.block_stats(X, labels), criterion.rate_function(rate)
    )
    if not math.isclose(value, ref, rel_tol=REL_TOL):
        return f"criterion {value!r} differs from recomputed {ref!r}"
    return ""


def _label_bytes(g: np.ndarray, h: np.ndarray) -> bytes:
    return np.asarray(g, dtype="<i8").tobytes() + np.asarray(h, dtype="<i8").tobytes()


class SimDesk:
    """``configs/poisson_desk.cfg`` with its seed replaced by the workload
    seed, run serially in-process through run_plan -> write_records ->
    aggregate -> write_summary, as ``blockcluster simulate`` does.  A unit
    is one pass over the plan; an op is one replicate."""

    name = "sim_desk"
    in_process = True

    def __init__(self, root: Path, work: Path, seed: int, sizes: dict):
        self.plan_path = root / "configs" / "poisson_desk.cfg"
        self.records_path = work / "sim.records.csv"
        self.summary_path = work / "sim.summary.csv"
        self.seed = seed
        self.sizes = sizes
        self.digest: str | None = None

    def setup(self) -> None:
        plan = simharness.parse_plan_file(self.plan_path)
        plan.seed = self.seed
        for key, value in self.sizes.items():
            setattr(plan, key, value)
        self.plan = plan
        self.matrix_bytes = max(8 * int(round(g * n)) * n for n, g, _ in plan.cells())

    def unit(self, index: int, traced: bool) -> Unit:
        per = len(self.plan.methods)
        written, op_s = [], []
        t0 = last = perf_counter()
        for rec in simharness.write_records(simharness.run_plan(self.plan), self.records_path):
            written.append(rec)
            if len(written) % per == 0:
                now = perf_counter()
                op_s.append(now - last)
                last = now
        simharness.write_summary(simharness.aggregate(written), self.summary_path)
        wall = perf_counter() - t0

        verdicts = [_check_records(written[k * per:(k + 1) * per]) for k in range(len(op_s))]
        # run_plan returns records, not labels: the digest covers each
        # record's rates and criterion at full precision
        digest = hashlib.sha256(json.dumps(
            [{k: repr(v) for k, v in asdict(r).items() if k != "wall_time_ms"} for r in written]
        ).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            verdicts = [v or "records differ from the first pass" for v in verdicts]
        recovered = [1.0 - r.overall for r in written if r.method != "KM" and not r.error]
        return Unit(op_s, wall, verdicts, recovered)

    def label_digest(self) -> dict:
        return {"sha256": self.digest, "covers": "records of one pass"}


def _check_records(group: list) -> str:
    for rec in group:
        if rec.error:
            return f"{rec.method}: {rec.error}"
        if not 0.0 <= rec.overall <= 1.0:
            return f"{rec.method}: misclassification {rec.overall!r} outside [0, 1]"
        if rec.method != "KM" and not (math.isfinite(rec.criterion) and rec.sweeps >= 1):
            return f"{rec.method}: no criterion or no sweep recorded"
    return ""


class CliFit:
    """``blockcluster fit --K 2 --L 3 --rate poisson --seed s`` as a child
    process on a CSV of the Poisson 2x3 design, with the other flags at
    their defaults.  An op is one invocation, interpreter start and output
    files included; op i uses k-means seed s = i mod KMEANS_SEEDS."""

    name = "cli_fit"
    in_process = False

    def __init__(self, root: Path, work: Path, seed: int, sizes: dict):
        self.root = root
        self.csv_path = work / "x.csv"
        self.prefix = work / "fit"
        self.stderr_path = work / "stderr.txt"
        self.spans_path = work / "spans.json"
        self.seed = seed
        self.sizes = sizes
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        #: labels of the first fit with each k-means seed
        self.seen: dict[int, bytes] = {}

    def setup(self) -> None:
        n = self.sizes["n"]
        spec = model.design_spec("poisson", self.sizes["b"], n)
        self.X, self.truth = model.generate(spec, n, n, self.seed)
        matrixio.write_matrix_csv(self.X, self.csv_path)
        self.matrix_bytes = self.X.values.nbytes

    def _outputs(self) -> list[Path]:
        return [Path(f"{self.prefix}.{ext}") for ext in ("rows.csv", "cols.csv", "report.json")]

    def _invoke(self, cmd: list[str]) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child.  The
        child is reaped with wait4, which reports its own peak RSS."""
        with open(self.stderr_path, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def unit(self, index: int, traced: bool) -> Unit:
        for path in self._outputs() + [self.spans_path]:
            path.unlink(missing_ok=True)
        kmeans_seed = index % KMEANS_SEEDS
        argv = ["fit", "--input", str(self.csv_path), "--output", str(self.prefix),
                "--K", "2", "--L", "3", "--rate", "poisson", "--seed", str(kmeans_seed)]
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(self.spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "blockcluster.cli", *argv]
        code, wall, rss_mb = self._invoke(cmd)
        verdict, recovered = self._check(code, kmeans_seed)
        unit = Unit([wall], wall, [verdict], recovered, rss_mb=rss_mb)
        if traced and self.spans_path.exists():
            with open(self.spans_path) as fh:
                unit.spans = json.load(fh)
            main_s = sum(end - start for name, start, end, _, _ in unit.spans if name == "cli.main")
            unit.startup_s = wall - main_s
        return unit

    def _check(self, code: int, kmeans_seed: int) -> tuple[str, list[float]]:
        """(verdict, recovered share of the first fit with this seed)."""
        if code != 0:
            return f"exit {code}: {self.stderr_path.read_text().strip()[-300:]}", []
        rows, cols, report_path = self._outputs()
        try:
            with open(report_path) as fh:
                value = float(json.load(fh)["criterion"])
            g = np.loadtxt(rows, dtype=np.int64, ndmin=1)
            h = np.loadtxt(cols, dtype=np.int64, ndmin=1)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}", []
        verdict = check_fit(self.X, g, h, 2, 3, value, "poisson")
        if verdict:
            return verdict, []
        labels = _label_bytes(g, h)
        if kmeans_seed in self.seen:
            if labels != self.seen[kmeans_seed]:
                return f"labels differ from the first fit with --seed {kmeans_seed}", []
            return "", []
        self.seen[kmeans_seed] = labels
        estimate = model.LabelAssignment(row_labels=g, col_labels=h, K=2, L=3)
        return "", [1.0 - evaluation.misclassification(self.truth, estimate)[2]]

    def label_digest(self) -> dict:
        sha = hashlib.sha256(b"".join(self.seen[k] for k in sorted(self.seen))).hexdigest()
        return {"sha256": sha, "covers": f"labels of k-means seeds {sorted(self.seen)}"}


class FitHard:
    """A Gaussian K x K planted model with X fixed per run.  An op is one
    ``optimizer.fit`` (restarts=1) from random labels passed as ``init``,
    so no k-means, then ``evaluation.misclassification``."""

    name = "fit_hard"
    in_process = True

    def __init__(self, root: Path, work: Path, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        #: labels of the first REFERENCE_OPS ops, by op index
        self.seen: dict[int, bytes] = {}

    def setup(self) -> None:
        n, K = self.sizes["n"], self.sizes["K"]
        rng = np.random.default_rng(MEANS_SEED)
        spec = model.BlockModelSpec(
            K=K, L=K, p=np.full(K, 1.0 / K), q=np.full(K, 1.0 / K),
            M=0.5 * rng.standard_normal((K, K)), rho=1.0, family="gaussian", sigma=1.0,
        )
        self.X, self.truth = model.generate(spec, n, n, self.seed)
        self.config = optimizer.FitConfig(K=K, L=K, rate="gaussian", seed=self.seed)
        self.matrix_bytes = self.X.values.nbytes

    def _init(self, index: int) -> model.LabelAssignment:
        rng = np.random.default_rng([self.seed, 1, index])
        n, K = self.sizes["n"], self.sizes["K"]
        while True:
            g, h = rng.integers(K, size=n), rng.integers(K, size=n)
            if np.bincount(g, minlength=K).min() and np.bincount(h, minlength=K).min():
                return model.LabelAssignment(row_labels=g, col_labels=h, K=K, L=K)

    def unit(self, index: int, traced: bool) -> Unit:
        init = self._init(index)
        t0 = perf_counter()
        try:
            result = optimizer.fit(self.X, self.config, init=init)
            overall = evaluation.misclassification(self.truth, result.labels)[2]
        except Exception as exc:  # noqa: BLE001 - an op that raises fails
            wall = perf_counter() - t0
            return Unit([wall], wall, [f"{type(exc).__name__}: {exc}"])
        wall = perf_counter() - t0
        g, h = result.labels.row_labels, result.labels.col_labels
        K = self.sizes["K"]
        verdict = check_fit(self.X, g, h, K, K, result.criterion, "gaussian")
        if not verdict and not 0.0 <= overall <= 1.0:
            verdict = f"misclassification {overall!r} outside [0, 1]"
        labels = _label_bytes(g, h)
        recovered = []
        if index in self.seen:
            if labels != self.seen[index]:
                verdict = verdict or "labels differ from an earlier op with the same init"
        elif index < REFERENCE_OPS:
            self.seen[index] = labels
            if not verdict:
                recovered = [1.0 - overall]
        return Unit([wall], wall, [verdict], recovered)

    def label_digest(self) -> dict:
        sha = hashlib.sha256(b"".join(self.seen[i] for i in sorted(self.seen))).hexdigest()
        return {"sha256": sha, "covers": f"labels of the first {len(self.seen)} ops"}


WORKLOADS = {cls.name: cls for cls in (SimDesk, CliFit, FitHard)}
