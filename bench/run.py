"""blockcluster benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload sim_desk --seed 1 --seconds 30 --trace 0

Workloads: sim_desk, cli_fit, fit_hard (see workloads.py and README.md).
One client runs the workload in a closed loop for about ``--seconds``: a
unit of work starts only after the previous one has finished, and the last
unit runs to its end.  Inputs come from ``--seed`` alone.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the workload untraced for half the time, then the
same units again with span wrappers installed, and reports per-layer
metrics from the spans; the two halves give the tracing overhead.

The last line of stdout is the result as JSON:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the details (environment, tail percentile, label digest, errors),
which are also written to ``bench/results/``.
"""

from __future__ import annotations

import os

# BLAS threading is pinned before numpy is first imported, here and, through
# the environment, in every child, so results do not depend on the caller's
# environment.  One thread is no more than any machine's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("BLOCKCLUSTER_WORKERS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(SRC))

#: set-up repetitions per run; setup_s is their median
SETUP_REPS = 3

#: no unit starts once a run has lasted this long, so it ends inside 180 s
RUN_LIMIT_S = 140

#: the least number of samples beyond the reported tail percentile
TAIL_BEYOND = 10


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples beyond it, and never below the median."""
    ordered = sorted(values)
    idx = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _setup(wl, env: dict) -> list[float]:
    """Time SETUP_REPS set-ups: a fresh interpreter importing blockcluster,
    then building the workload's inputs."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        # with pipes, run() returns when they close at the child's exit; a
        # bare wait with a timeout polls, and rounds the time up to 50 ms
        subprocess.run([sys.executable, "-c", "import blockcluster"], env=env,
                       cwd=ROOT, check=True, capture_output=True, timeout=60)
        wl.setup()
        times.append(perf_counter() - t0)
    return times


def _loop(wl, started: float, seconds: float, max_units: int | None = None,
          tracer=None) -> list:
    """Closed loop: run units until ``seconds`` have passed (or until
    ``max_units``, when given)."""
    units = []
    t0 = perf_counter()
    while max_units is None or len(units) < max_units:
        now = perf_counter()
        if now - started > RUN_LIMIT_S or (max_units is None and now - t0 >= seconds):
            break
        unit = wl.unit(len(units), tracer is not None)
        if tracer is not None and unit.spans:
            tracer.extend(unit.spans)
        units.append(unit)
    return units


def _counts(units: list) -> tuple[int, int]:
    verdicts = [v for u in units for v in u.verdicts]
    return len(verdicts), sum(1 for v in verdicts if v)


def end_to_end(units: list, setup_s: float) -> tuple[dict, dict]:
    op_s = [x for u in units for x in u.op_s]
    attempted, failed = _counts(units)
    busy = sum(u.wall_s for u in units)
    tail, pct = _tail(op_s)
    recovered = [x for u in units for x in u.recovered]
    recovered_frac = statistics.fmean(recovered) if recovered else 0.0
    child_rss = [u.rss_mb for u in units if u.rss_mb is not None]
    peak_rss_mb = (statistics.median(child_rss) if child_rss
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - failed) / busy, "1/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "op_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "recovered_frac": (recovered_frac, "frac"),
    }
    detail = {
        "op_s.tail_percentile": pct,
        "op_s.samples": len(op_s),
        "failed_frac": failed / attempted,
        "misclass_mean": 1.0 - recovered_frac if recovered else None,
        "busy_s": busy,
    }
    return metrics, detail


def per_layer(spans_totals: dict, traced: list, base: list) -> dict:
    """Per-layer metrics from span totals over the traced units; ``base`` is
    the untraced run of the same units."""
    wall = sum(u.wall_s for u in traced)

    def get(name, key):
        return spans_totals.get(name, {}).get(key, 0)

    fit_self = get("optimizer.fit", "self_s")
    fits = get("optimizer.fit", "calls")
    moves = get("optimizer.fit", "moves")
    sweeps = get("optimizer.fit", "sweeps")
    startups = [u.startup_s for u in traced if u.startup_s is not None]
    base_wall = sum(u.wall_s for u in base[:len(traced)])
    m = {}
    for name in ("model.generate", "optimizer.kmeans_init", "evaluation.misclassification"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
        m[f"{name}.share"] = (get(name, "busy_s") / wall, "frac")
    m.update({
        "optimizer.fit.self_s": (fit_self, "s"),
        "optimizer.fit.share": (fit_self / wall, "frac"),
        "optimizer.fit.sweeps": (sweeps, "count"),
        "optimizer.fit.moves": (moves, "count"),
        "optimizer.fit.us_per_move": (1e6 * fit_self / moves if moves else 0.0, "us"),
        "optimizer.fit.converged_frac": (get("optimizer.fit", "converged") / fits if fits else 0.0, "frac"),
        "criterion.block_stats.calls": (get("criterion.block_stats", "calls"), "count"),
        "criterion.block_stats.busy_s": (get("criterion.block_stats", "busy_s"), "s"),
        "criterion.block_stats.calls_per_sweep": (
            get("criterion.block_stats", "calls") / sweeps if sweeps else 0.0, "count"),
        "criterion.criterion_value.calls": (get("criterion.criterion_value", "calls"), "count"),
        "criterion.criterion_value.busy_s": (get("criterion.criterion_value", "busy_s"), "s"),
        "matrixio.read_matrix_csv.busy_s": (get("matrixio.read_matrix_csv", "busy_s"), "s"),
        "matrixio.write_labels_csv.busy_s": (get("matrixio.write_labels_csv", "busy_s"), "s"),
        "cli.startup_s": (statistics.median(startups) if startups else 0.0, "s"),
        "simharness.run_plan.self_s": (get("simharness.run_plan", "self_s"), "s"),
        "simharness.write_records.self_s": (get("simharness.write_records", "self_s"), "s"),
        "trace.overhead_frac": (wall / base_wall - 1.0, "frac"),
    })
    return m


def _cache_bytes(level: int):
    """Size of cpu0's unified or data cache at ``level``, from sysfs."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(wl) -> dict:
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blockcluster_workers": os.environ.get("BLOCKCLUSTER_WORKERS"),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "matrix_bytes": wl.matrix_bytes,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """One benchmark run; returns (result, detail, spans)."""
    # imported here, not at the top, so that main() can report a checkout
    # without src/ instead of failing on the import
    import workloads
    from spans import Tracer, layer_totals

    started = perf_counter()
    work = BENCH / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](
            ROOT, work, seed, workloads.FULL[name] if sizes is None else sizes)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        setup_times = _setup(wl, env)
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "sizes": wl.sizes, "setup_s.samples": setup_times}
        spans = []
        if trace:
            base = _loop(wl, started, seconds / 2)
            tracer = Tracer()
            with tracer.installed(workloads.MODULES) if wl.in_process else nullcontext():
                traced = _loop(wl, started, seconds / 2, max_units=len(base), tracer=tracer)
            spans = tracer.spans
            totals = layer_totals(spans)
            metrics = per_layer(totals, traced, base)
            units = base + traced
            detail["layer_totals"] = totals
        else:
            units = _loop(wl, started, seconds)
            metrics, more = end_to_end(units, statistics.median(setup_times))
            detail.update(more)
        attempted, failed = _counts(units)
        detail["units"] = len(units)
        detail["errors"] = sorted({v for u in units for v in u.verdicts if v})[:5]
        detail["label_digest"] = wl.label_digest()
        detail["env"] = environment(wl)
        detail["run_s"] = perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sim_desk", "cli_fit", "fit_hard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "blockcluster" / "__init__.py").is_file():
        print(f"bench: no blockcluster package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "configs" / "poisson_desk.cfg").is_file():
        print(f"bench: {ROOT / 'configs' / 'poisson_desk.cfg'} is missing", file=sys.stderr)
        return 2
    result, detail, spans = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    if spans:
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
