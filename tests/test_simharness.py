import dataclasses
import math
import tracemalloc
from codecs import BOM_UTF8

import pytest

from blockcluster import model, simharness
from blockcluster.criterion import RateFunction
from blockcluster.errors import DomainError


def normalized(rec):
    """Record dict with the timing field dropped and NaN made comparable."""
    d = dict(vars(rec))
    d.pop("wall_time_ms")
    for key, value in d.items():
        if isinstance(value, float) and math.isnan(value):
            d[key] = "nan"
    return d


#: a complete plan file of one tiny cell
DEMO_PLAN = (
    "design = poisson\nn_values = 40\ngamma_values = 1\nb_values = 5\n"
    "replicates = 1\nmethods = KM\nseed = 1\n"
)


def small_plan(**over):
    kw = dict(
        design="poisson",
        n_values=[40, 60],
        gamma_values=[1.0],
        b_values=[5.0],
        replicates=3,
        methods=["PL-Pois", "KM"],
        seed=11,
    )
    kw.update(over)
    return simharness.SimPlan(**kw)


class TestPlanValidation:
    def test_cells_order(self):
        plan = small_plan(gamma_values=[0.5, 1.0], b_values=[5.0, 10.0])
        assert plan.cells() == [
            (40, 0.5, 5.0), (40, 0.5, 10.0), (60, 0.5, 5.0), (60, 0.5, 10.0),
            (40, 1.0, 5.0), (40, 1.0, 10.0), (60, 1.0, 5.0), (60, 1.0, 10.0),
        ]

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            small_plan(methods=["PL-Cauchy"])

    def test_method_design_compatibility(self):
        with pytest.raises(ValueError, match="not applicable"):
            small_plan(design="gaussian", methods=["PL-Bern"])
        with pytest.raises(ValueError, match="not applicable"):
            small_plan(design="gaussian", methods=["PL-Pois"])
        # PL-Pois admissible on bernoulli data, PL-Gaus on everything
        small_plan(design="bernoulli", methods=["PL-Pois", "PL-Bern"])
        small_plan(design="student_t", methods=["PL-Gaus", "KM"])

    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            small_plan(design="weibull")

    @pytest.mark.parametrize("design", model.DESIGNS)
    @pytest.mark.parametrize("method", [meth for meth, (rate, _) in simharness._METHODS.items()
                                        if rate is not None])
    def test_admissible_methods_follow_the_rate_domain(self, design, method):
        """A PL method is admissible on a design exactly when the design's
        data lie inside the method's rate domain."""
        X, _ = model.generate(model.design_spec(design, 10.0, 50), 50, 50, 0)
        try:
            RateFunction(simharness._METHODS[method][0]).check(X.values, "X")
        except DomainError:
            with pytest.raises(ValueError, match=f"^method {method} is not applicable "
                                                 f"to the {design} design$"):
                small_plan(design=design, methods=[method])
        else:
            small_plan(design=design, methods=[method])


class TestRunPlan:
    def test_record_count_and_schema(self):
        plan = small_plan()
        records = list(simharness.run_plan(plan))
        assert len(records) == 2 * 3 * 2  # cells * replicates * methods
        for rec in records:
            assert rec.design == "poisson"
            assert rec.m == rec.n  # gamma = 1
            assert rec.method in ("PL-Pois", "KM")
            assert rec.error == ""
            assert 0.0 <= rec.overall <= 1.0
        km = [r for r in records if r.method == "KM"]
        assert all(math.isnan(r.criterion) and r.sweeps == 0 for r in km)

    def test_deterministic_rerun(self):
        plan = small_plan()
        a = [normalized(r) for r in simharness.run_plan(plan)]
        b = [normalized(r) for r in simharness.run_plan(plan)]
        assert a == b

    def test_methods_share_data_within_replicate(self):
        records = list(simharness.run_plan(small_plan()))
        by_rep = {}
        for rec in records:
            by_rep.setdefault((rec.n, rec.replicate), []).append(rec)
        for group in by_rep.values():
            assert len({r.seed for r in group}) == 1

    def test_records_roundtrip(self, tmp_path):
        plan = small_plan(replicates=2)
        path = tmp_path / "records.csv"
        written = list(simharness.write_records(simharness.run_plan(plan), path))
        back = simharness.read_records(path)
        assert [normalized(r) for r in back] == [normalized(r) for r in written]
        marked = tmp_path / "marked.csv"  # as a spreadsheet saves it, with a BOM
        marked.write_bytes(BOM_UTF8 + path.read_bytes())
        assert [normalized(r) for r in simharness.read_records(marked)] == [
            normalized(r) for r in back]
        for rec in back:  # each column read back as its field's type
            for f in dataclasses.fields(rec):
                assert type(getattr(rec, f.name)).__name__ == f.type


class TestAggregate:
    def rec(self, **over):
        kw = dict(design="poisson", n=100, m=100, gamma=1.0, b=5.0,
                  method="PL-Pois", replicate=0, seed=1, overall=0.0)
        kw.update(over)
        return simharness.SimRecord(**kw)

    def test_two_point_mean_and_sd(self):
        rows = [self.rec(replicate=0, overall=0.0),
                self.rec(replicate=1, overall=0.1)]
        (out,) = simharness.aggregate(rows)
        assert out["mean"] == pytest.approx(0.05)
        assert out["sd"] == pytest.approx(0.1 / math.sqrt(2))  # sample SD
        assert out["min"] == 0.0 and out["max"] == 0.1
        assert out["count"] == 2 and out["failures"] == 0

    def test_single_record_sd_zero(self):
        (out,) = simharness.aggregate([self.rec(overall=0.3)])
        assert out["sd"] == 0.0 and out["count"] == 1

    def test_failures_excluded_from_stats(self):
        rows = [self.rec(replicate=0, overall=0.2),
                self.rec(replicate=1, error="DomainError: bad")]
        (out,) = simharness.aggregate(rows)
        assert out["mean"] == pytest.approx(0.2)
        assert out["count"] == 1 and out["failures"] == 1

    def test_multiple_designs_rejected(self):
        with pytest.raises(ValueError, match="multiple designs"):
            simharness.aggregate([self.rec(), self.rec(design="gaussian")])

    def test_group_ordering(self):
        rows = [self.rec(n=200), self.rec(n=100, method="KM"), self.rec(n=100)]
        out = simharness.aggregate(rows)
        assert [(o["n"], o["method"]) for o in out] == [
            (100, "KM"), (100, "PL-Pois"), (200, "PL-Pois"),
        ]

    def test_summary_roundtrip(self, tmp_path):
        out = simharness.aggregate([self.rec(replicate=i, overall=0.01 * i)
                                    for i in range(4)])
        path = tmp_path / "summary.csv"
        simharness.write_summary(out, path)
        text = path.read_text().splitlines()
        assert text[0].split(",") == simharness.SUMMARY_FIELDS
        assert len(text) == 2


class TestPlanFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text(
            "# demo plan\n"
            "design = poisson\n"
            "n_values = 100, 200\n"
            "gamma_values = 0.5, 1\n"
            "b_values = 5\n"
            "replicates = 4\n"
            "methods = PL-Pois, KM  # trailing comment\n"
            "seed = 1\n"
            "seed = 99\n"
            "output = out/records\n"
            "max_sweeps = 7\n"
            "kmeans_iters = 3\n"
        )
        plan = simharness.parse_plan_file(path)
        assert plan.n_values == [100, 200]
        assert plan.gamma_values == [0.5, 1.0]
        assert plan.methods == ["PL-Pois", "KM"]
        assert plan.seed == 99  # the last of a repeated key wins
        assert plan.output_path == "out/records"
        assert plan.max_sweeps == 7 and plan.kmeans_iters == 3

    def test_byte_order_mark_is_no_part_of_the_first_key(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(DEMO_PLAN)
        marked.write_bytes(BOM_UTF8 + DEMO_PLAN.encode())
        assert simharness.parse_plan_file(marked) == simharness.parse_plan_file(plain)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text("design = poisson\n")
        with pytest.raises(ValueError, match="missing plan keys"):
            simharness.parse_plan_file(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text("design poisson\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            simharness.parse_plan_file(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "plan.cfg"
        for key in ("designn", "output_path"):  # the field is spelled output
            path.write_text(f"{key} = poisson\n")
            with pytest.raises(ValueError, match="unknown plan key"):
                simharness.parse_plan_file(path)

    @pytest.mark.parametrize("line", [
        "seed = x", "n_values = 100, 2.5", "gamma_values = 1, one",
        "kmeans_iters = 1e3",
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, line):
        from blockcluster.cli import main

        path = tmp_path / "plan.cfg"
        path.write_text(DEMO_PLAN + line + "\n")
        key = line.split(" =")[0]
        with pytest.raises(ValueError, match=f"plan.cfg: plan key '{key}': "):
            simharness.parse_plan_file(path)
        assert main(["simulate", "--plan", str(path),
                     "--output", str(tmp_path / "sim")]) == 2
        assert f"plan key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_sweeps", "kmeans_iters"])
    def test_counts_below_one_rejected(self, tmp_path, capsys, key):
        """A plan that would run no sweep or no Lloyd step is refused up
        front, not run into failed or all-zero records."""
        from blockcluster.cli import main

        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            small_plan(**{key: 0})
        path = tmp_path / "plan.cfg"
        path.write_text(DEMO_PLAN + f"{key} = 0\n")
        with pytest.raises(ValueError, match=f"plan.cfg: {key} must be >= 1"):
            simharness.parse_plan_file(path)
        prefix = tmp_path / "sim"
        assert main(["simulate", "--plan", str(path), "--output", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert "plan.cfg" in err and key in err
        assert not (tmp_path / "sim.records.csv").exists()

    @pytest.mark.parametrize("design, key, value", [
        ("poisson", "n_values", [0]),
        ("poisson", "gamma_values", [0.0]),
        ("poisson", "gamma_values", [1e-9]),  # m rounds to 0
        ("poisson", "n_values", [1]),  # fewer columns than L = 3
        ("poisson", "b_values", [-5.0]),  # negative Poisson means
        ("gaussian", "b_values", [math.nan]),
    ], ids=["n0", "gamma0", "gamma1e-9", "n1", "b-5", "bnan"])
    def test_cells_that_cannot_run_rejected(self, tmp_path, capsys, design, key,
                                            value):
        """A plan with a cell the design cannot generate or fit is refused
        up front, naming the key, not run into failed records."""
        from blockcluster.cli import main

        with pytest.raises(ValueError, match=f"^{key}: "):
            small_plan(design=design, methods=["KM"], **{key: value})
        path = tmp_path / "plan.cfg"
        path.write_text(DEMO_PLAN.replace("poisson", design)
                        + f"{key} = {value[0]}\n")
        with pytest.raises(ValueError, match=f"plan.cfg: {key}: "):
            simharness.parse_plan_file(path)
        prefix = tmp_path / "sim"
        assert main(["simulate", "--plan", str(path), "--output", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert f"plan.cfg: {key}: " in err
        assert not (tmp_path / "sim.records.csv").exists()

    def test_cell_whose_m_overflows_named_as_not_finite(self, tmp_path, capsys):
        """gamma * n past the float range used to be reported as an m below
        the design's K row classes."""
        from blockcluster.cli import main

        over = dict(n_values=[2**53], gamma_values=[10**300])
        with pytest.raises(ValueError, match=r"^gamma_values: m = round\(gamma \* n\) "
                                             r"is not finite in cell"):
            small_plan(methods=["KM"], **over)
        path = tmp_path / "plan.cfg"
        path.write_text(DEMO_PLAN + f"n_values = {2**53}\ngamma_values = 1e300\n")
        assert main(["simulate", "--plan", str(path), "--output",
                     str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert "plan.cfg: gamma_values: m = round(gamma * n) is not finite" in err
        assert "row classes" not in err
        assert not (tmp_path / "sim.records.csv").exists()

    def test_bundled_config_parses(self):
        plan = simharness.parse_plan_file("configs/poisson_desk.cfg")
        assert plan.design == "poisson"
        assert plan.replicates >= 1


class TestParallel:
    def test_worker_env_matches_serial(self, tmp_path, monkeypatch):
        plan = small_plan(replicates=2)
        serial = [normalized(r) for r in simharness.run_plan(plan)]
        monkeypatch.setenv(simharness.WORKERS_ENV, "2")
        parallel = [normalized(r) for r in simharness.run_plan(plan)]
        assert parallel == serial


    def test_cli_import_loads_no_process_pool(self):
        """Only a run with several workers needs the process pool, so
        importing the CLI leaves multiprocessing unloaded."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(simharness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        script = ("import sys, blockcluster.cli; "
                  "print(sorted(m for m in sys.modules if m.startswith("
                  "('multiprocessing', 'concurrent.futures.process'))))")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestStreaming:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_first_record_before_the_tasks_are_listed(self, monkeypatch, workers):
        """A million replicates are enumerated as they run, serially or
        two tasks per worker at a time, not listed before the first."""
        plan = small_plan(n_values=[40], replicates=10**6, methods=["KM"])
        monkeypatch.setenv(simharness.WORKERS_ENV, workers)
        records = simharness.run_plan(plan)
        tracemalloc.start()
        try:
            first = next(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            records.close()
        assert (first.replicate, first.error) == (0, "")
        assert peak < 5 * 2**20


class TestWorkerCount:
    """BLOCKCLUSTER_WORKERS is read and checked without starting a pool."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(count):
            monkeypatch.setattr(simharness.os, "cpu_count", lambda: count)
        return set_cpus

    def test_unset_is_serial(self, monkeypatch, cpus):
        cpus(8)
        monkeypatch.delenv(simharness.WORKERS_ENV, raising=False)
        assert simharness._worker_count(10) == 1

    @pytest.mark.parametrize("value, count, tasks, expected", [
        ("3", 8, 10, 3), ("16", 4, 10, 4), ("8", 8, 2, 2),
        (" 2 ", 8, 10, 2), ("5", None, 10, 1), ("4", 8, 0, 1),
    ])
    def test_clamped(self, monkeypatch, cpus, value, count, tasks, expected):
        cpus(count)
        monkeypatch.setenv(simharness.WORKERS_ENV, value)
        assert simharness._worker_count(tasks) == expected

    @pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-3"])
    def test_invalid_values_name_the_variable(self, monkeypatch, cpus, value):
        cpus(8)
        monkeypatch.setenv(simharness.WORKERS_ENV, value)
        with pytest.raises(ValueError, match=simharness.WORKERS_ENV):
            simharness._worker_count(10)

    @pytest.mark.parametrize("value", ["many", "0"])
    def test_cli_exits_2(self, tmp_path, monkeypatch, capsys, value):
        from blockcluster.cli import main

        path = tmp_path / "plan.cfg"
        path.write_text(DEMO_PLAN)
        monkeypatch.setenv(simharness.WORKERS_ENV, value)
        assert main(["simulate", "--plan", str(path),
                     "--output", str(tmp_path / "sim")]) == 2
        assert simharness.WORKERS_ENV in capsys.readouterr().err
        assert not (tmp_path / "sim.records.csv").exists()
