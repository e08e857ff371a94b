import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blockcluster
from blockcluster import DataMatrix, FitConfig, fit, matrixio, model
from blockcluster.cli import main


@pytest.fixture
def capout(capsys):
    def read():
        return capsys.readouterr()

    return read


def write_planted(tmp_path):
    """A 4x4 noiseless 2x2 block matrix with an obvious partition."""
    X = DataMatrix(np.array(
        [[0.0, 0.0, 9.0, 9.0],
         [0.0, 0.0, 9.0, 9.0],
         [9.0, 9.0, 0.0, 0.0],
         [9.0, 9.0, 0.0, 0.0]]
    ))
    path = tmp_path / "X.csv"
    matrixio.write_matrix_csv(X, path)
    return path


class TestFit:
    def test_noiseless_fit(self, tmp_path, capout):
        inp = write_planted(tmp_path)
        prefix = tmp_path / "out"
        code = main([
            "fit", "--input", str(inp), "--output", str(prefix),
            "--K", "2", "--L", "2", "--rate", "gaussian",
        ])
        assert code == 0
        g = matrixio.read_labels_csv(f"{prefix}.rows.csv")
        h = matrixio.read_labels_csv(f"{prefix}.cols.csv")
        assert g[0] == g[1] != g[2] == g[3]
        assert h[0] == h[1] != h[2] == h[3]
        report = json.load(open(f"{prefix}.report.json"))
        assert report["converged"] is True
        stdout = capout().out
        assert json.loads(stdout)["criterion"] == pytest.approx(report["criterion"])

    def test_report_states_the_fit(self, tmp_path, capout):
        """report.json holds every FitResult field but the labels, as the
        library's fit gives them, and the run's sweeps, restarts, time and
        seed."""
        X = DataMatrix(np.random.default_rng(4).poisson(3.0, (30, 20)).astype(float))
        path = tmp_path / "X.csv"
        matrixio.write_matrix_csv(X, path)
        prefix = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--output", str(prefix), "--K", "2",
                     "--L", "3", "--rate", "poisson", "--restarts", "3", "--seed", "5"]) == 0
        report = json.load(open(f"{prefix}.report.json"))
        assert json.loads(capout().out) == report
        assert sorted(report) == sorted([
            "criterion", "sweeps", "sweep_trajectory", "restart_index", "restarts",
            "converged", "moves_applied", "wall_time_ms", "seed"])
        result = fit(X, FitConfig(K=2, L=3, rate="poisson", restarts=3, seed=5))
        assert report.pop("wall_time_ms") > 0
        assert report == {
            "criterion": result.criterion, "sweeps": len(result.sweep_trajectory),
            "sweep_trajectory": result.sweep_trajectory,
            "restart_index": result.restart_index, "restarts": 3,
            "converged": result.converged, "moves_applied": result.moves_applied,
            "seed": 5}
        assert report["sweep_trajectory"][-1] == report["criterion"]

    def test_binary_format(self, tmp_path, capout):
        X = DataMatrix(np.arange(16, dtype=float).reshape(4, 4))
        path = tmp_path / "X.bin"
        matrixio.write_matrix_binary(X, path)
        code = main([
            "fit", "--input", str(path), "--output", str(tmp_path / "o"),
            "--K", "2", "--L", "2", "--rate", "gaussian", "--format", "binary",
        ])
        assert code == 0

    def test_oversized_binary_header_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "X.bin"
        path.write_bytes(matrixio._HEADER.pack(matrixio.MAGIC, 2**40, 2**40))
        code = main([
            "fit", "--input", str(path), "--output", str(tmp_path / "o"),
            "--K", "2", "--L", "2", "--rate", "gaussian", "--format", "binary",
        ])
        assert code == 2
        assert "header declares" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "c0,c1\n", "\n\n\n", matrixio._HEADER.pack(matrixio.MAGIC, 2, 2) + bytes(32),
    ], ids=["header_only", "blank_lines", "binary_file"])
    def test_csv_without_data_rows_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "X.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "fit", "--input", str(path), "--output", str(tmp_path / "o"),
                "--K", "1", "--L", "1", "--rate", "gaussian",
            ])
        assert code == 2
        assert f"{path}: no data rows" in capsys.readouterr().err

    def test_bad_K_is_usage_error(self, tmp_path, capout):
        inp = write_planted(tmp_path)
        code = main([
            "fit", "--input", str(inp), "--output", str(tmp_path / "o"),
            "--K", "0", "--L", "2", "--rate", "gaussian",
        ])
        assert code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        code = main([
            "fit", "--input", str(tmp_path / "absent.csv"),
            "--output", str(tmp_path / "o"),
            "--K", "2", "--L", "2", "--rate", "gaussian",
        ])
        assert code == 3

    def test_bernoulli_rate_on_out_of_range_data(self, tmp_path, capsys):
        X = DataMatrix(np.array([[0.0, 1.0], [2.0, 0.5]]))
        path = tmp_path / "X.csv"
        matrixio.write_matrix_csv(X, path)
        code = main([
            "fit", "--input", str(path), "--output", str(tmp_path / "o"),
            "--K", "2", "--L", "2", "--rate", "bernoulli",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "X[1, 0] = 2.0 lies outside the bernoulli rate domain [0, 1]" in err

    @pytest.mark.parametrize("value, k, rate", [(1e200, 1, "gaussian"),
                                                (1e160, 2, "poisson")])
    def test_entry_whose_square_overflows_is_domain_error(self, tmp_path, capsys,
                                                          value, k, rate):
        values = np.ones((10, 6))
        values[3, 2] = value
        path = tmp_path / "X.csv"
        np.savetxt(path, values, delimiter=",", fmt="%.17g")  # no DataMatrix holds it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "fit", "--input", str(path), "--output", str(tmp_path / "o"),
                "--K", str(k), "--L", str(k), "--rate", rate,
            ])
        assert code == 4
        err = capsys.readouterr().err
        assert "squared norm of row 3" in err and "Traceback" not in err

    def test_unmeetable_class_floor_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "X.csv"
        values = np.random.default_rng(0).standard_normal((10, 6))
        matrixio.write_matrix_csv(DataMatrix(values), path)
        code = main([
            "fit", "--input", str(path), "--output", str(tmp_path / "o"),
            "--K", "3", "--L", "2", "--rate", "gaussian", "--min-frac", "0.4",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "K = 3" in err and "min_frac 0.4" in err and "m = 10" in err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--max-sweeps", "0"), ("--kmeans-iters", "-2"),
        ("--restarts", "0"), ("--K", "0"),
    ])
    def test_bad_count_or_seed_names_the_flag(self, tmp_path, capsys, flag, value):
        """--seed -1 used to print only SeedSequence's "expected
        non-negative integer"."""
        inp = write_planted(tmp_path)
        argv = ["fit", "--input", str(inp), "--output", str(tmp_path / "o"),
                "--K", "2", "--L", "2", "--rate", "gaussian"]
        assert main(argv + [flag, value]) == 2
        err = capsys.readouterr().err
        assert f"blockcluster: {flag} must be >= " in err
        assert "non-negative" not in err and "Traceback" not in err
        assert not (tmp_path / "o.report.json").exists()

    def test_unknown_rate_is_usage_error(self, tmp_path):
        inp = write_planted(tmp_path)
        code = main([
            "fit", "--input", str(inp), "--output", str(tmp_path / "o"),
            "--K", "2", "--L", "2", "--rate", "cauchy",
        ])
        assert code == 2


class TestSimulate:
    def write_plan(self, tmp_path, design="poisson"):
        path = tmp_path / "plan.cfg"
        path.write_text(
            f"design = {design}\n"
            "n_values = 40\n"
            "gamma_values = 1\n"
            "b_values = 5\n"
            "replicates = 2\n"
            "methods = PL-Pois, KM\n"
            "seed = 3\n"
        )
        return path

    def test_simulate_writes_records_and_summary(self, tmp_path, capout):
        plan = self.write_plan(tmp_path)
        prefix = tmp_path / "sim"
        code = main(["simulate", "--plan", str(plan), "--output", str(prefix)])
        assert code == 0
        info = json.loads(capout().out)
        assert info["records"] == 4 and info["failures"] == 0
        records = (tmp_path / "sim.records.csv").read_text().splitlines()
        assert len(records) == 5  # header + 4 records
        summary = (tmp_path / "sim.summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + 2 method rows

    def test_rerun_is_byte_identical_modulo_timing(self, tmp_path, capout):
        import csv

        plan = self.write_plan(tmp_path)
        paths = []
        for tag in ("a", "b"):
            prefix = tmp_path / tag
            assert main(["simulate", "--plan", str(plan),
                         "--output", str(prefix)]) == 0
            paths.append(f"{prefix}.records.csv")
        capout()

        def strip_timing(path):
            rows = list(csv.DictReader(open(path)))
            for row in rows:
                row.pop("wall_time_ms")
            return rows

        assert strip_timing(paths[0]) == strip_timing(paths[1])

    def test_seed_flag_overrides_the_plan(self, tmp_path, capout):
        plan = self.write_plan(tmp_path)
        seeds = []
        for tag, extra in (("plan", []), ("flag", ["--seed", "4"])):
            prefix = tmp_path / tag
            assert main(["simulate", "--plan", str(plan), "--output", str(prefix),
                         *extra]) == 0
            with open(f"{prefix}.records.csv") as fh:
                seeds.append([row["seed"] for row in csv.DictReader(fh)])
        capout()
        assert seeds[0] != seeds[1]
        with open(plan, "a") as fh:
            fh.write("seed = 4\n")
        assert main(["simulate", "--plan", str(plan), "--output",
                     str(tmp_path / "edited")]) == 0
        with open(tmp_path / "edited.records.csv") as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == seeds[1]

    @pytest.mark.parametrize("where", ["flag", "plan"])
    def test_negative_seed_is_usage_error_naming_it(self, tmp_path, capsys, where):
        """A negative seed, from --seed or from the plan file, exits 2
        naming the flag or the file and key, and writes no records; it used
        to print only "expected non-negative integer"."""
        plan = self.write_plan(tmp_path)
        argv = ["simulate", "--plan", str(plan), "--output", str(tmp_path / "sim")]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            plan.write_text(plan.read_text() + "seed = -1\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        expected = ("--seed must be >= 0" if where == "flag"
                    else f"{plan}: seed must be >= 0")
        assert f"blockcluster: {expected}" in err
        assert "non-negative" not in err and "Traceback" not in err
        assert not (tmp_path / "sim.records.csv").exists()

    def test_plan_whose_every_record_fails_is_domain_error(self, tmp_path, capsys):
        """Both files are written and the counts printed, then the first
        record's error goes to stderr and the exit is 4; it used to be 0."""
        path = tmp_path / "plan.cfg"
        path.write_text(
            "design = gaussian\nn_values = 40\ngamma_values = 1\n"
            "b_values = 1e308\nreplicates = 2\nmethods = PL-Gaus, KM\nseed = 1\n"
        )
        prefix = tmp_path / "sim"
        assert main(["simulate", "--plan", str(path), "--output", str(prefix)]) == 4
        out, err = capsys.readouterr()
        assert json.loads(out)["records"] == json.loads(out)["failures"] == 4
        with open(f"{prefix}.records.csv") as fh:
            first = next(csv.DictReader(fh))["error"]
        assert first.startswith("DomainError: the squared norm of row 0")
        assert err == f"blockcluster: every record failed; the first: {first}\n"
        assert (tmp_path / "sim.summary.csv").exists()

    def test_unknown_design_is_usage_error(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, design="weibull")
        assert main(["simulate", "--plan", str(plan)]) == 2

    def test_incompatible_method_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "plan.cfg"
        path.write_text(
            "design = gaussian\nn_values = 40\ngamma_values = 1\n"
            "b_values = 1\nreplicates = 1\nmethods = PL-Bern\nseed = 1\n"
        )
        assert main(["simulate", "--plan", str(path)]) == 2


class TestEvaluate:
    def test_identical_labelings(self, tmp_path, capout):
        g = np.array([0, 0, 1, 1])
        h = np.array([0, 1, 2, 2, 1])
        for name, arr in (("tr", g), ("tc", h), ("er", g), ("ec", h)):
            matrixio.write_labels_csv(arr, tmp_path / f"{name}.csv")
        code = main([
            "evaluate",
            "--truth-rows", str(tmp_path / "tr.csv"),
            "--truth-cols", str(tmp_path / "tc.csv"),
            "--est-rows", str(tmp_path / "er.csv"),
            "--est-cols", str(tmp_path / "ec.csv"),
        ])
        assert code == 0
        out = json.loads(capout().out)
        assert out == {"row_rate": 0.0, "col_rate": 0.0, "overall": 0.0}

    def test_permuted_labels_still_zero(self, tmp_path, capout):
        g = np.array([0, 0, 1, 1])
        h = np.array([0, 1, 1, 0])
        matrixio.write_labels_csv(g, tmp_path / "tr.csv")
        matrixio.write_labels_csv(h, tmp_path / "tc.csv")
        matrixio.write_labels_csv(1 - g, tmp_path / "er.csv")
        matrixio.write_labels_csv(1 - h, tmp_path / "ec.csv")
        code = main([
            "evaluate",
            "--truth-rows", str(tmp_path / "tr.csv"),
            "--truth-cols", str(tmp_path / "tc.csv"),
            "--est-rows", str(tmp_path / "er.csv"),
            "--est-cols", str(tmp_path / "ec.csv"),
        ])
        assert code == 0
        assert json.loads(capout().out)["overall"] == 0.0


    def test_ten_classes(self, tmp_path, capout):
        g = np.repeat(np.arange(10), 3)
        h = np.array([0, 1, 0, 1])
        est = (g + 3) % 10
        est[0] = 5
        for name, arr in (("tr", g), ("tc", h), ("er", est), ("ec", 1 - h)):
            matrixio.write_labels_csv(arr, tmp_path / f"{name}.csv")
        code = main([
            "evaluate",
            "--truth-rows", str(tmp_path / "tr.csv"),
            "--truth-cols", str(tmp_path / "tc.csv"),
            "--est-rows", str(tmp_path / "er.csv"),
            "--est-cols", str(tmp_path / "ec.csv"),
        ])
        assert code == 0
        out = json.loads(capout().out)
        assert out["row_rate"] == pytest.approx(1 / 30)
        assert out["col_rate"] == 0.0

    def test_empty_label_file_is_usage_error(self, tmp_path, capsys):
        matrixio.write_labels_csv(np.array([0, 1, 0, 1]), tmp_path / "l.csv")
        (tmp_path / "empty.csv").write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "evaluate",
                "--truth-rows", str(tmp_path / "empty.csv"),
                "--truth-cols", str(tmp_path / "l.csv"),
                "--est-rows", str(tmp_path / "l.csv"),
                "--est-cols", str(tmp_path / "l.csv"),
            ])
        assert code == 2
        assert f"{tmp_path / 'empty.csv'}: no labels" in capsys.readouterr().err


class TestBound:
    BASE = [
        "bound", "--m", "60", "--n", "60", "--K", "2", "--L", "2",
        "--epsilon", "0.45", "--tau", "4e6", "--sigma", "1",
        "--c-lip", "1000", "--T-n", "729",
    ]

    def test_bound_value(self, capout):
        code = main(self.BASE + ["--delta", "0.035"])
        assert code == 0
        bound = json.loads(capout().out)["bound"]
        assert 0.0 < bound < 1e-10

    def test_bad_delta_is_usage_error(self, capsys):
        assert main(self.BASE + ["--delta", "1.5"]) == 2

    @pytest.mark.parametrize("flag, name", [("--m", "m"), ("--T-n", "T_n")])
    def test_huge_integer_is_usage_error(self, capsys, flag, name):
        argv = self.BASE + ["--delta", "0.035"]
        argv[argv.index(flag) + 1] = "9" * 401
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be an integer in [1, 2**53]" in err
        assert f" {name} " not in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--T-n", "0", "--T-n must be an integer in [1, 2**53]"),
        ("--c-lip", "inf", "--c-lip must be positive and finite"),
    ])
    def test_error_names_the_flag_typed(self, capsys, flag, value, message):
        argv = self.BASE + ["--delta", "0.035"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "T_n" not in err and "c_lip" not in err

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["bound", "--m", "10"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--plan", "{f}"],
    ["fit", "--input", "{f}", "--output", "{d}/out", "--K", "2", "--L", "2",
     "--rate", "gaussian"],
    ["evaluate", "--truth-rows", "{f}", "--truth-cols", "{f}", "--est-rows", "{f}",
     "--est-cols", "{f}"],
], ids=["plan", "csv", "labels"])
def test_undecodable_file_is_usage_error_naming_it(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe0,1\n1,0\n")
    assert main([arg.format(f=path, d=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "codec can't decode" in err


@pytest.mark.parametrize("design, b", [("poisson", 10.0), ("gaussian", 1.0)],
                         ids=["counts", "reals"])
def test_fit_in_a_child_is_the_same_at_1_and_2_blas_threads(tmp_path, design, b):
    """``blockcluster fit`` on a count CSV (the integer parse) and on a real
    one (the float parse), run as a child with OPENBLAS_NUM_THREADS 1 and
    2 in its own environment only, writes the same label files and the
    same criterion, bit for bit."""
    X, _ = model.generate(model.design_spec(design, b, 500), 600, 500, 17)
    path = tmp_path / "X.csv"
    matrixio.write_matrix_csv(X, path)
    src = str(Path(blockcluster.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        prefix = tmp_path / f"t{threads}"
        subprocess.run([sys.executable, "-m", "blockcluster.cli", "fit", "--input", str(path),
                        "--output", str(prefix), "--K", "2", "--L", "3", "--rate", design,
                        "--restarts", "2", "--seed", "3"],
                       env=env, capture_output=True, check=True)
        runs.append([Path(f"{prefix}.{axis}.csv").read_bytes() for axis in ("rows", "cols")]
                    + [json.loads(Path(f"{prefix}.report.json").read_text())["criterion"]])
    assert runs[0] == runs[1]
