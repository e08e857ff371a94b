import json

import numpy as np
import pytest

from blockcluster import DataMatrix, matrixio
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
        assert "row 1, column 0" in err and "2.0" in err

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

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["bound", "--m", "10"]) == 2
