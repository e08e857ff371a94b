import numpy as np
import pytest

from blockcluster import DataMatrix
from blockcluster import matrixio


@pytest.fixture
def X():
    rng = np.random.default_rng(0)
    return DataMatrix(rng.standard_normal((5, 7)))


def test_csv_roundtrip(X, tmp_path):
    path = tmp_path / "m.csv"
    matrixio.write_matrix_csv(X, path)
    back = matrixio.read_matrix_csv(path)
    assert np.array_equal(back.values, X.values)


def test_csv_roundtrip_with_header(X, tmp_path):
    path = tmp_path / "m.csv"
    matrixio.write_matrix_csv(X, path, header=True)
    assert open(path).readline().startswith("c0,")
    back = matrixio.read_matrix_csv(path)
    assert np.array_equal(back.values, X.values)


def test_binary_roundtrip(X, tmp_path):
    path = tmp_path / "m.bin"
    matrixio.write_matrix_binary(X, path)
    back = matrixio.read_matrix_binary(path)
    assert np.array_equal(back.values, X.values)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        matrixio.read_matrix_binary(path)


@pytest.mark.parametrize("m, n", [(2**40, 2**40), (5, 8)])
def test_binary_header_larger_than_file(X, tmp_path, m, n):
    path = tmp_path / "m.bin"
    matrixio.write_matrix_binary(X, path)
    with open(path, "r+b") as fh:
        fh.write(matrixio._HEADER.pack(matrixio.MAGIC, m, n))
    with pytest.raises(ValueError, match="header declares"):
        matrixio.read_matrix_binary(path)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = np.array([0, 2, 1, 1, 0])
    matrixio.write_labels_csv(labels, path)
    assert np.array_equal(matrixio.read_labels_csv(path), labels)


def test_single_row_matrix(tmp_path):
    path = tmp_path / "m.csv"
    matrixio.write_matrix_csv(DataMatrix(np.array([[1.0, 2.0]])), path)
    assert matrixio.read_matrix_csv(path).values.shape == (1, 2)
