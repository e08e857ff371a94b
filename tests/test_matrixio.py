import contextlib
import tracemalloc
from codecs import BOM_UTF8

import numpy as np
import pytest

from blockcluster import DataMatrix
from blockcluster import matrixio, model


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


@pytest.mark.parametrize("text, rows", [
    ("1,2,3\n4,5,6\n7,8,9\n", 3),        # counts: the integer parse
    ("1.5,-2,3e2\n4,5,6\n7,8,9\n", 3),   # the float parse
    ("c0,c1,c2\n1,2,3\n4,5,6\n", 2),     # a header row
])
def test_byte_order_mark_keeps_every_data_row(tmp_path, text, rows):
    """A leading byte-order mark, as spreadsheet tools write it on saves as
    "UTF-8 with BOM", is no header: the file reads as it does without one,
    bit for bit."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM_UTF8 + text.encode())
    want = matrixio.read_matrix_csv(plain).values
    got = matrixio.read_matrix_csv(marked).values
    assert got.shape == (rows, 3)
    assert got.tobytes() == want.tobytes()


def test_labels_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(BOM_UTF8 + b"0\n2\n1\n")
    assert matrixio.read_labels_csv(path).tolist() == [0, 2, 1]


def test_single_row_matrix(tmp_path):
    path = tmp_path / "m.csv"
    matrixio.write_matrix_csv(DataMatrix(np.array([[1.0, 2.0]])), path)
    assert matrixio.read_matrix_csv(path).values.shape == (1, 2)


def read_both(path, float_parse_only):
    """The values read_matrix_csv gives, and those its float parse gives."""
    got = matrixio.read_matrix_csv(path).values
    with float_parse_only():
        return got, matrixio.read_matrix_csv(path).values


def test_counts_read_as_the_float_parse_reads_them(tmp_path, float_parse_only):
    """Counts past 2**53 round to float64 as strtod rounds them, and the
    result is a read-only float64 matrix."""
    path = tmp_path / "m.csv"
    path.write_text("c0,c1,c2\n0,+3,007\n9007199254740993,18446744073709551615, 12\n")
    got, expected = read_both(path, float_parse_only)
    assert got.dtype == np.float64 and not got.flags.writeable
    assert got.shape == (2, 3) and got.tobytes() == expected.tobytes()
    assert got[1, 0] == 2.0**53 and got[1, 1] == 2.0**64


@pytest.mark.parametrize("token", ["-0", "1.5", "3e2", "18446744073709551616"])
def test_one_late_token_that_is_not_a_count_takes_the_float_parse(tmp_path,
                                                                   float_parse_only, token):
    path = tmp_path / "m.csv"
    cells = [[str(i * 7 + j) for j in range(7)] for i in range(300)]
    cells[-1][-1] = token
    path.write_text("".join(",".join(row) + "\n" for row in cells))
    got, expected = read_both(path, float_parse_only)
    assert got.tobytes() == expected.tobytes()
    assert np.signbit(got[-1, -1]) == (token == "-0")


@pytest.fixture(scope="module")
def count_csv(tmp_path_factory):
    """The benchmark's CLI input: the Poisson 2x3 design, b = 10, 2000 x
    2000, as ``write_matrix_csv`` writes it."""
    X, _ = model.generate(model.design_spec("poisson", 10.0, 2000), 2000, 2000, 201)
    path = tmp_path_factory.mktemp("counts") / "x.csv"
    matrixio.write_matrix_csv(X, path)
    return X, path


def test_count_csv_read_holds_the_matrix_once(count_csv, float_parse_only):
    """The integer parse casts its counts in place: its traced peak is
    within 1 MiB of the float parse's, and its values are X's."""
    X, path = count_csv
    peaks = []
    for parse in (contextlib.nullcontext, float_parse_only):
        with parse():
            tracemalloc.start()
            try:
                values = matrixio.read_matrix_csv(path).values
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(values, X.values)
        del values
    assert abs(peaks[0] - peaks[1]) <= 2**20, peaks
