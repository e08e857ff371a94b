"""Serialization: CSV and binary matrices, single-column label files.

CSV dialect: UTF-8, a leading byte-order mark skipped, comma separator, '.'
decimal point.  An optional header row is detected on read by a non-numeric
first field.  A CSV file whose data tokens are all plain non-negative
integers below 2**64 (count data) is parsed as integers, exactly, and each
count is rounded to float64 as the float parse rounds it.  Any other token
(a '-', a '.', an exponent, nan, 2**64 or more, an empty or missing field)
sends the whole file to the float parse, which gives the values and messages
it always gave.  The worst case is an integer file with one late non-integer
token: it is parsed twice.

The binary layout is magic "BMAT", uint64 m, uint64 n, then m*n row-major
float64 values, all little-endian.  Labels are 0-based integers, one per line.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .model import DataMatrix

MAGIC = b"BMAT"
_HEADER = struct.Struct("<4sQQ")
#: values per block of the in-place cast of parsed counts to float64
_CAST_BLOCK = 1 << 15


def write_matrix_csv(X: DataMatrix, path, header: bool = False) -> None:
    hdr = ",".join(f"c{j}" for j in range(X.n)) if header else ""
    np.savetxt(path, X.values, delimiter=",", fmt="%.17g", header=hdr, comments="")


def read_matrix_csv(path) -> DataMatrix:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not first:
        raise ValueError(f"{path}: empty file")
    skip = 0
    try:
        float(first.split(",")[0])
    except ValueError:
        skip = 1
    kwargs = dict(delimiter=",", skiprows=skip, ndmin=2)
    try:
        counts = _loadtxt(path, "data rows", dtype=np.uint64, **kwargs)
    except ValueError:  # a token that is not a count: the float parse decides
        return DataMatrix(_loadtxt(path, "data rows", **kwargs))
    # cast in place, a block of rows at a time, so X is held once; uint64 to
    # float64 rounds to nearest, as the float parse's strtod does
    values = counts.view(np.float64)
    rows = max(1, _CAST_BLOCK // counts.shape[1])
    for i in range(0, len(counts), rows):
        values[i:i + rows] = counts[i:i + rows]
    return DataMatrix(values)


def _loadtxt(path, what: str, **kwargs) -> np.ndarray:
    """``np.loadtxt``, with a ValueError naming the file for text it cannot
    parse and for a file without data, where loadtxt would warn instead."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # older NumPy releases read an integer field such as "1.5" or "-0"
        # through a float, truncated, with only this warning: refuse it
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        try:
            values = np.loadtxt(path, encoding="utf-8-sig", **kwargs)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not values.size:
        raise ValueError(f"{path}: no {what}")
    return values


def write_matrix_binary(X: DataMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, X.m, X.n))
        fh.write(np.ascontiguousarray(X.values, dtype="<f8").tobytes())


def read_matrix_binary(path) -> DataMatrix:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, m, n = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        left = os.fstat(fh.fileno()).st_size - _HEADER.size
        if 8 * m * n > left:
            raise ValueError(
                f"{path}: header declares {m} x {n} values, but only {left} "
                f"bytes of data follow"
            )
        data = np.empty((m, n), dtype="<f8")  # read in place: X is held once
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{path}: truncated data section")
    return DataMatrix(data)


def write_labels_csv(labels: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(labels, dtype=np.int64), fmt="%d")


def read_labels_csv(path) -> np.ndarray:
    return _loadtxt(path, "labels", dtype=np.int64, ndmin=1)
