"""Serialization: CSV and binary matrices, single-column label files.

CSV dialect: comma separator, '.' decimal point.  An optional header row is
detected on read by a non-numeric first field.  The binary layout is
magic "BMAT", uint64 m, uint64 n, then m*n row-major float64 values, all
little-endian.  Labels are 0-based integers, one per line.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .model import DataMatrix

MAGIC = b"BMAT"
_HEADER = struct.Struct("<4sQQ")


def write_matrix_csv(X: DataMatrix, path, header: bool = False) -> None:
    hdr = ",".join(f"c{j}" for j in range(X.n)) if header else ""
    np.savetxt(path, X.values, delimiter=",", fmt="%.17g", header=hdr, comments="")


def read_matrix_csv(path) -> DataMatrix:
    with open(path, "r") as fh:
        first = fh.readline()
    if not first:
        raise ValueError(f"{path}: empty file")
    skip = 0
    try:
        float(first.split(",")[0])
    except ValueError:
        skip = 1
    values = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return DataMatrix(values)


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
        data = np.frombuffer(fh.read(8 * m * n), dtype="<f8")
        if data.size != m * n:
            raise ValueError(f"{path}: truncated data section")
    return DataMatrix(data.reshape(m, n).astype(np.float64))


def write_labels_csv(labels: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(labels, dtype=np.int64), fmt="%d")


def read_labels_csv(path) -> np.ndarray:
    labels = np.loadtxt(path, dtype=np.int64, ndmin=1)
    return labels
