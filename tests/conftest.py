"""Hypothesis profiles for the property tests, the exhaustive oracle, one
sweep run through ``fit``, and the CSV reader held to its float parse.

``default`` checks the same 100 derandomized examples per property on every
run; ``ci`` (``pytest --hypothesis-profile=ci``) checks 1000.
"""

import contextlib
import itertools

import numpy as np
import pytest

import blockcluster as bc
from blockcluster.criterion import block_stats, criterion_value

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("default", max_examples=100, deadline=None,
                              derandomize=True)
    settings.register_profile("ci", max_examples=1000, deadline=None,
                              derandomize=True)
    settings.load_profile("default")


def _nontrivial(size, k):
    """Every labeling of ``size`` items that uses all k classes, and its
    one-hot (labelings, size, k)."""
    codes = np.array(list(itertools.product(range(k), repeat=size)))
    codes = codes[[len(set(c)) == k for c in codes.tolist()]]
    return codes, np.eye(k)[codes]


def _exhaustive_max(X, K, L, f):
    """Global criterion maximum over all nontrivial labelings (tiny m, n):
    every pair of row and column labelings scored with one einsum, and the
    best pair's F recomputed by ``criterion_value``."""
    g, G = _nontrivial(X.m, K)
    h, H = _nontrivial(X.n, L)
    S = np.einsum("aik,ij,bjl->abkl", G, X.values, H, optimize=True)
    N = G.sum(axis=1)[:, None, :, None] * H.sum(axis=1)[None, :, None, :]
    a, b = np.unravel_index((N * f.unchecked(S / N)).sum(axis=(2, 3)).argmax(), S.shape[:2])
    return criterion_value(block_stats(X, bc.LabelAssignment(g[a], h[b], K, L)), f)


def _one_sweep(X, labels, f, min_frac=0.0):
    """One sweep from ``labels``, run by ``fit`` with ``max_sweeps`` 1:
    (labels after it, its gain over F(labels))."""
    config = bc.FitConfig(labels.K, labels.L, f.kind, max_sweeps=1, min_frac=min_frac)
    result = bc.fit(X, config, init=labels)
    return result.labels, result.criterion - criterion_value(block_stats(X, labels), f)


# session-scoped, so that hypothesis's @given tests may take them
@pytest.fixture(scope="session")
def exhaustive_max():
    return _exhaustive_max


@pytest.fixture(scope="session")
def one_sweep():
    return _one_sweep


@contextlib.contextmanager
def _float_parse_only():
    """Within it, ``matrixio.read_matrix_csv``'s integer parse fails, so
    every file takes the float parse, as a file with a token that is not a
    count does."""
    loadtxt = np.loadtxt

    def refuse_counts(*args, dtype=float, **kwargs):
        if dtype is np.uint64:
            raise ValueError("integer parse refused")
        return loadtxt(*args, dtype=dtype, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", refuse_counts)
        yield


@pytest.fixture(scope="session")
def float_parse_only():
    return _float_parse_only
