"""Property tests of the sweep engine and the matrix file formats.

Sizes stay small so the whole module runs in a few seconds; examples are
derandomized so every run checks the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import blockcluster as bc  # noqa: E402
from blockcluster import matrixio, optimizer  # noqa: E402
from blockcluster.criterion import (  # noqa: E402
    block_stats,
    cell_terms,
    criterion_value,
    move_delta,
    rate_function,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

#: relative tolerance, against max(1, |F|), for incremental against exact F
REL = 1e-9


@st.composite
def problems(draw):
    """(X, labels, f, min_frac): small data inside the rate's domain and a
    labeling that meets the class-size floor."""
    kind = draw(st.sampled_from(["gaussian", "poisson", "bernoulli"]))
    m, n = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    K, L = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    min_frac = draw(st.sampled_from([0.0, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        values = rng.standard_normal((m, n)) * draw(st.sampled_from([1.0, 100.0]))
    elif kind == "poisson":
        values = rng.poisson(3.0, (m, n)).astype(float)
    else:
        values = (rng.random((m, n)) < 0.4).astype(float)
    # shuffled round-robin classes hold at least floor(m / K) items, which
    # meets the 10% floor at these sizes
    g = rng.permutation(np.arange(m) % K)
    h = rng.permutation(np.arange(n) % L)
    labels = bc.LabelAssignment(g, h, K, L)
    return bc.DataMatrix(values), labels, rate_function(kind), min_frac


def F(X, labels, f):
    return criterion_value(block_stats(X, labels), f)


@SETTINGS
@given(problems())
def test_sweep_never_lowers_criterion(problem):
    X, labels, f, min_frac = problem
    new, gain = optimizer.kl_sweep(X, labels, f, min_frac)
    assert gain >= 0.0
    assert F(X, new, f) >= F(X, labels, f)
    floor = optimizer._min_count
    assert new.row_counts().min() >= floor(min_frac, X.m)
    assert new.col_counts().min() >= floor(min_frac, X.n)


@SETTINGS
@given(problems())
def test_scored_deltas_match_move_delta(problem):
    X, labels, f, min_frac = problem
    sides, f0 = optimizer._sides(X, labels, f, min_frac)
    assert f0 == F(X, labels, f)
    stats = block_stats(X, labels)
    scale = max(1.0, abs(f0))
    for axis, side in zip(("row", "col"), sides):
        target, delta = side.best_moves()
        for i in np.flatnonzero(target != side.labels):
            exact = move_delta(stats, X, labels, axis, i, target[i], f)
            assert abs(delta[i] - exact) <= REL * scale


@SETTINGS
@given(problems())
def test_running_criterion_is_exact(problem):
    """Every move the sweep applies is recorded; after each one the running
    criterion must equal F recomputed from scratch, the cached cell terms
    must equal fresh ones, and the kept prefix must be the best one."""
    X, labels, f, min_frac = problem
    made, applied = [], []
    real_sides, real_apply = optimizer._sides, optimizer._Side.apply

    def sides_spy(*args):
        out = real_sides(*args)
        made.append(out[0])
        return out

    def apply_spy(side, i, k):
        delta = real_apply(side, i, k)
        applied.append((made[-1].index(side), int(i), int(k), delta))
        rows = made[-1][0]
        fresh = cell_terms(rows.S, rows.counts, rows.other_counts, f)
        assert np.array_equal(rows.cells, fresh)
        return delta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_sides", sides_spy)
        mp.setattr(optimizer._Side, "apply", apply_spy)
        new, gain, kept = optimizer._sweep(X, labels, f, min_frac)

    f0 = F(X, labels, f)
    scale = max(1.0, abs(f0))
    current = [labels.row_labels.copy(), labels.col_labels.copy()]
    running, best_f, best_t = f0, f0, 0
    for t, (axis, i, k, delta) in enumerate(applied, start=1):
        current[axis][i] = k
        running += delta
        exact = F(X, bc.LabelAssignment(*current, labels.K, labels.L), f)
        assert abs(running - exact) <= REL * scale
        if running > best_f:
            best_f, best_t = running, t
    if kept:
        assert kept == best_t
        assert abs(best_f - F(X, new, f)) <= REL * scale
    assert gain == pytest.approx(F(X, new, f) - f0, abs=REL * scale)


matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@SETTINGS
@given(matrices, st.booleans())
def test_csv_roundtrip(tmp_path_factory, values, header):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    matrixio.write_matrix_csv(bc.DataMatrix(values), path, header=header)
    assert np.array_equal(matrixio.read_matrix_csv(path).values, values)


@SETTINGS
@given(matrices)
def test_binary_roundtrip(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("bmat") / "m.bin"
    matrixio.write_matrix_binary(bc.DataMatrix(values), path)
    back = matrixio.read_matrix_binary(path).values
    assert back.tobytes() == values.tobytes()
