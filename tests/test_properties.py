"""Property tests of the sweep engine, the lockstep k-means, the
misclassification matching, the matrix file formats, and the library entry
points and the CLI on malformed inputs.

Sizes stay small so the whole module runs in a few seconds.  The number of
examples comes from the hypothesis profile (``tests/conftest.py``); both
profiles are derandomized, so every run checks the same cases.  CI runs
the properties marked ``ci_profile`` again under the ``ci`` profile.
"""

import contextlib
import dataclasses
import io
import itertools
import math
import os
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import blockcluster as bc  # noqa: E402
from blockcluster import cli, criterion, evaluation, matrixio, optimizer, simharness  # noqa: E402
from blockcluster.errors import DomainError, PartitionError  # noqa: E402
from blockcluster.model import class_floor, derived_rng, draw_labels  # noqa: E402
from blockcluster.criterion import (  # noqa: E402
    block_stats,
    cell_terms,
    criterion_value,
    move_delta,
    rate_function,
)

#: relative tolerance, against max(1, |F|), for incremental against exact F
REL = 1e-9


def draw_values(draw, kind, m, n):
    """(values, rng): m x n data inside the ``kind`` rate's domain, and the
    generator that made them, for drawing labels next."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        values = rng.standard_normal((m, n)) * draw(st.sampled_from([1.0, 100.0]))
    elif kind == "poisson":
        values = rng.poisson(3.0, (m, n)).astype(float)
    else:
        values = (rng.random((m, n)) < 0.4).astype(float)
    return values, rng


def draw_shape(draw, classes, wide=True):
    """(m, n, K, L): 4 to 12 rows and columns, each axis in a number of
    classes drawn from ``classes``; if ``wide``, one axis in three instead
    holds 8 to 10 classes of 2 or 3 items each, so that sums over that many
    classes take NumPy's pairwise path (8 terms or more).  Shuffled
    round-robin labels on these shapes meet a 10% class-size floor."""
    m, n = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    K, L = draw(classes), draw(classes)
    axis = draw(st.sampled_from([None, 0, 1])) if wide else None
    if axis is not None:
        k = draw(st.integers(8, 10))
        m, n, K, L = ((k * draw(st.integers(2, 3)), n, k, L) if axis == 0
                      else (m, k * draw(st.integers(2, 3)), K, k))
    return m, n, K, L


@st.composite
def problems(draw):
    """(X, labels, f, min_frac): small data inside the rate's domain and a
    labeling that meets the class-size floor (shapes from ``draw_shape``)."""
    kind = draw(st.sampled_from(["gaussian", "poisson", "bernoulli"]))
    m, n, K, L = draw_shape(draw, st.integers(2, 4))
    min_frac = draw(st.sampled_from([0.0, 0.1]))
    values, rng = draw_values(draw, kind, m, n)
    # shuffled round-robin classes hold at least floor(m / K) items, which
    # meets the 10% floor at these sizes
    g = rng.permutation(np.arange(m) % K)
    h = rng.permutation(np.arange(n) % L)
    labels = bc.LabelAssignment(g, h, K, L)
    return bc.DataMatrix(values), labels, rate_function(kind), min_frac


def F(X, labels, f):
    return criterion_value(block_stats(X, labels), f)


def floors(X, min_frac):
    """The least row and column class sizes under ``min_frac``."""
    return class_floor(min_frac, X.m), class_floor(min_frac, X.n)


@given(problems())
def test_sweep_never_lowers_criterion(one_sweep, problem):
    X, labels, f, min_frac = problem
    new, gain = one_sweep(X, labels, f, min_frac)
    assert gain >= 0.0
    assert F(X, new, f) >= F(X, labels, f)
    floor = class_floor
    assert new.row_counts().min() >= floor(min_frac, X.m)
    assert new.col_counts().min() >= floor(min_frac, X.n)


@pytest.mark.ci_profile
@given(problems())
def test_scored_deltas_match_move_delta(problem):
    X, labels, f, min_frac = problem
    sides, f0 = optimizer._sides(X, labels, f, floors(X, min_frac))
    assert f0 == F(X, labels, f)
    stats = block_stats(X, labels)
    scale = max(1.0, abs(f0))
    for axis, side in zip(("row", "col"), sides):
        items, targets, deltas = side.best_moves()
        assert (np.diff(items) > 0).all()
        assert (targets != side.labels[items]).all()
        for i, k, delta in zip(items, targets, deltas):
            exact = move_delta(stats, X, labels, axis, i, k, f)
            assert abs(delta - exact) <= REL * scale
        # an item left out sits in a class at the floor or has no move
        # that gains more than rounding
        for i in np.setdiff1d(np.arange(side.labels.size), items):
            if side.counts[side.labels[i]] <= side.min_count:
                continue
            for k in range(side.counts.size):
                if k != side.labels[i]:
                    assert move_delta(stats, X, labels, axis, i, k, f) <= REL * scale


@pytest.mark.ci_profile
@given(problems())
def test_running_criterion_is_exact(problem):
    """Every move the sweep applies is replayed with its delta; after each
    one the running criterion must equal F recomputed from scratch, and the
    kept prefix must be the best one."""
    X, labels, f, min_frac = problem
    replayed = []
    real_replay = optimizer._replay

    def replay_spy(sides, moves):
        deltas = real_replay(sides, moves)
        replayed.append((moves.tolist(), deltas.tolist()))
        return deltas

    sides, f0_sweep = optimizer._sides(X, labels, f, floors(X, min_frac))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_replay", replay_spy)
        new, new_sides, f1, kept = optimizer._sweep(X, labels, sides, f0_sweep)

    f0 = F(X, labels, f)
    # the sweep reports the criterion of its input and of its output
    # exactly as criterion_value(block_stats(...)) computes them
    assert f0_sweep == f0
    assert f1 == F(X, new, f)
    assert np.array_equal(new_sides[0].labels, new.row_labels)
    assert np.array_equal(new_sides[1].labels, new.col_labels)
    [(moves, deltas)] = replayed
    scale = max(1.0, abs(f0))
    current = [labels.row_labels.copy(), labels.col_labels.copy()]
    running, best_f, best_t = f0, f0, 0
    for t, ((axis, i, a, k), delta) in enumerate(zip(moves, deltas), start=1):
        assert current[axis][i] == a
        current[axis][i] = k
        running += delta
        exact = F(X, bc.LabelAssignment(*current, labels.K, labels.L), f)
        assert abs(running - exact) <= REL * scale
        if running > best_f:
            best_f, best_t = running, t
    if kept:
        assert kept == best_t
        assert abs(best_f - F(X, new, f)) <= REL * scale
    assert f1 >= f0
    if not kept:
        assert new is labels and new_sides is sides and f1 == f0


@st.composite
def fit_problems(draw, kinds=("gaussian", "poisson", "bernoulli")):
    """(X, init, f, min_frac) for a whole fit: up to 39 x 39 data inside
    the rate's domain, K, L <= 4 and a start that meets the floor."""
    kind = draw(st.sampled_from(kinds))
    m, n = draw(st.integers(4, 39)), draw(st.integers(4, 39))
    K, L = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    min_frac = draw(st.sampled_from([0.0, 0.1]))
    values, rng = draw_values(draw, kind, m, n)
    init = bc.LabelAssignment(rng.permutation(np.arange(m) % K),
                              rng.permutation(np.arange(n) % L), K, L)
    return bc.DataMatrix(values), init, rate_function(kind), min_frac


@pytest.mark.ci_profile
@given(fit_problems())
def test_converged_fit_is_locally_optimal(problem):
    """At a converged fit no legal single move, checked by brute force
    through ``move_delta``, gains more than rounding: max(1e-12, 1e-9 |F|).
    The fit compares exactly, so the allowance is the test's alone: the
    rounding that separates ``move_delta`` from the sweep's own deltas.  On
    every fit the trajectory ends at the criterion."""
    X, init, f, min_frac = problem
    config = optimizer.FitConfig(K=init.K, L=init.L, rate=f.kind, min_frac=min_frac)
    result = optimizer.fit(X, config, init=init)
    assert result.sweep_trajectory[-1] == result.criterion
    event("converged" if result.converged else "stopped at max_sweeps")
    if not result.converged:
        return
    labels = result.labels
    stats = block_stats(X, labels)
    tol = max(1e-12, 1e-9 * abs(result.criterion))
    for axis, own, counts, size in (("row", labels.row_labels, labels.row_counts(), X.m),
                                    ("col", labels.col_labels, labels.col_counts(), X.n)):
        floor = class_floor(min_frac, size)
        for i in range(size):
            if counts[own[i]] <= floor:
                continue
            for k in range(counts.size):
                if k != own[i]:
                    assert move_delta(stats, X, labels, axis, i, k, f) <= tol


@given(fit_problems(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_restarts_are_the_best_of_one_restart_fits_from_their_starts(problem, restarts,
                                                                     seed):
    """``fit`` with R restarts gives, in labels, criterion, trajectory and
    ``restart_index``, the best of R one-restart fits run from the starts of
    ``_restart_starts`` as ``init``, the first restart on ties: each start
    is made before any sweep, and a sweep depends on its start alone.  The
    data drawn here are never centred, so F of X ranks the restarts.  A
    start below the floors refuses the whole fit, under the same message."""
    X, init, f, min_frac = problem
    assert optimizer._centred(X, f) is X
    config = optimizer.FitConfig(K=init.K, L=init.L, rate=f.kind, restarts=restarts,
                                 min_frac=min_frac, seed=seed)
    try:
        starts = optimizer._restart_starts(X, config, None, floors(X, min_frac))
    except PartitionError as refusal:
        event("a start below the floors")
        with pytest.raises(PartitionError, match=f"^{re.escape(str(refusal))}$"):
            optimizer.fit(X, config)
        return
    one = dataclasses.replace(config, restarts=1)
    fits = [optimizer.fit(X, one, init=labels) for labels, _ in starts]
    best = int(np.argmax([one_fit.criterion for one_fit in fits]))
    event(f"restart {best} of {restarts} is best")
    result = optimizer.fit(X, config)
    assert result.restart_index == best
    assert np.array_equal(result.labels.row_labels, fits[best].labels.row_labels)
    assert np.array_equal(result.labels.col_labels, fits[best].labels.col_labels)
    assert result.criterion == fits[best].criterion
    assert result.sweep_trajectory == fits[best].sweep_trajectory


@pytest.mark.ci_profile
@given(fit_problems(kinds=["gaussian"]), st.integers(-60, 60))
def test_gaussian_fits_do_not_depend_on_a_power_of_two_scale(problem, k):
    """Under the Gaussian rate F(c X) = c^2 F(X), and scaling by 2^k rounds
    nothing, so the fit from the same start and k-means give the same
    labels on 2^k X, with F exactly 4^k times as large."""
    X, init, _, min_frac = problem
    Y = bc.DataMatrix(np.ldexp(X.values, k))
    config = optimizer.FitConfig(K=init.K, L=init.L, rate="gaussian", min_frac=min_frac)
    a, b = optimizer.fit(X, config, init=init), optimizer.fit(Y, config, init=init)
    assert np.array_equal(a.labels.row_labels, b.labels.row_labels)
    assert np.array_equal(a.labels.col_labels, b.labels.col_labels)
    assert b.criterion == math.ldexp(a.criterion, 2 * k)
    ka, kb = (optimizer.kmeans_init(Z, init.K, init.L, seed=k % 7) for Z in (X, Y))
    assert np.array_equal(ka.row_labels, kb.row_labels)
    assert np.array_equal(ka.col_labels, kb.col_labels)


@pytest.mark.ci_profile
@given(st.sampled_from([0.1, 1 / 3, 7.7, 1e-3]), st.sampled_from(["gaussian", "poisson"]),
       st.integers(4, 40), st.integers(4, 40), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_constant_matrices_do_not_creep_on_ties(c, kind, m, n, K, L, seed):
    """On a constant matrix every labeling has F = m n f(c), so every move
    ties with staying put and only the rounding of the block sums tells
    them apart.  A fit from a random start, comparing exactly, still
    converges before ``max_sweeps``, never falls below F of its start, and
    ends within 1e-12 |F| of m n f(c)."""
    X = bc.DataMatrix(np.full((m, n), c))
    rng = np.random.default_rng(seed)
    init = bc.LabelAssignment(draw_labels(rng, K, m), draw_labels(rng, L, n), K, L)
    f = rate_function(kind)
    result = optimizer.fit(X, optimizer.FitConfig(K=K, L=L, rate=kind), init=init)
    assert result.converged
    assert min(result.sweep_trajectory) >= F(X, init, f)
    exact = m * n * f.evaluate(c)
    assert abs(result.criterion - exact) <= 1e-12 * abs(exact)


@pytest.mark.ci_profile
@given(st.sampled_from(["gaussian", "poisson", "bernoulli"]), st.integers(1, 12),
       st.integers(1, 12), st.integers(1, 5), st.integers(1, 5), st.data())
def test_block_sums_add_as_add_at_does(kind, m, n, K, L, data):
    """S adds the row lines of each row class in row order, from 0.0, as
    ``np.add.at`` does, bit for bit; also with one class on an axis and
    with classes that hold no item."""
    values, rng = draw_values(data.draw, kind, m, n)
    K, L = min(K, m), min(L, n)
    labels = bc.LabelAssignment(rng.integers(K, size=m), rng.integers(L, size=n), K, L)
    event(f"empty classes: {min(labels.row_counts().min(), labels.col_counts().min()) == 0}")
    X = bc.DataMatrix(values)
    stats = block_stats(X, labels)
    S = np.zeros((K, L))
    np.add.at(S, labels.row_labels, criterion.line_blocks(X.values, labels.col_labels, L)[0])
    assert stats.S.tobytes() == S.tobytes()


# -- the sweep's replay against the one-move-at-a-time apply loop ---------

def sequential_apply(sides, moves, f):
    """Apply the (axis, item, to) ``moves`` one at a time to a running copy
    of the rebuilt state ``sides``, updating the opposite side's lines and
    the cached cell terms of the two class lines each move touches, and
    skipping a move that would shrink its class below the floor (the
    reference the replay must reproduce bit for bit).  Returns the applied
    moves (axis, item, from, to), their deltas and the number skipped."""
    rows, cols = sides
    R, C, S = rows.lines.copy(), cols.lines.T.copy(), rows.S.copy()
    rcnt, ccnt, cells = rows.counts.copy(), cols.counts.copy(), rows.cells.copy()
    g, h = rows.labels.copy(), cols.labels.copy()
    state = [(rows.X, g, R, C, S, rcnt, ccnt, cells, rows.min_count),
             (cols.X, h, C.T, R.T, S.T, ccnt, rcnt, cells.T, cols.min_count)]
    applied, deltas, skipped = [], [], 0
    for axis, i, k in moves:
        data, lab, lines, cross, S_, counts, other, cached, floor = state[axis]
        a = lab[i]
        if counts[a] <= floor:
            skipped += 1
            continue
        line = lines[i]
        after = cell_terms(np.stack([S_[a] - line, S_[k] + line]),
                           np.array([[counts[a] - 1], [counts[k] + 1]]) * other, f)
        old, new = cached[[a, k]].sum(axis=1), after.sum(axis=1)
        deltas.append((new[0] + new[1]) - (old[0] + old[1]))
        S_[a] -= line
        S_[k] += line
        counts[a] -= 1
        counts[k] += 1
        cross[a] -= data[i]
        cross[k] += data[i]
        cached[[a, k]] = after
        lab[i] = k
        applied.append([axis, int(i), int(a), int(k)])
    return applied, deltas, skipped


def sequential_sweep(X, labels, f, min_frac):
    """The sweep as a loop that applies one move at a time (see
    ``sequential_apply``).  Returns the applied moves (axis, item, from,
    to), their deltas, the running criterion, the kept prefix, the labels
    kept and the number of moves skipped as illegal."""
    sides, f0 = optimizer._sides(X, labels, f, floors(X, min_frac))
    moves = []
    for axis, side in enumerate(sides):
        items, targets, deltas = side.best_moves()
        moves += [(d, axis, i, k) for i, k, d in zip(items, targets, deltas)]
    moves.sort(key=lambda t: (-t[0], t[1], t[2]))
    applied, deltas, skipped = sequential_apply(
        sides, [move[1:] for move in moves], f)

    running = [f0]
    for delta in deltas:
        running.append(running[-1] + delta)
    kept = max(range(len(running)), key=lambda t: (running[t], -t))
    kept_labels = [labels.row_labels.copy(), labels.col_labels.copy()]
    for axis, i, _, k in applied[:kept]:
        kept_labels[axis][i] = k
    return applied, deltas, running, kept, kept_labels, skipped


@st.composite
def replay_problems(draw):
    """(X, labels, f, min_frac): as ``problems``, with the 30% class-size
    floor (two classes, no wide axis) and single-class axes, whose sweeps
    move items of the other axis only, or none."""
    kind = draw(st.sampled_from(["gaussian", "poisson", "bernoulli"]))
    min_frac = draw(st.sampled_from([0.0, 0.1, 0.3]))
    m, n, K, L = draw_shape(draw, st.sampled_from([1, 2] if min_frac == 0.3 else [1, 2, 3, 4]),
                            wide=min_frac < 0.3)
    values, rng = draw_values(draw, kind, m, n)
    g = rng.permutation(np.arange(m) % K)
    h = rng.permutation(np.arange(n) % L)
    labels = bc.LabelAssignment(g, h, K, L)
    return bc.DataMatrix(values), labels, rate_function(kind), min_frac


def check_replay_matches_sequential(X, labels, f, min_frac):
    applied, deltas, running, kept, kept_labels, skipped = sequential_sweep(
        X, labels, f, min_frac)
    replayed = []
    real_replay = optimizer._replay

    def replay_spy(sides, moves):
        out = real_replay(sides, moves)
        replayed.append((moves.tolist(), out))
        return out

    sides, f0 = optimizer._sides(X, labels, f, floors(X, min_frac))
    before = [(side.lines.copy(), side.S.copy(), side.counts.copy(),
               side.cells.copy()) for side in sides]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_replay", replay_spy)
        new, _, f1, got_kept = optimizer._sweep(X, labels, sides, f0)
    [(moves, got)] = replayed
    assert moves == applied
    assert got.tolist() == deltas
    assert np.cumsum(np.concatenate([[f0], got])).tolist() == running
    assert got_kept == kept
    assert np.array_equal(new.row_labels, kept_labels[0])
    assert np.array_equal(new.col_labels, kept_labels[1])
    if kept == 0:
        assert new is labels and f1 == f0
    # the sweep reads its rebuilt state and never writes it
    for side, arrays in zip(sides, before):
        for now, then in zip((side.lines, side.S, side.counts, side.cells), arrays):
            assert np.array_equal(now, then)
    return applied, skipped


@pytest.mark.ci_profile
@given(replay_problems())
def test_replay_matches_sequential_apply(problem):
    """Per-move deltas, running criterion, kept prefix and labels of the
    replay equal those of the one-move-at-a-time loop, bit for bit."""
    applied, skipped = check_replay_matches_sequential(*problem)
    axes = {axis for axis, *_ in applied}
    event(f"axes moved: {sorted(axes)}")
    event("a move skipped as illegal" if skipped else "no move skipped")


@pytest.mark.ci_profile
@given(replay_problems())
def test_kept_sweep_state_equals_a_fresh_rebuild(problem):
    """The state a kept sweep returns, which keeps the row (column) lines
    when only rows (columns) moved, equals a rebuild from scratch of the
    kept labels bit for bit: lines, S, class sizes, cell terms and F."""
    X, labels, f, min_frac = problem
    sides, f0 = optimizer._sides(X, labels, f, floors(X, min_frac))
    new, new_sides, f1, kept = optimizer._sweep(X, labels, sides, f0)
    if not kept:
        event("no move kept")
        return
    moved = [not np.array_equal(new.row_labels, labels.row_labels),
             not np.array_equal(new.col_labels, labels.col_labels)]
    event(f"rows moved: {moved[0]}, columns moved: {moved[1]}")
    fresh, f_fresh = optimizer._sides(X, new, f, floors(X, min_frac))
    assert f1 == f_fresh
    for got, want in zip(new_sides, fresh):
        assert got.min_count == want.min_count
        for name in ("labels", "lines", "S", "counts", "other_counts", "cells"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
    # an axis keeps its lines exactly when the opposite axis did not move
    for axis in (0, 1):
        assert np.shares_memory(new_sides[axis].lines, sides[axis].lines) == (
            not moved[1 - axis])


@contextlib.contextmanager
def narrow_blocks(width):
    """Line sums in blocks of ``width`` items, not ``criterion.line_width``'s
    at least ``LINE_BLOCK``, so that the small problems here span several
    blocks and a sweep's moves touch some of them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criterion, "line_width", lambda k: width)
        yield


@pytest.mark.ci_profile
@given(replay_problems(), st.integers(1, 5))
def test_kept_sweep_state_in_narrow_blocks(problem, width):
    """The fresh-rebuild property with blocks of 1 to 5 items: a rebuild
    that computes again only the blocks its moves touched equals a rebuild
    from scratch bit for bit."""
    with narrow_blocks(width):
        test_kept_sweep_state_equals_a_fresh_rebuild.hypothesis.inner_test(problem)
        X, labels, f, min_frac = problem
        sides, f0 = optimizer._sides(X, labels, f, floors(X, min_frac))
        _, new_sides, _, kept = optimizer._sweep(X, labels, sides, f0)
    if kept:
        shared = [sum(a is b for a, b in zip(new.blocks, old.blocks)) / len(old.blocks)
                  for new, old in zip(new_sides, sides)]
        event("a side shares some blocks and computes others again"
              if any(0 < part < 1 for part in shared) else "no side splits its blocks")


@pytest.mark.ci_profile
@given(replay_problems(), st.integers(1, 5))
def test_replay_in_narrow_blocks(problem, width):
    """The replay oracle with blocks of 1 to 5 items."""
    with narrow_blocks(width):
        check_replay_matches_sequential(*problem)


@pytest.mark.ci_profile
@given(fit_problems(), st.integers(1, 8))
def test_converged_fit_in_narrow_blocks_is_locally_optimal(problem, width):
    """The local-optimality property with blocks of 1 to 8 items, over the
    whole fit's rebuilds."""
    with narrow_blocks(width):
        test_converged_fit_is_locally_optimal.hypothesis.inner_test(problem)


@st.composite
def line_problems(draw):
    """(data, labels, k, width, transposed): the data of one side, a (items,
    opposite) matrix or the transposed view the column side sums, labels of
    its opposite items in k classes, and a block width of 1 to one more than
    the opposite count."""
    kind = draw(st.sampled_from(["gaussian", "poisson", "bernoulli"]))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    values, rng = draw_values(draw, kind, m, n)
    transposed = draw(st.booleans())
    data = values.T if transposed else values
    k = draw(st.integers(1, 5))
    labels = rng.integers(k, size=data.shape[1])
    return data, labels, k, draw(st.integers(1, data.shape[1] + 1)), transposed


@pytest.mark.ci_profile
@given(line_problems(), st.data())
def test_updated_line_blocks_equal_a_fresh_build(problem, data):
    """After random relabelling of some opposite items, ``line_blocks``
    given the prior call computes again just the blocks that hold one and
    shares the rest, and its lines and blocks equal a call from scratch
    byte for byte; with nothing relabelled it returns the prior arrays."""
    X, labels, k, width, transposed = problem
    moved = data.draw(st.lists(st.integers(0, labels.size - 1), max_size=labels.size))
    new = labels.copy()
    new[moved] = data.draw(st.lists(st.integers(0, k - 1), min_size=len(moved),
                                    max_size=len(moved)))
    event(f"short last block: {labels.size % width != 0}, transposed: {transposed}")
    with narrow_blocks(width):
        lines, blocks = criterion.line_blocks(X, labels, k)
        got = criterion.line_blocks(X, new, k, (lines, blocks, labels))
        want = criterion.line_blocks(X, new, k)
    changed = np.flatnonzero(new != labels) // width
    if not changed.size:
        assert got[0] is lines and got[1] is blocks
    for b, (old, block, fresh) in enumerate(zip(blocks, got[1], want[1])):
        assert (block is old) == (b not in changed)
        assert block.tobytes() == fresh.tobytes()
    assert got[0].tobytes() == want[0].tobytes()
    assert want[0].shape == (X.shape[0], k) and len(want[1]) == -(-labels.size // width)


@pytest.mark.ci_profile
@given(st.integers(1, 40), st.integers(1, 300), st.integers(1, 8), st.integers(1, 70),
       st.integers(0, 2**32 - 1))
def test_blocked_lines_of_integer_data_equal_one_matmul(m, n, L, width, seed):
    """On integer-valued X every partial sum is exact, so the blocked row
    lines equal ``X @ one_hot(h)`` and the column lines ``(one_hot(g).T @
    X).T`` bit for bit, at any block width: why count data keep their
    labels and F under the blocked sums."""
    rng = np.random.default_rng(seed)
    X = bc.DataMatrix(rng.integers(-50, 50, size=(m, n)).astype(float))
    K, L = min(L, m), min(L, n)
    labels = bc.LabelAssignment(rng.integers(K, size=m), rng.integers(L, size=n), K, L)
    onehot = [criterion._one_hot(v, k) for v, k in ((labels.row_labels, K),
                                                    (labels.col_labels, L))]
    for blocks in (narrow_blocks(width), contextlib.nullcontext()):
        with blocks:
            R, _ = criterion.line_blocks(X.values, labels.col_labels, L)
            C, _ = criterion.line_blocks(X.values.T, labels.row_labels, K)
        assert R.tobytes() == (X.values @ onehot[1]).tobytes()
        assert C.tobytes() == np.ascontiguousarray((onehot[0].T @ X.values).T).tobytes()


#: row and column moves, as (axis, item, target); each ordering below puts
#: the replay's walks over the opposite moves in one situation
WALK_ROWS = [(0, 0, 1), (0, 4, 2), (0, 7, 0), (0, 2, 0)]
WALK_COLS = [(1, 1, 2), (1, 5, 0), (1, 3, 1)]
WALK_ORDERS = {
    # every opposite move after the last row mover, so the row walk stops
    # at once; every column mover after all opposite moves
    "rows_then_cols": WALK_ROWS + WALK_COLS,
    "cols_then_rows": WALK_COLS + WALK_ROWS,
    # the row walk gives each column move a shorter suffix of the movers
    # and stops at the last one; the column walk's suffixes shrink to the
    # last mover alone
    "interleaved": (WALK_ROWS[:2] + WALK_COLS[:1] + WALK_ROWS[2:3]
                    + WALK_COLS[1:2] + WALK_ROWS[3:] + WALK_COLS[2:]),
    # one axis without movers, the other without opposite moves
    "rows_only": WALK_ROWS,
    "cols_only": WALK_COLS,
}


@pytest.mark.parametrize("scale", [2, 65536])
@pytest.mark.parametrize("order", WALK_ORDERS)
def test_replay_walk_edge_cases_match_sequential_apply(order, scale):
    """Crafted move lists through ``_legal`` and ``_replay`` against the
    one-move-at-a-time loop: the deltas are equal bit for bit, on data of
    small and of large magnitude (power-of-two scales, so both matrices
    hold the same significands and only the exponents differ)."""
    rng = np.random.default_rng(18)
    X = bc.DataMatrix(rng.standard_normal((9, 7)) * float(scale))
    labels = bc.LabelAssignment(np.arange(9) % 3, np.arange(7) % 3, 3, 3)
    f = rate_function("gaussian")
    sides, _ = optimizer._sides(X, labels, f, floors(X, 0.0))
    axis, item, target = (np.array(v) for v in zip(*WALK_ORDERS[order]))
    applied, deltas, skipped = sequential_apply(sides, WALK_ORDERS[order], f)
    moves = optimizer._legal(sides, axis, item, target)
    assert moves.tolist() == applied and skipped == 0
    assert optimizer._replay(sides, moves).tolist() == deltas


@pytest.mark.parametrize("seed", range(6))
def test_replay_skips_illegal_moves_as_the_loop_does(seed):
    """Under a 45% class-size floor a class of 10 in 20 may lose one item,
    so a second move out of it turns illegal; the replay must skip exactly
    the moves the loop skips."""
    rng = np.random.default_rng(seed)
    X = bc.DataMatrix(rng.standard_normal((20, 20)))
    labels = bc.LabelAssignment(np.arange(20) % 2, np.arange(20) % 2, 2, 2)
    _, skipped = check_replay_matches_sequential(
        X, labels, rate_function("gaussian"), 0.45)
    assert skipped > 0


matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


def unchecked(values):
    """(matrix, refused): ``values`` as the matrix writers take them, built
    without ``DataMatrix``, and whether ``DataMatrix`` must refuse them, as
    their exact sum of squares exceeds max_float / (8 max(m, n)).  Values
    within 1e-9 of that limit, where rounding decides, are skipped."""
    limit = Fraction(np.finfo(np.float64).max) / (8 * max(values.shape))
    total = sum(Fraction(x) ** 2 for x in values.ravel().tolist())
    assume(abs(total - limit) > limit / 10**9)
    m, n = values.shape
    return SimpleNamespace(values=values, m=m, n=n), total > limit


@pytest.mark.ci_profile
@given(matrices, st.booleans())
def test_csv_roundtrip(tmp_path_factory, values, header):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    raw, refused = unchecked(values)
    matrixio.write_matrix_csv(raw, path, header=header)
    if refused:
        with pytest.raises(DomainError, match="squared norm"):
            matrixio.read_matrix_csv(path)
    else:
        assert np.array_equal(matrixio.read_matrix_csv(path).values, values)


@pytest.mark.ci_profile
@given(matrices)
def test_binary_roundtrip(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("bmat") / "m.bin"
    raw, refused = unchecked(values)
    matrixio.write_matrix_binary(raw, path)
    if refused:
        with pytest.raises(DomainError, match="squared norm"):
            matrixio.read_matrix_binary(path)
    else:
        assert matrixio.read_matrix_binary(path).values.tobytes() == values.tobytes()


# -- lockstep k-means against the one-start-at-a-time implementation ------

def _oracle_sq_dists(points, centers):
    pp = np.einsum("ij,ij->i", points, points)
    cc = np.einsum("ij,ij->i", centers, centers)
    d = pp[:, None] - 2.0 * points @ centers.T + cc[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def _oracle_lloyd(points, centers, iters):
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        d = _oracle_sq_dists(points, centers)
        labels = d.argmin(axis=1)
        own = d[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                idx = int(own.argmax())
                centers[j] = points[idx]
                labels[idx] = j
                own[idx] = 0.0
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = points[labels == j].mean(axis=0)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return labels


def _oracle_seed(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _oracle_sq_dists(points, centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        # when every point sits on a centre, all are drawn alike
        idx = rng.choice(n, p=closest / total if total > 0 else np.full(n, 1.0 / n))
        centers[j] = points[idx]
        np.minimum(closest, _oracle_sq_dists(points, centers[j : j + 1]).ravel(),
                   out=closest)
    return centers


def kmeans_oracle(points, k, rng, iters, starts=10):
    """k-means++ and Lloyd run one start at a time, best start by the
    per-cluster sums of squared deviations (the reference the lockstep
    routine must reproduce)."""
    best_labels, best_inertia = None, np.inf
    for _ in range(starts):
        labels = _oracle_lloyd(points, _oracle_seed(points, k, rng), iters)
        inertia = 0.0
        for j in range(k):
            cluster = points[labels == j]
            inertia += float(((cluster - cluster.mean(axis=0)) ** 2).sum())
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def oracle_init(X, K, L, seed, iters):
    return (kmeans_oracle(X.values, K, derived_rng(seed, 0), iters),
            kmeans_oracle(np.ascontiguousarray(X.values.T), L,
                          derived_rng(seed, 1), iters))


@contextlib.contextmanager
def spied_groups():
    """Yields a list that gets, per ``_lockstep`` call, min(m, n) of its X
    and the (starts, k) of each axis it runs."""
    groups, shapes = [], []
    starts, lockstep = optimizer._starts, optimizer._lockstep

    def spy_starts(points, pp, centers, flip, iters):
        shapes.append(centers.shape[:2])
        return starts(points, pp, centers, flip, iters)

    def spy_lockstep(runs, points):
        groups.append((min(points.shape), shapes[-len(runs):]))
        return lockstep(runs, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_starts", spy_starts)
        mp.setattr(optimizer, "_lockstep", spy_lockstep)
        yield groups


@pytest.mark.ci_profile
@given(st.integers(2, 30), st.integers(2, 30), st.integers(1, 5),
       st.integers(1, 5), st.sampled_from([1, 2, 50]),
       st.integers(0, 2**32 - 1))
def test_kmeans_matches_one_start_at_a_time(m, n, K, L, iters, seed):
    K, L = min(K, m), min(L, n)
    X = bc.DataMatrix(np.random.default_rng(seed).standard_normal((m, n)))
    got = optimizer.kmeans_init(X, K, L, seed=seed % 1000, iters=iters)
    g, h = oracle_init(X, K, L, seed % 1000, iters)
    assert np.array_equal(got.row_labels, g)
    assert np.array_equal(got.col_labels, h)


@pytest.mark.ci_profile
@given(st.data(), st.integers(1, 5), st.integers(1, 5), st.sampled_from([1, 2, 50]),
       st.integers(0, 2**32 - 1))
def test_kmeans_one_group_matches_one_start_at_a_time(data, K, L, iters, seed):
    """Sizes at which all ten row starts and all ten column starts run as
    one pair of groups, sharing every matmul."""
    low = max(20, optimizer.KMEANS_STARTS * (K + L))
    m, n = data.draw(st.integers(low, 120)), data.draw(st.integers(low, 120))
    X = bc.DataMatrix(np.random.default_rng(seed).standard_normal((m, n)))
    with spied_groups() as groups:
        got = optimizer.kmeans_init(X, K, L, seed=seed % 1000, iters=iters)
    assert groups == [(min(m, n), [(optimizer.KMEANS_STARTS, K),
                                   (optimizer.KMEANS_STARTS, L)])]
    g, h = oracle_init(X, K, L, seed % 1000, iters)
    assert np.array_equal(got.row_labels, g)
    assert np.array_equal(got.col_labels, h)


@pytest.mark.ci_profile
@given(st.sampled_from(["gaussian", "duplicates", "constant"]), st.integers(1, 40),
       st.integers(1, 6), st.integers(1, 5), st.integers(0, 10),
       st.integers(0, 2**32 - 1))
def test_lockstep_seeding_matches_one_start_at_a_time(kind, n, d, k, split, seed):
    """All starts seeded at once, in two groups split anywhere, place the
    centres the one-start loop places from the same generator, also when
    every point sits on a centre (a draw with equal probabilities)."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        points = rng.standard_normal((n, d))
    elif kind == "duplicates":
        points = rng.poisson(1.0, (3, d)).astype(float)[rng.integers(0, 3, n)]
    else:
        points = np.ones((n, d))
    pp = np.einsum("ij,ij->i", points, points)
    first, u = optimizer._seed_draws(np.random.default_rng(seed), n, k)
    got = np.concatenate([optimizer._kmeanspp(points, pp, first[:split], u[:split]),
                          optimizer._kmeanspp(points, pp, first[split:], u[split:])])
    oracle_rng = np.random.default_rng(seed)
    expected = [_oracle_seed(points, k, oracle_rng) for _ in range(optimizer.KMEANS_STARTS)]
    assert np.array_equal(got, np.stack(expected))


def full_ranking(points, labelings, k):
    """The labeling of least summed per-cluster squared deviations, summed
    cluster 0 first; the first one on ties."""
    best, best_inertia = None, np.inf
    for g in labelings:
        inertia = 0.0
        for j in range(k):
            cluster = points[g == j]
            inertia += float(((cluster - cluster.mean(axis=0)) ** 2).sum())
        if inertia < best_inertia:
            best, best_inertia = g, inertia
    return best


def finished_starts(points, labelings, k):
    """The (labels, sums, counts) of finished starts with these labels, for
    ``_best_start``."""
    g = np.array(labelings)
    onehot = (g[:, :, None] == np.arange(k)).astype(float)
    return g, onehot.transpose(0, 2, 1) @ points, onehot.sum(axis=1)


#: three 1-D clusters with sums of squared deviations 1, 2**-53 and 2**-53:
#: summed in the order 1, tiny, tiny they give 1, tiny first 1 + 2**-52
SPREAD = np.array([[-0.5], [-0.5], [0.5], [0.5], [10.0], [10.0 + 2**-26],
                   [20.0], [20.0 + 2**-26]])
CLUSTER = np.array([0, 0, 0, 0, 1, 1, 2, 2])


def test_ranking_skip_returns_what_the_full_ranking_would():
    """Equal labellings, or for k = 2 swapped ones, sum equal terms, so the
    first start wins without the ranking pass over the points (``None``
    here would fail it).  Permuted labellings of k = 3 sum their terms in
    another order and must still be ranked: the first one listed is not
    the one of least inertia."""
    pp = np.einsum("ij,ij->i", SPREAD, SPREAD)
    two = (CLUSTER > 0).astype(np.int64)
    for labelings in ([two], [two, two], [1 - two, two, 1 - two]):
        runs = [finished_starts(SPREAD, labelings, 2)]
        got = optimizer._best_start(None, pp, 2, runs)
        assert np.array_equal(got, full_ranking(SPREAD, labelings, 2))
        assert np.array_equal(got, labelings[0])
    permuted = [np.array([2, 0, 1])[CLUSTER], CLUSTER]
    runs = [finished_starts(SPREAD, permuted, 3)]
    got = optimizer._best_start(SPREAD, pp, 3, runs)
    assert np.array_equal(got, full_ranking(SPREAD, permuted, 3))
    assert np.array_equal(got, CLUSTER)


def test_ranking_on_a_transposed_view_ranks_as_on_a_copy():
    """The column ranking takes each cluster of the view X.T as
    ``points[mask]``, a C-ordered array, so the terms and the winner are
    those of a contiguous copy, in the permuted SPREAD case too (a zero
    second column adds nothing to a term)."""
    points = np.asfortranarray(np.hstack([SPREAD, np.zeros_like(SPREAD)]))
    assert not points.flags.c_contiguous
    pp = np.einsum("ij,ij->i", points, points)
    permuted = [np.array([2, 0, 1])[CLUSTER], CLUSTER]
    for view in (points, np.ascontiguousarray(points)):
        runs = [finished_starts(view, permuted, 3)]
        assert np.array_equal(optimizer._best_start(view, pp, 3, runs), CLUSTER)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((141, 40))
    # permutations of one labeling tie on the shortlist, so all are ranked
    base = rng.integers(3, size=40)
    labelings = [np.array(perm)[base] for perm in itertools.permutations(range(3))]
    pp = np.einsum("ij,ij->j", X, X)
    got = optimizer._best_start(X.T, pp, 3, [finished_starts(X.T, labelings, 3)])
    copy = np.ascontiguousarray(X.T)
    assert np.array_equal(got, optimizer._best_start(copy, pp, 3,
                                                     [finished_starts(copy, labelings, 3)]))


@pytest.mark.ci_profile
@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kmeans_on_integer_data_with_duplicates(K, d, seed):
    """Duplicate rows make exact distance ties, which may break either way
    against the oracle; the labels must still be valid and reproducible."""
    rng = np.random.default_rng(seed)
    base = rng.poisson(2.0, (6, d)).astype(float)
    X = bc.DataMatrix(base[rng.integers(0, 6, 24)])
    a = optimizer.kmeans_init(X, K, 2, seed=seed % 1000)
    b = optimizer.kmeans_init(X, K, 2, seed=seed % 1000)
    for labels, k, size in ((a.row_labels, K, 24), (a.col_labels, 2, d)):
        assert labels.shape == (size,) and labels.min() >= 0 and labels.max() < k
    assert np.array_equal(a.row_labels, b.row_labels)
    assert np.array_equal(a.col_labels, b.col_labels)


def test_lockstep_repairs_an_empty_cluster_per_start():
    """Start 1's third centre and start 3's last two are nearest to no
    point, so their first step must re-seed them, each at a different
    point; the other starts need no repair."""
    points = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    centers = np.array([[[0.0], [10.0], [12.0]],
                        [[0.0], [11.0], [1000.0]],
                        [[1.0], [2.0], [11.0]],
                        [[0.0], [1000.0], [2000.0]]])
    pp = np.einsum("ij,ij->i", points, points)
    labels, sums, counts = optimizer._lockstep(
        [optimizer._starts(points, pp, centers.copy(), 0, 50)], points)[0]
    for s in range(4):
        expected = _oracle_lloyd(points, centers[s], 50)
        assert np.array_equal(labels[s], expected)
        assert np.array_equal(counts[s], np.bincount(expected, minlength=3))
        assert np.array_equal(sums[s][:, 0],
                              np.bincount(expected, points[:, 0], minlength=3))
    # the repair moved point 2, the farthest from its centroid, to class 2
    assert labels[1][2] == 2 and np.bincount(labels[1]).min() >= 1
    assert np.bincount(labels[3], minlength=3).min() >= 1


def test_lockstep_repair_on_a_transposed_view():
    """The column k-means runs on the view X.T, not on a copy.  Start 0's
    third centre is nearest to no point of that view, so it is re-seeded;
    both starts match the one-start loop run on a contiguous copy."""
    X = np.array([[0.0, 1.0, 2.0, 10.0, 11.0, 12.0],
                  [0.5, 0.0, 1.0, 0.0, 2.0, 1.0]])
    points = X.T
    assert not points.flags.c_contiguous
    centers = np.array([[[0.0, 0.0], [11.0, 1.0], [1000.0, 0.0]],
                        [[1.0, 0.0], [2.0, 1.0], [11.0, 1.0]]])
    pp = np.einsum("ij,ij->i", points, points)
    labels, sums, counts = optimizer._lockstep(
        [optimizer._starts(points, pp, centers.copy(), 0, 50)], points)[0]
    for s in range(2):
        expected = _oracle_lloyd(np.ascontiguousarray(points), centers[s], 50)
        assert np.array_equal(labels[s], expected)
        assert np.array_equal(counts[s], np.bincount(expected, minlength=3))
        for axis in range(2):
            assert np.array_equal(sums[s][:, axis],
                                  np.bincount(expected, points[:, axis], minlength=3))
    assert np.bincount(labels[0], minlength=3).min() >= 1


def test_lockstep_repair_that_empties_a_class_repairs_it_too():
    """Every point sits on its centroid and point 0 is class 0's only
    member, so the repair of class 2 takes it; class 0 must then be
    repaired in turn, with the next point."""
    points = np.array([[0.0], [5.0], [5.0], [5.0]])
    centers = np.array([[[0.0], [5.0], [100.0]]])
    pp = np.einsum("ij,ij->i", points, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, sums, counts = optimizer._lockstep(
            [optimizer._starts(points, pp, centers, 0, 50)], points)[0]
    assert labels[0].tolist() == [2, 0, 1, 1]
    assert counts[0].tolist() == [1, 2, 1]


@pytest.mark.parametrize("values, K", [
    (np.ones((6, 5)), 3),
    (np.repeat([[0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0]], [5, 3], axis=0), 4),
], ids=["constant", "duplicate_rows"])
def test_kmeans_repair_takes_each_point_once(values, K):
    """When every point sits on its centroid, a repair must not take back
    the point an earlier repair gave to a class, which would leave that
    class empty with a 0/0 centroid."""
    X = bc.DataMatrix(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = optimizer.kmeans_init(X, K, 2, seed=0)
        b = optimizer.kmeans_init(X, K, 2, seed=0)
    assert np.bincount(a.row_labels, minlength=K).min() >= 1
    assert np.bincount(a.col_labels, minlength=2).min() >= 1
    assert np.array_equal(a.row_labels, b.row_labels)
    assert np.array_equal(a.col_labels, b.col_labels)


@pytest.mark.parametrize("points, k, seed", [
    ([[2, 2, 5, 2, 1], [5, 4, 3, 7, 3], [1, 3, 2, 1, 2], [3, 4, 5, 3, 1],
      [3, 1, 4, 2, 3], [3, 2, 5, 1, 1]], 4, 154),
    ([[-0.7], [0.4], [-0.2], [1.4], [-0.9], [-0.5], [1.6], [0.7], [-0.4],
      [-1.2], [0.2]], 5, 1826),
])
def test_kmeans_rounding_ties_ranked_as_one_start_at_a_time(points, k, seed):
    """Starts whose inertias differ only by rounding: the starts within the
    shortlist's tolerance of the best are ranked as the one-start-at-a-time
    loop ranks them, not by the cheaper inertia."""
    points = np.asarray(points, dtype=float)
    got, = optimizer._kmeans_labels([(points, k, np.random.default_rng(seed))], 50)
    expected = kmeans_oracle(points, k, np.random.default_rng(seed), 50)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("m, n, K", [(5, 4, 5), (7, 3, 7), (12, 7, 2), (40, 9, 3)])
def test_kmeans_k_equals_m_and_start_groups(m, n, K):
    """K = m (one start per group, every class a singleton) and sizes whose
    starts split into several groups; a row and a column group of several
    starts, run together, stack no more than min(m, n) rows per matmul, so
    no block outgrows X."""
    X = bc.DataMatrix(np.random.default_rng(m * n).standard_normal((m, n)))
    with spied_groups() as blocks:
        got = optimizer.kmeans_init(X, K, 2, seed=3)
    g, h = oracle_init(X, K, 2, 3, 50)
    assert np.array_equal(got.row_labels, g)
    assert np.array_equal(got.col_labels, h)
    if K == m:
        assert sorted(got.row_labels) == list(range(m))
    for side, groups in blocks:
        # the one-hot rows of both axes bound what a round stacks
        assert len(groups) == 2
        assert all(starts == 1 for starts, _ in groups) or \
            sum(starts * k for starts, k in groups) <= side
    assert sum(starts for _, groups in blocks for starts, _ in groups) == 20


# -- class-size floors ----------------------------------------------------

@pytest.mark.ci_profile
@given(st.integers(0, 4999), st.integers(1, 1000), st.integers(1, 4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_class_floor_and_label_draws(digits, size, k, weighted, seed):
    """``class_floor`` is the least c >= 1 with c >= frac * size, exactly,
    for a frac of up to four decimals, and every labeling ``draw_labels``
    returns meets the floor it was given."""
    frac = digits / 10**4
    floor = class_floor(frac, size)
    exact = Fraction(digits, 10**4) * size
    assert floor >= 1 and floor >= exact
    assert floor == 1 or floor - 1 < exact
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k)) if weighted else None
    try:
        labels = draw_labels(rng, k, size, floor, p=p, max_attempts=5)
    except RuntimeError:
        event("no draw met the floor")
        return
    assert labels.shape == (size,)
    assert np.bincount(labels, minlength=k).min() >= floor


# -- misclassification ----------------------------------------------------

@st.composite
def label_pairs(draw, max_k=6):
    k = draw(st.integers(1, max_k))
    size = draw(st.integers(k, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.permutation(np.arange(size) % k)
    estimate = rng.integers(0, k, size)
    return truth, estimate, k


@given(label_pairs())
def test_matching_equals_brute_force(pair):
    truth, estimate, k = pair
    agree = np.zeros((k, k), dtype=np.int64)
    np.add.at(agree, (estimate, truth), 1)
    best = max(sum(int(agree[i, p[i]]) for i in range(k))
               for p in itertools.permutations(range(k)))
    row_rate, _, _ = evaluation.misclassification(
        bc.LabelAssignment(truth, truth, k, k),
        bc.LabelAssignment(estimate, estimate, k, k),
    )
    assert row_rate == 1.0 - best / truth.size


@given(label_pairs(max_k=10), st.integers(0, 2**32 - 1))
def test_misclassification_label_permutation_invariant(pair, seed):
    """Renaming the classes of either labeling, and reordering the items of
    both alike, leaves every rate unchanged."""
    truth, estimate, k = pair
    rng = np.random.default_rng(seed)
    t = bc.LabelAssignment(truth, truth, k, k)
    e = bc.LabelAssignment(estimate, estimate, k, k)
    order = rng.permutation(truth.size)
    pt, pe = rng.permutation(k), rng.permutation(k)
    renamed = bc.LabelAssignment(pe[estimate], pe[estimate], k, k)
    reordered = bc.LabelAssignment(pt[truth][order], pt[truth][order], k, k)
    shuffled = bc.LabelAssignment(estimate[order], estimate[order], k, k)
    rates = bc.misclassification(t, e)
    assert bc.misclassification(t, renamed) == rates
    assert bc.misclassification(reordered, shuffled) == rates


# -- simulation records for any worker count ------------------------------

@st.composite
def small_plans(draw):
    """A plan of one cell, n <= 60, run for 1-3 replicates by a non-empty
    set of the methods its design admits."""
    design = draw(st.sampled_from(bc.model.DESIGNS))
    methods = [m for m in simharness.METHODS if design in simharness._METHODS[m][1]]
    try:
        return simharness.SimPlan(
            design=design, n_values=[draw(st.integers(3, 60))],
            gamma_values=[draw(st.floats(0.5, 2.0))], b_values=[draw(st.floats(0.5, 20.0))],
            replicates=draw(st.integers(1, 3)),
            methods=draw(st.lists(st.sampled_from(methods), min_size=1, unique=True)),
            seed=draw(st.integers(0, 2**32 - 1)))
    except ValueError:  # a cell the design cannot make (means above 1, m < K)
        assume(False)


@settings(max_examples=20)  # each example starts a process pool
@given(small_plans())
def test_records_are_the_same_for_any_worker_count(plan):
    """``run_plan`` gives the same records, field for field and F to the
    last bit (a float's repr round-trips), with BLOCKCLUSTER_WORKERS unset
    and set to 2; only ``wall_time_ms`` may differ."""
    def records():
        return [{k: repr(v) for k, v in vars(rec).items() if k != "wall_time_ms"}
                for rec in simharness.run_plan(plan)]

    with mock.patch.dict(os.environ):
        os.environ.pop(simharness.WORKERS_ENV, None)
        serial = records()
        os.environ[simharness.WORKERS_ENV] = "2"
        assert records() == serial


# -- library entry points on malformed arguments --------------------------

#: a 6 x 4 matrix, the valid argument that every call below keeps but one
SMALL_X = bc.DataMatrix(np.arange(24.0).reshape(6, 4) % 5)
GAUSS = rate_function("gaussian")

#: not an int: any float (integral, non-finite), bool, NumPy float or None
NOT_INTS = st.one_of(st.floats(), st.booleans(), st.just(np.float64(2.0)), st.none())


def ints_below(low):
    """Malformed values for an integer argument whose least value is low."""
    return st.one_of(NOT_INTS, st.integers(max_value=low - 1),
                     st.integers(-2**63, low - 1).map(np.int64))


COUNTS, SEEDS = ints_below(1), ints_below(0)


def above(size):
    """Class counts past the ``size`` items they label."""
    return st.integers(size + 1, size + 2**70)


def fit_config(**args):
    return bc.FitConfig(**{"K": 2, "L": 2, "rate": "gaussian", "max_sweeps": 2,
                           "kmeans_iters": 2, **args})


def spec(**args):
    return bc.BlockModelSpec(**{"K": 2, "L": 2, "p": [0.5, 0.5], "q": [0.5, 0.5],
                                "M": np.eye(2), "rho": 1.0, "family": "gaussian",
                                "sigma": 1.0, **args})


def plan(**args):
    return simharness.SimPlan(**{"design": "gaussian", "n_values": [6],
                                 "gamma_values": [1.0], "b_values": [5.0],
                                 "replicates": 1, "methods": ["KM"], "seed": 0, **args})


NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]))
#: not a finite real number: non-finite, None, text, a bool, an int past floats
NOT_REALS = [math.nan, math.inf, None, "5", True, 10**400]
BAD_FRACS = st.one_of(st.floats(max_value=-1e-300), st.just(math.nan), st.just(math.inf))


def spoiled(values):
    """Copies of the array ``values`` with one entry NaN, inf or -inf, or
    as nested lists with one entry text or an int past floats."""
    values = np.asarray(values, dtype=np.float64)

    def spoil(at_value):
        out = values.astype(object if isinstance(at_value[1], (str, int)) else float)
        out.flat[at_value[0]] = at_value[1]
        return out.tolist() if out.dtype == object else out
    return st.tuples(st.integers(0, values.size - 1),
                     st.sampled_from([math.nan, math.inf, -math.inf, "x", 10**400])).map(spoil)


def not_int_labels(size):
    """Label vectors of floats or bools."""
    return st.one_of(st.lists(st.floats(0, 1), min_size=size, max_size=size),
                     st.lists(st.booleans(), min_size=size, max_size=size))


#: entry point -> (call with one keyword argument, strategy of malformed
#: values of each argument)
ENTRY_POINTS = {
    "FitConfig": (fit_config, {
        "K": COUNTS, "L": COUNTS, "restarts": COUNTS, "max_sweeps": COUNTS,
        "kmeans_iters": COUNTS, "seed": SEEDS, "rate": st.just("bogus"),
        "min_frac": st.one_of(BAD_FRACS, st.floats(0.5, allow_nan=False),
                              st.sampled_from(NOT_REALS))}),
    "fit": (lambda **a: bc.fit(SMALL_X, fit_config(**a)), {
        "K": st.one_of(COUNTS, above(SMALL_X.m)), "L": st.one_of(COUNTS, above(SMALL_X.n)),
        "seed": SEEDS}),
    "kmeans_init": (lambda **a: bc.kmeans_init(**{"X": SMALL_X, "K": 2, "L": 2, "seed": 0,
                                                  "iters": 2, **a}), {
        "K": st.one_of(COUNTS, above(SMALL_X.m)), "L": st.one_of(COUNTS, above(SMALL_X.n)),
        "seed": SEEDS, "iters": COUNTS}),
    "generate": (lambda **a: bc.generate(**{"spec": spec(), "m": 6, "n": 4, "seed": 0,
                                            **a}), {
        # spec() has K = L = 2 classes, so one row or column is too few
        "m": st.one_of(COUNTS, st.just(1)), "n": st.one_of(COUNTS, st.just(1)),
        "seed": SEEDS}),
    # a class of probability 0 never draws an item
    "generate(spec)": (lambda **a: bc.generate(spec(**a), 6, 4, 0), {
        "p": st.sampled_from([[1.0, 0.0], [0.0, 1.0]]),
        "q": st.sampled_from([[1.0, 0.0], [0.0, 1.0]])}),
    "design_spec": (lambda **a: bc.design_spec(**{"design": "poisson", "b": 5.0, "n": 9,
                                                  **a}), {
        "n": st.one_of(COUNTS, above(2**53), st.just(10**400)),
        "b": st.sampled_from(NOT_REALS + [-math.inf])}),
    "BlockModelSpec": (spec, {
        "K": COUNTS, "L": COUNTS,
        "rho": st.one_of(NOT_POSITIVE, st.sampled_from(NOT_REALS)),
        "sigma": st.one_of(NOT_POSITIVE, st.sampled_from(NOT_REALS)),
        "p": spoiled([0.5, 0.5]), "q": spoiled([0.5, 0.5]), "M": spoiled(np.eye(2))}),
    "BlockModelSpec(bernoulli)": (lambda **a: spec(**{"family": "bernoulli", **a}), {
        "M": st.tuples(st.integers(0, 3),
                       st.one_of(st.floats(max_value=-5e-324),
                                 st.floats(min_value=1.0, exclude_min=True,
                                           allow_infinity=False)))
        .map(lambda at: np.where(np.arange(4).reshape(2, 2) == at[0], at[1], np.eye(2)))}),
    "BlockModelSpec(student_t)": (lambda **a: spec(**{"family": "student_t", "nu": 4.0,
                                                      **a}), {
        "nu": st.one_of(NOT_POSITIVE, st.sampled_from(NOT_REALS))}),
    "LabelAssignment": (lambda **a: bc.LabelAssignment(**{
        "row_labels": np.arange(6) % 2, "col_labels": np.arange(4) % 2, "K": 2, "L": 2,
        **a}), {
        "K": st.one_of(COUNTS, above(6)), "L": st.one_of(COUNTS, above(4)),
        "row_labels": not_int_labels(6), "col_labels": not_int_labels(4)}),
    "SimPlan": (plan, {
        "replicates": COUNTS, "max_sweeps": COUNTS, "kmeans_iters": COUNTS,
        "seed": SEEDS, "n_values": st.lists(COUNTS, min_size=1, max_size=2),
        "gamma_values": st.lists(st.sampled_from(NOT_REALS), min_size=1, max_size=2),
        "b_values": st.lists(st.sampled_from(NOT_REALS), min_size=1, max_size=2)}),
    "TailBoundInput": (lambda **a: bc.TailBoundInput(**{
        "m": 30, "n": 30, "K": 2, "L": 2, "epsilon": 0.45, "delta": 0.01, "tau": 4e4,
        "sigma": 1.0, "c_lip": 100.0, "T_n": 196, **a}), {
        **{name: st.one_of(COUNTS, above(2**53)) for name in ("m", "n", "K", "L", "T_n")},
        **{name: st.one_of(NOT_POSITIVE, st.sampled_from(NOT_REALS))
           for name in ("epsilon", "delta", "tau", "sigma", "c_lip")}}),
    "DataMatrix": (bc.DataMatrix, {"values": spoiled(np.ones((3, 2)))}),
    "ConfusionPair": (lambda **a: bc.ConfusionPair(**{"C": np.eye(2) / 2, "D": np.eye(2) / 2,
                                                      **a}), {
        "C": st.one_of(spoiled(np.eye(2) / 2), st.just([[-3, 0], [-2, 0], [1, 0]])),
        "D": spoiled(np.eye(2) / 2)}),
    "population_criterion": (lambda **a: bc.population_criterion(**{
        "C": np.eye(2) / 2, "D": np.eye(2) / 2, "M0": np.eye(2), "f": GAUSS, **a}), {
        "C": spoiled(np.eye(2) / 2), "D": spoiled(np.eye(2) / 2), "M0": spoiled(np.eye(2))}),
    "population_gap_check": (lambda **a: bc.population_gap_check(**{
        "M0": np.eye(2), "f": GAUSS, "p": [0.5, 0.5], "q": [0.5, 0.5], "trials": 2,
        "seed": 0, **a}), {
        "M0": spoiled(np.eye(2)), "p": st.one_of(spoiled([0.5, 0.5]), st.just([1.0])),
        "q": st.one_of(spoiled([0.5, 0.5]), st.just([0.2, 0.3, 0.5]))}),
}


@st.composite
def malformed_calls(draw):
    """(entry point, argument, value): one entry point called with one
    malformed argument and valid others."""
    entry = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    name = draw(st.sampled_from(sorted(ENTRY_POINTS[entry][1])))
    return entry, name, draw(ENTRY_POINTS[entry][1][name])


@pytest.mark.ci_profile
@given(malformed_calls())
@example(("TailBoundInput", "epsilon", "0.3"))
@example(("TailBoundInput", "delta", None))
@example(("TailBoundInput", "tau", "1"))
@example(("TailBoundInput", "tau", 10**400))
@example(("TailBoundInput", "sigma", None))
@example(("TailBoundInput", "c_lip", True))
@example(("population_criterion", "C", np.array([[math.nan, 0.0], [0.0, 0.5]])))
@example(("population_gap_check", "p", [math.nan, 0.5]))
@example(("population_gap_check", "M0", np.array([[math.nan, 0.0], [0.0, 1.0]])))
@example(("population_gap_check", "q", [0.2, 0.3, 0.5]))
@example(("BlockModelSpec", "p", ["x", 1.0]))
@example(("BlockModelSpec", "p", [10**400, 0.0]))
@example(("population_criterion", "M0", [["x", 1], [0, 1]]))
@example(("DataMatrix", "values", [["x", 1.0]]))
@example(("DataMatrix", "values", [[10**400, 0.0]]))
@example(("DataMatrix", "values", np.array([[1.0, math.nan]])))
@example(("ConfusionPair", "C", [[-3, 0], [-2, 0], [1, 0]]))
@example(("generate", "m", 1))
@example(("generate", "n", 1))
@example(("generate(spec)", "q", [0.0, 1.0]))
@example(("BlockModelSpec(bernoulli)", "M", [[1.0, 1.5], [0.0, 1.0]]))
def test_entry_points_reject_malformed_arguments(call):
    """Each raises ValueError (DomainError and PartitionError are ones)
    whose message names the argument: no TypeError or ZeroDivisionError
    from inside NumPy or Python, no SeedSequence message, no warning."""
    entry, name, value = call
    event(f"{entry}.{name}")
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(ValueError) as info:
        warnings.simplefilter("always")
        ENTRY_POINTS[entry][0](**{name: value})
    message = str(info.value)
    assert re.search(rf"(^|\W){name}\W", message), message
    assert "non-negative integer" not in message
    assert not caught, [str(w.message) for w in caught]


# -- the CLI on malformed inputs ------------------------------------------

#: CSV cells: numbers, non-finite and overflowing values, text
CSV_CELLS = ["0", "1", "-2.5", "3e2", "nan", "inf", "-inf", "1e308", "1e400",
             "", "x"]
#: count cells: signed, padded, zero-led, past 2**53, a negative zero and 2**64
COUNT_CELLS = ["0", "7", "+3", " 12", "007", "-0", "9007199254740993",
               "18446744073709551616"]
#: label-file lines: labels, a negative, a float, text
LABEL_LINES = ["0", "1", "2", "-1", "0.5", "1e3", "x"]
HUGE = "9" * 401
#: per plan key (per ``bound`` flag): a value that runs first, then values
#: no cell can run, values that do not parse, and None to leave it out;
#: sizes stay tiny or far past anything that could be allocated
PLAN_VALUES = {
    "design": ["poisson", "gaussian", "bernoulli", "student_t", "cauchy", None],
    "n_values": ["6", "6, 0", "1", "-3", "x", "", HUGE, None],
    "gamma_values": ["1", "0", "1e-9", "-1", "nan", "inf", "1e300"],
    "b_values": ["5", "0", "-5", "nan", "inf", "1e6"],
    "replicates": ["1", "0", "1.5", None],
    "methods": ["KM, PL-Gaus", "PL-Pois", "PL-Bern", "bogus", ""],
    "seed": ["1", "-1", "x"],
    "max_sweeps": ["2", "0"],
    "kmeans_iters": ["2", "0", "x"],
}
BOUND_VALUES = {
    "--m": ["30", "0", HUGE, None], "--n": ["30", "-1", HUGE],
    "--K": ["2", "1", HUGE], "--L": ["2", "0", HUGE],
    "--epsilon": ["0.45", "0", "1e-300", "nan"],
    "--delta": ["0.01", "1e-300", "1.5", "nan", None],
    "--tau": ["4e4", "1e-300", "1e300", "inf", "-1"],
    "--sigma": ["1", "1e-300", "1e300", "nan"],
    "--c-lip": ["100", "1e-300", "1e300", "inf"],
    "--T-n": ["196", "0", HUGE, None],
}


def mostly(draw, values):
    """values[0] three times in four, else any of ``values``."""
    return values[0] if draw(st.integers(0, 3)) else draw(st.sampled_from(values))


def undecodable(draw, text):
    """``text``, or one time in eight its bytes after two that no UTF-8
    text starts with."""
    return text if draw(st.integers(0, 7)) else b"\xff\xfe" + text.encode()


@st.composite
def csv_texts(draw, numbers=tuple(CSV_CELLS[:4]), cells=tuple(CSV_CELLS)):
    """Rows of ``numbers``, or ragged rows of any ``cells``, with trailing
    commas, a header, blank lines, or no rows at all."""
    width = draw(st.integers(1, 4))
    row = (st.lists(st.sampled_from(numbers), min_size=width, max_size=width)
           if draw(st.integers(0, 3))
           else st.lists(st.sampled_from(cells), min_size=1, max_size=4))
    end = mostly(draw, ["", ","])
    lines = [",".join(r) + end for r in draw(st.lists(row, max_size=6))]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"c{j}" for j in range(width)))
    lines += [""] * draw(st.integers(0, 2))
    return "\n".join(lines) + ("\n" if lines else "")


def csv_read(path):
    """('values', shape, bytes) of ``read_matrix_csv(path)``, or ('error',
    type, message) of the ValueError it raises."""
    try:
        values = matrixio.read_matrix_csv(path).values
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "values", values.shape, values.tobytes()


@pytest.mark.ci_profile
@given(csv_texts(tuple(COUNT_CELLS), tuple(COUNT_CELLS + CSV_CELLS)))
def test_csv_read_equals_the_float_parse(tmp_path_factory, float_parse_only, text):
    """Count files take the integer parse, any other the float parse; both
    give the float parse's values, bit for bit, or its error."""
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text(text)
    got = csv_read(path)
    with float_parse_only():
        expected = csv_read(path)
    event(got[0])
    assert got == expected


@st.composite
def bmat_files(draw):
    """BMAT files with a wrong magic, a header that lies about the size,
    non-finite or huge values, or cut anywhere."""
    magic = mostly(draw, [matrixio.MAGIC, b"BMAX"])
    m, n = (mostly(draw, [2, 0, 1, 3, 2**40, 2**64 - 1]) for _ in "mn")
    values = (np.arange(9.0) % 4 if draw(st.integers(0, 3)) else
              draw(st.lists(st.sampled_from([0.0, 1.0, -3.5, 1e200, np.nan, np.inf]),
                            max_size=9)))
    data = matrixio._HEADER.pack(magic, m, n) + np.array(values, dtype="<f8").tobytes()
    return data if draw(st.integers(0, 3)) else data[:draw(st.integers(0, len(data)))]


def flags_and_keys(draw, table):
    """(key, value) pairs, each value ``mostly`` the one that runs."""
    pairs = [(key, mostly(draw, values)) for key, values in table.items()]
    return [(key, value) for key, value in pairs if value is not None]


@st.composite
def cli_runs(draw):
    """(kind, files, argv): one ``blockcluster`` run on malformed input.
    ``files`` maps names to contents; argv refers to them as ``{d}/name``."""
    kind = draw(st.sampled_from(["csv", "bmat", "labels", "plan", "bound"]))
    out = ["--output", "{d}/out"]
    if kind in ("csv", "bmat"):
        content = (undecodable(draw, draw(csv_texts())) if kind == "csv"
                   else draw(bmat_files()))
        fmt = mostly(draw, ["csv", "binary"] if kind == "csv" else ["binary", "csv"])
        k, l = (mostly(draw, ["2", "1", "3", "0", "9" * 30]) for _ in "KL")
        argv = ["fit", "--input", "{d}/X", *out, "--K", k, "--L", l, "--format", fmt,
                "--rate", mostly(draw, ["gaussian", "poisson", "bernoulli"]),
                "--min-frac", mostly(draw, ["0", "0.3"])]
        return kind, {"X": content}, argv
    if kind == "labels":
        size = draw(st.integers(2, 5))
        valid = st.lists(st.sampled_from(LABEL_LINES[:2]), min_size=size, max_size=size)
        lines = st.lists(st.sampled_from(LABEL_LINES), max_size=5)
        files = {name: "\n".join(draw(valid if draw(st.integers(0, 3)) else lines))
                 for name in ("tr", "tc", "er", "ec")}
        return kind, files, ["evaluate", "--truth-rows", "{d}/tr", "--truth-cols", "{d}/tc",
                             "--est-rows", "{d}/er", "--est-cols", "{d}/ec"]
    if kind == "plan":
        lines = [f"{key} = {value}" for key, value in flags_and_keys(draw, PLAN_VALUES)]
        lines += draw(st.lists(st.sampled_from(["bogus = 1", "design poisson"]),
                               max_size=1))
        plan = undecodable(draw, "\n".join(lines) + "\n")
        return kind, {"plan": plan}, ["simulate", "--plan", "{d}/plan", *out]
    argv = ["bound"]
    for flag, value in flags_and_keys(draw, BOUND_VALUES):
        argv += [flag, value]
    return kind, {}, argv


@pytest.mark.ci_profile
@given(cli_runs())
def test_cli_survives_malformed_inputs(tmp_path_factory, run):
    """Every run exits 0, 2, 3 or 4, with no exception, traceback or
    warning."""
    kind, files, argv = run
    d = tmp_path_factory.mktemp("cli")
    for name, content in files.items():
        if isinstance(content, bytes):
            (d / name).write_bytes(content)
        else:
            (d / name).write_text(content)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([arg.format(d=d) for arg in argv])
    event(f"{kind}: exit {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
