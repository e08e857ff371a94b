"""Property tests of the sweep engine, the lockstep k-means, the
misclassification matching and the matrix file formats.

Sizes stay small so the whole module runs in a few seconds.  The number of
examples comes from the hypothesis profile (``tests/conftest.py``); both
profiles are derandomized, so every run checks the same cases.
"""

import itertools
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import blockcluster as bc  # noqa: E402
from blockcluster import evaluation, matrixio, optimizer  # noqa: E402
from blockcluster.model import derived_rng  # noqa: E402
from blockcluster.criterion import (  # noqa: E402
    block_stats,
    cell_terms,
    criterion_value,
    move_delta,
    rate_function,
)

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


@given(problems())
def test_sweep_never_lowers_criterion(problem):
    X, labels, f, min_frac = problem
    new, gain = optimizer.kl_sweep(X, labels, f, min_frac)
    assert gain >= 0.0
    assert F(X, new, f) >= F(X, labels, f)
    floor = optimizer._min_count
    assert new.row_counts().min() >= floor(min_frac, X.m)
    assert new.col_counts().min() >= floor(min_frac, X.n)


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

    sides, f0_sweep = optimizer._sides(X, labels, f, min_frac)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_replay", replay_spy)
        new, new_sides, f1, kept = optimizer._sweep(X, labels, sides, f0_sweep,
                                                     f, min_frac)

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


# -- the sweep's replay against the one-move-at-a-time apply loop ---------

def sequential_sweep(X, labels, f, min_frac):
    """The sweep as a loop that applies one move at a time to a running
    state, updating the opposite side's lines and the cached cell terms of
    the two class lines each move touches (the reference the replay must
    reproduce bit for bit).  Returns the applied moves (axis, item, from,
    to), their deltas, the running criterion, the kept prefix, the labels
    kept and the number of moves skipped as illegal."""
    sides, f0 = optimizer._sides(X, labels, f, min_frac)
    moves = []
    for axis, side in enumerate(sides):
        target, delta = side.best_moves()
        moves += [(delta[i], axis, i, target[i])
                  for i in np.flatnonzero(target != side.labels)]
    moves.sort(key=lambda t: (-t[0], t[1], t[2]))

    rows, cols = sides
    R, C, S = rows.lines.copy(), cols.lines.T.copy(), rows.S.copy()
    rcnt, ccnt, cells = rows.counts.copy(), cols.counts.copy(), rows.cells.copy()
    g, h = labels.row_labels.copy(), labels.col_labels.copy()
    state = [(X.values, g, R, C, S, rcnt, ccnt, cells, rows.min_count),
             (X.values.T, h, C.T, R.T, S.T, ccnt, rcnt, cells.T, cols.min_count)]
    applied, deltas, skipped = [], [], 0
    for _, axis, i, k in moves:
        data, lab, lines, cross, S_, counts, other, cached, floor = state[axis]
        a = lab[i]
        if counts[a] <= floor:
            skipped += 1
            continue
        line = lines[i]
        after = cell_terms(np.stack([S_[a] - line, S_[k] + line]),
                           np.array([counts[a] - 1, counts[k] + 1]), other, f)
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
    floor (two classes) and single-class axes, whose sweeps move items of
    the other axis only, or none."""
    kind = draw(st.sampled_from(["gaussian", "poisson", "bernoulli"]))
    m, n = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    min_frac = draw(st.sampled_from([0.0, 0.1, 0.3]))
    sizes = st.sampled_from([1, 2] if min_frac == 0.3 else [1, 2, 3, 4])
    K, L = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        values = rng.standard_normal((m, n)) * draw(st.sampled_from([1.0, 100.0]))
    elif kind == "poisson":
        values = rng.poisson(3.0, (m, n)).astype(float)
    else:
        values = (rng.random((m, n)) < 0.4).astype(float)
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

    sides, f0 = optimizer._sides(X, labels, f, min_frac)
    before = [(side.lines.copy(), side.S.copy(), side.counts.copy(),
               side.cells.copy()) for side in sides]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_replay", replay_spy)
        new, _, f1, got_kept = optimizer._sweep(X, labels, sides, f0, f, min_frac)
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


@given(replay_problems(), st.sampled_from([2, 3, 5, optimizer.REPLAY_BLOCK]))
def test_replay_matches_sequential_apply(problem, block):
    """Per-move deltas, running criterion, kept prefix and labels of the
    replay equal those of the one-move-at-a-time loop, bit for bit, also
    with blocks so small that every block carries partial sums on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "REPLAY_BLOCK", block)
        applied, skipped = check_replay_matches_sequential(*problem)
    axes = {axis for axis, *_ in applied}
    event(f"axes moved: {sorted(axes)}")
    event("a move skipped as illegal" if skipped else "no move skipped")


@pytest.mark.parametrize("seed", range(6))
def test_replay_skips_illegal_moves_as_the_loop_does(seed):
    """Under a 45% class-size floor a class of 10 in 20 may lose one item,
    so a second move out of it turns illegal; the replay must skip exactly
    the moves the loop skips."""
    rng = np.random.default_rng(seed)
    X = bc.DataMatrix(rng.standard_normal((20, 20)))
    labels = bc.LabelAssignment(np.arange(20) % 2, np.arange(20) % 2, 2, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "REPLAY_BLOCK", 2)
        _, skipped = check_replay_matches_sequential(
            X, labels, rate_function("gaussian"), 0.45)
    assert skipped > 0


matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@given(matrices, st.booleans())
def test_csv_roundtrip(tmp_path_factory, values, header):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    matrixio.write_matrix_csv(bc.DataMatrix(values), path, header=header)
    assert np.array_equal(matrixio.read_matrix_csv(path).values, values)


@given(matrices)
def test_binary_roundtrip(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("bmat") / "m.bin"
    matrixio.write_matrix_binary(bc.DataMatrix(values), path)
    back = matrixio.read_matrix_binary(path).values
    assert back.tobytes() == values.tobytes()


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
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
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
    labels, sums, counts = optimizer._lloyd(points, pp, centers.copy(), 50)
    for s in range(4):
        expected = _oracle_lloyd(points, centers[s], 50)
        assert np.array_equal(labels[s], expected)
        assert np.array_equal(counts[s], np.bincount(expected, minlength=3))
        assert np.array_equal(sums[s][:, 0],
                              np.bincount(expected, points[:, 0], minlength=3))
    # the repair moved point 2, the farthest from its centroid, to class 2
    assert labels[1][2] == 2 and np.bincount(labels[1]).min() >= 1
    assert np.bincount(labels[3], minlength=3).min() >= 1


def test_lockstep_repair_that_empties_a_class_repairs_it_too():
    """Every point sits on its centroid and point 0 is class 0's only
    member, so the repair of class 2 takes it; class 0 must then be
    repaired in turn, with the next point."""
    points = np.array([[0.0], [5.0], [5.0], [5.0]])
    centers = np.array([[[0.0], [5.0], [100.0]]])
    pp = np.einsum("ij,ij->i", points, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, sums, counts = optimizer._lloyd(points, pp, centers, 50)
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
    got = optimizer._kmeans_labels(points, k, np.random.default_rng(seed), 50)
    expected = kmeans_oracle(points, k, np.random.default_rng(seed), 50)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("m, n, K", [(5, 4, 5), (7, 3, 7), (12, 7, 2), (40, 9, 3)])
def test_kmeans_k_equals_m_and_start_groups(m, n, K):
    """K = m (one start per group, every class a singleton) and sizes whose
    starts split into several groups; a group of several starts keeps its
    distance block within the size of the points."""
    X = bc.DataMatrix(np.random.default_rng(m * n).standard_normal((m, n)))
    blocks = []
    real = optimizer._lloyd

    def spy(points, pp, centers, iters):
        blocks.append((min(points.shape), centers.shape[0], centers.shape[1]))
        return real(points, pp, centers, iters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_lloyd", spy)
        got = optimizer.kmeans_init(X, K, 2, seed=3)
    g, h = oracle_init(X, K, 2, 3, 50)
    assert np.array_equal(got.row_labels, g)
    assert np.array_equal(got.col_labels, h)
    if K == m:
        assert sorted(got.row_labels) == list(range(m))
    for side, starts, k in blocks:
        assert starts == 1 or starts * k <= side
    assert sum(starts for _, starts, _ in blocks) == 20


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
