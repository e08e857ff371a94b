"""Criterion maximization: k-means initialization plus greedy label sweeps.

A sweep follows the Kernighan-Lin discipline, in four steps:

1. score: for every row and column, the best single-label move against the
   frozen current labeling, through ``criterion.cell_terms`` on class-major
   stacks whose innermost axis runs over the items, so that each sum and
   maximum over classes is a few whole-vector operations; only the items
   whose best move leaves their class go on (``_Side.best_moves``);
2. legal walk: one walk over those moves in decreasing order of their
   step-1 score, with plain int class counts, skips any move that would
   now shrink a class below the minimum size (``_legal``);
3. replay: the criterion change of each applied move, from array
   operations, not a loop over moves (``_replay``), through
   ``criterion.line_move``, which ``move_delta`` calls with one move;
4. rebuild: the prefix of applied moves with the highest running criterion
   (possibly the empty prefix) is kept, and the state rebuilt from it.

Each item moves at most once per sweep, so a sweep never decreases the
criterion.  Moves and convergence compare exactly, with no tolerance to
scale with F: an item moves only when its scored delta is > 0, and a
restart stops after a sweep that does not raise F.  One engine serves both
axes: a column move is a row move on the transpose, so the column side of
the state holds transposed views of the row side's data, S and cell
terms, and lines of its own.  Every float
addition of the replay happens in the same order as when the items are
moved one at a time, so the deltas and labels are those of a sequential
loop, bit for bit.

The state is read, never written, during a sweep.  It is rebuilt once per
restart and once for each sweep that keeps moves, from the kept labeling:
the row and column lines from ``criterion.line_blocks``,
``criterion.block_stats`` for S, and ``criterion.criterion_value`` for that
labeling's exact F, which cancels any drift of the running sum, so ``fit``
computes F nowhere else.  Each side's lines are the sum, in block order, of
fixed blocks of ``criterion.line_width`` opposite items, each block one
2-D matmul against its items' one-hot labels.  A rebuild after a sweep
computes again only the blocks that hold a moved opposite item, by the
same call, and shares the others; the same call on the same inputs repeats
exactly, so the state is the one a rebuild from scratch computes, bit for
bit, and a side whose opposite axis did not move keeps its lines.
``fit`` checks the rate domain and computes the class-size floors once, on
entry, and makes every restart's start and checks it against the floors
before the first sweep (``_restart_starts``); the legal walk keeps every
kept labeling at the floors, so a rebuild checks nothing.  For the
Gaussian rate, data whose mean lies more than 16 standard deviations from
0 are fitted centred (``_centred``), and F is reported for X itself.

The initialization is k-means++ (Arthur & Vassilvitskii 2007), best of ten
Lloyd runs, on the rows and on the columns (a transposed view of the data,
not a copy).  A BLAS matmul against X costs about as much for one row as
for twenty, so each pass over X serves as many starts as it can:

1. seeding in lockstep: the starts' draws are taken first, in the order a
   one-start-at-a-time loop takes them, then one matmul places centre j of
   every start (``_kmeanspp``);
2. a start stops on the step its labels repeat (``_starts``);
3. the two axes share each pass: a Lloyd step is a label pass, the matmul
   of each moving start's k - 1 centre differences against the points, and
   a centroid pass, that of its one-hot labels; with the columns half a
   step behind the rows, each round is one matmul per orientation of X,
   in groups whose blocks are no larger than X (``_lockstep``);
4. the exact ranking of the best starts runs only when their labellings
   differ, for k = 2 by more than a swap of the labels (``_best_start``).

A point's label compares its squared distance to each centre less that to
the first, which rounds otherwise than the full squared distances, so the
labels are those of the one-start-at-a-time loop except where a point's
distances to two centres agree to within rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .criterion import (
    RateFunction,
    block_stats,
    cell_terms,
    check_shape,
    criterion_value,
    line_blocks,
    line_move,
)
from .errors import PartitionError
from .model import (
    DataMatrix, LabelAssignment, check_int, check_real, class_floors, derived_rng,
    derived_seed,
)

log = logging.getLogger(__name__)

#: k-means++ starts per k-means initialization; the best one is kept
KMEANS_STARTS = 10


@dataclass(frozen=True)
class FitConfig:
    K: int
    L: int
    rate: str
    restarts: int = 1
    max_sweeps: int = 100
    min_frac: float = 0.0
    kmeans_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        for key in ("K", "L", "restarts", "max_sweeps", "kmeans_iters", "seed"):
            check_int(getattr(self, key), key, 0 if key == "seed" else 1)
        if not 0.0 <= check_real(self.min_frac, "min_frac") < 0.5:
            raise ValueError("min_frac must lie in [0, 0.5)")
        RateFunction(self.rate)


@dataclass
class FitResult:
    """The best restart's fit; ``sweep_trajectory`` holds the exact F of
    each sweep's labels, so its last entry is ``criterion``."""

    labels: LabelAssignment
    criterion: float
    sweep_trajectory: list[float] = field(default_factory=list)
    restart_index: int = 0
    converged: bool = False
    moves_applied: int = 0


def _seed_draws(rng: np.random.Generator, n: int, k: int):
    """(first, u): each start's first point of n and k - 1 uniforms for its
    other centres, drawn in the order a one-start-at-a-time loop of
    ``KMEANS_STARTS`` k-means++ seedings draws them."""
    first, u = zip(*[(rng.integers(n), rng.random(k - 1)) for _ in range(KMEANS_STARTS)])
    return np.array(first), np.stack(u)


def _kmeanspp(points: np.ndarray, pp: np.ndarray, first: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) of len(first) starts
    at once: each centre after the first is a point drawn with probability
    proportional to its squared distance to the nearest centre so far.
    Start s begins at point first[s]; its j-th centre is the point whose
    index is the count of entries of the normalised cumsum of those
    probabilities at most u[s, j - 1], which is what ``rng.choice(n, p=p)``
    does with the one uniform it consumes; a start whose points all sit on
    its centres draws with equal probabilities.  ``pp`` holds the squared
    norms of the points.  Returns the centres (starts, k, d)."""
    n = points.shape[0]
    s, k = u.shape[0], u.shape[1] + 1
    centers = np.empty((s, k, points.shape[1]))
    centers[:, 0] = points[first]
    closest = np.full((s, n), np.inf)
    for j in range(1, k):
        c = centers[:, j - 1]
        dist = c @ points.T  # one matmul places centre j of every start
        dist *= -2.0
        dist += pp
        dist += np.einsum("ij,ij->i", c, c)[:, None]
        np.maximum(dist, 0.0, out=dist)
        np.minimum(closest, dist, out=closest)
        total = closest.sum(axis=1, keepdims=True)
        p = np.divide(closest, total, out=np.full_like(closest, 1.0 / n), where=total > 0)
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        centers[:, j] = points[(cdf <= u[:, j - 1, None]).sum(axis=1)]
    return centers


def _starts(points: np.ndarray, pp: np.ndarray, centers: np.ndarray, flip: int,
            iters: int):
    """Lloyd's algorithm from each of the (starts, k, d) ``centers`` of one
    axis, as a coroutine that ``_lockstep`` runs with the other axis's.

    Each pass over the points yields (orientation, operand) and is sent
    operand @ (X.T, X)[orientation]; the points are X, or X.T when ``flip``
    is 1.  The label pass sends the moving starts' centre differences: a
    point takes the first j that minimises e_j = (||c_j||^2 - ||c_0||^2) -
    2 x.(c_j - c_0), its squared distance to c_j less that to c_0, with e_0
    = 0.  The centroid pass sends their one-hot labels.  Only a start that
    must re-seed an empty class computes its clamped squared distances
    ``||x||^2 - 2 x.c + ||c||^2``.  A start drops out once its labels repeat
    (its sums and sizes are then those of the step before) or its centroids
    stop changing.  Returns the final labels (starts, n) with their cluster
    sums (starts, k, d) and sizes (starts, k).
    """
    s, k, d = centers.shape
    n = points.shape[0]
    labels = np.zeros((s, n), dtype=np.int64)
    sums = np.zeros((s, k, d))
    counts = np.zeros((s, k))
    active = np.arange(s)
    for step in range(iters):
        a = active.size
        C = centers[active]
        flat = C.reshape(a * k, d)
        cc = np.einsum("ij,ij->i", flat, flat).reshape(a, k)
        e = yield flip, (C[:, 1:] - C[:, :1]).reshape(a * (k - 1), d)
        e *= -2.0
        e += (cc[:, 1:] - cc[:, :1]).reshape(-1, 1)
        e = e.reshape(a, k - 1, n)
        lab = np.zeros((a, n), dtype=np.int64)
        low = np.zeros((a, n))
        for j in range(1, k):  # strict <: the first minimum wins
            lab[e[:, j - 1] < low] = j
            np.minimum(low, e[:, j - 1], out=low)
        if step:
            moving = ~(lab == labels[active]).all(axis=1)
            active, lab, C, cc = active[moving], lab[moving], C[moving], cc[moving]
            a = active.size
            if not a:
                break
        offsets = np.arange(a)[:, None] * k
        cnt = np.bincount((lab + offsets).ravel(), minlength=a * k).reshape(a, k)
        for t in np.flatnonzero((cnt == 0).any(axis=1)):
            g = lab[t]
            dist = points @ C[t].T
            dist *= -2.0
            dist += pp[:, None]
            dist += cc[t]
            np.maximum(dist, 0.0, out=dist)
            o = dist[np.arange(n), g]
            empty = np.flatnonzero(cnt[t] == 0)
            while empty.size:
                # re-seed the smallest empty class at the unused point
                # farthest from its centroid; a re-seeded class keeps its
                # point, so a repair that empties another class is
                # followed by one more, at most k in all
                idx = int(o.argmax())
                C[t, empty[0]] = points[idx]
                g[idx] = empty[0]
                o[idx] = -1.0
                cnt[t] = np.bincount(g, minlength=k)
                empty = np.flatnonzero(cnt[t] == 0)
        onehot = np.zeros((a * k, n))
        onehot[lab + offsets, np.arange(n)] = 1.0
        S = (yield 1 - flip, onehot).reshape(a, k, d)
        del onehot
        new = S / cnt[:, :, None]
        labels[active], sums[active], counts[active] = lab, S, cnt
        centers[active] = new
        active = active[~(new == C).all(axis=(1, 2))]
        if not active.size:
            break
    return labels, sums, counts


def _lockstep(runs: list, points: np.ndarray) -> list:
    """Run the ``_starts`` coroutines ``runs`` to their ends and return
    their results.  The points are X, and each round is one matmul against
    one orientation of X, X.T or X: the passes of every run that needs it,
    stacked.  With a row and a column run the columns go half a step behind
    the rows, so a round is [row differences; one-hot columns] @ X.T or
    [one-hot rows; column differences] @ X.  A start's rows of a stacked
    matmul need not equal, in the last bit, the matmul of its rows alone:
    BLAS may order the sums by the operand's shape (a 1-row operand takes
    NumPy's gemv path, and at 500 x 500 even 2 rows of a 6-row stack round
    otherwise).  What holds is that the same call on the same inputs
    repeats exactly, so the labels are those of a one-start-at-a-time run
    except where rounding decides (see the module docstring)."""
    mats, side = (points.T, points), 0
    wants = {run: next(run) for run in runs}
    results = {}
    while wants:
        due = [(run, op) for run, (want, op) in wants.items() if want == side]
        if due:
            out = np.concatenate([op for _, op in due]) @ mats[side]
            first = 0
            for run, op in due:
                try:
                    wants[run] = run.send(out[first:first + len(op)])
                except StopIteration as stop:
                    del wants[run]
                    results[run] = stop.value
                first += len(op)
        side ^= 1
    return [results[run] for run in runs]


def _best_start(points: np.ndarray, pp: np.ndarray, k: int, runs):
    """The labels of the start of least within-cluster sum of squares, the
    first one on ties, from the (labels, sums, counts) of ``_starts`` runs."""
    total = float(pp.sum())
    labels, quick = [], []
    for run_labels, sums, counts in runs:
        between = np.einsum("skd,skd->sk", sums, sums) / np.maximum(counts, 1)
        labels.extend(run_labels)
        quick.extend(total - math.fsum(row) for row in between.tolist())
    # sum ||x||^2 - sum_j ||S_j||^2 / n_j costs no pass over the points but
    # cancels digits, so it only shortlists the starts within its error of
    # the best; those are ranked by the per-cluster sums of squared
    # deviations, each cluster summed once, and the first start wins ties
    cutoff = min(quick) + 1e-9 * total
    short = [g for g, value in zip(labels, quick) if value <= cutoff]
    # equal labellings sum equal terms; for k = 2 so does a swapped one,
    # whose two terms (0 + t1) + t0 add to (0 + t0) + t1 exactly
    if all(np.array_equal(g, short[0]) or (k == 2 and np.array_equal(g, 1 - short[0]))
           for g in short[1:]):
        return short[0]
    terms: dict[bytes, float] = {}
    best_labels, best_inertia = None, np.inf
    for g in short:
        inertia = 0.0
        for j in range(k):
            mask = g == j
            key = mask.tobytes()
            if key not in terms:
                cluster = points[mask]
                cluster -= cluster.mean(axis=0)
                cluster *= cluster
                terms[key] = float(cluster.sum())
                del cluster  # one cluster copy alive at a time
            inertia += terms[key]
        if best_labels is None or inertia < best_inertia:
            best_labels, best_inertia = g, inertia
    return best_labels


def _kmeans_labels(axes: list[tuple[np.ndarray, int, np.random.Generator]],
                   iters: int) -> list[np.ndarray]:
    """For each (points, k, rng) of ``axes``, the best of ``KMEANS_STARTS``
    runs of Lloyd's algorithm (by within-cluster sum of squares), each with
    k-means++ seeding and empty-cluster repair.  The points of the second
    axis, if any, are the transpose of the first's.

    Each axis draws all its starts' seeds first, from its ``rng`` in the
    order of a one-start-at-a-time loop.  The starts then run in groups of
    min(n, d) // (sum of the k) starts (1 to ``KMEANS_STARTS``) per axis,
    group g of each axis seeded on its own and run with group g of the
    other by ``_lockstep``, so that no stacked block outgrows the points.
    """
    n, d = axes[0][0].shape
    group = max(1, min(KMEANS_STARTS, min(n, d) // sum(k for _, k, _ in axes)))
    seeded = [(points, k, np.einsum("ij,ij->i", points, points),
               *_seed_draws(rng, points.shape[0], k)) for points, k, rng in axes]
    groups = []
    for lo in range(0, KMEANS_STARTS, group):
        runs = [_starts(points, pp, _kmeanspp(points, pp, first[lo:lo + group],
                                              u[lo:lo + group]), flip, iters)
                for flip, (points, _, pp, first, u) in enumerate(seeded)]
        groups.append(_lockstep(runs, axes[0][0]))
    return [_best_start(points, pp, k, runs)
            for (points, k, pp, _, _), runs in zip(seeded, zip(*groups))]


def kmeans_init(X: DataMatrix, K: int, L: int, seed: int,
                iters: int = 50) -> LabelAssignment:
    """k-means applied separately to the rows and to the columns of X: the
    best of ``KMEANS_STARTS`` k-means++ starts of at most ``iters`` Lloyd
    steps, the row and column starts run together with blocks no larger
    than X (see ``_kmeans_labels``)."""
    check_int(K, "K", 1, X.m)
    check_int(L, "L", 1, X.n)
    check_int(iters, "iters")
    g, h = _kmeans_labels([(X.values, K, derived_rng(seed, 0)),
                           (X.values.T, L, derived_rng(seed, 1))], iters)
    return LabelAssignment(row_labels=g, col_labels=h, K=K, L=L)


@dataclass(eq=False)
class _Side:
    """One axis of a sweep's rebuilt state.  The row side moves rows between
    row classes; the column side is the row side of the transpose: its data,
    S and cell terms are transposed views of the row side's.

    ``lines[i]`` holds item i's sums against the opposite classes, added
    up from ``blocks`` (see ``criterion.line_blocks``), ``S`` the bicluster
    sums with this axis's classes first, and ``cells`` the cell terms of
    ``S``.  A sweep reads the state and never writes it.
    """

    X: np.ndarray
    labels: np.ndarray
    lines: np.ndarray
    blocks: tuple
    S: np.ndarray
    counts: np.ndarray
    other_counts: np.ndarray
    cells: np.ndarray
    min_count: int
    f: RateFunction

    def best_moves(self):
        """(items, targets, deltas) of the items whose best move under the
        frozen state leaves their class, items ascending.  The comparisons
        are exact: an item moves only when its best delta is > 0, so staying
        put wins exact ties, and its target is the smallest class index of
        that best delta.

        The terms are class-major stacks with the movers innermost, leaving
        (opposite class, mover) and joining (opposite class, class, mover):
        a line's cells are summed over the opposite classes by whole-vector
        adds, in class order, and the deltas (class, mover) are maximised
        along their leading axis.  Every stack is C-ordered, so both sides
        sum in the same order whatever the layout of their views."""
        movers = np.flatnonzero(self.counts[self.labels] > self.min_count)
        a = self.labels[movers]
        lines = self.lines.T.take(movers, axis=1)  # (opposite class, mover)
        S, other = np.ascontiguousarray(self.S.T), self.other_counts[:, None]
        base = np.ascontiguousarray(self.cells.T).sum(axis=0)
        leave = cell_terms(S.take(a, axis=1) - lines, other * (self.counts[a] - 1.0),
                           self.f).sum(axis=0)
        join = cell_terms(S[:, :, None] + lines[:, None, :],
                          (other * (self.counts + 1.0))[:, :, None], self.f).sum(axis=0)
        d = leave + join
        d -= base[a]
        d -= base[:, None]
        idx = np.arange(movers.size)
        d[a, idx] = 0.0
        best = d.max(axis=0)
        go = best > 0.0
        return movers[go], d[:, go].argmax(axis=0), best[go]


def _sides(X: DataMatrix, labels: LabelAssignment, f: RateFunction,
           floors: tuple[int, int], prior=None):
    """The row and column sides of a rebuilt state, and F: ``line_blocks``
    gives the row lines R (m, L) and the column lines C (n, K),
    ``block_stats`` S from R, and ``criterion_value`` F.  ``floors`` are
    the least row and column class sizes, which ``labels`` meet.  Given
    ``prior``, the sides of a state of the same X, each side computes again
    only the blocks of its lines that hold an opposite item whose label
    changed, and a side whose opposite labels are unchanged keeps its
    lines: the very arrays a rebuild from scratch computes."""
    g, h = labels.row_labels, labels.col_labels
    grid = ((X.values, h, labels.L), (X.values.T, g, labels.K))
    before = prior or (None, None)
    (R, row_blocks), (C, col_blocks) = (
        line_blocks(*args, side and (side.lines, side.blocks, other.labels))
        for args, side, other in zip(grid, before, before[::-1]))
    stats = block_stats(X, labels, R)
    rcnt, ccnt = stats.row_counts, stats.col_counts
    S, cells = stats.S, cell_terms(stats.S, stats.N, f)
    rows = _Side(X.values, g, R, row_blocks, S, rcnt, ccnt, cells, floors[0], f)
    cols = _Side(X.values.T, h, C, col_blocks, S.T, ccnt, rcnt, cells.T, floors[1], f)
    return (rows, cols), criterion_value(stats, f)


def _legal(sides, axis: np.ndarray, item: np.ndarray, target: np.ndarray):
    """Walk the sorted moves once with plain int class counts, skipping a
    move that would shrink its class below the floor; returns the applied
    ones as rows (axis, item, from, to).  Each item moves at most once, so
    its source class is its current label."""
    counts = [side.counts.tolist() for side in sides]
    labels = [side.labels.tolist() for side in sides]
    floor = [side.min_count for side in sides]
    applied = []
    for s, i, k in zip(axis.tolist(), item.tolist(), target.tolist()):
        c, a = counts[s], labels[s][i]
        if c[a] > floor[s]:
            c[a] -= 1
            c[k] += 1
            applied.append((s, i, a, k))
    return np.array(applied, dtype=np.int64).reshape(-1, 4)


def _turn_lines(side: _Side, times: np.ndarray, moves: np.ndarray,
                opp: np.ndarray) -> np.ndarray:
    """The line of each of this side's movers at its turn.  Its moves are
    the rows (axis, item, from, to) of ``moves`` at ``times``, the opposite
    axis's those at ``opp``.  A mover's line is its rebuilt line plus the
    data of the earlier opposite moves, added in move order as a running
    state shifts them between classes.  Each opposite move reaches a suffix
    of the movers; the walk takes the moved item's data for that suffix
    from its data vector once, updates the two class rows in place, and
    stops at the first move that no mover follows."""
    items = moves[times, 1]
    out = side.lines[items].T.copy()
    classes, data = list(out), side.X.T
    first = np.searchsorted(times, opp)
    for r, j, a, k in zip(first.tolist(), *moves[opp, 1:].T.tolist()):
        if r == items.size:
            break
        x = data[j][items[r:]]
        leave, join = classes[a][r:], classes[k][r:]
        np.subtract(leave, x, out=leave)
        np.add(join, x, out=join)
    return out.T


def _replay(sides, moves: np.ndarray) -> np.ndarray:
    """The exact criterion change of each applied move (rows axis, item,
    from, to), in order, replayed as array operations on the sweep's
    unchanged rebuilt state: every sum adds the same numbers in the same
    order as moving the items one at a time would.  Each move's class lines
    (S[a], S[k]) and sizes just before it come from one cumsum of the
    moves' -line/+line updates to S in move order, and one int cumsum of
    -1/+1 to the class sizes, rows then columns; then ``line_move`` gives
    all deltas of an axis at once.  The running S holds (moves + 1) K L
    floats.  A sweep applies at most one move per mover, and scoring the
    side with more movers holds three (L, K, movers) float arrays at once
    (``best_moves``: the join stack, its means and its terms), so the
    running S is never larger than those; with the class-size cumsum and
    ``line_move``'s stacks the replay's peak can still exceed scoring's by
    a fraction (tracemalloc, first sweep of a 1000 x 1000 Gaussian fit with
    K = L = 8: 1.9 MiB against 1.6 MiB)."""
    if not moves.size:  # no legal move: skip the set-up below, some 40 NumPy calls
        return np.zeros(0)
    rows = sides[0]
    K, L = rows.S.shape
    # entry t of run (of cnt) holds S (the class sizes) before move t
    run = np.zeros((moves.shape[0] + 1, K, L))
    run[0] = rows.S
    cnt = np.zeros((moves.shape[0] + 1, K + L), dtype=np.int64)
    cnt[0, :K], cnt[0, K:] = rows.counts, rows.other_counts
    views = [(run, cnt[:, :K]), (run.transpose(0, 2, 1), cnt[:, K:])]
    moved = [np.flatnonzero(moves[:, 0] == s) for s in (0, 1)]
    lines = [_turn_lines(side, t, moves, o) for side, t, o in zip(sides, moved, moved[::-1])]
    for (S, c), t, line in zip(views, moved, lines):
        S[t[:, None] + 1, moves[t, 2:]] = np.stack([-line, line], axis=1)
        c[t[:, None] + 1, moves[t, 2:]] = [-1, 1]
    np.cumsum(run, axis=0, out=run)
    np.cumsum(cnt, axis=0, out=cnt)
    deltas = np.empty(moves.shape[0])
    for side, (S, c), (_, other), t, line in zip(sides, views, views[::-1], moved, lines):
        pair = t[:, None], moves[t, 2:]
        deltas[t] = line_move(S[pair], c[pair], other[t], line, side.f)
    return deltas


def _sweep(X: DataMatrix, labels: LabelAssignment, sides, f0: float):
    """One full sweep from ``labels``, whose rebuilt state is ``sides`` with
    criterion ``f0``.  Returns (labels, sides, f1, moves_kept) for the
    labeling returned: its rebuilt state and exact criterion, and the number
    of moves kept.  The rebuild computes again only the blocks of lines that
    the kept moves touch (``_sides``)."""
    scored = [side.best_moves() for side in sides]
    item, target, delta = (np.concatenate(v) for v in zip(*scored))
    axis = np.repeat([0, 1], [items.size for items, _, _ in scored])
    order = np.lexsort((item, axis, -delta))
    moves = _legal(sides, axis[order], item[order], target[order])
    running = np.cumsum(np.concatenate([[f0], _replay(sides, moves)]))
    kept = int(running.argmax())
    if kept == 0:
        return labels, sides, f0, 0
    head = moves[:kept]
    moved = head[:, 0]
    new = [labels.row_labels.copy(), labels.col_labels.copy()]
    for s, v in enumerate(new):  # an item moves at most once per sweep
        _, i, _, k = head[moved == s].T
        v[i] = k
    new_labels = LabelAssignment(*new, K=labels.K, L=labels.L)
    rows, cols = sides
    new_sides, f1 = _sides(X, new_labels, rows.f, (rows.min_count, cols.min_count), sides)
    if f1 < f0:
        return labels, sides, f0, 0
    return new_labels, new_sides, f1, kept


def _centred(X: DataMatrix, f: RateFunction) -> DataMatrix:
    """The data that ``fit`` sweeps: X - mean(X) for the Gaussian rate when
    |mean(X)| > 16 sd(X), else X.  A shift by a constant adds the same to
    every labelling's Gaussian F, but a large one makes the cell terms so
    large that their rounding swamps the gains of single moves.  The test,
    sum(X^2) < (257 / 256) mn mean^2, takes one sum pass and one sum of
    squares, with no temporary the size of X; the first row's squares
    alone refuse most data."""
    if f.kind != "gaussian":
        return X
    v = X.values
    mean = v.sum() / v.size
    bound = mean * mean * v.size * (257 / 256)
    if np.vdot(v[0], v[0]) >= bound or np.einsum("ij,ij->", v, v) >= bound:
        return X
    return DataMatrix(v - mean)


def _restart_starts(data: DataMatrix, config: FitConfig, init: LabelAssignment | None,
                    floors: tuple[int, int]) -> list:
    """Every restart's start, made and checked before the first sweep, as
    (labels, how): restart 0 starts from ``init`` ("init") or k-means
    ("kmeans"); restart r > 0 from its k-means start with a fifth of each
    axis relabelled at random ("perturbed"), the first of 20 draws that
    keeps the classes at ``floors``, or unperturbed if all 20 miss
    ("perturb_failed").  A start below the floors raises PartitionError."""
    starts, classes = [], (config.K, config.L)
    for r in range(config.restarts):
        labels, how = init, "init"
        if r or init is None:
            labels = kmeans_init(data, *classes, iters=config.kmeans_iters,
                                 seed=derived_seed(config.seed, r))
            how = "perturb_failed" if r else "kmeans"  # unless a draw below meets the floors
        rng = derived_rng(config.seed, r, 1) if r else None
        for _ in range(20 if r else 0):
            new = [labels.row_labels.copy(), labels.col_labels.copy()]
            for v, k in zip(new, classes):
                size = max(1, int(0.2 * v.size))
                v[rng.choice(v.size, size=size, replace=False)] = rng.integers(k, size=size)
            if all(np.bincount(v, minlength=k).min() >= floor
                   for v, k, floor in zip(new, classes, floors)):
                labels, how = LabelAssignment(*new, K=config.K, L=config.L), "perturbed"
                break
        if labels.row_counts().min() < floors[0] or labels.col_counts().min() < floors[1]:
            raise PartitionError(f"restart {r}: input labeling violates the minimum "
                                 "class-size constraint")
        log.debug("restart %d: start %s", r, how)
        starts.append((labels, how))
    return starts


def fit(X: DataMatrix, config: FitConfig, init: LabelAssignment | None = None) -> FitResult:
    """Maximize the criterion with random restarts; deterministic given config.

    ``init`` overrides the restart-0 initialization (used when several rate
    functions must share one k-means start).  Every restart's start is made
    and checked against the floors before restart 0 sweeps, and named in a
    DEBUG log line (``_restart_starts``).  k-means and the sweeps run on
    ``_centred(X)``; when that is not X, ``criterion`` and each entry of
    ``sweep_trajectory`` are still F of X, computed from its labels, and
    the restarts and convergence compare F of the centred data.
    """
    if init is not None:
        if (init.K, init.L) != (config.K, config.L):
            raise ValueError(f"init has (K, L) = ({init.K}, {init.L}), but the config "
                             f"has ({config.K}, {config.L})")
        check_shape(X, init)
    f = RateFunction(config.rate)
    f.check(X.values, "X")
    floors = class_floors(config.min_frac, "min_frac", config.K, config.L, X.m, X.n)
    data = _centred(X, f)
    best: FitResult | None = None
    for r, (labels, _) in enumerate(_restart_starts(data, config, init, floors)):
        sides, f0 = _sides(data, labels, f, floors)
        trajectory, moves, value = [], 0, None
        for _ in range(config.max_sweeps):
            labels, sides, final, kept = _sweep(data, labels, sides, f0)
            moves += kept
            if data is not X and (kept or value is None):
                value = criterion_value(block_stats(X, labels), f)
            trajectory.append(final if data is X else value)
            if converged := final <= f0:
                break
            f0 = final
        if best is None or final > best_final:
            best_final = final
            best = FitResult(labels, trajectory[-1], trajectory, restart_index=r,
                             converged=converged, moves_applied=moves)
    return best
