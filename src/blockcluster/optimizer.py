"""Criterion maximization: k-means initialization plus greedy label sweeps.

A sweep follows the Kernighan-Lin discipline:

1. for every row and column, score the best single-label move against the
   frozen current labeling;
2. apply the recorded moves in decreasing order of their step-1 score,
   skipping any move that has become illegal (would shrink a class below
   the minimum size), tracking the running criterion;
3. keep the prefix of applied moves with the highest running criterion
   (possibly the empty prefix).

Each item moves at most once per sweep, so a sweep never decreases the
criterion.  One engine serves both axes: a column move is a row move on the
transpose, so the column side of the state holds transposed views of the
row side's arrays.  Step 1 evaluates rate terms through
``criterion.cell_terms``.  Step 2 is a replay, not a loop over moves: one
walk over the sorted moves with plain int class counts settles which are
legal, then array operations give each mover's line at its turn (its
rebuilt line plus the earlier opposite-axis moves, added in move order),
the class lines and sizes each move touches (S and the counts as cumsums
of the moves' updates), and all deltas of an axis in one call of
``criterion.line_move``, the routine ``move_delta`` calls with one move.
Every float addition happens in the same order as when the items are moved
one at a time, so the deltas and labels are those of a sequential loop, bit
for bit; no temporary block is larger than ``REPLAY_BLOCK`` elements.

The state is read, never written, during a sweep.  It is rebuilt from
scratch once per restart and once for each sweep that keeps moves, from
the kept labeling; the rebuild supplies that labeling's criterion (the same
fsum of the same cell terms as ``criterion_value(block_stats(...))``, which
cancels any drift of the running sum) and the next sweep's state, so
``fit`` computes F nowhere else.  The data are checked against the rate
domain once, when ``fit`` or ``kl_sweep`` is entered.

The initialization is k-means++ (Arthur & Vassilvitskii 2007), best of ten
Lloyd runs, on the rows and on the columns.  The starts draw from the
seeded stream in the order a one-start-at-a-time loop draws them, then run
in lockstep: one distance matmul and one centroid matmul per Lloyd step for
all starts still moving, in groups whose blocks are no larger than the
data.  The labels are those of the one-start-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# a fit calls neither block_stats nor criterion_value; both stay attributes
# of this module, where bench/spans.py counts calls to them
from .criterion import (  # noqa: F401
    TIE_TOL,
    RateFunction,
    _one_hot,
    block_stats,
    cell_terms,
    check_shape,
    check_support,
    criterion_value,
    line_move,
    rate_function,
)
from .errors import PartitionError
from .model import DataMatrix, LabelAssignment, derived_rng, derived_seed

#: k-means++ starts per k-means initialization; the best one is kept
KMEANS_STARTS = 10
#: a restart stops once a sweep gains at most this fraction of |F| (or 1)
CONVERGENCE_TOL = 1e-9
#: elements in the largest temporary block of a sweep's replay
REPLAY_BLOCK = 1 << 16


@dataclass
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
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if not 0.0 <= self.min_frac < 0.5:
            raise ValueError("min_frac must lie in [0, 0.5)")
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")


@dataclass
class FitResult:
    labels: LabelAssignment
    criterion: float
    sweep_trajectory: list[float] = field(default_factory=list)
    restart_index: int = 0
    converged: bool = False
    moves_applied: int = 0


def _min_count(frac: float, size: int) -> int:
    return max(1, int(math.ceil(frac * size)))


def _kmeanspp(points: np.ndarray, pp: np.ndarray, k: int,
              rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): each centre after
    the first is a point drawn with probability proportional to its squared
    distance to the nearest centre so far.  ``pp`` holds the squared norms
    of the points."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.full(n, np.inf)
    for j in range(1, k):
        c = centers[j - 1 : j]
        dist = pp - 2.0 * (points @ c.T).ravel() + np.einsum("ij,ij->i", c, c)
        np.maximum(dist, 0.0, out=dist)
        np.minimum(closest, dist, out=closest)
        total = closest.sum()
        idx = rng.choice(n, p=closest / total) if total > 0 else rng.integers(n)
        centers[j] = points[idx]
    return centers


def _lloyd(points: np.ndarray, pp: np.ndarray, centers: np.ndarray, iters: int):
    """Lloyd's algorithm from each of the (starts, k, d) ``centers`` at once.

    Every step serves all starts that still move with one distance matmul
    against their stacked centres and one one-hot matmul for the new
    centroids; a start drops out once its centroids stop changing.  Returns
    the final labels (starts, n) with their cluster sums (starts, k, d) and
    sizes (starts, k).
    """
    s, k, d = centers.shape
    n = points.shape[0]
    labels = np.zeros((s, n), dtype=np.int64)
    sums = np.zeros((s, k, d))
    counts = np.zeros((s, k))
    active = np.arange(s)
    for _ in range(iters):
        a = active.size
        C = centers[active].reshape(a * k, d)
        # -2 x.c is exact scaling of x.c, so each block equals its own
        # start's ||x||^2 - 2 x.c + ||c||^2 bit for bit
        dist = points @ C.T
        dist *= -2.0
        dist += pp[:, None]
        dist += np.einsum("ij,ij->i", C, C)
        np.maximum(dist, 0.0, out=dist)
        dist = dist.reshape(n, a, k)
        lab = dist.argmin(axis=2)
        own = np.take_along_axis(dist, lab[:, :, None], axis=2)[:, :, 0]
        del dist
        C = C.reshape(a, k, d)
        offsets = np.arange(a) * k
        cnt = np.bincount((lab + offsets).ravel(), minlength=a * k).reshape(a, k)
        for t in np.flatnonzero((cnt == 0).any(axis=1)):
            g, o = lab[:, t], own[:, t]
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
                empty = np.flatnonzero(np.bincount(g, minlength=k) == 0)
        onehot = np.zeros((n, a * k))
        onehot[np.arange(n)[:, None], lab + offsets] = 1.0
        S = (onehot.T @ points).reshape(a, k, d)
        cnt = onehot.sum(axis=0).reshape(a, k)
        del onehot
        new = S / cnt[:, :, None]
        labels[active], sums[active], counts[active] = lab.T, S, cnt
        centers[active] = new
        active = active[~(new == C).all(axis=(1, 2))]
        if not active.size:
            break
    return labels, sums, counts


def _kmeans_labels(points: np.ndarray, k: int, rng: np.random.Generator,
                   iters: int) -> np.ndarray:
    """Best of ``KMEANS_STARTS`` runs of Lloyd's algorithm (by within-cluster
    sum of squares), each with k-means++ seeding and empty-cluster repair.

    The starts are seeded one after another from ``rng`` and then run in
    lockstep by ``_lloyd``, in groups of at most min(n, d) // k starts, so
    that no per-step block outgrows the points themselves.
    """
    n, d = points.shape
    pp = np.einsum("ij,ij->i", points, points)
    total = float(pp.sum())
    group = max(1, min(KMEANS_STARTS, min(n, d) // k))
    runs, quick = [], []
    for first in range(0, KMEANS_STARTS, group):
        centers = np.stack([_kmeanspp(points, pp, k, rng)
                            for _ in range(min(group, KMEANS_STARTS - first))])
        labels, sums, counts = _lloyd(points, pp, centers, iters)
        between = np.einsum("skd,skd->sk", sums, sums) / np.maximum(counts, 1)
        runs.extend(labels)
        quick.extend(total - math.fsum(row) for row in between.tolist())
    # sum ||x||^2 - sum_j ||S_j||^2 / n_j costs no pass over the points but
    # cancels digits, so it only shortlists the starts within its error of
    # the best; those are ranked by the per-cluster sums of squared
    # deviations, each cluster summed once, and the first start wins ties
    cutoff = min(quick) + 1e-9 * total
    terms: dict[bytes, float] = {}
    best_labels, best_inertia = None, np.inf
    for g, value in zip(runs, quick):
        if value > cutoff:
            continue
        inertia = 0.0
        for j in range(k):
            mask = g == j
            key = mask.tobytes()
            if key not in terms:
                cluster = points[mask]
                terms[key] = float(((cluster - cluster.mean(axis=0)) ** 2).sum())
            inertia += terms[key]
        if inertia < best_inertia:
            best_labels, best_inertia = g, inertia
    return best_labels


def kmeans_init(X: DataMatrix, K: int, L: int, seed: int,
                iters: int = 50) -> LabelAssignment:
    """k-means applied separately to the rows and to the columns of X: the
    best of ``KMEANS_STARTS`` k-means++ starts of at most ``iters`` Lloyd
    steps, run in lockstep with a distance block no larger than X (see
    ``_kmeans_labels``)."""
    if K > X.m or L > X.n:
        raise ValueError("K (L) may not exceed the number of rows (columns)")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    g = _kmeans_labels(X.values, K, derived_rng(seed, 0), iters)
    h = _kmeans_labels(np.ascontiguousarray(X.values.T), L, derived_rng(seed, 1), iters)
    return LabelAssignment(row_labels=g, col_labels=h, K=K, L=L)


@dataclass(eq=False)
class _Side:
    """One axis of a sweep's rebuilt state.  The row side moves rows between
    row classes; the column side is the row side of the transpose and holds
    transposed views of the same arrays.

    ``lines[i]`` holds item i's sums against the opposite classes, ``S`` the
    bicluster sums with this axis's classes first, and ``cells`` the cell
    terms of ``S``.  A sweep reads the state and never writes it.
    """

    X: np.ndarray
    labels: np.ndarray
    lines: np.ndarray
    S: np.ndarray
    counts: np.ndarray
    other_counts: np.ndarray
    cells: np.ndarray
    min_count: int
    f: RateFunction

    def best_moves(self):
        """(target, delta) per item under the frozen state; staying put wins
        ties within TIE_TOL, then the smallest class index."""
        target, delta = self.labels.copy(), np.zeros(self.labels.size)
        movers = np.flatnonzero(self.counts[self.labels] > self.min_count)
        a, lines = self.labels[movers], self.lines[movers]
        # each line summed as line_move sums it, whatever the layout of
        # this side's view
        base = np.ascontiguousarray(self.cells).sum(axis=1)
        leave = cell_terms(self.S[a] - lines, self.counts[a] - 1,
                           self.other_counts, self.f).sum(axis=1)
        join = cell_terms(self.S + lines[:, None, :], self.counts + 1,
                          self.other_counts, self.f).sum(axis=2)
        d = leave[:, None] + join - base[a][:, None] - base[None, :]
        idx = np.arange(movers.size)
        d[idx, a] = 0.0
        best = d.max(axis=1)
        near = d >= (best - TIE_TOL)[:, None]
        label = np.where(near[idx, a], a, near.argmax(axis=1))
        target[movers] = label
        delta[movers] = np.where(label == a, 0.0, best)
        return target, delta


def _sides(X: DataMatrix, labels: LabelAssignment, f: RateFunction,
           min_frac: float):
    """The row and column sides of a state rebuilt from scratch, and F (the
    same fsum of the same cell terms as ``criterion_value(block_stats(...))``)."""
    check_shape(X, labels)
    g, h = labels.row_labels.copy(), labels.col_labels.copy()
    rcnt, ccnt = labels.row_counts(), labels.col_counts()
    min_rows = _min_count(min_frac, labels.m)
    min_cols = _min_count(min_frac, labels.n)
    if rcnt.min() < min_rows or ccnt.min() < min_cols:
        raise PartitionError(
            "input labeling violates the minimum class-size constraint"
        )
    R = X.values @ _one_hot(h, labels.L)  # (m, L) row sums by column class
    C = _one_hot(g, labels.K).T @ X.values  # (K, n) column sums by row class
    S = np.zeros((labels.K, labels.L))
    np.add.at(S, g, R)
    cells = cell_terms(S, rcnt, ccnt, f)
    rows = _Side(X.values, g, R, S, rcnt, ccnt, cells, min_rows, f)
    cols = _Side(X.values.T, h, C.T, S.T, ccnt, rcnt, cells.T, min_cols, f)
    return (rows, cols), math.fsum(cells.ravel().tolist())


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


def _turn_lines(side: _Side, items: np.ndarray, times: np.ndarray,
                opp: np.ndarray) -> np.ndarray:
    """Each mover's line at its turn: its rebuilt line plus the data of the
    earlier opposite-axis moves ``opp`` (rows time, item, from, to), added
    class by class in move order with one cumsum per opposite class: the
    additions a running state makes as each move shifts its item's data out
    of one class and into another.  Movers and moves are taken in blocks of
    at most ``REPLAY_BLOCK`` elements that carry each mover's partial sum on
    to the next block."""
    out = side.lines[items]
    for c in range(out.shape[1]):
        touch = opp[(opp[:, 2] == c) | (opp[:, 3] == c)]
        if not touch.shape[0]:
            continue
        sign = np.where(touch[:, 3] == c, 1.0, -1.0)
        # earlier touching moves per mover, nondecreasing along the movers
        need = np.searchsorted(touch[:, 0], times)
        width = min(touch.shape[0], REPLAY_BLOCK - 1)
        rows = max(1, REPLAY_BLOCK // (width + 1))
        for r0 in range(0, items.size, rows):
            r1 = min(r0 + rows, items.size)
            upto, col = need[r0:r1], out[r0:r1, c]
            carry = col.copy()
            for c0 in range(0, int(upto[-1]), width):
                c1 = min(c0 + width, int(upto[-1]))
                block = np.empty((r1 - r0, c1 - c0 + 1))
                block[:, 0] = carry
                np.multiply(side.X[np.ix_(items[r0:r1], touch[c0:c1, 1])],
                            sign[c0:c1], out=block[:, 1:])
                np.cumsum(block, axis=1, out=block)
                hit = (upto > c0) & (upto <= c1)
                col[hit] = block[hit, upto[hit] - c0]
                carry = block[:, -1]
    return out


def _touched(rows: _Side, moves: np.ndarray, lines: list):
    """Per axis, for each of its moves: the two class lines (S[a], S[k]) it
    touches and their sizes just before it, and the opposite class sizes.
    S runs as a cumsum of the moves' -line/+line updates in move order and
    the class counts as a cumsum of -1/+1, in blocks of moves that carry S
    and the counts on; a block holds at most ``REPLAY_BLOCK`` elements of S
    (two copies of S where S alone is larger)."""
    S, counts = rows.S, [rows.counts, rows.other_counts]
    K, L = S.shape
    axis, src, dst = moves[:, 0], moves[:, 2], moves[:, 3]
    where = [np.flatnonzero(axis == s) for s in (0, 1)]
    width = [L, K]
    pairs = [np.empty((w.size, 2, n)) for w, n in zip(where, width)]
    sizes = [np.empty((w.size, 2), dtype=np.int64) for w in where]
    others = [np.empty((w.size, n), dtype=np.int64) for w, n in zip(where, width)]
    step = max(1, REPLAY_BLOCK // (K * L) - 1)
    for t0 in range(0, axis.size, step):
        t1 = min(t0 + step, axis.size)
        # entry t - t0 of run (of cnt) holds S (the class sizes) before move t
        run = np.zeros((t1 - t0 + 1, K, L))
        run[0] = S
        cnt = [np.zeros((t1 - t0 + 1, c.size), dtype=np.int64) for c in counts]
        for c, start in zip(cnt, counts):
            c[0] = start
        views = [run, run.transpose(0, 2, 1)]
        spans = [slice(*np.searchsorted(w, [t0, t1])) for w in where]
        for s, span in enumerate(spans):
            t = where[s][span]
            views[s][t - t0 + 1, src[t]] = -lines[s][span]
            views[s][t - t0 + 1, dst[t]] = lines[s][span]
            cnt[s][t - t0 + 1, src[t]] = -1
            cnt[s][t - t0 + 1, dst[t]] = 1
        np.cumsum(run, axis=0, out=run)
        for c in cnt:
            np.cumsum(c, axis=0, out=c)
        for s, span in enumerate(spans):
            t = where[s][span]
            pairs[s][span, 0] = views[s][t - t0, src[t]]
            pairs[s][span, 1] = views[s][t - t0, dst[t]]
            sizes[s][span, 0] = cnt[s][t - t0, src[t]]
            sizes[s][span, 1] = cnt[s][t - t0, dst[t]]
            others[s][span] = cnt[1 - s][t - t0]
        S, counts = run[-1], [c[-1] for c in cnt]
    return pairs, sizes, others


def _replay(sides, moves: np.ndarray) -> np.ndarray:
    """The exact criterion change of each applied move (rows axis, item,
    from, to), in order, replayed as array operations on the sweep's
    unchanged rebuilt state: every sum adds the same numbers in the same
    order as moving the items one at a time would."""
    axis = moves[:, 0]
    if not axis.size:
        return np.zeros(0)
    timed = np.column_stack([np.arange(axis.size), moves[:, 1:]])
    lines = [_turn_lines(side, timed[axis == s, 1], timed[axis == s, 0],
                         timed[axis != s])
             for s, side in enumerate(sides)]
    pairs, sizes, others = _touched(sides[0], moves, lines)
    deltas = np.empty(axis.size)
    for s, side in enumerate(sides):
        deltas[axis == s] = line_move(pairs[s], sizes[s], others[s], lines[s], side.f)
    return deltas


def _sweep(X: DataMatrix, labels: LabelAssignment, sides, f0: float,
           f: RateFunction, min_frac: float):
    """One full sweep from ``labels``, whose rebuilt state is ``sides`` with
    criterion ``f0``.  Returns (labels, sides, f1, moves_kept) for the
    labeling returned: its rebuilt state and exact criterion, and the number
    of moves kept."""
    scored = []
    for axis, side in enumerate(sides):
        target, delta = side.best_moves()
        items = np.flatnonzero(target != side.labels)
        scored.append((delta[items], np.full(items.size, axis), items, target[items]))
    delta, axis, item, target = (np.concatenate(v) for v in zip(*scored))
    order = np.lexsort((item, axis, -delta))
    moves = _legal(sides, axis[order], item[order], target[order])
    running = np.cumsum(np.concatenate([[f0], _replay(sides, moves)]))
    kept = int(running.argmax())
    if kept == 0:
        return labels, sides, f0, 0
    new = [labels.row_labels.copy(), labels.col_labels.copy()]
    for s, i, _, k in moves[:kept].tolist():
        new[s][i] = k
    new_labels = LabelAssignment(row_labels=new[0], col_labels=new[1],
                                 K=labels.K, L=labels.L)
    new_sides, f1 = _sides(X, new_labels, f, min_frac)
    if f1 < f0:
        return labels, sides, f0, 0
    return new_labels, new_sides, f1, kept


def kl_sweep(X: DataMatrix, labels: LabelAssignment, f: RateFunction,
             min_frac: float = 0.0):
    """One greedy sweep over all rows and columns; returns (labels, gain)."""
    check_support(X, f)
    sides, f0 = _sides(X, labels, f, min_frac)
    new_labels, _, f1, _ = _sweep(X, labels, sides, f0, f, min_frac)
    return new_labels, f1 - f0


def _perturb(labels: LabelAssignment, rng: np.random.Generator, frac: float,
             min_rows: int, min_cols: int) -> LabelAssignment:
    """Randomly relabel a fraction of items, keeping class sizes legal."""
    for _ in range(20):
        g = labels.row_labels.copy()
        h = labels.col_labels.copy()
        nr = max(1, int(frac * g.size))
        nc = max(1, int(frac * h.size))
        g[rng.choice(g.size, size=nr, replace=False)] = rng.integers(labels.K, size=nr)
        h[rng.choice(h.size, size=nc, replace=False)] = rng.integers(labels.L, size=nc)
        if (
            np.bincount(g, minlength=labels.K).min() >= min_rows
            and np.bincount(h, minlength=labels.L).min() >= min_cols
        ):
            return LabelAssignment(row_labels=g, col_labels=h, K=labels.K, L=labels.L)
    return labels


def fit(X: DataMatrix, config: FitConfig, init: LabelAssignment | None = None) -> FitResult:
    """Maximize the criterion with random restarts; deterministic given config.

    ``init`` overrides the restart-0 initialization (used when several rate
    functions must share one k-means start).
    """
    f = rate_function(config.rate)
    check_support(X, f)
    min_rows = _min_count(config.min_frac, X.m)
    min_cols = _min_count(config.min_frac, X.n)
    best: FitResult | None = None
    for r in range(config.restarts):
        if r == 0 and init is not None:
            labels = init
        else:
            labels = kmeans_init(
                X, config.K, config.L,
                seed=derived_seed(config.seed, r),
                iters=config.kmeans_iters,
            )
        if r > 0:
            labels = _perturb(
                labels, derived_rng(config.seed, r, 1), 0.2, min_rows, min_cols
            )
        try:
            sides, f0 = _sides(X, labels, f, config.min_frac)
        except PartitionError as exc:
            raise PartitionError(f"restart {r}: {exc}") from exc
        value = f0
        trajectory: list[float] = []
        moves = 0
        converged = False
        for _ in range(config.max_sweeps):
            labels, sides, final, kept = _sweep(X, labels, sides, f0, f,
                                                config.min_frac)
            gain = final - f0
            value += gain
            moves += kept
            trajectory.append(value)
            if gain <= CONVERGENCE_TOL * max(1.0, abs(value)):
                converged = True
                break
            f0 = final
        result = FitResult(
            labels=labels,
            criterion=final,
            sweep_trajectory=trajectory,
            restart_index=r,
            converged=converged,
            moves_applied=moves,
        )
        if best is None or result.criterion > best.criterion:
            best = result
    return best
