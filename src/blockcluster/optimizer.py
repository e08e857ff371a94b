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
row side's arrays.  Both steps evaluate rate terms through
``criterion.cell_terms``, and step 2 goes through ``criterion.line_move``,
as ``move_delta`` does; the cell terms are cached, so a move recomputes only
its two class lines.  The state is rebuilt from scratch at the start of
every sweep, and the kept labeling's criterion is recomputed at its end,
which cancels any accumulated floating-point drift; ``fit`` takes its
criterion values from these two, so it computes F nowhere else.  The data
are checked against the rate domain once, when ``fit`` or ``kl_sweep`` is
entered.

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

from .criterion import (
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
    g = _kmeans_labels(X.values, K, derived_rng(seed, 0), iters)
    h = _kmeans_labels(np.ascontiguousarray(X.values.T), L, derived_rng(seed, 1), iters)
    return LabelAssignment(row_labels=g, col_labels=h, K=K, L=L)


@dataclass(eq=False)
class _Side:
    """One axis of the sweep state.  The row side moves rows between row
    classes; the column side is the row side of the transpose and holds
    transposed views of the same arrays, so every update through one side
    is seen by the other.

    ``lines[i]`` holds item i's sums against the opposite classes, ``cross``
    the opposite side's lines transposed (a move shifts the item's data
    between two of its rows), ``S`` the bicluster sums with this axis's
    classes first, and ``cells`` the cached cell terms of ``S``.
    """

    X: np.ndarray
    labels: np.ndarray
    lines: np.ndarray
    cross: np.ndarray
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
        # each line summed in the order the apply step sums it, whatever
        # the layout of this side's view
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

    def legal(self, i: int) -> bool:
        return self.counts[self.labels[i]] > self.min_count

    def apply(self, i: int, k: int) -> float:
        """Move item i to class k; returns the exact criterion delta."""
        a, line = self.labels[i], self.lines[i]
        delta, after = line_move(self.S, self.counts, self.other_counts, a, k,
                                 line, self.cells[[a, k]], self.f)
        self.S[a] -= line
        self.S[k] += line
        self.counts[a] -= 1
        self.counts[k] += 1
        self.cross[a] -= self.X[i]
        self.cross[k] += self.X[i]
        self.cells[[a, k]] = after
        self.labels[i] = k
        return delta


def _sides(X: DataMatrix, labels: LabelAssignment, f: RateFunction,
           min_frac: float):
    """The row and column sides of a state rebuilt from scratch, and F."""
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
    rows = _Side(X.values, g, R, C, S, rcnt, ccnt, cells, min_rows, f)
    cols = _Side(X.values.T, h, C.T, R.T, S.T, ccnt, rcnt, cells.T, min_cols, f)
    return (rows, cols), math.fsum(cells.ravel().tolist())


def _sweep(X: DataMatrix, labels: LabelAssignment, f: RateFunction,
           min_frac: float):
    """One full sweep; returns (labels, f0, f1, moves_kept): the criterion
    of the input labeling as rebuilt, and the exact criterion of the
    labeling returned."""
    sides, f0 = _sides(X, labels, f, min_frac)
    moves = []
    for axis, side in enumerate(sides):
        target, delta = side.best_moves()
        moves += [(delta[i], axis, i, target[i])
                  for i in np.flatnonzero(target != side.labels)]
    moves.sort(key=lambda t: (-t[0], t[1], t[2]))

    applied: list[tuple[int, int, int]] = []
    running = f0
    best_f, best_t = f0, 0
    for _, axis, i, k in moves:
        side = sides[axis]
        if not side.legal(i):
            continue
        running += side.apply(i, k)
        applied.append((axis, i, k))
        if running > best_f:
            best_f, best_t = running, len(applied)

    if best_t == 0:
        return labels, f0, f0, 0
    new = (labels.row_labels.copy(), labels.col_labels.copy())
    for axis, i, k in applied[:best_t]:
        new[axis][i] = k
    new_labels = LabelAssignment(row_labels=new[0], col_labels=new[1],
                                 K=labels.K, L=labels.L)
    f1 = criterion_value(block_stats(X, new_labels), f)
    if f1 < f0:
        return labels, f0, f0, 0
    return new_labels, f0, f1, best_t


def kl_sweep(X: DataMatrix, labels: LabelAssignment, f: RateFunction,
             min_frac: float = 0.0):
    """One greedy sweep over all rows and columns; returns (labels, gain)."""
    check_support(X, f)
    new_labels, f0, f1, _ = _sweep(X, labels, f, min_frac)
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
        value = None
        trajectory: list[float] = []
        moves = 0
        converged = False
        for _ in range(config.max_sweeps):
            try:
                labels, f0, final, kept = _sweep(X, labels, f, config.min_frac)
            except PartitionError as exc:
                raise PartitionError(f"restart {r}: {exc}") from exc
            # the running value starts from the first rebuild, which sums
            # the same cell terms as criterion_value(block_stats(...))
            gain = final - f0
            value = (f0 if value is None else value) + gain
            moves += kept
            trajectory.append(value)
            if gain <= CONVERGENCE_TOL * max(1.0, abs(value)):
                converged = True
                break
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
