"""Ground-truth comparison and numerical diagnostics.

Includes confusion matrices, permutation-matched misclassification, the
population criterion G(C, D), a sampled check of the population gap
inequality, a sampled sup-norm of the normalized residual matrix, and the
Gaussian finite-sample tail-bound calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criterion import RateFunction, block_stats
from .model import (
    BlockModelSpec, DataMatrix, LabelAssignment, derived_rng, identifiable,
)

def _max_offdiag_product(A: np.ndarray) -> float:
    """max over columns k and rows a != a' of A[a,k] * A[a',k]."""
    worst = 0.0
    r = A.shape[0]
    for a in range(r):
        for a2 in range(a + 1, r):
            worst = max(worst, float(np.max(A[a] * A[a2])))
    return worst


@dataclass(frozen=True)
class ConfusionPair:
    """Joint-proportion confusion matrices for rows (C) and columns (D)."""

    C: np.ndarray
    D: np.ndarray

    def rows_near_diagonal(self, delta: float) -> bool:
        """True if C lies in the delta-neighborhood of permuted diagonals."""
        return _max_offdiag_product(self.C) < delta

    def cols_near_diagonal(self, delta: float) -> bool:
        return _max_offdiag_product(self.D) < delta

    def in_neighborhood(self, delta: float) -> bool:
        return self.rows_near_diagonal(delta) and self.cols_near_diagonal(delta)


def _contingency(truth: LabelAssignment, estimate: LabelAssignment):
    """The row and column tables whose [a, k] entry counts the items with
    true class a and assigned label k."""
    if truth.m != estimate.m or truth.n != estimate.n:
        raise ValueError("truth and estimate have different dimensions")
    if truth.K != estimate.K or truth.L != estimate.L:
        raise ValueError("truth and estimate have different class counts")
    tables = []
    for t, e, k in ((truth.row_labels, estimate.row_labels, truth.K),
                    (truth.col_labels, estimate.col_labels, truth.L)):
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (t, e), 1)
        tables.append(counts)
    return tables


def confusion(truth: LabelAssignment, estimate: LabelAssignment) -> ConfusionPair:
    """C[a, k] = fraction of rows with true class a and assigned label k;
    D likewise for columns."""
    rows, cols = _contingency(truth, estimate)
    return ConfusionPair(C=rows / truth.m, D=cols / truth.n)


def _max_matching(W: np.ndarray) -> int:
    """Largest sum of W[i, p(i)] over permutations p of a square integer
    matrix, by the Hungarian method with shortest augmenting paths, O(k^3)
    (Jonker & Volgenant 1987).  Rows are matched one at a time; u and v are
    the dual potentials, and column 0 is a sentinel.  Plain Python integers
    keep it exact, and for the class counts in use it is faster than numpy
    calls on k-element arrays."""
    cost = (-np.asarray(W)).tolist()
    k = len(cost)
    u, v = [0] * (k + 1), [0] * (k + 1)
    match = [0] * (k + 1)  # row (1-based) held by column j
    for i in range(1, k + 1):
        match[0], j0 = i, 0
        slack, way, used = [math.inf] * (k + 1), [0] * (k + 1), [False] * (k + 1)
        while match[j0]:
            used[j0] = True
            row, ui = cost[match[j0] - 1], u[match[j0]]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    return -sum(cost[match[j] - 1][j - 1] for j in range(1, k + 1))


def misclassification(truth: LabelAssignment, estimate: LabelAssignment):
    """(row_rate, col_rate, overall) after the best label permutations.

    ``overall`` weights the row and column rates by m and n.
    """
    rows, cols = _contingency(truth, estimate)
    m, n = truth.m, truth.n
    row_rate = 1.0 - _max_matching(rows) / m
    col_rate = 1.0 - _max_matching(cols) / n
    overall = (m * row_rate + n * col_rate) / (m + n)
    return row_rate, col_rate, overall


def population_criterion(C: np.ndarray, D: np.ndarray, M0: np.ndarray,
                         f: RateFunction) -> float:
    """G(C, D) = sum_kl w_kl * f([C^T M0 D]_kl / w_kl) with
    w_kl = [C^T 1]_k [D^T 1]_l."""
    C = np.asarray(C, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    M0 = np.asarray(M0, dtype=np.float64)
    if np.any(C < 0) or np.any(D < 0):
        raise ValueError("confusion matrices must be nonnegative")
    if abs(C.sum() - 1.0) > 1e-9 or abs(D.sum() - 1.0) > 1e-9:
        raise ValueError("confusion matrices must each sum to 1")
    pk = C.sum(axis=0)
    ql = D.sum(axis=0)
    if pk.min() <= 0 or ql.min() <= 0:
        raise ValueError("zero label-mass column in a confusion matrix")
    W = np.outer(pk, ql)
    terms = W * f.evaluate((C.T @ M0 @ D) / W)
    return math.fsum(terms.ravel().tolist())


def population_gap_check(M0: np.ndarray, f: RateFunction, p: np.ndarray,
                         q: np.ndarray, trials: int, seed: int) -> dict:
    """Sample random confusion pairs outside the near-diagonal neighborhood
    and check G(C, D) < G at the diagonal confusion with the same margins.

    Rows of C are drawn as p_a * Dirichlet(1,..,1); likewise for D with q.
    Returns a JSON-ready report with the violation count, the worst
    (largest) gap, and the smallest empirical constant -gap / (eta^2 delta).
    """
    M0 = np.asarray(M0, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if not identifiable(M0):
        raise ValueError("mean matrix has two identical rows or columns")
    K, L = M0.shape
    rng = derived_rng(seed)
    diagonal = math.fsum(
        (np.outer(p, q) * f.evaluate(M0)).ravel().tolist()
    )
    eta = float(min(p.min(), q.min()))
    violations = 0
    worst_gap = -np.inf
    kappa = np.inf
    accepted = 0
    attempts = 0
    while accepted < trials:
        attempts += 1
        if attempts > 100 * trials:
            raise RuntimeError("rejection sampling failed to accept enough pairs")
        C = p[:, None] * rng.dirichlet(np.ones(K), size=K)
        D = q[:, None] * rng.dirichlet(np.ones(L), size=L)
        delta = float(rng.uniform(1e-4, 0.05))
        pair = ConfusionPair(C=C, D=D)
        if pair.in_neighborhood(delta):
            continue
        accepted += 1
        gap = population_criterion(C, D, M0, f) - diagonal
        if gap >= 0:
            violations += 1
        worst_gap = max(worst_gap, gap)
        kappa = min(kappa, -gap / (eta * eta * delta))
    return {
        "metric": "population_gap_check",
        "trials": trials,
        "seed": seed,
        "violations": violations,
        "worst_gap": worst_gap,
        "kappa_empirical": kappa,
    }


def _sample_labels_nontrivial(rng: np.random.Generator, k: int, size: int,
                              epsilon: float, max_attempts: int = 1000) -> np.ndarray:
    """Uniform labels conditioned on every class proportion exceeding epsilon."""
    for _ in range(max_attempts):
        labels = rng.integers(k, size=size)
        if np.bincount(labels, minlength=k).min() > epsilon * size:
            return labels
    raise RuntimeError(
        f"could not sample a nontrivial labeling (k={k}, size={size}, "
        f"epsilon={epsilon}) in {max_attempts} attempts"
    )


def residual_supnorm(X: DataMatrix, truth: LabelAssignment, spec: BlockModelSpec,
                     samples: int, epsilon: float, seed: int) -> float:
    """Max over sampled nontrivial labelings of the sup-norm of the
    normalized residual (Xbar - E) / rho.

    E is the conditional expectation of the bicluster means given the true
    classes; the returned value is a sampled lower bound on the supremum
    over all nontrivial labelings.
    """
    if truth.m != X.m or truth.n != X.n:
        raise ValueError("truth labels do not match the matrix dimensions")
    if spec.K != truth.K or spec.L != truth.L:
        raise ValueError("spec and truth class counts disagree")
    rng = derived_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = _sample_labels_nontrivial(rng, spec.K, X.m, epsilon)
        h = _sample_labels_nontrivial(rng, spec.L, X.n, epsilon)
        labels = LabelAssignment(row_labels=g, col_labels=h, K=spec.K, L=spec.L)
        pair = confusion(truth, labels)
        pk = pair.C.sum(axis=0)
        ql = pair.D.sum(axis=0)
        E = (pair.C.T @ spec.M @ pair.D) / np.outer(pk, ql)
        stats = block_stats(X, labels)
        xbar = stats.S / stats.N
        worst = max(worst, float(np.max(np.abs(xbar - E))) / spec.rho)
    return worst


@dataclass(frozen=True)
class TailBoundInput:
    """Inputs to the Gaussian finite-sample tail bound.

    ``tau`` is the smallest squared gap between distinct block means,
    ``c_lip`` bounds |f'| over the mean hull, and ``T_n`` is the minimum
    bicluster size over nontrivial partitions.
    """

    m: int
    n: int
    K: int
    L: int
    epsilon: float
    delta: float
    tau: float
    sigma: float
    c_lip: float
    T_n: int

    def __post_init__(self):
        for name in ("m", "n", "K", "L", "T_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        for name in ("tau", "sigma", "c_lip"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        cap = self.delta_cap()
        if not 0.0 < self.delta < cap:
            raise ValueError(
                f"delta must lie in (0, {cap}) "
                "(delta < min{1, 8*c*sigma*min(K^2, L^2) / (tau*epsilon^2)})"
            )

    def delta_cap(self) -> float:
        kl2 = min(self.K**2, self.L**2)
        return min(
            1.0, 8.0 * self.c_lip * self.sigma * kl2 / (self.tau * self.epsilon**2)
        )


def gaussian_tail_bound(inp: TailBoundInput) -> float:
    """min(1, 2 K^(m+1) L^(n+1) exp{-T_n tau^2 eps^4 delta^2 /
    (256 c^2 sigma^2 min(K^4, L^4))}), evaluated in log space."""
    kl4 = min(inp.K**4, inp.L**4)
    exponent = (
        inp.T_n * inp.tau**2 * inp.epsilon**4 * inp.delta**2
        / (256.0 * inp.c_lip**2 * inp.sigma**2 * kl4)
    )
    log_bound = (
        math.log(2.0)
        + (inp.m + 1) * math.log(inp.K)
        + (inp.n + 1) * math.log(inp.L)
        - exponent
    )
    if log_bound >= 0.0:
        return 1.0
    return math.exp(log_bound)
