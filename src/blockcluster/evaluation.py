"""Ground-truth comparison and numerical diagnostics.

Includes confusion matrices, permutation-matched misclassification, the
population criterion G(C, D), a sampled check of the population gap
inequality, a sampled sup-norm of the normalized residual matrix over
epsilon-nontrivial labelings (``model.class_floor``), and the Gaussian
finite-sample tail-bound calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .criterion import RateFunction, block_stats, check_shape
from .model import (
    BlockModelSpec, DataMatrix, LabelAssignment, _finite, check_int, check_real,
    class_floors, derived_rng, draw_labels, identifiable,
)

def _max_offdiag_product(A: np.ndarray) -> float:
    """max over columns k and rows a != a' of A[a,k] * A[a',k]: for the
    nonnegative A in use, the product of a column's two largest entries."""
    if len(A) < 2:
        return 0.0
    top = np.sort(A, axis=0)[-2:]
    return float((top[0] * top[1]).max())


@dataclass(frozen=True)
class ConfusionPair:
    """Joint-proportion confusion matrices for rows (C) and columns (D), of
    finite nonnegative entries."""

    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for key in "CD":
            v = _finite(getattr(self, key), key)
            if (v < 0).any():
                raise ValueError(f"{key} must hold only nonnegative entries")
            object.__setattr__(self, key, v)

    def rows_near_diagonal(self, delta: float) -> bool:
        """True if C lies in the delta-neighborhood of permuted diagonals."""
        return _max_offdiag_product(self.C) < delta

    def in_neighborhood(self, delta: float) -> bool:
        return self.rows_near_diagonal(delta) and _max_offdiag_product(self.D) < delta


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
    C, D, M0 = _finite(C, "C"), _finite(D, "D"), _finite(M0, "M0")
    for name, A in (("C", C), ("D", D)):
        if not ((A >= 0).all() and abs(A.sum() - 1.0) <= 1e-9):
            raise ValueError(f"confusion matrix {name} must be nonnegative and sum to 1")
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
    M0, p, q = _finite(M0, "M0"), _finite(p, "p"), _finite(q, "q")
    if M0.ndim != 2 or p.shape != M0.shape[:1] or q.shape != M0.shape[1:]:
        raise ValueError(f"p and q must have the lengths K and L of the K x L matrix M0, "
                         f"got {p.shape}, {q.shape} and {M0.shape}")
    if not identifiable(M0):
        raise ValueError("mean matrix has two identical rows or columns")
    check_int(trials, "trials")
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


def residual_supnorm(X: DataMatrix, truth: LabelAssignment, spec: BlockModelSpec,
                     samples: int, epsilon: float, seed: int) -> float:
    """Max over sampled epsilon-nontrivial labelings of the sup-norm of the
    normalized residual (Xbar - E) / rho.

    The labelings are uniform, redrawn until every class meets
    ``class_floor(epsilon, size)`` as ``fit`` with ``min_frac = epsilon``
    does.  E is the conditional expectation of the bicluster means given the
    true classes; the returned value is a sampled lower bound on the
    supremum over all such labelings.  An epsilon that is negative, not
    finite or sets a floor no labeling meets raises ValueError.
    """
    check_shape(X, truth)
    if spec.K != truth.K or spec.L != truth.L:
        raise ValueError("spec and truth class counts disagree")
    check_int(samples, "samples")
    rng = derived_rng(seed)
    row_floor, col_floor = class_floors(epsilon, "epsilon", spec.K, spec.L, X.m, X.n)
    worst = 0.0
    for _ in range(samples):
        g = draw_labels(rng, spec.K, X.m, row_floor, max_attempts=1000)
        h = draw_labels(rng, spec.L, X.n, col_floor, max_attempts=1000)
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
            check_int(getattr(self, name), name, 1, 2**53)
        # a float that is NaN or inf fails the intervals below; any other
        # value is checked, and kept as a float for the exact rationals
        for name in ("epsilon", "delta", "tau", "sigma", "c_lip"):
            if not isinstance(getattr(self, name), float):
                object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        for name in ("tau", "sigma", "c_lip"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        cap = self.delta_cap()
        if not 0.0 < self.delta < cap:
            raise ValueError(
                f"delta must lie in (0, {cap}) "
                "(delta < min{1, 8*c*sigma*min(K^2, L^2) / (tau*epsilon^2)})"
            )

    def delta_cap(self) -> float:
        kl2 = min(self.K, self.L) ** 2
        return float(min(1, 8 * Fraction(self.c_lip) * Fraction(self.sigma) * kl2
                         / (Fraction(self.tau) * Fraction(self.epsilon) ** 2)))


def gaussian_tail_bound(inp: TailBoundInput) -> float:
    """min(1, 2 K^(m+1) L^(n+1) exp{-T_n tau^2 eps^4 delta^2 /
    (256 c^2 sigma^2 min(K^4, L^4))}), evaluated in log space.  The exponent
    and ``delta_cap`` are exact rationals rounded once, so no input in range
    overflows or divides by an underflowed zero; delta below its cap keeps
    the exponent under T_n / 4."""
    exponent = (
        inp.T_n * Fraction(inp.tau) ** 2 * Fraction(inp.epsilon) ** 4
        * Fraction(inp.delta) ** 2
        / (256 * Fraction(inp.c_lip) ** 2 * Fraction(inp.sigma) ** 2
           * min(inp.K, inp.L) ** 4)
    )
    log_bound = (
        math.log(2.0)
        + (inp.m + 1) * math.log(inp.K)
        + (inp.n + 1) * math.log(inp.L)
        - float(exponent)
    )
    if log_bound >= 0.0:
        return 1.0
    return math.exp(log_bound)
