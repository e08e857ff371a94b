"""Block-model data types and seeded synthetic data generation.

Conventions
-----------
- Data matrices are dense, row-major, float64, shape (m, n).
- Row labels take values in {0..K-1}, column labels in {0..L-1}.
- All randomness flows through numpy's PCG64 generator.  Derived streams
  (per restart, per replicate) are obtained from
  ``SeedSequence([base_seed, *path])`` so results are reproducible across
  platforms and safe to compute in parallel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)

FAMILIES = ("bernoulli", "poisson", "gaussian", "student_t")
DESIGNS = ("poisson", "bernoulli", "gaussian", "student_t")

# Reference 2x3 benchmark designs: K=2 row classes, L=3 column classes.
# Poisson/Bernoulli means are scaled by b/sqrt(n) (sparse regime); the
# Gaussian and Student-t means are scaled by b directly (dense regime).
_BASE_MEANS = {
    "poisson": np.array([[0.92, 0.77, 1.66], [0.17, 1.41, 1.45]]),
    "bernoulli": np.array([[0.43, 0.06, 0.13], [0.10, 0.34, 0.17]]),
    "gaussian": np.array([[0.47, 0.15, -0.60], [-0.26, 0.82, 0.80]]),
    "student_t": np.array([[0.47, 0.15, -0.60], [-0.26, 0.82, 0.80]]),
}
_DESIGN_P = np.array([0.3, 0.7])
_DESIGN_Q = np.array([0.2, 0.3, 0.5])


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic sub-stream for (seed, path); safe for parallel use."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def derived_seed(seed: int, *path: int) -> int:
    """A single 64-bit integer seed derived from (seed, path)."""
    ss = np.random.SeedSequence([int(seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class DataMatrix:
    """Dense m-by-n real data matrix."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"data matrix must be 2-dimensional, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"data matrix must be at least 1x1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite entry at ({bad[0]}, {bad[1]})")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelAssignment:
    """Row and column class labels for a matrix."""

    row_labels: np.ndarray
    col_labels: np.ndarray
    K: int
    L: int

    def __post_init__(self):
        g = np.asarray(self.row_labels, dtype=np.int64)
        h = np.asarray(self.col_labels, dtype=np.int64)
        if g.ndim != 1 or h.ndim != 1:
            raise ValueError("label vectors must be 1-dimensional")
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be positive")
        if self.K > g.size or self.L > h.size:
            raise ValueError("K (L) may not exceed the number of rows (columns)")
        if g.size and (g.min() < 0 or g.max() >= self.K):
            raise ValueError("row label out of range")
        if h.size and (h.min() < 0 or h.max() >= self.L):
            raise ValueError("column label out of range")
        object.__setattr__(self, "row_labels", g)
        object.__setattr__(self, "col_labels", h)

    @property
    def m(self) -> int:
        return self.row_labels.size

    @property
    def n(self) -> int:
        return self.col_labels.size

    def row_counts(self) -> np.ndarray:
        return np.bincount(self.row_labels, minlength=self.K)

    def col_counts(self) -> np.ndarray:
        return np.bincount(self.col_labels, minlength=self.L)


def identifiable(M: np.ndarray) -> bool:
    """True if no two rows of M are equal and no two columns are equal."""
    K, L = M.shape
    for a in range(K):
        for a2 in range(a + 1, K):
            if np.array_equal(M[a], M[a2]):
                return False
    for b in range(L):
        for b2 in range(b + 1, L):
            if np.array_equal(M[:, b], M[:, b2]):
                return False
    return True


@dataclass(frozen=True)
class BlockModelSpec:
    """Ground-truth generator parameters.

    ``M`` holds the actual block means used for generation; ``rho`` records
    the scale at which those means were built (so ``M / rho`` is the fixed
    base mean matrix), and is used when normalizing residuals.
    """

    K: int
    L: int
    p: np.ndarray
    q: np.ndarray
    M: np.ndarray
    rho: float
    family: str
    sigma: Optional[float] = None
    nu: Optional[float] = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        M = np.asarray(self.M, dtype=np.float64)
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be positive")
        if p.shape != (self.K,) or q.shape != (self.L,):
            raise ValueError("p must have length K and q length L")
        if np.any(p < 0) or np.any(q < 0):
            raise ValueError("class probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12 or abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("p and q must each sum to 1 within 1e-12")
        if M.shape != (self.K, self.L):
            raise ValueError(f"M must have shape ({self.K}, {self.L}), got {M.shape}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "bernoulli":
            bad = np.argwhere((M < 0) | (M > 1))
            if bad.size:
                k, l = bad[0]
                raise DomainError(
                    f"bernoulli mean {M[k, l]} for block ({k}, {l}) outside [0, 1]"
                )
        if self.family == "poisson":
            bad = np.argwhere(M < 0)
            if bad.size:
                k, l = bad[0]
                raise DomainError(
                    f"poisson mean {M[k, l]} for block ({k}, {l}) is negative"
                )
        if self.family in ("gaussian", "student_t"):
            if self.sigma is None or self.sigma <= 0:
                raise ValueError(f"{self.family} family requires sigma > 0")
        if self.family == "student_t":
            if self.nu is None or self.nu <= 0:
                raise ValueError("student_t family requires nu > 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "M", M)

    def is_identifiable(self) -> bool:
        """True if no two rows of M are equal and no two columns are equal."""
        return identifiable(self.M)


def design_spec(design: str, b: float, n: int) -> BlockModelSpec:
    """Benchmark block-model spec for one of the four reference designs.

    Poisson and Bernoulli designs use mean matrix (b / sqrt(n)) * base and
    record rho = b / sqrt(n); Gaussian and Student-t use b * base with
    rho = 1, sigma = 1 (and nu = 4 for Student-t).
    """
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")
    if n <= 0:
        raise ValueError("n must be positive")
    base = _BASE_MEANS[design]
    if design in ("poisson", "bernoulli"):
        rho = float(b) / np.sqrt(n)
        return BlockModelSpec(
            K=2, L=3, p=_DESIGN_P, q=_DESIGN_Q, M=rho * base, rho=rho, family=design
        )
    return BlockModelSpec(
        K=2,
        L=3,
        p=_DESIGN_P,
        q=_DESIGN_Q,
        M=float(b) * base,
        rho=1.0,
        family=design,
        sigma=1.0,
        nu=4.0 if design == "student_t" else None,
    )


def _draw_labels(rng: np.random.Generator, k: int, size: int, probs: np.ndarray,
                 max_attempts: int = 100) -> np.ndarray:
    """i.i.d. multinomial labels, redrawn until every class is nonempty."""
    for attempt in range(max_attempts):
        labels = rng.choice(k, size=size, p=probs)
        if np.bincount(labels, minlength=k).min() > 0:
            if attempt:
                log.debug("label draw needed %d retries", attempt)
            return labels
    raise RuntimeError(
        f"failed to draw nontrivial labels after {max_attempts} attempts "
        f"(k={k}, size={size})"
    )


def generate(spec: BlockModelSpec, m: int, n: int, seed: int):
    """Sample a data matrix and its ground-truth labels from a block model.

    Returns ``(DataMatrix, LabelAssignment)``.  Identical (spec, m, n, seed)
    yield bit-identical output.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    c = _draw_labels(rng, spec.K, m, spec.p)
    d = _draw_labels(rng, spec.L, n, spec.q)
    mu = spec.M[c][:, d]
    if spec.family == "bernoulli":
        values = (rng.random((m, n)) < mu).astype(np.float64)
    elif spec.family == "poisson":
        values = rng.poisson(mu).astype(np.float64)
    elif spec.family == "gaussian":
        values = mu + spec.sigma * rng.standard_normal((m, n))
    else:  # student_t
        values = mu + spec.sigma * rng.standard_t(spec.nu, size=(m, n))
    labels = LabelAssignment(row_labels=c, col_labels=d, K=spec.K, L=spec.L)
    return DataMatrix(values), labels
