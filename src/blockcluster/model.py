"""Block-model data types, partition rules and seeded data generation.

Conventions
-----------
- Data matrices are dense, row-major, float64, shape (m, n).
- Row labels take values in {0..K-1}, column labels in {0..L-1}.
- A labeling is epsilon-nontrivial when every class of an axis of ``size``
  items holds at least ``class_floor(epsilon, size)``: ``fit``'s ``min_frac``
  and ``residual_supnorm``'s ``epsilon`` both mean this.
- Counts (K <= m, L <= n, sizes, iterations) are ints >= 1 and seeds ints
  >= 0, unbounded, never bools or floats; ``check_int`` checks each on entry.
- All randomness flows through numpy's PCG64 generator.  Derived streams
  (per restart, per replicate) are obtained from
  ``SeedSequence([base_seed, *path])`` so results are reproducible across
  platforms and safe to compute in parallel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .criterion import RATE_KINDS, RateFunction
from .errors import DomainError

log = logging.getLogger(__name__)

DESIGNS = ("poisson", "bernoulli", "gaussian", "student_t")

# Reference 2x3 benchmark designs: K=2 row classes, L=3 column classes.
# Poisson/Bernoulli means are scaled by b/sqrt(n) (sparse regime); the
# Gaussian and Student-t means are scaled by b directly (dense regime).
_BASE_MEANS = {
    "poisson": np.array([[0.92, 0.77, 1.66], [0.17, 1.41, 1.45]]),
    "bernoulli": np.array([[0.43, 0.06, 0.13], [0.10, 0.34, 0.17]]),
    "gaussian": np.array([[0.47, 0.15, -0.60], [-0.26, 0.82, 0.80]]),
}
_BASE_MEANS["student_t"] = _BASE_MEANS["gaussian"]
_DESIGN_P = np.array([0.3, 0.7])
_DESIGN_Q = np.array([0.2, 0.3, 0.5])


def check_int(value, name: str, low: int = 1, high: Optional[int] = None):
    """int(value) for an int or NumPy int (not bool) in [low, high]; else ValueError."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if is_int and low <= value and (high is None or value <= high):
        return int(value)
    top = high if (high or 0) < 2**32 or high & high - 1 else f"2**{high.bit_length() - 1}"
    span = f">= {low} and an integer" if high is None else f"an integer in [{low}, {top}]"
    raise ValueError(f"{name} must be {span}" + ("" if is_int else f", got {value!r}"))


def check_real(value, name: str, low: Optional[float] = None) -> float:
    """float(value) for a finite real number (not bool), at least ``low`` if
    given; else ValueError."""
    try:
        if not isinstance(value, bool) and math.isfinite(value) and \
                (low is None or value >= low):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int past floats
        pass
    span = "a real number" if low is None else f">= {low}"
    raise ValueError(f"{name} must be finite and {span}, got {value!r}")


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a float array of finite entries; else ValueError naming
    ``name``."""
    try:
        v = np.asarray(values, dtype=np.float64)
        if np.isfinite(v).all():
            return v
    except (TypeError, ValueError, OverflowError):  # text, ragged, an int past floats
        pass
    raise ValueError(f"{name} must hold only finite real numbers")


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic sub-stream for (seed, path); safe for parallel use."""
    return np.random.default_rng([check_int(seed, "seed", 0), *map(int, path)])


def derived_seed(seed: int, *path: int) -> int:
    """A single 64-bit integer seed derived from (seed, path)."""
    ss = np.random.SeedSequence([check_int(seed, "seed", 0), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class DataMatrix:
    """Dense m-by-n real data matrix of finite entries, whose rows, columns
    and total have sums of squares of at most max_float / (8 max(m, n)),
    half of what k-means's summed squared distances and the Gaussian rate
    terms can hold; checked once, here.  ``values`` is a read-only view of
    the array given, not a copy: writes to that array reach X."""

    values: np.ndarray

    def __post_init__(self):
        try:
            v = np.asarray(self.values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):  # text, ragged, an int past floats
            raise ValueError("values must hold only finite real numbers") from None
        if v.ndim != 2:
            raise ValueError(f"data matrix must be 2-dimensional, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"data matrix must be at least 1x1, got shape {v.shape}")
        limit = np.finfo(np.float64).max / (8 * max(v.shape))
        with np.errstate(over="ignore"):  # a sum <= limit is finite and bounds every norm
            total = np.vdot(v, v)
            if not total <= limit:
                if not np.isfinite(v).all():
                    i, j = np.argwhere(~np.isfinite(v))[0]
                    raise ValueError(f"values has a non-finite entry at ({i}, {j})")
                rows, cols = np.einsum("ij,ij->i", v, v), np.einsum("ij,ij->j", v, v)
                for name, sq in ("row {}", rows), ("column {}", cols), ("X", total[None]):
                    i = int(np.argmax(sq > limit))
                    if sq[i] > limit:
                        raise DomainError(f"the squared norm of {name.format(i)} "
                                          f"({sq[i]:.3g}) exceeds {limit:.3g}: "
                                          "squared sums would overflow")
        v = v.view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so a copy is
        # checked and its values are read-only too
        return DataMatrix, (self.values,)

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
        for key, k in (("row_labels", "K"), ("col_labels", "L")):
            v = np.asarray(getattr(self, key))
            if v.ndim != 1 or v.dtype.kind not in "iu":
                raise ValueError(f"{key} must be a 1-D integer array, got {v.dtype} {v.shape}")
            check_int(getattr(self, k), k, 1, v.size)
            v = v.astype(np.int64, copy=False)  # no copy: fit makes one per kept sweep
            if v.min() < 0 or v.max() >= getattr(self, k):
                raise ValueError(f"{key} must lie in [0, {k})")
            object.__setattr__(self, key, v)

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
    # the columns of M are the rows of M.T; unique counts -0.0 as 0.0
    return all(len(np.unique(A, axis=0)) == len(A) for A in (M, M.T))


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
        p, q, M = (_finite(getattr(self, key), key) for key in "pqM")
        check_int(self.K, "K")
        check_int(self.L, "L")
        if p.shape != (self.K,) or q.shape != (self.L,):
            raise ValueError("p must have length K and q length L")
        if np.any(p < 0) or np.any(q < 0):
            raise ValueError("class probabilities must be nonnegative")
        if not (abs(p.sum() - 1.0) <= 1e-12 and abs(q.sum() - 1.0) <= 1e-12):
            raise ValueError("p and q must each sum to 1 within 1e-12")
        if M.shape != (self.K, self.L):
            raise ValueError(f"M must have shape ({self.K}, {self.L}), got {M.shape}")
        if not 0 < check_real(self.rho, "rho"):
            raise ValueError("rho must be positive and finite")
        if self.family not in DESIGNS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in RATE_KINDS:
            RateFunction(self.family).check(M, "M")
        if self.family in ("gaussian", "student_t"):
            if self.sigma is None or not 0 < check_real(self.sigma, "sigma"):
                raise ValueError(f"{self.family} family requires a finite sigma > 0")
        if self.family == "student_t":
            if self.nu is None or not 0 < check_real(self.nu, "nu"):
                raise ValueError("student_t family requires a finite nu > 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "M", M)


def design_spec(design: str, b: float, n: int) -> BlockModelSpec:
    """Benchmark block-model spec for one of the four reference designs.

    Poisson and Bernoulli designs use mean matrix (b / sqrt(n)) * base and
    record rho = b / sqrt(n); Gaussian and Student-t use b * base with
    rho = 1, sigma = 1 (and nu = 4 for Student-t).
    """
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")
    check_int(n, "n", 1, 2**53)
    b = check_real(b, "b")
    sparse = design in ("poisson", "bernoulli")
    rho = b / math.sqrt(n) if sparse else 1.0
    return BlockModelSpec(K=2, L=3, p=_DESIGN_P, q=_DESIGN_Q,
                          M=(rho if sparse else b) * _BASE_MEANS[design], rho=rho,
                          family=design, sigma=None if sparse else 1.0,
                          nu=4.0 if design == "student_t" else None)


def class_floor(frac: float, size: int) -> int:
    """The least count c >= 1 with c >= frac * size: the floor on each class
    of an axis of ``size`` items.  frac * size is exact in the decimal that
    frac prints as (0.14 * 50 is 7, not 7.000000000000001)."""
    return max(1, math.ceil(Fraction(repr(float(frac))) * size))


def class_floors(frac: float, name: str, K: int, L: int, m: int,
                 n: int) -> tuple[int, int]:
    """``class_floor(frac, m)`` and ``class_floor(frac, n)`` for K row and L
    column classes.  Raises ValueError naming ``name``, the caller's word
    for ``frac``, if frac is not a finite real number >= 0, or if no
    labeling can meet the floors: K classes of the row floor hold more than
    m items, or L of the column floor more than n."""
    frac = check_real(frac, name, 0)
    floors = class_floor(frac, m), class_floor(frac, n)
    for k, classes, floor, size, items in (("K", K, floors[0], "m", m),
                                           ("L", L, floors[1], "n", n)):
        if classes * floor > items:
            raise ValueError(f"{k} = {classes} classes of at least {floor} items "
                             f"({name} {frac}) exceed {size} = {items}")
    return floors


def draw_labels(rng: np.random.Generator, k: int, size: int, floor: int = 1,
                p: Optional[np.ndarray] = None, max_attempts: int = 100) -> np.ndarray:
    """i.i.d. labels over k classes, uniform or with probabilities ``p``,
    redrawn until every class holds at least ``floor`` items."""
    for attempt in range(max_attempts):
        labels = rng.choice(k, size=size, p=p)
        if np.bincount(labels, minlength=k).min() >= floor:
            if attempt:
                log.debug("label draw needed %d retries", attempt)
            return labels
    raise RuntimeError(
        f"failed to draw labels with classes of at least {floor} items after "
        f"{max_attempts} attempts (k={k}, size={size})"
    )


def generate(spec: BlockModelSpec, m: int, n: int, seed: int):
    """Sample a data matrix and its ground-truth labels from a block model.

    Returns ``(DataMatrix, LabelAssignment)``.  Identical (spec, m, n, seed)
    yield bit-identical output.
    """
    check_int(m, "m", spec.K)
    check_int(n, "n", spec.L)
    rng = derived_rng(seed)
    c = draw_labels(rng, spec.K, m, p=spec.p)
    d = draw_labels(rng, spec.L, n, p=spec.q)
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
