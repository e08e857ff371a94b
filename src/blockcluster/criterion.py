"""Rate functions, per-bicluster statistics, and the criterion F.

The criterion for labels (g, h) is

    F(g, h) = m * n * sum_kl  p_k * q_l * f(Xbar_kl)
            = sum_kl  N_kl * f(S_kl / N_kl),

where S_kl and N_kl are the within-bicluster sum and size, and f is one of
the three convex rate functions (bernoulli, poisson, gaussian).  The scale
used at fit time is always 1; any true generative scale lives only in the
generator spec.

Sums of rate terms use math.fsum so F is exactly invariant under
relabeling permutations of the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, PartitionError

if TYPE_CHECKING:  # model imports this module for the rate domains
    from .model import DataMatrix, LabelAssignment

RATE_KINDS = ("bernoulli", "poisson", "gaussian")


@dataclass(frozen=True)
class RateFunction:
    """One of the three convex rate functions, vectorized over means.

    Boundary conventions: x*log(x) -> 0 as x -> 0, so the bernoulli rate is
    0 at both endpoints and the poisson rate is 0 at zero.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in RATE_KINDS:
            raise ValueError(f"unknown rate kind {self.kind!r}")

    @property
    def domain(self) -> str:
        return {"bernoulli": "[0, 1]", "poisson": "[0, inf)", "gaussian": "(-inf, inf)"}[
            self.kind
        ]

    def check(self, values, name: str) -> np.ndarray:
        """``values`` as a float64 array; raises DomainError naming ``name``
        and the first entry, in row-major order, outside the domain.

        Every domain is an interval, so the block means of data inside it
        stay inside it: ``fit`` checks its data once, on entry, and the rate
        terms it sums check nothing.
        """
        values = np.asarray(values, dtype=np.float64)
        if self.kind == "gaussian":
            return values
        bad = values < 0
        if self.kind == "bernoulli":
            bad |= values > 1
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            index = f"[{', '.join(map(str, at))}]" if at else ""
            raise DomainError(f"{name}{index} = {float(values[at])} lies outside the "
                              f"{self.kind} rate domain {self.domain}")
        return values

    def evaluate(self, mu):
        """f(mu), elementwise; raises DomainError outside the domain."""
        out = self.unchecked(self.check(mu, "mu"))
        return out if out.ndim else float(out)

    def unchecked(self, mu: np.ndarray) -> np.ndarray:
        """f(mu) for a float array, without the domain check.  A mean that
        rounding pushes just past a boundary takes the boundary value."""
        if self.kind == "gaussian":
            out = 0.5 * mu
            out *= mu
            return out
        out = np.zeros_like(mu)
        if self.kind == "poisson":
            pos = mu > 0
            mp = mu[pos]
            out[pos] = mp * np.log(mp) - mp
        else:
            inner = (mu > 0) & (mu < 1)
            mi = mu[inner]
            out[inner] = mi * np.log(mi) + (1.0 - mi) * np.log1p(-mi)
        return out


rate_function = RateFunction


@dataclass(frozen=True)
class BlockStats:
    """Per-bicluster sums and sizes for a labeled matrix.

    N_kl = row_counts[k] * col_counts[l] by construction.  ``R`` (m, L)
    holds each row's sums against the column classes; S adds them up by
    row class.
    """

    S: np.ndarray
    row_counts: np.ndarray
    col_counts: np.ndarray
    R: np.ndarray

    @property
    def N(self) -> np.ndarray:
        return np.outer(self.row_counts, self.col_counts)


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def check_shape(X: DataMatrix, labels: LabelAssignment) -> None:
    """Raise ValueError unless the labels have X's row and column counts."""
    if labels.m != X.m or labels.n != X.n:
        raise ValueError(
            f"label dimensions ({labels.m}, {labels.n}) do not match matrix "
            f"({X.m}, {X.n})"
        )


def block_stats(X: DataMatrix, labels: LabelAssignment,
                R: np.ndarray | None = None) -> BlockStats:
    """Exact within-bicluster sums and class counts.  ``R``, if given, is
    the (m, L) row lines of X against the column classes of ``labels`` as
    computed here, and is used in place of computing them again."""
    check_shape(X, labels)
    if R is None:
        R = X.values @ _one_hot(labels.col_labels, labels.L)
    # per column class, the row lines added class by class in row order,
    # from 0.0: the additions np.add.at would make, in fewer passes
    S = np.stack([np.bincount(labels.row_labels, weights=R[:, l], minlength=labels.K)
                  for l in range(labels.L)], axis=1)
    return BlockStats(
        S=S, row_counts=labels.row_counts(), col_counts=labels.col_counts(), R=R
    )


def cell_terms(S: np.ndarray, N: np.ndarray, f: RateFunction) -> np.ndarray:
    """N * f(S / N) for every cell of a stack of bicluster sums S, whose
    sizes N broadcast against S.  The one rate-term kernel: it serves F,
    the single-move deltas and the sweep's scoring, on rows and, through
    transposed views, on columns.  No domain check.
    """
    out = f.unchecked(S / N)
    out *= N
    return out


def criterion_value(stats: BlockStats, f: RateFunction) -> float:
    """F = sum_kl N_kl * f(S_kl / N_kl).  Requires a nontrivial partition."""
    if stats.row_counts.min() == 0 or stats.col_counts.min() == 0:
        raise PartitionError("criterion undefined: some row or column class is empty")
    return math.fsum(cell_terms(stats.S, stats.N, f).ravel().tolist())


def line_move(pairs: np.ndarray, counts: np.ndarray, other_counts: np.ndarray,
              lines: np.ndarray, f: RateFunction) -> np.ndarray:
    """Criterion changes of a stack of single-item moves on one axis.

    Move t takes an item with sums ``lines[t]`` against the opposite classes
    from class a to class k: ``pairs[t]`` holds the class lines (S[a], S[k])
    just before the move, ``counts[t]`` their sizes and ``other_counts[t]``
    the opposite class sizes.  Each line's cell terms are summed on their
    own, and the change is (new_a + new_k) - (old_a + old_k).  ``move_delta``
    (one move) and the sweep (all of its moves on an axis) both go through
    here.
    """
    other = other_counts[:, None, :]
    before = cell_terms(pairs, counts[..., None] * other, f)
    after = cell_terms(np.stack([pairs[:, 0] - lines, pairs[:, 1] + lines], axis=1),
                       (counts + np.array([-1, 1]))[..., None] * other, f)
    old, new = before.sum(axis=2), after.sum(axis=2)
    return (new[:, 0] + new[:, 1]) - (old[:, 0] + old[:, 1])


def move_delta(stats: BlockStats, X: DataMatrix, labels: LabelAssignment,
               axis: str, index: int, new_label: int, f: RateFunction) -> float:
    """F(after) - F(before) for a single-label move, touching only the two
    affected classes.  No domain check (see ``RateFunction.check``)."""
    from .model import check_int  # model imports this module

    check_shape(X, labels)
    if axis == "row":
        data, current, opposite = X.values, labels.row_labels, labels.col_labels
        S, counts, other = stats.S, stats.row_counts, stats.col_counts
    elif axis == "col":
        data, current, opposite = X.values.T, labels.col_labels, labels.row_labels
        S, counts, other = stats.S.T, stats.col_counts, stats.row_counts
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    name = "row" if axis == "row" else "column"
    index = check_int(index, "index", 0, current.size - 1)
    new_label = check_int(new_label, "new_label", 0, counts.size - 1)
    old = current[index]
    if new_label == old:
        return 0.0
    if counts[old] <= 1:
        raise PartitionError(f"moving {name} {index} would empty {name} class {old}")
    pair = [old, new_label]
    line = np.bincount(opposite, weights=data[index], minlength=other.size)
    delta = line_move(S[pair][None], counts[pair][None], other[None], line[None], f)
    return float(delta[0])
