import math

import numpy as np
import pytest

import blockcluster as bc
from blockcluster.criterion import (
    block_stats,
    criterion_value,
    line_blocks,
    move_delta,
    rate_function,
)
from blockcluster.errors import DomainError, PartitionError


def brute_force_stats(X, labels):
    """Reference double-loop computation of the bicluster sums."""
    S = np.zeros((labels.K, labels.L))
    N = np.zeros((labels.K, labels.L), dtype=int)
    for i in range(labels.m):
        for j in range(labels.n):
            k, l = labels.row_labels[i], labels.col_labels[j]
            S[k, l] += X.values[i, j]
            N[k, l] += 1
    return S, N


def brute_force_criterion(X, labels, f):
    S, N = brute_force_stats(X, labels)
    total = 0.0
    for k in range(labels.K):
        for l in range(labels.L):
            if N[k, l]:
                total += N[k, l] * f.evaluate(S[k, l] / N[k, l])
    return total


def random_labels(rng, m, n, K, L):
    """Labels with every class nonempty."""
    while True:
        g = rng.integers(0, K, size=m)
        h = rng.integers(0, L, size=n)
        if (
            np.bincount(g, minlength=K).min() > 0
            and np.bincount(h, minlength=L).min() > 0
        ):
            return bc.LabelAssignment(g, h, K, L)


class TestRates:
    @pytest.mark.parametrize(
        "kind,mu,expected",
        [
            ("gaussian", 2.0, 2.0),
            ("poisson", 1.0, -1.0),
            ("bernoulli", 0.5, -math.log(2)),
            ("bernoulli", 0.0, 0.0),
            ("bernoulli", 1.0, 0.0),
            ("poisson", 0.0, 0.0),
        ],
    )
    def test_values(self, kind, mu, expected):
        assert rate_function(kind).evaluate(mu) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "kind,mu", [("bernoulli", -0.1), ("bernoulli", 1.1), ("poisson", -1.0)]
    )
    def test_domain_errors(self, kind, mu):
        with pytest.raises(DomainError, match=rf"^mu = {mu} lies outside the {kind} rate"):
            rate_function(kind).evaluate(mu)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rate_function("cauchy")

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "gaussian"])
    def test_convexity_on_grid(self, kind):
        f = rate_function(kind)
        grid = {
            "bernoulli": np.linspace(1e-6, 1 - 1e-6, 2000),
            "poisson": np.linspace(1e-6, 50, 2000),
            "gaussian": np.linspace(-50, 50, 2000),
        }[kind]
        vals = f.evaluate(grid)
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second_diff.min() >= -1e-9

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "gaussian"])
    def test_midpoint_convexity_random_pairs(self, kind):
        f = rate_function(kind)
        rng = np.random.default_rng(3)
        if kind == "bernoulli":
            a, b = rng.random(1000), rng.random(1000)
        elif kind == "poisson":
            a, b = 100 * rng.random(1000), 100 * rng.random(1000)
        else:
            a, b = rng.normal(0, 10, 1000), rng.normal(0, 10, 1000)
        mid = f.evaluate(0.5 * (a + b))
        assert np.all(mid <= 0.5 * f.evaluate(a) + 0.5 * f.evaluate(b) + 1e-9)


class TestCheck:
    """``RateFunction.check``, the one rate-domain check: of the data in
    ``fit``, of the means in ``evaluate`` and of a ``BlockModelSpec``'s M."""

    # 0-d, 1-d and 2-d inputs: the 1-d and 2-d ones hold two entries outside
    # the domain, and column-major order would meet the second one first
    @pytest.mark.parametrize("kind, values, named", [
        ("poisson", -0.5, "v = -0.5"),
        ("poisson", [0.0, 3.0, -2.0, -1.0], "v[2] = -2.0"),
        ("poisson", [[0.0, 1.0, -7.0], [-1.0, 2.0, 0.0]], "v[0, 2] = -7.0"),
        ("bernoulli", 1.5, "v = 1.5"),
        ("bernoulli", [1.0, -0.25, 2.0], "v[1] = -0.25"),
        ("bernoulli", [[0.0, 0.5, 3.0], [-1.0, 1.0, 0.0]], "v[0, 2] = 3.0"),
    ])
    def test_names_the_first_entry_outside(self, kind, values, named):
        f = rate_function(kind)
        for order in "CF":
            with pytest.raises(DomainError) as info:
                f.check(np.array(values, order=order), "v")
            domain = {"poisson": "[0, inf)", "bernoulli": "[0, 1]"}[kind]
            assert str(info.value) == f"{named} lies outside the {kind} rate domain {domain}"
        # nothing is outside the gaussian domain
        out = rate_function("gaussian").check(values, "v")
        np.testing.assert_array_equal(out, values)

    @pytest.mark.parametrize("kind, values", [
        ("poisson", 0.0), ("poisson", [0.0, 4.5, -0.0]), ("poisson", [[0, 2], [3, 0]]),
        ("bernoulli", 1.0), ("bernoulli", [0.0, 1.0, 0.5]), ("bernoulli", [[0, 1], [1, 0]]),
        ("gaussian", -3), ("gaussian", [-1e300, 0.0, 2.5]), ("gaussian", [[-1, 2], [3, -4]]),
    ])
    def test_values_inside_come_back_unchanged_as_float64(self, kind, values):
        f = rate_function(kind)
        out = f.check(values, "v")
        assert out.dtype == np.float64 and out.shape == np.shape(values)
        np.testing.assert_array_equal(out, values)
        array = np.asarray(values, dtype=np.float64)
        assert f.check(array, "v") is array


class TestBlockStats:
    def test_single_block(self):
        X = bc.DataMatrix([[1.0, 3.0], [5.0, 7.0]])
        labels = bc.LabelAssignment([0, 0], [0, 0], 1, 1)
        stats = block_stats(X, labels)
        assert stats.S[0, 0] == 16 and stats.N[0, 0] == 4
        assert stats.S[0, 0] / stats.N[0, 0] == 4.0

    def test_singleton_blocks(self):
        X = bc.DataMatrix([[1.0, 3.0], [5.0, 7.0]])
        labels = bc.LabelAssignment([0, 1], [0, 1], 2, 2)
        stats = block_stats(X, labels)
        assert np.array_equal(stats.S / stats.N, X.values)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        X = bc.DataMatrix(rng.standard_normal((6, 6)))
        labels = random_labels(rng, 6, 6, 2, 3)
        stats = block_stats(X, labels)
        S, N = brute_force_stats(X, labels)
        assert np.allclose(stats.S, S)
        assert np.array_equal(stats.N, N)
        R = [[X.values[i, labels.col_labels == l].sum() for l in range(3)]
             for i in range(6)]
        assert np.allclose(line_blocks(X.values, labels.col_labels, 3)[0], R)

    def test_dimension_mismatch(self):
        X = bc.DataMatrix(np.zeros((3, 4)))
        labels = bc.LabelAssignment([0, 0], [0, 0, 0, 0], 1, 1)
        with pytest.raises(ValueError, match="do not match"):
            block_stats(X, labels)


class TestCriterionValue:
    def test_single_block_gaussian(self):
        X = bc.DataMatrix([[1.0, 3.0], [5.0, 7.0]])
        labels = bc.LabelAssignment([0, 0], [0, 0], 1, 1)
        value = criterion_value(block_stats(X, labels), rate_function("gaussian"))
        assert value == pytest.approx(32.0)

    def test_singleton_blocks_gaussian(self):
        X = bc.DataMatrix([[1.0, 3.0], [5.0, 7.0]])
        labels = bc.LabelAssignment([0, 1], [0, 1], 2, 2)
        value = criterion_value(block_stats(X, labels), rate_function("gaussian"))
        assert value == pytest.approx(42.0)

    def test_matches_brute_force_poisson(self):
        rng = np.random.default_rng(21)
        X = bc.DataMatrix(rng.poisson(4.0, (8, 8)).astype(float))
        f = rate_function("poisson")
        for _ in range(10):
            labels = random_labels(rng, 8, 8, 2, 3)
            value = criterion_value(block_stats(X, labels), f)
            assert value == pytest.approx(brute_force_criterion(X, labels, f), rel=1e-12)

    def test_empty_class_raises(self):
        X = bc.DataMatrix(np.ones((3, 3)))
        labels = bc.LabelAssignment([0, 0, 0], [0, 0, 0], 2, 1)
        with pytest.raises(PartitionError):
            criterion_value(block_stats(X, labels), rate_function("gaussian"))

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(31)
        f = rate_function("gaussian")
        X = bc.DataMatrix(rng.standard_normal((10, 12)))
        labels = random_labels(rng, 10, 12, 3, 4)
        base = criterion_value(block_stats(X, labels), f)
        for _ in range(20):
            pk = rng.permutation(3)
            pl = rng.permutation(4)
            permuted = bc.LabelAssignment(
                pk[labels.row_labels], pl[labels.col_labels], 3, 4
            )
            assert criterion_value(block_stats(X, permuted), f) == base

    def test_merging_identical_mean_blocks_preserves_value(self):
        # two column classes with identical block means; merging them
        # leaves the criterion unchanged (Jensen equality case)
        X = bc.DataMatrix(np.array([[2.0, 2.0, 5.0], [2.0, 2.0, 5.0]]))
        f = rate_function("poisson")
        split = bc.LabelAssignment([0, 0], [0, 1, 2], 1, 3)
        merged = bc.LabelAssignment([0, 0], [0, 0, 1], 1, 2)
        v_split = criterion_value(block_stats(X, split), f)
        v_merged = criterion_value(block_stats(X, merged), f)
        assert v_split == pytest.approx(v_merged, rel=1e-12)

    def test_poisson_scale_shift(self):
        # F_{cX}(g,h) = c*F_X(g,h) + (sum of cX) * log(c) for any labeling
        rng = np.random.default_rng(41)
        X = bc.DataMatrix(rng.poisson(3.0, (9, 9)).astype(float) + 0.5)
        f = rate_function("poisson")
        c = 2.75
        Xs = bc.DataMatrix(c * X.values)
        for _ in range(10):
            labels = random_labels(rng, 9, 9, 2, 2)
            fx = criterion_value(block_stats(X, labels), f)
            fxs = criterion_value(block_stats(Xs, labels), f)
            shift = Xs.values.sum() * math.log(c)
            assert fxs - c * fx - shift == pytest.approx(0.0, abs=1e-8 * abs(fxs))


class TestMoveDelta:
    def test_noop_move(self):
        rng = np.random.default_rng(51)
        X = bc.DataMatrix(rng.standard_normal((5, 5)))
        labels = random_labels(rng, 5, 5, 2, 2)
        stats = block_stats(X, labels)
        i = 0
        assert (
            move_delta(stats, X, labels, "row", i, labels.row_labels[i],
                       rate_function("gaussian"))
            == 0.0
        )

    def test_matches_full_recompute(self):
        rng = np.random.default_rng(61)
        f = rate_function("gaussian")
        X = bc.DataMatrix(rng.standard_normal((10, 10)))
        labels = random_labels(rng, 10, 10, 3, 3)
        for _ in range(50):
            axis = "row" if rng.random() < 0.5 else "col"
            size = 10
            idx = int(rng.integers(size))
            k = labels.K if axis == "row" else labels.L
            new = int(rng.integers(k))
            stats = block_stats(X, labels)
            vec = labels.row_labels if axis == "row" else labels.col_labels
            counts = stats.row_counts if axis == "row" else stats.col_counts
            if new != vec[idx] and counts[vec[idx]] <= 1:
                continue
            delta = move_delta(stats, X, labels, axis, idx, new, f)
            g = labels.row_labels.copy()
            h = labels.col_labels.copy()
            (g if axis == "row" else h)[idx] = new
            after = bc.LabelAssignment(g, h, labels.K, labels.L)
            full = criterion_value(block_stats(X, after), f) - criterion_value(
                stats, f
            )
            scale = max(1.0, abs(criterion_value(stats, f)))
            assert abs(delta - full) <= 1e-9 * scale
            labels = after

    def test_cumulative_deltas_match_endpoint(self):
        rng = np.random.default_rng(71)
        f = rate_function("poisson")
        X = bc.DataMatrix(rng.poisson(5.0, (12, 12)).astype(float))
        labels = random_labels(rng, 12, 12, 3, 3)
        start = criterion_value(block_stats(X, labels), f)
        total = 0.0
        applied = 0
        while applied < 100:
            axis = "row" if rng.random() < 0.5 else "col"
            idx = int(rng.integers(12))
            k = labels.K if axis == "row" else labels.L
            new = int(rng.integers(k))
            stats = block_stats(X, labels)
            vec = labels.row_labels if axis == "row" else labels.col_labels
            counts = stats.row_counts if axis == "row" else stats.col_counts
            if new != vec[idx] and counts[vec[idx]] <= 1:
                continue
            total += move_delta(stats, X, labels, axis, idx, new, f)
            g = labels.row_labels.copy()
            h = labels.col_labels.copy()
            (g if axis == "row" else h)[idx] = new
            labels = bc.LabelAssignment(g, h, labels.K, labels.L)
            applied += 1
        end = criterion_value(block_stats(X, labels), f)
        assert total == pytest.approx(end - start, rel=1e-7, abs=1e-7)

    def test_emptying_move_raises(self):
        X = bc.DataMatrix(np.ones((3, 3)))
        labels = bc.LabelAssignment([0, 1, 1], [0, 0, 0], 2, 1)
        stats = block_stats(X, labels)
        with pytest.raises(PartitionError):
            move_delta(stats, X, labels, "row", 0, 1, rate_function("gaussian"))

    @pytest.mark.parametrize("axis, index, new_label, name", [
        ("row", -1, 1, "index"),      # not read as row m - 1
        ("row", 6, 1, "index"),       # m
        ("col", 5, 0, "index"),       # n
        ("row", 0, 1.5, "new_label"),
        ("col", 0, 2, "new_label"),   # L
        ("row", 0, -1, "new_label"),
    ])
    def test_bad_index_or_label_raises_naming_it(self, axis, index, new_label, name):
        rng = np.random.default_rng(81)
        X = bc.DataMatrix(rng.standard_normal((6, 5)))
        labels = bc.LabelAssignment(np.arange(6) % 3, np.arange(5) % 2, 3, 2)
        stats = block_stats(X, labels)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, "):
            move_delta(stats, X, labels, axis, index, new_label, rate_function("gaussian"))

    def test_labels_of_another_shape_raise(self):
        rng = np.random.default_rng(82)
        X = bc.DataMatrix(rng.standard_normal((6, 5)))
        labels = bc.LabelAssignment(np.arange(6) % 2, np.arange(5) % 2, 2, 2)
        stats = block_stats(X, labels)
        tall = bc.DataMatrix(np.vstack([X.values, X.values]))  # rows 0-5 as X's
        with pytest.raises(ValueError, match="do not match"):
            move_delta(stats, tall, labels, "row", 0, 1, rate_function("gaussian"))
