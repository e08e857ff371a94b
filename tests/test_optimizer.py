import itertools

import numpy as np
import pytest

import blockcluster as bc
from blockcluster import optimizer
from blockcluster.criterion import block_stats, criterion_value, rate_function
from blockcluster.errors import DomainError, PartitionError
from blockcluster.optimizer import FitConfig, fit, kl_sweep, kmeans_init


def planted_matrix(means, g, h, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    mu = np.asarray(means)[np.asarray(g)][:, np.asarray(h)]
    return bc.DataMatrix(mu + noise * rng.standard_normal(mu.shape))


def exhaustive_max(X, K, L, f):
    """Global criterion maximum over all nontrivial labelings (tiny m, n)."""
    m, n = X.m, X.n
    best = -np.inf
    for g in itertools.product(range(K), repeat=m):
        if len(set(g)) < K:
            continue
        for h in itertools.product(range(L), repeat=n):
            if len(set(h)) < L:
                continue
            labels = bc.LabelAssignment(np.array(g), np.array(h), K, L)
            best = max(best, criterion_value(block_stats(X, labels), f))
    return best


class TestKmeansInit:
    def test_repeated_patterns_separate(self):
        pattern = np.array([[0.0, 0.0, 5.0, 5.0], [5.0, 5.0, 0.0, 0.0]])
        X = bc.DataMatrix(pattern[[0, 1, 0, 1, 0, 1]])
        labels = kmeans_init(X, K=2, L=1, seed=0)
        g = labels.row_labels
        assert g[0] == g[2] == g[4]
        assert g[1] == g[3] == g[5]
        assert g[0] != g[1]

    def test_k_equals_m_singletons(self):
        rng = np.random.default_rng(2)
        X = bc.DataMatrix(rng.standard_normal((5, 4)))
        labels = kmeans_init(X, K=5, L=1, seed=0)
        assert sorted(labels.row_labels) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = bc.DataMatrix(rng.standard_normal((20, 15)))
        a = kmeans_init(X, 3, 2, seed=9)
        b = kmeans_init(X, 3, 2, seed=9)
        assert np.array_equal(a.row_labels, b.row_labels)
        assert np.array_equal(a.col_labels, b.col_labels)

    def test_k_too_large(self):
        X = bc.DataMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            kmeans_init(X, 4, 1, seed=0)

    def test_no_lloyd_step_rejected(self):
        X = bc.DataMatrix(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError, match="iters must be >= 1"):
            kmeans_init(X, 2, 2, seed=0, iters=0)


class TestKlSweep:
    def test_fixed_point_at_optimum(self):
        means = np.array([[0.0, 10.0], [10.0, 0.0]])
        g, h = [0, 0, 1, 1], [0, 0, 1, 1]
        X = planted_matrix(means, g, h)
        labels = bc.LabelAssignment(g, h, 2, 2)
        f = rate_function("gaussian")
        new, gain = kl_sweep(X, labels, f)
        assert gain == 0.0
        assert np.array_equal(new.row_labels, labels.row_labels)
        assert np.array_equal(new.col_labels, labels.col_labels)

    def test_repairs_single_mislabeled_row(self):
        means = np.array([[0.0, 10.0], [10.0, 0.0]])
        g, h = [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]
        X = planted_matrix(means, g, h)
        wrong = np.array([1, 0, 0, 1, 1, 1])
        labels = bc.LabelAssignment(wrong, h, 2, 2)
        f = rate_function("gaussian")
        stats = block_stats(X, labels)
        expected = bc.move_delta(stats, X, labels, "row", 0, 0, f)
        new, gain = kl_sweep(X, labels, f)
        assert np.array_equal(new.row_labels, g)
        assert gain == pytest.approx(expected, rel=1e-9)

    def test_never_decreases(self):
        rng = np.random.default_rng(5)
        f = rate_function("gaussian")
        for trial in range(20):
            X = bc.DataMatrix(rng.standard_normal((8, 8)))
            g = rng.integers(0, 2, 8)
            h = rng.integers(0, 2, 8)
            if 0 in np.bincount(g, minlength=2) or 0 in np.bincount(h, minlength=2):
                continue
            labels = bc.LabelAssignment(g, h, 2, 2)
            before = criterion_value(block_stats(X, labels), f)
            new, gain = kl_sweep(X, labels, f)
            after = criterion_value(block_stats(X, new), f)
            assert gain >= 0.0
            assert after >= before

    def test_trivial_input_rejected(self):
        X = bc.DataMatrix(np.ones((4, 4)))
        labels = bc.LabelAssignment([0, 0, 0, 0], [0, 0, 0, 1], 2, 2)
        with pytest.raises(PartitionError):
            kl_sweep(X, labels, rate_function("gaussian"))

    def test_respects_min_frac(self):
        rng = np.random.default_rng(6)
        X = bc.DataMatrix(rng.standard_normal((10, 10)))
        labels = bc.LabelAssignment(
            np.array([0] * 5 + [1] * 5), np.array([0] * 5 + [1] * 5), 2, 2
        )
        new, _ = kl_sweep(X, labels, rate_function("gaussian"), min_frac=0.3)
        assert new.row_counts().min() >= 3
        assert new.col_counts().min() >= 3


class TestFit:
    def test_noiseless_recovery(self):
        means = np.array([[1.0, 4.0, 9.0], [6.0, 2.0, 7.0]])
        rng = np.random.default_rng(7)
        g = rng.integers(0, 2, 12)
        h = rng.integers(0, 3, 15)
        g[:2] = [0, 1]
        h[:3] = [0, 1, 2]
        X = planted_matrix(means, g, h)
        truth = bc.LabelAssignment(g, h, 2, 3)
        result = fit(X, FitConfig(K=2, L=3, rate="gaussian", seed=0))
        row, col, overall = bc.misclassification(truth, result.labels)
        assert overall == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = bc.DataMatrix(rng.standard_normal((12, 12)))
        config = FitConfig(K=2, L=2, rate="gaussian", restarts=3, seed=4)
        r1 = fit(X, config)
        r2 = fit(X, config)
        assert r1.criterion == r2.criterion
        assert np.array_equal(r1.labels.row_labels, r2.labels.row_labels)
        assert np.array_equal(r1.labels.col_labels, r2.labels.col_labels)
        assert r1.sweep_trajectory == r2.sweep_trajectory

    def test_trajectory_nondecreasing_and_consistent(self):
        rng = np.random.default_rng(9)
        X = bc.DataMatrix(rng.standard_normal((15, 15)))
        result = fit(X, FitConfig(K=3, L=2, rate="gaussian", seed=1))
        traj = result.sweep_trajectory
        assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
        value = criterion_value(
            block_stats(X, result.labels), rate_function("gaussian")
        )
        assert result.criterion == pytest.approx(value, rel=1e-8)

    def test_attains_exhaustive_max_often(self):
        rng = np.random.default_rng(10)
        f = rate_function("gaussian")
        hits = 0
        for trial in range(20):
            X = bc.DataMatrix(rng.standard_normal((6, 6)))
            result = fit(X, FitConfig(K=2, L=2, rate="gaussian", restarts=10, seed=trial))
            target = exhaustive_max(X, 2, 2, f)
            assert result.criterion <= target + 1e-9 * abs(target)
            if result.criterion >= target - 1e-9 * max(1.0, abs(target)):
                hits += 1
        assert hits >= 18

    def test_same_init_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        X = bc.DataMatrix(rng.standard_normal((10, 10)))
        perm = rng.permutation(10)
        Xp = bc.DataMatrix(X.values[perm])
        init = kmeans_init(X, 2, 2, seed=3)
        init_p = bc.LabelAssignment(init.row_labels[perm], init.col_labels, 2, 2)
        config = FitConfig(K=2, L=2, rate="gaussian", seed=0)
        r = fit(X, config, init=init)
        rp = fit(Xp, config, init=init_p)
        # row i of Xp is row perm[i] of X
        assert np.array_equal(rp.labels.row_labels, r.labels.row_labels[perm])
        assert np.array_equal(rp.labels.col_labels, r.labels.col_labels)
        assert rp.criterion == pytest.approx(r.criterion, rel=1e-12)

    def test_min_frac_respected(self):
        rng = np.random.default_rng(13)
        X = bc.DataMatrix(rng.standard_normal((20, 20)))
        result = fit(X, FitConfig(K=2, L=2, rate="gaussian", min_frac=0.2, seed=0))
        assert result.labels.row_counts().min() >= 4
        assert result.labels.col_counts().min() >= 4

    def test_out_of_domain_data_named_at_entry(self):
        X = bc.DataMatrix(np.array([[0.0, 1.0], [2.0, 0.5]]))
        with pytest.raises(DomainError, match=r"2\.0 at row 1, column 0"):
            fit(X, FitConfig(K=2, L=2, rate="bernoulli"))

    @pytest.mark.parametrize("rate", ["gaussian", "poisson"])
    def test_criterion_and_trajectory_match_a_replay(self, rate):
        """The criterion and trajectory equal, with ==, those of replaying the
        restart's sweeps from F(init) with kl_sweep gains.  On the Gaussian
        case the summed gains end an ulp away from the final criterion, so
        the two are told apart."""
        rng = np.random.default_rng(15 if rate == "gaussian" else 14)
        if rate == "gaussian":
            g = rng.permutation(np.arange(30) % 3)
            h = rng.permutation(np.arange(24) % 2)
            means = np.array([[4.0, -4.0], [-4.0, 4.0], [0.0, 3.0]])
            X = bc.DataMatrix(means[g][:, h] + rng.standard_normal((30, 24)))
        else:
            X = bc.DataMatrix(rng.poisson(2.0, (30, 24)).astype(float))
        init = bc.LabelAssignment(rng.permutation(np.arange(30) % 3),
                                  rng.permutation(np.arange(24) % 2), 3, 2)
        result = fit(X, FitConfig(K=3, L=2, rate=rate), init=init)
        f = rate_function(rate)
        labels, value, trajectory = init, criterion_value(block_stats(X, init), f), []
        for _ in result.sweep_trajectory:
            labels, gain = kl_sweep(X, labels, f)
            value += gain
            trajectory.append(value)
        assert trajectory == result.sweep_trajectory
        assert np.array_equal(labels.row_labels, result.labels.row_labels)
        assert result.criterion == criterion_value(block_stats(X, labels), f)
        if rate == "gaussian":
            assert result.sweep_trajectory[-1] != result.criterion

    def test_no_block_stats_and_one_rebuild_per_kept_sweep(self, monkeypatch):
        """A fit never calls block_stats: the state is rebuilt once per
        restart and once per sweep that keeps moves, and each rebuild
        supplies F and the next sweep's state."""
        rng = np.random.default_rng(15)
        X = bc.DataMatrix(rng.standard_normal((40, 30)))
        calls, rebuilds, kept = [], [], []
        real_stats, real_sides = optimizer.block_stats, optimizer._sides
        real_sweep = optimizer._sweep

        def stats_spy(*args):
            calls.append(1)
            return real_stats(*args)

        def sides_spy(*args):
            rebuilds.append(1)
            return real_sides(*args)

        def sweep_spy(*args):
            out = real_sweep(*args)
            kept.append(out[3] > 0)
            return out

        monkeypatch.setattr(optimizer, "block_stats", stats_spy)
        monkeypatch.setattr(optimizer, "_sides", sides_spy)
        monkeypatch.setattr(optimizer, "_sweep", sweep_spy)
        result = fit(X, FitConfig(K=3, L=3, rate="gaussian", restarts=2, seed=5))
        assert len(kept) >= 4 and sum(kept) >= 2
        assert len(calls) == 0
        assert len(rebuilds) == sum(kept) + 2
        assert result.criterion == criterion_value(
            real_stats(X, result.labels), rate_function("gaussian")
        )

    def test_init_of_wrong_shape_rejected(self):
        X = bc.DataMatrix(np.zeros((4, 5)))
        init = bc.LabelAssignment([0, 1, 0, 1], [0, 1, 0, 1], 2, 2)
        with pytest.raises(ValueError, match="do not match"):
            fit(X, FitConfig(K=2, L=2, rate="gaussian"), init=init)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(K=0, L=1, rate="gaussian")
        with pytest.raises(ValueError):
            FitConfig(K=1, L=1, rate="gaussian", min_frac=0.5)
        with pytest.raises(ValueError):
            FitConfig(K=1, L=1, rate="gaussian", restarts=0)
