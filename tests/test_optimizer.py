import dataclasses
import logging

import numpy as np
import pytest

import blockcluster as bc
from blockcluster import optimizer
from blockcluster.criterion import block_stats, criterion_value, rate_function
from blockcluster.errors import DomainError, PartitionError
from blockcluster.model import draw_labels
from blockcluster.optimizer import FitConfig, fit, kmeans_init


def planted_matrix(means, g, h, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    mu = np.asarray(means)[np.asarray(g)][:, np.asarray(h)]
    return bc.DataMatrix(mu + noise * rng.standard_normal(mu.shape))


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


def test_fit_config_is_frozen():
    """Its fields are checked once, at construction: max_sweeps = 0 set
    afterwards used to end fit in UnboundLocalError."""
    config = FitConfig(K=2, L=2, rate="gaussian")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_sweeps = 0


class TestKlSweep:
    """One Kernighan-Lin sweep, run by ``fit`` (the ``one_sweep`` fixture)."""

    def test_fixed_point_at_optimum(self, one_sweep):
        means = np.array([[0.0, 10.0], [10.0, 0.0]])
        g, h = [0, 0, 1, 1], [0, 0, 1, 1]
        X = planted_matrix(means, g, h)
        labels = bc.LabelAssignment(g, h, 2, 2)
        f = rate_function("gaussian")
        new, gain = one_sweep(X, labels, f)
        assert gain == 0.0
        assert np.array_equal(new.row_labels, labels.row_labels)
        assert np.array_equal(new.col_labels, labels.col_labels)

    def test_repairs_single_mislabeled_row(self, one_sweep):
        means = np.array([[0.0, 10.0], [10.0, 0.0]])
        g, h = [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]
        X = planted_matrix(means, g, h)
        wrong = np.array([1, 0, 0, 1, 1, 1])
        labels = bc.LabelAssignment(wrong, h, 2, 2)
        f = rate_function("gaussian")
        stats = block_stats(X, labels)
        expected = bc.move_delta(stats, X, labels, "row", 0, 0, f)
        new, gain = one_sweep(X, labels, f)
        assert np.array_equal(new.row_labels, g)
        assert gain == pytest.approx(expected, rel=1e-9)

    def test_never_decreases(self, one_sweep):
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
            new, gain = one_sweep(X, labels, f)
            after = criterion_value(block_stats(X, new), f)
            assert gain >= 0.0
            assert after >= before

    def test_trivial_input_rejected(self, one_sweep):
        X = bc.DataMatrix(np.ones((4, 4)))
        labels = bc.LabelAssignment([0, 0, 0, 0], [0, 0, 0, 1], 2, 2)
        with pytest.raises(PartitionError):
            one_sweep(X, labels, rate_function("gaussian"))

    def test_respects_min_frac(self, one_sweep):
        rng = np.random.default_rng(6)
        X = bc.DataMatrix(rng.standard_normal((10, 10)))
        labels = bc.LabelAssignment(
            np.array([0] * 5 + [1] * 5), np.array([0] * 5 + [1] * 5), 2, 2
        )
        new, _ = one_sweep(X, labels, rate_function("gaussian"), min_frac=0.3)
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

    def test_attains_exhaustive_max_often(self, exhaustive_max):
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

    def test_class_of_exactly_min_frac_rows_is_legal(self):
        """0.14 * 50 is exactly 7 rows, so seven classes of at least 7 fit
        in 50 rows, although the float product is 7.000000000000001."""
        X = bc.DataMatrix(np.random.default_rng(17).standard_normal((50, 20)))
        init = bc.LabelAssignment(np.arange(50) % 7, np.arange(20) % 2, 7, 2)
        result = fit(X, FitConfig(K=7, L=2, rate="gaussian", min_frac=0.14), init=init)
        assert result.labels.row_counts().min() >= 7
        assert result.labels.col_counts().min() >= 3

    def test_out_of_domain_data_named_at_entry(self):
        X = bc.DataMatrix(np.array([[0.0, 1.0], [2.0, 0.5]]))
        with pytest.raises(DomainError, match=r"^X\[1, 0\] = 2\.0 lies outside the "
                                              r"bernoulli rate domain"):
            fit(X, FitConfig(K=2, L=2, rate="bernoulli"))

    @pytest.mark.parametrize("K, L, axis, size", [(3, 2, "K", "m = 10"),
                                                  (2, 3, "L", "n = 8")])
    def test_infeasible_class_floor_rejected_at_entry(self, K, L, axis, size):
        """Three classes of at least ceil(0.4 * 10) = 4 rows (or of 4 of 8
        columns) cannot exist, whatever the start."""
        X = bc.DataMatrix(np.random.default_rng(16).standard_normal((10, 8)))
        with pytest.raises(ValueError, match=f"{axis} = 3 classes") as info:
            fit(X, FitConfig(K=K, L=L, rate="gaussian", min_frac=0.4))
        assert "min_frac 0.4" in str(info.value) and size in str(info.value)
        assert not isinstance(info.value, PartitionError)

    def test_a_start_below_the_floor_names_its_restart(self):
        """k-means gives an outlier row (x 1e5) a class of its own, below
        the floor of 4 rows: restart 0, from a legal init, fits, and restart
        1, from k-means, is refused under its own number."""
        values = np.random.default_rng(0).standard_normal((40, 40))
        values[7] *= 1e5
        X = bc.DataMatrix(values)
        init = bc.LabelAssignment(np.arange(40) % 4, np.arange(40) % 4, 4, 4)
        config = dict(K=4, L=4, rate="gaussian", min_frac=0.1)
        fit(X, FitConfig(**config, restarts=1), init=init)
        with pytest.raises(PartitionError, match=r"^restart 1: input labeling violates "
                                                 r"the minimum class-size constraint$"):
            fit(X, FitConfig(**config, restarts=2), init=init)

    def test_an_init_with_an_empty_class_is_refused_as_restart_0(self):
        """The floors are checked before F, whose ``criterion_value`` would
        refuse the empty class in words of its own."""
        X = bc.DataMatrix(np.random.default_rng(5).standard_normal((6, 6)))
        init = bc.LabelAssignment(np.zeros(6, dtype=int), np.arange(6) % 2, 2, 2)
        with pytest.raises(PartitionError, match=r"^restart 0: input labeling violates "
                                                 r"the minimum class-size constraint$"):
            fit(X, FitConfig(K=2, L=2, rate="gaussian", restarts=2), init=init)

    @pytest.mark.parametrize("at, value, name", [
        ((3, 2), 1e160, "row 3"),
        # every row's squared norm (1e306) is below the limit (2.2e306),
        # column 4's (1e307) is not
        ((slice(None), 4), 1e153, "column 4"),
    ])
    def test_entries_whose_squares_overflow_named_at_entry(self, at, value, name):
        """No ``DataMatrix`` holds such data, so no fit or k-means sees them."""
        values = np.ones((10, 6))
        values[at] = value
        with pytest.raises(DomainError, match=name):
            bc.DataMatrix(values)

    def test_entries_just_below_the_norm_limit_fit(self):
        """Squared sums up to the limit stay finite through k-means and the
        sweeps: no overflow warning, a finite criterion."""
        values = np.random.default_rng(17).poisson(3.0, (12, 9)) + 1.0
        limit = np.finfo(np.float64).max / (8 * 12)
        values *= np.sqrt(0.999 * limit) / np.linalg.norm(values)
        result = fit(bc.DataMatrix(values), FitConfig(K=3, L=2, rate="gaussian"))
        assert np.isfinite(result.criterion)

    @pytest.mark.parametrize("rate", ["gaussian", "poisson"])
    def test_criterion_and_trajectory_match_a_replay(self, rate, one_sweep):
        """Each trajectory entry equals, with ==, F of the labels that
        replaying the restart's sweeps one at a time reaches, and the last
        is the criterion.  The Gaussian case is one where a running sum of
        the gains ends an ulp away from the criterion."""
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
        labels, trajectory = init, []
        for _ in result.sweep_trajectory:
            labels, _ = one_sweep(X, labels, f)
            trajectory.append(criterion_value(block_stats(X, labels), f))
        assert trajectory == result.sweep_trajectory
        assert np.array_equal(labels.row_labels, result.labels.row_labels)
        assert np.array_equal(labels.col_labels, result.labels.col_labels)
        assert result.criterion == trajectory[-1]
        assert len(trajectory) > 2

    @pytest.mark.parametrize("seed", range(10))
    def test_small_units_give_the_labels_of_the_data_in_large_ones(self, seed):
        """The Gaussian 2 x 3 design (b = 1, 200 x 200) scaled by 1e-7 and
        fitted from random labels gives the unscaled fit's labels: moves and
        convergence compare exactly, so no tolerance sets a unit of F.  An
        absolute tolerance would stop every such fit after one sweep."""
        X, _ = bc.generate(bc.design_spec("gaussian", b=1.0, n=200), 200, 200, seed)
        rng = np.random.default_rng([seed, 1])
        init = bc.LabelAssignment(rng.permutation(np.arange(200) % 2),
                                  rng.permutation(np.arange(200) % 3), 2, 3)
        config = FitConfig(K=2, L=3, rate="gaussian")
        a = fit(X, config, init=init)
        b = fit(bc.DataMatrix(1e-7 * X.values), config, init=init)
        assert np.array_equal(a.labels.row_labels, b.labels.row_labels)
        assert np.array_equal(a.labels.col_labels, b.labels.col_labels)
        assert b.criterion == pytest.approx(1e-14 * a.criterion, rel=1e-9)
        assert len(b.sweep_trajectory) > 1

    def test_an_offset_leaves_the_gaussian_fit_alone(self):
        """F(X + c) = F(X) + c sum(X) + m n c^2 / 2 under the Gaussian rate,
        and the added terms do not depend on the labels.  On the Gaussian
        2 x 3 design (b = 1, 200 x 200, seeds 0-9, random starts) X + 1e4
        gives the labels of X in every fit.  At X + 1e6 the cell terms reach
        about 1e16, whose rounding is as large as some single items' gains,
        so a few boundary items may land otherwise; the mean
        misclassification stays that of X to within 1e-3.  A tolerance
        measured against |F| or the summed |cell terms| grows with c^2 and
        stops these fits early."""
        config = FitConfig(K=2, L=3, rate="gaussian")
        spec = bc.design_spec("gaussian", b=1.0, n=200)
        rates = {0.0: [], 1e6: []}
        for seed in range(10):
            X, truth = bc.generate(spec, 200, 200, seed)
            rng = np.random.default_rng(1000 + seed)
            init = bc.LabelAssignment(draw_labels(rng, 2, 200), draw_labels(rng, 3, 200),
                                      2, 3)
            a = fit(X, config, init=init)
            b = fit(bc.DataMatrix(X.values + 1e4), config, init=init)
            assert np.array_equal(a.labels.row_labels, b.labels.row_labels)
            assert np.array_equal(a.labels.col_labels, b.labels.col_labels)
            c = fit(bc.DataMatrix(X.values + 1e6), config, init=init)
            for shift, result in ((0.0, a), (1e6, c)):
                rates[shift].append(bc.misclassification(truth, result.labels)[2])
        assert np.mean(rates[1e6]) == pytest.approx(np.mean(rates[0.0]), abs=1e-3)
        assert np.mean(rates[0.0]) < 0.01

    def test_a_large_offset_is_fitted_centred(self):
        """At X + 1e8 the cell terms reach about 1e20 and, swept as they
        are, misclassify half the items of the design above.  ``fit``
        sweeps X + 1e8 less its mean instead, and gives the misclassification
        of X, while ``criterion`` and the trajectory stay F of X + 1e8 at
        the labels fitted."""
        config = FitConfig(K=2, L=3, rate="gaussian")
        spec = bc.design_spec("gaussian", b=1.0, n=200)
        f = rate_function("gaussian")
        rates = {0.0: [], 1e8: []}
        for seed in range(10):
            X, truth = bc.generate(spec, 200, 200, seed)
            rng = np.random.default_rng(1000 + seed)
            init = bc.LabelAssignment(draw_labels(rng, 2, 200), draw_labels(rng, 3, 200),
                                      2, 3)
            Y = bc.DataMatrix(X.values + 1e8)
            for shift, data in ((0.0, X), (1e8, Y)):
                result = fit(data, config, init=init)
                rates[shift].append(bc.misclassification(truth, result.labels)[2])
            assert result.criterion == criterion_value(block_stats(Y, result.labels), f)
            assert result.sweep_trajectory[-1] == result.criterion
            assert all(value > 0.5e20 for value in result.sweep_trajectory)
        assert np.mean(rates[1e8]) == pytest.approx(np.mean(rates[0.0]), abs=1e-3)

    def test_centring_takes_only_a_large_gaussian_offset(self):
        """Data are centred exactly when |mean| > 16 sd, and only for the
        Gaussian rate; the centred matrix has mean 0 to rounding."""
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((30, 20))
        noise -= noise.mean()
        noise /= noise.std()
        gauss, poisson = rate_function("gaussian"), rate_function("poisson")
        for mean, centred in ((15.9, False), (16.1, True), (-16.1, True), (0.0, False)):
            X = bc.DataMatrix(noise + mean)
            got = optimizer._centred(X, gauss)
            assert (got is not X) == centred
            if centred:
                assert abs(got.values.mean()) < 1e-12 * abs(mean)
        X = bc.DataMatrix(noise * 0.01 + 5.0)
        assert optimizer._centred(X, poisson) is X

    def test_one_block_stats_per_rebuild_and_one_rebuild_per_kept_sweep(
            self, monkeypatch):
        """The state is rebuilt once per restart and once per sweep that
        keeps moves; each rebuild calls block_stats and criterion_value
        once, and a fit calls them nowhere else."""
        rng = np.random.default_rng(15)
        X = bc.DataMatrix(rng.standard_normal((40, 30)))
        calls = {"block_stats": [], "criterion_value": [], "_sides": [], "_sweep": []}

        def spy(name):
            real = getattr(optimizer, name)

            def wrapped(*args):
                out = real(*args)
                calls[name].append(out)
                return out
            return wrapped

        for name in calls:
            monkeypatch.setattr(optimizer, name, spy(name))
        result = fit(X, FitConfig(K=3, L=3, rate="gaussian", restarts=2, seed=5))
        kept = [out[3] > 0 for out in calls["_sweep"]]
        assert len(kept) >= 4 and sum(kept) >= 2
        rebuilds = sum(kept) + 2
        assert len(calls["_sides"]) == rebuilds
        assert len(calls["block_stats"]) == len(calls["criterion_value"]) == rebuilds
        assert [f for _, f in calls["_sides"]] == calls["criterion_value"]
        assert result.criterion == criterion_value(
            block_stats(X, result.labels), rate_function("gaussian")
        )

    def test_perturbation_that_misses_the_floors_is_logged(self, caplog):
        """With min_frac = 0.25 and four classes of 10 on each axis, every
        class sits at its floor, so no relabelling of 8 items that changes a
        class size is legal: restart 1 falls back to its k-means start, and
        says so at DEBUG."""
        g, h = np.arange(40) % 4, np.arange(40) // 10
        X = planted_matrix(np.arange(16.0).reshape(4, 4) ** 1.5, g, h, noise=0.01)
        config = FitConfig(K=4, L=4, rate="gaussian", restarts=2, min_frac=0.25)
        with caplog.at_level(logging.DEBUG, logger="blockcluster.optimizer"):
            result = fit(X, config)
        assert result.labels.row_counts().tolist() == [10] * 4
        assert any("class floors" in m for m in caplog.messages)

    def test_init_of_wrong_shape_rejected(self):
        X = bc.DataMatrix(np.zeros((4, 5)))
        init = bc.LabelAssignment([0, 1, 0, 1], [0, 1, 0, 1], 2, 2)
        with pytest.raises(ValueError, match="do not match"):
            fit(X, FitConfig(K=2, L=2, rate="gaussian"), init=init)

    def test_init_with_other_classes_than_config_rejected(self):
        X = bc.DataMatrix(np.random.default_rng(3).standard_normal((12, 10)))
        init = bc.LabelAssignment(np.arange(12) % 3, np.arange(10) % 3, 3, 3)
        with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2\)"):
            fit(X, FitConfig(K=2, L=2, rate="gaussian", restarts=2), init=init)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(K=0, L=1, rate="gaussian")
        with pytest.raises(ValueError):
            FitConfig(K=1, L=1, rate="gaussian", min_frac=0.5)
        with pytest.raises(ValueError):
            FitConfig(K=1, L=1, rate="gaussian", restarts=0)


#: fits one real-valued matrix and prints its labels and criterion
BLAS_SCRIPT = """
import json
import numpy as np
import blockcluster as bc
rng = np.random.default_rng(23)
g, h = rng.integers(4, size=600), rng.integers(4, size=500)
X = bc.DataMatrix(rng.standard_normal((4, 4))[g][:, h] + 2.0 * rng.standard_normal((600, 500)))
r = bc.fit(X, bc.FitConfig(K=4, L=4, rate="gaussian", restarts=2, seed=3))
print(json.dumps([r.labels.row_labels.tolist(), r.labels.col_labels.tolist(), r.criterion]))
"""


def test_fit_reproducible_across_blas_thread_counts():
    """A fit at 1 and at 2 BLAS threads gives the same labels, and F equal
    to rounding: a threaded matmul may sum in another order, so F is not
    promised bit for bit."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(bc.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", BLAS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    (g1, h1, f1), (g2, h2, f2) = runs
    assert g1 == g2 and h1 == h2
    assert f2 == pytest.approx(f1, rel=1e-12)
