import math

import numpy as np
import pytest

import blockcluster as bc
from blockcluster.criterion import rate_function
from blockcluster.evaluation import (
    TailBoundInput,
    confusion,
    gaussian_tail_bound,
    misclassification,
    population_criterion,
    population_gap_check,
    residual_supnorm,
)


def labels(g, h, K, L):
    return bc.LabelAssignment(np.array(g), np.array(h), K, L)


class TestConfusion:
    def test_identical_labelings_diagonal(self):
        t = labels([0, 0, 1, 1], [0, 1, 2, 2, 1], 2, 3)
        pair = confusion(t, t)
        assert np.allclose(pair.C, np.diag([0.5, 0.5]))
        assert np.allclose(pair.D, np.diag([0.2, 0.4, 0.4]))
        assert pair.in_neighborhood(1e-6)

    def test_swapped_labels_antidiagonal(self):
        t = labels([0, 0, 1, 1], [0, 0, 1, 1], 2, 2)
        e = labels([1, 1, 0, 0], [0, 0, 1, 1], 2, 2)
        pair = confusion(t, e)
        assert np.allclose(pair.C, np.array([[0.0, 0.5], [0.5, 0.0]]))
        # a permuted diagonal still has zero off-diagonal products
        assert pair.rows_near_diagonal(1e-6)

    def test_hand_counted_entries(self):
        t = labels([0, 0, 1, 1, 1], [0, 1], 2, 2)
        e = labels([0, 1, 1, 1, 0], [0, 1], 2, 2)
        pair = confusion(t, e)
        assert np.allclose(pair.C, np.array([[0.2, 0.2], [0.2, 0.4]]))
        # worst off-diagonal product: max over columns of C[0,k]*C[1,k] = 0.08
        assert not pair.rows_near_diagonal(0.05)
        assert pair.rows_near_diagonal(0.1)
        # the column confusion alone can leave the neighbourhood
        cols = bc.ConfusionPair(C=pair.D / 2, D=pair.C)
        assert cols.rows_near_diagonal(0.05) and not cols.in_neighborhood(0.05)
        assert cols.in_neighborhood(0.1)

    def test_dimension_mismatch(self):
        t = labels([0, 1], [0, 1], 2, 2)
        e = labels([0, 1, 0], [0, 1], 2, 2)
        with pytest.raises(ValueError):
            confusion(t, e)


class TestMisclassification:
    def test_identical_is_zero(self):
        t = labels([0, 1, 0, 1], [0, 1, 2, 0], 2, 3)
        assert misclassification(t, t) == (0.0, 0.0, 0.0)

    def test_global_relabeling_is_zero(self):
        t = labels([0, 0, 1, 1], [0, 1, 2, 2], 2, 3)
        e = labels([1, 1, 0, 0], [2, 0, 1, 1], 2, 3)
        assert misclassification(t, e) == (0.0, 0.0, 0.0)

    def test_hand_counted_rates(self):
        t = labels([0, 0, 0, 1], [0, 0, 1, 1, 1, 1], 2, 2)
        e = labels([0, 0, 1, 1], [0, 0, 0, 1, 1, 1], 2, 2)
        row, col, overall = misclassification(t, e)
        assert row == pytest.approx(0.25)
        assert col == pytest.approx(1 / 6)
        assert overall == pytest.approx((4 * 0.25 + 6 / 6) / 10)

    def test_returns_plain_floats(self):
        t = labels([0, 1], [0, 1], 2, 2)
        for value in misclassification(t, t):
            assert type(value) is float

    def test_many_classes(self):
        """Twelve classes: one item of each of classes 0..11 is misplaced
        among 10 items per class, whatever names the estimate uses."""
        truth = np.repeat(np.arange(12), 10)
        estimate = truth.copy()
        estimate[::10] = (truth[::10] + 1) % 12
        rename = np.random.default_rng(0).permutation(12)
        t = bc.LabelAssignment(truth, np.array([0]), 12, 1)
        e = bc.LabelAssignment(rename[estimate], np.array([0]), 12, 1)
        assert misclassification(t, e)[0] == pytest.approx(0.1)
        assert misclassification(t, t) == (0.0, 0.0, 0.0)


class TestPopulationCriterion:
    def test_diagonal_equals_weighted_sum(self):
        M0 = np.array([[1.0, 2.0], [3.0, 0.5]])
        p = np.array([0.4, 0.6])
        q = np.array([0.25, 0.75])
        f = rate_function("poisson")
        value = population_criterion(np.diag(p), np.diag(q), M0, f)
        expected = sum(
            p[k] * q[l] * f.evaluate(M0[k, l]) for k in range(2) for l in range(2)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_class_collapse(self):
        # a rank-one confusion pair mixes everything into one block mean
        M0 = np.array([[1.0, 3.0], [2.0, 4.0]])
        f = rate_function("gaussian")
        C = np.full((2, 1), 0.5)
        D = np.full((2, 1), 0.5)
        value = population_criterion(C, D, M0, f)
        assert value == pytest.approx(f.evaluate(M0.mean()), rel=1e-12)

    def test_hand_computed_offdiagonal(self):
        M0 = np.array([[0.0, 2.0]])
        f = rate_function("gaussian")
        C = np.array([[1.0]])
        D = np.array([[0.3, 0.2], [0.1, 0.4]])
        # column masses: (0.4, 0.6); mixed means: (0.2/0.4, 0.8/0.6)
        expected = 0.4 * f.evaluate(0.5) + 0.6 * f.evaluate(0.8 / 0.6)
        assert population_criterion(C, D, M0, f) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        f = rate_function("gaussian")
        M0 = np.eye(2)
        with pytest.raises(ValueError, match="sum to 1"):
            population_criterion(np.eye(2), np.eye(2), M0, f)
        good = np.diag([0.5, 0.5])
        with pytest.raises(ValueError, match="label-mass"):
            population_criterion(
                np.array([[0.5, 0.0], [0.5, 0.0]]), good, M0, f
            )


class TestPopulationGapCheck:
    def test_small_run_no_violations(self):
        spec = bc.design_spec("poisson", 10, 500)
        report = population_gap_check(
            spec.M / spec.rho, rate_function("poisson"), spec.p, spec.q,
            trials=50, seed=0,
        )
        assert report["violations"] == 0
        assert report["worst_gap"] < 0
        assert report["kappa_empirical"] > 0

    @pytest.mark.parametrize("trials", [0, -1, 2.0])
    def test_trial_count_checked(self, trials):
        spec = bc.design_spec("poisson", 10, 500)
        with pytest.raises(ValueError, match=r"^trials must be >= 1 and an integer"):
            population_gap_check(spec.M / spec.rho, rate_function("poisson"), spec.p,
                                 spec.q, trials=trials, seed=0)

    def test_rejects_nonidentifiable(self):
        M0 = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="identical"):
            population_gap_check(
                M0, rate_function("poisson"), np.array([0.5, 0.5]),
                np.array([0.5, 0.5]), trials=5, seed=0,
            )


class TestResidualSupnorm:
    def make_spec(self):
        return bc.design_spec("gaussian", 1, 400)

    def direct(self, X, truth, spec, sampled):
        """The normalized residual's sup-norm for one sampled labeling."""
        pair = confusion(truth, sampled)
        E = (pair.C.T @ spec.M @ pair.D) / np.outer(
            pair.C.sum(axis=0), pair.D.sum(axis=0)
        )
        stats = bc.block_stats(X, sampled)
        return float(np.max(np.abs(stats.S / stats.N - E))) / spec.rho

    def test_zero_noise_zero_residual(self):
        spec = self.make_spec()
        rng = np.random.default_rng(0)
        g = rng.choice(2, size=200, p=spec.p)
        h = rng.choice(3, size=400, p=spec.q)
        g[:2], h[:3] = [0, 1], [0, 1, 2]
        truth = bc.LabelAssignment(g, h, 2, 3)
        X = bc.DataMatrix(spec.M[g][:, h])
        value = residual_supnorm(X, truth, spec, samples=20, epsilon=0.1, seed=1)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_computation_single_sample(self):
        spec = self.make_spec()
        X, truth = bc.generate(spec, 100, 400, seed=3)
        value = residual_supnorm(X, truth, spec, samples=1, epsilon=0.1, seed=7)
        # recompute by hand for the same sampled labeling
        from blockcluster.model import class_floor, derived_rng, draw_labels

        rng = derived_rng(7)
        g = draw_labels(rng, 2, 100, class_floor(0.1, 100))
        h = draw_labels(rng, 3, 400, class_floor(0.1, 400))
        direct = self.direct(X, truth, spec, bc.LabelAssignment(g, h, 2, 3))
        assert value == pytest.approx(direct, rel=1e-12)

    def test_samples_a_class_of_exactly_epsilon_size(self):
        """With epsilon = 0.3 and 10 rows the floor is 3 rows, the rule
        ``fit`` uses: a first draw with a row class of exactly 3 is the
        labeling sampled, not redrawn."""
        from blockcluster.model import derived_rng

        spec = bc.BlockModelSpec(K=2, L=2, p=np.array([0.5, 0.5]),
                                 q=np.array([0.5, 0.5]), M=np.eye(2), rho=1.0,
                                 family="gaussian", sigma=1.0)
        X, truth = bc.generate(spec, 10, 20, seed=4)

        def first_draw(seed):
            rng = derived_rng(seed)
            return rng.integers(2, size=10), rng.integers(2, size=20)

        seed = next(s for s in range(1000)
                    if np.bincount(first_draw(s)[0]).min() == 3
                    and np.bincount(first_draw(s)[1], minlength=2).min() >= 6)
        direct = self.direct(X, truth, spec, bc.LabelAssignment(*first_draw(seed), 2, 2))
        value = residual_supnorm(X, truth, spec, samples=1, epsilon=0.3, seed=seed)
        assert value == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.1])
    def test_epsilon_negative_or_not_finite_rejected(self, epsilon):
        spec = bc.design_spec("gaussian", 1, 60)
        X, truth = bc.generate(spec, 60, 60, seed=1)
        with pytest.raises(ValueError, match=r"^epsilon must be finite and >= 0"):
            residual_supnorm(X, truth, spec, samples=5, epsilon=epsilon, seed=0)

    @pytest.mark.parametrize("samples", [-1, 0, 1.5])
    def test_sample_count_checked(self, samples):
        """samples = -1 used to return 0.0, a lower bound over no labelings."""
        spec = bc.design_spec("gaussian", 1, 60)
        X, truth = bc.generate(spec, 60, 60, seed=1)
        with pytest.raises(ValueError, match=r"^samples must be >= 1 and an integer"):
            residual_supnorm(X, truth, spec, samples=samples, epsilon=0.1, seed=0)

    def test_floor_no_labeling_meets_rejected_at_entry(self):
        """epsilon = 0.49 asks for three column classes of 30 of the 60
        columns: refused at once, not after 1000 draws."""
        spec = bc.design_spec("gaussian", 1, 60)
        X, truth = bc.generate(spec, 60, 60, seed=1)
        with pytest.raises(ValueError, match=r"^L = 3 classes of at least 30 items "
                                             r"\(epsilon 0.49\) exceed n = 60$"):
            residual_supnorm(X, truth, spec, samples=5, epsilon=0.49, seed=0)

    def test_shrinks_with_size(self):
        spec_small = bc.design_spec("gaussian", 1, 200)
        spec_big = bc.design_spec("gaussian", 1, 1600)
        Xs, ts = bc.generate(spec_small, 200, 200, seed=5)
        Xb, tb = bc.generate(spec_big, 1600, 1600, seed=5)
        small = residual_supnorm(Xs, ts, spec_small, samples=10, epsilon=0.1, seed=2)
        big = residual_supnorm(Xb, tb, spec_big, samples=10, epsilon=0.1, seed=2)
        assert big < small


class TestTailBound:
    def base(self, **over):
        kw = dict(m=30, n=30, K=2, L=2, epsilon=0.45, delta=0.5,
                  tau=196.0, sigma=1.0, c_lip=7.5, T_n=196)
        kw.update(over)
        return TailBoundInput(**kw)

    def test_matches_direct_formula(self):
        inp = self.base()
        kl4 = min(inp.K**4, inp.L**4)
        exponent = (inp.T_n * inp.tau**2 * inp.epsilon**4 * inp.delta**2
                    / (256.0 * inp.c_lip**2 * inp.sigma**2 * kl4))
        direct = min(
            1.0,
            2.0 * inp.K ** (inp.m + 1) * inp.L ** (inp.n + 1) * math.exp(-exponent),
        )
        assert gaussian_tail_bound(inp) == pytest.approx(direct, rel=1e-12)

    def test_saturates_at_one(self):
        inp = self.base(tau=1.0, T_n=1, delta=0.5, c_lip=100.0)
        assert gaussian_tail_bound(inp) == 1.0

    def test_monotone_in_delta(self):
        vals = [gaussian_tail_bound(self.base(delta=d)) for d in (0.2, 0.4, 0.6, 0.8)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_T_n(self):
        vals = [gaussian_tail_bound(self.base(T_n=t)) for t in (150, 196, 300, 500)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_tau_squared_scaling_of_exponent(self):
        # doubling tau multiplies the exponent by 4 (before the min with 1)
        kw = dict(m=10, n=10, K=2, L=2, epsilon=0.45, delta=0.5,
                  sigma=1.0, c_lip=1.0, T_n=2000)
        a = TailBoundInput(tau=100.0, **kw)
        b = TailBoundInput(tau=200.0, **kw)
        log_coeff = math.log(2) + 11 * math.log(2) + 11 * math.log(2)
        ea = log_coeff - math.log(gaussian_tail_bound(a))
        eb = log_coeff - math.log(gaussian_tail_bound(b))
        assert eb == pytest.approx(4 * ea, rel=1e-9)

    def test_delta_cap_enforced(self):
        with pytest.raises(ValueError, match="delta"):
            self.base(delta=1.5)
        with pytest.raises(ValueError, match="delta"):
            # cap from 8*c*sigma*min(K^2,L^2)/(tau*eps^2)
            TailBoundInput(m=10, n=10, K=2, L=2, epsilon=0.9, delta=0.9,
                           tau=10000.0, sigma=1.0, c_lip=1.0, T_n=10)

    def test_ints_and_numpy_reals_give_the_float_bound(self):
        inp = self.base(tau=196, sigma=np.float32(1.0), c_lip=np.float32(7.5),
                        delta=np.float16(0.5))
        assert type(inp.tau) is type(inp.sigma) is type(inp.delta) is float
        assert gaussian_tail_bound(inp) == gaussian_tail_bound(self.base())

    def test_input_validation(self):
        with pytest.raises(ValueError):
            self.base(epsilon=0.0)

    @pytest.mark.parametrize("name, value", [("m", 2**53 + 1), ("T_n", 10**400),
                                             ("tau", math.inf), ("sigma", math.nan)],
                             ids=["m", "T_n", "tau", "sigma"])
    def test_integers_past_2_53_and_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            self.base(**{name: value})

    @pytest.mark.parametrize("over", [dict(tau=1e200, delta=1e-300),
                                      dict(epsilon=1e-200)])
    def test_extreme_floats_do_not_overflow(self, over):
        """tau^2 past the float range, and tau epsilon^2 below it, leave
        the exponent tiny and the bound at 1."""
        assert gaussian_tail_bound(self.base(**over)) == 1.0
        with pytest.raises(ValueError):
            self.base(sigma=-1.0)
        with pytest.raises(ValueError):
            self.base(m=0)
