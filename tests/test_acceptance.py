"""End-to-end acceptance suite.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to
see them as they complete).  The Monte-Carlo fixtures are module-scoped so
each simulation grid runs once.
"""

import itertools
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

import blockcluster as bc
from blockcluster import simharness
from blockcluster.criterion import block_stats, criterion_value, move_delta, rate_function
from blockcluster.evaluation import (
    TailBoundInput,
    confusion,
    gaussian_tail_bound,
    misclassification,
    population_gap_check,
    residual_supnorm,
)
from blockcluster.model import derived_seed
from blockcluster.optimizer import FitConfig, fit

REPLICATES = 20


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {number:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def summarize(records, method, n, b):
    rows = [
        r for r in simharness.aggregate(records)
        if r["method"] == method and r["n"] == n and r["b"] == b
    ]
    assert len(rows) == 1
    return rows[0]


@pytest.fixture(scope="module")
def poisson_trend_records():
    """Poisson design, gamma=1, b=10, n sweep; PL-Pois vs the k-means baseline."""
    plan = simharness.SimPlan(
        design="poisson", n_values=[200, 500, 1000, 1500], gamma_values=[1.0],
        b_values=[10.0], replicates=REPLICATES, methods=["PL-Pois", "KM"],
        seed=20260823,
    )
    return list(simharness.run_plan(plan))


@pytest.fixture(scope="module")
def poisson_b20_records():
    """Poisson design, gamma=1, b=20, n=1000; all three relevant methods."""
    plan = simharness.SimPlan(
        design="poisson", n_values=[1000], gamma_values=[1.0], b_values=[20.0],
        replicates=REPLICATES, methods=["PL-Pois", "PL-Gaus", "KM"],
        seed=20260824,
    )
    return list(simharness.run_plan(plan))


@pytest.fixture(scope="module")
def bernoulli_records():
    """Bernoulli design, gamma=2, b=20, n=1500 (m=3000); PL-Bern."""
    plan = simharness.SimPlan(
        design="bernoulli", n_values=[1500], gamma_values=[2.0], b_values=[20.0],
        replicates=REPLICATES, methods=["PL-Bern"], seed=20260825,
    )
    return list(simharness.run_plan(plan))


def test_01_poisson_consistency(poisson_b20_records):
    cell = summarize(poisson_b20_records, "PL-Pois", 1000, 20.0)
    ok = cell["failures"] == 0 and cell["mean"] <= 0.01 and cell["sd"] <= 0.005
    report(1, "poisson consistency (n=1000, b=20)", ok,
           f"mean={cell['mean']:.4f} (<=0.01) sd={cell['sd']:.4f} (<=0.005)")


def test_02_gaussian_rate_on_poisson_data(poisson_b20_records):
    cell = summarize(poisson_b20_records, "PL-Gaus", 1000, 20.0)
    ok = cell["failures"] == 0 and cell["mean"] <= 0.02
    report(2, "misspecified rate robustness (PL-Gaus on Poisson)", ok,
           f"mean={cell['mean']:.4f} (<=0.02)")


def test_03_bernoulli_consistency(bernoulli_records):
    cell = summarize(bernoulli_records, "PL-Bern", 1500, 20.0)
    ok = cell["failures"] == 0 and cell["mean"] <= 0.01
    report(3, "bernoulli consistency (gamma=2, n=1500, b=20)", ok,
           f"mean={cell['mean']:.4f} (<=0.01)")


def test_04_consistency_trend(poisson_trend_records):
    cells = [
        summarize(poisson_trend_records, "PL-Pois", n, 10.0)
        for n in (200, 500, 1000, 1500)
    ]
    means = [c["mean"] for c in cells]
    sds = [c["sd"] for c in cells]
    endpoints = means[-1] < means[0]
    adjacent = all(
        means[i + 1] <= means[i] + sds[i] for i in range(len(means) - 1)
    )
    ok = endpoints and adjacent
    report(4, "error decreases with n (b=10)", ok,
           "means=" + "/".join(f"{m:.4f}" for m in means)
           + " sds=" + "/".join(f"{s:.4f}" for s in sds))


def test_05_baseline_dominance(poisson_trend_records, poisson_b20_records):
    checks = []
    for n in (500, 1000, 1500):
        pl = summarize(poisson_trend_records, "PL-Pois", n, 10.0)["mean"]
        km = summarize(poisson_trend_records, "KM", n, 10.0)["mean"]
        checks.append((n, 10.0, pl, km))
    pl = summarize(poisson_b20_records, "PL-Pois", 1000, 20.0)["mean"]
    km = summarize(poisson_b20_records, "KM", 1000, 20.0)["mean"]
    checks.append((1000, 20.0, pl, km))
    ok = all(pl <= km + 0.02 for _, _, pl, km in checks)
    worst = max(pl - km for _, _, pl, km in checks)
    report(5, "never worse than the k-means baseline (n>=500)", ok,
           f"max(PL-Pois - KM)={worst:+.4f} (<=0.02) over {len(checks)} cells")


def test_06_exhaustive_oracle(exhaustive_max):
    rng = np.random.default_rng(606)
    f = rate_function("gaussian")
    hits = 0
    never_above = True
    for trial in range(100):
        X = bc.DataMatrix(rng.standard_normal((6, 6)))
        result = fit(X, FitConfig(K=2, L=2, rate="gaussian", restarts=10,
                                  seed=trial))
        target = exhaustive_max(X, 2, 2, f)
        tol = 1e-9 * max(1.0, abs(target))
        never_above &= result.criterion <= target + tol
        hits += result.criterion >= target - tol
    ok = hits >= 90 and never_above
    report(6, "greedy search matches exhaustive maximum", ok,
           f"global max attained in {hits}/100 (>=90); never exceeded: {never_above}")


def test_07_incremental_update_integrity():
    rng = np.random.default_rng(707)
    rates = [rate_function("gaussian"), rate_function("poisson")]
    checked = 0
    worst = 0.0
    while checked < 10_000:
        f = rates[checked % 2]
        m, n = int(rng.integers(6, 15)), int(rng.integers(6, 15))
        K, L = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        if f.kind == "poisson":
            X = bc.DataMatrix(rng.poisson(3.0, (m, n)).astype(float))
        else:
            X = bc.DataMatrix(rng.standard_normal((m, n)))
        while True:
            g = rng.integers(0, K, m)
            h = rng.integers(0, L, n)
            if (np.bincount(g, minlength=K).min() > 0
                    and np.bincount(h, minlength=L).min() > 0):
                break
        labels = bc.LabelAssignment(g, h, K, L)
        stats = block_stats(X, labels)
        base = criterion_value(stats, f)
        for _ in range(50):
            axis = "row" if rng.random() < 0.5 else "col"
            size, nclass = (m, K) if axis == "row" else (n, L)
            idx = int(rng.integers(size))
            new = int(rng.integers(nclass))
            vec = g if axis == "row" else h
            counts = np.bincount(vec, minlength=nclass)
            if new != vec[idx] and counts[vec[idx]] <= 1:
                continue
            delta = move_delta(stats, X, labels, axis, idx, new, f)
            g2, h2 = g.copy(), h.copy()
            (g2 if axis == "row" else h2)[idx] = new
            after = bc.LabelAssignment(g2, h2, K, L)
            full = criterion_value(block_stats(X, after), f) - base
            rel = abs(delta - full) / max(1.0, abs(base))
            worst = max(worst, rel)
            checked += 1
            if checked >= 10_000:
                break
    ok = worst <= 1e-9
    report(7, "single-move deltas match full recomputation", ok,
           f"{checked} moves, worst relative error {worst:.2e} (<=1e-9)")


def test_08_permutation_invariance():
    rng = np.random.default_rng(808)
    f = rate_function("gaussian")
    exact = True
    for _ in range(1000):
        m, n = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        K, L = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        X = bc.DataMatrix(rng.standard_normal((m, n)))
        while True:
            g = rng.integers(0, K, m)
            h = rng.integers(0, L, n)
            if (np.bincount(g, minlength=K).min() > 0
                    and np.bincount(h, minlength=L).min() > 0):
                break
        labels = bc.LabelAssignment(g, h, K, L)
        pk, pl = rng.permutation(K), rng.permutation(L)
        permuted = bc.LabelAssignment(pk[g], pl[h], K, L)
        exact &= (criterion_value(block_stats(X, labels), f)
                  == criterion_value(block_stats(X, permuted), f))
        exact &= misclassification(labels, permuted) == (0.0, 0.0, 0.0)
    report(8, "criterion and misclassification are label-permutation invariant",
           exact, "1000/1000 cases exact" if exact else "exact invariance broken")


def test_09_residual_shrinks_with_size():
    def medians(n):
        spec = bc.design_spec("poisson", 10, n)
        values = []
        for seed in range(20):
            X, truth = bc.generate(spec, n, n, seed=derived_seed(909, n, seed))
            values.append(
                residual_supnorm(X, truth, spec, samples=200, epsilon=0.05,
                                 seed=derived_seed(909, n, seed, 1))
            )
        return statistics.median(values)

    small, big = medians(200), medians(800)
    ok = big < small
    report(9, "normalized residual sup-norm shrinks with size", ok,
           f"median(n=800)={big:.4f} < median(n=200)={small:.4f}")


def test_10_population_gap():
    spec = bc.design_spec("poisson", 10, 1000)
    out = population_gap_check(
        spec.M / spec.rho, rate_function("poisson"), spec.p, spec.q,
        trials=1000, seed=1010,
    )
    ok = out["violations"] == 0
    report(10, "population criterion peaks at the true partition", ok,
           f"{out['violations']}/1000 violations; worst gap {out['worst_gap']:.3e}")


def _bound_oracle(inp):
    """Independent evaluation with exact rational exponent arithmetic."""
    kl4 = min(inp.K, inp.L) ** 4
    exponent = (
        Fraction(inp.T_n)
        * Fraction(inp.tau) ** 2
        * Fraction(inp.epsilon) ** 4
        * Fraction(inp.delta) ** 2
        / (256 * Fraction(inp.c_lip) ** 2 * Fraction(inp.sigma) ** 2 * kl4)
    )
    log_bound = (
        math.log(2.0)
        + (inp.m + 1) * math.log(inp.K)
        + (inp.n + 1) * math.log(inp.L)
        - float(exponent)
    )
    return 1.0 if log_bound >= 0 else math.exp(log_bound)


def test_11_tail_bound_calculator():
    # part 1: 50-point grid against the independent oracle
    grid = []
    for m, K, eps, tau, c in itertools.product(
        (20, 30), (2, 3), (0.3, 0.45), (1e3, 1e4, 4e6), (10.0, 100.0)
    ):
        inp_kwargs = dict(m=m, n=m, K=K, L=K, epsilon=eps, tau=tau,
                          sigma=1.0, c_lip=c,
                          T_n=int(math.ceil(eps * m)) ** 2)
        cap = min(1.0, 8.0 * c * K * K / (tau * eps * eps))
        grid.append(TailBoundInput(delta=0.5 * cap, **inp_kwargs))
        if len(grid) == 50:
            break
    while len(grid) < 50:
        grid.append(TailBoundInput(m=30, n=30, K=2, L=2, epsilon=0.45,
                                   delta=0.01 * (len(grid) - 40), tau=4e4,
                                   sigma=1.0, c_lip=100.0, T_n=196))
    worst = max(
        abs(gaussian_tail_bound(g) - _bound_oracle(g)) / max(_bound_oracle(g), 1e-300)
        for g in grid
    )
    grid_ok = worst <= 1e-12

    # part 2: non-vacuous bound dominates the empirical escape frequency.
    # 30x30 Gaussian blocks with means +-100 (tau = 200^2), epsilon = 0.45
    # (so T_n = 14^2 = 196), delta just under its admissible cap.
    B = 100.0
    inp = TailBoundInput(m=30, n=30, K=2, L=2, epsilon=0.45, delta=0.39,
                         tau=(2 * B) ** 2, sigma=1.0, c_lip=B, T_n=196)
    bound = gaussian_tail_bound(inp)
    assert bound < 1.0
    spec = bc.BlockModelSpec(
        K=2, L=2, p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]),
        M=np.array([[B, -B], [-B, B]]), rho=1.0, family="gaussian", sigma=1.0,
    )
    escapes = 0
    accepted = 0
    seed = 0
    while accepted < 200:
        X, truth = bc.generate(spec, 30, 30, seed=derived_seed(1111, seed))
        seed += 1
        counts = truth.row_counts(), truth.col_counts()
        # condition on epsilon-nontrivial true classes, as the bound does
        if min(c.min() for c in counts) < 14:
            continue
        accepted += 1
        result = fit(X, FitConfig(K=2, L=2, rate="gaussian", min_frac=0.45,
                                  seed=accepted))
        pair = confusion(truth, result.labels)
        escapes += not pair.in_neighborhood(inp.delta)
    freq = escapes / 200
    empirical_ok = freq <= bound
    ok = grid_ok and empirical_ok
    report(11, "finite-sample tail bound", ok,
           f"grid max rel err {worst:.2e} (<=1e-12); "
           f"escape freq {freq:.3f} <= bound {bound:.3e}")
