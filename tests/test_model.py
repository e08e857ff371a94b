import copy
import math
import pickle

import numpy as np
import pytest

import blockcluster as bc
from blockcluster.errors import DomainError
from blockcluster.model import (
    check_int, class_floor, derived_rng, derived_seed, identifiable,
)


def test_single_block_degenerate_case():
    spec = bc.BlockModelSpec(
        K=1, L=1, p=np.array([1.0]), q=np.array([1.0]), M=np.array([[0.0]]),
        rho=1.0, family="gaussian", sigma=1.0,
    )
    X, labels = bc.generate(spec, 2, 2, seed=0)
    assert np.all(labels.row_labels == 0)
    assert np.all(labels.col_labels == 0)
    assert X.values.shape == (2, 2)


def test_bernoulli_support_violation():
    with pytest.raises(DomainError, match=r"^M\[0, 0\] = 1\.2 lies outside the "
                                          r"bernoulli rate domain \[0, 1\]$"):
        bc.BlockModelSpec(
            K=1, L=1, p=np.array([1.0]), q=np.array([1.0]),
            M=np.array([[1.2]]), rho=1.0, family="bernoulli",
        )


@pytest.mark.parametrize("frac, size, floor", [
    (0.07, 100, 7), (0.14, 50, 7), (0.45, 30, 14), (0.05, 200, 10), (0.0, 50, 1),
])
def test_class_floor_pinned(frac, size, floor):
    """The least count c >= 1 with c >= frac * size, in decimal: the float
    products 0.07 * 100 and 0.14 * 50 are 7.000000000000001."""
    assert class_floor(frac, size) == floor


def test_generate_deterministic():
    spec = bc.design_spec("poisson", 10, 200)
    X1, l1 = bc.generate(spec, 100, 200, seed=7)
    X2, l2 = bc.generate(spec, 100, 200, seed=7)
    assert np.array_equal(X1.values, X2.values)
    assert np.array_equal(l1.row_labels, l2.row_labels)
    assert np.array_equal(l1.col_labels, l2.col_labels)


def test_row_class_proportions():
    # p[0] = 0.3; with n = 500 rows, 3 binomial SDs is about 0.0615
    spec = bc.design_spec("poisson", 10, 500)
    _, labels = bc.generate(spec, 500, 500, seed=123)
    frac = np.mean(labels.row_labels == 0)
    assert abs(frac - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / 500) + 1e-12


def test_label_frequencies_over_seeds():
    spec = bc.design_spec("poisson", 10, 300)
    hits = 0
    for seed in range(40):
        _, labels = bc.generate(spec, 300, 300, seed=seed)
        ok = True
        for k, pk in enumerate(spec.p):
            sd = np.sqrt(pk * (1 - pk) / 300)
            ok &= abs(np.mean(labels.row_labels == k) - pk) <= 3 * sd
        for l, ql in enumerate(spec.q):
            sd = np.sqrt(ql * (1 - ql) / 300)
            ok &= abs(np.mean(labels.col_labels == l) - ql) <= 3 * sd
        hits += ok
    assert hits >= 0.95 * 40 - 2


def test_block_means_converge():
    spec = bc.design_spec("gaussian", 1, 1000)
    X, labels = bc.generate(spec, 1000, 1000, seed=5)
    stats = bc.block_stats(X, labels)
    means = stats.S / stats.N
    for k in range(2):
        for l in range(3):
            tol = 4.0 * spec.sigma / np.sqrt(stats.N[k, l])
            assert abs(means[k, l] - spec.M[k, l]) <= tol


@pytest.mark.parametrize(
    "design,b,n,idx,expected",
    [
        ("poisson", 20, 400, (0, 2), 1.66),
        ("gaussian", 1, 100, (1, 0), -0.26),
        ("bernoulli", 5, 2500, (0, 0), 0.043),
    ],
)
def test_design_spec_mean_entries(design, b, n, idx, expected):
    spec = bc.design_spec(design, b, n)
    assert spec.M[idx] == pytest.approx(expected, rel=1e-12)


def test_design_spec_class_probs_and_t_params():
    spec = bc.design_spec("student_t", 1, 100)
    assert np.allclose(spec.p, [0.3, 0.7])
    assert np.allclose(spec.q, [0.2, 0.3, 0.5])
    assert spec.sigma == 1.0 and spec.nu == 4.0


def test_design_spec_unknown():
    with pytest.raises(ValueError, match="unknown design"):
        bc.design_spec("cauchy", 1, 100)


def test_student_t_generation_runs():
    spec = bc.design_spec("student_t", 1, 50)
    X, _ = bc.generate(spec, 50, 50, seed=0)
    assert np.all(np.isfinite(X.values))


def test_identifiability_check():
    spec = bc.design_spec("poisson", 10, 100)
    assert identifiable(spec.M)
    dup = bc.BlockModelSpec(
        K=2, L=2, p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]),
        M=np.array([[1.0, 2.0], [1.0, 2.0]]), rho=1.0, family="poisson",
    )
    assert not identifiable(dup.M)
    assert not identifiable(dup.M.T)  # two equal columns


def test_label_assignment_validation():
    with pytest.raises(ValueError):
        bc.LabelAssignment(np.array([0, 3]), np.array([0]), K=2, L=1)
    with pytest.raises(ValueError):
        bc.LabelAssignment(np.array([0]), np.array([0]), K=2, L=1)


@pytest.mark.parametrize("rows", [[0.5, 1.0], [0.0, 1.0], [True, False]],
                         ids=["fractional", "integral-float", "bool"])
def test_label_assignment_takes_integer_labels_only(rows):
    """Labels are not rounded: [0.5, 1.0] used to become [0, 1]."""
    with pytest.raises(ValueError, match=r"^row_labels must be a 1-D integer array"):
        bc.LabelAssignment(rows, [0, 1], 2, 2)


def test_label_assignment_keeps_int64_labels_without_a_copy():
    g = np.array([0, 1, 1])
    assert bc.LabelAssignment(g, np.array([0, 0]), 2, 1).row_labels is g
    narrow = bc.LabelAssignment(np.array([0, 1], dtype=np.uint8), [0], 2, 1)
    assert narrow.row_labels.dtype == np.int64


@pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(2), 2**80])
def test_check_int_accepts_ints_and_numpy_integers(value):
    result = check_int(value, "count")
    assert result == value and type(result) is int


@pytest.mark.parametrize("value, low, high, message", [
    (0, 1, None, "count must be >= 1 and an integer"),
    (-1, 0, None, "count must be >= 0 and an integer"),
    (True, 1, None, "count must be >= 1 and an integer, got True"),
    (2.0, 1, None, "count must be >= 1 and an integer, got 2.0"),
    (math.nan, 1, None, "count must be >= 1 and an integer, got nan"),
    (np.float64(3.0), 1, None, "count must be >= 1 and an integer, got np.float64(3.0)"),
    ("3", 1, None, "count must be >= 1 and an integer, got '3'"),
    (7, 1, 6, "count must be an integer in [1, 6]"),
    (2**53 + 1, 1, 2**53, "count must be an integer in [1, 2**53]"),
    (2**40, 1, 2**40 - 1, "count must be an integer in [1, 1099511627775]"),
])
def test_check_int_rejects_with_name_and_range(value, low, high, message):
    with pytest.raises(ValueError) as info:
        check_int(value, "count", low, high)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", [-1, 1.0, True])
def test_derived_streams_check_the_seed(seed):
    for derive in (derived_rng, derived_seed):
        with pytest.raises(ValueError, match=r"^seed must be >= 0 and an integer"):
            derive(seed, 1)


def test_seeds_have_no_upper_bound():
    """derived_seed yields 64-bit seeds, and those are derived from again."""
    big = derived_seed(2**64 - 1, 2)
    assert big == derived_seed(np.uint64(2**64 - 1), 2)
    derived_rng(big, 0)
    derived_rng(2**80)


def test_derived_rng_is_the_seed_sequence_stream():
    """generate draws from derived_rng(seed): the stream of the
    SeedSequence([seed]) it used to build itself."""
    for seed, path in ((9, ()), (2**64 + 3, (1, 2))):
        expected = np.random.default_rng(np.random.SeedSequence([seed, *path]))
        assert (derived_rng(seed, *path).random(3) == expected.random(3)).all()


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_design_spec_rejects_non_finite_b(b):
    """b = nan used to give a spec, and generate a NaN matrix from it."""
    for design in bc.model.DESIGNS:
        with pytest.raises(ValueError, match=r"^b must be finite"):
            bc.design_spec(design, b, 100)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("name", ["rho", "sigma", "nu"])
def test_block_model_spec_scales_positive_and_finite(name, value):
    """A NaN or infinite scale used to pass the ``<= 0`` checks."""
    args = dict(K=1, L=1, p=[1.0], q=[1.0], M=[[0.0]], rho=1.0, family="student_t",
                sigma=1.0, nu=4.0)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        bc.BlockModelSpec(**{**args, name: value})


def test_data_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        bc.DataMatrix(np.array([[1.0, np.nan]]))


def test_data_matrix_values_are_read_only():
    """A write through ``X.values`` cannot get round the checks made when X
    was built."""
    X = bc.DataMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="read-only"):
        X.values[0, 0] = np.inf


@pytest.mark.parametrize("clone", [lambda X: pickle.loads(pickle.dumps(X)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_data_matrix_copies_stay_read_only(clone):
    """Pickling and deep copying rebuild X through its constructor, so the
    copy's values are equal to X's and read-only too."""
    X = bc.DataMatrix(np.arange(6.0).reshape(2, 3))
    Y = clone(X)
    assert np.array_equal(Y.values, X.values)
    with pytest.raises(ValueError, match="read-only"):
        Y.values[0, 0] = np.inf


def test_unpickling_checks_the_data():
    """Bytes that hold a matrix no ``DataMatrix`` accepts are refused when
    they are loaded."""
    X = bc.DataMatrix(np.ones((2, 3)))
    object.__setattr__(X, "values", np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        pickle.loads(pickle.dumps(X))
