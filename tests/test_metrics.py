import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcurate.errors import DimensionError, DomainError
from uqcurate.metrics import (
    brier,
    classification_report,
    mann_whitney_u,
    rankdata,
    spearman_rho,
)

scipy_stats = pytest.importorskip("scipy.stats")


def naive_brier(probs, labels):
    total = 0.0
    for t in range(len(labels)):
        onehot = [0.0, 0.0]
        onehot[labels[t]] = 1.0
        for i in range(2):
            total += (probs[t][i] - onehot[i]) ** 2
    return total / len(labels)


class TestBrier:
    def test_perfect(self):
        assert brier([[1.0, 0.0]], [0]) == 0.0

    def test_uniform(self):
        assert brier([[0.5, 0.5]], [0]) == 0.5

    def test_matches_naive_oracle(self, rng):
        p1 = rng.random(64)
        probs = np.stack([1 - p1, p1], axis=1)
        labels = rng.integers(0, 2, 64)
        assert brier(probs, labels) == pytest.approx(
            naive_brier(probs.tolist(), labels.tolist()), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            brier([[0.5, 0.5]], [0, 1])

    @pytest.mark.parametrize("score, labels", [
        (brier, [-1, 1]),
        (brier, [2, 1]),
        (classification_report, [0.5, 1]),
        (classification_report, [np.nan, 1]),
    ], ids=["minus-one", "two", "fraction", "nan"])
    def test_labels_outside_the_classes_rejected(self, score, labels):
        # -1 indexed the last column (Brier 0.85), 2 raised a bare
        # IndexError, and 0.5 was truncated to 0 (F1 1.0)
        with pytest.raises(DomainError, match=r"labels must be integers in \[0, 2\)"):
            score([[0.9, 0.1], [0.2, 0.8]], labels)

    @pytest.mark.parametrize("labels", [
        [0, 1], [0.0, 1.0], [False, True], np.array([0, 1], dtype=np.uint8),
    ], ids=["int64", "float", "bool", "uint8"])
    def test_class_labels_of_any_dtype_accepted(self, labels):
        assert brier([[0.9, 0.1], [0.2, 0.8]], labels) == pytest.approx(0.05)

    def test_propriety_grid(self):
        # expected Brier for Bernoulli(q) labels when predicting p:
        #   q*2*(1-p)^2 + (1-q)*2*p^2, minimized exactly at p=q
        grid = [round(0.05 * k, 2) for k in range(21)]
        for q in (0.1, 0.25, 0.5, 0.8, 0.95):
            scores = [q * 2 * (1 - p) ** 2 + (1 - q) * 2 * p**2 for p in grid]
            assert grid[int(np.argmin(scores))] == pytest.approx(q)

    def test_expected_brier_formula_matches_sampling(self, rng):
        q, p = 0.3, 0.45
        labels = (rng.random(200_000) < q).astype(int)
        probs = np.tile([1 - p, p], (len(labels), 1))
        closed = q * 2 * (1 - p) ** 2 + (1 - q) * 2 * p**2
        assert brier(probs, labels) == pytest.approx(closed, abs=5e-3)


class TestClassificationReport:
    def test_formula_case(self):
        # 2 TP, 1 FP, 1 FN -> F1 = 4/6
        probs = np.array([[0.2, 0.8], [0.1, 0.9], [0.3, 0.7], [0.9, 0.1]])
        labels = np.array([1, 1, 0, 1])
        rep = classification_report(probs, labels)
        assert (rep.n_tp, rep.n_fp, rep.n_fn, rep.n_tn) == (2, 1, 1, 0)
        assert rep.f1 == pytest.approx(4 / 6)

    def test_all_correct(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert classification_report(probs, [0, 1]).f1 == 1.0

    def test_no_positive_predictions(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2]])
        rep = classification_report(probs, [1, 1])
        assert rep.f1 == 0.0 and rep.precision == 0.0 and rep.recall == 0.0

    def test_tie_breaks_to_negative_class(self):
        rep = classification_report(np.array([[0.5, 0.5]]), [1])
        assert rep.n_fn == 1 and rep.n_tp == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            classification_report(np.zeros((0, 2)), [])

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=2, max_size=40),
           st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, rows, rand):
        p1 = np.array([r[0] for r in rows])
        probs = np.stack([1 - p1, p1], axis=1)
        labels = np.array([r[1] for r in rows])
        order = list(range(len(rows)))
        rand.shuffle(order)
        a = classification_report(probs, labels)
        b = classification_report(probs[order], labels[order])
        assert a.f1 == b.f1 and a.brier == pytest.approx(b.brier, abs=1e-12)


class TestRankData:
    def test_fractional_ranks(self):
        np.testing.assert_array_equal(rankdata([10.0, 20.0, 20.0, 30.0]),
                                      [1.0, 2.5, 2.5, 4.0])

    def test_matches_scipy(self, rng):
        x = rng.integers(0, 5, 30).astype(float)
        np.testing.assert_array_equal(rankdata(x), scipy_stats.rankdata(x))


def enumeration_u(a, b):
    """U of group a by direct pair counting (independent definition)."""
    u = 0.0
    for x, y in itertools.product(a, b):
        if x > y:
            u += 1.0
        elif x == y:
            u += 0.5
    return u


class TestMannWhitney:
    def test_identical_groups_p_half(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_fully_separated_groups(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert u == enumeration_u([1, 2, 3], [4, 5, 6]) == 0.0
        assert p > 0.95  # a is stochastically smaller, so 'greater' is rejected

    @pytest.mark.parametrize("seed", range(8))
    def test_u_statistic_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 6, rng.integers(2, 10)).astype(float)
        b = rng.integers(0, 6, rng.integers(2, 10)).astype(float)
        u, _ = mann_whitney_u(a, b)
        assert u == pytest.approx(enumeration_u(a, b), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_asymptotic(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.5, 1, 12)
        b = rng.normal(0.0, 1, 15)
        u, p = mann_whitney_u(a, b)
        ref = scipy_stats.mannwhitneyu(a, b, alternative="greater",
                                       method="asymptotic", use_continuity=False)
        assert u == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_detects_one_sigma_shift(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(1.0, 1.0, 10)
            b = rng.normal(0.0, 1.0, 10)
            _, p = mann_whitney_u(a, b)
            hits += p < 0.05
        assert hits >= 7  # typically significant across seeds

    def test_small_groups_rejected(self):
        with pytest.raises(DomainError):
            mann_whitney_u([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DomainError):
            mann_whitney_u([1.0, bad, 3.0], [2.0, 3.0])
        with pytest.raises(DomainError):
            mann_whitney_u([1.0, 3.0], [2.0, bad])


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman_rho([1, 2, 3, 4], [5, 4, 3, 2]) == -1.0

    def test_matches_scipy(self, rng):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40) + 0.5 * x
        ours = spearman_rho(x, y)
        ref = scipy_stats.spearmanr(x, y).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError):
            spearman_rho([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            spearman_rho([1.0, 2.0, 3.0], [bad, 2.0, 3.0])

    def test_with_ties_matches_scipy(self, rng):
        x = rng.integers(0, 4, 30).astype(float)
        y = rng.integers(0, 4, 30).astype(float)
        assert spearman_rho(x, y) == pytest.approx(
            scipy_stats.spearmanr(x, y).statistic, abs=1e-12)
