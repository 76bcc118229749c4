import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hetero_entropies_quad, mc_softmax
from uqcurate.errors import DimensionError, DomainError
from uqcurate.experiments import COMPARE, load_profile, spec_from_mapping
from uqcurate.nncore import make_rng, softmax
from uqcurate.uq import (
    expected_entropy,
    hetero_decompose,
    mean_predictive,
    mutual_information,
    predictive_entropy,
    summarize,
    summarize_hetero,
    total_variance_decompose,
)

LN2 = math.log(2)


def random_samples(rng, n_sets=1, n_samples=10):
    p1 = rng.random((n_sets, n_samples))
    return np.stack([1 - p1, p1], axis=-1)


@st.composite
def sample_stacks(draw):
    n_samples = draw(st.integers(min_value=1, max_value=12))
    p1 = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n_samples, max_size=n_samples,
        )
    )
    p1 = np.asarray(p1)
    return np.stack([1 - p1, p1], axis=-1)


class TestMeanPredictive:
    def test_two_opposed_samples(self):
        np.testing.assert_allclose(
            mean_predictive([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_single_sample_is_itself(self):
        np.testing.assert_array_equal(mean_predictive([[0.3, 0.7]]), [0.3, 0.7])

    def test_matches_naive_sum(self, rng):
        samples = random_samples(rng, n_samples=100)[0]
        acc = np.zeros(2)
        for s in samples:
            acc += s
        np.testing.assert_allclose(mean_predictive(samples), acc / 100, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises((DomainError, DimensionError)):
            mean_predictive(np.zeros((0, 2)))


class TestPredictiveEntropy:
    def test_uniform(self):
        assert predictive_entropy([0.5, 0.5]) == pytest.approx(LN2, rel=1e-12)

    def test_deterministic(self):
        assert predictive_entropy([1.0, 0.0]) == 0.0

    def test_direct_evaluation(self):
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert expected == pytest.approx(0.325083, abs=1e-6)
        assert predictive_entropy([0.9, 0.1]) == pytest.approx(expected, rel=1e-12)


class TestExpectedEntropy:
    def test_all_uniform(self):
        assert expected_entropy([[0.5, 0.5]] * 4) == pytest.approx(LN2, rel=1e-12)

    def test_deterministic_samples(self):
        assert expected_entropy([[1.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_matches_loop_and_average(self, rng):
        samples = random_samples(rng, n_samples=10)[0]
        total = 0.0
        for s in samples:
            for p in s:
                if p > 0:
                    total -= p * math.log(p)
        assert expected_entropy(samples) == pytest.approx(total / 10, abs=1e-12)


class TestMutualInformation:
    def test_identical_samples_zero(self):
        assert mutual_information([[0.3, 0.7]] * 6) == 0.0

    def test_maximal_disagreement(self):
        assert mutual_information([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(LN2, rel=1e-12)

    def test_matches_oracle_difference(self, rng):
        samples = random_samples(rng, n_samples=10)[0]
        oracle = predictive_entropy(mean_predictive(samples)) - expected_entropy(samples)
        assert mutual_information(samples) == pytest.approx(oracle, abs=1e-12)


class TestVarianceDecomposition:
    def test_identical_uniform_samples(self):
        vt, ve, va = total_variance_decompose([[0.5, 0.5]] * 3)
        assert (vt, ve, va) == (0.25, 0.0, 0.25)

    def test_deterministic_disagreeing_members(self):
        vt, ve, va = total_variance_decompose([[1.0, 0.0], [0.0, 1.0]])
        assert (vt, ve, va) == (0.25, 0.25, 0.0)

    def test_matches_direct_formulas(self, rng):
        samples = random_samples(rng, n_samples=17)[0]
        p = samples[:, 1]
        va_direct = float(np.mean([q * (1 - q) for q in p]))
        mean_p = sum(p) / len(p)
        ve_direct = float(sum((q - mean_p) ** 2 for q in p) / len(p))
        vt, ve, va = total_variance_decompose(samples)
        assert va == pytest.approx(va_direct, abs=1e-12)
        assert ve == pytest.approx(ve_direct, abs=1e-12)
        assert vt == pytest.approx(va_direct + ve_direct, abs=1e-12)


def _two_sample_heads(m, scale):
    """(N, 2, 2) mu and sigma stacks whose decomposition has margin mean m
    and margin scale ``scale`` in both branches: two weight samples at
    mu_bar -/+ c in each class and sigma = c, with c = scale/sqrt(2) (scale
    0 gets a sigma far too small to move the aleatoric margin).  The margin
    is the same in both samples, so its own spread across them is 0."""
    m = np.asarray(m, dtype=np.float64)
    c = scale / math.sqrt(2.0)
    shift = np.full(m.shape, c)
    mu = np.stack([np.stack((-shift, m - shift), axis=-1),
                   np.stack((shift, m + shift), axis=-1)], axis=1)
    sigma = np.full(mu.shape, c if scale > 0 else 1e-300)
    return mu, sigma


def _entropy_bounds(lo, hi):
    """Least and greatest two-class entropy over P(y=1) in [lo, hi]."""
    lo, hi = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
    h_lo = predictive_entropy(np.stack((1.0 - lo, lo), axis=-1))
    h_hi = predictive_entropy(np.stack((1.0 - hi, hi), axis=-1))
    top = np.where((lo <= 0.5) & (hi >= 0.5), LN2, np.maximum(h_lo, h_hi))
    return np.minimum(h_lo, h_hi), top


class TestHeteroDecompose:
    def test_degenerate_spread(self):
        # every weight sample agrees, so s_epi is exactly 0
        mu = np.tile([[2.0, 0.5]], (4, 1))
        sigma = np.full((4, 2), 1e-9)
        dec = hetero_decompose(mu, sigma)
        want = predictive_entropy(softmax(mu[0]))
        assert dec.entropy_epistemic.shape == ()
        assert dec.entropy_epistemic == pytest.approx(want, rel=0, abs=1e-12)
        assert dec.entropy_aleatoric == pytest.approx(want, rel=0, abs=1e-12)

    def test_symmetric_mu_gives_log2(self, rng):
        mu = rng.normal(0, 0.5, (6, 2))
        mu[:, 1] = mu[:, 0]  # exactly symmetric coordinates
        sigma = np.full((6, 2), 0.8)
        dec = hetero_decompose(mu, sigma)
        np.testing.assert_allclose(dec.entropy_aleatoric, LN2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.entropy_epistemic, LN2, rtol=0, atol=1e-12)

    # the 48-node rule keeps log p within 1e-6 up to margin scale 2; on this
    # grid the entropies agree with adaptive quadrature to 4e-10
    @pytest.mark.parametrize("scale", [0.0, 0.1, 0.5, 1.0, 2.0])
    def test_matches_adaptive_quadrature(self, scale):
        mu, sigma = _two_sample_heads([-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 6.0], scale)
        dec = hetero_decompose(mu, sigma)
        h_ale, h_epi = hetero_entropies_quad(mu, sigma)
        np.testing.assert_allclose(dec.entropy_aleatoric, h_ale, rtol=0, atol=1e-9)
        np.testing.assert_allclose(dec.entropy_epistemic, h_epi, rtol=0, atol=1e-9)

    def test_matches_monte_carlo(self, rng):
        # P(y=1) of each branch lies within 4 standard errors of a 2e5-draw
        # estimate, so its entropy lies in the entropy range of that interval
        mu = rng.normal(0.0, 1.5, (6, 5, 2))
        sigma = rng.uniform(0.3, 1.5, (6, 5, 2))
        dec = hetero_decompose(mu, sigma)
        mu_bar = mu.mean(axis=1)
        for got, scale in ((dec.entropy_aleatoric, np.sqrt(np.mean(sigma**2, axis=1))),
                           (dec.entropy_epistemic, mu.std(axis=1))):
            p, se = mc_softmax(mu_bar, scale, 200_000, make_rng(4))
            low, high = _entropy_bounds(p[:, 1] - 4 * se[:, 1], p[:, 1] + 4 * se[:, 1])
            assert np.all((low <= got) & (got <= high))

    def test_deterministic(self, rng):
        mu = rng.normal(0.0, 1.0, (50, 5, 2))
        sigma = rng.uniform(0.2, 2.0, (50, 5, 2))
        first, second = hetero_decompose(mu, sigma), hetero_decompose(mu, sigma)
        assert first.entropy_aleatoric.tobytes() == second.entropy_aleatoric.tobytes()
        assert first.entropy_epistemic.tobytes() == second.entropy_epistemic.tobytes()

    def test_single_weight_sample_rejected(self):
        with pytest.raises(DomainError):
            hetero_decompose(np.ones((1, 2)), np.ones((1, 2)))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            hetero_decompose(np.ones((3, 2)), np.zeros((3, 2)))


class TestInvariants:
    @given(sample_stacks())
    @settings(max_examples=200, deadline=None)
    def test_entropy_identities(self, samples):
        h_total = predictive_entropy(mean_predictive(samples))
        h_exp = expected_entropy(samples)
        mi = mutual_information(samples)
        assert -1e-12 <= h_exp <= h_total + 1e-9
        assert h_total <= LN2 + 1e-9
        assert mi >= 0
        assert mi == pytest.approx(h_total - h_exp, abs=1e-9)

    @given(sample_stacks())
    @settings(max_examples=200, deadline=None)
    def test_variance_identity(self, samples):
        vt, ve, va = total_variance_decompose(samples)
        assert vt == pytest.approx(ve + va, abs=1e-12)
        assert ve >= 0 and va >= -1e-12

    @given(sample_stacks(), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, samples, rand):
        order = list(range(samples.shape[0]))
        rand.shuffle(order)
        shuffled = samples[order]
        assert mutual_information(shuffled) == pytest.approx(
            mutual_information(samples), abs=1e-12)
        assert expected_entropy(shuffled) == pytest.approx(
            expected_entropy(samples), abs=1e-12)
        vt1, ve1, va1 = total_variance_decompose(samples)
        vt2, ve2, va2 = total_variance_decompose(shuffled)
        assert vt1 == pytest.approx(vt2, abs=1e-12)

    @given(sample_stacks(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_replication_invariance(self, samples, k):
        # estimators depend only on the empirical distribution of samples
        replicated = np.tile(samples, (k, 1))
        assert mutual_information(replicated) == pytest.approx(
            mutual_information(samples), abs=1e-9)
        vt1, _, _ = total_variance_decompose(samples)
        vt2, _, _ = total_variance_decompose(replicated)
        assert vt1 == pytest.approx(vt2, abs=1e-12)


class TestSummaries:
    def test_summarize_batch(self, rng):
        samples = random_samples(rng, n_sets=5, n_samples=7)
        out = summarize(samples)
        assert len(out) == 5
        for i, s in enumerate(out):
            assert s.entropy_total == pytest.approx(
                predictive_entropy(mean_predictive(samples[i])), abs=1e-12)
            assert s.var_total == pytest.approx(s.var_epistemic + s.var_aleatoric, abs=1e-12)
            assert s.entropy_aleatoric is None

    def test_summarize_hetero_attaches_entropies(self, rng):
        mu = np.abs(rng.standard_normal((4, 3, 2)))
        sigma = rng.uniform(0.2, 1.0, (4, 3, 2))
        member_probs = random_samples(rng, n_sets=4, n_samples=3)
        out = summarize_hetero(mu, sigma, member_probs)
        dec = hetero_decompose(mu, sigma)
        assert len(out) == 4
        assert [s.entropy_aleatoric for s in out] == dec.entropy_aleatoric.tolist()
        assert [s.entropy_epistemic for s in out] == dec.entropy_epistemic.tolist()

    def test_summarize_hetero_takes_the_benchmark_keywords(self, rng):
        # the benchmark's select workload passes n_draws and rng, which have
        # no effect, exactly as below; ROADMAP item 2 deletes both
        spec = spec_from_mapping(COMPARE, load_profile("standard-synthetic"))
        mu = rng.normal(0.0, 1.0, (5, 5, 2))
        sigma = rng.uniform(0.2, 1.0, (5, 5, 2))
        member_probs = random_samples(rng, n_sets=5, n_samples=5)
        out = summarize_hetero(mu, sigma, member_probs,
                               n_draws=spec.decompose_draws, rng=make_rng(0))
        plain = summarize_hetero(mu, sigma, member_probs)
        assert out == plain
