import dataclasses
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    hetero_entropies_quad,
    top_n_by_aleatoric,
    top_one_by_epistemic,
    trace_curate,
    trace_select_one,
)
from uqcurate.curation import (
    CurationConfig,
    UncertaintyRecord,
    curate,
    curation_loop,
    curation_loops,
)
from uqcurate.data import SyntheticSpec, generate_synthetic
from uqcurate.errors import ConfigError, DomainError
from uqcurate.experiments import COMPARE, ExperimentSpec
from uqcurate.nncore import make_rng, spawn_seeds


def rec(i, epi, ale):
    return UncertaintyRecord(id=i, epistemic=epi, aleatoric=ale)


def random_records(rng, n):
    return [
        rec(f"p{i:02d}", float(rng.random()), float(rng.random()))
        for i in range(n)
    ]


def as_pool(records):
    return {r.id: (r.epistemic, r.aleatoric) for r in records}


def select_one(records, n_ale, selector="ehal"):
    """One pick with a fixed rejection-set size, through ``curate``."""
    [picked] = curate(records, CurationConfig(n_to_select=1, n_ale=n_ale, selector=selector))
    return picked


@st.composite
def record_pools(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    values = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
                  st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9])),
        min_size=n, max_size=n))
    return [rec(f"p{i}", e, a) for i, (e, a) in enumerate(values)]


class TestTopOne:
    def test_picks_largest(self):
        assert top_one_by_epistemic([rec("a", 0.1, 0), rec("b", 0.9, 0)]) == "b"

    def test_tie_breaks_lexicographically(self):
        records = [rec("c", 0.5, 0), rec("a", 0.5, 0), rec("b", 0.5, 0)]
        assert top_one_by_epistemic(records) == "a"

    def test_matches_linear_scan(self, rng):
        records = random_records(rng, 50)
        best = None
        for r in records:
            if best is None or r.epistemic > best.epistemic:
                best = r
        assert top_one_by_epistemic(records) == best.id

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            top_one_by_epistemic([])


class TestTopN:
    def test_whole_pool_when_n_large(self, rng):
        records = random_records(rng, 5)
        assert top_n_by_aleatoric(records, 99) == {r.id for r in records}

    def test_singleton_argmax(self):
        records = [rec("a", 0, 0.2), rec("b", 0, 0.9), rec("c", 0, 0.5)]
        assert top_n_by_aleatoric(records, 1) == {"b"}

    def test_matches_sort_oracle(self, rng):
        records = random_records(rng, 50)
        expected = {
            r.id for r in sorted(records, key=lambda r: (-r.aleatoric, r.id))[:5]
        }
        assert top_n_by_aleatoric(records, 5) == expected


class TestSelectOne:
    def test_hand_trace_rejection(self):
        # the top-epistemic instance is also the single noisiest, so it is
        # rejected; the runner-up escapes the recomputed rejection set
        records = [rec("a", 0.9, 0.9), rec("b", 0.5, 0.1), rec("c", 0.1, 0.5)]
        assert select_one(records, n_ale=1) == "b"

    def test_two_element_pool_exhausts_to_global_top(self):
        # with n_ale=1 and recomputed rejection sets, a 2-element pool rejects
        # both candidates in turn (the survivor of the first rejection is the
        # noisiest of its own 1-element view), so the exhaustion fallback
        # returns the globally top-epistemic instance
        records = [rec("a", 0.9, 0.9), rec("b", 0.5, 0.1)]
        assert select_one(records, n_ale=1) == "a"

    def test_first_try_when_outside_rejection_set(self):
        records = [rec("a", 0.9, 0.1), rec("b", 0.5, 0.9)]
        assert select_one(records, n_ale=1) == "a"

    def test_dominating_instance_picked_first(self):
        records = [rec("a", 0.9, 0.0), rec("b", 0.5, 0.5), rec("c", 0.1, 0.9)]
        assert select_one(records, n_ale=1) == "a"

    def test_exhaustion_falls_back_to_global_top(self, rng):
        records = random_records(rng, 6)
        # n_ale covering the pool rejects everyone; fallback is global argmax
        assert select_one(records, n_ale=6) == top_one_by_epistemic(records)

    def test_elah_mirror(self):
        records = [rec("a", 0.1, 0.1), rec("b", 0.5, 0.9), rec("c", 0.9, 0.5)]
        # lowest epistemic 'a' is also lowest aleatoric -> rejected -> 'b'
        # survives because 'c' now holds the bottom-1 aleatoric slot
        assert select_one(records, n_ale=1, selector="elah") == "b"

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_trace_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        records = [
            rec(f"p{i}", float(rng.choice([0.0, 0.2, 0.5, 0.7, 1.0])),
                float(rng.choice([0.0, 0.2, 0.5, 0.7, 1.0])))
            for i in range(n)
        ]
        for n_ale in range(1, n + 1):
            assert select_one(records, n_ale) == trace_select_one(
                as_pool(records), n_ale, high_epistemic=True)
            assert select_one(records, n_ale, "elah") == trace_select_one(
                as_pool(records), n_ale, high_epistemic=False)

    @given(record_pools(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_never_returns_rejected_candidate(self, records, n_ale):
        picked = select_one(records, n_ale)
        survivors = [r for r in records]
        # replay: the returned id must not be simultaneously top-epistemic and
        # inside the rejection set of the view it was selected from
        while survivors:
            top = top_one_by_epistemic(survivors)
            rejected = top_n_by_aleatoric(survivors, n_ale)
            if top not in rejected:
                assert picked == top
                return
            survivors = [r for r in survivors if r.id != top]
        # exhaustion path
        assert picked == top_one_by_epistemic(records)


class TestCurate:
    def test_full_pool_is_permutation(self, rng):
        records = random_records(rng, 12)
        cfg = CurationConfig(n_to_select=12, n_ale=3, selector="ehal")
        out = curate(records, cfg)
        assert sorted(out) == sorted(r.id for r in records)

    def test_random_reproducible(self, rng):
        records = random_records(rng, 20)
        cfg = CurationConfig(n_to_select=10, selector="random")
        assert curate(records, cfg, make_rng(42)) == curate(records, cfg, make_rng(42))

    def test_random_is_subset_without_replacement(self, rng):
        records = random_records(rng, 20)
        cfg = CurationConfig(n_to_select=10, selector="random")
        out = curate(records, cfg, make_rng(1))
        assert len(out) == len(set(out)) == 10
        assert set(out) <= {r.id for r in records}

    def test_random_without_rng_rejected(self, rng):
        records = random_records(rng, 5)
        with pytest.raises(ConfigError, match="rng"):
            curate(records, CurationConfig(n_to_select=2, selector="random"))

    @given(record_pools(max_size=20), st.sampled_from(["ehal", "elah"]),
           st.one_of(st.integers(min_value=1, max_value=20),
                     st.sampled_from([0.1, 0.35, 0.5, 1.0])))
    @settings(max_examples=300, deadline=None)
    def test_matches_trace_oracle_sequence(self, records, selector, n_ale):
        # tied values across picks: each pick ranks only the records still
        # alive, so a tie broken one way in one pick can flip in the next
        fixed = isinstance(n_ale, int)
        cfg = CurationConfig(n_to_select=len(records), selector=selector,
                             **({"n_ale": n_ale} if fixed else {"n_ale_fraction": n_ale}))
        assert curate(records, cfg) == trace_curate(
            as_pool(records), len(records), n_ale if fixed else None,
            high_epistemic=selector == "ehal", n_ale_fraction=None if fixed else n_ale)

    def test_fractional_n_ale_recomputed(self):
        # 10 records at fraction 0.35: first pick rejects ceil(3.5)=4, after
        # each removal the rejection set shrinks with the pool
        records = [rec(f"p{i}", float(i), float(i)) for i in range(10)]
        cfg = CurationConfig(n_to_select=3, n_ale_fraction=0.35, selector="ehal")
        out = curate(records, cfg)
        expected = []
        pool = as_pool(records)
        for _ in range(3):
            pick = trace_select_one(pool, math.ceil(0.35 * len(pool)))
            del pool[pick]
            expected.append(pick)
        assert out == expected

    @pytest.mark.parametrize("selector", ["ehal", "elah"])
    @pytest.mark.parametrize("correlation", [1.0, -1.0])
    def test_fractional_n_ale_matches_trace_on_larger_pool(self, selector, correlation):
        # correlated scores make every pick exhaust the view; anti-correlated
        # ones let the walk stop at its first few candidates
        rng = np.random.default_rng(17)
        epi = rng.permutation(300) / 300.0
        ale = 0.5 + correlation * (epi - 0.5)
        records = [rec(f"q{i:03d}", float(e), float(a)) for i, (e, a) in enumerate(zip(epi, ale))]
        cfg = CurationConfig(n_to_select=25, n_ale_fraction=0.3, selector=selector)
        assert curate(records, cfg) == trace_curate(
            as_pool(records), 25, None, high_epistemic=selector == "ehal", n_ale_fraction=0.3
        )

    def test_invalid_selector(self):
        with pytest.raises(ConfigError):
            CurationConfig(n_to_select=1, selector="best")


class TestEhalAvoidsNoise:
    def test_selected_noisy_fraction_below_base_rate(self, rng):
        # pool where tagged instances carry inflated aleatoric scores, as the
        # dual-head model produces on corrupted data
        n, base_rate = 200, 0.3
        noisy = rng.random(n) < base_rate
        ale = np.where(noisy, rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.5, n))
        epi = rng.random(n)
        records = [rec(f"p{i:03d}", float(epi[i]), float(ale[i])) for i in range(n)]
        cfg = CurationConfig(n_to_select=60, n_ale_fraction=0.3, selector="ehal")
        picked = set(curate(records, cfg))
        picked_noisy = sum(noisy[i] for i in range(n) if f"p{i:03d}" in picked)
        assert picked_noisy / 60 < base_rate


TINY_SYNTHETIC = SyntheticSpec(n_instances=120, feature_dim=6, noisy_fraction=0.2)


def compare_spec(**fields):
    return ExperimentSpec(kind=COMPARE, synthetic=TINY_SYNTHETIC, **fields)


@pytest.fixture(scope="module")
def tiny_cfg():
    return compare_spec(hidden_layers=1, hidden_width=8, max_epochs=4, head="hetero",
                        batch_size=16, uq_methods=("ensemble",),
                        ensemble_size=2, tranche_fraction=0.5, decompose_draws=50)


@pytest.fixture(scope="module")
def tiny_pool(tiny_cfg):
    return generate_synthetic(tiny_cfg.synthetic, make_rng(3))


class TestCurationLoop:
    def test_bookkeeping_rows(self, tiny_pool, tiny_cfg):
        # tranche of 50% of the pool: baseline row + 2 selection rounds
        result = curation_loop(tiny_pool, "random", tiny_cfg, seed=0)
        assert len(result.rows) == 3
        assert result.rows[0].fraction_added == 0.0
        assert result.rows[-1].fraction_added == 1.0
        assert [r.round for r in result.rows] == [0, 1, 2]

    def test_pool_exhaustion_and_uniqueness(self, tiny_pool, tiny_cfg):
        result = curation_loop(tiny_pool, "ehal", tiny_cfg, seed=1)
        assert len(result.selected_ids) == len(set(result.selected_ids))
        assert result.rows[-1].fraction_added == 1.0
        assert math.isnan(result.rows[-1].mean_epi)

    def test_selected_ids_come_from_pool(self, tiny_pool, tiny_cfg):
        result = curation_loop(tiny_pool, "ehal", tiny_cfg, seed=1)
        assert set(result.selected_ids) <= set(map(str, tiny_pool.ids))

    def test_same_seed_same_baseline_across_selectors(self, tiny_pool, tiny_cfg):
        rows = {}
        for selector in ("ehal", "elah", "random"):
            rows[selector] = curation_loop(tiny_pool, selector, tiny_cfg, seed=5).rows[0]
        # nan-aware: row 0 has no picks, so its selected_noisy_fraction is NaN
        np.testing.assert_equal(asdict(rows["ehal"]), asdict(rows["elah"]))
        np.testing.assert_equal(asdict(rows["ehal"]), asdict(rows["random"]))

    def test_deterministic(self, tiny_pool, tiny_cfg):
        a = curation_loop(tiny_pool, "ehal", tiny_cfg, seed=9)
        b = curation_loop(tiny_pool, "ehal", tiny_cfg, seed=9)
        assert a.selected_ids == b.selected_ids
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.round, ra.fraction_added, ra.f1) == (rb.round, rb.fraction_added, rb.f1)
            np.testing.assert_equal(ra.mean_epi, rb.mean_epi)  # nan-aware
            np.testing.assert_equal(ra.mean_ale, rb.mean_ale)
            np.testing.assert_equal(ra.selected_noisy_fraction, rb.selected_noisy_fraction)

    def test_selected_noisy_fraction_counts_the_picks_so_far(self, tiny_pool, tiny_cfg):
        result = curation_loop(tiny_pool, "ehal", tiny_cfg, seed=1)
        noisy = dict(zip(map(str, tiny_pool.ids), tiny_pool.noise_tags.tolist()))
        pool0 = round(tiny_cfg.pool_fraction * len(tiny_pool))
        assert math.isnan(result.rows[0].selected_noisy_fraction)
        for row in result.rows[1:]:
            picks = result.selected_ids[: round(row.fraction_added * pool0)]
            assert row.selected_noisy_fraction == np.mean([noisy[i] for i in picks])

    def test_round_r_fits_with_the_rth_round_draw(self, tiny_pool, tiny_cfg, monkeypatch):
        # a 40% tranche moves 29, 29 and the last 14 of the 72 pool
        # instances; each selector's round r trains on the seed partition
        # plus its picks so far, in dataset order, with the r-th draw of the
        # round stream; each distinct (round, set) fit runs once, so round 0
        # and the full-pool round fit once for every selector
        from uqcurate import curation

        fits = []
        fit = curation._fit_uq_model

        def recording_fit(spec, model, train_ds, seed):
            fits.append((len(train_ds), seed))
            return fit(spec, model, train_ds, seed)

        monkeypatch.setattr(curation, "_fit_uq_model", recording_fit)
        spec = dataclasses.replace(tiny_cfg, tranche_fraction=0.4)
        results = curation_loops(tiny_pool, ("ehal", "random"), spec, seed=4)
        assert [len(r.rows) for r in results] == [4, 4]
        round_rng = make_rng(spawn_seeds(4, 4)[3])
        draws = [int(round_rng.integers(0, 2**63)) for _ in range(4)]
        sizes = [24, 24 + 29, 24 + 58, 24 + 72]
        expected = list(zip(sizes, draws))
        assert fits == expected + expected[1:-1]

    def test_pick_order_moves_no_row(self, tiny_pool, tiny_cfg, monkeypatch):
        # round r fits its set in dataset order, so a selector that returns
        # the same picks in another order writes the same curve
        from uqcurate import curation

        spec = dataclasses.replace(tiny_cfg, tranche_fraction=0.4)
        selectors = ("ehal", "elah", "random")
        before = curation_loops(tiny_pool, selectors, spec, seed=4)
        pick = curation._pick
        monkeypatch.setattr(curation, "_pick", lambda *args: pick(*args)[::-1])
        after = curation_loops(tiny_pool, selectors, spec, seed=4)
        for a, b in zip(before, after):
            # nan-aware: row 0 has no picks and the last round no pool left
            np.testing.assert_equal([asdict(r) for r in a.rows], [asdict(r) for r in b.rows])
            cuts = [round(r.fraction_added * 72) for r in a.rows]  # 0, 29, 58, 72
            for lo, hi in zip(cuts, cuts[1:]):
                assert b.selected_ids[lo:hi] == a.selected_ids[lo:hi][::-1]

    def test_vanilla_uq_rejected(self):
        with pytest.raises(ConfigError):
            compare_spec(uq_methods=("vanilla",))

    @pytest.mark.parametrize("val_fraction", [-0.5, 0.0, 1.0])
    def test_val_fraction_outside_unit_interval_rejected(self, val_fraction):
        with pytest.raises(ConfigError, match="val_fraction"):
            compare_spec(val_fraction=val_fraction)


class TestUncertaintySources:
    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            compare_spec(head="hetero", uncertainty_source="bogus")

    @pytest.mark.parametrize("source", ["entropy", "sample"])
    def test_sources_produce_valid_records(self, tiny_pool, tiny_cfg, source):
        from dataclasses import replace

        from uqcurate.curation import pool_uncertainty_records, _fit_uq_model

        cfg = replace(tiny_cfg, uncertainty_source=source)
        fitted = _fit_uq_model(cfg, cfg.model_config(6), tiny_pool.subset(range(60)), seed=3)
        epi, ale = pool_uncertainty_records(fitted, tiny_pool.X[60:120], None, None, source)
        assert len(epi) == len(ale) == 60
        assert all(e >= 0 and a >= 0 for e, a in zip(epi, ale))
        assert all(math.isfinite(e) and math.isfinite(a) for e, a in zip(epi, ale))

    def test_scoring_uses_one_set_of_weight_samples(self, tiny_pool, tiny_cfg):
        # mc-dropout draws fresh masks on every pass, so both halves of the
        # split match only the samples of one predict_samples call on the
        # same stream
        from dataclasses import replace

        from uqcurate.curation import pool_uncertainty_records, _fit_uq_model
        from uqcurate.models import predict_samples
        from uqcurate.uq import expected_entropy, mutual_information

        cfg = replace(tiny_cfg, uq_methods=("mc-dropout",), mc_passes=6,
                      uncertainty_source="sample")
        fitted = _fit_uq_model(cfg, cfg.model_config(6), tiny_pool.subset(range(60)), seed=3)
        pool = tiny_pool.subset(range(60, 120))
        epi, ale = pool_uncertainty_records(fitted, pool.X, 6, make_rng(5), "sample")
        _, probs = predict_samples(fitted, pool.X, 6, make_rng(5))
        np.testing.assert_array_equal(epi, mutual_information(probs))
        np.testing.assert_array_equal(ale, expected_entropy(probs))

    def test_entropy_source_is_the_exact_decomposition(self, tiny_pool, tiny_cfg):
        # the dual-head pair is the margin integral over the weight samples
        # that the scoring rng draws; the decomposition draws nothing
        from dataclasses import replace

        from uqcurate.curation import pool_uncertainty_records, _fit_uq_model
        from uqcurate.models import hetero_raw_outputs
        from uqcurate.uq import hetero_decompose

        cfg = replace(tiny_cfg, uq_methods=("mc-dropout",), mc_passes=6)
        fitted = _fit_uq_model(cfg, cfg.model_config(6), tiny_pool.subset(range(60)), seed=3)
        pool = tiny_pool.subset(range(60, 120))
        stream = spawn_seeds(5, 2)[0]  # the tolerance below is set on these masks
        epi, ale = pool_uncertainty_records(fitted, pool.X, 6, make_rng(stream), "entropy")
        mu, sigma = hetero_raw_outputs(fitted, pool.X, 6, make_rng(stream))
        dec = hetero_decompose(mu, sigma)
        np.testing.assert_array_equal(epi, dec.entropy_epistemic)
        np.testing.assert_array_equal(ale, dec.entropy_aleatoric)
        # the aleatoric margin scale reaches 6.7 on this 4-epoch head, where
        # the 48-node rule's entropy is within 3.1e-5 of adaptive quadrature
        h_ale, h_epi = hetero_entropies_quad(mu, sigma)
        np.testing.assert_allclose(dec.entropy_epistemic, h_epi, rtol=0, atol=1e-9)
        np.testing.assert_allclose(dec.entropy_aleatoric, h_ale, rtol=0, atol=1e-4)

    def test_nan_uncertainty_is_a_domain_error(self, tiny_pool, tiny_cfg, monkeypatch):
        from uqcurate import curation
        from uqcurate.curation import pool_uncertainty_records, _fit_uq_model

        decompose = curation.hetero_decompose

        def nan_decompose(mu, sigma):
            dec = decompose(mu, sigma)
            dec.entropy_epistemic[3] = np.nan
            return dec

        monkeypatch.setattr(curation, "hetero_decompose", nan_decompose)
        fitted = _fit_uq_model(tiny_cfg, tiny_cfg.model_config(6),
                               tiny_pool.subset(range(60)), seed=3)
        with pytest.raises(DomainError, match="finite"):
            pool_uncertainty_records(fitted, tiny_pool.X[60:120], None, None, "entropy")

    def test_loop_scores_each_round_on_its_own_stream(self, tiny_pool, tiny_cfg,
                                                      monkeypatch):
        # round r's dropout masks draw from child 0 of the second seed that
        # child r of the eval seed spawns
        from uqcurate import curation
        from uqcurate.nncore import child_seed

        streams = []
        score = curation.pool_uncertainty_records

        def recording_score(fitted, X, n_passes, rng, source):
            streams.append(rng.bit_generator.state)
            return score(fitted, X, n_passes, rng, source)

        monkeypatch.setattr(curation, "pool_uncertainty_records", recording_score)
        spec = dataclasses.replace(tiny_cfg, uq_methods=("mc-dropout",), mc_passes=3)
        result = curation_loop(tiny_pool, "ehal", spec, seed=6)
        eval_seed = spawn_seeds(6, 4)[2]
        expected = [make_rng(child_seed(spawn_seeds(child_seed(eval_seed, r), 2)[1], 0))
                    .bit_generator.state for r in range(len(result.rows) - 1)]
        assert streams == expected  # the last round has no pool left to score

    def test_loop_builds_no_records(self, tiny_pool, tiny_cfg, monkeypatch):
        from uqcurate import curation

        def no_records(*args, **kwargs):
            raise AssertionError("the curation loop built an UncertaintyRecord")

        monkeypatch.setattr(curation, "UncertaintyRecord", no_records)
        results = curation_loops(tiny_pool, ("ehal", "elah", "random"), tiny_cfg, seed=2)
        assert [len(r.rows) for r in results] == [3, 3, 3]


class TestFitUqModel:
    def test_carve_balance_and_fit_draw_from_three_children(self, tiny_pool, tiny_cfg,
                                                           monkeypatch):
        from uqcurate import curation

        seen = {}

        def fit(method, config, size, train, val, balance_seed, seed):
            seen.update(train=train, val=val, balance_seed=balance_seed, seed=seed)
            return "fitted"

        monkeypatch.setattr(curation, "fit_method", fit)
        train = tiny_pool.subset(range(60))
        assert curation._fit_uq_model(tiny_cfg, tiny_cfg.model_config(6), train, 3) == "fitted"
        carve_seed, balance_seed, fit_seed = spawn_seeds(3, 3)
        n_val = round(tiny_cfg.val_fraction * len(train))
        perm = make_rng(carve_seed).permutation(len(train))
        np.testing.assert_array_equal(seen["val"].ids, train.subset(perm[:n_val]).ids)
        np.testing.assert_array_equal(seen["train"].ids, train.subset(perm[n_val:]).ids)
        assert seen["balance_seed"] == balance_seed
        assert seen["seed"] == fit_seed
