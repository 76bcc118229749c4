import math

import numpy as np
import pytest

from uqcurate.data import (
    Dataset,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_shift,
    load_csv,
    parse_kv_file,
    save_csv,
    split,
    undersample_balance,
)
from uqcurate.errors import ConfigError, DataFormatError, DomainError
from uqcurate.experiments import TRAIN, spec_from_mapping
from uqcurate.nncore import make_rng


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ok.csv"
        write_lines(p, [
            "id,f0,f1,label",
            "a,1.0,2.0,0",
            "b,3.5,-1e-3,1",
            "c,0.25,4.125,0",
        ])
        ds = load_csv(p)
        assert len(ds) == 3 and ds.feature_dim == 2
        assert list(ds.ids) == ["a", "b", "c"]  # row order preserved
        assert ds.X[1, 1] == -1e-3

    def test_bad_label_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["id,f0,label", "a,1.0,0", "b,2.0,2"])
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(p)

    def test_nan_cell_names_row(self, tmp_path):
        p = tmp_path / "nan.csv"
        write_lines(p, ["id,f0,label", "a,nan,0"])
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(p)

    def test_inconsistent_width(self, tmp_path):
        p = tmp_path / "wide.csv"
        write_lines(p, ["id,f0,f1,label", "a,1.0,2.0,0", "b,1.0,0"])
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "hdr.csv"
        write_lines(p, ["name,x0,y", "a,1.0,0"])
        with pytest.raises(DataFormatError, match="header"):
            load_csv(p)

    def test_round_trip_bit_identical(self, tmp_path, rng):
        ds = generate_synthetic(SyntheticSpec(n_instances=50, feature_dim=4), rng)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p)
        np.testing.assert_array_equal(ds.X, back.X)
        np.testing.assert_array_equal(ds.y, back.y)
        np.testing.assert_array_equal(ds.noise_tags, back.noise_tags)
        assert list(ds.ids) == list(back.ids)

    def test_leading_byte_order_mark_ignored(self, tmp_path, rng):
        ds = generate_synthetic(SyntheticSpec(n_instances=20, feature_dim=3), rng)
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_csv(ds, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        assert list(a.ids) == list(b.ids)
        for name in ("X", "y", "noise_tags"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(ids=["a", "a"], X=np.zeros((2, 1)), y=np.zeros(2, dtype=int))

    @pytest.mark.parametrize("tags", [[0.5, 7], ["no", ""]])
    def test_noise_tags_checked_by_value(self, tags):
        # a cast to bool read both as tagged, and the text as [True, False]
        with pytest.raises(DataFormatError, match="noise tags must be 0 or 1"):
            Dataset(ids=["a", "b"], X=[[0.0], [1.0]], y=[0, 1], noise_tags=tags)

    def test_noise_tags_of_another_length_rejected(self):
        with pytest.raises(DataFormatError, match="noise tags must match"):
            Dataset(ids=["a", "b"], X=[[0.0], [1.0]], y=[0, 1], noise_tags=[0, 1, 1])


class TestSplit:
    def test_documented_sizes(self):
        # 100 instances at 0.8 train with a 10% validation carve: 80 in the
        # training share, 8 of those become validation
        ds = generate_synthetic(SyntheticSpec(n_instances=100, feature_dim=3), make_rng(0))
        train, val, test = split(ds, SplitSpec())
        assert (len(train), len(val), len(test)) == (72, 8, 20)

    def test_same_seed_identical(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=100, feature_dim=3), make_rng(0))
        a = split(ds, SplitSpec(seed=5))
        b = split(ds, SplitSpec(seed=5))
        for x, y in zip(a, b):
            assert list(x.ids) == list(y.ids)

    def test_partitions_disjoint_and_exhaustive(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=137, feature_dim=3), make_rng(0))
        train, val, test = split(ds, SplitSpec(seed=1))
        union = set(train.ids) | set(val.ids) | set(test.ids)
        assert union == set(ds.ids)
        assert len(train) + len(val) + len(test) == len(ds)

    def test_too_small_rejected(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=4, feature_dim=2), make_rng(0))
        with pytest.raises(ConfigError):
            split(ds, SplitSpec())


class TestBalance:
    def test_majority_undersampled(self):
        ds = generate_synthetic(
            SyntheticSpec(n_instances=60, feature_dim=2, imbalance=5.0, noisy_fraction=0.0),
            make_rng(0),
        )
        n0, n1 = ds.class_counts()
        assert n0 > n1
        bal = undersample_balance(ds, make_rng(1))
        assert bal.class_counts() == (n1, n1)
        # minority untouched
        assert set(ds.ids[ds.y == 1]) == set(bal.ids[bal.y == 1])

    def test_already_balanced_unchanged(self):
        ds = Dataset(ids=["a", "b"], X=np.zeros((2, 1)), y=np.array([0, 1]))
        bal = undersample_balance(ds, make_rng(0))
        assert set(bal.ids) == {"a", "b"}

    def test_deterministic(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=80, feature_dim=2), make_rng(0))
        a = undersample_balance(ds, make_rng(9))
        b = undersample_balance(ds, make_rng(9))
        assert list(a.ids) == list(b.ids)

    def test_single_class_rejected(self):
        ds = Dataset(ids=["a", "b"], X=np.zeros((2, 1)), y=np.array([1, 1]))
        with pytest.raises(ConfigError):
            undersample_balance(ds, make_rng(0))


class TestSubset:
    def test_subset_shares_no_memory_with_its_parent(self, rng):
        ds = generate_synthetic(SyntheticSpec(n_instances=30, feature_dim=3), rng)
        sub = ds.subset([4, 0, 17])
        for name in ("ids", "X", "y", "noise_tags"):
            assert not np.shares_memory(getattr(sub, name), getattr(ds, name)), name
        np.testing.assert_array_equal(sub.X, ds.X[[4, 0, 17]])


class TestInjectShift:
    def test_zero_intensity_identical(self, rng):
        ds = generate_synthetic(SyntheticSpec(n_instances=30, feature_dim=3), rng)
        out = inject_shift(ds, 0.0, make_rng(1))
        np.testing.assert_array_equal(ds.X, out.X)
        np.testing.assert_array_equal(ds.y, out.y)

    def test_noise_std_matches_intensity(self):
        ds = Dataset(
            ids=[f"i{k}" for k in range(1000)],
            X=np.zeros((1000, 100)),
            y=np.tile([0, 1], 500),
        )
        out = inject_shift(ds, 0.1, make_rng(2))
        noise = out.X - ds.X
        assert 0.098 <= noise.std() <= 0.102

    def test_labels_ids_order_preserved(self, rng):
        ds = generate_synthetic(SyntheticSpec(n_instances=30, feature_dim=3), rng)
        out = inject_shift(ds, 0.5, make_rng(1))
        np.testing.assert_array_equal(ds.y, out.y)
        assert list(ds.ids) == list(out.ids)
        np.testing.assert_array_equal(ds.noise_tags, out.noise_tags)

    def test_two_seeds_differ(self, rng):
        ds = generate_synthetic(SyntheticSpec(n_instances=30, feature_dim=3), rng)
        a = inject_shift(ds, 0.3, make_rng(1))
        b = inject_shift(ds, 0.3, make_rng(2))
        assert a.X.shape == b.X.shape
        assert not np.array_equal(a.X, b.X)

    def test_negative_intensity_rejected(self, rng):
        # and a non-finite one: nan made every feature nan, past the
        # finite-features check
        ds = generate_synthetic(SyntheticSpec(n_instances=30, feature_dim=3), rng)
        for intensity in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                inject_shift(ds, intensity, make_rng(0))

    def test_features_past_float_range_rejected(self):
        # a finite intensity can still overflow the noisy features: on ones
        # at 1e308, 38 of the 600 entries were inf, which failed only at a
        # later subset, naming neither the key nor the value
        ds = Dataset(ids=[f"i{k}" for k in range(200)], X=np.ones((200, 3)),
                     y=np.tile([0, 1], 100))
        with pytest.raises(DomainError, match="shift intensity 1e\\+308"):
            inject_shift(ds, 1e308, make_rng(0))


class TestGenerateSynthetic:
    def test_separable_when_gap_is_wide(self, separable_pool):
        # projection onto the difference of class means is a linear
        # classifier; with a 10-sigma gap it must be near perfect
        ds = separable_pool
        mean1 = ds.X[ds.y == 1].mean(axis=0)
        mean0 = ds.X[ds.y == 0].mean(axis=0)
        w = mean1 - mean0
        threshold = 0.5 * (mean1 + mean0) @ w
        pred = (ds.X @ w > threshold).astype(int)
        assert (pred == ds.y).mean() >= 0.99

    def test_exact_tag_count(self):
        ds = generate_synthetic(
            SyntheticSpec(n_instances=101, feature_dim=4, noisy_fraction=0.3), make_rng(0))
        assert int(ds.noise_tags.sum()) == 30

    def test_imbalance_without_noise(self):
        ds = generate_synthetic(
            SyntheticSpec(n_instances=100, feature_dim=4, imbalance=4.0, noisy_fraction=0.0),
            make_rng(0),
        )
        assert ds.class_counts() == (80, 20)

    def test_deterministic(self):
        a = generate_synthetic(SyntheticSpec(n_instances=40, feature_dim=3), make_rng(4))
        b = generate_synthetic(SyntheticSpec(n_instances=40, feature_dim=3), make_rng(4))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(noisy_fraction=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["separation", "cluster_std", "noise_scale", "imbalance"])
    def test_non_finite_scale_rejected(self, key, value):
        # accepted, such a value fails only after the data is generated
        with pytest.raises(ConfigError, match="finite"):
            SyntheticSpec(**{key: value})

    def test_from_mapping_rejects_unknown_keys(self):
        # synthetic keys are read by the one config parser
        with pytest.raises(ConfigError, match="valid keys"):
            spec_from_mapping(TRAIN, {"n_instances": "10", "bogus": "1"})

    def test_from_mapping_takes_field_types(self):
        spec = spec_from_mapping(TRAIN, {"n_instances": "10", "separation": "3"})
        assert spec.synthetic == SyntheticSpec(n_instances=10, separation=3.0)
        assert type(spec.synthetic.n_instances) is int
        assert type(spec.synthetic.separation) is float
        with pytest.raises(ConfigError, match="wrong type"):
            spec_from_mapping(TRAIN, {"feature_dim": "2.5"})


class TestKvFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        write_lines(p, ["# comment", "", "a = 1", "b=two words ", "a = 3"])
        assert parse_kv_file(p) == {"a": "3", "b": "two words"}

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        write_lines(plain, ["seed = 3", "# comment", "uq = ensemble"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_kv_file(marked) == parse_kv_file(plain) == {"seed": "3", "uq": "ensemble"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        write_lines(p, ["just noise"])
        with pytest.raises(ConfigError, match="line 1"):
            parse_kv_file(p)
