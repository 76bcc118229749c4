import numpy as np
import pytest

from uqcurate.data import SplitSpec, SyntheticSpec, generate_synthetic, split, undersample_balance
from uqcurate.nncore import make_rng


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_pool():
    """400-instance noisy pool shared by model-level tests."""
    spec = SyntheticSpec(n_instances=400, feature_dim=10)
    return generate_synthetic(spec, make_rng(1))


@pytest.fixture(scope="session")
def small_splits(small_pool):
    train, val, test = split(small_pool, SplitSpec(seed=3))
    balanced = undersample_balance(train, make_rng(5))
    return balanced, val, test


@pytest.fixture(scope="session")
def separable_pool():
    """Cleanly separable blobs (gap of 10 cluster widths, no noise)."""
    spec = SyntheticSpec(
        n_instances=600, feature_dim=10, separation=10.0, cluster_std=1.0,
        noisy_fraction=0.0,
    )
    return generate_synthetic(spec, make_rng(2))
