"""Finite-difference validation of every analytic gradient path.

Checks run on small random networks in general position; configurations with
a pre-activation within 50 steps of a relu kink are skipped deterministically
(central differences are meaningless across the kink).
"""

import numpy as np
import pytest

from helpers import gradcheck_model
from uqcurate import models
from uqcurate.kernels import softmax_xent

TOL = 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_head_full_stack(seed):
    assert gradcheck_model("homo", seed) < TOL


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_dual_head_full_stack(seed):
    assert gradcheck_model("hetero", seed) < TOL


def test_single_head_without_dropout():
    assert gradcheck_model("homo", 20, dropout=0.0) < TOL


def test_dual_head_without_dropout():
    assert gradcheck_model("hetero", 21, dropout=0.0) < TOL


def test_dual_head_wider_batch():
    assert gradcheck_model("hetero", 30, n_instances=8, hidden_width=6) < TOL


# The check differentiates the model's own training step: breaking that
# step's chain rule must show up as a gradient error.

def test_dual_head_check_catches_a_broken_sigma_chain_rule(monkeypatch):
    monkeypatch.setattr(models, "sigmoid", np.ones_like)
    assert gradcheck_model("hetero", 10) > TOL


def test_single_head_check_catches_a_broken_logit_gradient(monkeypatch):
    def doubled(logits, labels):
        loss, dlogits, probs = softmax_xent(logits, labels)
        return loss, 2.0 * dlogits, probs

    monkeypatch.setattr(models, "softmax_xent", doubled)
    assert gradcheck_model("homo", 0) > TOL
