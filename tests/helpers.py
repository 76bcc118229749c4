"""Shared test utilities: independent oracles, gradient-check machinery and
a hook on the study protocol's one fit.

Oracles here must stay independent of the implementation paths they check:
matrix products use explicit loops, gradients come from central finite
differences, the training loop and the study protocol's fit are rewritten from their
documented protocols,
the Gaussian-logit expectations come from Monte Carlo draws and from
adaptive quadrature (scipy), the selector's ranking oracles sort each view
from scratch, selection traces re-implement the published loop with plain
python data structures, and study summaries are recomputed from the runs
CSVs with ``math.fsum`` and the ``statistics`` module.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import statistics
from pathlib import Path

import numpy as np

from uqcurate import curation, experiments, models
from uqcurate.curation import _record_arrays
from uqcurate.data import undersample_balance
from uqcurate.errors import DomainError
from uqcurate.kernels import gaussian_logit_nll, softmax_xent
from uqcurate.models import HOMOSCEDASTIC, MlpModel
from uqcurate.nncore import AdamState, child_seed, make_rng, softmax

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """``tools/<name>.py`` as a module (``tools/`` is no package)."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_fit_method(monkeypatch, replacement) -> None:
    """Bind ``replacement`` in place of ``models.fit_method`` at every module
    that calls it, so it sees the fit of every study and of the training run."""
    original = models.fit_method
    for module in (models, experiments, curation):
        assert module.fit_method is original
        monkeypatch.setattr(module, "fit_method", replacement)


def naive_matmul_bias(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop x @ w.T + b."""
    n, d = x.shape
    out_dim = w.shape[0]
    out = np.zeros((n, out_dim))
    for i in range(n):
        for o in range(out_dim):
            acc = 0.0
            for k in range(d):
                acc += x[i, k] * w[o, k]
            out[i, o] = acc + b[o]
    return out


def sampled_gaussian_logit_nll(mu, sigma, eps, labels):
    """Monte Carlo oracle of ``kernels.gaussian_logit_nll`` over the given
    draws eps, (B, S, 2): the logit pair of draw s is z_s = mu + sigma*eps_s,
    the per-instance loss is -log(mean_s softmax(z_s)[label]) and the result
    is the batch mean.  Returns ``(loss, dmu, dsigma)``, the gradients
    flowing through the fixed draws.

    With label sign s = +-1 and margin d = z1 - z0 each draw has
    log p_y = -logaddexp(0, -s*d).  The draws are weighted by their share
    w = p_y / sum_s p_y of the likelihood, and the gradient on z1 is
    -s*(1 - p_y)*w/B, the negative of the one on z0.
    """
    n, n_draws, _ = eps.shape
    sign = (2 * np.asarray(labels) - 1).astype(np.float64)[:, None]
    eps0 = eps[:, :, 0]
    eps1 = eps[:, :, 1]
    margin = (mu[:, 1] - mu[:, 0])[:, None] + sigma[:, 1:2] * eps1 - sigma[:, 0:1] * eps0
    logp = -np.logaddexp(0.0, -sign * margin)
    amax = logp.max(axis=1, keepdims=True)
    lse = amax + np.log(np.exp(logp - amax).sum(axis=1, keepdims=True))
    loss = float(np.mean(np.log(n_draws) - lse))
    g1 = (sign / n) * np.exp(logp - lse) * np.expm1(logp)
    dmu1 = g1.sum(axis=1)
    dmu = np.stack((-dmu1, dmu1), axis=1)
    dsigma = np.stack((-(g1 * eps0).sum(axis=1), (g1 * eps1).sum(axis=1)), axis=1)
    return loss, dmu, dsigma


def margin_probability_quad(m: float, scale: float) -> float:
    """E[sigmoid(d)] for d ~ N(m, scale^2) by adaptive quadrature (scipy),
    with a breakpoint where the sigmoid steps; relative tolerance 1e-13."""
    from scipy.integrate import quad

    def integrand(x):
        d = m + scale * x
        sig = 1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1.0 + math.exp(d))
        return sig * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    step = min(max(-m / scale, -38.0), 38.0)
    value, _ = quad(integrand, -38.0, 38.0, points=[step], epsabs=0.0, epsrel=1e-13,
                    limit=500)
    return value


def mc_softmax(mu, scale, n_draws: int, rng: np.random.Generator):
    """Monte Carlo oracle of a Gaussian-logit predictive distribution: the
    mean of softmax(mu + scale*eps) over n_draws standard-normal draws of
    eps, independent per class, drawn as one (n_draws, *mu.shape) block.
    Returns ``(mean, standard error)``, each shaped like mu."""
    eps = rng.standard_normal((n_draws,) + mu.shape)
    p = softmax(mu[None, ...] + scale[None, ...] * eps)
    return p.mean(axis=0), p.std(axis=0) / math.sqrt(n_draws)


def _binary_entropy_quad(m: float, scale: float) -> float:
    """Entropy in nats of [E sigmoid(-d), E sigmoid(d)], d ~ N(m, scale^2),
    each class integrated on its own by adaptive quadrature; scale 0 gives
    the sigmoid at m."""
    if scale == 0.0:
        p = [1.0 / (1.0 + math.exp(m)), 1.0 / (1.0 + math.exp(-m))]
    else:
        p = [margin_probability_quad(-m, scale), margin_probability_quad(m, scale)]
    return -sum(q * math.log(q) for q in p if q > 0.0)


def hetero_entropies_quad(mu, sigma):
    """Oracle of ``uq.hetero_decompose`` for (N, T, 2) head outputs, one
    instance at a time in plain python: the (aleatoric, epistemic) entropies
    of the Gaussian logits around mean(mu_t) with per-class scales
    sqrt(mean(sigma_t^2)) and the population std of mu_t."""
    h_ale, h_epi = [], []
    for mu_i, sigma_i in zip(np.asarray(mu).tolist(), np.asarray(sigma).tolist()):
        t = len(mu_i)
        mean = [sum(row[c] for row in mu_i) / t for c in (0, 1)]
        ale = [math.sqrt(sum(row[c] ** 2 for row in sigma_i) / t) for c in (0, 1)]
        epi = [math.sqrt(sum((row[c] - mean[c]) ** 2 for row in mu_i) / t) for c in (0, 1)]
        h_ale.append(_binary_entropy_quad(mean[1] - mean[0], math.hypot(*ale)))
        h_epi.append(_binary_entropy_quad(mean[1] - mean[0], math.hypot(*epi)))
    return np.array(h_ale), np.array(h_epi)


def gaussian_logit_nll_loop(mu, sigma, eps, labels):
    """Sampled Gaussian-logit NLL for any class count, written as plain loops.

    Per instance and draw it forms z = mu + sigma*eps, takes the softmax over
    the classes and log p[label]; the loss is mean_i(log S - logsumexp_s),
    and the gradients weight each draw's (p - onehot) by its likelihood
    share.  Returns ``(loss, dmu, dsigma)`` like
    ``sampled_gaussian_logit_nll``.
    """
    n, n_draws, n_classes = eps.shape
    dmu = np.zeros((n, n_classes))
    dsigma = np.zeros((n, n_classes))
    p = np.empty((n_draws, n_classes))
    a = np.empty(n_draws)
    loss = 0.0
    for i in range(n):
        y = labels[i]
        for s in range(n_draws):
            for c in range(n_classes):
                p[s, c] = mu[i, c] + sigma[i, c] * eps[i, s, c]
            zmax = p[s].max()
            tot = 0.0
            for c in range(n_classes):
                p[s, c] = np.exp(p[s, c] - zmax)
                tot += p[s, c]
            for c in range(n_classes):
                p[s, c] /= tot
            a[s] = np.log(p[s, y])
        amax = a.max()
        acc = 0.0
        for s in range(n_draws):
            acc += np.exp(a[s] - amax)
        lse = amax + np.log(acc)
        loss += np.log(float(n_draws)) - lse
        for s in range(n_draws):
            w = np.exp(a[s] - lse)
            for c in range(n_classes):
                d = p[s, c] - (1.0 if c == y else 0.0)
                dmu[i, c] += w * d
                dsigma[i, c] += w * d * eps[i, s, c]
    return loss / n, dmu / n, dsigma / n


# ---------------------------------------------------------------------------
# model-level gradient checking
# ---------------------------------------------------------------------------


def model_loss(model: MlpModel, X, y, mask_seed: int = 123) -> float:
    """Loss of the prediction path's stochastic forward (``raw_outputs``)
    with dropout masks frozen by reseeding, so repeated evaluations at
    perturbed parameters see identical stochasticity."""
    outputs = model.raw_outputs(X, make_rng(mask_seed))
    if model.config.head == HOMOSCEDASTIC:
        return float(softmax_xent(outputs, y)[0])
    return float(gaussian_logit_nll(*outputs, y)[0])


def model_loss_and_grads(model: MlpModel, X, y, mask_seed: int = 123):
    """Loss and flat gradient of the model's own training step under the
    masks of ``model_loss``."""
    loss = model._train_batch(X, y, make_rng(mask_seed))
    return loss, model.flat_grads.copy()


def kink_margin(model: MlpModel, X, mask_seed: int = 123) -> float:
    """Smallest |pre-activation| at any relu in the frozen-mask forward pass.

    Central differences are invalid when a perturbation crosses a relu kink,
    so gradient checks require this margin to exceed the step size.
    """
    tape = []
    outs = model._forward(X, make_rng(mask_seed), tape)
    pre_acts = [z for _, z, _ in tape[:-1]]
    if model.config.head != HOMOSCEDASTIC:
        pre_acts.append(outs[0])  # mu passes through a relu too
    return min(float(np.abs(z).min()) for z in pre_acts)


def max_relative_gradient_error(model: MlpModel, X, y, step: float = 1e-5,
                                mask_seed: int = 123) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients over every parameter of the model."""
    loss, flat_g = model_loss_and_grads(model, X, y, mask_seed=mask_seed)
    # training and prediction run one forward pass, so the losses agree exactly
    assert loss == model_loss(model, X, y, mask_seed=mask_seed)
    flat_p = model.flat_params  # every layer's w and b are views of it
    worst = 0.0
    for i in range(flat_p.shape[0]):
        orig = flat_p[i]
        flat_p[i] = orig + step
        lp = model_loss(model, X, y, mask_seed=mask_seed)
        flat_p[i] = orig - step
        lm = model_loss(model, X, y, mask_seed=mask_seed)
        flat_p[i] = orig
        fd = (lp - lm) / (2.0 * step)
        denom = max(abs(fd), abs(flat_g[i]), 1e-6)
        worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst


def gradcheck_model(head: str, seed: int, *, dropout: float = 0.1, step: float = 1e-5,
                    n_instances: int = 4, input_dim: int = 5, hidden_layers: int = 3,
                    hidden_width: int = 8) -> float:
    """Build a small random model/batch in general position and return the
    worst relative gradient error.  Seeds that land a pre-activation within
    50 steps of a relu kink are skipped deterministically."""
    from uqcurate.models import ModelConfig

    for candidate in range(seed, seed + 50):
        rng = np.random.default_rng(candidate)
        cfg = ModelConfig(
            input_dim=input_dim,
            hidden_layers=hidden_layers,
            hidden_width=hidden_width,
            dropout=dropout,
            head=head,
        )
        model = MlpModel(cfg, seed=candidate)
        X = rng.standard_normal((n_instances, input_dim))
        y = rng.integers(0, 2, n_instances)
        if kink_margin(model, X) > 50 * step:
            return max_relative_gradient_error(model, X, y, step=step)
    raise AssertionError("no kink-safe configuration found in 50 candidate seeds")


# ---------------------------------------------------------------------------
# the training loop, from its documented protocol
# ---------------------------------------------------------------------------


def train_oracle(model: MlpModel, X_train, y_train, X_val, y_val):
    """``train_model``'s loop as its docstring and README's draw order state
    it, around the library's step (``_train_batch``) and ``AdamState.step``,
    which their own oracles check.  Returns ``(history, params)``: the
    ``(epoch, train_loss, val_loss)`` rows and the restored parameters.

    Training draws from ``make_rng(seed)`` after one unused ``integers``
    draw: per epoch one permutation of the rows, walked in ``batch_size``
    slices with the shorter tail last, each slice's dropout masks drawn from
    the same stream.  The train loss is the mean of the batch losses weighted
    by their rows, the validation loss an eval-mode pass.  Training stops
    after ``patience`` epochs without a strict improvement of the validation
    loss, or after ``max_epochs``; either way the best epoch's parameters
    come back.
    """
    cfg = model.config
    rng = make_rng(model.seed)
    rng.integers(0, 2**63)
    opt = AdamState(lr=cfg.learning_rate)
    n = len(y_train)
    history, best_loss, best_params, stale = [], math.inf, None, 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        batches = [order[i:i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]
        weighted = []
        for rows in batches:
            weighted.append(model._train_batch(X_train[rows], y_train[rows], rng) * len(rows))
            opt.step(model.flat_params, model.flat_grads)
        val_loss = model.evaluate_loss(X_val, y_val)
        history.append((epoch, sum(weighted) / n, val_loss))
        if val_loss < best_loss:
            best_loss, best_params, stale = val_loss, model.flat_params.copy(), 0
        else:
            stale += 1
            if stale == cfg.patience:
                break
    return history, best_params


def fit_oracle(method: str, config, ensemble_size: int, train, val, balance_seed: int,
               seed: int) -> list:
    """``fit_method`` as its docstring states it: ``train`` undersampled to
    balance with ``make_rng(balance_seed)``, then each model fitted on it by
    ``train_oracle``, early-stopped on ``val``: ``ensemble_size`` members
    seeded ``child_seed(seed, i)`` for 'ensemble', one model seeded ``seed``
    for 'vanilla' and 'mc-dropout'.  Returns one ``(history, params)`` per
    model, in member order."""
    fit = undersample_balance(train, make_rng(balance_seed))
    seeds = ([child_seed(seed, i) for i in range(ensemble_size)] if method == "ensemble"
             else [seed])
    return [train_oracle(MlpModel(config, seed=s), fit.X, fit.y, val.X, val.y) for s in seeds]


# ---------------------------------------------------------------------------
# selection oracles: array ranking and the selection-trace loop
# ---------------------------------------------------------------------------


def _extreme_index(ids: np.ndarray, values: np.ndarray, alive: np.ndarray, largest: bool) -> int:
    """Index of the max (or min) value among alive entries, id-tie-broken."""
    cand = np.flatnonzero(alive)
    v = values[cand]
    target = v.max() if largest else v.min()
    tied = cand[v == target]
    if tied.shape[0] == 1:
        return int(tied[0])
    return int(tied[np.argsort(ids[tied].astype(str), kind="stable")[0]])


def _rejection_set(ids: np.ndarray, ale: np.ndarray, alive: np.ndarray, n_ale: int,
                   largest: bool) -> np.ndarray:
    """Alive indices of the n_ale largest (or smallest) aleatoric values,
    id-tie-broken like the sequential scan."""
    cand = np.flatnonzero(alive)
    k = min(n_ale, cand.shape[0])
    key = -ale[cand] if largest else ale[cand]
    order = np.lexsort((ids[cand].astype(str), key))
    return cand[order[:k]]


def top_one_by_epistemic(records) -> str:
    """Id with the largest epistemic value (lexicographic id on ties)."""
    ids, epi, _ = _record_arrays(records)
    return str(ids[_extreme_index(ids, epi, np.ones(len(ids), dtype=bool), largest=True)])


def top_n_by_aleatoric(records, n_ale: int) -> set[str]:
    """Ids of the min(n_ale, pool) largest aleatoric values (same tie rule)."""
    if n_ale < 1:
        raise DomainError(f"n_ale must be >= 1, got {n_ale}")
    ids, _, ale = _record_arrays(records)
    idx = _rejection_set(ids, ale, np.ones(len(ids), dtype=bool), n_ale, largest=True)
    return {str(i) for i in ids[idx]}


def trace_select_one(pool: dict[str, tuple[float, float]], n_ale: int,
                     high_epistemic: bool = True) -> str:
    """Literal re-implementation of the published select-and-reject loop with
    plain dicts and sorts, including the documented exhaustion fallback."""

    def top_epi(view):
        items = sorted(view.items(), key=lambda kv: (-kv[1][0] if high_epistemic else kv[1][0], kv[0]))
        return items[0][0]

    def ale_set(view):
        items = sorted(view.items(), key=lambda kv: (-kv[1][1] if high_epistemic else kv[1][1], kv[0]))
        return {k for k, _ in items[: min(n_ale, len(items))]}

    candidates = dict(pool)
    while candidates:
        d = top_epi(candidates)
        if d not in ale_set(candidates):
            return d
        del candidates[d]
    return top_epi(dict(pool))


def trace_curate(pool: dict[str, tuple[float, float]], n: int, n_ale: int | None,
                 high_epistemic: bool = True, n_ale_fraction: float | None = None) -> list[str]:
    """Pick n times with ``trace_select_one``, removing each pick.  With
    ``n_ale`` None the rejection-set size is ceil(n_ale_fraction * remaining),
    at least 1, recomputed before every pick."""
    remaining = dict(pool)
    picked = []
    while remaining and len(picked) < n:
        k = n_ale if n_ale is not None else max(1, math.ceil(n_ale_fraction * len(remaining)))
        d = trace_select_one(remaining, k, high_epistemic)
        del remaining[d]
        picked.append(d)
    return picked


# ---------------------------------------------------------------------------
# study summaries, recomputed from the runs rows without numpy
# ---------------------------------------------------------------------------


def _cell(text: str):
    """A result-CSV cell as an int, else a float (``nan`` included), else text."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_result_csv(path) -> tuple[list[str], list[dict]]:
    """The header of a result CSV and its rows, every cell parsed by ``_cell``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, map(_cell, line))) for line in reader]


def _fmean(values) -> float:
    return math.fsum(values) / len(values)


def summary_oracle(spec, run_rows: list[dict]) -> list[dict]:
    """The summary rows of ``spec``'s study, recomputed from its runs rows with
    ``math.fsum``, ``statistics.pstdev`` and ``statistics.pvariance``.

    Groups come in spec order, first key outermost: shift by (method,
    intensity), growth by fraction, compare by (selector, round) over the
    sorted rounds, skipping a round a selector never ran.  A row holds the
    keys, the mean over the repetitions and the population std of each
    column (compare adds the population variance of f1, growth the percent
    drop of each mean from the previous fraction, 0 at the first), then
    ``n_reps``.
    """
    def group(**keys):
        return [r for r in run_rows if all(r[k] == v for k, v in keys.items())]

    rows = []
    if spec.kind == experiments.SHIFT:
        for method in spec.uq_methods:
            for intensity in spec.intensities:
                runs = group(method=method, intensity=intensity)
                f1 = [r["f1"] for r in runs]
                brier = [r["brier"] for r in runs]
                rows.append({"method": method, "intensity": intensity,
                             "mean_f1": _fmean(f1), "std_f1": statistics.pstdev(f1),
                             "mean_brier": _fmean(brier),
                             "std_brier": statistics.pstdev(brier), "n_reps": len(runs)})
    elif spec.kind == experiments.GROWTH:
        previous = None
        for fraction in spec.growth_fractions:
            runs = group(fraction=fraction)
            epi = [r["mean_epi"] for r in runs]
            ale = [r["mean_ale"] for r in runs]
            means = {"epi": _fmean(epi), "ale": _fmean(ale)}
            delta = {k: 0.0 if previous is None else
                     100.0 * (previous[k] - means[k]) / previous[k] for k in means}
            rows.append({"fraction": fraction,
                         "mean_epi": means["epi"], "delta_epi_pct": delta["epi"],
                         "std_epi": statistics.pstdev(epi),
                         "mean_ale": means["ale"], "delta_ale_pct": delta["ale"],
                         "std_ale": statistics.pstdev(ale), "n_reps": len(runs)})
            previous = means
    elif spec.kind == experiments.COMPARE:
        for selector in spec.selectors:
            for rnd in sorted({r["round"] for r in run_rows}):
                runs = group(selector=selector, round=rnd)
                if not runs:
                    continue
                f1 = [r["f1"] for r in runs]
                rows.append({
                    "selector": selector, "round": rnd,
                    "fraction_added": _fmean([r["fraction_added"] for r in runs]),
                    "mean_f1": _fmean(f1), "std_f1": statistics.pstdev(f1),
                    "var_f1": statistics.pvariance(f1),
                    # NaN in round 0, which has no picks: fsum propagates it
                    "mean_selected_noisy_fraction": _fmean(
                        [r["selected_noisy_fraction"] for r in runs]),
                    "n_reps": len(runs)})
    else:
        raise ValueError(f"no summary for kind {spec.kind!r}")
    return rows
