"""Classifier families and training protocol.

Two fixed-depth MLP variants over dense feature vectors:

* single-head: hidden stack -> logits, softmax probabilities;
* dual-head: hidden stack -> (mu, sigma) with mu through ReLU and sigma
  through softplus, trained with the Gaussian-logit NLL.  The logits are
  integrated out by quadrature (``kernels``), so neither the loss nor the
  dual head's predictive distribution draws logit noise.

The hidden stack is Linear -> ReLU -> Dropout repeated ``hidden_layers``
times.  Training uses Adam with early stopping on validation loss; the
checkpoint with the lowest validation loss is restored before returning.

``fit_method`` fits what a weight-sampling method (vanilla, mc-dropout,
ensemble) predicts with, and ``predict_samples`` is the one prediction path
for all three schemes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    DivergenceError,
    ModelStateError,
)
from .kernels import gaussian_logit_nll, gaussian_logit_probs, softmax_xent
from .nncore import (
    AdamState,
    DropoutLayer,
    LinearLayer,
    make_rng,
    relu,
    sigmoid,
    softmax,
    softplus,
    spawn_seeds,
)

Array = np.ndarray

HOMOSCEDASTIC = "homo"
HETEROSCEDASTIC = "hetero"
HEADS = (HOMOSCEDASTIC, HETEROSCEDASTIC)

SIGMA_FLOOR = 1e-12  # additive floor keeps sigma strictly positive

N_CLASSES = 2

CHECKPOINT_FORMAT = 4

# default dropout-mask seed so prediction without an explicit rng is
# reproducible
_PREDICT_SEED = 0x5EED


@dataclass
class ModelConfig:
    input_dim: int
    hidden_layers: int = 3
    hidden_width: int = 300
    dropout: float = 0.1
    head: str = HOMOSCEDASTIC
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 5
    batch_size: int = 64

    def __post_init__(self):
        if self.head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ConfigError("hidden_layers and hidden_width must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


class MlpModel:
    """Fixed-architecture MLP; weights are immutable once training returns."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        self.trained = False
        self.history: list[EpochRecord] = []
        rng = make_rng(self.seed)
        self.hidden: list[LinearLayer] = []
        self.dropouts: list[DropoutLayer] = []
        in_dim = config.input_dim
        for _ in range(config.hidden_layers):
            self.hidden.append(LinearLayer(in_dim, config.hidden_width, rng))
            self.dropouts.append(DropoutLayer(config.dropout))
            in_dim = config.hidden_width
        if config.head == HOMOSCEDASTIC:
            self.head = LinearLayer(in_dim, N_CLASSES, rng)
            self.head_mu = None
            self.head_sigma = None
        else:
            self.head = None
            self.head_mu = LinearLayer(in_dim, N_CLASSES, rng)
            self.head_sigma = LinearLayer(in_dim, N_CLASSES, rng)
        # every layer's w, b, dw and db are views of these two vectors, so the
        # optimizer and the best-epoch snapshot each touch one array
        layers = self.hidden + self._head_layers()
        self.flat_params = np.empty(sum(layer.size for layer in layers))
        self.flat_grads = np.zeros_like(self.flat_params)
        start = 0
        for layer in layers:
            stop = start + layer.size
            layer.bind(self.flat_params[start:stop], self.flat_grads[start:stop])
            start = stop

    # -- parameter plumbing -------------------------------------------------

    def _head_layers(self) -> list[LinearLayer]:
        if self.config.head == HOMOSCEDASTIC:
            return [self.head]
        return [self.head_mu, self.head_sigma]

    # -- forward / backward -------------------------------------------------

    def _forward_hidden(self, x: Array, *, stochastic: bool, cache: bool,
                        rng: np.random.Generator | None):
        pre_acts = [] if cache else None
        h = x
        for lin, drop in zip(self.hidden, self.dropouts):
            z = lin.forward(h, train=cache)
            if cache:
                pre_acts.append(z)
            h = drop.forward(relu(z), train=stochastic, rng=rng)
        return h, pre_acts

    def _backward_hidden(self, dh: Array, pre_acts: list[Array]) -> None:
        for lin, drop, z in zip(reversed(self.hidden), reversed(self.dropouts),
                                reversed(pre_acts)):
            da = drop.backward(dh)
            dz = da * (z > 0.0)
            dh = lin.backward(dz)

    def raw_outputs(self, X: Array, *, stochastic: bool = False, cache: bool = False,
                    rng: np.random.Generator | None = None):
        """Head outputs: logits for single-head, (mu, sigma) for dual-head.

        ``stochastic`` keeps dropout masks active (weight sampling);
        ``cache`` retains activations for a following backward pass.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        h, pre_acts = self._forward_hidden(X, stochastic=stochastic, cache=cache, rng=rng)
        if self.config.head == HOMOSCEDASTIC:
            logits = self.head.forward(h, train=cache)
            if cache:
                self._cache = (pre_acts, None, None)
            return logits
        mu_pre = self.head_mu.forward(h, train=cache)
        sigma_pre = self.head_sigma.forward(h, train=cache)
        mu = relu(mu_pre)
        sigma = softplus(sigma_pre) + SIGMA_FLOOR
        if cache:
            self._cache = (pre_acts, mu_pre, sigma_pre)
        return mu, sigma

    def _train_batch(self, X: Array, y: Array, rng: np.random.Generator) -> float:
        if self.config.head == HOMOSCEDASTIC:
            logits = self.raw_outputs(X, stochastic=True, cache=True, rng=rng)
            loss, dlogits, _ = softmax_xent(logits, y)
            pre_acts, _, _ = self._cache
            dh = self.head.backward(dlogits)
        else:
            mu, sigma = self.raw_outputs(X, stochastic=True, cache=True, rng=rng)
            loss, dmu, dsigma = gaussian_logit_nll(mu, sigma, y)
            pre_acts, mu_pre, sigma_pre = self._cache
            dmu_pre = dmu * (mu_pre > 0.0)
            dsigma_pre = dsigma * sigmoid(sigma_pre)
            dh = self.head_mu.backward(dmu_pre) + self.head_sigma.backward(dsigma_pre)
        self._backward_hidden(dh, pre_acts)
        self._cache = None
        return float(loss)

    def evaluate_loss(self, X: Array, y: Array) -> float:
        """Eval-mode loss; it draws nothing, so losses compare across epochs."""
        if self.config.head == HOMOSCEDASTIC:
            return float(softmax_xent(self.raw_outputs(X), y)[0])
        return gaussian_logit_nll(*self.raw_outputs(X), y)[0]


def train_model(model: MlpModel, X_train: Array, y_train: Array,
                X_val: Array, y_val: Array) -> MlpModel:
    """Adam training with early stopping on validation loss.

    Stops after ``patience`` epochs without improvement or at ``max_epochs``;
    the weights of the best-validation epoch are restored.  The full
    per-epoch history stays on the model.
    """
    cfg = model.config
    X_train = np.asarray(X_train, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if X_train.shape[0] == 0 or X_val.shape[0] == 0:
        raise ConfigError("training and validation sets must be nonempty")
    if X_train.shape[1] != cfg.input_dim or X_val.shape[1] != cfg.input_dim:
        raise DimensionError(
            f"feature dim {X_train.shape[1]} does not match config input_dim {cfg.input_dim}"
        )
    rng = make_rng(model.seed)
    # an unused draw, kept so that the shuffles and masks below, and with them
    # every single-head result, stay as they were; ROADMAP schedules its removal
    rng.integers(0, 2**63)
    opt = AdamState(lr=cfg.learning_rate)
    n = X_train.shape[0]

    best_loss = np.inf
    best_weights = None
    epochs_since_best = 0
    model.history = []

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss = model._train_batch(X_train[idx], y_train[idx], rng)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            opt.step(model.flat_params, model.flat_grads)
            total += loss * idx.shape[0]
        train_loss = total / n
        val_loss = model.evaluate_loss(X_val, y_val)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        model.history.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_weights = model.flat_params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break

    model.flat_params[...] = best_weights
    model.best_val_loss = float(best_loss)
    model.trained = True
    return model


# ---------------------------------------------------------------------------
# ensembles and the fit dispatch
# ---------------------------------------------------------------------------


@dataclass
class Ensemble:
    """Independently seeded and trained models sharing one config."""

    members: list[MlpModel]

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        cfgs = {json.dumps(asdict(m.config), sort_keys=True) for m in self.members}
        if len(cfgs) > 1:
            raise ConfigError("ensemble members must share one config")

    @property
    def config(self) -> ModelConfig:
        return self.members[0].config

    def __len__(self) -> int:
        return len(self.members)


def train_ensemble(config: ModelConfig, n_members: int,
                   X_train: Array, y_train: Array, X_val: Array, y_val: Array,
                   seed: int) -> Ensemble:
    """Train ``n_members`` models with independent seeds spawned from ``seed``."""
    if n_members < 1:
        raise ConfigError("n_members must be >= 1")
    members = []
    for member_seed in spawn_seeds(seed, n_members):
        model = MlpModel(config, seed=member_seed)
        train_model(model, X_train, y_train, X_val, y_val)
        members.append(model)
    return Ensemble(members=members)


UQ_METHODS = ("vanilla", "mc-dropout", "ensemble")


def method_passes(method: str, mc_passes: int) -> int | None:
    """The ``n_passes`` that ``predict_samples`` takes for ``method``:
    ``mc_passes`` dropout passes for 'mc-dropout', else None (every member of
    an ensemble, or one eval-mode pass of a vanilla model)."""
    return mc_passes if method == "mc-dropout" else None


def fit_method(method: str, config: ModelConfig, ensemble_size: int,
               X_train: Array, y_train: Array, X_val: Array, y_val: Array,
               seed: int):
    """Fit what a weight-sampling method predicts with: an ``Ensemble`` of
    ``ensemble_size`` members for 'ensemble', one ``MlpModel`` for 'vanilla'
    and 'mc-dropout' (they differ only at prediction time)."""
    if method not in UQ_METHODS:
        raise ConfigError(f"uq method must be one of {UQ_METHODS}, got {method!r}")
    if method == "ensemble":
        return train_ensemble(config, ensemble_size, X_train, y_train, X_val, y_val,
                              seed=seed)
    return train_model(MlpModel(config, seed=seed), X_train, y_train, X_val, y_val)


# ---------------------------------------------------------------------------
# prediction under the three weight-sampling schemes
# ---------------------------------------------------------------------------
# Draw order, which result files depend on: ``predict_samples`` draws only
# dropout masks, pass by pass, layer by layer.  An ensemble's forward passes
# and every predictive distribution (the dual head's by quadrature) draw
# nothing.


def _require_trained(model: MlpModel) -> None:
    if not model.trained:
        raise ModelStateError("model has not been trained")


def _forward_samples(fitted, X: Array, n_passes: int | None,
                     rng: np.random.Generator) -> list:
    """Head outputs of each weight sample, in sample order: logits, or a
    (mu, sigma) pair for a dual head, each (N, C)."""
    if isinstance(fitted, Ensemble):
        if n_passes is not None and n_passes != len(fitted):
            raise ConfigError(
                f"n_passes={n_passes} conflicts with ensemble of {len(fitted)} members"
            )
        for m in fitted.members:
            _require_trained(m)
        return [m.raw_outputs(X) for m in fitted.members]
    _require_trained(fitted)
    if n_passes is None:
        return [fitted.raw_outputs(X)]
    if n_passes < 1:
        raise ConfigError(f"n_passes must be >= 1, got {n_passes}")
    if fitted.config.dropout == 0.0:
        warnings.warn(
            "dropout probability is 0; all stochastic passes are identical",
            stacklevel=3,
        )
    return [fitted.raw_outputs(X, stochastic=True, rng=rng) for _ in range(n_passes)]


def _stack(outputs: list):
    """Per-sample outputs stacked along axis 1; (mu, sigma) pairs part by part."""
    if isinstance(outputs[0], tuple):
        return tuple(np.stack(part, axis=1) for part in zip(*outputs))
    return np.stack(outputs, axis=1)


def predict_samples(fitted, X: Array, n_passes: int | None = None,
                    rng: np.random.Generator | None = None):
    """Raw head outputs and predictive distributions of every weight sample.

    ``fitted`` is an ``Ensemble`` (one eval-mode pass per member; ``n_passes``
    must be None or the member count) or an ``MlpModel`` (``n_passes``
    dropout passes, or one eval-mode pass when ``n_passes`` is None).
    Returns ``(raw, probs)``: ``raw`` holds the (N, T, C) logits, or a
    ``(mu, sigma)`` pair of (N, T, C) arrays for a dual head; ``probs`` is
    the (N, T, C) stack of predictive distributions.  A dual-head sample's
    distribution is the expected softmax of its Gaussian logits,
    ``kernels.gaussian_logit_probs``.  ``rng`` drives the dropout masks only;
    a fixed default seed is used when it is None.
    """
    rng = make_rng(_PREDICT_SEED) if rng is None else rng
    outputs = _forward_samples(fitted, X, n_passes, rng)
    if fitted.config.head == HOMOSCEDASTIC:
        probs = [softmax(z) for z in outputs]
    else:
        probs = [gaussian_logit_probs(mu, sigma) for mu, sigma in outputs]
    return _stack(outputs), np.stack(probs, axis=1)


def predict_vanilla(model: MlpModel, X: Array,
                    rng: np.random.Generator | None = None) -> Array:
    """(N, C) predictive distribution of the point model (one eval-mode
    pass)."""
    return predict_samples(model, X, rng=rng)[1][:, 0]


def predict_mc_dropout(model: MlpModel, X: Array, n_passes: int = 30,
                       rng: np.random.Generator | None = None) -> Array:
    """(N, T, C) predictive samples from T = ``n_passes`` dropout passes."""
    return predict_samples(model, X, n_passes, rng)[1]


def predict_ensemble(ensemble: Ensemble, X: Array,
                     rng: np.random.Generator | None = None) -> Array:
    """(N, T, C) predictive samples, one eval-mode pass per member, in fixed
    member order."""
    return predict_samples(ensemble, X, rng=rng)[1]


def hetero_raw_outputs(model_or_ensemble, X: Array, n_passes: int | None = None,
                       rng: np.random.Generator | None = None):
    """``(mu, sigma)`` stacks, each (N, T, C), of a dual-head model's weight
    samples, as in ``predict_samples`` but without predictive distributions;
    it draws the same dropout masks."""
    if model_or_ensemble.config.head != HETEROSCEDASTIC:
        raise ConfigError("dual-head outputs need a hetero-head model")
    rng = make_rng(_PREDICT_SEED) if rng is None else rng
    return _stack(_forward_samples(model_or_ensemble, X, n_passes, rng))


# ---------------------------------------------------------------------------
# checkpoint serialization (bit-exact for float64 weights)
# ---------------------------------------------------------------------------


def _model_arrays(model: MlpModel, prefix: str) -> dict[str, Array]:
    arrays = {}
    layers = model.hidden + model._head_layers()
    for i, layer in enumerate(layers):
        arrays[f"{prefix}layer{i}_w"] = layer.w
        arrays[f"{prefix}layer{i}_b"] = layer.b
    return arrays


def _model_meta(model: MlpModel) -> dict:
    return {
        "config": asdict(model.config),
        "seed": model.seed,
        "trained": model.trained,
        "history": [[r.epoch, r.train_loss, r.val_loss] for r in model.history],
        "best_val_loss": getattr(model, "best_val_loss", None),
    }


def _restore_model(meta: dict, arrays: dict[str, Array], prefix: str) -> MlpModel:
    for key in ("config", "seed", "trained", "history"):
        if not isinstance(meta, dict) or key not in meta:
            raise DataFormatError(f"checkpoint member meta has no {key!r}")
    try:
        config = ModelConfig(**meta["config"])
    except TypeError as exc:  # a key ModelConfig lacks or needs, or not a mapping
        raise DataFormatError(f"checkpoint member config does not fit ModelConfig: {exc}") from exc
    model = MlpModel(config, seed=meta["seed"])
    layers = model.hidden + model._head_layers()
    for i, layer in enumerate(layers):
        for name, target in (("w", layer.w), ("b", layer.b)):
            key = f"{prefix}layer{i}_{name}"
            if key not in arrays:
                raise DataFormatError(f"checkpoint has no array {key!r}")
            value = arrays[key]
            if value.shape != target.shape:
                raise DataFormatError(
                    f"checkpoint array {key!r} has shape {value.shape}, the config "
                    f"needs {target.shape}"
                )
            target[...] = value  # write into the view; the flat buffer stays shared
    model.trained = meta["trained"]
    model.history = [EpochRecord(int(e), tl, vl) for e, tl, vl in meta["history"]]
    if meta.get("best_val_loss") is not None:
        model.best_val_loss = meta["best_val_loss"]
    return model


def save_checkpoint(fitted, path) -> None:
    """Write an ``MlpModel`` or an ``Ensemble`` to ``path`` as one npz file:
    a JSON meta ``{"ensemble": bool, "members": [...]}`` and the arrays
    ``m{t}_layer{i}_{w,b}`` of member t (a single model is member 0)."""
    is_ensemble = isinstance(fitted, Ensemble)
    members = fitted.members if is_ensemble else [fitted]
    arrays = {}
    for t, m in enumerate(members):
        arrays.update(_model_arrays(m, prefix=f"m{t}_"))
    meta = {"ensemble": is_ensemble, "members": [_model_meta(m) for m in members]}
    np.savez(
        path,
        format_version=np.int64(CHECKPOINT_FORMAT),
        meta=json.dumps(meta),
        **arrays,
    )


def load_checkpoint(path):
    """The ``MlpModel`` or ``Ensemble`` that ``save_checkpoint`` wrote."""
    with np.load(path, allow_pickle=False) as npz:
        if int(npz["format_version"]) != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint version in {path}")
        meta = json.loads(str(npz["meta"]))
        if not isinstance(meta, dict):
            meta = {}
        is_ensemble, metas = meta.get("ensemble"), meta.get("members")
        if (not isinstance(is_ensemble, bool) or not isinstance(metas, list) or not metas
                or (not is_ensemble and len(metas) != 1)):
            raise DataFormatError(
                f"{path} meta needs 'ensemble' and a nonempty 'members' list "
                "(one member unless 'ensemble' is true)")
        members = [_restore_model(m, npz, prefix=f"m{t}_") for t, m in enumerate(metas)]
    return Ensemble(members=members) if is_ensemble else members[0]
