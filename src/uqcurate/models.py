"""Classifier families and training protocol.

Two fixed-depth MLP variants over dense feature vectors:

* single-head: hidden stack -> logits, softmax probabilities;
* dual-head: hidden stack -> (mu, sigma) with mu through ReLU and sigma
  through softplus, trained with the Gaussian-logit NLL.  The logits are
  integrated out by quadrature (``kernels``), so neither the loss nor the
  dual head's predictive distribution draws logit noise.

The hidden stack is Linear -> ReLU -> Dropout repeated ``hidden_layers``
times.  ``MlpModel._forward`` is the one forward pass, for training and
prediction alike; it draws dropout masks exactly when it gets an rng.
``MlpModel._train_batch`` is the one training step: it keeps its backward
pass's inputs on a tape, alone computes a batch's loss and fills the gradient
vector, and the finite-difference check of acceptance criterion 1
differentiates it.
Training uses Adam with early stopping on validation loss; the checkpoint
with the lowest validation loss is restored before returning.

``fit_method`` balances a training set and fits what a weight-sampling
method (vanilla, mc-dropout, ensemble) predicts with, ``predict_samples`` is
the one prediction path for all three schemes, and ``method_report`` is the
one test-set score.  Eval-mode passes over more than ``kernels.ROW_BLOCK``
rows run in row blocks, with the same bits as one pass; dropout passes run
as one block, so their masks are drawn in the same order.
"""

from __future__ import annotations

import json
import math
import warnings
import zipfile
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from .data import Dataset, undersample_balance
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    DivergenceError,
    ModelStateError,
)
from .kernels import gaussian_logit_nll, gaussian_logit_probs, row_blocks, softmax_xent
from .metrics import EvalReport, classification_report
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
from .uq import mean_predictive

Array = np.ndarray

HOMOSCEDASTIC = "homo"
HETEROSCEDASTIC = "hetero"
HEADS = (HOMOSCEDASTIC, HETEROSCEDASTIC)

SIGMA_FLOOR = 1e-12  # additive floor keeps sigma strictly positive

N_CLASSES = 2

CHECKPOINT_FORMAT = 5


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


def _dual_head(mu_pre: Array, sigma_pre: Array) -> tuple[Array, Array]:
    """(mu, sigma) from the dual head's two affine outputs."""
    return relu(mu_pre), softplus(sigma_pre) + SIGMA_FLOOR


def param_layout(config: ModelConfig):
    """The one statement of a model's parameter layout: yields each layer as
    ``(name, w, b, (out_dim, in_dim))`` in init-draw and parameter-vector (so
    checkpoint) order, the hidden layers, then the logits head, or the mu head
    and then the sigma head.  ``w`` and ``b`` slice the vector: the layer's
    weights row-major, then right after them its biases; the last ``b`` ends
    the vector.  The walk is lazy, so a caller may stop it early: a
    checkpoint's config may name a model too large to list."""
    width, in_dim, start = config.hidden_width, config.input_dim, 0
    heads = ["logits"] if config.head == HOMOSCEDASTIC else ["mu", "sigma"]
    for name, out_dim in chain(((f"hidden{k}", width) for k in range(config.hidden_layers)),
                               ((head, N_CLASSES) for head in heads)):
        w_stop = start + out_dim * in_dim
        yield name, slice(start, w_stop), slice(w_stop, w_stop + out_dim), (out_dim, in_dim)
        start, in_dim = w_stop + out_dim, width


class MlpModel:
    """Fixed-architecture MLP; weights are immutable once training returns.
    It is trained exactly when ``history``, its fit's one record, is nonempty.
    Every layer's w, b, dw and db are views of ``flat_params`` and
    ``flat_grads``, placed by ``param_layout``, so the optimizer and the
    best-epoch snapshot each touch one array."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        self.history: list[EpochRecord] = []
        self.dropout = DropoutLayer(config.dropout)  # one per model: it holds only p
        layout = list(param_layout(config))
        size = layout[-1][2].stop  # the last layer's b ends the vector
        self.flat_params, self.flat_grads = np.zeros(size), np.zeros(size)
        rng = make_rng(self.seed)
        p, g, layers = self.flat_params, self.flat_grads, {}
        for name, w, b, shape in layout:
            layers[name] = LinearLayer(p[w].reshape(shape), p[b], g[w].reshape(shape), g[b])
            limit = np.sqrt(6.0 / sum(shape))  # Glorot uniform, drawn into w; b stays 0
            layers[name].w[...] = rng.uniform(-limit, limit, size=shape)
        self.hidden = [layers[f"hidden{k}"] for k in range(config.hidden_layers)]
        # the heads by role, in output order: [logits] or [mu, sigma]
        self.heads = [layers[name] for name in ("logits", "mu", "sigma") if name in layers]

    @property
    def trained(self) -> bool:
        return bool(self.history)

    def _forward(self, X: Array, rng: np.random.Generator | None = None,
                 tape: list | None = None) -> list[Array]:
        """The head layers' affine outputs, before their activations.

        With ``rng`` every hidden layer gets a dropout mask from it (a weight
        sample), all from one draw that equals the layer-by-layer draws;
        without one the pass draws nothing.  A ``tape`` (a list) receives what
        ``_train_batch``'s backward pass reads: one ``(input, pre-activation,
        mask)`` triple per hidden layer, then the heads' input.
        """
        masks = self.dropout.masks(rng, (len(self.hidden), X.shape[0], self.config.hidden_width))
        h = X
        for k, lin in enumerate(self.hidden):
            mask = None if masks is None else masks[k]
            z = lin.forward(h)
            # relu, then the mask, in place on a fresh array (z is fresh too
            # when no tape keeps it)
            out = np.maximum(z, 0.0, out=None if tape is not None else z)
            if mask is not None:
                out *= mask
            if tape is not None:
                tape.append((h, z, mask))
            h = out
        if tape is not None:
            tape.append(h)
        return [head.forward(h) for head in self.heads]

    def raw_outputs(self, X: Array, rng: np.random.Generator | None = None):
        """Head outputs: logits for single-head, (mu, sigma) for dual-head.

        With ``rng`` the pass draws dropout masks from it (weight sampling).
        A pass without one runs in the row blocks of ``kernels.row_blocks``,
        so its hidden activations take one block's memory, not the whole
        input's; the outputs equal one pass over all rows bit for bit.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        blocks = row_blocks(X.shape[0])
        if rng is not None or len(blocks) == 1:
            # dropout passes stay one block: blocks would draw the masks in
            # another order, and so change every mc-dropout result
            outs = self._forward(X, rng)
        else:
            outs = [np.empty((X.shape[0], head.out_dim)) for head in self.heads]
            for rows in blocks:
                for out, part in zip(outs, self._forward(X[rows])):
                    out[rows] = part
        return outs[0] if self.config.head == HOMOSCEDASTIC else _dual_head(*outs)

    def _train_batch(self, X: Array, y: Array, rng: np.random.Generator) -> float:
        """The one training step: the batch's loss under fresh dropout masks
        from ``rng``, with its gradient written to ``flat_grads``."""
        tape = []
        outs = self._forward(X, rng, tape)
        h = tape.pop()  # the heads' input
        if self.config.head == HOMOSCEDASTIC:
            loss, dlogits, _ = softmax_xent(outs[0], y)
            dh = self.heads[0].backward(dlogits, h)
        else:
            mu_pre, sigma_pre = outs
            loss, dmu, dsigma = gaussian_logit_nll(*_dual_head(mu_pre, sigma_pre), y)
            dh = (self.heads[0].backward(dmu * (mu_pre > 0.0), h)
                  + self.heads[1].backward(dsigma * sigmoid(sigma_pre), h))
        for k in reversed(range(len(self.hidden))):
            x, z, mask = tape[k]
            # dh is a fresh array that nothing else holds, so the mask and the
            # relu gate go in place
            if mask is not None:
                dh *= mask
            dh *= z > 0.0
            # the first layer's input is the batch, whose gradient nothing reads
            dh = self.hidden[k].backward(dh, x, input_grad=k > 0)
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
    the best-validation epoch's weights are restored, and only then is the
    per-epoch history set on the model (a fit that raises sets none).
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
    history = []

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
        # a moment past float range freezes its weight while every loss stays finite
        if not (np.isfinite(opt.m).all() and np.isfinite(opt.v).all()):
            raise DivergenceError(f"non-finite optimizer state at epoch {epoch}")
        train_loss = total / n
        val_loss = model.evaluate_loss(X_val, y_val)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_weights = model.flat_params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break

    model.flat_params[...] = best_weights
    model.history = history
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


def method_report(method: str, fitted, test: Dataset, mc_passes: int,
                  seed: int) -> EvalReport:
    """The study protocol's test score: the classification report of
    ``method``'s mean predictive on ``test``, its dropout masks (if any)
    drawn from ``seed``."""
    samples = predict_samples(fitted, test.X, method_passes(method, mc_passes), make_rng(seed))
    return classification_report(mean_predictive(samples[1]), test.y)


def fit_method(method: str, config: ModelConfig, ensemble_size: int,
               train: Dataset, val: Dataset, balance_seed: int, seed: int):
    """The study protocol's fit: undersample ``train`` to balance with
    ``balance_seed``, then fit what a weight-sampling method predicts with,
    an ``Ensemble`` of ``ensemble_size`` members for 'ensemble', one
    ``MlpModel`` for 'vanilla' and 'mc-dropout' (they differ only at
    prediction time), early-stopped on ``val``."""
    if method not in UQ_METHODS:
        raise ConfigError(f"uq method must be one of {UQ_METHODS}, got {method!r}")
    fit = undersample_balance(train, make_rng(balance_seed))
    if method == "ensemble":
        return train_ensemble(config, ensemble_size, fit.X, fit.y, val.X, val.y, seed=seed)
    return train_model(MlpModel(config, seed=seed), fit.X, fit.y, val.X, val.y)


# ---------------------------------------------------------------------------
# prediction under the three weight-sampling schemes
# ---------------------------------------------------------------------------
# Draw order, which result files depend on: ``predict_samples`` draws only
# dropout masks, pass by pass, layer by layer (one draw per pass holds every
# layer's mask, in layer order).  An ensemble's forward passes
# and every predictive distribution (the dual head's by quadrature) draw
# nothing.


def _require_trained(model: MlpModel) -> None:
    if not model.trained:
        raise ModelStateError("model has not been trained")


def _forward_samples(fitted, X: Array, n_passes: int | None,
                     rng: np.random.Generator | None) -> list:
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
    if rng is None:
        raise ConfigError("dropout passes need an rng for their masks")
    if fitted.config.dropout == 0.0:
        warnings.warn(
            "dropout probability is 0; all dropout passes are identical",
            stacklevel=3,
        )
    return [fitted.raw_outputs(X, rng) for _ in range(n_passes)]


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
    ``kernels.gaussian_logit_probs``.  ``rng`` drives the dropout masks only:
    dropout passes raise ``ConfigError`` without one, and eval-mode passes
    draw nothing.
    """
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
    return _stack(_forward_samples(model_or_ensemble, X, n_passes, rng))


# ---------------------------------------------------------------------------
# checkpoint serialization (bit-exact for float64 weights)
# ---------------------------------------------------------------------------


def _model_meta(model: MlpModel) -> dict:
    return {
        "config": asdict(model.config),
        "seed": model.seed,
        "history": [[r.epoch, r.train_loss, r.val_loss] for r in model.history],
    }


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_real(value) and abs(value) < math.inf  # no float cast: an int may pass its range


# what each member meta value must be; the history carries the trained state
_MEMBER_META = {
    "seed": (lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
    "history": (lambda v: isinstance(v, list) and all(
        isinstance(r, list) and len(r) == 3 and type(r[0]) is int
        and _is_finite(r[1]) and _is_finite(r[2]) for r in v),
        "a list of [epoch, train_loss, val_loss] rows with finite losses"),
}


# what a member config value must be, by its ModelConfig annotation
_CONFIG_VALUE = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_real, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _restore_config(config) -> ModelConfig:
    if not isinstance(config, dict):
        raise DataFormatError(f"checkpoint member config must be a mapping, got {config!r}")
    for f in fields(ModelConfig):
        valid, kind = _CONFIG_VALUE[f.type]
        if f.name in config and not valid(config[f.name]):
            raise DataFormatError(
                f"checkpoint member config {f.name!r} must be {kind}, got {config[f.name]!r}")
    try:
        return ModelConfig(**config)
    # a key ModelConfig lacks or needs, a bad value, or an int past float range
    except (TypeError, OverflowError, ConfigError) as exc:
        raise DataFormatError(f"checkpoint member config does not fit ModelConfig: {exc}") from exc


def _restore_model(meta: dict, arrays, key: str) -> MlpModel:
    if not isinstance(meta, dict) or "config" not in meta:
        raise DataFormatError("checkpoint member meta has no 'config'")
    for name, (valid, kind) in _MEMBER_META.items():
        if not valid(meta.get(name)):
            raise DataFormatError(
                f"checkpoint member {name!r} must be {kind}, got {meta.get(name)!r}")
    config = _restore_config(meta["config"])
    try:
        value = arrays[key]
    except (KeyError, ValueError):  # no such array, or an object array, which needs pickle
        raise DataFormatError(f"checkpoint has no readable array {key!r}") from None
    # the config's vector length, before any model is built; the walk stops
    # once past the array, so a config of a huge model lists few layers
    size = 0
    for *_, b, _ in param_layout(config):
        size = b.stop
        if size > value.size:
            break
    if (value.shape != (size,) or not np.issubdtype(value.dtype, np.floating)
            or not np.isfinite(value).all()):
        raise DataFormatError(
            f"checkpoint array {key!r} must be the config's parameter vector of finite "
            f"real floats, got shape {value.shape} and dtype {value.dtype}")
    model = MlpModel(config, seed=meta["seed"])
    model.flat_params[...] = value  # into the buffer that every layer views
    model.history = [EpochRecord(e, tl, vl) for e, tl, vl in meta["history"]]
    return model


def save_checkpoint(fitted, path) -> None:
    """Write an ``MlpModel`` or an ``Ensemble`` to ``path`` as one npz file:
    a JSON meta ``{"ensemble": bool, "members": [...]}`` with each member's
    ``{config, seed, history}``, and the ``flat_params`` of member t (a
    single model is member 0), laid out by ``param_layout``, as
    ``m{t}_params``.  ``train_model`` sets a history only when it returns,
    so it records whether a member is trained."""
    is_ensemble = isinstance(fitted, Ensemble)
    members = fitted.members if is_ensemble else [fitted]
    meta = {"ensemble": is_ensemble, "members": [_model_meta(m) for m in members]}
    np.savez(
        path,
        format_version=np.int64(CHECKPOINT_FORMAT),
        meta=json.dumps(meta),
        **{f"m{t}_params": m.flat_params for t, m in enumerate(members)},
    )


def load_checkpoint(path):
    """The ``MlpModel`` or ``Ensemble`` that ``save_checkpoint`` wrote, each
    member trained exactly when its stored history is nonempty; a file of
    another format version raises ``ConfigError``, and a file that is no
    checkpoint ``DataFormatError``."""
    with open(path, "rb") as fh:  # np.load leaves a path it opened open when it fails
        try:
            npz = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # no npy or npz file
            raise DataFormatError(f"{path} is not a checkpoint: {exc}") from None
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise DataFormatError(f"{path} is not a checkpoint: it holds one bare array")
        try:
            version = int(npz["format_version"])
        except (KeyError, TypeError, ValueError):
            raise DataFormatError(f"{path} has no integer 'format_version'") from None
        if version != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint version in {path}")
        try:
            meta = json.loads(str(npz["meta"]))
        except (KeyError, ValueError):  # JSONDecodeError is a ValueError
            raise DataFormatError(f"{path} has no JSON 'meta'") from None
        if not isinstance(meta, dict):
            meta = {}
        is_ensemble, metas = meta.get("ensemble"), meta.get("members")
        if (not isinstance(is_ensemble, bool) or not isinstance(metas, list) or not metas
                or (not is_ensemble and len(metas) != 1)):
            raise DataFormatError(
                f"{path} meta needs 'ensemble' and a nonempty 'members' list "
                "(one member unless 'ensemble' is true)")
        members = [_restore_model(m, npz, f"m{t}_params") for t, m in enumerate(metas)]
    return Ensemble(members=members) if is_ensemble else members[0]
