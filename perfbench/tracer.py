"""Layer spans recorded from outside the program.

The tracer wraps the public functions of each ``uqcurate`` module.  A name
is wrapped at every module namespace that binds it (``experiments`` and
``curation`` import ``train_model``, ``curate`` and friends into their own
globals), so no call site escapes.  Spans (name, start, end, parent) are kept
in compact in-memory arrays and written out when the run ends; per-name call
counts, inclusive and self times are accumulated as spans close.

A span's self time is its duration minus the durations of its direct
children.  Installing the wrappers patches module and class attributes, and
``uninstall`` restores every original, so untraced passes run the program
unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute or Class.method, span name).  Several functions may share
# one span name; per-layer metrics aggregate by name or by layer prefix.
TARGETS = (
    ("uqcurate.data", "generate_synthetic", "data.generate"),
    ("uqcurate.data", "split", "data.split"),
    ("uqcurate.data", "undersample_balance", "data.balance"),
    ("uqcurate.data", "inject_shift", "data.shift"),
    ("uqcurate.data", "Dataset.subset", "data.subset"),
    ("uqcurate.kernels", "gaussian_logit_nll", "kernels.gaussian_logit_nll"),
    ("uqcurate.kernels", "softmax_xent", "kernels.softmax_xent"),
    ("uqcurate.nncore", "LinearLayer.forward", "nncore.linear_fwd"),
    ("uqcurate.nncore", "LinearLayer.backward", "nncore.linear_bwd"),
    ("uqcurate.nncore", "DropoutLayer.forward", "nncore.dropout_fwd"),
    ("uqcurate.nncore", "AdamState.step", "nncore.adam_step"),
    ("uqcurate.models", "train_model", "models.train"),
    ("uqcurate.models", "train_ensemble", "models.train_ensemble"),
    ("uqcurate.models", "MlpModel.evaluate_loss", "models.evaluate_loss"),
    ("uqcurate.models", "predict_vanilla", "models.predict"),
    ("uqcurate.models", "predict_mc_dropout", "models.predict"),
    ("uqcurate.models", "predict_ensemble", "models.predict"),
    ("uqcurate.models", "hetero_raw_outputs", "models.predict"),
    ("uqcurate.uq", "summarize_hetero", "uq.summarize_hetero"),
    ("uqcurate.uq", "hetero_decompose", "uq.hetero_decompose"),
    ("uqcurate.uq", "mutual_information", "uq.mi_ee"),
    ("uqcurate.uq", "expected_entropy", "uq.mi_ee"),
    ("uqcurate.curation", "pool_uncertainty_records", "curation.score"),
    ("uqcurate.curation", "curate", "curation.select"),
    ("uqcurate.curation", "curation_loop", "curation.loop"),
    ("uqcurate.metrics", "classification_report", "metrics.report"),
    ("uqcurate.experiments", "run_selector_comparison", "experiments.study"),
    ("uqcurate.experiments", "run_shift_experiment", "experiments.study"),
)

ROOT = "pass"

# Per-layer metrics: name -> (unit, better).  Every traced run emits all of
# them; a layer a workload never enters reads 0.
PER_LAYER = {
    "kernels.gaussian_logit_nll.calls": ("count", "lower"),
    "kernels.gaussian_logit_nll.self_s": ("s", "lower"),
    "kernels.gaussian_logit_nll.us_per_call": ("us", "lower"),
    "kernels.softmax_xent.calls": ("count", "lower"),
    "kernels.softmax_xent.self_s": ("s", "lower"),
    "nncore.adam_step.calls": ("count", "lower"),
    "nncore.adam_step.self_s": ("s", "lower"),
    "nncore.linear_fwd.calls": ("count", "lower"),
    "nncore.linear_fwd.self_s": ("s", "lower"),
    "nncore.linear_bwd.calls": ("count", "lower"),
    "nncore.linear_bwd.self_s": ("s", "lower"),
    "nncore.dropout_fwd.calls": ("count", "lower"),
    "nncore.dropout_fwd.self_s": ("s", "lower"),
    "models.train.fits": ("count", "lower"),
    "models.train.epochs": ("count", "lower"),
    "models.train.busy_s": ("s", "lower"),
    "models.train.self_s": ("s", "lower"),
    "models.train.useful_epoch_ratio": ("ratio", "higher"),
    "models.evaluate_loss.self_s": ("s", "lower"),
    "models.predict.calls": ("count", "lower"),
    "models.predict.rows": ("count", "lower"),
    "models.predict.self_s": ("s", "lower"),
    "uq.summarize_hetero.self_s": ("s", "lower"),
    "uq.hetero_decompose.self_s": ("s", "lower"),
    "uq.mi_ee.self_s": ("s", "lower"),
    "curation.score.self_s": ("s", "lower"),
    "curation.select.calls": ("count", "lower"),
    "curation.select.picks": ("count", "higher"),
    "curation.select.self_s": ("s", "lower"),
    "curation.select.us_per_pick": ("us", "lower"),
    "curation.loop.self_s": ("s", "lower"),
    "data.self_s": ("s", "lower"),
    "metrics.report.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _best_epoch_ratio(model) -> float:
    history = model.history
    best = min(range(len(history)), key=lambda i: history[i].val_loss)
    return (best + 1) / len(history)


def _rows(args, kwargs):
    X = args[1] if len(args) > 1 else kwargs["X"]
    return int(np.shape(X)[0])


# Counters taken from outermost calls of a span name: name -> list of
# (counter, fn(args, kwargs, result) -> number).
COUNTERS = {
    "models.train": [
        ("epochs", lambda a, k, r: len(r.history)),
        ("useful_epochs", lambda a, k, r: _best_epoch_ratio(r)),
    ],
    "models.predict": [("rows", lambda a, k, r: _rows(a, k))],
    "curation.select": [("picks", lambda a, k, r: len(r))],
}


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []   # [span index, name id, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.reset_stats()

    # -- statistics ---------------------------------------------------------

    def reset_stats(self) -> None:
        """Start a fresh per-pass accumulation (spans are kept)."""
        self.calls: dict[str, int] = {}
        self.outer_calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.n_spans = 0

    def begin_pass(self) -> None:
        self.reset_stats()
        self.enter(ROOT)

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def enter(self, name: str) -> None:
        nid = self._nid(name)
        idx = len(self._span_start)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_end.append(0.0)
        self._stack.append([idx, nid, 0.0])
        self._span_start.append(time.perf_counter())

    def exit(self) -> float:
        end = time.perf_counter()
        idx, nid, child = self._stack.pop()
        self._span_end[idx] = end
        dur = end - self._span_start[idx]
        name = self._names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.n_spans += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _outer(self, name: str) -> bool:
        return not self._stack or self._names[self._stack[-1][1]] != name

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        counters = COUNTERS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._outer(name)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if outer:
                tracer.outer_calls[name] = tracer.outer_calls.get(name, 0) + 1
                for key, count in counters:
                    ckey = f"{name}.{key}"
                    tracer.counters[ckey] = (tracer.counters.get(ckey, 0)
                                             + count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every uqcurate namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "uqcurate" or n.startswith("uqcurate.")) and m is not None]
        by_function: dict[int, tuple[object, str]] = {}
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name))
                continue
            fn = getattr(owner, attr)
            by_function[id(fn)] = (fn, span_name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_function.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, hit[1]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- reporting ----------------------------------------------------------

    def pass_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass accumulated since ``reset_stats``."""
        calls, selfs, ctr = self.calls, self.self_s, self.counters

        def s(name):
            return selfs.get(name, 0.0)

        def prefix_self(prefix):
            return sum(v for k, v in selfs.items() if k.startswith(prefix))

        nll_calls = calls.get("kernels.gaussian_logit_nll", 0)
        picks = ctr.get("curation.select.picks", 0)
        fits = self.outer_calls.get("models.train", 0)
        m = {
            "kernels.gaussian_logit_nll.calls": nll_calls,
            "kernels.gaussian_logit_nll.self_s": s("kernels.gaussian_logit_nll"),
            "kernels.gaussian_logit_nll.us_per_call":
                1e6 * s("kernels.gaussian_logit_nll") / nll_calls if nll_calls else 0.0,
            "kernels.softmax_xent.calls": calls.get("kernels.softmax_xent", 0),
            "kernels.softmax_xent.self_s": s("kernels.softmax_xent"),
            "models.train.fits": fits,
            "models.train.epochs": ctr.get("models.train.epochs", 0),
            "models.train.busy_s": self.total_s.get("models.train", 0.0),
            "models.train.self_s": s("models.train"),
            "models.train.useful_epoch_ratio":
                ctr.get("models.train.useful_epochs", 0.0) / fits if fits else 0.0,
            "models.evaluate_loss.self_s": s("models.evaluate_loss"),
            "models.predict.calls": self.outer_calls.get("models.predict", 0),
            "models.predict.rows": ctr.get("models.predict.rows", 0),
            "models.predict.self_s": s("models.predict"),
            "uq.summarize_hetero.self_s": s("uq.summarize_hetero"),
            "uq.hetero_decompose.self_s": s("uq.hetero_decompose"),
            "uq.mi_ee.self_s": s("uq.mi_ee"),
            "curation.score.self_s": s("curation.score"),
            "curation.select.calls": calls.get("curation.select", 0),
            "curation.select.picks": picks,
            "curation.select.self_s": s("curation.select"),
            "curation.select.us_per_pick":
                1e6 * s("curation.select") / picks if picks else 0.0,
            "curation.loop.self_s": s("curation.loop"),
            "data.self_s": prefix_self("data."),
            "metrics.report.self_s": s("metrics.report"),
            "experiments.self_s": prefix_self("experiments."),
            "trace.wall_s": wall_s,
            "trace.spans": self.n_spans,
            # time outside every layer below the experiments module is uncovered:
            # a wrapper missing from a call site shows up here
            "trace.coverage": 1.0 - (s(ROOT) + prefix_self("experiments.")) / wall_s,
        }
        for op in ("adam_step", "linear_fwd", "linear_bwd", "dropout_fwd"):
            m[f"nncore.{op}.calls"] = calls.get(f"nncore.{op}", 0)
            m[f"nncore.{op}.self_s"] = s(f"nncore.{op}")
        return m

    def write(self, path) -> None:
        """Write every recorded span to ``path`` (npz)."""
        np.savez_compressed(
            path,
            names=np.array(self._names, dtype=str),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )
