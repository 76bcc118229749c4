"""Mutation check of the test oracles: every catalogued mutant must be killed.

A mutant replaces one piece of library source, its old text, with a new
text.  The old text must occur exactly once in its file, so a mutant names
one place in the code and goes stale, loudly, when that code changes.  Each
mutant is applied in a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, and only its own tests run there, in one pytest process
at a time.  The mutant is killed when, under every test target it lists (a
test, a parametrized test, a class or a file), at least one test fails.

    python3 tools/mutants.py             # every mutant in the catalogue
    python3 tools/mutants.py relu-gate   # only the named mutants

It prints one line per mutant and exits 1 if a mutant survives, if its
tests cannot run, or if an old text does not occur exactly once; else 0.
No target lies in ``tests/test_acceptance.py``: the unit tests must catch
each mutant by themselves.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent

MODELS = "src/uqcurate/models.py"
GRADIENTS = "tests/test_gradients.py"
DUAL_HEAD_GRADIENTS = (f"{GRADIENTS}::test_dual_head_full_stack",
                       f"{GRADIENTS}::test_dual_head_without_dropout",
                       f"{GRADIENTS}::test_dual_head_wider_batch")
BEST_EPOCH = "tests/test_models.py::TestTraining::test_patience_stop_restores_the_best_epoch"
TRAIN_ORACLE = "tests/test_models.py::TestTrainingOracle"
FIT_ORACLE = "tests/test_models.py::TestFitOracle"
SERIALIZATION = "tests/test_models.py::TestSerialization"
EXPERIMENTS = "src/uqcurate/experiments.py"
SUMMARY_ORACLE = "tests/test_experiments.py::TestSummaryOracle::test_every_summary_column"
SHIFT = "tests/test_experiments.py::TestShift"
SHIFT_NOISE = f"{SHIFT}::test_scored_test_rows_carry_the_shift_noise"
CURATION = "src/uqcurate/curation.py"
LOOP = "tests/test_curation.py::TestCurationLoop"
TRACE_ORACLE = "tests/test_curation.py::TestCurate::test_matches_trace_oracle_sequence"
UQ = "src/uqcurate/uq.py"
SOURCES = "tests/test_curation.py::TestUncertaintySources"


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    old: str            # occurs exactly once in ``path``
    new: str
    tests: tuple        # pytest targets, each of which must see a failure


CATALOGUE = (
    # the training step's backward pass, against the finite-difference oracle
    Mutant("sigma-chain-rule", MODELS,
           "dsigma * sigmoid(sigma_pre), h)", "dsigma, h)", DUAL_HEAD_GRADIENTS),
    Mutant("mu-relu-gate", MODELS,
           "dmu * (mu_pre > 0.0), h)", "dmu, h)", DUAL_HEAD_GRADIENTS),
    Mutant("relu-gate", MODELS,
           "            dh *= z > 0.0\n", "",
           (f"{GRADIENTS}::test_single_head_full_stack",
            f"{GRADIENTS}::test_single_head_without_dropout",
            *DUAL_HEAD_GRADIENTS)),
    Mutant("dropout-mask-in-backward", MODELS,
           "            if mask is not None:\n                dh *= mask\n", "",
           (f"{GRADIENTS}::test_single_head_full_stack",
            f"{GRADIENTS}::test_dual_head_full_stack")),
    # one draw holds every layer's dropout mask, layer by layer
    Mutant("masks-drawn-row-major", MODELS,
           "(len(self.hidden), X.shape[0], self.config.hidden_width))\n"
           "        h = X\n        for k, lin in enumerate(self.hidden):\n"
           "            mask = None if masks is None else masks[k]\n",
           "(X.shape[0], len(self.hidden), self.config.hidden_width))\n"
           "        h = X\n        for k, lin in enumerate(self.hidden):\n"
           "            mask = None if masks is None else masks[:, k]\n",
           ("tests/test_models.py::TestTrainBatch::test_tape_masks_are_the_layer_by_layer_draws",)),
    # the training loop, against its oracle: a shuffle per epoch, the tail
    # batch, the row-weighted train loss and the best epoch restored however
    # training ends
    Mutant("no-epoch-shuffle", MODELS,
           "order = rng.permutation(n)", "order = np.arange(n)", (TRAIN_ORACLE,)),
    Mutant("tail-batch-dropped", MODELS,
           "for start in range(0, n, cfg.batch_size):",
           "for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):", (TRAIN_ORACLE,)),
    Mutant("train-loss-per-full-batch", MODELS,
           "total += loss * idx.shape[0]", "total += loss * cfg.batch_size", (TRAIN_ORACLE,)),
    Mutant("restore-only-on-patience", MODELS,
           "                break\n\n    model.flat_params[...] = best_weights\n",
           "                model.flat_params[...] = best_weights\n                break\n\n",
           (TRAIN_ORACLE,)),
    # an optimizer state past float range stops the fit, as a loss would
    Mutant("optimizer-overflow-unchecked", MODELS,
           "        if not (np.isfinite(opt.m).all() and np.isfinite(opt.v).all()):\n"
           "            raise DivergenceError(f\"non-finite optimizer state at epoch {epoch}\")\n",
           "", ("tests/test_models.py::TestTraining::test_overflowed_optimizer_state_raises",)),
    # the study protocol's fit balances first and seeds each member apart,
    # against its oracle
    Mutant("ensemble-members-share-seed", MODELS,
           "for member_seed in spawn_seeds(seed, n_members):",
           "for member_seed in [seed] * n_members:", (FIT_ORACLE,)),
    Mutant("fit-without-balance", MODELS,
           "fit = undersample_balance(train, make_rng(balance_seed))", "fit = train",
           (FIT_ORACLE,)),
    # the parameter layout: each layer's w, then its b, and the mu head
    # before the sigma head; a save/load round trip reads the layout on both
    # sides, so only the documented order can catch these
    Mutant("layout-b-before-w", MODELS,
           "slice(start, w_stop), slice(w_stop, w_stop + out_dim), (out_dim, in_dim)",
           "slice(start + out_dim, w_stop + out_dim), slice(start, start + out_dim), "
           "(out_dim, in_dim)",
           (f"{SERIALIZATION}::test_each_member_is_one_parameter_vector",
            f"{SERIALIZATION}::test_parameter_vector_offsets_by_hand")),
    Mutant("layout-sigma-before-mu", MODELS,
           '["mu", "sigma"]', '["sigma", "mu"]',
           (f"{SERIALIZATION}::test_parameter_vector_offsets_by_hand",)),
    # a fit's record is set only when training returns, so a fit that raises
    # leaves the model untrained
    Mutant("history-bound-before-training", MODELS,
           "history = []", "history = model.history = []",
           ("tests/test_models.py::TestTraining::test_divergence_leaves_the_model_untrained",)),
    # early stopping
    Mutant("best-weights-not-copied", MODELS,
           "best_weights = model.flat_params.copy()", "best_weights = model.flat_params",
           (BEST_EPOCH,)),
    Mutant("one-epoch-past-patience", MODELS,
           "if epochs_since_best >= cfg.patience:", "if epochs_since_best > cfg.patience:",
           (BEST_EPOCH,)),
    Mutant("stop-on-train-loss", MODELS,
           "if val_loss < best_loss:\n            best_loss = val_loss\n",
           "if train_loss < best_loss:\n            best_loss = train_loss\n",
           (BEST_EPOCH,)),
    # Adam's bias correction, balancing without replacement and the report's
    # tie rule
    Mutant("adam-no-bias-correction", "src/uqcurate/nncore.py",
           "(m / c1) / np.sqrt(v / c2 + ADAM_EPS)", "m / np.sqrt(v + ADAM_EPS)",
           ("tests/test_nncore.py::TestAdam::test_first_step_hand_evaluated",)),
    Mutant("balance-with-replacement", "src/uqcurate/data.py",
           "rng.choice(majority_idx, size=m, replace=False)",
           "rng.choice(majority_idx, size=m, replace=True)",
           ("tests/test_data.py::TestBalance::test_majority_undersampled",)),
    Mutant("argmax-tie-to-class-1", "src/uqcurate/metrics.py",
           "(probs[:, 1] > probs[:, 0])", "(probs[:, 1] >= probs[:, 0])",
           ("tests/test_metrics.py::TestClassificationReport::test_tie_breaks_to_negative_class",)),
    # the shift study degrades every partition, each intensity with its own
    # noise, and scores vanilla with the ensemble's first member
    Mutant("shift-spares-test", EXPERIMENTS,
           "te = inject_shift(test_ds, intensity, irng)", "te = test_ds",
           (SHIFT_NOISE,)),
    Mutant("shift-one-noise-seed", EXPERIMENTS,
           "spawn_seeds(shift_seed, len(spec.intensities))", "[shift_seed] * len(spec.intensities)",
           (SHIFT_NOISE,)),
    Mutant("shift-vanilla-not-first-member", EXPERIMENTS,
           "else fitted.members[0]", "else fitted.members[-1]",
           (f"{SHIFT}::test_vanilla_and_mc_dropout_share_one_fit",
            f"{SHIFT}::test_vanilla_scores_the_first_ensemble_member")),
    # growth's training subsets are prefixes of one permutation
    Mutant("growth-permutation-per-fraction", EXPERIMENTS,
           "return [perm[: max(2, int(round(f * n)))] for f in fractions]",
           "return [rng.permutation(n)[: max(2, int(round(f * n)))] for f in fractions]",
           ("tests/test_experiments.py::TestGrowth::test_nested_subsets_property",)),
    # the study summaries, against their recomputation from the runs rows
    Mutant("growth-delta-from-first", EXPERIMENTS,
           "zip([None, *rows], rows)", "zip([None, *rows[:1] * len(rows)], rows)",
           (f"{SUMMARY_ORACLE}[growth]",)),
    Mutant("growth-delta-sign", EXPERIMENTS,
           '(prev[f"mean_{u}"] - row[f"mean_{u}"])', '(row[f"mean_{u}"] - prev[f"mean_{u}"])',
           (f"{SUMMARY_ORACLE}[growth]",)),
    Mutant("growth-sample-std", EXPERIMENTS,
           '("std_epi", "mean_epi", np.std)',
           '("std_epi", "mean_epi", lambda v: np.std(v, ddof=1))',
           (f"{SUMMARY_ORACLE}[growth]",)),
    Mutant("compare-sample-std", EXPERIMENTS,
           '("std_f1", "f1", np.std), ("var_f1"',
           '("std_f1", "f1", lambda v: np.std(v, ddof=1)), ("var_f1"',
           (f"{SUMMARY_ORACLE}[compare]",)),
    # the selector: its rank test keeps a candidate whose rank reaches the
    # bound, n_ale rounds up and follows the shrinking view, and ties go by id
    Mutant("walk-select-strict", CURATION,
           "rank[walk] >= n_ale + np.arange", "rank[walk] > n_ale + np.arange",
           ("tests/test_curation.py::TestSelectOne",)),
    Mutant("n-ale-rounded-down", CURATION,
           "math.ceil(self.n_ale_fraction * pool_size)", "int(self.n_ale_fraction * pool_size)",
           (TRACE_ORACLE,)),
    Mutant("n-ale-from-first-pool", CURATION,
           "resolve_n_ale(int(alive.sum()))", "resolve_n_ale(n)",
           (TRACE_ORACLE,)),
    Mutant("ties-not-by-id", CURATION,
           "np.lexsort((str_ids, epi_key)), np.lexsort((str_ids, ale_key))",
           "np.lexsort((epi_key,)), np.lexsort((ale_key,))",
           (TRACE_ORACLE,)),
    # the loop carves a shuffled validation set
    Mutant("carve-unshuffled", CURATION,
           "perm = make_rng(carve_seed).permutation(n)", "perm = np.arange(n)",
           ("tests/test_curation.py::TestFitUqModel::"
            "test_carve_balance_and_fit_draw_from_three_children",)),
    # the curation loop's rounds, each on its set in dataset order and its
    # own eval stream, and its per-round rows
    Mutant("round-set-unsorted", CURATION,
           "np.sort(np.concatenate((seed_idx, pool0_idx[~alive])))",
           "np.concatenate((seed_idx, pool0_idx[~alive]))",
           ("tests/test_experiments.py::TestCompare::"
            "test_every_round_fits_in_dataset_order_and_full_pool_once",)),
    Mutant("one-eval-seed-for-every-round", CURATION,
           "child_seed(eval_seed, rounds)", "child_seed(eval_seed, 0)",
           (f"{SOURCES}::test_loop_scores_each_round_on_its_own_stream",)),
    Mutant("tranche-rounded-down", CURATION,
           "int(round(spec.tranche_fraction * pool0))", "int(spec.tranche_fraction * pool0)",
           (f"{LOOP}::test_round_r_fits_with_the_rth_round_draw",)),
    Mutant("noisy-fraction-of-first-rows", CURATION,
           "dataset.noise_tags[picks]", "dataset.noise_tags[pool0_idx[:len(picks)]]",
           (f"{LOOP}::test_selected_noisy_fraction_counts_the_picks_so_far",)),
    # the uncertainty split: mutual information is clamped at 0, the pooled
    # aleatoric scale is the root mean square of sigma, and the epistemic
    # spread is the population std of mu
    Mutant("mi-unclamped", UQ, "return np.maximum(mi, 0.0)", "return mi",
           (f"{SOURCES}::test_sources_produce_valid_records[sample]",)),
    Mutant("sigma-bar-mean-of-sigma", UQ,
           "sigma_bar = np.sqrt(np.mean(sigma**2, axis=-2))",
           "sigma_bar = np.mean(sigma, axis=-2)",
           (f"{SOURCES}::test_entropy_source_is_the_exact_decomposition",)),
    Mutant("hetero-epi-sample-std", UQ,
           "s_epi = mu.std(axis=-2)", "s_epi = mu.std(axis=-2, ddof=1)",
           ("tests/test_uq.py::TestHeteroDecompose::test_matches_adaptive_quadrature",)),
    # the single head's loss reads p at the label's column
    Mutant("xent-label-column-swapped", "src/uqcurate/kernels.py",
           "np.where(hot, probs[:, 1], probs[:, 0])", "np.where(hot, probs[:, 0], probs[:, 1])",
           ("tests/test_kernels.py::test_softmax_xent_matches_naive",)),
    # the dual head's class-0 probability takes the far branch where d >= 0
    Mutant("quadrature-branch", "src/uqcurate/kernels.py",
           "np.copyto(near, far, where=pos)", "np.copyto(near, far, where=~pos)",
           ("tests/test_kernels.py",)),
)


def check_catalogue(root: Path = REPO) -> list[str]:
    """What is wrong with the catalogue against the tree at ``root``, without
    running anything: one message per problem, none when it is sound."""
    problems = []
    names = [m.name for m in CATALOGUE]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"{name}: name used more than once")
    for m in CATALOGUE:
        path = root / m.path
        count = path.read_text(encoding="utf-8").count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if m.new == m.old:
            problems.append(f"{m.name}: new text equals old text")
        if not m.tests:
            problems.append(f"{m.name}: no tests")
        for target in m.tests:
            file, *parts = target.split("::")
            if file == "tests/test_acceptance.py":
                problems.append(f"{m.name}: {target} is an acceptance test")
            elif not (root / file).is_file():
                problems.append(f"{m.name}: no test file {file}")
            else:
                text = (root / file).read_text(encoding="utf-8")
                for part in (p.split("[")[0] for p in parts):
                    if f"def {part}(" not in text and f"class {part}:" not in text:
                        problems.append(f"{m.name}: {target} names no test in {file}")
    return problems


def _failed_tests(pytest_output: str) -> list[str]:
    """Node ids of the ``FAILED``/``ERROR`` lines in pytest's short summary."""
    out = []
    for line in pytest_output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.append(line[len(tag):].split(" - ", 1)[0].strip())
    return out


def _covers(target: str, node: str) -> bool:
    return node == target or node.startswith((target + "::", target + "["))


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(killed, one-line verdict) for one mutant, in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="uqcurate-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, copy / part, ignore=ignore)
        shutil.copy2(REPO / "pyproject.toml", copy / "pyproject.toml")
        path = copy / m.path
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return False, f"error     {m.name}: old text occurs {text.count(m.old)} times"
        path.write_text(text.replace(m.old, m.new, 1), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 *m.tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
        except subprocess.TimeoutExpired:
            return False, f"error     {m.name}: its tests ran past 1800 s"
    failed = _failed_tests(proc.stdout)
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
        return False, f"error     {m.name}: pytest exit {proc.returncode} {tail}"
    spared = [t for t in m.tests if not any(_covers(t, node) for node in failed)]
    if spared:
        return False, f"SURVIVED  {m.name}: no failure under {', '.join(spared)}"
    return True, f"killed    {m.name}: {len(failed)} failing tests"


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - {m.name for m in CATALOGUE})
    if unknown:
        print(f"unknown mutants {unknown}", file=sys.stderr)
        return 1
    problems = check_catalogue()
    for problem in problems:
        print(f"catalogue: {problem}")
    ok = not problems
    for m in CATALOGUE:
        if names and m.name not in names:
            continue
        killed, verdict = run_mutant(m)
        print(verdict, flush=True)
        ok = ok and killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
