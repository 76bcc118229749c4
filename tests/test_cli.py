import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import patch_fit_method
from uqcurate.cli import main
from uqcurate.data import load_csv

SMOKE_CFG = [
    "data = synthetic",
    "n_instances = 160",
    "feature_dim = 6",
    "noisy_fraction = 0.25",
    "hidden_layers = 1",
    "hidden_width = 8",
    "max_epochs = 4",
    "batch_size = 16",
    "ensemble_size = 2",
    "mc_passes = 4",
    "decompose_draws = 50",
    "repetitions = 1",
    "seed = 3",
]


@pytest.fixture
def smoke_cfg(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text("\n".join(SMOKE_CFG) + "\n", encoding="utf-8")
    return str(path)


class TestGenData:
    def test_default_spec_writes_2000_rows(self, tmp_path):
        out = tmp_path / "pool.csv"
        assert main(["gen-data", "--out", str(out), "--seed", "1"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2001  # header + rows
        ds = load_csv(out)
        assert len(ds) == 2000 and ds.feature_dim == 20

    def test_seed_repeat_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--out", str(a), "--seed", "9"]) == 0
        assert main(["gen-data", "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_dir_exits_2(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "pool.csv"
        assert main(["gen-data", "--out", str(out)]) == 2

    def test_bad_spec_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("noisy_fraction = 2.0\n", encoding="utf-8")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("line", [
        "n_instance = 50",      # typo of n_instances
        "seed = abc",
        "data = features.csv",  # gen-data writes synthetic pools only
        "imbalance = nan",
        "seed = -1",            # seed sequences take non-negative seeds only
    ])
    def test_bad_config_exits_2_without_output(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_print_config_writes_nothing(self, smoke_cfg, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["train", "--config", smoke_cfg, "--out", str(out_dir), "--print-config"])
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["seed"] == 3
        assert not out_dir.exists()

    # at the default learning rate of 0.001, 30 epochs fall short of 0.99 for
    # some inits (F1 0.889 and 0.812 at seeds 7 and 8); at 0.01 every seed
    # separates
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_separable_profile_reaches_high_f1(self, tmp_path, capsys, seed):
        cfg = tmp_path / "sep.cfg"
        cfg.write_text("\n".join([
            "data = synthetic", "n_instances = 400", "feature_dim = 8",
            "separation = 10.0", "noisy_fraction = 0.0",
            "hidden_layers = 1", "hidden_width = 16", "max_epochs = 30",
            "batch_size = 32", "learning_rate = 0.01", "uq = vanilla", "head = homo",
            f"seed = {seed}",
        ]) + "\n", encoding="utf-8")
        out_dir = tmp_path / "results"
        assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
        reports = [f for f in os.listdir(out_dir) if f.endswith(".json")]
        payload = json.load(open(out_dir / reports[0]))
        assert payload["report"]["f1"] >= 0.99

    def test_corrupt_csv_exits_2_naming_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,f0,label\na,1.0,0\nb,oops,1\n", encoding="utf-8")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_unknown_config_key_exits_2_listing_keys(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rt = 0.1\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "valid keys" in capsys.readouterr().err

    def test_data_flag_replaces_a_profiles_generator(self, tmp_path, capsys):
        # flags override config keys: a CSV on the command line drops the
        # profile's synthetic generator keys
        data = os.path.join(os.path.dirname(__file__), "fixtures", "real_features_200.csv")
        out_dir = tmp_path / "results"
        assert main(["train", "--config", "profile:smoke", "--data", data,
                     "--out", str(out_dir)]) == 0
        assert any(f.endswith(".json") for f in os.listdir(out_dir))

    def test_config_with_a_csv_and_generator_keys_exits_2(self, tmp_path, capsys):
        data = os.path.join(os.path.dirname(__file__), "fixtures", "real_features_200.csv")
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(f"data = {data}\nn_instances = 200\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic keys ['n_instances']")

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2


class TestExperimentCommands:
    def test_smoke_profile_under_a_minute(self, smoke_cfg, tmp_path):
        t0 = time.time()
        for command in ("shift", "growth", "compare"):
            out = tmp_path / command
            assert main([command, "--config", smoke_cfg, "--out", str(out)]) == 0
            assert any(f.endswith(".csv") for f in os.listdir(out))
        assert time.time() - t0 < 60

    def test_outputs_parse_back(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "shift"
        assert main(["shift", "--config", smoke_cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        summary = [l.split(": ", 1)[1] for l in printed.splitlines()
                   if l.startswith("summary_csv:")][0]
        import csv as csvmod
        rows = list(csvmod.DictReader(open(summary)))
        assert rows and {"method", "intensity", "mean_f1", "std_f1"} <= set(rows[0])
        assert all(float(r["mean_f1"]) <= 1.0 for r in rows)

    def test_selector_flag_restricts_compare(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", smoke_cfg, "--out", str(out),
                     "--selector", "random"]) == 0
        printed = capsys.readouterr().out
        summary = [l.split(": ", 1)[1] for l in printed.splitlines()
                   if l.startswith("summary_csv:")][0]
        import csv as csvmod
        rows = list(csvmod.DictReader(open(summary)))
        assert {r["selector"] for r in rows} == {"random"}

    def test_packaged_profile_reference(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", "profile:smoke", "--out", str(out)]) == 0


class TestReport:
    def write_scores(self, tmp_path, a, b):
        path = tmp_path / "scores.csv"
        lines = ["rep,alpha,beta"]
        for i, (x, y) in enumerate(zip(a, b)):
            lines.append(f"{i},{x},{y}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_identical_groups_p_half(self, tmp_path, capsys):
        path = self.write_scores(tmp_path, [1, 2, 3, 4], [1, 2, 3, 4])
        assert main(["report", path, "--col-a", "alpha", "--col-b", "beta"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["p_one_sided_a_greater"] == pytest.approx(0.5, abs=1e-9)

    def test_separated_groups_u_zero(self, tmp_path, capsys):
        path = self.write_scores(tmp_path, [1, 2, 3], [4, 5, 6])
        assert main(["report", path, "--col-a", "alpha", "--col-b", "beta"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["u_statistic"] == 0.0

    def test_shifted_gaussians_usually_significant(self, tmp_path, capsys):
        hits = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            path = self.write_scores(tmp_path, rng.normal(1, 1, 10), rng.normal(0, 1, 10))
            assert main(["report", path, "--col-a", "alpha", "--col-b", "beta"]) == 0
            hits += json.loads(capsys.readouterr().out)["p_one_sided_a_greater"] < 0.05
        assert hits >= 4

    def test_filter_rows(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text(
            "round,alpha,beta\n0,0.1,0.1\n0,0.2,0.2\n1,0.9,0.1\n1,0.8,0.2\n1,0.7,0.3\n",
            encoding="utf-8",
        )
        assert main(["report", str(path), "--col-a", "alpha", "--col-b", "beta",
                     "--filter", "round=1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_a"] == 3 and summary["mean_a"] == pytest.approx(0.8)

    def test_leading_byte_order_mark_ignored(self, tmp_path, capsys):
        path = self.write_scores(tmp_path, [1, 2, 3], [4, 5, 6])
        args = ["--col-a", "alpha", "--col-b", "beta"]
        assert main(["report", path, *args]) == 0
        plain = capsys.readouterr().out
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
        assert main(["report", str(marked), *args]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_exits_2_naming_file_row_and_column(self, tmp_path, capsys, bad):
        path = self.write_scores(tmp_path, [1, 2, bad, 4], [5, 6, 7, 8])
        assert main(["report", path, "--col-a", "alpha", "--col-b", "beta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert path in captured.err and "row 4" in captured.err and "'alpha'" in captured.err

    def test_too_few_samples_exits_2(self, tmp_path):
        path = self.write_scores(tmp_path, [1], [2])
        assert main(["report", path, "--col-a", "alpha", "--col-b", "beta"]) == 2

    def test_unknown_column_exits_2(self, tmp_path, capsys):
        path = self.write_scores(tmp_path, [1, 2], [3, 4])
        assert main(["report", path, "--col-a", "nope", "--col-b", "beta"]) == 2


class TestOutputPath:
    @pytest.mark.parametrize("command, runner", [
        ("shift", "run_shift_experiment"),
        ("growth", "run_data_growth_experiment"),
        ("compare", "run_selector_comparison"),
        ("train", "run_training"),
    ])
    def test_out_naming_a_file_exits_2_before_compute(self, tmp_path, monkeypatch,
                                                       capsys, command, runner):
        from uqcurate import cli

        def never(*args, **kwargs):
            raise AssertionError(f"{runner} ran although --out is a file")

        monkeypatch.setattr(cli, runner, never)
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main([command, "--config", "profile:smoke", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "is not a directory" in err and "Traceback" not in err

    def test_out_naming_a_file_exits_2_from_the_shell(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "uqcurate", "growth", "--config", "profile:smoke",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    def test_os_error_exits_2(self, tmp_path, capsys):
        # writing the CSV onto an existing directory raises IsADirectoryError
        assert main(["gen-data", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestNonUtf8Input:
    """A config or CSV whose bytes are not UTF-8 is a typed error naming the
    file, at each of the three readers."""

    BAD = b"\xffid,f0,label\n"

    def assert_exits_2(self, capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(path) in err and "UTF-8" in err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(self.BAD)
        self.assert_exits_2(capsys, ["shift", "--config", str(cfg),
                                     "--out", str(tmp_path / "o")], cfg)

    def test_data_csv(self, tmp_path, capsys):
        cfg = tmp_path / "plain.cfg"
        cfg.write_text("seed = 3\nrepetitions = 1\n", encoding="utf-8")
        data = tmp_path / "bad.csv"
        data.write_bytes(self.BAD)
        self.assert_exits_2(capsys, ["shift", "--config", str(cfg), "--data", str(data),
                                     "--out", str(tmp_path / "o")], data)

    def test_report_csv(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(self.BAD)
        self.assert_exits_2(capsys, ["report", str(data), "--col-a", "f0",
                                     "--col-b", "label"], data)


def assert_config_line_exits_2(tmp_path, capsys, command, line, *flags):
    """``command`` on the small config plus ``line`` exits 2 with one error line."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(SMOKE_CFG + [line]) + "\n", encoding="utf-8")
    code = main([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


class TestFailBeforeCompute:
    @pytest.fixture
    def no_compute(self, monkeypatch):
        from uqcurate import experiments

        def never(*args, **kwargs):
            raise AssertionError("compute started although the input is bad")

        monkeypatch.setattr(experiments, "_base_dataset", never)
        patch_fit_method(monkeypatch, never)

    @pytest.mark.parametrize("command, line", [
        ("shift", "mc_passes = 0"),           # ExperimentSpec
        ("train", "hidden_width = 0"),        # ModelConfig
        ("compare", "tranche_fraction = 0"),  # the loop fields
        ("compare", "mc_passes = 1"),         # the uq-method checks of compare
        ("compare", "selectors = ehal,best"),  # CurationConfig
        ("compare", "n_ale_fraction = 0"),
        ("compare", "n_ale_fraction = 1.5"),
        ("compare", "decompose_draws = 0"),
        ("growth", "decompose_draws = 0"),
        ("growth", "ensemble_size = 1"),
        ("growth", "head = homo"),
        ("shift", "intensities ="),
        ("compare", "selectors ="),
        ("compare", "val_fraction = -0.5"),
        ("shift", "val_fraction = 1.5"),
        ("growth", "val_fraction = 0"),
        ("train", "val_fraction = -0.5"),
        ("shift", "imbalance = nan"),         # non-finite floats
        ("train", "learning_rate = nan"),
        ("train", "learning_rate = inf"),
        ("shift", "intensities = 0,nan"),
        ("shift", "intensities = 0,0"),       # repeated list entries
        ("compare", "selectors = ehal,ehal"),
        ("growth", "growth_fractions = 0.6,0.6"),
        ("growth", "growth_fractions = 1.0,0.6"),
        ("shift", "seed = -1"),               # negative seed
        # every key enters the digest, so every kind checks it
        ("shift", "uncertainty_source = bogus"),
        ("growth", "uncertainty_source = bogus"),
        ("train", "uncertainty_source = bogus"),
        ("shift", "selectors = best"),
        ("shift", "tranche_fraction = 7"),
        ("train", "ensemble_size = 0"),
        ("train", "pool_fraction = 0.9"),
        ("compare", "train_fraction = 7"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, no_compute, command, line):
        # growth fits ensembles only, so a --uq flag would be an error of its own
        flags = () if command == "growth" else ("--uq", "mc-dropout")
        assert_config_line_exits_2(tmp_path, capsys, command, line, *flags)

    # no --uq flag here: it would replace the uq line under test
    @pytest.mark.parametrize("command, line", [
        ("train", "uq ="),
        ("shift", "uq ="),
        ("compare", "uq ="),
        ("compare", "uq = vanilla"),  # curation needs several weight samples
        ("growth", "uq = mc-dropout"),  # growth fits ensembles only
        ("growth", "uq = vanilla"),
        ("train", "uq = vanilla,ensemble"),  # train and compare fit one method
        ("compare", "uq = ensemble,mc-dropout"),
        ("compare", "ensemble_size = 1"),  # with uq at its default, ensemble
        ("shift", "uq = vanilla,vanilla"),  # a repeated method is no new repetition
    ])
    def test_bad_uq_exits_2(self, tmp_path, capsys, no_compute, command, line):
        assert_config_line_exits_2(tmp_path, capsys, command, line)

    @pytest.mark.parametrize("command", ["shift", "train"])
    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exits_2(self, tmp_path, monkeypatch, capsys, no_compute,
                                    command, jobs):
        monkeypatch.setenv("UQCURATE_JOBS", jobs)
        code = main([command, "--config", "profile:smoke", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "UQCURATE_JOBS" in err and "Traceback" not in err


    @pytest.mark.parametrize("command", ["shift", "growth", "compare", "train"])
    def test_deleted_key_exits_2(self, tmp_path, capsys, no_compute, command):
        # logit_samples left with the sampled Gaussian-logit integrals
        cfg = tmp_path / "old.cfg"
        cfg.write_text("\n".join(SMOKE_CFG + ["logit_samples = 20"]) + "\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys ['logit_samples']")
        assert "Traceback" not in err

    def test_bad_csv_exits_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a fit started although the CSV is bad")

        patch_fit_method(monkeypatch, never)
        monkeypatch.setenv("UQCURATE_JOBS", "2")
        data = tmp_path / "bad.csv"
        data.write_text("id,f0,label\na,1.0,0\nb,oops,1\n", encoding="utf-8")
        cfg = tmp_path / "plain.cfg"
        cfg.write_text("seed = 3\nrepetitions = 3\n", encoding="utf-8")
        code = main(["shift", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 3" in err and "Traceback" not in err


class TestInternalFailure:
    def test_memory_error_is_one_error_line_exit_1(self, monkeypatch, capsys, tmp_path):
        from uqcurate import cli

        def out_of_memory(spec, out_dir=None):
            raise MemoryError("Unable to allocate 596. GiB")

        monkeypatch.setattr(cli, "run_shift_experiment", out_of_memory)
        assert cli.main(["shift", "--config", "profile:smoke",
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "596. GiB" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uqcurate", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "uqcurate" in proc.stdout
