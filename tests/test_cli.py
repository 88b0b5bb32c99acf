"""Command-line behavior: flag precedence, exit codes, artifacts on disk."""

import json
import subprocess
import sys

import numpy as np
import pytest

from selprover import cli


def flags(tmp_path, **extra):
    """Small, fast run configuration against the synthetic dataset."""
    values = dict(embedding_dim=4, pretrain_epochs=5, templates_implies=1,
                  templates_inverse=1, templates_chain=1, batch_goals=8,
                  batches_per_iteration=2, iterations=2, gen_width=3,
                  gen_epochs=2, beam=10, min_score=0.2, valid_subsample=10,
                  prover_negatives=1)
    values.update(extra)
    out = ["--dataset", "family", "--seed", "3",
           "--output-root", str(tmp_path / "runs")]
    for key, value in values.items():
        out += ["--set", f"{key}={value}"]
    return out


class TestArgHandling:
    def test_help_exits_zero(self, capsys):
        assert cli.run_command(["--help"]) == 0
        assert "compare-baseline" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.run_command(["frobnicate"]) == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.run_command([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.run_command(["train", "--no-such-flag"]) == 2

    def test_malformed_set_is_usage_error(self, tmp_path):
        assert cli.run_command(["train", "--dataset", "family",
                                "--set", "oops"]) == 2

    def test_unparsable_config_value_is_usage_error(self, tmp_path, caplog):
        out_root = tmp_path / "runs"
        assert cli.run_command(["train", "--dataset", "family",
                                "--output-root", str(out_root),
                                "--set", "embedding_dim=abc"]) == 2
        assert "embedding_dim must be an integer" in caplog.text
        assert not out_root.exists()

    def test_depth_beyond_batched_ranking_is_usage_error(self, tmp_path,
                                                          caplog):
        # validation and eval rank in closed form, up to depth 2 only, so a
        # deeper run stops before pretraining instead of after an iteration
        out_root = tmp_path / "runs"
        assert cli.run_command(["train", "--dataset", "family",
                                "--output-root", str(out_root),
                                "--set", "max_depth=3"]) == 2
        assert "max_depth must be 1 or 2" in caplog.text
        assert not out_root.exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        assert cli.run_command(["train", "--dataset", "family",
                                "--set", "no_such_key=1"]) == 2

    def test_dataset_required(self):
        assert cli.run_command(["train"]) == 2

    def test_missing_dataset_files_usage_error(self, tmp_path):
        out_root = tmp_path / "runs"
        assert cli.run_command(["train", "--dataset", "nope",
                                "--data-dir", str(tmp_path),
                                "--output-root", str(out_root)]) == 2
        # a run that never starts must not leave a run directory behind
        assert not out_root.exists()

    def test_runtime_failure_exits_one(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("iteration 1 failed; aborting run")
        monkeypatch.setattr(cli, "run_training", boom)
        assert cli.run_command(["train", *flags(tmp_path)]) == 1


class TestConfigPrecedence:
    def parse(self, argv):
        return cli.build_parser().parse_args(argv)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "dataset": "family",
                                    "min_score": 0.3}))
        args = self.parse(["train", "--config", str(path), "--seed", "2",
                           "--set", "min_score=0.4"])
        cfg = cli.config_from_args(args)
        assert cfg.dataset == "family"
        assert cfg.seed == 2
        assert cfg.min_score == 0.4

    def test_named_flag_beats_set(self, tmp_path):
        args = self.parse(["train", "--dataset", "family",
                           "--set", "seed=5", "--seed", "9"])
        assert cli.config_from_args(args).seed == 9

    def test_defaults_fill_everything_else(self):
        cfg = cli.config_from_args(self.parse(["train", "--dataset", "family"]))
        assert cfg.proportion == 0.3 and cfg.iterations == 100


class TestInspectStorage:
    def write_storage(self, tmp_path):
        path = tmp_path / "storage.txt"
        path.write_text("1\tparentOf\t0.900000000\tparentOf\tunify\n"
                        "# hand-edited\n"
                        "\n"
                        "2\t#0\t0.500000000\tchildOf\tnns\n")
        return path

    def test_renders_table_and_totals(self, tmp_path, capsys):
        path = self.write_storage(tmp_path)
        assert cli.run_command(["inspect-storage", "--checkpoint",
                                str(path)]) == 0
        out = capsys.readouterr().out
        assert "layer" in out and "provenance" in out
        assert "parentOf" in out and "nns" in out
        assert "2 entries (per layer 1:1 2:1)" in out

    def test_accepts_checkpoint_directory(self, tmp_path, capsys):
        self.write_storage(tmp_path)
        assert cli.run_command(["inspect-storage", "--checkpoint",
                                str(tmp_path)]) == 0
        assert "2 entries" in capsys.readouterr().out

    def test_missing_file_usage_error(self, tmp_path):
        assert cli.run_command(["inspect-storage", "--checkpoint",
                                str(tmp_path / "absent")]) == 2

    def test_malformed_line_usage_error(self, tmp_path, capsys, caplog):
        path = tmp_path / "storage.txt"
        for line, problem in (
                ("1\tparentOf\t0.9\tparentOf", "5 tab-separated fields"),
                ("x\tparentOf\t0.9\tparentOf\tunify", "layer"),
                ("0\tparentOf\t0.9\tparentOf\tunify", "layer"),
                ("1\tparentOf\tabc\tparentOf\tunify", "score")):
            caplog.clear()
            path.write_text("# note\n" + line + "\n")
            assert cli.run_command(["inspect-storage", "--checkpoint",
                                    str(path)]) == 2
            assert "line 2: " in caplog.text and problem in caplog.text
            assert "entries" not in capsys.readouterr().out


class TestPipelines:
    def test_train_eval_inspect_round(self, tmp_path, capsys):
        argv = flags(tmp_path)
        assert cli.run_command(["train", *argv]) == 0
        out = capsys.readouterr().out
        assert "trained 2 iterations" in out

        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        run = run_dirs[0]
        echoed = json.loads((run / "config.json").read_text())
        assert echoed["dataset"] == "family" and echoed["iterations"] == 2
        assert (run / "metrics.csv").is_file()
        for part in ("best", "final"):
            for name in ("store.npz", "storage.txt", "metrics.csv"):
                assert (run / "checkpoints" / part / name).is_file()

        # default checkpoint resolution: this config's best
        assert cli.run_command(["eval", *argv]) == 0
        out = capsys.readouterr().out
        assert "mrr" in out and "hits@10" in out
        rows = (run / "eval.csv").read_text().splitlines()
        assert rows[0] == "metric,value" and len(rows) == 5

        assert cli.run_command(["inspect-storage", "--checkpoint",
                                str(run / "checkpoints" / "final")]) == 0
        assert "entries (per layer" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [
        {"split_ratios": "0.5,0.0,0.5"},  # no validation facts
        {"iterations": 0},                # no iteration at all
    ])
    def test_eval_after_train_without_valid_mrr(self, tmp_path, extra):
        # with no validation MRR, best is the final state, so eval finds it
        argv = flags(tmp_path, **extra)
        assert cli.run_command(["train", *argv]) == 0
        assert cli.run_command(["eval", *argv]) == 0
        run = next((tmp_path / "runs").iterdir())
        assert (run / "eval.csv").is_file()
        best, final = (run / "checkpoints" / "best",
                       run / "checkpoints" / "final")
        for name in ("storage.txt", "metrics.csv"):
            assert (best / name).read_bytes() == (final / name).read_bytes()
        with np.load(best / "store.npz") as b, \
                np.load(final / "store.npz") as f:
            assert b.files == f.files
            for key in b.files:
                np.testing.assert_array_equal(b[key], f[key])

    def test_eval_over_train_and_valid(self, tmp_path, monkeypatch, caplog):
        argv = flags(tmp_path)
        assert cli.run_command(["train", *argv]) == 0
        best = next((tmp_path / "runs").iterdir()) / "checkpoints" / "best"
        wide = [*argv, "--set", "eval_kb=train+valid"]
        # eval_kb is part of the config hash: the wider config has no run
        assert cli.run_command(["eval", *wide]) == 2
        assert "no checkpoint" in caplog.text

        views = []
        real = cli.BatchedEvaluator

        def spy(view, *rest):
            views.append(view)
            return real(view, *rest)

        monkeypatch.setattr(cli, "BatchedEvaluator", spy)
        assert cli.run_command(["eval", *wide, "--checkpoint", str(best)]) == 0
        (view,) = views
        names = view.parent.vocab
        got = [(names.predicate_name(p), names.constant_name(s),
                names.constant_name(o))
               for p, s, o in zip(view.pred, view.subj, view.obj)]
        ds = cli._load(cli.config_from_args(
            cli.build_parser().parse_args(["eval", *wide])))
        want = {(ds.vocab.predicate_name(f.pred),
                 ds.vocab.constant_name(f.args[0]),
                 ds.vocab.constant_name(f.args[1]))
                for f in ds.train + ds.valid}
        assert len(want) > len({f.as_triple() for f in ds.train})
        assert len(got) == len(set(got)) and set(got) == want

    def test_eval_without_checkpoint_usage_error(self, tmp_path):
        assert cli.run_command(["eval", *flags(tmp_path, seed=99)]) == 2
        assert not (tmp_path / "runs").exists()

    def test_pretrain_writes_embeddings_and_losses(self, tmp_path, capsys):
        assert cli.run_command(["pretrain", *flags(tmp_path)]) == 0
        assert "pretrained 5 predicates" in capsys.readouterr().out
        run = next((tmp_path / "runs").iterdir())
        assert (run / "embeddings.npz").is_file()
        loss_rows = (run / "pretrain_loss.csv").read_text().splitlines()
        assert loss_rows[0] == "epoch,loss" and len(loss_rows) == 6

    def test_compare_baseline_writes_efficiency(self, tmp_path, capsys):
        argv = flags(tmp_path, iterations=1)
        assert cli.run_command(["compare-baseline", *argv]) == 0
        out = capsys.readouterr().out
        assert "attp_ratio" in out and "utilization" in out
        run = next((tmp_path / "runs").iterdir())
        rows = (run / "efficiency.csv").read_text().splitlines()
        assert rows[0] == "mode,iteration,traversed,established,wall_ms"
        assert len(rows) == 3  # one per mode per iteration
        modes = {r.split(",")[0] for r in rows[1:]}
        assert modes == {"selected", "full-kb"}
        assert (run / "selected" / "metrics.csv").is_file()
        assert (run / "full-kb" / "metrics.csv").is_file()

    def test_compare_baseline_loads_its_dataset_once(self, tmp_path,
                                                     monkeypatch):
        loads = []
        real = cli.load_dataset

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting)
        argv = flags(tmp_path, iterations=1)
        assert cli.run_command(["compare-baseline", *argv]) == 0
        assert len(loads) == 1

    def test_scorers_share_one_dataset(self, tmp_path):
        argv = flags(tmp_path)
        assert cli.run_command(["train", *argv]) == 0
        cfg = cli.config_from_args(cli.build_parser().parse_args(
            ["eval", *argv]))
        store = cli.ParameterStore.load(next((tmp_path / "runs").iterdir())
                                        / "checkpoints" / "best" / "store.npz")
        ds = cli._load(cfg)
        first = cli._scorer_for(cfg, ds, store)
        second = cli._scorer_for(cfg, ds, store)
        assert ds.vocab.n_predicates == 5
        for rel in range(ds.vocab.n_predicates):
            np.testing.assert_array_equal(first._matrix(rel),
                                          second._matrix(rel))

    @pytest.mark.parametrize("command",
                             ["pretrain", "train", "compare-baseline"])
    def test_empty_train_split_is_dataset_error(self, tmp_path, caplog,
                                                command):
        argv = flags(tmp_path, split_ratios="0,0,1")
        assert cli.run_command([command, *argv]) == 2
        assert "the train split is empty" in caplog.text
        assert not (tmp_path / "runs").exists()

    def test_empty_test_split_is_dataset_error(self, tmp_path, caplog):
        argv = flags(tmp_path, split_ratios="1,0,0")
        assert cli.run_command(["train", *argv]) == 0
        best = next((tmp_path / "runs").iterdir()) / "checkpoints" / "best"
        elsewhere = tmp_path / "elsewhere"
        assert cli.run_command(["eval", *argv, "--checkpoint", str(best),
                                "--output-root", str(elsewhere)]) == 2
        assert "the test split is empty" in caplog.text
        assert not elsewhere.exists()


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "selprover", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "inspect-storage" in proc.stdout


def test_cli_imports_nothing_beyond_stdlib_and_numpy():
    # every import on the CLI path is paid by each command's start-up
    code = ("import sys, numpy; before = set(sys.modules); "
            "import selprover.cli; "
            "print(*sorted({m.split('.')[0] for m in sys.modules} "
            "- {m.split('.')[0] for m in before}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split()) - {"selprover"}
    assert added <= set(sys.stdlib_module_names), added
