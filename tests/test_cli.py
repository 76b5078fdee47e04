"""End-to-end CLI contract: exit codes, emitted files, train/eval round trip."""

import argparse
import csv
import json
import os
import shutil

import pytest

from siamverify import cli
from siamverify.cli import main
from siamverify.gradcheck import GradCheckResult
from siamverify.losses import LossConfig
from siamverify.errors import ConfigError
from siamverify.network import DEFAULT_FREEZE, NetworkSpec
from siamverify.trainer import (NO_AUGMENT, SETTINGS, TrainConfig, TrainLog,
                                apply_settings, settings_of)
from corpus import build_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest, web_manifest = build_corpus(root, n_identities=4, seed=11, n_web_extra=1)
    return str(manifest), str(web_manifest)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["verify"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["pairs", "--protocol", "overall"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["train", "--manifest", "m.jsonl", "--out", "o"],
        ["eval", "--checkpoint", "c.dgnet", "--manifest", "m.jsonl", "--out", "o"],
        ["ablate", "--grid", "g.json", "--manifest", "m.jsonl", "--out", "o"]])
    def test_only_pairs_takes_a_protocol(self, capsys, command):
        # train, eval and ablate use the overall pairs, the one protocol with both labels
        assert main(command + ["--protocol", "overall"]) == 2
        capsys.readouterr()


class TestPairs:
    def test_csv_contract(self, corpus, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        assert main(["pairs", "--manifest", corpus[0], "--protocol", "obfuscation",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        with out.open() as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["identity", "path_a", "path_b", "label", "protocol"]
        assert len(rows) > 1
        assert all(r[3] == "1" and r[4] == "obfuscation" for r in rows[1:])
        assert (tmp_path / "resolved_config.json").exists()

    def test_missing_manifest_is_runtime_error(self, tmp_path, capsys):
        assert main(["pairs", "--manifest", str(tmp_path / "none.jsonl"),
                     "--protocol", "overall", "--out", str(tmp_path / "p.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_manifest_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"identity": "x", "path": "a", "kind": "wig"}\n')
        assert main(["pairs", "--manifest", str(bad), "--protocol", "overall",
                     "--out", str(tmp_path / "p.csv")]) == 1
        assert "line 1" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_tolerance(self, capsys):
        assert main(["gradcheck", "--profile", "tiny", "--max-coords", "3",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_tight_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--profile", "tiny", "--max-coords", "2",
                     "--tol", "1e-18"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("coords", ["0", "-3"])
    def test_no_coordinates_is_a_config_error(self, coords, capsys):
        assert main(["gradcheck", "--profile", "tiny", "--max-coords", coords]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ConfigError: max_coords_per_tensor")

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tolerance_not_finite_and_positive_is_a_config_error(self, tol, monkeypatch,
                                                                  capsys):
        built = []
        monkeypatch.setattr(cli, "build_network", lambda *a, **k: built.append(a))
        assert main(["gradcheck", "--profile", "tiny", "--max-coords", "1", "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ConfigError: tol must be")
        assert built == []  # refused before any network is built

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["gradcheck", "--profile", "tiny", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ConfigError: seed must be an int >= 0")

    def test_nothing_checked_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "grad_check",
                            lambda *a, **k: GradCheckResult(0.0, checked=0, skipped=7))
        assert main(["gradcheck", "--profile", "tiny", "--max-coords", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: NumericError: no coordinate checked")


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--manifest", corpus[0], "--web-manifest", corpus[1],
               "--out", str(out), "--epochs", "2", "--batch-size", "4",
               "--seed", "3", "--no-augment", "--checkpoint-every", "1"])
    assert rc == 0
    return out


class TestTrainEvalRoundTrip:
    def test_train_outputs(self, trained, capsys):
        capsys.readouterr()
        cfg = json.loads((trained / "resolved_config.json").read_text())
        assert cfg["epochs"] == 2 and cfg["seed"] == 3
        assert cfg["freeze_k"] == 1  # tiny profile default
        assert cfg["augment"] is False
        log_lines = (trained / "trainlog.csv").read_text().strip().splitlines()
        assert log_lines[0] == "epoch,l_c,l_r,l_bce,l_total,train_acc,seconds"
        assert len(log_lines) == 3
        names = sorted(os.listdir(trained))
        assert "checkpoint_final.dgnet" in names
        assert "checkpoint_0.dgnet" in names and "checkpoint_1.dgnet" in names

    def test_eval_outputs(self, trained, corpus, tmp_path, capsys):
        out = tmp_path / "evalrun"
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint_final.dgnet"),
                   "--manifest", corpus[0], "--split", "val", "--mode", "head",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert set(report["gar_at"]) == {"0.001", "0.01", "0.1"}
        assert 0.0 <= report["best_accuracy"] <= 1.0
        roc_lines = (out / "roc.csv").read_text().strip().splitlines()
        assert roc_lines[0] == "threshold,far,gar"
        assert roc_lines[1].startswith("inf,")
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_eval_spec_guard(self, trained, corpus, tmp_path, capsys):
        # a truncated checkpoint must fail cleanly, not crash
        bad = tmp_path / "bad.dgnet"
        raw = (trained / "checkpoint_final.dgnet").read_bytes()
        bad.write_bytes(raw[: len(raw) // 2])
        rc = main(["eval", "--checkpoint", str(bad), "--manifest", corpus[0],
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_failing_eval_keeps_the_earlier_eval_files(self, trained, corpus, tmp_path, capsys):
        out = tmp_path / "evalrun"
        argv = ["eval", "--checkpoint", str(trained / "checkpoint_final.dgnet"),
                "--manifest", corpus[0], "--out", str(out)]
        assert main([*argv, "--split", "val"]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert sorted(before) == ["metrics.json", "resolved_config.json", "roc.csv"]
        capsys.readouterr()
        assert main([*argv, "--split", "test"]) == 1  # the manifest has no test records
        assert capsys.readouterr().err == "error: ConfigError: no pairs to score\n"
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_web_record_that_is_not_genuine_is_refused(self, corpus, tmp_path, capsys):
        web = tmp_path / "web.jsonl"
        web.write_text(json.dumps({"identity": "id01", "path": "x.pgm", "kind": "impostor"}))
        out = tmp_path / "run"
        assert main(["train", "--manifest", corpus[0], "--web-manifest", str(web),
                     "--out", str(out), "--epochs", "1"]) == 1
        assert capsys.readouterr().err == ("error: ConfigError: web records not of kind "
                                           "genuine: ('id01', 'x.pgm')\n")
        assert not out.exists()

    def test_config_file_with_flag_override(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "lr": 0.01, "seed": 9,
                                        "augment": False}))
        out = tmp_path / "run2"
        rc = main(["train", "--manifest", corpus[0], "--out", str(out),
                   "--config", str(cfg_path), "--seed", "4", "--batch-size", "4"])
        assert rc == 0
        capsys.readouterr()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["epochs"] == 1 and resolved["lr"] == 0.01
        assert resolved["seed"] == 4  # flag wins over file


class TestOneRecordPerDirectory:
    @pytest.mark.parametrize("command", ["pairs", "eval"])
    def test_other_command_keeps_the_train_record(self, trained, corpus, tmp_path, capsys,
                                                  command):
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        before = (run / "resolved_config.json").read_bytes()
        argv = {"pairs": ["pairs", "--manifest", corpus[0], "--protocol", "overall",
                          "--out", str(run / "pairs.csv")],
                "eval": ["eval", "--checkpoint", str(run / "checkpoint_final.dgnet"),
                         "--manifest", corpus[0], "--out", str(run)]}[command]
        assert main(argv) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert (run / "resolved_config.json").read_bytes() == before
        assert not {"pairs.csv", "roc.csv", "metrics.json"} & set(os.listdir(run))

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"command": 1}', "{}",
                                      pytest.param("[" * 100000, id="too-deep")])
    def test_unrecognised_record_is_kept(self, corpus, tmp_path, capsys, text):
        (tmp_path / "resolved_config.json").write_text(text)
        assert main(["pairs", "--manifest", corpus[0], "--protocol", "overall",
                     "--out", str(tmp_path / "pairs.csv")]) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert (tmp_path / "resolved_config.json").read_text() == text

    def test_rerun_of_the_same_command_replaces_its_record(self, corpus, tmp_path, capsys):
        for protocol in ("obfuscation", "overall"):
            assert main(["pairs", "--manifest", corpus[0], "--protocol", protocol,
                         "--out", str(tmp_path / "pairs.csv")]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "resolved_config.json").read_text())["protocol"] == "overall"


class TestAblate:
    def test_small_grid(self, corpus, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([
            {"label": "m01", "margin": 0.1},
            {"label": "no_lr", "enable_lr": False},
        ]))
        out = tmp_path / "abl"
        rc = main(["ablate", "--grid", str(grid_path), "--manifest", corpus[0],
                   "--epochs", "1", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["label"] for r in rows] == ["m01", "no_lr"]
        assert all(r["error"] is None for r in rows)
        csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("label,config,best_accuracy,gar_at_")
        assert len(csv_lines) == 3

    def test_error_text_with_comma_round_trips(self, corpus, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([{"label": "too_wide", "margin": 2.0}]))
        out = tmp_path / "abl"
        assert main(["ablate", "--grid", str(grid_path), "--manifest", corpus[0],
                     "--epochs", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        error = json.loads((out / "ablation.json").read_text())[0]["error"]
        assert "," in error
        with (out / "ablation.csv").open(newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header[-1] == "error" and len(rows) == 1
        assert len(rows[0]) == len(header)
        assert rows[0][0] == "too_wide" and rows[0][-1] == error

    def test_entry_that_is_no_object_or_has_no_string_label_is_a_row_error(
            self, corpus, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([1, "x", {"label": [1]}, {"label": "ok"}]))
        out = tmp_path / "abl"
        assert main(["ablate", "--grid", str(grid_path), "--manifest", corpus[0],
                     "--epochs", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["label"] for r in rows] == ["run0", "run1", "run2", "ok"]
        assert [r["config"] for r in rows] == [1, "x", {"label": [1]}, {"label": "ok"}]
        assert all(r["error"].startswith("ConfigError: ") for r in rows[:3])
        assert rows[3]["error"] is None and rows[3]["best_accuracy"] is not None
        assert len((out / "ablation.csv").read_text().strip().splitlines()) == 5


class TestJsonFiles:
    """``--config`` and ``--grid`` files that are not the JSON they must be."""

    @pytest.mark.parametrize("command,flag,wrong_type", [("train", "--config", b"[]"),
                                                         ("ablate", "--grid", b"{}")],
                             ids=["train", "ablate"])
    @pytest.mark.parametrize("problem", ["undecodable", "bad-json", "too-deep", "wrong-type"])
    def test_is_a_config_error_naming_the_file(self, corpus, tmp_path, capsys, command, flag,
                                               wrong_type, problem):
        path = tmp_path / "settings.json"
        path.write_bytes({"undecodable": b"\xff\xfe{}", "bad-json": b'{"lr": ',
                          "too-deep": b"[" * 100000, "wrong-type": wrong_type}[problem])
        out = tmp_path / "run"
        assert main([command, "--manifest", corpus[0], "--out", str(out),
                     flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and str(path) in err
        assert not out.exists()


class TestLibraryDefaults:
    """Settings no flag gives come from the library's own defaults."""

    def test_train_without_setting_flags(self, corpus, tmp_path, monkeypatch, capsys):
        seen = []

        def fake_train(params, pairs, cfg, out_dir=None):
            seen.append(cfg)
            return params, TrainLog(), []

        monkeypatch.setattr(cli, "train", fake_train)
        out = tmp_path / "run"
        assert main(["train", "--manifest", corpus[0], "--out", str(out)]) == 0
        capsys.readouterr()
        resolved = json.loads((out / "resolved_config.json").read_text())
        defaults = TrainConfig()
        for key in ("lr", "epochs", "batch_size", "seed", "checkpoint_every"):
            assert resolved[key] == getattr(defaults, key), key
        assert resolved["margin"] == LossConfig().margin
        assert resolved["freeze_k"] == DEFAULT_FREEZE["tiny"]
        assert seen[0].freeze_k == DEFAULT_FREEZE["tiny"]

    def test_ablate_without_setting_flags(self, corpus, tmp_path, monkeypatch, capsys):
        seen = []

        def fake_run_ablation(grid, train_records, eval_records, base_cfg, spec, **kw):
            seen.append(base_cfg)
            return []

        monkeypatch.setattr(cli, "run_ablation", fake_run_ablation)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("[]")
        out = tmp_path / "abl"
        assert main(["ablate", "--grid", str(grid_path), "--manifest", corpus[0],
                     "--profile", "vggface16", "--out", str(out)]) == 0
        capsys.readouterr()
        resolved = json.loads((out / "resolved_config.json").read_text())
        defaults = TrainConfig()
        assert (resolved["epochs"], resolved["seed"]) == (defaults.epochs, defaults.seed)
        base_cfg = seen[0]
        assert (base_cfg.epochs, base_cfg.seed) == (defaults.epochs, defaults.seed)
        assert base_cfg.freeze_k == DEFAULT_FREEZE["vggface16"]


def _subparser(command):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _capture_train(monkeypatch):
    seen = []

    def fake_train(params, pairs, cfg, out_dir=None):
        seen.append(cfg)
        return params, TrainLog(), []

    monkeypatch.setattr(cli, "train", fake_train)
    return seen


class TestSettings:
    """``--config``, the train flags and ``resolved_config.json`` share one spelling."""

    @pytest.mark.parametrize("config,needle", [
        ({"epoch": 1, "batchsize": 4}, "'epoch'"),
        ({"no_augment": True}, "'no_augment'"),
        ({"enable_lr": "false"}, "'enable_lr'"),
        ({"augment": 0}, "'augment'"),
        ({"epochs": "3"}, "'epochs'"),
        ([{"epochs": 1}], "JSON object"),
        ({"lr": float("inf")}, "lr must be a finite"),
        ({"lr": float("-inf")}, "lr must be a finite"),
        ({"lr": float("nan")}, "lr must be a finite"),
    ], ids=["typo", "old-key", "string-bool", "int-bool", "string-int", "list",
            "lr-infinity", "lr-minus-infinity", "lr-nan"])
    def test_bad_config_exits_1_naming_it(self, corpus, tmp_path, monkeypatch, capsys,
                                          config, needle):
        seen = _capture_train(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--manifest", corpus[0], "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and needle in err
        assert seen == [] and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,flags,needle", [
        ("train", ["--seed", "-1"], "seed must be an int >= 0, got -1\n"),
        ("train", ["--freeze-k", "-3"], "freeze_k must be an int >= 0, got -3\n"),
        ("ablate", ["--seed", "-1"], "seed must be an int >= 0, got -1\n"),
        # past the profile's 4 convs: refused before resolved_config.json is written
        ("train", ["--freeze-k", "9"], "freeze prefix must be an int from 0 to 4, got 9\n"),
    ], ids=["train-seed", "train-freeze-k", "ablate-seed", "train-freeze-k-past-convs"])
    def test_negative_flag_exits_1_writing_nothing(self, corpus, tmp_path, capsys, command,
                                                   flags, needle):
        out = tmp_path / "run"
        args = [command, "--manifest", corpus[0], "--out", str(out)] + flags
        if command == "ablate":
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(json.dumps([{"label": "m01", "margin": 0.1}]))
            args += ["--grid", str(grid_path)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and needle in err
        assert not out.exists()

    def test_config_switches_reach_train_config(self, corpus, tmp_path, monkeypatch, capsys):
        seen = _capture_train(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enable_lr": False, "augment": False,
                                        "class_balance": False}))
        assert main(["train", "--manifest", corpus[0], "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        cfg = seen[0]
        assert cfg.loss.enable_lr is False and cfg.loss.enable_lbce is True
        assert cfg.augment == NO_AUGMENT and cfg.class_balance is False

    @pytest.mark.parametrize("flags", [
        [],
        ["--no-lr-loss", "--no-augment", "--no-balance"],
        ["--no-bce-loss", "--margin", "0.3", "--lr", "0.01", "--epochs", "2",
         "--batch-size", "4", "--seed", "5", "--freeze-k", "2", "--checkpoint-every", "1"],
    ], ids=["defaults", "switches-off", "numbers"])
    def test_resolved_config_replays_to_the_same_config(self, corpus, tmp_path, monkeypatch,
                                                        capsys, flags):
        seen = _capture_train(monkeypatch)
        out = tmp_path / "run"
        assert main(["train", "--manifest", corpus[0], "--out", str(out)] + flags) == 0
        capsys.readouterr()
        cfg = seen[0]
        assert apply_settings(TrainConfig(), settings_of(cfg)) == cfg
        resolved = json.loads((out / "resolved_config.json").read_text())
        replay = {k: resolved[k] for k in SETTINGS}
        assert replay == settings_of(cfg)
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(replay))
        assert main(["train", "--manifest", corpus[0], "--out", str(tmp_path / "again"),
                     "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert seen[1] == cfg

    def test_train_setting_flags_are_the_settings(self):
        dests = {a.dest for a in _subparser("train")._actions}
        other = {"help", "manifest", "web_manifest", "profile", "out", "config"}
        assert dests - other == set(SETTINGS)

    def test_ablate_resolved_config_holds_every_setting(self, corpus, tmp_path, monkeypatch,
                                                        capsys):
        seen = []

        def fake_run_ablation(grid, train_records, eval_records, base_cfg, spec, **kw):
            seen.append(base_cfg)
            return []

        monkeypatch.setattr(cli, "run_ablation", fake_run_ablation)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("[]")
        out = tmp_path / "abl"
        assert main(["ablate", "--grid", str(grid_path), "--manifest", corpus[0],
                     "--epochs", "3", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert {k: resolved[k] for k in SETTINGS} == settings_of(seen[0])
        assert (resolved["epochs"], resolved["seed"], resolved["freeze_k"]) == \
            (3, 2, DEFAULT_FREEZE["tiny"])

    @pytest.mark.parametrize("with_web", [True, False])
    def test_ablate_resolved_config_names_the_web_manifest(self, corpus, tmp_path, monkeypatch,
                                                           capsys, with_web):
        seen = []

        def fake_run_ablation(grid, train_records, eval_records, base_cfg, spec, **kw):
            seen.append(kw["web_records"])
            return []

        monkeypatch.setattr(cli, "run_ablation", fake_run_ablation)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("[]")
        out = tmp_path / "abl"
        web = ["--web-manifest", corpus[1]] if with_web else []
        assert main(["ablate", "--grid", str(grid_path), "--manifest", corpus[0], *web,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["web_manifest"] == (corpus[1] if with_web else None)
        assert (seen[0] is not None) == with_web


_REQUIRED = {"train": ["--manifest", "m.jsonl", "--out", "o"],
             "ablate": ["--grid", "g.json", "--manifest", "m.jsonl", "--out", "o"]}
_SETTING_FLAGS = [("train", k) for k, kind in SETTINGS.items() if kind is not bool] + \
    [("ablate", "epochs"), ("ablate", "seed")]


class TestDerivedFromTheLibrary:
    """Setting flags, ``resolved_config.json`` keys and profiles come from the library's tables."""

    @pytest.mark.parametrize("command,name", _SETTING_FLAGS)
    def test_setting_flag_parses_to_the_settings_type(self, command, name):
        flag = "--" + name.replace("_", "-")
        args = cli._build_parser().parse_args([command, *_REQUIRED[command], flag, "3"])
        assert type(getattr(args, name)) is SETTINGS[name] and getattr(args, name) == 3

    @pytest.mark.parametrize("command,name", _SETTING_FLAGS)
    def test_setting_flag_of_the_wrong_type_exits_2(self, command, name, capsys):
        flag = "--" + name.replace("_", "-")
        bad = "2.5" if SETTINGS[name] is int else "x"
        assert main([command, *_REQUIRED[command], flag, bad]) == 2
        assert "invalid" in capsys.readouterr().err

    def test_ablate_setting_flags(self):
        dests = {a.dest for a in _subparser("ablate")._actions}
        assert dests - {"help", "grid", "manifest", "web_manifest", "profile", "out"} == \
            {"epochs", "seed"}

    @pytest.mark.parametrize("command", ["train", "eval", "pairs", "ablate"])
    def test_record_is_the_parsed_command_plus_its_extras(self, corpus, trained, tmp_path,
                                                          monkeypatch, capsys, command):
        _capture_train(monkeypatch)
        monkeypatch.setattr(cli, "run_ablation", lambda *a, **kw: [])
        (tmp_path / "grid.json").write_text('[{"label": "a", "use_web": true}]')
        (tmp_path / "cfg.json").write_text('{"lr": 0.01}')
        out = tmp_path / "run"
        argv = {"train": ["train", "--manifest", corpus[0], "--web-manifest", corpus[1],
                          "--config", str(tmp_path / "cfg.json"), "--epochs", "1",
                          "--no-augment", "--out", str(out)],
                "eval": ["eval", "--checkpoint", str(trained / "checkpoint_final.dgnet"),
                         "--manifest", corpus[0], "--mode", "cosine", "--out", str(out)],
                "pairs": ["pairs", "--manifest", corpus[0], "--protocol", "impersonation",
                          "--out", str(out / "pairs.csv")],
                "ablate": ["ablate", "--grid", str(tmp_path / "grid.json"), "--manifest",
                           corpus[0], "--seed", "2", "--out", str(out)]}[command]
        parsed = {k: v for k, v in vars(cli._build_parser().parse_args(argv)).items()
                  if k not in SETTINGS and k != "config"}
        extras = {"train": {"protocol", "n_records", "n_pairs"}, "eval": {"protocol", "n_pairs"},
                  "pairs": {"n_pairs"}, "ablate": {"protocol"}}[command]
        settings = set(SETTINGS) if command in ("train", "ablate") else set()
        assert main(argv) == 0
        capsys.readouterr()
        record = json.loads((out / "resolved_config.json").read_text())
        assert set(record) == set(parsed) | extras | settings
        if command == "ablate":  # the parsed grid in place of its path
            parsed["grid"] = json.loads((tmp_path / "grid.json").read_text())
        assert {k: record[k] for k in parsed} == parsed
        if "protocol" in extras:
            assert record["protocol"] == "overall"

    @pytest.mark.parametrize("name", sorted(DEFAULT_FREEZE))
    def test_profile_builds_each_name(self, name):
        spec = NetworkSpec.profile(name)
        assert spec == getattr(NetworkSpec, name)() and spec.name == name

    @pytest.mark.parametrize("name", ["resnet", "", "TINY", "profile", "from_dict",
                                      "fingerprint"])
    def test_other_profile_names_are_a_config_error(self, name):
        with pytest.raises(ConfigError, match="unknown profile"):
            NetworkSpec.profile(name)

    @pytest.mark.parametrize("command", ["train", "gradcheck", "ablate"])
    def test_profile_choices_are_the_profiles(self, command):
        action = next(a for a in _subparser(command)._actions if a.dest == "profile")
        assert action.choices == sorted(DEFAULT_FREEZE) and action.default in DEFAULT_FREEZE


def _run_files(root) -> dict:
    """Each file under ``root``, by relative path, with its wall-time fields masked."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            if name == "trainlog.csv":
                lines = data.decode().splitlines()
                assert lines[0].endswith(",seconds")
                data = [line.rsplit(",", 1)[0] for line in lines]
            elif name == "ablation.json":
                data = [{**row, "seconds": None} for row in json.loads(data)]
            files[os.path.relpath(path, root)] = data
    return files


class TestRerun:
    """A rerun into the same directory writes the same bytes, bar the wall-time fields."""

    def test_every_command_rewrites_the_same_files(self, corpus, tmp_path, capsys):
        runs = tmp_path / "runs"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"label": "dfw"}, {"label": "web", "use_web": True}]))
        checkpoint = str(runs / "train" / "checkpoint_final.dgnet")
        commands = [
            ["train", "--manifest", corpus[0], "--epochs", "2", "--batch-size", "4",
             "--seed", "3", "--checkpoint-every", "1", "--out", str(runs / "train")],
            *(["eval", "--checkpoint", checkpoint, "--manifest", corpus[0], "--mode", mode,
               "--out", str(runs / f"eval_{mode}")] for mode in ("head", "cosine")),
            ["pairs", "--manifest", corpus[0], "--protocol", "obfuscation",
             "--out", str(runs / "pairs" / "pairs.csv")],
            ["ablate", "--grid", str(grid), "--manifest", corpus[0], "--web-manifest",
             corpus[1], "--epochs", "1", "--out", str(runs / "ablate")],
        ]
        snapshots = []
        for _ in range(2):
            for argv in commands:
                assert main(argv) == 0, argv
            capsys.readouterr()
            snapshots.append(_run_files(runs))
        first, again = snapshots
        assert {"train/checkpoint_0.dgnet", "train/checkpoint_1.dgnet",
                "train/checkpoint_final.dgnet", "train/trainlog.csv",
                "eval_head/metrics.json", "eval_cosine/roc.csv", "pairs/pairs.csv",
                "ablate/ablation.csv", "ablate/ablation.json"} <= set(first)
        assert sorted(again) == sorted(first)
        for path in first:
            assert again[path] == first[path], path
