"""Config parsing totality and the CLI subcommands end to end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from cssl.cli import cli_main
from cssl.config import (
    DEFAULT_CONFIG_YAML,
    SECTIONS,
    ExperimentConfig,
    load_config,
    parse_config,
)
from cssl.continual import Scenario
from cssl.datastore import gen_synthetic
from cssl.errors import ConfigError, CsslError
from cssl.losses import Method, Regime

DEFAULT_FILE = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "default_class_il_5t.yaml")

FAST_CONFIG = """\
scenario: class_il
num_tasks: 2
seeds: [1]
dataset: {classes: 4, input_dim: 8, samples_per_class: 12, radius: 1.0, sigma: 0.8}
model:
  encoder_dims: [8, 10, 6]
  projector_dims: [6, 6]
  predictor_dims: [6, 6]
augment: {noise_std: 0.3, dropout_p: 0.1, scale_range: [0.8, 1.2]}
train: {epochs_per_task: 2, batch_size: 16, lr: 0.05}
loss: {method: simclr, regime: pnr}
probe: {epochs: 120, lr: 0.5, l2_penalty: 1.0e-4, train_fraction: 0.8}
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from ``src``."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_import_loads_no_submodule():
    # The CLI's modules and yaml load only where they are imported.
    out = _python("-c", "import sys, cssl; print(sorted(m for m in "
                        "sys.modules if m.startswith('cssl') or m == 'yaml'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['cssl']"


class TestConfigParsing:
    def test_default_yaml_parses(self):
        cfg = parse_config(yaml.safe_load(DEFAULT_CONFIG_YAML))
        assert cfg.num_tasks == 5
        assert cfg.train.loss.tau == 0.2
        assert cfg.train.queue_capacity == 1024
        assert cfg == ExperimentConfig()

    def test_default_yaml_lists_every_key(self):
        raw = yaml.safe_load(DEFAULT_CONFIG_YAML)
        for section, (_cls, keys) in SECTIONS.items():
            assert set(keys) <= set(raw[section] if section else raw)

    def test_default_file_is_generated(self, capsys):
        assert cli_main(["default-config"]) == 0
        with open(DEFAULT_FILE, encoding="utf-8") as fh:
            assert fh.read() == capsys.readouterr().out

    def test_null_means_default(self):
        raw = {"seeds": None, "dataset": None,
               "model": dict.fromkeys(SECTIONS["model"][1]),
               "augment": {"scale_range": None}, "loss": {"lambda_pnr": None}}
        assert parse_config(raw) == ExperimentConfig()

    def test_empty_config_gets_defaults(self):
        cfg = parse_config({})
        assert cfg.scenario == "class_il"
        assert cfg.train.epochs_per_task == 100
        assert cfg == ExperimentConfig()

    @pytest.mark.parametrize("patch,field", [
        ({"scenario": "bogus"}, "scenario"),
        ({"num_tasks": 0}, "num_tasks"),
        ({"num_tasks": 3}, "num_tasks"),  # 10 classes not divisible by 3
        ({"seeds": []}, "seeds"),
        ({"seeds": "one"}, "seeds"),
        ({"dataset": {"classes": 1}}, "classes"),
        ({"dataset": {"sigma": -1.0}}, "sigma"),
        ({"model": {"encoder_dims": [16, 8]}}, "encoder_dims"),
        ({"model": {"projector_dims": [8]}}, "projector_dims"),
        ({"augment": {"dropout_p": 2.0}}, "augment"),
        ({"train": {"lr": "fast"}}, "lr"),
        ({"train": {"epochs_per_task": -5}}, "train"),
        ({"loss": {"method": "dino"}}, "loss"),
        ({"loss": {"tau": 0.0}}, "tau"),
        ({"probe": {"train_fraction": 1.5}}, "probe"),
        ({"typo_section": {}}, "typo_section"),
        ({"loss": {"lambda_cassle": -3.0}}, "loss"),
        ({"augment": {"dropout_p": 1.0}}, "augment"),
        ({"probe": {"lr": float("nan")}}, "probe.lr"),
        ({"dataset": {"sigma": float("inf")}}, "dataset.sigma"),
        ({"train": {"lr": float("nan")}}, "train.lr"),
        ({"augment": {"scale_range": [True, 2]}}, "scale_range"),
        ({"model": {"projector_dims": [16, 8]}}, "projector_dims"),
        ({"model": {"predictor_dims": [8, 4]}}, "predictor_dims"),
        # data_il: the default 2000 samples cannot form 2001 tasks
        ({"scenario": "data_il", "num_tasks": 2001}, "num_tasks"),
        # they skip every batch of one sample
        ({"train": {"batch_size": 1}, "loss": {"method": "vicreg"}},
         "train.batch_size"),
        ({"train": {"batch_size": 1}, "loss": {"method": "barlow"}},
         "train.batch_size"),
        # class_il: one class per task cannot be probed
        ({"num_tasks": 10}, "num_tasks"),
        # gen_synthetic and domain_il need two input dims
        ({"dataset": {"input_dim": 1}, "model": {"encoder_dims": [1, 32, 8]}},
         "dataset.input_dim"),
    ])
    def test_invalid_fields_named(self, patch, field):
        raw = yaml.safe_load(DEFAULT_CONFIG_YAML)
        for key, value in patch.items():
            if isinstance(value, dict):
                raw[key] = {**raw.get(key, {}), **value}
            else:
                raw[key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert field in str(err.value)

    @pytest.mark.parametrize("section,key,enum_cls", [
        ("", "scenario", Scenario), ("loss", "method", Method),
        ("loss", "regime", Regime)])
    def test_every_enum_member_parses_and_is_listed(self, section, key,
                                                    enum_cls):
        line = next(line for line in DEFAULT_CONFIG_YAML.splitlines()
                    if line.strip().startswith(f"{key}:"))
        assert line.split("# ")[1] == " | ".join(m.value for m in enum_cls)
        for member in enum_cls:
            raw = yaml.safe_load(DEFAULT_CONFIG_YAML)
            (raw[section] if section else raw)[key] = member.value
            cfg = parse_config(raw)
            got = {"scenario": cfg.scenario, "method": cfg.train.loss.method,
                   "regime": cfg.train.loss.regime}[key]
            assert got is member

    def test_lambda_default_resolution(self):
        raw = yaml.safe_load(DEFAULT_CONFIG_YAML)
        raw["loss"]["method"] = "vicreg"
        cfg = parse_config(raw)
        assert cfg.train.loss.lambda_pnr == 23.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))


class TestCli:
    @pytest.fixture()
    def workdir(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(FAST_CONFIG)
        return tmp_path, str(cfg_path)

    def test_gen_train_probe_pipeline(self, workdir, capsys):
        tmp, cfg = workdir
        data = str(tmp / "data.bin")
        out_dir = str(tmp / "run")
        assert cli_main(["gen-data", "--config", cfg, "--out", data]) == 0
        assert cli_main(["train", "--config", cfg, "--data", data,
                         "--out-dir", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "seed1_seq_task2.ckpt"))
        assert os.path.exists(os.path.join(out_dir, "train_log.json"))
        prefix = str(tmp / "metrics")
        assert cli_main(["probe", "--config", cfg, "--data", data,
                         "--checkpoints", out_dir, "--out", prefix]) == 0
        csv_path = f"{prefix}_seed1.csv"
        json_path = f"{prefix}_seed1.json"
        assert os.path.exists(csv_path)
        with open(json_path) as fh:
            metrics = json.load(fh)
        assert "A_2" in metrics and "S" in metrics and "P" in metrics
        grid = np.array(metrics["a"])
        assert grid.shape == (2, 2)
        assert np.all((grid >= 0) & (grid <= 1))
        report = str(tmp / "report.csv")
        assert cli_main(["report", "--metrics", json_path,
                         "--out", report]) == 0
        with open(report) as got, open(f"{prefix}_summary.csv") as want:
            assert got.read() == want.read()

    def test_probe_single_task_grid(self, tmp_path):
        cfg_text = FAST_CONFIG.replace("num_tasks: 2", "num_tasks: 1")
        cfg_path = tmp_path / "cfg1.yaml"
        cfg_path.write_text(cfg_text)
        data = str(tmp_path / "d.bin")
        out_dir = str(tmp_path / "run1")
        assert cli_main(["gen-data", "--config", str(cfg_path),
                         "--out", data]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--data", data,
                         "--out-dir", out_dir]) == 0
        prefix = str(tmp_path / "m")
        assert cli_main(["probe", "--config", str(cfg_path), "--data", data,
                         "--checkpoints", out_dir, "--out", prefix]) == 0
        lines = (tmp_path / "m_seed1.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + one task row

    @pytest.mark.parametrize("scenario", ["data_il", "domain_il"])
    def test_other_scenarios_end_to_end(self, tmp_path, scenario):
        cfg_text = FAST_CONFIG.replace("scenario: class_il",
                                       f"scenario: {scenario}")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(cfg_text)
        data = str(tmp_path / "d.bin")
        out_dir = str(tmp_path / "run")
        prefix = str(tmp_path / "m")
        assert cli_main(["gen-data", "--config", str(cfg_path),
                         "--out", data]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--data", data,
                         "--out-dir", out_dir, "--no-ft-refs"]) == 0
        assert cli_main(["probe", "--config", str(cfg_path), "--data", data,
                         "--checkpoints", out_dir, "--out", prefix]) == 0
        with open(f"{prefix}_seed1.json") as fh:
            metrics = json.load(fh)
        assert "A_2" in metrics and "P" not in metrics  # no FT refs

    def test_report_aggregation(self, tmp_path):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text(json.dumps({"A_2": 0.8, "seed": 1}))
        m2.write_text(json.dumps({"A_2": 0.9, "seed": 2}))
        out = tmp_path / "agg.csv"
        assert cli_main(["report", "--metrics", str(m1), str(m2),
                         "--out", str(out)]) == 0
        body = out.read_text()
        assert body.splitlines()[0] == "metric,mean,std,n"
        assert any(line.startswith("A_2,") for line in body.splitlines())
        assert not any(line.startswith("seed,") for line in body.splitlines())

    def test_report_keys_do_not_depend_on_file_order(self, tmp_path):
        # a seed probed without FT references has no P
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text(json.dumps({"A_2": 0.8, "seed": 1}))
        m2.write_text(json.dumps({"A_2": 0.9, "P": 0.1, "seed": 2}))
        bodies = []
        for order in ([m1, m2], [m2, m1]):
            out = tmp_path / "agg.csv"
            assert cli_main(["report", "--metrics", *map(str, order),
                             "--out", str(out)]) == 0
            bodies.append(out.read_text())
        assert bodies[0] == bodies[1]
        assert "P,0.1,0.0,1" in bodies[0].splitlines()

    def test_report_rejects_non_object_json(self, tmp_path, capsys):
        # A list, a file that is not JSON, and one that is not UTF-8.
        for name, body in (("list", b"[1, 2]"), ("brace", b"{not json"),
                           ("latin1", b"\xff{}")):
            bad = tmp_path / f"{name}.json"
            bad.write_bytes(body)
            assert cli_main(["report", "--metrics", str(bad)]) == 1
            assert f"error: {bad}: " in capsys.readouterr().err

    def test_single_label_task_fails_before_training(self, tmp_path, capsys):
        # data_il: 20 samples of 2 classes in 10 tasks of 2 samples leave
        # some task with one label, which probing could not score
        cfg_text = (FAST_CONFIG
                    .replace("scenario: class_il", "scenario: data_il")
                    .replace("num_tasks: 2", "num_tasks: 10")
                    .replace("classes: 4", "classes: 2")
                    .replace("samples_per_class: 12", "samples_per_class: 10"))
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(cfg_text)
        data = str(tmp_path / "d.bin")
        out_dir = tmp_path / "run"
        assert cli_main(["gen-data", "--config", str(cfg_path),
                         "--out", data]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--data", data,
                         "--out-dir", str(out_dir)]) == 1
        assert "fewer than two labels" in capsys.readouterr().err
        assert not list(out_dir.glob("*.ckpt"))

    def test_probe_rejects_partial_ft_refs(self, workdir, capsys):
        tmp, cfg = workdir
        data = str(tmp / "data.bin")
        out_dir = tmp / "run"
        assert cli_main(["gen-data", "--config", cfg, "--out", data]) == 0
        assert cli_main(["train", "--config", cfg, "--data", data,
                         "--out-dir", str(out_dir)]) == 0
        missing = out_dir / "seed1_ft_task1.ckpt"
        missing.unlink()
        prefix = tmp / "m"
        assert cli_main(["probe", "--config", cfg, "--data", data,
                         "--checkpoints", str(out_dir),
                         "--out", str(prefix)]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not list(tmp.glob("m_*"))

    def test_no_ft_refs_removes_earlier_references(self, workdir):
        # Left in place, probe would score P and ft from the earlier run.
        tmp, cfg = workdir
        data = str(tmp / "data.bin")
        out_dir = tmp / "run"
        train = ["train", "--config", cfg, "--data", data,
                 "--out-dir", str(out_dir)]
        assert cli_main(["gen-data", "--config", cfg, "--out", data]) == 0
        assert cli_main(train) == 0
        assert len(list(out_dir.glob("seed1_ft_task*.ckpt"))) == 2
        assert cli_main(train + ["--no-ft-refs"]) == 0
        assert not list(out_dir.glob("seed1_ft_task*.ckpt"))
        prefix = tmp / "m"
        assert cli_main(["probe", "--config", cfg, "--data", data,
                         "--checkpoints", str(out_dir),
                         "--out", str(prefix)]) == 0
        metrics = json.loads((tmp / "m_seed1.json").read_text())
        assert "P" not in metrics and "ft" not in metrics

    def test_bad_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: bogus\n")
        assert cli_main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "x.bin")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_choice_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("loss: {method: dino}\n")
        assert cli_main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "x.bin")]) == 1
        assert capsys.readouterr().err == (
            "config error: loss.method: 'dino' is not one of "
            "simclr | moco | byol | vicreg | barlow\n")

    @pytest.mark.parametrize("index,key,value,rule", [
        (0, "classes", 1, "classes must be >= 2"),
        (1, "input_dim", 1, "input_dim must be >= 2"),
        (2, "samples_per_class", 0, "samples_per_class must be positive"),
        (3, "radius", 0.0, "radius must be positive"),
        (4, "sigma", -1.0, "sigma must be non-negative"),
    ])
    def test_gen_data_rules_match_gen_synthetic(self, tmp_path, capsys, index,
                                                key, value, rule):
        args = [10, 32, 200, 1.0, 2.0]
        args[index] = value
        with pytest.raises(CsslError, match=f"^{rule}$"):
            gen_synthetic(*args, seed=1)
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"dataset: {{{key}: {value}}}\n")
        assert cli_main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "x.bin")]) == 1
        assert capsys.readouterr().err == f"config error: dataset.{rule}\n"

    @pytest.mark.parametrize("document", ["[]", "0", "false", '""'])
    def test_falsy_document_is_not_a_config(self, tmp_path, capsys,
                                            document):
        # Only an empty file means "all defaults".
        bad = tmp_path / "bad.yaml"
        bad.write_text(document + "\n")
        out = tmp_path / "x.bin"
        assert cli_main(["gen-data", "--config", str(bad),
                         "--out", str(out)]) == 1
        assert ("config error: top level: expected a mapping"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_data_exit_two(self, workdir, capsys):
        tmp, cfg = workdir
        code = cli_main(["train", "--config", cfg,
                         "--data", str(tmp / "missing.bin"),
                         "--out-dir", str(tmp / "o")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, corrupt, message", [
        pytest.param("data.bin", lambda raw: b"X" + raw[1:],
                     "not a dataset file", id="magic"),
        pytest.param("data.bin", lambda raw: raw[:8] + b"\2" + raw[9:],
                     "version 2 unsupported", id="version"),
        pytest.param("data.bin", lambda raw: raw[:-20],
                     "3280 bytes, but the header implies 3300", id="short"),
        pytest.param("data.bin", lambda raw: raw + b"\0",
                     "3301 bytes, but the header implies 3300", id="trailing"),
        pytest.param("data.bin",
                     lambda raw: raw[:40] + bytes([raw[40] ^ 1]) + raw[41:],
                     "dataset checksum mismatch", id="checksum"),
        pytest.param("run/seed1_seq_task1.ckpt", lambda raw: raw[:10],
                     "ended 2 bytes early", id="checkpoint"),
    ])
    def test_corrupt_file_exit_two(self, workdir, capsys, name, corrupt,
                                   message):
        tmp, cfg = workdir
        data = str(tmp / "data.bin")
        assert cli_main(["gen-data", "--config", cfg, "--out", data]) == 0
        assert cli_main(["train", "--config", cfg, "--data", data,
                         "--out-dir", str(tmp / "run")]) == 0
        path = tmp / name
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert cli_main(["probe", "--config", cfg, "--data", data,
                         "--checkpoints", str(tmp / "run"),
                         "--out", str(tmp / "m")]) == 2
        assert capsys.readouterr().err == f"i/o error: {path}: {message}\n"

    def test_gradcheck_subset(self, capsys):
        assert cli_main(["gradcheck", "--loss", "byol_loss",
                         "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_gradcheck_unknown_loss(self, capsys):
        assert cli_main(["gradcheck", "--loss", "nope"]) == 1
        # the two contrastive terms are checked as one loss, cssl_total
        assert cli_main(["gradcheck", "--loss", "pnr_l1"]) == 1

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gradcheck_rejects_fewer_than_one_trial(self, trials, capsys):
        assert cli_main(["gradcheck", "--loss", "cssl_total",
                         "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "trials" in captured.err
        assert "passed" not in captured.out

    def test_module_invocation_runs_cli(self):
        for module in ("cssl", "cssl.cli"):
            ok = _python("-m", module, "gradcheck", "--loss", "byol_loss",
                         "--trials", "1")
            assert ok.returncode == 0, ok.stderr
            assert "[PASS] embedding/byol_loss" in ok.stdout
            assert "all gradient checks passed" in ok.stdout
            assert "RuntimeWarning" not in ok.stderr, ok.stderr
        assert _python("-m", "cssl", "no-such-command").returncode != 0

    def test_default_config_round_trips(self, tmp_path, capsys):
        out = tmp_path / "default.yaml"
        assert cli_main(["default-config", "--out", str(out)]) == 0
        cfg = load_config(str(out))
        assert cfg.num_tasks == 5
