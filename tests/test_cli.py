import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_pipeline import small_doc

from nmoe.cli import main
from nmoe.config import config_from_dict, config_hash
from nmoe.datasets import load_dataset
from nmoe.numerics import ParamSet, encode_params


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    path.write_text(json.dumps(small_doc()))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, cfg_file):
    out = tmp_path_factory.mktemp("cli-train") / "run"
    assert main(["train", str(cfg_file), str(out)]) == 0
    return out


def test_generate_data(tmp_path, cfg_file):
    out = tmp_path / "data"
    assert main(["generate-data", str(cfg_file), str(out)]) == 0
    data, manifest = load_dataset(out)
    cfg = config_from_dict(small_doc())
    assert data.num_samples == cfg.data.num_classes \
        * cfg.data.samples_per_class
    assert manifest["meta"]["config_hash"] == config_hash(cfg)


def test_partition(tmp_path, cfg_file):
    out = tmp_path / "shards"
    assert main(["partition", str(cfg_file), str(out)]) == 0
    cfg = config_from_dict(small_doc())
    dirs = sorted(p.name for p in out.iterdir())
    assert len(dirs) == cfg.data.num_clients
    train, meta = load_dataset(out / dirs[0] / "train")
    test, _ = load_dataset(out / dirs[0] / "test")
    assert train.num_samples == cfg.data.train_per_client
    assert test.num_samples == cfg.data.test_per_client
    assert meta["meta"]["client_id"] == 0


def test_train_writes_artifacts(trained):
    for name in ("config.json", "results.json", "training_log.jsonl",
                 "model.json", "heatmap.csv", "heatmap.manifest.json"):
        assert (trained / name).is_file(), name


def test_train_without_output_dir_fails(cfg_file, capsys):
    assert main(["train", str(cfg_file)]) == 2
    assert "output directory" in capsys.readouterr().err


def test_evaluate_reproduces_training_run(tmp_path, cfg_file, trained):
    report = tmp_path / "eval.json"
    rc = main(["evaluate", str(trained / "model.json"), str(cfg_file),
               "--output", str(report)])
    assert rc == 0
    evaluated = json.loads(report.read_text())
    recorded = json.loads((trained / "results.json").read_text())
    assert evaluated["evaluation"] == recorded["evaluation"]
    assert evaluated["routing"]["counts"] == recorded["routing"]["counts"]


def test_evaluate_detects_config_mismatch(tmp_path, trained, capsys):
    other = tmp_path / "other.json"
    doc = small_doc()
    doc["seed"] = doc["seed"] + 1
    other.write_text(json.dumps(doc))
    rc = main(["evaluate", str(trained / "model.json"), str(other)])
    assert rc == 4
    assert "error (format)" in capsys.readouterr().err


def test_evaluate_reports_malformed_checkpoint(tmp_path, cfg_file, trained,
                                              capsys):
    doc = json.loads((trained / "model.json").read_text())
    del doc["gate"]
    damaged = tmp_path / "model.json"
    damaged.write_text(json.dumps(doc))
    rc = main(["evaluate", str(damaged), str(cfg_file)])
    assert rc == 4
    assert "error (format)" in capsys.readouterr().err


def test_evaluate_rejects_non_finite_random_gate(tmp_path, cfg_file, trained,
                                                capsys):
    # json reads NaN back, so such a checkpoint loads unless the gate
    # checks its entries; it fails like one with a negative entry
    doc = json.loads((trained / "model.json").read_text())
    m = len(doc["experts"])
    codes = []
    for first in (float("nan"), -0.5):
        doc["gate"] = {"kind": "random",
                       "distribution": [first, 1.0] + [0.0] * (m - 2)}
        damaged = tmp_path / "model.json"
        damaged.write_text(json.dumps(doc))
        codes.append(main(["evaluate", str(damaged), str(cfg_file)]))
        assert "error (format)" in capsys.readouterr().err
    assert codes == [4, 4]


def _damage_activations(doc, value):
    doc["fe_spec"]["activations"] = value


def _damage_gate_width(doc):
    # a linear gate one expert short of the model's expert count
    d, m = doc["fe_spec"]["widths"][-1], len(doc["experts"]) - 1
    doc["gate"]["params"] = encode_params(
        ParamSet({"w0": np.zeros((d, m)), "b0": np.zeros(m)}))


@pytest.mark.parametrize("damage", [
    lambda doc: _damage_activations(doc, ["swish"]),
    lambda doc: _damage_activations(doc, [["tanh"]]),
    lambda doc: doc.update(gate={
        "kind": "random",
        "distribution": [-0.5, 1.5] + [0.0] * (len(doc["experts"]) - 2)}),
    _damage_gate_width,
], ids=["unknown-activation", "unhashable-activation",
        "negative-random-gate", "gate-for-wrong-expert-count"])
def test_evaluate_reports_bad_checkpoint_content_as_format(
        tmp_path, cfg_file, trained, capsys, damage):
    # contents the validators reject are a damaged file, exit 4, like a
    # missing field, whichever validator finds the fault
    doc = json.loads((trained / "model.json").read_text())
    damage(doc)
    damaged = tmp_path / "model.json"
    damaged.write_text(json.dumps(doc))
    rc = main(["evaluate", str(damaged), str(cfg_file)])
    assert rc == 4
    assert "error (format)" in capsys.readouterr().err


def test_baselines_writes_all_systems(tmp_path, cfg_file):
    out = tmp_path / "baselines.json"
    assert main(["baselines", str(cfg_file), str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["baselines"]) == {"centralized_moe", "local_classifier",
                                     "fedavg_classifier"}


def test_sweep_writes_csv(tmp_path, cfg_file):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(cfg_file), str(out),
               "--axis", "k", "--values", "1", "2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("k,1,ok,")
    assert lines[2].startswith("k,2,ok,")


def test_sweep_rejects_non_numeric_value(tmp_path, cfg_file, capsys):
    rc = main(["sweep", str(cfg_file), str(tmp_path / "s.csv"),
               "--axis", "k", "--values", "three"])
    assert rc == 2
    assert "error (config)" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis(tmp_path, cfg_file):
    with pytest.raises(SystemExit):
        main(["sweep", str(cfg_file), str(tmp_path / "s.csv"),
              "--axis", "lr", "--values", "1"])


def test_export_heatmap_matches_training_artifact(tmp_path, trained):
    out = tmp_path / "hm.csv"
    rc = main(["export-heatmap", str(trained / "results.json"), str(out)])
    assert rc == 0
    assert out.read_bytes() == (trained / "heatmap.csv").read_bytes()
    assert json.loads((tmp_path / "hm.manifest.json").read_text()) \
        == json.loads((trained / "heatmap.manifest.json").read_text())


def test_export_heatmap_rejects_non_record(tmp_path, cfg_file, capsys):
    rc = main(["export-heatmap", str(cfg_file), str(tmp_path / "hm.csv")])
    assert rc == 4
    assert "error (format)" in capsys.readouterr().err


def test_missing_config_reports_category(tmp_path, capsys):
    rc = main(["train", str(tmp_path / "absent.json"), str(tmp_path / "o")])
    assert rc == 2
    assert "error (config)" in capsys.readouterr().err


def test_invalid_config_value_reports_category(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = small_doc()
    doc["k"] = 99
    bad.write_text(json.dumps(doc))
    rc = main(["train", str(bad), str(tmp_path / "o")])
    assert rc == 2
    assert "error (config)" in capsys.readouterr().err


def test_console_entry_point_installed():
    # the child sees the package from a plain checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "nmoe.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "generate-data" in proc.stdout


def test_unhashable_activation_reports_config_category(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        small_doc(model={"fe_activations": [["tanh"], "tanh"]})))
    rc = main(["train", str(bad), str(tmp_path / "o")])
    assert rc == 2
    assert "error (config)" in capsys.readouterr().err
