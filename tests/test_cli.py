import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_pipeline import small_doc

from nmoe.cli import main
from nmoe.config import CIFAR10_DIM, config_from_dict, config_hash
from nmoe.datasets import Dataset, load_dataset, save_cifar10
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


def _damage_extractor_depth(doc, extra):
    # the extractor one layer short, or one layer long, of its spec
    if extra:
        d = doc["fe_spec"]["widths"][-1]
        doc["fe_params"] += encode_params(
            ParamSet({"w2": np.zeros((d, d)), "b2": np.zeros(d)}))
    else:
        del doc["fe_params"][-2:]


def _damage_expert_width(doc):
    # expert 3 sized for 7 classes where the spec says 10
    d = doc["expert_spec"]["widths"][0]
    doc["experts"][3] = encode_params(
        ParamSet({"w0": np.zeros((d, 7)), "b0": np.zeros(7)}))


def _damage_expert_weight(doc):
    # one NaN in expert 0's first weight matrix
    record = doc["experts"][0][0][1]
    w0 = np.frombuffer(base64.b64decode(record["data"]), "<f8").copy()
    w0[0] = np.nan
    record["data"] = base64.b64encode(w0.tobytes()).decode("ascii")


def _damage_record_length(doc):
    # the extractor's first array one scalar short of its shape
    record = doc["fe_params"][0][1]
    raw = base64.b64decode(record["data"])[:-8]
    record["data"] = base64.b64encode(raw).decode("ascii")


@pytest.mark.parametrize("damage", [
    lambda doc: _damage_activations(doc, ["swish"]),
    lambda doc: _damage_activations(doc, [["tanh"]]),
    lambda doc: doc.update(gate={
        "kind": "random",
        "distribution": [-0.5, 1.5] + [0.0] * (len(doc["experts"]) - 2)}),
    _damage_gate_width,
    lambda doc: _damage_extractor_depth(doc, extra=False),
    _damage_expert_width,
    lambda doc: _damage_extractor_depth(doc, extra=True),
    _damage_expert_weight,
    lambda doc: doc["gate"].update(noise_std=float("nan")),
    _damage_record_length,
], ids=["unknown-activation", "unhashable-activation",
        "negative-random-gate", "gate-for-wrong-expert-count",
        "extractor-without-its-last-layer", "expert-of-the-wrong-width",
        "extractor-with-an-extra-layer", "nan-expert-weight",
        "nan-gate-noise", "truncated-array-record"])
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


def test_sweep_rejects_unknown_axis(tmp_path, cfg_file, capsys):
    rc = main(["sweep", str(cfg_file), str(tmp_path / "s.csv"),
               "--axis", "lr", "--values", "1"])
    assert rc == 2
    assert "error (config): sweep axis" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_values_are_json(tmp_path, cfg_file, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", str(cfg_file), str(out),
               "--axis", "stage1.method", "--values", '"fedsc"'])
    assert rc == 0
    row = out.read_text().splitlines()[1]
    assert row.startswith("stage1.method,fedsc,ok,")
    rc = main(["sweep", str(cfg_file), str(tmp_path / "bare.csv"),
               "--axis", "stage1.method", "--values", "fedsc"])
    assert rc == 2
    assert "error (config): sweep value 'fedsc' is not JSON" \
        in capsys.readouterr().err


def test_train_on_a_mistyped_value_exits_with_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_doc(stage1={"aug_mask_prob": "x"})))
    rc = main(["train", str(cfg), str(tmp_path / "run")])
    assert rc == 2
    assert "error (config): stage1.aug_mask_prob" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_with_more_clients_than_classes_is_a_config_error(tmp_path,
                                                                capsys):
    # each client needs a dominant class of its own; the document is
    # refused before the output directory or the dataset exists
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config_version": 1,
                               "data": {"num_clients": 12}}))
    rc = main(["train", str(cfg), str(tmp_path / "run")])
    assert rc == 2
    assert "error (config): data.num_clients=12 exceeds the 10 classes" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def cifar_doc(path) -> dict:
    return {"config_version": 1,
            "data": {"source": "cifar10", "path": path, "num_clients": 3,
                     "train_per_client": 40, "test_per_client": 20},
            "model": {"fe_widths": [3072, 8, 8], "expert_widths": [8, 10]},
            "stage1": {"rounds": 2, "local_epochs": 1},
            "stage2": {"epochs": 1},
            "stage3": {"rounds": 2, "local_epochs": 1}}


def test_train_on_cifar10_records_is_reproducible(tmp_path):
    # 100 random pixel records per class in the CIFAR-10 binary layout
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (1000, CIFAR10_DIM)) / 255.0
    save_cifar10(Dataset(pixels, np.repeat(np.arange(10), 100), 10),
                 tmp_path / "data_batch_1.bin")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cifar_doc(str(tmp_path / "data_batch_1.bin"))))
    names = ("results.json", "model.json", "training_log.jsonl")
    runs = []
    for out in ("run", "run", "other"):
        assert main(["train", str(cfg), str(tmp_path / out)]) == 0
        runs.append({name: (tmp_path / out / name).read_text()
                     for name in names})
    assert runs[1] == runs[0]
    # another directory changes only the echoed output_dir
    moved = {name: text.replace(str(tmp_path / "other"),
                                str(tmp_path / "run"))
             for name, text in runs[2].items()}
    assert runs[2] != runs[0] and moved == runs[0]


def test_train_on_an_empty_cifar10_path_is_a_config_error(tmp_path, capsys):
    # Path("") is the working directory, so only the schema can refuse it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cifar_doc("")))
    rc = main(["train", str(cfg), str(tmp_path / "run")])
    assert rc == 2
    assert "error (config): data.path" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_export_heatmap_matches_training_artifact(tmp_path, trained):
    out = tmp_path / "hm.csv"
    rc = main(["export-heatmap", str(trained / "results.json"), str(out)])
    assert rc == 0
    assert out.read_bytes() == (trained / "heatmap.csv").read_bytes()
    assert json.loads((tmp_path / "hm.manifest.json").read_text()) \
        == json.loads((trained / "heatmap.manifest.json").read_text())


def test_export_heatmap_creates_the_parent_directory(tmp_path, trained):
    out = tmp_path / "new" / "dir" / "hm.csv"
    rc = main(["export-heatmap", str(trained / "results.json"), str(out)])
    assert rc == 0
    assert out.read_bytes() == (trained / "heatmap.csv").read_bytes()


@pytest.mark.parametrize("counts", [
    [[1, 2, 3]],                 # not square
    [[3, -1], [0, 2]],           # negative
    [[1.5]],                     # not integers: truncated to 1 before
    [[2.0, 1.0], [0.0, 3.0]],    # integral floats are still not counts
    [[True]],
])
def test_export_heatmap_rejects_malformed_counts(tmp_path, trained, capsys,
                                                 counts):
    record = json.loads((trained / "results.json").read_text())
    record["routing"]["counts"] = counts
    bad = tmp_path / "results.json"
    bad.write_text(json.dumps(record))
    out = tmp_path / "hm.csv"
    rc = main(["export-heatmap", str(bad), str(out)])
    assert rc == 4
    assert "error (format)" in capsys.readouterr().err
    assert not out.exists()


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
