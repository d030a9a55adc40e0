import json
import math

import numpy as np
import pytest

from nmoe import seeding
from nmoe.config import RunConfig, config_from_dict, config_hash
from nmoe.errors import ConfigError, TrainingError
from nmoe.metrics import evaluate_clients
from nmoe.moe import load_model
from nmoe.netsim import CostModel, simulate_inference
from nmoe.datasets import Shard
from nmoe.pipeline import (RunResult, build_shards, run_ablation,
                           run_baselines, run_pipeline,
                           train_fedavg_classifier, write_sweep_csv)
from oracles import per_client_fedavg_classifier
from nmoe.seeding import derive_rng

ARTIFACTS = ("config.json", "results.json", "training_log.jsonl",
             "model.json", "heatmap.csv", "heatmap.manifest.json")


def small_doc(**overrides) -> dict:
    """A fast config: full client count, shrunken schedules."""
    doc = {
        "config_version": 1,
        "seed": 3,
        "data": {"samples_per_class": 200, "train_per_client": 120,
                 "test_per_client": 60},
        "stage1": {"rounds": 3},
        "stage2": {"epochs": 3},
        "stage3": {"rounds": 3},
        "baselines": {"epochs": 3},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    method3 = doc["stage3"].get("method", "fedgate")
    if method3 == "rangate":
        doc["stage3"] = {"method": "rangate"}
    elif method3 == "rollgate":
        doc["stage3"] = {"method": "rollgate", "max_passes": 3}
    return doc


def small_config(**overrides) -> RunConfig:
    return config_from_dict(small_doc(**overrides))


@pytest.fixture(scope="module")
def small_run():
    return run_pipeline(small_config())


def test_run_is_reproducible_in_memory(small_run):
    again = run_pipeline(small_config())
    assert again.record() == small_run.record()


def test_all_artifacts_written(tmp_path):
    cfg = small_config(output_dir=str(tmp_path / "run"))
    run_pipeline(cfg)
    for name in ARTIFACTS:
        assert (tmp_path / "run" / name).is_file(), name
    assert not (tmp_path / "run" / "FAILED").exists()


def test_rerun_artifacts_byte_identical(tmp_path):
    out = tmp_path / "run"
    names = ("results.json", "training_log.jsonl", "model.json",
             "heatmap.csv")
    run_pipeline(small_config(output_dir=str(out)))
    first = {name: (out / name).read_bytes() for name in names}
    run_pipeline(small_config(output_dir=str(out)))
    for name in names:
        assert (out / name).read_bytes() == first[name], name


def test_record_echo_reloads_to_same_config(small_run):
    record = small_run.record()
    assert config_from_dict(record["config"]) == small_run.config
    assert record["config_hash"] == config_hash(small_run.config)


def test_record_byte_totals_are_consistent(small_run):
    record = small_run.record()
    b = record["bytes"]
    assert b["total"] == b["stage1"] + b["stage2"] + b["stage3"] \
        + b["inference"]
    assert b["stage2"] == 0
    assert b["inference"] == small_run.routing.bytes_out \
        + small_run.routing.bytes_back


def test_record_routing_conservation(small_run):
    record = small_run.record()
    counts = np.asarray(record["routing"]["counts"])
    samples = sum(s.test.num_samples for s in build_shards(small_run.config))
    assert counts.sum() == samples * small_run.config.k


def test_training_log_lines_are_complete(tmp_path):
    cfg = small_config(output_dir=str(tmp_path / "run"))
    result = run_pipeline(cfg)
    lines = [json.loads(line) for line in
             (tmp_path / "run" / "training_log.jsonl").read_text()
             .splitlines()]
    assert lines
    for entry in lines:
        assert set(entry) == {"stage", "round", "client", "loss",
                              "round_bytes"}
        assert entry["stage"].startswith(("stage1", "stage2", "stage3"))
        assert math.isfinite(entry["loss"])
    logged = {(e["stage"], e["round"], e["client"]) for e in lines}
    expected = {(r.stage, r.round_index, c)
                for reports in (result.stage1.reports, result.stage2.reports,
                                result.stage3.reports)
                for r in reports for c in r.client_losses}
    assert logged == expected


def test_checkpoint_reproduces_recorded_evaluation(tmp_path):
    cfg = small_config(output_dir=str(tmp_path / "run"))
    result = run_pipeline(cfg)
    model, meta = load_model(tmp_path / "run" / "model.json")
    assert meta["config_hash"] == config_hash(cfg)
    inference = simulate_inference(
        model, build_shards(cfg), cfg.k,
        CostModel(cfg.model.latent_dim, cfg.data.num_classes,
                  cfg.bytes_per_scalar),
        rng=derive_rng(cfg.seed, seeding.EVAL, 0, 0))
    report = evaluate_clients(inference.predictions, inference.scores,
                              inference.labels, cfg.data.num_classes)
    assert report.as_dict() == result.evaluation.as_dict()
    assert np.array_equal(inference.log.counts, result.routing.counts)


def test_failure_leaves_marker_and_partial_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = small_config(output_dir=str(out), stage2={"lr": 1e308})
    with pytest.raises(TrainingError):
        run_pipeline(cfg)
    marker = json.loads((out / "FAILED").read_text())
    assert marker["stage"] == "stage2"
    assert marker["category"] == "training"
    assert (out / "config.json").is_file()
    assert not (out / "results.json").exists()


def test_successful_rerun_clears_stale_marker(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(TrainingError):
        run_pipeline(small_config(output_dir=str(out), stage2={"lr": 1e308}))
    run_pipeline(small_config(output_dir=str(out)))
    assert not (out / "FAILED").exists()
    assert (out / "results.json").is_file()


@pytest.mark.parametrize("method", ["rangate", "rollgate"])
def test_alternate_gate_methods_complete(method):
    result = run_pipeline(small_config(stage3={"method": method}))
    assert 0.0 <= result.evaluation.pooled_accuracy <= 1.0
    if method == "rangate":
        assert result.stage3.reports == ()
    else:
        assert result.stage3.reports


def test_iid_partition_completes():
    result = run_pipeline(small_config(data={"tau": 1.0}))
    assert 0.0 <= result.evaluation.pooled_accuracy <= 1.0


# --- baselines ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_baselines():
    return run_baselines(small_config())


def test_baselines_cover_all_three_systems(small_baselines):
    assert set(small_baselines) == {"centralized_moe", "local_classifier",
                                    "fedavg_classifier"}
    for entry in small_baselines.values():
        ev = entry["evaluation"]
        assert set(ev) >= {"per_client", "pooled", "client_mean"}
        assert 0.0 <= ev["pooled"]["accuracy"] <= 1.0


def test_local_classifier_is_fully_local(small_baselines):
    entry = small_baselines["local_classifier"]
    counts = np.asarray(entry["routing"]["counts"])
    assert np.array_equal(counts, np.diag(np.diag(counts)))
    assert entry["routing"]["bytes_out"] == 0
    assert entry["routing"]["bytes_back"] == 0
    assert entry["training_bytes"] == 0
    assert entry["local_ratio"] == 1.0


def test_fedavg_classifier_pays_full_model_traffic(small_baselines):
    cfg = small_config()
    entry = small_baselines["fedavg_classifier"]
    assert entry["training_bytes"] > 0
    assert entry["training_bytes"] % (2 * cfg.data.num_clients
                                      * cfg.bytes_per_scalar) == 0


def test_baselines_deterministic(small_baselines):
    again = run_baselines(small_config())
    assert again == small_baselines


@pytest.mark.parametrize("act", ["relu", "tanh"])
@pytest.mark.parametrize("num_clients,sizes",
                         [(1, (60,)), (2, (60,)), (5, (60,)),
                          (3, (60, 60, 45)), (5, (60, 45))])
def test_fedavg_classifier_matches_per_client_loop(num_clients, sizes, act):
    config = small_config(
        data={"num_clients": num_clients, "train_per_client": 60},
        model={"fe_activations": [act, act]},
        stage1={"rounds": 2, "local_epochs": 2}, k=1)
    shards = [Shard(s.client_id,
                    s.train.take(np.arange(sizes[c % len(sizes)])), s.test)
              for c, s in enumerate(build_shards(config))]
    _, reports = train_fedavg_classifier(config, shards)
    assert [(r.params_digest, r.client_losses) for r in reports] == \
        per_client_fedavg_classifier(config, shards)


# --- sweeps ------------------------------------------------------------

def test_single_point_sweep_equals_pipeline(small_run):
    rows = run_ablation(small_config(), "k", [1])
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "ok"
    assert row["config_hash"] == config_hash(small_run.config)
    assert row["pooled_accuracy"] == small_run.evaluation.pooled_accuracy
    assert row["bytes_out"] == small_run.routing.bytes_out


def test_sweep_continues_past_failing_point():
    rows = run_ablation(small_config(), "k", [99, 1])
    assert rows[0]["status"] == "failed"
    assert "99" in rows[0]["error"]
    assert rows[1]["status"] == "ok"


def test_sweep_rejects_bad_axis_and_empty_grid():
    with pytest.raises(ConfigError, match="sweep axis"):
        run_ablation(small_config(), "learning_rate", [1])
    with pytest.raises(ConfigError, match="nonempty"):
        run_ablation(small_config(), "k", [])


def test_client_sweep_splits_static_dataset():
    rows = run_ablation(small_config(), "num_clients", [5, 10])
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0]["config_hash"] != rows[1]["config_hash"]


def test_sweep_csv_layout(tmp_path):
    rows = run_ablation(small_config(), "k", [99, 1])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    header, failed, ok = path.read_text().splitlines()
    assert header.startswith("axis,value,status,config_hash")
    assert failed.startswith("k,99,failed,")
    assert ok.startswith("k,1,ok,")
    acc_field = ok.split(",")[4]
    assert len(acc_field.split(".")[1]) == 6


def test_top_k_insensitivity_trend():
    # trained-gate runs where adding experts to the vote barely moves
    # pooled accuracy: spread across k in {1, 2, 4} stays under 10 points
    accs = []
    for k in (1, 2, 4):
        cfg = config_from_dict({
            "config_version": 1, "seed": 0, "k": k,
            "data": {"cluster_spread": 0.25},
            "stage3": {"rounds": 60},
        })
        accs.append(run_pipeline(cfg).evaluation.pooled_accuracy)
    assert max(accs) - min(accs) < 0.10
