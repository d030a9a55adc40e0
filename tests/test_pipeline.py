import json
import math

import numpy as np
import pytest

from nmoe import seeding
from nmoe.config import RunConfig, config_from_dict, config_hash
from nmoe.errors import ConfigError, DataError, TrainingError
from nmoe.metrics import evaluate_clients
from nmoe.moe import load_model
from nmoe.netsim import CostModel, simulate_inference
from nmoe.datasets import Dataset, Shard
from nmoe.pipeline import (RunResult, build_shards, run_ablation,
                           run_baselines, run_pipeline,
                           train_centralized_moe, train_fedavg_classifier,
                           train_local_classifiers, write_sweep_csv)
from nmoe.numerics import params_digest
from oracles import (per_client_fedavg_classifier,
                     per_client_local_classifiers, per_expert_centralized_moe)
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


# at 64-row batches 60 and 45 rows make one short batch, 64 one full
# batch and 65 a full batch and a one-row one
@pytest.mark.parametrize("act", ["relu", "tanh"])
@pytest.mark.parametrize("num_clients,sizes",
                         [(1, (60,)), (2, (60,)), (5, (60,)), (3, (45,)),
                          (5, (65,)), (4, (64,))])
def test_fedavg_classifier_matches_per_client_loop(num_clients, sizes, act):
    config = small_config(
        data={"num_clients": num_clients, "train_per_client": 65},
        model={"fe_activations": [act, act]},
        stage1={"rounds": 2, "local_epochs": 2}, k=1)
    shards = trimmed_shards(config, sizes)
    _, reports = train_fedavg_classifier(config, shards)
    assert [(r.params_digest, r.client_losses) for r in reports] == \
        per_client_fedavg_classifier(config, shards)


def trimmed_shards(config, sizes):
    """The config's shards with client c's train set cut to
    sizes[c % len(sizes)] rows."""
    return [Shard(s.client_id,
                  s.train.take(np.arange(sizes[c % len(sizes)])), s.test)
            for c, s in enumerate(build_shards(config))]


def model_digests(model):
    return (params_digest(model.fe_params),
            params_digest(model.gate.params),
            [params_digest(e) for e in model.experts])


# sizes 65/64/... leave the pooled set a one-row last batch (64-row
# batches); 65 alone leaves the lone shard one too
@pytest.mark.parametrize("sizes", [(60,), (60, 60, 45), (65, 64)])
@pytest.mark.parametrize("num_clients,k", [(1, 1), (2, 1), (2, 2), (5, 1),
                                           (5, 2), (5, 5)])
def test_centralized_moe_matches_per_expert_loop(num_clients, k, sizes):
    config = small_config(
        data={"num_clients": num_clients, "train_per_client": 65},
        model={"fe_activations": ["relu", "tanh"]}, k=k)
    shards = trimmed_shards(config, sizes)
    model, losses = train_centralized_moe(config, shards)
    expected_model, expected_losses = per_expert_centralized_moe(config,
                                                                 shards)
    assert model_digests(model) == model_digests(expected_model)
    assert losses == expected_losses


# 65-row shards each leave a one-row last batch, so the stack then runs
# single-row slices
@pytest.mark.parametrize("act", ["relu", "tanh"])
@pytest.mark.parametrize("num_clients,sizes",
                         [(1, (65,)), (3, (45,)), (4, (65,)), (5, (60,)),
                          (5, (64,))])
def test_local_classifiers_match_per_client_loop(num_clients, sizes, act):
    config = small_config(
        data={"num_clients": num_clients, "train_per_client": 65},
        model={"fe_activations": [act, act]})
    shards = trimmed_shards(config, sizes)
    params, losses = train_local_classifiers(config, shards)
    expected_params, expected_losses = per_client_local_classifiers(config,
                                                                    shards)
    assert list(params) == list(expected_params)
    assert [params_digest(p) for p in params.values()] == \
        [params_digest(p) for p in expected_params.values()]
    assert losses == expected_losses


def test_local_classifiers_reject_unequal_train_shards():
    config = small_config(data={"num_clients": 3, "train_per_client": 60})
    with pytest.raises(DataError, match=r"^train shards must share one "
                       r"size, got \[45, 60\]$"):
        train_local_classifiers(config, trimmed_shards(config, (60, 45)))


def test_fedavg_classifier_divergence_names_the_client():
    config = small_config(data={"num_clients": 3, "train_per_client": 60},
                          model={"fe_activations": ["relu", "relu"]},
                          stage1={"rounds": 2, "local_epochs": 2}, k=1)
    shards = build_shards(config)
    train = shards[1].train
    shards[1] = Shard(1, Dataset(train.features * 1e200, train.labels,
                                 train.num_classes), shards[1].test)
    with pytest.raises(TrainingError, match=r"^client 1 loss became "
                       r"non-finite in baseline_fedavg_classifier round 0$"):
        train_fedavg_classifier(config, shards)


def scale_train(shards, scales):
    """The same shards with each listed client's train features
    multiplied by its scale; scales maps client position to scale."""
    out = list(shards)
    for c, scale in scales.items():
        train = out[c].train
        out[c] = Shard(out[c].client_id,
                       Dataset(train.features * scale, train.labels,
                               train.num_classes), out[c].test)
    return out


def divergence_config(**overrides) -> RunConfig:
    # relu features let a scaled shard's activations grow step by step;
    # 60-row shards make every local epoch one batch
    doc = dict(data={"num_clients": 3, "train_per_client": 60},
               model={"fe_activations": ["relu", "relu"]},
               baselines={"epochs": 4}, k=1)
    doc.update(overrides)
    return small_config(**doc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBaselineDivergence:
    """A diverging baseline names its stage, the client and the first bad
    epoch, as the per-client loops did."""

    def test_centralized_moe_names_the_epoch(self):
        # with clipping out of the way the pooled mixture overflows in
        # its second epoch; client 0 stands for the pooled trainer
        config = divergence_config(stage3={"grad_max_norm": 1e300})
        shards = scale_train(build_shards(config), {1: 1e10})
        with pytest.raises(TrainingError, match=r"^client 0 loss became "
                           r"non-finite in baseline_centralized_moe "
                           r"round 1$"):
            train_centralized_moe(config, shards)

    def test_centralized_moe_blow_up_is_a_divergence(self):
        # under the default clip a 1e200 scale turns the gate
        # probabilities to NaN inside epoch 0, before any loss is summed;
        # that is a divergence, not a malformed probability row
        config = divergence_config()
        shards = scale_train(build_shards(config), {1: 1e200})
        with pytest.raises(TrainingError, match=r"^client 0 loss became "
                           r"non-finite in baseline_centralized_moe "
                           r"round 0$"):
            train_centralized_moe(config, shards)

    def test_local_classifier_names_client_and_first_bad_epoch(self):
        # the clipped centralized mixture survives the scale, the
        # unclipped local classifier of client 1 overflows in epoch 2
        config = divergence_config()
        shards = scale_train(build_shards(config), {1: 1e50})
        with pytest.raises(TrainingError, match=r"^client 1 loss became "
                           r"non-finite in baseline_local_classifier "
                           r"round 2$"):
            run_baselines(config, shards)

    def test_local_classifier_lowest_client_wins(self):
        # client 2 diverges in epoch 1, client 1 only in epoch 2, and the
        # per-client loop stops at client 1
        config = divergence_config()
        shards = build_shards(config)
        with pytest.raises(TrainingError, match=r"^client 2 .* round 1$"):
            run_baselines(config, scale_train(shards, {2: 1e100}))
        scaled = scale_train(shards, {1: 1e50, 2: 1e100})
        with pytest.raises(TrainingError) as got:
            run_baselines(config, scaled)
        with pytest.raises(TrainingError) as expected:
            per_client_local_classifiers(config, scaled)
        assert str(got.value) == str(expected.value) == (
            "client 1 loss became non-finite in baseline_local_classifier "
            "round 2")


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
