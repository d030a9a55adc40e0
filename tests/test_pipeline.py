import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nmoe import federated, pipeline, seeding
from nmoe.cli import main
from nmoe.config import (RunConfig, config_from_dict, config_hash,
                         save_config, with_key)
from nmoe.errors import ConfigError, DataError, InternalError, TrainingError
from nmoe.federated import train_stack
from nmoe.metrics import evaluate_clients
from nmoe.moe import load_model
from nmoe.netsim import CostModel, simulate_inference
from nmoe.datasets import Dataset, Shard
from nmoe.pipeline import (RunResult, _centralized_entry, build_shards,
                           run_ablation, run_baselines, run_pipeline,
                           train_centralized_moe, train_fedavg_classifier,
                           train_local_classifiers, write_sweep_csv)
from nmoe.numerics import params_digest
from oracles import (dense_centralized_step, per_client_fedavg_classifier,
                     per_client_local_classifiers, per_expert_centralized_moe,
                     same_bits)
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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())


def openblas_core() -> str | None:
    """The core numpy's bundled OpenBLAS picked at run time, or None
    when numpy carries no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_workloads_reproduce_recorded_digests(workload, tmp_path,
                                                        monkeypatch):
    """Config seed 0 of each benchmark workload writes results.json,
    model.json and training_log.jsonl with the digests the benchmark
    checks every run against. A row's bits depend on the BLAS kernel
    (ROADMAP, "Bitwise constraint"), so the digests hold on the core
    they were recorded on."""
    core = openblas_core()
    if core != "SkylakeX":
        pytest.skip(f"reference digests hold on OpenBLAS core SkylakeX, "
                    f"this numpy runs {core}")
    spec = WORKLOADS[workload]
    # results.json echoes output_dir, so the run writes where the
    # benchmark's does, relative to its working directory
    monkeypatch.chdir(tmp_path)
    run_pipeline(config_from_dict({**spec["config"], "seed": 0,
                                   "output_dir": "artifacts"}),
                 with_baselines=spec["with_baselines"])
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for name in ("results.json", "model.json", "training_log.jsonl"):
        digest = hashlib.sha256(
            (tmp_path / "artifacts" / name).read_bytes()).hexdigest()
        assert digest == reference[workload]["0"][name], name


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


def usable_cpus(monkeypatch, two):
    """Make the package see two usable CPUs, so the centralized mixture
    trains in a forked child whatever this host has, or one, under which
    nothing may fork."""
    def fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(federated, "_two_cpus", lambda: two)
    if not two:
        monkeypatch.setattr(os, "fork", fork)


def baselines_match_in_process_bits():
    # the centralized mixture trains in a forked child, beside the
    # pipeline's stages or the classifier baselines, or here; its entry
    # must carry the bits of the same computation run in this process
    config = small_config()
    shards = build_shards(config)
    baselines = run_baselines(config, shards)
    assert run_pipeline(config, with_baselines=True).baselines == baselines
    assert baselines["centralized_moe"] == _centralized_entry(
        config, shards, *train_stack(shards))


def sleeping_child(monkeypatch):
    """Make the forked child sleep for 30 s instead of training, so a
    parent that waited for it rather than killing it would show; the
    autouse fixture of conftest.py checks that it was reaped."""
    monkeypatch.setattr(pipeline, "_centralized_entry",
                        lambda *args: time.sleep(30))


def stage_failure_kills_the_baselines_child(monkeypatch):
    sleeping_child(monkeypatch)
    config = divergence_config(stage1={"method": "fedce"})
    real = pipeline.build_shards
    monkeypatch.setattr(pipeline, "build_shards",
                        lambda c: scale_train(real(c), {1: 1e200}))
    start = time.perf_counter()
    with pytest.raises(TrainingError, match=r"^client 1 loss became "
                       r"non-finite in stage1_fedce round 0$"), \
            np.errstate(over="ignore", invalid="ignore"):
        run_pipeline(config, with_baselines=True)
    assert time.perf_counter() - start < 15


def interrupt_kills_the_baselines_child(monkeypatch):
    sleeping_child(monkeypatch)

    def interrupted(config, features, labels):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_run_stage1", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(small_config(), with_baselines=True)
    assert time.perf_counter() - start < 15


def test_forked_baselines_match_in_process_bits(monkeypatch):
    usable_cpus(monkeypatch, True)
    baselines_match_in_process_bits()


def test_stage_failure_kills_the_baselines_child(monkeypatch):
    usable_cpus(monkeypatch, True)
    stage_failure_kills_the_baselines_child(monkeypatch)


def test_interrupt_kills_the_baselines_child(monkeypatch):
    usable_cpus(monkeypatch, True)
    interrupt_kills_the_baselines_child(monkeypatch)


def test_baselines_child_that_dies_is_an_internal_error(monkeypatch):
    usable_cpus(monkeypatch, True)
    monkeypatch.setattr(pipeline, "_centralized_entry",
                        lambda *args: os._exit(3))
    with pytest.raises(InternalError, match=r"^the centralized-mixture "
                       r"child ended with code 3$"):
        run_baselines(small_config())


def test_baselines_on_one_cpu_train_in_process(monkeypatch):
    # the child tests above, with no child: the centralized mixture
    # trains here when its entry is asked for, with the same bits, and
    # not at all (no 30 s sleep) when a stage fails or an interrupt
    # comes first
    usable_cpus(monkeypatch, False)
    baselines_match_in_process_bits()
    stage_failure_kills_the_baselines_child(monkeypatch)
    interrupt_kills_the_baselines_child(monkeypatch)


def test_import_loads_no_process_machinery():
    # forking costs nmoe no import: a fresh interpreter's setup time
    # stays where it was
    heavy = ("multiprocessing", "concurrent.futures", "signal",
             "subprocess", "selectors")
    code = ("import sys, nmoe.pipeline; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "[]"


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
    _, reports = train_fedavg_classifier(config, *train_stack(shards))
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


# at 64-row batches a lone 65-row shard, or five 13-row ones, leave the
# pooled set a one-row last batch
@pytest.mark.parametrize("sizes", [(60,), (13,), (65,)])
@pytest.mark.parametrize("num_clients,k", [(1, 1), (2, 1), (2, 2), (5, 1),
                                           (5, 2), (5, 5)])
def test_centralized_moe_matches_per_expert_loop(num_clients, k, sizes):
    config = small_config(
        data={"num_clients": num_clients, "train_per_client": 65},
        model={"fe_activations": ["relu", "tanh"]}, k=k)
    shards = trimmed_shards(config, sizes)
    model, losses = train_centralized_moe(config, *train_stack(shards))
    expected_model, expected_losses = per_expert_centralized_moe(config,
                                                                 shards)
    assert model_digests(model) == model_digests(expected_model)
    assert losses == expected_losses


# two-layer experts send the upstream, zero but at each row's picks,
# through a hidden layer: the sign of an exact-zero gradient there is
# what a sparse upstream could get wrong
@pytest.mark.parametrize("sizes", [(45,), (13,)])
@pytest.mark.parametrize("num_clients,k", [(2, 1), (2, 2), (5, 1), (5, 2),
                                           (5, 5)])
@pytest.mark.parametrize("hidden", ["relu", "tanh", "identity"])
def test_centralized_moe_with_two_layer_experts_matches_per_expert_loop(
        hidden, num_clients, k, sizes):
    config = small_config(
        data={"num_clients": num_clients, "train_per_client": 65},
        model={"fe_activations": ["relu", "tanh"],
               "expert_widths": [32, 16, 10],
               "expert_activations": [hidden, "identity"]}, k=k)
    shards = trimmed_shards(config, sizes)
    model, losses = train_centralized_moe(config, *train_stack(shards))
    expected_model, expected_losses = per_expert_centralized_moe(config,
                                                                 shards)
    assert model_digests(model) == model_digests(expected_model)
    assert losses == expected_losses


def test_centralized_step_matches_the_dense_step_batch_by_batch():
    # supervised-k2's mixture: m = 10 experts and k = 2 over 5000 pooled
    # rows, 78 full batches of 64 and a last batch of 8. After every
    # batch the flat buffer holds the dense step's parameters, the losses
    # have the same bits and the two streams the same state, so the next
    # draw of each is the same.
    config = config_from_dict({"config_version": 1, "seed": 0, "k": 2,
                               "stage1": {"method": "fedce"},
                               "stage3": {"method": "rollgate"}})
    features, labels = train_stack(build_shards(config))
    features = features.reshape(-1, features.shape[-1])
    labels = labels.reshape(-1)
    n, size = len(labels), config.batch_size
    assert (n // size, n % size) == (78, 8)
    flat, fe, gate, experts = pipeline._centralized_params(config)
    _, *params = pipeline._centralized_params(config)
    streams = [derive_rng(config.seed, seeding.BASELINE,
                          pipeline._BASE_CENTRAL_TRAIN, 0) for _ in range(2)]
    step = pipeline._centralized_step(config, features, labels, fe, gate,
                                      experts, streams[0])
    dense_step = dense_centralized_step(config, features, labels, streams[1])
    order = streams[0].permutation(n)
    assert np.array_equal(order, streams[1].permutation(n))
    for start in range(0, n, size):
        rows = order[start:start + size]
        flat, loss = step(flat, rows, 0)
        params, dense_loss = dense_step(params, rows, 0)
        assert same_bits(flat, np.concatenate(
            [p.flat.reshape(-1) for p in params]))
        assert loss.hex() == dense_loss.hex()
        assert streams[0].bit_generator.state == \
            streams[1].bit_generator.state


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
    params, losses = train_local_classifiers(config, *train_stack(shards))
    expected_params, expected_losses = per_client_local_classifiers(config,
                                                                    shards)
    assert list(params) == list(expected_params)
    assert [params_digest(p) for p in params.values()] == \
        [params_digest(p) for p in expected_params.values()]
    assert losses == expected_losses


def test_local_classifiers_reject_unequal_train_shards():
    # the baselines stack the shards once, for both classifiers and the
    # centralized mixture, before the mixture's child starts
    config = small_config(data={"num_clients": 3, "train_per_client": 60})
    with pytest.raises(DataError, match=r"^train shards must share one "
                       r"size, got \[45, 60\]$"):
        run_baselines(config, trimmed_shards(config, (60, 45)))


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
        train_fedavg_classifier(config, *train_stack(shards))


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
            train_centralized_moe(config, *train_stack(shards))

    def test_centralized_moe_blow_up_is_a_divergence(self):
        # under the default clip a 1e200 scale turns the gate
        # probabilities to NaN inside epoch 0, before any loss is summed;
        # that is a divergence, not a malformed probability row
        config = divergence_config()
        shards = scale_train(build_shards(config), {1: 1e200})
        with pytest.raises(TrainingError, match=r"^client 0 loss became "
                           r"non-finite in baseline_centralized_moe "
                           r"round 0$"):
            train_centralized_moe(config, *train_stack(shards))

    def test_local_classifier_names_client_and_first_bad_epoch(self):
        # the clipped centralized mixture survives the scale, the
        # unclipped local classifier of client 1 overflows in epoch 2
        config = divergence_config()
        shards = scale_train(build_shards(config), {1: 1e50})
        with pytest.raises(TrainingError, match=r"^client 1 loss became "
                           r"non-finite in baseline_local_classifier "
                           r"round 2$"):
            run_baselines(config, shards)

    def centralized_moe_error_wins_over_the_local_classifier(self):
        # both diverge; a sequential run trained the centralized mixture
        # first, so its error is the one raised
        config = divergence_config()
        shards = scale_train(build_shards(config), {1: 1e200})
        with pytest.raises(TrainingError, match=r"^client 1 .* "
                           r"baseline_local_classifier round 1$"):
            train_local_classifiers(config, *train_stack(shards))
        with pytest.raises(TrainingError, match=r"^client 0 loss became "
                           r"non-finite in baseline_centralized_moe "
                           r"round 0$"):
            run_baselines(config, shards)

    def train_cli_reports_the_child_divergence(self, tmp_path, monkeypatch,
                                               capsys):
        # only the centralized mixture sees the scaled shard, and it
        # trains in the forked child, or here on one CPU
        real = pipeline.train_centralized_moe
        scale = np.array([1.0, 1e200, 1.0])[:, None, None]
        monkeypatch.setattr(
            pipeline, "train_centralized_moe",
            lambda config, features, labels: real(config, features * scale,
                                                  labels))
        cfg_file = tmp_path / "cfg.json"
        save_config(divergence_config(), cfg_file)
        out = tmp_path / "run"
        assert main(["train", str(cfg_file), str(out), "--baselines"]) == 5
        marker = json.loads((out / "FAILED").read_text())
        assert marker == {"stage": "baselines", "category": "training",
                          "message": "client 0 loss became non-finite in "
                          "baseline_centralized_moe round 0"}
        assert "error (training): client 0 loss became non-finite in " \
            "baseline_centralized_moe round 0" in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_centralized_moe_error_wins_over_the_local_classifier(
            self, monkeypatch):
        usable_cpus(monkeypatch, True)
        self.centralized_moe_error_wins_over_the_local_classifier()

    def test_train_cli_reports_the_child_divergence(self, tmp_path,
                                                     monkeypatch, capsys):
        usable_cpus(monkeypatch, True)
        self.train_cli_reports_the_child_divergence(tmp_path, monkeypatch,
                                                    capsys)

    def test_child_tests_hold_on_one_cpu(self, tmp_path, monkeypatch,
                                         capsys):
        usable_cpus(monkeypatch, False)
        self.centralized_moe_error_wins_over_the_local_classifier()
        self.train_cli_reports_the_child_divergence(tmp_path, monkeypatch,
                                                    capsys)

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
    rows = run_ablation(small_config(), "data.num_clients", [5, 10])
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0]["config_hash"] != rows[1]["config_hash"]


SWEEP_AXES = ("num_clients", "k", "tau")


def per_axis_sweep_config(config: RunConfig, axis: str, value) -> RunConfig:
    """The sweep's derived config as the three-axis table built it
    before any config key could be swept; kept as the oracle."""
    if axis == "k":
        return replace(config, output_dir=None, k=value)
    if axis in ("num_clients", "tau"):
        return replace(config, output_dir=None,
                       data=replace(config.data, **{axis: value}))
    raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, "
                      f"got {axis!r}")


@pytest.mark.parametrize("key,value,axis,old_value", [
    ("k", 1, "k", 1), ("k", 2, "k", 2),
    ("data.num_clients", 5, "num_clients", 5),
    ("data.num_clients", 10, "num_clients", 10),
    ("data.tau", 0.5, "tau", 0.5),
    # the per-axis CLI parsed every tau value as a float
    ("data.tau", 1, "tau", 1.0), ("data.tau", 1.0, "tau", 1.0),
])
def test_sweep_config_matches_the_per_axis_config(monkeypatch, key, value,
                                                  axis, old_value):
    base = replace(small_config(), output_dir="/elsewhere")
    expected = per_axis_sweep_config(base, axis, old_value)
    derived = with_key(base, key, value)
    assert derived == expected
    assert config_hash(derived) == config_hash(expected)
    assert derived.to_dict() == expected.to_dict()
    seen = []

    def record(config):
        seen.append(config)
        raise ConfigError("recorded")

    monkeypatch.setattr(pipeline, "run_pipeline", record)
    [row] = run_ablation(base, key, [value])
    assert seen == [expected]
    assert row["config_hash"] == config_hash(expected)


def test_sweep_over_the_stage3_method():
    methods = ["rangate", "rollgate", "fedgate"]
    rows = run_ablation(small_config(), "stage3.method", methods)
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert len({r["config_hash"] for r in rows}) == 3
    for row, method in zip(rows, methods):
        doc = small_doc()
        # the fedgate-only keys of the base document go with its method
        doc["stage3"] = {"method": method} if method != "fedgate" \
            else dict(doc["stage3"], method=method)
        assert row["config_hash"] == config_hash(config_from_dict(doc))


def test_sweep_of_an_idle_key_fails_each_point_naming_the_selector():
    base = small_config(stage3={"method": "rollgate"})
    rows = run_ablation(base, "stage3.rounds", [5, 6])
    assert [r["status"] for r in rows] == ["failed"] * 2
    for row in rows:
        assert row["error"] == (
            "config: stage3.rounds only applies to the 'fedgate' method, "
            "but stage3.method is 'rollgate'")


@pytest.mark.parametrize("axis", ["lr", "data", "output_dir", "config_version",
                                  "stage3.method.x", "stage9.lr"])
def test_sweep_rejects_a_non_key_before_any_run(monkeypatch, axis):
    def never(config):
        raise AssertionError("run_pipeline ran")

    monkeypatch.setattr(pipeline, "run_pipeline", never)
    with pytest.raises(ConfigError, match=rf"^sweep axis .+ got '{axis}'$"):
        run_ablation(small_config(), axis, [1])


def test_sweep_csv_layout(tmp_path):
    rows = run_ablation(small_config(), "k", [99, 1])
    # grid values are written as given, however small
    rows += [dict(rows[1], axis="stage3.lr", value=v) for v in (1e-7, 2e-7)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    header, failed, ok, tiny, tinier = path.read_text().splitlines()
    assert header.startswith("axis,value,status,config_hash")
    assert failed.startswith("k,99,failed,")
    assert ok.startswith("k,1,ok,")
    acc_field = ok.split(",")[4]
    assert len(acc_field.split(".")[1]) == 6
    assert float(tiny.split(",")[1]) == 1e-7
    assert float(tinier.split(",")[1]) == 2e-7
    assert tiny.split(",")[4] == acc_field


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
