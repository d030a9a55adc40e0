"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import run
from tracer import PARAMSET_INIT, Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == pytest.approx(4.6)
    xs = list(np.random.default_rng(0).normal(size=37))
    for q in (10, 25, 50, 90, 99):
        assert measure.percentile(xs, q) == pytest.approx(
            float(np.percentile(xs, q)))
    assert measure.percentile([7.0], 90) == 7.0
    assert measure.percentile(xs, 50) == pytest.approx(statistics.median(xs))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 100] > 1 [10, 60] > 2 [20, 30]; 0 > 3 [70, 90]; 4 is a root
    parents = [-1, 0, 1, 0, -1]
    durations = [100, 50, 10, 20, 5]
    assert measure.self_times(parents, durations) == [30, 40, 10, 20, 5]
    # self times of one tree add up to its root's duration
    assert sum(measure.self_times(parents, durations)[:4]) == 100


def test_summarize_and_child_durations_group_by_name():
    names = ["run", "fwd", "dense", "fwd", "dense"]
    parents = [-1, 0, 1, 0, 3]
    durations = [100, 40, 30, 20, 15]
    summary = measure.summarize_spans(names, parents, durations)
    assert summary == {"run": {"calls": 1, "self": 40},
                       "fwd": {"calls": 2, "self": 15},
                       "dense": {"calls": 2, "self": 45}}
    assert measure.child_durations(names, parents, durations, "run") == \
        {"fwd": 60}


def _record(counts, stage_bytes, inference, latent=32, classes=10, bps=4):
    return {
        "config": {"bytes_per_scalar": bps,
                   "model": {"fe_widths": [16, latent],
                             "expert_widths": [latent, classes]}},
        "stages": {name: [{"bytes_sent": b} for b in sent]
                   for name, sent in stage_bytes.items()},
        "bytes": {**{name: sum(sent) for name, sent in stage_bytes.items()},
                  "inference": inference},
        "routing": {"counts": counts},
    }


def test_byte_recounts_match_a_consistent_record():
    counts = [[5, 2, 0], [1, 7, 3], [0, 0, 9]]  # 6 remote decisions
    stage_bytes = {"stage1": [100, 100], "stage2": [0], "stage3": [50, 7]}
    record = _record(counts, stage_bytes, 6 * (32 + 10) * 4)
    assert measure.recount_train_bytes(record) == 257
    assert measure.recount_inference_bytes(record) == 6 * 42 * 4
    assert measure.record_problems(record) == []


def test_byte_recounts_flag_inconsistent_records():
    counts = [[5, 2], [1, 7]]
    record = _record(counts, {"stage1": [10], "stage2": [0],
                              "stage3": [5]}, 3 * 42 * 4 + 1)
    record["bytes"]["stage3"] += 1
    problems = measure.record_problems(record)
    assert len(problems) == 2
    assert problems[0].startswith("train bytes")
    assert problems[1].startswith("inference bytes")


def test_tracer_wraps_every_binding_and_restores_them():
    from nmoe import federated, moe, numerics, pipeline
    original = numerics.forward
    tracer = Tracer()
    tracer.install()
    try:
        for module in (numerics, federated, moe, pipeline):
            assert module.forward is not original
            assert module.forward.__wrapped__ is original
        spec = numerics.MlpSpec((3, 2), (0,))
        params = numerics.init_mlp_params(spec, np.random.default_rng(0))
        out = pipeline.forward(spec, params, np.ones((4, 3)))
    finally:
        tracer.uninstall()
    for module in (numerics, federated, moe, pipeline):
        assert module.forward is original
    assert out.shape == (4, 2)
    assert {"numerics.forward", "pipeline.run_pipeline",
            PARAMSET_INIT} <= tracer.wrapped
    assert tracer.names == ["numerics.init_mlp_params", PARAMSET_INIT,
                            "numerics.forward", "kernels.dense_forward"]
    assert tracer.parents == [-1, 0, -1, 2]
    assert all(d >= 0 for d in tracer.durations())


def _traced_report(spans, wrapped):
    rep = {"error": None, "run_s": 2.0, "infer_samples": 100,
           "infer_s": [0.5], "local_ratio": 0.5, "pooled_accuracy": 0.6,
           "client_mean_macro_f1": 0.4, "stage1_round_ms": [1.0, 3.0],
           "stage3_round_ms": []}
    report = {"traced": {"run_s": 2.5},
              "layers": {"spans": spans, "wrapped": wrapped,
                         "stages": {"data": 0.1}}}
    return [rep], report


def test_per_layer_metrics_tell_uncalled_from_missing_spans():
    names = ["moe.gate_topk_calls", "federated.spectral_loss_s",
             "numerics.paramset_inits", "pipeline.data_s",
             "netsim.infer_samples_per_s", "trace.overhead_s"]
    spans = {"numerics.ParamSet.__init__": {"calls": 7, "self_s": 0.1}}
    wrapped = ["moe.gate_topk", "federated.spectral_contrastive_local_loss",
               "numerics.ParamSet.__init__"]
    reps, report = _traced_report(spans, wrapped)
    values, problems = run.per_layer_metrics(names, reps, report)
    assert problems == []
    assert values["moe.gate_topk_calls"] == 0
    assert values["numerics.paramset_inits"] == 7
    assert values["netsim.infer_samples_per_s"] == 200.0
    assert values["trace.overhead_s"] == 0.5
    assert values["numerics.self_s"] == 0.1
    assert values["federated.stage1_round_ms_p50"] == 2.0

    reps, report = _traced_report(spans, wrapped[1:])
    values, problems = run.per_layer_metrics(names, reps, report)
    assert values["moe.gate_topk_calls"] == 0
    assert len(problems) == 1 and "moe.gate_topk" in problems[0]
