"""The benchmark's per-layer metrics and stage times read the spans of
named package functions. Renaming or removing such a function fails a
traced benchmark run; these checks fail it in the test suite instead.
So does a change to the package API the benchmark worker calls."""

import json
import sys
from pathlib import Path

from nmoe import pipeline

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_every_metric_span_names_a_package_function():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    names = [metric["name"] for metric in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    rep = {"error": None, "run_s": 1.0, "infer_samples": 1, "infer_s": [1.0],
           "local_ratio": 1.0, "pooled_accuracy": 1.0,
           "client_mean_macro_f1": 1.0, "stage1_round_ms": [],
           "stage3_round_ms": []}
    report = {"traced": {"run_s": 1.0},
              "layers": {"spans": {}, "wrapped": sorted(tracer.wrapped),
                         "stages": dict.fromkeys(worker.STAGES, 0.0)}}
    _, problems = run.per_layer_metrics(names, [rep], report)
    assert problems == []
    assert set(worker.STAGE_OF) <= tracer.wrapped


TINY = {"config_version": 1, "k": 2,
        "data": {"num_clients": 3, "num_classes": 3, "samples_per_class": 60,
                 "train_per_client": 30, "test_per_client": 10},
        "model": {"expert_widths": [32, 3]},
        "stage1": {"method": "fedce", "rounds": 2, "local_epochs": 1},
        "stage2": {"epochs": 1},
        "stage3": {"method": "rollgate", "epochs_per_client": 1,
                   "max_passes": 2},
        "baselines": {"epochs": 1}}


def test_worker_runs_and_checks_a_tiny_workload(tmp_path, monkeypatch):
    # the benchmark worker's own calls into the package: a drift in the
    # API it uses fails here, not only when the benchmark runs
    spec = {"config": TINY, "with_baselines": True}
    rep = worker.run_rep(spec, 0, tmp_path, infer=False)
    assert rep["error"] is None and rep["problems"] == []
    assert rep["rows"] > 0 and rep["inference_bytes"] > 0
    config = worker.workload_config(spec, 0)
    monkeypatch.chdir(tmp_path)
    result = pipeline.run_pipeline(config, with_baselines=True)
    times, samples, failed = worker.infer_passes(config, result, 0.0)
    assert len(times) == 1 and samples == 3 * 10 and failed == 0
