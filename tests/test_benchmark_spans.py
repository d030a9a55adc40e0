"""The benchmark's per-layer metrics and stage times read the spans of
named package functions. Renaming or removing such a function fails a
traced benchmark run; these checks fail it in the test suite instead."""

import json
import sys
from pathlib import Path

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
