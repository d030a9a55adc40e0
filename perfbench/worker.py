"""Run one workload's pipeline repetitions in this process and print a
JSON report as the last line of standard output.

run.py starts this file in a fresh interpreter for every benchmark run,
so the process peak RSS belongs to that workload alone. Each repetition
goes through nmoe's public functions only: config_from_dict and
run_pipeline (artifacts written to a throwaway directory, as
`nmoe train` does). After the first run of each seed, build_shards,
simulate_inference and evaluate_clients re-route the test samples for
the inference throughput. With --trace 1 one more repetition of the
first seed runs under the span tracer.

    python3 perfbench/worker.py --workload ref-m10 --seeds 0,1 \
        --seconds 10 --trace 0 --scratch DIR [--spans FILE] [--infer 1]
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import measure
from tracer import Tracer

# called through their modules, so the tracer's rebinding reaches them
from nmoe import metrics, netsim, pipeline, seeding
from nmoe.config import config_from_dict
from nmoe.errors import NmoeError

WORKLOADS = Path(__file__).resolve().parent / "workloads.json"

# Inference passes after a seed's first run take at least this long, so
# the throughput median rests on dozens of passes.
INFER_SECONDS = 4.0

# Direct children of run_pipeline, by the stage of the run they are.
# Whatever run_pipeline spends outside these is artifact writing.
STAGE_OF = {
    "pipeline.build_shards": "data",
    "federated.stage1_fedsc": "stage1",
    "federated.stage1_fedce": "stage1",
    "federated.stage2_experts": "stage2",
    "moe.init_gate_params": "stage3",
    "federated.stage3_fedgate": "stage3",
    "federated.stage3_rollgate": "stage3",
    "federated.stage3_rangate": "stage3",
    "netsim.simulate_inference": "inference",
    "metrics.evaluate_clients": "metrics",
    "pipeline.run_baselines": "baselines",
}
STAGES = ("data", "stage1", "stage2", "stage3", "inference", "metrics",
          "baselines", "artifacts")


def load_workloads() -> dict:
    return json.loads(WORKLOADS.read_text())


def workload_config(spec: dict, seed: int):
    raw = copy.deepcopy(spec["config"])
    raw.update(seed=seed, output_dir="artifacts")
    return config_from_dict(raw)


def train_rows(config, result) -> int:
    """Rows fed to SGD steps during one run_pipeline, from the config
    and the round reports (FedSC's two views of a row count once)."""
    n = config.data.train_per_client
    m = config.data.num_clients
    rows = sum(len(r.participants) for r in result.stage1.reports) \
        * n * config.stage1.local_epochs
    rows += sum(len(r.participants) for r in result.stage2.reports) * n
    s3 = config.stage3
    epochs3 = {"fedgate": s3.local_epochs, "rollgate": s3.epochs_per_client,
               "rangate": 0}[s3.method]
    rows += sum(len(r.participants) for r in result.stage3.reports) \
        * n * epochs3
    if result.baselines is not None:
        # centralized mixture and local classifiers: baselines.epochs over
        # all rows each; FedAvg classifier: the stage-1 schedule
        rows += 2 * m * n * config.baselines.epochs
        rows += config.stage1.rounds * m * n * config.stage1.local_epochs
    return rows


def infer_passes(config, result, deadline: float) -> tuple[list, int, int]:
    """Re-route every test sample through the returned model until the
    deadline; returns (pass seconds, samples per pass, failed passes)."""
    shards = pipeline.build_shards(config)
    cost = netsim.CostModel(latent_dim=config.model.latent_dim,
                     num_classes=config.data.num_classes,
                     bytes_per_scalar=config.bytes_per_scalar)
    expected = result.evaluation.as_dict()
    times, failed = [], 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < deadline:
        t0 = time.perf_counter()
        inference = netsim.simulate_inference(
            result.model, shards, config.k, cost,
            rng=seeding.derive_rng(config.seed, seeding.EVAL, 0, 0))
        evaluation = metrics.evaluate_clients(
            inference.predictions, inference.scores, inference.labels,
            config.data.num_classes)
        times.append(time.perf_counter() - t0)
        if not np.array_equal(inference.log.counts, result.routing.counts) \
                or evaluation.as_dict() != expected:
            failed += 1
    return times, sum(s.test.num_samples for s in shards), failed


def run_rep(spec: dict, seed: int, scratch: Path, *, infer: bool,
            tracer: Tracer | None = None) -> dict:
    """One run_pipeline of the workload at this config seed, checked."""
    rep: dict = {"seed": seed, "error": None, "problems": []}
    config = workload_config(spec, seed)
    workdir = tempfile.mkdtemp(dir=scratch)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = pipeline.run_pipeline(
                config, with_baselines=spec["with_baselines"])
            rep["run_s"] = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        rep["digests"] = measure.file_digests("artifacts")
        record = json.loads(Path("artifacts/results.json").read_text())
        rep["problems"] += measure.record_problems(record)
        reports = [r for stage in (result.stage1, result.stage2,
                                   result.stage3) for r in stage.reports]
        if sum(r.bytes_sent for r in reports) != \
                measure.recount_train_bytes(record):
            rep["problems"].append("returned reports disagree with "
                                   "results.json on bytes_sent")
        rep.update(
            train_bytes=measure.recount_train_bytes(record),
            inference_bytes=record["bytes"]["inference"],
            pooled_accuracy=record["evaluation"]["pooled"]["accuracy"],
            client_mean_macro_f1=record["evaluation"]["client_mean"]
            ["macro_f1"],
            local_ratio=record["routing"]["local_ratio"],
            rows=train_rows(config, result),
            stage1_round_ms=[1e3 * r.wall_clock
                             for r in result.stage1.reports],
            stage3_round_ms=[1e3 * r.wall_clock
                             for r in result.stage3.reports])
        if infer:
            rep["infer_s"], rep["infer_samples"], rep["infer_failed"] = \
                infer_passes(config, result, INFER_SECONDS)
    except NmoeError as exc:
        rep["error"] = f"{exc.category}: {exc}"
    finally:
        os.chdir(home)
        shutil.rmtree(workdir)
    return rep


def layer_summary(tracer: Tracer) -> dict:
    """Calls and self seconds per span name, plus run_pipeline's split
    into stages (inclusive seconds)."""
    durations = tracer.durations()
    summary = measure.summarize_spans(tracer.names, tracer.parents,
                                      durations)
    spans = {name: {"calls": v["calls"], "self_s": v["self"] / 1e9}
             for name, v in summary.items()}
    children = measure.child_durations(tracer.names, tracer.parents,
                                       durations, "pipeline.run_pipeline")
    total = sum(d for name, d in zip(tracer.names, durations)
                if name == "pipeline.run_pipeline")
    stages = dict.fromkeys(STAGES, 0.0)
    for name, ns in children.items():
        if name in STAGE_OF:
            stages[STAGE_OF[name]] += ns / 1e9
    stages["artifacts"] = total / 1e9 - sum(stages.values())
    return {"spans": spans, "stages": stages,
            "wrapped": sorted(tracer.wrapped)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated config seeds, run in order")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", help="where the traced run's spans go")
    parser.add_argument("--infer", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    spec = load_workloads()[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    scratch = Path(args.scratch)
    reps = []
    start = time.perf_counter()
    while len(reps) < len(seeds) or \
            time.perf_counter() - start < args.seconds:
        first = len(reps) < len(seeds)
        reps.append(run_rep(spec, seeds[len(reps) % len(seeds)], scratch,
                            infer=first and bool(args.infer)))
    report = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": np.__version__,
    }
    if args.trace:
        tracer = Tracer()
        report["traced"] = run_rep(spec, seeds[0], scratch, infer=False,
                                   tracer=tracer)
        report["layers"] = layer_summary(tracer)
        if args.spans:
            tracer.write_tsv(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
