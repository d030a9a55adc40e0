"""End-to-end and per-layer benchmark of the nmoe pipeline.

    python3 perfbench/run.py --workload ref-m10 --seed 0 [--seconds 20] \
        [--trace 0]

Run from the repository root (any directory holding BENCHMARK.json,
perfbench/ and src/nmoe works). --workload all runs every workload in
turn. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list, each with the unit given there.

How a run goes:
  * The config's seed is the workload seed modulo the size of the
    workload's reference table (perfbench/reference.json, written by
    record_reference.py); every pipeline run is checked against the
    digests recorded there for that config seed.
  * setup_s: median of SETUP_PROBES fresh interpreters, each timing
    `import nmoe.pipeline` through a validated config and build_shards.
  * One fresh worker process (perfbench/worker.py) repeats run_pipeline
    until --seconds have passed; run_s is the median, peak_rss_mb that
    process's ru_maxrss. The run's results (bytes, accuracy, F1, local
    ratio) are exact for the config seed, so the digests guard them.
  * --trace 1 then runs the pipeline once more, traced, in the same
    worker: the per-layer metrics come from the traced run's spans
    (self time = a span's duration minus its children's),
    trace.overhead_s is its run time minus the untraced median, and the
    round-latency percentiles come from the untraced runs'
    FedRoundReport.wall_clock. A per-layer metric whose function the
    tracer did not find fails the traced run. The spans are written to
    .perfbench_out/<workload>.spans.tsv.

An operation is one pipeline run or one inference pass. It fails when
it raises NmoeError, when its artifact digests differ from the
reference, when the recounted training or inference bytes disagree
with the record, or when a re-run inference pass differs from the
pipeline's own. The traced run also fails when its digests differ from
the untraced runs'.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
# The matrices are at most a few thousand rows by 40 columns: on a
# 2-vCPU x86 VM a second BLAS thread measured no faster, and one thread
# keeps timings and digests independent of the machine's core count.
BLAS_THREADS = 1
RUN_DEADLINE_S = 175.0


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # the numpy kernels: the reference digests were recorded on them, and
    # the tracer wraps only plain Python functions
    env["NMOE_NUMBA"] = "0"
    return env


def run_setup_probes(config: dict, env: dict) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             json.dumps(config)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_worker(workload: str, seeds: list, seconds: float, trace: int,
               scratch: Path, spans: Path | None, env: dict, *,
               infer: int = 1, timeout: float = RUN_DEADLINE_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(scratch),
           "--infer", str(infer)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_rep(rep: dict, reference: dict) -> list:
    """Everything wrong with one pipeline run; empty when it passed."""
    if rep["error"] is not None:
        return [rep["error"]]
    problems = list(rep["problems"])
    expected = reference.get(str(rep["seed"]))
    if expected is None:
        problems.append(f"no reference digests for config seed "
                        f"{rep['seed']}")
    else:
        for name in measure.ARTIFACTS:
            if rep["digests"][name] != expected[name]:
                problems.append(f"{name} digest differs from the "
                                f"reference for config seed {rep['seed']}")
    return problems


OUTCOMES = ("pooled_accuracy", "client_mean_macro_f1", "train_bytes",
            "inference_bytes", "local_ratio")


def infer_throughput(rep: dict) -> float:
    """Test samples per second through simulate_inference plus
    evaluate_clients, at the median pass time."""
    return rep["infer_samples"] / statistics.median(rep["infer_s"])


def end_to_end_metrics(reps: list, setup: list, peak_rss_mb: float) -> dict:
    ok = [r for r in reps if r["error"] is None]
    return {
        "run_s": statistics.median(r["run_s"] for r in ok),
        "setup_s": statistics.median(setup),
        "train_samples_per_s": statistics.median(r["rows"] / r["run_s"]
                                                 for r in ok),
        "infer_samples_per_s": infer_throughput(reps[0]),
        "peak_rss_mb": peak_rss_mb,
        **{key: reps[0][key] for key in OUTCOMES},
    }


# Printed with the end-to-end metrics but left out of the result: their
# spread over ten runs exceeds the largest bound the contract allows.
# Accuracy and F1 vary with the config seed (they are exact per seed, so
# the digests guard them); inference throughput drifts with the speed of
# a shared machine. --trace 1 reports all three among the per-layer
# metrics.
UNBOUNDED = {"infer_samples_per_s": "1/s", "pooled_accuracy": "fraction",
             "client_mean_macro_f1": "fraction"}

# per-layer metric stems whose span has another name
SPAN_OF = {
    "numerics.paramset_init": "numerics.ParamSet.__init__",
    "federated.spectral_loss": "federated.spectral_contrastive_local_loss",
    "federated.correlation_share": "federated.compute_correlation_share",
    "datasets.partition": "datasets.partition_noniid",
}


def per_layer_metrics(names: list, reps: list, report: dict) -> tuple:
    """(values, problems): every per-layer metric, and a problem for each
    one whose span the tracer did not find."""
    ok = [r for r in reps if r["error"] is None]
    layers = report["layers"]
    spans = layers["spans"]
    values = {f"pipeline.{stage}_s": seconds
              for stage, seconds in layers["stages"].items()}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v["self_s"] for n, v in spans.items() if n.startswith(layer + "."))
    for stage in ("stage1", "stage3"):
        rounds = [ms for r in ok for ms in r[f"{stage}_round_ms"]]
        values[f"federated.{stage}_round_ms_p50"] = \
            measure.percentile(rounds, 50) if rounds else 0.0
        values[f"federated.{stage}_round_ms_p90"] = \
            measure.percentile(rounds, 90) if rounds else 0.0
    values["netsim.infer_samples_per_s"] = infer_throughput(reps[0])
    values["netsim.local_ratio"] = reps[0]["local_ratio"]
    values["metrics.pooled_accuracy"] = reps[0]["pooled_accuracy"]
    values["metrics.client_mean_macro_f1"] = \
        reps[0]["client_mean_macro_f1"]
    values["trace.overhead_s"] = report["traced"]["run_s"] - \
        statistics.median(r["run_s"] for r in ok)

    # the rest are <layer>.<function>_calls and _s: call count and self
    # seconds of one span; 0 when the function was wrapped but not called
    wrapped = set(layers["wrapped"])
    problems = []
    for name in names:
        if name in values:
            continue
        if name == "numerics.paramset_inits":
            stem, field = "numerics.paramset_init", "calls"
        elif name.endswith("_calls"):
            stem, field = name[:-len("_calls")], "calls"
        elif name.endswith("_s"):
            stem, field = name[:-len("_s")], "self_s"
        else:
            raise ValueError(f"no rule computes per-layer metric {name}")
        span = SPAN_OF.get(stem, stem)
        if span not in wrapped:
            problems.append(f"{name}: the tracer found no function {span}")
        values[name] = spans.get(span, {}).get(field, 0)
    return values, problems


def run_one(args, bench: dict, spec: dict, reference: dict) -> dict:
    """One workload, one benchmark run; returns the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    seed = args.seed % len(reference)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT))
    try:
        setup = [] if args.trace else run_setup_probes(
            dict(spec["config"], seed=seed), env)
        report = run_worker(args.workload, [seed], args.seconds, args.trace,
                            scratch, OUT / f"{args.workload}.spans.tsv"
                            if args.trace else None, env,
                            timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reps = report["reps"]
    attempted = failed = 0
    problems = []
    for rep in reps:
        attempted += 1 + len(rep.get("infer_s", ()))
        failed += rep.get("infer_failed", 0)
        wrong = check_rep(rep, reference)
        failed += bool(wrong)
        problems += wrong
    # a run that raised has no timings; the same config seed raises on
    # every repetition, so the first one decides
    if reps[0]["error"] is not None:
        raise RuntimeError("the pipeline failed:\n" + "\n".join(problems))
    if args.trace:
        traced = report["traced"]
        if traced["error"] is not None:
            raise RuntimeError(f"the traced run failed: {traced['error']}")
        names = [m["name"] for m in bench["per_layer"]]
        values, wrong = per_layer_metrics(names, reps, report)
        wrong += check_rep(traced, reference)
        if traced["digests"] != reps[0]["digests"]:
            wrong.append("digests differ from the untraced run's")
        attempted += 1
        failed += bool(wrong)
        problems += [f"traced run: {p}" for p in wrong]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = end_to_end_metrics(reps, setup, report["peak_rss_mb"])
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": report["numpy"],
        "python": platform.python_version(),
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "config_seed": seed, "seconds": args.seconds,
              "environment": environment, "result": result,
              "problems": problems,
              "run_s": [r.get("run_s") for r in reps]}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(f"{args.workload} seed {args.seed}: config seed {seed}, "
          f"{len(reps)} runs; " + ", ".join(f"{k} {v}"
                                              for k, v in environment.items()))
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, unit in UNBOUNDED.items():
            print(f"  {name:38s} {values[name]:.6g} {unit}")
    return result


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    workloads_path = HERE / "workloads.json"
    reference_path = HERE / "reference.json"
    if not (ROOT / "src" / "nmoe" / "pipeline.py").is_file():
        print(f"nmoe sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    workloads = load_json(workloads_path)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    reference = load_json(reference_path)

    names = list(workloads) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_one(args, bench, workloads[name],
                                    reference[name])
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
