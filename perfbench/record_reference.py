"""Record the reference artifact digests the benchmark checks against.

For every workload, runs config seeds 0..N-1 once each (untraced, in a
fresh worker process, with the benchmark's own BLAS setting) and writes
each seed's sha256 of results.json, model.json and training_log.jsonl
together with its outcome metrics to perfbench/reference.json. Rerun it
only for a change that is meant to alter run results.

    python3 perfbench/record_reference.py [--workload NAME] [--count N]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from measure import ARTIFACTS

# Benchmark seed s runs config seed s % COUNT, so seeds 0..COUNT-1 each
# get a config seed of their own.
COUNT = 10
OUTCOMES = ("pooled_accuracy", "client_mean_macro_f1", "train_bytes",
            "inference_bytes")


def main(argv=None) -> int:
    workloads = run.load_json(run.HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads))
    parser.add_argument("--count", type=int)
    args = parser.parse_args(argv)
    path = run.HERE / "reference.json"
    reference = run.load_json(path) if path.exists() else {}
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    for name in [args.workload] if args.workload else list(workloads):
        count = args.count or COUNT
        scratch = tempfile.mkdtemp(dir=run.OUT)
        try:
            report = run.run_worker(name, list(range(count)), 0, 0,
                                    scratch, None, env, infer=0,
                                    timeout=None)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        table = {}
        for rep in report["reps"]:
            if rep["error"] is not None or rep["problems"]:
                print(f"{name} seed {rep['seed']}: {rep['error']} "
                      f"{rep['problems']}", file=sys.stderr)
                return 1
            table[str(rep["seed"])] = {
                **{a: rep["digests"][a] for a in ARTIFACTS},
                **{o: rep[o] for o in OUTCOMES}}
        reference[name] = table
        path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                        + "\n")
        print(f"{name}: recorded {count} config seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
