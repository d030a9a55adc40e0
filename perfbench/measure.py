"""Pure helpers shared by the benchmark: order statistics, span self
times, artifact digests, and the byte recounts of the correctness gate.

Nothing here imports nmoe, so the helpers can be tested on their own.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

ARTIFACTS = ("results.json", "model.json", "training_log.jsonl")


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between the
    closest ranks, as numpy's default method computes it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(parents, durations) -> list:
    """Each span's duration minus the durations of its direct children.

    parents[i] is the index of span i's parent, or -1 for a root. Spans
    nest properly (one thread), so the children's durations are exactly
    the part of the parent's interval they cover.
    """
    own = list(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            own[parent] -= duration
    return own


def summarize_spans(names, parents, durations) -> dict:
    """Per span name: {"calls": count, "self": summed self time}."""
    out: dict = {}
    for name, own in zip(names, self_times(parents, durations)):
        entry = out.setdefault(name, {"calls": 0, "self": 0})
        entry["calls"] += 1
        entry["self"] += own
    return out


def child_durations(names, parents, durations, parent_name: str) -> dict:
    """Summed duration per name of the spans directly under any span
    called parent_name."""
    out: dict = {}
    for name, parent, duration in zip(names, parents, durations):
        if parent >= 0 and names[parent] == parent_name:
            out[name] = out.get(name, 0) + duration
    return out


def file_digests(directory) -> dict:
    d = Path(directory)
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def recount_train_bytes(record: dict) -> int:
    """Training traffic as the sum of every round report's bytes_sent."""
    return sum(report["bytes_sent"]
               for reports in record["stages"].values()
               for report in reports)


def recount_inference_bytes(record: dict) -> int:
    """Inference traffic from the routing matrix: each remote decision
    sends one latent vector out and one logit vector back."""
    counts = record["routing"]["counts"]
    remote = sum(sum(row) - row[c] for c, row in enumerate(counts))
    config = record["config"]
    latent_dim = config["model"]["fe_widths"][-1]
    num_classes = config["model"]["expert_widths"][-1]
    return remote * (latent_dim + num_classes) * config["bytes_per_scalar"]


def record_problems(record: dict) -> list:
    """Mismatches between a results record's byte totals and the
    recounts above; an empty list means the record is consistent."""
    problems = []
    b = record["bytes"]
    train = recount_train_bytes(record)
    if train != b["stage1"] + b["stage2"] + b["stage3"]:
        problems.append(f"train bytes: reports sum to {train}, record "
                        f"says {b['stage1'] + b['stage2'] + b['stage3']}")
    inference = recount_inference_bytes(record)
    if inference != b["inference"]:
        problems.append(f"inference bytes: routing gives {inference}, "
                        f"record says {b['inference']}")
    return problems
