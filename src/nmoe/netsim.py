"""Serverless inference simulation with routing and byte accounting.

Each test sample is evaluated at its owning client: the client encodes
the sample, the gate picks k experts, and any expert hosted elsewhere
costs one latent vector on the way out and one logit vector on the way
back. Only payload bytes are counted; framing, retries, and batching
are out of scope. Remote experts return raw logits and the owning
client mixes them, so per-expert traffic is independent of k beyond
which experts are chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import Shard
from .errors import ConfigError, DataError
from .moe import NmoeModel, moe_forward
from .numerics import softmax

DEFAULT_BYTES_PER_SCALAR = 4


@dataclass(frozen=True)
class CostModel:
    """Wire sizes for one routed sample: a latent vector travels to the
    remote expert, a logit vector travels back."""

    latent_dim: int
    num_classes: int
    bytes_per_scalar: int = DEFAULT_BYTES_PER_SCALAR

    def __post_init__(self):
        for name in ("latent_dim", "num_classes", "bytes_per_scalar"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, "
                                  f"got {value!r}")


@dataclass(frozen=True)
class RoutingLog:
    """counts[c][e] routing decisions from owning client c to expert e,
    plus total payload bytes in each direction."""

    counts: np.ndarray
    bytes_out: int
    bytes_back: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DataError(f"counts must be square, got shape {c.shape}")
        if c.size and c.min() < 0:
            raise DataError("routing counts must be nonnegative")
        if self.bytes_out < 0 or self.bytes_back < 0:
            raise DataError("byte counters must be nonnegative")
        object.__setattr__(self, "counts", c.astype(np.int64))

    @property
    def num_clients(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class InferenceResult:
    """Per-client predicted labels, softmax score matrices, and true
    labels, keyed by client id, plus the merged routing log."""

    predictions: dict
    scores: dict
    labels: dict
    log: RoutingLog


def simulate_inference(model: NmoeModel, shards, k: int, cost: CostModel,
                       rng: np.random.Generator | None = None
                       ) -> InferenceResult:
    """Evaluate every shard's test set through the mixture and account
    routing. An rng is only consumed by a random gate."""
    shards = list(shards)
    if not shards:
        raise DataError("no shards to simulate")
    m = model.num_experts
    if not 1 <= k <= m:
        raise ConfigError(f"k must be in [1, {m}], got {k}")
    if cost.latent_dim != model.fe_spec.out_width:
        raise ConfigError(f"cost model latent_dim {cost.latent_dim} does "
                          f"not match the extractor output "
                          f"{model.fe_spec.out_width}")
    if cost.num_classes != model.num_classes:
        raise ConfigError(f"cost model num_classes {cost.num_classes} does "
                          f"not match the model's {model.num_classes}")
    seen = set()
    for shard in shards:
        c = shard.client_id
        if c in seen:
            raise DataError(f"duplicate client id {c}")
        seen.add(c)
        if not 0 <= c < m:
            raise DataError(f"client id {c} outside [0, {m})")
        if shard.test.features.shape[1] != model.fe_spec.in_width:
            raise DataError(
                f"client {c} test features have width "
                f"{shard.test.features.shape[1]}, extractor expects "
                f"{model.fe_spec.in_width}")
    counts = np.zeros((m, m), dtype=np.int64)
    bytes_out = 0
    bytes_back = 0
    predictions: dict = {}
    scores: dict = {}
    labels: dict = {}
    for shard in sorted(shards, key=lambda s: s.client_id):
        c = shard.client_id
        fwd = moe_forward(model, shard.test.features, k, rng=rng)
        predictions[c] = np.argmax(fwd.logits, axis=1)
        scores[c] = softmax(fwd.logits)
        labels[c] = shard.test.labels.copy()
        row = np.bincount(fwd.decision.indices.ravel(), minlength=m)
        counts[c] += row
        remote = int(row.sum() - row[c])
        bytes_out += remote * cost.latent_dim * cost.bytes_per_scalar
        bytes_back += remote * cost.num_classes * cost.bytes_per_scalar
    return InferenceResult(predictions=predictions, scores=scores,
                           labels=labels,
                           log=RoutingLog(counts, bytes_out, bytes_back))


def local_ratio(log: RoutingLog) -> float:
    """Fraction of routing decisions served by the owning client."""
    total = log.total
    if total == 0:
        raise DataError("local ratio of an empty routing log")
    return float(np.trace(log.counts) / total)


def export_heatmap(log: RoutingLog, path, *, k: int, seed: int,
                   config_hash: str) -> Path:
    """Write the row-normalized routing matrix as CSV (6 decimal places)
    plus a sidecar manifest naming what produced it."""
    path = Path(path)
    row_sums = log.counts.sum(axis=1)
    zero = np.flatnonzero(row_sums == 0)
    if zero.size:
        raise DataError(f"client {int(zero[0])} routed no samples, "
                        "heatmap row would be undefined")
    normalized = log.counts / row_sums[:, None]
    lines = [",".join(f"{v:.6f}" for v in row) for row in normalized]
    path.write_text("\n".join(lines) + "\n")
    manifest = {"config_hash": config_hash, "k": k, "seed": seed}
    manifest_path = path.with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2)
                             + "\n")
    return manifest_path
