"""Dataset generation, loading, client partitioning, and augmentation.

Clients receive shards under the dominated-class protocol: client i's
dominant class is i mod C and holds a 1 - tau fraction of the shard, the
rest spread uniformly over the remaining classes. tau = 1 degenerates to
an IID split over all classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .seeding import as_generator

CIFAR_RECORD = 3073  # 1 label byte + 32 * 32 * 3 pixel bytes
CIFAR_PIXELS = CIFAR_RECORD - 1
DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labels.ndim != 1:
            raise DataError(
                f"features must be 2-d and labels 1-d, got {feats.shape} "
                f"and {labels.shape}")
        if feats.shape[0] != labels.shape[0]:
            raise DataError(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} labels")
        if feats.shape[0] < 1:
            raise DataError("a dataset needs at least one sample")
        if self.num_classes < 1:
            raise DataError(f"num_classes must be positive: {self.num_classes}")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise DataError(
                f"labels outside [0, {self.num_classes}): "
                f"{int(labels.min())}..{int(labels.max())}")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices],
                       self.num_classes)


@dataclass(frozen=True)
class Shard:
    """One client's local train and test splits."""

    client_id: int
    train: Dataset
    test: Dataset


@dataclass(frozen=True)
class AugmentSpec:
    """Additive Gaussian noise followed by independent coordinate dropout."""

    noise_std: float
    mask_prob: float


def gen_synthetic(num_classes: int, dim: int, samples_per_class: int,
                  cluster_spread: float, seed) -> Dataset:
    """Isotropic Gaussian clusters around per-class means drawn once from
    the unit sphere. Deterministic in the seed; samples are grouped by
    class in the output."""
    rng = as_generator(seed)
    means = rng.normal(size=(num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = np.empty((num_classes * samples_per_class, dim))
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * samples_per_class
        hi = lo + samples_per_class
        features[lo:hi] = means[c] + cluster_spread * rng.normal(
            size=(samples_per_class, dim))
        labels[lo:hi] = c
    return Dataset(features, labels, num_classes)


def load_cifar10(path) -> Dataset:
    """Read CIFAR-10 binary batches (3073-byte records, label then pixels).

    path may be one .bin file or a directory of them; pixel bytes are
    scaled to [0, 1] and flattened.
    """
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.bin"))
        if not files:
            raise FormatError(f"no .bin files under {p}")
    elif p.is_file():
        files = [p]
    else:
        raise FormatError(f"no such file or directory: {p}")
    chunks = []
    for f in files:
        raw = np.frombuffer(f.read_bytes(), dtype=np.uint8)
        if raw.size == 0 or raw.size % CIFAR_RECORD != 0:
            raise FormatError(
                f"{f}: size {raw.size} is not a positive multiple of "
                f"{CIFAR_RECORD}")
        chunks.append(raw.reshape(-1, CIFAR_RECORD))
    records = np.concatenate(chunks, axis=0)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise FormatError(
            f"label byte {int(labels.max())} exceeds 9; not CIFAR-10 data")
    features = records[:, 1:].astype(np.float64) / 255.0
    return Dataset(features, labels, 10)


def save_cifar10(dataset: Dataset, path) -> None:
    """Write a dataset back into the CIFAR-10 binary layout.

    Only datasets whose features are 3072 multiples of 1/255 in [0, 1]
    round-trip; anything else is rejected rather than silently quantized.
    """
    if dataset.dim != CIFAR_PIXELS or dataset.num_classes != 10:
        raise FormatError(
            f"dataset with dim {dataset.dim} and {dataset.num_classes} "
            f"classes does not fit the CIFAR-10 layout")
    scaled = dataset.features * 255.0
    pixels = np.rint(scaled)
    if not np.allclose(scaled, pixels, atol=1e-6) or \
            pixels.min() < 0 or pixels.max() > 255:
        raise FormatError("features are not 8-bit pixel values in [0, 1]")
    records = np.empty((dataset.num_samples, CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = dataset.labels.astype(np.uint8)
    records[:, 1:] = pixels.astype(np.uint8)
    Path(path).write_bytes(records.tobytes())


def apportion(quotas: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of nonnegative quotas to integers
    summing to total. Ties go to the lowest index."""
    quotas = np.asarray(quotas, dtype=np.float64)
    floors = np.floor(quotas).astype(np.int64)
    leftover = total - int(floors.sum())
    if leftover < 0 or leftover > quotas.size:
        raise DataError(f"quotas {quotas} do not sum to {total}")
    remainders = quotas - floors
    order = np.lexsort((np.arange(quotas.size), -remainders))
    counts = floors.copy()
    counts[order[:leftover]] += 1
    return counts


def dominant_class_counts(num_classes: int, dominant: int, tau: float,
                          total: int) -> np.ndarray:
    """Per-class sample counts for one shard: fraction 1 - tau on the
    dominant class, the rest uniform over the other classes. tau = 1
    means no class is special and the split is uniform over all; so does
    a single class, which leaves tau no other class to spread over."""
    if tau >= 1.0 or num_classes == 1:
        quotas = np.full(num_classes, total / num_classes)
    else:
        quotas = np.full(num_classes, tau * total / (num_classes - 1))
        quotas[dominant] = (1.0 - tau) * total
    return apportion(quotas, total)


def partition_noniid(data: Dataset, num_clients: int, tau: float,
                     train_per_client: int, test_per_client: int, seed,
                     test_distribution: str = "matched") -> list[Shard]:
    """Split a dataset into disjoint client shards under non-IID(tau).

    Sampling is without replacement from per-class pools, so shards never
    overlap. test_distribution selects whether test shards follow the
    client's train distribution ("matched") or a uniform one ("iid").
    """
    rng = as_generator(seed)
    c = data.num_classes
    pools = [rng.permutation(np.flatnonzero(data.labels == cls))
             for cls in range(c)]
    cursors = [0] * c

    def draw(cls: int, count: int, client: int) -> np.ndarray:
        available = len(pools[cls]) - cursors[cls]
        if count > available:
            raise DataError(
                f"class {cls} exhausted while filling client {client}: "
                f"need {count} more samples, {available} left")
        out = pools[cls][cursors[cls]:cursors[cls] + count]
        cursors[cls] += count
        return out

    shards = []
    for i in range(num_clients):
        dominant = i % c
        parts = []
        for total, kind in ((train_per_client, "train"),
                            (test_per_client, "test")):
            if kind == "test" and test_distribution == "iid":
                counts = apportion(np.full(c, total / c), total)
            else:
                counts = dominant_class_counts(c, dominant, tau, total)
            idx = np.concatenate([draw(cls, int(counts[cls]), i)
                                  for cls in range(c) if counts[cls] > 0])
            idx = idx[rng.permutation(idx.size)]
            parts.append(data.take(idx))
        shards.append(Shard(client_id=i, train=parts[0], test=parts[1]))
    return shards


@dataclass(frozen=True)
class ViewDraw:
    """The randomness of one augmented view: additive Gaussian noise and
    the mask of coordinates that survive dropout."""

    noise: np.ndarray
    keep: np.ndarray

    def apply(self, batch: np.ndarray) -> np.ndarray:
        return np.where(self.keep, batch + self.noise, 0.0)


def draw_views(spec: AugmentSpec, shape: tuple[int, ...],
               seed) -> tuple[ViewDraw, ViewDraw]:
    """The draws behind two augmented views of a batch of the given shape.

    Draw order is fixed: view 1 noise, view 1 mask, view 2 noise, view 2
    mask. The draws depend on the shape alone, never on feature values,
    so one draw can serve every batch of that shape.
    """
    rng = as_generator(seed)

    def one_view() -> ViewDraw:
        noise = rng.normal(0.0, spec.noise_std, size=shape)
        keep = rng.random(size=shape) >= spec.mask_prob
        return ViewDraw(noise, keep)

    return one_view(), one_view()


def augment(spec: AugmentSpec, batch: np.ndarray,
            seed) -> tuple[np.ndarray, np.ndarray]:
    """Two independent augmented views of a (rows, width) batch, or of
    every slice of a (..., rows, width) stack of batches.

    Each view adds Gaussian noise, then zeroes coordinates independently
    with probability mask_prob; draw_views fixes the draw order. One
    pair of draws for the trailing (rows, width) shape serves every
    slice, so each slice's views equal the 2-d call on that slice.
    """
    x = np.asarray(batch, dtype=np.float64)
    first, second = draw_views(spec, x.shape[-2:], seed)
    return first.apply(x), second.apply(x)


def save_dataset(dataset: Dataset, directory, meta: dict | None = None) -> None:
    """Write a dataset directory: manifest.json, features.npy, labels.npy."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "num_classes": dataset.num_classes,
        "num_samples": dataset.num_samples,
        "dim": dataset.dim,
        "meta": meta or {},
    }
    (d / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    np.save(d / "features.npy", dataset.features)
    np.save(d / "labels.npy", dataset.labels)


def load_dataset(directory) -> tuple[Dataset, dict]:
    """Read a dataset directory written by save_dataset."""
    d = Path(directory)
    manifest_path = d / "manifest.json"
    if not manifest_path.is_file():
        raise FormatError(f"{d} has no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format_version") != DATASET_FORMAT_VERSION:
        raise FormatError(
            f"{manifest_path}: unsupported format_version "
            f"{manifest.get('format_version')!r}")
    try:
        num_classes = int(manifest["num_classes"])
        shape = (manifest["num_samples"], manifest["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{manifest_path}: missing or mistyped {exc!r}") from exc
    try:
        features = np.load(d / "features.npy")
        labels = np.load(d / "labels.npy")
    except (OSError, ValueError) as exc:
        raise FormatError(f"{d}: cannot read the arrays: {exc}") from exc
    ds = Dataset(features, labels, num_classes)
    if (ds.num_samples, ds.dim) != shape:
        raise FormatError(f"{d}: manifest does not match array shapes")
    return ds, manifest
