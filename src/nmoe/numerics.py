"""Minimal dense-network engine: parameter containers, MLP forward and
backward passes, losses, and SGD utilities.

Everything runs in float64. Backward passes are hand-derived; the test
suite checks each one against central finite differences.

forward, backward, cross_entropy, softmax_backward, sgd_step, add_params
and grad_normalize also take a leading client axis: a ParamSet of (g, ...)
arrays (stack_params) holds g networks of one topology, and a (g, rows,
width) batch runs all of them with one batched matmul per layer. Each
slice gets the bits a 2-d call would give it.
"""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, FormatError, InternalError


class ParamSet:
    """Ordered, immutable collection of named float64 arrays.

    Two sets are shape-compatible when they hold the same names in the
    same order with matching shapes; all arithmetic helpers below require
    that. Arrays are copied on construction and marked read-only.
    """

    __slots__ = ("_arrays",)

    def __init__(self, arrays: Mapping[str, np.ndarray] |
                 Iterable[tuple[str, np.ndarray]]):
        items = arrays.items() if isinstance(arrays, Mapping) else arrays
        store: dict[str, np.ndarray] = {}
        for name, value in items:
            if name in store:
                raise InternalError(f"duplicate parameter name {name!r}")
            arr = np.array(value, dtype=np.float64)
            arr.flags.writeable = False
            store[name] = arr
        if not store:
            raise InternalError("empty parameter set")
        self._arrays = store

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def items(self):
        return self._arrays.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.names == other.names and all(
            np.array_equal(self[n], other[n]) for n in self.names)

    def __repr__(self) -> str:
        shapes = ", ".join(f"{n}:{'x'.join(map(str, a.shape))}"
                           for n, a in self.items())
        return f"ParamSet({shapes})"

    def size(self) -> int:
        """Total number of scalars across all arrays."""
        return sum(a.size for a in self._arrays.values())


def stack_params(sets) -> ParamSet:
    """g shape-compatible sets as one set of (g, ...) arrays."""
    sets = list(sets)
    for other in sets[1:]:
        check_compatible(sets[0], other)
    return ParamSet((n, np.stack([ps[n] for ps in sets]))
                    for n in sets[0].names)


def unstack_params(stacked: ParamSet) -> list[ParamSet]:
    """Inverse of stack_params: one set per leading index."""
    g = stacked[stacked.names[0]].shape[0]
    return [ParamSet((n, a[c]) for n, a in stacked.items())
            for c in range(g)]


def check_compatible(a: ParamSet, b: ParamSet) -> None:
    """Raise unless a and b hold identically named and shaped arrays."""
    if a.names != b.names:
        raise ConfigError(
            f"parameter sets are not compatible: names {a.names} vs {b.names}")
    for name in a.names:
        if a[name].shape != b[name].shape:
            raise ConfigError(
                f"parameter {name!r} has shape {a[name].shape} in one set "
                f"and {b[name].shape} in the other")


def params_digest(params: ParamSet) -> str:
    """SHA-256 over names and raw array bytes; detects any mutation."""
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# MLP topology

_ACT_NAMES = {"identity": kernels.ACT_IDENTITY,
              "relu": kernels.ACT_RELU,
              "tanh": kernels.ACT_TANH}
_ACT_IDS = {v: k for k, v in _ACT_NAMES.items()}


def activation_id(name: str) -> int:
    try:
        return _ACT_NAMES[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}; "
                          f"expected one of {sorted(_ACT_NAMES)}") from None


def activation_name(act: int) -> str:
    return _ACT_IDS[act]


@dataclass(frozen=True)
class MlpSpec:
    """Fully connected topology.

    widths runs from the input width to the output width; activations
    holds one kernel activation id per layer (the output layer is
    normally identity so downstream code sees raw logits).
    """

    widths: tuple[int, ...]
    activations: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError("an MLP needs at least one layer")
        if any(w <= 0 for w in self.widths):
            raise ConfigError(f"layer widths must be positive: {self.widths}")
        if len(self.activations) != len(self.widths) - 1:
            raise ConfigError(
                f"{len(self.widths) - 1} layers need "
                f"{len(self.widths) - 1} activations, "
                f"got {len(self.activations)}")
        if any(a not in kernels.VALID_ACTIVATIONS for a in self.activations):
            raise ConfigError(f"invalid activation id in {self.activations}")

    @property
    def num_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]


def init_mlp_params(spec: MlpSpec, rng: np.random.Generator) -> ParamSet:
    """He-style init: std sqrt(2/fan_in) before relu, sqrt(1/fan_in)
    otherwise; zero biases."""
    arrays: dict[str, np.ndarray] = {}
    for layer in range(spec.num_layers):
        fan_in = spec.widths[layer]
        gain = 2.0 if spec.activations[layer] == kernels.ACT_RELU else 1.0
        std = math.sqrt(gain / fan_in)
        arrays[f"w{layer}"] = rng.normal(
            0.0, std, size=(fan_in, spec.widths[layer + 1]))
        arrays[f"b{layer}"] = np.zeros(spec.widths[layer + 1])
    return ParamSet(arrays)


@dataclass(frozen=True)
class Tape:
    """Activation record produced by forward and consumed by backward.

    records[0] is the input batch; records[l + 1] is layer l's output.
    """

    spec: MlpSpec
    params: ParamSet
    records: tuple[np.ndarray, ...]


def forward(spec: MlpSpec, params: ParamSet, batch: np.ndarray,
            want_tape: bool = False):
    """Run the network on a batch of rows, (rows, width), or on a stack
    (g, rows, width) with params of (g, ...) arrays.

    Returns the output array, or (output, tape) when want_tape is set.
    """
    x = np.ascontiguousarray(batch, dtype=np.float64)
    if x.ndim < 2:
        raise ConfigError(f"expected a batch of rows, got shape {x.shape}")
    if x.shape[-1] != spec.in_width:
        raise ConfigError(
            f"batch width {x.shape[-1]} does not match the network input "
            f"width {spec.in_width}")
    _check_spec_params(spec, params)
    records = [x]
    for layer in range(spec.num_layers):
        x = kernels.dense_forward(x, params[f"w{layer}"],
                                  params[f"b{layer}"],
                                  spec.activations[layer])
        records.append(x)
    if want_tape:
        return x, Tape(spec=spec, params=params, records=tuple(records))
    return x


def backward(tape: Tape, upstream: np.ndarray) -> tuple[ParamSet, np.ndarray]:
    """Backpropagate an upstream gradient through a recorded forward pass.

    Returns (parameter gradients, gradient with respect to the input batch).
    """
    d = np.ascontiguousarray(upstream, dtype=np.float64)
    if d.shape != tape.records[-1].shape:
        raise InternalError(
            f"upstream gradient shape {d.shape} does not match the tape "
            f"output shape {tape.records[-1].shape}")
    spec, params = tape.spec, tape.params
    grads: dict[str, np.ndarray] = {}
    for layer in range(spec.num_layers - 1, -1, -1):
        x, out = tape.records[layer], tape.records[layer + 1]
        d, dw, db = kernels.dense_backward(x, params[f"w{layer}"], out, d,
                                           spec.activations[layer])
        grads[f"w{layer}"] = dw
        grads[f"b{layer}"] = db
    return ParamSet((name, grads[name]) for name in params.names), d


def _check_spec_params(spec: MlpSpec, params: ParamSet) -> None:
    for layer in range(spec.num_layers):
        wname, bname = f"w{layer}", f"b{layer}"
        if wname not in params or bname not in params:
            raise ConfigError(f"parameter set lacks layer {layer}")
        expect = (spec.widths[layer], spec.widths[layer + 1])
        if params[wname].shape[-2:] != expect:
            raise ConfigError(
                f"{wname} has shape {params[wname].shape}, spec wants {expect}")


# ---------------------------------------------------------------------------
# losses

def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax. -inf entries map to exact zeros; a row with no
    finite entry is an error (an empty top-k selection upstream)."""
    z = np.ascontiguousarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ConfigError(f"softmax expects a 2-d array, got shape {z.shape}")
    if np.isneginf(z).all(axis=1).any():
        raise InternalError("softmax row with no finite entry")
    return kernels.softmax_rows(z)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient through a row-wise softmax given gradients on its output;
    rows run along the last axis, under any leading stack axes."""
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def cross_entropy(logits: np.ndarray,
                  labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient wrt the logits.

    logits (rows, classes) with labels (rows,) give a float loss; stacked
    logits (g, rows, classes) with labels (g, rows) give an array of g
    losses, each slice reduced on its own like a 2-d call. The gradient
    is (softmax - onehot) / rows, ready to feed backward.
    """
    z = np.ascontiguousarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if z.ndim < 2 or y.shape != z.shape[:-1]:
        raise DataError(
            f"logits {z.shape} and labels {y.shape} do not line up")
    n, classes = z.shape[-2:]
    if n == 0:
        raise DataError("cross entropy over an empty batch")
    # every row of every slice, flattened, with its label
    y = y.astype(np.int64).reshape(-1)
    if y.min() < 0 or y.max() >= classes:
        raise DataError(
            f"label outside [0, {classes}): {int(y.min())}..{int(y.max())}")
    rows = np.arange(y.size)
    rowmax = z.max(axis=-1, keepdims=True)
    shifted = z - rowmax
    logsum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsum
    picked = logp.reshape(-1, classes)[rows, y].reshape(z.shape[:-1])
    loss = -picked.mean(axis=-1)
    if z.ndim == 2:
        loss = float(loss)
    grad = np.exp(logp)
    grad.reshape(-1, classes)[rows, y] -= 1.0
    grad /= n
    return loss, grad


# ---------------------------------------------------------------------------
# optimizer utilities

def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """One SGD update p - lr * g; pure, inputs untouched."""
    check_compatible(params, grads)
    return ParamSet((n, params[n] - lr * grads[n]) for n in params.names)


def grad_normalize(grads: ParamSet, max_norm: float, *,
                   stacked: bool = False) -> ParamSet:
    """Scale the whole set so its global L2 norm is at most max_norm.

    A stacked set of (g, ...) arrays holds g networks' gradients; each
    slice is scaled by its own norm. Each slice's squares are summed per
    array as np.sum sums that slice and the arrays' sums added in name
    order, so every slice gets the bits of a call on its own set.
    """
    if max_norm <= 0.0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    lead = 1 if stacked else 0
    total = np.sqrt(sum((a * a).reshape(a.shape[:lead] + (-1,)).sum(axis=-1)
                        for _, a in grads.items()))
    within = total <= max_norm
    if within.all():
        return grads
    # a slice within the bound scales by exactly 1.0 and keeps its bits;
    # a NaN norm scales by NaN
    scale = max_norm / np.maximum(total, max_norm)
    return ParamSet(
        (n, a * scale.reshape(a.shape[:lead] + (1,) * (a.ndim - lead)))
        for n, a in grads.items())


def add_params(a: ParamSet, b: ParamSet) -> ParamSet:
    check_compatible(a, b)
    return ParamSet((n, a[n] + b[n]) for n in a.names)


# ---------------------------------------------------------------------------
# serialization

def encode_array(arr: np.ndarray) -> dict:
    """JSON-safe encoding: little-endian float64 bytes in base64."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(obj: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        return arr.reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed array record: {exc}") from exc


def encode_params(params: ParamSet) -> list:
    # a list of pairs keeps parameter order through canonical (sorted-key)
    # JSON, which ParamSet equality and aggregation both rely on
    return [[name, encode_array(arr)] for name, arr in params.items()]


def decode_params(obj: list) -> ParamSet:
    try:
        return ParamSet((name, decode_array(rec)) for name, rec in obj)
    except FormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed parameter list: {exc}") from exc
