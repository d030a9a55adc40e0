"""Minimal dense-network engine: parameter containers, MLP forward and
backward passes, losses, and SGD utilities.

Everything runs in float64. Backward passes are hand-derived; the test
suite checks each one against central finite differences.

A ParamSet is one read-only float64 buffer with a fixed Layout of
(name, span, shape) entries: (P,) for one network, (g, P) for a stack of
g networks of one topology (stack_params), one network's P values after
another's. Named arrays and unstack_params slices are zero-copy views;
sgd_step, add_params and grad_normalize act on whole buffers and return
fresh ones, never writing their inputs, and backward writes its
gradients into a fresh buffer of the params' layout. A stacked weight
view is strided between slices, but each slice's block is contiguous,
so a batched matmul hands gemm the 2-d blocks a 2-d call would.

forward, backward, cross_entropy, softmax_backward, sgd_step, add_params
and grad_normalize also take a leading client axis: a (g, rows, width)
batch runs a stack with one batched matmul per layer, and each slice
gets the bits a 2-d call would give it. backward(..., input_grad=False)
skips the first layer's input gradient, a full matmul, for callers that
discard it.

One rule decides fit: a set fits a network exactly when its layout is
spec.layout, the interned layout of init_mlp_params's w0, b0, w1, b1,
..., and forward raises ConfigError for any other set. Two sets are
compatible exactly when they share a layout and a stack shape.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, FormatError, InternalError


class Layout:
    """Where each named array of a parameter set lives in its flat
    buffer: names in order, each array's shape and its span.

    Layouts are interned (_layout_of), so sets of one topology share one
    Layout object and comparing two layouts is an identity test.
    """

    __slots__ = ("names", "shapes", "spans", "size")

    def __init__(self, key: tuple):
        self.names = tuple(name for name, _ in key)
        self.shapes = tuple(shape for _, shape in key)
        stops = list(itertools.accumulate(map(math.prod, self.shapes)))
        self.spans = tuple(map(slice, [0, *stops[:-1]], stops))
        self.size = stops[-1]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Every named array as a view of flat, (P,) or (g, P)."""
        lead = flat.shape[:-1]
        return {name: flat[..., span].reshape(lead + shape)
                for name, span, shape in zip(self.names, self.spans,
                                             self.shapes)}


_LAYOUTS: dict[tuple, Layout] = {}


def _layout_of(key: tuple) -> Layout:
    """The one Layout of the given ((name, shape), ...) sequence."""
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = Layout(key)
    return layout


class ParamSet:
    """Ordered, immutable collection of named float64 arrays held in one
    read-only flat buffer.

    The buffer is (P,) for one network, or (g, P) for a stack of g
    networks of one layout (stack_params, or from_flat over a (g, P)
    buffer), one network's P values after another's. Each named array is
    a zero-copy read-only view into it, of its layout shape or
    (g, *shape). Two sets are shape-compatible when they share a layout
    and stack shape; the arithmetic helpers below require that and work
    on whole buffers. The constructor copies its arrays into a (P,)
    buffer.
    """

    __slots__ = ("_layout", "_flat", "_views")

    def __init__(self, arrays: Mapping[str, np.ndarray] |
                 Iterable[tuple[str, np.ndarray]]):
        items = arrays.items() if isinstance(arrays, Mapping) else arrays
        store: dict[str, np.ndarray] = {}
        for name, value in items:
            if name in store:
                raise InternalError(f"duplicate parameter name {name!r}")
            store[name] = np.asarray(value, dtype=np.float64)
        if not store:
            raise InternalError("empty parameter set")
        layout = _layout_of(tuple((name, a.shape)
                                 for name, a in store.items()))
        flat = np.empty(layout.size)
        for span, a in zip(layout.spans, store.values()):
            flat[span] = a.reshape(-1)
        self._set(layout, flat)

    def _set(self, layout: Layout, flat: np.ndarray) -> None:
        flat.flags.writeable = False
        self._layout = layout
        self._flat = flat
        self._views = None

    @classmethod
    def from_flat(cls, layout: Layout, flat: np.ndarray) -> "ParamSet":
        """A set over a buffer of the given layout, (P,) or (g, P),
        without copying it; the buffer becomes read-only."""
        ps = cls.__new__(cls)
        ps._set(layout, flat)
        return ps

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def flat(self) -> np.ndarray:
        """The read-only buffer, (P,) or (g, P)."""
        return self._flat

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one network, (g,) for a stack of g."""
        return self._flat.shape[:-1]

    @property
    def names(self) -> tuple[str, ...]:
        return self._layout.names

    def _arrays(self) -> dict[str, np.ndarray]:
        if self._views is None:
            self._views = self._layout.views(self._flat)
        return self._views

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays()[name]

    def __contains__(self, name: str) -> bool:
        return name in self._layout.names

    def __len__(self) -> int:
        return len(self._layout.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout.names)

    def items(self):
        return self._arrays().items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self._layout is other._layout and \
            np.array_equal(self._flat, other._flat)

    def __repr__(self) -> str:
        shapes = ", ".join(f"{n}:{'x'.join(map(str, a.shape))}"
                           for n, a in self.items())
        return f"ParamSet({shapes})"

    def size(self) -> int:
        """Total number of scalars across all arrays."""
        return self._flat.size


def stack_params(sets) -> ParamSet:
    """g shape-compatible sets as one stack, a (g, P) buffer."""
    sets = list(sets)
    for other in sets[1:]:
        check_compatible(sets[0], other)
    return ParamSet.from_flat(sets[0].layout,
                              np.stack([ps.flat for ps in sets]))


def unstack_params(stacked: ParamSet) -> list[ParamSet]:
    """Inverse of stack_params: one set per leading index, each a
    read-only view of its row of the stack's buffer."""
    if not stacked.stack_shape:
        raise InternalError("unstack_params needs a stacked parameter set")
    return [ParamSet.from_flat(stacked.layout, row)
            for row in stacked.flat]


def check_compatible(a: ParamSet, b: ParamSet) -> None:
    """Raise unless a and b share a layout and a stack shape."""
    if a.layout is not b.layout or a.flat.shape != b.flat.shape:
        raise ConfigError(
            f"parameter sets are not compatible: {a!r} vs {b!r} differ in "
            f"layout or in stack shapes {a.stack_shape} vs {b.stack_shape}")


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
    except (KeyError, TypeError):  # TypeError: an unhashable name
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

    @functools.cached_property
    def layout(self) -> Layout:
        """The layout of this topology's parameters, as init_mlp_params
        builds them: w0, b0, w1, b1, ..."""
        key = []
        for layer in range(self.num_layers):
            fan_in, fan_out = self.widths[layer:layer + 2]
            key += [(f"w{layer}", (fan_in, fan_out)),
                    (f"b{layer}", (fan_out,))]
        return _layout_of(tuple(key))


def chain_specs(first: MlpSpec, second: MlpSpec) -> MlpSpec:
    """One network of first's layers then second's; its layout holds
    first's parameters, then second's in second's layout."""
    if second.in_width != first.out_width:
        raise ConfigError(
            f"input width {second.in_width} does not match the output "
            f"width {first.out_width} it follows")
    return MlpSpec(first.widths + second.widths[1:],
                   first.activations + second.activations)


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

    The batch is not copied when each of its (rows, width) blocks is
    C-contiguous, as in a 2-d batch broadcast to (g, rows, width) by
    np.broadcast_to: matmul hands gemm the blocks a copy would hold, so
    the bits are the same, and every network of the stack runs on the
    one batch. Any other layout is copied.

    params must have spec.layout (the module docstring's fit rule).
    Returns the output array, or (output, tape) when want_tape is set.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2:
        raise ConfigError(f"expected a batch of rows, got shape {x.shape}")
    x = _contiguous_blocks(x)
    if x.shape[-1] != spec.in_width:
        raise ConfigError(
            f"batch width {x.shape[-1]} does not match the network input "
            f"width {spec.in_width}")
    if params.layout is not spec.layout:
        raise ConfigError(f"parameter set {params!r} does not fit the "
                          f"network of widths {spec.widths}")
    arrays, names = params._arrays(), spec.layout.names
    records = [x]
    for layer, act in enumerate(spec.activations):
        x = kernels.dense_forward(x, arrays[names[2 * layer]],
                                  arrays[names[2 * layer + 1]], act)
        records.append(x)
    if want_tape:
        return x, Tape(spec=spec, params=params, records=tuple(records))
    return x


def backward(tape: Tape, upstream: np.ndarray, input_grad: bool = True
             ) -> tuple[ParamSet, np.ndarray | None]:
    """Backpropagate an upstream gradient through a recorded forward pass.

    Returns (parameter gradients, gradient with respect to the input
    batch); the gradients fill one fresh buffer of the params' layout.
    With input_grad=False the first layer's input gradient is never
    formed and None stands in its place.
    """
    d = np.ascontiguousarray(upstream, dtype=np.float64)
    if d.shape != tape.records[-1].shape:
        raise InternalError(
            f"upstream gradient shape {d.shape} does not match the tape "
            f"output shape {tape.records[-1].shape}")
    spec, params = tape.spec, tape.params
    layout = spec.layout
    flat = np.empty(params.flat.shape)
    grads, names = layout.views(flat), layout.names
    for layer in range(spec.num_layers - 1, -1, -1):
        wname, bname = names[2 * layer:2 * layer + 2]
        d, _, _ = kernels.dense_backward(
            tape.records[layer], params[wname], tape.records[layer + 1], d,
            spec.activations[layer], dw=grads[wname], db=grads[bname],
            input_grad=layer > 0 or input_grad)
    return ParamSet.from_flat(layout, flat), d


def _contiguous_blocks(x: np.ndarray) -> np.ndarray:
    """x when each (rows, width) block of it is C-contiguous, whatever
    the strides of its leading axes (a broadcast stack's are zero): gemm
    then reads every block as it would read it from a C-contiguous copy.
    Anything else is copied."""
    rows, width = x.shape[-2:]
    if (x.strides[-1] == x.itemsize or width == 1) and \
            (x.strides[-2] == width * x.itemsize or rows == 1):
        return x
    return np.ascontiguousarray(x)


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
    inner = np.add.reduce(dprobs * probs, axis=-1, keepdims=True)
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
    # every row of every slice, flattened, with its label; at is where
    # each row's label sits in the flattened logits
    y = y.astype(np.int64, copy=False).reshape(-1)
    low, high = np.minimum.reduce(y), np.maximum.reduce(y)
    if low < 0 or high >= classes:
        raise DataError(f"label outside [0, {classes}): {low}..{high}")
    at = np.arange(0, y.size * classes, classes) + y
    shifted = z - kernels._row_max(z)
    logsum = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    logp = np.subtract(shifted, logsum, out=shifted)
    # the mean written out: the sum over rows, then one division
    loss = -(np.add.reduce(logp.take(at).reshape(z.shape[:-1]), axis=-1)
             / n)
    if z.ndim == 2:
        loss = float(loss)
    grad = np.exp(logp)
    grad.reshape(-1)[at] -= 1.0
    grad /= n
    return loss, grad


# ---------------------------------------------------------------------------
# optimizer utilities

def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """One SGD update p - lr * g over the whole buffer; pure, inputs
    untouched."""
    check_compatible(params, grads)
    step = lr * grads.flat
    np.subtract(params.flat, step, out=step)
    return ParamSet.from_flat(params.layout, step)


def grad_normalize(grads: ParamSet, max_norm: float) -> ParamSet:
    """Scale the whole set so its global L2 norm is at most max_norm.

    A stack holds g networks' gradients; each slice is scaled by its own
    norm. The buffer is squared once and each array's block summed, the
    pairwise sum np.sum takes over that array, and the arrays' sums are
    added in name order, so every slice gets the bits of a call on its
    own set.

    Most sets are well within the bound and come back as they are, which
    one dot product of the buffer with itself settles. It and the
    per-array sums each lie within a relative P * 2**-52 of the exact
    sum of the P squares, so for P < 2**26 a dot product under
    (1 - 2**-20) times the squared bound puts the per-array norm under
    the bound too. That needs the squared bound to be a normal float;
    other bounds, and the sets the dot product does not settle, NaN ones
    included, take the per-array sums.
    """
    if max_norm <= 0.0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    flat = grads.flat
    bound = max_norm * max_norm
    if flat.shape[-1] < 2 ** 26 and 2.0 ** -1000 < bound < 2.0 ** 1000 and \
            (np.einsum("...i,...i->...", flat, flat)
             <= bound * (1.0 - 2.0 ** -20)).all():
        return grads
    squares = flat * flat
    first, *rest = grads.layout.spans
    total = np.add.reduce(squares[..., first], axis=-1)
    for span in rest:
        total = total + np.add.reduce(squares[..., span], axis=-1)
    total = np.sqrt(total)
    if (total <= max_norm).all():
        return grads
    # a slice within the bound scales by exactly 1.0 and keeps its bits;
    # a NaN norm scales by NaN
    scale = max_norm / np.maximum(total, max_norm)
    return ParamSet.from_flat(grads.layout,
                              flat * np.expand_dims(scale, -1))


def add_params(a: ParamSet, b: ParamSet) -> ParamSet:
    check_compatible(a, b)
    return ParamSet.from_flat(a.layout, a.flat + b.flat)


# ---------------------------------------------------------------------------
# serialization

def encode_array(arr: np.ndarray) -> dict:
    """JSON-safe encoding: little-endian float64 bytes in base64."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(obj: dict) -> np.ndarray:
    """The array of an encode_array record; a record of the wrong size or
    with a NaN or infinite entry is a FormatError."""
    try:
        raw = base64.b64decode(obj["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        arr = arr.reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed array record: {exc}") from exc
    if not np.isfinite(arr).all():
        raise FormatError(f"array record of shape {arr.shape} holds a "
                          f"non-finite entry")
    return arr


def encode_params(params: ParamSet) -> list:
    # a list of pairs keeps parameter order through canonical (sorted-key)
    # JSON, which ParamSet equality and aggregation both rely on
    return [[name, encode_array(arr)] for name, arr in params.items()]


def decode_params(obj: list) -> ParamSet:
    try:
        return ParamSet((name, decode_array(rec)) for name, rec in obj)
    except FormatError:
        raise
    except (TypeError, ValueError, InternalError) as exc:
        raise FormatError(f"malformed parameter list: {exc}") from exc
