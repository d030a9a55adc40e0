"""Mixture-of-experts forward path and training objective: feature
extraction, noisy top-k gating, expert evaluation, weighted aggregation,
the load-balance penalty, and the routed mixture's loss and gate
gradient.

Aggregation weights differ between inference and training. moe_forward
(inference) weights each sample's selected experts by the softmax over
its masked (top-k) gate row, so with k = 1 the output is exactly the
chosen expert's. Training (moe_backward, for FedGate and the
centralized mixture alike) weights them by their unmasked softmax
probabilities instead: the renormalized weights are constant 1 at k = 1
and would stop every gradient from the task loss into the gate, while
the unmasked probabilities keep the gate trainable at any k. The two
coincide at k = m, and predictions are unchanged either way because
positive scaling never moves an argmax.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, FormatError
from .numerics import (Layout, MlpSpec, ParamSet, activation_id,
                       activation_name, cross_entropy, decode_params,
                       encode_params, forward, softmax_backward)

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GateParams:
    """One linear gating map plus the training-time perturbation scale.

    params holds "w0" (latent_dim x num_experts) and "b0" (num_experts),
    the same layout a one-layer MlpSpec produces, so the gate can be
    trained and federated with the ordinary machinery. Gates that train
    in lockstep are a stack of such params (stack_params), stepped as a
    plain ParamSet and routed by _route; a GateParams holds one gate.
    """

    params: ParamSet
    noise_std: float = 0.0

    def __post_init__(self):
        if "w0" not in self.params or "b0" not in self.params:
            raise ConfigError("gate parameters need arrays 'w0' and 'b0'")
        w, b = self.params["w0"], self.params["b0"]
        if w.ndim != 2 or b.shape != w.shape[1:]:
            raise ConfigError(
                f"a 2-d gate needs w0 (latent_dim, num_experts) and b0 "
                f"(num_experts,), got w0 {w.shape} and b0 {b.shape}")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be >= 0: {self.noise_std}")

    @property
    def latent_dim(self) -> int:
        return self.params["w0"].shape[0]

    @property
    def num_experts(self) -> int:
        return self.params["w0"].shape[1]


def gate_spec(latent_dim: int, num_experts: int) -> MlpSpec:
    """The gate as a one-layer MLP over latents."""
    return MlpSpec((latent_dim, num_experts), (kernels.ACT_IDENTITY,))


@functools.lru_cache(maxsize=None)
def _gate_layout(latent_dim: int, num_experts: int) -> Layout:
    """gate_spec(latent_dim, num_experts).layout, built once per pair:
    moe_backward asks for it on every batch."""
    return gate_spec(latent_dim, num_experts).layout


def init_gate_params(latent_dim: int, num_experts: int, noise_std: float,
                     rng: np.random.Generator,
                     scale: float | None = None) -> GateParams:
    """Fresh gate weights drawn at the given scale (1/sqrt(latent_dim)
    when omitted).

    scale 0.0 starts the router neutral: selection is then driven by the
    logit noise, which explores experts uniformly until trained
    preferences grow past the noise floor. That avoids locking early
    routing onto arbitrary init logits.
    """
    std = 1.0 / np.sqrt(latent_dim) if scale is None else float(scale)
    params = ParamSet({
        "w0": std * rng.normal(size=(latent_dim, num_experts)),
        "b0": np.zeros(num_experts),
    })
    return GateParams(params=params, noise_std=noise_std)


@dataclass(frozen=True)
class RandomGate:
    """Data-independent gate drawing experts from a fixed distribution."""

    distribution: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.distribution, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise ConfigError("distribution must be a nonempty vector")
        # a NaN entry passes both comparisons, so finiteness is checked too
        if not np.isfinite(d).all() or (d < 0.0).any() or \
                abs(float(d.sum()) - 1.0) > 1e-9:
            raise ConfigError("distribution entries must be finite, "
                              "nonnegative and sum to 1")
        d.flags.writeable = False
        object.__setattr__(self, "distribution", d)

    @property
    def num_experts(self) -> int:
        return self.distribution.size


@dataclass(frozen=True)
class GateDecision:
    """Per-sample top-k selection.

    indices: (rows, k) distinct expert ids, in descending gate score;
    weights: (rows, k) the aggregation weight of each pick: gate_topk's
    softmax over each masked row, summing to 1, or a random gate's 1/k.
    """

    indices: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class NmoeModel:
    """Shared feature extractor, shared gate, one expert per client."""

    fe_spec: MlpSpec
    fe_params: ParamSet
    gate: GateParams | RandomGate
    expert_spec: MlpSpec
    experts: tuple[ParamSet, ...]

    def __post_init__(self):
        if not self.experts:
            raise ConfigError("a model needs at least one expert")
        if self.expert_spec.in_width != self.fe_spec.out_width:
            raise ConfigError(
                f"expert input width {self.expert_spec.in_width} does not "
                f"match the latent width {self.fe_spec.out_width}")
        if self.gate.num_experts != len(self.experts):
            raise ConfigError(
                f"gate is sized for {self.gate.num_experts} experts, model "
                f"has {len(self.experts)}")
        if isinstance(self.gate, GateParams) and \
                self.gate.latent_dim != self.fe_spec.out_width:
            raise ConfigError(
                f"gate latent width {self.gate.latent_dim} does not match "
                f"the extractor output {self.fe_spec.out_width}")

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def num_classes(self) -> int:
        return self.expert_spec.out_width


def _gate_logits(latents: np.ndarray, params: ParamSet, noise_std: float,
                 k: int, rng: np.random.Generator | None) -> np.ndarray:
    """The gate's logits, perturbed when an rng is given (gate_topk)."""
    m = params["w0"].shape[-1]
    if not 1 <= k <= m:
        raise ConfigError(f"k must be in [1, {m}], got {k}")
    x = np.ascontiguousarray(latents, dtype=np.float64)
    logits = kernels.dense_forward(x, params["w0"], params["b0"],
                                   kernels.ACT_IDENTITY)
    if rng is not None and noise_std > 0.0:
        logits += rng.normal(0.0, noise_std, size=logits.shape[-2:])
    return logits


def _route(latents: np.ndarray, params: ParamSet, noise_std: float, k: int,
           rng: np.random.Generator | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """gate_topk's (decision.indices, probabilities) for the gate params
    and noise_std of a GateParams, without the masked weights, which
    training never reads; same draws, same bits.

    params may also be a stack of g gates (stack_params: w0 (g,
    latent_dim, num_experts), b0 (g, num_experts)), which takes (g, rows,
    latent_dim) latents and gives (g, rows, ...) indices and
    probabilities. The stack draws one (rows, experts) noise array and
    adds it to every slice: the draw a lone gate would make from the same
    stream, so each slice matches its own 2-d gate_topk call.
    """
    logits = _gate_logits(latents, params, noise_std, k, rng)
    return kernels.topk_indices(logits, k), kernels.softmax_rows(logits)


def gate_topk(latents: np.ndarray, gate: GateParams, k: int,
              rng: np.random.Generator | None = None
              ) -> tuple[GateDecision, np.ndarray]:
    """Noisy top-k gate over a batch of latents.

    Passing an rng enables the Gaussian logit perturbation (training);
    None disables it (inference). Returns the decision together with the
    full-row softmax probabilities used by the load-balance loss. Ties at
    the selection boundary break toward the lowest expert index. At
    k = m every column is selected, so the weights are the full-row
    softmax.
    """
    m = gate.num_experts
    logits = _gate_logits(latents, gate.params, gate.noise_std, k, rng)
    probs = kernels.softmax_rows(logits)
    idx = kernels.topk_indices(logits, k)
    # rows flattened, so any leading shape works; each row keeps only
    # its selected columns
    flat, flat_idx = logits.reshape(-1, m), idx.reshape(-1, k)
    rows = np.arange(flat.shape[0])[:, None]
    masked = np.full_like(flat, -np.inf)
    masked[rows, flat_idx] = flat[rows, flat_idx]
    masked = masked.reshape(logits.shape)
    weights = np.take_along_axis(kernels.softmax_rows(masked), idx, axis=-1)
    return GateDecision(indices=idx, weights=weights), probs


def load_balance_loss(probs: np.ndarray
                      ) -> tuple[float | np.ndarray, np.ndarray]:
    """Balance penalty m * sum_i f_i * P_i over gate probabilities.

    f_i is the fraction of rows whose argmax is expert i (ties toward the
    lowest index) and carries no gradient; P_i is the column mean. The
    multiplier is the expert count m, which puts the minimum at 1 for
    uniform routing. Rows must be probability vectors, to within the
    tolerance of np.allclose.

    The sum runs over routed experts only: an expert with f_i = 0 adds an
    exact 0.0 for finite probabilities, so the loss equals the sum over
    all m columns bit for bit while the cost follows the batch, not m.

    (rows, m) probabilities give a float loss and a (rows, m) gradient;
    a stack (g, rows, m) gives g losses and a (g, rows, m) gradient, each
    slice reduced on its own with the same exact sums.
    """
    p = np.ascontiguousarray(probs, dtype=np.float64)
    if p.ndim < 2 or p.shape[-2] < 1:
        raise DataError(f"expected a nonempty 2-d array, got shape {p.shape}")
    n, m = p.shape[-2:]
    # np.allclose(row_sums, 1.0, atol=1e-6) written out over the worst
    # row; a NaN makes the worst row NaN, which fails it
    worst = np.maximum.reduce(np.abs(np.add.reduce(p, axis=-1) - 1.0),
                              axis=None)
    if np.minimum.reduce(p, axis=None) < 0.0 or not worst <= 1e-6 + 1e-5:
        raise DataError("rows must be probability vectors")
    mult = float(m)
    stack = p.reshape(-1, n, m)
    g = stack.shape[0]
    winners = stack.argmax(axis=-1) + np.arange(0, g * m, m)[:, None]
    counts = np.bincount(winners.ravel(), minlength=g * m).reshape(g, m)
    # exact accumulation keeps the fixtures bitwise (uniform routing over a
    # power-of-two batch gives exactly 1.0, full collapse exactly m); one
    # fsum per slice and routed column, then one per slice, on the float
    # arithmetic numpy would do: f_i = count / n, P_i = fsum / n
    cols = memoryview(stack.swapaxes(-1, -2)[counts > 0].reshape(-1))
    means = iter([math.fsum(cols[i:i + n]) / n
                  for i in range(0, len(cols), n)])
    losses = [mult * math.fsum([c / n * next(means) for c in row if c])
              for row in counts.tolist()]
    dprobs = (mult * (counts / n) / n)[:, None, :].repeat(n, axis=-2)
    if p.ndim == 2:
        return losses[0], dprobs[0]
    return (np.array(losses).reshape(p.shape[:-2]),
            dprobs.reshape(p.shape))


@dataclass(frozen=True)
class MoeForward:
    """Everything moe_forward produces for one batch."""

    logits: np.ndarray
    decision: GateDecision
    latents: np.ndarray


def moe_forward(model: NmoeModel, batch: np.ndarray, k: int,
                rng: np.random.Generator | None = None) -> MoeForward:
    """Run the full mixture on a batch for inference: no gate noise, only
    the selected experts are evaluated, and aggregation uses the
    masked-softmax weights. A random gate draws its picks from rng."""
    if isinstance(model.gate, RandomGate):
        return _moe_forward_random(model, batch, k, rng)
    latents = forward(model.fe_spec, model.fe_params, batch)
    decision, _ = gate_topk(latents, model.gate, k)
    return MoeForward(logits=_eval_mixture(model, latents, decision),
                      decision=decision, latents=latents)


def _eval_mixture(model: NmoeModel, latents: np.ndarray,
                  decision: GateDecision) -> np.ndarray:
    """Each row's selected experts weighted by the decision; only the
    selected experts run, each on the rows that chose it."""
    logits = np.zeros((latents.shape[0], model.num_classes))
    for e in range(model.num_experts):
        hit = decision.indices == e
        sel = hit.any(axis=1)
        if not sel.any():
            continue
        out_e = forward(model.expert_spec, model.experts[e], latents[sel])
        w_e = (decision.weights[sel] * hit[sel]).sum(axis=1)
        logits[sel] += w_e[:, None] * out_e
    return logits


def _moe_forward_random(model: NmoeModel, batch: np.ndarray, k: int,
                        rng: np.random.Generator | None) -> MoeForward:
    gate = model.gate
    m = gate.num_experts
    if not 1 <= k <= m:
        raise ConfigError(f"k must be in [1, {m}], got {k}")
    if int((gate.distribution > 0.0).sum()) < k:
        raise ConfigError(
            f"distribution has fewer than k={k} nonzero entries")
    if rng is None:
        raise ConfigError("a random gate needs an rng to draw experts")
    latents = forward(model.fe_spec, model.fe_params, batch)
    n = latents.shape[0]
    if k == 1:
        idx = rng.choice(m, size=n, p=gate.distribution).reshape(n, 1)
        idx = idx.astype(np.int64)
    else:
        idx = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            idx[i] = rng.choice(m, size=k, replace=False, p=gate.distribution)
    weights = np.full((n, k), 1.0 / k)
    decision = GateDecision(indices=idx, weights=weights)
    return MoeForward(logits=_eval_mixture(model, latents, decision),
                      decision=decision, latents=latents)


def moe_backward(latents: np.ndarray, probs: np.ndarray, idx: np.ndarray,
                 chosen: np.ndarray, labels: np.ndarray, lambda_load: float
                 ) -> tuple[float | np.ndarray, np.ndarray, ParamSet,
                            np.ndarray]:
    """Training loss of a routed mixture and its gate gradient.

    _route gave latents (rows, d) the probabilities probs (rows, m) and
    the picks idx (rows, k); chosen (k, rows, classes) holds the logits
    of each row's k picked experts. The mixture weights each pick by its
    unmasked probability (see the module docstring); the loss is its
    cross-entropy plus lambda_load times the load-balance penalty.

    Returns (loss, dlogits, gate_grads, dgate_logits): dlogits is the
    gradient on the mixture's logits, which the experts' backward reads;
    gate_grads holds w0 and b0 in one buffer of the gate's layout;
    dgate_logits, times w0 transposed, is the gate's share of the latent
    gradient.

    A stack of g gates takes (g, ...) latents, probs, idx and labels and
    (g, k, rows, classes) chosen, and gives g losses and stacked
    gradients, each slice the bits of its own 2-d call.
    """
    lead = idx.shape[:-1]
    # (..., rows) index arrays that broadcast against idx: probs[(*at,
    # idx)] is each pick's unmasked probability
    at = tuple(np.arange(size).reshape((size,) + (1,) * (len(lead) - axis))
               for axis, size in enumerate(lead))
    ce, dlogits = cross_entropy(
        kernels.combine_topk(chosen, probs[(*at, idx)]), labels)
    lb, dlb = load_balance_loss(probs)
    dprob = lambda_load * dlb
    # each pick's probability gets its expert's logits dotted with the
    # logit gradient; a row's picks are distinct, so one scatter adds
    # every slot's share
    dprob[(*at, idx)] += np.add.reduce(
        dlogits[..., None, :, :] * chosen, axis=-1).swapaxes(-1, -2)
    dgate_logits = softmax_backward(probs, dprob)
    layout = _gate_layout(latents.shape[-1], probs.shape[-1])
    flat = np.empty(latents.shape[:-2] + (layout.size,))
    grads = layout.views(flat)
    np.matmul(latents.swapaxes(-1, -2), dgate_logits, out=grads["w0"])
    np.add.reduce(dgate_logits, axis=-2, out=grads["b0"])
    return (ce + lambda_load * lb, dlogits, ParamSet.from_flat(layout, flat),
            dgate_logits)


# ---------------------------------------------------------------------------
# checkpoints

def _spec_to_jsonable(spec: MlpSpec) -> dict:
    return {"widths": list(spec.widths),
            "activations": [activation_name(a) for a in spec.activations]}


def _spec_from_jsonable(obj: dict) -> MlpSpec:
    return MlpSpec(tuple(int(w) for w in obj["widths"]),
                   tuple(activation_id(a) for a in obj["activations"]))


def save_model(model: NmoeModel, path, extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint; extra lands under "meta"."""
    if isinstance(model.gate, RandomGate):
        gate_obj = {"kind": "random",
                    "distribution": model.gate.distribution.tolist()}
    else:
        gate_obj = {"kind": "linear",
                    "params": encode_params(model.gate.params),
                    "noise_std": model.gate.noise_std}
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "nmoe-model",
        "fe_spec": _spec_to_jsonable(model.fe_spec),
        "fe_params": encode_params(model.fe_params),
        "gate": gate_obj,
        "expert_spec": _spec_to_jsonable(model.expert_spec),
        "experts": [encode_params(e) for e in model.experts],
        "meta": extra or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path) -> tuple[NmoeModel, dict]:
    """Read a checkpoint written by save_model; returns (model, meta).

    Every fault in the file's contents is a FormatError, also one the
    spec, gate and model validators report as a ConfigError (an unknown
    activation, a bad random-gate distribution, a gate sized for another
    expert count); their messages are kept."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or \
            doc.get("format_version") != CHECKPOINT_FORMAT_VERSION or \
            doc.get("kind") != "nmoe-model":
        raise FormatError(f"{path} is not a supported model checkpoint")
    try:
        gate_obj = doc["gate"]
        gate: GateParams | RandomGate
        if gate_obj["kind"] == "random":
            gate = RandomGate(np.asarray(gate_obj["distribution"]))
        else:
            gate = GateParams(params=decode_params(gate_obj["params"]),
                              noise_std=float(gate_obj["noise_std"]))
        model = NmoeModel(
            fe_spec=_spec_from_jsonable(doc["fe_spec"]),
            fe_params=decode_params(doc["fe_params"]),
            gate=gate,
            expert_spec=_spec_from_jsonable(doc["expert_spec"]),
            experts=tuple(decode_params(e) for e in doc["experts"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{path}: malformed checkpoint, missing or mistyped "
            f"{exc!r}") from exc
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: checkpoint meta must be an object")
    return model, meta
