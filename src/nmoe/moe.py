"""Mixture-of-experts forward path: feature extraction, noisy top-k
gating, expert evaluation, weighted aggregation, and the load-balance
penalty.

Aggregation weights differ between modes. In eval mode each sample's
output is the softmax over its masked (top-k) gate row times the
selected experts, so with k = 1 the output is exactly the chosen
expert's. In train mode the selected experts are scaled by their
unmasked softmax probabilities instead: the renormalized weights are
constant 1 at k = 1 and would stop every gradient from the task loss
into the gate, while the unmasked probabilities keep the gate trainable
at any k. The two coincide at k = m, and eval predictions are unchanged
either way because positive scaling never moves an argmax.

Train mode runs every expert on every row, so it holds the m experts as
one stacked set (StackedMoe, a ParamSet of (m, ...) arrays): the batch's
latents are broadcast to (m, rows, latent_dim), each layer of all m
experts is one batched matmul, and moe_backward returns the experts'
gradients as one stacked set that one grad_normalize(..., stacked=True)
and one sgd_step update. Every expert's slice gets the bits its own
2-d forward and backward would give. NmoeModel and checkpoints keep one
2-d set per expert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, FormatError, InternalError
from .numerics import (MlpSpec, ParamSet, Tape, activation_id,
                       activation_name, backward, decode_params,
                       encode_params, forward, softmax_backward,
                       stack_params, unstack_params)

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GateParams:
    """Linear gating map plus the training-time perturbation scale.

    params holds "w0" (latent_dim x num_experts) and "b0" (num_experts),
    the same layout a one-layer MlpSpec produces, so the gate can be
    trained and federated with the ordinary machinery. A stacked set
    (stack_params: w0 (g, latent_dim, num_experts), b0 (g, num_experts))
    holds g gates that train in lockstep.
    """

    params: ParamSet
    noise_std: float = 0.0

    def __post_init__(self):
        if "w0" not in self.params or "b0" not in self.params:
            raise ConfigError("gate parameters need arrays 'w0' and 'b0'")
        w, b = self.params["w0"], self.params["b0"]
        if w.ndim < 2 or b.shape != w.shape[:-2] + w.shape[-1:]:
            raise ConfigError(
                f"gate shapes do not line up: w0 {w.shape}, b0 {b.shape}")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be >= 0: {self.noise_std}")

    @property
    def latent_dim(self) -> int:
        return self.params["w0"].shape[-2]

    @property
    def num_experts(self) -> int:
        return self.params["w0"].shape[-1]


def gate_spec(latent_dim: int, num_experts: int) -> MlpSpec:
    """The gate as a one-layer MLP over latents."""
    return MlpSpec((latent_dim, num_experts), (kernels.ACT_IDENTITY,))


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
        if (d < 0.0).any() or abs(float(d.sum()) - 1.0) > 1e-9:
            raise ConfigError("distribution entries must be nonnegative and "
                              "sum to 1")
        d.flags.writeable = False
        object.__setattr__(self, "distribution", d)

    @property
    def num_experts(self) -> int:
        return self.distribution.size


@dataclass(frozen=True)
class GateDecision:
    """Per-sample top-k selection.

    indices: (rows, k) distinct expert ids, in descending gate score;
    weights: (rows, k) the aggregation weight of each pick. gate_topk
    gives the softmax over each masked row, summing to 1; train mode's
    moe_forward gives the unmasked probabilities it scales by.
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
        if isinstance(self.gate, GateParams) and \
                self.gate.params["w0"].ndim != 2:
            # a stacked gate trains in lockstep; a model routes with one
            raise ConfigError(
                f"a model needs one 2-d gate, got w0 of shape "
                f"{self.gate.params['w0'].shape}")
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


@dataclass(frozen=True)
class StackedMoe:
    """A mixture as train mode runs it: a parametric gate and the m
    experts as one stacked set of (m, ...) arrays (stack_params)."""

    fe_spec: MlpSpec
    fe_params: ParamSet
    gate: GateParams
    expert_spec: MlpSpec
    experts: ParamSet

    @classmethod
    def from_model(cls, model: NmoeModel) -> "StackedMoe":
        return cls(model.fe_spec, model.fe_params, model.gate,
                   model.expert_spec, stack_params(model.experts))

    def to_model(self) -> NmoeModel:
        return NmoeModel(fe_spec=self.fe_spec, fe_params=self.fe_params,
                         gate=self.gate, expert_spec=self.expert_spec,
                         experts=tuple(unstack_params(self.experts)))


def _gate_logits(latents: np.ndarray, gate: GateParams, k: int,
                 rng: np.random.Generator | None) -> np.ndarray:
    """The gate's logits, perturbed when an rng is given (gate_topk)."""
    m = gate.num_experts
    if not 1 <= k <= m:
        raise ConfigError(f"k must be in [1, {m}], got {k}")
    x = np.ascontiguousarray(latents, dtype=np.float64)
    logits = kernels.dense_forward(x, gate.params["w0"], gate.params["b0"],
                                   kernels.ACT_IDENTITY)
    if rng is not None and gate.noise_std > 0.0:
        logits = logits + rng.normal(0.0, gate.noise_std,
                                     size=logits.shape[-2:])
    return logits


def _route(latents: np.ndarray, gate: GateParams, k: int,
           rng: np.random.Generator | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """gate_topk's (decision.indices, probabilities) without the masked
    weights, which training never reads; same draws, same bits."""
    logits = _gate_logits(latents, gate, k, rng)
    return kernels.topk_indices(logits, k), kernels.softmax_rows(logits)


def gate_topk(latents: np.ndarray, gate: GateParams, k: int,
              rng: np.random.Generator | None = None
              ) -> tuple[GateDecision, np.ndarray]:
    """Noisy top-k gate over a batch of latents.

    Passing an rng enables the Gaussian logit perturbation (training);
    None disables it (inference). Returns the decision together with the
    full-row softmax probabilities used by the load-balance loss. Ties at
    the selection boundary break toward the lowest expert index.

    A stacked gate takes (g, rows, latent_dim) latents and gives (g, rows,
    ...) decisions and probabilities. The stack draws one (rows, experts)
    noise array and adds it to every slice: the draw a lone gate would
    make from the same stream, so each slice matches its own 2-d call.
    """
    m = gate.num_experts
    logits = _gate_logits(latents, gate, k, rng)
    probs = kernels.softmax_rows(logits)
    idx = kernels.topk_indices(logits, k)
    if k == m:
        masked = logits
    else:
        # every row of every slice, flattened, with its selected columns
        flat, flat_idx = logits.reshape(-1, m), idx.reshape(-1, k)
        rows = np.arange(flat.shape[0])[:, None]
        masked = np.full_like(flat, -np.inf)
        masked[rows, flat_idx] = flat[rows, flat_idx]
        masked = masked.reshape(logits.shape)
    weights = np.take_along_axis(kernels.softmax_rows(masked), idx, axis=-1)
    return GateDecision(indices=idx, weights=weights), probs


def load_balance_loss(probs: np.ndarray, validate: bool = True
                      ) -> tuple[float | np.ndarray, np.ndarray]:
    """Balance penalty m * sum_i f_i * P_i over gate probabilities.

    f_i is the fraction of rows whose argmax is expert i (ties toward the
    lowest index) and carries no gradient; P_i is the column mean. The
    multiplier is the expert count m, which puts the minimum at 1 for
    uniform routing. Pass validate=False to skip the probability-row
    check (finite-difference probes perturb single entries).

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
    if validate:
        # np.allclose(row_sums, 1.0, atol=1e-6) written out; NaN fails
        err = np.abs(p.sum(axis=-1) - 1.0)
        if (p < 0.0).any() or not (err <= 1e-6 + 1e-5).all():
            raise DataError("rows must be probability vectors")
    mult = float(m)
    stack = p.reshape(-1, n, m)
    g = stack.shape[0]
    winners = np.argmax(stack, axis=-1) + m * np.arange(g)[:, None]
    counts = np.bincount(winners.ravel(), minlength=g * m).reshape(g, m)
    f = counts.astype(np.float64) / n
    used = counts > 0
    # exact accumulation keeps the fixtures bitwise (uniform routing over a
    # power-of-two batch gives exactly 1.0, full collapse exactly m); one
    # fsum per slice and routed column, then one per slice
    cols = stack.swapaxes(-1, -2)[used]
    col_mean = np.array([math.fsum(col) for col in cols.tolist()]) / n
    terms = (f[used] * col_mean).tolist()
    ends = np.cumsum(used.sum(axis=-1)).tolist()
    losses = [mult * math.fsum(terms[start:end])
              for start, end in zip([0] + ends, ends)]
    dprobs = np.repeat((mult * f / n)[:, None, :], n, axis=-2)
    if p.ndim == 2:
        return losses[0], dprobs[0]
    return (np.array(losses).reshape(p.shape[:-2]),
            dprobs.reshape(p.shape))


@dataclass(frozen=True)
class MoeForward:
    """Everything moe_forward produces for one batch."""

    logits: np.ndarray
    decision: GateDecision
    gate_probs: np.ndarray
    latents: np.ndarray
    tapes: "MoeTapes | None" = None


@dataclass(frozen=True)
class MoeTapes:
    """Activation records retained in train mode for moe_backward; the
    expert tape is one stacked record whose output is (experts, rows,
    classes)."""

    fe_tape: Tape
    expert_tape: Tape


def moe_forward(model: NmoeModel | StackedMoe, batch: np.ndarray, k: int,
                mode: str = "eval",
                rng: np.random.Generator | None = None) -> MoeForward:
    """Run the full mixture on a batch.

    mode "eval": no gate noise, only the selected experts are evaluated,
    aggregation uses the masked-softmax weights. mode "train": gate noise
    enabled when an rng is given, every expert runs on every row as one
    stack so tapes can back all gradients, aggregation scales selected
    experts by their unmasked probabilities (see the module docstring).
    Train mode takes a StackedMoe, or an NmoeModel whose experts it
    stacks.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if isinstance(model.gate, RandomGate):
        return _moe_forward_random(model, batch, k, rng)
    if mode == "eval":
        latents = forward(model.fe_spec, model.fe_params, batch)
        decision, probs = gate_topk(latents, model.gate, k)
        return MoeForward(logits=_eval_mixture(model, latents, decision),
                          decision=decision, gate_probs=probs,
                          latents=latents)
    if isinstance(model, NmoeModel):
        model = StackedMoe.from_model(model)
    latents, fe_tape = forward(model.fe_spec, model.fe_params, batch,
                               want_tape=True)
    idx, probs = _route(latents, model.gate, k, rng)
    m = model.gate.num_experts
    outputs, expert_tape = forward(
        model.expert_spec, model.experts,
        np.broadcast_to(latents, (m,) + latents.shape), want_tape=True)
    combine_w = np.take_along_axis(probs, idx, axis=-1)
    logits = kernels.combine_topk(outputs, idx, combine_w)
    return MoeForward(logits=logits,
                      decision=GateDecision(indices=idx, weights=combine_w),
                      gate_probs=probs, latents=latents,
                      tapes=MoeTapes(fe_tape, expert_tape))


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
    probs = np.tile(gate.distribution, (n, 1))
    return MoeForward(logits=_eval_mixture(model, latents, decision),
                      decision=decision, gate_probs=probs, latents=latents)


@dataclass(frozen=True)
class MoeGrads:
    """Gradients of a train-mode batch; experts is one stacked set."""

    fe: ParamSet
    gate: ParamSet
    experts: ParamSet


def moe_backward(model: NmoeModel | StackedMoe, fwd: MoeForward,
                 dlogits: np.ndarray,
                 dprobs: np.ndarray | None = None) -> MoeGrads:
    """Backpropagate through a train-mode moe_forward.

    dlogits is the gradient on the aggregated logits; dprobs optionally
    adds a gradient on the full gate probabilities (the load-balance
    term). Returns gradients for the extractor, the gate, and all experts
    as one stacked set. The latent gradient sums the gate's term, then
    each expert's in index order.
    """
    if fwd.tapes is None:
        raise InternalError("moe_backward needs tapes from train mode")
    if not isinstance(model.gate, GateParams):
        raise ConfigError("only a parametric gate has gradients")
    tapes = fwd.tapes
    n, m = fwd.gate_probs.shape
    rows = np.arange(n)
    selected = np.zeros((n, m), dtype=bool)
    selected[rows[:, None], fwd.decision.indices] = True
    outputs = tapes.expert_tape.records[-1]

    # d(loss)/d(prob of expert e) from the aggregation, selected rows only
    # (C order, so the softmax backward sums each row as before)
    dprob_total = np.where(
        selected,
        np.ascontiguousarray((dlogits * outputs).sum(axis=-1).T), 0.0)
    if dprobs is not None:
        dprob_total += dprobs
    dgate_logits = softmax_backward(fwd.gate_probs, dprob_total)
    dwg = fwd.latents.T @ dgate_logits
    dbg = dgate_logits.sum(axis=0)
    dlatents = dgate_logits @ model.gate.params["w0"].T

    upstream = np.where(selected.T[:, :, None],
                        fwd.gate_probs.T[:, :, None] * dlogits, 0.0)
    expert_grads, dlat = backward(tapes.expert_tape, upstream)
    for e in range(m):
        dlatents += dlat[e]
    fe_grads, _ = backward(tapes.fe_tape, dlatents)
    return MoeGrads(fe=fe_grads,
                    gate=ParamSet({"w0": dwg, "b0": dbg}),
                    experts=expert_grads)


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
    """Read a checkpoint written by save_model; returns (model, meta)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION or \
            doc.get("kind") != "nmoe-model":
        raise FormatError(f"{path} is not a supported model checkpoint")
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
    return model, doc.get("meta", {})
