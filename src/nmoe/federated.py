"""Three-stage federated training for the networked mixture of experts.

Stage 1 learns the shared feature extractor, either supervised with local
cross-entropy heads (FedCE) or self-supervised with spectral contrastive
losses over differentially private correlation shares (FedSC). Stage 2
trains one personalized expert per client on frozen features with no
communication. Stage 3 produces the shared gate: sampled (RanGate), ring
trained on pseudo-labels (RollGate), or federated-averaged with a
load-balance penalty (FedGate).

Randomness discipline: every stream derives from (seed, component, round,
client). Local-training streams use client slot 0 for every client, so
clients holding identical shards follow identical trajectories and a
single-client federation reproduces its centralized counterpart bit for
bit (the one-dataset trainers of tests/oracles.py run the same steps
under _epochs with the same derivations). Correlation noise and pseudo-label
assignment keep per-client streams.

A federation's train shards share one size, which every stage checks
(the partition gives every client the same number of train rows). Since
clients share a stream, they draw the same batch rows (in FedSC the same
augmentations, in FedGate the same gate noise), so FedCE, FedSC, stage
2, FedGate and the FedAvg-classifier baseline train all their clients,
or a round's participants, as one computation over a leading client
axis: one stacked ParamSet stepped by batched matmuls. Every slice gets
the bits its own per-client loop would give; in FedGate only the top-k
picks and balance terms differ per slice.
RollGate, a sequential ring, trains one client at a time. FedCE, FedSC,
FedGate and the FedAvg-classifier baseline share one round driver,
_fedavg_rounds, for finiteness checks, averaging and round reports.
Every trainer is a per-batch step under one batch driver, _epochs, which
draws each epoch's batch order and sums the row-weighted batch losses:
_ce_step for every cross-entropy objective (FedCE's over each client's
extractor and head chained into one network), _spectral_step for FedSC,
_gate_step for FedGate, and the centralized mixture's step in
nmoe.pipeline.

_fedavg_rounds is the one place that splits a stack over two CPUs, so
FedCE, FedSC, FedGate and the FedAvg-classifier baseline all split by
one rule: when the process may use two CPUs, no other _Peer is live
(with baselines, the centralized mixture's child already uses the
second CPU) and a call has two slices or more, this process trains the
first ceil(g/2) slices and the stage's one _Peer the rest, from the
same derived streams. A stage hands the driver its per-slice functions,
fn(r, flat, positions, *per_slice), and the peer, forked once after the
stage's constant arrays exist, inherits those arrays; it sends back
(g, ...) arrays, which join in position order. A slice's bits do not
depend on the stack around it, so the result is the one stack's, bit
for bit. Otherwise the same functions train the whole stack here and
nothing forks. RollGate and stage 2 train in this process only.

Stages 2 and 3 never see the extractor. run_pipeline builds the
frozen extractor's latents of every train shard once, with
frozen_latents, as one read-only (m, n, d) array, and hands it to
stage 2, RollGate and FedGate; each checks its shape. FedGate keeps
those latents but no table of the frozen experts' logits. Each batch
runs one forward per routed expert over the rows routed to it, padded
to a multiple of TILE rows, which gives every row the bits of the
expert's forward over the whole shard. A shard's last n mod TILE rows,
which no aligned block reaches, come from one stacked forward per
batch, one slice per (shard, expert) pair its tail picks name, over
that shard's last TILE + n mod TILE rows (see TILE).

Communication accounting (4-byte wire scalars by default): FedCE moves
the extractor down and up for every client each round; FedSC adds one
correlation matrix up and one aggregate down per client each round;
stage 2 moves nothing; RollGate moves the gate once per ring hop; FedGate
ships every expert to the training host once, then moves the gate down
and up for each participant each round.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from dataclasses import dataclass

import numpy as np

from . import seeding
from .datasets import AugmentSpec, Shard, apportion, augment, draw_views
from .errors import ConfigError, DataError, InternalError, TrainingError
from .moe import GateParams, RandomGate, _route, gate_spec, moe_backward
from .numerics import (MlpSpec, ParamSet, add_params, backward,
                       chain_specs, check_compatible, cross_entropy, forward,
                       grad_normalize, init_mlp_params, params_digest,
                       sgd_step, stack_params, unstack_params)
from .seeding import derive_rng

ROLLGATE_LOSS_TOL = 1e-4
DEFAULT_BYTES_PER_SCALAR = 4


@dataclass(frozen=True)
class FedRoundReport:
    """One synchronization round as it lands in the training log.

    wall_clock is informational only and never serialized, so artifacts
    stay byte-identical across reruns.
    """

    stage: str
    round_index: int
    participants: tuple[int, ...]
    client_losses: dict[int, float]
    params_digest: str
    bytes_sent: int
    wall_clock: float


@dataclass(frozen=True)
class Stage1Result:
    fe_params: ParamSet
    heads: tuple[ParamSet, ...] | None
    reports: tuple[FedRoundReport, ...]


@dataclass(frozen=True)
class Stage2Result:
    experts: tuple[ParamSet, ...]
    reports: tuple[FedRoundReport, ...]


@dataclass(frozen=True)
class Stage3Result:
    """FedGate's one-time expert shipping lands in the first report's
    bytes_sent, so total traffic is the plain sum over reports."""

    gate: GateParams | RandomGate
    reports: tuple[FedRoundReport, ...]


def classifier_round_bytes(num_clients: int, fe_size: int,
                           bytes_per_scalar: int) -> int:
    return 2 * num_clients * fe_size * bytes_per_scalar


def spectral_round_bytes(num_clients: int, fe_size: int, latent_dim: int,
                         bytes_per_scalar: int) -> int:
    share = 2 * num_clients * latent_dim * latent_dim * bytes_per_scalar
    return classifier_round_bytes(num_clients, fe_size, bytes_per_scalar) \
        + share


def rollgate_pass_bytes(num_clients: int, gate_size: int,
                        bytes_per_scalar: int) -> int:
    return num_clients * gate_size * bytes_per_scalar


def fedgate_setup_bytes(num_experts: int, expert_size: int,
                        bytes_per_scalar: int) -> int:
    return num_experts * expert_size * bytes_per_scalar


def fedgate_round_bytes(num_participants: int, gate_size: int,
                        bytes_per_scalar: int) -> int:
    return 2 * num_participants * gate_size * bytes_per_scalar


def fedavg(param_sets, weights) -> ParamSet:
    """Elementwise weighted average with normalized weights, one
    weighted buffer added after another.

    Accumulation runs in list order so results are reproducible; a single
    set is returned bit-identically (its weight normalizes to exactly
    1.0).
    """
    sets = list(param_sets)
    if not sets:
        raise ConfigError("fedavg requires at least one parameter set")
    w = np.asarray(list(weights), dtype=np.float64)
    if w.shape != (len(sets),):
        raise ConfigError(
            f"got {len(sets)} parameter sets but {w.size} weights")
    if (w < 0.0).any() or not w.sum() > 0.0:
        raise ConfigError("weights must be nonnegative with positive sum")
    for other in sets[1:]:
        check_compatible(sets[0], other)
    norm = w / w.sum()
    acc = norm[0] * sets[0].flat
    for i, ps in enumerate(sets[1:], start=1):
        acc += norm[i] * ps.flat
    return ParamSet.from_flat(sets[0].layout, acc)


def _check_clients(clients) -> None:
    if not clients:
        raise ConfigError("at least one client is required")
    ids = [s.client_id for s in clients]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate client ids: {sorted(ids)}")
    _check_sizes([s.train for s in clients])


def _check_sizes(datasets) -> None:
    sizes = sorted({d.num_samples for d in datasets})
    if len(sizes) > 1:
        raise DataError(f"train shards must share one size, got {sizes}")


def _check_latents(latents: np.ndarray, clients, width: int) -> None:
    want = (len(clients), clients[0].train.num_samples, width)
    if latents.shape != want:
        raise ConfigError(f"latents must have shape (clients, rows, width) "
                          f"= {want}, got {latents.shape}")


def _check_schedule(rounds: int, epochs: int, lr: float,
                    batch_size: int) -> None:
    if rounds < 1 or epochs < 1:
        raise ConfigError(
            f"rounds and epochs must be >= 1, got {rounds} and {epochs}")
    if not lr > 0.0:
        raise ConfigError(f"lr must be positive, got {lr}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


def _check_finite(loss: float, stage: str, client: int, round_index: int):
    if not math.isfinite(loss):
        raise TrainingError(
            f"client {client} loss became non-finite in {stage} "
            f"round {round_index}")


def _stack_shards(clients):
    """(features, labels) of the clients' equal-size train shards stacked
    along a leading client axis."""
    return (np.stack([s.train.features for s in clients]),
            np.stack([s.train.labels for s in clients]))


def frozen_latents(fe_spec: MlpSpec, fe_params: ParamSet,
                   datasets) -> np.ndarray:
    """The frozen extractor's latents of equal-size datasets, (m, n, d):
    each dataset's forward, written into its slice of one preallocated
    array, which is returned read-only. Stages 2 and 3 train on it and
    never see the extractor."""
    _check_sizes(datasets)
    latents = np.empty((len(datasets), datasets[0].num_samples,
                        fe_spec.out_width))
    for out, data in zip(latents, datasets):
        out[...] = forward(fe_spec, fe_params, data.features)
    latents.flags.writeable = False
    return latents


def _fedavg_rounds(stage: str, clients, params: ParamSet, rounds: int,
                   train_round, served, round_bytes, client_loss=np.mean):
    """Rounds of federated averaging starting from params, the one place
    that splits a stack over two CPUs.

    train_round(r, params, split) trains round r's participants from
    params as one stack and returns their positions in clients, in client
    order, the trained (g, ...) ParamSet and their (g, epochs) local-epoch
    losses. It trains through split(fn, r, flat, positions, *per_slice),
    which returns fn(r, flat, positions, *per_slice) for fn one of the
    stage's served functions: a tuple of (g, ...) arrays, row i for the
    participant at positions[i], given the round's flat params and
    per_slice arrays of (g, ...) rows. positions is a range, whose slices
    stay ranges and so slice the stage's arrays as views, or an int array.

    When the process may use two CPUs and no other _Peer is live, a call
    over g >= 2 positions runs fn over the first ceil(g/2) here while the
    stage's _Peer runs it over the rest, from the same derived streams,
    and the halves join in position order. The peer is forked at the
    first such call, after the stage's constant arrays exist, so it
    inherits them; requests carry only flat, positions and per_slice
    rows. A slice's bits do not depend on the stack around it, so the
    join gives the bits of one call over all g. Otherwise fn runs over
    all g here and nothing forks.

    The losses are checked client by client, so a divergence names the
    client a per-client loop would have stopped at; the slices are
    averaged by shard size. round_bytes(r, n, size) gives the round's
    traffic for n participants and a model of size scalars; client_loss
    reduces a client's epoch losses for the report. Returns the final
    params and the reports.
    """
    sizes = [float(s.train.num_samples) for s in clients]
    spare = _two_cpus() and not _Peer.live
    peer = None

    def split(fn, r, flat, positions, *per_slice):
        nonlocal peer
        half = -(-len(positions) // 2)
        if not spare or half == len(positions):
            return fn(r, flat, positions, *per_slice)
        if peer is None:
            peer = _Peer(lambda i, *args: served[i](*args),
                         f"the {stage} peer")
        peer.ask(served.index(fn), r, flat, positions[half:],
                 *(a[half:] for a in per_slice))
        mine = fn(r, flat, positions[:half], *(a[:half] for a in per_slice))
        return tuple(np.concatenate(pair)
                     for pair in zip(mine, peer.answer()))

    reports = []
    try:
        for r in range(rounds):
            t0 = time.perf_counter()
            positions, stack, epoch_losses = train_round(r, params, split)
            ids = [clients[c].client_id for c in positions]
            losses = epoch_losses.tolist()
            for client, client_losses in zip(ids, losses):
                for loss in client_losses:
                    _check_finite(loss, stage, client, r)
            params = fedavg(unstack_params(stack),
                            [sizes[c] for c in positions])
            reports.append(FedRoundReport(
                stage=stage, round_index=r, participants=tuple(ids),
                client_losses={c: float(client_loss(v))
                               for c, v in zip(ids, losses)},
                params_digest=params_digest(params),
                bytes_sent=round_bytes(r, len(ids), params.size()),
                wall_clock=time.perf_counter() - t0))
    finally:
        if peer is not None:
            peer.close()
    return params, tuple(reports)


def _two_cpus() -> bool:
    """Whether this process may run on more than one CPU. A platform
    that cannot tell (no os.sched_getaffinity, as on macOS) counts as
    one."""
    return hasattr(os, "sched_getaffinity") and \
        len(os.sched_getaffinity(0)) > 1


class _Peer:
    """fn, answering requests in a child forked once.

    The child inherits everything this process held when it forked, so
    fn may close over arrays of any size; only the requests and replies
    are copied, pickled through os.pipe. ask(*args) hands one request
    over and returns; answer() waits for the oldest unanswered one's
    fn(*args) and returns it, or raises the exception that call raised,
    or InternalError with the child's exit code if it ended first.
    close() kills the child and reaps it. The child runs the numpy and
    BLAS this process loaded, so its bits are those of the same call
    here, and it always ends with os._exit, so no exit hook runs twice.
    """

    live = 0  # peers forked and not yet reaped

    def __init__(self, fn, name: str):
        self.name = name
        inbox, requests = os.pipe()
        replies, outbox = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (inbox, requests, replies, outbox):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(requests)
                os.close(replies)
                _serve(fn, inbox, outbox)
                status = 0
            finally:
                os._exit(status)
        _Peer.live += 1
        os.close(inbox)
        os.close(outbox)
        self._requests = os.fdopen(requests, "wb")
        self._replies = os.fdopen(replies, "rb")

    def ask(self, *args) -> None:
        try:
            pickle.dump(args, self._requests, pickle.HIGHEST_PROTOCOL)
            self._requests.flush()
        except BrokenPipeError:
            raise self._ended() from None

    def answer(self):
        try:
            error, value = pickle.load(self._replies)
        except EOFError:
            raise self._ended() from None
        if error is not None:
            raise error
        return value

    def _ended(self) -> InternalError:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        _Peer.live -= 1
        return InternalError(f"{self.name} ended with code "
                             f"{os.waitstatus_to_exitcode(status)}")

    def close(self) -> None:
        """Kill the child unless it was reaped, reap it, close the pipes."""
        if self.pid is not None:
            os.kill(self.pid, 9)  # SIGKILL; the signal module is not loaded
            os.waitpid(self.pid, 0)
            self.pid = None
            _Peer.live -= 1
        self._replies.close()
        try:
            self._requests.close()
        except BrokenPipeError:
            pass  # a request the killed child never read; the fd is closed


def _serve(fn, inbox: int, outbox: int) -> None:
    """A _Peer child's loop: answer each request read from inbox with
    (None, fn(*args)), or (the exception, None), on outbox, until inbox
    ends."""
    with os.fdopen(inbox, "rb") as requests, \
            os.fdopen(outbox, "wb") as replies:
        while True:
            try:
                args = pickle.load(requests)
            except EOFError:
                return
            try:
                reply = (None, fn(*args))
            except Exception as exc:
                reply = (exc, None)
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()


def _digest_group(param_sets) -> str:
    h = hashlib.sha256()
    for ps in param_sets:
        h.update(params_digest(ps).encode())
    return h.hexdigest()


def _batches(n: int, batch_size: int, rng):
    """One epoch's batches of row indices, (b,) each. Given a list of g
    streams instead of one, every stream draws its own order and the
    batches are (g, b), row i for slice i."""
    if isinstance(rng, np.random.Generator):
        order = rng.permutation(n)
    else:
        order = np.stack([r.permutation(n) for r in rng])
    for start in range(0, n, batch_size):
        yield order[..., start:start + batch_size]


def _epochs(params, epochs: int, n: int, batch_size: int, rng, step):
    """The one batch driver: epochs passes over n rows, each drawing its
    batch order from rng (a list of g streams gives (g, b) rows, see
    _batches) and stepping params = step(params, rows), which returns the
    new params and the batch loss, a float or a (g,) array. Returns the
    params and the row-weighted epoch losses, (epochs,) or (g, epochs)."""
    losses = []
    for _ in range(epochs):
        total = 0.0
        for rows in _batches(n, batch_size, rng):
            params, loss = step(params, rows)
            total += loss * rows.shape[-1]
        losses.append(total / n)
    return params, np.stack(losses, axis=-1)


def _take_rows(a: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """a's entries at rows along axis: (b,) rows pick the same rows of
    every slice, (g, b) rows pick rows[i] of slice i."""
    if rows.ndim == 1:
        return a.take(rows, axis=axis)
    return np.take_along_axis(a, rows if axis == -1 else rows[..., None],
                              axis=axis)


def _ce_step(spec: MlpSpec, inputs: np.ndarray, labels: np.ndarray,
             lr: float):
    """_epochs' step of a network's cross-entropy on fixed inputs. A
    stack takes (g, n, width) inputs and (g, n) labels, every slice
    stepping on the same (b,) rows, or on its own rows of (g, b)."""
    def step(params, rows):
        logits, tape = forward(spec, params, _take_rows(inputs, rows, -2),
                               want_tape=True)
        loss, dlogits = cross_entropy(logits, _take_rows(labels, rows, -1))
        grads, _ = backward(tape, dlogits, input_grad=False)
        return sgd_step(params, grads, lr), loss
    return step


def _chain_params(spec: MlpSpec, fe: ParamSet, head: ParamSet) -> ParamSet:
    """fe's parameters then head's, in spec's layout; one extractor is
    broadcast over a stack of heads."""
    fe_flat = np.broadcast_to(fe.flat, head.stack_shape + (fe.layout.size,))
    return ParamSet.from_flat(spec.layout,
                              np.concatenate([fe_flat, head.flat], axis=-1))


def _split_chain(params: ParamSet, fe_spec: MlpSpec, head_spec: MlpSpec):
    """Zero-copy views of a chained set's extractor and head parts."""
    split = fe_spec.layout.size
    return (ParamSet.from_flat(fe_spec.layout, params.flat[..., :split]),
            ParamSet.from_flat(head_spec.layout, params.flat[..., split:]))


def spectral_contrastive_local_loss(z1: np.ndarray, z2: np.ndarray,
                                    rbar: np.ndarray, q: float):
    """Spectral contrastive loss of one client's minibatch views.

    With cross-view estimate Rp = mean of z1 z2^T and pooled second
    moment R = mean of z z^T over both views, the loss is
    -Tr(Rp) + (q/2) ||R||_F^2 + (1-q) Tr(R rbar), where rbar is the
    held-fixed aggregate of the other clients' shares and q the client's
    dataset fraction. Returns the loss and its gradients for both views;
    rbar is treated as a constant.

    Stacked views (g, b, d) take g aggregates (g, d, d) under the one
    weight q, and give an array of g losses, each slice reduced on its
    own.
    """
    z1 = np.ascontiguousarray(z1, dtype=np.float64)
    z2 = np.ascontiguousarray(z2, dtype=np.float64)
    if z1.ndim < 2 or z1.shape != z2.shape:
        raise ConfigError(
            f"views must share one shape of rows, got {z1.shape} and "
            f"{z2.shape}")
    lead, (b, d) = z1.shape[:-2], z1.shape[-2:]
    rbar = np.asarray(rbar, dtype=np.float64)
    if rbar.shape != lead + (d, d):
        raise ConfigError(
            f"aggregate matrix must be {lead + (d, d)}, got {rbar.shape}")
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"sample weight must lie in (0, 1], got {q}")
    rp_trace = _slice_sums(z1 * z2) / b
    rhat = (_t(z1) @ z1 + _t(z2) @ z2) / (2.0 * b)
    quad = _slice_sums(rhat * rhat)
    cross = _slice_sums(rhat * _t(rbar))
    loss = -rp_trace + 0.5 * q * quad + (1.0 - q) * cross
    # rhat enters both trailing terms; symmetrized right-factors give the
    # exact derivative of the expression as computed
    coupling = q * (rhat + _t(rhat)) + (1.0 - q) * (rbar + _t(rbar))
    return loss, _view_grad(z1, z2, coupling, b), \
        _view_grad(z2, z1, coupling, b)


def _view_grad(z, z_other, coupling, b):
    """((z @ coupling) * 0.5 - z_other) / b in one buffer: the bits of
    (-z_other + 0.5 * (z @ coupling)) / b, since -a + s == s - a."""
    grad = z @ coupling
    grad *= 0.5
    grad -= z_other
    grad /= b
    return grad


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _slice_sums(a: np.ndarray):
    """np.sum over the trailing two axes: a float for a 2-d array, one
    sum per slice of a stack, each the same pairwise sum over the slice's
    contiguous block as np.sum of that slice."""
    sums = a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)
    return float(sums) if a.ndim == 2 else sums


def compute_correlation_share(fe_spec: MlpSpec, fe: ParamSet, shard: Shard,
                              aug_spec: AugmentSpec, dp_noise_std: float,
                              rng: np.random.Generator) -> np.ndarray:
    """A client's share: the (d, d) full-shard latent correlation under
    the current extractor.

    Draws both augmented views, so the noise draw that follows sits where
    it always has on the stream, but applies only the first; symmetrizes
    the Gram estimate, then adds elementwise Gaussian noise when
    dp_noise_std > 0.
    """
    features = shard.train.features
    view, _ = draw_views(aug_spec, features.shape, rng)
    z = forward(fe_spec, fe, view.apply(features))
    r = z.T @ z / z.shape[0]
    if np.abs(r - r.T).max() > 1e-9:
        raise InternalError("correlation estimate lost symmetry")
    r = 0.5 * (r + r.T)
    if dp_noise_std > 0.0:
        r = r + rng.normal(0.0, dp_noise_std, size=r.shape)
    return r


def _spectral_step(fe_spec: MlpSpec, features: np.ndarray,
                   aug_spec: AugmentSpec, rbar: np.ndarray, q: float,
                   lr: float, rng: np.random.Generator):
    """_epochs' step of the spectral-contrastive loss on two augmented
    views of the batch.

    rng is the stream _epochs draws the batch order from; each step then
    draws the augmentations of a (rows, width) batch from it: view-1
    noise and mask, view-2 noise and mask. Stacks like _ce_step:
    (g, n, width) features and g aggregates under one weight q, every
    client applying the same draws to its own rows.
    """
    def step(fe, rows):
        x1, x2 = augment(aug_spec, features.take(rows, axis=-2), rng)
        z1, tape1 = forward(fe_spec, fe, x1, want_tape=True)
        z2, tape2 = forward(fe_spec, fe, x2, want_tape=True)
        loss, dz1, dz2 = spectral_contrastive_local_loss(z1, z2, rbar, q)
        g1, _ = backward(tape1, dz1, input_grad=False)
        g2, _ = backward(tape2, dz2, input_grad=False)
        return sgd_step(fe, add_params(g1, g2), lr), loss
    return step


def stage1_fedce(clients, fe_spec: MlpSpec, head_spec: MlpSpec, rounds: int,
                 local_epochs: int, lr: float, seed: int, *,
                 batch_size: int = 64,
                 bytes_per_scalar: int = DEFAULT_BYTES_PER_SCALAR
                 ) -> Stage1Result:
    """Federated supervised pretraining of the shared extractor.

    Every round each client minimizes local cross-entropy through its own
    head for the given epochs; extractors are then averaged with weights
    proportional to shard sizes. Heads never leave their clients; they
    are returned with the extractor. Each round's (m, P) stack of
    chained networks holds the averaged extractor, then a client's head.
    On two CPUs the upper half of the clients trains in the stage's peer
    (see _fedavg_rounds), which gets their heads with the request.
    """
    _check_clients(clients)
    _check_schedule(rounds, local_epochs, lr, batch_size)
    spec = chain_specs(fe_spec, head_spec)
    m = len(clients)
    features, labels = _stack_shards(clients)
    head0 = init_mlp_params(
        head_spec, derive_rng(seed, seeding.INIT, seeding.INIT_EXPERT, 0))
    heads = stack_params([head0] * m)

    def train(r, fe_flat, positions, heads_flat):
        """Round r's local epochs of the clients at positions, from the
        extractor fe_flat and their heads heads_flat: their (g, P)
        chained networks and (g, epochs) losses."""
        part = slice(positions.start, positions.stop)
        stack, losses = _epochs(
            _chain_params(spec, ParamSet.from_flat(fe_spec.layout, fe_flat),
                          ParamSet.from_flat(head_spec.layout, heads_flat)),
            local_epochs, features.shape[1], batch_size,
            derive_rng(seed, seeding.STAGE1, r, 0),
            _ce_step(spec, features[part], labels[part], lr))
        return stack.flat, losses

    def train_round(r, fe, split):
        nonlocal heads
        flat, losses = split(train, r, fe.flat, range(m), heads.flat)
        fe_g, heads = _split_chain(ParamSet.from_flat(spec.layout, flat),
                                   fe_spec, head_spec)
        return range(m), fe_g, losses

    fe, reports = _fedavg_rounds(
        "stage1_fedce", clients,
        init_mlp_params(fe_spec, derive_rng(seed, seeding.INIT,
                                            seeding.INIT_EXTRACTOR, 0)),
        rounds, train_round, (train,),
        lambda r, n, size: classifier_round_bytes(n, size, bytes_per_scalar))
    return Stage1Result(fe_params=fe, heads=tuple(unstack_params(heads)),
                        reports=reports)


def fedavg_classifier(clients, spec: MlpSpec, params: ParamSet,
                      rounds: int, local_epochs: int, lr: float, round_rng,
                      *, batch_size: int = 64,
                      bytes_per_scalar: int = DEFAULT_BYTES_PER_SCALAR
                      ) -> tuple[ParamSet, tuple[FedRoundReport, ...]]:
    """FedAvg of a whole classifier, the baseline beside stage1_fedce.

    Every round each client trains the global model on its shard for the
    given epochs, every client drawing from round_rng(r); a report's
    client losses hold each client's last-epoch loss. The clients train
    as one stack, split over two CPUs by _fedavg_rounds.
    """
    _check_clients(clients)
    m = len(clients)
    features, labels = _stack_shards(clients)

    def train(r, flat, positions):
        """Round r's local epochs of the clients at positions from the
        model flat: their (g, P) models and (g, epochs) losses."""
        part = slice(positions.start, positions.stop)
        stack, losses = _epochs(
            stack_params([ParamSet.from_flat(spec.layout, flat)]
                         * len(positions)),
            local_epochs, features.shape[1], batch_size, round_rng(r),
            _ce_step(spec, features[part], labels[part], lr))
        return stack.flat, losses

    def train_round(r, params, split):
        flat, losses = split(train, r, params.flat, range(m))
        return range(m), ParamSet.from_flat(spec.layout, flat), losses

    return _fedavg_rounds(
        "baseline_fedavg_classifier", clients, params, rounds, train_round,
        (train,),
        lambda r, n, size: classifier_round_bytes(n, size, bytes_per_scalar),
        client_loss=lambda v: v[-1])


def stage1_fedsc(clients, fe_spec: MlpSpec, rounds: int, local_epochs: int,
                 lr: float, aug_spec: AugmentSpec, dp_noise_std: float,
                 seed: int, *, batch_size: int = 64,
                 bytes_per_scalar: int = DEFAULT_BYTES_PER_SCALAR
                 ) -> Stage1Result:
    """Federated self-supervised pretraining of the shared extractor.

    Every round: each client shares its noised full-shard correlation
    matrix; the server hands each client the weighted aggregate of
    everyone else's shares; clients run spectral-contrastive epochs on
    augmented view pairs; extractors are averaged by shard size. Shards
    share one size, so every client's loss takes the one weight q = 1/m.
    A lone client sees a zero aggregate, which reduces the loss to its
    single-client form. Every client derives the same local-training
    stream over a shard of the same size, so all clients draw the same
    batch orders and augmentations and train as one stack.

    Each round runs two calls through _fedavg_rounds' split: every
    client's share, then, given every aggregate, every client's local
    epochs; on two CPUs each call's upper half runs in the stage's peer.
    """
    _check_clients(clients)
    _check_schedule(rounds, local_epochs, lr, batch_size)
    if dp_noise_std < 0.0:
        raise ConfigError(f"dp_noise_std must be >= 0, got {dp_noise_std}")
    m = len(clients)
    # every shard has one size n, and n / (m n) rounds to 1 / m
    q = 1.0 / m
    d = fe_spec.out_width
    ids = np.arange(m)
    features = np.stack([s.train.features for s in clients])

    def shares(r, fe_flat, positions):
        """Round r's correlation shares of the clients at positions,
        (g, d, d)."""
        fe = ParamSet.from_flat(fe_spec.layout, fe_flat)
        return np.stack([
            compute_correlation_share(
                fe_spec, fe, shard, aug_spec, dp_noise_std,
                derive_rng(seed, seeding.CORRELATION, r, shard.client_id))
            for shard in clients[positions.start:positions.stop]
        ]),

    def train(r, fe_flat, positions, rbars):
        """Round r's local epochs of the clients at positions under their
        aggregates: their (g, P) extractors and (g, epochs) losses."""
        rng = derive_rng(seed, seeding.STAGE1, r, 0)
        fe = ParamSet.from_flat(fe_spec.layout, fe_flat)
        fe_g, losses = _epochs(
            stack_params([fe] * len(positions)), local_epochs,
            features.shape[1], batch_size, rng,
            _spectral_step(fe_spec, features[positions.start:positions.stop],
                           aug_spec, rbars, q, lr, rng))
        return fe_g.flat, losses

    def train_round(r, fe, split):
        every_share, = split(shares, r, fe.flat, range(m))

        # every client's weighted mean of the other clients' shares, all
        # built at once: aggregate c takes share i's term in list order,
        # the additions a per-client sum would make
        rbars = np.zeros((m, d, d))
        if m > 1:
            for i, share in enumerate(every_share):
                rbars[ids != i] += q * share
            rbars /= 1.0 - q

        flat, losses = split(train, r, fe.flat, range(m), rbars)
        return range(m), ParamSet.from_flat(fe.layout, flat), losses

    fe, reports = _fedavg_rounds(
        "stage1_fedsc", clients,
        init_mlp_params(fe_spec, derive_rng(seed, seeding.INIT,
                                            seeding.INIT_EXTRACTOR, 0)),
        rounds, train_round, (shares, train),
        lambda r, n, size: spectral_round_bytes(n, size, d,
                                                bytes_per_scalar))
    return Stage1Result(fe_params=fe, heads=None, reports=reports)


def stage2_experts(clients, latents: np.ndarray, expert_spec: MlpSpec,
                   epochs: int, lr: float, seed: int, *,
                   batch_size: int = 64) -> Stage2Result:
    """Per-client expert training on the frozen extractor's latents of
    the clients' train shards, (m, n, expert input width), from fresh
    experts. No bytes move in this stage.
    """
    _check_clients(clients)
    _check_schedule(1, epochs, lr, batch_size)
    _check_latents(latents, clients, expert_spec.in_width)
    rng = derive_rng(seed, seeding.INIT, seeding.INIT_EXPERT, 0)
    stack = stack_params(init_mlp_params(expert_spec, rng) for _ in clients)
    labels = np.stack([s.train.labels for s in clients])
    # one stream, carried across epochs like each client's own
    rng = derive_rng(seed, seeding.STAGE2, 0, 0)
    step = _ce_step(expert_spec, latents, labels, lr)
    reports = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        stack, loss = _epochs(stack, 1, latents.shape[1], batch_size, rng,
                              step)
        losses = loss[:, 0].tolist()
        for shard, v in zip(clients, losses):
            _check_finite(v, "stage2_experts", shard.client_id, epoch)
        experts = unstack_params(stack)
        reports.append(FedRoundReport(
            stage="stage2_experts", round_index=epoch,
            participants=tuple(s.client_id for s in clients),
            client_losses={s.client_id: v for s, v in zip(clients, losses)},
            params_digest=_digest_group(experts),
            bytes_sent=0, wall_clock=time.perf_counter() - t0))
    return Stage2Result(experts=tuple(experts), reports=tuple(reports))


def stage3_rangate(distribution) -> Stage3Result:
    """Data-independent gate drawing experts from a fixed distribution."""
    return Stage3Result(gate=RandomGate(np.asarray(distribution,
                                                   dtype=np.float64)),
                        reports=())


def rollgate_pseudo_labels(num_experts: int, own_id: int, p: float,
                           num_samples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Pseudo client-id labels: fraction p keeps the owner's id, the rest
    spreads over the other ids by largest-remainder apportionment."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"p must lie in (0, 1), got {p}")
    if num_experts < 2:
        raise ConfigError("pseudo-labeling needs at least two clients")
    quotas = np.full(num_experts,
                     (1.0 - p) * num_samples / (num_experts - 1))
    quotas[own_id] = p * num_samples
    counts = apportion(quotas, num_samples)
    labels = np.repeat(np.arange(num_experts, dtype=np.int64), counts)
    out = np.empty(num_samples, dtype=np.int64)
    out[rng.permutation(num_samples)] = labels
    return out


def stage3_rollgate(clients, latents: np.ndarray, gate_init: GateParams,
                    p: float, epochs_per_client: int,
                    max_passes: int, lr: float, seed: int, *,
                    batch_size: int = 64,
                    bytes_per_scalar: int = DEFAULT_BYTES_PER_SCALAR
                    ) -> Stage3Result:
    """Ring-trained gate on pseudo client-id labels.

    The gate visits clients 0, 1, ..., m-1 in a loop, training
    epochs_per_client cross-entropy epochs per hop on the frozen
    extractor's latents of its train shard, one slice of latents
    (m, n, gate latent dim). Training stops once a full pass moves the
    pass-averaged loss by less than ROLLGATE_LOSS_TOL, or after
    max_passes.
    """
    _check_clients(clients)
    _check_schedule(max_passes, epochs_per_client, lr, batch_size)
    m = len(clients)
    if m < 2:
        raise ConfigError("rolling training needs at least two clients")
    _check_latents(latents, clients, gate_init.latent_dim)
    spec = gate_spec(gate_init.latent_dim, m)
    pseudo = [
        rollgate_pseudo_labels(
            m, c, p, s.train.num_samples,
            derive_rng(seed, seeding.PSEUDO, 0, s.client_id))
        for c, s in enumerate(clients)
    ]
    gate_params = gate_init.params
    reports = []
    previous = None
    for pass_index in range(max_passes):
        t0 = time.perf_counter()
        losses: dict[int, float] = {}
        for c, shard in enumerate(clients):
            gate_params, epoch_losses = _epochs(
                gate_params, epochs_per_client, latents.shape[1],
                batch_size, derive_rng(seed, seeding.STAGE3, pass_index, 0),
                _ce_step(spec, latents[c], pseudo[c], lr))
            for loss in epoch_losses:
                _check_finite(loss, "stage3_rollgate", shard.client_id,
                              pass_index)
            losses[shard.client_id] = float(np.mean(epoch_losses))
        pass_avg = float(np.mean(list(losses.values())))
        reports.append(FedRoundReport(
            stage="stage3_rollgate", round_index=pass_index,
            participants=tuple(s.client_id for s in clients),
            client_losses=losses,
            params_digest=params_digest(gate_params),
            bytes_sent=rollgate_pass_bytes(m, gate_params.size(),
                                           bytes_per_scalar),
            wall_clock=time.perf_counter() - t0))
        if previous is not None and \
                abs(pass_avg - previous) < ROLLGATE_LOSS_TOL:
            break
        previous = pass_avg
    return Stage3Result(
        gate=GateParams(params=gate_params, noise_std=gate_init.noise_std),
        reports=tuple(reports))


def _gate_step(noise_std: float, latents: np.ndarray, labels: np.ndarray,
               owners: np.ndarray, expert_spec: MlpSpec, experts, k: int,
               lr: float, lambda_load: float, grad_max_norm: float,
               rng: np.random.Generator):
    """_epochs' FedGate step of a stack of g gates (stack_params of a
    GateParams' params) over the federation's m equal-size shards:
    latents (m, n, d) and labels (m, n). Slice i trains on shard
    owners[i], every slice on the same rows and the same gate noise,
    which the step draws from rng, the stream _epochs draws the batch
    order from. Each batch is routed (_route), its routed experts'
    logits computed (_routed_logits), and the loss and gate gradient
    taken by moe_backward, the objective the centralized mixture trains
    with too; gradients are normalized before each step.

    Experts are frozen, but no table of their logits is kept: each batch
    computes only its k routed slots, (g, k, rows, classes), with
    _routed_logits from the latents, the TILE-aligned rows one forward
    per routed expert and the tail rows one stacked forward. Each slot
    holds the bits of the expert's forward over the whole shard. The
    loss is the g slices' batch losses.
    """
    own = owners[:, None]

    def step(params, rows):
        x = latents[own, rows]
        idx, probs = _route(x, params, noise_std, k, rng)
        chosen = _routed_logits(expert_spec, experts, latents, owners, rows,
                                idx)
        loss, _, grads, _ = moe_backward(x, probs, idx, chosen,
                                         labels[own, rows], lambda_load)
        grads = grad_normalize(grads, grad_max_norm)
        return sgd_step(params, grads, lr), loss
    return step


# Row granularity of the routed expert forwards. On the OpenBLAS dgemm
# this was measured on, a row's output bits depend only on whether the
# row lands in a full micro-tile of the kernel's row unroll (4 there):
# the leftover rows of a product, and a one-row product (gemv), give
# other bits. A block padded to a multiple of TILE rows, and the first
# TILE * (n // TILE) rows of a forward over an n-row shard, both lie in
# full micro-tiles, so they agree bit for bit. TILE must therefore be a
# multiple of every dgemm row unroll the program may meet: 16 covers
# unrolls of 1, 2, 4, 8 and 16 rows. The last n mod TILE rows, the tail,
# lie past every full micro-tile; a forward over the shard's last
# TILE + n mod TILE rows leaves them as many places past one as the
# whole-shard forward does, so it gives them that forward's bits. A
# batch's tail picks run as one stacked forward over such windows, a
# slice per (shard, expert) pair, each slice its own gemm.
TILE = 16


def _routed_logits(expert_spec, experts, latents, owners, rows, idx):
    """The routed experts' logits, (g, k, b, classes) for picks idx of
    shape (g, b, k): slot s of row j in slice i holds expert idx[i, j, s]
    on row rows[j] of shard owners[i] of latents (m, n, d), with the
    bits of that expert's forward over the whole shard.

    Rows below the shard's last multiple of TILE run as one forward per
    routed expert, its picks padded to a multiple of TILE rows by
    repeating the last one. Rows past it run as one stacked forward with
    a slice per (shard, expert) pair they name, over the shard's last
    TILE + n mod TILE rows (the whole shard when it is shorter).
    """
    n = latents.shape[-2]
    main = TILE * (n // TILE)
    picks = idx.swapaxes(-1, -2)
    expert = picks.ravel()
    # flat pick i reads row rows[i mod b] of shard owners[i // (k b)]
    row = np.tile(rows, expert.size // rows.size)
    shard = np.repeat(owners, expert.size // len(owners))
    out = np.empty((expert.size, expert_spec.out_width))
    tail = np.flatnonzero(row >= main)
    if tail.size:
        start = max(0, main - TILE)
        pairs, slot = np.unique(shard[tail] * len(experts) + expert[tail],
                                return_inverse=True)
        stack = stack_params([experts[e] for e in pairs % len(experts)])
        window = latents[pairs // len(experts), start:]
        out[tail] = forward(expert_spec, stack, window)[
            slot, row[tail] - start]
    body = np.flatnonzero(row < main)
    if body.size:
        # the picks grouped by expert, then laid out block after block,
        # each block padded to a multiple of TILE with its last pick
        body = body[np.argsort(expert[body], kind="stable")]
        counts = np.bincount(expert[body], minlength=len(experts))
        sizes = -(-counts // TILE) * TILE
        ends = np.cumsum(sizes)
        block = np.repeat(np.arange(len(experts)), sizes)
        offset = np.arange(ends[-1]) - (ends - sizes)[block]
        src = body[(np.cumsum(counts) - counts)[block]
                   + np.minimum(offset, counts[block] - 1)]
        x = latents[shard[src], row[src]]
        out[body] = np.concatenate([
            forward(expert_spec, experts[e], x[ends[e] - sizes[e]:ends[e]])
            for e in np.flatnonzero(counts)])[offset < counts[block]]
    return out.reshape(picks.shape + (-1,))


def stage3_fedgate(clients, latents: np.ndarray, expert_spec: MlpSpec,
                   experts, gate_init: GateParams,
                   rounds: int, local_epochs: int, lr: float,
                   lambda_load: float, client_fraction: float,
                   grad_max_norm: float, k: int, seed: int, *,
                   batch_size: int = 64,
                   bytes_per_scalar: int = DEFAULT_BYTES_PER_SCALAR
                   ) -> Stage3Result:
    """Federated-averaged gate over frozen experts and the frozen
    extractor's latents of the clients' train shards, (m, n, expert
    input width).

    Each round samples ceil(client_fraction * m) participants without
    replacement; each trains the gate on its shard through the same top-k
    path used at inference, and the results are averaged by shard size.
    The participants share the round's stream and train as one stack,
    slice i on the latents of participant i. Training is hosted where all
    experts are available, so their one-time shipping cost lands in the
    first round's bytes.

    On two CPUs, the upper half of each round's participants trains in
    the stage's peer, forked by _fedavg_rounds, which inherits the
    latents.
    """
    _check_clients(clients)
    _check_schedule(rounds, local_epochs, lr, batch_size)
    if not 0.0 < client_fraction <= 1.0:
        raise ConfigError(
            f"client_fraction must lie in (0, 1], got {client_fraction}")
    if lambda_load < 0.0:
        raise ConfigError(f"lambda_load must be >= 0, got {lambda_load}")
    m = len(clients)
    experts = tuple(experts)
    if len(experts) != m:
        raise ConfigError(f"got {len(experts)} experts for {m} clients")
    _check_latents(latents, clients, expert_spec.in_width)
    experts_before = _digest_group(experts)
    labels = np.stack([s.train.labels for s in clients])
    count = max(1, min(m, math.ceil(client_fraction * m - 1e-9)))
    setup = fedgate_setup_bytes(m, experts[0].size(), bytes_per_scalar)
    layout = gate_init.params.layout

    def train(r, gate_flat, positions):
        """Round r's local epochs of the participants at positions, from
        the gate gate_flat: their (g, P) gates and (g, epochs) losses."""
        rng = derive_rng(seed, seeding.STAGE3, r, 0)
        stack, losses = _epochs(
            stack_params(
                [ParamSet.from_flat(layout, gate_flat)] * len(positions)),
            local_epochs, latents.shape[1], batch_size, rng,
            _gate_step(gate_init.noise_std, latents, labels, positions,
                       expert_spec, experts, k, lr, lambda_load,
                       grad_max_norm, rng))
        return stack.flat, losses

    def train_round(r, params, split):
        sched = derive_rng(seed, seeding.SCHEDULE, r, 0)
        participants = np.sort(sched.choice(m, size=count, replace=False))
        flat, losses = split(train, r, params.flat, participants)
        return participants, ParamSet.from_flat(layout, flat), losses

    params, reports = _fedavg_rounds(
        "stage3_fedgate", clients, gate_init.params, rounds, train_round,
        (train,),
        lambda r, n, size: fedgate_round_bytes(n, size, bytes_per_scalar)
        + (setup if r == 0 else 0))
    if _digest_group(experts) != experts_before:
        raise InternalError("stage 3 mutated a frozen expert")
    return Stage3Result(
        gate=GateParams(params=params, noise_std=gate_init.noise_std),
        reports=reports)
