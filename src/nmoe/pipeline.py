"""End-to-end experiment runner: staged training, inference simulation,
metrics, baselines, and sweeps.

A run is a pure function of its RunConfig. Every random draw comes from
a stream derived as (seed, component, round, client), artifacts never
record wall-clock time, and floats are serialized by repr, so rerunning
a config reproduces its results record byte for byte. With baselines
and two usable CPUs, a child forked right after the shards are built
trains the centralized mixture while this process runs the stages and
the classifiers; it has this process's numpy and BLAS, so its bits are
those of a sequential run. With one CPU this process trains it when the
baselines ask for its entry.

Artifacts written under the output directory:
  config.json       the validated config echo
  results.json      the full results record (canonical JSON)
  training_log.jsonl  one line per (stage, round, client)
  model.json        the trained mixture, stamped with the config hash
  heatmap.csv       row-normalized routing matrix (+ sidecar manifest)
  FAILED            present only if the run aborted, with stage context
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import federated, seeding
from .config import RunConfig, config_hash, config_keys, save_config, \
    with_key
from .datasets import Dataset, Shard, gen_synthetic, load_cifar10, \
    partition_noniid
from .errors import ConfigError, InternalError, NmoeError
from .federated import (FedRoundReport, Stage1Result, Stage2Result,
                        Stage3Result, fedavg_classifier, frozen_latents,
                        stage1_fedce, stage1_fedsc, stage2_experts,
                        stage3_fedgate, stage3_rangate, stage3_rollgate,
                        _Peer, _ce_step, _check_clients, _check_finite,
                        _epochs, _stack_shards)
from .metrics import EvalReport, evaluate_clients
from .moe import (GateParams, NmoeModel, _route, init_gate_params,
                  moe_backward, save_model)
from .netsim import CostModel, InferenceResult, RoutingLog, export_heatmap, \
    local_ratio, simulate_inference
from .numerics import (MlpSpec, ParamSet, backward, chain_specs, forward,
                       grad_normalize, init_mlp_params, softmax,
                       stack_params, unstack_params)
from .seeding import derive_rng

# Round slots within the BASELINE component, so baseline streams never
# collide with each other or with pipeline streams.
_BASE_CENTRAL_INIT = 0   # client field selects fe / gate / expert slots
_BASE_CENTRAL_TRAIN = 1
_BASE_LOCAL_INIT = 2     # client field selects the client
_BASE_LOCAL_TRAIN = 3
_BASE_FEDAVG_INIT = 4
_BASE_FEDAVG_ROUND = 1000  # plus the round index


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run produced, plus its serializable record."""

    config: RunConfig
    config_hash: str
    model: NmoeModel
    stage1: Stage1Result
    stage2: Stage2Result
    stage3: Stage3Result
    inference: InferenceResult
    evaluation: EvalReport
    baselines: dict | None = None

    @property
    def routing(self) -> RoutingLog:
        return self.inference.log

    def record(self) -> dict:
        stages = {
            "stage1": [_report_dict(r) for r in self.stage1.reports],
            "stage2": [_report_dict(r) for r in self.stage2.reports],
            "stage3": [_report_dict(r) for r in self.stage3.reports],
        }
        bytes_by_stage = {
            name: sum(r["bytes_sent"] for r in reports)
            for name, reports in stages.items()
        }
        bytes_by_stage["inference"] = \
            self.routing.bytes_out + self.routing.bytes_back
        bytes_by_stage["total"] = sum(bytes_by_stage.values())
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "stages": stages,
            "bytes": bytes_by_stage,
            "evaluation": self.evaluation.as_dict(),
            "routing": {
                "counts": self.routing.counts.tolist(),
                "bytes_out": self.routing.bytes_out,
                "bytes_back": self.routing.bytes_back,
                "total_decisions": self.routing.total,
                "local_ratio": local_ratio(self.routing),
            },
            "baselines": self.baselines,
        }


def _report_dict(report: FedRoundReport) -> dict:
    # wall_clock is deliberately dropped: records must be reproducible
    return {
        "stage": report.stage,
        "round": report.round_index,
        "participants": list(report.participants),
        "client_losses": {str(c): loss
                          for c, loss in sorted(report.client_losses.items())},
        "params_digest": report.params_digest,
        "bytes_sent": report.bytes_sent,
    }


def build_dataset(config: RunConfig) -> Dataset:
    d = config.data
    if d.source == "cifar10":
        return load_cifar10(d.path)
    return gen_synthetic(d.num_classes, d.dim, d.samples_per_class,
                         d.cluster_spread,
                         derive_rng(config.seed, seeding.DATA, 0, 0))


def build_shards(config: RunConfig) -> list[Shard]:
    d = config.data
    return partition_noniid(build_dataset(config), d.num_clients, d.tau,
                            d.train_per_client, d.test_per_client,
                            derive_rng(config.seed, seeding.DATA, 1, 0),
                            test_distribution=d.test_distribution)


def _pooled_train(shards) -> Dataset:
    features = np.concatenate([s.train.features for s in shards])
    labels = np.concatenate([s.train.labels for s in shards])
    return Dataset(features, labels, shards[0].train.num_classes)


def _run_stage1(config: RunConfig, shards) -> Stage1Result:
    s1 = config.stage1
    common = dict(rounds=s1.rounds, local_epochs=s1.local_epochs, lr=s1.lr,
                  seed=config.seed, batch_size=config.batch_size,
                  bytes_per_scalar=config.bytes_per_scalar)
    if s1.method == "fedce":
        return stage1_fedce(shards, config.model.fe_spec(),
                            config.model.expert_spec(), **common)
    return stage1_fedsc(shards, config.model.fe_spec(),
                        aug_spec=s1.aug_spec(),
                        dp_noise_std=s1.dp_noise_std, **common)


def _run_stage3(config: RunConfig, shards, latents: np.ndarray,
                experts) -> Stage3Result:
    s3 = config.stage3
    m = config.data.num_clients
    if s3.method == "rangate":
        return stage3_rangate(np.full(m, 1.0 / m))
    # scale 0 leaves early routing to the exploration noise, which keeps
    # the router from collapsing onto whichever experts init favored
    gate_init = init_gate_params(
        config.model.latent_dim, m, config.model.gate_noise_std,
        derive_rng(config.seed, seeding.INIT, seeding.INIT_GATE, 0),
        scale=0.0)
    if s3.method == "rollgate":
        return stage3_rollgate(
            shards, latents, gate_init,
            p=s3.pseudo_ratio, epochs_per_client=s3.epochs_per_client,
            max_passes=s3.max_passes, lr=s3.lr, seed=config.seed,
            batch_size=config.batch_size,
            bytes_per_scalar=config.bytes_per_scalar)
    return stage3_fedgate(
        shards, latents, config.model.expert_spec(), experts, gate_init,
        rounds=s3.rounds, local_epochs=s3.local_epochs, lr=s3.lr,
        lambda_load=s3.lambda_load, client_fraction=s3.client_fraction,
        grad_max_norm=s3.grad_max_norm, k=config.k, seed=config.seed,
        batch_size=config.batch_size,
        bytes_per_scalar=config.bytes_per_scalar)


def evaluate_model(config: RunConfig, model: NmoeModel, shards, slot: int
                   ) -> tuple[InferenceResult, EvalReport]:
    """Route every test sample of the shards through model under the
    config's byte model, from evaluation stream slot, and score the
    predictions."""
    cost = CostModel(latent_dim=config.model.latent_dim,
                     num_classes=config.data.num_classes,
                     bytes_per_scalar=config.bytes_per_scalar)
    inference = simulate_inference(
        model, shards, config.k, cost,
        rng=derive_rng(config.seed, seeding.EVAL, slot, 0))
    return inference, evaluate_clients(
        inference.predictions, inference.scores, inference.labels,
        config.data.num_classes)


def _write_failed(out: Path | None, stage: str, error: Exception) -> None:
    if out is None:
        return
    marker = {"stage": stage,
              "category": getattr(error, "category", "error"),
              "message": str(error)}
    (out / "FAILED").write_text(json.dumps(marker, indent=2) + "\n")


def run_pipeline(config: RunConfig, *, with_baselines: bool = False
                 ) -> RunResult:
    """Train all three stages, simulate inference, and evaluate.

    Artifacts go under config.output_dir when it is set; with
    output_dir None the run is purely in-memory. Any stage failure
    leaves a FAILED marker naming the stage beside whatever artifacts
    were already written, then propagates the error.
    """
    h = config_hash(config)
    out = Path(config.output_dir) if config.output_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        failed = out / "FAILED"
        if failed.exists():
            failed.unlink()
        save_config(config, out / "config.json")

    stage = "data"
    child = None
    try:
        shards = build_shards(config)
        if with_baselines:
            child = _CentralizedChild(config, shards)
        stage = "stage1"
        stage1 = _run_stage1(config, shards)
        stage = "stage2"
        latents = frozen_latents(config.model.fe_spec(), stage1.fe_params,
                                 [s.train for s in shards])
        # experts start fresh for every stage-1 method: warm-starting from
        # the FedCE heads would hand FedCE extra head epochs that the
        # head-free FedSC run can never match
        stage2 = stage2_experts(
            shards, latents, config.model.expert_spec(),
            epochs=config.stage2.epochs, lr=config.stage2.lr,
            seed=config.seed, batch_size=config.batch_size)
        stage = "stage3"
        stage3 = _run_stage3(config, shards, latents, stage2.experts)
        # inference and the baselines must not keep the stack alive
        del latents
        stage = "inference"
        model = NmoeModel(fe_spec=config.model.fe_spec(),
                          fe_params=stage1.fe_params,
                          gate=stage3.gate,
                          expert_spec=config.model.expert_spec(),
                          experts=stage2.experts)
        inference, evaluation = evaluate_model(config, model, shards, 0)
        baselines = None
        if with_baselines:
            stage = "baselines"
            baselines = run_baselines(config, shards, child)
    except NmoeError as exc:
        _write_failed(out, stage, exc)
        raise
    finally:
        if child is not None:
            child.close()

    result = RunResult(config=config, config_hash=h, model=model,
                       stage1=stage1, stage2=stage2, stage3=stage3,
                       inference=inference, evaluation=evaluation,
                       baselines=baselines)
    if out is not None:
        _write_artifacts(result, out)
    return result


def _write_artifacts(result: RunResult, out: Path) -> None:
    record = result.record()
    (out / "results.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")
    with (out / "training_log.jsonl").open("w") as fh:
        for reports in (result.stage1.reports, result.stage2.reports,
                        result.stage3.reports):
            for report in reports:
                for client, loss in sorted(report.client_losses.items()):
                    fh.write(json.dumps(
                        {"stage": report.stage,
                         "round": report.round_index,
                         "client": client,
                         "loss": loss,
                         "round_bytes": report.bytes_sent},
                        sort_keys=True) + "\n")
    save_model(result.model, out / "model.json",
               extra={"config_hash": result.config_hash})
    export_heatmap(result.routing, out / "heatmap.csv", k=result.config.k,
                   seed=result.config.seed,
                   config_hash=result.config_hash)


# ---------------------------------------------------------------------------
# baselines

def _inference_on_own_shard(params_by_client: dict, spec: MlpSpec,
                            shards, num_classes: int):
    """Evaluate per-client models locally: diagonal routing, no bytes."""
    m = len(shards)
    counts = np.zeros((m, m), dtype=np.int64)
    predictions, scores, labels = {}, {}, {}
    for shard in shards:
        c = shard.client_id
        logits = forward(spec, params_by_client[c], shard.test.features)
        predictions[c] = np.argmax(logits, axis=1)
        scores[c] = softmax(logits)
        labels[c] = shard.test.labels.copy()
        counts[c, c] = shard.test.num_samples
    report = evaluate_clients(predictions, scores, labels, num_classes)
    return report, RoutingLog(counts, 0, 0)


def _baseline_entry(report: EvalReport, log: RoutingLog,
                    training_bytes: int, losses) -> dict:
    return {
        "evaluation": report.as_dict(),
        "local_ratio": local_ratio(log),
        "routing": {"counts": log.counts.tolist(),
                    "bytes_out": log.bytes_out,
                    "bytes_back": log.bytes_back},
        "training_bytes": training_bytes,
        "losses": [float(v) for v in losses],
    }


def train_centralized_moe(config: RunConfig, shards
                          ) -> tuple[NmoeModel, list[float]]:
    """Jointly train extractor, gate, and experts on the pooled data with
    moe_backward's loss, the one FedGate trains with: cross-entropy of
    the routed mixture plus the load-balance penalty, one
    _centralized_step per batch. The model is built once, at the end."""
    pooled = _pooled_train(shards)
    flat, fe, gate, experts = _centralized_params(config)
    rng = derive_rng(config.seed, seeding.BASELINE, _BASE_CENTRAL_TRAIN, 0)
    step = _centralized_step(config, pooled, fe, gate, experts, rng)
    losses = []
    for epoch in range(config.baselines.epochs):
        # one epoch per call: a non-finite epoch loss must fail here,
        # before the next epoch's probability check names that epoch
        flat, loss = _epochs(flat, 1, pooled.num_samples, config.batch_size,
                             rng, functools.partial(step, epoch=epoch))
        _check_finite(loss[0], "baseline_centralized_moe", 0, epoch)
        losses.append(float(loss[0]))
    model = NmoeModel(fe_spec=config.model.fe_spec(), fe_params=fe,
                      gate=GateParams(params=gate,
                                      noise_std=config.model.gate_noise_std),
                      expert_spec=config.model.expert_spec(),
                      experts=tuple(unstack_params(experts)))
    return model, losses


def _centralized_params(config: RunConfig):
    """The centralized mixture's initial parameters in one flat buffer,
    extractor, then gate, then the stack of m experts, and the three
    sets as read-only views of it: (flat, fe, gate, experts)."""
    m = config.data.num_clients
    fe_spec = config.model.fe_spec()
    expert_spec = config.model.expert_spec()

    def init(slot):
        return derive_rng(config.seed, seeding.BASELINE, _BASE_CENTRAL_INIT,
                          slot)

    fe = init_mlp_params(fe_spec, init(0))
    gate = init_gate_params(config.model.latent_dim, m,
                            config.model.gate_noise_std, init(1),
                            scale=0.0).params
    experts = stack_params(init_mlp_params(expert_spec, init(2 + e))
                           for e in range(m))
    flat = np.concatenate([fe.flat, gate.flat, experts.flat.reshape(-1)])
    fe_end = fe.flat.size
    gate_end = fe_end + gate.flat.size
    return (flat, ParamSet.from_flat(fe.layout, flat[:fe_end]),
            ParamSet.from_flat(gate.layout, flat[fe_end:gate_end]),
            ParamSet.from_flat(experts.layout,
                               flat[gate_end:].reshape(m, -1)))


def _centralized_step(config: RunConfig, pooled: Dataset, fe: ParamSet,
                      gate: ParamSet, experts: ParamSet, rng):
    """The centralized mixture's per-batch step, step(flat, rows, epoch)
    -> (flat, loss), over the views _centralized_params made of flat: it
    updates flat in place, so the views always hold the current
    parameters. It routes with gate noise from rng, the stream the batch
    order comes from, and names the epoch when the gate diverges.

    The m experts run every row as one (m, ...) stack on the batch's
    latents, broadcast to (m, rows, d) without a copy; their upstream
    gradient is zero but at each row's k picks. The extractor, the gate
    and the expert stack are each clipped on their own, every expert by
    its own norm, and one SGD step then updates the whole buffer."""
    m = config.data.num_clients
    fe_spec = config.model.fe_spec()
    expert_spec = config.model.expert_spec()
    noise_std = config.model.gate_noise_std
    lam = config.stage3.lambda_load
    max_norm = config.stage3.grad_max_norm
    lr = config.baselines.lr
    features, labels = pooled.features, pooled.labels

    def step(flat, rows, epoch):
        latents, fe_tape = forward(fe_spec, fe, features[rows],
                                   want_tape=True)
        idx, probs = _route(latents, gate, noise_std, config.k, rng)
        # blown-up gate logits give NaN probabilities, which the balance
        # loss would report as bad data; the probabilities sum to a
        # finite value exactly when all are finite
        _check_finite(float(probs.sum()), "baseline_centralized_moe", 0,
                      epoch)
        outputs, expert_tape = forward(
            expert_spec, experts,
            np.broadcast_to(latents, (m,) + latents.shape), want_tape=True)
        at = np.arange(rows.size)[:, None]
        loss, dlogits, gate_grads, dgate_logits = moe_backward(
            latents, probs, idx, outputs[idx.T, at.T], labels[rows], lam)
        # each pick's probability times the logit gradient, written only
        # at the k picked (expert, row) pairs
        upstream = np.zeros(outputs.shape)
        upstream[idx.T, at.T] = probs[at, idx].T[..., None] * dlogits
        expert_grads, dlat = backward(expert_tape, upstream)
        # the gate's share, then each expert's in index order: one sum
        # over the expert axis after the gate's share joins the first
        # expert's, which adds them in that order
        dlat[0] += dgate_logits @ gate["w0"].T
        fe_grads, _ = backward(fe_tape, np.add.reduce(dlat, axis=0),
                               input_grad=False)
        sgd = np.concatenate([
            grad_normalize(fe_grads, max_norm).flat,
            grad_normalize(gate_grads, max_norm).flat,
            grad_normalize(expert_grads, max_norm).flat.reshape(-1)])
        sgd *= lr
        flat -= sgd
        return flat, loss
    return step


def train_local_classifiers(config: RunConfig, shards
                            ) -> tuple[dict, list[float]]:
    """One classifier per client on its own shard, from per-client init
    and batch-order streams. The clients' equal-size shards train as one
    stack, each slice drawing its own batch rows. Returns the parameters
    by client id and each client's last-epoch loss, in client order."""
    _check_clients(shards)
    spec = chain_specs(config.model.fe_spec(), config.model.expert_spec())
    ids = [s.client_id for s in shards]
    params = stack_params(
        init_mlp_params(spec, derive_rng(config.seed, seeding.BASELINE,
                                         _BASE_LOCAL_INIT, c))
        for c in ids)
    rngs = [derive_rng(config.seed, seeding.BASELINE, _BASE_LOCAL_TRAIN, c)
            for c in ids]
    features, labels = _stack_shards(shards)
    params, losses = _epochs(
        params, config.baselines.epochs, features.shape[1],
        config.batch_size, rngs,
        _ce_step(spec, features, labels, config.baselines.lr))
    losses = losses.tolist()
    # client by client, epoch by epoch: the first failure a per-client
    # loop would have stopped at
    for c, client_losses in zip(ids, losses):
        for epoch, loss in enumerate(client_losses):
            _check_finite(loss, "baseline_local_classifier", c, epoch)
    return (dict(zip(ids, unstack_params(params))),
            [v[-1] for v in losses])


def train_fedavg_classifier(config: RunConfig, shards
                            ) -> tuple[ParamSet, tuple[FedRoundReport, ...]]:
    """FedAvg of the whole classifier on stage 1's schedule, from the
    baseline streams."""
    spec = chain_specs(config.model.fe_spec(), config.model.expert_spec())
    s1 = config.stage1
    return fedavg_classifier(
        shards, spec,
        init_mlp_params(spec, derive_rng(config.seed, seeding.BASELINE,
                                         _BASE_FEDAVG_INIT, 0)),
        s1.rounds, s1.local_epochs, s1.lr,
        lambda r: derive_rng(config.seed, seeding.BASELINE,
                             _BASE_FEDAVG_ROUND + r, 0),
        batch_size=config.batch_size,
        bytes_per_scalar=config.bytes_per_scalar)


def _centralized_entry(config: RunConfig, shards) -> dict:
    """The centralized mixture's baseline entry: trained on the pooled
    shards, then routed and evaluated like the pipeline's model."""
    model, losses = train_centralized_moe(config, shards)
    inference, report = evaluate_model(config, model, shards, 1)
    return _baseline_entry(report, inference.log, 0, losses)


class _CentralizedChild:
    """_centralized_entry over the config and shards: a one-request
    federated._Peer, asked at once, when this process may use two CPUs;
    otherwise this process trains the mixture when result() is called,
    and not at all when close() comes first."""

    def __init__(self, config: RunConfig, shards):
        self._entry = lambda: _centralized_entry(config, shards)
        self._peer = None
        if federated._two_cpus():
            self._peer = _Peer(self._entry, "the centralized-mixture child")
            self._peer.ask()

    def result(self) -> dict:
        """The entry, or the error its training raised."""
        if self._peer is None:
            return self._entry()
        return self._peer.answer()

    def close(self) -> None:
        """Kill and reap the child, if one was forked."""
        if self._peer is not None:
            self._peer.close()


def run_baselines(config: RunConfig, shards=None, child=None) -> dict:
    """The three reference systems, evaluated exactly like the pipeline:
    a centralized mixture on pooled data, purely local classifiers, and
    a federated average of the full classifier. The centralized mixture
    trains through `child`, a _CentralizedChild over these shards (one
    is started here if none is given): beside the classifiers on two
    CPUs, after them on one."""
    if shards is None:
        shards = build_shards(config)
    if child is None:
        child = _CentralizedChild(config, shards)
        try:
            return run_baselines(config, shards, child)
        finally:
            child.close()
    num_classes = config.data.num_classes
    spec = chain_specs(config.model.fe_spec(), config.model.expert_spec())
    try:
        local_params, local_losses = train_local_classifiers(config, shards)
        local_report, local_log = _inference_on_own_shard(
            local_params, spec, shards, num_classes)
        global_params, fedavg_rounds = train_fedavg_classifier(config,
                                                               shards)
        fedavg_report, fedavg_log = _inference_on_own_shard(
            {s.client_id: global_params for s in shards}, spec, shards,
            num_classes)
    except Exception:
        # a sequential run trained the centralized mixture first, so its
        # error, if it has one, is the one raised
        child.result()
        raise
    fedavg_losses = [float(np.mean(list(r.client_losses.values())))
                     for r in fedavg_rounds]
    fedavg_bytes = sum(r.bytes_sent for r in fedavg_rounds)
    return {
        "centralized_moe": child.result(),
        "local_classifier": _baseline_entry(
            local_report, local_log, 0, local_losses),
        "fedavg_classifier": _baseline_entry(
            fedavg_report, fedavg_log, fedavg_bytes, fedavg_losses),
    }


# ---------------------------------------------------------------------------
# sweeps

_SWEEP_COLUMNS = ("axis", "value", "status", "config_hash",
                  "pooled_accuracy", "pooled_macro_f1", "pooled_macro_auc",
                  "client_mean_macro_f1", "local_ratio", "bytes_out",
                  "bytes_back", "training_bytes", "error")


def run_ablation(config: RunConfig, axis: str, values) -> list[dict]:
    """One full pipeline per value of one config key, all under the
    shared base seed. The axis is a dotted key of config.config_keys(),
    such as 'k', 'data.tau' or 'stage3.method'.

    A failing grid point is recorded with its error and the sweep
    continues; every row carries the derived config's hash.
    """
    if axis not in config_keys():
        raise ConfigError(f"sweep axis must be a config key, one of "
                          f"{', '.join(config_keys())}; got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep values must be nonempty")
    rows = []
    for value in values:
        row = {c: None for c in _SWEEP_COLUMNS}
        row.update(axis=axis, value=value)
        try:
            derived = with_key(config, axis, value)
            row["config_hash"] = config_hash(derived)
            result = run_pipeline(derived)
            ev = result.evaluation
            row.update(
                status="ok",
                pooled_accuracy=ev.pooled_accuracy,
                pooled_macro_f1=ev.pooled_macro_f1,
                pooled_macro_auc=ev.pooled_macro_auc,
                client_mean_macro_f1=ev.client_mean_macro_f1,
                local_ratio=local_ratio(result.routing),
                bytes_out=result.routing.bytes_out,
                bytes_back=result.routing.bytes_back,
                training_bytes=sum(
                    r.bytes_sent for reports in
                    (result.stage1.reports, result.stage2.reports,
                     result.stage3.reports) for r in reports))
        except NmoeError as exc:
            row.update(status="failed",
                       error=f"{exc.category}: {exc}")
        rows.append(row)
    return rows


def write_sweep_csv(rows, path) -> None:
    """One line per grid point. The value is written as given; only the
    float metrics are rounded, to 6 decimals."""
    def fmt(column, value):
        if column == "value":
            return str(value)
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.6f}"
        return str(value)

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([fmt(c, row[c]) for c in _SWEEP_COLUMNS])
