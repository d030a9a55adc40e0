"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct formulas)
so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np

from nmoe import seeding
from nmoe.federated import (_check_finite, _digest_group,
                            _sgd_classifier_epoch, _sgd_head_epoch,
                            _sgd_spectral_epoch, _spectral_plan,
                            compute_correlation_share, fedavg)
from nmoe.numerics import ParamSet, forward, init_mlp_params, params_digest
from nmoe.pipeline import (_BASE_FEDAVG_INIT, _BASE_FEDAVG_ROUND,
                           _combined_spec)
from nmoe.seeding import derive_rng


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_difference_params(f, params: ParamSet, h: float = 1e-5) -> ParamSet:
    """Central-difference gradients of f over every array in a ParamSet."""
    grads = {}
    for name in params.names:
        base = {n: np.array(params[n]) for n in params.names}

        def f_at(arr, _name=name, _base=base):
            d = dict(_base)
            d[_name] = arr
            return f(ParamSet(d))

        grads[name] = finite_difference(f_at, params[name], h=h)
    return ParamSet(grads)


def max_relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Componentwise |a - n| / max(|a| + |n|, floor), maximized."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    assert a.shape == n.shape
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom))


def max_relative_error_params(analytic: ParamSet, numeric: ParamSet) -> float:
    assert analytic.names == numeric.names
    return max(max_relative_error(analytic[n], numeric[n])
               for n in analytic.names)


def pairwise_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """AUC by exhaustive comparison of every positive/negative pair."""
    pos = scores[positive]
    neg = scores[~positive]
    assert len(pos) > 0 and len(neg) > 0
    favorable = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                favorable += 1.0
            elif p == q:
                favorable += 0.5
    return favorable / (len(pos) * len(neg))


def pairwise_macro_auc(score_matrix: np.ndarray, labels: np.ndarray) -> float:
    """One-vs-rest macro AUC via the exhaustive pairwise oracle."""
    values = []
    for c in range(score_matrix.shape[1]):
        positive = labels == c
        if positive.any() and (~positive).any():
            values.append(pairwise_auc(score_matrix[:, c], positive))
    assert values
    return float(np.mean(values))


def confusion_f1(predictions: np.ndarray, labels: np.ndarray,
                 num_classes: int) -> float:
    """Macro F1 from explicitly counted confusion entries, using the
    2*tp / (2*tp + fp + fn) form (algebraically equal to 2PR/(P+R))."""
    total = 0.0
    for c in range(num_classes):
        tp = fp = fn = 0
        for p, y in zip(predictions, labels):
            if p == c and y == c:
                tp += 1
            elif p == c:
                fp += 1
            elif y == c:
                fn += 1
        if tp + fp + fn > 0 and tp > 0:
            total += 2.0 * tp / (2.0 * tp + fp + fn)
    return total / num_classes


def dense_mixture(latents: np.ndarray, gate_w: np.ndarray,
                  gate_b: np.ndarray, expert_outputs: np.ndarray) -> np.ndarray:
    """Fully dense mixture: softmax over all experts times every expert's
    output, no top-k masking. expert_outputs has shape (experts, rows,
    classes)."""
    logits = latents @ gate_w + gate_b
    out = np.zeros(expert_outputs.shape[1:])
    for i in range(logits.shape[0]):
        row = logits[i]
        e = np.exp(row - row.max())
        probs = e / e.sum()
        for j in range(expert_outputs.shape[0]):
            out[i] += probs[j] * expert_outputs[j, i]
    return out


def load_balance_all_columns(probs: np.ndarray, multiplier=None):
    """Balance loss multiplier * sum_j f_j * P_j and its gradient, with
    every one of the m columns summed exactly, routed or not."""
    n, m = probs.shape
    mult = float(m if multiplier is None else multiplier)
    f = np.zeros(m)
    for i in range(n):
        f[int(np.argmax(probs[i]))] += 1.0
    f /= n
    col_mean = np.array([math.fsum(probs[:, j]) for j in range(m)]) / n
    loss = mult * math.fsum(f[j] * col_mean[j] for j in range(m))
    return loss, np.tile(mult * f / n, (n, 1))


# ---------------------------------------------------------------------------
# per-client federated loops: each client trains on its own 2-d arrays, one
# client after another, as the package did before it stacked clients of
# equal shard size. They return (params_digest, client_losses) per round.
# They run the package's 2-d epoch helpers, so what they check is the
# stacking (group streams, per-slice reductions, aggregation order), not
# the epoch arithmetic, which the gradient tests cover.

def _derive(seed, component, round_index):
    return derive_rng(seed, component, round_index, 0)


def per_client_fedce(clients, fe_spec, head_spec, rounds, local_epochs, lr,
                     seed, batch_size=64):
    sizes = [float(s.train.num_samples) for s in clients]
    fe = init_mlp_params(fe_spec, _derive(seed, seeding.INIT,
                                          seeding.INIT_EXTRACTOR))
    heads = [init_mlp_params(head_spec, _derive(
        seed, seeding.INIT, seeding.INIT_EXPERT))] * len(clients)
    rounds_out = []
    for r in range(rounds):
        locals_fe = []
        losses = {}
        for c, shard in enumerate(clients):
            rng = _derive(seed, seeding.STAGE1, r)
            fe_c, head_c = fe, heads[c]
            epoch_losses = []
            for _ in range(local_epochs):
                fe_c, head_c, loss = _sgd_classifier_epoch(
                    fe_spec, fe_c, head_spec, head_c, shard.train.features,
                    shard.train.labels, lr, batch_size, rng)
                _check_finite(loss, "stage1_fedce", shard.client_id, r)
                epoch_losses.append(loss)
            locals_fe.append(fe_c)
            heads[c] = head_c
            losses[shard.client_id] = float(np.mean(epoch_losses))
        fe = fedavg(locals_fe, sizes)
        rounds_out.append((params_digest(fe), losses))
    return rounds_out, heads


def per_client_fedsc(clients, fe_spec, rounds, local_epochs, lr, aug_spec,
                     dp_noise_std, seed, batch_size=64):
    m = len(clients)
    sizes = np.array([s.train.num_samples for s in clients], dtype=float)
    q = sizes / sizes.sum()
    d = fe_spec.out_width
    fe = init_mlp_params(fe_spec, _derive(seed, seeding.INIT,
                                          seeding.INIT_EXTRACTOR))
    rounds_out = []
    for r in range(rounds):
        shares = [
            compute_correlation_share(
                fe_spec, fe, shard, aug_spec, dp_noise_std, float(q[c]),
                derive_rng(seed, seeding.CORRELATION, r, shard.client_id))
            for c, shard in enumerate(clients)]
        locals_fe = []
        losses = {}
        for c, shard in enumerate(clients):
            rbar = np.zeros((d, d))
            if m > 1:
                for i, share in enumerate(shares):
                    if i != c:
                        rbar = rbar + float(q[i]) * share.matrix
                rbar = rbar / (1.0 - float(q[c]))
            features = shard.train.features
            # each client draws its own plan from the shared stream
            plan = _spectral_plan(features.shape, aug_spec, local_epochs,
                                  batch_size, _derive(seed, seeding.STAGE1, r))
            fe_c = fe
            epoch_losses = []
            for batches in plan:
                fe_c, loss = _sgd_spectral_epoch(
                    fe_spec, fe_c, features, batches, rbar, float(q[c]), lr)
                _check_finite(loss, "stage1_fedsc", shard.client_id, r)
                epoch_losses.append(loss)
            locals_fe.append(fe_c)
            losses[shard.client_id] = float(np.mean(epoch_losses))
        fe = fedavg(locals_fe, sizes)
        rounds_out.append((params_digest(fe), losses))
    return rounds_out


def per_client_experts(clients, fe_spec, fe_params, expert_spec, epochs, lr,
                       seed, batch_size=64):
    rng = _derive(seed, seeding.INIT, seeding.INIT_EXPERT)
    experts = [init_mlp_params(expert_spec, rng) for _ in clients]
    latents = [forward(fe_spec, fe_params, s.train.features)
               for s in clients]
    rngs = [_derive(seed, seeding.STAGE2, 0) for _ in clients]
    rounds_out = []
    for epoch in range(epochs):
        losses = {}
        for c, shard in enumerate(clients):
            experts[c], loss = _sgd_head_epoch(
                expert_spec, experts[c], latents[c], shard.train.labels, lr,
                batch_size, rngs[c])
            _check_finite(loss, "stage2_experts", shard.client_id, epoch)
            losses[shard.client_id] = loss
        rounds_out.append((_digest_group(experts), losses))
    return rounds_out, experts


def per_client_fedavg_classifier(config, shards):
    """The FedAvg-classifier baseline of nmoe.pipeline, one client at a
    time; client losses are each client's last-epoch loss."""
    spec = _combined_spec(config)
    s1 = config.stage1
    sizes = [float(s.train.num_samples) for s in shards]
    global_params = init_mlp_params(spec, _derive(
        config.seed, seeding.BASELINE, _BASE_FEDAVG_INIT))
    rounds_out = []
    for r in range(s1.rounds):
        locals_p = []
        losses = {}
        for shard in shards:
            rng = _derive(config.seed, seeding.BASELINE,
                          _BASE_FEDAVG_ROUND + r)
            params = global_params
            for _ in range(s1.local_epochs):
                params, loss = _sgd_head_epoch(
                    spec, params, shard.train.features, shard.train.labels,
                    s1.lr, config.batch_size, rng)
                _check_finite(loss, "baseline_fedavg_classifier",
                              shard.client_id, r)
            locals_p.append(params)
            losses[shard.client_id] = loss
        global_params = fedavg(locals_p, sizes)
        rounds_out.append((params_digest(global_params), losses))
    return rounds_out
