"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct formulas)
so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np

from nmoe import kernels, seeding
from nmoe.datasets import augment
from nmoe.federated import (_batches, _ce_step, _chain_params,
                            _check_finite, _digest_group,
                            _epochs, _gate_step,
                            _spectral_step, _split_chain,
                            compute_correlation_share, fedavg)
from nmoe.moe import (GateParams, NmoeModel, _route, gate_topk,
                      init_gate_params, load_balance_loss, moe_backward)
from nmoe.numerics import (ParamSet, backward, chain_specs, cross_entropy,
                           forward, grad_normalize, init_mlp_params,
                           params_digest, sgd_step, softmax_backward,
                           stack_params, unstack_params)
from nmoe.pipeline import (_BASE_CENTRAL_INIT, _BASE_CENTRAL_TRAIN,
                           _BASE_FEDAVG_INIT, _BASE_FEDAVG_ROUND,
                           _BASE_LOCAL_INIT, _BASE_LOCAL_TRAIN)
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


def load_balance_all_columns(probs: np.ndarray):
    """Balance loss m * sum_j f_j * P_j and its gradient, with every one
    of the m columns summed exactly, routed or not."""
    n, m = probs.shape
    mult = float(m)
    f = np.zeros(m)
    for i in range(n):
        f[int(np.argmax(probs[i]))] += 1.0
    f /= n
    col_mean = np.array([math.fsum(probs[:, j]) for j in range(m)]) / n
    loss = mult * math.fsum(f[j] * col_mean[j] for j in range(m))
    return loss, np.tile(mult * f / n, (n, 1))


# ---------------------------------------------------------------------------
# per-array parameter arithmetic and the dense-layer expressions, as the
# package computed them before a ParamSet became one flat buffer: every
# array a contiguous copy, each operation one array at a time. The flat
# versions must give the same bits.

def _arrays(params: ParamSet) -> dict:
    return {name: np.array(arr) for name, arr in params.items()}


def _is_stack(params: ParamSet) -> bool:
    return params.stack_shape != ()


def param_set(arrays, stacked: bool) -> ParamSet:
    """A set of the given (name, array) pairs or mapping; when stacked,
    every array carries a leading axis of g networks and the set is their
    (g, P) buffer, each network's arrays concatenated in name order."""
    items = list(arrays.items() if isinstance(arrays, dict) else arrays)
    if not stacked:
        return ParamSet(items)
    layout = ParamSet((name, a[0]) for name, a in items).layout
    return ParamSet.from_flat(layout, np.concatenate(
        [np.reshape(a, (len(a), -1)) for _, a in items], axis=1))


def per_array_sgd_step(params: ParamSet, grads: ParamSet, lr: float):
    p, g = _arrays(params), _arrays(grads)
    return param_set(((n, p[n] - lr * g[n]) for n in p), _is_stack(params))


def per_array_add_params(a: ParamSet, b: ParamSet):
    x, y = _arrays(a), _arrays(b)
    return param_set(((n, x[n] + y[n]) for n in x), _is_stack(a))


def per_array_grad_normalize(grads: ParamSet, max_norm: float):
    stacked = _is_stack(grads)
    lead = 1 if stacked else 0
    arrays = _arrays(grads)
    total = np.sqrt(sum((a * a).reshape(a.shape[:lead] + (-1,)).sum(axis=-1)
                        for a in arrays.values()))
    if (total <= max_norm).all():
        return grads
    scale = max_norm / np.maximum(total, max_norm)
    return param_set(
        ((n, a * scale.reshape(a.shape[:lead] + (1,) * (a.ndim - lead)))
         for n, a in arrays.items()), stacked)


def per_array_fedavg(param_sets, weights):
    sets = list(param_sets)
    w = np.asarray(list(weights), dtype=np.float64)
    norm = w / w.sum()
    acc = {name: norm[0] * arr for name, arr in _arrays(sets[0]).items()}
    for i, ps in enumerate(sets[1:], start=1):
        for name, arr in _arrays(ps).items():
            acc[name] = acc[name] + norm[i] * arr
    return param_set(acc, _is_stack(sets[0]))


def per_array_stack_params(sets):
    sets = list(sets)
    return param_set(((n, np.stack([ps[n] for ps in sets]))
                      for n in sets[0].names), True)


def per_array_unstack_params(stacked: ParamSet):
    g = stacked[stacked.names[0]].shape[0]
    return [ParamSet((n, a[c]) for n, a in stacked.items())
            for c in range(g)]


def dense_forward_expr(x, w, b, act):
    out = x @ w + b[..., None, :]
    if act == kernels.ACT_RELU:
        np.maximum(out, 0.0, out=out)
    elif act == kernels.ACT_TANH:
        np.tanh(out, out=out)
    return out


def dense_backward_expr(x, w, out, dout, act):
    if act == kernels.ACT_RELU:
        dpre = np.where(out > 0.0, dout, 0.0)
    elif act == kernels.ACT_TANH:
        dpre = dout * (1.0 - out * out)
    else:
        dpre = np.array(dout)
    dw = np.swapaxes(x, -1, -2) @ dpre
    db = dpre.sum(axis=-2)
    dx = dpre @ np.swapaxes(w, -1, -2)
    return dx, dw, db


def spectral_view_grad_expr(z, z_other, coupling, b):
    """A view's spectral-loss gradient as one expression."""
    return (-z_other + 0.5 * (z @ coupling)) / b


def correlation_share_both_views(fe_spec, fe, features, aug_spec,
                                 dp_noise_std, rng):
    """compute_correlation_share with both augmented views applied."""
    view, _ = augment(aug_spec, features, rng)
    z = forward(fe_spec, fe, view)
    r = z.T @ z / z.shape[0]
    r = 0.5 * (r + r.T)
    if dp_noise_std > 0.0:
        r = r + rng.normal(0.0, dp_noise_std, size=r.shape)
    return r


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: NaN payloads and signed zeros
    included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_param_bits(a: ParamSet, b: ParamSet) -> bool:
    return (a.names == b.names and a.stack_shape == b.stack_shape
            and all(same_bits(a[n], b[n]) for n in a.names))


# ---------------------------------------------------------------------------
# per-client federated loops: each client trains on its own 2-d arrays, one
# client after another, as the package did before it stacked its clients.
# They return (params_digest, client_losses) per round. Most run the
# package's batch driver, _epochs, over its 2-d steps, so what they check
# is the stacking (shared streams, per-slice reductions, aggregation
# order), not the step arithmetic, which the gradient tests cover. FedCE's
# loop runs two_network_epoch, so it checks the chained extractor-and-head
# network too.

def two_network_epoch(fe_spec, fe, head_spec, head, features, labels, lr,
                      batch_size, rng):
    """One joint cross-entropy epoch of one client's extractor and head
    as two networks, as the package trained FedCE before it chained
    them: two forwards, two backwards and two SGD steps per batch."""
    n = features.shape[0]
    total = 0.0
    for rows in _batches(n, batch_size, rng):
        latents, fe_tape = forward(fe_spec, fe, features[rows],
                                   want_tape=True)
        logits, head_tape = forward(head_spec, head, latents,
                                    want_tape=True)
        loss, dlogits = cross_entropy(logits, labels[rows])
        head_grads, dlatents = backward(head_tape, dlogits)
        fe_grads, _ = backward(fe_tape, dlatents, input_grad=False)
        fe = sgd_step(fe, fe_grads, lr)
        head = sgd_step(head, head_grads, lr)
        total += loss * rows.size
    return fe, head, total / n


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
                fe_c, head_c, loss = two_network_epoch(
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
                fe_spec, fe, shard.train.features, aug_spec, dp_noise_std,
                derive_rng(seed, seeding.CORRELATION, r, shard.client_id))
            for shard in clients]
        locals_fe = []
        losses = {}
        for c, shard in enumerate(clients):
            rbar = np.zeros((d, d))
            if m > 1:
                for i, share in enumerate(shares):
                    if i != c:
                        rbar = rbar + float(q[i]) * share
                rbar = rbar / (1.0 - float(q[c]))
            # each client derives the shared local-training stream itself
            # and draws its batch orders and views from it, epoch by epoch
            rng = _derive(seed, seeding.STAGE1, r)
            fe_c, epoch_losses = _epochs(
                fe, local_epochs, shard.train.num_samples, batch_size, rng,
                _spectral_step(fe_spec, shard.train.features, aug_spec, rbar,
                               float(q[c]), lr, rng))
            for loss in epoch_losses:
                _check_finite(loss, "stage1_fedsc", shard.client_id, r)
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
            experts[c], loss = _epochs(
                experts[c], 1, shard.train.num_samples, batch_size, rngs[c],
                _ce_step(expert_spec, latents[c], shard.train.labels, lr))
            _check_finite(loss[0], "stage2_experts", shard.client_id, epoch)
            losses[shard.client_id] = float(loss[0])
        rounds_out.append((_digest_group(experts), losses))
    return rounds_out, experts


def cache_gate_epoch(gate, latents, labels, expert_logits, k, lr,
                     lambda_load, grad_max_norm, batch_size, rng):
    """One FedGate epoch of one gate on one shard, reading the routed
    slots from a shard-wide (experts, rows, classes) logit table."""
    total = 0.0
    for rows in _batches(latents.shape[0], batch_size, rng):
        x = np.ascontiguousarray(latents[rows])
        idx, probs = _route(x, gate.params, gate.noise_std, k, rng)
        chosen = expert_logits[idx.T, rows]
        gathered = np.take_along_axis(probs, idx, axis=-1)
        combined = np.zeros(chosen.shape[1:])
        for s in range(k):
            combined += gathered[:, s, None] * chosen[s]
        ce, dlogits = cross_entropy(combined, labels[rows])
        lb, dlb = load_balance_loss(probs)
        dprob = lambda_load * dlb
        for s in range(k):
            dprob[np.arange(rows.size), idx[:, s]] += np.sum(
                dlogits * chosen[s], axis=-1)
        dgate_logits = softmax_backward(probs, dprob)
        grads = grad_normalize(
            ParamSet({"w0": x.T @ dgate_logits,
                      "b0": dgate_logits.sum(axis=0)}), grad_max_norm)
        gate = GateParams(params=sgd_step(gate.params, grads, lr),
                          noise_std=gate.noise_std)
        total += (ce + lambda_load * lb) * rows.size
    return gate, total / latents.shape[0]


def logit_cache(fe_spec, fe_params, expert_spec, experts, features):
    """Frozen latents of one shard and every expert's logits on all of
    its rows, (experts, rows, classes)."""
    latents = forward(fe_spec, fe_params, features)
    return latents, np.stack([forward(expert_spec, e, latents)
                              for e in experts])


def per_client_fedgate(clients, fe_spec, fe_params, expert_spec, experts,
                       gate_init, rounds, local_epochs, lr, lambda_load,
                       client_fraction, grad_max_norm, k, seed,
                       batch_size=64):
    """stage3_fedgate one participant at a time, each on its own 2-d
    latents and (experts, rows, classes) logit cache; rounds carry the
    participants too."""
    m = len(clients)
    sizes = [float(s.train.num_samples) for s in clients]
    caches = [logit_cache(fe_spec, fe_params, expert_spec, experts,
                          shard.train.features) for shard in clients]
    count = max(1, min(m, math.ceil(client_fraction * m - 1e-9)))
    params = gate_init.params
    rounds_out = []
    for r in range(rounds):
        sched = _derive(seed, seeding.SCHEDULE, r)
        participants = np.sort(sched.choice(m, size=count, replace=False))
        trained, losses = [], {}
        for c in participants:
            latents, outs = caches[c]
            rng = _derive(seed, seeding.STAGE3, r)
            gate = GateParams(params=params, noise_std=gate_init.noise_std)
            epoch_losses = []
            for _ in range(local_epochs):
                gate, loss = cache_gate_epoch(
                    gate, latents, clients[c].train.labels, outs, k, lr,
                    lambda_load, grad_max_norm, batch_size, rng)
                epoch_losses.append(loss)
            trained.append(gate.params)
            losses[clients[c].client_id] = epoch_losses
        for client, epoch_losses in losses.items():
            for loss in epoch_losses:
                _check_finite(loss, "stage3_fedgate", client, r)
        params = fedavg(trained, [sizes[c] for c in participants])
        rounds_out.append((params_digest(params),
                           {c: float(np.mean(v)) for c, v in losses.items()},
                           tuple(clients[c].client_id for c in participants)))
    return rounds_out


# The one-dataset counterparts of stage1_fedce, stage1_fedsc and
# stage3_fedgate. They run the package's steps under _epochs on one shard,
# with the stream derivations of a lone federated client, so a one-client
# federation must match them bit for bit (acceptance criterion 3).

def centralized_classifier(train, fe_spec, head_spec, rounds, local_epochs,
                           lr, seed, *, batch_size=64):
    """Plain SGD counterpart of stage1_fedce on one dataset.

    Follows the same rounds-by-epochs schedule and stream derivations, so
    a single-client federation matches it bit for bit.
    """
    spec = chain_specs(fe_spec, head_spec)
    fe = init_mlp_params(
        fe_spec, derive_rng(seed, seeding.INIT, seeding.INIT_EXTRACTOR, 0))
    params = _chain_params(spec, fe, init_mlp_params(
        head_spec, derive_rng(seed, seeding.INIT, seeding.INIT_EXPERT, 0)))
    step = _ce_step(spec, train.features, train.labels, lr)
    losses = []
    for r in range(rounds):
        params, epoch_losses = _epochs(
            params, local_epochs, train.num_samples, batch_size,
            derive_rng(seed, seeding.STAGE1, r, 0), step)
        for loss in epoch_losses:
            _check_finite(loss, "centralized_classifier", 0, r)
        losses.extend(epoch_losses.tolist())
    fe, head = _split_chain(params, fe_spec, head_spec)
    return fe, head, losses


def centralized_spectral(train, fe_spec, rounds, local_epochs, lr, aug_spec,
                         seed, *, batch_size=64):
    """Spectral-contrastive counterpart of stage1_fedsc on one dataset;
    the aggregate term is zero, matching a lone federated client."""
    fe = init_mlp_params(
        fe_spec, derive_rng(seed, seeding.INIT, seeding.INIT_EXTRACTOR, 0))
    rbar = np.zeros((fe_spec.out_width, fe_spec.out_width))
    losses = []
    for r in range(rounds):
        rng = derive_rng(seed, seeding.STAGE1, r, 0)
        fe, epoch_losses = _epochs(
            fe, local_epochs, train.num_samples, batch_size, rng,
            _spectral_step(fe_spec, train.features, aug_spec, rbar, 1.0, lr,
                           rng))
        for loss in epoch_losses:
            _check_finite(loss, "centralized_spectral", 0, r)
        losses.extend(epoch_losses.tolist())
    return fe, losses


def centralized_gate(train, latents, expert_spec, experts, gate_init,
                     rounds, local_epochs, lr, lambda_load, grad_max_norm, k,
                     seed, *, batch_size=64):
    """Gate-training counterpart of stage3_fedgate on one dataset: a
    stack of one gate trained on one shard, from the shard's frozen
    latents, (1, n, d)."""
    params = stack_params([gate_init.params])
    losses = []
    for r in range(rounds):
        rng = derive_rng(seed, seeding.STAGE3, r, 0)
        params, epoch_losses = _epochs(
            params, local_epochs, train.num_samples, batch_size, rng,
            _gate_step(gate_init.noise_std, latents, train.labels[None],
                       np.zeros(1, dtype=np.int64), expert_spec, experts, k,
                       lr, lambda_load, grad_max_norm, rng))
        for loss in epoch_losses[0]:
            _check_finite(loss, "centralized_gate", 0, r)
        losses.extend(epoch_losses[0].tolist())
    return GateParams(params=unstack_params(params)[0],
                      noise_std=gate_init.noise_std), losses


def cache_centralized_gate(train, fe_spec, fe_params, expert_spec, experts,
                           gate_init, rounds, local_epochs, lr, lambda_load,
                           grad_max_norm, k, seed, batch_size=64):
    """centralized_gate on the shard-wide logit cache; returns every
    round's gate digest and every epoch's loss."""
    latents, outs = logit_cache(fe_spec, fe_params, expert_spec, experts,
                                train.features)
    gate = gate_init
    digests, losses = [], []
    for r in range(rounds):
        rng = _derive(seed, seeding.STAGE3, r)
        for _ in range(local_epochs):
            gate, loss = cache_gate_epoch(
                gate, latents, train.labels, outs, k, lr, lambda_load,
                grad_max_norm, batch_size, rng)
            _check_finite(loss, "centralized_gate", 0, r)
            losses.append(loss)
        digests.append(params_digest(gate.params))
    return digests, losses


def per_client_fedavg_classifier(config, shards):
    """The FedAvg-classifier baseline of nmoe.pipeline, one client at a
    time; client losses are each client's last-epoch loss."""
    spec = chain_specs(config.model.fe_spec(), config.model.expert_spec())
    s1 = config.stage1
    sizes = [float(s.train.num_samples) for s in shards]
    global_params = init_mlp_params(spec, _derive(
        config.seed, seeding.BASELINE, _BASE_FEDAVG_INIT))
    rounds_out = []
    for r in range(s1.rounds):
        locals_p = []
        losses = {}
        for shard in shards:
            params, epoch_losses = _epochs(
                global_params, s1.local_epochs, shard.train.num_samples,
                config.batch_size,
                _derive(config.seed, seeding.BASELINE,
                        _BASE_FEDAVG_ROUND + r),
                _ce_step(spec, shard.train.features, shard.train.labels,
                         s1.lr))
            for loss in epoch_losses:
                _check_finite(loss, "baseline_fedavg_classifier",
                              shard.client_id, r)
            locals_p.append(params)
            losses[shard.client_id] = float(epoch_losses[-1])
        global_params = fedavg(locals_p, sizes)
        rounds_out.append((params_digest(global_params), losses))
    return rounds_out


def per_client_local_classifiers(config, shards):
    """The local-classifier baseline of nmoe.pipeline, one client at a
    time; returns the parameters by client id and each client's
    last-epoch loss."""
    spec = chain_specs(config.model.fe_spec(), config.model.expert_spec())
    params_by_client, losses = {}, []
    for shard in shards:
        c = shard.client_id
        params = init_mlp_params(spec, derive_rng(
            config.seed, seeding.BASELINE, _BASE_LOCAL_INIT, c))
        params, epoch_losses = _epochs(
            params, config.baselines.epochs, shard.train.num_samples,
            config.batch_size,
            derive_rng(config.seed, seeding.BASELINE, _BASE_LOCAL_TRAIN, c),
            _ce_step(spec, shard.train.features, shard.train.labels,
                     config.baselines.lr))
        for epoch, loss in enumerate(epoch_losses):
            _check_finite(loss, "baseline_local_classifier", c, epoch)
        params_by_client[c] = params
        losses.append(float(epoch_losses[-1]))
    return params_by_client, losses


# ---------------------------------------------------------------------------
# the centralized mixture's training one expert at a time: m forwards,
# m backwards, m clips and m steps per batch, as the package did before
# it stacked the experts

def per_expert_moe_forward(model, batch, k, rng=None):
    """(logits, indices, probs, latents, fe_tape, outputs, expert_tapes)
    of a training batch, each pick weighted by its unmasked probability;
    outputs is (experts, rows, classes)."""
    latents, fe_tape = forward(model.fe_spec, model.fe_params, batch,
                               want_tape=True)
    decision, probs = gate_topk(latents, model.gate, k, rng)
    n = latents.shape[0]
    outputs = np.empty((model.num_experts, n, model.num_classes))
    tapes = []
    for e, expert in enumerate(model.experts):
        outputs[e], tape = forward(model.expert_spec, expert, latents,
                                   want_tape=True)
        tapes.append(tape)
    rows = np.arange(n)
    logits = np.zeros((n, model.num_classes))
    for s in range(k):
        pick = decision.indices[:, s]
        logits += probs[rows, pick][:, None] * outputs[pick, rows]
    return logits, decision.indices, probs, latents, fe_tape, outputs, tapes


def per_expert_moe_backward(model, fwd, dlogits, dprobs=None):
    """(fe, gate, experts) gradients for per_expert_moe_forward's record;
    experts is a tuple of 2-d sets."""
    _, indices, probs, latents, fe_tape, outputs, tapes = fwd
    n, m = probs.shape
    rows = np.arange(n)
    selected = np.zeros((n, m), dtype=bool)
    selected[rows[:, None], indices] = True
    dprob_total = np.zeros((n, m))
    for e in range(m):
        dprob_total[:, e] = np.where(
            selected[:, e], (dlogits * outputs[e]).sum(axis=1), 0.0)
    if dprobs is not None:
        dprob_total += dprobs
    dgate_logits = softmax_backward(probs, dprob_total)
    gate_grads = ParamSet({"w0": latents.T @ dgate_logits,
                           "b0": dgate_logits.sum(axis=0)})
    dlatents = dgate_logits @ model.gate.params["w0"].T
    expert_grads = []
    for e in range(m):
        upstream = np.where(selected[:, e, None],
                            probs[:, e, None] * dlogits, 0.0)
        grads_e, dlat_e = backward(tapes[e], upstream)
        expert_grads.append(grads_e)
        dlatents += dlat_e
    fe_grads, _ = backward(fe_tape, dlatents)
    return fe_grads, gate_grads, tuple(expert_grads)


def per_expert_centralized_moe(config, shards):
    """train_centralized_moe with one 2-d network per expert and the
    model rebuilt after every batch; returns (model, losses)."""
    pooled_x = np.concatenate([s.train.features for s in shards])
    pooled_y = np.concatenate([s.train.labels for s in shards])
    m = config.data.num_clients
    fe_spec = config.model.fe_spec()
    expert_spec = config.model.expert_spec()

    def init(slot):
        return derive_rng(config.seed, seeding.BASELINE, _BASE_CENTRAL_INIT,
                          slot)

    model = NmoeModel(
        fe_spec=fe_spec, fe_params=init_mlp_params(fe_spec, init(0)),
        gate=init_gate_params(config.model.latent_dim, m,
                              config.model.gate_noise_std, init(1),
                              scale=0.0),
        expert_spec=expert_spec,
        experts=tuple(init_mlp_params(expert_spec, init(2 + e))
                      for e in range(m)))
    lam = config.stage3.lambda_load
    max_norm = config.stage3.grad_max_norm
    lr = config.baselines.lr
    rng = derive_rng(config.seed, seeding.BASELINE, _BASE_CENTRAL_TRAIN, 0)
    n = len(pooled_y)
    losses = []
    for epoch in range(config.baselines.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            fwd = per_expert_moe_forward(model, pooled_x[rows], config.k,
                                         rng)
            ce, dlogits = cross_entropy(fwd[0], pooled_y[rows])
            lb, dlb = load_balance_loss(fwd[2])
            fe_g, gate_g, expert_g = per_expert_moe_backward(
                model, fwd, dlogits, lam * dlb)
            model = NmoeModel(
                fe_spec=fe_spec,
                fe_params=sgd_step(model.fe_params,
                                   grad_normalize(fe_g, max_norm), lr),
                gate=GateParams(
                    params=sgd_step(model.gate.params,
                                    grad_normalize(gate_g, max_norm), lr),
                    noise_std=model.gate.noise_std),
                expert_spec=expert_spec,
                experts=tuple(sgd_step(p, grad_normalize(g, max_norm), lr)
                              for p, g in zip(model.experts, expert_g)))
            total += (ce + lam * lb) * rows.size
        loss = total / n
        _check_finite(loss, "baseline_centralized_moe", 0, epoch)
        losses.append(float(loss))
    return model, losses


def dense_centralized_step(config, features, labels, rng):
    """The centralized mixture's dense step on pooled (rows, width)
    features and (rows,) labels, the reference for
    pipeline._centralized_step: step((fe, gate, experts), rows, epoch)
    -> (params, loss) on three separate sets, every expert's upstream a
    dense (m, rows, classes) product masked to the picks, the latent
    gradient an m-term loop, then three clips and three SGD steps."""
    m = config.data.num_clients
    fe_spec = config.model.fe_spec()
    expert_spec = config.model.expert_spec()
    noise_std = config.model.gate_noise_std
    lam = config.stage3.lambda_load
    max_norm = config.stage3.grad_max_norm
    lr = config.baselines.lr

    def step(params, rows, epoch):
        fe, gate, experts = params
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
        batch_rows = np.arange(rows.size)
        loss, dlogits, gate_grads, dgate_logits = moe_backward(
            latents, probs, idx, outputs[idx.T, batch_rows], labels[rows],
            lam)
        selected = np.zeros(probs.shape, dtype=bool)
        selected[batch_rows[:, None], idx] = True
        expert_grads, dlat = backward(
            expert_tape, np.where(selected.T[:, :, None],
                                  probs.T[:, :, None] * dlogits, 0.0))
        # the gate's share first, then each expert's in index order
        dlatents = dgate_logits @ gate["w0"].T
        for e in range(m):
            dlatents += dlat[e]
        fe_grads, _ = backward(fe_tape, dlatents, input_grad=False)
        return (sgd_step(fe, grad_normalize(fe_grads, max_norm), lr),
                sgd_step(gate, grad_normalize(gate_grads, max_norm), lr),
                sgd_step(experts, grad_normalize(expert_grads, max_norm),
                         lr)), loss
    return step
