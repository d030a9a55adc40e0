"""Acceptance suite: ten criteria, one test (and one result line) each.

Criteria 1-4 and 9-10 are exactness properties with pinned tolerances;
criteria 5-8 are behavioral trends measured on the default synthetic
benchmark (10 clients, 10 classes) over seeds 0-2 at the default
hyperparameters.
"""

import json

import numpy as np
import pytest

from oracles import (centralized_classifier, centralized_gate,
                     centralized_spectral, finite_difference,
                     finite_difference_params, max_relative_error,
                     max_relative_error_params, pairwise_macro_auc,
                     per_client_fedce)

from nmoe import seeding
from nmoe.config import RunConfig, config_from_dict
from nmoe.datasets import (AugmentSpec, Dataset, gen_synthetic, load_cifar10,
                           partition_noniid, save_cifar10)
from nmoe.federated import (fedavg, spectral_contrastive_local_loss,
                            stage1_fedce, stage1_fedsc, stage3_fedgate)
from nmoe.metrics import macro_auc
from nmoe.moe import (GateParams, NmoeModel, gate_topk, init_gate_params,
                      load_balance_loss)
from nmoe.netsim import CostModel, local_ratio, simulate_inference
from nmoe.numerics import (MlpSpec, ParamSet, backward, cross_entropy,
                           forward, init_mlp_params, softmax)
from nmoe.pipeline import run_pipeline
from nmoe.seeding import derive_rng

SEEDS = (0, 1, 2)
FD_TOL = 1e-4
FD_INSTANCES = 20


def default_doc(seed: int, tau: float, stage1: str, stage3: str) -> dict:
    doc = RunConfig().to_dict()
    doc["seed"] = seed
    doc["data"]["tau"] = tau
    doc["stage1"] = {"method": stage1}
    if stage3 != "fedgate":
        doc["stage3"] = {"method": stage3}
    return doc


@pytest.fixture(scope="module")
def trend():
    """All default-scale runs the trend criteria share, keyed by
    (stage1 method, tau, stage3 method, seed)."""
    runs = {}
    for seed in SEEDS:
        for key, with_baselines in (
                (("fedsc", 0.3, "fedgate"), False),
                (("fedsc", 0.3, "rangate"), False),
                (("fedsc", 0.2, "fedgate"), True),
                (("fedce", 0.2, "fedgate"), False),
                (("fedsc", 1.0, "fedgate"), False),
                (("fedce", 1.0, "fedgate"), False)):
            cfg = config_from_dict(default_doc(seed, key[1], key[0], key[2]))
            runs[key + (seed,)] = run_pipeline(
                cfg, with_baselines=with_baselines)
    return runs


def mean_pooled_accuracy(trend, stage1, tau, stage3) -> float:
    return float(np.mean([
        trend[(stage1, tau, stage3, s)].evaluation.pooled_accuracy
        for s in SEEDS]))


def test_criterion_01_gradients_match_finite_differences():
    """Dense layers, cross entropy, the balance penalty through the gate
    probabilities, and the contrastive loss all agree with central
    differences to a relative error under 1e-4."""
    rng = np.random.default_rng(42)
    acts = (0, 1, 2)  # identity, relu, tanh

    def relu_kink_margin(spec, params, batch) -> float:
        """Distance of the closest relu preactivation to its kink; probes
        that straddle the kink would make the numeric gradient lie."""
        x, margin = batch, np.inf
        for layer in range(spec.num_layers):
            pre = x @ params[f"w{layer}"] + params[f"b{layer}"]
            act = spec.activations[layer]
            if act == 1:
                margin = min(margin, float(np.min(np.abs(pre))))
                x = np.maximum(pre, 0.0)
            else:
                x = np.tanh(pre) if act == 2 else pre
        return margin

    done = 0
    while done < FD_INSTANCES:
        widths = tuple(int(w) for w in rng.integers(2, 6, size=3))
        spec = MlpSpec(widths, tuple(rng.choice(acts, size=2)))
        params = init_mlp_params(spec, rng)
        batch = rng.normal(size=(4, widths[0]))
        mix = rng.normal(size=(4, widths[-1]))
        if relu_kink_margin(spec, params, batch) < 1e-3:
            continue

        def net_loss(p, _spec=spec, _b=batch, _m=mix):
            return float(np.sum(forward(_spec, p, _b) * _m))

        _, tape = forward(spec, params, batch, want_tape=True)
        grads, dbatch = backward(tape, mix)
        assert max_relative_error_params(
            grads, finite_difference_params(net_loss, params)) < FD_TOL
        fd_batch = finite_difference(
            lambda b: float(np.sum(forward(spec, params, b) * mix)), batch)
        assert max_relative_error(dbatch, fd_batch) < FD_TOL
        done += 1

    for i in range(FD_INSTANCES):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = cross_entropy(logits, labels)
        fd = finite_difference(lambda z: cross_entropy(z, labels)[0], logits)
        assert max_relative_error(grad, fd) < FD_TOL

    done = 0
    while done < FD_INSTANCES:
        raw = rng.normal(size=(6, 3))
        probs = softmax(raw)
        top2 = np.sort(probs, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) < 1e-3:
            continue  # a flipping argmax would break the probe
        _, dprobs = load_balance_loss(probs)
        fd = finite_difference(
            lambda p: load_balance_loss(p)[0], probs)
        assert max_relative_error(dprobs, fd) < FD_TOL
        done += 1

    for i in range(FD_INSTANCES):
        z1 = rng.normal(size=(5, 4))
        z2 = rng.normal(size=(5, 4))
        rbar = rng.normal(size=(4, 4))
        q = float(rng.uniform(0.05, 1.0))
        _, dz1, dz2 = spectral_contrastive_local_loss(z1, z2, rbar, q)
        fd1 = finite_difference(
            lambda z: spectral_contrastive_local_loss(z, z2, rbar, q)[0], z1)
        fd2 = finite_difference(
            lambda z: spectral_contrastive_local_loss(z1, z, rbar, q)[0], z2)
        assert max_relative_error(dz1, fd1) < FD_TOL
        assert max_relative_error(dz2, fd2) < FD_TOL


def test_criterion_02_analytic_oracles_exact():
    """Balance-penalty extremes, the 1.15 fixture, softmax/top-k
    fixtures, and rank-based AUC against exhaustive pair counting."""
    for m in (2, 4, 10):
        assert load_balance_loss(np.full((8, m), 1.0 / m))[0] == 1.0
        collapsed = np.zeros((6, m))
        collapsed[:, 0] = 1.0
        assert load_balance_loss(collapsed)[0] == float(m)

    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.3, 0.7]])
    assert abs(load_balance_loss(probs)[0] - 1.15) < 1e-12

    assert np.array_equal(softmax(np.zeros((3, 4))), np.full((3, 4), 0.25))
    assert np.array_equal(softmax(np.array([[7.0, 7.0]])),
                          np.array([[0.5, 0.5]]))

    gate = GateParams(params=ParamSet({"w0": np.eye(3), "b0": np.zeros(3)}),
                      noise_std=0.0)
    decision, probs = gate_topk(np.array([[3.0, 1.0, 2.0]]), gate, 2)
    assert decision.indices.tolist() == [[0, 2]]
    e = np.exp(np.array([3.0, 2.0]) - 3.0)
    assert np.array_equal(decision.weights[0], e / e.sum())
    assert np.array_equal(probs, softmax(np.array([[3.0, 1.0, 2.0]])))
    tied, _ = gate_topk(np.array([[1.0, 1.0, 1.0]]), gate, 2)
    assert tied.indices.tolist() == [[0, 1]]
    assert np.array_equal(tied.weights[0], np.array([0.5, 0.5]))

    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        c = int(rng.integers(2, 5))
        labels = rng.integers(0, c, size=n)
        if len(np.unique(labels)) < 2:
            continue
        scores = rng.integers(0, 9, size=(n, c)) / 8.0  # ties on purpose
        assert macro_auc(scores, labels) == pairwise_macro_auc(scores,
                                                               labels)


def test_criterion_03_single_client_matches_centralized_bitwise():
    """A one-client federation reproduces plain centralized training bit
    for bit, for both stage-1 methods and the federated gate; federated
    averaging fixtures are exact."""
    data = gen_synthetic(4, 8, 60, 0.15, 11)
    clients = partition_noniid(data, 1, 1.0, 60, 30, 11)
    fe_spec = MlpSpec((8, 10, 6), (1, 2))
    head_spec = MlpSpec((6, 4), (0,))

    result = stage1_fedce(clients, fe_spec, head_spec, rounds=2,
                          local_epochs=2, lr=0.05, seed=7)
    fe, head, _ = centralized_classifier(clients[0].train, fe_spec,
                                         head_spec, rounds=2,
                                         local_epochs=2, lr=0.05, seed=7)
    assert result.fe_params == fe
    assert result.heads[0] == head
    # both train the chained network; the two-network reference epoch
    # gives the same bits
    rounds, heads = per_client_fedce(clients, fe_spec, head_spec, rounds=2,
                                     local_epochs=2, lr=0.05, seed=7)
    assert [(r.params_digest, r.client_losses)
            for r in result.reports] == rounds
    assert list(result.heads) == heads

    aug = AugmentSpec(noise_std=0.1, mask_prob=0.1)
    result = stage1_fedsc(clients, fe_spec, rounds=2, local_epochs=2,
                          lr=0.05, aug_spec=aug, dp_noise_std=0.05, seed=13)
    fe_sc, _ = centralized_spectral(clients[0].train, fe_spec, rounds=2,
                                    local_epochs=2, lr=0.05, aug_spec=aug,
                                    seed=13)
    assert result.fe_params == fe_sc

    expert_spec = MlpSpec((6, 4), (0,))
    rng = np.random.default_rng(3)
    experts = (init_mlp_params(expert_spec, rng),)
    gate_init = init_gate_params(
        6, 1, 0.01, derive_rng(5, seeding.INIT, seeding.INIT_GATE, 0))
    result = stage3_fedgate(clients, fe_spec, fe, expert_spec, experts,
                            gate_init, rounds=3, local_epochs=2, lr=0.05,
                            lambda_load=0.01, client_fraction=0.7,
                            grad_max_norm=1.0, k=1, seed=5)
    gate, _ = centralized_gate(clients[0].train, fe_spec, fe, expert_spec,
                               experts, gate_init, rounds=3, local_epochs=2,
                               lr=0.05, lambda_load=0.01, grad_max_norm=1.0,
                               k=1, seed=5)
    assert result.gate.params == gate.params

    sets = [ParamSet({"a": np.array([2.0, 0.0])}),
            ParamSet({"a": np.array([6.0, 8.0])})]
    averaged = fedavg(sets, [1.0, 3.0])
    assert np.array_equal(averaged["a"], np.array([5.0, 6.0]))
    assert fedavg([sets[0]], [7.0]) == sets[0]


def test_criterion_04_local_contrastive_loss_matches_global_objective():
    """With the full sample weight, one client's contrastive loss equals
    the pooled objective on the same batch to 1e-12."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        b, d = int(rng.integers(4, 16)), int(rng.integers(2, 8))
        z1 = rng.normal(size=(b, d))
        z2 = rng.normal(size=(b, d))
        rbar = rng.normal(size=(d, d))  # must be ignored at q = 1
        loss, _, _ = spectral_contrastive_local_loss(z1, z2, rbar, 1.0)
        rp = z1.T @ z2 / b
        rhat = (z1.T @ z1 + z2.T @ z2) / (2 * b)
        reference = -np.trace(rp) + 0.5 * np.sum(rhat * rhat)
        assert abs(loss - reference) < 1e-12


def test_criterion_05_learned_gate_beats_random_gate(trend):
    """Training the shared gate is worth at least five accuracy points
    over random expert selection at moderate heterogeneity."""
    learned = mean_pooled_accuracy(trend, "fedsc", 0.3, "fedgate")
    random_gate = mean_pooled_accuracy(trend, "fedsc", 0.3, "rangate")
    assert learned - random_gate >= 0.05


def test_criterion_06_contrastive_extractor_wins_under_heterogeneity(trend):
    """The label-free extractor wins under skewed shards; supervised
    federated training wins back under uniform shards."""
    assert mean_pooled_accuracy(trend, "fedsc", 0.2, "fedgate") \
        >= mean_pooled_accuracy(trend, "fedce", 0.2, "fedgate")
    assert mean_pooled_accuracy(trend, "fedce", 1.0, "fedgate") \
        >= mean_pooled_accuracy(trend, "fedsc", 1.0, "fedgate")


def test_criterion_07_local_classifier_f1_collapse(trend):
    """Local classifiers ace their own skewed shards while their
    per-client macro-F1 collapses (>= 30 points under accuracy); the
    trained mixture keeps that gap strictly smaller.

    Per-client averages carry the signature: with every class dominant
    on exactly one client, pooling the shards re-balances predictions
    and pooled macro-F1 tracks accuracy again, but each single client's
    macro-F1 is dragged down by the nine classes it barely sees."""
    local_gaps, nmoe_gaps, local_accs = [], [], []
    for seed in SEEDS:
        run = trend[("fedsc", 0.2, "fedgate", seed)]
        local = run.baselines["local_classifier"]["evaluation"]
        local_gaps.append(local["client_mean"]["accuracy"]
                          - local["client_mean"]["macro_f1"])
        local_accs.append(local["client_mean"]["accuracy"])
        ev = run.evaluation
        nmoe_gaps.append(ev.client_mean_accuracy - ev.client_mean_macro_f1)
    assert np.mean(local_accs) > 0.6
    assert np.mean(local_gaps) >= 0.30
    assert np.mean(nmoe_gaps) < np.mean(local_gaps)


def test_criterion_08_routing_pattern_properties(trend):
    """Local classifiers route nothing away (ratio exactly 1); the
    trained mixture keeps more traffic local than the centralized
    mixture and than chance; its routing matrix is diagonal-dominant on
    a majority of rows."""
    nmoe_lr, central_lr = [], []
    m = 10
    for seed in SEEDS:
        run = trend[("fedsc", 0.2, "fedgate", seed)]
        baseline = run.baselines
        local_counts = np.asarray(
            baseline["local_classifier"]["routing"]["counts"])
        assert baseline["local_classifier"]["local_ratio"] == 1.0
        assert np.array_equal(local_counts,
                              np.diag(np.diag(local_counts)))
        ratio = local_ratio(run.routing)
        nmoe_lr.append(ratio)
        central_lr.append(baseline["centralized_moe"]["local_ratio"])
        assert ratio > 1.0 / m
        counts = run.routing.counts
        dominant = sum(counts[i, i] > np.max(np.delete(counts[i], i))
                       for i in range(m))
        assert dominant > m // 2
    assert np.mean(nmoe_lr) > np.mean(central_lr)


def test_criterion_09_byte_accounting_exact():
    """On randomized inference runs the byte counters equal the closed
    forms and selection counts are conserved."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        classes = max(2, m)
        dim = int(rng.integers(2, 7))
        latent = int(rng.integers(2, 7))
        k = int(rng.integers(1, m + 1))
        data = gen_synthetic(classes, dim, 30, 0.3, int(rng.integers(1e6)))
        shards = partition_noniid(data, m, 0.8, 10, 6,
                                  int(rng.integers(1e6)))
        model_rng = np.random.default_rng(int(rng.integers(1e6)))
        fe_spec = MlpSpec((dim, latent), (2,))
        expert_spec = MlpSpec((latent, classes), (0,))
        model = NmoeModel(
            fe_spec=fe_spec,
            fe_params=init_mlp_params(fe_spec, model_rng),
            gate=init_gate_params(latent, m, 0.0, model_rng),
            expert_spec=expert_spec,
            experts=tuple(init_mlp_params(expert_spec, model_rng)
                          for _ in range(m)))
        cost = CostModel(latent_dim=latent, num_classes=classes,
                         bytes_per_scalar=4)
        result = simulate_inference(model, shards, k, cost)
        counts = result.log.counts
        samples = sum(s.test.num_samples for s in shards)
        assert counts.sum() == samples * k
        remote = counts.sum() - np.trace(counts)
        assert result.log.bytes_out == remote * latent * 4
        assert result.log.bytes_back == remote * classes * 4
        for i, shard in enumerate(shards):
            assert counts[i].sum() == shard.test.num_samples * k


def test_criterion_10_reproducibility(tmp_path):
    """The same config run twice writes byte-identical records, and the
    CIFAR-10 binary layout round-trips exactly."""
    doc = {
        "config_version": 1,
        "seed": 5,
        "output_dir": str(tmp_path / "run"),
        "data": {"samples_per_class": 200, "train_per_client": 120,
                 "test_per_client": 60},
        "stage1": {"rounds": 3},
        "stage2": {"epochs": 3},
        "stage3": {"rounds": 3},
    }
    names = ("results.json", "model.json", "heatmap.csv",
             "training_log.jsonl")
    run_pipeline(config_from_dict(doc))
    first = {n: (tmp_path / "run" / n).read_bytes() for n in names}
    run_pipeline(config_from_dict(doc))
    for name in names:
        assert (tmp_path / "run" / name).read_bytes() == first[name], name

    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(40, 3072)).astype(np.float64)
    original = Dataset(pixels / 255.0, rng.integers(0, 10, size=40), 10)
    save_cifar10(original, tmp_path / "batch.bin")
    loaded = load_cifar10(tmp_path / "batch.bin")
    assert np.array_equal(loaded.features, original.features)
    assert np.array_equal(loaded.labels, original.labels)
