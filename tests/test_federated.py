import ast
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmoe import federated, kernels, seeding
from nmoe.config import config_from_dict
from nmoe.datasets import AugmentSpec, Dataset, Shard, gen_synthetic, partition_noniid
from nmoe.errors import ConfigError, DataError, InternalError, TrainingError
from nmoe.federated import (FedRoundReport, Stage1Result, _Peer,
                            _routed_logits,
                            _view_grad, classifier_round_bytes,
                            compute_correlation_share, fedavg,
                            fedavg_classifier, fedgate_round_bytes,
                            fedgate_setup_bytes, frozen_latents,
                            rollgate_pass_bytes, rollgate_pseudo_labels,
                            spectral_contrastive_local_loss,
                            spectral_round_bytes, stage1_fedce, stage1_fedsc,
                            stage2_experts, stage3_fedgate, stage3_rangate,
                            stage3_rollgate)
from nmoe.moe import GateParams, RandomGate, gate_topk, init_gate_params
from nmoe.numerics import (MlpSpec, ParamSet, forward, init_mlp_params,
                           params_digest)
from nmoe.pipeline import run_pipeline
from nmoe.seeding import derive_rng
import oracles
from oracles import (centralized_classifier, centralized_gate,
                     centralized_spectral, finite_difference,
                     max_relative_error)

I, R, T = kernels.ACT_IDENTITY, kernels.ACT_RELU, kernels.ACT_TANH


def params_1d(value: float) -> ParamSet:
    return ParamSet({"w0": np.array([value])})


def identity_extractor(dim: int) -> tuple[MlpSpec, ParamSet]:
    spec = MlpSpec((dim, dim), (I,))
    params = ParamSet({"w0": np.eye(dim), "b0": np.zeros(dim)})
    return spec, params


def latents_of(clients, fe_spec, fe):
    """The clients' frozen train latents, as run_pipeline hands them to
    stages 2 and 3."""
    return frozen_latents(fe_spec, fe, [s.train for s in clients])


def fedgate_over(clients, fe_spec, fe, *args, **kw):
    """stage3_fedgate on the clients' frozen latents, called like
    oracles.per_client_fedgate."""
    return stage3_fedgate(clients, latents_of(clients, fe_spec, fe), *args,
                          **kw)


def make_clients(num_clients, tau, *, num_classes=4, dim=8, per_class=120,
                 spread=0.15, train_pc=60, test_pc=30, seed=11):
    data = gen_synthetic(num_classes, dim, per_class, spread, seed)
    return partition_noniid(data, num_clients, tau, train_pc, test_pc, seed)


def probe_accuracy(fe_spec, fe_params, head_spec, head, data) -> float:
    logits = forward(head_spec, head, forward(fe_spec, fe_params,
                                              data.features))
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))



@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([(), (3,)]),
       st.integers(1, 40), st.integers(1, 12))
def test_view_grad_matches_its_expression(seed, lead, b, d):
    rng = np.random.default_rng(seed)
    z, z_other = rng.normal(size=(2,) + lead + (b, d))
    coupling = rng.normal(size=lead + (d, d))
    assert oracles.same_bits(
        _view_grad(z, z_other, coupling, b),
        oracles.spectral_view_grad_expr(z, z_other, coupling, b))

class TestFedavg:
    def test_equal_weights(self):
        out = fedavg([params_1d(1.0), params_1d(3.0)], [1.0, 1.0])
        assert out["w0"].tolist() == [2.0]

    def test_size_weighted(self):
        out = fedavg([params_1d(0.0), params_1d(4.0)], [100.0, 300.0])
        assert out["w0"].tolist() == [3.0]

    def test_single_set_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        ps = ParamSet({"w0": rng.normal(size=(4, 3)),
                       "b0": rng.normal(size=3)})
        out = fedavg([ps], [17.0])
        assert out == ps

    def test_validation(self):
        with pytest.raises(ConfigError):
            fedavg([], [])
        with pytest.raises(ConfigError):
            fedavg([params_1d(1.0)], [1.0, 2.0])
        with pytest.raises(ConfigError):
            fedavg([params_1d(1.0), params_1d(2.0)], [1.0, -0.5])
        with pytest.raises(ConfigError):
            fedavg([params_1d(1.0)], [0.0])
        other = ParamSet({"w0": np.zeros((2, 2))})
        with pytest.raises(ConfigError):
            fedavg([params_1d(1.0), other], [1.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 5))
    def test_permutation_invariant_and_convex(self, seed, count):
        rng = np.random.default_rng(seed)
        sets = [ParamSet({"a": rng.normal(size=(3, 2))})
                for _ in range(count)]
        weights = rng.uniform(0.1, 2.0, size=count)
        out = fedavg(sets, weights)
        perm = rng.permutation(count)
        permuted = fedavg([sets[i] for i in perm], weights[perm])
        np.testing.assert_allclose(out["a"], permuted["a"], rtol=1e-12,
                                   atol=1e-15)
        stacked = np.stack([s["a"] for s in sets])
        assert (out["a"] >= stacked.min(axis=0) - 1e-12).all()
        assert (out["a"] <= stacked.max(axis=0) + 1e-12).all()

    def test_idempotent_on_identical_inputs(self):
        ps = ParamSet({"a": np.array([0.3, -1.7, 2.2])})
        out = fedavg([ps, ps, ps], [1.0, 5.0, 2.0])
        np.testing.assert_allclose(out["a"], ps["a"], rtol=1e-12)


class TestSpectralLoss:
    def test_unit_vector_fixture(self):
        e1 = np.zeros((1, 4))
        e1[0, 0] = 1.0
        loss, _, _ = spectral_contrastive_local_loss(
            e1, e1, np.zeros((4, 4)), 1.0)
        assert loss == -0.5

    def test_q_one_matches_global_objective(self):
        rng = np.random.default_rng(5)
        z1 = rng.normal(size=(12, 6))
        z2 = rng.normal(size=(12, 6))
        rbar = rng.normal(size=(6, 6))  # must be ignored at q = 1
        loss, _, _ = spectral_contrastive_local_loss(z1, z2, rbar, 1.0)
        b = z1.shape[0]
        rp = z1.T @ z2 / b
        rhat = (z1.T @ z1 + z2.T @ z2) / (2 * b)
        reference = -np.trace(rp) + 0.5 * np.sum(rhat * rhat)
        assert abs(loss - reference) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            z1 = rng.normal(size=(5, 4))
            z2 = rng.normal(size=(5, 4))
            rbar = rng.normal(size=(4, 4))
            q = float(rng.uniform(0.1, 1.0))
            _, dz1, dz2 = spectral_contrastive_local_loss(z1, z2, rbar, q)
            fd1 = finite_difference(
                lambda z: spectral_contrastive_local_loss(z, z2, rbar,
                                                          q)[0], z1)
            fd2 = finite_difference(
                lambda z: spectral_contrastive_local_loss(z1, z, rbar,
                                                          q)[0], z2)
            assert max_relative_error(dz1, fd1) < 1e-4
            assert max_relative_error(dz2, fd2) < 1e-4

    def test_validation(self):
        z = np.zeros((3, 2))
        with pytest.raises(ConfigError):
            spectral_contrastive_local_loss(z, np.zeros((4, 2)),
                                            np.zeros((2, 2)), 1.0)
        with pytest.raises(ConfigError):
            spectral_contrastive_local_loss(z, z, np.zeros((3, 3)), 1.0)
        with pytest.raises(ConfigError):
            spectral_contrastive_local_loss(z, z, np.zeros((2, 2)), 0.0)
        stack = np.zeros((2, 3, 2))
        with pytest.raises(ConfigError):
            spectral_contrastive_local_loss(stack, stack, np.zeros((2, 2)),
                                            1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 70),
           st.integers(1, 10))
    def test_stacked_matches_per_slice(self, seed, g, b, d):
        rng = np.random.default_rng(seed)
        z1, z2 = rng.normal(size=(2, g, b, d))
        rbar = rng.normal(size=(g, d, d))
        q = float(rng.uniform(0.05, 1.0))
        loss, dz1, dz2 = spectral_contrastive_local_loss(z1, z2, rbar, q)
        for c in range(g):
            single = spectral_contrastive_local_loss(z1[c], z2[c], rbar[c],
                                                     q)
            assert loss[c] == single[0]
            assert np.array_equal(dz1[c], single[1])
            assert np.array_equal(dz2[c], single[2])


class TestCorrelationShare:
    def setup_method(self):
        self.spec, self.params = identity_extractor(6)
        data = gen_synthetic(3, 6, 40, 0.2, seed=3)
        self.shard = Shard(client_id=2, train=data, test=data)
        self.aug = AugmentSpec(noise_std=0.1, mask_prob=0.1)

    def test_symmetric_without_noise(self):
        share = compute_correlation_share(
            self.spec, self.params, self.shard, self.aug, 0.0,
            np.random.default_rng(9))
        assert np.array_equal(share, share.T)

    def test_noise_magnitude_concentrates(self):
        clean = compute_correlation_share(
            self.spec, self.params, self.shard, self.aug, 0.0,
            np.random.default_rng(9))
        noisy = compute_correlation_share(
            self.spec, self.params, self.shard, self.aug, 0.05,
            np.random.default_rng(9))
        dist = float(np.linalg.norm(noisy - clean))
        # Frobenius norm of d x d elementwise Gaussian noise is close to
        # std * d, with spread about std / sqrt(2)
        assert abs(dist - 0.05 * 6) < 4 * 0.05 / np.sqrt(2)

    @pytest.mark.parametrize("dp_noise_std", [0.0, 0.05])
    def test_matches_the_share_of_both_augmented_views(self, dp_noise_std):
        # applying only the first view keeps the share's bits and leaves
        # the stream where drawing and applying both views left it
        spec = MlpSpec((6, 5, 4), (kernels.ACT_TANH, kernels.ACT_IDENTITY))
        params = init_mlp_params(spec, np.random.default_rng(1))
        rng, expect_rng = np.random.default_rng(9), np.random.default_rng(9)
        share = compute_correlation_share(spec, params, self.shard, self.aug,
                                          dp_noise_std, rng)
        expect = oracles.correlation_share_both_views(
            spec, params, self.shard, self.aug, dp_noise_std, expect_rng)
        assert oracles.same_bits(share, expect)
        assert rng.random() == expect_rng.random()


class TestStage1FedCE:
    fe_spec = MlpSpec((8, 10, 6), (R, T))
    head_spec = MlpSpec((6, 4), (I,))

    def test_single_client_matches_centralized_bitwise(self):
        clients = make_clients(1, 1.0)
        result = stage1_fedce(clients, self.fe_spec, self.head_spec,
                              rounds=2, local_epochs=2, lr=0.05, seed=7)
        fe, head, _ = centralized_classifier(
            clients[0].train, self.fe_spec, self.head_spec, rounds=2,
            local_epochs=2, lr=0.05, seed=7)
        assert result.fe_params == fe
        assert result.heads[0] == head

    def test_identical_shards_average_to_either_local_result(self):
        data = make_clients(1, 1.0)[0]
        clients = [Shard(client_id=0, train=data.train, test=data.test),
                   Shard(client_id=1, train=data.train, test=data.test)]
        result = stage1_fedce(clients, self.fe_spec, self.head_spec,
                              rounds=2, local_epochs=1, lr=0.05, seed=7)
        fe, _, _ = centralized_classifier(
            data.train, self.fe_spec, self.head_spec, rounds=2,
            local_epochs=1, lr=0.05, seed=7)
        assert result.fe_params == fe
        assert result.heads[0] == result.heads[1]

    def test_reports_and_byte_accounting(self):
        clients = make_clients(3, 1.0)
        result = stage1_fedce(clients, self.fe_spec, self.head_spec,
                              rounds=2, local_epochs=1, lr=0.05, seed=1)
        assert len(result.reports) == 2
        expected = classifier_round_bytes(3, result.fe_params.size(), 4)
        for r, report in enumerate(result.reports):
            assert report.round_index == r
            assert report.participants == (0, 1, 2)
            assert report.bytes_sent == expected
            assert set(report.client_losses) == {0, 1, 2}
            assert all(np.isfinite(v) for v in report.client_losses.values())
            assert report.wall_clock >= 0.0

    def test_validation(self):
        clients = make_clients(1, 1.0)
        kw = dict(rounds=1, local_epochs=1, lr=0.05, seed=0)
        with pytest.raises(ConfigError):
            stage1_fedce(clients, self.fe_spec, self.head_spec,
                         **dict(kw, rounds=0))
        # the head must take the extractor's 6-wide output
        wide_head = MlpSpec((7, 4), (I,))
        match = "input width 7 does not match the output width 6"
        with pytest.raises(ConfigError, match=match):
            stage1_fedce(clients, self.fe_spec, wide_head, **kw)
        with pytest.raises(ConfigError, match=match):
            centralized_classifier(clients[0].train, self.fe_spec,
                                   wide_head, **kw)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_names_client_and_round(self):
        clients = make_clients(2, 1.0)
        spec = MlpSpec((8, 10, 6), (R, I))
        with pytest.raises(TrainingError, match=r"client \d+.*round"):
            stage1_fedce(clients, spec, self.head_spec, rounds=4,
                         local_epochs=2, lr=1e10, seed=1)

    def test_trained_extractor_beats_random_frozen_probe(self):
        data = gen_synthetic(10, 16, 160, 0.4, seed=21)
        clients = partition_noniid(data, 10, 1.0, 100, 50, seed=21)
        fe_spec = MlpSpec((16, 32, 16), (R, T))
        probe_spec = MlpSpec((16, 10), (I,))
        result = stage1_fedce(clients, fe_spec, probe_spec, rounds=30,
                              local_epochs=2, lr=0.1, seed=21)
        random_fe = init_mlp_params(fe_spec, np.random.default_rng(99))
        pooled_train = Dataset(
            features=np.concatenate([c.train.features for c in clients]),
            labels=np.concatenate([c.train.labels for c in clients]),
            num_classes=10)
        pooled_test = Dataset(
            features=np.concatenate([c.test.features for c in clients]),
            labels=np.concatenate([c.test.labels for c in clients]),
            num_classes=10)
        accs = {}
        for name, fe in (("trained", result.fe_params),
                         ("random", random_fe)):
            pooled = [Shard(client_id=0, train=pooled_train,
                            test=pooled_test)]
            probe = stage2_experts(pooled, latents_of(pooled, fe_spec, fe),
                                   probe_spec, epochs=30, lr=0.1, seed=5)
            accs[name] = probe_accuracy(fe_spec, fe, probe_spec,
                                        probe.experts[0], pooled_test)
        assert accs["trained"] - accs["random"] >= 0.20


class TestStage1FedSC:
    fe_spec = MlpSpec((8, 12, 6), (R, T))
    aug = AugmentSpec(noise_std=0.1, mask_prob=0.1)

    def test_single_client_matches_centralized_bitwise(self):
        clients = make_clients(1, 1.0)
        for dp in (0.0, 0.05):
            result = stage1_fedsc(clients, self.fe_spec, rounds=2,
                                  local_epochs=2, lr=0.05,
                                  aug_spec=self.aug, dp_noise_std=dp,
                                  seed=13)
            fe, _ = centralized_spectral(
                clients[0].train, self.fe_spec, rounds=2, local_epochs=2,
                lr=0.05, aug_spec=self.aug, seed=13)
            assert result.fe_params == fe

    def test_multi_client_run_and_bytes(self):
        clients = make_clients(3, 0.4)
        result = stage1_fedsc(clients, self.fe_spec, rounds=3,
                              local_epochs=1, lr=0.05, aug_spec=self.aug,
                              dp_noise_std=0.05, seed=13)
        assert len(result.reports) == 3
        assert result.heads is None
        expected = spectral_round_bytes(3, result.fe_params.size(), 6, 4)
        assert all(r.bytes_sent == expected for r in result.reports)
        first = np.mean(list(result.reports[0].client_losses.values()))
        last = np.mean(list(result.reports[-1].client_losses.values()))
        assert last < first

    def test_per_round_pins_on_45_row_shards(self):
        # 45 rows leave a 13-row last batch; values recorded before the
        # clients trained as one stack
        clients = [Shard(s.client_id, s.train.take(np.arange(45)), s.test)
                   for s in make_clients(3, 0.4)]
        result = stage1_fedsc(clients, self.fe_spec, rounds=3,
                              local_epochs=2, lr=0.05, aug_spec=self.aug,
                              dp_noise_std=0.05, seed=13, batch_size=16)
        pins = [
            ("c13fd7b190cd07eae905ecaa7cbc626a2afe8777497ece153fda6d573f1cf39a",
             {0: -0.11393218124355413, 1: -0.23446563917947835,
              2: -0.17040346142272683}),
            ("cf9653bd4f842b40b564a900d1ee1d066ee16f48c2d504f77a8f9d56fb768dcb",
             {0: -0.21371850391978175, 1: -0.46527273099806743,
              2: -0.24421424641784636}),
            ("6a4cee54192c62036ce9bb09daf9891d63e93bed24475124020e875ca6f2c8e2",
             {0: -0.40992231975396354, 1: -0.7162119773248261,
              2: -0.38512772351258767}),
        ]
        for report, (digest, losses) in zip(result.reports, pins,
                                            strict=True):
            assert (report.params_digest, report.client_losses) == \
                (digest, losses), f"round {report.round_index}"

    def test_dp_noise_validation(self):
        clients = make_clients(1, 1.0)
        with pytest.raises(ConfigError):
            stage1_fedsc(clients, self.fe_spec, rounds=1, local_epochs=1,
                         lr=0.05, aug_spec=self.aug, dp_noise_std=-0.1,
                         seed=0)


class TestStage2Experts:
    def test_separable_shard_reaches_full_train_accuracy(self):
        spec, params = identity_extractor(8)
        data = gen_synthetic(4, 8, 50, 0.02, seed=2)
        clients = [Shard(client_id=0, train=data, test=data)]
        expert_spec = MlpSpec((8, 16, 4), (T, I))
        result = stage2_experts(clients, latents_of(clients, spec, params),
                                expert_spec, epochs=30, lr=0.1, seed=3)
        acc = probe_accuracy(spec, params, expert_spec, result.experts[0],
                             data)
        assert acc == 1.0

    def test_no_bytes_move(self):
        spec, params = identity_extractor(8)
        clients = make_clients(2, 1.0)
        result = stage2_experts(clients, latents_of(clients, spec, params),
                                MlpSpec((8, 4), (I,)), epochs=3, lr=0.05,
                                seed=3)
        assert all(r.bytes_sent == 0 for r in result.reports)
        assert len(result.reports) == 3

    def test_personalized_expert_prefers_own_shard(self):
        clients = make_clients(4, 0.2, per_class=200, train_pc=100,
                               test_pc=50, spread=0.4)
        spec, params = identity_extractor(8)
        expert_spec = MlpSpec((8, 16, 4), (T, I))
        result = stage2_experts(clients, latents_of(clients, spec, params),
                                expert_spec, epochs=20, lr=0.1, seed=4)
        mixed = Dataset(
            features=np.concatenate([c.test.features for c in clients]),
            labels=np.concatenate([c.test.labels for c in clients]),
            num_classes=4)
        own = probe_accuracy(spec, params, expert_spec, result.experts[0],
                             clients[0].test)
        pooled = probe_accuracy(spec, params, expert_spec,
                                result.experts[0], mixed)
        assert own > pooled


class TestRanGate:
    def test_returns_validated_random_gate(self):
        result = stage3_rangate([0.25, 0.25, 0.5])
        assert isinstance(result.gate, RandomGate)
        assert result.reports == ()
        with pytest.raises(ConfigError):
            stage3_rangate([0.7, 0.7])

    def test_uniform_draw_frequencies(self):
        from nmoe.moe import NmoeModel, moe_forward
        fe_spec, fe = identity_extractor(2)
        expert_spec = MlpSpec((2, 3), (I,))
        experts = tuple(init_mlp_params(expert_spec,
                                        np.random.default_rng(i))
                        for i in range(10))
        model = NmoeModel(fe_spec=fe_spec, fe_params=fe,
                          gate=stage3_rangate(np.full(10, 0.1)).gate,
                          expert_spec=expert_spec, experts=experts)
        batch = np.zeros((100_000, 2))
        fwd = moe_forward(model, batch, k=1, rng=np.random.default_rng(0))
        freq = np.bincount(fwd.decision.indices.ravel(),
                           minlength=10) / 100_000
        assert np.abs(freq - 0.1).max() < 0.01


class TestRollGate:
    def test_pseudo_label_counts(self):
        rng = np.random.default_rng(0)
        labels = rollgate_pseudo_labels(10, 0, 0.7, 1000, rng)
        counts = np.bincount(labels, minlength=10)
        assert counts[0] == 700
        assert counts[1:4].tolist() == [34, 34, 34]
        assert counts[4:].tolist() == [33] * 6

        labels = rollgate_pseudo_labels(10, 5, 0.7, 1000, rng)
        counts = np.bincount(labels, minlength=10)
        assert counts[5] == 700
        assert counts[:3].tolist() == [34, 34, 34]

    def test_pseudo_label_validation(self):
        rng = np.random.default_rng(0)
        for p in (0.0, 1.0):
            with pytest.raises(ConfigError):
                rollgate_pseudo_labels(4, 0, p, 100, rng)
        with pytest.raises(ConfigError):
            rollgate_pseudo_labels(1, 0, 0.5, 100, rng)

    def test_separated_clients_route_to_themselves(self):
        data = gen_synthetic(4, 8, 80, 0.05, seed=6)
        by_class = [data.take(np.where(data.labels == c)[0])
                    for c in range(4)]

        def merge(parts):
            return Dataset(
                features=np.concatenate([p.features for p in parts]),
                labels=np.concatenate([p.labels for p in parts]),
                num_classes=4)

        clients = [
            Shard(client_id=0, train=merge(by_class[:2]),
                  test=merge(by_class[:2])),
            Shard(client_id=1, train=merge(by_class[2:]),
                  test=merge(by_class[2:])),
        ]
        spec, params = identity_extractor(8)
        gate_init = init_gate_params(8, 2, 0.0, np.random.default_rng(1))
        result = stage3_rollgate(clients, latents_of(clients, spec, params),
                                 gate_init, p=0.95,
                                 epochs_per_client=2, max_passes=20,
                                 lr=0.2, seed=8)
        assert len(result.reports) <= 20
        for c, shard in enumerate(clients):
            latents = forward(spec, params, shard.test.features)
            decision, _ = gate_topk(latents, result.gate, 1)
            own = float(np.mean(decision.indices[:, 0] == c))
            assert own >= 0.95

    def test_requires_two_clients(self):
        clients = make_clients(1, 1.0)
        spec, params = identity_extractor(8)
        gate_init = init_gate_params(8, 1, 0.0, np.random.default_rng(1))
        with pytest.raises(ConfigError):
            stage3_rollgate(clients, latents_of(clients, spec, params),
                            gate_init, p=0.7,
                            epochs_per_client=1, max_passes=5, lr=0.1,
                            seed=0)

    def test_pass_bytes(self):
        assert rollgate_pass_bytes(10, 33, 4) == 1320

    @staticmethod
    def pass_moves(zero_latents, max_passes, lr):
        """The reports of a 3-client ring and how far each pass after the
        first moved the pass-averaged loss the reports record."""
        clients = make_clients(3, 1.0)
        spec, params = identity_extractor(8)
        latents = latents_of(clients, spec, params)
        if zero_latents:
            latents = np.zeros_like(latents)
        gate_init = init_gate_params(8, 3, 0.0, np.random.default_rng(1),
                                     scale=0.0)
        result = stage3_rollgate(clients, latents, gate_init, p=0.7,
                                 epochs_per_client=1, max_passes=max_passes,
                                 lr=lr, seed=3)
        averages = [np.mean(list(r.client_losses.values()))
                    for r in result.reports]
        assert [r.round_index for r in result.reports] == \
            list(range(len(averages)))
        return result.reports, np.abs(np.diff(averages))

    def test_ring_stops_at_the_first_pass_that_settles(self):
        # a bias-only gate (zero latents) settles geometrically: passes
        # move the average by 9.8e-3, 4.7e-3, 1.6e-3, 5.0e-4, 1.5e-4 and
        # then 4.6e-5, under the tolerance, so 7 of 20 passes run
        reports, moves = self.pass_moves(True, max_passes=20, lr=1.0)
        assert len(reports) == 7
        assert (moves[:-1] >= federated.ROLLGATE_LOSS_TOL).all()
        assert moves[-1] < federated.ROLLGATE_LOSS_TOL

    def test_ring_that_never_settles_runs_every_pass(self):
        reports, moves = self.pass_moves(False, max_passes=6, lr=0.2)
        assert len(reports) == 6
        assert (moves >= federated.ROLLGATE_LOSS_TOL).all()


class TestFedGate:
    def build(self, num_clients, tau=1.0, **kw):
        clients = make_clients(num_clients, tau, **kw)
        fe_spec, fe = identity_extractor(8)
        expert_spec = MlpSpec((8, 12, 4), (T, I))
        experts = stage2_experts(clients, latents_of(clients, fe_spec, fe),
                                 expert_spec,
                                 epochs=10, lr=0.1, seed=3).experts
        gate_init = init_gate_params(8, num_clients, 0.01,
                                     derive_rng(5, seeding.INIT,
                                                seeding.INIT_GATE, 0))
        return clients, fe_spec, fe, expert_spec, experts, gate_init

    def test_single_client_matches_centralized_bitwise(self):
        clients, fe_spec, fe, expert_spec, experts, gate_init = \
            self.build(1)
        result = stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                                expert_spec, experts,
                                gate_init, rounds=3, local_epochs=2,
                                lr=0.05, lambda_load=0.01,
                                client_fraction=0.7, grad_max_norm=1.0,
                                k=1, seed=5)
        gate, losses = centralized_gate(
            clients[0].train, latents_of(clients, fe_spec, fe), expert_spec,
            experts, gate_init,
            rounds=3, local_epochs=2, lr=0.05, lambda_load=0.01,
            grad_max_norm=1.0, k=1, seed=5)
        assert result.gate.params == gate.params
        # one expert leaves the gate nothing to learn: the loss holds still
        round_means = [np.mean(list(r.client_losses.values()))
                       for r in result.reports]
        assert all(b <= a + 1e-12 for a, b in zip(round_means,
                                                  round_means[1:]))

    def test_participant_schedule(self):
        clients = make_clients(10, 1.0, num_classes=10, per_class=40,
                               train_pc=12, test_pc=4)
        fe_spec, fe = identity_extractor(8)
        expert_spec = MlpSpec((8, 10), (I,))
        experts = tuple(init_mlp_params(expert_spec,
                                        np.random.default_rng(i))
                        for i in range(10))
        gate_init = init_gate_params(8, 10, 0.0, np.random.default_rng(2))
        result = stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                                expert_spec, experts,
                                gate_init, rounds=200, local_epochs=1,
                                lr=0.01, lambda_load=0.01,
                                client_fraction=0.7, grad_max_norm=1.0,
                                k=1, seed=42)
        counts = np.zeros(10)
        for report in result.reports:
            ids = report.participants
            assert len(ids) == 7
            assert len(set(ids)) == 7
            assert list(ids) == sorted(ids)
            counts[list(ids)] += 1
        # each client joins Binomial(200, 0.7)-many rounds; 4 sigma is 26
        assert (np.abs(counts - 140) < 30).all()

    def test_byte_accounting(self):
        clients, fe_spec, fe, expert_spec, experts, gate_init = \
            self.build(4)
        result = stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                                expert_spec, experts,
                                gate_init, rounds=3, local_epochs=1,
                                lr=0.05, lambda_load=0.01,
                                client_fraction=0.5, grad_max_norm=1.0,
                                k=1, seed=5)
        gate_size = result.gate.params.size()
        setup = fedgate_setup_bytes(4, experts[0].size(), 4)
        per_round = fedgate_round_bytes(2, gate_size, 4)
        assert result.reports[0].bytes_sent == setup + per_round
        assert all(r.bytes_sent == per_round for r in result.reports[1:])
        assert all(len(r.participants) == 2 for r in result.reports)

    def test_gate_learns_on_separated_clients(self):
        clients, fe_spec, fe, expert_spec, experts, gate_init = \
            self.build(4, tau=0.2, per_class=200, train_pc=100, test_pc=50,
                       spread=0.3)
        result = stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                                expert_spec, experts,
                                gate_init, rounds=12, local_epochs=2,
                                lr=0.2, lambda_load=0.01,
                                client_fraction=1.0, grad_max_norm=1.0,
                                k=1, seed=5)
        first = np.mean(list(result.reports[0].client_losses.values()))
        last = np.mean(list(result.reports[-1].client_losses.values()))
        assert last < first

    def test_per_round_pins_at_k2(self):
        # values recorded before FedGate gathered only the routed experts
        clients = make_clients(5, 0.3, num_classes=5)
        fe_spec, fe = identity_extractor(8)
        expert_spec = MlpSpec((8, 12, 5), (T, I))
        experts = stage2_experts(clients, latents_of(clients, fe_spec, fe),
                                 expert_spec, epochs=5, lr=0.1, seed=3).experts
        gate_init = init_gate_params(8, 5, 0.01,
                                     derive_rng(5, seeding.INIT,
                                                seeding.INIT_GATE, 0))
        result = stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                                expert_spec, experts,
                                gate_init, rounds=3, local_epochs=2,
                                lr=0.1, lambda_load=0.05,
                                client_fraction=0.6, grad_max_norm=1.0,
                                k=2, seed=5, batch_size=16)
        pins = [
            ("20c7a07cce5002a95959a4fcb784fccba2ab142b07265c08da10ee4e673fd455",
             {0: 1.5544487442799761, 1: 1.46109526846806,
              2: 1.4381694812340602}),
            ("267b558c186eeb08d3645e33c93b71b19c32aa67bb9e5d602b5d5ac267b17ccd",
             {1: 1.4405903219760847, 2: 1.4312065225283876,
              3: 1.678339245126431}),
            ("7ef23dd0cd2f687d2ddd211245c8d63c7b3353d2768191043a62df887e3725e2",
             {0: 1.5496955247984565, 1: 1.4255996119404397,
              4: 1.6172595155335174}),
        ]
        for report, (digest, losses) in zip(result.reports, pins,
                                            strict=True):
            assert (report.params_digest, report.client_losses) == \
                (digest, losses), f"round {report.round_index}"

    def test_validation(self):
        clients, fe_spec, fe, expert_spec, experts, gate_init = \
            self.build(2)
        with pytest.raises(ConfigError):
            stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                           expert_spec, experts,
                           gate_init, rounds=1, local_epochs=1, lr=0.05,
                           lambda_load=0.01, client_fraction=1.5,
                           grad_max_norm=1.0, k=1, seed=5)
        with pytest.raises(ConfigError):
            stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                           expert_spec, experts[:1],
                           gate_init, rounds=1, local_epochs=1, lr=0.05,
                           lambda_load=0.01, client_fraction=1.0,
                           grad_max_norm=1.0, k=1, seed=5)


def lockstep_clients(num_clients, sizes):
    """num_clients shards with train shards cut to the given sizes,
    cycled over the clients."""
    clients = make_clients(num_clients, 0.4, num_classes=max(num_clients, 4))
    return [Shard(s.client_id, s.train.take(np.arange(sizes[c % len(sizes)])),
                  s.test)
            for c, s in enumerate(clients)]


# (client count, train-shard size): full 60-row shards, which end on a
# full batch at batch size 16, and 45-row ones, which leave a 13-row
# last batch
LOCKSTEP_CASES = [(1, (60,)), (2, (60,)), (5, (60,)), (3, (45,)),
                  (5, (45,))]
LOCKSTEP_FE = {"relu": MlpSpec((8, 12, 6), (R, I)),
               "tanh": MlpSpec((8, 12, 6), (T, T))}


def report_pairs(reports):
    return [(r.params_digest, r.client_losses) for r in reports]


@pytest.mark.parametrize("act", sorted(LOCKSTEP_FE))
@pytest.mark.parametrize("num_clients,sizes", LOCKSTEP_CASES)
class TestLockstepMatchesPerClient:
    """Stacked stages against the per-client loops they replaced: every
    round's digest and every client's loss, bit for bit."""

    head_spec = MlpSpec((6, 5), (I,))
    aug = AugmentSpec(noise_std=0.1, mask_prob=0.1)

    def test_fedsc(self, num_clients, sizes, act):
        clients = lockstep_clients(num_clients, sizes)
        kw = dict(rounds=2, local_epochs=2, lr=0.05, aug_spec=self.aug,
                  dp_noise_std=0.05, seed=13, batch_size=16)
        result = stage1_fedsc(clients, LOCKSTEP_FE[act], **kw)
        assert report_pairs(result.reports) == \
            oracles.per_client_fedsc(clients, LOCKSTEP_FE[act], **kw)

    def test_fedce(self, num_clients, sizes, act):
        clients = lockstep_clients(num_clients, sizes)
        kw = dict(rounds=2, local_epochs=2, lr=0.05, seed=7, batch_size=16)
        result = stage1_fedce(clients, LOCKSTEP_FE[act], self.head_spec,
                              **kw)
        rounds, heads = oracles.per_client_fedce(
            clients, LOCKSTEP_FE[act], self.head_spec, **kw)
        assert report_pairs(result.reports) == rounds
        assert list(result.heads) == heads

    def test_stage2_experts(self, num_clients, sizes, act):
        clients = lockstep_clients(num_clients, sizes)
        fe_spec = LOCKSTEP_FE[act]
        fe = init_mlp_params(fe_spec, np.random.default_rng(5))
        expert_spec = MlpSpec((6, 10, 5), (T, I))
        kw = dict(epochs=3, lr=0.1, seed=4, batch_size=16)
        result = stage2_experts(clients, latents_of(clients, fe_spec, fe),
                                expert_spec, **kw)
        rounds, experts = oracles.per_client_experts(
            clients, fe_spec, fe, expert_spec, **kw)
        assert report_pairs(result.reports) == rounds
        assert list(result.experts) == experts


def unequal_stage_calls(latents=None):
    """Each stacked entry point, called on clients of its own setup;
    stages 2 and 3 train on latents, three 60-row shards of 8 wide ones
    by default."""
    fe_spec, fe = identity_extractor(8)
    spec = MlpSpec((8, 4), (I,))
    experts = tuple(init_mlp_params(spec, np.random.default_rng(i))
                    for i in range(3))
    gate_init = init_gate_params(8, 3, 0.01, np.random.default_rng(2))
    common = dict(lr=0.05, seed=1, batch_size=16)
    if latents is None:
        latents = np.zeros((3, 60, 8))
    return {
        "stage1_fedce": lambda c: stage1_fedce(
            c, fe_spec, spec, rounds=1, local_epochs=1, **common),
        "stage1_fedsc": lambda c: stage1_fedsc(
            c, fe_spec, rounds=1, local_epochs=1,
            aug_spec=AugmentSpec(0.1, 0.1), dp_noise_std=0.0, **common),
        "frozen_latents": lambda c: latents_of(c, fe_spec, fe),
        "stage2_experts": lambda c: stage2_experts(
            c, latents, spec, epochs=1, **common),
        "stage3_rollgate": lambda c: stage3_rollgate(
            c, latents, gate_init, p=0.5, epochs_per_client=1,
            max_passes=1, **common),
        "stage3_fedgate": lambda c: stage3_fedgate(
            c, latents, spec, experts, gate_init, rounds=1,
            local_epochs=1, lambda_load=0.01, client_fraction=1.0,
            grad_max_norm=1.0, k=1, **common),
        "fedavg_classifier": lambda c: fedavg_classifier(
            c, spec, init_mlp_params(spec, np.random.default_rng(0)), 1, 1,
            0.05, lambda r: np.random.default_rng(r), batch_size=16),
    }


@pytest.mark.parametrize("stage", sorted(unequal_stage_calls()))
def test_unequal_train_shards_are_rejected(stage):
    """Every stage trains its clients as one stack, so train shards of
    60 and 45 rows are a data error that names both sizes."""
    clients = lockstep_clients(3, (60, 45))
    with pytest.raises(DataError,
                       match=r"^train shards must share one size, "
                             r"got \[45, 60\]$"):
        unequal_stage_calls()[stage](clients)


@pytest.mark.parametrize("shape", [(2, 60, 8), (4, 60, 8), (3, 59, 8),
                                   (3, 60, 7), (60, 8)])
@pytest.mark.parametrize("stage", ["stage2_experts", "stage3_rollgate",
                                   "stage3_fedgate"])
def test_stages_reject_latents_of_another_shape(stage, shape):
    """Stages 2 and 3 take the latents of their clients' train shards,
    (clients, rows, width): a stack of another client count, row count
    or width is a config error, before any training."""
    clients = lockstep_clients(3, (60,))
    with pytest.raises(ConfigError, match=r"^latents must have shape "
                                          r"\(clients, rows, width\) = "
                                          r"\(3, 60, 8\), got "):
        unequal_stage_calls(np.zeros(shape))[stage](clients)


def test_frozen_latents_are_each_shards_forward_and_read_only():
    clients = lockstep_clients(3, (45,))
    fe_spec = LOCKSTEP_FE["tanh"]
    fe = init_mlp_params(fe_spec, np.random.default_rng(5))
    latents = latents_of(clients, fe_spec, fe)
    assert latents.shape == (3, 45, 6)
    for out, shard in zip(latents, clients):
        assert oracles.same_bits(out, forward(fe_spec, fe,
                                              shard.train.features))
    with pytest.raises(ValueError, match="read-only"):
        latents[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        latents[1] += 1.0


# 60, 45 and 47 rows leave 12, 13 and 15 rows past the last TILE-aligned
# one
FEDGATE_SIZES = [(60,), (45,), (47,)]


@pytest.mark.parametrize("noise_std", [0.0, 0.05])
@pytest.mark.parametrize("client_fraction", [0.6, 1.0])
@pytest.mark.parametrize("num_clients,k",
                         [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2), (5, 3)])
@pytest.mark.parametrize("sizes", FEDGATE_SIZES)
def test_fedgate_matches_per_client(sizes, num_clients, k, client_fraction,
                                    noise_std):
    """Stacked FedGate against the one-participant-at-a-time loop it
    replaced: every round's digest, losses and participants, bit for
    bit."""
    clients = lockstep_clients(num_clients, sizes)
    fe_spec, fe = identity_extractor(8)
    expert_spec = MlpSpec((8, 10, clients[0].train.num_classes), (T, I))
    experts = tuple(init_mlp_params(expert_spec, np.random.default_rng(i))
                    for i in range(num_clients))
    gate_init = init_gate_params(8, num_clients, noise_std,
                                 np.random.default_rng(3))
    kw = dict(rounds=3, local_epochs=2, lr=0.1, lambda_load=0.05,
              client_fraction=client_fraction, grad_max_norm=0.5, k=k,
              seed=9, batch_size=16)
    result = stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                            expert_spec, experts, gate_init, **kw)
    expect = oracles.per_client_fedgate(clients, fe_spec, fe, expert_spec,
                                        experts, gate_init, **kw)
    assert [(r.params_digest, r.client_losses, r.participants)
            for r in result.reports] == expect


def test_fedgate_keeps_no_logit_cache():
    """Stage 3 computes each batch's routed expert logits and keeps no
    clients x experts x rows x classes table of them: the traced peak
    stays under half of what that one table would take."""
    m, n, classes, dim = 8, 400, 40, 8
    rng = np.random.default_rng(0)
    clients = [Shard(c, Dataset(rng.normal(size=(n, dim)),
                                rng.integers(0, classes, size=n), classes),
                     Dataset(rng.normal(size=(4, dim)),
                             rng.integers(0, classes, size=4), classes))
               for c in range(m)]
    fe_spec, fe = identity_extractor(dim)
    expert_spec = MlpSpec((dim, classes), (I,))
    experts = tuple(init_mlp_params(expert_spec, np.random.default_rng(i))
                    for i in range(m))
    gate_init = init_gate_params(dim, m, 0.01, np.random.default_rng(1))
    cache_bytes = m * m * n * classes * 8
    tracemalloc.start()
    try:
        stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                       expert_spec, experts, gate_init,
                       rounds=2, local_epochs=1, lr=0.05, lambda_load=0.01,
                       client_fraction=1.0, grad_max_norm=1.0, k=2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * cache_bytes


def random_clients(num_clients, sizes, classes, dim=32):
    """num_clients shards of normal features and uniform labels over
    classes, train shards of the given sizes cycled over the clients."""
    rng = np.random.default_rng(num_clients * 100 + classes)

    def dataset(n):
        return Dataset(rng.normal(size=(n, dim)),
                       rng.integers(0, classes, size=n), classes)

    return [Shard(c, dataset(sizes[c % len(sizes)]), dataset(4))
            for c in range(num_clients)]


def gate_setup(num_clients, classes, depth, dim=32):
    """Identity extractor, one- or two-layer experts and a noisy gate.
    Latents 32 wide, as in the reference configs: narrower ones hide the
    dgemm leftover-row difference that TILE padding guards against."""
    fe_spec, fe = identity_extractor(dim)
    expert_spec = MlpSpec((dim, classes), (I,)) if depth == 1 else \
        MlpSpec((dim, 32, classes), (T, I))
    experts = tuple(init_mlp_params(expert_spec, np.random.default_rng(i))
                    for i in range(num_clients))
    gate_init = init_gate_params(dim, num_clients, 0.05,
                                 np.random.default_rng(3))
    return fe_spec, fe, expert_spec, experts, gate_init


# (experts, k): every k <= m for m in 1, 2, 5 and 40
GATE_CASES = [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2), (5, 3), (40, 1),
              (40, 2), (40, 3)]


def test_fedgate_memory_grows_quadratically():
    """Doubling the clients, and with them the experts and classes,
    about quadruples stage 3's traced peak: the latents and labels grow
    with the clients, a round's routed logits with participants times
    classes, and nothing with clients x experts x classes. 47-row shards
    leave 15 rows past the last TILE-aligned one, so most batches route
    tail rows."""
    def peak(m):
        clients = random_clients(m, (47,), m)
        setup = gate_setup(m, m, depth=1)
        tracemalloc.start()
        try:
            fedgate_over(clients, *setup, rounds=1, local_epochs=1,
                         lr=0.1, lambda_load=0.05, client_fraction=1.0,
                         grad_max_norm=0.5, k=1, seed=2, batch_size=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) < 4 * peak(16)


@pytest.mark.parametrize("classes", [10, 40])
@pytest.mark.parametrize("num_clients,k", GATE_CASES)
@pytest.mark.parametrize("sizes", FEDGATE_SIZES)
def test_fedgate_matches_logit_cache(sizes, num_clients, k, classes):
    """Per-batch routed logits against the shard-wide logit cache they
    replaced: every round's digest, losses and participants, bit for
    bit."""
    clients = random_clients(num_clients, sizes, classes)
    # one-layer experts at 10 classes, two-layer ones at 40
    setup = gate_setup(num_clients, classes, depth={10: 1, 40: 2}[classes])
    kw = dict(rounds=2, local_epochs=2, lr=0.1, lambda_load=0.05,
              client_fraction=0.6, grad_max_norm=0.5, k=k, seed=9,
              batch_size=16)
    result = fedgate_over(clients, *setup, **kw)
    assert [(r.params_digest, r.client_losses, r.participants)
            for r in result.reports] == \
        oracles.per_client_fedgate(clients, *setup, **kw)


@pytest.mark.parametrize("num_clients,k,client_fraction",
                         [(1, 1, 1.0), (2, 1, 0.5), (2, 2, 1.0), (5, 1, 0.2),
                          (5, 2, 1.0), (5, 3, 0.2), (5, 3, 1.0),
                          (40, 1, 0.025), (40, 3, 0.025)])
def test_fedgate_one_row_blocks_match_logit_cache(num_clients, k,
                                                  client_fraction):
    """One-row batches: with one participant a round, every routed
    expert runs a block of one row padded to TILE rows; with all of them,
    an expert routed by one slice only does."""
    setup = gate_setup(num_clients, 10, depth=2)
    kw = dict(rounds=2, local_epochs=1, lr=0.1, lambda_load=0.05,
              client_fraction=client_fraction, grad_max_norm=0.5, k=k,
              seed=4, batch_size=1)
    # 45 rows leave 13 rows past the last TILE-aligned one, 65 rows one
    for n in (45, 65):
        clients = random_clients(num_clients, (n,), 10)
        result = fedgate_over(clients, *setup, **kw)
        assert [(r.params_digest, r.client_losses, r.participants)
                for r in result.reports] == \
            oracles.per_client_fedgate(clients, *setup, **kw), n


@pytest.mark.parametrize("classes", [10, 40])
@pytest.mark.parametrize("num_experts,k", GATE_CASES)
@pytest.mark.parametrize("n,batch_size",
                         [(60, 16), (45, 16), (65, 16), (45, 1)])
def test_centralized_gate_matches_logit_cache(n, batch_size, num_experts, k,
                                              classes):
    """centralized_gate against the cache path: the gate after every
    round and every epoch's loss. A batch of one row routes exactly one
    row to each of its k experts."""
    train = random_clients(1, (n,), classes)[0].train
    setup = gate_setup(num_experts, classes, depth={10: 1, 40: 2}[classes])
    kw = dict(local_epochs=2, lr=0.1, lambda_load=0.05, grad_max_norm=0.5,
              k=k, seed=6, batch_size=batch_size)
    digests, losses = oracles.cache_centralized_gate(train, *setup,
                                                     rounds=2, **kw)
    latents = frozen_latents(*setup[:2], [train])
    got = [centralized_gate(train, latents, *setup[2:], rounds=r, **kw)
           for r in (1, 2)]
    assert [params_digest(gate.params) for gate, _ in got] == digests
    assert got[-1][1] == losses


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4),
       st.sampled_from([1, 2, 15, 16, 17, 45, 60, 65, 80]),
       st.sampled_from([3, 10, 40]), st.integers(1, 2), st.integers(1, 6),
       st.data())
def test_routed_logits_match_full_forward(seed, shards, n, classes, depth,
                                          num_experts, data):
    """_routed_logits of any picks, for a stack of gates over several
    shards or one gate over one shard (centralized_gate's call), equal
    the gather from every expert's forward over the whole shard."""
    rng = np.random.default_rng(seed)
    _, _, spec, experts, _ = gate_setup(num_experts, classes, depth)
    latents = rng.normal(size=(shards, n, 32))
    cache = np.stack([[forward(spec, e, shard) for e in experts]
                      for shard in latents])
    k = data.draw(st.integers(1, num_experts))
    b = data.draw(st.integers(1, n))
    g = data.draw(st.integers(1, 5))
    rows = rng.permutation(n)[:b]
    idx = np.argsort(rng.random(size=(g, b, num_experts)), axis=-1)[..., :k]
    owners = rng.integers(0, shards, size=g)
    got = _routed_logits(spec, experts, latents, owners, rows, idx)
    assert np.array_equal(
        got, cache[owners[:, None, None], idx.swapaxes(-1, -2), rows])
    got = _routed_logits(spec, experts, latents[:1], np.zeros(1, np.int64),
                         rows, idx[:1])
    assert np.array_equal(got[0], cache[0][idx[0].T, rows])


# --- the batch driver ---------------------------------------------------

def hand_epochs(params, epochs, n, batch_size, rng, step):
    """_epochs written out: each epoch draws the batch order (one
    permutation per stream given a list), then steps batch by batch."""
    losses = []
    for _ in range(epochs):
        if isinstance(rng, list):
            order = np.stack([r.permutation(n) for r in rng])
        else:
            order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            rows = order[..., start:start + batch_size]
            params, loss = step(params, rows)
            total = total + loss * rows.shape[-1]
        losses.append(total / n)
    return params, losses


def toy_step(x, rng, seen):
    """A step on x's rows that draws from rng after the batch order, as
    the spectral and gate steps do, unless rng is None; a 2-d x gives a
    float loss, a stack (g,) losses. seen collects every batch's rows."""
    def step(params, rows):
        seen.append(rows)
        params = 0.9 * params + federated._take_rows(x, rows, -2).mean(-2)
        loss = np.sin(params).sum(axis=-1)
        if rng is not None:
            loss = loss + rng.normal()
        return params, float(loss) if loss.ndim == 0 else loss
    return step


@pytest.mark.parametrize("n,batch_size", [(65, 64), (10, 64), (45, 16)])
@pytest.mark.parametrize("kind", ["float", "stack", "streams"])
def test_epochs_matches_a_hand_written_loop(n, batch_size, kind):
    """65 rows at batch 64 end on a one-row batch; a batch of 64 over 10
    rows is the whole shard. One stream steps a 2-d network (float
    losses, (epochs,)) or a stack ((g,) losses, (g, epochs)); a list of
    g streams gives (g, b) rows."""
    g, d, epochs = 3, 4, 2
    x = np.random.default_rng(5).normal(
        size=(n, d) if kind == "float" else (g, n, d))
    results = []
    for driver in (federated._epochs, hand_epochs):
        if kind == "streams":
            rng = [np.random.default_rng(7 + i) for i in range(g)]
            draws = None
        else:
            rng = draws = np.random.default_rng(7)
        seen = []
        params, losses = driver(np.zeros(x.shape[:-2] + (d,)), epochs, n,
                                batch_size, rng, toy_step(x, draws, seen))
        after = [r.random() for r in (rng if kind == "streams" else [rng])]
        results.append((params, losses, seen, after))
    (params, losses, seen, after), (params_h, losses_h, seen_h, after_h) = \
        results
    assert losses.shape == ((epochs,) if kind == "float" else (g, epochs))
    assert losses.tolist() == np.stack(losses_h, axis=-1).tolist()
    assert params.tobytes() == params_h.tobytes()
    assert len(seen) == len(seen_h) == epochs * -(-n // batch_size)
    assert all(np.array_equal(a, b) for a, b in zip(seen, seen_h))
    assert seen[-1].shape == ((g, n % batch_size or batch_size)
                              if kind == "streams" else
                              (n % batch_size or batch_size,))
    assert after == after_h


# Each name one place must own, with the only functions that may use it
# (a function nested in one counts as that one); "name(...)" counts only
# calls. Every trainer is a step under federated._epochs, the one place
# that draws batch orders; every split of a stack over two CPUs is made
# by the FedAvg round driver, and the only other forked peer is the
# centralized-mixture child; the frozen latents stages 2 and 3 train on
# are computed once per run.
OWNERS = {
    "_batches": {"federated._epochs"},
    "_Peer(...)": {"federated._fedavg_rounds",
                   "pipeline._CentralizedChild.__init__"},
    "frozen_latents(...)": {"pipeline.run_pipeline"},
}


def test_private_names_are_used_only_by_their_owners():
    """A trainer with its own batch loop, a module importing _batches,
    a stage forking its own peer or computing the frozen latents again
    fails here."""
    uses = {name: set() for name in OWNERS}

    class Uses(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope, self.nested = module, [], False

        def visit_ClassDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_FunctionDef(self, node):
            if self.nested:
                return self.generic_visit(node)
            self.scope.append(node.name)
            self.nested = True
            self.generic_visit(node)
            self.nested = False
            self.scope.pop()

        def note(self, name, node):
            if name in uses:
                uses[name].add(".".join([self.module] + self.scope))
            self.generic_visit(node)

        def visit_Name(self, node):
            self.note(node.id, node)

        def visit_Attribute(self, node):
            self.note(node.attr, node)

        def visit_alias(self, node):
            self.note(node.name, node)

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            self.note(f"{name}(...)", node)

    for path in sorted(Path(federated.__file__).parent.glob("*.py")):
        Uses(path.stem).visit(ast.parse(path.read_text()))
    assert uses == OWNERS


def scale_features(clients, scale, which=(1,)):
    """The same shards with the train features of the clients at the
    given positions multiplied by scale."""
    out = list(clients)
    for c in which:
        train = out[c].train
        out[c] = Shard(out[c].client_id,
                       Dataset(features=train.features * scale,
                               labels=train.labels,
                               num_classes=train.num_classes),
                       out[c].test)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestStackedDivergenceNamesTheClient:
    """Only client 1 diverges; the stacked stages must name it and the
    round, as the per-client loops did."""

    fe_spec = MlpSpec((8, 10, 6), (R, I))
    head_spec = MlpSpec((6, 4), (I,))
    message = r"^client 1 loss became non-finite in {} round 0$"

    def test_fedce(self):
        clients = scale_features(make_clients(3, 1.0), 1e200)
        with pytest.raises(TrainingError,
                           match=self.message.format("stage1_fedce")):
            stage1_fedce(clients, self.fe_spec, self.head_spec, rounds=2,
                         local_epochs=2, lr=0.05, seed=1, batch_size=16)

    def test_fedsc(self):
        # 1e100 keeps client 1's correlation share finite, so the other
        # clients' aggregates stay finite; one batch per round means they
        # report the loss at the shared starting point, while client 1's
        # quadratic term overflows at once
        clients = scale_features(make_clients(3, 1.0), 1e100)
        with pytest.raises(TrainingError,
                           match=self.message.format("stage1_fedsc")):
            stage1_fedsc(clients, self.fe_spec, rounds=2, local_epochs=1,
                         lr=0.05, aug_spec=AugmentSpec(0.1, 0.1),
                         dp_noise_std=0.0, seed=1, batch_size=64)

    def test_stage2_experts(self):
        clients = scale_features(make_clients(3, 1.0), 1e200)
        fe = init_mlp_params(self.fe_spec, np.random.default_rng(0))
        with pytest.raises(TrainingError,
                           match=self.message.format("stage2_experts")):
            stage2_experts(clients, latents_of(clients, self.fe_spec, fe),
                           self.head_spec,
                           epochs=2, lr=0.05, seed=1, batch_size=16)

    def test_rollgate(self):
        # the ring reaches client 1 with client 0's finite gate, and
        # client 1's scaled latents blow the gate up within its hop
        clients = scale_features(make_clients(3, 1.0), 1e200)
        fe = init_mlp_params(self.fe_spec, np.random.default_rng(0))
        gate_init = init_gate_params(6, 3, 0.0, np.random.default_rng(2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError,
                              match=self.message.format("stage3_rollgate")):
            stage3_rollgate(clients, latents_of(clients, self.fe_spec, fe),
                            gate_init, p=0.7,
                            epochs_per_client=2, max_passes=3, lr=0.5,
                            seed=1, batch_size=16)

    def test_fedgate(self):
        # the equal-size participants train as one stack; client 1's
        # scaled latents overflow the gate logits under the default scale
        clients = scale_features(make_clients(3, 1.0), 1e307)
        fe_spec, fe = identity_extractor(8)
        expert_spec = MlpSpec((8, 4), (I,))
        experts = tuple(init_mlp_params(expert_spec, np.random.default_rng(i))
                        for i in range(3))
        gate_init = init_gate_params(8, 3, 0.01, np.random.default_rng(2))
        with pytest.raises(TrainingError,
                           match=self.message.format("stage3_fedgate")):
            stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                           expert_spec, experts,
                           gate_init, rounds=2, local_epochs=2, lr=0.05,
                           lambda_load=0.01, client_fraction=1.0,
                           grad_max_norm=1.0, k=1, seed=1, batch_size=16)

    def test_fedgate_two_diverging_clients(self):
        # clients 1 and 2 both diverge in round 0 in one stack, and the
        # stacked stage must fail exactly as the per-participant loop does
        def run(train, scaled):
            clients = scale_features(make_clients(3, 1.0), 1e308, scaled)
            fe_spec, fe = identity_extractor(8)
            expert_spec = MlpSpec((8, 4), (I,))
            experts = tuple(init_mlp_params(expert_spec,
                                            np.random.default_rng(i))
                            for i in range(3))
            gate_init = init_gate_params(8, 3, 0.01,
                                         np.random.default_rng(2))
            train(clients, fe_spec, fe, expert_spec, experts, gate_init,
                  rounds=2, local_epochs=2, lr=0.05, lambda_load=0.01,
                  client_fraction=1.0, grad_max_norm=1.0, k=1, seed=1,
                  batch_size=16)

        # client 2 diverges on its own as well
        with pytest.raises(TrainingError,
                           match=r"^client 2 .* round 0$"):
            run(fedgate_over, (2,))
        with pytest.raises(Exception) as expected:
            run(oracles.per_client_fedgate, (1, 2))
        with pytest.raises(Exception) as got:
            run(fedgate_over, (1, 2))
        assert (got.type, str(got.value)) == \
            (expected.type, str(expected.value))
        assert expected.type is TrainingError
        assert str(expected.value) == \
            "client 1 loss became non-finite in stage3_fedgate round 0"

    def test_lowest_index_wins(self):
        # clients 1 and 2 both diverge in the same round, and the error
        # must name client 1
        clients = scale_features(make_clients(3, 1.0), 1e200, (1, 2))
        with pytest.raises(TrainingError,
                           match=self.message.format("stage1_fedce")):
            stage1_fedce(clients, self.fe_spec, self.head_spec, rounds=2,
                         local_epochs=2, lr=0.05, seed=1, batch_size=16)


# --- the forked peer ----------------------------------------------------

FORK = os.fork


def cpus(monkeypatch, two):
    """Make the stages see two usable CPUs, or one, and return the list
    that records each os.fork; on one CPU a fork fails the test."""
    forks = []

    def fork():
        if not two:
            raise AssertionError("a stage forked with one usable CPU")
        forks.append(os.getpid())
        return FORK()

    monkeypatch.setattr(federated, "_two_cpus", lambda: two)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def round_outcomes(result):
    return [(r.params_digest, r.client_losses, r.participants, r.bytes_sent)
            for r in result.reports]


def fedsc_call(clients, **overrides):
    kw = dict(rounds=2, local_epochs=2, lr=0.05,
              aug_spec=AugmentSpec(0.1, 0.1), dp_noise_std=0.05, seed=13,
              batch_size=16)
    kw.update(overrides)
    return stage1_fedsc(clients, LOCKSTEP_FE["tanh"], **kw)


def fedgate_call(clients, **overrides):
    m = len(clients)
    fe_spec, fe = identity_extractor(8)
    expert_spec = MlpSpec((8, 10, clients[0].train.num_classes), (T, I))
    experts = tuple(init_mlp_params(expert_spec, np.random.default_rng(i))
                    for i in range(m))
    gate_init = init_gate_params(8, m, 0.05, np.random.default_rng(3))
    kw = dict(rounds=3, local_epochs=2, lr=0.1, lambda_load=0.05,
              client_fraction=1.0, grad_max_norm=0.5, k=1, seed=9,
              batch_size=16)
    kw.update(overrides)
    return stage3_fedgate(clients, latents_of(clients, fe_spec, fe),
                          expert_spec, experts, gate_init, **kw)


def fedce_call(clients):
    head_spec = MlpSpec((6, clients[0].train.num_classes), (I,))
    return stage1_fedce(clients, LOCKSTEP_FE["tanh"], head_spec, rounds=2,
                        local_epochs=2, lr=0.05, seed=7, batch_size=16)


def fedavg_classifier_call(clients):
    """The baseline's classifier and reports, as a Stage1Result."""
    spec = MlpSpec((8, 12, clients[0].train.num_classes), (T, I))
    params, reports = fedavg_classifier(
        clients, spec, init_mlp_params(spec, np.random.default_rng(0)), 2, 2,
        0.05, lambda r: derive_rng(3, seeding.BASELINE, r, 0),
        batch_size=16)
    return Stage1Result(fe_params=params, heads=None, reports=reports)


CLIENT_STACK_CALLS = {"fedsc": fedsc_call, "fedce": fedce_call,
                      "fedavg_classifier": fedavg_classifier_call}


@pytest.mark.parametrize("num_clients", [1, 2, 5, 7])
@pytest.mark.parametrize("stage", sorted(CLIENT_STACK_CALLS))
def test_client_stack_peer_matches_in_process(monkeypatch, stage,
                                              num_clients):
    """The upper half of the clients trained in the forked peer (FedCE
    sends it their heads): the same extractor or classifier, heads,
    digests and losses as the whole stack here; one client, or one CPU,
    forks nothing."""
    clients = lockstep_clients(num_clients, (45,))
    call = CLIENT_STACK_CALLS[stage]
    cpus(monkeypatch, False)
    alone = call(clients)
    forks = cpus(monkeypatch, True)
    halves = call(clients)
    assert len(forks) == (num_clients > 1)
    assert params_digest(halves.fe_params) == params_digest(alone.fe_params)
    assert (halves.heads is None) == (alone.heads is None) == \
        (stage != "fedce")
    assert [params_digest(h) for h in halves.heads or ()] == \
        [params_digest(h) for h in alone.heads or ()]
    assert round_outcomes(halves) == round_outcomes(alone)


@pytest.mark.parametrize("num_clients,k", [(1, 1), (2, 1), (2, 2), (5, 1),
                                           (5, 2), (7, 1), (7, 2)])
@pytest.mark.parametrize("client_fraction", [0.6, 1.0])
def test_fedgate_peer_matches_in_process(monkeypatch, num_clients, k,
                                         client_fraction):
    """The upper half of each round's participants trained in the forked
    peer (3 + 2 of 5 at m = 7 and fraction 0.6): the same gate, digests
    and losses as the whole stack here; one participant forks nothing."""
    clients = lockstep_clients(num_clients, (47,))
    kw = dict(k=k, client_fraction=client_fraction)
    cpus(monkeypatch, False)
    alone = fedgate_call(clients, **kw)
    forks = cpus(monkeypatch, True)
    halves = fedgate_call(clients, **kw)
    assert len(forks) == (len(alone.reports[0].participants) > 1)
    assert params_digest(halves.gate.params) == \
        params_digest(alone.gate.params)
    assert round_outcomes(halves) == round_outcomes(alone)


@pytest.mark.parametrize("stage1,stage3,peers", [
    ({"method": "fedsc", "rounds": 2},
     {"method": "fedgate", "rounds": 2, "client_fraction": 0.6}, 2),
    # RollGate, a sequential ring, never splits
    ({"method": "fedce", "rounds": 2},
     {"method": "rollgate", "max_passes": 2}, 1),
])
def test_pipeline_artifacts_match_in_process(monkeypatch, tmp_path, stage1,
                                             stage3, peers):
    """A run writes the same bytes with the peers as without them, one
    peer per stage that splits."""
    files = ("results.json", "model.json", "training_log.jsonl")
    doc = {"config_version": 1, "seed": 4, "k": 2,
           "data": {"num_clients": 5, "samples_per_class": 100,
                    "train_per_client": 70, "test_per_client": 20},
           "stage1": stage1, "stage2": {"epochs": 2}, "stage3": stage3}
    out = tmp_path / "run"
    written = {}
    for two in (False, True):
        forks = cpus(monkeypatch, two)
        run_pipeline(config_from_dict(dict(doc, output_dir=str(out))))
        assert len(forks) == peers * two
        written[two] = [(out / name).read_bytes() for name in files]
    assert written[True] == written[False]
    config = json.loads(written[True][0])["config"]
    assert (config["stage1"]["method"], config["stage3"]["method"]) == \
        (stage1["method"], stage3["method"])


def test_a_live_peer_keeps_the_stages_in_process(monkeypatch):
    """Another live peer, such as the baselines' centralized-mixture
    child, already uses the second CPU: FedSC and FedGate then fork
    nothing and train the whole stack here, to the same bits. A peer
    counts as live until it is reaped, by close() or by the answer that
    found it ended."""
    fedsc_clients = lockstep_clients(5, (45,))
    fedgate_clients = lockstep_clients(4, (47,))
    forks = cpus(monkeypatch, True)
    halves = (fedsc_call(fedsc_clients), fedgate_call(fedgate_clients))
    assert len(forks) == 2 and _Peer.live == 0
    busy = _Peer(lambda: None, "the test peer")
    try:
        assert _Peer.live == 1
        alone = (fedsc_call(fedsc_clients), fedgate_call(fedgate_clients))
    finally:
        busy.close()
    assert len(forks) == 3 and _Peer.live == 0
    for got, expected in zip(alone, halves):
        assert round_outcomes(got) == round_outcomes(expected)
    dead = _Peer(lambda: os._exit(3), "the test peer")
    try:
        dead.ask()
        with pytest.raises(InternalError):
            dead.answer()
        assert _Peer.live == 0
    finally:
        dead.close()
    assert _Peer.live == 0


def test_pipeline_with_baselines_forks_only_the_centralized_child(
        monkeypatch, tmp_path):
    """With baselines the centralized mixture's child is live through
    stages 1 to 3 and the classifier baselines, so the round driver
    forks no peer for FedSC, FedGate or the FedAvg classifier."""
    doc = {"config_version": 1, "seed": 4,
           "data": {"num_clients": 4, "samples_per_class": 60,
                    "train_per_client": 50, "test_per_client": 20},
           "stage1": {"rounds": 1}, "stage2": {"epochs": 1},
           "stage3": {"rounds": 1},
           "output_dir": str(tmp_path / "run")}
    forks = cpus(monkeypatch, True)
    run_pipeline(config_from_dict(doc), with_baselines=True)
    assert len(forks) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stage", ["stage1_fedce", "stage1_fedsc",
                                   "stage3_fedgate"])
def test_divergence_in_the_peer_names_client_and_round(monkeypatch, stage):
    """Client 2 of 3 trains in the peer, as the upper half, and its
    divergence fails the stage exactly as in-process."""
    scale = {"stage1_fedce": 1e200, "stage1_fedsc": 1e100,
             "stage3_fedgate": 1e307}[stage]
    clients = scale_features(make_clients(3, 1.0), scale, (2,))
    fe_spec = MlpSpec((8, 10, 6), (R, I))

    def run():
        if stage == "stage1_fedce":
            return stage1_fedce(clients, fe_spec, MlpSpec((6, 4), (I,)),
                                rounds=2, local_epochs=2, lr=0.05, seed=1,
                                batch_size=16)
        if stage == "stage1_fedsc":
            return stage1_fedsc(clients, fe_spec, rounds=2, local_epochs=1,
                                lr=0.05, aug_spec=AugmentSpec(0.1, 0.1),
                                dp_noise_std=0.0, seed=1, batch_size=64)
        identity_spec, fe = identity_extractor(8)
        expert_spec = MlpSpec((8, 4), (I,))
        experts = tuple(init_mlp_params(expert_spec, np.random.default_rng(i))
                        for i in range(3))
        gate_init = init_gate_params(8, 3, 0.01, np.random.default_rng(2))
        return stage3_fedgate(clients, latents_of(clients, identity_spec, fe),
                              expert_spec, experts,
                              gate_init, rounds=2, local_epochs=2, lr=0.05,
                              lambda_load=0.01, client_fraction=1.0,
                              grad_max_norm=1.0, k=1, seed=1, batch_size=16)

    errors = []
    for two in (False, True):
        forks = cpus(monkeypatch, two)
        with pytest.raises(TrainingError) as got:
            run()
        assert len(forks) == two
        errors.append(str(got.value))
    assert errors == [f"client 2 loss became non-finite in {stage} "
                      "round 0"] * 2


def test_cpu_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not federated._two_cpus()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert federated._two_cpus()
    # a platform without the call forks nothing
    monkeypatch.delattr(os, "sched_getaffinity")
    assert not federated._two_cpus()


def test_peer_error_comes_back_with_its_type_and_message():
    def fn(x):
        if x < 0:
            raise DataError(f"negative request {x}")
        return 1 / x

    peer = _Peer(fn, "the test peer")
    try:
        peer.ask(-2)
        with pytest.raises(DataError, match=r"^negative request -2$"):
            peer.answer()
        peer.ask(0)
        with pytest.raises(ZeroDivisionError, match=r"^division by zero$"):
            peer.answer()
        # the peer outlives the calls that raised
        peer.ask(4)
        assert peer.answer() == 0.25
    finally:
        peer.close()


def test_peer_that_dies_is_an_internal_error(monkeypatch):
    peer = _Peer(lambda: os._exit(3), "the test peer")
    try:
        peer.ask()
        with pytest.raises(InternalError,
                           match=r"^the test peer ended with code 3$"):
            peer.answer()
    finally:
        peer.close()
    # a stage whose peer dies mid-round fails the same way, no hang
    parent = os.getpid()
    real = federated._gate_step

    def dying(*args):
        if os.getpid() != parent:
            os._exit(7)
        return real(*args)

    cpus(monkeypatch, True)
    monkeypatch.setattr(federated, "_gate_step", dying)
    with pytest.raises(InternalError, match=r"^the stage3_fedgate peer "
                       r"ended with code 7$"):
        fedgate_call(lockstep_clients(4, (47,)))


def test_peer_killed_before_a_request_is_an_internal_error():
    peer = _Peer(lambda: None, "the test peer")
    try:
        os.kill(peer.pid, 9)
        with pytest.raises(InternalError,
                           match=r"^the test peer ended with code -9$"):
            peer.ask()
            peer.answer()
    finally:
        peer.close()


def test_interrupt_mid_stage_kills_the_peer(monkeypatch):
    """The peer sleeps in its half while this process is interrupted in
    its own; the stage must kill and reap it (the autouse fixture checks
    for a child or a pipe left behind) instead of waiting."""
    parent = os.getpid()

    def step(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    forks = cpus(monkeypatch, True)
    monkeypatch.setattr(federated, "_spectral_step", step)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        fedsc_call(lockstep_clients(4, (45,)))
    assert time.perf_counter() - start < 15
    assert len(forks) == 1
