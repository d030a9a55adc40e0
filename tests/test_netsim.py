import hashlib
import json

import numpy as np
import pytest

from nmoe import kernels
from nmoe.datasets import Dataset, Shard
from nmoe.errors import ConfigError, DataError
from nmoe.moe import (GateParams, NmoeModel, RandomGate, init_gate_params,
                      moe_forward)
from nmoe.netsim import (CostModel, RoutingLog, export_heatmap, local_ratio,
                         simulate_inference)
from nmoe.numerics import MlpSpec, ParamSet, init_mlp_params

I, T = kernels.ACT_IDENTITY, kernels.ACT_TANH


def identity_params(dim: int) -> ParamSet:
    return ParamSet({"w0": np.eye(dim), "b0": np.zeros(dim)})


def steering_model(m: int, dim: int, num_classes: int,
                   gate_w: np.ndarray) -> NmoeModel:
    """Identity extractor and an explicit gate matrix, so routing is a
    pure function of the input features."""
    rng = np.random.default_rng(0)
    fe_spec = MlpSpec((dim, dim), (I,))
    expert_spec = MlpSpec((dim, num_classes), (I,))
    return NmoeModel(
        fe_spec=fe_spec,
        fe_params=identity_params(dim),
        gate=GateParams(params=ParamSet({
            "w0": np.asarray(gate_w, dtype=np.float64),
            "b0": np.zeros(m)})),
        expert_spec=expert_spec,
        experts=tuple(init_mlp_params(expert_spec, rng) for _ in range(m)),
    )


def shard_of(client_id: int, features: np.ndarray,
             labels: np.ndarray, num_classes: int) -> Shard:
    ds = Dataset(features=features, labels=labels, num_classes=num_classes)
    return Shard(client_id=client_id, train=ds, test=ds)


def onehot_rows(dim: int, index: int, n: int) -> np.ndarray:
    rows = np.zeros((n, dim))
    rows[:, index] = 1.0
    return rows


class TestCostModel:
    def test_default_bytes_per_scalar(self):
        assert CostModel(latent_dim=8, num_classes=4).bytes_per_scalar == 4


class TestRoutingLog:
    def test_validation(self):
        with pytest.raises(DataError):
            RoutingLog(np.zeros((2, 3)), 0, 0)
        with pytest.raises(DataError):
            RoutingLog(np.array([[1, -1], [0, 0]]), 0, 0)
        with pytest.raises(DataError):
            RoutingLog(np.zeros((2, 2)), -1, 0)

    def test_totals(self):
        log = RoutingLog(np.array([[3, 1], [0, 4]]), 64, 8)
        assert log.num_clients == 2
        assert log.total == 8


class TestSimulateFixtures:
    def test_identity_routing_moves_no_bytes(self):
        m, dim = 3, 3
        model = steering_model(m, dim, num_classes=4, gate_w=np.eye(3))
        shards = [shard_of(c, onehot_rows(dim, c, 10 + c),
                           np.zeros(10 + c, dtype=int), 4)
                  for c in range(m)]
        result = simulate_inference(model, shards, k=1,
                                    cost=CostModel(dim, 4))
        assert result.log.bytes_out == 0
        assert result.log.bytes_back == 0
        assert np.array_equal(result.log.counts, np.diag([10, 11, 12]))
        assert local_ratio(result.log) == 1.0

    def test_all_remote_byte_totals(self):
        # 100 samples, k=1, every decision remote, latent width 64,
        # 10 classes, 4 bytes per scalar: 25,600 out and 4,000 back
        dim = 64
        gate_w = np.zeros((dim, 2))
        gate_w[0, 1] = 1.0  # positive first feature routes to expert 1
        model = steering_model(2, dim, num_classes=10, gate_w=gate_w)
        f0 = np.zeros((60, dim))
        f0[:, 0] = 1.0
        f1 = np.zeros((40, dim))
        f1[:, 0] = -1.0
        shards = [shard_of(0, f0, np.zeros(60, dtype=int), 10),
                  shard_of(1, f1, np.zeros(40, dtype=int), 10)]
        result = simulate_inference(model, shards, k=1,
                                    cost=CostModel(dim, 10))
        assert np.array_equal(result.log.counts, np.array([[0, 60],
                                                           [40, 0]]))
        assert result.log.bytes_out == 25_600
        assert result.log.bytes_back == 4_000
        assert local_ratio(result.log) == 0.0

    def test_k_equals_m_routes_everywhere(self):
        m, dim = 4, 4
        model = steering_model(m, dim, num_classes=3, gate_w=np.eye(4))
        sizes = [5, 7, 9, 11]
        shards = [shard_of(c, onehot_rows(dim, c, sizes[c]),
                           np.zeros(sizes[c], dtype=int), 3)
                  for c in range(m)]
        result = simulate_inference(model, shards, k=m,
                                    cost=CostModel(dim, 3))
        expected = np.repeat(np.array(sizes)[:, None], m, axis=1)
        assert np.array_equal(result.log.counts, expected)
        remote = (m - 1) * sum(sizes)
        assert result.log.bytes_out == remote * dim * 4
        assert result.log.bytes_back == remote * 3 * 4


def random_model(m: int, dim: int, num_classes: int,
                 seed: int) -> NmoeModel:
    rng = np.random.default_rng(seed)
    fe_spec = MlpSpec((dim, 6, 5), (T, I))
    expert_spec = MlpSpec((5, num_classes), (I,))
    return NmoeModel(
        fe_spec=fe_spec,
        fe_params=init_mlp_params(fe_spec, rng),
        gate=init_gate_params(5, m, 0.0, rng),
        expert_spec=expert_spec,
        experts=tuple(init_mlp_params(expert_spec, rng) for _ in range(m)),
    )


def random_shards(m: int, dim: int, num_classes: int, seed: int):
    rng = np.random.default_rng(seed)
    shards = []
    for c in range(m):
        n = int(rng.integers(5, 25))
        shards.append(shard_of(c, rng.normal(size=(n, dim)),
                               rng.integers(0, num_classes, size=n),
                               num_classes))
    return shards


class TestSimulateInvariants:
    @pytest.mark.parametrize("seed,k", [(1, 1), (2, 2), (3, 4)])
    def test_count_and_byte_conservation(self, seed, k):
        m, dim, classes = 5, 4, 3
        model = random_model(m, dim, classes, seed)
        shards = random_shards(m, dim, classes, seed + 100)
        result = simulate_inference(model, shards, k,
                                    cost=CostModel(5, classes))
        log = result.log
        total_samples = sum(s.test.labels.size for s in shards)
        assert log.total == total_samples * k
        remote = log.total - int(np.trace(log.counts))
        assert log.bytes_out == remote * 5 * 4
        assert log.bytes_back == remote * classes * 4
        row_samples = {s.client_id: s.test.labels.size for s in shards}
        for c in range(m):
            assert log.counts[c].sum() == row_samples[c] * k

    def test_predictions_match_direct_forward(self):
        m, dim, classes = 4, 3, 6
        model = random_model(m, dim, classes, 9)
        shards = random_shards(m, dim, classes, 10)
        result = simulate_inference(model, shards, k=2,
                                    cost=CostModel(5, classes))
        pooled = np.concatenate([s.test.features for s in shards])
        direct = np.argmax(moe_forward(model, pooled, 2).logits, axis=1)
        start = 0
        for s in shards:
            n = s.test.labels.size
            assert np.array_equal(result.predictions[s.client_id],
                                  direct[start:start + n])
            start += n

    def test_scores_are_row_normalized(self):
        model = random_model(3, 3, 4, 2)
        shards = random_shards(3, 3, 4, 3)
        result = simulate_inference(model, shards, k=1, cost=CostModel(5, 4))
        for c, score in result.scores.items():
            np.testing.assert_allclose(score.sum(axis=1), 1.0, atol=1e-12)
            assert score.shape == (shards[c].test.labels.size, 4)


class TestSimulateValidation:
    def setup_method(self):
        self.model = random_model(3, 3, 4, 0)
        self.shards = random_shards(3, 3, 4, 1)
        self.cost = CostModel(5, 4)

    def test_duplicate_client(self):
        bad = self.shards + [self.shards[0]]
        with pytest.raises(DataError, match="duplicate"):
            simulate_inference(self.model, bad, 1, self.cost)

    def test_client_id_out_of_range(self):
        bad = [Shard(client_id=7, train=self.shards[0].train,
                     test=self.shards[0].test)]
        with pytest.raises(DataError, match="outside"):
            simulate_inference(self.model, bad, 1, self.cost)

    def test_empty_test_set_unrepresentable(self):
        # Dataset itself refuses zero samples, so an empty test shard can
        # never reach the simulator
        with pytest.raises(DataError, match="at least one sample"):
            Dataset(features=np.zeros((0, 3)),
                    labels=np.zeros(0, dtype=int), num_classes=4)

    def test_feature_width_mismatch(self):
        wide = Dataset(features=np.zeros((4, 9)),
                       labels=np.zeros(4, dtype=int), num_classes=4)
        bad = [Shard(client_id=0, train=wide, test=wide)]
        with pytest.raises(DataError, match="width"):
            simulate_inference(self.model, bad, 1, self.cost)

    def test_cost_model_mismatch(self):
        with pytest.raises(ConfigError, match="latent_dim"):
            simulate_inference(self.model, self.shards, 1, CostModel(9, 4))
        with pytest.raises(ConfigError, match="num_classes"):
            simulate_inference(self.model, self.shards, 1, CostModel(5, 9))

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError, match="k must be"):
            simulate_inference(self.model, self.shards, 4, self.cost)

    def test_no_shards(self):
        with pytest.raises(DataError):
            simulate_inference(self.model, [], 1, self.cost)


class TestRandomGateRouting:
    def build(self, m=10, dim=4, classes=3):
        rng = np.random.default_rng(4)
        fe_spec = MlpSpec((dim, 5), (T,))
        expert_spec = MlpSpec((5, classes), (I,))
        return NmoeModel(
            fe_spec=fe_spec,
            fe_params=init_mlp_params(fe_spec, rng),
            gate=RandomGate(distribution=np.full(m, 1.0 / m)),
            expert_spec=expert_spec,
            experts=tuple(init_mlp_params(expert_spec, rng)
                          for _ in range(m)),
        )

    def test_uniform_routing_local_ratio_near_one_tenth(self):
        m, dim, classes = 10, 4, 3
        model = self.build(m, dim, classes)
        rng = np.random.default_rng(77)
        shards = [shard_of(c, rng.normal(size=(1000, dim)),
                           rng.integers(0, classes, size=1000), classes)
                  for c in range(m)]
        result = simulate_inference(model, shards, k=1, cost=CostModel(5, 3),
                                    rng=np.random.default_rng(8))
        assert abs(local_ratio(result.log) - 0.1) < 0.02
        assert result.log.total == 10_000

    @pytest.mark.parametrize("k,digest", [
        (1, "d7beae9106fb4b25b2934bc1436b5eba048aec36677f83fb01c9ec9dbf4f241e"),
        (2, "937df601b061d5666807f76589285ddd29fb7c04f3fb0cb869c8b533b7352c94"),
        (3, "1fb6421529a72951d2d11594f1901f1eeb0e3f9956ddab8cac9179e5860e7318"),
    ])
    def test_inference_bits_pinned(self, k, digest):
        m, dim, classes = 5, 4, 3
        rng = np.random.default_rng(4)
        fe_spec = MlpSpec((dim, 5), (T,))
        expert_spec = MlpSpec((5, classes), (I,))
        model = NmoeModel(
            fe_spec=fe_spec,
            fe_params=init_mlp_params(fe_spec, rng),
            gate=RandomGate(distribution=np.array([0.1, 0.2, 0.3, 0.25,
                                                   0.15])),
            expert_spec=expert_spec,
            experts=tuple(init_mlp_params(expert_spec, rng)
                          for _ in range(m)))
        data = np.random.default_rng(77)
        shards = [shard_of(c, data.normal(size=(40, dim)),
                           data.integers(0, classes, size=40), classes)
                  for c in range(m)]
        result = simulate_inference(model, shards, k=k,
                                    cost=CostModel(5, classes),
                                    rng=np.random.default_rng(8))
        h = hashlib.sha256()
        for c in range(m):
            h.update(result.predictions[c].astype("<i8").tobytes())
            h.update(result.scores[c].astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_random_gate_requires_rng(self):
        model = self.build()
        shards = random_shards(3, 4, 3, 5)
        with pytest.raises(ConfigError):
            simulate_inference(model, shards, 1, CostModel(5, 3))


class TestLocalRatio:
    def test_fixture(self):
        log = RoutingLog(np.array([[3, 1], [0, 4]]), 0, 0)
        assert local_ratio(log) == 7.0 / 8.0

    def test_empty_log(self):
        with pytest.raises(DataError):
            local_ratio(RoutingLog(np.zeros((2, 2), dtype=int), 0, 0))


class TestExportHeatmap:
    def test_identity_log_gives_identity_rows(self, tmp_path):
        log = RoutingLog(np.diag([5, 9, 2]), 0, 0)
        path = tmp_path / "heatmap.csv"
        export_heatmap(log, path, k=1, seed=3, config_hash="abc")
        expected = ("1.000000,0.000000,0.000000\n"
                    "0.000000,1.000000,0.000000\n"
                    "0.000000,0.000000,1.000000\n")
        assert path.read_text() == expected

    def test_golden_bytes_and_manifest(self, tmp_path):
        log = RoutingLog(np.array([[2, 2], [1, 3]]), 10, 20)
        path = tmp_path / "heatmap.csv"
        manifest_path = export_heatmap(log, path, k=2, seed=11,
                                       config_hash="deadbeef")
        assert path.read_bytes() == \
            b"0.500000,0.500000\n0.250000,0.750000\n"
        assert manifest_path.name == "heatmap.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest == {"config_hash": "deadbeef", "k": 2, "seed": 11}

    def test_zero_row_rejected(self, tmp_path):
        log = RoutingLog(np.array([[1, 1], [0, 0]]), 0, 0)
        with pytest.raises(DataError, match="client 1"):
            export_heatmap(log, tmp_path / "h.csv", k=1, seed=0,
                           config_hash="x")

    def test_unwritable_path_surfaces(self, tmp_path):
        log = RoutingLog(np.diag([1, 1]), 0, 0)
        with pytest.raises(OSError):
            export_heatmap(log, tmp_path / "missing" / "h.csv", k=1,
                           seed=0, config_hash="x")
