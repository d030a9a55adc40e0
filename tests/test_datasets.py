import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import same_bits

from nmoe.datasets import (AugmentSpec, Dataset, apportion, augment,
                           dominant_class_counts, gen_synthetic, load_cifar10,
                           load_dataset, partition_noniid, save_cifar10,
                           save_dataset)
from nmoe.errors import ConfigError, DataError, FormatError


def nearest_centroid_accuracy(train: Dataset, test: Dataset) -> float:
    centroids = np.stack([train.features[train.labels == c].mean(axis=0)
                          for c in range(train.num_classes)])
    d2 = ((test.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == test.labels).mean())


def split_halves(ds: Dataset) -> tuple[Dataset, Dataset]:
    idx = np.arange(ds.num_samples)
    return ds.take(idx[::2]), ds.take(idx[1::2])


class TestGenSynthetic:
    def test_zero_spread_collapses_to_means(self):
        ds = gen_synthetic(4, 8, 50, 0.0, seed=1)
        fit, held_out = split_halves(ds)
        assert nearest_centroid_accuracy(fit, held_out) == 1.0

    def test_small_spread_is_separable(self):
        ds = gen_synthetic(5, 12, 100, 0.01, seed=2)
        fit, held_out = split_halves(ds)
        assert nearest_centroid_accuracy(fit, held_out) == 1.0

    def test_same_seed_same_data(self):
        a = gen_synthetic(3, 6, 20, 0.4, seed=9)
        b = gen_synthetic(3, 6, 20, 0.4, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_huge_spread_approaches_chance(self):
        ds = gen_synthetic(10, 16, 400, 100.0, seed=3)
        fit, held_out = split_halves(ds)
        assert abs(nearest_centroid_accuracy(fit, held_out) - 0.1) < 0.05

    def test_means_on_unit_sphere(self):
        ds = gen_synthetic(6, 10, 30, 0.0, seed=4)
        norms = np.linalg.norm(ds.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            gen_synthetic(0, 4, 10, 0.3, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(3, 4, 10, -0.1, seed=0)


class TestCifar10:
    @staticmethod
    def record(label: int, fill: int) -> bytes:
        return bytes([label]) + bytes([fill]) * 3072

    def test_two_record_file(self, tmp_path):
        f = tmp_path / "batch.bin"
        f.write_bytes(self.record(3, 10) + self.record(7, 255))
        ds = load_cifar10(f)
        assert ds.num_samples == 2
        assert ds.labels.tolist() == [3, 7]
        assert ds.features.shape == (2, 3072)
        assert np.allclose(ds.features[0], 10.0 / 255.0)
        assert np.allclose(ds.features[1], 1.0)

    def test_single_record(self, tmp_path):
        f = tmp_path / "one.bin"
        f.write_bytes(self.record(4, 0))
        ds = load_cifar10(f)
        assert ds.num_samples == 1 and ds.labels[0] == 4

    def test_truncated_file_rejected(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(self.record(1, 2)[:-1])
        with pytest.raises(FormatError):
            load_cifar10(f)

    def test_bad_label_rejected(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(self.record(10, 2))
        with pytest.raises(FormatError):
            load_cifar10(f)

    def test_directory_of_batches(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(self.record(0, 1))
        (tmp_path / "b.bin").write_bytes(self.record(9, 2))
        ds = load_cifar10(tmp_path)
        assert ds.labels.tolist() == [0, 9]

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = np.empty((20, 3073), dtype=np.uint8)
        raw[:, 0] = rng.integers(0, 10, size=20)
        raw[:, 1:] = rng.integers(0, 256, size=(20, 3072))
        src = tmp_path / "src.bin"
        src.write_bytes(raw.tobytes())
        ds = load_cifar10(src)
        out = tmp_path / "out.bin"
        save_cifar10(ds, out)
        assert out.read_bytes() == src.read_bytes()
        again = load_cifar10(out)
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)


class TestApportion:
    def test_exact_integers_untouched(self):
        counts = apportion(np.array([2.0, 3.0, 5.0]), 10)
        assert counts.tolist() == [2, 3, 5]

    def test_largest_remainder_with_tie_to_lowest_index(self):
        counts = apportion(np.full(3, 10.0 / 3.0), 10)
        assert counts.tolist() == [4, 3, 3]

    def test_pseudo_label_arithmetic(self):
        # 1000 samples, own fraction 0.7 across 10 ids
        quotas = np.full(10, 0.3 * 1000 / 9.0)
        quotas[0] = 700.0
        counts = apportion(quotas, 1000)
        assert counts[0] == 700
        assert sorted(counts[1:].tolist()) == [33] * 6 + [34] * 3
        assert counts[1:4].tolist() == [34, 34, 34]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.integers(0, 200))
    def test_sums_and_bounds(self, seed, buckets, total):
        rng = np.random.default_rng(seed)
        w = rng.random(buckets) + 1e-9
        quotas = w / w.sum() * total
        counts = apportion(quotas, total)
        assert counts.sum() == total
        assert ((counts - np.floor(quotas)) >= 0).all()
        assert ((counts - np.floor(quotas)) <= 1).all()


class TestPartition:
    def make_data(self, per_class=300, classes=10, dim=4):
        rng = np.random.default_rng(0)
        n = per_class * classes
        # unique feature values let us detect duplicates across shards
        features = np.arange(n * dim, dtype=np.float64).reshape(n, dim)
        labels = np.repeat(np.arange(classes), per_class)
        perm = rng.permutation(n)
        return Dataset(features[perm], labels[perm], classes)

    def test_dominant_count_is_exact(self):
        data = self.make_data(per_class=1200, classes=10)
        shards = partition_noniid(data, 2, tau=0.2, train_per_client=1000,
                                  test_per_client=100, seed=1)
        for shard in shards:
            dominant = shard.client_id % 10
            assert int((shard.train.labels == dominant).sum()) == 800

    def test_round_robin_dominants_cover_all_classes(self):
        data = self.make_data()
        shards = partition_noniid(data, 10, tau=0.3, train_per_client=200,
                                  test_per_client=50, seed=2)
        dominants = [int(np.bincount(s.train.labels, minlength=10).argmax())
                     for s in shards]
        assert sorted(dominants) == list(range(10))

    def test_all_classes_present_when_tau_positive(self):
        data = self.make_data()
        shards = partition_noniid(data, 10, tau=0.3, train_per_client=200,
                                  test_per_client=50, seed=3)
        for s in shards:
            assert set(s.train.labels.tolist()) == set(range(10))

    def test_shards_are_disjoint(self):
        data = self.make_data()
        shards = partition_noniid(data, 8, tau=0.5, train_per_client=150,
                                  test_per_client=60, seed=4)
        seen = set()
        for s in shards:
            for ds in (s.train, s.test):
                for row in ds.features[:, 0].tolist():
                    assert row not in seen
                    seen.add(row)

    def test_dominant_ratio_within_two_percent(self):
        data = self.make_data(per_class=1500)
        for tau in (0.2, 0.3, 0.7):
            shards = partition_noniid(data, 5, tau=tau, train_per_client=600,
                                      test_per_client=50, seed=5)
            for s in shards:
                dominant = s.client_id % 10
                ratio = (s.train.labels == dominant).mean()
                assert abs(ratio - (1.0 - tau)) <= 0.02

    def test_tau_one_is_uniform(self):
        data = self.make_data()
        for seed in range(10):
            shards = partition_noniid(data, 4, tau=1.0, train_per_client=200,
                                      test_per_client=40, seed=seed)
            for s in shards:
                observed = np.bincount(s.train.labels, minlength=10)
                expected = 20.0
                chi2 = float(((observed - expected) ** 2 / expected).sum())
                assert chi2 < 27.88  # 0.999 quantile of chi2 with 9 dof

    def test_iid_test_distribution_switch(self):
        data = self.make_data()
        shards = partition_noniid(data, 5, tau=0.2, train_per_client=200,
                                  test_per_client=100, seed=6,
                                  test_distribution="iid")
        for s in shards:
            counts = np.bincount(s.test.labels, minlength=10)
            assert counts.tolist() == [10] * 10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data(),
           st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 40),
           st.integers(1, 40), st.sampled_from(["matched", "iid"]),
           st.integers(0, 2**31 - 1))
    def test_every_shard_has_the_requested_sizes(self, classes, data, tau,
                                                 train, test, test_dist,
                                                 seed):
        # the stages train all clients as one stack, which needs every
        # train shard, and so the partition, to give each client the
        # same row counts
        num_clients = data.draw(st.integers(1, classes))
        source = self.make_data(per_class=2 * (train + test + classes),
                                classes=classes, dim=2)
        shards = partition_noniid(source, num_clients, tau, train, test,
                                  seed, test_distribution=test_dist)
        assert [(s.train.num_samples, s.test.num_samples)
                for s in shards] == [(train, test)] * num_clients

    def test_deficit_reported(self):
        data = self.make_data(per_class=100)
        with pytest.raises(DataError, match="class"):
            partition_noniid(data, 10, tau=0.2, train_per_client=1000,
                             test_per_client=100, seed=7)

    def test_invalid_tau_rejected(self):
        data = self.make_data(per_class=50)
        for tau in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                partition_noniid(data, 2, tau=tau, train_per_client=10,
                                 test_per_client=5, seed=0)

    def test_more_clients_than_classes_rejected(self):
        data = self.make_data(per_class=50, classes=4)
        with pytest.raises(ConfigError):
            partition_noniid(data, 5, tau=0.5, train_per_client=10,
                             test_per_client=5, seed=0)

    def test_deterministic(self):
        data = self.make_data()
        a = partition_noniid(data, 6, tau=0.4, train_per_client=100,
                             test_per_client=30, seed=11)
        b = partition_noniid(data, 6, tau=0.4, train_per_client=100,
                             test_per_client=30, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x.train.features, y.train.features)
            assert np.array_equal(x.test.labels, y.test.labels)


class TestDominantClassCounts:
    def test_dominant_share_at_low_tau(self):
        counts = dominant_class_counts(10, 0, 0.2, 1000)
        assert counts[0] == 800
        assert counts.sum() == 1000

    def test_tau_one_uniform(self):
        counts = dominant_class_counts(10, 3, 1.0, 500)
        assert counts.tolist() == [50] * 10


class TestAugment:
    def test_identity_kernel(self):
        spec = AugmentSpec(noise_std=0.0, mask_prob=0.0)
        x = np.random.default_rng(1).normal(size=(5, 7))
        v1, v2 = augment(spec, x, seed=0)
        assert np.array_equal(v1, x)
        assert np.array_equal(v2, x)

    def test_mask_rate(self):
        spec = AugmentSpec(noise_std=0.0, mask_prob=0.5)
        x = np.ones((1, 1000))
        v1, _ = augment(spec, x, seed=2)
        zeros = int((v1 == 0.0).sum())
        # binomial(1000, 0.5): 3 sigma is about 47
        assert abs(zeros - 500) < 48

    def test_same_seed_same_views(self):
        spec = AugmentSpec(noise_std=0.3, mask_prob=0.2)
        x = np.random.default_rng(3).normal(size=(4, 6))
        a1, a2 = augment(spec, x, seed=5)
        b1, b2 = augment(spec, x, seed=5)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)

    def test_views_differ(self):
        spec = AugmentSpec(noise_std=0.3, mask_prob=0.0)
        x = np.zeros((2, 8))
        v1, v2 = augment(spec, x, seed=6)
        assert not np.array_equal(v1, v2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 9),
           st.integers(1, 7))
    def test_stack_matches_each_slice(self, seed, g, rows, width):
        # one draw for the trailing (rows, width) shape serves every slice
        spec = AugmentSpec(noise_std=0.3, mask_prob=0.2)
        x = np.random.default_rng(seed).normal(size=(g, rows, width))
        v1, v2 = augment(spec, x, seed=seed)
        for c in range(g):
            s1, s2 = augment(spec, x[c], seed=seed)
            assert same_bits(v1[c], s1) and same_bits(v2[c], s2)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            AugmentSpec(noise_std=-0.1, mask_prob=0.0)
        with pytest.raises(ConfigError):
            AugmentSpec(noise_std=0.1, mask_prob=1.0)


class TestDatasetContainer:
    def test_round_trip(self, tmp_path):
        ds = gen_synthetic(3, 5, 10, 0.2, seed=8)
        save_dataset(ds, tmp_path / "d", meta={"seed": 8})
        back, manifest = load_dataset(tmp_path / "d")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert manifest["meta"]["seed"] == 8

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("damage", ["list manifest", "no num_classes",
                                        "no features.npy"])
    def test_malformed_directory_rejected(self, tmp_path, damage):
        save_dataset(gen_synthetic(3, 5, 10, 0.2, seed=8), tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        if damage == "list manifest":
            manifest.write_text(json.dumps([doc]))
        elif damage == "no num_classes":
            del doc["num_classes"]
            manifest.write_text(json.dumps(doc))
        else:
            (tmp_path / "features.npy").unlink()
        with pytest.raises(FormatError):
            load_dataset(tmp_path)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.ones((2, 3)), np.array([0, 5]), 3)
    with pytest.raises(DataError):
        Dataset(np.ones((2, 3)), np.array([0]), 3)
