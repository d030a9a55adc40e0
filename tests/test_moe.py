import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmoe import kernels, moe
from nmoe.errors import ConfigError, DataError, FormatError
from nmoe.moe import (GateParams, NmoeModel, RandomGate, _route, gate_topk,
                      init_gate_params, load_balance_loss, load_model,
                      moe_backward, moe_forward, save_model)
from nmoe.numerics import (MlpSpec, ParamSet, cross_entropy,
                           encode_params, forward, init_mlp_params,
                           stack_params)
from oracles import (dense_mixture, finite_difference_params,
                     load_balance_all_columns, max_relative_error_params,
                     per_expert_moe_backward, per_expert_moe_forward,
                     same_bits)

I, T = kernels.ACT_IDENTITY, kernels.ACT_TANH


def gate_from_rows(w_rows, noise_std=0.0):
    """Gate whose logits for latent [1.0] are exactly w_rows."""
    w = np.asarray(w_rows, dtype=np.float64).reshape(1, -1)
    return GateParams(params=ParamSet({"w0": w, "b0": np.zeros(w.shape[1])}),
                      noise_std=noise_std)


def small_model(m=3, seed=0, latent=4, classes=3, noise_std=0.0,
                acts=(T,)) -> NmoeModel:
    rng = np.random.default_rng(seed)
    fe_spec = MlpSpec((3, latent), tuple(acts))
    expert_spec = MlpSpec((latent, 5, classes), (T, I))
    return NmoeModel(
        fe_spec=fe_spec,
        fe_params=init_mlp_params(fe_spec, rng),
        gate=init_gate_params(latent, m, noise_std, rng),
        expert_spec=expert_spec,
        experts=tuple(init_mlp_params(expert_spec, rng) for _ in range(m)),
    )


class TestGateTopk:
    def test_single_survivor_has_weight_one(self):
        gate = gate_from_rows([2.0, 1.0, 0.5])
        decision, probs = gate_topk(np.array([[1.0]]), gate, k=1)
        assert decision.indices.tolist() == [[0]]
        assert decision.weights.tolist() == [[1.0]]
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_symmetric_pair_splits_evenly(self):
        gate = gate_from_rows([1.0, 1.0, 0.0])
        decision, _ = gate_topk(np.array([[1.0]]), gate, k=2)
        assert sorted(decision.indices[0].tolist()) == [0, 1]
        assert decision.weights.tolist() == [[0.5, 0.5]]

    def test_k_equals_m_weights_are_full_softmax(self):
        gate = gate_from_rows([0.3, -1.2, 2.0, 0.0])
        decision, probs = gate_topk(np.array([[1.0]]), gate, k=4)
        gathered = probs[0, decision.indices[0]]
        assert np.array_equal(decision.weights[0], gathered)

    def test_boundary_tie_prefers_lowest_index(self):
        gate = gate_from_rows([1.0, 2.0, 1.0])
        decision, _ = gate_topk(np.array([[1.0]]), gate, k=2)
        assert sorted(decision.indices[0].tolist()) == [0, 1]

    def test_k_out_of_range(self):
        gate = gate_from_rows([1.0, 2.0])
        for k in (0, 3):
            with pytest.raises(ConfigError):
                gate_topk(np.ones((1, 1)), gate, k=k)

    def test_noise_requires_rng_and_is_reproducible(self):
        gate = gate_from_rows([0.1, 0.1, 0.1], noise_std=0.5)
        x = np.ones((50, 1))
        quiet, _ = gate_topk(x, gate, k=1)
        a, _ = gate_topk(x, gate, k=1, rng=np.random.default_rng(3))
        b, _ = gate_topk(x, gate, k=1, rng=np.random.default_rng(3))
        assert np.array_equal(a.indices, b.indices)
        # without an rng the tie goes to expert 0 on every row
        assert set(quiet.indices.ravel().tolist()) == {0}
        assert len(set(a.indices.ravel().tolist())) > 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5))
    def test_decision_invariants(self, seed, k):
        rng = np.random.default_rng(seed)
        m = 5
        gate = GateParams(params=ParamSet({
            "w0": rng.normal(size=(3, m)), "b0": rng.normal(size=m)}))
        latents = rng.normal(size=(6, 3))
        decision, probs = gate_topk(latents, gate, k=k)
        np.testing.assert_allclose(decision.weights.sum(axis=1), 1.0,
                                   atol=1e-9)
        assert (decision.weights > 0).all()
        for row in decision.indices:
            assert len(set(row.tolist())) == k
        # masked softmax equals the renormalized gathered probabilities
        gathered = probs[np.arange(6)[:, None], decision.indices]
        renorm = gathered / gathered.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(decision.weights, renorm, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 40),
           st.sampled_from([None, 1, 2, 3]), st.integers(1, 4),
           st.booleans(), st.booleans())
    def test_training_router_matches_gate_topk(self, seed, m, rows, k, g,
                                               stacked, noisy):
        # k None stands for k = m. The router must give gate_topk's
        # indices and probabilities and leave the stream where it does. A
        # stack of g gates draws one noise array for all slices, the draw
        # each slice's own 2-d gate_topk makes from a copy of the stream
        k = m if k is None else min(k, m)
        g = g if stacked else 1
        rng = np.random.default_rng(seed)
        gates = [init_gate_params(4, m, 0.3, rng) for _ in range(g)]
        latents = rng.normal(size=(g, rows, 4))
        b = np.random.default_rng(seed) if noisy else None
        if stacked:
            idx, route_probs = _route(
                latents, stack_params([gt.params for gt in gates]), 0.3, k,
                rng=b)
        else:
            idx, route_probs = _route(latents[0], gates[0].params, 0.3, k,
                                      rng=b)
            idx, route_probs = idx[None], route_probs[None]
        assert idx.shape == (g, rows, k)
        for c, gate in enumerate(gates):
            a = np.random.default_rng(seed) if noisy else None
            decision, probs = gate_topk(latents[c], gate, k, rng=a)
            assert np.array_equal(idx[c], decision.indices)
            assert np.array_equal(route_probs[c], probs)
            if noisy:
                assert a.bit_generator.state == b.bit_generator.state


class TestLoadBalanceLoss:
    def test_uniform_rows_give_exactly_one(self):
        for m in (2, 4, 10):
            probs = np.full((8, m), 1.0 / m)
            loss, _ = load_balance_loss(probs)
            assert loss == 1.0

    def test_collapse_gives_exactly_m(self):
        for m in (2, 5, 10):
            probs = np.zeros((6, m))
            probs[:, 0] = 1.0
            loss, _ = load_balance_loss(probs)
            assert loss == float(m)

    def test_four_row_fixture(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.3, 0.7]])
        loss, _ = load_balance_loss(probs)
        # f = [3/4, 1/4], column means [0.65, 0.35]
        assert abs(loss - 1.15) < 1e-12

    def test_non_probability_rows_rejected(self):
        with pytest.raises(DataError):
            load_balance_loss(np.array([[0.9, 0.3]]))
        with pytest.raises(DataError):
            load_balance_loss(np.array([[1.2, -0.2]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 20:
            z = rng.normal(size=(6, 4))
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            ordered = np.sort(p, axis=1)
            if (ordered[:, -1] - ordered[:, -2]).min() < 1e-3:
                continue  # an argmax flip would invalidate the probe
            done += 1
            _, grad = load_balance_loss(p)

            def f(q):
                return load_balance_loss(q)[0]

            from oracles import finite_difference, max_relative_error
            fd = finite_difference(f, p)
            assert max_relative_error(grad, fd) < 1e-4

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(1, 40))
    def test_at_least_one_on_hard_routings(self, seed, m, n):
        # when rows are one-hot, f equals P and Cauchy-Schwarz bounds the
        # loss below by 1
        rng = np.random.default_rng(seed)
        probs = np.zeros((n, m))
        probs[np.arange(n), rng.integers(0, m, size=n)] = 1.0
        loss, _ = load_balance_loss(probs)
        assert loss >= 1.0 - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 48), st.integers(1, 64),
           st.integers(1, 48), st.sampled_from([0.1, 1.0, 10.0]))
    def test_routed_columns_match_all_columns_bitwise(self, seed, m, n,
                                                      active, scale):
        # a boost on a few experts leaves most columns unrouted
        rng = np.random.default_rng(seed)
        z = scale * rng.normal(size=(n, m))
        z[:, rng.permutation(m)[:min(active, m)]] += 5.0 * scale
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        loss, grad = load_balance_loss(probs)
        ref_loss, ref_grad = load_balance_all_columns(probs)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 48),
           st.integers(1, 64), st.sampled_from([0.1, 1.0, 10.0]))
    def test_stacked_matches_per_slice(self, seed, g, m, n, scale):
        # slices route differently, so each sums its own routed columns
        rng = np.random.default_rng(seed)
        z = scale * rng.normal(size=(g, n, m))
        for c in range(g):
            z[c, :, rng.permutation(m)[:rng.integers(1, m + 1)]] += 5.0
        probs = kernels.softmax_rows(z)
        loss, grad = load_balance_loss(probs)
        assert loss.shape == (g,) and grad.shape == (g, n, m)
        for c in range(g):
            single_loss, single_grad = load_balance_loss(probs[c])
            assert loss[c] == single_loss
            assert np.array_equal(grad[c], single_grad)

    def test_stacked_row_check_covers_every_slice(self):
        probs = np.full((3, 4, 2), 0.5)
        probs[2, 1] = [0.5, 0.6]
        with pytest.raises(DataError):
            load_balance_loss(probs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8),
           st.floats(-3e-5, 3e-5), st.booleans())
    def test_row_check_matches_allclose(self, seed, m, offset, nan_row):
        rng = np.random.default_rng(seed)
        probs = rng.random(size=(4, m))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[0] *= 1.0 + offset
        if nan_row:
            probs[1, 0] = np.nan
        accept = np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert not (accept and nan_row)
        if accept:
            load_balance_loss(probs)
        else:
            with pytest.raises(DataError):
                load_balance_loss(probs)


class TestMoeForward:
    def test_k1_eval_returns_selected_expert_output(self):
        model = small_model(m=3, seed=1)
        batch = np.random.default_rng(2).normal(size=(7, 3))
        fwd = moe_forward(model, batch, k=1)
        for i in range(7):
            e = int(fwd.decision.indices[i, 0])
            expected = forward(model.expert_spec, model.experts[e],
                               fwd.latents[i:i + 1])
            np.testing.assert_allclose(fwd.logits[i], expected[0],
                                       rtol=1e-15)

    def test_equal_pair_is_mean_of_two_experts(self):
        model = small_model(m=3, seed=3)
        # zero gate weights and equal biases for experts 0 and 1
        gate = GateParams(params=ParamSet({
            "w0": np.zeros((4, 3)),
            "b0": np.array([1.0, 1.0, -5.0])}))
        model = NmoeModel(fe_spec=model.fe_spec, fe_params=model.fe_params,
                          gate=gate, expert_spec=model.expert_spec,
                          experts=model.experts)
        batch = np.random.default_rng(4).normal(size=(5, 3))
        fwd = moe_forward(model, batch, k=2)
        a = forward(model.expert_spec, model.experts[0], fwd.latents)
        b = forward(model.expert_spec, model.experts[1], fwd.latents)
        np.testing.assert_allclose(fwd.logits, 0.5 * (a + b), rtol=1e-12)

    def test_k_equals_m_matches_dense_mixture_oracle(self):
        model = small_model(m=4, seed=5)
        batch = np.random.default_rng(6).normal(size=(6, 3))
        fwd = moe_forward(model, batch, k=4)
        outputs = np.stack([forward(model.expert_spec, e, fwd.latents)
                            for e in model.experts])
        oracle = dense_mixture(fwd.latents, model.gate.params["w0"],
                               model.gate.params["b0"], outputs)
        np.testing.assert_allclose(fwd.logits, oracle, rtol=1e-10)

    def test_train_and_eval_agree_at_k_equals_m(self):
        model = small_model(m=3, seed=7)
        batch = np.random.default_rng(8).normal(size=(5, 3))
        ev = moe_forward(model, batch, k=3)
        # training weights picks by unmasked probabilities: at k = m the
        # masked softmax is the same row
        tr_logits = per_expert_moe_forward(model, batch, 3)[0]
        np.testing.assert_allclose(ev.logits, tr_logits, rtol=1e-12)

    def test_eval_deterministic_and_permutation_equivariant(self):
        model = small_model(m=3, seed=9, noise_std=0.05)
        batch = np.random.default_rng(10).normal(size=(8, 3))
        a = moe_forward(model, batch, k=2)
        b = moe_forward(model, batch, k=2)
        assert np.array_equal(a.logits, b.logits)
        perm = np.random.default_rng(11).permutation(8)
        c = moe_forward(model, batch[perm], k=2)
        np.testing.assert_allclose(c.logits, a.logits[perm], rtol=1e-12)
        assert np.array_equal(c.decision.indices, a.decision.indices[perm])

    def test_monotone_routing_in_column_bias(self):
        model = small_model(m=3, seed=12)
        batch = np.random.default_rng(13).normal(size=(40, 3))

        def frequency(bias_value):
            b0 = np.array(model.gate.params["b0"])
            b0[1] = bias_value
            gate = GateParams(params=ParamSet(
                {"w0": model.gate.params["w0"], "b0": b0}))
            m2 = NmoeModel(fe_spec=model.fe_spec, fe_params=model.fe_params,
                           gate=gate, expert_spec=model.expert_spec,
                           experts=model.experts)
            fwd = moe_forward(m2, batch, k=1)
            return int((fwd.decision.indices == 1).sum())

        freqs = [frequency(v) for v in (-1.0, 0.0, 1.0, 3.0)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))


class TestRandomGate:
    def make(self, dist, m=3, seed=20):
        base = small_model(m=m, seed=seed)
        return NmoeModel(fe_spec=base.fe_spec, fe_params=base.fe_params,
                         gate=RandomGate(np.asarray(dist)),
                         expert_spec=base.expert_spec, experts=base.experts)

    def test_point_mass_always_selects_that_expert(self):
        model = self.make([0.0, 1.0, 0.0])
        fwd = moe_forward(model, np.ones((30, 3)), k=1,
                          rng=np.random.default_rng(0))
        assert set(fwd.decision.indices.ravel().tolist()) == {1}

    def test_half_half_pair_without_replacement(self):
        model = self.make([0.5, 0.5, 0.0])
        fwd = moe_forward(model, np.ones((25, 3)), k=2,
                          rng=np.random.default_rng(1))
        for row in fwd.decision.indices:
            assert sorted(row.tolist()) == [0, 1]
        assert np.array_equal(fwd.decision.weights,
                              np.full((25, 2), 0.5))

    def test_too_few_nonzero_entries_rejected(self):
        model = self.make([1.0, 0.0, 0.0])
        with pytest.raises(ConfigError):
            moe_forward(model, np.ones((2, 3)), k=2,
                        rng=np.random.default_rng(2))

    def test_rng_required(self):
        model = self.make([0.4, 0.3, 0.3])
        with pytest.raises(ConfigError):
            moe_forward(model, np.ones((2, 3)), k=1)

    def test_distribution_validation(self):
        with pytest.raises(ConfigError):
            RandomGate(np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            RandomGate(np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # abs(nan - 1) > 1e-9 is false, so NaN needs its own check
        with pytest.raises(ConfigError, match="finite"):
            RandomGate(np.array([bad, 1.0]))


def margins_ok(logits, probs, k):
    """No finite-difference step can change a row's top-k set or its
    argmax: the k-th and (k+1)-th logits and the two largest
    probabilities are more than 5e-3 apart."""
    ordered = np.sort(logits, axis=-1)
    if k < logits.shape[-1] and \
            (ordered[..., -k] - ordered[..., -k - 1]).min() < 5e-3:
        return False
    probs = np.sort(probs, axis=-1)
    return (probs[..., -1] - probs[..., -2]).min() > 5e-3


def routed_chosen(outputs, idx):
    """Each row's k picked expert logits, (..., k, rows, classes), from
    every expert's logits outputs (..., experts, rows, classes)."""
    lead = np.indices(idx.shape[:-2], sparse=True)
    return outputs[(*(a[..., None, None] for a in lead),
                    np.swapaxes(idx, -1, -2), np.arange(idx.shape[-2]))]


class TestStackedTrainMode:
    """moe_backward, the training objective, against the per-expert
    oracle."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, 2, 3, 17])
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2),
                                     (5, 5)])
    def test_matches_per_expert_loop_bitwise(self, m, k, rows):
        # moe_backward's loss, logit gradient and gate gradient equal the
        # per-expert loop's, on the routing _route draws from that stream
        model = small_model(m=m, seed=10 * m + k, noise_std=0.1)
        data = np.random.default_rng(rows)
        batch = data.normal(size=(rows, 3))
        labels = data.integers(0, 3, size=rows)
        ref = per_expert_moe_forward(model, batch, k,
                                     rng=np.random.default_rng(5))
        logits, indices, probs, latents, _, outputs, _ = ref
        idx, routed = _route(latents, model.gate.params, 0.1, k,
                             np.random.default_rng(5))
        assert np.array_equal(idx, indices) and np.array_equal(routed, probs)
        ce, dlogits = cross_entropy(logits, labels)
        lb, dprobs = load_balance_loss(probs)
        _, gate, _ = per_expert_moe_backward(model, ref, dlogits,
                                             0.01 * dprobs)
        loss, dl, grads, _ = moe_backward(
            latents, probs, idx, routed_chosen(outputs, idx), labels, 0.01)
        assert loss == ce + 0.01 * lb
        assert np.array_equal(dl, dlogits)
        assert grads == gate


@pytest.mark.parametrize("rows", [1, 17, 64])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("g", [1, 3])
def test_stacked_moe_backward_matches_per_slice(g, k, rows):
    # each slice of a (g, ...) call carries the bits of its own 2-d
    # call: loss, logit gradient, gate gradient and the gate logits'
    # gradient the centralized mixture backpropagates
    rng = np.random.default_rng(100 * g + 10 * k + rows)
    m, d, classes = 5, 4, 3
    latents = rng.normal(size=(g, rows, d))
    logits = rng.normal(size=(g, rows, m))
    probs = kernels.softmax_rows(logits)
    idx = kernels.topk_indices(logits, k)
    chosen = rng.normal(size=(g, k, rows, classes))
    labels = rng.integers(0, classes, size=(g, rows))
    loss, dlogits, grads, dgate = moe_backward(latents, probs, idx, chosen,
                                               labels, 0.01)
    assert loss.shape == (g,) and grads.stack_shape == (g,)
    for i in range(g):
        one = moe_backward(latents[i], probs[i], idx[i], chosen[i],
                           labels[i], 0.01)
        assert loss[i].tobytes() == np.float64(one[0]).tobytes()
        assert same_bits(dlogits[i], one[1])
        assert same_bits(grads.flat[i], one[2].flat)
        assert same_bits(dgate[i], one[3])


def test_moe_backward_builds_the_gate_layout_once(monkeypatch):
    # the gate layout comes from a cache keyed by (latent_dim, m), so a
    # second batch of the same gate asks gate_spec for nothing
    specs = []
    real = moe.gate_spec
    monkeypatch.setattr(moe, "gate_spec",
                        lambda d, m: specs.append((d, m)) or real(d, m))
    moe._gate_layout.cache_clear()
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(6, 5))
    args = (rng.normal(size=(6, 4)), kernels.softmax_rows(logits),
            kernels.topk_indices(logits, 2), rng.normal(size=(2, 6, 3)),
            rng.integers(0, 3, size=6), 0.01)
    first, second = moe_backward(*args)[2], moe_backward(*args)[2]
    assert specs == [(4, 5)]
    assert first.layout is second.layout is real(4, 5).layout


class TestMoeBackward:
    def loss_at(self, model, batch, labels, k, lam):
        logits, _, probs, *_ = per_expert_moe_forward(model, batch, k)
        ce, _ = cross_entropy(logits, labels)
        lb, _ = load_balance_loss(probs)
        return ce + lam * lb

    def rebuild(self, model, fe=None, gate=None, experts=None):
        return NmoeModel(
            fe_spec=model.fe_spec,
            fe_params=fe if fe is not None else model.fe_params,
            gate=GateParams(params=gate, noise_std=0.0)
            if gate is not None else model.gate,
            expert_spec=model.expert_spec,
            experts=experts if experts is not None else model.experts)

    def test_full_gradient_matches_finite_differences(self):
        # the per-expert oracle's extractor, gate and expert gradients;
        # test_centralized_moe_matches_per_expert_loop ties the
        # centralized mixture to that oracle bit for bit
        rng = np.random.default_rng(30)
        lam = 0.05
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            model = small_model(m=3, seed=seed)
            batch = rng.normal(size=(5, 3))
            labels = rng.integers(0, 3, size=5)
            k = 1 + (done % 3)
            ref = per_expert_moe_forward(model, batch, k)
            latents, probs = ref[3], ref[2]
            gate_logits = latents @ model.gate.params["w0"] \
                + model.gate.params["b0"]
            if not margins_ok(gate_logits, probs, k):
                continue
            done += 1
            _, dlogits = cross_entropy(ref[0], labels)
            _, dprobs = load_balance_loss(probs)
            fe_grads, gate_grads, expert_grads = per_expert_moe_backward(
                model, ref, dlogits, lam * dprobs)

            fd_fe = finite_difference_params(
                lambda p: self.loss_at(self.rebuild(model, fe=p), batch,
                                       labels, k, lam), model.fe_params)
            assert max_relative_error_params(fe_grads, fd_fe) < 1e-4

            fd_gate = finite_difference_params(
                lambda p: self.loss_at(self.rebuild(model, gate=p), batch,
                                       labels, k, lam),
                model.gate.params)
            assert max_relative_error_params(gate_grads, fd_gate) < 1e-4

            for e in range(3):
                def with_expert(p, _e=e):
                    experts = list(model.experts)
                    experts[_e] = p
                    return self.rebuild(model, experts=tuple(experts))

                fd_e = finite_difference_params(
                    lambda p: self.loss_at(with_expert(p), batch, labels,
                                           k, lam), model.experts[e])
                assert max_relative_error_params(expert_grads[e],
                                                 fd_e) < 1e-4

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stack3"])
    def test_gate_gradient_matches_finite_differences(self, lead, k):
        # FedGate's gate gradient: frozen expert logits, no gate noise, a
        # 2-d batch or a stack of three gates on their own shards
        m, d, rows, classes, lam = 4, 4, 6, 3, 0.05
        rng = np.random.default_rng(40 + k + len(lead))
        done = 0
        while done < 4:
            latents = rng.normal(size=lead + (rows, d))
            params = ParamSet({"w0": rng.normal(size=lead + (d, m)),
                               "b0": rng.normal(size=lead + (m,))})
            outputs = rng.normal(size=lead + (m, rows, classes))
            labels = rng.integers(0, classes, size=lead + (rows,))

            def loss_at(p):
                idx, probs = _route(latents, p, 0.0, k)
                loss, *_ = moe_backward(latents, probs, idx,
                                        routed_chosen(outputs, idx), labels,
                                        lam)
                return float(np.sum(loss))

            idx, probs = _route(latents, params, 0.0, k)
            gate_logits = latents @ params["w0"] + params["b0"][..., None, :]
            if not margins_ok(gate_logits, probs, k):
                continue
            done += 1
            _, _, grads, _ = moe_backward(latents, probs, idx,
                                          routed_chosen(outputs, idx),
                                          labels, lam)
            assert grads["w0"].shape == params["w0"].shape
            fd = finite_difference_params(loss_at, params)
            assert max_relative_error_params(grads, fd) < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = small_model(m=3, seed=40, noise_std=0.01)
        path = tmp_path / "model.json"
        save_model(model, path, extra={"config_hash": "abc"})
        back, meta = load_model(path)
        assert meta["config_hash"] == "abc"
        assert back.fe_params == model.fe_params
        assert back.gate.params == model.gate.params
        assert back.gate.noise_std == model.gate.noise_std
        assert all(a == b for a, b in zip(back.experts, model.experts))
        assert back.fe_spec == model.fe_spec
        assert back.expert_spec == model.expert_spec

    def test_random_gate_round_trip(self, tmp_path):
        base = small_model(m=3, seed=41)
        model = NmoeModel(fe_spec=base.fe_spec, fe_params=base.fe_params,
                          gate=RandomGate(np.array([0.2, 0.3, 0.5])),
                          expert_spec=base.expert_spec, experts=base.experts)
        path = tmp_path / "model.json"
        save_model(model, path)
        back, _ = load_model(path)
        assert isinstance(back.gate, RandomGate)
        assert np.array_equal(back.gate.distribution, [0.2, 0.3, 0.5])

    def test_stacked_gate_rejected(self, tmp_path):
        # a gate of g lockstep slices is training state, not a model: a
        # checkpoint holding a (g, d, m) gate must not load
        model = small_model(m=3, seed=42)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        stacked = stack_params([model.gate.params, model.gate.params])
        doc["gate"]["params"] = encode_params(stacked)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="2-d gate"):
            load_model(path)

    @pytest.mark.parametrize("damage", ["list", "gate", "fe_spec",
                                        "spec without widths", "meta"])
    def test_malformed_document_rejected(self, tmp_path, damage):
        model = small_model(m=3, seed=43)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        if damage == "list":
            doc = [doc]
        elif damage == "spec without widths":
            del doc["expert_spec"]["widths"]
        elif damage == "meta":
            doc["meta"] = ["not", "an", "object"]
        else:
            del doc[damage]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_model(path)
        path.write_text('{"format_version": 99}')
        with pytest.raises(FormatError):
            load_model(path)


def test_model_validation():
    model = small_model(m=3)
    with pytest.raises(ConfigError):
        NmoeModel(fe_spec=model.fe_spec, fe_params=model.fe_params,
                  gate=model.gate, expert_spec=model.expert_spec,
                  experts=model.experts[:2])
    bad_expert = MlpSpec((7, 3), (I,))
    with pytest.raises(ConfigError):
        NmoeModel(fe_spec=model.fe_spec, fe_params=model.fe_params,
                  gate=model.gate, expert_spec=bad_expert,
                  experts=model.experts)
