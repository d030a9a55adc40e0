import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmoe import kernels
from nmoe.errors import ConfigError, DataError, InternalError
from nmoe.federated import fedavg
from nmoe.numerics import (MlpSpec, ParamSet, add_params, backward,
                           chain_specs, check_compatible, cross_entropy,
                           decode_params, encode_params, forward,
                           grad_normalize, init_mlp_params, params_digest,
                           sgd_step, softmax, softmax_backward, stack_params,
                           unstack_params)
from oracles import (finite_difference, finite_difference_params,
                     max_relative_error, max_relative_error_params,
                     param_set, per_array_add_params, per_array_fedavg,
                     per_array_grad_normalize, per_array_sgd_step,
                     per_array_stack_params, per_array_unstack_params,
                     same_bits, same_param_bits)

I, R, T = kernels.ACT_IDENTITY, kernels.ACT_RELU, kernels.ACT_TANH


def mlp(widths, acts, seed=0):
    spec = MlpSpec(tuple(widths), tuple(acts))
    return spec, init_mlp_params(spec, np.random.default_rng(seed))


class TestParamSet:
    def test_arrays_are_frozen_copies(self):
        src = np.ones((2, 2))
        ps = ParamSet({"w": src})
        src[0, 0] = 5.0
        assert ps["w"][0, 0] == 1.0
        with pytest.raises(ValueError):
            ps["w"][0, 0] = 3.0

    def test_duplicate_name_rejected(self):
        with pytest.raises(InternalError):
            ParamSet([("w", np.ones(2)), ("w", np.ones(2))])

    def test_digest_tracks_content(self):
        a = ParamSet({"w": np.ones(3), "b": np.zeros(2)})
        b = ParamSet({"w": np.ones(3), "b": np.zeros(2)})
        c = ParamSet({"w": np.ones(3), "b": np.array([0.0, 1e-300])})
        assert params_digest(a) == params_digest(b)
        assert params_digest(a) != params_digest(c)

    def test_incompatible_sets_rejected(self):
        a = ParamSet({"w": np.ones((2, 2))})
        b = ParamSet({"w": np.ones((2, 3))})
        with pytest.raises(ConfigError):
            sgd_step(a, b, 0.1)

    def test_stack_and_single_set_are_incompatible(self):
        # the same (2, 3) arrays, laid out as one network or as a stack
        # of two, are different buffers
        single = ParamSet({"w": np.ones((2, 3)), "b": np.ones(2)})
        row = ParamSet({"w": np.ones(3), "b": np.ones(())})
        stack = stack_params([row, row])
        assert stack.stack_shape == (2,) and single.stack_shape == ()
        with pytest.raises(ConfigError, match="stack shapes"):
            check_compatible(single, stack)

    def test_one_layout_per_topology(self):
        a = mlp((4, 3, 2), (R, I), seed=0)[1]
        b = mlp((4, 3, 2), (R, I), seed=1)[1]
        assert a.layout is b.layout is MlpSpec((4, 3, 2), (R, I)).layout
        assert stack_params([a, b]).layout is a.layout

    def test_views_and_unstacked_slices_are_read_only(self):
        stack = stack_params([mlp((3, 4, 2), (T, I), seed=s)[1]
                              for s in range(3)])
        sets = [stack, *unstack_params(stack), sgd_step(stack, stack, 0.5),
                grad_normalize(stack, 1e-3)]
        for ps in sets:
            with pytest.raises(ValueError):
                ps.flat[..., 0] = 1.0
            for name, arr in ps.items():
                with pytest.raises(ValueError):
                    arr[...] = 0.0
                assert np.shares_memory(arr, ps.flat)

    def test_unstacked_slices_share_the_stack_buffer(self):
        stack = stack_params([mlp((3, 2), (I,), seed=s)[1] for s in range(2)])
        for c, ps in enumerate(unstack_params(stack)):
            assert ps.stack_shape == ()
            assert np.shares_memory(ps.flat, stack.flat)
            assert same_bits(ps.flat, stack.flat[c])
        with pytest.raises(InternalError):
            unstack_params(unstack_params(stack)[0])


class TestForward:
    def test_identity_net_passes_input_through(self):
        spec = MlpSpec((2, 2), (I,))
        params = ParamSet({"w0": np.eye(2), "b0": np.zeros(2)})
        out = forward(spec, params, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_relu_clips_negative(self):
        spec = MlpSpec((2, 2), (R,))
        params = ParamSet({"w0": np.eye(2), "b0": np.zeros(2)})
        out = forward(spec, params, np.array([[-1.0, 3.0]]))
        assert np.array_equal(out, [[0.0, 3.0]])

    def test_shape_mismatch_is_config_error(self):
        spec, params = mlp((3, 2), (I,))
        with pytest.raises(ConfigError):
            forward(spec, params, np.ones((4, 5)))

    def test_deterministic(self):
        spec, params = mlp((4, 6, 3), (R, I), seed=7)
        x = np.random.default_rng(1).normal(size=(5, 4))
        a = forward(spec, params, x)
        b = forward(spec, params, x)
        assert np.array_equal(a, b)


def test_forward_checks_params_against_the_spec():
    # a set fits a network exactly when it has the spec's layout: the
    # same arrays in another order, a layer short, a reshaped array or
    # an extra one are each refused
    spec, params = mlp((3, 4, 2), (R, I))
    x = np.random.default_rng(0).normal(size=(5, 3))
    arrays = dict(params.items())
    bad = {
        "reordered": [(n, arrays[n]) for n in reversed(params.names)],
        "missing": [(n, a) for n, a in arrays.items() if n != "b1"],
        "wrong-shaped": {**arrays, "w1": np.ones((4, 3))},
        "superset": {**arrays, "w2": np.ones((2, 2)), "b2": np.zeros(2)},
    }
    for case, items in bad.items():
        odd = ParamSet(items)
        assert odd.layout is not spec.layout, case
        with pytest.raises(ConfigError, match="does not fit the network"):
            forward(spec, odd, x)
    assert forward(spec, ParamSet(arrays), x).shape == (5, 2)


class TestBackward:
    def test_linear_layer_weight_grad_is_outer_product(self):
        spec = MlpSpec((3, 2), (I,))
        params = ParamSet({"w0": np.zeros((3, 2)), "b0": np.zeros(2)})
        x = np.array([[1.0, 2.0, 3.0]])
        out, tape = forward(spec, params, x, want_tape=True)
        grads, dx = backward(tape, np.ones_like(out))
        assert np.array_equal(grads["w0"], np.outer(x[0], np.ones(2)))
        assert np.array_equal(grads["b0"], np.ones(2))

    def test_zero_upstream_gives_zero_grads(self):
        spec, params = mlp((4, 5, 2), (T, I), seed=3)
        x = np.random.default_rng(5).normal(size=(6, 4))
        out, tape = forward(spec, params, x, want_tape=True)
        grads, dx = backward(tape, np.zeros_like(out))
        assert all(np.array_equal(grads[n], np.zeros_like(grads[n]))
                   for n in grads.names)
        assert np.array_equal(dx, np.zeros_like(x))

    def test_mismatched_upstream_is_internal_error(self):
        spec, params = mlp((4, 2), (I,))
        _, tape = forward(spec, params, np.ones((3, 4)), want_tape=True)
        with pytest.raises(InternalError):
            backward(tape, np.ones((3, 5)))

    @pytest.mark.parametrize("acts", [(T, I), (R, I), (R, T)])
    def test_gradients_match_finite_differences(self, acts):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = MlpSpec((4, 5, 3), tuple(acts))
            params = init_mlp_params(spec, rng)
            x = rng.normal(size=(6, 4))
            target = rng.normal(size=(6, 3))

            def loss_at(p):
                out = forward(spec, p, x)
                return 0.5 * float(np.sum((out - target) ** 2))

            out, tape = forward(spec, params, x, want_tape=True)
            grads, dx = backward(tape, out - target)
            fd = finite_difference_params(loss_at, params)
            assert max_relative_error_params(grads, fd) < 1e-4

            fd_x = finite_difference(
                lambda xx: 0.5 * float(np.sum((forward(spec, params, xx)
                                               - target) ** 2)), x)
            assert max_relative_error(dx, fd_x) < 1e-4


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 9), min_size=2,
                                           max_size=4),
       st.lists(st.sampled_from(kernels.VALID_ACTIVATIONS), min_size=3,
                max_size=3),
       st.sampled_from([(), (1,), (3,)]), st.integers(1, 20))
def test_backward_without_input_grad(seed, widths, acts, lead, rows):
    # the same gradient bits, and no input gradient
    rng = np.random.default_rng(seed)
    spec = MlpSpec(tuple(widths), tuple(acts[:len(widths) - 1]))
    params = stack_params(init_mlp_params(spec, rng)
                          for _ in range(lead[0])) if lead \
        else init_mlp_params(spec, rng)
    x = rng.normal(size=lead + (rows, spec.in_width))
    out, tape = forward(spec, params, x, want_tape=True)
    upstream = rng.normal(size=out.shape)
    grads, dx = backward(tape, upstream)
    skipped, none = backward(tape, upstream, input_grad=False)
    assert none is None and dx.shape == x.shape
    assert same_param_bits(grads, skipped)
    assert grads.layout is params.layout
    assert grads.stack_shape == params.stack_shape


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 12), min_size=2,
                                           max_size=4),
       st.lists(st.sampled_from(kernels.VALID_ACTIVATIONS), min_size=3,
                max_size=3),
       st.integers(1, 6), st.integers(1, 70))
def test_forward_runs_a_broadcast_batch_in_place(seed, widths, acts, g,
                                                 rows):
    # a 2-d batch broadcast over a stack of g networks is read where it
    # lies and gives the bits of its materialized copy, forward and
    # backward
    rng = np.random.default_rng(seed)
    spec = MlpSpec(tuple(widths), tuple(acts[:len(widths) - 1]))
    params = stack_params(init_mlp_params(spec, rng) for _ in range(g))
    x = rng.normal(size=(rows, spec.in_width))
    out, tape = forward(spec, params,
                        np.broadcast_to(x, (g,) + x.shape), want_tape=True)
    dense_out, dense_tape = forward(spec, params, np.tile(x, (g, 1, 1)),
                                    want_tape=True)
    assert np.shares_memory(tape.records[0], x)
    assert same_bits(out, dense_out)
    upstream = rng.normal(size=out.shape)
    grads, dx = backward(tape, upstream)
    dense_grads, dense_dx = backward(dense_tape, upstream)
    assert same_param_bits(grads, dense_grads)
    assert same_bits(dx, dense_dx)


def test_forward_copies_a_batch_gemm_cannot_read_in_place():
    spec, params = mlp([3, 4, 2], [T, I])
    wide = np.random.default_rng(1).normal(size=(5, 6))
    out, tape = forward(spec, params, wide[:, ::2], want_tape=True)
    assert not np.shares_memory(tape.records[0], wide)
    assert tape.records[0].flags.c_contiguous
    assert same_bits(out, forward(spec, params,
                                  np.ascontiguousarray(wide[:, ::2])))


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax(np.zeros((1, 3)))
        assert np.array_equal(out, np.full((1, 3), 1.0) / 3.0)

    def test_masked_row_is_one_hot(self):
        out = softmax(np.array([[4.2, -np.inf, -np.inf]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_hand_computed_ratio(self):
        out = softmax(np.array([[2.0, 1.0, 0.5]]))
        denom = math.exp(0.0) + math.exp(-1.0) + math.exp(-1.5)
        expect = [math.exp(0.0) / denom, math.exp(-1.0) / denom,
                  math.exp(-1.5) / denom]
        np.testing.assert_allclose(out[0], expect, rtol=1e-15)

    def test_all_masked_row_rejected(self):
        with pytest.raises(InternalError):
            softmax(np.array([[1.0, 2.0], [-np.inf, -np.inf]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_shift_invariance_and_row_sums(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 5)) * 5.0
        shift = rng.normal() * 10.0
        a = softmax(z)
        b = softmax(z + shift)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 4))

        def loss_at(zz):
            return 0.5 * float(np.sum((softmax(zz) - target) ** 2))

        p = softmax(z)
        dz = softmax_backward(p, p - target)
        fd = finite_difference(loss_at, z)
        assert max_relative_error(dz, fd) < 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 70),
       st.integers(1, 12))
def test_stacked_softmax_backward_matches_per_slice(seed, g, rows, width):
    rng = np.random.default_rng(seed)
    probs = kernels.softmax_rows(3.0 * rng.normal(size=(g, rows, width)))
    dprobs = rng.normal(size=(g, rows, width))
    out = softmax_backward(probs, dprobs)
    for c in range(g):
        assert np.array_equal(out[c], softmax_backward(probs[c], dprobs[c]))


class TestStackParams:
    def test_round_trip_and_shapes(self):
        sets = [mlp((3, 2), (I,), seed=s)[1] for s in range(3)]
        stacked = stack_params(sets)
        assert stacked["w0"].shape == (3, 3, 2)
        assert stacked["b0"].shape == (3, 2)
        assert unstack_params(stacked) == sets

    def test_incompatible_sets_rejected(self):
        with pytest.raises(ConfigError):
            stack_params([mlp((3, 2), (I,))[1], mlp((3, 4), (I,))[1]])


class TestCrossEntropy:
    def test_symmetric_pair_gives_log_two(self):
        loss, _ = cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(loss - math.log(2.0)) < 1e-15

    def test_saturated_logits_give_near_zero_loss(self):
        loss, _ = cross_entropy(np.array([[30.0, -30.0]]), np.array([0]))
        assert 0.0 <= loss < 1e-10

    def test_gradient_formula(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        _, grad = cross_entropy(z, y)
        probs = softmax(z)
        onehot = np.zeros_like(z)
        onehot[np.arange(6), y] = 1.0
        np.testing.assert_allclose(grad, (probs - onehot) / 6.0, rtol=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(DataError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 70),
           st.integers(1, 12))
    def test_stacked_matches_per_slice(self, seed, g, rows, classes):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(g, rows, classes)) * 5.0
        y = rng.integers(0, classes, size=(g, rows))
        loss, grad = cross_entropy(z, y)
        assert loss.shape == (g,)
        for c in range(g):
            single_loss, single_grad = cross_entropy(z[c], y[c])
            assert loss[c] == single_loss
            assert np.array_equal(grad[c], single_grad)

    def test_stacked_labels_must_line_up(self):
        with pytest.raises(DataError):
            cross_entropy(np.zeros((2, 3, 4)), np.zeros(3, dtype=int))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.normal(size=(5, 4)) * 2.0
            y = rng.integers(0, 4, size=5)
            _, grad = cross_entropy(z, y)
            fd = finite_difference(lambda zz: cross_entropy(zz, y)[0], z)
            assert max_relative_error(grad, fd) < 1e-4


class TestSgdStep:
    def test_basic_step(self):
        p = ParamSet({"w": np.array([1.0])})
        g = ParamSet({"w": np.array([1.0])})
        out = sgd_step(p, g, lr=0.1)
        assert np.array_equal(out["w"], [0.9])

    def test_zero_gradient_is_identity(self):
        p = ParamSet({"w": np.array([1.0, -2.0])})
        g = ParamSet({"w": np.zeros(2)})
        assert sgd_step(p, g, lr=0.5) == p

    def test_pure(self):
        p = ParamSet({"w": np.array([1.0])})
        g = ParamSet({"w": np.array([0.3])})
        a = sgd_step(p, g, 0.1)
        b = sgd_step(p, g, 0.1)
        assert a == b
        assert np.array_equal(p["w"], [1.0])


def _clip_reference(grads, max_norm):
    """The one-network clip written out: Python float sums of np.sum per
    array, math.sqrt, one scalar scale."""
    total = math.sqrt(sum(float(np.sum(a * a)) for _, a in grads.items()))
    if total <= max_norm:
        return grads
    return ParamSet((n, a * (max_norm / total)) for n, a in grads.items())


class TestGradNormalize:
    def test_at_the_boundary_is_identity(self):
        g = ParamSet({"w": np.array([3.0, 4.0])})
        assert grad_normalize(g, 5.0) == g

    def test_scaling(self):
        g = ParamSet({"w": np.array([6.0, 8.0])})
        out = grad_normalize(g, 5.0)
        assert np.array_equal(out["w"], [3.0, 4.0])

    def test_global_norm_spans_tensors(self):
        g = ParamSet({"a": np.array([3.0]), "b": np.array([4.0])})
        out = grad_normalize(g, 1.0)
        # hand computation: norm = sqrt(9 + 16) = 5, scale = 1/5
        np.testing.assert_allclose(out["a"], [0.6], rtol=1e-15)
        np.testing.assert_allclose(out["b"], [0.8], rtol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 12),
           st.integers(1, 12))
    def test_stacked_clips_each_slice_by_its_own_norm(self, seed, g, rows,
                                                      cols):
        # max_norm is slice 0's own norm, so slice 0 sits at the bound and
        # the others, rescaled, fall above or below it; a zero slice too
        rng = np.random.default_rng(seed)
        sets = [ParamSet({"w0": rng.normal(size=(rows, cols)),
                          "b0": rng.normal(size=cols)})
                for _ in range(g)]
        factors = [1.0] + [float(f) for f in
                           rng.choice([0.0, 0.25, 0.999, 1.001, 4.0],
                                      size=g - 1)]
        sets = [ParamSet((n, f * a) for n, a in ps.items())
                for f, ps in zip(factors, sets)]
        norm = math.sqrt(sum(float(np.sum(a * a))
                             for _, a in sets[0].items()))
        out = unstack_params(grad_normalize(stack_params(sets), norm))
        for stacked, single in zip(out, sets):
            assert stacked == _clip_reference(single, norm)
            assert grad_normalize(single, norm) == _clip_reference(single,
                                                                   norm)
        assert out[0] == sets[0]


# The flat-buffer arithmetic against the per-array bodies it replaced
# (tests/oracles.py), bit for bit, on one network and on stacks.

def _random_set(rng, widths, g, special=None):
    lead = () if g is None else (g,)
    arrays = {}
    for layer, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        arrays[f"w{layer}"] = rng.normal(size=lead + (fan_in, fan_out))
        arrays[f"b{layer}"] = rng.normal(size=lead + (fan_out,))
    if special is not None:
        name = list(arrays)[rng.integers(len(arrays))]
        flat = arrays[name].reshape(-1)
        flat[rng.integers(flat.size)] = special
    return param_set(arrays, g is not None)


param_shapes = st.tuples(
    st.integers(0, 2**31 - 1),
    st.lists(st.integers(1, 9), min_size=2, max_size=4),
    st.sampled_from([None, 1, 2, 5]))
specials = st.sampled_from([None, None, np.nan, np.inf, -np.inf, 0.0])


@settings(max_examples=80, deadline=None)
@given(param_shapes, specials, st.sampled_from([0.1, 0.37, 1.0, 1e-300]))
def test_flat_sgd_step_and_add_match_per_array(shape, special, lr):
    seed, widths, g = shape
    rng = np.random.default_rng(seed)
    params = _random_set(rng, widths, g)
    grads = _random_set(rng, widths, g, special)
    before = (params.flat.copy(), grads.flat.copy())
    # a NaN or infinite gradient entry gives NaN (inf - inf) updates
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_param_bits(sgd_step(params, grads, lr),
                               per_array_sgd_step(params, grads, lr))
        assert same_param_bits(add_params(params, grads),
                               per_array_add_params(params, grads))
    # pure: neither input buffer was written
    assert same_bits(params.flat, before[0])
    assert same_bits(grads.flat, before[1])


@settings(max_examples=120, deadline=None)
@given(param_shapes, specials, st.sampled_from([0.5, 1.0, 2.0]),
       st.lists(st.sampled_from([0.0, 0.25, 1.0, 4.0]), min_size=5,
                max_size=5))
def test_flat_grad_normalize_matches_per_array(shape, special, factor,
                                               slice_scales):
    # max_norm is slice 0's own norm times factor, so slice 0 sits above,
    # at or below the bound; the other slices are rescaled copies, one of
    # them perhaps zero; a NaN or infinite entry gives a NaN or infinite
    # norm
    seed, widths, g = shape
    rng = np.random.default_rng(seed)
    grads = _random_set(rng, widths, g, special)
    # an infinite entry times a zero slice scale, or its slice's clip
    # scale of 0, is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if g is not None:
            grads = param_set(
                ((n, a * np.reshape(slice_scales[:g],
                                    (g,) + (1,) * (a.ndim - 1)))
                 for n, a in grads.items()), True)
        first = grads.flat if g is None else grads.flat[0]
        norm = float(np.sqrt(np.sum(first * first)))
        max_norm = norm * factor if 0.0 < norm < np.inf else factor
        out = grad_normalize(grads, max_norm)
        assert same_param_bits(out,
                               per_array_grad_normalize(grads, max_norm))
        if g is not None:
            for stacked, single in zip(unstack_params(out),
                                       unstack_params(grads)):
                assert same_param_bits(stacked,
                                       grad_normalize(single, max_norm))


@settings(max_examples=120, deadline=None)
@given(param_shapes,
       st.sampled_from([1 - 2**-19, 1 - 2**-21, 1 - 2**-45, 1.0, 1 + 2**-45,
                        1 + 2**-21]),
       st.sampled_from([1.0, 1e-160, 1e160]))
def test_grad_normalize_near_the_bound_matches_per_array(shape, factor,
                                                         magnitude):
    # the bound within a relative 2**-19 of the set's norm, on both sides,
    # where one sum of the whole buffer must not decide alone; gradients
    # of 1e-160 give subnormal squares and a subnormal squared bound, and
    # gradients of 1e160 overflow their squares under a finite bound
    seed, widths, g = shape
    rng = np.random.default_rng(seed)
    grads = _random_set(rng, widths, g)
    first = grads.flat if g is None else grads.flat[0]
    max_norm = float(np.sqrt(np.sum(first * first))) * factor * magnitude
    grads = param_set(((n, a * magnitude) for n, a in grads.items()),
                      g is not None)
    # gradients of 1e160 overflow their squares
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_param_bits(grad_normalize(grads, max_norm),
                               per_array_grad_normalize(grads, max_norm))


def test_grad_normalize_at_the_dot_product_bound_matches_per_array():
    """max_norm at the square root of the buffer's dot product and at
    its two float neighbours, where that dot product and the per-array
    sums disagree in their last bits: the (1 - 2**-20) margin must send
    every such set to the per-array sums (a margin of 1 lets 84 of these
    600 cases return unclipped where the per-array norm clips)."""
    widths = [32, 16, 10]
    for seed in range(200):
        grads = _random_set(np.random.default_rng(seed), widths, None)
        c = float(np.sqrt(np.einsum("i,i->", grads.flat, grads.flat)))
        for max_norm in (np.nextafter(c, 0.0), c, np.nextafter(c, np.inf)):
            assert same_param_bits(grad_normalize(grads, max_norm),
                                   per_array_grad_normalize(grads,
                                                            max_norm))


@settings(max_examples=60, deadline=None)
@given(param_shapes, st.integers(1, 5),
       st.lists(st.sampled_from([1.0, 3.0, 17.0, 500.0, 0.0]), min_size=5,
                max_size=5))
def test_flat_fedavg_matches_per_array(shape, count, weights):
    seed, widths, g = shape
    rng = np.random.default_rng(seed)
    sets = [_random_set(rng, widths, g) for _ in range(count)]
    weights = [1.0] + weights[:count - 1]
    assert same_param_bits(fedavg(sets, weights),
                           per_array_fedavg(sets, weights))


@settings(max_examples=60, deadline=None)
@given(param_shapes, st.integers(1, 5))
def test_flat_stack_and_unstack_match_per_array(shape, count):
    seed, widths, _ = shape
    rng = np.random.default_rng(seed)
    sets = [_random_set(rng, widths, None) for _ in range(count)]
    stack = stack_params(sets)
    assert same_param_bits(stack, per_array_stack_params(sets))
    for flat_slice, per_array, single in zip(
            unstack_params(stack), per_array_unstack_params(stack), sets):
        assert same_param_bits(flat_slice, per_array)
        assert same_param_bits(flat_slice, single)
        assert params_digest(flat_slice) == params_digest(single)
    assert params_digest(stack) == params_digest(
        per_array_stack_params(sets))


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(12)
        p = ParamSet({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)})
        q = decode_params(encode_params(p))
        assert p == q


def test_init_is_deterministic():
    spec = MlpSpec((4, 8, 2), (R, I))
    a = init_mlp_params(spec, np.random.default_rng(42))
    b = init_mlp_params(spec, np.random.default_rng(42))
    assert a == b


def test_spec_validation():
    with pytest.raises(ConfigError):
        MlpSpec((4,), ())
    with pytest.raises(ConfigError):
        MlpSpec((4, 0), (I,))
    with pytest.raises(ConfigError):
        MlpSpec((4, 2), (I, I))
    with pytest.raises(ConfigError):
        MlpSpec((4, 2), (9,))


def test_chain_specs_runs_second_after_first():
    first = MlpSpec((4, 6, 3), (R, T))
    second = MlpSpec((3, 5, 2), (T, I))
    chain = chain_specs(first, second)
    assert chain == MlpSpec((4, 6, 3, 5, 2), (R, T, T, I))
    # first's parameters fill the chain's first first.layout.size scalars
    # and second's, in second's layout, the rest
    assert chain.layout.shapes == first.layout.shapes + second.layout.shapes
    assert chain.layout.size == first.layout.size + second.layout.size
    rng = np.random.default_rng(3)
    a = init_mlp_params(first, rng)
    b = init_mlp_params(second, rng)
    both = ParamSet.from_flat(chain.layout, np.concatenate([a.flat, b.flat]))
    x = rng.normal(size=(9, 4))
    assert same_bits(forward(chain, both, x),
                     forward(second, b, forward(first, a, x)))
    with pytest.raises(ConfigError, match="input width 4 does not match "
                                          "the output width 3"):
        chain_specs(first, MlpSpec((4, 2), (I,)))
