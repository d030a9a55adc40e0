"""Kernel fixtures, and stacked dense layers against per-slice 2-d calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmoe.kernels as K
from nmoe.federated import TILE
from nmoe.numerics import MlpSpec, forward, init_mlp_params
from oracles import dense_backward_expr, dense_forward_expr, same_bits

RNG = np.random.default_rng(20240817)

FORWARD = [("numpy", K.dense_forward)]
SOFTMAX = [("numpy", K.softmax_rows)]
TOPK = [("numpy", K.topk_indices)]
COMBINE = [("numpy", K.combine_topk)]


def ids(impls):
    return [name for name, _ in impls]


@pytest.mark.parametrize("impl", [f for _, f in FORWARD], ids=ids(FORWARD))
def test_dense_forward_identity_and_relu(impl):
    x = np.array([[-1.0, 3.0]])
    w = np.eye(2)
    b = np.zeros(2)
    assert np.array_equal(impl(x, w, b, K.ACT_IDENTITY), [[-1.0, 3.0]])
    assert np.array_equal(impl(x, w, b, K.ACT_RELU), [[0.0, 3.0]])
    assert np.allclose(impl(x, w, b, K.ACT_TANH), np.tanh([[-1.0, 3.0]]),
                       rtol=1e-15)


@pytest.mark.parametrize("impl", [f for _, f in FORWARD], ids=ids(FORWARD))
def test_dense_forward_bias(impl):
    x = np.zeros((3, 4))
    w = RNG.normal(size=(4, 2))
    b = np.array([0.5, -2.0])
    out = impl(x, w, b, K.ACT_IDENTITY)
    assert np.array_equal(out, np.tile(b, (3, 1)))


@pytest.mark.parametrize("impl", [f for _, f in SOFTMAX], ids=ids(SOFTMAX))
def test_softmax_rows_fixtures(impl):
    out = impl(np.array([[0.0, 0.0, 0.0]]))
    assert np.array_equal(out, np.full((1, 3), 1.0) / 3.0)

    for a in (-5.0, 0.0, 17.5):
        out = impl(np.array([[a, -np.inf, -np.inf]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("impl", [f for _, f in SOFTMAX], ids=ids(SOFTMAX))
def test_softmax_rows_sum_to_one(impl):
    z = RNG.normal(size=(20, 6)) * 10.0
    out = impl(z)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert (out >= 0.0).all()


@pytest.mark.parametrize("impl", [f for _, f in TOPK], ids=ids(TOPK))
def test_topk_tie_breaking(impl):
    # Equal values must resolve toward the lowest index.
    z = np.array([[1.0, 1.0, 1.0],
                  [2.0, 2.0, 1.0],
                  [1.0, 2.0, 2.0],
                  [-np.inf, -np.inf, -np.inf]])
    idx = impl(z, 2)
    assert idx.tolist() == [[0, 1], [0, 1], [1, 2], [0, 1]]


@pytest.mark.parametrize("impl", [f for _, f in TOPK], ids=ids(TOPK))
def test_topk_descending_order(impl):
    z = RNG.normal(size=(30, 8))
    idx = impl(z, 5)
    picked = np.take_along_axis(z, idx, axis=1)
    assert (np.diff(picked, axis=1) <= 0).all()
    # distinct indices per row
    assert all(len(set(row)) == 5 for row in idx.tolist())


@pytest.mark.parametrize("impl", [f for _, f in COMBINE], ids=ids(COMBINE))
def test_combine_topk_single_slot(impl):
    all_logits = RNG.normal(size=(3, 5, 4))
    idx = np.array([[0], [2], [1], [1], [0]], dtype=np.int64)
    w = np.ones((5, 1))
    out = impl(all_logits[idx.T, np.arange(5)], w)
    expect = np.stack([all_logits[e, i] for i, e in enumerate(idx[:, 0])])
    assert np.array_equal(out, expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 20),
       st.integers(1, 6))
def test_combine_topk_adds_slots_in_order_from_zero(seed, slots, rows,
                                                    classes):
    # magnitudes 30 decades apart make the sum depend on its order, and
    # zeros of either sign on the order's start
    rng = np.random.default_rng(seed)
    chosen = rng.normal(size=(slots, rows, classes)) \
        * 10.0 ** rng.integers(-15, 16, size=(slots, rows, classes))
    chosen[rng.random(size=chosen.shape) < 0.2] = -0.0
    weights = rng.random(size=(rows, slots))
    expect = np.zeros((rows, classes))
    for s in range(slots):
        expect += weights[:, s, None] * chosen[s]
    assert same_bits(K.combine_topk(chosen, weights), expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 70),
       st.integers(1, 12), st.integers(1, 12),
       st.sampled_from(K.VALID_ACTIVATIONS))
def test_stacked_dense_matches_per_slice(seed, g, rows, fan_in, fan_out,
                                         act):
    # one (g, rows, width) call must give every slice the exact bits of
    # the 2-d call on that slice
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(g, rows, fan_in))
    w = rng.normal(size=(g, fan_in, fan_out))
    b = rng.normal(size=(g, fan_out))
    dout = rng.normal(size=(g, rows, fan_out))
    out = K.dense_forward(x, w, b, act)
    dx, dw, db = K.dense_backward(x, w, out, dout, act)
    for c in range(g):
        out_c = K.dense_forward(x[c], w[c], b[c], act)
        assert np.array_equal(out[c], out_c)
        for stacked, single in zip(
                (dx, dw, db), K.dense_backward(x[c], w[c], out_c, dout[c],
                                               act)):
            assert np.array_equal(stacked[c], single)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([(), (1,), (4,)]),
       st.sampled_from([1, 2, 3, 5, 16, 17, 48]), st.integers(1, 40),
       st.integers(1, 40), st.sampled_from(K.VALID_ACTIVATIONS))
def test_dense_layer_matches_its_expressions(seed, lead, rows, fan_in,
                                             fan_out, act):
    # the in-place bias add, the one-buffer tanh derivative, dout read as
    # is and dw, db written into views of a flat gradient buffer give the
    # bits of the plain expressions (tests/oracles.py)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (rows, fan_in))
    # w and b as strided views of a (g, P) buffer, as a stack holds them
    params = rng.normal(size=lead + (3 + fan_in * fan_out + fan_out,))
    w = params[..., 3:3 + fan_in * fan_out].reshape(lead + (fan_in, fan_out))
    b = params[..., 3 + fan_in * fan_out:]
    dout = rng.normal(size=lead + (rows, fan_out))
    out = K.dense_forward(x, w, b, act)
    assert same_bits(out, dense_forward_expr(x, w, b, act))
    expect = dense_backward_expr(x, w, out, dout, act)
    for got in K.dense_backward(x, w, out, dout, act), \
            _into_buffer(x, w, out, dout, act):
        assert all(same_bits(a, e) for a, e in zip(got, expect))
    dx, dw, db = K.dense_backward(x, w, out, dout, act, input_grad=False)
    assert dx is None
    assert same_bits(dw, expect[1]) and same_bits(db, expect[2])


def _into_buffer(x, w, out, dout, act):
    lead, (fan_in, fan_out) = w.shape[:-2], w.shape[-2:]
    flat = np.full(lead + (fan_in * fan_out + fan_out + 2,), np.nan)
    dw = flat[..., 1:1 + fan_in * fan_out].reshape(w.shape)
    db = flat[..., 1 + fan_in * fan_out:-1]
    dx, dw_out, db_out = K.dense_backward(x, w, out, dout, act, dw=dw, db=db)
    assert dw_out is dw and db_out is db
    # nothing outside the two spans was written
    assert np.isnan(flat[..., 0]).all() and np.isnan(flat[..., -1]).all()
    return dx, dw, db


# The row-wise kernels on a (g, rows, width) stack against one 2-d call per
# slice; finite inputs must raise no numpy warning on either path.

@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 70),
       st.integers(1, 12), st.sampled_from([0.1, 1.0, 30.0]))
def test_stacked_softmax_rows_matches_per_slice(seed, g, rows, width, scale):
    z = scale * np.random.default_rng(seed).normal(size=(g, rows, width))
    out = K.softmax_rows(z)
    for c in range(g):
        assert np.array_equal(out[c], K.softmax_rows(z[c]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 40),
       st.integers(1, 12), st.data())
def test_stacked_topk_indices_matches_per_slice(seed, g, rows, width, data):
    # few distinct values make ties common; some entries and whole rows
    # are +-inf
    rng = np.random.default_rng(seed)
    z = rng.integers(-2, 3, size=(g, rows, width)).astype(np.float64)
    z[rng.random(size=z.shape) < 0.1] = np.inf
    z[rng.random(size=z.shape) < 0.1] = -np.inf
    z[:, rng.random(size=rows) < 0.1] = -np.inf
    k = data.draw(st.integers(1, width))
    idx = K.topk_indices(z, k)
    assert idx.shape == (g, rows, k)
    for c in range(g):
        assert np.array_equal(idx[c], K.topk_indices(z[c], k))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 8),
       st.integers(1, 40), st.integers(1, 10), st.data())
def test_stacked_combine_topk_matches_per_slice(seed, g, experts, rows,
                                               classes, data):
    rng = np.random.default_rng(seed)
    slots = data.draw(st.integers(1, experts))
    logits = rng.normal(size=(g, experts, rows, classes))
    idx = np.argsort(rng.random(size=(g, rows, experts)),
                     axis=-1)[..., :slots]
    weights = rng.random(size=(g, rows, slots))
    chosen = logits[np.arange(g)[:, None, None], idx.swapaxes(-1, -2),
                    np.arange(rows)]
    out = K.combine_topk(chosen, weights)
    assert out.shape == (g, rows, classes)
    for c in range(g):
        assert np.array_equal(out[c], K.combine_topk(chosen[c], weights[c]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([(), (1,), (3,), (6,)]),
       st.integers(1, 40), st.integers(1, 12))
def test_top1_matches_stable_sort(seed, lead, rows, width):
    # the k = 1 path against the stable argsort it stands in for, on 2-d
    # rows and (g, rows, width) stacks: ties, +-inf, -0.0 next to 0.0,
    # NaN entries and whole NaN rows
    rng = np.random.default_rng(seed)
    shape = (*lead, rows, width)
    z = rng.integers(-2, 3, size=shape).astype(np.float64)
    z[(z == 0.0) & (rng.random(size=shape) < 0.5)] = -0.0
    for value in (np.inf, -np.inf, np.nan):
        z[rng.random(size=shape) < 0.08] = value
    z[..., rng.random(size=rows) < 0.1, :] = np.nan
    expect = np.argsort(-z, axis=-1, kind="stable")[..., :1]
    assert np.array_equal(K.topk_indices(z, 1), expect)


# The routed expert forwards of FedGate rest on one property of the BLAS:
# a block padded to a multiple of TILE rows, and a forward over a shard's
# last TILE + n mod TILE rows, give each of their rows the bits of a
# forward over the whole shard. A BLAS build without it fails here. The
# latents are 32 wide, as in the reference configs: on OpenBLAS's SkylakeX
# kernels a narrow input (8 wide) hides the leftover-row difference.
def tile_spec(depth: int, classes: int) -> MlpSpec:
    if depth == 1:
        return MlpSpec((32, classes), (K.ACT_IDENTITY,))
    return MlpSpec((32, 32, classes), (K.ACT_TANH, K.ACT_IDENTITY))


def padded_forward(spec, params, x, rows):
    """forward on x[rows] padded to a multiple of TILE rows by repeating
    the last one, cut back to len(rows) rows."""
    block = np.concatenate([rows, np.repeat(rows[-1], -rows.size % TILE)])
    return forward(spec, params, x[block])[:rows.size]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 45, 47, 60, 65, 500])
@pytest.mark.parametrize("classes", [3, 10, 40])
def test_tile_blocks_reproduce_full_forward(classes, n, depth):
    rng = np.random.default_rng(1000 * n + classes + depth)
    spec = tile_spec(depth, classes)
    params = init_mlp_params(spec, rng)
    x = rng.normal(size=(n, 32))
    full = forward(spec, params, x)
    main = TILE * (n // TILE)
    start = max(0, main - TILE)
    assert np.array_equal(forward(spec, params, x[start:])[main - start:],
                          full[main:])
    if main == 0:
        return
    # every one-row block (a sample of them on long shards), then random
    # subsets of the aligned rows in random order
    for r in rng.permutation(main)[:64]:
        assert np.array_equal(padded_forward(spec, params, x, np.array([r])),
                              full[r:r + 1])
    for size in (2, 3, 5, 15, 16, 17, 33, main):
        rows = rng.choice(main, size=min(size, main), replace=False)
        assert np.array_equal(padded_forward(spec, params, x, rows),
                              full[rows])
