"""Dense compute kernels in numpy.

dense_forward and dense_backward take inputs of shape (..., rows, width)
with parameters of matching leading shape: one layer of g independent
networks runs as one batched matmul over a (g, rows, width) stack. On
2-d inputs they are the plain single-network layer, and each slice of a
stacked call is bitwise equal to the 2-d call on that slice. The row-wise
kernels (softmax_rows, topk_indices, combine_topk) work along the last
axis and take the same leading stack axes, with the same per-slice
guarantee.
"""

from __future__ import annotations

import numpy as np

# Activation identifiers used across the package.
ACT_IDENTITY = 0
ACT_RELU = 1
ACT_TANH = 2

VALID_ACTIVATIONS = (ACT_IDENTITY, ACT_RELU, ACT_TANH)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  act: int) -> np.ndarray:
    """act(x @ w + b) for x (..., rows, in), w (..., in, out), b (..., out)."""
    out = x @ w
    out += b[..., None, :]
    if act == ACT_RELU:
        np.maximum(out, 0.0, out=out)
    elif act == ACT_TANH:
        np.tanh(out, out=out)
    return out


def dense_backward(x: np.ndarray, w: np.ndarray, out: np.ndarray,
                   dout: np.ndarray, act: int, *, dw: np.ndarray | None = None,
                   db: np.ndarray | None = None, input_grad: bool = True):
    """(dx, dw, db) of dense_forward given its output and the gradient on
    that output; dw and db keep the leading shape of w and b. Given dw
    and db arrays (views into a gradient buffer), the products are
    written there. With input_grad=False dx is not computed and is None.
    """
    if act == ACT_RELU:
        # out > 0 iff the pre-activation was > 0; the kink at 0 gets slope 0
        dpre = np.where(out > 0.0, dout, 0.0)
    elif act == ACT_TANH:
        dpre = out * out
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dout
    else:
        dpre = dout
    dw = np.matmul(x.swapaxes(-1, -2), dpre, out=dw)
    db = np.add.reduce(dpre, axis=-2, out=db)
    dx = dpre @ w.swapaxes(-1, -2) if input_grad else None
    return dx, dw, db


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of (..., rows, width)."""
    e = z - _row_max(z)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def _row_max(z: np.ndarray) -> np.ndarray:
    """The largest entry of each row along the last axis, (..., 1): NaN
    for a row holding one, as np.max gives it, but read at the row's
    argmax, which numpy finds in a fraction of np.max's time over short
    rows. A row whose largest entries are zeros of both signs may get
    either zero, as np.max itself may, depending on its order."""
    flat = z.reshape(-1)
    at = np.arange(0, flat.size, z.shape[-1]).reshape(z.shape[:-1])
    return flat.take(at + z.argmax(axis=-1))[..., None]


def topk_indices(z: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, largest
    first."""
    if k > 1:
        return _sorted_topk(z, k)
    # argmax breaks ties toward the lowest index as the sort does, but it
    # ranks NaN first where the sort ranks it last: a row holding a NaN
    # picks one, and only those rows go through the sort
    top = z.argmax(axis=-1)[..., None]
    nan = np.isnan(np.take_along_axis(z, top, axis=-1)[..., 0])
    if nan.any():
        top[nan] = _sorted_topk(z[nan], 1)
    return top


def _sorted_topk(z: np.ndarray, k: int) -> np.ndarray:
    # Stable sort of the negated row keeps equal values in input order,
    # which breaks ties at the boundary toward the lowest index.
    order = (-z).argsort(axis=-1, kind="stable")
    return np.ascontiguousarray(order[..., :k])


def combine_topk(chosen: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's picks weighted and summed: chosen (..., slots, rows,
    classes) holds the logits of every row's picks slot by slot, weights
    (..., rows, slots) their weights, of the same leading shape; gives
    (..., rows, classes), summed from zero in slot order."""
    out = np.zeros(chosen.shape[:-3] + chosen.shape[-2:])
    for s in range(weights.shape[-1]):
        out += weights[..., s, None] * chosen[..., s, :, :]
    return out
