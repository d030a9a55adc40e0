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
    dw = np.matmul(np.swapaxes(x, -1, -2), dpre, out=dw)
    db = np.sum(dpre, axis=-2, out=db)
    dx = dpre @ np.swapaxes(w, -1, -2) if input_grad else None
    return dx, dw, db


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of (..., rows, width)."""
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / s


def topk_indices(z: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, largest
    first."""
    if k > 1:
        return _sorted_topk(z, k)
    # argmax breaks ties toward the lowest index as the sort does, but it
    # ranks NaN first where the sort ranks it last: a row holding a NaN
    # picks one, and only those rows go through the sort
    top = np.argmax(z, axis=-1)[..., None]
    nan = np.isnan(np.take_along_axis(z, top, axis=-1)[..., 0])
    if nan.any():
        top[nan] = _sorted_topk(z[nan], 1)
    return top


def _sorted_topk(z: np.ndarray, k: int) -> np.ndarray:
    # Stable sort of the negated row keeps equal values in input order,
    # which breaks ties at the boundary toward the lowest index.
    order = np.argsort(-z, axis=-1, kind="stable")
    return np.ascontiguousarray(order[..., :k])


def combine_topk(all_logits: np.ndarray, idx: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Each row's slots weighted and summed, slot by slot: all_logits
    (..., experts, rows, classes) with idx and weights (..., rows, slots)
    of the same leading shape give (..., rows, classes)."""
    *lead, n, slots = idx.shape
    out = np.zeros((*lead, n, all_logits.shape[-1]))
    stack = tuple(a[..., None] for a in np.indices(lead, sparse=True))
    rows = np.arange(n)
    for s in range(slots):
        out += weights[..., s, None] * all_logits[(*stack, idx[..., s], rows)]
    return out
