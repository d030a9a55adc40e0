"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct formulas)
so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np

from nmoe.numerics import ParamSet


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


def load_balance_all_columns(probs: np.ndarray, multiplier=None):
    """Balance loss multiplier * sum_j f_j * P_j and its gradient, with
    every one of the m columns summed exactly, routed or not."""
    n, m = probs.shape
    mult = float(m if multiplier is None else multiplier)
    f = np.zeros(m)
    for i in range(n):
        f[int(np.argmax(probs[i]))] += 1.0
    f /= n
    col_mean = np.array([math.fsum(probs[:, j]) for j in range(m)]) / n
    loss = mult * math.fsum(f[j] * col_mean[j] for j in range(m))
    return loss, np.tile(mult * f / n, (n, 1))
