"""Dense float64 vector/matrix primitives shared by the whole model.

Everything here is a pure function over numpy arrays. All numerics run at
64-bit precision so the finite-difference gradient oracle has enough
headroom to certify hand-derived backward passes.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

Array = np.ndarray
ParamSet = Dict[str, Array]

# Largest double strictly below 1.0; tanh outputs are clamped to keep the
# open-interval (-1, 1) guarantee even where float64 rounds tanh(x) to 1.
_ONE_MINUS = np.nextafter(1.0, 0.0)


def as_vector(x, name: str = "vector") -> Array:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    return v


def tanh_map(v: Array) -> Array:
    """Elementwise tanh, clamped so every output is strictly inside (-1, 1).

    Works on any array shape; saturation at |x| around 19 would otherwise
    round to exactly +-1.0 in float64.
    """
    # asarray: on a 0-d input np.tanh returns a scalar, which cannot be clamped in place
    out = np.asarray(np.tanh(np.asarray(v, dtype=np.float64)))
    # np.clip's bits without its Python wrapper, clamped in place: a large
    # stack makes no second and third copy
    np.maximum(out, -_ONE_MINUS, out=out)
    return np.minimum(out, _ONE_MINUS, out=out)


def masked_softmax(scores: Array, mask: Array) -> Array:
    """Softmax over the unmasked entries only; masked entries are exactly 0.

    scores is one row (M,) or a stack of rows (..., M), any number of
    leading axes. mask is (M,), shared by every row, or any shape that
    broadcasts to scores as (..., M), giving rows masks of their own. Each
    row is normalised on its own, bit for bit as a 1-d call on it with its
    mask, and every row needs a live slot. Masked slots are excluded before
    exponentiation (treated as score -inf), not zeroed afterwards: a null
    slot with a zero key would otherwise soak up e^0 worth of attention mass.
    A NaN or infinite live score makes its whole row NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim < 1:
        raise ValueError(f"scores must have at least one axis, got shape {scores.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape[-1:] and (
            mask.shape[-1:] != scores.shape[-1:] or mask.ndim > scores.ndim
            or any(m not in (1, s) for m, s in zip(mask.shape[::-1], scores.shape[::-1]))):
        raise ValueError(f"mask shape {mask.shape} does not broadcast as (..., M) "
                         f"to scores shape {scores.shape}")
    if not (mask.any() if mask.ndim == 1 else mask.any(axis=-1).all()):
        raise ValueError("masked_softmax requires at least one unmasked slot in every row")
    # a masked slot's -inf exponentiates to exactly 0, which adds nothing to
    # the normaliser, so the bits are those of a softmax over the live slots
    e = np.where(mask, scores, -np.inf)
    e = np.exp(e - e.max(axis=-1, keepdims=True))
    # cumsum adds each row left to right, as a 1-d call does; a stacked sum need not
    return e / np.cumsum(e, axis=-1)[..., -1:]


def _softmax(v: Array) -> Array:
    e = np.exp(v - v.max())
    return e / e.sum()


def _log_sum_exp(v: Array) -> float:
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def softmax(scores: Array) -> Array:
    """Plain max-subtracted softmax over all entries."""
    return _softmax(as_vector(scores, "scores"))


def cross_entropy_loss(logits: Array, label: int) -> float:
    """-log softmax(logits)[label], fused through log-sum-exp."""
    logits = as_vector(logits, "logits")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} logits")
    return _log_sum_exp(logits) - float(logits[label])


def cross_entropy_grad(logits: Array, label) -> Array:
    """d cross_entropy_loss / d logits = softmax(logits) - onehot(label),
    row by row.

    logits is one row (K,) with a label, or rows (..., K) with an int
    array of labels of shape (...), one per row. They must be float64, as
    forward makes them, so they are not converted. Each row's bits are
    those of a one-row call on it.
    """
    label = np.asarray(label)
    if label.shape != logits.shape[:-1]:
        raise ValueError(f"labels of shape {label.shape} for logits of shape {logits.shape}; "
                         f"it takes one label per row")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    grad = e / e.sum(axis=-1, keepdims=True)
    # row by row, so a label out of range fails or wraps within its own row
    for row, k in zip(grad.reshape(-1, grad.shape[-1]), label.reshape(-1)):
        row[k] -= 1.0
    return grad


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> None:
    """In-place p <- p - lr * g over a named set of arrays."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"shape mismatch for {name}: param {p.shape} vs grad {g.shape}")
        p -= lr * g


def finite_diff_grad(loss_fn: Callable[[ParamSet], float], params: ParamSet, eps: float = 1e-5) -> ParamSet:
    """Central-difference gradient of loss_fn at params, entry by entry.

    Perturbs each entry in place and restores it, so loss_fn must read the
    arrays fresh on every call. eps = 1e-5 balances truncation against
    round-off at float64.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for name, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn(params)
            flat[i] = orig - eps
            lo = loss_fn(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
    return grads


def max_relative_error(analytic: ParamSet, numeric: ParamSet) -> float:
    """max over entries of |a - n| / max(1e-8, |a| + |n|)."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
        err = np.abs(a - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
