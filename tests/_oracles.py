"""Shared independent oracles for the test suite.

These deliberately avoid the library's tape machinery: finite differences
probe gradients, and the straight-line forward below re-evaluates the
separable layer with plain numpy, step by step.
"""

from __future__ import annotations

import numpy as np

FD_H = 1e-5


def central_diff(loss_fn, param: np.ndarray, i: int, j: int, h: float = FD_H) -> float:
    """Central finite difference of a scalar loss w.r.t. one parameter entry."""
    orig = param[i, j]
    param[i, j] = orig + h
    plus = loss_fn()
    param[i, j] = orig - h
    minus = loss_fn()
    param[i, j] = orig
    return (plus - minus) / (2.0 * h)


def rel_err(analytic: float, fd: float, floor: float = 1e-4) -> float:
    """Relative error with a floor so near-zero gradients compare on FD noise scale."""
    return abs(analytic - fd) / max(abs(analytic), abs(fd), floor)


def scalar_softmax(values) -> list[float]:
    """Plain exp/sum softmax over a sequence of floats."""
    m = max(values)
    exps = [np.exp(v - m) for v in values]
    s = sum(exps)
    return [float(e / s) for e in exps]


def mask_then_softmax(values, k: int) -> list[float]:
    """Exhaustive-sort top-k mask (ties to lowest index) followed by softmax."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    kept = set(order[:k])
    out = [0.0] * len(values)
    sub = scalar_softmax([values[i] for i in sorted(kept)])
    for pos, i in enumerate(sorted(kept)):
        out[i] = sub[pos]
    return out


def straight_line_smolora(
    W0: np.ndarray,
    vu_A: list[np.ndarray],
    vu_B: list[np.ndarray],
    if_A: list[np.ndarray],
    if_B: list[np.ndarray],
    R_vu: np.ndarray,
    R_if: np.ndarray,
    I_vu: np.ndarray,
    I_if: np.ndarray,
    top_k: int,
    x: np.ndarray,
    emb: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Separable-layer forward evaluated step by step with plain numpy."""
    avg = x.mean(axis=1, keepdims=True)
    vu_gate = np.array(mask_then_softmax(list((R_vu @ avg)[:, 0]), top_k))
    if_gate = np.array(mask_then_softmax(list((R_if @ emb)[:, 0]), top_k))
    x_vu = np.zeros((W0.shape[0], x.shape[1]))
    for g, A, B in zip(vu_gate, vu_A, vu_B):
        x_vu += g * scale * (B @ (A @ x))
    x_if = np.zeros((W0.shape[0], x.shape[1]))
    for g, A, B in zip(if_gate, if_A, if_B):
        x_if += g * scale * (B @ (A @ x))
    u = I_vu @ x_vu
    v = I_if @ x_if
    fused = np.zeros_like(x_vu)
    for t in range(x.shape[1]):
        alpha, beta = scalar_softmax([u[0, t], v[0, t]])
        fused[:, t] = alpha * x_vu[:, t] + beta * x_if[:, t]
    return W0 @ x + fused
