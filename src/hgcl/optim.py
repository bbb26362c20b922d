"""Adam with bias correction, over named parameter arrays."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per parameter: first/second moments and two scratch arrays; the step count."""

    first: dict[str, np.ndarray] = field(default_factory=dict)
    second: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """In-place Adam update of every parameter that has a gradient.

    A None gradient means the forward never reads the parameter, so it has no
    moments to decay (they would stay 0) and gets no state at all; a
    parameter's buffers are made on its first gradient. Intermediates go to
    scratch arrays in the order of ``p -= lr * m_hat / (sqrt(v_hat) + EPS)``:
    the same bits, and no allocation after a parameter's first step.
    """
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    for name, g in grads.items():
        if g is not None and not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'; step aborted")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, g in grads.items():
        if g is None:
            continue
        p = params[name]
        if name not in state.first:
            state.first[name], state.second[name] = np.zeros_like(p), np.zeros_like(p)
            state.scratch[name] = (np.empty_like(p), np.empty_like(p))
        m, v, (a, b) = state.first[name], state.second[name], state.scratch[name]
        m *= BETA1
        v *= BETA2
        m += np.multiply(1.0 - BETA1, g, out=a)
        v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=a), out=a)
        np.divide(m, bc1, out=a)                            # m_hat
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)
        p -= np.divide(np.multiply(lr, a, out=a), b, out=a)
