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

    def buffers_for(self, name: str, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.first:
            self.first[name] = np.zeros_like(like)
            self.second[name] = np.zeros_like(like)
            self.scratch[name] = (np.empty_like(like), np.empty_like(like))
        return self.first[name], self.second[name]


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """In-place Adam update of every parameter that has a gradient.

    Parameters without a gradient keep their value but their moments still
    decay, matching the usual treatment of momentarily unused parameters.
    Intermediates go to scratch arrays in the order of ``p -= lr * m_hat /
    (sqrt(v_hat) + EPS)``: the same bits, and no allocation after the first step.
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
    for name, p in params.items():
        g = grads.get(name)
        m, v = state.buffers_for(name, p)
        m *= BETA1
        v *= BETA2
        if g is None:
            continue
        a, b = state.scratch[name]
        m += np.multiply(1.0 - BETA1, g, out=a)
        v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=a), out=a)
        np.divide(m, bc1, out=a)                            # m_hat
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)
        p -= np.divide(np.multiply(lr, a, out=a), b, out=a)
