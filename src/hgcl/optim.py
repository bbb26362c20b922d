"""Adam with bias correction, over named parameter arrays."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers per parameter plus the step counter."""

    first: dict[str, np.ndarray] = field(default_factory=dict)
    second: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def buffers_for(self, name: str, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.first:
            self.first[name] = np.zeros_like(like)
            self.second[name] = np.zeros_like(like)
        return self.first[name], self.second[name]


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """In-place Adam update of every parameter that has a gradient.

    Parameters without a gradient keep their value but their moments still
    decay, matching the usual treatment of momentarily unused parameters.
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
        if g is None:
            m *= BETA1
            v *= BETA2
            continue
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
