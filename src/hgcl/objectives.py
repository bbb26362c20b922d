"""Ranking and contrastive objectives plus the dot-product predictor."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor

# Largest side for which cl_negatives=auto contrasts against the full node set.
FULL_NEGATIVES_LIMIT = 4096


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.2
    cl_user_weight: float = 1.0   # weight of the user-side contrastive term
    cl_item_weight: float = 1.0   # weight of the item-side contrastive term
    cl_weight: float = 0.3        # weight of the whole contrastive loss
    l2_weight: float = 1e-4
    cl_negatives: str = "auto"    # auto | full | batch

    def validate(self) -> None:
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and > 0")
        for name in ("cl_user_weight", "cl_item_weight", "cl_weight", "l2_weight"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.cl_negatives not in ("auto", "full", "batch"):
            raise ValueError("cl_negatives must be auto, full, or batch")

    def use_full_negatives(self, side_count: int) -> bool:
        if self.cl_negatives == "full":
            return True
        if self.cl_negatives == "batch":
            return False
        return side_count <= FULL_NEGATIVES_LIMIT


def predict_scores(e_user: np.ndarray, e_item: np.ndarray,
                   pairs: np.ndarray) -> np.ndarray:
    """Dot-product per (user, item) pair over the final fused embeddings."""
    pairs = np.asarray(pairs)
    users, items = pairs[:, 0], pairs[:, 1]
    if len(users) and (users.min() < 0 or users.max() >= e_user.shape[0]):
        raise ValueError(f"user index out of range for {e_user.shape[0]} users")
    if len(items) and (items.min() < 0 or items.max() >= e_item.shape[0]):
        raise ValueError(f"item index out of range for {e_item.shape[0]} items")
    return (e_user[users] * e_item[items]).sum(axis=1)


def infonce_loss(tape: Tape, anchors: Tensor, targets: Tensor,
                 candidates: np.ndarray | None, temperature: float) -> Tensor:
    """Sum over anchors of -log softmax of the aligned pair's cosine similarity.

    ``candidates`` restricts both anchors and the negative pool to the given
    indices (in-batch mode); None contrasts every row against every row. The
    aligned pair sits on the diagonal and is part of the denominator.
    """
    if candidates is not None:
        anchors = tape.gather_rows(anchors, candidates)
        targets = tape.gather_rows(targets, candidates)
    return tape.infonce_sum(anchors, targets, temperature)


def bpr_loss(tape: Tape, e_user: Tensor, e_item: Tensor, batch: tuple[np.ndarray, ...],
             reg_tensors: list[Tensor], l2_weight: float) -> Tensor:
    """Pairwise ranking loss over (user, positive, negative) index triples:
    sum of -ln sigmoid(s_pos - s_neg) plus L2 on the regularized parameters."""
    loss = tape.sum_all(tape.bpr_rows(e_user, e_item, *batch))
    if l2_weight > 0 and reg_tensors:
        loss = tape.add(loss, tape.scale(tape.sum_squares(*reg_tensors), l2_weight))
    return loss


def total_loss(tape: Tape, bpr: Tensor, cl_user: Tensor | None, cl_item: Tensor | None,
               cfg: LossConfig) -> Tensor:
    """bpr + beta * (a1 * user contrastive + a2 * item contrastive)."""
    for name, t in (("bpr", bpr), ("cl_user", cl_user), ("cl_item", cl_item)):
        if t is not None and not np.isfinite(t.value):
            raise FloatingPointError(f"non-finite loss component: {name}")
    if cfg.cl_weight == 0 or (cl_user is None and cl_item is None):
        return bpr
    cl = None
    if cl_user is not None:
        cl = tape.scale(cl_user, cfg.cl_user_weight)
    if cl_item is not None:
        term = tape.scale(cl_item, cfg.cl_item_weight)
        cl = term if cl is None else tape.add(cl, term)
    return tape.add(bpr, tape.scale(cl, cfg.cl_weight))
