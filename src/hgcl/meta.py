"""Personalized cross-view knowledge transfer.

Per-node context (interaction embedding, auxiliary embedding, neighbor sum)
drives two small MLPs that emit a low-rank transform pair per node; applying
the pair to the auxiliary embedding yields the personalized transfer output.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import SparseMatrix, Tape, Tensor


@dataclass
class MetaMLP:
    """Two fully-connected layers with a PReLU in between."""

    w_in: Tensor
    b_in: Tensor
    slope: Tensor
    w_out: Tensor
    b_out: Tensor


@dataclass
class PersonalTransforms:
    """Per-node factor pair as flat rows; the implied d x d transform has rank <= k."""

    w1: Tensor  # (N, d*k)
    w2: Tensor  # (N, k*d)


def mlp_apply(tape: Tape, mlp: MetaMLP, x: Tensor) -> Tensor:
    hidden = tape.prelu(tape.affine(x, mlp.w_in, mlp.b_in), mlp.slope)
    return tape.affine(hidden, mlp.w_out, mlp.b_out)


def extract_meta_knowledge(tape: Tape, e_view: Tensor, e_aux: Tensor,
                           incidence: SparseMatrix, e_other: Tensor) -> Tensor:
    """Width-3d context: view embedding, auxiliary embedding, and the plain
    (un-normalized) sum of counterpart embeddings over interaction neighbors."""
    neighbor_sum = tape.spmm(incidence, e_other)
    return tape.concat_columns(e_view, e_aux, neighbor_sum)


def generate_transforms(tape: Tape, meta: Tensor, mlp1: MetaMLP, mlp2: MetaMLP) -> PersonalTransforms:
    """Per-node (d, k) and (k, d) factors, one flat MLP output row each."""
    return PersonalTransforms(w1=mlp_apply(tape, mlp1, meta), w2=mlp_apply(tape, mlp2, meta))


def apply_transform(tape: Tape, transforms: PersonalTransforms, e_aux: Tensor,
                    slope: Tensor) -> Tensor:
    """PReLU(W1_r (W2_r e_r)) per node, via two k-wide products."""
    return tape.prelu(tape.lowrank_apply(transforms.w1, transforms.w2, e_aux), slope)


def fuse_final(tape: Tape, e_view: Tensor, e_aux: Tensor, e_aux_m: Tensor | None,
               alpha: float) -> Tensor:
    """alpha * view + (1 - alpha) * (aux + transferred aux)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing weight must be in [0, 1], got {alpha}")
    side = tape.add(e_aux, e_aux_m) if e_aux_m is not None else e_aux
    return tape.add(tape.scale(e_view, alpha), tape.scale(side, 1.0 - alpha))


def write_transform_csv(matrix: np.ndarray, path: str | Path) -> None:
    """CSV with header row,col,value; 17 significant digits round-trips f64."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for r in range(matrix.shape[0]):
            for c in range(matrix.shape[1]):
                writer.writerow([r, c, format(float(matrix[r, c]), ".17g")])

