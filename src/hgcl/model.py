"""Parameter initialization and assembly of the full differentiable forward pass."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import SparseMatrix, Tape, Tensor
from .config import Ablations, RunConfig
from .encoder import GateParams, GraphOperators, ViewEmbeddings, encode
from .meta import (MetaMLP, PersonalTransforms, apply_transform,
                   extract_meta_knowledge, fuse_final, generate_transforms,
                   materialize_transform)
from .objectives import bpr_loss, infonce_loss, total_loss

PRELU_INIT = 0.25


def _xavier(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _mlp_keys(prefix: str) -> list[str]:
    return [f"{prefix}_w_in", f"{prefix}_b_in", f"{prefix}_slope",
            f"{prefix}_w_out", f"{prefix}_b_out"]


def param_order(dim: int, rank: int, m: int, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Declared parameter order and shapes; fixed for checkpoint layout."""
    h = dim  # hidden width of the meta MLPs
    order: list[tuple[str, tuple[int, ...]]] = [
        ("user_emb", (m, dim)), ("item_emb", (n, dim)),
        ("user_gate_w", (dim, dim)), ("user_gate_b", (dim,)),
        ("item_gate_w", (dim, dim)), ("item_gate_b", (dim,)),
    ]
    for side, rows in (("user", dim * rank), ("item", dim * rank)):
        for idx in (1, 2):
            prefix = f"{side}_mlp{idx}"
            order += [(f"{prefix}_w_in", (3 * dim, h)), (f"{prefix}_b_in", (h,)),
                      (f"{prefix}_slope", ()),
                      (f"{prefix}_w_out", (h, rows)), (f"{prefix}_b_out", (rows,))]
    order += [("user_transfer_slope", ()), ("item_transfer_slope", ())]
    return order


def init_params(m: int, n: int, dim: int, rank: int, seed, dtype=np.float64) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_order(dim, rank, m, n):
        if name.endswith("slope"):
            params[name] = np.asarray(PRELU_INIT, dtype=dtype)
        elif name.endswith("_b") or "_b_" in name:
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = _xavier(rng, shape, dtype)
    return params


def trainable_keys(params: dict[str, np.ndarray], abl: Ablations) -> list[str]:
    dropped: set[str] = set()
    if abl.no_meta or abl.no_uu:
        dropped.update(_mlp_keys("user_mlp1") + _mlp_keys("user_mlp2") + ["user_transfer_slope"])
    if abl.no_meta or abl.no_ii:
        dropped.update(_mlp_keys("item_mlp1") + _mlp_keys("item_mlp2") + ["item_transfer_slope"])
    if abl.no_uu:
        dropped.update(["user_gate_w", "user_gate_b"])
    if abl.no_ii:
        dropped.update(["item_gate_w", "item_gate_b"])
    return [k for k in params if k not in dropped]


def regularized_keys(params: dict[str, np.ndarray], abl: Ablations) -> list[str]:
    """L2-penalized subset: embeddings, gates, and MLP weights; slopes excluded."""
    keep = trainable_keys(params, abl)
    return [k for k in keep if not k.endswith("slope")]


@dataclass
class ForwardCache:
    """A forward pass's tensors. With a batch, a side whose contrastive pool is
    not ``full`` has ``e_*_final`` and ``transforms_*`` only at the rows its loss
    terms read (the batch's users, or its positive and negative items), in
    sorted node order; otherwise they hold every node."""

    views: ViewEmbeddings
    transforms_user: PersonalTransforms | None
    transforms_item: PersonalTransforms | None
    e_u_final: Tensor
    e_i_final: Tensor
    bpr: Tensor | None = None
    cl_user: Tensor | None = None
    cl_item: Tensor | None = None
    loss: Tensor | None = None


def _gate(leaves, side: str) -> GateParams:
    return GateParams(weight=leaves[f"{side}_gate_w"], bias=leaves[f"{side}_gate_b"])


def _mlp(leaves, prefix: str) -> MetaMLP:
    return MetaMLP(w_in=leaves[f"{prefix}_w_in"], b_in=leaves[f"{prefix}_b_in"],
                   slope=leaves[f"{prefix}_slope"], w_out=leaves[f"{prefix}_w_out"],
                   b_out=leaves[f"{prefix}_b_out"])


def cl_negative_pools(ops: GraphOperators, cfg: RunConfig) -> tuple[str, str]:
    """The contrastive negative pool of the user and the item side: ``full``
    (every node of the side), ``batch`` (the batch's nodes) or ``off`` (no
    contrastive term: CL ablated, ``cl_weight = 0``, or the side's view ablated)."""
    cl_on = not cfg.ablations.no_cl and cfg.loss.cl_weight > 0
    return tuple("off" if adj is None or not cl_on else
                 "full" if cfg.loss.use_full_negatives(adj.shape[0]) else "batch"
                 for adj in (ops.uu, ops.ii))


def _at_rows(tape: Tape, rows: np.ndarray | None, e_view: Tensor, e_aux: Tensor | None,
             incidence: SparseMatrix) -> tuple[Tensor, Tensor | None, SparseMatrix]:
    """A side's view and auxiliary embeddings and incidence rows at ``rows``
    (everything when None)."""
    if rows is None:
        return e_view, e_aux, incidence
    return (tape.gather_rows(e_view, rows),
            None if e_aux is None else tape.gather_rows(e_aux, rows),
            SparseMatrix(incidence.mat[rows]))


def forward_model(tape: Tape, leaves: dict[str, Tensor], ops: GraphOperators, cfg: RunConfig,
                  batch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> ForwardCache:
    """Encode, transfer, fuse, and (when a batch is given) assemble the loss.

    Transfer and fusion are row-local, so with a batch a side whose contrastive
    pool is not ``full`` runs them only on the rows its loss terms read; the
    other rows would get a zero gradient.
    """
    hp, abl = cfg.hyper, cfg.ablations
    views = encode(tape, leaves["user_emb"], leaves["item_emb"],
                   _gate(leaves, "user") if ops.uu is not None else None,
                   _gate(leaves, "item") if ops.ii is not None else None,
                   ops, hp.layers)

    rows_u = rows_i = None
    if batch is not None:
        users, pos, neg = batch
        pool_u, pool_i = cl_negative_pools(ops, cfg)
        if pool_u != "full":
            rows_u = np.unique(users)
        if pool_i != "full":
            rows_i = np.unique(np.concatenate([pos, neg]))
    e_u, e_uu, inc_u = _at_rows(tape, rows_u, views.e_u, views.e_uu, ops.inc_ui)
    e_i, e_ii, inc_i = _at_rows(tape, rows_i, views.e_i, views.e_ii, ops.inc_ui.T)

    tr_u = tr_i = None
    e_uu_m = e_ii_m = None
    if e_uu is not None and not abl.no_meta:
        m_uu = extract_meta_knowledge(tape, e_u, e_uu, inc_u, views.e_i)
        tr_u = generate_transforms(tape, m_uu, _mlp(leaves, "user_mlp1"), _mlp(leaves, "user_mlp2"))
        e_uu_m = apply_transform(tape, tr_u, e_uu, leaves["user_transfer_slope"])
    if e_ii is not None and not abl.no_meta:
        m_ii = extract_meta_knowledge(tape, e_i, e_ii, inc_i, views.e_u)
        tr_i = generate_transforms(tape, m_ii, _mlp(leaves, "item_mlp1"), _mlp(leaves, "item_mlp2"))
        e_ii_m = apply_transform(tape, tr_i, e_ii, leaves["item_transfer_slope"])

    e_u_final = e_u if e_uu is None else fuse_final(tape, e_u, e_uu, e_uu_m, hp.alpha_user)
    e_i_final = e_i if e_ii is None else fuse_final(tape, e_i, e_ii, e_ii_m, hp.alpha_item)

    cache = ForwardCache(views=views, transforms_user=tr_u, transforms_item=tr_i,
                         e_u_final=e_u_final, e_i_final=e_i_final)
    if batch is None:
        return cache

    local = tuple(idx if rows is None else np.searchsorted(rows, idx)
                  for rows, idx in ((rows_u, users), (rows_i, pos), (rows_i, neg)))
    reg = [leaves[k] for k in regularized_keys(leaves, abl)]
    cache.bpr = bpr_loss(tape, e_u_final, e_i_final, local, reg, cfg.loss.l2_weight)

    # A side's rows are already its contrastive pool unless that pool is full.
    if pool_u != "off":
        anchors = tape.add(e_uu_m, e_uu) if e_uu_m is not None else e_uu
        cache.cl_user = infonce_loss(tape, anchors, e_u, None, cfg.loss.temperature)
    if pool_i != "off":
        anchors = tape.add(e_ii_m, e_ii) if e_ii_m is not None else e_ii
        cache.cl_item = infonce_loss(tape, anchors, e_i, None, cfg.loss.temperature)

    cache.loss = total_loss(tape, cache.bpr, cache.cl_user, cache.cl_item, cfg.loss)
    return cache


def compute_final_embeddings(params: dict[str, np.ndarray], ops: GraphOperators,
                             cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the forward pass without a batch and read off the fused embeddings."""
    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    cache = forward_model(tape, leaves, ops, cfg)
    return cache.e_u_final.value, cache.e_i_final.value


def transform_matrix_for_node(params: dict[str, np.ndarray], ops: GraphOperators,
                              cfg: RunConfig, node: int, side: str) -> np.ndarray:
    """Materialized d x d personalized transform of one node."""
    abl, hp = cfg.ablations, cfg.hyper
    if side not in ("user", "item"):
        raise ValueError("side must be 'user' or 'item'")
    if abl.no_meta:
        raise ValueError("model was trained without the meta network")
    if side == "user" and abl.no_uu:
        raise ValueError("model was trained without the user-user view")
    if side == "item" and abl.no_ii:
        raise ValueError("model was trained without the item-item view")
    count = ops.uu.shape[0] if side == "user" else ops.ii.shape[0]
    if not 0 <= node < count:
        raise ValueError(f"unknown {side} index {node}")
    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    cache = forward_model(tape, leaves, ops, cfg)
    tr = cache.transforms_user if side == "user" else cache.transforms_item
    return materialize_transform(tr.w1.value[node].reshape(hp.dim, hp.rank),
                                 tr.w2.value[node].reshape(hp.rank, hp.dim))
