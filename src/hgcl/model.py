"""Parameter initialization and assembly of the full differentiable forward pass."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import SparseMatrix, Tape, Tensor
from .config import RunConfig
from .encoder import GraphOperators, encode
from .meta import (MetaMLP, PersonalTransforms, apply_transform,
                   extract_meta_knowledge, fuse_final, generate_transforms)
from .objectives import bpr_loss, infonce_loss, total_loss

PRELU_INIT = 0.25

# The two sides in their fixed order, as parameter-key prefixes.
SIDES = ("user", "item")


def _xavier(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def param_order(dim: int, rank: int, m: int, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Declared parameter order and shapes; fixed for checkpoint layout."""
    h = dim  # hidden width of the meta MLPs
    order: list[tuple[str, tuple[int, ...]]] = [
        ("user_emb", (m, dim)), ("item_emb", (n, dim)),
        ("user_gate_w", (dim, dim)), ("user_gate_b", (dim,)),
        ("item_gate_w", (dim, dim)), ("item_gate_b", (dim,)),
    ]
    rows = dim * rank  # one flat (d, k) or (k, d) factor per node
    for side in SIDES:
        for idx in (1, 2):
            prefix = f"{side}_mlp{idx}"
            order += [(f"{prefix}_w_in", (3 * dim, h)), (f"{prefix}_b_in", (h,)),
                      (f"{prefix}_slope", ()),
                      (f"{prefix}_w_out", (h, rows)), (f"{prefix}_b_out", (rows,))]
    order += [(f"{side}_transfer_slope", ()) for side in SIDES]
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


@dataclass
class ForwardCache:
    """A forward pass's tensors. ``transforms`` holds each side's personalized
    transforms in ``SIDES`` order (user, item), None where the side has no
    transfer or the forward did not keep them. With a batch, a side whose
    contrastive pool is not ``full`` has ``e_*_final`` and its transforms only
    at its loss rows, the rows its loss terms read (the batch's users, or its
    positive and negative items), in sorted node order; otherwise they hold
    every node."""

    transforms: tuple[PersonalTransforms | None, PersonalTransforms | None]
    e_u_final: Tensor
    e_i_final: Tensor
    bpr: Tensor | None = None
    cl_user: Tensor | None = None
    cl_item: Tensor | None = None
    loss: Tensor | None = None


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


def forward_model(tape: Tape, leaves: dict[str, Tensor], ops: GraphOperators, cfg: RunConfig,
                  batch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                  keep_transforms: bool = True) -> ForwardCache:
    """Encode, transfer, fuse, and (when a batch is given) assemble the loss.

    With a batch, a side whose contrastive pool is not ``full`` runs transfer
    and fusion only at its loss rows, the sorted nodes its loss terms read; the
    other rows would get a zero gradient. The encoder gives its auxiliary output
    at those rows, and its view there plus at the neighbours that the other
    side's meta context sums, or at every node if that context reads every row.
    The L2 term takes, in ``leaves`` order, every leaf the forward has read
    other than the PReLU slopes: an ablated component's parameters are not
    read, so they get neither the penalty nor a gradient. Without
    ``keep_transforms`` a side's transforms are dropped once applied, so an
    unrecorded tape frees them before the other side's transfer.
    """
    hp = cfg.hyper
    pools = cl_negative_pools(ops, cfg)
    incidences = (ops.inc_ui, ops.inc_ui.T)
    metas = [adj is not None and not cfg.ablations.no_meta for adj in (ops.uu, ops.ii)]
    rows = view_rows = (None, None)
    if batch is not None:
        users, pos, neg = batch
        rows = tuple(None if pool == "full" else np.unique(idx)
                     for pool, idx in zip(pools, (users, np.concatenate([pos, neg]))))
        view_rows = tuple(  # a bincount's nonzero bins: np.union1d, only faster
            side_rows if side_rows is None or not other_meta else None if other_rows is None else
            np.flatnonzero(np.bincount(np.concatenate(
                [side_rows, incidence.mat[other_rows].indices]), minlength=count))
            for side_rows, count, other_rows, other_meta, incidence in zip(
                rows, ops.ui.shape, rows[::-1], metas[::-1], incidences[::-1]))
    encoded = encode(tape, leaves["user_emb"], leaves["item_emb"],
                     [(leaves[f"{side}_gate_w"], leaves[f"{side}_gate_b"]) for side in SIDES],
                     ops, hp.layers, tuple(zip(view_rows, rows)))

    # Per side: the view, auxiliary and transferred auxiliary embeddings at its
    # loss rows (every node when None), and its transforms.
    streams, transforms = [], [None, None]
    for s, side in enumerate(SIDES):
        (e_view, e_aux), (e_other, _) = encoded[s], encoded[1 - s]
        side_rows, other_rows, incidence = rows[s], view_rows[1 - s], incidences[s]
        if side_rows is not None and e_view.shape[0] > len(side_rows):
            e_view = tape.gather_rows(e_view, side_rows if view_rows[s] is None
                                      else np.searchsorted(view_rows[s], side_rows))
        e_aux_m = None
        if metas[s]:
            incidence = (incidence.at_rows(side_rows) if other_rows is None  # else columns too
                         else SparseMatrix(incidence.mat[side_rows][:, other_rows]))
            transforms[s] = generate_transforms(
                tape, extract_meta_knowledge(tape, e_view, e_aux, incidence, e_other),
                _mlp(leaves, f"{side}_mlp1"), _mlp(leaves, f"{side}_mlp2"))
            e_aux_m = apply_transform(tape, transforms[s], e_aux, leaves[f"{side}_transfer_slope"])
            if not keep_transforms:
                transforms[s] = None
        streams.append((e_view, e_aux, e_aux_m))

    # Both transfers run before either fusion, and both contrastive terms after
    # BPR. The node order fixes the order in which gradients add up in the view
    # embeddings, so reordering these stages changes the trained bits.
    e_u_final, e_i_final = (
        e_view if e_aux is None else fuse_final(tape, e_view, e_aux, e_aux_m, alpha)
        for (e_view, e_aux, e_aux_m), alpha in zip(streams, (hp.alpha_user, hp.alpha_item)))
    cache = ForwardCache(transforms=tuple(transforms), e_u_final=e_u_final, e_i_final=e_i_final)
    if batch is None:
        return cache

    local = tuple(idx if side_rows is None else np.searchsorted(side_rows, idx)
                  for side_rows, idx in zip((rows[0], rows[1], rows[1]), batch))
    read = tape.inputs()
    reg = [t for k, t in leaves.items() if t in read and not k.endswith("slope")]
    cache.bpr = bpr_loss(tape, e_u_final, e_i_final, local, reg, cfg.loss.l2_weight)

    # A side's rows are already its contrastive pool unless that pool is full.
    cache.cl_user, cache.cl_item = (
        None if pool == "off" else
        infonce_loss(tape, e_aux if e_aux_m is None else tape.add(e_aux_m, e_aux), e_view,
                     None, cfg.loss.temperature)
        for pool, (e_view, e_aux, e_aux_m) in zip(pools, streams))

    cache.loss = total_loss(tape, cache.bpr, cache.cl_user, cache.cl_item, cfg.loss)
    return cache


def _forward_all_rows(params: dict[str, np.ndarray], ops: GraphOperators,
                      cfg: RunConfig, keep_transforms: bool) -> ForwardCache:
    tape = Tape(record=False)  # never differentiated: keep no intermediate
    return forward_model(tape, {k: tape.leaf(v, name=k) for k, v in params.items()}, ops, cfg,
                         keep_transforms=keep_transforms)


def compute_final_embeddings(params: dict[str, np.ndarray], ops: GraphOperators,
                             cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the forward pass without a batch and read off the fused embeddings."""
    cache = _forward_all_rows(params, ops, cfg, keep_transforms=False)
    return cache.e_u_final.value, cache.e_i_final.value


def transform_matrix_for_node(params: dict[str, np.ndarray], ops: GraphOperators,
                              cfg: RunConfig, node: int, side: str) -> np.ndarray:
    """Materialized d x d personalized transform of one node."""
    if side not in SIDES:
        raise ValueError("side must be 'user' or 'item'")
    tr = _forward_all_rows(params, ops, cfg, keep_transforms=True).transforms[SIDES.index(side)]
    if tr is None:
        raise ValueError(f"model was trained without the meta network or the {side}-{side} view")
    if not 0 <= node < tr.w1.shape[0]:
        raise ValueError(f"unknown {side} index {node}")
    hp = cfg.hyper
    return tr.w1.value[node].reshape(hp.dim, hp.rank) @ tr.w2.value[node].reshape(hp.rank, hp.dim)
