"""Heterogeneous graph encoding: relation-aware gating, per-view message
propagation, per-layer fusion of the auxiliary streams into the interaction
stream, and normalized layer aggregation."""
from __future__ import annotations

from dataclasses import dataclass

from .autodiff import SparseMatrix, Tape, Tensor


@dataclass
class GateParams:
    """Self-gating transform (d x d weight, d bias) for one node side."""

    weight: Tensor
    bias: Tensor


@dataclass
class ViewEmbeddings:
    """Aggregated embeddings of all four streams.

    Auxiliary entries are None when the corresponding graph is ablated away.
    """

    e_u: Tensor
    e_i: Tensor
    e_uu: Tensor | None
    e_ii: Tensor | None


def self_gate(tape: Tape, e0: Tensor, gate: GateParams) -> Tensor:
    """Elementwise sigmoid gate computed from the embedding itself."""
    return tape.mul(e0, tape.sigmoid(tape.affine(e0, gate.weight, gate.bias)))


def fuse_views(tape: Tape, e_main: Tensor, e_aux: Tensor) -> Tensor:
    """Elementwise mean pooling of the interaction and auxiliary streams."""
    return tape.scale(tape.add(e_main, e_aux), 0.5)


def aggregate_layers(tape: Tape, e0: Tensor, layers: list[Tensor]) -> Tensor:
    """Initial embedding plus the row-normalized output of every layer."""
    if not layers:
        raise ValueError("aggregate_layers needs at least one layer")
    out = e0
    for layer in layers:
        out = tape.add(out, tape.row_l2_normalize(layer))
    return out


@dataclass(frozen=True)
class GraphOperators:
    """Sparse operators derived from a HeteroGraph in the active dtype."""

    ui: SparseMatrix        # m x n, normalized; ui.T is the item side
    uu: SparseMatrix | None
    ii: SparseMatrix | None
    inc_ui: SparseMatrix    # m x n, binary incidence


def build_graph_operators(graph, dtype, *, no_uu: bool = False, no_ii: bool = False) -> GraphOperators:
    return GraphOperators(
        ui=SparseMatrix(graph.a_ui.astype(dtype)),
        uu=None if no_uu else SparseMatrix(graph.a_uu.astype(dtype)),
        ii=None if no_ii else SparseMatrix(graph.a_ii.astype(dtype)),
        inc_ui=SparseMatrix(graph.binary_ui().astype(dtype)),
    )


def encode(tape: Tape, e_u0: Tensor, e_i0: Tensor, user_gate: GateParams | None,
           item_gate: GateParams | None, ops: GraphOperators, n_layers: int) -> ViewEmbeddings:
    """Run the full multi-layer encoding of all active streams.

    Per layer: the interaction view propagates users from items and items from
    users; each auxiliary view propagates within its own graph (one ``spmm``
    per hop with the degree-normalized adjacency, so zero-degree rows come out
    zero). Mean-pooling fusion of the auxiliary output forms the
    interaction-view input of the next layer only, so the last layer has none;
    the aggregation consumes the raw per-view outputs and the auxiliary streams
    stay untouched by fusion. Ablated sides skip both the auxiliary stream and
    the fusion step.
    """
    if n_layers < 1:
        raise ValueError("need at least one propagation layer")
    e_uu0 = self_gate(tape, e_u0, user_gate) if ops.uu is not None else None
    e_ii0 = self_gate(tape, e_i0, item_gate) if ops.ii is not None else None
    layers_u: list[Tensor] = []
    layers_i: list[Tensor] = []
    layers_uu: list[Tensor] = []
    layers_ii: list[Tensor] = []
    x_u, x_i = e_u0, e_i0
    x_uu, x_ii = e_uu0, e_ii0
    for layer in range(1, n_layers + 1):
        x_u, x_i = tape.spmm(ops.ui, x_i), tape.spmm(ops.ui.T, x_u)
        layers_u.append(x_u)
        layers_i.append(x_i)
        if ops.uu is not None:
            x_uu = tape.spmm(ops.uu, x_uu)
            layers_uu.append(x_uu)
            if layer < n_layers:
                x_u = fuse_views(tape, x_u, x_uu)
        if ops.ii is not None:
            x_ii = tape.spmm(ops.ii, x_ii)
            layers_ii.append(x_ii)
            if layer < n_layers:
                x_i = fuse_views(tape, x_i, x_ii)
    return ViewEmbeddings(
        e_u=aggregate_layers(tape, e_u0, layers_u),
        e_i=aggregate_layers(tape, e_i0, layers_i),
        e_uu=aggregate_layers(tape, e_uu0, layers_uu) if ops.uu is not None else None,
        e_ii=aggregate_layers(tape, e_ii0, layers_ii) if ops.ii is not None else None,
    )
