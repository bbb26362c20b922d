"""Heterogeneous graph encoding: relation-aware gating, per-view message
propagation, per-layer fusion of the auxiliary streams into the interaction
stream, and normalized layer aggregation."""
from __future__ import annotations

from dataclasses import dataclass

from .autodiff import SparseMatrix, Tape, Tensor


def self_gate(tape: Tape, e0: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Elementwise sigmoid gate computed from the embedding itself (d x d
    weight, d bias)."""
    return tape.mul(e0, tape.sigmoid(tape.affine(e0, weight, bias)))


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


def encode(tape: Tape, e_u0: Tensor, e_i0: Tensor, gates: list[tuple[Tensor, Tensor] | None],
           ops: GraphOperators, n_layers: int,
           rows=((None, None), (None, None))) -> tuple[tuple[Tensor, Tensor | None], ...]:
    """Run the full multi-layer encoding of all active streams.

    ``gates`` holds each side's self-gate ``(weight, bias)`` in (user, item)
    order, read only where ``ops`` has the side's auxiliary graph (None
    elsewhere is fine). Per layer: the interaction view propagates users from
    items and items from users; each auxiliary view propagates within its own
    graph (one ``spmm`` per hop with the degree-normalized adjacency, so
    zero-degree rows come out zero). Mean-pooling fusion of the auxiliary
    output forms the interaction-view input of the next layer only, so the last
    layer has none; the aggregation consumes the raw per-view outputs and the
    auxiliary streams stay untouched by fusion. Ablated sides skip both the
    auxiliary stream and the fusion step.

    Returns each side's aggregated ``(view, auxiliary)`` pair in (user, item)
    order, the auxiliary None where its graph is ablated away, at the sorted
    node indices ``rows`` gives in the same shape (None: every node); the last
    layer and the aggregation are row-local and run only there. The node order
    (both interaction hops, then each side's auxiliary hop and fusion; all view
    aggregations, each after its row gathers, before the auxiliary ones) fixes
    how gradients add up, so reordering it changes the trained bits.
    """
    if n_layers < 1:
        raise ValueError("need at least one propagation layer")
    adjs = (ops.uu, ops.ii)
    view0 = (e_u0, e_i0)
    aux0 = tuple(None if adj is None else self_gate(tape, e0, *gate)
                 for e0, adj, gate in zip(view0, adjs, gates))
    x, aux = list(view0), list(aux0)
    view_layers, aux_layers = ([], []), ([], [])  # each side's per-layer outputs
    for layer in range(1, n_layers + 1):
        at = rows if layer == n_layers else ((None, None), (None, None))
        x = [tape.spmm(ops.ui.at_rows(at[0][0]), x[1]),
             tape.spmm(ops.ui.T.at_rows(at[1][0]), x[0])]
        for side, adj in enumerate(adjs):
            view_layers[side].append(x[side])
            if adj is not None:
                aux[side] = tape.spmm(adj.at_rows(at[side][1]), aux[side])
                aux_layers[side].append(aux[side])
                if layer < n_layers:
                    x[side] = fuse_views(tape, x[side], aux[side])

    def aggregate(e0, layers, keep):
        if keep is not None:  # the last layer holds only the kept rows already
            e0, *earlier = (tape.gather_rows(t, keep) for t in (e0, *layers[:-1]))
            layers = [*earlier, layers[-1]]
        return aggregate_layers(tape, e0, layers)

    views = [aggregate(e0, out, keep) for e0, out, (keep, _) in zip(view0, view_layers, rows)]
    auxes = [None if e0 is None else aggregate(e0, out, keep)
             for e0, out, (_, keep) in zip(aux0, aux_layers, rows)]
    return tuple(zip(views, auxes))
