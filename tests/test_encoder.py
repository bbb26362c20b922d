"""Gating, propagation, fusion, and layer aggregation against hand oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hgcl.model
from hgcl.autodiff import SparseMatrix, Tape, Tensor
from hgcl.config import Ablations, Hyperparams, RunConfig
from hgcl.encoder import (aggregate_layers, build_graph_operators, encode, fuse_views,
                          self_gate)
from hgcl.graphs import build_hetero_graph, normalize_adjacency


def gate_of(tape, w, b):
    """A self-gate's (weight, bias) leaves."""
    return tape.leaf(np.asarray(w, dtype=float)), tape.leaf(np.asarray(b, dtype=float))


def test_zero_gate_halves_embedding():
    tape = Tape()
    e = tape.leaf(np.array([[2.0, -4.0], [1.0, 0.5]]))
    out = self_gate(tape, e, *gate_of(tape, np.zeros((2, 2)), np.zeros(2)))
    np.testing.assert_allclose(out.value, e.value * 0.5, atol=1e-15)


def test_saturated_gate_passes_embedding_through():
    tape = Tape()
    e = tape.leaf(np.array([[2.0, -4.0], [1.0, 0.5]]))
    out = self_gate(tape, e, *gate_of(tape, np.zeros((2, 2)), np.full(2, 20.0)))
    np.testing.assert_allclose(out.value, e.value, atol=1e-8)


def test_identity_gate_scalar_values():
    tape = Tape()
    e = tape.leaf(np.array([[1.0, -2.0]]))
    out = self_gate(tape, e, *gate_of(tape, np.eye(2), np.zeros(2)))
    np.testing.assert_allclose(out.value, [[0.73106, -0.23841]], atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
       hnp.arrays(np.float64, (3, 3), elements=st.floats(-3, 3)),
       hnp.arrays(np.float64, (3,), elements=st.floats(-3, 3)))
def test_gating_never_grows_magnitudes(e, w, b):
    tape = Tape()
    out = self_gate(tape, tape.leaf(e), *gate_of(tape, w, b))
    assert np.all(np.abs(out.value) <= np.abs(e) + 1e-12)


def test_propagate_single_edge_copies_neighbor():
    mat = normalize_adjacency([(0, 0)], 1, 1)
    tape = Tape()
    out = tape.spmm(SparseMatrix(mat), tape.leaf(np.array([[1.0, 0.0]])))
    np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-15)


def test_propagate_two_degree_one_neighbors():
    mat = normalize_adjacency([(0, 0), (0, 1)], 1, 2)
    tape = Tape()
    out = tape.spmm(SparseMatrix(mat), tape.leaf(np.array([[1.0, 0.0], [0.0, 1.0]])))
    np.testing.assert_allclose(out.value, [[2 ** -0.5, 2 ** -0.5]], atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_propagate_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    edges = sorted({(int(rng.integers(30)), int(rng.integers(40))) for _ in range(150)})
    mat = normalize_adjacency(edges, 30, 40)
    x = rng.normal(size=(40, 8))
    tape = Tape()
    out = tape.spmm(SparseMatrix(mat), tape.leaf(x))
    assert np.abs(out.value - mat.toarray() @ x).max() < 1e-10


def test_fuse_views_is_elementwise_mean():
    tape = Tape()
    a = tape.leaf(np.array([[2.0, 4.0]]))
    b = tape.leaf(np.array([[0.0, 0.0]]))
    np.testing.assert_array_equal(fuse_views(tape, a, b).value, [[1.0, 2.0]])


def test_fuse_views_idempotent_on_equal_inputs():
    tape = Tape()
    a = tape.leaf(np.array([[1.5, -2.5], [0.0, 3.0]]))
    np.testing.assert_array_equal(fuse_views(tape, a, a).value, a.value)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-100, 100)),
       hnp.arrays(np.float64, (3, 4), elements=st.floats(-100, 100)))
def test_fuse_views_symmetric(a, b):
    tape = Tape()
    ab = fuse_views(tape, tape.leaf(a), tape.leaf(b)).value
    ba = fuse_views(tape, tape.leaf(b), tape.leaf(a)).value
    np.testing.assert_array_equal(ab, ba)


def test_aggregate_normalizes_each_layer():
    tape = Tape()
    e0 = tape.leaf(np.array([[0.0, 0.0]]))
    layer = tape.leaf(np.array([[3.0, 4.0]]))
    out = aggregate_layers(tape, e0, [layer])
    np.testing.assert_allclose(out.value, [[0.6, 0.8]], atol=1e-15)


def test_aggregate_zero_layers_returns_initial():
    tape = Tape()
    e0 = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    zero = tape.leaf(np.zeros((2, 2)))
    out = aggregate_layers(tape, e0, [zero, zero])
    np.testing.assert_array_equal(out.value, e0.value)


def test_aggregate_matches_loop_oracle():
    rng = np.random.default_rng(8)
    e0 = rng.normal(size=(5, 3))
    l1 = rng.normal(size=(5, 3))
    l2 = rng.normal(size=(5, 3))
    tape = Tape()
    out = aggregate_layers(tape, tape.leaf(e0), [tape.leaf(l1), tape.leaf(l2)])
    expected = e0.copy()
    for layer in (l1, l2):
        for r in range(5):
            expected[r] += layer[r] / np.linalg.norm(layer[r])
    assert np.abs(out.value - expected).max() < 1e-12


def tiny_graph(m=6, n=8, seed=0, with_aux=True):
    rng = np.random.default_rng(seed)
    ui = sorted({(int(rng.integers(m)), int(rng.integers(n))) for _ in range(3 * m)})
    if with_aux:
        uu = set()
        for _ in range(m):
            a, b = rng.integers(m, size=2)
            if a != b:
                uu |= {(int(a), int(b)), (int(b), int(a))}
        ii = set()
        for _ in range(n):
            a, b = rng.integers(n, size=2)
            if a != b:
                ii |= {(int(a), int(b)), (int(b), int(a))}
    else:
        uu, ii = set(), set()
    return build_hetero_graph(ui, sorted(uu), sorted(ii), m, n)


def run_encode(graph, e_u0, e_i0, w_u, b_u, w_i, b_i, n_layers):
    ops = build_graph_operators(graph, np.float64)
    tape = Tape()
    return encode(tape, tape.leaf(e_u0), tape.leaf(e_i0),
                  (gate_of(tape, w_u, b_u), gate_of(tape, w_i, b_i)), ops, n_layers)


def test_encode_zero_embeddings_stay_zero():
    graph = tiny_graph()
    d = 4
    sides = run_encode(graph, np.zeros((6, d)), np.zeros((8, d)),
                       np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d), 1)
    for agg in (e for pair in sides for e in pair):
        np.testing.assert_array_equal(agg.value, 0.0)


def test_encode_is_bit_deterministic():
    rng = np.random.default_rng(1)
    graph = tiny_graph(seed=5)
    args = (graph, rng.normal(size=(6, 4)), rng.normal(size=(8, 4)),
            rng.normal(size=(4, 4)), rng.normal(size=4),
            rng.normal(size=(4, 4)), rng.normal(size=4), 2)
    v1 = run_encode(*args)
    v2 = run_encode(*args)
    for pair1, pair2 in zip(v1, v2):
        for a, b in zip(pair1, pair2):
            assert a.value.tobytes() == b.value.tobytes()


def recurrence_oracle(a_ui, e_u0, e_i0, gate_u0, gate_i0, n_layers):
    """Independent numpy loop for the no-auxiliary-edges case: the empty
    auxiliary streams stay zero, so fusion halves the next layer's inputs."""
    def norm_rows(x):
        out = x.copy()
        for r in range(len(x)):
            nrm = np.linalg.norm(x[r])
            if nrm >= 1e-12:
                out[r] = x[r] / nrm
        return out

    x_u, x_i = e_u0, e_i0
    agg_u, agg_i = e_u0.copy(), e_i0.copy()
    for _ in range(n_layers):
        p_u = a_ui @ x_i
        p_i = a_ui.T @ x_u
        agg_u += norm_rows(p_u)
        agg_i += norm_rows(p_i)
        x_u, x_i = p_u / 2.0, p_i / 2.0
    return agg_u, agg_i, gate_u0, gate_i0


def test_encode_empty_auxiliary_graphs_match_recurrence_oracle():
    rng = np.random.default_rng(11)
    graph = tiny_graph(seed=2, with_aux=False)
    e_u0 = rng.normal(size=(6, 4))
    e_i0 = rng.normal(size=(8, 4))
    w_u, b_u = rng.normal(size=(4, 4)), rng.normal(size=4)
    w_i, b_i = rng.normal(size=(4, 4)), rng.normal(size=4)
    (e_u, e_uu), (e_i, e_ii) = run_encode(graph, e_u0, e_i0, w_u, b_u, w_i, b_i, 2)

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    gate_u0 = e_u0 * sigmoid(e_u0 @ w_u + b_u)
    gate_i0 = e_i0 * sigmoid(e_i0 @ w_i + b_i)
    exp_u, exp_i, exp_uu, exp_ii = recurrence_oracle(
        graph.a_ui.toarray(), e_u0, e_i0, gate_u0, gate_i0, 2)
    assert np.abs(e_u.value - exp_u).max() < 1e-12
    assert np.abs(e_i.value - exp_i).max() < 1e-12
    # Empty graphs leave no propagation mass: aggregates equal the gated inits.
    assert np.abs(e_uu.value - exp_uu).max() < 1e-12
    assert np.abs(e_ii.value - exp_ii).max() < 1e-12


def test_encode_empty_aux_and_saturated_gates_reproduce_initials():
    rng = np.random.default_rng(3)
    graph = tiny_graph(seed=7, with_aux=False)
    e_u0 = rng.normal(size=(6, 4))
    (_, e_uu), _ = run_encode(graph, e_u0, rng.normal(size=(8, 4)),
                              np.zeros((4, 4)), np.full(4, 1e3),
                              np.zeros((4, 4)), np.full(4, 1e3), 2)
    np.testing.assert_array_equal(e_uu.value, e_u0)


def test_layer_contributions_bound_drift():
    rng = np.random.default_rng(4)
    graph = tiny_graph(seed=9)
    e_u0 = rng.normal(size=(6, 4))
    n_layers = 3
    (e_u, _), _ = run_encode(graph, e_u0, rng.normal(size=(8, 4)),
                             rng.normal(size=(4, 4)), rng.normal(size=4),
                             rng.normal(size=(4, 4)), rng.normal(size=4), n_layers)
    drift = np.linalg.norm(e_u.value - e_u0, axis=1)
    assert np.all(drift <= n_layers + 1e-12)


def test_encode_permutation_equivariant():
    # Dyadic embeddings, zero gates (sigma(0)=1/2 exactly) and degrees that
    # yield dyadic weights make the whole pass exact, so relabeling users
    # permutes the outputs bitwise.
    m, n, d = 4, 4, 4
    ui = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
          (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]
    uu = [(0, 1), (1, 0), (2, 3), (3, 2)]
    rng = np.random.default_rng(6)
    e_u0 = rng.integers(-16, 17, size=(m, d)) / 16.0
    e_i0 = rng.integers(-16, 17, size=(n, d)) / 16.0
    zeros_w, zeros_b = np.zeros((d, d)), np.zeros(d)

    graph = build_hetero_graph(ui, uu, [], m, n)
    (base_u, _), (base_i, _) = run_encode(graph, e_u0, e_i0, zeros_w, zeros_b, zeros_w, zeros_b, 2)

    perm = np.array([2, 0, 3, 1])  # new index of each old user
    ui_p = [(int(perm[u]), i) for u, i in ui]
    uu_p = [(int(perm[a]), int(perm[b])) for a, b in uu]
    graph_p = build_hetero_graph(sorted(ui_p), sorted(uu_p), [], m, n)
    e_u0_p = np.empty_like(e_u0)
    e_u0_p[perm] = e_u0
    (perm_u, _), (perm_i, _) = run_encode(graph_p, e_u0_p, e_i0, zeros_w, zeros_b, zeros_w,
                                          zeros_b, 2)

    expected_u = np.empty_like(base_u.value)
    expected_u[perm] = base_u.value
    np.testing.assert_array_equal(perm_u.value, expected_u)
    np.testing.assert_array_equal(perm_i.value, base_i.value)


def test_encode_requires_at_least_one_layer():
    graph = tiny_graph()
    with pytest.raises(ValueError, match="at least one"):
        run_encode(graph, np.zeros((6, 4)), np.zeros((8, 4)),
                   np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4), 0)


# The op names of the encoder's tape nodes, per layer count, with both
# auxiliary graphs (True) or one ablated (False; either gives the same names).
# Each layer runs both interaction hops, then the user side's auxiliary hop and
# fusion, then the item side's; fusion stops before the last layer. The
# aggregations of e_u, e_i, e_uu and e_ii follow, in that order. Backward adds
# gradients up in reverse node order, so this order fixes the trained bits.
ENCODE_NODES = {
    (1, True): """affine sigmoid mul affine sigmoid mul spmm spmm spmm spmm
        row_l2_normalize add row_l2_normalize add row_l2_normalize add row_l2_normalize add""",
    (1, False): """affine sigmoid mul spmm spmm spmm
        row_l2_normalize add row_l2_normalize add row_l2_normalize add""",
    (2, True): """affine sigmoid mul affine sigmoid mul
        spmm spmm spmm add scale spmm add scale
        spmm spmm spmm spmm
        row_l2_normalize add row_l2_normalize add row_l2_normalize add row_l2_normalize add
        row_l2_normalize add row_l2_normalize add row_l2_normalize add row_l2_normalize add""",
    (2, False): """affine sigmoid mul spmm spmm spmm add scale spmm spmm spmm
        row_l2_normalize add row_l2_normalize add row_l2_normalize add
        row_l2_normalize add row_l2_normalize add row_l2_normalize add""",
    (3, True): """affine sigmoid mul affine sigmoid mul
        spmm spmm spmm add scale spmm add scale
        spmm spmm spmm add scale spmm add scale
        spmm spmm spmm spmm
        row_l2_normalize add row_l2_normalize add row_l2_normalize add row_l2_normalize add
        row_l2_normalize add row_l2_normalize add row_l2_normalize add row_l2_normalize add
        row_l2_normalize add row_l2_normalize add row_l2_normalize add row_l2_normalize add""",
    (3, False): """affine sigmoid mul spmm spmm spmm add scale spmm spmm spmm add scale
        spmm spmm spmm
        row_l2_normalize add row_l2_normalize add row_l2_normalize add
        row_l2_normalize add row_l2_normalize add row_l2_normalize add
        row_l2_normalize add row_l2_normalize add row_l2_normalize add""",
}

# The same nodes for 2 layers and both auxiliary graphs, each with its inputs:
# a leaf by name, an encoder node by its index in this list.
ENCODE_WIRING = [
    "affine(user_emb,user_gate_w,user_gate_b)", "sigmoid(0)", "mul(user_emb,1)",
    "affine(item_emb,item_gate_w,item_gate_b)", "sigmoid(3)", "mul(item_emb,4)",
    "spmm(item_emb)", "spmm(user_emb)", "spmm(2)", "add(6,8)", "scale(9)",
    "spmm(5)", "add(7,11)", "scale(12)",
    "spmm(13)", "spmm(10)", "spmm(8)", "spmm(11)",
    "row_l2_normalize(6)", "add(user_emb,18)", "row_l2_normalize(14)", "add(19,20)",
    "row_l2_normalize(7)", "add(item_emb,22)", "row_l2_normalize(15)", "add(23,24)",
    "row_l2_normalize(8)", "add(2,26)", "row_l2_normalize(16)", "add(27,28)",
    "row_l2_normalize(11)", "add(5,30)", "row_l2_normalize(17)", "add(31,32)",
]


def encoder_nodes(monkeypatch, layers, ablate=None):
    """The nodes ``forward_model``'s call of ``encode`` records, each as
    ``op(inputs)``."""
    abl = Ablations.from_names([ablate] if ablate else [])
    ops = build_graph_operators(tiny_graph(), np.float64, no_uu=abl.no_uu, no_ii=abl.no_ii)
    cfg = RunConfig(hyper=Hyperparams(dim=4, layers=layers, rank=2), ablations=abl)
    nodes = []

    def recording(tape, *args, **kwargs):
        start = len(tape._nodes)
        out = encode(tape, *args, **kwargs)

        def name(x):  # a node holds a leaf input as its Tensor, a produced one by position
            return x.name if isinstance(x, Tensor) else str(x - start)

        nodes.extend(f"{op}({','.join(map(name, inputs))})"
                     for op, _, inputs, _ in tape._nodes[start:])
        return out

    monkeypatch.setattr(hgcl.model, "encode", recording)
    tape = Tape()
    params = hgcl.model.init_params(6, 8, 4, 2, seed=0)
    hgcl.model.forward_model(tape, {k: tape.leaf(v, name=k) for k, v in params.items()}, ops, cfg)
    return nodes


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("ablate", [None, "uu", "ii"])
def test_encode_records_its_nodes_in_a_fixed_order(monkeypatch, layers, ablate):
    ops = [node.split("(")[0] for node in encoder_nodes(monkeypatch, layers, ablate)]
    assert ops == ENCODE_NODES[layers, ablate is None].split()


def test_encode_wires_each_node_to_its_stream(monkeypatch):
    assert encoder_nodes(monkeypatch, 2) == ENCODE_WIRING


def test_aggregate_layers_requires_at_least_one_layer():
    tape = Tape()
    with pytest.raises(ValueError, match="aggregate_layers needs at least one layer"):
        aggregate_layers(tape, tape.leaf(np.zeros((2, 2))), [])
