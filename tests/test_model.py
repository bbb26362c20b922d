"""Parameter bookkeeping, the assembled forward pass, and ablation wiring."""
import weakref

import numpy as np
import pytest

from hgcl import objectives
from hgcl.autodiff import DiffError, Tape, backward, grad_check
from hgcl.config import Ablations, Hyperparams, RunConfig, with_ablations
from hgcl.encoder import build_graph_operators, encode
from hgcl.graphs import build_hetero_graph
from hgcl.meta import (MetaMLP, apply_transform, extract_meta_knowledge, fuse_final,
                       generate_transforms)
from hgcl.model import (cl_negative_pools, compute_final_embeddings, forward_model,
                        init_params, param_order, transform_matrix_for_node)
from hgcl.objectives import LossConfig, bpr_loss, infonce_loss, total_loss
from hgcl.trainer import run_seeds, train

from conftest import small_config


def tiny_setup(m=6, n=8, dim=4, rank=2, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    ui = sorted({(int(rng.integers(m)), int(rng.integers(n))) for _ in range(3 * m)})
    uu = set()
    while len(uu) < 2 * m:
        a, b = rng.integers(m, size=2)
        if a != b:
            uu |= {(int(a), int(b)), (int(b), int(a))}
    ii = set()
    while len(ii) < 2 * n:
        a, b = rng.integers(n, size=2)
        if a != b:
            ii |= {(int(a), int(b)), (int(b), int(a))}
    graph = build_hetero_graph(ui, sorted(uu), sorted(ii), m, n)
    params = init_params(m, n, dim, rank, seed=seed, dtype=dtype)
    ops = build_graph_operators(graph, dtype)
    return graph, params, ops


def batch_for(m, n, size, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(m, size=size), rng.integers(n, size=size),
            rng.integers(n, size=size))


def model_cfg(dim=4, rank=2, abl=Ablations(), loss_cfg=None) -> RunConfig:
    """Settings of a 2-layer model with alpha 0.8 on both sides."""
    hyper = Hyperparams(dim=dim, layers=2, rank=rank, alpha_user=0.8, alpha_item=0.8)
    return RunConfig(hyper=hyper, loss=loss_cfg or LossConfig(), ablations=abl)


class KeepingTape(Tape):
    """A tape that also keeps each output it records, at its node's position."""

    def __init__(self):
        super().__init__()
        self.outputs = []

    def _emit(self, *args):
        out = super()._emit(*args)
        self.outputs.append(out)
        return out


def run_forward(params, ops, abl=Ablations(), batch=None, loss_cfg=None, tape=None, cfg=None):
    tape = Tape() if tape is None else tape
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    cfg = cfg or model_cfg(abl=abl, loss_cfg=loss_cfg)
    cache = forward_model(tape, leaves, ops, cfg, batch=batch)
    return tape, leaves, cache


def encode_leaves(tape, leaves, ops, layers=2):
    """The encoder's (view, auxiliary) pair of each side of ``leaves``."""
    gates = [(leaves[f"{side}_gate_w"], leaves[f"{side}_gate_b"]) for side in ("user", "item")]
    return encode(tape, leaves["user_emb"], leaves["item_emb"], gates, ops, layers)


def test_param_order_is_stable_and_complete():
    order = param_order(4, 2, 6, 8)
    names = [n for n, _ in order]
    assert names[0] == "user_emb" and names[1] == "item_emb"
    assert len(names) == len(set(names))
    params = init_params(6, 8, 4, 2, seed=0)
    assert list(params) == names
    shapes = dict(order)
    assert params["user_mlp1_w_out"].shape == shapes["user_mlp1_w_out"] == (4, 8)
    assert params["item_mlp2_w_out"].shape == (4, 8)
    assert params["user_transfer_slope"].shape == ()


def test_init_is_seeded_and_bounded():
    a = init_params(6, 8, 4, 2, seed=1)
    b = init_params(6, 8, 4, 2, seed=1)
    c = init_params(6, 8, 4, 2, seed=2)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)
    limit = np.sqrt(6.0 / (6 + 4))
    assert np.abs(a["user_emb"]).max() <= limit
    assert float(a["user_mlp1_slope"]) == 0.25
    np.testing.assert_array_equal(a["user_gate_b"], 0.0)


# The parameters a training step does not read under each ablation.
UNREAD = {
    None: [],
    "meta": ["user_mlp1_w_in", "user_mlp1_b_in", "user_mlp1_slope", "user_mlp1_w_out",
             "user_mlp1_b_out", "user_mlp2_w_in", "user_mlp2_b_in", "user_mlp2_slope",
             "user_mlp2_w_out", "user_mlp2_b_out", "item_mlp1_w_in", "item_mlp1_b_in",
             "item_mlp1_slope", "item_mlp1_w_out", "item_mlp1_b_out", "item_mlp2_w_in",
             "item_mlp2_b_in", "item_mlp2_slope", "item_mlp2_w_out", "item_mlp2_b_out",
             "user_transfer_slope", "item_transfer_slope"],
    "uu": ["user_gate_w", "user_gate_b", "user_mlp1_w_in", "user_mlp1_b_in", "user_mlp1_slope",
           "user_mlp1_w_out", "user_mlp1_b_out", "user_mlp2_w_in", "user_mlp2_b_in",
           "user_mlp2_slope", "user_mlp2_w_out", "user_mlp2_b_out", "user_transfer_slope"],
    "ii": ["item_gate_w", "item_gate_b", "item_mlp1_w_in", "item_mlp1_b_in", "item_mlp1_slope",
           "item_mlp1_w_out", "item_mlp1_b_out", "item_mlp2_w_in", "item_mlp2_b_in",
           "item_mlp2_slope", "item_mlp2_w_out", "item_mlp2_b_out", "item_transfer_slope"],
    "cl": [],
}


@pytest.mark.parametrize("ablation", list(UNREAD))
def test_a_parameter_is_trained_and_regularized_exactly_when_read(
        small_manifest, tmp_path, monkeypatch, ablation):
    # An ablated component's parameters keep their initial bits and stay out
    # of the L2 term; every other parameter moves, and the L2 term takes the
    # read parameters other than the PReLU slopes, in declared order.
    import hgcl.trainer as train_mod
    real, l2_inputs = train_mod.backward, []

    def recording(tape, loss, wrt):
        l2_inputs.extend([t.name for t in inputs]
                         for op, _, inputs, _ in tape._nodes if op == "sum_squares")
        return real(tape, loss, wrt)

    monkeypatch.setattr(train_mod, "backward", recording)
    cfg = small_config(small_manifest, tmp_path, epochs=1)
    cfg = with_ablations(cfg, [ablation] if ablation else [])
    ckpt = train(cfg, write_outputs=False).checkpoint
    hp = cfg.hyper
    initial = init_params(ckpt.m, ckpt.n, hp.dim, hp.rank, run_seeds(hp.seed).init, cfg.dtype)
    unread = UNREAD[ablation]
    assert set(unread) <= set(initial)
    unchanged = [k for k in initial if np.array_equal(ckpt.params[k], initial[k])]
    assert unchanged == [k for k in initial if k in unread]
    names = [name for name, _ in param_order(hp.dim, hp.rank, ckpt.m, ckpt.n)]
    read_l2 = [k for k in names if k not in unread and not k.endswith("slope")]
    assert l2_inputs and all(step == read_l2 for step in l2_inputs)


def test_forward_shapes_and_loss_components():
    graph, params, ops = tiny_setup()
    batch = batch_for(6, 8, 32)
    _, _, cache = run_forward(params, ops, batch=batch)
    assert cache.e_u_final.value.shape == (6, 4)
    assert cache.e_i_final.value.shape == (8, 4)
    tr_user, tr_item = cache.transforms
    assert tr_user.w1.value.shape == (6, 4 * 2)
    assert tr_item.w2.value.shape == (8, 2 * 4)
    assert cache.loss.value.shape == ()
    assert float(cache.cl_user.value) >= 0.0
    assert float(cache.cl_item.value) >= 0.0


def test_no_meta_zeroes_transfer_path():
    graph, params, ops = tiny_setup()
    batch = batch_for(6, 8, 16)
    tape, leaves, cache = run_forward(params, ops, abl=Ablations(no_meta=True), batch=batch)
    assert cache.transforms[0] is None
    # final fusion falls back to view + bare auxiliary
    (e_u, e_uu), _ = encode_leaves(tape, leaves, ops)
    manual = 0.8 * e_u.value + 0.2 * e_uu.value
    np.testing.assert_allclose(cache.e_u_final.value, manual, atol=1e-15)


def test_no_uu_drops_user_auxiliary_entirely():
    graph, params, ops_full = tiny_setup()
    ops = build_graph_operators(graph, np.float64, no_uu=True)
    batch = batch_for(6, 8, 16)
    tape, leaves, cache = run_forward(params, ops, abl=Ablations(no_uu=True), batch=batch)
    (e_u, e_uu), _ = encode_leaves(tape, leaves, ops)
    assert e_uu is None
    assert cache.cl_user is None and cache.cl_item is not None
    np.testing.assert_array_equal(cache.e_u_final.value, e_u.value[np.unique(batch[0])])


def test_no_cl_loss_equals_bpr():
    graph, params, ops = tiny_setup()
    batch = batch_for(6, 8, 16)
    _, _, cache = run_forward(params, ops, abl=Ablations(no_cl=True), batch=batch)
    assert cache.cl_user is None and cache.cl_item is None
    assert cache.loss is cache.bpr


def test_batch_candidates_restrict_the_contrastive_pool():
    graph, params, ops = tiny_setup()
    # batch touching only a strict subset of users/items
    batch = (np.array([0, 1, 2, 0]), np.array([1, 2, 3, 1]), np.array([4, 5, 6, 4]))
    cfg = LossConfig(cl_negatives="batch")
    _, _, cache = run_forward(params, ops, batch=batch, loss_cfg=cfg)
    full_cfg = LossConfig(cl_negatives="full")
    _, _, cache_full = run_forward(params, ops, batch=batch, loss_cfg=full_cfg)
    assert float(cache.cl_user.value) != float(cache_full.cl_user.value)
    # in-batch pool: 3 anchors against 3 candidates vs 6 against 6
    assert float(cache.cl_user.value) < float(cache_full.cl_user.value)


def test_gradients_flow_to_every_trainable_parameter():
    graph, params, ops = tiny_setup()
    batch = batch_for(6, 8, 48, seed=5)
    keys = list(params)
    tape, leaves, cache = run_forward(params, ops, batch=batch)
    grads = backward(tape, cache.loss, [leaves[k] for k in keys])
    for k, g in zip(keys, grads):
        assert g is not None, k
        assert np.isfinite(g).all(), k
        # every parameter should actually influence the loss on this instance
        assert np.abs(g).max() > 0, k


def test_compute_final_embeddings_deterministic():
    graph, params, ops = tiny_setup()
    a = compute_final_embeddings(params, ops, model_cfg())
    b = compute_final_embeddings(params, ops, model_cfg())
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ablation", [None, "meta", "uu", "ii", "cl"])
def test_the_all_rows_forward_records_no_tape_and_matches_a_recorded_one(
        monkeypatch, ablation, dtype):
    import hgcl.model as model_mod
    graph, params, _ = tiny_setup(dtype=dtype)
    abl = Ablations.from_names([ablation] if ablation else [])
    ops = build_graph_operators(graph, dtype, no_uu=abl.no_uu, no_ii=abl.no_ii)
    cfg = model_cfg(abl=abl)
    recorded = Tape()
    cache = forward_model(recorded, {k: recorded.leaf(v, name=k) for k, v in params.items()},
                          ops, cfg)
    assert recorded._nodes
    real, tapes = model_mod.forward_model, []

    def watching(tape, *args, **kwargs):
        tapes.append(tape)
        return real(tape, *args, **kwargs)

    monkeypatch.setattr(model_mod, "forward_model", watching)
    e_user, e_item = compute_final_embeddings(params, ops, cfg)
    assert len(tapes) == 1 and tapes[0]._nodes == []
    for got, want in ((e_user, cache.e_u_final.value), (e_item, cache.e_i_final.value)):
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


def test_an_unrecorded_tape_cannot_be_differentiated():
    graph, params, ops = tiny_setup()
    tape = Tape(record=False)
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    loss = tape.sum_all(leaves["user_emb"])
    with pytest.raises(DiffError, match="unrecorded"):
        backward(tape, loss, [leaves["user_emb"]])
    with pytest.raises(DiffError, match="unrecorded"):
        tape.inputs()
    with pytest.raises(DiffError, match="unrecorded"):
        forward_model(tape, leaves, ops, model_cfg(), batch=batch_for(6, 8, 16))


def test_transform_matrix_rank_bound_and_errors():
    graph, params, ops = tiny_setup()
    matrix = transform_matrix_for_node(params, ops, model_cfg(), 3, "user")
    s = np.linalg.svd(matrix, compute_uv=False)
    assert s[2] < 1e-8 * s[0]
    with pytest.raises(ValueError, match="unknown user"):
        transform_matrix_for_node(params, ops, model_cfg(), 99, "user")
    with pytest.raises(ValueError, match="side"):
        transform_matrix_for_node(params, ops, model_cfg(), 0, "tags")
    with pytest.raises(ValueError, match="without the meta"):
        transform_matrix_for_node(params, ops, model_cfg(abl=Ablations(no_meta=True)), 0, "user")


def test_float32_mode_runs_and_keeps_dtype():
    graph, params, ops = tiny_setup(dtype=np.float32)
    batch = batch_for(6, 8, 16)
    keys = list(params)
    tape, leaves, cache = run_forward(params, ops, batch=batch)
    assert cache.e_u_final.value.dtype == np.float32
    grads = dict(zip(keys, backward(tape, cache.loss, [leaves[k] for k in keys])))
    assert grads["user_emb"].dtype == np.float32


def wrap_vjps(tape, wrapper):
    """Replace each recorded node's VJP by ``wrapper(op, vjp)``."""
    tape._nodes = [(op, out, inputs, wrapper(op, vjp)) for op, out, inputs, vjp in tape._nodes]


def test_float32_training_step_keeps_every_gradient_float32():
    # Every upstream gradient a VJP receives, sums of contributions included,
    # and every array it returns stays float32.
    graph, params, ops = tiny_setup(dtype=np.float32)
    keys = list(params)
    tape, leaves, cache = run_forward(params, ops, batch=batch_for(6, 8, 16))
    wrong, calls = set(), []

    def checked(op, vjp):
        def run(g):
            calls.append(op)
            grads = vjp(g)
            wrong.update(f"{op} {a.dtype}" for a in (g, *grads) if a.dtype != np.float32)
            return grads
        return run

    wrap_vjps(tape, checked)
    grads = backward(tape, cache.loss, [leaves[k] for k in keys])
    assert len(calls) == len(tape._nodes)
    assert wrong == set()
    assert all(g.dtype == np.float32 for g in grads)


def test_backward_keeps_no_intermediate_gradient():
    # Each pending gradient is dropped once its node's VJP has run: after
    # backward returns, an upstream gradient array is alive only as a
    # returned gradient or as the base of one. (Numpy scalars, which some
    # scalar nodes receive, cannot be weakly referenced and are skipped.)
    graph, params, ops = tiny_setup()
    keys = list(params)
    tape, leaves, cache = run_forward(params, ops, batch=batch_for(6, 8, 16), tape=KeepingTape())
    calls, received = [], []

    def watched(op, vjp):
        def run(g):
            calls.append(op)
            if isinstance(g, np.ndarray):
                received.append((op, weakref.ref(g)))
            return vjp(g)
        return run

    wrap_vjps(tape, watched)
    grads = backward(tape, cache.loss, [leaves[k] for k in keys])
    assert len(calls) == len(tape._nodes)
    assert len(received) >= sum(out.value.ndim > 0 for out in tape.outputs)
    returned = {id(a) for g in grads for a in (g, g.base) if a is not None}
    kept = [op for op, ref in received if ref() is not None and id(ref()) not in returned]
    assert kept == []


def test_a_recorded_tape_keeps_no_value_that_no_vjp_reads(monkeypatch):
    # A node refers to a produced input by position, so the tape does not keep
    # the spmm layer outputs or aggregate_layers' partial sums alive: no VJP
    # captures them, and each dies once the forward code drops it.
    import hgcl.encoder as encoder_mod
    graph, params, ops = tiny_setup()
    real_spmm, real_add, real_aggregate = Tape.spmm, Tape.add, encoder_mod.aggregate_layers
    spmm_outputs, partial_sums, aggregating = [], [], []

    def spmm(tape, adj, x):
        out = real_spmm(tape, adj, x)
        spmm_outputs.append(weakref.ref(out.value))
        return out

    def add(tape, a, b):
        out = real_add(tape, a, b)
        if aggregating:
            aggregating[-1].append(weakref.ref(out.value))
        return out

    def aggregate_layers(tape, e0, layers):
        aggregating.append([])
        out = real_aggregate(tape, e0, layers)
        *partial, last = aggregating.pop()
        assert last() is out.value
        partial_sums.extend(partial)
        return out

    monkeypatch.setattr(Tape, "spmm", spmm)
    monkeypatch.setattr(Tape, "add", add)
    monkeypatch.setattr(encoder_mod, "aggregate_layers", aggregate_layers)
    tape, leaves, cache = run_forward(params, ops, batch=batch_for(6, 8, 16))
    # Two layers of two view and two auxiliary hops, then one neighbour sum per
    # side; four aggregations of two layers each.
    assert (len(spmm_outputs), len(partial_sums)) == (10, 4)
    assert tape._nodes and cache.loss is not None
    assert [ref() for ref in spmm_outputs + partial_sums] == [None] * 14


# Users {0, 1, 3} and items {0, 1, 2, 4, 5}: a strict subset of each side at
# tiny_setup()'s 6 x 8 and at 5 x 7.
SUBSET_BATCH = (np.array([0, 1, 3, 0, 1]), np.array([1, 2, 5, 2, 1]), np.array([0, 4, 2, 0, 4]))


def test_full_model_gradients_match_finite_differences_quick(monkeypatch):
    # Small spot check; the acceptance suite runs the exhaustive version.
    graph, params, ops = tiny_setup(m=5, n=7, dim=3, rank=2, seed=2)
    random_batch = batch_for(5, 7, 12, seed=2)
    cases = [  # (cl_negatives, FULL_NEGATIVES_LIMIT, batch, expected pools)
        ("auto", objectives.FULL_NEGATIVES_LIMIT, random_batch, ("full", "full")),
        ("batch", objectives.FULL_NEGATIVES_LIMIT, random_batch, ("batch", "batch")),
        ("auto", 6, random_batch, ("full", "batch")),  # 5 users <= 6 < 7 items
        ("batch", objectives.FULL_NEGATIVES_LIMIT, SUBSET_BATCH, ("batch", "batch")),
    ]
    for negatives, limit, batch, pools in cases:
        monkeypatch.setattr(objectives, "FULL_NEGATIVES_LIMIT", limit)
        cfg = model_cfg(dim=3, loss_cfg=LossConfig(cl_weight=0.3, temperature=0.2,
                                                   l2_weight=1e-4, cl_negatives=negatives))
        assert cl_negative_pools(ops, cfg) == pools

        def build(tape, ts):
            return forward_model(tape, ts, ops, cfg, batch=batch).loss

        err = grad_check(build, params, max_coords=60, seed=0)
        assert err < 1e-4, (negatives, limit, pools)


def reference_loss(tape, leaves, ops, cfg, batch):
    """The training loss with the meta path and fusion on every row and the
    batch at its global indices, built from the public blocks."""
    hp = cfg.hyper

    def mlp(prefix):
        return MetaMLP(*(leaves[f"{prefix}_{k}"] for k in ("w_in", "b_in", "slope", "w_out", "b_out")))

    (e_u, e_uu), (e_i, e_ii) = encode_leaves(tape, leaves, ops, hp.layers)
    users, pos, neg = batch
    finals, contrastive = [], []
    for side, e_view, e_aux, incidence, e_other, alpha, cands in (
            ("user", e_u, e_uu, ops.inc_ui, e_i, hp.alpha_user, np.unique(users)),
            ("item", e_i, e_ii, ops.inc_ui.T, e_u, hp.alpha_item,
             np.unique(np.concatenate([pos, neg])))):
        meta = extract_meta_knowledge(tape, e_view, e_aux, incidence, e_other)
        tr = generate_transforms(tape, meta, mlp(f"{side}_mlp1"), mlp(f"{side}_mlp2"))
        e_aux_m = apply_transform(tape, tr, e_aux, leaves[f"{side}_transfer_slope"])
        finals.append(fuse_final(tape, e_view, e_aux, e_aux_m, alpha))
        contrastive.append((tape.add(e_aux_m, e_aux), e_view, cands))
    read = tape.inputs()
    reg = [t for k, t in leaves.items() if t in read and not k.endswith("slope")]
    bpr = bpr_loss(tape, finals[0], finals[1], batch, reg, cfg.loss.l2_weight)
    cl_user, cl_item = (infonce_loss(tape, a, t, c, cfg.loss.temperature)
                        for a, t, c in contrastive)
    return total_loss(tape, bpr, cl_user, cl_item, cfg.loss)


def test_batch_rows_only_training_matches_the_all_rows_reference():
    graph, params, ops = tiny_setup()
    cfg = model_cfg(loss_cfg=LossConfig(cl_negatives="batch"))
    keys = list(params)
    tape, leaves, cache = run_forward(params, ops, batch=SUBSET_BATCH, loss_cfg=cfg.loss)
    grads = backward(tape, cache.loss, [leaves[k] for k in keys])
    ref_tape = Tape()
    ref_leaves = {k: ref_tape.leaf(v, name=k) for k, v in params.items()}
    ref = reference_loss(ref_tape, ref_leaves, ops, cfg, SUBSET_BATCH)
    ref_grads = backward(ref_tape, ref, [ref_leaves[k] for k in keys])
    np.testing.assert_allclose(cache.loss.value, ref.value, rtol=1e-12, atol=0)
    for k, got, want in zip(keys, grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=k)


def test_batch_rows_only_training_runs_the_transfer_on_the_batch_rows():
    graph, params, ops = tiny_setup()
    users, pos, neg = SUBSET_BATCH
    rows = {"user": len(np.unique(users)), "item": len(np.unique(np.concatenate([pos, neg])))}
    assert rows == {"user": 3, "item": 5}  # fewer than the 6 users and 8 items
    tape, _, cache = run_forward(params, ops, batch=SUBSET_BATCH,
                                 loss_cfg=LossConfig(cl_negatives="batch"), tape=KeepingTape())
    heights = {}
    for (op, *_), out in zip(tape._nodes, tape.outputs, strict=True):
        if op in ("prelu", "lowrank_apply", "concat_columns"):
            heights.setdefault(op, []).append(out.value.shape[0])
    assert {op: len(h) for op, h in heights.items()} == {
        "prelu": 6, "lowrank_apply": 2, "concat_columns": 2}
    assert all(h in rows.values() for hs in heights.values() for h in hs), heights
    assert cache.e_u_final.value.shape[0] == rows["user"]
    assert cache.e_i_final.value.shape[0] == rows["item"]


def restricted_step(monkeypatch, negatives, limit, layers, ablation):
    """A 200 x 300 model with ``FULL_NEGATIVES_LIMIT`` set to ``limit``, and a
    12-triple batch whose rows are a strict subset of each side."""
    monkeypatch.setattr(objectives, "FULL_NEGATIVES_LIMIT", limit)
    graph, params, _ = tiny_setup(m=200, n=300, seed=3)
    abl = Ablations.from_names([ablation] if ablation else [])
    ops = build_graph_operators(graph, np.float64, no_uu=abl.no_uu, no_ii=abl.no_ii)
    hyper = Hyperparams(dim=4, layers=layers, rank=2, alpha_user=0.8, alpha_item=0.8)
    cfg = RunConfig(hyper=hyper, loss=LossConfig(cl_negatives=negatives), ablations=abl)
    return graph, params, ops, cfg, batch_for(200, 300, 12, seed=layers)


# Both pools ``batch``, and user ``full`` with item ``batch`` (200 users <= 250
# < 300 items), the benchmark's fullcl_4k shape.
@pytest.mark.parametrize("negatives,limit", [("batch", objectives.FULL_NEGATIVES_LIMIT),
                                             ("auto", 250)])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("ablation", [None, "meta", "uu", "ii"])
def test_a_row_restricted_step_matches_the_all_rows_forward_bit_for_bit(
        monkeypatch, negatives, limit, layers, ablation):
    graph, params, ops, cfg, batch = restricted_step(monkeypatch, negatives, limit, layers,
                                                     ablation)
    pools = cl_negative_pools(ops, cfg)
    assert "full" not in pools or limit == 250
    _, _, cache = run_forward(params, ops, batch=batch, cfg=cfg)
    e_user, e_item = compute_final_embeddings(params, ops, cfg)
    users, pos, neg = batch
    for got, every, pool, idx in ((cache.e_u_final, e_user, pools[0], users),
                                  (cache.e_i_final, e_item, pools[1], np.concatenate([pos, neg]))):
        want = every if pool == "full" else every[np.unique(idx)]
        assert got.value.tobytes() == want.tobytes(), pool

    def build(tape, ts):
        return forward_model(tape, ts, ops, cfg, batch=batch).loss

    assert grad_check(build, params, max_coords=30, seed=0) < 1e-4


def encoded_row_counts(monkeypatch, ops, run):
    """Per ``encode`` call while ``run()`` runs: the row counts of its last
    layer's ``spmm`` outputs, and of every ``row_l2_normalize`` input."""
    import hgcl.model as model_mod
    real_encode, real_spmm, real_norm = model_mod.encode, Tape.spmm, Tape.row_l2_normalize
    calls, inside = [], []

    def encode(*args, **kwargs):
        calls.append(([], []))
        inside.append(True)
        out = real_encode(*args, **kwargs)
        inside.pop()
        return out

    def spmm(tape, adj, x):
        out = real_spmm(tape, adj, x)
        if inside:
            calls[-1][0].append(len(out.value))
        return out

    def row_l2_normalize(tape, x):
        if inside:
            calls[-1][1].append(len(x.value))
        return real_norm(tape, x)

    monkeypatch.setattr(model_mod, "encode", encode)
    monkeypatch.setattr(Tape, "spmm", spmm)
    monkeypatch.setattr(Tape, "row_l2_normalize", row_l2_normalize)
    run()
    hops = 2 + sum(adj is not None for adj in (ops.uu, ops.ii))  # per layer
    return [(spmms[-hops:], norms) for spmms, norms in calls]


@pytest.mark.parametrize("ablation", [None, "meta", "ii"])
def test_a_batch_step_encodes_only_its_view_and_aux_rows(monkeypatch, ablation):
    graph, params, ops, cfg, batch = restricted_step(
        monkeypatch, "batch", objectives.FULL_NEGATIVES_LIMIT, 2, ablation)
    users, pos, neg = batch
    inc = graph.binary_ui()
    loss_u, loss_i = np.unique(users), np.unique(np.concatenate([pos, neg]))
    meta_u, meta_i = ablation != "meta", ablation not in ("meta", "ii")
    # A side's view rows add the neighbours the other side's meta context sums.
    view_u = np.union1d(loss_u, inc[:, loss_i].nonzero()[0]) if meta_i else loss_u
    view_i = np.union1d(loss_i, inc[loss_u].nonzero()[1]) if meta_u else loss_i
    assert len(view_u) < 200 and len(view_i) < 300
    auxes = [len(loss_u)] + [len(loss_i)] * (ablation != "ii")
    counts = encoded_row_counts(monkeypatch, ops,
                                lambda: run_forward(params, ops, batch=batch, cfg=cfg))
    assert counts == [([len(view_u), len(view_i), *auxes],
                       [r for r in (len(view_u), len(view_i), *auxes) for _ in range(2)])]


def test_a_full_pool_step_and_evaluation_encode_every_row(monkeypatch):
    graph, params, ops, cfg, batch = restricted_step(
        monkeypatch, "full", objectives.FULL_NEGATIVES_LIMIT, 2, None)
    counts = encoded_row_counts(monkeypatch, ops, lambda: (
        run_forward(params, ops, batch=batch, cfg=cfg),
        compute_final_embeddings(params, ops, cfg)))
    assert counts == [([200, 300, 200, 300], [200, 200, 300, 300, 200, 200, 300, 300])] * 2


@pytest.mark.parametrize("negatives", ["full", "batch"])
@pytest.mark.parametrize("ablation", [None, "meta", "uu", "ii", "cl"])
def test_training_tape_records_no_dead_node(negatives, ablation):
    # Every node's output feeds a later node, except the loss: the forward
    # pass computes nothing that the loss does not read.
    graph, params, _ = tiny_setup()
    abl = Ablations.from_names([ablation] if ablation else [])
    ops = build_graph_operators(graph, np.float64, no_uu=abl.no_uu, no_ii=abl.no_ii)
    tape, _, cache = run_forward(params, ops, abl=abl, batch=SUBSET_BATCH,
                                 loss_cfg=LossConfig(cl_negatives=negatives))
    # A produced input is its node's position; a leaf input is its Tensor.
    read = {t for _, _, inputs, _ in tape._nodes for t in inputs if isinstance(t, int)}
    dead = [op for op, pos, _, _ in tape._nodes if pos not in read and pos != cache.loss.node]
    assert dead == []


def test_benchmark_tracer_binds_the_model_names(monkeypatch):
    # bench/tracer.py wraps these hgcl.model globals by name and binds
    # infonce_loss's ``candidates`` argument. Without this test, renaming one
    # or calling it other than through the module global fails only
    # ``python3 -m pytest bench``, which the main suite does not collect.
    import inspect
    from pathlib import Path

    import hgcl.model

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer

    names = ("encode", "extract_meta_knowledge", "generate_transforms", "apply_transform",
             "fuse_final", "forward_model", "bpr_loss", "infonce_loss")
    originals = {name: getattr(hgcl.model, name) for name in names}
    assert "candidates" in inspect.signature(hgcl.model.infonce_loss).parameters
    graph, params, ops = tiny_setup()
    spy = tracer.Tracer()
    with spy.installed():
        assert all(getattr(hgcl.model, name) is not originals[name] for name in names)
        tape = Tape()
        leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
        hgcl.model.forward_model(tape, leaves, ops, model_cfg(), batch=batch_for(6, 8, 16))
    assert all(getattr(hgcl.model, name) is originals[name] for name in names)
    spans = {span for (_, span) in spy.calls}
    assert {"encoder.encode", "meta.extract_meta_knowledge", "meta.generate_transforms",
            "meta.apply_transform", "meta.fuse_final", "model.forward_model",
            "objectives.bpr_loss", "objectives.infonce_loss"} <= spans
    assert spy.counts[(False, "objectives.infonce_full_calls")] == 2


def test_benchmark_tracer_binds_the_setup_names(small_manifest, tmp_path, monkeypatch):
    # bench/tracer.py times set-up by replacing these hgcl.trainer globals:
    # Probe wraps load_bundle, and Tracer load_dataset, build_hetero_graph and
    # split_leave_one_out. train() and load_bundle must call each through its
    # module global, or the set-up spans stop measuring.
    from pathlib import Path

    import hgcl.trainer

    from conftest import small_config

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer

    names = ("load_bundle", "load_dataset", "build_hetero_graph", "split_leave_one_out")
    originals = {name: getattr(hgcl.trainer, name) for name in names}
    cfg = small_config(small_manifest, tmp_path, epochs=1)
    probe = tracer.Probe()
    timed = probe.train(cfg, setup_only=True)
    assert timed.result is None and timed.setup_s > 0
    assert probe.bundle is not None
    spy = tracer.Tracer()
    with spy.installed():
        assert all(getattr(hgcl.trainer, name) is not originals[name] for name in names[1:])
        bundle = hgcl.trainer.load_bundle(cfg)
    assert all(getattr(hgcl.trainer, name) is originals[name] for name in names)
    assert {"graphs.load_dataset", "graphs.build_hetero_graph", "dataset.split"} <= {
        span for (_, span) in spy.calls}
    assert spy.counts[(False, "graphs.edges")] == bundle.graph.total_edges


def test_benchmark_tracer_binds_the_step_names(small_manifest, tmp_path, monkeypatch):
    # bench/tracer.py times each training step by replacing
    # BprSampler.next_batch and the hgcl.trainer globals forward_model,
    # backward and adam_step. train() must call each through that name once
    # per step, or the step spans stop tiling the epoch.
    from pathlib import Path

    import hgcl.trainer

    from conftest import small_config

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer

    cfg = small_config(small_manifest, tmp_path, epochs=1)
    edges = len(hgcl.trainer.load_bundle(cfg).dataset.train_edges)
    steps = -(-edges // cfg.hyper.batch_size)
    assert steps >= 2
    spy = tracer.Tracer()
    with spy.installed():
        hgcl.trainer.train(cfg)
    assert tracer.STEP_SPANS == ("dataset.next_batch", "model.forward_model",
                                 "autodiff.backward", "optim.adam_step")
    assert {span: spy.calls[(True, span)] for span in tracer.STEP_SPANS} == dict.fromkeys(
        tracer.STEP_SPANS, steps)
    assert spy.epochs == 1
