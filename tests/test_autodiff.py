"""Tape engine tests: primitive correctness against finite differences and
dense oracles, plus the tape's error contract."""
import ast
import inspect
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcl import autodiff
from hgcl.autodiff import (DiffError, SparseMatrix, Tape, backward, grad_check)
from hgcl.optim import AdamState, adam_step


def scalar_loss(tape, x):
    return tape.sum_all(x)


def test_sum_grad_is_ones():
    tape = Tape()
    x = tape.leaf(np.arange(12, dtype=float).reshape(3, 4))
    loss = tape.sum_all(x)
    [dx] = backward(tape, loss, [x])
    np.testing.assert_array_equal(dx, np.ones((3, 4)))


def test_sigmoid_grad_at_zero_is_quarter():
    tape = Tape()
    x = tape.leaf(np.zeros((3, 2)))
    loss = tape.sum_all(tape.sigmoid(x))
    [dx] = backward(tape, loss, [x])
    np.testing.assert_allclose(dx, 0.25, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_sigmoid_matches_the_masked_form_bit_for_bit(dtype):
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(0)
    special = [0.0, -0.0, 1e-30, -1e-30, np.inf, -np.inf, np.nan, -np.nan, 88.0, -88.0, 800.0, -800.0]
    for x in (np.array(special), rng.normal(scale=10.0, size=(64, 32)),
              rng.normal(size=(5, 3, 2)), np.array(-3.5), np.zeros((0, 4))):
        x = np.asarray(x, dtype=dtype)
        with np.errstate(over="ignore"):
            want = masked(x)
        got = autodiff._stable_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_grad_accumulates_across_uses():
    tape = Tape()
    x = tape.leaf(np.array([1.0, -2.0, 3.0]))
    loss = tape.sum_all(tape.add(tape.mul(x, x), x))
    [dx] = backward(tape, loss, [x])
    np.testing.assert_allclose(dx, 2 * x.value + 1, atol=1e-15)


def test_linear_loss_grad_check_nearly_exact():
    w = np.array([0.3, -1.2, 2.5])

    def build(tape, ts):
        return tape.sum_all(tape.mul(ts["x"], tape.leaf(w)))

    err = grad_check(build, {"x": np.array([1.0, 2.0, -0.5])})
    assert err < 1e-10


def test_prelu_kink_coordinate_excluded():
    # At x exactly 0 the two probes land on different branches; the checker
    # must skip the coordinate instead of reporting the subgradient mismatch.
    def build(tape, ts):
        return tape.sum_all(tape.prelu(ts["x"], tape.leaf(np.asarray(0.25))))

    err = grad_check(build, {"x": np.array([0.0, 1.0, -1.0])})
    assert err < 1e-10


def test_prelu_kink_of_a_produced_input_is_excluded():
    # The prelu input here is a primitive's output, which the tape refers to
    # by position only; the checker must still see its sign flip at x = 0.
    def build(tape, ts):
        return tape.sum_all(tape.prelu(tape.scale(ts["x"], 1.0), tape.leaf(np.asarray(0.25))))

    assert grad_check(build, {"x": np.array([0.0, 1.0, -1.0])}) < 1e-10


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(7)
    adj = SparseMatrix(sp.random(5, 6, density=0.6, random_state=11, format="csr"))
    idx = np.array([0, 2, 4])

    def build(tape, ts):
        x, w, b, s = ts["x"], ts["w"], ts["b"], ts["s"]
        w1, w2 = ts["w1"], ts["w2"]
        h = tape.spmm(adj, x)                      # (5, 3)
        h = tape.affine(h, w, b)
        h = tape.prelu(h, s)
        h = tape.row_l2_normalize(h)
        cat = tape.concat_columns(h, h)            # (5, 6)
        low = tape.lowrank_apply(w1, w2, cat)      # (6, 2) and (2, 6) factors
        cl = tape.infonce_sum(low, low, 1 / 3)
        picked = tape.gather_rows(low, idx)
        extra = tape.sum_squares(picked)
        return tape.add(cl, extra)

    inputs = {
        "x": rng.uniform(-2, 2, (6, 3)),
        "w": rng.uniform(-1, 1, (3, 3)),
        "b": rng.uniform(-0.5, 0.5, 3),
        "s": np.asarray(0.25),
        "w1": rng.uniform(-1, 1, (5, 12)),
        "w2": rng.uniform(-1, 1, (5, 12)),
    }
    err = grad_check(build, inputs, eps=1e-5, max_coords=None)
    assert err < 1e-6


# (user, positive, negative) rows into 4x4 embeddings, with repeats on
# every index so that scattered gradients accumulate.
BPR_TRIPLES = (np.array([0, 2, 2, 3, 1, 0]), np.array([1, 1, 3, 0, 2, 3]),
               np.array([2, 0, 1, 1, 3, 3]))
AFFINE_BIAS = np.array([0.5, -1.0, 0.25, 1.5])
GATHER_ROWS = np.array([3, 0, 3, 1, 1, 2])
SPMM_ADJ = sp.random(5, 4, density=0.5, random_state=3, format="csr")

PRIMITIVE_BUILDERS = {
    "add": lambda t, a, b: t.add(a, b),
    # The fused BPR op replaced sub, row_sum and softplus and keeps their case
    # ids: w.r.t. users as "sub", w.r.t. items as "row_sum", and with one
    # tensor on both sides, whose two gradients add, as "softplus".
    "sub": lambda t, a, b: t.bpr_rows(a, b, *BPR_TRIPLES),
    "mul": lambda t, a, b: t.mul(a, b),
    "scale": lambda t, a, b: t.scale(a, -1.7),
    # affine replaced matmul and add_bias and keeps the "matmul" case id.
    "matmul": lambda t, a, b: t.affine(a, b, t.leaf(AFFINE_BIAS.astype(a.value.dtype))),
    "sigmoid": lambda t, a, b: t.sigmoid(a),
    "softplus": lambda t, a, b: t.bpr_rows(a, a, *BPR_TRIPLES),
    "row_l2_normalize": lambda t, a, b: t.row_l2_normalize(a),
    # The fused InfoNCE sum replaced the cosine and log-sum-exp primitives and
    # keeps their case ids: w.r.t. anchors as "cosine_sim_matrix", w.r.t.
    # targets as "logsumexp_rows".
    "cosine_sim_matrix": lambda t, a, b: t.infonce_sum(a, b, 0.5),
    "logsumexp_rows": lambda t, a, b: t.infonce_sum(b, a, 0.5),
    "concat_columns": lambda t, a, b: t.concat_columns(a, b),
    "row_sum": lambda t, a, b: t.bpr_rows(b, a, *BPR_TRIPLES),
    "prelu": lambda t, a, b: t.prelu(a, t.leaf(np.asarray(0.3, dtype=a.value.dtype))),
    "gather_rows": lambda t, a, b: t.gather_rows(a, GATHER_ROWS),
    "spmm": lambda t, a, b: t.spmm(SparseMatrix(SPMM_ADJ.astype(a.value.dtype)), a),
    "lowrank_apply": lambda t, a, b: t.lowrank_apply(b, a, b),
    "sum_all": lambda t, a, b: t.sum_all(a),
    "sum_squares": lambda t, a, b: t.sum_squares(a, b),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
@pytest.mark.parametrize("seed", range(20))
def test_primitive_finite_difference_property(name, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, (4, 4))
    b = rng.uniform(-2, 2, (4, 4))
    op = PRIMITIVE_BUILDERS[name]

    def build(tape, ts):
        out = op(tape, ts["a"], tape.leaf(b))
        return tape.sum_all(tape.sigmoid(out))

    err = grad_check(build, {"a": a}, max_coords=None)
    assert err < 1e-6, f"{name}: {err}"


def test_every_vjp_returns_the_dtype_of_its_inputs():
    # One float64 gradient in an f32 run would carry the rest of the backward
    # pass into float64.
    rng = np.random.default_rng(0)
    recorded = set()
    for name, op in PRIMITIVE_BUILDERS.items():
        tape = Tape()
        a, b = (tape.leaf(rng.uniform(-2, 2, (4, 4)).astype(np.float32)) for _ in range(2))
        out = op(tape, a, b)
        [(prim, pos, inputs, vjp)] = tape._nodes
        assert pos == out.node == 0
        recorded.add(prim)
        grads = vjp(np.ones_like(out.value))
        assert [g.dtype for g in grads] == [np.float32] * len(inputs), f"{name}: {prim}"
    assert recorded == _recording_primitives()


@pytest.mark.parametrize("seed", range(20))
def test_prelu_and_gather_finite_difference(seed):
    rng = np.random.default_rng(100 + seed)
    idx = rng.integers(0, 4, size=6)

    def build(tape, ts):
        h = tape.prelu(ts["a"], ts["s"])
        g = tape.gather_rows(h, idx)
        return tape.sum_all(tape.mul(g, g))

    inputs = {"a": rng.uniform(-2, 2, (4, 3)), "s": np.asarray(rng.uniform(0.05, 0.5))}
    assert grad_check(build, inputs, max_coords=None) < 1e-6


def lowrank_diag_case(seed, w2_grad_scale=1.0):
    """Builder and inputs of a low-rank apply feeding InfoNCE; the scale
    multiplies the w2 gradient that lowrank_apply's VJP returns."""
    rng = np.random.default_rng(200 + seed)
    offset = rng.normal(size=(5, 4))

    def build(tape, ts):
        y = tape.lowrank_apply(ts["w1"], ts["w2"], ts["x"])
        op, out, ins, vjp = tape._nodes[-1]

        def scaled_vjp(g):
            dw1, dw2, dx = vjp(g)
            return dw1, dw2 * w2_grad_scale, dx

        tape._nodes[-1] = (op, out, ins, scaled_vjp)
        return tape.infonce_sum(y, tape.add(y, tape.leaf(offset)), 1.0)

    inputs = {"w1": rng.uniform(-2, 2, (5, 8)), "w2": rng.uniform(-2, 2, (5, 8)),
              "x": rng.uniform(-2, 2, (5, 4))}
    return build, inputs


@pytest.mark.parametrize("seed", range(20))
def test_lowrank_and_diag_finite_difference(seed):
    build, inputs = lowrank_diag_case(seed)
    assert grad_check(build, inputs, max_coords=None) < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_grad_check_fails_a_slightly_wrong_vjp(seed):
    # A gradient off by 1e-4 relative stays visible above the rounding floor.
    build, inputs = lowrank_diag_case(seed, w2_grad_scale=1 + 1e-4)
    assert grad_check(build, inputs, max_coords=None) > 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_affine_finite_difference(seed):
    rng = np.random.default_rng(300 + seed)

    def build(tape, ts):
        return tape.sum_all(tape.sigmoid(tape.affine(ts["x"], ts["w"], ts["b"])))

    inputs = {"x": rng.uniform(-2, 2, (5, 3)), "w": rng.uniform(-2, 2, (3, 4)),
              "b": rng.uniform(-2, 2, 4)}
    assert grad_check(build, inputs, max_coords=None) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_spmm_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_cols = rng.integers(5, 50, size=2)
    mat = sp.random(n_rows, n_cols, density=0.3, random_state=seed, format="csr")
    x = rng.normal(size=(n_cols, 8))
    adj = SparseMatrix(mat)
    tape = Tape()
    out = tape.spmm(adj, tape.leaf(x))
    assert np.abs(out.value - mat.toarray() @ x).max() < 1e-10

    # The transpose swaps the cached CSR pair and acts as the dense transpose,
    # forward and backward.
    adj_t = adj.T
    assert adj_t.shape == (n_cols, n_rows)
    assert adj_t.T.mat is adj.mat and adj_t.T.mat_t is adj.mat_t
    y = rng.normal(size=(n_rows, 8))
    g = rng.normal(size=(n_cols, 8))
    tape = Tape()
    y_leaf = tape.leaf(y)
    out_t = tape.spmm(adj_t, y_leaf)
    loss = tape.sum_all(tape.mul(out_t, tape.leaf(g)))
    [dy] = backward(tape, loss, [y_leaf])
    assert np.abs(out_t.value - mat.toarray().T @ y).max() < 1e-10
    assert np.abs(dy - mat.toarray() @ g).max() < 1e-10

    def build(tp, t):
        h = tp.spmm(adj_t, t["y"])
        return tp.sum_all(tp.mul(h, h))

    assert grad_check(build, {"y": y}, max_coords=64) < 1e-6


# (dtype, temperature, absolute tolerance) on each side of infonce_sum's row-max
# threshold, where 2/t passes -ln(tiny)/2: t < 0.0458 at f32 and t < 0.00565 at
# f64. Gradients grow as 1/t, and the tolerances with them.
INFONCE_BRANCHES = [(np.float64, 0.3, 1e-12), (np.float64, 0.004, 1e-10),
                    (np.float32, 0.3, 2e-5), (np.float32, 0.03, 5e-4)]


# The module constant that limits infonce_sum's blocks to 4 rows in a case,
# by its id; None keeps the defaults.
INFONCE_LIMITS = {"default": None, "chunk4": "INFONCE_CHUNK", "bytes4": "INFONCE_BLOCK_BYTES"}


def infonce_case(name, dtype, tau, atol):
    """A closed-form case; ids name the block limit, then any branch but the first."""
    row_max = 2 / tau > -0.5 * np.log(np.finfo(dtype).tiny)
    branch = f"-{np.dtype(dtype).name}-t{tau}-{'row_max' if row_max else 'bound'}"
    first = (dtype, tau, atol) == INFONCE_BRANCHES[0]
    return pytest.param(INFONCE_LIMITS[name], dtype, tau, atol, id=name + ("" if first else branch))


def infonce_closed_form(a, b, tau, g=1.0):
    """infonce_sum's loss and input gradients (times ``g``) written out densely
    in float64, each row shifted by its max; zero rows have similarity 0."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    ah = np.divide(a, na, out=np.zeros_like(a), where=na > 0)
    bh = np.divide(b, nb, out=np.zeros_like(b), where=nb > 0)
    logits = ah @ bh.T / tau
    mx = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - mx)
    loss = (np.log(e.sum(axis=1)) + mx[:, 0] - np.diag(logits)).sum()
    g_logits = (e / e.sum(axis=1, keepdims=True) - np.eye(len(a))) * g / tau
    g_ah, g_bh = g_logits @ bh, g_logits.T @ ah
    # d(x/|x|)/dx = (I - x_hat x_hat^T) / |x|, applied row by row; 0 on zero rows.
    d = a.shape[1]
    da = np.einsum("ijk,ik->ij", np.eye(d) - np.einsum("ij,ik->ijk", ah, ah), g_ah)
    db = np.einsum("ijk,ik->ij", np.eye(d) - np.einsum("ij,ik->ijk", bh, bh), g_bh)
    da = np.divide(da, na, out=np.zeros_like(da), where=na > 0)
    db = np.divide(db, nb, out=np.zeros_like(db), where=nb > 0)
    return loss, da, db


def clustered_pairs(rng, n, d, tau, sign=1.0):
    """Anchor rows near ``sign`` times one unit vector and target rows near it,
    spread so that cosines differ by about ``tau``: the softmax is neither
    uniform nor one-hot at any temperature."""
    u = np.eye(d)[0]
    spread = np.sqrt(tau)
    return (sign * u + spread * rng.normal(size=(n, d)), u + spread * rng.normal(size=(n, d)))


@pytest.mark.parametrize("limit, dtype, tau, atol", [
    infonce_case(name, *case) for name in INFONCE_LIMITS for case in INFONCE_BRANCHES])
def test_infonce_rows_matches_dense_closed_form(monkeypatch, limit, dtype, tau, atol):
    # Value and gradients against the closed form, with one zero-norm anchor
    # row and one zero-norm target row (similarity 0, zero gradient), on both
    # sides of the row-max threshold. At a limit of 4 rows, set by the chunk or
    # by a byte cap that holds 4 rows of 9 logits but not 5, the 9 rows run as
    # blocks of 4, 4 and 1: the zero anchor opens the second block and the zero
    # target is the last one. Two nodes read the loss, so its VJP gets their
    # summed, non-unit g.
    if limit == "INFONCE_CHUNK":
        monkeypatch.setattr(autodiff, limit, 4)
    elif limit is not None:
        monkeypatch.setattr(autodiff, limit, (5 * 9 - 1) * np.dtype(dtype).itemsize)
    a, b = clustered_pairs(np.random.default_rng(11), 9, 5, tau)
    a[4] = 0.0
    b[8] = 0.0
    a, b = a.astype(dtype), b.astype(dtype)
    tape = Tape()
    a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
    loss = tape.infonce_sum(a_leaf, b_leaf, tau)
    da, db = backward(tape, tape.add(tape.scale(loss, 0.7), loss), [a_leaf, b_leaf])
    expected, expected_da, expected_db = infonce_closed_form(a, b, tau, g=1.7)

    assert loss.value.shape == () and loss.value.dtype == dtype
    np.testing.assert_allclose(loss.value, expected, rtol=0, atol=atol)
    np.testing.assert_allclose(da, expected_da, rtol=0, atol=atol)
    np.testing.assert_allclose(db, expected_db, rtol=0, atol=atol)
    assert np.all(da[4] == 0.0)
    assert np.all(db[8] == 0.0)


@pytest.mark.parametrize("tau", [0.3, 0.004], ids=["bound", "row_max"])
def test_infonce_passes_grad_check_on_both_branches(tau):
    # grad_check runs at f64, where t = 0.004 takes the row-max branch. No
    # zero rows: a probe there would lift the row above NORM_FLOOR, where the
    # loss is discontinuous by design. The small eps keeps the central
    # difference's truncation error small against the 1/t^3 curvature.
    a, b = clustered_pairs(np.random.default_rng(12), 7, 5, tau)

    def build(tp, t):
        return tp.infonce_sum(t["a"], t["b"], tau)

    assert grad_check(build, {"a": a, "b": b}, eps=1e-7, max_coords=None) < 1e-6


@pytest.mark.parametrize("dtype, tau", [(np.float32, 0.01), (np.float64, 0.002)])
def test_infonce_anti_aligned_rows_stay_finite_at_extreme_temperatures(dtype, tau):
    # Every anchor points away from every target, so each row's logits sit
    # near -1/t and, shifted by the bound, near -2/t: exp underflows to 0 at
    # both dtypes (e^-200 at f32, e^-1000 at f64). The row max keeps the sum.
    a, b = clustered_pairs(np.random.default_rng(5), 6, 3, tau, sign=-1.0)
    a, b = a.astype(dtype), b.astype(dtype)
    tape = Tape()
    a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
    loss = tape.infonce_sum(a_leaf, b_leaf, tau)
    da, db = backward(tape, loss, [a_leaf, b_leaf])
    expected, expected_da, expected_db = infonce_closed_form(a, b, tau)
    assert np.isfinite(loss.value) and loss.value > 0
    rel = 1e-12 if dtype == np.float64 else 1e-4
    np.testing.assert_allclose(loss.value, expected, rtol=rel, atol=0)
    scale = max(np.abs(expected_da).max(), np.abs(expected_db).max())
    np.testing.assert_allclose(da, expected_da, rtol=0, atol=rel * scale)
    np.testing.assert_allclose(db, expected_db, rtol=0, atol=rel * scale)


def test_infonce_matches_closed_form_over_three_blocks_with_zero_rows():
    # 2 * INFONCE_CHUNK + 7 rows run as two full blocks and a 7-row tail; a zero
    # anchor opens the second block and a zero target ends the tail.
    n = 2 * autodiff.INFONCE_CHUNK + 7
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(n, 16)), rng.normal(size=(n, 16))
    b[: n // 2] += a[: n // 2]  # half the pairs aligned, half unrelated
    a[autodiff.INFONCE_CHUNK] = 0.0
    b[n - 1] = 0.0
    tape = Tape()
    a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
    loss = tape.infonce_sum(a_leaf, b_leaf, 0.2)
    da, db = backward(tape, loss, [a_leaf, b_leaf])
    expected, expected_da, expected_db = infonce_closed_form(a, b, 0.2)
    np.testing.assert_allclose(loss.value, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(da, expected_da, rtol=0, atol=1e-12)
    np.testing.assert_allclose(db, expected_db, rtol=0, atol=1e-12)


def test_infonce_rows_memory_stays_below_one_square_matrix():
    # Forward plus VJP over four blocks of rows never holds an n x n array:
    # the traced peak stays under the 32 MiB one such f64 array would take.
    n, d = 4 * autodiff.INFONCE_CHUNK, 32
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        tape = Tape()
        a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
        da, db = backward(tape, tape.infonce_sum(a_leaf, b_leaf, 0.2), [a_leaf, b_leaf])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert da.shape == db.shape == (n, d)
    assert peak < n * n * 8, f"peak {peak} B"


def test_infonce_forward_peak_is_one_capped_block_plus_rows():
    # At 4096 f64 rows a 512-row block of logits would take 16 MiB. The forward
    # holds one block of at most INFONCE_BLOCK_BYTES, and besides it the
    # normalised rows, their bound-extended copies and the two gradients, each
    # (n, d), plus smaller temporaries.
    n, d = 4096, 32
    assert autodiff.INFONCE_CHUNK * n * 8 > 2 * autodiff.INFONCE_BLOCK_BYTES
    rng = np.random.default_rng(16)
    tape = Tape()
    a_leaf, b_leaf = (tape.leaf(rng.normal(size=(n, d))) for _ in range(2))
    tracemalloc.start()
    try:
        tape.infonce_sum(a_leaf, b_leaf, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < autodiff.INFONCE_BLOCK_BYTES + 8 * n * d * 8, f"peak {peak} B"


@pytest.mark.parametrize("dtype, n", [(np.float32, 2048), (np.float64, 1024), (np.float64, 600)])
def test_infonce_pool_within_the_cap_runs_in_full_chunks(monkeypatch, dtype, n):
    # A pool whose INFONCE_CHUNK-row block fits the byte cap (exactly, at 2048
    # f32 and 1024 f64 rows) runs in INFONCE_CHUNK-row blocks, with a tail at
    # 600 rows: its loss and gradients are the bytes of an uncapped run.
    assert autodiff.INFONCE_CHUNK * n * np.dtype(dtype).itemsize <= autodiff.INFONCE_BLOCK_BYTES
    rng = np.random.default_rng(17)
    a, b = (rng.normal(size=(n, 16)).astype(dtype) for _ in range(2))

    def run():
        tape = Tape()
        a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
        loss = tape.infonce_sum(a_leaf, b_leaf, 0.2)
        return (loss.value, *backward(tape, loss, [a_leaf, b_leaf]))

    capped = run()
    monkeypatch.setattr(autodiff, "INFONCE_BLOCK_BYTES", 1 << 62)
    for got, want in zip(capped, run()):
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_infonce_backward_rebuilds_no_logit_block(dtype):
    # The forward leaves the gradient ready, so backward over four blocks of
    # rows allocates less than one chunk x n block of logits; the dtype holds.
    n, d = 4 * autodiff.INFONCE_CHUNK, 32
    rng = np.random.default_rng(14)
    tape = Tape()
    a_leaf, b_leaf = (tape.leaf(rng.normal(size=(n, d)).astype(dtype)) for _ in range(2))
    loss = tape.infonce_sum(a_leaf, b_leaf, 0.2)
    tracemalloc.start()
    try:
        da, db = backward(tape, loss, [a_leaf, b_leaf])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loss.value.dtype == da.dtype == db.dtype == dtype
    assert peak < autodiff.INFONCE_CHUNK * n * np.dtype(dtype).itemsize, f"peak {peak} B"


@pytest.mark.parametrize("shared", [False, True], ids=["two_tables", "one_table"])
def test_bpr_rows_matches_closed_form(shared):
    # Values and both gradients against numpy, with repeated users and items;
    # with one table on both sides its gradient is the sum of the two.
    rng = np.random.default_rng(12)
    e_u = rng.normal(size=(5, 4))
    e_i = e_u if shared else rng.normal(size=(7, 4))
    users = np.array([0, 3, 3, 1, 0, 4, 3])
    pos = np.array([2, 2, 0, 4, 1, 2, 3])
    neg = np.array([1, 4, 4, 0, 1, 3, 0])
    weights = rng.uniform(0.5, 2.0, len(users))
    tape = Tape()
    u_leaf = tape.leaf(e_u)
    i_leaf = u_leaf if shared else tape.leaf(e_i)
    rows = tape.bpr_rows(u_leaf, i_leaf, users, pos, neg)
    loss = tape.sum_all(tape.mul(rows, tape.leaf(weights)))
    du_got, di_got = backward(tape, loss, [u_leaf, i_leaf])

    diff = (e_u[users] * (e_i[neg] - e_i[pos])).sum(axis=1)
    coef = weights / (1.0 + np.exp(-diff))  # weight * sigmoid(s_neg - s_pos)
    du = np.zeros_like(e_u)
    di = np.zeros_like(e_i)
    np.add.at(du, users, coef[:, None] * (e_i[neg] - e_i[pos]))
    np.add.at(di, neg, coef[:, None] * e_u[users])
    np.add.at(di, pos, -coef[:, None] * e_u[users])
    np.testing.assert_allclose(rows.value, np.logaddexp(0.0, diff), rtol=0, atol=1e-12)
    if shared:
        np.testing.assert_allclose(du_got, du + di, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(du_got, du, rtol=0, atol=1e-12)
        np.testing.assert_allclose(di_got, di, rtol=0, atol=1e-12)


def test_sum_squares_matches_closed_form():
    rng = np.random.default_rng(13)
    xs = [rng.normal(size=(3, 4)), rng.normal(size=5), np.asarray(1.5)]
    tape = Tape()
    leaves = [tape.leaf(x) for x in xs]
    loss = tape.scale(tape.sum_squares(*leaves), 0.3)
    grads = backward(tape, loss, leaves)
    assert abs(float(loss.value) - 0.3 * sum((x * x).sum() for x in xs)) < 1e-12
    for x, g in zip(xs, grads):
        np.testing.assert_allclose(g, 2 * 0.3 * x, rtol=0, atol=1e-12)

    def build(tp, t):
        return tp.sum_squares(t["a"], t["b"])

    assert grad_check(build, {"a": xs[0], "b": xs[1]}, max_coords=None) < 1e-6


def test_lowrank_matches_per_row_loop_oracle():
    rng = np.random.default_rng(3)
    w1 = rng.normal(size=(7, 4, 2))
    w2 = rng.normal(size=(7, 2, 4))
    x = rng.normal(size=(7, 4))
    tape = Tape()
    out = tape.lowrank_apply(tape.leaf(w1.reshape(7, 8)), tape.leaf(w2.reshape(7, 8)),
                             tape.leaf(x))
    expected = np.stack([w1[r] @ (w2[r] @ x[r]) for r in range(7)])
    assert np.abs(out.value - expected).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
                min_size=1, max_size=8))
def test_row_normalize_unit_norms(rows):
    x = np.array(rows, dtype=float)
    tape = Tape()
    out = tape.row_l2_normalize(tape.leaf(x)).value
    norms = np.linalg.norm(x, axis=1)
    big = norms >= 1e-12
    got = np.linalg.norm(out[big], axis=1)
    assert np.all(np.abs(got - 1.0) < 1e-12)
    np.testing.assert_array_equal(out[~big], x[~big])  # passthrough rows


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(5)
    x_val = rng.normal(size=(6, 3))
    w_val = rng.normal(size=(3, 3))
    b_val = rng.normal(size=3)

    def run():
        tape = Tape()
        leaves = [tape.leaf(v) for v in (x_val, w_val, b_val)]
        xw = tape.affine(*leaves)
        loss = tape.infonce_sum(tape.row_l2_normalize(xw), xw, 0.2)
        first = [g.copy() for g in backward(tape, loss, leaves)]
        second = backward(tape, loss, leaves)  # a second pass over the same sealed tape
        assert [g.tobytes() for g in second] == [g.tobytes() for g in first]
        return first

    assert [g.tobytes() for g in run()] == [g.tobytes() for g in run()]


def test_accumulation_never_writes_into_a_shared_gradient():
    # add hands one gradient array to both x and y. Backward reaches it before
    # the scale, so x's second contribution arrives after y already holds it.
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    y = tape.leaf(np.array([3.0, 4.0]))
    tripled = tape.scale(x, 3.0)
    dx, dy = backward(tape, tape.sum_all(tape.add(tape.add(x, y), tripled)), [x, y])
    np.testing.assert_array_equal(dy, [1.0, 1.0])
    np.testing.assert_array_equal(dx, [4.0, 4.0])


def test_in_place_accumulation_never_writes_into_a_view_of_a_shared_gradient():
    # add hands one array to cat and w; concat_columns hands x a view of it.
    # x's next two contributions must go into an array backward built.
    tape = Tape()
    x, y, w = (tape.leaf(np.ones(shape)) for shape in ((1, 2), (1, 1), (1, 3)))
    thrice, five_times = tape.scale(x, 3.0), tape.scale(x, 5.0)
    cat = tape.concat_columns(x, y)
    loss = tape.add(tape.sum_all(tape.add(cat, w)),
                    tape.add(tape.sum_all(thrice), tape.sum_all(five_times)))
    dx, dy, dw = backward(tape, loss, [x, y, w])
    np.testing.assert_array_equal(dw, [[1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(dy, [[1.0]])
    np.testing.assert_array_equal(dx, [[9.0, 9.0]])


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    out = tape.mul(x, x)
    with pytest.raises(DiffError, match="scalar"):
        backward(tape, out, [x])


def test_backward_rejects_a_produced_tensor_in_wrt():
    # Only leaves keep their gradient to the end of the pass.
    tape = Tape()
    x = tape.leaf(np.ones(3))
    doubled = tape.scale(x, 2.0)
    with pytest.raises(DiffError, match="leaves only"):
        backward(tape, tape.sum_all(doubled), [x, doubled])


def test_backward_returns_none_for_an_unreached_leaf():
    tape = Tape()
    x, unused = tape.leaf(np.ones(3)), tape.leaf(np.ones(2))
    dx, dunused = backward(tape, tape.sum_all(x), [x, unused])
    np.testing.assert_array_equal(dx, np.ones(3))
    assert dunused is None


def test_record_after_backward_is_error():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    backward(tape, tape.sum_all(x), [x])
    with pytest.raises(DiffError, match="after backward"):
        tape.mul(x, x)


def test_nan_gradient_names_the_primitive():
    tape = Tape()
    x = tape.leaf(np.array([[np.inf, 1.0]]))
    with np.errstate(invalid="ignore"):  # inf * 0 inside the row scaling
        loss = tape.sum_all(tape.row_l2_normalize(x))
    with np.errstate(invalid="ignore"), pytest.raises(DiffError, match="row_l2_normalize"):
        backward(tape, loss, [x])


def test_overflowing_gradient_names_the_primitive():
    # The forward value (1e300) is finite; the inner scale's VJP overflows to inf.
    tape = Tape()
    x = tape.leaf(np.array([1e-300]))
    loss = tape.sum_all(tape.scale(tape.scale(x, 1e300), 1e300))
    assert np.isfinite(loss.value)
    with np.errstate(over="ignore"), pytest.raises(DiffError, match="non-finite.*'scale'"):
        backward(tape, loss, [x])


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_non_finite_upstream_gradient_reaches_an_input(name, dtype):
    # backward checks finiteness only on the returned gradients, so every VJP
    # must carry a NaN or inf at any one entry of its upstream gradient into
    # some input gradient. spmm is the one exception, pinned below.
    rng = np.random.default_rng(1)
    tape = Tape()
    a, b = (tape.leaf(rng.uniform(-2, 2, (4, 4)).astype(dtype)) for _ in range(2))
    out = PRIMITIVE_BUILDERS[name](tape, a, b)
    op, _, inputs, vjp = tape._nodes[out.node]
    empty_rows = set(np.flatnonzero(np.diff(SPMM_ADJ.indptr) == 0)) if op == "spmm" else set()
    for pos in np.ndindex(out.value.shape):
        for bad in (np.nan, np.inf, -np.inf):
            g = rng.uniform(-2, 2, out.value.shape).astype(dtype)
            g[pos] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                reached = any(not np.isfinite(gi).all() for gi in vjp(g))
            dropped = bool(pos) and pos[0] in empty_rows
            assert reached != dropped, f"{op} at {pos}: {bad}"


def test_a_non_finite_gradient_at_an_empty_spmm_row_no_longer_raises():
    # Row 0 of the operator is empty, so the inf that mul's VJP writes at row
    # 0 of spmm's output gradient reaches no input: no parameter sees it, and
    # backward, which checks only the gradients it returns, returns.
    adj = SparseMatrix(sp.csr_matrix(np.array([[0.0, 0.0], [0.5, 0.5]])))
    tape = Tape()
    x = tape.leaf(np.array([[1.0], [2.0]]))
    weights = tape.leaf(np.array([[1e300], [1.0]]))
    loss = tape.sum_all(tape.scale(tape.mul(tape.spmm(adj, x), weights), 1e300))
    assert np.isfinite(loss.value)
    with np.errstate(over="ignore"):
        [dx] = backward(tape, loss, [x])
    assert np.isfinite(dx).all()


def test_a_leaf_gradient_that_overflows_only_when_added_fails_in_adam():
    # Each scale's VJP writes a finite 1e308; their sum in x's gradient is
    # inf. No primitive produced it, so backward returns and adam_step refuses.
    tape = Tape()
    x = tape.leaf(np.array([1e-300]), name="x")
    loss = tape.add(tape.sum_all(tape.scale(x, 1e308)), tape.sum_all(tape.scale(x, 1e308)))
    assert np.isfinite(loss.value)
    with np.errstate(over="ignore"):
        [dx] = backward(tape, loss, [x])
    assert np.isinf(dx).all()
    with pytest.raises(FloatingPointError, match="non-finite gradient for parameter 'x'"):
        adam_step({"x": x.value}, {"x": dx}, AdamState(), 0.1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("idx", [[0, 2, 5, 7], [1, 3, 6], [4, 1, 4, 0, 7, 4], [6, 0, 3, 2]],
                         ids=["unique_sorted", "negative_zeros", "repeated", "unsorted"])
def test_scatter_rows_equals_add_at(idx, dtype):
    idx = np.array(idx)
    rows = np.random.default_rng(2).normal(size=(len(idx), 3)).astype(dtype)
    rows[:, 1] = -0.0
    expected = np.zeros((8, 3), dtype)
    np.add.at(expected, idx, rows)
    got = autodiff._scatter_rows((8, 3), idx, rows)
    assert got.dtype == dtype and got.tobytes() == expected.tobytes()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-45, -1e-45, 1e30, -1e30]
SLOPES = [-0.5, 0.0, 0.25, 1.0, 2.0]


def where_forms(x, g, a):
    """The np.where forms the sigmoid and prelu computed before."""
    e = np.exp(np.minimum(x, -x))
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = np.where(x >= 0, x, a * x)
    dx = np.where(x >= 0, g, g * a)
    da = np.asarray((g * np.where(x < 0, x, 0.0)).sum(), dtype=g.dtype)
    return sig, out, dx, da


def assert_selects_match(x, g, a):
    tape = Tape()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        y = tape.prelu(tape.leaf(x), tape.leaf(np.asarray(a, dtype=x.dtype)))
        got = (autodiff._stable_sigmoid(x), y.value, *tape._nodes[-1][3](g))
        want = where_forms(x, g, a)
    for part, w in zip(got, want):
        assert part.dtype == w.dtype == x.dtype and part.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), a=st.sampled_from(SLOPES),
       data=st.data())
def test_branch_free_selects_equal_the_where_forms(dtype, a, data):
    width = 32 if dtype == np.float32 else 64
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False, width=width))
    n = data.draw(st.integers(1, 12))
    x, g = (np.array(data.draw(st.lists(value, min_size=n, max_size=n)), dtype=dtype)
            for _ in range(2))
    assert_selects_match(x, g, a)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_free_selects_equal_the_where_forms_on_every_special_pair(dtype):
    # Every pair of special values, whatever hypothesis happens to draw.
    for x, g, a in itertools.product(SPECIAL_FLOATS, SPECIAL_FLOATS, SLOPES):
        assert_selects_match(np.array([x], dtype), np.array([g], dtype), a)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_free_selects_keep_nan(dtype):
    x = np.array([np.nan, -np.nan, 1.0], dtype=dtype)
    for a in SLOPES:
        tape = Tape()
        out = tape.prelu(tape.leaf(x), tape.leaf(np.asarray(a, dtype=dtype))).value
        assert np.isnan(out[:2]).all() and out[2] == 1.0
    assert np.isnan(autodiff._stable_sigmoid(x)[:2]).all()


def test_gather_rows_bounds_checked():
    tape = Tape()
    x = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="out of range"):
        tape.gather_rows(x, np.array([0, 3]))
    with pytest.raises(ValueError, match="out of range"):
        tape.gather_rows(x, np.array([-1]))


def test_shape_mismatches_raise():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError):
        tape.add(a, b)
    with pytest.raises(ValueError):
        tape.mul(a, b)
    with pytest.raises(ValueError, match="affine"):  # bias width differs
        tape.affine(a, b, tape.leaf(np.ones(3)))
    with pytest.raises(ValueError, match="affine"):  # inner widths differ
        tape.affine(a, tape.leaf(np.ones((2, 2))), tape.leaf(np.ones(2)))
    for w1, w2 in ((np.ones((2, 4)), np.ones((2, 4))),     # width not a multiple of d
                   (np.ones((2, 6)), np.ones((2, 3))),     # factor widths differ
                   (np.ones((3, 6)), np.ones((3, 6))),     # row counts differ
                   (np.ones((2, 3, 2)), np.ones((2, 6)))):  # not flat
        with pytest.raises(ValueError, match="lowrank_apply"):
            tape.lowrank_apply(tape.leaf(w1), tape.leaf(w2), a)
    for other in (np.ones((4, 3)), np.ones((2, 2))):  # rows differ, columns differ
        with pytest.raises(ValueError, match="infonce_sum"):
            tape.infonce_sum(a, tape.leaf(other), 0.2)
    with pytest.raises(ValueError, match="infonce_sum"):
        tape.infonce_sum(tape.leaf(np.ones(3)), tape.leaf(np.ones(3)), 0.2)
    idx = np.array([0, 1])
    with pytest.raises(ValueError, match="bpr_rows"):  # embedding widths differ
        tape.bpr_rows(a, b, idx, idx, idx)
    items = tape.leaf(np.ones((3, 3)))
    for bad in ((idx[None, :], idx[None, :], idx[None, :]),  # 2-d index
                (idx, idx, np.array([0])),                   # lengths differ
                (idx, np.array([0, 3]), idx),                # past the last row
                (np.array([-1, 0]), idx, idx)):              # negative
        with pytest.raises(ValueError, match="bpr_rows"):
            tape.bpr_rows(a, items, *bad)


MISUSE = {
    "spmm-shapes": (lambda t: t.spmm(SparseMatrix(sp.csr_matrix((2, 3))), t.leaf(np.ones((2, 2)))),
                    ValueError, r"spmm: incompatible shapes \(2, 3\) x \(2, 2\)"),
    "gather_rows-2d-index": (lambda t: t.gather_rows(t.leaf(np.ones((3, 2))), np.zeros((1, 1), int)),
                             ValueError, "gather_rows expects a 1-d index array"),
    "concat_columns-one-part": (lambda t: t.concat_columns(t.leaf(np.ones((2, 2)))),
                                ValueError, "concat_columns needs at least two parts"),
    "concat_columns-rows": (lambda t: t.concat_columns(t.leaf(np.ones((2, 2))),
                                                       t.leaf(np.ones((3, 2)))),
                            ValueError, "concat_columns: row counts differ"),
    "concat_columns-1d": (lambda t: t.concat_columns(t.leaf(np.ones((2, 2))), t.leaf(np.ones(2))),
                          ValueError, r"concat_columns expects 2-d parts, got \[\(2, 2\), \(2,\)\]"),
    "concat_columns-0d-first": (lambda t: t.concat_columns(t.leaf(np.ones(())), t.leaf(np.ones((1, 2)))),
                                ValueError, "concat_columns expects 2-d parts"),
    "prelu-slope": (lambda t: t.prelu(t.leaf(np.ones((2, 2))), t.leaf(np.ones(1))),
                    ValueError, "prelu slope must be a scalar tensor"),
    "row_l2_normalize-1d": (lambda t: t.row_l2_normalize(t.leaf(np.ones(3))),
                            ValueError, "row_l2_normalize expects a 2-d tensor"),
    "grad_check-non-scalar": (lambda t: grad_check(lambda tape, xs: tape.scale(xs["x"], 2.0),
                                                   {"x": np.ones(3)}),
                              DiffError, "grad_check requires a scalar loss"),
    "adam_step-lr": (lambda t: adam_step({"x": np.ones(2)}, {"x": np.ones(2)}, AdamState(), 0.0),
                     ValueError, "learning rate must be > 0"),
}


@pytest.mark.parametrize("case", sorted(MISUSE))
def test_misuse_fails_with_a_named_error(case):
    call, error, match = MISUSE[case]
    tape = Tape()
    with pytest.raises(error, match=match):
        call(tape)
    assert tape._nodes == []


def test_backward_never_runs_the_vjp_of_a_node_the_loss_does_not_reach():
    # One unreached node is recorded before the loss and one after it; both
    # read the leaf whose gradient is taken.
    tape = Tape()
    x = tape.leaf(np.arange(3.0))
    tape.scale(x, 2.0)
    loss = tape.sum_all(x)
    tape.mul(x, x)
    ran = []

    def spy(g):
        ran.append(g)
        return (g,)

    for i in (0, 2):
        op, out, inputs, _ = tape._nodes[i]
        tape._nodes[i] = (op, out, inputs, spy)
    (dx,) = backward(tape, loss, [x])
    np.testing.assert_array_equal(dx, np.ones(3))
    assert ran == []


def test_grad_check_subset_is_seeded_and_bounded():
    rng = np.random.default_rng(0)
    big = rng.normal(size=(30, 30))

    def build(tape, ts):
        return tape.sum_all(tape.mul(ts["x"], ts["x"]))

    err1 = grad_check(build, {"x": big}, max_coords=50, seed=4)
    err2 = grad_check(build, {"x": big}, max_coords=50, seed=4)
    assert err1 == err2
    # f sums 900 squared terms, so the probe differences carry cancellation
    # noise; the bound only needs to show the subset check is sane.
    assert err1 < 1e-5


def test_grad_check_does_not_probe_an_input_the_loss_never_reads():
    rng = np.random.default_rng(1)
    inputs = {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=1000)}
    calls = []

    def build(tape, ts):
        calls.append(None)
        return tape.sum_all(tape.mul(ts["x"], ts["x"]))

    assert grad_check(build, inputs, max_coords=None) < 1e-6
    # One analytic pass and two evaluations per coordinate of x alone.
    assert len(calls) == 1 + 2 * inputs["x"].size


def _recording_primitives():
    """Public Tape methods whose body records a node through ``_emit``."""
    return {name for name, fn in vars(Tape).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and "self._emit(" in inspect.getsource(fn)}


def _grad_checked_methods():
    """Method names called by every test that runs ``grad_check``, following
    the module-level builders and tables the test refers to by name."""
    covered = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                top[node.name] = node
            elif isinstance(node, ast.Assign):
                top.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("test_")):
                continue
            calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)]
            if not any(getattr(c.func, "id", None) == "grad_check" for c in calls):
                continue
            pending, seen = [node], set()
            while pending:
                for sub in ast.walk(pending.pop()):
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                        covered.add(sub.func.attr)
                    elif (isinstance(sub, ast.Name) and sub.id in top
                          and sub.id not in seen):
                        seen.add(sub.id)
                        pending.append(top[sub.id])
    return covered


def test_every_primitive_has_a_model_caller():
    # A primitive that only tests call is dead code on the tape.
    called = set()
    for path in Path(inspect.getfile(Tape)).parent.glob("*.py"):
        if path.name != "autodiff.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            called.update(node.func.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute))
    missing = sorted(_recording_primitives() - called)
    assert not missing, f"primitives no hgcl module calls: {missing}"


def test_every_primitive_is_grad_checked():
    primitives = _recording_primitives()
    assert "infonce_sum" in primitives and "leaf" not in primitives
    missing = sorted(primitives - _grad_checked_methods())
    assert not missing, f"primitives without a grad_check test: {missing}"
