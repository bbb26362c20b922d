"""Tape engine tests: primitive correctness against finite differences and
dense oracles, plus the tape's error contract."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcl.autodiff import (DiffError, SparseMatrix, Tape, backward, grad_check)


def scalar_loss(tape, x):
    return tape.sum_all(x)


def test_sum_grad_is_ones():
    tape = Tape()
    x = tape.leaf(np.arange(12, dtype=float).reshape(3, 4), trainable=True)
    loss = tape.sum_all(x)
    tape.finalize()
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_sigmoid_grad_at_zero_is_quarter():
    tape = Tape()
    x = tape.leaf(np.zeros((3, 2)), trainable=True)
    loss = tape.sum_all(tape.sigmoid(x))
    tape.finalize()
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, 0.25, rtol=0, atol=1e-15)


def test_grad_accumulates_across_uses():
    tape = Tape()
    x = tape.leaf(np.array([1.0, -2.0, 3.0]), trainable=True)
    loss = tape.sum_all(tape.add(tape.mul(x, x), x))
    tape.finalize()
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, 2 * x.value + 1, atol=1e-15)


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


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(7)
    adj = SparseMatrix(sp.random(5, 6, density=0.6, random_state=11, format="csr"))
    idx = np.array([0, 2, 4])

    def build(tape, ts):
        x, w, b, s = ts["x"], ts["w"], ts["b"], ts["s"]
        w1, w2 = ts["w1"], ts["w2"]
        h = tape.spmm(adj, x)                      # (5, 3)
        h = tape.add_bias(tape.matmul(h, w), b)
        h = tape.prelu(h, s)
        h = tape.row_l2_normalize(h)
        cat = tape.concat_columns(h, h)            # (5, 6)
        low = tape.lowrank_apply(tape.reshape_rows(w1, (6, 2)),
                                 tape.reshape_rows(w2, (2, 6)), cat)
        sims = tape.cosine_sim_matrix(low, low)
        scaled = tape.scale(sims, 3.0)
        per_row = tape.sub(tape.logsumexp_rows(scaled), tape.take_diag(scaled))
        picked = tape.gather_rows(low, idx)
        extra = tape.row_sum(tape.mul(picked, picked))
        return tape.add(tape.sum_all(per_row), tape.sum_all(tape.softplus(extra)))

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


PRIMITIVE_BUILDERS = {
    "add": lambda t, a, b: t.add(a, b),
    "sub": lambda t, a, b: t.sub(a, b),
    "mul": lambda t, a, b: t.mul(a, b),
    "scale": lambda t, a, b: t.scale(a, -1.7),
    "matmul": lambda t, a, b: t.matmul(a, b),
    "sigmoid": lambda t, a, b: t.sigmoid(a),
    "softplus": lambda t, a, b: t.softplus(a),
    "row_l2_normalize": lambda t, a, b: t.row_l2_normalize(a),
    "logsumexp_rows": lambda t, a, b: t.logsumexp_rows(a),
    "cosine_sim_matrix": lambda t, a, b: t.cosine_sim_matrix(a, b),
    "concat_columns": lambda t, a, b: t.concat_columns(a, b),
    "row_sum": lambda t, a, b: t.row_sum(a),
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
        return tape.sum_all(tape.softplus(out))

    err = grad_check(build, {"a": a}, max_coords=None)
    assert err < 1e-6, f"{name}: {err}"


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


@pytest.mark.parametrize("seed", range(20))
def test_lowrank_and_diag_finite_difference(seed):
    rng = np.random.default_rng(200 + seed)
    mask = rng.normal(size=(5, 5))

    def build(tape, ts):
        y = tape.lowrank_apply(ts["w1"], ts["w2"], ts["x"])
        sims = tape.cosine_sim_matrix(y, y)
        weighted = tape.mul(sims, tape.leaf(mask))
        return tape.add(tape.sum_all(weighted),
                        tape.sum_all(tape.take_diag(sims)))

    inputs = {"w1": rng.uniform(-2, 2, (5, 4, 2)), "w2": rng.uniform(-2, 2, (5, 2, 4)),
              "x": rng.uniform(-2, 2, (5, 4))}
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
    y_leaf = tape.leaf(y, trainable=True)
    out_t = tape.spmm(adj_t, y_leaf)
    loss = tape.sum_all(tape.mul(out_t, tape.leaf(g)))
    tape.finalize()
    backward(tape, loss)
    assert np.abs(out_t.value - mat.toarray().T @ y).max() < 1e-10
    assert np.abs(y_leaf.grad - mat.toarray() @ g).max() < 1e-10

    def build(tp, t):
        h = tp.spmm(adj_t, t["y"])
        return tp.sum_all(tp.mul(h, h))

    assert grad_check(build, {"y": y}, max_coords=64) < 1e-6


def test_lowrank_matches_per_row_loop_oracle():
    rng = np.random.default_rng(3)
    w1 = rng.normal(size=(7, 4, 2))
    w2 = rng.normal(size=(7, 2, 4))
    x = rng.normal(size=(7, 4))
    tape = Tape()
    out = tape.lowrank_apply(tape.leaf(w1), tape.leaf(w2), tape.leaf(x))
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

    def run():
        tape = Tape()
        x = tape.leaf(x_val, trainable=True)
        w = tape.leaf(w_val, trainable=True)
        h = tape.row_l2_normalize(tape.matmul(x, w))
        sims = tape.cosine_sim_matrix(h, h)
        loss = tape.sum_all(tape.logsumexp_rows(sims))
        tape.finalize()
        backward(tape, loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert gx1.tobytes() == gx2.tobytes()
    assert gw1.tobytes() == gw2.tobytes()


def test_backward_requires_finalized_tape():
    tape = Tape()
    x = tape.leaf(np.ones(3), trainable=True)
    loss = tape.sum_all(x)
    with pytest.raises(DiffError, match="finalized"):
        backward(tape, loss)


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones(3), trainable=True)
    out = tape.mul(x, x)
    tape.finalize()
    with pytest.raises(DiffError, match="scalar"):
        backward(tape, out)


def test_record_after_finalize_is_error():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    tape.finalize()
    with pytest.raises(DiffError, match="finalized"):
        tape.mul(x, x)


def test_nan_gradient_names_the_primitive():
    tape = Tape()
    x = tape.leaf(np.array([[np.inf, 1.0]]), trainable=True)
    with np.errstate(invalid="ignore"):  # inf - inf inside the row shift
        loss = tape.sum_all(tape.logsumexp_rows(x))
    tape.finalize()
    with pytest.raises(DiffError, match="logsumexp_rows"):
        backward(tape, loss)


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
    with pytest.raises(ValueError):
        tape.add_bias(a, tape.leaf(np.ones(2)))
    with pytest.raises(ValueError):
        tape.matmul(a, tape.leaf(np.ones((2, 2))))


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
