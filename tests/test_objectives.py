"""Loss oracles: closed-form values, invariances, and optimizer behavior."""
import math
import tracemalloc

import numpy as np
import pytest

from hgcl.autodiff import Tape, backward
from hgcl.objectives import (LossConfig, bpr_loss, infonce_loss, predict_scores,
                             total_loss)
from hgcl.optim import AdamState, adam_step


def test_predict_scores_dot_products():
    e_u = np.array([[1.0, 2.0]])
    e_i = np.array([[3.0, -1.0], [0.0, 0.0]])
    pairs = np.array([[0, 0], [0, 1]])
    np.testing.assert_allclose(predict_scores(e_u, e_i, pairs), [1.0, 0.0])


def test_predict_scores_bounds_check():
    e_u = np.ones((2, 3))
    e_i = np.ones((4, 3))
    with pytest.raises(ValueError, match="user index"):
        predict_scores(e_u, e_i, np.array([[2, 0]]))
    with pytest.raises(ValueError, match="item index"):
        predict_scores(e_u, e_i, np.array([[0, 4]]))


def test_scores_invariant_under_joint_rotation():
    rng = np.random.default_rng(0)
    e_u = rng.normal(size=(6, 5))
    e_i = rng.normal(size=(9, 5))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    pairs = np.stack([rng.integers(6, size=20), rng.integers(9, size=20)], axis=1)
    base = predict_scores(e_u, e_i, pairs)
    rotated = predict_scores(e_u @ q, e_i @ q, pairs)
    assert np.abs(base - rotated).max() < 1e-10


@pytest.mark.parametrize("count", [2, 5, 50])
def test_infonce_identical_embeddings_is_m_log_m(count):
    rows = np.tile(np.array([[1.0, 2.0, -1.0]]), (count, 1))
    tape = Tape()
    loss = infonce_loss(tape, tape.leaf(rows), tape.leaf(rows), None, temperature=0.2)
    assert abs(float(loss.value) - count * math.log(count)) < 1e-6


def test_infonce_two_user_orthogonal_case():
    # Anchors aligned with their own target and orthogonal to the other;
    # each term is -ln(e / (e + 1)) at unit temperature.
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    tape = Tape()
    loss = infonce_loss(tape, tape.leaf(anchors), tape.leaf(anchors), None, temperature=1.0)
    expected = 2 * -math.log(math.e / (math.e + 1))
    assert abs(float(loss.value) - expected) < 1e-9
    assert abs(expected / 2 - 0.31326) < 1e-5


def test_infonce_invariant_to_anchor_rescaling():
    rng = np.random.default_rng(1)
    anchors = rng.normal(size=(5, 4))
    targets = rng.normal(size=(5, 4))

    def value(a):
        tape = Tape()
        return float(infonce_loss(tape, tape.leaf(a), tape.leaf(targets), None, 0.2).value)

    scaled = anchors.copy()
    scaled[2] *= 37.5
    assert abs(value(anchors) - value(scaled)) < 1e-12


def test_infonce_total_is_nonnegative():
    rng = np.random.default_rng(2)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        tape = Tape()
        loss = infonce_loss(tape, tape.leaf(rng.normal(size=(6, 3))),
                            tape.leaf(rng.normal(size=(6, 3))), None, 0.2)
        assert float(loss.value) >= 0.0


def test_infonce_candidate_subset_restricts_pool():
    rng = np.random.default_rng(3)
    anchors = rng.normal(size=(8, 4))
    targets = rng.normal(size=(8, 4))
    cands = np.array([1, 4, 6])
    tape = Tape()
    loss = infonce_loss(tape, tape.leaf(anchors), tape.leaf(targets), cands, 0.2)
    tape2 = Tape()
    manual = infonce_loss(tape2, tape2.leaf(anchors[cands]), tape2.leaf(targets[cands]),
                          None, 0.2)
    assert abs(float(loss.value) - float(manual.value)) < 1e-12


def test_infonce_zero_norm_anchor_guarded(caplog):
    anchors = np.array([[0.0, 0.0], [1.0, 0.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    tape = Tape()
    with caplog.at_level("WARNING"):
        loss = infonce_loss(tape, tape.leaf(anchors), tape.leaf(targets), None, 1.0)
    assert np.isfinite(float(loss.value))
    assert "near-zero" in caplog.text


def test_sharper_temperature_widens_hard_anchor_gap():
    # Five anchors; anchor 0 is aligned with its target, anchor 1 points at a
    # wrong target. Lowering the temperature must not shrink the per-term
    # loss gap between the misaligned and the best-aligned anchor.
    targets = np.eye(5)
    anchors = np.eye(5)
    anchors[1] = targets[3]  # misaligned

    def per_term_gap(tau):
        # Rows are unit norm, so the logits are the dot products over tau.
        logits = anchors @ targets.T / tau
        per = np.log(np.exp(logits).sum(axis=1)) - np.diag(logits)
        tape = Tape()
        loss = infonce_loss(tape, tape.leaf(anchors), tape.leaf(targets), None, tau)
        assert abs(float(loss.value) - per.sum()) < 1e-12
        return float(per[1] - per[0])

    assert per_term_gap(0.1) >= per_term_gap(0.5)


@pytest.mark.parametrize("temperature", [0.0, -0.2, math.nan, math.inf])
def test_infonce_rejects_a_temperature_outside_zero_to_inf(temperature):
    # The one check is the primitive's; infonce_loss has none of its own.
    tape = Tape()
    x = tape.leaf(np.eye(3))
    with pytest.raises(ValueError, match="infonce_sum: temperature"):
        infonce_loss(tape, x, x, None, temperature)


def bpr_of_scores(tape, pos, neg, reg=(), l2_weight=0.0):
    """bpr_loss over triples whose scores equal ``pos`` and ``neg`` exactly:
    one unit user row against one-column item rows that hold the scores."""
    scores = np.concatenate([pos, neg]).astype(float)[:, None]
    k = len(pos)
    batch = (np.zeros(k, dtype=int), np.arange(k), np.arange(k, 2 * k))
    return bpr_loss(tape, tape.leaf(np.ones((1, 1))), tape.leaf(scores), batch,
                    list(reg), l2_weight)


def test_bpr_equal_scores_is_log_two():
    tape = Tape()
    loss = bpr_of_scores(tape, np.full(4, 1.5), np.full(4, 1.5))
    assert abs(float(loss.value) / 4 - math.log(2)) < 1e-9


def test_bpr_saturates_for_large_margins():
    tape = Tape()
    loss = bpr_of_scores(tape, [20.0], [0.0])
    assert float(loss.value) < 1e-8


def test_bpr_unit_margin_value():
    tape = Tape()
    loss = bpr_of_scores(tape, [1.0], [0.0])
    assert abs(float(loss.value) - 0.31326) < 1e-5


def test_bpr_strictly_decreasing_in_margin():
    margins = np.linspace(-5, 5, 41)
    values = []
    for margin in margins:
        tape = Tape()
        loss = bpr_of_scores(tape, [margin], [0.0])
        values.append(float(loss.value))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bpr_regularization_term():
    tape = Tape()
    theta = tape.leaf(np.array([[1.0, 2.0], [0.0, 3.0]]))
    loss = bpr_of_scores(tape, [0.0], [0.0], [theta], 0.1)
    assert abs(float(loss.value) - (math.log(2) + 0.1 * 14.0)) < 1e-12


def test_total_loss_combination_and_ablation_path():
    cfg = LossConfig(cl_user_weight=1.0, cl_item_weight=1.0, cl_weight=1.0)
    tape = Tape()
    bpr = tape.leaf(np.asarray(1.0))
    clu = tape.leaf(np.asarray(2.0))
    cli = tape.leaf(np.asarray(3.0))
    assert float(total_loss(tape, bpr, clu, cli, cfg).value) == 6.0
    off = LossConfig(cl_weight=0.0)
    assert total_loss(tape, bpr, clu, cli, off) is bpr


def test_total_loss_linearity_in_components():
    cfg = LossConfig(cl_user_weight=0.7, cl_item_weight=0.2, cl_weight=0.3)
    tape = Tape()
    bpr = tape.leaf(np.asarray(1.0))
    cli = tape.leaf(np.asarray(0.5))
    one = float(total_loss(tape, bpr, tape.leaf(np.asarray(1.0)), cli, cfg).value)
    two = float(total_loss(tape, bpr, tape.leaf(np.asarray(2.0)), cli, cfg).value)
    assert abs((two - one) - 0.3 * 0.7 * 1.0) < 1e-12


def test_total_loss_names_nan_component():
    cfg = LossConfig()
    tape = Tape()
    bpr = tape.leaf(np.asarray(1.0))
    bad = tape.leaf(np.asarray(float("nan")))
    with pytest.raises(FloatingPointError, match="cl_item"):
        total_loss(tape, bpr, tape.leaf(np.asarray(0.0)), bad, cfg)


def test_pair_scores_matches_predict_scores():
    # bpr_rows against a zero negative row (index 7) is softplus(-score).
    rng = np.random.default_rng(4)
    e_u = rng.normal(size=(5, 3))
    e_i = rng.normal(size=(7, 3))
    users = rng.integers(5, size=11)
    items = rng.integers(7, size=11)
    tape = Tape()
    rows = tape.bpr_rows(tape.leaf(e_u), tape.leaf(np.vstack([e_i, np.zeros(3)])),
                         users, items, np.full(11, 7))
    expected = predict_scores(e_u, e_i, np.stack([users, items], axis=1))
    np.testing.assert_allclose(rows.value, np.logaddexp(0.0, -expected), atol=1e-14)


def test_adam_first_step_magnitude():
    lr = 0.01
    params = {"w": np.array([1.0, -2.0, 5.0])}
    grads = {"w": np.array([0.5, -3.0, 1e-3])}
    state = AdamState()
    before = params["w"].copy()
    adam_step(params, grads, state, lr)
    delta = np.abs(params["w"] - before)
    assert np.all(delta >= 0.99 * lr) and np.all(delta <= lr)


def test_adam_zero_gradient_keeps_params_but_decays_moments():
    # Fresh state: a zero gradient moves nothing.
    params = {"w": np.array([1.0])}
    state = AdamState()
    adam_step(params, {"w": np.zeros(1)}, state, 0.01)
    np.testing.assert_array_equal(params["w"], [1.0])
    # Existing moments decay by their beta factors on a zero-gradient step.
    adam_step(params, {"w": np.array([2.0])}, state, 0.01)
    m_before = state.first["w"].copy()
    v_before = state.second["w"].copy()
    adam_step(params, {"w": np.zeros(1)}, state, 0.01)
    np.testing.assert_allclose(state.first["w"], 0.9 * m_before)
    np.testing.assert_allclose(state.second["w"], 0.999 * v_before)


def test_adam_none_gradient_leaves_value_untouched():
    params = {"w": np.array([1.0]), "unread": np.array([2.0])}
    state = AdamState()
    adam_step(params, {"w": np.array([1.0]), "unread": None}, state, 0.01)
    value = params["w"].copy()
    adam_step(params, {"w": None, "unread": None}, state, 0.01)
    np.testing.assert_array_equal(params["w"], value)
    np.testing.assert_array_equal(params["unread"], [2.0])
    # A parameter that only ever had None gradients gets no Adam state.
    for buffers in (state.first, state.second, state.scratch):
        assert "unread" not in buffers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_the_textbook_expression_bit_for_bit_without_allocating(dtype):
    # The in-place update keeps the operation order of the allocating one, so
    # parameters and moments agree to the bit; after the first step, which
    # creates the buffers, a step allocates less than one parameter's size.
    rng = np.random.default_rng(3)
    p = rng.normal(size=(400, 32)).astype(dtype)
    params, state = {"w": p.copy()}, AdamState()
    m, v = np.zeros_like(p), np.zeros_like(p)
    for t in range(1, 6):
        g = rng.normal(size=p.shape).astype(dtype) * dtype(10.0 ** (2 - t))
        tracemalloc.start()
        try:
            adam_step(params, {"w": g}, state, 0.045)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = m * 0.9 + (1.0 - 0.9) * g
        v = v * 0.999 + (1.0 - 0.999) * (g * g)
        m_hat, v_hat = m / (1.0 - 0.9 ** t), v / (1.0 - 0.999 ** t)
        p -= 0.045 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert params["w"].dtype == dtype
        np.testing.assert_array_equal(params["w"], p)
        np.testing.assert_array_equal(state.first["w"], m)
        np.testing.assert_array_equal(state.second["w"], v)
        if t > 1:
            assert peak < p.nbytes, f"step {t} allocated {peak} B"


def test_adam_converges_on_quadratic_bowl():
    params = {"theta": np.array([1.0, 1.0])}
    state = AdamState()
    for _ in range(500):
        grads = {"theta": 2.0 * params["theta"]}
        adam_step(params, grads, state, 0.05)
    assert np.linalg.norm(params["theta"]) < 1e-3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_adam_rejects_nan_gradients(bad):
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState()
    with pytest.raises(FloatingPointError, match="non-finite gradient for parameter 'w'"):
        adam_step(params, {"w": np.array([0.5, bad])}, state, 0.01)
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])
    assert state.step == 0


def test_adam_rejects_gradient_that_overflows_in_backward():
    # The loss and each gradient contribution are finite, so backward passes
    # them; their sum in the leaf's gradient is inf.
    tape = Tape()
    x = tape.leaf(np.array([0.5]))
    loss = tape.sum_all(tape.add(tape.scale(x, 1e308), tape.scale(x, 1e308)))
    assert np.isfinite(loss.value)
    with np.errstate(over="ignore"):
        [dx] = backward(tape, loss, [x])
    assert np.isinf(dx).all()
    params = {"x": x.value.copy()}
    state = AdamState()
    with pytest.raises(FloatingPointError, match="non-finite"):
        adam_step(params, {"x": dx}, state, 0.01)
    np.testing.assert_array_equal(params["x"], [0.5])
    assert state.step == 0


def test_adam_is_deterministic():
    def run():
        params = {"w": np.linspace(-1, 1, 8)}
        state = AdamState()
        for step in range(20):
            adam_step(params, {"w": np.sin(params["w"] + step)}, state, 0.02)
        return params["w"]

    np.testing.assert_array_equal(run(), run())


def test_infonce_gradients_pass_check():
    rng = np.random.default_rng(5)
    targets = rng.normal(size=(5, 3))

    def build(tape, ts):
        return infonce_loss(tape, ts["anchors"], tape.leaf(targets), None, 0.2)

    from hgcl.autodiff import grad_check
    assert grad_check(build, {"anchors": rng.normal(size=(5, 3))}, max_coords=None) < 1e-6
