"""Meta-knowledge extraction, personalized low-rank transforms, and fusion."""
import numpy as np
import pytest

from hgcl.autodiff import SparseMatrix, Tape, grad_check
from hgcl.graphs import normalize_adjacency
from hgcl.meta import (MetaMLP, apply_transform, extract_meta_knowledge,
                       fuse_final, generate_transforms, mlp_apply, write_transform_csv)

from conftest import read_transform_csv


def binary_incidence(edges, m, n):
    mat = normalize_adjacency(edges, m, n)
    mat = mat.copy()
    mat.data = np.ones_like(mat.data)
    return SparseMatrix(mat)


def make_mlp(tape, in_dim, hidden, out_dim, rng=None, zero=False):
    if zero:
        w_in = np.zeros((in_dim, hidden))
        w_out = np.zeros((hidden, out_dim))
        b_in, b_out = np.zeros(hidden), np.zeros(out_dim)
    else:
        w_in = rng.normal(size=(in_dim, hidden))
        w_out = rng.normal(size=(hidden, out_dim))
        b_in, b_out = rng.normal(size=hidden), rng.normal(size=out_dim)
    return MetaMLP(w_in=tape.leaf(w_in), b_in=tape.leaf(b_in),
                   slope=tape.leaf(np.asarray(0.25)),
                   w_out=tape.leaf(w_out), b_out=tape.leaf(b_out))


def test_meta_knowledge_width_is_three_d():
    m, n, d = 3, 5, 4
    rng = np.random.default_rng(0)
    inc = binary_incidence([(0, 1), (1, 2), (2, 0)], m, n)
    tape = Tape()
    out = extract_meta_knowledge(tape, tape.leaf(rng.normal(size=(m, d))),
                                 tape.leaf(rng.normal(size=(m, d))), inc,
                                 tape.leaf(rng.normal(size=(n, d))))
    assert out.value.shape == (3, 12)


def test_neighbor_sum_block_is_plain_sum():
    inc = binary_incidence([(0, 0), (0, 1)], 2, 2)
    tape = Tape()
    e_view = tape.leaf(np.zeros((2, 2)))
    e_aux = tape.leaf(np.zeros((2, 2)))
    e_other = tape.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = extract_meta_knowledge(tape, e_view, e_aux, inc, e_other)
    np.testing.assert_array_equal(out.value[0, 4:], [1.0, 1.0])
    np.testing.assert_array_equal(out.value[1, 4:], [0.0, 0.0])  # zero degree


def test_zero_mlps_emit_zero_transforms():
    d, k = 4, 2
    tape = Tape()
    meta = tape.leaf(np.random.default_rng(0).normal(size=(3, 3 * d)))
    mlp1 = make_mlp(tape, 3 * d, d, d * k, zero=True)
    mlp2 = make_mlp(tape, 3 * d, d, k * d, zero=True)
    tr = generate_transforms(tape, meta, mlp1, mlp2)
    np.testing.assert_array_equal(tr.w1.value, 0.0)
    np.testing.assert_array_equal(tr.w2.value, 0.0)


def test_identical_meta_rows_share_transforms():
    d, k = 4, 2
    rng = np.random.default_rng(1)
    row = rng.normal(size=3 * d)
    tape = Tape()
    meta = tape.leaf(np.stack([row, row, rng.normal(size=3 * d)]))
    tr = generate_transforms(tape, meta, make_mlp(tape, 3 * d, d, d * k, rng),
                             make_mlp(tape, 3 * d, d, k * d, rng))
    np.testing.assert_array_equal(tr.w1.value[0], tr.w1.value[1])
    np.testing.assert_array_equal(tr.w2.value[0], tr.w2.value[1])
    assert not np.array_equal(tr.w1.value[0], tr.w1.value[2])


def test_transform_product_has_rank_at_most_k():
    d, k = 4, 2
    rng = np.random.default_rng(2)
    tape = Tape()
    meta = tape.leaf(rng.normal(size=(5, 3 * d)))
    tr = generate_transforms(tape, meta, make_mlp(tape, 3 * d, d, d * k, rng),
                             make_mlp(tape, 3 * d, d, k * d, rng))
    for r in range(5):
        dense = tr.w1.value[r].reshape(d, k) @ tr.w2.value[r].reshape(k, d)
        s = np.linalg.svd(dense, compute_uv=False)
        assert s[k] < 1e-8 * s[0]


def test_reshape_order_is_row_major():
    # lowrank_apply reads each flat MLP output row as a row-major factor.
    d, k = 3, 2
    tape = Tape()
    meta = tape.leaf(np.zeros((1, 9)))
    flat = np.arange(d * k, dtype=float)

    def constant_mlp(row):
        return MetaMLP(w_in=tape.leaf(np.zeros((9, 3))), b_in=tape.leaf(np.zeros(3)),
                       slope=tape.leaf(np.asarray(0.25)),
                       w_out=tape.leaf(np.zeros((3, d * k))), b_out=tape.leaf(row))

    w1 = mlp_apply(tape, constant_mlp(flat), meta)
    w2 = mlp_apply(tape, constant_mlp(flat[::-1].copy()), meta)
    np.testing.assert_array_equal(w1.value[0], flat)
    x = np.array([[1.0, -2.0, 0.5]])
    out = tape.lowrank_apply(w1, w2, tape.leaf(x))
    expected = flat.reshape(d, k) @ (flat[::-1].reshape(k, d) @ x[0])
    np.testing.assert_array_equal(out.value[0], expected)


def test_identity_factors_pass_nonnegative_rows_through():
    d = 3
    tape = Tape()
    from hgcl.meta import PersonalTransforms
    eye = np.stack([np.eye(d).ravel()] * 2)
    tr = PersonalTransforms(w1=tape.leaf(eye), w2=tape.leaf(eye))
    e_aux = tape.leaf(np.array([[1.0, 0.0, 2.0], [0.5, 3.0, 0.0]]))
    out = apply_transform(tape, tr, e_aux, tape.leaf(np.asarray(0.25)))
    np.testing.assert_array_equal(out.value, e_aux.value)


def test_zero_transforms_zero_output():
    d, k = 4, 2
    tape = Tape()
    from hgcl.meta import PersonalTransforms
    tr = PersonalTransforms(w1=tape.leaf(np.zeros((3, d * k))),
                            w2=tape.leaf(np.zeros((3, k * d))))
    out = apply_transform(tape, tr, tape.leaf(np.ones((3, d))),
                          tape.leaf(np.asarray(0.25)))
    np.testing.assert_array_equal(out.value, 0.0)


def test_apply_transform_matches_dense_loop_oracle():
    d, k = 4, 2
    rng = np.random.default_rng(3)
    w1 = rng.normal(size=(6, d, k))
    w2 = rng.normal(size=(6, k, d))
    x = rng.normal(size=(6, d))
    slope = 0.3
    tape = Tape()
    from hgcl.meta import PersonalTransforms
    tr = PersonalTransforms(w1=tape.leaf(w1.reshape(6, d * k)),
                            w2=tape.leaf(w2.reshape(6, k * d)))
    out = apply_transform(tape, tr, tape.leaf(x), tape.leaf(np.asarray(slope)))
    for r in range(6):
        pre = (w1[r] @ w2[r]) @ x[r]
        expected = np.where(pre >= 0, pre, slope * pre)
        assert np.abs(out.value[r] - expected).max() < 1e-12


def test_fuse_final_extremes_and_midpoint():
    tape = Tape()
    view = tape.leaf(np.array([[2.0, 0.0]]))
    aux = tape.leaf(np.array([[0.0, 2.0]]))
    aux_m = tape.leaf(np.array([[0.0, 2.0]]))
    np.testing.assert_array_equal(fuse_final(tape, view, aux, aux_m, 1.0).value, [[2.0, 0.0]])
    np.testing.assert_array_equal(fuse_final(tape, view, aux, aux_m, 0.0).value, [[0.0, 4.0]])
    np.testing.assert_array_equal(fuse_final(tape, view, aux, aux_m, 0.5).value, [[1.0, 2.0]])


def test_fuse_final_rejects_out_of_range_alpha():
    tape = Tape()
    t = tape.leaf(np.ones((1, 2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fuse_final(tape, t, t, t, 1.5)


def test_perturbing_one_meta_row_only_changes_that_node():
    d, k, m = 4, 2, 5
    rng = np.random.default_rng(4)
    meta_base = rng.normal(size=(m, 3 * d))

    def transforms_for(meta_rows):
        tape = Tape()
        rng_local = np.random.default_rng(99)
        tr = generate_transforms(tape, tape.leaf(meta_rows),
                                 make_mlp(tape, 3 * d, d, d * k, rng_local),
                                 make_mlp(tape, 3 * d, d, k * d, rng_local))
        return tr.w1.value.copy(), tr.w2.value.copy()

    w1_a, w2_a = transforms_for(meta_base)
    poked = meta_base.copy()
    poked[2] += 0.5
    w1_b, w2_b = transforms_for(poked)
    for r in range(m):
        same = np.array_equal(w1_a[r], w1_b[r]) and np.array_equal(w2_a[r], w2_b[r])
        assert same == (r != 2)


def test_full_transfer_chain_gradients():
    # Meta knowledge -> MLPs -> low-rank application -> weighted fusion.
    d, k, m, n = 3, 2, 4, 5
    rng = np.random.default_rng(5)
    inc = binary_incidence([(0, 1), (1, 2), (2, 0), (3, 4)], m, n)
    e_other = rng.normal(size=(n, d))
    weights = rng.normal(size=(m, d))

    def build(tape, ts):
        mlp1 = MetaMLP(w_in=ts["w_in1"], b_in=ts["b_in1"], slope=ts["s1"],
                       w_out=ts["w_out1"], b_out=ts["b_out1"])
        mlp2 = MetaMLP(w_in=ts["w_in2"], b_in=ts["b_in2"], slope=ts["s2"],
                       w_out=ts["w_out2"], b_out=ts["b_out2"])
        meta = extract_meta_knowledge(tape, ts["e_view"], ts["e_aux"], inc,
                                      tape.leaf(e_other))
        tr = generate_transforms(tape, meta, mlp1, mlp2)
        transferred = apply_transform(tape, tr, ts["e_aux"], ts["s3"])
        fused = fuse_final(tape, ts["e_view"], ts["e_aux"], transferred, 0.8)
        return tape.sum_all(tape.mul(fused, tape.leaf(weights)))

    h = d
    inputs = {
        "e_view": rng.normal(size=(m, d)), "e_aux": rng.normal(size=(m, d)),
        "w_in1": rng.normal(size=(3 * d, h)) * 0.5, "b_in1": rng.normal(size=h) * 0.1,
        "s1": np.asarray(0.25), "w_out1": rng.normal(size=(h, d * k)) * 0.5,
        "b_out1": rng.normal(size=d * k) * 0.1,
        "w_in2": rng.normal(size=(3 * d, h)) * 0.5, "b_in2": rng.normal(size=h) * 0.1,
        "s2": np.asarray(0.25), "w_out2": rng.normal(size=(h, k * d)) * 0.5,
        "b_out2": rng.normal(size=k * d) * 0.1,
        "s3": np.asarray(0.25),
    }
    assert grad_check(build, inputs, max_coords=None) < 1e-4


def test_transform_csv_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(4, 4))
    path = tmp_path / "transform.csv"
    write_transform_csv(matrix, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "row,col,value"
    loaded = read_transform_csv(path)
    np.testing.assert_array_equal(loaded, matrix)
