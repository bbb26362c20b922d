"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line on success (visible with pytest -s/-rA)."""
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hgcl.autodiff import SparseMatrix, Tape, grad_check
from hgcl.checkpoint import load_checkpoint
from hgcl.config import Hyperparams, RunConfig, with_ablations
from hgcl.encoder import build_graph_operators
from hgcl.graphs import build_hetero_graph, normalize_adjacency
from hgcl.model import forward_model, init_params, transform_matrix_for_node
from hgcl.objectives import LossConfig, bpr_loss, infonce_loss
from hgcl.synthetic import generate_synthetic
from hgcl.trainer import evaluate_ranks, load_bundle, rank_metrics, train


def announce(name):
    print(f"ACCEPTANCE {name}: PASS")


# -- 1. gradient correctness on the tiny full-model instance -----------------

def tiny_instance(m=6, n=8, dim=4, rank=2, seed=0):
    rng = np.random.default_rng(seed)
    ui = sorted({(int(rng.integers(m)), int(rng.integers(n))) for _ in range(3 * m)})
    uu, ii = set(), set()
    while len(uu) < 2 * m:
        a, b = rng.integers(m, size=2)
        if a != b:
            uu |= {(int(a), int(b)), (int(b), int(a))}
    while len(ii) < 2 * n:
        a, b = rng.integers(n, size=2)
        if a != b:
            ii |= {(int(a), int(b)), (int(b), int(a))}
    graph = build_hetero_graph(ui, sorted(uu), sorted(ii), m, n)
    assert graph.a_uu.nnz and graph.a_ii.nnz and graph.a_ui.nnz
    return graph


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    m, n, dim, rank, layers = 6, 8, 4, 2, 2
    graph = tiny_instance(m, n, dim, rank)
    ops = build_graph_operators(graph, np.float64)
    params = init_params(m, n, dim, rank, seed=1)
    rng = np.random.default_rng(3)
    batch = (rng.integers(m, size=24), rng.integers(n, size=24), rng.integers(n, size=24))
    cfg = RunConfig(hyper=Hyperparams(dim=dim, layers=layers, rank=rank,
                                      alpha_user=0.8, alpha_item=0.8),
                    loss=LossConfig(cl_weight=0.3, temperature=0.2, l2_weight=1e-4))

    def build(tape, tensors):
        cache = forward_model(tape, tensors, ops, cfg, batch=batch)
        return cache.loss

    err = grad_check(build, params, eps=1e-5, max_coords=None)
    elapsed = time.perf_counter() - started
    assert err < 1e-4, f"max relative error {err}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(f"1 gradient-correctness (err={err:.2e}, {elapsed:.1f}s)")


# -- 2. closed-form loss oracles ----------------------------------------------

def test_criterion_2_closed_form_losses():
    tape = Tape()
    # One unit user row and one item row holding the score 2.5 for every pair.
    same = np.zeros(8, dtype=int)
    bpr = bpr_loss(tape, tape.leaf(np.ones((1, 1))), tape.leaf(np.array([[2.5]])),
                   (same, same, same), [], 0.0)
    assert abs(float(bpr.value) / 8 - math.log(2)) < 1e-9

    for count in (2, 5, 50):
        rows = np.tile(np.array([[0.3, -1.2, 0.8]]), (count, 1))
        tape = Tape()
        loss = infonce_loss(tape, tape.leaf(rows), tape.leaf(rows), None, 0.2)
        assert abs(float(loss.value) - count * math.log(count)) < 1e-6
    announce("2 closed-form-losses")


# -- 3. sparse/dense and batched/loop equivalence -----------------------------

def test_criterion_3_sparse_dense_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(5, 51))
        cols = int(rng.integers(5, 51))
        mat = sp.random(rows, cols, density=0.25, random_state=seed, format="csr")
        x = rng.normal(size=(cols, 16))
        tape = Tape()
        out = tape.spmm(SparseMatrix(mat), tape.leaf(x))
        worst = max(worst, float(np.abs(out.value - mat.toarray() @ x).max()))
    assert worst < 1e-10

    rng = np.random.default_rng(99)
    w1 = rng.normal(size=(40, 8, 3))
    w2 = rng.normal(size=(40, 3, 8))
    x = rng.normal(size=(40, 8))
    tape = Tape()
    got = tape.lowrank_apply(tape.leaf(w1.reshape(40, 24)), tape.leaf(w2.reshape(40, 24)),
                             tape.leaf(x)).value
    oracle = np.stack([w1[r] @ (w2[r] @ x[r]) for r in range(40)])
    assert np.abs(got - oracle).max() < 1e-12
    announce(f"3 sparse-dense-equivalence (spmm diff={worst:.2e})")


# -- shared fixture config -----------------------------------------------------

def fixture_config(manifest, out_dir, seed=1, epochs=50, **kw) -> RunConfig:
    """Desk-scale configuration used by the synthetic-fixture criteria."""
    hyper = Hyperparams(dim=kw.pop("dim", 32), layers=2, rank=kw.pop("rank", 3),
                        alpha_user=kw.pop("alpha_user", 1.0),
                        alpha_item=kw.pop("alpha_item", 1.0),
                        batch_size=kw.pop("batch_size", 512),
                        learning_rate=kw.pop("learning_rate", 0.005),
                        epochs=epochs, seed=seed)
    loss = LossConfig(temperature=kw.pop("temperature", 0.1),
                      cl_weight=kw.pop("cl_weight", 0.55), l2_weight=1e-4)
    assert not kw, kw
    out = Path(out_dir)
    return RunConfig(manifest=str(manifest), checkpoint=str(out / "model.ckpt"),
                     metrics_csv=str(out / "metrics.csv"),
                     epochs_jsonl=str(out / "epochs.jsonl"),
                     hyper=hyper, loss=loss, patience=0)


@pytest.fixture(scope="module")
def fixture_200x300(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture200")
    return generate_synthetic(root, 200, 300, 0.8, seed=1)


# -- 4. low-rank property of exported transforms ------------------------------

def test_criterion_4_low_rank_transforms(fixture_200x300, tmp_path):
    cfg = fixture_config(fixture_200x300, tmp_path, dim=8, rank=3, epochs=10,
                         alpha_user=0.8, alpha_item=0.8)
    result = train(cfg, write_outputs=False)
    bundle = load_bundle(cfg)
    rng = np.random.default_rng(0)
    nodes = [("user", int(u)) for u in rng.choice(200, 6, replace=False)]
    nodes += [("item", int(i)) for i in rng.choice(300, 6, replace=False)]
    for side, node in nodes:
        matrix = transform_matrix_for_node(result.checkpoint.params, bundle.ops, cfg,
                                           node, side)
        s = np.linalg.svd(matrix, compute_uv=False)
        assert s[0] > 0
        assert s[3] < 1e-8 * s[0], f"{side} {node}: s4/s1 = {s[3] / s[0]:.2e}"
    announce("4 low-rank-transforms")


# -- 5. ablation direction on the synthetic fixture ---------------------------

ABLATION_SEEDS = (1, 2, 3, 4, 5)


def test_criterion_5_ablation_direction(fixture_200x300, tmp_path):
    means = {}
    for names in [(), ("cl",), ("meta",), ("uu",), ("ii",)]:
        scores = []
        for seed in ABLATION_SEEDS:
            cfg = with_ablations(fixture_config(fixture_200x300, tmp_path, seed=seed),
                                 names)
            scores.append(train(cfg, write_outputs=False).report.ndcg)
        means[",".join(names) or "full"] = float(np.mean(scores))
    for variant, mean in means.items():
        if variant != "full":
            assert means["full"] >= mean, (
                f"full ({means['full']:.4f}) < w/o-{variant} ({mean:.4f}); all={means}")
    announce("5 ablation-direction (" +
             " ".join(f"{k}={v:.4f}" for k, v in means.items()) + ")")


@pytest.mark.skipif("HGCL_CIAO_MANIFEST" not in os.environ,
                    reason="real Ciao dataset not supplied")
def test_criterion_5_optional_ciao_run(tmp_path):
    cfg = replace(fixture_config(os.environ["HGCL_CIAO_MANIFEST"], tmp_path,
                                 alpha_user=0.8, alpha_item=0.8,
                                 temperature=0.2, cl_weight=0.3,
                                 batch_size=2048, learning_rate=0.045, epochs=30),
                  patience=2)
    result = train(cfg, write_outputs=False)
    assert result.report.hr >= 0.68
    announce(f"5b ciao-hr (hr@10={result.report.hr:.4f})")


# -- 6. complexity linearity ---------------------------------------------------

def write_perf_dataset(root: Path, m, n, deg, social, ring) -> Path:
    """Regular dataset with exactly deg interactions per user, ~social social
    edges per user, and a ring item graph with `ring` forward offsets."""
    rng = np.random.default_rng(deg * 1000 + social)
    root.mkdir(parents=True, exist_ok=True)
    with (root / "interactions.tsv").open("w") as fh:
        for u in range(m):
            for i in rng.choice(n, size=deg, replace=False):
                fh.write(f"{u}\t{int(i)}\n")
    with (root / "social.tsv").open("w") as fh:
        seen = set()
        for u in range(m):
            for _ in range(social):
                v = int(rng.integers(m))
                if v != u and (min(u, v), max(u, v)) not in seen:
                    seen.add((min(u, v), max(u, v)))
                    fh.write(f"{min(u, v)}\t{max(u, v)}\n")
    with (root / "item_relations.tsv").open("w") as fh:
        for i in range(n):
            for off in range(1, ring + 1):
                fh.write(f"{i}\t{(i + off) % n}\n")
    manifest = root / "manifest.txt"
    manifest.write_text("interactions=interactions.tsv\nsocial=social.tsv\n"
                        f"item_relations=item_relations.tsv\nm={m}\nn={n}\n")
    return manifest


def test_criterion_6_epoch_time_scales_linearly(tmp_path):
    # Edge budget doubles (3600+1200+1800 -> 6600+2400+3600) while the batch
    # count per epoch doubles exactly (6 -> 12 batches of 512), so the epoch
    # time ratio should land near 2 with the edge-bound per-batch cost on top.
    m, n = 600, 900
    small = write_perf_dataset(tmp_path / "small", m, n, deg=6, social=4, ring=2)
    large = write_perf_dataset(tmp_path / "large", m, n, deg=11, social=8, ring=4)

    def epoch_seconds(manifest, out, epochs=3):
        cfg = fixture_config(manifest, out, epochs=epochs, dim=32)
        bundle = load_bundle(cfg)
        result = train(cfg, write_outputs=False)
        # the first epoch pays allocation and BLAS warm-up costs
        return result.epoch_seconds[1:], bundle.graph.total_edges

    # warm the process (allocator pools, BLAS threads) on the larger shape
    epoch_seconds(large, tmp_path / "warm", epochs=2)

    for attempt in range(2):  # wall-clock noise: allow one re-measure
        # Small and large trainings alternate, so that load from other
        # processes on the host falls on both sides alike.
        times, edges = {small: [], large: []}, {}
        for _ in range(3):
            for manifest in (small, large):
                seconds, edges[manifest] = epoch_seconds(manifest, tmp_path / "out")
                times[manifest] += seconds
        t_small, t_large = float(np.median(times[small])), float(np.median(times[large]))
        edge_ratio = edges[large] / edges[small]
        time_ratio = t_large / t_small
        assert 1.8 < edge_ratio < 2.2, f"edge ratio {edge_ratio:.2f}"
        if 1.6 <= time_ratio <= 2.6:
            break
    assert 1.6 <= time_ratio <= 2.6, (
        f"epoch time ratio {time_ratio:.2f} (small {t_small:.3f}s, large {t_large:.3f}s)")
    announce(f"6 complexity-linearity (edges x{edge_ratio:.2f}, time x{time_ratio:.2f})")


# -- 7. determinism of the full pipeline --------------------------------------

def test_criterion_7_pipeline_determinism(tmp_path):
    def one_run(tag):
        data_dir = tmp_path / tag
        manifest = generate_synthetic(data_dir, 80, 180, 0.8, seed=7)
        cfg = fixture_config(manifest, data_dir / "out", seed=4, epochs=8)
        train(cfg)
        return {
            "data": {p.name: p.read_bytes() for p in sorted(data_dir.iterdir()) if p.is_file()},
            "checkpoint": Path(cfg.checkpoint).read_bytes(),
            "metrics": Path(cfg.metrics_csv).read_bytes(),
            "epochs": Path(cfg.epochs_jsonl).read_bytes(),
        }

    first = one_run("a")
    second = one_run("b")
    assert first["data"] == second["data"]
    # checkpoints embed their own output paths in the config snapshot; compare
    # with the differing directory names patched out
    fixed = (first["checkpoint"].replace(b"/a/", b"/_/"),
             second["checkpoint"].replace(b"/b/", b"/_/"))
    assert fixed[0] == fixed[1]
    assert first["metrics"] == second["metrics"]
    assert first["epochs"] == second["epochs"]
    announce("7 pipeline-determinism")


# -- 8. metric unit values -----------------------------------------------------

def test_criterion_8_metric_unit_values():
    from hgcl.dataset import InteractionDataset
    n = 200
    ds = InteractionDataset(
        m=3, n=n,
        train_edges=np.array([[0, 150], [1, 150], [2, 150]], dtype=np.int64),
        test_users=np.arange(3, dtype=np.int64),
        test_positive=np.array([0, 2, 10], dtype=np.int64),
        eval_negatives=np.array([sorted(set(range(100)) - {p}) for p in (0, 2, 10)],
                                dtype=np.int64),
        user_groups=[np.arange(3)], train_counts=np.ones(3, dtype=np.int64))
    e_user = np.ones((3, 1))
    e_item = -np.arange(n, dtype=float).reshape(n, 1)  # item j scores -j
    users, ranks = evaluate_ranks(e_user, e_item, ds)
    assert ranks.tolist() == [1, 3, 11]
    for rank, (hr, ndcg) in zip(ranks, [(1.0, 1.0), (1.0, 0.5), (0.0, 0.0)]):
        got_hr, got_ndcg = rank_metrics(np.array([rank]), 10)
        assert got_hr == hr
        assert abs(got_ndcg - ndcg) < 1e-15
    announce("8 metric-unit-values")


# -- 9. end-to-end smoke through the CLI --------------------------------------

def test_criterion_9_end_to_end_smoke(tmp_path):
    started = time.perf_counter()
    budget_s = 300
    env = dict(os.environ)
    # The commands run in tmp_path, where a relative PYTHONPATH entry (such as
    # the `src` of an uninstalled checkout) would no longer find hgcl.
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) if entry else entry
            for entry in env["PYTHONPATH"].split(os.pathsep))

    def run(*args):
        remaining = budget_s - (time.perf_counter() - started)
        try:
            proc = subprocess.run([sys.executable, "-m", "hgcl.cli", *args],
                                  capture_output=True, text=True, env=env,
                                  cwd=str(tmp_path), timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            stderr = (exc.stderr or b"").decode(errors="replace")
            pytest.fail(f"{args[0]} exceeded the {budget_s}s budget: {stderr[-2000:]}")
        assert proc.returncode == 0, f"{args}: {proc.stderr[-2000:]}"
        return proc

    run("gen-synth", "--out", "data", "--users", "200", "--items", "300",
        "--homophily", "0.8", "--seed", "2")
    (tmp_path / "run.cfg").write_text(f"""
[data]
manifest = data/manifest.txt
checkpoint = out/model.ckpt
metrics_csv = out/metrics.csv
epochs_jsonl = out/epochs.jsonl
[model]
dim = 32
rank = 3
[train]
epochs = 12
batch_size = 512
learning_rate = 0.005
seed = 0
patience = 0
""", encoding="utf-8")
    run("train", "--config", "run.cfg")
    run("eval", "--checkpoint", "out/model.ckpt", "--data", "data/manifest.txt",
        "--k", "10")
    run("export-transforms", "--checkpoint", "out/model.ckpt", "--node", "17",
        "--side", "user", "--out", "transform.csv")
    assert (tmp_path / "transform.csv").exists()
    assert (tmp_path / "out" / "metrics.csv").read_text().startswith("metric,group,value")
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"pipeline took {elapsed:.0f}s"
    announce(f"9 end-to-end-smoke ({elapsed:.0f}s)")
