#!/usr/bin/env python3
"""Training benchmark of hgcl.

Runs one named synthetic workload in this process through
``hgcl.trainer.train``, the entry point of ``hgcl train``, checks the
outputs, and prints as the last line of stdout one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
``{"info": ...}``: machine, library versions, thread count, the workload's
reason and its input properties.

    python3 bench/run.py --workload fullcl_4k --seed 1 --seconds 60 --trace 0

Load model: training is a batch job with one client in a closed loop. The
inputs are generated from ``--seed`` before any timing starts; the program
gets only the generated manifest and config. BLAS and OpenMP threads are
pinned to the number of usable cores before numpy loads. Each call of
``train()`` is one operation: ``attempted`` counts them, and one that raises
or fails a check counts as ``failed``.

``--trace 0`` measures the end-to-end metrics. Inside train() only one
coarse timer runs, a wrapper call per sampled batch.

    name         unit   better  meaning
    setup_s      s      lower   train() call to the first sampled batch; median
                                of 3 calls stopped there
    epoch_s      s      lower   median epoch time, as TrainResult.epoch_seconds
                                reports it (no evaluation or checkpoint writes)
    eval_s       s      lower   median time of one trainer.evaluate call; the
                                calls follow the set-up-only calls, after one
                                untimed warm-up call each, and come before any
                                training has churned the allocator
    peak_rss_mb  MiB    lower   peak resident memory of this process
    hr_at_10     ratio  higher  final HR@10 of the first training
    ndcg_at_10   ratio  higher  final NDCG@10 of the first training

``--trace 1`` trains once untraced for reference, then again with a span on
every layer boundary (see ``tracer.py``), and reports the per-layer metrics.
All are better lower. Units give the normalization: ``s`` per call (per
train() for set-up stages), ``s/epoch`` per training epoch, ``s/eval`` per
evaluation, ``count/step`` and ``B/step`` per training step.

    graphs.load_dataset_s, graphs.build_hetero_graph_s        s
    graphs.edges                                               count
    dataset.split_s, dataset.sampler_init_s                    s
    dataset.next_batch_s                                       s/epoch
    dataset.next_batch_calls                                   count/epoch
    encoder.build_graph_operators_s                            s
    encoder.encode_s                                           s/epoch
    meta.{extract_meta_knowledge,generate_transforms,
          apply_transform,fuse_final}_s                        s/epoch
    model.forward_model_self_s                                 s/epoch
    model.compute_final_embeddings_s                           s/eval
    objectives.bpr_loss_s, objectives.infonce_loss_s           s/epoch
    objectives.infonce_{full,batch}_calls                      count/step
    objectives.infonce_sim_cells (sum of K*K over calls)       count/step
    autodiff.backward_s                                        s/epoch
    autodiff.nodes_per_step                                    count/step
    autodiff.tape_bytes_per_step (primitive outputs)           B/step
    autodiff.<op>.fwd_s, for each of the 20 tape primitives    s/epoch
    autodiff.<op>.calls                                        count/step
    optim.adam_step_s                                          s/epoch
    trainer.step_self_s (step time outside the step spans)     s/epoch
    trainer.unattributed_s (epoch time outside the steps)      s/epoch
    trainer.evaluate_s, trainer.evaluate_ranks_s,
    trainer.sparsity_report_s                                  s/eval
    checkpoint.save_s                                          s
    bench.trace_overhead (traced over untraced epoch_s)        ratio

Checks, each failing the training it belongs to: every epoch loss is
finite; HR@10 and NDCG@10 lie in [0, 1] and HR@10 beats the 0.10 of a random
ranking; every repeat, traced or not, reproduces the first training's loss
curve, HR@10 and NDCG@10 bit for bit; and in a traced run the step spans plus
``trainer.step_self_s`` leave at most 5% of the epoch unattributed.

``--seconds`` bounds the measuring, which starts once the inputs exist. In an
untraced run its first half goes to set-up-only calls and evaluations. After
the first training, which always runs to the end, the same inputs are trained
again while the next training, taking as long as the last, still ends in
time. ``--smoke`` shrinks every workload for a quick test of the harness.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HOMOPHILY = 0.8
SETUP_REPEATS = 3
PROBE_SHARE = 0.5        # of --seconds, for the set-up-only calls and their evaluations
RANDOM_HR_AT_10 = 0.10   # 1 positive among 100 candidates
COVERAGE_TOLERANCE = 0.05

# Every workload uses generate_synthetic(m, n, HOMOPHILY, seed) with dim 32,
# 2 layers, rank 3, one epoch per training and early stopping off, so every
# run does the same work.
# "hyper" and "loss" override Hyperparams and LossConfig defaults; "smoke" are
# the sizes under --smoke. Why each workload is here: BENCHMARK.json.
WORKLOADS = {
    "fullcl_4k": dict(
        m=4000, n=6000, precision="f64", hyper={}, loss={}, smoke=(150, 200)),
    "inbatch_8k": dict(
        m=8000, n=12000, precision="f32", hyper={"batch_size": 1024}, loss={},
        smoke=(200, 300)),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hgcl training benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to test the harness quickly")
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS and OpenMP threads to the usable cores; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import hgcl from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hgcl
    except ImportError as exc:
        sys.exit(f"bench: cannot import hgcl from {SRC}: {exc}")
    if SRC not in Path(hgcl.__file__).resolve().parents:
        sys.exit(f"bench: hgcl imported from {hgcl.__file__}, not from {SRC}")


def environment(threads: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "machine": platform.machine()}


def make_config(wl: dict, manifest: Path, work: Path, seed: int):
    from hgcl.config import Hyperparams, RunConfig
    from hgcl.objectives import LossConfig
    return RunConfig(manifest=str(manifest), checkpoint=str(work / "model.ckpt"),
                     metrics_csv=str(work / "metrics.csv"),
                     epochs_jsonl=str(work / "epochs.jsonl"),
                     hyper=Hyperparams(epochs=1, seed=seed, **wl["hyper"]),
                     loss=LossConfig(**wl["loss"]), precision=wl["precision"], patience=0)


def fingerprint(result) -> tuple:
    """What a repeat of the same inputs must reproduce bit for bit."""
    return (tuple(rec["loss"] for rec in result.report.loss_curve),
            result.report.hr, result.report.ndcg)


def check(result, reference) -> list[str]:
    """Output checks of one training; returns the failures."""
    problems = []
    if not all(math.isfinite(rec["loss"]) for rec in result.report.loss_curve):
        problems.append("non-finite epoch loss")
    hr, ndcg = result.report.hr, result.report.ndcg
    if not (0.0 <= hr <= 1.0 and 0.0 <= ndcg <= 1.0):
        problems.append(f"HR@10 {hr} or NDCG@10 {ndcg} outside [0, 1]")
    if not hr > RANDOM_HR_AT_10:
        problems.append(f"HR@10 {hr} does not beat random ranking ({RANDOM_HR_AT_10})")
    if reference is not None and fingerprint(result) != fingerprint(reference):
        problems.append("repeat differs from the first training")
    return problems


def input_properties(bundle, cfg) -> dict:
    """Sizes the work depends on, from the bundle train() built."""
    graph, dataset, loss = bundle.graph, bundle.dataset, cfg.loss
    cl_on = not cfg.ablations.no_cl and loss.cl_weight > 0

    def mode(count):
        return "off" if not cl_on else "full" if loss.use_full_negatives(count) else "batch"

    return {"m": bundle.data.m, "n": bundle.data.n,
            "interaction_edges": int(graph.a_ui.nnz),
            "social_edges": int(graph.a_uu.nnz // 2),
            "item_relation_edges": int(graph.a_ii.nnz // 2),
            "train_edges": len(dataset.train_edges),
            "test_users": len(dataset.test_positive),
            "batches_per_epoch": -(-len(dataset.train_edges) // cfg.hyper.batch_size),
            "cl_negatives_user": mode(bundle.data.m), "cl_negatives_item": mode(bundle.data.n)}


class Runner:
    """Counts the operations (train() calls) of one run and their failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, train, reference=None):
        """Call ``train()``, which returns a ``Timed``; None if it raised."""
        self.attempted += 1
        try:
            out = train()
        except Exception as exc:  # a training that raises is a failed operation
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        if out.result is not None:
            for problem in check(out.result, reference):
                self.fail(problem)
        return out

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def summary(values: list[float]) -> dict:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) > 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def repeat(train, deadline):
    """Call ``train()`` once, then again while the next call, taking as long as
    the last one, still ends by the ``perf_counter`` time ``deadline``."""
    last = 0.0
    while last == 0.0 or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        if not train():
            return
        last = time.perf_counter() - began


def measure(runner, probe, cfg, seconds):
    """Untraced run: the end-to-end metrics.

    The first PROBE_SHARE of the time goes to set-up-only calls, each followed
    by evaluations until its equal share of that time is used; trainings fill
    the rest, so the evaluations see no training's allocation history."""
    start = time.perf_counter()
    setups, evals = [], []
    for i in range(1, SETUP_REPEATS + 1):
        out = runner.run(lambda: probe.train(cfg, setup_only=True))
        if out is not None:
            setups.append(out.setup_s)
            evals.extend(probe.evaluate(
                cfg, until=start + seconds * PROBE_SHARE * i / SETUP_REPEATS))
    if not setups:
        return {}, {}
    reference = None
    epochs = []

    def train():
        nonlocal reference
        out = runner.run(lambda: probe.train(cfg), reference)
        if out is not None:
            reference = reference or out.result
            epochs.extend(out.result.epoch_seconds)
        return reference is not None

    repeat(train, start + seconds)
    if reference is None:
        return {}, {}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "epoch_s": (statistics.median(epochs), "s"),
        "eval_s": (statistics.median(evals), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "hr_at_10": (reference.report.hr, "ratio"),
        "ndcg_at_10": (reference.report.ndcg, "ratio"),
    }
    return metrics, {"samples": {"setup_s": summary(setups), "epoch_s": summary(epochs),
                                 "eval_s": summary(evals)}}


def measure_traced(runner, probe, cfg, seconds):
    """An untraced reference training, then traced ones: the per-layer metrics."""
    import hgcl.trainer
    from tracer import Timed, Tracer

    start = time.perf_counter()
    first = runner.run(lambda: probe.train(cfg))
    if first is None:
        return {}, {}
    reference = first.result
    tracer = Tracer()
    epochs: list[float] = []

    def traced():
        with tracer.installed():
            return Timed(hgcl.trainer.train(cfg), 0.0)

    def train():
        out = runner.run(traced, reference)
        if out is not None:
            epochs.extend(out.result.epoch_seconds)
        return out is not None

    repeat(train, start + seconds)
    if not epochs:
        return {}, {}
    if tracer.epochs != len(epochs):
        runner.fail(f"epoch clock saw {tracer.epochs} epochs, train() reported {len(epochs)}: "
                    "hgcl.trainer no longer reads time.perf_counter at each end of an epoch")
        return {}, {}
    metrics = tracer.metrics(statistics.median(reference.epoch_seconds),
                             statistics.median(epochs))
    share = metrics["trainer.unattributed_s"][0] / statistics.mean(epochs)
    if abs(share) > COVERAGE_TOLERANCE:
        runner.fail(f"step spans leave {share:.1%} of the epoch unattributed")
    return metrics, {"traced_trainings": runner.attempted - 1, "unattributed_share": share}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    import_program()
    from hgcl.synthetic import generate_synthetic
    from tracer import Probe

    wl = WORKLOADS[args.workload]
    m, n = wl["smoke"] if args.smoke else (wl["m"], wl["n"])
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner, probe = Runner(), Probe()
    try:
        manifest = generate_synthetic(work / "data", m, n, HOMOPHILY, seed=args.seed)
        cfg = make_config(wl, manifest, work, args.seed)
        measure_fn = measure_traced if args.trace else measure
        metrics, details = measure_fn(runner, probe, cfg, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()   # only once no other run is using it

    inputs = input_properties(probe.bundle, cfg) if probe.bundle is not None else {}
    if "objectives.infonce_sim_cells" in metrics:
        inputs["infonce_sim_cells_per_step"] = metrics["objectives.infonce_sim_cells"][0]
    why = {w["name"]: w["why"] for w in
           json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    info = {"workload": args.workload, "why": why[args.workload], "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke, "environment": environment(threads),
            "inputs": inputs, "problems": runner.problems, **details}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
