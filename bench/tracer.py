"""Timers the benchmark installs around hgcl from the outside.

Every timer wraps a public function by replacing the module or class
attribute its caller resolves (``hgcl.trainer.backward``, ``hgcl.model.encode``,
``Tape.matmul``, ...) and puts the original back afterwards. Nothing under
``src/hgcl`` knows about them, and the wrappers only call through, so a
wrapped run computes exactly what an unwrapped one does.

``Probe`` holds the few coarse timers the end-to-end run needs. ``Tracer``
records a span per layer boundary for the separate traced run.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import hgcl.autodiff
import hgcl.dataset
import hgcl.model
import hgcl.trainer

# The 20 primitives the tape records; each gets a forward timer and a call count.
PRIMITIVES = (
    "add", "sub", "mul", "scale", "add_bias", "sum_all", "row_sum", "matmul", "spmm",
    "gather_rows", "concat_columns", "reshape_rows", "lowrank_apply", "sigmoid", "prelu",
    "softplus", "row_l2_normalize", "logsumexp_rows", "take_diag", "cosine_sim_matrix",
)

# Top-level spans of one training step; with the step's own glue
# (trainer.step_self_s) they must tile the epoch.
STEP_SPANS = ("dataset.next_batch", "model.forward_model", "autodiff.backward",
              "optim.adam_step")

_INFONCE_SIGNATURE = inspect.signature(hgcl.model.infonce_loss)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each triple, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class _SetupDone(Exception):
    """Raised at the first sampled batch to end a set-up-only call of train()."""


class Timed(NamedTuple):
    result: object            # TrainResult, or None after a set-up-only call
    setup_s: float            # train() call to the first sampled batch


class Probe:
    """End-to-end timers around ``train()``, with one wrapper call per sampled
    batch; nothing inside a step is touched."""

    def __init__(self):
        self.bundle = None        # RunBundle the last train() call built

    def train(self, cfg, *, setup_only: bool = False) -> Timed:
        """Run ``train(cfg)``, or with ``setup_only`` stop it at the first batch."""
        trainer = hgcl.trainer
        real_next, real_load = hgcl.dataset.BprSampler.next_batch, trainer.load_bundle
        first_batch: list[float] = []

        def next_batch(sampler, batch_size):
            if not first_batch:
                first_batch.append(time.perf_counter())
                if setup_only:
                    raise _SetupDone
            return real_next(sampler, batch_size)

        def load_bundle(*args, **kwargs):
            self.bundle = real_load(*args, **kwargs)
            return self.bundle

        with patched([(hgcl.dataset.BprSampler, "next_batch", next_batch),
                      (trainer, "load_bundle", load_bundle)]):
            start = time.perf_counter()
            try:
                result = trainer.train(cfg)
            except _SetupDone:
                result = None
        return Timed(result, first_batch[0] - start)

    def evaluate(self, cfg, until: float) -> list[float]:
        """Seconds of each back-to-back ``evaluate`` call on the bundle the
        last train() call built, with parameters from ``init_params``, until the
        ``perf_counter`` time ``until`` (at least one). What an evaluation
        computes does not depend on the parameter values. One untimed call
        comes first: the first after a set-up runs on cold caches."""
        data, ops, hp = self.bundle.data, self.bundle.ops, cfg.hyper
        params = hgcl.model.init_params(data.m, data.n, hp.dim, hp.rank, hp.seed,
                                        ops.ui.mat.dtype)
        hgcl.trainer.evaluate(params, ops, cfg, self.bundle.dataset)
        out = []
        while not out or time.perf_counter() < until:
            start = time.perf_counter()
            hgcl.trainer.evaluate(params, ops, cfg, self.bundle.dataset)
            out.append(time.perf_counter() - start)
        return out


class _EpochClock:
    """Stands in for the ``time`` module inside ``hgcl.trainer``, whose loop
    reads ``perf_counter`` exactly at the start and at the end of each epoch."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def perf_counter(self) -> float:
        now = time.perf_counter()
        self._tracer._clock(now)
        return now

    def __getattr__(self, name):
        return getattr(time, name)


class Tracer:
    """Spans at every layer boundary, split by whether they ran inside an epoch.

    A span's self time is its duration minus the time of the spans it
    called. Totals are kept in memory and turned into metrics at the end.
    """

    def __init__(self):
        self._open: list[list[float]] = []   # child seconds of each open span
        self.total: Counter = Counter()       # (in_epoch, span) -> seconds
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()      # (in_epoch, counter) -> amount
        self.in_epoch = False
        self.epochs = 0
        self.epoch_seconds = 0.0              # clock start to clock end, summed
        self.step_seconds = 0.0               # first batch to clock end, summed
        self.top_level = 0.0                  # in-epoch spans called by the trainer itself
        self._epoch_start = 0.0
        self._first_batch: float | None = None

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            self._open.append(child)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                key = (self.in_epoch, name)
                self.total[key] += elapsed
                self.self_time[key] += elapsed - child[0]
                self.calls[key] += 1
                if self._open:
                    self._open[-1][0] += elapsed
                elif self.in_epoch:
                    self.top_level += elapsed
            if after is not None:
                after(out)
            return out
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counts[(self.in_epoch, name)] += amount

    def _clock(self, now: float) -> None:
        if not self.in_epoch:
            self.in_epoch = True
            self._epoch_start, self._first_batch = now, None
            return
        self.in_epoch = False
        self.epochs += 1
        self.epoch_seconds += now - self._epoch_start
        if self._first_batch is not None:
            self.step_seconds += now - self._first_batch

    def _batch_started(self, args, kwargs) -> None:
        if self.in_epoch and self._first_batch is None:
            self._first_batch = time.perf_counter()

    def _infonce_started(self, args, kwargs) -> None:
        bound = _INFONCE_SIGNATURE.bind(*args, **kwargs).arguments
        candidates = bound["candidates"]
        if candidates is None:
            self.count("objectives.infonce_full_calls", 1)
            cells = bound["anchors"].shape[0] * bound["targets"].shape[0]
        else:
            self.count("objectives.infonce_batch_calls", 1)
            cells = len(candidates) ** 2
        self.count("objectives.infonce_sim_cells", cells)

    def _tape_output(self, out) -> None:
        self.count("autodiff.tape_bytes", out.value.nbytes)

    @contextmanager
    def installed(self):
        trainer, model, dataset = hgcl.trainer, hgcl.model, hgcl.dataset
        span = self.span
        forward = span("model.forward_model", model.forward_model)
        table = [
            (trainer, "load_dataset", span("graphs.load_dataset", trainer.load_dataset)),
            (trainer, "build_hetero_graph",
             span("graphs.build_hetero_graph", trainer.build_hetero_graph,
                  after=lambda g: self.count("graphs.edges", g.total_edges))),
            (trainer, "split_leave_one_out", span("dataset.split", trainer.split_leave_one_out)),
            (dataset.BprSampler, "__init__",
             span("dataset.sampler_init", dataset.BprSampler.__init__)),
            (dataset.BprSampler, "next_batch",
             span("dataset.next_batch", dataset.BprSampler.next_batch,
                  before=self._batch_started)),
            (trainer, "build_graph_operators",
             span("encoder.build_graph_operators", trainer.build_graph_operators)),
            (model, "encode", span("encoder.encode", model.encode)),
            (model, "extract_meta_knowledge",
             span("meta.extract_meta_knowledge", model.extract_meta_knowledge)),
            (model, "generate_transforms",
             span("meta.generate_transforms", model.generate_transforms)),
            (model, "apply_transform", span("meta.apply_transform", model.apply_transform)),
            (model, "fuse_final", span("meta.fuse_final", model.fuse_final)),
            (trainer, "forward_model", forward),
            (model, "forward_model", forward),   # the call inside compute_final_embeddings
            (trainer, "compute_final_embeddings",
             span("model.compute_final_embeddings", trainer.compute_final_embeddings)),
            (model, "bpr_loss", span("objectives.bpr_loss", model.bpr_loss)),
            (model, "infonce_loss", span("objectives.infonce_loss", model.infonce_loss,
                                         before=self._infonce_started)),
            (trainer, "backward", span("autodiff.backward", trainer.backward)),
            (trainer, "adam_step", span("optim.adam_step", trainer.adam_step)),
            (trainer, "evaluate", span("trainer.evaluate", trainer.evaluate)),
            (trainer, "evaluate_ranks", span("trainer.evaluate_ranks", trainer.evaluate_ranks)),
            (trainer, "sparsity_report",
             span("trainer.sparsity_report", trainer.sparsity_report)),
            (trainer, "save_checkpoint", span("checkpoint.save", trainer.save_checkpoint)),
            (trainer, "time", _EpochClock(self)),
        ]
        tape = hgcl.autodiff.Tape
        table += [(tape, op, span(f"autodiff.{op}", getattr(tape, op), after=self._tape_output))
                  for op in PRIMITIVES if hasattr(tape, op)]
        with patched(table):
            yield self

    # -- reporting --------------------------------------------------------

    def metrics(self, untraced_epoch_s: float, traced_epoch_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Units say what a value is normalized by: ``s/epoch`` and ``count/step``
        cover training epochs only, ``s/eval`` one ranked evaluation, and a
        plain ``s`` one call (one per train() for set-up stages).
        """
        epochs = self.epochs
        steps = self.calls[(True, "dataset.next_batch")]
        setups = self.calls[(False, "graphs.load_dataset")]
        evals = self.calls[(False, "trainer.evaluate")]

        def per_epoch(name):
            return self.total[(True, name)] / epochs, "s/epoch"

        def per_setup(name):
            return self.total[(False, name)] / setups, "s"

        def per_eval(name):
            return self.total[(False, name)] / evals, "s/eval"

        def per_step(name):
            return self.counts[(True, name)] / steps, "count/step"

        step_spans = sum(self.total[(True, name)] for name in STEP_SPANS)
        step_self = self.step_seconds - self.top_level
        out = {
            "graphs.load_dataset_s": per_setup("graphs.load_dataset"),
            "graphs.build_hetero_graph_s": per_setup("graphs.build_hetero_graph"),
            "graphs.edges": (self.counts[(False, "graphs.edges")] / setups, "count"),
            "dataset.split_s": per_setup("dataset.split"),
            "dataset.sampler_init_s": per_setup("dataset.sampler_init"),
            "dataset.next_batch_s": per_epoch("dataset.next_batch"),
            "dataset.next_batch_calls": (steps / epochs, "count/epoch"),
            "encoder.build_graph_operators_s": per_setup("encoder.build_graph_operators"),
            "encoder.encode_s": per_epoch("encoder.encode"),
            "meta.extract_meta_knowledge_s": per_epoch("meta.extract_meta_knowledge"),
            "meta.generate_transforms_s": per_epoch("meta.generate_transforms"),
            "meta.apply_transform_s": per_epoch("meta.apply_transform"),
            "meta.fuse_final_s": per_epoch("meta.fuse_final"),
            "model.forward_model_self_s":
                (self.self_time[(True, "model.forward_model")] / epochs, "s/epoch"),
            "model.compute_final_embeddings_s": per_eval("model.compute_final_embeddings"),
            "objectives.bpr_loss_s": per_epoch("objectives.bpr_loss"),
            "objectives.infonce_loss_s": per_epoch("objectives.infonce_loss"),
            "objectives.infonce_full_calls": per_step("objectives.infonce_full_calls"),
            "objectives.infonce_batch_calls": per_step("objectives.infonce_batch_calls"),
            "objectives.infonce_sim_cells": per_step("objectives.infonce_sim_cells"),
            "autodiff.backward_s": per_epoch("autodiff.backward"),
            "autodiff.nodes_per_step":
                (sum(self.calls[(True, f"autodiff.{op}")] for op in PRIMITIVES) / steps,
                 "count/step"),
            "autodiff.tape_bytes_per_step":
                (self.counts[(True, "autodiff.tape_bytes")] / steps, "B/step"),
        }
        for op in PRIMITIVES:
            out[f"autodiff.{op}.fwd_s"] = per_epoch(f"autodiff.{op}")
            out[f"autodiff.{op}.calls"] = (self.calls[(True, f"autodiff.{op}")] / steps,
                                           "count/step")
        out.update({
            "optim.adam_step_s": per_epoch("optim.adam_step"),
            "trainer.step_self_s": (step_self / epochs, "s/epoch"),
            "trainer.unattributed_s":
                ((self.epoch_seconds - step_spans - step_self) / epochs, "s/epoch"),
            "trainer.evaluate_s": per_eval("trainer.evaluate"),
            "trainer.evaluate_ranks_s": per_eval("trainer.evaluate_ranks"),
            "trainer.sparsity_report_s": per_eval("trainer.sparsity_report"),
            "checkpoint.save_s": (self.total[(False, "checkpoint.save")]
                                  / self.calls[(False, "checkpoint.save")], "s"),
            "bench.trace_overhead": (traced_epoch_s / untraced_epoch_s, "ratio"),
        })
        return out
