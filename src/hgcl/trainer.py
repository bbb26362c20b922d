"""Training loop, ranked evaluation, and sparsity-group reporting."""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autodiff import DiffError, Tape, backward
from .checkpoint import Checkpoint, save_checkpoint
from .config import RunConfig, serialize_config
from .dataset import BprSampler, InteractionDataset, split_leave_one_out
from .encoder import GraphOperators, build_graph_operators
from .graphs import HeteroGraph, LoadedData, build_hetero_graph, load_dataset
from .model import cl_negative_pools, compute_final_embeddings, forward_model, init_params
from .optim import AdamState, adam_step

log = logging.getLogger(__name__)

# Test users per block in evaluate_ranks: its candidate gather is
# O(EVAL_BLOCK * 99 * d) floats, never (users, 99, d).
EVAL_BLOCK = 512


@dataclass
class GroupMetrics:
    label: str
    evaluated: int            # users with a test row
    mean_train_count: float
    hr: float
    ndcg: float


@dataclass
class MetricsReport:
    k: int
    hr: float
    ndcg: float
    evaluated: int
    groups: list[GroupMetrics] = field(default_factory=list)
    loss_curve: list[dict] = field(default_factory=list)

    def csv_lines(self) -> list[str]:
        lines = ["metric,group,value",
                 f"hr@{self.k},all,{self.hr!r}",
                 f"ndcg@{self.k},all,{self.ndcg!r}"]
        for g in self.groups:
            lines.append(f"hr@{self.k},{g.label},{g.hr!r}")
            lines.append(f"ndcg@{self.k},{g.label},{g.ndcg!r}")
            lines.append(f"mean_train_interactions,{g.label},{g.mean_train_count!r}")
            lines.append(f"evaluated_users,{g.label},{g.evaluated}")
        return lines


def evaluate_ranks(e_user: np.ndarray, e_item: np.ndarray,
                   dataset: InteractionDataset) -> tuple[np.ndarray, np.ndarray]:
    """1-based rank of each test user's positive among its 100 candidates.

    Ties are broken toward the smaller item id, which makes the ranking a
    deterministic pure function of (embeddings, dataset).
    """
    users, pos, negs = dataset.test_users, dataset.test_positive, dataset.eval_negatives
    if len(users) == 0:
        raise ValueError("dataset has no evaluation rows")
    pos_scores = (e_user[users] * e_item[pos]).sum(axis=1)
    neg_scores = np.empty(negs.shape, np.result_type(e_user, e_item))
    for i in range(0, len(users), EVAL_BLOCK):
        blk = slice(i, i + EVAL_BLOCK)
        neg_scores[blk] = np.einsum("ud,ukd->uk", e_user[users[blk]], e_item[negs[blk]])
    beats = (neg_scores > pos_scores[:, None]) | (
        (neg_scores == pos_scores[:, None]) & (negs < pos[:, None]))
    return users, 1 + beats.sum(axis=1)


def rank_metrics(ranks: np.ndarray, k: int) -> tuple[float, float]:
    hits = ranks <= k
    hr = float(hits.mean()) if len(ranks) else 0.0
    gains = np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)
    return hr, float(gains.mean()) if len(ranks) else 0.0


def sparsity_report(users: np.ndarray, ranks: np.ndarray,
                    dataset: InteractionDataset, k: int) -> list[GroupMetrics]:
    """Per-activity-group HR/NDCG plus the group's mean train degree."""
    out = []
    for gi, members in enumerate(dataset.user_groups):
        in_group = ranks[np.isin(users, members)]
        hr, ndcg = rank_metrics(in_group, k)
        mean_count = float(dataset.train_counts[members].mean()) if len(members) else 0.0
        out.append(GroupMetrics(label=f"g{gi + 1}", evaluated=len(in_group),
                                mean_train_count=mean_count, hr=hr, ndcg=ndcg))
    return out


def evaluate(params: dict[str, np.ndarray], ops: GraphOperators, cfg: RunConfig,
             dataset: InteractionDataset) -> MetricsReport:
    """Side-effect-free ranked evaluation of a parameter set."""
    e_user, e_item = compute_final_embeddings(params, ops, cfg)
    users, ranks = evaluate_ranks(e_user, e_item, dataset)
    hr, ndcg = rank_metrics(ranks, cfg.top_k)
    return MetricsReport(k=cfg.top_k, hr=hr, ndcg=ndcg, evaluated=len(users),
                         groups=sparsity_report(users, ranks, dataset, cfg.top_k))


class RunSeeds(NamedTuple):
    split: np.random.SeedSequence
    init: np.random.SeedSequence
    sampler: np.random.SeedSequence


def run_seeds(seed: int) -> RunSeeds:
    """A run's independent random streams, all spawned from its one seed."""
    return RunSeeds(*np.random.SeedSequence(seed).spawn(3))


@dataclass
class RunBundle:
    """Everything derived from a manifest + config, ready to train or evaluate."""

    data: LoadedData
    graph: HeteroGraph
    dataset: InteractionDataset
    ops: GraphOperators


def load_bundle(cfg: RunConfig, manifest: str | None = None) -> RunBundle:
    manifest = manifest or cfg.manifest
    if not manifest:
        raise ValueError("no dataset manifest: the config sets no [data] manifest")
    data = load_dataset(manifest, item_peer_cap=cfg.item_peer_cap, seed=cfg.hyper.seed)
    graph = build_hetero_graph(data.ui_edges, data.uu_edges, data.ii_edges, data.m, data.n)
    dataset = split_leave_one_out(data.ui_edges, data.m, data.n,
                                  seed=run_seeds(cfg.hyper.seed).split)
    ops = build_graph_operators(graph, cfg.dtype, no_uu=cfg.ablations.no_uu,
                                no_ii=cfg.ablations.no_ii)
    return RunBundle(data=data, graph=graph, dataset=dataset, ops=ops)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    report: MetricsReport
    epoch_seconds: list[float]
    stopped_early: bool


def train(cfg: RunConfig, *, write_outputs: bool = True) -> TrainResult:
    """Run the full optimization and return the checkpoint plus final metrics."""
    cfg.validate()
    hp = cfg.hyper
    abl = cfg.ablations
    bundle = load_bundle(cfg)
    dataset, ops = bundle.dataset, bundle.ops

    seeds = run_seeds(hp.seed)
    params = init_params(bundle.data.m, bundle.data.n, hp.dim, hp.rank, seeds.init, cfg.dtype)
    state = AdamState()
    sampler = BprSampler(dataset, seed=seeds.sampler)

    n_batches = max(1, -(-len(dataset.train_edges) // hp.batch_size))
    log.info("training: m=%d n=%d edges=%d batches/epoch=%d ablations=%s "
             "cl_negatives user=%s item=%s", bundle.data.m, bundle.data.n,
             bundle.graph.total_edges, n_batches, ",".join(abl.names()) or "none",
             *cl_negative_pools(ops, cfg))

    curve: list[dict] = []
    epoch_seconds: list[float] = []
    last_good = {k: v.copy() for k, v in params.items()}
    best_ndcg = -1.0
    bad_validations = 0
    stopped_early = False

    def make_checkpoint(src: dict[str, np.ndarray]) -> Checkpoint:
        return Checkpoint(m=bundle.data.m, n=bundle.data.n, dim=hp.dim, rank=hp.rank,
                          layers=hp.layers, config_text=serialize_config(cfg),
                          user_ids=bundle.data.user_ids, item_ids=bundle.data.item_ids,
                          params={k: src[k] for k in params})

    for epoch in range(1, hp.epochs + 1):
        started = time.perf_counter()
        totals = {"loss": 0.0, "bpr": 0.0, "cl_user": 0.0, "cl_item": 0.0}
        for _ in range(n_batches):
            batch = sampler.next_batch(hp.batch_size)
            tape = Tape()
            leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
            try:
                cache = forward_model(tape, leaves, ops, cfg, batch=batch)
                # A parameter the forward did not read (an ablated component's)
                # gets None, and with it neither an Adam update nor Adam state.
                grads = backward(tape, cache.loss, list(leaves.values()))
                adam_step(params, dict(zip(params, grads)), state, hp.learning_rate)
            except (FloatingPointError, DiffError) as exc:
                if write_outputs:
                    save_checkpoint(make_checkpoint(last_good), cfg.checkpoint)
                raise RuntimeError(f"aborted at epoch {epoch}: {exc}; "
                                   "last-good checkpoint saved") from exc
            totals["loss"] += float(cache.loss.value)
            totals["bpr"] += float(cache.bpr.value)
            totals["cl_user"] += float(cache.cl_user.value) if cache.cl_user is not None else 0.0
            totals["cl_item"] += float(cache.cl_item.value) if cache.cl_item is not None else 0.0
            # The cache would live through the next forward. The gradients stay:
            # freeing them as a step ends lets malloc trim the heap, which the
            # next step then page-faults back in.
            del cache
        del tape, leaves, grads  # evaluation must not hold the last step's tape
        epoch_seconds.append(time.perf_counter() - started)
        record = {"epoch": epoch, **{k: v / n_batches for k, v in totals.items()}}

        if not np.isfinite(record["loss"]):
            if write_outputs:
                save_checkpoint(make_checkpoint(last_good), cfg.checkpoint)
            raise RuntimeError(f"non-finite epoch loss at epoch {epoch}; "
                               "last-good checkpoint saved")
        last_good = {k: v.copy() for k, v in params.items()}

        if epoch % cfg.eval_every == 0 or epoch == hp.epochs:
            report = evaluate(params, ops, cfg, dataset)
            record["hr"] = report.hr
            record["ndcg"] = report.ndcg
            log.info("epoch %d: loss=%.4f hr@%d=%.4f ndcg@%d=%.4f (%.2fs)",
                     epoch, record["loss"], cfg.top_k, report.hr, cfg.top_k,
                     report.ndcg, epoch_seconds[-1])
            if report.ndcg > best_ndcg:
                best_ndcg = report.ndcg
                bad_validations = 0
            else:
                bad_validations += 1
                if cfg.patience > 0 and bad_validations >= cfg.patience:
                    curve.append(record)
                    stopped_early = True
                    log.info("early stop at epoch %d (patience %d)", epoch, cfg.patience)
                    break
        else:
            log.info("epoch %d: loss=%.4f (%.2fs)", epoch, record["loss"], epoch_seconds[-1])
        curve.append(record)

    final = report  # the loop ended on an evaluation of these parameters
    final.loss_curve = curve
    ckpt = make_checkpoint(params)
    if write_outputs:
        save_checkpoint(ckpt, cfg.checkpoint)
        write_metrics(final, cfg.metrics_csv)
        write_epochs(curve, cfg.epochs_jsonl)
    return TrainResult(checkpoint=ckpt, report=final, epoch_seconds=epoch_seconds,
                       stopped_early=stopped_early)


def write_metrics(report: MetricsReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(report.csv_lines()) + "\n", encoding="utf-8")


def write_epochs(curve: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in curve:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
