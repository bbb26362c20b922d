"""Command-line surface: train, eval, gen-synth, export-transforms, grad-check."""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

import numpy as np

from .autodiff import grad_check
from .checkpoint import CheckpointError, load_checkpoint
from .config import ABLATIONS, config_from_text, parse_config, with_ablations, with_seed
from .dataset import BprSampler
from .model import forward_model, init_params, transform_matrix_for_node
from .meta import write_transform_csv
from .synthetic import generate_synthetic
from .trainer import evaluate, load_bundle, run_seeds, train

log = logging.getLogger(__name__)

GRAD_CHECK_THRESHOLD = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors must exit 1
        raise UsageError(message)


def count(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="hgcl", description="Heterogeneous graph contrastive recommender")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--ablate", action="append", choices=ABLATIONS,
                         default=None, help="repeatable; disable a model component")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset manifest; "
                            "prints the metrics CSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="dataset manifest path")
    p_eval.add_argument("--k", type=count, default=10)

    p_gen = sub.add_parser("gen-synth", help="generate a synthetic clustered dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--users", type=int, required=True)
    p_gen.add_argument("--items", type=int, required=True)
    p_gen.add_argument("--homophily", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("export-transforms",
                           help="export one node's personalized transform matrix as CSV")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--node", type=int, required=True, help="external node id")
    p_exp.add_argument("--side", choices=["user", "item"], required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--data", default=None, help="manifest override (defaults to "
                                                    "the one recorded at training time)")

    p_gc = sub.add_parser("grad-check", help="finite-difference check of the full loss")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--max-coords", type=count, default=200)
    p_gc.add_argument("--batch", type=count, default=128)
    return parser


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.ablate:
        cfg = with_ablations(cfg, args.ablate)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    result = train(cfg)
    log.info("final: hr@%d=%.4f ndcg@%d=%.4f over %d users; checkpoint at %s",
             result.report.k, result.report.hr, result.report.k, result.report.ndcg,
             result.report.evaluated, cfg.checkpoint)
    return 0


def _load_for_checkpoint(checkpoint_path: str, manifest: str | None):
    ckpt = load_checkpoint(checkpoint_path)
    cfg = config_from_text(ckpt.config_text)
    for name in ("dim", "rank", "layers"):
        header, snapshot = getattr(ckpt, name), getattr(cfg.hyper, name)
        if header != snapshot:
            raise CheckpointError(f"{checkpoint_path}: '{name}' is {header} in the header "
                                  f"but {snapshot} in the config snapshot")
    bundle = load_bundle(cfg, manifest=manifest)
    if (bundle.data.m, bundle.data.n) != (ckpt.m, ckpt.n):
        raise RuntimeError(f"dimension mismatch: checkpoint is {ckpt.m}x{ckpt.n} "
                           f"but dataset is {bundle.data.m}x{bundle.data.n}")
    for table in ("user_ids", "item_ids"):
        if not np.array_equal(getattr(ckpt, table), getattr(bundle.data, table)):
            raise CheckpointError(f"{checkpoint_path}: id table '{table}' differs from the dataset's")
    params = {k: v.astype(cfg.dtype) for k, v in ckpt.params.items()}
    return ckpt, cfg, bundle, params


def _cmd_eval(args) -> int:
    ckpt, cfg, bundle, params = _load_for_checkpoint(args.checkpoint, args.data)
    cfg = replace(cfg, top_k=args.k)
    report = evaluate(params, bundle.ops, cfg, bundle.dataset)
    # Printed, not written: the snapshot's metrics_csv is the training's own file.
    print("\n".join(report.csv_lines()))
    log.info("hr@%d=%.4f ndcg@%d=%.4f over %d users",
             args.k, report.hr, args.k, report.ndcg, report.evaluated)
    return 0


def _cmd_gen_synth(args) -> int:
    manifest = generate_synthetic(args.out, args.users, args.items, args.homophily,
                                  seed=args.seed)
    log.info("synthetic dataset written; manifest at %s", manifest)
    print(manifest)
    return 0


def _cmd_export_transforms(args) -> int:
    ckpt, cfg, bundle, params = _load_for_checkpoint(args.checkpoint, args.data)
    ids = ckpt.user_ids if args.side == "user" else ckpt.item_ids
    hits = np.flatnonzero(ids == args.node)
    if len(hits) == 0:
        raise RuntimeError(f"unknown {args.side} id {args.node}")
    matrix = transform_matrix_for_node(params, bundle.ops, cfg, int(hits[0]), args.side)
    write_transform_csv(matrix, args.out)
    log.info("wrote %dx%d transform of %s %d to %s",
             matrix.shape[0], matrix.shape[1], args.side, args.node, args.out)
    return 0


def _cmd_grad_check(args) -> int:
    cfg = parse_config(args.config)
    bundle = load_bundle(cfg)
    hp = cfg.hyper
    seeds = run_seeds(hp.seed)
    params = init_params(bundle.data.m, bundle.data.n, hp.dim, hp.rank, seeds.init)
    sampler = BprSampler(bundle.dataset, seed=seeds.sampler)
    batch = sampler.next_batch(min(args.batch, hp.batch_size))

    def builder(tape, leaves):  # grad_check probes only the parameters the loss reaches
        return forward_model(tape, leaves, bundle.ops, cfg, batch=batch).loss

    err = grad_check(builder, params, max_coords=args.max_coords)
    print(f"max relative gradient error: {err:.3e} (threshold {GRAD_CHECK_THRESHOLD:.0e})")
    if err >= GRAD_CHECK_THRESHOLD:
        log.error("gradient check failed")
        return 2
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gen-synth": _cmd_gen_synth,
    "export-transforms": _cmd_export_transforms,
    "grad-check": _cmd_grad_check,
}


def cli_main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # runtime failures exit 2 with a message
        log.error("%s", exc)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
