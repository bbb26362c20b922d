#!/usr/bin/env python3
"""Check that the working tree's outputs are byte-identical to another rev's.

Usage:
    python scripts/check_identity.py --against HEAD~

The rev's tracked files are extracted with ``git archive`` into a temporary
directory; only local git is used. One synthetic dataset (``gen-synth
--users 200 --items 300 --homophily 0.8 --seed 1``) serves both sides, and
a second is derived from its files to exercise the loader: external ids are
sparse (users ``7919 * id + 13``, items ``2**63 - 1 - 7919 * id``, so the
item order reverses), social lines repeat reversed and with self-loops, some
items gain a second category or lose theirs, and comment lines, blank lines
and extra fields are mixed in. Its two manifests name an item-category file
and an item-relation file (consecutive items of each category). For each of
30 trainings (on the first dataset: f64 and f32, ``full`` and ``batch``
contrastive negatives, no ablation and ``--ablate meta|uu|ii|cl``, all at the
default temperature; then, with ``full`` negatives, f32 at temperature 0.01
and f64 at 0.002, and f64 with 1 and with 3 encoder layers; f32 ``batch`` with
1 and with 3 encoder layers; on each manifest
of the second, f64 ``full`` and f32 ``batch``; 10 epochs, batch 512, and 2
encoder layers unless stated) both sides run ``hgcl train`` from the same
directory with the same config,
and ``model.ckpt``, ``metrics.csv`` and ``epochs.jsonl`` are compared byte
for byte. The same directory matters: a checkpoint embeds its config, whose
paths are resolved to absolute ones. After the f64, full, unablated training
each side also runs ``export-transforms`` for user 17 and item 17. After it
and after each f64, full ablated training (``meta``, ``uu``, ``ii`` and
``cl``), each side runs ``grad-check`` on that training's config
(``grad-check`` has no ``--ablate`` flag, so an ablated run's config gets
``ablate = ...`` in ``[train]``), and the five stdouts are compared. After
the f64 ``full`` and the f32 ``batch`` unablated trainings each side runs
``hgcl eval --checkpoint out/model.ckpt --data <manifest> --k 5``, the CLI's
path that casts the 64-bit checkpoint to the run's precision, and the two
``metrics.csv`` files it writes are compared. The 200 users are fewer than
``trainer.EVAL_BLOCK``, so every evaluation here scores one block; block
boundaries are covered by ``tests/test_train_eval.py``'s blocked-ranking
test and by the benchmark's HR@10 and NDCG@10 at 4000 and 8000 users.

Prints one line per training, one per transform CSV, one per grad-check and
one per eval, and exits 1 if any output differs. When a training's
``epochs.jsonl`` differs, a further line gives the worst relative difference
``|a - b| / max(|a|, |b|)`` over its epochs for each numeric field, so that a
change which gives up bit-identity on purpose can state its drift.

Such a change must state its own drift bound for the two extreme-temperature
trainings (f32 at t=0.01, f64 at t=0.002): they amplify rounding far past the
usual tolerances (1e-12 at f64, 1e-3 at f32). Reversing only the order of
``infonce_sum``'s row sum drifted ``cl_item`` by 2.6e-2 and ``hr`` by 5.4e-3
at f32 t=0.01, and ``cl_item`` by 1.8e-8 at f64 t=0.002, over the 10 epochs.
"""
import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("model.ckpt", "metrics.csv", "epochs.jsonl")
SYNTHETIC = "data/manifest.txt"
DERIVED = ("messy/categories.txt", "messy/relations.txt")
# (precision, negatives, ablation, temperature, manifest, encoder layers)
RUNS = [(precision, negatives, ablation, None, SYNTHETIC, 2)
        for precision in ("f64", "f32") for negatives in ("full", "batch")
        for ablation in (None, "meta", "uu", "ii", "cl")]
RUNS += [("f32", "full", None, 0.01, SYNTHETIC, 2), ("f64", "full", None, 0.002, SYNTHETIC, 2)]
# 1 and 3 layers reach the fusion's edges: none at all, and fusion twice.
RUNS += [("f64", "full", None, None, SYNTHETIC, layers) for layers in (1, 3)]
# With ``batch`` negatives the last layer runs on the batch's rows: as the
# first layer, and after two fusions.
RUNS += [("f32", "batch", None, None, SYNTHETIC, layers) for layers in (1, 3)]
RUNS += [(precision, negatives, None, None, manifest, 2) for manifest in DERIVED
         for precision, negatives in (("f64", "full"), ("f32", "batch"))]
# The trainings after which grad-check runs on the same config.
GRAD_CHECKED = [("f64", "full", ablation, None, SYNTHETIC, 2)
                for ablation in (None, "meta", "uu", "ii", "cl")]
# The trainings after which ``hgcl eval --k 5`` runs on the checkpoint.
EVALUATED = [("f64", "full", None, None, SYNTHETIC, 2), ("f32", "batch", None, None, SYNTHETIC, 2)]
CONFIG = """[data]
manifest = {manifest}
checkpoint = out/model.ckpt
metrics_csv = out/metrics.csv
epochs_jsonl = out/epochs.jsonl
[model]
precision = {precision}
layers = {layers}
[loss]
cl_negatives = {negatives}
{temperature}[train]
epochs = 10
batch_size = 512
seed = 0
"""


def hgcl(tree: Path, work: Path, *args: str) -> bytes:
    """Run the CLI of the checkout ``tree`` in ``work``; returns its stdout."""
    proc = subprocess.run([sys.executable, "-m", "hgcl.cli", *args], cwd=work,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"hgcl {' '.join(args)} failed in {tree}:\n{proc.stderr.decode()}")
    return proc.stdout


def derive_dataset(data: Path, out: Path) -> None:
    """Write the second dataset, from the synthetic files in ``data``, to ``out``."""
    def rows(name):
        lines = (data / name).read_text(encoding="utf-8").splitlines()
        return [tuple(map(int, line.split("\t"))) for line in lines if not line.startswith("#")]

    def user(u):
        return 7919 * u + 13

    def item(i):
        return 2**63 - 1 - 7919 * i

    def write(name, lines):
        (out / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")

    out.mkdir()
    inter, social, cats = rows("interactions.tsv"), rows("social.tsv"), rows("item_categories.tsv")
    lines = ["# user\titem\trating"]
    for k, (u, i) in enumerate(inter):
        lines.append(f"{user(u)}\t{item(i)}\t1.0")
        if k % 7 == 0:
            lines += ["", "# repeated", f"{user(u)}\t{item(i)}"]
    write("interactions.tsv", lines)
    lines = []
    for k, (a, b) in enumerate(social):
        lines.append(f"{user(a)}\t{user(b)}")
        if k % 5 == 0:
            lines.append(f"{user(b)}\t{user(a)}\tagain")
        if k % 11 == 0:
            lines.append(f"  {user(a)}\t{user(a)}")
    write("social.tsv", lines)
    n_cats = 1 + max(c for _, c in cats)
    categories = [(i, c) for i, c in cats if i % 17 != 0] + [(i, (c + 1) % n_cats)
                                                            for i, c in cats if i % 13 == 0]
    write("item_categories.tsv", ["# item\tcategory"] + [f"{item(i)}\t{104729 * c + 7}"
                                                         for i, c in categories])
    members = {}
    for i, c in categories:
        members.setdefault(c, []).append(i)
    write("item_relations.tsv", [f"{item(a)}\t{item(b)}\n{item(b)}\t{item(a)}\n{item(a)}\t{item(a)}"
                                 for group in members.values() for a, b in zip(group, group[1:])])
    sizes = (data / "manifest.txt").read_text(encoding="utf-8").splitlines()[-2:]
    for manifest, items in zip(DERIVED, ("item_categories", "item_relations")):
        write(Path(manifest).name, ["interactions=interactions.tsv", "social=social.tsv",
                                    f"{items}={items}.tsv", *sizes])


def drift(base: Path, change: Path) -> str:
    """Worst relative difference per numeric field of two ``epochs.jsonl`` files."""
    lines = [p.read_text(encoding="utf-8").splitlines() for p in (base, change)]
    worst: dict[str, float] = {}
    for a, b in zip(*(map(json.loads, side) for side in lines)):
        for key, x in a.items():
            y = b.get(key)
            if isinstance(x, (int, float)) and isinstance(y, (int, float)):
                scale = max(abs(x), abs(y))
                worst[key] = max(worst.get(key, 0.0), abs(x - y) / scale if scale else 0.0)
    fields = ", ".join(f"{key} {value:.1e}" if value else f"{key} 0"
                       for key, value in worst.items())
    counts = len(lines[0]), len(lines[1])
    return fields if counts[0] == counts[1] else f"{fields} (epochs {counts[0]} vs {counts[1]})"


def run_side(tree: Path, work: Path, keep: Path, run) -> None:
    """Train one configuration with ``tree`` and copy what it wrote to ``keep``."""
    precision, negatives, ablation, temperature, manifest, layers = run
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "run.cfg").write_text(CONFIG.format(
        manifest=manifest, precision=precision, negatives=negatives, layers=layers,
        temperature=f"temperature = {temperature}\n" if temperature else ""), encoding="utf-8")
    hgcl(tree, work, "train", "--config", "run.cfg",
         *(("--ablate", ablation) if ablation else ()))
    keep.mkdir(parents=True)
    for name in OUTPUTS:
        shutil.copy(work / "out" / name, keep / name)
    if run == RUNS[0]:
        for side in ("user", "item"):
            hgcl(tree, work, "export-transforms", "--checkpoint", "out/model.ckpt",
                 "--node", "17", "--side", side, "--out", str(keep / f"{side}17.csv"))
    if run in GRAD_CHECKED:
        config = work / "grad-check.cfg"
        config.write_text((work / "run.cfg").read_text(encoding="utf-8")
                          + (f"ablate = {ablation}\n" if ablation else ""), encoding="utf-8")
        (keep / "grad-check.txt").write_bytes(hgcl(tree, work, "grad-check", "--config", config.name))
    if run in EVALUATED:
        hgcl(tree, work, "eval", "--checkpoint", "out/model.ckpt", "--data", manifest, "--k", "5")
        shutil.copy(work / "out" / "metrics.csv", keep / "eval-metrics.csv")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, help="git rev to compare with")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="hgcl-identity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "base")
        work = tmp / "work"
        work.mkdir()
        hgcl(ROOT, work, "gen-synth", "--out", "data", "--users", "200", "--items", "300",
             "--homophily", "0.8", "--seed", "1")
        derive_dataset(work / "data", work / "messy")

        failed = 0
        for index, run in enumerate(RUNS):
            base, change = tmp / "base-out" / str(index), tmp / "change-out" / str(index)
            run_side(tmp / "base", work, base, run)
            run_side(ROOT, work, change, run)
            label = f"train {run[0]} {run[1]:5s} --ablate {run[2] or '-'}"
            label += f" t={run[3]}" if run[3] else ""
            label += f" layers={run[5]}" if run[5] != 2 else ""
            groups = [(label + (f" {run[4]}" if run[4] != SYNTHETIC else ""), OUTPUTS)]
            if run == RUNS[0]:
                groups += [(f"export-transforms --side {side}", (f"{side}17.csv",))
                           for side in ("user", "item")]
            if run in GRAD_CHECKED:
                groups.append((f"grad-check stdout, ablate = {run[2] or '-'}", ("grad-check.txt",)))
            if run in EVALUATED:
                groups.append((f"eval --k 5 after train {run[0]} {run[1]}", ("eval-metrics.csv",)))
            for label, names in groups:
                bad = [n for n in names if (base / n).read_bytes() != (change / n).read_bytes()]
                failed += bool(bad)
                print(f"{'DIFFERENT' if bad else 'identical'}  {label:54s} "
                      f"{', '.join(bad or names)}", flush=True)
                if "epochs.jsonl" in bad:
                    print(f"{'':11s}drift: {drift(base / 'epochs.jsonl', change / 'epochs.jsonl')}",
                          flush=True)
    print(f"{failed} comparisons differ from {args.against}" if failed
          else f"every output is byte-identical to {args.against}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
