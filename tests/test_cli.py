"""Command-line surface: subcommands, exit codes, and the file pipeline."""
from pathlib import Path

import numpy as np
import pytest

from hgcl.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from hgcl.cli import _load_for_checkpoint, cli_main
from hgcl.config import config_from_text

from conftest import read_transform_csv


def write_config(tmp_path, manifest, **overrides) -> Path:
    values = {
        "dim": 16, "layers": 2, "rank": 3, "epochs": 4, "seed": 1,
        "batch_size": 256, "learning_rate": 0.01, "patience": 0,
    }
    values.update(overrides)
    text = f"""
[data]
manifest = {manifest}
checkpoint = out/model.ckpt
metrics_csv = out/metrics.csv
epochs_jsonl = out/epochs.jsonl

[model]
dim = {values['dim']}
layers = {values['layers']}
rank = {values['rank']}

[train]
batch_size = {values['batch_size']}
learning_rate = {values['learning_rate']}
epochs = {values['epochs']}
seed = {values['seed']}
patience = {values['patience']}
"""
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-synth -> train once; several tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    assert cli_main(["gen-synth", "--out", str(root / "data"), "--users", "60",
                     "--items", "160", "--homophily", "0.8", "--seed", "5"]) == 0
    manifest = root / "data" / "manifest.txt"
    assert manifest.exists()
    cfg_path = write_config(root, manifest)
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def test_train_writes_all_outputs(pipeline):
    root, _ = pipeline
    for name in ("model.ckpt", "metrics.csv", "epochs.jsonl"):
        assert (root / "out" / name).exists()


def test_eval_exit_zero_and_metrics(pipeline):
    root, _ = pipeline
    code = cli_main(["eval", "--checkpoint", str(root / "out" / "model.ckpt"),
                     "--data", str(root / "data" / "manifest.txt"), "--k", "10"])
    assert code == 0
    text = (root / "out" / "metrics.csv").read_text()
    assert text.startswith("metric,group,value")


def test_export_transforms_round_trip(pipeline):
    root, _ = pipeline
    out_csv = root / "transform.csv"
    code = cli_main(["export-transforms", "--checkpoint", str(root / "out" / "model.ckpt"),
                     "--node", "3", "--side", "user", "--out", str(out_csv)])
    assert code == 0
    matrix = read_transform_csv(out_csv)
    assert matrix.shape == (16, 16)
    s = np.linalg.svd(matrix, compute_uv=False)
    assert s[3] < 1e-8 * s[0]  # rank bounded by k=3


def test_export_transforms_unknown_node(pipeline, capsys):
    root, _ = pipeline
    code = cli_main(["export-transforms", "--checkpoint", str(root / "out" / "model.ckpt"),
                     "--node", "9999", "--side", "item", "--out", str(root / "t.csv")])
    assert code == 2


def test_eval_dimension_mismatch_exits_two(pipeline, tmp_path, capsys):
    root, _ = pipeline
    assert cli_main(["gen-synth", "--out", str(tmp_path / "other"), "--users", "40",
                     "--items", "150", "--homophily", "0.5", "--seed", "1"]) == 0
    code = cli_main(["eval", "--checkpoint", str(root / "out" / "model.ckpt"),
                     "--data", str(tmp_path / "other" / "manifest.txt")])
    assert code == 2


def _edit_snapshot(ckpt, old, new):
    """Change one model setting of the config snapshot, not of the header."""
    ckpt.config_text = ckpt.config_text.replace(old, new)


# Each case edits a loaded checkpoint and names what the edit breaks.
CHECKPOINT_EDITS = {
    "missing_parameter": ("item_mlp2_b_out", lambda c: c.params.pop("item_mlp2_b_out")),
    "reshaped_parameter": ("user_gate_w", lambda c: c.params.update(
        user_gate_w=c.params["user_gate_w"].reshape(8, 32))),
    "unknown_parameter": ("extra_w", lambda c: c.params.update(extra_w=np.zeros(2))),
    "id_table_longer_than_n": ("item_ids", lambda c: setattr(
        c, "item_ids", np.arange(c.n + 1))),
    "short_user_id_table": ("user_ids", lambda c: setattr(c, "user_ids", c.user_ids[:3])),
    "reordered_item_id_table": ("item_ids", lambda c: setattr(
        c, "item_ids", c.item_ids[::-1].copy())),
    "snapshot_dim": ("dim", lambda c: _edit_snapshot(c, "dim = 16", "dim = 8")),
    "snapshot_rank": ("rank", lambda c: _edit_snapshot(c, "rank = 3", "rank = 2")),
    "snapshot_layers": ("layers", lambda c: _edit_snapshot(c, "layers = 2", "layers = 3")),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_EDITS))
def test_eval_rejects_mismatched_checkpoint(pipeline, tmp_path, caplog, case):
    root, _ = pipeline
    name, edit = CHECKPOINT_EDITS[case]
    ckpt = load_checkpoint(root / "out" / "model.ckpt")
    edit(ckpt)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    manifest = str(root / "data" / "manifest.txt")
    with pytest.raises(CheckpointError, match=f"'{name}'"):
        _load_for_checkpoint(str(bad), manifest)
    assert cli_main(["eval", "--checkpoint", str(bad), "--data", manifest]) == 2
    assert f"'{name}'" in caplog.text


def test_ablate_flags_accumulate(pipeline, tmp_path):
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", epochs=1)
    assert cli_main(["train", "--config", str(cfg_path),
                     "--ablate", "cl", "--ablate", "meta"]) == 0
    ckpt = load_checkpoint(tmp_path / "out" / "model.ckpt")
    stored = config_from_text(ckpt.config_text)
    assert stored.ablations.no_cl and stored.ablations.no_meta
    assert not stored.ablations.no_uu


def test_seed_override_changes_checkpoint(pipeline, tmp_path):
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", epochs=1)
    assert cli_main(["train", "--config", str(cfg_path), "--seed", "123"]) == 0
    ckpt = load_checkpoint(tmp_path / "out" / "model.ckpt")
    assert config_from_text(ckpt.config_text).hyper.seed == 123


def test_negative_seed_override_is_named(pipeline, tmp_path, caplog):
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", epochs=1)
    assert cli_main(["train", "--config", str(cfg_path), "--seed", "-2"]) == 2
    assert "seed must be >= 0, got -2" in caplog.text
    assert not (tmp_path / "out" / "model.ckpt").exists()


def test_config_without_a_manifest_is_named(pipeline, tmp_path, caplog):
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", epochs=1)
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace(f"manifest = {root / 'data' / 'manifest.txt'}\n", ""),
                        encoding="utf-8")
    assert cli_main(["train", "--config", str(cfg_path)]) == 2
    assert "[data] manifest" in caplog.text


def test_eval_names_a_checkpoint_whose_config_is_not_utf8(pipeline, tmp_path, caplog):
    root, _ = pipeline
    data = bytearray((root / "out" / "model.ckpt").read_bytes())
    data[4 + 24 + 8 + 3] = 0xFF  # the 4th byte of the config snapshot
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    assert cli_main(["eval", "--checkpoint", str(bad),
                     "--data", str(root / "data" / "manifest.txt")]) == 2
    assert f"{bad}: the config snapshot is not UTF-8" in caplog.text


def test_unknown_flag_is_usage_error():
    assert cli_main(["train", "--bogus", "x"]) == 1


def test_unknown_command_is_usage_error():
    assert cli_main(["frobnicate"]) == 1


def test_no_command_prints_usage():
    assert cli_main([]) == 1


def test_missing_required_argument():
    assert cli_main(["train"]) == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "model.ckpt", "--data", "manifest.txt", "--k", "0"],
    ["grad-check", "--config", "run.cfg", "--batch", "0"],
    ["grad-check", "--config", "run.cfg", "--max-coords", "0"],
], ids=["eval-k", "grad-check-batch", "grad-check-max-coords"])
def test_count_flag_below_one_is_usage_error(argv, capsys):
    assert cli_main(argv) == 1
    assert f"argument {argv[-2]}: must be at least 1" in capsys.readouterr().err


def test_missing_config_file_is_runtime_error(tmp_path):
    assert cli_main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("overrides, loss", [({}, "cl_weight = nan"), ({}, "temperature = inf"),
                                             ({"learning_rate": "inf"}, "")],
                         ids=["cl_weight-nan", "temperature-inf", "learning_rate-inf"])
def test_train_rejects_a_non_finite_float_before_training(pipeline, tmp_path, caplog,
                                                          overrides, loss):
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", **overrides)
    with cfg_path.open("a", encoding="utf-8") as fh:
        fh.write(f"[loss]\n{loss}\n")
    assert cli_main(["train", "--config", str(cfg_path)]) == 2
    assert "must be finite" in caplog.text
    assert not (tmp_path / "out" / "model.ckpt").exists()


GATES_AND_EMBEDDINGS = ["user_emb", "item_emb", "user_gate_w", "user_gate_b",
                        "item_gate_w", "item_gate_b"]
ITEM_META = ["item_mlp1_w_in", "item_mlp1_b_in", "item_mlp1_slope", "item_mlp1_w_out",
             "item_mlp1_b_out", "item_mlp2_w_in", "item_mlp2_b_in", "item_mlp2_slope",
             "item_mlp2_w_out", "item_mlp2_b_out", "item_transfer_slope"]
USER_META = ["user_mlp1_w_in", "user_mlp1_b_in", "user_mlp1_slope", "user_mlp1_w_out",
             "user_mlp1_b_out", "user_mlp2_w_in", "user_mlp2_b_in", "user_mlp2_slope",
             "user_mlp2_w_out", "user_mlp2_b_out", "user_transfer_slope"]


@pytest.mark.parametrize("ablate, checked", [
    (None, GATES_AND_EMBEDDINGS + USER_META + ITEM_META),
    ("meta", GATES_AND_EMBEDDINGS),
    ("uu", ["user_emb", "item_emb", "item_gate_w", "item_gate_b"] + ITEM_META),
], ids=["none", "meta", "uu"])
def test_grad_check_command(pipeline, tmp_path, monkeypatch, capsys, ablate, checked):
    # grad-check hands every parameter to grad_check, which probes the ones
    # the loss reaches: the same error as checking the parameters a training
    # step reads, with the others frozen leaves.
    import hgcl.cli
    real, seen, errors, literal = hgcl.cli.grad_check, [], [], []

    def spy(builder, inputs, **kwargs):
        seen.append(sorted(inputs))
        frozen = {k: v for k, v in inputs.items() if k not in checked}

        def read_only(tape, tensors):
            return builder(tape, {**tensors,
                                  **{k: tape.leaf(v, name=k) for k, v in frozen.items()}})

        literal.append(real(read_only, {k: v for k, v in inputs.items() if k in checked},
                            **kwargs))
        errors.append(real(builder, inputs, **kwargs))
        return errors[-1]

    monkeypatch.setattr(hgcl.cli, "grad_check", spy)
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", dim=6, rank=2)
    if ablate:
        with cfg_path.open("a", encoding="utf-8") as fh:
            fh.write(f"ablate = {ablate}\n")
    code = cli_main(["grad-check", "--config", str(cfg_path),
                     "--max-coords", "40", "--batch", "32"])
    assert code == 0
    assert seen == [sorted(GATES_AND_EMBEDDINGS + USER_META + ITEM_META)]
    assert errors == literal
    assert f"max relative gradient error: {literal[0]:.3e}" in capsys.readouterr().out


def test_grad_check_failure_exits_two(pipeline, tmp_path, monkeypatch, capsys, caplog):
    import hgcl.cli
    monkeypatch.setattr(hgcl.cli, "grad_check", lambda builder, inputs, **kwargs: 2e-4)
    root, _ = pipeline
    cfg_path = write_config(tmp_path, root / "data" / "manifest.txt", dim=6, rank=2)
    assert cli_main(["grad-check", "--config", str(cfg_path), "--batch", "8"]) == 2
    assert "max relative gradient error: 2.000e-04 (threshold 1e-04)" in capsys.readouterr().out
    assert "gradient check failed" in caplog.text
