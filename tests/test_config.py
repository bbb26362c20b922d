"""Config file parsing, validation, and canonical serialization."""
from dataclasses import replace
from typing import get_type_hints

import pytest

from hgcl.config import (_KEY_FIELDS, _SECTIONS, Ablations, Hyperparams, RunConfig,
                         config_from_text, parse_config, serialize_config, with_ablations,
                         with_seed)
from hgcl.objectives import LossConfig

SAMPLE = """
[data]
manifest = data/manifest.txt
checkpoint = out/model.ckpt
metrics_csv = out/metrics.csv
epochs_jsonl = out/epochs.jsonl

[model]
dim = 16
layers = 2
rank = 3
alpha_user = 0.9
alpha_item = 0.7
precision = f64

[loss]
temperature = 0.25
cl_user_weight = 1.0
cl_item_weight = 0.5
cl_weight = 0.3
l2_weight = 1e-4
cl_negatives = full

[train]
batch_size = 512
learning_rate = 0.01
epochs = 20
seed = 7
top_k = 10
eval_every = 5
patience = 3
item_peer_cap = 10
"""

# serialize_config's exact text for SAMPLE, paths kept verbatim. Checkpoints
# embed this text, so the format must not drift from snapshots already stored.
SAMPLE_SERIALIZED = (
    "[data]\n"
    "manifest = data/manifest.txt\n"
    "checkpoint = out/model.ckpt\n"
    "metrics_csv = out/metrics.csv\n"
    "epochs_jsonl = out/epochs.jsonl\n"
    "\n"
    "[model]\n"
    "dim = 16\n"
    "layers = 2\n"
    "rank = 3\n"
    "alpha_user = 0.9\n"
    "alpha_item = 0.7\n"
    "precision = f64\n"
    "\n"
    "[loss]\n"
    "temperature = 0.25\n"
    "cl_user_weight = 1.0\n"
    "cl_item_weight = 0.5\n"
    "cl_weight = 0.3\n"
    "l2_weight = 0.0001\n"
    "cl_negatives = full\n"
    "\n"
    "[train]\n"
    "batch_size = 512\n"
    "learning_rate = 0.01\n"
    "epochs = 20\n"
    "seed = 7\n"
    "top_k = 10\n"
    "eval_every = 5\n"
    "patience = 3\n"
    "item_peer_cap = 10\n"
    "ablate = \n"
    "\n"
)


def test_parse_config_maps_every_field(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE, encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.hyper.dim == 16
    assert cfg.hyper.seed == 7
    assert cfg.hyper.alpha_item == 0.7
    assert cfg.loss.temperature == 0.25
    assert cfg.loss.cl_item_weight == 0.5
    assert cfg.manifest.endswith("data/manifest.txt")
    assert cfg.patience == 3


def test_serialize_round_trips_exactly(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE, encoding="utf-8")
    cfg = parse_config(path)
    text = serialize_config(cfg)
    again = config_from_text(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert serialize_config(config_from_text(SAMPLE)) == SAMPLE_SERIALIZED


def test_unknown_keys_and_sections_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nwidth = 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(path)
    path.write_text("[nonsense]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown section"):
        parse_config(path)


@pytest.mark.parametrize("text, match", [
    *((f"[data]\n{key} =\n", rf"\[data\] {key} is empty")
      for key in ("manifest", "checkpoint", "metrics_csv", "epochs_jsonl")),
    ("[model]\ndim = abc\n", r"\[model\] dim: invalid literal"),
    ("[train]\nbatch_size = 1e3\n", r"\[train\] batch_size: invalid literal"),
    ("[loss]\ntemperature = warm\n", r"\[loss\] temperature: could not convert"),
    ("[train]\nablate = cl,gates\n", r"\[train\] ablate: unknown ablation"),
], ids=["manifest", "checkpoint", "metrics_csv", "epochs_jsonl",
        "int", "int-exponent", "float", "ablation"])
def test_a_bad_value_names_its_file_section_and_key(tmp_path, text, match):
    # An empty [data] value would otherwise resolve to the config's own
    # directory and fail later as "Is a directory".
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"run.cfg: {match}"):
        parse_config(path)


@pytest.mark.parametrize("text,match", [
    ("[nonsense]\nx = 1\n", "unknown section"),
    ("[model]\nwidth = 4\n", "unknown key"),
    ("[model]\ndim = 4\nrank = 4\n", "rank"),
    ("[model]\nprecision = f16\n", "precision"),
    ("[model]\ndim = abc\n", r"\[model\] dim"),
    ("[model]\ndim = 0\n", "dim must be >= 1"),
    ("[model]\nlayers = 0\n", "layers must be >= 1"),
    ("[model]\nrank = 0\n", "rank must be >= 1"),
    ("[train]\nbatch_size = 0\n", "batch_size must be >= 1"),
    ("[train]\nepochs = 0\n", "epochs must be >= 1"),
    ("[train]\ntop_k = 0\n", "top_k must be >= 1"),
    ("[train]\neval_every = 0\n", "eval_every must be >= 1"),
    ("[train]\nitem_peer_cap = 0\n", "item_peer_cap must be >= 1"),
    ("[train]\npatience = -1\n", "patience must be >= 0"),
    ("[loss]\ncl_negatives = some\n", "cl_negatives must be auto, full, or batch"),
], ids=["section", "key", "rank", "precision", "type", "dim-0", "layers-0", "rank-0",
        "batch_size-0", "epochs-0", "top_k-0", "eval_every-0", "item_peer_cap-0",
        "patience-negative", "cl_negatives"])
def test_config_snapshot_is_checked_like_a_file(text, match):
    # Checkpoints carry their config as text; a corrupt or hand-edited
    # snapshot must fail with the same named errors as a config file.
    with pytest.raises(ValueError, match=match):
        config_from_text(text)


def test_each_key_sets_exactly_one_dataclass_field():
    # The dataclass fields are the only declaration of a key's owner and
    # type; every leaf field is reachable through exactly one key.
    owners = {"hyper": Hyperparams, "loss": LossConfig, None: RunConfig}
    hints = {owner: get_type_hints(cls) for owner, cls in owners.items()}
    keys = [key for section in _SECTIONS.values() for key in section]
    assert len(keys) == len(set(keys))
    for key in keys:
        name = "ablations" if key == "ablate" else key
        holders = [owner for owner, fields in hints.items() if name in fields]
        assert len(holders) == 1, key
        assert _KEY_FIELDS[key] == (holders[0], name, hints[holders[0]][name])
    leaves = [(owner, name) for owner, fields in hints.items() for name in fields
              if not (owner is None and name in owners)]
    assert len(leaves) == len(keys)
    assert set(leaves) == {(owner, name) for owner, name, _ in _KEY_FIELDS.values()}


def test_rank_must_stay_below_dim():
    cfg = RunConfig(hyper=Hyperparams(dim=4, rank=4))
    with pytest.raises(ValueError, match="rank"):
        cfg.validate()


def test_negative_seed_is_named(tmp_path):
    # numpy would reject it later without naming the seed.
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nseed = -3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        parse_config(path)


def test_alpha_range_checked():
    cfg = RunConfig(hyper=Hyperparams(alpha_user=1.2))
    with pytest.raises(ValueError, match="alpha_user"):
        cfg.validate()


def test_temperature_positive():
    cfg = RunConfig(loss=LossConfig(temperature=0.0))
    with pytest.raises(ValueError, match="temperature"):
        cfg.validate()


FLOAT_KEYS = [key for keys in _SECTIONS.values() for key in keys
              if _KEY_FIELDS[key][2] is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in SAMPLE.splitlines()]
    with pytest.raises(ValueError, match=key):
        config_from_text("\n".join(lines))


def test_precision_values():
    cfg = RunConfig(precision="f16")
    with pytest.raises(ValueError, match="precision"):
        cfg.validate()


def test_layers_outside_usual_range_warns(caplog):
    cfg = RunConfig(hyper=Hyperparams(layers=4))
    with caplog.at_level("WARNING"):
        cfg.validate()
    assert "outside the usual" in caplog.text


def test_ablation_names_round_trip():
    abl = Ablations.from_names(["cl", "uu"])
    assert abl.no_cl and abl.no_uu and not abl.no_meta
    assert abl.names() == ["cl", "uu"]
    with pytest.raises(ValueError, match="unknown ablation"):
        Ablations.from_names(["dropout"])


def test_config_helpers():
    cfg = RunConfig()
    assert with_seed(cfg, 9).hyper.seed == 9
    assert with_ablations(cfg, ["meta"]).ablations.no_meta


def test_negatives_mode_auto_threshold():
    loss = LossConfig()
    assert loss.use_full_negatives(4096)
    assert not loss.use_full_negatives(4097)
    assert LossConfig(cl_negatives="batch").use_full_negatives(10) is False
    assert LossConfig(cl_negatives="full").use_full_negatives(10 ** 6) is True


def test_serialized_config_survives_ablations():
    cfg = replace(RunConfig(), ablations=Ablations.from_names(["cl", "ii"]))
    text = serialize_config(cfg)
    assert "\nablate = cl,ii\n" in text
    assert config_from_text(text).ablations == cfg.ablations
