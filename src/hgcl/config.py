"""Run configuration: dataclasses plus the key=value config file format."""
from __future__ import annotations

import configparser
import io
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .objectives import LossConfig

log = logging.getLogger(__name__)


# The model components a run can disable; Ablations has a ``no_<name>`` field
# for each.
ABLATIONS = ("cl", "meta", "uu", "ii")


@dataclass(frozen=True)
class Ablations:
    no_cl: bool = False
    no_meta: bool = False
    no_uu: bool = False
    no_ii: bool = False

    @classmethod
    def from_names(cls, names) -> "Ablations":
        names = set(names or ())
        unknown = names - set(ABLATIONS)
        if unknown:
            raise ValueError(f"unknown ablation(s): {sorted(unknown)}")
        return cls(**{f"no_{name}": name in names for name in ABLATIONS})

    def names(self) -> list[str]:
        return [name for name in ABLATIONS if getattr(self, f"no_{name}")]


@dataclass(frozen=True)
class Hyperparams:
    dim: int = 32
    layers: int = 2
    rank: int = 3
    alpha_user: float = 0.8
    alpha_item: float = 0.8
    batch_size: int = 2048
    learning_rate: float = 0.045
    epochs: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if not self.layers <= 3:
            log.warning("layers=%d is outside the usual 1..3 range", self.layers)
        if not self.rank < self.dim:
            raise ValueError(f"rank must be < dim, got rank={self.rank}, dim={self.dim}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        for name in ("alpha_user", "alpha_item"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    manifest: str = ""
    checkpoint: str = "out/model.ckpt"
    metrics_csv: str = "out/metrics.csv"
    epochs_jsonl: str = "out/epochs.jsonl"
    hyper: Hyperparams = field(default_factory=Hyperparams)
    loss: LossConfig = field(default_factory=LossConfig)
    ablations: Ablations = field(default_factory=Ablations)
    top_k: int = 10
    precision: str = "f64"
    eval_every: int = 5
    patience: int = 3          # 0 disables early stopping
    item_peer_cap: int = 10

    @property
    def dtype(self) -> type:
        """Array dtype of training and evaluation, from ``precision``."""
        return np.float64 if self.precision == "f64" else np.float32

    def validate(self) -> None:
        self.hyper.validate()
        self.loss.validate()
        if self.precision not in ("f64", "f32"):
            raise ValueError("precision must be f64 or f32")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.item_peer_cap < 1:
            raise ValueError("item_peer_cap must be >= 1")


# The file layout: section -> keys, in file order. Each key sets the
# Hyperparams, LossConfig or RunConfig field of its name, except ``ablate``,
# which sets ``ablations``; the field's annotation is the value's type.
_SECTIONS = {
    "data": ("manifest", "checkpoint", "metrics_csv", "epochs_jsonl"),
    "model": ("dim", "layers", "rank", "alpha_user", "alpha_item", "precision"),
    "loss": ("temperature", "cl_user_weight", "cl_item_weight", "cl_weight", "l2_weight",
             "cl_negatives"),
    "train": ("batch_size", "learning_rate", "epochs", "seed", "top_k", "eval_every",
              "patience", "item_peer_cap", "ablate"),
}


def _key_fields() -> dict[str, tuple[str | None, str, type]]:
    """key -> (owner, field name, field type), where owner is the RunConfig
    attribute that holds the field, or None for a field of RunConfig itself."""
    hints = [(owner, get_type_hints(cls)) for owner, cls in
             (("hyper", Hyperparams), ("loss", LossConfig), (None, RunConfig))]
    fields = {}
    for keys in _SECTIONS.values():
        for key in keys:
            name = "ablations" if key == "ablate" else key
            fields[key] = next((owner, name, h[name]) for owner, h in hints if name in h)
    return fields


_KEY_FIELDS = _key_fields()


def parse_config(path: str | Path) -> RunConfig:
    """Read a sectioned key=value config file; relative paths resolve next to it."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        return _read_config(fh.read(), str(path), base=path.parent)


def config_from_text(text: str) -> RunConfig:
    """Parse a config snapshot (as stored in checkpoints); paths kept verbatim."""
    return _read_config(text, "config snapshot", base=None)


def _read_config(text: str, source: str, base: Path | None) -> RunConfig:
    """The one section walk: reject unknown sections and keys, convert each
    value by its field's type (a failure names the section and key), resolve
    [data] paths against ``base`` when given (refusing an empty one), and
    validate the result."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text, source=source)
    values: dict[str | None, dict] = {"hyper": {}, "loss": {}, None: {}}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{source}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ValueError(f"{source}: unknown key {key!r} in [{section}]")
            owner, name, kind = _KEY_FIELDS[key]
            try:
                value = (Ablations.from_names([v.strip() for v in raw.split(",") if v.strip()])
                         if kind is Ablations else kind(raw))
            except ValueError as exc:
                raise ValueError(f"{source}: [{section}] {key}: {exc}") from None
            if base is not None and section == "data":
                if not value:  # would resolve to the config's own directory
                    raise ValueError(f"{source}: [data] {key} is empty")
                value = str((base / value).resolve())
            values[owner][name] = value
    cfg = RunConfig(hyper=Hyperparams(**values["hyper"]), loss=LossConfig(**values["loss"]),
                    **values[None])
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of a config (stable key order; round-trips exactly)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser[section] = {}
        for key in keys:
            owner, name, kind = _KEY_FIELDS[key]
            value = getattr(getattr(cfg, owner) if owner else cfg, name)
            if kind is Ablations:
                parser[section][key] = ",".join(value.names())
            else:
                parser[section][key] = repr(value) if kind is float else str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    return replace(cfg, hyper=replace(cfg.hyper, seed=seed))


def with_ablations(cfg: RunConfig, names) -> RunConfig:
    return replace(cfg, ablations=Ablations.from_names(names))
