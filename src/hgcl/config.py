"""Run configuration: dataclasses plus the key=value config file format."""
from __future__ import annotations

import configparser
import io
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .objectives import LossConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Ablations:
    no_cl: bool = False
    no_meta: bool = False
    no_uu: bool = False
    no_ii: bool = False

    @classmethod
    def from_names(cls, names) -> "Ablations":
        names = set(names or ())
        unknown = names - {"cl", "meta", "uu", "ii"}
        if unknown:
            raise ValueError(f"unknown ablation(s): {sorted(unknown)}")
        return cls(no_cl="cl" in names, no_meta="meta" in names,
                   no_uu="uu" in names, no_ii="ii" in names)

    def names(self) -> list[str]:
        return [n for n, on in (("cl", self.no_cl), ("meta", self.no_meta),
                                ("uu", self.no_uu), ("ii", self.no_ii)) if on]


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


# The only listing of config keys: section -> key -> (RunConfig attribute
# path, value type). Parsing and serialization both walk it in this order.
_SCHEMA = {
    "data": {
        "manifest": ("manifest", str),
        "checkpoint": ("checkpoint", str),
        "metrics_csv": ("metrics_csv", str),
        "epochs_jsonl": ("epochs_jsonl", str),
    },
    "model": {
        "dim": ("hyper.dim", int),
        "layers": ("hyper.layers", int),
        "rank": ("hyper.rank", int),
        "alpha_user": ("hyper.alpha_user", float),
        "alpha_item": ("hyper.alpha_item", float),
        "precision": ("precision", str),
    },
    "loss": {
        "temperature": ("loss.temperature", float),
        "cl_user_weight": ("loss.cl_user_weight", float),
        "cl_item_weight": ("loss.cl_item_weight", float),
        "cl_weight": ("loss.cl_weight", float),
        "l2_weight": ("loss.l2_weight", float),
        "cl_negatives": ("loss.cl_negatives", str),
    },
    "train": {
        "batch_size": ("hyper.batch_size", int),
        "learning_rate": ("hyper.learning_rate", float),
        "epochs": ("hyper.epochs", int),
        "seed": ("hyper.seed", int),
        "top_k": ("top_k", int),
        "eval_every": ("eval_every", int),
        "patience": ("patience", int),
        "item_peer_cap": ("item_peer_cap", int),
        "ablate": ("ablations", Ablations),
    },
}


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
    value by its schema type (a failure names the section and key), resolve
    [data] paths against ``base`` when given (refusing an empty one), and
    validate the result."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text, source=source)
    top: dict = {}
    nested: dict[str, dict] = {"hyper": {}, "loss": {}}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{source}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"{source}: unknown key {key!r} in [{section}]")
            target, kind = _SCHEMA[section][key]
            try:
                value = (Ablations.from_names([v.strip() for v in raw.split(",") if v.strip()])
                         if kind is Ablations else kind(raw))
            except ValueError as exc:
                raise ValueError(f"{source}: [{section}] {key}: {exc}") from None
            if base is not None and section == "data":
                if not value:  # would resolve to the config's own directory
                    raise ValueError(f"{source}: [data] {key} is empty")
                value = str((base / value).resolve())
            head, _, attr = target.partition(".")
            if attr:
                nested[head][attr] = value
            else:
                top[head] = value
    cfg = RunConfig(hyper=Hyperparams(**nested["hyper"]), loss=LossConfig(**nested["loss"]),
                    **top)
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of a config (stable key order; round-trips exactly)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser[section] = {}
        for key, (target, kind) in keys.items():
            value = cfg
            for attr in target.split("."):
                value = getattr(value, attr)
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
