import csv
import logging

import numpy as np
import pytest

from hgcl.config import Hyperparams, RunConfig
from hgcl.objectives import LossConfig
from hgcl.synthetic import generate_synthetic


def read_transform_csv(path) -> np.ndarray:
    """The matrix a ``row,col,value`` CSV from ``meta.write_transform_csv`` holds."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["row", "col", "value"]:
            raise ValueError(f"unexpected transform CSV header: {header}")
        rows = [(int(r), int(c), float(v)) for r, c, v in reader]
    out = np.zeros((max(r for r, _, _ in rows) + 1, max(c for _, c, _ in rows) + 1))
    for r, c, v in rows:
        out[r, c] = v
    return out

logging.getLogger("hgcl").setLevel(logging.WARNING)


@pytest.fixture(scope="session")
def small_manifest(tmp_path_factory):
    """Shared 60x160 synthetic dataset for trainer-level tests."""
    root = tmp_path_factory.mktemp("smalldata")
    return str(generate_synthetic(root, 60, 160, 0.8, seed=11))


def small_config(manifest, tmp_path, epochs=6, seed=0, **kw) -> RunConfig:
    hyper = Hyperparams(dim=16, layers=2, rank=3, epochs=epochs, seed=seed,
                        learning_rate=0.01, batch_size=256,
                        alpha_user=kw.pop("alpha_user", 0.8),
                        alpha_item=kw.pop("alpha_item", 0.8))
    return RunConfig(manifest=manifest,
                     checkpoint=str(tmp_path / "model.ckpt"),
                     metrics_csv=str(tmp_path / "metrics.csv"),
                     epochs_jsonl=str(tmp_path / "epochs.jsonl"),
                     hyper=hyper, loss=LossConfig(**kw), patience=0)


@pytest.fixture
def trained_small(small_manifest, tmp_path):
    from hgcl.trainer import train
    cfg = small_config(small_manifest, tmp_path)
    result = train(cfg)
    return cfg, result


def rng_interactions(m, n, density_per_user, seed):
    rng = np.random.default_rng(seed)
    out = set()
    for u in range(m):
        for i in rng.choice(n, size=density_per_user, replace=False):
            out.add((u, int(i)))
    return sorted(out)
