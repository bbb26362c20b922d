"""Synthetic dataset generator with planted preference structure.

Users belong to coarse preference clusters; items carry fine categories nested
inside those clusters. Each of a user's distinct interactions is, with
probability ``INTRA_AFFINITY``, a uniform item of a uniform category of the
user's cluster, and otherwise a uniform item of the whole catalogue, so there
is no per-user preference below the cluster. Social edges prefer same-cluster
users with per-user strength centered on the requested homophily, and the
emitted category file exposes the fine item structure. Output follows the
external edge-file format, so a generated directory is a regular dataset.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

N_CLUSTERS = 5
CATEGORIES_PER_CLUSTER = 12
SOCIAL_DEGREE = 6
DEGREE_RANGE = (3, 9)
INTRA_AFFINITY = 0.65       # probability an interaction stays in the user's cluster
# Spread of per-user homophily around the requested mean; users then differ in
# how reliable their social neighborhood is.
HOMOPHILY_CONCENTRATION = 5.0


def _round_robin(count: int, buckets: int, rng: np.random.Generator) -> np.ndarray:
    base = np.arange(count) % buckets
    return base[rng.permutation(count)]


def generate_synthetic(out_dir: str | Path, m: int, n: int, homophily: float,
                       seed: int = 0) -> Path:
    """Write interactions/social/item-category files plus a manifest; returns
    the manifest path. Byte-identical output for identical arguments."""
    if m < 10 or n < 10:
        raise ValueError("need at least 10 users and 10 items")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must be in [0, 1]")
    if n < 100 + DEGREE_RANGE[1]:
        raise ValueError(f"need at least {100 + DEGREE_RANGE[1]} items for evaluation pools")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    n_categories = N_CLUSTERS * CATEGORIES_PER_CLUSTER
    user_cluster = _round_robin(m, N_CLUSTERS, rng)
    item_category = _round_robin(n, n_categories, rng)
    item_cluster = item_category // CATEGORIES_PER_CLUSTER
    items_by_cat = [np.flatnonzero(item_category == c) for c in range(n_categories)]
    users_of = [np.flatnonzero(user_cluster == c) for c in range(N_CLUSTERS)]

    if homophily in (0.0, 1.0):
        user_h = np.full(m, homophily)
    else:
        user_h = rng.beta(HOMOPHILY_CONCENTRATION * homophily,
                          HOMOPHILY_CONCENTRATION * (1.0 - homophily), size=m)

    interactions: list[tuple[int, int]] = []
    for u in range(m):
        degree = int(rng.integers(DEGREE_RANGE[0], DEGREE_RANGE[1] + 1))
        own_cats = user_cluster[u] * CATEGORIES_PER_CLUSTER
        chosen: set[int] = set()
        while len(chosen) < degree:
            if rng.random() < INTRA_AFFINITY:
                cat = own_cats + int(rng.integers(CATEGORIES_PER_CLUSTER))
                pool = items_by_cat[cat]
                if len(pool) == 0:
                    continue
                chosen.add(int(pool[rng.integers(len(pool))]))
            else:
                chosen.add(int(rng.integers(n)))
        interactions.extend((u, i) for i in sorted(chosen))

    social: set[tuple[int, int]] = set()
    for u in range(m):
        own = users_of[user_cluster[u]]
        added = 0
        tries = 0
        # Bounded retries: a saturated neighborhood (tiny cluster at high
        # homophily) otherwise never yields enough fresh partners.
        while added < SOCIAL_DEGREE and tries < 50 * SOCIAL_DEGREE:
            tries += 1
            if rng.random() < user_h[u]:
                v = int(own[rng.integers(len(own))])
            else:
                v = int(rng.integers(m))
            if v == u:
                continue
            edge = (min(u, v), max(u, v))
            if edge in social:
                continue
            social.add(edge)
            added += 1

    inter_path = out / "interactions.tsv"
    social_path = out / "social.tsv"
    cat_path = out / "item_categories.tsv"
    manifest_path = out / "manifest.txt"

    with inter_path.open("w", encoding="utf-8") as fh:
        fh.write("# user\titem\n")
        for u, i in interactions:
            fh.write(f"{u}\t{i}\n")
    with social_path.open("w", encoding="utf-8") as fh:
        fh.write("# user\tuser\n")
        for a, b in sorted(social):
            fh.write(f"{a}\t{b}\n")
    with cat_path.open("w", encoding="utf-8") as fh:
        fh.write("# item\tcategory\n")
        for i in range(n):
            fh.write(f"{i}\t{int(item_category[i])}\n")
    with manifest_path.open("w", encoding="utf-8") as fh:
        fh.write(f"interactions={inter_path.name}\n")
        fh.write(f"social={social_path.name}\n")
        fh.write(f"item_categories={cat_path.name}\n")
        fh.write(f"m={m}\n")
        fh.write(f"n={n}\n")
    return manifest_path

