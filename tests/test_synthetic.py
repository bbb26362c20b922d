"""Synthetic fixture generator: determinism and planted-structure oracles."""
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from hgcl.graphs import load_dataset
from hgcl.synthetic import (CATEGORIES_PER_CLUSTER, N_CLUSTERS, _round_robin,
                            generate_synthetic)


def cluster_labels(m: int, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The planted (user cluster, item category) assignment generate_synthetic
    draws first from its seed."""
    rng = np.random.default_rng(seed)
    user_cluster = _round_robin(m, N_CLUSTERS, rng)
    item_category = _round_robin(n, N_CLUSTERS * CATEGORIES_PER_CLUSTER, rng)
    return user_cluster, item_category


def read_all(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_means_byte_identical_files(tmp_path):
    generate_synthetic(tmp_path / "a", 40, 150, 0.6, seed=9)
    generate_synthetic(tmp_path / "b", 40, 150, 0.6, seed=9)
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
    generate_synthetic(tmp_path / "c", 40, 150, 0.6, seed=10)
    assert read_all(tmp_path / "a") != read_all(tmp_path / "c")


def test_generated_dataset_loads_cleanly(tmp_path):
    man = generate_synthetic(tmp_path / "d", 30, 140, 0.5, seed=2)
    data = load_dataset(man)
    assert data.m == 30 and data.n == 140
    assert len(data.ui_edges) >= 30 * 2
    assert len(data.uu_edges) and len(data.ii_edges)


def test_full_homophily_keeps_social_edges_intra_cluster(tmp_path):
    man = generate_synthetic(tmp_path / "h1", 50, 150, 1.0, seed=4)
    data = load_dataset(man)
    users, _ = cluster_labels(50, 150, seed=4)
    assert all(users[a] == users[b] for a, b in data.uu_edges)


@pytest.mark.slow
def test_zero_homophily_has_no_assortativity(tmp_path):
    # Newman attribute assortativity (networkx oracle) should vanish when
    # social edges ignore the clusters; averaged over 5 seeds.
    values = []
    for seed in range(5):
        man = generate_synthetic(tmp_path / f"h0-{seed}", 60, 150, 0.0, seed=seed)
        data = load_dataset(man)
        users, _ = cluster_labels(60, 150, seed=seed)
        graph = nx.Graph()
        graph.add_nodes_from(range(60))
        graph.add_edges_from({(a, b) for a, b in data.uu_edges if a < b})
        for node in graph.nodes:
            graph.nodes[node]["c"] = int(users[node])
        values.append(nx.attribute_assortativity_coefficient(graph, "c"))
    assert abs(np.mean(values)) < 0.05


def test_argument_validation(tmp_path):
    with pytest.raises(ValueError, match="at least 10"):
        generate_synthetic(tmp_path / "x", 5, 150, 0.5)
    with pytest.raises(ValueError, match="homophily"):
        generate_synthetic(tmp_path / "x", 20, 150, 1.5)
    with pytest.raises(ValueError, match="items for evaluation"):
        generate_synthetic(tmp_path / "x", 20, 50, 0.5)


def test_every_user_has_enough_interactions(tmp_path):
    man = generate_synthetic(tmp_path / "deg", 40, 150, 0.7, seed=3)
    data = load_dataset(man)
    counts = np.bincount([u for u, _ in data.ui_edges], minlength=40)
    assert counts.min() >= 2  # every user is eligible for a test row
