"""Edge-file ingestion and symmetric-normalized sparse graph construction."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

EDGE_KINDS = ("interaction", "social", "item-relation")


class EdgeFileError(ValueError):
    """Malformed or empty edge file."""


def _parse_lines(path: str | Path):
    """Yield the two leading ids of each line; blank and ``#`` lines are skipped."""
    path = Path(path)
    # Bytes that are not UTF-8 become lone surrogates: such a line fails naming path:line.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split("\t")
            if len(fields) < 2:
                raise EdgeFileError(f"{path}:{lineno}: expected at least 2 "
                                    f"tab-separated fields, got {len(fields)}")
            try:
                a, b = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeFileError(f"{path}:{lineno}: non-integer id in {fields[:2]!r}")
            if not (0 <= a < 2**63 and 0 <= b < 2**63):  # ids are stored as int64
                raise EdgeFileError(f"{path}:{lineno}: id outside [0, 2**63) in {fields[:2]!r}")
            yield a, b


def load_edge_file(path: str | Path, kind: str) -> list[tuple[int, int]]:
    """Read a tab-separated edge file and return its sorted edge list.

    Edges are deduplicated; for the homogeneous kinds (social, item-relation)
    the pair set is symmetrized and self-loops dropped.
    """
    if kind not in EDGE_KINDS:
        raise ValueError(f"unknown edge kind {kind!r}; expected one of {EDGE_KINDS}")
    pairs: set[tuple[int, int]] = set()
    self_loops = 0
    for src, dst in _parse_lines(path):
        if kind == "interaction":
            pairs.add((src, dst))
        else:
            if src == dst:
                self_loops += 1
                continue
            pairs.add((src, dst))
            pairs.add((dst, src))
    if not pairs:
        raise EdgeFileError(f"{path}: no edges")
    if self_loops:
        log.warning("%s: dropped %d self-loop line(s)", path, self_loops)
    return sorted(pairs)


def load_category_file(path: str | Path) -> dict[int, set[int]]:
    """Read an item -> category file into a mapping (items may repeat)."""
    cats: dict[int, set[int]] = {}
    for item, cat in _parse_lines(path):
        cats.setdefault(item, set()).add(cat)
    if not cats:
        raise EdgeFileError(f"{path}: no edges")
    return cats


def build_item_relations(item_category: dict[int, int | set[int]], n_items: int,
                         cap: int = 10, seed: int = 0) -> list[tuple[int, int]]:
    """Connect items that share a category, bounding each item's peers by ``cap``.

    Categories with at most cap+1 members become cliques. Larger categories get
    a seeded random cap-regular graph (circulant over a shuffled member order),
    which keeps the edge set symmetric and every member at exactly ``cap``
    peers. Items without a category are skipped with a warning count.
    """
    by_cat: dict[int, list[int]] = {}
    missing = 0
    for item in range(n_items):
        raw = item_category.get(item)
        if raw is None:
            missing += 1
            continue
        cats = raw if isinstance(raw, (set, frozenset, list, tuple)) else (raw,)
        for c in cats:
            by_cat.setdefault(c, []).append(item)
    if missing:
        log.warning("build_item_relations: %d item(s) without a category excluded", missing)

    rng = np.random.default_rng(seed)
    pairs: set[tuple[int, int]] = set()
    for cat in sorted(by_cat):
        members = sorted(by_cat[cat])
        s = len(members)
        if s < 2:
            continue
        if s <= cap + 1:
            for i in range(s):
                for j in range(i + 1, s):
                    pairs.add((members[i], members[j]))
                    pairs.add((members[j], members[i]))
            continue
        order = rng.permutation(s)
        half = cap // 2
        for pos in range(s):
            a = members[order[pos]]
            for t in range(1, half + 1):
                b = members[order[(pos + t) % s]]
                pairs.add((a, b))
                pairs.add((b, a))
        if cap % 2 == 1:
            if s % 2 == 0:
                for pos in range(s // 2):
                    a = members[order[pos]]
                    b = members[order[pos + s // 2]]
                    pairs.add((a, b))
                    pairs.add((b, a))
            else:
                log.warning("build_item_relations: category %s has odd size %d; "
                            "odd cap %d rounded down", cat, s, cap)
    return sorted(pairs)


def normalize_adjacency(edges: list[tuple[int, int]], m: int, n: int) -> sp.csr_matrix:
    """Build the symmetric-degree-normalized CSR matrix for an edge list.

    Weight of edge (s, t) is 1/sqrt(deg(s) * deg(t)) with degrees taken from
    the edge list itself; zero-degree rows stay empty.
    """
    src = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    dst = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    if len(edges):
        if src.min() < 0 or src.max() >= m:
            raise ValueError(f"source index out of range for {m} rows")
        if dst.min() < 0 or dst.max() >= n:
            raise ValueError(f"destination index out of range for {n} columns")
    deg_src = np.bincount(src, minlength=m)
    deg_dst = np.bincount(dst, minlength=n)
    weights = 1.0 / (np.sqrt(deg_src[src].astype(np.float64)) * np.sqrt(deg_dst[dst].astype(np.float64)))
    mat = sp.csr_matrix((weights, (src, dst)), shape=(m, n))
    mat.sort_indices()
    return mat


@dataclass(frozen=True)
class HeteroGraph:
    """The three normalized views. Immutable."""

    a_ui: sp.csr_matrix
    a_uu: sp.csr_matrix
    a_ii: sp.csr_matrix

    @property
    def m(self) -> int:
        return self.a_ui.shape[0]

    @property
    def n(self) -> int:
        return self.a_ui.shape[1]

    @property
    def total_edges(self) -> int:
        # Undirected social/item edges are stored in both directions.
        return int(self.a_ui.nnz + self.a_uu.nnz // 2 + self.a_ii.nnz // 2)

    def binary_ui(self) -> sp.csr_matrix:
        """Un-normalized 0/1 incidence of the interaction view."""
        b = self.a_ui.copy()
        b.data = np.ones_like(b.data)
        return b


def build_hetero_graph(ui_edges: list[tuple[int, int]], uu_edges: list[tuple[int, int]],
                       ii_edges: list[tuple[int, int]], m: int, n: int) -> HeteroGraph:
    return HeteroGraph(a_ui=normalize_adjacency(ui_edges, m, n),
                       a_uu=normalize_adjacency(uu_edges, m, m),
                       a_ii=normalize_adjacency(ii_edges, n, n))


# -- manifest + id remapping -------------------------------------------------

MANIFEST_KEYS = ("interactions", "social", "item_categories", "item_relations", "m", "n")


def read_manifest(path: str | Path) -> dict:
    """Parse a key=value dataset manifest; relative paths resolve next to it."""
    path = Path(path)
    out: dict = {}
    # As in _parse_lines, bytes that are not UTF-8 fail as a bad key or value.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in MANIFEST_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown manifest key {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated manifest key {key!r}")
            if not value:
                raise ValueError(f"{path}:{lineno}: empty value for manifest key {key!r}")
            if key in ("m", "n") and not value.isdecimal():
                raise ValueError(f"{path}:{lineno}: {key} must be a non-negative integer, got {value!r}")
            out[key] = int(value) if key in ("m", "n") else str((path.parent / value).resolve())
    for required in ("interactions", "social", "m", "n"):
        if required not in out:
            raise ValueError(f"{path}: missing manifest key {required!r}")
    if "item_categories" not in out and "item_relations" not in out:
        raise ValueError(f"{path}: need item_categories or item_relations")
    return out


@dataclass(frozen=True)
class LoadedData:
    """Internally remapped graph inputs for one dataset manifest."""

    ui_edges: list[tuple[int, int]]
    uu_edges: list[tuple[int, int]]
    ii_edges: list[tuple[int, int]]
    m: int
    n: int
    user_ids: np.ndarray  # internal index -> external id
    item_ids: np.ndarray


def _dense_map(ids: set[int]) -> tuple[np.ndarray, dict[int, int]]:
    arr = np.array(sorted(ids), dtype=np.int64)
    return arr, {int(v): i for i, v in enumerate(arr)}


def load_dataset(manifest_path: str | Path, item_peer_cap: int = 10, seed: int = 0) -> LoadedData:
    """Load all files named by a manifest and remap external ids to dense ones."""
    man = read_manifest(manifest_path)
    ui_raw = load_edge_file(man["interactions"], "interaction")
    uu_raw = load_edge_file(man["social"], "social")

    users = {e[0] for e in ui_raw} | {e[0] for e in uu_raw} | {e[1] for e in uu_raw}
    items = {e[1] for e in ui_raw}

    categories: dict[int, set[int]] | None = None
    ii_raw: list[tuple[int, int]] | None = None
    if "item_categories" in man:
        categories = load_category_file(man["item_categories"])
        items |= set(categories)
    else:
        ii_raw = load_edge_file(man["item_relations"], "item-relation")
        items |= {e[0] for e in ii_raw} | {e[1] for e in ii_raw}

    if man["m"] < len(users):
        raise ValueError(f"manifest m={man['m']} smaller than {len(users)} observed users")
    if man["n"] < len(items):
        raise ValueError(f"manifest n={man['n']} smaller than {len(items)} observed items")

    user_ids, user_map = _dense_map(users)
    item_ids, item_map = _dense_map(items)
    ui_edges = sorted((user_map[u], item_map[i]) for u, i in ui_raw)
    uu_edges = sorted((user_map[a], user_map[b]) for a, b in uu_raw)
    if categories is not None:
        mapped_cats = {item_map[i]: c for i, c in categories.items()}
        ii_edges = build_item_relations(mapped_cats, man["n"], cap=item_peer_cap, seed=seed)
    else:
        ii_edges = sorted((item_map[a], item_map[b]) for a, b in ii_raw)

    return LoadedData(ui_edges=ui_edges, uu_edges=uu_edges, ii_edges=ii_edges,
                      m=man["m"], n=man["n"], user_ids=user_ids, item_ids=item_ids)
