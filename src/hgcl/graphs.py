"""Edge-file ingestion and symmetric-normalized sparse graph construction.

Every edge list is a sorted, unique ``(E, 2)`` int64 array, from file to CSR."""
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


def _parse_pairs(path: str | Path) -> np.ndarray:
    """The two leading ids of each line as an ``(E, 2)`` int64 array, in file order.

    Blank and ``#`` lines are skipped, fields are tab-separated and ids are read
    by ``int()``. A refused file is scanned line by line for its first fault.
    """
    path = Path(path)
    # Bytes that are not UTF-8 become lone surrogates, which int() refuses.
    lines = path.read_text(encoding="utf-8", errors="surrogateescape").split("\n")
    data = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    heads = [field for line in data for field in line.split("\t", 2)[:2]]
    try:  # a line with one field fails the reshape, an id past int64 the int64 cast
        pairs = np.fromiter(map(int, heads), np.int64, len(heads)).reshape(len(data), 2)
        if not (pairs < 0).any():
            return pairs
    except (ValueError, OverflowError):
        pass
    raise _first_fault(path, lines)


def _first_fault(path: Path, lines: list[str]) -> EdgeFileError:
    """The error naming the first line of a file that ``_parse_pairs`` refused."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) < 2:
            return EdgeFileError(f"{path}:{lineno}: expected at least 2 "
                                 f"tab-separated fields, got {len(fields)}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            return EdgeFileError(f"{path}:{lineno}: non-integer id in {fields[:2]!r}")
        if not (0 <= a < 2**63 and 0 <= b < 2**63):  # ids are stored as int64
            return EdgeFileError(f"{path}:{lineno}: id outside [0, 2**63) in {fields[:2]!r}")
    raise AssertionError(f"{path}: refused, but every line parses")


def _sorted_unique(pairs: np.ndarray) -> np.ndarray:
    """The distinct rows of an ``(E, 2)`` array, ascending by first then second id."""
    # Ranks are below 2E, so a pair of them packs into one sortable int64 key.
    ids, ranks = np.unique(pairs, return_inverse=True)
    ranks = ranks.reshape(-1, 2)
    keys = np.sort(ranks[:, 0] * len(ids) + ranks[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack([ids[keys // len(ids)], ids[keys % len(ids)]], axis=1)


def load_edge_file(path: str | Path, kind: str) -> np.ndarray:
    """Read a tab-separated edge file into a sorted, unique ``(E, 2)`` int64 array.

    For the homogeneous kinds (social, item-relation) self-loops are dropped
    and the pairs symmetrized.
    """
    if kind not in EDGE_KINDS:
        raise ValueError(f"unknown edge kind {kind!r}; expected one of {EDGE_KINDS}")
    pairs = _parse_pairs(path)
    loops = (pairs[:, 0] == pairs[:, 1]) & (kind != "interaction")
    if kind != "interaction":
        pairs = pairs[~loops]
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    if not len(pairs):
        raise EdgeFileError(f"{path}: no edges")
    if loops.any():
        log.warning("%s: dropped %d self-loop line(s)", path, np.count_nonzero(loops))
    return _sorted_unique(pairs)


def load_category_file(path: str | Path) -> np.ndarray:
    """Read an item -> category file into sorted, unique ``(item, category)`` rows."""
    pairs = _parse_pairs(path)
    if not len(pairs):
        raise EdgeFileError(f"{path}: no edges")
    return _sorted_unique(pairs)


def build_item_relations(item_category: np.ndarray, n_items: int,
                         cap: int = 10, seed: int = 0) -> np.ndarray:
    """Connect items that share a category, bounding each item's peers by ``cap``.

    ``item_category`` holds ``(item, category)`` rows with items in
    ``[0, n_items)``. Categories, in ascending order, with at most cap+1
    members become cliques. Larger categories get a seeded random cap-regular
    graph (circulant over a shuffled member order), which keeps the edge set
    symmetric and every member at exactly ``cap`` peers. Items without a
    category are skipped with a warning count.
    """
    by_cat = _sorted_unique(item_category[:, ::-1])
    cats, members = by_cat[:, 0], by_cat[:, 1]
    missing = n_items - len(np.unique(members))
    if missing:
        log.warning("build_item_relations: %d item(s) without a category excluded", missing)

    rng = np.random.default_rng(seed)
    parts = [np.empty((0, 2), dtype=np.int64)]
    starts = np.flatnonzero(np.r_[True, cats[1:] != cats[:-1]])
    for start, end in zip(starts.tolist(), [*starts[1:].tolist(), len(cats)]):
        group, s = members[start:end], end - start
        if s < 2:
            continue
        if s <= cap + 1:
            pairs = np.stack([np.repeat(group, s), np.tile(group, s)], axis=1)
            parts.append(pairs[pairs[:, 0] != pairs[:, 1]])
            continue
        ring = group[rng.permutation(s)]
        a = np.repeat(ring, cap // 2)
        b = ring[(np.arange(s)[:, None] + np.arange(1, cap // 2 + 1)) % s].ravel()
        if cap % 2 == 1:
            if s % 2 == 0:
                a, b = np.r_[a, ring[:s // 2]], np.r_[b, ring[s // 2:]]
            else:
                log.warning("build_item_relations: category %s has odd size %d; "
                            "odd cap %d rounded down", cats[start], s, cap)
        parts += [np.stack([a, b], axis=1), np.stack([b, a], axis=1)]
    return _sorted_unique(np.concatenate(parts))


def normalize_adjacency(edges: np.ndarray, m: int, n: int) -> sp.csr_matrix:
    """Build the symmetric-degree-normalized CSR matrix of a sorted, unique edge list.

    Weight of edge (s, t) is 1/sqrt(deg(s) * deg(t)) with degrees taken from
    the edge list itself; zero-degree rows stay empty. The rows are already in
    CSR order, so they are the matrix's column indices as they stand.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    if len(edges):
        if src.min() < 0 or src.max() >= m:
            raise ValueError(f"source index out of range for {m} rows")
        if dst.min() < 0 or dst.max() >= n:
            raise ValueError(f"destination index out of range for {n} columns")
        step = np.diff(src)
        if (step < 0).any() or ((step == 0) & (np.diff(dst) <= 0)).any():
            raise ValueError("edges must be sorted and unique")
    deg_src = np.bincount(src, minlength=m)
    deg_dst = np.bincount(dst, minlength=n)
    weights = 1.0 / (np.sqrt(deg_src[src].astype(np.float64)) * np.sqrt(deg_dst[dst].astype(np.float64)))
    indptr = np.concatenate([[0], np.cumsum(deg_src)])
    return sp.csr_matrix((weights, dst, indptr), shape=(m, n))


@dataclass(frozen=True)
class HeteroGraph:
    """The three normalized views. Immutable."""

    a_ui: sp.csr_matrix
    a_uu: sp.csr_matrix
    a_ii: sp.csr_matrix

    @property
    def total_edges(self) -> int:
        # Undirected social/item edges are stored in both directions.
        return int(self.a_ui.nnz + self.a_uu.nnz // 2 + self.a_ii.nnz // 2)

    def binary_ui(self) -> sp.csr_matrix:
        """Un-normalized 0/1 incidence of the interaction view."""
        b = self.a_ui.copy()
        b.data = np.ones_like(b.data)
        return b


def build_hetero_graph(ui_edges: np.ndarray, uu_edges: np.ndarray, ii_edges: np.ndarray,
                       m: int, n: int) -> HeteroGraph:
    return HeteroGraph(a_ui=normalize_adjacency(ui_edges, m, n),
                       a_uu=normalize_adjacency(uu_edges, m, m),
                       a_ii=normalize_adjacency(ii_edges, n, n))


# -- manifest + id remapping -------------------------------------------------

MANIFEST_KEYS = ("interactions", "social", "item_categories", "item_relations", "m", "n")


def read_manifest(path: str | Path) -> dict:
    """Parse a key=value dataset manifest; relative paths resolve next to it."""
    path = Path(path)
    out: dict = {}
    # As in edge files, bytes that are not UTF-8 fail as a bad key or value.
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

    ui_edges: np.ndarray  # (E, 2) int64, sorted and unique, as every edge list here
    uu_edges: np.ndarray
    ii_edges: np.ndarray
    m: int
    n: int
    user_ids: np.ndarray  # internal index -> external id
    item_ids: np.ndarray


def load_dataset(manifest_path: str | Path, item_peer_cap: int = 10, seed: int = 0) -> LoadedData:
    """Load all files named by a manifest and remap external ids to dense ones."""
    man = read_manifest(manifest_path)
    ui = load_edge_file(man["interactions"], "interaction")
    uu = load_edge_file(man["social"], "social")
    if "item_categories" in man:
        related = load_category_file(man["item_categories"])
        related_items = related[:, :1]  # a view: remapped in place below
    else:
        related = related_items = load_edge_file(man["item_relations"], "item-relation")

    # A dense id is the rank of the external id among the observed ones. Both
    # maps increase, so sorted unique rows stay sorted and unique.
    user_ids, user_rank = np.unique(np.concatenate([ui[:, 0], uu.ravel()]), return_inverse=True)
    item_ids, item_rank = np.unique(np.concatenate([ui[:, 1], related_items.ravel()]),
                                    return_inverse=True)
    if man["m"] < len(user_ids):
        raise ValueError(f"manifest m={man['m']} smaller than {len(user_ids)} observed users")
    if man["n"] < len(item_ids):
        raise ValueError(f"manifest n={man['n']} smaller than {len(item_ids)} observed items")
    ui_edges = np.stack([user_rank[:len(ui)], item_rank[:len(ui)]], axis=1)
    uu_edges = user_rank[len(ui):].reshape(-1, 2)
    related_items[:] = item_rank[len(ui):].reshape(related_items.shape)
    ii_edges = (build_item_relations(related, man["n"], cap=item_peer_cap, seed=seed)
                if "item_categories" in man else related)

    return LoadedData(ui_edges=ui_edges, uu_edges=uu_edges, ii_edges=ii_edges,
                      m=man["m"], n=man["n"], user_ids=user_ids, item_ids=item_ids)
