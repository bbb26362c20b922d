"""Edge-file ingestion and normalized adjacency construction."""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcl import graphs
from hgcl.cli import cli_main
from hgcl.graphs import (EDGE_KINDS, MANIFEST_KEYS, EdgeFileError, build_hetero_graph,
                         build_item_relations, load_category_file, load_dataset,
                         load_edge_file, normalize_adjacency, read_manifest)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_edges(edges, expected):
    """``edges`` is the pair set ``expected`` as a sorted, unique (E, 2) int64 array."""
    assert edges.dtype == np.int64 and edges.shape == (len(expected), 2)
    assert edges.tolist() == sorted(map(list, expected))


def category_rows(item_category):
    """(item, category) rows of a mapping from item to a category or a set of them."""
    return np.array([(item, c) for item, cats in item_category.items()
                     for c in (cats if isinstance(cats, set) else {cats})],
                    dtype=np.int64).reshape(-1, 2)


def test_interaction_file_is_deduplicated(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t5\n0\t5\n1\t3\n")
    edges = load_edge_file(path, "interaction")
    assert_edges(edges, {(0, 5), (1, 3)})


def test_social_file_is_symmetrized(tmp_path):
    path = write(tmp_path, "s.tsv", "2\t7\n")
    edges = load_edge_file(path, "social")
    assert_edges(edges, {(2, 7), (7, 2)})


def test_malformed_line_reports_line_number(tmp_path):
    path = write(tmp_path, "bad.tsv", "0\t1\na\tb\n")
    with pytest.raises(EdgeFileError, match=":2"):
        load_edge_file(path, "interaction")


def test_empty_file_is_an_error(tmp_path):
    path = write(tmp_path, "empty.tsv", "# only a comment\n")
    with pytest.raises(EdgeFileError, match="no edges"):
        load_edge_file(path, "interaction")


def test_comments_and_extra_fields_are_tolerated(tmp_path):
    path = write(tmp_path, "e.tsv", "# header\n0\t1\t4.5\textra\n\n2\t3\n")
    edges = load_edge_file(path, "interaction")
    assert_edges(edges, {(0, 1), (2, 3)})


@pytest.mark.parametrize("text, expected", [
    ("0\t1\t2\n3\t4\n", [[0, 1], [3, 4]]),           # a third field
    ("+5\t1\n", [[5, 1]]),                             # a sign
    ("5\x00\t1\n", "non-integer id in ['5\\x00', '1']"),  # a NUL
    (f"{10**18}\t1\n", [[10**18, 1]]),                 # 19 digits
    (" 5\t1\r\n", [[5, 1]]),                          # whitespace that strip() removes
    ("# only a comment\n", []),
], ids=["third_field", "sign", "nul", "19_digits", "whitespace", "no_pair"])
def test_pair_parse_reads_or_refuses(tmp_path, text, expected):
    path = tmp_path / "e.tsv"
    path.write_text(text, encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(EdgeFileError) as err:
            graphs._parse_pairs(path)
        assert str(err.value) == f"{path}:1: {expected}"
    else:
        pairs = graphs._parse_pairs(path)
        assert pairs.dtype == np.int64 and pairs.reshape(-1, 2).tolist() == expected


def test_social_self_loops_dropped(tmp_path):
    path = write(tmp_path, "s.tsv", "1\t1\n1\t2\n")
    edges = load_edge_file(path, "social")
    assert_edges(edges, {(1, 2), (2, 1)})


def test_unknown_kind_rejected(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t1\n")
    with pytest.raises(ValueError, match="kind"):
        load_edge_file(path, "ratings")


def neighbor_counts(edges, n):
    counts = np.zeros(n, dtype=int)
    for a, _ in edges:
        counts[a] += 1
    return counts


def test_shared_category_forms_clique():
    edges = build_item_relations(category_rows({0: 7, 1: 7, 2: 7}), 3, cap=10)
    assert_edges(edges, {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)})


def test_distinct_categories_produce_no_edges():
    assert_edges(build_item_relations(category_rows({0: 1, 1: 2, 2: 3}), 3, cap=10), set())


def test_cap_bounds_every_item_to_exactly_cap_peers():
    # 12 items in one category with cap 10: each item ends with exactly 10
    # peers (count verified by enumeration over the emitted pairs).
    edges = build_item_relations(category_rows({i: 0 for i in range(12)}), 12, cap=10, seed=3)
    counts = neighbor_counts(edges, 12)
    assert list(counts) == [10] * 12
    assert set(map(tuple, edges.tolist())) == {(b, a) for a, b in edges.tolist()}  # symmetric
    assert all(a != b for a, b in edges)


def test_odd_cap_on_even_category_uses_matching():
    edges = build_item_relations(category_rows({i: 0 for i in range(6)}), 6, cap=3, seed=1)
    counts = neighbor_counts(edges, 6)
    assert list(counts) == [3] * 6


def test_cap_is_seeded():
    one_category = category_rows({i: 0 for i in range(20)})
    a = build_item_relations(one_category, 20, cap=6, seed=5)
    b = build_item_relations(one_category, 20, cap=6, seed=5)
    c = build_item_relations(one_category, 20, cap=6, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_items_without_category_are_skipped(caplog):
    with caplog.at_level("WARNING"):
        edges = build_item_relations(category_rows({0: 1, 1: 1}), 4, cap=10)
    assert_edges(edges, {(0, 1), (1, 0)})
    assert "2 item(s) without a category" in caplog.text


def test_multi_category_items_union_their_peers():
    cats = {0: {1, 2}, 1: {1}, 2: {2}}
    edges = build_item_relations(category_rows(cats), 3, cap=10)
    assert_edges(edges, {(0, 1), (1, 0), (0, 2), (2, 0)})


@pytest.mark.parametrize("deg_u,deg_i,expected", [(1, 1, 1.0), (4, 1, 0.5), (2, 8, 0.25)])
def test_normalization_weights(deg_u, deg_i, expected):
    # user 0 with deg_u interactions; item 0 with deg_i interactions; the
    # remaining edges go to fresh nodes so they keep degree 1.
    edges = [(0, 0)]
    edges += [(0, j + 1) for j in range(deg_u - 1)]
    edges += [(j + 1, 0) for j in range(deg_i - 1)]
    mat = normalize_adjacency(edges, deg_i, deg_u)
    assert abs(mat[0, 0] - expected) < 1e-12


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match="out of range"):
        normalize_adjacency([(0, 5)], 2, 3)
    with pytest.raises(ValueError, match="out of range"):
        normalize_adjacency([(4, 0)], 2, 3)


@pytest.mark.parametrize("edges", [[(1, 0), (0, 1)], [(0, 1), (0, 0)], [(0, 1), (0, 1)]],
                         ids=["rows_unsorted", "columns_unsorted", "repeated"])
def test_unsorted_or_repeated_edges_rejected(edges):
    # The CSR takes its row pointers from the degrees and its column indices
    # from the rows as they stand, so only sorted, unique rows build it right.
    with pytest.raises(ValueError, match="sorted and unique"):
        normalize_adjacency(edges, 2, 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=1, max_size=40))
def test_weights_reconstruct_to_one(pairs):
    edges = sorted(set(pairs))
    mat = normalize_adjacency(edges, 10, 10)
    src, dst = np.array(edges).T
    deg_src = np.bincount(src, minlength=10)
    deg_dst = np.bincount(dst, minlength=10)
    coo = mat.tocoo()
    recon = coo.data * np.sqrt(deg_src[coo.row]) * np.sqrt(deg_dst[coo.col])
    assert np.all(np.abs(recon - 1.0) < 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=30))
def test_symmetrized_views_are_symmetric(pairs):
    sym = set()
    for a, b in pairs:
        if a != b:
            sym.add((a, b))
            sym.add((b, a))
    if not sym:
        return
    mat = normalize_adjacency(sorted(sym), 8, 8)
    diff = (mat - mat.T).toarray()
    assert np.abs(diff).max() < 1e-15


def test_zero_degree_rows_are_empty():
    edges = [(0, 0)]
    mat = normalize_adjacency(edges, 3, 2)
    deg_src = np.bincount([s for s, _ in edges], minlength=3)
    assert deg_src[1] == 0 and deg_src[2] == 0
    assert mat[1].nnz == 0 and mat[2].nnz == 0


def test_hetero_graph_shapes_and_incidence():
    graph = build_hetero_graph([(0, 1), (1, 0)], [(0, 1), (1, 0)], [], 2, 2)
    assert [a.shape for a in (graph.a_ui, graph.a_uu, graph.a_ii)] == [(2, 2)] * 3
    binary = graph.binary_ui()
    assert set(binary.data.tolist()) == {1.0}
    assert graph.total_edges == 2 + 1 + 0


def make_dataset_dir(tmp_path, interactions, social, categories, m, n):
    write(tmp_path, "interactions.tsv", "".join(f"{u}\t{i}\n" for u, i in interactions))
    write(tmp_path, "social.tsv", "".join(f"{a}\t{b}\n" for a, b in social))
    write(tmp_path, "item_categories.tsv", "".join(f"{i}\t{c}\n" for i, c in categories))
    return write(tmp_path, "manifest.txt",
                 f"interactions=interactions.tsv\nsocial=social.tsv\n"
                 f"item_categories=item_categories.tsv\nm={m}\nn={n}\n")


def test_manifest_round_trip(tmp_path):
    man = make_dataset_dir(tmp_path, [(0, 0)], [(0, 1)], [(0, 0)], 2, 1)
    parsed = read_manifest(man)
    assert parsed["m"] == 2 and parsed["n"] == 1
    assert parsed["interactions"].endswith("interactions.tsv")


def test_manifest_rejects_unknown_keys(tmp_path):
    man = write(tmp_path, "manifest.txt", "bogus=1\n")
    with pytest.raises(ValueError, match="unknown manifest key"):
        read_manifest(man)


@pytest.mark.parametrize("lines, message", [
    (["m=abc", "interactions=i.tsv"], r"manifest\.txt:5: m must be a non-negative integer, got 'abc'"),
    (["m=2", "m=3", "interactions=i.tsv"], r"manifest\.txt:6: repeated manifest key 'm'"),
    (["interactions=", "m=2"], r"manifest\.txt:5: empty value for manifest key 'interactions'"),
], ids=["not_an_integer", "repeated_key", "empty_path"])
def test_manifest_faults_name_the_line(tmp_path, lines, message):
    # Lines 1-4 are valid, and line 5 or 6 is the fault.
    man = write(tmp_path, "manifest.txt", "social=s.tsv\nitem_categories=c.tsv\nn=2\n# note\n"
                + "".join(f"{line}\n" for line in lines))
    with pytest.raises(ValueError, match=message):
        read_manifest(man)


def test_load_dataset_remaps_sparse_external_ids(tmp_path):
    # External ids 10/20 (users) and 100/200 (items) become dense 0/1.
    man = make_dataset_dir(tmp_path,
                           interactions=[(10, 100), (20, 200), (20, 100)],
                           social=[(10, 20)],
                           categories=[(100, 3), (200, 3)], m=2, n=2)
    data = load_dataset(man)
    assert data.user_ids.tolist() == [10, 20]
    assert data.item_ids.tolist() == [100, 200]
    assert_edges(data.ui_edges, {(0, 0), (1, 1), (1, 0)})
    assert_edges(data.uu_edges, {(0, 1), (1, 0)})
    assert_edges(data.ii_edges, {(0, 1), (1, 0)})


def test_load_dataset_rejects_undersized_manifest_dims(tmp_path):
    man = make_dataset_dir(tmp_path, [(0, 0), (1, 1)], [(0, 1)], [(0, 0), (1, 0)], 1, 2)
    with pytest.raises(ValueError, match="smaller than"):
        load_dataset(man)


def test_category_file_loader(tmp_path):
    path = write(tmp_path, "c.tsv", "0\t1\n0\t2\n3\t1\n")
    cats = load_category_file(path)
    assert_edges(cats, {(0, 1), (0, 2), (3, 1)})


# Edge-file lines built from integer ids over the whole Python int range
# (with the int64 edges named), non-integers, blank lines and comments.
FUZZ_ID = st.one_of(st.integers(), st.sampled_from([2**63 - 1, 2**63, -2**63 - 1]))
FUZZ_FIELD = st.one_of(FUZZ_ID.map(str), st.text(alphabet="09-+_ .ae", max_size=5))
FUZZ_LINE = st.one_of(st.lists(FUZZ_FIELD, max_size=4).map("\t".join),
                      st.sampled_from(["", "   ", "# comment", "0\t1\t# trailing"]))
FUZZ_FILE = st.lists(FUZZ_LINE, max_size=6).map(lambda lines: "".join(f"{x}\n" for x in lines))


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(["interactions.tsv", "social.tsv", "item_categories.tsv"]),
       text=FUZZ_FILE)
def test_fuzzed_edge_files_fail_only_with_value_errors(target, text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = make_dataset_dir(root, [(0, 0), (1, 1)], [(0, 1)], [(0, 0), (1, 0)], 4, 4)
        (root / target).write_text(text, encoding="utf-8")
        try:
            load_dataset(manifest)
        except ValueError:  # EdgeFileError is one
            config = write(root, "run.cfg", "[data]\nmanifest = manifest.txt\n")
            assert cli_main(["train", "--config", str(config)]) == 2


# Manifest lines: known and unknown keys with file names (present, missing, a
# directory, a non-edge file), small integers, empty and junk values, and lines
# without a key. m and n stay at most 1000, so that no example builds a big graph.
MANIFEST_VALUE = st.one_of(
    st.sampled_from(["interactions.tsv", "social.tsv", "item_categories.tsv", "missing.tsv",
                     ".", "manifest.txt", ""]),
    st.integers(-3, 1000).map(str), st.text(alphabet="09-+_ .aez/", max_size=6))
MANIFEST_LINE = st.one_of(
    st.tuples(st.sampled_from(MANIFEST_KEYS + ("bogus", "")), MANIFEST_VALUE).map("=".join),
    st.text(alphabet=st.characters(blacklist_characters="="), max_size=8))
MANIFEST_TEXT = st.lists(MANIFEST_LINE, max_size=8).map(lambda ls: "".join(f"{x}\n" for x in ls))


@settings(max_examples=200, deadline=None)
@given(text=MANIFEST_TEXT)
def test_fuzzed_manifests_fail_only_with_value_or_os_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = make_dataset_dir(root, [(0, 0), (1, 1)], [(0, 1)], [(0, 0), (1, 0)], 4, 4)
        # A lone surrogate becomes bytes that are not UTF-8, which must fail
        # like any other malformed line.
        manifest.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            read_manifest(manifest)
        except ValueError as exc:
            assert str(exc).startswith(f"{manifest}:"), exc
        try:
            load_dataset(manifest)
        except (ValueError, OSError):  # OSError: a missing file or a directory
            config = write(root, "run.cfg", "[data]\nmanifest = manifest.txt\n")
            assert cli_main(["train", "--config", str(config)]) == 2


def test_bytes_that_are_not_utf8_name_the_line(tmp_path):
    # Undecodable bytes reach the parsers as lone surrogates and fail as a bad key or id.
    manifest = make_dataset_dir(tmp_path, [(0, 0)], [(0, 1)], [(0, 0)], 2, 1)
    manifest.write_bytes(manifest.read_bytes() + b"m\xff=3\n")
    with pytest.raises(ValueError, match=r"manifest\.txt:6: unknown manifest key"):
        read_manifest(manifest)
    make_dataset_dir(tmp_path, [(0, 0)], [(0, 1)], [(0, 0)], 2, 1)
    (tmp_path / "social.tsv").write_bytes(b"# caf\xe9\n0\t1\n1\t\xff\n")
    with pytest.raises(EdgeFileError, match=r"social\.tsv:3: non-integer id"):
        load_dataset(manifest)


def test_id_past_int64_names_the_line_and_exits_two_without_traceback(tmp_path):
    make_dataset_dir(tmp_path, [(0, 0), (2**63, 1)], [(0, 1)], [(0, 0), (1, 0)], 4, 4)
    with pytest.raises(EdgeFileError, match=r"interactions\.tsv:2"):
        load_dataset(tmp_path / "manifest.txt")
    config = write(tmp_path, "run.cfg", "[data]\nmanifest = manifest.txt\n")
    env = dict(os.environ)
    if env.get("PYTHONPATH"):  # the command runs in tmp_path
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) if entry else entry
            for entry in env["PYTHONPATH"].split(os.pathsep))
    proc = subprocess.run([sys.executable, "-m", "hgcl.cli", "train", "--config", str(config)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "interactions.tsv:2" in proc.stderr and "Traceback" not in proc.stderr


# -- the set-based reference loader ------------------------------------------
# The loader as it was before edge lists became arrays: tuples, sets and dicts,
# parsed line by line. The array loader must give the same edges, ids and CSR
# bytes on every file this one accepts, and the same error on every other.

def reference_parse_lines(path):
    path = Path(path)
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
            if not (0 <= a < 2**63 and 0 <= b < 2**63):
                raise EdgeFileError(f"{path}:{lineno}: id outside [0, 2**63) in {fields[:2]!r}")
            yield a, b


def reference_load_edge_file(path, kind):
    pairs = set()
    for src, dst in reference_parse_lines(path):
        if kind == "interaction":
            pairs.add((src, dst))
        elif src != dst:
            pairs |= {(src, dst), (dst, src)}
    if not pairs:
        raise EdgeFileError(f"{path}: no edges")
    return sorted(pairs)


def reference_load_category_file(path):
    cats = {}
    for item, cat in reference_parse_lines(path):
        cats.setdefault(item, set()).add(cat)
    if not cats:
        raise EdgeFileError(f"{path}: no edges")
    return cats


def reference_build_item_relations(item_category, n_items, cap, seed):
    by_cat = {}
    for item in range(n_items):
        for c in item_category.get(item, ()):
            by_cat.setdefault(c, []).append(item)
    rng = np.random.default_rng(seed)
    pairs = set()
    for cat in sorted(by_cat):
        members = sorted(by_cat[cat])
        s = len(members)
        if s < 2:
            continue
        if s <= cap + 1:
            pairs |= {(a, b) for a in members for b in members if a != b}
            continue
        order = rng.permutation(s)
        for pos in range(s):
            a = members[order[pos]]
            for t in range(1, cap // 2 + 1):
                b = members[order[(pos + t) % s]]
                pairs |= {(a, b), (b, a)}
        if cap % 2 == 1 and s % 2 == 0:
            for pos in range(s // 2):
                a, b = members[order[pos]], members[order[pos + s // 2]]
                pairs |= {(a, b), (b, a)}
    return sorted(pairs)


def reference_normalize_adjacency(edges, m, n):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    deg_src = np.bincount(src, minlength=m)
    deg_dst = np.bincount(dst, minlength=n)
    weights = 1.0 / (np.sqrt(deg_src[src].astype(np.float64)) * np.sqrt(deg_dst[dst].astype(np.float64)))
    mat = sp.csr_matrix((weights, (src, dst)), shape=(m, n))
    mat.sort_indices()
    return mat


def reference_load_dataset(manifest_path, item_peer_cap, seed):
    man = read_manifest(manifest_path)
    ui_raw = reference_load_edge_file(man["interactions"], "interaction")
    uu_raw = reference_load_edge_file(man["social"], "social")
    users = {e[0] for e in ui_raw} | {e[0] for e in uu_raw} | {e[1] for e in uu_raw}
    items = {e[1] for e in ui_raw}
    categories = ii_raw = None
    if "item_categories" in man:
        categories = reference_load_category_file(man["item_categories"])
        items |= set(categories)
    else:
        ii_raw = reference_load_edge_file(man["item_relations"], "item-relation")
        items |= {e[0] for e in ii_raw} | {e[1] for e in ii_raw}
    if man["m"] < len(users):
        raise ValueError(f"manifest m={man['m']} smaller than {len(users)} observed users")
    if man["n"] < len(items):
        raise ValueError(f"manifest n={man['n']} smaller than {len(items)} observed items")
    user_ids = np.array(sorted(users), dtype=np.int64)
    item_ids = np.array(sorted(items), dtype=np.int64)
    user_map = {int(v): i for i, v in enumerate(user_ids)}
    item_map = {int(v): i for i, v in enumerate(item_ids)}
    ui = sorted((user_map[u], item_map[i]) for u, i in ui_raw)
    uu = sorted((user_map[a], user_map[b]) for a, b in uu_raw)
    if categories is not None:
        mapped = {item_map[i]: c for i, c in categories.items()}
        ii = reference_build_item_relations(mapped, man["n"], item_peer_cap, seed)
    else:
        ii = sorted((item_map[a], item_map[b]) for a, b in ii_raw)
    return ui, uu, ii, man["m"], man["n"], user_ids, item_ids


def outcome(load, *args):
    """What ``load`` returns, or the type and message of the ValueError it raises."""
    try:
        return load(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def as_rows(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


# Ids: small ones (so that duplicates, reversed pairs and self-loops are
# common), ones at the int64 edge and the spellings int() accepts besides
# plain digits; then the tokens int() or the int64 range refuses, and bytes
# that are not UTF-8. A file gets up to two faulty lines among valid ones.
VALID_ID = st.one_of(st.integers(0, 5).map(str), st.sampled_from([
    str(2**63 - 1), str(2**63 - 2), "+5", " 5", "5 ", "1_0", "٣", "५٠", "-0", "007"])).map(str.encode)
BAD_ID = st.one_of(st.sampled_from([
    str(2**63), str(2**64 + 3), "-1", "1__0", "_1", "1e3", "0x1", "5.0", "", "a", "5\x00", "+-1",
]).map(str.encode), st.sampled_from([b"\xff", b"4\xe9", b"\xc3"]))
PAIR_LINE = st.tuples(VALID_ID, VALID_ID, st.lists(st.one_of(VALID_ID, BAD_ID), max_size=2)).map(
    lambda t: b"\t".join([t[0], t[1], *t[2]]))  # extra fields are never read
BENIGN_LINE = st.sampled_from([b"", b"   ", b"# comment", b"  # indented", b"#\xff not UTF-8",
                               b"\t0\t1", b"0\t1\t", b"0 \t 1", b" 1\t2 "])
FAULTY_LINE = st.one_of(st.tuples(VALID_ID, BAD_ID).map(b"\t".join),
                        st.tuples(BAD_ID, VALID_ID).map(b"\t".join),
                        st.sampled_from([b"0", b"5 6", b"0\t\t1", b"\xff"]))


@st.composite
def edge_text(draw):
    lines = draw(st.lists(st.one_of(PAIR_LINE, PAIR_LINE, BENIGN_LINE), max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FAULTY_LINE))
    return b"".join(line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for line in lines)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(EDGE_KINDS + ("categories",)), text=edge_text())
def test_edge_files_match_the_set_reference(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(text)
        if kind == "categories":
            got, want = outcome(load_category_file, path), outcome(reference_load_category_file, path)
            if not isinstance(want, str):
                want = sorted((i, c) for i, cats in want.items() for c in cats)
        else:
            got, want = outcome(load_edge_file, path, kind), outcome(reference_load_edge_file, path, kind)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, as_rows(want))


# External ids: small, sparse, and at the int64 edge. The first id of a line
# is spelled plainly or as int() also reads it; the second may be followed by
# extra fields.
EXTERNAL_ID = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 7919 * 4 + 13, 2**62 + 1, 2**63 - 2, 2**63 - 1])
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FIRST_SPELLING = st.sampled_from([str, "+{}".format, " {}".format,
                                  lambda v: str(v).translate(ARABIC_INDIC),
                                  lambda v: str(v)[0] + "_" + str(v)[1:] if v > 9 else str(v)])
SECOND_SPELLING = st.sampled_from([str, "{} ".format, "{}\t# extra field".format, "{}\t2.5".format])


def id_lines(draw, pairs):
    """Edge-file bytes for ``pairs``, with comments, blank lines and a mix of spellings."""
    out = [b"# header"]
    for a, b in pairs:
        out.append(f"{draw(FIRST_SPELLING)(a)}\t{draw(SECOND_SPELLING)(b)}".encode())
        if draw(st.booleans()):
            out.append(draw(st.sampled_from([b"", b"  ", b"# note \xff"])))
    return b"\n".join(out) + b"\n"


@st.composite
def dataset_files(draw):
    """A manifest's files: interactions, social (with self-loops, repeats and
    reversed pairs) and either an item-category file (items with several
    categories, or none) or an item-relation file."""
    users = draw(st.lists(EXTERNAL_ID, min_size=2, max_size=6, unique=True))
    items = draw(st.lists(EXTERNAL_ID, min_size=2, max_size=8, unique=True))
    ui = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(items)),
                       min_size=1, max_size=20))
    uu = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(users)),
                       min_size=1, max_size=12))
    uu += [(b, a) for a, b in draw(st.lists(st.sampled_from(uu), max_size=3))]
    if draw(st.booleans()):
        extra = draw(st.lists(EXTERNAL_ID, max_size=3))
        related = draw(st.lists(st.tuples(st.sampled_from(items + extra),
                                          st.sampled_from([0, 1, 2, 2**63 - 1])),
                                min_size=1, max_size=16))
        kind = "item_categories"
    else:
        related = draw(st.lists(st.tuples(st.sampled_from(items), st.sampled_from(items)),
                                min_size=1, max_size=12))
        kind = "item_relations"
    files = {"interactions": id_lines(draw, ui), "social": id_lines(draw, uu),
             kind: id_lines(draw, related)}
    n_users = len({u for u, _ in ui} | {u for pair in uu for u in pair})
    n_items = len({i for _, i in ui} | ({i for i, _ in related} if kind == "item_categories"
                                      else {i for pair in related for i in pair}))
    m = n_users + draw(st.sampled_from([0, 0, 1, 2, -1]))  # -1: too few users
    n = n_items + draw(st.sampled_from([0, 0, 1, 3, -1]))
    return files, m, n


@settings(max_examples=300, deadline=None)
@given(case=dataset_files(), cap=st.integers(1, 6), seed=st.integers(0, 3))
def test_datasets_match_the_set_reference(case, cap, seed):
    files, m, n = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for key, payload in files.items():
            (root / f"{key}.tsv").write_bytes(payload)
        manifest = root / "manifest.txt"
        manifest.write_text("".join(f"{key}={key}.tsv\n" for key in files) + f"m={m}\nn={n}\n",
                            encoding="utf-8")
        got = outcome(load_dataset, manifest, cap, seed)
        want = outcome(reference_load_dataset, manifest, cap, seed)
    if isinstance(want, str):
        assert got == want
        return
    ui, uu, ii, m, n, user_ids, item_ids = want
    for edges, expected in ((got.ui_edges, ui), (got.uu_edges, uu), (got.ii_edges, ii)):
        assert edges.dtype == np.int64
        np.testing.assert_array_equal(edges, as_rows(expected))
    assert (got.m, got.n) == (m, n)
    for ids, expected in ((got.user_ids, user_ids), (got.item_ids, item_ids)):
        assert ids.dtype == expected.dtype and ids.tobytes() == expected.tobytes()
    graph = build_hetero_graph(got.ui_edges, got.uu_edges, got.ii_edges, m, n)
    assert_same_csr(graph.a_ui, reference_normalize_adjacency(ui, m, n))
    assert_same_csr(graph.a_uu, reference_normalize_adjacency(uu, m, m))
    assert_same_csr(graph.a_ii, reference_normalize_adjacency(ii, n, n))


def test_manifest_without_an_item_graph_is_named(tmp_path):
    man = write(tmp_path, "manifest.txt", "interactions=i.tsv\nsocial=s.tsv\nm=2\nn=2\n")
    with pytest.raises(ValueError, match=r"manifest\.txt: need item_categories or item_relations"):
        read_manifest(man)
