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

from hgcl.cli import cli_main
from hgcl.graphs import (MANIFEST_KEYS, EdgeFileError, build_hetero_graph,
                         build_item_relations, load_category_file, load_dataset,
                         load_edge_file, normalize_adjacency, read_manifest)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_interaction_file_is_deduplicated(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t5\n0\t5\n1\t3\n")
    edges = load_edge_file(path, "interaction")
    assert set(edges) == {(0, 5), (1, 3)}


def test_social_file_is_symmetrized(tmp_path):
    path = write(tmp_path, "s.tsv", "2\t7\n")
    edges = load_edge_file(path, "social")
    assert set(edges) == {(2, 7), (7, 2)}


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
    assert set(edges) == {(0, 1), (2, 3)}


def test_social_self_loops_dropped(tmp_path):
    path = write(tmp_path, "s.tsv", "1\t1\n1\t2\n")
    edges = load_edge_file(path, "social")
    assert set(edges) == {(1, 2), (2, 1)}


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
    edges = build_item_relations({0: 7, 1: 7, 2: 7}, 3, cap=10)
    assert set(edges) == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}


def test_distinct_categories_produce_no_edges():
    assert build_item_relations({0: 1, 1: 2, 2: 3}, 3, cap=10) == []


def test_cap_bounds_every_item_to_exactly_cap_peers():
    # 12 items in one category with cap 10: each item ends with exactly 10
    # peers (count verified by enumeration over the emitted pairs).
    edges = build_item_relations({i: 0 for i in range(12)}, 12, cap=10, seed=3)
    counts = neighbor_counts(edges, 12)
    assert list(counts) == [10] * 12
    assert set(edges) == {(b, a) for a, b in edges}  # symmetric
    assert all(a != b for a, b in edges)


def test_odd_cap_on_even_category_uses_matching():
    edges = build_item_relations({i: 0 for i in range(6)}, 6, cap=3, seed=1)
    counts = neighbor_counts(edges, 6)
    assert list(counts) == [3] * 6


def test_cap_is_seeded():
    a = build_item_relations({i: 0 for i in range(20)}, 20, cap=6, seed=5)
    b = build_item_relations({i: 0 for i in range(20)}, 20, cap=6, seed=5)
    c = build_item_relations({i: 0 for i in range(20)}, 20, cap=6, seed=6)
    assert a == b
    assert a != c


def test_items_without_category_are_skipped(caplog):
    with caplog.at_level("WARNING"):
        edges = build_item_relations({0: 1, 1: 1}, 4, cap=10)
    assert set(edges) == {(0, 1), (1, 0)}
    assert "2 item(s) without a category" in caplog.text


def test_multi_category_items_union_their_peers():
    cats = {0: {1, 2}, 1: {1}, 2: {2}}
    edges = build_item_relations(cats, 3, cap=10)
    assert set(edges) == {(0, 1), (1, 0), (0, 2), (2, 0)}


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
    assert graph.m == 2 and graph.n == 2
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
    assert set(data.ui_edges) == {(0, 0), (1, 1), (1, 0)}
    assert set(data.uu_edges) == {(0, 1), (1, 0)}
    assert set(data.ii_edges) == {(0, 1), (1, 0)}


def test_load_dataset_rejects_undersized_manifest_dims(tmp_path):
    man = make_dataset_dir(tmp_path, [(0, 0), (1, 1)], [(0, 1)], [(0, 0), (1, 0)], 1, 2)
    with pytest.raises(ValueError, match="smaller than"):
        load_dataset(man)


def test_category_file_loader(tmp_path):
    path = write(tmp_path, "c.tsv", "0\t1\n0\t2\n3\t1\n")
    cats = load_category_file(path)
    assert cats == {0: {1, 2}, 3: {1}}


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
