"""Leave-one-out splitting, evaluation pools, and BPR triple sampling."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcl.dataset import BprSampler, InteractionDataset, activity_groups, split_leave_one_out


def grid_interactions(m, deg, n):
    """Deterministic interactions: user u gets `deg` items starting at u."""
    return [(u, (u + j) % n) for u in range(m) for j in range(deg)]


def train_only(m, n, train, groups, counts):
    """A hand-built dataset without evaluation rows."""
    return InteractionDataset(m=m, n=n, train_edges=train,
                              test_users=np.empty(0, dtype=np.int64),
                              test_positive=np.empty(0, dtype=np.int64),
                              eval_negatives=np.empty((0, 99), dtype=np.int64),
                              user_groups=groups, train_counts=np.array(counts))


def test_one_positive_held_out_per_user():
    ds = split_leave_one_out([(0, 3), (0, 9)], m=1, n=120, seed=0)
    assert ds.test_users.tolist() == [0]
    held = ds.test_positive[0]
    assert held in (3, 9)
    remaining = {3, 9} - {held}
    assert set(map(tuple, ds.train_edges)) == {(0, r) for r in remaining}


def test_split_is_deterministic():
    inter = grid_interactions(12, 4, 130)
    a = split_leave_one_out(inter, 12, 130, seed=42)
    b = split_leave_one_out(inter, 12, 130, seed=42)
    fields = ("train_edges", "test_users", "test_positive", "eval_negatives", "train_counts")
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)
    assert all(np.array_equal(x, y) for x, y in zip(a.user_groups, b.user_groups))
    c = split_leave_one_out(inter, 12, 130, seed=43)
    assert not all(np.array_equal(getattr(a, f), getattr(c, f)) for f in fields)


def test_negatives_drawn_from_non_interacted_pool():
    items = list(range(50))
    ds = split_leave_one_out([(0, i) for i in items], m=1, n=150, seed=7)
    negs = ds.eval_negatives[0]
    assert len(negs) == 99
    assert len(set(negs.tolist())) == 99
    assert set(negs.tolist()) <= set(range(50, 150))


def test_user_with_single_interaction_stays_train_only():
    ds = split_leave_one_out([(0, 1), (1, 2), (1, 3)], m=2, n=120, seed=0)
    assert 0 not in ds.test_users
    assert (0, 1) in set(map(tuple, ds.train_edges))
    assert 1 in ds.test_users


def test_too_few_items_for_negatives_is_an_error():
    with pytest.raises(ValueError, match="non-interacted"):
        split_leave_one_out([(0, i) for i in range(30)], m=1, n=110, seed=0)


@pytest.mark.parametrize("pairs, n, match", [
    ([(0, 1), (0, 2)], 99, "need more than 99 items, got 99"),
    ([(0, 1), (0, 120)], 120, r"interaction \(0, 120\) out of range for 2x120"),
    ([(0, 1), (2, 3)], 120, r"interaction \(2, 3\) out of range for 2x120"),
    ([(0, 1), (-1, 3)], 120, r"interaction \(-1, 3\) out of range for 2x120"),
], ids=["too-few-items", "item-past-n", "user-past-m", "negative-user"])
def test_split_names_unusable_input(pairs, n, match):
    with pytest.raises(ValueError, match=match):
        split_leave_one_out(pairs, m=2, n=n, seed=0)


def test_negatives_never_intersect_interacted_set():
    rng = np.random.default_rng(0)
    inter = sorted({(int(rng.integers(20)), int(rng.integers(140))) for _ in range(300)})
    ds = split_leave_one_out(inter, 20, 140, seed=5)
    by_user = {}
    for u, i in inter:
        by_user.setdefault(u, set()).add(i)
    for u, negs in zip(ds.test_users, ds.eval_negatives):
        assert not (set(negs.tolist()) & by_user[u])


def pool_split(interactions, m, n, seed):
    """Reference split: one ``setdiff1d`` pool per user, drawn from directly."""
    by_user = {}
    for u, i in sorted(set(interactions)):
        by_user.setdefault(u, []).append(i)
    rng = np.random.default_rng(seed)
    train, users, positives, negatives = [], [], [], []
    for u in sorted(by_user):
        items = np.array(by_user[u], dtype=np.int64)
        if len(items) < 2:
            train.extend((u, i) for i in by_user[u])
            continue
        held = int(items[rng.integers(len(items))])
        users.append(u)
        positives.append(held)
        train.extend((u, i) for i in by_user[u] if i != held)
        pool = np.setdiff1d(np.arange(n, dtype=np.int64), items, assume_unique=True)
        if len(pool) < 99:
            raise ValueError(f"user {u}: only {len(pool)} non-interacted items, need 99")
        negatives.append(np.sort(rng.choice(pool, size=99, replace=False)))
    return (np.array(train, dtype=np.int64).reshape(-1, 2),
            np.array(users, dtype=np.int64), np.array(positives, dtype=np.int64),
            np.array(negatives, dtype=np.int64).reshape(-1, 99))


def loop_negatives(interactions, m, n, seed):
    """Reference evaluation negatives, mapped one user at a time: sorted indices
    into the user's never-interacted items, index k being item k + #(gaps <= k)."""
    keys = np.unique(interactions[:, 0] * n + interactions[:, 1])
    users, items = keys // n, keys % n
    degrees = np.bincount(users, minlength=m)
    starts = np.cumsum(degrees) - degrees
    rng = np.random.default_rng(seed)
    out = []
    for u in np.flatnonzero(degrees >= 2):
        start, deg = starts[u], degrees[u]
        rng.integers(deg)  # the held-out positive's draw
        k = np.sort(rng.choice(n - deg, size=99, replace=False))
        gaps = items[start:start + deg] - np.arange(deg)
        out.append(k + np.searchsorted(gaps, k, side="right"))
    return np.array(out, dtype=np.int64).reshape(-1, 99)


@pytest.mark.parametrize("seed", range(3))
def test_negatives_match_the_per_user_loop_form(seed):
    # Many users, from one interaction up to only 99 never-interacted items,
    # with repeats and unsorted rows; item n - 1 and item 0 are both interacted.
    rng = np.random.default_rng(seed)
    m, n = 300, 420
    degrees = rng.integers(1, n - 98, size=m)
    pairs = np.concatenate([np.stack([np.full(d, u), rng.choice(n, d, replace=False)], axis=1)
                            for u, d in enumerate(degrees)] + [[[0, 0], [1, n - 1], [0, 0]]])
    pairs = pairs[rng.permutation(len(pairs))]
    ds = split_leave_one_out(pairs, m, n, seed=seed)
    want = loop_negatives(pairs, m, n, seed)
    assert ds.eval_negatives.dtype == want.dtype and len(want) > 250
    np.testing.assert_array_equal(ds.eval_negatives, want)


@st.composite
def split_inputs(draw):
    """Unsorted, duplicated pairs over users with one item or more, and maybe
    one user left with exactly 99 never-interacted items, or 98 (an error)."""
    n = draw(st.integers(100, 130))
    m = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                          max_size=60))
    free = draw(st.sampled_from([None, 99, 98]))
    if free is not None:
        u = draw(st.integers(0, m - 1))
        owned = draw(st.permutations(range(n)))[:n - free]
        pairs = [p for p in pairs if p[0] != u] + [(u, i) for i in owned]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    return draw(st.permutations(pairs)), m, n


@settings(max_examples=60, deadline=None)
@given(split_inputs(), st.integers(0, 2**32 - 1))
def test_split_matches_the_per_user_pool_reference(case, seed):
    pairs, m, n = case
    try:
        want = pool_split(pairs, m, n, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            split_leave_one_out(pairs, m, n, seed=seed)
        return
    ds = split_leave_one_out(pairs, m, n, seed=seed)
    got = (ds.train_edges, ds.test_users, ds.test_positive, ds.eval_negatives)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_groups_partition_all_users():
    inter = grid_interactions(23, 3, 130)
    ds = split_leave_one_out(inter, 23, 130, seed=1)
    seen = np.concatenate(ds.user_groups)
    assert sorted(seen.tolist()) == list(range(23))


def test_quantile_groups_of_103_users_have_balanced_sizes():
    counts = np.arange(103)  # distinct per-user train degrees
    groups = activity_groups(counts, n_groups=5)
    assert sorted(len(g) for g in groups) == [20, 20, 21, 21, 21]
    assert [len(g) for g in groups] == [21, 21, 21, 20, 20]


def test_identical_degrees_fall_back_to_single_group(caplog):
    with caplog.at_level("WARNING"):
        groups = activity_groups(np.full(40, 7))
    assert len(groups) == 1
    assert len(groups[0]) == 40


def test_groups_are_ordered_by_activity():
    counts = np.array([5, 1, 9, 3, 7, 2, 8, 4, 6, 0])
    groups = activity_groups(counts, n_groups=5)
    maxima = [counts[g].max() for g in groups]
    assert maxima == sorted(maxima)


def test_sampler_on_single_edge_pool():
    ds = split_leave_one_out([(0, 1), (0, 2)], m=1, n=120, seed=0)
    # Force the known train item for a closed-form check.
    train_item = ds.train_edges[0, 1]
    users, pos, neg = BprSampler(ds, seed=0).next_batch(64)
    assert set(users.tolist()) == {0}
    assert set(pos.tolist()) == {int(train_item)}
    assert all((0, int(i)) not in set(map(tuple, ds.train_edges)) for i in neg)


def test_sampler_is_reproducible():
    inter = grid_interactions(15, 5, 130)
    ds = split_leave_one_out(inter, 15, 130, seed=3)
    s1 = BprSampler(ds, seed=9)
    s2 = BprSampler(ds, seed=9)
    for _ in range(3):
        a = s1.next_batch(32)
        b = s2.next_batch(32)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_negative_frequencies_close_to_uniform():
    # Train n=3 with a single edge (0, 1): negatives must split evenly
    # between items 0 and 2 (within 2% over 1e5 draws).
    ds = split_leave_one_out([(0, 0), (0, 1), (0, 2)], m=1, n=120, seed=1)
    # Rebuild a tiny dataset by hand to control n exactly.
    train = np.array([[0, 1]], dtype=np.int64)
    tiny = train_only(1, 3, train, [np.array([0])], [1])
    sampler = BprSampler(tiny, seed=11)
    _, _, neg = sampler.next_batch(100_000)
    freq = np.bincount(neg, minlength=3) / 100_000
    assert freq[1] == 0.0
    assert abs(freq[0] - 0.5) < 0.02
    assert abs(freq[2] - 0.5) < 0.02


def test_all_items_interacted_is_an_error():
    train = np.array([[0, 0], [0, 1]], dtype=np.int64)
    saturated = train_only(1, 2, train, [np.array([0])], [2])
    with pytest.raises(ValueError, match="every user"):
        BprSampler(saturated, seed=0)


def test_saturated_user_is_skipped():
    # User 0 saturated (owns every item); user 1 has one free item.
    train = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int64)
    ds = train_only(2, 2, train, [np.array([0, 1])], [2, 1])
    users, pos, neg = BprSampler(ds, seed=0).next_batch(50)
    assert set(users.tolist()) == {1}
    assert set(neg.tolist()) == {1}
