"""Train/test splitting, evaluation candidate pools, and BPR triple sampling."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

N_EVAL_NEGATIVES = 99
N_ACTIVITY_GROUPS = 5


@dataclass(frozen=True)
class InteractionDataset:
    """Immutable split of the interaction data.

    ``train_edges`` is everything observed minus the held-out positives. The
    evaluation rows are three aligned arrays in ascending user order: user
    ``test_users[r]`` holds out ``test_positive[r]`` and is ranked against
    ``eval_negatives[r]``, 99 sorted items it never interacted with.
    ``user_groups`` partitions all m users into activity buckets by train
    interaction count.
    """

    m: int
    n: int
    train_edges: np.ndarray          # (T, 2) int64
    test_users: np.ndarray           # (U,) int64, ascending
    test_positive: np.ndarray        # (U,) int64
    eval_negatives: np.ndarray       # (U, 99) int64, each row sorted
    user_groups: list[np.ndarray]
    train_counts: np.ndarray = field(repr=False)  # (m,) per-user train degree


def activity_groups(train_counts: np.ndarray, n_groups: int = N_ACTIVITY_GROUPS) -> list[np.ndarray]:
    """Partition users into equal-count buckets ordered by train degree.

    Falls back to one bucket per distinct count when there are fewer distinct
    counts than requested groups.
    """
    m = len(train_counts)
    distinct = np.unique(train_counts)
    if len(distinct) < n_groups:
        log.warning("activity_groups: only %d distinct counts, using %d group(s)",
                    len(distinct), len(distinct))
        return [np.flatnonzero(train_counts == v) for v in distinct]
    order = np.lexsort((np.arange(m), train_counts))
    return [np.sort(part) for part in np.array_split(order, n_groups)]


def split_leave_one_out(interactions: np.ndarray, m: int, n: int,
                        seed: int = 0) -> InteractionDataset:
    """Hold out one seeded-uniform positive per user with >= 2 interactions,
    plus 99 seeded-uniform never-interacted items as evaluation negatives.
    ``interactions`` holds (user, item) rows in any order, repeats allowed."""
    if n < N_EVAL_NEGATIVES + 1:
        raise ValueError(f"need more than {N_EVAL_NEGATIVES} items, got {n}")
    pairs = np.asarray(interactions, dtype=np.int64).reshape(-1, 2)
    bad = (pairs[:, 0] < 0) | (pairs[:, 0] >= m) | (pairs[:, 1] < 0) | (pairs[:, 1] >= n)
    if bad.any():
        u, i = min(map(tuple, pairs[bad].tolist()))
        raise ValueError(f"interaction ({u}, {i}) out of range for {m}x{n}")
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    users, items = keys // n, keys % n
    degrees = np.bincount(users, minlength=m)
    starts = np.cumsum(degrees) - degrees

    rng = np.random.default_rng(seed)
    test_users = np.flatnonzero(degrees >= 2)
    held = np.empty(len(test_users), dtype=np.int64)
    draws = np.empty((len(test_users), N_EVAL_NEGATIVES), dtype=np.int64)
    for row, (u, deg) in enumerate(zip(test_users, degrees[test_users])):
        held[row] = rng.integers(deg)
        if n - deg < N_EVAL_NEGATIVES:
            raise ValueError(f"user {u}: only {n - deg} non-interacted items, "
                             f"need {N_EVAL_NEGATIVES}")
        draws[row] = rng.choice(n - deg, size=N_EVAL_NEGATIVES, replace=False)
    held += starts[test_users]
    # A draw k indexes the user's ascending never-interacted items; its item j
    # has gaps[j] = items[j] - j of those below it, so k is item k + #(gaps <= k).
    # Offsetting user u's gaps and draws by u * n counts for all in one search.
    draws.sort(axis=1)
    gap_keys = keys - np.arange(len(keys)) + np.repeat(starts, degrees)
    below = np.searchsorted(gap_keys, draws + test_users[:, None] * n, side="right")
    negatives = draws + below - starts[test_users][:, None]
    skipped = np.count_nonzero(degrees == 1)
    if skipped:
        log.info("split: %d user(s) with < 2 interactions kept train-only", skipped)

    train_arr = np.delete(np.stack([users, items], axis=1), held, axis=0)
    counts = np.bincount(train_arr[:, 0], minlength=m)
    groups = activity_groups(counts)
    return InteractionDataset(m=m, n=n, train_edges=train_arr, test_users=test_users,
                              test_positive=items[held], eval_negatives=negatives,
                              user_groups=groups, train_counts=counts)


class BprSampler:
    """Seeded sampler of (user, positive, negative) training triples.

    Positives are uniform over train edges; negatives are rejection-sampled
    uniformly from the user's never-interacted items. Single owner per seed
    state.
    """

    def __init__(self, dataset: InteractionDataset, seed: int | np.random.SeedSequence = 0):
        self.dataset = dataset
        self.rng = np.random.default_rng(seed)
        edges = dataset.train_edges
        self._train = sp.csr_matrix((np.ones(len(edges), dtype=bool), (edges[:, 0], edges[:, 1])),
                                    shape=(dataset.m, dataset.n))
        self._ok_edges = np.flatnonzero(dataset.train_counts[edges[:, 0]] < dataset.n)
        if len(self._ok_edges) == 0:
            raise ValueError("every user has interacted with every item; cannot sample negatives")

    def _contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return np.asarray(self._train[users, items]).ravel()

    def next_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        edges = self.dataset.train_edges
        # Saturated users are skipped by resampling from the remaining edges.
        idx = self._ok_edges[self.rng.integers(0, len(self._ok_edges), size=batch_size)]
        users = edges[idx, 0]
        pos = edges[idx, 1]
        neg = self.rng.integers(0, self.dataset.n, size=batch_size)
        bad = np.flatnonzero(self._contains(users, neg))
        while len(bad):
            neg[bad] = self.rng.integers(0, self.dataset.n, size=len(bad))
            bad = bad[self._contains(users[bad], neg[bad])]
        return users, pos, neg

