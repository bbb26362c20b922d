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

    ``train_edges`` is everything observed minus the held-out positives;
    ``eval_negatives[u]`` are exactly 99 items ``u`` never interacted with.
    ``user_groups`` partitions all m users into activity buckets by train
    interaction count.
    """

    m: int
    n: int
    train_edges: np.ndarray          # (T, 2) int64
    test_positive: dict[int, int]
    eval_negatives: dict[int, np.ndarray]
    user_groups: list[np.ndarray]
    train_counts: np.ndarray = field(repr=False)  # (m,) per-user train degree

    def train_matrix(self) -> sp.csr_matrix:
        data = np.ones(len(self.train_edges), dtype=np.int8)
        return sp.csr_matrix((data, (self.train_edges[:, 0], self.train_edges[:, 1])),
                             shape=(self.m, self.n))

    def serialize(self) -> bytes:
        """Canonical byte serialization, used for idempotence checks."""
        lines = [f"m={self.m}", f"n={self.n}"]
        for u, i in self.train_edges:
            lines.append(f"t\t{u}\t{i}")
        for u in sorted(self.test_positive):
            negs = ",".join(str(x) for x in self.eval_negatives[u])
            lines.append(f"e\t{u}\t{self.test_positive[u]}\t{negs}")
        for g, members in enumerate(self.user_groups):
            lines.append(f"g\t{g}\t" + ",".join(str(x) for x in members))
        return ("\n".join(lines) + "\n").encode("utf-8")


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


def split_leave_one_out(interactions: list[tuple[int, int]], m: int, n: int,
                        seed: int = 0) -> InteractionDataset:
    """Hold out one seeded-uniform positive per user with >= 2 interactions,
    plus 99 seeded-uniform never-interacted items as evaluation negatives."""
    if n < N_EVAL_NEGATIVES + 1:
        raise ValueError(f"need more than {N_EVAL_NEGATIVES} items, got {n}")
    by_user: dict[int, list[int]] = {}
    for u, i in sorted(set(interactions)):
        if not (0 <= u < m) or not (0 <= i < n):
            raise ValueError(f"interaction ({u}, {i}) out of range for {m}x{n}")
        by_user.setdefault(u, []).append(i)

    rng = np.random.default_rng(seed)
    train: list[tuple[int, int]] = []
    test_positive: dict[int, int] = {}
    eval_negatives: dict[int, np.ndarray] = {}
    skipped = 0
    for u in sorted(by_user):
        items = np.array(sorted(by_user[u]), dtype=np.int64)
        if len(items) < 2:
            skipped += 1
            train.extend((u, int(i)) for i in items)
            continue
        held = int(items[rng.integers(len(items))])
        test_positive[u] = held
        train.extend((u, int(i)) for i in items if i != held)
        pool = np.setdiff1d(np.arange(n, dtype=np.int64), items, assume_unique=True)
        if len(pool) < N_EVAL_NEGATIVES:
            raise ValueError(f"user {u}: only {len(pool)} non-interacted items, "
                             f"need {N_EVAL_NEGATIVES}")
        eval_negatives[u] = np.sort(rng.choice(pool, size=N_EVAL_NEGATIVES, replace=False))
    if skipped:
        log.info("split: %d user(s) with < 2 interactions kept train-only", skipped)

    train_arr = np.array(sorted(train), dtype=np.int64).reshape(-1, 2)
    counts = np.bincount(train_arr[:, 0], minlength=m)
    groups = activity_groups(counts)
    return InteractionDataset(m=m, n=n, train_edges=train_arr, test_positive=test_positive,
                              eval_negatives=eval_negatives, user_groups=groups,
                              train_counts=counts)


class BprSampler:
    """Seeded sampler of (user, positive, negative) training triples.

    Positives are uniform over train edges; negatives are rejection-sampled
    uniformly from the user's never-interacted items. Single owner per seed
    state.
    """

    def __init__(self, dataset: InteractionDataset, seed: int | np.random.SeedSequence = 0):
        self.dataset = dataset
        self.rng = np.random.default_rng(seed)
        self._train = dataset.train_matrix().astype(bool)
        degrees = np.asarray(self._train.sum(axis=1)).ravel()
        self._saturated = degrees >= dataset.n
        edge_users = dataset.train_edges[:, 0]
        self._ok_edges = np.flatnonzero(~self._saturated[edge_users])
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

