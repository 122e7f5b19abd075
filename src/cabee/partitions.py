"""Set partitions of game indices and their enumeration.

Analogy partitions are partitions of the game set {0, ..., n-1} into at
most K nonempty classes.  Enumeration builds all restricted-growth strings
at once as an integer label array in lexicographic order, which gives a
deterministic canonical ordering that the solvers and the search rely on
for reproducibility.  `Partition` objects are built from its rows on demand,
and `class_masks` holds the same partitions as class bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Beyond this many games exhaustive enumeration is refused (B_14 ~ 1.9e8).
DEFAULT_ENUMERATION_CAP = 14


class PartitionSizeError(ValueError):
    """Raised when exhaustive enumeration would be too large."""


@dataclass(frozen=True)
class Partition:
    """A partition of games {0..n_games-1} into disjoint nonempty classes.

    Classes are stored in canonical form: each class sorted ascending,
    classes ordered by their smallest element.  Instances are hashable so
    they can key strategy maps and distributions over partitions.
    """

    n_games: int
    classes: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_classes(n_games: int, classes) -> "Partition":
        canon = tuple(sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0]))
        part = Partition(n_games, canon)
        part.validate()
        return part

    @staticmethod
    def from_assignment(labels) -> "Partition":
        """Build from a per-game class-label sequence."""
        groups: dict[int, list[int]] = {}
        for game, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(game)
        return Partition.from_classes(len(list(labels)), groups.values())

    @staticmethod
    def finest(n_games: int) -> "Partition":
        return Partition(n_games, tuple((g,) for g in range(n_games)))

    @staticmethod
    def coarsest(n_games: int) -> "Partition":
        return Partition(n_games, (tuple(range(n_games)),))

    def validate(self) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty class")
            for g in cls:
                if g in seen:
                    raise ValueError(f"game {g} appears in two classes")
                seen.add(g)
        if seen != set(range(self.n_games)):
            raise ValueError("classes do not cover the game set")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def assignment(self) -> tuple[int, ...]:
        """Per-game class index, canonical (first occurrence order)."""
        out = [0] * self.n_games
        for idx, cls in enumerate(self.classes):
            for g in cls:
                out[g] = idx
        return tuple(out)

    def size_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(class indices, (k, size) member array) for each class size, in
        order of first appearance.  Memoized on the instance, whose fields it
        leaves alone (so equality and hashing are unchanged); the arrays are
        read-only, as every caller shares them."""
        if "_size_groups" not in self.__dict__:
            by_size: dict[int, list[int]] = {}
            for k, cls in enumerate(self.classes):
                by_size.setdefault(len(cls), []).append(k)
            groups = tuple((np.array(ks), np.array([self.classes[k] for k in ks])) for ks in by_size.values())
            for rows, members in groups:
                rows.flags.writeable = members.flags.writeable = False
            object.__setattr__(self, "_size_groups", groups)
        return self.__dict__["_size_groups"]

    def list_index(self, max_classes: int) -> int:
        """Index of the partition in `partition_list(n_games, max_classes)`
        (its row of `label_array`), or -1 when it has more classes.
        Memoized on the instance per max_classes, as `size_groups` is."""
        memo = self.__dict__.setdefault("_list_index", {})
        if max_classes not in memo:
            fits = self.n_classes <= max_classes
            memo[max_classes] = partition_list(self.n_games, max_classes).index(self) if fits else -1
        return memo[max_classes]

    def key(self) -> tuple:
        return self.classes

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, c)) + "}" for c in self.classes) + "}"


_LABEL_CACHE: dict[tuple[int, int], np.ndarray] = {}


def label_array(n_games: int, max_classes: int, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Restricted-growth strings of all partitions, one read-only int8 row each.

    Row p holds the canonical class label of every game under partition p.
    Rows are in lexicographic order, so the first row is all zeros (the
    coarsest partition).  Cached; refuses instances with more than `cap`
    games before allocating anything.
    """
    if n_games > cap:
        raise PartitionSizeError(
            f"{n_games} games exceeds the enumeration cap of {cap}; "
            "use the iterative clustering path instead"
        )
    if n_games < 1:
        raise ValueError("need at least one game")
    if max_classes < 1:
        raise ValueError("need at least one class")
    key = (n_games, min(max_classes, n_games))
    if key not in _LABEL_CACHE:
        labels = np.zeros((1, 1), dtype=np.int8)
        top = np.zeros(1, dtype=np.int64)  # largest label of each prefix
        for _ in range(1, n_games):
            # each prefix extends by labels 0..min(top + 1, K - 1), in order
            reps = np.minimum(top + 2, key[1])
            parent = np.repeat(np.arange(len(labels)), reps)
            nxt = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
            labels = np.concatenate([labels[parent], nxt[:, None].astype(np.int8)], axis=1)
            top = np.maximum(top[parent], nxt)
        labels.setflags(write=False)
        _LABEL_CACHE[key] = labels
    return _LABEL_CACHE[key]


_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}


def class_masks(n_games: int, max_classes: int) -> np.ndarray:
    """Cached read-only (P, K) class bitmasks of the rows of `label_array`,
    with K = min(max_classes, n_games): bit g of entry (p, c) is set when
    game g is in class c of partition p, and classes past its count are 0."""
    key = (n_games, min(max_classes, n_games))
    if key not in _MASK_CACHE:
        labels = label_array(n_games, max_classes)
        flat = np.zeros(len(labels) * key[1], dtype=np.min_scalar_type((1 << n_games) - 1))
        rows = np.arange(0, len(flat), key[1])  # the first entry of each row
        for g in range(n_games):  # one class per (row, game), so += is exact
            flat[rows + labels[:, g]] += 1 << g
        flat.setflags(write=False)
        _MASK_CACHE[key] = flat.reshape(-1, key[1])
    return _MASK_CACHE[key]


def assignment_rows(assign, max_classes: int) -> np.ndarray:
    """Row of `label_array` holding the partition of each assignment row.

    `assign` is an (N, n_games) array of arbitrary labels in [0, max_classes).
    One pass over the games relabels each row by first occurrence and ranks
    the restricted-growth string r it gives among the rows of `label_array`,
    which are in lexicographic order: rank = sum_g r_g * C[n-1-g, c_g], with
    c_g the classes of r_0..r_{g-1} and C[j, c] the count of restricted-growth
    completions of j more games after c classes (Knuth, TAOCP 4A, 7.2.1.5).
    """
    assign = np.asarray(assign)
    n_rows, n_games = assign.shape
    k = min(max_classes, n_games)
    completions = np.ones((n_games + 1, k + 1), dtype=np.int64)
    for j in range(1, n_games + 1):  # a next game joins one of c classes, or opens class c < k
        completions[j, :k] = np.arange(k) * completions[j - 1, :k] + completions[j - 1, 1:]
        completions[j, k] = k * completions[j - 1, k]
    canon = np.full(n_rows * max_classes, -1, dtype=np.int64)  # each row's relabeling so far
    cells = np.arange(n_rows) * max_classes
    used = np.zeros(n_rows, dtype=np.int64)  # classes met so far
    rank = np.zeros(n_rows, dtype=np.int64)
    for g in range(n_games):
        cell = cells + assign[:, g]
        label = canon.take(cell)
        opens = label < 0
        label = np.where(opens, used, label)
        canon.put(cell, label)
        rank += label * completions[n_games - 1 - g].take(used)
        used += opens
    return rank


def enumerate_partitions(
    n_games: int, max_classes: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Partition]:
    """All partitions of n_games games into at most max_classes classes.

    Deterministic canonical order (lexicographic restricted-growth strings).
    Refuses instances with more than `cap` games.
    """
    return iter(partition_list(n_games, max_classes, cap))


_PARTITION_CACHE: dict[tuple[int, int, int], tuple[Partition, ...]] = {}


def partition_list(
    n_games: int, max_classes: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Partition, ...]:
    """Cached tuple of the partitions of `label_array`, in its row order."""
    key = (n_games, max_classes, cap)
    if key not in _PARTITION_CACHE:
        rows = label_array(n_games, max_classes, cap).tolist()
        _PARTITION_CACHE[key] = tuple(Partition.from_assignment(r) for r in rows)
    return _PARTITION_CACHE[key]
