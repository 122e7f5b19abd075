"""Set partitions of game indices and their enumeration.

Analogy partitions are partitions of the game set {0, ..., n-1} into at
most K nonempty classes.  One restricted-growth recursion lists them in
lexicographic order, a deterministic canonical ordering that the solvers
and the search rely on for reproducibility, as one cached table of class
bitmasks (`class_masks`).  `Partition.from_masks` decodes a row of it on
demand, and `assignment_rows` ranks labelings against its rows with the
table of restricted-growth completions cached beside it.
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
    def from_masks(n_games: int, masks) -> "Partition":
        """Build from one row of `class_masks`: its nonzero masks, in order,
        are already the canonical classes."""
        return Partition(n_games, tuple(tuple(g for g in range(n_games) if m >> g & 1) for m in masks if m))

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

    def key(self) -> tuple:
        return self.classes

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, c)) + "}" for c in self.classes) + "}"


_MASK_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def class_masks(n_games: int, max_classes: int) -> np.ndarray:
    """All partitions into at most max_classes classes, as a cached read-only
    (P, K) array of class bitmasks, K = min(max_classes, n_games): bit g of
    entry (p, c) is set when game g is in class c of partition p, and classes
    past its count are 0.

    Rows are in the lexicographic order of the partitions' restricted-growth
    strings, so the first row is the coarsest partition.  At game g every
    prefix row is repeated once per child, as a prefix whose largest label is
    t extends by the labels 0..min(t + 1, K - 1) in order (Knuth, TAOCP 4A,
    7.2.1.5), and g is written into the children as bit g of the class it
    joins.  Refuses more than `DEFAULT_ENUMERATION_CAP` games before
    allocating anything."""
    return _mask_entry(n_games, max_classes)[0]


def _mask_entry(n_games: int, max_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached `class_masks` table of (n_games, K) and, for
    `assignment_rows`, its (n_games + 1, K + 1) table C of restricted-growth
    completions: C[j, c] strings of j more games after c classes."""
    if n_games > DEFAULT_ENUMERATION_CAP:
        raise PartitionSizeError(
            f"{n_games} games exceeds the enumeration cap of {DEFAULT_ENUMERATION_CAP}; "
            "use the iterative clustering path instead"
        )
    if n_games < 1:
        raise ValueError("need at least one game")
    if max_classes < 1:
        raise ValueError("need at least one class")
    k = min(max_classes, n_games)
    if (n_games, k) not in _MASK_CACHE:
        rows = np.zeros((1, k), dtype=np.min_scalar_type((1 << n_games) - 1))
        rows[0, 0] = 1  # game 0 in class 0
        top = np.zeros(1, dtype=np.int8)  # largest label of each prefix
        for g in range(1, n_games):
            reps = np.minimum(top + 2, k)
            ends = np.cumsum(reps, dtype=np.intp)  # one past each prefix's last child
            label = np.ones(ends[-1], dtype=np.int8)  # each child's label less its elder sibling's,
            label[0] = 0
            label[ends[:-1]] = 1 - reps[:-1]  # back to 0 at each prefix's first child,
            np.cumsum(label, out=label)  # summed
            rows = np.repeat(rows, reps, axis=0)
            for c in range(k):  # a column at a time: one narrow temporary each
                rows[:, c] |= (label == c) * rows.dtype.type(1 << g)
            top = np.maximum(np.repeat(top, reps), label)
        completions = np.ones((n_games + 1, k + 1), dtype=np.int64)
        for j in range(1, n_games + 1):  # a next game joins one of c classes, or opens class c < k
            completions[j, :k] = np.arange(k) * completions[j - 1, :k] + completions[j - 1, 1:]
            completions[j, k] = k * completions[j - 1, k]
        rows.setflags(write=False)
        completions.setflags(write=False)
        _MASK_CACHE[n_games, k] = rows, completions
    return _MASK_CACHE[n_games, k]


def assignment_rows(assign, max_classes: int) -> np.ndarray:
    """Row of `class_masks` holding the partition of each assignment row.

    `assign` is an (N, n_games) array of arbitrary labels in [0, max_classes).
    One pass over the games relabels each row by first occurrence and ranks
    the restricted-growth string r it gives among the rows of `class_masks`,
    which are in its lexicographic order: rank = sum_g r_g * C[n-1-g, c_g], with
    c_g the classes of r_0..r_{g-1} and C[j, c] the count of restricted-growth
    completions of j more games after c classes (Knuth, TAOCP 4A, 7.2.1.5),
    which is built once with the mask table.
    """
    assign = np.asarray(assign)
    n_rows, n_games = assign.shape
    completions = _mask_entry(n_games, max_classes)[1]
    canon = np.full(n_rows * max_classes, -1, dtype=np.int64)  # each row's relabeling so far
    cells = np.arange(n_rows) * max_classes
    canon[cells + assign[:, 0]] = 0  # game 0 opens class 0, of rank 0
    used = np.ones(n_rows, dtype=np.int64)  # classes met so far
    rank = np.zeros(n_rows, dtype=np.int64)
    for g in range(1, n_games):
        cell = cells + assign[:, g]
        label = canon.take(cell)
        opens = label < 0
        label = np.where(opens, used, label)
        canon[cell] = label  # a fancy store, several times faster than `put`
        rank += label * completions[n_games - 1 - g].take(used)
        used += opens
    return rank


def enumerate_partitions(n_games: int, max_classes: int) -> Iterator[Partition]:
    """All partitions of n_games games into at most max_classes classes.

    Deterministic canonical order (lexicographic restricted-growth strings).
    Refuses instances with more than `DEFAULT_ENUMERATION_CAP` games.
    """
    return iter(partition_list(n_games, max_classes))


def partition_list(n_games: int, max_classes: int) -> tuple[Partition, ...]:
    """Every row of `class_masks`, decoded, in its row order."""
    return tuple(Partition.from_masks(n_games, row) for row in class_masks(n_games, max_classes).tolist())
