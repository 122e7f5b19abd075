import functools
import tracemalloc

import numpy as np
import pytest

from cabee import partitions
from cabee.partitions import (
    Partition,
    PartitionSizeError,
    assignment_rows,
    class_masks,
    enumerate_partitions,
    label_array,
    partition_list,
)
from conftest import class_of


def bell_number(n: int) -> int:
    """Number of set partitions of n items (Bell triangle recurrence)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def count_partitions(n: int, max_classes: int) -> int:
    """Number of partitions of n items into at most max_classes classes."""
    # Stirling numbers of the second kind, summed over class counts.
    stirling = [[0] * (max_classes + 1) for _ in range(n + 1)]
    stirling[0][0] = 1
    for i in range(1, n + 1):
        for k in range(1, max_classes + 1):
            stirling[i][k] = k * stirling[i - 1][k] + stirling[i - 1][k - 1]
    return sum(stirling[n][1 : max_classes + 1])


@functools.lru_cache(maxsize=None)
def _all_partition_keys(n):
    """Every set partition of n games: each game in turn joins every class
    of every partition of the games before it, or opens a class of its own."""
    parts = [[]]
    for g in range(n):
        parts = [p[:i] + [p[i] + [g]] + p[i + 1 :] for p in parts for i in range(len(p))] + [p + [[g]] for p in parts]
    return frozenset(Partition.from_classes(n, classes).key() for classes in parts)


def brute_force_partitions(n, max_classes):
    """Independent oracle: the set partitions with at most max_classes classes."""
    return {key for key in _all_partition_keys(n) if len(key) <= max_classes}


def test_three_games_two_classes():
    parts = list(enumerate_partitions(3, 2))
    assert len(parts) == 4  # one coarse + three two-class splits
    assert sum(p.n_classes == 2 for p in parts) == 3


def test_three_games_three_classes_bell():
    assert len(list(enumerate_partitions(3, 3))) == 5
    assert bell_number(3) == 5


def test_single_game():
    parts = list(enumerate_partitions(1, 5))
    assert len(parts) == 1
    assert parts[0].classes == ((0,),)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2), (6, 6), (7, 3)])
def test_enumeration_matches_brute_force(n, k):
    got = {p.key() for p in enumerate_partitions(n, k)}
    assert got == brute_force_partitions(n, k)
    assert len(got) == count_partitions(n, k)


def test_full_enumeration_is_bell(n=6):
    assert len(list(enumerate_partitions(n, n))) == bell_number(n)


def test_bell_against_known_values():
    assert [bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_deterministic_order():
    a = [p.key() for p in enumerate_partitions(5, 3)]
    b = [p.key() for p in enumerate_partitions(5, 3)]
    assert a == b
    assert a[0] == ((0, 1, 2, 3, 4),)  # coarsest first


def test_canonical_no_duplicates():
    parts = [p.key() for p in enumerate_partitions(7, 3)]
    assert len(parts) == len(set(parts))


def test_size_cap():
    with pytest.raises(PartitionSizeError):
        list(enumerate_partitions(15, 2))
    # configurable
    with pytest.raises(PartitionSizeError):
        list(enumerate_partitions(5, 2, cap=4))


def test_label_array_order_count_and_keys():
    for n in range(1, 8):
        for k in range(1, n + 2):
            labels = label_array(n, k)
            rows = [tuple(r) for r in labels.tolist()]
            assert all(a < b for a, b in zip(rows, rows[1:])), (n, k)
            assert len(rows) == count_partitions(n, k)
            keys = [Partition.from_assignment(r).key() for r in rows]
            assert set(keys) == brute_force_partitions(n, k)


def test_class_masks_round_trip_to_label_array():
    """Each row of `class_masks` holds the classes of the same row of
    `label_array`, in class order, with 0 past its class count.  Neither
    table is derived from the other, so each checks the other's writes."""
    for n in range(1, 8):
        for k in range(1, n + 2):
            masks = class_masks(n, k)
            assert masks.shape == (len(label_array(n, k)), min(n, k))
            assert not masks.flags.writeable and class_masks(n, k) is masks
            for row, labels in zip(masks.tolist(), label_array(n, k).tolist()):
                part = Partition.from_assignment(labels)
                masks_of_classes = [sum(1 << g for g in cls) for cls in part.classes]
                assert row == masks_of_classes + [0] * (len(row) - part.n_classes)
                classes = [[g for g in range(n) if m >> g & 1] for m in row if m]
                assert Partition.from_classes(n, classes) == part


def test_label_array_size_cap():
    with pytest.raises(PartitionSizeError):
        label_array(15, 2)


def test_class_masks_checks_its_arguments_without_label_array(monkeypatch):
    """`class_masks` refuses what `label_array` refuses, with both caches
    cold, and builds no label table of its own."""
    monkeypatch.setattr(partitions, "_LABEL_CACHE", {})
    monkeypatch.setattr(partitions, "_MASK_CACHE", {})
    with pytest.raises(PartitionSizeError):
        class_masks(15, 2)
    for n, k in [(0, 2), (-1, 2), (3, 0), (3, -1)]:
        with pytest.raises(ValueError):
            class_masks(n, k)
    class_masks(9, 4)
    assert list(partitions._MASK_CACHE) == [(9, 4)] and partitions._LABEL_CACHE == {}


def test_cold_class_masks_memory_is_bounded_by_the_masks(monkeypatch):
    """A cold `class_masks(12, 4)` (700,075 rows of four uint16 masks, 5.3
    MiB) peaks below 24 MiB under tracemalloc; built from the label table,
    it peaked at 32.1 MiB."""
    monkeypatch.setattr(partitions, "_LABEL_CACHE", {})
    monkeypatch.setattr(partitions, "_MASK_CACHE", {})
    tracemalloc.start()
    try:
        class_masks(12, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_partition_list_is_a_view_of_label_array():
    for n, k in [(6, 3), (7, 4), (5, 5), (1, 3), (4, 1)]:
        labels = label_array(n, k)
        assert [p.assignment() for p in partition_list(n, k)] == [tuple(r) for r in labels.tolist()]
        assert list(enumerate_partitions(n, k)) == list(partition_list(n, k))


def test_assignment_rows_match_per_subject_relabeling():
    """The vectorized lookup equals relabeling each row through Partition,
    for 1 to 8 games and 1 to n + 1 classes, labels anywhere in [0, K); and
    the one-row call on a partition's own assignment gives the partition's
    index, as `Partition.list_index` does, which `equilibrium._check_margins`
    and `unclustered` read (-1 for a partition with more classes than the
    list holds)."""
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for k in range(1, n + 2):
            assign = rng.integers(0, k, size=(300, n))
            parts = partition_list(n, k)
            canon = {p.assignment(): pi for pi, p in enumerate(parts)}
            old = np.array([canon[Partition.from_assignment(a).assignment()] for a in assign])
            np.testing.assert_array_equal(assignment_rows(assign, k), old)
            for pi in rng.choice(len(parts), size=min(len(parts), 40), replace=False).tolist():
                assert assignment_rows([parts[pi].assignment()], k).tolist() == [pi]
                assert parts[pi].list_index(k) == Partition.from_assignment(parts[pi].assignment()).list_index(k) == pi
            if k < n:
                assert Partition.finest(n).list_index(k) == -1


def test_list_index_is_the_matching_row_of_label_array(monkeypatch):
    """`Partition.list_index` at 11 games and 4 classes is the one row of
    `label_array` equal to the partition's assignment, for sampled labelings
    with 1 to 6 labels (-1 for those with more classes), and builds no
    `partition_list`."""
    monkeypatch.setattr(partitions, "_PARTITION_CACHE", {})
    rng = np.random.default_rng(5)
    labels = label_array(11, 4)
    for n_labels in rng.integers(1, 7, size=60).tolist():
        part = Partition.from_assignment(rng.integers(0, n_labels, size=11))
        match = np.flatnonzero((labels == part.assignment()).all(axis=1)).tolist()
        assert [part.list_index(4)] == (match if part.n_classes <= 4 else [-1])
        assert part.list_index(4) is part.list_index(4)  # memoized
    assert partitions._PARTITION_CACHE == {}


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_classes(3, [(0, 1)])  # not covering
    with pytest.raises(ValueError):
        Partition.from_classes(3, [(0, 1), (1, 2)])  # overlap


def test_partition_list_cached():
    assert partition_list(4, 2) is partition_list(4, 2)
    assert [p.key() for p in partition_list(4, 2)] == [
        p.key() for p in enumerate_partitions(4, 2)
    ]


def test_class_lookup_and_assignment():
    part = Partition.from_classes(4, [(1, 3), (0,), (2,)])
    assert part.classes == ((0,), (1, 3), (2,))  # canonical order
    assert class_of(part, 3) == 1
    assert part.assignment() == (0, 1, 2, 1)
