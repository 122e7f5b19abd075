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
    partition_list,
)
from conftest import class_of, label_array


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


def test_label_array_order_count_and_keys():
    """The reference enumeration of `conftest` against the brute-force oracle."""
    for n in range(1, 8):
        for k in range(1, n + 2):
            labels = label_array(n, k)
            rows = [tuple(r) for r in labels.tolist()]
            assert all(a < b for a, b in zip(rows, rows[1:])), (n, k)
            assert len(rows) == count_partitions(n, k)
            keys = [Partition.from_assignment(r).key() for r in rows]
            assert set(keys) == brute_force_partitions(n, k)


def test_class_masks_round_trip_to_label_array():
    """Each row of `class_masks` holds the classes of the same row of the
    reference `label_array`, in class order, with 0 past its class count,
    and `Partition.from_masks` decodes it to that row's partition."""
    for n in range(1, 8):
        for k in range(1, n + 2):
            masks = class_masks(n, k)
            assert masks.shape == (len(label_array(n, k)), min(n, k))
            assert not masks.flags.writeable and class_masks(n, k) is masks
            for row, labels in zip(masks.tolist(), label_array(n, k).tolist()):
                part = Partition.from_assignment(labels)
                masks_of_classes = [sum(1 << g for g in cls) for cls in part.classes]
                assert row == masks_of_classes + [0] * (len(row) - part.n_classes)
                assert Partition.from_masks(n, row) == part


def test_class_masks_checks_its_arguments_without_label_array(monkeypatch):
    """`class_masks` refuses too many games, no games and no classes, with
    its cache cold, and caches only the table it was asked for."""
    monkeypatch.setattr(partitions, "_MASK_CACHE", {})
    with pytest.raises(PartitionSizeError):
        class_masks(15, 2)
    for n, k in [(0, 2), (-1, 2), (3, 0), (3, -1)]:
        with pytest.raises(ValueError):
            class_masks(n, k)
    class_masks(9, 4)
    assert list(partitions._MASK_CACHE) == [(9, 4)]


def test_cold_class_masks_memory_is_bounded_by_the_masks(monkeypatch):
    """A cold `class_masks(12, 4)` (700,075 rows of four uint16 masks, 5.3
    MiB) peaks below 24 MiB under tracemalloc; built from the label table,
    it peaked at 32.1 MiB."""
    monkeypatch.setattr(partitions, "_MASK_CACHE", {})
    tracemalloc.start()
    try:
        class_masks(12, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_partition_list_is_a_view_of_label_array():
    """`partition_list` decodes the rows of the reference `label_array`, in
    its order."""
    for n, k in [(6, 3), (7, 4), (5, 5), (1, 3), (4, 1)]:
        labels = label_array(n, k)
        assert [p.assignment() for p in partition_list(n, k)] == [tuple(r) for r in labels.tolist()]
        assert list(enumerate_partitions(n, k)) == list(partition_list(n, k))


def test_assignment_rows_match_per_subject_relabeling():
    """The vectorized lookup equals relabeling each row through Partition,
    for 1 to 8 games and 1 to n + 1 classes, labels anywhere in [0, K); the
    one-row call on a partition's own assignment gives the partition's
    index; and each row is that of the reference `label_array` equal to the
    row's relabeling."""
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for k in range(1, n + 2):
            assign = rng.integers(0, k, size=(300, n))
            parts = partition_list(n, k)
            canon = {p.assignment(): pi for pi, p in enumerate(parts)}
            old = np.array([canon[Partition.from_assignment(a).assignment()] for a in assign])
            np.testing.assert_array_equal(assignment_rows(assign, k), old)
            labels = label_array(n, k)
            for a, row in zip(assign[:20], assignment_rows(assign[:20], k).tolist()):
                assert labels[row].tolist() == list(Partition.from_assignment(a).assignment())
            for pi in rng.choice(len(parts), size=min(len(parts), 40), replace=False).tolist():
                assert assignment_rows([parts[pi].assignment()], k).tolist() == [pi]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_classes(3, [(0, 1)])  # not covering
    with pytest.raises(ValueError):
        Partition.from_classes(3, [(0, 1), (1, 2)])  # overlap


def test_partition_list_cached():
    assert partition_list(4, 2) == partition_list(4, 2)
    assert [p.key() for p in partition_list(4, 2)] == [
        p.key() for p in enumerate_partitions(4, 2)
    ]


def test_class_lookup_and_assignment():
    part = Partition.from_classes(4, [(1, 3), (0,), (2,)])
    assert part.classes == ((0,), (1, 3), (2,))  # canonical order
    assert class_of(part, 3) == 1
    assert part.assignment() == (0, 1, 2, 1)
