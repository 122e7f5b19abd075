import math

import numpy as np
import pytest

from cabee.clustering import (
    KL,
    L2,
    TIE_TOL,
    Divergence,
    ClusteringReport,
    _prototype_divergences,
    class_prototypes,
    dispersion,
    dispersion_minimizers,
    divergence_eval,
    global_cluster,
    global_cluster_batch,
    is_locally_clustered,
    kmeans_lloyd,
    local_margins,
    local_witnesses,
    mean_divergence,
    partition_dispersions,
    row_prototypes,
    subset_table,
)
from cabee.partitions import Partition, class_masks, enumerate_partitions, partition_list
from conftest import random_distributions

MEAN1 = mean_divergence([1.0])  # scalar data carried as 1-vectors


def one_d(points):
    return np.asarray(points, dtype=float)[:, None]


def sparse_distributions(rng, n, k):
    """Random distributions with about a third of their entries zero, none all zero."""
    draws = rng.standard_exponential((n, k)) * (rng.random((n, k)) > 1 / 3)
    draws[np.arange(n), rng.integers(0, k, n)] += 0.1
    return draws / draws.sum(axis=1, keepdims=True)


def random_cases(rng, trials):
    """Seeded (data, prior, divergence) triples: L2, KL with zero entries, and
    the mean divergence, with 2 to 5 actions."""
    for trial in range(trials):
        n = int(rng.integers(2, 8))
        n_act = int(rng.integers(2, 6))
        kind = trial % 3
        data = (random_distributions, sparse_distributions, random_distributions)[kind](rng, n, n_act)
        d = (L2, KL, mean_divergence(rng.normal(size=n_act)))[kind]
        yield data, rng.dirichlet(np.ones(n)), d


# ---------------------------------------------------------------------------
# references: the per-game loops that the batched kernels replace
# ---------------------------------------------------------------------------


def _loop_prototype(data, members, prior):
    """Prior-weighted mean of one class's members, the class at a time."""
    members = list(members)
    w = np.asarray(prior, dtype=float)[members]
    return w @ np.asarray(data, dtype=float).take(members, axis=-2) / w.sum()


def _loop_is_locally_clustered(data, partition, prior, d, tol=1e-12):
    protos = class_prototypes(data, partition, prior)
    for ci, cls in enumerate(partition.classes):
        for g in cls:
            own = divergence_eval(d, data[g], protos[ci])
            for cj in range(partition.n_classes):
                if cj == ci:
                    continue
                if divergence_eval(d, data[g], protos[cj]) < own - tol:
                    return False, (g, cj)
    return True, None


def _loop_kmeans_lloyd(data, prior, max_classes, d, init, max_iter=1000):
    data = np.asarray(data, dtype=float)
    prior = np.asarray(prior, dtype=float)
    protos = [np.asarray(p, dtype=float) for p in np.asarray(init, dtype=float)]
    n = data.shape[0]
    assign = np.full(n, -1)
    dropped = 0
    history = []
    for it in range(max_iter):
        dist = np.array([[divergence_eval(d, data[g], p) for p in protos] for g in range(n)])
        new_assign = dist.argmin(axis=1)
        live = sorted(set(int(a) for a in new_assign))
        if len(live) < len(protos):
            dropped += len(protos) - len(live)
            relabel = {old: new for new, old in enumerate(live)}
            new_assign = np.array([relabel[int(a)] for a in new_assign])
        protos = [
            _loop_prototype(data, np.flatnonzero(new_assign == c), prior)
            for c in range(len(set(int(a) for a in new_assign)))
        ]
        part = Partition.from_assignment(new_assign)
        history.append(dispersion(data, part, prior, d))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    part = Partition.from_assignment(assign)
    local, _ = _loop_is_locally_clustered(data, part, prior, d)
    return ClusteringReport(
        partition=part,
        prototypes=class_prototypes(data, part, prior),
        dispersion=history[-1],
        locally_clustered=local,
        iterations=len(history),
        dispersion_history=history,
        dropped_classes=dropped,
    )


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def test_l2_identity_and_symmetry():
    p = np.array([0.3, 0.7])
    assert divergence_eval(L2, p, p) == 0.0
    q = np.array([0.6, 0.4])
    assert divergence_eval(L2, p, q) == divergence_eval(L2, q, p)


def test_l2_opposite_corners():
    assert divergence_eval(L2, [1, 0], [0, 1]) == pytest.approx(2.0)


def test_kl_value():
    got = divergence_eval(KL, [0.5, 0.5], [0.25, 0.75])
    assert got == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-12)
    assert got == pytest.approx(0.14384, abs=5e-6)


def test_kl_asymmetric_and_zero_convention():
    assert divergence_eval(KL, [1, 0], [0.5, 0.5]) == pytest.approx(math.log(2))
    # support violation signals infinity rather than raising
    assert divergence_eval(KL, [0.5, 0.5], [1, 0]) == math.inf


def test_mean_divergence_requires_values():
    with pytest.raises(ValueError):
        Divergence("squared-mean-difference")
    d = mean_divergence([0.0, 1.0])
    assert d([0.25, 0.75], [0.75, 0.25]) == pytest.approx(0.25)


def test_prototype_divergences_match_the_scalar_definition(rng):
    for data, _, d in random_cases(rng, 60):
        k = int(rng.integers(1, 5))
        protos = sparse_distributions(rng, k, data.shape[1]) if d is KL else random_distributions(rng, k, data.shape[1])
        got = _prototype_divergences(data, protos, d)
        want = np.array([[divergence_eval(d, p, q) for q in protos] for p in data])
        assert got.shape == (len(data), k)
        if d.kind == "squared-mean-difference":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        else:
            assert np.array_equal(got, want)
        # a leading batch axis pairs each data set with its own prototypes
        batched = _prototype_divergences(np.stack([data, data[::-1]]), np.stack([protos, protos]), d)
        np.testing.assert_array_equal(batched[0], got)
        np.testing.assert_array_equal(batched[1], got[::-1])


def test_prototype_divergences_kl_zero_conventions():
    # 0*ln(0) = 0: a point on its own prototype, zero coordinate shared, is at distance 0
    got = _prototype_divergences(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.5, 0.5]]), KL)
    assert got[0, 0] == 0.0
    assert got[0, 1] == pytest.approx(math.log(2))
    # a prototype missing the point's support is infinitely far
    assert got[1, 0] == math.inf


# ---------------------------------------------------------------------------
# prototypes and dispersion
# ---------------------------------------------------------------------------


def test_prototype_uniform_symmetry():
    data = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(class_prototypes(data, Partition.coarsest(2), [0.5, 0.5]), [[0.5, 0.5]])


def test_prototype_weighted():
    data = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(class_prototypes(data, Partition.coarsest(2), [2 / 3, 1 / 3]), [[2 / 3, 1 / 3]])


def test_prototype_singleton():
    data = np.array([[0.2, 0.8], [0.5, 0.5]])
    np.testing.assert_allclose(class_prototypes(data, Partition.finest(2), [0.5, 0.5]), data)


def test_partition_memo_keeps_equality_and_hash():
    """A partition carrying its memoized size groups compares and hashes
    equal to a fresh one."""
    part = Partition.from_classes(4, [(0, 2), (1,), (3,)])
    groups = part.size_groups()
    assert part.size_groups() is groups
    fresh = Partition.from_classes(4, [(0, 2), (1,), (3,)])
    assert part == fresh and hash(part) == hash(fresh) and {part: 1}[fresh] == 1
    assert [(r.tolist(), m.tolist()) for r, m in groups] == [([0], [[0, 2]]), ([1, 2], [[1], [3]])]


def test_dispersion_identical_points():
    data = np.array([[0.4, 0.6]] * 3)
    part = Partition.from_classes(3, [(0, 1), (2,)])
    assert dispersion(data, part, np.full(3, 1 / 3), L2) == pytest.approx(0.0)


def test_dispersion_hand_values():
    data = one_d([0.0, 0.4, 1.0])
    prior = np.full(3, 1 / 3)
    low = Partition.from_classes(3, [(0, 1), (2,)])
    high = Partition.from_classes(3, [(0,), (1, 2)])
    assert dispersion(data, low, prior, MEAN1) == pytest.approx(0.2**2 * (2 / 3), abs=1e-12)
    assert dispersion(data, high, prior, MEAN1) == pytest.approx(0.06, abs=1e-12)


def test_dispersion_relabel_and_reorder_invariant(rng):
    data = random_distributions(rng, 5, 3)
    prior = rng.dirichlet(np.ones(5))
    part = Partition.from_classes(5, [(0, 3), (1, 2, 4)])
    same = Partition.from_classes(5, [(4, 2, 1), (3, 0)])
    assert dispersion(data, part, prior, L2) == pytest.approx(
        dispersion(data, same, prior, L2), abs=1e-14
    )


def test_batched_dispersion_matches_definition(rng):
    for d in (L2, KL, mean_divergence([0.0, 0.5, 1.0])):
        data = random_distributions(rng, 6, 3)
        prior = rng.dirichlet(np.ones(6))
        parts = partition_list(6, 3)
        fast = partition_dispersions(subset_table(data, prior, d), class_masks(6, 3))
        slow = np.array([dispersion(data, p, prior, d) for p in parts])
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def _loop_dispersion(data, partition, prior, d):
    """The per-game definition: `_loop_prototype` per class, `divergence_eval` per game."""
    total = 0.0
    for cls in partition.classes:
        proto = _loop_prototype(data, cls, prior)
        for g in cls:
            total += prior[g] * divergence_eval(d, data[g], proto)
    return total


def test_dispersion_batch_equals_per_data_set_calls(rng):
    """On a (..., n_games, dim) batch each entry is exactly the call on its
    data set alone, and the per-game definition; one data set gives a float."""
    draws = (random_distributions, sparse_distributions, random_distributions)
    for trial in range(108):
        kind, n_act, lead = trial % 3, 2 + trial // 3 % 4, ((), (4,), (2, 3))[trial // 12 % 3]
        n = int(rng.integers(1, 7))
        d = (L2, KL, mean_divergence(rng.normal(size=n_act)))[kind]
        sets = [draws[kind](rng, n, n_act) for _ in range(math.prod(lead))]
        data = np.stack(sets).reshape(lead + (n, n_act))
        prior = rng.dirichlet(np.ones(n))
        parts = partition_list(n, n)
        part = parts[int(rng.integers(len(parts)))]
        got = dispersion(data, part, prior, d)
        if not lead:
            assert type(got) is float
            assert got == _loop_dispersion(data, part, prior, d)
            continue
        assert got.shape == lead
        for idx in np.ndindex(*lead):
            alone = dispersion(data[idx], part, prior, d)
            assert got[idx] == alone == _loop_dispersion(data[idx], part, prior, d), (trial, idx)


def test_row_kernels_equal_the_one_partition_kernels_row_by_row(rng):
    """A batch whose data sets each have their own partition, given as class
    labels, gets from `row_prototypes`, and from `local_margins`,
    `dispersion` and `local_witnesses` given the labels, what the
    one-partition calls give each data set alone, bit for bit (margins 0
    past a data set's class count), in any memory layout, for all three
    divergences."""
    draws = (random_distributions, sparse_distributions, random_distributions)
    for trial in range(60):
        kind, n_act = trial % 3, 2 + trial // 3 % 3
        n, rows = int(rng.integers(1, 7)), int(rng.integers(1, 40))
        d = (L2, KL, mean_divergence(rng.normal(size=n_act)))[kind]
        data = np.stack([draws[kind](rng, n, n_act) for _ in range(rows)])
        if trial % 2:
            data = np.ascontiguousarray(data.transpose(1, 0, 2)).transpose(1, 0, 2)  # game-major
        prior = rng.dirichlet(np.ones(n))
        parts = partition_list(n, n)
        own = [parts[i] for i in rng.integers(len(parts), size=rows)]
        labels = np.array([part.assignment() for part in own])
        protos = row_prototypes(data, labels, prior)
        margins, dist = local_margins(data, labels, prior, d)
        disp = dispersion(data, labels, prior, d)
        witnesses = local_witnesses(data, labels, prior, d)
        assert protos.shape == margins.shape[:1] + (max(p.n_classes for p in own), n_act)
        for b, part in enumerate(own):
            k = part.n_classes
            alone = data[b : b + 1]
            assert protos[b, :k].tobytes() == class_prototypes(alone, part, prior)[0].tobytes()
            assert not protos[b, k:].any() and not margins[b, :, k:].any()
            ref, ref_own = local_margins(alone, part, prior, d)
            assert margins[b, :, :k].tobytes() == ref[0].tobytes() and dist[b].tobytes() == ref_own[0].tobytes()
            assert disp[b] == dispersion(data[b], part, prior, d)
            assert witnesses[b] == local_witnesses(alone, part, prior, d)[0]


def test_dispersion_minimizers_hold_the_minimizer_lists(rng):
    """`global_cluster_batch`'s lists are the rows of `dispersion_minimizers`'
    table, in partition order, with the same minima."""
    for data, prior, d in random_cases(rng, 40):
        batch = np.stack([data, data[::-1], np.full_like(data, 1 / data.shape[1])])
        k = int(rng.integers(1, 5))
        held, best = dispersion_minimizers(batch, prior, k, d)
        winners, minima = global_cluster_batch(batch, prior, k, d)
        parts = partition_list(len(data), k)
        assert held.shape == (3, len(parts)) and minima.tobytes() == best.tobytes()
        assert winners == [[parts[p] for p in np.flatnonzero(row)] for row in held]


# ---------------------------------------------------------------------------
# local and global clustering
# ---------------------------------------------------------------------------


def test_local_clustering_both_two_class_partitions():
    data = one_d([0.0, 0.4, 1.0])
    prior = np.full(3, 1 / 3)
    ok_low, wit = is_locally_clustered(data, Partition.from_classes(3, [(0, 1), (2,)]), prior, MEAN1)
    assert ok_low and wit is None
    # the other bundling also passes: local clustering is not unique
    ok_high, _ = is_locally_clustered(data, Partition.from_classes(3, [(0,), (1, 2)]), prior, MEAN1)
    assert ok_high


def test_local_clustering_failure_witness():
    data = one_d([0.0, 0.45, 1.0])
    prior = np.full(3, 1 / 3)
    # bundling the outer points leaves the middle one nearer the other class
    ok, wit = is_locally_clustered(data, Partition.from_classes(3, [(0, 2), (1,)]), prior, MEAN1)
    assert not ok
    game, better = wit
    assert game in (0, 2)


def test_local_clustering_matches_loop_reference(rng):
    """Verdicts and witnesses (first failing game in class-major order)
    equal the per-game loop's on random partitions."""
    verdicts = set()
    for data, prior, d in random_cases(rng, 150):
        parts = partition_list(len(data), int(rng.integers(1, 5)))
        part = parts[int(rng.integers(len(parts)))]
        got = is_locally_clustered(data, part, prior, d)
        assert got == _loop_is_locally_clustered(data, part, prior, d), (data, part, d)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_global_cluster_unique_minimizer():
    data = one_d([0.0, 0.4, 1.0])
    winners, best = global_cluster(data, np.full(3, 1 / 3), 2, MEAN1)
    assert [w.key() for w in winners] == [((0, 1), (2,))]
    assert best == pytest.approx(0.2**2 * (2 / 3))


def test_global_cluster_degenerate_all_tie():
    data = np.array([[0.5, 0.5]] * 3)
    winners, best = global_cluster(data, np.full(3, 1 / 3), 2, L2)
    assert best == pytest.approx(0.0)
    assert len(winners) == len(list(enumerate_partitions(3, 2)))


def test_global_cluster_minimum_is_never_negative(rng):
    """With at least as many classes as games the minimum is 0 in exact
    arithmetic, and the singletons' class terms may round it either way; the
    reported minimum is never below 0."""
    for trial in range(60):
        n = 2 + trial % 4
        data = sparse_distributions(rng, n, 3)
        d = (L2, KL, mean_divergence([0.0, 0.5, 1.0]))[trial % 3]
        winners, best = global_cluster(data, rng.dirichlet(np.ones(n)), n, d)
        assert 0.0 <= best <= TIE_TOL and Partition.finest(n) in winners


def test_global_cluster_is_the_argmin_set_of_dispersion(rng):
    """Winners are the definition's minimizers, in partition_list order."""
    for trial in range(45):
        n = int(rng.integers(1, 8))
        max_classes = int(rng.integers(1, 5))
        data = random_distributions(rng, n, 3)
        prior = rng.dirichlet(np.ones(n))
        d = (L2, KL, mean_divergence([0.0, 0.5, 1.0]))[trial % 3]
        winners, best = global_cluster(data, prior, max_classes, d)
        parts = partition_list(n, max_classes)
        disp = np.array([dispersion(data, p, prior, d) for p in parts])
        assert best == pytest.approx(disp.min(), abs=1e-12)
        assert winners == [p for p, v in zip(parts, disp) if v <= disp.min() + TIE_TOL]


def test_global_implies_local_randomized(rng):
    """Every dispersion minimizer passes the nearest-prototype test."""
    for trial in range(120):
        n = int(rng.integers(2, 8))
        k_act = int(rng.integers(2, 4))
        max_classes = int(rng.integers(1, 4))
        data = random_distributions(rng, n, k_act)
        prior = rng.dirichlet(np.ones(n))
        d = (L2, KL)[trial % 2]
        winners, _ = global_cluster(data, prior, max_classes, d)
        assert winners
        for w in winners:
            ok, wit = is_locally_clustered(data, w, prior, d)
            assert ok, (trial, w, wit)


def test_prototype_optimality_perturbation(rng):
    """Moving the prototype off the weighted mean never helps (both
    Bregman divergences), checked with simplex-projected nudges."""
    delta = 1e-3
    for trial in range(40):
        n = int(rng.integers(2, 6))
        data = random_distributions(rng, n, 3)
        prior = rng.dirichlet(np.ones(n))
        d = (L2, KL)[trial % 2]
        members = list(range(n))
        proto = class_prototypes(data, Partition.coarsest(n), prior)[0]

        def objective(q):
            return sum(prior[g] * divergence_eval(d, data[g], q) for g in members)

        base = objective(proto)
        for _ in range(6):
            direction = rng.normal(size=3)
            direction -= direction.mean()  # stay on the simplex plane
            q = proto + delta * direction
            if np.any(q <= 0):
                continue
            q = q / q.sum()
            assert objective(q) >= base - 1e-12


# ---------------------------------------------------------------------------
# Lloyd iteration
# ---------------------------------------------------------------------------


def test_kmeans_converges_to_low_split():
    report = kmeans_lloyd(one_d([0.0, 0.4, 1.0]), np.full(3, 1 / 3), 2, MEAN1, one_d([0.0, 1.0]))
    assert report.partition.key() == ((0, 1), (2,))
    np.testing.assert_allclose(report.prototypes.ravel(), [0.2, 1.0])
    assert report.locally_clustered


def test_kmeans_fixed_point_init():
    # seeding at the prototypes of a locally clustered partition stays put
    report = kmeans_lloyd(one_d([0.0, 0.4, 1.0]), np.full(3, 1 / 3), 2, MEAN1, one_d([0.2, 1.0]))
    assert report.partition.key() == ((0, 1), (2,))
    assert report.iterations <= 2


def test_kmeans_other_basin():
    report = kmeans_lloyd(one_d([0.0, 0.4, 1.0]), np.full(3, 1 / 3), 2, MEAN1, one_d([0.35, 0.45]))
    assert report.partition.key() == ((0,), (1, 2))
    np.testing.assert_allclose(report.prototypes.ravel(), [0.0, 0.7])


def checked_kmeans_lloyd(data, prior, k, d, init):
    """`kmeans_lloyd`, checked to leave `init` alone and to report no
    negative dispersion."""
    before = np.array(init, dtype=float)
    report = kmeans_lloyd(data, prior, k, d, init)
    np.testing.assert_array_equal(init, before)
    assert report.dispersion >= 0 and min(report.dispersion_history) >= 0
    return report


def test_kmeans_monotone_and_locally_clustered(rng):
    for trial in range(60):
        n = int(rng.integers(2, 8))
        data = random_distributions(rng, n, 3)
        prior = rng.dirichlet(np.ones(n))
        k = int(rng.integers(1, 4))
        init = data[rng.choice(n, size=min(k, n), replace=False)]
        d = (L2, KL)[trial % 2]
        report = checked_kmeans_lloyd(data, prior, k, d, init)
        hist = report.dispersion_history
        assert all(a >= b - 1e-10 for a, b in zip(hist, hist[1:]))
        assert report.locally_clustered


def assert_same_report(got, want):
    assert got.partition == want.partition
    assert got.iterations == want.iterations
    assert got.dropped_classes == want.dropped_classes
    assert got.locally_clustered == want.locally_clustered
    np.testing.assert_array_equal(got.prototypes, want.prototypes)
    np.testing.assert_allclose(got.dispersion_history, want.dispersion_history, rtol=0, atol=1e-12)
    assert got.dispersion == pytest.approx(want.dispersion, rel=0, abs=1e-12)


def test_kmeans_matches_loop_reference(rng):
    """Seeded random data with K = 1 to 4 starts drawn from the data, off the
    data, and with repeats, so classes empty and are dropped."""
    dropped = 0
    for data, prior, d in random_cases(rng, 150):
        n, n_act = data.shape
        k = int(rng.integers(1, 5))
        pool = np.concatenate([data, sparse_distributions(rng, 3, n_act)])
        init = pool[rng.integers(0, len(pool), k)]
        want = _loop_kmeans_lloyd(data, prior, k, d, init)
        assert_same_report(checked_kmeans_lloyd(data, prior, k, d, init), want)
        dropped += want.dropped_classes
    assert dropped > 0


def test_kmeans_matches_loop_reference_on_hand_cases():
    prior = np.full(3, 1 / 3)
    for init in ([0.0, 1.0], [0.2, 1.0], [0.35, 0.45], [5.0, 0.0]):
        data = one_d([0.0, 0.4, 1.0])
        assert_same_report(
            checked_kmeans_lloyd(data, prior, 2, MEAN1, one_d(init)),
            _loop_kmeans_lloyd(data, prior, 2, MEAN1, one_d(init)),
        )


def test_kmeans_representatives_bounded_by_max_classes():
    data = one_d([0.0, 0.4, 1.0])
    prior = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        kmeans_lloyd(data, prior, 2, MEAN1, np.empty((0, 1)))
    with pytest.raises(ValueError):
        kmeans_lloyd(data, prior, 2, MEAN1, one_d([0.0, 0.4, 1.0]))
    with pytest.raises(ValueError, match="max_iter=0"):
        kmeans_lloyd(data, prior, 2, MEAN1, one_d([0.0, 1.0]), max_iter=0)
    assert kmeans_lloyd(data, prior, 3, MEAN1, one_d([0.0, 0.4, 1.0])).partition.n_classes == 3
    assert kmeans_lloyd(data, prior, 2, MEAN1, one_d([0.0])).partition.n_classes == 1


def test_kmeans_drops_empty_class():
    data = one_d([0.0, 0.1])
    report = kmeans_lloyd(data, np.array([0.5, 0.5]), 3, MEAN1, one_d([0.0, 0.1, 5.0]))
    assert report.partition.n_classes < 3
    assert report.dropped_classes >= 1
