import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from cabee.abee import abee_solve
from cabee.cli import _partition_from_json, bundled_scenarios
from cabee.clustering import L2, dispersion, partition_dispersions, subset_table
from cabee.partitions import Partition
from cabee.applications import beauty
from cabee.applications.beauty import (
    BeautyContestSpec,
    abee_actions,
    _best_path,
    _mass_table,
    _segment_costs,
    beauty_cabee_check,
    best_reply,
    class_means,
    contiguity_is_sufficient,
    discrete_abee,
    discretize_beauty,
    equal_split_partition,
    self_consistent_contiguous,
    uniform_spec,
)
from conftest import abee_verify


def test_spec_validation():
    with pytest.raises(ValueError):
        uniform_spec(0.0, 10, 2)
    with pytest.raises(ValueError):
        uniform_spec(1.0, 10, 2)
    with pytest.raises(ValueError):
        BeautyContestSpec(0.5, (0.1, 0.9), (0.5, 0.6), 2)


def test_best_reply_limits():
    spec = uniform_spec(1e-9, 10, 2)
    assert best_reply(spec, 0.37, 0.9) == pytest.approx(0.37, abs=1e-8)
    # the equilibrium of the fine partition tracks the fundamental
    fine = Partition.finest(10)
    np.testing.assert_allclose(abee_actions(spec, fine), spec.thetas, atol=1e-8)


def test_abee_actions_closed_form():
    spec = uniform_spec(0.5, 100, 2)
    part = equal_split_partition(100, 2)
    actions = abee_actions(spec, part)
    means = class_means(spec, part)
    np.testing.assert_allclose(means, [0.25, 0.75], atol=1e-12)
    th = np.asarray(spec.thetas)
    expected = 0.5 * th + 0.5 * np.where(th < 0.5, 0.25, 0.75)
    np.testing.assert_allclose(actions, expected, atol=1e-12)


def test_uneven_partition_sustained_at_high_r_only():
    part = Partition.from_classes(60, [tuple(range(18)), tuple(range(18, 60))])
    ok_high, margin_high = beauty_cabee_check(uniform_spec(0.95, 60, 2), part)
    assert ok_high and margin_high > 0
    ok_low, margin_low = beauty_cabee_check(uniform_spec(0.01, 60, 2), part)
    assert not ok_low and margin_low < 0


def test_monotone_in_r_for_random_partitions(rng):
    """Once sustainable at some coordination weight, a partition stays
    sustainable at every larger weight."""
    n, k = 30, 3
    r_grid = np.linspace(0.05, 0.95, 20)
    for _ in range(10):
        labels = rng.integers(0, k, size=n)
        labels[rng.choice(n, size=k, replace=False)] = np.arange(k)  # no empty class
        part = Partition.from_assignment(labels)
        spec0 = uniform_spec(0.5, n, k)
        if np.min(np.diff(np.sort(class_means(spec0, part)))) < 1e-6:
            continue
        oks = [beauty_cabee_check(uniform_spec(float(r), n, k), part)[0] for r in r_grid]
        assert all(b or not a for a, b in zip(oks, oks[1:])), oks


def test_distinct_class_means_required():
    spec = uniform_spec(0.5, 4, 2)
    sym = Partition.from_classes(4, [(0, 3), (1, 2)])  # equal means
    with pytest.raises(ValueError):
        beauty_cabee_check(spec, sym)


def contiguous_partitions(n, n_classes):
    """Interval partitions of 0..n-1 with exactly n_classes classes, one
    `Partition` each, in the order of `combinations` of the cut positions."""
    for cuts in combinations(range(1, n), n_classes - 1):
        edges = (0,) + cuts + (n,)
        yield Partition.from_classes(n, [tuple(range(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])])


def _loop_class_means(spec, partition):
    """The per-class form that `class_means` replaces."""
    th = np.asarray(spec.thetas)
    w = np.asarray(spec.weights)
    return np.array([w[list(c)] @ th[list(c)] / w[list(c)].sum() for c in partition.classes])


def _loop_cabee_margin(spec, partition):
    """The per-game, per-class loop that `beauty_cabee_check` replaces: the
    smallest slack over all point/other-class comparisons."""
    actions = abee_actions(spec, partition)
    w = np.asarray(spec.weights)
    protos = np.array([w[list(c)] @ actions[list(c)] / w[list(c)].sum() for c in partition.classes])
    margin = np.inf
    for ci, cls in enumerate(partition.classes):
        for g in cls:
            own = (actions[g] - protos[ci]) ** 2
            for cj in range(partition.n_classes):
                if cj != ci:
                    margin = min(margin, (actions[g] - protos[cj]) ** 2 - own)
    if partition.n_classes < 2:
        margin = np.inf
    return float(margin)


def _bundled_beauty_cases():
    """(spec, partition) of every partition and r that the bundled beauty
    scenarios check: their named or equal-split partitions on their r grids,
    and the contiguous partitions of each class count of their sweeps."""
    for doc in bundled_scenarios().values():
        if doc["kind"] != "beauty":
            continue
        p = doc["params"]
        n, k = p["n"], p["K"]
        named = p.get("partition", "equal-split")
        part = equal_split_partition(n, k) if named == "equal-split" else _partition_from_json(n, named)
        for r in p.get("r_grid", []) + [p["r"]]:
            yield uniform_spec(r, n, k), part
        if p.get("self_consistent_sweep"):
            for count in p["class_counts"]:
                for part in contiguous_partitions(n, count):
                    yield uniform_spec(p["r"], n, count), part


def test_class_means_and_margins_match_the_per_class_loops():
    """On the bundled scenarios' partitions and r grids, class means equal the
    per-class loop bit for bit, and margins and verdicts equal the per-game
    loop's.  The loop squares numpy scalars with `**`, which is libm pow and
    can differ from the kernel's array square in the last bit, so margins
    agree to one unit in the last place of 1."""
    cases = bits = 0
    for spec, part in _bundled_beauty_cases():
        assert class_means(spec, part).tobytes() == _loop_class_means(spec, part).tobytes()
        ok, margin = beauty_cabee_check(spec, part)
        ref = _loop_cabee_margin(spec, part)
        assert abs(margin - ref) <= np.spacing(1.0), (spec.r, part, margin, ref)
        assert ok == (ref >= -1e-12)
        cases, bits = cases + 1, bits + (margin == ref)
    assert cases > 1700 and bits > 0.99 * cases


def test_discrete_matches_closed_form_within_cells():
    spec = uniform_spec(0.5, 200, 2)
    part = equal_split_partition(200, 2)
    chosen, means, gain = discrete_abee(spec, part)
    closed = abee_actions(spec, part)
    assert np.abs(chosen - closed).max() <= 2 / 200
    assert gain <= 1e-12
    np.testing.assert_allclose(means, [0.25, 0.75], atol=2 / 200)


def test_discretization_error_shrinks_with_refinement():
    gaps = []
    for n in (100, 200, 400):
        spec = uniform_spec(0.5, n, 2)
        part = equal_split_partition(n, 2)
        chosen, _, _ = discrete_abee(spec, part)
        gaps.append(np.abs(chosen - abee_actions(spec, part)).max())
    assert gaps[0] > gaps[1] > gaps[2]


def test_tensor_environment_consistent_with_grid_iteration():
    """The literal finite game and the mean-based iteration agree."""
    n = 24
    spec = uniform_spec(0.6, n, 2)
    part = equal_split_partition(n, 2)
    env = discretize_beauty(spec)
    profiles = abee_solve(env, (part, part))
    assert profiles
    chosen, _, _ = discrete_abee(spec, part)
    acts = np.array([(k + 0.5) / n for k in range(n)])
    hits = 0
    for prof in profiles:
        played = acts[np.argmax(prof.single(0), axis=1)]
        if np.abs(played - chosen).max() <= 1.5 / n:
            hits += 1
    assert hits
    ok, gain, _ = abee_verify(env, (part, part), profiles[0])
    assert ok and gain <= 1e-9


def test_discretize_requires_enough_actions():
    spec = uniform_spec(0.5, 10, 3)
    with pytest.raises(ValueError):
        discrete_abee(spec, equal_split_partition(10, 2), n_actions=1)
    with pytest.raises(ValueError):
        discretize_beauty(spec, n_actions=2)


def test_finest_grid_forces_per_game_equilibrium():
    n = 6
    spec = uniform_spec(0.4, n, n)
    fine = Partition.finest(n)
    chosen, _, gain = discrete_abee(spec, fine)
    np.testing.assert_allclose(chosen, spec.thetas, atol=1e-12)
    assert gain <= 1e-12


def test_weak_coordination_selects_equal_split():
    spec2 = uniform_spec(0.01, 60, 2)
    found2 = self_consistent_contiguous(spec2, 2)
    assert [p.key() for p in found2] == [equal_split_partition(60, 2).key()]
    spec3 = uniform_spec(0.01, 60, 3)
    found3 = self_consistent_contiguous(spec3, 3)
    assert [p.key() for p in found3] == [equal_split_partition(60, 3).key()]


def test_contiguity_restriction_validated_small():
    assert contiguity_is_sufficient(uniform_spec(0.01, 8, 2), 2)
    assert contiguity_is_sufficient(uniform_spec(0.3, 8, 3), 3)


def _reference_self_consistent(spec, n_classes, tie_tol=1e-10):
    """Contiguous partitions whose own `dispersion` on the actions they
    induce is within tie_tol of the least `dispersion` of any contiguous
    partition on those actions."""
    parts = list(contiguous_partitions(spec.n, n_classes))
    if not parts:
        return []
    actions = np.stack([abee_actions(spec, part) for part in parts])[:, :, None]
    disp = np.array([dispersion(actions, other, spec.weights, L2) for other in parts])  # (other, own)
    return [part for p, part in enumerate(parts) if disp[p, p] <= disp[:, p].min() + tie_tol]


def _uneven_spec(r, n, seed=0):
    """A grid with unsorted, unevenly spaced thetas and uneven weights."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, size=n)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return BeautyContestSpec(r, tuple(rng.uniform(size=n)), tuple(weights), 2)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_self_consistent_contiguous_matches_brute_force(n):
    """Every class count from the coarsest partition alone (K = 1) to the
    finest (K = n) and past it (none), on the uniform grid and on an uneven
    one."""
    for n_classes in (1, 2, 3, 4, n, n + 1):
        for r in (0.01, 0.3, 0.6, 0.9):
            for spec in (uniform_spec(r, n, n_classes), _uneven_spec(r, n, seed=n_classes)):
                found = self_consistent_contiguous(spec, n_classes)
                assert found == _reference_self_consistent(spec, n_classes), (r, n_classes, spec)
    assert self_consistent_contiguous(uniform_spec(0.3, n, 1), 1) == [Partition.coarsest(n)]
    assert self_consistent_contiguous(uniform_spec(0.3, n, n), n) == [Partition.finest(n)]
    assert self_consistent_contiguous(uniform_spec(0.3, n, n), n + 1) == []


def _interval_cases():
    """(spec, n_classes) of every class count at n <= 12 (uniform and uneven
    grids) and of the bundled sweep's 1,711 three-class partitions."""
    for n in range(1, 13):
        for k in range(1, n + 1):
            yield uniform_spec(0.6, n, k), k
            yield _uneven_spec(0.3, n, seed=k), k
    yield uniform_spec(0.01, 60, 3), 3


def test_interval_kernel_matches_abee_actions_bit_for_bit():
    """The sweep's actions, read off the interval-mean table, equal
    `abee_actions` of the same partition bit for bit, for every interval
    partition of the cases."""
    checked = 0
    for spec, k in _interval_cases():
        means = beauty._interval_means(spec)
        for edges in beauty._edge_blocks(spec.n, k):
            actions = beauty._interval_actions(spec, edges, means)
            for row, acts in zip(edges, actions):
                part = beauty._interval_partition(spec.n, row)
                assert acts.tobytes() == abee_actions(spec, part).tobytes(), (spec.r, spec.n, part)
                checked += 1
    assert checked == 2 * (2**12 - 1) + 1711  # 2^(n-1) per grid at each n <= 12; the n = 60 sweep


def test_returned_partitions_tie_the_batched_optimum_bit_for_bit():
    """A returned partition's own dispersion, its segment costs added from
    the left, equals the batched dynamic program's optimum on its induced
    actions bit for bit (on the brute-force grids and the bundled sweep)."""
    cases = [(uniform_spec(r, n, k), k) for n in (8, 10, 12) for k in (2, 3, 4) for r in (0.01, 0.3, 0.6, 0.9)]
    cases += [(uniform_spec(0.01, 60, k), k) for k in (2, 3)]
    returned = 0
    for spec, k in cases:
        found = self_consistent_contiguous(spec, k)
        if not found:
            continue
        w = np.asarray(spec.weights)
        cost = beauty._segment_costs(np.stack([abee_actions(spec, p) for p in found]), w, beauty._mass_table(w))
        best = beauty._best_path(cost, k)
        for b, part in enumerate(found):
            own = 0.0
            for cls in part.classes:
                own += cost[b, cls[0], cls[-1] + 1]
            assert own == best[b], (spec.r, spec.n, part, own - best[b])
        returned += len(found)
    assert returned > 100


def test_sweep_memory_is_bounded_by_one_block():
    """At n = 80 all 3,081 three-class cost tables would take about 162 MB;
    the sweep holds one block of them."""
    tracemalloc.start()
    try:
        found = self_consistent_contiguous(uniform_spec(0.01, 80, 3), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found and peak < 32 * 2**20, peak


def test_sweep_builds_no_partition_it_does_not_return(monkeypatch):
    """The sweep never calls `abee_actions`, and it builds a `Partition`
    for the partitions it returns alone."""

    def refuse(*args):
        raise AssertionError("abee_actions called")

    built = []
    from_classes = Partition.from_classes

    def counting(n_games, classes):
        built.append(1)
        return from_classes(n_games, classes)

    monkeypatch.setattr(beauty, "abee_actions", refuse)
    monkeypatch.setattr(Partition, "from_classes", staticmethod(counting))
    found = self_consistent_contiguous(uniform_spec(0.01, 60, 3), 3)
    assert len(built) == len(found) == 1
    monkeypatch.undo()
    assert found == [equal_split_partition(60, 3)]


def _loop_contiguous_dispersion(values, weights, n_classes):
    """Reference: the O(K n^2) loop over split points, with the same float
    operations as the vectorized DP."""
    n = len(values)
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wv = np.concatenate([[0.0], np.cumsum(weights * values)])
    wv2 = np.concatenate([[0.0], np.cumsum(weights * values**2)])

    def seg_cost(i, j):  # points i..j-1
        mass = w[j] - w[i]
        if mass <= 0:
            return np.inf
        s, s2 = wv[j] - wv[i], wv2[j] - wv2[i]
        return s2 - s * s / mass

    dp = np.full((n_classes + 1, n + 1), np.inf)
    dp[0, 0] = 0.0
    for k in range(1, n_classes + 1):
        for j in range(k, n + 1):
            best = np.inf
            for i in range(k - 1, j):
                v = dp[k - 1, i] + seg_cost(i, j)
                if v < best:
                    best = v
            dp[k, j] = best
    return float(dp[n_classes, n])


def test_contiguous_dispersion_matches_loop_and_brute_force(rng):
    for _ in range(40):
        n = int(rng.integers(1, 13))
        values = rng.normal(size=n)
        weights = rng.uniform(0.05, 1.0, size=n)
        weights /= weights.sum()
        for k in range(1, n + 2):
            best = _best_path(_segment_costs(values, weights, _mass_table(weights)), k)
            assert best == _loop_contiguous_dispersion(values, weights, k)
            if k <= n:
                masks = np.array([[sum(1 << g for g in c) for c in p.classes] for p in contiguous_partitions(n, k)])
                brute = partition_dispersions(subset_table(values[:, None], weights, L2), masks).min()
                assert best == pytest.approx(brute, abs=1e-12)


def test_contiguous_dispersion_edge_cases(rng):
    n = 9
    values = rng.normal(size=n)
    weights = rng.uniform(0.05, 1.0, size=n)
    weights /= weights.sum()
    total = weights @ (values - weights @ values) ** 2
    assert _best_path(_segment_costs(values, weights, _mass_table(weights)), 1) == pytest.approx(total, abs=1e-12)
    assert _best_path(_segment_costs(values, weights, _mass_table(weights)), n) == pytest.approx(0.0, abs=1e-12)
    assert _best_path(_segment_costs(values, weights, _mass_table(weights)), n + 1) == np.inf


def test_contiguous_partition_count():
    """The sweep's edge blocks hold the interval partitions, in the order of
    the reference enumeration and at most BLOCK to a block."""
    assert sum(1 for _ in contiguous_partitions(6, 3)) == 10  # C(5, 2)
    for n, k in ((6, 3), (40, 3), (7, 1), (7, 7), (7, 8)):
        blocks = list(beauty._edge_blocks(n, k))
        assert all(0 < len(b) <= beauty.BLOCK for b in blocks)
        assert [beauty._interval_partition(n, row) for b in blocks for row in b] == list(contiguous_partitions(n, k))


def test_generic_clustered_verification_on_tensor_game():
    """Dual route: the mean-based sustainability check agrees with the
    generic clustered-equilibrium verifier run on the literal finite game
    (mean-difference divergence over the action grid)."""
    import numpy as np

    from cabee.abee import StrategyProfile, degenerate_pair
    from cabee.clustering import mean_divergence
    from cabee.equilibrium import EquilibriumCandidate, cd_abee_verify

    n = 12
    part = Partition.from_classes(n, [tuple(range(4)), tuple(range(4, 12))])
    env_actions = np.array([(k + 0.5) / n for k in range(n)])
    for r, expected in ((0.9, True), (0.05, False)):
        spec = uniform_spec(r, n, 2)
        adapter_ok, _ = beauty_cabee_check(spec, part)
        assert adapter_ok is expected or bool(adapter_ok) == expected
        env = discretize_beauty(spec)
        chosen, _, gain = discrete_abee(spec, part)
        assert gain <= 1e-12
        idx = np.rint(chosen * n - 0.5).astype(int)
        strat = np.zeros((n, n))
        strat[np.arange(n), idx] = 1.0
        prof = StrategyProfile(plays=({part: strat}, {part: strat.copy()}))
        cand = EquilibriumCandidate(
            degenerate_pair(part, part),
            prof,
            "local",
            mean_divergence(env_actions),
        )
        report = cd_abee_verify(env, cand, capacities=(2, 2))
        # the grid equilibrium may sit within a cell of the closed form, so
        # compare the clustering verdicts only when the margin is clear
        assert report.ok == expected
