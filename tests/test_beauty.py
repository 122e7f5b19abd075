import numpy as np
import pytest

from cabee.abee import abee_solve, abee_verify
from cabee.clustering import L2, _batched_dispersions
from cabee.partitions import Partition
from cabee.applications.beauty import (
    BeautyContestSpec,
    abee_actions,
    beauty_cabee_check,
    best_contiguous_dispersion,
    best_reply,
    class_means,
    contiguity_is_sufficient,
    contiguous_partitions,
    discrete_abee,
    discretize_beauty,
    equal_split_partition,
    self_consistent_contiguous,
    uniform_spec,
)


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
            best = best_contiguous_dispersion(values, weights, k)
            assert best == _loop_contiguous_dispersion(values, weights, k)
            if k <= n:
                labels = np.array([p.assignment() for p in contiguous_partitions(n, k)])
                brute = _batched_dispersions(values[:, None], weights, labels, L2).min()
                assert best == pytest.approx(brute, abs=1e-12)


def test_contiguous_dispersion_edge_cases(rng):
    n = 9
    values = rng.normal(size=n)
    weights = rng.uniform(0.05, 1.0, size=n)
    weights /= weights.sum()
    total = weights @ (values - weights @ values) ** 2
    assert best_contiguous_dispersion(values, weights, 1) == pytest.approx(total, abs=1e-12)
    assert best_contiguous_dispersion(values, weights, n) == pytest.approx(0.0, abs=1e-12)
    assert best_contiguous_dispersion(values, weights, n + 1) == np.inf


def test_contiguous_partition_count():
    assert sum(1 for _ in contiguous_partitions(6, 3)) == 10  # C(5, 2)


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
