import numpy as np
import pytest

from cabee.abee import (
    PartitionDistribution,
    StrategyProfile,
    abee_solve,
    abee_verify,
    aggregate,
    analogy_best_response,
    best_replies,
    consistent_expectation,
    degenerate_pair,
    dist_abee_solve,
    dist_abee_verify,
    expected_payoffs,
)
from cabee.env import make_environment, nash_solve_2x2, pure_payoffs_against
from cabee.partitions import Partition
from conftest import dominant_env, matching_pennies_env


def pure(*rows):
    return np.array([[1.0, 0.0] if r == 0 else [0.0, 1.0] for r in rows])


# ---------------------------------------------------------------------------
# consistency and aggregation
# ---------------------------------------------------------------------------


def test_consistent_expectation_symmetry(mp_env):
    agg = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    part = Partition.from_classes(3, [(0, 1), (2,)])
    beta = consistent_expectation(mp_env, part, agg)
    np.testing.assert_allclose(beta[0], [0.5, 0.5])
    np.testing.assert_allclose(beta[1], [0.3, 0.7])


def test_consistent_expectation_singletons_identity(mp_env, finest3, rng):
    agg = rng.dirichlet(np.ones(2), size=3)
    beta = consistent_expectation(mp_env, finest3, agg)
    np.testing.assert_allclose(beta, agg)


def test_consistency_is_linear(mp_env, rng):
    part = Partition.from_classes(3, [(0, 2), (1,)])
    a1 = rng.dirichlet(np.ones(2), size=3)
    a2 = rng.dirichlet(np.ones(2), size=3)
    lam = 0.37
    mixed = consistent_expectation(mp_env, part, lam * a1 + (1 - lam) * a2)
    np.testing.assert_allclose(
        mixed,
        lam * consistent_expectation(mp_env, part, a1)
        + (1 - lam) * consistent_expectation(mp_env, part, a2),
        atol=1e-14,
    )


def test_abee_expectation_matches_structure():
    # bundling the two low-stake games, equilibrium play pins the bundled
    # expectation at the low game's indifference point
    env = matching_pennies_env(0.5, 1.0, 1.5)
    part = Partition.from_classes(3, [(0, 1), (2,)])
    (profile,) = abee_solve(env, (part, Partition.finest(3)))
    beta = consistent_expectation(env, part, profile.single(1))
    assert beta[0][0] == pytest.approx(1 / 2.5, abs=1e-12)


def test_aggregate_degenerate_identity(mp_env, finest3, rng):
    strat = rng.dirichlet(np.ones(2), size=3)
    prof = StrategyProfile(plays=({finest3: strat}, {finest3: strat}))
    aggs = aggregate(prof, degenerate_pair(finest3, finest3))
    np.testing.assert_allclose(aggs[0], strat)


def test_aggregate_even_mixture():
    an_a = Partition.from_classes(3, [(0,), (1, 2)])
    an_c = Partition.from_classes(3, [(2,), (0, 1)])
    fin = Partition.finest(3)
    prof = StrategyProfile(
        plays=(
            {an_a: pure(0, 0, 0), an_c: pure(1, 1, 1)},
            {fin: pure(0, 0, 0)},
        )
    )
    lams = (PartitionDistribution((an_a, an_c), (0.5, 0.5)), PartitionDistribution.degenerate(fin))
    aggs = aggregate(prof, lams)
    np.testing.assert_allclose(aggs[0][1], [0.5, 0.5])


def test_aggregate_of_identical_plays(mp_env, rng):
    an_a = Partition.from_classes(3, [(0,), (1, 2)])
    an_c = Partition.from_classes(3, [(2,), (0, 1)])
    strat = rng.dirichlet(np.ones(2), size=3)
    fin = Partition.finest(3)
    for w in (0.2, 0.9):
        lams = (
            PartitionDistribution((an_a, an_c), (w, 1 - w)),
            PartitionDistribution.degenerate(fin),
        )
        prof = StrategyProfile(plays=({an_a: strat, an_c: strat}, {fin: strat}))
        np.testing.assert_allclose(aggregate(prof, lams)[0], strat)


def test_aggregate_missing_entry_raises(mp_env, finest3):
    an_a = Partition.from_classes(3, [(0,), (1, 2)])
    prof = StrategyProfile(plays=({finest3: pure(0, 0, 0)}, {finest3: pure(0, 0, 0)}))
    lams = (PartitionDistribution.degenerate(an_a), PartitionDistribution.degenerate(finest3))
    with pytest.raises(KeyError):
        aggregate(prof, lams)


# ---------------------------------------------------------------------------
# best replies
# ---------------------------------------------------------------------------


def test_best_response_strict_above_threshold(mp_env):
    # x = 1: indifference at L-probability 1/3, so 0.4 favors the match
    replies, indiff = analogy_best_response(mp_env, 0, 1, [0.4, 0.6])
    assert replies == (0,) and not indiff


def test_best_response_indifference(mp_env):
    replies, indiff = analogy_best_response(mp_env, 0, 1, [1 / 3, 2 / 3])
    assert replies == (0, 1) and indiff


def test_best_response_dominant():
    env = dominant_env()
    replies, indiff = analogy_best_response(env, 0, 0, [0.5, 0.5])
    assert replies == (0,) and not indiff


def random_kernel_cases(rng, count=40):
    """Random environments (2-4 actions per player, some payoff ties), a
    random partition and random class expectations of the opponent."""
    for _ in range(count):
        n_games = int(rng.integers(1, 6))
        n0, n1 = (int(k) for k in rng.integers(2, 5, size=2))
        # small integer payoffs against pure or uniform expectations tie often
        if rng.random() < 0.5:
            draw = rng.integers(0, 3, size=(n0, n1, n_games))
        else:
            draw = rng.normal(size=(n0, n1, n_games))
        env = make_environment(np.full(n_games, 1 / n_games), draw, rng.normal(size=(n1, n0, n_games)))
        part = Partition.from_assignment(rng.integers(0, 3, size=n_games))
        kind = rng.integers(3)
        if kind == 0:
            beta = rng.dirichlet(np.ones(n1), size=part.n_classes)
        elif kind == 1:
            beta = np.eye(n1)[rng.integers(0, n1, size=part.n_classes)]
        else:
            beta = np.full((part.n_classes, n1), 1 / n1)
        yield env, part, beta


def test_expected_payoffs_match_pure_payoffs_against(rng):
    for env, part, beta in random_kernel_cases(rng):
        per_game = beta[list(part.assignment())]
        ref = np.stack(
            [pure_payoffs_against(env, 0, g, beta[part.class_of(g)]) for g in range(env.n_games)]
        )
        np.testing.assert_allclose(expected_payoffs(env, 0, per_game), ref, atol=1e-12)
        # a leading batch axis evaluates each expectation set on its own
        batch = np.stack([per_game, per_game[::-1], np.roll(per_game, 1, axis=1)])
        batched = expected_payoffs(env, 0, batch)
        for b in range(len(batch)):
            np.testing.assert_allclose(batched[b], expected_payoffs(env, 0, batch[b]), atol=1e-12)


def test_best_replies_support_is_analogy_best_response(rng):
    ties = 0
    for env, part, beta in random_kernel_cases(rng):
        mix = best_replies(expected_payoffs(env, 0, beta[list(part.assignment())]), 1e-9)
        for g in range(env.n_games):
            replies, indiff = analogy_best_response(env, 0, g, beta[part.class_of(g)], tol=1e-9)
            assert tuple(np.flatnonzero(mix[g] > 0)) == replies
            np.testing.assert_allclose(mix[g, list(replies)], 1 / len(replies))
            ties += indiff
    assert ties >= 5  # the tie handling is exercised, not only strict replies


def test_best_replies_keep_the_incumbent_exactly_within_tol(rng):
    pays = np.array([[1.0, 1.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    incumbent = np.array([[0.0, 1.0, 0.0], [0.75, 0.25, 0.0], [0.5, 0.5, 0.0]])
    out = best_replies(pays, 0.25, incumbent)
    np.testing.assert_array_equal(out[0], incumbent[0])  # all mass on replies
    np.testing.assert_array_equal(out[1], incumbent[1])  # off-reply mass 0.25 = tol
    np.testing.assert_array_equal(out[2], [1.0, 0.0, 0.0])  # 0.5 > tol: best reply
    for _ in range(50):
        pays = rng.integers(0, 3, size=(5, 3)).astype(float)
        incumbent = rng.dirichlet(np.full(3, 0.3), size=5)
        tol = float(rng.choice([1e-9, 0.1, 0.4]))
        out = best_replies(pays, tol, incumbent)
        fresh = best_replies(pays, tol)
        for g in range(5):
            off = incumbent[g][fresh[g] == 0].sum()
            np.testing.assert_array_equal(out[g], incumbent[g] if off <= tol else fresh[g])


def test_dist_verify_witness_is_first_in_class_major_order():
    # games 1 and 2 are identical and tie for the worst gain (1); under
    # {0,2 | 1} the class-major order is 0, 2, 1, so game 2 is reported
    own = np.zeros((2, 2, 3))
    own[0] = 1.0  # action 0 strictly dominant in every game
    env = make_environment([0.2, 0.3, 0.5], own, np.zeros((2, 2, 3)))
    part = Partition.from_classes(3, [(0, 2), (1,)])
    fin = Partition.finest(3)
    prof = StrategyProfile(plays=({part: pure(0, 1, 1)}, {fin: pure(0, 0, 0)}))
    ok, gain, witness = dist_abee_verify(env, degenerate_pair(part, fin), prof)
    assert not ok and gain == 1.0
    assert witness == (0, part, 2)


# ---------------------------------------------------------------------------
# solving and verification
# ---------------------------------------------------------------------------


def test_finest_partitions_reproduce_nash(mp_env, finest3):
    profiles = abee_solve(mp_env, (finest3, finest3))
    assert len(profiles) == 1
    prof = profiles[0]
    for g in range(3):
        row_ref, col_ref = nash_solve_2x2(mp_env, g)
        np.testing.assert_allclose(prof.single(0)[g], row_ref, atol=1e-9)
        np.testing.assert_allclose(prof.single(1)[g], col_ref, atol=1e-9)


def test_two_class_bundle_structure():
    env = matching_pennies_env(0.5, 1.0, 1.5)
    part = Partition.from_classes(3, [(0, 1), (2,)])
    (prof,) = abee_solve(env, (part, Partition.finest(3)))
    col = prof.single(1)[:, 0]
    row = prof.single(0)[:, 0]
    np.testing.assert_allclose(col, [2 / 2.5, 0.0, 1 / 3.5], atol=1e-9)
    np.testing.assert_allclose(row, [0.5, 1.0, 0.5], atol=1e-9)


def test_solver_output_round_trips(mp_env, finest3):
    for part in (Partition.from_classes(3, [(0, 1), (2,)]), finest3):
        for prof in abee_solve(mp_env, (part, finest3)):
            ok, gain, _ = abee_verify(mp_env, (part, finest3), prof)
            assert ok and gain <= 1e-9


def test_nash_under_coarse_partition_fails(mp_env, finest3):
    coarse = Partition.coarsest(3)
    rows = np.stack([nash_solve_2x2(mp_env, g)[0] for g in range(3)])
    cols = np.stack([nash_solve_2x2(mp_env, g)[1] for g in range(3)])
    prof = StrategyProfile(plays=({coarse: rows}, {finest3: cols}))
    ok, gain, witness = abee_verify(mp_env, (coarse, finest3), prof)
    assert not ok and gain > 1e-6
    assert witness[0] == 0  # the pooled row player is the one who deviates


def test_dominant_profile_verifies_under_any_partitions():
    env = dominant_env()
    for part in (Partition.coarsest(3), Partition.from_classes(3, [(0, 2), (1,)])):
        prof = StrategyProfile(plays=({part: pure(0, 0, 0)}, {Partition.finest(3): pure(0, 0, 0)}))
        ok, gain, _ = abee_verify(env, (part, Partition.finest(3)), prof)
        assert ok and gain <= 1e-12


def test_singleton_partitions_give_epsilon_nash(rng, finest3):
    """With singleton classes any verified profile is a per-game
    equilibrium (checked by pure-deviation scan)."""
    for _ in range(10):
        pr = rng.normal(size=(2, 2, 3))
        pc = rng.normal(size=(2, 2, 3))
        env = make_environment([1 / 3] * 3, pr, pc)
        for prof in abee_solve(env, (finest3, finest3)):
            for g in range(3):
                for player in (0, 1):
                    own = prof.single(player)[g]
                    other = prof.single(1 - player)[g]
                    pays = env.payoff_slice(player, g) @ other
                    assert pays.max() - own @ pays <= 1e-9


def test_row_mixes_in_at_most_one_bundled_game(rng):
    """In every verified equilibrium with one bundled pair, the row player
    mixes in at most one game of the bundle."""
    from cabee.partitions import partition_list

    vals = sorted(rng.uniform(0.05, 1.95, size=3))
    env = matching_pennies_env(*vals)
    fin = Partition.finest(3)
    for part in (p for p in partition_list(3, 2) if p.n_classes == 2):
        bundle = max(part.classes, key=len)
        for prof in abee_solve(env, (part, fin)):
            interior = sum(1e-9 < prof.single(0)[g, 0] < 1 - 1e-9 for g in bundle)
            assert interior <= 1


def test_dist_degenerate_coincides_with_fixed_partition(mp_env, finest3):
    part = Partition.from_classes(3, [(0, 1), (2,)])
    lams = degenerate_pair(part, finest3)
    got = dist_abee_solve(mp_env, lams)
    ref = abee_solve(mp_env, (part, finest3))
    assert len(got) == len(ref) == 1
    np.testing.assert_allclose(got[0].single(1), ref[0].single(1), atol=1e-12)


def test_degenerate_payoffs_yield_a_verified_profile(finest3):
    # zero payoffs leave every game indifferent at every expectation; the
    # solver still returns a verified profile (any play is optimal)
    env = make_environment([1 / 3] * 3, np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))
    profiles = abee_solve(env, (Partition.coarsest(3), finest3))
    assert profiles
    ok, gain, _ = abee_verify(env, (Partition.coarsest(3), finest3), profiles[0])
    assert ok and gain == 0.0


def test_enumeration_contains_iteration_fixed_points(rng, finest3):
    """Dual route: every verified profile the damped best-reply iteration
    reaches on a random environment is also produced by the exact
    support-enumeration path (which is complete for binary actions)."""
    from cabee.abee import SolveConfig, _damped_iteration

    coarse = Partition.coarsest(3)
    checked = 0
    for _ in range(12):
        env = make_environment(
            [0.2, 0.3, 0.5], rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 3))
        )
        lams = degenerate_pair(coarse, finest3)
        exact = abee_solve(env, (coarse, finest3))
        # convergent starts settle long before this cap; divergent ones spin
        cfg = SolveConfig(seed=3, n_starts=6, max_iterations=2000)
        iterated = _damped_iteration(env, lams, cfg)
        for prof in iterated:
            checked += 1
            flat = np.concatenate([prof.plays[p][lams[p].support[0]].ravel() for p in (0, 1)])
            assert any(
                np.allclose(
                    flat,
                    np.concatenate(
                        [ex.plays[p][lams[p].support[0]].ravel() for p in (0, 1)]
                    ),
                    atol=1e-6,
                )
                for ex in exact
            )
    assert checked >= 8


def test_dist_verify_flags_deviation(mp_env, finest3):
    an_a = Partition.from_classes(3, [(0,), (1, 2)])
    an_c = Partition.from_classes(3, [(2,), (0, 1)])
    lams = (
        PartitionDistribution((an_a, an_c), (0.5, 0.5)),
        PartitionDistribution.degenerate(finest3),
    )
    bad = StrategyProfile(
        plays=(
            {an_a: pure(0, 0, 0), an_c: pure(0, 0, 0)},
            {finest3: pure(0, 0, 0)},
        )
    )
    ok, gain, _ = dist_abee_verify(mp_env, lams, bad)
    assert not ok and gain > 0
