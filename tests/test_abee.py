import functools
import itertools
import operator

import numpy as np
import pytest

from cabee.abee import (
    DEDUP_TOL,
    EQ_TOL,
    PartitionDistribution,
    SolveResult,
    StrategyProfile,
    _damped_iteration,
    _regimes_of,
    _reshaped,
    _side_regimes,
    _thresholds,
    abee_solve,
    aggregate,
    best_replies,
    degenerate_pair,
    dist_abee_solve_detailed,
    dist_abee_solve_runs,
    dist_abee_verify,
    dist_abee_verify_batch,
    expected_payoffs,
    mixture,
    unstack_plays,
)
from cabee import abee
from cabee.clustering import class_prototypes
from cabee.env import SOLVER_TOL, make_environment, nash_solve_2x2, pure_payoffs_against
from cabee.numeric import sum_left
from cabee.partitions import Partition
from conftest import (
    abee_verify,
    analogy_best_response,
    class_of,
    dominant_env,
    matching_pennies_env,
    patch_solver,
    solved_profile,
)


def _item_regimes(env, lams, player):
    """One player's regimes of one (environment, support) item."""
    return _regimes_of([(env, lams)])[0][player]


def pure(*rows):
    return np.array([[1.0, 0.0] if r == 0 else [0.0, 1.0] for r in rows])


# ---------------------------------------------------------------------------
# consistency and aggregation
# ---------------------------------------------------------------------------


def test_consistent_expectation_symmetry(mp_env):
    agg = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    part = Partition.from_classes(3, [(0, 1), (2,)])
    beta = class_prototypes(agg, part, mp_env.prior)
    np.testing.assert_allclose(beta[0], [0.5, 0.5])
    np.testing.assert_allclose(beta[1], [0.3, 0.7])


def test_consistent_expectation_singletons_identity(mp_env, finest3, rng):
    agg = rng.dirichlet(np.ones(2), size=3)
    beta = class_prototypes(agg, finest3, mp_env.prior)
    np.testing.assert_allclose(beta, agg)


def test_consistency_is_linear(mp_env, rng):
    part = Partition.from_classes(3, [(0, 2), (1,)])
    a1 = rng.dirichlet(np.ones(2), size=3)
    a2 = rng.dirichlet(np.ones(2), size=3)
    lam = 0.37
    mixed = class_prototypes(lam * a1 + (1 - lam) * a2, part, mp_env.prior)
    np.testing.assert_allclose(
        mixed,
        lam * class_prototypes(a1, part, mp_env.prior)
        + (1 - lam) * class_prototypes(a2, part, mp_env.prior),
        atol=1e-14,
    )


def test_abee_expectation_matches_structure():
    # bundling the two low-stake games, equilibrium play pins the bundled
    # expectation at the low game's indifference point
    env = matching_pennies_env(0.5, 1.0, 1.5)
    part = Partition.from_classes(3, [(0, 1), (2,)])
    (profile,) = abee_solve(env, (part, Partition.finest(3)))
    beta = class_prototypes(profile.single(1), part, env.prior)
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
            [pure_payoffs_against(env, 0, g, beta[class_of(part, g)]) for g in range(env.n_games)]
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
            replies, indiff = analogy_best_response(env, 0, g, beta[class_of(part, g)], tol=1e-9)
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
    res = dist_abee_solve_detailed(mp_env, lams)
    ref = abee_solve(mp_env, (part, finest3))
    assert len(res.profiles) == len(ref) == 1
    np.testing.assert_allclose(solved_profile(res, lams, 0).single(1), ref[0].single(1), atol=1e-12)


def test_degenerate_payoffs_yield_a_verified_profile(finest3):
    # zero payoffs leave every game indifferent at every expectation; the
    # solver still returns a verified profile (any play is optimal)
    env = make_environment([1 / 3] * 3, np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))
    profiles = abee_solve(env, (Partition.coarsest(3), finest3))
    assert profiles
    ok, gain, _ = abee_verify(env, (Partition.coarsest(3), finest3), profiles[0])
    assert ok and gain == 0.0


def test_enumeration_contains_iteration_fixed_points(monkeypatch, rng, finest3):
    """Dual route: every verified profile the damped best-reply iteration
    reaches on a random environment is also produced by the exact
    support-enumeration path (which is complete for binary actions)."""
    coarse = Partition.coarsest(3)
    checked = 0
    # convergent starts settle long before this cap; divergent ones spin
    patch_solver(monkeypatch, damped_seed=3, damped_starts=6, damped_steps=2000)
    for _ in range(12):
        env = make_environment(
            [0.2, 0.3, 0.5], rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 3))
        )
        lams = degenerate_pair(coarse, finest3)
        exact = abee_solve(env, (coarse, finest3))
        iterated = _damped_iteration(env, lams)
        for n in range(len(iterated.profiles)):
            prof = solved_profile(iterated, lams, n)
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


# ---------------------------------------------------------------------------
# batched verification against the per-profile reference
# ---------------------------------------------------------------------------
#
# The references are the previous per-class and per-profile forms; the
# batched kernel must reproduce their verdicts, gains and witnesses exactly.


def _loop_consistent_expectation(env, partition, opponent_aggregate):
    agg = np.asarray(opponent_aggregate, dtype=float)
    rows = []
    for cls in partition.classes:
        idx = list(cls)
        w = env.prior[idx]
        rows.append(w @ agg[idx] / w.sum())
    return np.stack(rows)


def _loop_dist_abee_verify(env, lams, profile, tol=SOLVER_TOL):
    aggs = []
    for player in (0, 1):
        acc = None
        for part, w in zip(lams[player].partitions, lams[player].weights):
            strat = np.asarray(profile.plays[player][part], dtype=float)
            acc = w * strat if acc is None else acc + w * strat
        aggs.append(acc)
    worst = 0.0
    witness = None
    for player in (0, 1):
        opp = aggs[1 - player]
        for part in lams[player].support:
            beta = _loop_consistent_expectation(env, part, opp)
            pays = expected_payoffs(env, player, beta[list(part.assignment())])
            order = list(itertools.chain.from_iterable(part.classes))
            gains = (pays.max(axis=1) - (profile.plays[player][part] * pays).sum(axis=1))[order]
            top = int(gains.argmax())
            if gains[top] > worst:
                worst = float(gains[top])
                witness = (player, part, order[top])
    return worst <= tol, worst, witness


def _verify_batch_case(rng, case):
    """A random environment with binary or three actions, a support pair with
    one or two partitions per player, and a batch of profiles: random mixes,
    pure rows, the solver's equilibria on binary games, and on every third
    case games that are copies of one another, so that gains tie."""
    from cabee.partitions import partition_list

    n_games, n_act = int(rng.integers(1, 5)), (2, 3)[case % 2]
    payoffs = [rng.integers(-2, 3, size=(n_act, n_act, n_games)).astype(float) for _ in (0, 1)]
    if case % 3 == 2:
        payoffs = [np.repeat(u[:, :, :1], n_games, axis=2) for u in payoffs]
    env = make_environment(rng.dirichlet(np.ones(n_games)), *payoffs)
    parts = list(partition_list(n_games, n_games))
    if n_games == 1:
        lams = degenerate_pair(parts[0], parts[0])
    else:
        lams = (_random_support(rng, parts), _random_support(rng, parts))
    plays = []
    for player in (0, 1):
        shape = (6, len(lams[player].support), n_games)
        mixes = rng.dirichlet(np.ones(n_act), size=shape)
        pure_rows = np.eye(n_act)[rng.integers(0, n_act, size=shape)]
        batch = np.where(rng.random(shape)[..., None] < 0.5, pure_rows, mixes)
        if case % 3 == 2:
            batch = np.repeat(batch[:, :, :1], n_games, axis=2)
        plays.append(batch)
    if n_act == 2:
        res = dist_abee_solve_detailed(env, lams)
        solved = res.plays(res.profiles)
        plays = [np.concatenate([plays[pl], solved[pl]]) for pl in (0, 1)]
    return env, lams, (plays[0], plays[1])


def test_batched_verify_matches_per_profile_reference(rng):
    verdicts, shapes, witnessed = set(), set(), 0
    for case in range(60):
        env, lams, plays = _verify_batch_case(rng, case)
        supports = (lams[0].support, lams[1].support)
        ok, worst, witnesses = dist_abee_verify_batch(env, lams, plays)
        for b in range(len(plays[0])):
            profile = unstack_plays(supports, (plays[0][b], plays[1][b]))
            ref = _loop_dist_abee_verify(env, lams, profile)
            assert (bool(ok[b]), worst[b], witnesses[b]) == ref, (case, b)
            assert dist_abee_verify(env, lams, profile) == ref
            verdicts.add(ref[0])
            witnessed += ref[2] is not None
        shapes.add(tuple(len(s) for s in supports))
        for player in (0, 1):
            agg = plays[1 - player][:, 0]
            for part in supports[player]:
                batched = class_prototypes(agg, part, env.prior)
                # the same batch held game- and action-major, as model 1 holds its draws
                game_major = np.ascontiguousarray(agg.transpose(1, 2, 0)).transpose(2, 0, 1)
                game_major = class_prototypes(game_major, part, env.prior)
                for b in range(len(agg)):
                    ref_beta = _loop_consistent_expectation(env, part, agg[b])
                    assert batched[b].tobytes() == ref_beta.tobytes()
                    assert game_major[b].tobytes() == ref_beta.tobytes()
                    assert class_prototypes(agg[b], part, env.prior).tobytes() == ref_beta.tobytes()
    assert verdicts == {True, False} and witnessed
    assert shapes >= {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_verify_batch_takes_one_environment_per_row():
    """Profiles of three stake triples on one support, interleaved and some
    perturbed so that they fail, checked in one call with one environment
    per row: each row gets the ok, worst gain and witness of one call per
    environment.  Environments whose priors differ are refused, as
    `equilibrium.unclustered` refuses them."""
    from cabee.applications.matching_pennies import (
        MatchingPenniesSpec,
        build_matching_pennies,
        two_class_row_partitions,
    )

    rng = np.random.default_rng(25)
    envs = [build_matching_pennies(MatchingPenniesSpec(*stakes))
            for stakes in ((0.5, 1.0, 1.5), (0.2, 0.4, 1.8), (0.3, 1.1, 1.2))]
    lams = degenerate_pair(two_class_row_partitions()[1], Partition.finest(3))
    row_envs, rows = [], []
    for env in envs:
        res = dist_abee_solve_detailed(env, lams)
        for x in res.profiles:
            for flip in (None, 0, 1, 2):
                plays = tuple(p.copy() for p in res.plays(x))
                if flip is not None:  # the other pure action, or the swapped mix, in one game
                    plays[flip % 2][0, flip] = plays[flip % 2][0, flip, ::-1]
                row_envs.append(env)
                rows.append(plays)
    order = rng.permutation(len(rows))
    row_envs = [row_envs[i] for i in order]
    plays = tuple(np.stack([rows[i][p] for i in order]) for p in (0, 1))
    ok, worst, witnesses = dist_abee_verify_batch(row_envs, lams, plays)
    assert ok.any() and not ok.all()
    for env in envs:
        at = [i for i, e in enumerate(row_envs) if e is env]
        ref_ok, ref_worst, ref_witnesses = dist_abee_verify_batch(env, lams, tuple(p[at] for p in plays))
        assert ok[at].tolist() == ref_ok.tolist()
        assert worst[at].tobytes() == ref_worst.tobytes()
        assert [witnesses[i] for i in at] == ref_witnesses
    skewed = make_environment([0.5, 0.25, 0.25], envs[0].payoffs[0], envs[0].payoffs[1])
    with pytest.raises(ValueError, match="different priors"):
        dist_abee_verify_batch([skewed] + row_envs[1:], lams, plays)


def test_verify_batch_takes_one_support_per_row():
    """Profiles and family points of six supports of one shape (the row
    mixing two partitions with different weights against each column
    partition), interleaved and some perturbed so that they fail, checked
    in one call with one support per row (`RowSupports`): each row gets the
    ok, worst gain and witness of one call per support."""
    from cabee.partitions import partition_list

    rng = np.random.default_rng(31)
    env = matching_pennies_env(0.5, 1.0, 1.5)
    rows2, fin = partition_list(3, 2), Partition.finest(3)
    mixes = [PartitionDistribution((rows2[i], rows2[j]), (w, round(1 - w, 12)))
             for i, j, w in ((1, 2, 0.5), (0, 3, 0.3), (1, 3, 0.7))]
    pairs = [(mix, PartitionDistribution.degenerate(col)) for mix in mixes for col in (fin, Partition.coarsest(3))]
    owner, rows = [], []
    for k, lams in enumerate(pairs):
        res = dist_abee_solve_detailed(env, lams)
        points = list(res.profiles) + [base + t * step for (base, step), span in zip(res.continua[:4], res.spans[:4])
                                       for t in span.tolist()]
        for x in points:
            plays = tuple(p.copy() for p in res.plays(x))
            if rng.random() < 0.3:
                plays[0][0, 0] = plays[0][0, 0, ::-1]
            owner.append(k)
            rows.append(plays)
    order = rng.permutation(len(rows))
    owner = np.array(owner)[order]
    plays = tuple(np.stack([rows[i][p] for i in order]) for p in (0, 1))
    ok, worst, witnesses = dist_abee_verify_batch(env, abee.RowSupports(pairs, owner), plays)
    assert ok.any() and not ok.all() and len(set(owner.tolist())) == len(pairs)
    for k, lams in enumerate(pairs):
        at = np.flatnonzero(owner == k)
        ref_ok, ref_worst, ref_witnesses = dist_abee_verify_batch(env, lams, tuple(p[at] for p in plays))
        assert ok[at].tolist() == ref_ok.tolist()
        assert worst[at].tobytes() == ref_worst.tobytes()
        assert [witnesses[i] for i in at] == ref_witnesses


def test_list_indices_are_positions_in_the_partition_list():
    """`RowSupports.list_indices` gives each row's support partition `slot`
    its position in `partition_list(n_games, cap)`, or -1 when it has more
    than cap classes: 40 rows owned by 12 pairs at 5 games, the row player
    mixing two partitions of 1 to 5 classes, at every capacity."""
    from cabee.partitions import partition_list

    rng = np.random.default_rng(17)
    n = 5

    def draw():
        return Partition.from_assignment(rng.integers(0, rng.integers(1, n + 1), size=n))

    pairs = []
    while len(pairs) < 12:
        a, b = draw(), draw()
        if a != b:
            pairs.append((PartitionDistribution((a, b), (0.5, 0.5)), PartitionDistribution.degenerate(draw())))
    owner = rng.integers(0, len(pairs), size=40)
    rows = abee.RowSupports(pairs, owner)
    over = 0
    for cap in range(1, n + 1):
        position = {part: i for i, part in enumerate(partition_list(n, cap))}
        for player, slot in ((0, 0), (0, 1), (1, 0)):
            want = [position.get(pairs[o][player].support[slot], -1) for o in owner.tolist()]
            assert rows.list_indices(player, slot, cap).tolist() == want
            over += want.count(-1)
    assert 0 < over < 3 * len(owner) * n


# ---------------------------------------------------------------------------
# support enumeration against the per-pair scalar reference
# ---------------------------------------------------------------------------
#
# The scalar enumeration below is the solver's previous form: one Gaussian
# elimination per (own regime, opponent regime) pair, in a c0 x c1 loop.
# The array enumeration must reproduce it bit for bit.


def _loop_gauss_solve(rows, rhs, n_vars):
    m = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n_vars):
        piv = None
        best = 1e-11
        for i in range(r, m):
            if abs(a[i][c]) > best:
                best = abs(a[i][c])
                piv = i
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][c]
        a[r] = [v / scale for v in a[r]]
        for i in range(m):
            if i != r and abs(a[i][c]) > 1e-14:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if abs(a[i][n_vars]) > EQ_TOL:
            return None, None, False
    free_cols = [c for c in range(n_vars) if c not in piv_cols]
    x = [0.5] * n_vars
    for i, c in enumerate(piv_cols):
        x[c] = a[i][n_vars] - sum(a[i][j] * x[j] for j in free_cols)
    return x, (free_cols, [a[i] for i in range(len(piv_cols))], piv_cols), True


def _threshold_info(env, player, game):
    """Indifference threshold of a binary-action game in the opponent's
    action-0 probability q, one game at a time: the scalar reference of
    `abee._thresholds`.

    Returns (kind, t, action_above, action_below):
      kind 'threshold' with t in [0,1]; 'constant' with the strict action in
      t; or 'free' when the player is indifferent at every q.
    """
    u = env.payoff_slice(player, game)
    g = u[0, 1] - u[1, 1]
    h = (u[0, 0] - u[1, 0]) - g
    if abs(h) < 1e-14:
        if abs(g) < 1e-14:
            return ("free", None, None, None)
        return ("constant", 0 if g > 0 else 1, None, None)
    t = -g / h
    if t < -1e-12 or t > 1 + 1e-12:
        mid = 0.5
        return ("constant", 0 if g + h * mid > 0 else 1, None, None)
    # action optimal above/below the threshold
    above = 0 if h > 0 else 1
    return ("threshold", min(max(t, 0.0), 1.0), above, 1 - above)


def _class_positions(env, player, cls):
    """Candidate placements of one class expectation, one class at a time:
    the scalar reference of the positions `abee._side_regimes` builds.

    Each position fixes, per game of the class, either a strict action or
    "indifferent", together with the constraint on the class expectation q:
    an equality (pin at a threshold) or an interval.
    """
    infos = {g: _threshold_info(env, player, g) for g in cls}
    free_games = [g for g in cls if infos[g][0] == "free"]
    consts = {g: infos[g][1] for g in cls if infos[g][0] == "constant"}
    thr_games = [(g, infos[g]) for g in cls if infos[g][0] == "threshold"]
    ts = sorted({round(info[1], 14) for _, info in thr_games})
    positions = []

    def actions_at(q, pin=None):
        acts = dict(consts)
        indiff = list(free_games)
        for g, (_, t, above, below) in thr_games:
            if pin is not None and abs(t - pin) <= 1e-12:
                indiff.append(g)
            elif q > t:
                acts[g] = above
            else:
                acts[g] = below
        return acts, indiff

    edges = [0.0] + ts + [1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-12:
            continue
        mid = (lo + hi) / 2
        acts, indiff = actions_at(mid)
        positions.append(("interval", lo, hi, acts, indiff))
    for t in ts:
        acts, indiff = actions_at(t, pin=t)
        positions.append(("pin", t, t, acts, indiff))
    return positions


def _loop_side_combos(env, lams, player):
    slots = []
    for pi, part in enumerate(lams[player].support):
        for cls in part.classes:
            slots.append((pi, cls, _class_positions(env, player, cls)))
    combos = []
    for choice in itertools.product(*(positions for _, _, positions in slots)):
        fixed, unknowns, pins, intervals = {}, [], [], []
        for (pi, cls, _), (kind, lo, hi, acts, indiff) in zip(slots, choice):
            for g, act in acts.items():
                fixed[(pi, g)] = 1.0 if act == 0 else 0.0
            unknowns.extend((pi, g) for g in indiff)
            if kind == "pin":
                pins.append((pi, cls, lo))
            else:
                intervals.append((pi, cls, lo, hi))
        combos.append((fixed, tuple(sorted(unknowns)), tuple(pins), tuple(intervals)))
    return combos


def _scalar_side_regimes(env, support, player):
    """One player's regime tables built class by class from
    `_class_positions`: (fixed, unknown, pinned, lo, hi, slot_classes) as
    `abee._Regimes` holds them."""
    n_games = env.n_games
    n_vars = len(support) * n_games
    slot_classes, tables = [], []
    for pi, part in enumerate(support):
        for cls in part.classes:
            positions = _class_positions(env, player, cls)
            fixed = np.zeros((len(positions), n_vars))
            unknown = np.zeros((len(positions), n_vars), dtype=bool)
            for k, (_, _, _, acts, indiff) in enumerate(positions):
                for g, act in acts.items():
                    fixed[k, pi * n_games + g] = 1.0 if act == 0 else 0.0
                unknown[k, [pi * n_games + g for g in indiff]] = True
            bounds = np.array([(kind == "pin", lo, hi) for kind, lo, hi, _, _ in positions])
            slot_classes.append(cls)
            tables.append((fixed, unknown, bounds))
    choice = np.indices([len(t[0]) for t in tables]).reshape(len(tables), -1)
    bounds = np.stack([t[2][c] for t, c in zip(tables, choice)], axis=1)
    return (
        sum(t[0][c] for t, c in zip(tables, choice)),
        np.logical_or.reduce([t[1][c] for t, c in zip(tables, choice)]),
        bounds[..., 0] > 0,
        bounds[..., 1],
        bounds[..., 2],
        tuple(slot_classes),
    )

def _loop_solve_block(env, lams, block_player, fixed, unknowns, pins, intervals, prune=True):
    prior = env.prior
    lam_w = lams[block_player].weights
    u_pos = {v: k for k, v in enumerate(unknowns)}

    def q_terms(cls):
        pcls = sum(prior[g] for g in cls)
        const = 0.0
        row = [0.0] * len(unknowns)
        for g in cls:
            for pi in range(len(lam_w)):
                c = prior[g] * lam_w[pi] / pcls
                if (pi, g) in u_pos:
                    row[u_pos[(pi, g)]] += c
                else:
                    const += c * fixed[(pi, g)]
        return row, const

    if prune:  # the range of q over the box [0, 1]^unknowns misses an interval
        for _, cls, lo, hi in intervals:
            row, const = q_terms(cls)
            slack = 1e-9 * (1.0 + sum(abs(v) for v in row))
            q_lo = const + sum(min(v, 0.0) for v in row)
            q_hi = const + sum(max(v, 0.0) for v in row)
            if q_hi < lo - slack or q_lo > hi + slack:
                return None
    rows, rhs = [], []
    for _, cls, t in pins:
        row, const = q_terms(cls)
        if any(abs(v) > 1e-14 for v in row):
            rows.append(row)
            rhs.append(t - const)
        elif abs(const - t) > 1e-9:
            return None
    if unknowns:
        x_u, null_info, solvable = _loop_gauss_solve(rows, rhs, len(unknowns))
        if not solvable:
            return None
    else:
        x_u, null_info = [], ([], [], [])
    feasible = not unknowns or (min(x_u) >= -1e-9 and max(x_u) <= 1 + 1e-9)
    for _, cls, lo, hi in intervals:
        row, const = q_terms(cls)
        q = const + sum(r * v for r, v in zip(row, x_u))
        if q < lo - 1e-9 or q > hi + 1e-9:
            if not null_info[0]:
                return None
            feasible = False
    free_cols, reduced, piv_cols = null_info
    directions = []
    if len(free_cols) == 1:
        fc = free_cols[0]
        dir_u = [0.0] * len(unknowns)
        dir_u[fc] = 1.0
        for i, c in enumerate(piv_cols):
            dir_u[c] = -reduced[i][fc]
        directions.append(dir_u)
    return {"x": x_u, "feasible": feasible, "n_free": len(free_cols), "directions": directions}


def _loop_support_enumeration(env, lams, prune=True):
    n_games = env.n_games
    profiles, continua, spans = [], [], []  # stacked into a SolveResult at the end
    combos = (_loop_side_combos(env, lams, 0), _loop_side_combos(env, lams, 1))
    if len(combos[0]) * len(combos[1]) > abee._MAX_REGIMES:
        return SolveResult(np.zeros((0, 0)), np.zeros((0, 2, 0)), np.zeros((0, 2)), None, exact=False)
    variables, var_index = [], {}
    for player in (0, 1):
        for pi, part in enumerate(lams[player].support):
            for g in range(n_games):
                var_index[(player, pi, g)] = len(variables)
                variables.append((player, part, g))
    n_vars = len(variables)

    def build_profile(x):
        plays = ({}, {})
        for idx, (player, part, g) in enumerate(variables):
            arr = plays[player].setdefault(part, np.zeros((n_games, 2)))
            m = min(max(float(x[idx]), 0.0), 1.0)
            arr[g, 0] = m
            arr[g, 1] = 1.0 - m
        return StrategyProfile(plays=plays)

    supports = (lams[0].support, lams[1].support)

    def build_plays(x):
        profile = build_profile(x)
        return tuple(np.stack([profile.plays[pl][part] for part in supports[pl]]) for pl in (0, 1))

    seen = set()
    for c0 in combos[0]:
        for c1 in combos[1]:
            sol0 = _loop_solve_block(env, lams, 0, c0[0], c0[1], c1[2], c1[3], prune)
            if sol0 is None:
                continue
            sol1 = _loop_solve_block(env, lams, 1, c1[0], c1[1], c0[2], c0[3], prune)
            if sol1 is None:
                continue
            x = np.zeros(n_vars)
            for player, combo, sol in ((0, c0, sol0), (1, c1, sol1)):
                for (pi, g), val in combo[0].items():
                    x[var_index[(player, pi, g)]] = val
                for (pi, g), val in zip(combo[1], sol["x"]):
                    x[var_index[(player, pi, g)]] = val
            if sol0["feasible"] and sol1["feasible"]:
                profile = build_profile(x)
                if dist_abee_verify(env, lams, profile)[0]:
                    key = tuple(np.round(x / DEDUP_TOL).astype(np.int64))
                    if key not in seen:
                        seen.add(key)
                        profiles.append(x.copy())
            if sol0["n_free"] + sol1["n_free"] == 1:
                player, combo, sol = (0, c0, sol0) if sol0["n_free"] == 1 else (1, c1, sol1)
                other = sol1 if player == 0 else sol0
                if not other["feasible"]:
                    continue
                direction = np.zeros(n_vars)
                for (pi, g), dv in zip(combo[1], sol["directions"][0]):
                    direction[var_index[(player, pi, g)]] = dv
                t_lo, t_hi = -np.inf, np.inf
                for vi in np.flatnonzero(np.abs(direction) > 1e-14):
                    dv = direction[vi]
                    b0, b1 = (0.0 - x[vi]) / dv, (1.0 - x[vi]) / dv
                    t_lo = max(t_lo, min(b0, b1))
                    t_hi = min(t_hi, max(b0, b1))
                if t_lo < t_hi - 1e-12:
                    continua.append((x.copy(), direction))
                    spans.append((float(t_lo), float(t_hi)))
    return SolveResult(np.reshape(profiles, (-1, n_vars)), np.reshape(continua, (-1, 2, n_vars)),
                       np.reshape(spans, (-1, 2)), build_plays)


def _game_kinds(rng, n_games):
    """Per-game 2x2 payoffs of one player, each game drawn as 'free',
    'constant', a threshold at 0 or at 1, small integers or normal."""
    out = np.zeros((2, 2, n_games))
    for g in range(n_games):
        a, b, d = (float(v) for v in rng.integers(-2, 3, size=3))
        kind = rng.integers(6)
        if kind == 0:  # free: indifferent at every expectation
            out[:, :, g] = [[a, b], [a, b]]
        elif kind == 1:  # constant: one action strictly better everywhere
            out[:, :, g] = [[a + (d or 1), b + (d or 1)], [a, b]]
        elif kind == 2:  # threshold at q = 0
            out[:, :, g] = [[a + (d or 1), b], [a, b]]
        elif kind == 3:  # threshold at q = 1
            out[:, :, g] = [[a, b + (d or 1)], [a, b]]
        elif kind == 4:
            out[:, :, g] = rng.integers(-1, 2, size=(2, 2))
        else:
            out[:, :, g] = rng.normal(size=(2, 2))
    return out


def _random_support(rng, parts):
    if rng.random() < 0.4:
        return PartitionDistribution.degenerate(parts[rng.integers(len(parts))])
    i, j = rng.choice(len(parts), size=2, replace=False)
    w = float(rng.choice([0.5, 0.3, 0.8, 0.37]))
    return PartitionDistribution((parts[i], parts[j]), (w, 1 - w))


def _assert_same_plays(got, ref, x):
    """Both results' strategies at the point x, bit for bit."""
    for a, b in zip(got.plays(x), ref.plays(x)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_profiles(got, ref):
    assert got.exact == ref.exact
    assert len(got.profiles) == len(ref.profiles)
    assert got.profiles.tobytes() == ref.profiles.tobytes()
    for x in ref.profiles:
        _assert_same_plays(got, ref, x)


def _assert_same_enumeration(got, ref):
    """Profiles, families and spans bit for bit, and the strategies of
    each profile and of each family at one point."""
    _assert_same_profiles(got, ref)
    assert len(got.continua) == len(ref.continua)
    assert got.continua.tobytes() == ref.continua.tobytes()
    assert got.spans.tobytes() == ref.spans.tobytes()
    for (base, direction), (t_lo, t_hi) in zip(ref.continua, ref.spans.tolist()):
        _assert_same_plays(got, ref, base + float(np.clip(0.5, t_lo, t_hi)) * direction)


def test_support_enumeration_matches_scalar_reference(rng):
    from cabee.partitions import partition_list

    kinds = set()
    shapes = set()
    for case in range(70):
        n_games = int(rng.integers(1, 4))
        prior = rng.dirichlet(np.ones(n_games)) if case % 2 else np.full(n_games, 1 / n_games)
        env = make_environment(prior, _game_kinds(rng, n_games), _game_kinds(rng, n_games))
        parts = list(partition_list(n_games, n_games))
        if n_games == 1:
            lams = degenerate_pair(parts[0], parts[0])
        else:
            lams = (_random_support(rng, parts), _random_support(rng, parts))
        kinds |= {_threshold_info(env, p, g)[:2] for p in (0, 1) for g in range(n_games)}
        shapes.add(tuple(len(lam.support) for lam in lams))
        got = dist_abee_solve_detailed(env, lams)
        _assert_same_enumeration(got, _loop_support_enumeration(env, lams))
    assert {k[0] for k in kinds} == {"free", "constant", "threshold"}
    assert {("threshold", 0.0), ("threshold", 1.0)} <= kinds
    assert shapes >= {(1, 1), (1, 2), (2, 1), (2, 2)}


def _threshold_game(t):
    """A 2x2 payoff slice with its threshold at t up to rounding: action 0
    pays (1, 0), action 1 pays (0, s) with s = t / (1 - t), so q = s / (1 + s)."""
    return [[1.0, 0.0], [0.0, t / (1 - t)]]


def test_regime_tables_match_the_scalar_builder():
    """`_side_regimes` builds every class's positions from the players'
    threshold arrays, for many (thresholds, support) items in one pass, and
    each item's tables are the scalar builder's byte for byte: on random
    environments with free and constant games and thresholds at exactly 0
    and 1 (both 0.0 and -0.0 occur), and on some where two thresholds of one
    class lie within 1e-14 of each other, which rounding to 14 digits
    merges.  Built alone, an item gets the same tables."""
    from cabee.partitions import partition_list

    rng = np.random.default_rng(25)
    kinds, merged, cases = set(), 0, []
    for case in range(160):
        n_games = int(rng.integers(1, 5))
        payoffs = [_game_kinds(rng, n_games), _game_kinds(rng, n_games)]
        if case % 4 == 0 and n_games >= 2:
            t = round(float(rng.uniform(0.1, 0.9)), 8)
            payoffs[0][:, :, 0] = _threshold_game(t)
            payoffs[0][:, :, 1] = _threshold_game(t + 3e-15)
        env = make_environment(rng.dirichlet(np.ones(n_games)), *payoffs)
        parts = list(partition_list(n_games, n_games))
        for player in (0, 1):
            infos = [_threshold_info(env, player, g) for g in range(n_games)]
            kinds |= {info[:2] for info in infos}
            pair = [info[1] for info in infos[:2] if info[0] == "threshold"]
            merged += len(pair) == 2 and pair[0] != pair[1] and round(pair[0], 14) == round(pair[1], 14)
            for lam in (_random_support(rng, parts) if n_games > 1 else PartitionDistribution.degenerate(parts[0]),
                        PartitionDistribution.degenerate(Partition.coarsest(n_games))):
                cases.append((env, player, lam.support))
    built = _side_regimes([(_thresholds(env, player), support) for env, player, support in cases])
    for k, ((env, player, support), got) in enumerate(zip(cases, built)):
        ref = _scalar_side_regimes(env, support, player)
        at_choice = [table[np.arange(len(got.slot_classes)), got.choice] for table in got.positions]
        for field, have, want in zip(("fixed", "unknown", "pinned", "lo", "hi"), [got.fixed, got.unknown] + at_choice, ref):
            assert have.tobytes() == want.tobytes(), (k, field)
        assert got.slot_classes == ref[5]
        assert got.width == got.unknown.sum(axis=1).max()
        if k % 10 == 0:
            (alone,) = _side_regimes([(_thresholds(env, player), support)])
            assert alone.fixed.tobytes() == got.fixed.tobytes() and alone.unknown.tobytes() == got.unknown.tobytes()
            assert np.array_equal(alone.choice, got.choice)
    assert {k[0] for k in kinds} == {"free", "constant", "threshold"}
    assert {("threshold", 0.0), ("threshold", 1.0)} <= kinds
    assert any(kind == "threshold" and str(t) == "-0.0" for kind, t in kinds)
    assert merged


def test_support_enumeration_matches_reference_on_matching_pennies():
    env = matching_pennies_env(0.5, 1.0, 1.5)
    an_a = Partition.from_classes(3, [(0,), (1, 2)])
    an_c = Partition.from_classes(3, [(2,), (0, 1)])
    fin = Partition.finest(3)
    for w in (0.5, 0.25):
        row_mix = PartitionDistribution((an_a, an_c), (w, 1 - w))
        col_mix = PartitionDistribution((an_a, fin), (w, 1 - w))
        for lams in (
            (row_mix, PartitionDistribution.degenerate(fin)),
            (PartitionDistribution.degenerate(fin), col_mix),
        ):
            got = dist_abee_solve_detailed(env, lams)
            # the mixture families the search refines; the row mix at
            # w = 0.25 has one family only without the range test, and
            # none of its points verifies
            pruned_away = w == 0.25 and lams[0] is row_mix
            assert bool(len(got.continua)) != pruned_away
            if pruned_away:
                unpruned = _loop_support_enumeration(env, lams, prune=False)
                assert len(unpruned.continua) == 1
                assert not _verified_points(env, lams, unpruned, 0)
            _assert_same_enumeration(got, _loop_support_enumeration(env, lams))


def _verified_points(env, lams, res, k):
    """The points of a 201-point sweep of family k's [t_lo, t_hi] that
    verify; `plays` clips the strategies into [0, 1] as the search does."""
    ts = np.linspace(*res.spans[k].tolist(), 201)
    return [t for t in ts if dist_abee_verify(env, lams, solved_profile(res, lams, k, t))[0]]


def _family_key(res, k):
    return res.continua[k, 0].tobytes(), res.continua[k, 1].tobytes(), *res.spans[k].tolist()


def test_range_test_drops_no_family_that_verifies(rng):
    """Against the reference without the range test: the profiles are the
    same bit for bit, and a family that the range test drops has no point
    that verifies.  The first case is why pinned slots get no range test:
    the column's unknown x[4] must be 2 for the row's pin at q = 1 on the
    class (0, 1), where q ranges over [0, 0.5] in the box, so the family
    verifies only with x[4] clipped to 1, and it is kept."""
    from cabee.partitions import partition_list

    part = Partition.from_classes(3, [(0, 1), (2,)])
    clipped_env = make_environment(
        (0.25, 0.25, 0.5),
        [[[0, 1, 0], [0, 1, 0]], [[0, -1, -1], [1, 1, -1]]],
        [[[0, 1, -1], [-1, 0, 0]], [[0, 0, -1], [0, 1, -1]]],
    )
    cases = [(clipped_env, degenerate_pair(part, part))]
    for case in range(200):
        n_games = int(rng.integers(1, 4))
        prior = rng.dirichlet(np.ones(n_games)) if case % 2 else np.full(n_games, 1 / n_games)
        env = make_environment(prior, _game_kinds(rng, n_games), _game_kinds(rng, n_games))
        parts = list(partition_list(n_games, n_games))
        if n_games == 1:
            cases.append((env, degenerate_pair(parts[0], parts[0])))
        else:
            cases.append((env, (_random_support(rng, parts), _random_support(rng, parts))))
    dropped = 0
    for case, (env, lams) in enumerate(cases):
        got = dist_abee_solve_detailed(env, lams)
        ref = _loop_support_enumeration(env, lams, prune=False)
        _assert_same_profiles(got, ref)
        kept = {_family_key(got, k) for k in range(len(got.continua))}
        assert kept <= {_family_key(ref, k) for k in range(len(ref.continua))}
        for k in range(len(ref.continua)):
            if _family_key(ref, k) not in kept:
                dropped += 1
                assert not _verified_points(env, lams, ref, k), case
        if case == 0:
            (clipped,) = [k for k, (base, _) in enumerate(got.continua) if base[4] == 2.0]
            assert _verified_points(env, lams, got, clipped)
    assert dropped


def test_support_enumeration_regime_budget(monkeypatch, mp_env):
    fin = Partition.finest(3)
    mix = PartitionDistribution((Partition.coarsest(3), fin), (0.5, 0.5))
    lams = (mix, PartitionDistribution.degenerate(fin))
    regimes = len(_loop_side_combos(mp_env, lams, 0)) * len(_loop_side_combos(mp_env, lams, 1))
    for budget in (regimes - 1, regimes):
        # a short damped iteration: on this mixing support it never settles
        patch_solver(monkeypatch, max_regimes=budget, damped_starts=2, damped_steps=50)
        got = dist_abee_solve_detailed(mp_env, lams)
        assert got.exact == (budget >= regimes)
        if not got.exact:  # the damped iteration takes the enumeration's place
            assert not len(got.continua)
            _assert_same_profiles(got, _damped_iteration(mp_env, lams))
        else:
            _assert_same_enumeration(got, _loop_support_enumeration(mp_env, lams))


def _loop_damped_iteration(env, lams):
    """The damped iteration one start at a time, each player's support
    partitions in turn; also returns whether each start settled within
    `abee._DAMPED_STEPS`."""
    rng = np.random.default_rng(abee._DAMPED_SEED)
    shapes = tuple((len(lams[p].support), env.n_games, env.n_actions(p)) for p in (0, 1))
    found, keys, settled = [], set(), []
    for start in range(abee._DAMPED_STARTS):
        plays = [
            np.full(shape, 1.0 / shape[2]) if start == 0
            else np.stack([rng.dirichlet(np.ones(shape[2]), size=env.n_games) for _ in range(shape[0])])
            for shape in shapes
        ]
        settled.append(False)
        for _ in range(abee._DAMPED_STEPS):
            aggs = [mixture(lams[p].weights, plays[p]) for p in (0, 1)]
            delta = 0.0
            for player in (0, 1):
                new = []
                for pi, part in enumerate(lams[player].support):
                    beta = class_prototypes(aggs[1 - player], part, env.prior)
                    pays = expected_payoffs(env, player, beta[list(part.assignment())])
                    new.append(0.5 * plays[player][pi] + 0.5 * best_replies(pays, 1e-12))
                    delta = max(delta, float(np.abs(new[-1] - plays[player][pi]).max()))
                plays[player] = np.stack(new)
            if delta < 1e-9:
                settled[-1] = True
                break
        if dist_abee_verify_batch(env, lams, (plays[0][None], plays[1][None]))[0][0]:
            flat = np.concatenate([plays[0].ravel(), plays[1].ravel()])
            key = np.round(flat / DEDUP_TOL).astype(np.int64).tobytes()
            if key not in keys:
                keys.add(key)
                found.append(flat)
    n_vars = sum(int(np.prod(shape)) for shape in shapes)
    result = SolveResult(np.reshape(found, (-1, n_vars)), np.zeros((0, 2, n_vars)), np.zeros((0, 2)),
                         functools.partial(_reshaped, shapes), exact=False)
    return result, settled


def test_damped_iteration_matches_the_per_start_loop(monkeypatch):
    """All starts iterated as one stack give the per-start loop's profiles
    bit for bit: 2 and 3 actions, one- and two-partition supports, 0, 1 and
    6 starts, and iteration caps at which some starts settle while others
    are cut off."""
    rng = np.random.default_rng(29)
    coarse, fin = Partition.coarsest(3), Partition.finest(3)
    mixing = PartitionDistribution((coarse, Partition.from_classes(3, [(0, 1), (2,)])), (0.3, 0.7))
    cut_mid_run = found = 0
    for case in range(12):
        n_act = (2, 3)[case % 2]
        env = make_environment([0.2, 0.3, 0.5], rng.normal(size=(n_act, n_act, 3)), rng.normal(size=(n_act, n_act, 3)))
        lams = degenerate_pair(coarse, fin) if case % 3 == 0 else (mixing, PartitionDistribution.degenerate(fin))
        for n_starts, max_iterations in ((0, 40), (1, 40), (6, 40), (6, 300)):
            patch_solver(monkeypatch, damped_seed=case, damped_starts=n_starts, damped_steps=max_iterations)
            ref, settled = _loop_damped_iteration(env, lams)
            got = _damped_iteration(env, lams)
            assert got.profiles.shape == ref.profiles.shape
            assert got.profiles.tobytes() == ref.profiles.tobytes(), (case, n_starts, max_iterations)
            assert not got.exact and not len(got.continua)
            cut_mid_run += any(settled) and not all(settled)
            found += len(ref.profiles)
    assert cut_mid_run and found


def test_damped_iteration_verifies_its_end_points_in_one_batch(monkeypatch):
    env = make_environment([0.2, 0.3, 0.5], np.arange(27.0).reshape(3, 3, 3) % 4, np.arange(27.0).reshape(3, 3, 3) % 5)
    lams = degenerate_pair(Partition.coarsest(3), Partition.finest(3))
    calls = []
    verify = abee.dist_abee_verify_batch

    def counted(*args, **kwargs):
        calls.append(len(args[2][0]))
        return verify(*args, **kwargs)

    monkeypatch.setattr(abee, "dist_abee_verify_batch", counted)
    patch_solver(monkeypatch, damped_starts=6, damped_steps=50)
    _damped_iteration(env, lams)
    assert calls == [6]


def test_each_stream_builds_its_distinct_sides_once(monkeypatch):
    """The solver keeps no regimes between streams: the 20 layer-1 supports
    of matching pennies at capacities (2, 3), streamed twice, make one
    `_side_regimes` pass each time, over the 9 distinct (environment,
    player, support) sides, 4 row and 5 column."""
    from cabee.partitions import partition_list

    env = matching_pennies_env()
    parts = tuple(partition_list(3, cap) for cap in (2, 3))
    supports = [degenerate_pair(p0, p1) for p0, p1 in itertools.product(*parts)]
    passes = []
    build = abee._side_regimes

    def counted(items):
        passes.append([(th.t.tobytes(), support) for th, support in items])
        return build(items)

    monkeypatch.setattr(abee, "_side_regimes", counted)
    for _ in range(2):
        assert len(list(itertools.chain.from_iterable(dist_abee_solve_runs((env, lams) for lams in supports)))) == 20
    ts = [_thresholds(env, player).t.tobytes() for player in (0, 1)]
    sides = {(ts[player], (part,)) for player in (0, 1) for part in parts[player]}
    assert [len(parts[0]), len(parts[1])] == [4, 5]
    assert [len(items) for items in passes] == [9, 9]
    assert all(set(items) == sides for items in passes)


def _search_supports(capacities):
    """Every layer-1 and layer-2 support of a 3-game search at weight 1/2:
    the degenerate pairs, then each pair of one player's partitions against
    each partition of the other."""
    from cabee.partitions import partition_list

    parts = tuple(partition_list(3, cap) for cap in capacities)
    supports = [degenerate_pair(p0, p1) for p0, p1 in itertools.product(*parts)]
    for mix in (0, 1):
        for pair in itertools.combinations(parts[mix], 2):
            for other in parts[1 - mix]:
                lams = (PartitionDistribution(pair, (0.5, 0.5)), PartitionDistribution.degenerate(other))
                supports.append(lams if mix == 0 else lams[::-1])
    return supports


def _assert_same_result(got, ref):
    assert got.exact == ref.exact
    assert len(got.profiles) == len(ref.profiles)
    assert got.profiles.tobytes() == ref.profiles.tobytes()
    _assert_same_plays(got, ref, ref.profiles)
    assert len(got.continua) == len(ref.continua)
    assert got.continua.tobytes() == ref.continua.tobytes()
    assert got.spans.tobytes() == ref.spans.tobytes()
    _assert_same_plays(got, ref, ref.continua[:, 0] + ref.spans.mean(axis=1, keepdims=True) * ref.continua[:, 1])


def _assert_stream_is_its_solves(monkeypatch, items):
    """Each (environment, support) item of a `dist_abee_solve_runs` stream
    gets its one-item solve, bit for bit, in runs of one support
    (`_RUN_SUPPORTS` 1) or of the whole stream (1 << 20), with eliminations
    cut into chunks of 8 pairs (`_PAIR_CHUNK` 8) or not cut (1 << 20)."""
    refs = [dist_abee_solve_detailed(env, lams) for env, lams in items]
    for chunk, cap in itertools.product((8, 1 << 20), (1, 1 << 20)):
        monkeypatch.setattr(abee, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(abee, "_RUN_SUPPORTS", cap)
        got = list(itertools.chain.from_iterable(dist_abee_solve_runs(iter(items))))
        assert len(got) == len(refs)
        for a, b in zip(got, refs):
            _assert_same_result(a, b)
    return refs


@pytest.mark.parametrize("capacities", [(2, 2), (2, 3)])
def test_support_result_does_not_depend_on_its_run_mates(monkeypatch, capacities):
    """The largest support of a stream, moved to the middle, is over
    `max_regimes` and takes the damped iteration in its place."""
    rng = np.random.default_rng(23)
    for _ in range(2):
        env = make_environment(np.full(3, 1 / 3), rng.integers(-2, 3, size=(2, 2, 3)),
                               rng.integers(-2, 3, size=(2, 2, 3)))
        stream = _search_supports(capacities)
        regimes = [len(_item_regimes(env, lams, 0).choice) * len(_item_regimes(env, lams, 1).choice)
                   for lams in stream]
        stream.insert(len(stream) // 2, stream.pop(int(np.argmax(regimes))))
        patch_solver(monkeypatch, max_regimes=max(regimes) - 1, damped_starts=2, damped_steps=50)
        refs = _assert_stream_is_its_solves(monkeypatch, [(env, lams) for lams in stream])
        mid = len(stream) // 2
        assert not refs[mid].exact
        assert any(ref.exact for ref in refs[:mid]) and any(ref.exact for ref in refs[mid + 1:])


def test_support_result_does_not_depend_on_run_mates_of_other_environments(monkeypatch):
    """Supports of two matching-pennies stake triples, a monitoring game (its
    own prior) and a random binary environment, interleaved in one stream,
    with a three-action item in the middle that takes the damped iteration."""
    from cabee.applications.matching_pennies import MatchingPenniesSpec, build_matching_pennies
    from cabee.applications.monitoring import MonitoringSpec, build_monitoring

    rng = np.random.default_rng(24)
    envs = [
        build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5)),
        build_matching_pennies(MatchingPenniesSpec(0.2, 0.4, 1.8)),
        build_monitoring(MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)),
        make_environment(rng.dirichlet(np.ones(3)), rng.integers(-2, 3, size=(2, 2, 3)),
                         rng.integers(-2, 3, size=(2, 2, 3))),
    ]
    supports = _search_supports((2, 3))
    items = [(envs[k % len(envs)], supports[(7 * k) % len(supports)]) for k in range(len(supports))]
    wide = make_environment(np.full(3, 1 / 3), rng.normal(size=(3, 2, 3)), rng.normal(size=(2, 3, 3)))
    items.insert(len(items) // 2, (wide, supports[0]))
    patch_solver(monkeypatch, damped_starts=2, damped_steps=50)
    refs = _assert_stream_is_its_solves(monkeypatch, items)
    assert not refs[len(items) // 2].exact
    assert all(ref.exact for k, ref in enumerate(refs) if k != len(items) // 2)
    assert sum(len(ref.profiles) for ref in refs) and sum(len(ref.continua) for ref in refs)


def test_a_support_that_keeps_no_pairs_leaves_its_run_mates_alone(monkeypatch, mp_env):
    """No support of a binary game keeps zero regime pairs: an ABEE exists,
    and its pair passes the range test.  So one support's pairs are emptied
    inside a run: its result is empty, and the others are their own solves."""
    stream = _search_supports((2, 3))[18:21]
    refs = [dist_abee_solve_detailed(mp_env, lams) for lams in stream]
    kept_pairs = abee._kept_pairs

    def emptied(run, groups):
        pairs = kept_pairs(run, groups)
        pairs[1] = tuple(regimes[:0] for regimes in pairs[1])
        return pairs

    monkeypatch.setattr(abee, "_kept_pairs", emptied)
    got = list(itertools.chain.from_iterable(dist_abee_solve_runs([(mp_env, lams) for lams in stream])))
    assert not len(got[1].profiles) and not len(got[1].continua)
    for i in (0, 2):
        assert len(refs[i].profiles) or len(refs[i].continua)
        _assert_same_result(got[i], refs[i])


def test_support_enumeration_matches_reference_on_four_games():
    # a class of four games against a two-partition support: eight terms
    # in each of its class expectations
    rng = np.random.default_rng(11)
    env = make_environment(
        rng.dirichlet(np.ones(4)), rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4))
    )
    pair = tuple(Partition.from_classes(4, c) for c in ([(0, 1), (2, 3)], [(0, 2), (1, 3)]))
    coarse = PartitionDistribution.degenerate(Partition.coarsest(4))
    lams = (PartitionDistribution(pair, (0.37, 0.63)), coarse)
    got = dist_abee_solve_detailed(env, lams)
    _assert_same_enumeration(got, _loop_support_enumeration(env, lams))


def test_sum_left_rounds_as_a_scalar_loop(rng):
    terms = rng.normal(size=(200, 12)) * 10.0 ** rng.integers(-8, 8, size=(200, 12))
    terms[:5, 0] = -0.0
    expect = [functools.reduce(operator.add, row.tolist(), 0) for row in terms]
    assert sum_left(terms).tobytes() == np.array(expect, dtype=float).tobytes()
