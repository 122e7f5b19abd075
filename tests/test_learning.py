from collections import Counter

import numpy as np
import pytest

from cabee.abee import PartitionDistribution, StrategyProfile
from cabee.clustering import KL, L2, kmeans_lloyd
from cabee.env import make_environment
from cabee.equilibrium import GLOBAL, LOCAL, EquilibriumCandidate
from cabee.learning import (
    DynastyRecord,
    PerturbationSpec,
    PopulationState,
    _lloyd_assignments,
    model1_run,
    model1_step,
    model2_step,
    state_distance,
    state_from_candidate,
    steady_state_check,
    write_trajectory_csv,
)
from cabee.partitions import Partition
from cabee.applications.matching_pennies import (
    MatchingPenniesSpec,
    build_matching_pennies,
    solve_matching_pennies_cdabee,
)
from cabee.applications.monitoring import (
    MonitoringSpec,
    _candidate_at,
    build_monitoring,
    solve_monitoring_cdabee,
)
from conftest import dominant_env


@pytest.fixture(scope="module")
def mp_setup():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cand = solve_matching_pennies_cdabee(spec)
    return env, cand


@pytest.fixture(scope="module")
def mon_setup():
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)
    env = build_monitoring(spec)
    (cand,) = solve_monitoring_cdabee(spec, GLOBAL, L2).candidates
    return spec, env, cand


# ---------------------------------------------------------------------------
# zero-noise fixed points
# ---------------------------------------------------------------------------


def test_equilibria_are_model1_fixed_points(mp_setup, mon_setup):
    for env, cand in (mp_setup, (mon_setup[1], mon_setup[2])):
        state = state_from_candidate(env, cand)
        nxt = model1_step(env, state, (2, 3), L2, PerturbationSpec(0.0), tie_break="incumbent")
        assert state_distance(state, nxt) <= 1e-9


def test_equilibria_are_model2_fixed_points(mp_setup, mon_setup):
    for env, cand in (mp_setup, (mon_setup[1], mon_setup[2])):
        state = state_from_candidate(env, cand)
        nxt = model2_step(env, state, L2)
        assert state_distance(state, nxt) <= 1e-9
        assert not nxt.events


def test_steady_state_classification(mp_setup):
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    for mode in (GLOBAL, LOCAL):
        steady, info = steady_state_check(env, state, mode, L2, (2, 3))
        assert steady
        assert info["is_global_cdabee"] and info["is_local_cdabee"]


def test_local_only_candidate_separates_the_dynamics():
    """A merely locally clustered state is a rest point of the inherited-
    categories dynamics but not of the raw-data dynamics."""
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.45, 0.3)
    env = build_monitoring(spec)
    env2, cand = _candidate_at(spec, 0.45, LOCAL, L2)
    state = state_from_candidate(env, cand)
    assert steady_state_check(env, state, LOCAL, L2, (2, 3))[0]
    assert not steady_state_check(env, state, GLOBAL, L2, (2, 3))[0]


def test_prop6_kl_candidate_is_model2_steady():
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.45, 0.3)
    env, cand = _candidate_at(spec, 0.5, LOCAL, KL)
    state = state_from_candidate(env, cand)
    steady, info = steady_state_check(env, state, LOCAL, KL, (2, 3))
    assert steady and info["is_local_cdabee"]


def test_perturbed_state_is_not_steady(mon_setup):
    _, env, cand = mon_setup
    state = state_from_candidate(env, cand)
    fin = Partition.finest(3)
    worker = np.asarray(cand.profile.plays[1][fin]).copy()
    worker[2] = [0.62, 0.38]  # outside every rest-point family
    prof = StrategyProfile(plays=(dict(cand.profile.plays[0]), {fin: worker}))
    bad = state_from_candidate(env, EquilibriumCandidate(cand.lams, prof, GLOBAL, L2))
    steady, info = steady_state_check(env, bad, GLOBAL, L2, (2, 3))
    assert not steady and info["distance"] > 1e-6


def test_uniform_tie_break_moves_off_asymmetric_shares(mon_setup):
    """The monitoring equilibrium's (0.3, 0.7) shares survive only because
    the incumbent policy lets tied subjects keep them."""
    _, env, cand = mon_setup
    state = state_from_candidate(env, cand)
    nxt = model1_step(env, state, (2, 3), L2, PerturbationSpec(0.0), tie_break="uniform")
    weights = sorted(nxt.lams[0].weights)
    assert weights == pytest.approx([0.5, 0.5])
    assert state_distance(state, nxt) > 0.1


def test_dominant_env_converges_in_one_step():
    env = dominant_env()
    fin = Partition.finest(3)
    coarse = Partition.coarsest(3)
    uniform = np.full((3, 2), 0.5)
    prof = StrategyProfile(plays=({coarse: uniform}, {fin: uniform}))
    lams = (PartitionDistribution.degenerate(coarse), PartitionDistribution.degenerate(fin))
    state = state_from_candidate(env, EquilibriumCandidate(lams, prof, GLOBAL, L2))
    nxt = model1_step(env, state, (2, 3), L2, PerturbationSpec(0.0), tie_break="incumbent")
    np.testing.assert_allclose(nxt.aggregates[0][:, 0], 1.0)
    np.testing.assert_allclose(nxt.aggregates[1][:, 0], 1.0)
    # with payoff noise the margin is strict, so the same holds at eps > 0
    noisy = model1_step(env, state, (2, 3), L2, PerturbationSpec(0.05, seed=3), n_subjects=400)
    np.testing.assert_allclose(noisy.aggregates[0][:, 0], 1.0)


def test_model2_reassignment_flips_partition():
    """A dynasty seeded with the other arrangement's prototypes re-sorts the
    games around them in one generation."""
    env = make_environment(
        [1 / 3] * 3,
        np.zeros((2, 2, 3)),  # player 0 indifferent everywhere
        np.zeros((2, 2, 3)),
    )
    data = np.array([[0.0, 1.0], [0.4, 0.6], [1.0, 0.0]])  # opponent aggregate
    fin = Partition.finest(3)
    low_split = Partition.from_classes(3, [(0, 1), (2,)])
    protos = np.array([[0.7, 0.3], [0.0, 1.0]])  # the other arrangement's prototypes
    rec = DynastyRecord(low_split, protos, np.full((3, 2), 0.5), 1.0)
    opp = DynastyRecord(fin, np.full((3, 2), 0.5), data, 1.0)
    state = PopulationState(
        lams=(
            PartitionDistribution.degenerate(low_split),
            PartitionDistribution.degenerate(fin),
        ),
        profile=StrategyProfile(plays=({low_split: rec.strategy}, {fin: data})),
        aggregates=(np.full((3, 2), 0.5), data),
        dynasties=([rec], [opp]),
    )
    nxt = model2_step(env, state, L2)
    assert nxt.dynasties[0][0].partition.key() == ((0,), (1, 2))


def test_model2_reassignment_keeps_tied_classes_and_skips_infinite_prototypes():
    """Games tied between prototypes keep their class; under KL a prototype
    whose support misses a game's is never nearest."""
    env = make_environment([0.25] * 4, np.zeros((2, 2, 4)), np.zeros((2, 2, 4)))
    data = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])
    fin = Partition.finest(4)
    split = Partition.from_classes(4, [(0, 2), (1, 3)])
    for d, protos, want in (
        (L2, np.array([[0.5, 0.5], [0.5, 0.5]]), split),  # every game tied: nothing moves
        (KL, np.array([[0.0, 1.0], [0.6, 0.4]]), Partition.from_classes(4, [(0,), (1, 2, 3)])),
    ):
        rec = DynastyRecord(split, protos, np.full((4, 2), 0.5), 1.0)
        opp = DynastyRecord(fin, np.full((4, 2), 0.5), data, 1.0)
        state = PopulationState(
            lams=(PartitionDistribution.degenerate(split), PartitionDistribution.degenerate(fin)),
            profile=StrategyProfile(plays=({split: rec.strategy}, {fin: data})),
            aggregates=(np.full((4, 2), 0.5), data),
            dynasties=([rec], [opp]),
        )
        assert model2_step(env, state, d).dynasties[0][0].partition == want


def test_model2_requires_dynasties(mp_setup):
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    state.dynasties = None
    with pytest.raises(ValueError):
        model2_step(env, state, L2)


# ---------------------------------------------------------------------------
# Monte Carlo runs
# ---------------------------------------------------------------------------


def test_monte_carlo_bit_reproducible(mp_setup):
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    pert = PerturbationSpec(epsilon=0.01, seed=11)
    traj1, rep1 = model1_run(env, state, 12, (2, 3), L2, pert, n_subjects=500)
    traj2, rep2 = model1_run(env, state, 12, (2, 3), L2, pert, n_subjects=500)
    assert all(state_distance(a, b) == 0.0 for a, b in zip(traj1, traj2))
    assert rep1 == rep2
    traj3, _ = model1_run(env, state, 12, (2, 3), L2, PerturbationSpec(0.01, seed=12), n_subjects=500)
    assert any(state_distance(a, b) > 0 for a, b in zip(traj1, traj3))


def test_frequencies_stay_distributions(mp_setup):
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    traj, _ = model1_run(
        env, state, 8, (2, 3), L2, PerturbationSpec(0.05, seed=5), n_subjects=300
    )
    for st in traj:
        for player in (0, 1):
            np.testing.assert_allclose(st.aggregates[player].sum(axis=1), 1.0, atol=1e-12)
            assert abs(sum(st.lams[player].weights) - 1.0) <= 1e-12


def test_lloyd_clustering_variant_runs(mp_setup):
    """Each subject's Lloyd partition is kmeans_lloyd's on the subject's draw
    from the same seeds; the step's shares count those partitions."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    pert, n, caps = PerturbationSpec(0.02, seed=9), 200, (2, 3)
    nxt = model1_step(env, state, caps, L2, pert, n_subjects=n, clustering="lloyd")
    rng = np.random.default_rng((pert.seed, state.t))  # replays the step's draws
    for player in (0, 1):
        assert abs(sum(nxt.lams[player].weights) - 1.0) <= 1e-12
        data = state.aggregates[1 - player]
        eta = pert.draw_measurement(rng, (n, env.n_games, data.shape[1]))
        s = (data[None] + pert.epsilon * eta) / (1.0 + pert.epsilon)
        seeds = rng.random((n, env.n_games)).argsort(axis=1)[:, : caps[player]]
        pert.draw_payoff(rng, (n, env.n_games, env.n_actions(player)))
        parts = Counter(kmeans_lloyd(s[i], env.prior, caps[player], L2, s[i, seeds[i]]).partition for i in range(n))
        assert nxt.lam_weights(player) == {p: c / n for p, c in parts.items()}


def test_lloyd_keeps_a_point_on_its_own_prototype_with_a_zero_coordinate():
    """KL takes 0*ln(0) = 0: game 2 sits on its seed [0, 1] at distance 0."""
    s = np.array([[[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]])
    prior = np.full(4, 0.25)
    assert np.random.default_rng(0).random((1, 4)).argsort(axis=1)[0, :2].tolist() == [3, 2]
    assign = _lloyd_assignments(s, prior, 2, KL, np.random.default_rng(0))
    rep = kmeans_lloyd(s[0], prior, 2, KL, s[0, [3, 2]])
    assert rep.partition == Partition.from_classes(4, [(0, 1, 3), (2,)])
    assert Partition.from_assignment(assign[0]) == rep.partition


def test_single_game_environment_runs():
    env = make_environment(
        [1.0], [[[1.5], [0.0]], [[0.0], [1.0]]], [[[0.0], [1.0]], [[1.0], [0.0]]]
    )
    fin = Partition.finest(1)
    prof = StrategyProfile(
        plays=({fin: np.array([[0.5, 0.5]])}, {fin: np.array([[0.4, 0.6]])})
    )
    lams = (PartitionDistribution.degenerate(fin), PartitionDistribution.degenerate(fin))
    state = state_from_candidate(env, EquilibriumCandidate(lams, prof, GLOBAL, L2))
    traj, _ = model1_run(env, state, 6, (1, 1), L2, PerturbationSpec(0.01, seed=2), n_subjects=200)
    assert len(traj) == 7


def test_zero_noise_run_has_zero_drift(mp_setup):
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    traj, report = model1_run(
        env, state, 10, (2, 3), L2, PerturbationSpec(0.0), tie_break="incumbent"
    )
    assert report.aggregate_drift == 0.0 and report.lam_drift == 0.0
    assert all(state_distance(state, st) <= 1e-12 for st in traj)


def test_model2_dominant_env_settles_on_dominant_data_clustering():
    """With exogenous dominant-choice data the inherited categories settle
    into a clustering of that data within a couple of generations."""
    pr = np.zeros((2, 2, 3))
    pc = np.zeros((2, 2, 3))
    for g in range(3):
        pr[:, :, g] = [[1, 1], [0, 0]]  # row action 0 dominant
        # column best replies differ across games, giving distinct data
        pc[:, :, g] = [[1, 1], [0, 0]] if g < 2 else [[0, 0], [1, 1]]
    env = make_environment([1 / 3] * 3, pr, pc)
    fin = Partition.finest(3)
    split = Partition.from_classes(3, [(0, 2), (1,)])  # deliberately misaligned
    row_play = np.tile([1.0, 0.0], (3, 1))
    col_play = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    state = PopulationState(
        lams=(
            PartitionDistribution.degenerate(split),
            PartitionDistribution.degenerate(fin),
        ),
        profile=StrategyProfile(plays=({split: row_play}, {fin: col_play})),
        aggregates=(row_play, col_play),
        dynasties=(
            [DynastyRecord(split, np.array([[0.5, 0.5], [1.0, 0.0]]), row_play, 1.0)],
            [DynastyRecord(fin, row_play, col_play, 1.0)],
        ),
    )
    nxt = model2_step(env, state, L2)
    nxt = model2_step(env, nxt, L2)
    # games with identical column behavior end up pooled, the odd one out
    assert nxt.dynasties[0][0].partition.key() == ((0, 1), (2,))
    again = model2_step(env, nxt, L2)
    assert state_distance(nxt, again) <= 1e-12


def test_trajectory_csv_columns(tmp_path, mp_setup):
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    traj, _ = model1_run(env, state, 3, (2, 3), L2, PerturbationSpec(0.01, seed=1), n_subjects=100)
    a_path = tmp_path / "actions.csv"
    s_path = tmp_path / "shares.csv"
    write_trajectory_csv(a_path, s_path, traj, env)
    header = a_path.read_text().splitlines()[0]
    assert header == "t,role,game,action,frequency"
    header = s_path.read_text().splitlines()[0]
    assert header == "t,role,partition,share"
