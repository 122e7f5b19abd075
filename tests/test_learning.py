import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cabee.clustering as clustering_module
import cabee.learning as learning_module
from cabee.abee import PartitionDistribution, StrategyProfile, expected_payoffs
from cabee.clustering import (
    KL,
    KULLBACK_LEIBLER,
    L2,
    _plogp,
    _projected,
    _subset_sums,
    kmeans_lloyd,
    mean_divergence,
    partition_dispersions,
    subset_table,
)
from cabee.env import make_environment
from cabee.equilibrium import GLOBAL, LOCAL, EquilibriumCandidate
from cabee.learning import (
    CLUSTERINGS,
    DynastyRecord,
    PerturbationSpec,
    PopulationState,
    _class_means,
    _exhaustive_choices,
    _lloyd_choices,
    model1_run,
    model1_step,
    model2_step,
    state_distance,
    state_from_candidate,
    steady_state_check,
    write_trajectory_csv,
)
from cabee.partitions import Partition, class_masks, partition_list
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
from conftest import dominant_env, lloyd_assignments, sorted_assignment_rows


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


@pytest.mark.parametrize("epsilon", [0.0, 0.2])
def test_model1_step_keeps_no_dynasty_records(mp_setup, epsilon):
    """A model-1 step, exact or noisy, returns no per-dynasty records: the
    start's records would describe the start, not the state reached, so
    model 2 and the local steady-state check refuse the state."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    nxt = model1_step(env, state, (2, 3), L2, PerturbationSpec(epsilon, seed=3), n_subjects=200)
    assert nxt.dynasties is None
    with pytest.raises(ValueError, match="per-dynasty records"):
        model2_step(env, nxt, L2)
    with pytest.raises(ValueError, match="per-dynasty records"):
        steady_state_check(env, nxt, LOCAL, L2, (2, 3))


def _reference_dispersion_matrix(s, prior, parts, d):
    """Model 1's dispersion of every partition for every subject's draw,
    (N, len(parts)), partition by partition and class by class."""
    s, d = _projected(s, d)
    kl = d.kind == KULLBACK_LEIBLER
    point = (_plogp(s) if kl else s**2).sum(axis=2) @ prior
    out = np.empty((s.shape[0], len(parts)))
    for pi, part in enumerate(parts):
        ct = np.zeros(s.shape[0])
        for cls in part.classes:
            idx = list(cls)
            w = prior[idx].sum()
            proto = np.einsum("g,nga->na", prior[idx], s[:, idx, :]) / w
            ct += w * (_plogp(proto) if kl else proto**2).sum(axis=1)
        out[:, pi] = point - ct
    return out


def _reference_prototypes(s, prior, parts, choice):
    """Each subject's per-game class means of its own draw under its chosen
    partition, class by class over the partitions chosen."""
    proto_by_game = np.empty_like(s)
    for pi in np.unique(choice):
        members = choice == pi
        for cls in parts[pi].classes:
            idx = list(cls)
            proto = np.einsum("g,nga->na", prior[idx], s[np.ix_(np.flatnonzero(members), idx)]) / prior[idx].sum()
            for g in idx:
                proto_by_game[members, g, :] = proto
    return proto_by_game


def test_model1_choices_and_prototypes_match_per_partition_reference(rng):
    """Model 1's dispersions and exhaustive choice, from one subset table,
    and its prototypes, from one gather of the subset sums, for the chosen and for
    random partitions, equal the per-partition reference bit for bit: L2, KL on
    draws with zero entries, and the mean divergence, with 1 to 3 classes and
    3 to 5 games."""
    for d in (L2, KL, mean_divergence([0.0, 0.5, 1.0])):
        for n in (3, 4, 5):
            for k in (1, 2, 3):
                prior = rng.dirichlet(np.ones(n) * 2)
                s = rng.standard_exponential((400, n, 3)) * (rng.random((400, n, 3)) > 0.3)
                s[..., 0] += 0.05
                s /= s.sum(axis=-1, keepdims=True)
                parts = partition_list(n, k)
                disp = _reference_dispersion_matrix(s, prior, parts, d)
                table = subset_table(s, prior, d)
                assert np.array_equal(partition_dispersions(table, class_masks(n, k)).T, disp)
                want = disp.argmin(axis=1)
                # model 1 holds its draws game- and action-major; the values are the same
                for draws in (s, np.ascontiguousarray(s.transpose(1, 2, 0)).transpose(2, 0, 1)):
                    got, sums, mass = _exhaustive_choices(draws, prior, k, d)
                    np.testing.assert_array_equal(got, want)
                    for choice in (want, rng.integers(0, len(parts), len(s))):
                        protos = _class_means(sums, mass, choice, k)
                        assert np.array_equal(protos, _reference_prototypes(s, prior, parts, choice))


def test_exhaustive_choices_take_the_first_minimal_row_on_exact_ties(rng):
    """With repeated games (equal data points and prior weights) partitions
    that differ only in which copy a class holds score exactly the same, and
    for many subjects several rows tie at the minimum: each subject's choice
    is the first minimal row of the dispersion table, as `argmin` takes it,
    under L2, KL and the mean divergence."""
    for n_games, copies, k in ((3, [0, 0, 0], 2), (4, [0, 0, 0, 1], 3), (5, [0, 0, 0, 1, 1], 3)):
        prior = np.ones(n_games) / n_games
        for d in (L2, KL, mean_divergence([0.0, 0.5, 1.0])):
            points = rng.dirichlet(np.ones(3), (500, max(copies) + 1))
            draws = np.ascontiguousarray(points[:, copies].transpose(1, 2, 0)).transpose(2, 0, 1)
            disp = partition_dispersions(subset_table(draws, prior, d), class_masks(n_games, k))
            minimal = disp == disp.min(axis=0)
            assert (minimal.sum(axis=0) > 1).sum() > 100  # exact ties at the minimum are common
            choice = _exhaustive_choices(draws, prior, k, d)[0]
            np.testing.assert_array_equal(choice, disp.argmin(axis=0))
            np.testing.assert_array_equal(choice, minimal.argmax(axis=0))


def _reference_model1_step(env, state, capacities, d, pert, n, clustering):
    """The noisy model-1 step on the same random stream, with one-hot tallies,
    choices from the per-partition dispersions and prototypes class by class:
    per player its aggregate, shares, plays per support partition and
    subjects' prototypes."""
    rng = np.random.default_rng((pert.seed, state.t))
    out = []
    for player in (0, 1):
        data, k, n_own = state.aggregates[1 - player], capacities[player], env.n_actions(player)
        draws = rng.standard_exponential((n, env.n_games, data.shape[1]))
        s = (data[None] + pert.epsilon * draws / draws.sum(axis=-1, keepdims=True)) / (1.0 + pert.epsilon)
        parts = partition_list(env.n_games, k)
        if clustering == "lloyd":
            choice = sorted_assignment_rows(lloyd_assignments(s, env.prior, k, d, rng), k)
        else:
            choice = _reference_dispersion_matrix(s, env.prior, parts, d).argmin(axis=1)
        protos = _reference_prototypes(s, env.prior, parts, choice)
        rho = rng.uniform(0.0, 1.0, size=(n, env.n_games, n_own))
        onehot = np.eye(n_own)[(expected_payoffs(env, player, protos) + pert.epsilon * rho).argmax(axis=2)]
        chosen = np.unique(choice)
        shares = {parts[pi]: np.count_nonzero(choice == pi) / n for pi in chosen}
        plays = {parts[pi]: onehot[choice == pi].mean(axis=0) for pi in chosen}
        out.append((onehot.mean(axis=0), shares, plays, s, choice, protos))
    return out


def _random_start(rng, n_games, n0, n1, t):
    """A random environment with n0 row and n1 column actions, and a state at
    period t in which both roles play random aggregates under the finest
    partition."""
    env = make_environment(
        rng.dirichlet(np.ones(n_games)), rng.random((n0, n1, n_games)), rng.random((n1, n0, n_games))
    )
    fin = Partition.finest(n_games)
    lams = (PartitionDistribution.degenerate(fin), PartitionDistribution.degenerate(fin))
    aggs = (rng.dirichlet(np.ones(n0), n_games), rng.dirichlet(np.ones(n1), n_games))
    return env, PopulationState(lams, StrategyProfile(plays=({fin: aggs[0]}, {fin: aggs[1]})), aggs, t=t)


@pytest.mark.parametrize("clustering", ["global", "lloyd"])
def test_model1_step_matches_one_hot_reference(rng, clustering):
    """model1_step's aggregates, shares and per-partition plays, and its
    prototypes, equal the one-hot and per-partition reference bit for bit:
    L2, KL and the mean divergence, 1 to 3 classes, opponents with 2 and 3
    actions."""
    cases = [((2, 2), L2), ((2, 3), L2), ((2, 3), KL), ((3, 3), mean_divergence([0.0, 0.5, 1.0]))]
    for (n0, n1), d in cases:
        for caps in ((1, 2), (2, 3), (3, 3)):
            n = 300
            env, state = _random_start(rng, 4, n0, n1, t=3)
            pert = PerturbationSpec(0.2, seed=5)
            nxt = model1_step(env, state, caps, d, pert, n_subjects=n, clustering=clustering)
            for player, (agg, shares, plays, s, choice, protos) in enumerate(
                _reference_model1_step(env, state, caps, d, pert, n, clustering)
            ):
                assert np.array_equal(nxt.aggregates[player], agg)
                assert nxt.lam_weights(player) == shares
                assert list(nxt.profile.plays[player]) == list(plays)
                assert all(np.array_equal(nxt.profile.plays[player][p], plays[p]) for p in plays)
                sums, mass = _subset_sums(s.transpose(1, 2, 0), env.prior)
                assert np.array_equal(_class_means(sums, mass, choice, caps[player]), protos)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n_games=st.integers(1, 5),
    n_actions=st.tuples(st.integers(2, 3), st.integers(2, 3)),
    caps=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    n=st.integers(1, 60),
    block=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_games=5, n_actions=(3, 2), caps=(3, 2), n=60, block=7, seed=1)
def test_model1_step_matches_the_reference_on_drawn_games(n_games, n_actions, caps, n, block, seed):
    """On drawn environments (1 to 5 games, 2 or 3 actions per side,
    capacities 1 to 3) and blocks of 1 to n of n subjects, both variants of
    model1_step equal the one-hot and per-partition reference bit for bit
    under L2, KL and the mean divergence (whose sides have equal action
    counts, as it weighs one set of action values)."""
    block = min(block, n)
    rng = np.random.default_rng(seed)
    for name, d in (("l2", L2), ("kl", KL), ("mean", None)):
        n0, n1 = (n_actions[0],) * 2 if name == "mean" else n_actions
        d = d or mean_divergence(np.sort(rng.random(n0)))
        env, state = _random_start(rng, n_games, n0, n1, t=2)
        pert = PerturbationSpec(0.3, seed=seed)
        for clustering in CLUSTERINGS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(learning_module, "_SUBJECT_BLOCK", block)
                nxt = model1_step(env, state, caps, d, pert, n_subjects=n, clustering=clustering)
            for player, (agg, shares, plays, *_) in enumerate(
                _reference_model1_step(env, state, caps, d, pert, n, clustering)
            ):
                assert np.array_equal(nxt.aggregates[player], agg), (name, clustering, player)
                assert nxt.lam_weights(player) == shares, (name, clustering, player)
                assert list(nxt.profile.plays[player]) == list(plays)
                assert all(np.array_equal(nxt.profile.plays[player][p], plays[p]) for p in plays)


def test_lloyd_choices_match_the_label_reference(rng, monkeypatch):
    """Each subject's Lloyd partition equals the row of a Lloyd run over
    labels from the same seeds (`lloyd_assignments`, rows by sorting), and
    the sums are `_subset_sums` of the draws: L2, KL and the mean divergence,
    1 to 4 classes, 2 to 6 games, after 1, 2 and 25 assignments."""
    stopped_early = 0
    for n_games in range(2, 7):
        for n_act in (2, 3):
            prior = rng.dirichlet(np.ones(n_games))
            data = rng.dirichlet(np.ones(n_act), n_games)
            eta = rng.standard_exponential((n_games, n_act, 300))
            # game- and action-major, as model 1 holds its draws
            s = ((data[..., None] + 0.3 * eta / eta.sum(axis=1, keepdims=True)) / 1.3).transpose(2, 0, 1)
            for d in (L2, KL, mean_divergence(np.linspace(0.0, 1.0, n_act))):
                for k in range(1, 5):
                    seed = int(rng.integers(1 << 30))
                    rows = {}
                    for rounds in (1, 2, 25):
                        assign = lloyd_assignments(s, prior, k, d, np.random.default_rng(seed), rounds)
                        want = sorted_assignment_rows(assign, k)
                        keys = np.random.default_rng(seed).random(s.shape[:2])
                        monkeypatch.setattr(learning_module, "_LLOYD_ROUNDS", rounds)
                        rows[rounds], sums, mass = _lloyd_choices(s, prior, k, d, keys)
                        np.testing.assert_array_equal(rows[rounds], want)
                        want_sums, want_mass = _subset_sums(s.transpose(1, 2, 0), prior)
                        assert np.array_equal(sums, want_sums) and np.array_equal(mass, want_mass)
                    stopped_early += not np.array_equal(rows[1], rows[25])
    assert stopped_early  # the round cap binds somewhere, so the caps are told apart


def test_lloyd_step_runs_no_label_lloyd_or_class_sums(mp_setup, monkeypatch):
    """No label Lloyd iteration (`_lloyd`) or per-row class-sum kernel
    (`_class_sums`) exists in `clustering` or `learning`; under L2 and KL
    model1_step's Lloyd variant runs the subset-sum recurrence once per role
    and block (200 subjects are one block), and the mean divergence adds one
    of the projected draws."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    calls = []

    def counted(x, prior):
        calls.append(x.shape)
        return _subset_sums(x, prior)

    for name in ("_lloyd", "_class_sums"):
        assert not hasattr(learning_module, name) and not hasattr(clustering_module, name)
    monkeypatch.setattr(learning_module, "_subset_sums", counted)
    for d, per_role in ((L2, 1), (KL, 1), (mean_divergence([0.0, 1.0]), 2)):
        calls.clear()
        nxt = model1_step(env, state, (2, 3), d, PerturbationSpec(0.05, 3), n_subjects=200, clustering="lloyd")
        assert nxt.t == state.t + 1 and len(calls) == 2 * per_role, (d.kind, calls)


def test_exhaustive_player_step_runs_the_subset_sums_once(mp_setup, monkeypatch):
    """Under L2 and KL an exhaustive player-step gathers its prototypes from
    the scoring table's own subset sums, so the recurrence runs once per
    role and block (50 subjects are one block); the mean divergence, whose
    table holds projected sums, adds one."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    calls = []

    def counted(x, prior):
        calls.append(x.shape)
        return _subset_sums(x, prior)

    monkeypatch.setattr(clustering_module, "_subset_sums", counted)
    monkeypatch.setattr(learning_module, "_subset_sums", counted)
    for d, per_role in ((L2, 1), (KL, 1), (mean_divergence([0.0, 1.0]), 2)):
        calls.clear()
        model1_step(env, state, (2, 3), d, PerturbationSpec(0.05, 3), n_subjects=50)
        assert len(calls) == 2 * per_role, (d.kind, calls)


@pytest.mark.parametrize("clustering", ["global", "lloyd"])
def test_model1_step_is_the_same_in_blocks_of_subjects(mp_setup, monkeypatch, clustering):
    """A role's subjects run in blocks of `_SUBJECT_BLOCK`: with blocks of 7
    and 64 of 300 subjects (neither divides 300) model1_step's aggregates,
    shares and plays equal those of one block bit for bit, under L2, KL and
    the mean divergence, and the subset-sum recurrence runs once per role
    and block (twice under the mean divergence)."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    n = 300
    calls = []

    def counted(x, prior):
        calls.append(x.shape)
        return _subset_sums(x, prior)

    monkeypatch.setattr(clustering_module, "_subset_sums", counted)
    monkeypatch.setattr(learning_module, "_subset_sums", counted)
    for d, per_role in ((L2, 1), (KL, 1), (mean_divergence([0.0, 1.0]), 2)):
        steps = {}
        for block in (n, 7, 64):
            monkeypatch.setattr(learning_module, "_SUBJECT_BLOCK", block)
            calls.clear()
            steps[block] = model1_step(
                env, state, (2, 3), d, PerturbationSpec(0.3, 3), n_subjects=n, clustering=clustering
            )
            assert len(calls) == 2 * per_role * math.ceil(n / block), (d.kind, block)
        want = steps[n]
        assert max(len(want.lam_weights(player)) for player in (0, 1)) > 1  # blocks share partitions
        for block in (7, 64):
            got = steps[block]
            for player in (0, 1):
                assert np.array_equal(got.aggregates[player], want.aggregates[player])
                assert got.lam_weights(player) == want.lam_weights(player)
                plays, want_plays = got.profile.plays[player], want.profile.plays[player]
                assert list(plays) == list(want_plays)
                assert all(np.array_equal(plays[p], want_plays[p]) for p in want_plays)


@pytest.mark.parametrize("clustering", ["global", "lloyd"])
def test_model1_step_memory_is_bounded_by_one_block(mp_setup, monkeypatch, clustering):
    """Only the draws of a role's subjects are held for all of them; its
    sums, choices and payoffs are held for one block at a time, so at
    100,000 subjects a matching-pennies step peaks under a third of its
    peak as one block."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    n = 100_000

    def peak():
        tracemalloc.start()
        try:
            model1_step(env, state, (2, 3), L2, PerturbationSpec(0.05, 3), n_subjects=n, clustering=clustering)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = peak()
    monkeypatch.setattr(learning_module, "_SUBJECT_BLOCK", n)
    assert blocked < peak() / 3


def test_measurement_draws_equal_numpy_normalization():
    """draw_measurement's per-action sum rounds as numpy's sum of the last axis."""
    for n_act in (2, 3, 5):
        draws = np.random.default_rng(n_act).standard_exponential((2000, 4, n_act))
        got = PerturbationSpec(0.2).draw_measurement(np.random.default_rng(n_act), draws.shape)
        assert np.array_equal(got, draws / draws.sum(axis=-1, keepdims=True))


def test_measurement_normalized_block_by_block_equals_the_whole_array():
    """Model 1 normalizes its raw exponentials block by block, each block's
    slice written into game- and action-major memory: every block equals
    the whole-array `draws / draws.sum(-1)`, for 2, 3 and 5 actions and
    blocks that do not divide the subjects."""
    n = 1000
    for n_act in (2, 3, 5):
        draws = np.random.default_rng(n_act).standard_exponential((n, 4, n_act))
        want, kept = draws / draws.sum(axis=-1, keepdims=True), draws.copy()
        for block in (7, 64, 333):
            for lo in range(0, n, block):
                part = draws[lo : lo + block]
                out = np.empty((4, n_act, len(part))).transpose(2, 0, 1)
                PerturbationSpec.normalized(part.T, out.T)  # actions first, subjects last
                assert np.array_equal(out, want[lo : lo + block]), (n_act, block, lo)
        assert np.array_equal(draws, kept)  # written into `out` only


def test_payoff_draw_is_the_uniform_draw():
    """draw_payoff's `rng.random` gives `rng.uniform(0.0, 1.0)` draw for
    draw and leaves the generator in the same state, so the stream after it
    is unchanged."""
    for seed, shape in ((0, (5000, 3, 2)), (1, (7, 4, 3)), (2, (1, 1, 2))):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = PerturbationSpec(0.1).draw_payoff(ours, shape)
            assert np.array_equal(got, theirs.uniform(0.0, 1.0, size=shape))
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(ours.standard_exponential(5), theirs.standard_exponential(5))


def test_model1_rejects_bad_noise_and_subject_counts(mp_setup):
    """A non-finite or negative noise scale, and fewer than one subject on the
    noisy path, raise a ValueError naming the value (a NaN scale made every
    subject play action 0 with drift 0)."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    for eps in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ValueError, match=f"epsilon={eps!r}"):
            PerturbationSpec(eps, 1)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"n_subjects must be at least 1, got {n}"):
            model1_run(env, state, 2, (2, 3), L2, PerturbationSpec(0.05, 1), n_subjects=n)
    # the zero-noise step has no subjects to count
    assert model1_step(env, state, (2, 3), L2, PerturbationSpec(0.0), n_subjects=0).t == 1


def test_model1_rejects_unknown_options(mp_setup):
    """A misspelt clustering or tie-break raises, naming the allowed values,
    with and without noise."""
    env, cand = mp_setup
    state = state_from_candidate(env, cand)
    for option, allowed in (({"clustering": "loyd"}, "'lloyd'"), ({"tie_break": "incumbnet"}, "'incumbent'")):
        for eps in (0.0, 0.05):
            with pytest.raises(ValueError, match=allowed):
                model1_step(env, state, (2, 3), L2, PerturbationSpec(eps), n_subjects=10, **option)


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
    """KL takes 0*ln(0) = 0: game 2 sits on its seed [0, 1] at distance 0,
    in the Lloyd variant as in its label reference and in kmeans_lloyd."""
    s = np.array([[[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]])
    prior = np.full(4, 0.25)
    assert np.random.default_rng(0).random((1, 4)).argsort(axis=1)[0, :2].tolist() == [3, 2]
    assign = lloyd_assignments(s, prior, 2, KL, np.random.default_rng(0))
    choice, _, _ = _lloyd_choices(s, prior, 2, KL, np.random.default_rng(0).random(s.shape[:2]))
    rep = kmeans_lloyd(s[0], prior, 2, KL, s[0, [3, 2]])
    assert rep.partition == Partition.from_classes(4, [(0, 1, 3), (2,)])
    assert Partition.from_assignment(assign[0]) == rep.partition
    assert partition_list(4, 2)[choice[0]] == rep.partition


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
