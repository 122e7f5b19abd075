import numpy as np
import pytest

from cabee.abee import StrategyProfile, abee_solve, degenerate_pair
from cabee.clustering import KL, L2
from cabee.env import make_environment, nash_solve_2x2
from cabee.equilibrium import (
    GLOBAL,
    LOCAL,
    EquilibriumCandidate,
    SearchConfig,
    _quadratic_roots,
    cabee_verify,
    cd_abee_search,
    cd_abee_verify,
    grand_map,
    grand_map_contains,
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
    bundling_partitions,
    solve_monitoring_cdabee,
)
from conftest import dominant_env


def test_single_game_trivially_clustered():
    env = make_environment(
        [1.0], [[[1.5], [0.0]], [[0.0], [1.0]]], [[[0.0], [1.0]], [[1.0], [0.0]]]
    )
    fin = Partition.finest(1)
    row, col = nash_solve_2x2(env, 0)
    prof = StrategyProfile(plays=({fin: row[None, :]}, {fin: col[None, :]}))
    for mode in (LOCAL, GLOBAL):
        assert cabee_verify(env, (fin, fin), prof, mode, L2, capacities=(1, 1)).ok


def test_matching_pennies_two_class_partitions_fail(mp_env, finest3):
    from cabee.partitions import partition_list

    for part in (p for p in partition_list(3, 2) if p.n_classes == 2):
        (prof,) = abee_solve(mp_env, (part, finest3))
        for mode in (LOCAL, GLOBAL):
            rep = cabee_verify(mp_env, (part, finest3), prof, mode, L2, capacities=(2, 3))
            assert not rep.ok
            assert rep.clustering_failures


def test_monitoring_prop5_candidate_verifies_both_modes():
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)
    env = build_monitoring(spec)
    (cand,) = solve_monitoring_cdabee(spec, GLOBAL, L2).candidates
    assert cd_abee_verify(env, cand, (2, 3)).ok
    local_view = EquilibriumCandidate(cand.lams, cand.profile, LOCAL, L2)
    assert cd_abee_verify(env, local_view, (2, 3)).ok  # global implies local


def test_monitoring_out_of_range_shirking_fails_l2_but_not_kl():
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.45, 0.3)
    env, cand = _candidate_at(spec, 0.9, LOCAL, L2)
    assert not cd_abee_verify(env, cand, (2, 3)).ok
    env, cand_kl = _candidate_at(spec, 0.9, LOCAL, KL)
    assert cd_abee_verify(env, cand_kl, (2, 3)).ok


def test_mode_monotonicity_on_found_candidates():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cand = solve_matching_pennies_cdabee(spec)
    local_view = EquilibriumCandidate(cand.lams, cand.profile, LOCAL, cand.divergence)
    assert cd_abee_verify(env, local_view, (2, 3)).ok


# ---------------------------------------------------------------------------
# the grand mapping
# ---------------------------------------------------------------------------


def test_fixed_point_membership_iff_verified():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cand = solve_matching_pennies_cdabee(spec)
    assert grand_map_contains(env, cand, (2, 3))
    # nudging the column mixture breaks both characterizations
    fin = Partition.finest(3)
    bad_col = np.asarray(cand.profile.plays[1][fin]).copy()
    bad_col[0] = [0.9, 0.1]
    bad_prof = StrategyProfile(plays=(dict(cand.profile.plays[0]), {fin: bad_col}))
    bad = EquilibriumCandidate(cand.lams, bad_prof, GLOBAL, L2)
    assert not grand_map_contains(env, bad, (2, 3))
    assert not cd_abee_verify(env, bad, (2, 3)).ok


def test_grand_map_reassigns_monitoring_bundle():
    """From the equilibrium at the a-bundling, the clustering stage moves
    the responsive type next to the always-working type."""
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)
    env = build_monitoring(spec)
    an_ac, an_bc = bundling_partitions()
    fin = Partition.finest(3)
    (prof,) = abee_solve(env, (an_ac, fin))
    state = EquilibriumCandidate(degenerate_pair(an_ac, fin), prof, GLOBAL, L2)
    image = grand_map(env, state, (2, 3))
    admissible = {p.key() for p in image.admissible_partitions[0]}
    assert an_bc.key() in admissible
    assert an_ac.key() not in admissible
    assert not grand_map_contains(env, state, (2, 3))


def test_grand_map_constant_for_dominant_env():
    env = dominant_env()
    fin = Partition.finest(3)
    coarse = Partition.coarsest(3)
    pure0 = np.tile([1.0, 0.0], (3, 1))
    prof = StrategyProfile(plays=({coarse: pure0}, {fin: pure0}))
    state = EquilibriumCandidate(degenerate_pair(coarse, fin), prof, GLOBAL, L2)
    image1 = grand_map(env, state, (2, 3))
    # successors are unique vertex profiles; applying the map again from any
    # successor yields the same image (data independent of partitions)
    assert len(image1.vertex_profiles) == 1
    succ = EquilibriumCandidate(state.lams, image1.vertex_profiles[0], GLOBAL, L2)
    image2 = grand_map(env, succ, (2, 3))
    np.testing.assert_allclose(
        image1.vertex_profiles[0].plays[0][coarse], image2.vertex_profiles[0].plays[0][coarse]
    )
    assert {p.key() for p in image1.admissible_partitions[0]} == {
        p.key() for p in image2.admissible_partitions[0]
    }


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mp_search():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cfg = SearchConfig(lambda_step=0.01, layer1_budget_s=15.0, layer2_budget_s=25.0)
    return spec, env, cd_abee_search(env, (2, 3), GLOBAL, L2, cfg)


def test_search_refutes_pure_candidates(mp_search):
    _, _, result = mp_search
    assert result.pure_exhaustively_refuted


def test_search_recovers_closed_form(mp_search):
    spec, env, result = mp_search
    cand = solve_matching_pennies_cdabee(spec)
    target_col = cand.aggregates()[1][:, 0]
    hits = [
        c
        for c in result.candidates
        if np.allclose(c.aggregates()[1][:, 0], target_col, atol=1e-7)
        and {p.key() for p in c.lams[0].support} == {p.key() for p in cand.lams[0].support}
        and np.allclose(sorted(c.lams[0].weights), [0.5, 0.5], atol=1e-9)
    ]
    assert hits


def test_search_candidates_all_verify(mp_search):
    _, env, result = mp_search
    assert result.candidates
    for cand in result.candidates:
        assert cd_abee_verify(env, cand, (2, 3)).ok
        assert grand_map_contains(env, cand, (2, 3))


def test_search_candidates_consistent_across_characterizations(rng):
    """Three-way consistency on random environments: every candidate the
    search returns passes the payoff-gain verification, belongs to its own
    successor set, and is a rest point of the matching dynamics."""
    from cabee.clustering import KL
    from cabee.learning import state_from_candidate, steady_state_check

    found = 0
    for trial in range(6):
        n = int(rng.integers(2, 4))
        prior = rng.dirichlet(np.ones(n) * 5)
        env = make_environment(prior, rng.normal(size=(2, 2, n)), rng.normal(size=(2, 2, n)))
        caps = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        mode = (GLOBAL, LOCAL)[trial % 2]
        d = (L2, KL)[trial % 2]
        cfg = SearchConfig(lambda_step=0.1, layer1_budget_s=5, layer2_budget_s=5, max_candidates=10)
        for cand in cd_abee_search(env, caps, mode, d, cfg).candidates:
            found += 1
            assert cd_abee_verify(env, cand, caps).ok
            assert grand_map_contains(env, cand, caps)
            state = state_from_candidate(env, cand)
            steady, _ = steady_state_check(env, state, mode, d, caps)
            assert steady
    assert found >= 10


def test_search_finds_monitoring_candidate():
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)
    env = build_monitoring(spec)
    cfg = SearchConfig(lambda_step=0.1, layer1_budget_s=10.0, layer2_budget_s=30.0)
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, cfg)
    assert result.pure_exhaustively_refuted
    an_ac, an_bc = bundling_partitions()
    hits = []
    for cand in result.candidates:
        weights = {p.key(): w for p, w in zip(cand.lams[0].partitions, cand.lams[0].weights)}
        if set(weights) == {an_ac.key(), an_bc.key()} and weights[an_ac.key()] == pytest.approx(0.3, abs=1e-9):
            zeta = cand.profile.plays[1][Partition.finest(3)][2, 0]
            if zeta == pytest.approx(0.5, abs=1e-7):
                hits.append(cand)
    assert hits


def test_quadratic_roots_keep_tangent_double_roots(rng):
    # a perfect-square residual touches zero once; rounding in the fitted
    # coefficients gives its discriminant either sign, and the root must stay
    cases = ((0.5, 0.0, 1.0), (0.3, 0.1, 0.9), (1 / 3, 0.0, 1.0), (0.1, 0.1, 0.9), (0.9, 0.1, 0.9))
    for r, lo, hi in cases:
        roots = _quadratic_roots(lambda t: 2.5 * (t - r) ** 2, lo, hi)
        assert roots and max(abs(t - r) for t in roots) <= 1e-6, (r, lo, hi, roots)
    for _ in range(500):
        lo = rng.uniform(-2, 2)
        hi = lo + 10 ** rng.uniform(-3, 0.5)
        k = 10 ** rng.uniform(-3, 2)
        for r in (rng.uniform(lo, hi), lo, hi):  # interior and both endpoints
            roots = _quadratic_roots(lambda t: k * (t - r) ** 2, lo, hi)
            assert roots and max(abs(t - r) for t in roots) <= 1e-6, (r, lo, hi, k, roots)
            # lifted clear of the tolerance it has no root; negated it is the same tangent
            lift = 1e-8 * max(1.0, k * (hi - lo) ** 2)
            assert _quadratic_roots(lambda t: k * (t - r) ** 2 + lift, lo, hi) == []
            assert _quadratic_roots(lambda t: -k * (t - r) ** 2, lo, hi)


def test_quadratic_roots_distinct_linear_and_constant():
    assert _quadratic_roots(lambda t: (t - 0.2) * (t - 0.7), 0.0, 1.0) == pytest.approx([0.2, 0.7])
    assert _quadratic_roots(lambda t: (t - 0.2) * (t - 1.7), 0.0, 1.0) == pytest.approx([0.2])
    assert _quadratic_roots(lambda t: 0.3 * t - 0.1, 0.0, 1.0) == pytest.approx([1 / 3])
    assert _quadratic_roots(lambda t: 0.0 * t, 0.0, 1.0) is None
    # tiny and symmetric: neither constant nor linear, and no division by zero
    assert _quadratic_roots(lambda t: 4e-20 * (t - 0.5) ** 2, 0.0, 1.0) == pytest.approx([0.5, 0.5])
    assert _quadratic_roots(lambda t: 0.0 * t + 1.0, 0.0, 1.0) == []
