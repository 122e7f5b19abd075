import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from cabee import equilibrium
from cabee import clustering
from cabee.abee import (
    DEDUP_TOL,
    PartitionDistribution,
    StrategyProfile,
    abee_solve,
    aggregate,
    degenerate_pair,
    dist_abee_solve_detailed,
    dist_abee_solve_runs,
    dist_abee_verify,
    stack_plays,
    unstack_plays,
)
from cabee.clustering import KL, L2, dispersion, global_cluster, is_locally_clustered, mean_divergence
from cabee.env import make_environment, nash_solve_2x2
from cabee.equilibrium import (
    FAMILY_INSET,
    GLOBAL,
    LOCAL,
    EquilibriumCandidate,
    SearchConfig,
    _bracket_roots,
    _quadratic_roots,
    _refine_run,
    cabee_verify,
    cd_abee_search,
    cd_abee_verify,
    cd_abee_verify_batch,
    clustered_partition_set,
    grand_map_contains,
    unclustered,
)
from cabee.partitions import Partition, partition_list
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
from conftest import dominant_env, grand_map, patch_solver, solved_profile


def _refine_one(env, lams, res, mode, d, capacities):
    """The candidates of one solve: `_refine_run` of a run of one."""
    (found,) = _refine_run(env, [lams], [res], mode, d, capacities)
    return found


def _candidate_key(candidate: EquilibriumCandidate):
    parts = []
    for player in (0, 1):
        lam = candidate.lams[player]
        entries = sorted(
            (part.key(), round(w / DEDUP_TOL))
            for part, w in zip(lam.partitions, lam.weights)
        )
        strat_bits = tuple(
            (part.key(), tuple(np.round(candidate.profile.plays[player][part].ravel() / DEDUP_TOL).astype(np.int64)))
            for part, _ in sorted(zip(lam.partitions, lam.weights), key=lambda pw: pw[0].key())
        )
        parts.append((tuple(entries), strat_bits))
    return tuple(parts)


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
    cfg = SearchConfig(lambda_step=0.01, max_evaluations=650)
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


def test_search_candidates_consistent_across_characterizations(monkeypatch, rng):
    """Three-way consistency on random environments: every candidate the
    search returns passes the payoff-gain verification, belongs to its own
    successor set, and is a rest point of the matching dynamics."""
    from cabee.clustering import KL
    from cabee.learning import state_from_candidate, steady_state_check

    monkeypatch.setattr(equilibrium, "MAX_CANDIDATES", 10)
    found = 0
    for trial in range(6):
        n = int(rng.integers(2, 4))
        prior = rng.dirichlet(np.ones(n) * 5)
        env = make_environment(prior, rng.normal(size=(2, 2, n)), rng.normal(size=(2, 2, n)))
        caps = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        mode = (GLOBAL, LOCAL)[trial % 2]
        d = (L2, KL)[trial % 2]
        cfg = SearchConfig(lambda_step=0.1)
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
    cfg = SearchConfig(lambda_step=0.1)
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


@pytest.fixture(scope="module")
def mp_half_grid():
    """Matching pennies (0.5, 1, 1.5) searched on the {1/2} weight grid:
    20 degenerate pairs, then 70 pair-support branches."""
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    return env, cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))


def test_search_does_not_depend_on_the_clock(mp_half_grid, monkeypatch):
    env, expected = mp_half_grid
    now = [time.monotonic()]

    def hour_per_read():
        now[0] += 3600.0
        return now[0]

    monkeypatch.setattr(time, "monotonic", hour_per_read)
    got = cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert got.layers == expected.layers
    assert [_candidate_key(c) for c in got.candidates] == [
        _candidate_key(c) for c in expected.candidates
    ]


@pytest.mark.parametrize(
    "budget, layers",
    [
        (19, [(False, 19), (False, 0)]),
        (20, [(True, 20), (False, 0)]),
        (21, [(True, 20), (False, 1)]),
        (90, [(True, 20), (True, 70)]),
    ],
)
def test_search_evaluation_budget(mp_half_grid, budget, layers):
    """One count for both layers: layer 1 spends first, layer 2 gets the
    rest, and a layer that runs out reports completed=False."""
    env, default = mp_half_grid
    cfg = SearchConfig(lambda_step=0.5, max_evaluations=budget)
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, cfg)
    assert [rep.name for rep in result.layers] == ["degenerate", "pair-support"]
    assert [(rep.completed, rep.evaluations) for rep in result.layers] == layers
    if budget == 90:
        assert [_candidate_key(c) for c in result.candidates] == [
            _candidate_key(c) for c in default.candidates
        ]


def test_layer_two_branches_are_built_as_the_search_takes_them():
    """A search of one solve builds none of layer 2's branches but the one
    it looks past the budget: at 6 games, capacities (2, 3), there are
    296,704 (every pair of one player's partitions against every partition
    of the other), which as a list made a tracemalloc peak of about 21 MiB;
    the search's peak stays under 4 MiB."""
    import tracemalloc

    rng = np.random.default_rng(6)
    env = make_environment(np.full(6, 1 / 6), rng.integers(-2, 3, size=(2, 2, 6)),
                           rng.integers(-2, 3, size=(2, 2, 6)))
    config = SearchConfig(max_evaluations=1)
    cd_abee_search(env, (2, 3), GLOBAL, L2, config)  # fills the partition table's cache
    tracemalloc.start()
    try:
        result = cd_abee_search(env, (2, 3), GLOBAL, L2, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(rep.completed, rep.evaluations) for rep in result.layers] == [(False, 1), (False, 0)]
    assert peak < 4 * 2**20


def _reference_search(env, capacities, mode, d, config):
    """`cd_abee_search` as a loop of one-support solves: each support is
    solved by `dist_abee_solve_detailed` right after the budget and
    candidate checks."""
    result, seen = equilibrium.SearchResult(), set()
    parts = tuple(partition_list(env.n_games, capacities[pl]) for pl in (0, 1))
    branches = [
        (mix, pair, other)
        for mix in (0, 1)
        for pair in itertools.combinations(parts[mix], 2)
        for other in sorted(parts[1 - mix], key=lambda p: -p.n_classes)
    ]

    def mixed(w, mix, pair, other):
        lams = (PartitionDistribution(pair, (w, round(1 - w, 12))), PartitionDistribution.degenerate(other))
        return lams if mix == 0 else lams[::-1]

    layers = (
        ("degenerate", [degenerate_pair(an0, an1) for an0, an1 in itertools.product(*parts)]),
        ("pair-support", [mixed(w, *b) for w in equilibrium._lambda_grid(config.lambda_step) for b in branches]),
    )
    budget = config.max_evaluations
    for name, supports in layers:
        evaluations = found = 0
        completed = True
        for lams in supports:
            if evaluations >= budget or len(result.candidates) >= equilibrium.MAX_CANDIDATES:
                completed = False
                break
            res = dist_abee_solve_detailed(env, lams)
            evaluations += 1
            completed &= res.exact
            if name == "degenerate" and d.kind == clustering.KULLBACK_LEIBLER:
                result.sampled_pure_families += len(res.continua)
            for cand in _refine_one(env, lams, res, mode, d, capacities):
                if _candidate_key(cand) not in seen:
                    seen.add(_candidate_key(cand))
                    result.candidates.append(cand)
                    found += 1
        budget -= evaluations
        result.layers.append(equilibrium.LayerReport(name, completed, evaluations, found))
    return result


@pytest.mark.parametrize(
    "mode, d, max_evaluations, pair_layer",
    [
        (LOCAL, L2, 10_000, (False, 1)),  # MAX_CANDIDATES after 1 of 70 solves
        (GLOBAL, L2, 50, (False, 30)),  # max_evaluations in the middle of layer 2
        (GLOBAL, L2, 20, (False, 0)),
        (GLOBAL, KL, 35, (False, 15)),
    ],
    ids=["local-max-candidates", "max-evaluations-in-layer-2", "max-evaluations-at-layer-end", "global-kl"],
)
def test_search_stops_where_one_support_solves_stop(mode, d, max_evaluations, pair_layer):
    """The search's lazy stream of solves gives the layer reports, the
    candidates in order and the sampled families of a loop that solves one
    support at a time, and so stops where that loop stops."""
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    config = SearchConfig(lambda_step=0.5, max_evaluations=max_evaluations)
    got = cd_abee_search(env, (2, 3), mode, d, config)
    ref = _reference_search(env, (2, 3), mode, d, config)
    assert got.layers == ref.layers
    assert (got.layers[1].completed, got.layers[1].evaluations) == pair_layer
    assert [_candidate_key(c) for c in got.candidates] == [_candidate_key(c) for c in ref.candidates]
    assert got.sampled_pure_families == ref.sampled_pure_families
    assert (got.sampled_pure_families > 0) == (d is KL)


@pytest.mark.parametrize("mode", [GLOBAL, LOCAL])
@pytest.mark.parametrize("d", [L2, KL], ids=["l2", "kl"])
def test_no_two_candidates_of_a_search_share_a_key(monkeypatch, mode, d):
    """Each solve of a search has its own supports and weights, and drops
    its own repeated candidates, so no two candidates of one search agree
    to DEDUP_TOL: no candidate set across the search is needed."""
    rng = np.random.default_rng(2901)
    envs = [build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))] + [
        make_environment(rng.dirichlet(np.ones(3) * 5), rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 3)))
        for _ in range(3)
    ]
    monkeypatch.setattr(equilibrium, "MAX_CANDIDATES", 200)
    found = 0
    for env in envs:
        config = SearchConfig(lambda_step=0.5, max_evaluations=60)
        keys = [_candidate_key(c) for c in cd_abee_search(env, (2, 3), mode, d, config).candidates]
        assert len(set(keys)) == len(keys)
        found += len(keys)
    assert found


@pytest.mark.parametrize("mode, d", [(GLOBAL, L2), (LOCAL, L2), (GLOBAL, KL)], ids=["global-l2", "local-l2", "global-kl"])
def test_search_result_does_not_depend_on_its_run_mates(monkeypatch, mode, d):
    """The search refines each run of solves at once; each support's
    candidates are the same, in the same order, as when every run holds one
    support (`abee._RUN_SUPPORTS` = 1), and so are the layer reports and the
    sampled families: on matching pennies, whose local search stops by
    `MAX_CANDIDATES` in the middle of its first pair-layer run, and on two
    random 3-game environments."""
    from cabee import abee

    rng = np.random.default_rng(3101)
    envs = [build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))] + [
        make_environment(rng.dirichlet(np.ones(3) * 3), rng.integers(-2, 3, (2, 2, 3)), rng.integers(-2, 3, (2, 2, 3)))
        for _ in range(2)
    ]
    config, runs = SearchConfig(lambda_step=0.5), abee._RUN_SUPPORTS
    assert runs > 1
    for k, env in enumerate(envs):
        monkeypatch.setattr(abee, "_RUN_SUPPORTS", runs)
        together = cd_abee_search(env, (2, 3), mode, d, config)
        monkeypatch.setattr(abee, "_RUN_SUPPORTS", 1)
        alone = cd_abee_search(env, (2, 3), mode, d, config)
        assert together.layers == alone.layers
        assert together.sampled_pure_families == alone.sampled_pure_families
        assert len(together.candidates) == len(alone.candidates)
        for a, b in zip(together.candidates, alone.candidates):
            assert (a.lams, a.mode, a.divergence) == (b.lams, b.mode, b.divergence)
            for player in (0, 1):
                for part in a.lams[player].support:
                    assert np.array_equal(a.profile.plays[player][part], b.profile.plays[player][part])
        if k == 0 and mode == LOCAL:
            assert (together.layers[1].completed, together.layers[1].evaluations) == (False, 1)


def _roots_of(f, lo, hi):
    """_quadratic_roots of f, sampled at both ends and the middle: its roots
    in order, or None where f vanishes identically."""
    roots, vanishing = _quadratic_roots(np.array([[f(lo), f((lo + hi) / 2), f(hi)]]), np.array([lo]), np.array([hi]))
    return None if vanishing[0] else roots[0][~np.isnan(roots[0])].tolist()


def _loop_quadratic_roots(samples, lo: float, hi: float) -> list[float] | None:
    """The per-function routine that `_quadratic_roots` replaces: roots in
    [lo, hi] of one quadratic from its values at lo, (lo + hi) / 2 and hi,
    or None when it vanishes identically."""
    mid = (lo + hi) / 2
    y0, y1, y2 = samples
    h = hi - lo
    if h <= 0:
        return []
    a = 2 * (y0 - 2 * y1 + y2) / h**2
    b = (y2 - y0) / h
    c = y1
    scale = max(abs(y0), abs(y1), abs(y2), 1e-30)
    if abs(a) < 1e-12 * scale / max(h, 1e-12) ** 2 and abs(b) < 1e-12 * scale / max(h, 1e-12):
        return None if abs(c) <= 1e-11 * max(scale, 1.0) else []
    if abs(a) < 1e-14 and b != 0:
        roots = [-c / b]
    else:
        disc = b * b - 4 * a * c
        if abs(disc) <= 4 * abs(a) * 1e-12 * max(scale, 1.0):
            disc = 0.0
        elif disc < 0:
            return []
        q = -(b - math.sqrt(disc)) / 2 if b < 0 else -(b + math.sqrt(disc)) / 2
        if q == 0:
            roots = [0.0, 0.0]
        else:
            roots = [c / q, q / a] if b < 0 else [q / a, c / q]
    return [float(mid + r) for r in roots if lo - 1e-12 <= mid + r <= hi + 1e-12]


def test_quadratic_roots_keep_tangent_double_roots(rng):
    # a perfect-square residual touches zero once; rounding in the fitted
    # coefficients gives its discriminant either sign, and the root must stay
    cases = ((0.5, 0.0, 1.0), (0.3, 0.1, 0.9), (1 / 3, 0.0, 1.0), (0.1, 0.1, 0.9), (0.9, 0.1, 0.9))
    for r, lo, hi in cases:
        roots = _roots_of(lambda t: 2.5 * (t - r) ** 2, lo, hi)
        assert roots and max(abs(t - r) for t in roots) <= 1e-6, (r, lo, hi, roots)
    for _ in range(500):
        lo = rng.uniform(-2, 2)
        hi = lo + 10 ** rng.uniform(-3, 0.5)
        k = 10 ** rng.uniform(-3, 2)
        for r in (rng.uniform(lo, hi), lo, hi):  # interior and both endpoints
            roots = _roots_of(lambda t: k * (t - r) ** 2, lo, hi)
            assert roots and max(abs(t - r) for t in roots) <= 1e-6, (r, lo, hi, k, roots)
            # lifted clear of the tolerance it has no root; negated it is the same tangent
            lift = 1e-8 * max(1.0, k * (hi - lo) ** 2)
            assert _roots_of(lambda t: k * (t - r) ** 2 + lift, lo, hi) == []
            assert _roots_of(lambda t: -k * (t - r) ** 2, lo, hi)


def test_quadratic_roots_distinct_linear_and_constant():
    assert _roots_of(lambda t: (t - 0.2) * (t - 0.7), 0.0, 1.0) == pytest.approx([0.2, 0.7])
    assert _roots_of(lambda t: (t - 0.2) * (t - 1.7), 0.0, 1.0) == pytest.approx([0.2])
    assert _roots_of(lambda t: 0.3 * t - 0.1, 0.0, 1.0) == pytest.approx([1 / 3])
    assert _roots_of(lambda t: 0.0 * t, 0.0, 1.0) is None
    # tiny and symmetric: neither constant nor linear, and no division by zero
    assert _roots_of(lambda t: 4e-20 * (t - 0.5) ** 2, 0.0, 1.0) == pytest.approx([0.5, 0.5])
    assert _roots_of(lambda t: 0.0 * t + 1.0, 0.0, 1.0) == []


def test_quadratic_roots_equal_the_per_function_loop_bit_for_bit(rng):
    """The array routine performs the loop's operations in the same order:
    on tangent, linear and constant cases and on 10,000 random sample
    triples it gives the same roots, bit for bit, and flags exactly the
    functions for which the loop returns None."""
    cases = []
    for _ in range(1000):
        lo = rng.uniform(-2, 2)
        hi = lo + 10 ** rng.uniform(-3, 0.5)
        k, r, u = 10 ** rng.uniform(-3, 2), rng.uniform(lo, hi), rng.uniform(lo - 1, hi + 1)
        for f in (
            lambda t: k * (t - r) ** 2,
            lambda t: -k * (t - r) ** 2 + 1e-13,
            lambda t: k * (t - u),
            lambda t: 0.0 * t + k,
            lambda t: 0.0 * t,
            lambda t: 1e-20 * (t - r) ** 2,
        ):
            cases.append(((f(lo), f((lo + hi) / 2), f(hi)), lo, hi))
    for _ in range(10_000):
        lo = rng.uniform(-2, 2)
        hi = lo + 10 ** rng.uniform(-6, 1)
        y = rng.normal(size=3) * 10 ** rng.uniform(-14, 3, size=3)
        y[rng.random(3) < 0.1] = 0.0
        cases.append((tuple(y.tolist()), lo, hi))
    samples = np.array([c[0] for c in cases])
    lo, hi = np.array([c[1] for c in cases]), np.array([c[2] for c in cases])
    roots, vanishing = _quadratic_roots(samples, lo, hi)
    kinds = set()
    for (y, a, b), row, flat in zip(cases, roots, vanishing):
        ref = _loop_quadratic_roots(y, a, b)
        assert flat == (ref is None), (y, a, b)
        got = row[~np.isnan(row)]
        assert got.tobytes() == np.array(ref or [], dtype=float).tobytes(), (y, a, b, ref, got)
        kinds.add(-1 if ref is None else len(ref))
    assert kinds == {-1, 0, 1, 2}


# ---------------------------------------------------------------------------
# continuum refinement against the per-family reference
# ---------------------------------------------------------------------------


def _loop_bracket_roots(f, lo, hi, samples=17, iters=80):
    ts = np.linspace(lo, hi, samples)
    ys = [f(t) for t in ts]
    roots = []
    for i in range(samples - 1):
        if not np.isfinite(ys[i]) or not np.isfinite(ys[i + 1]):
            continue
        if ys[i] == 0.0:
            roots.append(float(ts[i]))
        if ys[i] * ys[i + 1] < 0:
            a, b = float(ts[i]), float(ts[i + 1])
            fa = ys[i]
            for _ in range(iters):
                m = (a + b) / 2
                fm = f(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append((a + b) / 2)
    if ys and np.isfinite(ys[-1]) and ys[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots


def _loop_refine_continuum(env, lams, res, k, mode, d, capacities, local_samples, seen):
    """The per-family refinement of family k of `res` before the margin
    cover: the roots of the global tie residual (`_loop_quadratic_roots`,
    or bracketing under KL), else a sweep of `local_samples` points; `seen`
    is shared by the families of one solve."""
    (base, direction), (t_lo, t_hi) = res.continua[k], res.spans[k].tolist()
    mix_player = None
    for player in (0, 1):
        if len(lams[player].support) == 2:
            mix_player = player
    out = []

    def make_candidate(t):
        x = base + t * direction
        point_key = tuple(np.round(x / DEDUP_TOL).astype(np.int64))
        if point_key in seen:
            return None
        seen.add(point_key)
        cand = EquilibriumCandidate(lams, solved_profile(res, lams, k, t), mode, d)
        return cand if cd_abee_verify(env, cand, capacities).ok else None

    lo = t_lo + 1e-12
    hi = t_hi - 1e-12
    if hi <= lo:
        return out
    if mode == GLOBAL and mix_player is not None:
        part_a, part_b = lams[mix_player].support

        def residual(t):
            data = aggregate(solved_profile(res, lams, k, t), lams)[1 - mix_player]
            return dispersion(data, part_a, env.prior, d) - dispersion(data, part_b, env.prior, d)

        if d.kind == "kullback-leibler":
            roots = _loop_bracket_roots(residual, lo, hi)
        else:
            roots = _loop_quadratic_roots((residual(lo), residual((lo + hi) / 2), residual(hi)), lo, hi)
        if roots is not None:
            for t in roots:
                cand = make_candidate(min(max(t, lo), hi))
                if cand is not None:
                    out.append(cand)
            return out
    for t in np.linspace(lo, hi, local_samples):
        cand = make_candidate(float(t))
        if cand is not None:
            out.append(cand)
    return out


def _families(res, index=slice(None)):
    """The result that holds the families `index` of `res` and no profile."""
    return dataclasses.replace(res, profiles=res.profiles[:0], continua=res.continua[index], spans=res.spans[index])


def _family_ts(res, fam, lams, cands):
    """t of each candidate on family `fam` of `res`, located by least squares
    on its stacked plays, or None where the candidate is off the family."""
    (base, direction), (t_lo, t_hi) = res.continua[fam], res.spans[fam].tolist()
    ends = res.plays(base + np.array([t_lo, t_hi])[:, None] * direction)
    start, stop = (np.concatenate([ends[0][k].ravel(), ends[1][k].ravel()]) for k in (0, 1))
    span = stop - start
    out = []
    for cand in cands:
        x = np.concatenate([p.ravel() for p in stack_plays(cand.profile, lams)])
        s = float((x - start) @ span / (span @ span))
        on = np.abs(start + s * span - x).max() <= 1e-9
        out.append(t_lo + s * (t_hi - t_lo) if on else None)
    return out


def _assert_cover_meets_reference_stretches(env, lams, res, mode, d, got):
    """Every cover point verifies, and every point the sweep reference
    admits lies on a clustered stretch of its family (found by a sweep of
    401 points, widened by one step) that holds an admitted cover point of
    the same family."""
    for cand in got:
        assert cd_abee_verify(env, cand, (2, 3)).ok
    seen: set = set()
    for k, (base, direction) in enumerate(res.continua):
        ref = _loop_refine_continuum(env, lams, res, k, mode, d, (2, 3), 9, seen)
        if not ref:
            continue
        t_lo, t_hi = res.spans[k].tolist()
        ts = np.linspace(t_lo + 1e-12, t_hi - 1e-12, 401)
        swept = cd_abee_verify_batch(env, lams, res.plays(base + ts[:, None] * direction), mode, d, (2, 3))
        failing = np.flatnonzero([not rep.ok for rep in swept])
        covered = [t for t in _family_ts(res, k, lams, got) if t is not None]
        for t in _family_ts(res, k, lams, ref):
            i = np.searchsorted(ts, t)
            below, above = failing[failing < i], failing[failing >= i]
            a, b = ts[below[-1] if len(below) else 0], ts[above[0] if len(above) else -1]
            assert any(a <= u <= b for u in covered), (t, a, b, covered)


def _assert_refinement_matches_reference(env, lams, res, mode, d):
    """The refinement of the families of `res` (a result with no profile)
    equals the per-family reference bit for bit; in local L2, where the
    reference only sweeps 9 points per family, the cover meets each of its
    stretches instead."""
    got = _refine_one(env, lams, res, mode, d, (2, 3))
    if (mode, d) == (LOCAL, L2):
        _assert_cover_meets_reference_stretches(env, lams, res, mode, d, got)
        return len(got)
    seen: set = set()
    ref = [
        cand
        for k in range(len(res.continua))
        for cand in _loop_refine_continuum(env, lams, res, k, mode, d, (2, 3), 9, seen)
    ]
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.lams, a.mode, a.divergence) == (b.lams, b.mode, b.divergence)
        for x, y in zip(a.aggregates(), b.aggregates()):
            assert x.tobytes() == y.tobytes()
    return len(got)


REFINE_SETTINGS = ((GLOBAL, L2), (GLOBAL, mean_divergence([1.0, 0.0])), (GLOBAL, KL), (LOCAL, L2))


def _mp_row_mixing():
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    an_a = Partition.from_classes(3, [(0,), (1, 2)])
    an_c = Partition.from_classes(3, [(2,), (0, 1)])
    fin = PartitionDistribution.degenerate(Partition.finest(3))
    return env, (PartitionDistribution((an_a, an_c), (0.5, 0.5)), fin)


def test_refine_continua_matches_per_family_reference():
    mp_env, mp_lams = _mp_row_mixing()
    fin = Partition.finest(3)
    col_mix = PartitionDistribution((mp_lams[0].support[0], fin), (0.25, 0.75))
    mon_env = build_monitoring(MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3))
    mon_mix = PartitionDistribution(bundling_partitions(), (0.3, 0.7))
    solves = (
        (mp_env, mp_lams),
        (mp_env, (PartitionDistribution.degenerate(fin), col_mix)),
        (mon_env, (mon_mix, PartitionDistribution.degenerate(fin))),
    )
    found = 0
    for env, lams in solves:
        res = dist_abee_solve_detailed(env, lams)
        assert len(res.continua)
        for mode, d in REFINE_SETTINGS:
            # the per-family KL reference is slow: the last 135 of the 315
            # matching-pennies families hold all four of its candidates
            families = _families(res, slice(-135, None) if d == KL else slice(None))
            found += _assert_refinement_matches_reference(env, lams, families, mode, d)
    assert found
    # the monitoring families twice over: the points of the copy are all seen
    once = _assert_refinement_matches_reference(env, lams, _families(res), GLOBAL, L2)
    twice = _families(res, np.tile(np.arange(len(res.continua)), 2))
    assert once and _assert_refinement_matches_reference(env, lams, twice, GLOBAL, L2) == once


def test_refine_continua_tied_family_and_empty_inset():
    """A family along which both support partitions tie identically is
    covered by its margins; one shorter than its two 1e-12 insets gives
    nothing."""
    env, lams = _mp_row_mixing()
    res = dist_abee_solve_detailed(env, lams)
    # the column's data (variables 6..8) fixed at (1/2, 1/2) in every game
    base, direction = res.continua[0, 0].copy(), np.zeros_like(res.continua[0, 1])
    base[6:] = 0.5
    direction[0] = 1.0
    tied = dataclasses.replace(_families(res, [0]), continua=np.array([[base, direction]]), spans=np.array([[0.0, 0.5]]))
    t_lo = float(res.spans[0, 0])
    thin = dataclasses.replace(_families(res, [0]), spans=np.array([[t_lo, t_lo + 1.5e-12]]))
    part_a, part_b = lams[0].support

    def residual(t):
        data = aggregate(solved_profile(tied, lams, 0, t), lams)[1]
        return dispersion(data, part_a, env.prior, L2) - dispersion(data, part_b, env.prior, L2)

    assert _roots_of(residual, 1e-12, 0.5 - 1e-12) is None
    assert _refine_one(env, lams, thin, GLOBAL, L2, (2, 3)) == []
    every = [tied, thin, _families(res, slice(None, None, 30))]
    mixed = dataclasses.replace(tied, continua=np.concatenate([r.continua for r in every]),
                                spans=np.concatenate([r.spans for r in every]))
    for mode, d in REFINE_SETTINGS:
        _assert_refinement_matches_reference(env, lams, mixed, mode, d)


def test_bracket_roots_match_per_function_reference():
    """Sign changes, grid points where f is 0 (interior and last), and
    non-finite grid values, all functions bracketed in one batch."""
    funcs = (
        lambda t: (t - 0.3) * (t - 0.7),
        lambda t: (t - 0.25) * (t - 1.1) * (t - 1.6),
        lambda t: t - 0.5,  # 0 at the middle grid point
        lambda t: np.where(t > 0.8, np.inf, t - 0.2),
        lambda t: t - 1.0,  # 0 at the last grid point
        lambda t: 0.0 * t + 1.0,
    )
    lo, hi = np.zeros(len(funcs)), np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])

    def f(c, t):
        c, t = np.broadcast_arrays(c, t)
        out = np.empty(t.shape)
        for k, fn in enumerate(funcs):
            out[c == k] = fn(t[c == k])
        return out

    got = _bracket_roots(f, lo, hi)
    assert got == [_loop_bracket_roots(fn, a, b) for fn, a, b in zip(funcs, lo, hi)]
    assert got[2] == [0.5] and got[4] == [1.0] and got[5] == []


def _counted_solves(calls):
    """`dist_abee_solve_runs` counting each result it yields in calls["solve"]."""

    def runs(items):
        for run in dist_abee_solve_runs(items):
            calls["solve"] += len(run)
            yield run

    return runs


def test_search_scores_each_solve_in_one_dispersion_batch(monkeypatch):
    """The tie residuals of one solve take at most two `dispersion`
    calls (one per support partition), however many families and points it
    has: the solves of one run and shape share them."""
    calls = {"dispersion": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(equilibrium, "dispersion", counted("dispersion", clustering.dispersion))
    monkeypatch.setattr(equilibrium, "dist_abee_solve_runs", _counted_solves(calls))
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    cfg = SearchConfig(lambda_step=0.5)
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, cfg)
    assert all(rep.completed for rep in result.layers) and result.candidates
    assert calls["solve"] and calls["dispersion"]
    assert calls["dispersion"] <= 2 * calls["solve"]


def test_search_admission_equals_full_verification(mp_env, finest3):
    """The search's admission test (clustering only after the best replies
    hold) accepts exactly what cd_abee_verify accepts, and the full report
    still lists every clustering failure when the best replies fail too."""
    from cabee.partitions import partition_list

    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    closed = solve_matching_pennies_cdabee(spec)
    coarse = Partition.coarsest(3)
    nash = [np.stack([nash_solve_2x2(mp_env, g)[p] for g in range(3)]) for p in (0, 1)]
    for mode in (LOCAL, GLOBAL):
        passing = EquilibriumCandidate(closed.lams, closed.profile, mode, L2)
        failing_br = EquilibriumCandidate(
            degenerate_pair(coarse, finest3),
            StrategyProfile(plays=({coarse: nash[0]}, {finest3: nash[1]})),
            mode,
            L2,
        )
        cases = [(passing, True), (failing_br, False)]
        for part in (p for p in partition_list(3, 2) if p.n_classes == 2):
            (prof,) = abee_solve(mp_env, (part, finest3))
            clustered_out = EquilibriumCandidate(degenerate_pair(part, finest3), prof, mode, L2)
            rep = cd_abee_verify(mp_env, clustered_out, (2, 3))
            assert rep.br_gain <= 1e-9 and rep.clustering_failures  # fails clustering only
            cases.append((clustered_out, False))
            # a pure row play moves the column's expectations off its
            # indifference, and leaves the column aggregate (the row data) as is
            row = prof.plays[0][part].copy()
            row[:] = [1.0, 0.0]
            moved = StrategyProfile(plays=({part: row}, dict(prof.plays[1])))
            both = EquilibriumCandidate(clustered_out.lams, moved, mode, L2)
            rep_both = cd_abee_verify(mp_env, both, (2, 3))
            assert rep_both.br_gain > 1e-6
            assert rep_both.clustering_failures == rep.clustering_failures
            cases.append((both, False))
        for cand, expected in cases:
            assert cd_abee_verify(mp_env, cand, (2, 3)).ok is expected


# ---------------------------------------------------------------------------
# the batched clustered-equilibrium check against the per-candidate reference
# ---------------------------------------------------------------------------


def _loop_clustering_failures(env, candidate, caps):
    """The previous per-candidate clustering check: one `global_cluster` or
    `is_locally_clustered` call per player or support partition."""
    lams = candidate.lams
    failures = []
    aggs = aggregate(candidate.profile, lams)
    for player in (0, 1):
        data = aggs[1 - player]
        if candidate.mode == GLOBAL:
            winners, _ = global_cluster(data, env.prior, caps[player], candidate.divergence)
            winner_keys = {w.key() for w in winners}
            for part in lams[player].support:
                if part.key() not in winner_keys:
                    failures.append((player, part, "not a dispersion minimizer"))
        else:
            for part in lams[player].support:
                okc, witc = is_locally_clustered(data, part, env.prior, candidate.divergence)
                if not okc:
                    failures.append((player, part, f"game {witc[0]} is closer to class {witc[1]}"))
    return failures


def _loop_clustered_partition_set(env, data, capacity, mode, d):
    if mode == GLOBAL:
        winners, _ = global_cluster(data, env.prior, capacity, d)
        return winners
    return [p for p in partition_list(env.n_games, capacity) if is_locally_clustered(data, p, env.prior, d)[0]]


def _random_batch(rng, env, lams, n_random):
    """Solved profiles and family points of the supports (which mostly pass
    the best-reply check), then random plays with pure rows (zero entries)."""
    res = dist_abee_solve_detailed(env, lams)
    solved = [res.plays(x) for x in res.profiles]
    solved += [res.plays(base + t * direction)
               for (base, direction), span in zip(res.continua[:6], res.spans[:6].tolist()) for t in span]
    plays = []
    for pl in (0, 1):
        shape = (n_random, len(lams[pl].support), env.n_games)
        act0 = np.where(rng.random(shape) < 0.4, rng.integers(0, 2, shape), rng.random(shape))
        rand = np.stack([act0, 1.0 - act0], axis=-1)
        plays.append(np.concatenate([np.array([s[pl] for s in solved]).reshape((-1,) + rand.shape[1:]), rand]))
    return tuple(plays)


def _random_lams(rng, n_games):
    parts = partition_list(n_games, n_games)
    lams = []
    for _ in (0, 1):
        if rng.random() < 0.5 or len(parts) < 2:
            lams.append(PartitionDistribution.degenerate(parts[rng.integers(len(parts))]))
        else:
            i, j = rng.choice(len(parts), size=2, replace=False)
            w = round(float(rng.uniform(0.1, 0.9)), 6)
            lams.append(PartitionDistribution((parts[i], parts[j]), (w, round(1 - w, 12))))
    return tuple(lams)


@pytest.mark.parametrize("chunk", [None, 1, 40])
def test_cd_abee_verify_batch_matches_per_candidate_reference(rng, chunk):
    """Every row of the batch gets the report of `dist_abee_verify` plus the
    per-candidate clustering loop: verdict, gain, witness and failures with
    their text, for both modes and all three divergences, supports of one
    and two partitions, and capacities below a support's class count.  The
    batch is checked whole, or in slices of 1 row (each data set alone) or
    of 40 rows, with the same reports."""
    divergences = (L2, KL, mean_divergence([1.0, 0.0]))
    seen = {"ok": 0, "global": 0, "local": 0, "over_capacity": 0}
    for trial in range(24):
        n = 2 + trial % 3
        prior = rng.dirichlet(np.ones(n) * 3)
        env = make_environment(prior, rng.normal(size=(2, 2, n)), rng.normal(size=(2, 2, n)))
        lams = _random_lams(rng, n)
        caps = tuple(int(rng.integers(1, n + 1)) for _ in (0, 1))
        mode = (GLOBAL, LOCAL)[trial % 2]
        d = divergences[trial // 2 % 3]
        plays = _random_batch(rng, env, lams, 8)
        size = chunk or len(plays[0])
        reports = [
            rep
            for start in range(0, len(plays[0]), size)
            for rep in cd_abee_verify_batch(
                env, lams, (plays[0][start : start + size], plays[1][start : start + size]), mode, d, caps
            )
        ]
        assert len(reports) == len(plays[0])
        supports = (lams[0].support, lams[1].support)
        for b, rep in enumerate(reports):
            cand = EquilibriumCandidate(lams, unstack_plays(supports, (plays[0][b], plays[1][b])), mode, d)
            ok_br, gain, witness = dist_abee_verify(env, lams, cand.profile)
            failures = _loop_clustering_failures(env, cand, caps)
            assert rep.ok == (ok_br and not failures)
            assert (rep.br_gain, rep.br_witness) == (gain, witness)
            assert rep.clustering_failures == failures
            assert cd_abee_verify(env, cand, caps) == rep
            seen["ok"] += rep.ok
            seen[mode] += bool(failures)
        seen["over_capacity"] += any(p.n_classes > caps[pl] for pl in (0, 1) for p in lams[pl].support)
    assert all(seen.values()), seen


@pytest.mark.parametrize("mode", [GLOBAL, LOCAL])
def test_unclustered_takes_one_support_per_row(rng, mode):
    """Rows of several supports of one shape, with supports over capacity
    and in either order, checked in one `unclustered` call with one support
    per row (`RowSupports`): each row gets the failures of one call per
    support, for all three divergences."""
    from cabee.abee import RowSupports

    verdicts = set()
    for trial in range(12):
        n = 2 + trial % 3
        env = make_environment(rng.dirichlet(np.ones(n) * 3), rng.normal(size=(2, 2, n)), rng.normal(size=(2, 2, n)))
        d = (L2, KL, mean_divergence([1.0, 0.0]))[trial % 3]
        caps = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        parts = partition_list(n, n)
        pairs = []
        while len(pairs) < 4:
            i, j = rng.choice(len(parts), size=2, replace=False)
            w = round(float(rng.uniform(0.1, 0.9)), 6)
            pairs.append((PartitionDistribution((parts[i], parts[j]), (w, round(1 - w, 12))),
                          PartitionDistribution.degenerate(parts[rng.integers(len(parts))])))
        owner = rng.integers(len(pairs), size=40)
        plays = []
        for pl, size in ((0, 2), (1, 1)):
            act0 = np.where(rng.random((40, size, n)) < 0.4, rng.integers(0, 2, (40, size, n)), rng.random((40, size, n)))
            plays.append(np.stack([act0, 1.0 - act0], axis=-1))
        got = unclustered(env, RowSupports(pairs, owner), tuple(plays), mode, d, caps)
        for k, lams in enumerate(pairs):
            at = np.flatnonzero(owner == k)
            ref = unclustered(env, lams, tuple(p[at] for p in plays), mode, d, caps)
            assert [got[b] for b in at] == ref
        verdicts.update(bool(fails) for fails in got)
    assert verdicts == {True, False}


def test_clustered_partition_set_matches_reference(rng):
    for trial in range(30):
        n = 2 + trial % 4
        prior = rng.dirichlet(np.ones(n) * 3)
        env = make_environment(prior, np.zeros((2, 2, n)), np.zeros((2, 2, n)))
        data = rng.dirichlet(np.ones(2), size=n)
        data[rng.random(n) < 0.3] = [1.0, 0.0]  # ties and zero entries
        capacity = int(rng.integers(1, n + 1))
        for mode in (GLOBAL, LOCAL):
            for d in (L2, KL, mean_divergence([1.0, 0.0])):
                got = clustered_partition_set(env, data, capacity, mode, d)
                assert got == _loop_clustered_partition_set(env, data, capacity, mode, d)


def test_search_over_regime_budget_reports_incomplete_layers(monkeypatch):
    """With a regime budget of 1 every solve falls back to the damped
    iteration, which may miss equilibria, so neither layer completes and
    nothing is refuted."""
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    patch_solver(monkeypatch, max_regimes=1, damped_starts=1, damped_steps=50)
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert [(rep.completed, rep.evaluations) for rep in result.layers] == [(False, 20), (False, 70)]
    assert not result.pure_exhaustively_refuted


def test_search_with_three_actions_reports_incomplete_layers(monkeypatch):
    """Weighted rock-paper-scissors in two games has three actions, so every
    solve is the damped iteration: candidates may be found, but no layer
    completes."""
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    pay = np.stack([rps, 2 * rps], axis=-1)
    env = make_environment((0.5, 0.5), pay, -pay)
    patch_solver(monkeypatch, damped_starts=2, damped_steps=200)
    result = cd_abee_search(env, (2, 2), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert [(rep.completed, rep.evaluations) for rep in result.layers] == [(False, 4), (False, 4)]
    assert not result.pure_exhaustively_refuted
    for cand in result.candidates:
        assert cd_abee_verify(env, cand, (2, 2)).ok


def test_layer_one_keeps_families_of_degenerate_pairs():
    """A one-parameter family of the only degenerate pair holds pure
    clustered equilibria, so the pure layer must not report a refutation."""
    i = [[[0, 1, 0], [1, 0, 1]], [[0, 0, 1], [0, 1, -1]]]
    j = [[[-1, 0, 0], [0, 0, -1]], [[-1, 1, -1], [0, 0, 0]]]
    env = make_environment((0.119, 0.035, 0.846), i, j)
    result = cd_abee_search(env, (1, 1), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    layer1 = result.layers[0]
    assert layer1.name == "degenerate" and layer1.completed and layer1.found > 0
    assert not result.pure_exhaustively_refuted
    for cand in result.candidates:
        assert cd_abee_verify(env, cand, (1, 1)).ok
        assert grand_map_contains(env, cand, (1, 1))


def test_layer_one_local_matching_pennies_families():
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    result = cd_abee_search(env, (2, 3), LOCAL, L2, SearchConfig(lambda_step=0.5))
    parts = [partition_list(3, c) for c in (2, 3)]
    from_profiles = set()
    for an0 in parts[0]:
        for an1 in parts[1]:
            lams = degenerate_pair(an0, an1)
            res = dist_abee_solve_detailed(env, lams)
            for n in range(len(res.profiles)):
                cand = EquilibriumCandidate(lams, solved_profile(res, lams, n), LOCAL, L2)
                if cd_abee_verify(env, cand, (2, 3)).ok:
                    from_profiles.add(_candidate_key(cand))
    assert len(from_profiles) == 8
    layer1 = result.layers[0]
    assert layer1.found > len(from_profiles)
    pure = [c for c in result.candidates if all(len(lam.support) == 1 for lam in c.lams)]
    assert len(pure) == layer1.found
    assert from_profiles <= {_candidate_key(c) for c in pure}
    for cand in result.candidates:
        assert cd_abee_verify(env, cand, (2, 3)).ok


def test_search_clusters_each_solve_in_at_most_four_kernel_calls(monkeypatch):
    """The one clustering check of a solve (its profiles and family points
    together) builds a subset table (`subset_table`) per player, and the
    margins of the families that the cover cuts two more, at most four per
    solve in all; the solves of a run and shape share them (20 over the 90
    solves here)."""
    calls = {"kernel": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    kernel = counted("kernel", clustering.subset_table)
    monkeypatch.setattr(clustering, "subset_table", kernel)
    monkeypatch.setattr(equilibrium, "subset_table", kernel)
    monkeypatch.setattr(equilibrium, "dist_abee_solve_runs", _counted_solves(calls))
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert all(rep.completed for rep in result.layers) and result.candidates
    assert calls["solve"] == 90 and calls["kernel"]
    assert calls["kernel"] <= 4 * calls["solve"]


def test_search_solves_and_assembles_once_per_run(monkeypatch):
    """Each run of a layer's stream, the next `_RUN_SUPPORTS` supports, is
    solved by one `_solve_batch` call and assembled by one `_assemble`
    call, however many regime pairs it keeps (4 runs over the 20 + 70
    supports here)."""
    from cabee import abee

    calls = {"_solve_batch": 0, "_assemble": 0}

    def counted(name):
        fn = getattr(abee, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(abee, name, wrapper)

    for name in calls:
        counted(name)
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert [rep.evaluations for rep in result.layers] == [20, 70]
    assert all(rep.completed for rep in result.layers)
    runs = sum(-(-rep.evaluations // abee._RUN_SUPPORTS) for rep in result.layers)
    assert calls == {"_solve_batch": runs, "_assemble": runs}


def test_search_covers_and_clusters_once_per_run_and_shape(monkeypatch):
    """On the search of `test_search_solves_and_assembles_once_per_run`, the
    work after the solve is batched by run and support shape, not by solve:
    per (run, shape), two clustering kernels (`dispersion_minimizers`, under
    `global_cluster_batch`, one per player), two `_quadratic_roots` calls
    (the ties and the margins) and one best-reply check of cover points
    (`dist_abee_verify_batch`), and one more of each kind for a pass over
    `_PAIR_CHUNK` rows, which the passes are cut at (the cover points of
    one (run, shape) here: 1,005).  At most 2 calls of each per (run,
    shape), over the 90 solves in 4 runs and 5 (run, shape) groups."""
    calls = {"solve": 0, "dispersion_minimizers": 0, "global_cluster_batch": 0, "_quadratic_roots": 0,
             "dist_abee_verify_batch": 0}
    groups = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("dispersion_minimizers", "global_cluster_batch", "_quadratic_roots", "dist_abee_verify_batch"):
        counted(equilibrium, name)
    refine_run = equilibrium._refine_run

    def grouped(env, supports, *args):
        groups.append({tuple(len(lam.support) for lam in lams) for lams in supports})
        return refine_run(env, supports, *args)

    monkeypatch.setattr(equilibrium, "_refine_run", grouped)
    monkeypatch.setattr(equilibrium, "dist_abee_solve_runs", _counted_solves(calls))
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert all(rep.completed for rep in result.layers) and result.candidates
    assert calls.pop("solve") == 90 and len(groups) == 4
    shapes = sum(map(len, groups))
    assert shapes == 5
    assert calls["dispersion_minimizers"] and calls["_quadratic_roots"] and calls["dist_abee_verify_batch"]
    assert calls["dispersion_minimizers"] + calls["global_cluster_batch"] <= 2 * shapes
    assert calls["_quadratic_roots"] <= 2 * shapes
    assert calls["dist_abee_verify_batch"] <= 2 * shapes


def test_search_stopped_mid_run_computes_no_damped_solve_past_the_stop(monkeypatch):
    """Local matching pennies stops its pair layer by `MAX_CANDIDATES` after
    1 solve of its first run.  With a regime budget that the layer's first
    support meets and 12 of its other supports exceed (3 of them in that
    run), those 12 are damped solves in a search that does not stop; the
    stopped search computes none of them."""
    from cabee import abee

    calls = []
    damped = abee._damped_iteration

    def spy(env, lams, *args, **kwargs):
        calls.append(lams)
        return damped(env, lams, *args, **kwargs)

    monkeypatch.setattr(abee, "_damped_iteration", spy)
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    patch_solver(monkeypatch, max_regimes=2835, damped_starts=2, damped_steps=200)
    stopped = cd_abee_search(env, (2, 3), LOCAL, L2, SearchConfig(lambda_step=0.5))
    assert [(rep.completed, rep.evaluations) for rep in stopped.layers] == [(True, 20), (False, 1)]
    assert calls == []
    monkeypatch.setattr(equilibrium, "MAX_CANDIDATES", 10**6)
    assert cd_abee_search(env, (2, 3), LOCAL, L2, SearchConfig(lambda_step=0.5)).layers[1].evaluations == 70
    assert len(calls) == 12 and all(2 in (len(lams[0].support), len(lams[1].support)) for lams in calls)


def test_solved_play_stays_stacked_until_admitted(monkeypatch):
    """Solved play stays in the solver's stacked arrays from the stream to
    the clustering check: the matching-pennies search (global L2,
    capacities (2, 3), weight step 1/2) and the bundled refutation sweep
    stack no `StrategyProfile` (`stack_plays`), and the search builds one
    (`unstack_plays`) per candidate that `_refine_run` returns, both counted
    in every module that binds them."""
    import sys

    from cabee import abee
    from cabee.applications.matching_pennies import two_class_refutation
    from cabee.cli import _stake_triples, bundled_scenarios

    calls = {"stack_plays": 0, "unstack_plays": 0, "admitted": 0}
    for name in ("stack_plays", "unstack_plays"):
        original = getattr(abee, name)

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("cabee") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    refine_run = equilibrium._refine_run

    def counted_admitted(*args):
        found = refine_run(*args)
        calls["admitted"] += sum(map(len, found))
        return found

    monkeypatch.setattr(equilibrium, "_refine_run", counted_admitted)
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    result = cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert all(rep.completed for rep in result.layers) and result.candidates
    assert calls["stack_plays"] == 0
    assert calls["unstack_plays"] == calls["admitted"] >= len(result.candidates)
    reports = two_class_refutation(_stake_triples(bundled_scenarios()["prop1_refutation"]["params"]["sweep_step"], None))
    assert sum(rep["n_equilibria"] for report in reports for rep in report.values()) == 252
    assert calls["stack_plays"] == 0


def test_layer_one_covers_a_clustered_point_between_family_samples():
    """Two games, global L2: the column player's one-class support is a
    dispersion minimizer only where the row plays alike in both games, a
    single point of a family that misses all of 9 evenly spaced points.  The family's cover of margin roots holds it."""
    i = [[[-1, 1], [1, -1]], [[-1, 0], [-1, 0]]]
    j = [[[1, 1], [-1, -1]], [[-1, 0], [1, 1]]]
    env = make_environment((0.437, 0.563), i, j)
    lams = degenerate_pair(Partition.finest(2), Partition.coarsest(2))
    res = dist_abee_solve_detailed(env, lams)
    family = np.flatnonzero(res.spans[:, 0] > -0.5)
    assert len(family) == 1
    t_lo, t_hi = res.spans[family[0]].tolist()
    lo, hi = t_lo + 1e-12, t_hi - 1e-12
    for t in np.linspace(lo, hi, 9):
        cand = EquilibriumCandidate(lams, solved_profile(res, lams, family[0], t), GLOBAL, L2)
        assert not cd_abee_verify(env, cand, (2, 2))
    found = _refine_one(env, lams, _families(res, family), GLOBAL, L2, (2, 2))
    assert len(found) == 1
    row = found[0].aggregates()[0][:, 0]
    assert row == pytest.approx([2 / 3, 2 / 3], abs=1e-9)
    assert cd_abee_verify(env, found[0], (2, 2)).ok
    assert grand_map_contains(env, found[0], (2, 2))
    result = cd_abee_search(env, (2, 2), GLOBAL, L2, SearchConfig(lambda_step=0.5))
    assert _candidate_key(found[0]) in {_candidate_key(c) for c in result.candidates}


def test_layer_one_cover_bounds_the_best_reply_stretch_of_a_family():
    """At capacities (1, 1) every clustering test passes, and along one
    family of the coarsest pair the best replies hold only on a middle
    stretch (t in about [0.09, 0.38] of [-0.5, 0.5]) that holds neither end
    nor the middle.  The roots of the payoff differences bound it, so the
    cover finds its two ends and the point between them."""
    i = [[[0, -1], [1, 0]], [[1, 1], [0, -1]]]
    j = [[[0, 1], [-1, 1]], [[-1, 1], [0, 1]]]
    env = make_environment((0.434, 0.566), i, j)
    lams = degenerate_pair(Partition.coarsest(2), Partition.coarsest(2))
    res = dist_abee_solve_detailed(env, lams)
    (family,) = [
        k
        for k, (base, direction) in enumerate(res.continua)
        if np.array_equal(base, [1, 0, 0, 0.5]) and np.array_equal(direction, [0, 0, 0, 1])
    ]
    t_lo, t_hi = res.spans[family].tolist()
    lo, hi = t_lo + 1e-12, t_hi - 1e-12
    for t in (lo, (lo + hi) / 2, hi):
        cand = EquilibriumCandidate(lams, solved_profile(res, lams, family, t), GLOBAL, L2)
        assert not cd_abee_verify(env, cand, (1, 1))
    found = _refine_one(env, lams, _families(res, [family]), GLOBAL, L2, (1, 1))
    assert len(found) == 3
    for cand in found:
        assert cd_abee_verify(env, cand, (1, 1)).ok
        assert grand_map_contains(env, cand, (1, 1))


def test_kl_families_of_the_pure_layer_are_not_a_refutation():
    """KL margins are not quadratic, so degenerate-pair families are covered
    by bracketing on a grid, where one cell can hide two roots: they are
    counted, and an empty pure layer then refutes nothing."""
    result = equilibrium.SearchResult(layers=[equilibrium.LayerReport("degenerate", True, 4, 0)])
    assert result.pure_exhaustively_refuted
    result.sampled_pure_families = 1
    assert not result.pure_exhaustively_refuted
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    searched = cd_abee_search(env, (2, 3), GLOBAL, KL, SearchConfig(lambda_step=0.5, max_evaluations=20))
    assert searched.sampled_pure_families > 0 and not searched.pure_exhaustively_refuted


def test_degenerate_family_cover_meets_every_clustered_stretch(rng):
    """On random 2- and 3-game environments, in both modes under L2 and the
    mean divergence: wherever a sweep of 401 points finds clustered
    equilibria along a family of a degenerate pair, the family's cover
    admits a point of that stretch (within one sweep step)."""
    import itertools

    stretches = 0
    for trial in range(16):
        n = 2 + trial % 2
        prior = rng.dirichlet(np.ones(n) * 2)
        env = make_environment(prior, rng.integers(-1, 2, (2, 2, n)), rng.integers(-1, 2, (2, 2, n)))
        caps = tuple(int(rng.integers(1, n + 1)) for _ in (0, 1))
        mode = (GLOBAL, LOCAL)[trial % 2]
        d = (L2, mean_divergence([1.0, 0.0]))[trial // 2 % 2]
        for an0, an1 in itertools.product(partition_list(n, caps[0]), partition_list(n, caps[1])):
            lams = degenerate_pair(an0, an1)
            res = dist_abee_solve_detailed(env, lams)
            for fam, (base, direction) in enumerate(res.continua):
                t_lo, t_hi = res.spans[fam].tolist()
                ts = np.linspace(t_lo + 1e-12, t_hi - 1e-12, 401)
                if ts[-1] <= ts[0]:
                    continue
                plays = res.plays(base + ts[:, None] * direction)
                swept = cd_abee_verify_batch(env, lams, plays, mode, d, caps)
                ok = np.array([rep.ok for rep in swept] + [False])
                # the cover's points, located on the family by least squares
                at_ends = res.plays(base + ts[[0, -1], None] * direction)
                ends = [np.concatenate([at_ends[0][k].ravel(), at_ends[1][k].ravel()]) for k in (0, 1)]
                span = ends[1] - ends[0]
                found = []
                for cand in _refine_one(env, lams, _families(res, [fam]), mode, d, caps):
                    x = np.concatenate([p.ravel() for p in stack_plays(cand.profile, lams)])
                    found.append(ts[0] + float((x - ends[0]) @ span / (span @ span)) * (ts[-1] - ts[0]))
                step = ts[1] - ts[0]
                starts = np.flatnonzero(ok & ~np.concatenate([[False], ok[:-1]]))
                for i in starts:
                    j = i + np.argmin(ok[i:])
                    stretches += 1
                    assert any(ts[i] - step <= t <= ts[j - 1] + step for t in found), (trial, an0, an1)
    assert stretches


def test_two_partition_family_cover_meets_every_clustered_stretch(rng):
    """As for degenerate pairs, where one player mixes two partitions: on
    random 2- and 3-game environments, in both modes under L2 and the mean
    divergence, wherever a sweep of 401 points finds clustered equilibria
    along a family that the cover refines, the family's cover admits a
    point of that stretch (within one sweep step).  In global mode the
    cover refines the families whose dispersion tie holds identically; the
    others yield their isolated tie roots, which the per-family reference
    test pins, and their ends on the tie."""
    import itertools

    stretches = 0
    for trial in range(32):
        n = 2 + trial % 2
        prior = rng.dirichlet(np.ones(n) * 2)
        env = make_environment(prior, rng.integers(-3, 4, (2, 2, n)), rng.integers(-3, 4, (2, 2, n)))
        mix_player = int(rng.integers(2))
        caps = [int(rng.integers(1, n + 1)) for _ in (0, 1)]
        caps[mix_player] = max(caps[mix_player], 2)
        mode = (GLOBAL, LOCAL)[trial % 2]
        d = (L2, mean_divergence([1.0, 0.0]))[trial // 2 % 2]
        parts = [partition_list(n, c) for c in caps]
        branches = list(itertools.product(itertools.combinations(parts[mix_player], 2), parts[1 - mix_player]))
        for k in rng.permutation(len(branches))[:6]:
            pair, other = branches[k]
            mixed = PartitionDistribution(pair, (0.4, 0.6))
            lams = (mixed, PartitionDistribution.degenerate(other))[:: 1 - 2 * mix_player]
            res = dist_abee_solve_detailed(env, lams)
            for fam, (base, direction) in enumerate(res.continua):
                t_lo, t_hi = res.spans[fam].tolist()
                ts = np.linspace(t_lo + 1e-12, t_hi - 1e-12, 401)
                if ts[-1] <= ts[0]:
                    continue
                swept = cd_abee_verify_batch(env, lams, res.plays(base + ts[:, None] * direction), mode, d, caps)
                ok = np.array([rep.ok for rep in swept] + [False])
                cover = _refine_one(env, lams, _families(res, [fam]), mode, d, caps)
                for cand in cover:
                    assert cd_abee_verify(env, cand, caps).ok
                found = _family_ts(res, fam, lams, cover)
                step = ts[1] - ts[0]
                for i in np.flatnonzero(ok & ~np.concatenate([[False], ok[:-1]])):
                    j = i + np.argmin(ok[i:])
                    stretches += 1
                    assert any(ts[i] - step <= t <= ts[j - 1] + step for t in found), (trial, pair, other)
    assert stretches >= 60


def test_tie_isolated_family_yields_its_inset_end_on_the_tie():
    """A global mean-divergence family whose dispersion-tie residual has a
    double root at its end (0.0 at t_lo = -0.5, 2.4e-25 at the inset end,
    0.059 at the middle): the tangent root falls just outside the inset
    range, and the family still yields its inset end, which verifies."""
    row = [[[1, -1], [0, 1]], [[1, 0], [-1, 0]]]
    env = make_environment([0.39, 0.61], row, [[[0, 0], [1, 1]], [[1, -1], [0, -1]]])
    coarse, fine = Partition.coarsest(2), Partition.finest(2)
    lams = (PartitionDistribution.degenerate(coarse), PartitionDistribution((coarse, fine), (0.4, 0.6)))
    res = dist_abee_solve_detailed(env, lams)
    assert len(res.continua) == 1
    (found,) = _refine_one(env, lams, _families(res), GLOBAL, mean_divergence([1.0, 0.0]), (1, 2))
    assert cd_abee_verify(env, found, (1, 2)).ok
    inset_end = solved_profile(res, lams, 0, float(res.spans[0, 0]) + FAMILY_INSET).single(0)
    np.testing.assert_array_equal(found.profile.single(0), inset_end)


@pytest.mark.parametrize("nu_star", [0.45, 0.5])
def test_refinement_admits_both_ends_of_the_monitoring_interval(nu_star):
    """Criterion 3b at the refinement level: on the mixed monitoring solve
    (weight 0.3 on the a-bundling) in local L2, the cover of its families
    admits the ends zeta = 0.4 and 0.6 of the sustainable-shirking
    interval, which no grid of samples need hold."""
    env = build_monitoring(MonitoringSpec(0.4, 0.4, 0.2, nu_star, 0.3))
    lams = (PartitionDistribution(bundling_partitions(), (0.3, 0.7)), PartitionDistribution.degenerate(Partition.finest(3)))
    found = _refine_one(env, lams, _families(dist_abee_solve_detailed(env, lams)), LOCAL, L2, (2, 3))
    zetas = [cand.profile.plays[1][Partition.finest(3)][2, 0] for cand in found]
    for end in (0.4, 0.6):
        assert min(abs(z - end) for z in zetas) <= 1e-9, (end, zetas)
    for cand in found:
        assert cd_abee_verify(env, cand, (2, 3)).ok
        assert 0.4 - 1e-9 <= cand.profile.plays[1][Partition.finest(3)][2, 0] <= 0.6 + 1e-9


@pytest.mark.parametrize("d", [L2, mean_divergence([1.0, 0.0]), KL])
def test_support_partition_over_capacity_yields_no_candidate(d):
    """Global mode, the column mixing against the row's finest partition at
    a row capacity of 2: that partition is never a dispersion minimizer, so
    the families give no candidate, and raise nothing, also those whose
    tie residual vanishes identically and which the margins would cover."""
    env, mp_lams = _mp_row_mixing()
    fin = Partition.finest(3)
    lams = (PartitionDistribution.degenerate(fin), PartitionDistribution((mp_lams[0].support[0], fin), (0.25, 0.75)))
    res = dist_abee_solve_detailed(env, lams)

    def tied(fam):
        def residual(t):
            data = aggregate(solved_profile(res, lams, fam, t), lams)[0]
            return dispersion(data, lams[1].support[0], env.prior, L2) - dispersion(data, fin, env.prior, L2)

        t_lo, t_hi = res.spans[fam].tolist()
        lo, hi = t_lo + 1e-12, t_hi - 1e-12
        return hi > lo and _loop_quadratic_roots((residual(lo), residual((lo + hi) / 2), residual(hi)), lo, hi) is None

    assert any(tied(fam) for fam in range(len(res.continua)))
    assert _refine_one(env, lams, _families(res), GLOBAL, d, (2, 3)) == []


@pytest.mark.parametrize("mode", [GLOBAL, LOCAL])
def test_check_margins_takes_each_support_partitions_class_means_once(monkeypatch, mode):
    """On the monitoring zeta family (three support partitions), the check's
    margins compute each support partition's class means once, in both
    modes: the local margins read the means that the payoff differences use."""
    from cabee import abee
    from cabee.applications.monitoring import _mixed_lams, _mixed_plays

    real, calls = clustering.class_prototypes, []

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(clustering, "class_prototypes", counting)
    monkeypatch.setattr(abee, "class_prototypes", counting)
    spec = MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)
    lams = _mixed_lams(spec)
    plays = _mixed_plays([0.2, 0.5, 0.8])
    equilibrium._check_margins(build_monitoring(spec), lams, plays, mode, L2, (2, 3))
    assert calls == [*lams[0].support, *lams[1].support]
