import numpy as np
import pytest

from cabee.clustering import KL, L2, mean_divergence
from cabee.env import nash_solve_2x2, pure_payoffs_against
from cabee.equilibrium import GLOBAL, LOCAL, cd_abee_verify, cd_abee_verify_batch
from cabee.numeric import bisect_root
from cabee.applications import HypothesesUnmet
from cabee.applications.monitoring import (
    CONTROL,
    E0,
    MonitoringSpec,
    _candidate_at,
    _mixed_lams,
    _mixed_plays,
    _worker_point,
    build_monitoring,
    bundling_partitions,
    nu_star_sweep,
    solve_monitoring_cdabee,
)
from conftest import analogy_best_response, solved_profile

SPEC = MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)


def test_spec_validation():
    with pytest.raises(ValueError):
        MonitoringSpec(0.2, 0.3, 0.5, 0.5, 0.3)  # responsive type not minority
    with pytest.raises(ValueError):
        MonitoringSpec(0.4, 0.4, 0.2, 0.9, 0.3)  # threshold outside the band
    with pytest.raises(ValueError):
        MonitoringSpec(0.4, 0.4, 0.2, 0.5, 1.2)


def test_employer_indifferent_exactly_at_threshold():
    env = build_monitoring(SPEC)
    for game in range(3):
        pays = pure_payoffs_against(env, 0, game, [SPEC.nu_star, 1 - SPEC.nu_star])
        assert pays[0] == pytest.approx(pays[1], abs=1e-12)
        above = pure_payoffs_against(env, 0, game, [SPEC.nu_star + 0.01, 0.99 - SPEC.nu_star])
        assert above[CONTROL] > above[1 - CONTROL]


def test_responsive_type_indifferent_exactly_at_threshold():
    env = build_monitoring(SPEC)
    pays = pure_payoffs_against(env, 1, 2, [SPEC.mu_star, 1 - SPEC.mu_star])
    assert pays[E0] == pytest.approx(pays[1 - E0], abs=1e-12)


def test_dominant_types():
    env = build_monitoring(SPEC)
    for q in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7]):
        a_payoffs = pure_payoffs_against(env, 1, 0, q)
        assert a_payoffs[E0] > a_payoffs[1 - E0]
        b_payoffs = pure_payoffs_against(env, 1, 1, q)
        assert b_payoffs[1 - E0] > b_payoffs[E0]


def test_single_game_equilibria():
    env = build_monitoring(SPEC)
    emp, worker = nash_solve_2x2(env, 2)  # the responsive type's game
    assert emp[CONTROL] == pytest.approx(SPEC.mu_star, abs=1e-12)
    assert worker[E0] == pytest.approx(SPEC.nu_star, abs=1e-12)
    emp_a, _ = nash_solve_2x2(env, 0)
    assert emp_a[CONTROL] == 1.0
    emp_b, _ = nash_solve_2x2(env, 1)
    assert emp_b[CONTROL] == 0.0


def test_global_solution_values():
    sol = solve_monitoring_cdabee(SPEC, GLOBAL, L2)
    (cand,) = sol.candidates
    assert sol.zeta_star == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(cand.lams[0].weights, [0.3, 0.7], atol=1e-12)
    env = build_monitoring(SPEC)
    assert cd_abee_verify(env, cand, (2, 3)).ok


def test_global_tie_for_uneven_type_weights():
    spec = MonitoringSpec(0.5, 0.3, 0.2, 0.45, 0.3)
    sol = solve_monitoring_cdabee(spec, GLOBAL, L2)
    env = build_monitoring(spec)
    assert cd_abee_verify(env, sol.candidates[0], (2, 3)).ok
    # the tie point moves off one half when the bundled masses differ
    assert sol.zeta_star != pytest.approx(0.5, abs=1e-3)


def test_global_kl_solution():
    sol = solve_monitoring_cdabee(SPEC, GLOBAL, KL)
    assert sol.zeta_star == pytest.approx(0.5, abs=1e-9)
    env = build_monitoring(SPEC)
    assert cd_abee_verify(env, sol.candidates[0], (2, 3)).ok


def test_nu_star_irrelevance():
    sweep = nu_star_sweep(SPEC, 10)
    assert len(sweep) == 10
    for _, lam_ac, zeta in sweep:
        assert lam_ac == pytest.approx(0.3, abs=1e-9)
        assert zeta == pytest.approx(0.5, abs=1e-9)


LOCAL_SPEC = MonitoringSpec(0.4, 0.4, 0.2, 0.45, 0.3)


def test_local_range_l2():
    """The sustainable-shirking interval under squared-Euclidean
    comparisons is (p, 1-p).

    Derivation for the upper end: within the b-bundling the responsive
    type's point zeta sits at distance zeta*p/(1-p) from its class
    prototype and 1-zeta from the opposite singleton prototype, and
    zeta*p/(1-p) <= 1-zeta simplifies to zeta <= 1-p.  The symmetry test
    below confirms the interval must be symmetric around one half.
    """
    sol = solve_monitoring_cdabee(LOCAL_SPEC, LOCAL, L2)
    lo, hi = sol.zeta_range
    assert lo == pytest.approx(0.4, abs=1e-3)
    assert hi == pytest.approx(0.6, abs=1e-3)
    assert sol.candidates  # representatives inside the interval verify


def test_local_range_symmetry_argument():
    """Relabeling effort levels and the a/b types maps the family onto
    itself with zeta -> 1 - zeta, so the sustainable set must be symmetric
    around one half whenever p_a = p_b.

    The mirrored pairs straddle both ends of (p, 1 - p) = (0.4, 0.6) and
    cover the stretch (0.6, 0.75) that an upper end of 0.75 would need.  A
    point and its mirror agree, points outside [0.4, 0.6] are rejected, and
    the relabeling swaps the bundling that fails the clustering check.
    """
    env = build_monitoring(LOCAL_SPEC)
    an_ac, an_bc = bundling_partitions()
    mirrored = {an_ac.key(): an_bc.key(), an_bc.key(): an_ac.key()}

    def failing_bundlings(report):
        return [part.key() for _, part, _ in report.clustering_failures]

    for zeta in (0.26, 0.3, 0.35, 0.39, 0.41, 0.45, 0.55, 0.59, 0.61, 0.65, 0.7, 0.74):
        rep = cd_abee_verify(env, _candidate_at(LOCAL_SPEC, zeta, LOCAL, L2)[1], (2, 3))
        mirror = cd_abee_verify(env, _candidate_at(LOCAL_SPEC, 1 - zeta, LOCAL, L2)[1], (2, 3))
        assert rep.ok == mirror.ok
        assert rep.ok == (0.4 <= zeta <= 0.6)
        assert failing_bundlings(mirror) == [mirrored[k] for k in failing_bundlings(rep)]


def _grid_interval(spec, d):
    """The grid routine that the cover replaced: a sweep of step 1e-3 over
    (0, 1), checked in one batch, then a sign bisection of each end (to
    1e-9) unless the ends of (0, 1) pass."""
    env, lams = build_monitoring(spec), _mixed_lams(spec)

    def ok(z):
        return cd_abee_verify(env, _candidate_at(spec, z, LOCAL, d)[1], (2, 3)).ok

    zetas = np.arange(1e-3, 1.0, 1e-3)
    reports = cd_abee_verify_batch(env, lams, _mixed_plays(zetas), LOCAL, d, (2, 3))
    idx = np.flatnonzero([report.ok for report in reports])
    assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
    lo_in, hi_in = float(zetas[idx[0]]), float(zetas[idx[-1]])
    lo = 0.0
    if idx[0] > 0 and not ok(1e-12):
        lo = bisect_root(lambda z: 1.0 if ok(z) else -1.0, 1e-12, lo_in, tol=1e-9)
    hi = 1.0
    if idx[-1] < len(zetas) - 1 and not ok(1 - 1e-12):
        hi = bisect_root(lambda z: -1.0 if ok(z) else 1.0, hi_in, 1 - 1e-12, tol=1e-9)
    return lo, hi


@pytest.mark.parametrize("d", [L2, KL, mean_divergence([1.0, 0.0])])
@pytest.mark.parametrize("nu_star", [0.45, 0.55])
def test_local_interval_agrees_with_the_grid_routine(d, nu_star):
    spec = MonitoringSpec(0.4, 0.4, 0.2, nu_star, 0.3)
    sol = solve_monitoring_cdabee(spec, LOCAL, d)
    assert sol.zeta_range == pytest.approx(_grid_interval(spec, d), abs=1e-3)
    env = build_monitoring(spec)
    assert len(sol.candidates) == 3
    for cand in sol.candidates:
        assert cd_abee_verify(env, cand, (2, 3)).ok


def test_local_interval_is_exact():
    """The cover's ends are margin roots: the closed-form (0.4, 0.6) under
    squared-Euclidean comparisons, to rounding (the grid routine's
    bisection stopped 3.7e-10 short of 0.4), and all of (0, 1) under
    relative entropy."""
    lo, hi = solve_monitoring_cdabee(LOCAL_SPEC, LOCAL, L2).zeta_range
    assert abs(lo - 0.4) <= 1e-12 and abs(hi - 0.6) <= 1e-12
    assert solve_monitoring_cdabee(LOCAL_SPEC, LOCAL, KL).zeta_range == (0.0, 1.0)


def test_local_range_kl_full_interval():
    sol = solve_monitoring_cdabee(LOCAL_SPEC, LOCAL, KL)
    lo, hi = sol.zeta_range
    assert lo == pytest.approx(0.0, abs=1e-3)
    assert hi == pytest.approx(1.0, abs=1e-3)
    env = build_monitoring(LOCAL_SPEC)
    for zeta in np.arange(0.01, 1.0, 0.07):
        _, cand = _candidate_at(LOCAL_SPEC, float(zeta), LOCAL, KL)
        assert cd_abee_verify(env, cand, (2, 3)).ok


def test_local_mode_preconditions():
    with pytest.raises(HypothesesUnmet):
        solve_monitoring_cdabee(MonitoringSpec(0.5, 0.3, 0.2, 0.45, 0.3), LOCAL, L2)
    with pytest.raises(HypothesesUnmet):
        solve_monitoring_cdabee(SPEC, LOCAL, L2)  # nu_star = 1/2


def test_equilibrium_worker_data_ties_both_bundlings():
    """At the global solution the two bundlings are the only dispersion
    minimizers over the worker-behavior data, tied exactly."""
    from cabee.clustering import dispersion, global_cluster

    env = build_monitoring(SPEC)
    data = _worker_point(0.5)
    winners, best = global_cluster(data, env.prior, 2, L2)
    an_ac, an_bc = bundling_partitions()
    assert {w.key() for w in winners} == {an_ac.key(), an_bc.key()}
    assert dispersion(data, an_ac, env.prior, L2) == pytest.approx(
        dispersion(data, an_bc, env.prior, L2), abs=1e-14
    )
    assert best == pytest.approx(2 * 0.4 * 0.2 * 0.25 / 0.6, abs=1e-12)


def test_fixed_ab_bundling_violates_local_clustering_at_a_or_b():
    """Pooling the two dominant types leaves the per-game equilibrium data
    locally unclustered; the witness is one of the pooled games, never the
    singleton (its own prototype is itself)."""
    from cabee.clustering import is_locally_clustered
    from cabee.partitions import Partition

    # the knife-edge where the pooled and singleton prototypes coincide is
    # excluded: nu_star must differ from p_b / (p_a + p_b)
    spec = LOCAL_SPEC
    env = build_monitoring(spec)
    # with the a/b pool the per-game play is a: e0, b: e1, c: mixed Nash
    data = _worker_point(spec.nu_star)
    ab_pool = Partition.from_classes(3, [(0, 1), (2,)])
    ok, witness = is_locally_clustered(data, ab_pool, env.prior, L2)
    assert not ok
    assert witness[0] in (0, 1)


def test_employer_best_reply_to_shirking_heavy_expectation():
    env = build_monitoring(SPEC)
    replies, indiff = analogy_best_response(env, 0, 2, [SPEC.nu_star + 0.1, 0.9 - SPEC.nu_star])
    assert replies == (CONTROL,) and not indiff


def test_dist_solver_reproduces_equilibrium_at_the_mixture():
    """Solving the distributional problem at the equilibrium shares finds
    the one-parameter worker family whose tie point is the equilibrium."""
    from cabee.abee import PartitionDistribution, dist_abee_solve_detailed
    from cabee.partitions import Partition

    env = build_monitoring(SPEC)
    an_ac, an_bc = bundling_partitions()
    lams = (
        PartitionDistribution((an_ac, an_bc), (SPEC.mu_star, 1 - SPEC.mu_star)),
        PartitionDistribution.degenerate(Partition.finest(3)),
    )
    res = dist_abee_solve_detailed(env, lams)
    assert len(res.profiles) or len(res.continua)
    found = False
    for k, (t_lo, t_hi) in enumerate(res.spans.tolist()):
        for t in np.linspace(t_lo, t_hi, 41):
            prof = solved_profile(res, lams, k, float(t))
            emp_ac = prof.plays[0][an_ac]
            emp_bc = prof.plays[0][an_bc]
            worker = prof.plays[1][Partition.finest(3)]
            if (
                np.allclose(emp_ac[:, 0], [1, 0, 1], atol=1e-9)
                and np.allclose(emp_bc[:, 0], [1, 0, 0], atol=1e-9)
                and abs(worker[2, 0] - 0.5) < 0.02
            ):
                found = True
    assert found
