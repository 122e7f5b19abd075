"""Acceptance gate: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all).  Criterion 3 is split into three parts.  3b checks the sustainable
shirking interval under squared-Euclidean comparisons against its closed
form (p_a/(2p_a+p_c), (p_b+p_c)/(2p_b+p_c)), which is (0.4, 0.6) at the
type weights used here; the derivation is in the 3b docstring, and the
relabeling-symmetry test in test_monitoring.py checks that the interval is
symmetric around one half when p_a = p_b.
"""

import itertools
import time

import numpy as np
import pytest

from cabee.abee import abee_solve
from cabee.clustering import KL, L2, global_cluster, is_locally_clustered, kmeans_lloyd
from cabee.equilibrium import (
    GLOBAL,
    LOCAL,
    EquilibriumCandidate,
    SearchConfig,
    cabee_verify,
    cd_abee_search,
    cd_abee_verify,
)
from cabee.learning import (
    PerturbationSpec,
    model1_run,
    model1_step,
    model2_step,
    state_distance,
    state_from_candidate,
)
from cabee.partitions import Partition
from cabee.applications.beauty import (
    abee_actions,
    beauty_cabee_check,
    class_means,
    discrete_abee,
    equal_split_partition,
    self_consistent_contiguous,
    uniform_spec,
)
from cabee.applications.linear import (
    SUBSTITUTES,
    LinearFamilySpec,
    equidistant_partition,
    figure_spec,
    linear_abee,
    linear_cabee_window,
    linear_local_check,
)
from cabee.applications.matching_pennies import (
    MatchingPenniesSpec,
    analytic_two_class_abee,
    build_matching_pennies,
    solve_matching_pennies_cdabee,
    two_class_row_partitions,
)
from cabee.applications.monitoring import (
    GAME_A,
    GAME_C,
    MonitoringSpec,
    _candidate_at,
    build_monitoring,
    bundling_partitions,
    solve_monitoring_cdabee,
)
from cabee.cli import run_scenario, bundled_scenarios
from conftest import class_of, random_distributions


def report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s / budget {budget}s) {detail}")


def test_criterion_1_no_pure_clustered_equilibrium():
    t0 = time.monotonic()
    vals = [round(0.1 * k, 10) for k in range(1, 20)]
    fin = Partition.finest(3)
    parts = two_class_row_partitions()
    all_refuted = True
    worst_gap = 0.0
    for a, b, c in itertools.combinations(vals, 3):
        spec = MatchingPenniesSpec(a, b, c)
        env = build_matching_pennies(spec)
        for part in parts:
            profiles = abee_solve(env, (part, fin))
            assert len(profiles) == 1
            prof = profiles[0]
            row_ref, col_ref = analytic_two_class_abee(spec, part)
            gap = max(
                np.abs(prof.single(0)[:, 0] - row_ref).max(),
                np.abs(prof.single(1)[:, 0] - col_ref).max(),
            )
            worst_gap = max(worst_gap, gap)
            for mode in (LOCAL, GLOBAL):
                if cabee_verify(env, (part, fin), prof, mode, L2, capacities=(2, 3)).ok:
                    all_refuted = False
    elapsed = time.monotonic() - t0
    ok = all_refuted and worst_gap <= 1e-9 and elapsed < 60
    report("1 (pure refutation sweep)", ok, elapsed, 60, f"analytic gap {worst_gap:.1e}")
    assert all_refuted
    assert worst_gap <= 1e-9
    assert elapsed < 60


def test_criterion_2_mixed_categorization_equilibrium():
    t0 = time.monotonic()
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cand = solve_matching_pennies_cdabee(spec)
    lam_ok = tuple(cand.lams[0].weights) == (0.5, 0.5)
    col = np.sort(cand.aggregates()[1][:, 0])
    col_ok = np.allclose(col, [0.2285714, 0.3428571, 0.4571429], atol=1e-7) and np.allclose(
        col, [8 / 35, 12 / 35, 16 / 35], atol=1e-9
    )
    verify_ok = cd_abee_verify(env, cand, (2, 3)).ok
    cfg = SearchConfig(lambda_step=0.01, max_evaluations=650)
    found = cd_abee_search(env, (2, 3), GLOBAL, L2, cfg)
    target = cand.aggregates()[1][:, 0]
    recovered = any(
        np.allclose(c.aggregates()[1][:, 0], target, atol=1e-7)
        and {p.key() for p in c.lams[0].support}
        == {p.key() for p in cand.lams[0].support}
        for c in found.candidates
    )
    elapsed = time.monotonic() - t0
    ok = lam_ok and col_ok and verify_ok and recovered and elapsed < 30
    report(
        "2 (mixed-categorization equilibrium)",
        ok,
        elapsed,
        30,
        f"col={np.round(col, 7).tolist()} recovered={recovered}",
    )
    assert lam_ok and col_ok and verify_ok and recovered
    assert elapsed < 30


MON_P = (0.4, 0.4, 0.2)


def test_criterion_3a_threshold_irrelevance():
    t0 = time.monotonic()
    lo, hi = 1 / 3, 2 / 3
    ok = True
    for k in range(1, 11):
        nu = lo + (hi - lo) * k / 11
        spec = MonitoringSpec(*MON_P, nu, 0.3)
        sol = solve_monitoring_cdabee(spec, GLOBAL, L2)
        ok &= len(sol.candidates) == 1
        ok &= abs(sol.candidates[0].lams[0].weights[0] - 0.3) <= 1e-9
        ok &= abs(sol.zeta_star - 0.5) <= 1e-9
        ok &= cd_abee_verify(build_monitoring(spec), sol.candidates[0], (2, 3)).ok
    elapsed = time.monotonic() - t0
    report("3a (monitoring global, threshold sweep)", ok and elapsed < 60, elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_3b_shirking_interval_l2():
    """Boundary detection at the closed-form interval (+-1e-3).

    Local mode keeps both bundlings in the employer's support, so each must
    pass the nearest-prototype test on the worker data a = 1, b = 0,
    c = zeta (shirking probabilities):

    - a-bundling {a,c | b}: game c is (1 - zeta) * p_a/(p_a + p_c) from its
      prototype and zeta from the {b} prototype, so it holds iff
      zeta >= p_a/(2p_a + p_c);
    - b-bundling {b,c | a}: game c is zeta * p_b/(p_b + p_c) from its
      prototype and 1 - zeta from the {a} prototype, so it holds iff
      zeta <= (p_b + p_c)/(2p_b + p_c).

    The best-reply side puts no further limit on zeta: the employer controls
    {a,c} and trusts {b,c} for every zeta in (0, 1), and mu_star makes type
    c indifferent.  At p = (0.4, 0.4, 0.2) the interval is (0.4, 0.6); an
    upper end of 0.75 is unattainable, and zeta = 0.7 is rejected with the
    b-bundling / game 2 witness.
    """
    t0 = time.monotonic()
    p_a, p_b, p_c = MON_P
    lo_ref = p_a / (2 * p_a + p_c)
    hi_ref = (p_b + p_c) / (2 * p_b + p_c)
    spec = MonitoringSpec(*MON_P, 0.45, 0.3)
    sol = solve_monitoring_cdabee(spec, LOCAL, L2)
    lo, hi = sol.zeta_range
    _, an_bc = bundling_partitions()
    gap = cd_abee_verify(build_monitoring(spec), _candidate_at(spec, 0.7, LOCAL, L2)[1], (2, 3))
    gap_failures = [(pl, part.key(), why) for pl, part, why in gap.clustering_failures]
    gap_witness = [(0, an_bc.key(), f"game {GAME_C} is closer to class {class_of(an_bc, GAME_A)}")]
    elapsed = time.monotonic() - t0
    ok = (
        abs(lo - lo_ref) <= 1e-3
        and abs(hi - hi_ref) <= 1e-3
        and not gap.ok
        and gap_failures == gap_witness
        and elapsed < 60
    )
    report(
        "3b (monitoring local interval, squared-Euclidean)",
        ok,
        elapsed,
        60,
        f"detected ({lo:.4f}, {hi:.4f}), closed form ({lo_ref:.4f}, {hi_ref:.4f})",
    )
    assert abs(lo - lo_ref) <= 1e-3
    assert abs(hi - hi_ref) <= 1e-3
    assert not gap.ok
    assert gap_failures == gap_witness
    assert elapsed < 60


def test_criterion_3c_shirking_interval_kl():
    t0 = time.monotonic()
    spec = MonitoringSpec(*MON_P, 0.45, 0.3)
    sol = solve_monitoring_cdabee(spec, LOCAL, KL)
    lo, hi = sol.zeta_range
    env = build_monitoring(spec)
    grid_ok = all(
        cd_abee_verify(env, _candidate_at(spec, round(z, 2), LOCAL, KL)[1], (2, 3)).ok
        for z in np.arange(0.01, 0.995, 0.01)
    )
    elapsed = time.monotonic() - t0
    ok = lo <= 1e-3 and hi >= 1 - 1e-3 and grid_ok and elapsed < 60
    report("3c (monitoring local interval, relative entropy)", ok, elapsed, 60,
           f"detected ({lo:.4f}, {hi:.4f})")
    assert grid_ok and lo <= 1e-3 and hi >= 1 - 1e-3
    assert elapsed < 60


def test_criterion_4_coordination_family():
    t0 = time.monotonic()
    # (i) closed form vs the 200-point grid game
    spec = uniform_spec(0.5, 200, 2)
    part = equal_split_partition(200, 2)
    chosen, _, gain = discrete_abee(spec, part)
    close_ok = np.abs(chosen - abee_actions(spec, part)).max() <= 2 / 200 and gain <= 1e-9
    # (ii) sustainability is monotone in the coordination weight
    rng = np.random.default_rng(4)
    r_grid = np.linspace(0.05, 0.95, 20)
    monotone_ok = True
    checked = 0
    while checked < 10:
        labels = rng.integers(0, 3, size=60)
        labels[rng.choice(60, size=3, replace=False)] = np.arange(3)
        part3 = Partition.from_assignment(labels)
        if np.min(np.diff(np.sort(class_means(uniform_spec(0.5, 60, 3), part3)))) < 1e-6:
            continue
        checked += 1
        oks = [beauty_cabee_check(uniform_spec(float(r), 60, 3), part3)[0] for r in r_grid]
        monotone_ok &= all(b or not a for a, b in zip(oks, oks[1:]))
    # (iii) weak coordination leaves only the even split
    split_ok = True
    for k in (2, 3):
        found = self_consistent_contiguous(uniform_spec(0.01, 60, k), k)
        split_ok &= [p.key() for p in found] == [equal_split_partition(60, k).key()]
    elapsed = time.monotonic() - t0
    ok = close_ok and monotone_ok and split_ok and elapsed < 120
    report("4 (coordination family)", ok, elapsed, 120)
    assert close_ok and monotone_ok and split_ok
    assert elapsed < 120


def test_criterion_5_linear_family():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    # (i) closed-form self-consistency on random interval partitions
    self_ok = True
    for regime in ("complements", SUBSTITUTES):
        spec = LinearFamilySpec(1.1, 0.8, 0.7, regime=regime)
        lo, hi = spec.domain
        done = 0
        while done < 100:
            cuts = np.sort(rng.uniform(lo, hi, size=int(rng.integers(1, 4))))
            endpoints = [lo, *cuts, hi]
            if min(np.diff(endpoints)) < 1e-3:
                continue
            done += 1
            for line in linear_abee(spec, endpoints):
                self_ok &= abs(spec.A + line.mean * line.slope - line.beta) <= 1e-9
    # (ii) equidistant endpoints
    eq_ok = True
    for K in (2, 3, 4):
        pts = equidistant_partition(LinearFamilySpec(1.0, 1.0, 0.8, K=K))
        eq_ok &= max(abs(p - k / K) for k, p in enumerate(pts)) <= 1e-10
    golden = equidistant_partition(
        LinearFamilySpec(1.0, 1.0, 0.8, density=lambda m: 2 * m, K=2)
    )[1]
    eq_ok &= abs(golden - (np.sqrt(5) - 1) / 2) <= 1e-8
    # (iii) complements: equidistant passes, windows strictly contain
    comp_ok = True
    for name in ("fig1a", "fig1b"):
        spec = figure_spec(name)
        pts = equidistant_partition(spec)
        comp_ok &= linear_local_check(spec, pts).ok
        if name == "fig1a":
            wins = linear_cabee_window(spec, pts)
            comp_ok &= all(lo < mu < hi for (lo, hi), mu in zip(wins, pts[1:-1]))
    # (iv) substitutes: every interior boundary fails
    sub_ok = True
    for name in ("fig2a", "fig2b"):
        spec = figure_spec(name)
        chk = linear_local_check(spec, [-1 + k / 4 for k in range(5)])
        sub_ok &= not chk.ok and all(min(s) < 0 for s in chk.boundary_slacks)
    spec = LinearFamilySpec(1.5, 1.0, 0.9, regime=SUBSTITUTES)  # B != -A*C
    done = 0
    while done < 50:
        cuts = np.sort(rng.uniform(-1, 0, size=2))
        endpoints = [-1.0, *cuts, 0.0]
        if min(np.diff(endpoints)) < 0.02:
            continue
        done += 1
        chk = linear_local_check(spec, endpoints)
        sub_ok &= all(min(s) < 0 for s in chk.boundary_slacks)
    elapsed = time.monotonic() - t0
    ok = self_ok and eq_ok and comp_ok and sub_ok and elapsed < 60
    report("5 (linear best replies)", ok, elapsed, 60)
    assert self_ok and eq_ok and comp_ok and sub_ok
    assert elapsed < 60


def test_criterion_6_clustering_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    glob_ok = True
    kmeans_ok = True
    for trial in range(500):
        n = int(rng.integers(2, 8))
        k_act = int(rng.integers(2, 4))
        max_classes = int(rng.integers(1, 4))
        d = (L2, KL)[trial % 2]
        data = random_distributions(rng, n, k_act)
        prior = rng.dirichlet(np.ones(n))
        winners, _ = global_cluster(data, prior, max_classes, d)
        for w in winners:
            okc, _ = is_locally_clustered(data, w, prior, d)
            glob_ok &= okc
        init = data[rng.choice(n, size=min(max_classes, n), replace=False)]
        rep = kmeans_lloyd(data, prior, max_classes, d, init)
        hist = rep.dispersion_history
        kmeans_ok &= all(x >= y - 1e-10 for x, y in zip(hist, hist[1:]))
        kmeans_ok &= rep.locally_clustered
    elapsed = time.monotonic() - t0
    ok = glob_ok and kmeans_ok and elapsed < 60
    report("6 (clustering core properties)", ok, elapsed, 60)
    assert glob_ok and kmeans_ok
    assert elapsed < 60


def test_criterion_7_learning_fixed_points():
    t0 = time.monotonic()
    fixtures = []
    spec_mp = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env_mp = build_matching_pennies(spec_mp)
    fixtures.append((env_mp, solve_matching_pennies_cdabee(spec_mp)))
    spec_mon = MonitoringSpec(*MON_P, 0.5, 0.3)
    env_mon = build_monitoring(spec_mon)
    fixtures.append((env_mon, solve_monitoring_cdabee(spec_mon, GLOBAL, L2).candidates[0]))
    fixed_ok = True
    for env, cand in fixtures:
        state = state_from_candidate(env, cand)
        nxt1 = model1_step(env, state, (2, 3), L2, PerturbationSpec(0.0), tie_break="incumbent")
        fixed_ok &= state_distance(state, nxt1) <= 1e-9
        nxt2 = model2_step(env, state, L2)
        fixed_ok &= state_distance(state, nxt2) <= 1e-9
    # a perturbed state moves
    state = state_from_candidate(env_mon, fixtures[1][1])
    state.aggregates[1][2] = [0.62, 0.38]
    moved = model1_step(env_mon, state, (2, 3), L2, PerturbationSpec(0.0), tie_break="incumbent")
    perturbed_ok = state_distance(state, moved) > 1e-9
    # Monte Carlo determinism at scale
    start = state_from_candidate(env_mp, fixtures[0][1])
    pert = PerturbationSpec(epsilon=0.01, seed=123)
    traj1, _ = model1_run(env_mp, start, 100, (2, 3), L2, pert, n_subjects=10_000)
    traj2, _ = model1_run(env_mp, start, 100, (2, 3), L2, pert, n_subjects=10_000)
    determinism_ok = all(state_distance(a, b) == 0.0 for a, b in zip(traj1, traj2))
    elapsed = time.monotonic() - t0
    ok = fixed_ok and perturbed_ok and determinism_ok and elapsed < 120
    report("7 (learning fixed points)", ok, elapsed, 120)
    assert fixed_ok and perturbed_ok and determinism_ok
    assert elapsed < 120


def test_criterion_8_figure_scenarios(tmp_path):
    t0 = time.monotonic()
    catalog = bundled_scenarios()
    expectations = {
        "fig1a_linear": ("up", [0.25, 0.5, 0.75]),
        "fig1b_linear": ("down", [0.25, 0.5, 0.75]),
        "fig2a_linear": ("opposite", [-0.75, -0.5, -0.25]),
        "fig2b_linear": ("opposite", [-0.75, -0.5, -0.25]),
    }
    ok = True
    for name, (direction, boundaries) in expectations.items():
        run_scenario(catalog[name], tmp_path)
        rows = (tmp_path / catalog[name]["outputs"]["csv"]).read_text().splitlines()[1:]
        parsed = [tuple(map(float, r.split(","))) for r in rows]
        by_mu = {}
        for mu, _, abee_val, cls in parsed:
            by_mu.setdefault(round(mu, 9), []).append((int(cls), abee_val))
        for boundary in boundaries:
            sides = sorted(by_mu[round(boundary, 9)])
            ok &= len(sides) == 2
            jump = sides[1][1] - sides[0][1]
            if direction == "up":
                ok &= jump > 0
            elif direction == "down":
                ok &= jump < 0
            else:
                # jump direction opposes the within-class slope
                left_cls = sides[0][0]
                cls_rows = sorted(
                    (mu, v) for mu, _, v, cls in parsed if cls == left_cls
                )
                slope = cls_rows[-1][1] - cls_rows[0][1]
                ok &= jump * slope < 0
        # boundaries appear nowhere else as duplicated rows
        dup_mus = {mu for mu, entries in by_mu.items() if len(entries) > 1}
        ok &= dup_mus == {round(b, 9) for b in boundaries}
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    report("8 (figure-data scenarios)", ok, elapsed, 10)
    assert ok
    assert elapsed < 10
