import tracemalloc

import numpy as np
import pytest

from cabee import abee
from cabee.abee import abee_solve, degenerate_pair, stack_plays
from cabee.cli import DIVERGENCES, _stake_triples, bundled_scenarios
from cabee.clustering import L2, dispersion, mean_divergence
from cabee.env import make_environment
from cabee.equilibrium import GLOBAL, LOCAL, cabee_verify, cd_abee_verify, unclustered
from cabee.partitions import Partition
from cabee.applications import HypothesesUnmet
from cabee.applications.matching_pennies import (
    MatchingPenniesSpec,
    analytic_two_class_abee,
    build_matching_pennies,
    row_indifference_point,
    solve_matching_pennies_cdabee,
    two_class_refutation,
    two_class_row_partitions,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        MatchingPenniesSpec(1.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        MatchingPenniesSpec(0.5, 1.0, 2.0)


def test_payoff_matrix_entries():
    env = build_matching_pennies(MatchingPenniesSpec(0.5, 1.0, 1.5))
    # stake enters only the matching (U, L) cell of the row player
    assert env.payoffs[0][0, 0, 1] == pytest.approx(2.0)  # 1 + x at x = 1
    for g in range(3):
        assert env.payoffs[0][1, 1, g] == 1.0 and env.payoffs[1][1, 1, g] == 0.0
        np.testing.assert_allclose(env.payoffs[1][:, :, g], [[0, 1], [1, 0]])


def test_closed_form_equilibrium_values():
    cand = solve_matching_pennies_cdabee(MatchingPenniesSpec(0.5, 1.0, 1.5))
    col = cand.aggregates()[1][:, 0]
    np.testing.assert_allclose(col, [16 / 35, 12 / 35, 8 / 35], atol=1e-12)
    assert tuple(cand.lams[0].weights) == (0.5, 0.5)
    # the sorted mixture values are equally spaced with midpoint average
    assert col[1] == pytest.approx((col[0] + col[2]) / 2, abs=1e-12)


def test_closed_form_bundle_expectations():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    cand = solve_matching_pennies_cdabee(spec)
    col = cand.aggregates()[1][:, 0]
    # bundle {a,b} sits at the low-stake indifference point, {b,c} at the high
    assert (col[0] + col[1]) / 2 == pytest.approx(row_indifference_point(spec.a), abs=1e-12)
    assert (col[1] + col[2]) / 2 == pytest.approx(row_indifference_point(spec.c), abs=1e-12)


def test_aggregate_row_is_even_everywhere():
    for stakes in ((0.5, 1.0, 1.5), (0.2, 0.9, 1.8), (1.0, 1.3, 1.9)):
        cand = solve_matching_pennies_cdabee(MatchingPenniesSpec(*stakes))
        np.testing.assert_allclose(cand.aggregates()[0][:, 0], 0.5, atol=1e-12)


def test_closed_form_verifies_globally():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cand = solve_matching_pennies_cdabee(spec)
    rep = cd_abee_verify(env, cand, (2, 3))
    assert rep.ok and rep.br_gain <= 1e-12


def test_clustering_tie_between_support_partitions():
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env = build_matching_pennies(spec)
    cand = solve_matching_pennies_cdabee(spec)
    data = cand.aggregates()[1]
    an_low, an_high = cand.lams[0].support
    d_low = dispersion(data, an_low, env.prior, L2)
    d_high = dispersion(data, an_high, env.prior, L2)
    assert d_low == pytest.approx(d_high, abs=1e-12)
    middle = Partition.from_classes(3, [(1,), (0, 2)])
    assert dispersion(data, middle, env.prior, L2) > d_low + 1e-4


def test_analytic_structure_matches_solver():
    spec = MatchingPenniesSpec(0.7, 1.1, 1.6)
    env = build_matching_pennies(spec)
    fin = Partition.finest(3)
    for part in two_class_row_partitions():
        (prof,) = abee_solve(env, (part, fin))
        row_ref, col_ref = analytic_two_class_abee(spec, part)
        np.testing.assert_allclose(prof.single(0)[:, 0], row_ref, atol=1e-9)
        np.testing.assert_allclose(prof.single(1)[:, 0], col_ref, atol=1e-9)


def test_refutation_on_one_spec():
    (report,) = two_class_refutation([MatchingPenniesSpec(0.5, 1.0, 1.5)])
    assert len(report) == 3
    for rep in report.values():
        assert rep["n_equilibria"] == 1
        assert rep["analytic_gap"] <= 1e-9
        assert not any(rep["verdicts"]["local"])
        assert not any(rep["verdicts"]["global"])


def _bundled_sweep():
    return _stake_triples(bundled_scenarios()["prop1_refutation"]["params"]["sweep_step"], None)


def _reference_refutation(specs, d):
    """The refutation one stake triple, partition and mode at a time, with
    one `cabee_verify` call per profile."""
    fin = Partition.finest(3)
    reports = []
    for spec in specs:
        env = build_matching_pennies(spec)
        report = {}
        for part in two_class_row_partitions():
            profiles = abee_solve(env, (part, fin))
            row_ref, col_ref = analytic_two_class_abee(spec, part)
            gaps = [float(max(np.abs(p.single(0)[:, 0] - row_ref).max(), np.abs(p.single(1)[:, 0] - col_ref).max()))
                    for p in profiles]
            report[part] = {
                "n_equilibria": len(profiles),
                "analytic_gap": min(gaps) if gaps else None,
                "verdicts": {mode: [cabee_verify(env, (part, fin), p, mode, d, capacities=(2, 3)).ok for p in profiles]
                             for mode in (LOCAL, GLOBAL)},
            }
        reports.append(report)
    return reports


@pytest.mark.parametrize(
    "d, mixed",
    [(DIVERGENCES["l2"], False), (DIVERGENCES["kl"], False), (DIVERGENCES["mean"], False),
     (mean_divergence((0.0, 3e-5)), True), (mean_divergence((0.0, 3e-6)), True)],
    ids=["l2", "kl", "mean", "mean-flat", "mean-flatter"],
)
def test_refutation_sweep_matches_per_triple_reference(d, mixed):
    """Every verdict of the batched sweep is `cabee_verify(...).ok` of its
    profile and mode.  At the bundled stakes every verdict is False under
    the scenario divergences; the flattened mean divergences put the
    dispersion gaps of some triples inside the tie tolerances, so their
    batches mix passing and failing rows."""
    specs = _bundled_sweep()
    got = two_class_refutation(specs, d)
    assert got == _reference_refutation(specs, d)
    assert sum(rep["n_equilibria"] for report in got for rep in report.values()) == 252
    verdicts = [v for report in got for rep in report.values() for vs in rep["verdicts"].values() for v in vs]
    assert (any(verdicts) and not all(verdicts)) if mixed else not any(verdicts)


def test_clustering_failures_refuse_environments_with_different_priors():
    """`unclustered` reads only the prior: a batch over environments that
    share it gives each row's own failures, and one whose priors differ is
    refused."""
    spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
    env, other = build_matching_pennies(spec), build_matching_pennies(MatchingPenniesSpec(0.2, 0.4, 1.8))
    skewed = make_environment([0.5, 0.25, 0.25], env.payoffs[0], env.payoffs[1])
    lams = degenerate_pair(two_class_row_partitions()[0], Partition.finest(3))
    (prof,) = abee_solve(env, tuple(lam.support[0] for lam in lams))
    plays = tuple(np.stack([p, p]) for p in stack_plays(prof, lams))
    for mode in (LOCAL, GLOBAL):
        alone = unclustered(env, lams, plays, mode, L2, (2, 3))
        assert alone[0] and unclustered([env, other], lams, plays, mode, L2, (2, 3)) == alone
        with pytest.raises(ValueError, match="different priors"):
            unclustered([env, skewed], lams, plays, mode, L2, (2, 3))


def test_refutation_sweep_memory_is_bounded_by_its_runs(monkeypatch):
    """The sweep's 252 supports are solved in runs of at most
    `_RUN_SUPPORTS`, so it never holds the regime tables of the whole
    sweep at once: its peak stays under a fixed bound, and the uncapped
    stream, one run of the whole sweep, peaks at more than twice as much."""
    specs = _bundled_sweep()
    bound = 2.5 * 2**20

    def peak():
        tracemalloc.start()
        try:
            two_class_refutation(specs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    capped = peak()
    assert capped < bound
    monkeypatch.setattr(abee, "_RUN_SUPPORTS", 1 << 20)
    assert peak() > 2 * capped


def test_refutation_sweep_checks_and_maps_per_run_not_per_support(monkeypatch):
    """The bundled sweep's 252 supports are solved in runs of
    `_RUN_SUPPORTS`: each run builds its affine maps once per map width
    (`_map_group`) and checks best replies once per distinct support (3 row
    partitions), so both counts are bounded by a small constant per run, not
    by the supports."""
    specs = _bundled_sweep()
    calls = {"verify": 0, "maps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(abee, "dist_abee_verify_batch", counted("verify", abee.dist_abee_verify_batch))
    monkeypatch.setattr(abee, "_map_group", counted("maps", abee._map_group))
    reports = two_class_refutation(specs)
    assert sum(rep["n_equilibria"] for report in reports for rep in report.values()) == 252
    runs = -(-252 // abee._RUN_SUPPORTS)
    assert runs == 8
    assert 0 < calls["verify"] <= 3 * runs
    assert 0 < calls["maps"] <= 2 * runs


def test_construction_rejects_out_of_scope_spec():
    # squeezing the stakes together keeps the construction valid; the
    # guard only fires for out-of-range mixtures, so exercise it directly
    with pytest.raises((HypothesesUnmet, ValueError)):
        solve_matching_pennies_cdabee(MatchingPenniesSpec(0.5, 0.5, 1.5))
