import itertools
import json
import re
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from cabee.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VALIDATION,
    ScenarioError,
    bundled_scenarios,
    main,
    validate_scenario,
)


def run_cli(*argv):
    return main(list(argv))


def test_catalog_size_and_required_entries():
    catalog = bundled_scenarios()
    assert len(catalog) >= 12
    for required in ("prop1_refutation", "prop5_monitoring", "fig1a_linear"):
        assert required in catalog


def test_catalog_all_validate():
    for name, doc in bundled_scenarios().items():
        validate_scenario(doc)


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == EXIT_OK
    out = capsys.readouterr().out
    assert "prop5_monitoring" in out and "fig1a_linear" in out


def test_monitoring_scenario_run_and_verify(tmp_path, capsys):
    assert run_cli("run", "--scenario", "prop5_monitoring", "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "prop5_monitoring.result.json").read_text())
    assert doc["results"]["lambda"] == [0.3, 0.7]
    assert doc["results"]["zeta"] == pytest.approx(0.5, abs=1e-12)
    assert doc["verification"]["all_ok"]
    assert all(
        lam == pytest.approx(0.3) and z == pytest.approx(0.5)
        for _, lam, z in doc["results"]["nu_sweep"]
    )
    assert run_cli("verify", str(tmp_path / "prop5_monitoring.result.json")) == EXIT_OK


def test_verify_detects_corruption(tmp_path, capsys):
    run_cli("run", "--scenario", "prop5_monitoring", "--out", str(tmp_path))
    path = tmp_path / "prop5_monitoring.result.json"
    doc = json.loads(path.read_text())
    doc["results"]["candidates"][0]["strategies"][1][0]["play"][2] = [0.9, 0.1]
    path.write_text(json.dumps(doc))
    assert run_cli("verify", str(path)) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAILS" in out


def _weights_off_one(cand):
    cand["lams"][0][0]["weight"] = 0.5


def _game_in_two_classes(cand):
    cand["lams"][0][0]["partition"] = [[0, 2], [1, 2]]


def _ragged_play(cand):
    cand["strategies"][1][0]["play"][2] = [0.9]


def _two_rows_for_three_games(cand):
    del cand["strategies"][1][0]["play"][2]


def _three_actions_in_a_binary_game(cand):
    cand["strategies"][1][0]["play"] = [[*row, 0.0] for row in cand["strategies"][1][0]["play"]]


def _not_a_distribution(cand):
    cand["strategies"][1][0]["play"][2] = [0.7, 0.7]


@pytest.mark.parametrize(
    "corrupt",
    [_weights_off_one, _game_in_two_classes, _ragged_play, _two_rows_for_three_games,
     _three_actions_in_a_binary_game, _not_a_distribution],
)
def test_verify_fails_an_unreadable_candidate(tmp_path, capsys, corrupt):
    """A stored candidate that cannot be read back fails verification with
    exit code 2 and a note naming it, not a traceback."""
    assert run_cli("run", "--scenario", "prop5_monitoring", "--out", str(tmp_path)) == EXIT_OK
    path = tmp_path / "prop5_monitoring.result.json"
    doc = json.loads(path.read_text())
    corrupt(doc["results"]["candidates"][0])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(path)) == EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("candidate 0: unreadable (") and out[-1] == "verification: FAILED"


def test_verification_is_seed_free(tmp_path):
    run_cli("run", "--scenario", "prop5_monitoring", "--seed", "999", "--out", str(tmp_path))
    assert run_cli("verify", str(tmp_path / "prop5_monitoring.result.json")) == EXIT_OK


def test_fig1a_csv_jumps(tmp_path):
    assert run_cli("run", "--scenario", "fig1a_linear", "--out", str(tmp_path)) == EXIT_OK
    rows = (tmp_path / "fig1a.csv").read_text().splitlines()
    assert rows[0] == "mu,nash_action,abee_action,class_index"
    parsed = [r.split(",") for r in rows[1:]]
    by_mu = {}
    for mu, nash, abee, cls in parsed:
        by_mu.setdefault(float(mu), []).append((float(abee), int(cls)))
    for boundary in (0.25, 0.5, 0.75):
        sides = sorted(by_mu[boundary], key=lambda t: t[1])
        assert len(sides) == 2
        assert sides[1][0] > sides[0][0]  # upward jump
    assert (tmp_path / "fig1a.svg").read_text().startswith("<svg")


def test_invalid_prior_names_field(tmp_path, capsys):
    bad = {
        "version": 1,
        "kind": "custom-env",
        "solver": "abee",
        "params": {
            "games": ["g"],
            "prior": [0.7, 0.5],
            "actions": {"i": ["U", "D"], "j": ["L", "R"]},
            "payoffs": {
                "i": [[[1.0], [0.0]], [[0.0], [1.0]]],
                "j": [[[0.0], [1.0]], [[1.0], [0.0]]],
            },
            "partitions": [[[0]], [[0]]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "prior" in err or "params" in err


def test_malformed_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    assert "line" in capsys.readouterr().err


def test_missing_scenario_field_rejected():
    with pytest.raises(ScenarioError):
        validate_scenario({"version": 1, "kind": "beauty"})
    with pytest.raises(ScenarioError, match="^seed:"):
        validate_scenario(
            {"version": 1, "kind": "matching-pennies", "solver": "learn1", "params": {}}
        )  # randomness without a seed


def test_identical_runs_are_byte_identical_modulo_timing(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli(
            "run", "--scenario", "learn1_matching_pennies", "--out", str(out)
        ) == EXIT_OK
    d1 = json.loads((out1 / "learn1_matching_pennies.result.json").read_text())
    d2 = json.loads((out2 / "learn1_matching_pennies.result.json").read_text())
    d1.pop("timing_ms"), d2.pop("timing_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    csv1 = (out1 / "learn1_actions.csv").read_text()
    csv2 = (out2 / "learn1_actions.csv").read_text()
    assert csv1 == csv2


def test_mode_and_divergence_overrides(tmp_path):
    assert (
        run_cli(
            "run",
            "--scenario",
            "prop6_monitoring_l2",
            "--divergence",
            "kl",
            "--out",
            str(tmp_path),
        )
        == EXIT_OK
    )
    doc = json.loads((tmp_path / "prop6_monitoring_l2.result.json").read_text())
    lo, hi = doc["results"]["zeta_range"]
    assert lo == pytest.approx(0.0, abs=1e-3) and hi == pytest.approx(1.0, abs=1e-3)


def test_cluster_scenario(tmp_path):
    assert run_cli("run", "--scenario", "cluster_three_points", "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "cluster_three_points.result.json").read_text())
    assert doc["results"]["minimizers"] == [[[0, 1], [2]]]


def test_malformed_kind_params_exit_validation(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "beauty",
        "solver": "cabee",
        "params": {"r": 0.9, "n": 10, "K": 2, "partition": [[0, 1], [1, 2]]},
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    doc["params"].pop("partition")
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    assert "partition" in capsys.readouterr().err


def test_bad_learning_params_exit_validation(tmp_path, capsys):
    """A non-finite or negative noise scale, a step or subject count that is
    not a positive integer, or an unknown tie-break is refused by validation,
    and exits 2 with a params message naming the value; learn2 checks its
    step count too."""
    for name, key, value, named in (
        ("learn1_matching_pennies", "epsilon", float("nan"), "got nan"),
        ("learn1_matching_pennies", "epsilon", float("inf"), "got inf"),
        ("learn1_matching_pennies", "epsilon", -0.5, "got -0.5"),
        ("learn1_matching_pennies", "n_subjects", 0, "got 0"),
        ("learn1_matching_pennies", "n_subjects", 2.5, "got 2.5"),
        ("learn1_matching_pennies", "steps", -2, "got -2"),
        ("learn1_matching_pennies", "steps", "ten", "got 'ten'"),
        ("learn1_matching_pennies", "steps", True, "got True"),
        ("learn1_matching_pennies", "tie_break", "x", "got 'x'"),
        ("learn2_monitoring", "steps", 0, "got 0"),
    ):
        doc = json.loads(json.dumps(bundled_scenarios()[name]))
        doc["params"].update({"steps": 2, key: value})
        with pytest.raises(ScenarioError, match=f"^params\\.{key}: "):
            validate_scenario(doc)
        path = tmp_path / "bad_learn.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity are JSON that json.load accepts
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: params.{key}: " in err and named in err, err


@pytest.mark.parametrize("step", [-1, 0, 5, 1.5, 2 / 3, float("nan"), "0.2", True, None])
def test_refutation_sweep_step_validated(step):
    """A sweep step is a positive number whose grid step, 2*step, ... below 2
    holds at least one stake triple 0 < a < b < c < 2."""
    doc = json.loads(json.dumps(bundled_scenarios()["prop1_refutation"]))
    doc["params"]["sweep_step"] = step
    with pytest.raises(ScenarioError, match="^params.sweep_step: "):
        validate_scenario(doc)
    doc["params"]["sweep_step"] = 0.6  # 0.6, 1.2, 1.8: one triple
    assert validate_scenario(doc) is doc


def test_refutation_sweep_bounded_by_max_evaluations():
    """A stake grid costs 3 solves per triple, against the document's
    `max_evaluations` or the search's default of 10,000: the step 0.02 asks
    for 156,849 triples and is refused unless the budget covers them; the
    bundled step 0.2 asks for 252 solves."""
    from cabee.cli import _parse

    doc = json.loads(json.dumps(bundled_scenarios()["prop1_refutation"]))
    assert len(_parse(doc).stakes) == 84
    doc["params"]["sweep_step"] = 0.02
    with pytest.raises(ScenarioError, match=r"^params\.sweep_step: 0\.02 asks for 470547 solves .*10000"):
        validate_scenario(doc)
    doc["max_evaluations"] = 470_546
    with pytest.raises(ScenarioError, match=r"^params\.sweep_step: .*470546"):
        validate_scenario(doc)
    doc["max_evaluations"] = 470_547
    assert validate_scenario(doc) is doc
    doc = dict(doc, params=dict(doc["params"], sweep_step=0.2), max_evaluations=251)
    with pytest.raises(ScenarioError, match="asks for 252 solves"):
        validate_scenario(doc)


def test_refutation_sweep_refused_before_its_grid_is_built():
    """A step too fine for the budget is refused from a count of its grid,
    so validation does not grow with the grid it refuses."""
    doc = json.loads(json.dumps(bundled_scenarios()["prop1_refutation"]))
    doc["params"]["sweep_step"] = 1e-6
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=r"^params\.sweep_step: 1e-06 asks for 3999988000010999997 solves"):
            validate_scenario(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("divergence", ["l2", "kl", "mean"])
def test_refutation_runs_under_the_scenario_divergence(tmp_path, monkeypatch, divergence):
    """The refutation's clustering checks use the document's divergence, and
    each divergence refutes at the bundled stakes."""
    from cabee.applications import matching_pennies
    from cabee.cli import DIVERGENCES, run_scenario

    used = []
    refute = matching_pennies.two_class_refutation

    def spy(specs, d):
        used.append(d)
        return refute(specs, d)

    monkeypatch.setattr(matching_pennies, "two_class_refutation", spy)
    doc = dict(bundled_scenarios()["prop1_refutation"], divergence=divergence, params={"a": 0.5, "b": 1.0, "c": 1.5})
    result, _ = run_scenario(doc, tmp_path)
    assert used == [DIVERGENCES[divergence]]
    assert result["results"] == {"pure_clustered_equilibria_refuted": True, "cases_checked": 3}


def test_refutation_reports_nothing_when_nothing_is_checked(tmp_path, monkeypatch):
    """A refutation that checked no case refutes nothing, and its
    verification fails; the bundled sweep checks every grid triple."""
    from cabee.applications import matching_pennies
    from cabee.cli import run_scenario

    doc = dict(bundled_scenarios()["prop1_refutation"], params={"sweep_step": 0.6})
    result, _ = run_scenario(doc, tmp_path)
    assert result["results"] == {"pure_clustered_equilibria_refuted": True, "cases_checked": 3}
    assert result["verification"]["all_ok"]
    monkeypatch.setattr(matching_pennies, "two_class_refutation", lambda specs, d: [])
    result, _ = run_scenario(doc, tmp_path)
    assert result["results"] == {"pure_clustered_equilibria_refuted": False, "cases_checked": 0}
    assert not result["verification"]["all_ok"]


def test_bundled_scenarios_set_only_fields_the_cli_reads():
    from cabee.cli import PARAMS

    read = {"version", "kind", "solver", "mode", "divergence", "params", "seed", "max_evaluations", "outputs",
            "description"}
    for name, doc in bundled_scenarios().items():
        assert set(doc) <= read, (name, set(doc) - read)
        rows, outputs = PARAMS[doc["kind"], doc["solver"]]
        assert set(doc.get("params", {})) <= {row[0] for row in rows}, name
        assert set(doc.get("outputs", {})) <= {row[0] for row in outputs}, name


def test_params_table_is_keyed_like_the_runners():
    from cabee.cli import PARAMS, RUNNERS

    assert PARAMS.keys() == RUNNERS.keys()


# wall-time bound of each bundled scenario, in seconds
BUDGET_S = {
    "beauty_eq4_discrete": 30, "beauty_prop2_high_r": 30, "beauty_prop3_monotone": 60,
    "beauty_r0_equal_split": 120, "cluster_three_points": 10, "custom_env_single_game": 10,
    "equidistant_triangular": 30, "example1_cdabee": 30, "fig1a_linear": 10, "fig1b_linear": 10,
    "fig2a_linear": 10, "fig2b_linear": 10, "learn1_matching_pennies": 60, "learn2_monitoring": 30,
    "linear_equidistant_windows": 60, "prop1_refutation": 30, "prop5_monitoring": 30,
    "prop6_monitoring_kl": 60, "prop6_monitoring_l2": 60,
}


def test_every_bundled_scenario_within_declared_budget(tmp_path):
    import time

    from cabee.cli import run_scenario

    assert set(bundled_scenarios()) == set(BUDGET_S)
    for name, doc in bundled_scenarios().items():
        t0 = time.monotonic()
        result, exhausted = run_scenario(doc, tmp_path / name)
        elapsed = time.monotonic() - t0
        assert elapsed < BUDGET_S[name], (name, elapsed)
        assert not exhausted, name
        assert result["verification"]["all_ok"], name


def _dominance_scenario(capacities):
    """Three games in which the row player's dominant action differs across
    games, so the coarsest categorization does not minimize the column
    player's dispersion once three classes are allowed."""
    return {
        "version": 1,
        "kind": "custom-env",
        "solver": "cdabee",
        "mode": "global",
        "params": {
            "games": ["g0", "g1", "g2"],
            "prior": [0.25, 0.25, 0.5],
            "actions": {"i": ["U", "D"], "j": ["L", "R"]},
            "payoffs": {
                "i": [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]],
                "j": [[[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]],
            },
            "capacities": capacities,
        },
    }


def test_verify_uses_declared_custom_env_capacities(tmp_path, capsys):
    path = tmp_path / "dominance.json"
    path.write_text(json.dumps(_dominance_scenario([1, 1])))
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_OK
    result = tmp_path / "dominance.result.json"
    doc = json.loads(result.read_text())
    assert doc["results"]["candidates"] and doc["verification"]["all_ok"]
    assert run_cli("verify", str(result)) == EXIT_OK
    doc["scenario"]["params"]["capacities"] = [3, 3]
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(result)) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAILS" in out and "not a dispersion minimizer" in out


@pytest.mark.parametrize("capacities", [[0, 1], [1, 4], [1], [1.0, 1], [True, 1], "2"])
def test_custom_env_capacities_validated(capacities):
    with pytest.raises(ScenarioError, match="capacities"):
        validate_scenario(_dominance_scenario(capacities))


@pytest.mark.parametrize("budget", [None, -1, 0, float("nan"), float("inf"), "10", True])
def test_time_budget_validated(budget):
    """time_budget_s is not a scenario field: the search stops on
    max_evaluations, so a budget in seconds is refused, whatever its value."""
    doc = dict(bundled_scenarios()["prop5_monitoring"], time_budget_s=budget)
    with pytest.raises(ScenarioError, match="time_budget_s"):
        validate_scenario(doc)


def test_time_budget_optional():
    """No bundled scenario needs time_budget_s."""
    doc = dict(bundled_scenarios()["prop5_monitoring"])
    doc.pop("time_budget_s", None)
    assert validate_scenario(doc) is doc


def _matching_pennies_custom_env(max_evaluations):
    """The three matching-pennies games (0.5, 1, 1.5) as a custom environment."""
    return {
        "version": 1,
        "kind": "custom-env",
        "solver": "cdabee",
        "mode": "global",
        "params": {
            "games": ["a", "b", "c"],
            "prior": [1 / 3, 1 / 3, 1 / 3],
            "actions": {"i": ["H", "T"], "j": ["H", "T"]},
            "payoffs": {
                "i": [[[1.5, 2.0, 2.5], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]],
                "j": [[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]],
            },
            "capacities": [2, 3],
        },
        "max_evaluations": max_evaluations,
    }


def test_search_budget_exhausted_without_candidates_exits_3(tmp_path, capsys):
    """5 of layer 1's 20 solves find no pure equilibrium, on every run."""
    path = tmp_path / "pennies.json"
    path.write_text(json.dumps(_matching_pennies_custom_env(5)))
    for _ in range(3):
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_BUDGET
        doc = json.loads((tmp_path / "pennies.result.json").read_text())
        assert doc["results"]["candidates"] == []
    assert "exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [None, -1, 0, 1.0, 2.5, float("nan"), "10", True])
def test_max_evaluations_validated(budget):
    with pytest.raises(ScenarioError, match="max_evaluations"):
        validate_scenario(_matching_pennies_custom_env(budget))


@pytest.mark.parametrize("seed", [True, -1, 1.5, "x"])
def test_seed_validated(seed):
    doc = {**bundled_scenarios()["learn1_matching_pennies"], "seed": seed}
    with pytest.raises(ScenarioError, match="^seed: expected a non-negative integer$"):
        validate_scenario(doc)


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_max_evaluations_flag_validated(tmp_path, capsys, budget):
    path = tmp_path / "pennies.json"
    path.write_text(json.dumps(_matching_pennies_custom_env(5)))
    argv = ("run", "--scenario", str(path), "--out", str(tmp_path), "--max-evaluations", budget)
    assert run_cli(*argv) == EXIT_VALIDATION
    assert "max_evaluations" in capsys.readouterr().err


def test_flag_overrides_are_recorded_in_the_result(tmp_path):
    """Set flags become part of the echoed scenario, so the echo reruns to
    the same results; a run without flags echoes its file unchanged."""
    argv = ("--scenario", "example1_cdabee", "--max-evaluations", "20", "--mode", "local")
    assert run_cli("run", *argv, "--out", str(tmp_path / "a")) == EXIT_BUDGET
    doc = json.loads((tmp_path / "a" / "example1_cdabee.result.json").read_text())
    assert doc["scenario"] == {
        **bundled_scenarios()["example1_cdabee"], "max_evaluations": 20, "mode": "local"
    }
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(doc["scenario"]))
    assert run_cli("run", "--scenario", str(echo), "--out", str(tmp_path / "b")) == EXIT_BUDGET
    rerun = json.loads((tmp_path / "b" / "echo.result.json").read_text())
    assert rerun["scenario"] == doc["scenario"]
    assert rerun["results"] == doc["results"]
    assert run_cli("run", "--scenario", "prop5_monitoring", "--out", str(tmp_path)) == EXIT_OK
    plain = json.loads((tmp_path / "prop5_monitoring.result.json").read_text())
    assert plain["scenario"] == bundled_scenarios()["prop5_monitoring"]


@pytest.mark.parametrize("name", ["kl", "l2", "mean"])
def test_candidate_json_round_trips_each_divergence(name):
    """A stored candidate comes back with the divergence of its scenario
    name, its distributions and its strategies unchanged."""
    from cabee.applications.monitoring import MonitoringSpec, build_monitoring, solve_monitoring_cdabee
    from cabee.cli import DIVERGENCES, _candidate_from_json, _candidate_to_json
    from cabee.equilibrium import GLOBAL

    d, spec = DIVERGENCES[name], MonitoringSpec(0.4, 0.4, 0.2, 0.5, 0.3)
    (cand,) = solve_monitoring_cdabee(spec, GLOBAL, d).candidates
    doc = json.loads(json.dumps(_candidate_to_json(cand)))
    back = _candidate_from_json(build_monitoring(spec), doc)
    assert back.divergence == d and back.mode == GLOBAL and back.lams == cand.lams
    for player in (0, 1):
        for part in cand.lams[player].support:
            assert back.profile.plays[player][part].tolist() == cand.profile.plays[player][part].tolist()
    assert _candidate_to_json(back) == doc


SOLVERS = ("abee", "cabee", "cdabee", "learn1", "learn2", "cluster")
SUPPORTED = {
    ("custom-env", "abee"), ("custom-env", "cdabee"), ("custom-env", "cluster"),
    ("matching-pennies", "abee"), ("matching-pennies", "cabee"), ("matching-pennies", "cdabee"),
    ("matching-pennies", "learn1"), ("matching-pennies", "learn2"),
    ("monitoring", "cdabee"), ("monitoring", "learn1"), ("monitoring", "learn2"),
    ("beauty", "abee"), ("beauty", "cabee"),
    ("linear", "abee"), ("linear", "cabee"),
}
_GAME = {key: value for key, value in _dominance_scenario([2, 2])["params"].items() if key != "capacities"}
_MONITORING = {"p_a": 0.4, "p_b": 0.4, "p_c": 0.2, "nu_star": 0.5, "mu_star": 0.3}
# parameters under which each supported pair validates
PAIR_PARAMS = {
    ("custom-env", "abee"): {**_GAME, "partitions": [[[0, 1], [2]], [[0, 1, 2]]]},
    ("custom-env", "cdabee"): {**_GAME, "capacities": [2, 2]},
    ("custom-env", "cluster"): {"data": [[0.0, 1.0], [0.1, 0.9], [1.0, 0.0]], "K": 2},
    ("matching-pennies", "abee"): {"partitions": [[[0, 1], [2]]]},
    **{("matching-pennies", solver): {} for solver in ("cabee", "cdabee", "learn1", "learn2")},
    **{("monitoring", solver): _MONITORING for solver in ("cdabee", "learn1", "learn2")},
    # beauty's cabee check needs a partition (its abee run reads the same one)
    **{("beauty", solver): {"partition": [list(range(30)), list(range(30, 60))]} for solver in ("abee", "cabee")},
    ("linear", "abee"): {},
    ("linear", "cabee"): {},
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("kind", sorted({kind for kind, _ in SUPPORTED}))
def test_solver_validated_per_kind(kind, solver):
    """Each of the 15 supported (kind, solver) pairs validates; each of the
    other 15 is rejected at validation, by a message naming the kind's
    solvers."""
    doc = {"version": 1, "kind": kind, "solver": solver, "seed": 3, "params": PAIR_PARAMS.get((kind, solver), {})}
    if (kind, solver) in SUPPORTED:
        assert validate_scenario(doc) is doc
        return
    with pytest.raises(ScenarioError, match=f"^solver: .* for {kind}, got '{solver}'$") as info:
        validate_scenario(doc)
    listed = re.findall(r"'([\w-]+)'", str(info.value).split(" for ")[0])
    assert sorted(listed) == sorted(s for k, s in SUPPORTED if k == kind)


@pytest.mark.parametrize(
    "kind, partitions",
    [
        ("matching-pennies", None),
        ("matching-pennies", "x"),
        ("matching-pennies", []),
        ("matching-pennies", [[[0, 1], [2]], [[0], [1], [2]]]),
        ("matching-pennies", [[[0, 1], [1, 2]]]),
        ("matching-pennies", [[[0, 1]]]),
        ("matching-pennies", [[0, 1, 2]]),
        ("matching-pennies", [[[0, 1], []]]),
        ("custom-env", None),
        ("custom-env", [[[0, 1, 2]]]),
        ("custom-env", [[[0, 1, 2]], [[0], [1]]]),
        ("custom-env", [[[0, 1, 2]], 5]),
    ],
)
def test_abee_partitions_validated(kind, partitions):
    """A missing or malformed `params.partitions` of an abee run is a
    validation error naming the field, not a failure at run time."""
    params = {k: v for k, v in PAIR_PARAMS[kind, "abee"].items() if k != "partitions"}
    if partitions is not None:
        params["partitions"] = partitions
    doc = {"version": 1, "kind": kind, "solver": "abee", "params": params}
    with pytest.raises(ScenarioError, match="^params.partitions: "):
        validate_scenario(doc)


CLUSTER_DATA = [[0.0, 1.0], [0.1, 0.9], [1.0, 0.0]]


@pytest.mark.parametrize(
    "field, params",
    [
        ("data", {"K": 2}),
        ("data", {"data": [[0.0, 1.0], [1.0]], "K": 2}),
        ("data", {"data": [0.5, 0.5], "K": 2}),
        ("data", {"data": [], "K": 2}),
        ("data", {"data": [["a", "b"]], "K": 2}),
        ("data", {"data": [[0.5, 0.6], [1.0, 0.0]], "K": 2}),
        ("data", {"data": [[-0.5, 1.5], [1.0, 0.0]], "K": 2}),
        ("data", {"data": [[0.5, 0.5]] * 15, "K": 2}),
        ("K", {"data": CLUSTER_DATA}),
        ("K", {"data": CLUSTER_DATA, "K": 0}),
        ("K", {"data": CLUSTER_DATA, "K": 1.5}),
        ("K", {"data": CLUSTER_DATA, "K": "2"}),
        ("K", {"data": CLUSTER_DATA, "K": True}),
        ("prior", {"data": CLUSTER_DATA, "K": 2, "prior": [0.5, 0.5]}),
        ("prior", {"data": CLUSTER_DATA, "K": 2, "prior": [0.5, 0.5, 0.0]}),
        ("prior", {"data": CLUSTER_DATA, "K": 2, "prior": [0.3, 0.3, 0.3]}),
        ("prior", {"data": CLUSTER_DATA, "K": 2, "prior": [[0.5, 0.5]]}),
        ("algorithm", {"data": CLUSTER_DATA, "K": 2, "algorithm": "lloyd"}),
    ],
)
def test_cluster_params_validated(field, params):
    """A custom-env cluster document with ragged, non-distribution or
    oversized data, a class count that is not a positive integer, a prior
    that is not one positive weight per point summing to 1, or an unknown
    algorithm is a validation error naming the field, not a failure at run
    time."""
    doc = {"version": 1, "kind": "custom-env", "solver": "cluster", "seed": 1, "params": params}
    with pytest.raises(ScenarioError, match=f"^params\\.{field}: "):
        validate_scenario(doc)


def test_cluster_data_validated_against_the_mean_divergence():
    """The mean divergence reads two actions; three-action data is a
    validation error, and the same data validates under L2."""
    doc = {"version": 1, "kind": "custom-env", "solver": "cluster", "divergence": "mean",
           "params": {"data": [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], "K": 2}}
    with pytest.raises(ScenarioError, match="^params\\.data: "):
        validate_scenario(doc)
    assert validate_scenario({**doc, "divergence": "l2"})


HALVES = [list(range(30)), list(range(30, 60))]


@pytest.mark.parametrize(
    "solver, params",
    [
        ("cabee", {}),
        ("cabee", {"partition": "equal-split"}),
        ("cabee", {"partition": [list(range(31)), list(range(30, 60))]}),
        ("cabee", {"partition": [list(range(30))]}),
        ("cabee", {"partition": [list(range(30)), list(range(30, 61))]}),
        ("cabee", {"partition": [[float(g) for g in range(30)], list(range(30, 60))]}),
        ("cabee", {"partition": [list(range(60)), []]}),
        ("abee", {"partition": "halves"}),
        ("abee", {"partition": [list(range(31)), list(range(30, 60))]}),
        ("abee", {"partition": 5}),
        ("abee", {"n": 61}),
    ],
)
def test_beauty_partition_validated(solver, params):
    """A beauty run without a partition it can read (cabee needs class
    lists; abee also takes "equal-split", its default, which needs K to
    divide n) is a validation error naming params.partition."""
    doc = {"version": 1, "kind": "beauty", "solver": solver, "params": params}
    with pytest.raises(ScenarioError, match="^params\\.partition: "):
        validate_scenario(doc)


def test_beauty_partition_accepted():
    """Class lists validate under both solvers, and the self-consistent
    sweep needs no partition."""
    for solver in ("abee", "cabee"):
        assert validate_scenario({"version": 1, "kind": "beauty", "solver": solver, "params": {"partition": HALVES}})
    assert validate_scenario({"version": 1, "kind": "beauty", "solver": "abee", "params": {}})
    assert validate_scenario(
        {"version": 1, "kind": "beauty", "solver": "cabee", "params": {"self_consistent_sweep": True}}
    )


@pytest.mark.parametrize("counts", [[0], ["x"], [2.5], 3, [True], [61], [9], [], None, [3, 3], [2, 3, 2]])
def test_beauty_class_counts_validated(counts):
    """The sweep's class counts are a non-empty list of distinct integers
    (not bools) in [1, n]; anything else is a validation error naming
    params.class_counts, before the sweep can crash, key its output "True",
    return no partition or sweep one count twice."""
    params = {"n": 8, "r": 0.3, "self_consistent_sweep": True, "class_counts": counts}
    doc = {"version": 1, "kind": "beauty", "solver": "cabee", "params": params}
    with pytest.raises(ScenarioError, match="^params\\.class_counts: "):
        validate_scenario(doc)
    assert validate_scenario({**doc, "params": {**params, "class_counts": [1, 3, 8]}})


def test_beauty_sweep_default_class_count_validated():
    """Without class_counts the sweep runs K alone, which must not exceed n."""
    params = {"n": 8, "K": 9, "self_consistent_sweep": True}
    with pytest.raises(ScenarioError, match="^params\\.K: "):
        validate_scenario({"version": 1, "kind": "beauty", "solver": "cabee", "params": params})


def test_beauty_sweep_fractional_class_count_names_k():
    """Without class_counts the sweep's one class count is K, an integer in
    [1, n]; the message names K, the field the scenario sets."""
    params = {"n": 8, "K": 2.5, "self_consistent_sweep": True}
    with pytest.raises(ScenarioError, match="^params\\.K: "):
        validate_scenario({"version": 1, "kind": "beauty", "solver": "cabee", "params": params})
    assert validate_scenario({"version": 1, "kind": "beauty", "solver": "cabee", "params": {**params, "K": 2}})


@pytest.mark.parametrize(
    "kind, solver, params, key, number",
    [
        ("beauty", "cabee", {"n": True, "K": 1, "self_consistent_sweep": True}, "n", 8),
        ("linear", "cabee", {"K": True}, "K", 2),
        ("matching-pennies", "cdabee", {"a": True, "b": 1.5, "c": 1.8}, "a", 0.5),
    ],
)
def test_boolean_spec_numbers_refused(kind, solver, params, key, number):
    """A JSON boolean is a number to Python, so a spec number given as true
    would run as 1; only the flags take true or false."""
    doc = {"version": 1, "kind": kind, "solver": solver, "params": params}
    with pytest.raises(ScenarioError, match=f"^params\\.{key}: "):
        validate_scenario(doc)
    assert validate_scenario({**doc, "params": {**params, key: number}})


@pytest.mark.parametrize(
    "grid",
    [[1.5], ["x"], 0.3, [float("nan")], [float("inf")], [], [0], [1], [True], [0.5, None], [0.95, 0.05], [0.5, 0.5]],
)
def test_beauty_r_grid_validated(grid):
    """An r grid is a strictly increasing, non-empty list of finite numbers
    in (0, 1); anything else is a validation error naming params.r_grid,
    before the run can crash, call an empty grid monotone or read a
    monotone family downwards."""
    params = {"partition": HALVES, "r_grid": grid}
    doc = {"version": 1, "kind": "beauty", "solver": "cabee", "params": params}
    with pytest.raises(ScenarioError, match="^params\\.r_grid: "):
        validate_scenario(doc)
    assert validate_scenario({**doc, "params": {**params, "r_grid": [0.05, 0.5, 0.95]}})


@pytest.mark.parametrize(
    "solver, endpoints",
    [
        ("abee", [0.5, 0.2]),
        ("abee", [0.0, 0.5]),
        ("abee", [0.0, 0.7, 0.5, 1.0]),
        ("abee", [0.0, float("nan"), 1.0]),
        ("abee", [1.0]),
        ("abee", ["a", 1.0]),
        ("abee", 5),
        ("cabee", [0.5, 0.2]),
    ],
)
def test_linear_endpoints_validated(solver, endpoints):
    """Linear endpoints that are not strictly increasing across the regime
    interval are a validation error naming params.endpoints (cabee reads
    them when it is not told to use the equidistant partition)."""
    params = {"endpoints": endpoints, "equidistant": False}
    doc = {"version": 1, "kind": "linear", "solver": solver, "params": params}
    with pytest.raises(ScenarioError, match="^params\\.endpoints: "):
        validate_scenario(doc)
    assert validate_scenario({**doc, "params": {**params, "endpoints": [0, 0.3, 1]}})


@pytest.mark.parametrize("row", [[[0, 1], [2]], [[0, 2], [1]], [[0], [1, 2]]])
def test_matching_pennies_abee_run_matches_closed_form(tmp_path, row):
    from cabee.applications.matching_pennies import MatchingPenniesSpec, analytic_two_class_abee
    from cabee.cli import run_scenario
    from cabee.partitions import Partition

    doc = {"version": 1, "kind": "matching-pennies", "solver": "abee", "params": {"partitions": [row]}}
    result, exhausted = run_scenario(validate_scenario(doc), tmp_path)
    (profile,) = result["results"]["profiles"]
    want_row, want_col = analytic_two_class_abee(
        MatchingPenniesSpec(0.5, 1.0, 1.5), Partition.from_classes(3, [tuple(c) for c in row])
    )
    np.testing.assert_allclose(np.array(profile["row"])[:, 0], want_row, atol=1e-9, rtol=0)
    np.testing.assert_allclose(np.array(profile["column"])[:, 0], want_col, atol=1e-9, rtol=0)
    assert result["verification"]["all_ok"] and not exhausted


def test_custom_env_kmeans_cluster_run(tmp_path):
    """Seeded k-means from the CLI returns a locally clustered partition, and
    a rerun returns the same result."""
    from cabee.clustering import L2, is_locally_clustered
    from cabee.cli import run_scenario
    from cabee.partitions import Partition

    data = [[0.0, 1.0], [0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [1.0, 0.0], [0.5, 0.5]]
    doc = {
        "version": 1, "kind": "custom-env", "solver": "cluster", "seed": 4,
        "params": {"data": data, "K": 2, "algorithm": "kmeans"},
    }
    first, _ = run_scenario(validate_scenario(doc), tmp_path / "a")
    again, _ = run_scenario(validate_scenario(doc), tmp_path / "b")
    assert first["results"] == again["results"]
    classes = first["results"]["partition"]
    assert first["results"]["locally_clustered"] and len(classes) == 2
    part = Partition.from_classes(len(data), [tuple(c) for c in classes])
    ok, _ = is_locally_clustered(np.array(data), part, np.full(len(data), 1 / len(data)), L2)
    assert ok


def test_readme_lists_the_supported_pairs():
    """The README's table of (kind, solver) pairs is the runner table, and
    each pair's parameters and output names are its rows in `PARAMS`."""
    from cabee.cli import PARAMS, RUNNERS

    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| kind | solver | parameters | runs |") + 2
    rows = [row.split("|") for row in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    pairs = [tuple(cell.strip().strip("`") for cell in row[1:3]) for row in rows]
    assert pairs == list(RUNNERS)
    for pair, row in zip(pairs, rows):
        params, outputs = PARAMS[pair]
        listed = [name.strip().strip("`") for name in row[3].split(",")]
        assert listed == [p[0] for p in params] + [f"outputs.{o[0]}" for o in outputs], pair


@pytest.mark.parametrize(
    "name, key, value, valid",
    [("prop5_monitoring", "nu_sweep", value, 3) for value in (2.7, -1, "3", True, None)]
    + [("beauty_eq4_discrete", "n_actions", value, 2) for value in (0, -3, 1, "x", 2.5, True)]
    + [("fig1a_linear", "points_per_class", value, 1) for value in (0, -2, "x", 2.5, True, None)]
    + [
        ("equidistant_triangular", "equidistant", "no", False),
        ("equidistant_triangular", "equidistant", 0, False),
        ("linear_equidistant_windows", "windows", "yes", False),
        ("linear_equidistant_windows", "windows", None, False),
        ("beauty_r0_equal_split", "self_consistent_sweep", 1, True),
        ("beauty_r0_equal_split", "self_consistent_sweep", "no", True),
    ],
)
def test_integer_and_flag_params_validated(name, key, value, valid):
    """monitoring's nu_sweep is an integer >= 0, beauty abee's n_actions an
    integer >= K, linear abee's points_per_class an integer >= 1 (none of
    them a bool), and the self_consistent_sweep, equidistant and windows
    flags are JSON booleans; anything else is a validation error naming the
    field, before the run can crash, count "3" as three points or read "no"
    as true."""
    doc = json.loads(json.dumps(bundled_scenarios()[name]))
    doc["params"][key] = value
    with pytest.raises(ScenarioError, match=f"^params\\.{key}: "):
        validate_scenario(doc)
    doc["params"][key] = valid
    assert validate_scenario(doc) is doc


def test_nu_sweep_zero_or_absent_sweeps_nothing(tmp_path):
    from cabee.cli import run_scenario

    doc = json.loads(json.dumps(bundled_scenarios()["prop5_monitoring"]))
    assert len(run_scenario(doc, tmp_path)[0]["results"]["nu_sweep"]) == 10
    doc["params"]["nu_sweep"] = 0
    assert "nu_sweep" not in run_scenario(doc, tmp_path)[0]["results"]
    del doc["params"]["nu_sweep"]
    assert "nu_sweep" not in run_scenario(doc, tmp_path)[0]["results"]


@pytest.mark.parametrize(
    "field, value, message",
    [("p_a", 0.9, "error: params: type probabilities"), ("kind", "nope", "error: kind: expected one of")],
)
def test_verify_refuses_a_result_whose_scenario_does_not_validate(tmp_path, capsys, field, value, message):
    """`cabee verify` exits 2 with the field's message, not a traceback, when
    the scenario stored in a result no longer validates."""
    assert run_cli("run", "--scenario", "prop6_monitoring_l2", "--out", str(tmp_path)) == EXIT_OK
    path = tmp_path / "prop6_monitoring_l2.result.json"
    doc = json.loads(path.read_text())
    scenario = doc["scenario"]
    (scenario["params"] if field in scenario["params"] else scenario)[field] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith(message), captured.err
    assert "verification:" not in captured.out


class _Untouchable(Mapping):
    """A params mapping that fails any read."""

    def __getitem__(self, key):
        raise AssertionError(f"a runner read params[{key!r}]")

    def __iter__(self):
        raise AssertionError("a runner iterated params")

    def __len__(self):
        raise AssertionError("a runner sized params")


@pytest.mark.parametrize("name", sorted(BUDGET_S))
def test_runners_read_only_the_parse(tmp_path, name):
    """Every bundled scenario runs to the same results when, after the one
    parse, its raw params and outputs cannot be read: no runner re-parses
    them."""
    from cabee.cli import RUNNERS, _parse, run_scenario

    expected, exhausted = run_scenario(json.loads(json.dumps(bundled_scenarios()[name])), tmp_path / "a")
    doc = json.loads(json.dumps(bundled_scenarios()[name]))
    run = _parse(doc)
    run.doc = run.params = doc["params"] = doc["outputs"] = _Untouchable()
    (tmp_path / "b").mkdir()
    results, verification, spent = RUNNERS[run.kind, run.solver](run, tmp_path / "b")
    assert (results, verification, spent) == (expected["results"], expected["verification"], exhausted)
    for written in (tmp_path / "a").iterdir():
        assert (tmp_path / "b" / written.name).read_bytes() == written.read_bytes(), written.name


@pytest.mark.parametrize(
    "name, outputs",
    [
        ("fig1a_linear", "x"),
        ("fig1a_linear", [1]),
        ("fig1a_linear", {"csv": 5}),
        ("fig1a_linear", {"cvs": "a.csv"}),
        ("fig1a_linear", {"csv": "sub/../../escape.csv"}),
        ("fig1a_linear", {"csv": ".."}),
        ("learn2_monitoring", {"actions_csv": "a.csv"}),
        ("prop5_monitoring", {"csv": "a.csv"}),
    ],
)
def test_outputs_validated(tmp_path, capsys, name, outputs):
    """`outputs` is an object of the pair's output names, each a bare file
    name; the learning runs take both names or neither.  Anything else is
    refused at validation, and `cabee run` exits 2 without writing."""
    doc = {**bundled_scenarios()[name], "outputs": outputs}
    with pytest.raises(ScenarioError, match="^outputs"):
        validate_scenario(doc)
    path = tmp_path / "scenario" / "bad_outputs.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc))
    out = tmp_path / "out" / "inner"
    assert run_cli("run", "--scenario", str(path), "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: outputs")
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario", "bad_outputs.json"]


def _pair_doc(kind, solver, **params):
    return {"version": 1, "kind": kind, "solver": solver, "seed": 1, "params": params}


def _bundled_with(name, **params):
    doc = json.loads(json.dumps(bundled_scenarios()[name]))
    doc["params"].update(params)
    return doc


@pytest.mark.parametrize(
    "doc, key, pair",
    [
        (_bundled_with("prop1_refutation", sweep_stp=0.2), "sweep_stp", "matching-pennies cabee"),
        (_bundled_with("cluster_three_points", algoritm="kmeans"), "algoritm", "custom-env cluster"),
        (_pair_doc("monitoring", "learn1", **_MONITORING, nu_sweep=3), "nu_sweep", "monitoring learn1"),
        (_pair_doc("matching-pennies", "cdabee", partitions=[[[0, 1], [2]]]), "partitions", "matching-pennies cdabee"),
        (_bundled_with("learn2_monitoring", n_subjects=10), "n_subjects", "monitoring learn2"),
        (_bundled_with("fig1a_linear", windows=True), "windows", "linear abee"),
        (_pair_doc("linear", "cabee", endpoints=[0.0, 0.5, 1.0]), "endpoints", None),
        (_pair_doc("linear", "cabee", endpoints=[0.0, 0.5, 1.0], equidistant=True), "endpoints", None),
        (_bundled_with("beauty_r0_equal_split", partition=HALVES), "partition", None),
        (_bundled_with("beauty_prop2_high_r", class_counts=[2]), "class_counts", None),
    ],
)
def test_params_the_pair_does_not_read_refused(doc, key, pair):
    """A `params` key that the pair does not read is refused, naming the key
    and the pair; one that it reads only under another setting (linear
    endpoints while equidistant is true, beauty's partition during the
    self-consistent sweep, its class counts outside it) is refused, naming
    the key, rather than silently ignored."""
    with pytest.raises(ScenarioError, match=f"^params\\.{key}: ") as info:
        validate_scenario(doc)
    assert pair is None or f" {pair} " in str(info.value)


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("fig1a_linear", "A", float("inf")),
        ("fig1a_linear", "B", float("nan")),
        ("fig1a_linear", "C", 10**400),  # an integer past the largest float
        ("example1_cdabee", "a", "x"),
        ("beauty_prop2_high_r", "r", "0.5"),
        ("fig1b_linear", "K", "4"),
        ("prop5_monitoring", "p_a", "0.4"),
    ],
)
def test_wrongly_typed_numbers_refused(tmp_path, capsys, name, key, value):
    """A non-finite number, or a number given as a string, is refused with a
    message naming the field and the value; `cabee run` exits 2."""
    doc = json.loads(json.dumps(bundled_scenarios()[name]))
    doc["params"][key] = value
    with pytest.raises(ScenarioError, match=f"^params\\.{key}: expected .*, got {re.escape(repr(value))}$"):
        validate_scenario(doc)
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(doc))  # Infinity and NaN are JSON that json.load accepts
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: params.{key}: ")
