import json

import pytest

from cabee.cli import (
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
    with pytest.raises(ScenarioError):
        validate_scenario(
            {"version": 1, "kind": "beauty", "solver": "learn1", "params": {}}
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


def test_every_bundled_scenario_within_declared_budget(tmp_path):
    import time

    from cabee.cli import run_scenario

    for name, doc in bundled_scenarios().items():
        t0 = time.monotonic()
        result, exhausted = run_scenario(doc, tmp_path / name)
        elapsed = time.monotonic() - t0
        assert elapsed < doc["time_budget_s"], (name, elapsed)
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
    doc = dict(bundled_scenarios()["prop5_monitoring"], time_budget_s=budget)
    with pytest.raises(ScenarioError, match="time_budget_s"):
        validate_scenario(doc)


def test_time_budget_optional():
    doc = dict(bundled_scenarios()["prop5_monitoring"])
    doc.pop("time_budget_s", None)
    assert validate_scenario(doc) is doc
