"""Command-line front end: scenario files in, result documents out.

Scenarios are versioned JSON descriptors naming a game family, a solver,
and parameters.  Results echo the scenario, carry the solver output in a
re-verifiable form, and are written atomically.  `verify` re-runs the
equilibrium checks on a stored result; `list-scenarios` prints the bundled
catalog.  Exit codes: 0 success, 2 validation error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .abee import PartitionDistribution, StrategyProfile, abee_solve
from .clustering import (
    KL,
    L2,
    Divergence,
    global_cluster,
    kmeans_lloyd,
    mean_divergence,
)
from .env import GameEnvironment, make_environment, validate_environment
from .equilibrium import (
    GLOBAL,
    LOCAL,
    EquilibriumCandidate,
    SearchConfig,
    cd_abee_search,
    cd_abee_verify,
)
from .learning import (
    PerturbationSpec,
    model1_run,
    model2_step,
    state_from_candidate,
    steady_state_check,
    write_trajectory_csv,
)
from .partitions import Partition
from .applications import HypothesesUnmet, beauty, linear, matching_pennies, monitoring

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

KINDS = ("custom-env", "matching-pennies", "monitoring", "beauty", "linear")
SOLVERS = ("abee", "cabee", "cdabee", "learn1", "learn2", "cluster")
DIVERGENCES = {"l2": "l2", "kl": "kl", "mean": "mean"}


class ScenarioError(ValueError):
    """Scenario file fails validation; the message names the field."""


def _divergence(name: str, action_values=None) -> Divergence:
    if name == "l2":
        return L2
    if name == "kl":
        return KL
    if name == "mean":
        return mean_divergence(action_values if action_values is not None else (0.0, 1.0))
    raise ScenarioError(f"divergence: unknown value {name!r}")


def _density(name: str):
    if name in (None, "uniform"):
        return None
    if name == "linear-increasing":
        return lambda m: 2.0 * m
    raise ScenarioError(f"params.density: unknown value {name!r}")


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    return validate_scenario(doc)


def validate_scenario(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if doc.get("version") != 1:
        raise ScenarioError("version: expected 1")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind: expected one of {KINDS}, got {kind!r}")
    solver = doc.get("solver")
    if solver not in SOLVERS:
        raise ScenarioError(f"solver: expected one of {SOLVERS}, got {solver!r}")
    mode = doc.get("mode", "global")
    if mode not in (LOCAL, GLOBAL):
        raise ScenarioError(f"mode: expected local or global, got {mode!r}")
    if doc.get("divergence", "l2") not in DIVERGENCES:
        raise ScenarioError(f"divergence: expected one of {sorted(DIVERGENCES)}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("params: must be an object")
    uses_randomness = solver in ("learn1", "learn2") or (
        solver == "cluster" and params.get("algorithm") == "kmeans"
    )
    if uses_randomness and "seed" not in doc:
        raise ScenarioError("seed: required whenever the solver draws randomness")
    if "time_budget_s" in doc:
        budget = doc["time_budget_s"]
        if type(budget) not in (int, float) or not (math.isfinite(budget) and budget > 0):
            raise ScenarioError(f"time_budget_s: expected a finite positive number, got {budget!r}")
    _build_inputs(doc)  # validates kind-specific parameters
    return doc


def _parse_custom_env(params: dict) -> GameEnvironment:
    for field in ("games", "prior", "actions", "payoffs"):
        if field not in params:
            raise ScenarioError(f"params.{field}: missing")
    try:
        env = make_environment(
            params["prior"],
            np.asarray(params["payoffs"]["i"], dtype=float),
            np.asarray(params["payoffs"]["j"], dtype=float),
            game_labels=[str(g) for g in params["games"]],
            action_labels=(params["actions"]["i"], params["actions"]["j"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"params.payoffs: malformed ({exc})") from exc
    violations = validate_environment(env)
    if violations:
        raise ScenarioError("params: " + "; ".join(violations))
    return env


def _capacities(doc: dict, env: GameEnvironment) -> tuple[int, int]:
    """Class capacities of the players in a scenario's finite game.

    A custom environment declares them as `params.capacities` (default: one
    class per game); the matching-pennies and monitoring families use (2, 3).
    """
    if doc["kind"] != "custom-env":
        return (2, 3)
    caps = doc.get("params", {}).get("capacities", [env.n_games, env.n_games])
    if not (
        isinstance(caps, (list, tuple))
        and len(caps) == 2
        and all(type(c) is int and 1 <= c <= env.n_games for c in caps)
    ):
        raise ScenarioError(
            f"params.capacities: expected two integers in [1, {env.n_games}], got {caps!r}"
        )
    return tuple(caps)


def _build_inputs(doc: dict):
    """Kind-specific spec construction; raises ScenarioError on bad fields."""
    kind = doc["kind"]
    params = doc.get("params", {})
    try:
        if kind == "matching-pennies":
            spec = matching_pennies.MatchingPenniesSpec(
                params.get("a", 0.5), params.get("b", 1.0), params.get("c", 1.5)
            )
            return spec, matching_pennies.build_matching_pennies(spec)
        if kind == "monitoring":
            spec = monitoring.MonitoringSpec(
                params["p_a"], params["p_b"], params["p_c"],
                params["nu_star"], params["mu_star"],
            )
            return spec, monitoring.build_monitoring(spec)
        if kind == "beauty":
            spec = beauty.uniform_spec(params.get("r", 0.5), params.get("n", 60), params.get("K", 2))
            return spec, None
        if kind == "linear":
            spec = linear.LinearFamilySpec(
                params.get("A", 1.0), params.get("B", 1.0), params.get("C", 0.8),
                params.get("regime", "complements"),
                _density(params.get("density")),
                params.get("K", 4),
            )
            return spec, None
        if kind == "custom-env":
            if doc["solver"] == "cluster":
                if "data" not in params or "K" not in params:
                    raise ScenarioError("params.data and params.K: required for cluster")
                return None, None
            env = _parse_custom_env(params)
            _capacities(doc, env)  # validates params.capacities
            return None, env
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"params.{exc.args[0]}: missing") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"params: {exc}") from exc
    raise ScenarioError(f"kind: unhandled {kind!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _partition_to_json(part: Partition):
    return [list(c) for c in part.classes]


def _partition_from_json(n_games: int, classes) -> Partition:
    return Partition.from_classes(n_games, [tuple(c) for c in classes])


def _candidate_to_json(cand: EquilibriumCandidate):
    doc = {"mode": cand.mode, "divergence": cand.divergence.kind, "lams": [], "strategies": []}
    for player in (0, 1):
        lam = cand.lams[player]
        doc["lams"].append(
            [
                {"partition": _partition_to_json(p), "weight": w}
                for p, w in zip(lam.partitions, lam.weights)
            ]
        )
        doc["strategies"].append(
            [
                {
                    "partition": _partition_to_json(p),
                    "play": np.asarray(cand.profile.plays[player][p]).tolist(),
                }
                for p in lam.partitions
            ]
        )
    return doc


def _candidate_from_json(n_games: int, doc: dict, action_values=None) -> EquilibriumCandidate:
    lams = []
    plays: tuple[dict, dict] = ({}, {})
    for player in (0, 1):
        partitions, weights = [], []
        for entry in doc["lams"][player]:
            partitions.append(_partition_from_json(n_games, entry["partition"]))
            weights.append(float(entry["weight"]))
        lams.append(PartitionDistribution(tuple(partitions), tuple(weights)))
        for entry in doc["strategies"][player]:
            part = _partition_from_json(n_games, entry["partition"])
            plays[player][part] = np.asarray(entry["play"], dtype=float)
    d = _divergence(
        {"squared-euclidean": "l2", "kullback-leibler": "kl", "squared-mean-difference": "mean"}[
            doc["divergence"]
        ],
        action_values,
    )
    return EquilibriumCandidate(
        (lams[0], lams[1]), StrategyProfile(plays=plays), doc["mode"], d
    )


def _stable_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_polyline_svg(path: Path, series, width=640, height=420, margin=40) -> None:
    """Static SVG with one polyline per series: [(label, [(x, y), ...])]."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (width - 2 * margin) / ((x1 - x0) or 1.0)
    sy = (height - 2 * margin) / ((y1 - y0) or 1.0)

    def pt(x, y):
        return (margin + (x - x0) * sx, height - margin - (y - y0) * sy)

    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
    ]
    for i, (label, pts) in enumerate(series):
        path_pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (pt(x, y) for x, y in pts))
        parts.append(
            f'<polyline points="{path_pts}" fill="none" '
            f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"><title>{label}</title></polyline>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# solver dispatch
# ---------------------------------------------------------------------------


def _candidate_verification(env: GameEnvironment, cands, capacities) -> dict:
    details = []
    for cand in cands:
        rep = cd_abee_verify(env, cand, capacities)
        details.append({"ok": rep.ok, "br_gain": rep.br_gain,
                        "clustering_failures": len(rep.clustering_failures)})
    return {"all_ok": all(x["ok"] for x in details), "details": details}


def _run_matching_pennies(doc, spec, env, mode, d, out_dir, budget_ms):
    solver = doc["solver"]
    params = doc.get("params", {})
    results: dict = {}
    if solver == "cabee":
        step = params.get("sweep_step")
        specs = [spec]
        if step:
            vals = [round(step * k, 10) for k in range(1, int(2 / step) + 1) if step * k < 2]
            specs = [
                matching_pennies.MatchingPenniesSpec(a, b, c)
                for i, a in enumerate(vals)
                for j, b in enumerate(vals[i + 1 :], start=i + 1)
                for c in vals[j + 1 :]
            ]
        all_false = True
        n_checked = 0
        for sp in specs:
            ref = matching_pennies.two_class_refutation(sp)
            for part, rep in ref.items():
                n_checked += 1
                if any(any(v) for v in rep["verdicts"].values()):
                    all_false = False
        results["pure_clustered_equilibria_refuted"] = all_false
        results["cases_checked"] = n_checked
        return results, {"all_ok": all_false, "details": []}, False
    if solver == "cdabee":
        cand = matching_pennies.solve_matching_pennies_cdabee(spec)
        results["candidates"] = [_candidate_to_json(cand)]
        results["column_mix"] = cand.aggregates()[1][:, 0].tolist()
        results["lambda"] = list(cand.lams[0].weights)
        exhausted = False
        if params.get("search_budget_s"):
            cfg = SearchConfig(
                layer1_budget_s=params["search_budget_s"] / 3,
                layer2_budget_s=params["search_budget_s"],
            )
            if budget_ms:
                cfg.layer2_budget_s = min(cfg.layer2_budget_s, budget_ms / 1000)
            found = cd_abee_search(env, _capacities(doc, env), mode, d, cfg)
            target = np.sort(np.asarray(results["column_mix"]))
            results["search_recovered"] = any(
                np.allclose(np.sort(c.aggregates()[1][:, 0]), target, atol=1e-7)
                for c in found.candidates
            )
            results["search_layers_completed"] = all(rep.completed for rep in found.layers)
            # budget exhaustion only counts against the run when the search
            # also failed to recover the closed-form candidate
            exhausted = not results["search_layers_completed"] and not results["search_recovered"]
        return results, _candidate_verification(env, [cand], _capacities(doc, env)), exhausted
    if solver == "abee":
        part = _partition_from_json(3, params["partitions"][0])
        profiles = abee_solve(env, (part, Partition.finest(3)))
        results["profiles"] = [
            {"row": p.single(0).tolist(), "column": p.single(1).tolist()} for p in profiles
        ]
        return results, {"all_ok": bool(profiles), "details": []}, False
    raise ScenarioError(f"solver: {solver} not supported for matching-pennies")


def _run_monitoring(doc, spec, env, mode, d, out_dir, budget_ms):
    solver = doc["solver"]
    params = doc.get("params", {})
    results: dict = {}
    if solver != "cdabee":
        raise ScenarioError(f"solver: {solver} not supported for monitoring")
    sol = monitoring.solve_monitoring_cdabee(spec, mode, d)
    results["candidates"] = [_candidate_to_json(c) for c in sol.candidates]
    if sol.zeta_star is not None:
        results["zeta"] = sol.zeta_star
        results["lambda"] = [spec.mu_star, 1.0 - spec.mu_star]
    if sol.zeta_range is not None:
        results["zeta_range"] = list(sol.zeta_range)
    if params.get("nu_sweep"):
        sweep = monitoring.nu_star_sweep(spec, int(params["nu_sweep"]))
        results["nu_sweep"] = [[nu, lam, z] for nu, lam, z in sweep]
    return results, _candidate_verification(env, sol.candidates, _capacities(doc, env)), False


def _run_beauty(doc, spec, mode, d, out_dir):
    solver = doc["solver"]
    params = doc.get("params", {})
    results: dict = {}
    if solver == "abee":
        part = (
            beauty.equal_split_partition(spec.n, spec.K)
            if params.get("partition", "equal-split") == "equal-split"
            else _partition_from_json(spec.n, params["partition"])
        )
        closed = beauty.abee_actions(spec, part)
        chosen, means, gain = beauty.discrete_abee(spec, part, params.get("n_actions"))
        cell = 1.0 / (params.get("n_actions") or spec.n)
        results["max_action_gap"] = float(np.abs(closed - chosen).max())
        results["grid_cell"] = cell
        results["within_two_cells"] = bool(np.abs(closed - chosen).max() <= 2 * cell + 1e-12)
        results["class_means"] = means.tolist()
        results["deviation_gain"] = gain
        return results, {"all_ok": results["within_two_cells"], "details": []}, False
    if solver == "cabee":
        if params.get("self_consistent_sweep"):
            found = {}
            for k in params.get("class_counts", [spec.K]):
                partitions = beauty.self_consistent_contiguous(
                    beauty.uniform_spec(spec.r, spec.n, k), k
                )
                found[str(k)] = [_partition_to_json(p) for p in partitions]
            results["self_consistent_contiguous"] = found
            return results, {"all_ok": True, "details": []}, False
        part = _partition_from_json(spec.n, params["partition"])
        if "r_grid" in params:
            grid = []
            for r in params["r_grid"]:
                ok, margin = beauty.beauty_cabee_check(
                    beauty.uniform_spec(r, spec.n, spec.K), part
                )
                grid.append([r, bool(ok), margin])
            results["r_grid"] = grid
            monotone = all(
                grid[i][1] <= grid[i + 1][1] for i in range(len(grid) - 1)
            )
            results["monotone_in_r"] = monotone
            return results, {"all_ok": monotone, "details": []}, False
        ok, margin = beauty.beauty_cabee_check(spec, part)
        results["locally_clustered"] = bool(ok)
        results["margin"] = margin
        return results, {"all_ok": bool(ok), "details": []}, False
    raise ScenarioError(f"solver: {solver} not supported for beauty")


def _run_linear(doc, spec, mode, d, out_dir):
    solver = doc["solver"]
    params = doc.get("params", {})
    results: dict = {}
    endpoints = params.get("endpoints")
    if endpoints is None:
        endpoints = linear.equal_split_endpoints(spec)
    if solver == "abee":
        lines = linear.linear_abee(spec, endpoints)
        results["classes"] = [
            {"lo": ln.lo, "hi": ln.hi, "mean": ln.mean, "beta": ln.beta, "slope": ln.slope}
            for ln in lines
        ]
        rows = linear.figure_curves(spec, endpoints, params.get("points_per_class", 50))
        csv_name = doc.get("outputs", {}).get("csv")
        if csv_name:
            write_csv(
                out_dir / csv_name,
                ["mu", "nash_action", "abee_action", "class_index"],
                rows,
            )
            results["csv"] = csv_name
        svg_name = doc.get("outputs", {}).get("svg")
        if svg_name:
            nash_pts = [(r[0], r[1]) for r in rows]
            series = [("nash", nash_pts)]
            for k in range(len(lines)):
                series.append((f"class-{k}", [(r[0], r[2]) for r in rows if r[3] == k]))
            write_polyline_svg(out_dir / svg_name, series)
            results["svg"] = svg_name
        jumps = []
        for k in range(len(lines) - 1):
            mu_k = lines[k].hi
            jumps.append(
                {
                    "mu": mu_k,
                    "jump": (spec.A + mu_k * lines[k + 1].slope)
                    - (spec.A + mu_k * lines[k].slope),
                }
            )
        results["jumps"] = jumps
        return results, {"all_ok": True, "details": []}, False
    if solver == "cabee":
        if params.get("equidistant", True):
            endpoints = linear.equidistant_partition(spec)
        results["endpoints"] = list(map(float, endpoints))
        chk = linear.linear_local_check(spec, endpoints)
        results["locally_clustered"] = chk.ok
        results["boundary_slacks"] = [list(s) for s in chk.boundary_slacks]
        if params.get("windows") and spec.regime == linear.COMPLEMENTS:
            wins = linear.linear_cabee_window(spec, endpoints)
            results["windows"] = [list(w) for w in wins]
        return results, {"all_ok": True, "details": []}, False
    raise ScenarioError(f"solver: {solver} not supported for linear")


def _run_learning(doc, kind_spec, env, mode, d, out_dir, seed):
    params = doc.get("params", {})
    if env is None:
        raise ScenarioError("learning solvers need a finite environment kind")
    if doc["kind"] == "matching-pennies":
        cand = matching_pennies.solve_matching_pennies_cdabee(kind_spec)
    elif doc["kind"] == "monitoring":
        cand = monitoring.solve_monitoring_cdabee(kind_spec, GLOBAL, d).candidates[0]
    else:
        raise ScenarioError("learning scenarios support matching-pennies and monitoring kinds")
    capacities = _capacities(doc, env)
    state = state_from_candidate(env, cand)
    results: dict = {}
    steady, info = steady_state_check(env, state, mode, d, capacities)
    results["start_is_steady"] = bool(steady)
    results["steady_info"] = {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v)) for k, v in info.items()}
    if doc["solver"] == "learn1":
        pert = PerturbationSpec(epsilon=params.get("epsilon", 0.0), seed=seed)
        traj, report = model1_run(
            env,
            state,
            params.get("steps", 20),
            capacities,
            d,
            pert,
            n_subjects=params.get("n_subjects", 1000),
            tie_break=params.get("tie_break", "incumbent" if pert.epsilon == 0 else "uniform"),
        )
    else:
        traj = [state]
        for _ in range(params.get("steps", 20)):
            traj.append(model2_step(env, traj[-1], d))
        report = None
    results["steps"] = len(traj) - 1
    if report is not None:
        results["aggregate_drift"] = report.aggregate_drift
        results["lambda_drift"] = report.lam_drift
    outputs = doc.get("outputs", {})
    if outputs.get("actions_csv") and outputs.get("shares_csv"):
        write_trajectory_csv(
            out_dir / outputs["actions_csv"], out_dir / outputs["shares_csv"], traj, env
        )
        results["actions_csv"] = outputs["actions_csv"]
        results["shares_csv"] = outputs["shares_csv"]
    return results, {"all_ok": True, "details": []}, False


def _run_cluster(doc, d, seed):
    params = doc["params"]
    data = np.asarray(params["data"], dtype=float)
    prior = np.asarray(params.get("prior", [1.0 / len(data)] * len(data)))
    k = int(params["K"])
    results: dict = {}
    if params.get("algorithm", "global") == "kmeans":
        rng = np.random.default_rng(seed)
        init = data[rng.choice(len(data), size=min(k, len(data)), replace=False)]
        rep = kmeans_lloyd(data, prior, k, d, init)
        results["partition"] = _partition_to_json(rep.partition)
        results["dispersion"] = rep.dispersion
        results["locally_clustered"] = bool(rep.locally_clustered)
    else:
        winners, best = global_cluster(data, prior, k, d)
        results["minimizers"] = [_partition_to_json(p) for p in winners]
        results["dispersion"] = best
    return results, {"all_ok": True, "details": []}, False


def run_scenario(doc: dict, out_dir: Path, overrides: dict | None = None) -> tuple[dict, bool]:
    """Execute a validated scenario; returns (result document, exhausted)."""
    overrides = overrides or {}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = overrides.get("mode") or doc.get("mode", "global")
    div_name = overrides.get("divergence") or doc.get("divergence", "l2")
    seed = overrides.get("seed") if overrides.get("seed") is not None else doc.get("seed", 0)
    budget_ms = overrides.get("budget_ms") or doc.get("budget_ms")
    kind_spec, env = _build_inputs(doc)
    d = _divergence(div_name)
    t0 = time.perf_counter()
    solver = doc["solver"]
    if solver == "cluster":
        results, verification, exhausted = _run_cluster(doc, d, seed)
    elif solver in ("learn1", "learn2"):
        results, verification, exhausted = _run_learning(
            doc, kind_spec, env, mode, d, out_dir, seed
        )
    elif doc["kind"] == "matching-pennies":
        results, verification, exhausted = _run_matching_pennies(
            doc, kind_spec, env, mode, d, out_dir, budget_ms
        )
    elif doc["kind"] == "monitoring":
        results, verification, exhausted = _run_monitoring(
            doc, kind_spec, env, mode, d, out_dir, budget_ms
        )
    elif doc["kind"] == "beauty":
        results, verification, exhausted = _run_beauty(doc, kind_spec, mode, d, out_dir)
    elif doc["kind"] == "linear":
        results, verification, exhausted = _run_linear(doc, kind_spec, mode, d, out_dir)
    elif doc["kind"] == "custom-env":
        if solver == "abee":
            parts = tuple(
                _partition_from_json(env.n_games, p) for p in doc["params"]["partitions"]
            )
            profiles = abee_solve(env, parts)
            results = {
                "profiles": [
                    {"i": p.single(0).tolist(), "j": p.single(1).tolist()} for p in profiles
                ]
            }
            verification, exhausted = {"all_ok": bool(profiles), "details": []}, False
        elif solver == "cdabee":
            caps = _capacities(doc, env)
            cfg = SearchConfig()
            if budget_ms:
                cfg.layer1_budget_s = budget_ms / 3000
                cfg.layer2_budget_s = budget_ms / 1000
            found = cd_abee_search(env, caps, mode, d, cfg)
            results = {"candidates": [_candidate_to_json(c) for c in found.candidates]}
            verification = _candidate_verification(env, found.candidates, caps)
            exhausted = not all(rep.completed for rep in found.layers) and not found.candidates
        else:
            raise ScenarioError(f"solver: {solver} not supported for custom-env")
    else:
        raise ScenarioError(f"kind: unhandled {doc['kind']!r}")
    elapsed_ms = (time.perf_counter() - t0) * 1000
    result_doc = {
        "version": 1,
        "library_version": __version__,
        "scenario": doc,
        "results": results,
        "verification": verification,
        "timing_ms": round(elapsed_ms, 3),
    }
    return result_doc, exhausted


def verify_result(path) -> tuple[bool, list[str]]:
    """Re-run the equilibrium checks on every candidate stored in a result."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("library_version") != __version__:
        print(
            f"warning: result from library {doc.get('library_version')}, "
            f"verifying with {__version__}",
            file=sys.stderr,
        )
    scenario = doc["scenario"]
    notes: list[str] = []
    cands_json = doc.get("results", {}).get("candidates")
    if not cands_json:
        return True, ["no stored candidates; nothing to re-verify"]
    kind_spec, env = _build_inputs(scenario)
    if env is None:
        return True, ["kind carries no finite environment; nothing to re-verify"]
    capacities = _capacities(scenario, env)
    ok = True
    for i, cj in enumerate(cands_json):
        cand = _candidate_from_json(env.n_games, cj)
        rep = cd_abee_verify(env, cand, capacities)
        if not rep.ok:
            ok = False
            witness = rep.br_witness or (rep.clustering_failures and rep.clustering_failures[0])
            notes.append(f"candidate {i}: FAILS ({witness})")
        else:
            notes.append(f"candidate {i}: ok (worst gain {rep.br_gain:.2e})")
    return ok, notes


def bundled_scenarios() -> dict[str, dict]:
    out = {}
    base = resources.files("cabee").joinpath("scenarios")
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = json.loads(entry.read_text())
    return out


def list_scenarios() -> list[str]:
    lines = []
    for name, doc in bundled_scenarios().items():
        lines.append(f"{name:32s} {doc.get('description', '')}")
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--scenario", help="path to a scenario file, or a bundled scenario name")
    parser.add_argument("--mode", choices=[LOCAL, GLOBAL])
    parser.add_argument("--divergence", choices=sorted(DIVERGENCES))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--budget-ms", type=int, dest="budget_ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cabee",
        description="clustered analogy-based expectation equilibria: solve, verify, reproduce",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write a result document")
    _add_common(run_p)
    ver_p = sub.add_parser("verify", help="re-verify a stored result document")
    ver_p.add_argument("result", help="path to a result JSON")
    sub.add_parser("list-scenarios", help="print the bundled scenario catalog")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for line in list_scenarios():
            print(line)
        return EXIT_OK

    if args.command == "verify":
        try:
            ok, notes = verify_result(args.result)
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: unreadable result document: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        for note in notes:
            print(note)
        print("verification:", "ok" if ok else "FAILED")
        return EXIT_OK if ok else EXIT_VALIDATION

    if not args.scenario:
        print("error: --scenario is required", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if os.path.exists(args.scenario):
            doc = load_scenario(args.scenario)
            name = Path(args.scenario).stem
        else:
            catalog = bundled_scenarios()
            if args.scenario not in catalog:
                raise ScenarioError(f"scenario: no file and no bundled scenario named {args.scenario!r}")
            doc = validate_scenario(catalog[args.scenario])
            name = args.scenario
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out)
    overrides = {
        "mode": args.mode,
        "divergence": args.divergence,
        "seed": args.seed,
        "budget_ms": args.budget_ms,
    }
    try:
        result_doc, exhausted = run_scenario(doc, out_dir, overrides)
    except HypothesesUnmet as exc:
        print(f"error: hypotheses unmet: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyError as exc:
        print(f"error: params.{exc.args[0]}: missing", file=sys.stderr)
        return EXIT_VALIDATION
    except (TypeError, ValueError) as exc:
        print(f"error: params: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _atomic_write(out_dir / f"{name}.result.json", _stable_dumps(result_doc) + "\n")
    print(f"wrote {out_dir / (name + '.result.json')} ({result_doc['timing_ms']} ms)")
    if exhausted:
        print("search budget exhausted before completing every layer", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
