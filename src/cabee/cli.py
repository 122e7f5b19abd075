"""Command-line front end: scenario files in, result documents out.

Scenarios are versioned JSON descriptors naming a game family, a solver,
and parameters; flags that are set are written into the scenario.  Results
echo it, carry the solver output in a re-verifiable form, and are written
atomically.  `verify` re-runs the equilibrium checks on a stored result;
`list-scenarios` prints the bundled catalog.  `RUNNERS` maps each
supported (kind, solver) pair to the one function that runs it; validation
rejects every other pair.  A scenario is parsed once, by `_parse`: each
`params` value and output name through the pair's rows in `PARAMS`, then the
kind's reader in `READERS`; a runner reads only that parse.  A `cdabee`
search stops on a count of solves (`max_evaluations`), never on the clock.
Exit codes: 0 success, 2 validation error, 3 search budget exhausted
without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict
from functools import partial
from importlib import resources
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .abee import PartitionDistribution, StrategyProfile, abee_solve
from .clustering import (
    KL,
    L2,
    global_cluster,
    kmeans_lloyd,
    mean_divergence,
)
from .env import PROB_TOL, make_environment, validate_environment, validate_mixed
from .equilibrium import (
    GLOBAL,
    LOCAL,
    EquilibriumCandidate,
    SearchConfig,
    cd_abee_search,
    cd_abee_verify,
)
from .learning import (
    TIE_BREAKS,
    PerturbationSpec,
    model1_run,
    model2_step,
    state_from_candidate,
    steady_state_check,
    write_trajectory_csv,
)
from .partitions import DEFAULT_ENUMERATION_CAP, Partition
from .applications import HypothesesUnmet, beauty, linear, matching_pennies, monitoring

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

DIVERGENCES = {"l2": L2, "kl": KL, "mean": mean_divergence((0.0, 1.0))}
# the top-level fields of a scenario; validation refuses any other, so that a
# misspelled or retired field is reported rather than silently ignored
FIELDS = ("version", "kind", "solver", "mode", "divergence", "params", "seed", "max_evaluations", "outputs",
          "description")
LEARNERS = ("learn1", "learn2")


class ScenarioError(ValueError):
    """Scenario file fails validation; the message names the field."""


def _read_scenario(path) -> dict:
    """The scenario document of a file, not yet validated."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON (line {exc.lineno}): {exc.msg}") from exc


def validate_scenario(doc: dict) -> dict:
    _parse(doc)
    return doc


def _parse(doc) -> SimpleNamespace:
    """The one parse of a scenario: its fields, its `params` and `outputs`
    through the (kind, solver) row of `PARAMS`, one attribute each, and what
    the kind's reader in `READERS` builds from them: the kind `spec`, the
    finite game `env` and its `capacities` (None where the kind has none);
    raises ScenarioError naming the field."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in doc:
        if key not in FIELDS:
            raise ScenarioError(f"{key}: not a scenario field (expected among {FIELDS})")
    if doc.get("version") != 1:
        raise ScenarioError("version: expected 1")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind: expected one of {KINDS}, got {kind!r}")
    solver = doc.get("solver")
    solvers = tuple(s for k, s in RUNNERS if k == kind)
    if solver not in solvers:
        raise ScenarioError(f"solver: expected one of {solvers} for {kind}, got {solver!r}")
    mode = doc.get("mode", GLOBAL)
    if mode not in (LOCAL, GLOBAL):
        raise ScenarioError(f"mode: expected local or global, got {mode!r}")
    if doc.get("divergence", "l2") not in DIVERGENCES:
        raise ScenarioError(f"divergence: expected one of {sorted(DIVERGENCES)}")
    if "max_evaluations" in doc and not integer(1).accepts(doc["max_evaluations"]):
        raise ScenarioError(f"max_evaluations: expected a positive integer, got {doc['max_evaluations']!r}")
    if "seed" in doc and not integer(0).accepts(doc["seed"]):
        raise ScenarioError("seed: expected a non-negative integer")
    run = SimpleNamespace(kind=kind, solver=solver, mode=mode, d=DIVERGENCES[doc.get("divergence", "l2")],
                          seed=doc.get("seed", 0), max_evaluations=doc.get("max_evaluations"), spec=None, env=None,
                          capacities=None)
    rows, outputs = PARAMS[kind, solver]
    vars(run).update(_fields("params", doc.get("params", {}), rows, f"{kind} {solver}"))
    run.outputs = _fields("outputs", doc.get("outputs", {}), outputs, f"{kind} {solver}")
    if solver in LEARNERS and (run.outputs["actions_csv"] is None) != (run.outputs["shares_csv"] is None):
        raise ScenarioError("outputs: a learning run writes actions_csv and shares_csv together, or neither")
    if "seed" not in doc and (solver in LEARNERS or getattr(run, "algorithm", None) == "kmeans"):
        raise ScenarioError("seed: required whenever the solver draws randomness")
    try:
        READERS[kind](run)
        if solver == "abee" and run.env is not None:
            run.partitions = _abee_partitions(run)
    except ScenarioError:
        raise
    except ValueError as exc:  # the specs' own range checks
        raise ScenarioError(f"params: {exc}") from exc
    return run


def _fields(field: str, given, rows, pair: str) -> dict:
    """The value of each row in `given`, the scenario's `field` object, or
    the row's default; a row is (name, parser) when its value is required,
    else (name, parser, default), and a key outside the rows is refused."""
    if not isinstance(given, dict):
        raise ScenarioError(f"{field}: must be an object")
    names = [row[0] for row in rows]
    for key in given:
        if key not in names:
            raise ScenarioError(f"{field}.{key}: {pair} takes no such key (it takes {', '.join(names) or 'none'})")
    for name, parser, *default in rows:
        if name in given and not parser.accepts(given[name]):
            raise ScenarioError(f"{field}.{name}: expected {parser.what}, got {given[name]!r}")
        if name not in given and not default:
            raise ScenarioError(f"{field}.{name}: missing (expected {parser.what})")
    return {name: given.get(name, *default) for name, _, *default in rows}


class Parser(NamedTuple):
    """A typed reader of one JSON value: `accepts` tells whether a value is
    `what`, and `_fields` refuses any other with "expected <what>"."""

    what: str
    accepts: Callable[[object], bool]


def real(where: str = "", holds=lambda x: True) -> Parser:
    """A finite number, never a JSON boolean, for which `holds` is true (`where`
    says when); NaN, the infinities and integers past the largest float fail."""
    return Parser(f"a finite number{where}",
                  lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max and holds(v))


def integer(least: int) -> Parser:
    """An integer, never a JSON boolean, of at least `least`."""
    return Parser(f"an integer of at least {least}", lambda v: type(v) is int and v >= least)


def choice(*values: str) -> Parser:
    """One of a few fixed strings."""
    return Parser(f"one of {', '.join(values)}", lambda v: v in values)


def list_of(item: Parser, distinct: bool = False, increasing: bool = False) -> Parser:
    """A non-empty list of values that `item` accepts, optionally distinct or strictly increasing."""
    order = " strictly increasing" if increasing else " distinct" if distinct else ""
    return Parser(
        f"a non-empty list of{order} values, each {item.what}",
        lambda v: isinstance(v, list) and bool(v) and all(map(item.accepts, v))
        and not (distinct and len(set(v)) < len(v)) and not (increasing and any(a >= b for a, b in zip(v, v[1:]))),
    )


BOOLEAN = Parser("true or false", lambda v: type(v) is bool)
ANY = Parser("a JSON value", lambda v: True)  # checked as a whole by the kind's reader
FILE_NAME = Parser("a bare file name", lambda v: type(v) is str and v not in ("", "..") and Path(v).name == v)
REAL = real()
CLASSES = list_of(list_of(integer(0)))  # a partition, as lists of game indices

# rows that every solver of a kind reads
STAKES = (("a", REAL, 0.5), ("b", REAL, 1.0), ("c", REAL, 1.5))
MONITORING = tuple((name, REAL) for name in ("p_a", "p_b", "p_c", "nu_star", "mu_star"))
BEAUTY = (("r", REAL, 0.5), ("n", integer(1), 60), ("K", integer(1), 2))
LINEAR = (
    ("A", REAL, 1.0), ("B", REAL, 1.0), ("C", REAL, 0.8),
    ("regime", choice(linear.COMPLEMENTS, linear.SUBSTITUTES), linear.COMPLEMENTS),
    ("density", choice("uniform", "linear-increasing"), "uniform"), ("K", integer(1), 4),
    ("endpoints", list_of(REAL), None),  # default: equal-width classes, or cabee's equidistant partition
)
GAME = (("games", list_of(ANY)), ("prior", list_of(REAL)), ("actions", ANY), ("payoffs", ANY))
# both learning models take a step count; model 1 draws subjects and breaks ties
# (default: at the incumbent without noise, else uniformly)
MODEL2 = (("steps", integer(1), 20),)
MODEL1 = MODEL2 + (("n_subjects", integer(1), 1000), ("epsilon", real(" of at least 0", lambda x: x >= 0), 0.0),
                   ("tie_break", choice(*TIE_BREAKS), None))
ABEE_PARTITIONS = (("partitions", list_of(CLASSES)),)
TRAJECTORY = (("actions_csv", FILE_NAME, None), ("shares_csv", FILE_NAME, None))

# Every supported (kind, solver) pair's `params` rows and `outputs` rows;
# validation refuses any other key of either.  Linear abee always reads
# endpoints, so it takes `equidistant: false` alone.
PARAMS = {
    ("custom-env", "abee"): (GAME + ABEE_PARTITIONS, ()),
    ("custom-env", "cdabee"): (GAME + (("capacities", list_of(integer(1)), None),), ()),  # default: a class per game
    ("custom-env", "cluster"): ((("data", list_of(list_of(REAL))), ("K", integer(1)), ("prior", list_of(REAL), None),
                                 ("algorithm", choice("global", "kmeans"), "global")), ()),
    ("matching-pennies", "abee"): (STAKES + ABEE_PARTITIONS, ()),
    ("matching-pennies", "cabee"): (STAKES + (("sweep_step", real(" above 0", lambda x: x > 0), None),), ()),
    ("matching-pennies", "cdabee"): (STAKES, ()),
    ("matching-pennies", "learn1"): (STAKES + MODEL1, TRAJECTORY),
    ("matching-pennies", "learn2"): (STAKES + MODEL2, TRAJECTORY),
    ("monitoring", "cdabee"): (MONITORING + (("nu_sweep", integer(0), 0),), ()),
    ("monitoring", "learn1"): (MONITORING + MODEL1, TRAJECTORY),
    ("monitoring", "learn2"): (MONITORING + MODEL2, TRAJECTORY),
    ("beauty", "abee"): (BEAUTY + (
        ("partition", Parser(f'"equal-split" or {CLASSES.what}', lambda v: v == "equal-split" or CLASSES.accepts(v)),
         "equal-split"),
        ("n_actions", integer(1), None),  # default: n
    ), ()),
    ("beauty", "cabee"): (BEAUTY + (
        ("partition", CLASSES, None),
        # increasing, since the monotonicity verdict reads the grid in order
        ("r_grid", list_of(real(" in (0, 1)", lambda x: 0 < x < 1), increasing=True), None),
        ("self_consistent_sweep", BOOLEAN, False),
        ("class_counts", list_of(integer(1), distinct=True), None),
    ), ()),
    ("linear", "abee"): (
        LINEAR + (("equidistant", Parser("false", lambda v: v is False), False), ("points_per_class", integer(1), 50)),
        (("csv", FILE_NAME, None), ("svg", FILE_NAME, None)),
    ),
    ("linear", "cabee"): (LINEAR + (("equidistant", BOOLEAN, True), ("windows", BOOLEAN, False)), ()),
}


def _unread(run, names, flag: str) -> None:
    """Refuse each parameter of `names` that the scenario sets although the run does not read it under `flag`."""
    for name in names:
        if getattr(run, name) is not None:
            raise ScenarioError(f"params.{name}: not read when {flag} is {str(getattr(run, flag)).lower()}")


def _read_custom_env(run) -> None:
    """A custom game and, for cdabee, its class capacities (default: one
    class per game), or a `cluster` run's data and prior."""
    if run.solver == "cluster":
        run.data, run.prior = _cluster_inputs(run)
        return
    try:
        env = make_environment(
            run.prior,
            np.asarray(run.payoffs["i"], dtype=float),
            np.asarray(run.payoffs["j"], dtype=float),
            game_labels=[str(g) for g in run.games],
            action_labels=(run.actions["i"], run.actions["j"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"params.payoffs: malformed ({exc})") from exc
    violations = validate_environment(env)
    if violations:
        raise ScenarioError("params: " + "; ".join(violations))
    run.env = env
    if run.solver == "cdabee":
        caps = run.capacities or [env.n_games, env.n_games]
        if len(caps) != 2 or max(caps) > env.n_games:
            raise ScenarioError(f"params.capacities: expected two integers in [1, {env.n_games}], got {caps!r}")
        run.capacities = tuple(caps)


def _read_pennies(run) -> None:
    """The stakes `a`, `b`, `c`, and the stakes the refutation checks (default: these)."""
    run.spec = matching_pennies.MatchingPenniesSpec(run.a, run.b, run.c)
    run.env, run.capacities = matching_pennies.build_matching_pennies(run.spec), (2, 3)
    if run.solver == "cabee":
        run.stakes = [run.spec] if run.sweep_step is None else _stake_triples(run.sweep_step, run.max_evaluations)


def _read_monitoring(run) -> None:
    """The monitoring game."""
    run.spec = monitoring.MonitoringSpec(run.p_a, run.p_b, run.p_c, run.nu_star, run.mu_star)
    run.env, run.capacities = monitoring.build_monitoring(run.spec), (2, 3)


def _read_beauty(run) -> None:
    """The beauty contest; the sweep's class counts, or the partition (and
    abee's `n_actions` grid, at least K points)."""
    run.spec = spec = beauty.uniform_spec(run.r, run.n, run.K)
    if run.solver == "cabee":
        sweep = run.self_consistent_sweep
        _unread(run, ("partition", "r_grid") if sweep else ("class_counts",), "self_consistent_sweep")
        if sweep:
            run.class_counts = _class_counts(run)
            return
    run.partition = _beauty_partition(run)
    if run.solver == "abee" and run.n_actions is not None and run.n_actions < spec.K:
        raise ScenarioError(f"params.n_actions: expected an integer of at least K = {spec.K}, got {run.n_actions!r}")


def _read_linear(run) -> None:
    """The linear family and its class endpoints (None for cabee's
    equidistant partition, its default); cabee draws windows only under
    complements."""
    run.spec = spec = linear.LinearFamilySpec(
        run.A, run.B, run.C, run.regime, (lambda m: 2.0 * m) if run.density == "linear-increasing" else None, run.K
    )
    if run.equidistant:
        _unread(run, ("endpoints",), "equidistant")
    elif run.endpoints is None:
        run.endpoints = linear.equal_split_endpoints(spec)
    else:
        try:
            run.endpoints = linear.checked_endpoints(spec, run.endpoints)
        except ValueError as exc:
            raise ScenarioError(f"params.endpoints: {exc}") from exc
    if run.solver == "cabee":
        run.windows = run.windows and spec.regime == linear.COMPLEMENTS


def _abee_partitions(run) -> tuple[Partition, ...]:
    """`params.partitions` of an `abee` run on a finite game: one per player,
    or for matching pennies the row player's alone (the column's is finest)."""
    n_games, pennies = run.env.n_games, run.kind == "matching-pennies"
    count = 1 if pennies else 2
    try:
        if len(run.partitions) != count:
            raise ValueError(f"expected a list of length {count}, got {run.partitions!r}")
        parts = tuple(_partition_from_json(n_games, c) for c in run.partitions)
    except ValueError as exc:
        raise ScenarioError(f"params.partitions: {exc}") from exc
    return parts + (Partition.finest(n_games),) if pennies else parts


def _cluster_inputs(run) -> tuple[np.ndarray, np.ndarray]:
    """The data and prior of a `cluster` run: one distribution per point
    (over the mean divergence's two actions under it, and at most
    `DEFAULT_ENUMERATION_CAP` points for the global algorithm), and one
    positive weight per point summing to 1 (default uniform)."""
    try:
        data = np.asarray(run.data, dtype=float)
    except ValueError as exc:
        raise ScenarioError(f"params.data: expected one row per point, all of one length ({exc})") from exc
    if not (np.all(data >= 0) and np.all(np.abs(data.sum(axis=1) - 1.0) <= PROB_TOL)):
        raise ScenarioError("params.data: expected a distribution per point")
    if run.d.action_values is not None and data.shape[1] != len(run.d.action_values):
        raise ScenarioError(f"params.data: the mean divergence takes {len(run.d.action_values)} actions")
    if run.algorithm == "global" and len(data) > DEFAULT_ENUMERATION_CAP:
        raise ScenarioError(
            f"params.data: {len(data)} points exceed the global algorithm's cap of {DEFAULT_ENUMERATION_CAP}"
        )
    prior = np.full(len(data), 1.0 / len(data)) if run.prior is None else np.asarray(run.prior, dtype=float)
    if prior.shape != (len(data),) or not (np.all(prior > 0) and abs(prior.sum() - 1.0) <= PROB_TOL):
        raise ScenarioError("params.prior: expected one positive weight per point, summing to 1")
    return data, prior


def _beauty_partition(run) -> Partition:
    """The partition of a beauty run, `params.partition`: class lists, or
    under `abee` "equal-split" (its default), K equal contiguous classes."""
    try:
        if run.partition == "equal-split":
            return beauty.equal_split_partition(run.n, run.K)
        if run.partition is None:
            raise ValueError("missing: cabee checks a list of classes unless self_consistent_sweep is true")
        return _partition_from_json(run.n, run.partition)
    except ValueError as exc:
        raise ScenarioError(f"params.partition: {exc}") from exc


def _class_counts(run) -> list[int]:
    """The class counts of a beauty self-consistency sweep,
    `params.class_counts` (default: K alone), each at most n."""
    name, counts = ("K", [run.K]) if run.class_counts is None else ("class_counts", run.class_counts)
    if max(counts) > run.n:
        raise ScenarioError(f"params.{name}: expected class counts of at most n = {run.n}, got {getattr(run, name)!r}")
    return counts


def _stake_triples(step: float, max_evaluations: int | None) -> list[matching_pennies.MatchingPenniesSpec]:
    """Every stake triple on the grid step, 2*step, ... below 2; raises
    ScenarioError unless the grid holds one, or when its solves (one per
    two-class row partition of each triple) exceed `max_evaluations`, by
    default the search's.  Both checks count the grid before building it."""
    n_vals = int(2 / step)
    n_vals -= step * n_vals >= 2
    if n_vals < 3:
        raise ScenarioError(f"params.sweep_step: {step!r} leaves no stake triple 0 < a < b < c < 2 on its grid")
    budget = SearchConfig().max_evaluations if max_evaluations is None else max_evaluations
    n_triples = math.comb(n_vals, 3)
    solves = len(matching_pennies.two_class_row_partitions()) * n_triples
    if solves > budget:
        raise ScenarioError(f"params.sweep_step: {step!r} asks for {solves} solves ({n_triples} stake triples),"
                            f" over max_evaluations = {budget}")
    vals = [round(step * k, 10) for k in range(1, n_vals + 1)]
    return [matching_pennies.MatchingPenniesSpec(*abc) for abc in combinations(vals, 3)]


READERS = {
    "custom-env": _read_custom_env,
    "matching-pennies": _read_pennies,
    "monitoring": _read_monitoring,
    "beauty": _read_beauty,
    "linear": _read_linear,
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _partition_to_json(part: Partition):
    return [list(c) for c in part.classes]


def _partition_from_json(n_games: int, classes) -> Partition:
    if not all(type(g) is int for c in classes for g in c):
        raise ValueError(f"class members must be game indices, got {classes!r}")
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


def _candidate_from_json(env, doc: dict) -> EquilibriumCandidate:
    """The stored candidate of a result on its environment; ValueError when
    a play is not one distribution over the player's actions per game."""
    lams = []
    plays: tuple[dict, dict] = ({}, {})
    for player in (0, 1):
        partitions, weights = [], []
        for entry in doc["lams"][player]:
            partitions.append(_partition_from_json(env.n_games, entry["partition"]))
            weights.append(float(entry["weight"]))
        lams.append(PartitionDistribution(tuple(partitions), tuple(weights)))
        shape = (env.n_games, env.n_actions(player))
        for entry in doc["strategies"][player]:
            part = _partition_from_json(env.n_games, entry["partition"])
            play = np.asarray(entry["play"], dtype=float)
            if play.shape != shape:
                raise ValueError(f"player {player}'s play on {part} has shape {play.shape}, not {shape}")
            if not np.isfinite(play).all() or any(validate_mixed(row) for row in play):
                raise ValueError(f"player {player}'s play on {part} has a row that is not a distribution")
            plays[player][part] = play
    d = {d.kind: d for d in DIVERGENCES.values()}[doc["divergence"]]
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


def _candidate_verification(run, cands) -> dict:
    reps = [cd_abee_verify(run.env, cand, run.capacities) for cand in cands]
    details = [{"ok": r.ok, "br_gain": r.br_gain, "clustering_failures": len(r.clustering_failures)}
               for r in reps]
    return {"all_ok": all(r.ok for r in reps), "details": details}


def _verdict(all_ok: bool) -> dict:
    """The verification of a runner whose results carry no candidates."""
    return {"all_ok": all_ok, "details": []}


def _search(run):
    """`cd_abee_search` on a scenario's finite game, with its capacities and
    mode, and its `max_evaluations` when it sets one."""
    cfg = SearchConfig() if run.max_evaluations is None else SearchConfig(max_evaluations=run.max_evaluations)
    return cd_abee_search(run.env, run.capacities, run.mode, run.d, cfg)


def _run_abee(names, run, out_dir):
    """The ABEE of a finite game's fixed partitions, the players' plays named `names`."""
    profiles = abee_solve(run.env, run.partitions)
    rows = [dict(zip(names, (p.single(0).tolist(), p.single(1).tolist()))) for p in profiles]
    return {"profiles": rows}, _verdict(bool(profiles)), False


def _run_custom_cdabee(run, out_dir):
    found = _search(run)
    results = {"candidates": [_candidate_to_json(c) for c in found.candidates]}
    exhausted = not all(rep.completed for rep in found.layers) and not found.candidates
    return results, _candidate_verification(run, found.candidates), exhausted


def _run_cluster(run, out_dir):
    data, k = run.data, run.K
    if run.algorithm == "kmeans":
        rng = np.random.default_rng(run.seed)
        init = data[rng.choice(len(data), size=min(k, len(data)), replace=False)]
        rep = kmeans_lloyd(data, run.prior, k, run.d, init)
        results = {"partition": _partition_to_json(rep.partition), "dispersion": rep.dispersion,
                   "locally_clustered": bool(rep.locally_clustered)}
    else:
        winners, best = global_cluster(data, run.prior, k, run.d)
        results = {"minimizers": [_partition_to_json(p) for p in winners], "dispersion": best}
    return results, _verdict(True), False


def _run_pennies_refutation(run, out_dir):
    clustered = [
        any(any(v) for v in rep["verdicts"].values())
        for report in matching_pennies.two_class_refutation(run.stakes, run.d)
        for rep in report.values()
    ]
    refuted = bool(clustered) and not any(clustered)  # nothing checked refutes nothing
    results = {"pure_clustered_equilibria_refuted": refuted, "cases_checked": len(clustered)}
    return results, _verdict(refuted), False


def _run_pennies_cdabee(run, out_dir):
    cand = matching_pennies.solve_matching_pennies_cdabee(run.spec)
    results = {
        "candidates": [_candidate_to_json(cand)],
        "column_mix": cand.aggregates()[1][:, 0].tolist(),
        "lambda": list(cand.lams[0].weights),
    }
    exhausted = False
    if run.max_evaluations is not None:
        found = _search(run)
        target = np.sort(np.asarray(results["column_mix"]))
        results["search_recovered"] = any(
            np.allclose(np.sort(c.aggregates()[1][:, 0]), target, atol=1e-7)
            for c in found.candidates
        )
        results["search_layers_completed"] = all(rep.completed for rep in found.layers)
        # budget exhaustion only counts against the run when the search
        # also failed to recover the closed-form candidate
        exhausted = not results["search_layers_completed"] and not results["search_recovered"]
    return results, _candidate_verification(run, [cand]), exhausted


def _run_monitoring_cdabee(run, out_dir):
    spec = run.spec
    sol = monitoring.solve_monitoring_cdabee(spec, run.mode, run.d)
    results: dict = {"candidates": [_candidate_to_json(c) for c in sol.candidates]}
    if sol.zeta_star is not None:
        results["zeta"] = sol.zeta_star
        results["lambda"] = [spec.mu_star, 1.0 - spec.mu_star]
    if sol.zeta_range is not None:
        results["zeta_range"] = list(sol.zeta_range)
    if run.nu_sweep:
        results["nu_sweep"] = [list(row) for row in monitoring.nu_star_sweep(spec, run.nu_sweep)]
    return results, _candidate_verification(run, sol.candidates), False


def _run_beauty_abee(run, out_dir):
    spec, part = run.spec, run.partition
    closed = beauty.abee_actions(spec, part)
    chosen, means, gain = beauty.discrete_abee(spec, part, run.n_actions)
    cell = 1.0 / (run.n_actions or spec.n)
    gap = float(np.abs(closed - chosen).max())
    results = {
        "max_action_gap": gap,
        "grid_cell": cell,
        "within_two_cells": bool(gap <= 2 * cell + 1e-12),
        "class_means": means.tolist(),
        "deviation_gain": gain,
    }
    return results, _verdict(results["within_two_cells"]), False


def _run_beauty_cabee(run, out_dir):
    spec = run.spec
    if run.self_consistent_sweep:
        found = {}
        for k in run.class_counts:
            partitions = beauty.self_consistent_contiguous(beauty.uniform_spec(spec.r, spec.n, k), k)
            found[str(k)] = [_partition_to_json(p) for p in partitions]
        return {"self_consistent_contiguous": found}, _verdict(True), False
    if run.r_grid is not None:
        grid = []
        for r in run.r_grid:
            ok, margin = beauty.beauty_cabee_check(beauty.uniform_spec(r, spec.n, spec.K), run.partition)
            grid.append([r, bool(ok), margin])
        monotone = all(grid[i][1] <= grid[i + 1][1] for i in range(len(grid) - 1))
        return {"r_grid": grid, "monotone_in_r": monotone}, _verdict(monotone), False
    ok, margin = beauty.beauty_cabee_check(spec, run.partition)
    return {"locally_clustered": bool(ok), "margin": margin}, _verdict(bool(ok)), False


def _run_linear_abee(run, out_dir):
    spec, endpoints = run.spec, run.endpoints
    lines = linear.linear_abee(spec, endpoints)
    results: dict = {"classes": [asdict(ln) for ln in lines]}  # lo, hi, mean, beta, slope
    rows = linear.figure_curves(spec, endpoints, run.points_per_class)
    if run.outputs["csv"]:
        write_csv(out_dir / run.outputs["csv"], ["mu", "nash_action", "abee_action", "class_index"], rows)
        results["csv"] = run.outputs["csv"]
    if run.outputs["svg"]:
        series = [("nash", [(r[0], r[1]) for r in rows])]
        for k in range(len(lines)):
            series.append((f"class-{k}", [(r[0], r[2]) for r in rows if r[3] == k]))
        write_polyline_svg(out_dir / run.outputs["svg"], series)
        results["svg"] = run.outputs["svg"]
    results["jumps"] = [
        {"mu": left.hi, "jump": (spec.A + left.hi * right.slope) - (spec.A + left.hi * left.slope)}
        for left, right in zip(lines, lines[1:])
    ]
    return results, _verdict(True), False


def _run_linear_cabee(run, out_dir):
    spec = run.spec
    endpoints = linear.equidistant_partition(spec) if run.endpoints is None else run.endpoints
    chk = linear.linear_local_check(spec, endpoints)
    results = {
        "endpoints": list(map(float, endpoints)),
        "locally_clustered": chk.ok,
        "boundary_slacks": [list(s) for s in chk.boundary_slacks],
    }
    if run.windows:
        results["windows"] = [list(w) for w in linear.linear_cabee_window(spec, endpoints)]
    return results, _verdict(True), False


def _pennies_start(spec, d):
    return matching_pennies.solve_matching_pennies_cdabee(spec)


def _monitoring_start(spec, d):
    return monitoring.solve_monitoring_cdabee(spec, GLOBAL, d).candidates[0]


def _model1(run, state):
    """Model 1's trajectory from `state`, and its drifts as results."""
    pert = PerturbationSpec(epsilon=run.epsilon, seed=run.seed)
    traj, report = model1_run(run.env, state, run.steps, run.capacities, run.d, pert, n_subjects=run.n_subjects,
                              tie_break=run.tie_break or ("incumbent" if run.epsilon == 0 else "uniform"))
    return traj, {"aggregate_drift": report.aggregate_drift, "lambda_drift": report.lam_drift}


def _model2(run, state):
    """Model 2's trajectory from `state`; it adds no results."""
    traj = [state]
    for _ in range(run.steps):
        traj.append(model2_step(run.env, traj[-1], run.d))
    return traj, {}


def _run_learning(start, dynamic, run, out_dir):
    """A learning dynamic from the kind's closed-form equilibrium: `start`
    gives the candidate, `dynamic` the trajectory and its extra results."""
    state = state_from_candidate(run.env, start(run.spec, run.d))
    steady, info = steady_state_check(run.env, state, run.mode, run.d, run.capacities)
    steady_info = {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v)) for k, v in info.items()}
    results = {"start_is_steady": bool(steady), "steady_info": steady_info}
    traj, extra = dynamic(run, state)
    results["steps"] = len(traj) - 1
    results.update(extra)
    if run.outputs["actions_csv"]:  # set together with shares_csv
        write_trajectory_csv(out_dir / run.outputs["actions_csv"], out_dir / run.outputs["shares_csv"], traj, run.env)
        results.update(run.outputs)
    return results, _verdict(True), False


# Every supported (kind, solver) pair and its runner; validation rejects any
# other pair.  A runner takes (parsed scenario, output directory) and returns
# (results, verification, search budget exhausted).
RUNNERS = {
    ("custom-env", "abee"): partial(_run_abee, ("i", "j")),
    ("custom-env", "cdabee"): _run_custom_cdabee,
    ("custom-env", "cluster"): _run_cluster,
    ("matching-pennies", "abee"): partial(_run_abee, ("row", "column")),
    ("matching-pennies", "cabee"): _run_pennies_refutation,
    ("matching-pennies", "cdabee"): _run_pennies_cdabee,
    ("matching-pennies", "learn1"): partial(_run_learning, _pennies_start, _model1),
    ("matching-pennies", "learn2"): partial(_run_learning, _pennies_start, _model2),
    ("monitoring", "cdabee"): _run_monitoring_cdabee,
    ("monitoring", "learn1"): partial(_run_learning, _monitoring_start, _model1),
    ("monitoring", "learn2"): partial(_run_learning, _monitoring_start, _model2),
    ("beauty", "abee"): _run_beauty_abee,
    ("beauty", "cabee"): _run_beauty_cabee,
    ("linear", "abee"): _run_linear_abee,
    ("linear", "cabee"): _run_linear_cabee,
}
KINDS = tuple(dict.fromkeys(kind for kind, _ in RUNNERS))


def run_scenario(doc: dict, out_dir: Path) -> tuple[dict, bool]:
    """Execute a validated scenario; returns (result document, exhausted)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = _parse(doc)
    t0 = time.perf_counter()
    results, verification, exhausted = RUNNERS[run.kind, run.solver](run, out_dir)
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
    """Re-run the equilibrium checks on every candidate stored in a result;
    a candidate that cannot be read fails.  Raises ScenarioError when its
    scenario does not validate."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("library_version") != __version__:
        print(
            f"warning: result from library {doc.get('library_version')}, "
            f"verifying with {__version__}",
            file=sys.stderr,
        )
    run = _parse(doc["scenario"])
    notes: list[str] = []
    cands_json = doc.get("results", {}).get("candidates")
    if not cands_json:
        return True, ["no stored candidates; nothing to re-verify"]
    if run.env is None:
        return True, ["kind carries no finite environment; nothing to re-verify"]
    ok = True
    for i, cj in enumerate(cands_json):
        try:
            cand = _candidate_from_json(run.env, cj)
        except (ValueError, TypeError) as exc:
            ok = False
            notes.append(f"candidate {i}: unreadable ({exc})")
            continue
        rep = cd_abee_verify(run.env, cand, run.capacities)
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
    parser.add_argument(
        "--max-evaluations", type=int, help="solves a cdabee search may spend (both layers)"
    )


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
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
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
            doc = _read_scenario(args.scenario)
            name = Path(args.scenario).stem
        else:
            catalog = bundled_scenarios()
            if args.scenario not in catalog:
                raise ScenarioError(f"scenario: no file and no bundled scenario named {args.scenario!r}")
            doc = catalog[args.scenario]
            name = args.scenario
        # the flags that were set become part of the scenario the result echoes
        flags = {"mode": args.mode, "divergence": args.divergence, "seed": args.seed,
                 "max_evaluations": args.max_evaluations}
        if isinstance(doc, dict):
            doc = {**doc, **{key: value for key, value in flags.items() if value is not None}}
        doc = validate_scenario(doc)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out)
    try:
        result_doc, exhausted = run_scenario(doc, out_dir)
    except HypothesesUnmet as exc:
        print(f"error: hypotheses unmet: {exc}", file=sys.stderr)
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
