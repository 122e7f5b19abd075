"""Seeded inputs, fixed operation lists and output checks of each workload.

A workload is built in two steps: `make(name, seed, out_dir)` draws its
inputs from the seed (this is part of set-up), and `operations()` lists the
calls that are timed.  Each operation returns its output; `check` looks at that output
outside the timed window and returns a list of problems (empty when the
output is correct) together with a digest of the output.

Functions of the package are looked up through their modules at call time
(`equilibrium.cd_abee_search`, not a bound name), so that the tracer in
`tracing.py` sees every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from cabee import cli, clustering, equilibrium, learning, partitions
from cabee.applications import HypothesesUnmet, matching_pennies

SEARCH_CALLS = 2
SEARCH_CAPACITIES = (2, 3)
# (games, actions, max classes, divergence kind): the two ROADMAP baseline rows
CLUSTER_CASES = ((11, 3, 4, clustering.SQUARED_EUCLIDEAN), (12, 3, 3, clustering.KULLBACK_LEIBLER))
KMEANS_STARTS = 20
LEARN_SUBJECTS = 100_000
LEARN_EXHAUSTIVE_STEPS = 8
LEARN_LLOYD_STEPS = 1
LEARN_EPSILON = 0.05
CATALOG_SKIP = ("example1_cdabee",)  # its time is set by a 10 s search budget, not by work
DIST_TOL = 1e-9


def canonical(obj):
    """JSON-ready form of an output: floats rounded, partitions as classes."""
    if isinstance(obj, partitions.Partition):
        return [list(c) for c in obj.classes]
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round(float(obj), 9) if math.isfinite(obj) else str(float(obj))
    return obj


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _candidate_summary(cand) -> dict:
    return {
        "lams": [list(zip(lam.partitions, lam.weights)) for lam in cand.lams],
        "plays": [sorted(cand.profile.plays[pl].items(), key=lambda kv: kv[0].key()) for pl in (0, 1)],
    }


def _stake_triples(rng: np.random.Generator, count: int):
    """Matching-pennies stakes 0 < a < b < c < 2, redrawn until the closed-form
    mixed-categorization equilibrium exists, with that equilibrium."""
    out = []
    while len(out) < count:
        a, b, c = np.sort(rng.uniform(0.0, 2.0, 3))
        try:
            spec = matching_pennies.MatchingPenniesSpec(float(a), float(b), float(c))
            out.append((spec, matching_pennies.solve_matching_pennies_cdabee(spec)))
        except (ValueError, HypothesesUnmet):
            continue
    return out


def _is_distribution(arr) -> bool:
    """Finite, nonnegative, and summing to 1 along the last axis."""
    arr = np.asarray(arr, dtype=float)
    return bool(
        np.all(np.isfinite(arr))
        and np.all(arr >= -DIST_TOL)
        and np.all(np.abs(arr.sum(axis=-1) - 1.0) <= DIST_TOL)
    )


def _lams_key(lams):
    """Both players' partition distributions, canonical and order-free."""
    return canonical([sorted(zip(lam.partitions, lam.weights), key=lambda pw: pw[0].key()) for lam in lams])


# ---------------------------------------------------------------------------
# search: two layered searches on seeded matching-pennies families
# ---------------------------------------------------------------------------


def search_config() -> equilibrium.SearchConfig:
    """Search settings built only from the fields SearchConfig declares.

    The {1/2} mixture-weight grid is set only while `lambda_step` exists, and
    the budgets are set far above the run time only while `*_budget_s`
    fields exist, so the search does the same work on a machine of any speed.
    """
    declared = {f.name for f in dataclasses.fields(equilibrium.SearchConfig)}
    kwargs = {name: 1e9 for name in declared if name.endswith("_budget_s")}
    if "lambda_step" in declared:
        kwargs["lambda_step"] = 0.5
    return equilibrium.SearchConfig(**kwargs)


class Search:
    def __init__(self, seed: int):
        self.cases = _stake_triples(np.random.default_rng([seed, 1]), SEARCH_CALLS)
        self.envs = [matching_pennies.build_matching_pennies(spec) for spec, _ in self.cases]
        self.inputs = [spec.stakes for spec, _ in self.cases]

    def operations(self):
        d = clustering.L2
        for env in self.envs:
            yield lambda env=env: equilibrium.cd_abee_search(
                env, SEARCH_CAPACITIES, equilibrium.GLOBAL, d, search_config()
            )

    def check(self, index: int, result):
        (spec, closed), env = self.cases[index], self.envs[index]
        problems = []
        for rep in result.layers:
            if not rep.completed:
                problems.append(f"layer {rep.name} did not complete")
        want = [np.asarray(a) for a in closed.aggregates()]
        want_lams = _lams_key(closed.lams)
        recovered = False
        for cand in result.candidates:
            got = cand.aggregates()
            if _lams_key(cand.lams) == want_lams and all(np.allclose(g, w, atol=1e-7) for g, w in zip(got, want)):
                recovered = True
            if not equilibrium.cd_abee_verify(env, cand, SEARCH_CAPACITIES).ok:
                problems.append("a candidate fails cd_abee_verify")
            if not equilibrium.grand_map_contains(env, cand, SEARCH_CAPACITIES):
                problems.append("a candidate is not in its own grand-map image")
        if not recovered:
            problems.append(f"closed-form candidate not recovered at stakes {spec.stakes}")
        out = {
            "layers": [(r.name, r.completed, r.evaluations, r.found) for r in result.layers],
            "candidates": [_candidate_summary(c) for c in result.candidates],
        }
        return problems, digest(out)


# ---------------------------------------------------------------------------
# cluster: exhaustive dispersion minimization, cold enumeration included
# ---------------------------------------------------------------------------


class Cluster:
    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for n_games, n_actions, max_classes, kind in CLUSTER_CASES:
            data = rng.dirichlet(np.ones(n_actions), size=n_games)
            prior = rng.dirichlet(np.ones(n_games))
            self.cases.append((data, prior, max_classes, clustering.Divergence(kind)))
        self.inputs = [(data, prior) for data, prior, _, _ in self.cases]
        self.check_seed = seed

    def operations(self):
        for data, prior, k, d in self.cases:
            yield lambda data=data, prior=prior, k=k, d=d: clustering.global_cluster(data, prior, k, d)

    def check(self, index: int, result):
        data, prior, k, d = self.cases[index]
        winners, best = result
        tol = clustering.TIE_TOL
        problems = []
        if not winners:
            problems.append("no minimizer returned")
        for part in winners:
            if part.n_classes > k:
                problems.append(f"winner {part} has more than {k} classes")
            if abs(clustering.dispersion(data, part, prior, d) - best) > tol:
                problems.append(f"winner {part} does not attain the returned minimum")
            if not clustering.is_locally_clustered(data, part, prior, d)[0]:
                problems.append(f"winner {part} is not locally clustered")
        rng = np.random.default_rng([self.check_seed, 3, index])
        for _ in range(KMEANS_STARTS):
            init = data[rng.choice(len(data), size=k, replace=False)]
            rep = clustering.kmeans_lloyd(data, prior, k, d, init)
            if rep.dispersion < best - tol:
                problems.append(f"Lloyd run ends below the minimum at {rep.partition}")
        return problems, digest({"winners": winners, "best": best})


# ---------------------------------------------------------------------------
# learn: model-1 Monte Carlo from the matching-pennies equilibrium
# ---------------------------------------------------------------------------


class Learn:
    def __init__(self, seed: int):
        ((self.spec, self.candidate),) = _stake_triples(np.random.default_rng([seed, 4]), 1)
        self.env = matching_pennies.build_matching_pennies(self.spec)
        self.start = learning.state_from_candidate(self.env, self.candidate)
        self.perturbation = learning.PerturbationSpec(epsilon=LEARN_EPSILON, seed=seed)
        self.inputs = [self.spec.stakes, seed]
        self._last = None

    def _run(self, state, steps: int, how: str):
        traj, _ = learning.model1_run(
            self.env, state, steps, SEARCH_CAPACITIES, clustering.L2, self.perturbation,
            n_subjects=LEARN_SUBJECTS, clustering=how,
        )
        self._last = traj[-1]
        return traj

    def operations(self):
        yield lambda: self._run(self.start, LEARN_EXHAUSTIVE_STEPS, "global")
        # continues from the state the exhaustive steps reached
        yield lambda: self._run(self._last, LEARN_LLOYD_STEPS, "lloyd")

    def check(self, index: int, traj):
        problems = []
        expected = LEARN_EXHAUSTIVE_STEPS if index == 0 else LEARN_LLOYD_STEPS
        if len(traj) != expected + 1:
            problems.append(f"trajectory has {len(traj) - 1} steps, expected {expected}")
        for state in traj:
            for pl in (0, 1):
                if not _is_distribution(state.aggregates[pl]):
                    problems.append(f"t={state.t}: aggregate of role {pl} is not a distribution")
                if not _is_distribution(state.lams[pl].weights):
                    problems.append(f"t={state.t}: shares of role {pl} are not a distribution")
                if not all(_is_distribution(s) for s in state.profile.plays[pl].values()):
                    problems.append(f"t={state.t}: a strategy of role {pl} is not a distribution")
        if index == 0:
            steady, info = learning.steady_state_check(
                self.env, self.start, equilibrium.GLOBAL, clustering.L2, SEARCH_CAPACITIES
            )
            if not steady:
                problems.append(f"starting state is not a zero-noise steady state: {info}")
        out = [
            (s.t, s.aggregates, [list(zip(lam.partitions, lam.weights)) for lam in s.lams])
            for s in traj
        ]
        return problems, digest(out)


# ---------------------------------------------------------------------------
# catalog: the bundled scenarios through the `cabee run` path
# ---------------------------------------------------------------------------


class Catalog:
    def __init__(self, seed: int, out_dir: Path):
        docs = {k: v for k, v in cli.bundled_scenarios().items() if k not in CATALOG_SKIP}
        names = sorted(docs)
        # the seed only orders the scenarios; their inputs are the bundled ones
        order = np.random.default_rng([seed, 5]).permutation(len(names))
        self.names = [names[i] for i in order]
        self.docs = [cli.validate_scenario(docs[n]) for n in self.names]
        self.out_dir = out_dir
        self.inputs = sorted(names)

    def operations(self):
        for name, doc in zip(self.names, self.docs):
            yield lambda name=name, doc=doc: cli.run_scenario(doc, self.out_dir / name)

    def check(self, index: int, result):
        name = self.names[index]
        result_doc, exhausted = result
        problems = []
        if not result_doc["verification"]["all_ok"]:
            problems.append(f"{name}: verification.all_ok is false")
        if exhausted:
            problems.append(f"{name}: run reports an exhausted budget")
        path = self.out_dir / name / f"{name}.result.json"
        path.write_text(json.dumps(result_doc, sort_keys=True, indent=1) + "\n")
        if result_doc["results"].get("candidates"):
            ok, notes = cli.verify_result(path)
            if not ok:
                problems.append(f"{name}: cabee verify fails: {notes}")
        stable = {k: v for k, v in result_doc.items() if k != "timing_ms"}
        return problems, digest(stable)


WORKLOADS = {"search": Search, "cluster": Cluster, "learn": Learn, "catalog": Catalog}


def make(name: str, seed: int, out_dir: Path):
    if name == "catalog":
        return Catalog(seed, out_dir)
    return WORKLOADS[name](seed)
