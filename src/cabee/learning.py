"""Population learning dynamics whose rest points are clustered equilibria.

Model 1: each period, fresh subjects see the opponent population's last
aggregate play per game (optionally with measurement noise), cluster it
into at most K categories, and best-respond to their class prototypes
(optionally with payoff noise).  Model 2: dynasties inherit a partition and
prototypes, best-respond to them, then re-sort the games around the
inherited prototypes and pass the result on.

Model 1's Lloyd variant is one `clustering._lloyd` call over all subjects;
model 2 re-sorts a dynasty's games with one `_prototype_divergences` call.

At zero noise the steps are set-valued at ties; the "incumbent" tie-break
selects the current state whenever it is admissible, so a state is a rest
point of the zero-noise step exactly when it is a clustered distributional
equilibrium of the matching mode (global for model 1, local for model 2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .abee import (
    PartitionDistribution,
    StrategyProfile,
    aggregate,
    best_replies,
    consistent_expectation,
    expected_payoffs,
)
from .clustering import (
    KULLBACK_LEIBLER,
    Divergence,
    _lloyd,
    _plogp,
    _projected,
    _prototype_divergences,
    global_cluster,
)
from .env import GameEnvironment
from .equilibrium import GLOBAL, LOCAL, EquilibriumCandidate, cd_abee_verify
from .partitions import Partition, assignment_rows, partition_list

STATE_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise scales and sources for the simulated dynamics.

    payoff_noise draws action-payoff perturbations on [0, 1]; measurement
    noise draws interior points of the opponent simplex mixed into each
    observation.  Both default to uniform draws and can be swapped for any
    callable with the same signature.
    """

    epsilon: float = 0.0
    seed: int = 0
    payoff_noise: Callable[[np.random.Generator, tuple], np.ndarray] | None = None
    measurement_noise: Callable[[np.random.Generator, tuple], np.ndarray] | None = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("noise scale must be nonnegative")

    def draw_payoff(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.payoff_noise is not None:
            return self.payoff_noise(rng, shape)
        return rng.uniform(0.0, 1.0, size=shape)

    def draw_measurement(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.measurement_noise is not None:
            return self.measurement_noise(rng, shape)
        draws = rng.standard_exponential(shape)
        return draws / draws.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class DynastyRecord:
    partition: Partition
    prototypes: np.ndarray  # (n_classes, n_opponent_actions)
    strategy: np.ndarray  # (n_games, n_own_actions)
    share: float


@dataclass
class PopulationState:
    """Empirical population snapshot for both roles."""

    lams: tuple[PartitionDistribution, PartitionDistribution]
    profile: StrategyProfile
    aggregates: tuple[np.ndarray, np.ndarray]
    t: int = 0
    dynasties: tuple[list[DynastyRecord], list[DynastyRecord]] | None = None
    events: list[str] = field(default_factory=list)

    def lam_weights(self, player: int) -> dict:
        lam = self.lams[player]
        return {p: w for p, w in zip(lam.partitions, lam.weights)}


def state_from_candidate(env: GameEnvironment, candidate: EquilibriumCandidate) -> PopulationState:
    """Population state carrying a candidate's strategies, shares and the
    consistent prototypes per support partition."""
    aggs = aggregate(candidate.profile, candidate.lams)
    dynasties: tuple[list, list] = ([], [])
    for player in (0, 1):
        lam = candidate.lams[player]
        for part, w in zip(lam.partitions, lam.weights):
            protos = consistent_expectation(env, part, aggs[1 - player])
            dynasties[player].append(
                DynastyRecord(part, protos, np.asarray(candidate.profile.plays[player][part], dtype=float), w)
            )
    return PopulationState(
        lams=candidate.lams,
        profile=candidate.profile,
        aggregates=aggs,
        dynasties=dynasties,
    )


def state_distance(s1: PopulationState, s2: PopulationState) -> float:
    """Worst coordinate change between two states; inf on support changes."""
    worst = 0.0
    for player in (0, 1):
        worst = max(worst, float(np.abs(s1.aggregates[player] - s2.aggregates[player]).max()))
        w1, w2 = s1.lam_weights(player), s2.lam_weights(player)
        if set(w1) != set(w2):
            return float("inf")
        worst = max(worst, max(abs(w1[p] - w2[p]) for p in w1))
        for p in w1:
            worst = max(
                worst,
                float(np.abs(s1.profile.plays[player][p] - s2.profile.plays[player][p]).max()),
            )
    return worst


# ---------------------------------------------------------------------------
# model 1: raw data, clustering, best replies
# ---------------------------------------------------------------------------


def _exact_model1_step(
    env: GameEnvironment,
    state: PopulationState,
    capacities: tuple[int, int],
    d: Divergence,
    tie_break: str,
) -> PopulationState:
    """Zero-noise population step.

    Clustering ties and payoff indifferences are broken by the policy:
    "incumbent" keeps the current shares and strategies whenever they are
    admissible, "uniform" splits evenly.
    """
    new_lams = []
    new_plays: tuple[dict, dict] = ({}, {})
    for player in (0, 1):
        data = state.aggregates[1 - player]
        winners, _ = global_cluster(data, env.prior, capacities[player], d)
        winner_keys = {p.key() for p in winners}
        lam = state.lams[player]
        if tie_break == "incumbent" and all(p.key() in winner_keys for p in lam.support):
            new_lam = lam
        else:
            w = 1.0 / len(winners)
            new_lam = PartitionDistribution(tuple(winners), (w,) * len(winners))
        for part in new_lam.support:
            beta = consistent_expectation(env, part, data)
            pays = expected_payoffs(env, player, beta[list(part.assignment())])
            incumbent = state.profile.plays[player].get(part) if tie_break == "incumbent" else None
            new_plays[player][part] = best_replies(pays, STATE_TOL, incumbent)
        new_lams.append(new_lam)
    profile = StrategyProfile(plays=new_plays)
    lams = (new_lams[0], new_lams[1])
    return PopulationState(
        lams=lams,
        profile=profile,
        aggregates=aggregate(profile, lams),
        t=state.t + 1,
        dynasties=state.dynasties,
    )


def _dispersion_matrix(
    s: np.ndarray, prior: np.ndarray, parts, d: Divergence
) -> np.ndarray:
    """Dispersion of every partition for every subject's perturbed data.

    s has shape (N, n_games, n_actions); output (N, len(parts)).
    """
    s, d = _projected(s, d)
    kl = d.kind == KULLBACK_LEIBLER
    point = (_plogp(s) if kl else s**2).sum(axis=2) @ prior
    out = np.empty((s.shape[0], len(parts)))
    for pi, part in enumerate(parts):
        ct = np.zeros(s.shape[0])
        for cls in part.classes:
            idx = list(cls)
            w = prior[idx].sum()
            proto = np.einsum("g,nga->na", prior[idx], s[:, idx, :]) / w
            ct += w * (_plogp(proto) if kl else proto**2).sum(axis=1)
        out[:, pi] = point - ct
    return out


def _lloyd_assignments(
    s: np.ndarray, prior: np.ndarray, k: int, d: Divergence, rng: np.random.Generator, rounds: int = 25
) -> np.ndarray:
    """Lloyd runs, one per subject, seeded at a random ordered k-subset of
    the subject's data points; per-subject game assignments (N, n_games)."""
    seeds = rng.random(s.shape[:2]).argsort(axis=1)[:, : min(k, s.shape[1])]
    assign, _ = _lloyd(s, prior, np.take_along_axis(s, seeds[:, :, None], axis=1), d, rounds)
    return assign


def model1_step(
    env: GameEnvironment,
    state: PopulationState,
    capacities: tuple[int, int],
    d: Divergence,
    perturbation: PerturbationSpec,
    n_subjects: int = 10_000,
    tie_break: str = "uniform",
    clustering: str = "global",
    rng: np.random.Generator | None = None,
) -> PopulationState:
    """One period of the raw-data dynamics.

    With zero noise the step is deterministic given the tie-break policy
    and n_subjects is irrelevant.  With noise, n_subjects independent
    draws per role are clustered (exhaustively, or by Lloyd runs when
    clustering="lloyd") and best-respond; the new state holds empirical
    frequencies.
    """
    if perturbation.epsilon == 0.0:
        return _exact_model1_step(env, state, capacities, d, tie_break)
    rng = rng or np.random.default_rng((perturbation.seed, state.t))
    eps = perturbation.epsilon
    new_lams = []
    new_plays: tuple[dict, dict] = ({}, {})
    new_aggs = []
    for player in (0, 1):
        data = state.aggregates[1 - player]
        n_act_opp = data.shape[1]
        n_act_own = env.n_actions(player)
        eta = perturbation.draw_measurement(rng, (n_subjects, env.n_games, n_act_opp))
        s = (data[None, :, :] + eps * eta) / (1.0 + eps)
        parts = partition_list(env.n_games, capacities[player])
        if clustering == "lloyd":
            assign = _lloyd_assignments(s, env.prior, capacities[player], d, rng)
            choice = assignment_rows(assign, capacities[player])
        else:
            disp = _dispersion_matrix(s, env.prior, parts, d)
            choice = disp.argmin(axis=1)
        counts = np.bincount(choice, minlength=len(parts))
        # subjects' prototypes per game: class means of their own draw under
        # their chosen partition
        proto_by_game = np.empty_like(s)
        for pi in np.flatnonzero(counts):
            members = choice == pi
            for cls in parts[pi].classes:
                idx = list(cls)
                w = env.prior[idx]
                proto = np.einsum("g,nga->na", w, s[members][:, idx, :]) / w.sum()
                for g in idx:
                    proto_by_game[members, g, :] = proto
        rho = perturbation.draw_payoff(rng, (n_subjects, env.n_games, n_act_own))
        utils = expected_payoffs(env, player, proto_by_game) + eps * rho
        actions = utils.argmax(axis=2)  # (N, n_games)
        onehot = np.eye(n_act_own)[actions]  # (N, n_games, n_act_own)
        new_aggs.append(onehot.mean(axis=0))
        support, weights = [], []
        for pi in np.flatnonzero(counts):
            support.append(parts[pi])
            weights.append(counts[pi] / n_subjects)
            new_plays[player][parts[pi]] = onehot[choice == pi].mean(axis=0)
        new_lams.append(PartitionDistribution(tuple(support), tuple(weights)))
    lams = (new_lams[0], new_lams[1])
    return PopulationState(
        lams=lams,
        profile=StrategyProfile(plays=new_plays),
        aggregates=(new_aggs[0], new_aggs[1]),
        t=state.t + 1,
        dynasties=state.dynasties,
    )


@dataclass
class StationarityReport:
    """Largest step-to-step movement over the last quarter of a run."""

    aggregate_drift: float
    lam_drift: float


def model1_run(
    env: GameEnvironment,
    state: PopulationState,
    steps: int,
    capacities: tuple[int, int],
    d: Divergence,
    perturbation: PerturbationSpec,
    n_subjects: int = 10_000,
    tie_break: str = "uniform",
    clustering: str = "global",
) -> tuple[list[PopulationState], StationarityReport]:
    """Iterate model 1, returning the trajectory and a drift report."""
    rng = np.random.default_rng(perturbation.seed)
    traj = [state]
    for _ in range(steps):
        state = model1_step(
            env, state, capacities, d, perturbation, n_subjects, tie_break, clustering, rng
        )
        traj.append(state)
    tail = max(2, len(traj) // 4)
    agg_drift = 0.0
    lam_drift = 0.0
    for prev, cur in zip(traj[-tail:-1], traj[-tail + 1 :]):
        for player in (0, 1):
            agg_drift = max(
                agg_drift, float(np.abs(cur.aggregates[player] - prev.aggregates[player]).max())
            )
            wp, wc = prev.lam_weights(player), cur.lam_weights(player)
            keys = set(wp) | set(wc)
            lam_drift = max(
                lam_drift, max(abs(wp.get(k, 0.0) - wc.get(k, 0.0)) for k in keys)
            )
    return traj, StationarityReport(agg_drift, lam_drift)


# ---------------------------------------------------------------------------
# model 2: inherited categories and prototypes
# ---------------------------------------------------------------------------


def model2_step(
    env: GameEnvironment,
    state: PopulationState,
    d: Divergence,
) -> PopulationState:
    """One generation of the inherited-categories dynamics.

    Stage 1: every dynasty best-responds game by game to its inherited
    prototypes (at indifference the inherited strategy stands when still
    optimal).  Stage 2: dynasties observe the cross-dynasty aggregates,
    reassign each game to the nearest inherited prototype (ties keep the
    current class), and recompute prototypes consistently with the new
    aggregate.  A prototype whose class empties is dropped and logged.
    """
    if state.dynasties is None:
        raise ValueError("model 2 needs per-dynasty records; build the state from a candidate")
    events: list[str] = []
    # stage 1: best replies to inherited prototypes
    stage1: tuple[list, list] = ([], [])
    for player in (0, 1):
        for rec in state.dynasties[player]:
            pays = expected_payoffs(env, player, rec.prototypes[list(rec.partition.assignment())])
            strat = best_replies(pays, STATE_TOL, rec.strategy)
            stage1[player].append(strat)
    aggs = tuple(
        sum(rec.share * strat for rec, strat in zip(state.dynasties[pl], stage1[pl]))
        for pl in (0, 1)
    )
    # stage 2: reassign games to nearest inherited prototype, refresh
    new_dyn: tuple[list, list] = ([], [])
    for player in (0, 1):
        opp = aggs[1 - player]
        for rec, strat in zip(state.dynasties[player], stage1[player]):
            dists = _prototype_divergences(opp, rec.prototypes, d)
            near = dists <= dists.min(axis=1, keepdims=True) + 1e-12
            cur = np.array(rec.partition.assignment())
            assign = np.where(near[np.arange(env.n_games), cur], cur, near.argmax(axis=1))
            live = len(set(assign.tolist()))
            if live < rec.partition.n_classes:
                events.append(
                    f"t={state.t}: dynasty of player {player} dropped "
                    f"{rec.partition.n_classes - live} class(es)"
                )
            part = Partition.from_assignment(assign)
            protos = consistent_expectation(env, part, opp)
            new_dyn[player].append(DynastyRecord(part, protos, strat, rec.share))
    # population shares per partition
    new_lams = []
    new_plays: tuple[dict, dict] = ({}, {})
    for player in (0, 1):
        weights: dict[Partition, float] = {}
        mix: dict[Partition, np.ndarray] = {}
        for rec in new_dyn[player]:
            weights[rec.partition] = weights.get(rec.partition, 0.0) + rec.share
            mix[rec.partition] = (
                mix.get(rec.partition, 0.0) + rec.share * rec.strategy
            )
        for part, w in weights.items():
            new_plays[player][part] = mix[part] / w
        items = sorted(weights.items(), key=lambda kv: kv[0].key())
        new_lams.append(
            PartitionDistribution(tuple(p for p, _ in items), tuple(w for _, w in items))
        )
    return PopulationState(
        lams=(new_lams[0], new_lams[1]),
        profile=StrategyProfile(plays=new_plays),
        aggregates=aggs,
        t=state.t + 1,
        dynasties=new_dyn,
        events=events,
    )


def _dynasty_distance(s1: PopulationState, s2: PopulationState) -> float:
    if s1.dynasties is None or s2.dynasties is None:
        return float("inf")
    worst = 0.0
    for player in (0, 1):
        if len(s1.dynasties[player]) != len(s2.dynasties[player]):
            return float("inf")
        for r1, r2 in zip(s1.dynasties[player], s2.dynasties[player]):
            if r1.partition != r2.partition:
                return float("inf")
            worst = max(worst, float(np.abs(r1.prototypes - r2.prototypes).max()))
            worst = max(worst, float(np.abs(r1.strategy - r2.strategy).max()))
            worst = max(worst, abs(r1.share - r2.share))
    return worst


def steady_state_check(
    env: GameEnvironment,
    state: PopulationState,
    mode: str,
    d: Divergence,
    capacities: tuple[int, int],
) -> tuple[bool, dict]:
    """Whether the zero-noise step of the mode's dynamics fixes the state.

    Global mode runs the exact model-1 step, local mode the model-2 step,
    both under the incumbent tie-break.  When steady, the state is also
    classified as a clustered distributional equilibrium per mode.
    """
    if mode == GLOBAL:
        nxt = _exact_model1_step(env, state, capacities, d, "incumbent")
        dist = state_distance(state, nxt)
    elif mode == LOCAL:
        nxt = model2_step(env, state, d)
        dist = max(state_distance(state, nxt), _dynasty_distance(state, nxt))
    else:
        raise ValueError(f"unknown mode {mode}")
    steady = dist <= STATE_TOL
    info = {"distance": dist}
    if steady:
        for check_mode in (LOCAL, GLOBAL):
            cand = EquilibriumCandidate(state.lams, state.profile, check_mode, d)
            info[f"is_{check_mode}_cdabee"] = cd_abee_verify(env, cand, capacities).ok
    return steady, info


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------


def write_trajectory_csv(actions_path, shares_path, trajectory, env: GameEnvironment) -> None:
    """Two CSVs: per-game action frequencies and partition shares over time."""
    with open(actions_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "role", "game", "action", "frequency"])
        for state in trajectory:
            for player in (0, 1):
                agg = state.aggregates[player]
                for g in range(env.n_games):
                    for a in range(agg.shape[1]):
                        writer.writerow([state.t, player, g, a, f"{agg[g, a]:.12g}"])
    with open(shares_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "role", "partition", "share"])
        for state in trajectory:
            for player in (0, 1):
                for part, w in zip(state.lams[player].partitions, state.lams[player].weights):
                    writer.writerow([state.t, player, str(part), f"{w:.12g}"])
