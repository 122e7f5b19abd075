"""Population learning dynamics whose rest points are clustered equilibria.

Model 1: each period, fresh subjects see the opponent population's last
aggregate play per game (optionally with measurement noise), cluster it
into at most K categories, and best-respond to their class prototypes
(optionally with payoff noise).  Model 2: dynasties inherit a partition and
prototypes, best-respond to them, then re-sort the games around the
inherited prototypes and pass the result on.

Model 1 draws one role's measurement noise (and its Lloyd variant's seed
keys) for all N subjects at once, and runs the rest on blocks of
`_SUBJECT_BLOCK` subjects, sized to a core's cache.  Every pass of a block
runs in its own layout, subjects last, so that reductions run over B-long
vectors; only the random draws stay subject-major, the stream's order,
each copied once into that layout: the measurement noise as the block's
draws are built, (n_games, n_actions, B) memory viewed as (B, n_games,
n_actions), the payoff noise into the action- and game-major payoffs.
Model 1 clusters the block's draws with one `clustering.subset_table`,
each subject's choice a running best (`numeric.first_best`) down the rows
of the (P, B) dispersion table, or in its Lloyd variant by rounds that map
each subject's partition to a partition, with prototypes gathered from the
subset sums of its draws.  It takes their prototypes as one gather from
the same subset sums (only under the mean divergence, whose table and
Lloyd rounds hold projected sums, are the raw draws' sums added up apart),
picks their best replies with `numeric.first_best`, and adds their
actions' counts, cells held (n_games, B) as the best replies are, to the
role's tally with one `np.bincount`; nothing of one role's subjects
outlives its step.  Model 2 re-sorts a dynasty's games with one
`_prototype_divergences` call.

At zero noise the steps are set-valued at ties; the "incumbent" tie-break
selects the current state whenever it is admissible, so a state is a rest
point of the zero-noise step exactly when it is a clustered distributional
equilibrium of the matching mode (global for model 1, local for model 2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .abee import (
    PartitionDistribution,
    StrategyProfile,
    aggregate,
    best_replies,
    class_payoffs,
    expected_payoffs,
)
from .clustering import (
    SQUARED_MEAN_DIFFERENCE,
    Divergence,
    _projected,
    _prototype_divergences,
    _subset_sums,
    class_prototypes,
    global_cluster,
    partition_dispersions,
    subset_table,
)
from .env import GameEnvironment
from .equilibrium import GLOBAL, LOCAL, EquilibriumCandidate, cd_abee_verify
from .numeric import first_best
from .partitions import Partition, assignment_rows, class_masks

STATE_TOL = 1e-9
CLUSTERINGS = ("global", "lloyd")  # model 1's exhaustive clustering, and its Lloyd variant
TIE_BREAKS = ("uniform", "incumbent")
_SUBJECT_BLOCK = 5000  # subjects per block of model 1's step, from a scan of block sizes (BENCH_28.json)


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise scale and seed of the simulated dynamics.

    Action-payoff perturbations are uniform on [0, 1]; measurement noise
    draws interior points of the opponent simplex (normalized exponential
    draws) mixed into each observation.
    """

    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"noise scale must be finite and nonnegative, got epsilon={self.epsilon!r}")

    def draw_payoff(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=shape)

    def draw_measurement(self, rng: np.random.Generator, shape) -> np.ndarray:
        draws = rng.standard_exponential(shape)
        # summed and divided one action at a time: the sum rounds as numpy's
        # sum of a short axis, and no pass broadcasts over the action axis
        total = sum(draws[..., a] for a in range(shape[-1]))
        for a in range(shape[-1]):
            draws[..., a] /= total
        return draws


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
            protos = class_prototypes(aggs[1 - player], part, env.prior)
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
            pays = class_payoffs(env.payoffs[player], data, part, env.prior)
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


def _lloyd_choices(
    s: np.ndarray, prior: np.ndarray, k: int, d: Divergence, keys: np.ndarray, rounds: int = 25
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each subject's Lloyd partition, as a row of `class_masks`, with the
    subset sums S (2^n_games, n_actions, N) and masses W of all subjects'
    raw draws.

    A subject's run is seeded at a random ordered k-subset of its data
    points, the games of its k smallest `keys` (N, n_games) in increasing
    order, and sends each game to its nearest seed point.  Every later
    round maps a partition to a partition: the prototypes of a subject's
    current row are its class means S[m]/W[m], m the row's `class_masks`
    (the class mean is the prototype under every divergence here), which
    the subjects still moving gather at once from the subset sums (under
    the mean divergence, from a second `_subset_sums`, of the projected
    draws); a class past the row's count is at infinite distance.  A
    subject whose row repeats stops; every run stops after `rounds`
    assignments in all.

    On an exact distance tie a game goes to the class with the smallest
    game (to the seed drawn first, in the seed round), where a Lloyd run
    over labels (`clustering.kmeans_lloyd`) keeps the class seeded first.
    The variant runs only with noise, where such ties have probability 0.
    """
    x, kind = _projected(s, d)
    xt = x.transpose(1, 2, 0)  # (n_games, dim, N), game-major as model 1 holds its draws
    order = keys.argsort(axis=1)[:, : min(k, s.shape[1])]
    seeds = np.take_along_axis(xt, order.T[:, None, :], axis=0)  # the seed points, (k, dim, N)
    choice = assignment_rows(first_best(_prototype_divergences(x, seeds.transpose(2, 0, 1), kind), np.minimum), k)
    sums, mass = _subset_sums(s.transpose(1, 2, 0), prior)
    x_sums = _subset_sums(xt, prior)[0] if d.kind == SQUARED_MEAN_DIFFERENCE else sums
    n, dim = x.shape[0], x.shape[2]
    masks = class_masks(s.shape[1], k).astype(np.intp)
    safe = np.where(mass > 0, mass, 1.0)  # only the empty set has no mass
    moving = np.arange(n)
    for _ in range(rounds - 1):
        rows = choice[moving]
        m = masks[rows].T  # (K, moving)
        # one flat gather in (class, action, subject) order, as in `_class_means`
        protos = x_sums.take((m[:, None, :] * dim + np.arange(dim)[:, None]) * n + moving)
        protos /= safe.take(m)[:, None, :]
        xm = xt if len(moving) == n else xt.take(moving, axis=2)
        dist = _prototype_divergences(xm.transpose(2, 0, 1), protos.transpose(2, 0, 1), kind)
        np.copyto(dist, np.inf, where=(m == 0).T[:, None, :])
        new = assignment_rows(first_best(dist, np.minimum), k)
        choice[moving] = new
        moving = moving[new != rows]
        if not len(moving):
            break
    return choice, sums, mass


def _exhaustive_choices(
    s: np.ndarray, prior: np.ndarray, k: int, d: Divergence
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each subject's first dispersion minimizer, as a row of `class_masks`,
    with the subset sums S (2^n_games, n_actions, N) and masses W of all
    subjects' raw draws: under L2 and KL those of the one subset table that
    scores the partitions, under the mean divergence, whose table holds
    projected sums, those of a second `_subset_sums`."""
    table = subset_table(s, prior, d)
    choice = first_best(partition_dispersions(table, class_masks(s.shape[1], k)).T, np.minimum)
    if d.kind == SQUARED_MEAN_DIFFERENCE:
        return (choice, *_subset_sums(s.transpose(1, 2, 0), prior))
    return choice, table[1], table[2]


def _class_means(sums: np.ndarray, mass: np.ndarray, choice: np.ndarray, k: int) -> np.ndarray:
    """Class means of each subject's draw under its chosen row of
    `class_masks`, per game: S[m]/W[m] of the subset sums S (2^n_games, dim,
    N) and masses W of all draws, m the bitmask of the game's class, as an
    (N, n_games, dim) view of (n_games, dim, N) memory."""
    n_sets, dim, n = sums.shape
    n_games = n_sets.bit_length() - 1
    masks = class_masks(n_games, k)[:, :, None]
    game_masks = (masks * (masks >> np.arange(n_games) & 1)).sum(axis=1)  # the one class holding each game
    m = game_masks.T.astype(np.intp).take(choice, axis=1)  # (n_games, N)
    # one flat gather in (game, action, subject) order: a fancy index is slower
    protos = sums.take((m[:, None, :] * dim + np.arange(dim)[:, None]) * n + np.arange(n))
    protos /= mass.take(m)[:, None, :]
    return protos.transpose(2, 0, 1)


def _subject_tallies(
    env: GameEnvironment,
    player: int,
    data: np.ndarray,
    k: int,
    d: Divergence,
    perturbation: PerturbationSpec,
    n_subjects: int,
    clustering: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """One role's noisy subjects: each clusters its draw of the opponents'
    aggregate `data` into at most k classes and best-responds to its class
    prototypes.  Returns the subjects per (row of `class_masks`, game, own
    action), exact counts.

    The measurement noise, and the Lloyd variant's seed keys, are drawn for
    all subjects at once; the rest runs on blocks of `_SUBJECT_BLOCK`
    subjects, each drawing its payoff noise in turn (the role's last draw,
    so the stream is that of one draw for all); the draws, sums and payoffs
    of a block are dropped as the next block's replace them, so the working
    set is a block's, not the role's."""
    eps = perturbation.epsilon
    eta = perturbation.draw_measurement(rng, (n_subjects,) + data.shape)
    keys = rng.random(eta.shape[:2]) if clustering == "lloyd" else None
    n_games, n_act = data.shape[0], env.n_actions(player)
    tally = np.zeros(len(class_masks(n_games, k)) * n_games * n_act, dtype=np.intp)
    for lo in range(0, n_subjects, _SUBJECT_BLOCK):
        block = eta[lo : lo + _SUBJECT_BLOCK]
        # (data + eps*eta)/(1 + eps), held game- and action-major, so the
        # reductions below run over block-long vectors
        s = np.multiply(eps, block, out=np.empty(data.shape + (len(block),)).transpose(2, 0, 1))
        s += data
        s /= 1.0 + eps
        if keys is None:
            choice, sums, mass = _exhaustive_choices(s, env.prior, k, d)
        else:
            choice, sums, mass = _lloyd_choices(s, env.prior, k, d, keys[lo : lo + _SUBJECT_BLOCK])
        # subjects' prototypes per game: class means of their own draw under
        # their chosen partition
        utils = expected_payoffs(env, player, _class_means(sums, mass, choice, k))
        # drawn subject-major, the stream's order, and copied once into the layout of `utils`
        noise = np.empty_like(utils)
        noise[...] = perturbation.draw_payoff(rng, utils.shape)
        noise *= eps
        utils += noise
        # each subject's cell per game, (n_games, B) as the best replies are held
        cells = (choice * n_games + np.arange(n_games)[:, None]) * n_act + first_best(utils, np.maximum).T
        tally += np.bincount(cells.ravel(order="K"), minlength=tally.size)
    return tally.reshape(-1, n_games, n_act)


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
    if clustering not in CLUSTERINGS:
        raise ValueError(f"unknown clustering {clustering!r}: expected one of {CLUSTERINGS}")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}: expected one of {TIE_BREAKS}")
    if perturbation.epsilon == 0.0:
        return _exact_model1_step(env, state, capacities, d, tie_break)
    if n_subjects < 1:
        raise ValueError(f"n_subjects must be at least 1, got {n_subjects!r}")
    rng = rng or np.random.default_rng((perturbation.seed, state.t))
    new_lams = []
    new_plays: tuple[dict, dict] = ({}, {})
    new_aggs = []
    for player in (0, 1):
        masks = class_masks(env.n_games, capacities[player])
        # exact counts, so each frequency rounds once
        tally = _subject_tallies(
            env, player, state.aggregates[1 - player], capacities[player], d, perturbation,
            n_subjects, clustering, rng,
        )
        counts = tally[:, 0].sum(axis=1)  # every subject plays one action in game 0
        new_aggs.append(tally.sum(axis=0) / n_subjects)
        support, weights = [], []
        for pi in np.flatnonzero(counts):
            part = Partition.from_masks(env.n_games, masks[pi].tolist())
            support.append(part)
            weights.append(counts[pi] / n_subjects)
            new_plays[player][part] = tally[pi] / counts[pi]
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
            protos = class_prototypes(opp, part, env.prior)
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
