"""Clustered equilibria: verification and fixed-point search.

A candidate pairs a distribution over analogy partitions per player with a
strategy profile.  Verification checks the distributional equilibrium
conditions and that every support partition is clustered (locally, or a
dispersion minimizer) against the opponent's aggregate play.  The search
walks degenerate supports first, then two-partition supports for one player
with the mixture weight on a simplex grid, refining free mixing weights by
root-finding on the dispersion-tie condition.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .abee import (
    Continuum,
    PartitionDistribution,
    SolveConfig,
    StrategyProfile,
    abee_solve,
    aggregate,
    best_replies,
    consistent_expectation,
    degenerate_pair,
    dist_abee_solve_detailed,
    dist_abee_verify,
    expected_payoffs,
)
from .clustering import Divergence, dispersion, global_cluster, is_locally_clustered
from .env import SOLVER_TOL, GameEnvironment
from .partitions import Partition, partition_list

LOCAL = "local"
GLOBAL = "global"
CANDIDATE_DEDUP_TOL = 1e-7


@dataclass(frozen=True)
class EquilibriumCandidate:
    """A (strategy, partition-distribution) pair under a clustering mode."""

    lams: tuple[PartitionDistribution, PartitionDistribution]
    profile: StrategyProfile
    mode: str
    divergence: Divergence

    def aggregates(self) -> tuple[np.ndarray, np.ndarray]:
        return aggregate(self.profile, self.lams)


@dataclass
class VerifyReport:
    ok: bool
    br_gain: float
    br_witness: tuple | None
    clustering_failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def infer_capacities(lams) -> tuple[int, int]:
    """Class capacity per player, read off the support partitions."""
    return tuple(max(p.n_classes for p in lams[pl].support) for pl in (0, 1))


def clustered_partition_set(
    env: GameEnvironment,
    data: np.ndarray,
    capacity: int,
    mode: str,
    d: Divergence,
) -> list[Partition]:
    """Partitions admissible for one player against the given data.

    Global mode: the dispersion-minimizer set.  Local mode: every partition
    passing the nearest-own-prototype test.
    """
    if mode == GLOBAL:
        winners, _ = global_cluster(data, env.prior, capacity, d)
        return winners
    out = []
    for part in partition_list(env.n_games, capacity):
        okc, _ = is_locally_clustered(data, part, env.prior, d)
        if okc:
            out.append(part)
    return out


def cd_abee_verify(
    env: GameEnvironment,
    candidate: EquilibriumCandidate,
    capacities: tuple[int, int] | None = None,
) -> VerifyReport:
    """Distributional equilibrium check plus the clustering check of every
    support partition against the opponent aggregate."""
    lams = candidate.lams
    caps = capacities or infer_capacities(lams)
    ok_br, gain, wit = dist_abee_verify(env, lams, candidate.profile)
    failures: list = []
    aggs = aggregate(candidate.profile, lams)
    for player in (0, 1):
        data = aggs[1 - player]
        if candidate.mode == GLOBAL:
            winners, _ = global_cluster(data, env.prior, caps[player], candidate.divergence)
            winner_keys = {w.key() for w in winners}
            for part in lams[player].support:
                if part.key() not in winner_keys:
                    failures.append((player, part, "not a dispersion minimizer"))
        else:
            for part in lams[player].support:
                okc, witc = is_locally_clustered(data, part, env.prior, candidate.divergence)
                if not okc:
                    failures.append(
                        (player, part, f"game {witc[0]} is closer to class {witc[1]}")
                    )
    return VerifyReport(ok_br and not failures, gain, wit, failures)


def cabee_verify(
    env: GameEnvironment,
    partitions: tuple[Partition, Partition],
    profile: StrategyProfile,
    mode: str,
    d: Divergence,
    capacities: tuple[int, int] | None = None,
) -> VerifyReport:
    """Pure (degenerate-distribution) clustered-equilibrium check."""
    candidate = EquilibriumCandidate(degenerate_pair(*partitions), profile, mode, d)
    return cd_abee_verify(env, candidate, capacities)


# ---------------------------------------------------------------------------
# the grand mapping: aggregate -> (best replies x clustering)
# ---------------------------------------------------------------------------


@dataclass
class GrandMapImage:
    vertex_profiles: list[StrategyProfile]
    admissible_partitions: tuple[list[Partition], list[Partition]]
    truncated: bool = False


def _reply_mask(env: GameEnvironment, player: int, part: Partition, opponent_aggregate) -> np.ndarray:
    """(n_games, n_actions) mask of the best replies to the consistent
    expectations of one support partition."""
    beta = consistent_expectation(env, part, opponent_aggregate)
    pays = expected_payoffs(env, player, beta[list(part.assignment())])
    return best_replies(pays, SOLVER_TOL) > 0


def grand_map(
    env: GameEnvironment,
    candidate: EquilibriumCandidate,
    capacities: tuple[int, int] | None = None,
    max_profiles: int = 512,
) -> GrandMapImage:
    """Successor set of a state: all vertex best-reply profiles on the
    current supports, and the clustering-admissible partitions per player."""
    lams = candidate.lams
    caps = capacities or infer_capacities(lams)
    aggs = aggregate(candidate.profile, lams)
    admissible = tuple(
        clustered_partition_set(env, aggs[1 - pl], caps[pl], candidate.mode, candidate.divergence)
        for pl in (0, 1)
    )
    choice_sets = []
    layout = []
    for player in (0, 1):
        for part in lams[player].support:
            replies = _reply_mask(env, player, part, aggs[1 - player])
            for g in itertools.chain.from_iterable(part.classes):
                choice_sets.append(tuple(int(a) for a in np.flatnonzero(replies[g])))
                layout.append((player, part, g))
    total = 1
    truncated = False
    for s in choice_sets:
        total *= len(s)
        if total > max_profiles:
            truncated = True
            break
    profiles = []
    for combo in itertools.islice(itertools.product(*choice_sets), max_profiles):
        plays: tuple[dict, dict] = ({}, {})
        for (player, part, g), act in zip(layout, combo):
            arr = plays[player].setdefault(part, np.zeros((env.n_games, env.n_actions(player))))
            arr[g, act] = 1.0
        profiles.append(StrategyProfile(plays=plays))
    return GrandMapImage(profiles, admissible, truncated)


def grand_map_contains(
    env: GameEnvironment,
    candidate: EquilibriumCandidate,
    capacities: tuple[int, int] | None = None,
    tol: float = 1e-9,
) -> bool:
    """Whether the state belongs to its own successor set.

    Support-based check: every played action is a best reply to the
    consistent expectations, and every support partition is clustering
    admissible.  Equivalent to the verification route, by construction of
    the mapping.
    """
    lams = candidate.lams
    caps = capacities or infer_capacities(lams)
    aggs = aggregate(candidate.profile, lams)
    for player in (0, 1):
        admissible = {
            p.key()
            for p in clustered_partition_set(
                env, aggs[1 - player], caps[player], candidate.mode, candidate.divergence
            )
        }
        for part in lams[player].support:
            if part.key() not in admissible:
                return False
            strat = candidate.profile.plays[player][part]
            if (strat[~_reply_mask(env, player, part, aggs[1 - player])] > tol).any():
                return False
    return True


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class SearchConfig:
    lambda_step: float = 0.01
    layer1_budget_s: float = 30.0
    layer2_budget_s: float = 120.0
    solve: SolveConfig = field(default_factory=SolveConfig)
    local_samples: int = 9  # continuum samples kept per family in local mode
    max_candidates: int = 64


@dataclass
class LayerReport:
    name: str
    completed: bool
    evaluations: int
    found: int


@dataclass
class SearchResult:
    candidates: list[EquilibriumCandidate] = field(default_factory=list)
    layers: list[LayerReport] = field(default_factory=list)

    @property
    def pure_exhaustively_refuted(self) -> bool:
        """True when the degenerate layer finished with no pure candidate."""
        for rep in self.layers:
            if rep.name == "degenerate":
                return rep.completed and rep.found == 0
        return False


def _candidate_key(candidate: EquilibriumCandidate):
    parts = []
    for player in (0, 1):
        lam = candidate.lams[player]
        entries = sorted(
            (part.key(), round(w / CANDIDATE_DEDUP_TOL))
            for part, w in zip(lam.partitions, lam.weights)
        )
        strat_bits = tuple(
            (part.key(), tuple(np.round(candidate.profile.plays[player][part].ravel() / CANDIDATE_DEDUP_TOL).astype(np.int64)))
            for part, _ in sorted(zip(lam.partitions, lam.weights), key=lambda pw: pw[0].key())
        )
        parts.append((tuple(entries), strat_bits))
    return tuple(parts)


def _lambda_grid(step: float) -> list[float]:
    """Interior grid weights, coarse multiples first, symmetric-first."""
    n = int(round(1.0 / step))
    values = sorted({round(k * step, 12) for k in range(1, n)} - {0.0, 1.0})

    def rank(w):
        for granularity, coarse in ((0.1, 0), (0.05, 1)):
            m = w / granularity
            if abs(m - round(m)) < 1e-9:
                return (coarse, abs(w - 0.5), w)
        return (2, abs(w - 0.5), w)

    return sorted(values, key=rank)


def _quadratic_roots(f, lo: float, hi: float) -> list[float] | None:
    """Roots in [lo, hi] of a function known to be quadratic in t.

    Returns None when the residual vanishes identically (the caller should
    then sample the whole family instead of isolated roots).  An extremum
    that misses zero by at most 1e-12 (relative to the samples, at least 1)
    is a double (tangent) root: rounding gives its discriminant either sign.
    """
    mid = (lo + hi) / 2
    y0, y1, y2 = f(lo), f(mid), f(hi)
    h = hi - lo
    if h <= 0:
        return []
    # Lagrange coefficients in s = t - mid, which keeps them well conditioned
    a = 2 * (y0 - 2 * y1 + y2) / h**2
    b = (y2 - y0) / h
    c = y1
    scale = max(abs(y0), abs(y1), abs(y2), 1e-30)
    if abs(a) < 1e-12 * scale / max(h, 1e-12) ** 2 and abs(b) < 1e-12 * scale / max(h, 1e-12):
        # residual constant: identically zero ties everywhere, else no root
        return None if abs(c) <= 1e-11 * max(scale, 1.0) else []
    if abs(a) < 1e-14 and b != 0:
        roots = [-c / b]
    else:
        disc = b * b - 4 * a * c  # the extremum value is -disc / (4a)
        if abs(disc) <= 4 * abs(a) * 1e-12 * max(scale, 1.0):
            disc = 0.0
        elif disc < 0:
            return []
        roots = [(-b - np.sqrt(disc)) / (2 * a), (-b + np.sqrt(disc)) / (2 * a)]
    return [float(mid + r) for r in roots if lo - 1e-12 <= mid + r <= hi + 1e-12]


def _bracket_roots(f, lo: float, hi: float, samples: int = 17, iters: int = 80) -> list[float]:
    ts = np.linspace(lo, hi, samples)
    ys = [f(t) for t in ts]
    roots = []
    for i in range(samples - 1):
        if not np.isfinite(ys[i]) or not np.isfinite(ys[i + 1]):
            continue
        if ys[i] == 0.0:
            roots.append(float(ts[i]))
        if ys[i] * ys[i + 1] < 0:
            a, b = float(ts[i]), float(ts[i + 1])
            fa = ys[i]
            for _ in range(iters):
                m = (a + b) / 2
                fm = f(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append((a + b) / 2)
    if ys and np.isfinite(ys[-1]) and ys[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots


def _refine_continuum(
    env: GameEnvironment,
    lams,
    cont: Continuum,
    mode: str,
    d: Divergence,
    capacities,
    local_samples: int,
    seen_points: set | None = None,
):
    """Candidate points of a one-parameter solution family.

    Global mode with a two-partition support: roots of the dispersion-tie
    residual between the two support partitions (quadratic for the
    squared divergences, bracketing for KL).  Local mode: a sample sweep.
    Every returned candidate has passed cd_abee_verify.
    """
    mix_player = None
    for player in (0, 1):
        if len(lams[player].support) == 2:
            mix_player = player
    out = []
    seen = seen_points if seen_points is not None else set()

    def make_candidate(t):
        x = cont.base + t * cont.direction
        point_key = tuple(np.round(x / CANDIDATE_DEDUP_TOL).astype(np.int64))
        if point_key in seen:
            return None
        seen.add(point_key)
        profile = cont.build(t)
        cand = EquilibriumCandidate(lams, profile, mode, d)
        report = cd_abee_verify(env, cand, capacities)
        return cand if report.ok else None

    lo = cont.t_lo + 1e-12
    hi = cont.t_hi - 1e-12
    if hi <= lo:
        return out
    if mode == GLOBAL and mix_player is not None:
        part_a, part_b = lams[mix_player].support

        def residual(t):
            prof = cont.build(t)
            data = aggregate(prof, lams)[1 - mix_player]
            return dispersion(data, part_a, env.prior, d) - dispersion(
                data, part_b, env.prior, d
            )

        if d.kind == "kullback-leibler":
            roots = _bracket_roots(residual, lo, hi)
        else:
            roots = _quadratic_roots(residual, lo, hi)
        if roots is not None:
            for t in roots:
                cand = make_candidate(min(max(t, lo), hi))
                if cand is not None:
                    out.append(cand)
            return out
        # the tie holds along the whole family; fall through and sample it
    for t in np.linspace(lo, hi, local_samples):
        cand = make_candidate(float(t))
        if cand is not None:
            out.append(cand)
    return out


def cd_abee_search(
    env: GameEnvironment,
    capacities: tuple[int, int],
    mode: str,
    d: Divergence,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Layered search for clustered distributional equilibria.

    Layer 1 scans every degenerate partition pair exhaustively.  Layer 2
    scans two-partition supports for one player at a time against every
    degenerate partition of the other, with the mixture weight on a grid
    and free indifference weights resolved by tie root-finding.  All
    returned candidates verify; an empty result means "not found within
    budget", never nonexistence (except for the pure layer, which reports
    exhaustive refutation when it completes empty).
    """
    config = config or SearchConfig()
    result = SearchResult()
    seen: set = set()
    parts = tuple(list(partition_list(env.n_games, capacities[pl])) for pl in (0, 1))

    def collect(candidate: EquilibriumCandidate) -> bool:
        key = _candidate_key(candidate)
        if key in seen:
            return False
        seen.add(key)
        result.candidates.append(candidate)
        return True

    # layer 1: degenerate distributions (pure clustered equilibria)
    deadline = time.monotonic() + config.layer1_budget_s
    evaluations = 0
    found = 0
    completed = True
    for an0, an1 in itertools.product(parts[0], parts[1]):
        if time.monotonic() > deadline:
            completed = False
            break
        evaluations += 1
        for profile in abee_solve(env, (an0, an1), config.solve):
            cand = EquilibriumCandidate(degenerate_pair(an0, an1), profile, mode, d)
            if cd_abee_verify(env, cand, capacities).ok and collect(cand):
                found += 1
    result.layers.append(LayerReport("degenerate", completed, evaluations, found))

    # layer 2: one mixing side, two-partition support, lambda on a grid.
    # The sweep is weight-major with coarse grid multiples first, so every
    # branch sees the high-prior weights before any branch sees fine ones.
    deadline = time.monotonic() + config.layer2_budget_s
    grid = _lambda_grid(config.lambda_step)
    evaluations = 0
    found = 0
    completed = True
    branches = []
    for mix_player in (0, 1):
        # degenerate side ordered finest-first: a fully expressive opponent
        # is the common case in the applications
        others = sorted(parts[1 - mix_player], key=lambda p: -p.n_classes)
        for pair in itertools.combinations(parts[mix_player], 2):
            for other in others:
                branches.append((mix_player, pair, other))
    for w in grid:
        if not completed:
            break
        for mix_player, pair, other in branches:
            if time.monotonic() > deadline or len(result.candidates) >= config.max_candidates:
                completed = False
                break
            try:
                lam_mix = PartitionDistribution(pair, (w, round(1 - w, 12)))
            except ValueError:
                continue
            lam_other = PartitionDistribution.degenerate(other)
            lams = (lam_mix, lam_other) if mix_player == 0 else (lam_other, lam_mix)
            res = dist_abee_solve_detailed(env, lams, config.solve)
            evaluations += 1
            point_seen: set = set()
            for profile in res.profiles:
                cand = EquilibriumCandidate(lams, profile, mode, d)
                if cd_abee_verify(env, cand, capacities).ok and collect(cand):
                    found += 1
            for cont in res.continua:
                for cand in _refine_continuum(
                    env, lams, cont, mode, d, capacities, config.local_samples, point_seen
                ):
                    if collect(cand):
                        found += 1
    result.layers.append(LayerReport("pair-support", completed, evaluations, found))
    return result
