"""Clustered equilibria: verification and fixed-point search.

A candidate pairs a distribution over analogy partitions per player with a
strategy profile.  Verification checks the distributional equilibrium
conditions and that every support partition is clustered (locally, or a
dispersion minimizer) against the opponent's aggregate play.  The search
walks degenerate supports first, then two-partition supports for one player
with the mixture weight on a simplex grid, refining free mixing weights by
root-finding on the dispersion-tie condition.  The one-parameter families of
one solve are refined together: one batch of tie residuals (two `dispersion`
calls for the squared divergences), and one best-reply check of all their
candidate points before any is clustered.
"""

from __future__ import annotations

import itertools
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
    dist_abee_verify_batch,
    expected_payoffs,
    mixture,
    unstack_plays,
)
from .clustering import Divergence, dispersion, global_cluster, is_locally_clustered
from .env import SOLVER_TOL, GameEnvironment
from .partitions import Partition, partition_list

LOCAL = "local"
GLOBAL = "global"
CANDIDATE_DEDUP_TOL = 1e-7
LOCAL_SAMPLES = 9  # continuum samples kept per family where no tie is isolated


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


def _clustering_failures(env: GameEnvironment, candidate: EquilibriumCandidate, caps) -> list:
    """(player, partition, reason) for every support partition that is not
    clustered against the opponent aggregate."""
    lams = candidate.lams
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
    return failures


def cd_abee_verify(
    env: GameEnvironment,
    candidate: EquilibriumCandidate,
    capacities: tuple[int, int] | None = None,
) -> VerifyReport:
    """Distributional equilibrium check plus the clustering check of every
    support partition against the opponent aggregate."""
    caps = capacities or infer_capacities(candidate.lams)
    ok_br, gain, wit = dist_abee_verify(env, candidate.lams, candidate.profile)
    failures = _clustering_failures(env, candidate, caps)
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
    # solves for the whole search: layer 1 spends first, layer 2 gets the rest
    max_evaluations: int = 10_000
    solve: SolveConfig = field(default_factory=SolveConfig)
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


def _quadratic_roots(samples, lo: float, hi: float) -> list[float] | None:
    """Roots in [lo, hi] of a function known to be quadratic in t, from its
    values at lo, (lo + hi) / 2 and hi.

    Returns None when the residual vanishes identically (the caller should
    then sample the whole family instead of isolated roots).  An extremum
    that misses zero by at most 1e-12 (relative to the samples, at least 1)
    is a double (tangent) root: rounding gives its discriminant either sign.
    """
    mid = (lo + hi) / 2
    y0, y1, y2 = samples
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


def _bracket_roots(
    f, lo: np.ndarray, hi: np.ndarray, samples: int = 17, iters: int = 80
) -> list[list[float]]:
    """Roots of each of several functions c on [lo[c], hi[c]], in t order:
    the points of an even grid of `samples` where f is 0, and the sign
    changes between finite grid neighbours, each bisected `iters` times.

    f(c, t) evaluates the functions c at t (integer and float arrays of one
    shape); the grid is one call, and each bisection step one call for all
    brackets.  Returns one list of roots per function.
    """
    ts = np.linspace(lo, hi, samples, axis=1)
    ys = f(np.arange(len(lo))[:, None], ts)
    finite = np.isfinite(ys)
    pair = finite[:, :-1] & finite[:, 1:]
    y = np.where(finite, ys, 0.0)
    c, i = np.nonzero(pair & (y[:, :-1] * y[:, 1:] < 0))
    a, b, fa = ts[c, i], ts[c, i + 1], ys[c, i]
    for _ in range(iters if len(c) else 0):
        m = (a + b) / 2
        fm = f(c, m)
        left = fa * fm <= 0
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    # (function, 2 * grid index + 1 for a bracket, root), sorted into t order
    mids = ((a + b) / 2).tolist()
    events = [(cc, 2 * ii + 1, r) for cc, ii, r in zip(c.tolist(), i.tolist(), mids)]
    zc, zi = np.nonzero(np.concatenate([pair, finite[:, -1:]], axis=1) & (ys == 0.0))
    events += [(cc, 2 * ii, float(ts[cc, ii])) for cc, ii in zip(zc.tolist(), zi.tolist())]
    roots: list[list[float]] = [[] for _ in range(len(lo))]
    for cc, _, r in sorted(events):
        roots[cc].append(r)
    return roots


def _refine_continua(
    env: GameEnvironment,
    lams,
    continua: list[Continuum],
    mode: str,
    d: Divergence,
    capacities,
) -> list[EquilibriumCandidate]:
    """Candidate points of the one-parameter solution families of one solve.

    Each family is inset by 1e-12 at both ends.  Global mode with a
    two-partition support: roots of the dispersion-tie residual between the
    two support partitions, for every family at once (quadratic for the
    squared divergences, from samples at both ends and the middle;
    bracketing for KL).  Otherwise, or where the tie holds along the whole
    family, a sample sweep.  Points repeated across families are dropped;
    the rest are checked for best replies in one batch and then clustered
    in order.  Every returned candidate passes cd_abee_verify.
    """
    if not continua:
        return []
    supports, split = continua[0].supports, continua[0].plays
    mix_player = None
    for player in (0, 1):
        if len(lams[player].support) == 2:
            mix_player = player
    lo = np.array([c.t_lo for c in continua]) + 1e-12
    hi = np.array([c.t_hi for c in continua]) - 1e-12
    base = np.stack([c.base for c in continua])
    direction = np.stack([c.direction for c in continua])
    live = np.flatnonzero(hi > lo)
    roots: dict = {}  # family -> roots; None (or absent) means sweep the family
    if mode == GLOBAL and mix_player is not None and len(live):
        part_a, part_b = lams[mix_player].support
        data_player = 1 - mix_player

        def residual(fam, t):
            """Tie residual of families `fam` at t, from the non-mixing player's data."""
            plays = split(base[fam] + t[..., None] * direction[fam])[data_player]
            data = mixture(lams[data_player].weights, np.moveaxis(plays, -3, 0))
            return dispersion(data, part_a, env.prior, d) - dispersion(data, part_b, env.prior, d)

        if d.kind == "kullback-leibler":
            found = _bracket_roots(lambda c, t: residual(live[c], t), lo[live], hi[live])
        else:
            ts = np.stack([lo[live], (lo[live] + hi[live]) / 2, hi[live]], axis=1)
            samples = residual(live[:, None], ts)
            found = [_quadratic_roots(y, lo[c], hi[c]) for c, y in zip(live, samples)]
        roots = dict(zip(live.tolist(), found))
    points = []  # (family, t) in family order
    for c in live.tolist():
        if roots.get(c) is None:
            points += [(c, float(t)) for t in np.linspace(lo[c], hi[c], LOCAL_SAMPLES)]
        else:
            points += [(c, min(max(t, lo[c]), hi[c])) for t in roots[c]]
    if not points:
        return []
    fam = np.array([c for c, _ in points])
    x = base[fam] + np.array([t for _, t in points])[:, None] * direction[fam]
    seen, kept = set(), []
    for i, key in enumerate(np.round(x / CANDIDATE_DEDUP_TOL).astype(np.int64)):
        if key.tobytes() not in seen:
            seen.add(key.tobytes())
            kept.append(i)
    plays = split(x[kept])
    out = []
    for j in np.flatnonzero(dist_abee_verify_batch(env, lams, plays)[0]):
        profile = unstack_plays(supports, (plays[0][j], plays[1][j]))
        cand = EquilibriumCandidate(lams, profile, mode, d)
        if not _clustering_failures(env, cand, capacities):
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
    and free indifference weights resolved by tie root-finding.  The two
    layers share `config.max_evaluations` solves, layer 1 first; a layer
    that runs out stops with `completed=False`, so work and output do not
    depend on the speed of the machine.  All returned candidates verify;
    an empty result means "not found within its evaluation budget", never
    nonexistence (except for the pure layer, which reports exhaustive
    refutation when it completes empty).
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
    budget = config.max_evaluations
    evaluations = 0
    found = 0
    completed = True
    for an0, an1 in itertools.product(parts[0], parts[1]):
        if evaluations >= budget:
            completed = False
            break
        evaluations += 1
        # solved profiles pass dist_abee_verify already; only clustering is left
        for profile in abee_solve(env, (an0, an1), config.solve):
            cand = EquilibriumCandidate(degenerate_pair(an0, an1), profile, mode, d)
            if not _clustering_failures(env, cand, capacities) and collect(cand):
                found += 1
    result.layers.append(LayerReport("degenerate", completed, evaluations, found))

    # layer 2: one mixing side, two-partition support, lambda on a grid.
    # The sweep is weight-major with coarse grid multiples first, so every
    # branch sees the high-prior weights before any branch sees fine ones.
    budget -= evaluations
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
            if evaluations >= budget or len(result.candidates) >= config.max_candidates:
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
            for profile in res.profiles:
                cand = EquilibriumCandidate(lams, profile, mode, d)
                if not _clustering_failures(env, cand, capacities) and collect(cand):
                    found += 1
            for cand in _refine_continua(env, lams, res.continua, mode, d, capacities):
                if collect(cand):
                    found += 1
    result.layers.append(LayerReport("pair-support", completed, evaluations, found))
    return result
