"""Clustered equilibria: verification and fixed-point search.

A candidate pairs a distribution over analogy partitions per player with a
strategy profile.  Verification checks the distributional equilibrium
conditions and that every support partition is clustered (locally, or a
dispersion minimizer) against the opponent's aggregate play, for a batch
of profiles at once (`cd_abee_verify_batch`; `cd_abee_verify` is its
one-candidate case).  The search walks degenerate supports first, then
two-partition supports for one player with the mixture weight on a simplex
grid, in one loop body: each support's solve is pulled from one lazy
stream per layer (`dist_abee_solve_many`, cut at the solves left), and its
profiles and the points of its one-parameter solution families, read as
stacked strategies off the result's arrays, are admitted by one batched
clustering check; a candidate's `StrategyProfile` is built only once it is
admitted.  Family points are the isolated roots of the global
dispersion-tie condition for a mixing support, and the family's ends where
the tie holds; every other family (any support, either mode) is cut at the
roots of the margins of the check, and yields the cuts and the points
between them, found for all families of one solve together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .abee import (
    PartitionDistribution,
    SolveConfig,
    SolveResult,
    StrategyProfile,
    aggregate,
    best_replies,
    class_payoffs,
    degenerate_pair,
    dist_abee_solve_many,
    dist_abee_verify_batch,
    expected_payoffs,
    mixture,
    stack_plays,
    unstack_plays,
)
from .clustering import (
    KULLBACK_LEIBLER,
    TIE_TOL,
    Divergence,
    class_prototypes,
    dispersion,
    global_cluster_batch,
    local_margins,
    local_witnesses,
    partition_dispersions,
    subset_table,
)
from .env import SOLVER_TOL, GameEnvironment, common_prior
from .numeric import first_rows
from .partitions import Partition, assignment_rows, class_masks, partition_list

LOCAL = "local"
GLOBAL = "global"
CANDIDATE_DEDUP_TOL = 1e-7
FAMILY_INSET = 1e-12  # a family is refined on [t_lo + FAMILY_INSET, t_hi - FAMILY_INSET]


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


def unclustered(envs, lams, plays, mode: str, d: Divergence, capacities) -> list[list]:
    """(player, partition, reason) for every support partition that is not
    clustered against the opponent aggregate, per row of stacked plays (as
    for `cd_abee_verify_batch`), in player and support order.  Global mode
    needs a dispersion minimizer among the partitions with at most the
    player's capacity of classes, so a support partition with more fails.

    envs is the environment of every row, or a sequence of the rows'
    environments, which may differ: the check reads only the prior, so
    environments whose priors differ raise ValueError.
    """
    prior = common_prior(envs)
    failures: list[list] = [[] for _ in plays[0]]
    for player in (0, 1):
        data = mixture(lams[1 - player].weights, plays[1 - player].swapaxes(0, 1))
        support = lams[player].support
        if mode == GLOBAL:
            winners, _ = global_cluster_batch(data, prior, capacities[player], d)
            for fails, won in zip(failures, winners):
                fails += [(player, part, "not a dispersion minimizer") for part in support if part not in won]
        else:
            for part in support:
                for fails, witness in zip(failures, local_witnesses(data, part, prior, d)):
                    if witness is not None:
                        fails.append((player, part, f"game {witness[0]} is closer to class {witness[1]}"))
    return failures


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
    data = np.asarray(data, dtype=float)[None]
    if mode == GLOBAL:
        return global_cluster_batch(data, env.prior, capacity, d)[0][0]
    parts = partition_list(env.n_games, capacity)
    return [part for part in parts if local_witnesses(data, part, env.prior, d)[0] is None]


def cd_abee_verify_batch(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    plays: tuple[np.ndarray, np.ndarray],
    mode: str,
    d: Divergence,
    capacities: tuple[int, int] | None = None,
) -> list[VerifyReport]:
    """Clustered-equilibrium check of a batch of profiles, one report each.

    plays[i] holds player i's (B, n_support, n_games, n_actions) strategies
    in support order.  `dist_abee_verify_batch` checks the best replies, and
    every support partition is clustered against the opponent aggregates of
    all profiles at once.  Clustering failures are (player, partition,
    reason), in player and support order.
    """
    caps = capacities or infer_capacities(lams)
    ok, worst, witnesses = dist_abee_verify_batch(env, lams, plays)
    failures = unclustered(env, lams, plays, mode, d, caps)
    return [
        VerifyReport(bool(ok[b]) and not fails, float(worst[b]), witnesses[b], fails)
        for b, fails in enumerate(failures)
    ]


def cd_abee_verify(
    env: GameEnvironment,
    candidate: EquilibriumCandidate,
    capacities: tuple[int, int] | None = None,
) -> VerifyReport:
    """Distributional equilibrium check plus the clustering check of every
    support partition against the opponent aggregate: the one-candidate
    case of `cd_abee_verify_batch`."""
    lams, plays = candidate.lams, stack_plays(candidate.profile, candidate.lams)
    batch = (plays[0][None], plays[1][None])
    return cd_abee_verify_batch(env, lams, batch, candidate.mode, candidate.divergence, capacities)[0]


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


def grand_map_contains(
    env: GameEnvironment,
    candidate: EquilibriumCandidate,
    capacities: tuple[int, int] | None = None,
) -> bool:
    """Whether the state belongs to its own successor set.

    Support-based check: every played action (mass above 1e-9) is a best
    reply to the consistent expectations, and every support partition is
    clustering admissible.  Equivalent to the verification route, by
    construction of the mapping.
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
            replies = best_replies(class_payoffs(env.payoffs[player], aggs[1 - player], part, env.prior), SOLVER_TOL)
            if (strat[replies == 0] > 1e-9).any():
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
    # families of degenerate pairs covered under KL, whose margins are
    # bracketed on a grid where one cell can hide two roots: an empty pure
    # layer then refutes nothing
    sampled_pure_families: int = 0

    @property
    def pure_exhaustively_refuted(self) -> bool:
        """True when the degenerate layer finished with no pure candidate,
        having solved every pair exactly and covered all of its families."""
        for rep in self.layers:
            if rep.name == "degenerate":
                return rep.completed and rep.found == 0 and not self.sampled_pure_families
        return False


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


def _quadratic_roots(samples, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots in [lo, hi] of functions known to be quadratic in t, from their
    (..., 3) values at lo, (lo + hi) / 2 and hi (lo and hi broadcast to the
    leading shape): (..., 2) roots, NaN where there are fewer, and the
    mask of the functions that vanish identically.

    An extremum that misses zero by at most 1e-12 (relative to the samples,
    at least 1) is a double (tangent) root: rounding gives its discriminant
    either sign.  Squares are taken by Python's float power (libm pow), as
    the per-function routine this replaces took them; numpy's h * h can
    differ in the last bit.
    """
    y0, y1, y2 = np.moveaxis(np.asarray(samples, dtype=float), -1, 0)
    mid, h = (lo + hi) / 2, hi - lo
    square = np.reshape([v**2 for v in h.ravel().tolist()], h.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Lagrange coefficients in s = t - mid, which keeps them well conditioned
        a, b, c = 2 * (y0 - 2 * y1 + y2) / square, (y2 - y0) / h, y1
        scale = np.maximum(np.maximum(np.maximum(abs(y0), abs(y1)), abs(y2)), 1e-30)
        unit = np.maximum(scale, 1.0)
        wide = np.where(h > 1e-12, square, 1e-12**2)  # max(h, 1e-12) ** 2
        flat = (h <= 0) | (abs(a) < 1e-12 * scale / wide) & (abs(b) < 1e-12 * scale / np.maximum(h, 1e-12))
        vanishing = flat & (h > 0) & (abs(c) <= 1e-11 * unit)
        disc = b * b - 4 * a * c  # the extremum value is -disc / (4a)
        disc = np.where(abs(disc) <= 4 * abs(a) * 1e-12 * unit, 0.0, disc)
        # (-b -+ sqrt(disc)) / 2a, each through q = -(b + sign(b) sqrt(disc)) / 2
        # so that no root loses its digits to cancellation when a is small
        q = np.where(b < 0, -(b - np.sqrt(disc)) / 2, -(b + np.sqrt(disc)) / 2)
        roots = np.where((b < 0)[..., None], np.stack([c / q, q / a], -1), np.stack([q / a, c / q], -1))
        roots[q == 0] = 0.0  # b = 0 and disc = 0, so c = 0: a double root at mid
        linear = (abs(a) < 1e-14) & (b != 0)
        roots[linear] = np.stack([-c / b, np.full(c.shape, np.nan)], -1)[linear]
        roots[flat | ~linear & (disc < 0)] = np.nan
    t = mid[..., None] + roots
    return np.where(((lo - 1e-12)[..., None] <= t) & (t <= (hi + 1e-12)[..., None]), t, np.nan), vanishing


def _bracket_roots(f, lo: np.ndarray, hi: np.ndarray) -> list[list[float]]:
    """Roots of each of several functions c on [lo[c], hi[c]], in t order:
    the points of an even grid of 17 where f is 0, and the sign changes
    between finite grid neighbours, each bisected 80 times.

    f(c, t) evaluates the functions c at t (integer and float arrays of one
    shape); the grid is one call, and each bisection step one call for all
    brackets.  Returns one list of roots per function.
    """
    ts = np.linspace(lo, hi, 17, axis=1)
    ys = f(np.arange(len(lo))[:, None], ts)
    finite = np.isfinite(ys)
    pair = finite[:, :-1] & finite[:, 1:]
    y = np.where(finite, ys, 0.0)
    c, i = np.nonzero(pair & (y[:, :-1] * y[:, 1:] < 0))
    a, b, fa = ts[c, i], ts[c, i + 1], ys[c, i]
    for _ in range(80 if len(c) else 0):
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


def _check_margins(env: GameEnvironment, lams, plays, mode: str, d: Divergence, capacities) -> np.ndarray:
    """(B, m) functions of each row of stacked plays whose signs decide its
    clustered-equilibrium check, for each player and each of its one or two
    support partitions, against the opponent's aggregate: the payoff
    difference of every two actions in every game (which decide the best
    replies, the supports of the strategies being fixed inside a family),
    and the margins of the clustering test, which passes where none is below
    zero: the dispersion of every partition with at most the player's
    capacity of classes less the support partition's (global), or each
    game's divergence to every class prototype less that to its own class's
    (local).  The aggregate is affine along a family, the mixture weights
    being fixed, so the payoff differences are affine and, under the
    squared divergences, the margins quadratic."""
    cols = []
    for player in (0, 1):
        data = mixture(lams[1 - player].weights, plays[1 - player].swapaxes(0, 1))
        if mode == GLOBAL:
            masks = class_masks(env.n_games, capacities[player])
            disp = partition_dispersions(subset_table(data, env.prior, d), masks)
        for part in lams[player].support:
            beta = class_prototypes(data, part, env.prior)
            pays = expected_payoffs(env, player, beta[:, list(part.assignment())])
            cols.append((pays[..., :, None] - pays[..., None, :]).reshape(len(data), -1))
            if mode == GLOBAL:
                # less the support partition's own row, so an equal row's margin is exactly 0
                cols.append((disp - disp[assignment_rows([part.assignment()], capacities[player])]).T)
            else:
                cols.append(local_margins(data, part, env.prior, d, beta)[0].reshape(len(data), -1))
    return np.concatenate(cols, axis=1)


def _cover(env: GameEnvironment, lams, res: SolveResult, mode: str, d: Divergence, capacities):
    """(N, V) points of the one-parameter solution families of one solve
    (`res.continua` over `res.spans`), in family order, each family inset by
    FAMILY_INSET at both ends.

    In global mode with a two-partition support, a family whose
    dispersion-tie residual has isolated roots yields them, and each end
    where the residual is within TIE_TOL (the clustering check's tolerance,
    which a tangent root just past the end would miss): the tie is the one
    margin that must vanish.  Every other family is cut at the roots of
    `_check_margins` and yields its ends, the cuts and the midpoint between
    each two neighbours, which meet every stretch where the check's verdict
    is constant.  The roots are fitted quadratics under the squared
    divergences (one `_quadratic_roots` call for all ties, one for all
    margins) and bracketed (`_bracket_roots`) under KL, where one grid cell
    can hide two.  A support partition over capacity is never a dispersion
    minimizer, so in global mode its families yield nothing.  Points
    repeated across families are dropped.
    """
    mix_player = next((pl for pl in (0, 1) if len(lams[pl].support) == 2), None)
    lo = res.spans[:, 0] + FAMILY_INSET
    hi = res.spans[:, 1] - FAMILY_INSET
    base, direction = res.continua[:, 0], res.continua[:, 1]
    live = np.flatnonzero(hi > lo)
    if not len(live) or mode == GLOBAL and any(
        p.n_classes > cap for lam, cap in zip(lams, capacities) for p in lam.support
    ):
        return base[:0]
    tie = mode == GLOBAL and mix_player is not None
    ts = np.stack([lo, (lo + hi) / 2, hi], axis=1)  # both ends and the middle

    def margins(fam, t):
        """`_check_margins` of families `fam` at t, (..., m)."""
        fam, t = np.broadcast_arrays(fam, t)
        at = res.plays(base[fam.ravel()] + t.ravel()[:, None] * direction[fam.ravel()])
        return _check_margins(env, lams, at, mode, d, capacities).reshape(t.shape + (-1,))

    def residual(fam, t):
        """Tie residual of families `fam` at t, from the non-mixing player's data."""
        plays = res.plays(base[fam] + t[..., None] * direction[fam])[1 - mix_player]
        data = mixture(lams[1 - mix_player].weights, np.moveaxis(plays, -3, 0))
        part_a, part_b = lams[mix_player].support
        return dispersion(data, part_a, env.prior, d) - dispersion(data, part_b, env.prior, d)

    roots: dict = {}  # family -> the points it yields
    cover = live  # the families cut at their margins' roots
    if tie and d.kind == KULLBACK_LEIBLER:
        found = _bracket_roots(lambda c, t: residual(live[c], t), lo[live], hi[live])
        at_ends = residual(live[:, None], ts[live][:, [0, 2]])
        roots = dict(zip(live.tolist(), found))
        cover = live[:0]
    elif tie:
        samples = residual(live[:, None], ts[live])
        found, vanishing = _quadratic_roots(samples, lo[live], hi[live])
        at_ends = samples[:, [0, 2]]
        kept = ~vanishing  # below, t == t drops the NaN of a missing root
        roots = {c: [t for t in r if t == t] for c, r in zip(live[kept].tolist(), found[kept].tolist())}
        cover = live[vanishing]
    if tie:
        for c, (at_lo, at_hi) in zip(live.tolist(), (abs(at_ends) <= TIE_TOL).tolist()):
            if c in roots:
                roots[c] = [lo[c]] * at_lo + roots[c] + [hi[c]] * at_hi
    cuts: list = []  # the roots of the margins of each family of the cover
    if len(cover) and d.kind == KULLBACK_LEIBLER:
        m = margins(cover[:1], lo[cover[:1]]).shape[-1]

        def margin(c, t):
            """Margin c % m of family cover[c // m] at t, each (family, t) evaluated once."""
            fam, col = np.divmod(c, m)
            fam, col, t = np.broadcast_arrays(fam, col, t)
            key, inv = np.unique(np.stack([fam.ravel(), t.ravel()]), axis=1, return_inverse=True)
            values = margins(cover[key[0].astype(np.int64)], key[1])
            return values[inv.ravel(), col.ravel()].reshape(t.shape)

        found = _bracket_roots(margin, np.repeat(lo[cover], m), np.repeat(hi[cover], m))
        cuts = [sum(found[k * m : (k + 1) * m], []) for k in range(len(cover))]
    elif len(cover):
        samples = margins(cover[:, None], ts[cover]).transpose(0, 2, 1)
        found, _ = _quadratic_roots(samples, lo[cover, None], hi[cover, None])
        # a margin that vanishes identically cuts nowhere
        cuts = [[t for t in r if t == t] for r in found.reshape(len(cover), -1).tolist()]
    for c, found in zip(cover.tolist(), cuts):
        ends = sorted({lo[c], hi[c], *found})
        roots[c] = sorted(ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])])
    points = []  # (family, t) in family order
    for c in live.tolist():
        points += [(c, min(max(t, lo[c]), hi[c])) for t in roots.get(c, ())]
    fam = np.array([c for c, _ in points], dtype=np.int64)
    x = base[fam] + np.array([t for _, t in points])[:, None] * direction[fam]
    return x[first_rows(np.round(x / CANDIDATE_DEDUP_TOL).astype(np.int64))]


def _refine_continua(env: GameEnvironment, lams, res: SolveResult, mode: str, d: Divergence, capacities):
    """Candidates of one solve, in order: its profiles (whose best replies
    hold), then the points of its families' `_cover` whose best replies
    hold, all through one clustering check (`_admitted`)."""
    plays = res.plays(res.profiles)
    points = _cover(env, lams, res, mode, d, capacities) if len(res.continua) else ()
    if len(points):
        at = res.plays(points)
        held = dist_abee_verify_batch(env, lams, at)[0]
        plays = [np.concatenate([p, q[held]]) for p, q in zip(plays, at)]
    return _admitted(env, lams, plays, mode, d, capacities)


def _admitted(env: GameEnvironment, lams, plays, mode: str, d: Divergence, capacities) -> list:
    """The candidates among stacked plays (as for `cd_abee_verify_batch`)
    whose best replies are known to hold that pass the clustering check, in
    batch order, keeping the first of those whose plays agree to
    CANDIDATE_DEDUP_TOL."""
    if not len(plays[0]):
        return []
    kept = [b for b, fails in enumerate(unclustered(env, lams, plays, mode, d, capacities)) if not fails]
    if len(kept) > 1:
        flat = np.concatenate([play[kept].reshape(len(kept), -1) for play in plays], axis=1)
        kept = np.array(kept)[first_rows(np.round(flat / CANDIDATE_DEDUP_TOL).astype(np.int64))]
    supports = (lams[0].support, lams[1].support)
    return [EquilibriumCandidate(lams, unstack_plays(supports, (plays[0][b], plays[1][b])), mode, d) for b in kept]


def cd_abee_search(
    env: GameEnvironment,
    capacities: tuple[int, int],
    mode: str,
    d: Divergence,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Layered search for clustered distributional equilibria.

    Layer 1 scans every degenerate partition pair exhaustively, with each
    pair's one-parameter solution families, which the squared divergences
    cover exactly and KL up to its bracketing grid (counted in
    `sampled_pure_families`).  Layer 2 scans two-partition supports for one
    player at a time against every degenerate partition of the other, with
    the mixture weight on a grid and its families covered by `_cover`.
    Both layers run one loop body: each support's solve is pulled from
    the layer's stream of solves, and its profiles and family points are
    admitted by one clustering check, which drops the solve's repeated
    candidates; no two solves share a support and weights, so no candidate
    set is kept across the search.  The two layers share
    `config.max_evaluations` solves, layer 1 first, and a layer's stream is
    cut at the solves left; a layer that runs out, or reaches
    `config.max_candidates` (checked before each result is pulled), stops
    with `completed=False`, so work and output do not depend on the speed
    of the machine.  A stream solves a whole run of supports at once, so a
    layer stopped by `max_candidates` can leave the rest of its run solved
    and unused, with `evaluations` unchanged: in local matching pennies,
    layer 2 solves its first run for the 1 solve it uses.  A layer
    with a solve that was not exact (`SolveResult.exact`) also reports
    `completed=False`, since it may have missed equilibria.  All returned candidates verify; an empty
    result means "not found within its evaluation budget", never
    nonexistence (except for the pure layer, which reports exhaustive
    refutation when it completes empty having covered every family
    exactly).
    """
    config = config or SearchConfig()
    result = SearchResult()
    parts = tuple(partition_list(env.n_games, capacities[pl]) for pl in (0, 1))
    # layer 2 branches: the degenerate side ordered finest-first, since a
    # fully expressive opponent is the common case in the applications
    branches = [
        (mix_player, pair, other)
        for mix_player in (0, 1)
        for pair in itertools.combinations(parts[mix_player], 2)
        for other in sorted(parts[1 - mix_player], key=lambda p: -p.n_classes)
    ]

    def mixed(w, mix_player, pair, other):
        lam_mix = PartitionDistribution(pair, (w, round(1 - w, 12)))
        lam_other = PartitionDistribution.degenerate(other)
        return (lam_mix, lam_other) if mix_player == 0 else (lam_other, lam_mix)

    # layer 2 is weight-major with coarse grid multiples first, so every
    # branch sees the high-prior weights before any branch sees fine ones
    layers = (
        ("degenerate", (degenerate_pair(an0, an1) for an0, an1 in itertools.product(*parts))),
        ("pair-support", (mixed(w, *b) for w in _lambda_grid(config.lambda_step) for b in branches)),
    )
    budget = config.max_evaluations
    for name, supports in layers:
        evaluations = found = 0
        completed = True
        todo, solving = itertools.tee(itertools.islice(supports, budget))
        results = dist_abee_solve_many(((env, lams) for lams in solving), config.solve)
        for lams in todo:
            if len(result.candidates) >= config.max_candidates:
                completed = False
                break
            res = next(results)
            evaluations += 1
            completed &= res.exact  # a heuristic solve may have missed equilibria
            if name == "degenerate" and d.kind == KULLBACK_LEIBLER:
                result.sampled_pure_families += len(res.continua)
            # solved profiles pass dist_abee_verify already; only clustering is left
            cands = _refine_continua(env, lams, res, mode, d, capacities)
            result.candidates += cands
            found += len(cands)
        else:
            completed &= next(supports, None) is None  # a support past the budget is left
        budget -= evaluations
        result.layers.append(LayerReport(name, completed, evaluations, found))
    return result
