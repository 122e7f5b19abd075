"""Clustered equilibria: verification and fixed-point search.

A candidate pairs a distribution over analogy partitions per player with a
strategy profile.  Verification checks the distributional equilibrium
conditions and that every support partition is clustered (locally, or a
dispersion minimizer) against the opponent's aggregate play, for a batch
of profiles at once (`cd_abee_verify_batch`; `cd_abee_verify` is its
one-candidate case); a batch may hold rows of different supports of one
shape (`abee.RowSupports`), each checked against its own.  The search walks
degenerate supports first, then two-partition supports for one player with
the mixture weight on a simplex grid, in one loop body that consumes one
support's result at a time.  The results come from one lazy stream per
layer (`dist_abee_solve_runs`, cut at the solves left), a run of supports
at a time, and each run is refined at once (`_refine_run`): the solves of
one shape have their families covered together, the best replies of the
cover points checked together, and all their profiles and points admitted
by one batched clustering check, read as stacked strategies off the
results' arrays; a candidate's `StrategyProfile` is built only once it is
admitted.  Family points are the isolated roots of the global
dispersion-tie condition for a mixing support, and the family's ends where
the tie holds; every other family (any support, either mode) is cut at the
roots of the margins of the check, and yields the cuts and the points
between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .abee import (
    _PAIR_CHUNK,
    PartitionDistribution,
    RowSupports,
    SolveResult,
    StrategyProfile,
    _distinct,
    aggregate,
    best_replies,
    class_payoffs,
    degenerate_pair,
    dist_abee_solve_runs,
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
    dispersion,
    dispersion_minimizers,
    global_cluster_batch,
    local_margins,
    local_witnesses,
    partition_dispersions,
    subset_table,
)
from .env import SOLVER_TOL, GameEnvironment, common_prior
from .partitions import Partition, class_masks, partition_list

LOCAL = "local"
GLOBAL = "global"
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
    for `cd_abee_verify_batch`), in player and support order.  lams is the
    support pair of every row, or the `RowSupports` of the rows, each
    checked against its own.  Global mode needs a dispersion minimizer
    among the partitions with at most the player's capacity of classes, so
    a support partition with more fails.

    envs is the environment of every row, or a sequence of the rows'
    environments, which may differ: the check reads only the prior, so
    environments whose priors differ raise ValueError.
    """
    prior = common_prior(envs)
    rows = RowSupports.of(lams, len(plays[0]))
    failures: list[list] = [[] for _ in plays[0]]
    for player in (0, 1):
        cap = capacities[player]
        data = mixture(rows.weights(1 - player), plays[1 - player].swapaxes(0, 1))
        if mode == GLOBAL:
            held, _ = dispersion_minimizers(data, prior, cap, d)
        for k in range(plays[player].shape[1]):
            if mode == GLOBAL:
                own = rows.list_indices(player, k, cap)  # -1 past the capacity, which never wins
                won = (own >= 0) & held[np.arange(len(own)), own]
                fails = [(b, "not a dispersion minimizer") for b in np.flatnonzero(~won).tolist()]
            else:
                protos, labels = rows.prototypes(data, player, k, prior)
                witnesses = local_witnesses(data, labels, prior, d, protos)
                fails = [(b, f"game {w[0]} is closer to class {w[1]}") for b, w in enumerate(witnesses) if w]
            for b, reason in fails:
                failures[b].append((player, rows.pairs[rows.owner[b]][player].support[k], reason))
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


def _chunks(n: int, size: int = _PAIR_CHUNK) -> list[slice]:
    """Slices of at most `size` rows that cover n rows: a pass over them one
    at a time bounds its temporaries as the solver's passes are bounded."""
    return [slice(start, start + size) for start in range(0, n, size)]


def _padded(lists) -> np.ndarray:
    """Lists of floats as the rows of an array, NaN past each list's end."""
    out = np.full((len(lists), max(map(len, lists), default=0)), np.nan)
    for row, values in zip(out, lists):
        row[: len(values)] = values
    return out


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
    (local, 0 past the partition's classes).  lams is the support pair of
    every row, or the `RowSupports` of the rows, each of which reads its
    own partitions' class means (`RowSupports.prototypes`, once per support
    partition).  The aggregate is affine along a family, the mixture
    weights being fixed, so the payoff differences are affine and, under
    the squared divergences, the margins quadratic."""
    rows = RowSupports.of(lams, len(plays[0]))
    at = np.arange(len(plays[0]))
    cols = []
    for player in (0, 1):
        data = mixture(rows.weights(1 - player), plays[1 - player].swapaxes(0, 1))
        if mode == GLOBAL:
            masks = class_masks(env.n_games, capacities[player])
            disp = partition_dispersions(subset_table(data, env.prior, d), masks)
        for k in range(plays[player].shape[1]):
            beta, labels = rows.prototypes(data, player, k, env.prior)
            pays = expected_payoffs(env, player, beta[at[:, None], labels])
            cols.append((pays[..., :, None] - pays[..., None, :]).reshape(len(data), -1))
            if mode == GLOBAL:
                # less the support partition's own row, so an equal row's margin is exactly 0
                cols.append((disp - disp[rows.list_indices(player, k, capacities[player]), at]).T)
            else:
                # padded to the most classes of any support's, whichever rows are taken
                local = local_margins(data, labels, env.prior, d, beta)[0]
                most = max(pair[player].support[k].n_classes for pair in rows.pairs)
                cols.append(np.pad(local, ((0, 0), (0, 0), (0, most - local.shape[2]))).reshape(len(data), -1))
    return np.concatenate(cols, axis=1)


def _cover(env: GameEnvironment, supports: list, results: list[SolveResult], mode: str, d: Divergence, capacities):
    """(N, V) points of the one-parameter solution families of solves of
    one shape (each solve's `continua` over its `spans`, of the support of
    the same index), and the (N,) solve of each, in solve and family order,
    each family inset by FAMILY_INSET at both ends.

    In global mode with a two-partition support, a family whose
    dispersion-tie residual has isolated roots yields them, and each end
    where the residual is within TIE_TOL (the clustering check's tolerance,
    which a tangent root just past the end would miss): the tie is the one
    margin that must vanish.  Every other family is cut at the roots of
    `_check_margins` and yields its ends, the cuts and the midpoint between
    each two neighbours, which meet every stretch where the check's verdict
    is constant.  The roots are fitted quadratics under the squared
    divergences (one `_quadratic_roots` call for all ties, one for the
    margins of each chunk of families whose samples fill at most
    `_PAIR_CHUNK` rows) and bracketed (`_bracket_roots`) under KL, where one
    grid cell can hide two.  Each family's residual and margins read its
    own solve's support (`RowSupports`).  A support partition over capacity is
    never a dispersion minimizer, so in global mode the families of its
    solve yield nothing.  Points repeated across the families of one solve
    are dropped.
    """
    owner = np.repeat(np.arange(len(results)), [len(res.continua) for res in results])
    continua = np.concatenate([res.continua for res in results])
    spans = np.concatenate([res.spans for res in results])
    family_supports, plays = RowSupports(supports, owner), results[0].plays
    mix_player = next((pl for pl in (0, 1) if len(supports[0][pl].support) == 2), None)
    lo = spans[:, 0] + FAMILY_INSET
    hi = spans[:, 1] - FAMILY_INSET
    base, direction = continua[:, 0], continua[:, 1]
    over = [mode == GLOBAL and any(p.n_classes > cap for lam, cap in zip(lams, capacities) for p in lam.support)
            for lams in supports]
    live = np.flatnonzero((hi > lo) & ~np.array(over)[owner])
    tie = mode == GLOBAL and mix_player is not None
    ts = np.stack([lo, (lo + hi) / 2, hi], axis=1)  # both ends and the middle

    def at(fam, t):
        """Stacked plays of families `fam` at t, flattened, and their supports."""
        fam, t = (a.ravel() for a in np.broadcast_arrays(fam, t))
        return plays(base[fam] + t[:, None] * direction[fam]), family_supports.take(fam)

    def margins(fam, t):
        """`_check_margins` of families `fam` at t, (..., m)."""
        (play, on), shape = at(fam, t), np.broadcast_shapes(np.shape(fam), np.shape(t))
        return _check_margins(env, on, play, mode, d, capacities).reshape(shape + (-1,))

    def residual(fam, t):
        """Tie residual of families `fam` at t, from the non-mixing player's data."""
        (play, on), shape = at(fam, t), np.broadcast_shapes(np.shape(fam), np.shape(t))
        data = mixture(on.weights(1 - mix_player), play[1 - mix_player].swapaxes(0, 1))
        part_a, part_b = (dispersion(data, on.labels(mix_player, k), env.prior, d) for k in (0, 1))
        return (part_a - part_b).reshape(shape)

    def cuts(part):
        """The roots of the margins of the families `part` of the cover, NaN-padded rows."""
        if d.kind == KULLBACK_LEIBLER:
            m = margins(part[:1], lo[part[:1]]).shape[-1]

            def margin(c, t):
                """Margin c % m of family part[c // m] at t, each (family, t) evaluated once."""
                fam, col = np.divmod(c, m)
                fam, col, t = np.broadcast_arrays(fam, col, t)
                key, inv = np.unique(np.stack([fam.ravel(), t.ravel()]), axis=1, return_inverse=True)
                values = margins(part[key[0].astype(np.int64)], key[1])
                return values[inv.ravel(), col.ravel()].reshape(t.shape)

            found = _bracket_roots(margin, np.repeat(lo[part], m), np.repeat(hi[part], m))
            return _padded(found).reshape(len(part), -1)
        samples = margins(part[:, None], ts[part]).transpose(0, 2, 1)
        return _quadratic_roots(samples, lo[part, None], hi[part, None])[0].reshape(len(part), -1)

    # a tied family yields its end where the tie holds, its isolated roots in
    # order, and its other end where the tie holds; the others are the cover
    tied, tie_roots, cover, near = live[:0], np.zeros((0, 0)), live, np.zeros((0, 2), dtype=bool)
    if tie and len(live) and d.kind == KULLBACK_LEIBLER:
        tied, cover = live, live[:0]
        tie_roots = _padded(_bracket_roots(lambda c, t: residual(live[c], t), lo[live], hi[live]))
        near = abs(residual(live[:, None], ts[live][:, [0, 2]])) <= TIE_TOL
    elif tie and len(live):
        samples = residual(live[:, None], ts[live])
        found, vanishing = _quadratic_roots(samples, lo[live], hi[live])
        tied, tie_roots, cover = live[~vanishing], found[~vanishing], live[vanishing]
        near = abs(samples[~vanishing][:, [0, 2]]) <= TIE_TOL
    ties = np.column_stack([lo[tied], tie_roots, hi[tied]])
    tie_fam, tie_rank = np.nonzero(np.column_stack([near[:, 0], tie_roots == tie_roots, near[:, 1]]))
    fam, rank, t = [tied[tie_fam]], [tie_rank], [ties[tie_fam, tie_rank]]
    # a family of the cover yields its ends and its distinct cuts, sorted, and
    # the midpoint of each two neighbours; the families are cut in chunks
    # whose three samples each take at most _PAIR_CHUNK rows of margins
    for part in (cover[rows] for rows in _chunks(len(cover), _PAIR_CHUNK // 3)):
        ends = np.sort(np.column_stack([lo[part], hi[part], cuts(part)]), axis=1)  # NaN (no root) last
        new = ends == ends  # below, the first of equal values
        new[:, 1:] &= ends[:, 1:] != ends[:, :-1]
        row, col = np.nonzero(new)
        ends, place = ends[row, col], 2 * (np.arange(len(row)) - np.searchsorted(row, row))
        mid = np.flatnonzero(row[1:] == row[:-1])  # an end and the next of its family
        fam += [part[row], part[row[mid]]]
        rank += [place, place[mid] + 1]
        t += [ends, (ends[mid] + ends[mid + 1]) / 2]
    fam, rank, t = (np.concatenate(parts) for parts in (fam, rank, t))
    order = np.lexsort((rank, fam))  # family order, each family's points in order
    fam, t = fam[order], t[order]
    x = direction[fam] * np.minimum(np.maximum(t, lo[fam]), hi[fam])[:, None]
    x += base[fam]  # base + t * direction, one temporary fewer
    kept = _distinct(owner[fam], x)
    return x[kept], owner[fam][kept]


def _refine_run(env: GameEnvironment, supports: list, results: list[SolveResult], mode: str, d: Divergence,
                capacities) -> list[list[EquilibriumCandidate]]:
    """The candidates of each solve of a run, in run order: its profiles
    (whose best replies hold), then the points of its families' cover whose
    best replies hold, that pass the clustering check, keeping the first
    of those whose plays agree to DEDUP_TOL (`abee._distinct`).

    The solves of one shape (support sizes per player, and variables) go
    together, each row under its own solve's support (`RowSupports`): one
    `_cover` of all their families, one best-reply check
    (`dist_abee_verify_batch`) of its points and one clustering check
    (`unclustered`) of all their profiles and points, each per
    `_PAIR_CHUNK` rows, which bounds their temporaries, and one dedup.
    """
    found: list[list[EquilibriumCandidate]] = [[] for _ in results]
    shapes: dict[tuple, list[int]] = {}
    for i, (lams, res) in enumerate(zip(supports, results)):
        shapes.setdefault((len(lams[0].support), len(lams[1].support), res.profiles.shape[1]), []).append(i)
    for members in shapes.values():
        pairs, solves = [supports[i] for i in members], [results[i] for i in members]
        x = np.concatenate([res.profiles for res in solves])
        owner = np.repeat(np.arange(len(solves)), [len(res.profiles) for res in solves])
        if any(len(res.continua) for res in solves):
            points, at = _cover(env, pairs, solves, mode, d, capacities)
            held = np.zeros(len(points), dtype=bool)
            for rows in _chunks(len(points)):
                supports_at = RowSupports(pairs, at[rows])
                held[rows] = dist_abee_verify_batch(env, supports_at, solves[0].plays(points[rows]))[0]
            x, owner = np.concatenate([x, points[held]]), np.concatenate([owner, at[held]])
        order = np.argsort(owner, kind="stable")  # each solve's profiles, then its points
        x, owner = x[order], owner[order]
        plays = solves[0].plays(x)
        kept = []
        for rows in _chunks(len(x)):
            at_rows = (plays[0][rows], plays[1][rows])
            fails = unclustered(env, RowSupports(pairs, owner[rows]), at_rows, mode, d, capacities)
            kept += [rows.start + b for b, f in enumerate(fails) if not f]
        kept = np.array(kept, dtype=np.intp)
        if len(kept) > 1:
            kept = kept[_distinct(owner[kept], np.concatenate([play[kept].reshape(len(kept), -1) for play in plays], 1))]
        admitted = [play[kept] for play in plays]  # the candidates keep only their own rows alive
        for o, play0, play1 in zip(owner[kept].tolist(), *admitted):
            lams = pairs[o]
            profile = unstack_plays((lams[0].support, lams[1].support), (play0, play1))
            found[members[o]].append(EquilibriumCandidate(lams, profile, mode, d))
    return found


def _refined(env: GameEnvironment, supports, mode: str, d: Divergence, capacities):
    """(result, candidates) of each support, in order, lazily: solved
    (`dist_abee_solve_runs`) and refined (`_refine_run`) a run at a time."""
    supports, solving = itertools.tee(supports)
    for run in dist_abee_solve_runs((env, lams) for lams in solving):
        yield from zip(run, _refine_run(env, list(itertools.islice(supports, len(run))), run, mode, d, capacities))


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
    Both layers run one loop body over the layer's supports: each takes its
    result and candidates from the layer's stream, which solves and refines
    a whole run of supports at once (`_refined`: `dist_abee_solve_runs`,
    then `_refine_run`), dropping each solve's repeated candidates; no two
    solves share a support and weights, so no candidate set is kept across
    the search.  The two layers share `config.max_evaluations` solves,
    layer 1 first, and a layer's stream is cut at the solves left; a layer
    that runs out, or reaches `config.max_candidates` (checked before each
    result is taken), stops with `completed=False`, so work and output do
    not depend on the speed of the machine.  A layer stopped by
    `max_candidates` can leave the rest of its run solved and refined and
    unused, with `evaluations` unchanged: in local matching pennies, layer 2
    solves and refines its first run of 32 supports for the 1 solve it
    uses.  A damped-iteration solve is a run of its own, computed only when
    it is reached.  A layer with a solve that was not exact
    (`SolveResult.exact`) also reports `completed=False`, since it may have
    missed equilibria.  All returned candidates verify; an empty result
    means "not found within its evaluation budget", never nonexistence
    (except for the pure layer, which reports exhaustive refutation when it
    completes empty having covered every family exactly).
    """
    config = config or SearchConfig()
    result = SearchResult()
    parts = tuple(partition_list(env.n_games, capacities[pl]) for pl in (0, 1))
    # the degenerate side of layer 2 ordered finest-first, since a fully
    # expressive opponent is the common case in the applications
    finest_first = tuple(sorted(parts[pl], key=lambda p: -p.n_classes) for pl in (0, 1))

    def mixed(w, mix_player, pair, other):
        lam_mix = PartitionDistribution(pair, (w, round(1 - w, 12)))
        lam_other = PartitionDistribution.degenerate(other)
        return (lam_mix, lam_other) if mix_player == 0 else (lam_other, lam_mix)

    # layer 2 is weight-major with coarse grid multiples first, so every
    # branch (a pair of one player's partitions against one of the other's,
    # built only when taken) sees the high-prior weights before any branch
    # sees fine ones
    layers = (
        ("degenerate", (degenerate_pair(an0, an1) for an0, an1 in itertools.product(*parts))),
        ("pair-support", (mixed(w, mix, pair, other) for w in _lambda_grid(config.lambda_step) for mix in (0, 1)
                          for pair in itertools.combinations(parts[mix], 2) for other in finest_first[1 - mix])),
    )
    budget = config.max_evaluations
    for name, supports in layers:
        evaluations = found = 0
        completed = True
        todo, solving = itertools.tee(itertools.islice(supports, budget))
        refined = _refined(env, solving, mode, d, capacities)
        for _ in todo:
            if len(result.candidates) >= config.max_candidates:
                completed = False
                break
            res, cands = next(refined)
            evaluations += 1
            completed &= res.exact  # a heuristic solve may have missed equilibria
            if name == "degenerate" and d.kind == KULLBACK_LEIBLER:
                result.sampled_pure_families += len(res.continua)
            result.candidates += cands
            found += len(cands)
        else:
            completed &= next(supports, None) is None  # a support past the budget is left
        budget -= evaluations
        result.layers.append(LayerReport(name, completed, evaluations, found))
    return result
