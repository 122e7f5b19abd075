"""Analogy-based expectation equilibria for fixed or mixed partitions.

Consistency ties a player's per-class expectation to the prior-weighted
aggregate of the opponent's play: it is the class mean of that aggregate,
the clustering prototype, and comes from the one class-mean kernel
`clustering.class_prototypes`.  Best responses treat the class expectation
as the opponent's strategy in every game of the class.  The solver for
binary-action games enumerates regimes: per analogy class, where the class
expectation sits relative to the games' indifference thresholds ("pinned at
a threshold" or "strictly between two").  A player's regime fixes which of
its mixing weights are unknown, and so an affine map from them to the
opponent's class expectations, built once per regime.  The opponent's pins
and intervals are then checked against these maps as arrays, and the regime
pairs left are solved in batched Gauss-Jordan eliminations; it keeps every
profile that verifies and every one-parameter solution family.  Supports
are solved as a stream (`dist_abee_solve_many`) of (environment, support)
items, so one stream may mix environments: the pairs of consecutive
supports are stacked into runs of about `_PAIR_CHUNK` pairs and at most
`_RUN_SUPPORTS` supports, one elimination per map width and run, and each
support's result is the same as its solve alone
(`dist_abee_solve_detailed`).  A damped best-reply
iteration with multi-start is the fallback for larger action sets.

Verification takes a batch of profiles, each player's strategies stacked as
one (B, n_support, n_games, n_actions) array: `dist_abee_verify_batch`
checks them all at once, and `dist_abee_verify` is its one-profile case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .clustering import class_prototypes
from .env import GameEnvironment, SOLVER_TOL
from .partitions import Partition

EQ_TOL = 1e-10  # residual tolerance for the indifference systems
DEDUP_TOL = 1e-7  # solved profiles this close in every coordinate are one


@dataclass(frozen=True)
class PartitionDistribution:
    """Distribution over a player's analogy partitions (support + weights)."""

    partitions: tuple[Partition, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.partitions) != len(self.weights):
            raise ValueError("support and weights differ in length")
        if len(set(self.partitions)) != len(self.partitions):
            raise ValueError("support partitions must be distinct")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive on the support")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(self.weights)}")

    @staticmethod
    def degenerate(partition: Partition) -> "PartitionDistribution":
        return PartitionDistribution((partition,), (1.0,))

    @property
    def support(self) -> tuple[Partition, ...]:
        return self.partitions


@dataclass(frozen=True)
class StrategyProfile:
    """Per-player, per-partition, per-game mixed actions.

    plays[i][An] is an (n_games, n_actions_i) array; a single-partition
    profile is the degenerate case with one entry per player.
    """

    plays: tuple[dict[Partition, np.ndarray], dict[Partition, np.ndarray]]

    def single(self, player: int) -> np.ndarray:
        (strat,) = self.plays[player].values()
        return strat


def degenerate_pair(p0: Partition, p1: Partition):
    return (PartitionDistribution.degenerate(p0), PartitionDistribution.degenerate(p1))


def _strategies(profile: StrategyProfile, lam: PartitionDistribution, player: int) -> list:
    """One player's strategies, in support order."""
    strats = []
    for part in lam.support:
        if part not in profile.plays[player]:
            raise KeyError(f"profile missing strategy for player {player}, {part}")
        strats.append(np.asarray(profile.plays[player][part], dtype=float))
    return strats


def stack_plays(
    profile: StrategyProfile, lams: tuple[PartitionDistribution, PartitionDistribution]
) -> tuple[np.ndarray, np.ndarray]:
    """Each player's strategies as one (n_support, n_games, n_actions) array,
    in support order."""
    return np.array(_strategies(profile, lams[0], 0)), np.array(_strategies(profile, lams[1], 1))


def unstack_plays(supports, plays) -> StrategyProfile:
    """The profile whose strategies are the rows of `stack_plays`'s arrays."""
    return StrategyProfile(plays=tuple(dict(zip(supports[pl], plays[pl])) for pl in (0, 1)))


def mixture(weights, strats) -> np.ndarray:
    """Weighted sum of the strategies of the support partitions, strats[k]
    that of partition k, added from the left."""
    acc = weights[0] * strats[0]
    for k in range(1, len(weights)):
        acc = acc + weights[k] * strats[k]
    return acc


def aggregate(
    profile: StrategyProfile, lams: tuple[PartitionDistribution, PartitionDistribution]
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda-weighted mixture of per-partition strategies, per game."""
    return tuple(mixture(lams[pl].weights, _strategies(profile, lams[pl], pl)) for pl in (0, 1))


def expected_payoffs(env: GameEnvironment, player: int, expectations: np.ndarray) -> np.ndarray:
    """Payoff of each own pure action in each game, (..., n_games, n_actions),
    against per-game opponent mixtures (..., n_games, n_opponent_actions)."""
    return np.einsum("abg,...gb->...ga", env.payoffs[player], expectations)


def best_replies(pays: np.ndarray, tol: float, incumbent: np.ndarray | None = None) -> np.ndarray:
    """Per game, the uniform mix over the actions within `tol` of the best; a
    game keeps its `incumbent` row if that row puts at most `tol` off them."""
    replies = pays >= pays.max(axis=-1, keepdims=True) - tol
    mix = replies / replies.sum(axis=-1, keepdims=True)
    if incumbent is None:
        return mix
    keep = np.where(replies, 0.0, incumbent).sum(axis=-1) <= tol
    return np.where(keep[..., None], incumbent, mix)


def dist_abee_verify_batch(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    plays: tuple[np.ndarray, np.ndarray],
    tol: float = SOLVER_TOL,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Distributional equilibrium check of a batch of profiles.

    plays[i] holds player i's (B, n_support, n_games, n_actions) strategies
    in support order.  Consistent expectations are recomputed from the
    aggregates; per profile, the worst payoff gain any player gets by
    deviating in any game under any support partition (0.0 when none is
    positive), and its witness (player, partition, game): the first in
    player, support and class-major game order to attain it, or None.
    Returns (ok, worst, witnesses).
    """
    aggs = [mixture(lams[pl].weights, plays[pl].swapaxes(0, 1)) for pl in (0, 1)]
    blocks, owners = [], []
    for player in (0, 1):
        for pi, part in enumerate(lams[player].support):
            beta = class_prototypes(aggs[1 - player], part, env.prior)
            pays = expected_payoffs(env, player, beta[..., list(part.assignment()), :])
            order = list(itertools.chain.from_iterable(part.classes))
            gains = pays.max(axis=-1) - (plays[player][:, pi] * pays).sum(axis=-1)
            blocks.append(gains[:, order])
            owners.append((player, part, order))
    gains = np.concatenate(blocks, axis=1)  # n_games columns per (player, partition)
    best = gains.max(axis=1)
    worst = np.where(best > 0.0, best, 0.0)
    witnesses = []
    for i, b in zip(gains.argmax(axis=1).tolist(), best.tolist()):
        player, part, order = owners[i // env.n_games]
        witnesses.append((player, part, order[i % env.n_games]) if b > 0.0 else None)
    return worst <= tol, worst, witnesses


def dist_abee_verify(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    profile: StrategyProfile,
    tol: float = SOLVER_TOL,
) -> tuple[bool, float, tuple | None]:
    """Check the distributional equilibrium conditions on a profile: the
    one-profile case of `dist_abee_verify_batch`, as (ok, worst gain,
    witness)."""
    plays = stack_plays(profile, lams)
    ok, worst, witnesses = dist_abee_verify_batch(env, lams, (plays[0][None], plays[1][None]), tol)
    return bool(ok[0]), float(worst[0]), witnesses[0]


@dataclass
class SolveConfig:
    seed: int = 0
    max_iterations: int = 100_000
    n_starts: int = 32
    max_regimes: int = 500_000


@dataclass
class Continuum:
    """A one-parameter family of solutions of one indifference system.

    x(t) = base + t * direction over t in [t_lo, t_hi].  `plays` maps points
    (..., V) to each player's (..., n_support, n_games, n_actions)
    strategies in the order of `supports`; build(t) assembles the strategy
    profile (not yet verified).  The continua of one solve share `supports`
    and `plays`.
    """

    base: np.ndarray
    direction: np.ndarray
    t_lo: float
    t_hi: float
    supports: tuple[tuple[Partition, ...], tuple[Partition, ...]]
    plays: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def build(self, t: float) -> StrategyProfile:
        return unstack_plays(self.supports, self.plays(self.base + t * self.direction))


@dataclass
class SolveResult:
    profiles: list[StrategyProfile] = field(default_factory=list)
    continua: list[Continuum] = field(default_factory=list)
    exhausted: bool = False  # True when the regime budget cut the enumeration
    exact: bool = True  # False when the damped iteration, a heuristic, found the profiles


# ---------------------------------------------------------------------------
# support enumeration for binary-action games
# ---------------------------------------------------------------------------


def _threshold_info(env: GameEnvironment, player: int, game: int):
    """Indifference threshold of a binary-action game in the opponent's
    action-0 probability q.

    Returns (kind, t, action_above, action_below):
      kind 'threshold' with t in [0,1]; 'constant' with the strict action in
      t; or 'free' when the player is indifferent at every q.
    """
    u = env.payoff_slice(player, game)
    g = u[0, 1] - u[1, 1]
    h = (u[0, 0] - u[1, 0]) - g
    if abs(h) < 1e-14:
        if abs(g) < 1e-14:
            return ("free", None, None, None)
        return ("constant", 0 if g > 0 else 1, None, None)
    t = -g / h
    if t < -1e-12 or t > 1 + 1e-12:
        mid = 0.5
        return ("constant", 0 if g + h * mid > 0 else 1, None, None)
    # action optimal above/below the threshold
    above = 0 if h > 0 else 1
    return ("threshold", min(max(t, 0.0), 1.0), above, 1 - above)


def _class_positions(env: GameEnvironment, player: int, cls: tuple[int, ...]):
    """Candidate placements of one class expectation.

    Each position fixes, per game of the class, either a strict action or
    "indifferent", together with the constraint on the class expectation q:
    an equality (pin at a threshold) or an interval.
    """
    infos = {g: _threshold_info(env, player, g) for g in cls}
    free_games = [g for g in cls if infos[g][0] == "free"]
    consts = {g: infos[g][1] for g in cls if infos[g][0] == "constant"}
    thr_games = [(g, infos[g]) for g in cls if infos[g][0] == "threshold"]
    ts = sorted({round(info[1], 14) for _, info in thr_games})
    positions = []

    def actions_at(q, pin=None):
        acts = dict(consts)
        indiff = list(free_games)
        for g, (_, t, above, below) in thr_games:
            if pin is not None and abs(t - pin) <= 1e-12:
                indiff.append(g)
            elif q > t:
                acts[g] = above
            else:
                acts[g] = below
        return acts, indiff

    edges = [0.0] + ts + [1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-12:
            continue
        mid = (lo + hi) / 2
        acts, indiff = actions_at(mid)
        positions.append(("interval", lo, hi, acts, indiff))
    for t in ts:
        acts, indiff = actions_at(t, pin=t)
        positions.append(("pin", t, t, acts, indiff))
    return positions


@dataclass(frozen=True)
class _Regimes:
    """Every regime of one player: a position for each class of each support
    partition, in `itertools.product` order.

    Own variables are the action-0 masses x[pi * n_games + g]; slots are the
    (support partition, class) pairs in support and class order.
    """

    fixed: np.ndarray  # (R, V) mass of the strict variables, 0 at unknowns
    unknown: np.ndarray  # (R, V) bool: the indifferent (mixing) variables
    pinned: np.ndarray  # (R, S) bool: the class expectation sits at a threshold
    lo: np.ndarray  # (R, S) bounds on the class expectation, lo == hi at a pin
    hi: np.ndarray
    slot_classes: tuple[tuple[int, ...], ...]


def _side_regimes(env: GameEnvironment, support: tuple[Partition, ...], player: int) -> _Regimes:
    n_games = env.n_games
    n_vars = len(support) * n_games
    slot_classes, tables = [], []
    for pi, part in enumerate(support):
        for cls in part.classes:
            positions = _class_positions(env, player, cls)
            fixed = np.zeros((len(positions), n_vars))
            unknown = np.zeros((len(positions), n_vars), dtype=bool)
            for k, (_, _, _, acts, indiff) in enumerate(positions):
                for g, act in acts.items():
                    fixed[k, pi * n_games + g] = 1.0 if act == 0 else 0.0
                unknown[k, [pi * n_games + g for g in indiff]] = True
            bounds = np.array([(kind == "pin", lo, hi) for kind, lo, hi, _, _ in positions])
            slot_classes.append(cls)
            tables.append((fixed, unknown, bounds))
    # row-major indices run through the product with the last slot fastest
    choice = np.indices([len(t[0]) for t in tables]).reshape(len(tables), -1)
    bounds = np.stack([t[2][c] for t, c in zip(tables, choice)], axis=1)
    return _Regimes(
        fixed=sum(t[0][c] for t, c in zip(tables, choice)),  # each variable has one slot
        unknown=np.logical_or.reduce([t[1][c] for t, c in zip(tables, choice)]),
        pinned=bounds[..., 0] > 0,
        lo=bounds[..., 1],
        hi=bounds[..., 2],
        slot_classes=tuple(slot_classes),
    )


_REGIME_CACHE: dict[tuple, _Regimes] = {}


def _side_regimes_cached(env: GameEnvironment, lams, player: int) -> _Regimes:
    key = (env.fingerprint(), player, lams[player].support)
    if key not in _REGIME_CACHE:
        if len(_REGIME_CACHE) > 4096:
            _REGIME_CACHE.clear()
        _REGIME_CACHE[key] = _side_regimes(env, lams[player].support, player)
    return _REGIME_CACHE[key]


def _sum_left(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis from the left, starting at 0.0, which rounds as
    a scalar accumulation loop does; `ndarray.sum` promises no order."""
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total


class _AffineMaps(NamedTuple):
    """Per regime of the block player, the map q = a @ x_u + b from its
    unknowns to the opponent's class expectations, one row per opponent slot."""

    a: np.ndarray  # (R, S, width)
    b: np.ndarray  # (R, S)
    columns: np.ndarray  # (R, width) variable of each unknown column, V for padding
    valid: np.ndarray  # (R, width) bool: the column is one of the regime's unknowns


def _affine_maps(env: GameEnvironment, weights, own: _Regimes, slot_classes) -> _AffineMaps:
    """Column u of a belongs to the regime's u-th unknown in variable order;
    regimes with fewer unknowns get zero columns.  b adds the strict
    variables' terms from the left, in (game, support partition) order."""
    n_games = env.n_games
    n_regimes, n_vars = own.unknown.shape
    coef = np.zeros((len(slot_classes), n_vars + 1))
    order = np.full((len(slot_classes), n_games * len(weights)), n_vars)
    for s, cls in enumerate(slot_classes):
        pcls = sum(env.prior[g] for g in cls)
        terms = [pi * n_games + g for g in cls for pi in range(len(weights))]
        order[s, : len(terms)] = terms
        for g in cls:
            for pi, w in enumerate(weights):
                coef[s, pi * n_games + g] = env.prior[g] * w / pcls
    fixed = np.concatenate([own.fixed, np.zeros((n_regimes, 1))], axis=1)
    b = _sum_left(np.take_along_axis(coef, order, axis=1) * fixed[:, order])
    n_unknowns = own.unknown.sum(axis=1)
    width = int(n_unknowns.max())
    columns = np.argsort(~own.unknown, axis=1, kind="stable")[:, :width]
    valid = np.arange(width) < n_unknowns[:, None]
    columns[~valid] = n_vars
    return _AffineMaps(coef[:, columns].transpose(1, 0, 2), b, columns, valid)


def _eliminate(aug: np.ndarray, n_cols: int) -> np.ndarray:
    """Gauss-Jordan elimination, in place, of augmented systems (B, m, n_cols + 1).

    Each column pivots on the first row (in swapped order, kept as an index)
    of largest magnitude above 1e-11 among the rows not yet pivoted, then
    clears the rows whose entry exceeds 1e-14: the scalar routine's steps, so
    results are bit-identical to it.  Rows that take no part must be all zero
    and come last.  Returns each column's pivot row, -1 where it is free.
    """
    batch, m = aug.shape[:2]
    at = np.arange(batch)
    rows = np.arange(m)
    order = np.repeat(rows[None], batch, axis=0)  # swapped position -> row
    used = np.zeros(batch, dtype=np.intp)
    pivot_row = np.full((batch, n_cols), -1)
    for c in range(n_cols):
        col = aug[:, :, c]
        mag = np.where(rows >= used[:, None], np.abs(col[at[:, None], order]), 0.0)
        pick = mag.argmax(axis=1)
        has = mag[at, pick] > 1e-11
        r = np.minimum(used, m - 1)
        pick = np.where(has, pick, r)
        order[at, r], order[at, pick] = order[at, pick], order[at, r]
        row = order[at, r]
        prow = aug[at, row] / np.where(has, col[at, row], 1.0)[:, None]
        aug[at, row] = prow
        hit = has[:, None] & (rows != row[:, None]) & (np.abs(col) > 1e-14)
        np.subtract(aug, col[:, :, None] * prow[:, None, :], out=aug, where=hit[..., None])
        pivot_row[has, c] = row[has]
        used += has
    return pivot_row


_PAIR_CHUNK = 512  # regime pairs solved per batch, and per run of supports
_RUN_SUPPORTS = 32  # supports per run, when each keeps few pairs


def _outside(q, pinned, lo, hi) -> np.ndarray:
    """Whether any unpinned class expectation leaves its interval."""
    return (~pinned & ((q < lo - 1e-9) | (q > hi + 1e-9))).any(axis=-1)


def _solve_pairs(maps, bounds, own_idx, opp_idx):
    """One player's unknowns solved against the opponent regime of each pair.

    maps holds the (a, b, valid) of `_AffineMaps` for the player's regimes,
    and bounds the (pinned, lo, hi) of the opponent's.  The equations are
    the opponent's pins on classes the unknowns move, in slot order.
    Returns per pair (ok, feasible, n_free, x, direction): ok fails on
    inconsistent equations, or on a failed interval with no free unknown;
    free unknowns sit at 0.5 in x; direction spans the null space where
    exactly one is free; feasible adds that x is a mix within every
    interval.
    """
    a_map, b, valid = maps
    pinned, lo, hi = bounds
    n, width = len(own_idx), a_map.shape[2]
    ok = np.ones(n, dtype=bool)
    feasible = np.zeros(n, dtype=bool)
    n_free = valid[own_idx].sum(axis=1)
    x = np.full((n, width), 0.5)
    direction = np.zeros((n, width))
    for start in range(0, n, _PAIR_CHUNK):
        part = slice(start, start + _PAIR_CHUNK)
        a_part, b_part, k = a_map[own_idx[part]], b[own_idx[part]], opp_idx[part]
        mix = np.flatnonzero(n_free[part] > 0) + start
        if len(mix):
            a_mix, at = a_map[own_idx[mix]], np.arange(len(mix))[:, None]
            active = pinned[opp_idx[mix]] & (np.abs(a_mix) > 1e-14).any(axis=2)
            order = np.argsort(~active, axis=1, kind="stable")
            rhs = lo[opp_idx[mix]] - b[own_idx[mix]]
            aug = np.concatenate([a_mix[at, order], rhs[at, order][..., None]], axis=2)
            aug[~active[at, order]] = 0.0
            pivot_row = _eliminate(aug, width)
            pivoted = pivot_row >= 0
            is_pivot = (pivot_row[:, None, :] == np.arange(aug.shape[1])[:, None]).any(axis=2)
            free = ~pivoted & valid[own_idx[mix]]
            free_terms = np.where(free[:, None], aug[:, :, :width] * 0.5, 0.0)
            back = aug[:, :, width] - _sum_left(free_terms)
            fc = free.argmax(axis=1)
            line = np.where(pivoted, -aug[at, np.maximum(pivot_row, 0), fc[:, None]], 0.0)
            line[at[:, 0], fc] = 1.0
            line[free.sum(axis=1) != 1] = 0.0
            ok[mix] = ~(~is_pivot & (np.abs(aug[:, :, width]) > EQ_TOL)).any(axis=1)
            n_free[mix] = free.sum(axis=1)
            x[mix] = np.where(pivoted, back[at, np.maximum(pivot_row, 0)], 0.5)
            direction[mix] = line
        q = b_part + _sum_left(a_part * x[part, None, :])
        outside = _outside(q, pinned[k], lo[k], hi[k])
        inside = (((x[part] >= -1e-9) & (x[part] <= 1 + 1e-9)) | ~valid[own_idx[part]]).all(axis=1)
        ok[part] &= ~(outside & (n_free[part] == 0))
        feasible[part] = inside & ~outside
    return ok, feasible, n_free, x, direction


def _place(base: np.ndarray, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of base with values written at columns; the dummy column
    base.shape[1] absorbs padding."""
    out = np.concatenate([base, np.zeros((len(base), 1))], axis=1)
    out[np.arange(len(base))[:, None], columns] = values
    return out[:, :-1]


class _Support(NamedTuple):
    """One support's environment, regimes, affine maps and kept regime
    pairs, held until its run is solved; pairs[p] is (own regimes, opponent
    regimes) of side p."""

    env: GameEnvironment
    lams: tuple[PartitionDistribution, PartitionDistribution]
    sides: tuple[_Regimes, _Regimes]
    maps: tuple[_AffineMaps, _AffineMaps]
    pairs: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _regime_pairs(env: GameEnvironment, lams, sides) -> _Support:
    """The regime pairs of one support left for the solve.

    The pins of one side constrain only the other side's variables, so
    each half solves on its own.  Checks on the affine maps alone come
    first: a pin on a class that no unknown moves, and an interval that q's
    range over the box x_u in [0, 1]^width misses beyond the solve's
    tolerances.  Pins get no range test: plays clip unknowns into the box,
    and a clipped point may verify.  Only pairs passing both are kept.
    """
    maps, direct = [], []
    for p in (0, 1):
        own, opp = sides[p], sides[1 - p]
        m = _affine_maps(env, lams[p].weights, own, opp.slot_classes)
        unmoved = ~(np.abs(m.a) > 1e-14).any(axis=2)
        bad_pin = opp.pinned & unmoved[:, None] & (np.abs(m.b[:, None] - opp.lo) > 1e-9)
        slack = 1e-9 * (1.0 + np.abs(m.a).sum(axis=2))[:, None]
        q_lo = (m.b + np.minimum(m.a, 0.0).sum(axis=2))[:, None]
        q_hi = (m.b + np.maximum(m.a, 0.0).sum(axis=2))[:, None]
        misses = ~opp.pinned & ((q_hi < opp.lo - slack) | (q_lo > opp.hi + slack))
        maps.append(m)
        direct.append(~(bad_pin | misses).any(axis=2))
    c0, c1 = np.nonzero(direct[0] & direct[1].T)  # c0-major
    return _Support(env, lams, sides, tuple(maps), ((c0, c1), (c1, c0)))


def _stacked(tables: list[np.ndarray], n_slots: int, fill) -> np.ndarray:
    """Regime tables (R, S, ...) one after another, their slots padded to
    n_slots with fill; a lone table is returned as it is."""
    if len(tables) == 1:
        return tables[0]
    out = np.full((sum(len(t) for t in tables), n_slots) + tables[0].shape[2:], fill, dtype=tables[0].dtype)
    at = 0
    for t in tables:
        out[at : at + len(t), : t.shape[1]] = t
        at += len(t)
    return out


def _solve_run(run: list[_Support]) -> list[list[tuple]]:
    """`_solve_pairs` of both sides of every support of a run, per support
    and side.

    The sides of one map width are stacked into one call: their regime
    tables one after another, the opponent slots padded to the largest
    count with zero rows of the maps and unpinned slots on (-inf, inf),
    which take no part in the elimination or the interval checks, so each
    pair solves as it would alone.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, sup in enumerate(run):
        for p in (0, 1):
            groups.setdefault(sup.maps[p].a.shape[2], []).append((i, p))
    sols = [[None, None] for _ in run]
    for members in groups.values():
        maps = [run[i].maps[p] for i, p in members]
        opps = [run[i].sides[1 - p] for i, p in members]
        pairs = [run[i].pairs[p] for i, p in members]
        n_slots = max(m.a.shape[1] for m in maps)
        own_at = itertools.accumulate((len(m.b) for m in maps), initial=0)
        opp_at = itertools.accumulate((len(o.lo) for o in opps), initial=0)
        solved = _solve_pairs(
            (_stacked([m.a for m in maps], n_slots, 0.0), _stacked([m.b for m in maps], n_slots, 0.0),
             np.concatenate([m.valid for m in maps])),
            (_stacked([o.pinned for o in opps], n_slots, False), _stacked([o.lo for o in opps], n_slots, -np.inf),
             _stacked([o.hi for o in opps], n_slots, np.inf)),
            np.concatenate([own + at for (own, _), at in zip(pairs, own_at)]),
            np.concatenate([opp + at for (_, opp), at in zip(pairs, opp_at)]),
        )
        start = 0
        for (i, p), end in zip(members, itertools.accumulate(len(own) for own, _ in pairs)):
            sols[i][p] = tuple(arr[start:end] for arr in solved)
            start = end
    return sols


def _assemble(sup: _Support, sols) -> SolveResult:
    """One support's result from its two sides' solved pairs: the profiles
    that verify, deduplicated, and the one-parameter families."""
    result = SolveResult()
    env, lams, sides, maps = sup.env, sup.lams, sup.sides, sup.maps
    keep = sols[0][0] & sols[1][0]
    own = [sup.pairs[p][0][keep] for p in (0, 1)]
    feasible, n_free, xs, directions = ([sol[i][keep] for sol in sols] for i in range(1, 5))
    x = np.concatenate(
        [_place(sides[p].fixed[own[p]], maps[p].columns[own[p]], xs[p]) for p in (0, 1)], axis=1
    )
    supports, n0 = (lams[0].support, lams[1].support), len(lams[0].support)

    def split_plays(x):
        """Points (..., V) as each player's (..., n_support, n_games, 2) mixes."""
        act0 = np.clip(x, 0.0, 1.0)
        mixes = np.stack([act0, 1.0 - act0], axis=-1)
        mixes = mixes.reshape(x.shape[:-1] + (n0 + len(supports[1]), env.n_games, 2))
        return mixes[..., :n0, :, :], mixes[..., n0:, :, :]

    rows = np.flatnonzero(feasible[0] & feasible[1])
    plays = split_plays(x[rows])
    verified = dist_abee_verify_batch(env, lams, plays)[0]
    seen = set()
    for j in np.flatnonzero(verified):
        key_r = tuple(np.round(x[rows[j]] / DEDUP_TOL).astype(np.int64))
        if key_r not in seen:
            seen.add(key_r)
            result.profiles.append(unstack_plays(supports, (plays[0][j], plays[1][j])))

    # one free unknown in all, and the rigid side feasible: a one-parameter
    # family x + t * direction, cut to [0, 1] in every variable it moves
    line = (n_free[0] + n_free[1] == 1) & np.where(n_free[0] == 1, feasible[1], feasible[0])
    base = x[line]
    direction = np.concatenate(
        [
            _place(np.zeros((len(base), sides[p].fixed.shape[1])), maps[p].columns[rows], d[line])
            for p, (rows, d) in enumerate(zip((own[0][line], own[1][line]), directions))
        ],
        axis=1,
    )
    moves = np.abs(direction) > 1e-14
    step = np.where(moves, direction, 1.0)
    b0, b1 = (0.0 - base) / step, (1.0 - base) / step
    t_lo = np.where(moves, np.where(b1 < b0, b1, b0), -np.inf).max(axis=1, initial=-np.inf)
    t_hi = np.where(moves, np.where(b1 > b0, b1, b0), np.inf).min(axis=1, initial=np.inf)
    for i in np.flatnonzero(t_lo < t_hi - 1e-12):
        result.continua.append(
            Continuum(base[i], direction[i], float(t_lo[i]), float(t_hi[i]), supports, split_plays)
        )
    return result


def _solved(run: list[_Support]) -> Iterator[SolveResult]:
    """The results of a run's supports, in order, from one `_solve_run`."""
    for sup, sols in zip(run, _solve_run(run)):
        yield _assemble(sup, sols)


# ---------------------------------------------------------------------------
# damped best-reply iteration (general action sets)
# ---------------------------------------------------------------------------


def _damped_iteration(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    config: SolveConfig,
) -> list[StrategyProfile]:
    rng = np.random.default_rng(config.seed)
    found: list[StrategyProfile] = []
    keys = set()
    for start in range(config.n_starts):
        plays: tuple[dict, dict] = ({}, {})
        for player in (0, 1):
            n_act = env.n_actions(player)
            for part in lams[player].support:
                if start == 0:
                    strat = np.full((env.n_games, n_act), 1.0 / n_act)
                else:
                    strat = rng.dirichlet(np.ones(n_act), size=env.n_games)
                plays[player][part] = strat
        profile = StrategyProfile(plays=plays)
        for _ in range(config.max_iterations):
            aggs = aggregate(profile, lams)
            new_plays: tuple[dict, dict] = ({}, {})
            delta = 0.0
            for player in (0, 1):
                opp = aggs[1 - player]
                for part in lams[player].support:
                    beta = class_prototypes(opp, part, env.prior)
                    pays = expected_payoffs(env, player, beta[list(part.assignment())])
                    old = profile.plays[player][part]
                    new = 0.5 * old + 0.5 * best_replies(pays, 1e-12)
                    delta = max(delta, float(np.abs(new - old).max()))
                    new_plays[player][part] = new
            profile = StrategyProfile(plays=new_plays)
            if delta < 1e-9:
                break
        okv, _, _ = dist_abee_verify(env, lams, profile)
        if okv:
            flat = np.concatenate(
                [profile.plays[p][part].ravel() for p in (0, 1) for part in lams[p].support]
            )
            key = tuple(np.round(flat / DEDUP_TOL).astype(np.int64))
            if key not in keys:
                keys.add(key)
                found.append(profile)
    return found


def dist_abee_solve_many(
    items: Iterable[tuple[GameEnvironment, tuple[PartitionDistribution, PartitionDistribution]]],
    config: SolveConfig | None = None,
) -> Iterator[SolveResult]:
    """Distributional equilibrium search of each (environment, support)
    item, lazily, one `SolveResult` per item in order; keeps one-parameter
    families.

    Each item carries its own environment, so one stream may mix them.
    Binary-action items go through exact support enumeration: a support's
    regime pairs are kept until its run is solved, a run being the next
    consecutive supports whose pairs reach `_PAIR_CHUNK`, or `_RUN_SUPPORTS`
    of them when each keeps few pairs, and the pairs of a run are solved
    together (`_solve_run`), with the same result for each support as
    alone.  Other shapes, and binary supports over `config.max_regimes`,
    use the damped iteration (each step moves halfway to the best replies,
    until no strategy moves by 1e-9) in their place in the stream, which
    may miss equilibria and is reported as not `exact`.  Every returned
    profile verifies.  Families whose moving side cannot meet an opponent
    interval inside the box are not returned.
    """
    config = config or SolveConfig()
    run, n_pairs = [], 0
    for env, lams in items:
        binary = env.n_actions(0) == 2 and env.n_actions(1) == 2
        sides = (_side_regimes_cached(env, lams, 0), _side_regimes_cached(env, lams, 1)) if binary else None
        enumerated = binary and len(sides[0].lo) * len(sides[1].lo) <= config.max_regimes
        if enumerated:
            run.append(_regime_pairs(env, lams, sides))
            n_pairs += len(run[-1].pairs[0][0])
        if not enumerated or n_pairs >= _PAIR_CHUNK or len(run) >= _RUN_SUPPORTS:
            yield from _solved(run)
            run, n_pairs = [], 0
        if not enumerated:
            yield SolveResult(profiles=_damped_iteration(env, lams, config), exhausted=binary, exact=False)
    yield from _solved(run)


def dist_abee_solve_detailed(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    config: SolveConfig | None = None,
) -> SolveResult:
    """The one-item case of `dist_abee_solve_many`."""
    return next(dist_abee_solve_many([(env, lams)], config))


def abee_solve(
    env: GameEnvironment,
    partitions: tuple[Partition, Partition],
    config: SolveConfig | None = None,
) -> list[StrategyProfile]:
    """Equilibria for one fixed analogy partition per player."""
    return dist_abee_solve_detailed(env, degenerate_pair(*partitions), config).profiles
