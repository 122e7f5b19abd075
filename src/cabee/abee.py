"""Analogy-based expectation equilibria for fixed or mixed partitions.

Consistency ties a player's per-class expectation to the prior-weighted
aggregate of the opponent's play: it is the class mean of that aggregate,
the clustering prototype, and comes from the one class-mean kernel
`clustering.class_prototypes` (`clustering.row_prototypes` for a batch
whose rows have different supports, with the same means bit for bit; a
batch's rows read them through `clustering.labelled_prototypes`).  Best
responses treat the class expectation as the opponent's strategy in every
game of the class, and `class_payoffs` is the one kernel of the payoffs
they compare, which verification applies to each row's own class means.
The solver for binary-action games enumerates regimes: per analogy class,
where the class expectation sits relative to the games' indifference
thresholds ("pinned at a threshold" or "strictly between two").  A player's
regime fixes which of its mixing weights are unknown, and so an affine map
from them to the opponent's class expectations.  The opponent's pins and
intervals are then checked against these maps as arrays, and the regime
pairs left are solved in batched Gauss-Jordan eliminations; it keeps every
profile that verifies and every one-parameter solution family.  Supports
are solved as a stream (`dist_abee_solve_runs`, which yields each run's
results together) of (environment, support) items, so one stream may mix
environments, in runs of `_RUN_SUPPORTS` consecutive items, and each stage
works on a whole run: the regime tables of the run's distinct sides are
built in one pass from each player's threshold arrays (`_side_regimes`),
the affine maps and range tests in one pass per map width (`_map_group`),
the eliminations in one pass per map width (`_solve_batch`, in chunks of
`_PAIR_CHUNK` pairs), and the assembly, best-reply check included, in one
pass per support shape (`_assemble`).  Each support's result is the same as
its solve alone (`dist_abee_solve_detailed`).  A damped best-reply
iteration, all of its starts in one batch, is the fallback for larger
action sets and for supports past `_MAX_REGIMES` regime pairs.  Solved
profiles, here and in the search's candidates, are deduplicated to
`DEDUP_TOL` by `_distinct`.

A result (`SolveResult`) holds a support's solutions as arrays in the
solver's variables, with one map to stacked strategies; a `StrategyProfile`
is built only at the edges (`abee_solve`, candidates, learning, the CLI).

Verification takes a batch of profiles, each player's strategies stacked as
one (B, n_support, n_games, n_actions) array: `dist_abee_verify_batch`
checks them all at once, each under its own support when the rows'
supports differ (`RowSupports`), and `dist_abee_verify` is its one-profile
case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .clustering import class_prototypes, labelled_prototypes
from .env import GameEnvironment, SOLVER_TOL, common_prior
from .numeric import first_rows, sum_left
from .partitions import Partition, assignment_rows

EQ_TOL = 1e-10  # residual tolerance for the indifference systems
DEDUP_TOL = 1e-7  # solved profiles (and candidates) this close in every coordinate are one
_MAX_REGIMES = 500_000  # regime pairs of a binary support past which the damped iteration solves it
_DAMPED_STARTS = 32  # starts of the damped iteration: uniform play, then Dirichlet draws
_DAMPED_STEPS = 100_000  # damped steps at most
_DAMPED_SEED = 0  # seed of the damped iteration's draws


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


def class_payoffs(payoffs: np.ndarray, data: np.ndarray, part: Partition, prior: np.ndarray) -> np.ndarray:
    """Payoff of each own pure action in each game, (..., n_games, n_actions),
    against the class means of `part` on the opponent's aggregate play
    (..., n_games, n_opponent_actions): the best-reply kernel of every
    support partition.  `payoffs` is the player's (n_actions,
    n_opponent_actions, n_games) tensor, or one such tensor per data set."""
    beta = class_prototypes(data, part, prior)
    return np.einsum("...abg,...gb->...ga", payoffs, beta[..., list(part.assignment()), :])


def best_replies(pays: np.ndarray, tol: float, incumbent: np.ndarray | None = None) -> np.ndarray:
    """Per game, the uniform mix over the actions within `tol` of the best; a
    game keeps its `incumbent` row if that row puts at most `tol` off them."""
    replies = pays >= pays.max(axis=-1, keepdims=True) - tol
    mix = replies / replies.sum(axis=-1, keepdims=True)
    if incumbent is None:
        return mix
    keep = np.where(replies, 0.0, incumbent).sum(axis=-1) <= tol
    return np.where(keep[..., None], incumbent, mix)


class RowSupports(NamedTuple):
    """The support of each row of a batch: support pairs of one shape (the
    same support sizes per player), row b's being pairs[owner[b]]."""

    pairs: list[tuple[PartitionDistribution, PartitionDistribution]]
    owner: np.ndarray

    @staticmethod
    def of(lams, n_rows: int) -> "RowSupports":
        """lams as row supports: as they are, or one pair for every row."""
        return lams if isinstance(lams, RowSupports) else RowSupports([lams], np.zeros(n_rows, dtype=np.intp))

    def weights(self, player: int):
        """The mixture weights of each row, for `mixture`: (n_support, B, 1,
        1), or the weights of every row when all rows have one support."""
        if len(self.pairs) == 1:
            return self.pairs[0][player].weights
        return np.array([pair[player].weights for pair in self.pairs])[self.owner].T[..., None, None]

    def labels(self, player: int, slot: int) -> np.ndarray:
        """(B, n_games) class labels of each row's support partition `slot`."""
        return np.array([pair[player].support[slot].assignment() for pair in self.pairs])[self.owner]

    def list_indices(self, player: int, slot: int, max_classes: int) -> np.ndarray:
        """(B,) index of each row's support partition `slot` in
        `partition_list(n_games, max_classes)`, -1 where it has more classes."""
        labels = np.array([pair[player].support[slot].assignment() for pair in self.pairs])
        # labels past the capacity are clipped into range; their rank is dropped
        rank = assignment_rows(np.minimum(labels, max_classes - 1), max_classes)
        return np.where(labels.max(axis=1) < max_classes, rank, -1)[self.owner]

    def prototypes(self, data: np.ndarray, player: int, slot: int, prior) -> tuple[np.ndarray, np.ndarray]:
        """The class means (B, K, dim) of each row's (n_games, dim) data under
        its support partition `slot` of `player`, K the most classes of any
        row's, and the rows' (B, n_games) class labels
        (`clustering.labelled_prototypes`): of the one partition when every
        row has one support, which costs less, else of each row's labels."""
        one = len(self.pairs) == 1
        partition = self.pairs[0][player].support[slot] if one else self.labels(player, slot)
        return labelled_prototypes(data, partition, prior)

    def take(self, rows) -> "RowSupports":
        return RowSupports(self.pairs, self.owner[rows])


def dist_abee_verify_batch(
    envs,
    lams,
    plays: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, list]:
    """Distributional equilibrium check of a batch of profiles.

    plays[i] holds player i's (B, n_support, n_games, n_actions) strategies
    in support order.  lams is the support pair of every profile, or the
    `RowSupports` of the profiles, which may differ.  envs is the
    environment of every profile, or a sequence of the profiles'
    environments, which may differ in payoffs but not in prior (ValueError
    otherwise).  Consistent expectations are recomputed from the
    aggregates, each profile under its own support partitions
    (`RowSupports.prototypes`); per profile, the worst payoff gain any
    player gets by deviating in any game under any support partition (0.0
    when none is positive), and its witness (player, partition, game): the first in
    player, support and class-major game order to attain it, or None.
    Returns (ok, worst, witnesses); ok is worst <= SOLVER_TOL.
    """
    prior = common_prior(envs)
    rows = RowSupports.of(lams, len(plays[0]))
    at = np.arange(len(plays[0]))[:, None]
    aggs = [mixture(rows.weights(pl), plays[pl].swapaxes(0, 1)) for pl in (0, 1)]
    blocks, slots = [], []
    for player in (0, 1):
        payoffs = envs.payoffs[player] if isinstance(envs, GameEnvironment) else np.stack([e.payoffs[player] for e in envs])
        for pi in range(plays[player].shape[1]):
            beta, labels = rows.prototypes(aggs[1 - player], player, pi, prior)
            pays = np.einsum("...abg,...gb->...ga", payoffs, beta[at, labels])
            order = np.argsort(labels, axis=1, kind="stable")  # class-major game order
            gains = pays.max(axis=-1) - (plays[player][:, pi] * pays).sum(axis=-1)
            blocks.append(gains[at, order])
            slots.append((player, pi, order))
    gains = np.concatenate(blocks, axis=1)  # n_games columns per (player, partition)
    best = gains.max(axis=1)
    worst = np.where(best > 0.0, best, 0.0)
    witnesses: list = [None] * len(best)
    for b in np.flatnonzero(best > 0.0).tolist():
        i = int(gains[b].argmax())
        player, pi, order = slots[i // len(prior)]
        witnesses[b] = (player, rows.pairs[rows.owner[b]][player].support[pi], int(order[b, i % len(prior)]))
    return worst <= SOLVER_TOL, worst, witnesses


def dist_abee_verify(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    profile: StrategyProfile,
) -> tuple[bool, float, tuple | None]:
    """Check the distributional equilibrium conditions on a profile: the
    one-profile case of `dist_abee_verify_batch`, as (ok, worst gain,
    witness)."""
    plays = stack_plays(profile, lams)
    ok, worst, witnesses = dist_abee_verify_batch(env, lams, (plays[0][None], plays[1][None]))
    return bool(ok[0]), float(worst[0]), witnesses[0]


@dataclass
class SolveResult:
    """The solutions of one support in the solver's variables.

    `profiles` (N, V) are the points that verify; `continua` (F, 2, V) are
    the base and direction of each one-parameter family x(t) = base + t *
    direction, over t in its `spans` (F, 2) row [t_lo, t_hi], not yet
    verified; `plays` maps points (..., V) to each player's (..., n_support,
    n_games, n_actions) strategies in support order.  `exact` is False when
    the damped iteration, a heuristic, found the profiles: for a binary
    support, exactly when its regime pairs exceed `_MAX_REGIMES`.
    """

    profiles: np.ndarray
    continua: np.ndarray
    spans: np.ndarray
    plays: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    exact: bool = True


# ---------------------------------------------------------------------------
# support enumeration for binary-action games
# ---------------------------------------------------------------------------


class _Thresholds(NamedTuple):
    """Where the best reply of a binary-action player changes in each game
    with the opponent's action-0 probability q: it plays `above` for
    q > t, `below` for q < t, and either at t.  A game with one strict action
    over all of [0, 1] has t = inf and that action in both fields; a `free`
    game leaves the player indifferent at every q."""

    t: np.ndarray
    above: np.ndarray
    below: np.ndarray
    free: np.ndarray


def _thresholds(env: GameEnvironment, player: int) -> _Thresholds:
    """The thresholds of one player in every game, from one pass over its
    payoffs.  A payoff slope in q below 1e-14 gives a free game or a strict
    action by the sign of the intercept; a threshold more than 1e-12 outside
    [0, 1] gives the strict action at q = 1/2, and one within it is clipped
    into [0, 1]."""
    u = env.payoffs[player]
    g = u[0, 1] - u[1, 1]
    h = (u[0, 0] - u[1, 0]) - g
    flat = np.abs(h) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -g / h
    strict = flat | (t < -1e-12) | (t > 1 + 1e-12)
    act = np.where(flat, ~(g > 0), ~(g + h * 0.5 > 0)).astype(np.intp)
    above = np.where(strict, act, np.where(h > 0, 0, 1))
    t = np.where(0.0 > t, 0.0, t)  # max(t, 0.0) and then min(t, 1.0), signed zeros kept
    t = np.where(1.0 < t, 1.0, t)
    return _Thresholds(np.where(strict, np.inf, t), above, np.where(strict, act, 1 - above), flat & (np.abs(g) < 1e-14))


@dataclass(frozen=True)
class _Regimes:
    """Every regime of one player: a position for each class of each support
    partition, in `itertools.product` order.

    Own variables are the action-0 masses x[pi * n_games + g]; slots are the
    (support partition, class) pairs in support and class order.
    """

    fixed: np.ndarray  # (R, V) mass of the strict variables, 0 at unknowns
    unknown: np.ndarray  # (R, V) bool: the indifferent (mixing) variables
    choice: np.ndarray  # (R, S) the position of each slot
    # (S, P) per slot and position: whether the class expectation sits at a
    # threshold, and its bounds lo, hi (lo == hi at a pin)
    positions: tuple[np.ndarray, np.ndarray, np.ndarray]
    slot_classes: tuple[tuple[int, ...], ...]
    width: int  # the most unknowns of a regime


def _side_regimes(items: list[tuple[_Thresholds, tuple[Partition, ...]]]) -> list[_Regimes]:
    """Every regime of one player for each (thresholds, support) item, the
    positions of every class of every item built in one pass.

    The positions of a class expectation q are the intervals between the
    class's thresholds rounded to 14 digits (equal ones merged, the first
    in class order kept), each at least 1e-12 wide, and then a pin at each
    of these thresholds, in increasing q.  At a position each game of the
    class plays a strict action, or is indifferent: in a free game, and at
    a pin within 1e-12 of its threshold.  Slots are numbered across the
    items, and an item's tables are views of the pass's.
    """
    slot_classes = [tuple(cls for part in support for cls in part.classes) for _, support in items]
    n_slots = np.array([len(classes) for classes in slot_classes])
    n_games = np.array([len(th.t) for th, _ in items])
    slot_at = np.cumsum(n_slots) - n_slots  # each item's first slot
    n_all = int(n_slots.sum())
    # the variables of each item in slot order, with the slot and item of each
    var = np.array([pi * len(th.t) + g for th, support in items
                    for pi, part in enumerate(support) for cls in part.classes for g in cls])
    slot = np.repeat(np.arange(n_all), [len(cls) for classes in slot_classes for cls in classes])
    item = np.repeat(np.arange(len(items)), n_slots)[slot]
    game = (np.cumsum(n_games) - n_games)[item] + var % n_games[item]
    t, above, below, free = (np.concatenate([th[f] for th, _ in items])[game] for f in range(4))
    finite = np.flatnonzero(np.isfinite(t))
    ts, ts_slot = np.round(t[finite], 14), slot[finite]
    order = np.lexsort((ts, ts_slot))  # stable: the first in class order leads equal values
    ts, ts_slot = ts[order], ts_slot[order]
    distinct = np.ones(len(ts), dtype=bool)
    distinct[1:] = (ts[1:] != ts[:-1]) | (ts_slot[1:] != ts_slot[:-1])
    ts, ts_slot = ts[distinct], ts_slot[distinct]
    # each slot's intervals run between its edges 0.0, ts..., 1.0
    lo, hi = np.zeros(len(ts) + n_all), np.ones(len(ts) + n_all)
    lo[np.arange(len(ts)) + ts_slot + 1] = ts
    hi[np.arange(len(ts)) + ts_slot] = ts
    wide = ~(hi - lo < 1e-12)
    interval_slot = np.repeat(np.arange(n_all), np.bincount(ts_slot, minlength=n_all) + 1)
    pos_slot = np.concatenate([interval_slot[wide], ts_slot])
    by_slot = np.argsort(pos_slot, kind="stable")
    pos_slot = pos_slot[by_slot]
    pin, lo, hi, q = np.array([
        np.arange(len(by_slot)) >= wide.sum(),
        np.concatenate([lo[wide], ts]),
        np.concatenate([hi[wide], ts]),
        np.concatenate([((lo + hi) / 2)[wide], ts]),
    ])[:, by_slot]
    pin = pin > 0
    n_positions = np.bincount(pos_slot, minlength=n_all)
    first = np.cumsum(n_positions) - n_positions
    table = np.zeros((3, n_all, n_positions.max()))
    table[:, pos_slot, np.arange(len(pos_slot)) - first[pos_slot]] = pin, lo, hi
    # regimes: row-major indices run through each item's product, its last slot fastest
    sizes, stride, n_regimes = n_positions.tolist(), [], []
    for at, k in zip(slot_at.tolist(), n_slots.tolist()):
        steps = [1] * k
        for s in range(k - 2, -1, -1):
            steps[s] = steps[s + 1] * sizes[at + s + 1]
        stride += steps
        n_regimes.append(steps[0] * sizes[at])
    regime_at = np.cumsum([0] + n_regimes)
    regime_item = np.repeat(np.arange(len(items)), n_regimes)
    rank = np.arange(regime_at[-1]) - regime_at[regime_item]
    in_item = np.arange(n_slots.max()) < n_slots[regime_item][:, None]
    slots = np.where(in_item, slot_at[regime_item][:, None] + np.arange(n_slots.max()), 0)
    choice = np.where(in_item, rank[:, None] // np.array(stride)[slots] % n_positions[slots], 0)  # (R, S)
    # each variable's state is set by the position of its slot
    entry = np.full((len(items), max(len(support) * len(th.t) for th, support in items)), -1)
    entry[item, var] = np.arange(len(var))
    entry = entry[regime_item]
    own = entry >= 0
    entry = np.where(own, entry, 0)
    position = first[slot[entry]] + np.take_along_axis(choice, slot[entry] - slot_at[item[entry]], axis=1)
    unknown = own & (free[entry] | (pin[position] & (np.abs(t[entry] - q[position]) <= 1e-12)))
    fixed = (own & ~unknown & (np.where(q[position] > t[entry], above[entry], below[entry]) == 0)).astype(float)
    widths = np.maximum.reduceat(unknown.sum(axis=1), regime_at[:-1]).tolist()
    choice = choice.astype(np.min_scalar_type(n_positions.max()))
    out = []
    for j, (th, support) in enumerate(items):
        rows, n_vars = slice(regime_at[j], regime_at[j + 1]), len(support) * len(th.t)
        at = slice(slot_at[j], slot_at[j] + n_slots[j])
        n_pos = n_positions[at].max()
        out.append(_Regimes(
            fixed=fixed[rows, :n_vars],
            unknown=unknown[rows, :n_vars],
            choice=choice[rows, : n_slots[j]],
            positions=(table[0, at, :n_pos] > 0, table[1, at, :n_pos], table[2, at, :n_pos]),
            slot_classes=slot_classes[j],
            width=widths[j],
        ))
    return out


def _regimes_of(items) -> list[tuple[_Regimes, _Regimes] | None]:
    """Both players' regimes of each (environment, support) item, None where
    a player has other than two actions.  Each distinct (environment,
    player, support) side is built once, all in one pass (`_side_regimes`),
    on thresholds computed once per environment; the items are held
    meanwhile, so no two of their environments share an id."""
    envs = {id(env): env for env, _ in items if env.n_actions(0) == env.n_actions(1) == 2}
    ths = {key: (_thresholds(env, 0), _thresholds(env, 1)) for key, env in envs.items()}
    pairs = [tuple((id(env), p, lams[p].support) for p in (0, 1)) if id(env) in envs else None for env, lams in items]
    distinct = list(dict.fromkeys(side for pair in pairs if pair for side in pair))
    built = dict(zip(distinct, _side_regimes([(ths[e][p], support) for e, p, support in distinct]) if distinct else []))
    return [pair and (built[pair[0]], built[pair[1]]) for pair in pairs]


class _MapGroup(NamedTuple):
    """The sides (support, player) of a run of one map width, the most
    unknowns of one of their regimes.  Each side's own regimes are stacked
    one after another from `starts`, their variables padded to the most of
    any member and then a dummy one, and its opponent's slots are padded
    likewise, with zero map rows that take no part in any test or equation.
    Per own regime: the affine map q = a @ x_u + b from its unknowns to the
    opponent's class expectations, the variable of each unknown column in
    variable order (-1, the dummy, for padding) and whether the column is
    one of the regime's unknowns; per own regime, opponent slot and position
    of that slot, whether the checks on the maps alone rule the position
    out; per member, opponent slot and position, its (pinned, lo, hi), a
    padded slot unpinned on (-inf, inf) at every position."""

    members: list[tuple[int, int]]
    starts: np.ndarray
    fixed: np.ndarray  # (R, V + 1) bool, the dummy last
    a: np.ndarray  # (R, S, width)
    b: np.ndarray  # (R, S)
    columns: np.ndarray  # (R, width)
    valid: np.ndarray  # (R, width) bool
    drops: np.ndarray  # (R, S, P) bool
    positions: tuple[np.ndarray, np.ndarray, np.ndarray]  # (M, S, P) each


def _map_group(run: list[_Support], members: list[tuple[int, int]]) -> _MapGroup:
    """The maps and range test of the sides of one width, all in one pass.

    Each member writes its coefficient rows into the group's: at opponent
    slot s, prior[g] * w / (the prior of s's class) for the variable of each
    game g of the class and support partition of weight w.  b adds the
    strict variables' terms from the left, in (game, support partition)
    order, padded with the group's dummy variable.  An opponent position is
    ruled out for a regime's slot when it pins the class at other than b
    while no unknown moves it, or when it is an interval that q's range over
    the box x_u in [0, 1]^width misses beyond the solve's tolerances.  Pins
    get no range test: plays clip unknowns into the box, and a clipped point
    may verify.
    """
    own = [run[i].sides[p] for i, p in members]
    opp = [run[i].sides[1 - p] for i, p in members]
    n_vars = max(o.fixed.shape[1] for o in own)
    n_slots = max(len(o.slot_classes) for o in opp)
    n_positions = max(o.positions[1].shape[1] for o in opp)
    counts = [len(o.choice) for o in own]
    starts = np.cumsum([0] + counts)
    fixed = np.zeros((starts[-1], n_vars + 1), dtype=bool)
    unknown = np.zeros((starts[-1], n_vars), dtype=bool)
    coef = np.zeros((len(members), n_slots, n_vars + 1))
    order = np.full((len(members), n_slots, n_vars), n_vars)
    positions = (np.zeros((len(members), n_slots, n_positions), dtype=bool),
                 np.full((len(members), n_slots, n_positions), -np.inf),
                 np.full((len(members), n_slots, n_positions), np.inf))
    for m, ((i, p), o, q) in enumerate(zip(members, own, opp)):
        rows, n_own = slice(starts[m], starts[m + 1]), o.fixed.shape[1]
        fixed[rows, :n_own] = o.fixed
        unknown[rows, :n_own] = o.unknown
        prior, weights = run[i].env.prior.tolist(), run[i].lams[p].weights
        for s, cls in enumerate(q.slot_classes):
            pcls = sum(prior[g] for g in cls)
            terms = [pi * len(prior) + g for g in cls for pi in range(len(weights))]
            order[m, s, : len(terms)] = terms
            coef[m, s, terms] = [prior[g] * w / pcls for g in cls for w in weights]
        for table, part in zip(positions, q.positions):
            table[m, : len(q.slot_classes), : part.shape[1]] = part
    member = np.repeat(np.arange(len(members)), counts)
    rows = np.arange(len(member))
    terms = np.take_along_axis(coef, order, axis=2)
    b = np.zeros((len(member), n_slots))
    for t in range(n_vars):  # `sum_left`, one term at a time
        b = b + terms[member, :, t] * fixed[rows[:, None], order[member, :, t]]
    width = own[0].width
    columns = np.argsort(~unknown, axis=1, kind="stable")[:, :width]
    valid = np.arange(width) < unknown.sum(axis=1)[:, None]
    columns[~valid] = -1
    a = coef[member[:, None, None], np.arange(n_slots)[:, None], columns[:, None, :]]
    drops = np.zeros((len(member), n_slots, n_positions), dtype=bool)
    for s in range(n_slots):
        unmoved = ~(np.abs(a[:, s]) > 1e-14).any(axis=1)
        slack = 1e-9 * (1.0 + np.abs(a[:, s]).sum(axis=1))
        q_lo = b[:, s] + np.minimum(a[:, s], 0.0).sum(axis=1)
        q_hi = b[:, s] + np.maximum(a[:, s], 0.0).sum(axis=1)
        for k in range(n_positions):
            pins, lo, hi = (table[member, s, k] for table in positions)
            bad_pin = pins & unmoved & (np.abs(b[:, s] - lo) > 1e-9)
            drops[:, s, k] = bad_pin | (~pins & ((q_hi < lo - slack) | (q_lo > hi + slack)))
    return _MapGroup(members, starts, fixed, a, b, columns, valid, drops, positions)


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


_PAIR_CHUNK = 512  # regime pairs solved per elimination, which bounds its temporaries
_RUN_SUPPORTS = 32  # items per run


def _distinct(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of values (N, m), grouped by ascending
    owner, that no earlier row of the same owner matches to DEDUP_TOL: one
    `first_rows` per run of whole owners that reaches `_PAIR_CHUNK` rows,
    which bounds the temporaries of its keys."""
    kept, start = [], 0
    for end in np.append(np.flatnonzero(owner[1:] != owner[:-1]) + 1, len(owner)).tolist():
        if end - start >= _PAIR_CHUNK or end == len(owner):
            keys = np.empty((end - start, values.shape[1] + 1), dtype=np.int64)
            keys[:, 0], keys[:, 1:] = owner[start:end], np.round(values[start:end] / DEDUP_TOL)
            kept.append(start + first_rows(keys))
            start = end
    return np.concatenate(kept) if kept else np.zeros(0, dtype=np.intp)


def _outside(q, pinned, lo, hi) -> np.ndarray:
    """Whether any unpinned class expectation leaves its interval."""
    return (~pinned & ((q < lo - 1e-9) | (q > hi + 1e-9))).any(axis=-1)


def _solve_pairs(maps, bounds, own_idx, opp_idx):
    """One player's unknowns solved against the opponent regime of each pair.

    maps holds the (a, b, valid) of a `_MapGroup` for the player's regimes,
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
            back = aug[:, :, width] - sum_left(free_terms)
            fc = free.argmax(axis=1)
            line = np.where(pivoted, -aug[at, np.maximum(pivot_row, 0), fc[:, None]], 0.0)
            line[at[:, 0], fc] = 1.0
            line[free.sum(axis=1) != 1] = 0.0
            ok[mix] = ~(~is_pivot & (np.abs(aug[:, :, width]) > EQ_TOL)).any(axis=1)
            n_free[mix] = free.sum(axis=1)
            x[mix] = np.where(pivoted, back[at, np.maximum(pivot_row, 0)], 0.5)
            direction[mix] = line
        q = b_part + sum_left(a_part * x[part, None, :])
        outside = _outside(q, pinned[k], lo[k], hi[k])
        inside = (((x[part] >= -1e-9) & (x[part] <= 1 + 1e-9)) | ~valid[own_idx[part]]).all(axis=1)
        ok[part] &= ~(outside & (n_free[part] == 0))
        feasible[part] = inside & ~outside
    return ok, feasible, n_free, x, direction


def _place(base: np.ndarray, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of base with values written at columns; the dummy column
    base.shape[1], which the padding index -1 names, absorbs padding."""
    out = np.concatenate([base, np.zeros((len(base), 1))], axis=1)
    out[np.arange(len(base))[:, None], columns] = values
    return out[:, :-1]


class _Support(NamedTuple):
    """One support's environment and the regimes of both players, held
    until its run is solved."""

    env: GameEnvironment
    lams: tuple[PartitionDistribution, PartitionDistribution]
    sides: tuple[_Regimes, _Regimes]


def _kept_pairs(run: list[_Support], groups: list[_MapGroup]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per support, the (row regime, column regime) pairs left for the
    solve, row-regime-major: those with no slot position that either side's
    maps rule out.  The pins of one side constrain only the other side's
    variables, so each side's half of a pair solves on its own."""
    at = {member: (g, k) for g in groups for k, member in enumerate(g.members)}
    pairs = []
    for i, sup in enumerate(run):
        fails = []
        for p in (0, 1):
            g, k = at[i, p]
            choice = sup.sides[1 - p].choice
            drops = g.drops[g.starts[k] : g.starts[k + 1], : choice.shape[1]]
            fails.append(drops[:, np.arange(choice.shape[1]), choice].any(axis=2))
        pairs.append(np.nonzero(~fails[0] & ~fails[1].T))
    return pairs


class _Solved(NamedTuple):
    """Both sides of the kept pairs of a run's supports, side first, the
    pairs of its support i at starts[i]:starts[i + 1]: what `_solve_pairs`
    gives, with x and direction placed into the side's variables (padded to
    the most of the run)."""

    starts: np.ndarray
    ok: np.ndarray  # (2, N)
    feasible: np.ndarray
    n_free: np.ndarray
    x: np.ndarray  # (2, N, V)
    direction: np.ndarray


def _solve_batch(run: list[_Support], groups: list[_MapGroup], pairs) -> _Solved:
    """`_solve_pairs` of both sides of every kept pair of a run, one call per
    map group: the group's maps, and the bounds of each member's opponent
    regimes, one after another, gathered from the group's padded positions
    at their choice.  Padded slots, unpinned on (-inf, inf), take no part
    in the elimination or the interval checks, so each pair solves as it
    would alone."""
    starts = np.cumsum([0] + [len(own) for own, _ in pairs])
    ok = np.zeros((2, starts[-1]), dtype=bool)
    feasible = np.zeros_like(ok)
    n_free = np.zeros(ok.shape, dtype=np.intp)
    x = np.zeros(ok.shape + (max(g.fixed.shape[1] for g in groups) - 1,))
    direction = np.zeros_like(x)
    for g in groups:
        n_slots = g.b.shape[1]
        choices = [run[i].sides[1 - p].choice for i, p in g.members]
        opp_at = np.cumsum([0] + [len(c) for c in choices])
        # each member's choices, zero-padded to the group's slots, one after another
        choice = np.zeros((opp_at[-1], n_slots), dtype=np.result_type(*choices))
        for c, at in zip(choices, opp_at):
            choice[at : at + len(c), : c.shape[1]] = c
        member = np.repeat(np.arange(len(choices)), np.diff(opp_at))[:, None]
        bounds = [table[member, np.arange(n_slots), choice] for table in g.positions]
        own = np.concatenate([pairs[i][p] + g.starts[m] for m, (i, p) in enumerate(g.members)])
        opp = np.concatenate([pairs[i][1 - p] + at for (i, p), at in zip(g.members, opp_at)])
        side = np.concatenate([np.full(len(pairs[i][p]), p) for i, p in g.members])
        dest = np.concatenate([np.arange(starts[i], starts[i + 1]) for i, _ in g.members])
        solved = _solve_pairs((g.a, g.b, g.valid), bounds, own, opp)
        ok[side, dest], feasible[side, dest], n_free[side, dest] = solved[:3]
        n_vars = g.fixed.shape[1] - 1
        x[side, dest, :n_vars] = _place(g.fixed[own, :-1], g.columns[own], solved[3])
        direction[side, dest, :n_vars] = _place(np.zeros((len(own), n_vars)), g.columns[own], solved[4])
    return _Solved(starts, ok, feasible, n_free, x, direction)


def _split_plays(n0: int, n_games: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points (..., V) as each player's (..., n_support, n_games, 2) mixes,
    the row player's n0 support partitions first."""
    act0 = np.clip(x, 0.0, 1.0)
    mixes = np.stack([act0, 1.0 - act0], axis=-1).reshape(x.shape[:-1] + (x.shape[-1] // n_games, n_games, 2))
    return mixes[..., :n0, :, :], mixes[..., n0:, :, :]


def _assemble(run: list[_Support], solved: _Solved) -> list[SolveResult]:
    """Each support's result from its solved pairs: the points that verify,
    deduplicated, and the one-parameter families.

    The pairs of the supports of one shape (games, support sizes) are
    assembled together, with one best-reply check per prior, each profile
    under its own support (`RowSupports`), and then sliced by support.
    """
    results: list = [None] * len(run)
    shapes: dict[tuple, list[int]] = {}
    for i, sup in enumerate(run):
        shapes.setdefault((sup.env.n_games,) + tuple(len(lam.support) for lam in sup.lams), []).append(i)
    for (n_games, n0, n1), members in shapes.items():
        rows = np.concatenate([np.arange(solved.starts[i], solved.starts[i + 1]) for i in members])
        owner = np.repeat(members, np.diff(solved.starts)[members])
        keep = solved.ok[0, rows] & solved.ok[1, rows]
        rows, owner = rows[keep], owner[keep]
        widths = (n0 * n_games, n1 * n_games)
        x = np.concatenate([solved.x[p, rows, : widths[p]] for p in (0, 1)], axis=1)
        feasible, n_free = solved.feasible[:, rows], solved.n_free[:, rows]
        split = partial(_split_plays, n0, n_games)

        found = np.flatnonzero(feasible[0] & feasible[1])
        plays = split(x[found])
        verified = np.zeros(len(found), dtype=bool)
        checks: dict[bytes, list[int]] = {}
        for i in members:
            checks.setdefault(run[i].env.prior.tobytes(), []).append(i)
        for ids in checks.values():
            at = np.flatnonzero(np.isin(owner[found], ids))
            if not len(at):
                continue
            env = run[ids[0]].env
            envs = env if all(run[i].env is env for i in ids) else [run[i].env for i in owner[found[at]]]
            supports = RowSupports([run[i].lams for i in members], np.searchsorted(members, owner[found[at]]))
            verified[at] = dist_abee_verify_batch(envs, supports, (plays[0][at], plays[1][at]))[0]
        kept = found[verified]
        kept = kept[_distinct(owner[kept], x[kept])]
        profiles = x[kept]

        # one free unknown in all, and the rigid side feasible: a one-parameter
        # family x + t * direction, cut to [0, 1] in every variable it moves
        line = (n_free[0] + n_free[1] == 1) & np.where(n_free[0] == 1, feasible[1], feasible[0])
        base = x[line]
        direction = np.concatenate([solved.direction[p, rows[line], : widths[p]] for p in (0, 1)], axis=1)
        moves = np.abs(direction) > 1e-14
        step = np.where(moves, direction, 1.0)
        b0, b1 = (0.0 - base) / step, (1.0 - base) / step
        t_lo = np.where(moves, np.where(b1 < b0, b1, b0), -np.inf).max(axis=1, initial=-np.inf)
        t_hi = np.where(moves, np.where(b1 > b0, b1, b0), np.inf).min(axis=1, initial=np.inf)
        fam = np.flatnonzero(t_lo < t_hi - 1e-12)
        continua = np.stack([base[fam], direction[fam]], axis=1)
        spans = np.stack([t_lo[fam], t_hi[fam]], axis=1)
        # owners ascend, so each support's rows are one slice
        at_p, at_f = (np.searchsorted(o, np.arange(len(run) + 1)) for o in (owner[kept], owner[line][fam]))
        for i in members:
            p, f = slice(at_p[i], at_p[i + 1]), slice(at_f[i], at_f[i + 1])
            results[i] = SolveResult(profiles[p], continua[f], spans[f], split)
    return results


def _solved(run: list[_Support]) -> list[SolveResult]:
    """The results of a nonempty run's supports, in order.  The maps and
    range tests of each map width are built in one pass (`_map_group`); the
    run's kept pairs are then solved, one elimination per width
    (`_solve_batch`), and assembled, one pass per support shape
    (`_assemble`)."""
    widths: dict[int, list[tuple[int, int]]] = {}
    for i, sup in enumerate(run):
        for p in (0, 1):
            widths.setdefault(sup.sides[p].width, []).append((i, p))
    groups = [_map_group(run, members) for members in widths.values()]
    pairs = _kept_pairs(run, groups)
    return _assemble(run, _solve_batch(run, groups, pairs))


# ---------------------------------------------------------------------------
# damped best-reply iteration (general action sets)
# ---------------------------------------------------------------------------


def _reshaped(shapes, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points (..., V), each player's strategies flattened in turn, as its
    (..., n_support, n_games, n_actions) strategies of `shapes`."""
    n0 = int(np.prod(shapes[0]))
    return x[..., :n0].reshape(x.shape[:-1] + shapes[0]), x[..., n0:].reshape(x.shape[:-1] + shapes[1])


def _damped_iteration(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
) -> SolveResult:
    """Each of `_DAMPED_STARTS` starts moves halfway to the best replies until
    no strategy moves by 1e-9, for at most `_DAMPED_STEPS` steps; the end
    points that verify, deduplicated, are the profiles.  Start 0 is uniform
    play and the others Dirichlet draws.  The starts iterate as one stack,
    each frozen after the step in which it settles."""
    rng = np.random.default_rng(_DAMPED_SEED)
    shapes = tuple((len(lams[p].support), env.n_games, env.n_actions(p)) for p in (0, 1))
    plays = [np.empty((_DAMPED_STARTS,) + shape) for shape in shapes]
    for start in range(_DAMPED_STARTS):
        for play, shape in zip(plays, shapes):
            play[start] = 1.0 / shape[2] if start == 0 else rng.dirichlet(np.ones(shape[2]), size=shape[:2])
    moving = np.ones(_DAMPED_STARTS, dtype=bool)
    for _ in range(_DAMPED_STEPS):
        live = np.flatnonzero(moving)
        if not len(live):
            break
        now = [play[live] for play in plays]
        aggs = [mixture(lams[p].weights, now[p].swapaxes(0, 1)) for p in (0, 1)]
        delta = np.zeros(len(live))
        for player in (0, 1):
            pays = np.stack([class_payoffs(env.payoffs[player], aggs[1 - player], part, env.prior)
                             for part in lams[player].support], axis=1)
            new = 0.5 * now[player] + 0.5 * best_replies(pays, 1e-12)
            delta = np.maximum(delta, np.abs(new - now[player]).max(axis=(1, 2, 3)))
            plays[player][live] = new
        moving[live] = delta >= 1e-9
    flat = np.concatenate([play.reshape(_DAMPED_STARTS, np.prod(shape)) for play, shape in zip(plays, shapes)], axis=1)
    flat = flat[dist_abee_verify_batch(env, lams, plays)[0]]
    found = flat[_distinct(np.zeros(len(flat), dtype=np.intp), flat)]
    return SolveResult(found, np.zeros((0, 2, flat.shape[1])), np.zeros((0, 2)), partial(_reshaped, shapes),
                       exact=False)


def dist_abee_solve_runs(
    items: Iterable[tuple[GameEnvironment, tuple[PartitionDistribution, PartitionDistribution]]],
) -> Iterator[list[SolveResult]]:
    """Distributional equilibrium search of each (environment, support)
    item, lazily, one list of `SolveResult`s per run of items solved
    together, the runs in order: the verified profiles as points (N, V) in
    the solver's variables, the one-parameter families as base and
    direction (F, 2, V) with their spans (F, 2), and the map from points to
    each player's stacked strategies.

    Each item carries its own environment, so one stream may mix them.
    Binary-action items go through exact support enumeration, in runs of at
    most the next `_RUN_SUPPORTS` items: their regimes, maps and range tests
    are built together, and their kept pairs are solved and assembled
    together (`_solved`), with the same result for each support as alone.
    Other shapes, and binary supports over `_MAX_REGIMES` regime pairs, use
    the damped iteration (each step moves halfway to the best replies, until
    no strategy moves by 1e-9) in their place in the stream, a run of one
    that is computed only once the runs before it are taken; it may miss
    equilibria and is reported as not `exact`.  Every returned profile
    verifies.  Families whose moving side cannot meet an opponent interval
    inside the box are not returned.
    """
    items = iter(items)
    while chunk := list(itertools.islice(items, _RUN_SUPPORTS)):
        run = []
        for (env, lams), regimes in zip(chunk, _regimes_of(chunk)):
            if regimes and len(regimes[0].choice) * len(regimes[1].choice) <= _MAX_REGIMES:
                run.append(_Support(env, lams, regimes))
                continue
            if run:
                yield _solved(run)
            run = []
            yield [_damped_iteration(env, lams)]
        if run:
            yield _solved(run)


def dist_abee_solve_detailed(
    env: GameEnvironment, lams: tuple[PartitionDistribution, PartitionDistribution]
) -> SolveResult:
    """The one-item case of `dist_abee_solve_runs`."""
    return next(dist_abee_solve_runs([(env, lams)]))[0]


def abee_solve(env: GameEnvironment, partitions: tuple[Partition, Partition]) -> list[StrategyProfile]:
    """Equilibria for one fixed analogy partition per player."""
    lams = degenerate_pair(*partitions)
    res = dist_abee_solve_detailed(env, lams)
    return [unstack_plays((lams[0].support, lams[1].support), row) for row in zip(*res.plays(res.profiles))]
