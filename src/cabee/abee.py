"""Analogy-based expectation equilibria for fixed or mixed partitions.

Consistency ties a player's per-class expectation to the prior-weighted
aggregate of the opponent's play; best responses treat the class expectation
as the opponent's strategy in every game of the class.  The solver for
binary-action games enumerates, per analogy class, where the class
expectation sits relative to the games' indifference thresholds ("pinned at
a threshold" or "strictly between two"), solves the induced linear system in
the mixing weights, and keeps every profile that verifies.  A damped
best-reply iteration with multi-start is the fallback for larger action
sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .env import GameEnvironment, SOLVER_TOL, pure_payoffs_against
from .partitions import Partition

EQ_TOL = 1e-10  # residual tolerance for the indifference systems
DEDUP_TOL = 1e-7


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

    def weight(self, partition: Partition) -> float:
        return dict(zip(self.partitions, self.weights))[partition]

    def is_degenerate(self) -> bool:
        return len(self.partitions) == 1


@dataclass(frozen=True)
class StrategyProfile:
    """Per-player, per-partition, per-game mixed actions.

    plays[i][An] is an (n_games, n_actions_i) array; a single-partition
    profile is the degenerate case with one entry per player.
    """

    plays: tuple[dict[Partition, np.ndarray], dict[Partition, np.ndarray]]

    def strategy(self, player: int, partition: Partition) -> np.ndarray:
        return self.plays[player][partition]

    def single(self, player: int) -> np.ndarray:
        (strat,) = self.plays[player].values()
        return strat


def degenerate_pair(p0: Partition, p1: Partition):
    return (PartitionDistribution.degenerate(p0), PartitionDistribution.degenerate(p1))


def aggregate(
    profile: StrategyProfile, lams: tuple[PartitionDistribution, PartitionDistribution]
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda-weighted mixture of per-partition strategies, per game."""
    out = []
    for player in (0, 1):
        lam = lams[player]
        acc = None
        for part, w in zip(lam.partitions, lam.weights):
            if part not in profile.plays[player]:
                raise KeyError(f"profile missing strategy for player {player}, {part}")
            strat = np.asarray(profile.plays[player][part], dtype=float)
            acc = w * strat if acc is None else acc + w * strat
        out.append(acc)
    return out[0], out[1]


def consistent_expectation(
    env: GameEnvironment, partition: Partition, opponent_aggregate: np.ndarray
) -> np.ndarray:
    """Prior-weighted class means of the opponent aggregate, one row per class."""
    agg = np.asarray(opponent_aggregate, dtype=float)
    rows = []
    for cls in partition.classes:
        idx = list(cls)
        w = env.prior[idx]
        rows.append(w @ agg[idx] / w.sum())
    return np.stack(rows)


def analogy_best_response(
    env: GameEnvironment,
    player: int,
    game: int,
    expectation: np.ndarray,
    tol: float = SOLVER_TOL,
) -> tuple[tuple[int, ...], bool]:
    """Pure best replies against the class expectation, plus indifference flag."""
    pays = pure_payoffs_against(env, player, game, expectation)
    best = float(pays.max())
    replies = tuple(int(a) for a in np.flatnonzero(pays >= best - tol))
    return replies, len(replies) >= 2


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


def dist_abee_verify(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    profile: StrategyProfile,
    tol: float = SOLVER_TOL,
) -> tuple[bool, float, tuple | None]:
    """Check the distributional equilibrium conditions on a profile.

    Recomputes consistent expectations from the aggregates and reports the
    worst payoff gain any player can get by deviating in any game under any
    support partition, with a witness (player, partition, first such game).
    """
    aggs = aggregate(profile, lams)
    worst = 0.0
    witness = None
    for player in (0, 1):
        opp = aggs[1 - player]
        for part in lams[player].support:
            beta = consistent_expectation(env, part, opp)
            pays = expected_payoffs(env, player, beta[list(part.assignment())])
            order = list(itertools.chain.from_iterable(part.classes))
            gains = (pays.max(axis=1) - (profile.plays[player][part] * pays).sum(axis=1))[order]
            top = int(gains.argmax())
            if gains[top] > worst:
                worst = float(gains[top])
                witness = (player, part, order[top])
    return worst <= tol, worst, witness


def abee_verify(
    env: GameEnvironment,
    partitions: tuple[Partition, Partition],
    profile: StrategyProfile,
    tol: float = SOLVER_TOL,
) -> tuple[bool, float, tuple | None]:
    """Single-partition equilibrium check (degenerate distributions)."""
    return dist_abee_verify(env, degenerate_pair(*partitions), profile, tol=tol)


@dataclass
class SolveConfig:
    seed: int = 0
    damping: float = 0.5
    iteration_tol: float = 1e-9
    max_iterations: int = 100_000
    n_starts: int = 32
    max_regimes: int = 500_000
    dedup_tol: float = DEDUP_TOL


@dataclass
class Continuum:
    """A one-parameter family of solutions of one indifference system.

    x(t) = base + t * direction over t in [t_lo, t_hi]; build(t) assembles
    the strategy profile (not yet verified).
    """

    base: np.ndarray
    direction: np.ndarray
    t_lo: float
    t_hi: float
    variables: list
    _builder: object

    def build(self, t: float) -> StrategyProfile:
        return self._builder(self.base + t * self.direction)


@dataclass
class SolveResult:
    profiles: list[StrategyProfile] = field(default_factory=list)
    continua: list[Continuum] = field(default_factory=list)
    exhausted: bool = False  # True when the regime budget cut the enumeration


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


def _gauss_solve(rows: list[list[float]], rhs: list[float], n_vars: int):
    """Row-reduce an (m x n) system; return (particular, free_cols, ok).

    Free variables are set to 0.5 in the particular solution.  ok is False
    when the system is inconsistent.
    """
    m = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n_vars):
        piv = None
        best = 1e-11
        for i in range(r, m):
            if abs(a[i][c]) > best:
                best = abs(a[i][c])
                piv = i
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][c]
        a[r] = [v / scale for v in a[r]]
        for i in range(m):
            if i != r and abs(a[i][c]) > 1e-14:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if abs(a[i][n_vars]) > EQ_TOL:
            return None, None, False
    free_cols = [c for c in range(n_vars) if c not in piv_cols]
    x = [0.5] * n_vars
    for i, c in enumerate(piv_cols):
        x[c] = a[i][n_vars] - sum(a[i][j] * x[j] for j in free_cols)
    return x, (free_cols, [a[i] for i in range(len(piv_cols))], piv_cols), True


def _side_combos(env: GameEnvironment, lams, player: int):
    """Enumerate position choices for one player's support partitions.

    Each combo fixes the strict/indifferent status of this player's own
    mixing variables and carries the pin equations and interval constraints
    this player's classes impose on the opponent's variables.  Entries:
    (fixed: {(pi, g): mass}, unknowns: tuple[(pi, g)], pins: tuple[(pi, cls, t)],
    intervals: tuple[(pi, cls, lo, hi)]).
    """
    slots = []
    for pi, part in enumerate(lams[player].support):
        for cls in part.classes:
            slots.append((pi, cls, _class_positions(env, player, cls)))
    combos = []
    for choice in itertools.product(*(positions for _, _, positions in slots)):
        fixed: dict[tuple[int, int], float] = {}
        unknowns: list[tuple[int, int]] = []
        pins = []
        intervals = []
        for (pi, cls, _), position in zip(slots, choice):
            kind, lo, hi, acts, indiff = position
            for g, act in acts.items():
                fixed[(pi, g)] = 1.0 if act == 0 else 0.0
            for g in indiff:
                unknowns.append((pi, g))
            if kind == "pin":
                pins.append((pi, cls, lo))
            else:
                intervals.append((pi, cls, lo, hi))
        unknowns_t = tuple(sorted(unknowns))
        combos.append(
            {
                "fixed": fixed,
                "unknowns": unknowns_t,
                "pins": tuple(pins),
                "intervals": tuple(intervals),
                # precomputed memo keys: own variable pattern / own constraints
                "pattern_sig": (tuple(sorted(fixed.items())), unknowns_t),
                "constraint_sig": (tuple(pins), tuple(intervals)),
            }
        )
    return combos


_COMBO_CACHE: dict[tuple, tuple] = {}


def _side_combos_cached(env: GameEnvironment, lams, player: int):
    key = (env.fingerprint(), player, lams[player].support)
    if key not in _COMBO_CACHE:
        if len(_COMBO_CACHE) > 4096:
            _COMBO_CACHE.clear()
        _COMBO_CACHE[key] = tuple(_side_combos(env, lams, player))
    return _COMBO_CACHE[key]


def _solve_block(env, lams, block_player, pattern, pins, intervals):
    """Solve for one player's mixing variables given the opponent's
    pin equations and interval constraints on them.

    pattern = (fixed, unknowns) describes the block player's variables.
    Returns None when inconsistent, else a dict with the representative
    values, feasibility of the representative, and nullspace data.
    """
    prior = env.prior
    fixed, unknowns = pattern
    lam_w = lams[block_player].weights
    u_pos = {v: k for k, v in enumerate(unknowns)}

    def q_terms(cls):
        # expectation of an opponent class over this block's aggregate
        pcls = sum(prior[g] for g in cls)
        const = 0.0
        row = [0.0] * len(unknowns)
        for g in cls:
            for pi in range(len(lam_w)):
                c = prior[g] * lam_w[pi] / pcls
                key = (pi, g)
                if key in u_pos:
                    row[u_pos[key]] += c
                else:
                    const += c * fixed[key]
        return row, const

    rows, rhs = [], []
    for _, cls, t in pins:
        row, const = q_terms(cls)
        if any(abs(v) > 1e-14 for v in row):
            rows.append(row)
            rhs.append(t - const)
        elif abs(const - t) > 1e-9:
            return None
    if unknowns:
        x_u, null_info, solvable = _gauss_solve(rows, rhs, len(unknowns))
        if not solvable:
            return None
    else:
        x_u, null_info = [], ([], [], [])
    feasible = not unknowns or (min(x_u) >= -1e-9 and max(x_u) <= 1 + 1e-9)
    for _, cls, lo, hi in intervals:
        row, const = q_terms(cls)
        q = const + sum(r * v for r, v in zip(row, x_u))
        if q < lo - 1e-9 or q > hi + 1e-9:
            if not null_info[0]:
                return None
            feasible = False
    free_cols, reduced, piv_cols = null_info
    directions = []
    if len(free_cols) == 1:
        fc = free_cols[0]
        dir_u = [0.0] * len(unknowns)
        dir_u[fc] = 1.0
        for i, c in enumerate(piv_cols):
            dir_u[c] = -reduced[i][fc]
        directions.append(dir_u)
    return {
        "x": x_u,
        "feasible": feasible,
        "n_free": len(free_cols),
        "directions": directions,
    }


def _binary_support_enumeration(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    config: SolveConfig,
) -> SolveResult:
    n_games = env.n_games
    result = SolveResult()
    combos = (_side_combos_cached(env, lams, 0), _side_combos_cached(env, lams, 1))
    if len(combos[0]) * len(combos[1]) > config.max_regimes:
        result.exhausted = True
        return result

    variables: list[tuple[int, Partition, int]] = []
    var_index: dict[tuple[int, int, int], int] = {}
    for player in (0, 1):
        for pi, part in enumerate(lams[player].support):
            for g in range(n_games):
                var_index[(player, pi, g)] = len(variables)
                variables.append((player, part, g))
    n_vars = len(variables)

    def build_profile(x) -> StrategyProfile:
        plays: tuple[dict, dict] = ({}, {})
        for idx, (player, part, g) in enumerate(variables):
            arr = plays[player].setdefault(part, np.zeros((n_games, 2)))
            m = min(max(float(x[idx]), 0.0), 1.0)
            arr[g, 0] = m
            arr[g, 1] = 1.0 - m
        return StrategyProfile(plays=plays)

    # memoized block solves: the pins of one side constrain only the other
    # side's variables, so each half solves independently
    cache: dict[tuple, dict | None] = {}

    def solve_for(block_player, own_combo, opp_combo):
        key = (block_player, own_combo["pattern_sig"], opp_combo["constraint_sig"])
        if key not in cache:
            cache[key] = _solve_block(
                env,
                lams,
                block_player,
                (own_combo["fixed"], own_combo["unknowns"]),
                opp_combo["pins"],
                opp_combo["intervals"],
            )
        return cache[key]

    seen = {}
    for c0 in combos[0]:
        for c1 in combos[1]:
            sol0 = solve_for(0, c0, c1)
            if sol0 is None:
                continue
            sol1 = solve_for(1, c1, c0)
            if sol1 is None:
                continue
            x = np.zeros(n_vars)
            for player, combo, sol in ((0, c0, sol0), (1, c1, sol1)):
                for (pi, g), val in combo["fixed"].items():
                    x[var_index[(player, pi, g)]] = val
                for (pi, g), val in zip(combo["unknowns"], sol["x"]):
                    x[var_index[(player, pi, g)]] = val
            if sol0["feasible"] and sol1["feasible"]:
                profile = build_profile(x)
                okv, _, _ = dist_abee_verify(env, lams, profile)
                if okv:
                    key_r = tuple(np.round(x / config.dedup_tol).astype(np.int64))
                    if key_r not in seen:
                        seen[key_r] = True
                        result.profiles.append(profile)
            n_free = sol0["n_free"] + sol1["n_free"]
            if n_free == 1:
                player, combo, sol = (0, c0, sol0) if sol0["n_free"] == 1 else (1, c1, sol1)
                other = sol1 if player == 0 else sol0
                if not other["feasible"]:
                    # the rigid side is already violated; no parameter fixes it
                    continue
                direction = np.zeros(n_vars)
                for (pi, g), dv in zip(combo["unknowns"], sol["directions"][0]):
                    direction[var_index[(player, pi, g)]] = dv
                t_lo, t_hi = -np.inf, np.inf
                for vi in np.flatnonzero(np.abs(direction) > 1e-14):
                    dv = direction[vi]
                    b0, b1 = (0.0 - x[vi]) / dv, (1.0 - x[vi]) / dv
                    t_lo = max(t_lo, min(b0, b1))
                    t_hi = min(t_hi, max(b0, b1))
                if t_lo < t_hi - 1e-12:
                    result.continua.append(
                        Continuum(
                            x.copy(), direction, float(t_lo), float(t_hi),
                            list(variables), build_profile,
                        )
                    )
    return result


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
                    beta = consistent_expectation(env, part, opp)
                    pays = expected_payoffs(env, player, beta[list(part.assignment())])
                    old = profile.plays[player][part]
                    new = (1 - config.damping) * old + config.damping * best_replies(pays, 1e-12)
                    delta = max(delta, float(np.abs(new - old).max()))
                    new_plays[player][part] = new
            profile = StrategyProfile(plays=new_plays)
            if delta < config.iteration_tol:
                break
        okv, _, _ = dist_abee_verify(env, lams, profile)
        if okv:
            flat = np.concatenate(
                [profile.plays[p][part].ravel() for p in (0, 1) for part in lams[p].support]
            )
            key = tuple(np.round(flat / config.dedup_tol).astype(np.int64))
            if key not in keys:
                keys.add(key)
                found.append(profile)
    return found


def dist_abee_solve_detailed(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    config: SolveConfig | None = None,
) -> SolveResult:
    """Distributional equilibrium search; keeps one-parameter families.

    Binary-action environments go through exact support enumeration; other
    shapes use the damped iteration.  Every returned profile verifies.
    """
    config = config or SolveConfig()
    if env.n_actions(0) == 2 and env.n_actions(1) == 2:
        result = _binary_support_enumeration(env, lams, config)
        if result.profiles or result.continua:
            return result
        if result.exhausted:
            iterated = _damped_iteration(env, lams, config)
            return SolveResult(profiles=iterated, exhausted=True)
        return result
    return SolveResult(profiles=_damped_iteration(env, lams, config))


def dist_abee_solve(
    env: GameEnvironment,
    lams: tuple[PartitionDistribution, PartitionDistribution],
    config: SolveConfig | None = None,
) -> list[StrategyProfile]:
    return dist_abee_solve_detailed(env, lams, config).profiles


def abee_solve(
    env: GameEnvironment,
    partitions: tuple[Partition, Partition],
    config: SolveConfig | None = None,
) -> list[StrategyProfile]:
    """Equilibria for one fixed analogy partition per player."""
    return dist_abee_solve(env, degenerate_pair(*partitions), config)
