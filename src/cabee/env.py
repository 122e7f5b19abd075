"""Finite families of two-player normal-form games.

A GameEnvironment is the prior over games and the two payoff tensors
indexed (own action, other action, game); games and actions are their
indices.  All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12  # validation tolerance for probability data
SOLVER_TOL = 1e-9  # tolerance for solver outputs / equilibrium checks


class UnknownGameError(KeyError):
    """Raised when a game index is outside the environment."""


class ShapeError(ValueError):
    """Raised when an operation requires a game shape it does not have."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def validate_mixed(probs: np.ndarray, tol: float = PROB_TOL) -> list[str]:
    """Violations of the mixed-action invariants (entries in [0,1], sum 1)."""
    probs = np.asarray(probs, dtype=float)
    out = []
    if probs.ndim != 1 or probs.size == 0:
        return ["mixed action must be a nonempty vector"]
    if np.any(probs < -tol) or np.any(probs > 1 + tol):
        out.append(f"mixed action entries outside [0,1]: {probs}")
    s = float(probs.sum())
    if abs(s - 1.0) > tol:
        out.append(f"mixed action sums to {s}")
    return out


@dataclass(frozen=True)
class GameEnvironment:
    """Finite set of two-player games with a common prior.

    payoffs[i] has shape (|A_i|, |A_j|, n_games): own action first, other
    action second, game last.  Games, actions and classes are referenced by
    integer index throughout.
    """

    prior: np.ndarray
    payoffs: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "prior", _freeze(self.prior))
        object.__setattr__(
            self, "payoffs", (_freeze(self.payoffs[0]), _freeze(self.payoffs[1]))
        )

    @property
    def n_games(self) -> int:
        return int(self.prior.shape[0]) if self.prior.ndim == 1 else 0

    def n_actions(self, player: int) -> int:
        return int(self.payoffs[player].shape[0])

    def payoff_slice(self, player: int, game: int) -> np.ndarray:
        """(own, other) payoff matrix of `player` in `game`."""
        if not 0 <= game < self.n_games:
            raise UnknownGameError(game)
        return self.payoffs[player][:, :, game]


def common_prior(envs) -> np.ndarray:
    """The prior of one environment, or the one prior of a sequence of
    environments; ValueError when their priors differ."""
    if isinstance(envs, GameEnvironment):
        return envs.prior
    priors = [env.prior for env in envs]
    if any(not np.array_equal(p, priors[0]) for p in priors[1:]):
        raise ValueError("the rows' environments have different priors")
    return priors[0]


def validate_environment(env: GameEnvironment) -> list[str]:
    """One entry per violated invariant; empty list iff well formed."""
    violations: list[str] = []
    prior = np.asarray(env.prior, dtype=float)
    if prior.ndim != 1 or prior.size < 1:
        violations.append("prior must be a nonempty vector")
        return violations
    n = prior.size
    if np.any(prior <= 0):
        violations.append("prior entries must be strictly positive")
    s = float(prior.sum())
    if abs(s - 1.0) > PROB_TOL:
        violations.append(f"prior sums to {s}")
    for player in (0, 1):
        tensor = env.payoffs[player]
        if tensor.ndim != 3:
            violations.append(f"payoff tensor for player {player} must be 3-d")
            continue
        own, other, games = tensor.shape
        if own < 1:
            violations.append(f"A_{'ij'[player]} empty")
        if other < 1:
            violations.append(f"A_{'ji'[player]} empty")
        if games != n:
            violations.append(
                f"payoff tensor for player {player} covers {games} games, prior covers {n}"
            )
        if not np.all(np.isfinite(tensor)):
            violations.append(f"payoff tensor for player {player} has non-finite entries")
    a0 = env.payoffs[0].shape[:2]
    a1 = env.payoffs[1].shape[:2]
    if a0[0] != a1[1] or a0[1] != a1[0]:
        violations.append("payoff tensors disagree on action-set sizes")
    return violations


def expected_utility(
    env: GameEnvironment, player: int, game: int, own: np.ndarray, other: np.ndarray
) -> float:
    """Bilinear expected payoff of `player` in `game` under mixed actions."""
    mat = env.payoff_slice(player, game)
    own = np.asarray(own, dtype=float)
    other = np.asarray(other, dtype=float)
    return float(own @ mat @ other)


def pure_payoffs_against(env: GameEnvironment, player: int, game: int, other: np.ndarray):
    """Payoff of each own pure action against the opponent mixture."""
    return env.payoff_slice(player, game) @ np.asarray(other, dtype=float)


def nash_solve_2x2(env: GameEnvironment, game: int) -> tuple[np.ndarray, np.ndarray]:
    """A Nash equilibrium of one 2x2 game.

    Pure equilibria are found by best-response scan; otherwise the unique
    interior mixture is recovered from the indifference conditions.
    """
    if env.n_actions(0) != 2 or env.n_actions(1) != 2:
        raise ShapeError("nash_solve_2x2 requires two actions per player")
    u0 = env.payoff_slice(0, game)
    u1 = env.payoff_slice(1, game)
    # pure scan
    for a in range(2):
        for b in range(2):
            if u0[a, b] >= u0[1 - a, b] and u1[b, a] >= u1[1 - b, a]:
                own = np.eye(2)[a]
                other = np.eye(2)[b]
                return own, other
    # interior mixing: each side mixes to make the other indifferent;
    # d1[a] is player 1's advantage of its action 0 when player 0 plays a,
    # and q*d1[0] + (1-q)*d1[1] = 0 pins q = P(player 0 plays action 0).
    d1 = u1[0] - u1[1]
    q = -d1[1] / (d1[0] - d1[1])
    d0 = u0[0] - u0[1]
    p = -d0[1] / (d0[0] - d0[1])
    own = np.array([q, 1 - q])
    other = np.array([p, 1 - p])
    if validate_mixed(own, tol=SOLVER_TOL) or validate_mixed(other, tol=SOLVER_TOL):
        raise ShapeError(f"game {game} has no 2x2 equilibrium in scope")
    return own, other


def make_environment(prior, payoff_i, payoff_j) -> GameEnvironment:
    return GameEnvironment(prior, (payoff_i, payoff_j))
