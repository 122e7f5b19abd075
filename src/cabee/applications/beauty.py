"""Coordination games on a fundamental-value grid.

Payoffs are -(1-r)(a - theta)^2 - r(a - a_other)^2: players trade off
tracking the fundamental against matching the opponent.  Best replies are
linear in the opponent's mean action, so strategies are identified with
their means and behavior is compared through squared mean differences.
Under a common partition of the fundamental grid the equilibrium action is
(1-r)*theta + r*classmean(theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..clustering import L2, class_prototypes, local_margins, partition_dispersions, subset_table
from ..env import GameEnvironment, make_environment
from ..partitions import Partition, class_masks

LOCAL_SLACK = 1e-12


@dataclass(frozen=True)
class BeautyContestSpec:
    r: float
    thetas: tuple[float, ...]
    weights: tuple[float, ...]
    K: int

    def __post_init__(self):
        if not 0 < self.r < 1:
            raise ValueError("coordination weight r must lie in (0, 1)")
        if len(self.thetas) != len(self.weights) or not self.thetas:
            raise ValueError("grid and weights must match and be nonempty")
        if min(self.weights) <= 0 or abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if self.K < 1:
            raise ValueError("need at least one class")

    @property
    def n(self) -> int:
        return len(self.thetas)


def uniform_spec(r: float, n: int, K: int) -> BeautyContestSpec:
    """Cell-centered uniform grid on [0, 1]."""
    thetas = tuple((k + 0.5) / n for k in range(n))
    return BeautyContestSpec(r, thetas, (1.0 / n,) * n, K)


def best_reply(spec: BeautyContestSpec, theta: float, opponent_mean: float) -> float:
    return (1.0 - spec.r) * theta + spec.r * opponent_mean


def class_means(spec: BeautyContestSpec, partition: Partition) -> np.ndarray:
    return class_prototypes(np.asarray(spec.thetas)[:, None], partition, spec.weights)[:, 0]


def abee_actions(spec: BeautyContestSpec, partition: Partition) -> np.ndarray:
    """The symmetric equilibrium action per grid point for a common
    partition: (1-r)*theta + r*classmean."""
    means = class_means(spec, partition)
    assign = partition.assignment()
    th = np.asarray(spec.thetas)
    return (1.0 - spec.r) * th + spec.r * means[list(assign)]


def beauty_cabee_check(spec: BeautyContestSpec, partition: Partition) -> tuple[bool, float]:
    """Local clustering of the equilibrium actions, with the minimal slack.

    Class prototypes of the action data are the class theta-means for every
    r, so the test compares |a - mean_k| across classes.  The margin is the
    smallest slack over all point/other-class comparisons; nonnegative
    margin (up to noise) means locally clustered.
    """
    means = class_means(spec, partition)
    if len(means) >= 2 and np.min(np.diff(np.sort(means))) < 1e-12:
        raise ValueError("partition has non-distinct class means")
    margins, _ = local_margins(abee_actions(spec, partition)[:, None], partition, spec.weights, L2)
    own = np.eye(partition.n_classes, dtype=bool)[list(partition.assignment())]
    margin = float(np.min(margins[~own], initial=np.inf))
    return margin >= -LOCAL_SLACK, margin


# ---------------------------------------------------------------------------
# finite-game bridge
# ---------------------------------------------------------------------------


def discretize_beauty(spec: BeautyContestSpec, n_actions: int | None = None) -> GameEnvironment:
    """Finite environment: games = grid fundamentals, actions = the same grid.

    Payoff tensors are (n_actions, n_actions, n_games); memory grows with
    the cube of the grid size, so keep grids at desk scale.  Finite-game
    equilibria approach the closed form as the grid refines.
    """
    if n_actions is None:
        n_actions = spec.n
    if n_actions < spec.K:
        raise ValueError("need at least as many actions as classes")
    acts = np.array([(k + 0.5) / n_actions for k in range(n_actions)])
    th = np.asarray(spec.thetas)
    a_i = acts[:, None, None]
    a_j = acts[None, :, None]
    theta = th[None, None, :]
    pay = -(1.0 - spec.r) * (a_i - theta) ** 2 - spec.r * (a_i - a_j) ** 2
    return make_environment(spec.weights, pay, pay.copy(), game_labels=[f"{t:.4g}" for t in th])


def discrete_abee(
    spec: BeautyContestSpec,
    partition: Partition,
    n_actions: int | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Symmetric equilibrium of the discretized game for a common partition.

    Iterates on the per-class opponent means, for at most 10,000 steps:
    actions are the grid points nearest to the continuous best replies, and
    the means move halfway to those recomputed from the prior.  Returns
    (action values per game, class means, worst deviation gain over the
    full action grid), the gain measured against the quadratic payoff.
    """
    if n_actions is None:
        n_actions = spec.n
    if n_actions < spec.K:
        raise ValueError("need at least as many actions as classes")
    acts = np.array([(k + 0.5) / n_actions for k in range(n_actions)])
    th = np.asarray(spec.thetas)
    w = np.asarray(spec.weights)
    assign = np.array(partition.assignment())
    means = class_means(spec, partition)
    for _ in range(10_000):
        targets = (1.0 - spec.r) * th + spec.r * means[assign]
        idx = np.argmin(np.abs(acts[None, :] - targets[:, None]), axis=1)
        chosen = acts[idx]
        new_means = class_prototypes(chosen[:, None], partition, w)[:, 0]
        if np.max(np.abs(new_means - means)) < 1e-13:
            means = new_means
            break
        means = 0.5 * means + 0.5 * new_means
    targets = (1.0 - spec.r) * th + spec.r * means[assign]
    idx = np.argmin(np.abs(acts[None, :] - targets[:, None]), axis=1)
    chosen = acts[idx]
    # worst gain from deviating to any grid action against the class mean
    gain = 0.0
    for g in range(spec.n):
        mean = means[assign[g]]
        utils = -(1.0 - spec.r) * (acts - th[g]) ** 2 - spec.r * (acts - mean) ** 2
        played = -(1.0 - spec.r) * (chosen[g] - th[g]) ** 2 - spec.r * (chosen[g] - mean) ** 2
        gain = max(gain, float(utils.max() - played))
    return chosen, means, gain


# ---------------------------------------------------------------------------
# contiguous-partition clustering of the induced data
# ---------------------------------------------------------------------------


def contiguous_partitions(n: int, n_classes: int):
    """Interval partitions of 0..n-1 with exactly n_classes classes."""
    for cuts in combinations(range(1, n), n_classes - 1):
        edges = (0,) + cuts + (n,)
        yield Partition.from_classes(
            n, [tuple(range(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        )


def _segment_costs(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(n+1, n+1) squared dispersions from prefix sums (Fisher 1958): entry
    [i, j] is that of the points i..j-1, inf where the mass is not positive."""
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wv = np.concatenate([[0.0], np.cumsum(weights * values)])
    wv2 = np.concatenate([[0.0], np.cumsum(weights * values**2)])
    mass = w[None, :] - w[:, None]
    s, s2 = wv[None, :] - wv[:, None], wv2[None, :] - wv2[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mass > 0, s2 - s * s / mass, np.inf)


def _best_path(cost: np.ndarray, n_classes: int) -> float:
    """Minimal sum of n_classes segment costs covering all points, by dynamic
    programming vectorized over the split point; each path is added from
    the left."""
    dp = np.full(len(cost), np.inf)
    dp[0] = 0.0
    for _ in range(n_classes):
        dp = (dp[:, None] + cost).min(axis=0)
    return float(dp[-1])


def best_contiguous_dispersion(values: np.ndarray, weights: np.ndarray, n_classes: int) -> float:
    """Minimal squared-dispersion over interval partitions."""
    return _best_path(_segment_costs(values, weights), n_classes)


def self_consistent_contiguous(
    spec: BeautyContestSpec, n_classes: int, tie_tol: float = 1e-10
) -> list[Partition]:
    """Interval partitions that are dispersion-minimizing for the data they
    themselves induce through the equilibrium map.  A partition's own
    dispersion adds its classes' segment costs from the left, as the dynamic
    program adds its optimal path, so an optimal partition ties bit for bit."""
    w = np.asarray(spec.weights)
    out = []
    for part in contiguous_partitions(spec.n, n_classes):
        cost = _segment_costs(abee_actions(spec, part), w)
        own = 0.0
        for cls in part.classes:
            own += cost[cls[0], cls[-1] + 1]
        if own <= _best_path(cost, n_classes) + tie_tol:
            out.append(part)
    return out


def equal_split_partition(n: int, n_classes: int) -> Partition:
    if n % n_classes:
        raise ValueError("grid size must be divisible by the class count")
    size = n // n_classes
    return Partition.from_classes(
        n, [tuple(range(k * size, (k + 1) * size)) for k in range(n_classes)]
    )


def contiguity_is_sufficient(spec: BeautyContestSpec, n_classes: int, tie_tol: float = 1e-10) -> bool:
    """Brute-force check (small grids) that no non-contiguous partition
    beats the best contiguous one on the induced data of any contiguous
    candidate."""
    w = np.asarray(spec.weights)
    actions = np.stack([abee_actions(spec, part) for part in contiguous_partitions(spec.n, n_classes)])
    best_contig = np.array([best_contiguous_dispersion(acts, w, n_classes) for acts in actions])
    disp = partition_dispersions(subset_table(actions[:, :, None], w, L2), class_masks(spec.n, n_classes))
    return bool((disp.min(axis=0) >= best_contig - tie_tol).all())
