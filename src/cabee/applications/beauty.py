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
from itertools import combinations, islice

import numpy as np

from ..clustering import L2, _batched_dispersions
from ..env import GameEnvironment, make_environment
from ..partitions import Partition, label_array

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
    th = np.asarray(spec.thetas)
    w = np.asarray(spec.weights)
    return np.array([w[list(c)] @ th[list(c)] / w[list(c)].sum() for c in partition.classes])


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
    actions = abee_actions(spec, partition)
    w = np.asarray(spec.weights)
    protos = np.array(
        [w[list(c)] @ actions[list(c)] / w[list(c)].sum() for c in partition.classes]
    )
    margin = np.inf
    for ci, cls in enumerate(partition.classes):
        for g in cls:
            own = (actions[g] - protos[ci]) ** 2
            for cj in range(partition.n_classes):
                if cj != ci:
                    margin = min(margin, (actions[g] - protos[cj]) ** 2 - own)
    if partition.n_classes < 2:
        margin = np.inf
    return margin >= -LOCAL_SLACK, float(margin)


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
    max_iter: int = 10_000,
    damping: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Symmetric equilibrium of the discretized game for a common partition.

    Iterates on the per-class opponent means: actions are the grid points
    nearest to the continuous best replies, means are recomputed from the
    prior.  Returns (action values per game, class means, worst deviation
    gain over the full action grid), the gain measured against the
    quadratic payoff.
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
    for _ in range(max_iter):
        targets = (1.0 - spec.r) * th + spec.r * means[assign]
        idx = np.argmin(np.abs(acts[None, :] - targets[:, None]), axis=1)
        chosen = acts[idx]
        new_means = np.array(
            [w[assign == c] @ chosen[assign == c] / w[assign == c].sum()
             for c in range(partition.n_classes)]
        )
        if np.max(np.abs(new_means - means)) < 1e-13:
            means = new_means
            break
        means = (1.0 - damping) * means + damping * new_means
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


def best_contiguous_dispersion(values: np.ndarray, weights: np.ndarray, n_classes: int) -> float:
    """Minimal squared-dispersion over interval partitions, by dynamic
    programming on prefix sums (Fisher 1958), vectorized over the split
    point.  Segments of nonpositive mass cost inf."""
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wv = np.concatenate([[0.0], np.cumsum(weights * values)])
    wv2 = np.concatenate([[0.0], np.cumsum(weights * values**2)])
    # cost[i, j] is the dispersion of points i..j-1
    mass = w[None, :] - w[:, None]
    s, s2 = wv[None, :] - wv[:, None], wv2[None, :] - wv2[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = np.where(mass > 0, s2 - s * s / mass, np.inf)
    dp = np.full(len(values) + 1, np.inf)
    dp[0] = 0.0
    for _ in range(n_classes):
        dp = (dp[:, None] + cost).min(axis=0)
    return float(dp[-1])


def self_consistent_contiguous(
    spec: BeautyContestSpec, n_classes: int, tie_tol: float = 1e-10
) -> list[Partition]:
    """Interval partitions that are dispersion-minimizing for the data they
    themselves induce through the equilibrium map."""
    w = np.asarray(spec.weights)
    out = []
    parts = contiguous_partitions(spec.n, n_classes)
    # scored in chunks, which bounds the memory of the action and label
    # batches; the DP stays per candidate, because its (n+1, n+1) cost
    # matrix batched over a chunk would add megabytes per temporary
    while chunk := list(islice(parts, 256)):
        actions = np.stack([abee_actions(spec, part) for part in chunk])
        labels = np.array([part.assignment() for part in chunk])
        own = _batched_dispersions(actions[:, :, None], w, labels, L2)
        out += [
            part
            for part, acts, disp in zip(chunk, actions, own)
            if disp <= best_contiguous_dispersion(acts, w, n_classes) + tie_tol
        ]
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
    labels = label_array(spec.n, n_classes)
    for part in contiguous_partitions(spec.n, n_classes):
        actions = abee_actions(spec, part)
        best_contig = best_contiguous_dispersion(actions, w, n_classes)
        if _batched_dispersions(actions[:, None], w, labels, L2).min() < best_contig - tie_tol:
            return False
    return True
