"""Coordination games on a fundamental-value grid.

Payoffs are -(1-r)(a - theta)^2 - r(a - a_other)^2: players trade off
tracking the fundamental against matching the opponent.  Best replies are
linear in the opponent's mean action, so strategies are identified with
their means and behavior is compared through squared mean differences.
Under a common partition of the fundamental grid the equilibrium action is
(1-r)*theta + r*classmean(theta).

Interval partitions of the grid are held as integer arrays of class edges,
in blocks of `BLOCK` rows.  The self-consistency sweep reads every class
mean off one table of interval means, builds one block's actions and
segment-cost tables at a time, and runs Fisher's (1958) interval dynamic
program batched over the block; only the partitions it returns become
`Partition` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from ..clustering import L2, TIE_TOL, class_prototypes, local_margins, member_means, partition_dispersions, subset_table
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
    return make_environment(spec.weights, pay, pay.copy())


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


# Interval partitions per block of the sweep: one block's cost tables are
# (BLOCK, n+1, n+1), so memory stays bounded whatever C(n-1, K-1) is.
BLOCK = 16


def _edge_blocks(n: int, n_classes: int):
    """Class edges of the interval partitions of 0..n-1 with exactly
    n_classes classes, as (B, n_classes + 1) blocks of at most BLOCK rows:
    row (0, c_1, ..., c_{K-1}, n) has the classes c_k..c_{k+1}-1.  Cut
    positions come lazily from `combinations`, in its order."""
    cuts = combinations(range(1, n), n_classes - 1)
    while block := list(islice(cuts, BLOCK)):
        edges = np.empty((len(block), n_classes + 1), dtype=np.intp)
        edges[:, 0], edges[:, 1:-1], edges[:, -1] = 0, block, n
        yield edges


def _interval_partition(n: int, edges) -> Partition:
    return Partition.from_classes(n, [tuple(range(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])])


def _interval_means(spec: BeautyContestSpec) -> np.ndarray:
    """(n+1, n+1) class means of every interval: entry [i, j] is that of the
    grid points i..j-1.  The intervals of one length share one
    `member_means` call, as the classes of one size do in
    `class_prototypes`, so the means equal `class_means` bit for bit."""
    th, w = np.asarray(spec.thetas, dtype=float)[:, None], np.asarray(spec.weights, dtype=float)
    table = np.full((spec.n + 1, spec.n + 1), np.nan)
    for size in range(1, spec.n + 1):
        members = np.arange(spec.n - size + 1)[:, None] + np.arange(size)
        table[members[:, 0], members[:, -1] + 1] = member_means(th, w, members)[:, 0]
    return table


def _interval_actions(spec: BeautyContestSpec, edges: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(B, n) `abee_actions` of the interval partitions with class edges
    (B, K+1), reading each point's class mean off the `_interval_means`
    table."""
    sizes = np.diff(edges, axis=1).ravel()
    lo, hi = np.repeat(edges[:, :-1].ravel(), sizes), np.repeat(edges[:, 1:].ravel(), sizes)
    th = np.asarray(spec.thetas)
    return (1.0 - spec.r) * th + spec.r * means[lo, hi].reshape(len(edges), spec.n)


def _prefix(x: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, led by 0."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def _mass_table(weights: np.ndarray) -> np.ndarray:
    """(n+1, n+1) prior mass of the points i..j-1 at [i, j]."""
    w = _prefix(weights)
    return w[None, :] - w[:, None]


def _segment_costs(values: np.ndarray, weights: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """(..., n+1, n+1) squared dispersions from prefix sums (Fisher 1958),
    one table per row of values (..., n): entry [i, j] is s2 - s*s/mass over
    the points i..j-1, inf where `mass` (the `_mass_table` of weights) is
    not positive."""
    wv, wv2 = _prefix(weights * values), _prefix(weights * values**2)
    s = wv[..., None, :] - wv[..., :, None]
    cost = wv2[..., None, :] - wv2[..., :, None]
    s *= s
    with np.errstate(divide="ignore", invalid="ignore"):
        s /= mass
    cost -= s
    np.copyto(cost, np.inf, where=mass <= 0)
    return cost


def _best_path(cost: np.ndarray, n_classes: int) -> np.ndarray:
    """Minimal sums of n_classes segment costs covering all points, one per
    table of cost (..., n+1, n+1), by dynamic programming vectorized over
    the split point; each path is added from the left.  The first class
    starts at point 0 and the last ends at point n, so only the classes
    between them take a full table step."""
    if n_classes < 1:
        raise ValueError("need at least one class")
    dp = cost[..., 0, :]
    for _ in range(n_classes - 2):
        dp = (dp[..., :, None] + cost).min(axis=-2)
    return dp[..., -1] if n_classes == 1 else (dp + cost[..., :, -1]).min(axis=-1)


def self_consistent_contiguous(spec: BeautyContestSpec, n_classes: int) -> list[Partition]:
    """Interval partitions that are dispersion-minimizing for the data they
    themselves induce through the equilibrium map.

    One pass over `_edge_blocks`: per block, the induced actions, their
    segment-cost tables and the dynamic program, all batched; only the
    winners become `Partition` objects.  A partition's own dispersion adds
    its classes' segment costs from the left, as the dynamic program adds
    its optimal path, so an optimal partition ties bit for bit."""
    w = np.asarray(spec.weights, dtype=float)
    mass, means = _mass_table(w), _interval_means(spec)
    out = []
    for edges in _edge_blocks(spec.n, n_classes):
        cost = _segment_costs(_interval_actions(spec, edges, means), w, mass)
        rows = np.arange(len(edges))
        own = np.zeros(len(edges))
        for k in range(n_classes):
            own = own + cost[rows, edges[:, k], edges[:, k + 1]]
        winners = edges[own <= _best_path(cost, n_classes) + TIE_TOL]
        out.extend(_interval_partition(spec.n, row) for row in winners)
    return out


def equal_split_partition(n: int, n_classes: int) -> Partition:
    if n % n_classes:
        raise ValueError("grid size must be divisible by the class count")
    size = n // n_classes
    return Partition.from_classes(
        n, [tuple(range(k * size, (k + 1) * size)) for k in range(n_classes)]
    )


def contiguity_is_sufficient(spec: BeautyContestSpec, n_classes: int) -> bool:
    """Brute-force check (small grids) that no non-contiguous partition
    beats the best contiguous one on the induced data of any contiguous
    candidate."""
    w = np.asarray(spec.weights, dtype=float)
    means = _interval_means(spec)
    actions = np.concatenate([_interval_actions(spec, e, means) for e in _edge_blocks(spec.n, n_classes)])
    best_contig = _best_path(_segment_costs(actions, w, _mass_table(w)), n_classes)
    disp = partition_dispersions(subset_table(actions[:, :, None], w, L2), class_masks(spec.n, n_classes))
    return bool((disp.min(axis=0) >= best_contig - TIE_TOL).all())
