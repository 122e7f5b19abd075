"""Clustering of opponent behavior: divergences, prototypes, dispersion.

Data points are per-game distributions over the opponent's actions (rows of
an (n_games, n_actions) array).  A partition is locally clustered when every
point is weakly nearest to its own class prototype, and globally clustered
when it minimizes the prior-weighted within-class dispersion over all
partitions with at most K classes.

`divergence_eval` is the scalar definition.  `class_prototypes` is the
class-mean kernel for one partition: the clustering prototypes, which are
also ABEE's analogy-class expectations; `row_prototypes` gives the same
means, bit for bit, for a batch whose data sets each have their own
partition (as class labels), as the search's rows of different supports
do.  The two stay apart because each is the faster one on its own inputs:
`row_prototypes` costs 3 to 5 times as much per call on one partition, and
one `class_prototypes` call per partition of a mixed batch made the
`search` benchmark 5 to 9 % slower.  `labelled_prototypes` picks between
them, and through it every other kernel takes a Partition or per-row
labels alike: `local_margins` (each point's divergence to every prototype
less that to its own) is the one margin kernel, which serves the local
test `local_witnesses`, the search's local margins and the beauty-contest
check, and `dispersion`, which adds its own-prototype terms in class-major
order, the one dispersion kernel for a given partition.  Both
clustering tests take batches of data sets (`local_witnesses`, of one
partition or one per data set, and `global_cluster_batch`, over the
minimizer table of `dispersion_minimizers`), and `is_locally_clustered`
and `global_cluster` are their one-data-set case.  The batched kernels are
`_prototype_divergences` (every point against every prototype) and
`subset_table` with `partition_dispersions` (every enumerated partition,
from the class terms of all game subsets, which `_subset_sums` adds up).
`kmeans_lloyd` runs Lloyd's iteration on one data set with these
kernels and `numeric.first_best` for the nearest prototype (model 1's
Lloyd variant maps partitions to partitions on the subset sums instead, in
`learning`).  A batch may be held in any memory layout (model 1 holds its
draws game-major): the kernels give the same values bit for bit on it as
on a row-major copy, for data with fewer than 8 actions, whose sums numpy
adds in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numeric import first_best, sum_left
from .partitions import Partition, class_masks

TIE_TOL = 1e-10  # dispersion comparison tolerance for minimizer sets
LOCAL_TOL = 1e-12  # slack absorbed by the weak local-clustering inequality

SQUARED_EUCLIDEAN = "squared-euclidean"
KULLBACK_LEIBLER = "kullback-leibler"
SQUARED_MEAN_DIFFERENCE = "squared-mean-difference"


@dataclass(frozen=True)
class Divergence:
    """Pointwise divergence between distributions over opponent actions.

    `squared-mean-difference` compares the scalar means induced by real
    action values and is only valid when `action_values` is provided.
    """

    kind: str = SQUARED_EUCLIDEAN
    action_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (SQUARED_EUCLIDEAN, KULLBACK_LEIBLER, SQUARED_MEAN_DIFFERENCE):
            raise ValueError(f"unknown divergence kind: {self.kind}")
        if self.kind == SQUARED_MEAN_DIFFERENCE and self.action_values is None:
            raise ValueError("squared-mean-difference needs real-valued actions")

    def __call__(self, p, q) -> float:
        return divergence_eval(self, p, q)


L2 = Divergence(SQUARED_EUCLIDEAN)
KL = Divergence(KULLBACK_LEIBLER)


def mean_divergence(action_values) -> Divergence:
    return Divergence(SQUARED_MEAN_DIFFERENCE, tuple(float(v) for v in action_values))


def divergence_eval(d: Divergence, p, q) -> float:
    """Divergence from data point p to prototype q.

    KL uses the data point first (sum p*ln(p/q), 0*ln0 = 0) and returns
    math.inf when q's support does not cover p's.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if d.kind == SQUARED_EUCLIDEAN:
        return float(np.sum((p - q) ** 2))
    if d.kind == SQUARED_MEAN_DIFFERENCE:
        v = np.asarray(d.action_values, dtype=float)
        return float((p @ v - q @ v) ** 2)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def class_prototypes(data: np.ndarray, partition: Partition, prior: np.ndarray) -> np.ndarray:
    """Prior-weighted class means, one row per class: (..., n_games, dim)
    data give (..., n_classes, dim).

    The mean minimizes within-class dispersion for every divergence kind
    handled here (all are Bregman divergences in the relevant coordinate),
    and it is the analogy-class expectation of ABEE consistency.  Each
    class mean is `w @ data[cls] / w.sum()`; the classes of one size
    (`Partition.size_groups`) share one matmul over contiguous per-class
    blocks, whose products round as the single-class product does.
    """
    data = np.asarray(data, dtype=float)
    prior = np.asarray(prior, dtype=float)
    out = np.empty(data.shape[:-2] + (partition.n_classes, data.shape[-1]))
    for rows, members in partition.size_groups():
        out[..., rows, :] = member_means(data, prior, members)
    return out


def member_means(data: np.ndarray, prior: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Prior-weighted means of equal-size groups of games: (k, size) member
    indices into (..., n_games, dim) data give (..., k, dim), one stacked
    matmul for all groups."""
    w = prior[members]
    means = w[:, None, :] @ data.take(members, axis=-2)
    return means[..., 0, :] / w.sum(axis=1)[:, None]


def row_prototypes(data: np.ndarray, labels: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """`class_prototypes` of each data set of a (B, n_games, dim) batch under
    its own partition, given as (B, n_games) canonical class labels
    (`Partition.assignment`): (B, K, dim), K the most classes of any, 0
    past a data set's class count.  The classes of one size, over all data
    sets, share one stacked matmul whose products round as those of
    `member_means` do, so each row equals `class_prototypes` bit for bit."""
    data = np.asarray(data, dtype=float)
    prior = np.asarray(prior, dtype=float)
    labels = np.asarray(labels)
    k = int(labels.max()) + 1 if labels.size else 1
    sizes = (labels[:, :, None] == np.arange(k)).sum(axis=1)  # (B, K) class sizes
    starts = np.cumsum(sizes, axis=1) - sizes
    games = np.argsort(labels, axis=1, kind="stable")  # each row's games, class by class
    out = np.zeros((len(labels), k, data.shape[-1]))
    for size in (np.flatnonzero(np.bincount(sizes.ravel())[1:]) + 1).tolist():
        rows, cls = np.nonzero(sizes == size)
        members = games[rows[:, None], starts[rows, cls][:, None] + np.arange(size)]
        w = prior[members]
        out[rows, cls] = (w[:, None, :] @ data[rows[:, None], members])[:, 0, :] / w.sum(axis=1)[:, None]
    return out


def dispersion(data: np.ndarray, partition, prior: np.ndarray, d: Divergence):
    """Prior-weighted within-class divergence to class prototypes.

    data is one (n_games, dim) data set, which gives a float, or a
    (..., n_games, dim) batch, which gives one value per data set;
    `partition` is as for `labelled_prototypes`.  Terms are added class by
    class and game by game, each the game's `divergence_eval` to its own
    prototype (from `local_margins`), so a batch entry equals the call on
    its data set alone.
    """
    prior = np.asarray(prior, dtype=float)
    protos, labels = labelled_prototypes(data, partition, prior)
    _, own = local_margins(data, labels, prior, d, protos)
    games = np.argsort(labels, axis=-1, kind="stable")  # class-major game order
    total = sum_left(prior[games] * np.take_along_axis(own, games, axis=-1))
    return float(total) if total.ndim == 0 else total


def _projected(data, d: Divergence) -> tuple[np.ndarray, Divergence]:
    """Data and divergence, with the mean divergence's data projected onto the
    action values (a trailing axis of length 1) under squared Euclidean."""
    data = np.asarray(data, dtype=float)
    if d.kind == SQUARED_MEAN_DIFFERENCE:
        # one dot product per point, which rounds as divergence_eval's `p @ v`
        # on C-order points, whatever the layout of the batch
        return np.ascontiguousarray(data)[..., None, :] @ np.asarray(d.action_values, dtype=float), L2
    return data, d


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise ln(x) where x > 0, and 0 elsewhere."""
    return np.log(np.where(x > 0, x, 1.0))


def _plogp(x: np.ndarray) -> np.ndarray:
    """Elementwise x*ln(x) with 0*ln(0) = 0."""
    return np.where(x > 0, x * _log(x), 0.0)


def _prototype_divergences(data, protos, d: Divergence) -> np.ndarray:
    """Divergence from every data point to every prototype, (..., n_games, dim)
    and (..., k, dim) to (..., n_games, k), each entry `divergence_eval`'s:
    KL takes 0*ln(0) = 0 and is inf where q's support misses p's.
    """
    p, kind = _projected(data, d)
    q, _ = _projected(protos, d)
    p, q = p[..., :, None, :], q[..., None, :, :]
    kl = kind.kind == KULLBACK_LEIBLER
    # summed one action at a time, in the order numpy sums a short axis (so each entry
    # equals divergence_eval's), and several times faster than reducing that axis
    dist = sum(
        p[..., a] * (_log(p[..., a]) - _log(q[..., a])) if kl else (p[..., a] - q[..., a]) ** 2
        for a in range(p.shape[-1])
    )
    return np.where(((p > 0) & (q <= 0)).any(axis=-1), np.inf, dist) if kl else dist


def labelled_prototypes(data: np.ndarray, partition, prior: np.ndarray, protos: np.ndarray | None = None):
    """Class means (..., K, dim) and class labels (..., n_games) of
    (..., n_games, dim) data under `partition`: a Partition, the same for
    every data set, whose `class_prototypes` and broadcast `assignment`
    they are, or (B, n_games) class labels of each data set's own, whose
    `row_prototypes` they are.  `protos` are the means, when the caller has
    them."""
    data = np.asarray(data, dtype=float)
    if isinstance(partition, Partition):
        protos = class_prototypes(data, partition, prior) if protos is None else protos
        return protos, np.broadcast_to(partition.assignment(), data.shape[:-1])
    labels = np.asarray(partition)
    return row_prototypes(data, labels, prior) if protos is None else protos, labels


def local_margins(
    data: np.ndarray, partition, prior: np.ndarray, d: Divergence, protos: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Margins of the local-clustering test of (..., n_games, dim) data:
    each game's divergence to every class prototype less that to its own
    class's, (..., n_games, K), which is exactly 0 at the own class and past
    a data set's class count; and the divergence to the own prototype,
    (..., n_games).  `partition` and `protos` are as for
    `labelled_prototypes`."""
    protos, labels = labelled_prototypes(data, partition, prior, protos)
    dist = _prototype_divergences(data, protos, d)
    own = np.take_along_axis(dist, labels[..., None], axis=-1)[..., 0]
    past = np.arange(dist.shape[-1]) > labels.max(axis=-1, initial=0)[..., None, None]
    return np.where(past, 0.0, dist - own[..., None]), own


def local_witnesses(
    data: np.ndarray, partition, prior: np.ndarray, d: Divergence, protos: np.ndarray | None = None
) -> list[tuple[int, int] | None]:
    """Weak nearest-own-prototype test of each data set of a (B, n_games, dim)
    batch: None where it holds, else a (game, better class) witness.
    `partition` and `protos` are as for `labelled_prototypes`.

    Equal distances do not fail the test; LOCAL_TOL only absorbs
    floating-point noise in the comparison.  The witness is the first
    failing game in class-major order, with the first class it prefers.
    """
    protos, labels = labelled_prototypes(data, partition, prior, protos)
    better = local_margins(data, labels, prior, d, protos)[0] < -LOCAL_TOL
    witnesses: list[tuple[int, int] | None] = [None] * len(better)
    if not better.any():
        return witnesses
    order = np.argsort(labels, axis=1, kind="stable")
    failing = np.take_along_axis(better.any(axis=2), order, axis=1)
    for b in np.flatnonzero(failing.any(axis=1)).tolist():
        g = int(order[b, failing[b].argmax()])
        witnesses[b] = (g, int(better[b, g].argmax()))
    return witnesses


def is_locally_clustered(
    data: np.ndarray, partition: Partition, prior: np.ndarray, d: Divergence
) -> tuple[bool, tuple[int, int] | None]:
    """`local_witnesses` of one (n_games, dim) data set: whether the test
    holds, and its witness."""
    witness = local_witnesses(np.asarray(data, dtype=float)[None], partition, prior, d)[0]
    return witness is None, witness


def _subset_sums(x: np.ndarray, prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class sums S (2^n, ...) and masses W (2^n,) of every subset m of the
    games (bit g set when it holds game g), from points x (n_games, ...):
    S[m + 2^g] = S[m] + p_g*x_g, so a class's members are added in game
    order, and S/W is the class mean."""
    sums = np.zeros((1 << len(x),) + x.shape[1:])
    mass = np.zeros(1 << len(x))
    for g, row in enumerate(x):
        sums[1 << g : 2 << g] = sums[: 1 << g] + prior[g] * row
        mass[1 << g : 2 << g] = mass[: 1 << g] + prior[g]
    return sums, mass


def subset_table(data: np.ndarray, prior: np.ndarray, d: Divergence):
    """Point term (...), class sums S (2^n, dim, ...), masses W (2^n,) and
    class terms T (2^n, ...) of the Bregman identity for every subset of the
    games (`_subset_sums`), on one (n_games, dim) data set or each of a
    (..., n_games, dim) batch; the mean divergence projects onto the action
    values.

    A partition's dispersion is the point term less its classes' terms: for
    squared Euclidean sum p*|x|^2 - sum_c |S_c|^2/W_c, for KL
    sum p*H(x) - sum_c W_c*H(S_c/W_c) with H(x) = sum x*ln(x).  T is
    W*|S/W|^2, or W*H(S/W) under KL, and 0 for the empty set.  The per-game
    point sums are made C-order before the product with the prior, so that
    it rounds alike whatever the layout of the batch.
    """
    x, d = _projected(data, d)
    prior = np.asarray(prior, dtype=float)
    kl = d.kind == KULLBACK_LEIBLER
    point = np.ascontiguousarray((_plogp(x) if kl else x**2).sum(axis=-1)) @ prior
    sums, mass = _subset_sums(np.moveaxis(x, (-2, -1), (0, 1)), prior)  # x as (n_games, dim, ...)
    w = mass.reshape((-1,) + (1,) * (sums.ndim - 2))  # broadcasts over the batch axes
    safe = np.where(w > 0, w, 1.0)  # the empty set has zero sums
    # summed one action at a time, which keeps one (2^n, ...) temporary per step
    terms = w * sum(_plogp(s / safe) if kl else (s / safe) ** 2 for s in sums.swapaxes(0, 1))
    return point, sums, mass, terms


def partition_dispersions(table, masks: np.ndarray) -> np.ndarray:
    """(P, ...) dispersion of every partition of a (P, K) class-mask array
    (`partitions.class_masks`) from a `subset_table`: the point term less its
    class terms summed in class order, unclipped (an exact 0 may round below)."""
    point, _, _, terms = table
    class_term = terms[masks[:, 0]]
    for c in range(1, masks.shape[1]):
        class_term += terms[masks[:, c]]
    return point - class_term


def dispersion_minimizers(
    data: np.ndarray, prior: np.ndarray, max_classes: int, d: Divergence
) -> tuple[np.ndarray, np.ndarray]:
    """Which partitions minimize the dispersion of each data set of a
    (B, n_games, dim) batch: (B, P) whether partition p (row p of
    `class_masks`, with at most max_classes classes) attains the data set's
    minimum within TIE_TOL, and the (B,) minima."""
    n_games = np.asarray(data).shape[1]
    disp = partition_dispersions(subset_table(data, prior, d), class_masks(n_games, max_classes))
    best = np.maximum(disp.min(axis=0), 0.0)  # a dispersion is never negative; 0 may round below
    return (disp <= best + TIE_TOL).T, best


def global_cluster_batch(
    data: np.ndarray, prior: np.ndarray, max_classes: int, d: Divergence
) -> tuple[list[list[Partition]], np.ndarray]:
    """`global_cluster` of each data set of a (B, n_games, dim) batch: the
    minimizer lists (`dispersion_minimizers`), and the (B,) minima."""
    n_games = np.asarray(data).shape[1]
    held, best = dispersion_minimizers(data, prior, max_classes, d)
    masks = class_masks(n_games, max_classes)
    winners: list[list[Partition]] = [[] for _ in best]
    for b, r in zip(*(index.tolist() for index in np.nonzero(held))):
        winners[b].append(Partition.from_masks(n_games, masks[r].tolist()))
    return winners, best


def global_cluster(
    data: np.ndarray, prior: np.ndarray, max_classes: int, d: Divergence
) -> tuple[list[Partition], float]:
    """All partitions attaining the minimal dispersion, and that minimum.

    Exhaustive over partitions with at most `max_classes` classes, in the
    order of `partition_list`; ties are reported within TIE_TOL.  Size
    errors from the enumeration (past `partitions.DEFAULT_ENUMERATION_CAP`
    games) propagate.
    """
    data = np.asarray(data, dtype=float)[None]
    winners, best = global_cluster_batch(data, prior, max_classes, d)
    return winners[0], float(best[0])


@dataclass
class ClusteringReport:
    """Outcome of a clustering run, checked against the raw objective."""

    partition: Partition
    prototypes: np.ndarray
    dispersion: float
    locally_clustered: bool
    iterations: int = 0
    dispersion_history: list[float] = field(default_factory=list)
    dropped_classes: int = 0


def kmeans_lloyd(
    data: np.ndarray,
    prior: np.ndarray,
    max_classes: int,
    d: Divergence,
    init: np.ndarray,
    max_iter: int = 1000,
) -> ClusteringReport:
    """Lloyd iteration from `init`, which must hold 1 to `max_classes` rows.

    Games go to the nearest prototype (the first on ties), prototypes to
    their class's prior-weighted mean.  Stops when assignments are stable, or
    after `max_iter` assignments.  A class that empties is dropped (its slot
    is at infinite distance from then on) and counted in the report.  The
    result always passes the local-clustering test and the dispersion
    history is nonincreasing.
    """
    data, init = np.asarray(data, dtype=float), np.asarray(init, dtype=float)
    if not 1 <= len(init) <= max_classes:
        raise ValueError(f"need 1 to {max_classes} initial representatives, got {len(init)}")
    if max_iter < 1:
        raise ValueError(f"need at least one assignment, got max_iter={max_iter}")
    protos = init.copy()  # slot c holds the prototype of the games labelled c
    live = np.ones(len(init), dtype=bool)
    labels, history = None, []
    for _ in range(max_iter):
        new = first_best(np.where(live, _prototype_divergences(data, protos, d), np.inf), np.minimum)
        part = Partition.from_assignment(new)
        slots = new[[cls[0] for cls in part.classes]]
        protos[slots] = class_prototypes(data, part, prior)
        live = np.isin(np.arange(len(init)), slots)  # an emptied slot stays dropped
        history.append(max(dispersion(data, part, prior, d), 0.0))  # 0 may round below
        if np.array_equal(new, labels):
            break
        labels = new
    local, _ = is_locally_clustered(data, part, prior, d)
    return ClusteringReport(
        partition=part,
        prototypes=class_prototypes(data, part, prior),
        dispersion=history[-1],
        locally_clustered=local,
        iterations=len(history),
        dispersion_history=history,
        dropped_classes=len(init) - part.n_classes,
    )
