"""Clustering of opponent behavior: divergences, prototypes, dispersion.

Data points are per-game distributions over the opponent's actions (rows of
an (n_games, n_actions) array).  A partition is locally clustered when every
point is weakly nearest to its own class prototype, and globally clustered
when it minimizes the prior-weighted within-class dispersion over all
partitions with at most K classes.

`divergence_eval` is the scalar definition.  The batched kernels are
`_prototype_divergences` (every point against every prototype) and
`_class_sums` (class sums and dispersion of every row of a label array);
`_lloyd` is the one Lloyd iteration on them, and `kmeans_lloyd` its N = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .partitions import DEFAULT_ENUMERATION_CAP, Partition, label_array

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


def prototype(data: np.ndarray, members, prior: np.ndarray) -> np.ndarray:
    """Prior-weighted mean of the class members.

    The mean minimizes within-class dispersion for every divergence kind
    handled here (all are Bregman divergences in the relevant coordinate).
    """
    members = list(members)
    if not members:
        raise ValueError("empty class has no prototype")
    w = np.asarray(prior, dtype=float)[members]
    pts = np.asarray(data, dtype=float)[members]
    return w @ pts / w.sum()


def dispersion(data: np.ndarray, partition: Partition, prior: np.ndarray, d: Divergence) -> float:
    """Prior-weighted within-class divergence to class prototypes."""
    data = np.asarray(data, dtype=float)
    prior = np.asarray(prior, dtype=float)
    total = 0.0
    for cls in partition.classes:
        proto = prototype(data, cls, prior)
        for g in cls:
            total += prior[g] * divergence_eval(d, data[g], proto)
    return total


def class_prototypes(data: np.ndarray, partition: Partition, prior: np.ndarray) -> np.ndarray:
    return np.stack([prototype(data, cls, prior) for cls in partition.classes])


def _projected(data, d: Divergence) -> tuple[np.ndarray, Divergence]:
    """Data and divergence, with the mean divergence's data projected onto the
    action values (a trailing axis of length 1) under squared Euclidean."""
    data = np.asarray(data, dtype=float)
    if d.kind == SQUARED_MEAN_DIFFERENCE:
        return (data @ np.asarray(d.action_values, dtype=float))[..., None], L2
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


def is_locally_clustered(
    data: np.ndarray,
    partition: Partition,
    prior: np.ndarray,
    d: Divergence,
    tol: float = LOCAL_TOL,
) -> tuple[bool, tuple[int, int] | None]:
    """Weak nearest-own-prototype test, with a (game, better class) witness.

    Equal distances do not fail the test; `tol` only absorbs floating-point
    noise in the comparison.  The witness is the first failing game in
    class-major order, with the first class it prefers.
    """
    dist = _prototype_divergences(data, class_prototypes(data, partition, prior), d)
    games = np.arange(partition.n_games)
    own = np.array(partition.assignment())
    better = dist < dist[games, own][:, None] - tol
    better[games, own] = False
    order = [g for cls in partition.classes for g in cls]
    failing = better[order].any(axis=1)
    if not failing.any():
        return True, None
    g = order[int(failing.argmax())]
    return False, (g, int(better[g].argmax()))


def _class_sums(data: np.ndarray, prior: np.ndarray, labels: np.ndarray, n_classes: int, kl: bool):
    """Prior-weighted class sums S_c (P, n_classes, dim), class masses W_c
    (P, n_classes) and dispersions (P,) of every row of a (P, n_games) label
    array.  data is one (n_games, dim) data set shared by every row, or a
    (P, n_games, dim) batch with one data set per row.

    The dispersion is the Bregman identity (point term minus class term):
    for squared Euclidean sum p*|x|^2 - sum_c |S_c|^2/W_c, for KL
    sum p*H(x) - sum_c W_c*H(S_c/W_c) with H(x) = sum x*ln(x).
    """
    n_parts, n_games = labels.shape
    rows = np.arange(n_parts)
    weighted = prior[:, None] * data
    sums = np.zeros((n_parts, n_classes, data.shape[-1]))
    mass = np.zeros((n_parts, n_classes))
    for g in range(n_games):
        # one label per row, so the (row, label) indices are distinct and += is exact
        sums[rows, labels[:, g]] += weighted[..., g, :]
        mass[rows, labels[:, g]] += prior[g]
    point_term = (_plogp(data) if kl else data**2).sum(axis=-1) @ prior
    safe = np.where(mass > 0, mass, 1.0)  # empty classes have zero sums
    if kl:
        class_term = (mass * _plogp(sums / safe[:, :, None]).sum(axis=2)).sum(axis=1)
    else:
        class_term = ((sums**2).sum(axis=2) / safe).sum(axis=1)
    return sums, mass, np.maximum(point_term - class_term, 0.0)


def _batched_dispersions(
    data: np.ndarray, prior: np.ndarray, labels: np.ndarray, d: Divergence
) -> np.ndarray:
    """Dispersion of every partition of a (P, n_games) label array at once,
    for one data set or one per row (see `_class_sums`)."""
    data, d = _projected(data, d)
    prior = np.asarray(prior, dtype=float)
    return _class_sums(data, prior, labels, int(labels.max()) + 1, d.kind == KULLBACK_LEIBLER)[2]


def _lloyd(data, prior, protos, d: Divergence, max_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iteration on each row of an (N, n_games, dim) data batch from
    its (N, k, dim) initial prototypes: games go to the nearest prototype
    (the first on ties), prototypes to their class's prior-weighted mean.  A
    class that empties is dropped by giving it infinite distance.  A row that
    repeats its assignment stays put; the rounds stop when every row has, or
    after max_rounds.  Returns the final labels (N, n_games), dropped classes'
    labels unused, and the dispersion after each round (rounds, N).
    """
    data, kind = _projected(data, d)
    protos, _ = _projected(protos, d)
    prior = np.asarray(prior, dtype=float)
    labels = np.full(data.shape[:2], -1)
    dropped = np.zeros(protos.shape[:2], dtype=bool)
    history = []
    for _ in range(max_rounds):
        dist = _prototype_divergences(data, protos, kind)
        new = np.where(dropped[:, None, :], np.inf, dist).argmin(axis=2)
        sums, mass, disp = _class_sums(data, prior, new, protos.shape[1], kind.kind == KULLBACK_LEIBLER)
        dropped = mass == 0
        protos = np.where(dropped[..., None], protos, sums / np.where(dropped, 1.0, mass)[..., None])
        history.append(disp)
        if np.array_equal(new, labels):
            break
        labels = new
    return labels, np.array(history)


# winners of global_cluster, keyed by (n_games, max_classes, label row)
_WINNERS: dict[tuple[int, int, int], Partition] = {}


def _winner(labels: np.ndarray, max_classes: int, row: int) -> Partition:
    key = (labels.shape[1], max_classes, row)
    part = _WINNERS.get(key)
    if part is None:
        part = _WINNERS[key] = Partition.from_assignment(labels[row].tolist())
    return part


def global_cluster(
    data: np.ndarray,
    prior: np.ndarray,
    max_classes: int,
    d: Divergence,
    tie_tol: float = TIE_TOL,
    enumeration_cap: int | None = None,
) -> tuple[list[Partition], float]:
    """All partitions attaining the minimal dispersion, and that minimum.

    Exhaustive over partitions with at most `max_classes` classes, in the
    order of `partition_list`; ties are reported within `tie_tol`.  Size
    errors from the enumeration propagate.
    """
    n = np.asarray(data).shape[0]
    cap = DEFAULT_ENUMERATION_CAP if enumeration_cap is None else enumeration_cap
    labels = label_array(n, max_classes, cap)
    disp = _batched_dispersions(data, prior, labels, d)
    best = float(disp.min())
    winners = [_winner(labels, max_classes, int(r)) for r in np.flatnonzero(disp <= best + tie_tol)]
    return winners, best


@dataclass
class ClusteringReport:
    """Outcome of a clustering run, checked against the raw objective."""

    partition: Partition
    prototypes: np.ndarray
    dispersion: float
    locally_clustered: bool
    globally_clustered: bool | None  # None when global optimality was not checked
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

    Stops when assignments are stable.  A class that empties is dropped and
    counted in the report.  The result always passes the local-clustering
    test and the dispersion history is nonincreasing.
    """
    data, init = np.asarray(data, dtype=float), np.asarray(init, dtype=float)
    if not 1 <= len(init) <= max_classes:
        raise ValueError(f"need 1 to {max_classes} initial representatives, got {len(init)}")
    labels, history = _lloyd(data[None], prior, init[None], d, max_iter)
    part = Partition.from_assignment(labels[0])
    local, _ = is_locally_clustered(data, part, prior, d)
    return ClusteringReport(
        partition=part,
        prototypes=class_prototypes(data, part, prior),
        dispersion=float(history[-1, 0]),
        locally_clustered=local,
        globally_clustered=None,
        iterations=len(history),
        dispersion_history=history[:, 0].tolist(),
        dropped_classes=len(init) - part.n_classes,
    )
