"""Clustering of opponent behavior: divergences, prototypes, dispersion.

Data points are per-game distributions over the opponent's actions (rows of
an (n_games, n_actions) array).  A partition is locally clustered when every
point is weakly nearest to its own class prototype, and globally clustered
when it minimizes the prior-weighted within-class dispersion over all
partitions with at most K classes.
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


def is_locally_clustered(
    data: np.ndarray,
    partition: Partition,
    prior: np.ndarray,
    d: Divergence,
    tol: float = LOCAL_TOL,
) -> tuple[bool, tuple[int, int] | None]:
    """Weak nearest-own-prototype test, with a (game, better class) witness.

    Equal distances do not fail the test; `tol` only absorbs floating-point
    noise in the comparison.
    """
    protos = class_prototypes(data, partition, prior)
    for ci, cls in enumerate(partition.classes):
        for g in cls:
            own = divergence_eval(d, data[g], protos[ci])
            for cj in range(partition.n_classes):
                if cj == ci:
                    continue
                if divergence_eval(d, data[g], protos[cj]) < own - tol:
                    return False, (g, cj)
    return True, None


def _plogp(x: np.ndarray) -> np.ndarray:
    """Elementwise x*ln(x) with 0*ln(0) = 0."""
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def _batched_dispersions(
    data: np.ndarray, prior: np.ndarray, labels: np.ndarray, d: Divergence
) -> np.ndarray:
    """Dispersion of every partition of a (P, n_games) label array at once.

    Uses the Bregman identity (point term minus class term): for squared
    Euclidean the within-class sum is sum p*|x|^2 - sum_c |S_c|^2/W_c, for
    KL it is sum p*H(x) - sum_c W_c*H(S_c/W_c) with H(x) = sum x*ln(x),
    where S_c and W_c are the prior-weighted class sum and class mass.
    """
    data = np.asarray(data, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if d.kind == SQUARED_MEAN_DIFFERENCE:
        data = (data @ np.asarray(d.action_values, dtype=float))[:, None]
    kl = d.kind == KULLBACK_LEIBLER
    point_term = prior @ (_plogp(data) if kl else data**2).sum(axis=1)
    n_parts, n_games = labels.shape
    n_classes = int(labels.max()) + 1
    rows = np.arange(n_parts)
    weighted = prior[:, None] * data
    sums = np.zeros((n_parts, n_classes, data.shape[1]))
    mass = np.zeros((n_parts, n_classes))
    for g in range(n_games):
        # one label per row, so the (row, label) indices are distinct and += is exact
        sums[rows, labels[:, g]] += weighted[g]
        mass[rows, labels[:, g]] += prior[g]
    safe = np.where(mass > 0, mass, 1.0)  # empty classes have zero sums
    if kl:
        class_term = (mass * _plogp(sums / safe[:, :, None]).sum(axis=2)).sum(axis=1)
    else:
        class_term = ((sums**2).sum(axis=2) / safe).sum(axis=1)
    return np.maximum(point_term - class_term, 0.0)


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
    """Lloyd iteration: nearest-prototype assignment, then mean updates.

    Stops when assignments are stable.  A class that empties is dropped and
    counted in the report.  The result always passes the local-clustering
    test and the dispersion history is nonincreasing.
    """
    data = np.asarray(data, dtype=float)
    prior = np.asarray(prior, dtype=float)
    protos = [np.asarray(p, dtype=float) for p in np.asarray(init, dtype=float)]
    if not 1 <= len(protos):
        raise ValueError("need at least one initial representative")
    n = data.shape[0]
    assign = np.full(n, -1)
    dropped = 0
    history: list[float] = []
    for it in range(max_iter):
        dist = np.array([[divergence_eval(d, data[g], p) for p in protos] for g in range(n)])
        new_assign = dist.argmin(axis=1)
        live = sorted(set(int(a) for a in new_assign))
        if len(live) < len(protos):
            dropped += len(protos) - len(live)
            relabel = {old: new for new, old in enumerate(live)}
            new_assign = np.array([relabel[int(a)] for a in new_assign])
        protos = [
            prototype(data, np.flatnonzero(new_assign == c), prior)
            for c in range(len(set(int(a) for a in new_assign)))
        ]
        part = Partition.from_assignment(new_assign)
        history.append(dispersion(data, part, prior, d))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    part = Partition.from_assignment(assign)
    local, _ = is_locally_clustered(data, part, prior, d)
    return ClusteringReport(
        partition=part,
        prototypes=class_prototypes(data, part, prior),
        dispersion=history[-1],
        locally_clustered=local,
        globally_clustered=None,
        iterations=len(history),
        dispersion_history=history,
        dropped_classes=dropped,
    )
