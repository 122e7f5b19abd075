"""Three matching-pennies games with stake parameters a < b < c.

The row player wants to match (U against L pays 1+x), the column player
wants to mismatch.  With two categories for the row player no pure
clustered equilibrium exists; the mixed-categorization equilibrium makes
the column player's play equally spaced across the games so that two
bundlings tie, while the row population splits evenly between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..abee import (
    PartitionDistribution,
    StrategyProfile,
    degenerate_pair,
    dist_abee_solve_runs,
)
from ..clustering import L2, Divergence
from ..env import GameEnvironment, make_environment
from ..equilibrium import (
    GLOBAL,
    LOCAL,
    EquilibriumCandidate,
    cd_abee_verify,
    unclustered,
)
from ..partitions import Partition, partition_list
from . import HypothesesUnmet


@dataclass(frozen=True)
class MatchingPenniesSpec:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not 0 < self.a < self.b < self.c < 2:
            raise ValueError("stakes must satisfy 0 < a < b < c < 2")

    @property
    def stakes(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def build_matching_pennies(spec: MatchingPenniesSpec) -> GameEnvironment:
    """Environment with payoff rows U: (1+x, 0), D: (0, 1) for the row
    player and the fixed mismatching pattern for the column player."""
    pr = np.zeros((2, 2, 3))
    pc = np.zeros((2, 2, 3))
    for g, x in enumerate(spec.stakes):
        pr[:, :, g] = [[1 + x, 0], [0, 1]]
        pc[:, :, g] = [[0, 1], [1, 0]]
    return make_environment([1 / 3] * 3, pr, pc)


def row_indifference_point(x: float) -> float:
    """Column L-probability at which the row player is indifferent in G_x."""
    return 1.0 / (2.0 + x)


def two_class_row_partitions() -> list[Partition]:
    return [p for p in partition_list(3, 2) if p.n_classes == 2]


def solve_matching_pennies_cdabee(spec: MatchingPenniesSpec) -> EquilibriumCandidate:
    """The mixed-categorization equilibrium of the three-game family.

    The row player mixes evenly between isolating the lowest-stake game and
    isolating the highest-stake game.  Under the first partition she is
    indifferent exactly in the high game, under the second exactly in the
    low game, which pins the bundled expectations at 1/(2+c) and 1/(2+a)
    and yields equally spaced column mixtures; the aggregate row play is
    then 1/2 everywhere, keeping the column player mixing.
    """
    t_a = row_indifference_point(spec.a)
    t_c = row_indifference_point(spec.c)
    # bundle expectations: ({a,b} under the c-isolating partition) = t_a and
    # ({b,c} under the a-isolating partition) = t_c, with p_b midway
    p_a = (3 * t_a - t_c) / 2
    p_c = (3 * t_c - t_a) / 2
    p_b = (p_a + p_c) / 2
    col = np.array([p_a, p_b, p_c])
    if np.any(col <= 0) or np.any(col >= 1):
        raise HypothesesUnmet(f"column mixture out of range: {col}")
    if not (p_a > t_a and p_c < t_c):
        raise HypothesesUnmet("strict best replies in the isolated games fail")
    env = build_matching_pennies(spec)
    an_low = Partition.from_classes(3, [(0,), (1, 2)])
    an_high = Partition.from_classes(3, [(2,), (0, 1)])
    finest = Partition.finest(3)
    u, dn = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    profile = StrategyProfile(
        plays=(
            {
                an_low: np.stack([u, dn, u]),
                an_high: np.stack([dn, u, dn]),
            },
            {finest: np.stack([col, 1 - col], axis=1)},
        )
    )
    lams = (
        PartitionDistribution((an_low, an_high), (0.5, 0.5)),
        PartitionDistribution.degenerate(finest),
    )
    candidate = EquilibriumCandidate(lams, profile, GLOBAL, L2)
    report = cd_abee_verify(env, candidate, capacities=(2, 3))
    if not report.ok:
        raise HypothesesUnmet(f"construction failed verification: {report}")
    return candidate


def analytic_two_class_abee(spec: MatchingPenniesSpec, partition: Partition):
    """The unique equilibrium for a fixed two-class row partition.

    With the bundle {x1, x2} (x1 < x2) the bundled expectation must sit at
    the x1 indifference point: the row mixes 1/2 in x1, plays U in x2, and
    the column plays 2/(2+x1) in x1, 0 in x2, and the single-game mixture in
    the isolated game.
    """
    (bundle, single) = sorted(partition.classes, key=len, reverse=True)
    if len(bundle) != 2 or len(single) != 1:
        raise ValueError("expected one two-game class and one singleton")
    x1, x2 = bundle
    x3 = single[0]
    stakes = spec.stakes
    col = np.zeros(3)
    col[x1] = 2.0 / (2.0 + stakes[x1])
    col[x2] = 0.0
    col[x3] = row_indifference_point(stakes[x3])
    row = np.full(3, 0.5)
    row[x2] = 1.0
    return row, col


def two_class_refutation(specs: Sequence[MatchingPenniesSpec], d: Divergence = L2) -> list[dict]:
    """Check every two-class row partition's equilibrium against clustering
    under the divergence d, for each stake triple of specs.

    All (triple, partition) supports, each row partition against the finest
    column partition, are solved in one `dist_abee_solve_runs` stream, whose
    profiles all pass the best-reply check; the stream is closed before the
    clustering of every triple's profiles is checked in one `unclustered`
    call per partition and mode: the triples' environments share their
    prior.  Each verdict is `cabee_verify(...).ok` of its profile and mode.
    Returns, per triple, a dict keyed by partition: the solver output, its
    match with the analytic structure, and the clustered-equilibrium
    verdicts per mode (local and global).
    """
    envs = [build_matching_pennies(spec) for spec in specs]
    finest = Partition.finest(3)
    parts = two_class_row_partitions()
    pairs = {part: degenerate_pair(part, finest) for part in parts}
    runs = dist_abee_solve_runs((env, pairs[part]) for env in envs for part in parts)
    solves = itertools.chain.from_iterable(runs)
    reports = []
    rows = {part: [] for part in parts}  # (env, plays, verdicts) per profile
    for spec, env in zip(specs, envs):
        report = {}
        for part, res in zip(parts, solves):
            plays = res.plays(res.profiles)
            # each profile's largest gap to the analytic action-0 masses
            gaps = np.abs(np.concatenate([plays[0][:, 0, :, 0], plays[1][:, 0, :, 0]], axis=1)
                          - np.concatenate(analytic_two_class_abee(spec, part))).max(axis=1)
            verdicts = {LOCAL: [], GLOBAL: []}
            report[part] = {
                "n_equilibria": len(res.profiles),
                "analytic_gap": float(gaps.min()) if len(gaps) else None,
                "verdicts": verdicts,
            }
            rows[part] += [(env, (p0, p1), verdicts) for p0, p1 in zip(*plays)]
        reports.append(report)
    runs.close()  # frees the last run's maps before the clustering checks
    for part, checks in rows.items():
        if not checks:
            continue
        row_envs, row_plays, outs = zip(*checks)
        plays = tuple(np.stack(p) for p in zip(*row_plays))
        for mode in (LOCAL, GLOBAL):
            for out, fails in zip(outs, unclustered(row_envs, pairs[part], plays, mode, d, (2, 3))):
                out[mode].append(not fails)
    return reports
