"""Employer-worker monitoring with three worker types.

The worker's type is the game: type a always shirks (e=0), type b always
works (e=1), type c shirks when controlled rarely enough.  The employer
prefers to control when the expected shirking mass reaches her threshold.
With two categories for the employer and a fully expressive worker, no
pure categorization survives; the mixed one puts the a-bundling on weight
mu_star, making the c-type indifferent, while the c-type's mixing makes
the two bundlings equally good at the clustering stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from ..abee import PartitionDistribution, SolveResult, unstack_plays
from ..clustering import (
    L2,
    SQUARED_EUCLIDEAN,
    SQUARED_MEAN_DIFFERENCE,
    Divergence,
    dispersion,
)
from ..env import GameEnvironment, make_environment
from ..equilibrium import FAMILY_INSET, GLOBAL, LOCAL, EquilibriumCandidate, _refine_run
from ..equilibrium import cd_abee_verify, cd_abee_verify_batch
from ..numeric import bisect_root
from ..partitions import Partition
from . import HypothesesUnmet

GAME_A, GAME_B, GAME_C = 0, 1, 2
E0, E1 = 0, 1  # worker actions: shirk, work
CONTROL, TRUST = 0, 1  # employer actions


@dataclass(frozen=True)
class MonitoringSpec:
    p_a: float
    p_b: float
    p_c: float
    nu_star: float
    mu_star: float

    def __post_init__(self):
        probs = (self.p_a, self.p_b, self.p_c)
        if min(probs) <= 0 or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("type probabilities must be positive and sum to 1")
        if self.p_c > min(self.p_a, self.p_b) + 1e-12:
            raise ValueError("the responsive type must be the (weak) minority")
        lo = self.p_c / (self.p_a + self.p_c)
        hi = self.p_b / (self.p_b + self.p_c)
        if not lo < self.nu_star < hi:
            raise ValueError(f"nu_star must lie in ({lo}, {hi})")
        if not 0 < self.mu_star < 1:
            raise ValueError("mu_star must lie in (0, 1)")

    @property
    def prior(self) -> tuple[float, float, float]:
        return (self.p_a, self.p_b, self.p_c)


def build_monitoring(spec: MonitoringSpec) -> GameEnvironment:
    """Canonical payoffs realizing the two thresholds.

    Employer: u(Control) = P(e=0) - nu_star, u(Trust) = 0, so Control is
    best exactly when the expected shirking mass reaches nu_star.  Type c:
    u(e=0) = mu_star - P(Control), u(e=1) = 0.  Types a and b have strictly
    dominant effort choices.  Any affine rescaling preserving these
    thresholds induces the same best replies.
    """
    emp = np.zeros((2, 2, 3))
    for g in range(3):
        emp[CONTROL, E0, g] = 1.0 - spec.nu_star
        emp[CONTROL, E1, g] = -spec.nu_star
    worker = np.zeros((2, 2, 3))
    worker[E0, :, GAME_A] = 1.0
    worker[E1, :, GAME_B] = 1.0
    worker[E0, CONTROL, GAME_C] = spec.mu_star - 1.0
    worker[E0, TRUST, GAME_C] = spec.mu_star
    return make_environment(spec.prior, emp, worker)


def bundling_partitions() -> tuple[Partition, Partition]:
    """The a-bundling {a,c | b} and the b-bundling {b,c | a}."""
    return (
        Partition.from_classes(3, [(GAME_A, GAME_C), (GAME_B,)]),
        Partition.from_classes(3, [(GAME_B, GAME_C), (GAME_A,)]),
    )


def _worker_point(zeta: float) -> np.ndarray:
    """Worker behavior per game (rows) as distributions over (e0, e1)."""
    return np.array([[1.0, 0.0], [0.0, 1.0], [zeta, 1.0 - zeta]])


def _clustering_tie_zeta(spec: MonitoringSpec, d: Divergence) -> float:
    """Shirking probability of type c that ties the two bundlings.

    For the squared divergences the tie has a closed form; for KL it is the
    root of the dispersion difference, which changes sign across (0, 1).
    """
    p_a, p_b, p_c = spec.prior
    if d.kind in (SQUARED_EUCLIDEAN, SQUARED_MEAN_DIFFERENCE):
        ratio = sqrt((p_b * (p_a + p_c)) / (p_a * (p_b + p_c)))
        return 1.0 / (1.0 + ratio)
    an_ac, an_bc = bundling_partitions()
    prior = np.asarray(spec.prior)

    def residual(z):
        data = _worker_point(z)
        return dispersion(data, an_ac, prior, d) - dispersion(data, an_bc, prior, d)

    return bisect_root(residual, 1e-9, 1 - 1e-9, tol=1e-12)


def _mixed_lams(spec: MonitoringSpec):
    """The employer mixes the bundlings with weight mu_star on the
    a-bundling; the worker is fully expressive."""
    an_ac, an_bc = bundling_partitions()
    return (
        PartitionDistribution((an_ac, an_bc), (spec.mu_star, 1.0 - spec.mu_star)),
        PartitionDistribution.degenerate(Partition.finest(3)),
    )


def _mixed_plays(zetas) -> tuple[np.ndarray, np.ndarray]:
    """Strategies of the mixed candidate at each shirking probability of
    type c, stacked (..., n_support, 3, 2) in support order after the shape
    of `zetas`: the employer controls the class holding c under each
    bundling and trusts the other one."""
    zetas = np.asarray(zetas, dtype=float)
    control, trust = [1.0, 0.0], [0.0, 1.0]
    employer = np.array([[control, trust, control], [control, trust, trust]])
    worker = np.stack(np.broadcast_arrays(1.0, 0.0, 0.0, 1.0, zetas, 1.0 - zetas), axis=-1)
    return np.tile(employer, zetas.shape + (1, 1, 1)), worker.reshape(zetas.shape + (1, 3, 2))


def _zeta_family() -> SolveResult:
    """The mixed candidate along type c's shirking probability, the
    variable of the one family of a result with no profile, over [0, 1]."""
    return SolveResult(np.zeros((0, 1)), np.array([[[0.0], [1.0]]]), np.array([[0.0, 1.0]]),
                       lambda x: _mixed_plays(x[..., 0]))


def _candidate_at(spec: MonitoringSpec, zeta: float, mode: str, d: Divergence):
    lams = _mixed_lams(spec)
    plays = _mixed_plays([zeta])
    profile = unstack_plays((lams[0].support, lams[1].support), (plays[0][0], plays[1][0]))
    return build_monitoring(spec), EquilibriumCandidate(lams, profile, mode, d)


@dataclass
class MonitoringSolution:
    candidates: list[EquilibriumCandidate]
    zeta_star: float | None = None  # global mode: the tie point
    zeta_range: tuple[float, float] | None = None  # local mode: detected interval


def solve_monitoring_cdabee(spec: MonitoringSpec, mode: str, d: Divergence = L2) -> MonitoringSolution:
    """Mixed-categorization equilibria of the monitoring family.

    Global mode returns the single candidate with the tie-making shirking
    probability (1/2 when the a and b types are equally likely).  Local
    mode reads the interval of sustainable shirking probabilities off the
    cover of the zeta family (`equilibrium._refine_run`, a run of one): from its
    lowest to its highest admitted point, reaching 0 or 1 where the cover
    admits the family's inset end, with verified representatives at a
    quarter, a half and three quarters of it; preconditions for reporting
    the interval are p_a = p_b > 1/3 and nu_star != 1/2.
    """
    if mode == GLOBAL:
        zeta = _clustering_tie_zeta(spec, d)
        env, cand = _candidate_at(spec, zeta, GLOBAL, d)
        report = cd_abee_verify(env, cand, capacities=(2, 3))
        if not report.ok:
            raise HypothesesUnmet(f"tie candidate fails verification: {report}")
        return MonitoringSolution([cand], zeta_star=zeta)
    if mode != LOCAL:
        raise ValueError(f"unknown mode {mode}")
    if abs(spec.p_a - spec.p_b) > 1e-12 or spec.p_a <= 1 / 3:
        raise HypothesesUnmet("local interval reporting needs p_a = p_b > 1/3")
    if abs(spec.nu_star - 0.5) < 1e-12:
        raise HypothesesUnmet("local interval reporting needs nu_star != 1/2")
    env, lams = build_monitoring(spec), _mixed_lams(spec)
    (found,) = _refine_run(env, [lams], [_zeta_family()], LOCAL, d, (2, 3))
    if not found:
        return MonitoringSolution([])
    zetas = [float(cand.profile.plays[1][lams[1].support[0]][GAME_C, E0]) for cand in found]
    lo = min(zetas) if min(zetas) > FAMILY_INSET else 0.0
    hi = max(zetas) if max(zetas) < 1.0 - FAMILY_INSET else 1.0
    reps = [lo + frac * (hi - lo) for frac in (0.25, 0.5, 0.75)]
    reports = cd_abee_verify_batch(env, lams, _mixed_plays(reps), LOCAL, d, (2, 3))
    reps = [_candidate_at(spec, z, LOCAL, d)[1] for z, report in zip(reps, reports) if report.ok]
    return MonitoringSolution(reps, zeta_range=(lo, hi))


def nu_star_sweep(spec: MonitoringSpec, n_points: int = 10) -> list[tuple[float, float, float]]:
    """Global solution across employer thresholds: (nu_star, lambda_ac, zeta).

    The admissible threshold interval is open; sweep points are interior.
    """
    lo = spec.p_c / (spec.p_a + spec.p_c)
    hi = spec.p_b / (spec.p_b + spec.p_c)
    out = []
    for k in range(1, n_points + 1):
        nu = lo + (hi - lo) * k / (n_points + 1)
        swept = MonitoringSpec(spec.p_a, spec.p_b, spec.p_c, nu, spec.mu_star)
        sol = solve_monitoring_cdabee(swept, GLOBAL, L2)
        out.append((nu, sol.candidates[0].lams[0].weights[0], sol.zeta_star))
    return out
