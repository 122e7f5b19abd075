"""Families of games with linear best replies in the opponent's mean action.

The interaction parameter mu indexes the games: best replies are
A + mu*B + mu*C*mean(opponent).  Positive mu (complements) reinforces the
opponent's action, negative mu (substitutes) works against it.  Under a
symmetric interval partition the equilibrium is unique: the class
expectation is (A + B*E)/(1 - C*E) with E the conditional mean of mu in
the class, and within the class the action line is A + mu*(B+AC)/(1-C*E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..numeric import adaptive_simpson, bisect_root
from . import HypothesesUnmet

COMPLEMENTS = "complements"
SUBSTITUTES = "substitutes"
INTEGRATION_TOL = 1e-10
LOCAL_SLACK = 1e-12


@dataclass(frozen=True)
class LinearFamilySpec:
    A: float
    B: float
    C: float
    regime: str = COMPLEMENTS
    density: Callable[[float], float] | None = None  # None = uniform
    K: int = 4

    def __post_init__(self):
        if not 0 < self.C < 1:
            raise ValueError("interaction strength C must lie in (0, 1)")
        if self.regime not in (COMPLEMENTS, SUBSTITUTES):
            raise ValueError(f"unknown regime {self.regime}")
        if self.K < 1:
            raise ValueError("need at least one class")

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, 1.0) if self.regime == COMPLEMENTS else (-1.0, 0.0)

    def pdf(self, mu: float) -> float:
        if self.density is None:
            return 1.0
        return self.density(mu)


def nash_action(spec: LinearFamilySpec, mu: float) -> float:
    return (spec.A + mu * spec.B) / (1.0 - mu * spec.C)


def _mass(spec: LinearFamilySpec, lo: float, hi: float) -> float:
    return adaptive_simpson(spec.pdf, lo, hi, tol=INTEGRATION_TOL)


def conditional_mean(spec: LinearFamilySpec, lo: float, hi: float) -> float:
    mass = _mass(spec, lo, hi)
    if mass <= 1e-14:
        raise ValueError(f"interval ({lo}, {hi}] carries no mass")
    raw = adaptive_simpson(lambda m: m * spec.pdf(m), lo, hi, tol=INTEGRATION_TOL)
    return raw / mass


def _cond_mean_safe(spec: LinearFamilySpec, lo: float, hi: float) -> float:
    """Conditional mean with a midpoint fallback on vanishing slivers.

    Only the shooting path uses this: bracket endpoints may probe slivers
    where the density vanishes to working precision, and there the
    conditional mean is within the sliver anyway.
    """
    try:
        return conditional_mean(spec, lo, hi)
    except ValueError:
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ClassLine:
    lo: float
    hi: float
    mean: float  # conditional mean of mu on the class
    beta: float  # consistent class expectation of the opponent's action
    slope: float  # per-mu action slope within the class

    def action(self, mu: float) -> float:
        return self.beta - self.mean * self.slope + mu * self.slope


def checked_endpoints(spec: LinearFamilySpec, endpoints: Sequence[float]) -> list[float]:
    """The endpoints as floats; a ValueError unless they are strictly
    increasing and span the regime's interval (NaN spans nothing)."""
    lo_dom, hi_dom = spec.domain
    pts = [float(p) for p in endpoints]
    if len(pts) < 2 or not (abs(pts[0] - lo_dom) <= 1e-12 and abs(pts[-1] - hi_dom) <= 1e-12):
        raise ValueError("endpoints must span the regime interval")
    if not all(b - a > 0 for a, b in zip(pts[:-1], pts[1:])):
        raise ValueError("endpoints must be strictly increasing")
    return pts


def linear_abee(spec: LinearFamilySpec, endpoints: Sequence[float]) -> list[ClassLine]:
    """Per-class expectation and action line for an interval partition.

    endpoints must be strictly increasing and span the regime's interval.
    """
    pts = checked_endpoints(spec, endpoints)
    lines = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        e = conditional_mean(spec, lo, hi)
        beta = (spec.A + spec.B * e) / (1.0 - spec.C * e)
        slope = (spec.B + spec.A * spec.C) / (1.0 - spec.C * e)
        lines.append(ClassLine(lo, hi, e, beta, slope))
    return lines


@dataclass
class LocalCheckResult:
    ok: bool
    boundary_slacks: list[tuple[float, float]]  # per interior boundary

    def min_slack(self) -> float:
        return min((min(s) for s in self.boundary_slacks), default=np.inf)


def _point_slack(value: float, own_class: int, betas: Sequence[float]) -> float:
    """Smallest margin of the nearest-own-expectation condition at a point."""
    own = (value - betas[own_class]) ** 2
    others = [
        (value - b) ** 2 - own for k, b in enumerate(betas) if k != own_class
    ]
    return min(others) if others else np.inf


def linear_local_check(spec: LinearFamilySpec, endpoints: Sequence[float]) -> LocalCheckResult:
    """Nearest-expectation test of the equilibrium action data.

    Actions are linear within each class, so the binding comparisons sit at
    the class endpoints; each interior boundary contributes the slack of
    the left class's last action and the right class's first action against
    every class expectation.
    """
    lines = linear_abee(spec, endpoints)
    betas = [ln.beta for ln in lines]
    slacks = []
    for k in range(len(lines) - 1):
        mu_k = lines[k].hi
        left_val = spec.A + mu_k * lines[k].slope
        right_val = spec.A + mu_k * lines[k + 1].slope
        slacks.append(
            (_point_slack(left_val, k, betas), _point_slack(right_val, k + 1, betas))
        )
    outer_ok = (
        _point_slack(spec.A + lines[0].lo * lines[0].slope, 0, betas) >= -LOCAL_SLACK
        and _point_slack(spec.A + lines[-1].hi * lines[-1].slope, len(lines) - 1, betas)
        >= -LOCAL_SLACK
    )
    ok = outer_ok and all(min(s) >= -LOCAL_SLACK for s in slacks)
    return LocalCheckResult(ok, slacks)


# ---------------------------------------------------------------------------
# equidistant-expectations partitions
# ---------------------------------------------------------------------------


def _invert_conditional_mean(spec, lo: float, target: float, hi_dom: float) -> float | None:
    """The right endpoint x > lo with conditional mean of (lo, x] equal to
    target; None when even the full tail undershoots (shot too high)."""
    if target <= lo:
        return None
    full = _cond_mean_safe(spec, lo, hi_dom)
    if target > full + 1e-11:
        return None
    eps = (hi_dom - lo) * 1e-13

    def f(x):
        return _cond_mean_safe(spec, lo, x) - target

    if f(hi_dom) <= 0:
        return hi_dom
    return bisect_root(f, lo + eps, hi_dom, tol=1e-13)


def equidistant_partition(spec: LinearFamilySpec):
    """Endpoint sequence of spec.K classes whose interior points are
    equidistant from the conditional means of their adjacent classes.

    Shooting on the first interior endpoint: successive endpoints come from
    inverting the conditional-mean map (strictly increasing in the right
    endpoint), and the first endpoint is bisected to 1e-12 until the last
    endpoint lands within 1e-9 of the domain's upper edge.  A required
    endpoint beyond the edge means the shot was too high.
    """
    K = spec.K
    lo_dom, hi_dom = spec.domain
    for probe in np.linspace(lo_dom + 1e-6, hi_dom - 1e-6, 7):
        if spec.pdf(float(probe)) <= 0:
            raise ValueError("density must be strictly positive on the domain")
    if K == 1:
        return [lo_dom, hi_dom]

    edge_eps = 1e-12 * (hi_dom - lo_dom)

    def shoot(mu1: float):
        pts = [lo_dom, mu1]
        for _ in range(2, K + 1):
            if pts[-1] >= hi_dom - edge_eps:
                return None  # ran out of room before placing every class
            e_prev = _cond_mean_safe(spec, pts[-2], pts[-1])
            target = 2 * pts[-1] - e_prev
            nxt = _invert_conditional_mean(spec, pts[-1], target, hi_dom)
            if nxt is None:
                return None  # overshoot: required endpoint beyond the edge
            pts.append(nxt)
        return pts

    def gap(mu1: float) -> float:
        pts = shoot(mu1)
        if pts is None:
            return (hi_dom - lo_dom)  # treat as landing past the edge
        return pts[-1] - hi_dom

    lo_b, hi_b = lo_dom + 1e-9 * (hi_dom - lo_dom), hi_dom - 1e-9 * (hi_dom - lo_dom)
    mu1 = bisect_root(gap, lo_b, hi_b, tol=1e-12)
    pts = shoot(mu1)
    if pts is None or abs(pts[-1] - hi_dom) > 1e-9:
        raise HypothesesUnmet("shooting failed to land on the domain edge")
    pts[-1] = hi_dom
    return pts


def equidistant_residuals(spec: LinearFamilySpec, endpoints: Sequence[float]) -> list[float]:
    """Per interior endpoint: mu_k - mean(left class) - (mean(right) - mu_k)."""
    out = []
    for k in range(1, len(endpoints) - 1):
        left = conditional_mean(spec, endpoints[k - 1], endpoints[k])
        right = conditional_mean(spec, endpoints[k], endpoints[k + 1])
        out.append((endpoints[k] - left) - (right - endpoints[k]))
    return out


def linear_cabee_window(
    spec: LinearFamilySpec, endpoints: Sequence[float] | None = None
) -> list[tuple[float, float]]:
    """Open interval around each interior equidistant endpoint over which
    the nearest-expectation conditions keep holding, other endpoints fixed;
    each edge is bisected to 1e-9.

    Complements regime only: substitutes admit no passing interval
    partition at all.
    """
    if spec.regime != COMPLEMENTS:
        raise HypothesesUnmet("windows are defined for the complements regime")
    pts = list(endpoints) if endpoints is not None else equidistant_partition(spec)
    windows = []
    for k in range(1, len(pts) - 1):
        lo_lim, hi_lim = pts[k - 1], pts[k + 1]

        def passes(v: float) -> bool:
            trial = pts[:k] + [v] + pts[k + 1 :]
            return linear_local_check(spec, trial).ok

        if not passes(pts[k]):
            raise HypothesesUnmet(f"base endpoint {pts[k]} fails the local check")
        margin = 1e-7

        def edge(direction: int) -> float:
            limit = hi_lim - margin if direction > 0 else lo_lim + margin
            if passes(limit):
                return limit
            f = lambda v: 1.0 if passes(v) else -1.0
            a, b = sorted((pts[k], limit))
            return bisect_root(f, a, b, tol=1e-9)

        windows.append((edge(-1), edge(+1)))
    return windows


# ---------------------------------------------------------------------------
# curve data for the demonstration parameter sets
# ---------------------------------------------------------------------------

FIGURE_PARAMS = {
    # increasing / decreasing equilibrium action functions, complements
    "fig1a": dict(A=1.0, B=1.0, C=0.8, regime=COMPLEMENTS),
    "fig1b": dict(A=4.1, B=-4.0, C=0.6, regime=COMPLEMENTS),
    # substitutes: jumps run against the within-class slope
    "fig2a": dict(A=1.5, B=1.0, C=0.9, regime=SUBSTITUTES),
    "fig2b": dict(A=1.5, B=-4.0, C=0.9, regime=SUBSTITUTES),
}


def figure_spec(name: str) -> LinearFamilySpec:
    return LinearFamilySpec(**FIGURE_PARAMS[name])


def equal_split_endpoints(spec: LinearFamilySpec) -> list[float]:
    lo, hi = spec.domain
    return [lo + (hi - lo) * k / spec.K for k in range(spec.K + 1)]


def figure_curves(
    spec: LinearFamilySpec, endpoints: Sequence[float], points_per_class: int = 50
) -> list[tuple[float, float, float, int]]:
    """Rows (mu, nash_action, abee_action, class_index).

    Interior boundaries appear twice, once as the last point of the left
    class and once as the first point of the right class, so the one-sided
    limits of the jump are both on file.
    """
    lines = linear_abee(spec, endpoints)
    rows = []
    for k, line in enumerate(lines):
        for mu in np.linspace(line.lo, line.hi, points_per_class):
            rows.append(
                (float(mu), nash_action(spec, float(mu)), spec.A + mu * line.slope, k)
            )
    return rows
