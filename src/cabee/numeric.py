"""Small numeric utilities: adaptive quadrature, bisection, the first best
index along a short axis, a sum in order, and the first of each set of
equal rows."""

from __future__ import annotations

import numpy as np


def first_best(x: np.ndarray, keep) -> np.ndarray:
    """Index of the first best entry along the last axis of a NaN-free x:
    `x.argmin(axis=-1)` with keep=np.minimum, `x.argmax(axis=-1)` with
    keep=np.maximum.

    A running best that sweeps the axis one entry at a time, which is
    several times faster than numpy's reduction over an axis of a few
    entries.  An entry takes the index over only where it changes the
    running best, that is where it is strictly better, so the first of
    equal entries stays, as in argmin and argmax.
    """
    best = x[..., 0]
    index = np.zeros_like(best, dtype=np.intp)
    for j in range(1, x.shape[-1]):
        new = keep(best, x[..., j])
        np.maximum(index, (new != best) * j, out=index)
        best = new
    return index


def sum_left(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis from the left, starting at 0.0, which rounds as
    a scalar accumulation loop does; `ndarray.sum` promises no order."""
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total


def first_rows(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first of each set of equal rows of integer
    keys (n, m): the rows that a deduplication in row order keeps."""
    return np.sort(np.unique(keys, axis=0, return_index=True)[1])


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-10, max_depth: int = 60) -> float:
    """Adaptive Simpson quadrature with interval-halving error control."""
    if hi <= lo:
        return 0.0

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, eps / 2.0, depth + 1) + recurse(
            m, b, fm, frm, fb, right, eps / 2.0, depth + 1
        )

    fa, fb = f(lo), f(hi)
    fm = f(0.5 * (lo + hi))
    whole = simpson(lo, hi, fa, fm, fb)
    return recurse(lo, hi, fa, fm, fb, whole, tol, 0)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of f on [lo, hi]; requires a sign change between the endpoints."""
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}] (f: {fa} .. {fb})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if fa * fm < 0:
            hi, fb = mid, fm
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)
