"""Adaptive panel quadrature for smooth and endpoint-singular radial integrands.

The integrands in this package are power-like: smooth away from panel
boundaries, possibly unbounded (but integrable) at the left endpoint, with
possible kinks at known breakpoints.  `integrate` refines level by level
over arrays of panels:

  * level 0 is every piece between consecutive breakpoints, the first
    piece graded geometrically toward a singular left endpoint;
  * each level evaluates the 20- and 40-point Gauss-Legendre rules of all
    its panels together, calling the integrand once per block of
    `_PANELS_PER_CALL` panels (which bounds the size of the arrays the
    integrand builds);
  * a panel is accepted when its two rules agree to the absolute
    tolerance shared out over the level-0 panels; the others are bisected
    and form the next level.

A panel still failing at `max_depth` raises NonConvergenceError, as does an
integrand that is not finite at the nodes.  References: Davis & Rabinowitz,
Methods of Numerical Integration, ch. 6; Trefethen, Approximation Theory
and Approximation Practice, ch. 19.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .operator_core import NonConvergenceError


class DivergenceError(ArithmeticError):
    """An improper integral failed its tail-convergence test."""


# integrand calls carry at most this many panels (60 nodes each): all panels
# of a level in one call raise peak memory for several thousand panels, and
# blocks this size cost no measurable speed
_PANELS_PER_CALL = 128


@lru_cache(maxsize=None)
def _gauss_pair():
    """Nodes of the 20- and 40-point rules on [-1, 1], then both weights."""
    x20, w20 = np.polynomial.legendre.leggauss(20)
    x40, w40 = np.polynomial.legendre.leggauss(40)
    return np.concatenate((x20, x40)), w20, w40


def _panel_rules(g, lo, hi):
    """20- and 40-point Gauss-Legendre values of g on the panels [lo, hi]."""
    nodes, w20, w40 = _gauss_pair()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    coarse = np.empty(len(lo))
    fine = np.empty(len(lo))
    for start in range(0, len(lo), _PANELS_PER_CALL):
        blk = slice(start, start + _PANELS_PER_CALL)
        x = mid[blk, None] + half[blk, None] * nodes
        vals = np.asarray(g(x.ravel()), dtype=float).reshape(x.shape)
        coarse[blk] = half[blk] * (vals[:, :20] @ w20)
        fine[blk] = half[blk] * (vals[:, 20:] @ w40)
    return coarse, fine


def integrate(g, a, b, rel_tol=1e-12, singular_left=False, breakpoints=(),
              max_depth=48):
    """Integrate the vectorized function g over [a, b].

    singular_left: grade the first piece geometrically toward a (integrable
    algebraic singularity expected there).  breakpoints: kink locations;
    those inside (a, b) become panel edges.  Raises NonConvergenceError when
    a panel bisected max_depth times still misses its tolerance.
    """
    if b <= a:
        return 0.0
    inner = np.unique(np.asarray(breakpoints, dtype=float))
    edges = np.concatenate(([a], inner[(inner > a) & (inner < b)], [b]))
    if singular_left:
        # 60 panels shrinking by 4 toward a; the innermost sliver as-is
        graded = a + (edges[1] - a) * 0.25 ** np.arange(60, 0, -1.0)
        edges = np.concatenate(([a], graded, edges[1:]))
    lo, hi = edges[:-1], edges[1:]

    coarse, fine = _panel_rules(g, lo, hi)
    tol = rel_tol * max(abs(float(np.sum(coarse))), 1e-300) / len(lo)
    accepted = []
    for depth in range(max_depth + 1):
        if not np.all(np.isfinite(fine)):
            raise NonConvergenceError(
                f"integrand is not finite on [{a}, {b}]")
        ok = np.abs(fine - coarse) <= tol
        accepted.append(fine[ok])
        if ok.all():
            return float(np.sum(np.concatenate(accepted)))
        lo, hi = lo[~ok], hi[~ok]
        if depth == max_depth:
            raise NonConvergenceError(
                f"{len(lo)} panels (first [{lo[0]}, {hi[0]}]) missed the "
                f"tolerance after {max_depth} bisections on [{a}, {b}]")
        mid = 0.5 * (lo + hi)
        lo = np.column_stack((lo, mid)).ravel()
        hi = np.column_stack((mid, hi)).ravel()
        coarse, fine = _panel_rules(g, lo, hi)


def tail_panel_sums(g, a, rel_tol=1e-12, settle_tol=1e-14, max_panels=1000):
    """Integrate g over [a, inf) by doubling panels [a 2^k, a 2^(k+1)].

    Returns (edges, panel_integrals) where the tail beyond the last edge is
    negligible.  Convergence is declared once three successive panels each
    contribute less than settle_tol of the accumulated integral; raises
    DivergenceError otherwise.
    """
    if a <= 0:
        raise ValueError("tail integration requires a > 0")
    edges = [a]
    sums = []
    acc = 0.0
    settled = 0
    growing = 0
    prev = None
    lo = a
    for _ in range(max_panels):
        hi = 2.0 * lo
        val = integrate(g, lo, hi, rel_tol=rel_tol)
        edges.append(hi)
        sums.append(val)
        acc += val
        if abs(val) <= settle_tol * max(abs(acc), 1e-300):
            settled += 1
            if settled >= 3:
                return np.asarray(edges), np.asarray(sums)
        else:
            settled = 0
        # steadily growing dyadic panels mean polynomial-or-worse divergence;
        # catch it before the integrand underflows and fakes convergence
        if prev is not None and abs(val) > abs(prev) * 1.001:
            growing += 1
            if growing >= 12:
                raise DivergenceError(
                    f"tail integral from {a} has growing dyadic panels")
        else:
            growing = 0
        prev = val
        lo = hi
        if lo > 1e290:
            break
    raise DivergenceError(
        f"tail integral from {a} failed the convergence test")


def tail_integral(g, a, rel_tol=1e-12):
    """Value of the improper integral of g over [a, inf)."""
    _, sums = tail_panel_sums(g, a, rel_tol=rel_tol)
    return float(np.sum(sums))
