"""Quadrature-accurate radial solutions of the Dirichlet problem.

A radial solution on [R_in, R_out] satisfies the integrated identity

    phi(|u'|) sgn(u') r^(n-1) = C - F(r),   F(r) = integral of f s^(n-1),

so once the flux constant C is known, u is a single quadrature of the
signed inverse of phi.  C is pinned down by monotone shooting on the outer
boundary value; for the bounded exterior solution C equals the full
improper integral of f s^(n-1), which makes u' decay integrably.  F is
the source's exact `density_integral` where its kind has one (`zero`,
`powerdecay`); for the others it is a C^1 cubic Hermite spline through
8-point panel sums, good to about 1e-11 of the solutions.
`RadialProfile` evaluates both these solutions and the barriers of
`barriers`, each built with its own closure r -> C - F(r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .operator_core import (DomainError, NonConvergenceError,
                            phi_inverse_signed, phi_signed)
from .quadrature import (cumulative_integral, gauss_rule, integrate,
                         tail_panel_sums)

_TAIL_PANELS_PER_CALL = 16   # u' tail panels per phi^{-1} call
_MATCH_TOL = 1e-10     # relative error of a shooting solution's outer value


def _panel_sums(g, lo, hi):
    """8-point Gauss-Legendre integrals of the elementwise g over the
    panels [lo, hi], arrays of any (broadcast) shape."""
    x, w = gauss_rule(8)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * x
    return half * (g(nodes.ravel()).reshape(nodes.shape) @ w)


@dataclass
class RadialProfile:
    """u(r) = u_in + integral from R_in to r of u', where phi(|u'|) sgn(u')
    r^(n-1) = flux_num(r), a vectorized C_flux - F(r); singular_left and
    the breakpoints (kinks of flux_num) shape the quadrature."""
    spec: object
    R_in: float
    R_out: float
    u_in: float
    C_flux: float
    flux_num: object
    singular_left: bool = False
    breakpoints: tuple = ()

    def u_prime(self, r):
        r = np.asarray(r, dtype=float)
        return phi_inverse_signed(
            self.spec, self.flux_num(r) / r ** (self.spec.n - 1.0))

    def flux(self, r):
        """phi(|u'|) sgn(u') r^(n-1), which must equal flux_num(r)."""
        r = np.asarray(r, dtype=float)
        return phi_signed(self.spec, self.u_prime(r)) \
            * r ** (self.spec.n - 1.0)

    def value(self, r):
        """u at one radius (a one-radius `values`)."""
        return float(self.values([r])[0])

    def values(self, radii):
        """u at every radius, by one `cumulative_integral` of u' from R_in."""
        radii = np.asarray(radii, dtype=float)
        bad = (radii < self.R_in - 1e-12) | (radii > self.R_out * (1 + 1e-12))
        if np.any(bad):
            raise DomainError(f"radius {radii[bad][0]} outside "
                              f"[{self.R_in}, {self.R_out}]")
        return cumulative_integral(self.u_prime, self.R_in, radii,
                                   rel_tol=1e-12,
                                   singular_left=self.singular_left,
                                   breakpoints=self.breakpoints,
                                   start=self.u_in)


@dataclass(kw_only=True)
class RadialSolution(RadialProfile):
    # exterior: the doubling edges far 2^k of the source tail sweep
    tail_edges: np.ndarray | None = None

    @property
    def far_edge(self):
        return None if self.tail_edges is None else float(self.tail_edges[0])


def _hermite(x, y, dydx):
    """The C^1 cubic Hermite interpolant of y with slopes dydx at the
    increasing knots x, as a vectorized callable: on [x_k, x_k+1] (the end
    pieces extended beyond the knots) the cubic in s = r - x_k with the
    coefficients and the term order of scipy's CubicHermiteSpline."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c3, c2 = t / dx, (slope - dydx[:-1]) / dx - t
    c1, c0 = dydx[:-1], y[:-1]

    def spline(r):
        r = np.asarray(r, dtype=float)
        k = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(dx) - 1)
        s = r - x[k]
        s2 = s * s
        return c0[k] + c1[k] * s + c2[k] * s2 + c3[k] * (s2 * s)

    return spline


def _kinks(R_in, R_out):
    """r = 1, where a closed-form source (`powerdecay`) changes formula,
    as a breakpoint when it lies inside (R_in, R_out)."""
    return (1.0,) if R_in < 1.0 < R_out else ()


def _source_density(f, n):
    def g(r):
        r = np.asarray(r, dtype=float)
        return np.asarray(f(r), dtype=float) * r ** (n - 1.0)
    return g


def solve_radial_bvp(spec, f, R_in, R_out, u_in, u_out):
    """Radial two-point Dirichlet solve by monotone shooting on C.

    The outer value produced by a candidate flux constant C is strictly
    increasing in C (phi^{-1} is increasing), so a sign-changing bracket
    always exists; it is found by doubling expansion and closed by brentq.
    The source integral F(r) from R_in is `f.density_integral` where the
    kind has one, with r = 1 a breakpoint; otherwise a C^1 cubic Hermite
    spline on 1025 geometric knots, with 8-point panel sums as values and
    the density as slopes.
    """
    if not (0 < R_in < R_out):
        raise DomainError("need 0 < R_in < R_out")
    n = spec.n
    g = _source_density(f, n)
    edges = np.geomspace(R_in, R_out, 1025)
    if f.density_integral is not None:
        F = lambda r: f.density_integral(R_in, r, n)
        kinks = _kinks(R_in, R_out)
    else:
        F = _hermite(edges, np.append(0.0, np.cumsum(
            _panel_sums(g, edges[:-1], edges[1:]))), g(edges))
        kinks = ()

    def outer_value(C):
        u_prime = lambda r: phi_inverse_signed(
            spec, (C - F(np.asarray(r, dtype=float))) / np.asarray(r) ** (n - 1.0))
        return u_in + integrate(u_prime, R_in, R_out, rel_tol=1e-12,
                                breakpoints=kinks)

    # bracket expansion around the source scale
    scale = max(1.0, float(np.max(np.abs(F(edges)))),
                abs(phi_signed(spec, (u_out - u_in) / (R_out - R_in)))
                * R_out ** (n - 1.0))
    lo, hi = -scale, scale
    for _ in range(80):
        if outer_value(lo) <= u_out:
            break
        lo *= 2.0
    else:
        raise NonConvergenceError("shooting bracket expansion failed (low)")
    for _ in range(80):
        if outer_value(hi) >= u_out:
            break
        hi *= 2.0
    else:
        raise NonConvergenceError("shooting bracket expansion failed (high)")

    C = brentq(lambda c: outer_value(c) - u_out, lo, hi,
               xtol=1e-14 * scale, rtol=8.9e-16)
    sol = RadialSolution(spec=spec, R_in=R_in, R_out=R_out, u_in=u_in,
                         C_flux=float(C), flux_num=lambda r: C - F(r),
                         breakpoints=kinks)
    if abs(sol.value(R_out) - u_out) > _MATCH_TOL * max(1.0, abs(u_out)):
        raise NonConvergenceError("shooting failed to match the outer value")
    return sol


def solve_exterior_radial(spec, f, u_in, R_in=1.0):
    """The bounded radial solution on [R_in, inf).

    Boundedness forces the flux constant to equal the full improper
    integral of f s^(n-1); then flux_num(r) = C - F(r) is the source tail
    T(r) beyond r, and u' is absolutely integrable at infinity.  The far
    edge of `tail_panel_sums` (which raises DivergenceError for a tail
    that does not settle) starts the doubling panels `tail_edges`, which
    end at the last edge with a nonzero density and r^(n-1) <= 1e290.
    Where the kind has `f.density_integral`, T is that closed form on all
    of [R_in, inf), with r = 1 a breakpoint.  Otherwise T is a 4097-knot
    C^1 cubic Hermite spline up to the far edge; beyond it, the sum over
    the doubling panels past r's panel plus an 8-point remainder, and 0
    past the last edge.
    """
    if not R_in > 0:
        raise DomainError("need R_in > 0")
    n = spec.n
    g = _source_density(f, n)
    far = float(tail_panel_sums(g, R_in)[0][-1])
    edges = far * 2.0 ** np.arange(
        1 + max(0, int(np.log2(1e290) / (n - 1.0) - np.log2(far))))
    edges = edges[:1 + max(np.flatnonzero(g(edges)), default=0)]
    if f.density_integral is not None:
        T = lambda r: f.density_integral(r, np.inf, n)
        return RadialSolution(spec=spec, R_in=R_in, R_out=np.inf, u_in=u_in,
                              C_flux=float(T(R_in)), flux_num=T,
                              breakpoints=_kinks(R_in, np.inf),
                              tail_edges=edges)
    # tails summed small-first: no cancellation against the full integral
    T_edges = np.append(np.cumsum(
        _panel_sums(g, edges[:-1], edges[1:])[::-1])[::-1], 0.0)
    dense = np.geomspace(R_in, far, 4097)
    panel = _panel_sums(g, dense[:-1], dense[1:])
    tails = T_edges[0] + np.concatenate((np.cumsum(panel[::-1])[::-1], [0.0]))
    T = _hermite(dense, tails, -g(dense))

    def flux_num(r):
        r = np.asarray(r, dtype=float)
        inner = r <= far
        if inner.all():
            return T(r)
        out = np.zeros(r.shape)
        out[inner] = T(r[inner])
        beyond = ~inner & (r <= edges[-1])
        k = np.searchsorted(edges, r[beyond])  # edges[k-1] < r <= edges[k]
        out[beyond] = T_edges[k] + _panel_sums(g, r[beyond], edges[k])
        return out

    return RadialSolution(spec=spec, R_in=R_in, R_out=np.inf, u_in=u_in,
                          C_flux=float(tails[0]), flux_num=flux_num,
                          tail_edges=edges)


def _uprime_tail(sol, scale):
    """Integral of u' over [far, inf): 16-point Gauss sums on the panels
    of `sol.tail_edges`, added in order until three in a row are each
    below 1e-12 of the sum.  If the panels, which end where the source
    density does, run out first, the last three must each be below 1e-12 of
    max(|sum|, scale), or NonConvergenceError is raised."""
    lo, hi = sol.tail_edges[:-1], sol.tail_edges[1:]
    total, quiet, near = 0.0, 0, 0
    x16, w16 = gauss_rule(16)
    for start in range(0, len(lo), _TAIL_PANELS_PER_CALL):
        blk = slice(start, start + _TAIL_PANELS_PER_CALL)
        a, b = lo[blk, None], hi[blk, None]
        up = sol.u_prime(0.5 * (a + b) + 0.5 * (b - a) * x16)
        for contrib in 0.5 * (hi[blk] - lo[blk]) * (up @ w16):
            total += float(contrib)
            small = abs(contrib) <= 1e-12 * max(abs(total), 1e-300)
            quiet = quiet + 1 if small else 0
            if quiet >= 3:
                return total
            small = abs(contrib) <= 1e-12 * max(abs(total), scale)
            near = near + 1 if small else 0
    if near >= 3 or not lo.size:
        return total
    raise NonConvergenceError(
        f"u' tail from {lo[0]} has not settled where the source tail "
        f"vanishes, beyond {hi[-1]}")


def exterior_limit(sol):
    """Limit at infinity of a bounded exterior radial solution: u(far)
    plus `_uprime_tail` at scale |u(far)|, whose last three panels are
    below 1e-12 of the tail or, where the source tail vanishes first, of
    the larger of the tail and |u(far)|; else NonConvergenceError."""
    far = sol.far_edge
    if far is None:
        raise DomainError("limit is defined for exterior solutions only")
    # u(far) over dyadic pieces: one piece from R_in to far would have to
    # be bisected into the power-law decay of u' (far reaches 1e28)
    dyadic = sol.R_in * 2.0 ** np.arange(1, np.log2(far / sol.R_in))
    u_far = float(sol.values(np.append(dyadic, far))[-1])
    return u_far + _uprime_tail(sol, abs(u_far))


def flux_residual(sol, radii):
    """Worst deviation of the integrated identity over the given radii."""
    radii = np.asarray(radii, dtype=float)
    lhs = sol.flux(radii)
    rhs = sol.flux_num(radii)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs)) / scale)
