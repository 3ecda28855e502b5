"""Schwarz symmetrization of sampled functions and the radial comparison
bounds it yields for Dirichlet problems.

The decreasing rearrangement is computed exactly from (value, measure)
pairs by sorting — no binning, so there is no resolution knob.  The
comparison bounds integrate the rearranged source against the kernel
rho^{-(n-1)/(p-1)}: `talenti_bound` uses the lower ellipticity constant
(a closed power form), `full_talenti_profile` uses the exact generalized
inverse of phi and is therefore at least as tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import DomainError, phi_inverse_array, unit_ball_volume
from .quadrature import G3_K7, integrate

_SOURCE_SAMPLES = 4096     # radii of the source the bounds rearrange


@dataclass
class RearrangementData:
    n: int
    values: np.ndarray        # sorted decreasing
    measures: np.ndarray      # matching cell measures
    cum_measure: np.ndarray   # cumulative measure after each cell
    radii: np.ndarray         # ball radii carrying the cumulative measure
    measure_before: np.ndarray   # cumulative measure before each cell, and
                                 # the total last
    integral_before: np.ndarray  # integral of values over the cells before
                                 # each cell, and the total last

    @property
    def total_measure(self):
        return float(self.cum_measure[-1])

    @property
    def outer_radius(self):
        return float(self.radii[-1])

    def decreasing(self, s):
        """u*(s): value at cumulative measure s (right-continuous steps)."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.cum_measure, s, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.where(s >= self.total_measure,
                        self.values[-1], self.values[idx])

    def profile(self, rho):
        """u^sharp on the centered ball: value at radius rho."""
        rho = np.asarray(rho, dtype=float)
        return self.decreasing(unit_ball_volume(self.n) * rho ** self.n)

    def distribution(self, t):
        """mu(t) = measure of the superlevel set {value > t}."""
        t = np.asarray(t, dtype=float)
        desc = -self.values            # ascending for searchsorted
        idx = np.searchsorted(desc, -t, side="left")
        return self.measure_before[idx]

    def cumulative(self, rho):
        """Integral of the rearranged function over the ball of radius rho."""
        return self._cumulative(rho, rows=False)

    def _cumulative(self, rho, rows):
        # rows: rho is 2D and each row lies within one piece between
        # consecutive radii (as the rows of an `integrate` integrand do when
        # the radii are breakpoints); the piece is then looked up once per
        # row, from its first entry, instead of once per element
        rho = np.asarray(rho, dtype=float)
        meas = np.minimum(unit_ball_volume(self.n) * rho ** self.n,
                          self.total_measure)
        idx = np.searchsorted(self.cum_measure,
                              meas[:, :1] if rows else meas, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        return self.integral_before[idx] \
            + self.values[idx] * (meas - self.measure_before[idx])


def rearrange_samples(values, measures, n):
    """Decreasing rearrangement of samples with given cell measures."""
    values = np.asarray(values, dtype=float).ravel()
    measures = np.asarray(measures, dtype=float).ravel()
    if values.shape != measures.shape:
        raise DomainError("values and measures must have matching shapes")
    if np.any(measures < 0) or not np.all(np.isfinite(values)):
        raise DomainError("measures must be nonnegative and values finite")
    order = np.argsort(-values, kind="stable")
    v, m = values[order], measures[order]
    cum = np.cumsum(m)
    radii = (cum / unit_ball_volume(n)) ** (1.0 / n)
    return RearrangementData(
        n=n, values=v, measures=m, cum_measure=cum, radii=radii,
        measure_before=np.concatenate(([0.0], cum)),
        integral_before=np.concatenate(([0.0], np.cumsum(v * m))))


def rearrange(u):
    """Symmetrization of a grid function, |u| weighted by nodal measures."""
    return rearrange_samples(np.abs(u.values), u.mesh.node_measures(),
                             u.mesh.n)


# ---------------------------------------------------------------------------
# comparison bounds

def _source_rearrangement(f, n, Omega_measure, R_in=None, R_out=None,
                          samples=_SOURCE_SAMPLES):
    """Exact rearrangement of |f| sampled over the domain carrying the
    stated measure (annulus [R_in, R_out] if given, else the centered ball
    of that measure)."""
    if isinstance(f, RearrangementData):
        return f
    omega = unit_ball_volume(n)
    if R_in is None:
        R_in, R_out = 0.0, (Omega_measure / omega) ** (1.0 / n)
    edges = R_in + (R_out - R_in) * np.linspace(0.0, 1.0, samples + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    shells = omega * (edges[1:] ** n - edges[:-1] ** n)
    vals = np.abs(np.asarray(f(mids), dtype=float)) if f is not None \
        else np.zeros_like(mids)
    return rearrange_samples(vals, shells, n)


def _rho_max(n, Omega_measure):
    return (Omega_measure / unit_ball_volume(n)) ** (1.0 / n)


def _integrate_kernel(kernel, f_star, a, b):
    # the kernels are smooth between consecutive rearrangement radii, so
    # with every radius a panel edge the pieces pass their G3/K7 test
    # without refinement, at 7 kernel nodes a piece where the default
    # G10/K21 pair spends 21; only the graded panels at the centre and a
    # few pieces after them, where a kernel grows like rho^(1/(p-1)), are
    # bisected.  No row of integrand nodes crosses a radius, and the
    # kernels look up the piece of each row once (`_cumulative(rows=True)`)
    return integrate(kernel, a, b, rel_tol=1e-10,
                     singular_left=(a == 0.0), breakpoints=f_star.radii[:-1],
                     rule=G3_K7)


def talenti_bound(u_boundary_sup, f, spec, Omega_measure, R_in=None,
                  R_out=None):
    """Global upper bound for sup of the symmetrized solution:

        sup u^sharp <= boundary sup
            + (1/(n omega_n delta))^{1/(p-1)}
              * int_0^{rho_max} rho^{-(n-1)/(p-1)} (int_{B_rho} f^sharp)^{1/(p-1)} drho
    """
    if Omega_measure <= 0:
        raise DomainError("domain measure must be positive")
    n, p = spec.n, spec.p
    fs = _source_rearrangement(f, n, Omega_measure, R_in, R_out)
    rho_max = _rho_max(n, Omega_measure)
    nwn = n * unit_ball_volume(n)

    def kernel(s):
        s = np.asarray(s, dtype=float)
        F = np.abs(fs._cumulative(s, rows=True))
        return (F / (spec.delta * nwn
                     * np.maximum(s, 1e-300) ** (n - 1))) ** (1.0 / (p - 1.0))

    return float(u_boundary_sup) + float(
        _integrate_kernel(kernel, fs, 0.0, rho_max))


def full_talenti_profile(u_boundary_sup, f, spec, Omega_measure, x_radius,
                         R_in=None, R_out=None):
    """Pointwise bound for u^sharp at radius |x|, with the exact generalized
    inverse of phi in place of the power relaxation; decreasing in x_radius
    and equal to the boundary sup at the edge of the symmetrized ball."""
    n = spec.n
    rho_max = _rho_max(n, Omega_measure)
    x_radius = float(x_radius)
    if not 0.0 <= x_radius <= rho_max * (1 + 1e-12):
        raise DomainError("x_radius must lie within the symmetrized ball")
    if x_radius >= rho_max:
        return float(u_boundary_sup)
    fs = _source_rearrangement(f, n, Omega_measure, R_in, R_out)
    nwn = n * unit_ball_volume(n)

    def kernel(s):
        s = np.asarray(s, dtype=float)
        F = np.abs(fs._cumulative(s, rows=True))
        return phi_inverse_array(
            spec, F / (nwn * np.maximum(s, 1e-300) ** (n - 1)))

    return float(u_boundary_sup) + float(
        _integrate_kernel(kernel, fs, x_radius, rho_max))
