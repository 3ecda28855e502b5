"""Radial supersolution families and their certified two-sided bounds.

Each family is defined through the integrated flux identity

    phi(v'(r)) r^(n-1) = C - integral of g s^(n-1) ds,

so v(r) is the quadrature of phi^{-1} of a known expression: a barrier is
a `radial_solver.RadialProfile` whose constructor supplies that closed-form
C - integral, and it adds the family's majorant and bounds.  The four
families differ in their domain, majorant g, and integration constant:

  * lemma1:       ball [0, R], constant majorant ||f||_inf, requires p > n
  * lemma2:       global (0, inf), piecewise majorant (constant inside the
                  unit ball, power tail outside), requires p > n
  * lemma1_prime: lemma1 with the majorant C_f R^(-p-eps) on a far ball
  * lemma2_prime: exterior [R, inf), power majorant, requires p >= n

The integrand behaves like t^(-(n-1)/(p-1)) at the inner endpoint of the
ball families: integrable for p > n, handled by geometric panel grading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import DomainError
from .quadrature import cumulative_integral
from .radial_solver import RadialProfile


def lemma2_C0(spec, C_f, eps):
    """Global bound for the a = 0 member of the lemma2 family."""
    p, n, delta = spec.p, spec.n, spec.delta
    alpha = spec.alpha
    base = C_f * (p + eps) / (delta * n * (p - n + eps))
    return base ** (1.0 / (p - 1.0)) * (1.0 / alpha + (p - 1.0) / eps)


def lemma2prime_C0(spec, C_f, eps):
    """Envelope constant: (C_f/(delta (p-n+eps)))^(1/(p-1)) (p-1)/eps."""
    p, n, delta = spec.p, spec.n, spec.delta
    return (C_f / (delta * (p - n + eps))) ** (1.0 / (p - 1.0)) \
        * (p - 1.0) / eps


@dataclass(kw_only=True)
class Barrier(RadialProfile):
    """A family member: the profile from v(R_in) = 0, plus the family data."""
    family: str
    a: float
    f_sup: float = 0.0
    C_f: float = 0.0
    eps: float = 0.0

    # the benchmark tracer (perfbench/tracing.py) wraps these names
    eval = RadialProfile.value
    eval_many = RadialProfile.values

    def majorant_g(self, r):
        """The radial majorant g with -div(...) v = g by construction."""
        r = np.asarray(r, dtype=float)
        if self.family in ("lemma1", "lemma1_prime"):
            return np.full_like(r, self.f_sup)
        if self.family == "lemma2":
            return np.where(r <= 1.0, self.C_f,
                            self.C_f * r ** (-self.spec.p - self.eps))
        return self.C_f * r ** (-self.spec.p - self.eps)

    def bounds(self, r):
        """Certified (lower, upper) for v_a(r); upper may be inf where the
        family provides a one-sided estimate only (a > 0 global members)."""
        spec = self.spec
        p, n = spec.p, spec.n
        alpha = spec.alpha
        e = 1.0 / (p - 1.0)
        r = np.asarray(r, dtype=float)
        if self.family in ("lemma1", "lemma1_prime"):
            lower = (1.0 / spec.L_up) ** e * self.a * r ** alpha / alpha
            amp = self.a + (self.R_out ** n * self.f_sup / n) ** e
            upper = (1.0 / spec.delta) ** e * amp * r ** alpha / alpha
            return lower, upper
        if self.family == "lemma2":
            c0 = (1.0 / spec.L_up) ** e / alpha
            lower = c0 * self.a * r ** alpha
            upper = np.full_like(
                r, lemma2_C0(spec, self.C_f, self.eps) if self.a == 0
                else np.inf)
            return lower, upper
        # lemma2_prime
        R = self.R_in
        if p > n:
            lower = (1.0 / spec.L_up) ** e * self.a \
                * (r ** alpha - R ** alpha) / alpha
        else:
            lower = (1.0 / spec.L_up) ** e * self.a \
                * (np.log(r) - np.log(R))
        if self.a == 0:
            ee = self.eps / (p - 1.0)
            upper = lemma2prime_C0(spec, self.C_f, self.eps) \
                * (R ** (-ee) - r ** (-ee))
        else:
            upper = np.full_like(r, np.inf)
        return lower, upper


def _ball(family, spec, R, f_sup, a, C, **tags):
    """A ball-family member on [0, R] with constant majorant f_sup."""
    R, a, n = float(R), float(a), spec.n
    ap = a ** (spec.p - 1.0)
    return Barrier(family=family, spec=spec, a=a, R_in=0.0, R_out=R,
                   u_in=0.0, C_flux=C, f_sup=f_sup, singular_left=True,
                   flux_num=lambda t: f_sup / n * (R ** n - t ** n) + ap,
                   **tags)


def make_lemma1(spec, R, f_sup, a):
    """Supersolution family on a ball of radius R with constant majorant."""
    if not spec.p > spec.n:
        raise DomainError("lemma1 barriers require p > n")
    if R <= 0 or a < 0 or f_sup < 0:
        raise DomainError("need R > 0, a >= 0, f_sup >= 0")
    C = R ** spec.n * f_sup / spec.n + a ** (spec.p - 1.0)
    return _ball("lemma1", spec, R, float(f_sup), a, C)


def make_lemma2(spec, f, a):
    """Global supersolution family for a decay-tagged source."""
    if not spec.p > spec.n:
        raise DomainError("lemma2 barriers require p > n")
    if not f.decay_tagged:
        raise DomainError("lemma2 barriers require a decay-tagged source")
    if a < 0:
        raise DomainError("a must be nonnegative")
    p, n, C_f, eps = spec.p, spec.n, f.C_f, f.eps
    k, ap = C_f / (p - n + eps), float(a) ** (p - 1.0)
    return Barrier(family="lemma2", spec=spec, a=float(a), R_in=0.0,
                   R_out=np.inf, u_in=0.0, C_flux=k + ap, singular_left=True,
                   breakpoints=(1.0,), C_f=C_f, eps=eps,
                   flux_num=lambda t: np.where(
                       t <= 1.0, C_f / n * (1.0 - t ** n) + k + ap,
                       k * t ** (n - p - eps) + ap))


def make_lemma1_prime(spec, R, f, a):
    """lemma1 family on a far ball: majorant C_f R^(-p-eps), center on S_2R."""
    if not spec.p > spec.n:
        raise DomainError("lemma1' barriers require p > n")
    if not f.decay_tagged:
        raise DomainError("lemma1' barriers require a decay-tagged source")
    f_sup = f.C_f * R ** (-spec.p - f.eps)
    C = R ** spec.n * f_sup / spec.n + a ** (spec.p - 1.0)
    return _ball("lemma1_prime", spec, R, f_sup, a, C, C_f=f.C_f, eps=f.eps)


def make_lemma2_prime(spec, R, f, a):
    """Exterior supersolution family on [R, inf), vanishing at R."""
    if spec.p < spec.n:
        raise DomainError("lemma2' barriers require p >= n")
    if R <= 1:
        raise DomainError("lemma2' barriers require R > 1")
    if not f.decay_tagged:
        raise DomainError("lemma2' barriers require a decay-tagged source")
    p, n, C_f, eps = spec.p, spec.n, f.C_f, f.eps
    k, ap = C_f / (p - n + eps), float(a) ** (p - 1.0)
    return Barrier(family="lemma2_prime", spec=spec, a=float(a),
                   R_in=float(R), R_out=np.inf, u_in=0.0,
                   C_flux=k * R ** (n - p - eps) + ap, C_f=C_f, eps=eps,
                   flux_num=lambda t: k * t ** (n - p - eps) + ap)


def residual_check(b, f, radii):
    """Max deviation of the integrated flux identity, plus majorant status.

    Returns (max_abs_residual, g_dominates) where g_dominates is True when
    the family majorant g lies above |f| at all queried radii (the
    supersolution property relative to f).
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < b.R_in) or np.any(radii > b.R_out):
        raise DomainError("radii outside the barrier domain")
    positive = radii[radii > b.R_in]
    flux = b.flux(positive)

    ref = 1.0 if b.family == "lemma2" else b.R_in
    n = b.spec.n
    # integral of the majorant density from ref to each radius, in one
    # pass from the smallest; the only kink of a majorant (lemma2's, at 1)
    # is ref
    cum = cumulative_integral(lambda s: b.majorant_g(s) * s ** (n - 1.0),
                              np.min(positive, initial=ref),
                              np.append(positive, ref),
                              rel_tol=1e-13)
    cum = cum[:-1] - cum[-1]
    residual = flux + cum - b.C_flux
    scale = max(1.0, abs(b.C_flux))
    max_res = float(np.max(np.abs(residual)) / scale) if len(positive) else 0.0

    gvals = b.majorant_g(radii[radii > 0])
    fvals = np.abs(f(radii[radii > 0]))
    g_dominates = bool(np.all(gvals >= fvals - 1e-12 * np.maximum(1.0, gvals)))
    return max_res, g_dominates
