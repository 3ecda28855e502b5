"""Radial supersolution families and their certified two-sided bounds.

Each family is defined through the integrated flux identity

    phi(v'(r)) r^(n-1) = C - integral of g s^(n-1) ds,

so v(r) is the quadrature of phi^{-1} of a known expression.  The four
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

from .operator_core import (DomainError, phi_eval, phi_inverse_array)
from .quadrature import cumulative_integral

_EVAL_TOL = 1e-12


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


@dataclass
class Barrier:
    family: str
    spec: object
    a: float
    R: float
    C_integration: float = 0.0
    f_sup: float = 0.0
    C_f: float = 0.0
    eps: float = 0.0

    @property
    def domain(self):
        if self.family in ("lemma1", "lemma1_prime"):
            return (0.0, self.R)
        if self.family == "lemma2":
            return (0.0, np.inf)
        return (self.R, np.inf)

    def flux(self, t):
        """phi(v'(t)) as a function of radius, from the integrated identity."""
        t = np.asarray(t, dtype=float)
        p, n = self.spec.p, self.spec.n
        ap = self.a ** (p - 1.0)
        tn1 = t ** (n - 1.0)
        if self.family in ("lemma1", "lemma1_prime"):
            return (self.f_sup / n * (self.R ** n - t ** n) + ap) / tn1
        if self.family == "lemma2":
            k = self.C_f / (p - n + self.eps)
            inner = (self.C_f / n * (1.0 - t ** n) + k + ap) / tn1
            outer = (k * t ** (n - p - self.eps) + ap) / tn1
            return np.where(t <= 1.0, inner, outer)
        k = self.C_f / (p - n + self.eps)
        return (k * t ** (n - p - self.eps) + ap) / tn1

    def derivative(self, t):
        """v'(t) = phi^{-1} of the flux (closed integrand, vectorized)."""
        return phi_inverse_array(self.spec, self.flux(t), tol=_EVAL_TOL)

    def majorant_g(self, r):
        """The radial majorant g with -div(...) v = g by construction."""
        r = np.asarray(r, dtype=float)
        if self.family in ("lemma1", "lemma1_prime"):
            return np.full_like(r, self.f_sup)
        if self.family == "lemma2":
            return np.where(r <= 1.0, self.C_f,
                            self.C_f * r ** (-self.spec.p - self.eps))
        return self.C_f * r ** (-self.spec.p - self.eps)

    def eval(self, r):
        """Barrier value at radius r (a one-radius `eval_many`)."""
        return float(self.eval_many([r])[0])

    def eval_many(self, radii):
        """Barrier values at every radius, by one `cumulative_integral` of
        v' from the left end of the domain (graded toward it for the ball
        families; lemma2's kink at r = 1 is a panel edge)."""
        lo_dom, hi_dom = self.domain
        radii = np.asarray(radii, dtype=float)
        bad = (radii < lo_dom - 1e-15) | (radii > hi_dom)
        if np.any(bad):
            raise DomainError(f"radius {radii[bad][0]} outside barrier domain "
                              f"[{lo_dom}, {hi_dom}]")
        return cumulative_integral(
            self.derivative, lo_dom, radii, rel_tol=_EVAL_TOL,
            singular_left=self.family != "lemma2_prime",
            breakpoints=(1.0,) if self.family == "lemma2" else ())

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
            amp = self.a + (self.R ** n * self.f_sup / n) ** e
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
        if p > n:
            lower = (1.0 / spec.L_up) ** e * self.a \
                * (r ** alpha - self.R ** alpha) / alpha
        else:
            lower = (1.0 / spec.L_up) ** e * self.a \
                * (np.log(r) - np.log(self.R))
        if self.a == 0:
            ee = self.eps / (p - 1.0)
            upper = lemma2prime_C0(spec, self.C_f, self.eps) \
                * (self.R ** (-ee) - r ** (-ee))
        else:
            upper = np.full_like(r, np.inf)
        return lower, upper


def make_lemma1(spec, R, f_sup, a):
    """Supersolution family on a ball of radius R with constant majorant."""
    if not spec.p > spec.n:
        raise DomainError("lemma1 barriers require p > n")
    if R <= 0 or a < 0 or f_sup < 0:
        raise DomainError("need R > 0, a >= 0, f_sup >= 0")
    C = R ** spec.n * f_sup / spec.n + a ** (spec.p - 1.0)
    return Barrier(family="lemma1", spec=spec, a=float(a), R=float(R),
                   C_integration=C, f_sup=float(f_sup))


def make_lemma2(spec, f, a):
    """Global supersolution family for a decay-tagged source."""
    if not spec.p > spec.n:
        raise DomainError("lemma2 barriers require p > n")
    if not f.decay_tagged:
        raise DomainError("lemma2 barriers require a decay-tagged source")
    if a < 0:
        raise DomainError("a must be nonnegative")
    C = f.C_f / (spec.p - spec.n + f.eps) + a ** (spec.p - 1.0)
    return Barrier(family="lemma2", spec=spec, a=float(a), R=np.inf,
                   C_integration=C, C_f=f.C_f, eps=f.eps)


def make_lemma1_prime(spec, R, f, a):
    """lemma1 family on a far ball: majorant C_f R^(-p-eps), center on S_2R."""
    if not spec.p > spec.n:
        raise DomainError("lemma1' barriers require p > n")
    if not f.decay_tagged:
        raise DomainError("lemma1' barriers require a decay-tagged source")
    f_sup = f.C_f * R ** (-spec.p - f.eps)
    C = R ** spec.n * f_sup / spec.n + a ** (spec.p - 1.0)
    return Barrier(family="lemma1_prime", spec=spec, a=float(a), R=float(R),
                   C_integration=C, f_sup=f_sup, C_f=f.C_f, eps=f.eps)


def make_lemma2_prime(spec, R, f, a):
    """Exterior supersolution family on [R, inf), vanishing at R."""
    if spec.p < spec.n:
        raise DomainError("lemma2' barriers require p >= n")
    if R <= 1:
        raise DomainError("lemma2' barriers require R > 1")
    if not f.decay_tagged:
        raise DomainError("lemma2' barriers require a decay-tagged source")
    C = f.C_f / (spec.p - spec.n + f.eps) * R ** (spec.n - spec.p - f.eps) \
        + a ** (spec.p - 1.0)
    return Barrier(family="lemma2_prime", spec=spec, a=float(a), R=float(R),
                   C_integration=C, C_f=f.C_f, eps=f.eps)


def residual_check(b, f, radii):
    """Max deviation of the integrated flux identity, plus majorant status.

    Returns (max_abs_residual, g_dominates) where g_dominates is True when
    the family majorant g lies above |f| at all queried radii (the
    supersolution property relative to f).
    """
    radii = np.asarray(radii, dtype=float)
    lo, hi = b.domain
    if np.any(radii < lo) or np.any(radii > hi):
        raise DomainError("radii outside the barrier domain")
    positive = radii[radii > max(lo, 0.0)]
    flux = phi_eval(b.spec, b.derivative(positive)) * positive ** (b.spec.n - 1.0)

    ref = {"lemma1": 0.0, "lemma1_prime": 0.0,
           "lemma2": 1.0, "lemma2_prime": b.R}[b.family]
    n = b.spec.n
    # integral of the majorant density from ref to each radius, in one
    # pass from the smallest; the only kink of a majorant (lemma2's, at 1)
    # is ref
    cum = cumulative_integral(lambda s: b.majorant_g(s) * s ** (n - 1.0),
                              np.min(positive, initial=ref),
                              np.append(positive, ref),
                              rel_tol=1e-13)
    cum = cum[:-1] - cum[-1]
    residual = flux + cum - b.C_integration
    scale = max(1.0, abs(b.C_integration))
    max_res = float(np.max(np.abs(residual)) / scale) if len(positive) else 0.0

    gvals = b.majorant_g(radii[radii > 0])
    fvals = np.abs(f(radii[radii > 0]))
    g_dominates = bool(np.all(gvals >= fvals - 1e-12 * np.maximum(1.0, gvals)))
    return max_res, g_dominates
