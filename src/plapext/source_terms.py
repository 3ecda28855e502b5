"""Right-hand sides f: decay tagging, annular Lebesgue norms, Harnack constants.

A decay-tagged source satisfies |f(r)| <= C_f r^(-(p+eps)) for r >= r0 with
eps > 0.  Norms over annuli use the radial surface-area weight
n omega_n r^(n-1); tails to infinity go through the doubling-panel
integrator, whose panel sums are cached so the exterior norms at R = 2^k
reuse one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import compile_expression
from .operator_core import DomainError, unit_ball_volume
from .quadrature import DivergenceError, integrate, tail_panel_sums


@dataclass
class SourceTerm:
    """Radial source f(r): a vectorized profile (None means f = 0), an
    optional decay tag (C_f, eps) valid from r0 on, and, for the kinds with
    a closed form (`zero`, `powerdecay`), the exact density integral
    density_integral(a, b, n) = integral over [a, b] of f(s) s^(n-1),
    vectorized over 0 <= a <= b <= inf; None for the other kinds."""

    profile: object = None              # vectorized callable of radius
    C_f: float | None = None
    eps: float | None = None
    r0: float = 1.0
    name: str = "zero"
    density_integral: object = None
    _tail_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.profile is None:
            self.profile = lambda r: np.zeros_like(np.asarray(r, dtype=float))

    @property
    def decay_tagged(self):
        return self.C_f is not None and self.eps is not None and self.eps > 0

    def __call__(self, r):
        return np.asarray(self.profile(np.asarray(r, dtype=float)),
                          dtype=float)


def zero_source():
    return SourceTerm(name="zero", C_f=0.0, eps=1.0,
                      density_integral=lambda a, b, n: np.zeros(
                          np.broadcast(a, b).shape))


def _power_integral(m, a, b):
    """Integral of s^(m-1) over [a, b], 0 <= a <= b <= inf, elementwise:
    c^m (1 - exp(-|m| L))/|m| with L = log(b/a) and c the endpoint where
    s^m is larger, so no difference of powers is formed; for m < 0 and
    b = inf this is a^m/(-m) itself.  m = 0 gives L."""
    if m < 0 and np.ndim(b) == 0 and b == np.inf:
        return a ** m / -m
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(b > a, np.log1p((b - a) / a), 0.0)
    if m == 0:
        return L
    c = b if m > 0 else a
    return c ** m * -np.expm1(-abs(m) * L) / abs(m)


def power_decay_source(spec, C_f, eps):
    """f(r) = C_f min(1, r)^... : C_f for r <= 1, C_f r^(-(p+eps)) beyond."""
    expo = spec.p + eps

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 1.0, C_f, C_f * np.maximum(r, 1e-300) ** (-expo))

    def density_integral(a, b, n):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if C_f == 0:
            return np.zeros(np.broadcast(a, b).shape)
        if expo <= n and np.any(np.isinf(b)):
            raise DivergenceError(
                f"f s^(n-1) = C_f s^({n - 1 - expo:g}) is not integrable "
                f"at infinity")
        if np.all(a >= 1.0):
            return C_f * _power_integral(n - expo, a, b)
        return C_f * (_power_integral(n, np.minimum(a, 1.0),
                                      np.minimum(b, 1.0))
                      + _power_integral(n - expo, np.maximum(a, 1.0),
                                        np.maximum(b, 1.0)))

    return SourceTerm(profile=profile, C_f=float(C_f), eps=float(eps),
                      name=f"powerdecay:{C_f}:{eps}",
                      density_integral=density_integral)


def counterexample_u(r):
    """u(r) = cos(log log r), defined for r > 1."""
    r = np.asarray(r, dtype=float)
    return np.cos(np.log(np.log(r)))


def counterexample_derivatives(r):
    """Exact u', u'' of u = cos(log log r)."""
    r = np.asarray(r, dtype=float)
    lg = np.log(r)
    w = np.log(lg)
    g1 = 1.0 / (r * lg)
    up = -np.sin(w) * g1
    upp = g1 ** 2 * (np.sin(w) * (lg + 1.0) - np.cos(w))
    return up, upp


def counterexample_residual(r, p, n):
    """f = -Delta_p u for u = cos(log log r), via the radial formula.

    Delta_p u = |u'|^(p-2) ((p-1) u'' + (n-1) u'/r); the |u'|^(p-2) factor
    vanishes at the isolated zeros of u' for p > 2.
    """
    r = np.asarray(r, dtype=float)
    up, upp = counterexample_derivatives(r)
    mag = np.abs(up)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0, mag ** (p - 2.0), 0.0 if p >= 2 else np.inf)
    lap = factor * ((p - 1.0) * upp + (n - 1.0) * up / r)
    return -lap


def counterexample_source(p, n):
    """The eps = 0 residual source; bounded, not decay-tagged."""
    def profile(r):
        r = np.asarray(r, dtype=float)
        rc = np.maximum(r, 2.0)    # extended by its r = 2 value inward
        return counterexample_residual(rc, p, n)

    return SourceTerm(profile=profile, C_f=None, eps=None, r0=2.0,
                      name=f"counterexample:{p}:{n}")


def expression_source(text):
    prof = compile_expression(text, var="r")
    return SourceTerm(profile=prof, name=f"expr:{text}")


def source_from_name(name, spec):
    if name == "zero":
        return zero_source()
    if name.startswith("powerdecay:"):
        _, cf, eps = name.split(":")
        return power_decay_source(spec, float(cf), float(eps))
    if name == "counterexample":
        return counterexample_source(spec.p, spec.n)
    if name.startswith("expr:"):
        return expression_source(name.split(":", 1)[1])
    raise DomainError(f"unknown source name {name!r}")


# ---------------------------------------------------------------------------
# decay and norm conditions

def check_decay(f, spec, r0=1.0, samples=400):
    """Worst value of |f(r)| r^(p+eps) on a geometric grid from r0.

    Returns (passed, worst_ratio); passed means worst_ratio <= C_f up to
    roundoff.
    """
    if r0 < 1.0:
        raise DomainError("decay checks start at r0 >= 1")
    if f.eps is None:
        raise DomainError("source carries no decay tag (C_f, eps)")
    rs = np.geomspace(r0, r0 * 1e8, samples)
    ratio = np.abs(f(rs)) * rs ** (spec.p + f.eps)
    worst = float(np.max(ratio)) if len(rs) else 0.0
    passed = worst <= (f.C_f or 0.0) * (1.0 + 1e-9) + 1e-300
    return passed, worst


def _radial_weight(n):
    return n * unit_ball_volume(n)


def annulus_norm(f, n, q, R_in, R_out):
    """(integral over the annulus of |f|^q)^(1/q) by radial quadrature.

    R_out may be inf; a DivergenceError signals a non-integrable tail.
    """
    if q < 1:
        raise DomainError("Lebesgue exponent q must be >= 1")
    if not R_in < R_out:
        raise DomainError("need R_in < R_out")
    w = _radial_weight(n)
    g = lambda r: w * np.abs(f(r)) ** q * r ** (n - 1.0)
    if np.isinf(R_out):
        val = integrate(g, R_in, 2.0 * R_in) + _tail_from(f, n, q, 2.0 * R_in)
    else:
        val = integrate(g, R_in, R_out, breakpoints=(1.0, f.r0))
    return float(max(val, 0.0) ** (1.0 / q))


def _tail_from(f, n, q, R):
    """Integral of |f|^q over the exterior of B_R, cached at dyadic edges."""
    w = _radial_weight(n)
    g = lambda r: w * np.abs(f(r)) ** q * r ** (n - 1.0)
    key = (q, n)
    if key not in f._tail_cache:
        edges, sums = tail_panel_sums(g, 1.0)
        f._tail_cache[key] = (edges, np.asarray(sums))
    edges, sums = f._tail_cache[key]
    if R <= edges[0]:
        extra = integrate(g, R, edges[0])
        return float(extra + np.sum(sums))
    # accumulate whole panels beyond R plus the partial panel containing R
    idx = np.searchsorted(edges, R, side="left")
    if idx >= len(edges):
        return 0.0
    partial = integrate(g, R, float(edges[idx]))
    return float(partial + np.sum(sums[idx:]))


def exterior_norm(f, n, q, R):
    """L^q norm of f on the exterior of B_R."""
    return float(_tail_from(f, n, q, R) ** (1.0 / q))


@dataclass
class NormConditionReport:
    r_exponent: float
    theta: float
    norm_values: list
    flag_Lr: bool
    flag_Ltheta: bool
    flag_Kgoes0: bool

    @property
    def all_passed(self):
        return self.flag_Lr and self.flag_Ltheta and self.flag_Kgoes0


def check_part_b_conditions(f, spec, r_exp, theta, k_max=40):
    """Integrability conditions for the limit at infinity when 1 < p < n.

    Checks f in L^(r_exp) and L^(n/(p-theta)) outside the unit ball, and
    the vanishing of R^theta ||f|| on exteriors along R = 2^k.  The limit
    is declared numerically when the dyadic sequence either collapses below
    1e-6 of its first value or keeps decreasing with a persistent ratio
    below 1 (slowly vanishing tails, e.g. logarithmic decay).
    """
    p, n = spec.p, spec.n
    if not p < n:
        raise DomainError("part (b) conditions require p < n")
    if not (0 < theta < 1):
        raise DomainError("theta must lie in (0, 1)")
    if r_exp < 1:
        raise DomainError("r_exp must be >= 1")
    s = n / (p - theta)

    flag_Lr = r_exp < n / p
    if flag_Lr:
        try:
            exterior_norm(f, n, r_exp, 1.0)
        except DivergenceError:
            flag_Lr = False

    try:
        norm_theta = exterior_norm(f, n, s, 1.0)
        flag_Ltheta = np.isfinite(norm_theta)
    except DivergenceError:
        flag_Ltheta = False

    norm_values = []
    flag_K = False
    if flag_Ltheta:
        Rs = 2.0 ** np.arange(1, k_max + 1)
        Ks = []
        for R in Rs:
            nv = exterior_norm(f, n, s, R)
            norm_values.append((float(R), nv))
            Ks.append(R ** theta * nv)
        Ks = np.asarray(Ks)
        if Ks[0] <= 1e-300:
            flag_K = True
        elif np.min(Ks) <= 1e-6 * Ks[0]:
            flag_K = True
        else:
            half = len(Ks) // 2
            tail = Ks[half:]
            decreasing = bool(np.all(np.diff(tail) < 0))
            flag_K = decreasing and tail[-1] <= 0.95 * tail[0]

    return NormConditionReport(r_exponent=float(r_exp), theta=float(theta),
                               norm_values=norm_values, flag_Lr=bool(flag_Lr),
                               flag_Ltheta=bool(flag_Ltheta),
                               flag_Kgoes0=bool(flag_K))


def harnack_K(f, spec, R, theta=None):
    """Source correction K(R) of the sphere Harnack inequality.

    p > n: (R^(p-n) ||f||_{L^1(B_R)})^(1/(p-1)).
    p <= n: the exterior-norm form ((R/4)^theta ||f|| over the complement
    of B_(R/4))^(1/(p-1)), which is the one entering the sphere estimates.
    """
    if R <= 0:
        raise DomainError("R must be positive")
    p, n = spec.p, spec.n
    if p > n:
        w = _radial_weight(n)
        ball = integrate(lambda r: w * np.abs(f(r)) * r ** (n - 1.0),
                         0.0, R, breakpoints=(1.0, f.r0), singular_left=True)
        return float((R ** (p - n) * ball) ** (1.0 / (p - 1.0)))
    if theta is None or not (0 < theta < 1):
        raise DomainError("p <= n requires theta in (0, 1)")
    s = n / (p - theta)
    nv = exterior_norm(f, n, s, R / 4.0)
    return float(((R / 4.0) ** theta * nv) ** (1.0 / (p - 1.0)))
