"""Reference values built apart from the package under test.

Everything here uses closed forms, or scipy's `quad` and `brentq` where no
closed form exists; nothing imports plapext.  The catalogue coefficients
are restated from their published definitions:

    plap         A(t) = 1
    smooth-bump  A(t) = 1 + 0.25 exp(-(t - 1)^2),   1 <= A <= 1.25

and the `powerdecay:C_f:eps` source is f(r) = C_f for r <= 1 and
C_f r^(-p-eps) beyond.  Every radius used with it here is >= 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

# lower and upper ellipticity constants of each catalogue coefficient
WINDOW = {"plap": (1.0, 1.0), "smooth-bump": (1.0, 1.25)}


def ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def coefficient(name, t):
    if name == "plap":
        return 1.0
    if name == "smooth-bump":
        return 1.0 + 0.25 * math.exp(-((t - 1.0) ** 2))
    raise ValueError(f"no reference for coefficient {name!r}")


def phi_inverse(name, p, s):
    """t >= 0 with t^(p-1) A(t) = s, by brentq inside the window bracket."""
    if s <= 0.0:
        return 0.0
    e = 1.0 / (p - 1.0)
    if name == "plap":
        return s ** e
    delta, L = WINDOW[name]
    lo, hi = (s / L) ** e, (s / delta) ** e
    return brentq(lambda t: t ** (p - 1.0) * coefficient(name, t) - s,
                  lo * (1.0 - 1e-12), hi * (1.0 + 1e-12),
                  xtol=1e-15 * hi, rtol=1e-15, maxiter=200)


# ---------------------------------------------------------------------------
# exterior radial problem with a power-decay source

def exterior_limit_plap(n, p, C_f, eps, R_in, u_in):
    """Limit at infinity of the bounded radial solution, A = 1."""
    k = (C_f / (p - n + eps)) ** (1.0 / (p - 1.0))
    return u_in + k * (p - 1.0) / eps * R_in ** (-eps / (p - 1.0))


def exterior_limit_quad(coeff, n, p, C_f, eps, R_in, u_in):
    """The same limit for any catalogue coefficient:
    u_in + int_{R_in}^inf phi^{-1}(T(r)/r^(n-1)) dr, where T(r)/r^(n-1) =
    k r^(1-p-eps) with k = C_f/(p-n+eps).  With r = e^x the integrand
    decays like exp(-x eps/(p-1)) on the infinite interval; beyond x = 700
    it is taken as 0."""
    log_k = math.log(C_f / (p - n + eps))

    def integrand(x):
        if x > 700.0:
            return 0.0
        s = math.exp(log_k - (p + eps - 1.0) * x)
        return math.exp(x) * phi_inverse(coeff, p, s)

    val, _ = quad(integrand, math.log(R_in), math.inf, epsabs=0.0,
                  epsrel=1e-12, limit=400)
    return u_in + val


def radial_bvp(coeff, n, p, C_f, eps, R_in, R_out, u_in, u_out, radii):
    """(flux constant C, u at `radii`) of the radial two-point problem on
    [R_in, R_out] with a power-decay source.  u' = sgn(x) phi^{-1}(|x|) with
    x = (C - F(r))/r^(n-1) and F(r) = int_{R_in}^r f s^(n-1) ds in closed
    form; C is found by brentq on the outer value, each a quad split where
    u' changes sign (F(r) = C), the one point where it is not smooth."""
    k = n - p - eps

    def slope(r, C):
        x = (C - C_f * (r ** k - R_in ** k) / k) / r ** (n - 1.0)
        return math.copysign(phi_inverse(coeff, p, abs(x)), x)

    def value(r, C):
        base = R_in ** k + k * C / C_f
        kink = base ** (1.0 / k) if base > 0.0 else math.inf
        points = [kink] if R_in < kink < r else None
        return u_in + quad(slope, R_in, r, args=(C,), points=points,
                           epsabs=0.0, epsrel=1e-12, limit=200)[0]

    lo, hi = -1.0, 1.0
    while value(R_out, lo) > u_out:
        lo *= 2.0
    while value(R_out, hi) < u_out:
        hi *= 2.0
    C = brentq(lambda c: value(R_out, c) - u_out, lo, hi, xtol=1e-15,
               rtol=1e-15, maxiter=200)
    return C, [value(float(r), C) for r in radii]


def lemma1_free(n, p, a, r):
    """lemma1 barrier of A = 1 with f = 0: a r^alpha / alpha."""
    alpha = (p - n) / (p - 1.0)
    return a * np.asarray(r, dtype=float) ** alpha / alpha


def lemma2_bound(coeff, n, p, C_f, eps):
    """Uniform bound of the a = 0 global barrier for a power-decay source:
    (C_f (p+eps) / (delta n (p-n+eps)))^(1/(p-1)) (1/alpha + (p-1)/eps)."""
    delta = WINDOW[coeff][0]
    alpha = (p - n) / (p - 1.0)
    base = C_f * (p + eps) / (delta * n * (p - n + eps))
    return base ** (1.0 / (p - 1.0)) * (1.0 / alpha + (p - 1.0) / eps)


# ---------------------------------------------------------------------------
# radial closed forms on an annulus (f = 0, A = 1)

def radial_free(p, R_in, R_out, u_in, u_out):
    """(u, |u'''|) of the radial 2D p-harmonic function with the given
    traces: a + b r^((p-2)/(p-1)), or a + b log r at p = 2."""
    if p == 2.0:
        b = (u_out - u_in) / (math.log(R_out) - math.log(R_in))
        a = u_in - b * math.log(R_in)
        return (lambda r: a + b * np.log(r),
                lambda r: np.abs(2.0 * b / r ** 3))
    al = (p - 2.0) / (p - 1.0)
    b = (u_out - u_in) / (R_out ** al - R_in ** al)
    a = u_in - b * R_in ** al
    c3 = abs(b * al * (al - 1.0) * (al - 2.0))
    return (lambda r: a + b * r ** al,
            lambda r: c3 * r ** (al - 3.0))


def radial_discretization_bound(radii, third):
    """Nodal error bound of the cell-wise constant gradient discretization.

    The discrete radial solution has phi(u'_i) rbar_i = C_h on cell i, the
    exact one phi(u') r = C.  Each cell is then a midpoint rule for the
    integral of u', off by at most h^3/24 max|u'''|; re-fitting the flux
    constant to the boundary data moves every partial sum in one direction
    by at most the total of those errors.  Hence twice the sum.  |u'''|
    decreases in r, so its cell maximum is at the left node.
    """
    r = np.asarray(radii, dtype=float)
    h = np.diff(r)
    return 2.0 * float(np.sum(h ** 3 / 24.0 * third(r[:-1])))


# ---------------------------------------------------------------------------
# Talenti bound of a power-decay source on an annulus [R_in, R_out], R_in >= 1

def _ball_integral(n, p, C_f, eps, R_in, rho):
    """Integral of the exact rearrangement f#(s) = f((s^n + R_in^n)^(1/n))
    over the ball of radius rho.  The substitution t^n = s^n + R_in^n turns
    it into n omega_n int_{R_in}^{t} C_f t^(n-1-p-eps) dt, evaluated without
    cancellation for small rho."""
    k = n - p - eps
    diff = R_in ** k * math.expm1(k / n * math.log1p((rho / R_in) ** n))
    return n * ball_volume(n) * C_f * diff / k


def talenti_reference(coeff, n, p, C_f, eps, R_in, R_out, u_sup,
                      samples=4096):
    """(bound, allowed error) for `talenti_bound` on this source.

    The bound is u_sup + int_0^rho_max (F(rho)/(delta n omega_n
    rho^(n-1)))^(1/(p-1)) drho with the exact ball integrals F.

    The program rearranges f sampled at the midpoints m of `samples` equal
    radial shells of width h.  f is radially decreasing, so rearranging
    keeps the shells in order, and its ball integrals F_h differ from F by
    the midpoint-rule errors of int f g dr, g = n omega_n r^(n-1), summed
    over the whole shells (each at most h^3/12 (|f'(m)| max|g'| +
    max|f''| max g / 2)), plus at most h |shell| max|f'| inside the last,
    partial shell.  Both are also ball integrals of functions below sup f,
    so the error is at most e = min(dF, 2 sup f |B_rho|).  It passes
    through the power q = 1/(p-1) <= 1 by the smaller of e^q and
    q e (F - e)^(q-1); the allowed error is the integral of that over rho.
    """
    delta = WINDOW[coeff][0]
    omega = ball_volume(n)
    nwn = n * omega
    q = 1.0 / (p - 1.0)
    if q > 1.0:
        raise ValueError("the error bound assumes p >= 2")
    rho_max = (R_out ** n - R_in ** n) ** (1.0 / n)

    a = p + eps
    edges = R_in + (R_out - R_in) * np.linspace(0.0, 1.0, samples + 1)
    lo, hi = edges[:-1], edges[1:]
    h = (R_out - R_in) / samples
    mid = 0.5 * (lo + hi)
    shells = omega * (hi ** n - lo ** n)
    f1_mid = a * C_f * mid ** (-a - 1.0)          # |f'| at the midpoints
    f1_max = a * C_f * lo ** (-a - 1.0)           # |f'| peaks at the left end
    f2_max = a * (a + 1.0) * C_f * lo ** (-a - 2.0)
    g_max = nwn * hi ** (n - 1.0)
    g1_max = nwn * (n - 1.0) * np.maximum(lo ** (n - 2.0), hi ** (n - 2.0))
    whole = np.sum(h ** 3 / 12.0 * (f1_mid * g1_max + 0.5 * f2_max * g_max))
    dF = float(whole + np.max(h * shells * f1_max))
    f_sup = C_f * R_in ** (-a)

    def kernel(rho):
        if rho <= 0.0:
            return 0.0
        F = _ball_integral(n, p, C_f, eps, R_in, rho)
        return (F / (delta * nwn * rho ** (n - 1.0))) ** q

    def kernel_err(rho):
        if rho <= 0.0:
            return 0.0
        F = _ball_integral(n, p, C_f, eps, R_in, rho)
        e = min(dF, 2.0 * f_sup * omega * rho ** n)
        err = e ** q
        if F > e:
            err = min(err, q * e * (F - e) ** (q - 1.0))
        return err / (delta * nwn * rho ** (n - 1.0)) ** q

    bound = u_sup + quad(kernel, 0.0, rho_max, epsabs=0.0, epsrel=1e-12,
                         limit=200)[0]
    # kernel_err has a kink where the two error forms cross; it only needs
    # a few digits
    switch = (dF / (2.0 * f_sup * omega)) ** (1.0 / n)
    err = quad(kernel_err, 0.0, rho_max, epsabs=0.0, epsrel=1e-6, limit=200,
               points=[switch] if switch < rho_max else None)[0]
    return bound, err
