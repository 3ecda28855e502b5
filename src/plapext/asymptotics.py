"""Diagnostics for the behavior of exterior solutions at infinity: sphere
statistics, Harnack-type sweeps with a vanishing additive term, the
two-sided limit envelope, the dyadic oscillation-decay recurrence and its
implied decay exponent, power-law decay fits, and the driver for the
oscillating explicit solution showing bounded solutions need not have a
limit when the source decays at the borderline rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import lemma2prime_C0
from .operator_core import DomainError
from .source_terms import counterexample_residual, harnack_K

_SAMPLES_BEYOND = 48    # envelope_check: radii sampled beyond each R
_DECAY_FLOOR = 1e-13    # decay_fit: relative floor of oscillations, gaps


# ---------------------------------------------------------------------------
# sphere statistics

@dataclass
class SphereStats:
    R: float
    minimum: float
    maximum: float
    mean: float

    @property
    def osc(self):
        return self.maximum - self.minimum

    @property
    def midpoint(self):
        return 0.5 * (self.minimum + self.maximum)


def _values_on_spheres(u, radii):
    """Values of u on the sphere of each radius, one array per radius.

    A grid function (`at_radius`) and a `RadialProfile` (a radial solution
    or a barrier, `values`) are evaluated at all radii in one pass; objects
    with `value` and plain callables one radius at a time.
    """
    radii = [float(R) for R in radii]
    if hasattr(u, "at_radius"):
        return [np.atleast_1d(v) for v in u.at_radius(radii)]
    if callable(getattr(u, "values", None)):
        return [np.atleast_1d(v) for v in u.values(radii)]
    if hasattr(u, "value"):
        return [np.atleast_1d(float(u.value(R))) for R in radii]
    return [np.atleast_1d(np.asarray(u(R), dtype=float)) for R in radii]


def _domain_outer_radius(u):
    if hasattr(u, "mesh"):
        return u.mesh.R_out
    return float(getattr(u, "far_edge", None) or getattr(u, "R_out", math.inf))


def _stats(R, v):
    return SphereStats(R=float(R), minimum=float(np.min(v)),
                       maximum=float(np.max(v)), mean=float(np.mean(v)))


def sphere_stats(u, R):
    """Min / max / mean over the sphere of radius R (list for a sequence)."""
    if np.ndim(R) > 0:
        return [_stats(r, v) for r, v in zip(R, _values_on_spheres(u, R))]
    return _stats(R, _values_on_spheres(u, [R])[0])


# ---------------------------------------------------------------------------
# Harnack sweep on spheres

@dataclass
class HarnackEntry:
    R: float
    sup: float
    inf: float
    K: float
    ratio: float          # sup / (inf + K)
    bound_rhs: float = 0.0


@dataclass
class HarnackSweep:
    entries: list
    C_fit: float          # single constant making every entry pass

    @property
    def all_passed(self):
        return all(e.sup <= e.bound_rhs + 1e-12 * max(1.0, abs(e.sup))
                   for e in self.entries)


def harnack_sphere_check(u, f, spec, radii, theta=None):
    """sup <= C (inf + K(R)) on each sphere, with one fitted constant C.

    Requires u >= 0 on the queried spheres; K(R) comes from the source
    norm appropriate to the p > n / p <= n regime.
    """
    entries = []
    for s in sphere_stats(u, np.atleast_1d(radii)):
        if s.minimum < -1e-12 * max(1.0, abs(s.maximum)):
            raise DomainError("Harnack sweep requires nonnegative data")
        K = harnack_K(f, spec, s.R, theta=theta)
        denom = max(s.minimum, 0.0) + K
        ratio = s.maximum / denom if denom > 0 else math.inf
        entries.append(HarnackEntry(R=s.R, sup=s.maximum,
                                    inf=s.minimum, K=K, ratio=ratio))
    C_fit = max((e.ratio for e in entries), default=1.0)
    if not math.isfinite(C_fit):
        C_fit = math.inf
    for e in entries:
        e.bound_rhs = C_fit * (max(e.inf, 0.0) + e.K)
    return HarnackSweep(entries=entries, C_fit=C_fit)


# ---------------------------------------------------------------------------
# two-sided envelope toward the limit

def envelope_check(u, f, spec, radii):
    """For each R, every sampled value at radius >= R must lie in
    [m_R - C0 R^{-eps/(p-1)}, M_R + C0 R^{-eps/(p-1)}].

    C0 is the exterior comparison constant built from the decay tags of f
    (a zero source gives C0 = 0, the plain maximum principle).  Returns the
    most negative slack over all (R, sample) pairs; >= 0 means no violation.
    """
    if f is None or f.C_f is None:
        C0 = 0.0
        decay = 0.0
    else:
        if f.eps is None or f.eps <= 0:
            raise DomainError("envelope check needs eps > 0 decay tags")
        C0 = lemma2prime_C0(spec, f.C_f, f.eps)
        decay = f.eps / (spec.p - 1.0)
    R_top = _domain_outer_radius(u)
    if not math.isfinite(R_top):
        R_top = 4.0 * float(np.max(radii))
    radii = [float(R) for R in np.atleast_1d(radii)]
    # every sphere of the sweep in one evaluation: the radii R, then the
    # samples beyond each R
    beyond = [np.geomspace(R, max(R_top, R), _SAMPLES_BEYOND) for R in radii]
    vals = _values_on_spheres(u, np.concatenate([radii] + beyond))
    worst = math.inf
    for i, R in enumerate(radii):
        s = _stats(R, vals[i])
        half = C0 * R ** (-decay) if decay > 0 else C0
        far = vals[len(radii) + i * _SAMPLES_BEYOND:][:_SAMPLES_BEYOND]
        worst = min(worst,
                    min(float(np.min(v)) for v in far) - (s.minimum - half),
                    (s.maximum + half) - max(float(np.max(v)) for v in far))
    return worst


# ---------------------------------------------------------------------------
# oscillation decay constants

@dataclass
class OscPrediction:
    lam: float       # angular step of the sphere-covering chain
    l: int           # chain length covering the sphere
    c: float         # per-dyadic-shell oscillation gain
    C: float         # contraction factor 1 - c
    K: float         # additive constant from the source tail


def osc_prediction(spec, f):
    """Constants of the dyadic recurrence
    osc(2R) <= C (osc(R) + K R^{-eps/(p-1)}), valid in the p > n regime."""
    p, n = spec.p, spec.n
    if not p > n:
        raise DomainError("oscillation prediction requires p > n")
    if f.C_f is None or f.eps is None or f.eps <= 0:
        raise DomainError("oscillation prediction needs decay tags on f")
    lam = 0.5 * (spec.delta / spec.L_up) ** (1.0 / (p - n))
    l = int(math.ceil(2.0 * math.pi / lam))
    alpha = spec.alpha
    c = (1.0 - 2.0 ** (-alpha)) ** l
    K = 2.0 * lemma2prime_C0(spec, f.C_f, f.eps) \
        + (1.0 / alpha) * (f.C_f / (n * spec.L_up)) ** (1.0 / (p - 1.0))
    return OscPrediction(lam=lam, l=l, c=c, C=1.0 - c, K=K)


# ---------------------------------------------------------------------------
# decay fits

@dataclass
class DecayFit:
    beta: float              # headline decay exponent (gap or oscillation)
    limit: float             # estimated value at infinity
    residual: float          # max log-log regression residual
    beta_osc: float = math.inf
    beta_gap: float = math.inf
    recurrence_ok: bool = True


def _loglog_slope(radii, values):
    x, y = np.log(radii), np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(-slope), resid


def decay_fit(stats, spec=None, f=None, limit=None):
    """Power-law decay of sphere oscillations and of the gap to the limit.

    stats: >= 4 SphereStats at increasing (typically dyadic) radii.  The
    limit defaults to the midpoint at the largest radius.  Oscillations or
    gaps that are entirely below the floor give a +inf exponent (collapse
    faster than any power).  When spec and a decay-tagged f are supplied
    and p > n, the dyadic recurrence with the predicted constants is also
    verified on consecutive radius pairs with ratio 2.
    """
    stats = list(stats)
    if len(stats) < 4:
        raise DomainError("decay fit needs at least 4 sphere statistics")
    radii = np.array([s.R for s in stats])
    if np.any(np.diff(radii) <= 0):
        raise DomainError("sphere statistics must be at increasing radii")
    osc = np.array([s.osc for s in stats])
    scale = max(1.0, float(np.max(np.abs([s.maximum for s in stats]))))
    if limit is None:
        limit = stats[-1].midpoint
    gaps = np.array([abs(limit - s.midpoint) + 0.5 * s.osc for s in stats])
    floor = _DECAY_FLOOR * scale

    if np.all(osc <= floor):
        beta_osc, r_osc = math.inf, 0.0
    else:
        keep = osc > floor
        beta_osc, r_osc = _loglog_slope(radii[keep], osc[keep]) \
            if np.sum(keep) >= 2 else (0.0, 0.0)
    if np.all(gaps <= floor):
        beta_gap, r_gap = math.inf, 0.0
    else:
        keep = gaps > floor
        beta_gap, r_gap = _loglog_slope(radii[keep], gaps[keep]) \
            if np.sum(keep) >= 2 else (0.0, 0.0)

    recurrence_ok = True
    if spec is not None and f is not None and spec.p > spec.n \
            and f.C_f is not None and f.eps:
        pred = osc_prediction(spec, f)
        for a, b in zip(stats[:-1], stats[1:]):
            if abs(b.R - 2.0 * a.R) < 1e-9 * a.R:
                rhs = pred.C * (a.osc + pred.K
                                * a.R ** (-f.eps / (spec.p - 1.0)))
                if b.osc > rhs + 1e-9 * scale:
                    recurrence_ok = False
    headline = beta_gap if not math.isfinite(beta_osc) else beta_osc
    resid = max(r_osc if math.isfinite(beta_osc) else 0.0,
                r_gap if math.isfinite(beta_gap) else 0.0)
    return DecayFit(beta=headline, limit=float(limit), residual=resid,
                    beta_osc=beta_osc, beta_gap=beta_gap,
                    recurrence_ok=recurrence_ok)


# ---------------------------------------------------------------------------
# the no-limit oscillating solution

@dataclass
class CounterexampleReport:
    p: float
    n: int
    extrema_radii: list       # r_k = exp(exp(k pi)), alternating extremes
    extrema_values: list
    bound_ratios: list        # per-decade max of |f| r^p (log r)^{p-1}
    ratio_max: float
    ratio_min: float

    @property
    def limsup(self):
        return max(self.extrema_values)

    @property
    def liminf(self):
        return min(self.extrema_values)

    @property
    def has_limit(self):
        return abs(self.limsup - self.liminf) < 1e-12

    @property
    def ratio_variation(self):
        return self.ratio_max / self.ratio_min if self.ratio_min > 0 \
            else math.inf


def counterexample_suite(p, n=2, radii=None, k_max=4):
    """Tabulate the bounded no-limit profile cos(log log r) along with the
    scaled magnitude of its source term |f| r^p (log r)^{p-1}, which must
    stay bounded above and below over the sampled radii (>= 2)."""
    if p <= 1:
        raise DomainError("p must exceed 1")
    if radii is None:
        radii = np.geomspace(2.0, 1e6, 400)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 2.0):
        raise DomainError("counterexample radii must be >= 2")
    # r_k = exp(exp(k pi)) overflows float for k >= 3, but u(r_k) is exact
    # from the double-log argument: cos(log log r_k) = cos(k pi)
    with np.errstate(over="ignore"):
        rk = [float(np.exp(np.exp(k * np.pi))) for k in range(k_max + 1)]
    vk = [float(np.cos(k * np.pi)) for k in range(k_max + 1)]
    fvals = np.abs(counterexample_residual(radii, p, n))
    scaled = fvals * radii ** p * np.log(radii) ** (p - 1.0)
    rows = []
    lo = 2.0
    while lo < radii[-1] * (1 - 1e-12):
        hi = min(lo * 10.0, radii[-1])
        mask = (radii >= lo * (1 - 1e-12)) & (radii <= hi * (1 + 1e-12))
        if np.any(mask):
            rows.append((lo, hi, float(np.max(scaled[mask]))))
        lo = hi
    return CounterexampleReport(
        p=float(p), n=int(n), extrema_radii=rk, extrema_values=vk,
        bound_ratios=rows, ratio_max=float(np.max(scaled)),
        ratio_min=float(np.min([r[2] for r in rows])))
