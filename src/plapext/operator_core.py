"""Operator coefficient A, its structural conditions, and phi(t) = t^(p-1) A(t).

The coefficient must be bounded between the declared ellipticity constants
delta and L, and phi must be strictly increasing; under those conditions
phi has a generalized inverse on [0, inf) bracketed by

    (s/L)^(1/(p-1)) <= phi^{-1}(s) <= (s/delta)^(1/(p-1)).

Every coefficient carries its exact derivative A' (`OperatorSpec.dA`), so
phi'(t) = t^(p-2) ((p-1) A + t A') is exact, and the inverse is a
safeguarded Newton solve of log phi(t) = log s in log t, which falls back
to the geometric midpoint of that bracket whenever a step would leave it.
`bracketed_newton` is the same safeguard for one increasing scalar
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import compile_expression


_INVERSE_TOL = 1e-12       # phi_inverse_array: |phi(t) - s| <= tol s
_INVERSE_MAX_ITER = 100    # phi_inverse_array: Newton iterations per element
# validate_conditions samples A at 0 and on this geometric grid
_CONDITION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 2001)))
_CONDITION_GRID.setflags(write=False)


class DomainError(ValueError):
    pass


class NonConvergenceError(ArithmeticError):
    pass


@dataclass(frozen=True)
class OperatorSpec:
    """Exponent p, dimension n, coefficient A with window [delta, L_up]
    and its derivative dA; a given A without dA raises DomainError."""

    p: float
    n: int
    A: object = None            # vectorized callable on [0, inf); None means A == 1
    dA: object = None           # vectorized A'
    delta: float = 1.0
    L_up: float = 1.0
    const_value: float | None = field(default=None)
    name: str = "plap"

    def __post_init__(self):
        if not self.p > 1:
            raise DomainError(f"p must exceed 1, got {self.p}")
        if not (isinstance(self.n, int) and self.n >= 2):
            raise DomainError(f"n must be an integer >= 2, got {self.n}")
        if not (0 < self.delta <= self.L_up):
            raise DomainError("need 0 < delta <= L_up")
        if self.A is None:
            A, dA = _const_coeff(1.0)
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "dA", dA)
            object.__setattr__(self, "const_value", 1.0)
        elif self.dA is None:
            raise DomainError("a coefficient A needs its derivative dA")

    @property
    def alpha(self):
        """Natural radial growth exponent (p - n)/(p - 1), positive for p > n."""
        return (self.p - self.n) / (self.p - 1.0)

    def coeff(self, t):
        return np.asarray(self.A(np.asarray(t, dtype=float)), dtype=float)


def _const_coeff(c):
    def A(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, c)

    def dA(t):
        return np.zeros_like(np.asarray(t, dtype=float))
    A.expression = f"const:{c}"
    return A, dA


def _smooth_bump_coeff():
    # 1 + 0.25 exp(-(t-1)^2): window [1, 1.25], phi increasing for p > 1.3423
    def A(t):
        t = np.asarray(t, dtype=float)
        return 1.0 + 0.25 * np.exp(-((t - 1.0) ** 2))

    def dA(t):
        d = np.asarray(t, dtype=float) - 1.0
        return -0.5 * d * np.exp(-(d ** 2))
    A.expression = "smooth-bump"
    return A, dA


def coefficient_from_name(name):
    """Resolve a catalog name to (A, dA, delta, L_up), dA the exact A'.

    Names: "plap", "const:c", "smooth-bump", "expr:<expression in t>".
    Expression coefficients get their window estimated by sampling; declare
    delta/L_up explicitly in the OperatorSpec if tighter values are known.
    """
    if name == "plap":
        return (*_const_coeff(1.0), 1.0, 1.0)
    if name.startswith("const:"):
        c = float(name.split(":", 1)[1])
        if c <= 0:
            raise DomainError("constant coefficient must be positive")
        return (*_const_coeff(c), c, c)
    if name == "smooth-bump":
        return (*_smooth_bump_coeff(), 1.0, 1.25)
    if name.startswith("expr:"):
        A = compile_expression(name.split(":", 1)[1], var="t")
        ts = np.geomspace(1e-6, 1e6, 4001)
        ts = np.concatenate(([0.0], ts))
        vals = A(ts)
        if not np.all(np.isfinite(vals)) or np.min(vals) <= 0:
            raise DomainError(f"coefficient {name!r} is not positive and finite")
        return A, A.derivative, float(np.min(vals)), float(np.max(vals))
    raise DomainError(f"unknown coefficient name {name!r}")


def make_spec(p, n, coeff_name="plap", delta=None, L_up=None):
    """The OperatorSpec of a catalog coefficient; a non-constant A failing
    `validate_conditions` (smooth-bump at p < 1.3423) raises DomainError."""
    A, dA, d, L = coefficient_from_name(coeff_name)
    const = None
    if coeff_name == "plap":
        const = 1.0
    elif coeff_name.startswith("const:"):
        const = d
    spec = OperatorSpec(p=float(p), n=int(n), A=A, dA=dA,
                        delta=float(delta if delta is not None else d),
                        L_up=float(L_up if L_up is not None else L),
                        const_value=const, name=coeff_name)
    if const is None:      # c t^(p-1) increases for every p > 1
        failed = [e.label for e in validate_conditions(spec).entries
                  if not e.passed]
        if failed:
            raise DomainError(f"coefficient {coeff_name!r} at p = {spec.p:g} "
                              f"fails {'; '.join(failed)}")
    return spec


def phi_eval(spec, t):
    """phi(t) = t^(p-1) A(t); accepts scalars or arrays, t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("phi is defined for t >= 0")
    # p > 1 and A(0) is finite, so t = 0 gives 0 without a mask
    out = t_arr ** (spec.p - 1.0) * spec.coeff(t_arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def phi_prime(spec, t):
    """Derivative phi'(t) = t^(p-2) ((p-1) A(t) + t A'(t)) at t > 0."""
    t = np.asarray(t, dtype=float)
    return t ** (spec.p - 2.0) * ((spec.p - 1.0) * spec.coeff(t)
                                  + t * spec.dA(t))


def phi_inverse_bracket(spec, s):
    """The guaranteed containment interval for phi^{-1}(s)."""
    s = np.asarray(s, dtype=float)
    e = 1.0 / (spec.p - 1.0)
    return (s / spec.L_up) ** e, (s / spec.delta) ** e


def phi_inverse_array(spec, s):
    """Vectorized phi^{-1} of a nonnegative array s.

    Closed form for constant A.  Otherwise Newton on log phi(t) = log s in
    u = log t, whose slope is (p-1) + t A'(t)/A(t), from one fixed-point
    step t0 = (s/A(s^(1/(p-1))))^(1/(p-1)).  Each element keeps the
    bracket of `phi_inverse_bracket`, narrowed by the sign of each residual
    (phi increases), and takes the bracket's geometric midpoint when a
    Newton step would leave it (Numerical Recipes' rtsafe).  Each element
    stops at its own first iterate t with |phi(t) - s| <= _INVERSE_TOL s,
    so its value depends on its own s only, not on the rest of the batch;
    s = 0 gives 0.  Raises NonConvergenceError, naming the worst element,
    if some element has not met that target after _INVERSE_MAX_ITER
    iterations.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("phi^{-1} is defined for s >= 0")
    e = 1.0 / (spec.p - 1.0)
    if spec.const_value is not None:
        return (s / spec.const_value) ** e
    A, dA, pm1 = spec.A, spec.dA, spec.p - 1.0
    s_it = s.ravel()
    out = (s_it / A(s_it ** e)) ** e
    # the elements still iterating: their places in out, their s, targets,
    # brackets and iterates; each pass stores every iterate in out and
    # drops the elements that met the target
    idx = np.arange(out.size)
    target = _INVERSE_TOL * np.maximum(s_it, 1e-300)
    lo, hi = phi_inverse_bracket(spec, s_it)
    t = out
    # a root below the smallest normal double lets phi(t) reach 0 and the
    # Newton step overflow; such a step is not finite, so it falls outside
    # the bracket and the midpoint replaces it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(_INVERSE_MAX_ITER + 1):
            a = A(t)
            phi = t ** pm1 * a
            keep = np.flatnonzero(np.abs(phi - s_it) > target)
            if keep.size < t.size or not keep.size:    # (or s is empty)
                out[idx] = t
                if not keep.size:
                    return out.reshape(s.shape)
                idx, s_it, target, lo, hi, t, a, phi = (
                    v[keep] for v in (idx, s_it, target, lo, hi, t, a, phi))
            if it == _INVERSE_MAX_ITER:
                break
            above = phi > s_it
            lo = np.where(above, lo, t)
            hi = np.where(above, t, hi)
            # Newton in log t: log(phi/s) has slope (p-1) + t A'/A
            t = t * np.exp(np.log(s_it / phi) / (pm1 + t * dA(t) / a))
            outside = ~((t > lo) & (t < hi))
            if outside.any():
                t = np.where(outside, np.sqrt(lo * hi), t)
    worst = int(np.argmax(np.abs(phi - s_it) / target))
    sw = s_it[worst]
    ends = np.array(phi_inverse_bracket(spec, sw))
    gaps = phi_eval(spec, ends) - sw
    if ends[1] < np.finfo(float).tiny:
        why = "the root lies below the smallest normal double"
    elif gaps[0] > target[worst] or gaps[1] < -target[worst]:
        why = ("the bracket [(s/L)^(1/(p-1)), (s/delta)^(1/(p-1))] does not "
               "contain a root: the declared delta/L window does not bound A")
    else:
        why = (f"residual {abs(phi[worst] - sw):.3e} after "
               f"{_INVERSE_MAX_ITER} iterations")
    raise NonConvergenceError(
        f"phi^{{-1}}({sw:.6g}) missed the residual target tol*s: {why}")


def bracketed_newton(fun, lo, hi, x, done, max_evals):
    """Root of an increasing function on [lo, hi], fun(lo) <= 0 <= fun(hi),
    by Newton safeguarded with bisection (Numerical Recipes' rtsafe).

    fun(x) returns (value, slope), slope > 0 and possibly inf.  The first
    point is x; after each evaluation done(x, value) decides whether x is
    accepted, and otherwise the sign of value narrows the bracket.  The next
    point is the Newton step, unless that step leaves the open bracket or
    is not at most half the step before it; then it is the bracket's
    midpoint.  Returns (x, evaluations, status), x the last point
    evaluated: status "converged" when done accepted x, "stagnated" when no
    double lies strictly inside the bracket (a value of exactly 0 collapses
    it), "max_iter" after max_evals evaluations (at least one is made).
    """
    step = hi - lo
    evals = 0
    while True:
        value, slope = fun(x)
        evals += 1
        if done(x, value):
            return x, evals, "converged"
        if evals >= max_evals:
            return x, evals, "max_iter"
        if value < 0.0:
            lo = x
        elif value > 0.0:
            hi = x
        else:
            lo = hi = x
        # (slope inf: the step is 0 and stays on the bracket's end; slope
        # 0: no finite step)
        newton = value / slope if slope else math.inf
        nxt = x - newton
        if not (lo < nxt < hi and 2.0 * abs(newton) <= step):
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return x, evals, "stagnated"
        step, x = abs(nxt - x), nxt


def phi_inverse(spec, s):
    """Scalar phi^{-1}(s), as `phi_inverse_array` computes it."""
    return float(phi_inverse_array(spec, np.asarray([float(s)]))[0])


def phi_inverse_signed(spec, s):
    """Odd extension t = sgn(s) phi^{-1}(|s|), vectorized."""
    s = np.asarray(s, dtype=float)
    return np.sign(s) * phi_inverse_array(spec, np.abs(s))


def phi_signed(spec, t):
    """Odd extension of phi: sgn(t) phi(|t|), vectorized."""
    t = np.asarray(t, dtype=float)
    return np.sign(t) * phi_eval(spec, np.abs(t))


@dataclass
class ConditionEntry:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class ConditionReport:
    entries: list

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries)

    def __str__(self):
        return "\n".join(
            f"[{'PASS' if e.passed else 'FAIL'}] {e.label}: {e.detail}"
            for e in self.entries)


def validate_conditions(spec):
    """Sampled check of the structural conditions on A over a geometric grid.

    Checks, in order: finiteness/continuity proxy (i), the window
    delta <= A <= L (ii) and strict monotonicity of phi (iii), pairwise
    on `_CONDITION_GRID`.  `make_spec` rejects a non-constant A that fails
    any of them.
    """
    ts = _CONDITION_GRID
    vals = spec.coeff(ts)
    entries = []

    finite = bool(np.all(np.isfinite(vals)))
    entries.append(ConditionEntry(
        "(i) A finite on sampled grid", finite,
        f"sampled {len(ts)} points in [0, {ts[-1]:g}]"))

    tol = 1e-12 * max(1.0, spec.L_up)
    in_window = bool(np.all(vals >= spec.delta - tol) and
                     np.all(vals <= spec.L_up + tol))
    entries.append(ConditionEntry(
        "(ii) delta <= A <= L", in_window,
        f"range [{vals.min():.6g}, {vals.max():.6g}] vs "
        f"[{spec.delta:g}, {spec.L_up:g}]"))

    # phi = t^(p-1) A(t) from the sampled A (0 at t = 0 for every p > 1)
    phis = ts ** (spec.p - 1.0) * vals
    increasing = bool(np.all(np.diff(phis) > 0))
    entries.append(ConditionEntry(
        "(iii) phi strictly increasing", increasing,
        "pairwise on the sample grid"))

    return ConditionReport(entries)


def unit_ball_volume(n):
    """Measure of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
