"""Operator coefficient A, its structural conditions, and phi(t) = t^(p-1) A(t).

The coefficient must be bounded between the declared ellipticity constants
delta and L, and phi must be strictly increasing; under those conditions
phi has a generalized inverse on [0, inf) bracketed by

    (s/L)^(1/(p-1)) <= phi^{-1}(s) <= (s/delta)^(1/(p-1)).

The bracket makes the inverse solvable by safeguarded false position
(Illinois), which never leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import compile_expression


_PHI_PRIME_STEP = 1e-6     # relative step of phi_prime's central difference
_INVERSE_TOL = 1e-12       # phi_inverse_array: |phi(t) - s| <= tol s
# validate_conditions samples A at 0 and on this geometric grid
_CONDITION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 2001)))
_CONDITION_GRID.setflags(write=False)


class DomainError(ValueError):
    pass


class NonConvergenceError(ArithmeticError):
    pass


@dataclass(frozen=True)
class OperatorSpec:
    """Exponent p, dimension n, coefficient A with window [delta, L_up]."""

    p: float
    n: int
    A: object = None            # vectorized callable on [0, inf); None means A == 1
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
            object.__setattr__(self, "A", _const_coeff(1.0))
            object.__setattr__(self, "const_value", 1.0)

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
    A.expression = f"const:{c}"
    return A


def _smooth_bump_coeff():
    # 1 + 0.25 exp(-(t-1)^2): window [1, 1.25], phi increasing for p > 1.3423
    def A(t):
        t = np.asarray(t, dtype=float)
        return 1.0 + 0.25 * np.exp(-((t - 1.0) ** 2))
    A.expression = "smooth-bump"
    return A


def coefficient_from_name(name):
    """Resolve a catalog name to (A, delta, L_up).

    Names: "plap", "const:c", "smooth-bump", "expr:<expression in t>".
    Expression coefficients get their window estimated by sampling; declare
    delta/L_up explicitly in the OperatorSpec if tighter values are known.
    """
    if name == "plap":
        return _const_coeff(1.0), 1.0, 1.0
    if name.startswith("const:"):
        c = float(name.split(":", 1)[1])
        if c <= 0:
            raise DomainError("constant coefficient must be positive")
        return _const_coeff(c), c, c
    if name == "smooth-bump":
        return _smooth_bump_coeff(), 1.0, 1.25
    if name.startswith("expr:"):
        A = compile_expression(name.split(":", 1)[1], var="t")
        ts = np.geomspace(1e-6, 1e6, 4001)
        ts = np.concatenate(([0.0], ts))
        vals = A(ts)
        if not np.all(np.isfinite(vals)) or np.min(vals) <= 0:
            raise DomainError(f"coefficient {name!r} is not positive and finite")
        return A, float(np.min(vals)), float(np.max(vals))
    raise DomainError(f"unknown coefficient name {name!r}")


def make_spec(p, n, coeff_name="plap", delta=None, L_up=None):
    """The OperatorSpec of a catalog coefficient; a non-constant A failing
    `validate_conditions` (smooth-bump at p < 1.3423) raises DomainError."""
    A, d, L = coefficient_from_name(coeff_name)
    const = None
    if coeff_name == "plap":
        const = 1.0
    elif coeff_name.startswith("const:"):
        const = d
    spec = OperatorSpec(p=float(p), n=int(n), A=A,
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
    out = np.where(t_arr > 0, t_arr, 1.0) ** (spec.p - 1.0) * spec.coeff(t_arr)
    out = np.where(t_arr > 0, out, 0.0)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def phi_prime(spec, t):
    """Derivative of phi at t > 0 (central difference for general A)."""
    t = np.asarray(t, dtype=float)
    if spec.const_value is not None:
        return spec.const_value * (spec.p - 1.0) * t ** (spec.p - 2.0)
    h = _PHI_PRIME_STEP * t
    return (phi_eval(spec, t + h) - phi_eval(spec, t - h)) / (2.0 * h)


def phi_inverse_bracket(spec, s):
    """The guaranteed containment interval for phi^{-1}(s)."""
    s = np.asarray(s, dtype=float)
    e = 1.0 / (spec.p - 1.0)
    return (s / spec.L_up) ** e, (s / spec.delta) ** e


def phi_inverse_array(spec, s):
    """Vectorized phi^{-1} of a nonnegative array s.

    Safeguarded false position (Illinois) inside the bracket of
    `phi_inverse_bracket`.  Each element keeps the first point t (a bracket
    end, then the iterates) with |phi(t) - s| <= _INVERSE_TOL s, so its value
    depends on its own s only, not on the rest of the batch; raises
    NonConvergenceError if some element has not met that target after 100
    iterations.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("phi^{-1} is defined for s >= 0")
    if spec.const_value is not None:
        return (s / spec.const_value) ** (1.0 / (spec.p - 1.0))
    lo, hi = phi_inverse_bracket(spec, s)
    pm1 = spec.p - 1.0
    A = spec.A

    def f_raw(t):
        # phi without the argument checks of phi_eval; t >= 0 by bracket
        # construction and t^(p-1) vanishes at 0 for every p > 1
        return t ** pm1 * np.asarray(A(t), dtype=float)

    tol = _INVERSE_TOL
    flo = f_raw(lo) - s
    fhi = f_raw(hi) - s
    if np.any(flo > tol * np.maximum(1.0, s)) or \
       np.any(fhi < -tol * np.maximum(1.0, s)):
        raise NonConvergenceError(
            "phi bracket does not contain a root; the declared delta/L window "
            "does not bound A")
    # safeguarded false position (Illinois): the secant point stays inside
    # the bracket and the stagnant endpoint's residual is halved, so both
    # endpoints converge; stop on the residual, which is what the contract
    # |phi(t) - s| <= tol s asks for.  An element that meets it collapses
    # its bracket onto that point, so it stays there while the others
    # iterate (the midpoint of [t, t] is t).  A bracket end may meet it
    # from the start (A at its bound, as for large t with smooth-bump);
    # iterating toward it would only bisect.
    target = tol * np.maximum(s, 1e-300)
    at_lo = np.abs(flo) <= target
    at_hi = ~at_lo & (np.abs(fhi) <= target)
    hi = np.where(at_lo, lo, hi)
    lo = np.where(at_hi, hi, lo)
    # which end the previous step moved (neither before the first step)
    moved_hi = np.zeros(lo.shape, dtype=bool)
    moved_lo = moved_hi
    for _ in range(100):
        denom = fhi - flo
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = (lo * fhi - hi * flo) / denom
        mid = np.where((denom > 0) & (sec > lo) & (sec < hi),
                       sec, 0.5 * (lo + hi))
        fm = f_raw(mid) - s
        hit = np.abs(fm) <= target
        if hit.all():
            return mid
        go_lo = fm > 0            # root lies in [lo, mid]
        fhi = np.where(go_lo, fm, np.where(moved_lo, 0.5 * fhi, fhi))
        flo = np.where(go_lo, np.where(moved_hi, 0.5 * flo, flo), fm)
        hi = np.where(go_lo | hit, mid, hi)
        lo = np.where(go_lo & ~hit, lo, mid)
        moved_hi, moved_lo = go_lo, ~go_lo
    worst = int(np.argmax(np.abs(fm) / target))
    raise NonConvergenceError(
        f"phi^{{-1}}({np.ravel(s)[worst]:.6g}) missed the residual target "
        f"tol*s after 100 iterations (residual "
        f"{abs(np.ravel(fm)[worst]):.3e})")


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
