"""The three benchmark workloads: seeded case lists, one runner and one
checker per workload.

Package functions are called through their modules, so that the tracer's
wrappers, installed on those modules, see every call.

A `Workload` is built from a seed alone.  Each case is a plain dict of
the inputs the package receives.  `reference(case)` computes the oracle
values once, before timing; `run(case, index)` calls plapext and returns
its outputs, raising `OperationFailed` when the package reports that it
could not do the case; `check(case, out, reference)` returns the list of
failed checks (empty when the case is correct).  `warmup` is a small case
of the same kind, run once before timing starts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import oracles

from plapext import (annulus_solver, cli, make_spec, polar_mesh,
                     power_decay_source, radial_mesh, rearrangement)

WORKLOAD_IDS = {"polar2d": 1, "exterior": 2, "talenti": 3}


class OperationFailed(Exception):
    """The package reported that it could not do the case: a solve that
    did not converge, or a non-zero exit code."""


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload]])


# ---------------------------------------------------------------------------
# polar2d: Newton solves on 2D polar annuli

# (coefficient, p, cells per side, kind); kind is "source" (angular inner
# trace and a power-decay source), "free" (angular trace, f = 0) or
# "radial" (constant traces, f = 0, closed-form solution; plap only).
# The 96^2 and 128^2 slots, which take most of the time, appear twice with
# their own draws: their Newton iteration counts move by one or two with
# the data, and two draws halve that swing in the work of a round.  The
# radial 96^2 slot, whose iteration count does not depend on the data, is
# the middle case by time, so the median case time does not jump between
# slots.
POLAR2D_SLOTS = [
    ("plap", 2.5, 48, "source"),
    ("smooth-bump", 3.0, 48, "source"),
    ("plap", 1.8, 48, "radial"),
    ("plap", 1.8, 64, "free"),
    ("plap", 2.5, 64, "source"),
    ("smooth-bump", 2.5, 64, "free"),
    ("plap", 2.0, 64, "radial"),
    ("smooth-bump", 1.8, 64, "free"),
    ("plap", 3.0, 96, "radial"),
] + 2 * [
    ("plap", 3.0, 96, "source"),
    ("smooth-bump", 2.5, 96, "source"),
    ("plap", 2.5, 128, "free"),
    ("smooth-bump", 2.5, 128, "source"),
]
POLAR2D_R = (1.0, 4.0)
# Newton tolerance: above the rounding floor (up to ~2e-8 here) where the
# energy line search stalls; with smaller tolerances solve_dirichlet
# stagnates on some seeds and reports those solves converged
POLAR2D_TOL = 1e-7
# a Newton iterate stopped at gradient g lies within about 1.5 g of the
# discrete minimizer on these meshes (measured against solves continued to
# 1e-13); principle checks allow 100 times the tolerance
POLAR2D_SOLVER_SLACK = 1e-5


def _fourier_trace(c0, amps, phases):
    k = np.arange(1, len(amps) + 1)

    def trace(theta):
        theta = np.asarray(theta, dtype=float)
        return c0 + np.sum(amps[:, None]
                           * np.cos(k[:, None] * theta[None, :]
                                    + phases[:, None]), axis=0)
    return trace


def polar2d_case(rng, coeff, p, cells, kind):
    case = {"coeff": coeff, "p": p, "cells": cells, "kind": kind,
            "u_out": 0.0}
    if kind == "radial":
        case["u_in"] = float(rng.uniform(0.5, 1.5))
        case["u_out"] = float(rng.uniform(-0.5, 0.5))
        return case
    case["c0"] = float(rng.uniform(0.9, 1.1))
    case["amps"] = (rng.uniform(0.15, 0.25, 3) / np.arange(1, 4)).tolist()
    case["phases"] = rng.uniform(0.0, 2.0 * np.pi, 3).tolist()
    if kind == "source":
        case["C_f"] = float(rng.uniform(0.8, 1.2))
        case["eps"] = float(rng.uniform(0.8, 1.2))
    return case


def polar2d_cases(seed):
    rng = _rng(seed, "polar2d")
    return [polar2d_case(rng, *slot) for slot in POLAR2D_SLOTS]


def polar2d_run(case):
    spec = make_spec(case["p"], 2, case["coeff"])
    mesh = polar_mesh(*POLAR2D_R, case["cells"], case["cells"])
    f = power_decay_source(spec, case["C_f"], case["eps"]) \
        if case["kind"] == "source" else None
    if case["kind"] == "radial":
        inner = case["u_in"]
    else:
        inner = _fourier_trace(case["c0"], np.asarray(case["amps"]),
                               np.asarray(case["phases"]))
    u, report = annulus_solver.solve_dirichlet(
        mesh, spec, f, {"inner": inner, "outer": case["u_out"]},
        method="newton", tol=POLAR2D_TOL)
    if not report.converged:
        raise OperationFailed(
            f"not converged, gradient {report.grad_norm:.3g}")
    return {"mesh": mesh, "u": u.values, "report": report}


def polar2d_check(case, out, reference=None):
    mesh, u, rep = out["mesh"], out["u"], out["report"]
    fails = []
    if case["kind"] == "radial":
        inner = np.full(len(mesh.theta), case["u_in"])
    else:
        inner = _fourier_trace(case["c0"], np.asarray(case["amps"]),
                               np.asarray(case["phases"]))(mesh.theta)
    f_sup = case.get("C_f", 0.0)       # the source peaks at r = 1
    scale = max(1.0, f_sup, float(np.max(np.abs(inner))),
                abs(case["u_out"]))
    if not rep.grad_norm <= POLAR2D_TOL * scale:
        fails.append(f"reported convergence at gradient {rep.grad_norm:.3g} "
                     f"> tol*scale {POLAR2D_TOL * scale:.3g}")
    if not (np.array_equal(u[0], inner) and np.all(u[-1] == case["u_out"])):
        fails.append("boundary traces not kept")
    lo = min(float(np.min(inner)), case["u_out"])
    hi = max(float(np.max(inner)), case["u_out"])
    slack = POLAR2D_SOLVER_SLACK * scale
    # f >= 0 makes u a supersolution: the discrete minimum principle
    if float(np.min(u)) < lo - slack:
        fails.append(f"minimum principle: {np.min(u):.6g} < {lo:.6g}")
    if case["kind"] != "source" and float(np.max(u)) > hi + slack:
        fails.append(f"maximum principle: {np.max(u):.6g} > {hi:.6g}")
    if case["kind"] == "radial":
        exact, third = oracles.radial_free(case["p"], *POLAR2D_R,
                                           case["u_in"], case["u_out"])
        bound = oracles.radial_discretization_bound(mesh.radii, third) + slack
        err = float(np.max(np.abs(u - exact(mesh.radii)[:, None])))
        if not err <= bound:
            fails.append(f"closed form off by {err:.3g} > {bound:.3g}")
    return fails


def polar2d_reference(case):
    return None


def polar2d_warmup():
    return {"coeff": "smooth-bump", "p": 2.5, "cells": 16, "kind": "source",
            "u_out": 0.0, "c0": 1.0, "amps": [0.2, 0.1, 0.05],
            "phases": [0.0, 1.0, 2.0], "C_f": 1.0, "eps": 1.0}


# ---------------------------------------------------------------------------
# exterior: the radial exterior pipeline through cli.run

# (subcommand, coefficient, p, n); all in the p > n regime.  "solve-bvp"
# is solve-radial with a finite outer radius.  The smooth-bump two-point
# slot, whose cost hardly moves with the data, is the middle pair of cases
# by time (six cheaper, six dearer), so the median case time does not jump
# between slots.
EXTERIOR_SLOTS = [
    ("solve-radial", "plap", 3.0, 2),
    ("solve-radial", "smooth-bump", 3.0, 2),
    ("solve-radial", "smooth-bump", 4.0, 3),
    ("solve-radial", "plap", 4.0, 3),
    ("solve-bvp", "plap", 3.0, 2),
    ("solve-bvp", "smooth-bump", 4.0, 3),
    ("solve-bvp", "smooth-bump", 4.0, 3),
    ("asymptotics", "plap", 3.0, 2),
    ("asymptotics", "smooth-bump", 3.0, 2),
    ("exhaust", "plap", 3.0, 2),
    ("exhaust", "smooth-bump", 4.0, 2),
    ("barrier", "plap", 3.0, 2),
    ("barrier", "plap", 4.0, 3),
    ("barrier", "smooth-bump", 3.0, 2),
]
# relative agreement of limits at infinity with the quadrature reference:
# the program integrates a C^1 spline of the source tail and stops its
# dyadic tail sums at a 1e-12 share, far inside this
LIMIT_RTOL = 1e-8
# lemma1 barrier values come from graded adaptive quadrature at 1e-12
BARRIER_RTOL = 1e-9
# radii of the solve-bvp solution samples compared with the reference
BVP_SAMPLES = 64
BVP_CHECKED = (0, 16, 32, 48, 63)


def exterior_case(rng, sub, coeff, p, n):
    case = {"sub": sub, "coeff": coeff, "p": p, "n": n}
    if sub == "barrier":
        if coeff == "plap":
            case.update(family="lemma1", source="zero",
                        a=float(rng.uniform(0.5, 2.0)),
                        R=float(rng.uniform(5.0, 20.0)))
        else:
            case.update(family="lemma2", a=0.0, R=1.0)
    if "source" not in case:
        case["C_f"] = float(rng.uniform(0.75, 1.5))
        case["eps"] = float(rng.uniform(0.8, 1.2))
        case["source"] = f"powerdecay:{case['C_f']!r}:{case['eps']!r}"
    if sub in ("solve-radial", "solve-bvp", "asymptotics"):
        case["R_in"] = float(rng.uniform(1.0, 2.0))
        case["u_in"] = float(rng.uniform(-1.0, 1.0))
    if sub == "solve-bvp":
        case["R_out"] = case["R_in"] * float(rng.uniform(2.0, 4.0))
        # a rise this large keeps u' > 0, so the shooting integrals stay
        # smooth and the cost of a case does not swing with the seed
        case["u_out"] = case["u_in"] + float(rng.uniform(1.5, 2.0))
    if sub == "exhaust":
        case["inner"] = float(rng.uniform(0.5, 1.5))
    return case


def exterior_cases(seed):
    rng = _rng(seed, "exterior")
    return [exterior_case(rng, *slot) for slot in EXTERIOR_SLOTS]


def exterior_config(case):
    lines = ["[operator]", f"p = {case['p']!r}", f"n = {case['n']}",
             f"coefficient = {case['coeff']}", "",
             "[source]", f"name = {case['source']}", ""]
    sub = case["sub"]
    if sub in ("solve-radial", "asymptotics"):
        lines += ["[geometry]", f"R_in = {case['R_in']!r}", "R_out = inf", "",
                  "[boundary]", f"u_in = {case['u_in']!r}", ""]
    if sub == "solve-bvp":
        lines += ["[geometry]", f"R_in = {case['R_in']!r}",
                  f"R_out = {case['R_out']!r}", "",
                  "[boundary]", f"u_in = {case['u_in']!r}",
                  f"u_out = {case['u_out']!r}", ""]
    if sub in ("solve-radial", "solve-bvp"):
        lines += ["[output]", f"samples = {BVP_SAMPLES}", ""]
    if sub == "asymptotics":
        lines += ["[asymptotics]", "dyadic_levels = 8", ""]
    if sub == "exhaust":
        lines += ["[exhaust]", f"inner_value = {case['inner']!r}", "R0 = 4",
                  "m_max = 5", "cells_per_doubling = 16", ""]
    if sub == "barrier":
        top = case["R"] if case["family"] == "lemma1" else 10.0
        lines += ["[barrier]", f"family = {case['family']}",
                  f"a = {case['a']!r}", f"R = {case['R']!r}", "f_sup = 0", "",
                  "[radii]", "r_min = 0.01", f"r_max = {top!r}", "count = 48",
                  "spacing = geom", ""]
    return "\n".join(lines)


def exterior_run(case, workdir):
    """Write the case's config under `workdir` and run it like a user."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "case.cfg"
    cfg.write_text(exterior_config(case))
    sub = "solve-radial" if case["sub"] == "solve-bvp" else case["sub"]
    code = cli.run(sub, cfg, workdir / "out", quiet=True)
    if code != 0:
        raise OperationFailed(f"exit code {code}")
    return {"out": workdir / "out"}


def _read_csv(path):
    """Data rows of a CSV artifact (the header is skipped)."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in row.split(",")] for row in rows])


def exterior_reference_limit(case):
    args = (case["n"], case["p"], case["C_f"], case["eps"], case["R_in"],
            case["u_in"])
    if case["coeff"] == "plap":
        return oracles.exterior_limit_plap(*args)
    return oracles.exterior_limit_quad(case["coeff"], *args)


def exterior_check(case, out, reference):
    """`reference` is the oracle value computed once per case (a limit,
    a bound, or None)."""
    fails = []
    d = out["out"]
    manifest = json.loads((d / "manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        if hashlib.sha256((d / name).read_bytes()).hexdigest() != digest:
            fails.append(f"manifest checksum of {name} does not match")
    sub = case["sub"]
    if sub in ("solve-radial", "asymptotics"):
        key, fn = (("limit_at_infinity", "summary.json")
                   if sub == "solve-radial"
                   else ("limit_estimate", "asymptotics.json"))
        got = json.loads((d / fn).read_text())[key]
        if not abs(got - reference) <= LIMIT_RTOL * max(1.0, abs(reference)):
            fails.append(f"limit {got!r} vs reference {reference!r}")
    elif sub == "solve-bvp":
        C_ref, u_ref = reference
        C = json.loads((d / "summary.json").read_text())["flux_constant"]
        data = _read_csv(d / "solution.csv")
        radii = np.geomspace(case["R_in"], case["R_out"], BVP_SAMPLES)
        rows = data[list(BVP_CHECKED)]
        if not np.allclose(rows[:, 0], radii[list(BVP_CHECKED)], rtol=1e-15,
                           atol=0.0):
            fails.append("solution radii differ from the configured grid")
        if not abs(C - C_ref) <= LIMIT_RTOL * max(1.0, abs(C_ref)):
            fails.append(f"flux constant {C!r} vs reference {C_ref!r}")
        err = float(np.max(np.abs(rows[:, 1] - u_ref)))
        if not err <= LIMIT_RTOL * max(1.0, float(np.max(np.abs(u_ref)))):
            fails.append(f"solution off the reference by {err:.3g}")
    elif sub == "exhaust":
        summary = json.loads((d / "summary.json").read_text())
        sups, devs = summary["sups"], summary["deviations"]
        if not max(sups) <= reference * (1.0 + 1e-9):
            fails.append(f"exhaustion sup {max(sups):.6g} above the lemma2 "
                         f"bound {reference:.6g}")
        if any(b > a + 1e-12 for a, b in zip(devs, devs[1:])):
            fails.append("exhaustion deviations not monotone")
    elif sub == "barrier":
        data = _read_csv(d / "barrier.csv")
        r, v = data[:, 0], data[:, 1]
        if case["family"] == "lemma1":
            exact = oracles.lemma1_free(case["n"], case["p"], case["a"], r)
            err = float(np.max(np.abs(v - exact) / np.maximum(1.0, exact)))
            if not err <= BARRIER_RTOL:
                fails.append(
                    f"lemma1 barrier off a r^alpha/alpha by {err:.3g}")
        else:
            if np.any(np.diff(v) < 0) or np.any(v < 0):
                fails.append("lemma2 barrier not nonnegative and increasing")
            if not float(np.max(v)) <= reference * (1.0 + 1e-9):
                fails.append("lemma2 barrier above its uniform bound")
    return fails


def exterior_reference(case):
    if case["sub"] in ("solve-radial", "asymptotics"):
        return exterior_reference_limit(case)
    if case["sub"] == "solve-bvp":
        radii = np.geomspace(case["R_in"], case["R_out"], BVP_SAMPLES)
        return oracles.radial_bvp(
            case["coeff"], case["n"], case["p"], case["C_f"], case["eps"],
            case["R_in"], case["R_out"], case["u_in"], case["u_out"],
            radii[list(BVP_CHECKED)])
    if case["sub"] == "exhaust":
        return oracles.lemma2_bound(case["coeff"], case["n"], case["p"],
                                    case["C_f"], case["eps"]) \
            + abs(case["inner"])
    if case["sub"] == "barrier" and case["family"] == "lemma2":
        return oracles.lemma2_bound(case["coeff"], case["n"], case["p"],
                                    case["C_f"], case["eps"])
    return None


def exterior_warmup():
    return {"sub": "barrier", "coeff": "plap", "p": 3.0, "n": 2,
            "family": "lemma1", "a": 1.0, "R": 2.0, "source": "zero"}


# ---------------------------------------------------------------------------
# talenti: 1D solve, rearrangement and Talenti bounds

# (coefficient, p, n, add full_talenti_profile)
TALENTI_SLOTS = [
    ("plap", 2.5, 2, False),
    ("plap", 3.0, 2, False),
    ("plap", 4.0, 3, False),
    ("smooth-bump", 3.0, 2, True),
    ("plap", 4.0, 2, False),
    ("smooth-bump", 4.0, 3, False),
    ("plap", 3.0, 3, False),
    ("plap", 2.5, 3, False),
]
TALENTI_CELLS = 96
TALENTI_PROFILE_SHARES = (0.2, 0.6, 1.0)
# the bound and the profile come from separate adaptive quadratures at
# rel_tol 1e-10; comparisons between them allow this share of the bound
TALENTI_QUAD_RTOL = 1e-8


def talenti_case(rng, coeff, p, n, profile):
    return {"coeff": coeff, "p": p, "n": n,
            "R_out": float(rng.uniform(2.0, 2.5)),
            "C_f": float(rng.uniform(0.75, 1.5)),
            "eps": float(rng.uniform(0.8, 1.2)),
            "u_in": float(rng.uniform(-1.0, 1.0)),
            "u_out": float(rng.uniform(-1.0, 1.0)),
            "profile": profile}


def talenti_cases(seed):
    rng = _rng(seed, "talenti")
    return [talenti_case(rng, *slot) for slot in TALENTI_SLOTS]


def _annulus_measure(n, R_out):
    return oracles.ball_volume(n) * (R_out ** n - 1.0)


def talenti_run(case):
    n = case["n"]
    spec = make_spec(case["p"], n, case["coeff"])
    f = power_decay_source(spec, case["C_f"], case["eps"])
    mesh = radial_mesh(n, 1.0, case["R_out"], TALENTI_CELLS)
    u, report = annulus_solver.solve_dirichlet(
        mesh, spec, f, {"inner": case["u_in"], "outer": case["u_out"]})
    if not report.converged:
        raise OperationFailed("1D solve did not converge")
    data = rearrangement.rearrange(u)
    u_sup = max(abs(case["u_in"]), abs(case["u_out"]))
    omega = _annulus_measure(n, case["R_out"])
    bound = rearrangement.talenti_bound(u_sup, f, spec, omega, R_in=1.0,
                                        R_out=case["R_out"])
    out = {"u": u.values, "mu": mesh.node_measures(), "data": data,
           "bound": bound, "profile": None}
    if case["profile"]:
        rho_max = (omega / oracles.ball_volume(n)) ** (1.0 / n)
        out["profile"] = [
            rearrangement.full_talenti_profile(
                u_sup, f, spec, omega, s * rho_max, R_in=1.0,
                R_out=case["R_out"])
            for s in TALENTI_PROFILE_SHARES]
    return out


def talenti_reference(case):
    return oracles.talenti_reference(
        case["coeff"], case["n"], case["p"], case["C_f"], case["eps"], 1.0,
        case["R_out"], max(abs(case["u_in"]), abs(case["u_out"])))


def talenti_check(case, out, reference):
    fails = []
    data, bound = out["data"], out["bound"]
    omega = _annulus_measure(case["n"], case["R_out"])
    if not abs(data.total_measure - omega) <= 1e-12 * omega:
        fails.append(f"rearranged measure {data.total_measure!r} != {omega!r}")
    if np.any(np.diff(data.values) > 0):
        fails.append("rearranged values not decreasing")
    if not np.array_equal(np.sort(np.abs(out["u"]))[::-1], data.values) or \
            not np.isclose(np.sum(data.measures), np.sum(out["mu"]),
                           rtol=1e-13, atol=0.0):
        fails.append("rearrangement not equimeasurable with |u|")
    if not bound >= float(np.max(data.values)):
        fails.append(f"bound {bound:.6g} below sup u# "
                     f"{np.max(data.values):.6g}")
    ref, err = reference
    allowed = err + TALENTI_QUAD_RTOL * abs(ref)
    if not abs(bound - ref) <= allowed:
        fails.append(f"bound {bound!r} vs reference {ref!r} "
                     f"(allowed {allowed:.3g})")
    prof = out["profile"]
    if prof is not None:
        slack = TALENTI_QUAD_RTOL * abs(bound)
        if any(b > a + slack for a, b in zip(prof, prof[1:])):
            fails.append("full Talenti profile not decreasing")
        if max(prof) > bound + slack:
            fails.append("full Talenti profile above the bound")
        if prof[-1] != max(abs(case["u_in"]), abs(case["u_out"])):
            fails.append("full Talenti profile misses the boundary sup at "
                         "rho_max")
    return fails


def talenti_warmup():
    return {"coeff": "smooth-bump", "p": 3.0, "n": 2, "R_out": 1.5,
            "C_f": 1.0, "eps": 1.0, "u_in": 0.5, "u_out": 0.0,
            "profile": False}


# ---------------------------------------------------------------------------

class Workload:
    """One workload's seeded cases and the functions that run and check
    them.  `workdir` receives the files a case writes."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.workdir = Path(workdir)
        table = {
            "polar2d": (polar2d_cases, polar2d_warmup, polar2d_run,
                        polar2d_reference, polar2d_check),
            "exterior": (exterior_cases, exterior_warmup, exterior_run,
                         exterior_reference, exterior_check),
            "talenti": (talenti_cases, talenti_warmup, talenti_run,
                        talenti_reference, talenti_check),
        }
        make, warm, self._run, self.reference, self.check = table[name]
        self.cases = make(seed)
        self.warmup = warm()

    def run(self, case, index):
        if self.name == "exterior":
            return self._run(case, self.workdir / f"case{index}")
        return self._run(case)
