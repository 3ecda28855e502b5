"""Experiment runner: parses plain key=value configs with [section] headers,
dispatches subcommands, and writes deterministic CSV/JSON artifacts plus a
manifest (config echo, versions, artifact checksums).

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 invariant/check failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .annulus_solver import (exhaust_exterior, polar_mesh, radial_mesh,
                             solve_dirichlet)
from .asymptotics import (counterexample_suite, decay_fit, envelope_check,
                          harnack_sphere_check, osc_prediction, sphere_stats)
from .barriers import (lemma2_C0, make_lemma1, make_lemma1_prime,
                       make_lemma2, make_lemma2_prime, residual_check)
from .operator_core import DomainError, NonConvergenceError, make_spec
from .quadrature import DivergenceError
from .radial_solver import (exterior_limit, flux_residual,
                            solve_exterior_radial, solve_radial_bvp)
from .rearrangement import rearrange_samples
from .source_terms import source_from_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK = 4

# theta of the sphere Harnack correction K(R) when p <= n: any value in
# (0, 1) is admissible, and power-decay sources have a finite exterior
# L^{n/(p-theta)} norm for each
HARNACK_THETA = 0.5


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling

class ExperimentConfig:
    """Typed access over a parsed key=value config."""

    def __init__(self, parser, raw_text, path):
        self._cp = parser
        self.raw_text = raw_text
        self.path = path

    def get(self, section, key, default=None):
        if self._cp.has_option(section, key):
            return self._cp.get(section, key)
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default

    def get_float(self, section, key, default=None):
        raw = self.get(section, key,
                       None if default is None else str(default))
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}={raw!r}: not a number") \
                from exc

    def get_int(self, section, key, default=None):
        val = self.get_float(section, key, default)
        if val != int(val):
            raise ConfigError(f"[{section}] {key} must be an integer")
        return int(val)

    def has(self, section, key=None):
        if key is None:
            return self._cp.has_section(section)
        return self._cp.has_option(section, key)


def load_config(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None,
                                   strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return ExperimentConfig(cp, text, path)


def build_spec(cfg):
    sec = "operator"
    p = cfg.get_float(sec, "p")
    n = cfg.get_int(sec, "n")
    coeff = cfg.get(sec, "coefficient", "plap")
    delta = cfg.get_float(sec, "delta", 0.0) or None \
        if cfg.has(sec, "delta") else None
    L_up = cfg.get_float(sec, "L") if cfg.has(sec, "L") else None
    try:
        return make_spec(p, n, coeff_name=coeff, delta=delta, L_up=L_up)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def build_source(cfg, spec):
    name = cfg.get("source", "name", "zero")
    try:
        return source_from_name(name, spec)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# artifact writers

def _fmt(x):
    return f"{float(x):.17g}"


def _write(path, text):
    """Write text to path as UTF-8; returns the bytes written."""
    data = text.encode()
    Path(path).write_bytes(data)
    return data


def write_csv(path, header, columns):
    """Write one CSV artifact; returns its bytes."""
    columns = [np.atleast_1d(np.asarray(c, dtype=float)) for c in columns]
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    return _write(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    """Write one JSON artifact (with "schema": 1); returns its bytes."""
    payload = dict(payload)
    payload["schema"] = 1
    return _write(path, json.dumps(payload, sort_keys=True, indent=2,
                                   allow_nan=False) + "\n")


def _sanitize(obj):
    """Make a payload JSON-safe: numpy scalars to floats, inf/nan to strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _checksums(artifacts):
    """{name: SHA-256 hex digest} of artifacts, a map of name to bytes."""
    return {name: hashlib.sha256(artifacts[name]).hexdigest()
            for name in sorted(artifacts)}


def write_manifest(out_dir, cfg, artifacts):
    """Write manifest.json: the config, versions and the checksums of
    artifacts (name -> the bytes the writers returned)."""
    write_json(out_dir / "manifest.json", {
        "config": cfg.raw_text if cfg is not None else "",
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "artifacts": _checksums(artifacts),
    })


# ---------------------------------------------------------------------------
# subcommands

def _radii_grid(cfg, section="radii", default=(0.1, 10.0, 100, "geom")):
    r_min = cfg.get_float(section, "r_min", default[0])
    r_max = cfg.get_float(section, "r_max", default[1])
    count = cfg.get_int(section, "count", default[2])
    spacing = cfg.get(section, "spacing", default[3])
    if spacing == "geom":
        if not min(r_min, r_max) > 0:
            raise ConfigError(f"[{section}] geom spacing needs positive "
                              "r_min and r_max")
        return np.geomspace(r_min, r_max, count)
    if spacing == "linear":
        return np.linspace(r_min, r_max, count)
    raise ConfigError(f"unknown spacing {spacing!r}")


def cmd_barrier(cfg, out_dir):
    spec = build_spec(cfg)
    f = build_source(cfg, spec)
    family = cfg.get("barrier", "family")
    a = cfg.get_float("barrier", "a", 0.0)
    R = cfg.get_float("barrier", "R", 1.0)
    if family == "lemma1":
        b = make_lemma1(spec, R, cfg.get_float("barrier", "f_sup", 0.0), a)
    elif family == "lemma2":
        b = make_lemma2(spec, f, a)
    elif family == "lemma1_prime":
        b = make_lemma1_prime(spec, R, f, a)
    elif family == "lemma2_prime":
        b = make_lemma2_prime(spec, R, f, a)
    else:
        raise ConfigError(f"unknown barrier family {family!r}")
    lo, hi = b.R_in, b.R_out
    radii = _radii_grid(cfg, default=(max(lo, 1e-3 if lo == 0 else lo),
                                      min(hi, 10.0 * max(R, 1.0)), 100,
                                      "geom"))
    values = b.values(radii)
    deriv = b.u_prime(radii)
    lower, upper = b.bounds(radii)
    table = write_csv(out_dir / "barrier.csv",
                      ["r", "value", "derivative", "lower_bound",
                       "upper_bound"],
                      [radii, values, deriv, lower, upper])
    resid, dominated = residual_check(b, f, radii)
    if np.any(values + 1e-12 < lower) or np.any(values > upper + 1e-12):
        raise CheckFailure("barrier left its two-sided bounds")
    summary = write_json(out_dir / "summary.json", _sanitize({
        "family": family, "a": a, "R": R,
        "flux_constant": b.C_flux,
        "max_residual": resid, "majorant_dominates": bool(dominated),
    }))
    return {"barrier.csv": table, "summary.json": summary}


def cmd_solve_radial(cfg, out_dir):
    spec = build_spec(cfg)
    f = build_source(cfg, spec)
    R_in = cfg.get_float("geometry", "R_in")
    R_out_raw = cfg.get("geometry", "R_out", "inf")
    u_in = cfg.get_float("boundary", "u_in", 0.0)
    samples = cfg.get_int("output", "samples", 200)
    if samples < 3:
        raise ConfigError("[output] samples must be at least 3")
    if R_out_raw in ("inf", "infinity"):
        sol = solve_exterior_radial(spec, f, u_in, R_in=R_in)
        limit = exterior_limit(sol)
        sample_top = sol.far_edge
    else:
        R_out = float(R_out_raw)
        u_out = cfg.get_float("boundary", "u_out", 0.0)
        sol = solve_radial_bvp(spec, f, R_in, R_out, u_in, u_out)
        limit = None
        sample_top = R_out
    radii = np.geomspace(R_in, sample_top, samples)
    u = sol.values(radii)
    table = write_csv(out_dir / "solution.csv", ["r", "u", "du_dr", "flux"],
                      [radii, u, sol.u_prime(radii), sol.flux(radii)])
    summary = {"R_in": R_in, "flux_constant": sol.C_flux,
               "flux_residual": flux_residual(sol, radii[1:-1])}
    if limit is not None:
        summary["limit_at_infinity"] = limit
    return {"solution.csv": table,
            "summary.json": write_json(out_dir / "summary.json",
                                       _sanitize(summary))}


def _mesh_from_config(cfg, spec):
    dim = cfg.get_int("mesh", "dim", 1)
    R_in = cfg.get_float("geometry", "R_in")
    R_out = cfg.get_float("geometry", "R_out")
    if dim == 1:
        return radial_mesh(spec.n, R_in, R_out,
                           cfg.get_int("mesh", "cells", 128))
    if dim == 2:
        if spec.n != 2:
            raise ConfigError("2D polar meshes require n = 2")
        return polar_mesh(R_in, R_out, cfg.get_int("mesh", "radial", 48),
                          cfg.get_int("mesh", "angular", 48))
    raise ConfigError("mesh dim must be 1 or 2")


def cmd_solve_annulus(cfg, out_dir):
    spec = build_spec(cfg)
    f = build_source(cfg, spec)
    mesh = _mesh_from_config(cfg, spec)
    method = cfg.get("solver", "method", "newton")
    tol = cfg.get_float("solver", "tol", 1e-10)
    max_iter = cfg.get_int("solver", "max_iter", 400)
    bdata = {"inner": cfg.get_float("boundary", "u_in", 0.0),
             "outer": cfg.get_float("boundary", "u_out", 0.0)}
    u, report = solve_dirichlet(mesh, spec, f, bdata, method=method,
                                tol=tol, max_iter=max_iter)
    if not report.converged:
        raise NonConvergenceError(
            f"solver status {report.status}: gradient norm "
            f"{report.grad_norm:g} after {report.iterations} iterations")
    if mesh.is_2d:
        rr = np.repeat(mesh.radii, len(mesh.theta))
        tt = np.tile(mesh.theta, len(mesh.radii))
        table = write_csv(out_dir / "solution.csv", ["r", "theta", "u"],
                          [rr, tt, u.values.ravel()])
    else:
        table = write_csv(out_dir / "solution.csv", ["r", "u"],
                          [mesh.radii, u.values])
    summary = write_json(out_dir / "summary.json", _sanitize({
        "energy": report.energy, "grad_norm": report.grad_norm,
        "iterations": report.iterations, "method": method,
        "status": report.status, "scale": report.scale,
    }))
    return {"solution.csv": table, "summary.json": summary}


def cmd_exhaust(cfg, out_dir):
    spec = build_spec(cfg)
    f = build_source(cfg, spec)
    inner = cfg.get_float("exhaust", "inner_value", 1.0)
    R0 = cfg.get_float("exhaust", "R0", 2.0)
    m_max = cfg.get_int("exhaust", "m_max", 6)
    cells = cfg.get_int("exhaust", "cells_per_doubling", 16)
    result = exhaust_exterior(spec, f, inner, R0=R0, m_max=m_max,
                              cells_per_doubling=cells,
                              tol=cfg.get_float("solver", "tol", 1e-10))
    table = write_csv(out_dir / "exhaust.csv",
                      ["m", "R_m", "sup", "deviation"],
                      [np.arange(m_max + 1), result.radii_schedule,
                       result.sups, [np.nan] + result.deviations])
    checks = {}
    if f.decay_tagged and spec.p > spec.n:
        bound = lemma2_C0(spec, f.C_f, f.eps) + abs(inner)
        checks["uniform_bound"] = bool(
            max(result.sups) <= bound + 1e-9 * max(1.0, bound))
        if not checks["uniform_bound"]:
            raise CheckFailure("exhaustion iterates exceeded the a-priori "
                               "uniform bound")
    summary = write_json(out_dir / "summary.json", _sanitize({
        "sups": list(result.sups), "deviations": list(result.deviations),
        "checks": checks,
    }))
    return {"exhaust.csv": table, "summary.json": summary}


def cmd_rearrange(cfg, out_dir):
    n = cfg.get_int("rearrange", "n", 2)
    raw_v = cfg.get("rearrange", "values")
    raw_m = cfg.get("rearrange", "measures")
    try:
        values = np.array([float(x) for x in raw_v.split(",")])
        measures = np.array([float(x) for x in raw_m.split(",")])
    except ValueError as exc:
        raise ConfigError("values/measures must be comma-separated numbers") \
            from exc
    if len(values) != len(measures):
        raise ConfigError("values and measures must have the same length")
    data = rearrange_samples(values, measures, n)
    decreasing = write_csv(out_dir / "decreasing.csv", ["s", "u_star"],
                           [data.measure_before[:-1], data.values])
    rho = np.linspace(0.0, data.outer_radius, 129)
    profile = write_csv(out_dir / "profile.csv", ["rho", "u_sharp"],
                        [rho, data.profile(rho)])
    summary = write_json(out_dir / "summary.json", _sanitize({
        "total_measure": data.total_measure,
        "sup": float(data.values[0]), "n": n,
    }))
    return {"decreasing.csv": decreasing, "profile.csv": profile,
            "summary.json": summary}


def cmd_asymptotics(cfg, out_dir):
    spec = build_spec(cfg)
    f = build_source(cfg, spec)
    u_in = cfg.get_float("boundary", "u_in", 0.0)
    R_in = cfg.get_float("geometry", "R_in", 1.0)
    k_max = cfg.get_int("asymptotics", "dyadic_levels", 10)
    sol = solve_exterior_radial(spec, f, u_in, R_in=R_in)
    limit = exterior_limit(sol)
    top = sol.far_edge
    radii = [R_in * 2.0 ** k for k in range(k_max + 1)
             if R_in * 2.0 ** k <= top]
    stats = sphere_stats(sol, radii)
    fit = decay_fit(stats, spec, f, limit=limit)
    checks = {}
    if f.decay_tagged:
        worst = envelope_check(sol, f, spec, radii[: max(len(radii) - 1, 1)])
        checks["envelope_worst_slack"] = worst
        checks["envelope"] = bool(worst >= -1e-9)
        if spec.p > spec.n:
            pred = osc_prediction(spec, f)
            checks["osc_recurrence"] = bool(fit.recurrence_ok)
            checks["contraction_C"] = pred.C
    shift = max(0.0, -min(s.minimum for s in stats)) + 1e-9
    # the sweep's radii are among those of stats, whose values it reuses
    u_at = {s.R: s.mean for s in stats}
    theta = HARNACK_THETA if spec.p <= spec.n else None
    sweep = harnack_sphere_check(lambda r: u_at[r] + shift, f, spec,
                                 [R for R in radii if R >= 4.0] or radii,
                                 theta=theta)
    checks["harnack_C_fit"] = sweep.C_fit
    checks["harnack"] = bool(sweep.all_passed)
    result = {
        "radii": list(map(float, radii)),
        "m": [s.minimum for s in stats],
        "M": [s.maximum for s in stats],
        "osc": [s.osc for s in stats],
        "beta_fit": fit.beta, "limit_estimate": limit,
        "checks": checks,
    }
    if theta is not None:
        result["harnack_theta"] = theta
    data = write_json(out_dir / "asymptotics.json", _sanitize(result))
    if not checks.get("envelope", True) or not checks.get("harnack", True):
        raise CheckFailure("asymptotic inequality check failed")
    return {"asymptotics.json": data}


def cmd_counterexample(cfg, out_dir):
    p = cfg.get_float("counterexample", "p", 3.0)
    n = cfg.get_int("counterexample", "n", 2)
    r_max = cfg.get_float("counterexample", "r_max", 1e6)
    samples = cfg.get_int("counterexample", "samples", 400)
    report = counterexample_suite(p, n, radii=np.geomspace(2.0, r_max,
                                                           samples))
    data = write_json(out_dir / "counterexample.json", _sanitize({
        "p": report.p, "n": report.n,
        "extrema_radii": report.extrema_radii,
        "extrema_values": report.extrema_values,
        "bound_ratio_table": [list(row) for row in report.bound_ratios],
        "ratio_variation": report.ratio_variation,
        "oscillation": report.limsup - report.liminf,
        "has_limit": report.has_limit,
    }))
    if report.has_limit:
        raise CheckFailure("no-limit solution unexpectedly converged")
    return {"counterexample.json": data}


HANDLERS = {
    "barrier": cmd_barrier,
    "solve-radial": cmd_solve_radial,
    "solve-annulus": cmd_solve_annulus,
    "exhaust": cmd_exhaust,
    "rearrange": cmd_rearrange,
    "asymptotics": cmd_asymptotics,
    "counterexample": cmd_counterexample,
}


def cmd_suite(cfg, out_dir, quiet):
    names_raw = cfg.get("suite", "experiments")
    names = [s.strip() for s in names_raw.split(",") if s.strip()]
    summary = {}
    base = cfg.path.parent
    for name in names:
        if not cfg.has(name):
            raise ConfigError(f"suite experiment [{name}] not defined")
        sub = cfg.get(name, "subcommand")
        if sub not in HANDLERS:
            raise ConfigError(f"[{name}] unknown subcommand {sub!r}")
        sub_cfg = load_config(base / cfg.get(name, "config"))
        sub_dir = out_dir / name
        sub_dir.mkdir(parents=True, exist_ok=True)
        files = HANDLERS[sub](sub_cfg, sub_dir)
        write_manifest(sub_dir, sub_cfg, files)
        summary[name] = {"subcommand": sub, "artifacts": _checksums(files)}
        if not quiet:
            print(f"[suite] {name}: ok")
    return {"suite_summary.json":
            write_json(out_dir / "suite_summary.json", summary)}


# ---------------------------------------------------------------------------
# entry point

def run(subcommand, config_path, out_dir, quiet=False):
    """Execute one subcommand; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if subcommand == "suite":
            files = cmd_suite(cfg, out_dir, quiet)
        elif subcommand in HANDLERS:
            files = HANDLERS[subcommand](cfg, out_dir)
        else:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        write_manifest(out_dir, cfg, files)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, DivergenceError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    if not quiet:
        print(f"{subcommand}: artifacts in {out_dir}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="plapext",
        description="numerical laboratory for exterior Dirichlet problems "
                    "of weighted p-Laplace type")
    parser.add_argument("subcommand", choices=sorted(HANDLERS) + ["suite"])
    parser.add_argument("--config", required=True, help="key=value config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
