"""Fast smoke tests of the benchmark's own parts (about two seconds in all):
seeded case lists, the oracles against closed forms, one small case per
workload through its checks, the tracer's install and uninstall, and the
refusal to run without the package source."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import plapext  # noqa: E402


def test_case_lists_follow_the_seed(tmp_path):
    for name in workloads.WORKLOAD_IDS:
        a = workloads.Workload(name, 7, tmp_path).cases
        b = workloads.Workload(name, 7, tmp_path).cases
        c = workloads.Workload(name, 8, tmp_path).cases
        assert a == b
        assert a != c
        assert len(a) == len(c)


def test_quadrature_oracles_match_closed_forms():
    for n, p, C_f, eps, R_in, u_in in [(2, 3.0, 1.3, 0.7, 1.0, 0.2),
                                       (3, 4.0, 0.6, 1.4, 1.7, -0.5)]:
        closed = oracles.exterior_limit_plap(n, p, C_f, eps, R_in, u_in)
        by_quad = oracles.exterior_limit_quad("plap", n, p, C_f, eps, R_in,
                                              u_in)
        assert math.isclose(closed, by_quad, rel_tol=1e-10)
    # phi^{-1} by brentq inverts phi of the smooth-bump coefficient
    t = oracles.phi_inverse("smooth-bump", 3.0, 2.0)
    assert math.isclose(t ** 2 * oracles.coefficient("smooth-bump", t), 2.0,
                        rel_tol=1e-14)
    # with u_out = u(R_out) of the exterior solution, the two-point
    # problem has the same flux constant: the tail integral T(R_in)
    n, p, C_f, eps, R_in = 2, 3.0, 1.0, 1.0, 1.0
    C = C_f / (p - n + eps)
    k = (C_f / (p - n + eps)) ** 0.5
    u_out = 2 * k * (1.0 - 4.0 ** -0.5)        # int_1^4 k r^(-3/2) dr
    C_ref, _ = oracles.radial_bvp("plap", n, p, C_f, eps, R_in, 4.0, 0.0,
                                  u_out, [2.0])
    assert math.isclose(C_ref, C, rel_tol=1e-9)


def test_radial_discretization_bound_covers_a_fine_mesh_solution():
    exact, third = oracles.radial_free(3.0, 1.0, 4.0, 1.0, 0.0)
    radii = np.geomspace(1.0, 4.0, 9)
    assert oracles.radial_discretization_bound(radii, third) > 0.0
    assert math.isclose(exact(4.0), 0.0, abs_tol=1e-15)


def test_warmup_cases_pass_their_checks(tmp_path):
    for name in workloads.WORKLOAD_IDS:
        w = workloads.Workload(name, 0, tmp_path)
        out = w.run(w.warmup, "warmup")
        assert w.check(w.warmup, out, w.reference(w.warmup)) == []


def test_tracer_counts_and_restores(tmp_path):
    original = plapext.annulus_solver.discrete_energy
    w = workloads.Workload("polar2d", 0, tmp_path)
    with tracing.Tracer() as tracer:
        assert plapext.annulus_solver.discrete_energy is not original
        w.run(w.warmup, 0)
    assert plapext.annulus_solver.discrete_energy is original
    layers = tracer.layer_metrics(1)
    assert layers["annulus_solver.solve_dirichlet.calls"] == 1
    assert layers["annulus_solver.spsolve.calls"] > 0
    assert layers["annulus_solver.energy_evals_per_iteration"] >= 1.0
    assert layers["quadrature.integrate.calls"] == 0
    spans = {s[0]: s for s in tracer.spans}
    top = [s for s in spans.values() if s[1] is None]
    assert [s[3] for s in top] == ["annulus_solver.solve_dirichlet"]
    assert all(s[4] <= s[5] for s in spans.values())


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "polar2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
