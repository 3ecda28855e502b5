"""How the annulus solves stop: status counts of five sweeps.

    python3 tools/stagnation.py [CHECKOUT]

The package is imported from CHECKOUT's `src` (default: this checkout)
and the workload cases come from its `perfbench/workloads.py`, which is
only read.  Every `solve_dirichlet` call of these sweeps is recorded:

  * 1d: the exhaust levels of the exterior cases and the talenti solves of
    seeds 1-3, at their own tol 1e-10;
  * polar2d: the polar2d cases of seeds 1-3, at tol 1e-10 instead of the
    workload's tolerance;
  * p<2: 24 polar solves with the source powerdecay 1:1 on [1, 4]: plap
    and smooth-bump, p = 1.4, 1.6 and 1.8, 32x32 and 64x64 cells, inner
    trace cos(theta) or 1 + 0.3 cos(theta), outer 0, tol 1e-10;
  * flat start: zero traces with powerdecay 1:1 at p = 4, on
    radial_mesh(2, 1, 8, 48) and polar_mesh(1, 4, 16, 16);
  * bump p=1.5: smooth-bump at p = 1.5, polar_mesh(1, 4, 32, 32),
    powerdecay 1:1, inner trace cos(theta), outer 0.

One line per sweep gives the number of solves, the count of each status,
how many stopped with a gradient above tol*scale (the scale of each
`EnergyReport`), the largest ratio of gradient to tol*scale, and the
iterations.  On a radial mesh the iterations are the evaluations of the
flux sum of the shooting on C; on a polar one they are Newton
directions.  A solve that raises `NonConvergenceError` counts as
"raised".  CHECKOUT's `EnergyReport` must have `status` and `scale`.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from plapext import (annulus_solver, make_spec, polar_mesh,  # noqa: E402
                     power_decay_source, radial_mesh)
from plapext.operator_core import NonConvergenceError  # noqa: E402

SEEDS = (1, 2, 3)
TOL = 1e-10


class Recorder:
    """Stands in for `solve_dirichlet`, at a fixed tol if one is given, and
    keeps (status, gradient / (tol * scale), iterations) of every solve; a
    solve that raises `NonConvergenceError` counts as "raised"."""

    def __init__(self, solve):
        self.solve, self.tol, self.rows = solve, None, []

    def __call__(self, mesh, spec, f, boundary_data, **kw):
        if self.tol is not None:
            kw["tol"] = self.tol
        try:
            u, rep = self.solve(mesh, spec, f, boundary_data, **kw)
        except NonConvergenceError:
            self.rows.append(("raised", np.inf, 0))
            raise
        self.rows.append((rep.status,
                          rep.grad_norm / (kw.get("tol", TOL) * rep.scale),
                          rep.iterations))
        return u, rep


def run_workload(name, workdir):
    for seed in SEEDS:
        w = workloads.Workload(name, seed, Path(workdir) / f"{name}{seed}")
        for index, case in enumerate(w.cases):
            if name != "exterior" or case["sub"] == "exhaust":
                try:
                    w.run(case, index)
                except workloads.OperationFailed:
                    pass            # the recorded status tells why


def p_below_2():
    for coeff in ("plap", "smooth-bump"):
        for p in (1.4, 1.6, 1.8):
            spec = make_spec(p, 2, coeff)
            f = power_decay_source(spec, 1.0, 1.0)
            for cells in (32, 64):
                for inner in (np.cos, lambda th: 1.0 + 0.3 * np.cos(th)):
                    yield polar_mesh(1.0, 4.0, cells, cells), spec, f, inner


def flat_start():
    spec = make_spec(4.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    for mesh in (radial_mesh(2, 1.0, 8.0, 48), polar_mesh(1.0, 4.0, 16, 16)):
        yield mesh, spec, f, 0.0


def bump():
    spec = make_spec(1.5, 2, "smooth-bump")
    yield (polar_mesh(1.0, 4.0, 32, 32), spec,
           power_decay_source(spec, 1.0, 1.0), np.cos)


def solve_each(rec, solves):
    for mesh, spec, f, inner in solves:
        try:
            rec(mesh, spec, f, {"inner": inner, "outer": 0.0}, tol=TOL)
        except NonConvergenceError:
            pass


def report(name, rows):
    counts = Counter(status for status, _, _ in rows)
    ratios = [ratio for _, ratio, _ in rows]
    print(f"{name}: {len(rows)} solves, "
          + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
          + f"; {sum(r > 1.0 for r in ratios)} above tol*scale, worst "
          f"{max(ratios):.3g} of it; {sum(it for *_, it in rows)} iterations",
          flush=True)


def main():
    rec = Recorder(annulus_solver.solve_dirichlet)
    annulus_solver.solve_dirichlet = rec
    print(f"checkout {ROOT}")
    with tempfile.TemporaryDirectory() as tmp:
        sweeps = [
            ("1d", lambda: [run_workload(name, tmp)
                            for name in ("exterior", "talenti")], None),
            ("polar2d", lambda: run_workload("polar2d", tmp), TOL),
            ("p<2", lambda: solve_each(rec, p_below_2()), None),
            ("flat start", lambda: solve_each(rec, flat_start()), None),
            ("bump p=1.5", lambda: solve_each(rec, bump()), None),
        ]
        for name, sweep, tol in sweeps:
            rec.tol, rec.rows = tol, []
            sweep()
            report(name, rec.rows)


if __name__ == "__main__":
    main()
