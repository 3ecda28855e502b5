"""Bitwise fingerprint of the benchmark workloads' outputs.

    python3 tools/fingerprint.py

Run from any directory; the package is imported from this checkout's
`src` and the cases come from `perfbench/workloads.py`, which is only
read.  Every case of seeds 1-3 is run once, and one SHA-256 per workload,
plus one for the barrier families and one for the annulus solver paths no
workload runs, is printed over:

  * annulus: every `solve-annulus` CLI artifact on a radial and on a polar
    mesh except `manifest.json`; on a polar solution with a cusp in its
    inner trace, the solution, its `EnergyReport`, `holder_modulus` with
    and without a region, and `sphere_stats`; `comparison_check` of
    ordered radial and polar solutions both ways round;
  * barrier: values, u', bounds and `residual_check` of members of all
    four families, plap and smooth-bump at p = 3.5, n = 2, and
    lemma2_prime at p = n = 3, on fixed radii (no workload builds
    lemma1_prime or lemma2_prime);
  * polar2d: the solution u and every `EnergyReport` field;
  * talenti: the solution, node measures, every `RearrangementData`
    array, the Talenti bound and the full profile;
  * exterior: every CLI artifact of each case except `manifest.json`
    (which echoes versions and the other files' checksums).

Two checkouts whose printed hashes agree compute bitwise the same
numbers on these cases.  BLAS is pinned to one thread, as in the
benchmark, so that factorizations do not depend on thread scheduling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from plapext import (cli, comparison_check, holder_modulus,  # noqa: E402
                     make_lemma1, make_lemma1_prime, make_lemma2,
                     make_lemma2_prime, make_spec, polar_mesh,
                     power_decay_source, radial_mesh, residual_check,
                     solve_dirichlet, sphere_stats, zero_source)

SEEDS = (1, 2, 3)
ANNULUS_CONFIG = """[operator]
p = 3
n = 2
[source]
name = powerdecay:1:1
[geometry]
R_in = 1
R_out = 3
[mesh]
{mesh}
[boundary]
u_in = 1
u_out = -0.5
"""
ANNULUS_MESHES = ("dim = 1\ncells = 64",
                  "dim = 2\nradial = 12\nangular = 16")


def _feed(h, obj):
    """Add obj to the hash h: arrays by dtype, shape and bytes; lists,
    tuples and dataclasses element by element; other scalars by repr."""
    if dataclasses.is_dataclass(obj):
        for fld in dataclasses.fields(obj):
            h.update(fld.name.encode())
            _feed(h, getattr(obj, fld.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def _feed_artifacts(h, d):
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        h.update(str(path.relative_to(d)).encode())
        h.update(path.read_bytes())


def _feed_outputs(h, name, out):
    if name == "polar2d":
        _feed(h, out["u"])
        _feed(h, out["report"])
    elif name == "talenti":
        for key in ("u", "mu", "data", "bound", "profile"):
            _feed(h, out[key])
    else:
        _feed_artifacts(h, out["out"])


def barrier_fingerprint():
    h = hashlib.sha256()
    ball = np.geomspace(1e-3, 5.0, 33)
    whole = np.geomspace(1e-2, 1e3, 33)      # straddles lemma2's kink at 1
    outside = np.geomspace(3.0, 3e3, 33)
    for p, n, coeff in ((3.5, 2, "plap"), (3.5, 2, "smooth-bump"),
                        (3.0, 3, "plap")):
        spec = make_spec(p, n, coeff)
        f = power_decay_source(spec, 1.3, 0.8)
        members = [(make_lemma2_prime(spec, 3.0, f, 0.0), outside),
                   (make_lemma2_prime(spec, 3.0, f, 0.5), outside)]
        if p > n:
            members += [(make_lemma1(spec, 5.0, 1.3, 0.7), ball),
                        (make_lemma1_prime(spec, 5.0, f, 0.4), ball),
                        (make_lemma2(spec, f, 0.0), whole),
                        (make_lemma2(spec, f, 0.4), whole)]
        for b, radii in members:
            _feed(h, [b.values(radii), b.u_prime(radii), b.bounds(radii),
                      residual_check(b, f, radii)])
    return h.hexdigest()


def _cusp(th):
    return np.abs(th % (2 * np.pi) - np.pi) ** 0.5   # cusp at theta = pi


def annulus_fingerprint(workdir):
    h = hashlib.sha256()
    for index, mesh in enumerate(ANNULUS_MESHES):
        d = Path(workdir) / f"annulus{index}"
        d.mkdir()
        cfg = d / "config.ini"
        cfg.write_text(ANNULUS_CONFIG.format(mesh=mesh))
        _feed(h, cli.run("solve-annulus", cfg, d / "out", quiet=True))
        _feed_artifacts(h, d / "out")
    spec = make_spec(3.0, 2)
    mesh = polar_mesh(1.0, 2.0, 12, 24, inner_layers=4, theta_center=np.pi)
    u, rep = solve_dirichlet(mesh, spec, zero_source(),
                             {"inner": _cusp, "outer": 0.0})
    v, _ = solve_dirichlet(mesh, spec, zero_source(),
                           {"inner": lambda th: _cusp(th) + 0.1,
                            "outer": 0.1})
    _feed(h, [u.values, rep, holder_modulus(u, 0.5),
              holder_modulus(u, 0.5, region=(1.3, np.pi, 0.6)),
              sphere_stats(u, np.geomspace(1.0, 2.0, 9)),
              comparison_check(u, v), comparison_check(v, u)])
    f = power_decay_source(spec, 1.0, 1.0)
    radial = radial_mesh(2, 1.0, 2.0, 32)
    a, _ = solve_dirichlet(radial, spec, f, {"inner": 0.5, "outer": 0.0})
    b, _ = solve_dirichlet(radial, spec, f, {"inner": 1.0, "outer": 0.3})
    _feed(h, [comparison_check(a, b), comparison_check(b, a)])
    return h.hexdigest()


def fingerprint(name, seeds, workdir):
    h = hashlib.sha256()
    for seed in seeds:
        w = workloads.Workload(name, seed, Path(workdir) / f"{name}{seed}")
        for index, case in enumerate(w.cases):
            _feed_outputs(h, name, w.run(case, index))
    return h.hexdigest()


def main():
    print(f"barrier {barrier_fingerprint()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        print(f"annulus {annulus_fingerprint(tmp)}", flush=True)
        for name in sorted(workloads.WORKLOAD_IDS):
            print(f"{name} {fingerprint(name, SEEDS, tmp)}", flush=True)


if __name__ == "__main__":
    main()
