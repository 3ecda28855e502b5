"""Bitwise fingerprint of the benchmark workloads' outputs.

    python3 tools/fingerprint.py

Run from any directory; the package is imported from this checkout's
`src` and the cases come from `perfbench/workloads.py`, which is only
read.  Every case of seeds 1-3 is run once, and one SHA-256 per workload
is printed over:

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

SEEDS = (1, 2, 3)


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


def _feed_outputs(h, name, out):
    if name == "polar2d":
        _feed(h, out["u"])
        _feed(h, out["report"])
    elif name == "talenti":
        for key in ("u", "mu", "data", "bound", "profile"):
            _feed(h, out[key])
    else:
        d = out["out"]
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            if path.name == "manifest.json":
                continue
            h.update(str(path.relative_to(d)).encode())
            h.update(path.read_bytes())


def fingerprint(name, seeds, workdir):
    h = hashlib.sha256()
    for seed in seeds:
        w = workloads.Workload(name, seed, Path(workdir) / f"{name}{seed}")
        for index, case in enumerate(w.cases):
            _feed_outputs(h, name, w.run(case, index))
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(workloads.WORKLOAD_IDS):
            print(f"{name} {fingerprint(name, SEEDS, tmp)}", flush=True)


if __name__ == "__main__":
    main()
