"""Field-by-field drift of the benchmark outputs between two checkouts.

    python3 tools/drift.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout runs, in a fresh process that imports its own `src` and
reads its own `perfbench/workloads.py`, every polar2d, exterior and
talenti case of seeds 1-3 once.  Then one line per field gives how many
values were compared, how many differ, and the largest relative change
|new - old| / max(|old|, |new|), with the case where it occurs and both
values.  The fields are every field of each JSON artifact of the exterior
cases except `manifest.json` (which holds checksums), every column of
their CSV artifacts, the Talenti bound and full-profile values, and of
each polar2d solve the solution `u`, `energy`, `grad_norm`, `iterations`
and `history`.  A polar2d solution counts as one value per case, whose
relative change is max |new - old| / max(max |old|, max |new|) over the
nodes; so does a history, whose relative change is the largest relative
change of its entries, and infinite when its length changed.  A field's
values are pooled over all seeds and cases of one workload and
subcommand; booleans count as 0 and 1, and other non-numbers as changed
when unequal.  `tools/fingerprint.py` tells whether two checkouts agree
bitwise; this tool tells by how much they differ.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SEEDS = (1, 2, 3)
WORKLOADS = ("polar2d", "exterior", "talenti")
POLAR2D_FIELDS = ("energy", "grad_norm", "iterations", "history")


def _flatten(obj, key, out):
    """Scalars of a parsed JSON value, under dotted keys; nested lists are
    flattened into the key of the list."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{key}.{k}" if key else k, out)
    elif isinstance(obj, list):
        for v in obj:
            _flatten(v, key, out)
    else:
        out.setdefault(key, []).append(obj)


def _artifact_fields(out_dir):
    """{file:field: values} of the JSON and CSV artifacts in out_dir."""
    fields = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        if path.suffix == ".json":
            flat = {}
            _flatten(json.loads(path.read_text()), "", flat)
            fields.update({f"{path.name}:{k}": v for k, v in flat.items()})
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            for j, name in enumerate(rows[0]):
                fields[f"{path.name}:{name}"] = [float(r[j]) for r in rows[1:]]
    return fields


def collect(checkout):
    """{(group, case label): values} of one checkout's cases.  Runs in its
    own process, since it imports that checkout's package."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                w = workloads.Workload(name, seed, Path(tmp) / f"{name}{seed}")
                for index, case in enumerate(w.cases):
                    where = f"seed {seed} case {index}"
                    out = w.run(case, index)
                    if name == "polar2d":
                        records[("polar2d u", where)] = [out["u"]]
                        for field in POLAR2D_FIELDS:
                            value = getattr(out["report"], field)
                            records[(f"polar2d {field}", where)] = \
                                [tuple(value) if field == "history"
                                 else value]
                        continue
                    if name == "talenti":
                        records[("talenti bound", where)] = [out["bound"]]
                        if out["profile"] is not None:
                            records[("talenti profile", where)] = \
                                list(out["profile"])
                        continue
                    for field, values in _artifact_fields(out["out"]).items():
                        records[(f"exterior {case['sub']} {field}", where)] = \
                            values
    return records


def _in_fresh_process(checkout):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(collect, (checkout,))


def _change(old, new):
    """Relative change of one value, of an array in the max norm, of a
    tuple the largest over its entries (inf for another length); inf for
    unequal non-numbers."""
    if isinstance(old, tuple):
        if len(old) != len(new):
            return math.inf
        return max(map(_change, old, new), default=0.0)
    if isinstance(old, np.ndarray):
        scale = max(np.max(np.abs(old)), np.max(np.abs(new)))
        return float(np.max(np.abs(new - old)) / scale) if scale else 0.0
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        old, new = float(old), float(new)
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        return abs(new - old) / max(abs(old), abs(new))
    return 0.0 if old == new else math.inf


def drift(old, new):
    """Per group: [compared, changed, worst change, where, old, new], and
    the keys present on one side only or with other lengths."""
    table, mismatched = {}, []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a is None or b is None or len(a) != len(b):
            mismatched.append(key)
            continue
        row = table.setdefault(key[0], [0, 0, -1.0, None, None, None])
        for x, y in zip(a, b):
            c = _change(x, y)
            row[0] += 1
            row[1] += c > 0
            if c > row[2]:
                row[2:] = [c, key[1], x, y]
    return table, mismatched


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tools/drift.py OLD_CHECKOUT NEW_CHECKOUT")
    old, new = (_in_fresh_process(c) for c in argv)
    table, mismatched = drift(old, new)
    for group, (count, changed, worst, where, x, y) in sorted(table.items()):
        line = f"{group}: {changed}/{count} changed"
        if changed:
            line += f", max rel {worst:.3g} at {where}"
            if not isinstance(x, (np.ndarray, tuple)):
                line += f": {x!r} -> {y!r}"
        print(line)
    for group, where in mismatched:
        print(f"{group}: present or sized differently at {where}")


if __name__ == "__main__":
    main(sys.argv[1:])
