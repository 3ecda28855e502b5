"""Benchmark entry point.

    python3 perfbench/run.py --workload polar2d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in fresh child
processes (perfbench/worker.py) with BLAS and OpenMP pinned to one
thread.  With --trace 0 it first starts SETUP_PROBES processes that only
set up, then the measuring process; `setup_s` is the median set-up time of
all of them, from the parent's clock just before the start to the end of
the child's warm-up case.  With --trace 1 it starts only the measuring
process, with the tracer installed, and reports the per-layer metrics.
The last line printed is one JSON object; metric names and units come
from BENCHMARK.json.  Under .perfbench_out it leaves the raw samples
behind the reported figures (run-*.json) and, traced, every layer's calls
and self time with the spans (trace-*.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, extra, deadline):
    """Run one worker to completion; returns (start instant, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return t0, json.loads(lines[-1])


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(args):
    if not (ROOT / "src" / "plapext" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    end_to_end, per_layer = declared_metrics()
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0, probe = start_worker(args, ["--probe"], deadline)
            setups.append(probe["setup_end"] - t0)
    t0, res = start_worker(args, [], deadline)
    setups.append(res["setup_end"] - t0)

    # Rounds repeat the same work.  On a shared host a core's speed swings
    # by tens of percent over seconds, and the contended state is the
    # repeatable one, so throughput is taken from the slowest round.
    throughputs = [res["cases_per_round"] / t for t in res["round_times"]]
    case_times = [t for per_round in res["case_times"] for t in per_round
                  if t is not None]
    if args.trace:
        values = dict(res["layers"])
        values["traced.cases_per_s"] = min(throughputs)
        units = per_layer
    else:
        values = {
            "cases_per_s": min(throughputs),
            "case_p50_s": statistics.median(case_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
        }
        units = end_to_end
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    raw = {"setup_s": setups, "round_s": res["round_times"],
           "case_s": res["case_times"]}
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(raw))
    for line in res["failures"]:
        print(f"failed {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['attempted']} cases in "
          f"{len(res['round_times'])} rounds, {res['failed']} failed; "
          f"cases/s by round {[round(x, 3) for x in throughputs]}; "
          f"set-up {[round(x, 3) for x in setups]} s", file=sys.stderr)
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("polar2d", "exterior", "talenti"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
