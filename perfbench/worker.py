"""One fresh workload process, started by run.py.

It imports the package from the checkout's `src`, builds the seeded case
list, runs one small untimed warm-up case and notes the monotonic clock:
that instant ends set-up.  With --probe it stops there.  Otherwise it
computes the oracle references, optionally installs the tracer, and runs
whole rounds of the case list, one case at a time, until --seconds have
passed.  The last line of its output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import plapext  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
MAX_REPORTED_FAILURES = 5


def run_rounds(w, refs, seconds, tracer):
    """Whole rounds of the case list until `seconds` have passed.  Case
    times are kept per round and case index (None where the case failed
    to run)."""
    run = w.run if tracer is None else tracer.wrap("case", w.run)
    attempted = failed = wrong = 0
    case_times, round_times, failures = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        times = []
        for index, case in enumerate(w.cases):
            if tracer is not None:
                tracer.case = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = run(case, index)
            except Exception:   # a failing case is counted, not fatal
                failed += 1
                failures.append(f"case {index}: "
                                + traceback.format_exc(limit=-1).strip())
                times.append(None)
                continue
            times.append(time.perf_counter() - t0)
            fails = w.check(case, out, refs[index])
            if fails:
                failed += 1
                wrong += 1
                failures.append(f"case {index}: " + "; ".join(fails))
        now = time.perf_counter()
        case_times.append(times)
        round_times.append(now - round_start)
        if now - start >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "case_times": case_times, "round_times": round_times,
            "cases_per_round": len(w.cases),
            "failures": failures[:MAX_REPORTED_FAILURES]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOAD_IDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up and the warm-up case")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(plapext.__file__).resolve().parents:
        sys.exit(f"plapext was imported from {plapext.__file__}, "
                 f"not from {src}")
    tag = f"{args.workload}-seed{args.seed}"
    w = workloads.Workload(args.workload, args.seed, OUT_DIR / "work" / tag)
    w.run(w.warmup, "warmup")
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if not args.probe:
        refs = [w.reference(case) for case in w.cases]
        tracer = tracing.Tracer().install() if args.trace else None
        try:
            result.update(run_rounds(w, refs, args.seconds, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["attempted"])
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"trace-{tag}.json").write_text(
                json.dumps(tracer.dump()))
        result["peak_rss_kib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
