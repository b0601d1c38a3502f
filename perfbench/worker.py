"""Child process of the benchmark: imports asdnull, sets up one workload and,
in `run` mode, works through its items for a time budget.

Usage (started by run.py with PYTHONPATH pointing at the checkout's src/):

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py run --workload W --seed S --seconds N
        [--first K] [--end-pass P] [--trace FILE]

It writes one JSON event per line to stdout: `setup` (set-up seconds and the
library versions), then `start` and `end` for every item, and `done` at the
end.  The parent enforces the per-item time limit by killing this process, so
nothing here needs a timer of its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback


def emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def library_record() -> dict:
    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"sympy": sympy.__version__, "numpy": numpy.__version__,
            "ground_types": GROUND_TYPES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--end-pass", type=int, default=0,
                    help="stop before this pass instead of at the time budget")
    ap.add_argument("--trace", default=None, help="append spans to this file")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        span = tracer.begin("import")
    import asdnull.cli  # noqa: F401  (the package imports every other layer)
    if tracer:
        tracer.end(span)
        tracer.install()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer:
        tracer.count_outputs()
    emit(ev="setup", s=time.perf_counter() - t0, slots=len(wl.slots),
         record=library_record())
    if args.mode == "setup":
        return 0

    n_slots = len(wl.slots)
    start = time.perf_counter()
    pass_walls = []
    pass_start = start
    k = args.first
    while True:
        if k % n_slots == 0 and k > args.first:
            if args.end_pass:
                if k // n_slots >= args.end_pass:
                    break
            else:
                # start a pass only if one more is expected to fit the budget
                est = statistics.median(pass_walls) if pass_walls else 0.0
                if time.perf_counter() - start + est > args.seconds:
                    break
            pass_start = time.perf_counter()
        item = wl.item(k)
        emit(ev="start", k=k, id=item.id)
        if tracer:
            tracer.item = item.id
            root = tracer.begin("item")
        error = None
        t = time.perf_counter()
        try:
            out = item.run()
        except Exception:  # an item that raises is a counted failure, not a crash
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        dt = time.perf_counter() - t
        if tracer:
            tracer.end(root)
            tracer.count_outputs()
        wrong = 0 if error else item.check(out)
        emit(ev="end", k=k, id=item.id, s=dt, error=error, mismatches=wrong)
        k += 1
        if k % n_slots == 0:
            pass_walls.append(time.perf_counter() - pass_start)
    if tracer:
        tracer.write(args.trace)
    emit(ev="done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
