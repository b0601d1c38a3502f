"""asdnull benchmark: three seeded workloads, end-to-end metrics from untraced
runs and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload report_all|random_families|point_queries
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.  One
client works in a closed loop with one item in flight.  Items run in child
processes that are killed when an item passes ITEM_LIMIT_S; a killed or
failing item counts in failed_share and is named in the output.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"  # traces and worker logs

sys.path.insert(0, str(HERE))
from expected import EXPECTED_VERDICTS, report_mismatches  # noqa: E402
from tracer import LAYERS, SIZED  # noqa: E402

WORKLOADS = ("report_all", "random_families", "point_queries")
MODELS = tuple(sorted(EXPECTED_VERDICTS))
HASH_SEED = "0"  # PYTHONHASHSEED of every measured process
# set-ups measured per run; fewer where one set-up takes seconds
SETUP_SAMPLES = {"report_all": 7, "random_families": 7, "point_queries": 3}
ITEM_LIMIT_S = 60.0
RUN_LIMIT_S = 165.0  # stop starting work after this; the run must end by 180 s
TRACE_PASSES = {"report_all": 1, "random_families": 1, "point_queries": 20}

# `report-all` wall seconds per model from the ROADMAP baseline table
ROADMAP_BASELINE_S = {
    "betazero_a2x": 1.08, "flat_projective": 0.95, "heavenly_ppwave": 1.12,
    "nontwisting_generic": 5.14, "ppwave": 0.96, "sparling_tod": 8.34,
    "twisting_exp": 2.94,
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {"import.s": "s"}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "tensor.christoffels.hit_ratio": "ratio",
    "expr.is_zero.proven_share": "ratio",
    "expr.compile.hit_ratio": "ratio",
    "projective.geodesic.steps_per_s": "1/s",
    **{f"{name}.out_terms": "count" for name in SIZED},
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
})

# Which layers each workload was designed to load: (items, layers, test, share).
# A layer name matches its spans and every span below it ("tensor" matches
# "tensor.riemann"); shares are of summed item wall time in the traced run.
PREDICTED = {
    "report_all": [
        (("sparling_tod", "nontwisting_generic"), ("tensor", "spinor"), ">=", 0.5),
        (("betazero_a2x", "flat_projective", "heavenly_ppwave", "ppwave"),
         ("import",), ">=", 0.5),
        ((), ("quartic",), "<", 0.02),
    ],
    "random_families": [
        ((), ("tensor", "spinor"), ">=", 0.5),
        ((), ("quartic", "expr.evaluate", "projective", "cli", "import"), "<", 0.02),
    ],
    "point_queries": [
        ((), ("expr.evaluate", "quartic"), ">=", 0.5),
        ((), ("tensor", "construct", "twistor", "cli"), "<", 0.02),
    ],
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


# -- running items --------------------------------------------------------------------


class Clock:
    """Run-wide guard so the whole run ends well inside its limit."""

    def __init__(self):
        self.t0 = time.monotonic()

    def limit(self, wanted: float) -> float:
        return max(1.0, min(wanted, RUN_LIMIT_S - (time.monotonic() - self.t0)))

    def expired(self) -> bool:
        return time.monotonic() - self.t0 >= RUN_LIMIT_S


class Worker:
    """A worker.py child whose stdout events arrive through a queue, so that
    the parent can wait for each with a timeout."""

    def __init__(self, args: list[str]):
        OUT.mkdir(exist_ok=True)
        self.log = open(OUT / "worker-stderr.log", "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.events: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.events.put(json.loads(line))
        self.events.put(None)

    def next(self, timeout: float):
        """Next event, None when the worker has exited; queue.Empty on timeout."""
        return self.events.get(timeout=timeout)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        self.log.close()


def setup_probe(workload: str, seed: int, clock: Clock) -> dict | None:
    """Set-up in a fresh process: import plus the workload's fixed inputs."""
    w = Worker(["setup", "--workload", workload, "--seed", str(seed)])
    try:
        ev = w.next(timeout=clock.limit(ITEM_LIMIT_S))
    except queue.Empty:
        ev = None
    finally:
        w.stop()
    return ev


def run_worker_items(workload: str, seed: int, seconds: float, clock: Clock,
                     end_pass: int = 0, trace: Path | None = None) -> dict:
    """Items of an in-process workload, in worker children restarted after a
    kill.  Returns set-up seconds, library record, and item results."""
    items: list[dict] = []
    setup = record = slots = None
    first = 0
    while not clock.expired():
        spent = sum(i["s"] for i in items)
        if not end_pass and items and spent >= seconds:
            break
        args = ["run", "--workload", workload, "--seed", str(seed),
                "--seconds", repr(max(0.0, seconds - spent)), "--first", str(first)]
        if end_pass:
            args += ["--end-pass", str(end_pass)]
        if trace:
            args += ["--trace", str(trace)]
        w = Worker(args)
        current = None
        try:
            limit = clock.limit(ITEM_LIMIT_S)
            ev = w.next(timeout=limit)
            if ev is None or ev["ev"] != "setup":
                items.append(_failure(first, "setup", "worker exited during set-up"))
                break
            if setup is None:
                setup, record, slots = ev["s"], ev["record"], ev["slots"]
            while True:
                limit = clock.limit(ITEM_LIMIT_S)
                ev = w.next(timeout=limit)
                if ev is None:
                    raise EOFError
                if ev["ev"] == "start":
                    current = ev
                elif ev["ev"] == "end":
                    items.append(ev)
                    current = None
                elif ev["ev"] == "done":
                    return {"setup": setup, "record": record, "slots": slots,
                            "items": items}
        except queue.Empty:
            if current is None:
                items.append(_failure(first, "setup", f"set-up timed out after {limit:.0f} s"))
                break
            items.append(_failure(current["k"], current["id"],
                                  f"timed out after {limit:.0f} s", limit))
            first = current["k"] + 1
        except EOFError:
            if current is None:
                items.append(_failure(first, "worker", "worker exited between items"))
                break
            items.append(_failure(current["k"], current["id"],
                                  f"worker exited with code {w.proc.wait()}"))
            first = current["k"] + 1
        finally:
            w.stop()
    return {"setup": setup, "record": record, "slots": slots, "items": items}


def _failure(k, item_id, error, seconds=0.0) -> dict:
    return {"k": k, "id": item_id, "s": seconds, "error": error, "mismatches": 0}


def run_report_all(seed: int, seconds: float, clock: Clock, end_pass: int = 0,
                   trace: Path | None = None) -> list[dict]:
    """Fresh `report-all` processes, one per model, in seeded order per pass."""
    references = {m: (HERE / "reference" / f"{m}.json").read_bytes() for m in MODELS}
    items = []
    pass_walls = []
    start = time.perf_counter()
    p = 0
    while not clock.expired():
        if end_pass and p >= end_pass:
            break
        if not end_pass and p and (time.perf_counter() - start
                                   + statistics.median(pass_walls) > seconds):
            break
        order = list(MODELS)
        random.Random(f"{seed}:{p}").shuffle(order)
        pass_start = time.perf_counter()
        for model in order:
            item_id = f"p{p}.{model}"
            argv = ["report-all", f"models/{model}.json"]
            if trace:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace), item_id, *argv]
            else:
                cmd = [sys.executable, "-m", "asdnull.cli", *argv]
            limit = clock.limit(ITEM_LIMIT_S)
            t = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                      timeout=limit)
            except subprocess.TimeoutExpired:
                items.append(_failure(len(items), item_id, f"timed out after {limit:.0f} s",
                                      limit))
                continue
            dt = time.perf_counter() - t
            error = None
            if proc.returncode not in (0, 1):
                error = f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"
            wrong = report_mismatches(model, proc.returncode, proc.stdout, references[model])
            items.append({"k": len(items), "id": item_id, "s": dt, "error": error,
                          "mismatches": wrong})
        pass_walls.append(time.perf_counter() - pass_start)
        p += 1
    return items


def run_items(workload, seed, seconds, clock, end_pass=0, trace=None) -> dict:
    if workload == "report_all":
        return {"setup": None, "record": None, "slots": len(MODELS),
                "items": run_report_all(seed, seconds, clock, end_pass, trace)}
    return run_worker_items(workload, seed, seconds, clock, end_pass, trace)


# -- statistics -------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest order statistic with at least ten
    samples beyond it.  Below 21 samples that statistic is not above the
    median, and the maximum is reported instead."""
    v = sorted(values)
    n = len(v)
    if n < 21:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def pass_walls(items: list[dict], n_slots: int) -> list[float]:
    """Summed item seconds of every complete pass without a failure."""
    by_pass: dict[str, list[dict]] = {}
    for it in items:
        by_pass.setdefault(it["id"].split(".", 1)[0], []).append(it)
    return [sum(i["s"] for i in group) for group in by_pass.values()
            if len(group) == n_slots and not any(i["error"] for i in group)]


def median_or_none(values):
    return statistics.median(values) if values else None


# -- untraced run: end-to-end metrics -------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, clock: Clock) -> tuple[dict, list[str]]:
    """End-to-end metrics and the lines that explain them."""
    # the worker of an in-process workload measures one more set-up itself
    n_probes = SETUP_SAMPLES[workload] - (workload != "report_all")
    # half the probes before the items and half after, so that the samples
    # span the run instead of one moment of the host's drifting speed
    probes = [setup_probe(workload, seed, clock) for _ in range(n_probes // 2)]
    run = run_items(workload, seed, seconds, clock)
    probes += [setup_probe(workload, seed, clock) for _ in range(n_probes - n_probes // 2)]
    samples = [p["s"] for p in probes if p] + ([run["setup"]] if run["setup"] else [])
    record = run["record"] or next((p["record"] for p in probes if p), {})
    items = run["items"]
    done = [i for i in items if not i["error"]]
    lat = [i["s"] for i in done]
    walls = pass_walls(items, run["slots"])
    metrics = {
        "setup_s": median_or_none(samples),
        "wall_s": median_or_none(walls),
        "latency_p50_s": median_or_none(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    lines = [f"setup_s: median of {len(samples)} set-ups in fresh processes"
             f" {[round(s, 4) for s in samples]}",
             f"wall_s: median of {len(walls)} complete passes of {run['slots']} items"]
    if lat:
        # printed, not in BENCHMARK.json: below 21 items it is one sample of
        # the slowest item, whose spread between runs exceeds any allowed bound
        value, pct, n = tail(lat)
        lines.append(f"{'latency_tail_s':40s} {value:14.6f} s  (p{pct:.2f} of n={n} items"
                     + ("; maximum: fewer than 21 items)" if n < 21 else ")"))
    lines.append("median seconds per slot" + (
        " beside the ROADMAP baseline table" if workload == "report_all" else ""))
    by_slot: dict[str, list[float]] = {}
    for i in done:
        by_slot.setdefault(i["id"].split(".", 1)[1], []).append(i["s"])
    for slot, times in sorted(by_slot.items()):
        line = f"  {slot:28s} {statistics.median(times):9.4f}  n={len(times)}"
        if slot in ROADMAP_BASELINE_S:
            line += f"  baseline {ROADMAP_BASELINE_S[slot]:.2f}"
        lines.append(line)
    return {"metrics": metrics, "items": items, "record": record}, lines


# -- traced run: per-layer metrics ------------------------------------------------------


def read_trace(path: Path) -> tuple[list[dict], dict]:
    spans, counters = [], {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "counters" in rec:
                for key, value in rec["counters"].items():
                    counters[key] = counters.get(key, 0) + value
            else:
                spans.append(rec)
    return spans, counters


def layer_metrics(spans, counters, items, overhead) -> dict:
    """calls and self_s cover the timed items; import.s, the ratios and the
    term counts cover the whole traced run, set-up included."""
    timed = [s for s in spans if s["item"] != "setup" and s["name"] != "item"]
    out = {"import.s": median_or_none(
        [s["end"] - s["start"] for s in spans if s["name"] == "import"]) or 0.0}
    for layer in LAYERS:
        mine = [s for s in timed if s["name"] == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(s["self"] for s in mine)

    def ratio(num, den):
        return num / den if den else 0.0

    out["tensor.christoffels.hit_ratio"] = ratio(
        counters.get("tensor.christoffels.hits", 0),
        sum(1 for s in spans if s["name"] == "tensor.christoffels"))
    out["expr.is_zero.proven_share"] = ratio(
        counters.get("expr.is_zero.proven", 0),
        sum(1 for s in spans if s["name"] == "expr.is_zero"))
    out["expr.compile.hit_ratio"] = ratio(
        counters.get("expr.compile.hits", 0),
        sum(1 for s in spans if s["name"] == "expr.compile"))
    out["projective.geodesic.steps_per_s"] = ratio(
        counters.get("projective.geodesic.steps", 0),
        sum(s["self"] for s in spans if s["name"] == "projective.geodesic"))
    for name in SIZED:
        out[f"{name}.out_terms"] = counters.get(f"{name}.out_terms", 0)
    # covered: direct children of an in-process item root, or the top-level
    # spans of a process that runs one item
    names = {(s["pid"], s["id"]): s["name"] for s in spans}
    covered = sum(s["end"] - s["start"] for s in timed
                  if s["parent"] is None or names[s["pid"], s["parent"]] == "item")
    wall = sum(i["s"] for i in items)
    out["trace.coverage"] = ratio(covered, wall)
    out["trace.overhead_s"] = overhead
    return out


def shares(spans, items) -> dict[str, float]:
    """Self-time share of every layer prefix, of the summed item wall time."""
    wall = sum(i["s"] for i in items) or 1.0
    out: dict[str, float] = {}
    for s in spans:
        if s["item"] == "setup" or s["name"] == "item":
            continue
        parts = s["name"].split(".")
        for n in range(1, len(parts) + 1):
            key = ".".join(parts[:n])
            out[key] = out.get(key, 0.0) + s["self"] / wall
    return out


def check_predictions(workload, spans, items) -> list[str]:
    lines = [f"layer shares vs prediction ({workload}):"]
    for scope, layers, test, bound in PREDICTED[workload]:
        chosen = [i for i in items if not scope or i["id"].split(".", 1)[1] in scope]
        ids = {i["id"] for i in chosen}
        share = shares([s for s in spans if s["item"] in ids], chosen)
        got = {layer: share.get(layer, 0.0) for layer in layers}
        if test == ">=":
            ok = sum(got.values()) >= bound
            claim = f"{' + '.join(layers)} >= {bound:.0%}"
        else:
            ok = all(v < bound for v in got.values())
            claim = f"each of {', '.join(layers)} < {bound:.0%}"
        measured = ", ".join(f"{k} {v:.1%}" for k, v in got.items())
        where = f" on {', '.join(scope)}" if scope else ""
        lines.append(f"  {'match   ' if ok else 'MISMATCH'} predicted {claim}{where}; "
                     f"measured {measured}")
    top = sorted(shares(spans, items).items(), key=lambda kv: -kv[1])
    lines.append("  top-level layer shares: " + ", ".join(
        f"{k} {v:.1%}" for k, v in top if "." not in k))
    return lines


def trace_run(workload: str, seed: int, seconds: float, clock: Clock) -> tuple[dict, list[str]]:
    """An untraced and a traced run over the same passes; the difference of
    their median pass walls is the tracing overhead."""
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    path.unlink(missing_ok=True)
    end_pass = TRACE_PASSES[workload]
    plain = run_items(workload, seed, seconds, clock, end_pass)
    traced = run_items(workload, seed, seconds, clock, end_pass, trace=path)
    spans, counters = read_trace(path)
    timed = [i for i in traced["items"] if not i["error"]]
    walls = [median_or_none(pass_walls(run["items"], run["slots"])) for run in (plain, traced)]
    overhead = walls[1] - walls[0] if None not in walls else None
    metrics = layer_metrics(spans, counters, timed, overhead)
    lines = [f"spans: {len(spans)} written to {path.relative_to(ROOT)}",
             *check_predictions(workload, spans, timed)]
    record = plain["record"] or (setup_probe(workload, seed, clock) or {}).get("record")
    return {"metrics": metrics, "items": plain["items"] + traced["items"],
            "record": record}, lines


# -- entry point ----------------------------------------------------------------------------


def run_record(load_before, libs) -> dict:
    return {
        "python": platform.python_version(), **(libs or {}),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(v, 2) for v in load_before],
        "loadavg_after": [round(v, 2) for v in os.getloadavg()],
        "PYTHONHASHSEED": HASH_SEED,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/asdnull/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not an asdnull checkout, missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    (OUT / "worker-stderr.log").write_text("", encoding="utf-8")
    clock = Clock()
    if args.trace:
        result, lines = trace_run(args.workload, args.seed, args.seconds, clock)
        units = PER_LAYER
    else:
        result, lines = measure(args.workload, args.seed, args.seconds, clock)
        units = END_TO_END
    items = result["items"]
    failures = [i for i in items if i["error"]]
    mismatches = sum(i["mismatches"] for i in items)
    record = run_record(load_before, result["record"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    for line in lines:
        print(line)
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"].get(name)
        if value is None:
            print(f"{name}: not measured (no item completed)")
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"{'verdict_mismatches':40s} {mismatches:14d} count")
    print(f"{'failed_share':40s} {len(failures) / max(1, len(items)):14.6f} share"
          f"  ({len(failures)} of {len(items)} items)")
    for f in failures:
        print(f"failed item {f['id']}: {f['error']}")
    print(json.dumps({"correct": not mismatches and not failures and len(metrics) == len(units),
                      "attempted": len(items), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
