"""Tests of the benchmark itself: its oracles count wrong answers (negative
controls), its statistics, its tracer, its time limit, and its refusal to run
without the program.  From the root of a checkout:

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

They take a few seconds; the file name keeps the repository's own test
run from collecting them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import expected  # noqa: E402
import run  # noqa: E402


def _reference(model: str) -> bytes:
    return (HERE / "reference" / f"{model}.json").read_bytes()


# -- oracles ---------------------------------------------------------------------------


def test_recorded_reports_match_expected_verdicts():
    for model in run.MODELS:
        ref = _reference(model)
        assert expected.report_mismatches(model, 0, ref, ref) == 0, model


def test_wrong_expected_verdict_is_counted():
    ref = _reference("ppwave")
    wrong = {**expected.EXPECTED_VERDICTS,
             "ppwave": {**expected.EXPECTED_VERDICTS["ppwave"], "ricci_flat": "nonzero"}}
    assert expected.report_mismatches("ppwave", 0, ref, ref, wrong) == 1


def test_changed_report_exit_code_and_missing_check_are_counted():
    ref = _reference("ppwave")
    doc = json.loads(ref)
    doc["checks"] = [c for c in doc["checks"] if c["name"] != "primed_weyl_spinor"]
    changed = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    # byte difference + missing check + wrong exit code
    assert expected.report_mismatches("ppwave", 1, changed, ref) == 3
    assert expected.report_mismatches("ppwave", 0, b"not json", ref) == 1 + len(
        expected.EXPECTED_VERDICTS["ppwave"])


def test_family_oracle_counts_nonzero_verdicts():
    from asdnull.expr import Assignment, Verdict

    import workloads

    ok = [Verdict.proven(), Verdict.sampled()]
    assert workloads.check_family_verdicts(ok) == 0
    bad = ok + [Verdict.nonzero(Assignment({"x": 1}), 0.5)]
    assert workloads.check_family_verdicts(bad) == 1


def test_point_query_oracles_count_wrong_answers():
    import workloads

    pq = workloads.PointQueries.__new__(workloads.PointQueries)  # skip set-up
    pq.seed = 0
    pq.identities = [workloads.parse(t) for t in workloads.KERNEL_IDENTITIES]
    pq.flat = workloads.ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
    rng = workloads._rng(0, 0, 0)
    run_zero, check_zero = pq._zero_test("sampled", rng)
    assert check_zero(run_zero()) == 0 and check_zero("nonzero") == 1
    run_pert, check_pert = pq._zero_test("perturbed", rng)
    assert check_pert(run_pert()) == 0 and check_pert("sampled_zero") == 1
    run_flat, check_flat = pq._flatness("linear", rng)
    assert check_flat(run_flat()) == 0 and check_flat("nonzero") == 1
    run_geo, check_geo = pq._geodesic("straight", rng)
    path = run_geo()
    assert check_geo(path) == 0
    path.points[7] = (path.points[7][0], path.points[7][1] + 1e-6, path.points[7][2])
    assert check_geo(path) == 1


def test_invariant_closed_form_matches_a_hand_value():
    import workloads

    # at x = 1, y = 1, z = 1: zx - y = 0, B_yy = 6, so I = -9 (see test_cli)
    i_val, _ = workloads._invariants_closed_form(1.0, 1.0, 1.0)
    assert abs(i_val + 9.0) < 1e-12


# -- statistics --------------------------------------------------------------------------


def test_tail_is_highest_order_statistic_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(v) for v in range(20)]) == (19.0, 100.0, 20)


def test_pass_walls_keep_only_complete_passes_without_failures():
    items = [{"id": "p0.a", "s": 1.0, "error": None}, {"id": "p0.b", "s": 2.0, "error": None},
             {"id": "p1.a", "s": 1.0, "error": None}, {"id": "p1.b", "s": 9.0, "error": "x"},
             {"id": "p2.a", "s": 1.5, "error": None}]
    assert run.pass_walls(items, 2) == [3.0]


def test_benchmark_json_names_every_metric_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# -- tracer --------------------------------------------------------------------------------


def test_tracer_patches_every_binding_and_counts_repeat():
    code = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
import asdnull.cli
from asdnull import construct, spinor, tensor, twistor
from asdnull.expr import parse
t = Tracer()
t.install()
assert spinor.christoffels is tensor.christoffels
assert twistor.spin_coefficients is spinor.spin_coefficients
assert asdnull.cli.COMMANDS["report-all"] is asdnull.cli.cmd_report_all
bg = construct.build_ppwave(parse("X^2 + Y^3"))
twistor.lax_pair(bg)
t.count_outputs()
print(json.dumps(dict(t.counters)))
print(json.dumps(sorted({r["name"] for r in t.records()})))
"""
    outs = [subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    counters = json.loads(outs[0].splitlines()[0])
    names = set(json.loads(outs[0].splitlines()[1]))
    assert counters["twistor.lax_pair.out_terms"] > 0
    assert counters["tensor.christoffels.out_terms"] > 0
    assert {"construct.build", "spinor.tetrad", "spinor.spin_coefficients",
            "tensor.christoffels", "twistor.lax_pair"} <= names


# -- time limit and missing program -----------------------------------------------------------


def test_item_past_the_limit_is_killed_and_named():
    saved = run.ITEM_LIMIT_S
    run.ITEM_LIMIT_S = 1.0  # the first random_families member takes seconds
    try:
        result = run.run_worker_items("random_families", 0, 0.1, run.Clock())
    finally:
        run.ITEM_LIMIT_S = saved
    failed = [i for i in result["items"] if i["error"]]
    assert failed and failed[0]["id"] == "p0.nontwisting_d1"
    assert "timed out" in failed[0]["error"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "report_all", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
