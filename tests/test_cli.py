"""CLI: model loading, subcommands, exit codes, deterministic reports."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import asdnull
from asdnull import construct
from asdnull.cli import load_model, run
from asdnull.construct import build_fefferman_like, build_ppwave
from asdnull.expr import parse

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def _run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_asd_exit_zero(capsys):
    code, out = _run_capture(
        capsys, ["verify-asd", str(MODELS / "nontwisting_generic.json"),
                 "--points", "50", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["version"] == 1
    assert report["seed"] == 7
    assert report["checks"][0]["name"] == "primed_weyl_spinor"
    assert report["checks"][0]["verdict"] in ("proven_zero", "sampled_zero")


def test_classify_betazero(capsys):
    code, out = _run_capture(
        capsys, ["classify", str(MODELS / "betazero_a2x.json"),
                 "--at", "x=1,y=2,z=3,t=0"])
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["value"].startswith("III")


def test_projective_flatness_flat(capsys):
    code, out = _run_capture(
        capsys, ["projective-flatness", str(MODELS / "flat_projective.json")])
    assert code == 0
    assert json.loads(out)["checks"][0]["verdict"] == "proven_zero"


def test_reports_are_byte_identical(capsys):
    argv = ["laxpair", str(MODELS / "betazero_a2x.json"), "--seed", "3"]
    _, out1 = _run_capture(capsys, argv)
    _, out2 = _run_capture(capsys, argv)
    assert out1 == out2


def test_exit_codes_for_failures_and_errors(capsys, tmp_path):
    code, _ = _run_capture(capsys, ["twist", str(MODELS / "twisting_exp.json")])
    assert code == 1  # twisting family: nonzero twist reported as the verdict
    assert run(["curvature", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "builder", "builder": "nope", "params": {}}')
    assert run(["curvature", str(bad)]) == 2
    malformed = tmp_path / "mal.json"
    malformed.write_text('{"kind": "builder"')
    assert run(["curvature", str(malformed)]) == 2
    badexpr = tmp_path / "badexpr.json"
    badexpr.write_text(json.dumps(
        {"kind": "projective", "coordinates": ["x", "y"],
         "A": ["x +", "0", "0", "0"]}))
    assert run(["projective-flatness", str(badexpr)]) == 2


def test_build_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "metric.json"
    code = run(["build", str(MODELS / "betazero_a2x.json"),
                "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "metric"
    assert "tetrad" in doc and "killing" in doc
    # the emitted metric model is accepted, including its tetrad and K
    code, out = _run_capture(capsys, ["verify-asd", str(out_path)])
    assert code == 0
    code, out = _run_capture(capsys, ["verify-killing", str(out_path)])
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["conformal_killing"]["verdict"] in ("proven_zero", "sampled_zero")
    assert by_name["eta"]["value"] == "0"


def test_metric_model_rejects_bad_tetrad(tmp_path):
    doc = {
        "kind": "metric",
        "coordinates": ["t", "x", "y", "z"],
        "g": [["0", "0", "1", "0"],
              ["0", "0", "0", "-1"],
              ["1", "0", "0", "0"],
              ["0", "-1", "0", "0"]],
        "tetrad": {"theta00p": ["1", "0", "0", "0"],
                   "theta01p": ["0", "1", "0", "0"],
                   "theta10p": ["0", "0", "1", "0"],
                   "theta11p": ["0", "0", "0", "1"]},
    }
    path = tmp_path / "badtet.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-asd", str(path)]) == 2


def test_report_all_informational_checks(capsys):
    code, out = _run_capture(
        capsys, ["report-all", str(MODELS / "betazero_a2x.json")])
    assert code == 0  # descriptive facts do not gate
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["ricci_flat"]["verdict"] == "nonzero"
    assert by_name["ricci_flat"].get("informational") is True
    assert by_name["primed_weyl_spinor"]["verdict"] == "proven_zero"


def test_heavenly_command(capsys):
    code, out = _run_capture(
        capsys, ["heavenly", str(MODELS / "heavenly_ppwave.json")])
    assert code == 0
    report = json.loads(out)
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["heavenly_residual"] == "proven_zero"
    assert verdicts["endomorphism_algebra"] == "proven_zero"
    assert verdicts["sigma_pullback_template"] == "proven_zero"


def test_geodesic_command(capsys):
    code, out = _run_capture(
        capsys, ["projective-geodesic", str(MODELS / "flat_projective.json"),
                 "--init", "x=0,y=0,lam=1", "--step", "0.01", "--steps", "10"])
    assert code == 0
    pts = json.loads(out)["checks"][0]["value"]
    assert len(pts) == 11
    assert abs(pts[-1][0] - 0.1) < 1e-12
    assert abs(pts[-1][1] - 0.1) < 1e-9


def test_invariants_command(capsys):
    code, out = _run_capture(
        capsys, ["invariants", str(MODELS / "twisting_exp.json"),
                 "--at", "x=1,y=1,z=1,t=0"])
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    # I = -9 x^2 y exp(-3(zx - y)) evaluated at the point
    assert abs(by_name["invariant_I_at"]["value"] - (-9.0)) < 1e-9


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "asdnull.cli", "classify",
         str(MODELS / "betazero_a2x.json"), "--at", "x=1,y=2,z=3,t=0",
         "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "III" in proc.stdout


@pytest.mark.parametrize("model", sorted(p.stem for p in MODELS.glob("*.json")))
def test_report_all_matches_recorded_report(model, capsys, monkeypatch):
    """report-all reproduces the recorded report byte for byte."""
    monkeypatch.chdir(ROOT)
    code, out = _run_capture(capsys, ["report-all", f"models/{model}.json"])
    assert code == 0
    assert out == (ROOT / "perfbench" / "reference" / f"{model}.json").read_text()


def test_fefferman_builder_model_uses_slot_order(tmp_path):
    slots = {"gamma": "x", "delta": "y", "rho": "x*y", "sigma": "1/2",
             "A0": "y", "A1": "x", "A2": "x + y", "A3": "y^2"}
    path = tmp_path / "fefferman.json"
    path.write_text(json.dumps({"kind": "builder", "builder": "fefferman",
                                "params": slots}))
    bg = load_model(str(path)).geometry
    direct = build_fefferman_like(*(parse(v) for v in slots.values()))
    assert bg.family == "fefferman"
    assert bg.g.comps == direct.g.comps
    assert bg.tet.theta == direct.tet.theta


def test_twisting_model_requires_g(tmp_path, capsys):
    path = tmp_path / "twisting.json"
    path.write_text(json.dumps({"kind": "builder", "builder": "twisting",
                                "params": {"A0": "x"}}))
    assert run(["curvature", str(path)]) == 2
    assert "requires parameter 'G'" in capsys.readouterr().err


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_layers_resolve():
    """Every function the traced benchmark wraps exists under its name."""
    for layer, targets in _benchmark_tracer().LAYERS.items():
        for module_name, attr in targets:
            module = getattr(asdnull, module_name)
            if isinstance(attr, tuple):
                assert attr[1] in vars(getattr(module, attr[0])), layer
            else:
                assert callable(getattr(module, attr, None)), layer


def test_benchmark_memo_keys_exist():
    """Each cache the traced benchmark reads to tell a hit from a fresh
    computation is filled under the key it reads."""
    tracer = _benchmark_tracer()
    bg = build_ppwave(parse("X^2 + Y^3"))
    args = (bg.g, bg.tet)
    for layer, memo in tracer.SIZED.items():
        if memo is None:
            continue
        pos, cache, key = memo
        module_name, attr = tracer.LAYERS[layer][0]
        getattr(getattr(asdnull, module_name), attr)(*args[:pos + 1])
        assert key in getattr(args[pos], cache), layer


def test_report_all_builds_heavenly_geometry_once(capsys, monkeypatch):
    """The heavenly checks reuse the geometry load_model built."""
    calls = []
    build = construct.build_heavenly

    def counting(theta):
        calls.append(theta)
        return build(theta)

    monkeypatch.setattr(construct, "build_heavenly", counting)
    code, _ = _run_capture(capsys, ["report-all", str(MODELS / "heavenly_ppwave.json")])
    assert code == 0
    assert len(calls) == 1
