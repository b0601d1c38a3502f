"""CLI: model loading, subcommands, exit codes, deterministic reports."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import asdnull
from asdnull import cli, construct, spinor, tensor, twistor
from asdnull.cli import load_model, run
from asdnull.construct import build_fefferman_like, build_ppwave
from asdnull.expr import Field, parse

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def _run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _child(argv):
    """Run `python argv...` from the repository root, importing asdnull from
    src/ as pytest does, installed or not."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT)


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


@pytest.mark.parametrize("name, content, message", [
    ("array.json", "[1]", "model file {path} must be a JSON object, not list"),
    ("params.json", '{"kind": "builder", "builder": "ppwave", "params": ["Q"]}',
     "params must be a JSON object, not list"),
    ("binary.json", b'\xff\xfe{"kind": "builder"}', "{path} is not UTF-8 text"),
    ("directory", None, "cannot read {path}"),
])
def test_malformed_model_file_is_an_input_error(name, content, message, capsys, tmp_path):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert run(["curvature", str(path)]) == 2
    assert message.format(path=path) in capsys.readouterr().err


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


FLAT_METRIC = {
    "kind": "metric",
    "coordinates": ["t", "x", "y", "z"],
    "g": [["0", "0", "1", "0"],
          ["0", "0", "0", "-1"],
          ["1", "0", "0", "0"],
          ["0", "-1", "0", "0"]],
    "tetrad": {"theta00p": ["1", "0", "0", "0"],
               "theta01p": ["0", "0", "0", "1"],
               "theta10p": ["0", "1", "0", "0"],
               "theta11p": ["0", "0", "1", "0"]},
    "killing": ["1", "0", "0", "0"],
}


@pytest.mark.parametrize("patch, message", [
    ({"killing": ["1", "0", "0"]}, "killing must be a list of four expressions, not 3 entries"),
    ({"killing": "1000"}, "killing must be a list of four expressions, not str"),
    ({"tetrad": {**FLAT_METRIC["tetrad"], "theta00p": ["1", "0", "0"]}},
     "tetrad.theta00p must be a list of four expressions, not 3 entries"),
])
def test_metric_model_rejects_malformed_component_lists(patch, message, capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**FLAT_METRIC, **patch}))
    assert run(["report-all", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_flat_metric_model_is_accepted(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(FLAT_METRIC))
    code, out = _run_capture(capsys, ["report-all", str(path)])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["ricci_flat"]["verdict"] == "proven_zero"
    assert checks["scalar_curvature"]["value"] == "0"


@pytest.mark.parametrize("option, value", [("--points", "0"), ("--points", "-3"),
                                           ("--tol", "nan"), ("--tol", "inf")])
def test_sampling_options_that_would_pass_anything_are_rejected(option, value, capsys,
                                                                tmp_path):
    """No sample points, or a tolerance that is not a finite non-negative
    number, would report a nonzero Ricci tensor as sampled_zero: an input
    error that names the option."""
    g = [row[:] for row in FLAT_METRIC["g"]]
    g[3][3] = "x^2*t"
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "metric", "coordinates": FLAT_METRIC["coordinates"],
                                "g": g}))
    code, out = _run_capture(capsys, ["curvature", str(path)])
    assert code == 1
    assert {c["name"]: c for c in json.loads(out)["checks"]}["ricci_flat"]["verdict"] == "nonzero"
    assert run(["curvature", str(path), option, value]) == 2
    captured = capsys.readouterr()
    assert not captured.out and f"error: {option}: " in captured.err


def test_curvature_of_a_small_nonzero_ricci_tensor_exits_1(capsys, tmp_path):
    """g_zz = x^2 t / 10^12 has an exact nonzero Ricci component far below the
    sampling tolerance: a kernel-free element decides its own zero test, so
    ricci_flat is nonzero with a witness and curvature exits 1."""
    g = [row[:] for row in FLAT_METRIC["g"]]
    g[3][3] = "x^2*t/10^12"
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "metric", "coordinates": FLAT_METRIC["coordinates"],
                                "g": g}))
    code, out = _run_capture(capsys, ["curvature", str(path)])
    assert code == 1
    ricci = {c["name"]: c for c in json.loads(out)["checks"]}["ricci_flat"]
    assert ricci["verdict"] == "nonzero" and ricci["witness"] == {"x": "25/27"}
    assert ricci["value"] == float(-Fraction(25, 27) / 10**12)


def test_curvature_past_the_double_range_is_valid_json(capsys, tmp_path):
    """g_zz = x^2 t 10^400 has a nonzero Ricci component whose value at the
    witness is past the double range: the report writes it as the string
    "-inf", not the bare token -Infinity, which JSON (RFC 8259) lacks."""
    g = [row[:] for row in FLAT_METRIC["g"]]
    g[3][3] = "x^2*t*10^400"
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "metric", "coordinates": FLAT_METRIC["coordinates"],
                                "g": g}))
    code, out = _run_capture(capsys, ["curvature", str(path)])
    assert code == 1

    def no_constant(token):
        raise ValueError(f"not JSON: {token}")

    ricci = {c["name"]: c for c in json.loads(out, parse_constant=no_constant)["checks"]}
    assert ricci["ricci_flat"]["verdict"] == "nonzero"
    assert ricci["ricci_flat"]["value"] == "-inf"


def test_curvature_of_a_tetrad_that_reconstructs_only_at_samples(capsys, tmp_path):
    """theta theta has 1 - sin(t + y)^2 where g has cos(t + y)^2: the Ricci
    tensor and the scalar curvature are g's, as without a tetrad."""
    g = [[f"cos(t + y)^2*({c})" for c in row] for row in FLAT_METRIC["g"]]
    tetrad = {**FLAT_METRIC["tetrad"], "theta00p": ["1 - sin(t + y)^2", "0", "0", "0"],
              "theta01p": ["0", "0", "0", "cos(t + y)^2"]}
    outs = []
    for doc in ({**FLAT_METRIC, "g": g, "tetrad": tetrad},
                {"kind": "metric", "coordinates": FLAT_METRIC["coordinates"], "g": g}):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out = _run_capture(capsys, ["curvature", str(path)])
        assert code == 1  # not Ricci-flat
        outs.append({c["name"]: c for c in json.loads(out)["checks"]})
    with_tetrad, without = outs
    assert with_tetrad == without
    assert with_tetrad["ricci_flat"]["verdict"] == "nonzero"
    assert "sin" not in with_tetrad["scalar_curvature"]["value"] != "0"


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


@pytest.mark.parametrize("option, value", [("--steps", "-3"), ("--step", "nan"),
                                           ("--step", "inf"), ("--step=-inf", None)])
def test_geodesic_steps_that_integrate_nothing_are_rejected(option, value, capsys):
    """A negative step count would report a one-point path as completed, and a
    step size that is not finite a failed path: input errors naming the option."""
    args = [option] if value is None else [option, value]
    assert run(["projective-geodesic", str(MODELS / "flat_projective.json"), *args]) == 2
    captured = capsys.readouterr()
    assert not captured.out and f"error: {option.split('=')[0]}: " in captured.err


def test_invariants_command(capsys):
    code, out = _run_capture(
        capsys, ["invariants", str(MODELS / "twisting_exp.json"),
                 "--at", "x=1,y=1,z=1,t=0"])
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    # I = -9 x^2 y exp(-3(zx - y)) evaluated at the point
    assert abs(by_name["invariant_I_at"]["value"] - (-9.0)) < 1e-9


def test_invariants_overflow_names_the_overflow(capsys):
    """An invariant past the double range at a float point is an input error
    that says the evaluation overflowed, not the raw OverflowError arguments."""
    code = run(["invariants", str(MODELS / "twisting_exp.json"),
                "--at", "t=0,x=1e200,y=1,z=0"])
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    assert "error: evaluation overflowed" in captured.err
    assert "(34," not in captured.err


def test_console_entry_point():
    proc = _child(["-m", "asdnull.cli", "classify", str(MODELS / "betazero_a2x.json"),
                   "--at", "x=1,y=2,z=3,t=0", "--format", "text"])
    assert proc.returncode == 0
    assert "III" in proc.stdout


def test_import_does_not_load_numpy():
    """numpy is loaded only by the float fallbacks, never by import."""
    proc = _child(["-c", "import sys, asdnull.cli; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_report_all_needs_no_numpy():
    """With numpy blocked, every report-all still reproduces its recorded
    report: no model reaches a float fallback."""
    models = sorted(p.stem for p in MODELS.glob("*.json"))
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from asdnull import cli\n"
              "codes = [cli.run(['report-all', f'models/{m}.json']) for m in sys.argv[1:]]\n"
              "sys.exit(max(codes))\n")
    proc = _child(["-c", script, *models])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(
        (ROOT / "perfbench" / "reference" / f"{m}.json").read_text() for m in models)


@pytest.mark.parametrize("model", sorted(p.stem for p in MODELS.glob("*.json")))
def test_report_all_matches_recorded_report(model, capsys, monkeypatch):
    """report-all reproduces the recorded report byte for byte."""
    monkeypatch.chdir(ROOT)
    code, out = _run_capture(capsys, ["report-all", f"models/{model}.json"])
    assert code == 0
    assert out == (ROOT / "perfbench" / "reference" / f"{model}.json").read_text()


# `asdnull build`'s metric model of each builder model, and the same with its
# tetrad dropped, so that curvature takes the metric's holonomic coframe; their
# curvature and report-all, recorded before the coordinate chain became the
# holonomic case of the frame routine: "command path" -> [exit code, stdout]
RAW_METRICS = ROOT / "tests" / "raw_metrics"
RAW_METRIC_GOLDENS = json.loads((ROOT / "tests" / "raw_metric_goldens.json").read_text())
BUILDER_MODELS = sorted(p.stem for p in RAW_METRICS.glob("*.json")
                        if not p.stem.endswith("_no_tetrad"))


@pytest.mark.parametrize("command", ["curvature", "report-all"])
@pytest.mark.parametrize("model", sorted(p.stem for p in RAW_METRICS.glob("*.json")))
def test_raw_metric_matches_recorded_report(command, model, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    path = f"tests/raw_metrics/{model}.json"
    code = run([command, path])
    assert [code, capsys.readouterr().out] == RAW_METRIC_GOLDENS[f"{command} {path}"]


# a twisting member with rational coefficients and denominators beyond the
# gens (1 + x y, 1 + y^2), which no sample model has: its report-all and
# curvature, recorded before the field skipped trial divisions that cannot
# succeed, pin those screens on a base entry that is not a gen
DENOMINATOR_MODELS = ROOT / "tests" / "denominator_models"
DENOMINATOR_GOLDENS = json.loads((ROOT / "tests" / "denominator_model_goldens.json").read_text())


@pytest.mark.parametrize("command", ["curvature", "report-all"])
@pytest.mark.parametrize("model", sorted(p.stem for p in DENOMINATOR_MODELS.glob("*.json")))
def test_denominator_model_matches_recorded_report(command, model, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    path = f"tests/denominator_models/{model}.json"
    code = run([command, path])
    assert [code, capsys.readouterr().out] == DENOMINATOR_GOLDENS[f"{command} {path}"]


@pytest.mark.parametrize("model", BUILDER_MODELS)
def test_raw_metrics_are_the_built_models(model, capsys, tmp_path):
    """Each raw metric model is what `build` emits for the builder model of
    its name, and its `_no_tetrad` twin the same without the tetrad; the
    builder model's curvature checks are theirs, plus its constraints."""
    out = tmp_path / "built.json"
    assert run(["build", str(MODELS / f"{model}.json"), "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    assert built == json.loads((RAW_METRICS / f"{model}.json").read_text())
    del built["tetrad"]
    assert built == json.loads((RAW_METRICS / f"{model}_no_tetrad.json").read_text())
    run(["curvature", str(MODELS / f"{model}.json")])
    checks = [c for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["name"].startswith("constraint_")]
    for name in (model, f"{model}_no_tetrad"):
        want = json.loads(RAW_METRIC_GOLDENS[f"curvature tests/raw_metrics/{name}.json"][1])
        assert checks == want["checks"], name


# szekeres, invariants and twist on each model, recorded before these stages
# moved into the metric's field, classify at its default point, recorded
# before exact evaluation read the field's elements (report-all runs none of
# szekeres, invariants and classify), and projective-flatness, recorded while
# the invariant was still the spray formula on trees: (exit code, the report's
# "checks" array or the error line)
SUBCOMMAND_OUTPUTS = {
    ("projective-flatness", "betazero_a2x"): (1,
        '[{"name":"flatness_invariant","value":-3.8800705467372136,"verdict":"nonzero",'
        '"witness":{"lam":"25/27","x":"22/21"}}]'),
    ("projective-flatness", "flat_projective"): (0,
        '[{"name":"flatness_invariant","verdict":"proven_zero"}]'),
    ("projective-flatness", "heavenly_ppwave"): (2,
        'error: projective-flatness expects a projective model or a builder with '
        'projective data'),
    ("projective-flatness", "nontwisting_generic"): (1,
        '[{"name":"flatness_invariant","value":-32.48279259034639,"verdict":"nonzero",'
        '"witness":{"lam":"25/27","x":"22/21","y":"39/62"}}]'),
    ("projective-flatness", "ppwave"): (2,
        'error: projective-flatness expects a projective model or a builder with '
        'projective data'),
    ("projective-flatness", "sparling_tod"): (2,
        'error: projective-flatness expects a projective model or a builder with '
        'projective data'),
    ("projective-flatness", "twisting_exp"): (0,
        '[{"name":"flatness_invariant","verdict":"proven_zero"}]'),
    ("classify", "betazero_a2x"): (0,
        '[{"name":"petrov_type","value":"III (real roots [3,1], complex pairs [-])",'
        '"verdict":"pass"}]'),
    ("classify", "flat_projective"): (2,
        'error: this check needs a tetrad (builder model or explicit tetrad)'),
    ("classify", "heavenly_ppwave"): (0,
        '[{"name":"petrov_type","value":"O","verdict":"pass"}]'),
    ("classify", "nontwisting_generic"): (0,
        '[{"name":"petrov_type","value":"III (real roots [3,1], complex pairs [-])",'
        '"verdict":"pass"}]'),
    ("classify", "ppwave"): (0,
        '[{"name":"petrov_type","value":"N (real roots [4], complex pairs [-])",'
        '"verdict":"pass"}]'),
    ("classify", "sparling_tod"): (0,
        '[{"name":"petrov_type","value":"N (real roots [4], complex pairs [-])",'
        '"verdict":"pass"}]'),
    ("classify", "twisting_exp"): (0,
        '[{"name":"petrov_type","value":"I (real roots [1,1], complex pairs [1])",'
        '"verdict":"pass"}]'),
    ("szekeres", "betazero_a2x"): (1,
        '[{"name":"szekeres_obstruction_absent","value":-2.5,"verdict":"nonzero",'
        '"witness":{}}]'),
    ("invariants", "betazero_a2x"): (0,
        '[{"name":"invariant_I","value":"0","verdict":"pass"},{"name":"invariant_J",'
        '"value":"0","verdict":"pass"}]'),
    ("twist", "betazero_a2x"): (0,
        '[{"name":"twist_three_form","value":"0","verdict":"proven_zero"}]'),
    ("szekeres", "flat_projective"): (2,
        'error: this check needs a tetrad (builder model or explicit tetrad)'),
    ("invariants", "flat_projective"): (2,
        'error: this check needs a tetrad (builder model or explicit tetrad)'),
    ("twist", "flat_projective"): (2, 'error: twist needs a geometry with a Killing vector'),
    ("szekeres", "heavenly_ppwave"): (1,
        '[{"name":"szekeres_applicable",'
        '"value":"obstruction inapplicable: type is O at all sample points",'
        '"verdict":"fail"}]'),
    ("invariants", "heavenly_ppwave"): (0,
        '[{"name":"invariant_I","value":"0","verdict":"pass"},{"name":"invariant_J",'
        '"value":"0","verdict":"pass"}]'),
    ("twist", "heavenly_ppwave"): (2, 'error: twist needs a geometry with a Killing vector'),
    ("szekeres", "nontwisting_generic"): (1,
        '[{"name":"szekeres_obstruction_absent","value":-6.23686974075477,'
        '"verdict":"nonzero","witness":{"x":"25/27","y":"22/21"}}]'),
    ("invariants", "nontwisting_generic"): (0,
        '[{"name":"invariant_I","value":"0","verdict":"pass"},{"name":"invariant_J",'
        '"value":"0","verdict":"pass"}]'),
    ("twist", "nontwisting_generic"): (0,
        '[{"name":"twist_three_form","value":"0","verdict":"proven_zero"}]'),
    ("szekeres", "ppwave"): (1,
        '[{"name":"szekeres_applicable",'
        '"value":"obstruction inapplicable: type is N at all sample points",'
        '"verdict":"fail"}]'),
    ("invariants", "ppwave"): (0,
        '[{"name":"invariant_I","value":"0","verdict":"pass"},{"name":"invariant_J",'
        '"value":"0","verdict":"pass"}]'),
    ("twist", "ppwave"): (0, '[{"name":"twist_three_form","value":"0","verdict":"proven_zero"}]'),
    ("szekeres", "sparling_tod"): (1,
        '[{"name":"szekeres_applicable",'
        '"value":"obstruction inapplicable: type is N at all sample points",'
        '"verdict":"fail"}]'),
    ("invariants", "sparling_tod"): (0,
        '[{"name":"invariant_I","value":"0","verdict":"pass"},{"name":"invariant_J",'
        '"value":"0","verdict":"pass"}]'),
    ("twist", "sparling_tod"): (0,
        '[{"name":"twist_three_form","value":"0","verdict":"proven_zero"}]'),
    ("szekeres", "twisting_exp"): (1,
        '[{"name":"szekeres_obstruction_absent","value":-24.943448438034185,'
        '"verdict":"nonzero","witness":{"x":"25/27","y":"22/21","z":"39/62"}}]'),
    ("invariants", "twisting_exp"): (0,
        '[{"name":"invariant_I","value":"-9*y*x^2*exp(3*y)*exp(-3*x*z)",'
        '"verdict":"pass"},{"name":"invariant_J",'
        '"value":"1/4*(9*z*x^3*exp(4*y) + 36*y*x^2*exp(4*y))*exp(-4*x*z)",'
        '"verdict":"pass"}]'),
    ("twist", "twisting_exp"): (1,
        '[{"name":"twist_three_form","value":-1.0,"verdict":"nonzero","witness":{}}]'),
}


@pytest.mark.parametrize("command", ["classify", "szekeres", "invariants", "twist",
                                     "projective-flatness"])
@pytest.mark.parametrize("model", sorted(p.stem for p in MODELS.glob("*.json")))
def test_subcommand_matches_recorded_output(command, model, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = run([command, f"models/{model}.json"])
    out, err = capsys.readouterr()
    want_code, want = SUBCOMMAND_OUTPUTS[(command, model)]
    if want_code == 2:
        assert (code, out, err) == (2, "", want + "\n")
    else:
        report = (f'{{"checks":{want},"command":["{command}","models/{model}.json"],'
                  '"points":50,"seed":0,"tolerance":1e-10,"version":1}\n')
        assert (code, out, err) == (want_code, report, "")


def test_model_quartics_need_no_square_free_decomposition(capsys, monkeypatch):
    """Every exact Petrov quartic of the sample models' classify, szekeres and
    report-all is x^k a(x - r)^d once its root at infinity is dropped: its
    structure is read off the coefficients, and no dup_sqf_list runs."""
    from asdnull import quartic

    calls = []
    sqf = quartic.dup_sqf_list
    monkeypatch.setattr(quartic, "dup_sqf_list", lambda *a: calls.append(a) or sqf(*a))
    monkeypatch.chdir(ROOT)
    for model in sorted(p.stem for p in MODELS.glob("*.json")):
        for command in ("classify", "szekeres", "report-all"):
            run([command, f"models/{model}.json"])
            capsys.readouterr()
    assert calls == []
    quartic.quartic_root_structure([2, -3, 3, -3, 1])  # (x^2 + 1)(x - 1)(x - 2)
    assert len(calls) == 1


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
    """Every (module, attribute) the traced benchmark wraps resolves in
    asdnull as `Tracer.install` resolves it: a function of the module, or a
    function or property in a class's own namespace.  A rename would
    otherwise break only the traced benchmark run."""
    missing = []
    for layer, targets in _benchmark_tracer().LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(f"asdnull.{module_name}")
            if isinstance(attr, tuple):
                found = vars(getattr(module, attr[0], object)).get(attr[1])
                ok = isinstance(found, property) or inspect.isfunction(found)
            else:
                ok = inspect.isfunction(getattr(module, attr, None))
            if not ok:
                missing.append((layer, module_name, attr))
    assert not missing


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


def test_report_all_computes_killing_data_once(capsys, monkeypatch):
    """One report-all converts K into the metric's field once and computes
    nabla K once, however many checks read them."""
    computed, converted = [], []
    memo, convert, load = tensor._memo, Field.convert, cli.load_model

    def counting_memo(cache, key, F, fn):
        def counted():
            computed.append(key)
            return fn()
        return memo(cache, key, F, counted)

    def counting_convert(self, s):
        converted.append(s)
        return convert(self, s)

    def loading(path):
        model = load(path)
        # the metric and the tetrad have entered the field; count from here
        monkeypatch.setattr(Field, "convert", counting_convert)
        return model

    for module in (tensor, spinor, twistor):  # every binding of the memo helper
        monkeypatch.setattr(module, "_memo", counting_memo)
    monkeypatch.setattr(cli, "load_model", loading)
    code, _ = _run_capture(capsys, ["report-all", str(MODELS / "nontwisting_generic.json")])
    assert code == 0
    # every memo keyed on K computes once, nabla K among them
    assert [key[0] for key in computed if isinstance(key, tuple)] == [
        "vector_el", "nabla_vector", "conformal_killing", "conformal_killing_verdict",
        "killing_spinors"]
    assert len(converted) == 4  # K's components, once


def test_report_all_tests_killing_data_once(capsys, monkeypatch):
    """verify-killing and the Killing spinors share one list of conformal
    Killing residuals; the lemma identities and the lift share the Killing
    spinors, so the spinor side zero-tests the residuals once and projects
    nabla K onto the frame once."""
    built, tested, projected = [], [], []
    conformal, zero_all, frame = (spinor._conformal_killing, spinor.is_zero_all,
                                  spinor._frame_rank2)

    def counting_conformal(g, K):
        out = conformal(g, K)
        built.append(out[0])
        return out

    def counting_zero_all(exprs, cfg):
        tested.append(exprs)
        return zero_all(exprs, cfg)

    def counting_frame(tet, comps):
        projected.append(comps)
        return frame(tet, comps)

    monkeypatch.setattr(spinor, "_conformal_killing", counting_conformal)
    monkeypatch.setattr(spinor, "is_zero_all", counting_zero_all)
    monkeypatch.setattr(spinor, "_frame_rank2", counting_frame)
    code, _ = _run_capture(capsys, ["report-all", str(MODELS / "nontwisting_generic.json")])
    assert code == 0
    assert len(built) == 2 and built[1] is built[0]
    assert sum(exprs is built[0] for exprs in tested) == 1
    assert len(projected) == 1


def test_report_all_zero_tests_conformal_killing_once(capsys, monkeypatch):
    """verify-killing and the Killing spinors read one memoized verdict, so
    the conformal Killing residuals reach is_zero_all once per report."""
    built, tested = [], []
    conformal, zero_all = spinor._conformal_killing, spinor.is_zero_all

    def counting_conformal(g, K):
        out = conformal(g, K)
        built.append(out[0])
        return out

    def counting_zero_all(exprs, cfg):
        tested.append(exprs)
        return zero_all(exprs, cfg)

    monkeypatch.setattr(spinor, "_conformal_killing", counting_conformal)
    monkeypatch.setattr(spinor, "is_zero_all", counting_zero_all)
    monkeypatch.setattr(cli, "is_zero_all", counting_zero_all)
    code, _ = _run_capture(capsys, ["report-all", str(MODELS / "nontwisting_generic.json")])
    assert code == 0
    assert built and all(res is built[0] for res in built)
    assert sum(exprs is built[0] for exprs in tested) == 1


def _count_calls(monkeypatch, module, name, modules):
    """Count the calls of module.name through every binding in `modules`."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for m in modules:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counting)
    return calls


@pytest.mark.parametrize("model", ["ppwave", "sparling_tod", "heavenly_ppwave"])
def test_report_all_needs_no_coordinate_riemann(model, capsys, monkeypatch):
    """With a tetrad, Ricci-flatness, the scalar curvature and the curvature
    spinors come from the tetrad's coframe, not from the holonomic one that
    every coordinate curvature stage reads (`tensor._curvature`)."""
    calls = [_count_calls(monkeypatch, tensor, name, (tensor, spinor, construct, cli))
             for name in ("riemann", "_curvature")]
    code, _ = _run_capture(capsys, ["report-all", str(MODELS / f"{model}.json")])
    assert code == 0
    assert calls == [[], []]


def test_lax_pair_needs_no_christoffels(monkeypatch):
    """A twisting member's ASD check, Lax pair and its integrability read the
    frame connection; no Christoffel symbol is computed."""
    from asdnull import twistor

    calls = _count_calls(monkeypatch, tensor, "christoffels",
                         (tensor, spinor, construct, twistor))
    bg = construct.build_twisting(parse("y"), parse("x"), parse("y^2"), parse("x*y"),
                                  parse("z^2/2 + z*x + y"))
    _, primed = spinor.weyl_spinors(bg.g, bg.tet)
    assert primed.is_zero_verdict().kind == "proven_zero"
    assert twistor.integrability_check(twistor.lax_pair(bg)).verdict.is_zero()
    assert calls == []
