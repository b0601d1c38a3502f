"""Command-line verification tool: loads JSON model files (builder parameters,
raw metrics with optional tetrad/Killing data, or projective structures), runs
the requested checks, and emits a deterministic JSON or text report.

Exit codes: 0 all checks pass, 1 a check failed (witness included in the
report), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import construct, projective, spinor, tensor, twistor
from .expr import (
    Assignment,
    EvalError,
    Expr,
    ExprError,
    ParseError,
    SampleConfig,
    Verdict,
    evaluate,
    is_zero,
    is_zero_all,
    parse,
    to_text,
)

# builder -> (construct function, optional slots, required slots); the function
# takes the optional slots, then the required ones, in this order.  It is looked
# up by name at call time, so a wrapper installed on `construct` (as the traced
# benchmark installs) sees the call.
BUILDER_PARAMS = {
    "nontwisting": ("build_nontwisting", ("A1", "A2", "A3", "beta", "P", "Q"), ()),
    "twisting": ("build_twisting", ("A0", "A1", "A2", "A3"), ("G",)),
    "fefferman": ("build_fefferman_like",
                  ("gamma", "delta", "rho", "sigma", "A0", "A1", "A2", "A3"), ()),
    "ppwave": ("build_ppwave", (), ("Q",)),
    "sparling_tod": ("build_sparling_tod", (), ("H",)),
    "heavenly": ("build_heavenly", (), ("Theta",)),
}

TETRAD_KEYS = ("theta00p", "theta01p", "theta10p", "theta11p")


class InputError(Exception):
    pass


@dataclass
class Model:
    kind: str
    geometry: construct.BuiltGeometry | None = None
    proj: projective.ProjectiveStructure | None = None
    heavenly: construct.HeavenlyData | None = None


def _parse_expr(text, where):
    try:
        return parse(str(text))
    except (ParseError, ExprError) as ex:
        raise InputError(f"{where}: {ex}") from ex


def load_model(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as ex:
        raise InputError(f"file not found: {path}") from ex
    except json.JSONDecodeError as ex:
        raise InputError(f"invalid JSON in {path}: {ex}") from ex
    kind = doc.get("kind")
    if kind == "builder":
        return _load_builder(doc)
    if kind == "metric":
        return _load_metric(doc)
    if kind == "projective":
        return _load_projective(doc)
    raise InputError(f"unknown model kind {kind!r}")


def _load_builder(doc) -> Model:
    name = doc.get("builder")
    if name not in BUILDER_PARAMS:
        raise InputError(f"unknown builder {name!r}")
    builder, optional, required = BUILDER_PARAMS[name]
    raw = doc.get("params", {})
    for key in required:
        if key not in raw:
            raise InputError(f"builder {name!r} requires parameter {key!r}")
    args = [_parse_expr(raw.get(key, "0"), f"params.{key}") for key in optional + required]
    try:
        built = getattr(construct, builder)(*args)
    except ExprError as ex:
        raise InputError(f"builder {name!r}: {ex}") from ex
    if name == "heavenly":  # the one builder that also returns its equation data
        bg, hd = built
        return Model("builder", geometry=bg, proj=bg.proj, heavenly=hd)
    return Model("builder", geometry=built, proj=built.proj)


def _load_metric(doc) -> Model:
    coords = doc.get("coordinates")
    if not coords or len(coords) != 4:
        raise InputError("metric model needs four coordinates")
    chart = tensor.Chart(coords)
    rows = doc.get("g")
    if not rows or len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise InputError("metric model needs a 4x4 component array")
    comps = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            if b < a:
                continue  # upper triangle authoritative
            comps[a][b] = comps[b][a] = _parse_expr(rows[a][b], f"g[{a}][{b}]").sym
    try:
        g = tensor.Metric(chart, comps)
    except ExprError as ex:
        raise InputError(str(ex)) from ex
    tet = None
    if "tetrad" in doc:
        td = doc["tetrad"]
        forms = []
        for key in TETRAD_KEYS:
            if key not in td:
                raise InputError(f"tetrad needs component list {key!r}")
            forms.append(tensor.OneForm(
                chart, [_parse_expr(c, key).sym for c in td[key]]))
        try:
            tet = spinor.NullTetrad(g, forms)
        except ExprError as ex:
            raise InputError(f"tetrad rejected: {ex}") from ex
    K = None
    if "killing" in doc:
        K = tensor.VectorField(
            chart, [_parse_expr(c, "killing").sym for c in doc["killing"]])
    bg = construct.BuiltGeometry(g, tet, K, None, "metric", {}, [])
    return Model("metric", geometry=bg)


def _load_projective(doc) -> Model:
    coords = doc.get("coordinates")
    if not coords or len(coords) != 2:
        raise InputError("projective model needs two coordinates")
    A = doc.get("A")
    if not A or len(A) != 4:
        raise InputError("projective model needs four coefficients A0..A3")
    ps = projective.ProjectiveStructure.build(
        coords, [_parse_expr(a, f"A{i}") for i, a in enumerate(A)])
    return Model("projective", proj=ps)


# -- report assembly ---------------------------------------------------------------


def _witness_json(v: Verdict):
    if v.witness is None:
        return None
    return {k: str(val) for k, val in v.witness.items()}


def check_from_verdict(name: str, v: Verdict, value=None) -> dict:
    out = {"name": name, "verdict": v.kind}
    w = _witness_json(v)
    if w is not None:
        out["witness"] = w
    if v.value is not None:
        out["value"] = v.value
    elif value is not None:
        out["value"] = value
    return out


def check_plain(name: str, ok: bool, value=None) -> dict:
    out = {"name": name, "verdict": "pass" if ok else "fail"}
    if value is not None:
        out["value"] = value
    return out


def _check_ok(c: dict) -> bool:
    if c.get("informational"):
        return True
    return c["verdict"] in ("proven_zero", "sampled_zero", "pass")


# -- subcommand bodies ----------------------------------------------------------------


def _need_tetrad(m: Model):
    if m.geometry is None or m.geometry.tet is None:
        raise InputError("this check needs a tetrad (builder model or explicit tetrad)")
    return m.geometry


def _need_killing(m: Model):
    bg = _need_tetrad(m)
    if bg.K is None:
        raise InputError("this check needs a Killing vector")
    return bg


def cmd_build(m: Model, args, cfg) -> list[dict]:
    if m.kind != "builder":
        raise InputError("build expects a builder model file")
    bg = m.geometry
    doc = {
        "kind": "metric",
        "coordinates": list(bg.g.chart.names),
        "g": [[to_text(bg.g[a, b]) for b in range(4)] for a in range(4)],
        "tetrad": {key: [to_text(Expr(c)) for c in bg.tet.theta[i]]
                   for i, key in enumerate(TETRAD_KEYS)},
    }
    if bg.K is not None:
        doc["killing"] = [to_text(Expr(c)) for c in bg.K.comps]
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return [check_plain("emitted_metric_model", True)]


def cmd_curvature(m: Model, args, cfg) -> list[dict]:
    bg = m.geometry
    if bg is None:
        raise InputError("curvature expects a metric or builder model")
    checks = [check_from_verdict("ricci_flat", tensor.ricci(bg.g).zero_verdict(cfg)),
              check_plain("scalar_curvature", True,
                          to_text(tensor.scalar_curvature(bg.g)))]
    for name, verdict in bg.check_constraints(cfg):
        checks.append(check_from_verdict(f"constraint_{name}", verdict))
    return checks


def cmd_verify_asd(m: Model, args, cfg) -> list[dict]:
    bg = _need_tetrad(m)
    _, primed = spinor.weyl_spinors(bg.g, bg.tet)
    return [check_from_verdict("primed_weyl_spinor", primed.is_zero_verdict(cfg))]


def cmd_verify_killing(m: Model, args, cfg) -> list[dict]:
    bg = m.geometry
    if bg is None or bg.K is None:
        raise InputError("verify-killing needs a geometry with a Killing vector")
    residuals, eta = spinor.conformal_killing_residuals(bg.g, bg.K)
    checks = [check_from_verdict("conformal_killing", is_zero_all(residuals, cfg)),
              check_plain("eta", True, to_text(eta)),
              check_from_verdict("null", is_zero(
                  Expr(sum(bg.g.comps[a][b] * bg.K.comps[a] * bg.K.comps[b]
                           for a in range(4) for b in range(4))), cfg))]
    return checks


def cmd_twist(m: Model, args, cfg) -> list[dict]:
    bg = m.geometry
    if bg is None or bg.K is None:
        raise InputError("twist needs a geometry with a Killing vector")
    tw = tensor.twist_three_form(bg.g, bg.K)
    v = tw.zero_verdict(cfg)
    comps = {f"{a}{b}{c}": to_text(e)
             for (a, b, c), e in tw.independent_components().items()
             if not e.is_proven_zero()}
    return [check_from_verdict("twist_three_form", v, value=comps or "0")]


def _classification_point(m: Model, args) -> Assignment:
    if args.at:
        return Assignment.parse(args.at)
    names = m.geometry.g.chart.names
    return Assignment({n: Fraction(k + 1, 2) for k, n in enumerate(names)})


def cmd_classify(m: Model, args, cfg) -> list[dict]:
    bg = _need_tetrad(m)
    unprimed, _ = spinor.weyl_spinors(bg.g, bg.tet)
    at = _classification_point(m, args)
    try:
        pt = spinor.petrov_classify(unprimed, at)
    except EvalError as ex:
        raise InputError(f"classification point failed: {ex}; pick another --at") from ex
    return [check_plain("petrov_type", True, str(pt))]


def cmd_invariants(m: Model, args, cfg) -> list[dict]:
    bg = _need_tetrad(m)
    unprimed, _ = spinor.weyl_spinors(bg.g, bg.tet)
    I, J = spinor.scalar_invariants(unprimed)
    checks = [check_plain("invariant_I", True, to_text(I)),
              check_plain("invariant_J", True, to_text(J))]
    if args.at:
        at = Assignment.parse(args.at)
        checks.append(check_plain("invariant_I_at", True, _eval_float(I, at)))
        checks.append(check_plain("invariant_J_at", True, _eval_float(J, at)))
    return checks


def _eval_float(e: Expr, at: Assignment) -> float:
    return float(evaluate(e, Assignment({k: float(v) for k, v in at.items()})))


def cmd_lemma21(m: Model, args, cfg) -> list[dict]:
    bg = _need_killing(m)
    report = spinor.check_lemma_identities(bg.g, bg.tet, bg.K, cfg)
    return [check_from_verdict(name, v) for name, v in sorted(report.items())]


def cmd_szekeres(m: Model, args, cfg) -> list[dict]:
    bg = _need_tetrad(m)
    try:
        result = spinor.szekeres_obstruction(bg.g, bg.tet, cfg)
    except ExprError as ex:
        return [check_plain("szekeres_applicable", False, str(ex))]
    stage = "eliminability" if result.gradient_curl is None else "gradient_curl"
    return [check_from_verdict("szekeres_obstruction_absent", result.verdict,
                               value=stage)]


def cmd_laxpair(m: Model, args, cfg) -> list[dict]:
    bg = _need_tetrad(m)
    lp = twistor.lax_pair(bg)
    res = twistor.integrability_check(lp, cfg)
    checks = [check_from_verdict("lax_integrability", res.verdict)]
    if res.coefficients is not None:
        checks.append(check_plain("closure_c0", True, to_text(res.coefficients[0])))
        checks.append(check_plain("closure_c1", True, to_text(res.coefficients[1])))
    return checks


def cmd_lift_check(m: Model, args, cfg) -> list[dict]:
    bg = _need_killing(m)
    kl = twistor.lift_killing(bg, cfg)
    lp = twistor.lax_pair(bg)
    solves = twistor.lift_commutation_check(kl, lp, cfg)
    checks = [check_plain("lifted_killing", True, [to_text(c) for c in kl.comps])]
    for label, s in zip(("L0", "L1"), solves):
        checks.append(check_from_verdict(f"lift_commutes_{label}", s.verdict))
    return checks


def cmd_projective_flatness(m: Model, args, cfg) -> list[dict]:
    if m.proj is None:
        raise InputError("projective-flatness expects a projective model "
                         "or a builder with projective data")
    inv = projective.flatness_invariant(m.proj)
    return [check_from_verdict("flatness_invariant", is_zero(inv, cfg))]


def cmd_projective_geodesic(m: Model, args, cfg) -> list[dict]:
    if m.proj is None:
        raise InputError("projective-geodesic expects projective data")
    init = Assignment.parse(args.init or "x=0,y=0,lam=1")
    names = list(m.proj.chart2) + [projective.FIBRE]
    missing = [n for n in names if n not in init]
    if missing:
        raise InputError(f"--init must assign {names}, missing {missing}")
    path = projective.geodesic_integrate(
        m.proj, [float(init[n]) for n in names], args.step, args.steps)
    return [check_plain("geodesic_completed", path.completed,
                        [[round(c, 12) for c in p] for p in path.points])]


def cmd_heavenly(m: Model, args, cfg) -> list[dict]:
    if m.heavenly is None:
        raise InputError("heavenly expects a heavenly builder model")
    bg = m.geometry
    checks = [check_from_verdict("heavenly_residual",
                                 is_zero(m.heavenly.residual, cfg)),
              check_from_verdict("endomorphism_algebra",
                                 construct.heavenly_endomorphism_check(bg, cfg)),
              check_from_verdict("sigma_pullback_template", is_zero_all(
                  construct.heavenly_sigma_pullback_residuals(bg), cfg))]
    return checks


# descriptive facts about a geometry; they never gate report-all's exit code
_INFORMATIONAL = ("ricci_flat", "twist_three_form", "flatness_invariant",
                  "petrov_type", "invariant_", "closure_c", "eta",
                  "lifted_killing", "szekeres", "null")


def cmd_report_all(m: Model, args, cfg) -> list[dict]:
    checks = []
    if m.kind == "projective":
        checks += cmd_projective_flatness(m, args, cfg)
    else:
        bg = m.geometry
        checks += cmd_curvature(m, args, cfg)
        if bg.tet is not None:
            checks += cmd_verify_asd(m, args, cfg)
            checks += cmd_laxpair(m, args, cfg)
        if bg.K is not None:
            checks += cmd_verify_killing(m, args, cfg)
            checks += cmd_twist(m, args, cfg)
        if bg.tet is not None and bg.K is not None:
            checks += cmd_lemma21(m, args, cfg)
            checks += cmd_lift_check(m, args, cfg)
        if m.proj is not None:
            checks += cmd_projective_flatness(m, args, cfg)
        if m.heavenly is not None:
            checks += cmd_heavenly(m, args, cfg)
    for c in checks:
        if any(c["name"].startswith(prefix) for prefix in _INFORMATIONAL):
            c["informational"] = True
    return sorted(checks, key=lambda c: c["name"])


COMMANDS = {
    "build": cmd_build,
    "curvature": cmd_curvature,
    "verify-asd": cmd_verify_asd,
    "verify-killing": cmd_verify_killing,
    "twist": cmd_twist,
    "classify": cmd_classify,
    "invariants": cmd_invariants,
    "lemma21": cmd_lemma21,
    "szekeres": cmd_szekeres,
    "laxpair": cmd_laxpair,
    "lift-check": cmd_lift_check,
    "projective-flatness": cmd_projective_flatness,
    "projective-geodesic": cmd_projective_geodesic,
    "heavenly": cmd_heavenly,
    "report-all": cmd_report_all,
}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asdnull",
        description="verify anti-self-dual null-Killing geometries and their "
                    "projective-structure reductions")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("--points", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--at", type=str, default=None,
                       help='evaluation point, e.g. "x=1,y=2,z=3,t=0"')
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", type=str, default=None)
        if name == "projective-geodesic":
            p.add_argument("--init", type=str, default=None,
                           help='initial point, e.g. "x=0,y=0,lam=1"')
            p.add_argument("--step", type=float, default=0.01)
            p.add_argument("--steps", type=int, default=100)
    return ap


def run(argv) -> int:
    args = make_parser().parse_args(argv)
    cfg = SampleConfig(count=args.points, seed=args.seed, tolerance=args.tol)
    try:
        model = load_model(args.model)
        checks = COMMANDS[args.command](model, args, cfg)
    except (InputError, ExprError, EvalError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    report = {
        "version": 1,
        "command": [args.command, args.model],
        "seed": args.seed,
        "points": args.points,
        "tolerance": args.tol,
        "checks": checks,
    }
    ok = all(_check_ok(c) for c in checks)
    if args.command == "build":
        return 0 if ok else 1
    text = (json.dumps(report, sort_keys=True, separators=(",", ":"))
            if args.format == "json" else _format_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def _format_text(report) -> str:
    lines = [f"asdnull {' '.join(report['command'])} "
             f"(seed {report['seed']}, points {report['points']}, "
             f"tol {report['tolerance']})"]
    for c in report["checks"]:
        line = f"  {c['name']}: {c['verdict']}"
        if "value" in c:
            line += f"  [{c['value']}]"
        if "witness" in c:
            line += f"  witness {c['witness']}"
        lines.append(line)
    return "\n".join(lines)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
