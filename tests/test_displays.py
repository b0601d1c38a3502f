"""Displays on first read: an Expr made by a metric's field holds its element
and makes its tree, the element's view, only when something reads it; an Expr
holding the zero element is proven zero without a tree."""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import sympy as sp

from asdnull import cli as cli_module
from asdnull import construct as construct_module
from asdnull import expr as expr_module
from asdnull import spinor as spinor_module
from asdnull import twistor as twistor_module
from asdnull.cli import load_model, run
from asdnull.construct import build_sparling_tod, build_twisting
from asdnull.expr import Expr, Field, SampleConfig, is_zero, parse, to_text
from asdnull.spinor import (
    _spin_coefficients,
    conformal_killing_residuals,
    conformal_killing_verdict,
    curvature_spinors,
    spin_coefficients,
    weyl_spinors,
)
from asdnull.twistor import (
    integrability_check,
    lax_pair,
    lift_commutation_check,
    lift_killing,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
CFG = SampleConfig(count=5, seed=3)


def _family_item(bg, cfg: SampleConfig) -> list:
    """The verdicts a random_families item computes once its member is built
    (perfbench/workloads.py, `RandomFamilies.run`)."""
    _, primed = weyl_spinors(bg.g, bg.tet)
    verdicts = [primed.is_zero_verdict(cfg)]
    lp = lax_pair(bg)
    verdicts.append(integrability_check(lp, cfg).verdict)
    verdicts += [s.verdict for s in lift_commutation_check(lift_killing(bg, cfg), lp, cfg)]
    return verdicts


def test_kernel_free_elements_decide_their_zero_tests(capsys, monkeypatch):
    """Every zero test of a kernel-free element (its used gens all symbols) in
    the 7 reports and in seeded family members reads nonzero exactly when
    the element is nonzero: its form is canonical."""
    seen, zero_test = [], expr_module.is_zero

    def recorded(e, *args, **kwargs):
        verdict = zero_test(e, *args, **kwargs)
        seen.append((e, verdict))
        return verdict

    for m in (expr_module, spinor_module, construct_module, twistor_module, cli_module):
        if getattr(m, "is_zero", None) is zero_test:
            monkeypatch.setattr(m, "is_zero", recorded)
    for path in sorted(MODELS.glob("*.json")):
        run(["report-all", str(path)])
    capsys.readouterr()
    rng, (x, y, z) = random.Random(5), sp.symbols("x y z")
    for _ in range(2):
        c = [sp.Rational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(4)]
        _family_item(build_twisting(0, Expr(c[0] * x), Expr(c[1] * y), 0,
                                    Expr(z**2 / 2 + c[2] * z * x + c[3] * y)), CFG)
        _family_item(build_sparling_tod(Expr(c[0])), CFG)
    kinds = Counter()
    for e, verdict in seen:
        el = getattr(e, "el", None)
        if el is None or not all(el.field.symbols[i].is_Symbol for i in el.field.used(el)):
            continue
        assert (verdict.kind == "nonzero") == bool(el), (verdict, to_text(e))
        kinds[verdict.kind] += 1
    assert kinds["nonzero"] >= 15 and kinds["proven_zero"] >= 500, kinds


def test_family_members_make_only_the_trees_zero_tests_read(monkeypatch):
    """A twisting and a Sparling-Tod member, built and checked as a
    random_families item is, make a tree (`_El.as_expr`) only inside
    `is_zero` and only for a nonzero element: the zero tests that sample it.
    Every other display (g, theta, the Weyl spinors, the spin coefficients,
    the Lax pair, the lift, the zero residuals) waits for a reader."""
    made = []
    view, zero_test = expr_module._El.as_expr, expr_module.is_zero.__code__
    here = expr_module.__file__

    def recorded(el):
        frame, caller = sys._getframe(1), None
        while frame is not None and frame.f_code is not zero_test:
            if caller is None and frame.f_code.co_filename != here:
                caller = frame.f_code.co_name
            frame = frame.f_back
        made.append((frame is not None and bool(el), caller))
        return view(el)

    monkeypatch.setattr(expr_module._El, "as_expr", recorded)
    members = [
        (build_twisting, [0, parse("-2/3*x"), parse("3/4*y"), 0,
                          parse("z^2/2 - 1/2*z*x + 3*y")]),
        (build_sparling_tod, [parse("-3/2")]),
    ]
    cfg = SampleConfig(count=50, seed=1)
    for build, args in members:
        made.clear()
        assert all(v.is_zero() for v in _family_item(build(*args), cfg)), build.__name__
        unread = Counter(caller for read, caller in made if not read)
        assert not unread, (build.__name__, sum(unread.values()), unread.most_common(3))
        assert made, build.__name__  # the span solves sample their nonzero minors


def _geometries(corpus) -> list:
    out = list(corpus.items())
    for path in sorted(MODELS.glob("*.json")):
        m = load_model(str(path))
        if m.geometry is not None and m.geometry.tet is not None:
            out.append((path.stem, m.geometry))
    return out


def _lazy_results(bg):
    """(label, Expr) for every result of a geometry that holds its element."""
    g, tet, K = bg.g, bg.tet, bg.K
    cu, cp, phi, lam = curvature_spinors(g, tet)
    yield from (("psi", e) for e in (*cu.psi, *cp.psi))
    yield from (("phi", e) for a in phi for b in a for c in b for e in c)
    yield "lambda", lam
    lp = lax_pair(bg)
    yield from (("lax", e) for e in (*lp.L0, *lp.L1))
    yield from (("reconstruction", e) for e in tet.reconstruction_residuals())
    for a in range(4):
        for b in range(4):
            yield "g", g[a, b]
    if K is not None:
        res, eta = conformal_killing_residuals(g, K)
        yield from (("conformal_killing", e) for e in (*res, eta))
        if conformal_killing_verdict(g, K, CFG).is_zero():
            yield from (("lift", e) for e in lift_killing(bg, CFG).comps)


def test_lazy_displays_and_verdicts_match_the_eager_views(corpus):
    """On the corpus and the models, every lazy result's tree (`sym` and
    `normal`, read first or after a zero test) is its element's view byte for
    byte, and its zero verdict (kind, witness, value) is that of the view
    given as a tree.  The spin coefficients, g and theta still show the
    views."""
    for name, bg in _geometries(corpus):
        checked = Counter()
        for label, e in _lazy_results(bg):
            el = e.el
            assert el is not None, (name, label)
            view = sp.srepr(Field.view(el))
            fresh = Field.expr(el)
            assert is_zero(fresh, CFG) == is_zero(Expr(Field.view(el)), CFG), (name, label)
            assert sp.srepr(fresh.sym) == view, (name, label)
            assert sp.srepr(Field.expr(el).normal) == view, (name, label)
            assert sp.srepr(e.sym) == sp.srepr(e.normal) == view, (name, label)
            checked[label] += 1
        assert checked["psi"] == 10 and checked["lax"] == 10, (name, checked)
        g, tet = bg.g, bg.tet
        trees, els = _flat(spin_coefficients(g, tet)), _flat(_spin_coefficients(g, tet))
        assert len(trees) == 2 * 4 * 2 * 2 + 4**3  # Gamma_u, Gamma_p, nab
        assert all(sp.srepr(s) == sp.srepr(Field.view(el)) for s, el in zip(trees, els)), name
        th = tet.field_el("theta")
        for i in range(4):
            for a in range(4):
                assert sp.srepr(tet.theta[i][a]) == sp.srepr(Field.view(th[i][a])), name
        for a in range(4):
            for b in range(4):
                assert sp.srepr(g.comps[a][b]) == sp.srepr(Field.view(g.el[a][b])), name


def _flat(obj) -> list:
    if isinstance(obj, (list, tuple)):
        return [v for o in obj for v in _flat(o)]
    return [obj]


def test_zero_element_is_proven_without_a_tree(monkeypatch):
    """is_zero and is_proven_zero read a zero element, not a tree; a nonzero
    element's verdict comes from its view, as a tree's does."""
    x, y = sp.symbols("x y")
    F = Field((x, y))
    nonzero = F.fold(x / y)
    zero = nonzero - F.fold(x / y)
    views = []
    view = expr_module._El.as_expr
    monkeypatch.setattr(expr_module._El, "as_expr", lambda el: views.append(el) or view(el))
    e = F.expr(zero)
    assert is_zero(e).kind == "proven_zero" and e.is_proven_zero()
    assert views == []
    n = F.expr(nonzero)
    assert not n.is_proven_zero() and views == []
    assert is_zero(n, CFG) == is_zero(parse("x/y"), CFG)
    assert len(views) == 1
    copy = Expr(n)
    assert copy.el is nonzero and str(copy) == "x/y" and len(views) == 1


def test_szekeres_views_each_weyl_spinor_element_once(monkeypatch, capsys):
    """`szekeres` on twisting_exp classifies 8 points, each through the tree
    route (the Weyl spinor holds exp gens).  It makes the view of each
    Weyl-spinor element at most once, kept in the spinor's own Expr; finding
    the points' symbols makes none."""
    classified, made, before = [], [], []
    classify, view = spinor_module.petrov_classify, expr_module._El.as_expr

    def recorded(w, at):
        if not classified:
            before.extend(made)
        classified.append(w)
        return classify(w, at)

    monkeypatch.setattr(spinor_module, "petrov_classify", recorded)
    monkeypatch.setattr(expr_module._El, "as_expr", lambda el: made.append(el) or view(el))
    assert run(["szekeres", str(MODELS / "twisting_exp.json")]) == 1
    capsys.readouterr()
    assert len(classified) == 8 and all(w is classified[0] for w in classified)
    views = [sum(v is el for v in made) for el in classified[0].el]
    assert max(views) == 1, views
    assert not [v for v in before if any(v is el for el in classified[0].el)]


def test_report_all_reads_the_inverse_metric_as_elements(monkeypatch, capsys):
    """heavenly_ppwave's report-all reads g^ab through its elements (the
    endomorphism check, the scalar curvature) and makes none of its trees:
    `Metric.inverse` makes them only when it is read."""
    stacks, view = [], expr_module._El.as_expr

    def recorded(el):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return view(el)

    monkeypatch.setattr(expr_module._El, "as_expr", recorded)
    assert run(["report-all", str(MODELS / "heavenly_ppwave.json")]) == 0
    capsys.readouterr()
    assert stacks and not [s for s in stacks if "inverse" in s]


def test_heavenly_report_makes_only_the_view_it_prints(monkeypatch, capsys):
    """report-all on heavenly_ppwave makes one view, the scalar curvature's,
    and prints it: the Sigma stage computes on elements and makes none."""
    made = []
    view = expr_module._El.as_expr
    monkeypatch.setattr(expr_module._El, "as_expr", lambda el: made.append(view(el)) or made[-1])
    assert run(["report-all", str(MODELS / "heavenly_ppwave.json")]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert len(made) == 1, len(made)
    assert checks["scalar_curvature"]["value"] == to_text(Expr(made[0]))
    assert {checks[k]["verdict"] for k in ("endomorphism_algebra",
                                           "sigma_pullback_template")} == {"proven_zero"}
