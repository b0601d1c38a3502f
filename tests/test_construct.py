"""Builders: metric families, constraints, coordinate transform, heavenly
machinery."""

import math
import random
from collections import Counter
from pathlib import Path

import pytest
import sympy as sp

from asdnull.construct import (
    build_fefferman_like,
    build_heavenly,
    build_nontwisting,
    build_ppwave,
    build_sparling_tod,
    build_twisting,
    endomorphism_check,
    fefferman_typeN_check,
    g_residual,
    heavenly_endomorphism_check,
    heavenly_sigma_pullback_residuals,
    heavenly_two_forms,
    sigma_pullback_residuals,
    sparling_tod_transform,
)
from asdnull.expr import (
    Assignment,
    EvalError,
    Expr,
    ExprError,
    Field,
    SampleConfig,
    evaluate,
    is_zero,
    is_zero_all,
    normalize,
    parse,
)
from asdnull.cli import load_model
from asdnull.spinor import petrov_classify, standard_tetrad, weyl_spinors
from asdnull.tensor import (
    conformal_rescale,
    lie_derivative_metric,
    ricci,
    twist_three_form,
    weyl,
)
from oracles import (
    is_flat_input,
    substitute,
    tree_coframe,
    tree_endomorphism_residuals,
    tree_fefferman_conditions,
    tree_heavenly_residual,
    tree_metric,
    tree_nontwisting_a0,
    tree_sigma_forms,
    tree_sigma_pullback_residuals,
    tree_sparling_w0,
    tree_transport_residual,
)

CFG = SampleConfig()
R4 = range(4)
MODELS = Path(__file__).resolve().parent.parent / "models"


def _rng_poly_xy(rng, degree=2):
    x, y = sp.symbols("x y")
    out = sp.S.Zero
    for _ in range(3):
        out += (sp.Rational(rng.randint(-3, 3), rng.randint(1, 4))
                * x**rng.randint(0, degree) * y**rng.randint(0, degree))
    return Expr(out)


def test_flat_builder(flat_bg):
    assert flat_bg.g[0, 2] == Expr(1)
    assert flat_bg.g[1, 3] == Expr(-1)
    assert is_flat_input(flat_bg.proj)


def test_nontwisting_determined_coefficient():
    beta = parse("x*y")
    bg = build_nontwisting(parse("x"), 0, 0, beta, 0, 0)
    expected = beta.diff("x") + beta * beta.diff("y") - beta * parse("x")
    assert (bg.proj.A[0] - expected).is_proven_zero()


def test_builders_invariants(corpus):
    # tetrad reconstructs, K is null, and components are t-independent
    for name, bg in corpus.items():
        assert is_zero_all(bg.tet.reconstruction_residuals(), CFG).is_zero(), name
        if bg.K is None:
            continue
        kk = sum(bg.g.comps[a][b] * bg.K.comps[a] * bg.K.comps[b]
                 for a in R4 for b in R4)
        assert is_zero(Expr(kk), CFG).is_zero(), name
        assert lie_derivative_metric(bg.g, bg.K).zero_verdict(CFG).is_zero(), name


def test_nontwisting_always_asd_randomized():
    rng = random.Random(42)
    for trial in range(3):
        bg = build_nontwisting(*(
            _rng_poly_xy(rng, 2) for _ in range(6)
        ))
        _, cp = weyl_spinors(bg.g, bg.tet)
        assert cp.is_zero_verdict(CFG).is_zero(), trial


def test_twist_dichotomy(nontwisting_generic_bg):
    assert twist_three_form(
        nontwisting_generic_bg.g, nontwisting_generic_bg.K
    ).zero_verdict(CFG).kind == "proven_zero"
    bg = build_twisting(0, 0, 0, 0, parse("z^3"))
    tw = twist_three_form(bg.g, bg.K)
    assert tw.zero_verdict(CFG).kind == "nonzero"


def test_twisting_degenerate_rejected():
    with pytest.raises(ExprError):
        build_twisting(0, 0, 0, 0, parse("z*x + y"))  # G_zz = 0


def test_g_residual_cases():
    assert g_residual(0, parse("x"), parse("y"), 0, parse("z^2/2")).is_proven_zero()
    # G_zz = f(zx - y) with A = 0 transports trivially
    r = g_residual(0, 0, 0, 0, parse("x^2*z^4/12 - x*y*z^3/3 + y^2*z^2/2"))
    assert r.is_proven_zero()
    # oracle-computed: G = z^4 with A = 0 also satisfies the constraint
    # (the transport operator has no d_z part when A = 0)
    assert g_residual(0, 0, 0, 0, parse("z^4")).is_proven_zero()
    # genuine violation: G = y z^3
    r = g_residual(0, 0, 0, 0, parse("y*z^3"))
    assert sp.expand(r.sym - 6 * sp.Symbol("z") ** 2) == 0
    assert is_zero(r, CFG).kind == "nonzero"


def test_twisting_exp_constraint_sampled(twisting_exp_bg):
    name, verdict = twisting_exp_bg.check_constraints(CFG)[0]
    assert name == "transport" and verdict.is_zero()


def test_conformally_flat_special_twisting():
    # A = 0, G = z^2/2: e^t-rescaled metric has vanishing Weyl tensor
    bg = build_twisting(0, 0, 0, 0, parse("z^2/2"))
    rescaled = conformal_rescale(bg.g, Expr(sp.exp(sp.Symbol("t"))))
    assert weyl(rescaled).zero_verdict(CFG).is_zero()


def test_fefferman_type_branches():
    ga, de = parse("x"), parse("y")
    A1, A2, A3 = parse("y"), parse("x*y"), parse("x")
    si = A2 * Expr(sp.Rational(1, 3)) - ga * A3
    ro = A1 * Expr(sp.Rational(2, 3)) - ga * A2 + 2 * A3 * de + ga.diff("y")
    bg = build_fefferman_like(ga, de, ro, si, 0, A1, A2, A3)
    cond, ty, mixed = fefferman_typeN_check(bg, CFG)
    assert cond.is_zero() and ty == "N" and not mixed
    # violating the conditions by a non-constant shift gives III; a constant
    # shift is pure gauge and leaves the type N (frozen from computation)
    bg3 = build_fefferman_like(ga, de, ro, si + parse("x"), 0, A1, A2, A3)
    cond, ty, _ = fefferman_typeN_check(bg3, CFG)
    assert not cond.is_zero() and ty == "III"
    bgc = build_fefferman_like(ga, de, ro, si + 1, 0, A1, A2, A3)
    cond, ty, _ = fefferman_typeN_check(bgc, CFG)
    assert not cond.is_zero() and ty == "N"
    bg0 = build_fefferman_like(0, 0, 0, 0, 0, 0, 0, 0)
    cond, ty, _ = fefferman_typeN_check(bg0, CFG)
    assert cond.is_zero() and ty == "O"


def test_ppwave_cases(ppwave_bg):
    assert build_ppwave(Expr(0)).g[0, 2] == Expr(1)
    bg = build_ppwave(parse("X^2"))
    assert ricci(bg.g).zero_verdict(CFG).kind == "proven_zero"
    cu, cp = weyl_spinors(bg.g, bg.tet)
    assert cp.is_zero_verdict(CFG).kind == "proven_zero"
    pt = Assignment({"T": 1, "X": 2, "Y": 1, "Z": 1})
    assert petrov_classify(cu, pt).type == "N"


def test_ppwave_special_case_of_nontwisting():
    # the pp-wave is the (1.2) family member with only the Q slot populated
    q = parse("x^2 + y^3")
    bg12 = build_nontwisting(0, 0, 0, 0, 0, q)
    bgpp = build_ppwave(parse("X^2 + Y^3"))
    rename = dict(zip(("T", "X", "Y", "Z"), ("t", "x", "y", "z")))
    for a in R4:
        for b in R4:
            lhs = substitute(bgpp.g[a, b], {k: parse(v) for k, v in rename.items()})
            assert (lhs - bg12.g[a, b]).is_proven_zero(), (a, b)


def test_sparling_tod_builders():
    assert all(
        e.is_proven_zero()
        for _, e in build_sparling_tod(Expr(0)).constraints
    )
    bg = build_sparling_tod(parse("u"))
    assert all(v.is_zero() for _, v in bg.check_constraints(CFG))


def test_sparling_tod_uv_constraints(sparling_uv_bg):
    for name, verdict in sparling_uv_bg.check_constraints(CFG):
        assert verdict.is_zero(), name


def test_sparling_tod_standard_tetrad_from_h(sparling_uv_bg):
    """The read-off from H alone gives the coframe the builder made from W0."""
    bg = sparling_uv_bg
    tet = standard_tetrad(bg.g, "sparling_tod", {"H": bg.params["H"]})
    assert tet.theta == bg.tet.theta


def test_sparling_tod_transform_points():
    pt = sparling_tod_transform({"T": 2.0, "X": 1.0, "Y": 1.0, "Z": 3.0})
    assert math.isclose(pt["z"], 1 / math.sqrt(3.0))
    assert math.isclose(pt["y"], math.log(3.0))
    with pytest.raises(EvalError):
        sparling_tod_transform({"T": 1.0, "X": 1.0, "Y": 1.0, "Z": -1.0})
    with pytest.raises(EvalError):
        sparling_tod_transform({"T": 1.0, "X": 1.0, "Y": 1.0, "Z": 1.0})


def _transform_jacobian(T, X, Y, Z):
    """Exact partials of the (T,X,Y,Z) -> (t,x,y,z) map, evaluated in floats."""
    s = Y * T - X * Z
    rt = math.sqrt(Y * Z)
    z3 = rt**-3
    return {
        "t": {"T": -0.5 / Z, "X": -0.5 / Y, "Y": 0.5 * X / Y**2, "Z": 0.5 * T / Z**2},
        "x": {"T": Y / rt, "X": -Z / rt,
              "Y": T / rt - 0.5 * s * Z * z3, "Z": -X / rt - 0.5 * s * Y * z3},
        "y": {"T": 0.0, "X": 0.0, "Y": -1.0 / Y, "Z": 1.0 / Z},
        "z": {"T": 0.0, "X": 0.0, "Y": -0.5 * Z * z3, "Z": -0.5 * Y * z3},
    }


def test_sparling_tod_conformal_form_pullback(sparling_uv_bg):
    """z^2 g pulled back equals dy dt - dz dx + z A3(x) dy^2 with
    A3 = -1/x^5 - x/4 (derived once for H = u v and frozen)."""
    bg = sparling_uv_bg
    rng = random.Random(9)
    src = ("T", "X", "Y", "Z")
    tgt = ("t", "x", "y", "z")
    checked = 0
    while checked < 10:
        pt = {n: rng.uniform(0.3, 2.0) for n in src}
        s = pt["Y"] * pt["T"] - pt["X"] * pt["Z"]
        if abs(s) < 0.2:
            continue
        low = sparling_tod_transform(pt)
        J = _transform_jacobian(*(pt[n] for n in src))
        xval, zval = low["x"], low["z"]
        a3 = -1.0 / xval**5 - xval / 4.0
        # hatted metric components in (t,x,y,z): pair convention
        ghat = {(0, 2): 1.0, (2, 0): 1.0, (1, 3): -1.0, (3, 1): -1.0,
                (2, 2): 2.0 * zval * a3}
        apt = Assignment({n: pt[n] for n in src})
        for a, an in enumerate(src):
            for b, bn in enumerate(src):
                pulled = 0.0
                for c, cn in enumerate(tgt):
                    for d, dn in enumerate(tgt):
                        gcd = ghat.get((c, d), 0.0)
                        if gcd:
                            pulled += gcd * J[cn][an] * J[dn][bn]
                direct = float(evaluate(bg.g[a, b], apt)) * low["z"] ** 2
                assert abs(pulled - direct) < 1e-9 * max(1.0, abs(direct)), (an, bn)
        checked += 1


def test_heavenly_flat_and_residuals():
    bg, hd = build_heavenly(Expr(0))
    assert hd.residual.is_proven_zero()
    assert bg.g[0, 2] == Expr(1)
    bad_bg, bad = build_heavenly(parse("T^2*X^2"))
    assert is_zero(bad.residual, CFG).kind == "nonzero"


def test_heavenly_ppwave_link(heavenly_ppwave):
    bg, hd = heavenly_ppwave
    assert hd.residual.is_proven_zero()
    f = parse("3*Y^2 - Y")
    bgpp = build_ppwave(Expr(2) * f)
    for a in R4:
        for b in R4:
            assert (bg.g[a, b] - bgpp.g[a, b]).is_proven_zero(), (a, b)
    assert ricci(bg.g).zero_verdict(CFG).is_zero()


def test_heavenly_two_forms_and_algebra(heavenly_ppwave):
    theta = heavenly_ppwave[1].theta
    s00, s01, s11 = heavenly_two_forms(theta)
    # constant coefficients for Theta = 0
    f00, f01, f11 = heavenly_two_forms(Expr(0))
    for F in (f00, f01, f11):
        for a in R4:
            for b in R4:
                assert sp.sympify(F.comps[a][b]).is_number
    assert endomorphism_check(Expr(0), CFG).kind == "proven_zero"
    assert endomorphism_check(theta, CFG).kind == "proven_zero"
    assert is_zero_all(sigma_pullback_residuals(theta), CFG).kind == "proven_zero"
    assert is_zero_all(sigma_pullback_residuals(Expr(0)), CFG).kind == "proven_zero"


def test_heavenly_vacuum_type3(heavenly_type3):
    bg, hd = heavenly_type3
    assert hd.residual.is_proven_zero()
    assert ricci(bg.g).zero_verdict(CFG).kind == "proven_zero"
    cu, cp = weyl_spinors(bg.g, bg.tet)
    assert cp.is_zero_verdict(CFG).kind == "proven_zero"
    pt = Assignment({"T": 2, "X": 1, "Y": 1, "Z": 3})
    assert petrov_classify(cu, pt).type == "III"


def test_builder_input_validation():
    with pytest.raises(ExprError):
        build_nontwisting(parse("z"), 0, 0, 0, 0, 0)
    with pytest.raises(ExprError):
        build_ppwave(parse("T"))
    with pytest.raises(ExprError):
        build_sparling_tod(parse("x*u"))
    with pytest.raises(ExprError):
        build_heavenly(parse("t"))


# -- the builders in the field against their tree oracles ------------------------------

x, y, z = sp.symbols("x y z")
T, X, Y, Z = sp.symbols("T X Y Z")
u, v = sp.symbols("u v")
_LEAVES = {
    "xy": (1 / (x + y + 1), 1 / (x**2 + 1), sp.exp(x * y - y), sp.sin(x), sp.exp(x)),
    "XY": (1 / (X + Y + 1), sp.exp(X * Y - Y), sp.sin(X), sp.exp(X)),
    "uv": (sp.exp(u), sp.sin(u), 1 / (u + v), sp.exp(u - v), 1 / (v + 1)),
    "TXYZ": (sp.exp(X - Y), sp.sin(T), 1 / (X + 1), sp.exp(X)),
}


def _poly(rng, monomials, zero: float = 0.4) -> sp.Expr:
    """0 (with probability `zero`), else a rational multiple of one of the
    monomials."""
    if rng.random() < zero:
        return sp.S.Zero
    return sp.Rational(rng.randint(-3, 3) or 1, rng.randint(1, 3)) * rng.choice(monomials)


def _with_leaf(rng, inputs: list, leaves) -> list:
    """The inputs with one of them multiplied by an exp, sin or denominator
    leaf (a zero input gets the leaf alone)."""
    k = rng.randrange(len(inputs))
    leaf = rng.choice(leaves)
    inputs[k] = inputs[k] * leaf if inputs[k] != 0 else leaf
    return [Expr(t) for t in inputs]


def _random_members(seed: int, per_family: int) -> list:
    """Seeded members of the six builder families, each with one exp, sin or
    denominator leaf; twisting's G_zz and Sparling-Tod's H are non-constant."""
    rng = random.Random(seed)
    xy = (1, x, y, x**2, x * y, y**2)
    txyz = (T**2, X**3, T * Y, X * Z, T * X**2, X * Y * Z, T**2 * X)
    out = []
    for _ in range(per_family):
        def polys(n):
            return [_poly(rng, xy) for _ in range(n)]
        G = (sp.Rational(rng.randint(1, 5), 2) * z**2 + _poly(rng, (x * z, y * z**3, z**3, x * y))
             + rng.choice((0, 0, sp.exp(z * x - y) / x**2)))
        out += [
            build_nontwisting(*_with_leaf(rng, polys(6), _LEAVES["xy"])),
            build_twisting(*_with_leaf(rng, polys(4) + [G], _LEAVES["xy"])),
            build_fefferman_like(*_with_leaf(rng, polys(8), _LEAVES["xy"])),
            build_ppwave(*_with_leaf(rng, [_poly(rng, (1, X, Y, X**2, X * Y, Y**3), 0)],
                                     _LEAVES["XY"])),
            build_sparling_tod(*_with_leaf(rng, [_poly(rng, (1, u, v, u * v), 0)
                                                 + rng.choice((u, v))], _LEAVES["uv"])),
            build_heavenly(*_with_leaf(rng, [_poly(rng, txyz, 0) + _poly(rng, txyz)],
                                       _LEAVES["TXYZ"]))[0],
        ]
    return out


def _check_builder(bg, metric: bool = True) -> int:
    """The builder's coframe, A0, W0, residuals and (with `metric`) g are the
    elements of the tree oracle's normal forms in g's field, and each
    residual's zero verdict (kind, witness, value) is that of the tree's
    normal form.  Returns the residuals checked."""
    F, p = bg.g.field, bg.params
    rows = tree_coframe(bg.family, p)
    K = F.K

    def element(t):
        return F.element(normalize(sp.sympify(t)))

    th = bg.tet.field_el("theta")
    assert all(th[i][a] == element(rows[i][a]) for i in R4 for a in R4), (bg.family, p)
    if metric:
        g, gt = bg.g.el, tree_metric(rows)
        assert all(g[a][b] == element(gt[a][b]) for a in R4 for b in range(a, 4)), p
    pairs = []
    if bg.family == "nontwisting":
        assert F.up(bg.proj.A[0].el) == element(tree_nontwisting_a0(p)), p
    if bg.family == "sparling_tod":
        assert F.up(p["W0"].el) == element(tree_sparling_w0(p["H"])), p
    if bg.family == "twisting":
        inputs = [p[k] for k in ("A0", "A1", "A2", "A3", "G")]
        ref = tree_transport_residual(*inputs)
        pairs += [(bg.constraints[0][1], ref), (g_residual(*inputs), ref)]
    if bg.family == "heavenly":
        pairs.append((bg.constraints[0][1], tree_heavenly_residual(p["Theta"])))
    for new, ref in pairs:  # g_residual's element is in a field of its own
        _match_tree(new, ref, (bg.family, p))
    assert F.K is K
    return len(pairs)


def _match_tree(new: Expr, ref: Expr, what):
    """new holds an element whose view is normalize(normalize(t)) of ref's
    tree t, and its zero verdict is the tree's.  normalize is not idempotent
    on an exp of a sum with a negative part, and there the verdicts of the
    two normal forms share their kind and witness but may differ in the
    value's last digit; new's verdict is then the second form's."""
    fixed, verdict, tree_verdict = normalize(ref.normal), is_zero(new, CFG), is_zero(ref, CFG)
    assert sp.srepr(Field.view(new.el)) == sp.srepr(fixed), what
    if sp.srepr(fixed) != sp.srepr(ref.normal):
        assert verdict.kind == tree_verdict.kind, what
        assert verdict.witness == tree_verdict.witness, what
        tree_verdict = is_zero(Expr(fixed), CFG)
    assert verdict == tree_verdict, what
    return verdict


def test_builders_match_tree_oracle(corpus):
    """Every builder computes in its metric's field what the tree oracles
    compute with sp.diff, sp.cancel and normalize: on the corpus, on the
    builder models and on 30 seeded members of each family, with exp, sin
    and denominator leaves and a non-constant Sparling-Tod H."""
    geometries = list(corpus.values())
    geometries += [m.geometry for m in map(load_model, sorted(MODELS.glob("*.json")))
                   if m.kind == "builder"]
    members = _random_members(seed=16, per_family=30)
    # g is the coframe's symmetric product in the field: its tree check runs
    # on the corpus and the models, the coframe's on every member
    residuals = sum(_check_builder(bg) for bg in geometries)
    residuals += sum(_check_builder(bg, metric=False) for bg in members)
    families = Counter(bg.family for bg in members)
    assert min(families.values()) >= 30 and len(families) == 6, families
    assert residuals >= 2 * 30 + 30


def _is_view_of(shown: Expr, tree) -> bool:
    """shown's tree is normalize(tree), or normalize(normalize(tree)) where
    normalize is not idempotent on it."""
    once, view = normalize(sp.sympify(tree)), sp.srepr(shown.sym)
    return view == sp.srepr(once) or view == sp.srepr(normalize(once))


def _random_thetas(seed: int, count: int) -> list:
    """Seeded heavenly potentials: a sum of two monomials, one of them
    multiplied by an exp, sin or denominator leaf."""
    rng = random.Random(seed)
    txyz = (T**2, X**3, T * Y, X * Z, T * X**2, X * Y * Z, T**2 * X, X**2 * Y)
    return [_with_leaf(rng, [_poly(rng, txyz, 0) + _poly(rng, txyz, 0)], _LEAVES["TXYZ"])[0]
            for _ in range(count)]


def test_sigma_stage_matches_tree_oracle(heavenly_ppwave):
    """The Sigma two-forms, the endomorphism algebra and the Sigma-pullback
    residuals, computed on field elements, against the tree wedge, the tree
    matrices and the tree template of tests/oracles.py over the coframe's
    trees: on heavenly_ppwave, on Theta = 0 and on 22 seeded Theta.  A
    Theta with Theta_T != 0 has a nonzero pullback residual."""
    thetas = [heavenly_ppwave[1].theta, Expr(0)] + _random_thetas(seed=17, count=22)
    timed = nonzero = 0
    for theta in thetas:
        bg, _ = build_heavenly(theta)
        F, rows = bg.g.field, bg.tet.theta
        K = F.K
        for form, tree in zip(heavenly_two_forms(theta), tree_sigma_forms(rows)):
            assert all(_is_view_of(form[c, d], tree[c][d]) for c in R4 for d in R4), theta
        assert (heavenly_endomorphism_check(bg, CFG)
                == is_zero_all(tree_endomorphism_residuals(rows), CFG)), theta
        ref = tree_sigma_pullback_residuals(rows, bg.params["Theta"])
        new = heavenly_sigma_pullback_residuals(bg)
        verdicts = [_match_tree(n, r, theta) for n, r in zip(new, ref)]
        assert len(new) == len(ref) == 6 and F.K is K
        timed += sp.diff(theta.sym, T) != 0
        nonzero += not all(verdicts)
    assert timed >= 5 and nonzero >= 5, (timed, nonzero)


def test_fefferman_conditions_match_tree_route():
    """The type-N conditions, computed in g's field, against the tree route
    of tests/oracles.py (sp.diff and normalize) on 25 seeded Fefferman-like
    members with exp, sin and denominator leaves; gamma depends on y in
    some, and the conditions fail in some."""
    rng = random.Random(17)
    xy = (1, x, y, x**2, x * y, y**2)
    sloped = failing = 0
    for _ in range(25):
        bg = build_fefferman_like(*_with_leaf(rng, [_poly(rng, xy) for _ in range(8)],
                                              _LEAVES["xy"]))
        K = bg.g.field.K
        verdict, _, _ = fefferman_typeN_check(bg, CFG, points=3)
        tree = tree_fefferman_conditions(bg.params)
        ref = is_zero_all(tree, CFG)
        assert (verdict.kind, verdict.witness) == (ref.kind, ref.witness), bg.params
        assert verdict == is_zero_all([Expr(normalize(c.normal)) for c in tree], CFG), bg.params
        assert bg.g.field.K is K
        sloped += sp.diff(bg.params["gamma"].sym, y) != 0
        failing += not verdict
    assert sloped >= 3 and failing >= 10, (sloped, failing)
