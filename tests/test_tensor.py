"""Curvature engine: connection, curvature identities, Lie derivatives, twist,
conformal behaviour."""

import itertools
import random
from pathlib import Path

import numpy as np
import sympy as sp
import pytest

from asdnull import expr as expr_module
from asdnull.cli import load_model
from asdnull.construct import _wedge_el, build_twisting
from asdnull.expr import (
    Assignment,
    Expr,
    ExprError,
    Field,
    SampleConfig,
    evaluate,
    is_zero_all,
    normalize,
    parse,
    random_points,
)
from asdnull.spinor import (
    curvature_spinors,
    killing_decompose,
    null_killing_factorize,
    scalar_invariants,
    spin_coefficients,
    szekeres_obstruction,
)
from asdnull.tensor import (
    Chart,
    Metric,
    OneForm,
    VectorField,
    adjugate4,
    christoffels,
    conformal_rescale,
    det4,
    lie_derivative_metric,
    ricci,
    riemann,
    riemann_lower,
    scalar_curvature,
    twist_three_form,
    weyl,
)
from asdnull.twistor import lax_pair, lift_killing
from oracles import (
    exterior_derivative_oneform,
    laplace_adjugate4,
    metric_compatibility_residuals,
    signature_at,
    tree_ricci,
    tree_wedge,
    vector_components,
    weyl_mixed,
)

CFG = SampleConfig()
R4 = range(4)
MODELS = Path(__file__).resolve().parent.parent / "models"


def test_flat_christoffels_vanish(flat_bg):
    gam = christoffels(flat_bg.g)
    assert all(gam.raw(a, b, c) == 0 for a in R4 for b in R4 for c in R4)
    assert scalar_curvature(flat_bg.g).is_proven_zero()


def test_flat_signature(flat_bg):
    assert signature_at(flat_bg.g, {"t": 1, "x": 1, "y": 1, "z": 1}) == (2, 2)


def _display_signature(g: Metric, at) -> tuple[int, int]:
    """The signature from each component's display tree, `g[i, j].sym`, by
    the tree route."""
    ev = np.linalg.eigvalsh([[float(evaluate(Expr(g[i, j].sym), at)) for j in R4]
                             for i in R4])
    return int((ev > 0).sum()), int((ev < 0).sum())


def test_signature_matches_display_route(twisting_exp_bg, sparling_uv_bg, flat_bg):
    """signature_at reads the elements at exact points; at exact and float
    points it agrees with the display trees by the tree route, also for
    twisting_exp's exp gens and for a metric with an exp of a sum with a
    negative part, whose display is its elements' view as every display is."""
    x, y, z = sp.symbols("x y z")
    split = Metric(flat_bg.g.chart, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                                     [0, 0, 0, -3 * x * y**2 + sp.exp(x * z - y) / x]])
    assert split.comps[3][3] == split.field.view(split.el[3][3])
    signatures = set()
    for g in (twisting_exp_bg.g, sparling_uv_bg.g, split):
        for at in itertools.islice(random_points(g.chart.names, 3), 4):
            for point in (at, Assignment({k: float(v) for k, v in at.items()})):
                old = _display_signature(g, point)
                assert signature_at(g, point) == old, (g.comps, point)
                signatures.add(old)
    assert signatures == {(2, 2), (3, 1)}  # split's g_zz takes both signs


def test_ppwave_connection_and_ricci(ppwave_bg):
    g = ppwave_bg.g
    gam = christoffels(g)
    X, Y = sp.Symbol("X"), sp.Symbol("Y")
    # only components built from Q_X, Q_Y survive
    nonzero = {(a, b, c) for a in R4 for b in R4 for c in R4
               if gam.raw(a, b, c) != 0}
    assert nonzero  # pp-wave is curved
    for a, b, c in nonzero:
        syms = sp.sympify(gam.raw(a, b, c)).free_symbols
        assert syms <= {X, Y}
    assert is_zero_all(metric_compatibility_residuals(g), CFG).kind == "proven_zero"
    assert ricci(g).zero_verdict(CFG).is_zero()


def test_metric_compatibility_on_corpus(corpus):
    for name, bg in corpus.items():
        v = is_zero_all(metric_compatibility_residuals(bg.g), CFG)
        assert v.is_zero(), name


def test_riemann_symmetries_and_bianchi(corpus):
    for name in ("ppwave", "nontwisting_generic", "twisting_exp", "sparling_uv"):
        rl = riemann_lower(corpus[name].g).comps
        residuals = []
        for a, b, c, d in itertools.product(R4, repeat=4):
            residuals.append(Expr(rl[a][b][c][d] + rl[b][a][c][d]))
            residuals.append(Expr(rl[a][b][c][d] - rl[c][d][a][b]))
            residuals.append(Expr(rl[a][b][c][d] + rl[a][c][d][b] + rl[a][d][b][c]))
        assert is_zero_all(residuals, CFG).is_zero(), name


def test_weyl_trace_free(ppwave_bg, twisting_poly_bg):
    for bg in (ppwave_bg, twisting_poly_bg):
        cw = weyl(bg.g).comps
        ginv = bg.g.inverse
        residuals = [
            Expr(sum(ginv[a][c] * cw[a][b][c][d] for a in R4 for c in R4))
            for b in R4 for d in R4
        ]
        assert is_zero_all(residuals, CFG).is_zero()


def test_conformal_christoffel_rule(flat_bg):
    # e^{2x} * flat metric against the closed-form transformation
    ch = flat_bg.g.chart
    x = sp.Symbol("x")
    w = sp.exp(2 * x)
    gc = conformal_rescale(flat_bg.g, Expr(w))
    gam = christoffels(gc)
    lnw = 2 * x
    gflat = flat_bg.g.comps
    ginv = flat_bg.g.inverse
    for a, b, c in itertools.product(R4, repeat=3):
        expected = sp.Rational(1, 2) * (
            (1 if a == b else 0) * sp.diff(lnw, ch.syms[c])
            + (1 if a == c else 0) * sp.diff(lnw, ch.syms[b])
            - gflat[b][c] * sum(ginv[a][d] * sp.diff(lnw, ch.syms[d]) for d in R4)
        )
        assert sp.cancel(gam.raw(a, b, c) - expected) == 0


def test_weyl_mixed_conformally_invariant(ppwave_bg):
    x = ppwave_bg.g.chart.syms
    import random

    rng = random.Random(5)
    w1 = weyl_mixed(ppwave_bg.g)
    for trial in range(5):
        omega = 1 + sum(sp.Rational(rng.randint(1, 5), rng.randint(1, 7))
                        * x[i] ** rng.randint(1, 2) for i in range(4))
        g2 = conformal_rescale(ppwave_bg.g, Expr(omega))
        w2 = weyl_mixed(g2)
        residuals = [Expr(w1[a][b][c][d] - w2[a][b][c][d])
                     for a, b, c, d in itertools.product(R4, repeat=4)]
        assert is_zero_all(residuals, SampleConfig(count=20, seed=trial)).is_zero()


def test_lie_derivative_killing_examples(ppwave_bg, flat_bg):
    # d_t on a t-independent metric
    K = VectorField(ppwave_bg.g.chart, [1, 0, 0, 0])
    assert lie_derivative_metric(ppwave_bg.g, K).zero_verdict(CFG).kind == "proven_zero"
    # homothety T d_T + X d_X on flat dT dY - dX dZ gives back g
    g = _flat_pleb()
    T, X = sp.Symbol("T"), sp.Symbol("X")
    K2 = VectorField(g.chart, [T, X, 0, 0])
    L = lie_derivative_metric(g, K2)
    assert all((L[a, b] - g[a, b]).is_proven_zero() for a in R4 for b in R4)


def _flat_pleb():
    ch = Chart(("T", "X", "Y", "Z"))
    comps = [[0] * 4 for _ in R4]
    comps[0][2] = comps[2][0] = 1
    comps[1][3] = comps[3][1] = -1
    return Metric(ch, comps)


def test_twist_examples(nontwisting_generic_bg, twisting_poly_bg, flat_bg):
    assert twist_three_form(
        nontwisting_generic_bg.g, nontwisting_generic_bg.K
    ).zero_verdict(CFG).kind == "proven_zero"
    assert twist_three_form(flat_bg.g, flat_bg.K).zero_verdict(CFG).kind == "proven_zero"
    tw = twist_three_form(twisting_poly_bg.g, twisting_poly_bg.K)
    assert not tw.zero_verdict(CFG).is_zero()
    # independent exterior-algebra oracle: K-flat = dy - z dx for this family
    ch = twisting_poly_bg.g.chart
    z = sp.Symbol("z")
    kflat = OneForm(ch, [0, -z, 1, 0])
    dk = exterior_derivative_oneform(kflat)
    expected = {}
    for a, b, c in itertools.combinations(R4, 3):
        expected[(a, b, c)] = (kflat.comps[a] * dk[b][c]
                               + kflat.comps[b] * dk[c][a]
                               + kflat.comps[c] * dk[a][b])
    for key, val in tw.independent_components().items():
        assert sp.cancel(val.sym - expected[key]) == 0
    assert sp.cancel(tw[1, 2, 3].sym + 1) == 0  # the dx^dy^dz slot, G-independent


def test_conformal_rescale_identity_and_errors(flat_bg):
    g2 = conformal_rescale(flat_bg.g, Expr(1))
    assert all((g2[a, b] - flat_bg.g[a, b]).is_proven_zero() for a in R4 for b in R4)
    with pytest.raises(Exception):
        conformal_rescale(flat_bg.g, parse("x - x"))


@pytest.mark.parametrize("model", ["ppwave", "twisting_exp", "sparling_tod"])
def test_rescale_forms_omega_g_on_elements(model, monkeypatch):
    """omega g is formed on g's elements in g's field, grown by omega's gens:
    the rescale makes no view, and each component's view equals the tree
    route's (omega times g's tree, folded into a fresh field)."""
    g = load_model(MODELS / f"{model}.json").geometry.g
    for omega in (parse("exp(T)"), parse("1 + x^2 + y*z"), parse("exp(t - x)/(1 + X^2)")):
        views, view = [], expr_module._El.as_expr
        monkeypatch.setattr(expr_module._El, "as_expr", lambda el: views.append(el) or view(el))
        g2 = conformal_rescale(g, omega)
        monkeypatch.undo()
        assert views == [] and g2.field is g.field
        tree = Metric(g.chart, [[g.comps[a][b] * omega.sym for b in R4] for a in R4])
        for a, b in itertools.product(R4, repeat=2):
            assert g2[a, b].sym == tree[a, b].sym, (model, str(omega), a, b)


def test_adjugate_from_minors_matches_laplace_expansion(corpus):
    """adjugate4 expands each 3x3 minor against the 2x2 minors of rows (0, 1)
    and (2, 3); it is Laplace expansion's adjugate (`oracles`), and row 0
    against its first column is det4, on every corpus coframe and metric and
    on seeded matrices of field elements with zero entries.  Each tetrad's
    frame is that adjugate over that determinant."""
    for name, bg in corpus.items():
        theta, frame = bg.tet.field_el("theta"), bg.tet.field_el("frame")
        zero = bg.g.field.K.zero
        for m in (theta, bg.g.el):
            adj = adjugate4(m)
            assert adj == laplace_adjugate4(m), name
            assert sum((m[0][a] * adj[a][0] for a in R4), zero) == det4(m), name
        adj, det = laplace_adjugate4(theta), det4(theta)
        assert frame == [[adj[a][i] / det for a in R4] for i in R4], name
    rng = random.Random(28)
    F = Field(sp.symbols("x y"))
    x, y = sp.symbols("x y")
    entries = [F.fold(sp.sympify(t)) for t in (0, 0, 1, -2, x, y, x * y - 3, x / (1 + y**2),
                                   (x - y) / (x * y + 1), y**2 / x)]
    for _ in range(12):
        m = [[rng.choice(entries) for _ in R4] for _ in R4]
        adj = adjugate4(m)
        assert adj == laplace_adjugate4(m)
        assert sum((m[0][a] * adj[a][0] for a in R4), F.K.zero) == det4(m)


def test_degenerate_metric_rejected():
    ch = Chart(("t", "x", "y", "z"))
    comps = [[0] * 4 for _ in R4]
    comps[0][1] = comps[1][0] = 1  # rank 2
    g = Metric(ch, comps)
    with pytest.raises(Exception):
        g.inverse


def test_wedge_antisymmetry(flat_bg):
    """The element wedge is antisymmetric and is the tree wedge's element."""
    x, y = sp.symbols("x y")
    a = [1, x, 0, 2 * sp.exp(x) / y]
    b = [0, 1, y, sp.sin(x) - y]
    F = Field(flat_bg.g.chart.syms, map(sp.sympify, a + b))
    K = F.K
    w = _wedge_el(*([F.fold(sp.sympify(c)) for c in row] for row in (a, b)))
    assert F.K is K
    tree = tree_wedge(a, b)
    for i in R4:
        for j in R4:
            assert not w[i][j] + w[j][i]
            assert w[i][j] == F.element(normalize(sp.sympify(tree[i][j])))
    assert w[1][3] and not w[0][0]


# G_zz = exp(zx - y) satisfies the transport constraint with A = 0; the z-linear
# part puts cos(y) log(1 + x^2), exp(x/2) and exp(x) into the metric, and sin(y)
# into its derivatives
MIXED_KERNEL_G = "exp(z*x - y)/x^2 + z*(sin(y)*log(1 + x^2) + exp(x/2)*y + exp(x)*y^2)"


def test_field_curvature_matches_tree_oracle(nontwisting_generic_bg, twisting_exp_bg):
    mixed = build_twisting(0, 0, 0, 0, parse(MIXED_KERNEL_G))
    assert mixed.check_constraints(CFG)[0][1].kind == "proven_zero"
    for bg in (nontwisting_generic_bg, twisting_exp_bg, mixed):
        assert ricci(bg.g).comps == tree_ricci(bg.g)


def _views(bg):
    g, tet = bg.g, bg.tet
    cu, cp, phi, lam = curvature_spinors(g, tet)
    lp = lax_pair(bg)
    yield from (christoffels(g).comps, riemann(g).comps, riemann_lower(g).comps,
                ricci(g).comps, spin_coefficients(g, tet))
    yield [phi[i][j][k][m].sym for i, j, k, m in itertools.product(range(2), repeat=4)]
    yield [e.sym for e in (*cu.psi, *cp.psi, lam, *lp.L0, *lp.L1, *scalar_invariants(cu))]
    try:
        sz = szekeres_obstruction(g, tet, CFG)
    except ExprError as ex:
        assert "inapplicable" in str(ex)  # type N or O
    else:
        yield sz.eliminability.comps
        if sz.gradient_curl is not None:
            yield sz.gradient_oneform.comps, sz.gradient_curl.comps
    if bg.K is not None:
        data = killing_decompose(g, tet, bg.K, CFG)
        iota, o = null_killing_factorize(g, tet, bg.K, CFG)
        yield vector_components(tet, bg.K)
        yield twist_three_form(g, bg.K).comps, lie_derivative_metric(g, bg.K).comps
        yield [e.sym for e in (*data.phi, *data.psi, data.eta, *iota.comps, *o.comps,
                               *lift_killing(bg, CFG).comps)]


def _flat(obj):
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _flat(v)
    else:
        yield obj


def test_field_views_are_normal_forms(corpus):
    """Every sympy value a field stage returns is a fixed point of normalize,
    so reports print the same normal forms as a tree computation would."""
    for name, bg in corpus.items():
        views = {v for part in _views(bg) for v in _flat(part)}
        bad = [v for v in views if normalize(v) != v]
        assert not bad, (name, bad[:3])


_X = sp.Symbol("x")


@pytest.mark.parametrize("bad", [sp.zoo * _X, _X / ((_X + 1)**2 - _X**2 - 2 * _X - 1)],
                         ids=["zoo", "zero_divisor"])
def test_singular_metric_component_is_a_typed_error(bad):
    """A component that divides by zero (zoo, or a divisor that is zero only
    after cancelling) is rejected by name, not built with det 1."""
    comps = [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, bad]]
    with pytest.raises(ExprError, match="singular") as info:
        Metric(Chart(("t", "x", "y", "z")), comps)
    assert str(bad) in str(info.value)
