"""Curvature engine: connection, curvature identities, Lie derivatives, twist,
conformal behaviour."""

import itertools

import sympy as sp
import pytest

from asdnull.construct import build_twisting
from asdnull.expr import Expr, SampleConfig, is_zero_all, normalize, parse
from asdnull.spinor import curvature_spinors, spin_coefficients
from asdnull.tensor import (
    Chart,
    Metric,
    OneForm,
    VectorField,
    christoffels,
    conformal_rescale,
    exterior_derivative_oneform,
    lie_derivative_metric,
    metric_compatibility_residuals,
    ricci,
    riemann,
    riemann_lower,
    scalar_curvature,
    twist_three_form,
    wedge,
    weyl,
    weyl_mixed,
)
from asdnull.twistor import lax_pair

CFG = SampleConfig()
R4 = range(4)


def test_flat_christoffels_vanish(flat_bg):
    gam = christoffels(flat_bg.g)
    assert all(gam.raw(a, b, c) == 0 for a in R4 for b in R4 for c in R4)
    assert scalar_curvature(flat_bg.g).is_proven_zero()


def test_flat_signature(flat_bg):
    assert flat_bg.g.signature_at({"t": 1, "x": 1, "y": 1, "z": 1}) == (2, 2)


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
    w1 = weyl_mixed(ppwave_bg.g).comps
    for trial in range(5):
        omega = 1 + sum(sp.Rational(rng.randint(1, 5), rng.randint(1, 7))
                        * x[i] ** rng.randint(1, 2) for i in range(4))
        g2 = conformal_rescale(ppwave_bg.g, Expr(omega))
        w2 = weyl_mixed(g2).comps
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
        expected[(a, b, c)] = (kflat.comps[a] * dk.comps[b][c]
                               + kflat.comps[b] * dk.comps[c][a]
                               + kflat.comps[c] * dk.comps[a][b])
    for key, val in tw.independent_components().items():
        assert sp.cancel(val.sym - expected[key]) == 0
    assert sp.cancel(tw[1, 2, 3].sym + 1) == 0  # the dx^dy^dz slot, G-independent


def test_conformal_rescale_identity_and_errors(flat_bg):
    g2 = conformal_rescale(flat_bg.g, Expr(1))
    assert all((g2[a, b] - flat_bg.g[a, b]).is_proven_zero() for a in R4 for b in R4)
    with pytest.raises(Exception):
        conformal_rescale(flat_bg.g, parse("x - x"))


def test_degenerate_metric_rejected():
    ch = Chart(("t", "x", "y", "z"))
    comps = [[0] * 4 for _ in R4]
    comps[0][1] = comps[1][0] = 1  # rank 2
    g = Metric(ch, comps)
    with pytest.raises(Exception):
        g.inverse


def test_wedge_antisymmetry(flat_bg):
    ch = flat_bg.g.chart
    a = OneForm(ch, [1, sp.Symbol("x"), 0, 2])
    b = OneForm(ch, [0, 1, sp.Symbol("y"), 0])
    w = wedge(a, b)
    for i in R4:
        for j in R4:
            assert sp.cancel(w.comps[i][j] + w.comps[j][i]) == 0


# G_zz = exp(zx - y) satisfies the transport constraint with A = 0; the z-linear
# part puts cos(y) log(1 + x^2), exp(x/2) and exp(x) into the metric, and sin(y)
# into its derivatives
MIXED_KERNEL_G = "exp(z*x - y)/x^2 + z*(sin(y)*log(1 + x^2) + exp(x/2)*y + exp(x)*y^2)"


def _tree_ricci(g):
    """Christoffels -> Ricci on sympy trees with sp.diff and normalize only."""
    x = g.chart.syms
    gm = sp.Matrix(g.comps)
    det = normalize(gm.det(method="berkowitz"))
    adj = gm.adjugate()
    ginv = [[normalize(adj[a, b] / det) for b in R4] for a in R4]
    gam = [[[normalize(sum(ginv[a][d] * (sp.diff(g.comps[d][c], x[b])
                                         + sp.diff(g.comps[b][d], x[c])
                                         - sp.diff(g.comps[b][c], x[d])) for d in R4) / 2)
             for c in R4] for b in R4] for a in R4]
    return [[normalize(sum(sp.diff(gam[a][d][b], x[a]) - sp.diff(gam[a][a][b], x[d])
                           + sum(gam[a][a][e] * gam[e][d][b] - gam[a][d][e] * gam[e][a][b]
                                 for e in R4) for a in R4))
             for d in R4] for b in R4]


def test_field_curvature_matches_tree_oracle(nontwisting_generic_bg, twisting_exp_bg):
    mixed = build_twisting(0, 0, 0, 0, parse(MIXED_KERNEL_G))
    assert mixed.check_constraints(CFG)[0][1].kind == "proven_zero"
    for bg in (nontwisting_generic_bg, twisting_exp_bg, mixed):
        assert ricci(bg.g).comps == _tree_ricci(bg.g)


def _views(bg):
    g, tet = bg.g, bg.tet
    cu, cp, phi, lam = curvature_spinors(g, tet)
    lp = lax_pair(bg)
    yield from (christoffels(g).comps, riemann(g).comps, riemann_lower(g).comps,
                ricci(g).comps, spin_coefficients(g, tet))
    yield [phi[i][j][k][m] for i, j, k, m in itertools.product(range(2), repeat=4)]
    yield [e.sym for e in (*cu.psi, *cp.psi, lam, *lp.L0, *lp.L1)]


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
