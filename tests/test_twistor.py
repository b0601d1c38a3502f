"""Lax pairs, integrability, Killing lifts, closure coefficients."""

import dataclasses

import sympy as sp

from asdnull.construct import (
    build_nontwisting,
    build_ppwave,
    build_twisting,
)
from asdnull.expr import Expr, SampleConfig, parse
from asdnull.spinor import NullTetrad
from asdnull.tensor import OneForm, VectorField, conformal_rescale
from asdnull.twistor import (
    integrability_check,
    lax_pair,
    lift_commutation_check,
    lift_killing,
    solve_in_span,
)

CFG = SampleConfig()
LAM = sp.Symbol("lam")


def test_flat_lax_pair(flat_bg):
    lp = lax_pair(flat_bg)
    assert [str(c) for c in lp.L0] == ["1", "0", "0", "lam", "0"]
    assert [str(c) for c in lp.L1] == ["0", "1", "lam", "0", "0"]
    res = integrability_check(lp, CFG)
    assert res.verdict.kind == "proven_zero"
    assert all(c.is_proven_zero() for c in res.coefficients)


def test_betazero_lax_matches_displayed_form():
    # beta = 0 family: L0 = d_t + lam d_z with no vertical term and the L1
    # vertical is exactly A0 + lam A1 + lam^2 A2 + lam^3 A3
    A1, A2, A3 = parse("y"), parse("x*y"), parse("x")
    P, Q = parse("x"), parse("y^2")
    bg = build_nontwisting(A1, A2, A3, 0, P, Q)
    lp = lax_pair(bg)
    assert [str(c) for c in lp.L0] == ["1", "0", "0", "lam", "0"]
    expected_vert = (LAM * A1.sym + LAM**2 * A2.sym + LAM**3 * A3.sym)
    assert sp.cancel(lp.L1[4].sym - expected_vert) == 0
    # horizontal parts: d_x + lam d_y + lam D d_t + (E + lam F) d_z
    x, y, z = sp.symbols("x y z")
    D = Q.sym - z * A3.sym
    E = z * A1.sym
    F = z * A2.sym + P.sym
    assert sp.cancel(lp.L1[0].sym - LAM * D) == 0
    assert sp.cancel(lp.L1[1].sym - 1) == 0
    assert sp.cancel(lp.L1[2].sym - LAM) == 0
    assert sp.cancel(lp.L1[3].sym - (E + LAM * F)) == 0


def test_nontwisting_closure_shape():
    # c1 = 0 and c0 = -A3 lam (lam + beta): quadratic, no lam^3 term
    A3, beta = parse("y"), parse("x*y")
    bg = build_nontwisting(parse("x"), parse("x + y"), A3, beta, 0, 0)
    res = integrability_check(lax_pair(bg), CFG)
    assert res.verdict.is_zero()
    c0, c1 = (c.sym for c in res.coefficients)
    assert sp.cancel(c1) == 0
    assert sp.cancel(c0 + A3.sym * LAM * (LAM + beta.sym)) == 0
    poly = sp.Poly(sp.expand(c0), LAM)
    assert poly.degree() <= 2


def test_twisting_lax_integrable(twisting_poly_bg, twisting_exp_bg):
    for bg in (twisting_poly_bg, twisting_exp_bg):
        res = integrability_check(lax_pair(bg), CFG)
        assert res.verdict.is_zero()


def test_twisting_lax_matches_displayed_distribution(twisting_poly_bg):
    # the closed forms L0 = G_zz d_t - z d_z + lam_d d_z and
    # L1 = d_x + lam_d d_y + (A0 + ... + lam_d^3 A3) d_lam_d
    #      + (C + lam_d D) d_t + (A0 + z A1 + z^2 A2 + z^3 A3) d_z
    # live in the fibre chart lam_d = G_zz lam + z; transported to the tetrad
    # chart they must span the computed distribution
    bg = twisting_poly_bg
    x, y, z = sp.symbols("x y z")
    p = {k: v.sym for k, v in bg.params.items()}
    G = p["G"]
    H = sp.diff(G, z, 2)
    Gz = sp.diff(G, z)
    a = [p["A0"], p["A1"], p["A2"], p["A3"]]
    C = -Gz * a[2] - 2 * a[3] * (z * Gz - G) + sp.diff(Gz, y)
    D = -Gz * a[3]
    lam_d = H * LAM + z
    pol_z = a[0] + z * a[1] + z**2 * a[2] + z**3 * a[3]
    pol_lam = a[0] + lam_d * a[1] + lam_d**2 * a[2] + lam_d**3 * a[3]
    # chain rule for lam = (lam_d - z)/H under each displayed field
    L0_disp = [H, 0, 0, H * LAM,
               sp.cancel((0 - H * LAM - LAM * (H * LAM) * sp.diff(H, z)) / H)]
    xH = sp.diff(H, x) + lam_d * sp.diff(H, y) + pol_z * sp.diff(H, z)
    L1_disp = [C + lam_d * D, 1, lam_d, pol_z,
               sp.cancel((pol_lam - pol_z - LAM * xH) / H)]
    lp = lax_pair(bg)
    for disp in (L0_disp, L1_disp):
        res = solve_in_span(lp.vars(), [Expr(sp.cancel(c)) for c in disp],
                            [lp.L0, lp.L1], CFG)
        assert res.verdict.is_zero()


def test_twisting_constraint_violation_fails():
    bg = build_twisting(0, 0, 0, 0, parse("y*z^3"))
    assert bg.check_constraints(CFG)[0][1].kind == "nonzero"
    res = integrability_check(lax_pair(bg), CFG)
    assert res.verdict.kind == "nonzero"
    assert res.verdict.witness is not None


def test_twisting_z4_is_integrable():
    # oracle-computed: G = z^4 with A = 0 satisfies the transport constraint,
    # so its twistor distribution is integrable
    bg = build_twisting(0, 0, 0, 0, parse("z^4"))
    assert bg.check_constraints(CFG)[0][1].kind == "proven_zero"
    res = integrability_check(lax_pair(bg), CFG)
    assert res.verdict.is_zero()


def test_lift_killing_translation_families(nontwisting_generic_bg, twisting_poly_bg,
                                        fefferman_bg):
    for bg in (nontwisting_generic_bg, twisting_poly_bg, fefferman_bg):
        kl = lift_killing(bg, CFG)
        assert [str(c) for c in kl.comps] == ["1", "0", "0", "0", "0"]
        solves = lift_commutation_check(kl, lax_pair(bg), CFG)
        assert all(s.verdict.is_zero() for s in solves)


def test_lift_killing_flat(flat_bg):
    kl = lift_killing(flat_bg, CFG)
    assert [str(c) for c in kl.comps] == ["1", "0", "0", "0", "0"]


def test_lift_ppwave_second_killing_vector():
    bg = build_ppwave(parse("Y^3"))
    K = VectorField(bg.g.chart, [sp.Symbol("Z"), sp.Symbol("Y"), 0, 0])
    bg2 = dataclasses.replace(bg, K=K)
    kl = lift_killing(bg2, CFG)
    assert not Expr(kl.comps[4]).is_proven_zero()  # degenerate phi shows up
    solves = lift_commutation_check(kl, lax_pair(bg2), CFG)
    assert all(s.verdict.is_zero() for s in solves)
    assert any(
        not all(c.is_proven_zero() for c in s.coefficients) for s in solves
    )


def test_lift_commutation_negative_control(nontwisting_generic_bg):
    bg = nontwisting_generic_bg
    lp = lax_pair(bg)
    fake = lift_killing(bg, CFG)
    F = fake.field
    el = (fake.el[0] + F.fold(sp.Symbol("z")), *fake.el[1:])
    bad = dataclasses.replace(fake, comps=[F.expr(c) for c in el], el=el)
    solves = lift_commutation_check(bad, lp, CFG)
    assert any(s.verdict.kind == "nonzero" for s in solves)


def test_conformal_rescale_spans_same_distribution(betazero_a2x_bg):
    bg = betazero_a2x_bg
    x, y = sp.symbols("x y")
    omega = 1 + x**2 / 3 + y**2 / 7
    g2 = conformal_rescale(bg.g, Expr(omega))
    forms = [OneForm(bg.g.chart, bg.tet.theta[i]) for i in range(4)]
    forms[0] = OneForm(bg.g.chart, [omega * c for c in bg.tet.theta[0]])
    forms[1] = OneForm(bg.g.chart, [omega * c for c in bg.tet.theta[1]])
    tet2 = NullTetrad(g2, forms)
    bg2 = dataclasses.replace(bg, g=g2, tet=tet2)
    lp = lax_pair(bg)
    lp2 = lax_pair(bg2)
    for target in (lp2.L0, lp2.L1):
        res = solve_in_span(lp.vars(), target, [lp.L0, lp.L1], CFG)
        assert res.verdict.is_zero()


def test_solve_in_span_numeric_fallback():
    # rank-degenerate pair: all symbolic minors vanish, numeric path decides
    names = ("t", "x", "y", "z", "lam")
    L0 = [Expr(1), Expr(0), Expr(0), Expr(LAM), Expr(0)]
    L0b = [Expr(2), Expr(0), Expr(0), Expr(2 * LAM), Expr(0)]
    target = [Expr(3), Expr(0), Expr(0), Expr(3 * LAM), Expr(0)]
    res = solve_in_span(names, target, [L0, L0b], CFG)
    assert res.method == "numeric"
    assert res.verdict.is_zero()
    bad = [Expr(3), Expr(1), Expr(0), Expr(3 * LAM), Expr(0)]
    res = solve_in_span(names, bad, [L0, L0b], CFG)
    assert res.verdict.kind == "nonzero"
