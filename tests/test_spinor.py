"""Tetrads, curvature spinors, Petrov classification, Killing spinor data,
shear-free identities, and the conformal Ricci-flatness obstruction."""

import random

import pytest
import sympy as sp

from asdnull.expr import (
    Assignment,
    Expr,
    ExprError,
    SampleConfig,
    is_zero,
    is_zero_all,
    parse,
)
from asdnull.construct import build_nontwisting, build_ppwave, build_twisting
from asdnull.spinor import (
    NullTetrad,
    SpinorField,
    check_lemma_identities,
    curvature_reassembly_residuals,
    decompose_two_form,
    killing_decompose,
    killing_reassembly_residuals,
    null_killing_factorize,
    PetrovType,
    petrov_classify,
    petrov_classify_samples,
    principal_direction_check,
    recompose_two_form,
    scalar_invariants,
    spin_coefficient_residuals,
    standard_tetrad,
    szekeres_obstruction,
    type_constraint_check,
    weyl_spinors,
)
from asdnull.tensor import OneForm, TwoForm, VectorField, conformal_rescale

CFG = SampleConfig()
R4 = range(4)
PT = Assignment({"t": 1, "x": 2, "y": 3, "z": 5})


def _rescaled_pair(bg, omega):
    """Conformally rescale a geometry, scaling one coframe form per pair."""
    g2 = conformal_rescale(bg.g, Expr(omega))
    w = Expr(omega).sym
    forms = [OneForm(bg.g.chart, bg.tet.theta[i]) for i in range(4)]
    forms[0] = OneForm(bg.g.chart, [w * c for c in bg.tet.theta[0]])
    forms[1] = OneForm(bg.g.chart, [w * c for c in bg.tet.theta[1]])
    return g2, NullTetrad(g2, forms)


# -- tetrad invariants -------------------------------------------------------------


def test_tetrad_invariants_on_corpus(corpus):
    for name, bg in corpus.items():
        assert is_zero_all(bg.tet.reconstruction_residuals(), CFG).is_zero(), name
        assert is_zero_all(bg.tet.duality_residuals(), CFG).kind == "proven_zero", name
        assert is_zero_all(bg.tet.frame_metric_residuals(), CFG).is_zero(), name


def test_tetrad_rejects_mismatch(flat_bg, ppwave_bg):
    forms = [OneForm(flat_bg.g.chart, ppwave_bg.tet.theta[i]) for i in range(4)]
    with pytest.raises(ExprError):
        NullTetrad(flat_bg.g, forms)


def test_standard_tetrad_families(nontwisting_generic_bg, twisting_poly_bg):
    for bg in (nontwisting_generic_bg, twisting_poly_bg):
        tet = standard_tetrad(bg.g, bg.family, bg.params)
        assert is_zero_all(tet.duality_residuals(), CFG).kind == "proven_zero"


# -- curvature decomposition ---------------------------------------------------------


def test_curvature_reassembly_on_corpus(corpus):
    for name in ("flat", "ppwave", "betazero_a2x", "twisting_poly",
                 "sparling_uv", "heavenly_ppwave"):
        bg = corpus[name]
        res = curvature_reassembly_residuals(bg.g, bg.tet)
        assert is_zero_all(res, CFG).is_zero(), name


def test_spin_coefficient_consistency(corpus):
    for name in ("ppwave", "nontwisting_generic", "twisting_exp"):
        bg = corpus[name]
        assert is_zero_all(spin_coefficient_residuals(bg.g, bg.tet), CFG).is_zero()


def test_flat_weyl_spinors_vanish(flat_bg):
    cu, cp = weyl_spinors(flat_bg.g, flat_bg.tet)
    assert cu.is_zero_verdict(CFG).kind == "proven_zero"
    assert cp.is_zero_verdict(CFG).kind == "proven_zero"


def test_ppwave_primed_vanishes(ppwave_bg):
    _, cp = weyl_spinors(ppwave_bg.g, ppwave_bg.tet)
    assert cp.is_zero_verdict(CFG).kind == "proven_zero"


def test_two_form_decomposition_round_trip(nontwisting_generic_bg):
    bg = nontwisting_generic_bg
    rng = random.Random(3)
    syms = bg.g.chart.syms
    for trial in range(10):
        comps = [[sp.S.Zero] * 4 for _ in R4]
        for a in R4:
            for b in range(a + 1, 4):
                v = sp.Rational(rng.randint(-5, 5), rng.randint(1, 5))
                if rng.random() < 0.5:
                    v = v * syms[rng.randint(0, 3)]
                comps[a][b] = v
                comps[b][a] = -v
        F = TwoForm(bg.g.chart, comps)
        phi, psi = decompose_two_form(bg.tet, F)
        back = recompose_two_form(bg.tet, phi, psi)
        residuals = [Expr(back.comps[a][b] - F.comps[a][b]) for a in R4 for b in R4]
        assert is_zero_all(residuals, CFG).is_zero(), trial


# -- Petrov classification ----------------------------------------------------------


def test_petrov_branches_betazero():
    # A1 = 0 branch: III iff (A2)_x != 0; with (A2)_x = 0 the type is N for
    # generic remaining data and degenerates to O when everything else is zero
    bg = build_nontwisting(0, parse("x"), 0, 0, 0, 0)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert petrov_classify(cu, PT).type == "III"
    bg = build_nontwisting(0, parse("y"), 0, 0, 0, parse("x^2"))
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert petrov_classify(cu, PT).type == "N"
    bg = build_nontwisting(0, parse("y"), 0, 0, 0, 0)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert petrov_classify(cu, PT).type == "O"


def test_petrov_branches_flat_projective_beta():
    bg = build_nontwisting(0, 0, 0, parse("y^2"), 0, 0)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert petrov_classify(cu, PT).type == "III"
    bg = build_nontwisting(0, 0, 0, parse("y"), 0, parse("x"))
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert petrov_classify(cu, PT).type == "N"


def test_betazero_structural_formulas():
    # frozen symbolic structure: Psi3 = (A2)_x / 4 for the A1 = 0 branch,
    # Psi3 = (3/4) beta_yy for the flat-data beta branch
    x, y = sp.symbols("x y")
    a2 = sp.Function("a2")(x, y)
    bg = build_nontwisting(0, Expr(a2), 0, 0, 0, 0)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert sp.simplify(cu.psi[3].sym - sp.diff(a2, x) / 4) == 0
    b = sp.Function("b")(x, y)
    bg = build_nontwisting(0, 0, 0, Expr(b), 0, 0)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    assert sp.simplify(cu.psi[3].sym - sp.Rational(3, 4) * sp.diff(b, y, 2)) == 0


@pytest.mark.parametrize("kinds", [["III", "N", "III", "N"], ["N", "III", "N", "III"]])
def test_petrov_consensus_tie_goes_to_first_type(kinds, monkeypatch, betazero_a2x_bg):
    votes = iter(kinds)
    monkeypatch.setattr("asdnull.spinor.petrov_classify",
                        lambda w, pt, tol: PetrovType(next(votes), None))
    cu, _ = weyl_spinors(betazero_a2x_bg.g, betazero_a2x_bg.tet)
    consensus, results, mixed = petrov_classify_samples(cu, [PT] * 4)
    assert consensus == kinds[0] and mixed and len(results) == 4


def test_petrov_samples_propagate_programming_errors(monkeypatch, betazero_a2x_bg):
    def broken(w, pt, tol):
        raise TypeError("bug inside the classifier")

    monkeypatch.setattr("asdnull.spinor.petrov_classify", broken)
    cu, _ = weyl_spinors(betazero_a2x_bg.g, betazero_a2x_bg.tet)
    with pytest.raises(TypeError, match="bug inside"):
        petrov_classify_samples(cu, [PT])


def test_petrov_zero_is_O(flat_bg):
    cu, _ = weyl_spinors(flat_bg.g, flat_bg.tet)
    assert petrov_classify(cu, PT).type == "O"


def test_petrov_conformally_invariant(betazero_a2x_bg):
    bg = betazero_a2x_bg
    cu, _ = weyl_spinors(bg.g, bg.tet)
    base = petrov_classify(cu, PT).type
    x, y, z = sp.symbols("x y z")
    rng = random.Random(7)
    for trial in range(5):
        omega = 1 + sp.Rational(rng.randint(1, 3), rng.randint(2, 7)) * x**2 \
            + sp.Rational(rng.randint(1, 3), rng.randint(2, 7)) * y * z
        g2, tet2 = _rescaled_pair(bg, omega)
        cu2, _ = weyl_spinors(g2, tet2)
        assert petrov_classify(cu2, PT).type == base


def test_invariants_vanish_for_special_types(betazero_a2x_bg, ppwave_bg, flat_bg):
    # I = J = 0 whenever the type is III, N, or O
    for bg in (betazero_a2x_bg, ppwave_bg, flat_bg):
        cu, _ = weyl_spinors(bg.g, bg.tet)
        I, J = scalar_invariants(cu)
        assert I.is_proven_zero() and J.is_proven_zero()


def test_scalar_invariants_closed_form(twisting_exp_bg):
    # G = exp(zx - y)/x^2 + z B with B = x y^3
    cu, cp = weyl_spinors(twisting_exp_bg.g, twisting_exp_bg.tet)
    assert cp.is_zero_verdict(CFG).kind == "proven_zero"
    I, J = scalar_invariants(cu)
    x, y, z = sp.symbols("x y z")
    B = x * y**3
    Byy = sp.diff(B, y, 2)
    I_closed = sp.Rational(-3, 2) * x * Byy * sp.exp(-3 * (z * x - y))
    J_closed = sp.Rational(3, 8) * x * (
        x * sp.diff(B, y, 2, x, 1) + 3 * Byy + x * z * sp.diff(B, y, 3)
    ) * sp.exp(-4 * (z * x - y))
    cfg = SampleConfig(count=20, seed=3, tolerance=1e-9)
    assert is_zero(I - Expr(I_closed), cfg).is_zero()
    assert is_zero(J - Expr(J_closed), cfg).is_zero()
    # neither type II nor type III at a witness point
    assert is_zero(I**3 - 6 * J * J, cfg).kind == "nonzero"
    assert is_zero(I, cfg).kind == "nonzero"


# -- Killing spinor data -----------------------------------------------------------


def test_killing_decompose_flat(flat_bg):
    data = killing_decompose(flat_bg.g, flat_bg.tet, flat_bg.K, CFG)
    assert data.eta.is_proven_zero()
    assert all(c.is_proven_zero() for c in data.phi + data.psi)


def test_killing_decompose_family(nontwisting_generic_bg):
    bg = nontwisting_generic_bg
    data = killing_decompose(bg.g, bg.tet, bg.K, CFG)
    assert data.eta.is_proven_zero()  # pure Killing
    res = killing_reassembly_residuals(bg.g, bg.tet, bg.K, data)
    assert is_zero_all(res, CFG).kind == "proven_zero"


def test_killing_decompose_ppwave_second_vector():
    bg = build_ppwave(parse("Y^3"))  # X-independent so Y d_X + Z d_T is Killing
    K = VectorField(bg.g.chart, [sp.Symbol("Z"), sp.Symbol("Y"), 0, 0])
    data = killing_decompose(bg.g, bg.tet, K, CFG)
    assert data.eta.is_proven_zero()
    # phi degenerate: phi_{A'B'} o^{A'} o^{B'} = 0 with o = (1, 0) and
    # det phi = 0 (the o x o case)
    assert data.phi_comp(0, 0).is_proven_zero()
    det = data.phi_comp(0, 0) * data.phi_comp(1, 1) - data.phi_comp(0, 1) ** 2
    assert det.is_proven_zero()
    assert not all(c.is_proven_zero() for c in data.phi)


def test_killing_decompose_rejects_non_killing(flat_bg):
    K = VectorField(flat_bg.g.chart, [1, 0, sp.Symbol("z"), 0])
    with pytest.raises(ExprError):
        killing_decompose(flat_bg.g, flat_bg.tet, K, CFG)


def test_null_factorization(nontwisting_generic_bg, flat_bg):
    bg = nontwisting_generic_bg
    iota, o = null_killing_factorize(bg.g, bg.tet, bg.K, CFG)
    assert [str(c) for c in iota.comps] == ["1", "0"]
    assert [str(c) for c in o.comps] == ["1", "0"]
    iota, o = null_killing_factorize(flat_bg.g, flat_bg.tet, flat_bg.K, CFG)
    assert [str(c) for c in iota.comps] == ["1", "0"]


def test_null_factorization_rejects_non_null():
    g_bg = build_ppwave(Expr(0))
    T, Y = sp.Symbol("T"), sp.Symbol("Y")
    K = VectorField(g_bg.g.chart, [T, 0, -Y, 0])  # T d_T - Y d_Y, g(K,K) != 0
    with pytest.raises(ExprError):
        null_killing_factorize(g_bg.g, g_bg.tet, K, CFG)


def test_lemma_identities(ppwave_bg, corpus):
    report = check_lemma_identities(ppwave_bg.g, ppwave_bg.tet, ppwave_bg.K, CFG)
    assert all(v.is_zero() for v in report.values())
    bg = build_twisting(0, 0, 0, 0, parse("z^2/2"))
    report = check_lemma_identities(bg.g, bg.tet, bg.K, CFG)
    assert all(v.is_zero() for v in report.values())


def test_lemma_identities_negative_control(nontwisting_generic_bg):
    bg = nontwisting_generic_bg
    K = VectorField(bg.g.chart, [1, 0, 0, sp.Symbol("t")])
    with pytest.raises(ExprError):
        check_lemma_identities(bg.g, bg.tet, K, CFG)


# -- principal directions ------------------------------------------------------------


def test_principal_direction_twist_free(betazero_a2x_bg):
    bg = betazero_a2x_bg
    cu, _ = weyl_spinors(bg.g, bg.tet)
    iota, _ = null_killing_factorize(bg.g, bg.tet, bg.K, CFG)
    assert principal_direction_check(cu, iota, CFG).is_zero()
    assert type_constraint_check(cu, iota, CFG).is_zero()


def test_principal_direction_twisting_example(twisting_exp_bg):
    bg = twisting_exp_bg
    cu, _ = weyl_spinors(bg.g, bg.tet)
    iota, _ = null_killing_factorize(bg.g, bg.tet, bg.K, CFG)
    assert principal_direction_check(cu, iota, CFG).is_zero()
    v = type_constraint_check(cu, iota, CFG)
    assert v.kind == "nonzero"  # twisting: not type III/N despite iota principal


def test_zero_weyl_trivially_principal(flat_bg):
    cu, _ = weyl_spinors(flat_bg.g, flat_bg.tet)
    iota = SpinorField((Expr(1), Expr(0)))
    assert principal_direction_check(cu, iota, CFG).kind == "proven_zero"
    assert type_constraint_check(cu, iota, CFG).kind == "proven_zero"


# -- Szekeres obstruction ------------------------------------------------------------


def test_szekeres_obstructed_a2_x_squared():
    bg = build_nontwisting(0, parse("x^2"), 0, 0, 0, 0)
    result = szekeres_obstruction(bg.g, bg.tet, CFG)
    assert result.obstructed()
    assert result.gradient_curl is not None  # eliminability passes, curl fails
    assert sp.cancel(result.gradient_curl.comps[1][2] + 5 * sp.Symbol("x")) == 0


def test_szekeres_recorded_a2_x():
    bg = build_nontwisting(0, parse("x"), 0, 0, 0, 0)
    result = szekeres_obstruction(bg.g, bg.tet, CFG)
    # recorded behaviour: this class is also obstructed (curl stage)
    assert result.obstructed()


def test_szekeres_zero_on_conformally_vacuum(heavenly_type3):
    bg, hd = heavenly_type3
    assert hd.residual.is_proven_zero()
    result = szekeres_obstruction(bg.g, bg.tet, CFG)
    assert result.verdict.is_zero()
    X, Y, Z = sp.symbols("X Y Z")
    g2, tet2 = _rescaled_pair(bg, 1 + X**2 / 9 + Z * Y / 7)
    result = szekeres_obstruction(g2, tet2, CFG)
    assert result.verdict.is_zero()


def test_szekeres_inapplicable_type_n(ppwave_bg, sparling_uv_bg, flat_bg):
    for bg in (ppwave_bg, sparling_uv_bg, flat_bg):
        with pytest.raises(ExprError):
            szekeres_obstruction(bg.g, bg.tet, CFG)


def test_szekeres_conformally_invariant_verdict():
    bg = build_nontwisting(0, parse("x^2"), 0, 0, 0, 0)
    x, y = sp.Symbol("x"), sp.Symbol("y")
    g2, tet2 = _rescaled_pair(bg, 1 + x**2 / 7 + y**2 / 5)
    result = szekeres_obstruction(g2, tet2, CFG)
    assert result.obstructed()
