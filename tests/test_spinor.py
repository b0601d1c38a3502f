"""Tetrads, curvature spinors, Petrov classification, Killing spinor data,
shear-free identities, and the conformal Ricci-flatness obstruction."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from asdnull.cli import load_model
from asdnull.expr import (
    Assignment,
    Expr,
    ExprError,
    Field,
    SampleConfig,
    evaluate,
    is_zero,
    is_zero_all,
    normalize,
    parse,
    random_points,
)
from asdnull.construct import (
    build_flat,
    build_nontwisting,
    build_ppwave,
    build_sparling_tod,
    build_twisting,
)
from asdnull.tensor import _frame_curvature
from asdnull.spinor import (
    _conformal_killing,
    _curvature_spinor_forms,
    _curvature_spinors,
    _frame_rank2,
    _split_frame_two_form,
    NullTetrad,
    SpinorField,
    check_lemma_identities,
    curvature_spinors,
    killing_decompose,
    null_killing_factorize,
    PetrovType,
    petrov_classify,
    petrov_classify_samples,
    principal_direction_check,
    scalar_invariants,
    spin_coefficients,
    standard_tetrad,
    szekeres_obstruction,
    tetrad_ricci,
    type_constraint_check,
    weyl_divergence_spinor,
    weyl_spinors,
)
from asdnull.tensor import (
    OneForm,
    VectorField,
    _comps_el,
    conformal_rescale,
    ricci,
    scalar_curvature,
)
from oracles import (
    contracted_curvature_spinors,
    curvature_reassembly_residuals,
    duality_residuals,
    frame_metric_residuals,
    frame_riemann,
    killing_reassembly_residuals,
    phi_comp,
    recompose_two_form,
    spin_coefficient_residuals,
    tree_frame_connection,
    tree_evaluate,
    tree_killing,
    tree_ricci,
    tree_scalar_curvature,
    tree_weyl_divergence,
    vector_components,
)

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
        assert is_zero_all(duality_residuals(bg.tet), CFG).kind == "proven_zero", name
        assert is_zero_all(frame_metric_residuals(bg.tet), CFG).is_zero(), name


def test_tetrad_rejects_mismatch(flat_bg, ppwave_bg):
    forms = [OneForm(flat_bg.g.chart, ppwave_bg.tet.theta[i]) for i in range(4)]
    with pytest.raises(ExprError):
        NullTetrad(flat_bg.g, forms)


def test_standard_tetrad_families(nontwisting_generic_bg, twisting_poly_bg):
    for bg in (nontwisting_generic_bg, twisting_poly_bg):
        tet = standard_tetrad(bg.g, bg.family, bg.params)
        assert is_zero_all(duality_residuals(tet), CFG).kind == "proven_zero"


# -- curvature decomposition ---------------------------------------------------------


def test_curvature_reassembly_on_corpus(corpus):
    for name in ("flat", "ppwave", "betazero_a2x", "twisting_poly",
                 "sparling_uv", "heavenly_ppwave"):
        bg = corpus[name]
        res = curvature_reassembly_residuals(bg.g, bg.tet)
        assert is_zero_all(res, CFG).is_zero(), name


def _riemann_nest(pairs: dict) -> list:
    """A frame Riemann nest over Fractions from its components on pairs
    i<j <= k<l, filled in by pair antisymmetry and pair symmetry."""
    R = [[[[Fraction(0)] * 4 for _ in R4] for _ in R4] for _ in R4]
    for ((i, j), (k, m)), v in pairs.items():
        for a, b, c, d in ((i, j, k, m), (k, m, i, j)):
            R[a][b][c][d], R[b][a][c][d], R[a][b][d][c], R[b][a][d][c] = v, -v, -v, v
    return R


def test_curvature_spinor_forms_match_contractions_on_units():
    """The closed forms equal the eps-contractions on each of the 21 unit
    frame Riemann components and on a seeded rational one, Bianchi or not."""
    pairs = list(itertools.combinations(R4, 2))
    units = [(p, q) for n, p in enumerate(pairs) for q in pairs[n:]]
    assert len(units) == 21
    zero = Fraction(0)
    for unit in units:
        R = _riemann_nest({unit: Fraction(1)})
        assert _curvature_spinor_forms(R, zero) == contracted_curvature_spinors(R, zero), unit
    rng = random.Random(22)
    R = _riemann_nest({u: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for u in units})
    assert _curvature_spinor_forms(R, zero) == contracted_curvature_spinors(R, zero)


def _polynomial_members(seed: int) -> list:
    """Seeded nontwisting, twisting, pp-wave and Sparling-Tod members with
    polynomial inputs of degree 0 to 2."""
    rng = random.Random(seed)

    def poly(names: str) -> str:
        monos = ["1", *names, *(a + "*" + b for a, b in
                                itertools.combinations_with_replacement(names, 2))]
        return " + ".join(f"{rng.randint(-3, 3)}*{m}" for m in rng.sample(monos, 2))

    out = []
    for _ in range(2):
        out += [
            build_nontwisting(*(parse(poly("xy")) for _ in range(6))),
            build_twisting(*(parse(poly("xy")) for _ in range(4)),
                           parse(f"z^2/2 + ({poly('xy')})*z")),
            build_ppwave(parse(poly("XY") + " + X^2*Y")),
            build_sparling_tod(parse(poly("uv") + " + u*v")),
        ]
    return out


def test_curvature_spinor_forms_match_contractions_on_corpus(corpus):
    """Every curvature-spinor element of the corpus and of seeded family
    members is the element the eps-contractions give from the same frame
    Riemann, also when read back after the field grew."""
    nonzero = 0
    for name, bg in [*corpus.items(), *enumerate(_polynomial_members(22))]:
        F = bg.g.field
        cu, cp, _, _ = curvature_spinors(bg.g, bg.tet)
        F.fold(sp.Symbol("w"))  # the memos read next must move into the grown field
        want = contracted_curvature_spinors(_frame_curvature(bg.tet)[1], F.K.zero)
        assert _curvature_spinors(bg.g, bg.tet) == want, name
        assert F.up((cu.el, cp.el)) == want[:2], name
        phi = [c for a in want[2] for b in a for row in b for c in row]
        nonzero += any(want[0]) + any(want[1]) + any(phi) + bool(want[3])
    assert nonzero >= 20


def test_frame_curvature_matches_coordinate_route_on_corpus(corpus):
    """Cartan's frame Riemann and frame connection equal the coordinate
    Riemann projected onto the frame and the connection built from tree
    Christoffels."""
    for name, bg in corpus.items():
        _, R = _frame_curvature(bg.tet)
        oracle_r, oracle_nab = frame_riemann(bg.g, bg.tet), tree_frame_connection(bg.g, bg.tet)
        nab = spin_coefficients(bg.g, bg.tet)[2]
        pairs = list(itertools.combinations(R4, 2))  # both sides are pair-antisymmetric
        res = [Expr(normalize(R[i][j][k][m].as_expr() - oracle_r[i][j][k][m]))
               for (i, j), (k, m) in itertools.product(pairs, repeat=2)]
        res += [Expr(normalize(nab[i][j][k] - oracle_nab[i][j][k]))
                for i, j, k in itertools.product(R4, repeat=3)]
        assert is_zero_all(res, CFG).is_zero(), name


def test_tetrad_ricci_matches_coordinate_route(nontwisting_generic_bg, ppwave_bg):
    """Where the Ricci tensor does not vanish, the one rebuilt from the frame
    Riemann equals the coordinate Ricci and the tree oracle's, and
    R = 24 Lambda equals the coordinate scalar curvature and the tree one."""
    g2, tet2 = _rescaled_pair(nontwisting_generic_bg, parse("1 + x^2 + y*z"))
    assert not scalar_curvature(g2).is_proven_zero()
    for g, tet in ((g2, tet2), (ppwave_bg.g, ppwave_bg.tet)):
        ric, scal = tetrad_ricci(g, tet)
        assert ric.comps == ricci(g).comps == tree_ricci(g)
        assert scal.normal == scalar_curvature(g).normal == tree_scalar_curvature(g)


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


def _decompose_two_form(tet, F):
    """F_ab, as trees, -> (phi_{A'B'} self-dual, psi_{AB} anti-self-dual) in
    the tetrad, by the package's frame projection and split."""
    fld = tet.g.field
    ff = _frame_rank2(tet, [_comps_el(fld, row) for row in F])
    return tuple([c.as_expr() for c in part] for part in _split_frame_two_form(ff))


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
        phi, psi = _decompose_two_form(bg.tet, comps)
        back = recompose_two_form(bg.tet, phi, psi)
        residuals = [Expr(back[a][b] - comps[a][b]) for a in R4 for b in R4]
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
                        lambda w, pt: PetrovType(next(votes), None))
    cu, _ = weyl_spinors(betazero_a2x_bg.g, betazero_a2x_bg.tet)
    consensus, results, mixed = petrov_classify_samples(cu, [PT] * 4)
    assert consensus == kinds[0] and mixed and len(results) == 4


def test_petrov_samples_propagate_programming_errors(monkeypatch, betazero_a2x_bg):
    def broken(w, pt):
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


def _outcome(fn):
    """(type, repr) of fn()'s value, or its ExprError's type and message."""
    try:
        v = fn()
    except ExprError as ex:
        return type(ex).__name__, str(ex)
    return type(v).__name__, repr(v)


def _both_routes(F, el, at):
    """evaluate of an Expr holding the element and the tree route's value of
    its view (`oracles.tree_evaluate`), each an outcome."""
    return (_outcome(lambda: evaluate(F.expr(el), at)),
            _outcome(lambda: tree_evaluate(F.view(el), at)))


def test_field_evaluation_matches_tree_route(corpus):
    """Every Weyl spinor and metric component of the corpus and the models
    takes the same value (or the same error) from its element as from its
    view, at seeded rational points."""
    models = Path(__file__).resolve().parent.parent / "models"
    geometries = list(corpus.values())
    geometries += [m.geometry for m in map(load_model, sorted(models.glob("*.json")))
                   if m.geometry is not None]
    kinds = Counter()
    for seed, bg in enumerate(geometries):
        cu, cp = weyl_spinors(bg.g, bg.tet)
        F = bg.g.field
        els = [*cu.el, *cp.el, *(bg.g.el[a][b] for a in R4 for b in range(a, 4))]
        for at in itertools.islice(random_points(bg.g.chart.names, seed), 3):
            for el in els:
                new, old = _both_routes(F, el, at)
                assert new == old, (bg.family, at, F.view(el))
                kinds[new[0]] += 1
    assert kinds["Fraction"] and kinds["float"]  # twisting_exp holds exp gens


def test_field_evaluation_edges(sparling_uv_bg, twisting_exp_bg):
    """A pole, a missing symbol, a kernel gen and an undefined function give
    the tree route's message or float; an undefined function's derivative
    has no value at an exact point either, and is named as the float route
    names it."""
    cu, _ = weyl_spinors(sparling_uv_bg.g, sparling_uv_bg.tet)
    pole = Assignment({"T": 1, "X": 1, "Y": 2, "Z": 2})  # T Y = X Z
    seen = set()
    for el in cu.el:
        for at in (pole, Assignment({"T": 1, "X": 1, "Y": 2})):
            new, old = _both_routes(cu.field, el, at)
            assert new == old, at
            seen.add(new[1])
    assert {"division by zero at the point", "unassigned symbols: ['Z']"} <= seen
    cu, _ = weyl_spinors(twisting_exp_bg.g, twisting_exp_bg.tet)
    at = Assignment({"t": 1, "x": Fraction(2, 3), "y": 3, "z": -5})
    floats = [_both_routes(cu.field, el, at) for el in cu.el]
    assert all(new == old for new, old in floats)
    assert any(new[0] == "float" for new, _ in floats)
    a2 = sp.Function("a2")(*sp.symbols("x y"))
    bg = build_nontwisting(0, Expr(a2), 0, 0, 0, 0)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    new, old = _both_routes(cu.field, cu.el[3], PT)
    assert new == old and new[0] == "ExprError", new
    assert new[1].startswith("cannot sample Derivative(a2(x, y), x): "), new


def test_field_evaluation_of_an_element_older_than_its_field(monkeypatch):
    """An element made before its field grew is read by its own field's gens,
    and petrov_classify reads it there, making no view."""
    bg = build_ppwave(parse("X^3*Y + Y^4"))
    cu, _ = weyl_spinors(bg.g, bg.tet)
    F, at = cu.field, Assignment({"T": 2, "X": Fraction(-1, 3), "Y": 5, "Z": 7})
    assert any(F.view(el).free_symbols for el in cu.el)
    before = [evaluate(F.expr(el), at) for el in cu.el]
    K = F.K
    A, X = sp.symbols("A X")
    F.fold(A + sp.exp(A * X))  # A sorts first: every gen index shifts
    assert F.K != K and F.K.symbols[0] == A
    assert all(el.field == K for el in cu.el)
    assert [evaluate(F.expr(el), at) for el in cu.el] == before
    for el in cu.el:
        new, old = _both_routes(F, el, at)
        assert new == old
    views = []
    monkeypatch.setattr(Field, "view", staticmethod(lambda el: views.append(el) or el.as_expr()))
    assert petrov_classify(cu, at).type == "N" and not views  # not moved into F.K


def test_petrov_classify_evaluates_no_tree(sparling_uv_bg, monkeypatch):
    """Sparling-Tod's type at an exact point comes from its elements: no
    sympy subs, cancel or field view."""
    cu, _ = weyl_spinors(sparling_uv_bg.g, sparling_uv_bg.tet)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp.Basic, "subs", counted("subs", sp.Basic.subs))
    monkeypatch.setattr(sp, "cancel", counted("cancel", sp.cancel))
    monkeypatch.setattr(Field, "view", staticmethod(counted("view", Field.view)))
    at = Assignment({"T": Fraction(1, 2), "X": 1, "Y": Fraction(3, 2), "Z": 2})
    assert petrov_classify(cu, at).type == "N"
    assert not calls, calls


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
    assert phi_comp(data, 0, 0).is_proven_zero()
    det = phi_comp(data, 0, 0) * phi_comp(data, 1, 1) - phi_comp(data, 0, 1) ** 2
    assert det.is_proven_zero()
    assert not all(c.is_proven_zero() for c in data.phi)


def test_killing_decompose_rejects_non_killing(flat_bg):
    K = VectorField(flat_bg.g.chart, [1, 0, sp.Symbol("z"), 0])
    with pytest.raises(ExprError):
        killing_decompose(flat_bg.g, flat_bg.tet, K, CFG)


def _killing_cases(corpus):
    for name, bg in corpus.items():
        if bg.K is not None:
            yield name, bg, bg.K, True
    pp = build_ppwave(parse("Y^3"))  # X-independent so Y d_X + Z d_T is Killing
    Y, Z = sp.symbols("Y Z")
    yield "ppwave_second", pp, VectorField(pp.g.chart, [Z, Y, 0, 0]), True
    flat = build_flat()  # exp(x) is no gen of the flat metric's field
    yield "flat_exp", flat, VectorField(flat.g.chart, [sp.exp(sp.Symbol("x")), 0, 0, 0]), False


def test_killing_data_matches_tree_oracle(corpus):
    """nabla K, eta, K^{AA'}, phi and psi from the metric's field equal their
    tree computation term for term; a K with a gen the metric lacks grows the
    field and is still rejected with a witness."""
    for name, bg, K, killing in _killing_cases(corpus):
        g, tet = bg.g, bg.tet
        nk, eta, kaa, ff = tree_killing(g, tet, K)
        _, eta_el, nk_el = _conformal_killing(g, K)
        assert [[Field.view(c) for c in row] for row in nk_el] == nk, name
        assert Field.view(eta_el) == eta, name
        assert vector_components(tet, K) == kaa, name
        if not killing:
            assert sp.exp(sp.Symbol("x")) in g.field.K.symbols
            with pytest.raises(ExprError, match="not a conformal Killing vector: nonzero .* at "):
                killing_decompose(g, tet, K, CFG)
            continue
        data = killing_decompose(g, tet, K, CFG)
        pairs = ((0, 0), (0, 1), (1, 1))
        phi = [normalize((ff[Ap][2 + Bp] - ff[2 + Ap][Bp]) / 2) for Ap, Bp in pairs]
        psi = [normalize((ff[2 * A][2 * B + 1] - ff[2 * A + 1][2 * B]) / 2) for A, B in pairs]
        assert [c.sym for c in data.phi] == phi, name
        assert [c.sym for c in data.psi] == psi, name
        assert data.eta.sym == eta, name


def test_killing_spinors_are_memoized_only_on_success():
    """A K that fails the conformal Killing test raises the same error on
    every call; a Killing K's spinors are computed once per tetrad and cfg."""
    bg = build_flat()
    bad = VectorField(bg.g.chart, [sp.Symbol("x") ** 2, 0, 0, 0])
    errors = []
    for _ in range(2):
        with pytest.raises(ExprError, match="not a conformal Killing vector") as ex:
            killing_decompose(bg.g, bg.tet, bad, CFG)
        errors.append(str(ex.value))
    assert errors[0] == errors[1]
    first = killing_decompose(bg.g, bg.tet, bg.K, CFG)
    assert killing_decompose(bg.g, bg.tet, bg.K, CFG) == first
    keys = [k for k in bg.tet._coeff_cache if isinstance(k, tuple)]
    assert [k[:2] for k in keys] == [("killing_spinors", CFG)]


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


def test_weyl_divergence_matches_tree_oracle(corpus, heavenly_type3):
    bg = heavenly_type3[0]
    X, Y, Z = sp.symbols("X Y Z")
    geometries = [(name, b.g, b.tet) for name, b in corpus.items()]
    geometries += [("heavenly_type3", bg.g, bg.tet),
                   ("heavenly_type3_rescaled", *_rescaled_pair(bg, 1 + X**2 / 9 + Z * Y / 7))]
    for name, g, tet in geometries:
        spin_coefficients(g, tet)
        g.field.fold(sp.Symbol("w"))  # the memos read next must move into the grown field
        assert weyl_divergence_spinor(g, tet) == tree_weyl_divergence(g, tet), name


_X, _Y = sp.symbols("x y")


@pytest.mark.parametrize("bad", [sp.zoo * _X, _X / ((_Y + 1)**2 - _Y**2 - 2 * _Y - 1)],
                         ids=["zoo", "zero_divisor"])
def test_singular_coframe_component_is_a_typed_error(bad):
    """A coframe component that divides by zero is rejected by name."""
    g = build_flat().g
    rows = [list(r) for r in build_flat().tet.theta]
    rows[2][3] = bad
    with pytest.raises(ExprError, match="singular") as info:
        NullTetrad(g, [OneForm(g.chart, r) for r in rows])
    assert str(bad) in str(info.value)
