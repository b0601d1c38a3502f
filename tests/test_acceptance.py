"""Acceptance criteria.

Every criterion runs at its stated tolerance and prints one PASS/FAIL line
(plus sub-item lines) so `pytest -v -s tests/test_acceptance.py` doubles as the
acceptance report.  Three `*_as_stated` tests drive the inputs named in the
original requirements (G = z^4, b = x*y, Sparling-Tod H = u*v) and assert what
is mathematically true of them, each backed by an oracle computed in the test
itself; the negative controls those requirements were after live in the
`*_corrected` companion tests.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

from asdnull.construct import (
    build_nontwisting,
    build_ppwave,
    build_twisting,
    endomorphism_check,
    sigma_pullback_residuals,
)
from asdnull.expr import (
    POINT_ERRORS,
    Assignment,
    Expr,
    ExprError,
    SampleConfig,
    is_zero,
    is_zero_all,
    parse,
)
from asdnull.projective import (
    ProjectiveStructure,
    derivative_of_first_order,
    flatness_invariant,
    geodesic_integrate,
    ode_from_connection,
    projective_equivalence_shift,
)
from asdnull.spinor import (
    petrov_classify,
    scalar_invariants,
    szekeres_obstruction,
    weyl_spinors,
)
from asdnull.tensor import (
    conformal_rescale,
    ricci,
    riemann_lower,
    twist_three_form,
    weyl,
)
from asdnull.twistor import integrability_check, lax_pair, lift_killing
from oracles import (
    curvature_reassembly_residuals,
    derivative_matches_fd,
    metric_compatibility_residuals,
)


def _line(criterion, name, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} - {name}: {status}")
    return ok


def test_criterion_1_scalar_invariant_closed_forms(twisting_exp_bg):
    """I and J reproduce the displayed closed forms for
    G = exp(zx - y)/x^2 + z x y^3 with flat ODE data."""
    cfg = SampleConfig(count=20, seed=1, tolerance=1e-9)
    cu, _ = weyl_spinors(twisting_exp_bg.g, twisting_exp_bg.tet)
    I, J = scalar_invariants(cu)
    x, y, z = sp.symbols("x y z")
    B = x * y**3
    Byy = sp.diff(B, y, 2)
    I_closed = sp.Rational(-3, 2) * x * Byy * sp.exp(-3 * (z * x - y))
    J_closed = sp.Rational(3, 8) * x * (
        x * sp.diff(B, y, 2, x, 1) + 3 * Byy + x * z * sp.diff(B, y, 3)
    ) * sp.exp(-4 * (z * x - y))
    ok_i = is_zero(I - Expr(I_closed), cfg).is_zero()
    ok_j = is_zero(J - Expr(J_closed), cfg).is_zero()
    assert _line(1, "I closed form (20 points, 1e-9 relative)", ok_i)
    assert _line(1, "J closed form (20 points, 1e-9 relative)", ok_j)


def _random_poly(rng, symbols, degree=2, terms=3):
    out = sp.S.Zero
    for _ in range(terms):
        term = sp.Rational(rng.randint(-3, 3), rng.randint(1, 4))
        left = degree  # cap the total degree
        for s in symbols:
            d = rng.randint(0, left)
            term *= s**d
            left -= d
        out += term
    return Expr(out)


def test_criterion_2_normal_forms_asd():
    """10 random nontwisting + 5 constraint-satisfying twisting instances are
    anti-self-dual: primed Weyl spinor zero at 50 points, tolerance 1e-10."""
    cfg = SampleConfig(count=50, seed=2, tolerance=1e-10)
    rng = random.Random(20)
    x, y = sp.symbols("x y")
    ok_all = True
    for k in range(10):
        bg = build_nontwisting(*(_random_poly(rng, (x, y)) for _ in range(6)))
        v = bg and weyl_spinors(bg.g, bg.tet)[1].is_zero_verdict(cfg)
        ok_all &= _line(2, f"nontwisting instance {k}", v.is_zero())
    twisting_instances = [
        (0, 0, 0, 0, parse("x*z^3/6 - y*z^2/2")),              # G_zz = zx - y
        (0, 0, 0, 0, parse("x^2*z^4/12 - x*y*z^3/3 + y^2*z^2/2")),  # (zx-y)^2
    ]
    for _ in range(3):
        A = [_random_poly(rng, (x, y)) for _ in range(4)]
        gamma, delta = _random_poly(rng, (x, y)), _random_poly(rng, (x, y))
        G = Expr(sp.Symbol("z") ** 2 / 2 + sp.Symbol("z") * gamma.sym + delta.sym)
        twisting_instances.append((*A, G))
    for k, data in enumerate(twisting_instances):
        bg = build_twisting(*data)
        assert bg.check_constraints(cfg)[0][1].is_zero(), "instance must satisfy the PDE"
        v = weyl_spinors(bg.g, bg.tet)[1].is_zero_verdict(cfg)
        ok_all &= _line(2, f"twisting instance {k}", v.is_zero())
    assert ok_all


def test_criterion_3_twist_dichotomy(nontwisting_generic_bg):
    cfg = SampleConfig(count=50, seed=3, tolerance=1e-10)
    bg = nontwisting_generic_bg
    v = twist_three_form(bg.g, bg.K).zero_verdict(cfg)
    assert _line(3, "nontwisting twist identically zero", v.kind == "proven_zero")
    bgt = build_twisting(0, 0, 0, 0, parse("z^3"))
    vt = twist_three_form(bgt.g, bgt.K).zero_verdict(cfg)
    assert _line(3, "twisting G=z^3 nonzero witness", vt.kind == "nonzero"
                 and vt.witness is not None)


def _consensus_type(bg, seed=4, n=10):
    cu, _ = weyl_spinors(bg.g, bg.tet)
    rng = random.Random(seed)
    names = bg.g.chart.names
    types = set()
    found = 0
    while found < n:
        pt = Assignment({
            nm: Fraction(rng.randint(1, 9) * (1 if rng.random() < 0.5 else -1),
                         rng.randint(1, 9))
            for nm in names
        })
        try:
            types.add(petrov_classify(cu, pt).type)
        except POINT_ERRORS:  # a pole or a degenerate point, as petrov_classify_samples skips
            continue
        found += 1
    return types


def test_criterion_4_petrov_branch_tables(twisting_exp_bg, flat_bg):
    """Branch table; the type-N rows use a generic auxiliary function the
    family leaves free (with every auxiliary zero the Weyl tensor of those
    rows collapses entirely and the type degenerates to O)."""
    rows = [
        ("(6.2) A1=0, A2=x -> III", build_nontwisting(0, parse("x"), 0, 0, 0, 0), "III"),
        ("(6.2) A1=0, A2=y -> N", build_nontwisting(0, parse("y"), 0, 0, 0, parse("x^2")), "N"),
        ("flat-data beta=y^2 -> III", build_nontwisting(0, 0, 0, parse("y^2"), 0, 0), "III"),
        ("flat-data beta=y -> N", build_nontwisting(0, 0, 0, parse("y"), 0, parse("x")), "N"),
        ("flat -> O", flat_bg, "O"),
    ]
    ok_all = True
    for name, bg, expected in rows:
        types = _consensus_type(bg)
        ok_all &= _line(4, f"{name} (10 points)", types == {expected})
    cfg = SampleConfig(count=20, seed=4, tolerance=1e-10)
    cu, _ = weyl_spinors(twisting_exp_bg.g, twisting_exp_bg.tet)
    I, J = scalar_invariants(cu)
    wit1 = is_zero(I**3 - 6 * J * J, cfg)
    wit2 = is_zero(I, cfg)
    ok_all &= _line(4, "exp example neither II nor III",
                    wit1.kind == "nonzero" and wit2.kind == "nonzero")
    assert ok_all


def test_criterion_5_ricci_flat_examples(sparling_uv_bg):
    cfg = SampleConfig(count=30, seed=5, tolerance=1e-10)
    bg = build_ppwave(parse("X^2 + Y^3"))
    v1 = ricci(bg.g).zero_verdict(cfg)
    assert _line(5, "pp-wave Q=X^2+Y^3 Ricci-flat", v1.is_zero())
    v2 = ricci(sparling_uv_bg.g).zero_verdict(cfg)
    assert _line(5, "Sparling-Tod H=uv Ricci-flat", v2.is_zero())


def test_criterion_6_heavenly_consistency(heavenly_ppwave):
    cfg = SampleConfig(count=50, seed=6, tolerance=1e-10)
    bg, hd = heavenly_ppwave
    ok = hd.residual.is_proven_zero()
    assert _line(6, "Theta=X^2 f(Y) heavenly residual ProvenZero", ok)
    f = parse("3*Y^2 - Y")
    bgpp = build_ppwave(Expr(2) * f)
    same = all((bg.g[a, b] - bgpp.g[a, b]).is_proven_zero()
               for a in range(4) for b in range(4))
    assert _line(6, "metric equals build_ppwave(2f)", same)
    v = endomorphism_check(hd.theta, cfg)
    assert _line(6, "endomorphism algebra -I^2=R^2=S^2=Id, IRS=Id", v.is_zero())
    vs = is_zero_all(sigma_pullback_residuals(hd.theta), cfg)
    assert _line(6, "Sigma(pi) matches the pulled-back template", vs.is_zero())


def test_criterion_7_lax_suite(nontwisting_generic_bg, twisting_poly_bg,
                               fefferman_bg):
    cfg = SampleConfig(count=50, seed=7, tolerance=1e-10)
    rng = random.Random(21)
    x, y = sp.symbols("x y")
    ok_all = True
    geoms = [build_nontwisting(*(_random_poly(rng, (x, y), 1) for _ in range(6)))
             for _ in range(3)]
    geoms += [build_twisting(0, 0, 0, 0, parse("x*z^3/6 - y*z^2/2")),
              build_twisting(0, 0, 0, 0,
                             parse("x^2*z^4/12 - x*y*z^3/3 + y^2*z^2/2"))]
    for k, bg in enumerate(geoms):
        res = integrability_check(lax_pair(bg), cfg)
        ok_all &= _line(7, f"integrability instance {k}", res.verdict.is_zero())
    lam = sp.Symbol("lam")
    res = integrability_check(lax_pair(nontwisting_generic_bg), cfg)
    c0 = sp.expand(res.coefficients[0].sym)
    coeff3 = sp.Poly(c0, lam).coeff_monomial(lam**3) if c0 != 0 else 0
    ok_all &= _line(7, "family (1.2) closure coefficient has no lam^3 term",
                    coeff3 == 0)
    for name, bg in (("nontwisting", nontwisting_generic_bg),
                     ("twisting", twisting_poly_bg),
                     ("fefferman", fefferman_bg)):
        kl = lift_killing(bg, cfg)
        ok_all &= _line(7, f"lift_killing = d_t for {name} builder",
                        [str(c) for c in kl.comps] == ["1", "0", "0", "0", "0"])
    assert ok_all


def test_criterion_7_negative_control_g_z4_as_stated():
    """(A = 0, G = z^4) satisfies the transport constraint, so its twistor
    distribution is integrable.

    With A = 0 the transport operator is d_x + z d_y, which annihilates
    G_zz = 12 z^2.  The residual is computed here with sympy, independently of
    the builder, and the integrability verdict must follow it.  The negative
    control (a genuine violation, G = y z^3) is the companion test below."""
    cfg = SampleConfig(count=50, seed=7, tolerance=1e-10)
    G = parse("z^4")
    x, y, z = sp.symbols("x y z")
    G_zz = sp.diff(G.sym, z, 2)
    oracle = sp.expand(sp.diff(G_zz, x) + z * sp.diff(G_zz, y))
    bg = build_twisting(0, 0, 0, 0, G)
    res = integrability_check(lax_pair(bg), cfg)
    assert _line(7, "G=z^4: (d_x + z d_y) G_zz = 0 by direct computation",
                 oracle == 0)
    assert _line(7, "G=z^4: builder transport residual ProvenZero",
                 dict(bg.constraints)["transport"].is_proven_zero())
    assert _line(7, "G=z^4: Lax pair integrable with no witness",
                 res.verdict.is_zero() and res.verdict.witness is None)


def test_criterion_7_negative_control_corrected():
    cfg = SampleConfig(count=50, seed=7, tolerance=1e-10)
    bg = build_twisting(0, 0, 0, 0, parse("y*z^3"))
    res = integrability_check(lax_pair(bg), cfg)
    assert _line(7, "corrected negative control G=y*z^3 fails with witness",
                 res.verdict.kind == "nonzero" and res.verdict.witness is not None)


def test_criterion_8_projective_suite():
    cfg = SampleConfig(count=50, seed=8, tolerance=1e-10)
    flat = ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
    assert _line(8, "flatness invariant ProvenZero for A=0",
                 flatness_invariant(flat).is_proven_zero())
    rng = random.Random(22)
    x, y = sp.symbols("x y")
    ok = True
    for trial in range(5):
        gamma = [[[None, None], [None, None]] for _ in range(2)]
        for i in range(2):
            for j in range(2):
                for k in range(j, 2):
                    gamma[i][j][k] = gamma[i][k][j] = _random_poly(rng, (x, y), 1).sym
        from asdnull.projective import Connection2D

        c = Connection2D.build(("x", "y"), gamma)
        a = [_random_poly(rng, (x, y), 1), _random_poly(rng, (x, y), 1)]
        p1 = ode_from_connection(c)
        p2 = ode_from_connection(projective_equivalence_shift(c, a))
        ok &= all((p1.A[k] - p2.A[k]).is_proven_zero() for k in range(4))
    assert _line(8, "ODE map invariant under 5 random equivalence shifts", ok)
    ps = ProjectiveStructure.build(("x", "y"),
                                   [parse("y"), parse("x"), parse("1/2"), 0])
    ref = geodesic_integrate(ps, (0, 1, 1), 0.4 / 2048, 2048).points[-1]

    def err(n):
        pt = geodesic_integrate(ps, (0, 1, 1), 0.4 / n, n).points[-1]
        return max(abs(u - v) for u, v in zip(pt, ref))

    assert _line(8, "geodesic integrator >= 8x error reduction on halving",
                 err(16) / err(32) >= 8.0)


def test_criterion_8_flatness_witness_b_xy_as_stated():
    """b = x*y gives a flat projective structure.

    The ODE is y'' = x y' + y, which is linear, and every linear second-order
    ODE is point-equivalent to y'' = 0.  For F = A0 + A1 lam with A1 free of y,
    every term of the invariant carries F_lamlam, F_ylam or F_yy, all zero, so
    the invariant must vanish exactly, not just at sample points.  The
    non-flat witness (b = y^2, invariant 16 y) is the companion test below."""
    ps = derivative_of_first_order(parse("x*y"))
    x, y = sp.symbols("x y")
    linear = all(sp.expand(a.sym - e) == 0 for a, e in zip(ps.A, (y, x, 0, 0)))
    assert _line(8, "b=x*y: ODE y'' = x y' + y (A = [y, x, 0, 0], linear)",
                 linear)
    assert _line(8, "b=x*y: A1 free of y", sp.diff(ps.A[1].sym, y) == 0)
    assert _line(8, "b=x*y: flatness invariant ProvenZero",
                 flatness_invariant(ps).is_proven_zero())


def test_criterion_8_flatness_witness_corrected():
    cfg = SampleConfig(count=50, seed=8, tolerance=1e-10)
    inv = flatness_invariant(derivative_of_first_order(parse("y^2")))
    assert _line(8, "corrected flatness witness b=y^2 Nonzero",
                 is_zero(inv, cfg).kind == "nonzero")


def test_criterion_9_szekeres_obstruction_present():
    cfg = SampleConfig(count=50, seed=9, tolerance=1e-10)
    bg = build_nontwisting(0, parse("x^2"), 0, 0, 0, 0)
    result = szekeres_obstruction(bg.g, bg.tet, cfg)
    assert _line(9, "(6.2) A1=0, A2=x^2 obstruction Nonzero", result.obstructed())


def test_criterion_9_sparling_tod_as_stated(sparling_uv_bg):
    """The obstruction reports its type-N precondition on Sparling-Tod H = u*v,
    whose conformal class contains a Ricci-flat metric.

    Every Sparling-Tod metric is type N (Psi_k is proportional to
    (-1)^k Y^(4-k) Z^k times a common scalar for arbitrary H), so by its
    contract the obstruction raises instead of returning an all-zero tensor.
    Ricci-flatness, the content "all-zero" stood for, is read from the
    builder's constraint, and type N is checked without the obstruction code.
    The companion test shows a zero obstruction on a type-III vacuum instance
    where the condition applies."""
    cfg = SampleConfig(count=50, seed=9, tolerance=1e-10)
    bg = sparling_uv_bg
    with pytest.raises(ExprError, match="inapplicable: type is N"):
        szekeres_obstruction(bg.g, bg.tet, cfg)
    _line(9, "Sparling-Tod H=uv: obstruction raises its type-N precondition",
          True)
    assert _line(9, "Sparling-Tod H=uv: ricci_flat constraint ProvenZero",
                 dict(bg.constraints)["ricci_flat"].is_proven_zero())
    cu, _ = weyl_spinors(bg.g, bg.tet)
    _, _, Y, Z = bg.g.chart.syms
    fourth_power = all(sp.cancel(cu.psi[k].sym - cu.psi[0].sym * (-Z / Y)**k) == 0
                       for k in range(1, 5))
    assert _line(9, "Sparling-Tod H=uv: Psi_k = Psi_0 (-Z/Y)^k", fourth_power)
    rng = random.Random(9)
    pt = Assignment({n: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     for n in bg.g.chart.names})
    assert _line(9, "Sparling-Tod H=uv: Petrov type N at a seeded point",
                 petrov_classify(cu, pt).type == "N")


def test_criterion_9_conformally_vacuum_corrected(heavenly_type3):
    cfg = SampleConfig(count=50, seed=9, tolerance=1e-10)
    bg, _ = heavenly_type3
    X, Y, Z = sp.symbols("X Y Z")
    from asdnull.spinor import NullTetrad
    from asdnull.tensor import OneForm

    w = 1 + X**2 / 9 + Z * Y / 7
    g2 = conformal_rescale(bg.g, Expr(w))
    forms = [OneForm(bg.g.chart, bg.tet.theta[i]) for i in range(4)]
    forms[0] = OneForm(bg.g.chart, [w * c for c in bg.tet.theta[0]])
    forms[1] = OneForm(bg.g.chart, [w * c for c in bg.tet.theta[1]])
    tet2 = NullTetrad(g2, forms)
    result = szekeres_obstruction(g2, tet2, cfg)
    assert _line(9, "corrected: conformally-rescaled type-III vacuum all-zero",
                 result.verdict.is_zero())


def test_criterion_10_conformal_flatness_of_special_twisting():
    cfg = SampleConfig(count=50, seed=10, tolerance=1e-10)
    bg = build_twisting(0, 0, 0, 0, parse("z^2/2"))
    rescaled = conformal_rescale(bg.g, Expr(sp.exp(sp.Symbol("t"))))
    v = weyl(rescaled).zero_verdict(cfg)
    assert _line(10, "e^t-rescaled (A=0, G=z^2/2) has vanishing Weyl", v.is_zero())


def test_criterion_11_engine_cross_checks(corpus):
    cfg = SampleConfig(count=50, seed=11, tolerance=1e-10)
    # derivative vs central finite differences on the mixed corpus
    ok = derivative_matches_fd()
    assert _line(11, "symbolic derivatives vs finite differences (1e-6)", ok)
    ok_all = True
    for name, bg in corpus.items():
        ok_all &= is_zero_all(metric_compatibility_residuals(bg.g), cfg).is_zero()
    assert _line(11, "metric compatibility on every corpus metric", ok_all)
    ok_sym = True
    for name in ("ppwave", "twisting_poly", "sparling_uv"):
        rl = riemann_lower(corpus[name].g).comps
        residuals = []
        for a, b, c, d in itertools.product(range(4), repeat=4):
            residuals.append(Expr(rl[a][b][c][d] + rl[b][a][c][d]))
            residuals.append(Expr(rl[a][b][c][d] - rl[c][d][a][b]))
            residuals.append(Expr(rl[a][b][c][d] + rl[a][c][d][b] + rl[a][d][b][c]))
        ok_sym &= is_zero_all(residuals, cfg).is_zero()
    assert _line(11, "Riemann symmetries and first Bianchi identity", ok_sym)
    ok_re = True
    for name, bg in corpus.items():
        ok_re &= is_zero_all(
            curvature_reassembly_residuals(bg.g, bg.tet), cfg).is_zero()
    assert _line(11, "curvature reassembly from spinor parts", ok_re)
