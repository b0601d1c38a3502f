"""Projective structures: connection/ODE dictionary, equivalence, flatness
obstruction, geodesic integration."""

import random
from pathlib import Path

import pytest
import sympy as sp

from asdnull.cli import load_model
from asdnull.expr import Expr, ExprError, SampleConfig, is_zero, normalize, parse
from asdnull.projective import (
    Connection2D,
    ProjectiveStructure,
    derivative_of_first_order,
    flatness_invariant,
    geodesic_integrate,
    ode_from_connection,
    projective_equivalence_shift,
    spray,
)
from oracles import tree_flatness_invariant, tree_liouville_invariant, tuple_geodesic

CFG = SampleConfig()
X, Y = sp.symbols("x y")
MODELS = Path(__file__).resolve().parent.parent / "models"


def _random_connection(rng):
    def poly():
        return sum(sp.Rational(rng.randint(-3, 3), rng.randint(1, 4))
                   * X**rng.randint(0, 2) * Y**rng.randint(0, 2)
                   for _ in range(2))

    gamma = [[[None, None], [None, None]] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for k in range(j, 2):
                gamma[i][j][k] = gamma[i][k][j] = poly()
    return Connection2D.build(("x", "y"), gamma)


def test_ode_from_zero_connection():
    c = Connection2D.build(("x", "y"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    ps = ode_from_connection(c)
    assert all(Expr(a).is_proven_zero() for a in ps.A)


def test_ode_single_gamma_component():
    q = X * Y**2
    gamma = [[[0, 0], [0, 0]], [[-q, 0], [0, 0]]]  # Gamma^y_xx = -q
    ps = ode_from_connection(Connection2D.build(("x", "y"), gamma))
    assert (ps.A[0] - Expr(q)).is_proven_zero()
    assert all(Expr(a).is_proven_zero() for a in ps.A[1:])


def test_equivalence_shift_group_properties():
    rng = random.Random(1)
    c = _random_connection(rng)
    zero = projective_equivalence_shift(c, [0, 0])
    assert all(
        (zero.gamma[i][j][k] - c.gamma[i][j][k]).is_proven_zero()
        for i in range(2) for j in range(2) for k in range(2)
    )
    a = [Expr(X * Y), Expr(Y**2)]
    back = projective_equivalence_shift(
        projective_equivalence_shift(c, a), [-a[0], -a[1]])
    assert all(
        (back.gamma[i][j][k] - c.gamma[i][j][k]).is_proven_zero()
        for i in range(2) for j in range(2) for k in range(2)
    )


def test_ode_invariant_under_equivalence_shifts():
    rng = random.Random(2)
    for trial in range(5):
        c = _random_connection(rng)
        a = [Expr(sp.Rational(rng.randint(-3, 3), rng.randint(1, 3)) * X
                  + sp.Rational(rng.randint(-3, 3), rng.randint(1, 3)) * Y**2),
             Expr(sp.Rational(rng.randint(-3, 3), rng.randint(1, 3)) * X * Y)]
        shifted = projective_equivalence_shift(c, a)
        p1 = ode_from_connection(c)
        p2 = ode_from_connection(shifted)
        for k in range(4):
            assert (p1.A[k] - p2.A[k]).is_proven_zero(), (trial, k)


def test_spray_forms():
    flat = ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
    s = spray(flat)
    assert s.coeff_fibre.is_proven_zero()
    ps = ProjectiveStructure.build(("x", "y"), [parse("x*y"), 0, 0, 0])
    s = spray(ps)
    assert (s.coeff_fibre - parse("x*y")).is_proven_zero()
    dfo = derivative_of_first_order(parse("x*y^2"))
    s = spray(dfo)
    lam = sp.Symbol("lam")
    expected = sp.diff(X * Y**2, X) + lam * sp.diff(X * Y**2, Y)
    assert (s.coeff_fibre - Expr(expected)).is_proven_zero()


def test_flatness_flat_structure():
    flat = ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
    assert flatness_invariant(flat).is_proven_zero()


def test_flatness_constant_coefficients_regression():
    # regression value frozen from the first exact run: constant-coefficient
    # structures are flat, the obstruction vanishes identically
    c = sp.Symbol("c")
    ps = ProjectiveStructure.build(("x", "y"), [Expr(c)] * 4, parameters=("c",))
    assert flatness_invariant(ps).is_proven_zero()
    # and a non-constant contrast case frozen alongside: A = (0, 0, x, 0)
    ps2 = ProjectiveStructure.build(("x", "y"), [0, 0, parse("x"), 0])
    lam = sp.Symbol("lam")
    assert sp.expand(flatness_invariant(ps2).sym + 4 * lam * X) == 0


def test_flatness_linear_ode_classes_are_flat():
    # every derivative-of-first-order with b affine-in-y yields a linear ODE,
    # which is point-equivalent to y'' = 0; in particular b = x*y
    for b in ("x*y", "x", "2*x + 3*y", "x^2*y"):
        ps = derivative_of_first_order(parse(b))
        assert flatness_invariant(ps).is_proven_zero(), b


def test_flatness_nonzero_witness():
    ps = derivative_of_first_order(parse("y^2"))
    inv = flatness_invariant(ps)
    assert sp.expand(inv.sym - 16 * Y) == 0
    assert is_zero(inv, CFG).kind == "nonzero"


def _random_cubic(rng):
    """y'' = A3 y'^3 + ... + A0, each A_i zero (half of them) or one or two
    terms of degree at most 2 in x, y; in half the cubics one A_i is also
    multiplied by a parameter a, an inverse polynomial, or an exp or sin
    leaf."""
    extras = (sp.Symbol("a"), 1 / (X + Y + 1), 1 / (X**2 + 1), 1 / (X + Y),
              sp.exp(X * Y - Y), sp.sin(X))

    def poly():
        if rng.random() < 0.5:
            return sp.S.Zero
        return sum(sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
                   * rng.choice((1, X, Y, X**2, X * Y, Y**2))
                   for _ in range(rng.randint(1, 2)))

    A = [poly() for _ in range(4)]
    if rng.random() < 0.5:
        A[rng.randrange(4)] *= rng.choice(extras)
    return ProjectiveStructure.build(("x", "y"), A, parameters=("a",))


def _flatness_inputs(corpus):
    """Every projective structure the package meets: the builders' and the
    models', the criterion-8 ODEs and 200 seeded random cubics."""
    out = [(f"corpus {name}", bg.proj) for name, bg in corpus.items() if bg.proj is not None]
    out += [(f"model {path.stem}", m.proj) for path in sorted(MODELS.glob("*.json"))
            if (m := load_model(str(path))).proj is not None]
    out += [("A=0", ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])),
            ("A=(y, x, 1/2, 0)", ProjectiveStructure.build(
                ("x", "y"), [parse("y"), parse("x"), parse("1/2"), 0])),
            ("constant c", ProjectiveStructure.build(
                ("x", "y"), [Expr(sp.Symbol("c"))] * 4, parameters=("c",)))]
    out += [(f"b={b}", derivative_of_first_order(parse(b)))
            for b in ("x*y", "y^2", "x", "2*x + 3*y", "x^2*y")]
    rng = random.Random(15)
    out += [(f"connection {k}", ode_from_connection(_random_connection(rng))) for k in range(5)]
    out += [(f"random cubic {k}", _random_cubic(rng)) for k in range(200)]
    return out


def test_spray_invariant_is_liouvilles_closed_form():
    """The spray invariant of y'' = A0 + A1 y' + A2 y'^2 + A3 y'^3 equals
    2 L_a lam + 2 L_b for undefined functions A_i(x, y): one identity that
    holds for every input."""
    A = [sp.Function(f"A{i}")(X, Y) for i in range(4)]
    ps = ProjectiveStructure.build(("x", "y"), A)
    spray_form, closed = tree_flatness_invariant(ps), tree_liouville_invariant(ps)
    assert sp.expand(spray_form.sym - closed.sym) == 0
    assert closed.sym.has(*A) and sp.expand(closed.sym) != 0


def test_flatness_invariant_matches_tree_oracle(corpus):
    """Liouville's closed form, computed in a field, against the closed form
    on trees: equal normal forms and equal verdicts, witnesses and values.
    Where normalize is not idempotent on the tree (an exp of a sum with a
    negative part), the field's view is normalize's second pass; those
    inputs compare by the zero test of the difference and the verdict's
    kind."""
    kinds, second = set(), 0
    for name, ps in _flatness_inputs(corpus):
        inv, ref = flatness_invariant(ps), tree_liouville_invariant(ps)
        assert inv.el is not None, name
        verdict = is_zero(inv, CFG)
        if sp.srepr(inv.normal) == sp.srepr(ref.normal):
            assert verdict == is_zero(ref, CFG), name
        else:
            assert sp.srepr(inv.normal) == sp.srepr(normalize(ref.normal)), name
            assert is_zero(inv - ref, CFG).is_zero(), name
            assert verdict.kind == is_zero(ref, CFG).kind, name
            second += 1
        kinds.add(verdict.kind)
    assert kinds == {"proven_zero", "nonzero"}
    assert second > 0  # the cubics with exp(x y - y)
    # a linear ODE is flat: its invariant holds the zero element, which the
    # zero test proves with no tree
    for b in ("x*y", "x^2*y + 1/(1 + x^2)", "exp(x)*y"):
        inv = flatness_invariant(derivative_of_first_order(parse(b)))
        assert inv.el is not None and not inv.el, b


def test_derivative_of_first_order_map():
    ps = derivative_of_first_order(parse("x*y"))
    assert (ps.A[0] - parse("y")).is_proven_zero()
    assert (ps.A[1] - parse("x")).is_proven_zero()
    assert ps.A[2].is_proven_zero() and ps.A[3].is_proven_zero()
    const = derivative_of_first_order(parse("7/3"))
    assert all(Expr(a).is_proven_zero() for a in const.A)


def test_geodesic_flat_straight_lines():
    flat = ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
    path = geodesic_integrate(flat, (0, 0, 1), 0.01, 100)
    assert path.completed
    xe, ye, le = path.points[-1]
    assert abs(xe - 1.0) < 1e-10 and abs(ye - 1.0) < 1e-10 and abs(le - 1.0) < 1e-10


def test_geodesic_constant_forcing_closed_form():
    # A = (1,0,0,0): lam(s) = lam0 + s, y(s) = y0 + lam0 s + s^2/2
    ps = ProjectiveStructure.build(("x", "y"), [1, 0, 0, 0])
    h, n = 0.01, 100
    path = geodesic_integrate(ps, (0, 0, 1), h, n)
    s = h * n
    xe, ye, le = path.points[-1]
    assert abs(le - (1 + s)) < 1e-8
    assert abs(ye - (s + s**2 / 2)) < 1e-8


def test_geodesic_first_integral_drift():
    # b = x: dlam/ds = 1 with b_y = 0, so lam - x is conserved
    ps = derivative_of_first_order(parse("x"))
    path = geodesic_integrate(ps, (0, 0, 1), 0.01, 100)
    assert path.completed
    drifts = [abs((lam - x) - 1.0) for x, y, lam in path.points]
    assert max(drifts) < 1e-8


def test_geodesic_fourth_order_convergence():
    ps = ProjectiveStructure.build(
        ("x", "y"), [parse("y"), parse("x"), parse("1/2"), 0])
    ref = geodesic_integrate(ps, (0, 1, 1), 0.4 / 2048, 2048).points[-1]

    def endpoint_error(n):
        pt = geodesic_integrate(ps, (0, 1, 1), 0.4 / n, n).points[-1]
        return max(abs(a - b) for a, b in zip(pt, ref))

    e1, e2 = endpoint_error(16), endpoint_error(32)
    assert e1 / e2 >= 8.0


def test_geodesic_aborts_on_singularity():
    ps = ProjectiveStructure.build(("x", "y"), [parse("1/(1 - x)"), 0, 0, 0])
    path = geodesic_integrate(ps, (0, 0, 1), 0.01, 200)
    assert not path.completed
    assert len(path.points) >= 1


GEODESIC_CASES = [
    # (A0, A1, A2, A3), init, h, n
    (("0", "0", "0", "0"), (0.3, -0.2, 0.7), 0.013, 150),
    (("y", "x", "1/2", "0"), (0, 1, 1), 0.4 / 32, 32),
    (("x*y - 1/3", "y^2", "x", "-1/5"), (-0.4, 0.25, 0.6), 0.021, 120),
    (("exp(x - y)", "0", "sin(y)", "x/7"), (0.1, 0.2, -0.3), 0.017, 90),
    (("1/(1 - x)", "0", "0", "0"), (0, 0, 1), 0.01, 200),  # near the pole at x = 1
    (("1/(1 - x)", "0", "0", "0"), (0, 0, 1), 0.25, 10),  # a stage on the pole
    (("log(1/2 - x)", "0", "0", "0"), (0, 0, 1), 0.01, 100),  # math domain error
    (("0", "0", "0", "1"), (0, 0, 2), 0.05, 200),  # lam and y blow up in one step
    (("10^14", "0", "0", "0"), (0, 0, 0), 0.05, 10),  # lam passes 1e12 first, y later
    (("0", "0", "y^2", "0"), (0, 1, 3), 0.05, 400),
]


@pytest.mark.parametrize("A, init, h, n", GEODESIC_CASES)
def test_geodesic_points_equal_the_tuple_rk4(A, init, h, n):
    """The scalar unrolled RK4 gives the tuple form's doubles, its abort
    step and its message."""
    ps = ProjectiveStructure.build(("x", "y"), [parse(a) for a in A])
    path = geodesic_integrate(ps, init, h, n)
    assert (path.points, path.completed, path.message) == tuple_geodesic(ps, init, h, n)


def test_geodesic_cases_reach_both_aborts():
    """The cases above complete, diverge, and raise in a stage."""
    messages = set()
    for A, init, h, n in GEODESIC_CASES:
        path = geodesic_integrate(ProjectiveStructure.build(("x", "y"), [parse(a) for a in A]),
                                  init, h, n)
        messages.add(path.message)
    assert messages == {"", "integration aborted: state diverged",
                        "integration aborted: float division by zero",
                        "integration aborted: math domain error"}


def test_geodesic_spray_is_compiled_once_per_structure(monkeypatch):
    """The spray's F is cancelled and compiled on a structure's first
    geodesic and kept on the structure: a second geodesic runs no sp.cancel,
    and its points are still the tuple RK4's."""
    cancels = []
    cancel = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda *a, **k: cancels.append(a) or cancel(*a, **k))
    for A, init, h, n in GEODESIC_CASES:
        ps = ProjectiveStructure.build(("x", "y"), [parse(a) for a in A])
        before = len(cancels)
        assert geodesic_integrate(ps, init, h, 0).points == [tuple(map(float, init))]
        assert len(cancels) > before, A
        before = len(cancels)
        path = geodesic_integrate(ps, init, h, n)
        assert len(cancels) == before, A
        assert (path.points, path.completed, path.message) == tuple_geodesic(ps, init, h, n)


@pytest.mark.parametrize("h, n", [(0.01, -1), (float("nan"), 10), (float("inf"), 10),
                                  (float("-inf"), 0)])
def test_geodesic_rejects_bad_steps(h, n):
    flat = ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
    with pytest.raises(ExprError, match="step count" if n < 0 else "step size"):
        geodesic_integrate(flat, (0, 0, 1), h, n)


def test_projective_structure_validates_symbols():
    with pytest.raises(ExprError):
        ProjectiveStructure.build(("x", "y"), [parse("z"), 0, 0, 0])
    with pytest.raises(ExprError):
        derivative_of_first_order(parse("x*t"))


def test_spray_normalization_enforced():
    from asdnull.projective import Spray

    with pytest.raises(ExprError):
        Spray(("x", "y"), "lam", Expr(2), Expr(sp.Symbol("lam")), Expr(0))
