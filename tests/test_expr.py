"""Expression core: grammar, normal form, differentiation, evaluation, sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy as sp

from asdnull.expr import (
    Assignment,
    EvalError,
    Expr,
    ExprError,
    Field,
    ParseError,
    SampleConfig,
    differentiate,
    evaluate,
    is_zero,
    normalize,
    parse,
    symbols,
    to_text,
)
from tests_util_derivative_oracle import CORPUS as ORACLE_CORPUS

CFG = SampleConfig(count=50, seed=0, tolerance=1e-10)

# mixed polynomial/kernel corpus reused by the derivative and normalization tests
CORPUS = [
    "x^3 - 2*x*y + 7/3",
    "x^2*y^3 - y*x + 5",
    "exp(z*x - y)/x^2",
    "sin(x)*cos(y) + x^2",
    "log(1 + x^2)*y",
    "(x + y)^4/(1 + y^2)",
    "exp(x)*sin(y) - cos(x*y)",
    "x/y + y/x",
    "1/(x^2 + y^2 + 1)",
    "cos(x)^3 - sin(y)^2*x",
]


def test_parse_zero_and_commutativity():
    assert parse("0").is_proven_zero()
    assert parse("x^2*y - y*x^2").is_proven_zero()


def test_parse_kernel_free_symbols():
    e = parse("exp(z*x - y)/x^2")
    assert e.free_symbols() == {"x", "y", "z"}


def test_parse_roundtrip_normal_form():
    for text in CORPUS + ["-x", "x^-2", "3/4*x - 1/2", "x - (y - z)"]:
        e = parse(text)
        again = parse(to_text(e))
        assert again.equals_normal(e), text


def test_parse_precedence():
    assert parse("-x^2").equals_normal(parse("-(x^2)"))
    assert parse("2*x^3").equals_normal(parse("2*(x^3)"))
    assert parse("x - y - z").equals_normal(parse("(x - y) - z"))
    assert parse("x/y/z").equals_normal(parse("(x/y)/z"))
    # ^ is right-associative over integer literal chains
    assert evaluate(parse("2^3^2"), {}) == Fraction(512)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse("x + $")
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse("foo(x)")  # unknown function
    with pytest.raises(ParseError):
        parse("x^y")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError):
        parse("(x + y")
    with pytest.raises(ParseError):
        parse("0^0")
    with pytest.raises(ParseError):
        parse("0^-2")


def test_rationals_lowest_terms():
    assert to_text(parse("4/6")) == "2/3"
    assert evaluate(parse("-10/4"), {}) == Fraction(-5, 2)


def test_evaluate_exact():
    assert evaluate(parse("x/y"), {"x": 1, "y": 2}) == Fraction(1, 2)
    assert evaluate(parse("x^2 - y"), {"x": 3, "y": 9}) == 0
    v = evaluate(parse("exp(z*x - y)"), {"x": 1, "y": 1, "z": 1})
    assert abs(v - 1.0) < 1e-15


def test_evaluate_errors():
    with pytest.raises(EvalError):
        evaluate(parse("1/x"), {"x": 0})
    with pytest.raises(EvalError):
        evaluate(parse("log(x)"), {"x": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse("x + y"), {"x": 1})
    with pytest.raises(ExprError):
        Assignment([("x", 1), ("x", 2)])


def test_is_zero_examples():
    assert is_zero(parse("(x+y)^2 - x^2 - 2*x*y - y^2"), CFG).kind == "proven_zero"
    assert is_zero(parse("sin(x)^2 + cos(x)^2 - 1"), CFG).kind == "sampled_zero"
    v = is_zero(parse("x*y - 1"), CFG)
    assert v.kind == "nonzero"
    assert v.witness is not None and v.value is not None
    got = v.witness["x"] * v.witness["y"] - 1
    assert abs(float(got) - v.value) < 1e-9


def test_is_zero_deterministic():
    v1 = is_zero(parse("x*y - 1"), CFG)
    v2 = is_zero(parse("x*y - 1"), CFG)
    assert v1.witness == v2.witness


def test_is_zero_relative_scaling():
    # huge cancelling terms must not defeat the tolerance
    e = parse("(x + 10^12)*(x - 10^12) - x^2 + 10^24")
    assert is_zero(e, CFG).is_zero()


def test_is_zero_sampling_exhaustion():
    # every sample point fails (log of a negative number): after 10x count
    # resampling attempts the zero test reports failure instead of a verdict
    e = parse("log(-1 - x^2)")
    with pytest.raises(ExprError):
        is_zero(e, SampleConfig(count=5, seed=0))


def _central_difference(e, var, point, h=1e-6):
    up = Assignment({k: (float(v) + h if k == var else float(v)) for k, v in point.items()})
    dn = Assignment({k: (float(v) - h if k == var else float(v)) for k, v in point.items()})
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


def test_differentiate_power_and_chain_rule():
    x = symbols("x")[0]
    assert differentiate(parse("x^3"), "x").equals_normal(parse("3*x^2"))
    assert differentiate(parse("exp(z*x - y)"), "z").equals_normal(parse("x*exp(z*x - y)"))
    assert differentiate(parse("log(x)"), "x").equals_normal(1 / x)
    assert differentiate(parse("sin(x)"), "x").equals_normal(parse("cos(x)"))
    assert differentiate(parse("7/2"), "x").is_proven_zero()


def test_differentiate_matches_finite_differences():
    # independent oracle: central differences at 20 seeded rational points
    import random

    rng = random.Random(11)
    checked = 0
    for text in CORPUS:
        e = parse(text)
        names = sorted(e.free_symbols())
        if "x" not in names:
            continue
        d = differentiate(e, "x")
        pts = 0
        while pts < 2:
            point = Assignment(
                {n: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for n in names}
            )
            try:
                expected = _central_difference(e, "x", point)
                got = evaluate(d, Assignment({k: float(v) for k, v in point.items()}))
            except EvalError:
                continue
            scale = max(1.0, abs(expected), abs(got))
            assert abs(got - expected) / scale < 1e-6, (text, dict(point))
            pts += 1
            checked += 1
    assert checked >= 20


def test_mixed_partials_commute():
    for text in CORPUS:
        e = parse(text)
        dxy = differentiate(differentiate(e, "x"), "y")
        dyx = differentiate(differentiate(e, "y"), "x")
        assert (dxy - dyx).is_proven_zero(), text


def test_differentiation_linearity():
    a, b = Fraction(3, 7), Fraction(-2, 5)
    for t1, t2 in zip(CORPUS[:-1], CORPUS[1:]):
        e1, e2 = parse(t1), parse(t2)
        lhs = differentiate(a * e1 + b * e2, "x")
        rhs = a * differentiate(e1, "x") + b * differentiate(e2, "x")
        assert (lhs - rhs).is_proven_zero()


def test_normalization_idempotent_on_corpus():
    import sympy as sp

    for text in CORPUS:
        n = parse(text).normal
        assert sp.cancel(sp.together(n)) == n, text


def test_construction_guards():
    x = symbols("x")[0]
    with pytest.raises(ExprError):
        (x - x) ** 0
    with pytest.raises(ExprError):
        x / (x - x)
    with pytest.raises(ExprError):
        Expr("1") / 0


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def _poly_exprs(draw, depth=0):
    x, y = symbols("x y")
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Expr(draw(_small))
        return x if choice == 1 else y
    a = draw(_poly_exprs(depth=depth + 1))
    b = draw(_poly_exprs(depth=depth + 1))
    op = draw(st.integers(0, 2))
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    return a * b


@settings(max_examples=60, deadline=None)
@given(_poly_exprs())
def test_normalization_idempotent_property(e):
    import sympy as sp

    n = e.normal
    assert sp.cancel(sp.together(n)) == n


@settings(max_examples=60, deadline=None)
@given(_poly_exprs(), _poly_exprs())
def test_evaluation_product_homomorphism(e1, e2):
    pt = Assignment({"x": Fraction(2, 3), "y": Fraction(-5, 7)})
    assert evaluate(e1 * e2, pt) == evaluate(e1, pt) * evaluate(e2, pt)


@settings(max_examples=40, deadline=None)
@given(_poly_exprs())
def test_print_parse_roundtrip_property(e):
    assert parse(to_text(e)).equals_normal(e)


def test_exact_and_float_evaluation_agree_at_removable_singularity():
    e = parse("(x^2-1)/(x-1)")
    assert evaluate(e, {"x": 1}) == 2
    assert evaluate(e, {"x": 1.0}) == 2.0


def test_expr_copy_keeps_normal_form():
    e = parse("(x^2-1)/(x-1)")
    assert Expr(e)._norm is e._norm


def test_field_derivation_matches_sympy_diff():
    """Field.diff (the chain rule through kernel gens) against sp.diff on trees."""
    xyz = sp.symbols("x y z")
    for text in ORACLE_CORPUS + ["exp(exp(x))", "exp(x/2) + exp(x)*y"]:
        s = parse(text).normal
        F = Field(xyz, [s])
        n, el = F.convert(s)
        assert F.view(el) == n
        for v in xyz:
            assert F.view(F.diff(el, v)) == normalize(sp.diff(s, v)), (text, v)


def test_field_grows_and_moves_old_elements():
    x, y = sp.symbols("x y")
    F = Field([x, y], [x / y])
    _, a = F.convert(x / y)
    K0 = F.K
    _, b = F.convert(sp.exp(x / 3) + sp.exp(x))  # new gens: exp(x/3), exp(x) = exp(x/3)^3
    assert F.K != K0
    assert F.view(F.up(a) * b) == normalize(x / y * (sp.exp(x / 3) + sp.exp(x)))
