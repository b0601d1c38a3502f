"""Expression core: grammar, normal form, differentiation, evaluation, sampling."""

import ast
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    random_points,
    symbols,
    to_text,
)
from asdnull import expr as expr_module
from asdnull.cli import load_model
from asdnull.construct import (
    build_nontwisting,
    build_ppwave,
    build_sparling_tod,
    build_twisting,
)
from asdnull.spinor import weyl_spinors
from asdnull.twistor import (
    integrability_check,
    lax_pair,
    lift_commutation_check,
    lift_killing,
)
import mutants
from mutants import MUTANTS, _failed
from oracles import CORPUS as ORACLE_CORPUS
from oracles import tree_coframe, tree_metric

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


def test_compiled_evaluators_are_bounded():
    """2 x cap distinct compiles leave at most cap cached evaluators, and an
    evicted expression compiles again to the same value."""
    cap, cache = expr_module._LAMBDIFY_CAP, expr_module._lambdify_cache
    e = parse("exp(x)*y + 1/3")
    at = {"x": 0.5, "y": 2.0}
    before = evaluate(e, at)
    key = (e.normal, ("x", "y"))
    assert key in cache
    x, y = sp.symbols("x y")
    for k in range(2 * cap):
        expr_module._compiled(x**2 + (k + 1) * y, ("x", "y"))
    assert len(cache) <= cap
    assert key not in cache
    assert evaluate(e, at) == before


def test_normalize_matches_cancel_on_seeded_trees():
    """normalize is sympy's cancel of together, byte for byte, whether the
    tree is normalized afresh or read back from the memo."""
    trees = _random_trees(seed=23, count=40) + [parse(t).sym for t in CORPUS]
    for t in trees:
        expr_module._normal_cache.pop(t, None)
        want = sp.srepr(sp.cancel(sp.together(t)))
        assert sp.srepr(normalize(t)) == want, t
        assert sp.srepr(normalize(t)) == want, t


def test_normalize_runs_no_second_cancel_on_an_equal_tree(monkeypatch):
    """A tree equal to one already normalized, though a distinct object,
    gets the same normal form with no sp.cancel."""
    x, y = sp.symbols("x y")
    first = x / (x + x * y) + sp.sin(x * y) ** 2
    n = normalize(first)
    again = sp.Add(sp.sin(x * y) ** 2, sp.Mul(x, sp.Pow(x + x * y, -1)))
    assert again == first and again is not first
    cancels = []
    cancel = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda *a, **k: cancels.append(a) or cancel(*a, **k))
    assert normalize(again) is n
    assert cancels == []


def test_normal_forms_are_bounded():
    """2 x cap distinct trees leave at most cap memoized normal forms, and an
    evicted tree normalizes again to the same form."""
    cap, cache = expr_module._NORMAL_CAP, expr_module._normal_cache
    x, y = sp.symbols("x y")
    t = (x**2 - y**2) / (x + y) + sp.exp(x)
    before = sp.srepr(normalize(t))
    assert t in cache
    for k in range(2 * cap):
        normalize(x**2 / (x + (k + 1) * y))
    assert len(cache) <= cap
    assert t not in cache
    assert sp.srepr(normalize(t)) == before


def test_is_zero_examples():
    assert is_zero(parse("(x+y)^2 - x^2 - 2*x*y - y^2"), CFG).kind == "proven_zero"
    assert is_zero(parse("sin(x)^2 + cos(x)^2 - 1"), CFG).kind == "sampled_zero"
    v = is_zero(parse("x*y - 1"), CFG)
    assert v.kind == "nonzero"
    assert v.witness is not None and v.value is not None
    got = v.witness["x"] * v.witness["y"] - 1
    assert abs(float(got) - v.value) < 1e-9


def test_sampling_reads_the_normal_forms_symbols():
    """A symbol that cancels in the normal form is neither sampled nor
    demanded: the raw tree and its normal form get the same witness."""
    raw = parse("(x*z + z)/z - x + y")
    assert raw.free_symbols() == {"x", "y", "z"}
    v = is_zero(raw, CFG)
    assert v == is_zero(parse("y + 1"), CFG)
    assert v.kind == "nonzero" and set(v.witness) == {"y"}
    assert evaluate(raw, {"y": 2}) == 3
    # the float path (a kernel in the raw tree) names the same symbols
    assert evaluate(parse("exp(y)*(x*z + z)/z - x*exp(y)"), {"y": 0}) == 1.0
    with pytest.raises(EvalError, match=r"unassigned symbols: \['y'\]"):
        evaluate(raw, {"x": 1, "z": 1})


def test_is_zero_deterministic():
    v1 = is_zero(parse("x*y - 1"), CFG)
    v2 = is_zero(parse("x*y - 1"), CFG)
    assert v1.witness == v2.witness


def test_is_zero_relative_scaling():
    # huge cancelling terms must not defeat the tolerance
    e = parse("(x + 10^12)*(x - 10^12) - x^2 + 10^24")
    assert is_zero(e, CFG).is_zero()


def test_is_zero_of_a_constant_over_a_numerical_zero_is_a_typed_error():
    """A symbol-free expression whose denominator evaluates to about 0 fails
    the zero test with a typed error, as sampling does when every point
    lands on a pole; a regular constant still gets a verdict."""
    for text in ("1/(sin(1)^2 + cos(1)^2 - 1)", "x/(sin(2)^2 + cos(2)^2 - 1)"):
        with pytest.raises(ExprError, match="sampling failed"):
            is_zero(parse(text), CFG)
    assert is_zero(parse("sin(1)^2 + cos(1)^2 - 1"), CFG).kind == "sampled_zero"
    v = is_zero(parse("1/(sin(1) + 1)"), CFG)
    assert v.kind == "nonzero" and abs(v.value - 1 / (math.sin(1) + 1)) < 1e-12


def test_kernel_free_nonzero_reads_nonzero():
    """A kernel-free expression is zero exactly when its normal form is: where
    the terms are too small for the tolerance, or no point samples, the
    verdict is nonzero at the stream's first draw with a nonzero exact value,
    and the value is that exact value's float.  A kernel-free constant is
    read exactly."""
    first = {"x": Fraction(25, 27), "y": Fraction(22, 21)}  # seed 0's first draw
    F = Field(sp.symbols("x y"))
    held, _ = F.convert(sp.Symbol("x") * sp.Symbol("y") / 10**12)
    for e in (parse("x*y/10^12"), held):
        v = is_zero(e, CFG)
        assert (v.kind, v.witness) == ("nonzero", first), e
        assert v.value == float(first["x"] * first["y"] / 10**12)
    for text, value in (("1/10^12", 1e-12), ("-7/3", -7 / 3), ("2^2000", math.inf)):
        v = is_zero(parse(text), CFG)
        assert (v.kind, v.witness, v.value) == ("nonzero", {}, value), text
    # every point overflows a double: no regular point, but an exact witness
    v = is_zero(parse("10^400*x"), CFG)
    assert (v.kind, v.witness, v.value) == ("nonzero", {"x": first["x"]}, math.inf)
    # the kernel identity keeps the float rule
    assert is_zero(parse("sin(x*y)^2 + cos(x*y)^2 - 1"), CFG).kind == "sampled_zero"


def test_exact_witness_skips_draws_where_the_value_vanishes():
    """The witness is the first draw where the exact value is defined and
    nonzero: the first draw is a root of (x - 25/27), and a pole of its
    inverse, so both take the second."""
    draws = expr_module._draws(1, 0)
    (p1, q1), = next(draws)
    (p2, q2), = next(draws)
    assert Fraction(p1, q1) == Fraction(25, 27)
    second = {"x": Fraction(p2, q2)}
    for text in ("(x - 25/27)/10^13", "x/(10^13*x - 10^13*25/27)"):
        e = parse(text)
        v = is_zero(e, CFG)
        assert (v.kind, v.witness) == ("nonzero", second), text
        assert v.value == float(evaluate(e, second)) != 0, text


def test_exact_witness_search_is_bounded():
    """A kernel-free expression that vanishes at each of the 10 x count draws
    the search may take raises a typed error rather than reading zero."""
    draws = expr_module._draws(1, 0)
    x = sp.Symbol("x")
    e = Expr(sp.Mul(*[x - sp.Rational(*next(draws)[0]) for _ in range(10)]) / 10**40)
    with pytest.raises(ExprError, match="exact zero test failed: no point in 10 draws"):
        is_zero(e, SampleConfig(count=1, seed=0))


def test_is_zero_sampling_exhaustion():
    # every sample point fails (log of a negative number): after 10x count
    # resampling attempts the zero test reports failure instead of a verdict
    e = parse("log(-1 - x^2)")
    with pytest.raises(ExprError):
        is_zero(e, SampleConfig(count=5, seed=0))


@pytest.mark.parametrize("seed, bound, first", [
    (0, 97, {"x": Fraction(25, 27), "y": Fraction(22, 21), "z": Fraction(39, 62)}),
    (0, 9, {"x": Fraction(1), "y": Fraction(9, 8), "z": Fraction(5, 8)}),
    (7, 97, {"x": Fraction(21, 10), "y": Fraction(-7, 10), "z": Fraction(-13, 47)}),
    (7, 9, {"x": Fraction(2), "y": Fraction(-1, 2), "z": Fraction(-1, 3)}),
])
def test_sampler_stream_is_pinned(seed, bound, first):
    """The first point of the one seeded stream, recorded before the stream
    was split into integer draws; each draw is its point's Fractions."""
    point = next(random_points(("x", "y", "z"), seed, bound))
    assert point == first and list(point) == ["x", "y", "z"]
    pairs = next(expr_module._draws(3, seed, bound))
    assert [Fraction(p, q) for p, q in pairs] == list(first.values())


def test_draws_reproduce_randint():
    """Each integer of the stream is drawn by getrandbits with rejection, the
    arithmetic of random.Random.randint: the pairs and signs are randint's
    and random's, in the same order, for every bound (a power of two
    included) and point size."""
    for seed in range(200):
        for bound in (1, 2, 9, 64, 65, 97, 128):
            for n in (1, 3):
                rng = random.Random(seed)
                draws = expr_module._draws(n, seed, bound)
                for _ in range(50):
                    want = []
                    for _ in range(n):
                        p, q = rng.randint(1, bound), rng.randint(1, bound)
                        want.append((p if rng.random() < 0.5 else -p, q))
                    assert next(draws) == want, (seed, bound, n)


# (text, seed) -> (kind, witness, value) at 400 points, recorded before is_zero
# evaluated the integer draws: kernel identities, perturbed copies, poles that
# reject points, and constants
PINNED_VERDICTS = [
    ("sin(x*y)^2 + cos(x*y)^2 - 1", 0, ("sampled_zero", None, None)),
    ("sin(x*y)^2 + cos(x*y)^2 - 1", 3, ("sampled_zero", None, None)),
    ("sin(x + 2*y)^2 + cos(x + 2*y)^2 - 1 + x/1000", 0,
     ("nonzero", {"x": Fraction(25, 27), "y": Fraction(22, 21)}, 0.0009259259259257889)),
    ("sin(x + 2*y)^2 + cos(x + 2*y)^2 - 1 + x/1000", 3,
     ("nonzero", {"x": Fraction(-31, 76), "y": Fraction(8, 13)}, -0.0004078947368419942)),
    ("sin(x*y)^2 + cos(x*y)^2 - 1 + y/10^6", 0,
     ("nonzero", {"x": Fraction(25, 27), "y": Fraction(22, 21)}, 1.0476190475080253e-06)),
    ("1/(x - y) + exp(x)/(x*y - 1)^2", 0,
     ("nonzero", {"x": Fraction(39, 62), "y": Fraction(28, 65)}, 8.573130532212831)),
    ("1/(x - y) + exp(x)/(x*y - 1)^2", 3,
     ("nonzero", {"x": Fraction(-31, 76), "y": Fraction(8, 13)}, -0.552307409048163)),
    ("(x + y)/(x - y)^3 - z/(y - 1)", 0,
     ("nonzero", {"x": Fraction(28, 65), "y": Fraction(18, 97), "z": Fraction(-11, 23)},
      41.21933558531785)),
    ("log(x^2 + 1)/(x - 1)", 3, ("nonzero", {"x": Fraction(-31, 76)}, -0.10931450793913855)),
    ("exp(z*x - y)/x^2", 3,
     ("nonzero", {"x": Fraction(-31, 76), "y": Fraction(8, 13), "z": Fraction(-25, 3)},
      97.24469814617613)),
    ("sin(1)^2 + cos(1)^2 - 1", 0, ("sampled_zero", None, None)),
    ("exp(1) - 3", 0, ("nonzero", {}, -0.2817181715409549)),
]


@pytest.mark.parametrize("text, seed, verdict", PINNED_VERDICTS)
def test_zero_test_verdicts_are_pinned(text, seed, verdict):
    v = is_zero(parse(text), SampleConfig(count=400, seed=seed))
    kind, witness, value = verdict
    assert (v.kind, v.witness, v.value) == (kind, witness, value)
    if witness is not None:
        assert isinstance(v.witness, Assignment)
        assert all(isinstance(c, Fraction) for c in v.witness.values())


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
        shown, el = F.convert(s)
        assert F.view(el) == shown.sym
        for v in xyz:
            assert F.view(F.diff(el, v)) == normalize(sp.diff(s, v)), (text, v)


def _random_fraction(rng) -> sp.Expr:
    """A seeded rational function over t, x, y, z built from the factors a
    field meets: powers of t y - x z, monomials, constants, negative leading
    coefficients, exp(x z - y), and x^2 - y^2 over x - y in a numerator."""
    t, x, y, z = sp.symbols("t x y z")
    atoms = [
        (t * y - x * z)**rng.choice([-3, -2, -1, 1, 2]),
        x**rng.randint(0, 2) * y**rng.randint(0, 2) * z**rng.choice([-2, -1, 1]),
        sp.Rational(rng.choice([-5, -3, -1, 2, 7]), rng.randint(1, 4)),
        rng.choice([-3, -1, 2]) * x + y - z * t,
        sp.exp(x * z - y),
        1 / (x**2 - y**2),
        (x - y) * (t + rng.randint(-2, 2)),
    ]
    picked = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
    s = sp.Mul(*picked)
    if rng.random() < 0.5:
        s += rng.choice(atoms) * rng.choice(atoms)
    return s


def test_factored_arithmetic_matches_cancel():
    """Sums, differences, products, quotients, powers and derivatives of
    elements over a factored base equal sympy's cancel of the tree: every
    trial division is needed, and a composite base element (x^2 - y^2 with
    x - y in a numerator) leaves a result out of lowest terms.  The
    derivatives take both routes of Field.diff."""
    rng = random.Random(12)
    t, x, y, z = xs = sp.symbols("t x y z")
    F = Field(xs, [sp.exp(x * z - y)])
    els = [F.fold(_random_fraction(rng)) for _ in range(14)]
    K = F.K
    assert any(i >= K.ngens and K.base[i] == K.ring.from_expr(x - y)
               for i in range(len(K.base)))
    cases = []
    for _ in range(30):
        a, b = rng.sample(els, 2)
        u, v = F.view(a), F.view(b)
        # (a + b) - b and (a * b) / b cancel what the first step brought in
        cases += [(a + b, u + v), (a - b, u - v), (a * b, u * v), ((a + b) - b, u)]
        if b:
            cases += [(a / b, u / v), ((a * b) / b, u)]
    for a in els:
        n = rng.choice([-2, -1, 2, 3])
        cases.append((a**n, F.view(a)**n))
        cases += [(F.diff(a, s), sp.diff(F.view(a), s)) for s in xs]
    # a chain with a denominator takes the element route of Field.diff:
    # D log(x + t) = D(x + t) / (x + t), D exp(x/y) = exp(x/y) D(x/y)
    G = Field(xs, [sp.log(x + t), sp.exp(x / y)])
    for _ in range(8):
        a = G.fold(_random_fraction(rng) * rng.choice([sp.log(x + t), sp.exp(x / y)]))
        cases += [(G.diff(a, s), sp.diff(G.view(a), s)) for s in xs]
    for el, tree in cases:
        assert F.K is K
        assert sp.srepr(F.view(el)) == sp.srepr(sp.cancel(tree)), tree
    base = K.base[K.ngens:]  # pairwise distinct irreducibles, so pairwise coprime
    assert len(set(base)) == len(base)
    assert all(b.factor_list() == (1, [(b, 1)]) for b in base)


def test_derivative_routes_agree():
    """Where every derivative of a gen is a polynomial element, Field.diff
    takes the polynomial route; the element route gives the same element
    (c, N and e) on seeded elements.  These hold powers of base
    denominators, no denominator at all, kernels whose derivative brings a
    gen they lack (sin brings cos) or a rational coefficient (exp(x z/3)),
    and are differentiated by every symbol, including w, which no element
    holds."""
    rng = random.Random(19)
    t, x, y, z = sp.symbols("t x y z")
    w = sp.Symbol("w")
    kernels = [sp.exp(x * z - y), sp.exp(x * z / 3), sp.sin(x * y), sp.cos(t - z)]
    F = Field((t, x, y, z, w), kernels)
    trees = []
    for _ in range(30):
        s = _random_fraction(rng)
        if rng.random() < 0.6:
            s *= rng.choice(kernels) + rng.choice([1, x, t * y])
        trees.append(s)
    trees += [sp.expand((x * y - 2 * z)**2 * rng.choice(kernels) + t / 3) for _ in range(4)]
    els = [F.fold(s) for s in trees]
    K = F.K
    assert any(not el.e for el in els) and any(k > 1 for el in els for k in el.e.values())
    compared = 0
    for s, el in zip(trees, els):
        for v in (t, x, y, z, w):
            chain = F._chain(el, v)
            assert all(not d.e for _, d in chain)
            if v == w:
                assert not chain and not F.diff(el, v)
                continue
            fast, slow = F._diff_by_polynomials(el, chain), F._diff_by_elements(el, chain)
            assert (fast.c, fast.num, fast.e) == (slow.c, slow.num, slow.e), (s, v)
            compared += 1
    assert F.K is K and compared == 4 * len(els)


def test_up_keeps_a_current_memo_and_moves_every_leaf_after_growth():
    """A memo (`Field.held`) comes back from `up` as the same object while its
    field is current.  After the field grows, every leaf of the memo moves
    (once: the memo then holds the moved nest), and so does every leaf of a
    mixed nest of old and current elements, whatever its first leaf."""
    x, y = sp.symbols("x y")
    F = Field((x, y), [sp.exp(x)])
    a, b = F.fold(x / (x + y)**2), F.fold(sp.exp(x) * y - 1)
    assert a.field is b.field is F.K
    memo = F.held([[a, b], (a * b,)])
    nest = F.up(memo)
    assert F.up(memo) is nest and nest[0][0] is a and nest[1][0].field is F.K
    views = [F.view(el) for el in (a, b, a * b)]
    F.fold(sp.Symbol("w"))
    K = F.K
    assert a.field is not K
    moved = F.up(memo)
    assert moved is not nest and F.up(memo) is moved
    leaves = [moved[0][0], moved[0][1], moved[1][0]]
    assert all(el.field is K for el in leaves)
    assert [F.view(el) for el in leaves] == views
    mixed = F.up((moved[0][0], [a, (b, moved[1][0])]))
    assert all(el.field is K for el in (mixed[0], mixed[1][0], *mixed[1][1]))
    assert mixed[1][0] == moved[0][0] and mixed[1][1][0] == moved[0][1]


def _leaves(nest):
    if isinstance(nest, (list, tuple)):
        for v in nest:
            yield from _leaves(v)
    else:
        yield nest


def test_memos_hold_their_fields_elements():
    """Every memo (`Field.held`) that a build and the checks of a family
    member leave on the metric and the tetrad holds elements of the field
    kept beside it, before and after the field grows; so `up` may hand a
    current memo back without walking it."""
    cfg = SampleConfig(count=20, seed=1)
    cases = [
        (build_twisting, [0, parse("-2*x"), parse("3/2*y"), 0, parse("z^2/2 + 3/4*z*x - 2/3*y")]),
        (build_sparling_tod, [parse("1")]),
        (build_ppwave, [parse("X^2*Y - Y^3/3")]),
    ]
    for build, args in cases:
        bg = build(*args)
        for grown in (False, True):
            if grown:
                bg.g.field.fold(sp.Symbol("w"))
            weyl_spinors(bg.g, bg.tet)
            lp = lax_pair(bg)
            integrability_check(lp, cfg)
            lift_commutation_check(lift_killing(bg, cfg), lp, cfg)
            memos = [m for cache in (bg.g._cache, bg.tet._coeff_cache)
                     for m in cache.values() if isinstance(m, expr_module._Memo)]
            assert len(memos) >= 8, build.__name__
            for m in memos:
                assert all(el.field is m.K for el in _leaves(m.value)), build.__name__
        assert bg.g.field.up(bg.tet._coeff_cache["frame"])[0][0].field is bg.g.field.K


def test_field_grows_and_moves_old_elements():
    x, y = sp.symbols("x y")
    F = Field([x, y], [x / y])
    _, a = F.convert(x / y)
    K0 = F.K
    _, b = F.convert(sp.exp(x / 3) + sp.exp(x))  # new gens: exp(x/3), exp(x) = exp(x/3)^3
    assert F.K != K0
    assert F.view(F.up(a) * b) == normalize(x / y * (sp.exp(x / 3) + sp.exp(x)))


def _builder_inputs(bg) -> tuple:
    """A builder's trees, in its chart: the tree oracle's coframe components,
    g's as their symmetric products, and K's."""
    rows = tree_coframe(bg.family, bg.params)
    g = tree_metric(rows)
    trees = [sp.sympify(c) for row in rows for c in row]
    trees += [sp.sympify(g[a][b]) for a in range(4) for b in range(a, 4)]
    trees += list(bg.K.comps) if bg.K is not None else []
    return bg.g.chart.syms + (sp.Symbol("lam"),), trees


def _random_tree(rng, depth: int) -> sp.Expr:
    """A seeded tree over x, y, z: sums, products, integer powers, shared
    factors, nested kernels and exp of sums with a negative part."""
    x, y, z = sp.symbols("x y z")
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([x, y, z, sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))])
    def sub():
        return _random_tree(rng, depth - 1)

    kind = rng.choice(["add", "mul", "pow", "kernel", "kernel", "exp_neg", "shared"])
    if kind == "add":
        return sp.Add(*[sub() for _ in range(rng.randint(2, 3))])
    if kind == "mul":
        return sp.Mul(*[sub() for _ in range(rng.randint(2, 3))])
    if kind == "pow":
        return sp.Pow(sub() + rng.choice([x, y, z]), rng.choice([-2, -1, 2, 3]))
    if kind == "kernel":
        return rng.choice([sp.exp, sp.sin, sp.cos, sp.log])(sub() + rng.choice([x, y, z]))
    if kind == "exp_neg":
        a, b = (sp.Rational(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(2))
        return sp.exp(a * rng.choice([x * z, x, z]) - b * y) / rng.choice([x, z, 1 + x]) + sub()
    f = sub() + rng.choice([x, y, z])
    return (f * sub() + f * sub()) / (f * (sub() + rng.choice([x, y, z])))


def _random_trees(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = _random_tree(rng, 3)
        if not t.has(sp.zoo, sp.nan, sp.I, sp.oo):
            out.append(t)
    return out


def _check_conversions(syms, trees) -> tuple[int, int]:
    """Field.convert against the tree route: the element equals
    Field.element(normalize(t)) in the same field, and the display's tree is
    the element's view byte for byte.  Returns how many views differ from
    normalize(t) (normalize is not idempotent on t) and how many are not a
    fixed point of normalize; the zero test of the difference passes on
    those."""
    F = Field(syms)
    second = moved = 0
    for t, (shown, el) in zip(trees, F.convert_all(trees)):
        n = normalize(t)
        K = F.K
        assert F.element(n) == el and F.K is K, t
        view = F.view(el)
        assert sp.srepr(shown.sym) == sp.srepr(view), t
        second += sp.srepr(view) != sp.srepr(n)
        again = normalize(view)
        if sp.srepr(again) != sp.srepr(view):
            assert is_zero(Expr(again - view), CFG).is_zero(), t
            moved += 1
    return second, moved


def test_conversion_matches_normalize_on_builder_and_model_inputs(corpus):
    """Every display of a builder's or model's tree is its element's view,
    and each view is a fixed point of normalize."""
    models = Path(__file__).resolve().parent.parent / "models"
    geometries = list(corpus.values())
    geometries += [m.geometry for m in map(load_model, sorted(models.glob("*.json")))
                   if m.geometry is not None]
    counts = [_check_conversions(*_builder_inputs(bg)) for bg in geometries]
    assert sum(c[0] for c in counts) > 0  # twisting_exp holds exp(z x - y)
    assert sum(c[1] for c in counts) == 0


def test_conversion_matches_normalize_on_random_trees():
    """On seeded random trees a view may not be a fixed point of normalize:
    cancel rewrites a kernel's argument that is a fraction, as in
    cos(x + y/(4 x y + 2 x z) + ...), which normalize then takes for a new
    gen.  Such a view still equals its normal form by the zero test."""
    trees = _random_trees(seed=7, count=60)
    assert any(t.has(sp.exp) for t in trees) and any(t.has(sp.log) for t in trees)
    second, moved = _check_conversions(sp.symbols("x y z"), trees)
    assert second > 0 and moved <= 1


def test_up_moves_elements_without_a_view(monkeypatch):
    """Field.up places an older element's numerator and base polynomials over
    the grown field's gens.  On the seeded random trees, after the field grew
    by one symbol, every view stays byte for byte, the field gains only that
    symbol, and moving makes no view and normalizes no leaf.  An element that
    holds exp(x) and squared denominators moves into a field where exp(x) is
    exp(x/2)^2."""
    F = Field(sp.symbols("x y z"))
    els = [el for _, el in F.convert_all(_random_trees(seed=7, count=60))]
    views = [sp.srepr(F.view(el)) for el in els]
    gens, w = set(F.K.symbols), sp.Symbol("w")
    F.fold(w)
    assert set(F.K.symbols) == gens | {w}
    made = []
    view = expr_module._El.as_expr
    monkeypatch.setattr(expr_module._El, "as_expr", lambda el: made.append(el) or view(el))
    monkeypatch.setattr(expr_module, "normalize", lambda s: made.append(s))
    moved = F.up(els)
    assert not made and all(el.field is F.K for el in moved)
    monkeypatch.undo()
    assert set(F.K.symbols) == gens | {w}
    assert [sp.srepr(F.view(el)) for el in moved] == views
    x, y = sp.symbols("x y")
    t = y * sp.exp(x) / ((x + 1)**2 * (sp.exp(x) + y)**3)
    G = Field((x, y))
    a = G.fold(t)
    G.fold(sp.exp(x / 2))
    assert sp.exp(x) not in G.K.symbols
    assert G.up(a) == G.fold(t) and G.view(G.up(a)) == normalize(t)


def test_singular_input_is_a_typed_error_naming_it():
    x, y = sp.symbols("x y")
    F = Field((x, y))
    for bad in (sp.zoo * x, x / ((x + 1)**2 - x**2 - 2 * x - 1),
                sp.exp(x) / (y * sp.exp(x) - sp.exp(x) * (y - 1) - sp.exp(x)), sp.nan + y):
        with pytest.raises(ExprError, match="singular") as info:
            F.convert(bad)
        assert str(bad) in str(info.value)


def test_normalize_is_not_idempotent_on_exp_of_a_negative_part():
    """sympy's cancel splits exp(x z - y) into exp(-y) exp(x z) and a second
    pass moves exp(-y) into the denominator.  The field's view is the second
    form, and so is the display of the input: every display is its
    element's view."""
    x, y, z = sp.symbols("x y z")
    t = -3 * x * y**2 + sp.exp(x * z - y) / x
    once, twice = normalize(t), normalize(normalize(t))
    first = (-3 * x**2 * y**2 + sp.exp(-y) * sp.exp(x * z)) / x
    second = (-3 * x**2 * y**2 * sp.exp(y) + sp.exp(x * z)) * sp.exp(-y) / x
    assert sp.srepr(once) == sp.srepr(first) and sp.srepr(twice) == sp.srepr(second)
    assert once != twice
    F = Field((x, y, z))
    shown, el = F.convert(t)
    assert shown.el is el
    assert sp.srepr(F.view(el)) == sp.srepr(second)
    assert sp.srepr(shown.sym) == sp.srepr(second)


def test_polynomial_builds_normalize_no_tree(monkeypatch):
    """A polynomial nontwisting, twisting or pp-wave member enters its field
    by folding: no normalize or sp.cancel on a sum, product or power."""
    cases = [
        (build_nontwisting, [parse(t) for t in ("x", "x + y", "y", "x*y", "1/2", "x^2")]),
        (build_twisting, [parse(t) for t in ("y", "x", "y^2", "x*y", "z^2/2 + z*x + y")]),
        (build_twisting, [0, 0, 0, 0, parse("x*z^3/6 - y*z^2/2")]),
        (build_ppwave, [parse("X^2 + Y^3")]),
    ]
    trees = []

    def counting(fn):
        def wrapped(s, *args, **kwargs):
            if s.is_Add or s.is_Mul or s.is_Pow:
                trees.append(s)
            return fn(s, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(expr_module, "normalize", counting(expr_module.normalize))
    monkeypatch.setattr(sp, "cancel", counting(sp.cancel))
    for build, args in cases:
        build(*args)
        assert trees == [], (build.__name__, trees[:3])


def test_field_arithmetic_runs_no_polynomial_gcd(monkeypatch):
    """Building Sparling-Tod and a twisting member and running weyl_spinors,
    lax_pair and integrability_check calls no polynomial gcd, cofactors or
    ring cancel in a field: cancellation is trial division over the base.
    Base entry (`_Elements.factor`) may call `factor_list` and nothing else,
    once per polynomial that enters the base; factor_list's own gcds (its
    square-free step, in the dense routines) are not counted.  The ring calls that sympy's
    cancel makes inside the tree normalizations of the boundary (NORMALIZING)
    are not counted."""
    from sympy.polys.rings import PolyElement

    calls, scope = Counter(), []

    def scoped(name, fn):
        def wrapper(*args, **kwargs):
            scope.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()
        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[scope[-1] if scope else "field", name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gcd", "cofactors", "cancel", "factor_list"):
        monkeypatch.setattr(PolyElement, name, counted(name, getattr(PolyElement, name)))
    monkeypatch.setattr(sp, "cancel", scoped("tree", sp.cancel))
    monkeypatch.setattr(expr_module._Elements, "factor",
                        scoped("base entry", expr_module._Elements.factor))
    cases = [
        (build_sparling_tod, [parse("1")], 1),  # T Y - X Z enters the base
        (build_twisting, [0, parse("-2*x"), parse("3/2*y"), 0,
                          parse("z^2/2 + 3/4*z*x - 2/3*y")], 0),
    ]
    cfg = SampleConfig(count=20, seed=1)
    for build, args, entered in cases:
        calls.clear()
        bg = build(*args)
        weyl_spinors(bg.g, bg.tet)
        integrability_check(lax_pair(bg), cfg)
        K = bg.g.field.K
        assert len(K.base) - K.ngens == entered, build.__name__
        assert {k: n for k, n in calls.items() if k[0] != "tree"} == (
            {("base entry", "factor_list"): entered} if entered else {}), build.__name__


SRC = Path(__file__).resolve().parent.parent / "src" / "asdnull"

# the functions that may normalize a sympy tree: the field's leaves, the Expr
# boundary (its normal form and the zero checks of powers and the parser),
# exact evaluation, and the ODE the geodesic integrator compiles; inputs
# enter a field by folding (Field.fold, Field.convert), and the tree oracles
# live in tests/oracles.py
NORMALIZING = {
    "expr.normalize", "expr.Field._leaf",
    "expr.Expr.normal", "expr.Expr.__pow__", "expr._Parser.power",
    "expr.evaluate", "projective.ProjectiveStructure._spray_fn",
}

# the functions that may differentiate a sympy tree: the field's derivation of
# a gen (sympy's derivative of a function it has no chain rule for) and the
# Expr boundary; the builders, their residuals and the projective flatness
# invariant differentiate in a field (Field.diff)
DIFFERENTIATING = {"expr.Field._d_gen", "expr.differentiate"}


def _is_normalize(f) -> bool:
    return ((isinstance(f, ast.Name) and f.id in ("normalize", "cancel"))
            or (isinstance(f, ast.Attribute) and f.attr == "cancel"))


def _is_sp_diff(f) -> bool:
    return (isinstance(f, ast.Attribute) and f.attr == "diff"
            and isinstance(f.value, ast.Name) and f.value.id == "sp")


# the owners' memos, a metric's `_cache` and a tetrad's `_coeff_cache`; `_el`
# catches a second dict of elements kept beside them
MEMO_DICTS = {"_cache", "_coeff_cache", "_el"}
# the functions that may test a key against a memo or store into one
MEMO_HELPERS = {"tensor._memo", "tensor._memo_el"}


def _is_memo_access(node) -> bool:
    """A membership test against an attribute `..._cache` (or `._el`), or an
    item store into one of the owners' memos."""
    if isinstance(node, ast.Compare):
        return any(isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, ast.Attribute)
                   and (right.attr.endswith("_cache") or right.attr in MEMO_DICTS)
                   for op, right in zip(node.ops, node.comparators))
    return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute) and node.value.attr in MEMO_DICTS)


def _sites(matches) -> set[str]:
    """The enclosing module.class.function of each node in src/asdnull that
    `matches`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def _callers(matches) -> set[str]:
    """The enclosing module.class.function of each call in src/asdnull whose
    callee `matches`."""
    return _sites(lambda node: isinstance(node, ast.Call) and matches(node.func))


def test_trees_are_normalized_only_at_the_boundary():
    """Derived stages compute in a metric's field; a normalize or sp.cancel
    call anywhere else brings a tree stage back."""
    assert _callers(_is_normalize) == NORMALIZING


def test_memos_are_kept_only_by_the_memo_helper():
    """Every stage memo on a metric or a tetrad goes through `tensor._memo`
    or `_memo_el`: no other function tests a key against an owner's memo or
    stores into one, so the memo rule is written once."""
    assert _sites(_is_memo_access) <= MEMO_HELPERS
    assert "tensor._memo_el" in _callers(lambda f: isinstance(f, ast.Name) and f.id == "_memo")


def test_trees_are_differentiated_only_at_the_boundary():
    """Derived stages differentiate in a metric's field (Field.diff); an
    sp.diff call anywhere else brings a tree stage back."""
    assert _callers(_is_sp_diff) == DIFFERENTIATING


def test_mutant_snippets_occur_once():
    """Every row of tests/mutants.py still plants its fault: the snippet
    occurs exactly once in its file, and each test it names is defined."""
    root = Path(__file__).resolve().parent.parent
    for m in MUTANTS:
        assert (root / m.path).read_text(encoding="utf-8").count(m.snippet) == 1, m.name
        for node in m.tests:
            path, name = node.split("::")
            assert f"\ndef {name.split('[')[0]}(" in (root / path).read_text(encoding="utf-8"), node


def test_mutant_runner_runs_only_the_named_rows(monkeypatch, capsys):
    """`tests/mutants.py NAME ...` runs the named rows in table order, no name
    runs every row, and an unknown name exits 2 with no row run."""
    ran = []
    monkeypatch.setattr(mutants, "run", lambda m: ran.append(m.name) or ("killed", "planted"))
    assert mutants.main(["lambda_coefficient", "quartic_zero_root_dropped"]) == 0
    assert ran == ["quartic_zero_root_dropped", "lambda_coefficient"]
    assert "2 mutants: 2 killed" in capsys.readouterr().out
    assert mutants.main(["lambda_coefficient", "no_such_row"]) == 2
    assert "unknown mutant: no_such_row" in capsys.readouterr().err
    assert len(ran) == 2
    ran.clear()
    assert mutants.main([]) == 0
    assert ran == [m.name for m in MUTANTS]


def test_mutant_runner_counts_parametrized_failures():
    """A row naming a parametrized test is killed by the failure of any of its
    parameters: pytest reports those as `name[params]`."""
    summary = ("=========================== short test summary info ===========================\n"
               "FAILED tests/test_quartic.py::test_exact_partitions[roots1-partition1] - assert\n"
               "ERROR tests/test_cli.py::test_report_all_matches_recorded_report[ppwave]\n"
               "FAILED tests/test_projective.py::test_flatness_nonzero_witness - assert 1 == 0\n"
               "1 passed, 2 failed, 1 error in 0.52s\n")
    caught = _failed(summary)
    assert {"tests/test_quartic.py::test_exact_partitions",
            "tests/test_quartic.py::test_exact_partitions[roots1-partition1]",
            "tests/test_cli.py::test_report_all_matches_recorded_report",
            "tests/test_projective.py::test_flatness_nonzero_witness"} <= caught
    assert "tests/test_quartic.py::test_partition_consistency" not in caught
