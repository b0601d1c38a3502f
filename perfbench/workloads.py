"""In-process workloads: seeded items and the known answers they are checked
against.  Imported only by the worker process, after asdnull.

An item is one unit of work that ends in verdicts.  Items come in passes; a
pass holds one item of every slot, and item k belongs to pass k // len(slots).
Its inputs depend only on (seed, pass, slot), so a restarted worker rebuilds
exactly the item it resumes at.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import sympy as sp

from asdnull.construct import (
    build_nontwisting,
    build_ppwave,
    build_sparling_tod,
    build_twisting,
)
from asdnull.expr import Assignment, Expr, SampleConfig, evaluate, is_zero, parse
from asdnull.projective import (
    ProjectiveStructure,
    flatness_invariant,
    geodesic_integrate,
)
from asdnull.spinor import petrov_classify, scalar_invariants, weyl_spinors
from asdnull.twistor import (
    integrability_check,
    lax_pair,
    lift_commutation_check,
    lift_killing,
)


@dataclass
class Item:
    id: str
    run: Callable[[], object]      # timed: computes the verdicts
    check: Callable[[object], int]  # untimed: number of wrong answers


def _rng(seed: int, p: int, slot: int) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{seed}:{p}:{slot}")


def _coef(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


# -- random_families ----------------------------------------------------------------

x, y, z = sp.symbols("x y z")
X, Y = sp.symbols("X Y")

# One member per slot and pass.  Each slot fixes which monomial each
# coefficient multiplies, so expression shapes repeat from seed to seed and
# only the rational coefficients are drawn: the cost of a slot stays steady
# while its inputs stay unseen.
NONTWISTING = {  # A1, A2, A3, beta, P, Q
    1: (x, y, x, y, x, y),
    2: (x**2, x * y, y**2, x * y, y**2, x**2),
}
TWISTING = {  # A0, A1, A2, A3 and gamma, delta of G = z^2/2 + z gamma + delta
    1: ((0, x, y, 0), (x, y)),
    2: ((0, 0, x * y, 0), (x * y, y**2)),
}
PPWAVE = {1: (X**2, X * Y), 2: (X**2 * Y, Y**3)}  # Q = c1 m1 + c2 m2

# (slot, family, degree).  Twisting members are drawn three times per degree
# and pass: the median item of a pass then falls among six like items instead
# of on a single one.  They alternate with the other slots, so that the six
# are timed across the whole pass rather than in one stretch of the host's
# drifting speed; both keep latency_p50_s steady from seed to seed.
FAMILY_SLOTS = (
    ("nontwisting_d1", "nontwisting", 1), ("twisting_d1a", "twisting", 1),
    ("ppwave_d1", "ppwave", 1), ("twisting_d2a", "twisting", 2),
    ("nontwisting_d2", "nontwisting", 2), ("twisting_d1b", "twisting", 1),
    ("ppwave_d2", "ppwave", 2), ("twisting_d2b", "twisting", 2),
    ("sparling_tod_d0", "sparling_tod", 0), ("twisting_d1c", "twisting", 1),
    ("twisting_d2c", "twisting", 2),
)


def _member_inputs(family: str, d: int, rng: random.Random):
    """(builder, arguments) of one seeded family member."""
    if family == "nontwisting":
        return build_nontwisting, [Expr(_coef(rng) * m) for m in NONTWISTING[d]]
    if family == "twisting":
        a, (gm, dm) = TWISTING[d]
        A = [Expr(_coef(rng) * m) for m in a]
        G = z**2 / 2 + z * _coef(rng) * gm + _coef(rng) * dm
        return build_twisting, [*A, Expr(G)]
    if family == "ppwave":
        m1, m2 = PPWAVE[d]
        return build_ppwave, [Expr(_coef(rng) * m1 + _coef(rng) * m2)]
    return build_sparling_tod, [Expr(_coef(rng))]  # H(u, v) constant


class RandomFamilies:
    """Family members built and verified with cold per-geometry caches."""

    slots = FAMILY_SLOTS

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = SampleConfig(count=50, seed=seed)

    def item(self, k: int) -> Item:
        p, s = divmod(k, len(self.slots))
        slot, family, degree = self.slots[s]
        build, inputs = _member_inputs(family, degree, _rng(self.seed, p, s))
        cfg = self.cfg

        def run():
            bg = build(*inputs)
            _, primed = weyl_spinors(bg.g, bg.tet)
            asd = primed.is_zero_verdict(cfg)
            lp = lax_pair(bg)
            integrable = integrability_check(lp, cfg).verdict
            lifted = lift_killing(bg, cfg)
            commutes = [solve.verdict for solve in lift_commutation_check(lifted, lp, cfg)]
            return [asd, integrable, *commutes]

        return Item(f"p{p}.{slot}", run, check_family_verdicts)


def check_family_verdicts(verdicts) -> int:
    """The theorems: ASD (primed Weyl spinor zero), integrable Lax pair, and a
    Killing lift commuting with both Lax fields."""
    return sum(not v.is_zero() for v in verdicts)


# -- point_queries ------------------------------------------------------------------

# Petrov types every point of these geometries must have
PETROV_GEOMETRIES = {
    "ppwave": ("X^2 + Y^3", "N"),         # pp-waves are type N
    "sparling_tod": ("1", "N"),           # every Sparling-Tod metric is type N
    "betazero_a2x": ("x", "III"),         # (6.2) A1 = 0, A2 = x is type III
}
TWISTING_EXP_G = "exp(z*x - y)/x^2 + z*x*y^3"
KERNEL_IDENTITIES = ("sin(x*y)^2 + cos(x*y)^2 - 1", "sin(x + 2*y)^2 + cos(x + 2*y)^2 - 1")

QUERY_SLOTS = (
    ("petrov", "ppwave"), ("petrov", "ppwave"), ("petrov", "ppwave"), ("petrov", "ppwave"),
    ("petrov", "betazero_a2x"), ("petrov", "betazero_a2x"), ("petrov", "betazero_a2x"),
    ("petrov", "betazero_a2x"), ("petrov", "sparling_tod"),
    ("invariants", "twisting_exp"), ("invariants", "twisting_exp"),
    ("invariants", "twisting_exp"),
    ("zero_test", "sampled"), ("zero_test", "perturbed"),
    ("flatness", "linear"), ("flatness", "linear"),
    ("geodesic", "straight"), ("geodesic", "straight"),
)
ZERO_TEST_POINTS = 400
GEODESIC_STEPS = 200


def _invariants_closed_form(px: float, py: float, pz: float) -> tuple[float, float]:
    """I and J of the twisting example G = exp(zx - y)/x^2 + z B, B = x y^3,
    in closed form: I = -3/2 x B_yy e^{-3(zx-y)},
    J = 3/8 x (x B_yyx + 3 B_yy + x z B_yyy) e^{-4(zx-y)}."""
    b_yy, b_yyx, b_yyy = 6 * px * py, 6 * py, 6 * px
    w = pz * px - py
    i_val = -1.5 * px * b_yy * math.exp(-3 * w)
    j_val = 0.375 * px * (px * b_yyx + 3 * b_yy + px * pz * b_yyy) * math.exp(-4 * w)
    return i_val, j_val


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class PointQueries:
    """Pointwise queries against geometries built once, in set-up."""

    slots = QUERY_SLOTS

    def __init__(self, seed: int):
        self.seed = seed
        self.weyl = {}
        for name, (arg, _) in PETROV_GEOMETRIES.items():
            if name == "ppwave":
                bg = build_ppwave(parse(arg))
            elif name == "sparling_tod":
                bg = build_sparling_tod(parse(arg))
            else:
                bg = build_nontwisting(0, parse(arg), 0, 0, 0, 0)
            unprimed, _ = weyl_spinors(bg.g, bg.tet)
            self.weyl[name] = (unprimed, bg.g.chart.names)
        bg = build_twisting(0, 0, 0, 0, parse(TWISTING_EXP_G))
        unprimed, _ = weyl_spinors(bg.g, bg.tet)
        self.invariants = scalar_invariants(unprimed)
        self.identities = [parse(t) for t in KERNEL_IDENTITIES]
        self.flat = ProjectiveStructure.build(("x", "y"), [0, 0, 0, 0])
        # warm the caches the timed queries hit
        warm = Assignment({"t": 0.5, "x": 0.7, "y": 0.3, "z": 0.2})
        for e in self.invariants:
            evaluate(e, warm)
        geodesic_integrate(self.flat, (0.0, 0.0, 1.0), 0.1, 1)

    def item(self, k: int) -> Item:
        p, s = divmod(k, len(self.slots))
        kind, target = self.slots[s]
        rng = _rng(self.seed, p, s)
        make = getattr(self, f"_{kind}")
        run, check = make(target, rng)
        return Item(f"p{p}.{kind}.{target}", run, check)

    def _petrov(self, name, rng):
        w, names = self.weyl[name]
        expected = PETROV_GEOMETRIES[name][1]
        pt = {n: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for n in names}
        if name == "sparling_tod":
            # stay off the singular locus YT - ZX = 0
            while pt["Y"] * pt["T"] == pt["Z"] * pt["X"]:
                pt["T"] += 1
        at = Assignment(pt)
        return (lambda: petrov_classify(w, at).type), (lambda t: int(t != expected))

    def _invariants(self, _, rng):
        px, py, pz = (rng.uniform(0.2, 1.5) for _ in range(3))
        at = Assignment({"t": rng.uniform(-1, 1), "x": px, "y": py, "z": pz})
        i_expr, j_expr = self.invariants
        want = _invariants_closed_form(px, py, pz)

        def run():
            return float(evaluate(i_expr, at)), float(evaluate(j_expr, at))

        def check(got):
            return sum(not _close(g, w) for g, w in zip(got, want))
        return run, check

    def _zero_test(self, kind, rng):
        e = self.identities[rng.randrange(len(self.identities))]
        if kind == "perturbed":
            e = e + Expr(sp.Symbol("x")) / 1000
        cfg = SampleConfig(count=ZERO_TEST_POINTS, seed=rng.randrange(2**31))
        expected = "sampled_zero" if kind == "sampled" else "nonzero"
        return (lambda: is_zero(e, cfg).kind), (lambda v: int(v != expected))

    def _flatness(self, _, rng):
        # y'' = A1(x) y' + A0(x, y) with A0 linear in y: point-equivalent to y'' = 0
        def poly_x():
            return sum(_coef(rng) * x**d for d in range(rng.randint(1, 3)))
        ode = ProjectiveStructure.build(
            ("x", "y"), [Expr(poly_x() + poly_x() * y), Expr(poly_x()), 0, 0])
        return (lambda: is_zero(flatness_invariant(ode)).kind), (
            lambda v: int(v != "proven_zero"))

    def _geodesic(self, _, rng):
        x0, y0, l0 = (rng.uniform(-1, 1) for _ in range(3))
        h = rng.uniform(0.005, 0.02)
        n = GEODESIC_STEPS

        def check(path):
            # geodesics of y'' = 0 are the straight lines y = y0 + l0 (x - x0)
            if not path.completed or len(path.points) != n + 1:
                return 1
            return sum(not (_close(px, x0 + j * h) and _close(py, y0 + l0 * j * h)
                            and _close(pl, l0))
                       for j, (px, py, pl) in enumerate(path.points))
        return (lambda: geodesic_integrate(self.flat, (x0, y0, l0), h, n)), check


class ImportOnly:
    """report_all set-up: the import every CLI call pays; the models are files."""

    slots = ()

    def __init__(self, seed: int):
        pass


WORKLOADS = {
    "report_all": ImportOnly,
    "random_families": RandomFamilies,
    "point_queries": PointQueries,
}
