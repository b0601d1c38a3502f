"""2D projective structures: torsion-free connections and their second-order
ODEs, geodesic sprays, projective equivalence, the flatness obstruction
(Liouville's relative invariants of y'' = A3 y'^3 + A2 y'^2 + A1 y' + A0:
R. Liouville, J. Ecole Polytechnique 59 (1889) 7-76; R. Bryant, M. Dunajski
& M. Eastwood, arXiv:0801.0300), and fixed-step geodesic integration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import sympy as sp

from .expr import Expr, ExprError, Field
from .tensor import FIBRE

__all__ = [
    "ProjectiveStructure",
    "Connection2D",
    "Spray",
    "GeodesicPath",
    "ode_from_connection",
    "projective_equivalence_shift",
    "spray",
    "flatness_invariant",
    "derivative_of_first_order",
    "geodesic_integrate",
]


@dataclass(frozen=True)
class ProjectiveStructure:
    """Second-order ODE y'' = A3 y'^3 + A2 y'^2 + A1 y' + A0 on a 2D chart."""

    chart2: tuple[str, str]
    A: tuple[Expr, Expr, Expr, Expr]
    parameters: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(self.chart2) != 2 or len(set(self.chart2)) != 2:
            raise ExprError("projective chart needs two distinct coordinates")
        allowed = set(self.chart2) | set(self.parameters)
        for a in self.A:
            extra = Expr(a).free_symbols() - allowed
            if extra:
                raise ExprError(f"coefficient uses undeclared symbols {sorted(extra)}")

    @classmethod
    def build(cls, chart2: Sequence[str], A, parameters=()) -> "ProjectiveStructure":
        return cls(tuple(chart2), tuple(Expr(a) for a in A), frozenset(parameters))

    @cached_property
    def _spray_fn(self):
        """F(x, y, lam) of the spray, cancelled and compiled on first use and
        kept on the structure: the float evaluator of `geodesic_integrate`."""
        from .expr import _compiled  # share the lambdify cache

        return _compiled(sp.cancel(_poly_F(self)), (*self.chart2, FIBRE))


@dataclass(frozen=True)
class Connection2D:
    """Symbols Gamma^i_jk, torsion-free (symmetric lower pair), indexed 0,1."""

    chart2: tuple[str, str]
    gamma: tuple  # gamma[i][j][k]

    @classmethod
    def build(cls, chart2: Sequence[str], gamma) -> "Connection2D":
        g = tuple(
            tuple(tuple(Expr(gamma[i][j][k]) for k in range(2)) for j in range(2))
            for i in range(2)
        )
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if not (g[i][j][k] - g[i][k][j]).is_proven_zero():
                        raise ExprError("connection must be symmetric in its lower pair")
        return cls(tuple(chart2), g)


@dataclass(frozen=True)
class Spray:
    """d_x + lam d_y + F(x, y, lam) d_lam on the projective tangent bundle."""

    chart2: tuple[str, str]
    fibre: str
    coeff_x: Expr
    coeff_y: Expr
    coeff_fibre: Expr

    def __post_init__(self):
        lam = Expr(sp.Symbol(self.fibre))
        if not (self.coeff_x - 1).is_proven_zero():
            raise ExprError("spray must be in the normalized affine patch (d_x coefficient 1)")
        if not (self.coeff_y - lam).is_proven_zero():
            raise ExprError("spray d_y coefficient must equal the fibre coordinate")


def ode_from_connection(c: Connection2D) -> ProjectiveStructure:
    """Eliminate the parameter from the geodesic equations."""
    G = c.gamma
    a3 = G[0][1][1]
    a2 = 2 * G[0][0][1] - G[1][1][1]
    a1 = G[0][0][0] - 2 * G[1][0][1]
    a0 = -G[1][0][0]
    return ProjectiveStructure.build(c.chart2, [a0, a1, a2, a3])


def projective_equivalence_shift(c: Connection2D, a: Sequence) -> Connection2D:
    """Gamma^i_jk + a_j delta^i_k + a_k delta^i_j: same unparameterized geodesics."""
    av = [Expr(v) for v in a]
    if len(av) != 2:
        raise ExprError("equivalence shift takes a one-form with two components")
    G = c.gamma
    new = [[[G[i][j][k]
             + (av[j] if i == k else 0)
             + (av[k] if i == j else 0)
             for k in range(2)] for j in range(2)] for i in range(2)]
    return Connection2D.build(c.chart2, new)


def _poly_F(p: ProjectiveStructure) -> sp.Expr:
    lam = sp.Symbol(FIBRE)
    a0, a1, a2, a3 = (Expr(a).sym for a in p.A)
    return a0 + lam * a1 + lam**2 * a2 + lam**3 * a3


def spray(p: ProjectiveStructure) -> Spray:
    lam = sp.Symbol(FIBRE)
    return Spray(p.chart2, FIBRE, Expr(1), Expr(lam), Expr(_poly_F(p)))


def flatness_invariant(p: ProjectiveStructure) -> Expr:
    """Scalar obstruction (in x, y, lam) to point-equivalence with y'' = 0:
    2 L_a lam + 2 L_b, with Liouville's two relative invariants of the cubic
    ODE (R. Liouville, J. Ecole Polytechnique 59 (1889) 7-76; Bryant,
    Dunajski & Eastwood, J. Differential Geom. 83 (2009) 465-499,
    arXiv:0801.0300), subscripts partial derivatives:
        L_a = A1_yy - 2 A2_xy + 3 A3_xx - 3 A0 A3_y + 3 A1 A3_x + A2 A1_y
              - 2 A2 A2_x - 6 A3 A0_y + 3 A3 A1_x
        L_b = 3 A0_yy - 2 A1_xy + A2_xx - 3 A0 A2_y + 6 A0 A3_x + 2 A1 A1_y
              - A1 A2_x - 3 A2 A0_y + 3 A3 A0_x
    This is the invariant of the spray d_x + lam d_y + F d_lam, F = A0 +
    A1 lam + A2 lam^2 + A3 lam^3, with its cancellations carried out: it is
    linear in lam.  It is computed in a field on the chart (x, y, lam), so a
    flat structure gives the zero element and a nonzero one makes its view on
    first read."""
    x, y = (sp.Symbol(n) for n in p.chart2)
    lam = sp.Symbol(FIBRE)
    trees = [Expr(a).sym for a in p.A]
    F = Field((x, y, lam), trees)

    def compute():
        A0, A1, A2, A3 = A = [F.fold(t) for t in trees]
        (A0x, A1x, A2x, A3x), (A0y, A1y, A2y, A3y) = ([F.diff(a, v) for a in A] for v in (x, y))
        La = (F.diff(A1y, y) - 2 * F.diff(A2y, x) + 3 * F.diff(A3x, x) - 3 * A0 * A3y
              + 3 * A1 * A3x + A2 * A1y - 2 * A2 * A2x - 6 * A3 * A0y + 3 * A3 * A1x)
        Lb = (3 * F.diff(A0y, y) - 2 * F.diff(A1y, x) + F.diff(A2x, x) - 3 * A0 * A2y
              + 6 * A0 * A3x + 2 * A1 * A1y - A1 * A2x - 3 * A2 * A0y + 3 * A3 * A0x)
        return 2 * La * F.fold(lam) + 2 * Lb

    return Field.expr(F.run(compute))


def derivative_of_first_order(b) -> ProjectiveStructure:
    """The structure of y'' = b_y y' + b_x, i.e. the derivative of y' = b(x, y)."""
    b = Expr(b)
    names = sorted(b.free_symbols())
    if not set(names) <= {"x", "y"}:
        raise ExprError("b must be an expression in (x, y)")
    bx = b.diff("x")
    by = b.diff("y")
    return ProjectiveStructure.build(("x", "y"), [bx, by, Expr(0), Expr(0)])


@dataclass
class GeodesicPath:
    points: list[tuple[float, float, float]]
    completed: bool
    message: str = ""


def geodesic_integrate(p: ProjectiveStructure, init, h: float, n: int) -> GeodesicPath:
    """Classical fixed-step 4th-order integration of
    dx/ds = 1, dy/ds = lam, dlam/ds = F(x, y, lam), for n >= 0 steps of a
    finite size h (else ExprError).  The state is three floats and the four
    stages are unrolled, stage j being (1, lam_j, F_j); each update keeps the
    order and grouping of the vector form s + h/2 k_j and
    s + h/6 (k1 + 2 k2 + 2 k3 + k4), so every point is the double that form
    gives.  A stage that raises, or a state with a coordinate past 1e12 or
    nan, ends the path with completed False.  F is compiled once per
    structure (`ProjectiveStructure._spray_fn`)."""
    if n < 0:
        raise ExprError(f"step count must be non-negative, got {n}")
    if not math.isfinite(h):
        raise ExprError(f"step size must be finite, got {h}")
    fn = p._spray_fn
    x, y, lam = (float(v) for v in init)
    pts = [(x, y, lam)]
    h2, h6 = h / 2, h / 6
    for _ in range(n):
        try:
            a = fn(x, y, lam)
            xm, l2 = x + h2, lam + h2 * a
            b = fn(xm, y + h2 * lam, l2)
            l3 = lam + h2 * b
            c = fn(xm, y + h2 * l2, l3)
            l4 = lam + h * c
            d = fn(x + h, y + h * l3, l4)
        except (ZeroDivisionError, OverflowError, ValueError) as ex:
            return GeodesicPath(pts, False, f"integration aborted: {ex}")
        # dx/ds = 1 in every stage: h / 6 * (1 + 2 + 2 + 1), not h
        x, y, lam = (x + h6 * 6.0, y + h6 * (lam + 2 * l2 + 2 * l3 + l4),
                     lam + h6 * (a + 2 * b + 2 * c + d))
        if not (abs(x) <= 1e12 and abs(y) <= 1e12 and abs(lam) <= 1e12):
            return GeodesicPath(pts, False, "integration aborted: state diverged")
        pts.append((x, y, lam))
    return GeodesicPath(pts, True)
