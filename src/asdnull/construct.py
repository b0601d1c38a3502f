"""Builders for the explicit metric families: nontwisting and twisting normal
forms, Fefferman-like metrics, pp-waves, the Sparling-Tod family, and the
heavenly (pseudo-hyper-Kaehler) form, each packaged with its standard tetrad,
Killing vector, projective data, and constraint residuals.

A builder folds its parsed inputs once into a new field over its chart and
the fibre (`expr.Field`) and computes everything else there, by `Field.diff`
and field arithmetic: the coframe, g as the coframe's symmetric product, the
nontwisting A0, the Sparling-Tod W0 and the transport and heavenly residuals.
The stages on a built geometry stay in fields too: the heavenly Sigma
two-forms are wedges of the coframe's elements (`_wedge_el`), the
Sigma-pullback residuals compute in a field of their own over the chart and
(pi0, pi1), and the Fefferman type-N conditions in g's field.  Every display
is its element's view, made on first read."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import sympy as sp

from .expr import (
    Assignment,
    EvalError,
    Expr,
    ExprError,
    Field,
    SampleConfig,
    Verdict,
    is_zero,
    is_zero_all,
)
from .projective import ProjectiveStructure
from .spinor import (
    NullTetrad,
    classification_points,
    petrov_classify_samples,
    tetrad_ricci,
    weyl_spinors,
)
from .tensor import (
    FIBRE,
    Chart,
    Metric,
    OneForm,
    TwoForm,
    VectorField,
)

__all__ = [
    "BuiltGeometry",
    "HeavenlyData",
    "build_flat",
    "build_nontwisting",
    "build_twisting",
    "g_residual",
    "build_fefferman_like",
    "fefferman_typeN_check",
    "build_ppwave",
    "build_sparling_tod",
    "sparling_tod_transform",
    "build_heavenly",
    "heavenly_two_forms",
    "endomorphism_check",
    "heavenly_endomorphism_check",
    "sigma_pullback_residuals",
    "heavenly_sigma_pullback_residuals",
]

CHART_TXYZ = ("t", "x", "y", "z")
CHART_PLEB = ("T", "X", "Y", "Z")


@dataclass
class BuiltGeometry:
    """Metric + tetrad + Killing vector + projective datum + residuals."""

    g: Metric
    tet: NullTetrad
    K: VectorField | None
    proj: ProjectiveStructure | None
    family: str
    params: dict
    constraints: list  # list of (name, Expr)

    def check_constraints(self, cfg: SampleConfig = SampleConfig()) -> list:
        return [(name, is_zero(expr, cfg)) for name, expr in self.constraints]


@dataclass
class HeavenlyData:
    theta: Expr
    residual: Expr  # Theta_YT - Theta_ZX + Theta_TT Theta_XX - Theta_XT^2


_x, _y, _z = sp.symbols("x y z")
_T, _X, _Y, _Z = sp.symbols("T X Y Z")
_NONTWISTING = ("beta", "A1", "A2", "A3", "P", "Q")
_A = ("A0", "A1", "A2", "A3")


def _trees(family: str, params: Mapping) -> dict:
    """The trees a family's coframe folds: its parameters', and for
    Sparling-Tod s = YT - ZX and H(u, v) taken at u = Y/s, v = Z/s."""
    if family == "flat":
        return dict.fromkeys(_NONTWISTING, sp.S.Zero)
    if family == "sparling_tod":
        u, v, s = *sp.symbols("u v"), _Y * _T - _Z * _X
        return {"H": Expr(params["H"]).sym.subs({u: _Y / s, v: _Z / s}), "s": s}
    return {k: Expr(v).sym for k, v in params.items()}


def _inputs(F: Field, family: str, trees: dict) -> dict:
    """The family's inputs as elements of F, each tree folded once (inside
    F.run); Sparling-Tod's W0 = H/s^3 with s entering F's base as itself."""
    if family == "sparling_tod":
        return {"W0": F.fold(trees["H"]) * F.fold(trees["s"]) ** -3}
    return {k: F.fold(t) for k, t in trees.items()}


def _rows(F: Field, *rows) -> list:
    """Coframe rows with their integer entries made elements of F."""
    return [[F.K.constant(c) if isinstance(c, int) else c for c in row] for row in rows]


def _built(chart: Chart, family: str, params: Mapping, more=None) -> tuple:
    """(field, tetrad, more(F, p, rows)): the family's inputs p folded once
    into a new field over the chart, the fibre and their trees, its coframe
    rows and what `more` adds computed there (Field.run).  g = theta^00'
    theta^11' - theta^01' theta^10' is the coframe's symmetric product."""
    trees = _trees(family, params)
    F = Field(chart.syms + (sp.Symbol(FIBRE),), trees.values())

    def compute():
        p = _inputs(F, family, trees)
        rows = _COFRAMES[family](F, p)
        return rows, more(F, p, rows) if more else None

    t, extra = F.run(compute)
    g = Metric(chart, el=[[t[0][a] * t[3][b] + t[0][b] * t[3][a]
                           - t[1][a] * t[2][b] - t[1][b] * t[2][a]
                           for b in range(4)] for a in range(4)], field=F)
    return F, NullTetrad(g, [OneForm(chart, el=row) for row in t]), extra


def family_coframe(g: Metric, family: str, params: Mapping) -> list[OneForm]:
    """Coframe read-off from a displayed family factorization, computed in g's
    field.  The assignment puts the Killing vector at e_{00'}, so
    iota = o = (1, 0)."""
    if family not in _COFRAMES:
        raise ExprError(f"unknown tetrad family {family!r}")
    F, trees = g.field, _trees(family, params)
    rows = F.run(lambda: _COFRAMES[family](F, _inputs(F, family, trees)))
    return [OneForm(g.chart, el=row) for row in rows]


def _coerce_xy(name: str, value, extra=()) -> Expr:
    e = Expr(value)
    allowed = {"x", "y"} | set(extra)
    bad = e.free_symbols() - allowed
    if bad:
        raise ExprError(f"{name} must depend only on {sorted(allowed)}, got {sorted(bad)}")
    return e


def build_flat() -> BuiltGeometry:
    """g = dt dy - dz dx with K = d_t."""
    return build_nontwisting(0, 0, 0, 0, 0, 0)


def build_nontwisting(A1, A2, A3, beta, P, Q) -> BuiltGeometry:
    """Twist-free family: all inputs are functions of (x, y); the missing ODE
    coefficient is determined as A0 = beta_x + beta beta_y - beta A1
    - beta^2 A2 - beta^3 A3."""
    params = {
        "A1": _coerce_xy("A1", A1), "A2": _coerce_xy("A2", A2),
        "A3": _coerce_xy("A3", A3), "beta": _coerce_xy("beta", beta),
        "P": _coerce_xy("P", P), "Q": _coerce_xy("Q", Q),
    }
    chart = Chart(CHART_TXYZ)
    F, tet, A0 = _built(chart, "nontwisting", params, _nontwisting_a0)
    proj = ProjectiveStructure.build(
        ("x", "y"), [F.expr(A0), params["A1"], params["A2"], params["A3"]]
    )
    K = VectorField(chart, [1, 0, 0, 0])
    return BuiltGeometry(tet.g, tet, K, proj, "nontwisting", params, [])


def _nontwisting_a0(F: Field, p, rows):
    b = p["beta"]
    return (F.diff(b, _x) + b * F.diff(b, _y) - b * p["A1"]
            - b**2 * p["A2"] - b**3 * p["A3"])


def _nontwisting_coframe(F: Field, p) -> list:
    beta, A1, A2, A3, P, Q = (p[k] for k in _NONTWISTING)
    z = F.fold(_z)
    D = Q - z * A3
    E = z * (-F.diff(beta, _y) + A1 + beta * A2 + beta**2 * A3)
    Fz = z * (A2 + 2 * beta * A3) + P
    return _rows(F, [1, 0, -D, 0], [0, -E, -Fz, 1], [0, 1, 0, 0], [0, -beta, 1, 0])


def _cubic(F: Field, A: list):
    """A0 + z A1 + z^2 A2 + z^3 A3."""
    z = F.fold(_z)
    return A[0] + z * A[1] + z**2 * A[2] + z**3 * A[3]


def _transport(F: Field, A: list, H):
    """(d_x + z d_y + (A0 + z A1 + z^2 A2 + z^3 A3) d_z) H in F, H = G_zz."""
    return F.diff(H, _x) + F.fold(_z) * F.diff(H, _y) + _cubic(F, A) * F.diff(H, _z)


def g_residual(A0, A1, A2, A3, G) -> Expr:
    """Transport residual (d_x + z d_y + (A0 + z A1 + z^2 A2 + z^3 A3) d_z) G_zz,
    computed in a field over its inputs."""
    trees = [Expr(v).sym for v in (A0, A1, A2, A3, G)]
    F = Field((_x, _y, _z), trees)

    def compute():
        *A, Gf = (F.fold(t) for t in trees)
        return _transport(F, A, F.diff(F.diff(Gf, _z), _z))

    return F.expr(F.run(compute))


def build_twisting(A0, A1, A2, A3, G) -> BuiltGeometry:
    """Twisting family from ODE data A0..A3(x, y) and a potential G(x, y, z).

    The transport constraint on G_zz is attached as a residual, not enforced:
    violating inputs build fine and fail downstream integrability checks."""
    params = {
        "A0": _coerce_xy("A0", A0), "A1": _coerce_xy("A1", A1),
        "A2": _coerce_xy("A2", A2), "A3": _coerce_xy("A3", A3),
        "G": _coerce_xy("G", G, extra=("z",)),
    }
    chart = Chart(CHART_TXYZ)
    F, tet, residual = _built(chart, "twisting", params, _twisting_transport)
    proj = ProjectiveStructure.build(
        ("x", "y"), [params["A0"], params["A1"], params["A2"], params["A3"]]
    )
    K = VectorField(chart, [1, 0, 0, 0])
    return BuiltGeometry(tet.g, tet, K, proj, "twisting", params,
                         [("transport", F.expr(residual))])


def _twisting_transport(F: Field, p, rows):
    H = rows[2][1]  # theta^10' = G_zz dx
    if not H:
        raise ExprError("degenerate twisting metric: G_zz vanishes identically")
    return _transport(F, [p[k] for k in _A], H)


def _twisting_coframe(F: Field, p) -> list:
    A, G, z = [p[k] for k in _A], p["G"], F.fold(_z)
    Gz = F.diff(G, _z)
    H = F.diff(Gz, _z)
    C = -Gz * A[2] - 2 * A[3] * (z * Gz - G) + F.diff(Gz, _y)
    D = -Gz * A[3]
    return _rows(F, [1, -C, -D, 0], [0, -_cubic(F, A), 0, 1], [0, H, 0, 0], [0, -z, 1, 0])


def _fefferman_coframe(F: Field, p) -> list:
    ga, de, ro, si = (p[k] for k in ("gamma", "delta", "rho", "sigma"))
    A, z = [p[k] for k in _A], F.fold(_z)
    C = -(z + ga) * A[2] - 2 * A[3] * (z**2 / 2 - de) + F.diff(ga, _y) - ro
    D = -(z + ga) * A[3] - si
    return _rows(F, [1, -C, -D, 0], [0, -_cubic(F, A), 0, 1], [0, 1, 0, 0], [0, -z, 1, 0])


def _ppwave_coframe(F: Field, p) -> list:
    return _rows(F, [1, 0, -p["Q"], 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0])


def _sparling_coframe(F: Field, p) -> list:
    W0, Y, Z = p["W0"], F.fold(_Y), F.fold(_Z)
    return _rows(F, [1, 0, -W0 * Z * Z, W0 * Z * Y], [0, 0, 0, 1],
                 [0, 1, -W0 * Y * Z, W0 * Y * Y], [0, 0, 1, 0])


def _heavenly_hessian(F: Field, theta) -> tuple:
    """(Theta_XX, Theta_TX, Theta_TT) in F."""
    thT = F.diff(theta, _T)
    return F.diff(F.diff(theta, _X), _X), F.diff(thT, _X), F.diff(thT, _T)


def _heavenly_residual(F: Field, p, rows):
    th = p["Theta"]
    thXX, thTX, thTT = _heavenly_hessian(F, th)
    return F.diff(F.diff(th, _Y), _T) - F.diff(F.diff(th, _Z), _X) + thTT * thXX - thTX**2


def _heavenly_coframe(F: Field, p) -> list:
    thXX, thTX, thTT = _heavenly_hessian(F, p["Theta"])
    return _rows(F, [1, 0, -thXX, -thTX], [0, 0, 0, 1], [0, 1, thTX, thTT], [0, 0, 1, 0])


_COFRAMES = {
    "flat": _nontwisting_coframe,
    "nontwisting": _nontwisting_coframe,
    "twisting": _twisting_coframe,
    "fefferman": _fefferman_coframe,
    "ppwave": _ppwave_coframe,
    "sparling_tod": _sparling_coframe,
    "heavenly": _heavenly_coframe,
}


def build_fefferman_like(gamma, delta, rho, sigma, A0, A1, A2, A3) -> BuiltGeometry:
    """The G_zz = 1 twisting family with the gauge functions rho, sigma kept."""
    params = {
        "gamma": _coerce_xy("gamma", gamma), "delta": _coerce_xy("delta", delta),
        "rho": _coerce_xy("rho", rho), "sigma": _coerce_xy("sigma", sigma),
        "A0": _coerce_xy("A0", A0), "A1": _coerce_xy("A1", A1),
        "A2": _coerce_xy("A2", A2), "A3": _coerce_xy("A3", A3),
    }
    chart = Chart(CHART_TXYZ)
    _, tet, _ = _built(chart, "fefferman", params)
    K = VectorField(chart, [1, 0, 0, 0])
    proj = ProjectiveStructure.build(
        ("x", "y"), [params["A0"], params["A1"], params["A2"], params["A3"]]
    )
    return BuiltGeometry(tet.g, tet, K, proj, "fefferman", params, [])


def fefferman_typeN_check(bg: BuiltGeometry, cfg: SampleConfig = SampleConfig(),
                          points: int = 10):
    """(conditions_verdict, consensus type): the metric is type N exactly when
    gamma A3 + sigma = A2/3 and gamma A2 - 2 A3 delta - gamma_y + rho = 2 A1/3;
    otherwise type III (or O in degenerate corners)."""
    if bg.family != "fefferman":
        raise ExprError("type-N check applies to the Fefferman-like builder")
    F, trees = bg.g.field, _trees("fefferman", bg.params)

    def compute():
        p = _inputs(F, "fefferman", trees)
        ga, de, ro, si = (p[k] for k in ("gamma", "delta", "rho", "sigma"))
        a1, a2, a3 = (p[k] for k in ("A1", "A2", "A3"))
        return (ga * a3 + si - a2 / 3,
                ga * a2 - 2 * a3 * de - F.diff(ga, _y) + ro - 2 * a1 / 3)

    conditions = is_zero_all([F.expr(c) for c in F.run(compute)], cfg)
    cu, _ = weyl_spinors(bg.g, bg.tet)
    pts = classification_points(cu, cfg, points)
    consensus, _, mixed = petrov_classify_samples(cu, pts)
    return conditions, consensus, mixed


def build_ppwave(Q) -> BuiltGeometry:
    """g = dY dT - dZ dX - Q(X, Y) dY^2 with K = d_T."""
    Qe = Expr(Q)
    bad = Qe.free_symbols() - {"X", "Y"}
    if bad:
        raise ExprError(f"Q must depend only on (X, Y), got {sorted(bad)}")
    chart = Chart(CHART_PLEB)
    _, tet, _ = _built(chart, "ppwave", {"Q": Qe})
    K = VectorField(chart, [1, 0, 0, 0])
    constraints = _ricci_constraints(tet.g, tet)
    return BuiltGeometry(tet.g, tet, K, None, "ppwave", {"Q": Qe}, constraints)


def _ricci_constraints(g: Metric, tet: NullTetrad) -> list:
    ric, _ = tetrad_ricci(g, tet)
    out = []
    for a in range(4):
        for b in range(a, 4):
            e = ric[a, b]
            if not e.is_proven_zero():
                out.append((f"ricci_{g.chart.names[a]}{g.chart.names[b]}", e))
    if not out:
        out.append(("ricci_flat", Expr(0)))
    return out


def _asd_constraints(g: Metric, tet: NullTetrad) -> list:
    _, cp = weyl_spinors(g, tet)
    out = []
    for k, c in enumerate(cp.psi):
        if not c.is_proven_zero():
            out.append((f"asd_primed_psi{k}", c))
    if not out:
        out.append(("asd", Expr(0)))
    return out


def build_sparling_tod(H) -> BuiltGeometry:
    """g = dY dT - dZ dX - (H(u, v)/(YT - ZX)^3) (Y dZ - Z dY)^2 where H is a
    concrete expression in the formal arguments (u, v), instantiated at
    u = Y/(YT - ZX), v = Z/(YT - ZX)."""
    He = Expr(H)
    bad = He.free_symbols() - {"u", "v"}
    if bad:
        raise ExprError(f"H must be an expression in (u, v), got {sorted(bad)}")
    chart = Chart(CHART_PLEB)
    F, tet, W0 = _built(chart, "sparling_tod", {"H": He}, lambda F, p, rows: p["W0"])
    K = VectorField(chart, [_Z, _Y, 0, 0])  # Y d_X + Z d_T in (T, X, Y, Z) order
    constraints = _ricci_constraints(tet.g, tet) + _asd_constraints(tet.g, tet)
    return BuiltGeometry(tet.g, tet, K, None, "sparling_tod",
                         {"H": He, "W0": F.expr(W0)}, constraints)


def sparling_tod_transform(pt: Assignment | Mapping) -> Assignment:
    """Point map (T, X, Y, Z) -> (t, x, y, z):
    t = -(X/Y + T/Z)/2, z = (YZ)^(-1/2), x = (YT - XZ)(YZ)^(-1/2), y = log(Z/Y)."""
    pt = pt if isinstance(pt, Assignment) else Assignment(pt)
    try:
        T, X, Y, Z = (float(pt[n]) for n in CHART_PLEB)
    except KeyError as ex:
        raise EvalError(f"transform point must assign T, X, Y, Z: missing {ex}") from ex
    if Y * Z <= 0:
        raise EvalError("transform undefined: YZ <= 0")
    s = Y * T - X * Z
    if s == 0:
        raise EvalError("transform undefined on the singular locus YT - ZX = 0")
    rt = math.sqrt(Y * Z)
    return Assignment({
        "t": -0.5 * (X / Y + T / Z),
        "x": s / rt,
        "y": math.log(Z / Y),
        "z": 1.0 / rt,
    })


def build_heavenly(theta) -> tuple[BuiltGeometry, HeavenlyData]:
    """Plebanski second-heavenly form; the scalar equation residual is attached,
    not enforced."""
    th = Expr(theta)
    bad = th.free_symbols() - set(CHART_PLEB)
    if bad:
        raise ExprError(f"Theta must depend only on (T, X, Y, Z), got {sorted(bad)}")
    chart = Chart(CHART_PLEB)
    F, tet, residual = _built(chart, "heavenly", {"Theta": th}, _heavenly_residual)
    residual = F.expr(residual)
    bg = BuiltGeometry(tet.g, tet, None, None, "heavenly", {"Theta": th},
                       [("heavenly", residual)])
    return bg, HeavenlyData(th, residual)


def heavenly_two_forms(theta) -> tuple[TwoForm, TwoForm, TwoForm]:
    """The covariantly constant self-dual two-forms
    Sigma^{0'0'} = theta^00' ^ theta^10',
    Sigma^{0'1'} = (theta^00' ^ theta^11' + theta^01' ^ theta^10')/2,
    Sigma^{1'1'} = theta^01' ^ theta^11', as elements of the metric's field."""
    bg, _ = build_heavenly(theta)
    return tuple(TwoForm(bg.g.chart, el=s) for s in _sigma_el(bg.tet.field_el("theta")))


def _wedge_el(a: list, b: list) -> list:
    """(a ^ b)_cd = a_c b_d - a_d b_c of two one-forms' field elements."""
    return [[a[c] * b[d] - a[d] * b[c] for d in range(4)] for c in range(4)]


def _sigma_el(th: list) -> tuple:
    """(Sigma^{0'0'}, Sigma^{0'1'}, Sigma^{1'1'}) from the coframe's rows."""
    w03, w12 = _wedge_el(th[0], th[3]), _wedge_el(th[1], th[2])
    s01 = [[(w03[c][d] + w12[c][d]) / 2 for d in range(4)] for c in range(4)]
    return _wedge_el(th[0], th[2]), s01, _wedge_el(th[1], th[3])


def _combination(terms) -> list:
    """sum of f M over the (M, f) terms, entry by entry."""
    return [[sum(M[c][d] * f for M, f in terms) for d in range(4)] for c in range(4)]


def endomorphism_check(theta, cfg: SampleConfig = SampleConfig()) -> Verdict:
    """-I^2 = R^2 = S^2 = Id and IRS = Id for R, I, S built from the Sigma forms
    (S from the unsymmetrized o x iota form, i.e. 2 Sigma^{0'1'})."""
    bg, _ = build_heavenly(theta)
    return heavenly_endomorphism_check(bg, cfg)


def heavenly_endomorphism_check(bg: BuiltGeometry,
                                cfg: SampleConfig = SampleConfig()) -> Verdict:
    """endomorphism_check on an already built heavenly geometry."""
    F = bg.g.field
    ginv = bg.g._inverse_el()
    s00, s01, s11 = _sigma_el(bg.tet.field_el("theta"))
    R4 = range(4)

    def matmul(A, B):
        return [[sum((A[a][c] * B[c][b] for c in R4 if A[a][c]), F.K.zero) for b in R4]
                for a in R4]

    R = matmul(ginv, _combination([(s00, 1), (s11, -1)]))
    Iend = matmul(ginv, _combination([(s00, 1), (s11, 1)]))
    S = matmul(ginv, _combination([(s01, 2)]))
    squares = ((matmul(R, R), 1), (matmul(Iend, Iend), -1), (matmul(S, S), 1),
               (matmul(Iend, matmul(R, S)), 1))
    return is_zero_all([F.expr(sign * M[a][b] - (a == b))
                        for M, sign in squares for a in R4 for b in R4], cfg)


def sigma_pullback_residuals(theta) -> list[Expr]:
    """Difference between Sigma(pi) = Sigma^{A'B'} pi_A' pi_B' and the pp-wave
    template pi0^2 (dT^dX + Qt dY^dX) + pi0 pi1 (dT^dY - dX^dZ) + pi1^2 dZ^dY
    with Qt = -Theta_XX (the template's function slot is a cohomology
    representative whose sign convention is fixed by this very comparison)."""
    bg, _ = build_heavenly(theta)
    return heavenly_sigma_pullback_residuals(bg)


def heavenly_sigma_pullback_residuals(bg: BuiltGeometry) -> list[Expr]:
    """sigma_pullback_residuals on an already built heavenly geometry,
    computed in a field of its own over the chart and (pi0, pi1), so g's
    field does not grow."""
    pis = sp.symbols("pi0 pi1")
    th = bg.params["Theta"].sym
    F = Field(bg.g.chart.syms + pis, [th])

    def compute():
        p = {"Theta": F.fold(th)}
        s00, s01, s11 = _sigma_el(_heavenly_coframe(F, p))
        qt = -_heavenly_hessian(F, p["Theta"])[0]
        a, b = map(F.fold, pis)
        dT, dX, dY, dZ = _rows(F, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
        diff = _combination([  # Sigma(pi) minus the template
            (s00, a * a), (s01, 2 * a * b), (s11, b * b),
            (_wedge_el(dT, dX), -a * a), (_wedge_el(dY, dX), -qt * a * a),
            (_wedge_el(dT, dY), -a * b), (_wedge_el(dX, dZ), a * b), (_wedge_el(dZ, dY), -b * b)])
        return [diff[c][d] for c in range(4) for d in range(c + 1, 4)]

    return [F.expr(r) for r in F.run(compute)]
