"""Builders for the explicit metric families: nontwisting and twisting normal
forms, Fefferman-like metrics, pp-waves, the Sparling-Tod family, and the
heavenly (pseudo-hyper-Kaehler) form, each packaged with its standard tetrad,
Killing vector, projective data, and constraint residuals."""

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
    weyl_spinors,
)
from .tensor import (
    Chart,
    Metric,
    OneForm,
    TwoForm,
    VectorField,
    pair_product,
    ricci,
    wedge,
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


def _tetrad_from_coframe(chart: Chart, coframe: list[OneForm]) -> NullTetrad:
    """g = theta^00' theta^11' - theta^01' theta^10' with the coframe as its tetrad."""
    pp = pair_product(coframe[0], coframe[3])
    qq = pair_product(coframe[1], coframe[2])
    g = Metric(chart, [[pp[a][b] - qq[a][b] for b in range(4)] for a in range(4)])
    return NullTetrad(g, coframe)


def family_coframe(chart: Chart, family: str, params: Mapping) -> list[OneForm]:
    """Coframe read-off from a displayed family factorization.  The assignment
    puts the Killing vector at e_{00'}, so iota = o = (1, 0)."""
    if family not in _COFRAMES:
        raise ExprError(f"unknown tetrad family {family!r}")
    if family == "flat":
        params = dict.fromkeys(("beta", "A1", "A2", "A3", "P", "Q"), 0)
    return _COFRAMES[family](chart, {k: Expr(v) for k, v in params.items()})


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
    b = params["beta"]
    A0 = (b.diff("x") + b * b.diff("y") - b * params["A1"]
          - b**2 * params["A2"] - b**3 * params["A3"])
    proj = ProjectiveStructure.build(
        ("x", "y"), [A0, params["A1"], params["A2"], params["A3"]]
    )
    tet = _tetrad_from_coframe(chart, _nontwisting_coframe(chart, params))
    K = VectorField(chart, [1, 0, 0, 0])
    return BuiltGeometry(tet.g, tet, K, proj, "nontwisting", params, [])


def _nontwisting_coframe(chart: Chart, p) -> list[OneForm]:
    y, z = sp.Symbol("y"), sp.Symbol("z")
    beta, A1, A2, A3, P, Q = (p[k].sym for k in ("beta", "A1", "A2", "A3", "P", "Q"))
    D = Q - z * A3
    E = z * (-sp.diff(beta, y) + A1 + beta * A2 + beta**2 * A3)
    F = z * (A2 + 2 * beta * A3) + P
    return [
        OneForm(chart, [1, 0, -D, 0]),
        OneForm(chart, [0, -E, -F, 1]),
        OneForm(chart, [0, 1, 0, 0]),
        OneForm(chart, [0, -beta, 1, 0]),
    ]


def g_residual(A0, A1, A2, A3, G) -> Expr:
    """Transport residual (d_x + z d_y + (A0 + z A1 + z^2 A2 + z^3 A3) d_z) G_zz."""
    x, y, z = sp.Symbol("x"), sp.Symbol("y"), sp.Symbol("z")
    a = [Expr(v).sym for v in (A0, A1, A2, A3)]
    Gs = Expr(G).sym
    H = sp.diff(Gs, z, 2)
    pol = a[0] + z * a[1] + z**2 * a[2] + z**3 * a[3]
    return Expr(sp.diff(H, x) + z * sp.diff(H, y) + pol * sp.diff(H, z))


def build_twisting(A0, A1, A2, A3, G,
                   cfg: SampleConfig = SampleConfig()) -> BuiltGeometry:
    """Twisting family from ODE data A0..A3(x, y) and a potential G(x, y, z).

    The transport constraint on G_zz is attached as a residual, not enforced:
    violating inputs build fine and fail downstream integrability checks."""
    params = {
        "A0": _coerce_xy("A0", A0), "A1": _coerce_xy("A1", A1),
        "A2": _coerce_xy("A2", A2), "A3": _coerce_xy("A3", A3),
        "G": _coerce_xy("G", G, extra=("z",)),
    }
    z = sp.Symbol("z")
    H = Expr(sp.diff(params["G"].sym, z, 2))
    if H.is_proven_zero():
        raise ExprError("degenerate twisting metric: G_zz vanishes identically")
    chart = Chart(CHART_TXYZ)
    proj = ProjectiveStructure.build(
        ("x", "y"), [params["A0"], params["A1"], params["A2"], params["A3"]]
    )
    tet = _tetrad_from_coframe(chart, _twisting_coframe(chart, params))
    K = VectorField(chart, [1, 0, 0, 0])
    residual = g_residual(A0, A1, A2, A3, G)
    return BuiltGeometry(tet.g, tet, K, proj, "twisting", params,
                         [("transport", residual)])


def _twisting_coframe(chart: Chart, p) -> list[OneForm]:
    y, z = sp.Symbol("y"), sp.Symbol("z")
    a0, a1, a2, a3 = (p[k].sym for k in ("A0", "A1", "A2", "A3"))
    G = p["G"].sym
    H = sp.diff(G, z, 2)
    Gz = sp.diff(G, z)
    pol = a0 + z * a1 + z**2 * a2 + z**3 * a3
    C = -Gz * a2 - 2 * a3 * (z * Gz - G) + sp.diff(Gz, y)
    D = -Gz * a3
    return [
        OneForm(chart, [1, -C, -D, 0]),
        OneForm(chart, [0, -pol, 0, 1]),
        OneForm(chart, [0, H, 0, 0]),
        OneForm(chart, [0, -z, 1, 0]),
    ]


def _fefferman_coframe(chart: Chart, p) -> list[OneForm]:
    y, z = sp.Symbol("y"), sp.Symbol("z")
    ga, de, ro, si = (p[k].sym for k in ("gamma", "delta", "rho", "sigma"))
    a0, a1, a2, a3 = (p[k].sym for k in ("A0", "A1", "A2", "A3"))
    pol = a0 + z * a1 + z**2 * a2 + z**3 * a3
    C = -(z + ga) * a2 - 2 * a3 * (z**2 / 2 - de) + sp.diff(ga, y) - ro
    D = -(z + ga) * a3 - si
    return [
        OneForm(chart, [1, -C, -D, 0]),
        OneForm(chart, [0, -pol, 0, 1]),
        OneForm(chart, [0, 1, 0, 0]),
        OneForm(chart, [0, -z, 1, 0]),
    ]


def _ppwave_coframe(chart: Chart, p) -> list[OneForm]:
    Q = p["Q"].sym
    return [
        OneForm(chart, [1, 0, -Q, 0]),
        OneForm(chart, [0, 0, 0, 1]),
        OneForm(chart, [0, 1, 0, 0]),
        OneForm(chart, [0, 0, 1, 0]),
    ]


def _sparling_coframe(chart: Chart, p) -> list[OneForm]:
    T, X, Y, Z = chart.syms
    if "W0" in p:
        W0 = p["W0"].sym
    else:
        s = Y * T - Z * X
        W0 = sp.cancel(p["H"].substitute({"u": Expr(Y / s), "v": Expr(Z / s)}).sym / s**3)
    return [
        OneForm(chart, [1, 0, -W0 * Z * Z, W0 * Z * Y]),
        OneForm(chart, [0, 0, 0, 1]),
        OneForm(chart, [0, 1, -W0 * Y * Z, W0 * Y * Y]),
        OneForm(chart, [0, 0, 1, 0]),
    ]


def _heavenly_coframe(chart: Chart, p) -> list[OneForm]:
    T, X, Y, Z = chart.syms
    ts = p["Theta"].sym
    thXX = sp.diff(ts, X, 2)
    thTX = sp.diff(ts, T, 1, X, 1)
    thTT = sp.diff(ts, T, 2)
    return [
        OneForm(chart, [1, 0, -thXX, -thTX]),
        OneForm(chart, [0, 0, 0, 1]),
        OneForm(chart, [0, 1, thTX, thTT]),
        OneForm(chart, [0, 0, 1, 0]),
    ]


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
    tet = _tetrad_from_coframe(chart, _fefferman_coframe(chart, params))
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
    p = bg.params
    ga, de, ro, si = (p[k] for k in ("gamma", "delta", "rho", "sigma"))
    a1, a2, a3 = (p[k] for k in ("A1", "A2", "A3"))
    c1 = ga * a3 + si - a2 / 3
    c2 = ga * a2 - 2 * a3 * de - ga.diff("y") + ro - 2 * a1 / 3
    conditions = is_zero_all([c1, c2], cfg)
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
    tet = _tetrad_from_coframe(chart, _ppwave_coframe(chart, {"Q": Qe}))
    K = VectorField(chart, [1, 0, 0, 0])
    constraints = _ricci_constraints(tet.g)
    return BuiltGeometry(tet.g, tet, K, None, "ppwave", {"Q": Qe}, constraints)


def _ricci_constraints(g: Metric) -> list:
    ric = ricci(g)
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
    T, X, Y, Z = chart.syms
    s = Y * T - Z * X
    Hinst = He.substitute({"u": Expr(Y / s), "v": Expr(Z / s)}).sym
    W0 = sp.cancel(Hinst / s**3)
    tet = _tetrad_from_coframe(chart, _sparling_coframe(chart, {"W0": Expr(W0)}))
    K = VectorField(chart, [Z, Y, 0, 0])  # Y d_X + Z d_T in (T, X, Y, Z) order
    constraints = _ricci_constraints(tet.g) + _asd_constraints(tet.g, tet)
    return BuiltGeometry(tet.g, tet, K, None, "sparling_tod",
                         {"H": He, "W0": Expr(W0)}, constraints)


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
    T, X, Y, Z = chart.syms
    ts = th.sym
    thXX = sp.diff(ts, X, 2)
    thTX = sp.diff(ts, T, 1, X, 1)
    thTT = sp.diff(ts, T, 2)
    tet = _tetrad_from_coframe(chart, _heavenly_coframe(chart, {"Theta": th}))
    residual = Expr(sp.diff(ts, Y, 1, T, 1) - sp.diff(ts, Z, 1, X, 1)
                    + thTT * thXX - thTX**2)
    bg = BuiltGeometry(tet.g, tet, None, None, "heavenly", {"Theta": th},
                       [("heavenly", residual)])
    return bg, HeavenlyData(th, residual)


def heavenly_two_forms(theta) -> tuple[TwoForm, TwoForm, TwoForm]:
    """The covariantly constant self-dual two-forms
    Sigma^{0'0'} = theta^00' ^ theta^10',
    Sigma^{0'1'} = (theta^00' ^ theta^11' + theta^01' ^ theta^10')/2,
    Sigma^{1'1'} = theta^01' ^ theta^11'."""
    bg, _ = build_heavenly(theta)
    return _sigma_forms(bg.tet)


def _sigma_forms(tet: NullTetrad) -> tuple[TwoForm, TwoForm, TwoForm]:
    th = [OneForm(tet.chart, tet.theta[i]) for i in range(4)]
    s00 = wedge(th[0], th[2])
    s01 = (wedge(th[0], th[3]) + wedge(th[1], th[2])) * Expr(sp.Rational(1, 2))
    s11 = wedge(th[1], th[3])
    return s00, s01, s11


def _endo(g: Metric, F: TwoForm):
    ginv = g.inverse
    return [[sp.cancel(sum(ginv[a][c] * F.comps[c][b] for c in range(4)))
             for b in range(4)] for a in range(4)]


def endomorphism_check(theta, cfg: SampleConfig = SampleConfig()) -> Verdict:
    """-I^2 = R^2 = S^2 = Id and IRS = Id for R, I, S built from the Sigma forms
    (S from the unsymmetrized o x iota form, i.e. 2 Sigma^{0'1'})."""
    bg, _ = build_heavenly(theta)
    return heavenly_endomorphism_check(bg, cfg)


def heavenly_endomorphism_check(bg: BuiltGeometry,
                                cfg: SampleConfig = SampleConfig()) -> Verdict:
    """endomorphism_check on an already built heavenly geometry."""
    s00, s01, s11 = _sigma_forms(bg.tet)
    R = _endo(bg.g, s00 - s11)
    Iend = _endo(bg.g, s00 + s11)
    S = _endo(bg.g, s01 * Expr(2))

    def matmul(A, B):
        return [[sp.cancel(sum(A[a][c] * B[c][b] for c in range(4)))
                 for b in range(4)] for a in range(4)]

    ident = [[sp.S.One if a == b else sp.S.Zero for b in range(4)] for a in range(4)]
    residuals = []
    for M, sign in ((matmul(R, R), 1), (matmul(Iend, Iend), -1), (matmul(S, S), 1)):
        for a in range(4):
            for b in range(4):
                residuals.append(Expr(sign * M[a][b] - ident[a][b]))
    IRS = matmul(Iend, matmul(R, S))
    for a in range(4):
        for b in range(4):
            residuals.append(Expr(IRS[a][b] - ident[a][b]))
    return is_zero_all(residuals, cfg)


def sigma_pullback_residuals(theta) -> list[Expr]:
    """Difference between Sigma(pi) = Sigma^{A'B'} pi_A' pi_B' and the pp-wave
    template pi0^2 (dT^dX + Qt dY^dX) + pi0 pi1 (dT^dY - dX^dZ) + pi1^2 dZ^dY
    with Qt = -Theta_XX (the template's function slot is a cohomology
    representative whose sign convention is fixed by this very comparison)."""
    bg, _ = build_heavenly(theta)
    return heavenly_sigma_pullback_residuals(bg)


def heavenly_sigma_pullback_residuals(bg: BuiltGeometry) -> list[Expr]:
    """sigma_pullback_residuals on an already built heavenly geometry."""
    chart = bg.g.chart
    T, X, Y, Z = chart.syms
    pi0, pi1 = sp.symbols("pi0 pi1")
    s00, s01, s11 = _sigma_forms(bg.tet)
    sigma = (s00 * Expr(pi0**2) + s01 * Expr(2 * pi0 * pi1) + s11 * Expr(pi1**2))
    qt = -sp.diff(bg.params["Theta"].sym, X, 2)
    dT = OneForm(chart, [1, 0, 0, 0])
    dX = OneForm(chart, [0, 1, 0, 0])
    dY = OneForm(chart, [0, 0, 1, 0])
    dZ = OneForm(chart, [0, 0, 0, 1])
    template = (
        (wedge(dT, dX) + wedge(dY, dX) * Expr(qt)) * Expr(pi0**2)
        + (wedge(dT, dY) - wedge(dX, dZ)) * Expr(pi0 * pi1)
        + wedge(dZ, dY) * Expr(pi1**2)
    )
    diff = sigma - template
    return [diff[a, b] for a in range(4) for b in range(a + 1, 4)]
