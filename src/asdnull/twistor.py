"""Lax pairs on the projectivized primed spin bundle, Frobenius integrability,
the Killing-vector lift, and its commutation with the distribution.

All vector fields live on the 5-dimensional space (chart coordinates, lam)
where lam is the affine fibre coordinate of the primed projective spin bundle.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .expr import (
    POINT_ERRORS,
    Expr,
    ExprError,
    Field,
    SampleConfig,
    Verdict,
    _compiled,
    is_zero,
    is_zero_all,
    normalize,
    random_points,
)
from .spinor import killing_decompose, spin_coefficients, _SLOT, _eps, _R2
from .tensor import FIBRE

__all__ = [
    "FIBRE",
    "LaxPair",
    "LiftedKilling",
    "SpanSolve",
    "lax_pair",
    "integrability_check",
    "lift_killing",
    "lift_commutation_check",
]

_R = range(4)


@dataclass
class LaxPair:
    """L0, L1 as 5-component derivations (coords + fibre)."""

    chart_names: tuple[str, ...]
    fibre: str
    L0: list[Expr]
    L1: list[Expr]
    # the metric's field and L0, L1 as its elements
    field: Field | None = dataclasses.field(default=None, repr=False, compare=False)
    el: tuple | None = dataclasses.field(default=None, repr=False, compare=False)

    def vars(self):
        return tuple(self.chart_names) + (self.fibre,)


@dataclass
class LiftedKilling:
    chart_names: tuple[str, ...]
    fibre: str
    comps: list[Expr]  # K components followed by the d_lam coefficient


@dataclass
class SpanSolve:
    """Result of expressing a derivation in the span of L0, L1."""

    coefficients: tuple[Expr, ...] | None
    verdict: Verdict
    method: str  # "symbolic" or "numeric"


def _pi_poly(lam):
    return (sp.S.One, lam)  # pi^{A'} = (1, lam) on the affine patch


def lax_pair(bg) -> LaxPair:
    """L_A = pi^{A'} (e_{AA'} - Gamma_{AA'B'}^{C'} pi^{B'} d/dpi^{C'}),
    projectivized to the affine fibre coordinate; memoized on the tetrad."""
    g, tet = bg.g, bg.tet
    if "lax_pair" in tet._coeff_cache:
        return tet._coeff_cache["lax_pair"]
    F = g.field
    spin_coefficients(g, tet)
    gp = F.up(tet._el["spin_coefficients"][1])
    E = tet.field_el("frame")
    lam = F.element(sp.Symbol(FIBRE))
    pi = (F.K.one, lam)
    out = []
    for A in _R2:
        horiz = [E[_SLOT[A, 0]][a] + lam * E[_SLOT[A, 1]][a] for a in _R]
        w = [F.K.zero, F.K.zero]  # vertical components on the spin bundle
        for Cp in _R2:
            for Ap in _R2:
                for Bp in _R2:
                    w[Cp] -= gp[_SLOT[A, Ap]][Bp][Cp] * pi[Ap] * pi[Bp]
        out.append(horiz + [w[1] - lam * w[0]])
    L0, L1 = ([F.expr(c) for c in L] for L in out)
    tet._coeff_cache["lax_pair"] = LaxPair(g.chart.names, FIBRE, L0, L1, F, tuple(out))
    return tet._coeff_cache["lax_pair"]


def _commutator(F: Field, vars_syms, X, Y) -> list:
    out = []
    for k in range(len(vars_syms)):
        val = F.K.zero
        for i, v in enumerate(vars_syms):
            if X[i]:
                val += X[i] * F.diff(Y[k], v)
            if Y[i]:
                val -= Y[i] * F.diff(X[k], v)
        out.append(val)
    return out


def solve_in_span(vars_names, target, fields, cfg: SampleConfig = SampleConfig()) -> SpanSolve:
    """Write target = sum c_k fields[k] over the expression field; exact minor
    solve when possible, seeded least-squares fallback otherwise."""
    trees = [Expr(c).normal for f in (target, *fields) for c in f]
    F = Field([sp.Symbol(n) for n in vars_names], trees)
    return _solve_in_span(F, vars_names, [F.element(Expr(c).normal) for c in target],
                          [[F.element(Expr(c).normal) for c in f] for f in fields], cfg)


def _solve_in_span(F: Field, vars_names, b, cols, cfg: SampleConfig) -> SpanSolve:
    n = len(b)
    m = len(cols)
    if m != 2:
        raise ExprError("span solve implemented for two fields")
    for i, j in itertools.combinations(range(n), 2):
        det = cols[0][i] * cols[1][j] - cols[0][j] * cols[1][i]
        if not det or is_zero(F.expr(det), cfg).kind != "nonzero":
            continue
        c0 = (b[i] * cols[1][j] - b[j] * cols[1][i]) / det
        c1 = (cols[0][i] * b[j] - cols[0][j] * b[i]) / det
        residuals = [F.expr(b[k] - c0 * cols[0][k] - c1 * cols[1][k]) for k in range(n)]
        return SpanSolve((F.expr(c0), F.expr(c1)), is_zero_all(residuals, cfg), "symbolic")
    # numeric fallback: pointwise least squares at seeded sample points
    points = random_points(vars_names, cfg.seed + 17, 9)
    fns_cols = [_compiled(sp.Tuple(*[F.view(c) for c in col]), tuple(vars_names))
                for col in cols]
    fn_b = _compiled(sp.Tuple(*[F.view(c) for c in b]), tuple(vars_names))
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 200:
        attempts += 1
        wit = next(points)
        pt = [float(wit[nm]) for nm in vars_names]
        try:
            A = np.array([fns_cols[k](*pt) for k in range(m)], dtype=float).T
            bb = np.array(fn_b(*pt), dtype=float)
        except POINT_ERRORS:
            continue
        sol, *_ = np.linalg.lstsq(A, bb, rcond=None)
        resid = np.linalg.norm(A @ sol - bb)
        scale = max(1.0, np.linalg.norm(bb), np.linalg.norm(A))
        if resid > 1e-10 * scale:
            return SpanSolve(None, Verdict.nonzero(wit, float(resid)), "numeric")
        checked += 1
    if checked == 0:
        raise ExprError("span solve degenerate at all sample points")
    return SpanSolve(None, Verdict.sampled(), "numeric")


def _bracket_in_span(lp: LaxPair, X: list, Y: list, cfg: SampleConfig) -> SpanSolve:
    """Write [X, Y] (field elements) in span{L0, L1}; proven at once when the
    bracket vanishes."""
    F = lp.field
    vars_names = lp.vars()
    syms = [sp.Symbol(n) for n in vars_names]
    comm = F.run(lambda: _commutator(F, syms, F.up(X), F.up(Y)))
    L = F.up(lp.el)
    if not any(comm):
        return SpanSolve((Expr(0), Expr(0)), Verdict.proven(), "symbolic")
    return _solve_in_span(F, vars_names, comm, list(L), cfg)


def integrability_check(lp: LaxPair, cfg: SampleConfig = SampleConfig()) -> SpanSolve:
    """[L0, L1] must lie in span{L0, L1} (Frobenius)."""
    return _bracket_in_span(lp, lp.el[0], lp.el[1], cfg)


def lift_killing(bg, cfg: SampleConfig = SampleConfig()) -> LiftedKilling:
    """K~ = K^{AA'} e~_{AA'} + pi_{A'} phi^{A'B'} d/dpi^{B'}
    + (eta/2) pi^{A'} d/dpi^{A'}, projectivized."""
    g, tet, K = bg.g, bg.tet, bg.K
    if K is None:
        raise ExprError("geometry has no Killing vector to lift")
    data = killing_decompose(g, tet, K, cfg)
    _, gp, _ = spin_coefficients(g, tet)
    lam = sp.Symbol(FIBRE)
    pi = _pi_poly(lam)
    pi_lo = (-lam, sp.S.One)  # pi_{A'} = pi^{B'} eps_{B'A'}
    kaa = tet.vector_components(K)

    def phi_up(ap, bp):
        # phi^{A'B'} = eps^{A'C'} eps^{B'D'} phi_{C'D'}
        val = sp.S.Zero
        for cp in _R2:
            for dp in _R2:
                e = _eps(ap, cp) * _eps(bp, dp)
                if e:
                    val += e * data.phi_comp(cp, dp).sym
        return val

    # The self-dual rotation term enters with the staircase that makes the lift
    # commute with the twistor distribution (pi^{A'} phi_{A'}^{B'}); the trace
    # term is Euler-proportional and drops under projectivization.
    T = [sp.S.Zero, sp.S.Zero]
    for Cp in _R2:
        for A in _R2:
            for Ap in _R2:
                for Bp in _R2:
                    T[Cp] -= kaa[A][Ap] * gp[_SLOT[A, Ap]][Bp][Cp] * pi[Bp]
        for Ap in _R2:
            T[Cp] -= pi_lo[Ap] * phi_up(Ap, Cp)
        T[Cp] += data.eta.sym * pi[Cp] / 2
    vert = normalize(T[1] - lam * T[0])
    comps = [Expr(normalize(c)) for c in K.comps] + [Expr(vert)]
    return LiftedKilling(g.chart.names, FIBRE, comps)


def lift_commutation_check(kl: LiftedKilling, lp: LaxPair,
                           cfg: SampleConfig = SampleConfig()):
    """[K~, L_A] must close onto span{L0, L1}; returns the two SpanSolves."""
    kel = [lp.field.element(Expr(c).normal) for c in kl.comps]
    return [_bracket_in_span(lp, kel, L, cfg) for L in lp.el]
