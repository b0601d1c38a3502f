"""Lax pairs on the projectivized primed spin bundle, Frobenius integrability,
the Killing-vector lift, and its commutation with the distribution.

All vector fields live on the 5-dimensional space (chart coordinates, lam)
where lam is the affine fibre coordinate of the primed projective spin bundle.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

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
    random_points,
)
from .spinor import _killing_spinors, _spin_coefficients, _SLOT, _eps, _R2
from .tensor import FIBRE, _memo, _vector_el

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
    field: Field = dataclasses.field(repr=False, compare=False)
    el: tuple = dataclasses.field(repr=False, compare=False)

    def vars(self):
        return tuple(self.chart_names) + (self.fibre,)


@dataclass
class LiftedKilling:
    chart_names: tuple[str, ...]
    fibre: str
    comps: list[Expr]  # K components followed by the d_lam coefficient
    # the metric's field and comps as its elements
    field: Field = dataclasses.field(repr=False, compare=False)
    el: tuple = dataclasses.field(repr=False, compare=False)


@dataclass
class SpanSolve:
    """Result of expressing a derivation in the span of L0, L1."""

    coefficients: tuple[Expr, ...] | None
    verdict: Verdict
    method: str  # "symbolic" or "numeric"


def lax_pair(bg) -> LaxPair:
    """L_A = pi^{A'} (e_{AA'} - Gamma_{AA'B'}^{C'} pi^{B'} d/dpi^{C'}),
    projectivized to the affine fibre coordinate; memoized on the tetrad."""
    g, tet = bg.g, bg.tet
    F = g.field

    def compute():
        gp = _spin_coefficients(g, tet)[1]
        E = tet.field_el("frame")
        lam = F.fold(sp.Symbol(FIBRE))
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
        return LaxPair(g.chart.names, FIBRE, L0, L1, F, tuple(out))

    return _memo(tet._coeff_cache, "lax_pair", F, compute)


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
    F = Field([sp.Symbol(n) for n in vars_names],
              [Expr(c).sym for f in (target, *fields) for c in f])
    return _solve_in_span(F, vars_names, [F.fold(Expr(c).sym) for c in target],
                          [[F.fold(Expr(c).sym) for c in f] for f in fields], cfg)


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
    # numeric fallback: pointwise least squares at seeded sample points (numpy
    # is imported here, after the minors, so an exact solve never loads it)
    import numpy as np

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
    F = g.field
    phi, _, eta = _killing_spinors(g, tet, K, cfg)
    phi, eta, k = F.up((phi, eta, _vector_el(g, K)))
    kaa = tet.vector_el(k)
    gp = _spin_coefficients(g, tet)[1]
    lam = F.fold(sp.Symbol(FIBRE))
    pi = (F.K.one, lam)  # pi^{A'} = (1, lam) on the affine patch
    pi_lo = (-lam, F.K.one)  # pi_{A'} = pi^{B'} eps_{B'A'}
    # phi^{A'B'} = eps^{A'C'} eps^{B'D'} phi_{C'D'}
    phi_up = [[_eps(ap, 1 - ap) * _eps(bp, 1 - bp) * phi[2 - ap - bp] for bp in _R2]
              for ap in _R2]

    # The self-dual rotation term enters with the staircase that makes the lift
    # commute with the twistor distribution (pi^{A'} phi_{A'}^{B'}); the trace
    # term is Euler-proportional and drops under projectivization.
    T = [F.K.zero, F.K.zero]
    for Cp in _R2:
        for A, Ap, Bp in itertools.product(_R2, repeat=3):
            T[Cp] -= kaa[A][Ap] * gp[_SLOT[A, Ap]][Bp][Cp] * pi[Bp]
        for Ap in _R2:
            T[Cp] -= pi_lo[Ap] * phi_up[Ap][Cp]
        T[Cp] += eta * pi[Cp] / 2
    el = (*k, T[1] - lam * T[0])
    return LiftedKilling(g.chart.names, FIBRE, [F.expr(c) for c in el], F, el)


def lift_commutation_check(kl: LiftedKilling, lp: LaxPair,
                           cfg: SampleConfig = SampleConfig()):
    """[K~, L_A] must close onto span{L0, L1}; returns the two SpanSolves."""
    return [_bracket_in_span(lp, kl.el, L, cfg) for L in lp.el]
