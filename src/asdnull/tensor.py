"""Coordinate tensor calculus on a 4D chart: curvature, Lie derivatives,
exterior algebra, conformal rescaling.

Everything is dense and exact; metrics memoize their inverse and curvature so
repeated queries (tetrad projections, spin coefficients, classification) share
work.  Components are stored as sympy expressions internally and exposed as
Expr at the API boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import sympy as sp

from .expr import Expr, ExprError, SampleConfig, Verdict, is_zero_all, normalize

__all__ = [
    "Chart",
    "Metric",
    "TensorField",
    "VectorField",
    "OneForm",
    "TwoForm",
    "ThreeForm",
    "christoffels",
    "riemann",
    "riemann_lower",
    "ricci",
    "scalar_curvature",
    "weyl",
    "weyl_mixed",
    "lie_derivative_metric",
    "twist_three_form",
    "conformal_rescale",
    "pair_product",
    "wedge",
    "exterior_derivative_oneform",
]

_R = range(4)


def _sym(v) -> sp.Expr:
    return Expr(v).sym if not isinstance(v, sp.Expr) else v


class Chart:
    """Ordered coordinate symbols; arity 4 for the metric modules."""

    def __init__(self, names: Sequence[str]):
        if len(set(names)) != len(names):
            raise ExprError("coordinate names must be distinct")
        self.names = tuple(names)
        self.syms = tuple(sp.Symbol(n) for n in names)

    @property
    def dim(self) -> int:
        return len(self.names)

    def require_dim(self, n: int):
        if self.dim != n:
            raise ExprError(f"chart has arity {self.dim}, expected {n}")

    def __eq__(self, other):
        return isinstance(other, Chart) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Chart{self.names}"


@dataclass
class TensorField:
    """Dense tensor: valence is a string over 'u' (contravariant) / 'l'."""

    chart: Chart
    valence: str
    comps: list

    def __post_init__(self):
        if len(self.valence) == 0:
            raise ExprError("use Expr for scalars")

    def __getitem__(self, idx):
        c = self.comps
        if isinstance(idx, int):
            idx = (idx,)
        for i in idx:
            c = c[i]
        return Expr(c) if isinstance(c, sp.Expr) else c

    def raw(self, *idx):
        c = self.comps
        for i in idx:
            c = c[i]
        return c

    def components_flat(self) -> list[Expr]:
        rank = len(self.valence)
        return [self[idx] for idx in itertools.product(_R, repeat=rank)]

    def zero_verdict(self, cfg: SampleConfig = SampleConfig()) -> Verdict:
        return is_zero_all(self.components_flat(), cfg)


def _nested(rank: int, fill=None):
    if rank == 1:
        return [fill] * 4
    return [_nested(rank - 1, fill) for _ in _R]


class VectorField(TensorField):
    def __init__(self, chart: Chart, comps: Sequence):
        chart.require_dim(4)
        super().__init__(chart, "u", [_sym(c) for c in comps])


class OneForm(TensorField):
    def __init__(self, chart: Chart, comps: Sequence):
        chart.require_dim(4)
        super().__init__(chart, "l", [_sym(c) for c in comps])

    def __call__(self, v: VectorField) -> Expr:
        return Expr(sum(self.comps[a] * v.comps[a] for a in _R))

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.chart, [self.comps[a] + other.comps[a] for a in _R])

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.chart, [self.comps[a] - other.comps[a] for a in _R])

    def __mul__(self, f) -> "OneForm":
        s = _sym(f)
        return OneForm(self.chart, [self.comps[a] * s for a in _R])

    __rmul__ = __mul__


class TwoForm(TensorField):
    """Antisymmetric rank-2 covariant tensor."""

    def __init__(self, chart: Chart, comps):
        chart.require_dim(4)
        super().__init__(chart, "ll", [[_sym(comps[a][b]) for b in _R] for a in _R])

    def __add__(self, other):
        return TwoForm(self.chart,
                       [[self.comps[a][b] + other.comps[a][b] for b in _R] for a in _R])

    def __sub__(self, other):
        return TwoForm(self.chart,
                       [[self.comps[a][b] - other.comps[a][b] for b in _R] for a in _R])

    def __mul__(self, f):
        s = _sym(f)
        return TwoForm(self.chart, [[self.comps[a][b] * s for b in _R] for a in _R])

    __rmul__ = __mul__


class ThreeForm(TensorField):
    """Totally antisymmetric rank-3; stored dense, built from 4 independent comps."""

    def __init__(self, chart: Chart, comps):
        chart.require_dim(4)
        super().__init__(chart, "lll",
                         [[[_sym(comps[a][b][c]) for c in _R] for b in _R] for a in _R])

    def independent_components(self) -> dict[tuple[int, int, int], Expr]:
        return {(a, b, c): self[a, b, c]
                for a, b, c in itertools.combinations(_R, 3)}


class Metric:
    """Symmetric nondegenerate metric on a 4D chart, with memoized curvature."""

    def __init__(self, chart: Chart, comps):
        chart.require_dim(4)
        self.chart = chart
        rows = [[normalize(_sym(comps[a][b])) for b in _R] for a in _R]
        for a in _R:  # upper triangle is authoritative
            for b in range(a + 1, 4):
                rows[b][a] = rows[a][b]
        self.comps = rows
        self._cache: dict = {}

    def __getitem__(self, idx):
        a, b = idx
        return Expr(self.comps[a][b])

    def _memo(self, key: str, fn: Callable):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def det(self) -> Expr:
        def compute():
            return normalize(sp.Matrix(self.comps).det(method="berkowitz"))
        return Expr(self._memo("det", compute))

    @property
    def inverse(self) -> list:
        def compute():
            det = self.det.sym
            if det == 0:
                raise ExprError("metric is degenerate: det normalizes to zero")
            adj = sp.Matrix(self.comps).adjugate()
            return [[normalize(adj[a, b] / det) for b in _R] for a in _R]
        return self._memo("inv", compute)

    def signature_at(self, point) -> tuple[int, int]:
        """(positive, negative) eigenvalue counts at a sample point."""
        from .expr import Assignment, evaluate
        import numpy as np

        a = point if isinstance(point, Assignment) else Assignment(point)
        m = np.array(
            [[float(evaluate(self[i, j], a)) for j in _R] for i in _R], dtype=float
        )
        ev = np.linalg.eigvalsh(m)
        return int((ev > 0).sum()), int((ev < 0).sum())

    def scale(self, omega) -> "Metric":
        w = _sym(omega)
        return Metric(self.chart, [[self.comps[a][b] * w for b in _R] for a in _R])


# -- 1-form algebra helpers -------------------------------------------------------


def pair_product(f1: OneForm, f2: OneForm) -> list:
    """Symmetric product f1 (x) f2 + f2 (x) f1 as a component matrix.

    This makes displayed metric strings literal: a product of the two tetrad
    pairs reproduces 2(theta^00' sym theta^11' - theta^01' sym theta^10')."""
    return [[f1.comps[a] * f2.comps[b] + f1.comps[b] * f2.comps[a] for b in _R]
            for a in _R]


def wedge(f1: OneForm, f2: OneForm) -> TwoForm:
    return TwoForm(f1.chart,
                   [[f1.comps[a] * f2.comps[b] - f1.comps[b] * f2.comps[a]
                     for b in _R] for a in _R])


def exterior_derivative_oneform(w: OneForm) -> TwoForm:
    x = w.chart.syms
    return TwoForm(w.chart,
                   [[sp.diff(w.comps[b], x[a]) - sp.diff(w.comps[a], x[b])
                     for b in _R] for a in _R])


# -- curvature ----------------------------------------------------------------------


def christoffels(g: Metric) -> TensorField:
    """Levi-Civita connection Gamma^a_bc."""

    def compute():
        x = g.chart.syms
        ginv = g.inverse
        dg = [[[sp.diff(g.comps[a][b], x[c]) for c in _R] for b in _R] for a in _R]
        out = _nested(3)
        for a in _R:
            for b in _R:
                for c in range(b, 4):
                    val = sp.S.Zero
                    for d in _R:
                        if ginv[a][d] == 0:
                            continue
                        # dg[i][j][k] = d_k g_ij ; need d_b g_dc + d_c g_bd - d_d g_bc
                        val += ginv[a][d] * (dg[d][c][b] + dg[b][d][c] - dg[b][c][d])
                    out[a][b][c] = val
        for a in _R:
            for b in _R:
                for c in range(b, 4):
                    v = normalize(out[a][b][c] / 2)
                    out[a][b][c] = v
                    out[a][c][b] = v
        return TensorField(g.chart, "ull", out)

    return g._memo("christoffels", compute)


def riemann(g: Metric) -> TensorField:
    """R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb."""

    def compute():
        x = g.chart.syms
        gam = christoffels(g).comps
        out = _nested(4, sp.S.Zero)  # fill c < d, then mirror (antisymmetry)
        for a in _R:
            for b in _R:
                for c in _R:
                    for d in range(c + 1, 4):
                        val = sp.diff(gam[a][d][b], x[c]) - sp.diff(gam[a][c][b], x[d])
                        for e in _R:
                            val += gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b]
                        val = normalize(val)
                        out[a][b][c][d] = val
                        out[a][b][d][c] = -val
        return TensorField(g.chart, "ulll", out)

    return g._memo("riemann", compute)


def riemann_lower(g: Metric) -> TensorField:
    """Fully covariant R_abcd."""

    def compute():
        r = riemann(g).comps
        out = _nested(4, sp.S.Zero)
        for a in _R:
            for b in _R:
                for c in _R:
                    for d in range(c + 1, 4):
                        val = normalize(sum(g.comps[a][e] * r[e][b][c][d] for e in _R))
                        out[a][b][c][d] = val
                        out[a][b][d][c] = -val
        return TensorField(g.chart, "llll", out)

    return g._memo("riemann_lower", compute)


def ricci(g: Metric) -> TensorField:
    """R_bd = R^a_bad."""

    def compute():
        r = riemann(g).comps
        out = [[sp.S.Zero] * 4 for _ in _R]
        for b in _R:
            for d in range(b, 4):
                val = normalize(sum(r[a][b][a][d] for a in _R))
                out[b][d] = val
                out[d][b] = val
        return TensorField(g.chart, "ll", out)

    return g._memo("ricci", compute)


def scalar_curvature(g: Metric) -> Expr:
    def compute():
        ric = ricci(g).comps
        ginv = g.inverse
        return normalize(sum(ginv[b][d] * ric[b][d] for b in _R for d in _R))

    return Expr(g._memo("scalar_curvature", compute))


def weyl(g: Metric) -> TensorField:
    """Fully covariant Weyl tensor C_abcd (n = 4)."""

    def compute():
        rl = riemann_lower(g).comps
        ric = ricci(g).comps
        s = scalar_curvature(g).sym
        gg = g.comps
        out = _nested(4, sp.S.Zero)
        for a in _R:
            for b in _R:
                for c in _R:
                    for d in range(c + 1, 4):
                        val = (
                            rl[a][b][c][d]
                            - (gg[a][c] * ric[b][d] - gg[a][d] * ric[b][c]
                               + gg[b][d] * ric[a][c] - gg[b][c] * ric[a][d]) / 2
                            + s * (gg[a][c] * gg[b][d] - gg[a][d] * gg[b][c]) / 6
                        )
                        val = normalize(val)
                        out[a][b][c][d] = val
                        out[a][b][d][c] = -val
        return TensorField(g.chart, "llll", out)

    return g._memo("weyl", compute)


def weyl_mixed(g: Metric) -> TensorField:
    """C^a_bcd: the conformally invariant valence."""

    def compute():
        cw = weyl(g).comps
        ginv = g.inverse
        out = _nested(4)
        for a in _R:
            for b in _R:
                for c in _R:
                    for d in _R:
                        out[a][b][c][d] = normalize(
                            sum(ginv[a][e] * cw[e][b][c][d] for e in _R)
                        )
        return TensorField(g.chart, "ulll", out)

    return g._memo("weyl_mixed", compute)


def metric_compatibility_residuals(g: Metric) -> list[Expr]:
    """nabla_c g_ab components; all must vanish."""
    x = g.chart.syms
    gam = christoffels(g).comps
    out = []
    for c in _R:
        for a in _R:
            for b in range(a, 4):
                val = sp.diff(g.comps[a][b], x[c]) - sum(
                    gam[e][c][a] * g.comps[e][b] + gam[e][c][b] * g.comps[a][e]
                    for e in _R
                )
                out.append(Expr(normalize(val)))
    return out


def lie_derivative_metric(g: Metric, k: VectorField) -> TensorField:
    """(L_K g)_ab = K^c d_c g_ab + g_cb d_a K^c + g_ac d_b K^c."""
    x = g.chart.syms
    out = [[sp.S.Zero] * 4 for _ in _R]
    for a in _R:
        for b in range(a, 4):
            val = sum(k.comps[c] * sp.diff(g.comps[a][b], x[c]) for c in _R)
            val += sum(g.comps[c][b] * sp.diff(k.comps[c], x[a]) for c in _R)
            val += sum(g.comps[a][c] * sp.diff(k.comps[c], x[b]) for c in _R)
            val = normalize(val)
            out[a][b] = val
            out[b][a] = val
    return TensorField(g.chart, "ll", out)


def metric_dual_oneform(g: Metric, k: VectorField) -> OneForm:
    return OneForm(g.chart, [sum(g.comps[a][b] * k.comps[b] for b in _R) for a in _R])


def twist_three_form(g: Metric, k: VectorField) -> ThreeForm:
    """K-flat wedge d(K-flat); vanishing means K is hypersurface-orthogonal."""
    kf = metric_dual_oneform(g, k)
    dk = exterior_derivative_oneform(kf)
    comps = _nested(3)
    for a in _R:
        for b in _R:
            for c in _R:
                comps[a][b][c] = normalize(
                    kf.comps[a] * dk.comps[b][c]
                    + kf.comps[b] * dk.comps[c][a]
                    + kf.comps[c] * dk.comps[a][b]
                )
    return ThreeForm(g.chart, comps)


def conformal_rescale(g: Metric, omega) -> Metric:
    """Multiply the components by omega (not identically zero)."""
    w = Expr(omega)
    if w.is_proven_zero():
        raise ExprError("conformal factor is identically zero")
    return g.scale(w.sym)
