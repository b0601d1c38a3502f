"""Coordinate tensor calculus on a 4D chart: curvature, Lie derivatives,
exterior algebra, conformal rescaling.

Everything is dense and exact; metrics memoize their inverse and curvature so
repeated queries (tetrad projections, spin coefficients, classification) share
work.  The curvature chain (det, inverse, Christoffels, Riemann, Ricci, Weyl)
computes in one sparse fraction field per metric (`expr.Field`); components
are shown as sympy normal forms and exposed as Expr at the API boundary.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import sympy as sp

from .expr import Expr, ExprError, Field, SampleConfig, Verdict, is_zero_all, normalize

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

# fibre coordinate of the projective primed spin bundle (the twistor space); a
# gen of every metric's field, so the Lax pair computes in the metric's field
FIBRE = "lam"


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


class TensorField:
    """Dense tensor: valence is a string over 'u' (contravariant) / 'l'.

    A tensor computed in a metric's field keeps its elements in `el` and makes
    the sympy components (`comps`) on first read."""

    def __init__(self, chart: Chart, valence: str, comps: list | None = None,
                 el: list | None = None):
        if len(valence) == 0:
            raise ExprError("use Expr for scalars")
        self.chart = chart
        self.valence = valence
        self._comps = comps
        self.el = el

    @property
    def comps(self) -> list:
        if self._comps is None:
            self._comps = _nested_map(Field.view, self.el)
        return self._comps

    def __getitem__(self, idx):
        c = self.comps
        if isinstance(idx, int):
            idx = (idx,)
        for i in idx:
            c = c[i]
        if not isinstance(c, sp.Expr):
            return c
        return Expr._normal(c) if self.el is not None else Expr(c)

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


def _nested_map(fn, obj):
    if isinstance(obj, list):
        return [_nested_map(fn, v) for v in obj]
    return fn(obj)


def _minor(m, rows, cols):
    """Determinant of the submatrix of m on rows x cols (Laplace expansion)."""
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    out = m[rows[0]][cols[0]].field.zero
    r, rest = rows[0], rows[1:]
    for k, c in enumerate(cols):
        if not m[r][c]:
            continue
        term = m[r][c] * _minor(m, rest, cols[:k] + cols[k + 1:])
        out = out + term if k % 2 == 0 else out - term
    return out


def det4(m):
    """Determinant of a 4x4 matrix of field elements."""
    return _minor(m, (0, 1, 2, 3), (0, 1, 2, 3))


def adjugate4(m) -> list:
    """adj[a][b] = (-1)^(a+b) times the minor of m without row b and column a."""
    full = (0, 1, 2, 3)
    return [[(-1) ** (a + b) * _minor(m, full[:b] + full[b + 1:], full[:a] + full[a + 1:])
             for b in _R] for a in _R]


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
        self._field: Field | None = None

    def __getitem__(self, idx):
        a, b = idx
        return Expr(self.comps[a][b])

    def _memo(self, key: str, fn: Callable):
        if key not in self._cache:
            self._cache[key] = self.field.run(fn)
        return self._cache[key]

    @property
    def field(self) -> Field:
        """The fraction field of this metric's chain: chart symbols, the fibre
        symbol, and the gens of the components."""
        if self._field is None:
            syms = self.chart.syms + (sp.Symbol(FIBRE),)
            self._field = Field(syms, [c for row in self.comps for c in row])
        return self._field

    @property
    def el(self) -> list:
        """The components as field elements."""
        F = self.field
        return F.up(self._memo("el", lambda: [[F.element(c) for c in row]
                                               for row in self.comps]))

    def _det_el(self):
        return self.field.up(self._memo("det", lambda: det4(self.el)))

    @property
    def det(self) -> Expr:
        return self.field.expr(self._det_el())

    @property
    def inverse(self) -> list:
        def compute():
            det = self._det_el()
            if not det:
                raise ExprError("metric is degenerate: det normalizes to zero")
            adj = adjugate4(self.el)
            inv = [[adj[a][b] / det for b in _R] for a in _R]
            self._cache["inv_el"] = inv
            return _nested_map(Field.view, inv)
        return self._memo("inv", compute)

    def _inverse_el(self) -> list:
        self.inverse  # fills "inv_el" inside the inverse layer
        return self.field.up(self._cache["inv_el"])

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
        F = g.field
        x = g.chart.syms
        gg = g.el
        ginv = g._inverse_el()
        dg = _nested(3)  # dg[i][j][k] = d_k g_ij
        for a in _R:
            for b in range(a, 4):
                dg[a][b] = dg[b][a] = [F.diff(gg[a][b], x[c]) for c in _R]
        out = _nested(3)
        for a in _R:
            for b in _R:
                for c in range(b, 4):
                    val = F.K.zero
                    for d in _R:
                        if ginv[a][d]:
                            val += ginv[a][d] * (dg[d][c][b] + dg[b][d][c] - dg[b][c][d])
                    out[a][b][c] = out[a][c][b] = val / 2
        return TensorField(g.chart, "ull", el=out)

    return g._memo("christoffels", compute)


def riemann(g: Metric) -> TensorField:
    """R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb."""

    def compute():
        F = g.field
        x = g.chart.syms
        gam = F.up(christoffels(g).el)
        dgam = {}  # (c, a, d, b) -> d_c Gamma^a_db, symmetric in (d, b)

        def d(c, a, db):
            key = (c, a, min(db), max(db))
            if key not in dgam:
                dgam[key] = F.diff(gam[a][key[2]][key[3]], x[c])
            return dgam[key]

        out = _nested(4, F.K.zero)  # fill c < d, then mirror (antisymmetry)
        for a in _R:
            for b in _R:
                for c in _R:
                    for dd in range(c + 1, 4):
                        val = d(c, a, (dd, b)) - d(dd, a, (c, b))
                        for e in _R:
                            val += gam[a][c][e] * gam[e][dd][b] - gam[a][dd][e] * gam[e][c][b]
                        out[a][b][c][dd] = val
                        out[a][b][dd][c] = -val
        return TensorField(g.chart, "ulll", el=out)

    return g._memo("riemann", compute)


def riemann_lower(g: Metric) -> TensorField:
    """Fully covariant R_abcd."""

    def compute():
        F = g.field
        r = F.up(riemann(g).el)
        gg = g.el
        out = _nested(4, F.K.zero)
        for a in _R:
            for b in _R:
                for c in _R:
                    for d in range(c + 1, 4):
                        val = sum((gg[a][e] * r[e][b][c][d] for e in _R if gg[a][e]), F.K.zero)
                        out[a][b][c][d] = val
                        out[a][b][d][c] = -val
        return TensorField(g.chart, "llll", el=out)

    return g._memo("riemann_lower", compute)


def ricci(g: Metric) -> TensorField:
    """R_bd = R^a_bad."""

    def compute():
        F = g.field
        r = F.up(riemann(g).el)
        out = _nested(2)
        for b in _R:
            for d in range(b, 4):
                out[b][d] = out[d][b] = sum((r[a][b][a][d] for a in _R), F.K.zero)
        return TensorField(g.chart, "ll", el=out)

    return g._memo("ricci", compute)


def _scalar_curvature_el(g: Metric):
    def compute():
        F = g.field
        ric = F.up(ricci(g).el)
        ginv = g._inverse_el()
        return sum((ginv[b][d] * ric[b][d] for b in _R for d in _R if ginv[b][d]), F.K.zero)

    return g.field.up(g._memo("scalar_curvature", compute))


def scalar_curvature(g: Metric) -> Expr:
    return g.field.expr(_scalar_curvature_el(g))


def weyl(g: Metric) -> TensorField:
    """Fully covariant Weyl tensor C_abcd (n = 4)."""

    def compute():
        F = g.field
        s = _scalar_curvature_el(g)
        rl = F.up(riemann_lower(g).el)
        ric = F.up(ricci(g).el)
        gg = g.el
        out = _nested(4, F.K.zero)
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
                        out[a][b][c][d] = val
                        out[a][b][d][c] = -val
        return TensorField(g.chart, "llll", el=out)

    return g._memo("weyl", compute)


def weyl_mixed(g: Metric) -> TensorField:
    """C^a_bcd: the conformally invariant valence."""

    def compute():
        F = g.field
        cw = F.up(weyl(g).el)
        ginv = g._inverse_el()
        out = _nested(4)
        for a in _R:
            for b in _R:
                for c in _R:
                    for d in _R:
                        out[a][b][c][d] = sum((ginv[a][e] * cw[e][b][c][d]
                                               for e in _R if ginv[a][e]), F.K.zero)
        return TensorField(g.chart, "ulll", el=out)

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
