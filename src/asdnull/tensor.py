"""Coordinate tensor calculus on a 4D chart: curvature, Lie derivatives,
the twist three-form, conformal rescaling.

Everything is dense and exact.  The coordinate curvature chain (det, inverse,
Christoffels, Riemann, Ricci, Weyl) computes in one sparse fraction field per
metric (`expr.Field`); components are shown as sympy normal forms and exposed
as Expr at the API boundary.  A metric with a tetrad takes its curvature from
the coframe instead (`frame`), so this chain serves metrics without one,
`weyl_mixed` and the tests' independent checks.  The form classes hold
components and define no arithmetic; wedges are taken on field elements.

One memo per owner, one helper: every stage on a metric or its tetrad is
kept in the owner's one dict (`Metric._cache`, `NullTetrad._coeff_cache`) by
`_memo`, which keeps a value computed in the field, or `_memo_el`, which keeps
elements as `Field.held` and reads them back in the current field.  A stage
that others read has one element accessor; a view (`Metric.inverse`,
`spinor.spin_coefficients`) is its accessor's elements viewed, with no memo.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import sympy as sp

from .expr import Expr, ExprError, Field, SampleConfig, Verdict, evaluate, is_zero_all

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
    "vector_norm",
    "conformal_rescale",
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

    A tensor computed in a metric's field keeps its elements in `el`; its
    entries are Exprs that hold them (`shown`, unless given), and the sympy
    components (`comps`) are their trees, made on first read."""

    def __init__(self, chart: Chart, valence: str, comps: list | None = None,
                 el: list | None = None, shown: list | None = None):
        if len(valence) == 0:
            raise ExprError("use Expr for scalars")
        self.chart = chart
        self.valence = valence
        self._comps = comps
        self.el = el
        self._shown = shown

    @property
    def shown(self) -> list:
        """The entries as Exprs holding the elements."""
        if self._shown is None:
            self._shown = _nested_map(Field.expr, self.el)
        return self._shown

    @property
    def comps(self) -> list:
        if self._comps is None:
            self._comps = _nested_map(lambda e: e.sym, self.shown)
        return self._comps

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        c = self.comps if self.el is None else self.shown
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


def _memo(cache: dict, key, F: Field, fn: Callable):
    """fn() computed in F (`Field.run`), kept in its owner's cache under key."""
    if key not in cache:
        cache[key] = F.run(fn)
    return cache[key]


def _memo_el(cache: dict, key, F: Field, fn: Callable):
    """fn's elements, memoized as `Field.held` and read in F's current field."""
    return F.up(_memo(cache, key, F, lambda: F.held(fn())))


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
    """Rank-1 covariant tensor.  Forms define no arithmetic: they combine as
    field elements (`construct._wedge_el`)."""

    def __init__(self, chart: Chart, comps=None, el: list | None = None,
                 shown: list | None = None):
        chart.require_dim(4)
        super().__init__(chart, "l", None if comps is None else [_sym(c) for c in comps],
                         el, shown)


def _entered(F: Field, forms: list[OneForm]) -> list[OneForm]:
    """The one-forms converted into F in one batch, each holding its elements
    and its displays (`Field.convert`)."""
    conv = F.convert_all([c for w in forms for c in w.comps])
    return [OneForm(w.chart, el=[e for _, e in conv[4 * i:4 * i + 4]],
                    shown=[n for n, _ in conv[4 * i:4 * i + 4]]) for i, w in enumerate(forms)]


class TwoForm(TensorField):
    """Antisymmetric rank-2 covariant tensor."""

    def __init__(self, chart: Chart, el: list):
        chart.require_dim(4)
        super().__init__(chart, "ll", el=el)


class ThreeForm(TensorField):
    """Totally antisymmetric rank-3; stored dense, built from 4 independent comps."""

    def __init__(self, chart: Chart, el: list):
        chart.require_dim(4)
        super().__init__(chart, "lll", el=el)

    def independent_components(self) -> dict[tuple[int, int, int], Expr]:
        return {(a, b, c): self[a, b, c]
                for a, b, c in itertools.combinations(_R, 3)}


class Metric:
    """Symmetric nondegenerate metric on a 4D chart, with memoized curvature.

    The components enter the metric's fraction field (a new one unless
    `field` is given) by `Field.convert`, the upper triangle authoritative;
    or they are given as elements `el` of `field` (a builder's g formed from
    its coframe).  Either way they are shown by their displays, whose trees
    (`comps`) are made on first read."""

    def __init__(self, chart: Chart, comps=None, el: list | None = None,
                 field: Field | None = None):
        chart.require_dim(4)
        self.chart = chart
        self._cache: dict = {}
        F = self._field = field or Field(chart.syms + (sp.Symbol(FIBRE),))
        upper = [(a, b) for a in _R for b in range(a, 4)]
        if el is None:
            conv = F.convert_all([_sym(comps[a][b]) for a, b in upper])
        else:
            conv = [(F.expr(el[a][b]), el[a][b]) for a, b in upper]
        shown, els = _nested(2), _nested(2)
        for (a, b), (n, e) in zip(upper, conv):
            shown[a][b] = shown[b][a] = n
            els[a][b] = els[b][a] = e
        self._shown = shown
        self._comps = None
        _memo_el(self._cache, "el", F, lambda: els)

    @property
    def comps(self) -> list:
        """The components as sympy trees."""
        if self._comps is None:
            self._comps = [[e.sym for e in row] for row in self._shown]
        return self._comps

    def __getitem__(self, idx):
        a, b = idx
        return self._shown[a][b]

    @property
    def field(self) -> Field:
        """The fraction field of this metric's chain: chart symbols, the fibre
        symbol, and the gens of the components."""
        return self._field

    @property
    def el(self) -> list:
        """The components as field elements."""
        return self.field.up(self._cache["el"])

    def _det_el(self):
        return _memo_el(self._cache, "det", self.field, lambda: det4(self.el))

    @property
    def inverse(self) -> list:
        """g^ab as sympy trees, the views of `_inverse_el`."""
        return _nested_map(Field.view, self._inverse_el())

    def _inverse_el(self) -> list:
        def compute():
            det = self._det_el()
            if not det:
                raise ExprError("metric is degenerate: det normalizes to zero")
            adj = adjugate4(self.el)
            return [[adj[a][b] / det for b in _R] for a in _R]
        return _memo_el(self._cache, "inv_el", self.field, compute)

    def signature_at(self, point) -> tuple[int, int]:
        """(positive, negative) eigenvalue counts at a sample point."""
        import numpy as np

        m = np.array([[float(evaluate(self[i, j], point)) for j in _R] for i in _R],
                     dtype=float)
        ev = np.linalg.eigvalsh(m)
        return int((ev > 0).sum()), int((ev < 0).sum())

    def scale(self, omega) -> "Metric":
        """omega g, formed on the elements in this metric's field, grown by
        omega's gens: no component is viewed or folded again."""
        F, w = self.field, _sym(omega)

        def compute():
            we = F.fold(w)
            return [[e * we for e in row] for row in self.el]
        return Metric(self.chart, el=F.run(compute), field=F)


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

    return _memo(g._cache, "christoffels", g.field, compute)


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

    return _memo(g._cache, "riemann", g.field, compute)


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

    return _memo(g._cache, "riemann_lower", g.field, compute)


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

    return _memo(g._cache, "ricci", g.field, compute)


def _scalar_curvature_el(g: Metric):
    def compute():
        F = g.field
        ric = F.up(ricci(g).el)
        ginv = g._inverse_el()
        return sum((ginv[b][d] * ric[b][d] for b in _R for d in _R if ginv[b][d]), F.K.zero)

    return _memo_el(g._cache, "scalar_curvature", g.field, compute)


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

    return _memo(g._cache, "weyl", g.field, compute)


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

    return _memo(g._cache, "weyl_mixed", g.field, compute)


def _comps_el(F: Field, comps) -> list:
    """Components entering the field: one normalize each."""
    return F.up([F.convert(c)[1] for c in comps])


def _vector_el(g: Metric, k: VectorField) -> list:
    """K's components as elements of g's field, converted once per metric."""
    F = g.field
    return _memo_el(g._cache, ("vector_el", *k.comps), F, lambda: _comps_el(F, k.comps))


def vector_norm(g: Metric, k: VectorField) -> Expr:
    """g(K, K)."""
    F = g.field
    kv, gg = _vector_el(g, k), g.el  # K first: it may grow the field
    return F.expr(sum((gg[a][b] * kv[a] * kv[b] for a in _R for b in _R if kv[a] and kv[b]),
                      F.K.zero))


def _nabla_vector(g: Metric, k: VectorField):
    """(K_a, nabla_a K_b, nabla_a K^a) as field elements, memoized on the
    metric and keyed on K's components.  No Christoffels: the antisymmetric
    part of nabla_a K_b is (dK_flat)_ab / 2, the symmetric part is
    (L_K g)_ab / 2 = (K^c d_c g_ab + g_cb d_a K^c + g_ac d_b K^c) / 2, and
    nabla_a K^a = d_a K^a + K^a d_a(det g) / (2 det g)."""
    F = g.field
    k0 = _vector_el(g, k)

    def compute():
        x = g.chart.syms
        kv, gg, det = F.up(k0), g.el, g._det_el()
        zero = F.K.zero
        kl = [sum((gg[a][b] * kv[b] for b in _R if kv[b]), zero) for a in _R]
        dk = [[F.diff(kv[c], x[a]) for c in _R] for a in _R]  # dk[a][c] = d_a K^c
        nk = _nested(2)
        for a in _R:
            for b in range(a, 4):
                lie = (sum((kv[c] * F.diff(gg[a][b], x[c]) for c in _R if kv[c]), zero)
                       + sum((gg[c][b] * dk[a][c] for c in _R if dk[a][c]), zero)
                       + sum((gg[a][c] * dk[b][c] for c in _R if dk[b][c]), zero))
                curl = F.diff(kl[b], x[a]) - F.diff(kl[a], x[b])
                nk[a][b], nk[b][a] = (lie + curl) / 2, (lie - curl) / 2
        div = (sum((dk[a][a] for a in _R), zero)
               + sum((kv[a] * F.diff(det, x[a]) for a in _R if kv[a]), zero) / det / 2)
        return kl, nk, div

    return _memo_el(g._cache, ("nabla_vector", *k.comps), F, compute)


def lie_derivative_metric(g: Metric, k: VectorField) -> TensorField:
    """(L_K g)_ab = K^c d_c g_ab + g_cb d_a K^c + g_ac d_b K^c = nabla_a K_b + nabla_b K_a."""
    _, nk, _ = _nabla_vector(g, k)
    return TensorField(g.chart, "ll", el=[[nk[a][b] + nk[b][a] for b in _R] for a in _R])


def twist_three_form(g: Metric, k: VectorField) -> ThreeForm:
    """K-flat wedge d(K-flat); vanishing means K is hypersurface-orthogonal."""
    kf, nk, _ = _nabla_vector(g, k)
    dk = [[nk[a][b] - nk[b][a] for b in _R] for a in _R]  # d(K-flat): Gamma is symmetric
    return ThreeForm(g.chart, el=[[[kf[a] * dk[b][c] + kf[b] * dk[c][a] + kf[c] * dk[a][b]
                                    for c in _R] for b in _R] for a in _R])


def conformal_rescale(g: Metric, omega) -> Metric:
    """Multiply the components by omega (not identically zero)."""
    w = Expr(omega)
    if w.is_proven_zero():
        raise ExprError("conformal factor is identically zero")
    return g.scale(w.sym)
