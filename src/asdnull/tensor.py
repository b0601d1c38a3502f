"""Coordinate tensor calculus on a 4D chart: curvature, Lie derivatives,
the twist three-form, conformal rescaling.

Everything is dense and exact, computed in one sparse fraction field per
metric (`expr.Field`); components are shown as sympy normal forms and exposed
as Expr at the API boundary.  One routine differentiates a connection
(`_levi_civita`): the Levi-Civita connection and Riemann tensor of a coframe,
by Cartan's structure equations and Koszul's formula.  A null tetrad's
coframe has a constant frame metric; the coordinate curvature
(`christoffels`, `riemann`, `riemann_lower`, `ricci`, and `weyl` on them) is
the same routine on the holonomic coframe dx^a, whose frame metric is g.  The
form classes hold components and define no arithmetic; wedges are taken on
field elements.

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

from .expr import Expr, ExprError, Field, SampleConfig, Verdict, is_zero_all

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
    "lie_derivative_metric",
    "twist_three_form",
    "vector_norm",
    "conformal_rescale",
]

_R = range(4)
_PAIRS = tuple(itertools.combinations(_R, 2))

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
    """adj[a][b] = (-1)^(a+b) times the minor of m without row b and column a.
    That minor keeps one of the row pairs (0, 1) and (2, 3) whole, and is
    expanded along its other row against the pair's 2x2 minors: twelve 2x2
    minors in all, and three products per entry."""
    pair = {(r, a, b): m[r][a] * m[r + 1][b] - m[r][b] * m[r + 1][a]
            for r in (0, 2) for a, b in _PAIRS}
    zero = m[0][0].field.zero
    adj = _nested(2)
    for b in _R:
        r, top = b ^ 1, 2 if b < 2 else 0  # the row left of b's pair; the whole pair
        for a in _R:
            cols = [c for c in _R if c != a]
            v = zero
            for j, c in enumerate(cols):
                if m[r][c]:
                    rest = [n for n in cols if n != c]
                    t = m[r][c] * pair[top, rest[0], rest[1]]
                    v = v + t if j % 2 == 0 else v - t
            adj[a][b] = v if (a + b) % 2 == 0 else -v
    return adj


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

    def scale(self, omega) -> "Metric":
        """omega g, formed on the elements in this metric's field, grown by
        omega's gens: no component is viewed or folded again."""
        F, w = self.field, _sym(omega)

        def compute():
            we = F.fold(w)
            return [[e * we for e in row] for row in self.el]
        return Metric(self.chart, el=F.run(compute), field=F)


# -- curvature ----------------------------------------------------------------------
#
# One routine for any coframe theta^i with dual frame e_i: a null tetrad's, whose
# frame metric eta_ij = g(e_i, e_j) is the constant eps_AB eps_A'B', or a
# metric's holonomic coframe dx^a, whose frame metric is g itself.

# A null tetrad's eta pairs slot i with slot 3 - i (slots ordered (A, A') as in
# `spinor`: 00', 01', 10', 11'); it is its own inverse.
_ETA = tuple(tuple((1, -1, -1, 1)[i] if j == 3 - i else 0 for j in _R) for i in _R)
_ID = tuple(tuple(int(i == j) for j in _R) for i in _R)


def _rows(m) -> list:
    """The nonzero (index, entry) pairs of each row of a 4x4 matrix."""
    return [[(n, v) for n, v in enumerate(row) if v] for row in m]


def _levi_civita(F: Field, x, theta, frame, eta, eta_inv) -> tuple:
    """(nab, R) of the Levi-Civita connection of the coframe theta^i, as
    elements of F: nab[i][j][k] = theta^k(nabla_{e_i} e_j) and
    R[i][j][k][l] = g(e_i, R(e_k, e_l) e_j), which is e_i^a e_j^b e_k^c e_l^d
    R_abcd, for the dual frame e_i and the frame metric eta_ij = g(e_i, e_j)
    with inverse eta_inv.  An int entry is a constant.

    Each frame vector e_k is one derivation of F (`Field.derivation`),
    applied in one pass of the chain rule (`Field.along`).  The commutators
    [e_i, e_j] = C^k_ij e_k have C^k_ij = theta^k_a [e_i, e_j]^a with
    [e_i, e_j]^a = e_i(e_j^a) - e_j(e_i^a); a frame of constants (the
    holonomic one) commutes.  Koszul's formula (Misner, Thorne & Wheeler,
    *Gravitation* (1973), eq. (8.24)) gives Gamma_kij = g(e_k, nabla_{e_i} e_j):
    2 Gamma_kij = C_kij - C_ijk + C_jki + e_i(eta_jk) + e_j(eta_ik) - e_k(eta_ij),
    the e(eta) terms only for an eta that is not constant.  Only k < j is
    formed: metric compatibility gives Gamma_jik = e_i(eta_kj) - Gamma_kij
    and Gamma_kik = e_i(eta_kk) / 2.  Then
    R_ijkl = e_k(Gamma_ilj) - e_l(Gamma_ikj) - Gamma_mki Gamma^m_lj
    + Gamma_mli Gamma^m_kj - C^m_kl Gamma_imj."""
    zero = F.K.zero
    e = [F.derivation(zip(x, row)) for row in frame]
    C = _nested(3, zero)  # C[k][i][j] = C^k_ij, antisymmetric in (i, j)
    if not all(isinstance(v, int) for row in frame for v in row):
        for i, j in _PAIRS:
            br = [F.along(frame[j][a], e[i]) - F.along(frame[i][a], e[j]) for a in _R]
            for k, th in enumerate(theta):
                c = sum((th[a] * br[a] for a in _R if th[a] and br[a]), zero)
                C[k][i][j], C[k][j][i] = c, -c
    lo, up = _rows(eta), _rows(eta_inv)
    low = [[[sum([v * C[n][i][j] for n, v in lo[k] if C[n][i][j]], zero) for j in _R]
            for i in _R] for k in _R]  # C_kij = eta_kn C^n_ij
    moving = not all(isinstance(v, int) for row in eta for v in row)  # eta is not constant
    de = _nested(3)  # de[i][j][k] = e_i(eta_jk)
    for j in _R if moving else ():
        for k in range(j, 4):
            for i in _R:
                de[i][j][k] = de[i][k][j] = F.along(eta[j][k], e[i])
    gam = _nested(3, zero)
    for k, j in _PAIRS:
        for i in _R:
            v = low[k][i][j] - low[i][j][k] + low[j][k][i]
            if moving:
                v += de[i][j][k] + de[j][i][k] - de[k][i][j]
            gam[k][i][j] = v = v / 2
            gam[j][i][k] = de[i][k][j] - v if moving else -v
    if moving:
        for k in _R:
            for i in _R:
                gam[k][i][k] = de[i][k][k] / 2
    # Gamma^m_lj = eta^mn Gamma_nlj = theta^m(nabla_{e_l} e_j)
    gup = [[[sum([v * gam[n][l][j] for n, v in up[m] if gam[n][l][j]], zero) for j in _R]
            for l in _R] for m in _R]
    R = _nested(4, zero)
    for p, (i, j) in enumerate(_PAIRS):
        for k, l in _PAIRS[p:]:  # pair symmetry R_ijkl = R_klij
            v = F.along(gam[i][l][j], e[k]) - F.along(gam[i][k][j], e[l])
            for m in _R:
                if gam[m][k][i] and gup[m][l][j]:
                    v -= gam[m][k][i] * gup[m][l][j]
                if gam[m][l][i] and gup[m][k][j]:
                    v += gam[m][l][i] * gup[m][k][j]
                if C[m][k][l] and gam[i][m][j]:
                    v -= C[m][k][l] * gam[i][m][j]
            for (a, b, c, d) in ((i, j, k, l), (k, l, i, j)):
                R[a][b][c][d], R[b][a][c][d] = v, -v
                R[a][b][d][c], R[b][a][d][c] = -v, v
    return [[[gup[k][i][j] for k in _R] for j in _R] for i in _R], R


def _ricci_el(R, eta_inv, zero) -> list:
    """The Ricci tensor R_ij = eta^kl R_kilj of a frame Riemann, formed for i <= j."""
    up, out = _rows(eta_inv), _nested(2)
    for i in _R:
        for j in range(i, 4):
            out[i][j] = out[j][i] = sum((v * R[k][i][l][j] for k in _R for l, v in up[k]
                                         if R[k][i][l][j]), zero)
    return out


def _frame_curvature(tet) -> tuple:
    """(nab, R) of a `spinor.NullTetrad` (`_levi_civita` on its coframe),
    memoized on the tetrad."""
    F = tet.g.field
    return _memo_el(tet._coeff_cache, "frame_curvature", F, lambda: _levi_civita(
        F, tet.g.chart.syms, tet.field_el("theta"), tet.field_el("frame"), _ETA, _ETA))


def _frame_ricci(tet) -> list:
    """The frame Ricci R_ij = eta^kl R_kilj of a `spinor.NullTetrad`."""
    return _ricci_el(_frame_curvature(tet)[1], _ETA, tet.g.field.K.zero)


def _curvature(g: Metric) -> tuple:
    """(nab, R) of g's holonomic coframe dx^a, whose frame metric is g:
    nab[b][c][a] = Gamma^a_bc and R = R_abcd.  Memoized on the metric."""
    F = g.field
    return _memo_el(g._cache, "curvature", F, lambda: _levi_civita(
        F, g.chart.syms, _ID, _ID, g.el, g._inverse_el()))


def christoffels(g: Metric) -> TensorField:
    """Levi-Civita connection Gamma^a_bc."""

    def compute():
        nab = _curvature(g)[0]
        return TensorField(g.chart, "ull",
                           el=[[[nab[b][c][a] for c in _R] for b in _R] for a in _R])

    return _memo(g._cache, "christoffels", g.field, compute)


def riemann(g: Metric) -> TensorField:
    """R^a_bcd = g^ae R_ebcd."""

    def compute():
        R, up, zero = _curvature(g)[1], _rows(g._inverse_el()), g.field.K.zero
        return TensorField(g.chart, "ulll", el=[[[[
            sum((v * R[e][b][c][d] for e, v in up[a] if R[e][b][c][d]), zero)
            for d in _R] for c in _R] for b in _R] for a in _R])

    return _memo(g._cache, "riemann", g.field, compute)


def riemann_lower(g: Metric) -> TensorField:
    """Fully covariant R_abcd = g(d_a, R(d_c, d_d) d_b)."""
    return _memo(g._cache, "riemann_lower", g.field,
                 lambda: TensorField(g.chart, "llll", el=_curvature(g)[1]))


def ricci(g: Metric) -> TensorField:
    """R_bd = R^a_bad = g^ac R_abcd."""
    F = g.field
    return _memo(g._cache, "ricci", F, lambda: TensorField(
        g.chart, "ll", el=_ricci_el(_curvature(g)[1], g._inverse_el(), F.K.zero)))


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
    (L_K g)_ab / 2 = (K(g_ab) + g_cb d_a K^c + g_ac d_b K^c) / 2, and
    nabla_a K^a = d_a K^a + K(det g) / (2 det g), with K applied as one
    derivation (`Field.along`)."""
    F = g.field
    k0 = _vector_el(g, k)

    def compute():
        x = g.chart.syms
        kv, gg, det = F.up(k0), g.el, g._det_el()
        zero = F.K.zero
        DK = F.derivation(zip(x, kv))
        kl = [sum((gg[a][b] * kv[b] for b in _R if kv[b]), zero) for a in _R]
        dk = [[F.diff(kv[c], x[a]) for c in _R] for a in _R]  # dk[a][c] = d_a K^c
        nk = _nested(2)
        for a in _R:
            for b in range(a, 4):
                lie = (F.along(gg[a][b], DK)
                       + sum((gg[c][b] * dk[a][c] for c in _R if dk[a][c]), zero)
                       + sum((gg[a][c] * dk[b][c] for c in _R if dk[b][c]), zero))
                curl = F.diff(kl[b], x[a]) - F.diff(kl[a], x[b])
                nk[a][b], nk[b][a] = (lie + curl) / 2, (lie - curl) / 2
        div = sum((dk[a][a] for a in _R), zero) + F.along(det, DK) / det / 2
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
