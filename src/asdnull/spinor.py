"""Null tetrads, spinor curvature decomposition, Petrov classification, null
Killing-vector spinor data, geodesic-shear-free checks, and the obstruction to
conformal Ricci-flatness.

Conventions: eps_{01} = eps_{0'1'} = 1; lowering mu_A = mu^B eps_{BA}, raising
mu^A = eps^{AB} mu_B.  The tetrad reconstructs the metric as
g = theta^00' theta^11' - theta^01' theta^10' (symmetric products, so the
frame metric is eps_AB eps_A'B').  The primed Weyl spinor is the self-dual
half: it vanishes for anti-self-dual metrics.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    POINT_ERRORS,
    Assignment,
    Expr,
    ExprError,
    Field,
    SampleConfig,
    Verdict,
    evaluate,
    is_zero,
    is_zero_all,
    random_points,
)
from .frame import _frame_curvature, _frame_ricci
from .quartic import RootStructure, quartic_root_structure
from .tensor import (
    Metric,
    OneForm,
    TensorField,
    TwoForm,
    VectorField,
    adjugate4,
    det4,
    ricci,
    scalar_curvature,
    vector_norm,
    _comps_el,
    _entered,
    _memo,
    _memo_el,
    _nabla_vector,
    _nested,
    _nested_map,
    _vector_el,
)

__all__ = [
    "TETRAD_LABELS",
    "NullTetrad",
    "WeylSpinor",
    "KillingSpinorData",
    "SpinorField",
    "PetrovType",
    "standard_tetrad",
    "weyl_spinors",
    "curvature_spinors",
    "petrov_classify",
    "petrov_type_from_partition",
    "scalar_invariants",
    "killing_decompose",
    "null_killing_factorize",
    "check_lemma_identities",
    "principal_direction_check",
    "type_constraint_check",
    "szekeres_obstruction",
    "spin_coefficients",
    "tetrad_ricci",
]

_R = range(4)
_R2 = (0, 1)

# tetrad slot order: (A, A')
TETRAD_LABELS = ("00", "01", "10", "11")
_SLOT = {(a, ap): 2 * a + ap for a in _R2 for ap in _R2}

EPS = ((0, 1), (-1, 0))  # eps_{01}=eps^{01}=1


def _eps(a, b):
    return EPS[a][b]


class NullTetrad:
    """Coframe theta^{AA'} with dual frame; reconstructs g per the tetrad form.

    theta and the frame are computed in the metric's field (grown if the
    coframe carries a gen the metric lacks); theta is also shown as sympy
    normal forms, made on first read.  A coframe whose one-forms hold their
    elements (a builder's, converted with g) is not converted again."""

    def __init__(self, g: Metric, coframe: list[OneForm]):
        if len(coframe) != 4:
            raise ExprError("a tetrad needs four one-forms")
        self.g = g
        self.chart = g.chart
        F = g.field
        if any(w.el is None for w in coframe):
            coframe = _entered(F, coframe)
        self._coframe = coframe
        theta = F.up([w.el for w in coframe])
        det = det4(theta)
        if not det:
            raise ExprError("tetrad coframe is degenerate")
        adj = adjugate4(theta)
        self._coeff_cache: dict = {}
        _memo_el(self._coeff_cache, "theta", F, lambda: theta)
        # frame[i][a]: dual vectors, theta^i(e_j) = delta_ij by construction
        _memo_el(self._coeff_cache, "frame", F,
                 lambda: [[adj[a][i] / det for a in _R] for i in _R])
        if not (v := self.reconstruction_verdict()).is_zero():
            raise ExprError(f"tetrad does not reconstruct the metric: {v}")

    @property
    def theta(self) -> list:
        """theta^i_a as sympy trees."""
        return [list(w.comps) for w in self._coframe]

    def field_el(self, name: str):
        """theta or frame as elements of the metric's current field."""
        return self.g.field.up(self._coeff_cache[name])

    def reconstruction_el(self) -> list:
        """theta theta - g on and above the diagonal, as field elements."""
        th = self.field_el("theta")
        gg = self.g.el
        s00, s01, s10, s11 = (th[_SLOT[0, 0]], th[_SLOT[0, 1]],
                              th[_SLOT[1, 0]], th[_SLOT[1, 1]])
        out = []
        for a in _R:
            for b in range(a, 4):
                rec = (s00[a] * s11[b] + s00[b] * s11[a]
                       - s01[a] * s10[b] - s01[b] * s10[a])
                out.append(rec - gg[a][b])
        return out

    def reconstruction_residuals(self) -> list[Expr]:
        return [self.g.field.expr(r) for r in self.reconstruction_el()]

    def reconstruction_verdict(self, cfg: SampleConfig = SampleConfig()) -> Verdict:
        return is_zero_all(self.reconstruction_residuals(), cfg)

    def vector_el(self, k: list) -> list:
        """K^{AA'} = theta^{AA'}(K) from K's components as field elements."""
        F = self.g.field
        th, k = self.field_el("theta"), F.up(k)
        return [[sum((th[_SLOT[A, Ap]][a] * k[a] for a in _R if k[a]), F.K.zero)
                 for Ap in _R2] for A in _R2]


@dataclass
class WeylSpinor:
    """Five totally symmetric components, indexed by the number of 1-indices."""

    psi: list[Expr]
    primed: bool = False
    # the metric's field and psi as its elements
    field: Field = dataclasses.field(kw_only=True, repr=False, compare=False)
    el: tuple = dataclasses.field(kw_only=True, repr=False, compare=False)

    def component(self, *idx: int) -> Expr:
        return self.psi[sum(idx)]

    def is_zero_verdict(self, cfg: SampleConfig = SampleConfig()) -> Verdict:
        return is_zero_all(self.psi, cfg)


@dataclass
class SpinorField:
    comps: tuple[Expr, Expr]
    primed: bool = False


@dataclass
class KillingSpinorData:
    """Self-dual part phi_{A'B'}, anti-self-dual part psi_{AB}, divergence eta."""

    phi: list[Expr]  # [phi_{0'0'}, phi_{0'1'}, phi_{1'1'}]
    psi: list[Expr]  # [psi_{00}, psi_{01}, psi_{11}]
    eta: Expr


@dataclass
class PetrovType:
    type: str  # one of I II D III N O
    structure: RootStructure

    def __str__(self):
        if self.type == "O":
            return "O"
        rr = ",".join(map(str, self.structure.real_roots)) or "-"
        cp = ",".join(map(str, self.structure.complex_pairs)) or "-"
        return f"{self.type} (real roots [{rr}], complex pairs [{cp}])"


_PARTITION_TO_TYPE = {
    (): "O",
    (4,): "N",
    (3, 1): "III",
    (2, 2): "D",
    (2, 1, 1): "II",
    (1, 1, 1, 1): "I",
}


def petrov_type_from_partition(partition: tuple[int, ...]) -> str:
    try:
        return _PARTITION_TO_TYPE[tuple(sorted(partition, reverse=True))]
    except KeyError as ex:
        raise ExprError(f"impossible multiplicity partition {partition}") from ex


# -- standard tetrads for the builder families ----------------------------------


def standard_tetrad(g: Metric, family: str, params: dict) -> NullTetrad:
    """Read off the coframe from the displayed factorization of a builder
    family and validate it against g (rejects with a witness on mismatch).
    The assignment makes the family's Killing vector e_{00'}, so its spinor
    factorization is iota = o = (1, 0)."""
    from .construct import family_coframe  # read-offs live with the builders

    return NullTetrad(g, family_coframe(g, family, params))


# -- curvature decomposition -------------------------------------------------------


def _frame_rank2(tet: NullTetrad, comps) -> list:
    """Project a covariant rank-2 coordinate tensor (field elements) onto the
    tetrad frame."""
    F = tet.g.field
    E, comps = tet.field_el("frame"), F.up(comps)
    half = [[sum((E[j][b] * comps[a][b] for b in _R if comps[a][b]), F.K.zero)
             for j in _R] for a in _R]
    return [[sum((E[i][a] * half[a][j] for a in _R if E[i][a]), F.K.zero)
             for j in _R] for i in _R]


# The curvature spinors as linear forms in the frame Riemann R_ijkl (Penrose &
# Rindler vol. 1 §4.6), each written over its nonzero terms as "ijkl":
# coefficient.  They are the eps-contractions of R_{AA'BB'CC'DD'}
# (tests/oracles.py) read off the 21 unit components with pairs i<j <= k<l, so
# they equal the contractions on any R with the pair symmetries, the first
# Bianchi identity or not.  Psi and Psi~ are indexed by their number of
# 1-indices, Phi by (A, B, C', D') with A <= B and C' <= D'.


def _terms(form: dict) -> tuple:
    return tuple((tuple(map(int, ijkl)), Fraction(c)) for ijkl, c in form.items())


_PSI = tuple(map(_terms, (
    {"0101": "1"},
    {"0103": "1/2", "0112": "-1/2"},
    {"0123": "1/3", "0303": "1/6", "0312": "-1/3", "1212": "1/6"},
    {"0323": "1/2", "1223": "-1/2"},
    {"2323": "1"},
)))
_PSI_PRIMED = tuple(map(_terms, (
    {"0202": "1"},
    {"0203": "1/2", "0212": "1/2"},
    {"0213": "1/3", "0303": "1/6", "0312": "1/3", "1212": "1/6"},
    {"0313": "1/2", "1213": "1/2"},
    {"1313": "1"},
)))
_PHI = {key: _terms(form) for key, form in {
    (0, 0, 0, 0): {"0102": "1"},
    (0, 0, 0, 1): {"0103": "1/2", "0112": "1/2"},
    (0, 0, 1, 1): {"0113": "1"},
    (0, 1, 0, 0): {"0203": "1/2", "0212": "-1/2"},
    (0, 1, 0, 1): {"0303": "1/4", "1212": "-1/4"},
    (0, 1, 1, 1): {"0313": "1/2", "1213": "-1/2"},
    (1, 1, 0, 0): {"0223": "1"},
    (1, 1, 0, 1): {"0323": "1/2", "1223": "1/2"},
    (1, 1, 1, 1): {"1323": "1"},
}.items()}
_LAMBDA = _terms({"0123": "1/3", "0303": "-1/12", "0312": "1/6", "1212": "-1/12"})


def _linear(rf, terms, zero):
    """sum of c R_ijkl over the terms whose component is nonzero."""
    out = zero
    for (i, j, k, l), c in terms:
        r = rf[i][j][k][l]
        if r:
            out = out + r * c
    return out


def _curvature_spinor_forms(rf, zero) -> tuple:
    """(Psi, Psi~, Phi[A][B][C'][D'], Lambda) of a frame Riemann nest rf, its
    entries field elements or rationals."""
    sym = {key: _linear(rf, terms, zero) for key, terms in _PHI.items()}
    phi = [[[[sym[min(A, B), max(A, B), min(Cp, Dp), max(Cp, Dp)] for Dp in _R2]
             for Cp in _R2] for B in _R2] for A in _R2]
    return (tuple(_linear(rf, terms, zero) for terms in _PSI),
            tuple(_linear(rf, terms, zero) for terms in _PSI_PRIMED),
            phi, _linear(rf, _LAMBDA, zero))


def _curvature_spinors(g: Metric, tet: NullTetrad) -> tuple:
    """curvature_spinors as field elements, memoized on the tetrad."""
    F = g.field
    return _memo_el(tet._coeff_cache, "curvature_spinor_el", F,
                    lambda: _curvature_spinor_forms(_frame_curvature(tet)[1], F.K.zero))


def curvature_spinors(g: Metric, tet: NullTetrad):
    """(C unprimed, C primed, Phi[A][B][C'][D'], Lambda) from the frame Riemann."""
    F = g.field

    def shown():
        cu, cp, phi, lam = _curvature_spinors(g, tet)
        return (WeylSpinor([F.expr(c) for c in cu], primed=False, field=F, el=cu),
                WeylSpinor([F.expr(c) for c in cp], primed=True, field=F, el=cp),
                _nested_map(F.expr, phi), F.expr(lam))

    return _memo(tet._coeff_cache, "curvature_spinors", F, shown)


def weyl_spinors(g: Metric, tet: NullTetrad) -> tuple[WeylSpinor, WeylSpinor]:
    cu, cp, _, _ = curvature_spinors(g, tet)
    return cu, cp


def tetrad_ricci(g: Metric, tet: NullTetrad) -> tuple[TensorField, Expr]:
    """(R_ab, R) without the coordinate Riemann: the metric is Ricci-flat
    exactly when Phi and Lambda vanish; otherwise
    R_ab = theta^i_a theta^j_b eta^kl R_kilj.  R = 24 Lambda.

    The frame curvature is that of theta theta, so a tetrad that reconstructs
    g only at samples (cos(x)^2 against 1 - sin(x)^2) takes the coordinate
    route, whose views are g's."""
    F = g.field

    def compute():
        if any(tet.reconstruction_el()):
            return ricci(g), scalar_curvature(g)
        _, _, phi, lam = _curvature_spinors(g, tet)
        out = _nested(2, F.K.zero)
        if lam or any(c for a in phi for b in a for cp in b for c in cp):
            th, ric = tet.field_el("theta"), _frame_ricci(tet)
            half = [[sum((ric[i][j] * th[j][b] for j in _R if th[j][b]), F.K.zero) for b in _R]
                    for i in _R]
            for a in _R:
                for b in range(a, 4):
                    out[a][b] = out[b][a] = sum((th[i][a] * half[i][b] for i in _R if th[i][a]),
                                                F.K.zero)
        return TensorField(g.chart, "ll", el=out), F.expr(lam * 24)

    return _memo(tet._coeff_cache, "ricci", F, compute)


# -- two-form decomposition ----------------------------------------------------------


def _split_frame_two_form(ff) -> tuple[list, list]:
    """Frame antisymmetric tensor (field elements) -> ([phi_{0'0'}, phi_{0'1'},
    phi_{1'1'}], [psi_{00}, psi_{01}, psi_{11}])."""

    def FF(A, Ap, B, Bp):
        return ff[_SLOT[A, Ap]][_SLOT[B, Bp]]

    phi = [(FF(0, Ap, 1, Bp) - FF(1, Ap, 0, Bp)) / 2 for Ap, Bp in ((0, 0), (0, 1), (1, 1))]
    psi = [(FF(A, 0, B, 1) - FF(A, 1, B, 0)) / 2 for A, B in ((0, 0), (0, 1), (1, 1))]
    return phi, psi


# -- spin coefficients ---------------------------------------------------------------


def spin_coefficients(g: Metric, tet: NullTetrad):
    """(Gamma_u, Gamma_p, nab): Gamma_u[slot DD'][C][E] = Gamma_{DD'C}^E, the
    primed counterpart, and nab[i][j][k] = theta^k(nabla_{e_i} e_j), from the
    frame connection, as sympy trees: the views of `_spin_coefficients`."""
    return tuple(_nested_map(Field.view, t) for t in _spin_coefficients(g, tet))


def _spin_coefficients(g: Metric, tet: NullTetrad):
    """spin_coefficients as field elements, memoized on the tetrad."""

    def compute():
        nab = _frame_curvature(tet)[0]
        gu = [[[(nab[i][_SLOT[Cc, 0]][_SLOT[Ee, 0]] + nab[i][_SLOT[Cc, 1]][_SLOT[Ee, 1]]) / 2
                for Ee in _R2] for Cc in _R2] for i in _R]
        gp = [[[(nab[i][_SLOT[0, Cc]][_SLOT[0, Ee]] + nab[i][_SLOT[1, Cc]][_SLOT[1, Ee]]) / 2
                for Ee in _R2] for Cc in _R2] for i in _R]
        return gu, gp, nab

    return _memo_el(tet._coeff_cache, "spin_coefficients", g.field, compute)


# -- Petrov classification -----------------------------------------------------------


def petrov_classify(w: WeylSpinor, at: Assignment | dict) -> PetrovType:
    """Type of the quartic (1,x)^4 . C at a point, projectively."""
    at = at if isinstance(at, Assignment) else Assignment(at)
    vals = [evaluate(c, at) for c in w.psi]
    structure = quartic_root_structure(
        [vals[0], 4 * vals[1], 6 * vals[2], 4 * vals[3], vals[4]])
    if structure.is_zero:
        return PetrovType("O", structure)
    return PetrovType(petrov_type_from_partition(structure.partition), structure)


def petrov_classify_samples(w: WeylSpinor,
                            points: list[Assignment]) -> tuple[str, list[PetrovType], bool]:
    """Pointwise types plus the consensus type; flag when points disagree."""
    results = []
    for pt in points:
        try:
            results.append(petrov_classify(w, pt))
        except POINT_ERRORS:
            continue
    if not results:
        raise ExprError("petrov classification failed at all sample points")
    votes = Counter(r.type for r in results)
    consensus = votes.most_common(1)[0][0]  # ties go to the first type seen
    return consensus, results, len(votes) > 1


def _invariants_el(p) -> tuple:
    """(I, J) from the five components of a Weyl spinor."""
    i_inv = 2 * (p[0] * p[4] - 4 * p[1] * p[3] + 3 * p[2] ** 2)
    j_inv = 6 * (p[0] * p[2] * p[4] - p[0] * p[3] ** 2 - p[1] ** 2 * p[4]
                 + 2 * p[1] * p[2] * p[3] - p[2] ** 3)
    return i_inv, j_inv


def scalar_invariants(w: WeylSpinor) -> tuple[Expr, Expr]:
    """I = C.C and J = C.C.C via exact epsilon contractions."""
    return tuple(map(w.field.expr, _invariants_el(w.field.up(w.el))))


# -- Killing spinor data ---------------------------------------------------------------


def _conformal_killing(g: Metric, K: VectorField):
    """(residuals of nabla_(a K_b) - eta/2 g_ab, eta, nabla_a K_b); eta and
    nabla_a K_b as field elements, the residuals memoized on the metric and
    keyed on K's components."""
    F = g.field
    _, nk, div = _nabla_vector(g, K)
    eta, gg = div / 2, g.el
    res = _memo(g._cache, ("conformal_killing", *K.comps), F,
                lambda: [F.expr((nk[a][b] + nk[b][a]) / 2 - eta * gg[a][b] / 2)
                         for a in _R for b in range(a, 4)])
    return res, eta, nk


def conformal_killing_residuals(g: Metric, K: VectorField) -> tuple[list[Expr], Expr]:
    """(residuals of nabla_(a K_b) - eta/2 g_ab, eta)."""
    res, eta, _ = _conformal_killing(g, K)
    return res, g.field.expr(eta)


def conformal_killing_verdict(g: Metric, K: VectorField, cfg: SampleConfig) -> Verdict:
    """The zero test of the conformal Killing residuals under cfg, memoized
    on the metric next to the residuals and keyed on K's components."""
    return _memo(g._cache, ("conformal_killing_verdict", cfg, *K.comps), g.field,
                 lambda: is_zero_all(_conformal_killing(g, K)[0], cfg))


def _killing_spinors(g: Metric, tet: NullTetrad, K: VectorField, cfg: SampleConfig):
    """(phi, psi, eta) of killing_decompose as field elements, memoized on the
    tetrad once K has passed the conformal Killing test under cfg."""

    def compute():
        v = conformal_killing_verdict(g, K, cfg)
        if not v.is_zero():
            raise ExprError(f"K is not a conformal Killing vector: {v}")
        _, nk, div = _nabla_vector(g, K)
        fk = _frame_rank2(tet, nk)
        phi, psi = _split_frame_two_form([[(fk[i][j] - fk[j][i]) / 2 for j in _R]
                                          for i in _R])
        return phi, psi, div / 2

    return _memo_el(tet._coeff_cache, ("killing_spinors", cfg, *K.comps), g.field, compute)


def killing_decompose(g: Metric, tet: NullTetrad, K: VectorField,
                      cfg: SampleConfig = SampleConfig()) -> KillingSpinorData:
    F = g.field
    phi, psi, eta = _killing_spinors(g, tet, K, cfg)
    return KillingSpinorData([F.expr(c) for c in phi], [F.expr(c) for c in psi], F.expr(eta))


def _null_factors(g: Metric, tet: NullTetrad, K: VectorField, cfg: SampleConfig):
    """(iota, o) of null_killing_factorize as field elements."""
    F = g.field
    v = is_zero(vector_norm(g, K), cfg)
    if not v.is_zero():
        raise ExprError(f"K is not null: g(K,K) {v}")
    m = tet.vector_el(_vector_el(g, K))
    pivot = next(((A, Ap) for A in _R2 for Ap in _R2
                  if m[A][Ap] and not is_zero(F.expr(m[A][Ap]), cfg).is_zero()), None)
    if pivot is None:
        raise ExprError("K vanishes at all sample points; cannot factorize")
    A0, B0 = pivot
    iota = (m[0][B0], m[1][B0])
    o = (m[A0][0] / m[A0][B0], m[A0][1] / m[A0][B0])
    for A in _R2:
        for Ap in _R2:
            res = is_zero(F.expr(iota[A] * o[Ap] - m[A][Ap]), cfg)
            if not res.is_zero():
                raise ExprError(f"rank-1 factorization failed: {res}")
    return iota, o


def null_killing_factorize(g: Metric, tet: NullTetrad, K: VectorField,
                           cfg: SampleConfig = SampleConfig()):
    """K^{AA'} = iota^A o^{A'} for a null K."""
    iota, o = _null_factors(g, tet, K, cfg)
    return (SpinorField(tuple(map(g.field.expr, iota)), primed=False),
            SpinorField(tuple(map(g.field.expr, o)), primed=True))


def check_lemma_identities(g: Metric, tet: NullTetrad, K: VectorField,
                           cfg: SampleConfig = SampleConfig()) -> dict[str, Verdict]:
    """Algebraic and geodesic-shear-free identities for a null conformal
    Killing vector."""
    F = g.field
    phi0, psi0, _ = _killing_spinors(g, tet, K, cfg)
    iota0, o0 = _null_factors(g, tet, K, cfg)
    gu0, gp0, _ = _spin_coefficients(g, tet)

    def compute():
        x = g.chart.syms
        E = tet.field_el("frame")
        gu, gp, phi, psi, iu, ou = F.up((gu0, gp0, phi0, psi0, iota0, o0))
        alg1 = sum((iu[a] * iu[b] * psi[a + b] for a in _R2 for b in _R2), F.K.zero)
        alg2 = sum((ou[a] * ou[b] * phi[a + b] for a in _R2 for b in _R2), F.K.zero)

        def shear_free(up, gamma, slot):
            # up^A up^B nabla_{slot(B, f)} up_A for each free index f of the other kind
            low = (-up[1], up[0])  # mu_A = mu^B eps_BA
            dlow = [[F.diff(low[A], x[a]) for a in _R] for A in _R2]
            cov = [[[sum((E[slot(B, f)][a] * dlow[A][a] for a in _R if dlow[A][a]), F.K.zero)
                     - sum((gamma[slot(B, f)][A][C] * low[C] for C in _R2), F.K.zero)
                     for A in _R2] for B in _R2] for f in _R2]
            return [F.expr(sum((up[A] * up[B] * cov[f][B][A] for A in _R2 for B in _R2),
                               F.K.zero)) for f in _R2]

        return (F.expr(alg1), F.expr(alg2), shear_free(iu, gu, lambda B, f: _SLOT[B, f]),
                shear_free(ou, gp, lambda Bp, f: _SLOT[f, Bp]))

    alg1, alg2, gsf_u, gsf_p = F.run(compute)
    return {
        "iota.iota.psi": is_zero(alg1, cfg),
        "o.o.phi": is_zero(alg2, cfg),
        "iota_geodesic_shear_free": is_zero_all(gsf_u, cfg),
        "o_geodesic_shear_free": is_zero_all(gsf_p, cfg),
    }


def principal_direction_check(w: WeylSpinor, iota: SpinorField,
                              cfg: SampleConfig = SampleConfig()) -> Verdict:
    F = w.field
    iu = _comps_el(F, [Expr(c).sym for c in iota.comps])
    p = F.up(w.el)
    val = sum((iu[a] * iu[b] * iu[c] * iu[d] * p[a + b + c + d]
               for a, b, c, d in itertools.product(_R2, repeat=4)), F.K.zero)
    return is_zero(F.expr(val), cfg)


def type_constraint_check(w: WeylSpinor, iota: SpinorField,
                          cfg: SampleConfig = SampleConfig()) -> Verdict:
    F = w.field
    iu = _comps_el(F, [Expr(c).sym for c in iota.comps])
    p = F.up(w.el)
    residuals = [F.expr(sum((iu[a] * iu[b] * p[a + b + c + d]
                             for a, b in itertools.product(_R2, repeat=2)), F.K.zero))
                 for c in _R2 for d in range(c, 2)]
    return is_zero_all(residuals, cfg)


# -- Szekeres obstruction ---------------------------------------------------------------


def classification_points(w: WeylSpinor, cfg: SampleConfig, n: int) -> list[Assignment]:
    """n seeded points (stream seed + 1, entries p/q with 1 <= |p|, q <= 9) over
    the symbols of the Weyl spinor, for pointwise Petrov classification: those
    of the gens its elements use, read in each element's own field, so no
    view is made."""
    names = sorted({s.name for el in w.el for i in el.field.used(el)
                    for s in el.field.symbols[i].free_symbols})
    return list(itertools.islice(random_points(names, cfg.seed + 1, 9), n))


@dataclass
class SzekeresResult:
    """Necessary condition for a Ricci-flat metric in the conformal class.

    Two layers: the divergence of the Weyl spinor must be pointwise
    proportional to an undetermined gradient contracted into the spinor
    (eliminability: a third-derivative tensor condition), and the one-form
    solved from that proportionality must be curl-free.  Both are conformally
    invariant; both vanish when the class contains a Ricci-flat metric."""

    eliminability: TensorField
    gradient_oneform: OneForm | None
    gradient_curl: TwoForm | None
    verdict: Verdict

    def obstructed(self) -> bool:
        return not self.verdict.is_zero()


def _weyl_divergence(g: Metric, tet: NullTetrad) -> dict:
    """weyl_divergence_spinor as field elements."""
    F = g.field
    psi0, gu0 = _curvature_spinors(g, tet)[0], _spin_coefficients(g, tet)[0]

    def compute():
        x = g.chart.syms
        psi, gu = F.up((psi0, gu0))  # Psi_{ABCD} = psi[A + B + C + D]
        E = tet.field_el("frame")
        dpsi = [[F.diff(p, x[a]) for a in _R] for p in psi]
        div = {}
        for A, B, C, Dp in itertools.product(_R2, repeat=4):
            val = F.K.zero
            for D, Ee in ((0, 1), (1, 0)):  # nabla^D_{D'} = eps^{DE} nabla_{E D'}
                i = _SLOT[Ee, Dp]
                nab = sum((E[i][a] * dpsi[A + B + C + D][a] for a in _R if E[i][a]), F.K.zero)
                for P in _R2:
                    nab -= (gu[i][A][P] * psi[P + B + C + D] + gu[i][B][P] * psi[A + P + C + D]
                            + gu[i][C][P] * psi[A + B + P + D] + gu[i][D][P] * psi[A + B + C + P])
                val += _eps(D, Ee) * nab
            div[(A, B, C, Dp)] = val
        return div

    return F.run(compute)


def weyl_divergence_spinor(g: Metric, tet: NullTetrad) -> dict:
    """(div Psi)_{ABCD'} = nabla^D_{D'} Psi_{ABCD}; zero for vacuum (Bianchi)."""
    return {k: Field.view(v) for k, v in _weyl_divergence(g, tet).items()}


def szekeres_obstruction(g: Metric, tet: NullTetrad,
                         cfg: SampleConfig = SampleConfig()) -> SzekeresResult:
    """Obstruction to conformal Ricci-flatness for types I, II, D, III.

    Raises when the Petrov type is N or O at every sample point (the
    elimination underlying the condition degenerates there)."""
    cu, _, _, _ = curvature_spinors(g, tet)
    types = []
    for pt in classification_points(cu, cfg, 8):
        try:
            types.append(petrov_classify(cu, pt).type)
        except POINT_ERRORS:
            continue
    if types and all(t in ("N", "O") for t in types):
        raise ExprError(
            f"obstruction inapplicable: type is {types[0]} at all sample points"
        )

    F = g.field
    div = _weyl_divergence(g, tet)
    psi = F.up(cu.el)
    i_inv, _ = _invariants_el(psi)
    th = tet.field_el("theta")

    # u^D_{D'} = Psi^{DPQR} (div Psi)_{PQR D'};  Psi^{DPQR} Psi_{PQRE} = (I/2) delta,
    # with Psi^{ABCD} = (-1)^n Psi_{(1-A)(1-B)(1-C)(1-D)}, n the number of 1-indices
    u = {}
    for D, Dp in itertools.product(_R2, repeat=2):
        u[(D, Dp)] = sum(((-1) ** (D + p + q + r) * psi[4 - D - p - q - r] * div[(p, q, r, Dp)]
                          for p, q, r in itertools.product(_R2, repeat=3)), F.K.zero)
    e_spinor = {}
    for A, B, C, Dp in itertools.product(_R2, repeat=4):
        e_spinor[(A, B, C, Dp)] = (i_inv * div[(A, B, C, Dp)]
                                   - 2 * sum(psi[A + B + C + D] * u[(D, Dp)] for D in _R2))

    # E_abc = E_{ABCC'} eps_{A'B'} theta^{AA'}_a theta^{BB'}_b theta^{CC'}_c
    pair = {(A, B): [[th[_SLOT[A, 0]][a] * th[_SLOT[B, 1]][b]
                      - th[_SLOT[A, 1]][a] * th[_SLOT[B, 0]][b] for b in _R] for a in _R]
            for A, B in itertools.product(_R2, repeat=2)}
    third = {(A, B): [sum((e_spinor[(A, B, C, Cp)] * th[_SLOT[C, Cp]][c]
                           for C, Cp in itertools.product(_R2, repeat=2)), F.K.zero)
                      for c in _R]
             for A, B in itertools.product(_R2, repeat=2)}
    elim = [[[sum((pair[k][a][b] * third[k][c] for k in pair), F.K.zero) for c in _R]
             for b in _R] for a in _R]
    elim_field = TensorField(g.chart, "lll", el=elim)
    v_elim = elim_field.zero_verdict(cfg)
    if not v_elim.is_zero():
        return SzekeresResult(elim_field, None, None, v_elim)

    ups = _solve_gradient_candidate(F, psi, div, i_inv, u, cfg)
    # coordinate one-form: Ups_a = Ups_{E D'} theta^{E D'}_a, Ups_{E D'} = Ups^D_{D'} eps_{DE}
    comps = [sum((ups[(1 - Ee, Dp)] * _eps(1 - Ee, Ee) * th[_SLOT[Ee, Dp]][a]
                  for Ee, Dp in itertools.product(_R2, repeat=2)), F.K.zero) for a in _R]

    def curl():
        x = g.chart.syms
        w = F.up(comps)
        return [[F.diff(w[b], x[a]) - F.diff(w[a], x[b]) for b in _R] for a in _R]

    oneform = OneForm(g.chart, el=comps)
    curl_form = TwoForm(g.chart, el=F.run(curl))
    v_curl = curl_form.zero_verdict(cfg)
    verdict = v_curl if not v_curl.is_zero() else (
        v_elim if v_elim.kind == "sampled_zero" else v_curl
    )
    return SzekeresResult(elim_field, oneform, curl_form, verdict)


def _solve_gradient_candidate(F: Field, psi, div: dict, i_inv, u: dict, cfg: SampleConfig):
    """Solve (div Psi)_{ABCD'} = Ups^D_{D'} Psi_{ABCD} for Ups (defined up to
    the constant absorbed from the conformal weight, which drops in the curl);
    field elements in and out."""
    if not is_zero(F.expr(i_inv), cfg).is_zero():
        return {k: 2 * val / i_inv for k, val in u.items()}
    # I = 0 (type III): pick an invertible 2x2 row minor of the 4x2 system
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    for r1, r2 in itertools.combinations(rows, 2):
        n1, n2 = sum(r1), sum(r2)
        det = psi[n1] * psi[n2 + 1] - psi[n1 + 1] * psi[n2]
        if not det or is_zero(F.expr(det), cfg).is_zero():
            continue
        ups = {}
        for Dp in _R2:
            b1, b2 = div[(*r1, Dp)], div[(*r2, Dp)]
            ups[(0, Dp)] = (b1 * psi[n2 + 1] - b2 * psi[n1 + 1]) / det
            ups[(1, Dp)] = (psi[n1] * b2 - psi[n2] * b1) / det
        # consistency on the remaining rows
        for r in rows:
            for Dp in _R2:
                res = sum(psi[sum(r) + D] * ups[(D, Dp)] for D in _R2) - div[(*r, Dp)]
                if not is_zero(F.expr(res), cfg).is_zero():
                    raise ExprError("gradient candidate solve is inconsistent")
        return ups
    raise ExprError("no invertible minor: cannot solve for the gradient candidate")
