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

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

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
    normalize,
    random_points,
)
from .quartic import RootStructure, quartic_root_structure
from .tensor import (
    Metric,
    OneForm,
    TensorField,
    TwoForm,
    VectorField,
    adjugate4,
    christoffels,
    det4,
    exterior_derivative_oneform,
    riemann_lower,
    _nested,
    _nested_map,
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
    "decompose_two_form",
    "recompose_two_form",
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
    coframe carries a gen the metric lacks) and shown as sympy normal forms."""

    def __init__(self, g: Metric, coframe: list[OneForm], validate: bool = True,
                 cfg: SampleConfig = SampleConfig()):
        if len(coframe) != 4:
            raise ExprError("a tetrad needs four one-forms")
        self.g = g
        self.chart = g.chart
        F = g.field
        conv = [[F.convert(w.comps[a]) for a in _R] for w in coframe]
        self.theta = [[n for n, _ in row] for row in conv]
        self._theta_el = F.up([[el for _, el in row] for row in conv])
        det = det4(self._theta_el)
        if not det:
            raise ExprError("tetrad coframe is degenerate")
        adj = adjugate4(self._theta_el)
        # frame[i][a]: dual vectors, theta^i(e_j) = delta_ij by construction
        self._frame_el = [[adj[a][i] / det for a in _R] for i in _R]
        self.frame = _nested_map(F.view, self._frame_el)
        self._coeff_cache: dict = {}
        self._el: dict = {}  # field elements behind the memoized coefficients
        if validate:
            v = self.reconstruction_verdict(cfg)
            if not v.is_zero():
                raise ExprError(f"tetrad does not reconstruct the metric: {v}")

    def field_el(self, name: str):
        """theta or frame as elements of the metric's current field."""
        return self.g.field.up(getattr(self, f"_{name}_el"))

    def reconstruction_residuals(self) -> list[Expr]:
        F = self.g.field
        th = self.field_el("theta")
        gg = self.g.el
        s00, s01, s10, s11 = (th[_SLOT[0, 0]], th[_SLOT[0, 1]],
                              th[_SLOT[1, 0]], th[_SLOT[1, 1]])
        out = []
        for a in _R:
            for b in range(a, 4):
                rec = (s00[a] * s11[b] + s00[b] * s11[a]
                       - s01[a] * s10[b] - s01[b] * s10[a])
                out.append(F.expr(rec - gg[a][b]))
        return out

    def reconstruction_verdict(self, cfg: SampleConfig = SampleConfig()) -> Verdict:
        return is_zero_all(self.reconstruction_residuals(), cfg)

    def duality_residuals(self) -> list[Expr]:
        out = []
        for i in _R:
            for j in _R:
                v = sum(self.theta[i][a] * self.frame[j][a] for a in _R)
                out.append(Expr(normalize(v - (1 if i == j else 0))))
        return out

    def frame_metric_residuals(self) -> list[Expr]:
        """g(e_AA', e_BB') - eps_AB eps_A'B' must vanish."""
        out = []
        for (A, Ap) in itertools.product(_R2, repeat=2):
            for (B, Bp) in itertools.product(_R2, repeat=2):
                i, j = _SLOT[A, Ap], _SLOT[B, Bp]
                v = sum(self.g.comps[a][b] * self.frame[i][a] * self.frame[j][b]
                        for a in _R for b in _R)
                out.append(Expr(normalize(v - _eps(A, B) * _eps(Ap, Bp))))
        return out

    def vector_components(self, K: VectorField) -> list[list[sp.Expr]]:
        """K^{AA'} = theta^{AA'}(K)."""
        return [[normalize(sum(self.theta[_SLOT[A, Ap]][a] * K.comps[a] for a in _R))
                 for Ap in _R2] for A in _R2]


@dataclass
class WeylSpinor:
    """Five totally symmetric components, indexed by the number of 1-indices."""

    psi: list[Expr]
    primed: bool = False

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

    def phi_comp(self, a, b):
        return self.phi[a + b]

    def psi_comp(self, a, b):
        return self.psi[a + b]


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

    return NullTetrad(g, family_coframe(g.chart, family, params))


# -- curvature decomposition -------------------------------------------------------


def _frame_rank2(tet: NullTetrad, comps) -> list:
    """Project a covariant rank-2 coordinate tensor onto the tetrad frame."""
    E = tet.frame
    return [[normalize(sum(E[i][a] * E[j][b] * comps[a][b] for a in _R for b in _R))
             for j in _R] for i in _R]


def _frame_riemann(tet: NullTetrad) -> list:
    """Frame components of R_abcd as field elements, using pair antisymmetry to
    cut the work."""
    F = tet.g.field
    rl = F.up(riemann_lower(tet.g).el)
    E = tet.field_el("frame")
    pairs = list(itertools.combinations(_R, 2))
    ep = [[[E[i][a] * E[j][b] - E[i][b] * E[j][a] for (a, b) in pairs]
           for j in _R] for i in _R]
    rp = [[rl[a][b][c][d] for (c, d) in pairs] for (a, b) in pairs]
    out = _nested(4, F.K.zero)
    for i, j in pairs:
        for k, l in pairs:
            val = F.K.zero
            for m in range(6):
                if not ep[i][j][m]:
                    continue
                inner = sum((rp[m][n] * ep[k][l][n] for n in range(6) if rp[m][n]), F.K.zero)
                val += ep[i][j][m] * inner
            for (ii, jj, s1) in ((i, j, 1), (j, i, -1)):
                for (kk, ll, s2) in ((k, l, 1), (l, k, -1)):
                    out[ii][jj][kk][ll] = val if s1 * s2 == 1 else -val
    return out


def curvature_spinors(g: Metric, tet: NullTetrad):
    """(C unprimed, C primed, Phi[A][B][C'][D'], Lambda) from the frame Riemann."""

    def compute():
        F = g.field
        rf = _frame_riemann(tet)

        def RF(A, Ap, B, Bp, C, Cp, D, Dp):
            return rf[_SLOT[A, Ap]][_SLOT[B, Bp]][_SLOT[C, Cp]][_SLOT[D, Dp]]

        v2 = {}
        u2 = {}
        for idx in itertools.product(_R2, repeat=4):
            A, B, C, D = idx
            val = F.K.zero
            for Ap, Bp, Cp, Dp in itertools.product(_R2, repeat=4):
                e = _eps(Ap, Bp) * _eps(Cp, Dp)
                if e:
                    val += e * RF(A, Ap, B, Bp, C, Cp, D, Dp)
            v2[idx] = val / 4
            Ap0, Bp0, Cp0, Dp0 = idx  # same layout, primed slots free
            valu = F.K.zero
            for A_, B_, C_, D_ in itertools.product(_R2, repeat=4):
                e = _eps(A_, B_) * _eps(C_, D_)
                if e:
                    valu += e * RF(A_, Ap0, B_, Bp0, C_, Cp0, D_, Dp0)
            u2[idx] = valu / 4
        w = {}
        for A, B, Cp, Dp in itertools.product(_R2, repeat=4):
            val = F.K.zero
            for Ap, Bp, C, D in itertools.product(_R2, repeat=4):
                e = _eps(Ap, Bp) * _eps(C, D)
                if e:
                    val += e * RF(A, Ap, B, Bp, C, Cp, D, Dp)
            w[(A, B, Cp, Dp)] = val / 4

        def sym4(tbl):
            psi = []
            for k in range(5):
                idx = tuple([1] * k + [0] * (4 - k))
                perms = set(itertools.permutations(idx))
                psi.append(F.expr(sum((tbl[p] for p in perms), F.K.zero) / len(perms)))
            return psi

        lam = sum((_eps(A, D) * _eps(B, C) * v2[(A, B, C, D)]
                   for A, B, C, D in itertools.product(_R2, repeat=4)
                   if _eps(A, D) * _eps(B, C)), F.K.zero) / 6
        phi = _nested(4)
        for A, B, Cp, Dp in itertools.product(_R2, repeat=4):
            phi[A][B][Cp][Dp] = F.view(
                (w[(A, B, Cp, Dp)] + w[(B, A, Cp, Dp)]
                 + w[(A, B, Dp, Cp)] + w[(B, A, Dp, Cp)]) / 4
            )
        return (
            WeylSpinor(sym4(v2), primed=False),
            WeylSpinor(sym4(u2), primed=True),
            phi,
            F.expr(lam),
        )

    if "curvature_spinors" not in tet._coeff_cache:
        tet._coeff_cache["curvature_spinors"] = g.field.run(compute)
    return tet._coeff_cache["curvature_spinors"]


def weyl_spinors(g: Metric, tet: NullTetrad) -> tuple[WeylSpinor, WeylSpinor]:
    cu, cp, _, _ = curvature_spinors(g, tet)
    return cu, cp


def curvature_reassembly_residuals(g: Metric, tet: NullTetrad) -> list[Expr]:
    """Rebuild the frame Riemann from (C, C~, Phi, Lambda); residuals must vanish."""
    cu, cp, phi, lam = curvature_spinors(g, tet)
    rf = _nested_map(Field.view, _frame_riemann(tet))
    lam_s = lam.sym
    out = []
    for A, Ap, B, Bp in itertools.product(_R2, repeat=4):
        for C, Cp, D, Dp in itertools.product(_R2, repeat=4):
            rec = (
                cu.component(A, B, C, D).sym * _eps(Ap, Bp) * _eps(Cp, Dp)
                + cp.component(Ap, Bp, Cp, Dp).sym * _eps(A, B) * _eps(C, D)
                + phi[A][B][Cp][Dp] * _eps(Ap, Bp) * _eps(C, D)
                + phi[C][D][Ap][Bp] * _eps(A, B) * _eps(Cp, Dp)
                + 2 * lam_s * (_eps(A, C) * _eps(B, D) * _eps(Ap, Cp) * _eps(Bp, Dp)
                               - _eps(A, D) * _eps(B, C) * _eps(Ap, Dp) * _eps(Bp, Cp))
            )
            got = rf[_SLOT[A, Ap]][_SLOT[B, Bp]][_SLOT[C, Cp]][_SLOT[D, Dp]]
            out.append(Expr(normalize(rec - got)))
    return out


# -- two-form decomposition ----------------------------------------------------------


def _split_frame_two_form(ff) -> tuple[list[Expr], list[Expr]]:
    """Frame antisymmetric tensor -> ([phi_{0'0'}, phi_{0'1'}, phi_{1'1'}],
    [psi_{00}, psi_{01}, psi_{11}])."""

    def FF(A, Ap, B, Bp):
        return ff[_SLOT[A, Ap]][_SLOT[B, Bp]]

    phi = [Expr(normalize(sum(_eps(A, B) * FF(A, Ap, B, Bp)
                              for A in _R2 for B in _R2) / 2))
           for Ap, Bp in ((0, 0), (0, 1), (1, 1))]
    psi = [Expr(normalize(sum(_eps(Ap, Bp) * FF(A, Ap, B, Bp)
                              for Ap in _R2 for Bp in _R2) / 2))
           for A, B in ((0, 0), (0, 1), (1, 1))]
    return phi, psi


def decompose_two_form(tet: NullTetrad, F: TwoForm):
    """F_ab -> (phi_{A'B'} self-dual, psi_{AB} anti-self-dual) in the tetrad."""
    return _split_frame_two_form(_frame_rank2(tet, F.comps))


def recompose_two_form(tet: NullTetrad, phi, psi) -> TwoForm:
    """Inverse of decompose_two_form, back in coordinate components."""
    th = tet.theta
    comps = [[sp.S.Zero] * 4 for _ in _R]
    for A, Ap, B, Bp in itertools.product(_R2, repeat=4):
        val = (Expr(phi[Ap + Bp]).sym * _eps(A, B)
               + Expr(psi[A + B]).sym * _eps(Ap, Bp))
        if val == 0:
            continue
        i, j = _SLOT[A, Ap], _SLOT[B, Bp]
        for a in _R:
            for b in _R:
                comps[a][b] += val * th[i][a] * th[j][b]
    return TwoForm(tet.chart, [[normalize(comps[a][b]) for b in _R] for a in _R])


# -- spin coefficients ---------------------------------------------------------------


def spin_coefficients(g: Metric, tet: NullTetrad):
    """(Gamma_u, Gamma_p): Gamma_u[slot DD'][C][E] = Gamma_{DD'C}^E and the
    primed counterpart, from the Levi-Civita connection."""
    key = "spin_coefficients"
    if key in tet._coeff_cache:
        return tet._coeff_cache[key]
    F = g.field

    def compute():
        x = g.chart.syms
        gam = F.up(christoffels(g).el)
        E = tet.field_el("frame")
        th = tet.field_el("theta")
        # nab[i][j][k]: theta^k( nabla_{e_i} e_j )
        nab = _nested(3)
        for j in _R:
            dE = [[F.diff(E[j][b], x[a]) for a in _R] for b in _R]
            conn = [[dE[b][a] + sum((gam[b][a][c] * E[j][c] for c in _R if gam[b][a][c]),
                                    F.K.zero)
                     for a in _R] for b in _R]
            for i in _R:
                cov = [sum((E[i][a] * conn[b][a] for a in _R if E[i][a]), F.K.zero)
                       for b in _R]
                for k in _R:
                    nab[i][j][k] = sum((th[k][b] * cov[b] for b in _R if th[k][b]), F.K.zero)
        gu = [[[F.K.zero] * 2 for _ in _R2] for _ in _R]
        gp = [[[F.K.zero] * 2 for _ in _R2] for _ in _R]
        for i in _R:
            for Cc in _R2:
                for Ee in _R2:
                    gu[i][Cc][Ee] = sum(nab[i][_SLOT[Cc, Cp]][_SLOT[Ee, Cp]] for Cp in _R2) / 2
                    gp[i][Cc][Ee] = sum(nab[i][_SLOT[C, Cc]][_SLOT[C, Ee]] for C in _R2) / 2
        return gu, gp, nab

    tet._el[key] = F.run(compute)
    tet._coeff_cache[key] = tuple(_nested_map(F.view, t) for t in tet._el[key])
    return tet._coeff_cache[key]


def spin_coefficient_residuals(g: Metric, tet: NullTetrad) -> list[Expr]:
    """Reassembly and pair-symmetry checks for the spin coefficients."""
    gu, gp, nab = spin_coefficients(g, tet)
    out = []
    for i in _R:
        for C, Cp in itertools.product(_R2, repeat=2):
            for Ee, Ep in itertools.product(_R2, repeat=2):
                rec = (gu[i][C][Ee] * (1 if Cp == Ep else 0)
                       + gp[i][Cp][Ep] * (1 if C == Ee else 0))
                out.append(Expr(normalize(rec - nab[i][_SLOT[C, Cp]][_SLOT[Ee, Ep]])))
        # lowered symmetry Gamma_{i(CE)}, unprimed then primed
        for C in _R2:
            for Ee in _R2:
                for gam in (gu, gp):
                    low_ce = sum(gam[i][C][F] * _eps(F, Ee) for F in _R2)
                    low_ec = sum(gam[i][Ee][F] * _eps(F, C) for F in _R2)
                    out.append(Expr(normalize(low_ce - low_ec)))
    return out


# -- Petrov classification -----------------------------------------------------------


def petrov_classify(w: WeylSpinor, at: Assignment | dict,
                    tol: float = 1e-8) -> PetrovType:
    """Type of the quartic (1,x)^4 . C at a point, projectively."""
    at = at if isinstance(at, Assignment) else Assignment(at)
    vals = [evaluate(p, at) for p in w.psi]
    coeffs = [vals[0], 4 * vals[1], 6 * vals[2], 4 * vals[3], vals[4]]
    if all(isinstance(v, Fraction) for v in coeffs):
        structure = quartic_root_structure(coeffs)
    else:
        structure = quartic_root_structure([float(v) for v in coeffs], tol)
    if structure.is_zero:
        return PetrovType("O", structure)
    return PetrovType(petrov_type_from_partition(structure.partition), structure)


def petrov_classify_samples(w: WeylSpinor, points: list[Assignment],
                            tol: float = 1e-8) -> tuple[str, list[PetrovType], bool]:
    """Pointwise types plus the consensus type; flag when points disagree."""
    results = []
    for pt in points:
        try:
            results.append(petrov_classify(w, pt, tol))
        except POINT_ERRORS:
            continue
    if not results:
        raise ExprError("petrov classification failed at all sample points")
    votes = Counter(r.type for r in results)
    consensus = votes.most_common(1)[0][0]  # ties go to the first type seen
    return consensus, results, len(votes) > 1


def scalar_invariants(w: WeylSpinor) -> tuple[Expr, Expr]:
    """I = C.C and J = C.C.C via exact epsilon contractions."""
    p = [Expr(c).sym for c in w.psi]
    i_inv = 2 * (p[0] * p[4] - 4 * p[1] * p[3] + 3 * p[2] ** 2)
    j_inv = 6 * (p[0] * p[2] * p[4] - p[0] * p[3] ** 2 - p[1] ** 2 * p[4]
                 + 2 * p[1] * p[2] * p[3] - p[2] ** 3)
    return Expr(normalize(i_inv)), Expr(normalize(j_inv))


# -- Killing spinor data ---------------------------------------------------------------


def _nabla_K_lower(g: Metric, K: VectorField):
    x = g.chart.syms
    gam = christoffels(g).comps
    kl = [sum(g.comps[a][b] * K.comps[b] for b in _R) for a in _R]
    return [[normalize(sp.diff(kl[b], x[a]) - sum(gam[c][a][b] * kl[c] for c in _R))
             for b in _R] for a in _R]


def _conformal_killing(g: Metric, K: VectorField):
    """(residuals of nabla_(a K_b) - eta/2 g_ab, eta, nabla_a K_b)."""
    x = g.chart.syms
    gam = christoffels(g).comps
    nk = _nabla_K_lower(g, K)
    div = sum(sp.diff(K.comps[a], x[a]) for a in _R) + sum(
        gam[a][a][b] * K.comps[b] for a in _R for b in _R
    )
    eta = normalize(div / 2)
    out = []
    for a in _R:
        for b in range(a, 4):
            out.append(Expr(normalize((nk[a][b] + nk[b][a]) / 2 - eta * g.comps[a][b] / 2)))
    return out, Expr(eta), nk


def conformal_killing_residuals(g: Metric, K: VectorField) -> tuple[list[Expr], Expr]:
    """(residuals of nabla_(a K_b) - eta/2 g_ab, eta)."""
    res, eta, _ = _conformal_killing(g, K)
    return res, eta


def killing_decompose(g: Metric, tet: NullTetrad, K: VectorField,
                      cfg: SampleConfig = SampleConfig()) -> KillingSpinorData:
    res, eta, nk = _conformal_killing(g, K)
    v = is_zero_all(res, cfg)
    if not v.is_zero():
        raise ExprError(f"K is not a conformal Killing vector: {v}")
    fk = _frame_rank2(tet, nk)
    antisym = [[(fk[i][j] - fk[j][i]) / 2 for j in _R] for i in _R]
    phi, psi = _split_frame_two_form(antisym)
    return KillingSpinorData(phi, psi, eta)


def killing_reassembly_residuals(g: Metric, tet: NullTetrad, K: VectorField,
                                 data: KillingSpinorData) -> list[Expr]:
    nk = _nabla_K_lower(g, K)
    fk = _frame_rank2(tet, nk)
    out = []
    for A, Ap, B, Bp in itertools.product(_R2, repeat=4):
        rec = (data.phi_comp(Ap, Bp).sym * _eps(A, B)
               + data.psi_comp(A, B).sym * _eps(Ap, Bp)
               + data.eta.sym * _eps(A, B) * _eps(Ap, Bp) / 2)
        out.append(Expr(normalize(rec - fk[_SLOT[A, Ap]][_SLOT[B, Bp]])))
    return out


def null_killing_factorize(g: Metric, tet: NullTetrad, K: VectorField,
                           cfg: SampleConfig = SampleConfig()):
    """K^{AA'} = iota^A o^{A'} for a null K."""
    kk = [sum(g.comps[a][b] * K.comps[a] * K.comps[b] for a in _R for b in _R)]
    v = is_zero(Expr(normalize(kk[0])), cfg)
    if not v.is_zero():
        raise ExprError(f"K is not null: g(K,K) {v}")
    m = tet.vector_components(K)
    pivot = None
    for A in _R2:
        for Ap in _R2:
            if m[A][Ap] != 0 and not is_zero(Expr(m[A][Ap]), cfg).is_zero():
                pivot = (A, Ap)
                break
        if pivot:
            break
    if pivot is None:
        raise ExprError("K vanishes at all sample points; cannot factorize")
    A0, B0 = pivot
    iota = (Expr(normalize(m[0][B0])), Expr(normalize(m[1][B0])))
    o = (Expr(normalize(m[A0][0] / m[A0][B0])), Expr(normalize(m[A0][1] / m[A0][B0])))
    for A in _R2:
        for Ap in _R2:
            res = is_zero(iota[A] * o[Ap] - Expr(m[A][Ap]), cfg)
            if not res.is_zero():
                raise ExprError(f"rank-1 factorization failed: {res}")
    return SpinorField(iota, primed=False), SpinorField(o, primed=True)


def _lower_spinor(comps):
    c0, c1 = (Expr(c).sym for c in comps)
    return (-c1, c0)  # mu_A = mu^B eps_BA


def check_lemma_identities(g: Metric, tet: NullTetrad, K: VectorField,
                           cfg: SampleConfig = SampleConfig()) -> dict[str, Verdict]:
    """Algebraic and geodesic-shear-free identities for a null conformal
    Killing vector."""
    data = killing_decompose(g, tet, K, cfg)
    iota, o = null_killing_factorize(g, tet, K, cfg)
    gu, gp, _ = spin_coefficients(g, tet)
    E = tet.frame
    x = g.chart.syms
    iu = [Expr(c).sym for c in iota.comps]
    ou = [Expr(c).sym for c in o.comps]
    il = _lower_spinor(iota.comps)
    ol = _lower_spinor(o.comps)

    alg1 = sum(iu[a] * iu[b] * data.psi_comp(a, b).sym for a in _R2 for b in _R2)
    alg2 = sum(ou[a] * ou[b] * data.phi_comp(a, b).sym for a in _R2 for b in _R2)

    def shear_free(up, low, gamma, slot):
        # up^A up^B nabla_{slot(B, f)} low_A for each free index f of the other kind
        out = []
        for f in _R2:
            val = sp.S.Zero
            for A in _R2:
                for B in _R2:
                    i = slot(B, f)
                    cov = sum(E[i][a] * sp.diff(low[A], x[a]) for a in _R) - sum(
                        gamma[i][A][C] * low[C] for C in _R2
                    )
                    val += up[A] * up[B] * cov
            out.append(val)
        return out

    gsf_u = shear_free(iu, il, gu, lambda B, f: _SLOT[B, f])
    gsf_p = shear_free(ou, ol, gp, lambda Bp, f: _SLOT[f, Bp])

    return {
        "iota.iota.psi": is_zero(Expr(normalize(alg1)), cfg),
        "o.o.phi": is_zero(Expr(normalize(alg2)), cfg),
        "iota_geodesic_shear_free": is_zero_all([Expr(normalize(v)) for v in gsf_u], cfg),
        "o_geodesic_shear_free": is_zero_all([Expr(normalize(v)) for v in gsf_p], cfg),
    }


def principal_direction_check(w: WeylSpinor, iota: SpinorField,
                              cfg: SampleConfig = SampleConfig()) -> Verdict:
    iu = [Expr(c).sym for c in iota.comps]
    val = sum(
        iu[a] * iu[b] * iu[c] * iu[d] * w.component(a, b, c, d).sym
        for a, b, c, d in itertools.product(_R2, repeat=4)
    )
    return is_zero(Expr(normalize(val)), cfg)


def type_constraint_check(w: WeylSpinor, iota: SpinorField,
                          cfg: SampleConfig = SampleConfig()) -> Verdict:
    iu = [Expr(c).sym for c in iota.comps]
    residuals = []
    for c in _R2:
        for d in range(c, 2):
            val = sum(iu[a] * iu[b] * w.component(a, b, c, d).sym
                      for a, b in itertools.product(_R2, repeat=2))
            residuals.append(Expr(normalize(val)))
    return is_zero_all(residuals, cfg)


# -- Szekeres obstruction ---------------------------------------------------------------


def classification_points(w: WeylSpinor, cfg: SampleConfig, n: int) -> list[Assignment]:
    """n seeded points (stream seed + 1, entries p/q with 1 <= |p|, q <= 9) over
    the symbols of the Weyl spinor, for pointwise Petrov classification."""
    names = sorted({nm for c in w.psi for nm in c.free_symbols()})
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


def _psi_l(w: WeylSpinor, *idx: int) -> sp.Expr:
    """Psi_{ABCD} with all indices down."""
    return w.component(*idx).sym


def weyl_divergence_spinor(g: Metric, tet: NullTetrad) -> dict:
    """(div Psi)_{ABCD'} = nabla^D_{D'} Psi_{ABCD}; zero for vacuum (Bianchi)."""
    cu, _, _, _ = curvature_spinors(g, tet)
    gu, _, _ = spin_coefficients(g, tet)
    E = tet.frame
    x = g.chart.syms
    div = {}
    for A, B, C in itertools.product(_R2, repeat=3):
        for Dp in _R2:
            val = sp.S.Zero
            for D in _R2:
                for Ee in _R2:
                    e = _eps(D, Ee)  # nabla^D_{D'} = eps^{DE} nabla_{E D'}
                    if e == 0:
                        continue
                    i = _SLOT[Ee, Dp]
                    nab = sum(E[i][a] * sp.diff(_psi_l(cu, A, B, C, D), x[a]) for a in _R)
                    nab -= sum(gu[i][A][F] * _psi_l(cu, F, B, C, D) for F in _R2)
                    nab -= sum(gu[i][B][F] * _psi_l(cu, A, F, C, D) for F in _R2)
                    nab -= sum(gu[i][C][F] * _psi_l(cu, A, B, F, D) for F in _R2)
                    nab -= sum(gu[i][D][F] * _psi_l(cu, A, B, C, F) for F in _R2)
                    val += e * nab
            div[(A, B, C, Dp)] = normalize(val)
    return div


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

    div = weyl_divergence_spinor(g, tet)
    i_inv, _ = scalar_invariants(cu)

    def psi_up(a, b, c, d):
        sgn = 1
        for orig in (a, b, c, d):
            sgn *= 1 if orig == 0 else -1
        return sgn * _psi_l(cu, 1 - a, 1 - b, 1 - c, 1 - d)

    # u^D_{D'} = Psi^{DPQR} (div Psi)_{PQR D'};  Psi^{DPQR} Psi_{PQRE} = (I/2) delta
    u = {}
    for D in _R2:
        for Dp in _R2:
            u[(D, Dp)] = normalize(sum(
                psi_up(D, p, q, r) * div[(p, q, r, Dp)]
                for p, q, r in itertools.product(_R2, repeat=3)
            ))
    e_spinor = {}
    for A, B, C, Dp in itertools.product(_R2, repeat=4):
        e_spinor[(A, B, C, Dp)] = normalize(
            i_inv.sym * div[(A, B, C, Dp)]
            - 2 * sum(_psi_l(cu, A, B, C, D) * u[(D, Dp)] for D in _R2)
        )

    th = tet.theta
    elim = _nested(3)
    for a in _R:
        for b in _R:
            for c in _R:
                val = sp.S.Zero
                for A, Ap, B, Bp, C, Cp in itertools.product(_R2, repeat=6):
                    coef = e_spinor[(A, B, C, Cp)] * _eps(Ap, Bp)
                    if coef == 0:
                        continue
                    val += (coef * th[_SLOT[A, Ap]][a] * th[_SLOT[B, Bp]][b]
                            * th[_SLOT[C, Cp]][c])
                elim[a][b][c] = normalize(val)
    elim_field = TensorField(g.chart, "lll", elim)
    v_elim = elim_field.zero_verdict(cfg)
    if not v_elim.is_zero():
        return SzekeresResult(elim_field, None, None, v_elim)

    ups = _solve_gradient_candidate(cu, div, i_inv, u, cfg)
    # coordinate one-form: Ups_a = Ups_{E D'} theta^{E D'}_a, Ups_{E D'} = Ups^D_{D'} eps_{DE}
    comps = [sp.S.Zero] * 4
    for Ee in _R2:
        for Dp in _R2:
            low = sum(ups[(D, Dp)] * _eps(D, Ee) for D in _R2)
            if low == 0:
                continue
            for a in _R:
                comps[a] += low * th[_SLOT[Ee, Dp]][a]
    oneform = OneForm(g.chart, [normalize(c) for c in comps])
    curl = exterior_derivative_oneform(oneform)
    v_curl = curl.zero_verdict(cfg)
    verdict = v_curl if not v_curl.is_zero() else (
        v_elim if v_elim.kind == "sampled_zero" else v_curl
    )
    return SzekeresResult(elim_field, oneform, curl, verdict)


def _solve_gradient_candidate(cu: WeylSpinor, div: dict, i_inv: Expr, u: dict,
                              cfg: SampleConfig):
    """Solve (div Psi)_{ABCD'} = Ups^D_{D'} Psi_{ABCD} for Ups (defined up to
    the constant absorbed from the conformal weight, which drops in the curl)."""
    if not is_zero(i_inv, cfg).is_zero():
        return {k: normalize(2 * val / i_inv.sym) for k, val in u.items()}
    # I = 0 (type III): pick an invertible 2x2 row minor of the 4x2 system
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    for r1, r2 in itertools.combinations(rows, 2):
        det = normalize(_psi_l(cu, *r1, 0) * _psi_l(cu, *r2, 1)
                        - _psi_l(cu, *r1, 1) * _psi_l(cu, *r2, 0))
        if det == 0 or is_zero(Expr(det), cfg).is_zero():
            continue
        ups = {}
        for Dp in _R2:
            b1, b2 = div[(*r1, Dp)], div[(*r2, Dp)]
            ups[(0, Dp)] = normalize(
                (b1 * _psi_l(cu, *r2, 1) - b2 * _psi_l(cu, *r1, 1)) / det)
            ups[(1, Dp)] = normalize(
                (_psi_l(cu, *r1, 0) * b2 - _psi_l(cu, *r2, 0) * b1) / det)
        # consistency on the remaining rows
        for r in rows:
            for Dp in _R2:
                res = normalize(sum(_psi_l(cu, *r, D) * ups[(D, Dp)] for D in _R2)
                                - div[(*r, Dp)])
                if not is_zero(Expr(res), cfg).is_zero():
                    raise ExprError("gradient candidate solve is inconsistent")
        return ups
    raise ExprError("no invertible minor: cannot solve for the gradient candidate")
