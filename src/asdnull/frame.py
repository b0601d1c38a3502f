"""The frame connection and frame Riemann of a null tetrad, from its coframe
by Cartan's structure equations, in the metric's field.

The frame e_i is dual to the coframe theta^i, slots ordered (A, A') as in
`spinor`: 00', 01', 10', 11'.
"""

from __future__ import annotations

import itertools

from .tensor import _memo_el, _nested

_R = range(4)

# The frame metric g(e_i, e_j) = eps_AB eps_A'B' pairs slot i with slot 3 - i:
# eta_ij = eta^ij = _ETA[i] when j = 3 - i, and 0 otherwise.
_ETA = (1, -1, -1, 1)
_PAIRS = tuple(itertools.combinations(_R, 2))


def _frame_curvature(tet) -> tuple:
    """(nab, R) of a `spinor.NullTetrad` as field elements, from the coframe
    by Cartan's structure equations: nab[i][j][k] = theta^k(nabla_{e_i} e_j)
    and R[i][j][k][l] = g(e_i, R(e_k, e_l) e_j), which is
    e_i^a e_j^b e_k^c e_l^d R_abcd.

    The commutators [e_i, e_j] = C^k_ij e_k come from d theta^k, so
    C^k_ij = -d theta^k(e_i, e_j).  The frame metric is constant, so Koszul's
    formula is algebraic: 2 Gamma_kij = C_kij - C_ijk + C_jki.  Then
    R_ijkl = e_k(Gamma_ilj) - e_l(Gamma_ikj) + Gamma_ikm Gamma^m_lj
    - Gamma_ilm Gamma^m_kj - C^m_kl Gamma_imj.  Memoized on the tetrad."""
    return _memo_el(tet._coeff_cache, "frame_curvature", tet.g.field, lambda: _cartan(tet))


def _cartan(tet) -> tuple:
    F = tet.g.field
    x = tet.g.chart.syms
    th, E = tet.field_el("theta"), tet.field_el("frame")
    zero = F.K.zero
    # ep[i, j][m] = e_i^a e_j^b - e_i^b e_j^a for the m-th coordinate pair a < b
    ep = {(i, j): [E[i][a] * E[j][b] - E[i][b] * E[j][a] for a, b in _PAIRS] for i, j in _PAIRS}
    dth = [[F.diff(th[k][b], x[a]) - F.diff(th[k][a], x[b]) for a, b in _PAIRS]
           for k in _R]
    # C[k][i][j] = C^k_ij, antisymmetric in (i, j)
    C = _nested(3, zero)
    for k in _R:
        for i, j in _PAIRS:
            c = -sum((e * d for e, d in zip(ep[i, j], dth[k]) if e and d), zero)
            C[k][i][j], C[k][j][i] = c, -c

    def low(k, i, j):  # C_kij = eta_kl C^l_ij
        return _ETA[k] * C[3 - k][i][j]

    # Gamma_kij = -Gamma_jik: metric compatibility with a constant frame metric
    gam = _nested(3, zero)
    for k, j in _PAIRS:
        for i in _R:
            v = (low(k, i, j) - low(i, j, k) + low(j, k, i)) / 2
            gam[k][i][j], gam[j][i][k] = v, -v
    # Gamma^m_lj = eta^mn Gamma_nlj = theta^m(nabla_{e_l} e_j)
    gup = [[[_ETA[m] * gam[3 - m][l][j] for j in _R] for l in _R] for m in _R]
    # each Gamma's four partials, taken once and reused for every direction e_k
    dgam = {(k, i, j): [F.diff(gam[k][i][j], x[a]) for a in _R]
            for k, j in _PAIRS for i in _R if gam[k][i][j]}

    def along(k, i, l, j):  # e_k(Gamma_ilj)
        d = dgam.get((i, l, j) if i < j else (j, l, i))
        if d is None:
            return zero
        v = sum((E[k][a] * d[a] for a in _R if E[k][a] and d[a]), zero)
        return v if i < j else -v

    R = _nested(4, zero)
    for p, (i, j) in enumerate(_PAIRS):
        for k, l in _PAIRS[p:]:  # pair symmetry R_ijkl = R_klij
            v = along(k, i, l, j) - along(l, i, k, j)
            for m in _R:
                if gam[i][k][m] and gup[m][l][j]:
                    v += gam[i][k][m] * gup[m][l][j]
                if gam[i][l][m] and gup[m][k][j]:
                    v -= gam[i][l][m] * gup[m][k][j]
                if C[m][k][l] and gam[i][m][j]:
                    v -= C[m][k][l] * gam[i][m][j]
            for (a, b, c, d) in ((i, j, k, l), (k, l, i, j)):
                R[a][b][c][d], R[b][a][c][d] = v, -v
                R[a][b][d][c], R[b][a][d][c] = -v, v
    return [[[gup[k][i][j] for k in _R] for j in _R] for i in _R], R


def _frame_ricci(tet) -> list:
    """The frame Ricci R_ij = eta^kl R_kilj of a `spinor.NullTetrad`."""
    R, zero = _frame_curvature(tet)[1], tet.g.field.K.zero
    return [[sum((_ETA[k] * R[k][i][3 - k][j] for k in _R), zero) for j in _R] for i in _R]
