"""Independent routes the tests check the package against.

Everything here computes on sympy trees with `sp.diff` and `normalize`.  It
reads the package only through the values its functions return; field
elements become trees with `.as_expr()`.  A fault in the fraction field
therefore cannot cancel against the same fault in its check.  Two helpers
that no package stage reads, `signature_at` and `weyl_mixed`, are no oracles:
they read the metric's elements, as the package's stages do.  The element
kernel's reference routes (`diff_by_elements`, `unscreened_mul`,
`full_cancel`, `laplace_adjugate4`) compute on field elements too: each is
the general routine a fast path or a screen of the kernel skips work of, so
they are checked against it and not against trees.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import ZZ
from sympy.polys.rootisolation import dup_count_real_roots
from sympy.polys.sqfreetools import dup_sqf_list

from asdnull import expr as expr_module
from asdnull.expr import (POINT_ERRORS, Assignment, EvalError, Expr, ExprError, Field,
                          SampleConfig, Verdict, differentiate, evaluate, normalize, parse)
from asdnull.quartic import RootStructure
from asdnull.spinor import curvature_spinors, spin_coefficients
from asdnull.tensor import FIBRE, _vector_el, christoffels, weyl

R4 = range(4)
R2 = (0, 1)
EPS = ((0, 1), (-1, 0))  # eps_{01} = eps^{01} = 1


def _eps(a, b):
    return EPS[a][b]


def _slot(A, Ap):
    """Tetrad slot of the index pair (A, A')."""
    return 2 * A + Ap


def _delta(i, j):
    return 1 if i == j else 0


def substitute(e, mapping) -> Expr:
    """e with the named symbols replaced by mapping's values, simultaneously."""
    subs = {sp.Symbol(k): Expr(v).sym for k, v in mapping.items()}
    return Expr(Expr(e).sym.subs(subs, simultaneous=True))


# -- the sampled zero test ----------------------------------------------------------


def loop_is_zero(e, cfg: SampleConfig = SampleConfig()) -> Verdict:
    """`expr.is_zero` as a loop over lambdified term tuples: the normal
    form's names and terms recomputed on every call, the seeded stream read
    point by point from `_draws`, each point's terms summed by `sum`.  The
    package evaluates each point by one rule generated per normal form's
    terms (`expr._compiled_rule`); its kind, witness, value and "sampling
    failed" error must be this one's."""
    e = e if isinstance(e, Expr) else Expr(e)
    if e.el is not None and not e.el:
        return Verdict.proven()
    n = e.normal
    if n == 0:
        return Verdict.proven()
    if n.is_Rational:
        return Verdict.nonzero(Assignment(), expr_module._float(Fraction(n.p, n.q)))
    names = tuple(sorted({s.name for s in n.free_symbols}))
    num, den = sp.fraction(n)
    terms = list(sp.Add.make_args(sp.expand_mul(num)))
    dterms = list(sp.Add.make_args(sp.expand_mul(den)))
    if not names:
        tvals = [float(t.evalf()) for t in terms]
        dvals = [float(t.evalf()) for t in dterms]
        dval = float(sum(dvals))
        if not dval or abs(dval) < 1e-3 * sum(map(abs, dvals)):
            raise ExprError("sampling failed: the denominator of a constant is numerically 0")
        value = sum(tvals) / dval
        mag = sum(abs(t) for t in tvals) / abs(dval)
        if abs(value) <= cfg.tolerance * max(1.0, mag):
            return Verdict.sampled()
        return Verdict.nonzero(Assignment(), float(value))
    args = [sp.Symbol(m) for m in names]
    # a denominator with no symbol: a floor relative to its own terms
    relative = not any(t.free_symbols for t in dterms)
    fnum = sp.lambdify(args, sp.Tuple(*terms), modules="math")
    fden = sp.lambdify(args, sp.Tuple(*dterms), modules="math")
    draws = expr_module._draws(len(names), cfg.seed)
    good = attempts = 0
    max_attempts = 10 * cfg.count
    while good < cfg.count and attempts < max_attempts:
        attempts += 1
        pairs = next(draws)
        vals = [p / q for p, q in pairs]
        try:
            dparts = fden(*vals)
            dval = sum(dparts)
            dmag = sum(map(abs, dparts))
            if abs(dval) < 1e-3 * (dmag if relative else max(1.0, dmag)):
                continue
            parts = fnum(*vals)
            value = sum(parts) / dval
            mag = sum(map(abs, parts)) / abs(dval)
        except POINT_ERRORS:
            continue
        if not (math.isfinite(value) and math.isfinite(mag)):
            continue
        if abs(value) > cfg.tolerance * max(1.0, mag):
            return Verdict.nonzero(expr_module._point(names, pairs), float(value))
        good += 1
    if expr_module._kernel_free(e):
        return expr_module._exact_witness(e, names, cfg.seed, max_attempts)
    if good < cfg.count:
        raise ExprError(f"sampling failed: could not find {cfg.count} regular points "
                        f"in {max_attempts} attempts")
    return Verdict.sampled()


# -- exact evaluation ----------------------------------------------------------------


def tree_evaluate(s: sp.Expr, a) -> Fraction | float:
    """`expr.evaluate` by sympy on the tree: at an exact point, the rationals
    substituted into the normal form (`subs`) and the result cancelled; a
    normal form with a kernel, a value that is not rational (E, an undefined
    function) and a float point take evaluate's float route.  The package
    reads every exact point from a field element instead."""
    a = Assignment(a)
    n = normalize(s)
    missing = {x.name for x in n.free_symbols} - set(a)
    if missing:
        raise EvalError(f"unassigned symbols: {sorted(missing)}")
    if a.is_exact() and not n.has(*expr_module._KERNEL_CLASSES):
        v = n.subs({sp.Symbol(k): sp.Rational(Fraction(x)) for k, x in a.items()},
                   simultaneous=True)
        if v.has(*expr_module._BAD):
            raise EvalError("division by zero at the point")
        if not v.is_Rational:
            v = sp.cancel(v)
        if v.is_Rational:
            return Fraction(int(v.p), int(v.q))
    return evaluate(Expr(n), {k: float(x) for k, x in a.items()})


# -- the Petrov quartic ------------------------------------------------------------


def sympy_root_structure(coeffs) -> RootStructure:
    """The exact quartic's structure by sympy's dense routines alone: every
    nonzero quartic goes through the square-free decomposition (Yun) and a
    real-root count of each factor; a leading drop is the root at infinity."""
    coeffs = [Fraction(c) for c in coeffs]
    L = math.lcm(*(c.denominator for c in coeffs))
    p = dup_strip([c.numerator * (L // c.denominator) for c in reversed(coeffs)])
    if not p:
        return RootStructure((), (), (), is_zero=True)
    inf_mult = 5 - len(p)
    partition, real, pairs = ([inf_mult], [inf_mult], []) if inf_mult else ([], [], [])
    for factor, mult in dup_sqf_list(p, ZZ)[1]:
        nreal = dup_count_real_roots(factor, ZZ)
        npairs = (len(factor) - 1 - nreal) // 2
        partition.extend([mult] * (nreal + 2 * npairs))
        real.extend([mult] * nreal)
        pairs.extend([mult] * npairs)
    return RootStructure(*(tuple(sorted(v, reverse=True)) for v in (partition, real, pairs)))


# -- derivatives against central finite differences ------------------------------

CORPUS = [
    "x^3 - 2*x*y + 7/3",
    "x^2*y^3 - y*x + 5",
    "exp(z*x - y)/x^2",
    "sin(x)*cos(y) + x^2",
    "log(1 + x^2)*y",
    "(x + y)^4/(1 + y^2)",
    "exp(x)*sin(y) - cos(x*y)",
    "x/y + y/x",
    "1/(x^2 + y^2 + 1)",
    "cos(x)^3 - sin(y)^2*x",
]


def derivative_matches_fd(points_per_expr: int = 2, h: float = 1e-6,
                          rel_tol: float = 1e-6, seed: int = 11) -> bool:
    rng = random.Random(seed)
    checked = 0
    for text in CORPUS:
        e = parse(text)
        names = sorted(e.free_symbols())
        d = differentiate(e, "x")
        done = 0
        while done < points_per_expr:
            point = {n: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for n in names}
            up = Assignment({k: float(v) + (h if k == "x" else 0.0)
                             for k, v in point.items()})
            dn = Assignment({k: float(v) - (h if k == "x" else 0.0)
                             for k, v in point.items()})
            mid = Assignment({k: float(v) for k, v in point.items()})
            try:
                expected = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                got = evaluate(d, mid)
            except EvalError:
                continue
            scale = max(1.0, abs(expected), abs(got))
            if abs(got - expected) / scale >= rel_tol:
                return False
            done += 1
            checked += 1
    return checked >= 20


# -- the element kernel's reference routes ------------------------------------------


def diff_by_elements(F, f, chain):
    """D f for any chain (i, D g_i), in the field's element arithmetic:
    c (D N P - N S) / (P prod b_i^e_i), S = sum of e_i D b_i P / b_i, with
    every sum and product a field operation, so no chain is cleared of its
    denominators and every cancellation is the field's."""
    K, El, one = F.K, expr_module._El, expr_module._Q(1)

    def d(p):
        return F._sum([di * K.new(one, p.diff(i), {}) for i, di in chain])

    def poly(p):  # a numerator or a product of base elements: primitive
        return El(K, one, p, {})

    S = F._sum([d(K.base[i]) * poly(K.expand({j: 1 for j in f.e if j != i})) * k
                for i, k in f.e.items()])
    top = d(f.num) * poly(K.expand(dict.fromkeys(f.e, 1))) - poly(f.num) * S
    return top * El(K, f.c, K.ring.one, {i: k + 1 for i, k in f.e.items()})


def full_cancel(K, t, e, idx):
    """`_Elements._cancel` with no screen: t trial-divided by every base
    element of e, whatever `idx` names."""
    out = dict(e)
    for i, k in e.items():
        t, j = K._divide_out(t, i, k)
        if j == k:
            del out[i]
        elif j:
            out[i] = k - j
    return t, out


def unscreened_mul(K, f, g):
    """`_Elements.mul` with no screen: each numerator trial-divided by every
    base element of the other operand's denominator."""
    if not f or not g:
        return K.zero
    p, q = f.num, g.num
    e = dict(f.e)
    for i, k in g.e.items():
        p, j = K._divide_out(p, i, k)
        e[i] = e.get(i, 0) + k - j
    for i, k in f.e.items():
        q, j = K._divide_out(q, i, k)
        e[i] -= j
    return expr_module._El(K, f.c * g.c, p * q, {i: k for i, k in e.items() if k})


def laplace_adjugate4(m) -> list:
    """The adjugate of a 4x4 matrix of field elements, each 3x3 minor by
    Laplace expansion along its first row."""
    def minor(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        return sum(((-1) ** k * m[rows[0]][c] * minor(rows[1:], cols[:k] + cols[k + 1:])
                    for k, c in enumerate(cols)), m[0][0].field.zero)

    full = (0, 1, 2, 3)
    return [[(-1) ** (a + b) * minor(full[:b] + full[b + 1:], full[:a] + full[a + 1:])
             for b in R4] for a in R4]


# -- coordinate tensors ------------------------------------------------------------


def exterior_derivative_oneform(w) -> list:
    """(dw)_ab = d_a w_b - d_b w_a of a OneForm."""
    x = w.chart.syms
    return [[sp.diff(w.comps[b], x[a]) - sp.diff(w.comps[a], x[b]) for b in R4] for a in R4]


def signature_at(g, point) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of g at a sample point, from
    the components' elements (`g[i, j]`)."""
    m = np.array([[float(evaluate(g[i, j], point)) for j in R4] for i in R4], dtype=float)
    ev = np.linalg.eigvalsh(m)
    return int((ev > 0).sum()), int((ev < 0).sum())


def weyl_mixed(g) -> list:
    """C^a_bcd = g^ae C_ebcd, the conformally invariant valence: the
    package's Weyl tensor raised by its inverse in the metric's field, viewed."""
    F = g.field
    cw, ginv = F.up(weyl(g).el), g._inverse_el()
    return [[[[Field.view(sum((ginv[a][e] * cw[e][b][c][d] for e in R4 if ginv[a][e]),
                              F.K.zero))
               for d in R4] for c in R4] for b in R4] for a in R4]


def metric_compatibility_residuals(g) -> list[Expr]:
    """nabla_c g_ab from the package's Christoffels; all must vanish."""
    x = g.chart.syms
    gam = christoffels(g).comps
    out = []
    for c in R4:
        for a in R4:
            for b in range(a, 4):
                val = sp.diff(g.comps[a][b], x[c]) - sum(
                    gam[e][c][a] * g.comps[e][b] + gam[e][c][b] * g.comps[a][e]
                    for e in R4
                )
                out.append(Expr(normalize(val)))
    return out


@functools.cache
def tree_inverse(g) -> list:
    """g^ab from the metric's components alone, by the adjugate."""
    gm = sp.Matrix(g.comps)
    det = normalize(gm.det(method="berkowitz"))
    adj = gm.adjugate()
    return [[normalize(adj[a, b] / det) for b in R4] for a in R4]


@functools.cache
def tree_christoffels(g) -> list:
    """Gamma^a_bc from the tree inverse by the coordinate formula.  Kept per
    metric, as are the tree inverse and the tree Riemann."""
    x, ginv = g.chart.syms, tree_inverse(g)
    return [[[normalize(sum(ginv[a][d] * (sp.diff(g.comps[d][c], x[b])
                                          + sp.diff(g.comps[b][d], x[c])
                                          - sp.diff(g.comps[b][c], x[d])) for d in R4) / 2)
              for c in R4] for b in R4] for a in R4]


def tree_ricci(g) -> list:
    """Inverse -> Christoffels -> Ricci from the metric's components alone."""
    x, gam = g.chart.syms, tree_christoffels(g)
    return [[normalize(sum(sp.diff(gam[a][d][b], x[a]) - sp.diff(gam[a][a][b], x[d])
                           + sum(gam[a][a][e] * gam[e][d][b] - gam[a][d][e] * gam[e][a][b]
                                 for e in R4) for a in R4))
             for d in R4] for b in R4]


def tree_scalar_curvature(g):
    """g^ab R_ab from the tree inverse and the tree Ricci."""
    ginv, ric = tree_inverse(g), tree_ricci(g)
    return normalize(sum(ginv[a][b] * ric[a][b] for a in R4 for b in R4))


@functools.cache
def tree_riemann_pairs(g) -> list:
    """R_abcd = g_ae R^e_bcd over antisymmetric pairs a < b, c < d, from the
    tree Christoffels: R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
    + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb."""
    x, gam = g.chart.syms, tree_christoffels(g)
    pairs = list(itertools.combinations(R4, 2))

    def up(a, b, c, d):
        return (sp.diff(gam[a][d][b], x[c]) - sp.diff(gam[a][c][b], x[d])
                + sum(gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b] for e in R4))
    return [[normalize(sum(g.comps[a][e] * up(e, b, c, d) for e in R4 if g.comps[a][e] != 0))
             for c, d in pairs] for a, b in pairs]


# -- the tetrad ----------------------------------------------------------------------


def _frame(tet) -> list:
    """The dual frame e_i^a as trees."""
    return [[e.as_expr() for e in row] for row in tet.field_el("frame")]


def _frame_rank2(E, comps) -> list:
    """Frame components e_i^a e_j^b T_ab of a covariant rank-2 tree tensor."""
    return [[normalize(sum(E[i][a] * E[j][b] * comps[a][b] for a in R4 for b in R4))
             for j in R4] for i in R4]


def duality_residuals(tet) -> list[Expr]:
    """theta^i(e_j) - delta_ij."""
    E = _frame(tet)
    return [Expr(normalize(sum(tet.theta[i][a] * E[j][a] for a in R4) - _delta(i, j)))
            for i in R4 for j in R4]


def frame_metric_residuals(tet) -> list[Expr]:
    """g(e_AA', e_BB') - eps_AB eps_A'B'."""
    E, g = _frame(tet), tet.g.comps
    out = []
    for (A, Ap), (B, Bp) in itertools.product(itertools.product(R2, repeat=2), repeat=2):
        i, j = _slot(A, Ap), _slot(B, Bp)
        v = sum(g[a][b] * E[i][a] * E[j][b] for a in R4 for b in R4)
        out.append(Expr(normalize(v - _eps(A, B) * _eps(Ap, Bp))))
    return out


# -- curvature and connection in spinor form -----------------------------------------


def contracted_curvature_spinors(rf, zero) -> tuple:
    """(Psi, Psi~, Phi[A][B][C'][D'], Lambda) of a frame Riemann nest rf by
    the eps-contractions of R_{AA'BB'CC'DD'}: four times the primed-traced
    (v), unprimed-traced (u) and mixed (w) contractions, symmetrized.  The
    entries of rf may be field elements or rationals; only their +, - and
    division by an integer are used."""
    def eps_pairs(term):
        """sum over P, Q of eps_{P(1-P)} eps_{Q(1-Q)} term(P, Q), where
        eps_{P(1-P)} is +1 at P = 0 and -1 at P = 1."""
        out = None
        for P, Q in itertools.product(R2, repeat=2):
            t = term(P, Q)
            out = t if out is None else (out + t if P == Q else out - t)
        return out

    def RF(A, Ap, B, Bp, C, Cp, D, Dp):
        return rf[_slot(A, Ap)][_slot(B, Bp)][_slot(C, Cp)][_slot(D, Dp)]

    v, u, w = {}, {}, {}
    for A, B, C, D in itertools.product(R2, repeat=4):
        v[A, B, C, D] = eps_pairs(lambda P, Q: RF(A, P, B, 1 - P, C, Q, D, 1 - Q))
        u[A, B, C, D] = eps_pairs(lambda P, Q: RF(P, A, 1 - P, B, Q, C, 1 - Q, D))
        w[A, B, C, D] = eps_pairs(lambda P, Q: RF(A, P, B, 1 - P, Q, C, 1 - Q, D))

    def sym4(tbl):
        psi = []
        for k in range(5):
            perms = set(itertools.permutations([1] * k + [0] * (4 - k)))
            psi.append(sum((tbl[p] for p in perms), zero) / (4 * len(perms)))
        return tuple(psi)

    lam = eps_pairs(lambda A, B: v[A, B, 1 - B, 1 - A]) / 24
    sym = {(A, B, Cp, Dp): (w[A, B, Cp, Dp] + w[B, A, Cp, Dp] + w[A, B, Dp, Cp]
                            + w[B, A, Dp, Cp]) / 16
           for A, B, Cp, Dp in itertools.product(R2, repeat=4) if A <= B and Cp <= Dp}
    phi = [[[[sym[min(A, B), max(A, B), min(Cp, Dp), max(Cp, Dp)] for Dp in R2]
             for Cp in R2] for B in R2] for A in R2]
    return sym4(v), sym4(u), phi, lam


def frame_riemann(g, tet) -> list:
    """R_ijkl = e_i^a e_j^b e_k^c e_l^d R_abcd: the tree Riemann projected
    onto the frame, over antisymmetric pairs."""
    E, rp = _frame(tet), tree_riemann_pairs(g)
    pairs = list(itertools.combinations(R4, 2))
    ep = {(i, j): [E[i][a] * E[j][b] - E[i][b] * E[j][a] for a, b in pairs]
          for i in R4 for j in R4}
    out = [[[[sp.S.Zero] * 4 for _ in R4] for _ in R4] for _ in R4]
    for i, j in pairs:
        for k, l in pairs:
            v = normalize(sum(ep[i, j][m] * rp[m][n] * ep[k, l][n]
                              for m in range(6) for n in range(6)))
            out[i][j][k][l] = out[j][i][l][k] = v
            out[j][i][k][l] = out[i][j][l][k] = -v
    return out


def tree_frame_connection(g, tet) -> list:
    """theta^k(nabla_{e_i} e_j) = theta^k_b e_i^a (d_a e_j^b + Gamma^b_ac e_j^c)
    with the tree Christoffels."""
    x, E, gam = g.chart.syms, _frame(tet), tree_christoffels(g)
    out = [[[None] * 4 for _ in R4] for _ in R4]
    for i, j in itertools.product(R4, repeat=2):
        cov = [sum(E[i][a] * (sp.diff(E[j][b], x[a]) + sum(gam[b][a][c] * E[j][c] for c in R4))
                   for a in R4) for b in R4]
        for k in R4:
            out[i][j][k] = normalize(sum(tet.theta[k][b] * cov[b] for b in R4))
    return out


def curvature_reassembly_residuals(g, tet) -> list[Expr]:
    """The frame Riemann rebuilt from (C, C~, Phi, Lambda), minus the tree
    Riemann projected onto the frame."""
    cu, cp, phi, lam = curvature_spinors(g, tet)
    rf = frame_riemann(g, tet)
    lam_s = lam.sym
    out = []
    for A, Ap, B, Bp in itertools.product(R2, repeat=4):
        for C, Cp, D, Dp in itertools.product(R2, repeat=4):
            rec = (
                cu.component(A, B, C, D).sym * _eps(Ap, Bp) * _eps(Cp, Dp)
                + cp.component(Ap, Bp, Cp, Dp).sym * _eps(A, B) * _eps(C, D)
                + phi[A][B][Cp][Dp].sym * _eps(Ap, Bp) * _eps(C, D)
                + phi[C][D][Ap][Bp].sym * _eps(A, B) * _eps(Cp, Dp)
                + 2 * lam_s * (_eps(A, C) * _eps(B, D) * _eps(Ap, Cp) * _eps(Bp, Dp)
                               - _eps(A, D) * _eps(B, C) * _eps(Ap, Dp) * _eps(Bp, Cp))
            )
            got = rf[_slot(A, Ap)][_slot(B, Bp)][_slot(C, Cp)][_slot(D, Dp)]
            out.append(Expr(normalize(rec - got)))
    return out


def spin_coefficient_residuals(g, tet) -> list[Expr]:
    """Reassembly of theta^k(nabla_{e_i} e_j) from the unprimed and primed
    spin coefficients, and their symmetry once lowered."""
    gu, gp, nab = spin_coefficients(g, tet)
    out = []
    for i in R4:
        for C, Cp in itertools.product(R2, repeat=2):
            for Ee, Ep in itertools.product(R2, repeat=2):
                rec = gu[i][C][Ee] * _delta(Cp, Ep) + gp[i][Cp][Ep] * _delta(C, Ee)
                out.append(Expr(normalize(rec - nab[i][_slot(C, Cp)][_slot(Ee, Ep)])))
        # lowered symmetry Gamma_{i(CE)}, unprimed then primed
        for C in R2:
            for Ee in R2:
                for gam in (gu, gp):
                    low_ce = sum(gam[i][C][P] * _eps(P, Ee) for P in R2)
                    low_ec = sum(gam[i][Ee][P] * _eps(P, C) for P in R2)
                    out.append(Expr(normalize(low_ce - low_ec)))
    return out


def tree_weyl_divergence(g, tet) -> dict:
    """(div Psi)_{ABCD'} = eps^{DE} nabla_{ED'} Psi_{ABCD} from the views of
    Psi_{ABCD} (indexed by its number of 1-indices), the unprimed spin
    coefficients and the frame."""
    cu, _, _, _ = curvature_spinors(g, tet)
    gu, _, _ = spin_coefficients(g, tet)
    psi, E, x = [c.sym for c in cu.psi], _frame(tet), g.chart.syms
    div = {}
    for A, B, C, Dp in itertools.product(R2, repeat=4):
        val = 0
        for D, Ee in itertools.product(R2, repeat=2):
            i = _slot(Ee, Dp)
            nab = sum(E[i][a] * sp.diff(psi[A + B + C + D], x[a]) for a in R4)
            for P in R2:
                nab -= (gu[i][A][P] * psi[P + B + C + D] + gu[i][B][P] * psi[A + P + C + D]
                        + gu[i][C][P] * psi[A + B + P + D] + gu[i][D][P] * psi[A + B + C + P])
            val += _eps(D, Ee) * nab
        div[(A, B, C, Dp)] = normalize(val)
    return div


# -- the Killing vector ----------------------------------------------------------------


def _nabla_killing(g, K) -> tuple:
    """(nabla_a K_b, eta) with the tree Christoffels."""
    x, gam, k = g.chart.syms, tree_christoffels(g), K.comps
    kl = [sum(g.comps[a][b] * k[b] for b in R4) for a in R4]
    nk = [[normalize(sp.diff(kl[b], x[a]) - sum(gam[c][a][b] * kl[c] for c in R4))
           for b in R4] for a in R4]
    eta = normalize((sum(sp.diff(k[a], x[a]) for a in R4)
                     + sum(gam[a][a][b] * k[b] for a in R4 for b in R4)) / 2)
    return nk, eta


def tree_killing(g, tet, K) -> tuple:
    """(nabla_a K_b, eta, K^{AA'}, frame nabla_[a K_b])."""
    nk, eta = _nabla_killing(g, K)
    kaa = [[normalize(sum(tet.theta[_slot(A, Ap)][a] * K.comps[a] for a in R4)) for Ap in R2]
           for A in R2]
    ff = _frame_rank2(_frame(tet), [[(nk[a][b] - nk[b][a]) / 2 for b in R4] for a in R4])
    return nk, eta, kaa, ff


def phi_comp(data, a, b) -> Expr:
    """phi_{A'B'} of a `spinor.KillingSpinorData`."""
    return data.phi[a + b]


def psi_comp(data, a, b) -> Expr:
    """psi_{AB} of a `spinor.KillingSpinorData`."""
    return data.psi[a + b]


def vector_components(tet, K) -> list:
    """K^{AA'} = theta^{AA'}(K) from the tetrad's elements, as their views."""
    return [[Field.view(c) for c in row] for row in tet.vector_el(_vector_el(tet.g, K))]


def killing_reassembly_residuals(g, tet, K, data) -> list[Expr]:
    """The frame nabla_a K_b rebuilt from the package's (phi, psi, eta)."""
    fk = _frame_rank2(_frame(tet), _nabla_killing(g, K)[0])
    out = []
    for A, Ap, B, Bp in itertools.product(R2, repeat=4):
        rec = (phi_comp(data, Ap, Bp).sym * _eps(A, B)
               + psi_comp(data, A, B).sym * _eps(Ap, Bp)
               + data.eta.sym * _eps(A, B) * _eps(Ap, Bp) / 2)
        out.append(Expr(normalize(rec - fk[_slot(A, Ap)][_slot(B, Bp)])))
    return out


# -- two-forms -------------------------------------------------------------------------


def recompose_two_form(tet, phi, psi) -> list:
    """F_ab = (phi_{A'B'} eps_AB + psi_{AB} eps_A'B') theta^{AA'}_a theta^{BB'}_b."""
    th = tet.theta
    comps = [[sp.S.Zero] * 4 for _ in R4]
    for A, Ap, B, Bp in itertools.product(R2, repeat=4):
        val = phi[Ap + Bp] * _eps(A, B) + psi[A + B] * _eps(Ap, Bp)
        if val == 0:
            continue
        i, j = _slot(A, Ap), _slot(B, Bp)
        for a in R4:
            for b in R4:
                comps[a][b] += val * th[i][a] * th[j][b]
    return [[normalize(comps[a][b]) for b in R4] for a in R4]


# -- the projective flatness invariant ---------------------------------------------------


def is_flat_input(p) -> bool:
    """Every coefficient A_i of the projective structure is proven zero."""
    return all(Expr(a).is_proven_zero() for a in p.A)


def tree_flatness_invariant(p) -> Expr:
    """The flatness obstruction of y'' = F(x, y, lam), F = A0 + A1 lam +
    A2 lam^2 + A3 lam^3, from the spray: with d/dx the total derivative
    d_x + lam d_y + F d_lam,
        d/dx^2 F_ll - 4 d/dx F_yl - F_l d/dx F_ll + 4 F_l F_yl - 3 F_y F_ll + 6 F_yy,
    expanded."""
    x, y = (sp.Symbol(n) for n in p.chart2)
    lam = sp.Symbol(FIBRE)
    a0, a1, a2, a3 = (Expr(a).sym for a in p.A)
    F = a0 + lam * a1 + lam**2 * a2 + lam**3 * a3

    def ddx(e):
        return sp.diff(e, x) + lam * sp.diff(e, y) + F * sp.diff(e, lam)

    F1 = sp.diff(F, lam)
    F0 = sp.diff(F, y)
    F11 = sp.diff(F, lam, 2)
    F01 = sp.diff(F, y, 1, lam, 1)
    F00 = sp.diff(F, y, 2)
    inv = (ddx(ddx(F11)) - 4 * ddx(F01) - F1 * ddx(F11)
           + 4 * F1 * F01 - 3 * F0 * F11 + 6 * F00)
    return Expr(sp.expand(inv))


def tuple_geodesic(p, init, h: float, n: int) -> tuple[list, bool, str]:
    """(points, completed, message) of the classical RK4 on tuple states,
    dx/ds = 1, dy/ds = lam, dlam/ds = F, with F = A0 + A1 lam + A2 lam^2 +
    A3 lam^3 cancelled and compiled by lambdify over the math module."""
    x, y = p.chart2
    lam = sp.Symbol(FIBRE)
    a0, a1, a2, a3 = (Expr(a).sym for a in p.A)
    F = sp.cancel(a0 + lam * a1 + lam**2 * a2 + lam**3 * a3)
    fn = sp.lambdify([sp.Symbol(x), sp.Symbol(y), lam], F, modules="math")

    def rhs(state):
        return (1.0, state[2], fn(*state))

    state = tuple(float(v) for v in init)
    pts = [state]
    for _ in range(n):
        try:
            k1 = rhs(state)
            k2 = rhs(tuple(s + h / 2 * k for s, k in zip(state, k1)))
            k3 = rhs(tuple(s + h / 2 * k for s, k in zip(state, k2)))
            k4 = rhs(tuple(s + h * k for s, k in zip(state, k3)))
        except (ZeroDivisionError, OverflowError, ValueError) as ex:
            return pts, False, f"integration aborted: {ex}"
        state = tuple(s + h / 6 * (a + 2 * b + 2 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        if any(abs(v) > 1e12 or v != v for v in state):
            return pts, False, "integration aborted: state diverged"
        pts.append(state)
    return pts, True, ""


def tree_liouville_invariant(p) -> Expr:
    """2 L_a lam + 2 L_b with Liouville's two relative invariants of
    y'' = A0 + A1 y' + A2 y'^2 + A3 y'^3, differentiated on trees."""
    x, y = (sp.Symbol(n) for n in p.chart2)
    lam = sp.Symbol(FIBRE)
    A0, A1, A2, A3 = (Expr(a).sym for a in p.A)

    def d(a, *vs):
        return sp.diff(a, *vs)

    La = (d(A1, y, y) - 2 * d(A2, x, y) + 3 * d(A3, x, x) - 3 * A0 * d(A3, y)
          + 3 * A1 * d(A3, x) + A2 * d(A1, y) - 2 * A2 * d(A2, x) - 6 * A3 * d(A0, y)
          + 3 * A3 * d(A1, x))
    Lb = (3 * d(A0, y, y) - 2 * d(A1, x, y) + d(A2, x, x) - 3 * A0 * d(A2, y)
          + 6 * A0 * d(A3, x) + 2 * A1 * d(A1, y) - A1 * d(A2, x) - 3 * A2 * d(A0, y)
          + 3 * A3 * d(A0, x))
    return Expr(2 * La * lam + 2 * Lb)


# -- the builders ------------------------------------------------------------------------

_x, _y, _z = sp.symbols("x y z")
_T, _X, _Y, _Z = sp.symbols("T X Y Z")


def _tree_cubic(a) -> sp.Expr:
    return a[0] + _z * a[1] + _z**2 * a[2] + _z**3 * a[3]


def tree_nontwisting_a0(p) -> sp.Expr:
    """A0 = beta_x + beta beta_y - beta A1 - beta^2 A2 - beta^3 A3."""
    b, A1, A2, A3 = (Expr(p[k]).sym for k in ("beta", "A1", "A2", "A3"))
    return sp.diff(b, _x) + b * sp.diff(b, _y) - b * A1 - b**2 * A2 - b**3 * A3


def tree_sparling_w0(H) -> sp.Expr:
    """W0 = H(u, v)/(YT - ZX)^3 at u = Y/(YT - ZX), v = Z/(YT - ZX)."""
    s = _Y * _T - _Z * _X
    return sp.cancel(substitute(H, {"u": Expr(_Y / s), "v": Expr(_Z / s)}).sym / s**3)


def tree_heavenly_hessian(theta) -> tuple:
    """(Theta_XX, Theta_TX, Theta_TT)."""
    ts = Expr(theta).sym
    return sp.diff(ts, _X, 2), sp.diff(ts, _T, 1, _X, 1), sp.diff(ts, _T, 2)


def tree_coframe(family: str, params) -> list:
    """The rows theta^i_a of a builder family's coframe, as trees."""
    p = {k: Expr(v).sym for k, v in params.items()}
    if family == "nontwisting":
        beta, A1, A2, A3, P, Q = (p[k] for k in ("beta", "A1", "A2", "A3", "P", "Q"))
        D = Q - _z * A3
        E = _z * (-sp.diff(beta, _y) + A1 + beta * A2 + beta**2 * A3)
        Fz = _z * (A2 + 2 * beta * A3) + P
        return [[1, 0, -D, 0], [0, -E, -Fz, 1], [0, 1, 0, 0], [0, -beta, 1, 0]]
    if family == "twisting":
        a, G = [p[k] for k in ("A0", "A1", "A2", "A3")], p["G"]
        Gz = sp.diff(G, _z)
        C = -Gz * a[2] - 2 * a[3] * (_z * Gz - G) + sp.diff(Gz, _y)
        D = -Gz * a[3]
        return [[1, -C, -D, 0], [0, -_tree_cubic(a), 0, 1], [0, sp.diff(G, _z, 2), 0, 0],
                [0, -_z, 1, 0]]
    if family == "fefferman":
        ga, de, ro, si = (p[k] for k in ("gamma", "delta", "rho", "sigma"))
        a = [p[k] for k in ("A0", "A1", "A2", "A3")]
        C = -(_z + ga) * a[2] - 2 * a[3] * (_z**2 / 2 - de) + sp.diff(ga, _y) - ro
        D = -(_z + ga) * a[3] - si
        return [[1, -C, -D, 0], [0, -_tree_cubic(a), 0, 1], [0, 1, 0, 0], [0, -_z, 1, 0]]
    if family == "ppwave":
        return [[1, 0, -p["Q"], 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    if family == "sparling_tod":
        W0 = tree_sparling_w0(params["H"])
        return [[1, 0, -W0 * _Z * _Z, W0 * _Z * _Y], [0, 0, 0, 1],
                [0, 1, -W0 * _Y * _Z, W0 * _Y * _Y], [0, 0, 1, 0]]
    if family == "heavenly":
        thXX, thTX, thTT = tree_heavenly_hessian(p["Theta"])
        return [[1, 0, -thXX, -thTX], [0, 0, 0, 1], [0, 1, thTX, thTT], [0, 0, 1, 0]]
    raise ValueError(f"no tree coframe for {family!r}")


def tree_metric(rows) -> list:
    """g = theta^00' theta^11' - theta^01' theta^10', symmetric products."""
    return [[rows[0][a] * rows[3][b] + rows[0][b] * rows[3][a]
             - rows[1][a] * rows[2][b] - rows[1][b] * rows[2][a] for b in R4] for a in R4]


def tree_transport_residual(A0, A1, A2, A3, G) -> Expr:
    """(d_x + z d_y + (A0 + z A1 + z^2 A2 + z^3 A3) d_z) G_zz."""
    a = [Expr(v).sym for v in (A0, A1, A2, A3)]
    H = sp.diff(Expr(G).sym, _z, 2)
    return Expr(sp.diff(H, _x) + _z * sp.diff(H, _y) + _tree_cubic(a) * sp.diff(H, _z))


def tree_heavenly_residual(theta) -> Expr:
    """Theta_YT - Theta_ZX + Theta_TT Theta_XX - Theta_TX^2."""
    ts = Expr(theta).sym
    thXX, thTX, thTT = tree_heavenly_hessian(theta)
    return Expr(sp.diff(ts, _Y, 1, _T, 1) - sp.diff(ts, _Z, 1, _X, 1) + thTT * thXX - thTX**2)


# -- the heavenly Sigma stage and the Fefferman type-N conditions -------------------


def tree_wedge(a, b) -> list:
    """(a ^ b)_cd = a_c b_d - a_d b_c of two one-forms' components."""
    return [[a[c] * b[d] - a[d] * b[c] for d in R4] for c in R4]


def tree_sigma_forms(theta) -> tuple:
    """(Sigma^{0'0'}, Sigma^{0'1'}, Sigma^{1'1'}) over the coframe rows theta:
    theta^00' ^ theta^10', (theta^00' ^ theta^11' + theta^01' ^ theta^10')/2
    and theta^01' ^ theta^11'."""
    w03, w12 = tree_wedge(theta[0], theta[3]), tree_wedge(theta[1], theta[2])
    s01 = [[(w03[c][d] + w12[c][d]) * sp.Rational(1, 2) for d in R4] for c in R4]
    return tree_wedge(theta[0], theta[2]), s01, tree_wedge(theta[1], theta[3])


def _combination(*terms) -> list:
    return [[sum(M[c][d] * f for M, f in terms) for d in R4] for c in R4]


def tree_sigma_pullback_residuals(theta, Theta) -> list[Expr]:
    """Sigma(pi) = Sigma^{A'B'} pi_A' pi_B' over the coframe rows theta, minus
    the template pi0^2 (dT^dX + Qt dY^dX) + pi0 pi1 (dT^dY - dX^dZ)
    + pi1^2 dZ^dY with Qt = -Theta_XX, above the diagonal."""
    pi0, pi1 = sp.symbols("pi0 pi1")
    s00, s01, s11 = tree_sigma_forms(theta)
    qt = -tree_heavenly_hessian(Theta)[0]
    dT, dX, dY, dZ = ([int(i == a) for a in R4] for i in R4)
    sigma = _combination((s00, pi0**2), (s01, 2 * pi0 * pi1), (s11, pi1**2))
    template = _combination(
        (tree_wedge(dT, dX), pi0**2), (tree_wedge(dY, dX), qt * pi0**2),
        (tree_wedge(dT, dY), pi0 * pi1), (tree_wedge(dX, dZ), -pi0 * pi1),
        (tree_wedge(dZ, dY), pi1**2))
    return [Expr(sp.sympify(sigma[c][d] - template[c][d])) for c in R4 for d in range(c + 1, 4)]


_SLOTS = [[sp.Dummy(f"theta{i}{a}") for a in R4] for i in R4]


def tree_endomorphism_residuals(theta) -> list[Expr]:
    """R^2 - Id, -I^2 - Id, S^2 - Id and IRS - Id for R = g^-1 (Sigma^{0'0'}
    - Sigma^{1'1'}), I = g^-1 (Sigma^{0'0'} + Sigma^{1'1'}) and
    S = g^-1 2 Sigma^{0'1'}, with g and its inverse (adjugate over the
    determinant) from the coframe rows theta, as sympy matrices.  Each entry
    of theta that is not a number stands in as a symbol of its slot while the
    matrices are formed and normalized, and is put back in the residuals."""
    entries = [[sp.sympify(t) for t in row] for row in theta]
    rows = tuple(tuple(t if t.is_number else _SLOTS[i][a] for a, t in enumerate(row))
                 for i, row in enumerate(entries))
    back = {_SLOTS[i][a]: t for i, row in enumerate(entries) for a, t in enumerate(row)}
    return [Expr(normalize(e.xreplace(back))) for e in _endomorphism_residuals(rows)]


@functools.lru_cache
def _endomorphism_residuals(rows: tuple) -> tuple:
    def normal(M):
        return sp.Matrix(M).applyfunc(normalize)

    g = normal(tree_metric(rows))
    ginv = normal(g.adjugate() / normalize(g.det(method="berkowitz")))
    s00, s01, s11 = map(normal, tree_sigma_forms(rows))
    R, I, S = normal(ginv * (s00 - s11)), normal(ginv * (s00 + s11)), normal(ginv * 2 * s01)
    Id = sp.eye(4)
    return tuple(normalize(e) for M in (R * R - Id, -I * I - Id, S * S - Id,
                                        I * normal(R * S) - Id) for e in M)


def tree_fefferman_conditions(p) -> list[Expr]:
    """The Fefferman-like metric's type-N conditions gamma A3 + sigma - A2/3
    and gamma A2 - 2 A3 delta - gamma_y + rho - 2 A1/3."""
    ga, de, ro, si, a1, a2, a3 = (Expr(p[k]).sym for k in
                                  ("gamma", "delta", "rho", "sigma", "A1", "A2", "A3"))
    return [Expr(ga * a3 + si - a2 / 3),
            Expr(ga * a2 - 2 * a3 * de - sp.diff(ga, _y) + ro - 2 * a1 / 3)]
