"""Root multiplicity structure of real binary quartics.

The classification quartic is treated projectively: a leading-coefficient drop
of k counts as a root at infinity with multiplicity k.  Exact square-free
decomposition over Q when the coefficients are rational; numerical root
clustering otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["RootStructure", "quartic_root_structure"]


@dataclass(frozen=True)
class RootStructure:
    """Projective multiplicity partition plus real/complex annotation.

    partition: multiplicities sorted descending, summing to 4 (empty for the
    zero quartic).  real_roots: multiplicities of the real roots (the root at
    infinity counts as real).  complex_pairs: multiplicities of conjugate
    pairs, one entry per pair.
    """

    partition: tuple[int, ...]
    real_roots: tuple[int, ...]
    complex_pairs: tuple[int, ...]
    is_zero: bool = False


# -- exact univariate helpers over Fraction ------------------------------------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: list[Fraction]) -> list[Fraction]:
    return _trim([p[i] * i for i in range(1, len(p))])


def _divmod_poly(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        _trim(a)
    return _trim(q), a


def _gcd_poly(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        _, r = _divmod_poly(a, b)
        a, b = b, _trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _eval_poly(p: list[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [_trim(p[:]), _deriv(p)]
    while chain[-1]:
        _, r = _divmod_poly(chain[-2], chain[-1])
        r = [-c for c in r]
        if not _trim(r):
            break
        chain.append(r)
    return [c for c in chain if c]


def _sign_changes(vals: list[Fraction]) -> int:
    signs = [v for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _count_real_roots(p: list[Fraction]) -> int:
    """Distinct real roots of a square-free rational polynomial."""
    p = _trim(p[:])
    if len(p) <= 1:
        return 0
    chain = _sturm_chain(p)
    bound = Fraction(1) + max(abs(c) for c in p[:-1]) / abs(p[-1]) if len(p) > 1 else Fraction(1)
    lo = [_eval_poly(c, -bound) for c in chain]
    hi = [_eval_poly(c, bound) for c in chain]
    return _sign_changes(lo) - _sign_changes(hi)


def _squarefree_decomposition(p: list[Fraction]) -> list[tuple[int, list[Fraction]]]:
    """Yun-style decomposition: list of (multiplicity, square-free factor)."""
    p = _trim(p[:])
    out = []
    g = _gcd_poly(p, _deriv(p))
    if len(g) <= 1:
        return [(1, p)] if len(p) > 1 else []
    w, _ = _divmod_poly(p, g)
    m = 1
    while len(w) > 1:
        y = _gcd_poly(w, g)
        factor, _ = _divmod_poly(w, y)
        if len(factor) > 1:
            out.append((m, factor))
        w = y
        g, _ = _divmod_poly(g, y)
        m += 1
    if len(g) > 1:
        # leftover: perfect power beyond the loop (cannot happen for quartics)
        out.append((m, g))
    return out


def _exact_structure(coeffs: list[Fraction]) -> RootStructure:
    p = _trim(coeffs[:])
    if not p:
        return RootStructure((), (), (), is_zero=True)
    inf_mult = 4 - (len(p) - 1)
    partition: list[int] = []
    real: list[int] = []
    pairs: list[int] = []
    if inf_mult > 0:
        partition.append(inf_mult)
        real.append(inf_mult)
    for mult, factor in _squarefree_decomposition(p):
        deg = len(factor) - 1
        nreal = _count_real_roots(factor)
        ncomplex_pairs = (deg - nreal) // 2
        partition.extend([mult] * nreal + [mult] * (2 * ncomplex_pairs))
        real.extend([mult] * nreal)
        pairs.extend([mult] * ncomplex_pairs)
    return RootStructure(
        tuple(sorted(partition, reverse=True)),
        tuple(sorted(real, reverse=True)),
        tuple(sorted(pairs, reverse=True)),
    )


# -- numeric fallback -----------------------------------------------------------


def _numeric_structure(coeffs: list[float], tol: float = 1e-8) -> RootStructure:
    import numpy as np  # here, not at module level, so importing asdnull skips numpy

    arr = np.array(coeffs, dtype=float)  # ascending
    scale = np.max(np.abs(arr))
    if scale == 0.0:
        return RootStructure((), (), (), is_zero=True)
    arr = arr / scale
    lead = 4
    while lead >= 0 and abs(arr[lead]) <= tol:
        lead -= 1
    inf_mult = 4 - lead
    partition: list[int] = []
    real: list[int] = []
    pairs: list[int] = []
    if inf_mult > 0:
        partition.append(inf_mult)
        real.append(inf_mult)
    if lead >= 1:
        roots = np.roots(arr[: lead + 1][::-1])
        used = [False] * len(roots)
        clusters: list[list[complex]] = []
        for i, r in enumerate(roots):
            if used[i]:
                continue
            cluster = [r]
            used[i] = True
            for j in range(i + 1, len(roots)):
                if not used[j] and abs(roots[j] - r) <= tol * max(1.0, abs(r)):
                    cluster.append(roots[j])
                    used[j] = True
            clusters.append(cluster)
        seen_conjugate: set[int] = set()
        for idx, cluster in enumerate(clusters):
            if idx in seen_conjugate:
                continue
            center = np.mean(cluster)
            mult = len(cluster)
            if abs(center.imag) <= tol * max(1.0, abs(center)):
                partition.append(mult)
                real.append(mult)
            else:
                for jdx in range(idx + 1, len(clusters)):
                    if jdx in seen_conjugate:
                        continue
                    other = np.mean(clusters[jdx])
                    if abs(other - np.conj(center)) <= tol * max(1.0, abs(center)):
                        seen_conjugate.add(jdx)
                        break
                partition.extend([mult, mult])
                pairs.append(mult)
    return RootStructure(
        tuple(sorted(partition, reverse=True)),
        tuple(sorted(real, reverse=True)),
        tuple(sorted(pairs, reverse=True)),
    )


def quartic_root_structure(coeffs, tol: float = 1e-8) -> RootStructure:
    """coeffs ascending [c0..c4] for c0 + c1 x + ... + c4 x^4, Fractions or floats."""
    if len(coeffs) != 5:
        raise ValueError("expected five coefficients c0..c4")
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        return _exact_structure([Fraction(c) for c in coeffs])
    return _numeric_structure([float(c) for c in coeffs], tol)
