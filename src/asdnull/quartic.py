"""Root multiplicity structure of real binary quartics.

The classification quartic is treated projectively: a leading-coefficient drop
of k counts as a root at infinity with multiplicity k.  Rational coefficients
are scaled to integers.  Their evident roots are read off the coefficients: k
trailing zeros are a root at 0 of multiplicity k, and what is left, q of
degree d >= 1, is one real root of multiplicity d when it is a(x - r)^d,
checked exactly over ZZ (a linear q always is).  In the adapted tetrad of the
paper's families every exact quartic is of this kind.  Any other q takes
sympy's dense square-free decomposition over ZZ (`dup_sqf_list`, Yun's
algorithm), each factor's real roots counted by `dup_count_real_roots`; a
factor of degree d with r real roots holds (d - r) / 2 conjugate pairs.
Float coefficients take numerical root clustering (numpy, imported only then).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import ZZ
from sympy.polys.rootisolation import dup_count_real_roots
from sympy.polys.sqfreetools import dup_sqf_list

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


# -- exact path ------------------------------------------------------------------


def _exact_structure(coeffs: list[Fraction]) -> RootStructure:
    """coeffs ascending; sympy's dense routines take the cleared integers
    highest degree first.  The roots at infinity and at 0 are read off the
    leading and trailing zero coefficients; what is left, q of degree d, is
    tried as a(x - r)^d before it reaches the square-free decomposition."""
    L = math.lcm(*(c.denominator for c in coeffs))
    p = dup_strip([c.numerator * (L // c.denominator) for c in reversed(coeffs)])
    if not p:
        return RootStructure((), (), (), is_zero=True)
    inf_mult = 5 - len(p)
    zero_mult = 0
    while not p[-1 - zero_mult]:
        zero_mult += 1
    partition: list[int] = []
    real: list[int] = []
    pairs: list[int] = []
    q = p[:len(p) - zero_mult]
    d = len(q) - 1
    power = d if d and _is_power(q, d) else 0  # one real root of multiplicity d
    for mult in (inf_mult, zero_mult, power):
        if mult:
            partition.append(mult)
            real.append(mult)
    if d and not power:
        for factor, mult in dup_sqf_list(q, ZZ)[1]:
            nreal = dup_count_real_roots(factor, ZZ)
            npairs = (len(factor) - 1 - nreal) // 2
            partition.extend([mult] * (nreal + 2 * npairs))
            real.extend([mult] * nreal)
            pairs.extend([mult] * npairs)
    return RootStructure(
        tuple(sorted(partition, reverse=True)),
        tuple(sorted(real, reverse=True)),
        tuple(sorted(pairs, reverse=True)),
    )


def _is_power(q: list[int], d: int) -> bool:
    """Whether q = [a, b, ...] (highest degree first, degree d) is a(x - r)^d,
    r = -b / (d a): then q[k] (d a)^k = a C(d, k) b^k for every k, exactly
    over ZZ.  A linear q always is."""
    a, b = q[0], q[1]
    return all(q[k] * (d * a)**k == a * math.comb(d, k) * b**k for k in range(2, d + 1))


# -- numeric fallback -----------------------------------------------------------

TOL = 1e-8  # relative: a smaller leading coefficient drops, closer roots cluster


def _numeric_structure(coeffs: list[float]) -> RootStructure:
    import numpy as np  # here, not at module level, so importing asdnull skips numpy

    arr = np.array(coeffs, dtype=float)  # ascending
    scale = np.max(np.abs(arr))
    if scale == 0.0:
        return RootStructure((), (), (), is_zero=True)
    arr = arr / scale
    lead = 4
    while lead >= 0 and abs(arr[lead]) <= TOL:
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
                if not used[j] and abs(roots[j] - r) <= TOL * max(1.0, abs(r)):
                    cluster.append(roots[j])
                    used[j] = True
            clusters.append(cluster)
        seen_conjugate: set[int] = set()
        for idx, cluster in enumerate(clusters):
            if idx in seen_conjugate:
                continue
            center = np.mean(cluster)
            mult = len(cluster)
            if abs(center.imag) <= TOL * max(1.0, abs(center)):
                partition.append(mult)
                real.append(mult)
            else:
                for jdx in range(idx + 1, len(clusters)):
                    if jdx in seen_conjugate:
                        continue
                    other = np.mean(clusters[jdx])
                    if abs(other - np.conj(center)) <= TOL * max(1.0, abs(center)):
                        seen_conjugate.add(jdx)
                        break
                partition.extend([mult, mult])
                pairs.append(mult)
    return RootStructure(
        tuple(sorted(partition, reverse=True)),
        tuple(sorted(real, reverse=True)),
        tuple(sorted(pairs, reverse=True)),
    )


def quartic_root_structure(coeffs) -> RootStructure:
    """coeffs ascending [c0..c4] for c0 + c1 x + ... + c4 x^4, Fractions or floats."""
    if len(coeffs) != 5:
        raise ValueError("expected five coefficients c0..c4")
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        return _exact_structure([Fraction(c) for c in coeffs])
    return _numeric_structure([float(c) for c in coeffs])
