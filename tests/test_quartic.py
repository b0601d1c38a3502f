"""Root-multiplicity structure of quartics, exact and numeric paths."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from asdnull.quartic import quartic_root_structure
from oracles import sympy_root_structure


def _from_roots(roots):
    p = np.poly(roots)[::-1]
    return [F(round(c)) for c in p]


@pytest.mark.parametrize(
    "roots,partition",
    [
        ([1, 2, 3, 4], (1, 1, 1, 1)),
        ([1, 1, 2, 3], (2, 1, 1)),
        ([1, 1, 2, 2], (2, 2)),
        ([1, 1, 1, 2], (3, 1)),
        ([1, 1, 1, 1], (4,)),
        ([-2, -2, 5, 5], (2, 2)),
    ],
)
def test_exact_partitions(roots, partition):
    assert quartic_root_structure(_from_roots(roots)).partition == partition


def test_zero_quartic():
    rs = quartic_root_structure([F(0)] * 5)
    assert rs.is_zero and rs.partition == ()


def test_root_at_infinity():
    # cubic (x-1)(x-2)(x-3) viewed projectively: simple root at infinity
    p = _from_roots([1, 2, 3]) + [F(0)]
    rs = quartic_root_structure(p)
    assert rs.partition == (1, 1, 1, 1)
    # x^3: triple root at 0 plus the root at infinity
    rs = quartic_root_structure([F(0), F(0), F(0), F(1), F(0)])
    assert rs.partition == (3, 1)
    # constant quartic: quadruple root at infinity
    rs = quartic_root_structure([F(5), F(0), F(0), F(0), F(0)])
    assert rs.partition == (4,)


def test_complex_pairs_annotated():
    # (x^2+1)(x-1)(x-2)
    rs = quartic_root_structure([F(2), F(-3), F(3), F(-3), F(1)])
    assert rs.partition == (1, 1, 1, 1)
    assert rs.real_roots == (1, 1)
    assert rs.complex_pairs == (1,)
    # (x^2+1)^2: repeated complex pair
    rs = quartic_root_structure([F(1), F(0), F(2), F(0), F(1)])
    assert rs.partition == (2, 2)
    assert rs.real_roots == ()
    assert rs.complex_pairs == (2,)


def test_partition_consistency():
    for roots in ([1, 2, 3, 4], [1, 1, 7, 9], [3, 3, 3, 1]):
        rs = quartic_root_structure(_from_roots(roots))
        assert sum(rs.partition) == 4
        assert sorted(rs.real_roots + tuple(m for m in rs.complex_pairs for _ in range(2)),
                      reverse=True) == sorted(rs.partition, reverse=True)


def _times(p, f):
    out = [F(0)] * (len(p) + len(f) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(f):
            out[i + j] += a * b
    return out


def _known_quartic(rng):
    """(ascending coefficients, partition, real roots, complex pairs) of a
    quartic built from known factors: distinct rational roots, x^2 - k with k
    not a rational square (two real roots) and x^2 + b x + c with b^2 < 4c (a
    complex pair), each raised to a multiplicity; a leading-coefficient drop
    of 0 to 4, counted as a real root at infinity; and a rational scale, so
    that the coefficients are not integers."""
    drop = rng.randint(0, 4)
    p = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))]
    real, pairs = [drop] if drop else [], []
    # distinct factors, so that no two merge into a higher multiplicity
    roots = rng.sample([F(n, d) for n in range(-6, 7) for d in (1, 2, 3)], 4)
    ks = rng.sample([F(2), F(3), F(5), F(3, 2), F(5, 3), F(7, 2)], 2)
    bs = rng.sample([F(n, d) for n in range(-5, 6) for d in (1, 2, 3)], 2)
    left = 4 - drop
    while left:
        kind = rng.choice(["root", "real pair", "complex pair"] if left >= 2 else ["root"])
        m = rng.randint(1, left if kind == "root" else left // 2)
        if kind == "root":
            f, real = [-roots.pop(), F(1)], real + [m]
        elif kind == "real pair":
            f, real = [-ks.pop(), F(0), F(1)], real + [m, m]
        else:
            b = bs.pop()
            f, pairs = [b * b / 4 + F(rng.randint(1, 9), rng.randint(1, 4)), b, F(1)], pairs + [m]
        for _ in range(m):
            p = _times(p, f)
        left -= m * (len(f) - 1)
    partition = real + [m for m in pairs for _ in range(2)]
    return (p + [F(0)] * drop, *(tuple(sorted(v, reverse=True)) for v in (partition, real, pairs)))


def test_exact_structure_of_quartics_built_from_known_factors():
    """The partition and the real/complex annotation of 400 seeded quartics
    are the ones known by construction."""
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        coeffs, partition, real, pairs = _known_quartic(rng)
        assert len(coeffs) == 5
        rs = quartic_root_structure(coeffs)
        assert (rs.partition, rs.real_roots, rs.complex_pairs) == (partition, real, pairs), coeffs
        assert not rs.is_zero
        seen.add((partition, real, pairs))
    assert len(seen) == 9  # every partition with every real/complex annotation it admits


def test_numeric_simple_roots():
    rs = quartic_root_structure([2.0, -3.0, 3.0, -3.0, 1.0])
    assert rs.partition == (1, 1, 1, 1)
    assert rs.complex_pairs == (1,)


def test_numeric_scaled_coefficients():
    base = np.array([-24.0, 50.0, -35.0, 10.0, -1.0])  # -(x-1)(x-2)(x-3)(x-4)
    rs = quartic_root_structure(list(base * 1e9))
    assert rs.partition == (1, 1, 1, 1)
    assert rs.real_roots == (1, 1, 1, 1)


def test_exact_structure_matches_sympy_route_on_a_grid():
    """Every quartic with coefficients in {-1, 0, 1, 2} has the structure of
    the square-free decomposition and real-root count alone."""
    for coeffs in itertools.product((-1, 0, 1, 2), repeat=5):
        coeffs = [F(c) for c in coeffs]
        assert quartic_root_structure(coeffs) == sympy_root_structure(coeffs), coeffs


def _evident_power(rng):
    """(ascending coefficients, (drop, k, d), partition) of x^k a (x - r)^d
    with a leading drop, k + d + drop = 4, r a nonzero rational and a a
    rational scale."""
    drop = rng.randint(0, 4)
    k = rng.randint(0, 4 - drop)
    d = 4 - drop - k
    r = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    p = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))]
    for _ in range(d):
        p = _times(p, [-r, F(1)])
    coeffs = [F(0)] * k + p + [F(0)] * drop
    return coeffs, (drop, k, d), tuple(sorted((m for m in (drop, k, d) if m), reverse=True))


def test_exact_structure_of_evident_powers():
    """x^k a (x - r)^d, read off its coefficients, has the structure of the
    sympy route; so do near misses, a cube's or fourth power's coefficients
    with one after the first three changed, which only the check of every
    coefficient tells apart."""
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        coeffs, shape, partition = _evident_power(rng)
        rs = quartic_root_structure(coeffs)
        assert rs == sympy_root_structure(coeffs), coeffs
        assert rs.partition == rs.real_roots == partition, coeffs
        seen.add(shape)
        for d in (3, 4):  # a(x - r)^d: its first three coefficients kept, a later one moved
            p = [F(rng.randint(1, 9))]
            r = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(d):
                p = _times(p, [-r, F(1)])
            p[rng.randint(0, d - 3)] += rng.choice([-1, 1]) * F(rng.randint(1, 9), rng.randint(1, 5))
            near = p + [F(0)] * (4 - d)
            rs = quartic_root_structure(near)
            assert rs == sympy_root_structure(near), near
            assert max(rs.partition) < d, near
    assert len(seen) == 15  # every (drop, k, d) summing to 4
