"""Expression core: parsing, differentiation, exact evaluation, and seeded
randomized zero testing.

Expressions are trees over coordinate/parameter symbols with exact rational
constants, +,-,*,/, integer powers, and the four kernels exp, log, sin, cos.
Normalization collects everything into a single rational form num/den over the
polynomial ring generated by the symbols and the kernel subterms; no
trigonometric or exponential identities are applied beyond sound like-term
merging, so zero testing of kernel identities falls back to sampling.

Backed by sympy for the raw tree arithmetic; the grammar, normal form policy,
evaluation semantics and sampling design live here.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing, sring
from sympy.printing.pycode import PythonCodePrinter
from sympy.utilities.lambdify import _EvaluatorPrinter

__all__ = [
    "Expr",
    "Field",
    "ExprError",
    "ParseError",
    "EvalError",
    "Assignment",
    "SampleConfig",
    "Verdict",
    "parse",
    "symbols",
    "differentiate",
    "evaluate",
    "is_zero",
    "normalize",
    "random_points",
    "to_text",
]

_KERNELS = {"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos}
_KERNEL_CLASSES = (sp.exp, sp.log, sp.sin, sp.cos)
_BAD = (sp.zoo, sp.oo, -sp.oo, sp.nan)

Number = Union[int, Fraction, float]

# errors that make a sample point unusable (poles, domain errors); ExprError,
# EvalError and numpy's LinAlgError are ValueErrors
POINT_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


class ExprError(ValueError):
    """Invalid expression construction or manipulation."""


class ParseError(ExprError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Evaluation failed at a point (pole, log domain, unassigned symbol)."""


def _remember(cache: dict, key, value, cap: int):
    """value, stored under key in a memo of at most `cap` entries: past the
    cap the oldest entries go first."""
    cache[key] = value
    while len(cache) > cap:
        del cache[next(iter(cache))]
    return value


# normal forms keyed by tree; past the cap the oldest go.  The cap is above
# every working set measured: 12 distinct trees for report-all over the 7
# models in one process, 2 for the seeded point queries.
_normal_cache: dict = {}
_NORMAL_CAP = 256

# the irreducible factors of a base entry's cofactor, keyed by (ring symbols,
# terms); capped like the normal forms
_factor_cache: dict = {}
_FACTOR_CAP = 256


def normalize(s: sp.Expr) -> sp.Expr:
    """The one normal form: a single cancelled num/den over symbols and kernels.

    Memoized by tree in `_normal_cache`, at most `_NORMAL_CAP` entries, the
    oldest dropped first: a tree equal to one already normalized, even a
    distinct object, gets the same normal form with no second `sp.cancel`."""
    n = _normal_cache.get(s)
    if n is None:
        n = _remember(_normal_cache, s, sp.cancel(sp.together(s)), _NORMAL_CAP)
    return n


def _check_finite(s: sp.Expr, context: str = "expression") -> sp.Expr:
    if s.has(*_BAD):
        raise ExprError(f"{context} is singular (division by zero or infinity)")
    return s


# an element's rational: with pure-Python ground types a PythonMPQ product
# or negation takes about half the time of a Fraction one
_Q = QQ.dtype
_SCALARS = (int, Fraction, _Q)


def _rational(q):
    """An int, Fraction or QQ.dtype scalar as a QQ.dtype."""
    return q if type(q) is _Q else _Q(q.numerator, q.denominator)


def _degree(p) -> int:
    """The total degree of a nonzero polynomial."""
    return max(map(sum, p))


def _shifted(p, i: int, j: int):
    """p / x_i^j for a gen x_i."""
    return p.new([(m[:i] + (m[i] - j,) + m[i + 1:], c) for m, c in p.items()])


class _El:
    """An element c N / prod b_i^e_i of a field (`_Elements`): N a primitive
    polynomial over ZZ with a positive leading coefficient, c a rational
    (`QQ.dtype`: sympy's PythonMPQ, gmpy2's mpq where it is installed; zero
    only for the zero element) and e a map from base index to a positive
    exponent.  N is divisible by no b_i with e_i > 0, so the element is in
    lowest terms.

    The operators take an int, Fraction or QQ.dtype scalar, converted to
    QQ.dtype once here.  Against an element of the same field they return
    early: a sum or difference with a zero operand is the other operand (or
    its negative), a product with zero is zero, and a product with a
    constant (N = 1, no denominator) scales c alone.  An element of another
    field always reaches `_Elements._check`, which raises."""

    __slots__ = ("field", "c", "num", "e")

    def __init__(self, field: "_Elements", c, num, e: dict):
        self.field, self.c, self.num, self.e = field, c, num, e

    def __bool__(self) -> bool:
        return bool(self.num)

    def __neg__(f):
        return _El(f.field, -f.c, f.num, f.e)

    def __add__(f, g):
        K = f.field
        if type(g) is _El and g.field is K:
            if not g.num:
                return f
            if not f.num:
                return g
        elif isinstance(g, _SCALARS):
            g = K.constant(g)
        return K.add(f, g)

    __radd__ = __add__

    def __sub__(f, g):
        K = f.field
        if type(g) is _El and g.field is K:
            if not g.num:
                return f
            if not f.num:
                return _El(K, -g.c, g.num, g.e)
        elif isinstance(g, _SCALARS):
            g = K.constant(g)
        return K.add(f, g, -1)

    def __mul__(f, g):
        K = f.field
        if type(g) is _El and g.field is K:
            if not f.num or not g.num:
                return K.zero
            if not g.e and g.num.is_ground:
                return _El(K, f.c * g.c, f.num, f.e)
            if not f.e and f.num.is_ground:
                return _El(K, f.c * g.c, g.num, g.e)
        elif isinstance(g, _SCALARS):
            return K.scaled(f, _rational(g))
        return K.mul(f, g)

    __rmul__ = __mul__

    def __truediv__(f, g):
        if type(g) is int:
            return f.field.scaled(f, _Q(1, g))
        if type(g) is not _El and isinstance(g, _SCALARS):
            return f.field.scaled(f, 1 / _rational(g))
        return f.field.mul(f, f.field.inverse(g))

    def __pow__(f, n: int):
        if n < 0:
            return f.field.inverse(f) ** -n
        return _El(f.field, f.c**n, f.num**n, {i: k * n for i, k in f.e.items()})

    def __eq__(f, g):
        if not isinstance(g, _El):
            return NotImplemented
        return f.field is g.field and f.c == g.c and f.e == g.e and f.num == g.num

    def as_expr(f) -> sp.Expr:
        """c.num N / (c.den prod b_i^e_i), both sides expanded: the tree of
        sympy's cancel."""
        num = f.num.mul_ground(f.c.numerator)
        den = f.field.expand(f.e).mul_ground(f.c.denominator)
        return num.as_expr() / den.as_expr()


class _Elements:
    """The elements of one field, each c N / prod b_i^e_i over the field's
    base: pairwise coprime irreducible primitive polynomials over ZZ with
    positive leading coefficients.  The gens are the base's first entries; a
    polynomial enters the base only when it becomes a denominator (`factor`).

    Cancellation is exact trial division by the base elements a denominator
    holds, and only by those that can divide: a product divides each
    numerator by the base elements of the other operand's denominator that
    its own lacks, a sum divides its numerator by the base elements with the
    same exponent in both summands (`add`, `mul`).  Because each b_i is
    irreducible, what trial division leaves is in lowest terms; a base that
    were only pairwise coprime would let a factor of a composite b_i hide in
    N."""

    def __init__(self, symbols: tuple):
        self.ring = R = PolyRing(symbols, ZZ, lex)
        self.symbols = R.symbols
        self.ngens = R.ngens
        self.base: list = list(R.gens)
        self.gens_of: list = [(i,) for i in range(R.ngens)]
        self.zero = _El(self, _Q(0), R.zero, {})
        self.one = _El(self, _Q(1), R.one, {})
        self.gens = tuple(_El(self, _Q(1), g, {}) for g in R.gens)

    # -- construction ---------------------------------------------------------

    def constant(self, q: int | Fraction) -> _El:
        return self.scaled(self.one, _rational(q))

    def new(self, c, t, e: dict, cancel: Iterable[int] | None = None) -> _El:
        """c t / prod b_i^e_i for any polynomial t over ZZ: its content and
        sign move into c, and t is trial-divided by the base elements in
        `cancel` (all of e by default)."""
        if not t:
            return self.zero
        g, t, e = self._reduced(t, e, e if cancel is None else cancel)
        return _El(self, c * g, t, e)

    def _reduced(self, t, e: dict, cancel: Iterable[int]) -> tuple:
        """(content, N, e) of a nonzero t over ZZ on the denominator e: N the
        primitive part of t with a positive leading coefficient, trial-divided
        by the base elements in `cancel`."""
        g, t = t.primitive()
        if t.LC < 0:
            g, t = -g, -t
        t, e = self._cancel(t, e, cancel)
        return g, t, e

    def quotient(self, num: dict, den: dict) -> _El:
        """The element num / den of two coefficient maps over QQ."""
        (a, p), (b, q) = map(self._integral, (num, den))
        return self.mul(self.new(_Q(b, a), p, {}), self.inverse(self.new(_Q(1), q, {})))

    def _integral(self, d: dict) -> tuple:
        """(L, p) with d = p / L and p over ZZ."""
        L = math.lcm(*(c.denominator for c in d.values()))
        return L, self.ring.from_dict({m: c.numerator * (L // c.denominator)
                                       for m, c in d.items()})

    # -- the base ---------------------------------------------------------------

    def expand(self, e: dict):
        """prod b_i^e_i, expanded: the gens as one monomial."""
        mono, out = [0] * self.ngens, None
        for i, k in e.items():
            if i < self.ngens:
                mono[i] = k
            else:
                p = self.base[i]**k
                out = p if out is None else out * p
        if out is None:
            return self.ring.from_dict({tuple(mono): 1}) if e else self.ring.one
        return out.mul_monom(tuple(mono)) if any(mono) else out

    def _divide_out(self, p, i: int, k: int) -> tuple:
        """(p / b_i^j, j) for the largest j <= k with b_i^j dividing p: for a
        gen, a shift by its lowest degree in p."""
        if i < self.ngens:
            j = k
            for m in p:
                if m[i] < j:
                    j = m[i]
                    if not j:
                        return p, 0
            return _shifted(p, i, j), j
        b, j = self.base[i], 0
        while j < k:
            q, r = p.div(b)
            if r:
                break
            p, j = q, j + 1
        return p, j

    def _cancel(self, t, e: dict, idx: Iterable[int]) -> tuple:
        """(t, e) with every b_i, i in idx, divided out of t as far as e_i
        allows."""
        out = e
        for i in idx:
            k = e[i]
            t, j = self._divide_out(t, i, k)
            if j:
                if out is e:
                    out = dict(e)
                if j == k:
                    del out[i]
                else:
                    out[i] = k - j
        return t, out

    def factor(self, p) -> dict:
        """The exponents of a primitive polynomial with a positive leading
        coefficient over the base, the base grown by what it lacks: p is
        trial-divided by the base first, and only the cofactor left is
        factored into irreducibles, which enter the base.  The factors are
        kept in `_factor_cache` under the ring's symbols and the cofactor's
        terms, at most `_FACTOR_CAP` entries, the oldest dropped first: a
        polynomial that enters a new field with the same gens (Sparling-Tod's
        s = YT - ZX, once per member) is factored once per process.  The
        cached polynomials are shared by every base that holds them, and
        nothing changes a base polynomial in place."""
        e, rest = {}, p
        for i in range(len(self.base)):
            rest, k = self._divide_out(rest, i, math.inf)
            if k:
                e[i] = k
        if not rest.is_ground:
            key = (self.symbols, frozenset(rest.items()))
            factors = _factor_cache.get(key)
            if factors is None:
                factors = _remember(_factor_cache, key, tuple(
                    (f if f.LC > 0 else -f, k) for f, k in rest.factor_list()[1]), _FACTOR_CAP)
            for f, k in factors:
                e[self._enter(f)] = k
        return e

    def _enter(self, b) -> int:
        self.base.append(b)
        self.gens_of.append(tuple(i for i, d in enumerate(b.degrees()) if d > 0))
        return len(self.base) - 1

    def used(self, f: _El) -> list:
        """The indices of the gens f depends on."""
        out = {i for i, d in enumerate(f.num.degrees()) if d > 0}
        for i in f.e:
            out.update(self.gens_of[i])
        return sorted(out)

    # -- arithmetic ---------------------------------------------------------------

    def _check(self, g: _El) -> None:
        if type(g) is not _El:
            raise ExprError(f"cannot combine a field element with {type(g).__name__}")
        if g.field is not self:
            raise ExprError("elements of two different fields")

    def scaled(self, f: _El, q) -> _El:
        """q f for an int or QQ.dtype q."""
        if not q or not f:
            return self.zero
        return _El(self, f.c * q, f.num, f.e)

    def _raised(self, p, e: dict, to: dict):
        """p prod b_i^(to_i - e_i)."""
        extra = {i: k - e.get(i, 0) for i, k in to.items() if k != e.get(i, 0)}
        return p * self.expand(extra) if extra else p

    def add(self, f: _El, g: _El, sign: int = 1) -> _El:
        """f + g, or f - g for sign -1: over the exponent maximum, then trial
        division by the base elements with the same positive exponent in both
        summands.  The numerators are scaled to the common denominator L of
        the two rationals (a scale of 1 is skipped), and c is content / L.

        A b_i with unequal exponents cannot divide the sum: say e_i(f) >
        e_i(g); then g's raised numerator holds b_i and f's, N_f times powers
        of the other b_j, does not (N_f is in lowest terms and the base is
        irreducible and pairwise coprime), so the sum is N_f times a unit
        modulo b_i (Henrici, J. ACM 3 (1956) 6-9)."""
        self._check(g)
        if not g:
            return f
        if not f:
            return g if sign > 0 else -g
        e = cancel = f.e
        p, q = f.num, g.num
        if g.e != e:
            e = dict(e)
            for i, k in g.e.items():
                if k > e.get(i, 0):
                    e[i] = k
            p, q = self._raised(p, f.e, e), self._raised(q, g.e, e)
            cancel = [i for i, k in g.e.items() if f.e.get(i) == k]
        a, b = f.c, g.c
        L = math.lcm(a.denominator, b.denominator)
        m, n = a.numerator * (L // a.denominator), b.numerator * (L // b.denominator)
        p, q = p if m == 1 else p.mul_ground(m), q if n == 1 else q.mul_ground(n)
        t = p + q if sign > 0 else p - q
        if not t:
            return self.zero
        content, t, e = self._reduced(t, e, cancel)
        return _El(self, _Q(content, L), t, e)

    def mul(self, f: _El, g: _El) -> _El:
        """The exponents add; each numerator is trial-divided only by the base
        elements of the other operand's denominator that its own denominator
        lacks: N_f is in lowest terms, so no b_i of f's denominator divides
        it."""
        self._check(g)
        if not f or not g:
            return self.zero
        p, q = f.num, g.num
        if not f.e and not g.e:
            return _El(self, f.c * g.c, p * q, {})
        e = dict(f.e)
        for i, k in g.e.items():
            if i in f.e:
                e[i] += k
            else:
                p, j = self._divide_out(p, i, k)
                e[i] = k - j
        for i, k in f.e.items():
            if i not in g.e:
                q, j = self._divide_out(q, i, k)
                e[i] -= j
        return _El(self, f.c * g.c, p * q, {i: k for i, k in e.items() if k})

    def inverse(self, f: _El) -> _El:
        """1/f = (1/c) prod b_i^e_i / N: N enters the base.  The zero
        element's c is 0, so 1/c raises ZeroDivisionError for it."""
        self._check(f)
        return _El(self, 1 / f.c, self.expand(f.e), self.factor(f.num))


class _Memo:
    """A memo's nest of elements and the `_Elements` they all belong to:
    `Field.up` hands the nest back as it is while that is the field's
    current one (`Field.held`)."""

    __slots__ = ("K", "value")

    def __init__(self, K: _Elements, value):
        self.K, self.value = K, value


class _FieldGrew(Exception):
    """A derivative brought a gen its field lacked; the field has grown."""


def _exponent(g: sp.Expr) -> sp.Expr | None:
    """u with g = exp(u): sympy writes exp(1) as the constant E, so E and
    exp(1/2) are powers of one gen."""
    if isinstance(g, sp.exp):
        return g.args[0]
    return sp.S.One if g is sp.E else None


class _Unplaced(Exception):
    """A tree holds a gen the field lacks."""


def _singular(s: sp.Expr) -> ExprError:
    return ExprError(f"input {s} is singular (zoo, nan, or a divisor that is zero "
                     "in the field)")


class Field:
    """The sparse fraction field Q(gens) that one geometry's chain computes in.

    The gens are the given symbols plus whatever sympy's `sring` finds in the
    normal forms of the leaves of the inputs (parameter symbols and kernel
    subterms), closed under differentiation: a kernel's argument is in the
    field, and sin(u) brings cos(u) and back.  sympy merges exp(m/2)^2 into
    exp(m), so every exp(c m) with the same m is a power of one gen exp(m/q).

    An element is c N / prod b_i^e_i (`_El`): N primitive over ZZ with a
    positive leading coefficient in lex order over the gens as sympy's
    `_sort_gens` orders them, c rational, and e the exponents over the field's
    base of irreducible polynomials (`_Elements`), which holds the gens and
    grows when a new polynomial becomes a denominator.  Sums, products and
    derivatives cancel by trial division over the base, by the base
    elements that can divide alone (Henrici, J. ACM 3 (1956) 6-9; Bach,
    Driscoll & Shallit, J. Algorithms 15 (1993) 199-222); a vector field
    differentiates as one derivation (`derivation`, `along`);
    no gcd runs outside base entry (`factor_list` on a new denominator's
    cofactor, once per process).  The denominator is expanded only for `view`, whose tree is
    c.num N / (c.den prod b_i^e_i): the canonical form of a rational function
    (Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*, ch. 3), a
    fixed point of `normalize` except where cancel rewrites the fraction in a
    kernel's argument.

    A sympy tree enters by folding (`convert`, `fold`): sums, products and
    integer powers become the field's own arithmetic, and only the leaves it
    cannot take apart (exp, log, sin, cos, any other function) are normalized,
    each once per field.  Every display is the element's view: one display
    rule, also where normalize is not idempotent on an input (`convert`).
    The field grows when an input carries a gen it lacks, and `up` moves
    older elements into it by placing their polynomials over the new gens,
    with no view and no second normalization of a leaf."""

    def __init__(self, symbols: Iterable[sp.Symbol] = (), trees: Iterable[sp.Expr] = ()):
        self._gens: set = set()
        self._exp_den: dict = {}  # m -> q of the shared gen exp(m/q)
        self._leaves: dict = {}  # leaf -> (normal form, its gens, num and den over them)
        self.K = None
        self._grow(set(symbols) | self._gens_of(trees))

    # -- gens -------------------------------------------------------------------

    def _leaf(self, s: sp.Expr) -> tuple:
        """(normal form, gens, numerator and denominator over the gens) of a
        leaf the fold does not take apart: its one normalization."""
        out = self._leaves.get(s)
        if out is None:
            n = normalize(s)
            if n.has(*_BAD):
                raise ZeroDivisionError
            ring, polys = sring(n.as_numer_denom(), domain=QQ)
            out = self._leaves[s] = (n, ring.symbols, polys)
        return out

    def _walk(self, s: sp.Expr, leaves: set) -> None:
        """Add the symbols and leaves of s to `leaves`."""
        if s.is_Add or s.is_Mul:
            for a in s.args:
                self._walk(a, leaves)
        elif s.is_Pow and s.exp.is_Integer:
            self._walk(s.base, leaves)
        elif not s.is_Rational:
            leaves.add(s)

    def _gens_of(self, trees: Iterable[sp.Expr]) -> set:
        gens: set = set()
        for s in trees:
            leaves: set = set()
            self._walk(s, leaves)
            try:
                for leaf in leaves:
                    gens.update((leaf,) if leaf.is_Symbol else self._leaf(leaf)[1])
            except ZeroDivisionError:
                raise _singular(s) from None
        return gens

    def _grow(self, new: set) -> None:
        todo = [g for g in new if g not in self._gens]
        if not todo and self.K is not None:
            return
        while todo:
            g = todo.pop()
            if g in self._gens:
                continue
            self._gens.add(g)
            if isinstance(g, _KERNEL_CLASSES):
                u = g.args[0]
                more = list(self._gens_of([u]))
                if isinstance(g, sp.sin):
                    more.append(sp.cos(u))
                elif isinstance(g, sp.cos):
                    more.append(sp.sin(u))
                todo += [h for h in more if h not in self._gens]
        for g in self._gens:
            u = _exponent(g)
            if u is not None:
                c, m = u.as_coeff_Mul(rational=True)
                self._exp_den[m] = math.lcm(self._exp_den.get(m, 1), c.q)
        gens = tuple(_sort_gens({self._shared(g)[0] for g in self._gens}))
        if self.K is not None and gens == self.K.symbols:
            return
        self.K = K = _Elements(gens)
        self._index = {g: i for i, g in enumerate(K.symbols)}
        self._chains: dict = {}
        self._leaf_el: dict = {}

    def _shared(self, g: sp.Expr) -> tuple[sp.Expr, int]:
        """(field gen, power) with g = gen**power."""
        u = _exponent(g)
        if u is not None:
            c, m = u.as_coeff_Mul(rational=True)
            q = self._exp_den[m]
            return sp.exp(m / q), int(c * q)
        return g, 1

    def _placed(self, gens: tuple, polys) -> _El:
        """The element of num/den polynomials over `gens`."""
        if any(g not in self._gens for g in gens):
            raise _Unplaced
        return self.K.quotient(*(self._moved(p, gens) for p in polys))

    def _moved(self, p, gens: tuple) -> dict:
        """The coefficient map of a polynomial over `gens`, placed monomial by
        monomial into the field's ring: an exp gen is a power of the shared
        gen exp(m/q)."""
        slots = [(self._index[base], k) for base, k in map(self._shared, gens)]
        d = {}
        for monom, coeff in p.items():
            e = [0] * self.K.ngens
            for (i, k), j in zip(slots, monom):
                e[i] += k * j
            e = tuple(e)
            d[e] = d.get(e, 0) + coeff
        return d

    # -- conversion ---------------------------------------------------------------

    def element(self, n: sp.Expr):
        """The element equal to the normal form `n`, its gens read by sympy's
        `sring`: a tree's element for the exact routes (`Expr._element`), and
        the tree route that `fold` is checked against."""
        ring, polys = sring(n.as_numer_denom(), domain=QQ)
        try:
            return self._placed(ring.symbols, polys)
        except _Unplaced:
            self._grow(set(ring.symbols))
            return self._placed(ring.symbols, polys)

    def fold(self, s: sp.Expr):
        """The element of a sympy tree, folded through the field's arithmetic;
        the field grows first if the tree carries a gen it lacks.  A tree that
        is singular (zoo, nan, or a divisor that is zero in the field) raises
        ExprError naming it."""
        try:
            try:
                return self._fold(s)
            except _Unplaced:
                self._grow(self._gens_of([s]))
                return self._fold(s)
        except ZeroDivisionError:
            raise _singular(s) from None

    def _fold(self, s: sp.Expr):
        if s.is_Symbol:
            i = self._index.get(s)
            if i is None:
                raise _Unplaced
            return self.K.gens[i]
        if s.is_Rational:
            return self.K.constant(_Q(s.p, s.q))
        if s.is_Add:
            return self._sum([self._fold(a) for a in s.args])
        if s.is_Mul:
            return self._product([self._fold(a) for a in s.args])
        if s.is_Pow and s.exp.is_Integer:
            return self._fold(s.base) ** int(s.exp)
        el = self._leaf_el.get(s)  # zoo and nan end here: _leaf rejects them
        if el is None:
            _, gens, polys = self._leaf(s)
            el = self._leaf_el[s] = self._placed(gens, polys)
        return el

    def _sum(self, terms: list) -> _El:
        """Terms over one denominator add as polynomials over ZZ, scaled to
        the common denominator of their rationals; the groups are then summed
        across denominators."""
        K, groups = self.K, {}
        for f in terms:
            if f:
                groups.setdefault(frozenset(f.e.items()), []).append(f)
        out = K.zero
        for group in groups.values():
            L = math.lcm(*(f.c.denominator for f in group))
            t = sum((f.num.mul_ground(f.c.numerator * (L // f.c.denominator)) for f in group),
                    K.ring.zero)
            out = out + K.new(_Q(1, L), t, group[0].e)
        return out

    def _product(self, factors: list) -> _El:
        """Factors with no denominator multiply as polynomials; the others
        follow one by one."""
        K = self.K
        num, c, rest = K.ring.one, _Q(1), []
        for f in factors:
            if not f:
                return K.zero
            if f.e:
                rest.append(f)
            else:
                num, c = num * f.num, c * f.c
        out = _El(K, c, num, {})
        for f in rest:
            out = out * f
        return out

    def convert(self, s: sp.Expr):
        """(display, element) of a sympy tree.  The display is an Expr that
        holds the element; its tree, the element's view, is made on first
        read.  The view equals `normalize(s)`, or `normalize(normalize(s))`
        where normalize is not idempotent on s (an exp of a sum with a
        negative part: sympy's cancel turns exp(x z - y) into exp(-y) exp(x z)
        and a second pass moves exp(-y) into the denominator)."""
        el = self.fold(s)
        return self.expr(el), el

    def convert_all(self, trees: Sequence[sp.Expr]) -> list:
        """`convert` over a batch, the field grown once for all of it."""
        self._grow(self._gens_of(trees))
        return [self.convert(s) for s in trees]

    def held(self, nest) -> _Memo:
        """A memo of the current field's elements (nested in lists or tuples),
        as `run` returns them, kept beside that field, so that `up` reads it
        back at no cost until the field grows."""
        return _Memo(self.K, nest)

    def up(self, obj):
        """Elements (nested in lists or tuples) moved into the current field:
        an older element's numerator and base polynomials are placed over the
        current gens (`_moved`), so no view is made and no leaf normalized.
        A memo (`held`) of the current field is its nest as it is; one of an
        older field has every leaf moved, once, and then holds the moved
        nest.  Any other nest is walked leaf by leaf."""
        K = self.K
        if isinstance(obj, _Memo):
            if obj.K is not K:
                obj.value, obj.K = self.up(obj.value), K
            return obj.value
        if isinstance(obj, (list, tuple)):
            return type(obj)(self.up(v) for v in obj)
        old = obj.field
        if old is K:
            return obj

        def placed(p) -> _El:
            return K.new(_Q(1), K.ring.from_dict(self._moved(p, old.symbols)), {})

        out = placed(obj.num) * obj.c
        for i, k in obj.e.items():
            out = out / placed(old.base[i]) ** k
        return out

    @staticmethod
    def view(el: _El) -> sp.Expr:
        """The tree of an element, in the canonical form of `normalize`."""
        return el.as_expr()

    @staticmethod
    def expr(el: _El) -> "Expr":
        """An Expr that holds el; its tree, el's view, is made on first read."""
        e = object.__new__(Expr)
        e._s = e._norm = None
        e._el = e._exact = el
        return e

    # -- differentiation ------------------------------------------------------------

    def _d_gen(self, i: int, v: sp.Symbol):
        """D_v of gen i: the chain rule for exp, log, sin, cos; sympy's
        derivative for any other function of v (an undefined function, say),
        growing the field when that derivative is a new gen."""
        key = (i, v)
        if key not in self._chains:
            g = self.K.symbols[i]
            d = self.K.zero
            if g == v:
                d = self.K.one
            elif v not in g.free_symbols:
                pass
            elif isinstance(g, _KERNEL_CLASSES):
                u = g.args[0]
                du = self.diff(self.fold(u), v)
                if isinstance(g, sp.exp):
                    d = self.K.gens[i] * du
                elif isinstance(g, sp.log):
                    d = du / self.fold(u)
                elif isinstance(g, sp.sin):
                    d = self.fold(sp.cos(u)) * du
                else:
                    d = -self.fold(sp.sin(u)) * du
            else:
                K = self.K
                d = self.fold(sp.diff(g, v))
                if self.K is not K:
                    raise _FieldGrew
            self._chains[key] = d
        return self._chains[key]

    def run(self, fn: Callable):
        """fn() computed in this field: restarted when the field grows under it
        (fn reads its inputs through `up`)."""
        while True:
            K = self.K
            try:
                out = fn()
            except _FieldGrew:
                continue
            if self.K is K:
                return out

    def diff(self, f: _El, v: sp.Symbol) -> _El:
        """D_v f = sum over gens g of (df/dg) D_v g: the chain rule through the
        kernel gens (`_by_chain`).  D_x ((x y + x + 1) / (y + 1)) = 1."""
        if not f:
            return f
        return self._by_chain(f, self._chain(f, v))

    def _chain(self, f: _El, v: sp.Symbol) -> list:
        """(i, D_v g_i) over the gens f uses whose derivative is nonzero."""
        return [(i, d) for i in self.K.used(f) if (d := self._d_gen(i, v))]

    def derivation(self, pairs: Iterable[tuple]) -> "_Derivation":
        """The vector field D = sum_v w_v d/dv of (symbol v, element or
        rational w_v) pairs, applied to elements by `along`."""
        K = self.K
        return _Derivation(K, {v: w if type(w) is _El else K.constant(w)
                               for v, w in pairs if w})

    def along(self, f: _El, D: "_Derivation") -> _El:
        """D f = sum_v w_v D_v f in one pass of the chain rule (`_by_chain`):
        D g_i = sum_v w_v D_v g_i is formed once per gen and kept on D, and
        only for the gens f uses, so the field grows exactly where `diff`
        along each v would grow it.  (Filled for every gen at once, it would
        not terminate on an undefined function: each derivative is a new gen,
        which needs a derivative of its own.)  A D made before the field grew
        restarts `run`."""
        if D.K is not self.K:
            raise _FieldGrew
        if not f:
            return f
        return self._by_chain(f, [(i, d) for i in self.K.used(f) if (d := self._entry(D, i))])

    def _entry(self, D: "_Derivation", i: int) -> _El:
        """D g_i: w_g itself for a symbol gen g, sum_v w_v D_v g_i (`_d_gen`)
        for a kernel gen."""
        d = D.chain.get(i)
        if d is None:
            K = self.K
            g = K.symbols[i]
            if g.is_Symbol:
                d = D.weights.get(g, K.zero)
            else:
                d = K.zero
                for v, w in D.weights.items():
                    dg = self._d_gen(i, v)
                    if dg:
                        d = d + w * dg
            D.chain[i] = d
        return d

    def _by_chain(self, f: _El, chain: list) -> _El:
        """D f for a nonzero f, from the chain (i, D g_i) over the gens f uses
        whose derivative is nonzero.  With f = c N / prod b_i^e_i and
        P = prod b_i over the b_i in f's denominator,
            D f = c (D N P - N S) / (P prod b_i^e_i),
            S = sum of e_i D b_i P / b_i,
        formed over ZZ by `_diff_by_polynomials`.  Nothing is inverted, so no
        polynomial enters the base.

        A chain whose entries carry denominators (the frame of a tetrad, D
        log(u) = D u / u, a kernel of a rational argument) is cleared once:
        with Q the exponent maximum over those entries, Q D is a derivation
        with polynomial entries, and D f = (Q D f) / Q.  A polynomial f whose
        chain is one gen with a constant derivative (a chart symbol that no
        kernel gen of f depends on) is c d N/dg_i scaled by that constant: one
        `PolyElement.diff` and one `new`."""
        K = self.K
        if not chain:
            return K.zero
        if not f.e and len(chain) == 1:
            (i, d), = chain
            if not d.e and d.num.is_ground:
                return K.new(f.c * d.c, f.num.diff(i), {})
        Q: dict = {}
        for _, d in chain:
            for i, k in d.e.items():
                if k > Q.get(i, 0):
                    Q[i] = k
        if not Q:
            return self._diff_by_polynomials(f, chain)
        cleared = [(i, _El(K, d.c, K._raised(d.num, d.e, Q), {})) for i, d in chain]
        return K.mul(self._diff_by_polynomials(f, cleared), _El(K, _Q(1), K.ring.one, Q))

    def _diff_by_polynomials(self, f: _El, chain: list) -> _El:
        """D f for a chain of polynomial elements c_i M_i: with L the common
        denominator of the c_i, L D is a derivation of ZZ[gens], and
        T = L c (D N P - N S) is formed over ZZ and reduced by one `new`.

        Modulo b_i, T is -N e_i D(b_i) P / b_i, and b_i divides neither N
        (lowest terms) nor P / b_i (a pairwise coprime base); b_i is
        irreducible, so b_i divides T exactly when it divides D b_i.  A gen
        is trial-divided as it is (a monomial shift); any other b_i only when
        D b_i = 0, or when D b_i has at least b_i's total degree and leaves
        no remainder.  The others keep e_i + 1."""
        K = self.K
        L = math.lcm(*(d.c.denominator for _, d in chain))
        weights = []
        for i, d in chain:
            m = d.c.numerator * (L // d.c.denominator)
            weights.append((i, d.num if m == 1 else d.num.mul_ground(m)))

        def D(p):  # L D p over ZZ
            out = K.ring.zero
            for i, w in weights:
                dp = p.diff(i)
                if dp:
                    out += w * dp
            return out

        if not f.e:
            return K.new(f.c / L, D(f.num), {})
        S, cancel = K.ring.zero, []
        for i, k in f.e.items():
            b = K.base[i]
            Db = D(b)
            if i < K.ngens or not Db or (_degree(Db) >= _degree(b) and not Db.rem(b)):
                cancel.append(i)
            if Db:
                t = Db * K.expand({j: 1 for j in f.e if j != i})
                S += t if k == 1 else t.mul_ground(k)
        T = D(f.num) * K.expand(dict.fromkeys(f.e, 1)) - f.num * S
        return K.new(f.c / L, T, {i: k + 1 for i, k in f.e.items()}, cancel)


class _Derivation:
    """A vector field D = sum_v w_v d/dv over one field's elements
    (`Field.derivation`): its weights by symbol, and the chain D g_i for the
    gens `Field.along` has met."""

    __slots__ = ("K", "weights", "chain")

    def __init__(self, K: _Elements, weights: dict):
        self.K, self.weights, self.chain = K, weights, {}


class Expr:
    """Immutable expression; arithmetic is lazy, normalization is cached.

    An Expr made by a field (`Field.expr`) holds its element and makes its
    tree, the element's view, on first read of `sym` or `normal`.  A view is
    zero exactly when its element is, so `is_zero` proves such an Expr zero
    without a tree.  A tree gets an element only when an exact route asks for
    one (`_element`)."""

    __slots__ = ("_s", "_norm", "_el", "_exact")

    def __init__(self, raw):
        if isinstance(raw, Expr):
            self._s, self._norm, self._el, self._exact = raw._s, raw._norm, raw._el, raw._exact
            return
        self._el = self._exact = None
        if isinstance(raw, Fraction):
            self._s = sp.Rational(raw.numerator, raw.denominator)
        elif isinstance(raw, int):
            self._s = sp.Integer(raw)
        elif isinstance(raw, sp.Expr):
            self._s = raw
        elif isinstance(raw, str):
            self._s = parse(raw)._s
        else:
            raise ExprError(f"cannot build Expr from {type(raw).__name__}")
        _check_finite(self._s)
        self._norm = None

    # -- normal form --------------------------------------------------------

    @property
    def el(self):
        """The field element this Expr holds, or None for a tree."""
        return self._el

    @property
    def sym(self) -> sp.Expr:
        """Underlying sympy expression (not necessarily normalized); for an
        Expr that holds an element, its view."""
        return self.normal if self._s is None else self._s

    @property
    def normal(self) -> sp.Expr:
        """Canonical num/den rational form over symbols and kernel subterms."""
        if self._norm is None:
            if self._el is not None:
                self._s = self._norm = Field.view(self._el)
            else:
                n = normalize(self._s)
                _check_finite(n, "normal form")
                self._norm = n
        return self._norm

    def _element(self) -> _El:
        """The element the exact routes read: the one this Expr holds, or a
        tree's normal form placed by `Field.element`, made on first call and
        kept.  The normal form is memoized and is what the float routes
        sample; a fold of the tree would normalize its kernel leaves again."""
        if self._exact is None:
            self._exact = Field().element(self.normal)
        return self._exact

    def is_proven_zero(self) -> bool:
        if self._el is not None:
            return not self._el
        return self.normal is sp.S.Zero or self.normal == 0

    # -- structure -----------------------------------------------------------

    def free_symbols(self) -> set[str]:
        return {s.name for s in self.sym.free_symbols}

    def diff(self, var: "str | Expr", order: int = 1) -> "Expr":
        return differentiate(self, var, order)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> sp.Expr:
        if isinstance(other, Expr):
            return other.sym
        if isinstance(other, (int, Fraction)):
            return Expr(other).sym
        raise ExprError(f"cannot combine Expr with {type(other).__name__}")

    def __add__(self, other):
        return Expr(self.sym + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Expr(self.sym - self._coerce(other))

    def __rsub__(self, other):
        return Expr(self._coerce(other) - self.sym)

    def __mul__(self, other):
        return Expr(self.sym * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = self._coerce(other)
        if d is sp.S.Zero or d == 0:
            raise ExprError("division by zero expression")
        return Expr(self.sym / d)

    def __rtruediv__(self, other):
        if self.sym == 0:
            raise ExprError("division by zero expression")
        return Expr(self._coerce(other) / self.sym)

    def __neg__(self):
        return Expr(-self.sym)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("powers must be integer literals")
        base = self.sym
        if n <= 0:
            if sp.cancel(base) == 0:
                raise ExprError(f"zero base with non-positive exponent {n}")
        return Expr(sp.Pow(base, sp.Integer(n)))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        """Structural equality of normal forms.  A bare sympy tree is an
        error, not False: compare `Expr(tree)` or `.normal`."""
        if isinstance(other, (Expr, int, Fraction)):
            return self.normal == _as_expr(other).normal
        if isinstance(other, sp.Basic):
            raise TypeError("compare an Expr with Expr(tree) or .normal, not a sympy tree")
        return NotImplemented

    def __hash__(self):
        return hash(self.normal)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"Expr({to_text(self)!r})"


def _as_expr(e) -> Expr:
    """e itself when it is an Expr, so that the tree it makes is kept."""
    return e if isinstance(e, Expr) else Expr(e)


# -- constructors -------------------------------------------------------------


def symbols(names: str | Sequence[str]) -> list[Expr]:
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    out = []
    for n in names:
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", n):
            raise ExprError(f"invalid symbol name {n!r}")
        out.append(Expr(sp.Symbol(n)))
    return out


# -- parser --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for:  + -  |  * /  |  unary -  |  ^ (int literals, right)."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self) -> sp.Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> sp.Expr:
        e = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "/":
                    if rhs == 0:
                        raise ParseError("division by zero", off)
                    e = e / rhs
                else:
                    e = e * rhs
            else:
                return e

    def unary(self) -> sp.Expr:
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> sp.Expr:
        base = self.atom()
        kind, val, off = self.peek()
        if not (kind == "op" and val == "^"):
            return base
        exps: list[int] = []
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "^":
                self.next()
                exps.append(self.int_literal())
            else:
                break
        n = exps[-1]
        for m in reversed(exps[:-1]):  # right-associative integer fold
            if n < 0 and m == 0:
                raise ParseError("0^negative in exponent chain", off)
            n = m ** n
        if n <= 0 and sp.cancel(base) == 0:
            raise ParseError(f"zero base with exponent {n}", off)
        return sp.Pow(base, sp.Integer(n))

    def int_literal(self) -> int:
        kind, val, off = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, off = self.peek()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", off)
        self.next()
        return sign * int(val)

    def atom(self) -> sp.Expr:
        kind, val, off = self.next()
        if kind == "int":
            return sp.Integer(int(val))
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in _KERNELS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                if val == "log" and arg == 0:
                    raise ParseError("log of zero", off)
                return _KERNELS[val](arg)
            return sp.Symbol(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text: str) -> Expr:
    """Parse an expression string and return the normalized Expr."""
    s = _Parser(text).parse()
    e = Expr(s)
    e.normal  # force; surfaces singular input immediately
    return e


# -- printer -------------------------------------------------------------------


def _print_sym(s: sp.Expr, prec: int = 0) -> str:
    # prec levels: 0 add, 1 mul, 2 unary minus operand, 3 power base/atom
    if s.is_Integer:
        out = str(s)
        return f"({out})" if s < 0 and prec >= 1 else out
    if s.is_Rational:
        out = f"{s.p}/{s.q}"
        return f"({out})" if (s < 0 and prec >= 1) or prec >= 3 else out
    if s.is_Symbol:
        return s.name
    if isinstance(s, _KERNEL_CLASSES):
        return f"{type(s).__name__}({_print_sym(s.args[0])})"
    if s.is_Pow:
        base, expo = s.as_base_exp()
        if expo.is_Integer:
            return f"{_print_sym(base, 3)}^{int(expo)}"
        raise ExprError(f"cannot print non-integer power {s}")
    if s.is_Add:
        parts = []
        for a in sp.Add.make_args(s):
            if a.could_extract_minus_sign():
                parts.append(" - " + _print_sym(-a, 1))
            else:
                parts.append(" + " + _print_sym(a, 1))
        out = "".join(parts)
        out = out[3:] if out.startswith(" + ") else "-" + out[3:]
        return f"({out})" if prec >= 1 else out
    if s.is_Mul:
        coeff, rest = s.as_coeff_Mul()
        num_parts, den_parts = [], []
        for f in sp.Mul.make_args(rest):
            base, expo = f.as_base_exp()
            if expo.is_Integer and expo < 0:
                den_parts.append(_print_sym(sp.Pow(base, -expo), 3 if expo != -1 else 1))
            else:
                num_parts.append(_print_sym(f, 1))
        sign = ""
        if coeff.is_negative:
            sign = "-"
            coeff = -coeff
        if coeff != 1 or not num_parts:
            if coeff.q != 1 and den_parts:
                num_parts.insert(0, str(coeff.p))
                den_parts.insert(0, str(coeff.q))
            else:
                num_parts.insert(0, _print_sym(coeff, 1))
        num = "*".join(num_parts) if num_parts else "1"
        out = num if not den_parts else f"{num}/" + "/".join(
            p if not p.startswith("(") else p for p in den_parts
        )
        out = sign + out
        return f"({out})" if prec >= 1 and sign else out
    raise ExprError(f"cannot print expression node {type(s).__name__}: {s}")


def to_text(e: Expr) -> str:
    """Grammar-conforming text; parse(to_text(e)) has the same normal form."""
    return _print_sym(_as_expr(e).normal)


# -- differentiation -------------------------------------------------------------


def differentiate(e: Expr, var: str | Expr, order: int = 1) -> Expr:
    if isinstance(var, Expr):
        if not var.sym.is_Symbol:
            raise ExprError("differentiation variable must be a symbol")
        v = var.sym
    else:
        v = sp.Symbol(var)
    return Expr(sp.diff(Expr(e).sym, v, order))


# -- assignments and evaluation ---------------------------------------------------


class Assignment(dict):
    """Map from symbol name to exact rational or float value."""

    def __init__(self, values: Mapping[str, Number] | Iterable[tuple[str, Number]] = ()):
        super().__init__()
        items = values.items() if isinstance(values, Mapping) else values
        for k, v in items:
            if k in self:
                raise ExprError(f"duplicate assignment for {k!r}")
            if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
                raise ExprError(f"assignment value for {k!r} must be rational or float")
            self[k] = v

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values())

    @classmethod
    def parse(cls, text: str) -> "Assignment":
        """Parse "x=1, y=-2/3, z=0.5" style point specifications."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ExprError(f"bad assignment chunk {chunk!r}")
            name, val = chunk.split("=", 1)
            name, val = name.strip(), val.strip()
            try:
                if "." in val or "e" in val or "E" in val:
                    pairs.append((name, float(val)))
                else:
                    pairs.append((name, Fraction(val)))
            except (ValueError, ZeroDivisionError) as ex:
                raise ExprError(f"bad value {val!r} for {name!r}: {ex}") from ex
        return cls(pairs)


def _poly_at(p, x: Mapping[int, int | Fraction]) -> Fraction:
    """A polynomial over ZZ at the point x (gen index -> value), summed over
    one common denominator: an integer per term and one gcd at the end.
    sympy's own `p(*values)` evaluates gen by gen through smaller rings and
    takes about 7 times as long on Sparling-Tod's Weyl spinor."""
    degs = p.degrees()
    powers, scale = {}, 1
    for i, v in x.items():
        d = degs[i]
        if d > 0:
            n, q = v.numerator, v.denominator
            powers[i] = [n**e * q**(d - e) for e in range(d + 1)]
            scale *= q**d
    total = 0
    for monom, t in p.items():
        for i, row in powers.items():
            t *= row[monom[i]]
        total += t
    return Fraction(total, scale)


def _symbol_gens(el: _El) -> list | None:
    """The indices of the gens el uses when every one is a symbol, so that el
    lives in Q(x_1, ..., x_n); None when one is a kernel, E or an undefined
    function."""
    K = el.field
    used = K.used(el)
    return used if all(K.symbols[i].is_Symbol for i in used) else None


# compiled float code: an evaluator keyed (tree, names) and a zero-test rule
# keyed (numerator terms, denominator terms, names); past the cap the oldest
# go.  The cap is above the working sets measured in one process: 3
# evaluators and 4 rules for the seeded point queries (set-up and 50
# passes), 6 rules for report-all over the 7 models.  The tier-1 suite
# compiles 74 evaluators besides the 512 of its cap test, and 412 rules, so
# it evicts.
_lambdify_cache: dict = {}
_LAMBDIFY_CAP = 256


def _compiled(s: sp.Expr, names: tuple[str, ...]):
    """s lambdified over the names, kept in `_lambdify_cache`; a gen with no
    float value raises ExprError on a miss (`_check_samplable`)."""
    key = (s, names)
    fn = _lambdify_cache.get(key)
    if fn is None:
        _check_samplable((s,))
        fn = _remember(_lambdify_cache, key,
                       sp.lambdify([sp.Symbol(n) for n in names], s, modules="math"),
                       _LAMBDIFY_CAP)
    return fn


def _normal_names(e: Expr) -> set[str]:
    """The symbols of e's normal form: a symbol that cancels is not sampled."""
    return {s.name for s in e.normal.free_symbols}


def evaluate(e: Expr, a: Assignment | Mapping[str, Number]) -> Fraction | float:
    """Exact rational result at a rational point for an expression in
    Q(x_1, ..., x_n); float otherwise.

    At an exact point where every gen e's element (`Expr._element`) uses is
    a symbol: c N(x) / prod b_i(x)^e_i, each polynomial evaluated over Q and
    the denominator never expanded, the gens and the base the element's own
    field's (which may be older than the field that made it).  Every other
    case (a kernel gen, E, an undefined function, a float point) takes the
    compiled float route on e's normal form."""
    e = _as_expr(e)
    if not isinstance(a, Assignment):
        a = Assignment(a)
    if a.is_exact():
        el = e._element()
        used = _symbol_gens(el)
        if used is not None:
            K = el.field
            missing = {K.symbols[i].name for i in used} - set(a)
            if missing:
                raise EvalError(f"unassigned symbols: {sorted(missing)}")
            x = {i: a[K.symbols[i].name] for i in used}
            den = Fraction(el.c.denominator)
            for i, k in el.e.items():
                den *= _poly_at(K.base[i], x) ** k
            if not den:
                raise EvalError("division by zero at the point")
            return el.c.numerator * _poly_at(el.num, x) / den
    names = tuple(sorted(_normal_names(e)))
    missing = set(names) - set(a)
    if missing:
        raise EvalError(f"unassigned symbols: {sorted(missing)}")
    fn = _compiled(e.normal, names)
    try:
        out = fn(*[float(a[n]) for n in names])
    except ZeroDivisionError as ex:
        raise EvalError(f"evaluation failed at the point: {ex}") from ex
    except OverflowError as ex:
        raise EvalError("evaluation overflowed the double range at the point") from ex
    except ValueError as ex:
        raise EvalError(f"domain error at the point (log of non-positive?): {ex}") from ex
    if isinstance(out, complex) or math.isnan(out) or math.isinf(out):
        raise EvalError("evaluation produced a non-finite value")
    return out


# -- randomized zero testing ------------------------------------------------------


@dataclass(frozen=True)
class SampleConfig:
    """How `is_zero` samples; count < 1 or a negative, inf or nan tolerance raises."""

    count: int = 50
    seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.count < 1:
            raise ExprError(f"sample count must be at least 1, got {self.count}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ExprError(f"tolerance must be finite and non-negative, got {self.tolerance}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a zero test: proven_zero, sampled_zero, or nonzero."""

    kind: str
    witness: Assignment | None = None
    value: float | None = None

    def is_zero(self) -> bool:
        return self.kind in ("proven_zero", "sampled_zero")

    def __bool__(self) -> bool:
        return self.is_zero()

    @staticmethod
    def proven() -> "Verdict":
        return Verdict("proven_zero")

    @staticmethod
    def sampled() -> "Verdict":
        return Verdict("sampled_zero")

    @staticmethod
    def nonzero(witness: Assignment, value: float) -> "Verdict":
        return Verdict("nonzero", witness, value)

    def __str__(self):
        if self.kind != "nonzero":
            return self.kind
        pt = ", ".join(f"{k}={v}" for k, v in (self.witness or {}).items())
        return f"nonzero (value {self.value:.3e} at {pt})"


def _draws(n: int, seed: int, bound: int = 97) -> Iterator[list[tuple[int, int]]]:
    """The one seeded stream: per point, n (numerator, denominator) integer
    pairs, |numerator| and denominator in 1..bound, each drawn from
    `random.Random(seed)` as numerator, denominator and sign.  An integer is
    1 + r for the first r = getrandbits(k) below bound, k = bound's bit
    length: the arithmetic of CPython's randint(1, bound), so the stream is
    randint's bit for bit (`tests/test_expr.py::test_draws_reproduce_randint`).
    The sign is + when random() < 0.5.  The float of a pair is p / q, the
    same double as float(Fraction(p, q)): int true division is correctly
    rounded."""
    rng = random.Random(seed)
    bits, rand = rng.getrandbits, rng.random
    k = bound.bit_length()
    while True:
        pairs = []
        for _ in range(n):
            p = bits(k)
            while p >= bound:
                p = bits(k)
            q = bits(k)
            while q >= bound:
                q = bits(k)
            pairs.append((p + 1 if rand() < 0.5 else -1 - p, q + 1))
        yield pairs


def _point(names: Sequence[str], pairs: list[tuple[int, int]]) -> Assignment:
    return Assignment({nm: Fraction(p, q) for nm, (p, q) in zip(names, pairs)})


def random_points(names: Sequence[str], seed: int,
                  bound: int = 97) -> Iterator[Assignment]:
    """The one sampler's points, each an Assignment of the Fractions p/q of
    one draw of `_draws`: the spinor and twistor callers read these, while
    `is_zero` evaluates the draws as floats and makes an Assignment only for
    a witness."""
    for pairs in _draws(len(names), seed, bound):
        yield _point(names, pairs)


# lambdify(modules="math")'s own printer and math names: each term a rule
# computes is the code, so the double, that lambdify makes of it
_PRINTER = PythonCodePrinter({"fully_qualified_modules": False, "inline": True,
                              "allow_unknown_functions": True, "user_functions": {}})
# the generated code's own names begin with "_", which no parsed symbol's does
_RULE_GLOBALS = {**{k: v for k, v in vars(math).items() if not k.startswith("_")},
                 "_abs": abs}


def _compiled_rule(terms: tuple, dterms: tuple, names: tuple[str, ...]) -> Callable:
    """is_zero's rule at one point, for a normal form's numerator terms and
    denominator terms over its sorted names: one generated function of the
    names' floats, kept in `_lambdify_cache`.  It returns None at a pole
    (|den| < 1e-3 max(1, sum |den terms|), or 1e-3 sum |den terms| for a
    denominator with no symbol), else (value, magnitude), the
    numerator's sum and sum of |terms| over den and |den|; each sum runs
    left to right as `sum` does, and a term may raise a POINT_ERROR.  The
    loop over lambdified term tuples it replaces is
    `tests/oracles.py::loop_is_zero`.  A gen with no float value (an
    undefined function or its derivative) raises ExprError before a rule is
    generated (`_check_samplable`)."""
    key = (terms, dterms, names)
    fn = _lambdify_cache.get(key)
    if fn is None:
        _check_samplable(terms + dterms)
        fn = _remember(_lambdify_cache, key, _generate_rule(terms, dterms, names),
                       _LAMBDIFY_CAP)
    return fn


def _check_samplable(trees: tuple) -> None:
    """Raise ExprError naming a gen that has no float value: an undefined
    function or a derivative of one, which the field keeps as a gen (jet
    coordinates) and no rule can print."""
    bad = set().union(*(t.atoms(sp.Derivative, sp.Subs) for t in trees))
    bad = bad or set().union(*(t.atoms(AppliedUndef) for t in trees))
    if bad:
        raise ExprError(f"cannot sample {min(bad, key=str)}: an undefined function "
                        "or its derivative has no numerical value")


def _generate_rule(terms: tuple, dterms: tuple, names: tuple[str, ...]) -> Callable:
    # lambdify's renaming of a name that is not a Python identifier
    args, both = _EvaluatorPrinter(_PRINTER)._preprocess(
        [sp.Symbol(m) for m in names], sp.Tuple(*terms, *dterms))
    code = [_PRINTER.doprint(t) for t in both]
    nums = [f"_n{j}" for j in range(len(terms))]
    dens = [f"_d{j}" for j in range(len(dterms))]
    src = [f"def _rule({', '.join(args)}):"]
    if dterms == (1,):  # |1| is never under 1e-3 * max(1, 1): no pole to reject
        dval = dabs = "1"
    else:
        dval, dabs = "_den", "_abs(_den)"
        src += [f"    {d} = {c}" for d, c in zip(dens, code[len(nums):])]
        src += [f"    _den = {' + '.join(dens)}",
                f"    _dmag = {' + '.join(f'_abs({d})' for d in dens)}"]
        # a denominator with no symbol takes the constant branch's floor, so
        # sin(1/1000) is no pole; any other max(1.0, m), spelled out as max
        # returns it
        floor = ("_dmag" if not any(t.free_symbols for t in dterms)
                 else "(_dmag if _dmag > 1.0 else 1.0)")
        src += [f"    if _abs(_den) < 1e-3 * {floor}:", "        return None"]
    src += [f"    {t} = {c}" for t, c in zip(nums, code)]
    src += [f"    return ({' + '.join(nums)}) / {dval}, "
            f"({' + '.join(f'_abs({t})' for t in nums)}) / {dabs}"]
    out: dict = {}
    exec(compile("\n".join(src), "<is_zero rule>", "exec"), _RULE_GLOBALS, out)
    return out["_rule"]


def _kernel_free(e: Expr) -> bool:
    """Whether e lives in Q(x_1, ..., x_n): every gen its element
    (`Expr._element`) uses is a symbol."""
    return _symbol_gens(e._element()) is not None


def _float(v: Fraction) -> float:
    """The nearest double of an exact rational; an infinity past the range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _exact_witness(e: Expr, names: tuple[str, ...], seed: int, limit: int) -> Verdict:
    """nonzero at the first of `limit` draws of the seeded stream where the
    exact denominator and the exact value of e (`evaluate`) are nonzero, for
    a kernel-free e that is not the zero element.  A nonzero polynomial of
    degree d vanishes on at most a d/|S| share of S^n (Schwartz, J. ACM 27
    (1980) 701-717), and the draws take 11,606 values per coordinate, so
    such a draw comes early; past `limit` the search raises ExprError."""
    draws = _draws(len(names), seed)
    for _ in range(limit):
        at = _point(names, next(draws))
        try:
            exact = evaluate(e, at)
        except EvalError:  # a pole
            continue
        if exact:
            return Verdict.nonzero(at, _float(exact))
    raise ExprError(f"exact zero test failed: no point in {limit} draws where the value "
                    "is defined and nonzero")


def is_zero(e: Expr, cfg: SampleConfig = SampleConfig()) -> Verdict:
    """proven_zero if e holds the zero element (no tree is made) or its normal
    form is 0.  Otherwise sample `count` seeded rational points, comparing
    |value| against tolerance * max(1, term magnitude); the first point past
    it is the witness of `nonzero`, and `sampled_zero` needs `count` regular
    points within 10 * count draws.

    A kernel-free e (its element, `Expr._element`, uses symbol gens alone)
    lives in Q(x_1, ..., x_n), where the normal form is canonical (Henrici,
    J. ACM 3 (1956) 6-9): a nonzero one is a nonzero function.  Where the
    sampler would read `sampled_zero` on it, or fail for want of regular
    points, the verdict is `nonzero` at the first draw of the
    same stream where e's exact denominator and value are nonzero, with the
    float of that exact value (`_exact_witness`).  A kernel-free constant is
    a nonzero rational and reads as itself.  Constants and expressions with
    kernels keep the float rule: sin^2 + cos^2 - 1 is a nonzero element that
    is the zero function."""
    e = _as_expr(e)
    if e.el is not None and not e.el:
        return Verdict.proven()
    n = e.normal
    if n == 0:
        return Verdict.proven()
    if n.is_Rational:
        return Verdict.nonzero(Assignment(), _float(Fraction(n.p, n.q)))
    names = tuple(sorted(_normal_names(e)))
    num, den = sp.fraction(n)
    terms = sp.Add.make_args(sp.expand_mul(num))
    dterms = sp.Add.make_args(sp.expand_mul(den))
    if not names:
        tvals = [float(t.evalf()) for t in terms]
        dvals = [float(t.evalf()) for t in dterms]
        dval = float(sum(dvals))
        # relative to the terms' own scale: sin(1/1000) is not numerically 0
        if not dval or abs(dval) < 1e-3 * sum(map(abs, dvals)):
            raise ExprError("sampling failed: the denominator of a constant is numerically 0")
        value = sum(tvals) / dval
        mag = sum(abs(t) for t in tvals) / abs(dval)
        if abs(value) <= cfg.tolerance * max(1.0, mag):
            return Verdict.sampled()
        return Verdict.nonzero(Assignment(), float(value))
    rule = _compiled_rule(terms, dterms, names)
    draws = _draws(len(names), cfg.seed)
    good = attempts = 0
    max_attempts = 10 * cfg.count
    while good < cfg.count and attempts < max_attempts:
        attempts += 1
        pairs = next(draws)
        try:
            at = rule(*[p / q for p, q in pairs])
        except POINT_ERRORS:
            continue
        if at is None:  # a pole
            continue
        value, mag = at
        if not (math.isfinite(value) and math.isfinite(mag)):
            continue
        if abs(value) > cfg.tolerance * max(1.0, mag):
            return Verdict.nonzero(_point(names, pairs), float(value))
        good += 1
    if _kernel_free(e):
        return _exact_witness(e, names, cfg.seed, max_attempts)
    if good < cfg.count:
        raise ExprError(f"sampling failed: could not find {cfg.count} regular points "
                        f"in {max_attempts} attempts")
    return Verdict.sampled()


def is_zero_all(exprs: Iterable[Expr], cfg: SampleConfig = SampleConfig()) -> Verdict:
    """Combined verdict over several expressions: proven only if all proven."""
    kinds = set()
    for e in exprs:
        v = is_zero(e, cfg)
        if not v.is_zero():
            return v
        kinds.add(v.kind)
    if kinds <= {"proven_zero"}:
        return Verdict.proven()
    return Verdict.sampled()
