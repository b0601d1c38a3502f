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
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import sring

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
    "integer",
    "rational",
    "exp",
    "log",
    "sin",
    "cos",
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


def normalize(s: sp.Expr) -> sp.Expr:
    """The one normal form: a single cancelled num/den over symbols and kernels."""
    return sp.cancel(sp.together(s))


def _check_finite(s: sp.Expr, context: str = "expression") -> sp.Expr:
    if s.has(*_BAD):
        raise ExprError(f"{context} is singular (division by zero or infinity)")
    return s


class _Frac(FracElement):
    """A field element whose sum and product follow Henrici when a denominator
    is more than a monomial: the gcds run on the denominators and on cross
    factors, never on the full products.  The result is the canonical form
    sympy's cancel gives; with monomial denominators sympy's own route, whose
    gcd is then cheap, is faster."""

    def _canon(f, p, q):
        if not p:
            return f.field.zero
        cp, p = p.primitive()
        cq, q = q.primitive()
        c = cp / cq
        p, q = p.mul_ground(c.numerator), q.mul_ground(c.denominator)
        if q.LC < 0:
            p, q = -p, -q
        return f.raw_new(p, q)

    def _peer(f, g) -> bool:
        """g is an element of f's field and one denominator is no monomial."""
        return (isinstance(g, _Frac) and (len(f.denom) > 1 or len(g.denom) > 1)
                and (g.field is f.field or g.field == f.field))

    def __add__(f, g):
        if not f._peer(g):
            return super().__add__(g)
        if not g:
            return f
        if not f:
            return g
        a, b, c, d = f.numer, f.denom, g.numer, g.denom
        if b == d:
            return f.new(a + c, b)
        h = b.gcd(d)
        b1, d1 = b.exquo(h), d.exquo(h)
        t = a * d1 + c * b1
        h2 = t.gcd(h)
        return f._canon(t.exquo(h2), b1 * d.exquo(h2))

    def __sub__(f, g):
        if not f._peer(g):
            return super().__sub__(g)
        return f + (-g)

    def __mul__(f, g):
        if not f._peer(g):
            return super().__mul__(g)
        if not f or not g:
            return f.field.zero
        a, b, c, d = f.numer, f.denom, g.numer, g.denom
        g1, g2 = a.gcd(d), c.gcd(b)
        return f._canon(a.exquo(g1) * c.exquo(g2), b.exquo(g2) * d.exquo(g1))

    def __truediv__(f, g):
        if not f._peer(g):
            return super().__truediv__(g)
        if not g:
            raise ZeroDivisionError
        return f * f._canon(g.denom, g.numer)


class _FracField(FracField):
    """FracField whose elements are _Frac."""

    def __new__(cls, symbols, domain, order=lex):
        obj = super().__new__(cls, symbols, domain, order)
        obj.dtype = _Frac(obj, obj.ring.zero).raw_new
        obj.zero = obj.dtype(obj.ring.zero)
        obj.one = obj.dtype(obj.ring.one)
        obj.gens = obj._gens()
        return obj


class _FieldGrew(Exception):
    """A derivative brought a gen its field lacked; the field has grown."""


class Field:
    """The sparse fraction field Q(gens) that one geometry's chain computes in.

    The gens are the given symbols plus whatever sympy's `sring` finds in the
    normal forms of the inputs (parameter symbols and kernel subterms), closed
    under differentiation: a kernel's argument is in the field, and sin(u)
    brings cos(u) and back.  sympy merges exp(m/2)^2 into exp(m), so every
    exp(c m) with the same m is a power of one gen exp(m/q).

    An element keeps coprime numerator and denominator over QQ with the
    denominator's leading coefficient positive in lex order over the gens as
    sympy's `_sort_gens` orders them, which is what `normalize` does to the
    same rational function; `view` returns that tree.  The field grows when an
    input carries a gen it lacks, and `up` moves older elements into it."""

    def __init__(self, symbols: Iterable[sp.Symbol] = (), trees: Iterable[sp.Expr] = ()):
        self._gens: set = set()
        self._exp_den: dict = {}  # m -> q of the shared gen exp(m/q)
        self.K = None
        self._grow(set(symbols), list(trees))

    # -- gens -------------------------------------------------------------------

    @staticmethod
    def _found_gens(n: sp.Expr) -> tuple:
        num, den = n.as_numer_denom()
        ring, _ = sring((num, den), domain=QQ)
        return ring.symbols

    def _grow(self, new: set, trees: list) -> None:
        for n in trees:
            new.update(self._found_gens(n))
        todo = [g for g in new if g not in self._gens]
        while todo:
            g = todo.pop()
            if g in self._gens:
                continue
            self._gens.add(g)
            if isinstance(g, _KERNEL_CLASSES):
                u = g.args[0]
                more = list(self._found_gens(normalize(u)))
                if isinstance(g, sp.sin):
                    more.append(sp.cos(u))
                elif isinstance(g, sp.cos):
                    more.append(sp.sin(u))
                todo += [h for h in more if h not in self._gens]
        for g in self._gens:
            if isinstance(g, sp.exp):
                c, m = g.args[0].as_coeff_Mul(rational=True)
                self._exp_den[m] = math.lcm(self._exp_den.get(m, 1), c.q)
        gens = {self._shared(g)[0] for g in self._gens}
        K = _FracField(_sort_gens(gens), QQ, lex)
        if self.K is not None and K == self.K:
            return
        self.K = K
        self._index = {g: i for i, g in enumerate(K.symbols)}
        self._chains: dict = {}

    def _shared(self, g: sp.Expr) -> tuple[sp.Expr, int]:
        """(field gen, power) with g = gen**power."""
        if isinstance(g, sp.exp):
            c, m = g.args[0].as_coeff_Mul(rational=True)
            q = self._exp_den[m]
            return sp.exp(m / q), int(c * q)
        return g, 1

    def _place(self, gens: tuple) -> list[tuple[int, int]]:
        out = []
        for g in gens:
            base, k = self._shared(g) if g in self._gens else (None, 0)
            if base not in self._index:
                self._grow(set(gens), [])
                return self._place(gens)
            out.append((self._index[base], k))
        return out

    # -- conversion ---------------------------------------------------------------

    def element(self, n: sp.Expr):
        """The element equal to the normal form `n`."""
        num, den = n.as_numer_denom()
        ring, polys = sring((num, den), domain=QQ)
        slots = self._place(ring.symbols)
        R = self.K.ring
        out = []
        for p in polys:
            d = {}
            for monom, coeff in p.items():
                e = [0] * R.ngens
                for (i, k), j in zip(slots, monom):
                    e[i] += k * j
                e = tuple(e)
                d[e] = d.get(e, 0) + coeff
            out.append(R.from_dict(d))
        return self.K.new(*out)

    def convert(self, s: sp.Expr):
        """(normal form, element) of a sympy tree: the one normalization an
        input pays on its way in."""
        n = normalize(s)
        return n, self.element(n)

    def up(self, obj):
        """Elements (nested in lists or tuples) moved into the current field."""
        if isinstance(obj, (list, tuple)):
            return type(obj)(self.up(v) for v in obj)
        if obj.field is self.K or obj.field == self.K:
            return obj
        return self.element(self.view(obj))

    @staticmethod
    def view(el) -> sp.Expr:
        """The tree of an element: a fixed point of `normalize`."""
        return el.as_expr()

    def expr(self, el) -> "Expr":
        return Expr._normal(self.view(el))

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
                du = self.diff(self.element(normalize(u)), v)
                if isinstance(g, sp.exp):
                    d = self.K.gens[i] * du
                elif isinstance(g, sp.log):
                    d = du / self.element(normalize(u))
                elif isinstance(g, sp.sin):
                    d = self.element(sp.cos(u)) * du
                else:
                    d = -self.element(sp.sin(u)) * du
            else:
                K = self.K
                d = self.element(normalize(sp.diff(g, v)))
                if self.K != K:
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
            if self.K == K:
                return out

    def diff(self, f, v: sp.Symbol):
        """D_v f = sum over gens g of (df/dg) D_v g: the chain rule through the
        kernel gens."""
        if not f:
            return f
        N, D = f.numer, f.denom
        chain = []
        for i, (dn, dd) in enumerate(zip(N.degrees(), D.degrees())):
            if dn or dd:
                d = self._d_gen(i, v)
                if d:
                    chain.append((i, d))
        if not chain:
            return self.K.zero
        if all(d.denom == 1 for _, d in chain):
            dN = sum((N.diff(i) * d.numer for i, d in chain), N.ring.zero)
            dD = sum((D.diff(i) * d.numer for i, d in chain), D.ring.zero)
            if not dD:
                return self.K.new(dN, D)
            # (N/D)' = (N' D/h - N D'/h) / (D D/h) with h = gcd(D, D'): the
            # repeated factors of D cancel before the final gcd
            h = D.gcd(dD)
            D1 = D.exquo(h)
            return self.K.new(dN * D1 - N * dD.exquo(h), D * D1)
        K = self.K
        dN = sum((K.new(N.diff(i)) * d for i, d in chain), K.zero)
        dD = sum((K.new(D.diff(i)) * d for i, d in chain), K.zero)
        return (dN * K.new(D) - K.new(N) * dD) / K.new(D * D)


class Expr:
    """Immutable expression; arithmetic is lazy, normalization is cached."""

    __slots__ = ("_s", "_norm")

    @classmethod
    def _normal(cls, s: sp.Expr) -> "Expr":
        """An Expr whose tree is already its normal form (a field view)."""
        e = object.__new__(cls)
        e._s = e._norm = s
        return e

    def __init__(self, raw):
        if isinstance(raw, Expr):
            self._s = raw._s
            self._norm = raw._norm
            return
        elif isinstance(raw, Fraction):
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
    def sym(self) -> sp.Expr:
        """Underlying sympy expression (not necessarily normalized)."""
        return self._s

    @property
    def normal(self) -> sp.Expr:
        """Canonical num/den rational form over symbols and kernel subterms."""
        if self._norm is None:
            n = normalize(self._s)
            _check_finite(n, "normal form")
            self._norm = n
        return self._norm

    def is_proven_zero(self) -> bool:
        return self.normal is sp.S.Zero or self.normal == 0

    # -- structure -----------------------------------------------------------

    def free_symbols(self) -> set[str]:
        return {s.name for s in self._s.free_symbols}

    def has_kernels(self) -> bool:
        return self._s.has(*_KERNEL_CLASSES)

    def substitute(self, mapping: Mapping[str, "Expr | Number"]) -> "Expr":
        subs = {sp.Symbol(k): Expr(v)._s if not isinstance(v, Expr) else v._s
                for k, v in mapping.items()}
        return Expr(self._s.subs(subs, simultaneous=True))

    def diff(self, var: "str | Expr", order: int = 1) -> "Expr":
        return differentiate(self, var, order)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> sp.Expr:
        if isinstance(other, Expr):
            return other._s
        if isinstance(other, (int, Fraction)):
            return Expr(other)._s
        raise ExprError(f"cannot combine Expr with {type(other).__name__}")

    def __add__(self, other):
        return Expr(self._s + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Expr(self._s - self._coerce(other))

    def __rsub__(self, other):
        return Expr(self._coerce(other) - self._s)

    def __mul__(self, other):
        return Expr(self._s * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = self._coerce(other)
        if d is sp.S.Zero or d == 0:
            raise ExprError("division by zero expression")
        return Expr(self._s / d)

    def __rtruediv__(self, other):
        if self._s == 0:
            raise ExprError("division by zero expression")
        return Expr(self._coerce(other) / self._s)

    def __neg__(self):
        return Expr(-self._s)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("powers must be integer literals")
        base = self._s
        if n <= 0:
            if sp.cancel(base) == 0:
                raise ExprError(f"zero base with non-positive exponent {n}")
        return Expr(sp.Pow(base, sp.Integer(n)))

    # -- comparison / display --------------------------------------------------

    def equals_normal(self, other: "Expr") -> bool:
        """Structural equality of normal forms."""
        return self.normal == Expr(other).normal

    def __eq__(self, other):
        if isinstance(other, (Expr, int, Fraction)):
            return self.equals_normal(Expr(other))
        return NotImplemented

    def __hash__(self):
        return hash(self.normal)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"Expr({to_text(self)!r})"


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


def integer(n: int) -> Expr:
    return Expr(int(n))


def rational(p: int, q: int) -> Expr:
    if q == 0:
        raise ExprError("malformed rational: zero denominator")
    return Expr(Fraction(p, q))


def _kernel(name: str, arg: Expr) -> Expr:
    if name == "log":
        if sp.cancel(arg._s) == 0:
            raise ExprError("log of zero expression")
    return Expr(_KERNELS[name](Expr(arg)._s))


def exp(arg: Expr) -> Expr:
    return _kernel("exp", arg)


def log(arg: Expr) -> Expr:
    return _kernel("log", arg)


def sin(arg: Expr) -> Expr:
    return _kernel("sin", arg)


def cos(arg: Expr) -> Expr:
    return _kernel("cos", arg)


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
    return _print_sym(Expr(e).normal)


# -- differentiation -------------------------------------------------------------


def differentiate(e: Expr, var: str | Expr, order: int = 1) -> Expr:
    if isinstance(var, Expr):
        if not var._s.is_Symbol:
            raise ExprError("differentiation variable must be a symbol")
        v = var._s
    else:
        v = sp.Symbol(var)
    return Expr(sp.diff(Expr(e)._s, v, order))


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


def _subs_exact(s: sp.Expr, a: Assignment) -> sp.Expr:
    subs = {sp.Symbol(k): sp.Rational(Fraction(v)) for k, v in a.items()}
    return s.subs(subs, simultaneous=True)


_lambdify_cache: dict = {}


def _compiled(s: sp.Expr, names: tuple[str, ...]):
    key = (s, names)
    fn = _lambdify_cache.get(key)
    if fn is None:
        fn = sp.lambdify([sp.Symbol(n) for n in names], s, modules="math")
        _lambdify_cache[key] = fn
    return fn


def evaluate(e: Expr, a: Assignment | Mapping[str, Number]) -> Fraction | float:
    """Exact rational result for kernel-free expressions at rational points;
    float otherwise."""
    e = Expr(e)
    if not isinstance(a, Assignment):
        a = Assignment(a)
    missing = e.free_symbols() - set(a)
    if missing:
        raise EvalError(f"unassigned symbols: {sorted(missing)}")
    if a.is_exact() and not e.has_kernels():
        v = _subs_exact(e.normal, a)
        if v.has(*_BAD):
            raise EvalError("division by zero at the point")
        if not v.is_Rational:
            v = sp.cancel(v)
        if not v.is_Rational:
            raise EvalError(f"exact evaluation did not produce a rational: {v}")
        return Fraction(int(v.p), int(v.q))
    names = tuple(sorted(e.free_symbols()))
    fn = _compiled(e.normal, names)
    try:
        out = fn(*[float(a[n]) for n in names])
    except (ZeroDivisionError, OverflowError) as ex:
        raise EvalError(f"evaluation failed at the point: {ex}") from ex
    except ValueError as ex:
        raise EvalError(f"domain error at the point (log of non-positive?): {ex}") from ex
    if isinstance(out, complex) or math.isnan(out) or math.isinf(out):
        raise EvalError("evaluation produced a non-finite value")
    return out


# -- randomized zero testing ------------------------------------------------------


@dataclass(frozen=True)
class SampleConfig:
    count: int = 50
    seed: int = 0
    tolerance: float = 1e-10


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


def _random_rational(rng: random.Random, bound: int) -> Fraction:
    num = rng.randint(1, bound)
    den = rng.randint(1, bound)
    sign = 1 if rng.random() < 0.5 else -1
    return Fraction(sign * num, den)


def random_points(names: Sequence[str], seed: int,
                  bound: int = 97) -> Iterator[Assignment]:
    """The one sampler: an endless seeded stream of rational points with
    numerators and denominators in 1..bound."""
    rng = random.Random(seed)
    while True:
        yield Assignment({nm: _random_rational(rng, bound) for nm in names})


def is_zero(e: Expr, cfg: SampleConfig = SampleConfig()) -> Verdict:
    """ProvenZero if the normal form is 0; else sample `count` seeded rational
    points, comparing |value| against tolerance * max(1, term magnitude)."""
    e = Expr(e)
    n = e.normal
    if n == 0:
        return Verdict.proven()
    names = tuple(sorted(e.free_symbols()))
    num, den = sp.fraction(n)
    terms = list(sp.Add.make_args(sp.expand_mul(num)))
    dterms = list(sp.Add.make_args(sp.expand_mul(den)))
    if not names:
        tvals = [float(t.evalf()) for t in terms]
        dval = float(sum(float(t.evalf()) for t in dterms))
        value = sum(tvals) / dval
        mag = sum(abs(t) for t in tvals) / abs(dval)
        if abs(value) <= cfg.tolerance * max(1.0, mag):
            return Verdict.sampled()
        return Verdict.nonzero(Assignment(), float(value))
    fnum = _compiled(sp.Tuple(*terms), names)
    fden = _compiled(sp.Tuple(*dterms), names)
    points = random_points(names, cfg.seed)
    good = 0
    attempts = 0
    max_attempts = 10 * cfg.count
    while good < cfg.count:
        attempts += 1
        if attempts > max_attempts:
            raise ExprError(
                f"sampling failed: could not find {cfg.count} regular points "
                f"in {max_attempts} attempts"
            )
        point = next(points)
        vals = [float(point[nm]) for nm in names]
        try:
            dparts = fden(*vals)
            dval = sum(dparts)
            dmag = sum(abs(p) for p in dparts)
            if abs(dval) < 1e-3 * max(1.0, dmag):
                continue
            parts = fnum(*vals)
            value = sum(parts) / dval
            mag = sum(abs(p) for p in parts) / abs(dval)
        except POINT_ERRORS:
            continue
        if any(math.isnan(x) or math.isinf(x) for x in (value, mag)):
            continue
        if abs(value) > cfg.tolerance * max(1.0, mag):
            return Verdict.nonzero(point, float(value))
        good += 1
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
