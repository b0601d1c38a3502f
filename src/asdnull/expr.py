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
from typing import Iterable, Iterator, Mapping, Sequence, Union

import sympy as sp

__all__ = [
    "Expr",
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


class Expr:
    """Immutable expression; arithmetic is lazy, normalization is cached."""

    __slots__ = ("_s", "_norm")

    def __init__(self, raw):
        if isinstance(raw, Expr):
            self._s = raw._s
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
        v = _subs_exact(e._s, a)
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
