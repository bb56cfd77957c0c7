"""Truncated Novikov scalars over an exact (or float) coefficient field.

A scalar is a finite sum  sum_i  a_i * T^{e_i}  with strictly increasing
rational exponents e_i and coefficients a_i in a coefficient field K.  Every
scalar carries a cutoff E: terms with exponent >= E have been discarded, and
the value is only meaningful modulo T^E.  Exponents may be negative (this is
the field of truncated universal Novikov series, not just the ring).

Exponents and cutoffs are kept in one canonical exact form: a Python ``int``
when the value is integral, a ``Fraction`` with denominator > 1 otherwise.
Both types may meet in one computation because equal values compare and
hash equal, and both carry ``.numerator``/``.denominator``.  The form keeps
the bookkeeping of constant scalars (all exponents 0) in machine-int
arithmetic; fractional exponents keep ``Fraction`` arithmetic.

Coefficient fields:

* ``Rationals``          -- exact Q, elements are ``fractions.Fraction``;
* ``QuadraticField(d)``  -- exact Q(sqrt d) for a square-free integer d
                            (d may be negative), elements are ``QuadExt``;
* ``FloatComplex(eps)``  -- complex floats, equality means ``abs(x-y) < eps``.

The valuation ``val`` of a nonzero scalar is its least exponent; ``val(0)`` is
``math.inf``.  It obeys  val(a*b) = val(a)+val(b)  and
val(a+b) >= min(val a, val b)  with equality when the valuations differ.

Inversion factors out the leading term and sums a geometric series.  If
val(a) = v, the inverse is guaranteed correct below exponent E - 2v (relative
precision is preserved; the result records that as its own cutoff).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, InsufficientCutoff, NotRepresentable

__all__ = [
    "QuadExt",
    "Rationals",
    "QuadraticField",
    "FloatComplex",
    "NovikovScalar",
    "parse_scalar",
    "format_scalar",
]


def _exact(x):
    """Canonical exact exponent: ``int`` if integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(d) of the quadratic extension Q(sqrt d).

    d is a square-free integer (possibly negative) shared by both operands of
    any arithmetic operation.  Supports mixed arithmetic with int / Fraction.
    """

    a: Fraction
    b: Fraction
    d: int

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise FieldMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("zero element of quadratic field")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __complex__(self):
        if self.d >= 0:
            return complex(float(self.a) + float(self.b) * math.sqrt(self.d))
        return complex(float(self.a), float(self.b) * math.sqrt(-self.d))

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s * k^2 with s square-free; returns (s, k).  n may be negative."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    k = 1
    s = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        if e % 2:
            s *= p
        p += 1 if p == 2 else 2
    s *= n
    return sign * s, k


class Rationals:
    """Exact rational coefficient field; elements are Fraction."""

    kind = "q"

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, QuadExt) and x.b == 0:
            return x.a
        raise NotRepresentable(f"cannot coerce {x!r} into Q")

    def is_zero(self, x) -> bool:
        return x == 0

    def eq(self, x, y) -> bool:
        return x == y

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverting 0 in Q")
        return 1 / Fraction(x)

    def sqrt(self, x):
        return _fraction_sqrt(Fraction(x))

    def embed_complex(self, x) -> complex:
        return complex(float(x))

    def format(self, x) -> str:
        return str(x)


class QuadraticField:
    """Q adjoin sqrt(d), d a square-free integer (possibly negative)."""

    kind = "q-sqrt"

    def __init__(self, d: int):
        s, k = _squarefree_decompose(d)
        if k != 1 or s in (0, 1):
            raise ValueError(f"d must be square-free and not 0 or 1, got {d}")
        self.d = d

    def __repr__(self):
        return f"QuadraticField({self.d})"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self):
        return hash(("q-sqrt", self.d))

    @property
    def zero(self):
        return QuadExt(Fraction(0), Fraction(0), self.d)

    @property
    def one(self):
        return QuadExt(Fraction(1), Fraction(0), self.d)

    @property
    def root(self):
        """The element sqrt(d)."""
        return QuadExt(Fraction(0), Fraction(1), self.d)

    def coerce(self, x):
        if isinstance(x, QuadExt):
            if x.d != self.d:
                raise FieldMismatch(f"sqrt({x.d}) element in Q(sqrt {self.d})")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(Fraction(x), Fraction(0), self.d)
        raise NotRepresentable(f"cannot coerce {x!r} into Q(sqrt {self.d})")

    def is_zero(self, x) -> bool:
        return not x

    def eq(self, x, y) -> bool:
        return self.coerce(x) == self.coerce(y)

    def invert(self, x):
        return self.coerce(x).inverse()

    def sqrt(self, x):
        """Square root within the field when one exists, else None.

        Solves (p + q sqrt d)^2 = a + b sqrt d for rational p, q.
        """
        x = self.coerce(x)
        a, b, d = x.a, x.b, x.d
        if b == 0:
            r = _fraction_sqrt(a)
            if r is not None:
                return QuadExt(r, Fraction(0), d)
            if d > 0 or a <= 0:
                r = _fraction_sqrt(a / d)
                if r is not None:
                    return QuadExt(Fraction(0), r, d)
            return None
        # 2pq = b and p^2 + q^2 d = a: p^2 solves t^2 - a t + b^2 d/4 = 0.
        disc = a * a - b * b * d
        s = _fraction_sqrt(disc)
        if s is None:
            return None
        for t in ((a + s) / 2, (a - s) / 2):
            p = _fraction_sqrt(t)
            if p is not None and p != 0:
                q = b / (2 * p)
                if p * p + q * q * d == a:
                    return QuadExt(p, q, d)
        return None

    def embed_complex(self, x) -> complex:
        return complex(self.coerce(x))

    def format(self, x) -> str:
        x = self.coerce(x)
        tok = f"s{self.d}"
        if x.b == 0:
            return str(x.a)
        bpart = tok if x.b == 1 else (f"-{tok}" if x.b == -1 else f"{x.b}*{tok}")
        if x.a == 0:
            return bpart
        sign = " + " if x.b > 0 else " - "
        mag = bpart.lstrip("-") if x.b < 0 else bpart
        return f"({x.a}{sign}{mag})"


class FloatComplex:
    """Complex floats with an explicit equality tolerance eps."""

    kind = "float"

    def __init__(self, eps: float = 1e-9):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps

    def __repr__(self):
        return f"FloatComplex(eps={self.eps})"

    def __eq__(self, other):
        return isinstance(other, FloatComplex) and other.eps == self.eps

    def __hash__(self):
        return hash(("float", self.eps))

    @property
    def zero(self):
        return complex(0.0)

    @property
    def one(self):
        return complex(1.0)

    def coerce(self, x):
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float, Fraction)):
            return complex(float(x))
        if isinstance(x, QuadExt):
            return complex(x)
        raise NotRepresentable(f"cannot coerce {x!r} into C")

    def is_zero(self, x) -> bool:
        return abs(x) < self.eps

    def eq(self, x, y) -> bool:
        return abs(self.coerce(x) - self.coerce(y)) < self.eps

    def invert(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverting ~0 in float field")
        return 1.0 / x

    def sqrt(self, x):
        return cmath.sqrt(self.coerce(x))

    def embed_complex(self, x) -> complex:
        return self.coerce(x)

    def format(self, x) -> str:
        x = self.coerce(x)
        if x.imag == 0:
            return repr(x.real)
        return "(" + repr(x).strip("()") + ")"


class NovikovScalar:
    """Finite T-series  sum a_i T^{e_i}  truncated at a rational cutoff.

    Immutable.  ``terms`` is a tuple of (exponent, coefficient) pairs with
    strictly increasing exponents, no zero coefficients, and all exponents
    below ``cutoff``.  Every exponent and the cutoff are in the canonical
    form of the module docstring: ``int`` when integral, else ``Fraction``.
    """

    __slots__ = ("field", "cutoff", "terms")

    def __init__(self, field, cutoff, terms):
        object.__setattr__(self, "field", field)
        if type(cutoff) is not int:
            cutoff = _exact(cutoff)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("NovikovScalar is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, field, cutoff, pairs):
        """Normalize arbitrary (exponent, coefficient) pairs."""
        if type(cutoff) is not int:
            cutoff = _exact(cutoff)
        acc: dict = {}
        coerce = field.coerce
        for e, c in pairs:
            if type(e) is not int:
                e = _exact(e)
            if e >= cutoff:
                continue
            c = coerce(c)
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
        is_zero = field.is_zero
        terms = [(e, c) for e, c in sorted(acc.items()) if not is_zero(c)]
        return cls(field, cutoff, terms)

    @classmethod
    def zero(cls, field, cutoff):
        return cls(field, cutoff, ())

    @classmethod
    def one(cls, field, cutoff):
        return cls.make(field, cutoff, [(0, field.one)])

    @classmethod
    def monomial(cls, field, cutoff, exponent, coeff=1):
        return cls.make(field, cutoff, [(exponent, coeff)])

    @classmethod
    def constant(cls, field, cutoff, coeff):
        return cls.make(field, cutoff, [(0, coeff)])

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def valuation(self):
        """Least exponent; math.inf for the (truncated) zero scalar."""
        if not self.terms:
            return math.inf
        return self.terms[0][0]

    def leading(self):
        """(exponent, coefficient) of the lowest-order term."""
        if not self.terms:
            raise ZeroDivisionError("zero scalar has no leading term")
        return self.terms[0]

    def coefficient(self, exponent):
        e = Fraction(exponent)
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return self.field.zero

    # -- arithmetic --------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, NovikovScalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction, QuadExt, float, complex)):
            return NovikovScalar.constant(self.field, self.cutoff, other)
        return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        if self.cutoff == o.cutoff:
            ta, tb = self.terms, o.terms
            if not ta:
                return o
            if not tb:
                return self
            is_zero = self.field.is_zero
            merged = []
            i = j = 0
            na, nb = len(ta), len(tb)
            while i < na and j < nb:
                ea, ca = ta[i]
                eb, cb = tb[j]
                if ea < eb:
                    merged.append(ta[i])
                    i += 1
                elif eb < ea:
                    merged.append(tb[j])
                    j += 1
                else:
                    c = ca + cb
                    if not is_zero(c):
                        merged.append((ea, c))
                    i += 1
                    j += 1
            merged.extend(ta[i:])
            merged.extend(tb[j:])
            return NovikovScalar(self.field, self.cutoff, merged)
        cutoff = min(self.cutoff, o.cutoff)
        return NovikovScalar.make(
            self.field, cutoff, list(self.terms) + list(o.terms)
        )

    __radd__ = __add__

    def __neg__(self):
        return NovikovScalar(
            self.field, self.cutoff, [(e, -c) for e, c in self.terms]
        )

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        # a = A + O(T^Ea), b = B + O(T^Eb) determine ab only below
        # min(Ea + val b, Eb + val a, Ea + Eb); with val >= 0 operands this
        # is at least min(Ea, Eb), but negative valuations genuinely amplify
        # the unknown tails.
        cutoff = self.cutoff + o.cutoff
        if o.terms:
            cutoff = min(cutoff, self.cutoff + o.valuation())
        if self.terms:
            cutoff = min(cutoff, o.cutoff + self.valuation())
        if not self.terms or not o.terms:
            return NovikovScalar(self.field, cutoff, ())
        if len(self.terms) == 1 and len(o.terms) == 1:
            e1, c1 = self.terms[0]
            e2, c2 = o.terms[0]
            e = e1 + e2
            if type(e) is not int:
                e = _exact(e)
            if e >= cutoff:
                return NovikovScalar(self.field, cutoff, ())
            c = c1 * c2
            if self.field.is_zero(c):
                return NovikovScalar(self.field, cutoff, ())
            return NovikovScalar(self.field, cutoff, ((e, c),))
        pairs = []
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = e1 + e2
                if e < cutoff:
                    pairs.append((e, c1 * c2))
        return NovikovScalar.make(self.field, cutoff, pairs)

    __rmul__ = __mul__

    def invert(self) -> "NovikovScalar":
        """Multiplicative inverse, correct below cutoff - 2*val(self)."""
        if not self.terms:
            raise ZeroDivisionError("inverting a scalar that is 0 to cutoff")
        v, c0 = self.terms[0]
        new_cutoff = self.cutoff - 2 * v
        if new_cutoff <= -v:
            raise InsufficientCutoff(
                f"inverse of valuation-{v} scalar not visible below cutoff "
                f"{self.cutoff}"
            )
        inv0 = self.field.invert(c0)
        # u = self / (c0 T^v) = 1 + r with val(r) > 0, known below cutoff - v.
        rel = self.cutoff - v
        r = NovikovScalar.make(
            self.field, rel, [(e - v, c * inv0) for e, c in self.terms[1:]]
        )
        geom = NovikovScalar.one(self.field, rel)
        power = NovikovScalar.one(self.field, rel)
        if r.terms:
            step = r.valuation()
            k = 1
            while k * step < rel:
                power = power * (-r)
                if not power.terms:
                    break
                geom = geom + power
                k += 1
        return NovikovScalar.make(
            self.field, new_cutoff, [(e - v, c * inv0) for e, c in geom.terms]
        )

    def __truediv__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def sqrt(self) -> "NovikovScalar":
        """Square root with even-valuation leading term, via Newton iteration.

        Requires the leading coefficient to admit a square root in the field.
        """
        if not self.terms:
            return self
        v, c0 = self.terms[0]
        r0 = self.field.sqrt(c0)
        if r0 is None:
            raise NotRepresentable(
                f"leading coefficient {c0!r} has no square root in the field"
            )
        half = self.field.invert(self.field.coerce(2))
        x = NovikovScalar.monomial(self.field, self.cutoff, Fraction(v) / 2, r0)
        # Newton: x <- (x + a/x)/2 doubles correct T-adic digits per step.
        while True:
            nxt = (x + self / x) * half
            nxt = nxt.truncate(self.cutoff)
            if nxt == x:
                return x
            x = nxt

    # -- truncation and comparison ----------------------------------------

    def truncate(self, cutoff) -> "NovikovScalar":
        """Lower the cutoff (never raises it: that would fabricate precision)."""
        cutoff = min(_exact(cutoff), self.cutoff)
        return NovikovScalar(
            self.field, cutoff, [(e, c) for e, c in self.terms if e < cutoff]
        )

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        diff = self - o
        return all(self.field.is_zero(c) for _, c in diff.terms)

    def __ne__(self, other):
        r = self.__eq__(other)
        if r is NotImplemented:
            return r
        return not r

    def __hash__(self):
        raise TypeError("NovikovScalar is unhashable (cutoff-relative equality)")

    def __repr__(self):
        return f"<{format_scalar(self)} (below T^{self.cutoff})>"

    def __str__(self):
        return format_scalar(self)


# --------------------------------------------------------------------------
# Literal syntax: sums of terms  COEFF*T^EXP, e.g. "(5/2 + 5/2*s5)*T^1 - T^(1/2)".
# "s5" denotes sqrt(5); "s-3" denotes sqrt(-3).  Fractional or negative
# exponents are written T^(1/2), T^-2.  Plain coefficients have exponent 0.
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sq>s-?\d+)|(?P<num>\d+(?:\.\d+)?(?:[eE]-?\d+)?j?)"
    r"|(?P<T>T)|(?P<op>[()+\-*/^]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad scalar literal near {text[pos:pos+12]!r}")
        pos = m.end()
        if m.lastgroup == "sq":
            out.append(("sq", int(m.group("sq")[1:])))
        elif m.lastgroup == "num":
            out.append(("num", m.group("num")))
        elif m.lastgroup == "T":
            out.append(("T", "T"))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, tokens, field, cutoff):
        self.toks = tokens
        self.i = 0
        self.field = field
        self.cutoff = Fraction(cutoff)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        k, v = self.next()
        if k != "op" or v != op:
            raise ValueError(f"expected {op!r} in scalar literal")

    def parse_expr(self) -> NovikovScalar:
        negate = False
        k, v = self.peek()
        if k == "op" and v in "+-":
            self.next()
            negate = v == "-"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            k, v = self.peek()
            if k == "op" and v in "+-":
                self.next()
                t = self.parse_term()
                acc = acc - t if v == "-" else acc + t
            else:
                return acc

    def parse_term(self) -> NovikovScalar:
        acc = self.parse_factor()
        while True:
            k, v = self.peek()
            if k == "op" and v == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif k == "op" and v == "/":
                self.next()
                acc = acc / self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> NovikovScalar:
        k, v = self.peek()
        if k == "op" and v == "-":
            self.next()
            return -self.parse_factor()
        if k == "op" and v == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if k == "T":
            self.next()
            exp = Fraction(1)
            kk, vv = self.peek()
            if kk == "op" and vv == "^":
                self.next()
                exp = self.parse_exponent()
            return NovikovScalar.monomial(self.field, self.cutoff, exp, self.field.one)
        if k == "sq":
            self.next()
            d = v
            if not isinstance(self.field, QuadraticField) or self.field.d != d:
                raise NotRepresentable(
                    f"literal uses s{d} but field is {self.field!r}"
                )
            return NovikovScalar.constant(self.field, self.cutoff, self.field.root)
        if k == "num":
            self.next()
            return NovikovScalar.constant(self.field, self.cutoff, self._num(v))
        raise ValueError("unexpected end of scalar literal")

    def parse_exponent(self) -> Fraction:
        k, v = self.peek()
        if k == "op" and v == "(":
            self.next()
            e = self._signed_rational()
            self.expect_op(")")
            return e
        return self._signed_rational()

    def _signed_rational(self) -> Fraction:
        sign = 1
        k, v = self.peek()
        if k == "op" and v == "-":
            self.next()
            sign = -1
        k, v = self.next()
        if k != "num" or "j" in v or "." in v:
            raise ValueError("exponents must be rational")
        num = int(v)
        k, vv = self.peek()
        if k == "op" and vv == "/":
            self.next()
            k2, v2 = self.next()
            if k2 != "num" or "j" in v2 or "." in v2:
                raise ValueError("exponents must be rational")
            return Fraction(sign * num, int(v2))
        return Fraction(sign * num)

    def _num(self, text: str):
        if text.endswith("j"):
            return self.field.coerce(complex(0.0, float(text[:-1])))
        if "." in text or "e" in text or "E" in text:
            return self.field.coerce(Fraction(text) if not isinstance(self.field, FloatComplex) else float(text))
        # integer; a following '/' is consumed by parse_term as division
        return self.field.coerce(int(text))


def parse_scalar(text: str, field, cutoff) -> NovikovScalar:
    """Parse a scalar literal such as ``"(5/2 + 5/2*s5)*T^1 + 3*T^2"``."""
    p = _Parser(_tokenize(text), field, cutoff)
    value = p.parse_expr()
    if p.peek()[0] != "end":
        raise ValueError(f"trailing garbage in scalar literal {text!r}")
    return value


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e})"


def format_scalar(x: NovikovScalar, show_order: bool = False) -> str:
    """Canonical printing; ``parse_scalar(format_scalar(x))`` round-trips."""
    if not x.terms:
        body = "0"
    else:
        pieces = []
        for e, c in x.terms:
            cs = x.field.format(c)
            if e == 0:
                piece = cs
            else:
                t = "T" if e == 1 else f"T^{_format_exponent(e)}"
                piece = t if cs == "1" else (f"-{t}" if cs == "-1" else f"{cs}*{t}")
            pieces.append(piece)
        body = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                body += " - " + piece[1:]
            else:
                body += " + " + piece
    if show_order:
        body += f" + O(T^{_format_exponent(Fraction(x.cutoff))})"
    return body
