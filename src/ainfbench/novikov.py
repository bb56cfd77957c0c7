"""Truncated Novikov scalars over an exact coefficient field.

A scalar is a finite sum  sum_i  a_i * T^{e_i}  with strictly increasing
rational exponents e_i and coefficients a_i in a coefficient field K.  Every
scalar carries a cutoff E: terms with exponent >= E have been discarded, and
the value is only meaningful modulo T^E.  Exponents may be negative (this is
the field of truncated universal Novikov series, not just the ring).

Exponents, cutoffs, rational coefficients and both parts of a ``QuadExt``
are kept in one canonical exact form: a Python ``int`` when the value is
integral, a ``Fraction`` with denominator > 1 otherwise.  Both types may
meet in one computation because equal values compare and hash equal, and
both carry ``.numerator``/``.denominator``.  The form keeps integral data
(constant scalars, integer Clifford and toric coefficients) in machine-int
arithmetic; only genuinely fractional values pay for ``Fraction``
arithmetic.  Because ``int / int`` is a ``float``, every division of a
coefficient goes through ``Fraction``.  A ``float`` is never a coefficient.

Coefficient fields:

* ``Rationals``          -- exact Q, elements are ``int`` or ``Fraction``;
* ``QuadraticField(d)``  -- exact Q(sqrt d) for a square-free integer d
                            (d may be negative), elements are ``QuadExt``.

The valuation ``val`` of a nonzero scalar is its least exponent; ``val(0)`` is
``math.inf``.  It obeys  val(a*b) = val(a)+val(b)  and
val(a+b) >= min(val a, val b)  with equality when the valuations differ.

Inversion factors out the leading term and sums a geometric series.  If
val(a) = v, the inverse is guaranteed correct below exponent E - 2v (relative
precision is preserved; the result records that as its own cutoff).

Input is canonicalized at the entry points: ``NovikovScalar(...)``,
``NovikovScalar.make`` (and ``zero``, ``one``, ``monomial``, ``constant``
built on them), ``parse_scalar`` and the coefficient fields' ``coerce``.
Arithmetic builds its results from parts that are already canonical, by
the private ``_scalar``, which neither copies nor checks them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (FieldMismatch, InsufficientCutoff, NotRepresentable,
                     StructureError)

__all__ = [
    "QuadExt",
    "Rationals",
    "QuadraticField",
    "NovikovScalar",
    "parse_scalar",
    "format_scalar",
    "field_power",
]


def _exact(x):
    """Canonical exact value: ``int`` if integral, else a ``Fraction``.

    Any other type, a float included, raises NotRepresentable.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise NotRepresentable(f"{x!r} is not exact (int or Fraction)")
    return x.numerator if x.denominator == 1 else x


def _integer(x) -> int:
    """``_exact``, then StructureError unless the value is an ``int``."""
    x = _exact(x)
    if type(x) is not int:
        raise StructureError(f"{x} is not an integer")
    return x


def field_power(field, x, k: int):
    """x**k in a coefficient field, k any integer."""
    if k == 0:
        return field.one
    if k < 0:
        x, k = field.invert(x), -k
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _fraction_sqrt(x: int | Fraction) -> int | Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return _exact(Fraction(rn, rd))
    return None


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(d) of the quadratic extension Q(sqrt d).

    d is a square-free integer (possibly negative) shared by both operands of
    any arithmetic operation.  Supports mixed arithmetic with int / Fraction.
    Parts are coerced into Q in the canonical form of the module docstring.
    """

    a: int | Fraction
    b: int | Fraction
    d: int

    def __post_init__(self):
        if type(self.a) is not int:
            object.__setattr__(self, "a", _RATIONALS.coerce(self.a))
        if type(self.b) is not int:
            object.__setattr__(self, "b", _RATIONALS.coerce(self.b))

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise FieldMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        if type(other) is QuadExt and other.d == self.d:
            o = other
        else:
            o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is QuadExt and other.d == self.d:
            o = other
        else:
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
        if type(other) is QuadExt and other.d == self.d:
            o = other
        else:
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
        return QuadExt(Fraction(self.a, n), Fraction(-self.b, n), self.d)

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
    """Exact rational coefficient field; elements are int or Fraction."""

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return _exact(x)
        if isinstance(x, QuadExt) and x.b == 0:
            return x.a
        raise NotRepresentable(f"cannot coerce {x!r} into Q")

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverting 0 in Q")
        return _exact(1 / Fraction(self.coerce(x)))

    def sqrt(self, x):
        return _fraction_sqrt(self.coerce(x))

    def format(self, x) -> str:
        return str(x)


_RATIONALS = Rationals()


class QuadraticField:
    """Q adjoin sqrt(d), d a square-free integer (possibly negative)."""

    def __init__(self, d: int):
        s, k = _squarefree_decompose(d)
        if k != 1 or s in (0, 1):
            raise ValueError(f"d must be square-free and not 0 or 1, got {d}")
        self.d = d
        self.zero = QuadExt(0, 0, d)
        self.one = QuadExt(1, 0, d)
        self.root = QuadExt(0, 1, d)  # the element sqrt(d)

    def __repr__(self):
        return f"QuadraticField({self.d})"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self):
        return hash(("q-sqrt", self.d))

    def coerce(self, x):
        if isinstance(x, QuadExt):
            if x.d != self.d:
                raise FieldMismatch(f"sqrt({x.d}) element in Q(sqrt {self.d})")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x, 0, self.d)
        raise NotRepresentable(f"cannot coerce {x!r} into Q(sqrt {self.d})")

    def is_zero(self, x) -> bool:
        return not x

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
                return QuadExt(r, 0, d)
            if d > 0 or a <= 0:
                r = _fraction_sqrt(Fraction(a, d))
                if r is not None:
                    return QuadExt(0, r, d)
            return None
        # 2pq = b and p^2 + q^2 d = a: p^2 solves t^2 - a t + b^2 d/4 = 0.
        disc = a * a - b * b * d
        s = _fraction_sqrt(disc)
        if s is None:
            return None
        for t in (Fraction(a + s, 2), Fraction(a - s, 2)):
            p = _fraction_sqrt(t)
            if p is not None and p != 0:
                q = Fraction(b, 2 * p)
                if p * p + q * q * d == a:
                    return QuadExt(p, q, d)
        return None

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


class NovikovScalar:
    """Finite T-series  sum a_i T^{e_i}  truncated at a rational cutoff.

    Immutable.  ``terms`` is a tuple of (exponent, coefficient) pairs with
    strictly increasing exponents, no zero coefficients, and all exponents
    below ``cutoff``.  Every exponent, the cutoff and every rational
    coefficient are in the canonical form of the module docstring: ``int``
    when integral, else ``Fraction``.
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
                c = acc[e] + c
                if type(c) is Fraction:
                    c = _exact(c)
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
        e = _exact(exponent)
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return self.field.zero

    # -- arithmetic --------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, NovikovScalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction, QuadExt, float, complex)):
            return NovikovScalar.constant(self.field, self.cutoff, other)
        return None

    def _merge(self, o, negate):
        """self + o, or self - o when ``negate``; the fields already agree."""
        ta, tb = self.terms, o.terms
        if self.cutoff != o.cutoff:
            if negate:
                tb = [(e, -c) for e, c in tb]
            cutoff = min(self.cutoff, o.cutoff)
            return NovikovScalar.make(self.field, cutoff, list(ta) + list(tb))
        if not ta:
            return -o if negate else o
        if not tb:
            return self
        merged = []
        append = merged.append
        i = j = 0
        na, nb = len(ta), len(tb)
        while i < na and j < nb:
            ea, ca = ta[i]
            eb, cb = tb[j]
            if ea < eb:
                append(ta[i])
                i += 1
            elif eb < ea:
                append((eb, -cb) if negate else tb[j])
                j += 1
            else:
                c = ca - cb if negate else ca + cb
                if type(c) is Fraction:
                    c = _exact(c)
                if c:  # field elements are falsy exactly when zero
                    append((ea, c))
                i += 1
                j += 1
        if i < na:
            merged.extend(ta[i:])
        if j < nb:
            merged.extend([(e, -c) for e, c in tb[j:]] if negate else tb[j:])
        return _scalar(self.field, self.cutoff, tuple(merged))

    def __add__(self, other):
        if type(other) is NovikovScalar and other.field is self.field:
            return self._merge(other, False)
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self._merge(o, False)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(
            self.field, self.cutoff, tuple([(e, -c) for e, c in self.terms])
        )

    def __sub__(self, other):
        if type(other) is NovikovScalar and other.field is self.field:
            return self._merge(other, True)
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self._merge(o, True)

    def __rsub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o._merge(self, True)

    def __mul__(self, other):
        if type(other) is NovikovScalar and other.field is self.field:
            o = other
        else:
            o = self._coerce_other(other)
            if o is None:
                return NotImplemented
        # a = A + O(T^Ea), b = B + O(T^Eb) determine ab only below
        # min(Ea + val b, Eb + val a, Ea + Eb); with val >= 0 operands this
        # is at least min(Ea, Eb), but negative valuations genuinely amplify
        # the unknown tails.
        ta, tb = self.terms, o.terms
        cutoff = self.cutoff + o.cutoff
        if tb and self.cutoff + tb[0][0] < cutoff:
            cutoff = self.cutoff + tb[0][0]
        if ta and o.cutoff + ta[0][0] < cutoff:
            cutoff = o.cutoff + ta[0][0]
        if type(cutoff) is not int:
            cutoff = _exact(cutoff)
        if not ta or not tb:
            return _scalar(self.field, cutoff, ())
        if len(ta) == 1 and len(tb) == 1:
            e1, c1 = ta[0]
            e2, c2 = tb[0]
            e = e1 + e2
            if type(e) is not int:
                e = _exact(e)
            if e >= cutoff:
                return _scalar(self.field, cutoff, ())
            # nonzero coefficients of a field have a nonzero product
            c = c1 * c2
            if type(c) is Fraction:
                c = _exact(c)
            return _scalar(self.field, cutoff, ((e, c),))
        pairs = []
        for e1, c1 in ta:
            for e2, c2 in tb:
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
        kept = tuple([(e, c) for e, c in self.terms if e < cutoff])
        return _scalar(self.field, cutoff, kept)

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return not (self - o).terms

    def __hash__(self):
        raise TypeError("NovikovScalar is unhashable (cutoff-relative equality)")

    def __repr__(self):
        return f"<{format_scalar(self)} (below T^{self.cutoff})>"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__
_set_field = NovikovScalar.field.__set__
_set_cutoff = NovikovScalar.cutoff.__set__
_set_terms = NovikovScalar.terms.__set__


def _scalar(field, cutoff, terms):
    """A scalar from canonical parts, ``terms`` a tuple; nothing is checked."""
    x = _new(NovikovScalar)
    _set_field(x, field)
    _set_cutoff(x, cutoff)
    _set_terms(x, terms)
    return x


# --------------------------------------------------------------------------
# Literal syntax: sums of terms  COEFF*T^EXP, e.g. "(5/2 + 5/2*s5)*T^1 - T^(1/2)".
# "s5" denotes sqrt(5); "s-3" denotes sqrt(-3).  Fractional or negative
# exponents are written T^(1/2), T^-2.  Plain coefficients have exponent 0.
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sq>s-?\d+)|(?P<num>\d+(?:\.\d+)?(?:[eE]-?\d+)?)"
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
        self.cutoff = _exact(cutoff)

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
        if k != "num" or "." in v:
            raise ValueError("exponents must be rational")
        num = int(v)
        k, vv = self.peek()
        if k == "op" and vv == "/":
            self.next()
            k2, v2 = self.next()
            if k2 != "num" or "." in v2:
                raise ValueError("exponents must be rational")
            return Fraction(sign * num, int(v2))
        return Fraction(sign * num)

    def _num(self, text: str):
        # decimals stay exact; a following '/' is consumed by parse_term
        return self.field.coerce(Fraction(text))


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
