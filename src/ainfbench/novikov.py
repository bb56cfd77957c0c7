"""Truncated Novikov scalars over an exact coefficient field.

A scalar is a finite sum  sum_i  a_i * T^{e_i}  with strictly increasing
rational exponents e_i and coefficients a_i in a coefficient field K.  Every
scalar carries a cutoff E: terms with exponent >= E have been discarded, and
the value is only meaningful modulo T^E.  Exponents may be negative (this is
the field of truncated universal Novikov series, not just the ring).

A scalar stores its exponents and cutoff on a lattice (1/den)Z: one
positive ``int`` ``den`` per scalar and the ``int`` numerator ``lcut`` of
its cutoff, kept as the pair ``lattice = (den, lcut)``, and the terms as
``lterms``, pairs (k, n) that stand for (n/cden) * T^(k/den).  ``cden`` is
the scalar's coefficient denominator: over Q every n is an ``int`` and
``cden`` a positive ``int`` with gcd(cden, every n) = 1, so zero and
integral scalars have cden = 1; over Q(sqrt d) every n is a ``QuadExt``
and cden = 1 always.  Sums and products of equal ``den`` and ``cden`` are
``int`` arithmetic; unequal ones rescale the operands to their lcm, and a
result whose ``cden`` is not 1 is divided once by the gcd of its parts
when a sum collided, a term was dropped or coefficients were multiplied.
``make`` and the constructor pick the least ``den`` for their input, while
arithmetic keeps its operands' ``den`` (or their lcm), so ``den`` is a
denominator of the scalar, not always the least one.  One slot for the
lattice pair, not two, keeps every result at four slot stores, and a sum
or a negation reuses its operand's pair.

``terms``, ``cutoff``, ``valuation()``, ``leading()`` and ``coefficient()``
are views: they give exponents, coefficients and cutoffs in canonical
exact form, a Python ``int`` when the value is integral and a ``Fraction``
with denominator > 1 otherwise.  When den = cden = 1 the views ``terms``
and ``cutoff`` are the stored tuple and ``int`` themselves, so integral
scalars (constants, integer Clifford and toric data) pay nothing for them.
Both types may meet in one computation because equal values compare and
hash equal, and both carry ``.numerator``/``.denominator``.  Because
``int / int`` is a ``float``, a division of rational coefficients outside
a scalar goes through ``Fraction``; inside one, scalar arithmetic over Q
is ``int`` arithmetic on the numerators and builds no ``Fraction``.  A
``float`` is never a coefficient.

A ``QuadExt`` stores (p + q*sqrt d)/n as three ``int``s over one
denominator, reduced: n > 0 and gcd(p, q, n) = 1, so each element has
one triple and its arithmetic builds no ``Fraction``.  Its parts ``a`` =
p/n and ``b`` = q/n are views in the canonical form above.

Coefficient fields:

* ``Rationals``          -- exact Q, elements are ``int`` or ``Fraction``;
* ``QuadraticField(d)``  -- exact Q(sqrt d) for a square-free ``int`` d
                            (d may be negative), elements are ``QuadExt``
                            with a reduced integer triple (p, q, n).

Both divide exactly by ``quotient(x, y)``; over Q it is ``x // y`` when
both are ``int``s and y divides x, so integral quotients build no
``Fraction``.

The valuation ``val`` of a nonzero scalar is its least exponent; ``val(0)`` is
``math.inf``.  It obeys  val(a*b) = val(a)+val(b)  and
val(a+b) >= min(val a, val b)  with equality when the valuations differ.

Inversion factors out the leading term and sums a geometric series.  If
val(a) = v, the inverse is guaranteed correct below exponent E - 2v (relative
precision is preserved; the result records that as its own cutoff).

Input is canonicalized at the entry points: ``NovikovScalar(...)``,
``NovikovScalar.make`` (and ``zero``, ``one``, ``monomial``, ``constant``
built on them), ``parse_scalar``, ``QuadExt(a, b, d)`` and the coefficient
fields' ``coerce``.  Arithmetic builds its results from lattice parts that
are already canonical, by the private ``_scalar``, which neither copies nor
checks them (``_lowest`` reduces them first where needed); ``QuadExt``
arithmetic builds its own by ``_reduced``.
"""

from __future__ import annotations

import ast
import math
import re
from fractions import Fraction

from .errors import (FieldMismatch, FixtureError, InsufficientCutoff,
                     NotRepresentable, StructureError)

__all__ = [
    "QuadExt",
    "Rationals",
    "QuadraticField",
    "NovikovScalar",
    "parse_scalar",
    "format_scalar",
    "field_power",
]


_new = object.__new__


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


class QuadExt:
    """Element (p + q*sqrt(d))/n of the quadratic extension Q(sqrt d).

    Immutable.  What is stored is three ``int``s ``p``, ``q`` and ``n``
    with n > 0 and gcd(p, q, n) = 1, and d, a square-free integer
    (possibly negative) shared by both operands of any arithmetic
    operation.  The reduction makes the triple unique, so equal elements
    store equal triples and zero is (0, 0, 1).  Sums, products and
    inverses are ``int`` arithmetic with one gcd per result, built by the
    private ``_reduced``, which checks nothing else.

    ``a`` and ``b``, the parts of a + b*sqrt(d), are views in the
    canonical form of the module docstring.  The constructor takes those
    parts, ``int`` or ``Fraction``, and an ``int`` d (a float raises
    NotRepresentable).  Supports mixed arithmetic with int / Fraction.
    """

    __slots__ = ("p", "q", "n", "d")

    def __new__(cls, a, b, d):
        a, b, d = _RATIONALS.coerce(a), _RATIONALS.coerce(b), _integer(d)
        n = math.lcm(a.denominator, b.denominator)
        # over the lcm of two reduced denominators the triple is reduced
        return _quad(a.numerator * (n // a.denominator),
                     b.numerator * (n // b.denominator), n, d)

    def __setattr__(self, *a):
        raise AttributeError("QuadExt is immutable")

    @property
    def a(self):
        """The rational part p/n."""
        return _ratio(self.p, self.n)

    @property
    def b(self):
        """The coefficient q/n of sqrt(d)."""
        return _ratio(self.q, self.n)

    def _parts(self, other):
        """(p, q, n) of an operand of this element's field, or None."""
        t = type(other)
        if t is QuadExt:
            if other.d != self.d:
                raise FieldMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
            return other.p, other.q, other.n
        if t is int:
            return other, 0, 1
        if isinstance(other, (int, Fraction)):
            other = _RATIONALS.coerce(other)  # a bool raises NotRepresentable
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        if n == self.n:
            return _reduced(self.p + p, self.q + q, n, self.d)
        return _reduced(self.p * n + p * self.n, self.q * n + q * self.n,
                        self.n * n, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.q, self.n, self.d)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        if n == self.n:
            return _reduced(self.p - p, self.q - q, n, self.d)
        return _reduced(self.p * n - p * self.n, self.q * n - q * self.n,
                        self.n * n, self.d)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quad(*o, self.d) - self

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        sp, sq = self.p, self.q
        return _reduced(sp * p + sq * q * self.d, sp * q + sq * p,
                        self.n * n, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # n/(p + q sqrt d) = n (p - q sqrt d) / (p^2 - q^2 d)
        p, q, n = self.p, self.q, self.n
        norm = p * p - q * q * self.d
        if norm == 0:
            raise ZeroDivisionError("zero element of quadratic field")
        if norm < 0:
            return _reduced(-n * p, n * q, -norm, self.d)
        return _reduced(n * p, -n * q, norm, self.d)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * _quad(*o, self.d).inverse()

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quad(*o, self.d) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.d == other.d and self.p == other.p
                    and self.q == other.q and self.n == other.n)
        if isinstance(other, (int, Fraction)):
            return (not self.q and self.p == other.numerator
                    and self.n == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self.q:
            return hash(self.a)
        return hash((self.p, self.q, self.n, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


_set_p = QuadExt.p.__set__
_set_q = QuadExt.q.__set__
_set_n = QuadExt.n.__set__
_set_d = QuadExt.d.__set__


def _quad(p, q, n, d):
    """The element (p + q*sqrt(d))/n of a reduced triple; nothing is
    checked."""
    x = _new(QuadExt)
    _set_p(x, p)
    _set_q(x, q)
    _set_n(x, n)
    _set_d(x, d)
    return x


def _reduced(p, q, n, d):
    """(p + q*sqrt(d))/n for n > 0, divided by gcd(p, q, n)."""
    g = math.gcd(p, q, n)
    if g != 1:
        p //= g
        q //= g
        n //= g
    return _quad(p, q, n, d)


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
        if isinstance(x, QuadExt) and not x.q:
            return x.a
        raise NotRepresentable(f"cannot coerce {x!r} into Q")

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverting 0 in Q")
        x = self.coerce(x)
        if type(x) is int:
            return x if x in (1, -1) else Fraction(1, x)
        return _exact(Fraction(x.denominator, x.numerator))

    def quotient(self, x, y):
        """x / y, y nonzero: ``x // y`` when y divides x in Z."""
        if type(x) is int and type(y) is int and not x % y:
            return x // y
        return _exact(Fraction(x, y))

    def sqrt(self, x):
        return _fraction_sqrt(self.coerce(x))

    def format(self, x) -> str:
        return str(x)


_RATIONALS = Rationals()


class QuadraticField:
    """Q adjoin sqrt(d), d a square-free integer (possibly negative)."""

    def __init__(self, d: int):
        d = _integer(d)
        s, k = _squarefree_decompose(d)
        if k != 1 or s in (0, 1):
            raise ValueError(f"d must be square-free and not 0 or 1, got {d}")
        self.d = d
        self.zero = _quad(0, 0, 1, d)
        self.one = _quad(1, 0, 1, d)
        self.root = _quad(0, 1, 1, d)  # the element sqrt(d)

    def __repr__(self):
        return f"QuadraticField({self.d})"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self):
        return hash(("q-sqrt", self.d))

    def coerce(self, x):
        if type(x) is int:
            return _quad(x, 0, 1, self.d)
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

    def quotient(self, x, y):
        """x / y, y nonzero."""
        return x * self.invert(y)

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

    Immutable.  What is stored is the lattice form of the module docstring:
    ``lattice``, the pair (den, lcut) of a positive ``int`` ``den`` and the
    cutoff times ``den``; ``cden``, the positive coefficient denominator;
    and ``lterms``, a tuple of (k, n) pairs, k the exponent times ``den``
    and n the coefficient times ``cden``, with strictly increasing k, no
    zero n and every k below ``lcut``.  Over Q every n is an ``int`` and
    gcd(cden, every n) = 1, so cden = 1 for zero and integral scalars;
    over Q(sqrt d) every n is a ``QuadExt`` and cden = 1.

    ``terms`` and ``cutoff`` are views in canonical exact form: the
    (exponent, coefficient) pairs and the cutoff, each rational an ``int``
    when integral, else a ``Fraction``.  When den = cden = 1 they are
    ``lterms`` and ``lcut`` themselves; otherwise every read builds them
    anew, so hot code reads ``lterms``, whose truth value is the scalar's.
    The constructor canonicalizes its input like ``make``.
    """

    __slots__ = ("field", "lattice", "cden", "lterms")

    def __new__(cls, field, cutoff, terms):
        return _scalar(field, *_canonical(field, cutoff, terms))

    def __setattr__(self, *a):
        raise AttributeError("NovikovScalar is immutable")

    @property
    def den(self):
        """The denominator of the lattice (1/den)Z."""
        return self.lattice[0]

    @property
    def terms(self):
        """(exponent, coefficient) pairs; ``lterms`` itself when
        den = cden = 1."""
        den, cden = self.lattice[0], self.cden
        if den == 1 and cden == 1:
            return self.lterms
        return tuple([(_ratio(k, den), _coefficient(c, cden))
                      for k, c in self.lterms])

    @property
    def cutoff(self):
        """The cutoff; ``lcut`` itself when den == 1."""
        den, lcut = self.lattice
        return lcut if den == 1 else _ratio(lcut, den)

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, field, cutoff, pairs):
        """Normalize arbitrary (exponent, coefficient) pairs."""
        return _scalar(field, *_canonical(field, cutoff, pairs))

    @classmethod
    def zero(cls, field, cutoff):
        return cls.make(field, cutoff, ())

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
        return not self.lterms

    def __bool__(self):
        return bool(self.lterms)

    def valuation(self):
        """Least exponent; math.inf for the (truncated) zero scalar."""
        if not self.lterms:
            return math.inf
        k, den = self.lterms[0][0], self.lattice[0]
        return k if den == 1 else _ratio(k, den)

    def leading(self):
        """(exponent, coefficient) of the lowest-order term."""
        if not self.lterms:
            raise ZeroDivisionError("zero scalar has no leading term")
        k, c = self.lterms[0]
        return _ratio(k, self.lattice[0]), _coefficient(c, self.cden)

    def coefficient(self, exponent):
        e = _exact(exponent)
        den = self.lattice[0]
        if not den % e.denominator:
            k = e.numerator * (den // e.denominator)
            for kk, c in self.lterms:
                if kk == k:
                    return _coefficient(c, self.cden)
                if kk > k:
                    break
        return self.field.zero

    # -- arithmetic --------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, NovikovScalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction, QuadExt, float, complex)):
            # the constant on this scalar's lattice, at its cutoff
            c = self.field.coerce(other)
            if self.lattice[1] <= 0 or self.field.is_zero(c):
                return _scalar(self.field, self.lattice, 1, ())
            if type(c) is Fraction:
                return _scalar(self.field, self.lattice, c.denominator,
                               ((0, c.numerator),))
            return _scalar(self.field, self.lattice, 1, ((0, c),))
        return None

    def _merge(self, o, negate):
        """self + o, or self - o when ``negate``; the fields already agree."""
        lattice, cden = self.lattice, self.cden
        ta, tb = self.lterms, o.lterms
        if o.lattice != lattice or o.cden != cden:
            den, cut = lattice
            if o.lattice[0] == den and o.cden == cden:
                ocut = o.lattice[1]
            else:
                den, cden, (cut, ta), (ocut, tb) = _common(self, o)
            if cut != ocut:
                if negate:
                    tb = [(e, -c) for e, c in tb]
                cut = min(cut, ocut)
                return _scalar(self.field, (den, cut), *_lowest(
                    cden, _collect(cut, list(ta) + list(tb))))
            lattice = (den, cut)
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
                if c:  # field elements are falsy exactly when zero
                    append((ea, c))
                i += 1
                j += 1
        if i < na:
            merged.extend(ta[i:])
        if j < nb:
            merged.extend([(e, -c) for e, c in tb[j:]] if negate else tb[j:])
        lterms = tuple(merged)
        # without a collision the union of reduced numerators stays reduced
        if cden != 1 and len(lterms) != na + nb:
            cden, lterms = _lowest(cden, lterms)
        x = _new(NovikovScalar)  # _scalar, inlined on the hottest result
        _set_field(x, self.field)
        _set_lattice(x, lattice)
        _set_cden(x, cden)
        _set_lterms(x, lterms)
        return x

    def __add__(self, other):
        if type(other) is NovikovScalar and other.field is self.field:
            return self._merge(other, False)
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self._merge(o, False)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, self.lattice, self.cden,
                       tuple([(e, -c) for e, c in self.lterms]))

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
        (den, ca), (oden, cb) = self.lattice, o.lattice
        ta, tb = self.lterms, o.lterms
        ma = mb = 1
        if oden != den:
            # on the lcm lattice; each exponent is scaled as its pair forms
            g = math.gcd(den, oden)
            ma, mb = oden // g, den // g
            den, ca, cb = den * ma, ca * ma, cb * mb
        # a = A + O(T^Ea), b = B + O(T^Eb) determine ab only below
        # min(Ea + val b, Eb + val a, Ea + Eb); with val >= 0 operands this
        # is at least min(Ea, Eb), but negative valuations genuinely amplify
        # the unknown tails.
        cutoff = ca + cb
        if tb and ca + tb[0][0] * mb < cutoff:
            cutoff = ca + tb[0][0] * mb
        if ta and cb + ta[0][0] * ma < cutoff:
            cutoff = cb + ta[0][0] * ma
        field = self.field
        if not ta or not tb:
            return _scalar(field, (den, cutoff), 1, ())
        cden = self.cden * o.cden
        if len(ta) == 1 and len(tb) == 1:
            e1, c1 = ta[0]
            e2, c2 = tb[0]
            # each lone exponent lies below its own cutoff, so e lies below
            # all three bounds of the product's; nonzero coefficients of a
            # field have a nonzero product
            e = e1 * ma + e2 * mb
            c = c1 * c2
            if cden != 1:
                g = math.gcd(c, cden)
                c, cden = c // g, cden // g
            x = _new(NovikovScalar)  # _scalar, inlined
            _set_field(x, field)
            _set_lattice(x, (den, cutoff))
            _set_cden(x, cden)
            _set_lterms(x, ((e, c),))
            return x
        pairs = []
        for e1, c1 in ta:
            e1 *= ma
            for e2, c2 in tb:
                e = e1 + e2 * mb
                if e < cutoff:
                    pairs.append((e, c1 * c2))
        return _scalar(field, (den, cutoff),
                       *_lowest(cden, _collect(cutoff, pairs)))

    __rmul__ = __mul__

    def invert(self) -> "NovikovScalar":
        """Multiplicative inverse, correct below cutoff - 2*val(self)."""
        if not self.lterms:
            raise ZeroDivisionError("inverting a scalar that is 0 to cutoff")
        field, (den, lcut) = self.field, self.lattice
        v, c0 = self.lterms[0]
        new_cutoff = lcut - 2 * v
        if new_cutoff <= -v:
            raise InsufficientCutoff(
                f"inverse of valuation-{self.valuation()} scalar not visible "
                f"below cutoff {self.cutoff}"
            )
        # u = self / (c0 T^v) = 1 + r with val(r) > 0, known below cutoff - v.
        # Over Q the leading coefficient is c0/cden, so r's numerators are
        # the others times unit = ±1 over uden = |c0|, and its inverse is
        # inv0/uden = ±cden/|c0|.
        if type(c0) is int:
            unit, uden = (1, c0) if c0 > 0 else (-1, -c0)
            inv0 = unit * self.cden
        else:
            unit = inv0 = field.invert(c0)
            uden = 1
        rel = lcut - v
        r = _scalar(field, (den, rel), *_lowest(
            uden, tuple([(e - v, c * unit) for e, c in self.lterms[1:]])))
        geom = power = _scalar(field, (den, rel), 1, ((0, field.one),))
        if r.lterms:
            step = r.lterms[0][0]
            k = 1
            while k * step < rel:
                # (-r)^k leads at k*step < rel, below its cutoff (>= rel)
                power = power * (-r)
                geom = geom + power
                k += 1
        # every term of geom lies below rel, so below new_cutoff once shifted
        return _scalar(field, (den, new_cutoff), *_lowest(
            geom.cden * uden,
            tuple([(e - v, c * inv0) for e, c in geom.lterms])))

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
        if not self.lterms:
            return self
        v, c0 = self.leading()
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
        c = _exact(cutoff)
        den = self.lattice[0]
        # a cutoff off the lattice moves it to lcm(den, c.denominator)
        m = c.denominator // math.gcd(den, c.denominator)
        den *= m
        lcut, lterms = _rescaled(self, m, 1)
        k = c.numerator * (den // c.denominator)
        if k >= lcut:
            return self
        return _scalar(self.field, (den, k), *_lowest(
            self.cden, tuple([t for t in lterms if t[0] < k])))

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return not (self - o).lterms

    def __hash__(self):
        raise TypeError("NovikovScalar is unhashable (cutoff-relative equality)")

    def __repr__(self):
        return f"<{format_scalar(self)} (below T^{self.cutoff})>"

    def __str__(self):
        return format_scalar(self)


_set_field = NovikovScalar.field.__set__
_set_lattice = NovikovScalar.lattice.__set__
_set_cden = NovikovScalar.cden.__set__
_set_lterms = NovikovScalar.lterms.__set__


def _scalar(field, lattice, cden, lterms):
    """A scalar from canonical lattice parts, ``lterms`` a tuple; nothing is
    checked."""
    x = _new(NovikovScalar)
    _set_field(x, field)
    _set_lattice(x, lattice)
    _set_cden(x, cden)
    _set_lterms(x, lterms)
    return x


def _ratio(k, den):
    """k/den in canonical exact form, ``den`` > 0."""
    return k // den if not k % den else Fraction(k, den)


def _coefficient(n, cden):
    """The coefficient of the stored numerator ``n``: n/cden in canonical
    form, or ``n`` itself when cden == 1."""
    return n if cden == 1 else _ratio(n, cden)


def _lowest(cden, lterms):
    """``cden`` and the tuple ``lterms`` divided by the gcd of ``cden`` and
    every numerator; nothing is divided when cden == 1."""
    if cden != 1:
        g = math.gcd(cden, *[c for _, c in lterms])
        if g != 1:
            return cden // g, tuple([(k, c // g) for k, c in lterms])
    return cden, lterms


def _collect(cutoff, pairs):
    """Sorted ``pairs`` below ``cutoff``, equal exponents summed (a
    ``Fraction`` sum in canonical form) and zero sums dropped.

    Exponents and ``cutoff`` are exact values or lattice numerators alike,
    and coefficients field elements or stored numerators alike.
    """
    acc: dict = {}
    for e, c in pairs:
        if e < cutoff:
            if e in acc:
                c = acc[e] + c
                if type(c) is Fraction:
                    c = _exact(c)
            acc[e] = c
    return tuple([(e, c) for e, c in sorted(acc.items()) if c])


def _canonical(field, cutoff, pairs):
    """(lattice, cden, lterms) of arbitrary pairs, den and cden the least."""
    if type(cutoff) is not int:
        cutoff = _exact(cutoff)
    coerce = field.coerce
    pairs = [(e if type(e) is int else _exact(e), c) for e, c in pairs]
    terms = _collect(cutoff, [(e, coerce(c)) for e, c in pairs if e < cutoff])
    den, cden = cutoff.denominator, 1
    for e, c in terms:
        if type(e) is not int:
            den = math.lcm(den, e.denominator)
        if type(c) is Fraction:
            cden = math.lcm(cden, c.denominator)
    if den == 1 and cden == 1:
        return (1, cutoff), 1, terms
    # over the lcm of reduced denominators the numerators stay reduced
    return (den, cutoff.numerator * (den // cutoff.denominator)), cden, tuple(
        [(e.numerator * (den // e.denominator),
          c if cden == 1 else c.numerator * (cden // c.denominator))
         for e, c in terms])


def _common(a, b):
    """The lcm ``den`` and ``cden`` of both operands and each one's
    (lcut, lterms) over them."""
    (da, _), (db, _) = a.lattice, b.lattice
    den, cden = math.lcm(da, db), math.lcm(a.cden, b.cden)
    return (den, cden, _rescaled(a, den // da, cden // a.cden),
            _rescaled(b, den // db, cden // b.cden))


def _rescaled(x, m, f):
    """``x``'s (lcut, lterms) over the denominators ``x.den * m`` and
    ``x.cden * f``."""
    lcut = x.lattice[1]
    if f != 1:
        return lcut * m, tuple([(k * m, c * f) for k, c in x.lterms])
    if m != 1:
        return lcut * m, tuple([(k * m, c) for k, c in x.lterms])
    return lcut, x.lterms


# --------------------------------------------------------------------------
# Literal syntax: a Python expression in T such as format_scalar prints,
# "(5/2 + 5/2*s5)*T - T^(1/2) + O(T^6)", read by ast.parse after "^" becomes
# "**" and "sD" (sqrt D, D may be negative) the call s(D).  So T^2/3 is
# T^2 / 3 and T^-1/2 is T^-1 / 2; format_scalar prints T^(2/3).  The tree
# may hold + - * /, unary + and -, T, T^q (q a signed int or a quotient of
# two), s(D) and int or decimal constants, read exactly from their digits;
# a trailing "+ O(T^c)" at the root names the cutoff c.  Python also admits
# line breaks, "**", 1_000, .5, 5., 1e+5, O(T) and parentheses around the
# whole literal.  Anything else (0x10, 2j, T^1.5, other names, comments)
# raises FixtureError, as do more than 200 nested parentheses, more than
# _MAX_SIGNS = 2,000 signs + and - (a sum of 2,000 terms with its order
# term has 2,000) and more than _MAX_PRODUCTS = 100 operators * and / on
# one path down the tree (a format_scalar term has at most 4).  ast.parse
# reads a chain of operators only to a depth that shrinks with the caller's
# stack, about 3,000 at recursion limit 1,000 and three fewer per frame; a
# path meets at most 2,000 signs and 100 products, so with both bounds
# checked before parsing every accepted literal still reads 200 frames
# deep, and the accepted literals do not depend on the caller.
# --------------------------------------------------------------------------

_MAX_SIGNS = 2_000
_MAX_PRODUCTS = 100
_SQRT_RE = re.compile(r"s(-?\d+)")
_SIGNS = {ast.UAdd: 1, ast.USub: -1}
_ARITHMETIC = {ast.Add: NovikovScalar.__add__, ast.Sub: NovikovScalar.__sub__,
               ast.Mult: NovikovScalar.__mul__,
               ast.Div: NovikovScalar.__truediv__}


def parse_scalar(text: str, field, cutoff) -> NovikovScalar:
    """Parse a scalar literal such as ``"(5/2 + 5/2*s5)*T^1 + 3*T^2"``.

    A trailing ``+ O(T^c)`` must name ``cutoff``; the result then carries it
    exactly.  Malformed literals raise ``FixtureError``, and so does a
    division by zero, a divisor that is 0 below the cutoff included.
    """
    cutoff = _exact(cutoff)
    try:
        src = " ".join(text.split())
        if not src.isascii() or "#" in src:
            raise FixtureError(f"bad character in scalar literal {text!r}")
        src = _SQRT_RE.sub(r"s(\1)", src.replace("^", "**"))
        if src.count("+") + src.count("-") > _MAX_SIGNS:
            raise FixtureError(f"scalar literal with more than {_MAX_SIGNS} "
                               "signs + and -")
        if _path_products(src) > _MAX_PRODUCTS:
            raise FixtureError(f"scalar literal with more than {_MAX_PRODUCTS}"
                               " operators * and / on one path")
        root = ast.parse(src, mode="eval").body
        order = None
        if type(root) is ast.BinOp and type(root.op) is ast.Add and (
                c := _argument(root.right, "O")) is not None:
            order, root = _exponent(src, c), root.left
        value = _value(src, root, field, cutoff)
        if order is None:
            return value
        if order != cutoff:
            raise FixtureError(f"order term of {text!r} is not O(T^{cutoff})")
        if value.cutoff < order:
            # negative powers lowered the working cutoff by d; every
            # operation's cutoff grows at least as fast as its inputs', so
            # reading again at order + d keeps every term below the order term
            value = _value(src, root, field, 2 * order - value.cutoff)
    except ZeroDivisionError as exc:
        # a zero denominator, or a divisor that is 0 below the cutoff
        raise FixtureError(f"division by zero in scalar literal {text!r}") from exc
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise FixtureError(f"bad scalar literal {text!r}: {exc}") from exc
    return NovikovScalar.make(field, order, value.terms)


def _path_products(src) -> int:
    """Most operators * and / that one path down the tree of ``src`` meets.

    A term counts its own * and / plus the most that any parenthesized group
    inside it counts.  A sign after an operand (a digit, T, a point or a
    closing parenthesis) starts a new term; any other sign is unary, and **
    is a power.
    """
    # per open group: [own count, deepest group] of its current term, and
    # its deepest finished term
    stack, prev = [[0, 0, 0]], ""
    for ch in src.replace("**", "^").replace(" ", ""):
        if ch == "(":
            stack.append([0, 0, 0])
        elif ch == ")" and len(stack) > 1:
            own, inner, most = stack.pop()
            stack[-1][1] = max(stack[-1][1], most, own + inner)
        elif ch in "*/":
            stack[-1][0] += 1
        elif ch in "+-" and (prev.isdigit() or prev in ("T", ".", ")")):
            group = stack[-1]
            group[:] = [0, 0, max(group[2], group[0] + group[1])]
        prev = ch
    own, inner, most = stack[0]
    return max(most, own + inner)


def _value(src, node, field, cutoff) -> NovikovScalar:
    """The scalar of the tree ``node`` of ``src`` at ``cutoff``.

    A chain of binary operations is walked down its left side by a loop, so
    a long sum costs no recursion depth.
    """
    chain = []
    while type(node) is ast.BinOp and type(node.op) in _ARITHMETIC:
        chain.append(node)
        node = node.left
    if type(node) is ast.UnaryOp and type(node.op) in _SIGNS:
        acc = _value(src, node.operand, field, cutoff)
        if type(node.op) is ast.USub:
            acc = -acc
    elif type(node) is ast.Constant:
        acc = NovikovScalar.constant(
            field, cutoff, _number(src, node, (int, float)))
    elif (arg := _argument(node, "s")) is not None:
        d = _signed(src, arg)
        if not isinstance(field, QuadraticField) or field.d != d:
            raise NotRepresentable(f"literal uses s{d} but field is {field!r}")
        acc = NovikovScalar.constant(field, cutoff, field.root)
    else:
        acc = NovikovScalar.monomial(field, cutoff, _exponent(src, node),
                                     field.one)
    for op in reversed(chain):
        acc = _ARITHMETIC[type(op.op)](acc, _value(src, op.right, field, cutoff))
    return acc


def _argument(node, name):
    """The one argument of the call ``name(x)``, or None."""
    if (type(node) is ast.Call and type(node.func) is ast.Name
            and node.func.id == name and len(node.args) == 1
            and not node.keywords):
        return node.args[0]
    return None


def _exponent(src, node) -> Fraction:
    """q of ``T`` (1) or of ``T**q``, q a signed integer or a quotient of two."""
    if type(node) is ast.Name and node.id == "T":
        return Fraction(1)
    if (type(node) is not ast.BinOp or type(node.op) is not ast.Pow
            or type(node.left) is not ast.Name or node.left.id != "T"):
        raise _unexpected(src, node)
    q = node.right
    if type(q) is ast.BinOp and type(q.op) is ast.Div:
        return _signed(src, q.left) / _signed(src, q.right)
    return _signed(src, q)


def _signed(src, node) -> Fraction:
    """An int constant with an optional sign."""
    if type(node) is ast.UnaryOp and type(node.op) in _SIGNS:
        return _SIGNS[type(node.op)] * _number(src, node.operand, (int,))
    return _number(src, node, (int,))


def _number(src, node, kinds) -> Fraction:
    """A constant of a type in ``kinds``, exact from its digits in ``src``."""
    if type(node) is not ast.Constant or type(node.value) not in kinds:
        raise _unexpected(src, node)
    return Fraction(src[node.col_offset:node.end_col_offset])


def _unexpected(src, node) -> FixtureError:
    text = src[node.col_offset:node.end_col_offset]
    return FixtureError(f"unexpected {text!r} in scalar literal")


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
