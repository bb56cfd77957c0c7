"""Laurent potentials over the Novikov field and their critical points.

A potential here is a finite Laurent polynomial in torus variables whose
monomials carry nonnegative energies.  Critical points over the valued
field are found the way one solves such systems by hand: read candidate
valuation vectors off the balancing condition of the Newton polytopes,
solve the leading-order system exactly over the coefficient field, then
lift T-adically by Newton iteration.  Roots are read off the squarefree
radical of each eliminant, in exact arithmetic only: while its degree is
>= 3 it is split by a rational factor of degree 1 or 2, found among the
finitely many candidates that Gauss's lemma leaves (the rational-root
theorem, and Kronecker's method for quadratics), and every factor is
solved by the formula.  A radical with no such factor is not recognized;
when it has none modulo a small prime either, it is rejected before any
candidate is tried.  Quadratic irrationalities trigger an automatic base
change to the matching quadratic field.

Four rules keep the solve from computing anything twice, or in fractions:

* Integer arithmetic over Q.  Polynomials divide through the field's
  exact ``quotient``, an ``int`` whenever the division is exact in Z, so
  the subresultant PRS divides by g*h^delta in integers; gcds run on
  primitive integer polynomials (a pseudo-remainder sequence, each
  remainder divided by its content) and the radical is kept primitive;
  tropical selections are weighed in integers, det times the weight.
* One monomial table per point.  A table evaluates every term c*T^e*y^a
  once, from the exact monomials c*T^e built once per root field and
  call; the value, the logarithmic derivatives and the logarithmic
  Hessian (symmetric: n(n+1)/2 sums) are weighted sums over that table
  (weights 1, a_i, a_i*a_j - delta_ij*a_i).  Each Newton iterate builds
  one table for its residuals and Jacobian, and the lifted point one
  more for its value and Hessian.
* One weighing per tropical candidate.  The minimal weights mu and the
  leading parts found when a candidate is accepted are the ones its
  leading system and lift use, and its points share one working
  precision, the shifts T^u and the unshifts T^-mu.
* One pass over the tropical candidates, whatever the field, one leading
  system per candidate and one lift per point.  The system (its
  eliminant and the columns that back-substitute) is built once over the
  field of the potential; only its roots and the lifted coordinates live
  in the root field.  The first leading root that needs sqrt(d) switches
  the root field to Q(sqrt d) in place: the roots of that candidate are
  extracted again from the same eliminant, and later candidates are
  solved in Q(sqrt d) directly.  Points are lifted only once every
  candidate is solved, in the final root field, the rational roots found
  before the switch coerced into it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InsufficientCutoff,
    NotRepresentable,
    StructureError,
    WorkbenchError,
)
from .novikov import (
    NovikovScalar,
    QuadraticField,
    Rationals,
    _RATIONALS,
    _exact,
    _integer,
    _lowest,
    _ratio,
    _scalar,
    _squarefree_decompose,
    field_power,
    format_scalar,
)

__all__ = [
    "NovikovLaurentPolynomial",
    "MomentPolytope",
    "ToricPotential",
    "CriticalPoint",
    "FiberPoint",
    "HessianReport",
    "MorseCountVerdict",
    "DegenerateRootWarning",
    "critical_points",
    "hessian",
    "build_toric_potential",
    "u_of_c",
    "morse_count_check",
]

# Effectively-exact cutoff for monomial prefactors; multiplication takes
# the min with the other operand's window, so this never cuts anything.
_EXACT = 10**9


class DegenerateRootWarning(UserWarning):
    """A leading-order root with singular Jacobian was found and skipped."""


class _ExtensionNeeded(Exception):
    # internal: roots over the rationals need sqrt(d); d squarefree
    def __init__(self, d: int):
        super().__init__(f"roots require the quadratic field with d={d}")
        self.d = d


# -- determinants ---------------------------------------------------------


def _det(mat):
    """Determinant over a commutative ring, by cofactor expansion.

    The matrices are n x n for n variables (Cramer steps, Hessians,
    leading Jacobians, unimodularity checks), so the first row is simply
    expanded.  Its exact zeros are skipped; when the whole row is zero its
    first entry is the determinant.  A Novikov zero is O(T^c), not exact:
    its piece carries that error into the cutoff.  A 2 x 2 matrix is
    expanded directly, the same pieces in the same order.
    """
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        (a, b), (c, d) = mat
        out = a * d if a or isinstance(a, NovikovScalar) else None
        if b or isinstance(b, NovikovScalar):
            out = -(b * c) if out is None else out + -(b * c)
        return a if out is None else out
    out = None
    for j, entry in enumerate(mat[0]):
        if not entry and not isinstance(entry, NovikovScalar):
            continue
        piece = entry * _det([row[:j] + row[j + 1:] for row in mat[1:]])
        if j % 2:
            piece = -piece
        out = piece if out is None else out + piece
    return mat[0][0] if out is None else out


def _cramer(rows, rhs):
    """Cramer's rule by ``_det``: det, and each det with column i = rhs."""
    rows = [list(row) for row in rows]
    dets = [
        _det([row[:i] + [b] + row[i + 1:] for row, b in zip(rows, rhs)])
        for i in range(len(rows))
    ]
    return _det(rows), dets


# -- Laurent polynomials ---------------------------------------------------


class NovikovLaurentPolynomial:
    """Finite sum of coeff * T^energy * y^a with all energies >= 0.

    Terms are keyed by (energy, exponent vector) with coefficients in the
    ground field; the object is exact, no cutoff is attached.  Cutoffs
    appear only when a polynomial is evaluated at Novikov scalars.
    """

    __slots__ = ("field", "variables", "_terms")

    def __init__(self, field, variables, terms):
        self.field = field
        self.variables = tuple(variables)
        self._terms = dict(sorted(terms.items()))

    @classmethod
    def make(cls, field, variables, entries):
        """Normalize (energy, exponents, coefficient) triples."""
        if isinstance(variables, int):
            variables = tuple(f"y{i + 1}" for i in range(variables))
        else:
            variables = tuple(variables)
        if not variables:
            raise StructureError("a potential needs at least one variable")
        n = len(variables)
        acc: dict = {}
        for energy, exponents, coeff in entries:
            energy = _exact(energy)
            if energy < 0:
                raise StructureError(
                    f"negative energy {energy} violates the Gromov bound"
                )
            a = tuple(_integer(x) for x in exponents)
            if len(a) != n:
                raise StructureError(
                    f"exponent vector {a} does not match {n} variables"
                )
            c = field.coerce(coeff)
            key = (energy, a)
            if key in acc:
                acc[key] = acc[key] + c
            else:
                acc[key] = c
        acc = {k: v for k, v in acc.items() if not field.is_zero(v)}
        return cls(field, variables, acc)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def terms(self):
        """Sorted (energy, exponents, coefficient) triples."""
        return [(e, a, c) for (e, a), c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __neg__(self):
        return NovikovLaurentPolynomial(
            self.field, self.variables,
            {k: -c for k, c in self._terms.items()},
        )

    def log_derivative(self, i: int) -> "NovikovLaurentPolynomial":
        """y_i d/dy_i, acting termwise as multiplication by a_i."""
        if not 0 <= i < self.nvars:
            raise StructureError(f"variable index {i} out of range")
        out = {}
        for (e, a), c in self._terms.items():
            if a[i]:
                out[(e, a)] = self.field.coerce(a[i]) * c
        return NovikovLaurentPolynomial(self.field, self.variables, out)

    def monomial_values(self, point):
        """Every term c*T^e*y^a evaluated once at a point.

        Returns the table ``(field, cutoff, entries)``: the field of the
        point, its least coordinate cutoff and one (exponents, value) pair
        per term.  Negative exponents invert the coordinate, so those
        entries must be nonzero below their cutoff.  Coefficients are
        coerced into the field of the point, which lets a rational
        potential be evaluated at points living in a quadratic extension.
        """
        point = tuple(point)
        if len(point) != self.nvars:
            raise StructureError(
                f"expected {self.nvars} coordinates, got {len(point)}"
            )
        for z in point:
            if not isinstance(z, NovikovScalar):
                raise StructureError("evaluation points are Novikov scalars")
        if not point:
            raise StructureError("a potential needs at least one variable")
        return _table(_term_monomials(self, point[0].field), point)

    def change_of_variables(self, matrix) -> "NovikovLaurentPolynomial":
        """Monomial substitution y_i = prod_j z_j^{M[i][j]}, M in GL(n, Z)."""
        n = self.nvars
        m = [[_integer(x) for x in row] for row in matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise StructureError("substitution matrix must be n x n")
        if abs(_det(m)) != 1:
            raise StructureError("substitution matrix must be unimodular")
        entries = []
        for e, a, c in self.terms():
            new_a = tuple(
                sum(a[i] * m[i][j] for i in range(n)) for j in range(n)
            )
            entries.append((e, new_a, c))
        return NovikovLaurentPolynomial.make(self.field, self.variables, entries)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for e, a, c in self.terms():
            lit = format_scalar(
                NovikovScalar.monomial(self.field, e + 1, e, c)
            )
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(self.variables, a)
                if k
            )
            # one monomial prints as one term: a coefficient that is a sum
            # comes bracketed by the field's format, so none is added here
            if mono and lit in ("1", "-1"):
                lit = lit[:-1] + mono  # unit coefficients print bare
            elif mono:
                lit = f"{lit}*{mono}"
            pieces.append(lit)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self):
        return f"<laurent potential {self}>"


def _term_monomials(pot, field):
    """(exponents, c*T^e) of every term, c coerced into ``field``."""
    return [(a, NovikovScalar.monomial(field, _EXACT, e, c))
            for (e, a), c in pot._terms.items()]


def _table(terms, point):
    """The monomial table of ``monomial_values`` from ``_term_monomials``."""
    field = point[0].field
    cutoff = min(z.cutoff for z in point)
    powers = {(j, 1): z for j, z in enumerate(point)}

    def power(j, k):
        # k != 0; y_j^-1 is inverted once, on first use
        if (j, k) not in powers:
            if k == -1:
                powers[(j, k)] = point[j].invert()
            else:
                step = 1 if k > 0 else -1
                powers[(j, k)] = power(j, k - step) * power(j, step)
        return powers[(j, k)]

    entries = []
    for a, term in terms:
        for j, k in enumerate(a):
            if k:
                term = term * power(j, k)
        entries.append((a, term))
    return field, cutoff, entries


def _weighted_sum(table, weight):
    """Sum of weight(a) * value over a monomial table, cut at its cutoff.

    Zero weights are skipped and the others scale the stored numerators
    directly, on the value's lattice and over its coefficient denominator:
    a product with a constant scalar would lower the cutoff of terms with
    negative valuation.  A nonzero ``int`` weight keeps the terms sorted
    and nonzero; ``_lowest`` removes a factor it shares with ``cden``.
    """
    field, cutoff, entries = table
    total = NovikovScalar.zero(field, _EXACT)
    for a, value in entries:
        w = weight(a)
        if not w:
            continue
        if w != 1:
            value = _scalar(field, value.lattice, *_lowest(value.cden, tuple(
                [(k, w * c) for k, c in value.lterms])))
        total = total + value
    if total.cutoff > cutoff:
        total = total.truncate(cutoff)
    return total


def _log_hessian(table, n):
    """y_i y_j d^2W/dy_i dy_j from a table: weights a_i a_j - delta_ij a_i.

    The matrix is symmetric: entry (j, i) is entry (i, j), summed once.
    """
    upper = {(i, j): _weighted_sum(
        table, lambda a, i=i, j=j: a[i] * (a[j] - (i == j)))
        for i in range(n) for j in range(i, n)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n))
                 for i in range(n))


# -- dense univariate polynomials over a coefficient field -----------------


class _Poly:
    """Dense univariate polynomial over the coefficient field (internal)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        is_zero = field.is_zero
        cut = len(coeffs)
        while cut and is_zero(coeffs[cut - 1]):
            cut -= 1
        self.field = field
        self.coeffs = list(coeffs[:cut])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = self.coeffs + [z] * (n - len(self.coeffs))
        b = other.coeffs + [z] * (n - len(other.coeffs))
        return _Poly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return _Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return _Poly.zero(self.field)
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _Poly(self.field, out)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return _Poly.zero(field), _Poly(field, rem)
        quo = [field.zero] * (dq + 1)
        quotient, lead = field.quotient, other.coeffs[-1]
        for k in range(dq, -1, -1):
            # strip high-order residue one degree at a time
            top = rem[k + other.degree]
            if field.is_zero(top):
                continue
            f = quotient(top, lead)
            quo[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * b
        return _Poly(field, quo), _Poly(field, rem)

    def derivative(self):
        return _Poly(self.field,
                     [i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        quotient, lead = self.field.quotient, self.coeffs[-1]
        return _Poly(self.field, [quotient(c, lead) for c in self.coeffs])

    def eval(self, x):
        field = self.field
        acc = field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"<poly deg {self.degree}>"


def _pseudo_remainder(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b on coefficient lists, lowest
    first, with no division: the entries are scalars or polynomials.  An
    ``a`` of lower degree is returned as it is."""
    r, db = list(a), len(b) - 1
    for k in range(len(a) - 1 - db, -1, -1):
        neg = -r.pop()
        r = [x * b[-1] for x in r]
        if neg:
            for j in range(db):
                r[k + j] = r[k + j] + neg * b[j]
    return r


def _primitive(p: _Poly) -> _Poly:
    """p up to a unit: over Q the integer polynomial with coprime
    coefficients and positive leading coefficient, else p made monic."""
    if not isinstance(p.field, Rationals) or p.is_zero():
        return p.monic()
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return _Poly(p.field, [c // g for c in ints])


def _poly_gcd(a: _Poly, b: _Poly) -> _Poly:
    """The monic gcd, by a primitive pseudo-remainder sequence: over Q on
    integer polynomials, each remainder divided by its content, over
    Q(sqrt d) on monic ones (Euclid's algorithm)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_Poly(a.field, _pseudo_remainder(a.coeffs,
                                                              b.coeffs)))
    return a.monic()


def _in_field(p: _Poly, field) -> _Poly:
    """The same polynomial with its coefficients coerced into ``field``."""
    if p.field == field:
        return p
    return _Poly(field, [field.coerce(c) for c in p.coeffs])


def _strip_origin(p: _Poly):
    """Split off the largest power of x dividing p."""
    k = next((k for k, c in enumerate(p.coeffs) if not p.field.is_zero(c)),
             len(p.coeffs))
    return _Poly(p.field, p.coeffs[k:]), k


# -- exact root extraction -------------------------------------------------


def _sqrt_or_extend(field, disc):
    """Square root of a field element, or the extension that would hold it."""
    s = field.sqrt(disc)
    if s is not None:
        return s
    if isinstance(field, Rationals):
        d, _ = _squarefree_decompose(disc.numerator * disc.denominator)
        raise _ExtensionNeeded(d)
    raise NotRepresentable(
        f"square root of {field.format(disc)} does not lie in {field!r} "
        "(no tower of quadratic extensions is attempted)"
    )


def _multiplicity(p: _Poly, root):
    """How many times x - root divides p."""
    lin = _Poly(p.field, [-root, p.field.one])
    m = 0
    while True:
        p, r = p.divmod(lin)
        if not r.is_zero():
            return m
        m += 1


def _formula_roots(p: _Poly):
    """Roots of a squarefree p of degree at most 2, by the formula."""
    field = p.field
    quotient = field.quotient
    if p.degree < 2:
        return [quotient(-p.coeffs[0], p.coeffs[1])] if p.degree == 1 else []
    c, b, a = p.coeffs
    s = _sqrt_or_extend(field, b * b - field.coerce(4) * a * c)
    twice = field.coerce(2) * a
    return [quotient(-b + s, twice), quotient(-b - s, twice)]


def _divisors(n: int):
    """The positive divisors of a nonzero int, by trial division."""
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


_PRIMES = (5, 7, 11, 13)    # the first not dividing lead(r) certifies


def _certifying_prime(r):
    """A prime modulo which the integer polynomial r has no factor of
    degree 1 or 2, or None.

    Every irreducible of degree 1 or 2 over F_p divides x^(p^2) - x, so
    gcd(r, x^(p^2) - x) = 1 over F_p says that r mod p has none; a factor
    of r over Q of degree 1 or 2 would reduce to one, as p does not divide
    its leading coefficient, a divisor of lead(r) (Gauss's lemma).
    """
    p = next((p for p in _PRIMES if r[-1] % p), None)
    if p is None:
        return None

    def mod(a, b):      # a mod b over F_p, up to a unit
        a = [c % p for c in _pseudo_remainder(a, b)]
        while a and not a[-1]:
            a.pop()
        return a

    inv = pow(r[-1], -1, p)
    m = [c * inv % p for c in r]      # monic, so mod m is exact
    power = [1]
    for _ in range(p * p):      # x^(p^2) mod m, one shift at a time
        power = mod([0] + power, m)
    a, b = m, mod([c - (i == 1) for i, c in enumerate(power + [0, 0])], m)
    while b:
        a, b = b, mod(a, b)
    return p if len(a) == 1 else None


def _split_factor(p: _Poly):
    """(factor, p / factor) for a factor of degree 1 or 2 over Q.

    p is squarefree: over Q a primitive integer polynomial, over Q(sqrt d)
    monic.  Its factors over Q are those of R: p itself over Q, else the
    primitive gcd of the polynomials of the rational parts and of the
    sqrt(d) parts of p's coefficients.  R(0) = 0 gives the factor x.
    Otherwise ``_certifying_prime`` may prove that R has no factor of
    degree 1 or 2; if not, by Gauss's lemma such a factor is an integer
    polynomial whose leading coefficient divides lead(R), whose constant
    term divides R(0) and whose value at 1 divides R(1).  The roots s/t
    with s | R(0) and t | lead(R) are tried, then the quadratics
    a*x^2 + b*x + c with a | lead(R), c | R(0) and a + b + c | R(1), each
    list of divisors formed once; the first that divides R exactly is
    split off, over Q(sqrt d) monic.  Over Q it is primitive, as a
    candidate's multiples come after it, so the rest is too.
    """
    field = p.field
    if isinstance(field, Rationals):
        big = p
    else:
        big = _primitive(_poly_gcd(_Poly(_RATIONALS, [c.a for c in p.coeffs]),
                                   _Poly(_RATIONALS, [c.b for c in p.coeffs])))
    lead, r0, r1 = big.coeffs[-1], big.coeffs[0], sum(big.coeffs)
    unknown = (f"a degree-{p.degree} factor of the leading system has roots "
               f"not recognized over {field!r}")
    prime = _certifying_prime(big.coeffs) if r0 else None
    if prime is not None:
        raise NotRepresentable(
            f"{unknown}: it has no factor of degree 1 or 2 modulo {prime}")

    def candidates():
        leads, zeros = _divisors(lead), _divisors(r0)
        for t, e, s in itertools.product(leads, zeros, (1, -1)):
            yield [-s * e, t]
        for a, e, s, f, w in itertools.product(
                leads, zeros, (1, -1), _divisors(r1), (1, -1)):
            yield [s * e, w * f - a - s * e, a]

    for cand in candidates() if r0 else [[0, 1]]:
        cand = _Poly(_RATIONALS, cand)
        rest, rem = big.divmod(cand)
        if rem.is_zero():
            if isinstance(field, Rationals):
                return cand, rest
            factor = _in_field(cand.monic(), field)
            return factor, p.divmod(factor)[0]
    raise NotRepresentable(unknown)


def _exact_roots(p: _Poly):
    """All roots of p in the coefficient field, with multiplicities.

    One exact path for every degree: with g = gcd(p, p'), only the radical
    p/g is solved, over Q as a primitive integer polynomial and over
    Q(sqrt d) monic.  While it has degree >= 3, ``_split_factor`` splits
    off a factor of degree 1 or 2 with rational coefficients; each
    factor, and what is left, is solved by the formula.  A root r has
    multiplicity 1 + its multiplicity in g.  Raises _ExtensionNeeded over
    the rationals when a root generates a quadratic extension, and
    NotRepresentable when a root lies outside the field or the radical has
    degree >= 3 and no rational factor of degree 1 or 2.  Roots come
    sorted by ``field.format``.
    """
    field = p.field
    g = _poly_gcd(p, p.derivative())
    work = _primitive(p.divmod(g)[0])
    roots = []
    while work.degree >= 3:
        factor, work = _split_factor(work)
        roots += _formula_roots(factor)
    roots += _formula_roots(work)
    out = [(r, 1 + _multiplicity(g, r)) for r in roots]
    out.sort(key=lambda rm: field.format(rm[0]))
    return out


# -- tropical candidates and leading systems -------------------------------


def _vec(u) -> str:
    return "(" + ", ".join(str(x) for x in u) + ")"


def _tropical_candidates(eqs):
    """Valuation vectors balancing every equation's Newton polytope.

    For each equation pick a pair of its terms, impose equal weight, and
    solve the resulting square rational system by Cramer's rule; a unique
    solution that makes the minimum weight of every equation achieved at
    least twice is a candidate.  A singular selection is consistent, and
    flags a potentially positive-dimensional tropical set, when no row is
    zero (two terms of one exponent differ in energy) and every numerator
    vanishes; in at most two variables that is exact.  Each candidate u
    comes sorted as (u, mus, leads): per equation its minimal weight and
    its leading monomials {exponents: coefficient}.  Energies are scaled
    to integers once, and each solution u = dets / det is weighed once,
    as det times the weight, in integers; u and the mus are formed only
    for a candidate.  Two terms of one equation and equal weight have
    distinct exponents.
    """
    scale = math.lcm(*(e.denominator for eq in eqs for e, _, _ in eq.terms()))
    supports = [[(e.numerator * (scale // e.denominator), a, c)
                 for e, a, c in eq.terms()] for eq in eqs]
    pair_lists = [
        list(itertools.combinations(range(len(sup)), 2)) for sup in supports
    ]
    if any(not pairs for pairs in pair_lists):
        # an equation with a single monomial never vanishes on the torus
        return [], False
    seen = {}
    flat = False
    for combo in itertools.product(*pair_lists):
        rows, rhs = [], []
        for i, (s, t) in enumerate(combo):
            es, as_, _ = supports[i][s]
            et, at, _ = supports[i][t]
            rows.append([x - y for x, y in zip(as_, at)])
            rhs.append(et - es)
        det, dets = _cramer(rows, rhs)
        if not det:
            if all(any(row) for row in rows) and not any(dets):
                flat = True
            continue
        g = math.gcd(det, *dets) if det > 0 else -math.gcd(det, *dets)
        key = (det // g, *(d // g for d in dets))
        if key in seen:
            continue
        seen[key] = None    # until it is accepted
        det, *dets = key
        mins, leads = [], []
        for sup in supports:
            ws = [e * det + sum(k * d for k, d in zip(a, dets))
                  for e, a, _ in sup]
            mu = min(ws)
            lead = {a: c for (_, a, c), w in zip(sup, ws) if w == mu}
            if len(lead) < 2:
                break
            mins.append(mu)
            leads.append(lead)
        else:
            den = det * scale
            seen[key] = (tuple(_ratio(d, den) for d in dets),
                         [_ratio(m, den) for m in mins], leads)
    return sorted(filter(None, seen.values()), key=lambda c: c[0]), flat


def _bicols(lead, field):
    """Bivariate leading part as z2-degree columns of polynomials in z1."""
    lo1 = min(a[0] for a in lead)
    lo2 = min(a[1] for a in lead)
    d1 = max(a[0] for a in lead) - lo1
    d2 = max(a[1] for a in lead) - lo2
    cols = []
    for j in range(d2 + 1):
        coeffs = [field.zero] * (d1 + 1)
        for (a1, a2), c in lead.items():
            if a2 - lo2 == j:
                coeffs[a1 - lo1] = c
        cols.append(_Poly(field, coeffs))
    return cols


def _resultant(a, b):
    """det Syl(a, b) of two z2-column lists, by the subresultant PRS.

    Column j is the coefficient of z2^j, a polynomial in z1; the last one
    is nonzero.  Brown-Traub's PRS over K[z1] divides each pseudo-remainder
    lc(b)^(delta+1) * a mod b exactly by g * h^delta (g = lc(a), h the
    previous scale, both 1 at first) and takes the sign from the degrees:
    the Sylvester determinant itself, in time polynomial in the degrees.
    The resultant of a part a0 without z2 is a0^deg(b).
    """
    g = h = one = _Poly(a[0].field, [a[0].field.one])
    sign = 1
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))

    def power(p, k):
        return math.prod([p] * k, start=one)

    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        sign *= (-1) ** (da * db)
        r = _pseudo_remainder(a, b)
        while r and not r[-1]:
            r.pop()
        if not r:
            return _Poly.zero(one.field)
        scale = g * power(h, delta)
        a, b, g = b, [x.divmod(scale)[0] for x in r], b[-1]
        h = power(g, delta).divmod(power(h, delta - 1))[0] if delta else h
    out = power(b[0], len(a) - 1).divmod(power(h, len(a) - 2))[0]
    return out if sign > 0 else -out


def _leading_system(leads, field, n):
    """Eliminant in z1 and back-substitution columns of a leading system.

    Built once per candidate over ``field``.  In two variables the
    eliminant is the resultant of the two leading parts in z2, over their
    z2-columns; in one variable it is the single column of the leading
    part itself and nothing is back-substituted.
    """
    if n == 1:
        return _bicols({(*a, 0): c for a, c in leads[0].items()}, field)[0], ()
    cols = (_bicols(leads[0], field), _bicols(leads[1], field))
    if len(cols[0]) == len(cols[1]) == 1:
        raise StructureError(
            "positive-dimensional leading system: "
            "no leading equation constrains the second variable"
        )
    elim = _resultant(*cols)
    if elim.is_zero():
        raise StructureError(
            "positive-dimensional leading system: the leading curves share "
            "a component"
        )
    return _strip_origin(elim)[0], cols


def _leading_roots(system, root):
    """Leading roots in the field ``root``, each with a multiplicity hint."""
    elim, cols = system
    elim = _in_field(elim, root)
    if not cols:
        return [((r,), m) for r, m in _exact_roots(elim)]
    cols = [[_in_field(col, root) for col in c] for c in cols]
    sols = []
    for r, _m in _exact_roots(elim):
        # a leading part without z2 vanishes here: its power is the eliminant
        g1, g2 = (_Poly(root, [col.eval(r) for col in c]) for c in cols)
        if g1.is_zero() and g2.is_zero():
            raise StructureError(
                "positive-dimensional leading system: a coordinate line of "
                "leading solutions"
            )
        h, _ = _strip_origin(_poly_gcd(g1, g2))
        if h.degree < 1:
            continue    # spurious eliminant root
        for s, ms in _exact_roots(h):
            sols.append(((r, s), ms))
    return sols


# -- critical points -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A lifted critical point, exact below the cutoff.

    ``coordinates`` are the actual critical coordinates; ``units`` are
    their valuation-zero parts, so that coordinate i equals
    T^{valuations[i]} * units[i].  ``lift_schedule`` records the residual
    valuations observed while Newton lifting, and ``residual_valuation``
    bounds the final residual of the critical equations from below.
    """

    coordinates: tuple
    units: tuple
    valuations: tuple
    value: NovikovScalar
    hessian: tuple
    hessian_det: NovikovScalar
    residual_valuation: int | Fraction
    lift_schedule: tuple


@dataclass(frozen=True, eq=False)
class HessianReport:
    matrix: tuple
    determinant: NovikovScalar
    nondegenerate: bool


def _leading_jacobian(leads, z0, field):
    """Row i holds a_j * c * z0^a summed over the leading part i: each
    monomial is formed once and scaled by its ``int`` exponents."""
    rows = []
    for lead in leads:
        row = [field.zero] * len(z0)
        for a, c in lead.items():
            mono = c
            for k, ak in enumerate(a):
                if ak:
                    mono = mono * field_power(field, z0[k], ak)
            for j, aj in enumerate(a):
                if aj:
                    row[j] = row[j] + aj * mono
        rows.append(row)
    return rows


def _lift_points(pot, terms, u, mus, roots, cutoff, field):
    """Newton-lift the nondegenerate leading roots of one candidate.

    ``field`` holds the roots and coordinates, ``terms`` are the
    ``_term_monomials`` over it.  The points share the shifts T^u_j, the
    unshifts T^-mu_i and the working precision cutoff + pad, with
    pad = max(0, -min u, -min mus): a term with a_i != 0 lies in the i-th
    log-derivative, so its weight is at least mu_i, and any other term has
    energy >= 0.  Each iterate reads residuals (weights a_i) and Jacobian
    (weights a_i a_j) off one monomial table.
    """
    n = pot.nvars
    work = cutoff + max(0, -min(u), -min(mus))
    shifts = [NovikovScalar.monomial(field, _EXACT, s) for s in u]
    unshift = [NovikovScalar.monomial(field, _EXACT, -m) for m in mus]

    def derivative(table, *idx):
        return _weighted_sum(table, lambda a: math.prod(a[k] for k in idx))

    def lift(z0):
        z = [NovikovScalar.constant(field, work, c) for c in z0]
        schedule = []
        prev = None
        for _ in range(80):
            table = _table(terms, [shifts[j] * z[j] for j in range(n)])
            res = [unshift[i] * derivative(table, i) for i in range(n)]
            if all(r.is_zero() for r in res):
                schedule.append(min(r.cutoff for r in res))
                break
            val = min(r.valuation() for r in res)
            schedule.append(val)
            if val <= 0:
                raise StructureError("leading-order solution does not "
                                     "cancel the leading residual")
            if prev is not None and val < min(2 * prev, work):
                raise StructureError(
                    "Newton lifting failed to double the correct range; "
                    "the leading root appears degenerate")
            prev = val
            jac = [
                [unshift[i] * derivative(table, i, j) for j in range(n)]
                for i in range(n)
            ]
            # critical_points lifts only roots whose leading Jacobian is
            # invertible, so a singular Jacobian here is a broken
            # invariant; otherwise Cramer's rule gives the unique correction
            det, dets = _cramer(jac, res)
            if det.is_zero():
                raise StructureError(
                    "Newton step has a singular Jacobian; the leading root "
                    "appears degenerate")
            inv = det.invert()
            z = [z[j] - z[j] * (dets[j] * inv) for j in range(n)]
        else:
            raise StructureError("Newton lifting did not terminate")

        # the loop only stops on a zero residual, which is that of the final z
        res_val = min(m + (r.cutoff if r.is_zero() else r.valuation())
                      for m, r in zip(mus, res))
        if res_val < cutoff:
            raise StructureError(
                f"lifted point misses the residual bound: valuation {res_val}")

        units = tuple(zj.truncate(cutoff) for zj in z)
        coords = tuple((shifts[j] * z[j]).truncate(cutoff) for j in range(n))
        for name, c in zip(pot.variables, coords):
            if c.is_zero():
                raise InsufficientCutoff(
                    f"coordinate {name} of the critical point at valuation "
                    f"{_vec(u)} vanishes below T^{cutoff}; raise the cutoff")
        table = _table(terms, coords)
        value = _weighted_sum(table, lambda a: 1).truncate(cutoff)
        hess = tuple(tuple(h.truncate(cutoff) for h in row)
                     for row in _log_hessian(table, n))
        det = _det(hess).truncate(cutoff)
        if det.is_zero():
            raise InsufficientCutoff(
                "Hessian determinant of a lifted point is invisible below "
                f"T^{cutoff}; raise the cutoff")
        return CriticalPoint(
            coordinates=coords, units=units, valuations=tuple(u),
            value=value, hessian=hess, hessian_det=det,
            residual_valuation=res_val, lift_schedule=tuple(schedule))

    return [lift(z0) for z0 in roots]


def critical_points(pot, cutoff):
    """All torus critical points of a potential, exact below the cutoff.

    ``pot`` is a Laurent potential or a ToricPotential.  Tropicalization
    proposes valuation vectors, each candidate's leading system is built
    once over the coefficient field and its roots are extracted exactly,
    and nondegenerate leading roots are Newton-lifted, one candidate at a
    time.  Over the rationals the first quadratic irrationality in the
    leading roots switches the root field to the matching quadratic
    field: the roots of that candidate are extracted again from the same
    eliminant, and every later candidate is solved there directly.  Every
    point is lifted once, after all candidates are solved, in the final
    root field, so the returned scalars may live in an extension; the
    term monomials are built once in it, and each candidate's weights,
    shifts and working precision once for all its points.  Degenerate
    leading roots are reported as warnings, once each, never lifted.
    """
    pot = _potential_of(pot)
    cutoff = _exact(cutoff)
    if cutoff <= 0:
        raise StructureError("cutoff must be positive")
    field = pot.field
    n = pot.nvars
    if n > 2:
        raise StructureError("critical points need at most two variables")
    eqs = [pot.log_derivative(i) for i in range(n)]
    for i, eq in enumerate(eqs):
        if eq.is_zero():
            raise StructureError(
                "positive-dimensional critical locus: the potential does "
                f"not move in {pot.variables[i]}"
            )
    cands, flat = _tropical_candidates(eqs)
    if not cands and flat:
        raise StructureError(
            "positive-dimensional leading system: tropical balancing "
            "admits a continuum of valuation vectors"
        )
    root = field
    found = []      # (u, mus, nondegenerate leading roots) per candidate

    def lift():
        terms = _term_monomials(pot, root)
        return [p for u, mus, roots in found for p in
                _lift_points(pot, terms, u, mus, roots, cutoff, root)]

    try:
        for u, mus, leads in cands:
            system = _leading_system(leads, field, n)
            try:
                sols = _leading_roots(system, root)
            except _ExtensionNeeded as need:
                root = QuadraticField(need.d)
                sols = _leading_roots(system, root)
            sols.sort(key=lambda sm: tuple(root.format(c) for c in sm[0]))
            roots = []
            for z0, hint in sols:
                jac0 = _leading_jacobian(leads, z0, root)
                if not root.is_zero(_det(jac0)):
                    roots.append(z0)
                    continue
                coords = ", ".join(root.format(c) for c in z0)
                warnings.warn(
                    f"degenerate leading root ({coords}) at valuation "
                    f"{_vec(u)} (multiplicity hint {hint}); not lifted",
                    DegenerateRootWarning,
                    stacklevel=2,
                )
            if roots:
                found.append((u, mus, roots))
    except WorkbenchError:
        # a point of an earlier candidate that cannot be lifted is the
        # first error in candidate order, and only its lift tells: the
        # lifted coordinates may vanish below the cutoff, or the residual
        # miss its bound
        lift()
        raise
    points = lift()
    points.sort(
        key=lambda p: (
            p.valuations,
            tuple(format_scalar(c) for c in p.coordinates),
        )
    )
    return points


def hessian(pot, point):
    """Logarithmic Hessian of a potential at a point, with a Morse verdict.

    ``pot`` is a Laurent potential or a ToricPotential; ``point`` is a
    CriticalPoint or a tuple of Novikov scalars.  When the determinant
    vanishes below its window the verdict is degenerate.
    """
    pot = _potential_of(pot)
    if isinstance(point, CriticalPoint):
        coords = point.coordinates
    else:
        coords = tuple(point)
    mat = _log_hessian(pot.monomial_values(coords), pot.nvars)
    det = _det(mat)
    return HessianReport(matrix=mat, determinant=det,
                         nondegenerate=not det.is_zero())


# -- moment polytopes and toric potentials ---------------------------------


def _fm_feasible(rows, n):
    """Feasibility of {u : <row, u> + c >= 0} by Fourier-Motzkin."""
    cur = rows
    for var in range(n):
        pos, neg, rest = [], [], []
        for co, c in cur:
            if co[var] > 0:
                pos.append((co, c))
            elif co[var] < 0:
                neg.append((co, c))
            else:
                rest.append((co, c))
        new = list(rest)
        for pco, pc in pos:
            for nco, nc in neg:
                pa, na = pco[var], -nco[var]
                co = tuple(
                    Fraction(x, pa) + Fraction(y, na) for x, y in zip(pco, nco)
                )
                new.append((co, Fraction(pc, pa) + Fraction(nc, na)))
        cur = new
    return all(c >= 0 for _, c in cur)


class MomentPolytope:
    """Rational polytope cut out by primitive integer rays and offsets.

    The first ``dim`` rays (or the designated ``basis`` indices) must form
    a unimodular basis of the lattice; they are the chart in which toric
    potentials are written.
    """

    __slots__ = ("rays", "offsets", "basis")

    def __init__(self, rays, offsets, basis=None):
        rays = tuple(tuple(_integer(x) for x in ray) for ray in rays)
        if not rays:
            raise StructureError("a polytope needs at least one ray")
        n = len(rays[0])
        if n < 1:
            raise StructureError("rays must have positive dimension")
        for ray in rays:
            if len(ray) != n:
                raise StructureError("rays must share one dimension")
            g = 0
            for x in ray:
                g = math.gcd(g, abs(x))
            if g != 1:
                raise StructureError(f"ray {ray} is not primitive")
        offsets = tuple(_exact(x) for x in offsets)
        if len(offsets) != len(rays):
            raise StructureError("one offset per ray")
        if basis is None:
            basis = tuple(range(n))
        else:
            basis = tuple(_integer(i) for i in basis)
        if len(basis) != n or len(set(basis)) != n:
            raise StructureError(f"basis must pick {n} distinct rays")
        for i in basis:
            if not 0 <= i < len(rays):
                raise StructureError(f"basis index {i} out of range")
        bmat = [rays[i] for i in basis]
        if abs(_det(bmat)) != 1:
            raise StructureError("designated basis rays are not unimodular")
        self.rays = rays
        self.offsets = offsets
        self.basis = basis
        if not _fm_feasible(list(zip(rays, offsets)), n):
            raise StructureError("empty moment polytope")

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    def support(self, u, i: int):
        """Affine support number <v_i, u> + lambda_i."""
        ray = self.rays[i]
        return _exact(sum(a * x for a, x in zip(ray, u)) + self.offsets[i])

    def supports(self, u):
        return tuple(self.support(u, i) for i in range(len(self.rays)))

    def __repr__(self):
        return (
            f"<moment polytope, {len(self.rays)} rays in dimension {self.dim}>"
        )


@dataclass(frozen=True, eq=False)
class ToricPotential:
    """A toric potential with the polytope it was built from."""

    polytope: MomentPolytope
    potential: NovikovLaurentPolynomial


def build_toric_potential(polytope: MomentPolytope, field=None) -> ToricPotential:
    """Potential of a toric fixture from its moment polytope.

    Each ray contributes one monomial: the ray is expanded in the
    designated basis rays (by Cramer's rule, over their determinant +-1),
    and its energy is the offset corrected by the basis offsets so that
    the basis rays themselves enter at energy zero.
    """
    if field is None:
        field = Rationals()
    n = polytope.dim
    bmat = [[polytope.rays[i][k] for i in polytope.basis] for k in range(n)]
    entries = []
    for i, ray in enumerate(polytope.rays):
        det, dets = _cramer(bmat, ray)
        a = tuple(d * det for d in dets)    # det is +-1
        omega = _exact(polytope.offsets[i] - sum(
            aj * polytope.offsets[bj] for aj, bj in zip(a, polytope.basis)
        ))
        if omega < 0:
            raise StructureError(
                f"ray {ray} gets negative energy {omega}: the designated "
                "basis rays do not meet the polytope at a vertex"
            )
        entries.append((omega, a, field.one))
    pot = NovikovLaurentPolynomial.make(field, n, entries)
    return ToricPotential(polytope=polytope, potential=pot)


def _potential_of(obj) -> NovikovLaurentPolynomial:
    if isinstance(obj, ToricPotential):
        return obj.potential
    return obj


@dataclass(frozen=True, eq=False)
class FiberPoint:
    """Moment-map position of a critical point and its unit coordinates."""

    moment_point: tuple
    coordinates: tuple


def u_of_c(toric, point) -> FiberPoint:
    """Recenter a critical point: moment position plus unit coordinates.

    ``point`` is a ``CriticalPoint``.  The moment position solves
    support_i(u) = val(c_i) over the designated basis rays; the unit
    coordinates are its ``units``, T^{-val(c_i)} c_i.  The position must
    land in the interior of the polytope, otherwise the violated ray is
    reported.
    """
    poly = toric.polytope if isinstance(toric, ToricPotential) else toric
    if not isinstance(poly, MomentPolytope):
        raise StructureError(
            "u_of_c recenters against a MomentPolytope or ToricPotential, "
            f"not {type(toric).__name__}"
        )
    if not isinstance(point, CriticalPoint):
        raise StructureError(
            f"u_of_c recenters a CriticalPoint, not {type(point).__name__}"
        )
    vals = point.valuations
    n = poly.dim
    if len(vals) != n:
        raise StructureError("coordinate count does not match the polytope")
    rows = [poly.rays[i] for i in poly.basis]
    rhs = [v - poly.offsets[i] for v, i in zip(vals, poly.basis)]
    det, dets = _cramer(rows, rhs)
    u = tuple(_exact(d * det) for d in dets)    # det is +-1
    for i in range(len(poly.rays)):
        s = poly.support(u, i)
        if s <= 0:
            raise StructureError(
                f"recentered point {_vec(u)} is not interior: ray "
                f"{poly.rays[i]} has support {s}"
            )
    return FiberPoint(moment_point=u, coordinates=tuple(point.units))


# -- counting checks ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MorseCountVerdict:
    matches: bool
    expected: int
    total: int
    nondegenerate_count: int
    message: str
    points: tuple


def morse_count_check(pot, expected_dim: int, cutoff):
    """Compare the nondegenerate critical count with an expected dimension.

    Given a ToricPotential, every point is recentered with ``u_of_c`` and
    only points over the interior of the polytope count; the message names
    each excluded point.
    """
    expected = _integer(expected_dim)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateRootWarning)
        points = critical_points(pot, cutoff)
    degenerate = sum(
        1 for w in caught if issubclass(w.category, DegenerateRootWarning)
    )
    excluded = []
    if isinstance(pot, ToricPotential):
        interior = []
        for p in points:
            try:
                u_of_c(pot, p)
            except StructureError as exc:
                excluded.append(f"valuation {_vec(p.valuations)}: {exc}")
            else:
                interior.append(p)
        points = interior
    nondeg = len(points)
    total = nondeg + degenerate
    if degenerate == 0 and nondeg == expected:
        msg = "split-generation count matches"
        ok = True
    elif degenerate:
        msg = (
            f"potential is not Morse: {degenerate} degenerate leading "
            f"roots alongside {nondeg} nondegenerate points"
        )
        ok = False
    else:
        msg = (
            f"count mismatch: {nondeg} nondegenerate critical points, "
            f"expected {expected}"
        )
        ok = False
    if excluded:
        msg += f"; {len(excluded)} exterior point(s) not counted: " + "; ".join(
            excluded
        )
    return MorseCountVerdict(
        matches=ok,
        expected=expected,
        total=total,
        nondegenerate_count=nondeg,
        message=msg,
        points=tuple(points),
    )
