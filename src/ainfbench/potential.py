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
solved by the formula.  A radical with no such factor is not recognized.
Quadratic irrationalities trigger an automatic base change to the
matching quadratic field.

Three rules keep the solve from computing anything twice:

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

    The matrices here are tiny.  Each minor is expanded once, memoized on
    its columns (its rows are always the last ones), so an n x n matrix
    costs n * 2^n products rather than n!.  Exact zeros of the expanded
    row are skipped, which keeps the sparse Sylvester eliminants cheap;
    when the whole row is zero its first entry is the determinant.  A
    Novikov zero is O(T^c), not exact: its piece carries that error into
    the cutoff.  A 2 x 2 matrix, the common case (Cramer steps, Hessians),
    is expanded directly: the same pieces in the same order, no memo.
    """
    n = len(mat)
    if n == 2:
        (a, b), (c, d) = mat
        out = a * d if a or isinstance(a, NovikovScalar) else None
        if b or isinstance(b, NovikovScalar):
            out = -(b * c) if out is None else out + -(b * c)
        return a if out is None else out
    memo = {}

    def minor(cols):
        row = mat[n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        if cols in memo:
            return memo[cols]
        out = None
        for j, entry in enumerate(row[c] for c in cols):
            if not entry and not isinstance(entry, NovikovScalar):
                continue
            piece = entry * minor(cols[:j] + cols[j + 1:])
            if j % 2:
                piece = -piece
            out = piece if out is None else out + piece
        memo[cols] = out if out is not None else row[cols[0]]
        return memo[cols]

    return minor(tuple(range(n)))


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
    powers: dict = {}

    def power(j, k):
        if (j, k) not in powers:
            if k == 0:
                powers[(j, k)] = NovikovScalar.one(field, _EXACT)
            elif k > 0:
                powers[(j, k)] = power(j, k - 1) * point[j]
            else:
                if (j, -1) not in powers:
                    powers[(j, -1)] = point[j].invert()
                powers[(j, k)] = power(j, k + 1) * powers[(j, -1)]
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

    def scale(self, c):
        return _Poly(self.field, [c * x for x in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return _Poly.zero(field), _Poly(field, rem)
        quo = [field.zero] * (dq + 1)
        inv_lead = field.invert(other.coeffs[-1])
        for k in range(dq, -1, -1):
            # strip high-order residue one degree at a time
            top = rem[k + other.degree]
            if field.is_zero(top):
                continue
            f = top * inv_lead
            quo[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * b
        return _Poly(field, quo), _Poly(field, rem)

    def derivative(self):
        field = self.field
        return _Poly(
            field,
            [field.coerce(i) * c for i, c in enumerate(self.coeffs)][1:],
        )

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.invert(self.coeffs[-1]))

    def eval(self, x):
        field = self.field
        acc = field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"<poly deg {self.degree}>"


def _poly_gcd(a: _Poly, b: _Poly) -> _Poly:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def _in_field(p: _Poly, field) -> _Poly:
    """The same polynomial with its coefficients coerced into ``field``."""
    if p.field == field:
        return p
    return _Poly(field, [field.coerce(c) for c in p.coeffs])


def _strip_origin(p: _Poly):
    """Split off the largest power of x dividing p."""
    k = 0
    field = p.field
    coeffs = p.coeffs
    while k < len(coeffs) and field.is_zero(coeffs[k]):
        k += 1
    return _Poly(field, coeffs[k:]), k


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
    """Roots of a squarefree monic p of degree at most 2, by the formula."""
    field = p.field
    if p.degree < 2:
        return [-p.coeffs[0]] if p.degree == 1 else []
    c, b, _ = p.coeffs
    s = _sqrt_or_extend(field, b * b - field.coerce(4) * c)
    half = field.invert(field.coerce(2))
    return [(-b + s) * half, (-b - s) * half]


def _divisors(n: int):
    """The positive divisors of a nonzero int, by trial division."""
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _split_factor(p: _Poly):
    """(factor, p / factor) for a monic rational factor of degree 1 or 2.

    p is squarefree and monic.  Its factors over Q are those of R = p over
    Q, the gcd over Q of the polynomial of the rational parts of p's
    coefficients and that of their sqrt(d) parts, cleared to a primitive
    integer polynomial.  By Gauss's lemma a factor of R of degree 1 or 2
    is an integer polynomial whose leading coefficient divides lead(R),
    whose constant term divides R(0) and whose value at 1 divides R(1).
    So the roots s/t with s | R(0) and t | lead(R) are tried first, then
    the quadratics a*x^2 + b*x + c with a | lead(R), c | R(0) and
    a + b + c | R(1); the first candidate that divides R exactly is split
    off.  When R(0) = 0 the factor is x.
    """
    field = p.field
    if isinstance(field, Rationals):
        rat = p
    else:
        rat = _poly_gcd(_Poly(_RATIONALS, [c.a for c in p.coeffs]),
                        _Poly(_RATIONALS, [c.b for c in p.coeffs]))
    # rat is monic, so over the lcm of its denominators it is primitive
    den = math.lcm(*(c.denominator for c in rat.coeffs))
    r = [c.numerator * (den // c.denominator) for c in rat.coeffs]
    lead, r0, r1 = r[-1], r[0], sum(r)
    if not r0:
        cands = [[0, 1]]
    else:
        cands = itertools.chain(
            ([-s, t] for t in _divisors(lead)
             for e in _divisors(r0) for s in (e, -e)),
            ([c, v - a - c, a] for a in _divisors(lead)
             for e in _divisors(r0) for c in (e, -e)
             for f in _divisors(r1) for v in (f, -f)),
        )
    for cand in cands:
        cand = _Poly(_RATIONALS, cand)
        if rat.divmod(cand)[1].is_zero():
            factor = _in_field(cand.monic(), field)
            return factor, p.divmod(factor)[0]
    raise NotRepresentable(
        f"a degree-{p.degree} factor of the leading system has roots "
        f"not recognized over {field!r}"
    )


def _exact_roots(p: _Poly):
    """All roots of p in the coefficient field, with multiplicities.

    One exact path for every degree: with g = gcd(p, p'), only the monic
    radical p/g is solved.  While it has degree >= 3, ``_split_factor``
    splits off a rational factor of degree 1 or 2; each factor, and what
    is left, is solved by the formula.  A root r has multiplicity 1 + its
    multiplicity in g.  Raises _ExtensionNeeded over the rationals when a
    root generates a quadratic extension, and NotRepresentable when a
    root lies outside the field or the radical has degree >= 3 and no
    rational factor of degree 1 or 2.  Roots come sorted by
    ``field.format``.
    """
    field = p.field
    g = _poly_gcd(p, p.derivative())
    work = p.divmod(g)[0].monic()
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


def _term_weight(e, a, u):
    return e + sum(k * s for k, s in zip(a, u))


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
    its leading monomials {exponents: coefficient}, weighed once.  Two
    terms of one equation and equal weight have distinct exponents.
    """
    supports = [eq.terms() for eq in eqs]
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
        u = tuple(_exact(Fraction(d, det)) for d in dets)
        if u in seen:
            continue
        mus, leads = [], []
        for sup in supports:
            ws = [_term_weight(e, a, u) for e, a, _ in sup]
            mu = min(ws)
            lead = {a: c for (_, a, c), w in zip(sup, ws) if w == mu}
            if len(lead) < 2:
                break
            mus.append(mu)
            leads.append(lead)
        else:
            seen[u] = (u, mus, leads)
    return [seen[u] for u in sorted(seen)], flat


def _univar_from_lead(lead, field):
    exps = sorted(a[0] for a in lead)
    lo = exps[0]
    coeffs = [field.zero] * (exps[-1] - lo + 1)
    for a, c in lead.items():
        coeffs[a[0] - lo] = c
    return _Poly(field, coeffs)


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


def _col_eval(cols, x, field):
    return _Poly(field, [col.eval(x) for col in cols])


def _sylvester(cols_a, cols_b, field):
    da = len(cols_a) - 1
    db = len(cols_b) - 1
    size = da + db
    zero = _Poly.zero(field)
    rows = []
    rev_a = list(reversed(cols_a))
    rev_b = list(reversed(cols_b))
    for k in range(db):
        rows.append([zero] * k + rev_a + [zero] * (size - k - da - 1))
    for k in range(da):
        rows.append([zero] * k + rev_b + [zero] * (size - k - db - 1))
    return rows


def _leading_system(leads, field, n):
    """Eliminant in z1 and back-substitution columns of a leading system.

    Built once per candidate over ``field``.  In two variables the
    eliminant is the Sylvester resultant of the z2-columns, or the single
    column of a leading part without z2; in one variable it is the leading
    part itself and nothing is back-substituted.
    """
    if n == 1:
        return _univar_from_lead(leads[0], field), ()
    cols = (_bicols(leads[0], field), _bicols(leads[1], field))
    single = [c for c in cols if len(c) == 1]
    if len(single) == 2:
        raise StructureError(
            "positive-dimensional leading system: "
            "no leading equation constrains the second variable"
        )
    elim = single[0][0] if single else _det(_sylvester(*cols, field))
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
        # a leading part whose single column is the eliminant vanishes here
        g1, g2 = (_col_eval(c, r, root) for c in cols)
        if g1.is_zero() and g2.is_zero():
            raise StructureError(
                "positive-dimensional leading system: a coordinate line of "
                "leading solutions"
            )
        if g1.is_zero():
            h = g2
        elif g2.is_zero():
            h = g1
        else:
            h = _poly_gcd(g1, g2)
        h, _ = _strip_origin(h)
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


def _leading_jacobian(leads, z0, field, n):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for a, c in leads[i].items():
                if a[j]:
                    mono = field.one
                    for k, ak in enumerate(a):
                        if ak:
                            mono = mono * field_power(field, z0[k], ak)
                    acc = acc + field.coerce(a[j]) * c * mono
            row.append(acc)
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
                jac0 = _leading_jacobian(leads, z0, root, n)
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
        # first error in candidate order
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
