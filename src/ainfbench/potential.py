"""Laurent potentials over the Novikov field and their critical points.

A potential here is a finite Laurent polynomial in torus variables whose
monomials carry nonnegative energies.  Critical points over the valued
field are found the way one solves such systems by hand: read candidate
valuation vectors off the balancing condition of the Newton polytopes,
solve the leading-order system exactly over the coefficient field, then
lift T-adically by Newton iteration.  Floating point enters only as a
guide for root recognition; every accepted root is re-verified exactly,
and quadratic irrationalities trigger an automatic base change to the
matching quadratic field.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy

from .errors import (
    FieldMismatch,
    InsufficientCutoff,
    NotRepresentable,
    StructureError,
)
from .linalg import dense_solve
from .novikov import (
    NovikovScalar,
    QuadraticField,
    Rationals,
    _squarefree_decompose,
    format_scalar,
)

__all__ = [
    "NovikovLaurentPolynomial",
    "MomentPolytope",
    "ToricPotential",
    "CriticalPoint",
    "FiberPoint",
    "HessianReport",
    "SymmetryVerdict",
    "MorseCountVerdict",
    "DegenerateRootWarning",
    "log_derivative",
    "critical_points",
    "hessian",
    "build_toric_potential",
    "fiber_potential",
    "u_of_c",
    "root_of_unity",
    "zeta_symmetry_check",
    "morse_count_check",
]

# Effectively-exact cutoff for monomial prefactors; multiplication takes
# the min with the other operand's window, so this never cuts anything.
_EXACT = Fraction(10**9)


class DegenerateRootWarning(UserWarning):
    """A leading-order root with singular Jacobian was found and skipped."""


class _ExtensionNeeded(Exception):
    # internal: roots over the rationals need sqrt(d); d squarefree
    def __init__(self, d: int):
        super().__init__(f"roots require the quadratic field with d={d}")
        self.d = d


# -- small exact linear algebra over the rationals -------------------------


def _frac_solve(rows, rhs):
    """Solve an n x n rational system: ("unique", x) | ("none",) | ("many",)."""
    n = len(rhs)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    cols = len(aug[0]) - 1
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][cols]:
            return ("none",)
    if len(pivots) < cols:
        return ("many",)
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return ("unique", x)


def _frac_det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _elem_pow(field, x, k: int):
    if k == 0:
        return field.one
    if k < 0:
        return _elem_pow(field, field.invert(x), -k)
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


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
            energy = Fraction(energy)
            if energy < 0:
                raise StructureError(
                    f"negative energy {energy} violates the Gromov bound"
                )
            a = tuple(int(x) for x in exponents)
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

    @classmethod
    def zero(cls, field, variables):
        return cls.make(field, variables, ())

    @classmethod
    def from_scalar_terms(cls, field, variables, pairs):
        """Build from (NovikovScalar, exponents) pairs, expanding energies."""
        entries = []
        for scalar, exponents in pairs:
            for energy, coeff in scalar.terms:
                entries.append((energy, exponents, coeff))
        return cls.make(field, variables, entries)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def terms(self):
        """Sorted (energy, exponents, coefficient) triples."""
        return [(e, a, c) for (e, a), c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, energy, exponents):
        key = (Fraction(energy), tuple(int(x) for x in exponents))
        c = self._terms.get(key)
        return self.field.zero if c is None else c

    def _entries(self):
        return [(e, a, c) for (e, a), c in self._terms.items()]

    def __add__(self, other):
        if not isinstance(other, NovikovLaurentPolynomial):
            return NotImplemented
        if other.field != self.field or other.nvars != self.nvars:
            raise StructureError("cannot add potentials over different setups")
        return NovikovLaurentPolynomial.make(
            self.field, self.variables, self._entries() + other._entries()
        )

    def __neg__(self):
        return NovikovLaurentPolynomial(
            self.field, self.variables,
            {k: -c for k, c in self._terms.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, NovikovLaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NovikovLaurentPolynomial):
            if other.field != self.field or other.nvars != self.nvars:
                raise StructureError(
                    "cannot multiply potentials over different setups"
                )
            entries = []
            for e1, a1, c1 in self._entries():
                for e2, a2, c2 in other._entries():
                    entries.append(
                        (e1 + e2, tuple(x + y for x, y in zip(a1, a2)), c1 * c2)
                    )
            return NovikovLaurentPolynomial.make(
                self.field, self.variables, entries
            )
        if isinstance(other, NovikovScalar):
            raise StructureError(
                "potentials are exact; multiply by field elements, "
                "not truncated Novikov scalars"
            )
        c = self.field.coerce(other)
        return NovikovLaurentPolynomial.make(
            self.field, self.variables,
            [(e, a, c * c0) for e, a, c0 in self._entries()],
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, NovikovLaurentPolynomial):
            return NotImplemented
        if self.field != other.field or self.nvars != other.nvars:
            return False
        if set(self._terms) != set(other._terms):
            return False
        eq = self.field.eq
        return all(eq(c, other._terms[k]) for k, c in self._terms.items())

    def __hash__(self):
        raise TypeError("NovikovLaurentPolynomial is unhashable")

    def log_derivative(self, i: int) -> "NovikovLaurentPolynomial":
        """y_i d/dy_i, acting termwise as multiplication by a_i."""
        if not 0 <= i < self.nvars:
            raise StructureError(f"variable index {i} out of range")
        out = {}
        for (e, a), c in self._terms.items():
            if a[i]:
                out[(e, a)] = self.field.coerce(a[i]) * c
        return NovikovLaurentPolynomial(self.field, self.variables, out)

    def log_hessian_entry(self, i: int, j: int) -> "NovikovLaurentPolynomial":
        """y_i y_j d^2/dy_i dy_j, termwise a_i a_j (a_i(a_i - 1) on the diagonal)."""
        for k in (i, j):
            if not 0 <= k < self.nvars:
                raise StructureError(f"variable index {k} out of range")
        out = {}
        for (e, a), c in self._terms.items():
            f = a[i] * a[j] - (a[i] if i == j else 0)
            if f:
                out[(e, a)] = self.field.coerce(f) * c
        return NovikovLaurentPolynomial(self.field, self.variables, out)

    def evaluate(self, point) -> NovikovScalar:
        """Value at a tuple of Novikov scalars, one per variable.

        Negative exponents invert the coordinate, so those entries must be
        nonzero below their cutoff.  Coefficients are coerced into the
        field of the point, which lets a rational potential be evaluated
        at points living in a quadratic extension.
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
        field = point[0].field
        cutoff = min(z.cutoff for z in point)
        total = NovikovScalar.zero(field, _EXACT)
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

        for (e, a), c in self._terms.items():
            if self.field != field:
                c = field.coerce(c)
            term = NovikovScalar.monomial(field, _EXACT, e, c)
            for j, k in enumerate(a):
                if k:
                    term = term * power(j, k)
            total = total + term
        if total.cutoff > cutoff:
            total = total.truncate(cutoff)
        return total

    def rescale(self, shifts) -> "NovikovLaurentPolynomial":
        """Substitute y_i -> T^{s_i} y_i; energies move by <a, s>."""
        shifts = tuple(Fraction(s) for s in shifts)
        if len(shifts) != self.nvars:
            raise StructureError("one shift per variable")
        entries = []
        for e, a, c in self._entries():
            entries.append((e + sum(s * k for s, k in zip(shifts, a)), a, c))
        return NovikovLaurentPolynomial.make(self.field, self.variables, entries)

    def change_of_variables(self, matrix) -> "NovikovLaurentPolynomial":
        """Monomial substitution y_i = prod_j z_j^{M[i][j]}, M in GL(n, Z)."""
        n = self.nvars
        m = [[int(x) for x in row] for row in matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise StructureError("substitution matrix must be n x n")
        if abs(_frac_det(m)) != 1:
            raise StructureError("substitution matrix must be unimodular")
        entries = []
        for e, a, c in self._entries():
            new_a = tuple(
                sum(a[i] * m[i][j] for i in range(n)) for j in range(n)
            )
            entries.append((e, new_a, c))
        return NovikovLaurentPolynomial.make(self.field, self.variables, entries)

    def map_field(self, new_field) -> "NovikovLaurentPolynomial":
        """Coerce every coefficient into another field."""
        return NovikovLaurentPolynomial.make(
            new_field, self.variables,
            [(e, a, new_field.coerce(c)) for e, a, c in self._entries()],
        )

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for e, a, c in self._entries():
            lit = format_scalar(
                NovikovScalar.monomial(self.field, e + 1, e, c)
            )
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(self.variables, a)
                if k
            )
            if mono and lit in ("1", "-1"):
                lit = lit[:-1] + mono  # unit coefficients print bare
            elif mono:
                lit = f"({lit})*{mono}" if ("+" in lit or "-" in lit[1:]) else f"{lit}*{mono}"
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


def log_derivative(pot: NovikovLaurentPolynomial, i: int):
    """Logarithmic derivative y_i dW/dy_i of a potential."""
    return pot.log_derivative(i)


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
    def const(cls, field, c):
        return cls(field, [c])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    def is_zero(self):
        return not self.coeffs

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

    def __sub__(self, other):
        return self + (-other)

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

    def embed(self):
        """Coefficients as complex numbers, constant term first."""
        return [self.field.embed_complex(c) for c in self.coeffs]

    def __repr__(self):
        return f"<poly deg {self.degree}>"


def _poly_gcd(a: _Poly, b: _Poly) -> _Poly:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def _strip_origin(p: _Poly):
    """Split off the largest power of x dividing p."""
    k = 0
    field = p.field
    coeffs = p.coeffs
    while k < len(coeffs) and field.is_zero(coeffs[k]):
        k += 1
    return _Poly(field, coeffs[k:]), k


def _ring_det(mat):
    """Determinant over a commutative ring, by expansion (tiny sizes)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = None
    for j in range(n):
        entry = mat[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        piece = entry * _ring_det(minor)
        if j % 2:
            piece = -piece
        out = piece if out is None else out + piece
    return out if out is not None else _Poly.zero(mat[0][0].field)


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


def _roots_linear(p: _Poly):
    field = p.field
    return [(-p.coeffs[0] * field.invert(p.coeffs[1]), 1)]


def _roots_quadratic(p: _Poly):
    field = p.field
    c, b, a = p.coeffs
    disc = b * b - field.coerce(4) * a * c
    inv2a = field.invert(field.coerce(2) * a)
    if field.is_zero(disc):
        return [(-b * inv2a, 2)]
    s = _sqrt_or_extend(field, disc)
    return [((-b + s) * inv2a, 1), ((-b - s) * inv2a, 1)]


def _numeric_roots(p: _Poly):
    coeffs = p.embed()       # constant first
    arr = numpy.roots(list(reversed(coeffs)))
    rts = [complex(z) for z in arr]
    rts.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return rts


def _rational_candidates(x: float):
    out = []
    for dens in (10**4, 10**8, 10**12):
        f = Fraction(x).limit_denominator(dens)
        if f not in out:
            out.append(f)
    return out


def _multiplicity(p: _Poly, root):
    field = p.field
    lin = _Poly(field, [-root, field.one])
    m = 0
    while True:
        q, r = p.divmod(lin)
        if not r.is_zero():
            return p, m
        p = q
        m += 1


def _roots_exact_tail(p: _Poly):
    """Roots of a squarefree polynomial of degree >= 3 over an exact field.

    Numeric roots steer the search; a root is only accepted once exact
    division confirms it.  Conjugate-looking pairs are recombined into a
    rational quadratic and solved by the formula, which is where a base
    change to a quadratic field can become necessary.
    """
    field = p.field
    found = []
    work = p
    numeric = _numeric_roots(p)
    progress = True
    while progress and work.degree >= 1:
        progress = False
        for z in list(numeric):
            if abs(z.imag) > 1e-7 * (1 + abs(z)):
                continue
            for cand in _rational_candidates(z.real):
                c = field.coerce(cand)
                if field.is_zero(work.eval(c)):
                    work, _ = _multiplicity(work, c)
                    found.append(c)
                    numeric.remove(z)
                    progress = True
                    break
            if progress:
                break
    while work.degree >= 2:
        split = False
        for i, j in itertools.combinations(range(len(numeric)), 2):
            s, m = numeric[i] + numeric[j], numeric[i] * numeric[j]
            if abs(s.imag) > 1e-6 * (1 + abs(s)):
                continue
            if abs(m.imag) > 1e-6 * (1 + abs(m)):
                continue
            for sc, mc in itertools.product(
                _rational_candidates(s.real), _rational_candidates(m.real)
            ):
                quad = _Poly(
                    field,
                    [field.coerce(mc), -field.coerce(sc), field.one],
                )
                q, r = work.divmod(quad)
                if r.is_zero():
                    for root, _ in _roots_quadratic(quad):
                        found.append(root)
                    work = q
                    hi, lo = max(i, j), min(i, j)
                    numeric.pop(hi)
                    numeric.pop(lo)
                    split = True
                    break
            if split:
                break
        if not split:
            break
    if work.degree == 1:
        found.append(_roots_linear(work)[0][0])
        work, _ = work.divmod(_Poly(field, [-found[-1], field.one]))
    if work.degree >= 1:
        raise NotRepresentable(
            f"a degree-{work.degree} factor of the leading system has roots "
            f"not recognized over {field!r}"
        )
    return found


def _float_roots(p: _Poly):
    # float field: cluster numeric roots; cluster size doubles as multiplicity
    field = p.field
    rts = _numeric_roots(p)
    out = []
    used = [False] * len(rts)
    for i, z in enumerate(rts):
        if used[i]:
            continue
        cluster = [z]
        used[i] = True
        for j in range(i + 1, len(rts)):
            if not used[j] and abs(rts[j] - z) < 1e-6 * (1 + abs(z)):
                cluster.append(rts[j])
                used[j] = True
        mean = sum(cluster) / len(cluster)
        out.append((field.coerce(mean), len(cluster)))
    return out


def _exact_roots(p: _Poly):
    """All roots of p in the coefficient field, with multiplicities.

    Raises _ExtensionNeeded over the rationals when a root generates a
    quadratic extension, and NotRepresentable when recognition fails.
    """
    field = p.field
    if p.degree <= 0:
        return []
    if not hasattr(field, "eps"):
        if p.degree == 1:
            return _roots_linear(p)
        if p.degree == 2:
            return _roots_quadratic(p)
        radical, _ = p.divmod(_poly_gcd(p, p.derivative()))
        roots = _roots_exact_tail(radical.monic())
        out = []
        for root in roots:
            _, m = _multiplicity(p, root)
            out.append((root, m))
    else:
        out = _float_roots(p)
    out.sort(key=lambda rm: field.format(rm[0]))
    return out


# -- tropical candidates and leading systems -------------------------------


def _term_weight(e, a, u):
    return e + sum(Fraction(k) * s for k, s in zip(a, u))


def _tropical_candidates(eqs):
    """Valuation vectors balancing every equation's Newton polytope.

    For each equation pick a pair of its terms, impose equal weight, and
    solve the resulting square rational system; a unique solution that
    makes the minimum weight of every equation achieved at least twice is
    a candidate.  Consistent but underdetermined selections flag a
    potentially positive-dimensional tropical set.
    """
    n = len(eqs)
    supports = [eq.terms() for eq in eqs]
    pair_lists = [
        list(itertools.combinations(range(len(sup)), 2)) for sup in supports
    ]
    if any(not pairs for pairs in pair_lists):
        # an equation with a single monomial never vanishes on the torus
        return [], False
    seen = set()
    flat = False
    for combo in itertools.product(*pair_lists):
        rows, rhs = [], []
        for i, (s, t) in enumerate(combo):
            es, as_, _ = supports[i][s]
            et, at, _ = supports[i][t]
            rows.append([Fraction(x - y) for x, y in zip(as_, at)])
            rhs.append(et - es)
        res = _frac_solve(rows, rhs)
        if res[0] == "many":
            flat = True
            continue
        if res[0] == "none":
            continue
        u = tuple(res[1])
        if u in seen:
            continue
        ok = True
        for sup in supports:
            ws = [_term_weight(e, a, u) for e, a, _ in sup]
            lo = min(ws)
            if sum(1 for w in ws if w == lo) < 2:
                ok = False
                break
        if ok:
            seen.add(u)
    return sorted(seen), flat


def _leading_parts(eqs, u):
    """Minimal weight and leading monomials of each equation at valuation u."""
    mus, leads = [], []
    for eq in eqs:
        sup = eq.terms()
        ws = [_term_weight(e, a, u) for e, a, _ in sup]
        mu = min(ws)
        lead = {}
        for (e, a, c), w in zip(sup, ws):
            if w == mu:
                lead[a] = lead[a] + c if a in lead else c
        mus.append(mu)
        leads.append(lead)
    return mus, leads


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


def _solve_leading_two(leads, field):
    """Solve a two-variable leading system exactly; (r, s) pairs plus hints."""
    cols1 = _bicols(leads[0], field)
    cols2 = _bicols(leads[1], field)
    d1, d2 = len(cols1) - 1, len(cols2) - 1
    if d1 == 0 and d2 == 0:
        raise StructureError(
            "positive-dimensional leading system: "
            "no leading equation constrains the second variable"
        )
    if d1 == 0 or d2 == 0:
        # one equation already univariate in z1
        uni_cols, other = (cols1, cols2) if d1 == 0 else (cols2, cols1)
        base, _ = _strip_origin(uni_cols[0])
        sols = []
        for r, _m in _exact_roots(base):
            g = _col_eval(other, r, field)
            g, _ = _strip_origin(g)
            if g.is_zero():
                raise StructureError(
                    "positive-dimensional leading system: a coordinate line "
                    "of leading solutions"
                )
            for s, ms in _exact_roots(g):
                sols.append(((r, s), ms))
        return sols
    elim = _ring_det(_sylvester(cols1, cols2, field))
    if elim.is_zero():
        raise StructureError(
            "positive-dimensional leading system: the leading curves share "
            "a component"
        )
    elim, _ = _strip_origin(elim)
    sols = []
    for r, _m in _exact_roots(elim):
        g1 = _col_eval(cols1, r, field)
        g2 = _col_eval(cols2, r, field)
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


def _solve_leading(leads, field, n):
    if n == 1:
        p = _univar_from_lead(leads[0], field)
        return [((root,), m) for root, m in _exact_roots(p)]
    if n == 2:
        return _solve_leading_two(leads, field)
    raise StructureError(
        "leading-order solving is implemented for at most two variables"
    )


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
    nondegenerate: bool
    residual_valuation: Fraction
    lift_schedule: tuple


@dataclass(frozen=True, eq=False)
class HessianReport:
    matrix: tuple
    determinant: NovikovScalar
    nondegenerate: bool


def _field_det_scalar(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        piece = mat[0][j] * _field_det_scalar(minor)
        if j % 2:
            piece = -piece
        out = piece if out is None else out + piece
    return out


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
                            mono = mono * _elem_pow(field, z0[k], ak)
                    acc = acc + field.coerce(a[j]) * c * mono
            row.append(acc)
        rows.append(row)
    return rows


def _field_det(mat, field):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        piece = mat[0][j] * _field_det(minor, field)
        if j % 2:
            piece = -piece
        out = piece if out is None else out + piece
    return out if out is not None else field.zero


def _lift_point(pot, eqs, jac_polys, u, mus, z0, cutoff, slack):
    """Newton-lift a nondegenerate leading solution to the requested cutoff."""
    field = pot.field
    n = pot.nvars
    weights = [
        _term_weight(e, a, u) for e, a, _ in pot.terms()
    ]
    pad = max(
        [Fraction(0)]
        + [-w for w in weights if w < 0]
        + [-s for s in u if s < 0]
        + [-m for m in mus if m < 0]
    )
    work = Fraction(cutoff) + pad
    shifts = [NovikovScalar.monomial(field, _EXACT, s) for s in u]
    unshift = [NovikovScalar.monomial(field, _EXACT, -m) for m in mus]
    z = [NovikovScalar.constant(field, work, c) for c in z0]

    def residuals(zs):
        scaled = [shifts[j] * zs[j] for j in range(n)]
        return [unshift[i] * eqs[i].evaluate(scaled) for i in range(n)]

    schedule = []
    prev = None
    for _ in range(80):
        res = residuals(z)
        if all(r.is_zero() for r in res):
            schedule.append(min(r.cutoff for r in res))
            break
        val = min(r.valuation() for r in res)
        schedule.append(val)
        if val <= 0:
            raise StructureError(
                "leading-order solution does not cancel the leading residual"
            )
        if prev is not None and val < min(2 * prev, work):
            raise StructureError(
                "Newton lifting failed to double the correct range; "
                "the leading root appears degenerate"
            )
        prev = val
        scaled = [shifts[j] * z[j] for j in range(n)]
        jac = [
            [unshift[i] * jac_polys[i][j].evaluate(scaled) for j in range(n)]
            for i in range(n)
        ]
        corr = dense_solve(jac, res)
        z = [z[j] - z[j] * corr[j] for j in range(n)]
    else:
        raise StructureError("Newton lifting did not terminate")

    res = residuals(z)
    res_val = min(
        mus[i] + (res[i].cutoff if res[i].is_zero() else res[i].valuation())
        for i in range(n)
    )
    if res_val < Fraction(cutoff) - Fraction(slack):
        raise StructureError(
            f"lifted point misses the residual bound: valuation {res_val}"
        )

    units = tuple(zj.truncate(cutoff) for zj in z)
    coords = tuple(
        (shifts[j] * z[j]).truncate(cutoff) for j in range(n)
    )
    value = pot.evaluate(coords).truncate(cutoff)
    hess = tuple(
        tuple(
            pot.log_hessian_entry(i, j).evaluate(coords).truncate(cutoff)
            for j in range(n)
        )
        for i in range(n)
    )
    det = _field_det_scalar([list(row) for row in hess])
    det = det.truncate(cutoff)
    if det.is_zero():
        raise InsufficientCutoff(
            "Hessian determinant of a lifted point is invisible below "
            f"T^{cutoff}; raise the cutoff"
        )
    return CriticalPoint(
        coordinates=coords,
        units=units,
        valuations=tuple(u),
        value=value,
        hessian=hess,
        hessian_det=det,
        nondegenerate=True,
        residual_valuation=res_val,
        lift_schedule=tuple(schedule),
    )


def _critical_points_impl(pot, cutoff, slack):
    field = pot.field
    n = pot.nvars
    eqs = [pot.log_derivative(i) for i in range(n)]
    for i, eq in enumerate(eqs):
        if eq.is_zero():
            raise StructureError(
                "positive-dimensional critical locus: the potential does "
                f"not move in {pot.variables[i]}"
            )
    cands, flat = _tropical_candidates(eqs)
    if not cands:
        if flat:
            raise StructureError(
                "positive-dimensional leading system: tropical balancing "
                "admits a continuum of valuation vectors"
            )
        return []
    jac_polys = [
        [eqs[i].log_derivative(j) for j in range(n)] for i in range(n)
    ]
    points = []
    for u in cands:
        mus, leads = _leading_parts(eqs, u)
        sols = _solve_leading(leads, field, n)
        sols.sort(key=lambda sm: tuple(field.format(c) for c in sm[0]))
        for z0, hint in sols:
            jac0 = _leading_jacobian(leads, z0, field, n)
            if field.is_zero(_field_det(jac0, field)):
                coords = ", ".join(field.format(c) for c in z0)
                warnings.warn(
                    f"degenerate leading root ({coords}) at valuation "
                    f"{tuple(u)} (multiplicity hint {hint}); not lifted",
                    DegenerateRootWarning,
                    stacklevel=3,
                )
                continue
            points.append(
                _lift_point(pot, eqs, jac_polys, u, mus, z0, cutoff, slack)
            )
    points.sort(
        key=lambda p: (
            p.valuations,
            tuple(format_scalar(c) for c in p.coordinates),
        )
    )
    return points


def critical_points(pot, cutoff, *, slack=Fraction(0)):
    """All torus critical points of a potential, exact below the cutoff.

    Tropicalization proposes valuation vectors, the leading system is
    solved exactly in the coefficient field, and nondegenerate leading
    roots are Newton-lifted.  Over the rationals a quadratic irrationality
    in the leading roots restarts the computation over the matching
    quadratic field, so the returned scalars may live in an extension.
    Degenerate leading roots are reported as warnings, never lifted.
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise StructureError("cutoff must be positive")
    try:
        return _critical_points_impl(pot, cutoff, slack)
    except _ExtensionNeeded as need:
        if not isinstance(pot.field, Rationals):
            raise NotRepresentable(
                "leading roots escape the coefficient field"
            ) from need
        ext = QuadraticField(need.d)
        try:
            return _critical_points_impl(pot.map_field(ext), cutoff, slack)
        except _ExtensionNeeded as again:
            raise NotRepresentable(
                "leading roots span more than one quadratic extension "
                f"(sqrt({need.d}) and sqrt({again.d}))"
            ) from again


def hessian(pot, point, *, certify_below=None):
    """Logarithmic Hessian of a potential at a point, with a Morse verdict.

    ``point`` is a CriticalPoint or a tuple of Novikov scalars.  When the
    determinant vanishes below its window the verdict is degenerate; pass
    ``certify_below`` to instead demand visibility below that exponent and
    fail loudly when the window is too short.
    """
    if isinstance(point, CriticalPoint):
        coords = point.coordinates
    else:
        coords = tuple(point)
    n = pot.nvars
    if len(coords) != n:
        raise StructureError(f"expected {n} coordinates, got {len(coords)}")
    mat = tuple(
        tuple(
            pot.log_hessian_entry(i, j).evaluate(coords) for j in range(n)
        )
        for i in range(n)
    )
    det = _field_det_scalar([list(row) for row in mat])
    if det.is_zero():
        if certify_below is not None and det.cutoff < Fraction(certify_below):
            raise InsufficientCutoff(
                f"Hessian determinant only known below T^{det.cutoff}, "
                f"cannot certify below T^{certify_below}"
            )
        return HessianReport(matrix=mat, determinant=det, nondegenerate=False)
    return HessianReport(matrix=mat, determinant=det, nondegenerate=True)


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
                    x / pa + y / na for x, y in zip(pco, nco)
                )
                new.append((co, pc / pa + nc / na))
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
        rays = tuple(tuple(int(x) for x in ray) for ray in rays)
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
        offsets = tuple(Fraction(x) for x in offsets)
        if len(offsets) != len(rays):
            raise StructureError("one offset per ray")
        if basis is None:
            basis = tuple(range(n))
        else:
            basis = tuple(int(i) for i in basis)
        if len(basis) != n or len(set(basis)) != n:
            raise StructureError(f"basis must pick {n} distinct rays")
        for i in basis:
            if not 0 <= i < len(rays):
                raise StructureError(f"basis index {i} out of range")
        bmat = [rays[i] for i in basis]
        if abs(_frac_det(bmat)) != 1:
            raise StructureError("designated basis rays are not unimodular")
        self.rays = rays
        self.offsets = offsets
        self.basis = basis
        cons = [
            (tuple(Fraction(x) for x in ray), off)
            for ray, off in zip(rays, offsets)
        ]
        if not _fm_feasible(cons, n):
            raise StructureError("empty moment polytope")

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    def support(self, u, i: int) -> Fraction:
        """Affine support number <v_i, u> + lambda_i."""
        ray = self.rays[i]
        return sum(
            Fraction(a) * Fraction(x) for a, x in zip(ray, u)
        ) + self.offsets[i]

    def supports(self, u):
        return tuple(self.support(u, i) for i in range(len(self.rays)))

    def contains(self, u) -> bool:
        return all(s >= 0 for s in self.supports(u))

    def is_interior(self, u) -> bool:
        return all(s > 0 for s in self.supports(u))

    def __repr__(self):
        return (
            f"<moment polytope, {len(self.rays)} rays in dimension {self.dim}>"
        )


@dataclass(frozen=True, eq=False)
class ToricPotential:
    """A toric potential with its ray bookkeeping.

    ``exponents[i]`` expands ray i in the designated basis rays and
    ``energies[i]`` is its energy offset, so the potential is the sum of
    T^energies[i] * y^exponents[i] over all rays.
    """

    polytope: MomentPolytope
    potential: NovikovLaurentPolynomial
    exponents: tuple
    energies: tuple


def build_toric_potential(polytope: MomentPolytope, field=None) -> ToricPotential:
    """Potential of a toric fixture from its moment polytope.

    Each ray contributes one monomial: the ray is expanded in the
    designated basis rays, and its energy is the offset corrected by the
    basis offsets so that the basis rays themselves enter at energy zero.
    """
    if field is None:
        field = Rationals()
    n = polytope.dim
    bmat = [[Fraction(polytope.rays[i][k]) for i in polytope.basis]
            for k in range(n)]
    exps, energies, entries = [], [], []
    for i, ray in enumerate(polytope.rays):
        res = _frac_solve(bmat, [Fraction(x) for x in ray])
        if res[0] != "unique":
            raise StructureError("designated basis rays are not a basis")
        a = []
        for x in res[1]:
            if x.denominator != 1:
                raise StructureError(
                    "ray expansion is not integral; basis is not unimodular"
                )
            a.append(int(x))
        a = tuple(a)
        omega = polytope.offsets[i] - sum(
            Fraction(aj) * polytope.offsets[bj]
            for aj, bj in zip(a, polytope.basis)
        )
        if omega < 0:
            raise StructureError(
                f"ray {ray} gets negative energy {omega}: the designated "
                "basis rays do not meet the polytope at a vertex"
            )
        exps.append(a)
        energies.append(omega)
        entries.append((omega, a, field.one))
    pot = NovikovLaurentPolynomial.make(field, n, entries)
    return ToricPotential(
        polytope=polytope,
        potential=pot,
        exponents=tuple(exps),
        energies=tuple(energies),
    )


def _potential_of(obj) -> NovikovLaurentPolynomial:
    if isinstance(obj, ToricPotential):
        return obj.potential
    return obj


def fiber_potential(toric: ToricPotential, u) -> NovikovLaurentPolynomial:
    """Potential of the torus fiber over an interior point u.

    Substitutes y_i -> T^{l_i(u)} y_i for the designated basis rays; every
    monomial then enters at the energy given by its own support number, so
    interiority of u makes all energies strictly positive.
    """
    poly = toric.polytope
    u = tuple(Fraction(x) for x in u)
    if len(u) != poly.dim:
        raise StructureError("fiber point dimension mismatch")
    for i in range(len(poly.rays)):
        s = poly.support(u, i)
        if s <= 0:
            raise StructureError(
                f"point {u} is not interior: ray {poly.rays[i]} has "
                f"support {s}"
            )
    shifts = [poly.support(u, i) for i in poly.basis]
    return toric.potential.rescale(shifts)


@dataclass(frozen=True, eq=False)
class FiberPoint:
    """Moment-map position of a critical point and its unit coordinates."""

    moment_point: tuple
    coordinates: tuple


def u_of_c(toric, point) -> FiberPoint:
    """Recenter a critical point: moment position plus unit coordinates.

    The moment position solves support_i(u) = val(c_i) over the designated
    basis rays; the unit coordinates are T^{-val(c_i)} c_i.  The position
    must land in the interior of the polytope, otherwise the violated ray
    is reported.
    """
    poly = toric.polytope if isinstance(toric, ToricPotential) else toric
    if isinstance(point, CriticalPoint):
        vals = point.valuations
        units = point.units
    else:
        coords = tuple(point)
        for c in coords:
            if not isinstance(c, NovikovScalar) or c.is_zero():
                raise StructureError(
                    "rescaled coordinates must be units: got a coordinate "
                    "that is zero below its cutoff"
                )
        vals = tuple(c.valuation() for c in coords)
        units = tuple(
            (NovikovScalar.monomial(c.field, _EXACT, -v) * c)
            for c, v in zip(coords, vals)
        )
    n = poly.dim
    if len(vals) != n:
        raise StructureError("coordinate count does not match the polytope")
    rows = [[Fraction(x) for x in poly.rays[i]] for i in poly.basis]
    rhs = [Fraction(v) - poly.offsets[i] for v, i in zip(vals, poly.basis)]
    res = _frac_solve(rows, rhs)
    if res[0] != "unique":
        raise StructureError("designated basis rays are not a basis")
    u = tuple(res[1])
    for i in range(len(poly.rays)):
        s = poly.support(u, i)
        if s <= 0:
            raise StructureError(
                f"recentered point {u} is not interior: ray "
                f"{poly.rays[i]} has support {s}"
            )
    return FiberPoint(moment_point=u, coordinates=tuple(units))


# -- symmetry and counting checks ------------------------------------------


def root_of_unity(field, r: int):
    """A primitive r-th root of unity in the field, if one exists there.

    Exact fields carry the orders whose cyclotomic field is rational or
    quadratic (1, 2, 3, 4, 6); anything else needs the float field.
    """
    r = int(r)
    if r < 1:
        raise StructureError("the order of a root of unity is positive")
    if hasattr(field, "eps"):
        import cmath

        return field.coerce(cmath.exp(2j * math.pi / r))
    if r == 1:
        return field.one
    if r == 2:
        return -field.one
    half = Fraction(1, 2)
    if r in (3, 6) and isinstance(field, QuadraticField) and field.d == -3:
        re = -half if r == 3 else half
        return field.coerce(re) + field.coerce(half) * field.root
    if r == 4 and isinstance(field, QuadraticField) and field.d == -1:
        return field.root
    raise NotRepresentable(
        f"no primitive root of unity of order {r} in {field!r}; use the "
        "quadratic field with the matching discriminant or the float field"
    )


@dataclass(frozen=True, eq=False)
class SymmetryVerdict:
    holds: bool
    order: int
    violating_term: tuple | None
    message: str


def zeta_symmetry_check(pot, r: int, k, zeta=None) -> SymmetryVerdict:
    """Check W(zeta^{k_1} y_1, ...) = zeta * W(y) termwise.

    ``k`` is the integer weight vector; ``zeta`` defaults to a primitive
    r-th root of unity in the coefficient field.  The verdict carries the
    first violating term in the sorted term order.
    """
    field = pot.field
    k = tuple(int(x) for x in k)
    if len(k) != pot.nvars:
        raise StructureError("one weight per variable")
    if zeta is None:
        zeta = root_of_unity(field, r)
    else:
        zeta = field.coerce(zeta)
    if not field.eq(_elem_pow(field, zeta, int(r)), field.one):
        raise StructureError(f"supplied zeta is not an {r}-th root of unity")
    for e, a, c in pot.terms():
        w = sum(ki * ai for ki, ai in zip(k, a)) % int(r)
        lhs = _elem_pow(field, zeta, w) * c
        rhs = zeta * c
        if not field.eq(lhs, rhs):
            return SymmetryVerdict(
                holds=False,
                order=int(r),
                violating_term=(e, a),
                message=(
                    f"symmetry fails at the term with energy {e} and "
                    f"exponents {a}: weight {w} is not 1 mod {r}"
                ),
            )
    return SymmetryVerdict(
        holds=True,
        order=int(r),
        violating_term=None,
        message=f"symmetry of order {r} holds",
    )


@dataclass(frozen=True, eq=False)
class MorseCountVerdict:
    matches: bool
    expected: int
    total: int
    nondegenerate_count: int
    message: str
    points: tuple


def morse_count_check(pot, expected_dim: int, cutoff, *, slack=Fraction(0)):
    """Compare the nondegenerate critical count with an expected dimension."""
    poly = _potential_of(pot)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateRootWarning)
        points = critical_points(poly, cutoff, slack=slack)
    degenerate = sum(
        1 for w in caught if issubclass(w.category, DegenerateRootWarning)
    )
    nondeg = sum(1 for p in points if p.nondegenerate)
    total = len(points) + degenerate
    expected = int(expected_dim)
    if degenerate == 0 and nondeg == total and nondeg == expected:
        msg = "split-generation count matches"
        ok = True
    elif degenerate or nondeg != total:
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
    return MorseCountVerdict(
        matches=ok,
        expected=expected,
        total=total,
        nondegenerate_count=nondeg,
        message=msg,
        points=tuple(points),
    )
