import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfbench.errors import (
    FieldMismatch,
    FixtureError,
    InsufficientCutoff,
    NotRepresentable,
    StructureError,
)
from ainfbench.novikov import (
    NovikovScalar,
    QuadExt,
    QuadraticField,
    Rationals,
    field_power,
    format_scalar,
    parse_scalar,
)

Q = Rationals()
Q5 = QuadraticField(5)
Q_3 = QuadraticField(-3)
E = Fraction(6)


def nov(pairs, field=Q, cutoff=E):
    return NovikovScalar.make(field, cutoff, pairs)


# -- strategies ------------------------------------------------------------

exponents = st.fractions(min_value=-3, max_value=5, max_denominator=4)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def scalars(draw, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    pairs = [(draw(exponents), draw(coeffs)) for _ in range(n)]
    return nov(pairs)


@st.composite
def nonzero_scalars(draw):
    x = draw(scalars(min_terms=1))
    if x.is_zero():
        x = x + nov([(Fraction(0), 1)])
    return x


# -- field laws ------------------------------------------------------------

@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars())
def test_neutral_elements(a):
    zero = NovikovScalar.zero(Q, E)
    one = NovikovScalar.one(Q, E)
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@given(nonzero_scalars())
@settings(max_examples=200)
def test_inverse_correct_range(a):
    """a * invert(a) = 1 up to terms of exponent >= E - val(a)."""
    inv = a.invert()
    prod = a * inv
    guaranteed = E - a.valuation()
    diff = prod - NovikovScalar.one(Q, prod.cutoff)
    assert diff.valuation() >= min(guaranteed, prod.cutoff)


# -- valuation laws --------------------------------------------------------

@given(scalars(), scalars())
def test_valuation_laws(a, b):
    va, vb = a.valuation(), b.valuation()
    s, p = a + b, a * b
    assert s.valuation() >= min(va, vb)
    if va != vb:
        assert s.valuation() == min(va, vb)
    if not a.is_zero() and not b.is_zero():
        # product valuation adds, unless it escaped past the cutoff
        if va + vb < p.cutoff:
            assert p.valuation() == va + vb
    else:
        assert p.valuation() == math.inf


def test_valuation_examples():
    assert NovikovScalar.zero(Q, E).valuation() == math.inf
    assert nov([(1, Fraction(3)), (2, Fraction(1))]).valuation() == 1
    # value quoted from the blow-up critical locus: (5/2 + 5/2*s5)*T^1
    x = parse_scalar("(5/2 + 5/2*s5)*T^1", Q5, E)
    assert x.valuation() == 1


# -- truncation congruence -------------------------------------------------

@given(scalars(), scalars(), st.fractions(min_value=0, max_value=5, max_denominator=3))
def test_truncation_congruence(a, b, e):
    """Operating then truncating agrees with truncating inputs first."""
    assert (a + b).truncate(e) == (a.truncate(e) + b.truncate(e)).truncate(e)
    if a.valuation() >= 0 and b.valuation() >= 0:
        assert (a * b).truncate(e) == (a.truncate(e) * b.truncate(e)).truncate(e)


# -- canonical exponent form ----------------------------------------------

def canonical(x):
    """Every exponent and the cutoff: int, or Fraction with denominator > 1."""
    for e in [x.cutoff] + [e for e, _ in x.terms]:
        if not (type(e) is int or (type(e) is Fraction and e.denominator > 1)):
            return False
    return True


def plain(e):
    return e.numerator if e.denominator == 1 else e


@given(scalars(), nonzero_scalars(),
       st.fractions(min_value=0, max_value=5, max_denominator=3))
@settings(max_examples=200)
def test_results_keep_canonical_exponents(a, b, e):
    lead = NovikovScalar.monomial(Q, E, *b.leading())
    results = [a + b, a - b, a * b, b.invert(), a.truncate(e),
               (lead * lead).sqrt(),
               nov([(Fraction(x), c) for x, c in b.terms], cutoff=Fraction(E))]
    assert all(canonical(x) for x in results)


@given(st.lists(st.tuples(exponents, coeffs), max_size=4),
       st.fractions(min_value=1, max_value=8, max_denominator=2))
def test_fraction_and_int_inputs_build_the_same_scalar(pairs, cutoff):
    a = nov(pairs, cutoff=cutoff)
    b = nov([(plain(e), c) for e, c in pairs], cutoff=plain(cutoff))
    assert a.terms == b.terms and a.cutoff == b.cutoff
    assert [type(e) for e, _ in a.terms] == [type(e) for e, _ in b.terms]
    assert type(a.cutoff) is type(b.cutoff)
    assert format_scalar(a, show_order=True) == format_scalar(b, show_order=True)


# -- canonical coefficient form -------------------------------------------

def canonical_coeff(c):
    """int, or Fraction with denominator > 1; both parts of a QuadExt."""
    if isinstance(c, QuadExt):
        return canonical_coeff(c.a) and canonical_coeff(c.b)
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@st.composite
def field_elements(draw, field):
    a = draw(coeffs)
    if isinstance(field, QuadraticField):
        return QuadExt(a, draw(coeffs), field.d)
    return a


@st.composite
def field_scalars(draw, field, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    pairs = [(draw(exponents), draw(field_elements(field))) for _ in range(n)]
    x = nov(pairs, field=field)
    if min_terms and x.is_zero():
        x = x + nov([(0, 1)], field=field)
    return x


@pytest.mark.parametrize("field", [Q, Q5, Q_3], ids=repr)
@given(data=st.data())
@settings(max_examples=100)
def test_results_keep_canonical_coefficients(field, data):
    a = data.draw(field_scalars(field))
    b = data.draw(field_scalars(field, min_terms=1))
    lead = NovikovScalar.monomial(field, E, *b.leading())
    c0 = lead.leading()[1]
    results = [a + b, a - b, a * b, lead * lead, b.invert(),
               (lead * lead).sqrt(), parse_scalar(format_scalar(a), field, E)]
    coefficients = [c for x in results for _, c in x.terms]
    coefficients += [field.invert(c0), field.sqrt(c0 * c0), field.coerce(c0)]
    assert all(canonical_coeff(c) for c in coefficients)


# -- the arithmetic kernel against a reference -----------------------------
# The kernel builds its results without canonicalizing them again; the
# reference builds every result through ``make``, which does.

Q_3_AGAIN = QuadraticField(-3)  # equal to Q_3 but a distinct object
cutoffs = st.one_of(st.integers(min_value=1, max_value=8),
                    st.fractions(min_value=1, max_value=8, max_denominator=3))


# rationals over denominators up to 60 that share factors, so that sums and
# products often share a factor with their coefficient denominator
kernel_coeffs = st.builds(Fraction, st.integers(min_value=-60, max_value=60),
                          st.sampled_from([1, 2, 3, 4, 5, 6, 9, 12, 20, 30, 60]))


@st.composite
def kernel_elements(draw, field):
    a = draw(kernel_coeffs)
    if isinstance(field, QuadraticField):
        return QuadExt(a, draw(kernel_coeffs), field.d)
    return a


@st.composite
def kernel_scalars(draw, field):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = [(draw(exponents), draw(kernel_elements(field))) for _ in range(n)]
    return NovikovScalar.make(field, draw(cutoffs), pairs)


def typed(x):
    """Cutoff and terms of a scalar with the type of every number."""
    def number(v):
        if isinstance(v, QuadExt):
            return (number(v.a), number(v.b), v.d)
        return (type(v), v)
    return number(x.cutoff), [(number(e), number(c)) for e, c in x.terms]


def assert_reduced(x):
    """Stored coefficient parts: over Q ``int`` numerators over a positive
    ``cden`` sharing no factor with them, 1 for zero; over Q(sqrt d)
    ``QuadExt`` numerators over cden = 1."""
    numerators = [c for _, c in x.lterms]
    assert type(x.cden) is int and x.cden > 0
    if isinstance(x.field, QuadraticField):
        assert x.cden == 1 and all(type(c) is QuadExt for c in numerators)
    else:
        assert all(type(c) is int and c for c in numerators)
        assert math.gcd(x.cden, *numerators) == 1
    if not numerators:
        assert x.cden == 1


def ref_negated(x):
    return [(e, -c) for e, c in x.terms]


def ref_product(a, b):
    """The product cutoff rule of ``NovikovScalar.__mul__``, then ``make``."""
    cutoff = a.cutoff + b.cutoff
    if b.terms:
        cutoff = min(cutoff, a.cutoff + b.terms[0][0])
    if a.terms:
        cutoff = min(cutoff, b.cutoff + a.terms[0][0])
    pairs = [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
    return NovikovScalar.make(a.field, cutoff, pairs)


@pytest.mark.parametrize("fields", [(Q, Q), (Q_3, Q_3), (Q_3, Q_3_AGAIN)],
                         ids=["Q", "Q(s-3)", "Q(s-3) twice"])
@given(data=st.data())
@settings(max_examples=150)
def test_kernel_matches_make_reference(fields, data):
    a = data.draw(kernel_scalars(fields[0]))
    b = data.draw(kernel_scalars(fields[1]))
    k = data.draw(st.one_of(st.integers(min_value=-4, max_value=4),
                            kernel_coeffs))
    # denominators up to 5: often off the lattice of a's exponents and cutoff
    t = data.draw(st.fractions(min_value=-2, max_value=9, max_denominator=5))
    cutoff = min(a.cutoff, b.cutoff)
    make = NovikovScalar.make
    cases = [
        (a + b, make(a.field, cutoff, a.terms + b.terms)),
        (a - b, make(a.field, cutoff, a.terms + tuple(ref_negated(b)))),
        (k - a, make(a.field, a.cutoff, [(0, k)] + ref_negated(a))),
        (a * b, ref_product(a, b)),
        (-a, make(a.field, a.cutoff, ref_negated(a))),
        (a.truncate(t), make(a.field, min(t, a.cutoff), a.terms)),
    ]
    for got, want in cases:
        assert typed(got) == typed(want)
        assert_reduced(got)
        assert got.cden == want.cden
    assert (a == b) == (not (a - b).terms)
    try:
        inverse = a.invert()
    except (ZeroDivisionError, InsufficientCutoff):
        return
    assert_reduced(inverse)


def stretched(x, m):
    """x at T = S^m: every exponent and the cutoff times m."""
    return NovikovScalar.make(x.field, x.cutoff * m,
                              [(e * m, c) for e, c in x.terms])


def lattice_chain(a, b):
    """A product, then a sum, then an inverse."""
    p = a * b
    s = p + b
    return p, s, s.invert()


def test_lattice_grows_to_the_lcm():
    a = nov([(Fraction(1, 2), 1), (1, Fraction(1, 3))], cutoff=Fraction(11, 2))
    b = nov([(0, 2), (Fraction(2, 3), -1)], cutoff=Fraction(17, 3))
    assert (a.den, b.den) == (2, 3)
    p, s, i = lattice_chain(a, b)
    assert (p.den, s.den, i.den) == (6, 6, 6)
    assert typed(p) == typed(ref_product(a, b))
    assert typed(s) == typed(NovikovScalar.make(
        Q, min(p.cutoff, b.cutoff), p.terms + b.terms))
    assert i * s == 1
    # the same chain at T = S^6 runs on integer exponents throughout
    integral = lattice_chain(stretched(a, 6), stretched(b, 6))
    assert all(x.den == 1 for x in integral)
    for x, y in zip((p, s, i), integral):
        assert typed(stretched(x, 6)) == typed(y)


def test_integral_views_are_the_stored_parts():
    x = nov([(0, 2), (1, -3)])
    assert (x.den, x.cden) == (1, 1)
    assert x.terms is x.lterms and x.cutoff is x.lattice[1]
    # 2 + 1/3*T stores the numerators (6, 1) over one coefficient
    # denominator 3; its views are built
    w = nov([(0, 2), (1, Fraction(1, 3))])
    assert (w.den, w.lattice, w.cden, w.lterms) == (1, (1, 6), 3,
                                                    ((0, 6), (1, 1)))
    assert typed(w) == ((int, 6), [((int, 0), (int, 2)),
                                   ((int, 1), (Fraction, Fraction(1, 3)))])
    assert w.leading() == (0, 2) and type(w.leading()[1]) is int
    assert w.coefficient(1) == Fraction(1, 3)
    y = nov([(Fraction(1, 2), 1)], cutoff=Fraction(11, 2))
    assert (y.den, y.lattice, y.lterms) == (2, (2, 11), ((1, 1),))
    assert typed(y) == ((Fraction, Fraction(11, 2)),
                        [((Fraction, Fraction(1, 2)), (int, 1))])


def test_constructor_canonicalizes_like_make():
    pairs = [(1, 2), (0, 1), (7, 3), (2, 0)]
    x = NovikovScalar(Q, 6, pairs)
    assert typed(x) == typed(nov(pairs))
    assert x.valuation() == 0 and format_scalar(x) == "1 + 2*T"
    assert typed(x - nov([(0, 1)])) == typed(nov([(1, 2)]))
    with pytest.raises(NotRepresentable):
        NovikovScalar(Q, 6, [(0.5, 1)])


@given(data=st.data())
@settings(max_examples=25)
def test_kernel_refuses_mixed_fields(data):
    a = data.draw(kernel_scalars(Q))
    b = data.draw(kernel_scalars(Q_3))
    c = data.draw(kernel_scalars(Q5))
    for x, y in [(a, b), (b, a), (b, c)]:
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(FieldMismatch):
                op(x, y)


def kernel_results():
    x = nov([(0, 2), (Fraction(1, 2), -1)])
    y = nov([(Fraction(1, 2), 1), (1, Fraction(1, 3))], cutoff=5)
    c, d = nov([(0, 3)]), nov([(0, -5)])
    return {"sum": x + y, "constant sum": c + d, "difference": x - y,
            "constant difference": c - d, "reflected difference": 1 - x,
            "product": x * y, "constant product": c * d, "negation": -x,
            "inverse": x.invert(), "truncation": x.truncate(1)}


@pytest.mark.parametrize("name", sorted(kernel_results()))
def test_kernel_results_stay_immutable_and_unhashable(name):
    x = kernel_results()[name]
    for attr in ("field", "cutoff", "terms", "den", "lattice", "cden",
                 "lterms", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)
    with pytest.raises(TypeError):
        hash(x)


def test_division_sites_stay_exact():
    half = Q.invert(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    three = Q.invert(Fraction(1, 3))
    assert three == 3 and type(three) is int
    two = Q.sqrt(4)
    assert two == 2 and type(two) is int
    inv = QuadExt(1, 1, 5).inverse()
    assert (inv.a, inv.b) == (Fraction(-1, 4), Fraction(1, 4))
    assert type(inv.a) is Fraction and type(inv.b) is Fraction
    for field, x, want in [(Q5, 5, Q5.root), (Q5, QuadExt(6, 2, 5), 1 + Q5.root),
                           (Q_3, -3, Q_3.root)]:
        r = field.sqrt(x)
        assert r in (want, -want)
        assert type(r.a) is int and type(r.b) is int
    quarter = field_power(Q, 2, -2)
    assert quarter == Fraction(1, 4) and type(quarter) is Fraction
    assert Q5.zero is Q5.zero and Q5.one is Q5.one and Q5.root is Q5.root


# -- inversion oracles -----------------------------------------------------

def test_invert_one_plus_t_geometric():
    # oracle: term-by-term convolution of (1+T) with sum_{k<E} (-T)^k is 1
    a = nov([(0, 1), (1, 1)])
    geo = nov([(k, Fraction((-1) ** k)) for k in range(int(E))])
    assert a * geo == NovikovScalar.one(Q, E)
    assert a.invert() == geo


def test_invert_two_plus_t():
    a = nov([(0, 2), (1, 1)])
    inv = a.invert()
    assert a * inv == NovikovScalar.one(Q, E)
    # leading term of the inverse
    assert inv.coefficient(0) == Fraction(1, 2)


def test_invert_with_valuation_shift():
    a = nov([(1, 1), (2, 1)])  # T(1+T)
    inv = a.invert()
    assert inv.valuation() == -1
    prod = a * inv
    assert prod == NovikovScalar.one(Q, prod.cutoff)
    # relative precision preserved: E - 2*val
    assert inv.cutoff == E - 2


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        NovikovScalar.zero(Q, E).invert()


def test_invert_beyond_cutoff_raises():
    a = NovikovScalar.make(Q, Fraction(2), [(3, 1)])  # zero to cutoff 2
    with pytest.raises(ZeroDivisionError):
        a.invert()
    b = NovikovScalar.make(Q, Fraction(2), [(Fraction(5, 2), 1)])
    with pytest.raises(ZeroDivisionError):
        b.invert()


def test_field_mismatch_raises():
    a = nov([(0, 1)])
    b = NovikovScalar.make(Q5, E, [(0, 1)])
    with pytest.raises(FieldMismatch):
        _ = a + b


# -- square roots ----------------------------------------------------------

def test_sqrt_monomial():
    a = nov([(1, 1)])
    r = a.sqrt()
    assert r == NovikovScalar.monomial(Q, E, Fraction(1, 2))
    assert r * r == a
    r = nov([(2, 4)]).sqrt()  # 4*T^2
    assert r.terms == ((1, 2),) and type(r.terms[0][0]) is int


def test_sqrt_series():
    a = nov([(0, 4), (1, 4), (2, 1)])  # (2 + T)^2
    assert a.sqrt() == nov([(0, 2), (1, 1)])
    r = nov([(2, 4), (3, 4), (4, 1)]).sqrt()  # (2T + T^2)^2
    assert r == nov([(1, 2), (2, 1)])
    assert all(type(e) is int for e, _ in r.terms)
    b = nov([(0, 1), (1, 1)])
    r = b.sqrt()
    assert (r * r - b).is_zero()


def test_sqrt_not_representable():
    with pytest.raises(NotRepresentable):
        nov([(0, 2)]).sqrt()


# -- quadratic extension ---------------------------------------------------

def test_quadext_arithmetic():
    s5 = Q5.root
    phi = (1 + s5) / 2
    assert phi * phi == phi + 1
    assert phi.inverse() == phi - 1
    assert Q5.sqrt(QuadExt(Fraction(9), Fraction(0), 5)) == 3
    assert Q5.sqrt(QuadExt(Fraction(5), Fraction(0), 5)) == s5
    # (1 + s5)^2 = 6 + 2 s5
    assert Q5.sqrt(QuadExt(Fraction(6), Fraction(2), 5)) in (1 + s5, -(1 + s5))


def test_quadext_negative_d():
    Q3 = QuadraticField(-3)
    zeta = (QuadExt(Fraction(-1), Fraction(1), -3)) / 2  # primitive cube root
    assert zeta * zeta * zeta == 1
    assert zeta * zeta + zeta + 1 == 0


def test_quadraticfield_rejects_bad_d():
    with pytest.raises(ValueError):
        QuadraticField(4)
    with pytest.raises(ValueError):
        QuadraticField(12)
    with pytest.raises(ValueError):
        QuadraticField(1)


def test_quadraticfield_takes_only_integer_d():
    with pytest.raises(NotRepresentable):
        QuadraticField(2.0)
    with pytest.raises(NotRepresentable):
        QuadraticField(True)
    with pytest.raises(StructureError):
        QuadraticField(Fraction(3, 2))
    K = QuadraticField(Fraction(3))
    assert type(K.d) is int and K == QuadraticField(3)
    assert type(K.root.d) is int and K.root * K.root == 3


# -- QuadExt against a reference of two Fraction parts ----------------------
# The class stores one reduced integer triple (p + q*sqrt(d))/n; the
# reference keeps a + b*sqrt(d) as the pair (a, b) of Fractions.

quad_ds = st.sampled_from([5, -3, 2, -1])
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
quad_parts = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def quad_operands(draw, d):
    """An int, a Fraction or a QuadExt, with its reference pair."""
    kind = draw(st.sampled_from(["int", "fraction", "quad"]))
    if kind == "int":
        a = draw(st.integers(min_value=-9, max_value=9))
        return a, (Fraction(a), Fraction(0))
    if kind == "fraction":
        a = draw(rationals)
        return a, (a, Fraction(0))
    a, b = draw(rationals), draw(quad_parts)
    return QuadExt(a, b, d), (a, b)


def ref_mul(x, y, d):
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


def ref_inverse(x, d):
    a, b = x
    norm = a * a - b * b * d
    return a / norm, -b / norm


def assert_quad(r, want, d):
    """r is the element ``want`` of Q(sqrt d), stored reduced."""
    assert type(r) is QuadExt and r.d == d
    assert r.n > 0 and math.gcd(r.p, r.q, r.n) == 1
    assert all(type(v) is int for v in (r.p, r.q, r.n))
    assert (r.a, r.b) == want and canonical_coeff(r)


@given(d=quad_ds, data=st.data())
@settings(max_examples=200)
def test_quadext_matches_fraction_pairs(d, data):
    a, b = data.draw(rationals), data.draw(quad_parts)
    x, xr = QuadExt(a, b, d), (a, b)
    y, yr = data.draw(quad_operands(d))
    assert_quad(x, xr, d)
    add = (a + yr[0], b + yr[1])
    sub = (a - yr[0], b - yr[1])
    mul = ref_mul(xr, yr, d)
    for r, want in [(x + y, add), (y + x, add), (x - y, sub),
                    (y - x, (-sub[0], -sub[1])), (x * y, mul), (y * x, mul),
                    (-x, (-a, -b))]:
        assert_quad(r, want, d)
    zero = (Fraction(0), Fraction(0))
    if xr != zero:
        assert_quad(x.inverse(), ref_inverse(xr, d), d)
        assert_quad(y / x, ref_mul(yr, ref_inverse(xr, d), d), d)
    if yr != zero:
        assert_quad(x / y, ref_mul(xr, ref_inverse(yr, d), d), d)
    assert (x == y) is (xr == yr) and (y == x) is (xr == yr)
    if xr == yr:
        assert hash(x) == hash(y)
    if b == 0:
        assert x == a and hash(x) == hash(a)
    assert bool(x) is (xr != zero)


def test_quadratic_arithmetic_builds_no_fraction(monkeypatch):
    K = QuadraticField(-3)
    zeta = (K.coerce(-1) + K.root) / 2
    built = []
    fraction_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    powers = [K.one]
    for _ in range(5):
        powers.append(powers[-1] * zeta)
    inverses = [z.inverse() for z in powers]
    total = K.zero
    for z, w in zip(powers, inverses):
        total = total + z - w * K.coerce(2)
    coerced = [K.coerce(k) for k in range(-3, 4)]
    assert powers[3] == 1 and inverses[1] == powers[2]
    root = 2 * zeta + 1
    assert total == 0 and coerced[0] == -3 and root * root == -3
    assert built == []


def test_rational_arithmetic_builds_no_fraction(monkeypatch):
    third = Fraction(1, 3)
    a = nov([(0, third), (Fraction(1, 2), Fraction(2, 9)), (1, Fraction(-5, 6))])
    b = nov([(0, 3), (Fraction(1, 3), Fraction(2, 9)), (2, Fraction(7, 4))],
            cutoff=Fraction(17, 3))
    c = nov([(0, Fraction(2, 9)), (1, Fraction(-2, 9))])
    t, cut, scale = NovikovScalar.monomial(Q, E, 1), Fraction(7, 2), Fraction(9, 2)
    built = []
    fraction_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    results = [a + b, a - b, b - a, a * b, b * a, -a, a.invert(), b.invert(),
               (a * b).invert(), a.truncate(cut), a.truncate(1),
               c + c, c - c, c * c, a + third, third - a, a * third]
    equal = [a == a + 0, a * a.invert() == 1, c - c == 0, a == third,
             c * scale == 1 - t]
    assert built == []
    # the views build their Fractions only when read
    monkeypatch.undo()
    assert equal == [True, True, True, False, True]
    assert typed(c + c) == typed(nov([(0, Fraction(4, 9)), (1, Fraction(-4, 9))]))
    assert typed(a.truncate(1)) == typed(nov([(0, third), (Fraction(1, 2),
                                               Fraction(2, 9))], cutoff=1))
    for x in results:
        assert_reduced(x)


# -- float operands --------------------------------------------------------

@pytest.mark.parametrize("field", [Q, Q5])
def test_float_operands_are_not_representable(field):
    x = NovikovScalar.monomial(field, E, 1)
    with pytest.raises(NotRepresentable):
        x + 0.5
    with pytest.raises(NotRepresentable):
        x * 1j


def test_float_parts_and_field_arguments_are_not_representable():
    with pytest.raises(NotRepresentable):
        NovikovScalar.make(Q5, 6, [(0, QuadExt(0.5, 0, 5))])
    with pytest.raises(NotRepresentable):
        QuadExt(1, 1, 2.0)
    with pytest.raises(NotRepresentable):
        Q.invert(0.5)
    with pytest.raises(NotRepresentable):
        Q.sqrt(0.25)
    # float exponents and cutoffs, even those whose binary value is exact
    for build in (lambda: nov([(0.1, 1)]),
                  lambda: nov([(0.5, 1)]),
                  lambda: nov([(1, 1)], cutoff=6.5),
                  lambda: nov([(1, 1)], cutoff=float(E)),
                  lambda: NovikovScalar(Q, 6.0, ()),
                  lambda: nov([(1, 1)]).truncate(2.5),
                  lambda: nov([(1, 1)]).coefficient(0.1),
                  lambda: nov([(1, 1)]).coefficient(1.0),
                  lambda: parse_scalar("T", Q, 6.5)):
        with pytest.raises(NotRepresentable):
            build()


# -- literal syntax --------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-2",
        "5/2",
        "3*T",
        "T^2",
        "-T",
        "T^(1/2)",
        "2*T^-1",
        "1/3*T^(-1/2)",
        "1 + T",
        "2 - 3*T^2 + T^4",
    ],
)
def test_literal_round_trip_q(text):
    x = parse_scalar(text, Q, E)
    assert parse_scalar(format_scalar(x), Q, E) == x


def test_literal_round_trip_exact_text():
    x = parse_scalar("(5/2 + 5/2*s5)*T^1", Q5, E)
    out = format_scalar(x)
    assert out == "(5/2 + 5/2*s5)*T"
    assert parse_scalar(out, Q5, E) == x


@given(scalars())
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x), Q, E) == x


def test_decimal_literals_are_exact():
    assert format_scalar(parse_scalar("1.5*T", Q, E)) == "3/2*T"
    assert parse_scalar("2.5e-1", Q, E) == nov([(0, Fraction(1, 4))])
    assert format_scalar(parse_scalar("0.5*s5", Q5, E)) == "1/2*s5"


def test_literal_errors():
    with pytest.raises(NotRepresentable):
        parse_scalar("s5*T", Q, E)
    for text in ["T^^2", "2j", "1 + ", "T + O(T^6) + 1", "(1 + O(T^6))*T",
                 "T - O(T^6)", "O(T^6)", "T + O(6)", "T + O(T^6"]:
        with pytest.raises(FixtureError):
            parse_scalar(text, Q, E)
    # a zero denominator, or a divisor that is 0 below the cutoff
    for text, cutoff in [("1/T^2", 1),
                         ("1/(T^2 + T^3) + O(T^(1/2))", Fraction(1, 2)),
                         ("1/0", E), ("T^(1/0)", E)]:
        with pytest.raises(FixtureError, match="division by zero"):
            parse_scalar(text, Q, cutoff)


def test_order_term_must_name_the_cutoff():
    assert parse_scalar("T + O(T^6)", Q, E) == parse_scalar("T", Q, E)
    with pytest.raises(FixtureError, match="is not O"):
        parse_scalar("T + O(T^5)", Q, E)
    # a product with a negative power lowers the working cutoff; the order
    # term restores the one the literal names
    x = parse_scalar("2*T^(-2/3) + O(T^6)", Q, E)
    assert typed(x) == typed(nov([(Fraction(-2, 3), 2)]))


def test_literals_read_with_python_precedence():
    # forms format_scalar never prints, read as Python reads them
    assert parse_scalar("T^2/3", Q, E) == nov([(2, Fraction(1, 3))])
    assert parse_scalar("T^-1/2", Q, E) == nov([(-1, Fraction(1, 2))])
    assert parse_scalar("T\n+ 1", Q, E) == nov([(0, 1), (1, 1)])


def test_long_literal_round_trips():
    x = NovikovScalar.make(Q, 1500, [(k, k + 1) for k in range(1500)])
    text = format_scalar(x, show_order=True)
    assert typed(parse_scalar(text, Q, 1500)) == typed(x)


def at_depth(n, f):
    """f() called n frames deeper than this call."""
    return f() if n == 0 else at_depth(n - 1, f)


def test_literal_sign_bound_does_not_depend_on_the_stack():
    # the longest format_scalar text read has 2,000 signs: 1,999 between
    # its 2,000 terms and one before its order term
    longest = NovikovScalar.make(Q, 2000, [(k, k + 1) for k in range(2000)])
    text = format_scalar(longest, show_order=True)
    assert text.count("+") + text.count("-") == 2000
    over = NovikovScalar.make(Q, 2001, [(k, k + 1) for k in range(2001)])
    over_text = format_scalar(over, show_order=True)
    for depth in (0, 200):
        read = at_depth(depth, lambda: parse_scalar(text, Q, 2000))
        assert typed(read) == typed(longest)
        with pytest.raises(FixtureError, match="more than 2000 signs"):
            at_depth(depth, lambda: parse_scalar(over_text, Q, 2001))


@pytest.mark.parametrize("shape,value", [
    (lambda n: "*".join(["1"] * (n + 1)), 1),
    (lambda n: "/".join(["2"] * (n + 1)), Fraction(1, 2 ** 99)),
    (lambda n: "2*(" * n + "1" + ")" * n, 2 ** 100),
    (lambda n: "*".join(["1"] * (n + 1)) + " + 1" * 2000, 2001),
    (lambda n: "*".join(["1"] * (n // 2)) + "*(1 + 1" + "/1" * (n - n // 2)
     + ")", 2),
], ids=["products", "quotients", "nested", "products-then-2000-signs",
        "products-into-a-group"])
def test_literal_product_bound_does_not_depend_on_the_stack(shape, value):
    # the longest accepted literal of each shape chains 100 operators * and
    # / on one path; it still reads 200 frames deep, after the longest sum
    text, over_text = shape(100), shape(101)
    for depth in (0, 200):
        read = at_depth(depth, lambda: parse_scalar(text, Q, 2000))
        assert typed(read) == typed(NovikovScalar.constant(Q, 2000, value))
        with pytest.raises(FixtureError, match="more than 100 operators"):
            at_depth(depth, lambda: parse_scalar(over_text, Q, 2000))


@pytest.mark.parametrize("text", [
    " + ".join(["T"] * 50_000), "(" * 300 + "1" + ")" * 300,
    "0x10", "2j", "T^1.5", "1 # + T", "\N{MATHEMATICAL BOLD CAPITAL T}",
], ids=["sum-50000", "parentheses-300", "hex", "complex", "float-exponent",
        "comment", "non-ascii"])
def test_literal_reader_raises_only_fixture_errors(text):
    # no SyntaxError, ValueError or RecursionError escapes the reader; a
    # comment would drop the rest of the literal, and Python reads the
    # bold T as the name T
    with pytest.raises(FixtureError):
        parse_scalar(text, Q, E)


@pytest.mark.parametrize("field", [Q, Q_3], ids=repr)
@given(data=st.data())
@settings(max_examples=100)
def test_format_parse_round_trip_with_order(field, data):
    x = data.draw(kernel_scalars(field))
    text = format_scalar(x, show_order=True)
    assert typed(parse_scalar(text, field, x.cutoff)) == typed(x)


def test_show_order_flag():
    x = nov([(1, 1)])
    assert format_scalar(x, show_order=True) == "T + O(T^6)"
