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


@st.composite
def kernel_scalars(draw, field):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = [(draw(exponents), draw(field_elements(field))) for _ in range(n)]
    return NovikovScalar.make(field, draw(cutoffs), pairs)


def typed(x):
    """Cutoff and terms of a scalar with the type of every number."""
    def number(v):
        if isinstance(v, QuadExt):
            return (number(v.a), number(v.b), v.d)
        return (type(v), v)
    return number(x.cutoff), [(number(e), number(c)) for e, c in x.terms]


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
    k = data.draw(st.one_of(st.integers(min_value=-4, max_value=4), coeffs))
    cutoff = min(a.cutoff, b.cutoff)
    make = NovikovScalar.make
    cases = [
        (a + b, make(a.field, cutoff, a.terms + b.terms)),
        (a - b, make(a.field, cutoff, a.terms + tuple(ref_negated(b)))),
        (k - a, make(a.field, a.cutoff, [(0, k)] + ref_negated(a))),
        (a * b, ref_product(a, b)),
        (-a, make(a.field, a.cutoff, ref_negated(a))),
    ]
    for got, want in cases:
        assert typed(got) == typed(want)
    assert (a == b) == (not (a - b).terms)


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
    for attr in ("field", "cutoff", "terms", "other"):
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
    z = complex(zeta)
    assert abs(z - complex(-0.5, math.sqrt(3) / 2)) < 1e-12


def test_quadraticfield_rejects_bad_d():
    with pytest.raises(ValueError):
        QuadraticField(4)
    with pytest.raises(ValueError):
        QuadraticField(12)
    with pytest.raises(ValueError):
        QuadraticField(1)


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


def test_order_term_must_name_the_cutoff():
    assert parse_scalar("T + O(T^6)", Q, E) == parse_scalar("T", Q, E)
    with pytest.raises(FixtureError, match="is not O"):
        parse_scalar("T + O(T^5)", Q, E)
    # a product with a negative power lowers the working cutoff; the order
    # term restores the one the literal names
    x = parse_scalar("2*T^(-2/3) + O(T^6)", Q, E)
    assert typed(x) == typed(nov([(Fraction(-2, 3), 2)]))


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
