import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfbench.errors import FieldMismatch, InsufficientCutoff, NotRepresentable
from ainfbench.novikov import (
    FloatComplex,
    NovikovScalar,
    QuadExt,
    QuadraticField,
    Rationals,
    format_scalar,
    parse_scalar,
)

Q = Rationals()
Q5 = QuadraticField(5)
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
               a.truncate(float(e)), (lead * lead).sqrt(),
               nov([(float(x), c) for x, c in b.terms], cutoff=float(E)),
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


# -- float field -----------------------------------------------------------

def test_float_field_eps_equality():
    F = FloatComplex(eps=1e-9)
    a = NovikovScalar.make(F, E, [(0, 1.0), (1, 2.0)])
    b = NovikovScalar.make(F, E, [(0, 1.0 + 1e-12), (1, 2.0)])
    assert a == b
    inv = a.invert()
    assert a * inv == NovikovScalar.one(F, E)
    c = NovikovScalar.make(F, E, [(0, complex(0, 1))])
    assert c * c == NovikovScalar.constant(F, E, -1.0)


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


def test_literal_float_complex():
    F = FloatComplex(1e-9)
    x = parse_scalar("(1.5+2j)*T^2", F, E)
    assert x.coefficient(2) == complex(1.5, 2)
    assert parse_scalar(format_scalar(x), F, E) == x


def test_literal_errors():
    with pytest.raises(NotRepresentable):
        parse_scalar("s5*T", Q, E)
    with pytest.raises(ValueError):
        parse_scalar("T^^2", Q, E)
    with pytest.raises(ValueError):
        parse_scalar("1 + ", Q, E)


def test_show_order_flag():
    x = nov([(1, 1)])
    assert format_scalar(x, show_order=True) == "T + O(T^6)"
