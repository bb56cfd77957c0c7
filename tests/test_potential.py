import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfbench import novikov, potential
from ainfbench.errors import (
    InsufficientCutoff,
    NotRepresentable,
    StructureError,
)
from ainfbench.novikov import (
    NovikovScalar,
    QuadExt,
    QuadraticField,
    Rationals,
    format_scalar,
)
from ainfbench.potential import (
    DegenerateRootWarning,
    MomentPolytope,
    NovikovLaurentPolynomial,
    build_toric_potential,
    critical_points,
    hessian,
    morse_count_check,
    u_of_c,
    _lift_points,
    _term_monomials,
)

SQUARE_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
MOVE = [[1, 1], [1, 2]]
SHEAR = [[1, -2], [0, 1]]


def _toric(rays, offsets):
    return build_toric_potential(MomentPolytope(rays, offsets)).potential


# name -> (potential, substitution or None, cutoff)
CASES = {
    "p1": (_toric([(1,), (-1,)], [0, 1]), None, 6),
    "p2": (_toric(P2_RAYS, [0, 0, 1]), None, 6),
    "square": (_toric(SQUARE_RAYS, [0, 0, 1, 1]), None, 6),
    "skew": (_toric(SQUARE_RAYS, [0, 0, 1, 2]), None, 6),
    "p2_moved": (_toric(P2_RAYS, [0, 0, 1]), MOVE, 6),
    "square_moved": (_toric(SQUARE_RAYS, [0, 0, 1, 1]), MOVE, 6),
    "p2_sheared": (_toric(P2_RAYS, [0, 0, 1]), SHEAR, 6),
    "square_sheared": (_toric(SQUARE_RAYS, [0, 0, 1, 1]), SHEAR, 6),
    "pentagon": (_toric(SQUARE_RAYS + [(1, 1)], [0, 0, 2, 2, 1]), None, 6),
}


def _case(name):
    pot, move, cutoff = CASES[name]
    if move is not None:
        pot = pot.change_of_variables(move)
    return pot, cutoff


def _pin(x):
    return (format_scalar(x), str(x.cutoff))


def _record(p):
    return (
        tuple(str(v) for v in p.valuations),
        str(p.residual_valuation),
        tuple(str(v) for v in p.lift_schedule),
        tuple(_pin(c) for c in p.coordinates),
        _pin(p.value),
        tuple(_pin(h) for row in p.hessian for h in row),
        _pin(p.hessian_det),
    )


def test_potential_prints_unit_coefficients_bare():
    p2 = build_toric_potential(
        MomentPolytope([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])).potential
    assert str(p2) == "y2 + y1 + T*y1^-1*y2^-1"
    p1 = build_toric_potential(MomentPolytope([(1,), (-1,)], [0, 1])).potential
    assert str(p1) == "y1 + T*y1^-1"
    assert str(-p1) == "-y1 - T*y1^-1"
    w = NovikovLaurentPolynomial.make(
        Rationals(), 1, [(0, (0,), 1), (0, (2,), Fraction(-3, 2))])
    assert str(w) == "1 - 3/2*y1^2"


@pytest.mark.parametrize("energy, exponents, coeff, want", [
    (1, (1, 0), 1 + QuadraticField(-3).root, "(1 + s-3)*T*y1"),
    (0, (1, 0), (QuadraticField(-3).root - 1) / 2, "(-1/2 + 1/2*s-3)*y1"),
    (0, (0, 1), -QuadraticField(-3).root, "-s-3*y2"),
])
def test_potential_brackets_only_sums(energy, exponents, coeff, want):
    w = NovikovLaurentPolynomial.make(
        QuadraticField(-3), 2, [(energy, exponents, coeff)])
    assert str(w) == want


# Per point: valuations, residual valuation, lift schedule, coordinates,
# value, Hessian entries (row-major) and Hessian determinant, each scalar
# as (format_scalar text, cutoff).
GOLDEN = {
    "p1": [
        (("1/2",), "13/2", ("6",),
         (("-T^(1/2)", "6"),),
         ("-2*T^(1/2)", "6"),
         (("-2*T^(1/2)", "6"),),
         ("-2*T^(1/2)", "6")),
        (("1/2",), "13/2", ("6",),
         (("T^(1/2)", "6"),),
         ("2*T^(1/2)", "6"),
         (("2*T^(1/2)", "6"),),
         ("2*T^(1/2)", "6")),
    ],
    "p2": [
        (("1/3", "1/3"), "19/3", ("6",),
         (("(-1/2 + 1/2*s-3)*T^(1/3)", "6"), ("(-1/2 + 1/2*s-3)*T^(1/3)", "6")),
         ("(-3/2 + 3/2*s-3)*T^(1/3)", "6"),
         (("(-1 + s-3)*T^(1/3)", "6"), ("(-1/2 + 1/2*s-3)*T^(1/3)", "6"),
          ("(-1/2 + 1/2*s-3)*T^(1/3)", "6"), ("(-1 + s-3)*T^(1/3)", "6")),
         ("(-3/2 - 3/2*s-3)*T^(2/3)", "6")),
        (("1/3", "1/3"), "19/3", ("6",),
         (("(-1/2 - 1/2*s-3)*T^(1/3)", "6"), ("(-1/2 - 1/2*s-3)*T^(1/3)", "6")),
         ("(-3/2 - 3/2*s-3)*T^(1/3)", "6"),
         (("(-1 - s-3)*T^(1/3)", "6"), ("(-1/2 - 1/2*s-3)*T^(1/3)", "6"),
          ("(-1/2 - 1/2*s-3)*T^(1/3)", "6"), ("(-1 - s-3)*T^(1/3)", "6")),
         ("(-3/2 + 3/2*s-3)*T^(2/3)", "6")),
        (("1/3", "1/3"), "19/3", ("6",),
         (("T^(1/3)", "6"), ("T^(1/3)", "6")),
         ("3*T^(1/3)", "6"),
         (("2*T^(1/3)", "6"), ("T^(1/3)", "6"),
          ("T^(1/3)", "6"), ("2*T^(1/3)", "6")),
         ("3*T^(2/3)", "6")),
    ],
    "square": [
        (("1/2", "1/2"), "13/2", ("6",),
         (("-T^(1/2)", "6"), ("-T^(1/2)", "6")),
         ("-4*T^(1/2)", "6"),
         (("-2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("-2*T^(1/2)", "6")),
         ("4*T", "6")),
        (("1/2", "1/2"), "13/2", ("6",),
         (("-T^(1/2)", "6"), ("T^(1/2)", "6")),
         ("0", "6"),
         (("-2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("2*T^(1/2)", "6")),
         ("-4*T", "6")),
        (("1/2", "1/2"), "13/2", ("6",),
         (("T^(1/2)", "6"), ("-T^(1/2)", "6")),
         ("0", "6"),
         (("2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("-2*T^(1/2)", "6")),
         ("-4*T", "6")),
        (("1/2", "1/2"), "13/2", ("6",),
         (("T^(1/2)", "6"), ("T^(1/2)", "6")),
         ("4*T^(1/2)", "6"),
         (("2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("2*T^(1/2)", "6")),
         ("4*T", "6")),
    ],
    "skew": [
        (("1/2", "1"), "13/2", ("11/2",),
         (("-T^(1/2)", "6"), ("-T", "6")),
         ("-2*T^(1/2) - 2*T", "6"),
         (("-2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("-2*T", "6")),
         ("4*T^(3/2)", "6")),
        (("1/2", "1"), "13/2", ("11/2",),
         (("-T^(1/2)", "6"), ("T", "6")),
         ("-2*T^(1/2) + 2*T", "6"),
         (("-2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("2*T", "6")),
         ("-4*T^(3/2)", "6")),
        (("1/2", "1"), "13/2", ("11/2",),
         (("T^(1/2)", "6"), ("-T", "6")),
         ("2*T^(1/2) - 2*T", "6"),
         (("2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("-2*T", "6")),
         ("-4*T^(3/2)", "6")),
        (("1/2", "1"), "13/2", ("11/2",),
         (("T^(1/2)", "6"), ("T", "6")),
         ("2*T^(1/2) + 2*T", "6"),
         (("2*T^(1/2)", "6"), ("0", "6"),
          ("0", "6"), ("2*T", "6")),
         ("4*T^(3/2)", "6")),
    ],
    "p2_moved": [
        (("1/3", "0"), "6", ("17/3",),
         (("(-1/2 + 1/2*s-3)*T^(1/3)", "6"), ("1", "6")),
         ("(-3/2 + 3/2*s-3)*T^(1/3)", "6"),
         (("(-3 + 3*s-3)*T^(1/3)", "6"), ("(-9/2 + 9/2*s-3)*T^(1/3)", "6"),
          ("(-9/2 + 9/2*s-3)*T^(1/3)", "6"), ("(-7 + 7*s-3)*T^(1/3)", "6")),
         ("(-3/2 - 3/2*s-3)*T^(2/3)", "6")),
        (("1/3", "0"), "6", ("17/3",),
         (("(-1/2 - 1/2*s-3)*T^(1/3)", "6"), ("1", "6")),
         ("(-3/2 - 3/2*s-3)*T^(1/3)", "6"),
         (("(-3 - 3*s-3)*T^(1/3)", "6"), ("(-9/2 - 9/2*s-3)*T^(1/3)", "6"),
          ("(-9/2 - 9/2*s-3)*T^(1/3)", "6"), ("(-7 - 7*s-3)*T^(1/3)", "6")),
         ("(-3/2 + 3/2*s-3)*T^(2/3)", "6")),
        (("1/3", "0"), "6", ("17/3",),
         (("T^(1/3)", "6"), ("1", "6")),
         ("3*T^(1/3)", "6"),
         (("6*T^(1/3)", "6"), ("9*T^(1/3)", "6"),
          ("9*T^(1/3)", "6"), ("14*T^(1/3)", "6")),
         ("3*T^(2/3)", "6")),
    ],
    "square_moved": [
        (("1/2", "0"), "6", ("11/2",),
         (("-T^(1/2)", "6"), ("-1", "6")),
         ("0", "6"),
         (("0", "6"), ("-2*T^(1/2)", "6"),
          ("-2*T^(1/2)", "6"), ("-6*T^(1/2)", "6")),
         ("-4*T", "6")),
        (("1/2", "0"), "6", ("11/2",),
         (("-T^(1/2)", "6"), ("1", "6")),
         ("-4*T^(1/2)", "6"),
         (("-4*T^(1/2)", "6"), ("-6*T^(1/2)", "6"),
          ("-6*T^(1/2)", "6"), ("-10*T^(1/2)", "6")),
         ("4*T", "6")),
        (("1/2", "0"), "6", ("11/2",),
         (("T^(1/2)", "6"), ("-1", "6")),
         ("0", "6"),
         (("0", "6"), ("2*T^(1/2)", "6"),
          ("2*T^(1/2)", "6"), ("6*T^(1/2)", "6")),
         ("-4*T", "6")),
        (("1/2", "0"), "6", ("11/2",),
         (("T^(1/2)", "6"), ("1", "6")),
         ("4*T^(1/2)", "6"),
         (("4*T^(1/2)", "6"), ("6*T^(1/2)", "6"),
          ("6*T^(1/2)", "6"), ("10*T^(1/2)", "6")),
         ("4*T", "6")),
    ],
    # value and Hessian come from a table of the coordinates cut at 6, where
    # inverting a coordinate of positive valuation lowers the cutoff (16/3
    # and 5); the last Newton table, at the padded precision, would not
    "p2_sheared": [
        (("1", "1/3"), "19/3", ("6",),
         (("T", "6"), ("(-1/2 + 1/2*s-3)*T^(1/3)", "6")),
         ("(-3/2 + 3/2*s-3)*T^(1/3)", "16/3"),
         (("(-1 + s-3)*T^(1/3)", "16/3"), ("(3/2 - 3/2*s-3)*T^(1/3)", "16/3"),
          ("(3/2 - 3/2*s-3)*T^(1/3)", "16/3"), ("(-3 + 3*s-3)*T^(1/3)", "16/3")),
         ("(-3/2 - 3/2*s-3)*T^(2/3)", "17/3")),
        (("1", "1/3"), "19/3", ("6",),
         (("T", "6"), ("(-1/2 - 1/2*s-3)*T^(1/3)", "6")),
         ("(-3/2 - 3/2*s-3)*T^(1/3)", "16/3"),
         (("(-1 - s-3)*T^(1/3)", "16/3"), ("(3/2 + 3/2*s-3)*T^(1/3)", "16/3"),
          ("(3/2 + 3/2*s-3)*T^(1/3)", "16/3"), ("(-3 - 3*s-3)*T^(1/3)", "16/3")),
         ("(-3/2 + 3/2*s-3)*T^(2/3)", "17/3")),
        (("1", "1/3"), "19/3", ("6",),
         (("T", "6"), ("T^(1/3)", "6")),
         ("3*T^(1/3)", "16/3"),
         (("2*T^(1/3)", "16/3"), ("-3*T^(1/3)", "16/3"),
          ("-3*T^(1/3)", "16/3"), ("6*T^(1/3)", "16/3")),
         ("3*T^(2/3)", "17/3")),
    ],
    "square_sheared": [
        (("3/2", "1/2"), "13/2", ("6",),
         (("-T^(3/2)", "6"), ("-T^(1/2)", "6")),
         ("-4*T^(1/2)", "5"),
         (("-2*T^(1/2)", "5"), ("4*T^(1/2)", "5"),
          ("4*T^(1/2)", "5"), ("-10*T^(1/2)", "5")),
         ("4*T", "11/2")),
        (("3/2", "1/2"), "13/2", ("6",),
         (("-T^(3/2)", "6"), ("T^(1/2)", "6")),
         ("0", "5"),
         (("-2*T^(1/2)", "5"), ("4*T^(1/2)", "5"),
          ("4*T^(1/2)", "5"), ("-6*T^(1/2)", "5")),
         ("-4*T", "11/2")),
        (("3/2", "1/2"), "13/2", ("6",),
         (("T^(3/2)", "6"), ("-T^(1/2)", "6")),
         ("0", "5"),
         (("2*T^(1/2)", "5"), ("-4*T^(1/2)", "5"),
          ("-4*T^(1/2)", "5"), ("6*T^(1/2)", "5")),
         ("-4*T", "11/2")),
        (("3/2", "1/2"), "13/2", ("6",),
         (("T^(3/2)", "6"), ("T^(1/2)", "6")),
         ("4*T^(1/2)", "5"),
         (("2*T^(1/2)", "5"), ("-4*T^(1/2)", "5"),
          ("-4*T^(1/2)", "5"), ("10*T^(1/2)", "5")),
         ("4*T", "11/2")),
    ],
    "pentagon": [
        (("-1", "-1"), "6", ("4", "7"),
         (("-T^-1 + T^3", "6"), ("-T^-1 + T^3", "6")),
         ("-T^-1 - 2*T^3", "6"),
         (("-2*T^3", "6"), ("T^-1 - 2*T^3", "6"),
          ("T^-1 - 2*T^3", "6"), ("-2*T^3", "6")),
         ("-T^-2 + 4*T^2", "5")),
        (("1", "1"), "7", ("2", "4", "6"),
         (("-T + 1/2*T^3 - 1/8*T^5", "6"), ("T + 1/2*T^3 + 1/8*T^5", "6")),
         ("-T^3", "6"),
         (("-2*T - T^3 - 1/4*T^5", "6"), ("-T^3", "6"),
          ("-T^3", "6"), ("2*T - T^3 + 1/4*T^5", "6")),
         ("-4*T^2", "6")),
        (("1", "1"), "7", ("2", "4", "6"),
         (("-T - 1/2*T^3 - 5/8*T^5", "6"), ("-T - 1/2*T^3 - 5/8*T^5", "6")),
         ("-4*T + T^3 + 1/2*T^5", "6"),
         (("-2*T + T^3 + 3/4*T^5", "6"), ("T^3 + T^5", "6"),
          ("T^3 + T^5", "6"), ("-2*T + T^3 + 3/4*T^5", "6")),
         ("4*T^2 - 4*T^4", "6")),
        (("1", "1"), "7", ("2", "4", "6"),
         (("T + 1/2*T^3 + 1/8*T^5", "6"), ("-T + 1/2*T^3 - 1/8*T^5", "6")),
         ("-T^3", "6"),
         (("2*T - T^3 + 1/4*T^5", "6"), ("-T^3", "6"),
          ("-T^3", "6"), ("-2*T - T^3 - 1/4*T^5", "6")),
         ("-4*T^2", "6")),
        (("1", "1"), "7", ("2", "4", "6"),
         (("T - 1/2*T^3 + 5/8*T^5", "6"), ("T - 1/2*T^3 + 5/8*T^5", "6")),
         ("4*T + T^3 - 1/2*T^5", "6"),
         (("2*T + T^3 - 3/4*T^5", "6"), ("T^3 - T^5", "6"),
          ("T^3 - T^5", "6"), ("2*T + T^3 - 3/4*T^5", "6")),
         ("4*T^2 + 4*T^4", "6")),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_critical_points_golden(name):
    pot, cutoff = _case(name)
    points = critical_points(pot, cutoff)
    assert [_record(p) for p in points] == GOLDEN[name]
    for p in points:
        report = hessian(pot, p)
        assert tuple(_pin(h) for row in report.matrix for h in row) == \
            _record(p)[5]
        assert report.nondegenerate


def _log_derivative_at(pot, i, coords):
    """y_i dW/dy_i at coords, term by term with only * and invert."""
    field = coords[0].field
    terms = []
    for e, a, c in pot.terms():
        if not a[i]:
            continue
        term = NovikovScalar.monomial(field, 10**9, e, field.coerce(a[i] * c))
        for z, k in zip(coords, a):
            factor = z if k > 0 else z.invert()
            for _ in range(abs(k)):
                term = term * factor
        terms.append(term)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total, terms


@pytest.mark.parametrize("name", sorted(CASES))
def test_critical_points_pass_independent_residual_check(name):
    pot, cutoff = _case(name)
    for p in critical_points(pot, cutoff):
        for i in range(pot.nvars):
            res, terms = _log_derivative_at(pot, i, p.coordinates)
            assert res.is_zero(), (name, i, format_scalar(res))
            # the cancellation is visible: every term starts below the cutoff
            assert all(t.valuation() < res.cutoff for t in terms if t)


def test_p1_and_p2_critical_values():
    half, third = Fraction(1, 2), Fraction(1, 3)
    pot, cutoff = _case("p1")
    Q = Rationals()
    values = sorted(format_scalar(p.value) for p in critical_points(pot, cutoff))
    assert values == sorted(
        format_scalar(NovikovScalar.monomial(Q, cutoff, half, s))
        for s in (2, -2))
    pot, cutoff = _case("p2")
    K = QuadraticField(-3)
    zeta = (K.coerce(-1) + K.root) * K.coerce(half)
    want = [NovikovScalar.monomial(K, cutoff, third, K.coerce(3) * z)
            for z in (K.one, zeta, zeta * zeta)]
    got = [p.value for p in critical_points(pot, cutoff)]
    assert all(v.field == K for v in got)
    assert sorted(map(format_scalar, got)) == sorted(map(format_scalar, want))


MOVES = [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]], [[1, 0], [1, 1]]]
# Known defect: skew P1xP1 under these charts reports a positive-dimensional
# leading system (the leading curves share a component).
SKEW_DEFECT = pytest.mark.xfail(
    strict=True, raises=StructureError,
    reason="skew P1xP1: positive-dimensional leading system in this chart")


@pytest.mark.parametrize("name, move", [
    pytest.param(name, move, marks=SKEW_DEFECT if name == "skew" and
                 move in (MOVES[0], MOVES[2]) else ())
    for name in ("p2", "square", "skew") for move in MOVES
])
def test_critical_values_invariant_under_change_of_variables(name, move):
    pot, cutoff = _case(name)
    before = sorted(format_scalar(p.value) for p in critical_points(pot, cutoff))
    moved = critical_points(pot.change_of_variables(move), cutoff)
    assert sorted(format_scalar(p.value) for p in moved) == before


def test_critical_points_multiplication_count():
    """P2 under [[1,1],[1,2]] at cutoff 6 in few scalar products.

    One monomial table per Newton point, seeded with each coordinate and
    its inverse, and leading systems kept over Q need 84 Novikov and 545
    Q(sqrt -3) products; evaluating every derivative separately and
    redoing the solve over Q(sqrt -3) needed 333 and 7,170.
    """
    pot, cutoff = _case("p2_moved")
    calls = {NovikovScalar: 0, QuadExt: 0}
    saved = []
    for cls in calls:
        for name in ("__mul__", "__rmul__"):
            orig = cls.__dict__[name]
            saved.append((cls, name, orig))

            def counted(*args, _orig=orig, _cls=cls):
                calls[_cls] += 1
                return _orig(*args)

            setattr(cls, name, counted)
    try:
        points = critical_points(pot, cutoff)
    finally:
        for cls, name, orig in saved:
            setattr(cls, name, orig)
    assert len(points) == 3
    assert calls[NovikovScalar] < 150
    assert calls[QuadExt] < 1500


def test_critical_points_weigh_and_build_once_per_candidate(monkeypatch):
    """Tropical selections are weighed in integers, and u and the mus of
    an accepted candidate are formed once (two ``_ratio`` calls per
    variable and candidate: 4 for the one candidate of P2 under
    [[1,1],[1,2]], 8 for the two of the pentagon, which also rejects a
    selection); the term monomials, shifts and unshifts are built once per
    call and candidate (31 scalars canonicalized for P2).  Weighing with
    a rational u built a Fraction per term weight, and building the
    monomials per table and per point took 69 canonical scalars."""
    calls = _count_calls(monkeypatch, "_ratio")
    calls["_canonical"] = 0

    def canonical(*args, _orig=novikov._canonical):
        calls["_canonical"] += 1
        return _orig(*args)

    monkeypatch.setattr(novikov, "_canonical", canonical)
    pot, cutoff = _case("p2_moved")
    assert len(critical_points(pot, cutoff)) == 3
    assert calls == {"_ratio": 4, "_canonical": 31}
    calls.update(dict.fromkeys(calls, 0))
    pot, cutoff = _case("pentagon")
    assert len(critical_points(pot, cutoff)) == 5
    assert calls["_ratio"] == 8


def _count_fractions(monkeypatch):
    built = [0]

    def counted(cls, *args, _orig=Fraction.__new__, **kwargs):
        built[0] += 1
        return _orig(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


@pytest.mark.parametrize("name, bound", [
    ("p2_moved", 89), ("square", 51), ("skew", 40)])
def test_critical_points_fraction_count(monkeypatch, name, bound):
    """Few ``Fraction``s per solve: the leading solve over Q divides
    exactly in ``int``s, takes its gcds on primitive integer polynomials
    and weighs tropical selections in integers, so P2 under [[1,1],[1,2]],
    the square and the skew P1xP1 at cutoff 6 build 89, 51 and 40 of
    them, the coordinate and value views included; dividing through
    field inverses built 2,911, 238 and 226."""
    pot, cutoff = _case(name)
    built = _count_fractions(monkeypatch)
    points = critical_points(pot, cutoff)
    monkeypatch.undo()
    assert [_record(p) for p in points] == GOLDEN[name]
    assert built[0] <= bound


def test_coordinate_invisible_below_cutoff_is_named():
    Q = Rationals()
    w = NovikovLaurentPolynomial.make(Q, 2, [
        (0, (1, 0), 1), (0, (0, 1), 1), (1, (-1, -1), 1),
        (Fraction(5, 3), (1, 1), 2), (Fraction(7, 2), (2, 0), -1)])
    with pytest.raises(InsufficientCutoff, match=r"coordinate y2 .*\(-7/2, 19/6\)"):
        critical_points(w, 3)


def test_degenerate_cubic_is_skipped_and_not_morse():
    # W = y^3/3 - y^2 + y has y dW/dy = y (y - 1)^2: one double root at
    # y = 1, valuation 0, with singular Jacobian, and nothing to lift
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (0, (2,), -1), (0, (1,), 1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert critical_points(w, 4) == []
    assert [c.category for c in caught] == [DegenerateRootWarning]
    assert "degenerate leading root (1) at valuation (0) " \
        in str(caught[0].message)
    verdict = morse_count_check(w, 1, 4)
    assert not verdict.matches
    assert verdict.total == 1 and verdict.nondegenerate_count == 0
    assert "not Morse" in verdict.message


def test_hessian_at_degenerate_point():
    # the same cubic: y d/dy (y dW/dy) = y - 4y^2 + 3y^3 vanishes at y = 1
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (0, (2,), -1), (0, (1,), 1)])
    report = hessian(w, (NovikovScalar.constant(Rationals(), 4, 1),))
    assert not report.nondegenerate
    assert report.determinant.is_zero()


def test_hessian_at_an_exact_point_keeps_int_coefficients():
    # y^2 W'' of W = y^3/3 + T*y is 2y^3.  A point known to the evaluation
    # cutoff itself passes its first weighted term on unmerged, so the
    # weight 6 times the coefficient 1/3 must come back as an int.
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (1, (1,), 1)])
    y = NovikovScalar.make(Rationals(), potential._EXACT,
                           [(0, 1), (Fraction(1, 2), 1)])
    entry = hessian(w, (y,)).matrix[0][0]
    assert entry.terms == ((0, 2), (Fraction(1, 2), 6), (1, 6),
                           (Fraction(3, 2), 2))
    assert all(type(c) is int for _, c in entry.terms)


def _degenerate_then_sqrt2():
    # y dW/dy = y (y - 1)^2 - T/y + 2T^5/y^3: a double root at valuation 0,
    # rational roots +-1 at valuation 1/2 and roots +-sqrt(2) at valuation 2
    return NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (1,), 1), (0, (2,), -1), (0, (3,), Fraction(1, 3)),
        (1, (-1,), 1), (5, (-3,), Fraction(-2, 3))])


def test_degenerate_root_is_warned_once_across_a_base_change():
    w = _degenerate_then_sqrt2()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = critical_points(w, 8)
    assert [c.category for c in caught] == [DegenerateRootWarning]
    assert caught[0].filename == __file__
    assert "degenerate leading root (1) at valuation (0) " \
        in str(caught[0].message)
    assert [p.valuations for p in points] == \
        [(Fraction(1, 2),)] * 2 + [(Fraction(2),)] * 2
    assert all(c.field == QuadraticField(2)
               for p in points for c in p.coordinates)
    verdict = morse_count_check(w, 4, 8)
    assert verdict.total == 5 and verdict.nondegenerate_count == 4
    assert "1 degenerate leading roots" in verdict.message


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _orig=getattr(potential, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(potential, name, counted)
    return calls


def test_critical_points_is_one_pass(monkeypatch):
    calls = _count_calls(monkeypatch, "_tropical_candidates",
                         "_leading_system", "_leading_roots", "_resultant")
    with pytest.warns(DegenerateRootWarning):
        critical_points(_degenerate_then_sqrt2(), 8)
    # one system per candidate; only the roots are extracted again at the
    # switch to Q(sqrt 2)
    assert calls == {"_tropical_candidates": 1, "_leading_system": 3,
                     "_leading_roots": 4, "_resultant": 0}
    calls.update(dict.fromkeys(calls, 0))
    pot, cutoff = _case("p2_moved")
    critical_points(pot, cutoff)
    # one two-variable candidate, whose roots need Q(sqrt -3)
    assert calls == {"_tropical_candidates": 1, "_leading_system": 1,
                     "_leading_roots": 2, "_resultant": 1}


# (coordinate and value below T^4, residual valuation, lift schedule) of
# every point of _degenerate_then_sqrt2() at cutoff 8
SQRT2_SWITCH_POINTS = [
    ("-T^(1/2) + T - 2*T^(3/2) + 5*T^2 - 14*T^(5/2) + 42*T^3 - 131*T^(7/2)",
     "-2*T^(1/2) - T + 2/3*T^(3/2) - T^2 + 2*T^(5/2) - 14/3*T^3 "
     "+ 38/3*T^(7/2)", "17/2", ("1/2", "1", "2", "4", "8")),
    ("T^(1/2) + T + 2*T^(3/2) + 5*T^2 + 14*T^(5/2) + 42*T^3 + 131*T^(7/2)",
     "2*T^(1/2) - T - 2/3*T^(3/2) - T^2 - 2*T^(5/2) - 14/3*T^3 "
     "- 38/3*T^(7/2)", "17/2", ("1/2", "1", "2", "4", "8")),
    ("-s2*T^2", "-1/3*s2*T^-1 - s2*T^2", "8", ("3", "6", "9")),
    ("s2*T^2", "1/3*s2*T^-1 + s2*T^2", "8", ("3", "6", "9")),
]


def test_base_change_lifts_each_point_once(monkeypatch):
    lifted = []

    def counted(pot, terms, u, mus, roots, cutoff, field,
                _orig=potential._lift_points):
        lifted.append((u, len(roots), field))
        return _orig(pot, terms, u, mus, roots, cutoff, field)

    monkeypatch.setattr(potential, "_lift_points", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = critical_points(_degenerate_then_sqrt2(), 8)
    # the rational roots at valuation 1/2 come before the switch to
    # Q(sqrt 2) and are lifted once, after it, with those of their candidate
    assert lifted == [((Fraction(1, 2),), 2, QuadraticField(2)),
                      ((2,), 2, QuadraticField(2))]
    assert [str(c.message) for c in caught] == [
        "degenerate leading root (1) at valuation (0) (multiplicity hint 2);"
        " not lifted"]
    assert [(format_scalar(p.coordinates[0].truncate(4)),
             format_scalar(p.value.truncate(4)), str(p.residual_valuation),
             tuple(str(v) for v in p.lift_schedule))
            for p in points] == SQRT2_SWITCH_POINTS


def test_toric_potential_is_unwrapped():
    toric = build_toric_potential(MomentPolytope(P2_RAYS, [0, 0, 1]))
    points = critical_points(toric, 6)
    bare = critical_points(toric.potential, 6)
    assert [_record(p) for p in points] == [_record(p) for p in bare]
    assert len(points) == 3
    for p, q in zip(points, bare):
        assert [_pin(h) for row in hessian(toric, p).matrix for h in row] \
            == [_pin(h) for row in hessian(toric.potential, q).matrix
                for h in row]


LEADING_ERRORS = {
    "no leading equation constrains the second variable": [
        (1, (2, 2), 1), (0, (1, 2), -1), (2, (0, 1), 1), (1, (0, 2), 1)],
    "share a component": [
        (0, (2, 2), -1), (1, (2, 2), -1), (0, (-1, 2), 1), (0, (-1, -1), 1)],
    # W = (y1 - 1)^2 (y2 + y2^2)
    "coordinate line": [
        (0, (2, 1), 1), (0, (1, 1), -2), (0, (0, 1), 1),
        (0, (2, 2), 1), (0, (1, 2), -2), (0, (0, 2), 1)],
    "continuum of valuation vectors": [
        (2, (0, 0), 1), (0, (2, 2), -1), (1, (2, 1), 1)],
    "at most two variables": [
        (0, (1, 0, 0), 1), (0, (0, 1, 0), 1), (0, (0, 0, 1), 1),
        (1, (-1, -1, -1), 1)],
}


@pytest.mark.parametrize("message", sorted(LEADING_ERRORS))
def test_leading_system_errors_are_named(message):
    entries = LEADING_ERRORS[message]
    w = NovikovLaurentPolynomial.make(Rationals(), len(entries[0][1]), entries)
    with pytest.raises(StructureError, match=message):
        critical_points(w, 4)


def test_three_variables_are_rejected_before_any_work():
    w = NovikovLaurentPolynomial.make(Rationals(), 3, [
        (0, (1, 0, 0), 1), (0, (0, 1, 0), 1), (0, (0, 0, 1), 1)])
    with pytest.raises(StructureError, match="at most two variables"):
        critical_points(w, 4)


@pytest.mark.parametrize("entries", [
    # y1 y2 + T y1^2 + T y2^2: the pairs of each equation give parallel
    # rows whose energy differences disagree
    [(0, (1, 1), 1), (1, (2, 0), 1), (1, (0, 2), 1)],
    # y1 y2 + T y1 y2: every selection pairs two terms of one exponent
    [(0, (1, 1), 1), (1, (1, 1), 1)],
], ids=["parallel", "zero-rows"])
def test_inconsistent_tropical_selections_give_no_points(entries):
    w = NovikovLaurentPolynomial.make(Rationals(), 2, entries)
    assert critical_points(w, 4) == []


def _words(lengths=(1, 2)):
    """The products of n elementary matrices of GL(2, Z), n in ``lengths``,
    with repeats: 20 of one or two."""
    elementary = [((1, 1), (0, 1)), ((1, -1), (0, 1)),
                  ((1, 0), (1, 1)), ((1, 0), (-1, 1))]
    out = []
    for length in lengths:
        for word in itertools.product(elementary, repeat=length):
            m = ((1, 0), (0, 1))
            for e in word:
                m = tuple(tuple(sum(m[i][k] * e[k][j] for k in range(2))
                                for j in range(2)) for i in range(2))
            out.append(m)
    return out


HEXAGON_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
# name -> (rays, offsets, basis)
CHARTED = {
    "p2": (P2_RAYS, [0, 0, 1], (0, 1)),
    "square": (SQUARE_RAYS, [0, 0, 1, 1], (0, 1)),
    "skew": (SQUARE_RAYS, [0, 0, 1, 2], (0, 1)),
    "hexagon": (HEXAGON_RAYS, [1] * 6, (0, 4)),
}


@pytest.mark.parametrize("name", sorted(CHARTED))
def test_ray_expansions_and_moment_points_multiply_back(name):
    # plain int and Fraction arithmetic, no determinant: every ray is the
    # combination of the basis rays its monomial names, and every moment
    # point meets each basis facet at its coordinate's valuation.  The
    # words have determinant 1; the reflection gives the basis -1.
    rays, offsets, basis = CHARTED[name]
    terms = points = None
    assert len(_words()) == 20
    for m in [((1, 0), (0, 1)), ((0, 1), (1, 0))] + _words():
        moved = [tuple(m[i][0] * v[0] + m[i][1] * v[1] for i in range(2))
                 for v in rays]
        toric = build_toric_potential(MomentPolytope(moved, offsets, basis))
        b = [moved[j] for j in basis]
        assert sorted(
            tuple(a[0] * b[0][k] + a[1] * b[1][k] for k in range(2))
            for _, a, _ in toric.potential.terms()
        ) == sorted(moved)
        if terms is None:
            terms = toric.potential.terms()
            points = critical_points(toric, 6)
            assert points
        # moving every ray keeps the expansions, so the potential
        assert toric.potential.terms() == terms
        for p in points:
            u = u_of_c(toric, p).moment_point
            for j, i in enumerate(basis):
                assert b[j][0] * u[0] + b[j][1] * u[1] + offsets[i] \
                    == p.valuations[j]


def test_coordinate_line_from_a_leading_part_without_z2(monkeypatch):
    # W = y1^2/2 - y1 + T (y1 - 1)^2 / y2: at valuation (0, 1) the leading
    # part of y2 dW/dy2 is -(z1 - 1)^2 / z2, one column whose root z1 = 1
    # also kills the leading part of y1 dW/dy1; its resultant with the
    # other leading part is a power of that column, with the same roots
    w = NovikovLaurentPolynomial.make(Rationals(), 2, [
        (0, (2, 0), Fraction(1, 2)), (0, (1, 0), -1),
        (1, (2, -1), 1), (1, (1, -1), -2), (1, (0, -1), 1)])
    calls = _count_calls(monkeypatch, "_resultant")
    with pytest.raises(StructureError, match="coordinate line"):
        critical_points(w, 4)
    assert calls == {"_resultant": 1}


def _sylvester(cols_a, cols_b):
    """Sylvester matrix of two z2-column lists, highest column first."""
    zero = potential._Poly.zero(cols_a[0].field)
    da, db = len(cols_a) - 1, len(cols_b) - 1
    return ([[zero] * k + cols_a[::-1] + [zero] * (db - 1 - k)
             for k in range(db)]
            + [[zero] * k + cols_b[::-1] + [zero] * (da - 1 - k)
               for k in range(da)])


def _cofactor_det(mat):
    """Cofactor expansion along the first row, each minor memoized on its
    columns (its rows are the last ones): n * 2^n products."""
    memo = {}

    def minor(cols):
        row = mat[len(mat) - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        if cols not in memo:
            out = potential._Poly.zero(row[0].field)
            for j, entry in enumerate(row[c] for c in cols):
                if entry:
                    piece = entry * minor(cols[:j] + cols[j + 1:])
                    out = out + (-piece if j % 2 else piece)
            memo[cols] = out
        return memo[cols]

    return minor(tuple(range(len(mat))))


def _random_cols(rng, field, zero_rate):
    """A z2-column list of z2-degree 0-3 and z1-degree 0-2, its first and
    last columns nonzero and each interior one zero at ``zero_rate``."""
    def scalar():
        x = field.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if isinstance(field, QuadraticField):
            x = x + field.coerce(rng.randint(-2, 2)) * field.root
        return x

    def poly():
        p = potential._Poly.zero(field)
        while not p:
            p = potential._Poly(field, [scalar() for _ in range(
                rng.randint(1, 3))])
        return p

    d2 = rng.randint(0, 3)
    return [poly() if j in (0, d2) or rng.random() > zero_rate
            else potential._Poly.zero(field) for j in range(d2 + 1)]


def _times(cols_a, cols_b):
    """The product of two z2-column lists."""
    zero = potential._Poly.zero(cols_a[0].field)
    out = [zero] * (len(cols_a) + len(cols_b) - 1)
    for i, a in enumerate(cols_a):
        for j, b in enumerate(cols_b):
            out[i + j] = out[i + j] + a * b
    return out


@pytest.mark.parametrize("field", [Rationals(), QuadraticField(5)],
                         ids=["Q", "Q(sqrt 5)"])
def test_resultant_is_the_sylvester_determinant(field):
    # det Syl(a, b) coefficient for coefficient, in both argument orders
    # (the sign), with z2-free parts, zero interior columns and common
    # factors (resultant 0); the memoized cofactor expansion the
    # resultant replaced is the reference
    rng = random.Random(5)
    seen = dict.fromkeys(["single", "interior zero", "common factor"], 0)
    for _ in range(150):
        a, b = (_random_cols(rng, field, 0.4) for _ in range(2))
        if len(a) == len(b) == 1:
            continue
        if rng.random() < 0.2 and len(a) + len(b) < 6:
            c = _random_cols(rng, field, 0.4)[:2]
            if len(c) == 2:
                a, b = _times(a, c), _times(b, c)
                assert potential._resultant(a, b).is_zero()
                seen["common factor"] += 1
        seen["single"] += 1 in (len(a), len(b))
        seen["interior zero"] += not all(a) or not all(b)
        for x, y in ((a, b), (b, a)):
            want = _cofactor_det(_sylvester(x, y))
            assert potential._resultant(x, y).coeffs == want.coeffs
    assert min(seen.values()) >= 10, seen


def test_resultant_of_integer_columns_builds_no_fraction(monkeypatch):
    # the exact divisions by g * h^delta of the subresultant PRS stay in
    # int when the columns are integer polynomials
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 60:
        a, b = (_random_cols(rng, Rationals(), 0.3) for _ in range(2))
        if len(a) + len(b) > 2:
            pairs.append([[potential._Poly(Rationals(), [
                c.numerator * 6 // c.denominator for c in col.coeffs])
                for col in cols] for cols in (a, b)])
    built = _count_fractions(monkeypatch)
    results = [potential._resultant(a, b) for a, b in pairs]
    monkeypatch.undo()
    assert built == [0]
    assert all(type(c) is int for r in results for c in r.coeffs)
    assert sum(not r for r in results) < 10
    for (a, b), r in zip(pairs, results):
        assert r.coeffs == _cofactor_det(_sylvester(a, b)).coeffs


def _field_gcd(a, b):
    """Euclid's algorithm over the coefficient field, made monic at the
    end: the gcd that the primitive pseudo-remainder sequence replaced."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


@pytest.mark.parametrize("field", [Rationals(), QuadraticField(5)],
                         ids=["Q", "Q(sqrt 5)"])
def test_poly_gcd_is_the_monic_field_gcd(field):
    # non-monic operands with Fraction coefficients, common factors of
    # degree 0-3 and zero operands, in both argument orders
    rng = random.Random(11)

    def poly(degree):
        coeffs = [field.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                  for _ in range(degree + 1)]
        return potential._Poly(field, coeffs)

    seen = dict.fromkeys(["zero", "common", "coprime"], 0)
    for _ in range(200):
        common = poly(rng.randint(0, 3))
        a, b = (poly(rng.randint(-1, 4)) * common for _ in range(2))
        want = _field_gcd(a, b)
        seen["zero" if not a or not b else
             "common" if want.degree > 0 else "coprime"] += 1
        for x, y in ((a, b), (b, a)):
            got = potential._poly_gcd(x, y)
            assert got.coeffs == want.coeffs
            assert all(type(c) is not Fraction or c.denominator != 1
                       for c in got.coeffs)
        if isinstance(field, Rationals) and a:
            # the sequence runs on primitive integer polynomials
            prim = potential._primitive(a).coeffs
            assert all(type(c) is int for c in prim)
            assert prim[-1] > 0 and math.gcd(*prim) == 1
            assert potential._Poly(field, prim).monic().coeffs == \
                a.monic().coeffs
    assert min(seen.values()) >= 10, seen


# 2*y1^-2*y2^-2 - 3*y1^-2*y2^-1 - y1^-2 - T^(5/3)*y1*y2^-1 + 2*T^(5/3)*y1*y2^2,
# whose leading eliminant has a radical of degree 15 (5 under two charts)
# without a rational factor of degree 1 or 2
DEGREE_15 = NovikovLaurentPolynomial.make(Rationals(), 2, [
    (0, (-2, -2), 2), (0, (-2, -1), -3), (0, (-2, 0), -1),
    (Fraction(5, 3), (1, -1), -1), (Fraction(5, 3), (1, 2), 2)])


def test_radical_without_small_factors_is_rejected_modulo_a_prime(
        monkeypatch):
    # under the identity and the 16 other charts of at most two letters
    # the radical has no factor of degree <= 2 modulo 5, which raises at
    # once; enumerating the divisor candidates took from 1 s to minutes
    # per chart.  Bounded by counts, not time: no divisor list is formed,
    # and per chart at most 60 pseudo-remainders (the 25 steps to x^25
    # mod 5 and the gcds and resultant; 53 at most) and 200 polynomial
    # products (189 at most); a count past its bound fails at once
    counts = {"_pseudo_remainder": 0, "__mul__": 0}

    def counted(name, bound, orig):
        def call(*args):
            counts[name] += 1
            assert counts[name] <= bound, f"more than {bound} {name}"
            return orig(*args)
        return call

    def divisors(n):
        raise AssertionError("divisor candidates enumerated")

    monkeypatch.setattr(potential, "_pseudo_remainder", counted(
        "_pseudo_remainder", 60, potential._pseudo_remainder))
    monkeypatch.setattr(potential._Poly, "__mul__", counted(
        "__mul__", 200, potential._Poly.__mul__))
    monkeypatch.setattr(potential, "_divisors", divisors)
    charts = sorted(set([((1, 0), (0, 1))] + _words()))
    assert len(charts) == 17
    for m in charts:
        counts.update(dict.fromkeys(counts, 0))
        with pytest.raises(NotRepresentable,
                           match=r"degree-(15|5) factor .* not recognized "
                                 r".* modulo 5$"):
            critical_points(DEGREE_15.change_of_variables(m), 6)


def test_two_square_roots_are_not_representable():
    # y dW/dy = y^3 - 3y - T/y + 2T^5/y^3: the roots +-sqrt(3) at
    # valuation 0 switch to Q(sqrt 3), and the roots +-sqrt(-1/3) at
    # valuation 1/2 lie outside it
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (0, (1,), -3),
        (1, (-1,), 1), (5, (-3,), Fraction(-2, 3))])
    with pytest.raises(NotRepresentable, match="no tower"):
        critical_points(w, 6)
    # y dW/dy = y^2 - 4/y^2: the eliminant y^4 - 4 = (y^2 - 2)(y^2 + 2)
    # needs sqrt(2) and sqrt(-2), whichever factor splits first
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (2,), Fraction(1, 2)), (0, (-2,), 2)])
    with pytest.raises(NotRepresentable, match="no tower"):
        critical_points(w, 4)


def test_numeric_roots_are_bounded():
    # the cases that once bounded the numeric root iteration: (x - 1)^3,
    # which is not squarefree, is split through its radical x - 1, and
    # (x - 1)(x - 2)(x - 3) through its rational factors
    cube = potential._Poly(Rationals(), [-1, 3, -3, 1])
    assert potential._exact_roots(cube) == [(1, 3)]
    p = potential._Poly(Rationals(), [-6, 11, -6, 1])
    assert potential._exact_roots(p) == [(1, 1), (2, 1), (3, 1)]


def test_numeric_roots_stop_at_rounding_noise():
    # (x + 7/2)(x + 7/3)(x + 8/3), whose numeric steps once settled at
    # rounding noise: the exact split gives the roots themselves
    p = potential._Poly(Rationals(), [Fraction(196, 9), Fraction(427, 18),
                                      Fraction(17, 2), 1])
    assert potential._exact_roots(p) == [
        (Fraction(-7, 2), 1), (Fraction(-7, 3), 1), (Fraction(-8, 3), 1)]


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 0, 1],
    [-11, -36, -8, 1, 1],
], ids=["cube-root-of-two", "bl1-quartic"])
def test_radical_without_a_small_rational_factor_is_not_recognized(coeffs):
    with pytest.raises(NotRepresentable, match="not recognized"):
        potential._exact_roots(potential._Poly(Rationals(), coeffs))


def _expand(field, lead, roots):
    """lead * prod (x - r)^m as a _Poly, by schoolbook convolution."""
    coeffs = [field.coerce(lead)]
    for r, m in roots:
        for _ in range(m):
            shifted = [field.zero] + coeffs
            coeffs = [s - r * c for s, c in zip(shifted, coeffs + [field.zero])]
    return potential._Poly(field, coeffs)


def _by_format(field, roots):
    return sorted(roots, key=lambda rm: field.format(rm[0]))


def test_radical_of_degree_two_takes_the_formula(monkeypatch):
    calls = _count_calls(monkeypatch, "_split_factor")
    p = _expand(Rationals(), 1, [(1, 2), (-2, 2)])
    assert potential._exact_roots(p) == [(-2, 2), (1, 2)]
    assert calls == {"_split_factor": 0}


def test_roots_without_their_conjugates_are_recognized():
    K = QuadraticField(5)
    r5 = K.root
    p = _expand(K, 1, [(r5, 2), (2 * r5, 1)])
    assert potential._exact_roots(p) == [(2 * r5, 1), (r5, 2)]
    p = _expand(K, 1, [(r5, 1), (2 * r5, 1), (K.one, 1)])
    assert potential._exact_roots(p) == [(K.one, 1), (2 * r5, 1), (r5, 1)]
    # root 0 beside the irrational roots, which leave no rational factor
    p = _expand(K, 1, [(K.zero, 1), (r5, 1), (2 * r5, 1)])
    assert potential._exact_roots(p) == [(K.zero, 1), (2 * r5, 1), (r5, 1)]
    # (x^2 - 2x - 4)(x - 1 - 8/3 sqrt 5): the rational parts alone give
    # (x^2 - 2x - 4)(x - 1), whose root 1 is not a root of p
    lone = QuadExt(1, Fraction(8, 3), 5)
    p = _expand(K, 1, [(1 + r5, 1), (1 - r5, 1), (lone, 1)])
    assert potential._exact_roots(p) == _by_format(
        K, [(1 + r5, 1), (1 - r5, 1), (lone, 1)])


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=40)
@given(
    lead=_small.filter(bool),
    rational=st.dictionaries(_small, st.integers(1, 3), max_size=3),
    pairs=st.dictionaries(
        st.tuples(_small, _small.filter(lambda b: b > 0)),
        st.integers(1, 2), max_size=2),
    lone=st.dictionaries(
        st.tuples(_small, _small.filter(bool)), st.integers(1, 2),
        max_size=2),
)
def test_exact_roots_recover_a_built_product(lead, rational, pairs, lone):
    # rational roots, conjugate pairs a +- b*sqrt(-3), the roots of
    # x^2 - 2ax + a^2 + 3b^2, and roots a + b*sqrt(-3) without their
    # conjugates, over Q(sqrt -3)
    K = QuadraticField(-3)
    roots = {K.coerce(r): m for r, m in rational.items()}
    for (a, b), m in pairs.items():
        for root in (QuadExt(a, b, -3), QuadExt(a, -b, -3)):
            roots[root] = roots.get(root, 0) + m
    for (a, b), m in lone.items():
        root = QuadExt(a, b, -3)
        roots[root] = roots.get(root, 0) + m
    roots = list(roots.items())
    p = _expand(K, lead, roots)
    assert potential._exact_roots(p) == _by_format(K, roots)


@pytest.mark.parametrize("build", [
    lambda: NovikovLaurentPolynomial.make(Rationals(), 1, [(0.1, (1,), 1)]),
    lambda: NovikovLaurentPolynomial.make(Rationals(), 1, [(1.0, (1,), 1)]),
    lambda: critical_points(_case("p1")[0], 6.5),
    lambda: critical_points(_case("p1")[0], 6.0),
    lambda: MomentPolytope([(1,), (-1,)], [0, 0.5]),
    lambda: NovikovLaurentPolynomial.make(Rationals(), 1, [(0, (1.0,), 1)]),
    lambda: _case("p2")[0].change_of_variables([[1.5, 0], [0, 1]]),
    lambda: MomentPolytope([(1.5,), (-1,)], [0, 1]),
    lambda: MomentPolytope(P2_RAYS, [0, 0, 1], basis=(0, 1.0)),
    lambda: morse_count_check(_case("p1")[0], 2.9, 6),
    lambda: morse_count_check(_case("p1")[0], "2", 6),
], ids=["energy", "integral-energy", "cutoff", "integral-cutoff", "offset",
        "exponent", "matrix", "ray", "basis", "expected-dim",
        "expected-dim-text"])
def test_float_energies_cutoffs_and_offsets_are_not_representable(build):
    with pytest.raises(NotRepresentable):
        build()


@pytest.mark.parametrize("build", [
    lambda x: NovikovLaurentPolynomial.make(Rationals(), 1, [(0, (x,), 1)]),
    lambda x: _case("p2")[0].change_of_variables([[x, 0], [0, 1]]),
    lambda x: MomentPolytope([(x,), (-1,)], [0, 1]),
    lambda x: MomentPolytope(P2_RAYS, [0, 0, 1], basis=(0, x)),
    lambda x: morse_count_check(_case("p1")[0], x, 6),
], ids=["exponent", "matrix", "ray", "basis", "expected-dim"])
def test_integer_inputs_reject_fractions_and_keep_integral_ones(build):
    # 3/2 used to truncate to 1; an integral Fraction is its int
    with pytest.raises(StructureError, match="3/2 is not an integer"):
        build(Fraction(3, 2))
    build(Fraction(2, 2))


@pytest.mark.parametrize("rays, offsets, basis, message", [
    ([], [], None, "at least one ray"),
    ([()], [0], None, "positive dimension"),
    ([(1, 0), (1,)], [0, 0], None, "share one dimension"),
    ([(2, 0), (0, 1)], [0, 0], None, r"ray \(2, 0\) is not primitive"),
    (P2_RAYS, [0, 0], None, "one offset per ray"),
    (P2_RAYS, [0, 0, 1], (0, 0), "must pick 2 distinct rays"),
    (P2_RAYS, [0, 0, 1], (0, 3), "basis index 3 out of range"),
    ([(1, 0), (1, 2), (0, 1)], [0, 0, 0], (0, 1), "not unimodular"),
    ([(1,), (-1,)], [0, -1], None, "empty moment polytope"),
], ids=["no-ray", "dimension-0", "mixed-dimensions", "not-primitive",
        "offsets", "repeated-basis", "basis-range", "not-unimodular", "empty"])
def test_moment_polytope_rejects_malformed_data(rays, offsets, basis,
                                                message):
    with pytest.raises(StructureError, match=message):
        MomentPolytope(rays, offsets, basis)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: NovikovLaurentPolynomial.make(
        Rationals(), 1, [(-1, (1,), 1)]),
        "negative energy -1 violates the Gromov bound", id="energy"),
    pytest.param(lambda: NovikovLaurentPolynomial.make(
        Rationals(), 2, [(0, (1,), 1)]),
        r"exponent vector \(1,\) does not match 2 variables",
        id="exponent-length"),
    pytest.param(lambda: _case("p1")[0].monomial_values((1,)),
                 "evaluation points are Novikov scalars", id="point"),
    pytest.param(lambda: _case("p1")[0].change_of_variables([[2]]),
                 "substitution matrix must be unimodular", id="substitution"),
    pytest.param(lambda: build_toric_potential(
        MomentPolytope(HEXAGON_RAYS, [1] * 6, basis=(0, 1))),
        r"ray \(1, 1\) gets negative energy -1", id="ray-energy"),
    pytest.param(lambda: u_of_c(
        build_toric_potential(MomentPolytope(P2_RAYS, [0, 0, 1])),
        critical_points(_case("p1")[0], 6)[0]),
        "coordinate count does not match the polytope", id="coordinates"),
])
def test_potential_inputs_name_the_fault(build, message):
    with pytest.raises(StructureError, match=message):
        build()


def test_newton_step_with_singular_jacobian_is_named():
    # W = y^3/3 - y^2 + y + T (y^3/3 - 3y^2/2 + 3y): at y = 1 the residual
    # y dW/dy is T and its derivative y d/dy (y dW/dy) vanishes exactly
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (0, (2,), -1), (0, (1,), 1),
        (1, (3,), Fraction(1, 3)), (1, (2,), Fraction(-3, 2)), (1, (1,), 3)])
    with pytest.raises(StructureError, match="singular Jacobian"):
        _lift_points(w, _term_monomials(w, Rationals()), (Fraction(0),),
                     (Fraction(0),), [(Fraction(1),)], 6, Rationals())


def test_newton_step_with_dependent_jacobian_is_named():
    # W = y1 + 1/y1 + T y1 + y2^3/3 - y2^2 + y2 at (1, 1): the residual
    # (T, 0) lies in the span of the Jacobian diag(2 + T, 0), so the solve
    # is consistent, but the correction is not unique
    w = NovikovLaurentPolynomial.make(Rationals(), 2, [
        (0, (1, 0), 1), (0, (-1, 0), 1), (1, (1, 0), 1),
        (0, (0, 3), Fraction(1, 3)), (0, (0, 2), -1), (0, (0, 1), 1)])
    zero = (Fraction(0), Fraction(0))
    with pytest.raises(StructureError, match="singular Jacobian"):
        _lift_points(w, _term_monomials(w, Rationals()), zero, zero,
                     [(Fraction(1), Fraction(1))], 6, Rationals())


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 2))
def test_lift_pad_from_candidate_weights_bounds_every_term(data, n):
    # the pad max(0, -min u, -min mus) of _lift_points against the maximum
    # over every term weight, u and mus that it replaces
    entries = data.draw(st.lists(st.tuples(
        st.fractions(0, 3, max_denominator=3),
        st.tuples(*[st.integers(-3, 3)] * n),
        st.integers(-3, 3).filter(bool)), min_size=2, max_size=6))
    w = NovikovLaurentPolynomial.make(Rationals(), n, entries)
    eqs = [w.log_derivative(i) for i in range(n)]
    assume(not any(eq.is_zero() for eq in eqs))
    def weight(e, a, u):
        return e + sum(k * s for k, s in zip(a, u))

    for u, mus, _ in potential._tropical_candidates(eqs)[0]:
        assert mus == [min(weight(e, a, u) for e, a, _ in eq.terms())
                       for eq in eqs]
        weights = [weight(e, a, u) for e, a, _ in w.terms()]
        assert max(0, -min(u), -min(mus)) == max(
            [0] + [-x for x in weights if x < 0] + [-s for s in u if s < 0]
            + [-m for m in mus if m < 0])


def test_negative_valuation_alone_pads_the_lift():
    # W = -y^-2 + T*y^-1 has the critical point y = 2/T, W = T^2/4: its
    # valuation u = -1 pads the working precision, while both terms of
    # y dW/dy weigh 2 there and pad nothing
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (-2,), -1), (1, (-1,), 1)])
    (p,) = critical_points(w, 4)
    assert (_pin(p.coordinates[0]), _pin(p.value)) == \
        (("2*T^-1", "4"), ("1/4*T^2", "4"))


def test_det_carries_the_cutoff_of_a_novikov_zero():
    # exact zeros are skipped, a Novikov zero O(T^c) is not: its piece
    # lowers the cutoff of the determinant, 2 x 2 and larger alike
    Q = Rationals()
    zero, one = NovikovScalar.zero(Q, 1), NovikovScalar.one(Q, 6)
    for mat, want in (([[zero, one], [one, one]], "-1"),
                      ([[one, zero], [one, one]], "1"),
                      ([[zero, one, 0], [one, one, 0], [0, 0, one]], "-1")):
        assert _pin(potential._det(mat)) == (want, "1")
    assert potential._det([[0, 2], [3, 4]]) == -6
    assert potential._det([[0, 0], [3, 4]]) == 0


def test_morse_count_excludes_exterior_points():
    toric = build_toric_potential(
        MomentPolytope([(1, 0), (0, 1), (-1, 0), (-1, -1)], [0, 0, 2, 1]))
    # the bare potential has four nondegenerate points ...
    assert morse_count_check(toric.potential, 4, 6).matches
    # ... one of which lies over the exterior of the polytope
    verdict = morse_count_check(toric, 4, 6)
    assert not verdict.matches
    assert verdict.nondegenerate_count == verdict.total == 3
    assert len(verdict.points) == 3
    for p in verdict.points:
        u_of_c(toric, p)
    assert "count mismatch: 3 nondegenerate" in verdict.message
    assert "valuation (3, -1)" in verdict.message
    p1 = build_toric_potential(MomentPolytope([(1,), (-1,)], [0, 1]))
    verdict = morse_count_check(p1, 2, 6)
    assert verdict.matches and verdict.message == "split-generation count matches"


# The identity chart of the same pentagon lifts: see GOLDEN["pentagon"].
@pytest.mark.xfail(strict=True, raises=StructureError,
                   reason="known defect: dividing the residuals by T^mu "
                   "(mu = 1) costs the Newton correction one unit of "
                   "precision that the working precision does not add")
@pytest.mark.parametrize("cutoff", [5, 6, 7, 8])
def test_pentagon_lifts_in_a_sheared_chart(cutoff):
    pot, _ = _case("pentagon")
    critical_points(pot.change_of_variables([[1, 1], [0, 1]]), cutoff)


def test_make_merges_duplicate_terms_and_drops_cancelled_ones():
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (1,), 1), (1, (-1,), 1), (0, (1,), 2), (1, (-1,), -1)])
    assert w.terms() == [(0, (1,), 3)]
    assert NovikovLaurentPolynomial.make(
        Rationals(), 1, [(0, (1,), 1), (0, (1,), -1)]).is_zero()


def test_nonpositive_cutoff_is_rejected():
    pot, _ = _case("p1")
    with pytest.raises(StructureError, match="cutoff must be positive"):
        critical_points(pot, 0)


def test_potential_constant_in_y2_is_rejected():
    w = NovikovLaurentPolynomial.make(Rationals(), 2, [
        (0, (1, 0), 1), (1, (-1, 0), 1)])
    with pytest.raises(StructureError, match="does not move in y2"):
        critical_points(w, 6)


def test_u_of_c_takes_only_critical_points():
    toric = build_toric_potential(MomentPolytope([(1,), (-1,)], [0, 1]))
    coords = critical_points(toric, 6)[0].coordinates
    with pytest.raises(StructureError, match="recenters a CriticalPoint"):
        u_of_c(toric, coords)


def _count_poly_products(monkeypatch):
    calls = [0]

    def counted(a, b, _orig=potential._Poly.__mul__):
        calls[0] += 1
        return _orig(a, b)

    monkeypatch.setattr(potential._Poly, "__mul__", counted)
    return calls


HEXAGON_VALUES = ["-2*T", "-2*T", "-2*T", "-3*T", "-3*T", "6*T"]


def test_hexagon_in_a_sheared_chart_keeps_its_values(monkeypatch):
    # the eliminant of this chart is a resultant of Sylvester size 16: the
    # subresultant PRS takes 158 polynomial products, where a memoized
    # cofactor expansion of the Sylvester matrix took 79,498
    hexagon = build_toric_potential(
        MomentPolytope(HEXAGON_RAYS, [1] * 6, basis=(0, 4))).potential
    calls = _count_poly_products(monkeypatch)
    points = critical_points(hexagon.change_of_variables([[1, -3], [0, 1]]), 6)
    assert sorted(format_scalar(p.value) for p in points) == HEXAGON_VALUES
    assert calls[0] < 200


@pytest.mark.parametrize("name", ["hexagon", "bl2"])
def test_three_letter_chart_zoo(name, monkeypatch):
    # the hexagon and Bl2 (the hexagon without the ray (-1, -1)) under the
    # 34 distinct products of three elementary matrices: every chart gives
    # the hexagon's values, and Bl2's degree-3 factor on every chart.  The
    # subresultant PRS takes 2,182 and 2,038 polynomial products; the
    # memoized cofactor expansion of the Sylvester matrices took 4,399,652
    # and 3,075,542
    rays = HEXAGON_RAYS if name == "hexagon" else HEXAGON_RAYS[:5]
    pot = build_toric_potential(
        MomentPolytope(rays, [1] * len(rays), basis=(0, 4))).potential
    charts = sorted(set(_words((3,))))
    assert len(charts) == 34
    calls = _count_poly_products(monkeypatch)
    for m in charts:
        moved = pot.change_of_variables(m)
        if name == "hexagon":
            assert sorted(format_scalar(p.value) for p in
                          critical_points(moved, 6)) == HEXAGON_VALUES, m
        else:
            with pytest.raises(NotRepresentable, match="degree-3 factor"):
                critical_points(moved, 6)
    assert calls[0] < 2_500
