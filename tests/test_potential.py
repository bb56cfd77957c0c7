import warnings
from fractions import Fraction

import pytest

from ainfbench import potential
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
    _lift_point,
)

SQUARE_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
MOVE = [[1, 1], [1, 2]]


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

    One monomial table per Newton point and leading systems kept over Q
    need 96 Novikov and 579 Q(sqrt -3) products; evaluating every
    derivative separately and redoing the solve over Q(sqrt -3) needed
    333 and 7,170.
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


def test_critical_points_is_one_pass(monkeypatch):
    calls = {"_tropical_candidates": 0, "_solve_leading": 0}
    for name in calls:
        def counted(*args, _orig=getattr(potential, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(potential, name, counted)
    with pytest.warns(DegenerateRootWarning):
        critical_points(_degenerate_then_sqrt2(), 8)
    # three candidates, plus one solve again at the switch to Q(sqrt 2)
    assert calls == {"_tropical_candidates": 1, "_solve_leading": 4}
    calls["_tropical_candidates"] = 0
    pot, cutoff = _case("p2_moved")
    critical_points(pot, cutoff)
    assert calls["_tropical_candidates"] == 1


def test_two_square_roots_are_not_representable():
    # y dW/dy = y^3 - 3y - T/y + 2T^5/y^3: the roots +-sqrt(3) at
    # valuation 0 switch to Q(sqrt 3), and the roots +-sqrt(-1/3) at
    # valuation 1/2 lie outside it
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (0, (1,), -3),
        (1, (-1,), 1), (5, (-3,), Fraction(-2, 3))])
    with pytest.raises(NotRepresentable, match="no tower"):
        critical_points(w, 6)


def test_newton_step_with_singular_jacobian_is_named():
    # W = y^3/3 - y^2 + y + T (y^3/3 - 3y^2/2 + 3y): at y = 1 the residual
    # y dW/dy is T and its derivative y d/dy (y dW/dy) vanishes exactly
    w = NovikovLaurentPolynomial.make(Rationals(), 1, [
        (0, (3,), Fraction(1, 3)), (0, (2,), -1), (0, (1,), 1),
        (1, (3,), Fraction(1, 3)), (1, (2,), Fraction(-3, 2)), (1, (1,), 3)])
    with pytest.raises(StructureError, match="singular Jacobian"):
        _lift_point(w, (Fraction(0),), (Fraction(0),), (Fraction(1),), 6,
                    Rationals())


def test_newton_step_with_dependent_jacobian_is_named():
    # W = y1 + 1/y1 + T y1 + y2^3/3 - y2^2 + y2 at (1, 1): the residual
    # (T, 0) lies in the span of the Jacobian diag(2 + T, 0), so the solve
    # is consistent, but the correction is not unique
    w = NovikovLaurentPolynomial.make(Rationals(), 2, [
        (0, (1, 0), 1), (0, (-1, 0), 1), (1, (1, 0), 1),
        (0, (0, 3), Fraction(1, 3)), (0, (0, 2), -1), (0, (0, 1), 1)])
    zero = (Fraction(0), Fraction(0))
    with pytest.raises(StructureError, match="singular Jacobian"):
        _lift_point(w, zero, zero, (Fraction(1), Fraction(1)), 6,
                    Rationals())


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
