from fractions import Fraction

from ainfbench.novikov import Rationals
from ainfbench.potential import (
    MomentPolytope,
    NovikovLaurentPolynomial,
    build_toric_potential,
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
