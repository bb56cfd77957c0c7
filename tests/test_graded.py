
import pytest
from hypothesis import given, strategies as st

from ainfbench.errors import StructureError
from ainfbench.graded import (
    GradedSpace,
    MultilinearMap,
    koszul_sign,
    reduced,
    sign_of,
    v_is_zero,
    vacc,
    vadd,
    vector_parity,
    vscale,
)
from ainfbench.novikov import Rationals, parse_scalar

E = 6
Q = Rationals()


def sc(text):
    return parse_scalar(text, Q, E)


def test_sign_of():
    assert sign_of(0) == 1
    assert sign_of(1) == -1
    assert sign_of(2) == 1
    assert sign_of(-3) == -1


def test_reduced():
    assert reduced(0) == 1
    assert reduced(1) == 0


# -- koszul_sign -----------------------------------------------------------


def brute_koszul(parities, perm, use_reduced):
    ps = [reduced(p) for p in parities] if use_reduced else list(parities)
    e = 0
    for k in range(len(perm)):
        for l in range(k + 1, len(perm)):
            if perm[k] > perm[l]:
                e += ps[perm[k]] * ps[perm[l]]
    return -1 if e % 2 else 1


def test_swap_two_evens_is_minus_one():
    # even elements have odd reduced parity, so transposing them costs a sign
    assert koszul_sign([0, 0], [1, 0]) == -1


def test_three_cycle_of_odds_is_plus_one():
    # odd elements have even reduced parity: every crossing is free
    assert koszul_sign([1, 1, 1], [2, 0, 1]) == 1


def test_unreduced_swap_of_odds():
    assert koszul_sign([1, 1], [1, 0], use_reduced=False) == -1
    assert koszul_sign([0, 1], [1, 0], use_reduced=False) == 1


def test_identity_permutation():
    assert koszul_sign([0, 1, 0, 1], [0, 1, 2, 3]) == 1


def test_not_a_permutation_rejected():
    with pytest.raises(StructureError):
        koszul_sign([0, 0], [0, 0])


@given(
    st.lists(st.integers(0, 1), min_size=0, max_size=6),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_koszul_matches_brute_force(parities, rng, use_reduced):
    perm = list(range(len(parities)))
    rng.shuffle(perm)
    assert koszul_sign(parities, perm, use_reduced) == brute_koszul(
        parities, perm, use_reduced
    )


@given(st.lists(st.integers(0, 1), min_size=2, max_size=6), st.randoms(use_true_random=False))
def test_koszul_is_multiplicative_under_composition(parities, rng):
    # sign(sigma o tau) = sign-after-tau * sign-of-sigma-on-permuted-data
    n = len(parities)
    tau = list(range(n))
    rng.shuffle(tau)
    sigma = list(range(n))
    rng.shuffle(sigma)
    composed = [tau[sigma[k]] for k in range(n)]
    s1 = koszul_sign(parities, tau)
    permuted = [parities[tau[k]] for k in range(n)]
    s2 = koszul_sign(permuted, sigma)
    assert koszul_sign(parities, composed) == s1 * s2


# -- spaces and vectors ----------------------------------------------------


def test_space_validation():
    with pytest.raises(StructureError):
        GradedSpace(("a", "a"), (0, 0))
    with pytest.raises(StructureError):
        GradedSpace(("a",), (0, 1))
    with pytest.raises(StructureError):
        GradedSpace(("a",), (2,))
    with pytest.raises(StructureError):
        GradedSpace(("a",), (0,), zdegrees=(1,))
    sp = GradedSpace(("a", "b"), (0, 1), zdegrees=(2, 3))
    assert sp.dim == 2
    assert sp.parity("b") == 1
    assert sp.zdegree("b") == 3
    with pytest.raises(StructureError):
        sp.parity("c")


def test_vector_helpers():
    v = {"a": sc("2"), "b": sc("T")}
    w = {"a": sc("-2")}
    s = vadd(v, w)
    assert "a" not in s and s["b"] == sc("T")
    assert v_is_zero(vadd(v, vscale(sc("-1"), v)))
    u = {"a": sc("1"), "b": sc("T")}
    vacc(u, sc("-2"), {"a": sc("1/2"), "c": sc("T^2")})
    assert set(u) == {"b", "c"} and u["c"] == sc("-2*T^2")
    sp = GradedSpace(("a", "b"), (0, 0))
    assert vector_parity(sp, v) == 0
    sp2 = GradedSpace(("a", "b"), (0, 1))
    assert vector_parity(sp2, v) is None
    assert vector_parity(sp2, {}) is None


# -- multilinear maps ------------------------------------------------------


def two_dim_space():
    return GradedSpace(("u", "x"), (0, 1))


def test_parity_validation():
    sp = two_dim_space()
    m = MultilinearMap((sp, sp), sp, parity=0)
    m.add_entry(("u", "x"), "x", sc("1"))
    m.validate()
    m.add_entry(("u", "x"), "u", sc("1"))
    with pytest.raises(StructureError):
        m.validate()


def test_add_entry_accumulates_and_prunes():
    sp = two_dim_space()
    m = MultilinearMap((sp,), sp, parity=0)
    m.add_entry(("u",), "u", sc("1"))
    m.add_entry(("u",), "u", sc("-1"))
    assert m.table == {}
    assert m.is_zero()


def test_apply_to_vectors_is_multilinear():
    sp = two_dim_space()
    m = MultilinearMap((sp, sp), sp, parity=0)
    m.add_entry(("u", "u"), "u", sc("1"))
    m.add_entry(("u", "x"), "x", sc("3"))
    m.add_entry(("x", "x"), "u", sc("T"))
    v = {"u": sc("2"), "x": sc("5")}
    w = {"u": sc("1"), "x": sc("-1")}
    out = m.apply_to_vectors([v, w])
    # 2*1*uu + 2*(-1)*ux + 5*(-1)*xx
    assert out["u"] == sc("2") + sc("-5")*sc("T")
    assert out["x"] == sc("-6")


def test_apply_to_vectors_arity_zero():
    sp = two_dim_space()
    m = MultilinearMap((), sp, parity=0)
    m.add_entry((), "u", sc("T^2"))
    assert m.apply_to_vectors([]) == {"u": sc("T^2")}
