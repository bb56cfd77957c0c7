
import pytest

from ainfbench.errors import StructureError
from ainfbench.graded import (
    GradedSpace,
    MultilinearMap,
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
