import random
from fractions import Fraction

import pytest

from ainfbench import ainfinity, splitgen
from ainfbench.ainfinity import AInfCategory, subcategory
from ainfbench.errors import NotStabilized, StructureError
from ainfbench.graded import GradedSpace, MultilinearMap
from ainfbench.hochschild import chain_differential, include_chain
from ainfbench.models import (
    clifford_model,
    direct_sum_category,
    point_category,
    sphere_model,
    summand_category,
)
from ainfbench.mukai import contract_element, z_x
from ainfbench.novikov import NovikovScalar, Rationals
from ainfbench.splitgen import BarComplex, split_generation_check

from random_elements import random_chain

E = 6
Q = Rationals()


def one():
    return NovikovScalar.one(Q, E)


def const(x):
    return NovikovScalar.constant(Q, E, Fraction(x))


def cl1(beta=2):
    return clifford_model(Q, E, [[Fraction(beta)]])


def sphere(beta=3):
    return sphere_model(Q, E, beta, 2)


def acyclic_toy(object_name="P"):
    sp = GradedSpace(("1", "eps"), (0, 1), (0, 1))
    m1 = MultilinearMap((sp,), sp, parity=1)
    m1.add_entry(("eps",), "1", one())
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("1", "1"), "1", one())
    m2.add_entry(("1", "eps"), "eps", one())
    m2.add_entry(("eps", "1"), "eps", -one())
    o = object_name
    return AInfCategory(Q, Fraction(E), (o,), {(o, o): sp},
                        {(o, o): m1, (o, o, o): m2},
                        units={o: {"1": one()}}, name="acyclic-toy")


def orthogonal_pair():
    a = clifford_model(Q, E, [[Fraction(2)]], object_name="A", name="a")
    b = clifford_model(Q, E, [[Fraction(3)]], object_name="B", name="b")
    return direct_sum_category(a, b)


def scalar_is(value, x):
    return (value - const(x)).is_zero()


def vec_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        cur = -v if cur is None else cur - v
        if cur.is_zero():
            out.pop(k, None)
        else:
            out[k] = cur
    return out


def vec_is_zero(a):
    return all(c.is_zero() for c in a.values())


def random_bar_element(bar, rng, smax=2, density=0.5):
    vec = {}
    for s in range(smax + 1):
        for key in bar.basis(s):
            if rng.random() < density:
                vec[key] = const(rng.randint(1, 5))
    return vec


# -- the bar complex --------------------------------------------------------


def test_bar_complex_rejects_unknown_objects():
    cat = cl1()
    with pytest.raises(StructureError, match="not in category"):
        BarComplex(cat, ("T",), "X", 2)
    with pytest.raises(StructureError, match="not in category"):
        BarComplex(cat, ("X",), "T", 2)


def test_bar_differential_squares_to_zero():
    rng = random.Random(40)
    fixtures = (
        (acyclic_toy(), ("P",), "P"),
        (cl1(), ("T",), "T"),
        (summand_category(Q, E), ("U",), "K"),
    )
    for cat, band, target in fixtures:
        bar = BarComplex(cat, band, target, 4)
        for _ in range(4):
            vec = random_bar_element(bar, rng)
            assert vec_is_zero(bar.differential(bar.differential(vec)))


def test_bar_differential_flips_parity():
    fixtures = (
        (acyclic_toy(), ("P",), "P"),
        (cl1(), ("T",), "T"),
        (summand_category(Q, E), ("U",), "K"),
    )
    for cat, band, target in fixtures:
        bar = BarComplex(cat, band, target, 4)
        for s in range(3):
            for key in bar.basis(s):
                flipped = (bar.parity(key) + 1) & 1
                for out in bar.differential({key: one()}):
                    assert bar.parity(out) == flipped


def test_contraction_is_a_chain_map_to_the_endomorphisms():
    # contracting after d agrees with the arity-one map after contracting;
    # the acyclic toy is the fixture where both sides are actually nonzero
    rng = random.Random(41)
    cat = acyclic_toy()
    bar = BarComplex(cat, ("P",), "P", 3)
    nontrivial = False
    for _ in range(6):
        vec = random_bar_element(bar, rng)
        lhs = contract_element(cat, "P", bar.differential(vec))
        rhs = cat.apply_vectors(("P", "P"), [contract_element(cat, "P", vec)])
        assert vec_is_zero(vec_sub(lhs, rhs))
        if not vec_is_zero(lhs):
            nontrivial = True
    assert nontrivial


def test_comparison_intertwines_the_differentials():
    # d(delta(X)) + (-1)^n delta(b(X)) = 0 with n the pairing degree
    rng = random.Random(42)
    fixtures = (
        (summand_category(Q, E), ("U",), "K"),
        (cl1(), ("T",), "T"),
        (sphere(), ("S",), "S"),
    )
    for cat, band, target in fixtures:
        sub = subcategory(cat, band)
        bar = BarComplex(cat, band, target, 3)
        sgn = -1 if cat.cyclic_degree & 1 else 1
        for parity in (0, 1):
            vec = include_chain(cat, random_chain(sub, parity, 3, rng))
            lhs = bar.from_chain(chain_differential(cat, vec))
            rhs = bar.from_chain(vec)
            rhs = bar.differential(rhs)
            total = vec_sub(rhs, {k: -v for k, v in lhs.items()}
                            if sgn == 1 else lhs)
            assert vec_is_zero(total)


def test_comparison_shifts_parity_by_the_pairing_degree():
    rng = random.Random(43)
    fixtures = (
        (summand_category(Q, E), ("U",), "K"),
        (cl1(), ("T",), "T"),
        (sphere(), ("S",), "S"),
    )
    for cat, band, target in fixtures:
        sub = subcategory(cat, band)
        bar = BarComplex(cat, band, target, 2)
        want_shift = cat.cyclic_degree & 1
        for parity in (0, 1):
            vec = include_chain(cat, random_chain(sub, parity, 2, rng))
            for key in bar.from_chain(vec):
                assert bar.parity(key) == (parity + want_shift) & 1


def test_contracting_the_comparison_recovers_the_endomorphism():
    rng = random.Random(44)
    fixtures = (
        (cl1(), ("T",), "T"),
        (summand_category(Q, E), ("U",), "K"),
        (sphere(), ("S",), "S"),
    )
    for cat, band, target in fixtures:
        sub = subcategory(cat, band)
        bar = BarComplex(cat, band, target, 2)
        for parity in (0, 1):
            vec = include_chain(cat, random_chain(sub, parity, 2, rng))
            lhs = contract_element(cat, target, bar.from_chain(vec))
            rhs = z_x(cat, vec, target)
            assert vec_is_zero(vec_sub(lhs, rhs))


def test_comparison_rejects_chains_off_the_band():
    cat = summand_category(Q, E)
    bar = BarComplex(cat, ("U",), "K", 2)
    with pytest.raises(StructureError, match="chain leaves the band"):
        bar.from_chain({(("K",), ("k",)): one()})


def test_comparison_rejects_chains_beyond_the_window():
    cat = cl1()
    bar = BarComplex(cat, ("T",), "T", 0)
    long_word = {(("T", "T"), ("e1", "e1")): one()}
    with pytest.raises(StructureError, match="chain exceeds the bar window"):
        bar.from_chain(long_word)


def test_comparison_of_the_point_unit_word():
    cat = point_category(Q, E)
    bar = BarComplex(cat, ("pt",), "pt", 0)
    out = bar.from_chain({(("pt",), ("1",)): one()})
    assert set(out) == {(("pt",), ("1", "1"))}
    assert scalar_is(out[(("pt",), ("1", "1"))], 1)


# -- generation certificates ------------------------------------------------


def test_odd_clifford_line_generates_itself():
    cert = split_generation_check(cl1(beta=2), ("T",), "T", 4)
    assert cert.generated and cert.verdict == "generated"
    assert cert.class_dims == {0: 0, 1: 1}
    assert cert.residual == {}
    assert set(cert.witness) == {(("T",), ("e1",))}
    assert scalar_is(cert.witness[(("T",), ("e1",))], Fraction(-1, 4))


def test_sphere_certificate_scales_with_the_disk_count():
    cert = split_generation_check(sphere(beta=3), ("S",), "S", 4)
    assert cert.generated
    key = (("S",), ("p",))
    assert key in cert.witness
    assert scalar_is(cert.witness[key], Fraction(1, 6))


def test_summand_is_generated_by_the_ambient_object():
    cert = split_generation_check(summand_category(Q, E), ("U",), "K", 4)
    assert cert.generated
    assert cert.witness == {(("U",), ("u",)): one()}


def test_point_generates_itself():
    cert = split_generation_check(point_category(Q, E), ("pt",), "pt", 4)
    assert cert.generated
    assert set(cert.witness) == {(("pt",), ("1",))}
    assert scalar_is(cert.witness[(("pt",), ("1",))], 1)


def test_orthogonal_band_leaves_the_unit_obstructed():
    cert = split_generation_check(orthogonal_pair(), ("A",), "B", 4)
    assert not cert.generated and cert.verdict == "obstructed"
    assert cert.witness == {}
    assert set(cert.residual) == {"1"}
    assert scalar_is(cert.residual["1"], 1)


def dg_quotient():
    # the dg algebra Q[x]/(x^2 - 1) (x) Lambda[y] with dy = 1 + x, hence
    # d(xy) = x + x^2 = 1 + x; the pairing is the odd trace y -> 1,
    # xy -> 0.  The unit is not exact, and modulo the exact 1 + x it is -x
    labels = ("1", "x", "y", "xy")
    parity = {"1": 0, "x": 0, "y": 1, "xy": 1}
    sp = GradedSpace(labels, tuple(parity[lab] for lab in labels))
    m1 = MultilinearMap((sp,), sp, parity=1)
    for lab in ("y", "xy"):
        m1.add_entry((lab,), "1", one())
        m1.add_entry((lab,), "x", one())
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    times = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x",
             ("x", "x"): "1", ("1", "y"): "y", ("y", "1"): "y",
             ("x", "y"): "xy", ("y", "x"): "xy", ("1", "xy"): "xy",
             ("xy", "1"): "xy", ("x", "xy"): "y", ("xy", "x"): "y"}
    # the product carries the sign (-1)^|a| of the toy above
    for (a, b), out in times.items():
        m2.add_entry((a, b), out, -one() if parity[a] else one())
    o = "D"
    return AInfCategory(Q, Fraction(E), (o,), {(o, o): sp},
                        {(o, o): m1, (o, o, o): m2},
                        units={o: {"1": one()}},
                        pairing={(o, o): {("1", "y"): one(),
                                          ("y", "1"): -one(),
                                          ("x", "xy"): one(),
                                          ("xy", "x"): -one()}},
                        cyclic_degree=1, name="dg-quotient")


def test_dg_quotient_is_a_cyclic_unital_fixture():
    cat = dg_quotient()
    for check in (ainfinity.check_ainf, ainfinity.check_unital,
                  ainfinity.check_cyclic):
        assert check(cat).violations == []


def test_obstructed_residual_is_reduced_by_the_exact_terms():
    a = clifford_model(Q, E, [[Fraction(2)]], object_name="A", name="a")
    cert = split_generation_check(direct_sum_category(a, dg_quotient()),
                                  ("A",), "D", 4)
    assert cert.verdict == "obstructed" and cert.witness == {}
    assert set(cert.residual) == {"x"}
    assert scalar_is(cert.residual["x"], -1)


def test_certificate_rejects_a_witness_that_fails_to_replay(monkeypatch):
    # the first solve returns doubled coefficients; the replay, through the
    # real solver, finds that twice the unit is not the unit modulo the
    # (absent) exact terms
    real = splitgen.solve_combination
    calls = []

    def doubled(vectors, target, field, cutoff):
        out = real(vectors, target, field, cutoff)
        calls.append(out)
        return [c + c for c in out] if len(calls) == 1 else out

    monkeypatch.setattr(splitgen, "solve_combination", doubled)
    with pytest.raises(StructureError,
                       match="witness fails to replay against the unit"):
        split_generation_check(cl1(beta=2), ("T",), "T", 4)
    assert len(calls) == 2


def paired_acyclic_toy():
    # the toy with the pairing 1.eps = 1, eps.1 = -1: m1(eps) = 1 makes the
    # unit an exact term, so P is a zero object
    toy = acyclic_toy()
    return AInfCategory(Q, toy.cutoff, toy.objects, toy.hom, toy.ops,
                        units=toy.units,
                        pairing={("P", "P"): {("1", "eps"): one(),
                                              ("eps", "1"): -one()}},
                        cyclic_degree=1, name="paired-acyclic-toy")


def test_zero_object_is_generated_by_exact_terms_alone():
    a = clifford_model(Q, E, [[Fraction(2)]], object_name="A", name="a")
    toy = paired_acyclic_toy()
    for cat, band in ((toy, ("P",)), (direct_sum_category(toy, a), ("A",))):
        cert = split_generation_check(cat, band, "P", 4)
        assert cert.generated and cert.verdict == "generated"
        assert cert.witness == {} and cert.residual == {}


def test_degenerate_sphere_is_obstructed():
    # with no quantum corrections the unit word goes to 2p and the volume
    # word to zero, and m1 vanishes: nothing reaches the unit
    cat = sphere_model(Q, E, 0, 2)
    z_unit = z_x(cat, {(("S",), ("1",)): one()}, "S")
    z_vol = z_x(cat, {(("S",), ("p",)): one()}, "S")
    assert set(z_unit) == {"p"} and scalar_is(z_unit["p"], 2)
    assert vec_is_zero(z_vol)
    assert cat.op(("S", "S")) is None


def test_degenerate_sphere_never_stabilizes_without_overrides():
    cat = sphere_model(Q, E, 0, 2)
    with pytest.raises(NotStabilized, match="not stabilized at N"):
        split_generation_check(cat, ("S",), "S", 4)


def test_certificate_rejects_unknown_targets():
    with pytest.raises(StructureError, match="not in category"):
        split_generation_check(cl1(), ("T",), "X", 3)


def test_each_gram_matrix_is_inverted_once(monkeypatch):
    # the check and a replay outside it share the category's one inversion
    calls = []
    real = ainfinity.inverse

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ainfinity, "inverse", counting)
    cat = cl1(beta=2)
    cert = split_generation_check(cat, ("T",), "T", 4)
    z_x(cat, include_chain(cat, cert.witness), "T")
    nonzero = [(x, y) for x in cat.objects for y in cat.objects
               if cat.hom_space(x, y).dim]
    assert len(calls) == len(nonzero) == 1


def test_certificate_rejects_a_repeated_band_object():
    with pytest.raises(StructureError, match="repeated object"):
        split_generation_check(cl1(beta=2), ("T", "T"), "T", 4)


def test_certificate_description_is_replayable_text():
    cert = split_generation_check(cl1(beta=2), ("T",), "T", 4)
    text = cert.describe()
    assert "verdict: generated" in text
    assert "witness" in text and "e1" in text
    blocked = split_generation_check(orthogonal_pair(), ("A",), "B", 4)
    text = blocked.describe()
    assert "verdict: obstructed" in text
    assert "residual" in text
