import random
from fractions import Fraction

import pytest

from ainfbench.ainfinity import AInfCategory, subcategory
from ainfbench.errors import StructureError
from ainfbench.graded import GradedSpace, MultilinearMap
from ainfbench.hochschild import (
    chain_differential,
    chain_parity,
    element_cochain,
    homology,
    include_chain,
    object_chain,
    restrict_to_object,
    unit_cochain,
    words_up_to,
)
from ainfbench.hochschild import cap, cup
from ainfbench.linalg import matrix_rank
from ainfbench.models import (
    clifford_model,
    direct_sum_category,
    lambda_pair_algebra,
    point_category,
    sphere_model,
    summand_category,
)
from ainfbench.mukai import (
    cyc_pair,
    mukai,
    trace,
    z_map,
    z_x,
)
from ainfbench.novikov import NovikovScalar, Rationals, parse_scalar

from random_elements import random_chain, random_cochain

E = 6
Q = Rationals()


def one():
    return NovikovScalar.one(Q, E)


def const(x):
    return NovikovScalar.constant(Q, E, Fraction(x))


def cl1(beta=2):
    return clifford_model(Q, E, [[Fraction(beta)]])


def cl2():
    return clifford_model(
        Q, E, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])


def sphere(beta=3):
    return sphere_model(Q, E, beta, 2)


def word(cat, obj, lab):
    return {((obj,), (lab,)): one()}


def reduced(p):
    return (p + 1) & 1


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


def pairingless_point():
    sp = GradedSpace(("1",), (0,), (0,))
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("1", "1"), "1", one())
    return AInfCategory(Q, E, ("pt",), {("pt", "pt"): sp},
                        {("pt",) * 3: m2}, units={"pt": {"1": one()}})


def scaled_point(c):
    sp = GradedSpace(("1",), (0,), (0,))
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("1", "1"), "1", one())
    return AInfCategory(Q, E, ("pt",), {("pt", "pt"): sp},
                        {("pt",) * 3: m2}, units={"pt": {"1": one()}},
                        pairing={("pt", "pt"): {("1", "1"): const(c)}},
                        cyclic_degree=0)


# -- trace ------------------------------------------------------------------


def test_trace_requires_a_pairing():
    cat = pairingless_point()
    with pytest.raises(StructureError, match="no cyclic pairing"):
        trace(cat, word(cat, "pt", "1"))


def test_trace_of_unit_word_matches_the_pairing():
    for cat, obj in ((sphere(), "S"), (cl1(), "T"), (point_category(Q, E), "pt")):
        unit = cat.unit(obj)
        value = trace(cat, object_chain(cat, obj, unit))
        assert (value - cat.pair(obj, obj, unit, unit)).is_zero()


def test_trace_normalization_on_the_volume_class():
    assert scalar_is(trace(sphere(), word(sphere(), "S", "p")), 1)
    assert scalar_is(trace(cl1(), word(cl1(), "T", "e1")), 1)


def test_trace_kills_positive_length():
    cat = cl1()
    vec = {(("T", "T"), ("e1", "e1")): one()}
    assert trace(cat, vec).is_zero()


def test_trace_vanishes_on_boundaries():
    rng = random.Random(20)
    for cat in (sphere(), cl1(), summand_category(Q, E),
                lambda_pair_algebra(Q, E)):
        for parity in (0, 1):
            for _ in range(6):
                vec = random_chain(cat, parity, 3, rng)
                assert trace(cat, chain_differential(cat, vec)).is_zero()


# -- cochain pairing --------------------------------------------------------


def test_cyc_pair_of_the_unit_cochain_is_the_trace():
    rng = random.Random(21)
    for cat in (sphere(), cl1(), summand_category(Q, E)):
        for parity in (0, 1):
            vec = random_chain(cat, parity, 3, rng)
            lhs = cyc_pair(unit_cochain(cat, 4), vec)
            assert (lhs - trace(cat, vec)).is_zero()


def test_cyc_pair_at_length_zero_is_the_pairing():
    cat = cl1()
    for flab in ("1", "e1"):
        for xlab in ("1", "e1"):
            phi = element_cochain(cat, "T", {flab: one()}, 3)
            value = cyc_pair(phi, word(cat, "T", xlab))
            want = cat.pair("T", "T", {flab: one()}, {xlab: one()})
            assert (value - want).is_zero()


def test_cyc_pair_expansion_identity():
    # <phi, X> = (-1)^{|x0|' (|x1|'+...+|xs|')} <phi(x1..xs), x0>
    rng = random.Random(22)
    for cat in (sphere(), cl1(), summand_category(Q, E)):
        for parity in (0, 1):
            phi = random_cochain(cat, parity, 4, rng)
            for w in words_up_to(cat, 3):
                objs, labels = w
                n = len(labels)
                lhs = cyc_pair(phi, {w: one()})
                entry_chain = tuple(objs[1:]) + (objs[0],)
                ent = phi.entry(entry_chain, labels[1:])
                rhs = cat.pair(entry_chain[0], objs[0], ent,
                               {labels[0]: one()})
                x0 = reduced(cat.hom_space(objs[0], objs[1 % n])
                             .parity(labels[0]))
                rest = 0
                for idx in range(1, n):
                    rest ^= reduced(
                        cat.hom_space(objs[idx], objs[(idx + 1) % n])
                        .parity(labels[idx]))
                if x0 & rest:
                    rhs = -rhs
                assert (lhs - rhs).is_zero()


def test_cyc_pair_skew_against_the_differentials():
    from ainfbench.hochschild import cochain_differential
    rng = random.Random(23)
    for cat in (sphere(), cl1(), summand_category(Q, E)):
        for pphi in (0, 1):
            for pvec in (0, 1):
                phi = random_cochain(cat, pphi, 4, rng)
                vec = random_chain(cat, pvec, 3, rng)
                a = cyc_pair(cochain_differential(phi), vec)
                b = cyc_pair(phi, chain_differential(cat, vec))
                if reduced(pphi):
                    b = -b
                assert (a + b).is_zero()


def test_cyc_pair_module_sign():
    # <cup(phi, psi), X> = (-1)^{n |psi|} <phi, cap(psi, X)>
    rng = random.Random(24)
    for cat in (sphere(), cl1(), summand_category(Q, E)):
        n = cat.cyclic_degree
        for pphi in (0, 1):
            for ppsi in (0, 1):
                for pvec in (0, 1):
                    phi = random_cochain(cat, pphi, 4, rng)
                    psi = random_cochain(cat, ppsi, 4, rng)
                    vec = random_chain(cat, pvec, 3, rng)
                    lhs = cyc_pair(cup(phi, psi), vec)
                    rhs = cyc_pair(phi, cap(psi, vec))
                    if (n * ppsi) & 1:
                        rhs = -rhs
                    assert (lhs - rhs).is_zero()


# -- dual bases -------------------------------------------------------------


def test_dual_basis_gram_identity():
    # <e^a, e_b> = delta to cutoff, through the pairing alone
    for cat in (cl1(), cl2(), sphere(), summand_category(Q, E)):
        for (x, y), duals in cat.dual_bases().items():
            labels = cat.hom_space(x, y).labels
            assert len(duals) == len(labels)
            for a, dual in enumerate(duals):
                for b, col in enumerate(labels):
                    val = cat.pair(y, x, dual, {col: one()})
                    assert scalar_is(val, 1 if a == b else 0)


def test_dual_basis_frozen_for_the_odd_clifford_line():
    duals = cl1().dual_bases()[("T", "T")]
    assert set(duals[0]) == {"e1"} and scalar_is(duals[0]["e1"], -1)
    assert set(duals[1]) == {"1"} and scalar_is(duals[1]["1"], 1)


def test_dual_basis_requires_a_pairing():
    with pytest.raises(StructureError, match="no cyclic pairing"):
        pairingless_point().dual_bases()


def test_dual_basis_rejects_a_degenerate_pairing():
    with pytest.raises(StructureError, match="singular Gram matrix"):
        scaled_point(0).dual_bases()


def near_singular_sphere():
    # Gram rows (T^3, 0), (3 - 2T^2, 3T^2) at cutoff 4: full rank, but an
    # O(T^4) change of the zero entry makes the pairing singular
    cat = sphere_model(Q, 4, 0, 2)
    cat.pairing[("S", "S")] = {
        ("1", "1"): parse_scalar("T^3", Q, 4),
        ("p", "1"): parse_scalar("3 - 2*T^2", Q, 4),
        ("p", "p"): parse_scalar("3*T^2", Q, 4)}
    return cat


def test_dual_basis_rejects_a_pairing_singular_to_working_precision():
    with pytest.raises(StructureError, match="singular Gram matrix"):
        near_singular_sphere().dual_bases()


def test_dual_basis_rejects_mismatched_hom_dimensions():
    sp = GradedSpace(("1",), (0,), (0,))
    down = GradedSpace(("f",), (0,), (0,))
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("1", "1"), "1", one())
    m2b = MultilinearMap((sp, sp), sp, parity=0)
    m2b.add_entry(("1", "1"), "1", one())
    left = MultilinearMap((sp, down), down, parity=0)
    left.add_entry(("1", "f"), "f", one())
    right = MultilinearMap((down, sp), down, parity=0)
    right.add_entry(("f", "1"), "f", one())
    cat = AInfCategory(
        Q, E, ("A", "B"),
        {("A", "A"): sp, ("B", "B"): sp, ("A", "B"): down},
        {("A", "A", "A"): m2, ("B", "B", "B"): m2b,
         ("A", "A", "B"): left, ("A", "B", "B"): right},
        units={"A": {"1": one()}, "B": {"1": one()}},
        pairing={("A", "A"): {("1", "1"): one()},
                 ("B", "B"): {("1", "1"): one()}},
        cyclic_degree=0)
    with pytest.raises(StructureError, match="singular Gram matrix"):
        cat.dual_bases()


# -- Mukai pairing ----------------------------------------------------------


def test_mukai_golden_values_on_the_even_sphere():
    cat = sphere(beta=3)
    assert scalar_is(mukai(cat, word(cat, "S", "1"), word(cat, "S", "1")), 2)
    assert mukai(cat, word(cat, "S", "1"), word(cat, "S", "p")).is_zero()
    assert scalar_is(mukai(cat, word(cat, "S", "p"), word(cat, "S", "p")), 6)


def test_mukai_golden_value_on_the_odd_clifford_line():
    cat = cl1(beta=2)
    p = word(cat, "T", "e1")
    assert scalar_is(mukai(cat, p, p), -4)


def test_mukai_on_a_point_solves_the_one_dimensional_system():
    # on a one-dimensional even algebra the double sum collapses to a
    # single trace term of value one, whatever the pairing normalization
    for c in (1, 5):
        cat = scaled_point(c)
        unit = word(cat, "pt", "1")
        assert scalar_is(mukai(cat, unit, unit), 1)
        zred = restrict_to_object(z_map(cat, unit, 2), "pt")
        assert set(zred) == {"1"}
        assert scalar_is(zred["1"], Fraction(1, c))


def test_mukai_is_bilinear():
    cat = sphere()
    p = word(cat, "S", "p")
    scaled = {k: const(2) * v for k, v in p.items()}
    scaled2 = {k: const(3) * v for k, v in p.items()}
    assert scalar_is(mukai(cat, scaled, scaled2), 36)


def test_mukai_skew_rule():
    rng = random.Random(25)
    for cat in (sphere(), cl1(), lambda_pair_algebra(Q, E),
                summand_category(Q, E)):
        for px in (0, 1):
            for py in (0, 1):
                x = random_chain(cat, px, 3, rng)
                y = random_chain(cat, py, 3, rng)
                a = mukai(cat, chain_differential(cat, x), y)
                b = mukai(cat, x, chain_differential(cat, y))
                if px:
                    b = -b
                assert (a + b).is_zero()


def test_mukai_vanishes_across_orthogonal_factors():
    rng = random.Random(26)
    a = clifford_model(Q, E, [[Fraction(2)]], object_name="A", name="a")
    b = clifford_model(Q, E, [[Fraction(3)]], object_name="B", name="b")
    cat = direct_sum_category(a, b)
    for px in (0, 1):
        for py in (0, 1):
            left = {w: c for w, c in random_chain(cat, px, 3, rng).items()
                    if w[0][0] == "A"}
            right = {w: c for w, c in random_chain(cat, py, 3, rng).items()
                     if w[0][0] == "B"}
            assert mukai(cat, left, right).is_zero()


def test_restriction_preserves_mukai():
    rng = random.Random(27)
    a = clifford_model(Q, E, [[Fraction(2)]], object_name="A", name="a")
    b = clifford_model(Q, E, [[Fraction(3)]], object_name="B", name="b")
    cat = direct_sum_category(a, b)
    sub = subcategory(cat, ("A",))
    for px in (0, 1):
        for py in (0, 1):
            x = random_chain(sub, px, 3, rng)
            y = random_chain(sub, py, 3, rng)
            inside = mukai(sub, x, y)
            outside = mukai(cat, include_chain(cat, x), include_chain(cat, y))
            assert (inside - outside).is_zero()


def test_mukai_gram_matrix_is_perfect_on_stable_classes():
    for cat in (cl1(), cl2(), lambda_pair_algebra(Q, E), sphere()):
        report = homology(cat, 4, want_basis=True)
        classes = [v for p in (0, 1) for v in report.representatives[p]]
        rows = []
        for left in classes:
            row = {}
            for ci, right in enumerate(classes):
                val = mukai(cat, left, right)
                if not val.is_zero():
                    row[ci] = val
            rows.append(row)
        assert matrix_rank(rows).rank == len(classes)


# -- the comparison map -----------------------------------------------------


def test_z_map_golden_values_on_the_even_sphere():
    cat = sphere(beta=3)
    z_unit = z_map(cat, word(cat, "S", "1"), 2)
    z_vol = z_map(cat, word(cat, "S", "p"), 2)
    z_unit.validate()
    z_vol.validate()
    at0 = restrict_to_object(z_unit, "S")
    assert set(at0) == {"p"} and scalar_is(at0["p"], 2)
    at0 = restrict_to_object(z_vol, "S")
    assert set(at0) == {"1"} and scalar_is(at0["1"], 6)


def test_z_map_golden_value_on_the_odd_clifford_line():
    cat = cl1(beta=2)
    at0 = restrict_to_object(z_map(cat, word(cat, "T", "e1"), 2), "T")
    assert set(at0) == {"1"} and scalar_is(at0["1"], -4)


def test_z_map_of_the_zero_chain_is_zero():
    assert z_map(cl1(), {}, 2).is_zero()


def test_z_map_satisfies_the_defining_pairing_identity():
    rng = random.Random(28)
    for cat in (sphere(), cl1(), summand_category(Q, E)):
        for px in (0, 1):
            vec = random_chain(cat, px, 2, rng)
            if chain_parity(cat, vec) is None:
                continue
            zm = z_map(cat, vec, 3)
            assert zm.parity == (px + cat.cyclic_degree) & 1
            for py in (0, 1):
                for _ in range(4):
                    probe = random_chain(cat, py, 3, rng)
                    lhs = cyc_pair(zm, probe)
                    rhs = mukai(cat, vec, probe)
                    assert (lhs - rhs).is_zero()


def test_z_x_is_the_length_zero_component():
    rng = random.Random(29)
    for cat in (cl1(), summand_category(Q, E)):
        for px in (0, 1):
            for _ in range(4):
                vec = random_chain(cat, px, 2, rng)
                zm = z_map(cat, vec, 2)
                for target in cat.objects:
                    a = restrict_to_object(zm, target)
                    b = z_x(cat, vec, target)
                    assert vec_is_zero(vec_sub(a, b))


def test_z_x_rejects_unknown_objects():
    cat = cl1()
    with pytest.raises(StructureError, match="not in category"):
        z_x(cat, word(cat, "T", "e1"), "nope")
