import dataclasses
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from ainfbench.ainfinity import (
    AInfCategory,
    GradedSpace,
    MultilinearMap,
    check_ainf,
    check_unital,
    deform_by_mc,
    subcategory,
)
from ainfbench import hochschild
from ainfbench.errors import (
    InsufficientCutoff,
    NotRepresentable,
    NotStabilized,
    StructureError,
)
from ainfbench.graded import reduced, sign_of
from ainfbench.hochschild import (
    HCochain,
    b11,
    b_word,
    cap,
    chain_differential,
    cochain_differential,
    cup,
    cochain_from_vector,
    element_cochain,
    homology,
    include_chain,
    iter_elementaries,
    module_relation_residual,
    object_chain,
    raise_length,
    restrict_cochain,
    restrict_to_object,
    unit_cochain,
    word_length,
    word_parity,
    words_up_to,
)
from ainfbench.linalg import (
    Eliminator,
    kernel_coefficients,
    quotient_representatives,
    solve_combination,
)
from ainfbench.models import (
    circle_fiber_algebra,
    clifford_model,
    direct_sum_category,
    lambda_pair_algebra,
    point_category,
    sphere_model,
    summand_category,
)
from ainfbench.novikov import NovikovScalar, Rationals, format_scalar
from ainfbench.potential import MomentPolytope, build_toric_potential

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


def cl3():
    return clifford_model(
        Q, E, [[Fraction(1), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(2), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(-1)]])


def sphere(dim=2):
    return sphere_model(Q, E, const(3), dim)


def pair_sum():
    return direct_sum_category(
        clifford_model(Q, E, [[Fraction(2)]], object_name="A"),
        clifford_model(Q, E, [[Fraction(-1)]], object_name="B"),
        name="pairsum")


def acyclic_toy(object_name="P"):
    # unit plus an odd eps with m1(eps) = 1 and eps^2 = 0; contractible,
    # strictly unital, and the smallest fixture with a nonzero arity-1 map
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


def energy_clifford(exponent, beta_cutoff=E):
    # odd generator squaring to a pure power of the formal parameter, so
    # every pivot of the elimination sits at that valuation
    sp = GradedSpace(("1", "p"), (0, 1), (0, 1))
    beta = NovikovScalar.monomial(Q, beta_cutoff, Fraction(exponent), Q.one)
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("1", "1"), "1", one())
    m2.add_entry(("1", "p"), "p", one())
    m2.add_entry(("p", "1"), "p", -one())
    m2.add_entry(("p", "p"), "1", beta)
    return AInfCategory(Q, Fraction(E), ("L",), {("L", "L"): sp},
                        {("L", "L", "L"): m2}, units={"L": {"1": one()}},
                        pairing={("L", "L"): {("1", "p"): one(),
                                              ("p", "1"): -one()}},
                        cyclic_degree=1, name="energy-clifford")


def with_zero_arity1(cat):
    """Same category plus an identically zero arity-1 map.

    Forces the homology computation onto its general code path without
    changing any answer.
    """
    x = cat.objects[0]
    sp = cat.hom_space(x, x)
    ops = dict(cat.ops)
    ops[(x, x)] = MultilinearMap((sp,), sp, parity=1)
    return AInfCategory(cat.field, cat.cutoff, cat.objects, cat.hom, ops,
                        units=cat.units, pairing=cat.pairing,
                        cyclic_degree=cat.cyclic_degree, name=cat.name)


def chain_minus(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        w = -v if w is None else w - v
        if w.is_zero():
            out.pop(k, None)
        else:
            out[k] = w
    return out


def chain_is_zero(vec):
    return all(c.is_zero() for c in vec.values())


def boundary_columns(cat, length):
    cols = []
    for w in words_up_to(cat, length):
        col = b_word(cat, w)
        if col:
            cols.append(col)
    return cols


def class_coordinates(cat, reps, vec, length):
    """Coordinates of a cycle in the given class basis, or None."""
    cols = [dict(r) for r in reps] + boundary_columns(cat, length - 1)
    sol = solve_combination(cols, vec, cat.field, cat.cutoff)
    return None if sol is None else sol[:len(reps)]


def test_hcochain_add_prunes_cancelled_and_overlong_entries():
    cat = cl1()
    x = cat.objects[0]
    u, v = cat.hom_space(x, x).labels[:2]
    phi = HCochain(cat, 0, 1)
    phi.add((x, x), (v,), u, const(2))
    phi.add((x, x), (v,), v, const(1))
    phi.add((x, x), (v,), u, const(-2))
    assert phi.entry((x, x), (v,)) == {v: const(1)}
    phi.add((x, x), (v,), v, const(-1))
    assert phi.table == {} and not phi.truncated
    phi.add((x, x, x), (v, v), u, const(1))
    assert phi.is_zero() and phi.truncated


@pytest.mark.parametrize("build", [
    pytest.param(lambda cat: HCochain(cat, 0, -1), id="HCochain"),
    pytest.param(lambda cat: unit_cochain(cat, -1), id="unit_cochain"),
    pytest.param(lambda cat: element_cochain(cat, "T", {"1": one()}, -1),
                 id="element_cochain"),
])
def test_cochains_refuse_a_negative_window(build):
    # a negative window would drop even the length-0 entries and hand back
    # the zero cochain
    with pytest.raises(StructureError,
                       match="max_length must be nonnegative, got -1"):
        build(cl2())


def test_cochain_window_is_an_integer():
    assert HCochain(cl2(), 0, Fraction(4)).max_length == 4
    with pytest.raises(NotRepresentable, match=r"2\.5"):
        HCochain(cl2(), 0, 2.5)


# -- differentials ---------------------------------------------------------

def test_unit_cochain_is_closed():
    cat = cl2()
    assert cochain_differential(unit_cochain(cat, 4)).is_zero()


def test_length0_closedness_is_graded_commutation():
    # a length-0 cochain is closed exactly when its value graded-commutes
    # with every morphism; the odd generator misses by twice its square
    cat = cl1()
    T = cat.objects[0]
    phi = element_cochain(cat, T, {"e1": one()}, 3)
    d = cochain_differential(phi)
    assert d.entry((T, T), ("1",)) == {}
    assert {k: v for k, v in d.entry((T, T), ("e1",)).items()
            if not v.is_zero()} == {"1": const(4)}
    assert {len(args) for _, args in d.table} == {1}


def test_cochain_differential_squares_to_zero():
    rng = random.Random(31)
    for cat in (cl2(), sphere(), acyclic_toy()):
        for _ in range(4):
            phi = random_cochain(cat, rng.randrange(2), 3, rng)
            assert cochain_differential(cochain_differential(phi)).is_zero()


def test_boundary_squares_to_zero():
    rng = random.Random(32)
    for cat in (cl2(), sphere(), pair_sum(), acyclic_toy()):
        for _ in range(4):
            X = random_chain(cat, rng.randrange(2), 4, rng)
            assert chain_is_zero(chain_differential(
                cat, chain_differential(cat, X)))


def test_boundary_of_unit_word_vanishes():
    cat = cl2()
    T = cat.objects[0]
    assert b_word(cat, ((T,), ("1",))) == {}


def test_boundary_of_odd_square_word():
    # both wrap terms contribute the product of the generator with itself
    cat = cl1()
    T = cat.objects[0]
    out = b_word(cat, ((T, T), ("e1", "e1")))
    assert set(out) == {((T,), ("1",))}
    assert out[((T,), ("1",))] == const(4)


# -- cup -------------------------------------------------------------------

def test_cup_unit_laws_hold_strictly():
    cat = cl1()
    rng = random.Random(33)
    u = unit_cochain(cat, 4)
    for _ in range(4):
        phi = random_cochain(cat, rng.randrange(2), 4, rng)
        assert (cup(u, phi) - phi).is_zero()
        assert (cup(phi, u) - phi).is_zero()


def test_cup_of_scalar_cochains_is_pointwise_product():
    cat = cl1()
    T = cat.objects[0]
    a = element_cochain(cat, T, {"1": const(3)}, 4)
    b = element_cochain(cat, T, {"1": const(5)}, 4)
    prod = cup(a, b)
    assert {k: v for k, v in prod.length0(T).items()} == {"1": const(15)}
    assert {len(args) for _, args in prod.table} == {0}


def test_cup_of_cocycles_is_cocycle():
    rng = random.Random(34)
    cat = cl1()
    u = unit_cochain(cat, 4)
    exact = cochain_differential(random_cochain(cat, 1, 4, rng))
    for a in (u, exact):
        for b in (u, exact):
            assert cochain_differential(cup(a, b)).is_zero()


def test_cup_associative_within_window():
    rng = random.Random(35)
    for cat in (cl1(), lambda_pair_algebra(Q, E)):
        for _ in range(3):
            f = random_cochain(cat, rng.randrange(2), 3, rng)
            g = random_cochain(cat, rng.randrange(2), 3, rng)
            h = random_cochain(cat, rng.randrange(2), 3, rng)
            d = cup(cup(f, g), h) - cup(f, cup(g, h))
            assert cochain_from_vector(
                cat, d.parity, 3, d.as_vector()).is_zero()


def test_cup_splits_as_projection_algebra():
    lam = lambda_pair_algebra(Q, E)
    rep = homology(lam, 4, side="cochains", want_basis=True)
    assert rep.dims == {0: 2, 1: 0}
    r0, r1 = rep.representatives[0]
    assert (cup(r0, r0) - r0).is_zero()
    assert (cup(r1, r1) - r1).is_zero()
    assert cup(r0, r1).is_zero()
    assert cup(r1, r0).is_zero()


# -- cap -------------------------------------------------------------------

def test_cap_with_unit_is_identity():
    rng = random.Random(36)
    for cat in (cl2(), sphere()):
        u = unit_cochain(cat, 4)
        for _ in range(4):
            X = random_chain(cat, rng.randrange(2), 4, rng)
            assert chain_is_zero(chain_minus(cap(u, X), X))


def test_cap_with_scalar_cochain_scales():
    cat = cl1()
    T = cat.objects[0]
    phi = element_cochain(cat, T, {"1": const(3)}, 4)
    X = {((T, T), ("e1", "e1")): one(), ((T,), ("e1",)): const(2)}
    got = cap(phi, X, check=True)
    want = {k: v * const(3) for k, v in X.items()}
    assert chain_is_zero(chain_minus(got, want))


def test_module_relation_residual_vanishes():
    rng = random.Random(37)
    for cat in (cl2(), sphere(), pair_sum()):
        for _ in range(5):
            phi = random_cochain(cat, rng.randrange(2), 3, rng)
            X = random_chain(cat, rng.randrange(2), 3, rng)
            assert chain_is_zero(module_relation_residual(phi, X))


def test_module_law_on_projection_classes():
    # ([phi] cup [psi]) cap [X] agrees with [phi] cap ([psi] cap [X]) on the
    # class bases; with two idempotent lines this is the full multiplication
    # table of a rank-two projection module
    lam = lambda_pair_algebra(Q, E)
    ch = homology(lam, 4, side="chains", want_basis=True)
    co = homology(lam, 4, side="cochains", want_basis=True)
    reps = ch.representatives[0]
    for a in co.representatives[0]:
        for b in co.representatives[0]:
            for X in reps:
                ab = cup(a, b)
                ab = cochain_from_vector(lam, ab.parity, 4, ab.as_vector())
                lhs = cap(ab, X, check=True)
                rhs = cap(a, cap(b, X, check=True), check=True)
                cl = class_coordinates(lam, reps, lhs, 4)
                cr = class_coordinates(lam, reps, rhs, 4)
                assert cl is not None and cr is not None
                assert all((x - y).is_zero() for x, y in zip(cl, cr))


def test_projection_classes_act_as_projections():
    lam = lambda_pair_algebra(Q, E)
    ch = homology(lam, 4, side="chains", want_basis=True)
    co = homology(lam, 4, side="cochains", want_basis=True)
    reps = ch.representatives[0]
    table = []
    for phi in co.representatives[0]:
        for X in reps:
            coords = class_coordinates(lam, reps, cap(phi, X), 4)
            table.append([not c.is_zero() for c in coords])
    assert table == [[True, False], [False, False],
                     [False, False], [False, True]]


# -- homology --------------------------------------------------------------

def test_homology_of_small_cliffords():
    r1 = homology(cl1(), 4, want_basis=True)
    assert r1.dims == {0: 0, 1: 1}
    assert r1.stabilized and r1.certified
    assert r1.total() == 1
    (rep,) = r1.representatives[1]
    assert chain_is_zero(chain_differential(cl1(), rep))
    assert homology(cl2(), 4).require().dims == {0: 1, 1: 0}


def test_clifford_differentials_keep_int_exponents():
    # constant fixtures keep exponent/cutoff bookkeeping in plain ints,
    # also when the category was built with a Fraction cutoff
    rng = random.Random(3)
    for cat in (cl2(), clifford_model(Q, Fraction(E), [[Fraction(3)]])):
        chain = chain_differential(cat, random_chain(cat, 1, 3, rng))
        cochain = cochain_differential(random_cochain(cat, 0, 3, rng))
        scalars = list(chain.values()) + [
            x for outs in cochain.table.values() for x in outs.values()]
        assert scalars
        for x in scalars:
            assert type(x.cutoff) is int
            assert all(type(e) is int for e, _ in x.terms)


def test_homology_matches_window_oracle():
    for cat in (cl1(), cl2(), cl1(beta=0)):
        assert window_dims(cat, 4) == homology(cat, 4).dims


def test_window_oracle_matches_dense_ranks():
    for cat in (cl1(), cl1(beta=0), sphere()):
        assert window_dims(cat, 4) == dense_window_dims(cat, 4)


def test_homology_of_two_idempotents():
    lam = lambda_pair_algebra(Q, E)
    rep = homology(lam, 4, want_basis=True)
    assert rep.dims == {0: 2, 1: 0}
    words = sorted("".join(k[1]) for r in rep.representatives[0] for k in r)
    assert words == ["u", "v"]


def test_homology_of_even_sphere():
    # two classes squaring to a nonzero scalar: a separable rank-two
    # commutative algebra, so everything sits in length zero
    assert homology(sphere(), 4).require().dims == {0: 2, 1: 0}


def test_homology_grows_without_square():
    ext = cl1(beta=0)
    r2 = homology(ext, 2)
    r4 = homology(ext, 4)
    assert r2.dims == {0: 1, 1: 1}
    assert r4.dims == {0: 3, 1: 3}
    assert not r4.stabilized and r4.certified
    with pytest.raises(NotStabilized, match="not stabilized at N=4"):
        r4.require()


def test_homology_cochain_side():
    assert homology(cl1(), 4, side="cochains").dims == {0: 1, 1: 0}
    assert homology(lambda_pair_algebra(Q, E), 4,
                    side="cochains").dims == {0: 2, 1: 0}


def test_homology_shortcut_agrees_with_general_path():
    for cat in (cl2(), lambda_pair_algebra(Q, E)):
        padded = with_zero_arity1(cat)
        for side in ("chains", "cochains"):
            a = homology(cat, 4, side=side)
            b = homology(padded, 4, side=side)
            assert a.dims == b.dims
            assert a.previous == b.previous


def test_homology_certification_margin():
    ec = energy_clifford(2)
    assert check_unital(ec).passed and check_ainf(ec).passed
    rep = homology(ec, 4)
    assert rep.dims == {0: 0, 1: 1}
    assert rep.margin == 4
    assert rep.certified
    # an entry carrying precision beyond the category's cutoff: the pivot
    # at valuation 7 does not clear the cutoff 6
    tight = homology(energy_clifford(7, beta_cutoff=12), 4)
    assert tight.margin == -1
    assert not tight.certified
    with pytest.raises(InsufficientCutoff, match="insufficient cutoff"):
        tight.require()


def test_homology_of_third_clifford_within_budget(monkeypatch):
    t0 = time.perf_counter()
    rep = homology(cl3(), 4)
    elapsed = time.perf_counter() - t0
    assert rep.dims == {0: 0, 1: 1}
    assert rep.stabilized
    assert elapsed < 60.0
    # the cochain class basis reads the build window of the dimensions and
    # stays within about 2x their 4,572 inserts (9,388); a kernel over all
    # 18,724 elementary cochains of length N inserts 42,156 rows
    inserts = Counter()
    real_insert = Eliminator.insert

    def insert(self, row):
        inserts["rows"] += 1
        return real_insert(self, row)

    monkeypatch.setattr(Eliminator, "insert", insert)
    rep = homology(cl3(), 4, side="cochains", want_basis=True)
    assert rep.dims == {0: 1, 1: 0}
    assert len(rep.representatives[0]) == 1
    assert inserts["rows"] < 10_000


def test_homology_rejects_bad_arguments():
    with pytest.raises(StructureError, match="unknown side"):
        homology(cl1(), 4, side="columns")
    with pytest.raises(StructureError, match="length at least 2"):
        homology(cl1(), 1)
    for bad in (4.0, Fraction(4), "4", True):
        with pytest.raises(StructureError, match="integer window"):
            homology(cl1(), bad)
    curved = point_category(Q, E)
    m0 = MultilinearMap((), curved.hom_space("pt", "pt"), parity=0)
    m0.add_entry((), "1", one())
    ops = dict(curved.ops)
    ops[("pt",)] = m0
    curved = AInfCategory(Q, Fraction(E), curved.objects, curved.hom, ops,
                          units=curved.units, name="curved-point")
    with pytest.raises(StructureError, match="flat"):
        homology(curved, 2)


# -- transport -------------------------------------------------------------

def test_transport_duality():
    big = pair_sum()
    sub = subcategory(big, ("B",))
    rng = random.Random(38)
    for _ in range(6):
        phi = random_cochain(big, rng.randrange(2), 3, rng)
        X = random_chain(sub, rng.randrange(2), 3, rng)
        lhs = b11(phi, include_chain(big, X))
        rhs = include_chain(big, b11(restrict_cochain(phi, sub), X))
        assert chain_is_zero(chain_minus(lhs, rhs))


def test_transport_roundtrips():
    big = pair_sum()
    sub = subcategory(big, ("B",))
    rng = random.Random(39)
    X = random_chain(sub, 0, 3, rng)
    assert include_chain(big, X) == X
    phi = random_cochain(big, 1, 3, rng)
    once = restrict_cochain(phi, sub)
    again = restrict_cochain(once, sub)
    assert (once - again).is_zero()
    by_tuple = restrict_cochain(phi, ("B",)).as_vector()
    assert by_tuple.keys() == once.as_vector().keys()
    assert all((v - once.as_vector()[k]).is_zero()
               for k, v in by_tuple.items())
    assert restrict_to_object(unit_cochain(big, 3), "A") == {"1": one()}
    vec = {"e1": const(7)}
    assert object_chain(big, "A", vec) == {(("A",), ("e1",)): const(7)}


def test_transport_rejects_unknown_objects():
    big = pair_sum()
    with pytest.raises(StructureError, match="not in category"):
        restrict_to_object(unit_cochain(big, 3), "C")
    with pytest.raises(StructureError, match="not in category"):
        subcategory(big, ("A", "Z"))
    with pytest.raises(StructureError, match="repeated object"):
        subcategory(big, ("A", "A"))
    with pytest.raises(StructureError):
        include_chain(cl1(), {(("A",), ("1",)): one()})


# -- length raising --------------------------------------------------------

def test_raise_length_of_zero():
    out, corr = raise_length(HCochain(cl1(), 0, 4), 2)
    assert out.is_zero() and corr.is_zero()


def test_raise_length_kills_unit_on_contractible():
    toy = acyclic_toy()
    assert check_unital(toy).passed and check_ainf(toy).passed
    u = unit_cochain(toy, 5)
    out, corr = raise_length(u, 3)
    assert out.is_zero()
    assert (u - cochain_differential(corr) - out).is_zero()


def test_raise_length_on_two_object_sum():
    pair = direct_sum_category(acyclic_toy("P"), acyclic_toy("R"),
                               name="toy-pair")
    proj = element_cochain(pair, "P", {"1": one()}, 5)
    assert cochain_differential(proj).is_zero()
    assert (cup(proj, proj) - proj).is_zero()
    out, corr = raise_length(proj, 2)
    ml = out.min_length()
    assert ml is None or ml > 2
    assert (proj - cochain_differential(corr) - out).is_zero()
    assert cochain_differential(out).is_zero()


def test_raise_length_squaring_induction():
    # exact input with support from length one on: the first round has
    # nothing to do at length zero and the corrections double the reach
    cat = cl1()
    T = cat.objects[0]
    eta = element_cochain(cat, T, {"e1": one()}, 6)
    phi = cochain_differential(eta)
    assert phi.min_length() == 1
    out, corr = raise_length(phi, 3)
    assert out.min_length() is None or out.min_length() > 3
    assert (phi - cochain_differential(corr) - out).is_zero()
    assert cochain_differential(out).is_zero()


def test_raise_length_error_paths():
    pts = direct_sum_category(point_category(Q, E, object_name="x"),
                              point_category(Q, E, object_name="y"),
                              name="pts")
    proj = element_cochain(pts, "x", {"1": one()}, 4)
    with pytest.raises(StructureError, match="not exact"):
        raise_length(proj, 2)
    cat = cl1()
    with pytest.raises(StructureError, match="insufficient length budget"):
        raise_length(unit_cochain(cat, 3), 3)
    with pytest.raises(StructureError, match="even"):
        raise_length(element_cochain(cat, cat.objects[0], {"e1": one()}, 4), 2)
    rng = random.Random(40)
    with pytest.raises(StructureError, match="not a cocycle"):
        raise_length(random_cochain(cat, 0, 4, rng), 2)


# -- dense oracle ----------------------------------------------------------

def constant_part(s):
    if not s.terms:
        return Fraction(0)
    assert len(s.terms) == 1 and s.terms[0][0] == 0
    return s.terms[0][1]


def rref_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    rank, col = 0, 0
    while rank < len(rows) and col < len(rows[0]):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def window_rows(cat, length):
    """The rows that define the window homology at N = ``length``.

    For each parity p: the boundaries of the small-window words (length
    <= N - 2) of parity p, the indices of those words, and the boundaries
    of every word of parity 1 - p up to N.  Rows are sparse {word index: Fraction}; the
    indices run over ``words_up_to(cat, N)``, whose size is returned too.
    Only categories whose structure constants are exact constants qualify.
    """
    words = words_up_to(cat, length)
    index = {w: i for i, w in enumerate(words)}

    def boundary(w):
        row = {index[ww]: constant_part(c) for ww, c in b_word(cat, w).items()}
        return {k: c for k, c in row.items() if c}

    parts = {}
    for p in (0, 1):
        small = [w for w in words
                 if word_parity(cat, w) == p and word_length(w) <= length - 2]
        parts[p] = ([boundary(w) for w in small], [index[w] for w in small],
                    [boundary(w) for w in words if word_parity(cat, w) != p])
    return len(words), parts


def sparse_reduce(pivots, row):
    """Reduce a sparse row against pivot rows keyed by their least column.

    Each pivot row is 1 at its key and 0 left of it, so every subtraction
    moves the row's least column right.  Returns the reduced row; unless
    it is zero, it has also been installed, normalized, as a new pivot.
    """
    row = dict(row)
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            inv = 1 / row[col]
            pivots[col] = {k: c * inv for k, c in row.items()}
            return row
        f = row[col]
        for k, c in piv.items():
            v = row.get(k, 0) - f * c
            if v:
                row[k] = v
            else:
                del row[k]
    return row


def window_dims(cat, length):
    """Window homology from its definition, with sparse exact row reduction.

    The kernel of the boundary on the small window (words of length <= N-2)
    modulo the boundaries of every word up to N: rank(kernel + B) - rank(B).
    The kernel is read off tag columns, one per small word, placed after
    every word column; a row whose word columns all reduce away carries a
    relation in its tags.
    """
    n, parts = window_rows(cat, length)
    dims = {}
    for p, (z_rows, small, b_rows) in parts.items():
        pivots, kernel = {}, []
        for j, row in enumerate(z_rows):
            reduced = sparse_reduce(pivots, {**row, n + j: Fraction(1)})
            if min(reduced) >= n:
                kernel.append({small[k - n]: c for k, c in reduced.items()})
        pivots = {}
        for row in b_rows:
            sparse_reduce(pivots, row)
        dims[p] = sum(bool(sparse_reduce(pivots, row)) for row in kernel)
    return dims


def densify(rows):
    """Sparse rows as dense lists over the columns that occur in them."""
    cols = {k: i for i, k in enumerate(dict.fromkeys(
        k for row in rows for k in row))}
    dense = []
    for row in rows:
        vec = [Fraction(0)] * len(cols)
        for k, c in row.items():
            vec[cols[k]] = c
        dense.append(vec)
    return dense


def dense_window_dims(cat, length):
    """``window_dims`` with every rank taken by dense Gauss-Jordan."""
    _, parts = window_rows(cat, length)
    dims = {}
    for p, (z_rows, small, b_rows) in parts.items():
        kernel = [{small[j]: c for j, c in enumerate(rel) if c}
                  for rel in null_rows(densify(z_rows))]
        dims[p] = (rref_rank(densify(kernel + b_rows))
                   - rref_rank(densify(b_rows)))
    return dims


def null_rows(rows):
    """Basis of the relations sum(c_i * rows_i) = 0, over plain fractions."""
    nr = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [Fraction(int(i == j)) for j in range(nr)]
           for i, r in enumerate(rows)]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nr) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [c * inv for c in aug[rank]]
        for i in range(nr):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    return [row[ncols:] for row in aug[rank:]]


def dense_cochain_window_dims(cat, length):
    """Rank of H(C^{<=N}) -> H(C^{<=N-2}) under truncation, by definition.

    Cocycles of the large window, truncated to the small one, modulo the
    coboundaries of the small window, each rank taken over plain fractions.
    """
    m = length - 2

    def matrix(parity, sources, targets, window):
        index = {f: i for i, f in enumerate(targets)}
        rows = []
        for f in sources:
            row = [Fraction(0)] * len(targets)
            d = cochain_differential(
                cochain_from_vector(cat, parity, window, {f: one()}))
            for key, c in d.as_vector().items():
                row[index[key]] = constant_part(c)
            rows.append(row)
        return rows

    dims = {}
    for p in (0, 1):
        large = list(iter_elementaries(cat, length, p))
        small = list(iter_elementaries(cat, m, p))
        cocycles = null_rows(matrix(
            p, large, list(iter_elementaries(cat, length, 1 - p)), length))
        truncated = [[rel[large.index(f)] for f in small] for rel in cocycles]
        bounds = matrix(1 - p, list(iter_elementaries(cat, m, 1 - p)),
                        small, m)
        dims[p] = rref_rank(truncated + bounds) - rref_rank(bounds)
    return dims


@pytest.mark.parametrize("name", ["cl1", "cl1(beta=0)", "lambda_pair",
                                  "sphere"])
def test_cochain_homology_matches_dense_truncation_oracle(name):
    cat = FIXTURES[name]()
    for length in (2, 3, 4):
        assert homology(cat, length, side="cochains").dims == \
            dense_cochain_window_dims(cat, length)


# -- golden reports --------------------------------------------------------

FIXTURES = {
    "cl1": cl1,
    "cl1(beta=0)": lambda: cl1(beta=0),
    "lambda_pair": lambda: lambda_pair_algebra(Q, E),
    "pair_sum": pair_sum,
    "acyclic_toy": acyclic_toy,
    "energy_clifford(2)": lambda: energy_clifford(2),
    "padded_cl1": lambda: with_zero_arity1(cl1()),
    "padded_cl2": lambda: with_zero_arity1(cl2()),
    "sphere": sphere,
    "summand": lambda: summand_category(Q, E),
}


def key_text(key):
    """A word as ``A->B [x0|x1]``, an elementary cochain as ``... => out``."""
    text = "->".join(key[0]) + " [" + "|".join(key[1]) + "]"
    return text if len(key) == 2 else text + " => " + key[2]


def describe(rep):
    """Every report field on one line, then each representative's terms as
    ``format_scalar text @ cutoff`` in front of the basis element."""
    prev = "-" if rep.previous is None else \
        "{0}/{1}".format(*rep.previous.values())
    parts = ["{0}/{1} prev {2} {3} {4} margin {5}".format(
        rep.dims[0], rep.dims[1], prev,
        "stable" if rep.stabilized else "unstable",
        "certified" if rep.certified else "uncertified", rep.margin)]
    for p, reps in (rep.representatives or {}).items():
        for r in reps:
            vec = r.as_vector() if isinstance(r, HCochain) else r
            parts.append(f"{p}: " + " + ".join(sorted(
                f"{format_scalar(c)}@{c.cutoff} {key_text(k)}"
                for k, c in vec.items())))
    return " | ".join(parts)


# (fixture, side) -> (N, want_basis) -> describe(report)
HOMOLOGY_GOLDEN = {
    ("cl1", "chains"): {
        (2, False): "0/1 prev - unstable certified margin 6",
        (2, True): "0/1 prev - unstable certified margin 6 | 1: 1@6 T [e1]",
        (3, False): "0/1 prev - unstable certified margin 6",
        (3, True): "0/1 prev - unstable certified margin 6 | 1: 1@6 T [e1]",
        (4, False): "0/1 prev 0/1 stable certified margin 6",
        (4, True): "0/1 prev 0/1 stable certified margin 6 | 1: 1@6 T [e1]",
    },
    ("cl1", "cochains"): {
        (2, False): "1/0 prev - unstable certified margin 6",
        (2, True): "1/0 prev - unstable certified margin 6 | 0: 1@6 T [] => 1",
        (3, False): "1/0 prev - unstable certified margin 6",
        (3, True): "1/0 prev - unstable certified margin 6 | 0: 1@6 T [] => 1",
        (4, False): "1/0 prev 1/0 stable certified margin 6",
        (4, True): "1/0 prev 1/0 stable certified margin 6 | 0: 1@6 T [] => 1",
    },
    ("cl1(beta=0)", "chains"): {
        (2, False): "1/1 prev - unstable certified margin None",
        (2, True): "1/1 prev - unstable certified margin 6"
                   " | 0: 1@6 T [1]"
                   " | 1: 1@6 T [e1]",
        (3, False): "2/2 prev - unstable certified margin 6",
        (3, True): "2/2 prev - unstable certified margin 6"
                   " | 0: 1@6 T [1]"
                   " | 0: 1@6 T->T [1|e1]"
                   " | 1: 1@6 T [e1]"
                   " | 1: 1@6 T->T [e1|e1]",
        (4, False): "3/3 prev 1/1 unstable certified margin 6",
        (4, True): "3/3 prev 1/1 unstable certified margin 6"
                   " | 0: 1@6 T [1]"
                   " | 0: 1@6 T->T [1|e1]"
                   " | 0: 1@6 T->T->T [1|e1|e1]"
                   " | 1: 1@6 T [e1]"
                   " | 1: 1@6 T->T [e1|e1]"
                   " | 1: 1@6 T->T->T [e1|e1|e1]",
    },
    ("cl1(beta=0)", "cochains"): {
        (2, False): "1/1 prev - unstable certified margin None",
        (2, True): "1/1 prev - unstable certified margin 6"
                   " | 0: 1@6 T [] => 1"
                   " | 1: 1@6 T [] => e1",
        (3, False): "2/2 prev - unstable certified margin 6",
        (3, True): "2/2 prev - unstable certified margin 6"
                   " | 0: 1@6 T [] => 1"
                   " | 0: 1@6 T->T [e1] => 1"
                   " | 1: 1@6 T [] => e1"
                   " | 1: 1@6 T->T [e1] => e1",
        (4, False): "3/3 prev 1/1 unstable certified margin 6",
        (4, True): "3/3 prev 1/1 unstable certified margin 6"
                   " | 0: 1@6 T [] => 1"
                   " | 0: 1@6 T->T [e1] => 1"
                   " | 0: 1@6 T->T->T [e1|e1] => 1"
                   " | 1: 1@6 T [] => e1"
                   " | 1: 1@6 T->T [e1] => e1"
                   " | 1: 1@6 T->T->T [e1|e1] => e1",
    },
    ("lambda_pair", "chains"): {
        (2, False): "2/0 prev - unstable certified margin None",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [u]"
                   " | 0: 1@6 U [v]",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [u]"
                   " | 0: 1@6 U [v]",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 U [u]"
                   " | 0: 1@6 U [v]",
    },
    ("lambda_pair", "cochains"): {
        (2, False): "2/0 prev - unstable certified margin None",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [] => u"
                   " | 0: 1@6 U [] => v",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [] => u"
                   " | 0: 1@6 U [] => v",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 U [] => u"
                   " | 0: 1@6 U [] => v",
    },
    ("pair_sum", "chains"): {
        (2, False): "0/2 prev - unstable certified margin 6",
        (2, True): "0/2 prev - unstable certified margin 6"
                   " | 1: 1@6 A [e1]"
                   " | 1: 1@6 B [e1]",
        (3, False): "0/2 prev - unstable certified margin 6",
        (3, True): "0/2 prev - unstable certified margin 6"
                   " | 1: 1@6 A [e1]"
                   " | 1: 1@6 B [e1]",
        (4, False): "0/2 prev 0/2 stable certified margin 6",
        (4, True): "0/2 prev 0/2 stable certified margin 6"
                   " | 1: 1@6 A [e1]"
                   " | 1: 1@6 B [e1]",
    },
    ("pair_sum", "cochains"): {
        (2, False): "2/0 prev - unstable certified margin 6",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 A [] => 1"
                   " | 0: 1@6 B [] => 1",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 A [] => 1"
                   " | 0: 1@6 B [] => 1",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 A [] => 1"
                   " | 0: 1@6 B [] => 1",
    },
    ("acyclic_toy", "chains"): {
        (2, False): "0/0 prev - unstable certified margin 6",
        (2, True): "0/0 prev - unstable certified margin 6",
        (3, False): "0/0 prev - unstable certified margin 6",
        (3, True): "0/0 prev - unstable certified margin 6",
        (4, False): "0/0 prev 0/0 stable certified margin 6",
        (4, True): "0/0 prev 0/0 stable certified margin 6",
    },
    ("acyclic_toy", "cochains"): {
        (2, False): "0/0 prev - unstable certified margin 6",
        (2, True): "0/0 prev - unstable certified margin 6",
        (3, False): "0/0 prev - unstable certified margin 6",
        (3, True): "0/0 prev - unstable certified margin 6",
        (4, False): "0/0 prev 0/0 stable certified margin 6",
        (4, True): "0/0 prev 0/0 stable certified margin 6",
    },
    ("energy_clifford(2)", "chains"): {
        (2, False): "0/1 prev - unstable certified margin 4",
        (2, True): "0/1 prev - unstable certified margin 4 | 1: 1@6 L [p]",
        (3, False): "0/1 prev - unstable certified margin 4",
        (3, True): "0/1 prev - unstable certified margin 4 | 1: 1@6 L [p]",
        (4, False): "0/1 prev 0/1 stable certified margin 4",
        (4, True): "0/1 prev 0/1 stable certified margin 4 | 1: 1@6 L [p]",
    },
    ("energy_clifford(2)", "cochains"): {
        (2, False): "1/0 prev - unstable certified margin 4",
        (2, True): "1/0 prev - unstable certified margin 4 | 0: 1@6 L [] => 1",
        (3, False): "1/0 prev - unstable certified margin 4",
        (3, True): "1/0 prev - unstable certified margin 4 | 0: 1@6 L [] => 1",
        (4, False): "1/0 prev 1/0 stable certified margin 4",
        (4, True): "1/0 prev 1/0 stable certified margin 4 | 0: 1@6 L [] => 1",
    },
    ("padded_cl2", "chains"): {
        (2, False): "1/0 prev - unstable certified margin 6",
        (2, True): "1/0 prev - unstable certified margin 6 | 0: 1@6 T [e12]",
        (3, False): "1/0 prev - unstable certified margin 6",
        (3, True): "1/0 prev - unstable certified margin 6 | 0: 1@6 T [e12]",
        (4, False): "1/0 prev 1/0 stable certified margin 6",
        (4, True): "1/0 prev 1/0 stable certified margin 6 | 0: 1@6 T [e12]",
    },
    ("padded_cl2", "cochains"): {
        (2, False): "1/0 prev - unstable certified margin 6",
        (2, True): "1/0 prev - unstable certified margin 6 | 0: 1@6 T [] => 1",
        (3, False): "1/0 prev - unstable certified margin 6",
        (3, True): "1/0 prev - unstable certified margin 6 | 0: 1@6 T [] => 1",
        (4, False): "1/0 prev 1/0 stable certified margin 6",
        (4, True): "1/0 prev 1/0 stable certified margin 6 | 0: 1@6 T [] => 1",
    },
    ("sphere", "chains"): {
        (2, False): "2/0 prev - unstable certified margin None",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 S [1]"
                   " | 0: 1@6 S [p]",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 S [1]"
                   " | 0: 1@6 S [p]",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 S [1]"
                   " | 0: 1@6 S [p]",
    },
    ("sphere", "cochains"): {
        (2, False): "2/0 prev - unstable certified margin None",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 S [] => 1"
                   " | 0: 1@6 S [] => p",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 S [] => 1"
                   " | 0: 1@6 S [] => p",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 S [] => 1"
                   " | 0: 1@6 S [] => p",
    },
    ("summand", "chains"): {
        (2, False): "2/0 prev - unstable certified margin 6",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [u]"
                   " | 0: 1@6 U [v]",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [u]"
                   " | 0: 1@6 U [v]",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 U [u]"
                   " | 0: 1@6 U [v]",
    },
    ("summand", "cochains"): {
        (2, False): "2/0 prev - unstable certified margin 6",
        (2, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [] => v"
                   " | 0: 1@6 K [] => k + 1@6 U [] => u",
        (3, False): "2/0 prev - unstable certified margin 6",
        (3, True): "2/0 prev - unstable certified margin 6"
                   " | 0: 1@6 U [] => v"
                   " | 0: 1@6 K [] => k + 1@6 U [] => u",
        (4, False): "2/0 prev 2/0 stable certified margin 6",
        (4, True): "2/0 prev 2/0 stable certified margin 6"
                   " | 0: 1@6 U [] => v"
                   " | 0: 1@6 K [] => k + 1@6 U [] => u",
    },
}


@pytest.mark.parametrize("name,side", sorted(HOMOLOGY_GOLDEN))
def test_homology_reports_golden(name, side):
    cat = FIXTURES[name]()
    got = {(n, basis): describe(homology(cat, n, side=side, want_basis=basis))
           for n in (2, 3, 4) for basis in (False, True)}
    assert got == HOMOLOGY_GOLDEN[(name, side)]


@pytest.mark.parametrize("want_basis", [False, True])
@pytest.mark.parametrize("side", ["chains", "cochains"])
@pytest.mark.parametrize("name", ["cl1", "pair_sum", "padded_cl1"])
def test_homology_builds_each_column_once(monkeypatch, name, side,
                                          want_basis):
    # one table per call: every word or elementary cochain up to the
    # build length has its boundary or differential computed exactly once;
    # the build length is N when an arity-1 map is present, N - 1
    # otherwise, whether or not the basis is wanted
    cat = FIXTURES[name]()
    calls = Counter()
    real_b_word = hochschild.b_word
    real_columns = hochschild._elementary_columns

    def b_word(cat, word, *pre):
        calls[word] += 1
        return real_b_word(cat, word, *pre)

    def elementary_columns(cat, elems, max_length):
        for elem, _ in elems:
            calls[elem] += 1
        return real_columns(cat, elems, max_length)

    monkeypatch.setattr(hochschild, "b_word", b_word)
    monkeypatch.setattr(hochschild, "_elementary_columns", elementary_columns)
    homology(cat, 4, side=side, want_basis=want_basis)
    has_arity1 = any(len(chain) == 2 for chain in cat.ops)
    top = 4 if has_arity1 else 3
    if side == "chains":
        expected = words_up_to(cat, top)
    else:
        expected = list(iter_elementaries(cat, top))
    assert calls == Counter(expected)


@pytest.mark.parametrize("side,dims,count", [("chains", 142, 294),
                                             ("cochains", 191, 567)])
def test_class_basis_inserts_only_blocks_it_needs(monkeypatch, side, dims,
                                                  count):
    # the dimensions eliminate both parities in one call, each block
    # stopping at its d∘d = 0 bound: 142 inserts on chains and 191 on
    # cochains (310 either way with every row inserted, 386 with one
    # elimination per window and row set); the chain quotient reuses the
    # rank count's eliminations of the build window's boundaries and
    # inserts only its kernel vectors; the cochain quotient eliminates only
    # the coboundary blocks holding a kernel vector, never a block of
    # coboundaries alone.  One unblocked elimination inserted 1,902 rows on
    # chains and 2,926 on cochains, and a cochain basis built one length
    # further 1,710
    inserts = Counter()
    real_insert = Eliminator.insert

    def insert(self, row):
        inserts[side] += 1
        return real_insert(self, row)

    monkeypatch.setattr(Eliminator, "insert", insert)
    homology(cl2(), 4, side=side)
    assert inserts[side] == dims
    inserts.clear()
    homology(cl2(), 4, side=side, want_basis=True)
    assert inserts[side] == count


def fresh_chain_basis(cat, length):
    """Chain classes whose quotient eliminates the build window's boundaries
    afresh: cycles of the small window from ``kernel_coefficients`` modulo
    ``quotient_representatives`` over the boundary of every word of the
    build window.  Returns the classes and the quotient's margins."""
    top = length if 1 in cat.arities() else length - 1
    words = words_up_to(cat, top)
    reps, margins = {}, []
    for p in (0, 1):
        small = [w for w in words
                 if word_parity(cat, w) == p and word_length(w) <= length - 2]
        rels = kernel_coefficients([b_word(cat, w) for w in small],
                                   cat.field, cat.cutoff)
        kernel = [{small[i]: c for i, c in rel.items()} for rel in rels]
        bounds = [b_word(cat, g) for g in words if word_parity(cat, g) != p]
        reps[p], elims = quotient_representatives(kernel, bounds)
        margins += [el.min_margin(cat.cutoff) for el in elims]
    return reps, [g for g in margins if g is not None]


@pytest.mark.parametrize("name", ["cl2", "pair_sum", "energy_clifford(2)",
                                  "padded_cl2"])
def test_seeded_chain_basis_matches_a_fresh_quotient(name):
    # energy_clifford(2) pivots at valuation 2, so its margin is not the
    # cutoff; padded_cl2 has an arity-1 map, so its build window is N
    cat = cl2() if name == "cl2" else FIXTURES[name]()
    for n in (3, 4):
        dims = homology(cat, n, side="chains")
        reps, margins = fresh_chain_basis(cat, n)
        if dims.margin is not None:
            margins.append(dims.margin)
        want = dataclasses.replace(
            dims, representatives=reps,
            margin=min(margins) if margins else None,
            certified=dims.certified and all(g > 0 for g in margins))
        got = homology(cat, n, side="chains", want_basis=True)
        assert describe(got) == describe(want)


BOUND_FIXTURES = {
    "cl1": cl1,
    "cl1(beta=0)": lambda: cl1(beta=0),
    "cl1(beta=-3)": lambda: cl1(beta=-3),
    "cl2": cl2,
    "padded_cl2": lambda: with_zero_arity1(cl2()),
    "sphere(1)": lambda: sphere(1),
    "sphere(2)": sphere,
    "sphere(3)": lambda: sphere(3),
    "pair_sum": pair_sum,
    "acyclic_toy": acyclic_toy,
    "energy_clifford(1/2)": lambda: energy_clifford(Fraction(1, 2)),
    "energy_clifford(1)": lambda: energy_clifford(1),
    "energy_clifford(2)": lambda: energy_clifford(2),
    "energy_clifford(3)": lambda: energy_clifford(3),
    # pivots at valuation 7 against the cutoff 6: margin -1
    "energy_clifford(7, beta_cutoff=12)":
        lambda: energy_clifford(7, beta_cutoff=12),
    "deformed_circle": lambda: deformed_circle(),
    "circle_fiber(rho=1)": lambda: deformed_circle(1, deformed=False),
    "circle_fiber(rho=-1)": lambda: deformed_circle(-1, deformed=False),
    "circle_fiber(rho=2)": lambda: deformed_circle(2, deformed=False),
}


def elimination(elims):
    return [(el.pivot_keys, el.pivot_valuations, el.rows) for el in elims
            if el.rank]


@pytest.mark.parametrize("name", list(BOUND_FIXTURES))
def test_bounded_rank_count_matches_an_unbounded_reference(monkeypatch,
                                                          name):
    # the rank count stops each block at its d∘d = 0 bound; each parity's
    # full row list eliminated without a bound must install the same
    # pivots, at the same valuations, with the same pivot rows and prefix
    # ranks, and give the same report
    cat = BOUND_FIXTURES[name]()
    assert check_ainf(cat).passed
    bounded = hochschild.blocked_rank
    compared = Counter()

    def compare(rows, sources=None):
        elims, at = bounded(rows, sources)
        if sources is None:
            return elims, at
        for p in (0, 1):
            mine = [i for i, e in enumerate(sources) if parity(e) == p]
            ref, ref_at = bounded([rows[i] for i in mine])
            # a block of parity p pivots on keys of parity 1 - p
            got = [el for el in elims
                   if el.rank and parity(el.pivot_keys[0]) != p]
            assert elimination(got) == elimination(ref)
            where = {i: k for k, i in enumerate(mine)}
            assert [where[i] for i in at if i in where] == ref_at
        compared[side] += 1
        return elims, at

    for side in ("chains", "cochains"):
        for n in (2, 3, 4):
            if side == "chains":
                parity = lambda w: word_parity(cat, w)
            else:
                parity = {e: p for p in (0, 1)
                          for e in iter_elementaries(cat, n, parity=p)
                          }.__getitem__
            for want_basis in (False, True):
                monkeypatch.setattr(hochschild, "blocked_rank", compare)
                got = homology(cat, n, side=side, want_basis=want_basis)
                monkeypatch.setattr(hochschild, "blocked_rank",
                                    lambda rows, sources=None: bounded(rows))
                want = homology(cat, n, side=side, want_basis=want_basis)
                assert describe(got) == describe(want)
    assert compared == {"chains": 6, "cochains": 6}


# -- the indexed differential against a scan of every structure map --------

def scan_every_op_differential(phi):
    """The cochain differential written directly: every structure map entry
    is scanned on each call, and each term is formed before the window
    drops it.  The reference for ``cochain_differential``."""
    cat = phi.cat
    out = HCochain(cat, phi.parity + 1, phi.max_length,
                   truncated=phi.truncated)
    rphi = reduced(phi.parity)

    def prefix(chain, args):
        pref = [0]
        for k, a in enumerate(args):
            p = cat.hom_space(chain[k], chain[k + 1]).parity(a)
            pref.append((pref[-1] + reduced(p)) & 1)
        return pref

    def signed(x, sgn):
        return x if sgn > 0 else -x

    by_output = {}
    for (chain, args), outs in phi.table.items():
        for o, c in outs.items():
            by_output.setdefault((chain[0], chain[-1], o), []).append(
                (chain, args, c))
    for chainM, mop in cat.ops.items():
        a = len(chainM) - 1
        if a == 0:
            continue
        for argsM, outsM in mop.table.items():
            pref = prefix(chainM, argsM)
            for i in range(a):
                sgn = sign_of(rphi * pref[i])
                for chainP, argsP, c in by_output.get(
                        (chainM[i], chainM[i + 1], argsM[i]), ()):
                    new_chain = chainM[:i + 1] + chainP[1:] + chainM[i + 2:]
                    new_args = argsM[:i] + argsP + argsM[i + 1:]
                    for o, v in outsM.items():
                        out.add(new_chain, new_args, o, signed(c * v, sgn))
    for (chainP, argsP), outsP in phi.table.items():
        pref = prefix(chainP, argsP)
        for i in range(len(argsP)):
            sgn = sign_of(phi.parity + pref[i])
            for chainM, mop in cat.ops.items():
                if len(chainM) == 1 or chainM[0] != chainP[i] \
                        or chainM[-1] != chainP[i + 1]:
                    continue
                for argsM, outsM in mop.table.items():
                    v = outsM.get(argsP[i])
                    if v is None:
                        continue
                    new_chain = chainP[:i + 1] + chainM[1:] + chainP[i + 2:]
                    new_args = argsP[:i] + argsM + argsP[i + 1:]
                    for o, w in outsP.items():
                        out.add(new_chain, new_args, o, signed(v * w, sgn))
    return out


def deformed_circle(rho=1, deformed=True):
    # the circle fiber at local system rho, deformed by b = T^(1/2) x (by
    # b = 0 unless ``deformed``), curvature dropped: its structure maps
    # carry half-integer T-exponents and an arity-1 map
    alg = circle_fiber_algebra(Q, E, (Fraction(1, 2), Fraction(1, 2)))
    b = {"x": NovikovScalar.monomial(Q, E, Fraction(1, 2))} if deformed \
        else {}
    cat, _ = deform_by_mc(alg, (Fraction(rho),), b, max_arity=4)
    ops = {chain: m for chain, m in cat.ops.items() if len(chain) > 1}
    return AInfCategory(cat.field, cat.cutoff, cat.objects, cat.hom, ops,
                        units=cat.units, name="deformed-circle")


def cochain_terms(phi):
    return {(chain, args, o): (format_scalar(c), c.cutoff)
            for (chain, args), outs in phi.table.items()
            for o, c in outs.items()}


@pytest.mark.parametrize("name", ["cl1", "cl2", "sphere", "padded_cl1",
                                  "pair_sum", "deformed_circle"])
def test_indexed_differential_matches_scan_of_every_op(name):
    make = {"cl2": cl2, "deformed_circle": deformed_circle}.get(name) \
        or FIXTURES[name]
    cat = make()
    index = hochschild._structure_index(cat)
    rng = random.Random(11)
    seen = Counter()
    for window in (2, 3, 4):
        for parity in (0, 1):
            phi = random_cochain(cat, parity, window, rng, density=0.3)
            want = scan_every_op_differential(phi)
            seen["nonzero"] += bool(want.table)
            seen["truncated"] += want.truncated
            for got in (cochain_differential(phi),
                        cochain_differential(phi, index)):
                assert cochain_terms(got) == cochain_terms(want)
                assert (got.parity, got.max_length) == \
                    (want.parity, want.max_length)
                # a term dropped by the window always marks the result
                assert got.truncated or not want.truncated
    assert seen["nonzero"] and seen["truncated"]


def count_products(monkeypatch):
    calls = Counter()
    real_mul = NovikovScalar.__mul__

    def mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(NovikovScalar, "__mul__", mul)
    return calls


def test_cochain_homology_forms_only_in_window_products(monkeypatch):
    # forming every term before the window dropped it, and reindexing the
    # structure maps per column, took 9,466 products on this call; a unit
    # product per term and the pivots' self-cancelling products 4,206
    cat = cl2()
    calls = count_products(monkeypatch)
    assert homology(cat, 4, side="cochains").dims == {0: 1, 1: 0}
    assert calls["mul"] <= 1998


def test_chain_homology_forms_no_pivot_self_products(monkeypatch):
    # multiplying out each pivot row's own unit entry took 2,181 products
    cat = cl2()
    calls = count_products(monkeypatch)
    assert homology(cat, 4, side="chains").dims == {0: 1, 1: 0}
    assert calls["mul"] <= 1377


def test_integral_input_keeps_int_cutoffs_margins_and_energies():
    cat = cl2()
    assert type(cat.cutoff) is int
    assert type(homology(cat, 4).margin) is int
    pot = build_toric_potential(MomentPolytope(
        [(1, 0), (0, 1), (-1, 0), (-1, -1)], [0, 0, 2, 1])).potential
    assert [e for e, _, _ in pot.terms()] == [0, 0, 1, 2]
    assert all(type(e) is int for e, _, _ in pot.terms())
