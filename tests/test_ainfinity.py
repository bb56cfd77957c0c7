import itertools
import random
from fractions import Fraction

import pytest

from ainfbench import ainfinity as ainf
from ainfbench.ainfinity import (
    AInfCategory,
    EnergyGradedAlgebra,
    _gap_inserted_op,
    _rho_tables,
    check_ainf,
    check_cyclic,
    check_energy_cyclic,
    check_unital,
    cohomology_category,
    deform_by_mc,
    divisor_element,
    mc_family_category,
)
from ainfbench.errors import InsufficientCutoff, NotRepresentable, StructureError
from ainfbench.graded import GradedSpace, MultilinearMap
from ainfbench.models import (
    circle_fiber_algebra,
    clifford_model,
    clifford_product,
    clifford_words,
    direct_sum_category,
    eq42_disk,
    lambda_pair_algebra,
    point_category,
    sphere_model,
    summand_category,
    torus_surface_algebra,
    word_label,
)
from ainfbench.novikov import (
    NovikovScalar,
    Rationals,
    format_scalar,
    parse_scalar,
)

E = 6
Q = Rationals()


def sc(text):
    return parse_scalar(text, Q, E)


def qmat(*rows):
    return [[Fraction(x) for x in row] for row in rows]


def exp_series(x):
    """Truncated exponential of a positive-valuation scalar.

    Clamps every term back to x's own cutoff: products against positive
    valuation factors raise the carried cutoff, so an unclamped term would
    never become zero-to-cutoff and the loop would not terminate.
    """
    cap = x.cutoff
    total = NovikovScalar.one(x.field, cap)
    term = total
    k = 0
    while True:
        k += 1
        term = (term * x).truncate(cap) * NovikovScalar.constant(x.field, cap, Fraction(1, k))
        if term.is_zero():
            return total
        total = total + term


# -- Clifford fixtures -----------------------------------------------------


def test_clifford_product_relations():
    q = qmat([2, 1], [1, -3])
    # e_i e_j + e_j e_i = 2 q_ij, e_i^2 = q_ii
    assert clifford_product(Q, q, (1,), (1,)) == {(): Fraction(2)}
    assert clifford_product(Q, q, (2,), (2,)) == {(): Fraction(-3)}
    ab = clifford_product(Q, q, (1,), (2,))
    ba = clifford_product(Q, q, (2,), (1,))
    total = dict(ab)
    for w, c in ba.items():
        total[w] = total.get(w, Fraction(0)) + c
    total = {w: c for w, c in total.items() if c}
    assert total == {(): Fraction(2)}


def test_clifford_product_associative_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        q = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = Fraction(rng.randint(-3, 3))
        words = clifford_words(n)
        for _ in range(8):
            a, b, c = (words[rng.randrange(len(words))] for _ in range(3))
            left = {}
            for w, x in clifford_product(Q, q, a, b).items():
                for w2, x2 in clifford_product(Q, q, w, c).items():
                    left[w2] = left.get(w2, Fraction(0)) + x * x2
            right = {}
            for w, x in clifford_product(Q, q, b, c).items():
                for w2, x2 in clifford_product(Q, q, a, w).items():
                    right[w2] = right.get(w2, Fraction(0)) + x * x2
            left = {w: v for w, v in left.items() if v}
            right = {w: v for w, v in right.items() if v}
            assert left == right


@pytest.mark.parametrize(
    "q",
    [
        [[Fraction(3)]],
        qmat([2, 1], [1, -1]),
        qmat([1, 2, 0], [2, -1, 1], [0, 1, 2]),
    ],
)
def test_clifford_model_passes_all_checks(q):
    cat = clifford_model(Q, E, q)
    assert check_ainf(cat).passed
    assert check_unital(cat).passed
    assert check_cyclic(cat).passed


def test_zero_category_passes():
    cat = AInfCategory(Q, E, (), {}, {})
    assert check_ainf(cat).passed
    empty = AInfCategory(Q, E, ("X",), {("X", "X"): GradedSpace((), ())}, {})
    assert check_ainf(empty).passed
    assert empty.is_flat()


def test_mutated_unit_row_located():
    cat = clifford_model(Q, E, [[Fraction(2)]])
    m2 = cat.ops[("T", "T", "T")]
    one = NovikovScalar.one(Q, Fraction(E))
    # flip the unit square so relation tuples through a unit insertion break
    m2.table[("1", "1")] = {"1": -one}
    report = check_ainf(cat)
    assert not report.passed
    tuples = {v.args for v in report.violations}
    assert ("1", "e1", "e1") in tuples
    assert all("1" in args for args in tuples)


def test_unit_scaled_fails_unitality():
    cat = clifford_model(Q, E, [[Fraction(1)]])
    cat.units["T"] = {"1": sc("2")}
    report = check_unital(cat)
    assert not report.passed


def test_degenerate_pairing_detected():
    cat = sphere_model(Q, E, sc("T"), 2)
    cat.pairing[("S", "S")] = {("1", "p"): sc("1")}
    # ("p","1") entry removed: Gram matrix singular
    report = check_cyclic(cat)
    assert any(v.kind == "gram" for v in report.violations)


def test_pairing_singular_to_working_precision_detected():
    # Gram rows (T^3, 0), (3 - 2T^2, 3T^2): full rank at cutoff 4, but an
    # O(T^4) change of the zero entry makes the pairing singular
    cat = sphere_model(Q, 4, 0, 2)
    cat.pairing[("S", "S")] = {
        ("1", "1"): parse_scalar("T^3", Q, 4),
        ("p", "1"): parse_scalar("3 - 2*T^2", Q, 4),
        ("p", "p"): parse_scalar("3*T^2", Q, 4)}
    report = check_cyclic(cat)
    assert ("gram", ("S", "S"), (), "singular Gram matrix at ('S', 'S')") in [
        (v.kind, v.chain, v.args, v.detail) for v in report.violations]


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_model_checks(dim):
    cat = sphere_model(Q, E, sc("T^2"), dim)
    assert check_ainf(cat).passed
    assert check_unital(cat).passed
    assert check_cyclic(cat).passed


def test_direct_sum_and_point():
    a = sphere_model(Q, E, sc("T"), 2, object_name="S")
    b = sphere_model(Q, E, sc("3*T^2"), 2, object_name="R")
    cat = direct_sum_category(a, b)
    assert cat.hom_space("S", "R").dim == 0
    assert check_ainf(cat).passed
    assert check_unital(cat).passed
    assert check_cyclic(cat).passed
    pt = point_category(Q, E, object_name="a")
    with pytest.raises(StructureError):
        direct_sum_category(pt, point_category(Q, E, object_name="a"))
    with pytest.raises(StructureError):
        direct_sum_category(pt, a)  # pairing degrees differ


def test_lambda_pair_algebra_checks():
    cat = lambda_pair_algebra(Q, E)
    assert check_ainf(cat).passed
    assert check_unital(cat).passed
    assert check_cyclic(cat).passed


# -- cohomology ------------------------------------------------------------


def test_cohomology_of_clifford_is_plain_clifford():
    q = qmat([2, 1], [1, -1])
    cat = clifford_model(Q, E, q)
    h = cohomology_category(cat)
    reps = h.classes[("T", "T")]
    assert len(reps) == 4
    label_of = {}
    for idx, rep in enumerate(reps):
        assert len(rep) == 1
        label_of[idx] = next(iter(rep))
    words = {word_label(w): w for w in clifford_words(2)}
    for i, f in enumerate(reps):
        for j, g in enumerate(reps):
            # ring sign undoes the orientation sign: plain Clifford product
            got = h.compose("T", "T", "T", f, g)
            want = clifford_product(Q, q, words[label_of[i]], words[label_of[j]])
            got_simple = {k: v for k, v in got.items() if not v.is_zero()}
            want_scaled = {
                word_label(w): NovikovScalar.constant(Q, E, c)
                for w, c in want.items()
            }
            assert set(got_simple) == set(want_scaled)
            for k in got_simple:
                assert (got_simple[k] - want_scaled[k]).is_zero()


def test_cohomology_sphere_ring():
    beta = sc("T^2")
    cat = sphere_model(Q, E, beta, 2)
    h = cohomology_category(cat)
    assert h.dim("S", "S") == 2
    idx = {next(iter(rep)): i for i, rep in enumerate(h.classes[("S", "S")])}
    p_rep = h.classes[("S", "S")][idx["p"]]
    prod = h.compose("S", "S", "S", p_rep, p_rep)
    assert set(prod) == {"1"}
    assert (prod["1"] - beta).is_zero()
    # unit class has coefficient 1 on the unit representative
    uc = h.unit_class("S")
    assert (uc[idx["1"]] - sc("1")).is_zero()


def acyclic_toy(m1_coeff):
    sp = GradedSpace(("u", "x"), (0, 1), (0, 1))
    one = NovikovScalar.one(Q, Fraction(E))
    m1 = MultilinearMap((sp,), sp, parity=1)
    m1.add_entry(("x",), "u", m1_coeff)
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("u", "u"), "u", one)
    m2.add_entry(("u", "x"), "x", one)
    m2.add_entry(("x", "u"), "x", -one)
    return AInfCategory(
        Q, E, ("X",), {("X", "X"): sp},
        {("X", "X"): m1, ("X", "X", "X"): m2},
        units={"X": {"u": one}},
    )


def test_cohomology_acyclic_toy():
    cat = acyclic_toy(sc("T"))
    assert check_ainf(cat).passed
    assert check_unital(cat).passed
    h = cohomology_category(cat)
    assert h.dim("X", "X") == 0


def test_cohomology_insufficient_cutoff():
    # an entry carrying precision beyond the category's cutoff: its pivot
    # valuation 7 lies past the cutoff 6
    cat = acyclic_toy(NovikovScalar.monomial(Q, 12, 7))
    with pytest.raises(InsufficientCutoff):
        cohomology_category(cat)


def test_cohomology_needs_flat():
    sp = GradedSpace(("u",), (0,), (0,))
    m0 = MultilinearMap((), sp, parity=0)
    m0.add_entry((), "u", sc("T"))
    cat = AInfCategory(Q, E, ("X",), {("X", "X"): sp}, {("X",): m0})
    with pytest.raises(StructureError):
        cohomology_category(cat)


# -- Maurer-Cartan deformation ---------------------------------------------


def bare_circle():
    return circle_fiber_algebra(Q, E, (Fraction(1, 2), Fraction(1, 2)))


def test_deform_trivial_no_disks():
    alg = circle_fiber_algebra(Q, E, (Fraction(1, 2), Fraction(1, 2)))
    alg.disks = []
    cat, w = deform_by_mc(alg, (Fraction(1),), {})
    assert w.is_zero()
    assert cat.is_flat()
    assert check_ainf(cat).passed


def test_deform_potential_matches_series_oracle():
    alg = bare_circle()
    rho = (Fraction(2),)
    c = sc("2*T^(1/2)")
    cat, w = deform_by_mc(alg, rho, {"x": c})
    lam = sc("1") * NovikovScalar.monomial(Q, E, Fraction(1, 2))
    want = (
        sc("2") * lam * exp_series(c)
        + sc("1/2") * lam * exp_series(-c)
    )
    assert (w - want).is_zero()


def test_deformed_category_passes_checks():
    alg = bare_circle()
    cat, w = deform_by_mc(alg, (Fraction(1),), {"x": sc("T^(1/2)")})
    assert not w.is_zero()
    assert check_ainf(cat, max_arity=4).passed
    assert check_unital(cat, max_arity=4).passed
    assert check_cyclic(cat, max_arity=3).passed


def test_deform_rejects_bad_input():
    alg = bare_circle()
    with pytest.raises(StructureError):
        deform_by_mc(alg, (Fraction(1),), {"x": sc("1")})
    with pytest.raises(StructureError):
        deform_by_mc(alg, (Fraction(1),), {"1": sc("T")})


def test_curvature_and_derivative_identity():
    # m_1 of the odd generator equals the logarithmic derivative of W
    alg = bare_circle()
    rho = (Fraction(3),)
    c = sc("T^(1/2)")
    cat, w = deform_by_mc(alg, rho, {"x": c})
    lam = NovikovScalar.monomial(Q, E, Fraction(1, 2))
    want = sc("3") * lam * exp_series(c) - sc("1/3") * lam * exp_series(-c)
    got = cat.apply_vectors(("L", "L"), [{"x": sc("1")}])
    assert set(got) <= {"1"}
    assert (got.get("1", sc("0")) - want).is_zero()
    curv = cat.curvature("L")
    assert set(curv) <= {"1"}
    assert (curv.get("1", sc("0")) - w).is_zero()


def test_divisor_element_oracle_and_chern():
    alg = bare_circle()
    rho = (Fraction(1),)
    b = {"x": sc("2*T^(1/2)")}
    lam = NovikovScalar.monomial(Q, E, Fraction(1, 2))
    # termwise oracle: sum over classes of eta * rho * T^omega * exp(<d,b>)
    eta = (Fraction(5), Fraction(-2))
    got = divisor_element(alg, rho, b, eta)
    want = sc("5") * lam * exp_series(b["x"]) + sc("-2") * lam * exp_series(
        -b["x"]
    )
    assert set(got) <= {"1"}
    assert (got.get("1", sc("0")) - want).is_zero()
    # chern pairing (1, 1) returns W itself on the unit
    _, w = deform_by_mc(alg, rho, b)
    top = divisor_element(alg, rho, b, (Fraction(1), Fraction(1)))
    assert (top.get("1", sc("0")) - w).is_zero()
    zero = divisor_element(alg, rho, b, (Fraction(0), Fraction(0)))
    assert zero == {}


def test_mc_family_category():
    alg = bare_circle()
    rho = (Fraction(1),)
    c = sc("2*T^(1/2)")
    cat, wvals = mc_family_category(
        alg, rho, [{"x": c}, {"x": -c}, {"x": sc("T")}],
        names=("a", "b", "c"), max_arity=5,
    )
    # W is even in the coefficient: first two objects agree
    assert (wvals["a"] - wvals["b"]).is_zero()
    assert not (wvals["a"] - wvals["c"]).is_zero()
    assert cat.hom_space("a", "b").dim == 2
    assert cat.hom_space("a", "c").dim == 0
    assert check_ainf(cat, max_arity=4).passed
    assert check_unital(cat, max_arity=4).passed


def test_mc_family_build_multiplication_count(monkeypatch):
    # deterministic guard on the cost of gap insertion: enumerating every
    # choice of visible positions needs about 2.3M products for this
    # family, a left-to-right walk per table entry about 39k, one walk per
    # distinct argument prefix about 8.7k
    alg = bare_circle()
    rho = (Fraction(1),)
    c = sc("2*T^(1/2)")
    elements = [{"x": c}, {"x": -c}, {"x": sc("T")}]
    calls = 0
    mul = NovikovScalar.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(NovikovScalar, "__mul__", counting_mul)
    mc_family_category(alg, rho, elements, names=("a", "b", "c"), max_arity=5)
    assert 0 < calls < 10_000


DEFORMED_CIRCLE_GOLDEN = {
    ("L",): {(): {"1": "2*T^(1/2) + T^(3/2) + 1/12*T^(5/2) + 1/360*T^(7/2)"
                        " + 1/20160*T^(9/2) + 1/1814400*T^(11/2) + O(T^6)"}},
    ("L", "L"): {("x",): {"1": "2*T + 1/3*T^2 + 1/60*T^3 + 1/2520*T^4"
                                " + 1/181440*T^5 + O(T^6)"}},
    ("L", "L", "L"): {
        ("1", "1"): {"1": "1 + O(T^6)"},
        ("1", "x"): {"x": "1 + O(T^6)"},
        ("x", "1"): {"x": "-1 + O(T^6)"},
        ("x", "x"): {"1": "T^(1/2) + 1/2*T^(3/2) + 1/24*T^(5/2)"
                          " + 1/720*T^(7/2) + 1/40320*T^(9/2)"
                          " + 1/3628800*T^(11/2) + O(T^6)"},
    },
    ("L",) * 4: {("x",) * 3: {"1": "1/3*T + 1/18*T^2 + 1/360*T^3"
                                    " + 1/15120*T^4 + 1/1088640*T^5"
                                    " + O(T^(13/2))"}},
    ("L",) * 5: {("x",) * 4: {"1": "1/12*T^(1/2) + 1/24*T^(3/2)"
                                    " + 1/288*T^(5/2) + 1/8640*T^(7/2)"
                                    " + 1/483840*T^(9/2) + O(T^6)"}},
}


def test_deformed_circle_tables_golden():
    # every entry of the circle fiber deformed by b = T^(1/2) x at arity 4,
    # as text with its carried cutoff
    cat, w = deform_by_mc(bare_circle(), (Fraction(1),),
                          {"x": sc("T^(1/2)")}, max_arity=4)
    got = {
        chain: {args: {o: format_scalar(c, show_order=True)
                       for o, c in row.items()}
                for args, row in m.table.items()}
        for chain, m in cat.ops.items()
    }
    assert got == DEFORMED_CIRCLE_GOLDEN
    assert format_scalar(w, show_order=True) == (
        DEFORMED_CIRCLE_GOLDEN[("L",)][()]["1"])


def test_mc_builders_build_each_operation_once(monkeypatch):
    # one arity-0 operation per object gives both W and the curvature entry;
    # the family has W_a = W_b != W_c, so 3 + (1 + 4) + (1 + 8) chains
    runs = 0
    inner = ainf._gap_inserted_op

    def counting(*args):
        nonlocal runs
        runs += 1
        return inner(*args)

    monkeypatch.setattr(ainf, "_gap_inserted_op", counting)
    alg = bare_circle()
    c = sc("2*T^(1/2)")
    elements = [{"x": c}, {"x": -c}, {"x": sc("T")}]
    mc_family_category(alg, (Fraction(1),), elements, names=("a", "b", "c"),
                       max_arity=2)
    assert runs == 17
    runs = 0
    deform_by_mc(alg, (Fraction(1),), {"x": sc("T^(1/2)")}, max_arity=4)
    assert runs == 5


def test_mc_builders_reject_negative_arity():
    alg = bare_circle()
    b = {"x": sc("T")}
    with pytest.raises(StructureError, match="max_arity"):
        deform_by_mc(alg, (Fraction(1),), b, max_arity=-1)
    with pytest.raises(StructureError, match="max_arity"):
        mc_family_category(alg, (Fraction(1),), [b], max_arity=-1)


def test_mc_family_rejects_repeated_names():
    alg = bare_circle()
    with pytest.raises(StructureError, match="repeated object name"):
        mc_family_category(alg, (Fraction(1),), [{"x": sc("T")}, {}],
                           names=("a", "a"), max_arity=2)


def gap_insertion_reference(alg, tables, gap_elements, s):
    """Sum over every choice of s visible positions, one product per choice."""
    out: dict = {}
    for s_full, entries in tables.items():
        if s_full < s:
            continue
        for scale, table in entries:
            for args, row in table.items():
                for visible in itertools.combinations(range(s_full), s):
                    coeff = None
                    gap = 0
                    for p, label in enumerate(args):
                        if gap < s and visible[gap] == p:
                            gap += 1
                            continue
                        c = gap_elements[gap].get(label)
                        if c is None or c.is_zero():
                            break
                        coeff = c if coeff is None else coeff * c
                    else:
                        factor = scale if coeff is None else scale * coeff
                        dst = out.setdefault(tuple(args[p] for p in visible), {})
                        for o, x in row.items():
                            if not isinstance(x, NovikovScalar):
                                x = alg.constant(x)
                            y = factor * x
                            if not y.is_zero():
                                dst[o] = dst[o] + y if o in dst else y
    return {
        key: {o: (y.terms, y.cutoff) for o, y in row.items() if not y.is_zero()}
        for key, row in out.items()
        if any(not y.is_zero() for y in row.values())
    }


def assert_matches_reference(alg, tables, gap_elements, s):
    got = _gap_inserted_op(alg, tables, gap_elements, s)
    want = gap_insertion_reference(alg, tables, gap_elements, s)
    assert {
        key: {o: (y.terms, y.cutoff) for o, y in row.items()}
        for key, row in got.table.items()
    } == want
    return want


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_gap_insertion_matches_enumeration_on_torus(s):
    third, half = Fraction(1, 3), Fraction(1, 2)
    alg = torus_surface_algebra(
        Q, E, [(half, (1, 0), 1), (third, (0, 1), 2), (half, (-1, -1), 1)],
        s_max=6,
    )
    tables = _rho_tables(alg, (Fraction(2), Fraction(-3)))
    gaps = [
        {"x1": sc("T^(1/2)"), "x2": sc("2*T^(1/3) - T")},
        {"x1": sc("-3*T^(1/3)")},
        {"x2": sc("T^(1/4)"), "x1": sc("T + 1/2*T^(3/2)")},
        {"x1": sc("5*T^(2/3)"), "x2": sc("-T^(1/2)")},
    ][: s + 1]
    assert assert_matches_reference(alg, tables, gaps, s)
    assert assert_matches_reference(alg, tables, [gaps[0]] * (s + 1), s)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_gap_insertion_matches_enumeration_on_circle(s):
    alg = bare_circle()
    tables = _rho_tables(alg, (Fraction(2),))
    gaps = [
        {"x": sc("2*T^(1/2)")},
        {"x": sc("-T^(1/3) + T")},
        {},
        {"x": sc("3*T^(2/3)")},
    ]
    assert assert_matches_reference(alg, tables, gaps[: s + 1], s)
    assert assert_matches_reference(alg, tables, [gaps[0]] * (s + 1), s)


# add_entry drops an entry whose sum cancels, cutoff and all; the
# enumeration keeps the zero sum.  Where the disks' n = 3 rows cancel before
# the longer rows arrive, the op can carry O(T^(13/2)) and the enumeration
# O(T^6).  The same drop gives DEFORMED_CIRCLE_GOLDEN its O(T^(13/2)).
CANCELLED_CUTOFF = pytest.mark.xfail(
    strict=True, reason="add_entry forgets the cutoff of a cancelled sum")


@pytest.mark.parametrize("signs", [
    "+-", "-+", "++", "+-+", "-++", "+++", "+-+-",
    pytest.param("-+++", marks=CANCELLED_CUTOFF),
    pytest.param("+++-", marks=CANCELLED_CUTOFF),
])
def test_gap_insertion_matches_enumeration_with_cancelling_elements(signs):
    # the family's elements {x: c} and {x: -c} in the gaps, at the rho
    # where the two disks' arity-1 rows cancel: hidden sums over the shared
    # tuples ("x",) * n cancel to zero
    alg = bare_circle()
    tables = _rho_tables(alg, (Fraction(1),))
    c = sc("2*T^(1/2)")
    gaps = [{"x": c if sign == "+" else -c} for sign in signs]
    assert_matches_reference(alg, tables, gaps, len(signs) - 1)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_gap_insertion_matches_enumeration_on_mixed_lengths(s):
    # two disks of different lengths: sorted, the tuples run ("1", "1"),
    # ("1", "x"), ("x",), ("x", "1"), ("x", "x"), ...; the cup table's
    # share their prefixes with both disks' tuples, no gap element carries
    # "1", and only the first disk reaches the longest tuple
    alg = bare_circle()
    alg.disks = [alg.disks[0],
                 eq42_disk(Q, Fraction(1, 3), (-1,), 1, ("x",), 5)]
    tables = _rho_tables(alg, (Fraction(3),))
    assert max(tables) == 12 and 5 in tables and len(tables[6]) == 1
    gaps = [{"x": sc("T^(1/3)")}, {"x": sc("-T^(1/2) + 2*T")},
            {"x": sc("3*T^(1/2)")}, {"x": sc("T^(2/3)")}]
    assert assert_matches_reference(alg, tables, gaps[: s + 1], s)


def test_energy_cyclic_on_circle_fixture():
    alg = bare_circle()
    report = check_energy_cyclic(alg, max_arity=5)
    assert report.passed


@pytest.mark.parametrize("build", [
    lambda: AInfCategory(Q, 6.5, (), {}, {}),
    lambda: AInfCategory(Q, 6.0, (), {}, {}),
    lambda: EnergyGradedAlgebra(Q, 6.5, None, "1", None, None, (), 1, 1),
    lambda: clifford_model(Q, 6.5, [[1]]),
    lambda: sphere_model(Q, 6.5, 0, 2),
    lambda: lambda_pair_algebra(Q, 6.5),
    lambda: summand_category(Q, 6.5),
    lambda: eq42_disk(Q, 0.5, (), 1, (), 0),
], ids=["category", "integral-category", "algebra", "clifford", "sphere",
        "lambda-pair", "summand", "disk-energy"])
def test_float_cutoffs_and_energies_are_not_representable(build):
    with pytest.raises(NotRepresentable):
        build()
