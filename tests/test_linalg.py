import random
from fractions import Fraction

import pytest

from ainfbench.linalg import (
    AugKey,
    Eliminator,
    blocked_rank,
    inverse,
    kernel_coefficients,
    matrix_rank,
    partition_rows,
    quotient_representatives,
    solve_combination,
)
from ainfbench.novikov import (
    NovikovScalar,
    Rationals,
    format_scalar,
    parse_scalar,
)

E = 8
Q = Rationals()


def sc(text):
    return parse_scalar(text, Q, E)


def vec(**kw):
    return {k: sc(v) for k, v in kw.items()}


def test_rank_of_identity_like():
    rows = [vec(a="1", b="2"), vec(b="1"), vec(a="3", b="4")]
    elim = matrix_rank(rows)
    assert elim.rank == 2
    assert elim.pivot_valuations == [0, 0]
    assert elim.min_margin(E) == E


def test_rank_detects_dependence_with_valuations():
    # third row is T * first + second
    r1 = vec(a="1", b="T")
    r2 = vec(b="1", c="T^2")
    r3 = vec(a="T", b="T^2 + 1", c="T^2")
    assert matrix_rank([r1, r2, r3]).rank == 2


def test_pivot_prefers_low_valuation():
    elim = Eliminator()
    key, _ = elim.insert(vec(a="T^3", b="T"))
    assert key == "b"
    assert elim.pivot_valuations == [Fraction(1)]
    assert elim.min_margin(E) == 7


def test_certified_refuses_a_pivot_at_margin_zero():
    # a pivot of valuation 2 is zero to cutoff 2: margin 0 certifies nothing
    elim = Eliminator()
    elim.insert(vec(a="T^2"))
    assert elim.min_margin(2) == 0
    assert not elim.certified(2)
    assert elim.certified(3)


def test_reduce_returns_residual_without_install():
    elim = Eliminator()
    elim.insert(vec(a="1", b="1"))
    res = elim.reduce(vec(a="2", b="2", c="5"))
    assert set(res) == {"c"}
    assert res["c"] == sc("5")
    assert elim.rank == 1


def test_solve_combination():
    v1 = vec(a="1", b="2")
    v2 = vec(b="1", c="T")
    target = vec(a="3", b="7", c="T")
    coeffs = solve_combination([v1, v2], target, Q, E)
    assert coeffs is not None
    assert coeffs[0] == sc("3")
    assert coeffs[1] == sc("1")
    assert solve_combination([v1, v2], vec(d="1"), Q, E) is None


def test_solve_combination_with_valuation_shift():
    v1 = vec(a="T")
    target = vec(a="T^3")
    coeffs = solve_combination([v1], target, Q, E)
    assert coeffs[0] == parse_scalar("T^2", Q, coeffs[0].cutoff)


def test_kernel_coefficients_exact_relation():
    v1 = vec(a="1", b="1")
    v2 = vec(a="2", b="2")
    v3 = vec(a="1")
    vectors = [v1, v2, v3]
    rels = kernel_coefficients(vectors, Q, E)
    assert len(rels) == 1
    c = rels[0]
    # relation c0*v1 + c1*v2 + c2*v3 = 0 with c1 = 1 by construction
    assert c[1] == NovikovScalar.one(Q, c[1].cutoff)
    total = {}
    for i, coeff in c.items():
        for k, x in vectors[i].items():
            cur = total.get(k)
            y = coeff * x
            total[k] = y if cur is None else cur + y
    assert all(x.is_zero() for x in total.values())


def test_kernel_random_matrix_rank_nullity(seed=3):
    rng = random.Random(seed)
    cols = ["a", "b", "c", "d"]
    vectors = []
    for _ in range(6):
        vectors.append(
            {
                k: sc(str(rng.randint(-3, 3)))
                for k in cols
                if rng.random() < 0.8
            }
        )
    vectors = [{k: v for k, v in vv.items() if not v.is_zero()} for vv in vectors]
    rels = kernel_coefficients(vectors, Q, E)
    r = matrix_rank([dict(v) for v in vectors]).rank
    assert len(rels) == len(vectors) - r
    for c in rels:
        total = {}
        for i, coeff in c.items():
            for k, x in vectors[i].items():
                cur = total.get(k)
                y = coeff * x
                total[k] = y if cur is None else cur + y
        assert all(x.is_zero() for x in total.values())


def test_quotient_representatives():
    dens = [vec(a="1", b="1")]
    nums = [vec(a="1"), vec(b="-1"), vec(a="2", b="2")]
    reps, elims = quotient_representatives(nums, dens)
    # modulo (a+b): a and -b agree, a+b dies; one survivor
    assert len(reps) == 1
    assert sum(el.rank for el in elims) == 2


def test_augkey_never_pivots():
    elim = Eliminator()
    key, res = elim.insert({AugKey(0): sc("1")})
    assert key is None
    assert res[AugKey(0)] == sc("1")
    assert elim.rank == 0


def _columns(matrix):
    """The columns of a dense square matrix as sparse vectors over rows."""
    n = len(matrix)
    return [{i: matrix[i][j] for i in range(n)} for j in range(n)]


def test_dense_solve_roundtrip():
    a = [[sc("2"), sc("1")], [sc("1"), sc("1 + T")]]
    x = [sc("3"), sc("T^2")]
    b = {
        0: a[0][0] * x[0] + a[0][1] * x[1],
        1: a[1][0] * x[0] + a[1][1] * x[1],
    }
    got = solve_combination(_columns(a), b, Q, E)
    assert got[0] == x[0].truncate(got[0].cutoff)
    assert got[1] == x[1].truncate(got[1].cutoff)


def test_dense_solve_needs_valuation_pivoting():
    # naive first-column pivot would invert T^4 and lose most precision
    a = [[sc("T^4"), sc("1")], [sc("1"), sc("0")]]
    got = solve_combination(_columns(a), {0: sc("1")}, Q, E)
    assert got[0].is_zero()
    assert got[1] == sc("1").truncate(got[1].cutoff)
    assert got[1].cutoff == E


def test_dense_solve_singular():
    a = [[sc("1"), sc("1")], [sc("2"), sc("2")]]
    assert solve_combination(_columns(a), {0: sc("1"), 1: sc("1")}, Q, E) \
        is None


def test_dense_inverse():
    a = [[sc("1"), sc("T")], [sc("0"), sc("1")]]
    one = NovikovScalar.one(Q, E)
    inv = [solve_combination(_columns(a), {i: one}, Q, E) for i in range(2)]
    # inv[i] is column i of the inverse
    assert inv[1][0] == sc("-T").truncate(inv[1][0].cutoff)
    assert inv[1][1] == one.truncate(inv[1][1].cutoff)
    assert inv[0][1].is_zero()
    prod00 = a[0][0] * inv[0][0] + a[0][1] * inv[0][1]
    assert prod00 == NovikovScalar.one(Q, prod00.cutoff)


def _rows_at(cutoff, *entries):
    return [{j: parse_scalar(x, Q, cutoff) for j, x in enumerate(row)}
            for row in entries]


def test_inverse_rejects_a_matrix_singular_to_working_precision():
    # full rank, but the inverse has valuation -5: moving the zero entry
    # by 3 T^5, which cutoff 4 cannot see, makes the determinant vanish
    rows = _rows_at(4, ["T^3", "0"], ["3 - 2*T^2", "3*T^2"])
    assert matrix_rank(rows).rank == 2
    assert inverse(rows, [0, 1], Q, 4) is None


def test_inverse_rejects_a_triangular_matrix_with_a_singular_lift():
    # the inverse has the corner -T^-6: the zero moved by T^6 is singular
    rows = _rows_at(4, ["T^3", "1"], ["0", "T^3"])
    assert inverse(rows, [0, 1], Q, 4) is None


def test_inverse_rejects_a_residual_of_valuation_zero():
    # the inverse has the corner -T^-4, so the residual of entries known to
    # O(T^4) is O(T^0): a change at the cutoff can cancel the determinant
    rows = _rows_at(4, ["T^2", "1"], ["0", "T^2"])
    assert matrix_rank(rows).rank == 2
    assert inverse(rows, [0, 1], Q, 4) is None


def test_inverse_keeps_a_matrix_whose_every_lift_is_invertible():
    # the determinant T^6 lies past the cutoff, but the inverse only
    # reaches valuation -3, so every O(T^4) change stays invertible
    rows = _rows_at(4, ["T^3", "0"], ["0", "T^3"])
    inv = inverse(rows, [0, 1], Q, 4)
    assert format_scalar(inv[0][0]) == "T^-3" and inv[0][0].cutoff == -2
    assert inv[0][1].is_zero() and inv[1][0].is_zero()
    assert format_scalar(inv[1][1]) == "T^-3"


def test_inverse_recovers_what_elimination_drops():
    # the exact inverse of these rows starts -1/3 T^-2 at (0, 0); an
    # elimination at the entries' cutoff drops a truncated zero on the
    # way and claims 0 + O(T^4) there
    rows = _rows_at(4, ["3*T^3", "-3*T^3"], ["1 - T^(1/2)", "-T"])
    one = NovikovScalar.one(Q, 4)
    short = solve_combination(rows, {0: one}, Q, 4)[0]
    assert short.is_zero() and short.cutoff == 4
    inv = inverse(rows, [0, 1], Q, 4)
    assert format_scalar(inv[0][0]) == "-1/3*T^-2 - 1/3*T^(-3/2)"
    assert inv[0][0].cutoff == -1
    assert format_scalar(inv[1][0]) == "-1/3*T^-3"
    assert format_scalar(inv[1][1]) == "1 + T^(1/2)"


def test_elimination_cascading_reduction():
    # pivots installed out of order force the worklist path: reducing the
    # last row must cascade through pivots introduced by the subtraction
    rows = [
        vec(a="1", c="1"),
        vec(b="1", c="T"),
        vec(a="1", b="1", c="1 + T"),
    ]
    assert matrix_rank(rows).rank == 2


def test_partition_rows_by_column_support():
    rows = [vec(a="1", b="1"), vec(c="1"), vec(b="2"), vec(),
            vec(c="T", d="1")]
    groups = partition_rows(rows)
    supports = sorted(tuple(sorted({k for r in g for k in r}))
                      for g in groups)
    assert supports == [("a", "b"), ("c", "d")]
    # the empty row carries no rank and is dropped
    assert sum(len(g) for g in groups) == 4


def test_partition_rows_merges_chained_support():
    rows = [vec(a="1", b="1"), vec(b="1", c="1"), vec(c="1", d="1")]
    assert len(partition_rows(rows)) == 1


def test_blocked_rank_adds_up(seed=17):
    rng = random.Random(seed)
    rows = []
    for cols in (("a", "b"), ("c", "d", "e")):
        for _ in range(4):
            row = {k: sc(str(rng.randint(-3, 3))) for k in cols
                   if rng.random() < 0.8}
            rows.append({k: v for k, v in row.items() if not v.is_zero()})
    whole = matrix_rank([dict(r) for r in rows]).rank
    blocks, pivot_rows = blocked_rank([dict(r) for r in rows])
    assert len(blocks) >= 2
    assert sum(el.rank for el in blocks) == whole == len(pivot_rows)
    # every prefix's rank is read off the one elimination
    for k in range(len(rows) + 1):
        assert sum(1 for i in pivot_rows if i < k) == \
            matrix_rank([dict(r) for r in rows[:k]]).rank


def test_blocked_rank_marks_repeated_rows_apart():
    row = vec(a="1", b="2")
    blocks, pivot_rows = blocked_rank([row, vec(c="1"), row, vec(a="2")])
    assert pivot_rows == [0, 1, 3]
    assert [el.rank for el in blocks] == [2, 1]


# -- blocked class-basis eliminations against one unblocked elimination ----

def unblocked_kernel(vectors, field, cutoff):
    """Relations from a single Eliminator over every augmented vector."""
    elim = Eliminator()
    one = NovikovScalar.one(field, cutoff)
    out = []
    for i, v in enumerate(vectors):
        row = dict(v)
        row[AugKey(i)] = one
        key, res = elim.insert(row)
        if key is None:
            out.append({j: res[AugKey(j)] for j in range(len(vectors))
                        if AugKey(j) in res})
    return out


def unblocked_quotient(numerators, denominators):
    """Survivors from a single Eliminator fed every denominator first."""
    elim = Eliminator()
    for row in denominators:
        elim.insert(row)
    reps = []
    for row in numerators:
        key, res = elim.insert(dict(row))
        if key is not None:
            reps.append(res)
    return reps, elim


def texts(row):
    return [(k, format_scalar(c), c.cutoff) for k, c in row.items()]


def random_scalar(rng, t_adic):
    if not t_adic:
        return NovikovScalar.constant(Q, E, rng.randint(-2, 2))
    pairs = [(rng.randint(0, 3), rng.randint(-2, 2))
             for _ in range(rng.randint(1, 2))]
    return NovikovScalar.make(Q, E, pairs)


def random_blocked_rows(rng, nblocks, count, t_adic):
    """Rows supported inside one of ``nblocks`` column blocks, some empty;
    later rows are often combinations of earlier ones in their block."""
    rows, by_block = [], {}
    for _ in range(count):
        b = rng.randrange(nblocks)
        if rng.random() < 0.1:
            rows.append({})
            continue
        earlier = by_block.setdefault(b, [])
        row = {}
        if len(earlier) >= 2 and rng.random() < 0.4:
            for other in rng.sample(earlier, 2):
                c = random_scalar(rng, t_adic)
                for k, x in other.items():
                    row[k] = row[k] + c * x if k in row else c * x
        else:
            for j in range(4):
                if rng.random() < 0.6:
                    row[f"b{b}c{j}"] = random_scalar(rng, t_adic)
        row = {k: x for k, x in row.items() if not x.is_zero()}
        earlier.append(row)
        rows.append(row)
    return rows


def min_margin(elims):
    margins = [el.min_margin(E) for el in elims]
    margins = [m for m in margins if m is not None]
    return min(margins) if margins else E


@pytest.mark.parametrize("t_adic", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_blocked_kernel_matches_unblocked(seed, t_adic):
    rng = random.Random(seed)
    vectors = random_blocked_rows(rng, 4, 16, t_adic)
    got = kernel_coefficients(vectors, Q, E)
    want = unblocked_kernel(vectors, Q, E)
    assert [texts(r) for r in got] == [texts(r) for r in want]
    assert [max(r) for r in got] == sorted(max(r) for r in got)


@pytest.mark.parametrize("t_adic", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_blocked_quotient_matches_unblocked(seed, t_adic):
    rng = random.Random(100 + seed)
    # block 4 only ever holds denominators; numerators may be empty
    dens = random_blocked_rows(rng, 5, 14, t_adic)
    nums = random_blocked_rows(rng, 4, rng.choice([0, 3, 8]), t_adic)
    if nums and rng.random() < 0.5:
        nums.append(nums[0])
        dens.append(nums[-1])
    reps, elims = quotient_representatives(nums, dens)
    want, ref = unblocked_quotient(nums, dens)
    assert [texts(r) for r in reps] == [texts(r) for r in want]
    assert min_margin(elims) >= min_margin([ref])
    held = {k for row in nums for k in row}
    for el in elims:
        assert any(k in held for row in el.rows for k in row)
