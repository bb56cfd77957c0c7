"""Verified small fixtures: Clifford algebras, spheres, fiber algebras.

Every builder returns data already in the conventions of the category layer:
products carry the orientation sign (-1)^{|x||y|+|x|} relative to the
underlying associative product, pairings carry the same sign over the plain
integral, and all parities derive from integer degrees.
"""

from __future__ import annotations

import itertools

from .ainfinity import AInfCategory, DiskClass, EnergyGradedAlgebra
from .errors import FixtureError, StructureError
from .graded import GradedSpace, MultilinearMap, sign_of
from .novikov import NovikovScalar, _exact

__all__ = [
    "clifford_words",
    "word_label",
    "clifford_product",
    "clifford_model",
    "sphere_model",
    "point_category",
    "lambda_pair_algebra",
    "summand_category",
    "direct_sum_category",
    "eq42_disk",
    "circle_fiber_algebra",
]


# -- Clifford algebra ------------------------------------------------------


def clifford_words(n: int):
    """All subsets of {1..n} as sorted tuples, by length then order."""
    out = []
    for r in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), r))
    return out


def word_label(word) -> str:
    return "1" if not word else "e" + "".join(str(i) for i in word)


def _mul_word_generator(field, q, word, i):
    """Right-multiply a sorted word by one generator."""
    if not word:
        return {(i,): field.one}
    j = word[-1]
    head = word[:-1]
    if j < i:
        return {word + (i,): field.one}
    out = {}
    if j == i:
        qii = q[i - 1][i - 1]
        if not field.is_zero(qii):
            out[head] = qii
        return out
    # j > i: move the generator left through e_j
    qij = q[i - 1][j - 1]
    two_qij = qij + qij
    if not field.is_zero(two_qij):
        out[head] = two_qij
    for w, c in _mul_word_generator(field, q, head, i).items():
        for w2, c2 in _mul_word_generator(field, q, w, j).items():
            cc = c * c2
            prev = out.get(w2)
            tot = -cc if prev is None else prev - cc
            if field.is_zero(tot):
                out.pop(w2, None)
            else:
                out[w2] = tot
    return out


def clifford_product(field, q, wa, wb):
    """Product of two basis words, e_i e_j + e_j e_i = 2 q_ij."""
    acc = {wa: field.one}
    for g in wb:
        nxt: dict = {}
        for w, c in acc.items():
            for w2, c2 in _mul_word_generator(field, q, w, g).items():
                cc = c * c2
                prev = nxt.get(w2)
                tot = cc if prev is None else prev + cc
                if field.is_zero(tot):
                    nxt.pop(w2, None)
                else:
                    nxt[w2] = tot
        acc = nxt
    return acc


def _clifford_space(n):
    words = clifford_words(n)
    labels = tuple(word_label(w) for w in words)
    degrees = tuple(len(w) for w in words)
    parities = tuple(d & 1 for d in degrees)
    return words, GradedSpace(labels, parities, degrees)


def clifford_model(field, cutoff, q, name="clifford", object_name="T"):
    """One object whose endomorphisms are the Clifford algebra of q.

    ``q`` is the symmetric matrix of the quadratic form over the field.
    The single operation is the product with the orientation sign; the
    pairing integrates the top exterior word.
    """
    n = len(q)
    for row in q:
        if len(row) != n:
            raise FixtureError("quadratic form matrix must be square")
    for i in range(n):
        for j in range(n):
            if q[i][j] != q[j][i]:
                raise FixtureError("quadratic form matrix must be symmetric")
    words, sp = _clifford_space(n)
    cutoff = _exact(cutoff)
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    for wa in words:
        for wb in words:
            sgn = sign_of((len(wa) & 1) * (len(wb) & 1) + (len(wa) & 1))
            for w, c in clifford_product(field, q, wa, wb).items():
                x = NovikovScalar.constant(field, cutoff, c)
                if sgn < 0:
                    x = -x
                if not x.is_zero():
                    m2.add_entry(
                        (word_label(wa), word_label(wb)), word_label(w), x
                    )
    # the pairing integrates the product itself: coefficient of the top
    # word in a*b, with the same orientation sign as the operation.  For a
    # diagonal form this is the usual top-degree integral of the wedge.
    top = tuple(range(1, n + 1))
    pairing = {}
    for wa in words:
        for wb in words:
            c = clifford_product(field, q, wa, wb).get(top)
            if c is None or field.is_zero(c):
                continue
            e = (len(wa) & 1) * (len(wb) & 1) + (len(wa) & 1)
            x = NovikovScalar.constant(field, cutoff, c)
            if sign_of(e) < 0:
                x = -x
            pairing[(word_label(wa), word_label(wb))] = x
    one = NovikovScalar.one(field, cutoff)
    return AInfCategory(
        field,
        cutoff,
        (object_name,),
        {(object_name, object_name): sp},
        {(object_name,) * 3: m2},
        units={object_name: {"1": one}},
        pairing={(object_name, object_name): pairing},
        cyclic_degree=n,
        name=name,
    )


# -- spheres and split tori ------------------------------------------------


def sphere_model(field, cutoff, beta, dim, name="sphere", object_name="S"):
    """Two classes 1, p with p*p = beta; beta is a Novikov scalar."""
    cutoff = _exact(cutoff)
    if not isinstance(beta, NovikovScalar):
        beta = NovikovScalar.constant(field, cutoff, field.coerce(beta))
    p_par = dim & 1
    sp = GradedSpace(("1", "p"), (0, p_par), (0, dim))
    one = NovikovScalar.one(field, cutoff)
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("1", "1"), "1", one)
    m2.add_entry(("1", "p"), "p", one)
    m2.add_entry(("p", "1"), "p", -one if p_par else one)
    # the orientation sign is +1 for p odd as well: (-1)^{1*1+1}
    if not beta.is_zero():
        m2.add_entry(("p", "p"), "1", beta)
    pairing = {("1", "p"): one, ("p", "1"): -one if p_par else one}
    return AInfCategory(
        field,
        cutoff,
        (object_name,),
        {(object_name, object_name): sp},
        {(object_name,) * 3: m2},
        units={object_name: {"1": one}},
        pairing={(object_name, object_name): pairing},
        cyclic_degree=dim,
        name=name,
    )


def point_category(field, cutoff, object_name="pt", name="point"):
    """One object, one even morphism, trivial product: Clifford of rank 0."""
    return clifford_model(field, cutoff, [], object_name=object_name,
                          name=name)


def lambda_pair_algebra(field, cutoff, object_name="U", name="two-idempotents"):
    """One object whose endomorphism ring splits as two idempotent lines."""
    cutoff = _exact(cutoff)
    sp = GradedSpace(("u", "v"), (0, 0), (0, 0))
    one = NovikovScalar.one(field, cutoff)
    m2 = MultilinearMap((sp, sp), sp, parity=0)
    m2.add_entry(("u", "u"), "u", one)
    m2.add_entry(("v", "v"), "v", one)
    pairing = {("u", "u"): one, ("v", "v"): one}
    return AInfCategory(
        field,
        cutoff,
        (object_name,),
        {(object_name, object_name): sp},
        {(object_name,) * 3: m2},
        units={object_name: {"u": one, "v": one}},
        pairing={(object_name, object_name): pairing},
        cyclic_degree=0,
        name=name,
    )


def summand_category(field, cutoff, name="summand"):
    """A rank-two object and the image of one of its idempotents.

    The big object U carries two orthogonal idempotents u, v; the small
    object K is the summand cut out by u, so both comparison homs are one
    line and the two composites are u and the unit of K.  Everything is
    even and strictly associative; the pairing is the trace form.
    """
    cutoff = _exact(cutoff)
    one = NovikovScalar.one(field, cutoff)
    end_u = GradedSpace(("u", "v"), (0, 0), (0, 0))
    end_k = GradedSpace(("k",), (0,), (0,))
    down = GradedSpace(("a",), (0,), (0,))   # Hom(U, K)
    up = GradedSpace(("b",), (0,), (0,))     # Hom(K, U)
    hom = {
        ("U", "U"): end_u,
        ("K", "K"): end_k,
        ("U", "K"): down,
        ("K", "U"): up,
    }
    # m2(x, y) is the composite "y after x"; only u-side composites survive
    tables = {
        ("U", "U", "U"): [(("u", "u"), "u"), (("v", "v"), "v")],
        ("U", "U", "K"): [(("u", "a"), "a")],
        ("U", "K", "K"): [(("a", "k"), "a")],
        ("U", "K", "U"): [(("a", "b"), "u")],
        ("K", "U", "U"): [(("b", "u"), "b")],
        ("K", "U", "K"): [(("b", "a"), "k")],
        ("K", "K", "U"): [(("k", "b"), "b")],
        ("K", "K", "K"): [(("k", "k"), "k")],
    }
    ops = {}
    for chain, entries in tables.items():
        m2 = MultilinearMap(
            (hom[(chain[0], chain[1])], hom[(chain[1], chain[2])]),
            hom[(chain[0], chain[2])],
            parity=0,
        )
        for args, out in entries:
            m2.add_entry(args, out, one)
        ops[chain] = m2
    pairing = {
        ("U", "U"): {("u", "u"): one, ("v", "v"): one},
        ("K", "K"): {("k", "k"): one},
        ("U", "K"): {("a", "b"): one},
        ("K", "U"): {("b", "a"): one},
    }
    return AInfCategory(
        field,
        cutoff,
        ("U", "K"),
        hom,
        ops,
        units={"U": {"u": one, "v": one}, "K": {"k": one}},
        pairing=pairing,
        cyclic_degree=0,
        name=name,
    )


def direct_sum_category(a: AInfCategory, b: AInfCategory, name="direct-sum"):
    """Disjoint union with zero morphisms across the summands."""
    if a.field != b.field or a.cutoff != b.cutoff:
        raise StructureError("summands live over different scalars")
    if a.cyclic_degree != b.cyclic_degree:
        raise StructureError("summands have different pairing degrees")
    objects = a.objects + b.objects
    hom = {}
    hom.update(a.hom)
    hom.update(b.hom)
    ops = {}
    ops.update(a.ops)
    ops.update(b.ops)
    units = {}
    units.update(a.units)
    units.update(b.units)
    pairing = {}
    pairing.update(a.pairing)
    pairing.update(b.pairing)
    return AInfCategory(
        a.field, a.cutoff, objects, hom, ops,
        units=units, pairing=pairing,
        cyclic_degree=a.cyclic_degree, name=name,
    )


# -- energy-graded fixtures ------------------------------------------------


def eq42_disk(field, energy, boundary, n_beta, odd_labels, s_max):
    """Disk-class tables from the symmetric boundary-pairing formula.

    The arity-s table on odd generators e^{i_1}, ..., e^{i_s} has the single
    output n_beta * prod_k (boundary . i_k) / s! on the unit; all slots range
    over the declared odd labels.
    """
    ops: dict = {}
    pairings = {label: field.coerce(d) for label, d in zip(odd_labels, boundary)}
    for s in range(s_max + 1):
        table = {}
        fact = 1
        for k in range(2, s + 1):
            fact *= k
        inv_fact = field.invert(field.coerce(fact))
        for args in itertools.product(odd_labels, repeat=s):
            c = field.coerce(n_beta) * inv_fact
            for a in args:
                c = c * pairings[a]
            if not field.is_zero(c):
                table[args] = {"1": c}
        if table:
            ops[s] = table
    return DiskClass(
        energy=_exact(energy),
        maslov=2,
        boundary=tuple(boundary),
        ops=ops,
    )


def circle_fiber_algebra(field, cutoff, energies, s_max=12,
                         name="circle-fiber"):
    """Circle cohomology with two opposite boundary classes.

    ``energies`` are the two disk areas; boundaries are +1 and -1 in the rank
    one loop lattice, and each class counts one disk (n_beta = 1).
    Complete: every operation slot is pinned.
    """
    sp = GradedSpace(("1", "x"), (0, 1), (0, 1))
    cup = {
        ("1", "1"): {"1": field.one},
        ("1", "x"): {"x": field.one},
        ("x", "1"): {"x": field.one},
        ("x", "x"): {},
    }
    integral = {("1", "x"): field.one, ("x", "1"): field.one}
    disks = [
        eq42_disk(field, energies[0], (1,), 1, ("x",), s_max),
        eq42_disk(field, energies[1], (-1,), 1, ("x",), s_max),
    ]
    return EnergyGradedAlgebra(
        field, cutoff, sp, "1", cup, integral, disks,
        dimension=1, loop_rank=1, name=name,
    )
