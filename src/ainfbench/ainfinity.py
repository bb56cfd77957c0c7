"""Finite curved A-infinity categories over truncated Novikov scalars.

A category stores, per composable object chain (X_0, ..., X_s), the structure
map

    m_s : Hom(X_0,X_1) (x) Hom(X_1,X_2) (x) ... (x) Hom(X_{s-1},X_s)
            -> Hom(X_0,X_s),

so arguments are read left to right along the path.  Chains absent from the
table are zero maps.  Curvature is the arity-0 map at the length-1 chain
(X,), valued in Hom(X,X); "flat" is the checked property that every such
curvature vanishes.

The module also hosts the energy-graded input data (structure constants
m_{s,beta} indexed by disk classes over the coefficient field) and the
Maurer-Cartan machinery that deforms them into honest categories over the
Novikov scalars.

A category with a cyclic pairing carries its dual bases: ``dual_bases()``
inverts each Gram matrix once, on first use, and keeps the result.  The
cache is not invalidated, so a category must not be patched (hom spaces,
pairing, cyclic degree) after that first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import FixtureError, InsufficientCutoff, StructureError
from .graded import (
    GradedSpace,
    MultilinearMap,
    _signed,
    reduced,
    sign_of,
    v_is_zero,
    vacc,
    vadd,
    vector_parity,
    vscale,
)
from .linalg import (
    inverse,
    kernel_coefficients,
    quotient_representatives,
    solve_combination,
)
from .novikov import NovikovScalar, _exact, field_power

__all__ = [
    "AInfCategory",
    "CheckReport",
    "Violation",
    "check_ainf",
    "check_unital",
    "check_cyclic",
    "CohomologyCategory",
    "cohomology_category",
    "DiskClass",
    "EnergyGradedAlgebra",
    "check_energy_cyclic",
    "local_system_value",
    "deform_by_mc",
    "divisor_element",
    "mc_family_category",
]

EMPTY = GradedSpace((), ())


@dataclass
class Violation:
    kind: str
    chain: tuple
    args: tuple
    detail: str

    def __str__(self):
        return f"[{self.kind}] chain={self.chain} args={self.args}: {self.detail}"


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    violations: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, kind, chain, args, detail):
        self.violations.append(Violation(kind, tuple(chain), tuple(args), detail))

    def summary(self) -> str:
        verdict = "pass" if self.passed else f"FAIL ({len(self.violations)})"
        return f"{self.name}: {verdict} [{self.checked} instances]"


class AInfCategory:
    """Finite curved category with explicit structure-map tables."""

    def __init__(
        self,
        field,
        cutoff,
        objects,
        hom,
        ops,
        units=None,
        pairing=None,
        cyclic_degree=None,
        name="",
    ):
        self.field = field
        self.cutoff = Fraction(_exact(cutoff))
        self.objects = tuple(objects)
        self.hom = dict(hom)
        self.ops = dict(ops)
        self.units = dict(units) if units else {}
        self.pairing = dict(pairing) if pairing else {}
        self.cyclic_degree = cyclic_degree
        self.name = name
        self._duals = None
        self.validate()

    # -- access ----------------------------------------------------------

    def hom_space(self, x, y) -> GradedSpace:
        return self.hom.get((x, y), EMPTY)

    def op(self, chain):
        return self.ops.get(tuple(chain))

    def apply(self, chain, labels) -> dict:
        m = self.op(chain)
        return m.apply(labels) if m is not None else {}

    def apply_vectors(self, chain, vectors) -> dict:
        m = self.op(chain)
        return m.apply_to_vectors(vectors) if m is not None else {}

    def curvature(self, x) -> dict:
        return self.apply((x,), ())

    def unit(self, x) -> dict:
        return self.units[x]

    def is_flat(self) -> bool:
        return all(v_is_zero(self.curvature(x)) for x in self.objects)

    def arities(self) -> set:
        """Arities of the structure maps: an op on chain c eats len(c) - 1."""
        return {len(c) - 1 for c in self.ops}

    def max_op_arity(self) -> int:
        return max(self.arities(), default=0)

    def pair(self, x, y, v, w):
        """Bilinear extension of the pairing on Hom(x,y) (x) Hom(y,x)."""
        table = self.pairing.get((x, y), {})
        total = NovikovScalar.zero(self.field, self.cutoff)
        for la, a in v.items():
            for lb, b in w.items():
                c = table.get((la, lb))
                if c is not None:
                    total = total + c * a * b
        return total

    def dual_bases(self) -> dict:
        """Pairing duals of every hom basis, built on first use and kept.

        ``[(x, y)]`` lists, for each basis label of Hom(x,y) in order, the
        vector in Hom(y,x) pairing to one against it and to zero against
        the rest; pairs with both hom spaces zero are absent.
        """
        if self._duals is None:
            _require_cyclic(self)
            self._duals = {
                (x, y): _pairing_duals(self, x, y)
                for x, y in itertools.product(self.objects, repeat=2)
                if self.hom_space(x, y).dim or self.hom_space(y, x).dim
            }
        return self._duals

    def chains(self, s):
        """Object chains of length s+1 with no zero hom space along them."""
        def ok(chain):
            return all(
                self.hom_space(chain[i], chain[i + 1]).dim > 0
                for i in range(len(chain) - 1)
            )
        for chain in itertools.product(self.objects, repeat=s + 1):
            if ok(chain):
                yield chain

    def basis_tuples(self, chain):
        spaces = [
            self.hom_space(chain[i], chain[i + 1]).labels
            for i in range(len(chain) - 1)
        ]
        return itertools.product(*spaces)

    def arg_parities(self, chain, labels):
        return [
            self.hom_space(chain[i], chain[i + 1]).parity(labels[i])
            for i in range(len(labels))
        ]

    # -- validation ------------------------------------------------------

    def validate(self):
        if len(set(self.objects)) != len(self.objects):
            raise StructureError(f"repeated object in {self.objects}")
        for (x, y) in itertools.product(self.objects, repeat=2):
            if (x, y) not in self.hom:
                self.hom[(x, y)] = EMPTY
        for chain, m in self.ops.items():
            s = len(chain) - 1
            if s < 0 or any(o not in self.objects for o in chain):
                raise StructureError(f"bad op chain {chain}")
            expected = tuple(
                self.hom_space(chain[i], chain[i + 1]) for i in range(s)
            )
            if m.sources != expected:
                raise StructureError(f"op sources mismatch on chain {chain}")
            if m.target != self.hom_space(chain[0], chain[-1]):
                raise StructureError(f"op target mismatch on chain {chain}")
            if m.parity != s & 1:
                # degree 2 - s
                raise StructureError(
                    f"op on chain {chain} must have parity {s & 1}"
                )
            m.validate()
        for x, u in self.units.items():
            sp = self.hom_space(x, x)
            for label, c in u.items():
                if c.is_zero():
                    continue
                if sp.parity(label) != 0:
                    raise StructureError(f"unit of {x} is not even")
        if self.pairing and self.cyclic_degree is None:
            raise StructureError("pairing declared without its degree")
        n = self.cyclic_degree
        for (x, y), table in self.pairing.items():
            spa, spb = self.hom_space(x, y), self.hom_space(y, x)
            for (la, lb), c in table.items():
                if c.is_zero():
                    continue
                if (spa.parity(la) + spb.parity(lb)) & 1 != n & 1:
                    raise StructureError(
                        f"pairing entry ({la},{lb}) at ({x},{y}) "
                        "violates the declared degree"
                    )


# -- dual bases -------------------------------------------------------------


def _require_cyclic(cat):
    if cat.cyclic_degree is None or not cat.pairing:
        raise StructureError("no cyclic pairing declared")


def _pairing_duals(cat, x, y) -> list:
    """Duals in Hom(y,x) of the basis of Hom(x,y): one Gram inversion."""
    basis = cat.hom_space(x, y)
    partner = cat.hom_space(y, x)
    if basis.dim != partner.dim:
        raise StructureError(
            f"singular Gram matrix at ({x!r}, {y!r}): "
            f"dimensions {basis.dim} and {partner.dim} differ")
    # row r pairs partner label r against every basis label; the dual of
    # basis label a is the combination of rows giving e_a
    one = NovikovScalar.one(cat.field, cat.cutoff)
    gram = [
        {col: cat.pair(y, x, {row: one}, {col: one}) for col in basis.labels}
        for row in partner.labels
    ]
    inv = inverse(gram, basis.labels, cat.field, cat.cutoff)
    if inv is None:
        raise StructureError(f"singular Gram matrix at ({x!r}, {y!r})")
    return [
        {row: c for row, c in zip(partner.labels, coeffs) if not c.is_zero()}
        for coeffs in inv
    ]


# -- axiom checkers --------------------------------------------------------


def _relation_residual(cat: AInfCategory, chain, labels):
    """Value of the structural double sum on one basis tuple."""
    s = len(labels)
    parities = cat.arg_parities(chain, labels)
    total: dict = {}
    prefix = 0
    for i in range(s + 1):
        if i > 0:
            prefix += reduced(parities[i - 1])
        sgn = sign_of(prefix)
        for j in range(s - i + 1):
            inner_chain = chain[i : i + j + 1]
            inner = cat.op(inner_chain)
            if inner is None:
                continue
            mid = inner.apply(labels[i : i + j])
            if not mid:
                continue
            outer_chain = chain[: i + 1] + chain[i + j :]
            outer = cat.op(outer_chain)
            if outer is None:
                continue
            for mid_label, c in mid.items():
                out = outer.apply(labels[:i] + (mid_label,) + labels[i + j :])
                vacc(total, _signed(c, sgn), out)
    return total


def check_ainf(cat: AInfCategory, max_arity=None) -> CheckReport:
    """Evaluate the structural relation on every basis tuple up to a bound."""
    bound = max_arity if max_arity is not None else cat.max_op_arity() + 2
    report = CheckReport(f"ainf relations (arity <= {bound})")
    for s in range(bound + 1):
        for chain in cat.chains(s):
            for labels in cat.basis_tuples(chain):
                report.checked += 1
                residual = _relation_residual(cat, chain, labels)
                if residual:
                    report.add(
                        "ainf", chain, labels,
                        f"residual on {sorted(residual)}",
                    )
    return report


def check_unital(cat: AInfCategory, max_arity=None) -> CheckReport:
    bound = max_arity if max_arity is not None else cat.max_op_arity() + 2
    report = CheckReport(f"unit axioms (arity <= {bound})")
    for x, u in cat.units.items():
        # arity 2: both orders against every basis element
        for y in cat.objects:
            for direction in ("left", "right"):
                sp = cat.hom_space(x, y) if direction == "left" else cat.hom_space(y, x)
                for label in sp.labels:
                    report.checked += 1
                    if direction == "left":
                        got = cat.apply_vectors(
                            (x, x, y), [u, {label: _one(cat)}]
                        )
                        want = {label: _one(cat)}
                    else:
                        got = cat.apply_vectors(
                            (y, x, x), [{label: _one(cat)}, u]
                        )
                        sgn = sign_of(sp.parity(label))
                        want = {label: _one(cat) if sgn > 0 else -_one(cat)}
                    if not v_is_zero(vadd(got, vscale(-_one(cat), want))):
                        report.add(
                            "unit-arity2", (x, y), (label, direction),
                            f"got {sorted(got)}",
                        )
        # other arities: any insertion of the unit kills the operation
        for s in range(1, bound + 1):
            if s == 2:
                continue
            for chain in cat.chains(s):
                for pos in range(s):
                    if chain[pos] != x or chain[pos + 1] != x:
                        continue
                    spaces = [
                        cat.hom_space(chain[i], chain[i + 1]).labels
                        for i in range(s)
                    ]
                    for labels in itertools.product(
                        *(spaces[:pos] + spaces[pos + 1:])
                    ):
                        report.checked += 1
                        vecs = [
                            {l: _one(cat)} for l in labels[:pos]
                        ] + [u] + [{l: _one(cat)} for l in labels[pos:]]
                        got = cat.apply_vectors(chain, vecs)
                        if not v_is_zero(got):
                            report.add(
                                "unit-kill", chain, labels,
                                f"m_{s} with unit at slot {pos} is nonzero",
                            )
    return report


def check_cyclic(cat: AInfCategory, max_arity=None) -> CheckReport:
    bound = max_arity if max_arity is not None else cat.max_op_arity() + 2
    report = CheckReport(f"cyclic pairing (arity <= {bound})")
    if cat.cyclic_degree is None:
        report.add("cyclic", (), (), "no pairing declared")
        return report
    # nondegeneracy per object pair: the Gram matrix of the pairing on
    # Hom(x,y) (x) Hom(y,x) is the one the duals of Hom(y,x) invert
    for x, y in itertools.product(cat.objects, repeat=2):
        if cat.hom_space(x, y).dim == 0:
            continue
        report.checked += 1
        try:
            _pairing_duals(cat, y, x)
        except StructureError as err:
            report.add("gram", (x, y), (), str(err))
    # graded symmetry of the pairing itself
    for (x, y) in itertools.product(cat.objects, repeat=2):
        spa, spb = cat.hom_space(x, y), cat.hom_space(y, x)
        for la in spa.labels:
            for lb in spb.labels:
                report.checked += 1
                lhs = cat.pair(x, y, {la: _one(cat)}, {lb: _one(cat)})
                rhs = cat.pair(y, x, {lb: _one(cat)}, {la: _one(cat)})
                e = 1 + reduced(spa.parity(la)) * reduced(spb.parity(lb))
                if sign_of(e) < 0:
                    rhs = -rhs
                if not (lhs - rhs).is_zero():
                    report.add(
                        "pair-symm", (x, y), (la, lb),
                        "graded antisymmetry fails",
                    )
    # rotation invariance of the paired operations
    for s in range(1, bound + 1):
        for chain in cat.chains(s):
            x_last = chain[-1]
            if cat.hom_space(x_last, chain[0]).dim == 0:
                continue
            closing = cat.hom_space(x_last, chain[0]).labels
            for labels in cat.basis_tuples(chain):
                parities = cat.arg_parities(chain, labels)
                for lc in closing:
                    report.checked += 1
                    pc = cat.hom_space(x_last, chain[0]).parity(lc)
                    lhs_vec = cat.apply(chain, labels)
                    lhs = cat.pair(
                        chain[0], x_last, lhs_vec, {lc: _one(cat)}
                    )
                    rot_chain = (x_last,) + chain[:-1]
                    rot_labels = (lc,) + labels[:-1]
                    rhs_vec = cat.apply(rot_chain, rot_labels)
                    rhs = cat.pair(
                        x_last, chain[-2], rhs_vec,
                        {labels[-1]: _one(cat)},
                    )
                    e = reduced(pc) * sum(reduced(p) for p in parities)
                    if sign_of(e) < 0:
                        rhs = -rhs
                    if not (lhs - rhs).is_zero():
                        report.add(
                            "cyc", chain, labels + (lc,),
                            "rotation identity fails",
                        )
    return report


def _one(cat: AInfCategory) -> NovikovScalar:
    return NovikovScalar.one(cat.field, cat.cutoff)


# -- cohomology ------------------------------------------------------------


class CohomologyCategory:
    """Cohomology of a flat unital category.

    ``classes[(x, y)]`` is a list of cocycle representatives (sparse vectors
    in Hom(x, y)); morphism spaces of the categorical structure reverse the
    direction, Hom(x, y) here being the classes of Hom(y, x) below, and
    composition carries the extra sign making units literal identities.
    """

    def __init__(self, cat: AInfCategory):
        if not cat.is_flat():
            raise StructureError("cohomology needs a flat category")
        self.cat = cat
        self.classes: dict = {}
        self.parities: dict = {}
        self._image: dict = {}
        for (x, y), sp in cat.hom.items():
            reps_all, pars_all, images_all = [], [], []
            for p in (0, 1):
                labels_p = [l for l in sp.labels if sp.parity(l) == p]
                labels_q = [l for l in sp.labels if sp.parity(l) != p]
                columns = [cat.apply((x, y), (l,)) for l in labels_p]
                relations = kernel_coefficients(
                    columns, cat.field, cat.cutoff
                )
                cocycles = [
                    {labels_p[i]: c for i, c in rel.items()}
                    for rel in relations
                ]
                images_into_p = [
                    col
                    for col in (cat.apply((x, y), (l,)) for l in labels_q)
                    if not v_is_zero(col)
                ]
                reps, elims = quotient_representatives(
                    cocycles, images_into_p
                )
                if not all(el.certified(cat.cutoff) for el in elims):
                    raise InsufficientCutoff(
                        f"insufficient cutoff for cohomology at {(x, y)}"
                    )
                reps_all += reps
                pars_all += [p] * len(reps)
                images_all += images_into_p
            self.classes[(x, y)] = reps_all
            self.parities[(x, y)] = pars_all
            self._image[(x, y)] = images_all

    def dim(self, x, y) -> int:
        return len(self.classes[(x, y)])

    def express(self, x, y, vec):
        """Coefficients of a cocycle on the chosen representatives."""
        reps = self.classes[(x, y)]
        images = self._image[(x, y)]
        sol = solve_combination(
            reps + images, vec, self.cat.field, self.cat.cutoff
        )
        if sol is None:
            raise StructureError("vector is not a cocycle modulo exact terms")
        return sol[: len(reps)]

    def compose(self, x, y, z, f, g):
        """f after g with the ring sign; f in classes[(z,y)], g in classes[(y,x)].

        Returns the vector in Hom(z, x), i.e. the composite x -> z of the
        reversed-direction category.
        """
        cat = self.cat
        spf = cat.hom_space(z, y)
        pf = vector_parity(spf, f)
        pg = vector_parity(cat.hom_space(y, x), g)
        out = cat.apply_vectors((z, y, x), [f, g])
        if pf is None or pg is None:
            raise StructureError("compose needs homogeneous classes")
        if sign_of(pf * pg + pf) < 0:
            out = vscale(-_one(cat), out)
        return out

    def unit_class(self, x):
        return self.express(x, x, self.cat.unit(x))

    def assert_unital(self):
        for x in self.cat.objects:
            if x not in self.cat.units:
                raise StructureError(f"object {x} has no unit")
            u = self.cat.unit(x)
            self.unit_class(x)
            for rep in self.classes[(x, x)]:
                got = self.compose(x, x, x, u, rep)
                if not _veq_mod(self, x, x, got, rep):
                    raise StructureError(f"unit of {x} fails from the left")
                got = self.compose(x, x, x, rep, u)
                if not _veq_mod(self, x, x, got, rep):
                    raise StructureError(f"unit of {x} fails from the right")


def _veq_mod(h: CohomologyCategory, x, y, a, b):
    ca = h.express(x, y, a)
    cb = h.express(x, y, b)
    return all((p - q).is_zero() for p, q in zip(ca, cb))


def cohomology_category(cat: AInfCategory) -> CohomologyCategory:
    h = CohomologyCategory(cat)
    h.assert_unital()
    return h


def subcategory(cat: AInfCategory, objects) -> AInfCategory:
    """Full subcategory on the given objects, with the induced structure."""
    objects = tuple(objects)
    for x in objects:
        if x not in cat.objects:
            raise StructureError(f"object {x!r} not in category {cat.name!r}")
    keep = set(objects)
    return AInfCategory(
        cat.field,
        cat.cutoff,
        objects,
        {k: v for k, v in cat.hom.items() if k[0] in keep and k[1] in keep},
        {c: m for c, m in cat.ops.items() if keep.issuperset(c)},
        units={x: cat.units[x] for x in objects if x in cat.units},
        pairing={
            k: v for k, v in cat.pairing.items()
            if k[0] in keep and k[1] in keep
        },
        cyclic_degree=cat.cyclic_degree,
        name=cat.name,
    )


# -- energy-graded input data ---------------------------------------------


@dataclass
class DiskClass:
    """One disk class: energy exponent, even Maslov index, boundary in Z^m.

    ``ops[s]`` maps basis tuples to output rows whose values are elements
    of the coefficient field; ``_pair_row`` and ``_rho_tables`` turn them
    into constant Novikov scalars when they use them.
    """

    energy: Fraction
    maslov: int
    boundary: tuple
    ops: dict


class EnergyGradedAlgebra:
    """Structure constants of a closed-manifold model with disk corrections.

    The degree-zero part of the data is the classical cup product of the
    fixture; disk classes contribute m_{s,beta} respecting the dimension
    rule deg = 2 - s - maslov.
    """

    def __init__(
        self,
        field,
        cutoff,
        space: GradedSpace,
        unit_label: str,
        cup,
        integral,
        disks,
        dimension: int,
        loop_rank: int,
        name="",
        complete=True,
    ):
        self.field = field
        self.cutoff = Fraction(_exact(cutoff))
        self.space = space
        self.unit_label = unit_label
        self.cup = cup
        self.integral = integral
        self.disks = list(disks)
        self.dimension = dimension
        self.loop_rank = loop_rank
        self.name = name
        # complete=False marks fixtures whose beta-tables only carry the
        # odd-degree slots needed for potentials, not full operations
        self.complete = complete
        self.validate()

    def one(self) -> NovikovScalar:
        return NovikovScalar.one(self.field, self.cutoff)

    def constant(self, c) -> NovikovScalar:
        return NovikovScalar.constant(self.field, self.cutoff, c)

    def signed_pairing(self, la, lb) -> NovikovScalar:
        """Pairing with the orientation sign over the plain integral."""
        c = self.integral.get((la, lb))
        if c is None:
            return NovikovScalar.zero(self.field, self.cutoff)
        pa, pb = self.space.parity(la), self.space.parity(lb)
        x = self.constant(c)
        return -x if sign_of(pa * pb + pa) < 0 else x

    def cup_op(self) -> MultilinearMap:
        """m at energy zero: the cup product with the orientation sign."""
        sp = self.space
        m = MultilinearMap((sp, sp), sp, parity=0)
        for (la, lb), row in self.cup.items():
            pa = sp.parity(la)
            pb = sp.parity(lb)
            sgn = sign_of(pa * pb + pa)
            for out, c in row.items():
                x = self.constant(c)
                if sgn < 0:
                    x = -x
                if not x.is_zero():
                    m.add_entry((la, lb), out, x)
        return m

    def validate(self):
        sp = self.space
        if sp.zdegrees is None:
            raise FixtureError("energy-graded fixture needs integer degrees")
        if self.unit_label not in sp.labels:
            raise FixtureError("unit label missing from basis")
        if sp.zdegree(self.unit_label) != 0:
            raise FixtureError("unit must sit in degree zero")
        for x in sp.labels:
            row = self.cup.get((self.unit_label, x), {})
            if row != {x: self.field.one}:
                raise FixtureError(f"cup(1, {x}) is not {x}")
            row = self.cup.get((x, self.unit_label), {})
            if row != {x: self.field.one}:
                raise FixtureError(f"cup({x}, 1) is not {x}")
        for (la, lb), row in self.cup.items():
            da = sp.zdegree(la)
            db = sp.zdegree(lb)
            for out, c in row.items():
                if not self.field.is_zero(c) and sp.zdegree(out) != da + db:
                    raise FixtureError(
                        f"cup({la},{lb}) breaks the integer grading"
                    )
        for disk in self.disks:
            if disk.maslov % 2 != 0:
                raise FixtureError("Maslov indices must be even")
            if len(disk.boundary) != self.loop_rank:
                raise FixtureError("boundary vector has wrong rank")
            if disk.energy <= 0:
                raise FixtureError("nonzero disk classes need positive energy")
            for s, table in disk.ops.items():
                for args, row in table.items():
                    if len(args) != s:
                        raise FixtureError("arity mismatch in disk table")
                    if self.unit_label in args:
                        raise FixtureError(
                            "disk operations must kill unit insertions"
                        )
                    if not self.complete:
                        continue
                    din = sum(sp.zdegree(a) for a in args)
                    for out, c in row.items():
                        if self.field.is_zero(c):
                            continue
                        if sp.zdegree(out) != din + 2 - s - disk.maslov:
                            raise FixtureError(
                                f"disk table entry {args}->{out} breaks "
                                "the dimension rule"
                            )


def check_energy_cyclic(alg: EnergyGradedAlgebra, max_arity=6) -> CheckReport:
    """Rotation identity of the per-class operations under the pairing."""
    report = CheckReport("energy-level cyclic symmetry")
    sp = alg.space
    tables = [(Fraction(0), {2: _cup_table(alg)})]
    tables += [(d.energy, d.ops) for d in alg.disks]
    for _, ops in tables:
        for s, table in ops.items():
            if s == 0 or s > max_arity:
                # nothing to rotate at arity zero
                continue
            for args in itertools.product(sp.labels, repeat=s):
                for x0 in sp.labels:
                    report.checked += 1
                    lhs = _pair_row(alg, table.get(tuple(args), {}), x0)
                    rot = (x0,) + tuple(args[:-1])
                    rhs = _pair_row(alg, table.get(rot, {}), args[-1])
                    e = reduced(sp.parity(x0)) * sum(
                        reduced(sp.parity(a)) for a in args
                    )
                    if sign_of(e) < 0:
                        rhs = -rhs
                    if not (lhs - rhs).is_zero():
                        report.add("energy-cyc", (s,), args + (x0,), "fails")
    return report


def _cup_table(alg: EnergyGradedAlgebra):
    out = {}
    m = alg.cup_op()
    for args, row in m.table.items():
        out[args] = dict(row)
    return out


def _pair_row(alg, row, closing):
    total = NovikovScalar.zero(alg.field, alg.cutoff)
    for out, c in row.items():
        if isinstance(c, NovikovScalar):
            x = c
        else:
            x = alg.constant(c)
        total = total + x * alg.signed_pairing(out, closing)
    return total


# -- Maurer-Cartan deformation ---------------------------------------------


def local_system_value(field, rho, dvec):
    """Value of the local system on a boundary class in Z^m."""
    if len(rho) != len(dvec):
        raise StructureError("local system rank mismatch")
    out = field.one
    for r, k in zip(rho, dvec):
        out = out * field_power(field, r, k)
    return out


def _check_convergent(alg, b_plus):
    for label, c in b_plus.items():
        if c.is_zero():
            continue
        if alg.space.parity(label) != 1:
            raise StructureError("deformation element must be odd")
        if c.valuation() <= 0:
            raise StructureError(
                "nonconvergent input: deformation coefficients need "
                "positive valuation"
            )


def _rho_tables(alg: EnergyGradedAlgebra, rho, eta_pairings=None):
    """Collapse the energy grading: scale each disk table into Novikov land.

    Gives ``{s: [(scale, table)]}``, cup product first, with every row made
    ``{out: NovikovScalar}`` here, once per build.  With ``eta_pairings``
    disk i is also weighted by ``eta_pairings[i]`` and the cup product is
    left out: these are the tables of a divisor class.
    """
    tables: dict[int, list] = {}
    if eta_pairings is None:
        tables[2] = [(alg.one(), alg.cup_op().table)]
        eta_pairings = [alg.field.one] * len(alg.disks)
    for disk, eta in zip(alg.disks, eta_pairings):
        if alg.field.is_zero(eta):
            continue
        scale = NovikovScalar.monomial(
            alg.field, alg.cutoff, disk.energy,
            eta * local_system_value(alg.field, rho, disk.boundary),
        )
        if scale.is_zero():
            continue
        for s, table in disk.ops.items():
            rows = {args: {out: alg.constant(c) for out, c in row.items()}
                    for args, row in table.items()}
            tables.setdefault(s, []).append((scale, rows))
    return tables


def deform_by_mc(alg: EnergyGradedAlgebra, rho, b_plus, object_name="L",
                 max_arity=None):
    """Deform the energy-graded data by a weak Maurer-Cartan element.

    The one-object case of ``mc_family_category``.  Returns
    ``(category, W)`` where the category is curved with curvature W * unit.
    Raises StructureError("not weakly unobstructed at this b") when the
    curvature is not a multiple of the unit.  ``max_arity`` caps the arity
    of the assembled operations (the input data stays finite, the deformed
    tower does not).
    """
    cat, wvals = _mc_category(alg, rho, {object_name: b_plus}, max_arity)
    return cat, wvals[object_name]


def _solve_unit_multiple(alg, vec):
    w = NovikovScalar.zero(alg.field, alg.cutoff)
    for label, c in vec.items():
        if label == alg.unit_label:
            w = c
        elif not c.is_zero():
            return None
    return w


def _floer_pairing_table(alg):
    """The signed pairing of ``alg`` as a table {(la, lb): scalar}."""
    table = {}
    for la in alg.space.labels:
        for lb in alg.space.labels:
            c = alg.signed_pairing(la, lb)
            if not c.is_zero():
                table[(la, lb)] = c
    return table


def divisor_element(alg: EnergyGradedAlgebra, rho, b_plus, eta_pairings):
    """Pullback of a divisor class through the boundary insertions.

    ``eta_pairings[i]`` is the pairing number of the class against disk
    class i (same order as ``alg.disks``).  Asserts closedness under the
    deformed differential.
    """
    _check_convergent(alg, b_plus)
    eta_tables = _rho_tables(alg, rho, eta_pairings)
    total = _gap_inserted_op(alg, eta_tables, [b_plus], 0).apply(())
    tables = _rho_tables(alg, rho)
    d1 = _gap_inserted_op(alg, tables, [b_plus] * 2, 1)
    image = d1.apply_to_vectors([total]) if total else {}
    if not v_is_zero(image):
        raise StructureError("divisor element is not closed")
    return total


def mc_family_category(alg: EnergyGradedAlgebra, rho, elements, names=None,
                       max_arity=None):
    """Several Maurer-Cartan elements of one fixture as a category.

    Returns ``(category, {name: W})``.  Objects default to ``b0``, ``b1``,
    ...; names must be distinct.  Hom spaces across distinct potential
    values are zero; operations insert the deformation element of the
    object at each gap.  ``max_arity`` is as in ``deform_by_mc``.
    """
    names = tuple(names) if names else tuple(
        f"b{i}" for i in range(len(elements))
    )
    if len(names) != len(elements):
        raise StructureError("names do not match elements")
    if len(set(names)) != len(names):
        raise StructureError(f"repeated object name in {names}")
    return _mc_category(alg, rho, dict(zip(names, elements)), max_arity)


def _mc_category(alg, rho, elements, max_arity):
    """The category of the MC elements ``{name: b}``, and ``{name: W}``.

    Each object's arity-0 operation is built once: it is the curvature
    entry of the table and gives W.
    """
    if max_arity is not None and max_arity < 0:
        raise StructureError(f"max_arity must be nonnegative, got {max_arity}")
    for b in elements.values():
        _check_convergent(alg, b)
    tables = _rho_tables(alg, rho)
    ops, wvals = {}, {}
    for name, b in elements.items():
        m = _gap_inserted_op(alg, tables, [b], 0)
        w = _solve_unit_multiple(alg, m.apply(()))
        if w is None:
            raise StructureError("not weakly unobstructed at this b")
        wvals[name] = w
        if not m.is_zero():
            ops[(name,)] = m
    sp = alg.space
    names = tuple(elements)
    hom = {
        (a, b): sp if a == b or (wvals[a] - wvals[b]).is_zero() else EMPTY
        for a in names for b in names
    }
    max_s = max(tables, default=0)
    if max_arity is not None:
        max_s = min(max_s, max_arity)
    for s in range(1, max_s + 1):
        for chain in itertools.product(names, repeat=s + 1):
            if any(hom[(chain[i], chain[i + 1])].dim == 0 for i in range(s)):
                continue
            m = _gap_inserted_op(alg, tables, [elements[o] for o in chain], s)
            if not m.is_zero():
                ops[chain] = m
    units = {n: {alg.unit_label: alg.one()} for n in names}
    table = _floer_pairing_table(alg)
    pairing = {(a, b): table for a in names for b in names
               if hom[(a, b)].dim and hom[(b, a)].dim}
    return AInfCategory(
        alg.field, alg.cutoff, names, hom, ops,
        units=units, pairing=pairing, cyclic_degree=alg.dimension,
        name=alg.name,
    ), wvals


def _gap_inserted_op(alg, tables, gap_elements, s):
    """Arity-s operation with ``gap_elements[g]`` inserted in gap g.

    Every table entry m(a_1, ..., a_n) of arity n >= s contributes, for each
    choice of s visible positions, scale * (product of the hidden
    coefficients) * m(...) to the entry keyed by the visible labels.  A
    hidden a_p that follows g visible positions lies in gap g and
    contributes ``gap_elements[g][a_p]``.

    The choices are not enumerated.  Phase 1 walks the distinct argument
    tuples of arity >= s in sorted order, keeping per tuple of visible
    labels chosen so far (its length is the gap index) the sum of the
    hidden products that reach it: each position is hidden in the current
    gap or, while fewer than s are visible, made visible.  The states after
    each prefix sit on a stack that the next tuple reuses up to their common
    prefix, so the disks' equal tuples and a tuple's prefixes cost one walk.
    A key is dropped only when not even the longest tuple can still make s
    labels visible.

    Phase 2 adds scale * (hidden sum) * each row output in the order of the
    table entries, as one walk per entry would.  The order matters: summing
    the disks' rows first cancels the circle fiber's two arity-1 rows and
    loses the cutoff that their separate adds carry.

    The regrouping is exact: truncated Novikov scalars form a commutative
    ring, each product is still taken left to right, and a carried cutoff
    can only rise, never fall, where a sum cancels its leading terms.
    """
    sp = alg.space
    m = MultilinearMap((sp,) * s, sp, parity=s & 1)
    wanted = {args for s_full, entries in tables.items() if s_full >= s
              for _, table in entries for args in table}
    longest = max(map(len, wanted), default=0)
    # None is the empty product: nothing hidden yet.  Every path into a key
    # after one prefix hides the same number of arguments, so None never
    # meets a scalar in _merge.
    stack, prev, hidden = [{(): None}], (), {}
    for args in sorted(wanted):
        common, top = 0, min(len(prev), len(args))
        while common < top and prev[common] == args[common]:
            common += 1
        del stack[common + 1:]
        for p in range(common, len(args)):
            label, hide_from, nxt = args[p], s - longest + p + 1, {}
            for key, coeff in stack[p].items():
                g = len(key)
                if g < s:
                    _merge(nxt, key + (label,), coeff)
                if g >= hide_from:
                    c = gap_elements[g].get(label)
                    if c is not None and not c.is_zero():
                        _merge(nxt, key, c if coeff is None else coeff * c)
            stack.append(nxt)
        hidden[args] = [(k, c) for k, c in stack[-1].items() if len(k) == s]
        prev = args
    for s_full, entries in tables.items():
        if s_full < s:
            continue
        for scale, table in entries:
            for args, row in table.items():
                for key, coeff in hidden[args]:
                    factor = scale if coeff is None else scale * coeff
                    if factor.is_zero():
                        continue
                    for out, x in row.items():
                        y = factor * x
                        if not y.is_zero():
                            m.add_entry(key, out, y)
    return m


def _merge(states, key, coeff):
    if key in states:
        states[key] = states[key] + coeff
    else:
        states[key] = coeff
