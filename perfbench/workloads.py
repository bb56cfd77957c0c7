"""The four workloads: seeded fixtures, operations and their oracles.

Each workload is a function ``(lib, rng) -> (ops, params)``: the set-up a
user pays before the first answer.  It constructs the fixtures and returns
the operations of one pass and the drawn inputs.  An
operation calls the library through module and class attributes, looked
up at call time, so the tracer's wrappers see every call.  Its ``check``
judges the returned answer against an oracle and returns None or a
description of the disagreement; ``known_defect`` accepts the exceptions
of a documented defect, which count as neither right nor failed.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

CUTOFF = 6

# Clifford forms draw nonzero diagonal entries from here.  Small integers
# keep the Fraction sizes, and so the cost of a pass, alike across seeds.
FORM_ENTRIES = (-3, -2, -1, 1, 2, 3)
CLIFFORD_RANK = 2
CLIFFORD_LENGTH = 4
CLIFFORD_FORMS = 4
SPLIT_LENGTH = 4
OBSTRUCTED_LENGTH = 6
MC_ARITY = 2
LG_PRODUCT_LENGTH = 2          # k: words of up to k elementary matrices
PIPELINE_ARITY = 4

MODULES = ("errors", "novikov", "graded", "linalg", "ainfinity", "models",
           "hochschild", "mukai", "splitgen", "potential")


class LibraryMissing(Exception):
    """The checkout holds no ``src/ainfbench`` to benchmark."""


def import_library(root: Path) -> SimpleNamespace:
    """Import the package from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "ainfbench" / "__init__.py").is_file():
        raise LibraryMissing(f"no package at {src / 'ainfbench'}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"ainfbench.{name}")
            for name in MODULES}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != src / "ainfbench":
            raise LibraryMissing(f"{mod.__name__} imported from {mod.__file__}")
    return SimpleNamespace(**mods)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: Callable[[BaseException], bool] | None = None
    margin: Callable[[object], object] | None = None


# -- clifford-homology ------------------------------------------------------


def _diagonal(rng, rank):
    entries = [rng.choice(FORM_ENTRIES) for _ in range(rank)]
    return [[Fraction(entries[i]) if i == j else Fraction(0)
             for j in range(rank)] for i in range(rank)]


def clifford_homology(lib, rng):
    Q = lib.novikov.Rationals()
    odd = CLIFFORD_RANK % 2
    # HH_* of a nondegenerate Clifford algebra is one class, in the parity
    # of its rank; HH^* is one even class
    want = {"chains": {odd: 1, 1 - odd: 0}, "cochains": {0: 1, 1: 0}}

    def op(i, cat, side):
        def run():
            return lib.hochschild.homology(cat, CLIFFORD_LENGTH, side=side)

        def check(rep):
            if rep.dims != want[side]:
                return f"dims {rep.dims}, want {want[side]}"
            if not (rep.stabilized and rep.certified):
                return (f"stabilized={rep.stabilized} "
                        f"certified={rep.certified}")
            return None

        return Op(f"homology-{side}-{i}", run, check,
                  margin=lambda rep: rep.margin)

    forms = [_diagonal(rng, CLIFFORD_RANK) for _ in range(CLIFFORD_FORMS)]
    ops = []
    for i, q in enumerate(forms):
        cat = lib.models.clifford_model(Q, CUTOFF, q)
        ops += [op(i, cat, "chains"), op(i, cat, "cochains")]
    params = {"forms": [[str(q[j][j]) for j in range(CLIFFORD_RANK)]
                        for q in forms],
              "length": CLIFFORD_LENGTH}
    return ops, params


# -- splitgen-certificate ---------------------------------------------------


def _replays(lib, cat, target, witness):
    """Replay outside the check: the witness's comparison map hits the unit
    modulo exact terms."""
    zero = lib.novikov.NovikovScalar.zero(cat.field, cat.cutoff)
    got = lib.mukai.z_x(cat, lib.hochschild.include_chain(cat, witness),
                        target)
    unit = dict(cat.unit(target))
    gap = {}
    for lab in set(unit) | set(got):
        c = unit.get(lab, zero) - got.get(lab, zero)
        if not c.is_zero():
            gap[lab] = c
    if not gap:
        return True
    exact = []
    if cat.op((target, target)) is not None:
        for lab in cat.hom_space(target, target).labels:
            col = cat.apply((target, target), (lab,))
            if col:
                exact.append(col)
    return lib.linalg.solve_combination(
        exact, gap, cat.field, cat.cutoff) is not None


def splitgen_certificate(lib, rng):
    Q = lib.novikov.Rationals()
    models = lib.models
    q = _diagonal(rng, 2)
    cat = models.clifford_model(Q, CUTOFF, q)
    qa, qb = rng.choice(FORM_ENTRIES), rng.choice(FORM_ENTRIES)
    pair = models.direct_sum_category(
        models.clifford_model(Q, CUTOFF, [[Fraction(qa)]],
                              object_name="A", name="a"),
        models.clifford_model(Q, CUTOFF, [[Fraction(qb)]],
                              object_name="B", name="b"))

    def generated():
        return lib.splitgen.split_generation_check(
            cat, ("T",), "T", SPLIT_LENGTH)

    def check_generated(cert):
        if not cert.generated:
            return f"verdict {cert.verdict}, want generated"
        if cert.class_dims != {0: 1, 1: 0}:
            return f"class_dims {cert.class_dims}, want {{0: 1, 1: 0}}"
        if not cert.witness or cert.residual:
            return "generated without a witness, or with a residual"
        if not _replays(lib, cat, "T", cert.witness):
            return "witness does not replay to the unit"
        return None

    def obstructed():
        return lib.splitgen.split_generation_check(
            pair, ("A",), "B", OBSTRUCTED_LENGTH)

    def check_obstructed(cert):
        if cert.generated:
            return "verdict generated, want obstructed"
        if cert.witness:
            return "obstructed certificate carries a witness"
        one = lib.novikov.NovikovScalar.one(Q, CUTOFF)
        res = cert.residual
        if set(res) != {"1"} or not (res["1"] - one).is_zero():
            return f"residual {res}, want the unit"
        return None

    params = {"form": [str(q[0][0]), str(q[1][1])], "pair": [qa, qb],
              "length": SPLIT_LENGTH, "obstructed_length": OBSTRUCTED_LENGTH}
    return [Op("generated", generated, check_generated),
            Op("obstructed", obstructed, check_obstructed)], params


# -- mc-family --------------------------------------------------------------


def _mc_pairs(rng):
    """Coefficients (a, d) of heights (2/3, 3/2) and (3/2, 2/3), signs drawn.

    The exponential series runs through the powers of the coefficients, so
    fixed heights keep the load alike across seeds.
    """
    heights = ((Fraction(2, 3), Fraction(3, 2)),
               (Fraction(3, 2), Fraction(2, 3)))
    return [(rng.choice((1, -1)) * a, rng.choice((1, -1)) * d)
            for a, d in heights]


def mc_family(lib, rng):
    Q = lib.novikov.Rationals()
    NS = lib.novikov.NovikovScalar
    alg = lib.models.circle_fiber_algebra(
        Q, CUTOFF, (Fraction(1, 2), Fraction(1, 2)))
    rho = (Fraction(1),)

    def op(i, a, d):
        c = NS.monomial(Q, CUTOFF, Fraction(1, 2), a)
        elements = [{"x": c}, {"x": -c}, {"x": NS.monomial(Q, CUTOFF, 1, d)}]

        def run():
            ainf = lib.ainfinity
            cat, wvals = ainf.mc_family_category(
                alg, rho, elements, names=("a", "b", "c"),
                max_arity=MC_ARITY)
            return (cat, wvals, ainf.check_ainf(cat, max_arity=MC_ARITY),
                    ainf.check_unital(cat, max_arity=MC_ARITY))

        def check(out):
            cat, w, ainf_report, unital_report = out
            # W is even in the coefficient of x
            if not (w["a"] - w["b"]).is_zero():
                return "W differs between b and -b"
            if (w["a"] - w["c"]).is_zero():
                return "W agrees on distinct MC elements"
            dims = (cat.hom_space("a", "b").dim, cat.hom_space("a", "c").dim)
            if dims != (2, 0):
                return f"hom dims {dims}, want (2, 0)"
            if not ainf_report.passed:
                return "A-infinity relations fail: " + ainf_report.summary()
            if not unital_report.passed:
                return "unitality fails: " + unital_report.summary()
            return None

        return Op(f"family-{i}", run, check)

    pairs = _mc_pairs(rng)
    params = {"a_d": [[str(a), str(d)] for a, d in pairs],
              "max_arity": MC_ARITY}
    return [op(i, a, d) for i, (a, d) in enumerate(pairs)], params


# -- lg-critical ------------------------------------------------------------

ELEMENTARY = (((1, 1), (0, 1)), ((1, -1), (0, 1)),
              ((1, 0), (1, 1)), ((1, 0), (-1, 1)))


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _substitutions(rng):
    """Every word of 1 to k elementary matrices once, in a seeded order.

    Operation costs span two orders of magnitude across words, so drawing
    words independently would make the load of a pass depend on the seed.
    """
    words = [w for n in range(1, LG_PRODUCT_LENGTH + 1)
             for w in itertools.product(ELEMENTARY, repeat=n)]
    rng.shuffle(words)
    out = []
    for word in words:
        m = ((1, 0), (0, 1))
        for e in word:
            m = _matmul(m, e)
        out.append(m)
    return out


def _match_values(got, want):
    """Match two lists of scalars exactly, as multisets."""
    left = list(want)
    for v in got:
        for i, w in enumerate(left):
            if v.field == w.field and (v - w).is_zero():
                del left[i]
                break
        else:
            return False
    return not left


def lg_critical(lib, rng):
    pot = lib.potential
    nov = lib.novikov
    Q = nov.Rationals()
    NS = nov.NovikovScalar
    square_rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    toric = {
        "p2": pot.build_toric_potential(
            pot.MomentPolytope([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])),
        "square": pot.build_toric_potential(
            pot.MomentPolytope(square_rays, [0, 0, 1, 1])),
        "skew": pot.build_toric_potential(
            pot.MomentPolytope(square_rays, [0, 0, 1, 2])),
    }
    p1 = pot.build_toric_potential(pot.MomentPolytope([(1,), (-1,)], [0, 1]))

    # closed-form critical values, invariant under GL(2, Z) substitution
    half, third = Fraction(1, 2), Fraction(1, 3)
    K = nov.QuadraticField(-3)
    zetas = [K.one, (K.coerce(-1) + K.root) * K.coerce(half),
             (K.coerce(-1) - K.root) * K.coerce(half)]
    want = {
        "p2": [NS.monomial(K, CUTOFF, third, K.coerce(3) * z) for z in zetas],
        "square": [NS.monomial(Q, CUTOFF, half, s) for s in (4, 0, 0, -4)],
        "skew": [NS.monomial(Q, CUTOFF, half, 2 * s)
                 + NS.monomial(Q, CUTOFF, 1, 2 * t)
                 for s in (1, -1) for t in (1, -1)],
    }
    count = {"p2": 3, "square": 4, "skew": 4}
    draws = _substitutions(rng)

    def morse_op(name, m):
        def run():
            moved = toric[name].potential.change_of_variables(m)
            return lib.potential.morse_count_check(moved, count[name], CUTOFF)

        def check(verdict):
            if not verdict.matches:
                return verdict.message
            if not _match_values([p.value for p in verdict.points],
                                 want[name]):
                return "critical values differ from the closed form"
            return None

        defect = None
        if name == "skew":
            def defect(exc):
                return (isinstance(exc, lib.errors.StructureError) and
                        "positive-dimensional leading system" in str(exc))

        label = f"{name}@{[list(r) for r in m]}".replace(" ", "")
        return Op(label, run, check, known_defect=defect)

    def pipeline():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", pot.DegenerateRootWarning)
            points = lib.potential.critical_points(p1.potential, CUTOFF)
        found = []
        for point in points:
            fiber = lib.potential.u_of_c(p1, point)
            alg = lib.models.circle_fiber_algebra(
                Q, CUTOFF, p1.polytope.supports(fiber.moment_point))
            unit = fiber.coordinates[0]
            rho = (unit.coefficient(0),)
            cat, w = lib.ainfinity.deform_by_mc(
                alg, rho, {}, max_arity=PIPELINE_ARITY)
            report = lib.ainfinity.check_ainf(cat, max_arity=PIPELINE_ARITY)
            found.append((point.value, unit, w, report))
        return len(caught), found

    def check_pipeline(out):
        degenerate, found = out
        if degenerate:
            return f"{degenerate} degenerate roots on P1"
        values = [value for value, _, _, _ in found]
        if not _match_values(values, [NS.monomial(Q, CUTOFF, half, s)
                                      for s in (2, -2)]):
            return "P1 critical values differ from +-2T^(1/2)"
        for value, unit, w, report in found:
            if not (unit - NS.constant(Q, CUTOFF, unit.coefficient(0))
                    ).is_zero():
                return "unit coordinate is not a constant"
            if not (w - value).is_zero():
                return "W of the deformed fiber differs from the critical value"
            if not report.passed:
                return "deformed fiber fails the A-infinity check"
        return None

    ops = [morse_op(name, m) for m in draws for name in toric]
    ops.append(Op("p1-pipeline", pipeline, check_pipeline))
    params = {"k": LG_PRODUCT_LENGTH, "substitutions": [[list(r) for r in m] for m in draws]}
    return ops, params


WORKLOADS = {
    "clifford-homology": clifford_homology,
    "splitgen-certificate": splitgen_certificate,
    "mc-family": mc_family,
    "lg-critical": lg_critical,
}
