"""The split-generation check of a target object against a band of objects.

The stable chain classes of the band are pushed to endomorphisms of the
target by the comparison map ``mukai.z_x``, which reads the dual bases
the category carries (``AInfCategory.dual_bases``, cached on first read,
so the category must not be patched afterwards).  When the unit class of
the target lies in their span modulo exact terms, the target is split
generated by the band, and the certificate carries a witness chain that
is replayed against the unit.  The bar resolution that ``z_x`` contracts
is not built here: the tests keep it as the reference for the comparison
map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ainfinity import subcategory
from .errors import StructureError
from .graded import _acc
from .hochschild import homology, include_chain
from .linalg import quotient_representatives, solve_combination
from .mukai import z_x

__all__ = [
    "SplitGenCertificate",
    "split_generation_check",
]


# -- the generation certificate ---------------------------------------------


@dataclass
class SplitGenCertificate:
    """Outcome of the generation check, with replayable evidence.

    ``witness`` is a chain over the band whose comparison endomorphism
    hits the unit class when ``generated`` holds; otherwise it is empty
    and ``residual`` is the unit class surviving in the cokernel.
    """

    target: object
    band: tuple
    witness: dict
    residual: dict
    generated: bool
    length: int
    class_dims: dict

    @property
    def verdict(self) -> str:
        return "generated" if self.generated else "obstructed"

    def describe(self) -> str:
        lines = [
            f"target {self.target!r} against band "
            + ", ".join(repr(x) for x in self.band),
            f"band classes per parity: {self.class_dims}",
            f"verdict: {self.verdict}",
        ]
        for word, c in sorted(self.witness.items()):
            objs, labels = word
            body = labels[0] + "".join(f"[{lab}]" for lab in labels[1:])
            lines.append(f"  witness {c} * {body} at "
                         + "->".join(str(o) for o in objs))
        for lab, c in sorted(self.residual.items()):
            lines.append(f"  residual {c} * {lab}")
        return "\n".join(lines)


def split_generation_check(cat, band, target, length) -> SplitGenCertificate:
    """Decide whether the band split generates the target object.

    The stable chain classes of the band are pushed to endomorphisms of
    the target and the unit is solved for among them modulo exact terms.
    """
    band = tuple(band)
    for x in band + (target,):
        if x not in cat.objects:
            raise StructureError(f"object {x!r} not in category")
    # pairing errors come before any homology
    cat.dual_bases()
    report = homology(subcategory(cat, band), length, side="chains",
                      want_basis=True)
    report.require()
    classes = [vec for p in (0, 1) for vec in report.representatives[p]]
    columns = [z_x(cat, include_chain(cat, vec), target) for vec in classes]
    end = cat.hom_space(target, target)
    exact = []
    if cat.op((target, target)) is not None:
        for lab in end.labels:
            col = cat.apply((target, target), (lab,))
            if col:
                exact.append(col)
    if target not in cat.units:
        raise StructureError(f"object {target!r} has no unit to generate")
    unit_vec = dict(cat.unit(target))
    sol = solve_combination(columns + exact, unit_vec,
                            cat.field, cat.cutoff)
    if sol is None:
        reps, _ = quotient_representatives([unit_vec], exact)
        residual = dict(reps[0]) if reps else {}
        return SplitGenCertificate(target, band, {}, residual,
                                   False, length, dict(report.dims))
    witness: dict = {}
    for coeff, vec in zip(sol, classes):
        if coeff.is_zero():
            continue
        for word, c in vec.items():
            _acc(witness, word, coeff * c)
    # replay the witness: its comparison endomorphism must be the unit
    # up to exact terms, independently of the solver's bookkeeping
    gap = dict(unit_vec)
    for lab, c in z_x(cat, include_chain(cat, witness), target).items():
        _acc(gap, lab, -c)
    if gap and solve_combination(exact, gap, cat.field, cat.cutoff) is None:
        raise StructureError("witness fails to replay against the unit")
    return SplitGenCertificate(target, band, witness, {},
                               True, length, dict(report.dims))
