"""Bar-type resolution over a band of objects and the generation check.

A target object is probed against a band: elements are tensors with a
hom from the target into the band on the left, letters inside the band
in the middle, and a hom back on the right.  One structure map contracts
the whole tensor into the endomorphisms of the target, and chains over
the band enter through a comparison element built from dual bases.  When
the unit class of the target lies in the image, the target is split
generated by the band.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ainfinity import subcategory
from .errors import StructureError
from .graded import _acc, _signed, reduced, sign_of
from .hochschild import homology, include_chain
from .linalg import quotient_representatives, solve_combination
from .mukai import DualBasisTable, comparison_element, contract_element, z_x

__all__ = [
    "BarComplex",
    "SplitGenCertificate",
    "delta_chain",
    "split_generation_check",
]


class BarComplex:
    """Tensors Hom(K,X0) (x) band letters (x) Hom(Xs,K), length bounded.

    Elements are sparse dicts keyed by (band object chain, labels) where
    the labels run head hom, middle letters, tail hom.  The differential
    collapses one window per term, with the head family absorbing the
    left hom, the tail family the right one.
    """

    def __init__(self, cat, band, target, max_length):
        band = tuple(band)
        for x in band + (target,):
            if x not in cat.objects:
                raise StructureError(f"object {x!r} not in category")
        self.cat = cat
        self.band = band
        self.target = target
        self.max_length = max_length
        self.arities = cat.arities()

    def basis(self, s):
        """Keys with s middle letters and nonzero outer homs."""
        cat = self.cat
        for chain in itertools.product(self.band, repeat=s + 1):
            head = cat.hom_space(self.target, chain[0])
            tail = cat.hom_space(chain[-1], self.target)
            if head.dim == 0 or tail.dim == 0:
                continue
            mids = [cat.hom_space(chain[u], chain[u + 1]).labels
                    for u in range(s)]
            if any(not labels for labels in mids):
                continue
            for combo in itertools.product(head.labels, *mids, tail.labels):
                yield (chain, combo)

    def parity(self, key) -> int:
        chain, labels = key
        s = len(chain) - 1
        cat = self.cat
        total = cat.hom_space(self.target, chain[0]).parity(labels[0])
        for u in range(s):
            total += reduced(
                cat.hom_space(chain[u], chain[u + 1]).parity(labels[u + 1]))
        total += cat.hom_space(chain[-1], self.target).parity(labels[s + 1])
        return total & 1

    def differential(self, vec: dict) -> dict:
        cat = self.cat
        out: dict = {}
        for (chain, labels), c in vec.items():
            if c.is_zero():
                continue
            s = len(chain) - 1
            head, tail = labels[0], labels[s + 1]
            mids = labels[1:s + 1]
            # mod-2 partial sums |m| + |x_1|' + ... + |x_i|'
            pre = [cat.hom_space(self.target, chain[0]).parity(head) & 1]
            for u, lab in enumerate(mids):
                pre.append((pre[-1] + reduced(
                    cat.hom_space(chain[u], chain[u + 1]).parity(lab))) & 1)
            for i in range(s + 1):
                if i + 1 in self.arities:
                    res = cat.apply((self.target,) + chain[:i + 1],
                                    (head,) + mids[:i])
                    for lab, v in res.items():
                        key = (chain[i:], (lab,) + mids[i:] + (tail,))
                        _acc(out, key, -(c * v))
                if s - i + 1 in self.arities:
                    res = cat.apply(chain[i:] + (self.target,),
                                    mids[i:] + (tail,))
                    for lab, v in res.items():
                        key = (chain[:i + 1], (head,) + mids[:i] + (lab,))
                        _acc(out, key, _signed(c * v, sign_of(pre[i])))
                for j in range(i + 1, s + 1):
                    if j - i not in self.arities:
                        continue
                    res = cat.apply(chain[i:j + 1], mids[i:j])
                    for lab, v in res.items():
                        key = (chain[:i + 1] + chain[j:],
                               (head,) + mids[:i] + (lab,) + mids[j:] + (tail,))
                        _acc(out, key, _signed(c * v, sign_of(pre[i])))
        return out

    def contract(self, vec: dict) -> dict:
        """One structure map across the whole tensor, into Hom(K,K)."""
        return contract_element(self.cat, self.target, vec)

    def from_chain(self, vec: dict,
                   duals: DualBasisTable | None = None) -> dict:
        """Comparison element of a chain supported on the band."""
        if duals is None:
            duals = DualBasisTable(self.cat)
        allowed = set(self.band)
        for (objs, labels), c in vec.items():
            if c.is_zero():
                continue
            if not allowed.issuperset(objs):
                raise StructureError("chain leaves the band")
            if len(labels) - 1 > self.max_length:
                raise StructureError("chain exceeds the bar window")
        return comparison_element(self.cat, vec, self.target, duals)


def delta_chain(cat, vec: dict, band, target,
                duals: DualBasisTable | None = None) -> dict:
    """Comparison element of a chain, on a bar window fitting the chain."""
    longest = max((len(w[1]) - 1 for w in vec), default=0)
    bar = BarComplex(cat, band, target, longest)
    return bar.from_chain(vec, duals)


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


def split_generation_check(cat, band, target, length, slack=0,
                           duals: DualBasisTable | None = None,
                           classes=None) -> SplitGenCertificate:
    """Decide whether the band split generates the target object.

    Chain classes of the band are pushed to endomorphisms of the target
    and the unit is solved for among them modulo exact terms.  ``classes``
    overrides the stable class basis with an explicit list of chains,
    bypassing the stabilization requirement.
    """
    band = tuple(band)
    for x in band + (target,):
        if x not in cat.objects:
            raise StructureError(f"object {x!r} not in category")
    if duals is None:
        duals = DualBasisTable(cat)
    dims = None
    if classes is None:
        sub = subcategory(cat, band)
        report = homology(sub, length, side="chains", slack=slack,
                          want_basis=True)
        report.require(stabilized=True, certified=slack > 0)
        classes = [vec for p in (0, 1) for vec in report.representatives[p]]
        dims = dict(report.dims)
    columns = [z_x(cat, include_chain(cat, vec), target, duals)
               for vec in classes]
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
                                   False, length, dims or {})
    witness: dict = {}
    for coeff, vec in zip(sol, classes):
        if coeff.is_zero():
            continue
        for word, c in vec.items():
            _acc(witness, word, coeff * c)
    # replay the witness: its comparison endomorphism must be the unit
    # up to exact terms, independently of the solver's bookkeeping
    gap = dict(unit_vec)
    for lab, c in z_x(cat, include_chain(cat, witness), target,
                      duals).items():
        _acc(gap, lab, -c)
    if gap and solve_combination(exact, gap, cat.field, cat.cutoff) is None:
        raise StructureError("witness fails to replay against the unit")
    return SplitGenCertificate(target, band, witness, {},
                               True, length, dims or {})
