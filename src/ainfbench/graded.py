"""Z/2-graded based vector spaces, sparse multilinear maps, and Koszul signs.

Sign discipline
---------------

Every sign in this package is produced by this module; nothing else writes a
``(-1)**...`` literal.  There is one sign primitive, ``sign_of(e)``, which is
(-1)^e for an integer parity exponent e.  Each structural formula states its
Koszul rule as that exponent.

Degree conventions.  An element x of parity |x| (0 even, 1 odd) has *reduced*
parity |x|' = |x| - 1 mod 2, computed by ``reduced``.  All the structural
formulas of the higher operations weigh prefixes of arguments by reduced
parities; use sites assemble their sign exponents from ``reduced`` sums and
feed them to ``sign_of``.

Vectors over a ``GradedSpace`` are plain dicts ``{basis label: NovikovScalar}``
with zero entries dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureError

__all__ = [
    "GradedSpace",
    "MultilinearMap",
    "sign_of",
    "reduced",
    "vadd",
    "vscale",
    "vacc",
    "v_is_zero",
    "vector_parity",
]


def sign_of(exponent: int) -> int:
    """(-1)^exponent.  The only sign literal in the package lives here."""
    return -1 if exponent & 1 else 1


def reduced(parity: int) -> int:
    """Reduced parity |x|' = |x| - 1 mod 2."""
    return (parity + 1) & 1


@dataclass(frozen=True)
class GradedSpace:
    """Ordered basis with Z/2 parities and optional integer degrees.

    ``zdegrees`` records the integer cohomological degree of each basis vector
    when a fixture declares one; parities are authoritative for signs.
    """

    labels: tuple[str, ...]
    parities: tuple[int, ...]
    zdegrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise StructureError("duplicate basis labels")
        if len(self.parities) != len(self.labels):
            raise StructureError("parities do not match basis")
        if any(p not in (0, 1) for p in self.parities):
            raise StructureError("parities must be 0 or 1")
        if self.zdegrees is not None:
            if len(self.zdegrees) != len(self.labels):
                raise StructureError("zdegrees do not match basis")
            for p, z in zip(self.parities, self.zdegrees):
                if z % 2 != p:
                    raise StructureError("zdegree parity mismatch")
        # label -> parity, read by every sign computation; not a field
        object.__setattr__(self, "_parity_of",
                           dict(zip(self.labels, self.parities)))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def parity(self, label: str) -> int:
        try:
            return self._parity_of[label]
        except (KeyError, TypeError):
            raise StructureError(f"unknown basis label {label!r}") from None

    def zdegree(self, label: str) -> int:
        if self.zdegrees is None:
            raise StructureError("space carries no integer degrees")
        return self.zdegrees[self.labels.index(label)]


# -- sparse vectors --------------------------------------------------------

def _acc(vec: dict, key, scalar):
    """vec[key] += scalar, in place, dropping the entry if it cancels.

    The one sparse accumulator: every sum of sparse entries goes through it
    (``Eliminator`` rows keep their own in-place loop).
    """
    cur = vec.get(key)
    cur = scalar if cur is None else cur + scalar
    if cur.is_zero():
        vec.pop(key, None)
    else:
        vec[key] = cur


def _table_add(table: dict, key, out, scalar):
    """table[key][out] += scalar, in place, dropping a row that cancels."""
    row = table.setdefault(key, {})
    _acc(row, out, scalar)
    if not row:
        del table[key]


def vadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        _acc(out, k, v)
    return out


def vscale(c, v: dict) -> dict:
    out = {}
    for k, x in v.items():
        y = c * x
        if not y.is_zero():
            out[k] = y
    return out


def vacc(dst: dict, coeff, src: dict) -> None:
    """dst += coeff * src, in place."""
    for k, x in src.items():
        _acc(dst, k, coeff * x)


def _signed(scalar, sgn: int):
    return scalar if sgn > 0 else -scalar


def v_is_zero(v: dict) -> bool:
    return all(x.is_zero() for x in v.values())


def vector_parity(space: GradedSpace, v: dict) -> int | None:
    """Common parity of the support, or None if zero or mixed."""
    seen = None
    for k, x in v.items():
        if x.is_zero():
            continue
        p = space.parity(k)
        if seen is None:
            seen = p
        elif seen != p:
            return None
    return seen


class MultilinearMap:
    """Sparse multilinear map between graded spaces.

    ``table[args][out]`` is the coefficient of basis vector ``out`` in the
    image of the basis tuple ``args``.  The declared ``parity`` must satisfy
      parity(out) = parity(args) + parity  (mod 2)
    for every stored entry; ``validate`` enforces this.
    """

    __slots__ = ("sources", "target", "parity", "table")

    def __init__(self, sources, target, parity, table=None):
        self.sources = tuple(sources)
        self.target = target
        self.parity = parity & 1
        self.table: dict[tuple, dict] = table if table is not None else {}

    @property
    def arity(self) -> int:
        return len(self.sources)

    def add_entry(self, args, out, scalar) -> None:
        _table_add(self.table, tuple(args), out, scalar)

    def apply(self, args) -> dict:
        return dict(self.table.get(tuple(args), {}))

    def apply_to_vectors(self, vectors) -> dict:
        """Multilinear extension to sparse vectors."""
        if len(vectors) != self.arity:
            raise StructureError("arity mismatch")
        if not vectors:
            return self.apply(())
        out: dict = {}
        def rec(k, prefix, coeff):
            if k == len(vectors):
                row = self.table.get(tuple(prefix))
                if row:
                    vacc(out, coeff, row)
                return
            for label, c in vectors[k].items():
                if not c.is_zero():
                    rec(k + 1, prefix + [label], c if coeff is None else coeff * c)
        rec(0, [], None)
        return out

    def validate(self) -> None:
        for args, row in self.table.items():
            if len(args) != self.arity:
                raise StructureError("entry arity mismatch")
            pin = 0
            for a, sp in zip(args, self.sources):
                pin += sp.parity(a)
            for out in row:
                if self.target.parity(out) != (pin + self.parity) & 1:
                    raise StructureError(
                        f"entry {args} -> {out} violates declared parity"
                    )

    def is_zero(self) -> bool:
        return all(all(x.is_zero() for x in row.values()) for row in self.table.values())

    def __repr__(self):
        return (
            f"MultilinearMap(arity={self.arity}, parity={self.parity}, "
            f"entries={sum(len(r) for r in self.table.values())})"
        )

