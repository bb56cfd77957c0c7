"""Sparse linear algebra over truncated Novikov scalars.

Elimination is valuation-aware: pivots are chosen with minimal valuation so
that the precision lost to inversion (a pivot of valuation v costs 2v orders)
is as small as possible, and every pivot valuation is recorded so a rank can
be *certified*: if all pivots sit well below the cutoff, the computed rank is
stable under refining the truncation.

Rows are sparse dicts ``{column key: NovikovScalar}``.  Column keys are
arbitrary hashable objects; keys eligible as pivots must be mutually
comparable (used only to break valuation ties deterministically).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import StructureError
from .novikov import NovikovScalar

__all__ = [
    "AugKey",
    "Eliminator",
    "matrix_rank",
    "partition_rows",
    "blocked_rank",
    "solve_combination",
    "kernel_coefficients",
    "quotient_representatives",
    "dense_solve",
    "dense_inverse",
]


@dataclass(frozen=True, order=True)
class AugKey:
    """Bookkeeping column, never eligible as a pivot."""

    i: int


def _default_pivotable(key) -> bool:
    return not isinstance(key, AugKey)


class Eliminator:
    """Incremental Gaussian elimination in echelon form.

    Pivot rows are normalized (pivot coefficient 1) and each contains no
    pivot key installed before it, so reducing a fresh row is a single
    worklist pass in installation order.
    """

    def __init__(self, pivotable=None):
        self.pivotable = pivotable if pivotable is not None else _default_pivotable
        self.rows: list[dict] = []
        self.pivot_keys: list = []
        self.pivot_valuations: list = []
        self.pivot_index: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Residual of ``row`` modulo the installed pivot rows."""
        row = {k: v for k, v in row.items() if not v.is_zero()}
        pend = [self.pivot_index[k] for k in row if k in self.pivot_index]
        heapq.heapify(pend)
        done = set()
        while pend:
            i = heapq.heappop(pend)
            if i in done:
                continue
            done.add(i)
            key = self.pivot_keys[i]
            c = row.get(key)
            if c is None or c.is_zero():
                row.pop(key, None)
                continue
            piv = self.rows[i]
            for k, x in piv.items():
                y = c * x
                cur = row.get(k)
                s = -y if cur is None else cur - y
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
                # a pivot key introduced here always has index > i
                j = self.pivot_index.get(k)
                if j is not None and j > i and j not in done:
                    heapq.heappush(pend, j)
            row.pop(key, None)
        return row

    def insert(self, row: dict):
        """Reduce ``row`` and install a pivot if possible.

        Returns ``(pivot_key, residual)``; ``pivot_key`` is None when the
        residual has no usable pivot column (it may still be nonzero on
        non-pivotable keys).
        """
        res = self.reduce(row)
        best = None
        for k, v in res.items():
            if v.is_zero() or not self.pivotable(k):
                continue
            cand = (v.valuation(), k)
            if best is None or cand < best:
                best = cand
        if best is None:
            return None, res
        val, key = best
        inv = res[key].invert()
        normalized = {}
        for k, v in res.items():
            y = inv * v
            if not y.is_zero():
                normalized[k] = y
        normalized[key] = NovikovScalar.one(inv.field, inv.cutoff)
        idx = len(self.rows)
        self.rows.append(normalized)
        self.pivot_keys.append(key)
        self.pivot_valuations.append(val)
        self.pivot_index[key] = idx
        return key, res

    def min_margin(self, cutoff):
        """Smallest gap between the cutoff and a pivot valuation."""
        if not self.pivot_valuations:
            return None
        return min(cutoff - v for v in self.pivot_valuations)

    def certified(self, cutoff, slack) -> bool:
        """True when every pivot clears the cutoff by more than ``slack``."""
        m = self.min_margin(cutoff)
        return m is None or m > slack


def matrix_rank(rows, pivotable=None) -> Eliminator:
    elim = Eliminator(pivotable)
    for row in rows:
        elim.insert(row)
    return elim


def partition_rows(rows):
    """Group rows into clusters whose column supports are disjoint.

    Elimination never mixes such clusters, so each can be reduced on its
    own; this bounds fill-in by the cluster size instead of the whole
    matrix.  Rows with empty support are dropped (they carry no rank).
    """
    parent: dict = {}

    def find(k):
        root = k
        while parent[root] is not root:
            root = parent[root]
        while parent[k] is not root:
            parent[k], k = root, parent[k]
        return root

    for row in rows:
        keys = iter(row)
        first = next(keys, None)
        if first is None:
            continue
        if first not in parent:
            parent[first] = first
        a = find(first)
        for k in keys:
            if k not in parent:
                parent[k] = a
            else:
                parent[find(k)] = a

    groups: dict = {}
    for row in rows:
        anchor = next(iter(row), None)
        if anchor is None:
            continue
        groups.setdefault(find(anchor), []).append(row)
    return list(groups.values())


def blocked_rank(rows):
    """One Eliminator per support-connected cluster; ranks add up."""
    return [matrix_rank(grp) for grp in partition_rows(rows)]


def solve_combination(vectors, target, field, cutoff):
    """Coefficients c with sum(c_i * vectors_i) = target, or None.

    Works over the truncated scalars: equality means equality below the
    cutoffs that survive the elimination.
    """
    elim = Eliminator()
    one = NovikovScalar.one(field, cutoff)
    for i, v in enumerate(vectors):
        row = dict(v)
        row[AugKey(i)] = one
        elim.insert(row)
    res = elim.reduce(dict(target))
    for k, v in res.items():
        if not isinstance(k, AugKey) and not v.is_zero():
            return None
    zero = NovikovScalar.zero(field, cutoff)
    out = []
    for i in range(len(vectors)):
        c = res.get(AugKey(i))
        out.append(zero if c is None else -c)
    return out


def kernel_coefficients(vectors, field, cutoff):
    """Basis of relations sum(c_i * vectors_i) = 0, as coefficient lists."""
    elim = Eliminator()
    one = NovikovScalar.one(field, cutoff)
    zero = NovikovScalar.zero(field, cutoff)
    out = []
    for i, v in enumerate(vectors):
        row = dict(v)
        row[AugKey(i)] = one
        key, res = elim.insert(row)
        if key is None:
            coeffs = []
            for j in range(len(vectors)):
                c = res.get(AugKey(j))
                coeffs.append(zero if c is None else c)
            out.append(coeffs)
    return out


def quotient_representatives(numerators, denominators):
    """Rows of ``numerators`` surviving modulo the span of ``denominators``.

    Returns ``(representatives, elim)`` where each representative is the
    reduced residual installed as a fresh pivot.
    """
    elim = Eliminator()
    for row in denominators:
        elim.insert(row)
    base = elim.rank
    reps = []
    for row in numerators:
        key, res = elim.insert(dict(row))
        if key is not None:
            reps.append(res)
    assert elim.rank - base == len(reps)
    return reps, elim


# -- small dense systems ---------------------------------------------------

def dense_solve(matrix, rhs):
    """Solve a small square system by elimination with valuation pivoting.

    ``matrix`` is a list of rows of NovikovScalar, ``rhs`` a list of
    NovikovScalar (or a list of such lists for several right-hand sides).
    Raises StructureError when the matrix is singular to working precision.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise StructureError("dense_solve expects a square matrix")
    multi = bool(rhs) and isinstance(rhs[0], list)
    b = [list(r) for r in rhs] if multi else [[x] for x in rhs]
    if len(b) != n:
        raise StructureError("right-hand side length mismatch")
    a = [list(r) for r in matrix]
    for col in range(n):
        piv, pval = None, None
        for r in range(col, n):
            x = a[r][col]
            if x.is_zero():
                continue
            v = x.valuation()
            if pval is None or v < pval:
                piv, pval = r, v
        if piv is None:
            raise StructureError("singular matrix (to working precision)")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = a[col][col].invert()
        a[col] = [inv * x for x in a[col]]
        b[col] = [inv * x for x in b[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f.is_zero():
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return b if multi else [row[0] for row in b]


def dense_inverse(matrix, field, cutoff):
    n = len(matrix)
    one = NovikovScalar.one(field, cutoff)
    zero = NovikovScalar.zero(field, cutoff)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return dense_solve(matrix, eye)
