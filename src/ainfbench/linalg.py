"""Sparse linear algebra over truncated Novikov scalars.

Elimination is valuation-aware: pivots are chosen with minimal valuation so
that the precision lost to inversion (a pivot of valuation v costs 2v orders)
is as small as possible, and every pivot valuation is recorded so a rank can
be *certified*: if all pivots sit well below the cutoff, the computed rank is
stable under refining the truncation.

One engine, ``Eliminator``, does every rank, kernel, quotient and square
solve of the package; ``inverse`` adds the precision check that a square
solve needs before it calls a matrix invertible.  A pivot row stores its
pivot entry as exactly 1, so neither normalizing a row nor reducing by it
ever forms that entry's product: the result is known to cancel.

Rows are sparse dicts ``{column key: NovikovScalar}``.  Column keys are
arbitrary hashable objects; keys eligible as pivots must be mutually
comparable (used only to break valuation ties deterministically).

Ranks, kernels and quotients are computed per support-connected block
(``partition_rows``): rows of different blocks never meet in a reduction,
so each block runs its own ``Eliminator`` and every residual is the one a
single elimination over all rows would give.  A blocked rank also reports
which rows installed a pivot, so one elimination gives the rank of every
prefix of its rows.

A quotient inserts only its numerators into eliminated denominator blocks
(``seeded_quotient``), merging the blocks a numerator touches by
concatenating their pivot rows; blocks share no key, so the pivots are
those of one elimination fed the denominators first.  Blocks of
denominators alone are skipped, so the margins a quotient reports cover
only the blocks its answer depends on.  The chain class basis seeds it
with the rank count's own blocks and eliminates no boundary twice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .novikov import NovikovScalar

__all__ = [
    "AugKey",
    "Eliminator",
    "matrix_rank",
    "partition_rows",
    "blocked_rank",
    "solve_combination",
    "inverse",
    "kernel_coefficients",
    "quotient_representatives",
    "seeded_quotient",
]


@dataclass(frozen=True, order=True)
class AugKey:
    """Bookkeeping column, never eligible as a pivot."""

    i: int


class Eliminator:
    """Incremental Gaussian elimination in echelon form.

    Pivot rows are normalized (pivot coefficient 1) and each contains no
    pivot key installed before it, so reducing a fresh row is a single
    worklist pass in installation order.  Applying a pivot row skips its
    pivot key, whose term would cancel the row's entry exactly; the entry
    is dropped instead.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self.pivot_keys: list = []
        self.pivot_valuations: list = []
        self.pivot_index: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Residual of ``row`` modulo the installed pivot rows."""
        row = {k: v for k, v in row.items() if v.lterms}
        pivot_index, pivot_keys, rows = self.pivot_index, self.pivot_keys, self.rows
        heappush, heappop = heapq.heappush, heapq.heappop
        pend = [pivot_index[k] for k in row if k in pivot_index]
        heapq.heapify(pend)
        done = set()
        while pend:
            i = heappop(pend)
            if i in done:
                continue
            done.add(i)
            key = pivot_keys[i]
            c = row.get(key)
            if c is None or not c.lterms:
                row.pop(key, None)
                continue
            # subtract c * piv: negate once per pivot row, add per entry;
            # the pivot's own entry is 1, so its term would cancel c exactly
            c = -c
            for k, x in rows[i].items():
                if k is key:
                    continue
                y = c * x
                cur = row.get(k)
                s = y if cur is None else cur + y
                if s.lterms:
                    row[k] = s
                else:
                    row.pop(k, None)
                # a pivot key introduced here always has index > i
                j = pivot_index.get(k)
                if j is not None and j > i and j not in done:
                    heappush(pend, j)
            row.pop(key, None)
        return row

    def insert(self, row: dict):
        """Reduce ``row`` and install a pivot if possible.

        Returns ``(pivot_key, residual)``; ``pivot_key`` is None when the
        residual has no usable pivot column (it may still be nonzero on
        ``AugKey`` columns, which never pivot).
        """
        res = self.reduce(row)
        best = None
        for k, v in res.items():
            if isinstance(k, AugKey):
                continue
            cand = (v.valuation(), k)
            if best is None or cand < best:
                best = cand
        if best is None:
            return None, res
        val, key = best
        inv = res[key].invert()
        one = NovikovScalar.one(inv.field, inv.cutoff)
        normalized = {}
        for k, v in res.items():
            if k is key:
                normalized[k] = one
                continue
            y = inv * v
            if not y.is_zero():
                normalized[k] = y
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

    def certified(self, cutoff) -> bool:
        """True when every pivot valuation lies below the cutoff."""
        m = self.min_margin(cutoff)
        return m is None or m > 0


def matrix_rank(rows) -> Eliminator:
    elim = Eliminator()
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
    """One Eliminator per support-connected cluster; ranks add up.

    Returns ``(eliminators, pivot_rows)``, where ``pivot_rows`` lists in
    ascending order the positions of the rows that installed a pivot.
    Each cluster meets its rows in input order, so the rows before
    position k install exactly the pivots an elimination of ``rows[:k]``
    alone would: its rank is the number of entries of ``pivot_rows``
    below k, and one elimination gives the rank of every prefix.
    """
    # fresh copies, so identity marks a position even when the same row
    # object is passed twice
    rows = [dict(row) for row in rows]
    where = {id(row): i for i, row in enumerate(rows)}
    elims, pivot_rows = [], []
    for grp in partition_rows(rows):
        elim = Eliminator()
        for row in grp:
            if elim.insert(row)[0] is not None:
                pivot_rows.append(where[id(row)])
        elims.append(elim)
    pivot_rows.sort()
    return elims, pivot_rows


def solve_combination(vectors, target, field, cutoff):
    """Coefficients c with sum(c_i * vectors_i) = target, or None.

    Works over the truncated scalars: equality means equality below the
    cutoffs that survive the elimination.  ``cutoff`` only sets the unit
    of the ``AugKey`` bookkeeping columns.  A consistent system whose
    vectors are dependent still returns one solution, so a caller that
    needs it unique checks the rank.
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


def inverse(rows, keys, field, cutoff):
    """Rows of the inverse of a square matrix, or None if it is singular.

    ``rows`` are n sparse rows over the n column keys; entry a of the
    result lists the coefficients c with sum(c_r * rows_r) = e_a for the
    a-th key.  Elimination drops entries that are zero only to their
    cutoff, so neither a full rank nor the cutoffs of a solution X can be
    trusted on their own.  The residual R = 1 - X A, formed entry by
    entry with every entry's cutoff, settles both: the inverse of every
    matrix agreeing with A below its cutoffs is (1 - R)^-1 X.  Unless
    each entry of R is O(T^r) with r > 0, A counts as singular to working
    precision; otherwise the result keeps X below min_b (r_ab + v(X_bi)),
    the valuation of the first correction R X.
    """
    one = NovikovScalar.one(field, cutoff)
    zero = NovikovScalar.zero(field, cutoff)
    # solve one exact lift of A, at twice the cutoff so that the solve's
    # own truncation stays below the uncertainty of the entries
    work = 2 * cutoff
    lift = [{k: NovikovScalar.make(field, work, x.terms)
             for k, x in row.items()}
            for row in rows]
    inv = []
    for k in keys:
        coeffs = solve_combination(
            lift, {k: NovikovScalar.one(field, work)}, field, work)
        if coeffs is None:
            return None
        inv.append(coeffs)
    # size[a][b]: R_ab is O(T^size)
    size = []
    for a, coeffs in enumerate(inv):
        sizes = []
        for b, k in enumerate(keys):
            r = one if a == b else zero
            for c, row in zip(coeffs, rows):
                x = row.get(k)
                if x is not None:
                    r = r - c * x
            s = r.cutoff if r.is_zero() else r.valuation()
            if s <= 0:
                return None
            sizes.append(s)
        size.append(sizes)
    return [
        [c.truncate(min(size[a][b] + inv[b][i].valuation()
                        for b in range(len(inv)) if not inv[b][i].is_zero()))
         for i, c in enumerate(coeffs)]
        for a, coeffs in enumerate(inv)
    ]


def kernel_coefficients(vectors, field, cutoff):
    """Basis of relations sum(c_i * vectors_i) = 0, as sparse ``{i: c_i}``.

    Each vector is augmented by its own ``AugKey(i)``, which joins no
    blocks, and the blocks are eliminated apart.  A relation is the
    residual of a vector that found no pivot; its largest index is that
    vector's, with coefficient 1, and relations come in that order.
    """
    one = NovikovScalar.one(field, cutoff)
    rows = []
    for i, v in enumerate(vectors):
        row = dict(v)
        row[AugKey(i)] = one
        rows.append(row)
    out = []
    for grp in partition_rows(rows):
        elim = Eliminator()
        for row in grp:
            key, res = elim.insert(row)
            if key is None:
                out.append({k.i: res[k] for k in sorted(res)})
    out.sort(key=max)
    return out


def seeded_quotient(numerators, blocks):
    """Rows of ``numerators`` surviving modulo eliminated denominator blocks.

    ``blocks`` are eliminators over disjoint keys, as ``blocked_rank``
    returns them; each enters ``partition_rows`` as one row over its keys.
    Each group holding a numerator gets one ``Eliminator`` seeded with its
    blocks' pivot rows, then fed its numerators in input order; the other
    groups are skipped.  Residual entries, cutoffs and pivot valuations are
    those of one elimination fed the denominators first; only the order in
    which a residual lists its fill may differ.  Returns
    ``(representatives, eliminators)``: each representative is the reduced
    residual installed as a fresh pivot, in numerator order.
    """
    # fresh copies, so identity marks a numerator even when the same row
    # object is passed twice
    nums = [dict(row) for row in numerators]
    index = {id(row): i for i, row in enumerate(nums)}
    spans = [dict.fromkeys(k for row in el.rows for k in row)
             for el in blocks]
    owner = {id(span): el for span, el in zip(spans, blocks)}
    found, elims = {}, []
    for grp in partition_rows(spans + nums):
        if not any(id(row) in index for row in grp):
            continue
        elim = Eliminator()
        for row in grp:
            block = owner.get(id(row))
            if block is None:
                key, res = elim.insert(row)
                if key is not None:
                    found[index[id(row)]] = res
                continue
            base = elim.rank
            elim.pivot_index.update(
                (key, base + i) for i, key in enumerate(block.pivot_keys))
            elim.rows += block.rows
            elim.pivot_keys += block.pivot_keys
            elim.pivot_valuations += block.pivot_valuations
        elims.append(elim)
    return [found[i] for i in sorted(found)], elims


def quotient_representatives(numerators, denominators):
    """Rows of ``numerators`` surviving modulo the span of ``denominators``.

    Partitions the denominators, eliminates only the blocks sharing a key
    with a numerator and hands them to ``seeded_quotient``.  A caller that
    holds a blocked elimination of these very rows, as the chain class
    basis holds the rank count's, calls ``seeded_quotient`` directly.
    """
    held = {k for row in numerators for k in row}
    blocks = [matrix_rank(grp) for grp in partition_rows(list(denominators))
              if any(k in held for row in grp for k in row)]
    return seeded_quotient(numerators, blocks)
