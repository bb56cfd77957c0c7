"""Trace functional, Mukai pairing, and the chain-to-cochain comparison.

Three nested layers sit on top of the cyclic pairing of a category.  The
trace integrates a chain by pairing the unit against its length-zero
words; pairing a cochain against a chain runs the contraction first and
traces the result.  The Mukai pairing of two chains needs no cyclic
structure at all: it is a finite double sum over splittings of both
words, tracing a basis element through one operation nested inside
another.  Solving the pairing identity against dual bases turns a chain
into a cochain whose object components also admit a closed formula; that
comparison map drives the split-generation certificate.  The dual bases
are the category's own (``AInfCategory.dual_bases``), read from its cache,
so a category must not be patched after its first comparison.
"""

from __future__ import annotations

from .ainfinity import _require_cyclic
from .errors import StructureError
from .graded import _acc, _signed, reduced, sign_of
from .hochschild import (HCochain, _word_prefixes, b11, chain_parity,
                         word_parity)
from .novikov import NovikovScalar

__all__ = [
    "trace",
    "cyc_pair",
    "mukai",
    "z_map",
    "comparison_element",
    "contract_element",
    "z_x",
]


def _segment(objects, n, lo, hi):
    """Letters lo..hi of a word as (source, target) pairs, wrapping the close."""
    return [(objects[u % n], objects[(u + 1) % n]) for u in range(lo, hi + 1)]


def _op_chain(letters):
    return (letters[0][0],) + tuple(tgt for _, tgt in letters)


# -- trace and cochain pairing ---------------------------------------------


def trace(cat, vec: dict) -> NovikovScalar:
    """Integrate a chain: pair the unit against each length-zero word."""
    _require_cyclic(cat)
    total = NovikovScalar.zero(cat.field, cat.cutoff)
    one = NovikovScalar.one(cat.field, cat.cutoff)
    for (objects, labels), c in vec.items():
        if len(labels) != 1 or c.is_zero():
            continue
        x = objects[0]
        if x not in cat.units:
            raise StructureError(f"object {x!r} has no unit to trace against")
        total = total + c * cat.pair(x, x, cat.unit(x), {labels[0]: one})
    return total


def cyc_pair(phi: HCochain, vec: dict) -> NovikovScalar:
    """Pairing of a cochain against a chain: contract, then trace.

    Only the length-zero words of the contraction meet the trace, but the
    contraction itself consumes whole tails, so the cochain must carry its
    entries up to the length of the chain.
    """
    return trace(phi.cat, b11(phi, vec))


# -- Mukai pairing ----------------------------------------------------------


def _mukai_words(cat, left, right, arities) -> NovikovScalar:
    lobj, lx = left
    robj, rx = right
    n, n2 = len(lx), len(rx)
    s, t = n - 1, n2 - 1
    prel = _word_prefixes(cat, left)
    prer = _word_prefixes(cat, right)
    rdeg = word_parity(cat, right)
    total = NovikovScalar.zero(cat.field, cat.cutoff)
    one = NovikovScalar.one(cat.field, cat.cutoff)
    for i in range(n):
        ltail = (prel[n] - prel[i + 1]) & 1
        for j in range(i + 1):
            for k in range(n2):
                rtail = (prer[n2] - prer[k + 1]) & 1
                mid = cat.hom_space(lobj[(i + 1) % n], robj[(k + 1) % n2])
                if mid.dim == 0:
                    continue
                for l in range(k + 1):
                    inner_arity = (i - j) + (t - k) + l + 2
                    outer_arity = (s - i) + j + (k - l) + 2
                    if inner_arity not in arities or outer_arity not in arities:
                        continue
                    inner_letters = (
                        _segment(lobj, n, j + 1, i)
                        + [(lobj[(i + 1) % n], robj[(k + 1) % n2])]
                        + _segment(robj, n2, k + 1, t)
                        + _segment(robj, n2, 0, l)
                    )
                    inner_chain = _op_chain(inner_letters)
                    if cat.op(inner_chain) is None:
                        continue
                    outer_letters = (
                        _segment(lobj, n, i + 1, s)
                        + _segment(lobj, n, 0, j)
                        + [(lobj[(j + 1) % n], robj[(l + 1) % n2])]
                        + _segment(robj, n2, l + 1, k)
                    )
                    outer_chain = _op_chain(outer_letters)
                    if cat.op(outer_chain) is None:
                        continue
                    inner_pre = lx[j + 1:i + 1]
                    inner_post = rx[k + 1:] + rx[:l + 1]
                    outer_pre = [{lab: one} for lab in lx[i + 1:] + lx[:j + 1]]
                    outer_post = [{lab: one} for lab in rx[l + 1:k + 1]]
                    base = (1 + ltail + prel[j + 1]
                            + prel[i + 1] * ltail
                            + prer[k + 1] * rtail) & 1
                    for xlab in mid.labels:
                        inner = cat.apply(
                            inner_chain, inner_pre + (xlab,) + inner_post)
                        if not inner:
                            continue
                        res = cat.apply_vectors(
                            outer_chain, outer_pre + [inner] + outer_post)
                        c = res.get(xlab)
                        if c is None or c.is_zero():
                            continue
                        sgn = (base + mid.parity(xlab) * rdeg) & 1
                        total = total + _signed(c, sign_of(sgn))
    return total


def mukai(cat, left: dict, right: dict) -> NovikovScalar:
    """Mukai pairing of two chains by the double trace sum.

    For every splitting of both words a basis element runs through the
    hom space between the two marked objects; the inner operation eats a
    window of each word, the outer one the rest, and the diagonal
    coefficient is accumulated with the sign of the splitting.
    """
    arities = cat.arities()
    total = NovikovScalar.zero(cat.field, cat.cutoff)
    for wl, cl in left.items():
        if cl.is_zero():
            continue
        pl = word_parity(cat, wl)
        for wr, cr in right.items():
            f = cl * cr
            if f.is_zero():
                continue
            # an odd total degree cannot hit the diagonal
            if (pl + word_parity(cat, wr)) & 1:
                continue
            total = total + f * _mukai_words(cat, wl, wr, arities)
    return total


# -- the comparison map -----------------------------------------------------


def z_map(cat, vec: dict, max_length: int) -> HCochain:
    """Cochain whose pairing against any chain is the Mukai pairing.

    Entries are recovered length by length: closing an argument tuple
    with a running basis letter gives a word, the Mukai pairing against
    that word is a coordinate, and the dual basis converts coordinates
    into the output vector.
    """
    duals = cat.dual_bases()
    par = chain_parity(cat, vec)
    if par is None:
        return HCochain(cat, 0, max_length)
    arities = cat.arities()
    out = HCochain(cat, (par + cat.cyclic_degree) & 1, max_length)
    for u in range(max_length + 1):
        for chain in cat.chains(u):
            closing = cat.hom_space(chain[-1], chain[0])
            if closing.dim == 0 or cat.hom_space(chain[0], chain[-1]).dim == 0:
                continue
            table = duals[(chain[-1], chain[0])]
            word_objs = (chain[-1],) + chain[:-1]
            for args in cat.basis_tuples(chain):
                apar = 0
                for idx, a in enumerate(args):
                    apar ^= reduced(
                        cat.hom_space(chain[idx], chain[idx + 1]).parity(a))
                for ai, alabel in enumerate(closing.labels):
                    word = (word_objs, (alabel,) + tuple(args))
                    if (word_parity(cat, word) + par) & 1:
                        continue
                    val = NovikovScalar.zero(cat.field, cat.cutoff)
                    for wl, cl in vec.items():
                        if cl.is_zero():
                            continue
                        val = val + cl * _mukai_words(cat, wl, word, arities)
                    if val.is_zero():
                        continue
                    if reduced(closing.parity(alabel)) & apar:
                        val = -val
                    for dlabel, dcoeff in table[ai].items():
                        out.add(chain, tuple(args), dlabel, val * dcoeff)
    return out


def comparison_element(cat, vec: dict, target) -> dict:
    """Bar element Hom(K,X0) (x) letters (x) Hom(Xs,K) of a chain.

    Each splitting of a word sends the wrap through one operation led by a
    dual letter; the window between the marks stays tensorial and the
    matching basis letter closes the tail.  Keys are (object chain, labels)
    with the labels running head hom, middle letters, tail hom.
    """
    duals = cat.dual_bases()
    arities = cat.arities()
    one = NovikovScalar.one(cat.field, cat.cutoff)
    out: dict = {}
    for (objs, labels), c in vec.items():
        if c.is_zero():
            continue
        n = len(labels)
        s = n - 1
        pre = _word_prefixes(cat, (objs, labels))
        wdeg = word_parity(cat, (objs, labels))
        for i in range(n):
            ltail = (pre[n] - pre[i + 1]) & 1
            mark = objs[(i + 1) % n]
            basis = cat.hom_space(mark, target)
            if basis.dim == 0 or cat.hom_space(target, mark).dim == 0:
                continue
            table = duals[(mark, target)]
            for j in range(i + 1):
                if (s - i) + j + 2 not in arities:
                    continue
                head_chain = _op_chain(
                    [(target, mark)]
                    + _segment(objs, n, i + 1, s)
                    + _segment(objs, n, 0, j))
                if cat.op(head_chain) is None:
                    continue
                head_fixed = [{lab: one}
                              for lab in labels[i + 1:] + labels[:j + 1]]
                mid_chain = tuple(objs[u % n] for u in range(j + 1, i + 2))
                mid_labels = labels[j + 1:i + 1]
                base = (pre[i + 1] * ltail) & 1
                for ai, alabel in enumerate(basis.labels):
                    head = cat.apply_vectors(
                        head_chain, [table[ai]] + head_fixed)
                    sgn = sign_of((base + basis.parity(alabel) * wdeg) & 1)
                    for hlab, hv in head.items():
                        key = (mid_chain, (hlab,) + mid_labels + (alabel,))
                        _acc(out, key, _signed(c * hv, sgn))
    return out


def contract_element(cat, target, elem: dict) -> dict:
    """One structure map across each tensor of a bar element, into Hom(K,K)."""
    arities = cat.arities()
    out: dict = {}
    for (chain, labels), c in elem.items():
        if c.is_zero() or len(chain) + 1 not in arities:
            continue
        res = cat.apply((target,) + chain + (target,), labels)
        for lab, v in res.items():
            _acc(out, lab, c * v)
    return out


def z_x(cat, vec: dict, target) -> dict:
    """Object component of the comparison cochain at the target.

    The comparison element of the chain, contracted by one structure map;
    the output is an endomorphism of the target object.
    """
    if target not in cat.objects:
        raise StructureError(f"object {target!r} not in category")
    return contract_element(
        cat, target, comparison_element(cat, vec, target))
