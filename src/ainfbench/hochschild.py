"""Hochschild complexes of a finite flat category, truncated in word length.

Chains are formal combinations of cyclic words x0[x1|...|xs]: letter k lives
in Hom(X_k, X_{k+1}) with indices mod s+1, so the letters compose around a
circle and x0 is a distinguished starting point.  A word is stored as the
key ``(objects, labels)``, both tuples of length s+1, and a chain is a dict
from words to scalars.  The boundary never raises the word length, so words
of length <= N span a subcomplex.

Cochains of length s are multilinear maps
Hom(X0,X1) (x) ... (x) Hom(X_{s-1},X_s) -> Hom(X0,Xs), stored sparsely as
entries (object chain, argument labels) -> output vector.  The differential
never lowers the length, so lengths > N span a subcomplex and the truncation
is the quotient by it.  One enumeration, ``_differential_terms``, lists its
two families of terms and their signs.  ``cochain_differential`` multiplies
each term out; a column of the rank count, the differential of one
elementary cochain, reads its terms off a structure index holding each
structure map value times the unit, a product formed once per entry, and
gets its parity from the enumeration of the basis.

Either way the truncated homology depends on the window N.  What gets
reported is the part stable under moving the window: the rank of the map
between the homology at one window and at the neighbouring window two steps
away, a persistent rank of the length filtration.  One ``homology`` call
builds one table, a column per basis element up to its build window, and
every window and the class basis read length slices of it.  One formula
counts the boundaries landing in the small window: the rank of the
differential on the build window minus the rank of its part sticking out.
One elimination per parity per call; every window reads ranks of its
length prefixes.  Reports carry the comparison with the previous window and
a certification flag for the T-adic margins of the eliminations.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .ainfinity import AInfCategory, subcategory
from .errors import InsufficientCutoff, NotStabilized, StructureError
from .graded import _acc, _signed, _table_add, reduced, sign_of, vadd
from .linalg import (
    blocked_rank,
    kernel_coefficients,
    quotient_representatives,
    seeded_quotient,
    solve_combination,
)
from .novikov import NovikovScalar, _integer


def _require_flat(cat: AInfCategory):
    if not cat.is_flat():
        raise StructureError("Hochschild complexes require a flat category")


# -- words -----------------------------------------------------------------

def word_length(word) -> int:
    return len(word[1]) - 1


def word_letter_parities(cat, word):
    objects, labels = word
    n = len(objects)
    return [
        cat.hom_space(objects[k], objects[(k + 1) % n]).parity(labels[k])
        for k in range(n)
    ]


def word_parity(cat, word) -> int:
    """|x0| + |x1|' + ... + |xs|' mod 2, i.e. 1 + the last prefix sum."""
    return (_word_prefixes(cat, word)[-1] + 1) & 1


def validate_word(cat, word):
    objects, labels = word
    if len(objects) != len(labels) or not objects:
        raise StructureError(f"malformed word {word!r}")
    word_letter_parities(cat, word)  # raises on unknown objects or labels


def iter_words(cat, length):
    """All basis words of exact length s, i.e. s+1 letters."""
    s = length
    for chain in cat.chains(s):
        if cat.hom_space(chain[-1], chain[0]).dim == 0:
            continue
        spaces = [
            cat.hom_space(chain[k], chain[(k + 1) % (s + 1)]).labels
            for k in range(s + 1)
        ]
        for labels in itertools.product(*spaces):
            yield (chain, labels)


def words_up_to(cat, max_length):
    out = []
    for s in range(max_length + 1):
        out.extend(iter_words(cat, s))
    return out


def chain_parity(cat, vec: dict):
    """Common parity of the words in a chain, or None for the zero chain."""
    parity = None
    for word, c in vec.items():
        if c.is_zero():
            continue
        p = word_parity(cat, word)
        if parity is None:
            parity = p
        elif parity != p:
            raise StructureError("chain is not homogeneous")
    return parity


def _scale_chain(sgn: int, vec: dict) -> dict:
    if sgn > 0:
        return vec
    return {k: -v for k, v in vec.items()}


def _word_prefixes(cat, word):
    """Mod-2 prefix sums of reduced letter parities; pre[t] covers x0..x_{t-1}."""
    pre = [0]
    for p in word_letter_parities(cat, word):
        pre.append((pre[-1] + reduced(p)) & 1)
    return pre


# -- cochains --------------------------------------------------------------

class HCochain:
    """Sparse length-truncated Hochschild cochain.

    ``table`` maps (object chain, argument labels) to an output vector over
    Hom(chain[0], chain[-1]).  The length-s component has object chains of
    s+1 objects and s argument labels; length-0 entries are the per-object
    elements phi_X.  ``truncated`` records that some construction dropped
    entries beyond ``max_length``, i.e. the stored data is the image in the
    length-truncated quotient rather than an honestly finite cochain.  The
    differential sets it whenever a term leaves the window, even one whose
    product would truncate to 0 in T; only ``cap``'s error message reads it.
    """

    __slots__ = ("cat", "parity", "max_length", "table", "truncated")

    def __init__(self, cat, parity, max_length, truncated=False):
        max_length = _integer(max_length)
        if max_length < 0:
            raise StructureError(
                f"max_length must be nonnegative, got {max_length}")
        self.cat = cat
        self.parity = parity & 1
        self.max_length = max_length
        self.table = {}
        self.truncated = truncated

    def add(self, chain, args, out, coeff):
        if coeff.is_zero():
            return
        if len(args) > self.max_length:
            self.truncated = True
            return
        _table_add(self.table, (tuple(chain), tuple(args)), out, coeff)

    def entry(self, chain, args) -> dict:
        return self.table.get((tuple(chain), tuple(args)), {})

    def length0(self, obj) -> dict:
        return self.entry((obj,), ())

    def min_length(self):
        """Smallest length carrying a nonzero component, or None if zero."""
        best = None
        for (_, args) in self.table:
            s = len(args)
            if best is None or s < best:
                best = s
        return best

    def is_zero(self) -> bool:
        return not self.table

    def __neg__(self):
        out = HCochain(self.cat, self.parity, self.max_length,
                       truncated=self.truncated)
        for key, outs in self.table.items():
            out.table[key] = {o: -v for o, v in outs.items()}
        return out

    def __add__(self, other: "HCochain") -> "HCochain":
        if other.cat is not self.cat or other.parity != self.parity:
            raise StructureError("cochain mismatch in addition")
        out = HCochain(self.cat, self.parity,
                       min(self.max_length, other.max_length),
                       truncated=self.truncated or other.truncated)
        for src in (self, other):
            for (chain, args), outs in src.table.items():
                for o, v in outs.items():
                    out.add(chain, args, o, v)
        return out

    def __sub__(self, other):
        return self + (-other)

    def as_vector(self) -> dict:
        """Flatten to {(chain, args, out): coeff} for linear algebra."""
        vec = {}
        for (chain, args), outs in self.table.items():
            for o, v in outs.items():
                vec[(chain, args, o)] = v
        return vec

    def validate(self) -> "HCochain":
        cat = self.cat
        for (chain, args), outs in self.table.items():
            if len(chain) != len(args) + 1:
                raise StructureError(f"mismatched entry {chain!r} / {args!r}")
            psum = 0
            for k, a in enumerate(args):
                psum += cat.hom_space(chain[k], chain[k + 1]).parity(a)
            target = cat.hom_space(chain[0], chain[-1])
            # declared degree k at length s is a map of degree k - s
            want = (psum + self.parity + len(args)) & 1
            for o in outs:
                if target.parity(o) != want:
                    raise StructureError(
                        f"entry {chain!r} / {args!r} -> {o!r} breaks parity")
        return self


def cochain_from_vector(cat, parity, max_length, vec: dict) -> HCochain:
    phi = HCochain(cat, parity, max_length)
    for (chain, args, out), c in vec.items():
        phi.add(chain, args, out, c)
    return phi


def unit_cochain(cat, max_length) -> HCochain:
    """The length-0 cochain with phi_X = 1_X; the unit for the cup product."""
    phi = HCochain(cat, 0, max_length)
    for x in cat.objects:
        for label, c in cat.unit(x).items():
            phi.add((x,), (), label, c)
    return phi


def element_cochain(cat, obj, vector, max_length) -> HCochain:
    """Length-0 cochain concentrated at one object."""
    sp = cat.hom_space(obj, obj)
    parity = None
    for label, c in vector.items():
        if c.is_zero():
            continue
        p = sp.parity(label)
        if parity is None:
            parity = p
        elif parity != p:
            raise StructureError("element cochain needs a homogeneous vector")
    phi = HCochain(cat, 0 if parity is None else parity, max_length)
    for label, c in vector.items():
        phi.add((obj,), (), label, c)
    return phi


def _elementaries(cat, max_length):
    """Elementary cochains (chain, args, out) up to the length bound, each
    with its parity; the arguments' share is summed once for all outputs."""
    for s in range(max_length + 1):
        for chain in cat.chains(s):
            target = cat.hom_space(chain[0], chain[-1])
            if target.dim == 0:
                continue
            spaces = [cat.hom_space(chain[k], chain[k + 1]) for k in range(s)]
            outs = list(zip(target.labels, target.parities))
            for args in cat.basis_tuples(chain):
                psum = s
                for sp, a in zip(spaces, args):
                    psum += sp.parity(a)
                for out, p in outs:
                    yield (chain, args, out), (psum + p) & 1


def iter_elementaries(cat, max_length, parity=None):
    """Elementary cochains (chain, args, out) up to the length bound."""
    for elem, p in _elementaries(cat, max_length):
        if parity is None or p == parity:
            yield elem


# -- cochain differential and products -------------------------------------

def _arg_reduced_prefix(cat, chain, args):
    """pref[k] = |x_1|' + ... + |x_k|' over the entry's own letters, mod 2."""
    pref = [0]
    for k, a in enumerate(args):
        p = cat.hom_space(chain[k], chain[k + 1]).parity(a)
        pref.append((pref[-1] + reduced(p)) & 1)
    return pref


def _cochain_index(phi: HCochain):
    """Entries regrouped by (first object, last object, output label)."""
    index = {}
    for (chain, args), outs in phi.table.items():
        for o, c in outs.items():
            index.setdefault((chain[0], chain[-1], o), []).append(
                (chain, args, c))
    return index


def _structure_index(cat, unit=None):
    """The structure maps indexed for ``_differential_terms``.

    Returns ``(slots, ops)``: ``slots`` maps (X_i, X_{i+1}, label of slot i)
    to every structure map entry taking that letter in slot i, as (chain,
    args, i, reduced prefix before slot i, outputs); ``ops`` maps (first
    object, last object, output label) to every entry with that output, as
    (chain, args, value).  Curvature is excluded from both.  Given a
    ``unit``, each value v is stored as the product unit * v, formed once
    per entry, and products that vanish are left out.
    """
    slots, ops = {}, {}
    for chainM, mop in cat.ops.items():
        a = len(chainM) - 1
        if a == 0:
            continue
        for argsM, outsM in mop.table.items():
            if unit is not None:
                outsM = {o: u for o, v in outsM.items()
                         if not (u := unit * v).is_zero()}
            pref = _arg_reduced_prefix(cat, chainM, argsM)
            for i in range(a):
                slots.setdefault((chainM[i], chainM[i + 1], argsM[i]),
                                 []).append((chainM, argsM, i, pref[i], outsM))
            for o, v in outsM.items():
                ops.setdefault((chainM[0], chainM[-1], o), []).append(
                    (chainM, argsM, v))
    return slots, ops


def _differential_terms(cat, table, parity, top, index, prefixes):
    """The terms of the Hochschild differential of the cochain ``table``.

    Two families of terms: the cochain inserted as an argument of a
    structure map, signed by its reduced degree times the reduced prefix of
    the assembled word, and a structure map inserted as an argument of the
    cochain, signed by the full degree plus the reduced prefix.  Yields
    (chain, args, sgn, x, vec) for the term adding sgn * x * y at each
    output (o, y) of ``vec``: x is the cochain's coefficient and vec the
    structure map's outputs in the first family, x the structure map's
    value and vec the cochain's outputs in the second.  Terms longer than
    ``top`` are never formed; the first one skipped yields None.
    ``prefixes`` keeps the reduced prefix of each (chain, args) of the
    cochain, so calls that share one, such as the elementary cochains of
    one word, compute it once.
    """
    rphi = reduced(parity)
    slots, ops = index
    dropped = False
    for (chainP, argsP), outsP in table.items():
        s = len(argsP)
        for o, c in outsP.items():
            for chainM, argsM, i, pre, outsM in slots.get(
                    (chainP[0], chainP[-1], o), ()):
                if len(argsM) + s - 1 > top:
                    if not dropped:
                        dropped = True
                        yield None
                    continue
                yield (chainM[:i + 1] + chainP[1:] + chainM[i + 2:],
                       argsM[:i] + argsP + argsM[i + 1:],
                       sign_of(rphi * pre), c, outsM)

    for (chainP, argsP), outsP in table.items():
        pref = prefixes.get((chainP, argsP))
        if pref is None:
            pref = prefixes[chainP, argsP] = _arg_reduced_prefix(
                cat, chainP, argsP)
        s = len(argsP)
        for i in range(s):
            hits = ops.get((chainP[i], chainP[i + 1], argsP[i]))
            if not hits:
                continue
            sgn = sign_of(parity + pref[i])
            for chainM, argsM, v in hits:
                if len(argsM) + s - 1 > top:
                    if not dropped:
                        dropped = True
                        yield None
                    continue
                yield (chainP[:i + 1] + chainM[1:] + chainP[i + 2:],
                       argsP[:i] + argsM + argsP[i + 1:], sgn, v, outsP)


def cochain_differential(phi: HCochain, index=None) -> HCochain:
    """The Hochschild differential of a cochain, term by term as
    ``_differential_terms`` lists them.

    Terms longer than ``phi.max_length`` are never formed; skipping one
    sets ``truncated``.  ``index`` is ``_structure_index(phi.cat)``, built
    here when not given.
    """
    cat = phi.cat
    _require_flat(cat)
    out = HCochain(cat, phi.parity + 1, phi.max_length,
                   truncated=phi.truncated)
    if index is None:
        index = _structure_index(cat)
    for term in _differential_terms(cat, phi.table, phi.parity,
                                    phi.max_length, index, {}):
        if term is None:
            out.truncated = True
            continue
        chain, args, sgn, x, vec = term
        for o, y in vec.items():
            out.add(chain, args, o, _signed(x * y, sgn))
    return out


def _elementary_columns(cat, elems, max_length):
    """Differential of each elementary cochain in the ``max_length`` window,
    as a vector; ``elems`` lists (elementary, parity) pairs.

    The terms are ``cochain_differential``'s.  An elementary's coefficient
    is the unit, so its terms are the unit products the structure index
    holds: each is formed once per structure map entry, not once per term.
    """
    _require_flat(cat)
    index = _structure_index(cat, NovikovScalar.one(cat.field, cat.cutoff))
    prefixes = {}
    cols = []
    for (chain, args, out), parity in elems:
        # None stands for the unit coefficient of the one entry
        table = {}
        for term in _differential_terms(cat, {(chain, args): {out: None}},
                                        parity, max_length, index, prefixes):
            if term is not None:
                new_chain, new_args, sgn, x, vec = term
                for o, y in vec.items():
                    _table_add(table, (new_chain, new_args), o,
                               _signed(x if y is None else y, sgn))
        cols.append({(c, a, o): v for (c, a), outs in table.items()
                     for o, v in outs.items()})
    return cols


def cochain_m2(phi: HCochain, psi: HCochain) -> HCochain:
    """Both cochains inserted into one structure map, phi slot first.

    The second sign prefix runs over the assembled word up to psi's window,
    so it includes phi's own letters whenever phi sits before it.
    """
    cat = phi.cat
    if psi.cat is not cat:
        raise StructureError("cochain product across different categories")
    _require_flat(cat)
    out = HCochain(cat, phi.parity + psi.parity,
                   min(phi.max_length, psi.max_length),
                   truncated=phi.truncated or psi.truncated)
    rphi, rpsi = reduced(phi.parity), reduced(psi.parity)
    index_p = _cochain_index(phi)
    index_q = _cochain_index(psi)
    for chainM, mop in cat.ops.items():
        a = len(chainM) - 1
        if a < 2:
            continue
        for argsM, outsM in mop.table.items():
            pref = _arg_reduced_prefix(cat, chainM, argsM)
            for i in range(a - 1):
                hits_p = index_p.get((chainM[i], chainM[i + 1], argsM[i]))
                if not hits_p:
                    continue
                for k in range(i + 1, a):
                    hits_q = index_q.get((chainM[k], chainM[k + 1], argsM[k]))
                    if not hits_q:
                        continue
                    for chainP, argsP, cp in hits_p:
                        head = _arg_reduced_prefix(cat, chainP, argsP)[-1]
                        sgn = sign_of(
                            rphi * pref[i]
                            + rpsi * (pref[i] + head + pref[k] + pref[i + 1]))
                        for chainQ, argsQ, cq in hits_q:
                            new_chain = (chainM[:i + 1] + chainP[1:]
                                         + chainM[i + 2:k + 1] + chainQ[1:]
                                         + chainM[k + 2:])
                            new_args = (argsM[:i] + argsP
                                        + argsM[i + 1:k] + argsQ
                                        + argsM[k + 1:])
                            base = cp * cq
                            for o, v in outsM.items():
                                out.add(new_chain, new_args, o,
                                        _signed(base * v, sgn))
    return out


def cup(phi: HCochain, psi: HCochain) -> HCochain:
    out = cochain_m2(phi, psi)
    return out if sign_of(phi.parity * psi.parity + phi.parity) > 0 else -out


# -- chain differential ----------------------------------------------------

def b_word(cat, word, pre=None) -> dict:
    """Boundary of a single basis word, as a chain; ``pre`` is
    ``_word_prefixes(cat, word)`` when the caller holds it."""
    objects, labels = word
    n = len(objects)
    s = n - 1
    if pre is None:
        pre = _word_prefixes(cat, word)
    total = pre[n]
    arities = cat.arities()
    out: dict = {}

    # a structure map eats a window of letters not touching x0
    for u in range(1, n):
        for j in arities:
            if j < 1 or u + j > n:
                continue
            objchain = tuple(objects[(u + t) % n] for t in range(j + 1))
            mop = cat.ops.get(objchain)
            if mop is None:
                continue
            outs = mop.table.get(labels[u:u + j])
            if not outs:
                continue
            sgn = sign_of(pre[u])
            new_objects = objects[:u + 1] + objects[u + j:]
            head, tail = labels[:u], labels[u + j:]
            for o, v in outs.items():
                _acc(out, (new_objects, head + (o,) + tail), _signed(v, sgn))

    # a structure map eats a window wrapping through x0; its output becomes
    # the new starting letter
    for i in range(n):
        for j in range(i + 1):
            if s - i + j + 1 not in arities:
                continue
            objchain = tuple(objects[t] for t in range(i + 1, n)) \
                + tuple(objects[t % n] for t in range(j + 2))
            mop = cat.ops.get(objchain)
            if mop is None:
                continue
            outs = mop.table.get(labels[i + 1:] + labels[:j + 1])
            if not outs:
                continue
            sgn = sign_of(pre[i + 1] * (total + pre[i + 1]))
            new_objects = (objects[(i + 1) % n],) + objects[j + 1:i + 1]
            tail = labels[j + 1:i + 1]
            for o, v in outs.items():
                _acc(out, (new_objects, (o,) + tail), _signed(v, sgn))
    return out


def chain_differential(cat, vec: dict) -> dict:
    _require_flat(cat)
    out: dict = {}
    for word, c in vec.items():
        if c.is_zero():
            continue
        for w2, v in b_word(cat, word).items():
            _acc(out, w2, c * v)
    return out


# -- contraction of a cochain against a chain ------------------------------

def _b11_word(phi: HCochain, cat, word) -> dict:
    objects, labels = word
    n = len(objects)
    s = n - 1
    pre = _word_prefixes(cat, word)
    total = pre[n]
    rphi = reduced(phi.parity)
    table = phi.table
    out: dict = {}
    # the cochain eats letters j+1..j+f of the tail, the wrap-around
    # structure map eats the rest of the tail, x0, and the head up to x_k;
    # letters k+1..i survive
    for j in range(n):
        for f in range(n - j):
            chainP = tuple(objects[(j + 1 + t) % n] for t in range(f + 1))
            pouts = table.get((chainP, labels[j + 1:j + 1 + f]))
            if not pouts:
                continue
            for i in range(j + 1):
                base = sign_of(pre[i + 1] * (total + pre[i + 1])
                               + rphi * (pre[j + 1] + pre[i + 1]))
                lead = labels[i + 1:j + 1]
                for k in range(i + 1):
                    idxs = (list(range(i + 1, j + 2))
                            + list(range(j + f + 1, n))
                            + list(range(k + 2)))
                    objchain = tuple(objects[t % n] for t in idxs)
                    mop = cat.ops.get(objchain)
                    if mop is None:
                        continue
                    mid = labels[j + 1 + f:] + labels[:k + 1]
                    new_objects = (objects[(i + 1) % n],) + objects[k + 1:i + 1]
                    tail = labels[k + 1:i + 1]
                    for po, pc in pouts.items():
                        outs = mop.table.get(lead + (po,) + mid)
                        if not outs:
                            continue
                        for o, v in outs.items():
                            _acc(out, (new_objects, (o,) + tail),
                                 _signed(pc * v, base))
    return out


def b11(phi: HCochain, vec: dict) -> dict:
    """Contraction of a cochain against a chain; the raw, unsigned cap."""
    cat = phi.cat
    _require_flat(cat)
    out: dict = {}
    for word, c in vec.items():
        if c.is_zero():
            continue
        for w2, v in _b11_word(phi, cat, word).items():
            _acc(out, w2, c * v)
    return out


def module_relation_residual(phi: HCochain, vec: dict) -> dict:
    """b(b11(phi; X)) + (-1)^{|phi|'} b11(phi; bX) + b11(d phi; X)."""
    cat = phi.cat
    res = chain_differential(cat, b11(phi, vec))
    res = vadd(res, _scale_chain(sign_of(reduced(phi.parity)),
                                 b11(phi, chain_differential(cat, vec))))
    return vadd(res, b11(cochain_differential(phi), vec))


def cap(phi: HCochain, vec: dict, *, check: bool = False) -> dict:
    cat = phi.cat
    p = chain_parity(cat, vec)
    if p is None:
        return {}
    if check:
        bad = module_relation_residual(phi, vec)
        if bad:
            raise StructureError(
                "cap: module relation residual is nonzero"
                + (" (cochain was truncated)" if phi.truncated else ""))
    return _scale_chain(sign_of(phi.parity * p + phi.parity), b11(phi, vec))


# -- restriction and inclusion ---------------------------------------------

def restrict_cochain(phi: HCochain, sub) -> HCochain:
    """Keep the entries whose object chains stay inside the subcategory."""
    if not isinstance(sub, AInfCategory):
        sub = subcategory(phi.cat, sub)
    keep = set(sub.objects)
    out = HCochain(sub, phi.parity, phi.max_length, truncated=phi.truncated)
    for (chain, args), outs in phi.table.items():
        if keep.issuperset(chain):
            out.table[(chain, args)] = dict(outs)
    return out


def include_chain(cat, vec: dict) -> dict:
    """View a chain of a full subcategory as a chain of the ambient one."""
    for word in vec:
        validate_word(cat, word)
    return dict(vec)


def restrict_to_object(phi: HCochain, obj) -> dict:
    if obj not in phi.cat.objects:
        raise StructureError(f"object {obj!r} not in category")
    return dict(phi.length0(obj))


def object_chain(cat, obj, vector) -> dict:
    """Include an endomorphism as a length-0 chain."""
    sp = cat.hom_space(obj, obj)
    out = {}
    for label, c in vector.items():
        sp.parity(label)
        if not c.is_zero():
            out[((obj,), (label,))] = c
    return out


# -- homology --------------------------------------------------------------

@dataclass
class HomologyReport:
    side: str
    length: int
    dims: dict
    previous: dict | None
    stabilized: bool
    certified: bool
    margin: object
    representatives: dict | None = None

    def total(self) -> int:
        return sum(self.dims.values())

    def require(self) -> "HomologyReport":
        if not self.certified:
            raise InsufficientCutoff(
                f"insufficient cutoff: elimination margin {self.margin} "
                "is not positive")
        if not self.stabilized:
            raise NotStabilized(
                f"{self.side} homology not stabilized at N={self.length}")
        return self


def _columns(cat, top, side):
    """Basis per parity up to the build window ``top``, and their columns.

    A word's column is its boundary, an elementary cochain's its
    differential in the ``top`` window.  The boundary never raises length
    and the differential never lowers it, so every smaller window reads the
    same columns, filtered by length.
    """
    basis = {0: [], 1: []}
    cols = {}
    if side == "chains":
        for w in words_up_to(cat, top):
            # word_parity, read off the prefixes b_word needs
            pre = _word_prefixes(cat, w)
            basis[(pre[-1] + 1) & 1].append(w)
            cols[w] = b_word(cat, w, pre)
    else:
        for f, p in _elementaries(cat, top):
            basis[p].append(f)
        elems = [(f, p) for p in (0, 1) for f in basis[p]]
        cols = dict(zip(basis[0] + basis[1],
                        _elementary_columns(cat, elems, top)))
    return basis, cols


def _stable_dims(basis, diff, of_len, windows, drop):
    """Per-parity dimension of the window-stable homology at each window.

    At window N: cycles of the small window m = N - 2, minus the boundaries
    of the build window that land inside it: the rank of the differential
    on the build window minus the rank of its part sticking out of the
    small window.  With arity-1 structure maps the build window is N;
    without them (``drop`` = 1) it is N - 1, the differential strictly
    lowers length and nothing sticks out.

    One elimination per call; every window reads ranks of its length
    prefixes.  ``basis[p]`` is in length order and ends at the largest
    build window, so the rows of every small and build window are a prefix
    of its rows, and one blocked elimination gives the rank of each prefix.
    It takes both parities in one length order and stops each block at its
    d∘d = 0 bound (``blocked_rank``).  The parts sticking out are
    truncated rows, not a differential, and get unbounded eliminations of
    their own.
    Returns ``({window: dims}, eliminators, {p: full-window blocks})``: the
    blocks of parity p eliminate the boundaries that the chain class basis
    of parity 1 - p divides by.
    """
    lens = {p: [of_len(e) for e in basis[p]] for p in (0, 1)}
    rows = {p: [diff(e) for e in basis[p]] for p in (0, 1)}
    # both parities in one length order, so a block meets the pivots the
    # shorter rows of the other parity installed and stops at its bound
    order = sorted((n, p, i) for p in (0, 1) for i, n in enumerate(lens[p]))
    elims, at = blocked_rank([rows[p][i] for _, p, i in order],
                             [basis[p][i] for _, p, i in order])
    pivots = {0: [], 1: []}
    for j in at:
        _, p, i = order[j]
        pivots[p].append(i)
    # a block of parity p pivots on keys of parity 1 - p
    parity = {e: p for p in (0, 1) for e in basis[p]}
    full = {0: [], 1: []}
    for el in elims:
        if el.rank:
            full[1 - parity[el.pivot_keys[0]]].append(el)

    dims = {}
    for n in windows:
        m = n - 2
        cycles, bounds = {}, {}
        for p in (0, 1):
            small = bisect.bisect_right(lens[p], m)
            end = bisect.bisect_right(lens[p], n - drop)
            cycles[p] = small - bisect.bisect_left(pivots[p], small)
            blocks, out = blocked_rank(
                [{k: v for k, v in row.items() if of_len(k) > m}
                 for row in rows[p][:end]])
            elims.extend(blocks)
            bounds[p] = bisect.bisect_left(pivots[p], end) - len(out)
        dims[n] = {p: cycles[p] - bounds[1 - p] for p in (0, 1)}
    return dims, elims, full


def _kernel(cat, cols, sources):
    """Kernel vectors of the columns of ``sources``, keyed by source."""
    rels = kernel_coefficients([cols[e] for e in sources],
                               cat.field, cat.cutoff)
    return [{sources[i]: c for i, c in rel.items()} for rel in rels]


def _class_basis(cat, cols, sources, images, keep):
    """Cochain classes: kernel vectors on ``sources`` modulo ``images``.

    Both sides are cut down to their ``keep`` entries, so the coboundaries
    are not rows the rank count eliminated; ``quotient_representatives``
    eliminates only their blocks holding a kernel vector, and the ranks
    stay certified by ``_stable_dims``.
    """
    kernel = [{e: c for e, c in vec.items() if keep(e)}
              for vec in _kernel(cat, cols, sources)]
    bounds = [{k: v for k, v in cols[g].items() if keep(k)} for g in images]
    return quotient_representatives(kernel, bounds)


def homology(cat, length, side="chains", want_basis=False) -> HomologyReport:
    """Stable truncated homology of the chain or cochain complex.

    ``side`` is "chains" for the boundary complex and "cochains" for the
    differential on cochains.  Dimensions are per parity; ``stabilized``
    compares against the window two steps down.  One table of columns, at
    the build window of ``length``, serves both windows and the class basis.
    The chain class basis divides by the boundaries of the whole build
    window, the very rows ``_stable_dims`` eliminated block by block in the
    same order, so it inserts only its cycles into those eliminations.

    ``cat`` must be an A∞ category, as ``check_ainf`` certifies: the rank
    count skips rows on the ground that the differential squares to zero,
    and on other structure maps its ranks are not those of the complex.
    """
    _require_flat(cat)
    if side not in ("chains", "cochains"):
        raise StructureError(f"unknown side {side!r}")
    if type(length) is not int or length < 2:
        raise StructureError("homology needs an integer window of length "
                             f"at least 2, got {length!r}")
    drop = 0 if 1 in cat.arities() else 1
    basis, cols = _columns(cat, length - drop, side)
    if side == "chains":
        of_len, diff = word_length, cols.__getitem__
    else:
        # the transpose realizes the dual complex, whose differential lowers
        # length like the boundary: row e holds the coefficient of e in the
        # differential of every elementary cochain
        of_len = lambda e: len(e[1])
        rows: dict = {}
        for f, col in cols.items():
            for e, c in col.items():
                rows.setdefault(e, {})[f] = c
        diff = lambda e: rows.get(e, {})
    windows = (length, length - 2) if length >= 4 else (length,)
    at, elims, full = _stable_dims(basis, diff, of_len, windows, drop)
    dims, previous = at[length], at.get(length - 2)
    stabilized = previous is not None and previous == dims
    representatives = None
    if want_basis:
        # chains: cycles of the small window modulo the boundaries of the
        # build window; cochains: cocycles of the build window truncated to
        # the small window modulo the coboundaries computed there
        m = length - 2
        representatives = {}
        for p in (0, 1):
            if side == "chains":
                found, el = seeded_quotient(
                    _kernel(cat, cols,
                            [w for w in basis[p] if of_len(w) <= m]),
                    full[1 - p])
            else:
                found, el = _class_basis(
                    cat, cols, basis[p],
                    [g for g in basis[1 - p] if of_len(g) <= m],
                    lambda k: of_len(k) <= m)
                found = [cochain_from_vector(cat, p, m, v) for v in found]
            representatives[p] = found
            elims.extend(el)
        counted = {p: len(representatives[p]) for p in (0, 1)}
        if counted != dims:
            raise StructureError(
                f"class basis disagrees with rank count: {counted} vs {dims}")
    margins = [el.min_margin(cat.cutoff) for el in elims]
    margins = [g for g in margins if g is not None]
    margin = min(margins) if margins else None
    certified = all(el.certified(cat.cutoff) for el in elims)
    return HomologyReport(side, length, dims, previous, stabilized,
                          certified, margin, representatives)


# -- length raising --------------------------------------------------------

def raise_length(phi: HCochain, target_length: int):
    """Representative of an idempotent class vanishing up to the target.

    Implements the inductive correction: first the length-0 part is removed
    by one linear solve per object, then each round replaces the cochain by
    its own square, which at least doubles the vanishing range.  Returns the
    corrected cochain together with the accumulated corrector, so the
    difference from the input is exactly the differential of the corrector.
    """
    cat = phi.cat
    _require_flat(cat)
    if phi.parity & 1:
        raise StructureError("raise_length needs an even cochain")
    if target_length >= phi.max_length:
        raise StructureError(
            f"insufficient length budget: the target {target_length} must "
            f"stay below the truncation {phi.max_length}")
    if not cochain_differential(phi).is_zero():
        raise StructureError("raise_length input is not a cocycle")
    budget = phi.max_length
    odd = (phi.parity + 1) & 1
    psi_total = HCochain(cat, odd, budget)
    cur = phi

    if any(cur.length0(x) for x in cat.objects):
        psi0 = HCochain(cat, odd, budget)
        for x in cat.objects:
            vec = cur.length0(x)
            if not vec:
                continue
            space = cat.hom_space(x, x)
            m1 = cat.ops.get((x, x))
            cand = [lab for lab, p in zip(space.labels, space.parities)
                    if p == odd]
            cols = [dict(m1.table.get((lab,), {})) if m1 is not None else {}
                    for lab in cand]
            sol = solve_combination(cols, vec, cat.field, cat.cutoff)
            if sol is None:
                raise StructureError(
                    f"linear solve fails: the component at {x!r} is not exact")
            for lab, c in zip(cand, sol):
                psi0.add((x,), (), lab, c)
        cur = cur - cochain_differential(psi0)
        psi_total = psi_total + psi0

    elems = cols = None
    while True:
        ml = cur.min_length()
        if ml is None or ml > target_length:
            return cur, psi_total
        target = cur - cup(cur, cur)
        if elems is None:
            elems = list(iter_elementaries(cat, budget, odd))
            cols = _elementary_columns(cat, [(f, odd) for f in elems],
                                       budget)
        sol = solve_combination(cols, target.as_vector(),
                                cat.field, cat.cutoff)
        if sol is None:
            raise StructureError(
                "linear solve fails: the class does not square to itself")
        psi = HCochain(cat, odd, budget)
        for f, c in zip(elems, sol):
            psi.add(*f, c)
        nxt = cur - cochain_differential(psi)
        nml = nxt.min_length()
        if nml is not None and nml <= ml:
            raise StructureError(
                "linear solve fails: correction made no progress")
        cur = nxt
        psi_total = psi_total + psi
