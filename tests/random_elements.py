"""Seeded random chains and cochains with small integer coefficients, the
test fuel shared by the Hochschild, Mukai and split-generation suites."""

from ainfbench.hochschild import HCochain, iter_elementaries, word_parity, words_up_to
from ainfbench.novikov import NovikovScalar


def random_cochain(cat, parity, max_length, rng, density=0.5) -> HCochain:
    """Sparse cochain of the given parity, entries in -3..3."""
    phi = HCochain(cat, parity, max_length)
    for elem in iter_elementaries(cat, max_length, parity):
        if rng.random() > density:
            continue
        c = rng.randint(-3, 3)
        if c:
            phi.add(*elem, NovikovScalar.constant(cat.field, cat.cutoff, c))
    return phi


def random_chain(cat, parity, max_length, rng, density=0.5) -> dict:
    """Homogeneous random chain of the given word parity."""
    vec = {}
    for word in words_up_to(cat, max_length):
        if word_parity(cat, word) != parity or rng.random() > density:
            continue
        c = rng.randint(-3, 3)
        if c:
            vec[word] = NovikovScalar.constant(cat.field, cat.cutoff, c)
    return vec
