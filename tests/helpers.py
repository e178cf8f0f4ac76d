"""Seeded random generators shared by the test modules."""

import random

from quorum_algebra.algebra import Polynomial, Variable
from quorum_algebra.encoding import SetSystem


def rand_poly(n, blocks, rng, max_terms=5, density=0.4):
    """Random polynomial; may be zero when terms cancel."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mask = 0
        for b in blocks:
            for i in range(1, n + 1):
                if rng.random() < density:
                    mask |= Variable(b, i).mask(n)
        terms.append(mask)
    return Polynomial(n, terms)


def rand_generators(n, blocks, rng, max_gens=4, max_terms=5):
    """Nonzero random generators; may be empty when all candidates cancel."""
    polys = (rand_poly(n, blocks, rng, max_terms) for _ in range(rng.randint(1, max_gens)))
    return tuple(p for p in polys if not p.is_zero)


def rand_system(n, rng, max_members=4):
    """Random set system of distinct nonempty subsets of {1..n}."""
    members = []
    for _ in range(rng.randint(1, max_members)):
        size = rng.randint(1, n)
        s = tuple(sorted(rng.sample(range(1, n + 1), size)))
        if s not in members:
            members.append(s)
    return SetSystem.from_lists(n, members)


def seeded(seed):
    return random.Random(seed)
