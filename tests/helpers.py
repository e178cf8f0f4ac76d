"""Seeded random generators and the engine-free basis check shared by the test modules."""

import random

from quorum_algebra.algebra import Polynomial, Variable
from quorum_algebra.encoding import SetSystem, bool_product
from quorum_algebra.groebner import standard_monomial_count, variety_enumerate


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


def assert_is_reduced_basis(B, cert):
    """Check that cert holds the reduced Boolean Groebner basis of B, by its variety.

    Uses nothing of the pair loop. In the Boolean ring an ideal is the ideal
    of its zero set, so equal varieties give <G> = I. LM(I) contains
    <LM(G)>, and both leave |V| standard monomials exactly when they are
    equal, so G is then a Groebner basis. No term of an element divisible by
    another element's leading monomial makes it the unique reduced one.
    """
    order, n = B.order, B.n
    assert (cert.order, cert.n) == (order, n)
    expanded = [bool_product(factors, n) for factors in B.products]
    points = variety_enumerate(list(B.generators) + expanded, order.blocks, n)
    assert variety_enumerate(cert.basis, order.blocks, n) == points
    variables = order.variables(n)
    count = standard_monomial_count(cert.basis, variables, order, method="enumerate")
    assert count == cert.sm_count == len(points)
    lms = [g.leading_monomial(order) for g in cert.basis]
    for i, g in enumerate(cert.basis):
        for m in g.terms:
            assert all(lm & ~m for j, lm in enumerate(lms) if j != i), (g, m)
    # sorted by leading monomial, most significant first
    keys = [tuple(bool(lm & var.mask(n)) for var in variables) for lm in lms]
    assert keys == sorted(keys, reverse=True)
