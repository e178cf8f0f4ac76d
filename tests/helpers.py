"""Seeded random generators and the engine-free basis check shared by the test modules."""

import random

from quorum_algebra.algebra import Polynomial, Variable
from quorum_algebra.encoding import SetSystem, bool_product
from quorum_algebra.groebner import variety_enumerate


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


def sm_count_enumerate(basis, variables, order):
    """Squarefree monomials over variables that no leading monomial of basis
    divides, counted one by one (at most 12 variables)."""
    assert len(variables) <= 12
    n = basis[0].n if basis else max(var.index for var in variables)
    universe = 0
    for var in variables:
        universe |= var.mask(n)
    masks = [g.leading_monomial(order) for g in basis]
    assert all(not lm & ~universe for lm in masks)
    count = 0
    m = universe
    while True:
        count += not any(lm & m == lm for lm in masks)
        if not m:
            return count
        m = (m - 1) & universe


def _on_points(point, order, n, points):
    """Whether each block of a variety point that B.points lists has one of its points."""
    for block, masks in points:
        k = order.blocks.index(block)
        field = 0
        for bit in point[k * n:(k + 1) * n]:  # index 1 first, onto the field's top bit
            field = field << 1 | bit
        if field not in masks:
            return False
    return True


def assert_is_reduced_basis(B, cert):
    """Check that cert holds the reduced Boolean Groebner basis of B, by its variety.

    Uses nothing of the pair loop or of the point bases. In the Boolean ring
    an ideal is the ideal of its zero set, so equal varieties give <G> = I;
    a block given by points keeps the variety points whose coordinates on
    that block are one of them. LM(I) contains <LM(G)>, and both leave |V|
    standard monomials exactly when they are equal, so G is then a Groebner
    basis. No term of an element divisible by another element's leading
    monomial makes it the unique reduced one.
    """
    order, n = B.order, B.n
    assert (cert.order, cert.n) == (order, n)
    expanded = [bool_product(factors, n) for factors in B.products]
    points = variety_enumerate(list(B.generators) + expanded, order.blocks, n)
    points = frozenset(p for p in points if _on_points(p, order, n, B.points))
    assert variety_enumerate(cert.basis, order.blocks, n) == points
    variables = order.variables(n)
    count = sm_count_enumerate(cert.basis, variables, order)
    assert count == cert.sm_count == len(points)
    lms = [g.leading_monomial(order) for g in cert.basis]
    for i, g in enumerate(cert.basis):
        for m in g.terms:
            assert all(lm & ~m for j, lm in enumerate(lms) if j != i), (g, m)
    # sorted by leading monomial, most significant first
    keys = [tuple(bool(lm & var.mask(n)) for var in variables) for lm in lms]
    assert keys == sorted(keys, reverse=True)
