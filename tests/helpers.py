"""Seeded random generators, the engine-free basis check and the frozenset
oracle reference shared by the test modules."""

import random
from itertools import combinations, product

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


def expansions(products, n):
    """The nonzero expansions of products' factor tuples, as generators: an
    ideal without points takes its products this way."""
    return tuple(g for g in (bool_product(factors, n) for factors in products) if not g.is_zero)


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
    assert cert.leading == tuple(p[0] for p in cert.masks)
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


# Reference transcription of the oracle definitions on frozensets of process
# indices, in the oracle's enumeration order. Each returns (holds, witness).


def _sets(system):
    return [frozenset(m.indices) for m in system.members]


def ref_consistency_classical(quorums):
    qs = _sets(quorums)
    for q1 in qs:
        for q2 in qs:
            if not q1 & q2:
                return False, (q1, q2)
    return True, None


def ref_availability(quorums, fail_prone):
    qs = _sets(quorums)
    for f in _sets(fail_prone):
        if not any(not (q & f) for q in qs):
            return False, (f,)
    return True, None


def ref_consistency_dissemination(quorums, fail_prone):
    qs, fs = _sets(quorums), _sets(fail_prone)
    for q1 in qs:
        for q2 in qs:
            for f in fs:
                if q1 & q2 <= f:
                    return False, (q1, q2, f)
    return True, None


def ref_consistency_masking(quorums, fail_prone):
    qs, fs = _sets(quorums), _sets(fail_prone)
    for q1 in qs:
        for q2 in qs:
            for f1 in fs:
                for f2 in fs:
                    if (q1 & q2) - f1 <= f2:
                        return False, (q1, q2, f1, f2)
    return True, None


def ref_no_cover(fail_prone, k):
    for sets in product(_sets(fail_prone), repeat=k):
        if len(frozenset().union(*sets)) == fail_prone.n:
            return False, sets
    return True, None


def ref_fstar(fail_prone):
    """The downward closure's members, by size then sorted indices."""
    closure = set()
    for s in _sets(fail_prone):
        for k in range(len(s) + 1):
            closure.update(frozenset(c) for c in combinations(sorted(s), k))
    return sorted(closure, key=lambda s: (len(s), sorted(s)))


def ref_antichain(system):
    return not any(a < b or b < a for a, b in combinations(_sets(system), 2))


def ref_antichain_systems(n, max_members):
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    return [
        SetSystem.from_lists(n, [sorted(s) for s in combo])
        for r in range(1, max_members + 1)
        for combo in combinations(subsets, r)
        if not any(a < b or b < a for a, b in combinations(combo, 2))
    ]
