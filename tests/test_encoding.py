"""Tests for incidence encodings, characteristic polynomials and relation polynomials."""

from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import seeded
from quorum_algebra.algebra import BLOCKS, Polynomial, Variable
from quorum_algebra.encoding import (
    CharPoly,
    ProcessSubset,
    SetSystem,
    bool_product,
    char_poly,
    cover_poly,
    downset_poly,
    fixed_containment_poly,
    overlap_poly,
    phi,
    phi_inv,
    system_char_poly,
    uncovered_meet_poly,
)
from quorum_algebra.groebner import variety_enumerate
from quorum_algebra.oracle import fstar_enumerate

subsets = st.integers(1, 5).flatmap(
    lambda n: st.builds(ProcessSubset, st.integers(0, (1 << n) - 1), st.just(n))
)


def point(n, **block_masks):
    """Assignment sending each block's variables to the bits of its mask."""
    return {
        Variable(b, i): (mask >> (i - 1)) & 1
        for b, mask in block_masks.items()
        for i in range(1, n + 1)
    }


def test_process_subset_basics():
    s = ProcessSubset.from_indices((1, 3, 4), 5)
    assert s.vector == (1, 0, 1, 1, 0)
    assert s.indices == (1, 3, 4)
    assert s.size == 3
    assert str(s) == "{P1,P3,P4}"
    assert s.vector_str() == "(1,0,1,1,0)"
    assert s.complement().indices == (2, 5)
    with pytest.raises(ValueError):
        ProcessSubset.from_indices((0,), 5)
    with pytest.raises(ValueError):
        ProcessSubset.from_indices((6,), 5)


@given(s=subsets)
def test_phi_round_trip(s):
    assert phi(phi_inv(s), s.n) == s
    assert phi(s.indices, s.n) == s


@given(a=subsets)
def test_set_operations_match_masks(a):
    b = ProcessSubset(a.mask ^ ((1 << a.n) - 1), a.n)
    assert a.union(b).mask == (1 << a.n) - 1
    assert a.intersection(b).mask == 0
    assert a.difference(b) == a
    assert a.is_subset_of(a.union(b))


def test_set_system_dedup_and_antichain():
    with pytest.raises(ValueError):
        SetSystem.from_lists(3, [[1, 2], [2, 1]])
    assert SetSystem.from_lists(3, [[1], [2, 3]]).is_antichain
    assert not SetSystem.from_lists(3, [[1], [1, 2]]).is_antichain
    assert SetSystem.from_lists(3, [[1, 2], [3]]).complements() == SetSystem.from_lists(
        3, [[3], [1, 2]]
    )


def test_is_antichain_matches_its_definition():
    def brute(system):
        ms = system.members
        return not any(a != b and a.mask & b.mask == a.mask for a in ms for b in ms)

    rng = seeded(21)
    for _ in range(300):
        n = rng.randint(1, 6)
        masks = rng.sample(range(1 << n), rng.randint(1, min(12, 1 << n)))
        system = SetSystem(n, (ProcessSubset(m, n) for m in masks))
        assert system.is_antichain == brute(system)
        # a downward closure with a nonempty member holds the empty set below it
        if any(masks):
            closure = fstar_enumerate(system)
            assert not closure.is_antichain and not brute(closure)
    for n in range(1, 5):
        for mask in range(1 << n):
            assert SetSystem(n, (ProcessSubset(mask, n),)).is_antichain


def test_char_poly_is_the_indicator():
    s = ProcessSubset.from_indices((2, 3), 3)
    f = char_poly(s, "y").expand()
    for mask in range(8):
        value = f.evaluate(point(3, y=mask))
        assert value == (1 if mask == s.mask else 0)


def test_char_poly_monomials():
    s = ProcessSubset.from_indices((2, 3, 4, 6), 6)
    c = char_poly(s, "y")
    assert str(c.trailing_monomial()) == "y2*y3*y4*y6"
    assert str(c.leading_monomial()) == "y1*y2*y3*y4*y5*y6"
    assert len(c.expand()) == 4


def test_system_char_poly_vanishes_exactly_on_members():
    rng = seeded(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        members = set(rng.sample(range(1 << n), rng.randint(1, 1 << n)))
        system = SetSystem(n, (ProcessSubset(m, n) for m in members))
        f = system_char_poly(system, "x")
        for mask in range(1 << n):
            assert f.evaluate(point(n, x=mask)) == (0 if mask in members else 1)


def _system_char_poly_by_definition(system, block):
    """The product of (char poly + 1) over the members, multiplied out."""
    one = Polynomial.one(system.n)
    return bool_product((char_poly(m, block).expand() + one for m in system), system.n)


def test_system_char_poly_matches_its_definition():
    rng = seeded(23)
    cases = []
    for n in range(1, 7):
        full = 1 << n
        cases += [
            (n, []),
            (n, [0]),
            (n, [rng.randrange(full)]),
            (n, [0] + rng.sample(range(1, full), rng.randint(1, full - 1))),
        ]
        cases += [(n, rng.sample(range(full), rng.randint(1, full))) for _ in range(3)]
    for k, (n, masks) in enumerate(cases):
        system = SetSystem(n, (ProcessSubset(m, n) for m in masks))
        block = BLOCKS[k % len(BLOCKS)]
        f = system_char_poly(system, block)
        assert f == _system_char_poly_by_definition(system, block), (n, masks, block)
        if not masks:
            assert f.is_one


def test_system_char_poly_of_full_powerset_is_zero():
    for n in (2, 3, 5):
        system = SetSystem(n, (ProcessSubset(m, n) for m in range(1 << n)))
        for block in BLOCKS:
            assert system_char_poly(system, block).is_zero
            assert _system_char_poly_by_definition(system, block).is_zero


def test_system_char_poly_at_twelve_processes():
    system = SetSystem.from_lists(12, combinations(range(1, 13), 4))
    assert len(system) == 495
    f = system_char_poly(system, "x")
    assert len(f) == 3005
    assert variety_enumerate([f], ("x",), 12) == {m.vector for m in system}


def test_factored_intersection_union_difference():
    rng = seeded(22)
    for _ in range(40):
        n = rng.randint(1, 6)
        q = ProcessSubset(rng.randint(0, (1 << n) - 1), n)
        r = ProcessSubset(rng.randint(0, (1 << n) - 1), n)
        f = ProcessSubset(rng.randint(0, (1 << n) - 1), n)
        cq, cr, cf = char_poly(q, "y"), char_poly(r, "y"), char_poly(f, "y")
        assert cq.intersect(cr).support == q.intersection(r)
        assert cq.union(cr).support == q.union(r)
        assert cq.difference_within(cr, cf).support == q.intersection(r).difference(f)
        assert cq.intersect(cr).expand() == char_poly(q.intersection(r), "y").expand()
        assert cq.union(cr).expand() == char_poly(q.union(r), "y").expand()


def test_complement_quotient_identity():
    # characteristic polynomials are orthogonal idempotents of the Boolean
    # ring: xi_Q * xi_Q = xi_Q, and xi_Q * xi_Qc = 0 = xi_P * xi_empty
    rng = seeded(23)
    for _ in range(20):
        n = rng.randint(1, 5)
        q = ProcessSubset(rng.randint(0, (1 << n) - 1), n)
        xi = char_poly(q, "y").expand()
        assert xi * xi == xi
        assert (xi * char_poly(q.complement(), "y").expand()).is_zero
        full = ProcessSubset((1 << n) - 1, n)
        empty = ProcessSubset(0, n)
        assert (char_poly(full, "y").expand() * char_poly(empty, "y").expand()).is_zero


def test_ring_operations_axioms():
    rng = seeded(24)
    n = 5
    subs = [ProcessSubset(rng.randint(0, 31), n) for _ in range(12)]
    polys = [char_poly(s, "y") for s in subs]
    empty = char_poly(ProcessSubset(0, n), "y")
    full = char_poly(ProcessSubset(31, n), "y")
    for a, b, c in zip(polys, polys[1:], polys[2:]):
        assert a.ring_add(b) == b.ring_add(a)
        assert a.ring_mul(b) == b.ring_mul(a)
        assert a.ring_add(b).ring_add(c) == a.ring_add(b.ring_add(c))
        assert a.ring_mul(b).ring_mul(c) == a.ring_mul(b.ring_mul(c))
        assert a.ring_mul(b.ring_add(c)) == a.ring_mul(b).ring_add(a.ring_mul(c))
        assert a.ring_add(a) == empty
        assert a.ring_mul(a) == a
        assert a.ring_add(empty) == a
        assert a.ring_mul(full) == a


def test_ring_addition_is_symmetric_difference():
    a = char_poly(ProcessSubset.from_indices((1, 2), 3), "y")
    b = char_poly(ProcessSubset.from_indices((2, 3), 3), "y")
    assert phi_inv(a.ring_add(b).support) == frozenset({1, 3})
    assert phi_inv(a.ring_mul(b).support) == frozenset({2})


def test_fixed_containment_poly_truth_table():
    n = 3
    outer = ProcessSubset.from_indices((1, 3), n)
    f = fixed_containment_poly(outer, "t")
    for inner in range(8):
        assert f.evaluate(point(n, t=inner)) == (0 if inner & ~outer.mask == 0 else 1)


def test_overlap_poly_truth_table():
    n = 3
    f = bool_product(overlap_poly(n, "x", "y"), n)
    for a, b in product(range(8), repeat=2):
        assert f.evaluate(point(n, x=a, y=b)) == (0 if a & b else 1)


def test_uncovered_meet_poly_truth_table():
    n = 2
    f = bool_product(uncovered_meet_poly(n, ("x", "y"), "t"), n)
    for a, b, t in product(range(4), repeat=3):
        escapes = (a & b) & ~t != 0
        assert f.evaluate(point(n, x=a, y=b, t=t)) == (0 if escapes else 1)
    with pytest.raises(ValueError):
        uncovered_meet_poly(n, ("x",), "t")


def test_uncovered_meet_poly_three_blocks():
    n = 2
    f = bool_product(uncovered_meet_poly(n, ("x", "y", "z"), "t"), n)
    for a, b, c, t in product(range(4), repeat=4):
        escapes = (a & b & c) & ~t != 0
        assert f.evaluate(point(n, x=a, y=b, z=c, t=t)) == (0 if escapes else 1)


def test_downset_poly_vanishes_exactly_on_closure():
    rng = seeded(25)
    for _ in range(15):
        n = rng.randint(1, 4)
        members = {rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(1, 3))}
        system = SetSystem(n, (ProcessSubset(m, n) for m in members))
        closure = {m.mask for m in fstar_enumerate(system)}
        f = bool_product(downset_poly(system, "t"), n)
        for mask in range(1 << n):
            expected = 0 if mask in closure else 1
            if f.is_zero:
                assert mask in closure
            else:
                assert f.evaluate(point(n, t=mask)) == expected


def test_cover_poly_truth_table():
    n = 2
    f = bool_product(cover_poly(n, ("x", "y", "t")), n)
    for a, b, t in product(range(4), repeat=3):
        covers = (a | b | t) == 3
        assert f.evaluate(point(n, x=a, y=b, t=t)) == (1 if covers else 0)
    with pytest.raises(ValueError):
        cover_poly(n, ("x",))


def test_bool_product_clamps_exponents():
    x1 = Polynomial.variable(Variable("x", 1), 1)
    assert bool_product([x1, x1], 1) == x1
    assert bool_product([], 1) == Polynomial.one(1)


def test_char_poly_block_and_dimension_checks():
    a = char_poly(ProcessSubset.from_indices((1,), 2), "x")
    b = char_poly(ProcessSubset.from_indices((1,), 2), "y")
    with pytest.raises(ValueError):
        a.intersect(b)
    c = char_poly(ProcessSubset.from_indices((1,), 3), "x")
    with pytest.raises(ValueError):
        a.union(c)
