"""Tests for reduction, s-polynomials, Buchberger and standard monomial counts."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_is_reduced_basis,
    rand_generators,
    rand_poly,
    seeded,
    sm_count_enumerate,
)
from quorum_algebra.algebra import (
    BlockLexOrder,
    Polynomial,
    Variable,
    field_shift,
    parse_polynomial,
)
from quorum_algebra.encoding import (
    ProcessSubset,
    SetSystem,
    _field_mask,
    bool_product,
    char_poly,
    overlap_poly,
    system_char_poly,
)
from quorum_algebra.groebner import (
    GroebnerCertificate,
    GroebnerStats,
    IdealBasis,
    buchberger,
    elimination_subbasis,
    normal_form,
    reduce_once,
    spoly,
    standard_monomial_count,
    variety_enumerate,
)

X = BlockLexOrder(("x",))
XY = BlockLexOrder(("x", "y"))


def p(text, n=3):
    return parse_polynomial(text, n)


def test_reduce_once_examples():
    assert reduce_once(p("x1*x2"), p("x1"), X) == Polynomial.zero(3)
    assert reduce_once(p("x1*x2 + 1"), p("x1*x2 + x2"), X) == p("x2 + 1")
    f = p("x1*x2 + x1")
    assert reduce_once(f, f, X).is_zero
    # the cofactor x2 times x2 clamps: x2*(x1 + x2) = x1*x2 + x2
    assert reduce_once(p("x1*x2 + x2"), p("x1 + x2"), X).is_zero
    with pytest.raises(ValueError):
        reduce_once(p("x1"), p("x2"), X)
    with pytest.raises(ValueError):
        reduce_once(p("x1"), Polynomial.zero(3), X)


def test_normal_form_examples():
    f = p("x1*x2 + x2 + 1")
    assert normal_form(f, [f], X).is_zero
    assert normal_form(p("x1*y1"), [p("x1")], XY).is_zero
    assert normal_form(p("x1 + x2"), [p("x1 + 1"), p("x2 + 1")], X).is_zero
    assert normal_form(p("x1*x2 + x1"), [p("x2 + 1")], X).is_zero
    assert normal_form(p("x1 + 1"), [p("x2")], X) == p("x1 + 1")


def test_normal_form_reduces_every_monomial():
    # x1*x2 is below the leading monomial x1*x3 but still reducible
    f = p("x1*x3 + x1*x2")
    assert normal_form(f, [p("x2")], X) == p("x1*x3")


def test_spoly_examples():
    f = p("x1*x2 + x2 + 1")
    assert spoly(f, f, X).is_zero
    assert spoly(p("x1 + 1"), p("x2 + 1"), X) == p("x1 + x2")
    assert spoly(p("x1*x2"), p("x2*x3"), X).is_zero
    with pytest.raises(ValueError):
        spoly(p("x1"), Polynomial.zero(3), X)


def test_buchberger_whole_ring():
    cert = buchberger(IdealBasis((p("1"),), X, 3))
    assert cert.basis == (p("1"),)
    assert cert.sm_count == 0


def test_buchberger_unit_from_sum():
    cert = buchberger(IdealBasis((p("x1", 1), p("x1 + 1", 1)), X, 1))
    assert cert.basis == (p("1", 1),)
    assert cert.sm_count == 0


def test_buchberger_single_monomial():
    cert = buchberger(IdealBasis((p("x1*x2", 2),), X, 2))
    assert cert.basis == (p("x1*x2", 2),)
    assert cert.sm_count == 3


def test_buchberger_zero_ideal():
    cert = buchberger(IdealBasis((), X, 2))
    assert cert.basis == ()
    assert cert.sm_count == 4


def test_boolean_zero_generator_gives_the_zero_ideal():
    # x1^2 + x1 is nonzero in the ordinary ring but zero in the Boolean ring,
    # whose reduced basis of the zero ideal is empty
    assert p("x1*x1 + x1", 2).is_zero
    for order in (X, XY, BlockLexOrder(("y", "x"))):
        cert = buchberger(IdealBasis((), order, 2))
        assert cert.basis == ()
        assert cert.sm_count == 2 ** len(order.variables(2))


def test_buchberger_disjoint_quorums_consistency_ideal():
    # two 2-subsets of {1,2,3} always intersect: flipping the overlap factor
    # leaves an empty variety, so the reduced basis collapses to {1}
    quorums = SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]])
    gens = (
        system_char_poly(quorums, "x"),
        system_char_poly(quorums, "y"),
        bool_product(overlap_poly(3, "x", "y"), 3) + Polynomial.one(3),
    )
    cert = buchberger(IdealBasis(gens, XY, 3))
    assert cert.basis == (Polynomial.one(3),)


def test_basis_is_inter_reduced_and_sorted():
    rng = seeded(7)
    for _ in range(30):
        gens = rand_generators(3, ("x",), rng)
        if not gens:
            continue
        cert = buchberger(IdealBasis(gens, X, 3))
        lms = [g.leading_monomial(X) for g in cert.basis]
        # under the order x alone the masks compare as the order
        assert lms == sorted(lms, reverse=True)
        for i, g in enumerate(cert.basis):
            for m in g.terms:
                for j, lm in enumerate(lms):
                    if i != j:
                        assert lm & ~m


def test_buchberger_is_idempotent():
    rng = seeded(8)
    for _ in range(25):
        gens = rand_generators(3, ("x", "y"), rng)
        if not gens:
            continue
        cert = buchberger(IdealBasis(gens, XY, 3))
        again = buchberger(IdealBasis(cert.basis, XY, 3))
        assert again.basis == cert.basis


def test_spolys_of_output_reduce_to_zero():
    rng = seeded(9)
    for _ in range(25):
        gens = rand_generators(3, ("x",), rng)
        if not gens:
            continue
        cert = buchberger(IdealBasis(gens, X, 3))
        for i in range(len(cert.basis)):
            for j in range(i):
                s = spoly(cert.basis[i], cert.basis[j], X)
                if not s.is_zero:
                    assert normal_form(s, cert.basis, X).is_zero
        # the field pairs: the S-polynomial of g with x^2 + x for x in LM(g)
        # is the Boolean product x*g
        for g in cert.basis:
            for var in X.variables(3):
                if var.mask(3) & g.leading_monomial(X):
                    x = Polynomial.variable(var, 3)
                    assert normal_form(x * g, cert.basis, X).is_zero


def _assert_fold_matches_expansion(gens, products, order, n):
    folded = IdealBasis(tuple(gens), order, n, products=products)
    cert = buchberger(folded)
    assert_is_reduced_basis(folded, cert)
    expanded = tuple(g for g in (bool_product(f, n) for f in products) if not g.is_zero)
    assert buchberger(IdealBasis(tuple(gens) + expanded, order, n)) == cert
    return cert


def test_products_fold_like_their_expansion():
    rng = seeded(16)
    for _ in range(40):
        blocks = rng.choice((("x",), ("x", "y"), ("y", "x"), ("x", "y", "t")))
        n = rng.randint(1, 4)
        gens = rand_generators(n, blocks, rng, max_gens=3)
        products = tuple(
            tuple(rand_poly(n, blocks, rng, max_terms=3) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        )
        _assert_fold_matches_expansion(gens, products, BlockLexOrder(blocks), n)


def test_product_fold_edge_cases():
    gens = (p("x1*x2 + x1", 2),)
    plain = buchberger(IdealBasis(gens, X, 2))
    # a zero factor makes the whole product zero, so it adds nothing
    with_zero = ((p("x2 + 1", 2), Polynomial.zero(2)),)
    assert _assert_fold_matches_expansion(gens, with_zero, X, 2).basis == plain.basis
    # the empty product is 1
    cert = _assert_fold_matches_expansion(gens, ((),), X, 2)
    assert cert.basis == (Polynomial.one(2),) and cert.sm_count == 0
    # x1 is in the ideal, so the product is zero after its first factor
    gens = (p("x1", 2),)
    cert = _assert_fold_matches_expansion(gens, ((p("x1", 2), p("x2 + 1", 2)),), X, 2)
    assert cert.basis == gens and cert.sm_count == 2


def _checked(basis):
    """The engine's certificate for basis, checked against its variety."""
    cert = buchberger(basis)
    assert_is_reduced_basis(basis, cert)
    return cert


def test_criteria_do_not_change_the_basis():
    rng = seeded(10)
    for _ in range(25):
        gens = rand_generators(3, ("x", "y"), rng, max_gens=3, max_terms=4)
        if gens:
            _checked(IdealBasis(gens, XY, 3))


def test_criteria_agree_over_one_to_four_blocks():
    rng = seeded(17)
    for _ in range(120):
        blocks = tuple(rng.sample(("x", "y", "z", "t"), rng.randint(1, 4)))
        n = rng.randint(1, 3)
        gens = rand_generators(n, blocks, rng, max_gens=4, max_terms=4)
        products = tuple(
            tuple(rand_poly(n, blocks, rng, max_terms=3) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2))
        )
        _checked(IdealBasis(gens, BlockLexOrder(blocks), n, products))


def test_criterion_f_keeps_one_pair_of_an_lcm_group():
    # every pair of these three leading monomials has lcm x1*x2*x3: the pair
    # of the first two is pending when the third arrives, and of its two
    # pairs with the same lcm exactly one must still be reduced
    gens = (p("x1*x2"), p("x2*x3 + x2"), p("x1*x3 + x3"))
    cert = _checked(IdealBasis(gens, X, 3))
    assert cert.basis == (p("x1*x3 + x3"), p("x2"))


def test_pending_pair_of_a_retired_element_is_reduced():
    # x1 + x3 retires x1*x2 + x3 while its pair with x2*x3 + 1 (lcm x1*x2*x3)
    # is pending; the pair of x1 + x3 with x2*x3 + 1 has the same lcm but is
    # dropped, because x1*x2 divides it, so the pending pair must survive
    gens = (p("x1*x2 + x3"), p("x2*x3 + 1"), p("x1 + x3"))
    cert = _checked(IdealBasis(gens, X, 3))
    assert cert.basis == (p("x1 + 1"), p("x2 + 1"), p("x3 + 1"))


def test_pending_field_pair_of_a_retired_element_is_reduced():
    # the second copy retires the first while the first's field pairs with
    # x2 and x3 are pending; the copy's own field pairs have the same lcms but
    # are dropped, because the first copy's leading monomial divides x2*x3
    g = p("x2*x3 + 1")
    cert = _checked(IdealBasis((g, g), X, 3))
    assert cert.basis == (p("x2 + 1"), p("x3 + 1"))


def test_stats_balance_and_repeat():
    rng = seeded(18)
    ideals = [
        IdealBasis((p("x1*x2"), p("x2*x3 + x2"), p("x1*x3 + x3")), X, 3),
        IdealBasis((p("x2*x3 + 1"), p("x2*x3 + 1")), X, 3),
        IdealBasis((), X, 2),
    ]
    for _ in range(40):
        blocks = tuple(rng.sample(("x", "y", "z"), rng.randint(1, 3)))
        n = rng.randint(1, 3)
        gens = rand_generators(n, blocks, rng, max_gens=4, max_terms=4)
        products = tuple(
            tuple(rand_poly(n, blocks, rng, max_terms=3) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2))
        )
        ideals.append(IdealBasis(gens, BlockLexOrder(blocks), n, products))
    for basis in ideals:
        cert = _checked(basis)
        s = cert.stats
        reduced = s.reductions_zero + s.reductions_nonzero
        assert s.pairs_queued == reduced + s.dropped_bk
        assert s.products_folded == len(basis.products)
        if s.max_active == 0:
            assert cert.basis == ()
        else:
            assert len(cert.basis) <= s.max_active
        again = buchberger(basis)
        assert again.stats == s and again == cert
        # the counters are not part of the certificate's identity
        assert dataclasses.replace(cert, stats=GroebnerStats()) == cert
    # the two regressions above exercise criterion F and retirement
    assert buchberger(ideals[0]).stats.dropped_mf >= 1
    assert buchberger(ideals[1]).stats.retired >= 1


def _on_block(g, block):
    """g, which lives in block x, with every variable moved to the same index of block."""
    down, up = field_shift("x", g.n), field_shift(block, g.n)
    return Polynomial(g.n, (m >> down << up for m in g.terms))


def _seeded_ideal(rng):
    """Generators over 2-4 blocks: shifted copies of one system, other
    one-block systems, possibly a block whose basis is {1}, cross-block
    generators, a constant and 0-2 products."""
    blocks = tuple(rng.sample(("x", "y", "z", "t"), rng.randint(2, 4)))
    n = rng.randint(1, 3)
    shared = rand_generators(n, ("x",), rng, max_gens=3, max_terms=4)
    gens = []
    for block in blocks:
        draw = rng.random()
        if draw < 0.5:
            gens += [_on_block(g, block) for g in shared]
        elif draw < 0.8:
            gens += rand_generators(n, (block,), rng, max_gens=3, max_terms=4)
        elif draw < 0.9:
            one = Variable(block, rng.randint(1, n))
            gens += [Polynomial.variable(one, n), Polynomial.variable(one, n) + Polynomial.one(n)]
    rng.shuffle(gens)
    gens += rand_generators(n, blocks, rng, max_gens=2, max_terms=3)[: rng.randint(0, 2)]
    if rng.random() < 0.1:
        gens.append(Polynomial.one(n))
    products = tuple(
        tuple(rand_poly(n, blocks, rng, max_terms=3) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2))
    )
    return IdealBasis(tuple(gens), BlockLexOrder(blocks), n, products)


def test_seeded_blocks_give_the_reduced_basis():
    rng = seeded(19)
    for _ in range(150):
        _checked(_seeded_ideal(rng))


def test_one_system_on_two_blocks_is_solved_once():
    quorums = SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]])
    gens = (system_char_poly(quorums, "x"), system_char_poly(quorums, "y"), p("x1*y1"))
    stats = _checked(IdealBasis(gens, XY, 3)).stats
    assert (stats.blocks_solved, stats.blocks_reused) == (1, 1)
    # a block whose system is unsatisfiable seeds {1}, which decides the ideal
    unit = (p("y2"), p("y2 + 1"), p("x1*x2 + x3"))
    cert = buchberger(IdealBasis(unit, XY, 3))
    assert cert.basis == (Polynomial.one(3),) and cert.stats.blocks_solved == 2


def _points(system):
    return frozenset(_field_mask(m) for m in system)


point_systems = st.integers(1, 6).flatmap(
    lambda n: st.sets(st.integers(0, (1 << n) - 1)).map(
        lambda masks: SetSystem(n, (ProcessSubset(m, n) for m in sorted(masks)))
    )
)


def _assert_points_match_char_poly(system, block):
    """The basis built from the points equals Buchberger's on the char poly."""
    n = system.n
    by_points = IdealBasis((), XY, n, points=((block, _points(system)),))
    char = system_char_poly(system, block)
    by_poly = IdealBasis(() if char.is_zero else (char,), XY, n)
    cert = _checked(by_points)
    assert cert == buchberger(by_poly)
    assert (cert.stats.blocks_solved, cert.stats.pairs_queued) == (1, 0)
    return cert


@settings(deadline=None)
@given(system=point_systems, block=st.sampled_from(("x", "y")))
def test_point_basis_matches_buchberger_on_the_char_poly(system, block):
    _assert_points_match_char_poly(system, block)


def test_point_basis_of_no_points_and_of_the_whole_cube():
    for n in range(1, 7):
        for block in ("x", "y"):
            empty = _assert_points_match_char_poly(SetSystem(n, ()), block)
            assert empty.basis == (Polynomial.one(n),)
            cube = (ProcessSubset(m, n) for m in range(1 << n))
            assert _assert_points_match_char_poly(SetSystem(n, cube), block).basis == ()
    # the whole cube returns its empty basis at once, however large it is
    cube = IdealBasis((), XY, 12, points=(("x", range(1 << 12)), ("y", {0})))
    cert = buchberger(cube)
    assert cert.sm_count == 1 << 12 and len(cert.basis) == 12


def test_point_bases_are_solved_once_per_set():
    pts = _points(SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]]))
    order = BlockLexOrder(("x", "y", "t"))
    cert = _checked(IdealBasis((), order, 3, points=(("x", pts), ("y", pts), ("t", {0}))))
    assert (cert.stats.blocks_solved, cert.stats.blocks_reused) == (2, 1)


def test_products_vanishing_on_the_points_are_not_folded():
    def run(quorums, **kwargs):
        points = (("x", _points(quorums)), ("y", _points(quorums)))
        basis = IdealBasis((), XY, 3, products=(overlap_poly(3, "x", "y"),), points=points)
        return _checked(dataclasses.replace(basis, **kwargs)).stats

    # every two of these quorums meet, so the overlap product is zero on V0
    meeting = SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]])
    stats = run(meeting)
    assert (stats.products_vanished, stats.products_folded, stats.pairs_queued) == (1, 0, 0)
    # {1} and {2} do not meet, so the product is 1 there and is folded
    stats = run(SetSystem.from_lists(3, [[1], [2]]))
    assert (stats.products_vanished, stats.products_folded) == (0, 1)
    # with a generator left over, or a block without points, nothing is evaluated
    stats = run(meeting, generators=(p("x1*y1*y2"),))
    assert (stats.products_vanished, stats.products_folded) == (0, 1)
    stats = run(meeting, points=(("x", _points(meeting)),))
    assert (stats.products_vanished, stats.products_folded) == (0, 1)
    # no point at all: every product vanishes, and the ideal is <1>
    stats = run(meeting, points=(("x", set()), ("y", _points(meeting))))
    assert (stats.products_vanished, stats.products_folded) == (1, 0)


def test_sm_count_for_leaves_the_certificate_unchanged():
    basis = IdealBasis((p("x1*y1 + y1", 2),), BlockLexOrder(("y", "x")), 2)
    a, b = buchberger(basis), buchberger(basis)
    assert b.sm_count_for(("x",)) == b.sm_count_for(("x",)) == 4
    assert a == b


def test_ideal_membership_matches_evaluation():
    rng = seeded(11)
    for _ in range(20):
        gens = rand_generators(3, ("x",), rng)
        if not gens:
            continue
        cert = buchberger(IdealBasis(gens, X, 3))
        # a random combination of generators lies in the ideal
        member = Polynomial.zero(3)
        for g in gens:
            member = member + rand_poly(3, ("x",), rng, 3) * g
        assert normal_form(member, cert.basis, X).is_zero
        variety = variety_enumerate(gens, ("x",), 3)
        vs = [Variable("x", i) for i in range(1, 4)]
        for point in variety:
            assert member.evaluate(dict(zip(vs, point))) == 0


def test_sm_count_equals_variety_size():
    rng = seeded(12)
    for _ in range(40):
        gens = rand_generators(4, ("x",), rng)
        cert = buchberger(IdealBasis(gens, BlockLexOrder(("x",)), 4))
        assert cert.sm_count == len(variety_enumerate(gens, ("x",), 4))


def test_standard_monomial_count_examples():
    x1 = Variable("x", 1)
    x2 = Variable("x", 2)
    assert standard_monomial_count([p("x1", 1)], [x1], X) == 1
    assert standard_monomial_count([], [x1, x2], X) == 4
    assert standard_monomial_count([p("x1*x2", 2)], [x1, x2], X) == 3


def test_standard_monomial_count_methods_agree():
    rng = seeded(13)
    for _ in range(30):
        gens = rand_generators(3, ("x", "y"), rng)
        if not gens:
            continue
        cert = buchberger(IdealBasis(gens, XY, 3))
        vs = XY.variables(3)
        recurse = standard_monomial_count(cert.basis, vs, XY)
        assert recurse == sm_count_enumerate(cert.basis, vs, XY) == cert.sm_count


def test_standard_monomial_count_rejects_foreign_variables():
    with pytest.raises(ValueError):
        standard_monomial_count([p("x1*y1")], [Variable("x", 1)], XY)


def test_elimination_subbasis_examples():
    order = BlockLexOrder(("x", "y"))
    g1, g2 = p("x1 + y1", 1), p("y1", 1)
    cert = GroebnerCertificate(basis=(g1, g2), order=order, n=1, sm_count=0)
    assert elimination_subbasis(cert, ("y",)) == (g2,)
    cert = GroebnerCertificate(basis=(p("1", 1),), order=order, n=1, sm_count=0)
    assert elimination_subbasis(cert, ("y",)) == (p("1", 1),)
    with pytest.raises(ValueError):
        elimination_subbasis(cert, ("x",))


def test_elimination_matches_projection_and_extension():
    rng = seeded(14)
    order = BlockLexOrder(("y", "x"))
    for _ in range(30):
        n = rng.randint(1, 3)
        gens = rand_generators(n, ("y", "x"), rng)
        cert = buchberger(IdealBasis(gens, order, n))
        sub = elimination_subbasis(cert, ("x",))
        full = variety_enumerate(gens, ("y", "x"), n)
        kept = variety_enumerate(sub, ("x",), n)
        assert {point[n:] for point in full} == kept


def test_availability_subbasis_variety():
    quorums = SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]])
    singles = SetSystem.from_lists(3, [[1], [2], [3]])
    order = BlockLexOrder(("y", "x"))
    gens = (
        system_char_poly(singles, "x"),
        system_char_poly(quorums, "y"),
        bool_product(overlap_poly(3, "x", "y"), 3) + Polynomial.one(3),
    )
    cert = buchberger(IdealBasis(gens, order, 3))
    sub = elimination_subbasis(cert, ("x",))
    assert variety_enumerate(sub, ("x",), 3) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert cert.sm_count_for(("x",)) == 3


def test_variety_enumerate_examples():
    assert variety_enumerate([p("1", 2)], ("x",), 2) == frozenset()
    assert len(variety_enumerate([], ("x",), 2)) == 4
    a = ProcessSubset.from_indices((1, 3), 3)
    gens = [char_poly(a, "x").expand() + Polynomial.one(3)]
    assert variety_enumerate(gens, ("x",), 3) == {(1, 0, 1)}


def test_variety_enumerate_budget():
    with pytest.raises(ValueError):
        variety_enumerate([], ("x", "y", "z", "t"), 7)
    assert len(variety_enumerate([], ("x", "y"), 2, limit=4)) == 16
    with pytest.raises(ValueError):
        variety_enumerate([], ("x", "y"), 3, limit=4)


def test_variety_agrees_with_direct_evaluation():
    rng = seeded(15)
    for _ in range(15):
        n = rng.randint(1, 3)
        gens = rand_generators(n, ("x", "y"), rng)
        vs = [Variable(b, i) for b in ("x", "y") for i in range(1, n + 1)]
        expected = set()
        for mask in range(1 << len(vs)):
            bits = tuple((mask >> k) & 1 for k in range(len(vs)))
            if all(g.evaluate(dict(zip(vs, bits))) == 0 for g in gens):
                expected.add(bits)
        assert variety_enumerate(gens, ("x", "y"), n) == expected


def test_exponent_overflow_retries():
    # a variable repeated 16 times is the variable itself: x1^16 = x1
    f = p("*".join(["x1"] * 16) + " + 1", 1)
    cert = buchberger(IdealBasis((f,), X, 1))
    assert cert.basis == (p("x1 + 1", 1),)


def test_idealbasis_validation():
    with pytest.raises(ValueError):
        IdealBasis((Polynomial.zero(3),), X, 3)
    with pytest.raises(ValueError):
        IdealBasis((p("y1"),), X, 3)
    with pytest.raises(ValueError):
        IdealBasis((p("x1", 2),), X, 3)


def test_idealbasis_validates_points():
    pts = frozenset({0b101})
    with pytest.raises(ValueError, match="outside"):
        IdealBasis((), X, 3, points=(("y", pts),))
    with pytest.raises(ValueError, match="twice"):
        IdealBasis((), XY, 3, points=(("x", pts), ("x", pts)))
    with pytest.raises(ValueError, match="masks of 3 bits"):
        IdealBasis((), X, 3, points=(("x", {0b1000}),))
    with pytest.raises(ValueError, match="masks of 3 bits"):
        IdealBasis((), X, 3, points=(("x", {-1}),))
    # the union of the point basis and a basis of x's own generators would
    # not be a Groebner basis of the sum
    with pytest.raises(ValueError, match="only in a block"):
        IdealBasis((p("x1 + x2"),), XY, 3, points=(("x", pts),))
    # a generator over both blocks, or one on another block, is fine
    IdealBasis((p("x1*y1"), p("y2")), XY, 3, points=(("x", pts),))


def test_idealbasis_validates_products():
    with pytest.raises(TypeError):
        IdealBasis((), X, 3, products=((p("x1"), "x2"),))
    with pytest.raises(TypeError):
        IdealBasis((), X, 3, products=(p("x1 + x2"),))  # a polynomial, not a factor tuple
    with pytest.raises(ValueError):
        IdealBasis((), X, 3, products=((p("x1", 2),),))
    with pytest.raises(ValueError):
        IdealBasis((), X, 3, products=((p("x1"), p("y1")),))
