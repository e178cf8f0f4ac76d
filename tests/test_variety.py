"""Tests for the lex game that builds reduced bases of Boolean point ideals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_is_reduced_basis, seeded
from quorum_algebra import variety
from quorum_algebra.algebra import BlockLexOrder, gf2_zeta, parse_polynomial
from quorum_algebra.checkers import check_q3, check_q4, threshold_system
from quorum_algebra.groebner import IdealBasis, buchberger
from quorum_algebra.variety import LexGame, TooLarge, _standard


@st.composite
def games(draw):
    """A one- or two-block game on n <= 3, a point set P of its top level's
    table and values within P."""
    n = draw(st.integers(1, 3))
    fields = [(0, [])]
    if draw(st.booleans()):  # a lower block of points S_1
        lower = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
        fields = [(n, []), (0, sorted(lower))]
    game = LexGame(fields, n)
    size = game.units[0] << n
    points = draw(st.integers(0, (1 << size) - 1))
    values = draw(st.integers(0, (1 << size) - 1)) & points
    return game, points, values


def _points_of(game, table):
    """The points (top mask, lower point) of a top-level table, as masks of
    all the game's variables."""
    u = game.units[0]
    lower = game.pts[1] if len(game.pts) > 1 else [0]
    shift = game.n if len(game.pts) > 1 else 0
    return [(m // u) << shift | lower[m % u] for m in range(u << game.n) if table >> m & 1]


@settings(deadline=None, max_examples=200)
@given(drawn=games())
def test_interpolate_takes_the_values_on_standard_monomials(drawn):
    game, points, values = drawn
    f = game.interpolate(0, game.n, points, values)
    (poly,) = game.polynomials([f], 0)
    # it takes values on points
    for p in _points_of(game, points):
        value = sum(1 for t in poly if t & ~p == 0) & 1
        assert value == (p in _points_of(game, values))
    # its monomials are standard for I(points), the lex game on all variables
    v = game.n * len(game.pts)
    std = _standard(sum(1 << p for p in _points_of(game, points)), 1 << v)
    assert all(std >> t & 1 for t in poly)
    # all ones give the constant 1
    if points:
        assert game.interpolate(0, game.n, points, points) == (1 << game.units[0]) - 1


@st.composite
def spread_tables(draw):
    """A game of one to three blocks on n <= 3, a block b of it and a table
    over S_b x W_b."""
    n = draw(st.integers(1, 3))
    blocks = draw(st.integers(1, 3))
    fields = [
        (n * (blocks - 1 - i), sorted(draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))))
        for i in range(blocks)
    ]
    game = LexGame(fields, n)
    b = draw(st.integers(0, blocks - 1))
    bits = draw(st.integers(0, (1 << (len(game.pts[b]) * game.units[b])) - 1))
    return game, b, bits


@settings(deadline=None, max_examples=200)
@given(drawn=spread_tables())
def test_spread_and_gather_move_each_points_run(drawn):
    """spread moves bit i * u + w, point i's, to p_i * u + w, bit by bit;
    gather undoes it."""
    game, b, bits = drawn
    u, pts = game.units[b], game.pts[b]
    table = game.spread(bits, b)
    moved = {pts[i] * u + w for i in range(len(pts)) for w in range(u) if bits >> (i * u + w) & 1}
    assert table == sum(1 << k for k in moved)
    # the run of every mask that is not a point stays zero
    assert all(not table >> m * u & ((1 << u) - 1) for m in range(1 << game.n) if m not in pts)
    assert game.gather(table, b) == bits


@pytest.mark.parametrize("batch_bits", [1, 13])
def test_polynomials_across_batch_boundaries(monkeypatch, batch_bits):
    """Stacks of one run (batch_bits 1) or of a few runs that cut across
    tables give the elements one stack gives. Three blocks, the lower two
    with 3 and 2 points, so y's values lie at stride 2 in level x's runs."""
    seen = _stops(monkeypatch)
    B = IdealBasis(
        (parse_polynomial("x1*y2 + y1*z2 + x2*z1", 2),), BlockLexOrder(("x", "y", "z")), 2,
        points=(("x", {0b00, 0b01, 0b11}), ("y", {0b00, 0b01, 0b10}), ("z", {0b01, 0b11})),
    )
    whole = buchberger(B)
    monkeypatch.setattr(variety, "_BATCH_BITS", batch_bits)
    cert = buchberger(B)
    assert seen == [(3, 2), (3, 2)]
    assert cert.basis == whole.basis
    assert_is_reduced_basis(B, cert)


def test_each_leaf_descends_once(monkeypatch):
    """q4 at n=4, f=1 descends into the next block once per distinct
    (level, points, values) leaf."""
    descents = []
    real = LexGame.interpolate

    def interpolate(self, b, j, points, values):
        if b > 0 and j == self.n:  # only a leaf of level b - 1 calls in at the top
            descents.append((b, points, values))
        return real(self, b, j, points, values)

    monkeypatch.setattr(LexGame, "interpolate", interpolate)
    assert not check_q4(threshold_system(4, 1, "classical")[1]).holds
    assert (len(descents), len(set(descents))) == (31, 31)


@pytest.mark.parametrize("check, n, f, transforms", [(check_q4, 4, 1, 176), (check_q3, 4, 2, 349)])
def test_game_transforms_only_what_it_reads(monkeypatch, check, n, f, transforms):
    """interpolate turns f1 into values only when P1 - P0 is nonempty, basis
    interpolates no f0 when P1 lies in P0, and a transform over no
    variables is the table itself, so these checks make this many zeta
    transforms over one or more variables (271 and 378 when every
    computed transform was made)."""
    sizes = []
    real = LexGame._zeta

    def zeta(self, table, v, u):
        if v:
            sizes.append(v)
        return real(self, table, v, u)

    monkeypatch.setattr(LexGame, "_zeta", zeta)
    check(threshold_system(n, f, "classical")[1])
    assert len(sizes) == transforms


def test_leaves_count_toward_the_budget(monkeypatch):
    """A budget that the element tables and the lifted bases alone fit
    raises TooLarge once the leaves' interpolants, the spread leaf point
    sets and the zeta masks are counted too."""
    seen = []
    real = LexGame.elements

    def elements(self, v):
        seen.append((list(zip(self.shifts, self.pts)), self.n, v))
        return real(self, v)

    monkeypatch.setattr(LexGame, "elements", elements)
    check_q4(threshold_system(4, 1, "classical")[1])
    (fields, n, v), = seen
    game = LexGame(fields, n)
    game.basis(0, n, game.spread(v, 0))
    # a node over j variables adds its new elements at keys from u << (j - 1) on
    tables = sum(
        g.bit_length()
        for (b, j, _), basis in game.memo.items() if j
        for m, g in basis.items() if m >= game.units[b] << (j - 1)
    )
    # a node over no variables holds the basis lifted from the level below
    lifted = sum(g.bit_length() for (_, j, _), basis in game.memo.items() if not j for g in basis.values())
    leaves = sum(p.bit_length() + w.bit_length() + f.bit_length() for (_, p, w), f in game.leaves.items())
    spreads = sum(p.bit_length() + t.bit_length() for (_, p), t in game.spreads.items())
    masks = sum(pat.bit_length() for steps in game.zetas.values() for _, pat in steps)
    assert lifted > 0 and leaves > 0 and spreads > 0 and masks > 0
    assert game.bits == tables + lifted + leaves + spreads + masks
    with pytest.raises(TooLarge):
        LexGame(fields, n, tables + lifted).elements(v)
    game = LexGame(fields, n, game.bits)
    assert game.elements(v) == real(LexGame(fields, n), v)
    assert not (game.memo or game.leaves or game.spreads or game.zetas)  # freed when the game ends



def test_game_keeps_one_zeta_plan_per_size():
    """A game's transforms match gf2_zeta over mixed (v, unit), keep one list
    of masks per size and count its bits toward the budget."""
    game = LexGame([(0, [0, 3]), (2, [1, 2, 3])], 2)
    rng = seeded(5)
    sizes = [(2, 3), (1, 3), (2, 1), (2, 3), (0, 2), (1, 3), (2, 1)]
    for v, u in sizes:
        table = rng.getrandbits(u << v)
        assert game._zeta(table, v, u) == gf2_zeta(table, v, u)
        if not v:
            assert game._zeta(table, v, u) == table
    # a transform over no variables keeps no plan
    assert sorted(game.zetas) == sorted({(v, u) for v, u in sizes if v})
    assert game.bits == sum(pat.bit_length() for steps in game.zetas.values() for _, pat in steps)


def _per_point(gens, products, fields, n):
    """evaluate's V and vanished count, one point of V0 at a time."""
    (shift, top), (_, lower) = fields

    def value(poly, point):
        return sum(1 for t in poly if t & ~point == 0) & 1

    variety, nonzero = 0, [False] * len(products)
    for i, point in enumerate(q << shift | w for q in top for w in lower):
        zeros = [any(not value(f, point) for f in factors) for factors in products]
        nonzero = [seen or not zero for seen, zero in zip(nonzero, zeros)]
        if all(zeros) and not any(value(g, point) for g in gens):
            variety |= 1 << i
    return variety, nonzero.count(False)


def test_evaluate_matches_the_points_on_a_wide_block():
    """On the 495 quorums of n=12, f=2 as the top block, whose spread tables
    are hundreds of bits wide, evaluate gives the V of the per-point
    definition. Below a block with no points the step is 0, and V0 and V
    are empty."""
    n = 12
    top = sorted(q.mask for q in threshold_system(n, 2, "classical")[0])
    assert len(top) == 495
    rng = seeded(31)

    def poly():
        return tuple(sum(1 << k for k in rng.sample(range(2 * n), rng.randint(1, 3))) for _ in range(3))

    gens = [poly(), poly()]
    products = [[poly(), poly()], [poly()]]
    for lower in ([0b1, 0b110, 0xfff], []):
        fields = [(n, top), (0, lower)]
        assert variety.evaluate(gens, products, fields, n) == _per_point(gens, products, fields, n)


def _stops(monkeypatch):
    """The (blocks, k) of every game's elements call from now on."""
    seen = []
    real = LexGame.elements

    def elements(self, v):
        found, k = real(self, v)
        seen.append((len(self.pts), k))
        return found, k

    monkeypatch.setattr(LexGame, "elements", elements)
    return seen


def test_a_variety_that_is_a_product_plays_no_game(monkeypatch):
    """V = {01} x {01, 11} is less than V0 but all of the product of its
    projections: after shrink the game stops at level 0 with no basis call,
    and the two point bases are the basis."""
    calls = []
    real = LexGame.basis

    def basis(self, b, j, points):
        if len(self.pts) > 1:
            calls.append((b, j, points))
        return real(self, b, j, points)

    monkeypatch.setattr(LexGame, "basis", basis)
    seen = _stops(monkeypatch)
    B = IdealBasis(
        (parse_polynomial("x1", 2),), BlockLexOrder(("x", "y")), 2,
        points=(("x", {0b01, 0b10}), ("y", {0b01, 0b11})),
    )
    cert = buchberger(B)
    assert (calls, seen, cert.stats.blocks_solved) == ([], [(2, 0)], 2)
    assert_is_reduced_basis(B, cert)


def test_q4_stops_below_the_top_block(monkeypatch):
    """q4 at n=4, f=1: V's projection onto y, z, t is all of their product."""
    seen = _stops(monkeypatch)
    cert = check_q4(threshold_system(4, 1, "classical")[1]).certificate
    assert seen == [(4, 1)]
    assert (cert.stats.blocks_solved, cert.stats.blocks_reused) == (1, 2)


def test_each_level_adds_the_elements_that_lead_with_its_block(monkeypatch):
    """A generator on all four blocks: V's projection onto z and t is the
    product of the points V uses there, its projection onto y, z and t is
    not. Levels x and y each add an element with terms in the blocks below,
    and the point bases of z and t are the rest."""
    seen = _stops(monkeypatch)
    points = (("x", {0b00, 0b11}), ("y", {0b01, 0b10}), ("z", {0b10, 0b11}), ("t", {0b00, 0b10, 0b11}))
    B = IdealBasis(
        (parse_polynomial("x2*t2 + y2*z1*z2*t1", 2),), BlockLexOrder(("x", "y", "z", "t")), 2,
        points=points,
    )
    cert = buchberger(B)
    assert seen == [(4, 2)]
    assert (cert.stats.blocks_solved, cert.sm_count) == (2, 18)
    assert_is_reduced_basis(B, cert)
