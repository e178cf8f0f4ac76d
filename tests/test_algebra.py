"""Tests for monomial masks, polynomials, the block order and the text grammar."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_poly, seeded
from quorum_algebra.algebra import (
    BLOCKS,
    BlockLexOrder,
    ParseError,
    Polynomial,
    Variable,
    bit_positions,
    format_polynomial,
    gf2_zeta,
    monomial_text,
    move_fields,
    parse_polynomial,
)
from quorum_algebra.checkers import PROPERTIES
from quorum_algebra.groebner import reduce_once

N = 3
VARS = [Variable(b, i) for b in ("x", "y") for i in range(1, N + 1)]
ORDER = BlockLexOrder(("x", "y"))
ORDERS = (ORDER, BlockLexOrder(("y", "x")))


def mask_of(variables):
    """The monomial on the given variables; a repeated variable counts once."""
    m = 0
    for v in variables:
        m |= v.mask(N)
    return m


def mono(m):
    return Polynomial(N, (m,))


def key(m, order):
    """m moved into the order's layout, where integer comparison is the order."""
    return move_fields([m], BLOCKS, order.blocks, N)[0]


monomials = st.builds(mask_of, st.lists(st.sampled_from(VARS), max_size=4))
polynomials = st.builds(lambda ms: Polynomial(N, ms), st.lists(monomials, max_size=5))
points = st.builds(
    lambda bits: dict(zip(VARS, bits)),
    st.lists(st.integers(0, 1), min_size=len(VARS), max_size=len(VARS)),
)
# ordinary-ring monomials as text: variables with exponents 1..3, written out
exponent_terms = st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=4)


def test_variable_validation():
    assert str(Variable("x", 2)) == "x2"
    with pytest.raises(ValueError):
        Variable("w", 1)
    with pytest.raises(ValueError):
        Variable("x", 0)


def test_monomial_basics():
    x1, x2 = Variable("x", 1), Variable("x", 2)
    m = mask_of([x1, x2, x1])
    assert m == mask_of([x1, x2]) == x1.mask(N) | x2.mask(N)
    assert m.bit_count() == 2
    assert monomial_text(m, N) == "x1*x2"
    assert monomial_text(0, N) == "1"
    assert mono(0).is_one
    # index 1 of the top field sits on the highest bit
    assert x1.mask(N) == 1 << (4 * N - 1)
    assert Variable("t", N).mask(N) == 1


def test_monomial_divide_and_lcm():
    a, b = parse_polynomial("x1*x2", N), parse_polynomial("x2*y1", N)
    assert a * b == parse_polynomial("x1*x2*y1", N)  # the lcm
    assert reduce_once(a * b, a, ORDER).is_zero  # a divides its lcm with b
    with pytest.raises(ValueError):
        reduce_once(b, a, ORDER)  # a does not divide b


@given(a=monomials, b=monomials)
def test_monomial_mul_commutes(a, b):
    assert mono(a) * mono(b) == mono(b) * mono(a) == mono(a | b)


@given(a=monomials, b=monomials, c=monomials)
def test_monomial_mul_associates(a, b, c):
    assert (mono(a) * mono(b)) * mono(c) == mono(a) * (mono(b) * mono(c))


@given(a=monomials, b=monomials)
def test_monomial_divide_inverts_mul(a, b):
    # the cofactor of b in a*b times b is a*b again
    m = a | b
    assert mono(m & ~b) * mono(b) == mono(m)


@given(a=monomials, b=monomials)
def test_monomial_lcm_gcd_product(a, b):
    assert mono(a | b) * mono(a & b) == mono(a) * mono(b)


@given(a=monomials, b=monomials, c=monomials)
def test_order_is_multiplicative(a, b, c):
    # in the Boolean ring only a factor coprime to both keeps the comparison
    for order in ORDERS:
        if key(a, order) > key(b, order):
            if not c & (a | b):
                assert key(a | c, order) > key(b | c, order)
        elif key(a, order) == key(b, order):
            assert a == b


@given(m=monomials)
def test_order_one_is_least(m):
    for order in ORDERS:
        assert mono(m).trailing_monomial(order) == m
        if m:
            assert (mono(m) + Polynomial.one(N)).trailing_monomial(order) == 0


@given(m=monomials)
def test_move_fields_orders_by_the_variables(m):
    for order in ORDERS:
        assert move_fields(move_fields([m], BLOCKS, order.blocks, N), order.blocks, BLOCKS, N) == [m]
    # against the definition: lexicographic on the 0/1 vector, most significant variable first
    for order in (*ORDERS, BlockLexOrder(("t", "x", "z", "y")), BlockLexOrder(("y",))):
        variables = order.variables(N)
        top = [1 << (len(variables) - 1 - p) for p in range(len(variables))]
        expected = sum(bit for v, bit in zip(variables, top) if m & v.mask(N))
        assert move_fields([m], BLOCKS, order.blocks, N)[0] == expected


def test_order_block_precedence():
    for order, text, lead in (
        (ORDER, "x3 + y1", "x3"),
        (ORDER, "x2 + x1", "x1"),
        (BlockLexOrder(("y", "x")), "x1 + y3", "y3"),
        (BlockLexOrder(("y", "x")), "x1*x2*x3 + y1", "y1"),
    ):
        f = parse_polynomial(text, N)
        assert f.leading_monomial(order) == parse_polynomial(lead, N).leading_monomial(order)


def test_order_rejects_foreign_blocks():
    y1 = parse_polynomial("y1", N)
    with pytest.raises(ValueError):
        y1.leading_monomial(BlockLexOrder(("x",)))
    with pytest.raises(ValueError):
        format_polynomial(y1, BlockLexOrder(("x",)))
    with pytest.raises(ValueError):
        BlockLexOrder(())
    with pytest.raises(ValueError):
        BlockLexOrder(("x", "x"))


def test_order_helpers():
    order = BlockLexOrder(("y", "x"))
    assert order.variables(2) == [
        Variable("y", 1), Variable("y", 2), Variable("x", 1), Variable("x", 2),
    ]
    assert order.is_elimination_suffix(("x",))
    assert not order.is_elimination_suffix(("y",))
    assert order.is_elimination_suffix(("y", "x"))
    assert parse_polynomial("x5 + y1*x2", 5).blocks() == {"x", "y"}
    assert parse_polynomial("t1", 5).blocks() == {"t"}
    assert Polynomial.one(5).blocks() == frozenset()


def test_polynomial_folds_duplicate_terms():
    x1 = Variable("x", 1).mask(N)
    assert Polynomial(N, (x1, x1)).is_zero
    assert Polynomial(N, (x1, x1, x1)) == Polynomial(N, (x1,))


def test_polynomial_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        Polynomial.variable(Variable("x", 3), 2)
    with pytest.raises(ValueError):
        Polynomial(2, (1 << 8,))
    with pytest.raises(ValueError):
        Polynomial(2, (-1,))


@given(f=polynomials)
def test_addition_is_involution(f):
    assert (f + f).is_zero
    assert f + Polynomial.zero(N) == f


@given(f=polynomials, g=polynomials, h=polynomials)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * Polynomial.one(N) == f


@given(f=polynomials, g=polynomials, p=points)
def test_evaluate_is_a_homomorphism(f, g, p):
    assert (f + g).evaluate(p) == f.evaluate(p) ^ g.evaluate(p)
    assert (f * g).evaluate(p) == (f.evaluate(p) & g.evaluate(p))


@given(terms=st.lists(exponent_terms, min_size=1, max_size=5), p=points)
def test_boolean_reduce_preserves_values_on_bits(terms, p):
    # text with exponents above 1 parses to its Boolean image, which has the
    # same value at every 0/1 point as the ordinary-ring polynomial
    text = " + ".join("*".join(str(v) for v, e in t for _ in range(e)) or "1" for t in terms)
    f = parse_polynomial(text, N)
    value = 0
    for t in terms:
        value ^= all(p[v] for v, _ in t)
    assert f.evaluate(p) == value
    assert f * f == f


@given(f=polynomials, g=polynomials)
def test_leading_monomial_of_product(f, g):
    # a Boolean product can cancel its leading terms, one of factors with
    # disjoint variables cannot: there the leading monomials multiply
    g = Polynomial(N, (m for m in g.terms if not m & f.support()))
    if f.is_zero or g.is_zero:
        return
    for order in ORDERS:
        lm = (f * g).leading_monomial(order)
        assert lm == f.leading_monomial(order) | g.leading_monomial(order)


@given(f=polynomials)
def test_leading_and_trailing_are_extremes(f):
    for order in ORDERS:
        if f.is_zero:
            with pytest.raises(ValueError):
                f.leading_monomial(order)
            continue
        keys = {m: key(m, order) for m in f.terms}
        assert keys[f.leading_monomial(order)] == max(keys.values())
        assert keys[f.trailing_monomial(order)] == min(keys.values())
        assert [keys[m] for m in f.descending(order)] == sorted(keys.values(), reverse=True)


def test_arithmetic_rejects_foreign_operands():
    f = parse_polynomial("x1 + 1", N)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="expected Polynomial, got 1"):
            op(f, 1)
        with pytest.raises(ValueError, match=f"ambient dimension mismatch: {N} vs {N + 1}"):
            op(f, parse_polynomial("x1", N + 1))


def test_zero_has_no_trailing_monomial():
    with pytest.raises(ValueError, match="zero polynomial has no trailing monomial"):
        Polynomial.zero(N).trailing_monomial(ORDER)


def test_evaluate_requires_full_point():
    f = parse_polynomial("x1*y1 + 1", N)
    with pytest.raises(ValueError):
        f.evaluate({Variable("x", 1): 1})
    with pytest.raises(ValueError):
        f.evaluate({v: 2 for v in VARS})


def test_parse_examples():
    f = parse_polynomial("x1*y2 + y2 + 1", N)
    x1, y2 = Variable("x", 1).mask(N), Variable("y", 2).mask(N)
    assert f.terms == frozenset({x1 | y2, y2, 0})
    assert parse_polynomial(" x1 \t*x2+ 1 ", N) == parse_polynomial("x1*x2+1", N)
    # a repeated variable counts once
    assert parse_polynomial("x1*x1", N) == Polynomial(N, (x1,))
    assert parse_polynomial("x1*y2*x1*x1 + y2", N) == parse_polynomial("x1*y2 + y2", N)
    assert parse_polynomial("x1*x1 + x1", N).is_zero
    assert parse_polynomial("1 + 1", N).is_zero


@pytest.mark.parametrize(
    "text", ["", "  ", "x1 +", "+ x1", "x0", "x4", "w1", "0", "2", "x", "x1**x2", "x1^2"]
)
def test_parse_rejects_bad_input(text):
    with pytest.raises(ParseError):
        parse_polynomial(text, N)


def test_format_orders_terms_descending():
    f = parse_polynomial("1 + x2 + x1*y1 + y2", N)
    assert format_polynomial(f, ORDER) == "x1*y1 + x2 + y2 + 1"
    assert format_polynomial(f) == "x1*y1 + x2 + y2 + 1"
    # a term's variables print in x, y, z, t sequence under every order
    assert format_polynomial(f, BlockLexOrder(("y", "x"))) == "x1*y1 + y2 + x2 + 1"
    assert format_polynomial(Polynomial.zero(N)) == "0"
    assert format_polynomial(parse_polynomial("x1*x1", N), ORDER) == "x1"


@given(f=polynomials)
@settings(max_examples=120)
def test_parse_format_round_trip(f):
    if f.is_zero:
        return
    assert parse_polynomial(format_polynomial(f, ORDER), N) == f


@pytest.mark.parametrize("blocks", sorted({spec.order for spec in PROPERTIES.values()}))
def test_parse_format_round_trip_under_property_orders(blocks):
    rng = seeded(31)
    order = BlockLexOrder(blocks)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = rand_poly(n, blocks, rng, max_terms=6)
        text = format_polynomial(f, order)
        assert text == "0" if f.is_zero else parse_polynomial(text, n) == f


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=4), st.data())
def test_gf2_zeta_sums_over_subsets(calls, data):
    """Runs of unit bits sum as vectors, over calls of mixed (v, unit)."""
    for v, unit in calls:
        table = data.draw(st.integers(0, (1 << (unit << v)) - 1))
        out = gf2_zeta(table, v, unit)
        for t in range(1 << v):
            for w in range(unit):
                parity = sum(table >> (s * unit + w) & 1 for s in range(1 << v) if s & t == s) & 1
                assert out >> (t * unit + w) & 1 == parity
        assert gf2_zeta(out, v, unit) == table



def set_bits(bits, width):
    return [i for i in range(width) if bits >> i & 1]


@given(st.data())
def test_bit_positions_lists_set_bits_ascending(data):
    # sparse and dense draws take the two sides of the density cut
    width = data.draw(st.integers(1, 3000))
    sparse = data.draw(st.sets(st.integers(0, width - 1), max_size=140))
    bits = sum(1 << i for i in sparse)
    assert bit_positions(bits) == set_bits(bits, width) == sorted(sparse)
    bits = data.draw(st.integers(0, (1 << width) - 1))
    assert bit_positions(bits) == set_bits(bits, width)


@pytest.mark.parametrize("width", [8, 64, 65, 300, 1024, 5000])
def test_bit_positions_either_side_of_the_density_cut(width):
    """Around the cuts between shedding and scanning words: the density cut,
    and 64 bits wide."""
    cut = min(width >> 3, 128)
    for k in {0, 1, cut - 1, cut, cut + 1, width - 1, width} - {-1}:
        for bits in (
            ((1 << k) - 1) << (width - k),  # set bits packed at the top
            sum(1 << (i * width // max(k, 1)) for i in range(k)),  # spread out
        ):
            assert bit_positions(bits) == set_bits(bits, width)
