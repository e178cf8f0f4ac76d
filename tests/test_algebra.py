"""Tests for monomials, polynomials, the block order and the text grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorum_algebra.algebra import (
    BlockLexOrder,
    Monomial,
    ParseError,
    Polynomial,
    Variable,
    bit_positions,
    format_polynomial,
    gf2_zeta,
    parse_polynomial,
)

N = 3
VARS = [Variable(b, i) for b in ("x", "y") for i in range(1, N + 1)]
ORDER = BlockLexOrder(("x", "y"))

monomials = st.builds(
    lambda pairs: Monomial(dict(pairs)),
    st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=4),
)
squarefree_monomials = st.builds(
    lambda vs: Monomial.of(*vs), st.lists(st.sampled_from(VARS), unique=True, max_size=4)
)
polynomials = st.builds(lambda ms: Polynomial(N, ms), st.lists(monomials, max_size=5))
squarefree_polynomials = st.builds(
    lambda ms: Polynomial(N, ms), st.lists(squarefree_monomials, max_size=5)
)
points = st.builds(
    lambda bits: dict(zip(VARS, bits)),
    st.lists(st.integers(0, 1), min_size=len(VARS), max_size=len(VARS)),
)


def test_variable_validation():
    assert str(Variable("x", 2)) == "x2"
    with pytest.raises(ValueError):
        Variable("w", 1)
    with pytest.raises(ValueError):
        Variable("x", 0)


def test_monomial_basics():
    x1, x2 = Variable("x", 1), Variable("x", 2)
    m = Monomial.of(x1, x2, x1)
    assert m.exponent(x1) == 2
    assert m.degree == 3
    assert not m.is_squarefree
    assert m.boolean_reduced() == Monomial.of(x1, x2)
    assert str(m) == "x1^2*x2"
    assert Monomial.one().is_one
    assert str(Monomial.one()) == "1"


def test_monomial_divide_and_lcm():
    x1, x2, y1 = Variable("x", 1), Variable("x", 2), Variable("y", 1)
    a = Monomial.of(x1, x2)
    b = Monomial.of(x2, y1)
    assert not a.divides(b)
    assert a.lcm(b) == Monomial.of(x1, x2, y1)
    assert a.gcd(b) == Monomial.of(x2)
    assert a.lcm(b).divide(a) == Monomial.of(y1)
    with pytest.raises(ValueError):
        a.divide(b)


@given(a=monomials, b=monomials)
def test_monomial_mul_commutes(a, b):
    assert a * b == b * a


@given(a=monomials, b=monomials, c=monomials)
def test_monomial_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=monomials, b=monomials)
def test_monomial_divide_inverts_mul(a, b):
    assert (a * b).divide(b) == a


@given(a=monomials, b=monomials)
def test_monomial_lcm_gcd_product(a, b):
    assert a.lcm(b) * a.gcd(b) == a * b


@given(a=monomials, b=monomials, c=monomials)
def test_order_is_multiplicative(a, b, c):
    ka, kb = ORDER.sort_key(a), ORDER.sort_key(b)
    if ka > kb:
        assert ORDER.sort_key(a * c) > ORDER.sort_key(b * c)
    elif ka == kb:
        assert a == b


@given(m=monomials)
def test_order_one_is_least(m):
    assert ORDER.sort_key(m) >= ORDER.sort_key(Monomial.one())


def test_order_block_precedence():
    x3 = Monomial.of(Variable("x", 3))
    y1 = Monomial.of(Variable("y", 1))
    assert ORDER.sort_key(x3) > ORDER.sort_key(y1)
    x1, x2 = Monomial.of(Variable("x", 1)), Monomial.of(Variable("x", 2))
    assert ORDER.sort_key(x1) > ORDER.sort_key(x2)


def test_order_rejects_foreign_blocks():
    with pytest.raises(ValueError):
        BlockLexOrder(("x",)).sort_key(Monomial.of(Variable("y", 1)))
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
    assert order.covers(Monomial.of(Variable("x", 5)))
    assert not order.covers(Monomial.of(Variable("t", 1)))


def test_polynomial_folds_duplicate_terms():
    x1 = Monomial.of(Variable("x", 1))
    assert Polynomial(N, (x1, x1)).is_zero
    assert Polynomial(N, (x1, x1, x1)) == Polynomial(N, (x1,))


def test_polynomial_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        Polynomial(2, (Monomial.of(Variable("x", 3)),))


@given(f=polynomials)
def test_addition_is_involution(f):
    assert (f + f).is_zero
    assert f + Polynomial.zero(N) == f


@given(f=polynomials, g=polynomials, h=polynomials)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f.mul(g) == g.mul(f)
    assert f.mul(g + h) == f.mul(g) + f.mul(h)


@given(f=polynomials, g=polynomials, p=points)
def test_evaluate_is_a_homomorphism(f, g, p):
    assert (f + g).evaluate(p) == f.evaluate(p) ^ g.evaluate(p)
    assert f.mul(g).evaluate(p) == (f.evaluate(p) & g.evaluate(p))
    assert f.mul(g, boolean=True).evaluate(p) == (f.evaluate(p) & g.evaluate(p))


@given(f=polynomials, p=points)
def test_boolean_reduce_preserves_values_on_bits(f, p):
    r = f.boolean_reduce()
    assert r.evaluate(p) == f.evaluate(p)
    assert all(m.is_squarefree for m in r.terms)
    assert r.boolean_reduce() == r


@given(f=polynomials, g=polynomials)
def test_leading_monomial_of_product(f, g):
    if f.is_zero or g.is_zero:
        return
    lm = f.mul(g).leading_monomial(ORDER)
    assert lm == f.leading_monomial(ORDER) * g.leading_monomial(ORDER)


@given(f=polynomials)
def test_leading_and_trailing_are_extremes(f):
    if f.is_zero:
        with pytest.raises(ValueError):
            f.leading_monomial(ORDER)
        return
    keys = {m: ORDER.sort_key(m) for m in f.terms}
    assert keys[f.leading_monomial(ORDER)] == max(keys.values())
    assert keys[f.trailing_monomial(ORDER)] == min(keys.values())


def test_evaluate_requires_full_point():
    f = parse_polynomial("x1*y1 + 1", N)
    with pytest.raises(ValueError):
        f.evaluate({Variable("x", 1): 1})
    with pytest.raises(ValueError):
        f.evaluate({v: 2 for v in VARS})


def test_parse_examples():
    f = parse_polynomial("x1*y2 + y2 + 1", N)
    assert f.terms == frozenset(
        {
            Monomial.of(Variable("x", 1), Variable("y", 2)),
            Monomial.of(Variable("y", 2)),
            Monomial.one(),
        }
    )
    assert parse_polynomial(" x1 \t*x2+ 1 ", N) == parse_polynomial("x1*x2+1", N)
    assert parse_polynomial("x1*x1", N) == Polynomial(N, (Monomial({Variable("x", 1): 2}),))
    assert parse_polynomial("1 + 1", N).is_zero


@pytest.mark.parametrize(
    "text", ["", "  ", "x1 +", "+ x1", "x0", "x4", "w1", "0", "2", "x", "x1**x2", "x1^2"]
)
def test_parse_rejects_bad_input(text):
    with pytest.raises(ParseError):
        parse_polynomial(text, N)


def test_format_orders_terms_descending():
    f = parse_polynomial("1 + x2 + x1*y1", N)
    assert format_polynomial(f, ORDER) == "x1*y1 + x2 + 1"
    assert format_polynomial(Polynomial.zero(N)) == "0"
    g = Polynomial(N, (Monomial({Variable("x", 1): 2}),))
    assert format_polynomial(g, ORDER) == "x1^2"


@given(f=squarefree_polynomials)
@settings(max_examples=120)
def test_parse_format_round_trip(f):
    if f.is_zero:
        return
    assert parse_polynomial(format_polynomial(f, ORDER), N) == f


@given(st.integers(0, 4), st.data())
def test_gf2_zeta_sums_over_subsets(v, data):
    table = data.draw(st.integers(0, (1 << (1 << v)) - 1))
    out = gf2_zeta(table, v)
    for t in range(1 << v):
        parity = sum(table >> s & 1 for s in range(1 << v) if s & t == s) & 1
        assert out >> t & 1 == parity
    assert gf2_zeta(out, v) == table


@given(st.integers(0, 1 << 200))
def test_bit_positions_lists_set_bits_ascending(bits):
    assert bit_positions(bits) == [k for k in range(bits.bit_length()) if bits >> k & 1]
