"""Buchberger's algorithm in the Boolean ring and the counting tools built on it.

The engine works in F2[x]/<x^2 + x>, where every variable is idempotent, so
no exponent ever exceeds 1. Internally a monomial is a squarefree bitmask
int: variable p of order.variables(n) sits on bit v-1-p, the most
significant variable on the highest bit, so integer comparison of masks IS
the block lexicographic comparison. The Boolean product of two monomials is
their OR, d divides m when d & ~m == 0, and the cofactor of d in m is
m & ~d. A polynomial is a tuple of masks in descending order, so the
leading monomial is element 0.

The field polynomials x^2 + x never enter the basis. The S-polynomial of an
element g with x^2 + x, reduced by the field polynomials, is the Boolean
product x*g, so for each variable x of LM(g) the engine queues that field
pair and reduces it like an S-polynomial (Brickenstein and Dreyer,
PolyBoRi, J. Symb. Comput. 44(9), 2009). It is not queued when x divides
every term of g, since then x*g = g; for x outside LM(g) the leading
monomials are coprime. The reduced Boolean basis is the ordinary-ring
reduced basis of the ideal plus all field polynomials with those field
polynomials left out, so the report lists them only when nothing else
remains, for the zero ideal.

Pair selection is the normal strategy: minimal lcm degree, ties by the
order on the lcm, then by insertion sequence, which makes runs
reproducible; a field pair's lcm in the ordinary ring is LM(g) * x, one
degree above LM(g). The coprime criterion drops pairs whose leading
monomials share no variable before they are queued. The chain criterion
(Gebauer and Moeller, J. Symb. Comput. 6, 1988) drops a pair when another
element's leading monomial divides its lcm and both side pairs are done,
coprime pairs counting as done. Both can be toggled; the reduced basis is
the same either way, which the test suite checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from .algebra import BlockLexOrder, Monomial, Polynomial, Variable, bit_positions, gf2_zeta


def _pack(g: Polynomial, bits: dict[Variable, int]) -> tuple[int, ...]:
    """Masks of the Boolean image of g, descending; terms with equal masks cancel."""
    acc: set[int] = set()
    for m in g.terms:
        mask = 0
        for var, _ in m.exponents:
            mask |= bits[var]
        acc ^= {mask}
    return tuple(sorted(acc, reverse=True))


def _unpack(terms: Sequence[int], variables: Sequence[Variable], n: int) -> Polynomial:
    top = len(variables) - 1
    return Polynomial(
        n, (Monomial.of(*(variables[top - b] for b in bit_positions(t))) for t in terms)
    )


def _spoly(f: Sequence[int], g: Sequence[int]) -> set[int]:
    """Boolean S-polynomial; the leading terms cancel, so only the tails are scaled."""
    cf = g[0] & ~f[0]
    cg = f[0] & ~g[0]
    acc: set[int] = set()
    for c, tail in ((cf, f[1:]), (cg, g[1:])):
        for t in tail:
            s = c | t
            if s in acc:
                acc.discard(s)
            else:
                acc.add(s)
    return acc


def _field_spoly(g: Sequence[int], x: int) -> list[int]:
    """x*g + g: the terms t of g without x, each with t*x; none of them collide."""
    return [u for t in g if not t & x for u in (t, t | x)]


_SUPERSETS = tuple(tuple(u for u in range(16) if u & a == a) for a in range(16))


class _Divisors:
    """Which elements' leading monomials divide a given monomial.

    Masks are cut into 4-bit chunks; rows[k][u] is the bitset of element
    indices whose leading monomial, restricted to chunk k, is a subset of u.
    The elements whose leading monomial divides m are the AND over the
    chunks of m's entries, with no loop over the elements.
    """

    __slots__ = ("rows",)

    def __init__(self, v: int):
        self.rows = [[0] * 16 for _ in range((v + 3) // 4)]

    def add(self, idx: int, lm: int) -> None:
        bit = 1 << idx
        for row in self.rows:
            for u in _SUPERSETS[lm & 15]:
                row[u] |= bit
            lm >>= 4

    def of(self, m: int) -> int:
        found = -1
        for row in self.rows:
            found &= row[m & 15]
            m >>= 4
        return found


def _normal_form(
    terms: Collection[int], basis: Sequence[tuple[int, ...]], divisors: _Divisors
) -> tuple[int, ...]:
    """Full reduction: no output monomial is divisible by any basis leading monomial.

    Each term is reduced by the lowest-indexed element whose leading monomial
    divides it. A step scales that element by the cofactor c; for a tail term
    t < LM the product c | t stays below c | LM, so terms only decrease.
    """
    if not terms:
        return ()
    work = set(terms)
    heap = [-t for t in work]
    heapq.heapify(heap)
    out: list[int] = []
    pop = heapq.heappop
    push = heapq.heappush
    rows = divisors.rows
    while heap:
        m = -pop(heap)
        if m not in work:
            continue
        found = -1  # divisors.of(m), inlined: this runs once per term
        rest = m
        for row in rows:
            found &= row[rest & 15]
            rest >>= 4
        if not found:
            work.discard(m)
            out.append(m)
            continue
        red = basis[(found & -found).bit_length() - 1]
        c = m & ~red[0]
        for t in red:
            s = c | t
            if s in work:
                work.discard(s)
            else:
                work.add(s)
                push(heap, -s)
    return tuple(out)


@dataclass(frozen=True)
class IdealBasis:
    """Generators plus the order and ambient they are to be read in.

    Each entry of products is a tuple of factors whose Boolean product is one
    more generator; buchberger multiplies it out modulo the partial basis
    rather than expanding it. A zero factor is allowed and makes the product
    zero; an empty product is 1.
    """

    generators: tuple[Polynomial, ...]
    order: BlockLexOrder
    n: int
    products: tuple[tuple[Polynomial, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "products", tuple(tuple(p) for p in self.products))
        for g in self.generators:
            self._check(g, "generator")
            if g.is_zero:
                raise ValueError("generators must be nonzero")
        for factors in self.products:
            for g in factors:
                self._check(g, "product factor")

    def _check(self, g: Polynomial, what: str) -> None:
        if not isinstance(g, Polynomial):
            raise TypeError(f"{what} {g!r} is not a Polynomial")
        if g.n != self.n:
            raise ValueError(f"{what} ambient {g.n} != declared {self.n}")
        if not g.blocks() <= set(self.order.blocks):
            raise ValueError(f"{what} {g} uses blocks outside {self.order.blocks}")


@dataclass
class GroebnerCertificate:
    """Reduced basis plus the standard monomial count over the full ambient."""

    basis: tuple[Polynomial, ...]
    order: BlockLexOrder
    n: int
    sm_count: int
    _sub_counts: dict[tuple[str, ...], int] = field(default_factory=dict, repr=False)

    @property
    def blocks(self) -> tuple[str, ...]:
        return self.order.blocks

    def sm_count_for(self, keep_blocks: tuple[str, ...]) -> int:
        """Standard monomials of the elimination sub-basis over a block suffix."""
        keep = tuple(keep_blocks)
        if keep not in self._sub_counts:
            sub = elimination_subbasis(self, keep)
            suborder = BlockLexOrder(keep)
            self._sub_counts[keep] = standard_monomial_count(
                sub, suborder.variables(self.n), suborder
            )
        return self._sub_counts[keep]


def field_polynomials(blocks: Iterable[str], n: int) -> list[Polynomial]:
    """v^2 + v for every ambient variable; zero in the Boolean quotient."""
    out = []
    for b in blocks:
        for i in range(1, n + 1):
            var = Variable(b, i)
            out.append(Polynomial(n, (Monomial({var: 2}), Monomial({var: 1}))))
    return out


def reduce_once(f1: Polynomial, f2: Polynomial, order: BlockLexOrder) -> Polynomial:
    """One top-reduction step: f1 + (LM(f1)/LM(f2)) * f2."""
    if f1.is_zero or f2.is_zero:
        raise ValueError("reduction requires nonzero polynomials")
    lm1 = f1.leading_monomial(order)
    lm2 = f2.leading_monomial(order)
    if not lm2.divides(lm1):
        raise ValueError(f"LM {lm2} does not divide LM {lm1}")
    cof = Polynomial(f1.n, (lm1.divide(lm2),))
    return f1 + cof * f2

def spoly(f1: Polynomial, f2: Polynomial, order: BlockLexOrder) -> Polynomial:
    """S-polynomial: both copies scaled to the lcm of their leading monomials."""
    if f1.is_zero or f2.is_zero:
        raise ValueError("s-polynomial requires nonzero polynomials")
    lm1 = f1.leading_monomial(order)
    lm2 = f2.leading_monomial(order)
    l = lm1.lcm(lm2)
    c1 = Polynomial(f1.n, (l.divide(lm1),))
    c2 = Polynomial(f2.n, (l.divide(lm2),))
    return c1 * f1 + c2 * f2


def normal_form(f: Polynomial, reducers: Sequence[Polynomial], order: BlockLexOrder) -> Polynomial:
    """Full normal form of f against the given set (no implicit field polynomials).

    Works in the ordinary ring by repeated reduce_once, always with the first
    reducer whose leading monomial divides, and shares no code with the
    engine, so tests can check the engine's output with it.
    """
    polys = [g for g in reducers if not g.is_zero]
    for g in polys:
        if g.n != f.n:
            raise ValueError("ambient dimension mismatch")
    lms = [g.leading_monomial(order) for g in polys]
    rest = f
    out: list[Monomial] = []
    while not rest.is_zero:
        lm = rest.leading_monomial(order)
        for g, d in zip(polys, lms):
            if d.divides(lm):
                rest = reduce_once(rest, g, order)
                break
        else:
            out.append(lm)
            rest = rest + Polynomial(f.n, (lm,))
    return Polynomial(f.n, out)


def _run_buchberger(
    B: IdealBasis, bits: dict[Variable, int], use_coprime: bool, use_chain: bool
) -> list[tuple[int, ...]]:
    v = len(bits)
    basis: list[tuple[int, ...]] = []
    divisors = _Divisors(v)
    # A queued pair is (lcm degree, lcm, seq, i, j): j >= 0 pairs basis[i]
    # with basis[j] (i < j), j < 0 is the field pair of basis[i] and the
    # variable on bit ~j.
    heap: list[tuple[int, int, int, int, int]] = []
    seq = 0
    # For the chain criterion: done[i] is the bitset of k whose pair with i
    # has been popped or, under the coprime criterion, was never queued;
    # field_done[b] is the bitset of i whose field pair with the variable x
    # on bit b has been popped or is never queued: x is not in LM_i, or x
    # divides every term of basis[i].
    done: list[int] = []
    field_done = [0] * v

    def add_poly(p: tuple[int, ...]) -> None:
        nonlocal seq
        idx = len(basis)
        bit = 1 << idx
        lm = p[0]
        coprime = 0
        for i, q in enumerate(basis):
            if use_coprime and not q[0] & lm:
                done[i] |= bit
                coprime |= 1 << i
                continue
            l = q[0] | lm
            heapq.heappush(heap, (l.bit_count(), l, seq, i, idx))
            seq += 1
        basis.append(p)
        divisors.add(idx, lm)
        done.append(coprime)
        for b in range(v):
            x = 1 << b
            if not lm & x or all(t & x for t in p):
                field_done[b] |= bit
            else:
                heapq.heappush(heap, (lm.bit_count() + 1, lm, seq, idx, ~b))
                seq += 1

    for p in (_pack(g, bits) for g in B.generators):
        if p:
            add_poly(p)
    products = iter([[_pack(f, bits) for f in factors] for factors in B.products])

    while True:
        # A product waits until the pairs run out, then is reduced modulo that
        # Groebner basis after every factor: it stays small, and it differs from
        # the expanded product by an ideal element, so the ideal is unchanged.
        if not heap:
            factors = next(products, None)
            if factors is None:
                break
            acc: Collection[int] = (0,)  # the constant 1
            for f in factors:
                terms: set[int] = set()
                for a in acc:
                    for b in f:
                        m = a | b
                        if m in terms:
                            terms.discard(m)
                        else:
                            terms.add(m)
                acc = _normal_form(terms, basis, divisors)
                if not acc:
                    break
            if acc:
                add_poly(tuple(acc))
            continue
        _, l, _, i, j = heapq.heappop(heap)
        # Chain criterion: some k other than i, j has LM_k | l and both side
        # pairs done; i and j are in neither done[i] nor done[j].
        if j >= 0:
            done[i] |= 1 << j
            done[j] |= 1 << i
            if use_chain and divisors.of(l) & done[i] & done[j]:
                continue
            s = _spoly(basis[i], basis[j])
        else:
            field_done[~j] |= 1 << i
            if use_chain and divisors.of(l) & done[i] & field_done[~j]:
                continue
            s = _field_spoly(basis[i], 1 << ~j)
        r = _normal_form(s, basis, divisors)
        if r:
            add_poly(r)
    return basis


def _reduce_basis(basis: list[tuple[int, ...]], v: int) -> list[tuple[int, ...]]:
    """Minimalize, then fully reduce every tail; output sorted by LM descending.

    A tail term lies below its own leading monomial, so no element can
    reduce its own tail, and every element stays a valid reducer while the
    others are reduced.
    """
    kept: list[tuple[int, ...]] = []
    divisors = _Divisors(v)
    for p in sorted(basis, key=lambda p: p[0]):
        if not divisors.of(p[0]):
            divisors.add(len(kept), p[0])
            kept.append(p)
    reduced = [(p[0],) + _normal_form(p[1:], kept, divisors) for p in kept]
    return sorted(reduced, reverse=True)


def buchberger(
    B: IdealBasis, *, use_coprime: bool = True, use_chain: bool = True
) -> GroebnerCertificate:
    """Reduced Boolean Groebner basis of <generators, products>.

    The field polynomials are reported only for the zero ideal, where they
    are the whole ordinary-ring basis. The standard monomial count is over
    squarefree monomials in all ambient variables, so it equals the size of
    the variety in the Boolean quotient.
    """
    variables = B.order.variables(B.n)
    v = len(variables)
    bits = {var: 1 << (v - 1 - p) for p, var in enumerate(variables)}
    reduced = _reduce_basis(_run_buchberger(B, bits, use_coprime, use_chain), v)
    if reduced:
        polys = tuple(_unpack(p, variables, B.n) for p in reduced)
    else:
        polys = tuple(field_polynomials(B.order.blocks, B.n))
    count = _sm_count_masks([p[0] for p in reduced], v)
    return GroebnerCertificate(basis=polys, order=B.order, n=B.n, sm_count=count)


def elimination_subbasis(cert: GroebnerCertificate, keep_blocks: tuple[str, ...]) -> tuple[Polynomial, ...]:
    """Basis elements lying entirely in a suffix of the block sequence.

    For a block lexicographic order this is a Groebner basis of the
    elimination ideal over the kept blocks.
    """
    keep = tuple(keep_blocks)
    if not cert.order.is_elimination_suffix(keep):
        raise ValueError(f"{keep} is not a suffix of block sequence {cert.order.blocks}")
    keepset = set(keep)
    return tuple(g for g in cert.basis if g.blocks() <= keepset)


def _sm_count_masks(masks: Sequence[int], v: int) -> int:
    """Count squarefree monomials over v variables divisible by no mask."""
    if any(m == 0 for m in masks):
        return 0
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    minimal: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(i: int, active: tuple[int, ...]) -> int:
        if not active:
            return 1 << (v - i)
        key = (i, active)
        hit = memo.get(key)
        if hit is not None:
            return hit
        bit = 1 << i
        # variable i absent: masks requiring it can never divide
        res = rec(i + 1, tuple(m for m in active if not m & bit))
        # variable i present: clear it from masks; a fully cleared mask divides
        inc: list[int] = []
        dead = False
        for m in active:
            m2 = m & ~bit
            if m2 == 0:
                dead = True
                break
            inc.append(m2)
        if not dead:
            inc_sorted = sorted(set(inc), key=lambda m: (bin(m).count("1"), m))
            inc_min: list[int] = []
            for m in inc_sorted:
                if not any(k & m == k for k in inc_min):
                    inc_min.append(m)
            res += rec(i + 1, tuple(inc_min))
        memo[key] = res
        return res

    return rec(0, tuple(minimal))


def _sm_count_enumerate(masks: Sequence[int], v: int) -> int:
    if v > 12:
        raise ValueError("exhaustive standard monomial count is limited to 12 variables")
    count = 0
    for p in range(1 << v):
        if not any(m & p == m for m in masks):
            count += 1
    return count


def standard_monomial_count(
    basis: Iterable[Polynomial],
    variables: Sequence[Variable],
    order: BlockLexOrder,
    method: str = "recurse",
) -> int:
    """Number of squarefree monomials over `variables` no LM of `basis` divides.

    Non-squarefree leading monomials (field polynomials) cannot divide a
    squarefree monomial and are skipped. With method="enumerate" all
    2^len(variables) monomials are checked directly (reference path, at most
    12 variables).
    """
    var_pos = {var: k for k, var in enumerate(variables)}
    v = len(variables)
    masks = []
    for g in basis:
        lm = g.leading_monomial(order)
        if not lm.is_squarefree:
            continue
        mask = 0
        for var in lm.variables():
            if var not in var_pos:
                raise ValueError(f"leading monomial {lm} uses {var} outside the universe")
            mask |= 1 << var_pos[var]
        masks.append(mask)
    if method == "recurse":
        return _sm_count_masks(masks, v)
    if method == "enumerate":
        return _sm_count_enumerate(masks, v)
    raise ValueError(f"unknown method {method!r}")


def _truth_table_bitset(g: Polynomial, var_pos: dict[Variable, int], v: int) -> int:
    """Bitset over all 2^v points with bit p set when g(point p) = 1.

    Point p assigns to the variable at position k the bit (p >> k) & 1. The
    table is built from the squarefree form by the binary subset-sum (zeta)
    transform over F2.
    """
    acc = 0
    for m in g.boolean_reduce().terms:
        mask = 0
        for var in m.variables():
            mask |= 1 << var_pos[var]
        acc ^= 1 << mask
    return gf2_zeta(acc, v)


def variety_enumerate(
    generators: Iterable[Polynomial],
    blocks: tuple[str, ...],
    n: int,
    limit: int = 24,
) -> frozenset[tuple[int, ...]]:
    """All common zeros over the Boolean cube, by exhaustive evaluation.

    Points are bit tuples aligned with [Variable(b, i) for b in blocks for i
    in 1..n]. The total variable count is capped (default 24) because the
    enumeration is exponential.
    """
    varlist = [Variable(b, i) for b in blocks for i in range(1, n + 1)]
    v = len(varlist)
    if v > limit:
        raise ValueError(f"variety enumeration over {v} variables exceeds the cap of {limit}")
    var_pos = {var: k for k, var in enumerate(varlist)}
    total = 1 << v
    nonzero = 0
    for g in generators:
        for var in (w for m in g.terms for w in m.variables()):
            if var not in var_pos:
                raise ValueError(f"generator variable {var} outside {blocks} x {n}")
        nonzero |= _truth_table_bitset(g, var_pos, v)
    zeros = ~nonzero & ((1 << total) - 1)
    return frozenset(tuple((p >> k) & 1 for k in range(v)) for p in bit_positions(zeros))
