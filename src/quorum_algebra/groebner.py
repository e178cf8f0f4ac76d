"""Buchberger's algorithm in the Boolean ring and the counting tools built on it.

The engine works in F2[x]/<x^2 + x>, where every variable is idempotent, so
no exponent ever exceeds 1. A monomial is a squarefree bitmask int, as in
every Polynomial. The engine reads the masks in the order's own layout
(algebra.move_fields moves whole block fields there and back): variable p
of order.variables(n) sits on bit v-1-p, the most significant variable on
the highest bit, so integer comparison of masks IS the block lexicographic
comparison. The Boolean product of two monomials is their OR, d divides m
when d & ~m == 0, and the cofactor of d in m is m & ~d. A polynomial is a
tuple of masks in descending order, so the leading monomial is element 0.

A GroebnerCertificate keeps the reduced basis in that form, as its masks,
and builds Polynomials in the x, y, z, t layout only when its basis is
read. In the order's layout a suffix of the blocks holds the lowest bits,
so an element lies in the suffix's variables when its leading monomial is
below the suffix's top bit, and the standard monomials of an elimination
sub-basis are counted from the leading masks alone.

The field polynomials x^2 + x never enter the basis. The S-polynomial of an
element g with x^2 + x, reduced by the field polynomials, is the Boolean
product x*g, so for each variable x of LM(g) the engine queues that field
pair and reduces it like an S-polynomial (Brickenstein and Dreyer,
PolyBoRi, J. Symb. Comput. 44(9), 2009). It is not queued when x divides
every term of g, since then x*g = g; for x outside LM(g) the leading
monomials are coprime. The reduced Boolean basis is the ordinary-ring
reduced basis of the ideal plus all field polynomials with those field
polynomials left out, so the zero ideal's reduced basis is empty.

Pair selection is the normal strategy: minimal lcm degree, ties by the
order on the lcm, then by insertion sequence, which makes runs
reproducible. The criteria act when an element h arrives, not when a pair
is popped, as Gebauer and Moeller install them (J. Symb. Comput. 6, 1988).
The pairs of h with the earlier elements are grouped by lcm. Criterion M
drops a group when the pair of h with some other element has an lcm
strictly dividing the group's; criterion F keeps one pair of a group, and
none when one of them is coprime, as the coprime criterion drops those. A
field pair (g, x) is the pair of g with x^2 + x, whose ordinary-ring lcm
is LM(g) * x^2, one degree above LM(g), so the same criteria cover it.
Every queued pair is reduced, and every element built stays a reducer
until the pairs run out; the final inter-reduction drops the elements whose
leading monomial another one divides. GroebnerStats counts what a run did.

The points pick the route. An ideal with points on every block, as every
checker's, is built from its variety by variety.reduced_basis, with no pair
loop, or refused with variety.TooLarge past that route's budget; that route
evaluates each product on V0, the product of the blocks' point sets. The
pair loop runs the ideals without points, as qa groebner's, which hold
generators only.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from types import SimpleNamespace
from typing import Collection, Iterable, Sequence

from .algebra import (
    BLOCKS,
    BlockLexOrder,
    Polynomial,
    Record,
    Variable,
    bit_positions,
    field_shift,
    gf2_zeta,
    move_fields,
)
from .variety import reduced_basis


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
    The elements whose leading monomial divides m are the AND, over the
    chunks, of m's entries, with no loop over the elements.
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
        found = -1  # every element; v >= 1, so there is a row to cut it down
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


class IdealBasis(Record):
    """Generators plus the order and ambient they are to be read in.

    Each entry of products is a tuple of factors whose Boolean product is one
    more generator, which the variety route evaluates on V0; products need
    points, and an ideal without them takes bool_product's expansion as a
    generator instead. A zero factor is allowed and makes the product zero;
    an empty product is 1.

    Each entry of points is a block and a set of n-bit masks, index 1 on the
    field's top bit, as a ProcessSubset's mask is: the ideal then also
    holds I(points) on that block, the polynomials in that block's variables
    vanishing at every listed point. An empty set puts 1 in the ideal.
    Points go on every block of the order or on none: buchberger builds the
    first kind from its variety and runs the pair loop on the second.
    """

    generators: tuple[Polynomial, ...]
    order: BlockLexOrder
    n: int
    products: tuple[tuple[Polynomial, ...], ...]
    points: tuple[tuple[str, frozenset[int]], ...]

    def __init__(
        self, generators: tuple[Polynomial, ...], order: BlockLexOrder, n: int,
        products: Iterable[Iterable[Polynomial]] = (), points: Iterable[tuple[str, Iterable[int]]] = (),
    ) -> None:
        products = tuple(tuple(p) for p in products)
        points = tuple((b, frozenset(m)) for b, m in points)
        self.__dict__.update(generators=generators, order=order, n=n, products=products, points=points)
        for g in self.generators:
            self._check(g, "generator")
            if g.is_zero:
                raise ValueError("generators must be nonzero")
        for factors in self.products:
            for g in factors:
                self._check(g, "product factor")
        blocks = [b for b, _ in self.points]
        if len(set(blocks)) < len(blocks):
            raise ValueError(f"a block is listed twice in points {blocks}")
        for b, masks in self.points:
            if b not in self.order.blocks:
                raise ValueError(f"points on block {b!r} outside {self.order.blocks}")
            if any(m < 0 or m >> self.n for m in masks):
                raise ValueError(f"points on block {b!r} must be masks of {self.n} bits")
        missing = [b for b in self.order.blocks if b not in blocks]
        if blocks and missing:
            raise ValueError(f"points must be on every block or on none; no points on {missing}")
        if self.products and not blocks:
            raise ValueError("products need points on every block; pass their expansion as a generator")

    def _check(self, g: Polynomial, what: str) -> None:
        if not isinstance(g, Polynomial):
            raise TypeError(f"{what} {g!r} is not a Polynomial")
        if g.n != self.n:
            raise ValueError(f"{what} ambient {g.n} != declared {self.n}")
        if not g.blocks() <= set(self.order.blocks):
            raise ValueError(f"{what} {g} uses blocks outside {self.order.blocks}")


class GroebnerStats(SimpleNamespace):
    """What one Buchberger run did; every pair queued is reduced, so
    pairs_queued is reductions_zero plus reductions_nonzero.

    A SimpleNamespace rather than a dataclass, for the reason the value
    classes derive from algebra.Record: every start of `qa` builds this
    class, and `import dataclasses` with the code it generates per class
    would cost that start about 15 ms.
    """

    def __init__(self) -> None:
        super().__init__(
            pairs_queued=0,
            dropped_coprime=0,
            dropped_mf=0,  # criteria M and F, when the pair is installed
            dropped_field=0,  # field pairs (g, x) with x dividing every term of g
            reductions_zero=0,
            reductions_nonzero=0,
            products_vanished=0,  # products zero on every point of V0
            variety_points=0,  # |V|, when the basis is built from the variety V
            # block bases the route reads: distinct point sets solved on their
            # own, and blocks given the basis of an equal point set
            blocks_solved=0,
            blocks_reused=0,
        )


class GroebnerCertificate(Record):
    """Reduced basis plus the standard monomial count over the full ambient;
    stats, an attribute but not a field, so equality, hashing and repr
    ignore it, counts the work of the run behind them.

    masks is the basis as the engine holds it: one tuple of masks per
    element, in the order's own layout, descending, so element 0 is the
    leading monomial. basis is the same elements as Polynomials, built the
    first time it is read; the checkers never read it.
    """

    masks: tuple[tuple[int, ...], ...]
    order: BlockLexOrder
    n: int
    sm_count: int

    def __init__(
        self, masks: tuple[tuple[int, ...], ...], order: BlockLexOrder, n: int, sm_count: int,
        stats: GroebnerStats | None = None,
    ) -> None:
        stats = GroebnerStats() if stats is None else stats
        self.__dict__.update(masks=masks, order=order, n=n, sm_count=sm_count, stats=stats)

    @cached_property
    def basis(self) -> tuple[Polynomial, ...]:
        blocks, n = self.order.blocks, self.n
        return tuple(Polynomial(n, move_fields(p, blocks, BLOCKS, n)) for p in self.masks)

    def _suffix_top(self, keep_blocks: tuple[str, ...]) -> int:
        """The bit just above a block suffix's fields, which are the lowest
        bits of the order's layout: its monomials are the masks below it."""
        keep = tuple(keep_blocks)
        if not self.order.is_elimination_suffix(keep):
            raise ValueError(f"{keep} is not a suffix of block sequence {self.order.blocks}")
        return 1 << len(keep) * self.n

    def sm_count_for(self, keep_blocks: tuple[str, ...]) -> int:
        """Standard monomials of the elimination sub-basis over a block suffix."""
        top = self._suffix_top(keep_blocks)
        return _sm_count_masks([p[0] for p in self.masks if p[0] < top], top - 1)


def reduce_once(f1: Polynomial, f2: Polynomial, order: BlockLexOrder) -> Polynomial:
    """One top-reduction step in the Boolean ring: f1 + (LM(f1)/LM(f2)) * f2.

    The cofactor shares no variable with LM(f2), so it keeps the terms of f2
    in order and its product with LM(f2) is LM(f1), which cancels.
    """
    if f1.is_zero or f2.is_zero:
        raise ValueError("reduction requires nonzero polynomials")
    lm1 = f1.leading_monomial(order)
    lm2 = f2.leading_monomial(order)
    if lm2 & ~lm1:
        raise ValueError(f"LM of {f2} does not divide LM of {f1}")
    return f1 + Polynomial(f1.n, (lm1 & ~lm2,)) * f2


def spoly(f1: Polynomial, f2: Polynomial, order: BlockLexOrder) -> Polynomial:
    """Boolean S-polynomial: both copies scaled to the lcm (the OR) of their leading monomials."""
    if f1.is_zero or f2.is_zero:
        raise ValueError("s-polynomial requires nonzero polynomials")
    lm1 = f1.leading_monomial(order)
    lm2 = f2.leading_monomial(order)
    l = lm1 | lm2
    return Polynomial(f1.n, (l & ~lm1,)) * f1 + Polynomial(f2.n, (l & ~lm2,)) * f2


def normal_form(f: Polynomial, reducers: Sequence[Polynomial], order: BlockLexOrder) -> Polynomial:
    """Full normal form of f against the given set, in the Boolean ring.

    Works on Polynomials by repeated reduce_once, always with the first
    reducer whose leading monomial divides, and shares no code with the
    engine, so tests can check the engine's output with it. The field
    polynomials are implicit: products clamp, so x^2 + x is zero here.
    """
    polys = [g for g in reducers if not g.is_zero]
    for g in polys:
        if g.n != f.n:
            raise ValueError("ambient dimension mismatch")
    lms = [g.leading_monomial(order) for g in polys]
    rest = f
    out: list[int] = []
    while not rest.is_zero:
        lm = rest.leading_monomial(order)
        for g, d in zip(polys, lms):
            if not d & ~lm:
                rest = reduce_once(rest, g, order)
                break
        else:
            out.append(lm)
            rest = rest + Polynomial(f.n, (lm,))
    return Polynomial(f.n, out)


def _pair_loop(gens: list[tuple[int, ...]], v: int, stats: GroebnerStats) -> list[tuple[int, ...]]:
    """Buchberger's pair loop over v-bit masks; returns every element it
    built, a Groebner basis once the pairs run out."""
    basis: list[tuple[int, ...]] = []
    divisors = _Divisors(v)
    # A queued pair is (lcm degree, lcm, seq, i, j): j >= 0 pairs basis[i]
    # with basis[j], j < 0 is the field pair of basis[i] and the variable
    # whose mask is -j; its ordinary-ring lcm is LM_i with that variable
    # squared.
    heap: list[tuple[int, int, int, int, int]] = []
    seq = 0

    def add_poly(p: tuple[int, ...]) -> None:
        nonlocal seq
        idx = len(basis)
        lm = p[0]
        pairs: list[tuple[int, int]] = []  # (lcm, i) for the pairs (i, idx) to queue
        # The new pairs, grouped by lcm L; every member's LM divides L.
        # Criterion M drops a group when the table holds more divisors of
        # L than its members: the pair of p with such a divisor has an lcm
        # strictly dividing L. Criterion F keeps the earliest pair of a
        # group, and none when a member is coprime with p.
        first: dict[int, int] = {}
        size: dict[int, int] = {}
        coprime: set[int] = set()  # lcms of groups with a coprime member
        ncoprime = 0
        for i, q in enumerate(basis):
            l = q[0] | lm
            if not q[0] & lm:
                coprime.add(l)
                ncoprime += 1
            if l in size:
                size[l] += 1
            else:
                first[l] = i
                size[l] = 1
        for l, i in first.items():
            if l not in coprime and divisors.of(l).bit_count() == size[l]:
                pairs.append((l, i))
        stats.dropped_coprime += ncoprime
        stats.dropped_mf += idx - ncoprime - len(pairs)
        for l, i in pairs:
            heapq.heappush(heap, (l.bit_count(), l, seq, i, idx))
            seq += 1
        # Field pairs: x*p = p when x divides every term; the rest are the
        # only pairs with lcm LM(p) * x^2, and criterion M drops all of them
        # when an earlier leading monomial divides LM(p).
        common = lm
        for t in p:
            common &= t
        stats.dropped_field += common.bit_count()
        fields = lm & ~common
        if fields and divisors.of(lm):
            stats.dropped_mf += fields.bit_count()
            fields = 0
        stats.pairs_queued += len(pairs) + fields.bit_count()
        degree = lm.bit_count() + 1
        while fields:
            x = fields & -fields
            heapq.heappush(heap, (degree, lm, seq, idx, -x))
            seq += 1
            fields ^= x
        basis.append(p)
        divisors.add(idx, lm)

    for p in gens:
        add_poly(p)
    while heap:
        _, _, _, i, j = heapq.heappop(heap)
        s = _spoly(basis[i], basis[j]) if j >= 0 else _field_spoly(basis[i], -j)
        r = _normal_form(s, basis, divisors)
        if r:
            stats.reductions_nonzero += 1
            add_poly(r)
        else:
            stats.reductions_zero += 1
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


def buchberger(B: IdealBasis) -> GroebnerCertificate:
    """Reduced Boolean Groebner basis of <generators, products>.

    The zero ideal's basis is empty. The standard monomial count is over
    squarefree monomials in all ambient variables, so it equals the size of
    the variety in the Boolean quotient. An ideal with points is built from
    its variety and raises variety.TooLarge past that route's budget.
    """
    blocks, n = B.order.blocks, B.n
    v = len(blocks) * n
    stats = GroebnerStats()

    def engine(g: Polynomial) -> tuple[int, ...]:
        return tuple(sorted(move_fields(g.terms, BLOCKS, blocks, n), reverse=True))

    gens = [engine(g) for g in B.generators]
    if B.points:
        products = [[engine(f) for f in factors] for factors in B.products]
        points = {field_shift(b, n, blocks): pts for b, pts in B.points}
        reduced = reduced_basis(gens, products, points, n, stats)
    else:
        reduced = _reduce_basis(_pair_loop(gens, v, stats), v)
    count = stats.variety_points or _sm_count_masks([p[0] for p in reduced], (1 << v) - 1)
    return GroebnerCertificate(
        masks=tuple(reduced), order=B.order, n=n, sm_count=count, stats=stats
    )


def elimination_subbasis(cert: GroebnerCertificate, keep_blocks: tuple[str, ...]) -> tuple[Polynomial, ...]:
    """Basis elements lying entirely in a suffix of the block sequence.

    For a block lexicographic order this is a Groebner basis of the
    elimination ideal over the kept blocks. An element lies there when its
    leading monomial, the largest of its masks, does.
    """
    top = cert._suffix_top(keep_blocks)
    return tuple(g for g, p in zip(cert.basis, cert.masks) if p[0] < top)


def _minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks that no other mask divides, fewest bits first."""
    out: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(out)


def _sm_count_masks(masks: Sequence[int], universe: int) -> int:
    """Count the submasks of universe that no mask divides, by recursion on
    the variables; the masks lie in universe."""
    if any(m == 0 for m in masks):
        return 0
    bits = [1 << b for b in bit_positions(universe)]
    v = len(bits)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(i: int, active: tuple[int, ...]) -> int:
        if not active:
            return 1 << (v - i)
        key = (i, active)
        hit = memo.get(key)
        if hit is not None:
            return hit
        bit = bits[i]
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
            res += rec(i + 1, _minimal(inc))
        memo[key] = res
        return res

    return rec(0, _minimal(masks))


def standard_monomial_count(
    basis: Iterable[Polynomial],
    variables: Sequence[Variable],
    order: BlockLexOrder,
) -> int:
    """Number of squarefree monomials over `variables` no LM of `basis` divides."""
    basis = tuple(basis)
    n = basis[0].n if basis else max((var.index for var in variables), default=1)
    universe = 0
    for var in variables:
        universe |= var.mask(n)
    masks = [g.leading_monomial(order) for g in basis]
    for g, lm in zip(basis, masks):
        if g.n != n:
            raise ValueError("ambient dimension mismatch")
        if lm & ~universe:
            raise ValueError(f"leading monomial of {g} uses variables outside the universe")
    return _sm_count_masks(masks, universe)


def _truth_table_bitset(g: Polynomial, blocks: tuple[str, ...]) -> int:
    """Bitset over all points with bit p set when g(point p) = 1.

    Points are monomial masks in the layout of blocks, read as the set of
    variables assigned 1. The table is the binary subset-sum (zeta)
    transform over F2 of g's coefficients.
    """
    acc = 0
    for m in move_fields(g.terms, BLOCKS, blocks, g.n):
        acc ^= 1 << m
    return gf2_zeta(acc, len(blocks) * g.n)


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
    blocks = tuple(blocks)
    v = len(blocks) * n
    if v > limit:
        raise ValueError(f"variety enumeration over {v} variables exceeds the cap of {limit}")
    nonzero = 0
    for g in generators:
        if g.n != n or not g.blocks() <= set(blocks):
            raise ValueError(f"generator {g} outside {blocks} x {n}")
        nonzero |= _truth_table_bitset(g, blocks)
    zeros = ~nonzero & ((1 << (1 << v)) - 1)
    # the variable at position k of the tuple sits on bit v-1-k of the layout
    return frozenset(
        tuple((p >> k) & 1 for k in range(v - 1, -1, -1)) for p in bit_positions(zeros)
    )
