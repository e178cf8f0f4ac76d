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
reproducible. Pairs are installed Gebauer-Moeller style (J. Symb. Comput.
6, 1988): the criteria act when an element h arrives, not when a pair is
popped. The pairs of h with the active elements are grouped by lcm.
Criterion M drops a group when the pair of h with some other element has
an lcm strictly dividing the group's; criterion F keeps one pair of a
group, and none when one of them is coprime, as the coprime criterion
drops those. Criterion B_k drops a pending pair (i, j) when LM(h) divides
its lcm and neither (i, h) nor (j, h) has the same lcm. A field pair (g, x)
is the pair of g with x^2 + x, whose ordinary-ring lcm is LM(g) * x^2, one
degree above LM(g), so the same criteria cover it. An active element whose
leading monomial LM(h) divides is retired: it gets no new pairs and no
longer reduces, but its pending pairs are still reduced. GroebnerStats
counts what a run did.

A prelude solves the generators that live in one block before the main
loop. Each block is an n-bit field of the mask; a block's generators
shifted down to the lowest field are its system, and each distinct system
is solved once by the same pair loop on n-bit masks, then reduced and
shifted onto every block that carries it. A block given by its points
instead is the ideal of that point set, I(P), and its reduced basis is
built from the points without a pair loop (_point_basis). The main loop
starts from the union of these bases and adds the other generators and the
products as usual. This is exact: shifting renames variables within a
block and keeps their order, so a shifted basis is a Boolean Groebner basis
on its block, and the leading monomials of different blocks are coprime, so
by the coprime criterion the pairs across blocks reduce to zero and the
union is a Boolean Groebner basis of the sum. The seeded elements therefore
get no pairs with each other and no field pairs.

When every block is given by its points and no generator is left, the
seeds generate I(V0), V0 the product of the block point sets, and a product
that is zero at every point of V0 already lies in that ideal. Such products
are dropped before the pair loop (_nonvanishing).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Collection, Iterable, Sequence

from .algebra import (
    BLOCKS,
    BlockLexOrder,
    Polynomial,
    Variable,
    bit_positions,
    field_shift,
    gf2_zeta,
    move_fields,
)

# Above this many points of V0, products are folded without evaluating them
# first: one value bitset of V0 is then 512 KB.
_V0_LIMIT = 1 << 22


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
    indices whose leading monomial, restricted to chunk k, is a subset of u,
    and alive is the bitset of elements not removed. The elements whose
    leading monomial divides m are alive AND, over the chunks, m's entries,
    with no loop over the elements.
    """

    __slots__ = ("rows", "alive")

    def __init__(self, v: int):
        self.rows = [[0] * 16 for _ in range((v + 3) // 4)]
        self.alive = 0

    def add(self, idx: int, lm: int) -> None:
        bit = 1 << idx
        for row in self.rows:
            for u in _SUPERSETS[lm & 15]:
                row[u] |= bit
            lm >>= 4
        self.alive |= bit

    def remove(self, idx: int) -> None:
        self.alive &= ~(1 << idx)

    def of(self, m: int) -> int:
        found = self.alive
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
    alive = divisors.alive
    while heap:
        m = -pop(heap)
        if m not in work:
            continue
        found = alive  # divisors.of(m), inlined: this runs once per term
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

    Each entry of points is a block and a set of n-bit masks, index 1 on the
    field's top bit (as encoding._field_mask gives): the ideal then also
    holds I(points) on that block, the polynomials in that block's variables
    vanishing at every listed point. An empty set puts 1 in the ideal. A
    block with points takes no generator of its own variables only.
    """

    generators: tuple[Polynomial, ...]
    order: BlockLexOrder
    n: int
    products: tuple[tuple[Polynomial, ...], ...] = ()
    points: tuple[tuple[str, frozenset[int]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "products", tuple(tuple(p) for p in self.products))
        object.__setattr__(self, "points", tuple((b, frozenset(m)) for b, m in self.points))
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
        for g in self.generators:
            if len(g.blocks()) == 1 and g.blocks() <= set(blocks):
                raise ValueError(f"generator {g} lives only in a block given by points")

    def _check(self, g: Polynomial, what: str) -> None:
        if not isinstance(g, Polynomial):
            raise TypeError(f"{what} {g!r} is not a Polynomial")
        if g.n != self.n:
            raise ValueError(f"{what} ambient {g.n} != declared {self.n}")
        if not g.blocks() <= set(self.order.blocks):
            raise ValueError(f"{what} {g} uses blocks outside {self.order.blocks}")


class GroebnerStats(SimpleNamespace):
    """What one Buchberger run did; the pairs queued are the pairs reduced
    plus those criterion B_k removed while pending.

    A SimpleNamespace rather than a dataclass: every start of `qa` imports
    this module, and building a dataclass costs about a millisecond.
    """

    def __init__(self) -> None:
        super().__init__(
            pairs_queued=0,
            dropped_coprime=0,
            dropped_mf=0,  # criteria M and F, when the pair is installed
            dropped_bk=0,  # criterion B_k, while the pair is pending
            dropped_field=0,  # field pairs (g, x) with x dividing every term of g
            reductions_zero=0,
            reductions_nonzero=0,
            products_folded=0,
            products_vanished=0,  # products zero on every point of V0, never folded
            retired=0,
            max_active=0,
            blocks_solved=0,  # distinct one-block systems or point sets solved on their own
            blocks_reused=0,  # blocks seeded with the basis of an equal system or point set
        )


@dataclass
class GroebnerCertificate:
    """Reduced basis plus the standard monomial count over the full ambient;
    stats, which equality ignores, counts the work of the run behind them."""

    basis: tuple[Polynomial, ...]
    order: BlockLexOrder
    n: int
    sm_count: int
    stats: GroebnerStats = field(default_factory=GroebnerStats, compare=False)

    @property
    def blocks(self) -> tuple[str, ...]:
        return self.order.blocks

    def sm_count_for(self, keep_blocks: tuple[str, ...]) -> int:
        """Standard monomials of the elimination sub-basis over a block suffix."""
        keep = tuple(keep_blocks)
        suborder = BlockLexOrder(keep)
        sub = elimination_subbasis(self, keep)
        return standard_monomial_count(sub, suborder.variables(self.n), suborder)


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


def _solve_blocks(
    gens: list[tuple[int, ...]], points: dict[int, frozenset[int]], n: int, stats: GroebnerStats
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Solve the generators that live in one block, and the blocks given by
    points (shift -> point set), each distinct system or point set once.

    Blocks are the n-bit fields of a mask. A block's generators, shifted down
    to the lowest field, are one system; its reduced basis on n-bit masks is
    shifted back onto every block that carries the same system. Returns the
    generators left over and the union of the blockwise bases.
    """
    rest: list[tuple[int, ...]] = []
    systems: dict[int, list[tuple[int, ...]]] = {}  # shift -> its generators, shifted down
    for p in gens:
        support = 0
        for t in p:
            support |= t
        shift = (support.bit_length() - 1) // n * n
        if support and support >> shift << shift == support:
            systems.setdefault(shift, []).append(tuple(t >> shift for t in p))
        else:
            rest.append(p)
    # a system is keyed by its generators, a point set by its bitset
    jobs: list[tuple[int, frozenset | int]] = [(s, frozenset(gs)) for s, gs in systems.items()]
    jobs += [(shift, sum(1 << p for p in pts)) for shift, pts in points.items()]
    solved: dict[frozenset | int, list[tuple[int, ...]]] = {}
    seeds: list[tuple[int, ...]] = []
    for shift, key in jobs:
        basis = solved.get(key)
        if basis is None:
            stats.blocks_solved += 1
            if isinstance(key, int):
                elements = _point_basis(key, 1 << n, {}).values()
                basis = [tuple(bit_positions(g)[::-1]) for g in elements]
            else:
                basis = _reduce_basis(_pair_loop(list(key), [], [], n, stats), n)
            solved[key] = basis
        else:
            stats.blocks_reused += 1
        seeds.extend(tuple(t << shift for t in g) for g in basis)
    return rest, seeds


# Point sets, value tables and polynomials below are bitsets over the size
# masks of a cube, size a power of two: bit p of a point set or table is
# the point p, bit m of a polynomial its monomial m. Splitting such a
# bitset at half = size / 2 splits on the top variable x: the low half has
# x = 0 (or no x), the high half x = 1, x dropped. The standard monomials
# of I(P) under lex follow the same split (Cerlienco and Mureddu, Discrete
# Math. 139, 1995): std(P) = std(P0 | P1) + x * std(P0 & P1).


def _interpolate(points: int, values: int, size: int) -> int:
    """The polynomial over the lex standard monomials of I(points) that
    takes values on points; values must lie within points.

    Write it f0 + x * f1 with f0 over std(P0 | P1) and f1 over
    std(P0 & P1). It is f0 on P0 and f0 + f1 on P1, so f1 takes v0 + v1 on
    P0 & P1, and then f0 is fixed on P0 | P1.
    """
    if not values:
        return 0
    if points == (1 << size) - 1:
        return gf2_zeta(values, size.bit_length() - 1)
    half = size >> 1
    low = (1 << half) - 1
    p0, p1, v0, v1 = points & low, points >> half, values & low, values >> half
    both = p0 & p1
    f1 = _interpolate(both, (v0 ^ v1) & both, half)
    t1 = gf2_zeta(f1, half.bit_length() - 1)  # f1's values
    f0 = _interpolate(p0 | p1, v0 & p0 | (v1 ^ t1) & p1 & ~p0, half)
    return f0 | f1 << half


def _point_basis(points: int, size: int, memo: dict) -> dict[int, int]:
    """Reduced lex basis of I(points), leading monomial -> element, with no pair loop.

    I(P) has the basis of I(P0 | P1), which leaves x out, and for each
    element g of the basis of I(P0 & P1) whose leading monomial m does not
    lead one of those, the element x * g + f0 with f0 over std(P0 | P1). It
    is zero on P0 and takes g's values on P1 - P0, where x * g does not
    vanish. Its terms are standard and it vanishes on P, so it is reduced.
    """
    if points == (1 << size) - 1:
        return {}
    if not points:
        return {0: 1}
    key = (points, size)
    if key in memo:
        return memo[key]
    half = size >> 1
    low = (1 << half) - 1
    p0, p1 = points & low, points >> half
    basis = dict(_point_basis(p0 | p1, half, memo))
    only1 = p1 & ~p0
    for m, g in _point_basis(p0 & p1, half, memo).items():
        if m not in basis:
            t = gf2_zeta(g, half.bit_length() - 1) & only1
            basis[half | m] = g << half | _interpolate(p0 | p1, t, half)
    memo[key] = basis
    return basis


def _nonvanishing(
    products: list[list[tuple[int, ...]]], points: dict[int, frozenset[int]], n: int
) -> list[list[tuple[int, ...]]]:
    """The products that are not zero at every point of V0, the product of
    the point sets of all blocks (shift -> point set).

    A point of V0 is a tuple of block points, numbered in mixed radix with
    the top block most significant, so the values of a term are the
    Kronecker product of its per-block values. The Kronecker product A (x) R
    with R over the lower blocks is the integer product of R with A's bits
    spread to the multiples of R's width, as the shifted copies of R do not
    overlap. Over _V0_LIMIT points every product is kept.
    """
    fields = []
    width = 1
    for shift, pts in sorted(points.items()):  # bottom block first
        fields.append((shift, sorted(pts, reverse=True), "0" * (width - 1)))
        width *= len(pts)
    if width > _V0_LIMIT:
        return products
    spread: dict[tuple[int, int], int] = {}  # (shift, block monomial) -> its values, spread
    kept = []
    for factors in products:
        acc = (1 << width) - 1
        for factor in factors:
            table = 0
            for t in factor:
                r = 1
                for shift, pts, gap in fields:
                    m = t >> shift & ((1 << n) - 1)
                    if (shift, m) not in spread:
                        bits = gap.join("1" if p & m == m else "0" for p in pts)
                        spread[shift, m] = int("0" + bits, 2)
                    r *= spread[shift, m]
                table ^= r
            acc &= table
            if not acc:
                break
        if acc:
            kept.append(factors)
    return kept


def _pair_loop(
    gens: list[tuple[int, ...]],
    products: list[list[tuple[int, ...]]],
    seeds: list[tuple[int, ...]],
    v: int,
    stats: GroebnerStats,
) -> list[tuple[int, ...]]:
    """Buchberger's pair loop over v-bit masks; returns the active elements
    left when the pairs run out. seeds must be a Boolean Groebner basis:
    they are installed without pairs or field pairs."""
    basis: list[tuple[int, ...]] = list(seeds)
    lms: list[int] = [p[0] for p in seeds]
    active: list[int] = list(range(len(seeds)))
    divisors = _Divisors(v)
    for idx, lm in enumerate(lms):
        divisors.add(idx, lm)
    stats.max_active = max(stats.max_active, len(active))
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
        gone: list[int] = []  # active elements p retires
        # Criterion B_k on the pending pairs.
        kept = [e for e in heap if e[1] & lm != lm or not _chain_through(e, lm, lms)]
        if len(kept) != len(heap):
            stats.dropped_bk += len(heap) - len(kept)
            heap[:] = kept
            heapq.heapify(heap)
        # The new pairs, grouped by lcm L; every member's LM divides L.
        # Criterion M drops a group when the table holds more divisors of
        # L than its members: the pair of p with such a divisor has an lcm
        # strictly dividing L. Criterion F keeps the earliest pair of a
        # group, and none when a member is coprime with p.
        first: dict[int, int] = {}
        size: dict[int, int] = {}
        coprime: set[int] = set()  # lcms of groups with a coprime member
        ncoprime = 0
        for i in active:
            l = lms[i] | lm
            if l == lms[i]:
                gone.append(i)
            if not lms[i] & lm:
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
        stats.dropped_mf += len(active) - ncoprime - len(pairs)
        for l, i in pairs:
            heapq.heappush(heap, (l.bit_count(), l, seq, i, idx))
            seq += 1
        # Field pairs: x*p = p when x divides every term; the rest are the
        # only pairs with lcm LM(p) * x^2, and criterion M drops all of them
        # when an active leading monomial divides LM(p).
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
        if gone:
            # Retire the active elements whose leading monomial LM(p) divides:
            # no new pairs, no reductions; their pending pairs stay queued.
            for k in gone:
                divisors.remove(k)
            stats.retired += len(gone)
            active[:] = [k for k in active if lms[k] & lm != lm]
        basis.append(p)
        lms.append(lm)
        active.append(idx)
        divisors.add(idx, lm)
        if len(active) > stats.max_active:
            stats.max_active = len(active)

    for p in gens:
        add_poly(p)
    pending = iter(products)

    while True:
        # A product waits until the pairs run out, then is reduced modulo that
        # Groebner basis after every factor: it stays small, and it differs from
        # the expanded product by an ideal element, so the ideal is unchanged.
        if not heap:
            factors = next(pending, None)
            if factors is None:
                break
            stats.products_folded += 1
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
        _, _, _, i, j = heapq.heappop(heap)
        s = _spoly(basis[i], basis[j]) if j >= 0 else _field_spoly(basis[i], -j)
        r = _normal_form(s, basis, divisors)
        if r:
            stats.reductions_nonzero += 1
            add_poly(r)
        else:
            stats.reductions_zero += 1
    return [basis[k] for k in active]


def _chain_through(pair: tuple[int, int, int, int, int], lm: int, lms: Sequence[int]) -> bool:
    """Criterion B_k for a pending pair whose lcm L the new leading monomial lm
    divides: true when neither of the pair's elements has lcm L with lm."""
    _, l, _, i, j = pair
    if j < 0:
        # L is LM_i with x squared: the pair of lm with LM_i is squarefree, and
        # the pair of lm with x^2 + x has lcm (lm | x) with x squared.
        return lm | -j != l
    return lms[i] | lm != l and lms[j] | lm != l


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
    the variety in the Boolean quotient.
    """
    blocks, n = B.order.blocks, B.n
    v = len(blocks) * n
    stats = GroebnerStats()

    def engine(g: Polynomial) -> tuple[int, ...]:
        return tuple(sorted(move_fields(g.terms, BLOCKS, blocks, n), reverse=True))

    points = {field_shift(b, n, blocks): pts for b, pts in B.points}
    gens, seeds = _solve_blocks([engine(g) for g in B.generators], points, n, stats)
    products = [[engine(f) for f in factors] for factors in B.products]
    if products and len(points) == len(blocks) and not gens:
        # the seeds generate I(V0), which holds every product zero on V0
        kept = _nonvanishing(products, points, n)
        stats.products_vanished = len(products) - len(kept)
        products = kept
    if gens or products:
        reduced = _reduce_basis(_pair_loop(gens, products, seeds, v, stats), v)
    else:
        # each block's basis is reduced, and no block's leading monomials divide another's terms
        stats.max_active = len(seeds)
        reduced = [(0,)] if (0,) in seeds else sorted(seeds, reverse=True)
    polys = tuple(Polynomial(n, move_fields(p, blocks, BLOCKS, n)) for p in reduced)
    count = _sm_count_masks([p[0] for p in reduced], (1 << v) - 1)
    return GroebnerCertificate(
        basis=polys, order=B.order, n=n, sm_count=count, stats=stats
    )


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


def _minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks that no other mask divides, fewest bits first."""
    out: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(out)


def _sm_count_masks(masks: Sequence[int], universe: int) -> int:
    """Count the submasks of universe that no mask divides; the masks lie in it.

    Masks over disjoint sets of variables are counted apart, and the counts
    multiply; the variables of no mask double the count.
    """
    parts: dict[int, list[int]] = {}  # variables -> the masks on them; no two share one
    for m in masks:
        support, group = m, [m]
        for variables in [k for k in parts if k & m]:
            support |= variables
            group += parts.pop(variables)
        parts[support] = group
    count = 1 << universe.bit_count()
    for variables, group in parts.items():
        count = (count >> variables.bit_count()) * _sm_count_connected(group, variables)
    return count


def _sm_count_connected(masks: Sequence[int], universe: int) -> int:
    """_sm_count_masks on masks that share variables, by recursion on the variables."""
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
