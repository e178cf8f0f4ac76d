"""Buchberger's algorithm over F2 and the counting tools built on it.

The engine works in the ordinary polynomial ring: the field polynomials
v^2 + v for every ambient variable are appended to each basis, so exponents
can transiently exceed 1 while the emitted, inter-reduced basis is Boolean
(squarefree) apart from field polynomials, which are stripped from the
report unless nothing else remains.

Internally a monomial is a single int holding one small exponent field per
variable, with the most significant variable in the highest bits. Integer
comparison of packed monomials therefore IS the block lexicographic
comparison, and divisibility, lcm and gcd are word-parallel bit tricks. A
polynomial is a tuple of packed monomials in descending order, so the
leading monomial is element 0.

Pair selection is the normal strategy: minimal lcm total degree, ties by
the order on the lcm, then by insertion sequence, which makes runs
reproducible. The coprime and chain criteria can be toggled; the reduced
basis is the same either way, which the test suite checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from .algebra import BlockLexOrder, Monomial, Polynomial, Variable, bit_positions, gf2_zeta


class _ExponentOverflow(Exception):
    """Internal: a packed exponent field overflowed; retry with wider fields."""


class _Context:
    """Packing and word-parallel arithmetic for one (order, n) ambient."""

    __slots__ = ("order", "n", "w", "vars", "v", "pos", "shifts", "H", "ONES", "SEL", "EXP_MAX")

    def __init__(self, order: BlockLexOrder, n: int, exp_bits: int = 4):
        self.order = order
        self.n = n
        self.w = exp_bits
        self.vars = order.variables(n)
        self.v = len(self.vars)
        self.pos = {var: i for i, var in enumerate(self.vars)}
        # position 0 is most significant, so it gets the highest field
        self.shifts = [(self.v - 1 - p) * exp_bits for p in range(self.v)]
        self.H = sum(1 << (s + exp_bits - 1) for s in self.shifts)
        self.ONES = sum(1 << s for s in self.shifts)
        self.SEL = (1 << (exp_bits - 1)) - 1
        self.EXP_MAX = (1 << (exp_bits - 1)) - 1

    def pack_monomial(self, m: Monomial) -> int:
        acc = 0
        for var, e in m.exponents:
            p = self.pos.get(var)
            if p is None:
                raise ValueError(f"variable {var} outside ambient {self.order.blocks} x {self.n}")
            if e > self.EXP_MAX:
                raise _ExponentOverflow()
            acc |= e << self.shifts[p]
        return acc

    def unpack_monomial(self, pm: int) -> Monomial:
        w = self.w
        fmask = (1 << w) - 1
        exps = {}
        for p, var in enumerate(self.vars):
            e = (pm >> self.shifts[p]) & fmask
            if e:
                exps[var] = e
        return Monomial(exps)

    def pack_polynomial(self, f: Polynomial) -> tuple[int, ...]:
        return tuple(sorted((self.pack_monomial(m) for m in f.terms), reverse=True))

    def unpack_polynomial(self, terms: Sequence[int]) -> Polynomial:
        return Polynomial(self.n, (self.unpack_monomial(t) for t in terms))

    # all helpers assume operands carry cleared guard bits

    def divides(self, d: int, m: int) -> bool:
        H = self.H
        return ((m | H) - d) & H == H

    def mul(self, a: int, b: int) -> int:
        s = a + b
        if s & self.H:
            raise _ExponentOverflow()
        return s

    def lcm(self, a: int, b: int) -> int:
        H = self.H
        d = ((a | H) - b) & H
        sel = (d >> (self.w - 1)) * self.SEL
        return (a & sel) | (b & ~sel)

    def gcd(self, a: int, b: int) -> int:
        H = self.H
        d = ((a | H) - b) & H
        sel = (d >> (self.w - 1)) * self.SEL
        return (b & sel) | (a & ~sel)

    def nonzero_fields(self, a: int) -> int:
        return ((a | self.H) - self.ONES) & self.H

    def coprime(self, a: int, b: int) -> bool:
        return self.nonzero_fields(a) & self.nonzero_fields(b) == 0

    def total_degree(self, m: int) -> int:
        w = self.w
        fmask = (1 << w) - 1
        s = 0
        while m:
            s += m & fmask
            m >>= w
        return s

    def support_positions(self, m: int) -> list[int]:
        w = self.w
        out = []
        nz = self.nonzero_fields(m)
        while nz:
            low = nz & -nz
            nz -= low
            fn = (low.bit_length() - w) // w  # field number, 0 = least significant
            out.append(self.v - 1 - fn)       # convert to position in self.vars
        return out

    def support_mask(self, m: int) -> int:
        """Bit k set when variable at position k of self.vars occurs in m."""
        w = self.w
        mask = 0
        nz = self.nonzero_fields(m)
        while nz:
            low = nz & -nz
            nz -= low
            mask |= 1 << ((low.bit_length() - w) // w)
        return mask

    def is_squarefree(self, m: int) -> bool:
        # doubling any exponent must not overflow, and exponents <= 1 means m+m has no
        # bit above the lowest of each field; cheaper: compare against clamp
        w = self.w
        fmask = (1 << w) - 1
        while m:
            if m & fmask > 1:
                return False
            m >>= w
        return True

    def field_polynomials(self) -> list[tuple[int, ...]]:
        out = []
        for p in range(self.v):
            s = self.shifts[p]
            out.append((2 << s, 1 << s))
        return out


def _spoly_packed(f: Sequence[int], g: Sequence[int], ctx: _Context) -> tuple[int, ...]:
    l = ctx.lcm(f[0], g[0])
    cf = l - f[0]
    cg = l - g[0]
    H = ctx.H
    acc: set[int] = set()
    for t in f:
        s = cf + t
        if s & H:
            raise _ExponentOverflow()
        if s in acc:
            acc.discard(s)
        else:
            acc.add(s)
    for t in g:
        s = cg + t
        if s & H:
            raise _ExponentOverflow()
        if s in acc:
            acc.discard(s)
        else:
            acc.add(s)
    return tuple(sorted(acc, reverse=True))


def _normal_form_packed(
    terms: Collection[int],
    basis: Sequence[tuple[int, ...]],
    lms: Sequence[int],
    buckets: dict[int, list[int]],
    ctx: _Context,
) -> tuple[int, ...]:
    """Full reduction: no output monomial is divisible by any basis leading monomial."""
    if not terms:
        return ()
    H = ctx.H
    ONES = ctx.ONES
    w = ctx.w
    v = ctx.v
    work = set(terms)
    heap = [-t for t in terms]
    heapq.heapify(heap)
    out: list[int] = []
    pop = heapq.heappop
    push = heapq.heappush
    # bucket -1 holds constant elements, which divide every monomial
    const_bucket = buckets.get(-1)
    while heap:
        m = -pop(heap)
        if m not in work:
            continue
        red = const_bucket[0] if const_bucket else -1
        nz = ((m | H) - ONES) & H
        while nz:
            low = nz & -nz
            nz -= low
            fn = (low.bit_length() - w) // w
            bucket = buckets.get(fn)
            if bucket:
                mH = m | H
                for idx in bucket:
                    if (mH - lms[idx]) & H == H and (red < 0 or idx < red):
                        red = idx
        if red < 0:
            work.discard(m)
            out.append(m)
            continue
        c = m - lms[red]
        for t in basis[red]:
            s = c + t
            if s & H:
                raise _ExponentOverflow()
            if s in work:
                work.discard(s)
            else:
                work.add(s)
                if s != m:
                    push(heap, -s)
    return tuple(out)


def _bucket_key(ctx: _Context, lm: int) -> int:
    """Field number of the most significant variable of lm."""
    nz = ctx.nonzero_fields(lm)
    return (nz.bit_length() - ctx.w) // ctx.w


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
    blocks: tuple[str, ...] = ()
    products: tuple[tuple[Polynomial, ...], ...] = ()

    def __post_init__(self) -> None:
        blocks = self.blocks or self.order.blocks
        if set(blocks) != set(self.order.blocks):
            raise ValueError("declared blocks must match the order's blocks")
        object.__setattr__(self, "blocks", tuple(blocks))
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
        if not g.blocks() <= set(self.blocks):
            raise ValueError(f"{what} {g} uses blocks outside {self.blocks}")


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


def coprime_criterion(f1: Polynomial, f2: Polynomial, order: BlockLexOrder) -> bool:
    """True when the leading monomials share no variable, so the pair is skippable."""
    lm1 = f1.leading_monomial(order)
    lm2 = f2.leading_monomial(order)
    return lm1.gcd(lm2).is_one


def chain_criterion(
    i: int,
    j: int,
    basis: Sequence[Polynomial],
    processed: Iterable[tuple[int, int]],
    order: BlockLexOrder,
) -> bool:
    """True when some third element divides the pair lcm and both side pairs are done."""
    done = {(min(a, b), max(a, b)) for a, b in processed}
    l = basis[i].leading_monomial(order).lcm(basis[j].leading_monomial(order))
    for k, g in enumerate(basis):
        if k == i or k == j:
            continue
        if not g.leading_monomial(order).divides(l):
            continue
        if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
            return True
    return False


def normal_form(f: Polynomial, reducers: Sequence[Polynomial], order: BlockLexOrder) -> Polynomial:
    """Full normal form of f against the given set (no implicit field polynomials)."""
    polys = [g for g in reducers if not g.is_zero]
    n = f.n
    for g in polys:
        if g.n != n:
            raise ValueError("ambient dimension mismatch")
    for exp_bits in (4, 8, 16):
        ctx = _Context(order, n, exp_bits)
        try:
            packed = [ctx.pack_polynomial(g) for g in polys]
            lms = [p[0] for p in packed]
            buckets: dict[int, list[int]] = {}
            for idx, lm in enumerate(lms):
                buckets.setdefault(_bucket_key(ctx, lm), []).append(idx)
            res = _normal_form_packed(ctx.pack_polynomial(f), packed, lms, buckets, ctx)
            return ctx.unpack_polynomial(res)
        except _ExponentOverflow:
            continue
    raise RuntimeError("exponent overflow at maximal field width")


def _run_buchberger(
    B: IdealBasis, ctx: _Context, use_coprime: bool, use_chain: bool
) -> list[tuple[int, ...]]:
    basis: list[tuple[int, ...]] = []
    lms: list[int] = []
    buckets: dict[int, list[int]] = {}
    heap: list[tuple[int, int, int, int, int]] = []
    processed: set[tuple[int, int]] = set()
    seq = 0

    def add_poly(p: tuple[int, ...]) -> None:
        nonlocal seq
        idx = len(basis)
        basis.append(p)
        lm = p[0]
        lms.append(lm)
        buckets.setdefault(_bucket_key(ctx, lm), []).append(idx)
        for i in range(idx):
            l = ctx.lcm(lms[i], lm)
            heapq.heappush(heap, (ctx.total_degree(l), l, seq, i, idx))
            seq += 1

    def pack(g: Polynomial) -> tuple[int, ...]:
        return ctx.pack_polynomial(g.boolean_reduce())

    for p in map(pack, B.generators):
        if p:
            add_poly(p)
    for fp in ctx.field_polynomials():
        add_poly(fp)
    products = iter([[pack(f) for f in factors] for factors in B.products])

    divides = ctx.divides
    while True:
        # A product waits until the pairs run out, then is reduced modulo that
        # Groebner basis after every factor: it stays small, and it differs from
        # the expanded product by an ideal element, so the ideal is unchanged.
        if not heap:
            factors = next(products, None)
            if factors is None:
                break
            acc: tuple[int, ...] = (0,)  # the packed constant 1
            for f in factors:
                terms: set[int] = set()
                for a in acc:
                    for b in f:
                        m = a | b  # lcm, the Boolean product of squarefree monomials
                        if m in terms:
                            terms.discard(m)
                        else:
                            terms.add(m)
                acc = _normal_form_packed(terms, basis, lms, buckets, ctx)
                if not acc:
                    break
            if acc:
                add_poly(acc)
            continue
        _, l, _, i, j = heapq.heappop(heap)
        processed.add((i, j))
        if use_coprime and ctx.coprime(lms[i], lms[j]):
            continue
        if use_chain:
            hit = False
            fns = [ctx.v - 1 - p for p in ctx.support_positions(l)]
            fns.append(-1)  # constants divide every lcm
            for fn in fns:
                bucket = buckets.get(fn)
                if not bucket:
                    continue
                for k in bucket:
                    if k == i or k == j or not divides(lms[k], l):
                        continue
                    a = (i, k) if i < k else (k, i)
                    b = (j, k) if j < k else (k, j)
                    if a in processed and b in processed:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                continue
        r = _normal_form_packed(_spoly_packed(basis[i], basis[j], ctx), basis, lms, buckets, ctx)
        if r:
            add_poly(r)
    return basis


def _reduce_basis(basis: list[tuple[int, ...]], ctx: _Context) -> list[tuple[int, ...]]:
    """Minimalize, then fully inter-reduce tails; output sorted by LM descending."""
    order_idx = sorted(range(len(basis)), key=lambda k: (basis[k][0], k))
    kept: list[int] = []
    kept_lms: list[int] = []
    for k in order_idx:
        lm = basis[k][0]
        if any(ctx.divides(kl, lm) for kl in kept_lms):
            continue
        kept.append(k)
        kept_lms.append(lm)
    cur: list[tuple[int, ...]] = [basis[k] for k in kept]
    for pos in range(len(cur)):
        others = cur[:pos] + cur[pos + 1 :]
        lms = [p[0] for p in others]
        buckets: dict[int, list[int]] = {}
        for idx, lm in enumerate(lms):
            buckets.setdefault(_bucket_key(ctx, lm), []).append(idx)
        cur[pos] = _normal_form_packed(cur[pos], others, lms, buckets, ctx)
    return sorted(cur, key=lambda p: p[0], reverse=True)


def buchberger(
    B: IdealBasis, *, use_coprime: bool = True, use_chain: bool = True
) -> GroebnerCertificate:
    """Reduced Groebner basis of <generators, products, field polynomials>.

    Field polynomials are stripped from the reported basis unless they are
    its only content. The standard monomial count is over squarefree
    monomials in all ambient variables, so it equals the size of the variety
    in the Boolean quotient.
    """
    for exp_bits in (4, 8, 16):
        ctx = _Context(B.order, B.n, exp_bits)
        try:
            raw = _run_buchberger(B, ctx, use_coprime, use_chain)
            reduced = _reduce_basis(raw, ctx)
            break
        except _ExponentOverflow:
            continue
    else:
        raise RuntimeError("exponent overflow at maximal field width")

    field_set = set(ctx.field_polynomials())
    reported = [p for p in reduced if p not in field_set]
    if not reported and reduced:
        reported = reduced
    polys = tuple(ctx.unpack_polynomial(p) for p in reported)
    masks = [ctx.support_mask(p[0]) for p in reported if ctx.is_squarefree(p[0])]
    count = _sm_count_masks(masks, ctx.v)
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
