"""The variety route: reduced lex bases of Boolean point ideals, built from the points.

A point set P of the cube {0,1}^v has the vanishing ideal I(P), and its
reduced basis under lex follows from P alone, with no pair loop.

reduced_basis takes an ideal with points on every block: I(V0) + <generators,
products>, V0 the product of the block point sets. A Boolean ideal is
radical, so this is I(V), V the tuples of V0 where every generator and
product is zero. evaluate finds V from the Kronecker structure of V0, shrink
cuts each block's points to those V uses, and LexGame builds the reduced
basis of I(V) one block at a time, with no pair loop and no
inter-reduction, down to the first block k where V's projection onto the
blocks from k on is the product of their point sets. The point bases of
those blocks, each distinct point set solved once by a game of its own, are
the rest (k = 0 when V is V0). V0's bitset and the tables of each game share
one budget, _TABLE_BITS bits; past it the route raises TooLarge, a
ValueError.

Point sets, value tables and polynomials here are bitsets over the masks of
a block's cube, each mask owning a run of unit bits indexed by the points w
of the blocks below (unit = 1 for a single block): bit m * unit + w of a
point set is the point (m, w), of a value table the value there, and of a
polynomial the value at w of the coefficient of monomial m, a function of
the lower blocks (LexGame). Splitting such a bitset at half = unit * 2^(j-1)
splits on the top variable x: the low half has x = 0 (or no x), the high
half x = 1, x dropped. The standard monomials of I(P) under lex follow the
same split, the lex game (Cerlienco and Mureddu, Discrete Math. 139, 1995):
std(P) = std(P0 | P1) + x * std(P0 & P1). The basis and the interpolating
polynomials follow it too (Marinari, Moeller and Mora, AAECC 4, 1993).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from .algebra import bit_positions, repeat_bits, zeta_steps

# A level's tables are turned into polynomials this many bits at a time.
_BATCH_BITS = 1 << 18
# The bits (256 MiB) that V0's bitset and a lex game's tables may hold in all.
_TABLE_BITS = 1 << 31


class TooLarge(ValueError):
    """The variety route would hold more bits than its table budget."""

    def __init__(self, what: str, bits: int, budget: float):
        super().__init__(f"{what} would hold {bits} bits, over the table budget of {budget} bits")


def _standard(points: int, size: int) -> int:
    """The lex standard monomials of I(points), as a bitset over the size masks."""
    if not points or points == (1 << size) - 1:
        return points
    half = size >> 1
    p0, p1 = points & ((1 << half) - 1), points >> half
    return _standard(p0 | p1, half) | _standard(p0 & p1, half) << half


class LexGame:
    """Reduced lex basis of I(V) for a point set V of V0 = S_0 x ... x S_last,
    the product of the blocks' point sets, top block first, with no pair loop.

    Level b runs the lex game on block b's 2^n cube. The blocks below stay
    their point sets W_b = S_b+1 x ... x S_last, numbered in mixed radix with
    the upper block most significant and each S_i ascending: a table of
    level b has unit_b = |W_b| bits per mask of the cube, 2^n * unit_b in
    all, never 2^v. Modulo I(W_b) a polynomial of the lower blocks is its
    function on W_b, so a polynomial of level b holds coefficients over the
    cube, and for each monomial m the values on W_b of the lower polynomial
    m is multiplied by; gf2_zeta over the cube alone then evaluates it.

    A basis of level b is the part of the reduced basis of I(P) whose leading
    monomials are standard for I(W_b), keyed by leading monomial m * unit_b
    + w, w the mixed-radix index of a product of lower standard monomials
    (each std(S_i) ascending, so keys order as the monomials do). The rest
    of that basis leads with leading monomials of I(W_b), and elements reads
    it from the levels below. A leaf, a point set P of W_b, is block b+1's
    problem one level down (lift). A game keeps each node's basis (memo),
    each leaf's interpolant (leaves), each leaf point set spread to the
    next level (spreads) and the masks of its zeta transforms (zetas), and
    counts their bits toward its budget.
    """

    def __init__(
        self, fields: list[tuple[int, list[int]]], n: int, budget: float = math.inf, held: int = 0
    ):
        """fields: shift and ascending n-bit points of each block, top first.
        budget: the bits the tables a game keeps may hold in all, with the
        held bits its caller keeps; past it basis raises TooLarge."""
        self.n = n
        self.shifts = [shift for shift, _ in fields]
        self.pts = [pts for _, pts in fields]
        self.units = [math.prod(len(pts) for pts in self.pts[b + 1:]) for b in range(len(fields))]
        self.std = [[]] + [
            bit_positions(_standard(sum(1 << p for p in pts), 1 << n)) for pts in self.pts[1:]
        ]
        self.index = [{m: i for i, m in enumerate(std)} for std in self.std]
        self.memo: dict[tuple[int, int, int], dict[int, int]] = {}
        self.budget = budget
        self.bits = held  # and those of the element tables, lifted bases, leaves, spreads and masks kept
        self.leaves: dict[tuple[int, int, int], int] = {}  # (b, points, values) -> interpolant
        self.spreads: dict[tuple[int, int], int] = {}  # (b, points of W_b-1) -> spread(points, b)
        self.zetas: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (v, unit) -> zeta_steps(v, unit)
        self.inverses: dict[int, list[list[int]]] = {}

    def elements(self, variety: int) -> tuple[list[tuple[int, ...]], int]:
        """The elements of the reduced basis of I(V), V a bitset over V0,
        that lead with a block above k, as engine masks, leading monomial
        first; and k, the first block b where V's projection onto blocks b
        and below is all of S_b x W_b (else the number of blocks). Lex
        eliminates: level b's basis of that projection holds, at keys from
        unit_b on, the elements that lead with block b, and level b-1
        memoised it at j = 0. The point bases of blocks k on are the rest."""
        levels = []
        for b, u in enumerate(self.units):
            if variety == (1 << (u * len(self.pts[b]))) - 1:
                break
            basis = self.basis(b, self.n, self.spread(variety, b))
            levels.append([g for m, g in basis.items() if m >= u])
            below = 0  # V's projection onto W_b: the OR of its points' runs
            for i in range(len(self.pts[b])):
                below |= variety >> i * u & ((1 << u) - 1)
            variety = below
        for kept in (self.memo, self.leaves, self.spreads, self.zetas):
            kept.clear()  # the element tables are all that is left to read
        found = [p for b, tables in enumerate(levels) for p in self.polynomials(tables, b)]
        return found, len(levels)

    def spread(self, bits: int, b: int) -> int:
        """A table over S_b x W_b as one over block b's cube: the run of
        unit_b bits at i * unit_b, point i's, moves to its mask p at
        p * unit_b; the runs of the other masks are zero."""
        u = self.units[b]
        run, table = (1 << u) - 1, 0
        for p in self.pts[b]:
            if r := bits & run:
                table |= r << p * u
            bits >>= u
        return table

    def gather(self, table: int, b: int) -> int:
        """The inverse of spread: the runs of block b's points, in order."""
        u = self.units[b]
        run, bits = (1 << u) - 1, 0
        for i, p in enumerate(self.pts[b]):
            if r := table >> p * u & run:
                bits |= r << i * u
        return bits

    def _spread_leaf(self, points: int, b: int) -> int:
        """spread(points, b) for a leaf point set of level b-1, once per game."""
        if (b, points) not in self.spreads:
            table = self.spreads[b, points] = self.spread(points, b)
            self._hold(points.bit_length() + table.bit_length())
        return self.spreads[b, points]

    def basis(self, b: int, j: int, points: int) -> dict[int, int]:
        """Level b's basis of points, a table over j variables of block b.

        I(P) has the basis of I(P0 | P1), which leaves x out, and for each
        element g of the basis of I(P0 & P1) whose leading monomial m does
        not lead one of those, the element x * g + f0 with f0 over std(P0 |
        P1). It is zero on P0 and takes g's values on P1 - P0, where x * g
        does not vanish. Its terms are standard and it vanishes on P, so it
        is reduced.
        """
        u = self.units[b]
        if points == (1 << (u << j)) - 1:
            return {}
        if not points:
            return {0: (1 << u) - 1}  # the constant 1
        key = (b, j, points)
        if key in self.memo:
            return self.memo[key]
        if j == 0:
            basis = self.lift(b + 1, self.basis(b + 1, self.n, self._spread_leaf(points, b + 1)))
            self._hold(sum(g.bit_length() for g in basis.values()))
        else:
            half = u << (j - 1)
            p0, p1 = points & ((1 << half) - 1), points >> half
            basis = dict(self.basis(b, j - 1, p0 | p1))
            only1 = p1 & ~p0
            for m, g in self.basis(b, j - 1, p0 & p1).items():
                if m not in basis:
                    f0 = 0  # zero on P0, so zero everywhere when P1 lies in P0
                    if only1:
                        f0 = self.interpolate(b, j - 1, p0 | p1, self._zeta(g, j - 1, u) & only1)
                    g = basis[half + m] = g << half | f0
                    self._hold(g.bit_length())
        self.memo[key] = basis
        return basis

    def _zeta(self, table: int, v: int, u: int) -> int:
        """gf2_zeta(table, v, u), with the masks of each (v, u) built once
        per game; over no variables the table itself."""
        if not v:
            return table
        steps = self.zetas.get((v, u))
        if steps is None:
            steps = self.zetas[v, u] = list(zeta_steps(v, u))
            self._hold(sum(pat.bit_length() for _, pat in steps))
        for blk, pat in steps:
            table ^= (table & pat) << blk
        return table

    def _hold(self, bits: int) -> None:
        """Count bits more of tables kept; past the budget raise TooLarge."""
        self.bits += bits
        if self.bits > self.budget:
            raise TooLarge("the lex game's tables and V0", self.bits, self.budget)

    def lift(self, b: int, basis: dict[int, int]) -> dict[int, int]:
        """Level b's basis as a basis of level b-1 on W_b-1 = S_b x W_b.

        Its elements whose leading monomial is standard for S_b are all
        standard, so their values on S_b x W_b lose nothing. The others lead
        with a leading monomial of I(S_b), not standard for W_b-1, and
        elements reads them at level b.
        """
        u, index = self.units[b], self.index[b]
        out = {}
        for m, g in basis.items():
            c, w = divmod(m, u)
            i = index.get(c)
            if i is not None:
                out[i * u + w] = self.gather(self._zeta(g, self.n, u), b)
        return out

    def interpolate(self, b: int, j: int, points: int, values: int) -> int:
        """The polynomial over the standard monomials of I(points) that takes
        values on points; values must lie within points.

        Write it f0 + x * f1 with f0 over std(P0 | P1) and f1 over
        std(P0 & P1). It is f0 on P0 and f0 + f1 on P1, so f1 takes v0 + v1
        on P0 & P1, and then f0 is fixed on P0 | P1. The monomial 1 is
        standard for every nonempty P, so all ones on P give the constant 1.
        A leaf is interpolated one level down once per game.
        """
        if not values:
            return 0
        u = self.units[b]
        if values == points:
            return (1 << u) - 1
        if points == (1 << (u << j)) - 1:
            return self._zeta(values, j, u)
        if j == 0:
            key = (b, points, values)
            f = self.leaves.get(key)
            if f is None:
                f = self.interpolate(
                    b + 1, self.n, self._spread_leaf(points, b + 1), self.spread(values, b + 1)
                )
                f = self.leaves[key] = self.gather(self._zeta(f, self.n, self.units[b + 1]), b + 1)
                self._hold(points.bit_length() + values.bit_length() + f.bit_length())
            return f
        half = u << (j - 1)
        low = (1 << half) - 1
        p0, p1, v0, v1 = points & low, points >> half, values & low, values >> half
        both, only1 = p0 & p1, p1 & ~p0
        f1 = (v0 ^ v1) & both
        if f1:
            f1 = self.interpolate(b, j - 1, both, f1)
            if only1:  # f1's values are read only there
                v1 ^= self._zeta(f1, j - 1, u)
        f0 = v0 | v1 & only1
        if f0:
            f0 = self.interpolate(b, j - 1, p0 | p1, f0)
        return f0 | f1 << half

    def polynomials(self, tables: list[int], level: int) -> list[tuple[int, ...]]:
        """Polynomials of a level as engine masks, leading monomial first.

        A table's run at m * unit holds the values on W_level of what its
        block's monomial m is multiplied by. The nonzero runs of all tables
        are stacked, run k at k * unit, in one int per _BATCH_BITS bits, where
        _coefficients turns each lower block's values into coefficients. Bit
        k * unit + w is then run k's monomial times the lower standard
        monomials at mixed-radix index w.
        """
        unit, shift = self.units[level], self.shifts[level]
        per = max(1, _BATCH_BITS // unit)
        high = repeat_bits(1 << (unit - 1), unit, unit << self.n)  # each run's top bit
        low = ((1 << (unit << self.n)) - 1) ^ high  # the rest of each run
        lower = [0]  # the products of lower standard monomials, by mixed-radix index
        for b in range(level + 1, len(self.pts)):
            lower = [mask | m << self.shifts[b] for mask in lower for m in self.std[b]]
        terms: list[list[int]] = [[] for _ in tables]
        runs: list[int] = []
        owners: list[tuple[int, int]] = []  # (table, its block's monomial) of each run

        def flush() -> None:
            stack, width = runs, unit
            while len(stack) > 1:  # pairwise, so each bit moves log(len(runs)) times
                stack = [lo | hi << width for lo, hi in zip(stack[::2], stack[1::2] + [0])]
                width *= 2
            stack = stack[0]
            for b in range(level + 1, len(self.pts)):
                stack = self._coefficients(b, stack, self.units[b], len(runs) * unit)
            for i in bit_positions(stack):
                k, w = divmod(i, unit)
                e, top = owners[k]
                terms[e].append(top | lower[w])
            runs.clear()
            owners.clear()

        for e, g in enumerate(tables):
            # a run's top bit is set, or carried into from the rest, when the run is not zero
            for i in bit_positions((((g & low) + low) | g) & high):
                m = i // unit
                runs.append(g >> m * unit & (1 << unit) - 1)
                owners.append((e, m << shift))
                if len(runs) == per:
                    flush()
        if runs:
            flush()
        return [tuple(sorted(t, reverse=True)) for t in terms]

    def _coefficients(self, b: int, g: int, stride: int, total: int) -> int:
        """g, total bits with bit i at point (i // stride) mod |S_b| of block
        b, with its values on S_b replaced by the coefficients over std(S_b).
        Point c's slice is g shifted down c * stride bits, under stride ones
        every |S_b| * stride bits; coefficient r sums the slices of row r."""
        if b not in self.inverses:
            self.inverses[b] = self._inverse(b)
        size = len(self.pts[b])
        mask = repeat_bits((1 << stride) - 1, size * stride, total)
        slices = [g >> c * stride & mask for c in range(size)]
        g = 0
        for r, row in enumerate(self.inverses[b]):
            acc = 0
            for c in row:
                acc ^= slices[c]
            g |= acc << r * stride
        return g

    def _inverse(self, b: int) -> list[list[int]]:
        """Row r: the points of block b whose values sum to the coefficient
        of its r-th standard monomial. Gauss-Jordan elimination on the
        evaluation matrix, invertible since |std(S_b)| = |S_b|."""
        pts, index = self.pts[b], self.index[b]
        s = len(pts)
        rows = []
        for i, p in enumerate(pts):
            row, m = 1 << (s + i), p
            while True:  # the standard monomials among the submasks m of p
                if m in index:
                    row |= 1 << index[m]
                if not m:
                    break
                m = (m - 1) & p
            rows.append(row)
        for r in range(s):
            pivot = next(i for i in range(r, s) if rows[i] >> r & 1)
            rows[r], rows[pivot] = rows[pivot], rows[r]
            for i in range(s):
                if i != r and rows[i] >> r & 1:
                    rows[i] ^= rows[r]
        return [bit_positions(row >> s) for row in rows]


def evaluate(
    gens: list[tuple[int, ...]],
    products: list[list[tuple[int, ...]]],
    fields: list[tuple[int, list[int]]],
    n: int,
) -> tuple[int, int]:
    """V, the points of V0 where every generator and every product is zero,
    as a bitset over V0, and the number of products zero on all of V0.

    fields lists each block's shift and ascending points, top block first.
    A point of V0 is a tuple of block points, numbered in mixed radix with
    the top block most significant, so the values of a term are the
    Kronecker product of its per-block values. The Kronecker product A (x) R
    with R over the lower blocks is the integer product of R with A's bits
    spread to the multiples of R's width, as the shifted copies of R do not
    overlap.
    """
    layout = []
    width = 1
    for shift, pts in reversed(fields):  # bottom block first
        layout.append((shift, pts, width))
        width *= len(pts)
    spread: dict[tuple[int, int], int] = {}  # (shift, block monomial) -> its values, spread

    def table(poly: tuple[int, ...]) -> int:
        acc = 0
        for t in poly:
            r = 1
            for shift, pts, step in layout:
                m = t >> shift & ((1 << n) - 1)
                if (shift, m) not in spread:
                    # bit i * step for each point i that m divides, set in one buffer:
                    # a sum of shifted ones would copy the growing int on every hit
                    buf = bytearray(len(pts) * step // 8 + 1)  # a step of 0 still needs a byte
                    for i, p in enumerate(pts):
                        if p & m == m:
                            buf[i * step >> 3] |= 1 << (i * step & 7)
                    spread[shift, m] = int.from_bytes(buf, "little")
                r *= spread[shift, m]
            acc ^= r
        return acc

    full = (1 << width) - 1
    variety = full
    vanished = 0
    for g in gens:
        variety &= ~table(g)
    for factors in products:
        acc = full
        for factor in factors:
            acc &= table(factor)
            if not acc:
                vanished += 1
                break
        variety &= ~acc
    return variety, vanished


def shrink(variety: int, fields: list[tuple[int, list[int]]]) -> tuple[int, list[tuple[int, list[int]]]]:
    """V over the product of its projections, and those projections: each
    block's points cut to the ones some point of V uses.

    Each step moves the fastest block of V's table to the outside, where
    its points index contiguous runs, and drops the runs that are zero.
    """
    bits = format(variety, f"0{math.prod(len(pts) for _, pts in fields)}b")[::-1]  # bit i at i
    kept = []
    for shift, pts in reversed(fields):
        runs = [bits[c::len(pts)] for c in range(len(pts))]
        used = [c for c, run in enumerate(runs) if "1" in run]
        bits = "".join(runs[c] for c in used)
        kept.append((shift, [pts[c] for c in used]))
    return int(bits[::-1], 2), kept[::-1]


def reduced_basis(
    gens: list[tuple[int, ...]],
    products: list[list[tuple[int, ...]]],
    points: dict[int, frozenset[int]],
    n: int,
    stats: SimpleNamespace,
) -> list[tuple[int, ...]]:
    """The reduced basis of a sum of point ideals on every block (shift ->
    points), generators and products, as engine masks, descending. The game
    gives the elements that lead with a block above k, and the point bases
    of blocks k and below, whose variables they alone use, give the rest.
    Raises TooLarge, before evaluating anything, when V0's bitset passes
    _TABLE_BITS, and when it and the tables of a game, a point basis's
    included, pass it together. Sets
    stats' products_vanished, variety_points and block counts."""
    fields = [(shift, sorted(pts)) for shift, pts in sorted(points.items(), reverse=True)]
    size = math.prod(len(pts) for _, pts in fields)
    if size > _TABLE_BITS:
        raise TooLarge("V0, the product of the block point sets,", size, _TABLE_BITS)
    variety, stats.products_vanished = evaluate(gens, products, fields, n)
    stats.variety_points = variety.bit_count()
    if not variety:
        return [(0,)]
    found, k = [], 0
    if variety != (1 << size) - 1:  # else I(V) = I(V0), with no game to play
        # V lies in the product of its projections too, whose tables are smaller
        variety, fields = shrink(variety, fields)
        found, k = LexGame(fields, n, _TABLE_BITS, held=size).elements(variety)
    built: dict[int, list[tuple[int, ...]]] = {}  # point set, as a bitset -> its basis
    for shift, pts in fields[k:]:
        key = sum(1 << p for p in pts)
        basis = built.get(key)
        if basis is None:
            stats.blocks_solved += 1
            elements = LexGame([(0, pts)], n, _TABLE_BITS, held=size).basis(0, n, key).values()
            basis = built[key] = [tuple(bit_positions(g)[::-1]) for g in elements]
        else:
            stats.blocks_reused += 1
        found.extend(tuple(t << shift for t in g) for g in basis)
    return sorted(found, reverse=True)
