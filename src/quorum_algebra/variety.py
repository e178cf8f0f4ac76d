"""Reduced lex bases of Boolean point ideals, built from the points.

A point set P of the cube {0,1}^v has the vanishing ideal I(P), and its
reduced basis under lex follows from P alone, with no pair loop. Point sets,
value tables and polynomials here are bitsets over the masks of a block's
cube, each mask owning a run of unit bits indexed by the points w of the
blocks below (unit = 1 for a single block): bit m * unit + w of a point set
is the point (m, w), of a value table the value there, and of a polynomial
the value at w of the coefficient of monomial m, a function of the lower
blocks (LexGame). Splitting such a bitset at half = unit * 2^(j-1) splits on
the top variable x: the low half has x = 0 (or no x), the high half x = 1, x
dropped. The standard monomials of I(P) under lex follow the same split, the
lex game (Cerlienco and Mureddu, Discrete Math. 139, 1995):
std(P) = std(P0 | P1) + x * std(P0 & P1). The basis and the interpolating
polynomials follow it too (Marinari, Moeller and Mora, AAECC 4, 1993).
"""

from __future__ import annotations

import math
from operator import itemgetter

from .algebra import bit_positions, gf2_zeta

# A level's tables are turned into polynomials this many bits at a time.
_BATCH_BITS = 1 << 18


class TooLarge(Exception):
    """A LexGame's tables passed its budget."""


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
    problem one level down (lift).
    """

    def __init__(self, fields: list[tuple[int, list[int]]], n: int, budget: float = math.inf):
        """fields: shift and ascending n-bit points of each block, top first.
        budget: the bits the found elements' tables may hold in all; past
        it basis raises TooLarge."""
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
        self.bits = 0  # of the element tables and leaves kept, in memo and leaves
        self.movers: dict[int, tuple[itemgetter, str, str, itemgetter, str]] = {}
        self.leaves: dict[tuple[int, int, int], int] = {}  # (b, points, values) -> interpolant
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
        self.memo.clear()  # the kept tables are all that is left to read
        self.leaves.clear()
        found = [p for b, tables in enumerate(levels) for p in self.polynomials(tables, b)]
        return found, len(levels)

    def spread(self, bits: int, b: int) -> int:
        """A table over S_b x W_b as one over block b's cube: the unit_b bits
        of point i move to the place of its mask, the other masks get zeros."""
        pick, width, zeros, _, _ = self._movers(b)
        return int("".join(pick(format(bits, width) + zeros)), 2)

    def gather(self, table: int, b: int) -> int:
        """The inverse of spread: the runs of block b's points, in order."""
        _, _, _, pick, width = self._movers(b)
        return int("".join(pick(format(table, width))), 2)

    def _movers(self, b: int) -> tuple[itemgetter, str, str, itemgetter, str]:
        """The slices that spread and gather take from a table written most
        significant bit first, with the formats that write the tables. For
        spread the table over S_b x W_b is followed by enough zeros to fill
        the largest gap between the points."""
        hit = self.movers.get(b)
        if hit is None:
            u, pts = self.units[b], self.pts[b]
            length, size = len(pts) * u, u << self.n
            gaps = [hi - lo - 1 for lo, hi in zip([-1] + pts, pts + [1 << self.n])][::-1]
            runs = []  # the gap above each point, top first, then below all
            for k, gap in enumerate(gaps):
                if gap:
                    runs.append(slice(length, length + gap * u))
                if k < len(pts):
                    runs.append(slice(k * u, (k + 1) * u))
            picks = [slice(size - (m + 1) * u, size - m * u) for m in reversed(pts)]
            hit = self.movers[b] = (
                itemgetter(*runs), f"0{length}b", "0" * (max(gaps) * u), itemgetter(*picks), f"0{size}b"
            )
        return hit

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
            basis = self.lift(b + 1, self.basis(b + 1, self.n, self.spread(points, b + 1)))
        else:
            half = u << (j - 1)
            p0, p1 = points & ((1 << half) - 1), points >> half
            basis = dict(self.basis(b, j - 1, p0 | p1))
            only1 = p1 & ~p0
            for m, g in self.basis(b, j - 1, p0 & p1).items():
                if m not in basis:
                    t = gf2_zeta(g, j - 1, u) & only1
                    g = basis[half + m] = g << half | self.interpolate(b, j - 1, p0 | p1, t)
                    self._hold(g.bit_length())
        self.memo[key] = basis
        return basis

    def _hold(self, bits: int) -> None:
        """Count bits more of tables kept; past the budget raise TooLarge."""
        self.bits += bits
        if self.bits > self.budget:
            raise TooLarge(self.bits)

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
                out[i * u + w] = self.gather(gf2_zeta(g, self.n, u), b)
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
            return gf2_zeta(values, j, u)
        if j == 0:
            key = (b, points, values)
            f = self.leaves.get(key)
            if f is None:
                f = self.interpolate(b + 1, self.n, self.spread(points, b + 1), self.spread(values, b + 1))
                f = self.leaves[key] = self.gather(gf2_zeta(f, self.n, self.units[b + 1]), b + 1)
                self._hold(points.bit_length() + values.bit_length() + f.bit_length())
            return f
        half = u << (j - 1)
        low = (1 << half) - 1
        p0, p1, v0, v1 = points & low, points >> half, values & low, values >> half
        both = p0 & p1
        f1 = (v0 ^ v1) & both
        if f1:
            f1 = self.interpolate(b, j - 1, both, f1)
            v1 ^= gf2_zeta(f1, j - 1, u)  # f1's values
        f0 = v0 | v1 & p1 & ~p0
        if f0:
            f0 = self.interpolate(b, j - 1, p0 | p1, f0)
        return f0 | f1 << half

    def polynomials(self, tables: list[int], level: int) -> list[tuple[int, ...]]:
        """Polynomials of a level as engine masks, leading monomial first.

        The nonzero runs of all tables, one per monomial of its block, are
        stacked _BATCH_BITS bits at a time. In each stack every lower block's
        values become coefficients over its standard monomials, innermost
        block first: moved to the outside, the block's points index runs that
        hold all the rest of the stack, and _coefficients treats them at once.
        """
        unit, shift = self.units[level], self.shifts[level]
        total = unit << self.n
        per = max(1, _BATCH_BITS // unit)
        lower: dict[int, int] = {}  # std(W_level) index -> its monomial
        terms: list[list[int]] = [[] for _ in tables]
        runs: list[str] = []  # most significant bit first
        owners: list[tuple[int, int]] = []  # (table, its block's monomial) of each run

        def flush() -> None:
            # bit i at index i: the last run first, then the blocks below the level
            stack = "".join(runs)[::-1]
            for b in range(len(self.pts) - 1, level, -1):
                size = len(self.pts[b])
                stack = "".join(stack[i::size] for i in range(size))  # block b now outermost
                g = self._coefficients(b, int(stack[::-1], 2), len(stack) // size)
                stack = format(g, f"0{len(stack)}b")[::-1]
            i = stack.find("1")
            while i >= 0:
                w, k = divmod(i, len(runs))
                e, top = owners[-1 - k]
                if w not in lower:
                    lower[w] = self._lower_monomial(w, level)
                terms[e].append(top | lower[w])
                i = stack.find("1", i + 1)
            runs.clear()
            owners.clear()

        for e, g in enumerate(tables):
            s = format(g, f"0{total}b")
            i = s.find("1")
            while i >= 0:
                k = i // unit
                runs.append(s[k * unit:(k + 1) * unit])
                owners.append((e, ((1 << self.n) - 1 - k) << shift))
                if len(runs) == per:
                    flush()
                i = s.find("1", (k + 1) * unit)
        if runs:
            flush()
        return [tuple(sorted(t, reverse=True)) for t in terms]

    def _coefficients(self, b: int, g: int, rest: int) -> int:
        """g, runs of rest bits indexed by the points of block b, with the
        values on S_b at every place of a run replaced by the coefficients
        over std(S_b): each is a sum of runs, by the rows of the block's
        inverse evaluation matrix."""
        if b not in self.inverses:
            self.inverses[b] = self._inverse(b)
        runs = [g >> c * rest & ((1 << rest) - 1) for c in range(len(self.pts[b]))]
        g = 0
        for r, row in enumerate(self.inverses[b]):
            acc = 0
            for c in row:
                acc ^= runs[c]
            g |= acc << r * rest
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

    def _lower_monomial(self, w: int, level: int) -> int:
        """The product of the standard monomials of the blocks below level at mixed-radix index w."""
        mask = 0
        for b in range(level + 1, len(self.pts)):
            i, w = divmod(w, self.units[b])
            mask |= self.std[b][i] << self.shifts[b]
        return mask


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
        layout.append((shift, pts[::-1], "0" * (width - 1)))
        width *= len(pts)
    spread: dict[tuple[int, int], int] = {}  # (shift, block monomial) -> its values, spread

    def table(poly: tuple[int, ...]) -> int:
        acc = 0
        for t in poly:
            r = 1
            for shift, pts, gap in layout:
                m = t >> shift & ((1 << n) - 1)
                if (shift, m) not in spread:
                    bits = gap.join("1" if p & m == m else "0" for p in pts)
                    spread[shift, m] = int("0" + bits, 2)
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
