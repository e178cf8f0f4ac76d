"""Boolean polynomials over F2 with block-structured variables.

Variables come in up to four named blocks (x, y, z, t), each indexed from 1
to an ambient dimension n. Every computation happens in the Boolean quotient
F2[x]/<x^2 + x>, where each variable is idempotent, so a monomial is a
squarefree product and is stored as an int bitmask, and a polynomial over
F2 is a set of such masks (every present monomial has coefficient 1).
Addition is symmetric difference of the term sets and the product of two
monomials is their OR. Repeated variables in input text such as x1*x1
clamp to x1.

One layout serves every polynomial over n: the block fields run x, y, z, t
from the top down, n bits each, and inside a field index 1 sits on the
highest bit. With blocks in that sequence, integer comparison of masks is
the block lexicographic comparison.

Monomial comparison is block lexicographic: blocks are compared in the
sequence defined by a BlockLexOrder (most significant block first), and
within a block the variable with the smallest index is the most
significant. An order's own layout lists its blocks' fields from the top
down, so integer comparison of masks moved there by move_fields is that
order. Any prefix of the block sequence yields an elimination order for
the remaining suffix of blocks.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import cache, total_ordering
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

BLOCKS = ("x", "y", "z", "t")


class ParseError(ValueError):
    """Raised when polynomial text does not match the input grammar."""


def field_shift(block: str, n: int, layout: Sequence[str] = BLOCKS) -> int:
    """Lowest bit of block's n-bit field in a layout listing fields top down."""
    return (len(layout) - 1 - layout.index(block)) * n


def move_fields(masks: Iterable[int], src: Sequence[str], dst: Sequence[str], n: int) -> list[int]:
    """Each mask with every block's n-bit field moved from layout src to layout dst.

    A layout lists blocks from the top field down. Fields of blocks that dst
    does not list are dropped. Fields move whole and keep their bit order,
    so adjacent fields that stay adjacent move as one.
    """
    moves = _field_moves(tuple(src), tuple(dst), n)
    if len(moves) == 1:
        s, d, keep = moves[0]
        if s >= d:
            return [(m & keep) >> (s - d) for m in masks]
        return [(m & keep) << (d - s) for m in masks]
    out = []
    for m in masks:
        r = 0
        for s, d, keep in moves:
            r |= (m & keep) >> s << d
        out.append(r)
    return out


@cache  # one plan per pair of layouts and n, of which a process sees few
def _field_moves(src: tuple[str, ...], dst: tuple[str, ...], n: int) -> tuple[tuple[int, int, int], ...]:
    """move_fields' plan: the source shift, destination shift and source
    bits of each run of fields that move together, top run first."""
    moves: list[list[int]] = []  # [src shift, dst shift, width]
    for b in dst:
        if b not in src:
            continue
        s, d = field_shift(b, n, src), field_shift(b, n, dst)
        if moves and moves[-1][0] == s + n and moves[-1][1] == d + n:
            moves[-1][:2] = s, d
            moves[-1][2] += n
        else:
            moves.append([s, d, n])
    return tuple((s, d, ((1 << w) - 1) << s) for s, d, w in moves)


@cache  # one table per n, of which a process sees few
def _field_masks(n: int) -> tuple[tuple[str, int], ...]:
    """Each block and the bits of its n-bit field in the x, y, z, t layout."""
    return tuple((b, ((1 << n) - 1) << field_shift(b, n)) for b in BLOCKS)


class Record:
    """Base of the package's value classes. Their fields are the names their
    class body annotates, which they compare, hash and show in that order;
    each __init__ checks them and stores them with self.__dict__.update, as
    pickling and copying do, since assignment raises. Not frozen dataclasses:
    `import dataclasses` and the code it generates per class would cost
    every start of `qa` about 15 ms.
    """

    _fields: tuple[str, ...]
    _key: Callable[[Record], object]  # the fields' values; the value itself for one field

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Variable(Record):
    """A single variable, identified by block letter and 1-based index."""

    block: str
    index: int

    def __init__(self, block: str, index: int) -> None:
        if block not in BLOCKS:
            raise ValueError(f"unknown block {block!r}, expected one of {BLOCKS}")
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        self.__dict__.update(block=block, index=index)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) < other._key(other)

    def mask(self, n: int) -> int:
        """The one-variable monomial over ambient dimension n."""
        if self.index > n:
            raise ValueError(f"variable {self} exceeds ambient dimension {n}")
        return 1 << (field_shift(self.block, n) + n - self.index)

    def __str__(self) -> str:
        return f"{self.block}{self.index}"

    def __repr__(self) -> str:
        return f"Variable({self.block!r}, {self.index})"


def monomial_text(m: int, n: int) -> str:
    """Variables of a monomial mask from the highest bit down, '1' when empty."""
    if not m:
        return "1"
    names = []
    while m:
        p = m.bit_length() - 1
        names.append(f"{BLOCKS[len(BLOCKS) - 1 - p // n]}{n - p % n}")
        m ^= 1 << p
    return "*".join(names)


class BlockLexOrder(Record):
    """Block lexicographic order given by a block sequence, most significant first.

    Within each block, x1 is more significant than x2 and so on. Eliminating
    a prefix of the block sequence leaves a valid order on the suffix, which
    is what elimination_subbasis relies on.
    """

    blocks: tuple[str, ...]

    def __init__(self, blocks: tuple[str, ...]) -> None:
        if not blocks:
            raise ValueError("order needs at least one block")
        if len(set(blocks)) != len(blocks):
            raise ValueError(f"duplicate blocks in {blocks}")
        for b in blocks:
            if b not in BLOCKS:
                raise ValueError(f"unknown block {b!r}")
        self.__dict__.update(blocks=blocks)

    def variables(self, n: int) -> list[Variable]:
        """All ambient variables, most significant first."""
        return [Variable(b, i) for b in self.blocks for i in range(1, n + 1)]

    def is_elimination_suffix(self, keep_blocks: tuple[str, ...]) -> bool:
        k = len(keep_blocks)
        return 0 < k <= len(self.blocks) and self.blocks[-k:] == tuple(keep_blocks)


class Polynomial(Record):
    """A set of squarefree monomial masks over F2, tied to an ambient dimension n."""

    n: int
    terms: frozenset[int]

    def __init__(self, n: int, terms: Iterable[int] = ()) -> None:
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        folded: set[int] = set()
        for m in terms:
            if m in folded:
                folded.discard(m)
            else:
                folded.add(m)
        v = len(BLOCKS) * n
        if folded and (min(folded) < 0 or max(folded) >> v):
            raise ValueError(f"term outside the {v} variables of ambient dimension {n}")
        self.__dict__.update(n=n, terms=frozenset(folded))

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, (0,))

    @classmethod
    def variable(cls, v: Variable, n: int) -> "Polynomial":
        return cls(n, (v.mask(n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {0}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def support(self) -> int:
        """Mask of the variables that appear."""
        acc = 0
        for m in self.terms:
            acc |= m
        return acc

    def blocks(self) -> frozenset[str]:
        support = self.support()
        return frozenset(b for b, bits in _field_masks(self.n) if support & bits)

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {other!r}")
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self.n, self.terms.symmetric_difference(other.terms))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Boolean product: monomials multiply by OR, equal results cancel."""
        self._check_compatible(other)
        acc: set[int] = set()
        for a in self.terms:
            for b in other.terms:
                m = a | b
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        return Polynomial(self.n, acc)

    def evaluate(self, point: Mapping[Variable, int]) -> int:
        """Value at a 0/1 point assigning every variable that appears."""
        n = self.n
        assigned = ones = 0
        for v, bit in point.items():
            if bit not in (0, 1):
                raise ValueError(f"non-bit value {bit!r} for {v}")
            if v.index <= n:
                m = v.mask(n)
                assigned |= m
                if bit:
                    ones |= m
        missing = self.support() & ~assigned
        if missing:
            raise ValueError(f"point does not assign {monomial_text(missing & -missing, n)}")
        acc = 0
        for m in self.terms:
            if not m & ~ones:
                acc ^= 1
        return acc

    def _ranked(self, order: BlockLexOrder) -> list[tuple[int, int]]:
        """(mask in the order's layout, mask) per term: the first compares as the order."""
        outside = self.blocks() - set(order.blocks)
        if outside:
            raise ValueError(f"{self} uses blocks {sorted(outside)} outside {order.blocks}")
        return list(zip(move_fields(self.terms, BLOCKS, order.blocks, self.n), self.terms))

    def descending(self, order: BlockLexOrder) -> list[int]:
        """The terms, most significant first in the order."""
        return [m for _, m in sorted(self._ranked(order), reverse=True)]

    def leading_monomial(self, order: BlockLexOrder) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._ranked(order))[1]

    def trailing_monomial(self, order: BlockLexOrder) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no trailing monomial")
        return min(self._ranked(order))[1]

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {format_polynomial(self)})"


_VAR_RE = re.compile(r"([xyzt])([0-9]+)\Z")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse '+'-separated terms, each '1' or a '*'-separated variable list.

    Whitespace is insignificant. Variable tokens are a block letter followed
    by a 1-based index; indices above n are rejected. A repeated variable
    within one term counts once, as x*x = x in the Boolean ring.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial")
    tops = {b: field_shift(b, n) + n for b in BLOCKS}
    terms: list[int] = []
    for chunk in stripped.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        if chunk == "1":
            terms.append(0)
            continue
        mask = 0
        for tok in chunk.split("*"):
            tok = tok.strip()
            m = _VAR_RE.match(tok)
            if m is None:
                raise ParseError(f"bad variable token {tok!r} in {text!r}")
            idx = int(m.group(2))
            if idx < 1:
                raise ParseError(f"variable index must be >= 1 in {tok!r}")
            if idx > n:
                raise ParseError(f"variable {tok!r} exceeds ambient dimension {n}")
            mask |= 1 << (tops[m.group(1)] - idx)
        terms.append(mask)
    return Polynomial(n, terms)


def format_polynomial(f: Polynomial, order: BlockLexOrder | None = None) -> str:
    """Canonical text: terms descending in the given order (default x, y, z, t), '0' when empty."""
    if f.is_zero:
        return "0"
    ordered = sorted(f.terms, reverse=True) if order is None else f.descending(order)
    return " + ".join(monomial_text(m, f.n) for m in ordered)


def gf2_zeta(table: int, v: int, unit: int = 1) -> int:
    """Subset-sum transform over F2 of a bitset indexed by v-bit masks.

    Bit T of the result is the XOR of the input bits S over all S that are
    subsets of T. Over F2 the transform is its own inverse (zeta equals
    Moebius), so the same call turns squarefree monomial coefficients into a
    truth table and a truth table back into coefficients. With unit > 1 each
    mask indexes a run of unit bits, the mask times unit being its first, and
    the runs are transformed as whole vectors.
    """
    for blk, pat in zeta_steps(v, unit):
        table ^= (table & pat) << blk
    return table


def zeta_steps(v: int, unit: int = 1) -> Iterator[tuple[int, int]]:
    """gf2_zeta's steps, each mask built when its step comes: for each
    variable k, the run length unit * 2^k and the mask of the indices whose
    bit k is clear."""
    for k in range(v):
        yield unit << k, repeat_bits((1 << (unit << k)) - 1, unit << (k + 1), unit << v)


def repeat_bits(pattern: int, period: int, total: int) -> int:
    """pattern, within period bits, copied every period bits up to total bits or more."""
    while period < total:
        pattern |= pattern << period
        period *= 2
    return pattern


def bit_positions(bits: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending.

    An int of at most 64 bits, or a sparse one (fewer than min(width / 8,
    128) set bits), sheds its highest set bit in turn, which costs a pass
    over what is left of it, so this is cheap only when there are few bits
    to shed. Any other int is scanned once in 64-bit words, taking the
    lowest set bit of each nonzero word in turn, so the cost is linear in
    the width plus the number of set bits.
    """
    out = []
    width = bits.bit_length()
    if width <= 64 or bits.bit_count() < min(width >> 3, 128):
        while bits:
            top = bits.bit_length() - 1
            out.append(top)
            bits ^= 1 << top
        out.reverse()
        return out
    words = array("Q", bits.to_bytes((width + 63) // 64 * 8, "little"))
    if sys.byteorder == "big":
        words.byteswap()  # array reads the little-endian words in native order
    base = 0
    for word in words:
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
        base += 64
    return out
