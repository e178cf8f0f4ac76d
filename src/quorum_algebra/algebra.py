"""Sparse multivariate polynomials over F2 with block-structured variables.

Variables come in up to four named blocks (x, y, z, t), each indexed from 1
to an ambient dimension n. A monomial maps variables to positive integer
exponents; a polynomial over F2 is just a set of monomials (every present
monomial has coefficient 1), so addition is symmetric difference of term
sets. The Boolean quotient, where every variable is idempotent, is applied
on demand via boolean_reduce: the canonical external form of a polynomial
is squarefree, but ordinary-ring products with exponents above 1 remain
representable, for input text such as x1*x1 and for the field polynomials
v^2 + v that the Groebner engine reports for the zero ideal.

Monomial comparison is block lexicographic: blocks are compared in the
sequence defined by a BlockLexOrder (most significant block first), and
within a block the variable with the smallest index is the most
significant. Any prefix of the block sequence yields an elimination order
for the remaining suffix of blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

BLOCKS = ("x", "y", "z", "t")

_BLOCK_RANK = {b: r for r, b in enumerate(BLOCKS)}


class ParseError(ValueError):
    """Raised when polynomial text does not match the input grammar."""


@dataclass(frozen=True, order=True)
class Variable:
    """A single variable, identified by block letter and 1-based index."""

    block: str
    index: int

    def __post_init__(self) -> None:
        if self.block not in BLOCKS:
            raise ValueError(f"unknown block {self.block!r}, expected one of {BLOCKS}")
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return f"{self.block}{self.index}"

    def __repr__(self) -> str:
        return f"Variable({self.block!r}, {self.index})"


def _canon_var_key(v: Variable) -> tuple[int, int]:
    return (_BLOCK_RANK[v.block], v.index)


class Monomial:
    """Product of variables with positive exponents; the empty product is 1."""

    __slots__ = ("_exps",)

    def __init__(self, exps: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()):
        items = dict(exps)
        for v, e in items.items():
            if not isinstance(v, Variable):
                raise TypeError(f"monomial keys must be Variable, got {v!r}")
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v}")
        self._exps: tuple[tuple[Variable, int], ...] = tuple(
            sorted(((v, e) for v, e in items.items() if e > 0), key=lambda p: _canon_var_key(p[0]))
        )

    @classmethod
    def one(cls) -> "Monomial":
        return cls()

    @classmethod
    def of(cls, *variables: Variable) -> "Monomial":
        """Squarefree monomial on the given variables."""
        exps: dict[Variable, int] = {}
        for v in variables:
            exps[v] = exps.get(v, 0) + 1
        return cls(exps)

    @property
    def exponents(self) -> tuple[tuple[Variable, int], ...]:
        return self._exps

    def exponent(self, v: Variable) -> int:
        for var, e in self._exps:
            if var == v:
                return e
        return 0

    def variables(self) -> tuple[Variable, ...]:
        return tuple(v for v, _ in self._exps)

    def blocks(self) -> frozenset[str]:
        return frozenset(v.block for v, _ in self._exps)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self._exps)

    @property
    def is_one(self) -> bool:
        return not self._exps

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self._exps)

    def mul(self, other: "Monomial", boolean: bool = False) -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._exps:
            exps[v] = exps.get(v, 0) + e
        if boolean:
            exps = {v: 1 for v in exps}
        return Monomial(exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return self.mul(other)

    def divides(self, other: "Monomial") -> bool:
        mine = dict(self._exps)
        theirs = dict(other._exps)
        return all(theirs.get(v, 0) >= e for v, e in mine.items())

    def divide(self, other: "Monomial") -> "Monomial":
        """Return self / other, requiring exact divisibility."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        exps = dict(self._exps)
        for v, e in other._exps:
            exps[v] -= e
        return Monomial(exps)

    def lcm(self, other: "Monomial") -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._exps:
            exps[v] = max(exps.get(v, 0), e)
        return Monomial(exps)

    def gcd(self, other: "Monomial") -> "Monomial":
        theirs = dict(other._exps)
        exps = {v: min(e, theirs.get(v, 0)) for v, e in self._exps}
        return Monomial(exps)

    def boolean_reduced(self) -> "Monomial":
        """Clamp every exponent to 1 (the image in the Boolean quotient)."""
        if self.is_squarefree:
            return self
        return Monomial({v: 1 for v, _ in self._exps})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(self._exps)

    def __str__(self) -> str:
        if not self._exps:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self._exps)

    def __repr__(self) -> str:
        return f"Monomial({str(self)})"


@dataclass(frozen=True)
class BlockLexOrder:
    """Block lexicographic order given by a block sequence, most significant first.

    Within each block, x1 is more significant than x2 and so on. Eliminating
    a prefix of the block sequence leaves a valid order on the suffix, which
    is what elimination_subbasis relies on.
    """

    blocks: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("order needs at least one block")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError(f"duplicate blocks in {self.blocks}")
        for b in self.blocks:
            if b not in BLOCKS:
                raise ValueError(f"unknown block {b!r}")

    def covers(self, m: Monomial) -> bool:
        return all(b in self.blocks for b in m.blocks())

    def sort_key(self, m: Monomial):
        """Key whose natural tuple ordering is this monomial order."""
        per_block: dict[str, list[tuple[int, int]]] = {b: [] for b in self.blocks}
        for v, e in m.exponents:
            if v.block not in per_block:
                raise ValueError(f"monomial {m} uses block {v.block!r} outside {self.blocks}")
            per_block[v.block].append((-v.index, e))
        return tuple(tuple(sorted(per_block[b], reverse=True)) for b in self.blocks)

    def variables(self, n: int) -> list[Variable]:
        """All ambient variables, most significant first."""
        return [Variable(b, i) for b in self.blocks for i in range(1, n + 1)]

    def is_elimination_suffix(self, keep_blocks: tuple[str, ...]) -> bool:
        k = len(keep_blocks)
        return 0 < k <= len(self.blocks) and self.blocks[-k:] == tuple(keep_blocks)


class Polynomial:
    """A set of monomials over F2, tied to an ambient dimension n."""

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: Iterable[Monomial] = ()):
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        folded: set[Monomial] = set()
        for m in terms:
            if not isinstance(m, Monomial):
                raise TypeError(f"terms must be Monomial, got {m!r}")
            folded.symmetric_difference_update((m,))
        for m in folded:
            for v, _ in m.exponents:
                if v.index > n:
                    raise ValueError(f"variable {v} exceeds ambient dimension {n}")
        self._n = n
        self._terms = frozenset(folded)

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, (Monomial.one(),))

    @classmethod
    def variable(cls, v: Variable, n: int) -> "Polynomial":
        return cls(n, (Monomial.of(v),))

    @property
    def n(self) -> int:
        return self._n

    @property
    def terms(self) -> frozenset[Monomial]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return len(self._terms) == 1 and next(iter(self._terms)).is_one

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def blocks(self) -> frozenset[str]:
        out: set[str] = set()
        for m in self._terms:
            out |= m.blocks()
        return frozenset(out)

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {other!r}")
        if self._n != other._n:
            raise ValueError(f"ambient dimension mismatch: {self._n} vs {other._n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self._n, self._terms.symmetric_difference(other._terms))

    __sub__ = __add__  # characteristic 2

    def mul(self, other: "Polynomial", boolean: bool = False) -> "Polynomial":
        """Product; with boolean=True exponents clamp to 1 before terms merge."""
        self._check_compatible(other)
        acc: set[Monomial] = set()
        for a in self._terms:
            for b in other._terms:
                acc.symmetric_difference_update((a.mul(b, boolean=boolean),))
        return Polynomial(self._n, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.mul(other)

    def boolean_reduce(self) -> "Polynomial":
        """Canonical squarefree representative in the Boolean quotient."""
        return Polynomial(self._n, (m.boolean_reduced() for m in self._terms))

    def evaluate(self, point: Mapping[Variable, int]) -> int:
        """Value at a 0/1 point assigning every variable that appears."""
        acc = 0
        for m in self._terms:
            val = 1
            for v, _ in m.exponents:
                if v not in point:
                    raise ValueError(f"point does not assign {v}")
                bit = point[v]
                if bit not in (0, 1):
                    raise ValueError(f"non-bit value {bit!r} for {v}")
                val &= bit
                if not val:
                    break
            acc ^= val
        return acc

    def leading_monomial(self, order: BlockLexOrder) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=order.sort_key)

    def trailing_monomial(self, order: BlockLexOrder) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no trailing monomial")
        return min(self._terms, key=order.sort_key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self._n == other._n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._n, self._terms))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial(n={self._n}, {format_polynomial(self)})"


_VAR_RE = re.compile(r"([xyzt])([0-9]+)\Z")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse '+'-separated terms, each '1' or a '*'-separated variable list.

    Whitespace is insignificant. Variable tokens are a block letter followed
    by a 1-based index; indices above n are rejected. A repeated variable
    within one term accumulates its exponent in the ordinary ring.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial")
    terms: list[Monomial] = []
    for chunk in stripped.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        if chunk == "1":
            terms.append(Monomial.one())
            continue
        exps: dict[Variable, int] = {}
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
            v = Variable(m.group(1), idx)
            exps[v] = exps.get(v, 0) + 1
        terms.append(Monomial(exps))
    return Polynomial(n, terms)


def format_polynomial(f: Polynomial, order: BlockLexOrder | None = None) -> str:
    """Canonical text: terms descending in the given order, '0' when empty."""
    if order is None:
        order = BlockLexOrder(BLOCKS)
    if f.is_zero:
        return "0"
    ordered = sorted(f.terms, key=order.sort_key, reverse=True)
    return " + ".join(str(m) for m in ordered)


def gf2_zeta(table: int, v: int) -> int:
    """Subset-sum transform over F2 of a bitset indexed by v-bit masks.

    Bit T of the result is the XOR of the input bits S over all S that are
    subsets of T. Over F2 the transform is its own inverse (zeta equals
    Moebius), so the same call turns squarefree monomial coefficients into a
    truth table and a truth table back into coefficients.
    """
    total = 1 << v
    for k in range(v):
        blk = 1 << k
        # pattern marking the indices whose bit k is clear
        pat = (1 << blk) - 1
        width = blk * 2
        while width < total:
            pat |= pat << width
            width *= 2
        table ^= (table & pat) << blk
    return table


def bit_positions(bits: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending.

    Scans the little-endian bytes once and takes the lowest set bit of each
    nonzero byte in turn, so the cost is linear in the width plus the number
    of set bits.
    """
    out = []
    for i, byte in enumerate(bits.to_bytes((bits.bit_length() + 7) // 8, "little")):
        base = i << 3
        while byte:
            low = byte & -byte
            out.append(base + low.bit_length() - 1)
            byte ^= low
    return out
