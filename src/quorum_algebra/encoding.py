"""Encoding of process subsets and set systems as points and polynomials.

A subset S of the processes {P1..Pn} is identified with its incidence
vector: bit i-1 of a ProcessSubset mask records whether Pi is a member. The
characteristic polynomial of S over a variable block picks out exactly that
point of the Boolean cube: it multiplies V_i for members and (1 + V_i) for
non-members, so it evaluates to 1 at the incidence vector of S and to 0
everywhere else.

Characteristic polynomials stay in factored form here: the support mask
determines both the trailing monomial (the product over members) and the
cofactor (the product of the 1 + V_i over non-members). Intersection, union
and difference of the encoded sets are computed on those factored forms,
where gcds of trailing monomials and idempotent products of cofactors are
plain bitmask operations; expand() gives the Polynomial.

A ProcessSubset mask keeps Pi on bit i-1, while a polynomial's block field
keeps index 1 on its highest bit (see algebra), so _field_mask reverses the
bits of an incidence vector once where a subset becomes a monomial.

The characteristic polynomial of a whole set system, the product of
(xi_S + 1) over its members S with xi_S the member's characteristic
polynomial, is not multiplied out either. The xi_S of distinct members are
orthogonal idempotents, so the product is 1 + sum of xi_S, and its
coefficient on the squarefree monomial x^T is [T empty] plus the parity of
the number of members contained in T. system_char_poly reads all of these
coefficients off one F2 subset-sum transform of the member bitset.

The relation polynomials at the bottom tie separate variable blocks
together: overlap_poly vanishes where supports meet, uncovered_meet_poly
where a meet escapes a covering block, downset_poly exactly on the downward
closure of a set system, and cover_poly takes value 1 where the blocks
jointly cover every process. They return the factors of their product,
which the Groebner engine multiplies out modulo the basis it has built so
far; bool_product(...) gives the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .algebra import Polynomial, bit_positions, field_shift, gf2_zeta


@dataclass(frozen=True)
class ProcessSubset:
    """Subset of {P1..Pn} stored as a bitmask; bit i-1 is process Pi."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"process count must be >= 1, got {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "ProcessSubset":
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"process index {i} out of range 1..{n}")
            mask |= 1 << (i - 1)
        return cls(mask, n)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in bit_positions(self.mask))

    @property
    def vector(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def contains(self, i: int) -> bool:
        return bool(self.mask >> (i - 1) & 1)

    def union(self, other: "ProcessSubset") -> "ProcessSubset":
        self._check(other)
        return ProcessSubset(self.mask | other.mask, self.n)

    def intersection(self, other: "ProcessSubset") -> "ProcessSubset":
        self._check(other)
        return ProcessSubset(self.mask & other.mask, self.n)

    def difference(self, other: "ProcessSubset") -> "ProcessSubset":
        self._check(other)
        return ProcessSubset(self.mask & ~other.mask, self.n)

    def complement(self) -> "ProcessSubset":
        return ProcessSubset(~self.mask & ((1 << self.n) - 1), self.n)

    def is_subset_of(self, other: "ProcessSubset") -> bool:
        self._check(other)
        return self.mask & other.mask == self.mask

    def _check(self, other: "ProcessSubset") -> None:
        if self.n != other.n:
            raise ValueError(f"process count mismatch: {self.n} vs {other.n}")

    def __str__(self) -> str:
        return "{" + ",".join(f"P{i}" for i in self.indices) + "}"

    def vector_str(self) -> str:
        return "(" + ",".join(str(b) for b in self.vector) + ")"


def _field_mask(s: ProcessSubset) -> int:
    """The subset as a mask of one block field: Pi on bit n-i, so P1 on top."""
    return int(format(s.mask, f"0{s.n}b")[::-1], 2)


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _column(blocks: Iterable[str], n: int) -> int:
    """Index 1 of every listed block; shifting right by i-1 gives index i."""
    col = 0
    for b in blocks:
        col |= 1 << (field_shift(b, n) + n - 1)
    return col


def phi(indices: Iterable[int], n: int) -> ProcessSubset:
    """Incidence vector of a set of process indices."""
    return ProcessSubset.from_indices(indices, n)


def phi_inv(p: ProcessSubset) -> frozenset[int]:
    """Process indices of an incidence vector."""
    return frozenset(p.indices)


class SetSystem:
    """An ordered collection of distinct process subsets over one ambient n.

    Whether the members form an antichain is reported, not enforced:
    downward closures are legitimate set systems.
    """

    __slots__ = ("_n", "_members")

    def __init__(self, n: int, members: Iterable[ProcessSubset]):
        ms = tuple(members)
        for m in ms:
            if not isinstance(m, ProcessSubset):
                raise TypeError(f"member {m!r} is not a ProcessSubset")
            if m.n != n:
                raise ValueError(f"member over n={m.n}, system over n={n}")
        masks = [m.mask for m in ms]
        if len(set(masks)) != len(ms):
            raise ValueError("duplicate members in set system")
        self._n = n
        self._members = ms

    @classmethod
    def from_lists(cls, n: int, lists: Iterable[Iterable[int]]) -> "SetSystem":
        return cls(n, (ProcessSubset.from_indices(s, n) for s in lists))

    @property
    def n(self) -> int:
        return self._n

    @property
    def members(self) -> tuple[ProcessSubset, ...]:
        return self._members

    @property
    def is_antichain(self) -> bool:
        """No member contains another; computed on each access, O(m^2) in the members."""
        masks = [m.mask for m in self._members]
        # members are distinct, so a meet equal to either mask is a strict containment
        return not any((meet := a & b) == a or meet == b for a, b in combinations(masks, 2))

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[ProcessSubset]:
        return iter(self._members)

    def __getitem__(self, k: int) -> ProcessSubset:
        return self._members[k]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetSystem)
            and self._n == other._n
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self._n, self._members))

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self._members) + "}"

    def complements(self) -> "SetSystem":
        return SetSystem(self._n, (m.complement() for m in self._members))


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of a subset over one block, in factored form.

    The expanded polynomial is (prod of V_i over members) * (prod of 1 + V_i
    over non-members): 1 exactly at the incidence vector of the support. The
    trailing monomial under the block order is the member product, and the
    set operations below work purely on support masks, mirroring how gcds of
    trailing monomials and idempotent cofactor products behave.
    """

    support: ProcessSubset
    block: str

    @property
    def n(self) -> int:
        return self.support.n

    def expand(self) -> Polynomial:
        n, shift = self.n, field_shift(self.block, self.n)
        base = _field_mask(self.support)
        comp = base ^ ((1 << n) - 1)
        return Polynomial(n, ((base | sub) << shift for sub in _submasks(comp)))

    def trailing_monomial(self) -> Polynomial:
        """The member product, as a one-term polynomial."""
        return Polynomial(self.n, (_field_mask(self.support) << field_shift(self.block, self.n),))

    def leading_monomial(self) -> Polynomial:
        """The product of all the block's variables, as a one-term polynomial."""
        n = self.n
        return Polynomial(n, (((1 << n) - 1) << field_shift(self.block, n),))

    def cofactor_mask(self) -> int:
        """Support of the product of (1 + V_i) factors, as a bitmask."""
        return self.support.complement().mask

    def complement_set(self) -> "CharPoly":
        return CharPoly(self.support.complement(), self.block)

    def intersect(self, other: "CharPoly") -> "CharPoly":
        """Characteristic polynomial of the intersection of the supports.

        The trailing-monomial gcd gives the member product of the result;
        the idempotent product of the two cofactors covers exactly the
        complement, which is asserted.
        """
        self._check(other)
        tm_gcd = self.support.mask & other.support.mask
        cof = self.cofactor_mask() | other.cofactor_mask()
        full = (1 << self.n) - 1
        assert tm_gcd & cof == 0 and tm_gcd | cof == full
        return CharPoly(ProcessSubset(tm_gcd, self.n), self.block)

    def union(self, other: "CharPoly") -> "CharPoly":
        """Characteristic polynomial of the union of the supports.

        The idempotent product of the trailing monomials gives the member
        product; the gcd of the cofactors covers the complement.
        """
        self._check(other)
        tm_prod = self.support.mask | other.support.mask
        cof = self.cofactor_mask() & other.cofactor_mask()
        full = (1 << self.n) - 1
        assert tm_prod & cof == 0 and tm_prod | cof == full
        return CharPoly(ProcessSubset(tm_prod, self.n), self.block)

    def difference_within(self, other: "CharPoly", removed: "CharPoly") -> "CharPoly":
        """Characteristic polynomial of (self's support ∩ other's) minus removed's.

        The member product is the gcd of three trailing monomials: both
        intersecting sets' and the complement-of-removed's (the full product
        divided by removed's trailing monomial).
        """
        self._check(other)
        self._check(removed)
        tm = self.support.mask & other.support.mask & removed.cofactor_mask()
        cof = self.cofactor_mask() | other.cofactor_mask() | removed.support.mask
        full = (1 << self.n) - 1
        assert tm & cof == 0 and tm | cof == full
        return CharPoly(ProcessSubset(tm, self.n), self.block)

    def ring_add(self, other: "CharPoly") -> "CharPoly":
        """Symmetric difference of supports; addition of the induced Boolean ring."""
        self._check(other)
        return CharPoly(ProcessSubset(self.support.mask ^ other.support.mask, self.n), self.block)

    def ring_mul(self, other: "CharPoly") -> "CharPoly":
        """Intersection of supports; multiplication of the induced Boolean ring."""
        return self.intersect(other)

    def _check(self, other: "CharPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"process count mismatch: {self.n} vs {other.n}")
        if self.block != other.block:
            raise ValueError(f"block mismatch: {self.block} vs {other.block}")


def char_poly(s: ProcessSubset, block: str) -> CharPoly:
    return CharPoly(s, block)


def bool_product(polys: Iterable[Polynomial], n: int) -> Polynomial:
    """Product of the polynomials in the Boolean ring; the empty product is 1."""
    acc = Polynomial.one(n)
    for p in polys:
        acc = acc * p
    return acc


def system_char_poly(system: SetSystem, block: str) -> Polynomial:
    """Product of (char poly + 1) over the members; vanishes exactly on them.

    At the incidence vector of a member one factor is 1 + 1 = 0; everywhere
    else every factor is 1. The zero set over the block is therefore exactly
    the encoded system. For the system of all 2^n subsets the product is the
    zero polynomial.

    Nothing is multiplied out. The characteristic polynomials xi_S of
    distinct supports are orthogonal idempotents of the Boolean ring
    (xi_S^2 = xi_S, xi_S * xi_S' = 0), so the product equals
    1 + sum of xi_S, and xi_S is the sum of the monomials x^T over all
    T containing S. The coefficient of x^T is therefore
    [T empty] + #{S in system : S subset of T} mod 2: the F2 subset-sum
    transform of the member bitset, with the constant 1 added afterwards.
    The bitset is indexed by the members' field masks, so the transform's
    indices are the block's monomials as they stand.
    """
    n = system.n
    table = 0
    for m in system:
        table |= 1 << _field_mask(m)
    coeffs = gf2_zeta(table, n) ^ 1
    shift = field_shift(block, n)
    return Polynomial(n, (t << shift for t in bit_positions(coeffs)))


def fixed_containment_poly(outer: ProcessSubset, inner_block: str) -> Polynomial:
    """Vanishes on the inner block exactly at the subsets of the fixed outer set.

    The product of (V_i + 1) over indices outside the support, plus 1.
    Expanded, that is the sum of every nonempty product of those V_i.
    """
    n = outer.n
    shift = field_shift(inner_block, n)
    outside = _field_mask(outer.complement())
    return Polynomial(n, (sub << shift for sub in _submasks(outside) if sub))


def overlap_poly(n: int, block_a: str, block_b: str) -> tuple[Polynomial, ...]:
    """Factors of a product vanishing at (p, q) exactly when the supports intersect.

    The product of (A_i * B_i + 1) is 0 as soon as some index lies in both
    supports and 1 otherwise.
    """
    ab = _column((block_a, block_b), n)
    return tuple(Polynomial(n, (ab >> k, 0)) for k in range(n))


def uncovered_meet_poly(n: int, meet_blocks: Sequence[str], cover_block: str) -> tuple[Polynomial, ...]:
    """Factors of a product vanishing exactly when the meet escapes the cover.

    Each factor is T_i * M_i + M_i + 1 with M_i the product over the meet
    blocks: it vanishes only when index i lies in every meet support but not
    in the cover, so the product vanishes exactly when an escaping index
    exists.
    """
    if len(meet_blocks) < 2:
        raise ValueError("need at least two blocks to form a meet")
    meet, cover = _column(meet_blocks, n), _column((cover_block,), n)
    return tuple(Polynomial(n, ((cover | meet) >> k, meet >> k, 0)) for k in range(n))


def downset_poly(system: SetSystem, block: str) -> tuple[Polynomial, ...]:
    """Factors of a product vanishing exactly on the downward closure of the system.

    The product over members F of (subset-of-F indicator complement) is zero
    exactly where some member contains the point's support.
    """
    return tuple(fixed_containment_poly(m, block) for m in system)


def cover_poly(n: int, blocks: Sequence[str]) -> tuple[Polynomial, ...]:
    """Factors of a product with value 1 exactly where the blocks cover {P1..Pn}.

    Factor i is the logical OR of the blocks at index i, that is
    1 + prod(1 + V_i); the product over i is 1 exactly when every index is
    covered by at least one block. Note the convention: this polynomial is
    used as an ideal generator so that its ZEROS, the non-covering tuples,
    survive in a variety.
    """
    if len(blocks) < 2:
        raise ValueError("cover needs at least two blocks")
    col = _column(blocks, n)
    # prod(1 + V_i) is the sum of every product of the V_i; the 1 cancels the empty one
    return tuple(Polynomial(n, (sub for sub in _submasks(col >> k) if sub)) for k in range(n))
