"""Brute-force set-theoretic reference checks for quorum system properties.

Everything here runs nested loops over the definitions on the members'
subset masks, each a block-field point with index 1 on the top bit (Pi on
bit n-i), sharing no code with the polynomial machinery, so the two
routes can cross-validate each other. Every tuple is enumerated in member
order. Reports carry a witness when the property fails: the tuple of sets
exhibiting the violation, in the first position found, turned into
frozensets of process indices only then.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import Record
from .encoding import ProcessSubset, SetSystem


class OracleReport(Record):
    property: str
    holds: bool
    witness: tuple[frozenset[int], ...] | None

    def __init__(self, property: str, holds: bool, witness: tuple[frozenset[int], ...] | None = None) -> None:
        self.__dict__.update(property=property, holds=holds, witness=witness)

    def witness_str(self) -> str:
        if self.witness is None:
            return ""
        return ", ".join("{" + ",".join(f"P{i}" for i in sorted(w)) + "}" for w in self.witness)


def _fails(label: str, n: int, *masks: int) -> OracleReport:
    """A failing report whose witness is the masks' sets of process indices."""
    witness = tuple(frozenset(i for i in range(1, n + 1) if m >> (n - i) & 1) for m in masks)
    return OracleReport(label, False, witness)


def oracle_consistency_classical(quorums: SetSystem) -> OracleReport:
    """Every two quorums (repetition allowed) share a process."""
    qs = [m.mask for m in quorums]
    for q1 in qs:
        for q2 in qs:
            if not q1 & q2:
                return _fails("classical-consistency", quorums.n, q1, q2)
    return OracleReport("classical-consistency", True)


def oracle_availability(quorums: SetSystem, fail_prone: SetSystem) -> OracleReport:
    """Every fail-prone set leaves some quorum untouched."""
    qs = [m.mask for m in quorums]
    for f in (m.mask for m in fail_prone):
        if all(q & f for q in qs):
            return _fails("availability", quorums.n, f)
    return OracleReport("availability", True)


def oracle_consistency_dissemination(quorums: SetSystem, fail_prone: SetSystem) -> OracleReport:
    """No two quorums meet entirely inside a fail-prone set."""
    qs = [m.mask for m in quorums]
    outside = [~m.mask for m in fail_prone]  # meet & ~f is what f misses of the meet
    for q1 in qs:
        for q2 in qs:
            meet = q1 & q2
            for c in outside:
                if not meet & c:
                    return _fails("dissemination-consistency", quorums.n, q1, q2, ~c)
    return OracleReport("dissemination-consistency", True)


def oracle_consistency_masking(quorums: SetSystem, fail_prone: SetSystem) -> OracleReport:
    """No quorum meet, less one fail-prone set, lands inside another."""
    qs = [m.mask for m in quorums]
    outside = [~m.mask for m in fail_prone]
    for q1 in qs:
        for q2 in qs:
            meet = q1 & q2
            for c1 in outside:
                rest = meet & c1
                for c2 in outside:
                    if not rest & c2:
                        return _fails("masking-consistency", quorums.n, q1, q2, ~c1, ~c2)
    return OracleReport("masking-consistency", True)


def oracle_q3(fail_prone: SetSystem) -> OracleReport:
    """No three fail-prone sets (repetition allowed) cover all processes."""
    return _no_cover("q3", fail_prone, 3)


def oracle_q4(fail_prone: SetSystem) -> OracleReport:
    """No four fail-prone sets (repetition allowed) cover all processes."""
    return _no_cover("q4", fail_prone, 4)


def _no_cover(label: str, fail_prone: SetSystem, k: int) -> OracleReport:
    fs = [m.mask for m in fail_prone]
    full = (1 << fail_prone.n) - 1
    union = 0
    for f in fs:
        union |= f
    if union != full:  # not even all of them together cover, so no k-tuple does
        return OracleReport(label, True)

    def first(union: int, k: int) -> tuple[int, ...] | None:
        """The first k-tuple of fs, in product order, that completes union to full."""
        if k == 1:
            for f in fs:
                if union | f == full:
                    return (f,)
            return None
        for f in fs:
            if (tail := first(union | f, k - 1)) is not None:
                return (f, *tail)
        return None

    cover = first(0, k)
    return OracleReport(label, True) if cover is None else _fails(label, fail_prone.n, *cover)


def fstar_enumerate(fail_prone: SetSystem) -> SetSystem:
    """Downward closure: every subset of every member, deduplicated.

    Members come out sorted by size then lexicographically, so the result is
    deterministic regardless of input order.
    """
    n = fail_prone.n
    closure: set[int] = set()
    for m in fail_prone.members:
        sub = mask = m.mask
        while sub:
            closure.add(sub)
            sub = (sub - 1) & mask
    closure.add(0)
    # among sets of one size, the one holding the lowest index where they
    # differ sorts first: index 1 is the top bit, so its mask is the larger
    ordered = sorted(closure, key=lambda s: (s.bit_count(), -s))
    return SetSystem(n, (ProcessSubset(s, n) for s in ordered))


def antichain_check(system: SetSystem) -> bool:
    """True when no member contains another."""
    return system.is_antichain


def all_antichain_systems(n: int, max_members: int) -> list[SetSystem]:
    """Every antichain of nonempty subsets of {1..n} with 1..max_members members.

    Exhaustive reference family for cross-validation at small n.
    """
    subsets = [sum(1 << n - 1 - i for i in c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    return [
        SetSystem(n, (ProcessSubset(s, n) for s in combo))
        for r in range(1, max_members + 1)
        for combo in combinations(subsets, r)
        if not any((a & b) in (a, b) for a, b in combinations(combo, 2))
    ]
