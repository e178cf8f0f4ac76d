"""Brute-force set-theoretic reference checks for quorum system properties.

Everything here works on plain frozensets of process indices with nested
loops over the definitions, sharing no code with the polynomial machinery,
so the two routes can cross-validate each other. Reports carry a witness
when the property fails: the tuple of sets exhibiting the violation, in the
first position found under the deterministic member ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .encoding import ProcessSubset, SetSystem


@dataclass(frozen=True)
class OracleReport:
    property: str
    holds: bool
    witness: tuple[frozenset[int], ...] | None = None

    def witness_str(self) -> str:
        if self.witness is None:
            return ""
        return ", ".join("{" + ",".join(f"P{i}" for i in sorted(w)) + "}" for w in self.witness)


def _sets(system: SetSystem) -> list[frozenset[int]]:
    return [frozenset(m.indices) for m in system.members]


def oracle_consistency_classical(quorums: SetSystem) -> OracleReport:
    """Every two quorums (repetition allowed) share a process."""
    qs = _sets(quorums)
    for q1 in qs:
        for q2 in qs:
            if not q1 & q2:
                return OracleReport("classical-consistency", False, (q1, q2))
    return OracleReport("classical-consistency", True)


def oracle_availability(quorums: SetSystem, fail_prone: SetSystem) -> OracleReport:
    """Every fail-prone set leaves some quorum untouched."""
    qs = _sets(quorums)
    for f in _sets(fail_prone):
        if not any(not (q & f) for q in qs):
            return OracleReport("availability", False, (f,))
    return OracleReport("availability", True)


def oracle_consistency_dissemination(quorums: SetSystem, fail_prone: SetSystem) -> OracleReport:
    """No two quorums meet entirely inside a fail-prone set."""
    qs = _sets(quorums)
    fs = _sets(fail_prone)
    for q1 in qs:
        for q2 in qs:
            for f in fs:
                if q1 & q2 <= f:
                    return OracleReport("dissemination-consistency", False, (q1, q2, f))
    return OracleReport("dissemination-consistency", True)


def oracle_consistency_masking(quorums: SetSystem, fail_prone: SetSystem) -> OracleReport:
    """No quorum meet, less one fail-prone set, lands inside another."""
    qs = _sets(quorums)
    fs = _sets(fail_prone)
    for q1 in qs:
        for q2 in qs:
            for f1 in fs:
                for f2 in fs:
                    if (q1 & q2) - f1 <= f2:
                        return OracleReport("masking-consistency", False, (q1, q2, f1, f2))
    return OracleReport("masking-consistency", True)


def oracle_q3(fail_prone: SetSystem) -> OracleReport:
    """No three fail-prone sets (repetition allowed) cover all processes."""
    return _no_cover("q3", fail_prone, 3)


def oracle_q4(fail_prone: SetSystem) -> OracleReport:
    """No four fail-prone sets (repetition allowed) cover all processes."""
    return _no_cover("q4", fail_prone, 4)


def _no_cover(label: str, fail_prone: SetSystem, k: int) -> OracleReport:
    # the sets lie in {1..n}, so they cover it exactly when their union has n members
    for sets in product(_sets(fail_prone), repeat=k):
        if len(frozenset().union(*sets)) == fail_prone.n:
            return OracleReport(label, False, sets)
    return OracleReport(label, True)


def fstar_enumerate(fail_prone: SetSystem) -> SetSystem:
    """Downward closure: every subset of every member, deduplicated.

    Members come out sorted by size then lexicographically, so the result is
    deterministic regardless of input order.
    """
    n = fail_prone.n
    closure: set[frozenset[int]] = set()
    for m in fail_prone.members:
        idx = m.indices
        for k in range(len(idx) + 1):
            closure.update(frozenset(c) for c in combinations(idx, k))
    ordered = sorted(closure, key=lambda s: (len(s), sorted(s)))
    return SetSystem(n, (ProcessSubset.from_indices(s, n) for s in ordered))


def antichain_check(system: SetSystem) -> bool:
    """True when no member contains another."""
    sets = _sets(system)
    return not any(a < b or b < a for a, b in combinations(sets, 2))


def all_antichain_systems(n: int, max_members: int) -> list[SetSystem]:
    """Every antichain of nonempty subsets of {1..n} with 1..max_members members.

    Exhaustive reference family for cross-validation at small n.
    """
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    out: list[SetSystem] = []
    for r in range(1, max_members + 1):
        for combo in combinations(subsets, r):
            if any(a < b or b < a for a, b in combinations(combo, 2)):
                continue
            out.append(SetSystem(n, (ProcessSubset.from_indices(s, n) for s in combo)))
    return out
