"""Tests for the brute-force set-theoretic reference checks."""

from itertools import combinations

import pytest
from helpers import (
    rand_system,
    ref_antichain,
    ref_antichain_systems,
    ref_availability,
    ref_consistency_classical,
    ref_consistency_dissemination,
    ref_consistency_masking,
    ref_fstar,
    ref_no_cover,
    seeded,
)
from quorum_algebra import algebra, encoding, groebner, variety
from quorum_algebra.checkers import threshold_system
from quorum_algebra.encoding import ProcessSubset, SetSystem
from quorum_algebra.oracle import (
    all_antichain_systems,
    antichain_check,
    fstar_enumerate,
    oracle_availability,
    oracle_consistency_classical,
    oracle_consistency_dissemination,
    oracle_consistency_masking,
    oracle_q3,
    oracle_q4,
)

TWO_SUBSETS = SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]])
SINGLETONS = SetSystem.from_lists(3, [[1], [2], [3]])


def test_consistency_examples():
    assert oracle_consistency_classical(TWO_SUBSETS).holds
    report = oracle_consistency_classical(SetSystem.from_lists(2, [[1], [2]]))
    assert not report.holds
    assert report.witness == (frozenset({1}), frozenset({2}))
    assert oracle_consistency_classical(SetSystem.from_lists(2, [[1, 2]])).holds


def test_availability_examples():
    assert oracle_availability(TWO_SUBSETS, SINGLETONS).holds
    report = oracle_availability(TWO_SUBSETS, SetSystem.from_lists(3, [[1, 2]]))
    assert not report.holds
    assert report.witness == (frozenset({1, 2}),)
    empty_fail = SetSystem.from_lists(3, [[]])
    assert oracle_availability(TWO_SUBSETS, empty_fail).holds


def test_dissemination_examples():
    report = oracle_consistency_dissemination(TWO_SUBSETS, SINGLETONS)
    assert not report.holds
    q1, q2, f = report.witness
    assert (q1 & q2) <= f
    quorums = SetSystem.from_lists(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    singles4 = SetSystem.from_lists(4, [[1], [2], [3], [4]])
    assert oracle_consistency_dissemination(quorums, singles4).holds


def test_masking_examples():
    quorums = SetSystem.from_lists(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    singles4 = SetSystem.from_lists(4, [[1], [2], [3], [4]])
    report = oracle_consistency_masking(quorums, singles4)
    assert not report.holds
    q1, q2, f1, f2 = report.witness
    assert ((q1 & q2) - f1) <= f2
    big = SetSystem.from_lists(5, [list(c) for c in combinations(range(1, 6), 4)])
    singles5 = SetSystem.from_lists(5, [[i] for i in range(1, 6)])
    assert oracle_consistency_masking(big, singles5).holds


def test_q3_q4_examples():
    assert oracle_q3(SetSystem.from_lists(4, [[1], [2], [3], [4]])).holds
    report = oracle_q3(SINGLETONS)
    assert not report.holds
    assert frozenset().union(*report.witness) == {1, 2, 3}
    assert oracle_q4(SetSystem.from_lists(5, [[i] for i in range(1, 6)])).holds
    assert not oracle_q4(SetSystem.from_lists(4, [[1], [2], [3], [4]])).holds


def test_witnesses_violate_the_property():
    rng = seeded(31)
    for _ in range(60):
        n = rng.randint(2, 4)
        quorums, fail_prone = rand_system(n, rng), rand_system(n, rng)
        universe = frozenset(range(1, n + 1))

        r = oracle_consistency_classical(quorums)
        if not r.holds:
            q1, q2 = r.witness
            assert not (q1 & q2)
        r = oracle_availability(quorums, fail_prone)
        if not r.holds:
            (f,) = r.witness
            assert all(f & frozenset(q.indices) for q in quorums)
        r = oracle_consistency_dissemination(quorums, fail_prone)
        if not r.holds:
            q1, q2, f = r.witness
            assert (q1 & q2) <= f
        r = oracle_consistency_masking(quorums, fail_prone)
        if not r.holds:
            q1, q2, f1, f2 = r.witness
            assert ((q1 & q2) - f1) <= f2
        r = oracle_q3(fail_prone)
        if not r.holds:
            assert frozenset().union(*r.witness) == universe
        r = oracle_q4(fail_prone)
        if not r.holds:
            assert frozenset().union(*r.witness) == universe


def test_fstar_sizes():
    assert len(fstar_enumerate(SetSystem.from_lists(2, [[1]]))) == 2
    assert len(fstar_enumerate(SINGLETONS)) == 4
    assert len(fstar_enumerate(SetSystem.from_lists(3, [[1, 2]]))) == 4


def test_fstar_is_the_downward_closure():
    rng = seeded(32)
    for _ in range(30):
        system = rand_system(4, rng)
        closure = fstar_enumerate(system)
        members = {frozenset(m.indices) for m in closure}
        # every subset of every member is in, nothing else
        for m in system:
            s = frozenset(m.indices)
            for k in range(len(s) + 1):
                for sub in combinations(sorted(s), k):
                    assert frozenset(sub) in members
        for got in members:
            assert any(got <= frozenset(m.indices) for m in system)
        sizes = [m.size for m in closure]
        assert sizes == sorted(sizes)


def test_antichain_check():
    assert antichain_check(SINGLETONS)
    assert not antichain_check(SetSystem.from_lists(2, [[1], [1, 2]]))


def test_all_antichain_systems_over_three():
    family = all_antichain_systems(3, 4)
    assert len(family) == 18
    assert family == ref_antichain_systems(3, 4)  # the same systems, in the same order
    seen = set()
    for system in family:
        assert 1 <= len(system) <= 4
        assert antichain_check(system)
        assert all(m.size >= 1 for m in system)
        key = frozenset(m.mask for m in system)
        assert key not in seen
        seen.add(key)


def test_all_antichain_systems_member_bound():
    assert len(all_antichain_systems(2, 1)) == 3  # {1}, {2}, {1,2}
    assert len(all_antichain_systems(2, 4)) == 4  # plus {{1},{2}}
    for n in (1, 2, 4):
        assert all_antichain_systems(n, 2) == ref_antichain_systems(n, 2)


# each oracle, its frozenset reference, and whether it reads quorums,
# fail-prone sets or both
ORACLES = (
    (oracle_consistency_classical, ref_consistency_classical, "q"),
    (oracle_availability, ref_availability, "qf"),
    (oracle_consistency_dissemination, ref_consistency_dissemination, "qf"),
    (oracle_consistency_masking, ref_consistency_masking, "qf"),
    (oracle_q3, lambda fail_prone: ref_no_cover(fail_prone, 3), "f"),
    (oracle_q4, lambda fail_prone: ref_no_cover(fail_prone, 4), "f"),
)


def _args(reads, quorums, fail_prone):
    return {"q": (quorums,), "f": (fail_prone,), "qf": (quorums, fail_prone)}[reads]


def _rand_masks(n, rng):
    """Distinct random subsets of {1..n} in random order, the empty set and nested ones allowed."""
    masks = dict.fromkeys(rng.getrandbits(n) for _ in range(rng.randint(1, 6)))
    return SetSystem(n, (ProcessSubset(m, n) for m in masks))


def test_oracles_match_the_frozenset_reference():
    rng = seeded(41)
    outcomes = {oracle: set() for oracle, _, _ in ORACLES}
    for _ in range(1500):
        n = rng.randint(1, 5)
        quorums, fail_prone = _rand_masks(n, rng), _rand_masks(n, rng)
        for oracle, reference, reads in ORACLES:
            args = _args(reads, quorums, fail_prone)
            report = oracle(*args)
            # the exact first witness, not just some violating tuple
            assert (report.holds, report.witness) == reference(*args), (oracle, quorums, fail_prone)
            outcomes[oracle].add(report.holds)
        assert [frozenset(m.indices) for m in fstar_enumerate(fail_prone)] == ref_fstar(fail_prone)
        assert antichain_check(quorums) == ref_antichain(quorums)
    assert all(seen == {True, False} for seen in outcomes.values())


def test_oracles_share_no_bit_scanner_with_the_engine(monkeypatch):
    inputs = [threshold_system(5, 1, "masking"), threshold_system(5, 2, "classical"), (SINGLETONS, SINGLETONS)]
    expected = [
        [reference(*_args(reads, *systems)) for _, reference, reads in ORACLES] for systems in inputs
    ]
    closures = [ref_fstar(fail_prone) for _, fail_prone in inputs]

    def scanner(bits):
        raise AssertionError("the oracle called the engine's bit scanner")

    for module in (algebra, encoding, groebner, variety):
        monkeypatch.setattr(module, "bit_positions", scanner)
    with pytest.raises(AssertionError):
        SINGLETONS[0].indices  # the patch reaches ProcessSubset.indices
    outcomes = set()
    for systems, wanted, closure in zip(inputs, expected, closures):
        for (oracle, _, reads), (holds, witness) in zip(ORACLES, wanted):
            report = oracle(*_args(reads, *systems))
            assert (report.holds, report.witness) == (holds, witness)
            outcomes.add((oracle, holds))
        members = fstar_enumerate(systems[1])
        assert [{i for i in range(1, 6) if m.contains(i)} for m in members] == closure
    assert len(outcomes) == 2 * len(ORACLES)  # each oracle both holds and fails here
