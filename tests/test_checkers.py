"""Tests for the quorum-system property checkers."""

import hashlib
import json
from functools import reduce
from itertools import product
from operator import or_
from pathlib import Path

import pytest

from helpers import assert_is_reduced_basis, rand_system, seeded
from quorum_algebra import checkers
from quorum_algebra.checkers import (
    PROPERTIES,
    ThresholdError,
    VariableBudgetError,
    check_availability,
    check_consistency_classical,
    check_consistency_dissemination,
    check_consistency_masking,
    check_q3,
    check_q4,
    threshold_system,
)
from quorum_algebra.algebra import BlockLexOrder, Polynomial, format_polynomial
from quorum_algebra.encoding import SetSystem, bool_product, system_char_poly
from quorum_algebra.groebner import IdealBasis, buchberger, variety_enumerate
from quorum_algebra.oracle import oracle_q3, oracle_q4

PINNED_BASES = Path(__file__).parent / "golden" / "threshold_bases.json"

TWO_SUBSETS = SetSystem.from_lists(3, [[1, 2], [1, 3], [2, 3]])
SINGLETONS = SetSystem.from_lists(3, [[1], [2], [3]])
EMPTY_ONLY = SetSystem.from_lists(3, [[]])


def test_classical_holds():
    verdict = check_consistency_classical(TWO_SUBSETS)
    assert verdict.holds
    assert verdict.expected_count == 9
    assert verdict.observed_count == 9
    assert verdict.counts_str() == "9 = 9"


def test_classical_fails():
    verdict = check_consistency_classical(SetSystem.from_lists(2, [[1], [2]]))
    assert not verdict.holds
    assert verdict.observed_count < verdict.expected_count


def test_classical_single_quorum():
    verdict = check_consistency_classical(SetSystem.from_lists(2, [[1, 2]]))
    assert verdict.holds
    assert verdict.observed_count == 1


def test_classical_methods_agree():
    rng = seeded(41)
    for _ in range(25):
        quorums = rand_system(3, rng)
        by_count = check_consistency_classical(quorums, method="sm-count")
        by_trivial = check_consistency_classical(quorums, method="trivial-ideal")
        assert by_count.holds == by_trivial.holds
        assert by_trivial.observed_count is None
        assert by_trivial.counts_str() in ("basis = {1}", "basis != {1}")
    with pytest.raises(ValueError, match="unknown method"):
        check_consistency_classical(TWO_SUBSETS, method="magic")


def _expanded_flip_certificate(name, systems, n):
    """The flipped ideal as written before the rewrite: the char polys plus
    the expanded relation product + 1."""
    prop = PROPERTIES[name]
    gens = [system_char_poly(systems[source], block) for block, source in prop.encodes]
    gens.append(bool_product(prop.relation(n), n) + Polynomial.one(n))
    nonzero = tuple(g for g in gens if not g.is_zero)
    return buchberger(IdealBasis(nonzero, BlockLexOrder(prop.order), n))


def _assert_flip_matches_expansion(quorums, fail_prone):
    n = quorums.n
    systems = {"quorums": quorums, "fail_prone": fail_prone}
    verdict = check_availability(quorums, fail_prone)
    assert verdict.certificate == _expanded_flip_certificate("availability", systems, n)
    verdict = check_consistency_classical(quorums, method="trivial-ideal")
    assert verdict.certificate == _expanded_flip_certificate("consistency", systems, n)


def test_flipped_relation_enters_as_factor_complements():
    rng = seeded(44)
    for _ in range(40):
        n = rng.randint(1, 5)
        _assert_flip_matches_expansion(rand_system(n, rng), rand_system(n, rng))
    for n in range(1, 7):
        for f in range(3):
            for kind in ("classical", "dissemination", "masking"):
                try:
                    systems = threshold_system(n, f, kind)
                except ThresholdError:
                    continue
                _assert_flip_matches_expansion(*systems)


def test_checker_certificates_are_the_variety_reduced_bases(monkeypatch):
    """Every checker's ideal and certificate, checked by their variety, at up
    to 12 variables: blocks given by points keep only those points."""
    seen = []

    def recording(B):
        cert = buchberger(B)
        seen.append((B, cert))
        return cert

    monkeypatch.setattr(checkers, "buchberger", recording)
    rng = seeded(46)
    cases = [(name, rand_system(3, rng), rand_system(3, rng)) for name in PROPERTIES for _ in range(4)]
    for name, n in (("consistency", 6), ("availability", 6), ("dissemination", 4),
                    ("masking", 3), ("q3", 4), ("q4", 3)):
        for kind in ("classical", "masking"):
            try:
                cases.append((name, *threshold_system(n, 1, kind)))
            except ThresholdError:
                continue
    for name, quorums, fail_prone in cases:
        if len(PROPERTIES[name].order) * quorums.n > 12:
            continue
        systems = {"quorums": quorums, "fail_prone": fail_prone}
        checkers._decide(name, tuple(systems[key] for key in PROPERTIES[name].reads), None)
        if name == "consistency":
            check_consistency_classical(quorums, method="trivial-ideal")
    assert len(seen) > 30
    for B, cert in seen:
        assert len(B.points) == len(B.order.blocks)
        assert_is_reduced_basis(B, cert)


def test_availability_holds():
    verdict = check_availability(TWO_SUBSETS, SINGLETONS)
    assert verdict.holds
    assert verdict.expected_count == 3
    assert verdict.observed_count == 3


def test_availability_fails():
    verdict = check_availability(TWO_SUBSETS, SetSystem.from_lists(3, [[1, 2]]))
    assert not verdict.holds


def test_availability_empty_set_is_harmless():
    assert check_availability(TWO_SUBSETS, EMPTY_ONLY).holds


def test_dissemination_threshold_holds():
    quorums, fail_prone = threshold_system(4, 1, "dissemination")
    verdict = check_consistency_dissemination(quorums, fail_prone)
    assert verdict.holds
    assert verdict.expected_count == 16 * 5
    assert verdict.observed_count == 80


def test_dissemination_fails():
    verdict = check_consistency_dissemination(TWO_SUBSETS, SINGLETONS)
    assert not verdict.holds


def test_dissemination_with_empty_fail_prone_matches_classical():
    rng = seeded(42)
    for _ in range(10):
        quorums = rand_system(3, rng)
        classical = check_consistency_classical(quorums)
        dissem = check_consistency_dissemination(quorums, EMPTY_ONLY)
        assert classical.holds == dissem.holds


def test_q3_examples():
    verdict = check_q3(SetSystem.from_lists(4, [[1], [2], [3], [4]]))
    assert verdict.holds
    assert verdict.observed_count == 64
    assert not check_q3(SINGLETONS).holds


def test_q4_fails():
    assert not check_q4(SetSystem.from_lists(4, [[1], [2], [3], [4]])).holds


def test_q4_holds_at_five():
    verdict = check_q4(SetSystem.from_lists(5, [[i] for i in range(1, 6)]))
    assert verdict.holds
    assert verdict.observed_count == 625


@pytest.mark.parametrize(
    "check, oracle, blocks, n, f, holds, observed",
    [(check_q3, oracle_q3, 3, 6, 2, False, 3285), (check_q4, oracle_q4, 4, 6, 1, True, 1296)],
)
def test_cover_checks_at_six(check, oracle, blocks, n, f, holds, observed):
    _, fail_prone = threshold_system(n, f, "dissemination")
    full = (1 << n) - 1
    uncovered = sum(
        1 for combo in product(fail_prone, repeat=blocks) if reduce(or_, (m.mask for m in combo)) != full
    )
    verdict = check(fail_prone)
    assert verdict.holds is holds
    assert verdict.expected_count == len(fail_prone) ** blocks
    assert verdict.observed_count == uncovered == observed
    assert oracle(fail_prone).holds is holds


def test_masking_threshold_holds():
    quorums, fail_prone = threshold_system(5, 1, "masking")
    verdict = check_consistency_masking(quorums, fail_prone)
    assert verdict.holds
    assert verdict.expected_count == 25 * 5 * 6
    assert verdict.observed_count == 750


def test_masking_rejects_weaker_threshold():
    quorums, fail_prone = threshold_system(4, 1, "dissemination")
    assert not check_consistency_masking(quorums, fail_prone).holds


def test_masking_threshold_at_four_holds():
    quorums, fail_prone = threshold_system(4, 1, "masking")
    verdict = check_consistency_masking(quorums, fail_prone)
    assert verdict.holds
    assert verdict.observed_count == 20


def test_masking_with_empty_fail_prone_matches_classical():
    rng = seeded(43)
    for _ in range(6):
        quorums = rand_system(3, rng)
        classical = check_consistency_classical(quorums)
        masking = check_consistency_masking(quorums, EMPTY_ONLY)
        assert classical.holds == masking.holds


def test_threshold_system_shapes():
    quorums, fail_prone = threshold_system(3, 0, "classical")
    assert [sorted(m.indices) for m in quorums] == [[1, 2], [1, 3], [2, 3]]
    assert [sorted(m.indices) for m in fail_prone] == [[]]
    quorums, fail_prone = threshold_system(4, 1, "dissemination")
    assert all(m.size == 3 for m in quorums) and len(quorums) == 4
    assert all(m.size == 1 for m in fail_prone) and len(fail_prone) == 4
    quorums, _ = threshold_system(5, 1, "masking")
    assert all(m.size == 4 for m in quorums) and len(quorums) == 5


def test_threshold_system_all_sizes():
    quorums, fail_prone = threshold_system(4, 1, "classical", all_sizes=True)
    assert sorted(m.size for m in quorums) == [3, 3, 3, 3, 4]
    assert sorted(m.size for m in fail_prone) == [0, 1, 1, 1, 1]
    exact_q, exact_f = threshold_system(4, 1, "classical")
    assert len(exact_q) == 4 and len(exact_f) == 4


def test_threshold_system_errors():
    with pytest.raises(ThresholdError):
        threshold_system(3, 2, "masking")
    with pytest.raises(ThresholdError):
        threshold_system(3, 3, "classical")
    with pytest.raises(ValueError, match="unknown kind"):
        threshold_system(3, 0, "sloppy")
    with pytest.raises(ValueError):
        threshold_system(0, 0, "classical")
    with pytest.raises(ValueError):
        threshold_system(3, -1, "classical")


def test_empty_system_rejected():
    empty = SetSystem(3, [])
    with pytest.raises(ValueError, match="empty quorum system"):
        check_consistency_classical(empty)
    with pytest.raises(ValueError, match="empty"):
        check_availability(TWO_SUBSETS, empty)
    with pytest.raises(ValueError, match="empty"):
        check_consistency_dissemination(empty, SINGLETONS)
    with pytest.raises(ValueError, match="empty fail_prone system"):
        check_consistency_masking(TWO_SUBSETS, empty)
    with pytest.raises(ValueError, match="empty"):
        check_q3(empty)


def test_mismatched_n_rejected():
    other = SetSystem.from_lists(4, [[1]])
    with pytest.raises(ValueError, match="ambient n"):
        check_availability(TWO_SUBSETS, other)
    with pytest.raises(ValueError, match="ambient n"):
        check_consistency_dissemination(TWO_SUBSETS, other)
    with pytest.raises(ValueError, match="ambient n"):
        check_consistency_masking(TWO_SUBSETS, other)


def test_variable_budget():
    wide = SetSystem.from_lists(13, [[1]])
    with pytest.raises(VariableBudgetError, match="over the budget"):
        check_consistency_classical(wide)
    big = SetSystem.from_lists(7, [[1]])
    with pytest.raises(VariableBudgetError):
        check_consistency_masking(big, big)
    with pytest.raises(VariableBudgetError):
        check_consistency_classical(TWO_SUBSETS, var_budget=5)
    assert check_consistency_classical(TWO_SUBSETS, var_budget=6).holds


def test_variable_budget_env(monkeypatch):
    monkeypatch.setenv("QA_VAR_BUDGET", "5")
    with pytest.raises(VariableBudgetError):
        check_consistency_classical(TWO_SUBSETS)
    assert check_consistency_classical(TWO_SUBSETS, var_budget=6).holds
    monkeypatch.setenv("QA_VAR_BUDGET", "not-a-number")
    with pytest.raises(ValueError, match="QA_VAR_BUDGET"):
        check_consistency_classical(TWO_SUBSETS)


def test_consistency_variety_sits_inside_the_quorum_pairs():
    rng = seeded(44)
    for _ in range(20):
        quorums = rand_system(3, rng)
        verdict = check_consistency_classical(quorums)
        points = variety_enumerate(
            verdict.certificate.basis, ("x", "y"), quorums.n
        )
        pairs = {
            q1.vector + q2.vector for q1, q2 in product(quorums, quorums)
        }
        assert points <= pairs
        assert (points == pairs) == verdict.holds
        overlapping = {
            q1.vector + q2.vector
            for q1, q2 in product(quorums, quorums)
            if q1.mask & q2.mask
        }
        assert points == overlapping


def test_dissemination_implies_classical():
    rng = seeded(45)
    for _ in range(15):
        quorums, fail_prone = rand_system(3, rng), rand_system(3, rng)
        if check_consistency_dissemination(quorums, fail_prone).holds:
            assert check_consistency_classical(quorums).holds


def test_q3_matches_threshold_existence():
    """3f < n is equivalent to q3 on f-subsets and to a working threshold system.

    The full sweep stays algebraic where the cover ideal is small and falls
    back to the set-theoretic check where it is not; the two routes agree on
    every instance both can reach (see the acceptance equivalence test).
    """
    for n in range(3, 7):
        for f in range(0, n // 3 + 2):
            quorums, fail_prone = threshold_system(n, f, "dissemination")
            if n <= 5:
                q3_holds = check_q3(fail_prone).holds
            else:
                q3_holds = oracle_q3(fail_prone).holds
            assert q3_holds == (3 * f < n)
            diss = check_consistency_dissemination(quorums, fail_prone).holds
            avail = check_availability(quorums, fail_prone).holds
            assert (diss and avail) == (3 * f < n)


def threshold_basis_digests():
    """SHA-256 of every checker's formatted reduced basis and sm_count.

    Covers threshold systems at n=3..5, f=0..2 for the three kinds. Classical
    and dissemination systems coincide, and q3/q4 read only the fail-prone
    sets, so each distinct computation runs once. Left out for time: masking
    on the n=5, f=2 classical system (about 4 s) and q4 at n=5, f=2 (minutes).
    """
    checks = {
        "consistency": lambda q, fp: check_consistency_classical(q),
        "consistency-trivial": lambda q, fp: check_consistency_classical(q, "trivial-ideal"),
        "availability": check_availability,
        "dissemination": check_consistency_dissemination,
        "masking": check_consistency_masking,
        "q3": lambda q, fp: check_q3(fp),
        "q4": lambda q, fp: check_q4(fp),
    }
    seen = {}
    table = {}
    for kind in ("classical", "dissemination", "masking"):
        for n in range(3, 6):
            for f in range(3):
                try:
                    quorums, fail_prone = threshold_system(n, f, kind)
                except ThresholdError:
                    continue
                for name, check in checks.items():
                    if n == 5 and f == 2 and (name == "q4" or (name == "masking" and kind != "masking")):
                        continue
                    reads = (fail_prone,) if name in ("q3", "q4") else (quorums, fail_prone)
                    key = (name, tuple(tuple(m.mask for m in s) for s in reads))
                    if key not in seen:
                        cert = check(quorums, fail_prone).certificate
                        text = "".join(f"{format_polynomial(g, cert.order)}\n" for g in cert.basis)
                        seen[key] = hashlib.sha256(f"{text}{cert.sm_count}".encode()).hexdigest()
                    table[f"{kind} n={n} f={f} {name}"] = seen[key]
    return table


def test_threshold_bases_are_pinned():
    # the table was recorded with the earlier ordinary-ring engine, which
    # adjoined the field polynomials to every basis
    assert threshold_basis_digests() == json.loads(PINNED_BASES.read_text(encoding="utf-8"))
