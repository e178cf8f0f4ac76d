"""Tests for the quorum-system property checkers."""

import hashlib
import json
import tracemalloc
from functools import reduce
from itertools import product
from operator import or_
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_is_reduced_basis, expansions, rand_system, seeded
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
from quorum_algebra.algebra import BlockLexOrder, Polynomial, format_polynomial, parse_polynomial
from quorum_algebra import variety
from quorum_algebra.encoding import (
    ProcessSubset,
    SetSystem,
    bool_product,
    overlap_poly,
    system_char_poly,
)
from quorum_algebra.groebner import IdealBasis, buchberger, variety_enumerate
from quorum_algebra.oracle import oracle_q3, oracle_q4
from quorum_algebra.variety import TooLarge

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
    # the empty quorum meets none: the flipped basis is the one element x1*y1, not {1}
    for quorums in [SetSystem.from_lists(1, [[], [1]])] + [rand_system(3, rng) for _ in range(25)]:
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


def _recorded_ideal(name, systems, method="sm-count"):
    """The ideal and certificate of one checker call."""
    seen = []

    def recording(B):
        seen.append((B, buchberger(B)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(checkers, "buchberger", recording)
        checkers._decide(name, tuple(systems[key] for key in PROPERTIES[name].reads), None, method)
    (B, cert), = seen
    return B, cert


def _without_points(name, systems, B):
    """The same ideal with every block's system as its characteristic
    polynomial instead of points, and its products expanded, which leaves
    it to the pair loop."""
    gens = list(B.generators)
    for block, source in PROPERTIES[name].encodes:
        char = system_char_poly(checkers._members(source, systems), block)
        if not char.is_zero:
            gens.append(char)
    return IdealBasis(tuple(gens) + expansions(B.products, B.n), B.order, B.n)


def _systems(n):
    masks = st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=5)
    return masks.map(lambda ms: SetSystem(n, (ProcessSubset(m, n) for m in sorted(ms))))


drawn_inputs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.sampled_from([*PROPERTIES, "consistency/trivial-ideal"]), _systems(n), _systems(n)
    )
)


@settings(deadline=None, max_examples=150)
@given(drawn=drawn_inputs)
# every quorum meets every fail-prone set, so availability's variety is empty
@example(drawn=("availability", SetSystem.from_lists(3, [[1, 2, 3]]), SINGLETONS))
# every two quorums meet, so the flipped ideal is <1>
@example(drawn=("consistency/trivial-ideal", TWO_SUBSETS, SINGLETONS))
def test_variety_route_matches_the_pair_loop(drawn):
    """A checker's certificate, built from the variety, equals the pair
    loop's on the same ideal written as characteristic polynomials."""
    prop, quorums, fail_prone = drawn
    name, _, method = prop.partition("/")
    systems = {"quorums": quorums, "fail_prone": fail_prone}
    B, cert = _recorded_ideal(name, systems, method or "sm-count")
    reference = buchberger(_without_points(name, systems, B))
    assert reference.stats.variety_points == 0
    assert cert == reference
    assert cert.stats.pairs_queued == 0
    assert_is_reduced_basis(B, cert)
    if cert.sm_count == 0:
        assert cert.basis == (Polynomial.one(quorums.n),)


# in each case below V is not V0, so the lex game runs
def test_threshold_certificates_match_the_pair_loop():
    """At n = 4 and 5 each checker's certificate equals the pair loop's on
    its ideal written as characteristic polynomials, with the products
    expanded into generators, which pairs availability's flipped relation."""
    cases = [("q4", threshold_system(4, 1, "classical")), ("q3", threshold_system(4, 2, "classical")),
             ("availability", threshold_system(5, 1, "classical")),
             ("masking", threshold_system(4, 1, "classical")),
             ("dissemination", (SetSystem.from_lists(4, [[1, 2], [3, 4], [1, 3]]),
                                SetSystem.from_lists(4, [[1], [2], [3], [4]])))]
    for name, (quorums, fail_prone) in cases:
        systems = {"quorums": quorums, "fail_prone": fail_prone}
        B, cert = _recorded_ideal(name, systems)
        assert cert.stats.variety_points > 0 and cert.stats.pairs_queued == 0
        reference = buchberger(_without_points(name, systems, B))
        assert reference == cert and reference.stats.variety_points == 0
        assert B.products or reference.stats.pairs_queued > 0
    # the overlap product is zero on V0 and the other one cuts V; the pair
    # loop takes the blocks as characteristic polynomials and both expanded
    pts = frozenset(m.mask for m in TWO_SUBSETS)
    products = (overlap_poly(3, "x", "y"), (parse_polynomial("x1*y1 + x1", 3),))
    order = BlockLexOrder(("x", "y"))
    cert = buchberger(IdealBasis((), order, 3, products, (("x", pts), ("y", pts))))
    assert (cert.stats.products_vanished, cert.stats.variety_points) == (1, 7)
    chars = tuple(system_char_poly(TWO_SUBSETS, b) for b in ("x", "y"))
    reference = buchberger(IdealBasis(chars + expansions(products, 3), order, 3))
    assert reference == cert
    stats = reference.stats
    assert (stats.products_vanished, stats.variety_points) == (0, 0)


@pytest.mark.parametrize("name, n, f, pairs", [
    ("q4", 4, 1, 311), ("q3", 4, 2, 695), ("availability", 5, 1, 469), ("masking", 4, 1, 408),
])
def test_pair_loop_criteria_bound_the_pairs_queued(name, n, f, pairs):
    """Criteria M and F keep the pair loop's queue on the threshold
    reference ideals at these counts; with the coprime criterion alone it
    queues 2.4-5.5 times as many pairs (761, 3827, 1700 and 1006)."""
    quorums, fail_prone = threshold_system(n, f, "classical")
    systems = {"quorums": quorums, "fail_prone": fail_prone}
    B, _ = _recorded_ideal(name, systems)
    stats = buchberger(_without_points(name, systems, B)).stats
    assert stats.pairs_queued <= pairs
    assert stats.pairs_queued == stats.reductions_zero + stats.reductions_nonzero


def test_lex_game_memory_stays_near_its_table_budget(monkeypatch):
    """Past _TABLE_BITS the lex game stops before it holds much more. On
    the n=10, f=3 all-sizes systems availability's game holds 18 MB of
    tables (22 MB traced) when it runs to the end; with a 256 KB budget it
    raises TooLarge, a ValueError, having held far less."""
    quorums, fail_prone = threshold_system(10, 3, "classical", all_sizes=True)
    monkeypatch.setattr(variety, "_TABLE_BITS", 1 << 21)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lex game") as raised:
            check_availability(quorums, fail_prone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(raised.value, TooLarge)
    assert peak < 3 << 20


def test_v0_over_the_table_budget_raises_before_evaluating(monkeypatch):
    """A V0 whose bitset alone passes _TABLE_BITS raises TooLarge before
    any generator or product is evaluated on it."""
    quorums, fail_prone = threshold_system(4, 1, "classical")

    def evaluate(*args):
        raise AssertionError("V0 evaluated")

    monkeypatch.setattr(variety, "_TABLE_BITS", 8)  # V0 has 4^4 tuples
    monkeypatch.setattr(variety, "evaluate", evaluate)
    with pytest.raises(TooLarge, match="V0, .* would hold 256 bits, over the table budget of 8 bits"):
        check_q4(fail_prone)


def test_point_basis_games_count_toward_the_table_budget(monkeypatch):
    """Consistency at n=8, f=2 has V = V0, the 784 pairs of its 28 quorums,
    so no game runs on V; the quorums' point basis is a game of its own,
    and it and V0's bitset pass a 2,000-bit budget together."""
    quorums, _ = threshold_system(8, 2, "classical")
    monkeypatch.setattr(variety, "_TABLE_BITS", 2000)
    with pytest.raises(TooLarge, match="would hold 2142 bits, over the table budget of 2000 bits"):
        check_consistency_classical(quorums)


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


def _basis_digest(cert):
    text = "".join(f"{format_polynomial(g, cert.order)}\n" for g in cert.basis)
    return hashlib.sha256(f"{text}{cert.sm_count}".encode()).hexdigest()


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
                        seen[key] = _basis_digest(check(quorums, fail_prone).certificate)
                    table[f"{kind} n={n} f={f} {name}"] = seen[key]
    return table


def test_threshold_bases_are_pinned():
    # the table was recorded with the earlier ordinary-ring engine, which
    # adjoined the field polynomials to every basis
    assert threshold_basis_digests() == json.loads(PINNED_BASES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n, f", [(3, 1), (4, 1), (5, 1)])
def test_checkers_leave_the_polynomial_view_unbuilt(n, f):
    """The checkers decide from the masks; the Polynomials, built when the
    basis is read afterwards, are still the pinned ones."""
    pinned = json.loads(PINNED_BASES.read_text(encoding="utf-8"))
    quorums, fail_prone = threshold_system(n, f, "classical")
    verdicts = {
        "consistency": check_consistency_classical(quorums),
        "consistency-trivial": check_consistency_classical(quorums, "trivial-ideal"),
        "availability": check_availability(quorums, fail_prone),
    }
    for name, verdict in verdicts.items():
        cert = verdict.certificate
        assert "basis" not in vars(cert), name
        assert _basis_digest(cert) == pinned[f"classical n={n} f={f} {name}"], name
        assert "basis" in vars(cert)
