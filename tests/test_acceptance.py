"""Acceptance checks, one test per criterion, each printing a pass/fail line.

Every check is exact: golden bytes, zero count tolerance, zero verdict
disagreements. Stated runtime bounds are asserted alongside the result.
"""

import time
from itertools import combinations, product
from pathlib import Path

from _worked_example import render
from helpers import assert_is_reduced_basis, rand_generators, rand_system, seeded
from quorum_algebra.algebra import BlockLexOrder, Polynomial
from quorum_algebra.checkers import (
    check_availability,
    check_consistency_classical,
    check_consistency_dissemination,
    check_consistency_masking,
    check_q3,
    check_q4,
    threshold_system,
)
from quorum_algebra.encoding import ProcessSubset, char_poly
from quorum_algebra.groebner import (
    IdealBasis,
    buchberger,
    elimination_subbasis,
    normal_form,
    spoly,
    variety_enumerate,
)
from quorum_algebra.oracle import (
    all_antichain_systems,
    oracle_availability,
    oracle_consistency_classical,
    oracle_consistency_dissemination,
    oracle_consistency_masking,
    oracle_q3,
    oracle_q4,
)

GOLDEN = Path(__file__).parent / "golden" / "worked_example.txt"


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


def test_criterion_1_reference_walkthrough():
    t0 = time.perf_counter()
    text = render()
    golden = GOLDEN.read_text(encoding="utf-8")
    elapsed = time.perf_counter() - t0
    _report(1, "subset encoding walk-through, byte-exact, <1s", text == golden and elapsed < 1.0)


def test_criterion_2_counting_identity():
    rng = seeded(1002)
    t0 = time.perf_counter()
    ok = True
    for _ in range(120):
        n = rng.randint(1, 4)
        gens = rand_generators(n, ("x",), rng)
        cert = buchberger(IdealBasis(gens, BlockLexOrder(("x",)), n))
        points = variety_enumerate(gens, ("x",), n)
        ok = ok and cert.sm_count == len(points)
    elapsed = time.perf_counter() - t0
    _report(2, "standard monomials count the variety, 120 ideals, <30s", ok and elapsed < 30.0)


def test_criterion_3_elimination_extension():
    rng = seeded(1003)
    ok = True
    for _ in range(120):
        n = rng.randint(1, 2)
        gens = rand_generators(n, ("x", "y"), rng)
        order = BlockLexOrder(("y", "x"))
        cert = buchberger(IdealBasis(gens, order, n))
        sub = elimination_subbasis(cert, ("x",))
        full = variety_enumerate(cert.basis, ("y", "x"), n)
        projected = {pt[n:] for pt in full}
        kept = variety_enumerate(sub, ("x",), n)
        ok = ok and projected == kept
    _report(3, "elimination sub-basis matches the projected variety", ok)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    family = all_antichain_systems(3, 4)
    disagreements = 0

    def tally(verdict, report):
        nonlocal disagreements
        if verdict.holds != report.holds:
            disagreements += 1

    for quorums in family:
        reference = oracle_consistency_classical(quorums)
        tally(check_consistency_classical(quorums), reference)
        tally(check_consistency_classical(quorums, method="trivial-ideal"), reference)
    for fail_prone in family:
        tally(check_q3(fail_prone), oracle_q3(fail_prone))
        tally(check_q4(fail_prone), oracle_q4(fail_prone))
    for quorums, fail_prone in product(family, family):
        tally(check_availability(quorums, fail_prone), oracle_availability(quorums, fail_prone))
        tally(
            check_consistency_dissemination(quorums, fail_prone),
            oracle_consistency_dissemination(quorums, fail_prone),
        )
    for quorums, fail_prone in list(product(family, family))[:40]:
        tally(
            check_consistency_masking(quorums, fail_prone),
            oracle_consistency_masking(quorums, fail_prone),
        )

    rng = seeded(1004)
    for _ in range(200):
        quorums, fail_prone = rand_system(4, rng), rand_system(4, rng)
        reference = oracle_consistency_classical(quorums)
        tally(check_consistency_classical(quorums), reference)
        tally(check_consistency_classical(quorums, method="trivial-ideal"), reference)
        tally(check_availability(quorums, fail_prone), oracle_availability(quorums, fail_prone))
        tally(
            check_consistency_dissemination(quorums, fail_prone),
            oracle_consistency_dissemination(quorums, fail_prone),
        )
        tally(check_q3(fail_prone), oracle_q3(fail_prone))
    for _ in range(25):
        quorums, fail_prone = rand_system(4, rng), rand_system(4, rng)
        tally(
            check_consistency_masking(quorums, fail_prone),
            oracle_consistency_masking(quorums, fail_prone),
        )
        tally(check_q4(fail_prone), oracle_q4(fail_prone))

    elapsed = time.perf_counter() - t0
    _report(
        4,
        "algebraic and oracle verdicts agree, exhaustive n=3 plus seeded n=4, <5min",
        disagreements == 0 and elapsed < 300.0,
    )


def test_criterion_5_threshold_sweep():
    ok = True
    for n in range(3, 7):
        for f in (0, 1):
            quorums, fail_prone = threshold_system(n, f, "dissemination")
            works = (
                check_consistency_dissemination(quorums, fail_prone).holds
                and check_availability(quorums, fail_prone).holds
            )
            ok = ok and works == (3 * f < n)
    _report(5, "dissemination thresholds exist exactly when 3f < n", ok)


def test_criterion_6_buchberger_soundness():
    rng = seeded(1006)
    ok = True
    for _ in range(110):
        blocks = ("x",) if rng.random() < 0.5 else ("x", "y")
        n = rng.randint(1, 4 // len(blocks))
        gens = rand_generators(n, blocks, rng)
        order = BlockLexOrder(blocks)
        source = IdealBasis(gens, order, n)
        cert = buchberger(source)
        try:
            assert_is_reduced_basis(source, cert)
        except AssertionError:
            ok = False
        for f1, f2 in combinations(cert.basis, 2):
            ok = ok and normal_form(spoly(f1, f2, order), cert.basis, order).is_zero
        # the field pairs x*g for the variables x of each leading monomial
        for g in cert.basis:
            lm = g.leading_monomial(order)
            for var in order.variables(n):
                if var.mask(n) & lm:
                    x = Polynomial.variable(var, n)
                    ok = ok and normal_form(x * g, cert.basis, order).is_zero
    _report(6, "s-polynomials reduce to zero and the basis is the variety's reduced basis", ok)


def test_criterion_7_subset_algebra():
    rng = seeded(1007)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = rng.randint(1, 6)
        q, r, f = (ProcessSubset(rng.randrange(1 << n), n) for _ in range(3))
        cq, cr, cf = (char_poly(s, "y") for s in (q, r, f))

        inter = cq.intersect(cr)
        ok = ok and inter.expand() == char_poly(q.intersection(r), "y").expand()
        union = cq.union(cr)
        ok = ok and union.expand() == char_poly(q.union(r), "y").expand()
        diff = cq.difference_within(cr, cf)
        ok = ok and diff.expand() == char_poly(q.intersection(r).difference(f), "y").expand()

        empty = char_poly(ProcessSubset(0, n), "y")
        full = char_poly(ProcessSubset((1 << n) - 1, n), "y")
        ok = ok and cq.ring_add(cr) == cr.ring_add(cq)
        ok = ok and cq.ring_mul(cr) == cr.ring_mul(cq)
        ok = ok and cq.ring_add(cr).ring_add(cf) == cq.ring_add(cr.ring_add(cf))
        ok = ok and cq.ring_mul(cr).ring_mul(cf) == cq.ring_mul(cr.ring_mul(cf))
        ok = ok and cq.ring_mul(cr.ring_add(cf)) == cq.ring_mul(cr).ring_add(cq.ring_mul(cf))
        ok = ok and cq.ring_add(empty) == cq
        ok = ok and cq.ring_mul(full) == cq
        ok = ok and cq.ring_mul(cq) == cq
        ok = ok and cq.ring_add(cq) == empty

        # orthogonal idempotents: xi_S * xi_Sc = 0, as is xi_P * xi_empty
        ok = ok and (cq.expand() * cq.complement_set().expand()).is_zero
        ok = ok and (full.expand() * empty.expand()).is_zero
    elapsed = time.perf_counter() - t0
    _report(7, "factored subset algebra, ring axioms, complement identity, <60s", ok and elapsed < 60.0)
