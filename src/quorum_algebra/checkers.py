"""Quorum-system property checkers built on Groebner basis certificates.

Each checker encodes its property as a polynomial ideal whose variety over
the Boolean cube is the set of tuples witnessing the property, computes a
reduced Groebner basis, and compares the standard monomial count with the
count the property predicts; the two are equal exactly when the property
holds. Classical consistency also has a trivial-ideal route, which flips
the overlap constraint and holds exactly when the reduced basis is {1}.

Block conventions: two-block checkers use x, y; availability eliminates the
quorum block with the order y > x and counts standard monomials of the
x sub-basis; dissemination adds the fail-prone block t; masking uses x, y
for quorums, z for complements of fail-prone sets and t for the downward
closure; the coverage conditions use one block per quorum/fail-prone slot.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

from .algebra import BlockLexOrder, Polynomial
from .encoding import (
    ProcessSubset,
    SetSystem,
    bool_product,
    cover_poly,
    downset_poly,
    overlap_poly,
    system_char_poly,
    uncovered_meet_poly,
)
from .groebner import GroebnerCertificate, IdealBasis, buchberger
from .oracle import fstar_enumerate

DEFAULT_VAR_BUDGET = 24


class VariableBudgetError(ValueError):
    """Raised when a checker would need more variables than the budget allows."""


class ThresholdError(ValueError):
    """Raised when no threshold system exists for the requested parameters."""


@dataclass(frozen=True)
class Verdict:
    property: str
    holds: bool
    expected_count: int
    observed_count: int | None
    certificate: GroebnerCertificate
    method: str

    def counts_str(self) -> str:
        if self.observed_count is None:
            return f"basis {'=' if self.holds else '!='} {{1}}"
        return f"{self.observed_count} {'=' if self.holds else '!='} {self.expected_count}"


def _resolve_budget(var_budget: int | None) -> int:
    if var_budget is not None:
        return var_budget
    env = os.environ.get("QA_VAR_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"QA_VAR_BUDGET must be an integer, got {env!r}") from exc
    return DEFAULT_VAR_BUDGET


def _check_budget(blocks: int, n: int, var_budget: int | None) -> None:
    budget = _resolve_budget(var_budget)
    total = blocks * n
    if total > budget:
        raise VariableBudgetError(
            f"{blocks} blocks of {n} variables need {total}, over the budget of {budget}"
        )


def _nonzero(polys: list[Polynomial]) -> tuple[Polynomial, ...]:
    return tuple(p for p in polys if not p.is_zero)


def _require_nonempty(**systems: SetSystem) -> None:
    for name, system in systems.items():
        if len(system) == 0:
            raise ValueError(f"empty {name} system")


def check_consistency_classical(
    quorums: SetSystem, method: str = "sm-count", var_budget: int | None = None
) -> Verdict:
    """Every two quorums intersect.

    sm-count: the variety of <quorum constraints on x and y, overlap> must
    have exactly |Q|^2 points. trivial-ideal: flipping the overlap factor to
    its complement leaves no variety at all, so the reduced basis is {1}.
    """
    _require_nonempty(quorum=quorums)
    n = quorums.n
    _check_budget(2, n, var_budget)
    order = BlockLexOrder(("x", "y"))
    gens = [system_char_poly(quorums, "x"), system_char_poly(quorums, "y")]
    expected = len(quorums) ** 2
    if method == "sm-count":
        cert = buchberger(IdealBasis(_nonzero(gens), order, n, products=(overlap_poly(n, "x", "y"),)))
        return Verdict(
            "classical-consistency", cert.sm_count == expected, expected, cert.sm_count, cert, method
        )
    if method == "trivial-ideal":
        gens.append(bool_product(overlap_poly(n, "x", "y"), n) + Polynomial.one(n))
        cert = buchberger(IdealBasis(_nonzero(gens), order, n))
        trivial = len(cert.basis) == 1 and cert.basis[0].is_one
        return Verdict("classical-consistency", trivial, expected, None, cert, method)
    raise ValueError(f"unknown method {method!r}")


def check_availability(
    quorums: SetSystem, fail_prone: SetSystem, var_budget: int | None = None
) -> Verdict:
    """Every fail-prone set is disjoint from some quorum.

    The ideal couples fail-prone points on x with quorum points on y and
    keeps only disjoint pairs (the overlap factor is flipped). Eliminating
    the quorum block y and counting standard monomials over x measures how
    many fail-prone sets kept a disjoint quorum; availability holds when
    none went missing.
    """
    _require_nonempty(quorum=quorums, fail_prone=fail_prone)
    if quorums.n != fail_prone.n:
        raise ValueError("quorums and fail-prone system must share the ambient n")
    n = quorums.n
    _check_budget(2, n, var_budget)
    order = BlockLexOrder(("y", "x"))
    one = Polynomial.one(n)
    gens = [
        system_char_poly(fail_prone, "x"),
        system_char_poly(quorums, "y"),
        bool_product(overlap_poly(n, "x", "y"), n) + one,
    ]
    cert = buchberger(IdealBasis(_nonzero(gens), order, n))
    observed = cert.sm_count_for(("x",))
    expected = len(fail_prone)
    return Verdict("availability", observed == expected, expected, observed, cert, "sm-count")


def check_consistency_dissemination(
    quorums: SetSystem, fail_prone: SetSystem, var_budget: int | None = None
) -> Verdict:
    """No two quorums meet entirely inside a fail-prone set.

    Quorum pairs live on x and y; t ranges over the downward closure of the
    fail-prone system; the escaping-meet constraint keeps only triples whose
    quorum meet is not covered by t. All |Q|^2 * |F*| triples survive
    exactly when the property holds.
    """
    _require_nonempty(quorum=quorums, fail_prone=fail_prone)
    if quorums.n != fail_prone.n:
        raise ValueError("quorums and fail-prone system must share the ambient n")
    n = quorums.n
    _check_budget(3, n, var_budget)
    order = BlockLexOrder(("x", "y", "t"))
    gens = [system_char_poly(quorums, "x"), system_char_poly(quorums, "y")]
    products = (downset_poly(fail_prone, "t"), uncovered_meet_poly(n, ("x", "y"), "t"))
    cert = buchberger(IdealBasis(_nonzero(gens), order, n, products=products))
    expected = len(quorums) ** 2 * len(fstar_enumerate(fail_prone))
    return Verdict(
        "dissemination-consistency", cert.sm_count == expected, expected, cert.sm_count, cert, "sm-count"
    )


def check_consistency_masking(
    quorums: SetSystem, fail_prone: SetSystem, var_budget: int | None = None
) -> Verdict:
    """No quorum meet, less one fail-prone set, lands inside another.

    x and y carry quorum pairs, z the complement of a fail-prone set, t the
    downward closure; the escaping-meet constraint on (x, y, z against t)
    keeps the quadruples realizing the property. All |Q|^2 * |F| * |F*|
    quadruples survive exactly when the property holds.
    """
    _require_nonempty(quorum=quorums, fail_prone=fail_prone)
    if quorums.n != fail_prone.n:
        raise ValueError("quorums and fail-prone system must share the ambient n")
    n = quorums.n
    _check_budget(4, n, var_budget)
    order = BlockLexOrder(("x", "y", "z", "t"))
    gens = [
        system_char_poly(quorums, "x"),
        system_char_poly(quorums, "y"),
        system_char_poly(fail_prone.complements(), "z"),
    ]
    products = (downset_poly(fail_prone, "t"), uncovered_meet_poly(n, ("x", "y", "z"), "t"))
    cert = buchberger(IdealBasis(_nonzero(gens), order, n, products=products))
    expected = len(quorums) ** 2 * len(fail_prone) * len(fstar_enumerate(fail_prone))
    return Verdict(
        "masking-consistency", cert.sm_count == expected, expected, cert.sm_count, cert, "sm-count"
    )


def check_q3(fail_prone: SetSystem, var_budget: int | None = None) -> Verdict:
    """No three fail-prone sets cover all processes."""
    return _check_cover("q3", fail_prone, ("x", "y", "t"), var_budget)


def check_q4(fail_prone: SetSystem, var_budget: int | None = None) -> Verdict:
    """No four fail-prone sets cover all processes."""
    return _check_cover("q4", fail_prone, ("x", "y", "z", "t"), var_budget)


def _check_cover(
    prop: str, fail_prone: SetSystem, blocks: tuple[str, ...], var_budget: int | None
) -> Verdict:
    _require_nonempty(fail_prone=fail_prone)
    n = fail_prone.n
    _check_budget(len(blocks), n, var_budget)
    order = BlockLexOrder(blocks)
    gens = [system_char_poly(fail_prone, b) for b in blocks]
    cert = buchberger(IdealBasis(_nonzero(gens), order, n, products=(cover_poly(n, blocks),)))
    expected = len(fail_prone) ** len(blocks)
    return Verdict(prop, cert.sm_count == expected, expected, cert.sm_count, cert, "sm-count")


def threshold_system(
    n: int, f: int, kind: str, all_sizes: bool = False
) -> tuple[SetSystem, SetSystem]:
    """Quorums of the minimal threshold size plus the f-bounded fail-prone system.

    Quorum size is ceil((n+f+1)/2) for classical and dissemination systems
    and ceil((n+2f+1)/2) for masking; quorums are exactly the subsets of
    that size, the fail-prone system exactly the subsets of size f. With
    all_sizes=True both bounds become literal: quorums take every size at
    or above the threshold and fail-prone sets every size at most f, which
    is no longer an antichain once f > 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if f < 0:
        raise ValueError(f"f must be >= 0, got {f}")
    if kind in ("classical", "dissemination"):
        q = math.ceil((n + f + 1) / 2)
    elif kind == "masking":
        q = math.ceil((n + 2 * f + 1) / 2)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if q > n:
        raise ThresholdError(f"no {kind} threshold system exists for n={n}, f={f}")
    if all_sizes:
        q_members = [c for k in range(q, n + 1) for c in combinations(range(1, n + 1), k)]
        f_members = [c for k in range(f + 1) for c in combinations(range(1, n + 1), k)]
    else:
        q_members = list(combinations(range(1, n + 1), q))
        f_members = list(combinations(range(1, n + 1), f))
    quorums = SetSystem(n, (ProcessSubset.from_indices(c, n) for c in q_members))
    fail_prone = SetSystem(n, (ProcessSubset.from_indices(c, n) for c in f_members))
    return quorums, fail_prone
