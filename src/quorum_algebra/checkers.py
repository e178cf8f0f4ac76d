"""Quorum-system property checkers built on Groebner basis certificates.

Every property is one entry of PROPERTIES: a set system on each named
variable block, whose ideal is that of its members as points (the zero set
of its characteristic polynomial), plus one relation product tying the
blocks together. The ideal's variety over the Boolean cube is the set of
tuples witnessing the property, so the property holds exactly when the
reduced Groebner basis has as many standard monomials as the property
predicts. Classical consistency also has a trivial-ideal route, which flips
the overlap constraint and holds exactly when the reduced basis is {1}.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .algebra import BlockLexOrder, Polynomial
from .encoding import (
    ProcessSubset,
    SetSystem,
    _field_mask,
    cover_poly,
    overlap_poly,
    uncovered_meet_poly,
)

# Not called here: the blocks enter the engine as points. Benchmark tracing
# wraps these names of this module, so they stay importable from it.
from .encoding import downset_poly, system_char_poly  # noqa: F401
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


@dataclass(frozen=True)
class Property:
    """The ideal that decides one property.

    reads: the input systems, in argument order. order: the blocks, most
    significant first. encodes: the set system on each block, one of
    "quorums", "fail_prone", "complements" (of the fail-prone sets) or
    "downset" (the downward closure F*); its members enter the engine as
    the block's points. relation(n): the factors f_i of the product tying
    the blocks together. With flip, the ideal takes product + 1 instead,
    entered as the generators f_i + 1, which generate the same Boolean
    ideal and are small (x_i * y_i for the overlap factors). The expected
    count is the product of the sizes of the systems on the count blocks
    (all blocks when None).
    """

    label: str
    reads: tuple[str, ...]
    order: tuple[str, ...]
    encodes: tuple[tuple[str, str], ...]
    relation: Callable[[int], tuple[Polynomial, ...]]
    flip: bool = False
    count: tuple[str, ...] | None = None


# The relations look up the encoding builders when a check runs, so
# wrappers set on those module names see every call.
PROPERTIES: dict[str, Property] = {
    "consistency": Property(
        "classical-consistency", ("quorums",), ("x", "y"),
        (("x", "quorums"), ("y", "quorums")),
        lambda n: overlap_poly(n, "x", "y"),
    ),
    # y > x, so the x sub-basis is the elimination ideal of the quorum block.
    "availability": Property(
        "availability", ("quorums", "fail_prone"), ("y", "x"),
        (("x", "fail_prone"), ("y", "quorums")),
        lambda n: overlap_poly(n, "x", "y"), flip=True, count=("x",),
    ),
    "dissemination": Property(
        "dissemination-consistency", ("quorums", "fail_prone"), ("x", "y", "t"),
        (("x", "quorums"), ("y", "quorums"), ("t", "downset")),
        lambda n: uncovered_meet_poly(n, ("x", "y"), "t"),
    ),
    "masking": Property(
        "masking-consistency", ("quorums", "fail_prone"), ("x", "y", "z", "t"),
        (("x", "quorums"), ("y", "quorums"), ("z", "complements"), ("t", "downset")),
        lambda n: uncovered_meet_poly(n, ("x", "y", "z"), "t"),
    ),
    "q3": Property(
        "q3", ("fail_prone",), ("x", "y", "t"),
        (("x", "fail_prone"), ("y", "fail_prone"), ("t", "fail_prone")),
        lambda n: cover_poly(n, ("x", "y", "t")),
    ),
    "q4": Property(
        "q4", ("fail_prone",), ("x", "y", "z", "t"),
        (("x", "fail_prone"), ("y", "fail_prone"), ("z", "fail_prone"), ("t", "fail_prone")),
        lambda n: cover_poly(n, ("x", "y", "z", "t")),
    ),
}

_NOUNS = {"quorums": "quorum", "fail_prone": "fail_prone"}


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


def enforce_var_budget(blocks: int, n: int, var_budget: int | None = None) -> None:
    """Raise VariableBudgetError when blocks * n variables exceed the budget.

    The budget is var_budget, else the QA_VAR_BUDGET environment variable,
    else DEFAULT_VAR_BUDGET.
    """
    budget = _resolve_budget(var_budget)
    total = blocks * n
    if total > budget:
        raise VariableBudgetError(
            f"{blocks} blocks of {n} variables need {total}, over the budget of {budget}"
        )


def _members(source: str, systems: dict[str, SetSystem]) -> SetSystem:
    """The set system an encodes entry puts on its block."""
    if source == "complements":
        return systems["fail_prone"].complements()
    if source == "downset":
        return fstar_enumerate(systems["fail_prone"])
    return systems[source]


def validate_inputs(name: str, inputs: tuple[SetSystem, ...]) -> None:
    """Reject the inputs no route can decide: an empty system, or systems
    over different n. Both the algebraic and the oracle route need this."""
    for key, system in zip(PROPERTIES[name].reads, inputs):
        if len(system) == 0:
            raise ValueError(f"empty {_NOUNS[key]} system")
    if len({system.n for system in inputs}) > 1:
        raise ValueError("quorums and fail-prone system must share the ambient n")


def _decide(
    name: str, inputs: tuple[SetSystem, ...], var_budget: int | None, method: str = "sm-count"
) -> Verdict:
    """Validate the inputs, build the property's ideal and compare its count."""
    validate_inputs(name, inputs)
    prop = PROPERTIES[name]
    systems = dict(zip(prop.reads, inputs))
    n = inputs[0].n
    enforce_var_budget(len(prop.order), n, var_budget)
    if method not in ("sm-count", "trivial-ideal"):
        raise ValueError(f"unknown method {method!r}")

    members = {block: _members(source, systems) for block, source in prop.encodes}
    points = tuple((b, frozenset(_field_mask(m) for m in system)) for b, system in members.items())
    relation = prop.relation(n)
    gens: tuple[Polynomial, ...] = ()
    products: tuple[tuple[Polynomial, ...], ...] = ()
    if prop.flip or method == "trivial-ideal":
        # With g = prod f_j + 1, g * (f_i + 1) = f_i + 1 and g vanishes modulo
        # every f_i + 1, so the factor complements generate the ideal of g.
        gens = tuple(g for g in (f + Polynomial.one(n) for f in relation) if not g.is_zero)
    else:
        products = (relation,)
    order = BlockLexOrder(prop.order)
    cert = buchberger(IdealBasis(gens, order, n, products, points))

    counted = prop.count or prop.order
    expected = math.prod(len(system) for b, system in members.items() if b in counted)
    if method == "trivial-ideal":
        trivial = len(cert.basis) == 1 and cert.basis[0].is_one
        return Verdict(prop.label, trivial, expected, None, cert, method)
    observed = cert.sm_count if prop.count is None else cert.sm_count_for(prop.count)
    return Verdict(prop.label, observed == expected, expected, observed, cert, method)


def check_consistency_classical(
    quorums: SetSystem, method: str = "sm-count", var_budget: int | None = None
) -> Verdict:
    """Every two quorums intersect.

    sm-count: the variety of <quorum constraints on x and y, overlap> must
    have exactly |Q|^2 points. trivial-ideal: flipping the overlap factor to
    its complement leaves no variety at all, so the reduced basis is {1}.
    """
    return _decide("consistency", (quorums,), var_budget, method)


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
    return _decide("availability", (quorums, fail_prone), var_budget)


def check_consistency_dissemination(
    quorums: SetSystem, fail_prone: SetSystem, var_budget: int | None = None
) -> Verdict:
    """No two quorums meet entirely inside a fail-prone set.

    Quorum pairs live on x and y; t ranges over the downward closure of the
    fail-prone system; the escaping-meet constraint keeps only triples whose
    quorum meet is not covered by t. All |Q|^2 * |F*| triples survive
    exactly when the property holds.
    """
    return _decide("dissemination", (quorums, fail_prone), var_budget)


def check_consistency_masking(
    quorums: SetSystem, fail_prone: SetSystem, var_budget: int | None = None
) -> Verdict:
    """No quorum meet, less one fail-prone set, lands inside another.

    x and y carry quorum pairs, z the complement of a fail-prone set, t the
    downward closure; the escaping-meet constraint on (x, y, z against t)
    keeps the quadruples realizing the property. All |Q|^2 * |F| * |F*|
    quadruples survive exactly when the property holds.
    """
    return _decide("masking", (quorums, fail_prone), var_budget)


def check_q3(fail_prone: SetSystem, var_budget: int | None = None) -> Verdict:
    """No three fail-prone sets cover all processes."""
    return _decide("q3", (fail_prone,), var_budget)


def check_q4(fail_prone: SetSystem, var_budget: int | None = None) -> Verdict:
    """No four fail-prone sets cover all processes."""
    return _decide("q4", (fail_prone,), var_budget)


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
