"""The three benchmark workloads: their inputs, decisions and expected answers.

Inputs are generated here from the seed alone, without the package, and
written as `qa` input files. Expected answers come from a rule table for the
threshold cases and from the package's oracles and variety enumeration for
the sweep; both are computed at set-up, before anything is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

WORKLOADS = ("cover-dense", "quorum-wide", "cli-sweep")

# (property, n, f) threshold cases. cover-dense keeps the dense cover
# expansion dominant (15^4 and 7^5 cover terms); quorum-wide has many small
# generators and never builds a cover polynomial.
THRESHOLD_CASES = {
    "cover-dense": (("q4", 4, 1), ("q3", 5, 1), ("q3", 4, 2)),
    "quorum-wide": (
        ("consistency", 8, 2),
        ("dissemination", 6, 1),
        ("masking", 6, 1),
        ("availability", 7, 2),
        ("availability", 6, 2),
    ),
}

# cli-sweep draws a base set of systems once, from a fixed seed; --seed then
# relabels the processes of every system and draws the `qa groebner` ideals.
# Relabelling keeps each question's structure, so every seed asks for about
# the same work while inputs, variable orders and reports differ.
SWEEP_BASE_SEED = 1004
SWEEP_Q3_Q4_N3 = 4          # n=3 fail-prone systems, each checked for q3 and q4
SWEEP_PAIRS_N3 = 40         # n=3 (quorums, fail-prone) pairs, three properties each
SWEEP_PAIRS_N4 = 12         # random n=4 pairs, four properties each
SWEEP_Q3_N4 = 6             # of those, how many also get q3
SWEEP_GROEBNER = 60         # `qa groebner` calls on random ideals


@dataclass(frozen=True)
class Decision:
    """One `qa` invocation and what it must answer."""

    id: str
    argv: tuple[str, ...]
    expect_exit: int
    ref_key: str | None
    expect_sm: int | None = None  # groebner: size of the variety


def threshold_quorum_size(prop: str, n: int, f: int) -> int:
    if prop == "masking":
        return math.ceil((n + 2 * f + 1) / 2)
    return math.ceil((n + f + 1) / 2)


def threshold_holds(prop: str, n: int, f: int) -> bool:
    """Expected verdict for the threshold system of size-q quorums and size-f fail-prone sets."""
    q = threshold_quorum_size(prop, n, f)
    meet = 2 * q - n  # smallest intersection of two quorums
    return {
        "consistency": meet > 0,
        "availability": n - f >= q,
        "dissemination": meet > f,
        "masking": meet > 2 * f,
        "q3": 3 * f < n,
        "q4": 4 * f < n,
    }[prop]


def threshold_input(prop: str, n: int, f: int) -> dict:
    doc: dict = {"n": n}
    if prop not in ("q3", "q4"):
        q = threshold_quorum_size(prop, n, f)
        doc["quorums"] = [list(c) for c in combinations(range(1, n + 1), q)]
    if prop != "consistency":
        doc["fail_prone"] = [list(c) for c in combinations(range(1, n + 1), f)]
    return doc


def antichain_family(n: int, max_members: int) -> list[list[list[int]]]:
    """Every antichain of nonempty subsets of {1..n} with 1..max_members members."""
    subsets = [c for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    out = []
    for r in range(1, max_members + 1):
        for combo in combinations(subsets, r):
            sets = [set(c) for c in combo]
            if any(a < b or b < a for a, b in combinations(sets, 2)):
                continue
            out.append([list(c) for c in combo])
    return out


def random_system(n: int, rng: random.Random, max_members: int = 4) -> list[list[int]]:
    """Distinct nonempty subsets of {1..n}, as the test suite draws them."""
    members: list[list[int]] = []
    for _ in range(rng.randint(1, max_members)):
        s = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        if s not in members:
            members.append(s)
    return members


def random_ideal(rng: random.Random) -> tuple[int, tuple[str, ...], str]:
    """n <= 4, one or two blocks, one to three generators without cancelling terms."""
    n = rng.randint(2, 4)
    blocks = ("x",) if rng.random() < 0.5 else ("x", "y")
    variables = [f"{b}{i}" for b in blocks for i in range(1, n + 1)]
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms: set[tuple[str, ...]] = set()
        for _ in range(rng.randint(1, 4)):
            terms.add(tuple(v for v in variables if rng.random() < 0.35))
        polys.append(" + ".join("*".join(t) if t else "1" for t in sorted(terms)))
    return n, blocks, ", ".join(polys)


def input_key(prop: str, doc: dict) -> str:
    """Reference key of a check decision: its property and its input's content."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f"{prop}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


class Writer:
    """Writes each distinct input document once and hands back its path."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.paths: dict[str, str] = {}

    def path(self, doc: dict) -> str:
        text = json.dumps(doc, sort_keys=True)
        name = hashlib.sha256(text.encode()).hexdigest()[:16]
        if name not in self.paths:
            p = self.outdir / f"{name}.json"
            p.write_text(text + "\n", encoding="utf-8")
            self.paths[name] = str(p)
        return self.paths[name]


def check_argv(prop: str, path: str, method: str | None = None) -> tuple[str, ...]:
    argv = ("check", prop, "--input", path)
    return argv + ("--method", method) if method else argv


def build(workload: str, seed: int, outdir: Path, qa) -> list[Decision]:
    """Write the workload's inputs under outdir and return its decisions.

    qa is the imported package; cli-sweep uses its oracles and variety
    enumeration for the expected answers.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    writer = Writer(outdir)
    if workload in THRESHOLD_CASES:
        out = []
        for prop, n, f in THRESHOLD_CASES[workload]:
            doc = threshold_input(prop, n, f)
            out.append(Decision(
                f"{prop}-n{n}-f{f}", check_argv(prop, writer.path(doc)),
                0 if threshold_holds(prop, n, f) else 1, input_key(prop, doc),
            ))
        return out
    if workload == "cli-sweep":
        return _build_sweep(seed, writer, qa)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_reference_family() -> list[tuple[str, dict]]:
    """Every n=3 check decision the sweep can draw; the committed reference covers them."""
    family = antichain_family(3, 4)
    out = [("consistency", {"n": 3, "quorums": s}) for s in family]
    out += [(p, {"n": 3, "fail_prone": s}) for p in ("q3", "q4") for s in family]
    out += [
        (p, {"n": 3, "quorums": q, "fail_prone": f})
        for q in family for f in family
        for p in ("availability", "dissemination", "masking")
    ]
    return out


def check_decisions(checks: list[tuple[str, dict]], writer: Writer, qa) -> list[Decision]:
    """`qa check --method both` decisions, each expecting the oracle's verdict."""
    oracles = {
        "consistency": lambda q, f: qa.oracle_consistency_classical(q),
        "availability": qa.oracle_availability,
        "dissemination": qa.oracle_consistency_dissemination,
        "masking": qa.oracle_consistency_masking,
        "q3": lambda q, f: qa.oracle_q3(f),
        "q4": lambda q, f: qa.oracle_q4(f),
    }
    out = []
    for k, (prop, doc) in enumerate(checks):
        n = doc["n"]
        quorums = qa.SetSystem.from_lists(n, doc["quorums"]) if "quorums" in doc else None
        fail_prone = qa.SetSystem.from_lists(n, doc["fail_prone"]) if "fail_prone" in doc else None
        holds = oracles[prop](quorums, fail_prone).holds
        out.append(Decision(
            f"check{k}-{prop}", check_argv(prop, writer.path(doc), "both"),
            0 if holds else 1, input_key(prop, doc),
        ))
    return out


def relabel(system: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The system with process i renamed perm[i - 1], members in canonical order."""
    return sorted((sorted(perm[i - 1] for i in m) for m in system), key=lambda m: (len(m), m))


def _build_sweep(seed: int, writer: Writer, qa) -> list[Decision]:
    base = random.Random(SWEEP_BASE_SEED)
    family = antichain_family(3, 4)
    checks: list[tuple[str, dict]] = [("consistency", {"n": 3, "quorums": s}) for s in family]
    for s in base.sample(family, SWEEP_Q3_Q4_N3):
        checks += [(p, {"n": 3, "fail_prone": s}) for p in ("q3", "q4")]
    for _ in range(SWEEP_PAIRS_N3):
        doc = {"n": 3, "quorums": base.choice(family), "fail_prone": base.choice(family)}
        checks += [(p, doc) for p in ("availability", "dissemination", "masking")]
    for k in range(SWEEP_PAIRS_N4):
        doc = {"n": 4, "quorums": random_system(4, base), "fail_prone": random_system(4, base)}
        props = ("consistency", "availability", "dissemination", "masking")
        checks += [(p, doc) for p in props + (("q3",) if k < SWEEP_Q3_N4 else ())]

    rng = random.Random(seed)
    relabelled: dict[int, dict] = {}
    for k, (prop, doc) in enumerate(checks):
        if id(doc) not in relabelled:
            perm = rng.sample(range(1, doc["n"] + 1), doc["n"])
            relabelled[id(doc)] = {
                key: relabel(value, perm) if key != "n" else value for key, value in doc.items()
            }
        checks[k] = (prop, relabelled[id(doc)])
    out = check_decisions(checks, writer, qa)
    for k in range(SWEEP_GROEBNER):
        n, blocks, text = random_ideal(rng)
        gens = [qa.parse_polynomial(piece, n) for piece in text.split(", ")]
        size = len(qa.variety_enumerate(gens, blocks, n))
        argv = ("groebner", "--polys", text, "--order", ",".join(blocks), "--n", str(n))
        out.append(Decision(f"groebner{k}", argv, 0, None, size))
    return out
