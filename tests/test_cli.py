"""Tests for the qa command line front end, driven in process via main()."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quorum_algebra import cli, groebner, variety
from quorum_algebra.checkers import PROPERTIES
from quorum_algebra.cli import load_system_file, main
from quorum_algebra.encoding import ProcessSubset
from quorum_algebra.groebner import GroebnerStats
from quorum_algebra.oracle import OracleReport


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_input(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


TRIANGLE = {"n": 3, "quorums": [[1, 2], [1, 3], [2, 3]], "fail_prone": [[1], [2], [3]]}


def test_check_consistency_holds(tmp_path, capsys):
    path = write_input(tmp_path, TRIANGLE)
    code, out, err = run(["check", "consistency", "--input", path], capsys)
    assert code == 0
    assert out == (
        "property: consistency\n"
        "n: 3\n"
        "quorums: 3 sets\n"
        "algebraic: holds (9 = 9)\n"
        "oracle: holds\n"
        "verdict: holds\n"
    )
    timing = [line for line in err.splitlines() if line.startswith("timing: ")]
    assert len(timing) == 2


def test_check_consistency_fails(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "quorums": [[1], [2]]})
    code, out, _ = run(["check", "consistency", "--input", path], capsys)
    assert code == 1
    assert "oracle: fails (witness {P1}, {P2})" in out
    assert out.endswith("verdict: fails\n")


def test_check_single_method(tmp_path, capsys):
    path = write_input(tmp_path, TRIANGLE)
    code, out, _ = run(
        ["check", "consistency", "--input", path, "--method", "algebraic"], capsys
    )
    assert code == 0
    assert "algebraic: holds (9 = 9)" in out
    assert "oracle" not in out
    code, out, _ = run(
        ["check", "consistency", "--input", path, "--method", "oracle"], capsys
    )
    assert code == 0
    assert "oracle: holds" in out
    assert "algebraic" not in out


def test_check_q3_needs_only_fail_prone(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "fail_prone": [[1], [2], [3]]})
    code, out, _ = run(["check", "q3", "--input", path], capsys)
    assert code == 1
    assert "witness" in out


def test_check_availability(tmp_path, capsys):
    path = write_input(tmp_path, TRIANGLE)
    code, out, _ = run(["check", "availability", "--input", path], capsys)
    assert code == 0
    assert "fail_prone: 3 sets" in out


def test_check_json_like(tmp_path, capsys):
    path = write_input(tmp_path, TRIANGLE)
    code, out, _ = run(
        ["check", "consistency", "--input", path, "--format", "json-like"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "property", "n", "quorums", "method", "algebraic", "oracle", "verdict",
    ]
    assert doc["algebraic"]["expected_count"] == 9
    assert doc["algebraic"]["observed_count"] == 9
    assert doc["algebraic"]["holds"] is True
    assert doc["oracle"] == {"holds": True, "witness": None}
    assert doc["verdict"] == "holds"


def test_check_json_like_witness(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "fail_prone": [[1], [2], [3]]})
    code, out, _ = run(
        ["check", "q3", "--input", path, "--format", "json-like"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["fail_prone"] == [[1], [2], [3]]
    covers = doc["oracle"]["witness"]
    assert sorted(i for w in covers for i in w) == [1, 2, 3]


def test_check_missing_required_system(tmp_path, capsys):
    for prop, spec in PROPERTIES.items():
        for key in spec.reads:
            doc = {k: v for k, v in TRIANGLE.items() if k != key}
            path = write_input(tmp_path, doc)
            code, out, err = run(["check", prop, "--input", path], capsys)
            assert code == 2 and out == ""
            assert f"property '{prop}' needs '{key}'" in err


def test_check_empty_system_is_an_input_error(tmp_path, capsys):
    # both routes refuse an empty system before either runs
    for prop, spec in PROPERTIES.items():
        for key in spec.reads:
            path = write_input(tmp_path, {**TRIANGLE, key: []})
            for method in ("oracle", "algebraic", "both"):
                code, out, err = run(["check", prop, "--input", path, "--method", method], capsys)
                assert (code, out) == (2, ""), (prop, key, method)
                assert err.startswith("error: empty "), (prop, key, method)


@pytest.mark.parametrize(
    "prop, doc",
    [
        ("consistency", {"quorums": [[1, 2], [2, 3]]}),
        ("availability", {"quorums": [[1, 2], [3, 4]], "fail_prone": [[1], [3]]}),
        ("q3", {"fail_prone": [[1, 2], [2, 3]]}),
        ("q4", {"fail_prone": [[1, 2], [2, 3]]}),
    ],
)
def test_oracle_check_costs_the_members_not_n(tmp_path, capsys, prop, doc):
    path = write_input(tmp_path, {"n": 10**9, **doc})
    t0 = time.perf_counter()
    code, out, _ = run(["check", prop, "--input", path, "--method", "oracle"], capsys)
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and out.endswith("oracle: holds\nverdict: holds\n")


def test_oracle_json_report_costs_the_members_not_n(tmp_path, capsys):
    # the json-like report prints every member's indices
    path = write_input(tmp_path, {"n": 10**8, "quorums": [[1, 10**8], [1, 2]]})
    t0 = time.perf_counter()
    code, out, _ = run(
        ["check", "consistency", "--input", path, "--method", "oracle", "--format", "json-like"],
        capsys,
    )
    assert time.perf_counter() - t0 < 0.5
    assert code == 0
    assert json.loads(out)["quorums"] == [[1, 10**8], [1, 2]]


def test_property_choices_are_the_registry():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    check = sub.choices["check"]
    assert next(a for a in check._actions if a.dest == "property").choices == list(PROPERTIES)


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "quorums": [[0, 1]]},
        {"n": 3, "quorums": [[1, 4]]},
        {"n": 0, "quorums": [[1]]},
        {"n": True, "quorums": [[1]]},
        {"n": 3, "quorums": [[1, "a"]]},
        {"n": 3, "quorums": [1, 2]},
        {"n": 3, "quorums": [[1]], "extra": 1},
        {"quorums": [[1]]},
    ],
)
def test_check_malformed_documents(tmp_path, capsys, doc):
    path = write_input(tmp_path, doc)
    code, _, err = run(["check", "consistency", "--input", path], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_check_unreadable_inputs(tmp_path, capsys):
    code, _, err = run(
        ["check", "consistency", "--input", str(tmp_path / "missing.json")], capsys
    )
    assert code == 2 and "cannot read" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    code, _, err = run(["check", "consistency", "--input", str(broken)], capsys)
    assert code == 2 and "not valid JSON" in err
    # bytes that are not UTF-8 are an input error; exit 1 would read as "fails"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["check", "consistency", "--input", str(binary)], capsys)
    assert code == 2 and out == "" and "not UTF-8" in err
    # valid JSON that is not an object is not a system file
    array = write_input(tmp_path, [TRIANGLE], "array.json")
    code, out, err = run(["check", "consistency", "--input", array], capsys)
    assert (code, out, err) == (2, "", f"error: {array}: top level must be an object\n")


def test_check_inputs_too_large_to_load(tmp_path, capsys, monkeypatch):
    # a file the loader cannot hold is an input error; exit 1 would read as "fails"
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": 3, "quorums": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    huge = write_input(tmp_path, {"n": 10**20, "quorums": [[1]]}, "huge.json")
    for path in (str(deep), huge):
        code, out, err = run(["check", "consistency", "--input", path, "--method", "oracle"], capsys)
        assert (code, out) == (2, ""), path
        assert err.startswith(f"error: {path}") and err.count("\n") == 1, err

    def out_of_memory(indices, n):
        raise MemoryError

    monkeypatch.setattr(ProcessSubset, "from_indices", out_of_memory)
    path = write_input(tmp_path, TRIANGLE)
    code, out, err = run(["check", "consistency", "--input", path], capsys)
    assert (code, out, err) == (
        2, "", f"error: {path}: 'quorums': members too large to build at n = 3\n"
    )


def test_check_is_deterministic(tmp_path, capsys):
    path = write_input(tmp_path, TRIANGLE)
    outs = set()
    for _ in range(2):
        for fmt in ("text", "json-like"):
            _, out, _ = run(
                ["check", "masking", "--input", path, "--format", fmt], capsys
            )
            outs.add((fmt, out))
    assert len(outs) == 2


def test_check_json_like_stats(tmp_path, capsys):
    path = write_input(tmp_path, TRIANGLE)
    for prop in PROPERTIES:
        argv = ["check", prop, "--input", path, "--format", "json-like"]
        out = run(argv, capsys)[1]
        assert run(argv, capsys)[1] == out
        doc = json.loads(out)
        reads = list(PROPERTIES[prop].reads)
        assert list(doc) == ["property", "n", *reads, "method", "algebraic", "oracle", "verdict"]
        stats = doc["algebraic"]["stats"]
        assert list(stats) == list(vars(GroebnerStats()))
        assert all(type(value) is int for value in stats.values())
        # every checker's ideal is built from its variety, with no pair loop
        pair_loop = ("pairs_queued", "reductions_zero", "reductions_nonzero")
        assert [stats[key] for key in pair_loop] == [0, 0, 0]
    # q3 puts one fail-prone system on three blocks and solves it once. It
    # fails here, so the lex game builds I(V) and only the two lower blocks'
    # bases are read, cut to the points V uses
    doc = json.loads(run(["check", "q3", "--input", path, "--format", "json-like"], capsys)[1])
    stats = doc["algebraic"]["stats"]
    assert (stats["blocks_solved"], stats["blocks_reused"]) == (1, 1)
    # where q3 holds, V = V0 and the basis is the union of all three block bases
    singletons = write_input(tmp_path, {**TRIANGLE, "n": 4, "fail_prone": [[1], [2], [3], [4]]}, "q3.json")
    doc = json.loads(run(["check", "q3", "--input", singletons, "--format", "json-like"], capsys)[1])
    stats = doc["algebraic"]["stats"]
    assert doc["algebraic"]["holds"] and stats["variety_points"] == 4 ** 3
    assert (stats["blocks_solved"], stats["blocks_reused"]) == (1, 2)
    # every two quorums meet, so the overlap product is zero on the quorum pairs
    doc = json.loads(run(["check", "consistency", "--input", path, "--format", "json-like"], capsys)[1])
    stats = doc["algebraic"]["stats"]
    assert stats["products_vanished"] == 1


# The text reports of every property on the masking n=5, f=1 system, which
# all hold, and of q3 and q4 on the classical n=4, f=2 system, which fail;
# with the exit code and the json-like report's basis_size of each
REPORTS = [
    ("masking", 5, 1, "consistency", 0, "quorums: 5 sets\nalgebraic: holds (25 = 25)\noracle: holds\n", 14),
    ("masking", 5, 1, "availability", 0,
     "quorums: 5 sets\nfail_prone: 5 sets\nalgebraic: holds (5 = 5)\noracle: holds\n", 12),
    ("masking", 5, 1, "dissemination", 0,
     "quorums: 5 sets\nfail_prone: 5 sets\nalgebraic: holds (150 = 150)\noracle: holds\n", 24),
    ("masking", 5, 1, "masking", 0,
     "quorums: 5 sets\nfail_prone: 5 sets\nalgebraic: holds (750 = 750)\noracle: holds\n", 31),
    ("masking", 5, 1, "q3", 0, "fail_prone: 5 sets\nalgebraic: holds (125 = 125)\noracle: holds\n", 21),
    ("masking", 5, 1, "q4", 0, "fail_prone: 5 sets\nalgebraic: holds (625 = 625)\noracle: holds\n", 28),
    ("classical", 4, 2, "q3", 1,
     "fail_prone: 6 sets\nalgebraic: fails (102 != 216)\n"
     "oracle: fails (witness {P1,P2}, {P1,P2}, {P3,P4})\n", 34),
    ("classical", 4, 2, "q4", 1,
     "fail_prone: 6 sets\nalgebraic: fails (318 != 1296)\n"
     "oracle: fails (witness {P1,P2}, {P1,P2}, {P1,P2}, {P3,P4})\n", 99),
]


@pytest.mark.parametrize(
    "kind, n, f, prop, code, body, size", REPORTS, ids=[f"{kind}-{n}-{f}-{prop}" for kind, n, f, prop, *_ in REPORTS]
)
def test_reports_build_no_term_masks(tmp_path, capsys, monkeypatch, kind, n, f, prop, code, body, size):
    """qa check reads |V| and the leading monomials, never the rendered
    basis: with the render step raising, the reports keep their exit codes
    and bytes, and json-like its basis_size. Reading the masks of a
    certificate twice renders them once."""
    path = str(tmp_path / "system.json")
    assert run(["gen-threshold", "--n", str(n), "--f", str(f), "--kind", kind, "--out", path], capsys)[0] == 0
    reading, renders = [], []
    real = groebner.reduced_basis

    def reduced_basis(*args):
        leading, render = real(*args)

        def counted():
            if not reading:
                pytest.fail("a report rendered the term masks")
            renders.append(leading)
            return render()

        return leading, counted

    monkeypatch.setattr(groebner, "reduced_basis", reduced_basis)
    verdicts = []
    wrap_cli(monkeypatch, "check_", lambda verdict: verdicts.append(verdict) or verdict)
    verdict = "holds" if code == 0 else "fails"
    assert run(["check", prop, "--input", path], capsys)[:2] == (
        code, f"property: {prop}\nn: {n}\n{body}verdict: {verdict}\n"
    )
    out = run(["check", prop, "--input", path, "--format", "json-like"], capsys)[1]
    assert json.loads(out)["algebraic"]["basis_size"] == size
    reading.append(True)
    cert = verdicts[0].certificate
    first = cert.masks
    assert cert.masks is first and len(renders) == 1
    assert len(first) == size and cert.leading == tuple(p[0] for p in first)


def test_check_over_the_table_budget_is_an_input_error(tmp_path, capsys, monkeypatch):
    """A checker ideal whose variety route passes its table budget exits 2
    with empty stdout and one error line naming the budget; the oracle
    alone still decides the same file."""
    path = str(tmp_path / "avail.json")
    argv = ["gen-threshold", "--n", "10", "--f", "3", "--kind", "classical", "--all-sizes", "--out", path]
    assert run(argv, capsys)[0] == 0
    monkeypatch.setattr(variety, "_TABLE_BITS", 1 << 21)
    code, out, err = run(["check", "availability", "--input", path], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the table budget of 2097152 bits" in err
    assert run(["check", "availability", "--input", path, "--method", "oracle"], capsys)[0] == 0


def wrap_cli(monkeypatch, prefix, after):
    """Rebind every name of cli starting with prefix to call after on its result."""
    for name in [k for k in vars(cli) if k.startswith(prefix)]:
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *systems, real=real: after(real(*systems)))


def test_cross_validation_disagreement(tmp_path, capsys, monkeypatch):
    path = write_input(tmp_path, TRIANGLE)
    wrap_cli(monkeypatch, "oracle_", lambda r: OracleReport(r.property, not r.holds, None))
    for prop in PROPERTIES:
        code, out, _ = run(["check", prop, "--input", path], capsys)
        assert code == 3, prop
        assert out.endswith("verdict: CROSS-VALIDATION FAILURE\n")


def test_verdict_and_oracle_labels_agree(tmp_path, capsys, monkeypatch):
    path = write_input(tmp_path, TRIANGLE)
    labels = []
    for prefix in ("check_", "oracle_"):
        wrap_cli(monkeypatch, prefix, lambda r: labels.append(r.property) or r)
    for prop, spec in PROPERTIES.items():
        labels.clear()
        run(["check", prop, "--input", path], capsys)
        assert labels == [spec.label, spec.label]


def test_groebner_trivial_ideal(capsys):
    code, out, _ = run(["groebner", "--polys", "x1, x1+1"], capsys)
    assert code == 0
    assert out == "order: x\nn: 1\nreduced basis:\n  1\nstandard monomials: 0\n"


def test_groebner_single_monomial(capsys):
    code, out, _ = run(["groebner", "--polys", "x1*x2"], capsys)
    assert code == 0
    assert "reduced basis:\n  x1*x2\n" in out
    assert out.endswith("standard monomials: 3\n")


def test_groebner_empty_input_is_the_zero_ideal(capsys):
    code, out, _ = run(["groebner", "--polys", "", "--n", "3"], capsys)
    assert code == 0
    assert out.endswith("standard monomials: 8\n")
    # the one report that prints field polynomials
    code, out, _ = run(["groebner", "--polys", "", "--n", "2"], capsys)
    assert code == 0
    assert out == (
        "order: x\nn: 2\nreduced basis:\n  x1^2 + x1\n  x2^2 + x2\nstandard monomials: 4\n"
    )


X16 = "*".join(["x1"] * 16)


@pytest.mark.parametrize(
    "argv, header, basis, count",
    [
        (["--polys", "x1*x1 + 1"], "x\nn: 1", "  x1 + 1\n", 1),
        (["--polys", f"{X16} + 1"], "x\nn: 1", "  x1 + 1\n", 1),
        (["--polys", "x1*x1 + x1"], "x\nn: 1", "  x1^2 + x1\n", 2),
        (["--polys", "x1*x1*y2 + y2*y2, x2*x2"], "x,y\nn: 2", "  x1*y2 + y2\n  x2\n", 6),
        (
            ["--polys", "x1*x1 + x1", "--order", "y,x", "--n", "1"],
            "y,x\nn: 1", "  y1^2 + y1\n  x1^2 + x1\n", 4,
        ),
    ],
)
def test_groebner_repeated_variables(capsys, argv, header, basis, count):
    # a repeated variable is idempotent: x1*x1 is x1, so x1*x1 + x1 is zero
    code, out, _ = run(["groebner", *argv], capsys)
    assert code == 0
    assert out == f"order: {header}\nreduced basis:\n{basis}standard monomials: {count}\n"


def test_groebner_drops_generators_that_cancel_to_zero(capsys):
    code, empty, _ = run(["groebner", "--polys", "", "--n", "1"], capsys)
    assert code == 0
    for polys in ("x1 + x1", "x1 + x1, 1 + 1"):
        code, out, err = run(["groebner", "--polys", polys, "--n", "1"], capsys)
        assert (code, out) == (0, empty), err
    code, out, _ = run(["groebner", "--polys", "x1 + x1, x1 + 1", "--n", "1"], capsys)
    assert code == 0 and "  x1 + 1\n" in out


def test_groebner_explicit_order_and_file(tmp_path, capsys):
    path = tmp_path / "polys.txt"
    path.write_text("x1*y1 + y1\ny1*y2\n", encoding="utf-8")
    code, out, _ = run(["groebner", "--polys", str(path), "--order", "y,x"], capsys)
    assert code == 0
    assert out.startswith("order: y,x\nn: 2\n")


def test_groebner_errors(tmp_path, capsys):
    code, _, err = run(["groebner", "--polys", ""], capsys)
    assert code == 2 and "pass --n" in err
    code, _, err = run(["groebner", "--polys", "x1 +"], capsys)
    assert code == 2
    code, _, err = run(["groebner", "--polys", "x1", "--n", "0"], capsys)
    assert code == 2
    code, _, err = run(["groebner", "--polys", "y1", "--order", "x"], capsys)
    assert code == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"x1 + \xff\xfe")
    code, out, err = run(["groebner", "--polys", str(binary)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize("polys", ["x100000", "x1000000"])
def test_groebner_variable_budget(capsys, polys):
    code, out, err = run(["groebner", "--polys", polys], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "over the budget of 24" in err


def test_groebner_variable_budget_env(capsys, monkeypatch):
    code, out, _ = run(["groebner", "--polys", "x1*x30"], capsys)
    assert code == 2 and out == ""
    monkeypatch.setenv("QA_VAR_BUDGET", "40")
    code, out, _ = run(["groebner", "--polys", "x1*x30"], capsys)
    assert code == 0
    assert out == f"order: x\nn: 30\nreduced basis:\n  x1*x30\nstandard monomials: {3 * 2**28}\n"


def test_groebner_counts_past_the_recursion_limit(capsys, monkeypatch):
    monkeypatch.setenv("QA_VAR_BUDGET", "1500")
    code, out, _ = run(["groebner", "--polys", "x1", "--n", "1500"], capsys)
    assert code == 0
    assert out.endswith(f"standard monomials: {2**1499}\n")


def test_gen_threshold_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "gen.json")
    code, out, err = run(
        ["gen-threshold", "--n", "4", "--f", "1", "--kind", "dissemination",
         "--out", out_path], capsys
    )
    assert code == 0
    assert out == f"wrote {out_path}: 4 quorums, 4 fail-prone sets over n=4\n"
    assert "warning" not in err
    n, quorums, fail_prone = load_system_file(out_path)
    assert n == 4 and len(quorums) == 4 and len(fail_prone) == 4
    code, _, _ = run(["check", "dissemination", "--input", out_path], capsys)
    assert code == 0
    code, _, _ = run(["check", "availability", "--input", out_path], capsys)
    assert code == 0


def test_gen_threshold_warns_when_q3_fails(tmp_path, capsys):
    out_path = str(tmp_path / "gen.json")
    code, _, err = run(
        ["gen-threshold", "--n", "3", "--f", "1", "--kind", "dissemination",
         "--out", out_path], capsys
    )
    assert code == 0
    assert err == (
        "warning: three fail-prone sets cover all processes, so no dissemination system "
        "for this fail-prone system can satisfy both consistency and availability\n"
    )
    code, _, _ = run(["check", "dissemination", "--input", out_path], capsys)
    assert code == 0
    code, _, _ = run(["check", "availability", "--input", out_path], capsys)
    assert code == 1


def test_gen_threshold_warns_when_q4_fails(tmp_path, capsys):
    # four singletons cover n=4, so no masking system over them works
    code, _, err = run(
        ["gen-threshold", "--n", "4", "--f", "1", "--kind", "masking",
         "--out", str(tmp_path / "gen.json")], capsys
    )
    assert code == 0
    assert err == (
        "warning: four fail-prone sets cover all processes, so no masking system "
        "for this fail-prone system can satisfy both consistency and availability\n"
    )


def test_gen_threshold_empty_fail_prone(tmp_path, capsys):
    out_path = str(tmp_path / "gen.json")
    code, _, _ = run(
        ["gen-threshold", "--n", "3", "--f", "0", "--kind", "classical",
         "--out", out_path], capsys
    )
    assert code == 0
    doc = json.loads(Path(out_path).read_text(encoding="utf-8"))
    assert doc["quorums"] == [[1, 2], [1, 3], [2, 3]]
    assert doc["fail_prone"] == [[]]


def test_gen_threshold_no_system(tmp_path, capsys):
    code, _, err = run(
        ["gen-threshold", "--n", "3", "--f", "2", "--kind", "masking",
         "--out", str(tmp_path / "gen.json")], capsys
    )
    assert code == 1
    assert "no masking threshold system exists" in err


def test_gen_threshold_bad_arguments(tmp_path, capsys):
    code, _, _ = run(
        ["gen-threshold", "--n", "0", "--f", "0", "--kind", "classical",
         "--out", str(tmp_path / "gen.json")], capsys
    )
    assert code == 2
    code, _, _ = run(
        ["gen-threshold", "--n", "3", "--f", "-1", "--kind", "classical",
         "--out", str(tmp_path / "gen.json")], capsys
    )
    assert code == 2
    # an output path that cannot be opened is one error line, not a traceback
    code, out, err = run(
        ["gen-threshold", "--n", "3", "--f", "1", "--kind", "classical",
         "--out", str(tmp_path / "missing" / "gen.json")], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def call(argv, capsys):
    """Exit code, stdout and stderr of one main call, stderr timing lines dropped."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    kept = [line for line in err.splitlines(keepends=True) if not line.startswith("timing: ")]
    return code, out, "".join(kept)


GROEBNER = ["groebner", "--polys", "x1*y1 + y1, y1*y2"]


@pytest.mark.parametrize(
    "first, second",
    [
        (["check", "masking", "--input", "{input}", "--format", "json-like"],
         ["check", "masking", "--input", "{input}"]),
        ([*GROEBNER, "--order", "y,x"], GROEBNER),
        (["check", "consistency", "--input", "{input}", "--method", "oracle"],
         ["check", "consistency", "--input", "{input}"]),
        (["check", "nope", "--input", "{input}"], ["check", "q3", "--input", "{input}"]),
    ],
)
def test_reused_parser_leaks_no_state(tmp_path, capsys, first, second):
    path = write_input(tmp_path, TRIANGLE)
    calls = [[a.format(input=path) for a in argv] for argv in (first, second, first)]
    cli.build_parser.cache_clear()
    reused = [call(argv, capsys) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(argv, capsys))
    assert reused == fresh
    assert reused[0] != reused[1]


def test_parser_tree_is_built_once(tmp_path, capsys, monkeypatch):
    path = write_input(tmp_path, TRIANGLE)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert call(["check", "consistency", "--input", path], capsys)[0] == 0
        assert call(GROEBNER, capsys)[0] == 0
    # the root parser and its three subcommands
    assert len(built) == 4


def fresh_python(code):
    """Stdout of code run by a new interpreter that imports this package."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_parser_is_not_built_at_import():
    code = (
        "import quorum_algebra.cli as cli; "
        "print(cli.build_parser.cache_info().currsize)"
    )
    assert fresh_python(code) == "0\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # against the modules loaded before the import, so site hooks do not count
    code = (
        "import sys; before = set(sys.modules); import quorum_algebra.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules).difference(before)))"
    )
    assert fresh_python(code) == "\n"


def help_text(argv, capsys):
    code, out, err = call([*argv, "--help"], capsys)
    assert (code, err) == (0, "")
    return out


def test_help_wraps_to_the_width_at_call_time(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    texts = {}
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        texts.setdefault(columns, set()).add(help_text(["check"], capsys))
    assert len(texts["40"]) == len(texts["200"]) == 1
    narrow, wide = texts["40"].pop(), texts["200"].pop()
    help_line = "report style (stable key order either way)"
    assert help_line in wide and help_line not in narrow
    assert len(narrow.splitlines()) > len(wide.splitlines())


@pytest.mark.parametrize("argv", [[], ["check"], ["groebner"], ["gen-threshold"]])
def test_help_from_the_reused_parser_matches_a_fresh_one(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    help_text(["groebner"], capsys)
    reused = help_text(argv, capsys)
    cli.build_parser.cache_clear()
    assert reused == help_text(argv, capsys)
