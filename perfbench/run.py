"""Benchmark of the `qa` command line, driven in-process through `cli.main`.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root. One process, no threads: the package is
imported from `src/`, the workload's inputs are written under
`perfbench/out/`, and then whole passes over the workload's decisions repeat
until `--seconds` have gone by. Every decision is checked: its exit code
against the expected verdict, its stdout against the first pass and the
committed reference, and in the traced run its reduced basis against the
reference digest. End-to-end times are scaled to a reference host speed
by probes around the timed work (see `HostSpeed`). The last stdout line is
the JSON result; with `--trace 0` it holds the end-to-end metrics, with
`--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
PACKAGE = "quorum_algebra"
MIN_SETUPS = 5  # set-ups per run at least; setup_s is their median

# The shared host runs the same code up to a third slower for tens of
# seconds at a time, in wall and CPU time alike. So every set-up, and every
# stretch of decisions no longer than PROBE_EVERY_S, is bracketed by probes
# that time a fixed pure-Python loop, and its time is scaled to the speed at
# which that loop takes PROBE_REF_S. The raw times are kept in the result file.
PROBE_REF_S = 0.004   # one probe loop on the reference host (2-vCPU VM, Python 3.11.7)
PROBE_REPEAT = 3      # loops per probe
PROBE_EVERY_S = 0.25  # between decisions, probe again once this much time has passed
_probe_rng = random.Random(7)
PROBE_FACTORS = [
    tuple(sorted({_probe_rng.randrange(16): 1 for _ in range(_probe_rng.randint(1, 4))}.items()))
    for _ in range(80)
]


def probe_loop() -> int:
    """Monomial products in the package's style (dicts, sorted tuples, a set),
    written out here so that no change to the package can speed up the probe.
    It tracks the host's slow spells more closely than a loop on small ints."""
    acc: set[tuple] = set()
    for a in PROBE_FACTORS[:40]:
        for b in PROBE_FACTORS[40:]:
            exps = dict(a)
            for v, e in b:
                exps[v] = exps.get(v, 0) + e
            acc.symmetric_difference_update((tuple(sorted(exps.items())),))
    return len(acc)


class HostSpeed:
    """Probes of the host's speed, taken between timed work."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -float("inf")

    def probe(self) -> list[float]:
        """Time the probe loop PROBE_REPEAT times; returns those times."""
        clock = time.perf_counter
        for _ in range(PROBE_REPEAT):
            t0 = clock()
            probe_loop()
            self.samples.append(clock() - t0)
        self.last = clock()
        return self.samples[-PROBE_REPEAT:]

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_EVERY_S


def scale(before: list[float], after: list[float]) -> float:
    """Factor that turns a time measured between two probes into a reference-host time."""
    return PROBE_REF_S / statistics.median(before + after)


def import_package() -> dict:
    """Import the package afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in ("cli", "checkers", "groebner", "algebra")}
    mods["qa"] = importlib.import_module(PACKAGE)
    return mods


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def certificate_text(certs: list, format_polynomial) -> str:
    """Formatted reduced bases and standard-monomial counts, as `qa groebner` prints them."""
    lines = []
    for cert in certs:
        lines += [format_polynomial(g, cert.order) for g in cert.basis]
        lines.append(f"standard monomials: {cert.sm_count}")
    return "\n".join(lines)


def groebner_stdout_certificate(stdout: str) -> tuple[str, int | None]:
    """The certificate text and the count a `qa groebner` report printed."""
    lines = stdout.splitlines()
    basis = [line[2:] for line in lines if line.startswith("  ")]
    counts = [line for line in lines if line.startswith("standard monomials: ")]
    if len(counts) != 1:
        return "", None
    return "\n".join(basis + counts), int(counts[0].split(": ")[1])


class Runner:
    """Runs passes over the decisions and checks every answer."""

    def __init__(self, mods: dict, decisions: list, reference: dict, speed: HostSpeed):
        self.mods = mods
        self.speed = speed
        self.decisions = decisions
        self.reference = reference
        self.stdout: dict[str, str] = {}
        self.certs: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer: spans.Tracer | None = None) -> tuple[float, list[float], float]:
        """One pass. Returns its time and its per-decision latencies, both
        scaled to the reference host, and its raw time. A pass's time is the
        sum of its decisions' latencies."""
        call = self.mods["cli"].main
        if tracer is not None:
            call = tracer.wrap("cli", call)
            first_cert = len(tracer.certificates)
        results, latencies, pending = [], [], []
        raw = 0.0
        gc.collect()
        clock = time.perf_counter
        before = self.speed.probe()
        for k, d in enumerate(self.decisions):
            if tracer is not None:
                tracer.decision = d.id
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call(list(d.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed decision, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            pending.append(clock() - t0)
            results.append((d, code, out.getvalue()))
            if self.speed.due() or k == len(self.decisions) - 1:
                after = self.speed.probe()
                latencies += [t * scale(before, after) for t in pending]
                raw += sum(pending)
                pending, before = [], after

        certs: dict[str, list] = {}
        if tracer is not None:
            for decision, cert in tracer.certificates[first_cert:]:
                certs.setdefault(decision, []).append(cert)
        for d, code, stdout in results:
            self.attempted += 1
            problem = self.check(d, code, stdout, certs.get(d.id, []) if tracer else None)
            if problem:
                self.failures.append(f"{d.id}: {problem}")
        return sum(latencies), latencies, raw

    def check(self, d, code, stdout: str, certs: list | None) -> str | None:
        if code != d.expect_exit:
            return f"exit {code!r}, expected {d.expect_exit}"
        if stdout != self.stdout.setdefault(d.id, stdout):
            return "stdout differs from the first pass"
        ref = self.reference.get(d.ref_key)
        if ref is not None and digest(stdout) != ref["stdout"]:
            return "stdout differs from the reference"
        if d.expect_sm is not None:
            printed_text, printed_sm = groebner_stdout_certificate(stdout)
            if printed_sm != d.expect_sm:
                return f"printed {printed_sm} standard monomials, variety has {d.expect_sm}"
        if certs is None:
            return None
        if len(certs) != 1:
            return f"{len(certs)} certificates, expected 1"
        text = certificate_text(certs, self.mods["algebra"].format_polynomial)
        if ref is not None and digest(text) != ref["cert"]:
            return "reduced basis differs from the reference"
        if d.expect_sm is not None and text != printed_text:
            return "traced basis differs from the printed one"
        if digest(text) != self.certs.setdefault(d.id, digest(text)):
            return "reduced basis differs from the first traced pass"
        return None


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Per-key median that is one of the samples, so counts stay whole."""
    return {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "loadavg": os.getloadavg(),
    }
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package source {SRC / PACKAGE} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    inputs = OUT / "inputs" / f"{args.workload}-seed{args.seed}"

    speed = HostSpeed()
    setup_times: list[float] = []
    raw_setup_times: list[float] = []

    def set_up() -> tuple[dict, list]:
        before = speed.probe()
        t0 = time.perf_counter()
        mods = import_package()
        decisions = workloads.build(args.workload, args.seed, inputs, mods["qa"])
        raw_setup_times.append(time.perf_counter() - t0)
        setup_times.append(raw_setup_times[-1] * scale(before, speed.probe()))
        return mods, decisions

    mods, decisions = set_up()
    runner = Runner(mods, decisions, reference, speed)

    walls, raw_walls, traced_walls, layers = [], [], [], []
    latencies: list[list[float]] = [[] for _ in decisions]  # per decision, one per pass
    tracer = spans.Tracer()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, lat, raw = runner.run_pass()
        walls.append(wall)
        raw_walls.append(raw)
        for samples, t in zip(latencies, lat):
            samples.append(t)
        if args.trace:
            mark = len(tracer.spans)
            tracer.trace(mods)
            try:
                wall, _, _ = runner.run_pass(tracer)
            finally:
                tracer.untrace()
            traced_walls.append(wall)
            layers.append(spans.layer_metrics(tracer.spans, mark))
        # Set up again after every round: setup_s then samples the shared
        # host over the whole run, not only its first second. The runner
        # keeps the modules and decisions of the first set-up.
        set_up()
        # stop before a round that would end past the measuring time
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    while len(setup_times) < MIN_SETUPS:
        set_up()

    # A decision's latency is its median over the run's passes; the
    # percentiles are taken over decisions, so one slow moment of the host
    # moves a decision's sample only if it hits most passes.
    decision_times = [statistics.median(samples) for samples in latencies]
    failed = len(runner.failures)
    if args.trace:
        invariants = ("groebner.basis_len", "groebner.basis_terms", "groebner.sm_count")
        for key in invariants:
            if len({m[key] for m in layers}) != 1:
                runner.failures.append(f"{key} differs between traced passes")
                failed += 1
        values = median_metrics(layers)
        values["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        units = spans.UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "decide_p50_s": statistics.median(decision_times),
            "decide_p90_s": statistics.quantiles(decision_times, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (runner.attempted - failed) / runner.attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "decide_p50_s": "s", "decide_p90_s": "s",
                 "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    meta.update(
        decisions=len(decisions), passes=len(walls), traced_passes=len(traced_walls),
        latency_samples=len(decision_times), decision_times=decision_times, setup_times=setup_times, pass_walls=walls,
        traced_pass_walls=traced_walls, raw_setup_times=raw_setup_times, raw_pass_walls=raw_walls,
        probe_ref_s=PROBE_REF_S, probe_samples=speed.samples, failures=runner.failures[:50],
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": {k: meta[k] for k in (
        "workload", "seed", "nproc", "python", "loadavg", "decisions", "passes",
        "traced_passes", "latency_samples")}}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
