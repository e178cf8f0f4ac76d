"""Write perfbench/reference.json from the program as it stands.

    python3 perfbench/make_reference.py

The reference pins, for every check decision whose input does not depend on
the seed, the digest of its stdout and of its reduced basis and count. It
covers both threshold workloads and every n=3 decision cli-sweep can draw.
Regenerate it only for a change that is meant to alter reports or bases.
"""

from __future__ import annotations

import json
import sys

import run
import spans
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.import_package()
    inputs = run.OUT / "inputs" / "reference"
    decisions = [d for w in workloads.THRESHOLD_CASES for d in workloads.build(w, 0, inputs, mods["qa"])]
    writer = workloads.Writer(inputs)
    decisions += workloads.check_decisions(workloads.sweep_reference_family(), writer, mods["qa"])

    runner = run.Runner(mods, decisions, {}, run.HostSpeed())
    tracer = spans.Tracer()
    tracer.trace(mods)
    try:
        runner.run_pass(tracer)
    finally:
        tracer.untrace()
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    reference = {
        d.ref_key: {"stdout": run.digest(runner.stdout[d.id]), "cert": runner.certs[d.id]}
        for d in decisions
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} entries to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
