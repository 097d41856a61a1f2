"""Regenerate ``reference.json``: the first trials of each experiment workload
at the default seed, run through the public harness entry points.

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter verdicts, and say so in the
change log; a rewrite that keeps the mathematics must match it as it stands.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402,F401  (pins the BLAS/OpenMP threads, puts src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

TRIALS = {"table1_5x5": 24, "planted_T10": 24, "boundary_fraction": 500}


def main():
    payload = {}
    for name, count in TRIALS.items():
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, None)
        wl.reference = []
        trials = []
        with tracing.Tracer(timing=False) as tracer:
            for i in range(count):
                op = wl.op(i)
                tracer.begin_op(i)
                report = op.run()
                problems = op.check(report, tracer.captured)
                if problems:
                    raise SystemExit(f"{name} trial {i}: {problems}")
                trials.append(wl.reference_entry(report))
        flagged = sum(t["flagged_boundary"] for t in trials)
        payload[name] = {"seed": workloads.DEFAULT_SEED, "fraction": flagged / count,
                         "trials": trials}
        print(f"{name}: {count} trials, fraction {flagged / count}")
    lines = []
    for name, rec in payload.items():
        trials = ",\n".join("   " + json.dumps(t) for t in rec["trials"])
        lines.append(f' "{name}": {{"seed": {rec["seed"]}, "fraction": {rec["fraction"]},'
                     f' "trials": [\n{trials}]}}')
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
