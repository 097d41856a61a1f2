"""Write ``tests/data/golden_em_seed0.json``: the EM records of the seed-0
experiments that acceptance criteria 9 and 10 run.

    PYTHONPATH=src python tests/make_golden_em.py

Only this script writes the file.  ``tests/test_golden_em.py`` compares a
tree's records with it: the flags, restart counts and iteration counts
exactly, ``loglik`` and ``monotonicity_slack`` within ``REL_TOL``, and a
sha256 of the canonical records bit for bit where the numpy version and
BLAS match the ones the file records.  A change that moves a record on
purpose reruns this script and lists every changed record in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

from nnmix.harness import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).with_name("data") / "golden_em_seed0.json"
# the experiments of acceptance criteria 9 (table1) and 10 (planted)
CONFIGS = {
    "table1_4x4": ExperimentConfig(mode="table1", m=4, n=4, r=3, num_matrices=200,
                                   num_restarts=100, max_iter=500, seed=0),
    "table1_5x5": ExperimentConfig(mode="table1", m=5, n=5, r=3, num_matrices=200,
                                   num_restarts=100, max_iter=500, seed=0),
    "planted_T10": ExperimentConfig(mode="planted", m=4, n=4, r=3, T=10, num_matrices=200,
                                    num_restarts=100, max_iter=500, seed=0),
    "planted_T25": ExperimentConfig(mode="planted", m=4, n=4, r=3, T=25, num_matrices=200,
                                    num_restarts=100, max_iter=500, seed=0),
}
EXACT = ("flagged_boundary", "restarts_converged", "restarts_quarantined", "iterations",
         "polish_iterations")
CLOSE = ("loglik", "monotonicity_slack")
REL_TOL = 1e-8  # the benchmark's log-likelihood rule (perfbench/reference.json)


def build() -> dict:
    """The numpy version and BLAS whose arithmetic the digests hold."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def digest(records: list[dict]) -> str:
    """sha256 of the records as sorted-key JSON with every float in hex."""
    canonical = [{key: value.hex() if isinstance(value, float) else value
                  for key, value in rec.items()} for rec in records]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entry(records: list[dict]) -> dict:
    """What the file keeps of one experiment: a column per compared field."""
    entry = {key: [rec[key] for rec in records] for key in EXACT + CLOSE}
    entry["sha256"] = digest(records)
    return entry


def main() -> int:
    payload = {"build": build(),
               "experiments": {name: golden_entry(run_experiment(cfg).records)
                               for name, cfg in CONFIGS.items()}}
    # a column per line
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(payload, indent=1))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
