"""Write ``tests/data/golden_em_seed0.json``: the EM records of the seed-0
experiments that acceptance criteria 9 and 10 run.

    PYTHONPATH=src python tests/make_golden_em.py

Only this script writes the file.  ``tests/test_golden_em.py`` compares a
tree's records with it: the flags, restart counts and iteration counts
exactly, ``loglik`` within ``REL_TOL``, and a sha256 of the canonical
records bit for bit where the numpy version, the BLAS and the OpenBLAS
kernel picked at run time match the ones the file records.  On another
build ``monotonicity_slack``, a few ulps of rounding, is compared within
``SLACK_ULPS`` ulps of the trial's ``|loglik|``.  A change that moves a
record on purpose reruns this script and lists every changed record in
CHANGES.md.

Kernels round differently, and a rounding can move an EM stop by a round,
so the file also keeps the exactly-compared fields (``EXACT``) under
``kernels``, one entry per OpenBLAS kernel the script was run under; the
test compares them with the running kernel's entry, and a kernel with no
entry with the default ``experiments``.  Run under the file's build, the
script rewrites the default entry too; under another kernel it adds or
replaces that kernel's entry only:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/make_golden_em.py
"""

from __future__ import annotations

import ctypes
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
SLACK_ULPS = 16  # off the file's build: |slack - golden| <= SLACK_ULPS * ulp(|loglik|)
# the run-time kernel query of the OpenBLAS builds numpy ships or links
_CORENAME = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
             "openblas_get_corename64_", "openblas_get_corename")


def openblas_core() -> str:
    """The kernel OpenBLAS picked when it loaded, such as ``SkylakeX``.

    A DYNAMIC_ARCH build picks it by CPU (``OPENBLAS_CORETYPE`` overrides
    that), and kernels round differently, so one numpy and BLAS version
    can give different last bits.  "unknown" when no loaded library
    answers the query.
    """
    try:  # the shared objects mapped into this process
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1]})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _CORENAME:
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_char_p
                return query().decode()
    return "unknown"


def build() -> dict:
    """The numpy version, BLAS and kernel whose arithmetic the digests hold."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "openblas_core": openblas_core(),
            "machine": platform.machine()}


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
    here = build()
    experiments = {name: golden_entry(run_experiment(cfg).records)
                   for name, cfg in CONFIGS.items()}
    payload = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"build": here}
    if payload["build"] == here:
        payload["experiments"] = experiments
    kernels = payload.setdefault("kernels", {})
    if here["openblas_core"] != "unknown":  # an entry needs a kernel to be found by
        kernels[here["openblas_core"]] = {name: {key: entry[key] for key in EXACT}
                                          for name, entry in experiments.items()}
    payload["kernels"] = dict(sorted(kernels.items()))
    # a column per line
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(payload, indent=1))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
