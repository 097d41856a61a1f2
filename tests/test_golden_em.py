"""The seed-0 EM records of acceptance criteria 9 and 10 against
``tests/data/golden_em_seed0.json`` (written by ``make_golden_em.py``)."""

import json
import math

import pytest

from make_golden_em import CLOSE, CONFIGS, EXACT, GOLDEN, REL_TOL, SLACK_ULPS, build, digest


@pytest.mark.slow
def test_em_records_match_the_golden_file(seed0_reports):
    golden = json.loads(GOLDEN.read_text())
    here = build()
    # the digest holds every bit of every record, which only the same
    # numpy, BLAS and OpenBLAS kernel reproduce
    bitwise = here == golden["build"] and "unknown" not in (here["blas"], here["openblas_core"])
    for name, cfg in CONFIGS.items():
        records = seed0_reports(cfg).records
        want = golden["experiments"][name]
        assert len(records) == len(want["loglik"]), name
        for key in EXACT:
            moved = [k for k, rec in enumerate(records) if rec[key] != want[key][k]]
            assert not moved, (name, key, moved)
        for key in CLOSE:
            if key == "monotonicity_slack" and not bitwise:
                # rounding residue, not a converging quantity: another
                # kernel moves it by ulps of the log-likelihood
                moved = [k for k, rec in enumerate(records)
                         if abs(rec[key] - want[key][k])
                         > SLACK_ULPS * math.ulp(abs(rec["loglik"]))]
            else:
                moved = [k for k, rec in enumerate(records)
                         if not math.isclose(rec[key], want[key][k], rel_tol=REL_TOL)]
            assert not moved, (name, key, moved)
        if bitwise:
            assert digest(records) == want["sha256"], name
    count = sum(len(exp["loglik"]) for exp in golden["experiments"].values())
    if bitwise:
        how = (f"fields and sha256 digests bit for bit ({here['numpy']}, {here['blas']}, "
               f"{here['openblas_core']})")
    else:
        how = (f"fields only, monotonicity_slack within {SLACK_ULPS} ulps of |loglik|: "
               f"this build {here} is not the file's {golden['build']}, so the sha256 "
               f"digests are not compared")
    print(f"\n[golden] {count} EM records match: {how}")
