"""Write ``tests/data/golden_verdicts.json``: every output of the rank-3
entry points on the inputs of ``verdict_corpus._chord_path_corpus()``.

    PYTHONPATH=src python tests/make_golden_verdicts.py

Only this script writes the file.  ``tests/test_golden_verdicts.py``
recomputes every input and compares it with the file.  Per input the file
keeps a few readable fields (verdict, rank, ``marginal`` flags, witness,
record counts, boundary status) and a sha256 of the canonical JSON of all
the outputs: the membership decision and failure log, every
``all_witnesses`` record with its touching triples, the ``boundary_test``
dict, the factors as ``p/q`` text, the ``membership_from_factors`` decision
where factors exist, and the type and message of every raised error.  Exact
outputs are integers, and float outputs come from Python's IEEE double
operations in the scalar loop, so the digests depend on neither numpy nor
BLAS.  A change that moves an output on purpose reruns this script and lists
every changed input in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from nnmix.boundary import boundary_test
from nnmix.rank3cert import (all_witnesses, membership_from_factors, nnrank3_membership,
                             nonneg_rank3_factorize)

from verdict_corpus import _chord_path_corpus

GOLDEN = Path(__file__).with_name("data") / "golden_verdicts.json"


def _matrix(M) -> list:
    """Entries as text: exact ones as p/q, floats in hex."""
    return [[x.hex() if isinstance(x, float) else str(x) for x in row] for row in M.entries]


def _decision(dec) -> dict:
    return {**dec.as_dict(), "failure_log": dec.failure_log}


def _guarded(call):
    """What ``call()`` returns, or the type and message of the package error
    it raises (``DomainError`` and ``NotInModelError`` are ``ValueError``s,
    the internal checks ``ArithmeticError``s); any other error propagates."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(P, factors) -> dict:
    """Every output of the entry points on one input, as JSON values."""
    def witnesses():
        decision, records = all_witnesses(P)
        return {"decision": _decision(decision),
                "records": [[rec.witness.as_dict(), rec.touches] for rec in records]}

    out = {"membership": _guarded(lambda: _decision(nnrank3_membership(P))),
           "all_witnesses": _guarded(witnesses),
           "boundary_test": _guarded(lambda: boundary_test(P).as_dict()),
           "factors": _guarded(lambda: [_matrix(M) for M in nonneg_rank3_factorize(P)])}
    if factors:
        out["from_factors"] = _guarded(lambda: _decision(membership_from_factors(*factors)))
    # tuples become lists, as they do in the file
    return json.loads(json.dumps(out))


def golden_entry(P, factors) -> dict:
    """What the file keeps of one input: its identity, the readable fields,
    and the digest of every output."""
    out = outputs(P, factors)
    member, full, status = out["membership"], out["all_witnesses"], out["boundary_test"]
    records = full.get("records", [])
    decisions = [member, full.get("decision", {}), out.get("from_factors", {})]
    return {"input": _digest([P.backend, _matrix(P), factors and [_matrix(F) for F in factors]]),
            "backend": P.backend, "shape": list(P.shape), "factors": bool(factors),
            "verdict": member.get("verdict", member.get("error")),
            "rank": member.get("rank"),
            "marginal": [dec["marginal"] for dec in decisions if "marginal" in dec],
            "witness": member.get("witness"),
            "records": len(records),
            "touching": sum(1 for _, touches in records if touches),
            "boundary": status.get("status", status.get("error")),
            "sha256": _digest(out)}


def main() -> int:
    entries = [golden_entry(P, factors) for P, factors in _chord_path_corpus()]
    GOLDEN.parent.mkdir(exist_ok=True)
    # an input per line
    GOLDEN.write_text('{"inputs": [\n' + ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
                      + "\n]}\n")
    print(f"wrote {len(entries)} inputs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
