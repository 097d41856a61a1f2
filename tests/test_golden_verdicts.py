"""Every output of the rank-3 entry points on the witness-scan corpus against
``tests/data/golden_verdicts.json`` (written by ``make_golden_verdicts.py``)."""

import json

from make_golden_verdicts import GOLDEN, golden_entry
from verdict_corpus import _chord_path_corpus, scan_corpus


def test_every_verdict_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text())["inputs"]
    corpus = _chord_path_corpus()
    assert len(corpus) == len(golden) == 184
    assert sum(P.backend == "exact" for P, _ in corpus) == 93
    assert sum(bool(factors) for _, factors in corpus) == 70
    moved = []
    for index, ((P, factors), want) in enumerate(zip(corpus, golden)):
        got = golden_entry(P, factors)
        if got != want:
            moved.append((index, {key: (want.get(key), value) for key, value in got.items()
                                  if value != want.get(key)}))
    assert not moved, (f"{len(moved)} inputs moved; (index, {{field: (golden, now)}}):", moved[:5])
    # scan_corpus() comes first, so every one of its inputs is pinned
    scan = list(scan_corpus())
    assert [P for P, _ in corpus[:len(scan)]] == [P for P, _ in scan]
