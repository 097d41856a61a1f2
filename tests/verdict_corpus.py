"""The seeded inputs of the witness-scan tests: ``scan_corpus()`` and the
wider ``_chord_path_corpus()``.  ``tests/test_rank3cert.py`` runs them, and
``tests/make_golden_verdicts.py`` pins every output on them in
``tests/data/golden_verdicts.json``."""

import numpy as np

from nnmix.boundary import (enumerate_zero_patterns, integer_dist, rational_dist,
                            sample_algebraic_boundary)
from nnmix.exactla import Matrix

from conftest import uab_normalized


def scan_corpus():
    """Seeded (P, factors) pairs: integer rank-3 products at 4, 6, 8 and 12,
    U(100, b) for b = 20..59, and stratum samples of both pattern kinds with
    the factors they were drawn from (None for the others)."""
    rng = np.random.default_rng(29)
    for size, count in ((4, 6), (6, 4), (8, 3), (12, 2)):
        for _ in range(count):
            P = np.zeros((size, size), dtype=int)
            while np.linalg.matrix_rank(P) != 3:
                P = rng.integers(0, 10, size=(size, 3)) @ rng.integers(0, 10, size=(3, size))
            yield Matrix.exact(P.tolist()), None
    for b in range(20, 60):
        yield uab_normalized(100, b), None
    patterns = enumerate_zero_patterns(4, 4)
    for kind in ("a", "b"):
        of_kind = [p for p in patterns if p.kind == kind]
        for t in range(16):
            dist = integer_dist() if t % 2 else rational_dist()
            P, A, B = sample_algebraic_boundary(of_kind[t % len(of_kind)], rng, dist)
            yield P, (A, B)


def _big_product(rng, size: int):
    """A rank-3 product whose brackets pass the float range in lowest terms
    too: the left factor is A·10**200 + A' in Python ints, so a row's
    entries share no large factor, and its vertex brackets pass 10**400."""
    A, B = rng.integers(1, 10, (size, 3)).tolist(), rng.integers(0, 10, (3, size)).tolist()
    A = [[a * 10**200 + b for a, b in zip(row, rng.integers(1, 10, 3).tolist())] for row in A]
    return Matrix.exact([[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
                         for row in A])


def _chord_path_corpus():
    """``scan_corpus()``, seeded rank-3 products at 10, 12 and 16 with their
    factors, one 12x12 product scaled past 2**53 and one scaled by 10**200,
    each exact and (but the last) as floats, and a 12x12 product whose
    brackets pass the float range in lowest terms too, exact."""
    rng = np.random.default_rng(41)
    exact = list(scan_corpus())
    for size in (10, 12, 16):
        A, B = rng.integers(1, 10, (size, 3)), rng.integers(0, 10, (3, size))
        exact.append((Matrix.exact((A @ B).tolist()),
                      (Matrix.exact(A.tolist()), Matrix.exact(B.tolist()))))
    P = exact[-2][0]
    exact += [(P.scale(3**40), None), (P.scale(10**200), None)]
    floats = [(P.as_float(), factors and tuple(f.as_float() for f in factors))
              for P, factors in exact[:-1]]
    return exact + [(_big_product(rng, 12), None)] + floats
