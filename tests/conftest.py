"""Shared builders for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

from nnmix.exactla import Matrix


def uab_rows(a, b):
    return [[a, a, b, b], [a, b, a, b], [b, a, b, a], [b, b, a, a]]


def uab_normalized(a, b) -> Matrix:
    return Matrix.exact(uab_rows(a, b)).scale(Fraction(1, 8 * (a + b)))


def rect_rows(a, b):
    a, b = Fraction(a), Fraction(b)
    return [[1 - a, 1 + a, 1 + a, 1 - a],
            [1 - b, 1 - b, 1 + b, 1 + b],
            [1 + a, 1 - a, 1 - a, 1 + a],
            [1 + b, 1 + b, 1 - b, 1 - b]]


# the planted boundary example: a strictly positive product of factors with
# the canonical stratum zero pattern
NICE_A = [[0, 1, 3], [1, 0, 4], [4, 4, 0], [4, 1, 2]]
NICE_B = [[0, 0, 2, 2], [3, 1, 0, 1], [1, 4, 1, 0]]
NICE_P = [[6, 13, 3, 1], [4, 16, 6, 2], [12, 4, 8, 12], [5, 9, 10, 9]]

CURVE_BASE = [[51, 9, 64, 9], [27, 63, 8, 8], [3, 34, 40, 31], [30, 25, 80, 35]]


@pytest.fixture(scope="session")
def seed0_reports():
    """``run_experiment`` run once per config in a session: acceptance
    criteria 9 and 10 and the golden EM records share their seed-0 runs."""
    from nnmix.harness import run_experiment
    reports = {}

    def report(cfg):
        if cfg not in reports:
            reports[cfg] = run_experiment(cfg)
        return reports[cfg]
    return report


@pytest.fixture(scope="session")
def u10() -> np.ndarray:
    return np.array(uab_rows(1, 0), dtype=float)


@pytest.fixture(scope="session")
def p1_orbit():
    from nnmix.families import uab_closed_form_mle
    return [M.to_numpy() for M in uab_closed_form_mle(1, 0).matrices]


def fractions_built(monkeypatch, call):
    """Run ``call()`` and count the Fractions it constructs, the results of
    Fraction arithmetic included.  Returns ``(count, result)``."""
    count = 0
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return real(cls, *args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        result = call()
    return count, result


def random_rational_matrix(rng, m, n, num_range=9, den_range=5):
    return Matrix.exact([[Fraction(int(rng.integers(0, num_range + 1)),
                                   int(rng.integers(1, den_range + 1)))
                          for _ in range(n)] for _ in range(m)])


@pytest.fixture(scope="session")
def symbolic_oracle():
    """One-time symbolic expansion of the degree-(6,3) chord bracket,
    composed with sympy's own cross products and determinant."""
    sympy = pytest.importorskip("sympy")
    a = [[sympy.Symbol(f"a{i}{k}") for k in range(3)] for i in range(4)]
    b = [[sympy.Symbol(f"b{k}{j}") for j in range(4)] for k in range(3)]
    rows = [sympy.Matrix(r) for r in a]
    cols = [sympy.Matrix([b[0][j], b[1][j], b[2][j]]) for j in range(4)]
    v = rows[0].cross(rows[1])
    p1 = v.cross(cols[0]).cross(rows[2])
    p2 = v.cross(cols[1]).cross(rows[3])
    expr = sympy.expand(sympy.Matrix.hstack(p1, p2, cols[3]).det())
    symbols = [s for row in a for s in row] + [s for row in b for s in row]
    return sympy, expr, symbols
