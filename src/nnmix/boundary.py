"""Topological-boundary classification and algebraic-boundary sampling.

A member P of the nonnegative-rank-3 set lies on its topological boundary
exactly when it has a zero entry, or it has rank 3 and every witness tuple
passing the membership sign conditions has some chord product
(6,3)-bracket * swapped-(6,3)-bracket equal to zero: every nested triangle
is forced to touch the inner polygon.

The Zariski closure of that boundary is a union of components parametrized
by factorizations with structured zero patterns: besides the mn coordinate
hyperplanes there are 36*C(m,3)*C(n,4) components where the left factor has
three zeros in distinct rows and columns and the right factor four zeros in
three rows and distinct columns, and 36*C(m,4)*C(n,3) transposed ones.
Sampling positive entries into such a pattern produces matrices that are
members by construction but only rarely topological-boundary points, which
is the discrepancy the sampling experiment quantifies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm
from operator import mul
from typing import TYPE_CHECKING

from .exactla import EXACT, Matrix
from .rank3cert import DomainError, WitnessRecord, all_witnesses, _prepare

if TYPE_CHECKING:  # numpy appears in annotations only; the caller's rng brings it
    import numpy as np

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside_model"


@dataclass
class BoundaryClassification:
    status: str  # interior | boundary | outside_model
    reason: str | None  # zero_entry | touching_witnesses | not_member | None
    rank: int
    touching: list[WitnessRecord] = field(default_factory=list)
    witnesses: int = 0

    def __bool__(self) -> bool:
        return self.status == BOUNDARY

    def as_dict(self) -> dict:
        return {"schema": "1", "status": self.status, "reason": self.reason,
                "rank": self.rank, "witnesses": self.witnesses,
                "touching": [{"witness": rec.witness.as_dict(), "triples": list(rec.touches)}
                             for rec in self.touching]}


def boundary_test(P) -> BoundaryClassification:
    """Classify a nonnegative rational matrix against the topological boundary.

    Verdicts are decided exactly, so the input must be on the rational
    backend (promote floats explicitly and treat the answer as a statement
    about the perturbed matrix).  A non-member is ``outside_model``; a member
    with a zero entry is ``boundary``; a strictly positive member of rank
    below 3 is ``interior``; a strictly positive rank-3 member is ``boundary``
    iff every witness carries at least one exactly-zero chord product.
    P's entries are read once, as their signs (``Matrix.signs``).
    """
    P = _prepare(P)
    if P.backend != EXACT:
        raise DomainError("boundary_test requires the rational backend; "
                          "promote float matrices explicitly")
    if not P.is_nonnegative():
        raise DomainError("boundary_test requires a nonnegative matrix")
    decision, records = all_witnesses(P)
    if not decision:
        return BoundaryClassification(OUTSIDE, "not_member", decision.rank)
    if not all(map(all, P.signs)):  # a zero entry
        return BoundaryClassification(BOUNDARY, "zero_entry", decision.rank,
                                      witnesses=len(records))
    if decision.rank != 3:
        return BoundaryClassification(INTERIOR, None, decision.rank)
    if records and all(rec.touches for rec in records):
        return BoundaryClassification(BOUNDARY, "touching_witnesses", 3,
                                      touching=list(records), witnesses=len(records))
    return BoundaryClassification(INTERIOR, None, 3, witnesses=len(records))


@dataclass(frozen=True)
class ComponentCount:
    m: int
    n: int
    total: int
    zero_strata: int
    kind_a: int
    kind_b: int
    dimension: int

    def as_dict(self) -> dict:
        return {"schema": "1", "m": self.m, "n": self.n, "total": self.total,
                "split": [self.zero_strata, self.kind_a, self.kind_b],
                "dimension": self.dimension}


def component_count(m: int, n: int) -> ComponentCount:
    """Number of irreducible components of the algebraic boundary.

    Closed form mn + m(m-1)(m-2)(m+n-6)n(n-1)(n-2)/4, which splits as the mn
    coordinate strata plus 36*C(m,3)*C(n,4) + 36*C(m,4)*C(n,3) zero-pattern
    strata, each of dimension 3m+3n-11 (projectively).
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    quartic = m * (m - 1) * (m - 2) * (m + n - 6) * n * (n - 1) * (n - 2)
    if quartic % 4 != 0:
        raise ArithmeticError("component formula must be integral")
    total = m * n + quartic // 4
    return ComponentCount(m=m, n=n, total=total, zero_strata=m * n,
                          kind_a=36 * comb(m, 3) * comb(n, 4),
                          kind_b=36 * comb(m, 4) * comb(n, 3),
                          dimension=3 * m + 3 * n - 11)


@dataclass(frozen=True)
class ZeroPattern:
    """Prescribed zero positions of an m-by-3 and a 3-by-n factor.

    Kind "a": the left factor has three zeros in distinct rows and columns
    and the right factor four zeros in three rows and distinct columns
    (one row holds two of them).  Kind "b" is the transpose pattern.
    Patterns are normalized against simultaneous column/row permutations of
    the factors: left-factor zeros are assigned to columns in increasing row
    order, and a doubled column comes first.
    """

    kind: str
    m: int
    n: int
    A_zeros: tuple  # (row, col) in the m-by-3 factor
    B_zeros: tuple  # (row, col) in the 3-by-n factor

    def validate(self):
        if self.kind not in ("a", "b"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        for name, zeros, rows, cols in (("A", self.A_zeros, self.m, 3),
                                        ("B", self.B_zeros, 3, self.n)):
            outside = [z for z in zeros if not (0 <= z[0] < rows and 0 <= z[1] < cols)]
            if outside:
                needs = "m >= 3 and n >= 4" if self.kind == "a" else "m >= 4 and n >= 3"
                raise ValueError(f"zeros {outside} fall outside the {rows}-by-{cols} "
                                 f"factor {name}; kind {self.kind} needs {needs}")
        a_rows, a_cols = [r for r, _ in self.A_zeros], [c for _, c in self.A_zeros]
        b_rows, b_cols = [r for r, _ in self.B_zeros], [c for _, c in self.B_zeros]
        if self.kind == "a":
            ok = (len(self.A_zeros) == 3 and len(set(a_rows)) == 3
                  and sorted(a_cols) == [0, 1, 2]
                  and len(self.B_zeros) == 4 and len(set(b_cols)) == 4
                  and len(set(b_rows)) == 3)
        else:
            ok = (len(self.A_zeros) == 4 and len(set(a_rows)) == 4
                  and len(set(a_cols)) == 3
                  and len(self.B_zeros) == 3 and len(set(b_rows)) == 3
                  and len(set(b_cols)) == 3)
        if not ok:
            raise ValueError(f"invalid kind-{self.kind} zero pattern")


@functools.cache
def canonical_pattern(m: int = 4, n: int = 4) -> ZeroPattern:
    """The kind-(a) stratum pattern the experiments use, built once per shape."""
    pat = ZeroPattern("a", m, n, ((0, 0), (1, 1), (2, 2)),
                      ((0, 0), (0, 1), (1, 2), (2, 3)))
    pat.validate()
    return pat


@functools.lru_cache(maxsize=64)
def _free_slots(pattern: ZeroPattern) -> tuple[tuple, tuple]:
    """The free positions of A and B, row-major; validates each pattern once."""
    pattern.validate()
    a_zero, b_zero = set(pattern.A_zeros), set(pattern.B_zeros)
    return (tuple((i, k) not in a_zero for i in range(pattern.m) for k in range(3)),
            tuple((k, j) not in b_zero for k in range(3) for j in range(pattern.n)))


def enumerate_zero_patterns(m: int, n: int) -> list[ZeroPattern]:
    """All normalized boundary-stratum zero patterns of both kinds.

    Yields 36*C(m,3)*C(n,4) patterns of kind (a) and 36*C(m,4)*C(n,3)
    of kind (b); kinds whose dimensions are too small contribute nothing.
    """
    patterns: list[ZeroPattern] = []
    # kind (a): rows r1<r2<r3 of A hold the zeros, assigned to columns 0,1,2;
    # one row of B holds two zeros, the other rows one each in fresh columns.
    for rows in combinations(range(m), 3):
        a_zeros = tuple((r, k) for k, r in enumerate(rows))
        for k0 in range(3):
            for c_pair in combinations(range(n), 2):
                rest_rows = [k for k in range(3) if k != k0]
                rest_cols = [c for c in range(n) if c not in c_pair]
                for cs in permutations(rest_cols, 2):
                    b_zeros = tuple(sorted(
                        [(k0, c_pair[0]), (k0, c_pair[1]),
                         (rest_rows[0], cs[0]), (rest_rows[1], cs[1])]))
                    pat = ZeroPattern("a", m, n, a_zeros, b_zeros)
                    pat.validate()
                    patterns.append(pat)
    # kind (b): column 0 of A holds two zeros, columns 1 and 2 one each in
    # increasing row order; B has zeros in distinct rows and columns.
    for r_pair in combinations(range(m), 2):
        rest = [r for r in range(m) if r not in r_pair]
        for r34 in combinations(rest, 2):
            a_zeros = tuple(sorted([(r_pair[0], 0), (r_pair[1], 0),
                                    (r34[0], 1), (r34[1], 2)]))
            for cols in combinations(range(n), 3):
                for perm in permutations(range(3)):
                    b_zeros = tuple(sorted((perm[t], cols[t]) for t in range(3)))
                    pat = ZeroPattern("b", m, n, a_zeros, b_zeros)
                    pat.validate()
                    patterns.append(pat)
    return patterns


# -- entry distributions for stratum sampling ---------------------------
# ``draw(rng, count)``: integer numerators and denominators of ``count`` entries


def rational_dist(max_height: int = 100):
    """Positive rationals p/q with numerator and denominator uniform in
    1..max_height (ratio of bounded random integers)."""
    def draw(rng: np.random.Generator, count: int) -> tuple[list[int], list[int]]:
        pq = rng.integers(1, max_height + 1, size=2 * count).tolist()  # p, q, p, q, ...
        return pq[0::2], pq[1::2]
    return draw


def unit_rational_dist(max_den: int = 100):
    """Positive rationals in (0, 1]: denominator uniform in 1..max_den,
    numerator uniform in 1..denominator."""
    def draw(rng: np.random.Generator, count: int) -> tuple[list[int], list[int]]:
        nums, dens = [], []
        for _ in range(count):  # d, then p for that d
            dens.append(d := int(rng.integers(1, max_den + 1)))
            nums.append(int(rng.integers(1, d + 1)))
        return nums, dens
    return draw


def integer_dist(lo: int = 1, hi: int = 4):
    """Positive integers uniform in lo..hi (inclusive)."""
    if lo < 1:
        raise ValueError("entries must be positive")

    def draw(rng: np.random.Generator, count: int) -> tuple[list[int], list[int]]:
        return rng.integers(lo, hi + 1, size=count).tolist(), [1] * count
    return draw


def sample_integer_product(pattern: ZeroPattern, rng: np.random.Generator,
                           entry_dist=None) -> tuple[list, list, int, list]:
    """Sample one stratum point as the integer product of cleared factors.

    One ``entry_dist(rng, count)`` call draws the free entries of A, then
    of B, row-major, as ``(p, q)`` pairs; the zeros of the pattern are
    ``(0, 1)``.  Each factor is cleared over the lcm of its denominators,
    ``Ai = A * da`` and ``Bi = B * db``, and ``Pi = Ai @ Bi`` is formed on
    Python ints.  Returns ``(Pi, rows, db, B)``: ``Pi`` as lists of ints,
    the rows of ``Ai``, ``db``, and B's ``(p, q)`` pairs, row-major.

    ``Pi`` is ``da * db`` times ``A @ B``, a positive multiple for positive
    draws, so it has the rank, the signs, the witnesses and the touching
    chords of the normalized sample: a caller that only classifies the
    sample builds no ``Fraction``.
    """
    a_free, b_free = _free_slots(pattern)
    m, n = pattern.m, pattern.n
    drawn = zip(*(entry_dist or rational_dist())(rng, sum(a_free) + sum(b_free)))
    A = [next(drawn) if free else (0, 1) for free in a_free]  # (p, q) pairs
    B = [next(drawn) if free else (0, 1) for free in b_free]
    da, db = lcm(*(q for _, q in A)), lcm(*(q for _, q in B))
    Ai, Bi = [p * (da // q) for p, q in A], [p * (db // q) for p, q in B]
    rows = [Ai[3 * i:3 * i + 3] for i in range(m)]
    cols = list(zip(Bi[:n], Bi[n:2 * n], Bi[2 * n:]))
    return [[sum(map(mul, r, c)) for c in cols] for r in rows], rows, db, B


def sample_algebraic_boundary(pattern: ZeroPattern, rng: np.random.Generator,
                              entry_dist=None) -> tuple[Matrix, Matrix, Matrix]:
    """Sample one matrix from a boundary stratum.

    Free positions of the two factors receive positive draws, the product is
    normalized to total 1, and the scaled left factor is returned so that
    A @ B equals P exactly.  The result is a member by construction.

    The draws and the product are those of :func:`sample_integer_product`;
    with ``total = sum(Pi)`` the outputs are ``P = Pi / total`` and
    ``A = Ai * db / total``.  Only the returned entries are ``Fraction``s.
    """
    m, n = pattern.m, pattern.n
    Pi, rows, db, B = sample_integer_product(pattern, rng, entry_dist)
    total = sum(map(sum, Pi))
    if total == 0:
        raise ArithmeticError("sampled factors produced a zero matrix")
    P = tuple(tuple(Fraction(x, total) for x in row) for row in Pi)
    A_out = tuple(tuple(Fraction(x * db, total) for x in r) for r in rows)
    B_out = tuple(tuple(Fraction(p, q) for p, q in B[n * k:n * k + n]) for k in range(3))
    return Matrix(m, n, P, EXACT), Matrix(m, 3, A_out, EXACT), Matrix(3, n, B_out, EXACT)
