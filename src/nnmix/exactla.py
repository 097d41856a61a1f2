"""Dense linear algebra over exact rationals and double floats.

Everything downstream (membership certification, boundary classification,
the closed-form likelihood maximizers) ultimately reduces to sign tests on
determinants, so the primary backend is ``fractions.Fraction`` arithmetic
where a zero is a zero.  A float backend with tolerance-based rank decisions
is provided for data that originates from floating-point computations.

Matrices are immutable; all functions return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

EXACT = "exact"
FLOAT = "float"

#: Default relative tolerance for float-backend rank decisions (relative to
#: the largest singular value / pivot).
DEFAULT_RANK_TOL = 1e-9


class DimensionError(ValueError):
    """Matrix shape is empty, mismatched, or not square where required."""


class RankExcessError(ValueError):
    """A factorization was requested with fewer factors than the rank.

    ``rank`` is the rank the elimination found.
    """

    def __init__(self, rank: int, requested: int):
        super().__init__(rank, requested)
        self.rank = rank

    def __str__(self) -> str:
        return "matrix has rank {} > requested {}".format(*self.args)


def _coerce_exact(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # every float is exactly a dyadic rational; callers who want a
        # rounded promotion use Matrix.as_exact instead
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def _coerce_float(x) -> float:
    v = float(x)
    if not np.isfinite(v):
        raise ValueError(f"non-finite entry {x!r} on float backend")
    return v


@dataclass(frozen=True)
class Matrix:
    """An m-by-n dense matrix with a homogeneous scalar backend."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples
    backend: str

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionError(f"empty matrix shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionError("entry grid does not match declared shape")
        if self.backend not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {self.backend!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(tuple(_coerce_exact(x) for x in r) for r in rows)
        if not data:
            raise DimensionError("empty matrix")
        return Matrix(len(data), len(data[0]), data, EXACT)

    @staticmethod
    def from_floats(rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(tuple(_coerce_float(x) for x in r) for r in rows)
        if not data:
            raise DimensionError("empty matrix")
        return Matrix(len(data), len(data[0]), data, FLOAT)

    @staticmethod
    def zeros(m: int, n: int, backend: str = EXACT) -> "Matrix":
        zero = Fraction(0) if backend == EXACT else 0.0
        return Matrix(m, n, tuple(tuple(zero for _ in range(n)) for _ in range(m)), backend)

    @staticmethod
    def identity(n: int, backend: str = EXACT) -> "Matrix":
        one = Fraction(1) if backend == EXACT else 1.0
        zero = Fraction(0) if backend == EXACT else 0.0
        return Matrix(n, n, tuple(tuple(one if i == j else zero for j in range(n))
                                  for i in range(n)), backend)

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> Fraction | float:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)),
                      self.backend)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        if self.backend != other.backend:
            raise ValueError("backend mismatch in matrix product")
        ot = other.transpose().entries
        data = tuple(tuple(sum(a * b for a, b in zip(ra, cb)) for cb in ot)
                     for ra in self.entries)
        return Matrix(self.rows, other.cols, data, self.backend)

    def scale(self, c) -> "Matrix":
        c = _coerce_exact(c) if self.backend == EXACT else _coerce_float(c)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * x for x in r) for r in self.entries), self.backend)

    # -- conversions ----------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.entries], dtype=float)

    def as_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix.from_floats([[float(x) for x in r] for r in self.entries])

    def as_exact(self, max_denominator: int | None = None) -> "Matrix":
        """Promote to the exact backend.

        Float entries are rounded to rationals with the given denominator
        (default 10**12); this perturbs the matrix and should be reported by
        callers that rely on it.
        """
        if self.backend == EXACT:
            return self
        den = 10**12 if max_denominator is None else max_denominator
        data = [[Fraction(round(x * den), den) for x in r] for r in self.entries]
        return Matrix.exact(data)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for r in self.entries for x in r)

    def total(self):
        return sum(x for r in self.entries for x in r)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.backend})"


def from_numpy(arr: np.ndarray) -> Matrix:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise DimensionError("expected a 2-d array")
    return Matrix.from_floats(arr.tolist())


# -- elimination ------------------------------------------------------


def rref(M: Matrix, tol: float = DEFAULT_RANK_TOL) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Exact backend picks the first nonzero pivot in each column; the float
    backend picks the largest-magnitude pivot and treats values below
    ``tol * max|entry|`` as zero.  Columns are scanned left to right, which
    makes the resulting factorizations deterministic.
    """
    m, n = M.shape
    work = [list(r) for r in M.entries]
    exact = M.backend == EXACT
    if exact:
        def find_pivot(col, start):
            for i in range(start, m):
                if work[i][col] != 0:
                    return i
            return None
    else:
        scale = max((abs(x) for r in M.entries for x in r), default=0.0)
        cutoff = tol * scale if scale > 0 else 0.0

        def find_pivot(col, start):
            best, best_val = None, cutoff
            for i in range(start, m):
                v = abs(work[i][col])
                if v > best_val:
                    best, best_val = i, v
            return best

    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        p = find_pivot(c, r)
        if p is None:
            continue
        if p != r:
            work[p], work[r] = work[r], work[p]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i == r:
                continue
            f = work[i][c]
            if f == 0:
                continue
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    data = tuple(tuple(row) for row in work)
    return Matrix(m, n, data, M.backend), tuple(pivots)


def matrix_rank(M: Matrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Linear-algebra rank; exact elimination or SVD with relative tolerance."""
    if M.backend == EXACT:
        return len(rref(M)[1])
    sv = np.linalg.svd(M.to_numpy(), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def determinant(M: Matrix):
    """Determinant of a square matrix (exact on the rational backend)."""
    m, n = M.shape
    if m != n:
        raise DimensionError(f"determinant of non-square {m}x{n} matrix")
    if M.backend == FLOAT:
        return float(np.linalg.det(M.to_numpy()))
    work = [list(r) for r in M.entries]
    det = Fraction(1)
    for c in range(n):
        p = None
        for i in range(c, n):
            if work[i][c] != 0:
                p = i
                break
        if p is None:
            return Fraction(0)
        if p != c:
            work[p], work[c] = work[c], work[p]
            det = -det
        pv = work[c][c]
        det *= pv
        inv = 1 / pv
        for i in range(c + 1, n):
            f = work[i][c] * inv
            if f == 0:
                continue
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def rank_factorize(P: Matrix, r: int, tol: float = DEFAULT_RANK_TOL) -> tuple[Matrix, Matrix]:
    """Factor ``P = A @ B`` with ``A`` m-by-r and ``B`` r-by-n.

    ``A`` consists of the pivot columns of ``P`` located by RREF and ``B`` of
    the RREF coefficient rows, padded with zero columns/rows when the rank
    falls short of ``r``.  The first rank(P) rows of ``B`` are the nonzero
    RREF rows (each holds a pivot 1) and the rest are zero, so the rank is
    ``B``'s count of nonzero rows; a rank above ``r`` raises
    :class:`RankExcessError` carrying it.  On floats the rank is the number
    of pivots above the ``tol`` cutoff of :func:`rref`.  On the exact backend
    the product reproduces ``P`` exactly; on floats it is accurate to the
    elimination's conditioning.
    """
    m, n = P.shape
    R, pivots = rref(P, tol)
    rank = len(pivots)
    if rank > r:
        raise RankExcessError(rank, r)
    zero = Fraction(0) if P.backend == EXACT else 0.0
    a_rows = []
    for i in range(m):
        row = [P.entries[i][c] for c in pivots] + [zero] * (r - rank)
        a_rows.append(row)
    b_rows = [list(R.entries[k]) for k in range(rank)]
    b_rows += [[zero] * n for _ in range(r - rank)]
    A = Matrix(m, r, tuple(tuple(x) for x in a_rows), P.backend)
    B = Matrix(r, n, tuple(tuple(x) for x in b_rows), P.backend)
    return A, B


# -- shared text format ------------------------------------------------


def parse_scalar(token: str):
    """Parse one entry: 'p/q' and integers are exact, decimals are float."""
    token = token.strip()
    if "/" in token:
        return Fraction(token)
    if any(ch in token for ch in ".eE") and not token.lstrip("+-").isdigit():
        return float(token)
    return Fraction(int(token))


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def parse_matrix(text: str) -> Matrix:
    """Parse the shared text format: one row per line, comma-separated.

    The file is exact when every entry is an integer or a ``p/q`` fraction;
    any decimal or scientific-notation entry makes the whole matrix float.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([parse_scalar(tok) for tok in line.split(",")])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"matrix parse error on line {lineno}: {exc}") from exc
    if not rows:
        raise DimensionError("no rows in matrix text")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"matrix parse error on line {lineno}: ragged row")
    if any(isinstance(x, float) for row in rows for x in row):
        return Matrix.from_floats([[float(x) for x in row] for row in rows])
    return Matrix.exact(rows)


def format_matrix(M: Matrix) -> str:
    return "\n".join(",".join(format_scalar(x) for x in row) for row in M.entries) + "\n"
