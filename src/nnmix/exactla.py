"""Dense linear algebra over exact rationals and double floats.

Everything downstream (membership certification, boundary classification,
the closed-form likelihood maximizers) ultimately reduces to sign tests on
determinants, so the primary backend is exact rational arithmetic where a
zero is a zero.  An exact entry is an ``int`` where it is integral and a
``fractions.Fraction`` otherwise: parsing and :meth:`Matrix.exact` keep an
integer an ``int`` and make every other rational a ``Fraction``, and the
results computed here (products, RREF, factors) are ``Fraction``s.  The two
compare and hash equal by value (``6 == Fraction(12, 2)``), and an ``int``
has ``numerator`` and ``denominator`` too, so every reader takes both.
Inside, rows and columns are cleared to Python ints with
:func:`clear_denominators`: the elimination runs fraction-free, so no gcd is
taken inside it, and an entry of an exact product is one integer dot
product.  A float backend with tolerance-based rank decisions is provided
for data that originates from floating-point computations.

Matrices are immutable; all functions return new objects.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isfinite, lcm, prod
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

EXACT = "exact"
FLOAT = "float"

#: Default relative tolerance for float-backend rank decisions: a pivot at or
#: below ``DEFAULT_RANK_TOL * max|entry|`` counts as zero.
DEFAULT_RANK_TOL = 1e-9
#: Float entries promoted to the exact backend are rounded to this denominator.
PROMOTE_DENOMINATOR = 10**12


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


def _coerce_exact(x) -> int | Fraction:
    """An exact entry: an ``int`` unchanged, a ``Fraction`` for every other
    rational (``bool`` and numpy integers included)."""
    if type(x) is int:  # the common entry, before the costlier ABC check
        return x
    if isinstance(x, Fraction):
        return x
    # a numpy integer can exist only once some caller has loaded numpy
    numpy = sys.modules.get("numpy")
    if isinstance(x, int) or (numpy is not None and isinstance(x, numpy.integer)):
        return Fraction(int(x))
    if isinstance(x, (str, float)):
        # every float is exactly a dyadic rational; callers who want a
        # rounded promotion use Matrix.as_exact instead
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def _coerce_float(x) -> float:
    v = float(x)
    if not isfinite(v):
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
        data = tuple(tuple(map(_coerce_exact, r)) for r in rows)
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
    def of(rows: Iterable[Iterable]) -> "Matrix":
        """Exact when every entry is an int, a Fraction or a ``p/q`` string;
        float when any entry is a float or cannot be read as a rational.

        String entries are read by :func:`parse_scalar`, as in a matrix file,
        so a decimal string such as ``'0.5'`` is a float.
        """
        rows = [[parse_scalar(x) if isinstance(x, str) else x for x in r] for r in rows]
        if not any(isinstance(x, float) for r in rows for x in r):
            try:
                return Matrix.exact(rows)
            except TypeError:
                pass
        return Matrix.from_floats(rows)

    @staticmethod
    def zeros(m: int, n: int) -> "Matrix":
        return Matrix.exact([[0] * n for _ in range(m)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.exact([[int(i == j) for j in range(n)] for i in range(n)])

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> int | Fraction | float:
        i, j = ij
        return self.entries[i][j]

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
        if self.backend == EXACT:
            data = tuple(tuple(Fraction(*nd) for nd in row)
                         for row in _cleared_product(self, other))
        else:
            ot = tuple(zip(*other.entries))
            data = tuple(tuple(sum(map(mul, ra, cb)) for cb in ot) for ra in self.entries)
        return Matrix(self.rows, other.cols, data, self.backend)

    def scale(self, c) -> "Matrix":
        c = _coerce_exact(c) if self.backend == EXACT else _coerce_float(c)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * x for x in r) for r in self.entries), self.backend)

    # -- conversions ----------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        import numpy as np
        return np.array([[float(x) for x in r] for r in self.entries], dtype=float)

    def as_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix.from_floats(self.entries)

    def as_exact(self) -> "Matrix":
        """Promote to the exact backend.

        Float entries are rounded exactly (half to even) to the nearest
        rational with denominator ``PROMOTE_DENOMINATOR``, so every finite
        float promotes; this perturbs the matrix and should be reported by
        callers that rely on it.
        """
        if self.backend == EXACT:
            return self
        den = PROMOTE_DENOMINATOR
        data = [[Fraction(round(Fraction(x) * den), den) for x in r] for r in self.entries]
        return Matrix.exact(data)

    @cached_property
    def signs(self) -> tuple:
        """The sign of each entry, -1, 0 or 1; the entries are read once per
        matrix, an exact one by its numerator."""
        rows = ([x.numerator for x in r] for r in self.entries) if self.backend == EXACT \
            else self.entries
        return tuple(tuple((x > 0) - (x < 0) for x in r) for r in rows)

    def is_nonnegative(self) -> bool:
        return min(map(min, self.signs)) >= 0

    def total(self):
        return sum(x for r in self.entries for x in r)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.backend})"


def from_numpy(arr: np.ndarray) -> Matrix:
    import numpy as np
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise DimensionError("expected a 2-d array")
    return Matrix.from_floats(arr.tolist())


# -- elimination ------------------------------------------------------


def clear_denominators(values) -> tuple[Sequence[int], int]:
    """Integers ``d * x`` for each rational ``x`` and their positive multiplier ``d``.

    ``d`` is the least common multiple of the denominators; ``int``s come
    back as they are, with ``d = 1``.  A positive scaling changes no sign,
    no zero and no pivot column, which is what lets the elimination and the
    witness scan run on ints.
    """
    if all(type(x) is int for x in values):
        return values, 1
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _cleared_operands(A: Matrix, B: Matrix) -> tuple[list, list]:
    """A's rows and B's columns, each cleared once by :func:`clear_denominators`."""
    return ([clear_denominators(r) for r in A.entries],
            [clear_denominators(c) for c in zip(*B.entries)])


def _cleared_product(A: Matrix, B: Matrix) -> list[list[tuple[int, int]]]:
    """The exact ``A @ B`` as unreduced ``(numerator, denominator)`` pairs:
    one integer dot product per entry, over the product of two multipliers."""
    rows, cols = _cleared_operands(A, B)
    return [[(sum(map(mul, ra, cb)), da * db) for cb, db in cols] for ra, da in rows]


def _gauss_jordan(M: Matrix, tol: float = DEFAULT_RANK_TOL) -> tuple:
    """Gauss-Jordan elimination, the one elimination of the exact layer.

    Returns ``(rows, pivots, d, cleared, det)``: the reduced row echelon
    form is ``rows / d`` and ``pivots`` are its pivot columns.  ``cleared``
    holds the rows of ``M`` as ``(ints, multiplier)`` pairs from
    :func:`clear_denominators` (on floats the rows themselves, multiplier 1),
    and ``det`` is the determinant of the cleared rows when ``M`` is square
    and every column has a pivot (None on floats).  Columns are scanned left
    to right, which makes the resulting factorizations deterministic.

    The exact backend takes the first nonzero pivot in each column and runs
    fraction-free (Bareiss) Gauss-Jordan on the cleared rows, each divided
    by the gcd of its entries (``det`` multiplies them back): every
    intermediate is an integer minor, so no gcd is taken in the loop, and
    the rows end as ``d * RREF`` for one positive integer ``d``.  The float
    backend picks the largest-magnitude pivot, treats values at or below
    ``tol * max|entry|`` as zero, and returns ``d = 1.0``.
    """
    m, n = M.shape
    if M.backend == EXACT:
        cleared = [clear_denominators(r) for r in M.entries]
        # a scaled input is eliminated on the integers of the unscaled one
        gs = [gcd(*row) or 1 for row, _ in cleared]
        work = [[x // g for x in row] if g > 1 else row for (row, _), g in zip(cleared, gs)]
        pivots = []
        sign, prev = 1, 1
        for c in range(n):
            r = len(pivots)
            if r >= m:
                break
            p = next((i for i in range(r, m) if work[i][c]), None)
            if p is None:
                continue
            if p != r:
                work[p], work[r] = work[r], work[p]
                sign = -sign
            pivot_row = work[r]
            pv = pivot_row[c]
            for i in range(m):
                if i != r:
                    f = work[i][c]
                    work[i] = [(pv * x - f * y) // prev for x, y in zip(work[i], pivot_row)]
            prev = pv
            pivots.append(c)
        if prev < 0:
            work = [[-x for x in row] for row in work]
        return work, pivots, abs(prev), cleared, sign * prev * prod(gs)

    work = [list(r) for r in M.entries]
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
    return work, pivots, 1.0, [(row, 1) for row in M.entries], None


def rref(M: Matrix, tol: float = DEFAULT_RANK_TOL) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (see :func:`_gauss_jordan`)."""
    work, pivots, d, _, _ = _gauss_jordan(M, tol)
    if M.backend == EXACT:
        work = [[Fraction(x, d) for x in row] for row in work]
    return Matrix(M.rows, M.cols, tuple(map(tuple, work)), M.backend), tuple(pivots)


def matrix_rank(M: Matrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Linear-algebra rank: the pivot count of :func:`rref` on both backends."""
    return len(_gauss_jordan(M, tol)[1])


def determinant(M: Matrix):
    """Determinant of a square matrix (exact on the rational backend)."""
    m, n = M.shape
    if m != n:
        raise DimensionError(f"determinant of non-square {m}x{n} matrix")
    if M.backend == FLOAT:
        import numpy as np
        return float(np.linalg.det(M.to_numpy()))
    _, pivots, _, cleared, det = _gauss_jordan(M)
    return Fraction(det, prod(d for _, d in cleared)) if len(pivots) == n else Fraction(0)


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
    work, pivots, d, _, _ = _gauss_jordan(P, tol)
    rank = len(pivots)
    if rank > r:
        raise RankExcessError(rank, r)
    zero = Fraction(0) if P.backend == EXACT else 0.0
    if P.backend == EXACT:
        work = [[Fraction(x, d) for x in row] for row in work[:rank]]
    A = tuple(tuple([row[c] for c in pivots] + [zero] * (r - rank)) for row in P.entries)
    B = tuple(map(tuple, work[:rank])) + ((zero,) * n,) * (r - rank)
    return Matrix(m, r, A, P.backend), Matrix(r, n, B, P.backend)


# -- shared text format ------------------------------------------------


def parse_scalar(token: str):
    """Parse one entry: an integer is an ``int``, 'p/q' a ``Fraction`` and a
    decimal a float.

    Raises ValueError naming the token on anything else, a zero denominator
    and a non-finite float ('nan', 'inf', '1e400') included.
    """
    token = token.strip()
    if "/" in token:
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None
    if any(ch in token for ch in ".eE"):
        value = float(token)
    else:
        try:
            return int(token)
        except ValueError:
            value = float(token)  # 'nan' and 'inf'; anything else raises, naming the token
    if not isfinite(value):
        raise ValueError(f"non-finite entry {token!r}")
    return value


def format_scalar(x) -> str:
    """An exact entry as ``n`` or ``p/q`` (an ``int`` as ``Fraction(n)``), a
    float by its ``repr``."""
    if type(x) is int or isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def parse_matrix(text: str) -> Matrix:
    """Parse the shared text format: one row per line, comma-separated.

    The file is exact when every entry is an integer or a ``p/q`` fraction;
    any decimal or scientific-notation entry makes the whole matrix float.
    A line of integers is read in one pass; any other line token by token
    with :func:`parse_scalar`, whose errors name the line.
    """
    rows, exact = [], True
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        try:
            rows.append([int(tok) for tok in tokens])
            continue
        except ValueError:
            pass
        try:
            rows.append([parse_scalar(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"matrix parse error on line {lineno}: {exc}") from exc
        exact = exact and not any(isinstance(x, float) for x in rows[-1])
    if not rows:
        raise DimensionError("no rows in matrix text")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"matrix parse error on line {lineno}: ragged row")
    if exact:  # exact entries already: the exact-or-float rule of ``Matrix.of``
        return Matrix(len(rows), width, tuple(map(tuple, rows)), EXACT)
    return Matrix.from_floats(rows)


def format_matrix(M: Matrix) -> str:
    return "\n".join(",".join(format_scalar(x) for x in row) for row in M.entries) + "\n"
