"""Exact certification of nonnegative rank at most three.

A nonnegative m-by-n matrix P of rank 3 has a size-3 nonnegative
factorization exactly when a triangle can be nested between two polygons in
the projective plane: the inner polygon generated by the normalized columns
of P and the outer polygon cut out of the probability simplex by the column
span.  That nesting condition is equivalent to a quantifier-free system of
sign conditions on Grassmann-Cayley brackets built from any rank-3
factorization P = A @ B: rows of A act as lines, columns of B as points, and
meets/joins are 3-vector cross products.

A witness is an index tuple (i, j, i', j') satisfying four sign-condition
families:

1. the brackets det(a_i, a_j, a_k) share one sign over k (the intersection
   point of lines i and j is a vertex of the outer polygon),
2. the lines from that vertex through points i' and j' each support the
   inner polygon (two more bracket families share a sign),
3. the chord products built from the degree-(6,3) brackets are nonnegative
   (the inner polygon lies inside the resulting triangle).

The witnesses form one lazy stream: the tuples of this orientation in index
order, then those with the roles of A and B.T swapped.  Each entry point
reads only what it needs.  ``nnrank3_membership`` and
``membership_from_factors`` take the first record, ``all_witnesses`` takes
them all, and ``nonneg_rank3_factorize`` takes the first whose triangle
yields nonnegative factors.  All tests run in exact integer arithmetic on
the rational backend; the float backend replaces sign tests with a tolerance
band and flags marginal calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

# matrix_rank is not called here; the benchmark's tracer wraps it by this name
from .exactla import EXACT, Matrix, RankExcessError, matrix_rank, rank_factorize


class DomainError(ValueError):
    """Input matrix violates a domain precondition (e.g. negative entries)."""


class NotInModelError(ValueError):
    """A nonnegative factorization was requested for a matrix outside the set."""


class GeometryError(ValueError):
    """The nested-polygon geometry is undefined for this input."""


# -- bracket evaluators -------------------------------------------------
#
# These are generic over the scalar type (int, Fraction, float, or symbolic),
# so the same formulas serve the exact backend, the float backend, and
# symbolic expansion in tests.


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _det3(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _rows_of(A) -> list[tuple]:
    if isinstance(A, Matrix):
        return [tuple(r) for r in A.entries]
    return [tuple(r) for r in A]


def _cols_of(B) -> list[tuple]:
    if isinstance(B, Matrix):
        return [B.col(j) for j in range(B.cols)]
    rows = [tuple(r) for r in B]
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def bracket3(A, i: int, j: int, k: int):
    """det of rows i, j, k of A; zero iff the three lines are concurrent."""
    if len({i, j, k}) != 3:
        raise IndexError("bracket3 requires three distinct row indices")
    rows = _rows_of(A)
    return _det3(rows[i], rows[j], rows[k])


def meet_join(A, B, i: int, j: int, ip: int, kp: int):
    """Bracket testing whether lines i, j of A meet on the line through
    columns ip, kp of B: det(cross(a_i, a_j), b_ip, b_kp)."""
    rows = _rows_of(A)
    cols = _cols_of(B)
    return _det3(_cross(rows[i], rows[j]), cols[ip], cols[kp])


def six_three(A, B, i: int, j: int, k: int, l: int, ip: int, jp: int, kp: int):
    """Degree-(6,3) chord bracket, evaluated by composition.

    Builds the two points where the support lines from the vertex
    cross(a_i, a_j) through b_ip and b_jp meet the edge lines a_k and a_l,
    then brackets them against b_kp.  Never expanded into its 330 monomials.
    """
    rows = _rows_of(A)
    cols = _cols_of(B)
    v = _cross(rows[i], rows[j])
    p1 = _cross(_cross(v, cols[ip]), rows[k])
    p2 = _cross(_cross(v, cols[jp]), rows[l])
    return _det3(p1, p2, cols[kp])


# -- sign contexts ------------------------------------------------------


class _ExactSigns:
    """Decidable sign tests on integer-cleared data."""

    marginal = False

    @staticmethod
    def sign(value, kind: str) -> int:
        if value > 0:
            return 1
        if value < 0:
            return -1
        return 0

    @staticmethod
    def is_zero_vec(vec, kind: str) -> bool:
        return all(x == 0 for x in vec)


class _FloatSigns:
    """Banded sign tests: |v| below eps * scale^degree counts as zero.

    The scales are the largest line/point magnitudes, so each band is
    relative to the largest value the bracket of that degree can attain;
    values formed from unusually small rows or columns are classified
    conservatively (zero plus a marginal flag).
    """

    def __init__(self, line_scale: float, point_scale: float):
        ls = float(line_scale)
        ps = float(point_scale)
        eps = 1e-9  # the one relative band width
        self.bands = {
            "x2": eps * ls**2,        # cross of two lines
            "x21": eps * ls**2 * ps,  # cross of a vertex with a point
            "b3": eps * ls**3,
            "mj": eps * ls**2 * ps**2,
            "s63": eps * ls**6 * ps**3,
        }
        self.marginal = False

    def sign(self, value, kind: str) -> int:
        if abs(value) <= self.bands[kind]:
            if value != 0.0:
                self.marginal = True
            return 0
        return -1 if value < 0 else 1

    def is_zero_vec(self, vec, kind: str) -> bool:
        if all(abs(x) <= self.bands[kind] for x in vec):
            if any(x != 0.0 for x in vec):
                self.marginal = True
            return True
        return False


def _clear_vector(vec) -> tuple:
    """Scale a rational 3-vector by a positive constant to integer entries.

    Positive per-line / per-point scalings leave every sign family and every
    exact-zero test invariant, so the scan can run on machine-friendly ints.
    """
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(int(f * den) for f in fracs)


# -- witness scan -------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    i: int
    j: int
    iprime: int
    jprime: int
    swapped: bool

    def as_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "iprime": self.iprime,
                "jprime": self.jprime, "swapped": self.swapped}


@dataclass(frozen=True)
class WitnessRecord:
    witness: Witness
    touches: tuple  # (k, l, kprime) triples whose chord product is exactly zero


@dataclass
class MembershipDecision:
    verdict: str  # "in" | "out" | "rank_deficient_in"
    witness: Witness | None
    rank: int
    backend: str
    marginal: bool = False
    note: str | None = None
    failure_log: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.verdict in ("in", "rank_deficient_in")

    def as_dict(self) -> dict:
        return {
            "schema": "1",
            "verdict": self.verdict,
            "witness": self.witness.as_dict() if self.witness else None,
            "rank": self.rank,
            "backend": self.backend,
            "marginal": self.marginal,
            "note": self.note,
        }


def _one_sign(signs) -> bool:
    """Whether the nonzero signs agree; stops reading at the first that does not."""
    first = 0
    for s in signs:
        if s and not first:
            first = s
        elif s and s != first:
            return False
    return True


def _scan_orientation(lines, points, ctx, swapped, line_map, point_map, log):
    """Yield the witnesses of one orientation in index order, lazily.

    ``lines``/``points`` are 3-vectors; index maps translate back to row and
    column indices of the unstripped input.  Each record carries the chord
    triples (k, l, k') whose product vanished, which is what the boundary
    classifier consumes.  Rejected candidates are appended to ``log`` as the
    scan passes them.
    """
    M, N = len(lines), len(points)
    cross_cache: dict = {}
    supp_cache: dict = {}
    pt_cache: dict = {}

    def vertex(i, j):
        # None marks a degenerate pair (parallel edge lines: no vertex).
        key = (i, j)
        if key not in cross_cache:
            v = _cross(lines[i], lines[j])
            cross_cache[key] = None if ctx.is_zero_vec(v, "x2") else v
        return cross_cache[key]

    def supports(i, j, t):
        # The candidate support line through the vertex and point t must be a
        # genuine line (the point must not coincide with the vertex), and all
        # other points must sit on one side of it.
        key = (i, j, t)
        if key not in supp_cache:
            v = vertex(i, j)
            supp_cache[key] = (not ctx.is_zero_vec(_cross(v, points[t]), "x21")
                               and _one_sign(ctx.sign(_det3(v, points[t], points[kp]), "mj")
                                             for kp in range(N) if kp != t))
        return supp_cache[key]

    def tri_point(i, j, t, k):
        key = (i, j, t, k)
        if key not in pt_cache:
            pt_cache[key] = _cross(_cross(vertex(i, j), points[t]), lines[k])
        return pt_cache[key]

    def chord_touches(i, j, ip, jp):
        # The zero chord triples of a candidate, or None if a chord product
        # is negative (the inner polygon leaves the triangle).
        touches = []
        for k, l in itertools.combinations([k for k in range(M) if k not in (i, j)], 2):
            for kp in range(N):
                if kp in (ip, jp):
                    continue
                s1 = ctx.sign(_det3(tri_point(i, j, ip, k), tri_point(i, j, jp, l),
                                    points[kp]), "s63")
                s2 = ctx.sign(_det3(tri_point(i, j, ip, l), tri_point(i, j, jp, k),
                                    points[kp]), "s63")
                if s1 * s2 < 0:
                    return None
                if s1 == 0 or s2 == 0:
                    touches.append((line_map[k], line_map[l], point_map[kp]))
        return touches

    side = "cols" if swapped else "rows"
    for i in range(M):
        for j in range(i + 1, M):
            if vertex(i, j) is None:
                log.append(f"{side} ({line_map[i]},{line_map[j]}): edge lines are parallel")
                continue
            if not _one_sign(ctx.sign(_det3(lines[i], lines[j], lines[k]), "b3")
                             for k in range(M) if k not in (i, j)):
                log.append(f"{side} ({line_map[i]},{line_map[j]}): vertex sign family mixed")
                continue
            for ip in range(N):
                if not supports(i, j, ip):
                    log.append(f"candidate ({line_map[i]},{line_map[j]},{point_map[ip]},*): "
                               "support family mixed")
                    continue
                for jp in range(N):
                    if jp == ip or not supports(i, j, jp):
                        continue
                    touches = chord_touches(i, j, ip, jp)
                    if touches is None:
                        log.append(f"candidate ({line_map[i]},{line_map[j]},"
                                   f"{point_map[ip]},{point_map[jp]}): chord product negative")
                        continue
                    yield WitnessRecord(
                        Witness(line_map[i], line_map[j], point_map[ip], point_map[jp], swapped),
                        tuple(touches))


def _strip_zero_lines(P: Matrix, task: str) -> tuple[Matrix, list[int], list[int]]:
    """Refuse negative entries, then drop zero rows and columns of P.

    Returns the stripped matrix and the original indices it keeps; both
    lists are empty for the zero matrix.
    """
    if not P.is_nonnegative():
        raise DomainError(f"{task} requires a nonnegative matrix")
    rows = [i for i in range(P.rows) if any(x != 0 for x in P.row(i))]
    cols = [j for j in range(P.cols) if any(x != 0 for x in P.col(j))]
    if len(rows) == P.rows and len(cols) == P.cols:
        return P, rows, cols
    if not rows or not cols:
        return P, rows, cols  # all-zero matrix
    data = tuple(tuple(P.entries[i][j] for j in cols) for i in rows)
    return Matrix(len(rows), len(cols), data, P.backend), rows, cols


def _prepare(P) -> Matrix:
    if isinstance(P, Matrix):
        return P
    rows = [list(r) for r in P]
    # floats (including numpy float64) route to the float backend; only
    # integers, Fractions, and p/q strings are treated as exact
    if any(isinstance(x, float) for row in rows for x in row):
        return Matrix.from_floats(rows)
    try:
        return Matrix.exact(rows)
    except TypeError:
        return Matrix.from_floats(rows)


def _witness_stream(A: Matrix, B: Matrix, row_map, col_map):
    """The witnesses of P = A @ B as one lazy stream.

    Returns ``(records, log, ctx)``: an iterator over the unswapped
    orientation and then the swapped one, the failure log it fills as it
    advances, and the sign context whose ``marginal`` flag it raises.  A
    caller that stops early has scanned, logged and flagged only that far.
    """
    if A.backend == EXACT:
        lines = [_clear_vector(A.row(i)) for i in range(A.rows)]
        points = [_clear_vector(B.col(j)) for j in range(B.cols)]
        ctx = _ExactSigns()
    else:
        lines = [A.row(i) for i in range(A.rows)]
        points = [B.col(j) for j in range(B.cols)]
        lscale = max(abs(x) for v in lines for x in v)
        pscale = max(abs(x) for v in points for x in v)
        ctx = _FloatSigns(lscale, pscale)
    log: list[str] = []
    records = itertools.chain(
        _scan_orientation(lines, points, ctx, False, row_map, col_map, log),
        _scan_orientation(points, lines, ctx, True, col_map, row_map, log))
    return records, log, ctx


def _head(records) -> list:
    """The first witness of a stream, or none: what a membership verdict needs."""
    return list(itertools.islice(records, 1))


def _eliminate(P: Matrix):
    """The rank of P and, when it is at most 3, its padded rank-3 factors.

    One elimination gives both: a rank <= 3 is the count of nonzero rows of
    B, and a larger one comes with the error ``rank_factorize`` raises.
    """
    try:
        A, B = rank_factorize(P, 3)
    except RankExcessError as exc:
        return exc.rank, None
    return sum(1 for row in B.entries if any(row)), (A, B)


def _decide(P: Matrix, factors, row_map, col_map, take):
    """The membership ladder every entry point shares, on one elimination.

    Rank > 3 is ``out``, rank < 3 is ``rank_deficient_in``; otherwise the
    witness stream of ``factors`` (a rank-3 factorization of P, the one
    eliminated here when None) decides, and a matrix with no witness is
    ``in`` only when thin.  Returns the decision, what ``take`` read from
    the stream, and the eliminated factors (None for rank > 3).
    """
    rank, built = _eliminate(P)
    if rank > 3:
        return MembershipDecision("out", None, rank, P.backend,
                                  failure_log=[f"rank {rank} exceeds 3"]), [], None
    if rank < 3:
        return MembershipDecision("rank_deficient_in", None, rank, P.backend), [], built
    records, log, ctx = _witness_stream(*(factors or built), row_map, col_map)
    head = _head(records)
    found = take(itertools.chain(head, records))
    if head:
        dec = MembershipDecision("in", head[0].witness, rank, P.backend,
                                 marginal=ctx.marginal)
    elif min(P.rows, P.cols) <= 3:
        dec = MembershipDecision("in", None, rank, P.backend, marginal=ctx.marginal,
                                 note="thin matrix: nonnegative rank equals rank")
    else:
        dec = MembershipDecision("out", None, rank, P.backend, marginal=ctx.marginal,
                                 failure_log=log)
    return dec, found, built


def _decide_stripped(P, take, task: str):
    """``_decide`` on P with its zero rows and columns removed."""
    P = _prepare(P)
    stripped, row_map, col_map = _strip_zero_lines(P, task)
    if not row_map:
        return MembershipDecision("rank_deficient_in", None, 0, P.backend,
                                  note="zero matrix"), [], None
    return _decide(stripped, None, row_map, col_map, take)


def membership_from_factors(A, B) -> MembershipDecision:
    """Decide nonnegative rank <= 3 for P = A @ B from a given factorization.

    The verdict depends only on P, not on the factorization chosen; this
    entry point exists so callers with an explicit rank-3 factorization
    (sampled boundary strata, invariance tests) have the witnesses read on
    it; P is still eliminated once, for its rank.  It stops the scan at the
    first witness, as ``nnrank3_membership`` does.
    """
    A = _prepare(A)
    B = _prepare(B)
    P = A @ B
    if not P.is_nonnegative():
        raise DomainError("product has negative entries")
    return _decide(P, (A, B), list(range(A.rows)), list(range(B.cols)), _head)[0]


def nnrank3_membership(P) -> MembershipDecision:
    """Decide whether P has nonnegative rank at most 3.

    Exact inputs receive a decidable verdict; float inputs use banded sign
    tests and may come back flagged ``marginal``.  Matrices of rank < 3 are
    ``rank_deficient_in``, rank > 3 is ``out`` with the rank as certificate.
    Zero rows and columns are stripped first (they do not affect the
    verdict); reported witness indices refer to the original matrix.  The
    scan stops at the first witness, so ``marginal`` covers only the sign
    tests made up to it.
    """
    return _decide_stripped(P, _head, "membership test")[0]


def all_witnesses(P):
    """All witnesses (both orientations) with their zero-chord contacts.

    Returns ``(decision, records)`` where ``records`` is empty unless the
    matrix is a rank-3 member.  This is the enumeration the topological
    boundary test quantifies over; its first record is the witness
    ``nnrank3_membership`` reports.
    """
    return _decide_stripped(P, list, "witness enumeration")[:2]


# -- constructive nonnegative factorization -----------------------------


def _normalize_point(v, s):
    """Scale a homogeneous point to the affine chart sum(A @ y) = 1."""
    sigma = sum(si * vi for si, vi in zip(s, v))
    if sigma == 0:
        return None
    return tuple(vi / sigma for vi in v)


def _inv3(T):
    det = _det3(T[0], T[1], T[2])
    if det == 0:
        return None
    cof = [[(T[(r + 1) % 3][(c + 1) % 3] * T[(r + 2) % 3][(c + 2) % 3]
             - T[(r + 1) % 3][(c + 2) % 3] * T[(r + 2) % 3][(c + 1) % 3])
            for c in range(3)] for r in range(3)]
    # cof[r][c] is the (r,c) cofactor of the row-major T; inverse = adj/det
    return [[cof[c][r] / det for c in range(3)] for r in range(3)]


def _build_triangle(A: Matrix, B: Matrix, wit: Witness):
    """Triangle vertices (in span coordinates) for a witness read on (A, B).

    Edge lines i, j index rows of A and points i', j' columns of B.  The
    apex is the outer-polygon vertex cut out by edge lines i and j; the other
    two vertices are where the support lines through points i' and j' exit
    the outer polygon.  Returns None when this witness is degenerate.
    """
    lines = [A.row(i) for i in range(A.rows)]
    points = [B.col(j) for j in range(B.cols)]
    s = tuple(sum(A.col(k)) for k in range(3))
    i, j = wit.i, wit.j
    v = _cross(lines[i], lines[j])
    vhat = _normalize_point(v, s)
    if vhat is None:
        return None

    def exit_point(t_local):
        support = _cross(v, points[t_local])
        candidates = []
        for k in range(len(lines)):
            if k in (i, j):
                continue
            w = _cross(support, lines[k])
            what = _normalize_point(w, s)
            if what is None or what == vhat:
                continue
            inside = all(sum(a * y for a, y in zip(lines[r], what)) >= 0
                         for r in range(len(lines)))
            if inside and what not in candidates:
                candidates.append(what)
        if len(candidates) != 1:
            return None
        return candidates[0]

    w1 = exit_point(wit.iprime)
    w2 = exit_point(wit.jprime)
    if w1 is None or w2 is None:
        return None
    T = [[vhat[r], w1[r], w2[r]] for r in range(3)]  # columns are vertices
    Tinv = _inv3(T)
    if Tinv is None:
        return None
    return T, Tinv


def _reembed(A: Matrix, B: Matrix, m: int, n: int, row_map, col_map):
    zero = Fraction(0)
    a_rows = [[zero] * 3 for _ in range(m)]
    for local, orig in enumerate(row_map):
        a_rows[orig] = list(A.row(local))
    b_rows = [[zero] * n for _ in range(3)]
    for k in range(3):
        for local, orig in enumerate(col_map):
            b_rows[k][orig] = B.entries[k][local]
    return Matrix.exact(a_rows), Matrix.exact(b_rows)


def _thin_factorization(P: Matrix) -> tuple[Matrix, Matrix]:
    m, n = P.shape
    zero = Fraction(0)
    if n <= 3:
        a_rows = [list(P.row(i)) + [zero] * (3 - n) for i in range(m)]
        b_rows = [[Fraction(1) if j == k else zero for j in range(n)] for k in range(n)]
        b_rows += [[zero] * n for _ in range(3 - n)]
        return Matrix.exact(a_rows), Matrix.exact(b_rows)
    # m <= 3: P = I_m (padded) @ P
    a_rows = [[Fraction(1) if k == i else zero for k in range(3)] for i in range(m)]
    b_rows = [list(P.row(i)) for i in range(m)] + [[zero] * n for _ in range(3 - m)]
    return Matrix.exact(a_rows), Matrix.exact(b_rows)


def _low_rank_factorization(P: Matrix, rank: int, A: Matrix, B: Matrix):
    """Nonnegative factors of a rank-1 or rank-2 P from its padded rank
    factorization (A, B); nonnegative rank equals rank here."""
    if rank == 1:
        return A, B  # a column of P times a nonnegative multiple of a row of P
    # rank 2: columns live in a pointed planar cone; find two extreme columns
    m, n = P.shape
    zero = Fraction(0)
    ys = [B.col(j) for j in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            det = ys[a][0] * ys[b][1] - ys[a][1] * ys[b][0]
            if det == 0:
                continue
            coeffs = []
            for y in ys:
                alpha = (y[0] * ys[b][1] - y[1] * ys[b][0]) / det
                beta = (ys[a][0] * y[1] - ys[a][1] * y[0]) / det
                coeffs.append((alpha, beta))
            if all(al >= 0 and be >= 0 for al, be in coeffs):
                A = Matrix.exact([[P.entries[i][a], P.entries[i][b], zero]
                                  for i in range(m)])
                B = Matrix.exact([[al for al, _ in coeffs],
                                  [be for _, be in coeffs],
                                  [zero] * n])
                return A, B
    raise NotInModelError("no extreme column pair found for a rank-2 matrix")


def nonneg_rank3_factorize(P) -> tuple[Matrix, Matrix]:
    """Exactly nonnegative rational A (m-by-3), B (3-by-n) with A @ B = P.

    Requires the rational backend and a matrix that passes the membership
    test.  For rank-3 members the first witness whose triangle gives
    nonnegative factors is turned into the columns of A (apex plus the two
    exit points of the support lines, mapped back to ambient coordinates)
    and B solves the resulting linear system.
    """
    P = _prepare(P)
    if P.backend != EXACT:
        raise DomainError("constructive factorization requires the rational backend")
    m, n = P.shape
    stripped, row_map, col_map = _strip_zero_lines(P, "factorization")
    if not row_map:
        return Matrix.zeros(m, 3), Matrix.zeros(3, n)
    dec, records, factors = _decide(stripped, None, list(range(stripped.rows)),
                                    list(range(stripped.cols)), iter)
    if not dec:
        raise NotInModelError(f"rank {dec.rank} exceeds 3" if dec.rank > 3
                              else "matrix has nonnegative rank greater than 3")
    if dec.rank < 3:
        A, B = _low_rank_factorization(stripped, dec.rank, *factors)
    elif min(stripped.rows, stripped.cols) <= 3:
        A, B = _thin_factorization(stripped)
    else:
        clean = (_triangle_factors(*factors, rec.witness) for rec in records)
        A, B = next(filter(None, clean), (None, None))
        if A is None:
            raise ArithmeticError("internal error: no usable witness in either orientation")
    A, B = _reembed(A, B, m, n, row_map, col_map)
    if A @ B != P:
        raise ArithmeticError("internal error: factorization does not reproduce input")
    if not (A.is_nonnegative() and B.is_nonnegative()):
        raise ArithmeticError("internal error: factorization has negative entries")
    return A, B


def _triangle_factors(A: Matrix, B: Matrix, wit: Witness):
    """Nonnegative factors of A @ B from one witness's triangle, or None.

    A swapped witness is an unswapped witness of (A @ B).T = B.T @ A.T, so
    its triangle is built on (B.T, A.T) and the factors are transposed back.
    """
    if wit.swapped:
        A, B = B.transpose(), A.transpose()
    built = _build_triangle(A, B, wit)
    if built is None:
        return None
    T, Tinv = built
    A_nn = A @ Matrix.exact(T)
    B_nn = Matrix.exact(Tinv) @ B
    if not (A_nn.is_nonnegative() and B_nn.is_nonnegative()):
        return None
    if wit.swapped:
        return B_nn.transpose(), A_nn.transpose()
    return A_nn, B_nn


# -- nested polygons -----------------------------------------------------


@dataclass
class NestedPolygons:
    """Outer polygon (span within the simplex) and inner column polygon.

    ``outer`` is an ordered counterclockwise vertex cycle in a 2-d affine
    chart of the span; ``inner`` lists the normalized columns in column
    order.  Ambient m-dimensional coordinates accompany both.
    """

    outer: list[tuple]
    inner: list[tuple]
    outer_ambient: list[tuple]
    inner_ambient: list[tuple]
    chart: tuple[int, int]


def _ccw_cycle(points2d):
    n = len(points2d)
    cx = sum(p[0] for p in points2d) / n
    cy = sum(p[1] for p in points2d) / n

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        cr = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(points2d, key=functools.cmp_to_key(cmp))


def nested_polygons(P) -> NestedPolygons:
    """Compute the nested polygon pair for a rank-3 nonnegative matrix.

    The outer polygon is the section of the column span by the probability
    simplex; its vertices are the pairwise edge-line intersections that
    satisfy all edge inequalities.  The inner polygon is generated by the
    normalized columns.  Exact backend only.
    """
    P = _prepare(P)
    if P.backend != EXACT:
        raise GeometryError("nested polygons require the rational backend")
    if not P.is_nonnegative():
        raise GeometryError("matrix must be nonnegative")
    if any(all(x == 0 for x in P.col(j)) for j in range(P.cols)):
        raise GeometryError("zero columns have no normalized representative")
    rank, factors = _eliminate(P)
    if rank != 3:
        raise GeometryError("nested polygon geometry is defined for rank 3 only")
    A, B = factors
    m = P.rows
    lines = [A.row(i) for i in range(m)]
    s = tuple(sum(A.col(k)) for k in range(3))

    verts = []
    for i in range(m):
        for j in range(i + 1, m):
            v = _cross(lines[i], lines[j])
            vhat = _normalize_point(v, s)
            if vhat is None:
                continue
            if all(sum(a * y for a, y in zip(lines[r], vhat)) >= 0 for r in range(m)):
                if vhat not in verts:
                    verts.append(vhat)
    if len(verts) < 3:
        raise GeometryError("outer polygon is degenerate")

    # 2-d affine chart: drop one coordinate whose dual participates in the
    # normalization functional, keep the other two.
    t = next(k for k in range(3) if s[k] != 0)
    chart = tuple(k for k in range(3) if k != t)

    def to2d(y):
        return (y[chart[0]], y[chart[1]])

    def ambient(y):
        return tuple(sum(a * yi for a, yi in zip(lines[r], y)) for r in range(m))

    outer2d = _ccw_cycle([to2d(v) for v in verts])
    order = {to2d(v): v for v in verts}
    outer_sorted = [order[p] for p in outer2d]

    inner = []
    for j in range(P.cols):
        colsum = sum(P.col(j))
        y = tuple(x / colsum for x in B.col(j))
        inner.append(y)

    return NestedPolygons(
        outer=outer2d,
        inner=[to2d(y) for y in inner],
        outer_ambient=[ambient(v) for v in outer_sorted],
        inner_ambient=[tuple(x / sum(P.col(j)) for x in P.col(j))
                       for j in range(P.cols)],
        chart=chart,
    )
