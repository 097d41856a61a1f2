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

Every bracket of a vertex v = a_i × a_j is read from three tables: the
vertex brackets V_k = v·a_k, the incidences q_l(t) = a_l·p_t, and the
antisymmetric support brackets F_t(u) = det(v, p_t, p_u) = v·(p_t × p_u).
The crosses of line pairs and of point pairs are taken once per stream; one
orientation's vertices are the other's point crosses.  With the support
lines L1 = v × p_i' and L2 = v × p_j', a chord bracket is

    det(L1 × a_k, L2 × a_l, p) = x[k, l]·(L2·p) − z[k]·(a_l·p),

where L2·p_k' = F_j'(k'), z[k] = det(L1, a_k, L2) = F_j'(i')·V_k since
(v × p_j') × (v × p_i') = det(v, p_j', p_i')·v, and x[k, l] = L1·(a_k × a_l)
= V_k·q_l(i') − V_l·q_k(i') by Binet–Cauchy: no cross product per candidate.
The identities are exact, so on integers every sign is the composed bracket's.

A candidate has C(M − 2, 2)·(N − 2) chord values for M lines and N points.
The witnesses form one lazy stream: the tuples of this orientation in index
order, then those with the roles of A and B.T swapped.  Each entry point
reads only what it needs.  ``nnrank3_membership`` and
``membership_from_factors`` take the first record, ``all_witnesses`` (and so
``boundary_test``) takes them all, and ``nonneg_rank3_factorize`` takes the
first whose triangle yields nonnegative factors.  There are two paths, and
no option selects between them:

- the lazy scan decides one candidate at a time and evaluates its chord
  values in a scalar loop that stops at the first negative pair.  The head
  readers, the float backend and smaller inputs take it;
- the consumer that takes every record on the rational backend has each
  orientation with at least ``_ORIENTATION_BATCH_MIN`` = 30 chord values
  per candidate (6x7 and larger; the measured break-even lies between 6x6
  and 6x7) decided up front in one ``_OrientationBatch``
  (:mod:`nnmix.rank3batch`): every vertex bracket in one product, the
  support tables of the surviving vertices in a second, and the chord
  values of every surviving candidate in bounded stacks, in float64 behind
  a static filter, with every value the filter leaves open recomputed on
  the integers.  The scan then walks these decisions, so records, touches
  and failure logs are the lazy scan's.

This module does not load numpy: the batch module is imported with the
first orientation that reaches ``_ORIENTATION_BATCH_MIN``, so membership,
factorization and a boundary test below 6x7 run on the standard library.

On the rational backend the path from the elimination to the verdict runs
on Python ints: the lines are P's rows as the elimination cleared them, at
its pivot columns, each divided by the gcd of its entries, and the points
are the columns of d·RREF in lowest terms, positive scalings that change no
sign.  A scaled input is therefore scanned on the integers of the unscaled
one, which keeps its chord values inside the float filter's range.  The
triangle is found in homogeneous integer coordinates too, so ``Fraction``
stays at the edges: the input, and the factors ``nonneg_rank3_factorize``
returns.  The float backend replaces sign tests with a tolerance band and
flags marginal calls.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, frexp, gcd, lcm, ldexp

# matrix_rank and rank_factorize are not called here; the benchmark's tracer
# wraps them by these names
from .exactla import (EXACT, Matrix, _cleared_product, _gauss_jordan, clear_denominators,
                      matrix_rank, rank_factorize)


class DomainError(ValueError):
    """Input matrix violates a domain precondition (e.g. negative entries)."""


class NotInModelError(ValueError):
    """A nonnegative factorization was requested for a matrix outside the set."""


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
    return [tuple(r) for r in (A.entries if isinstance(A, Matrix) else A)]


def _cols_of(B) -> list[tuple]:
    return list(zip(*_rows_of(B)))


def bracket3(A, i: int, j: int, k: int):
    """det of rows i, j, k of A; zero iff the three lines are concurrent."""
    if len({i, j, k}) != 3:
        raise IndexError("bracket3 requires three distinct row indices")
    rows = _rows_of(A)
    return _det3(rows[i], rows[j], rows[k])


def meet_join(A, B, i: int, j: int, ip: int, kp: int):
    """Bracket testing whether lines i, j of A meet on the line through
    columns ip, kp of B: det(cross(a_i, a_j), b_ip, b_kp)."""
    rows, cols = _rows_of(A), _cols_of(B)
    return _det3(_cross(rows[i], rows[j]), cols[ip], cols[kp])


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _crosses(vectors) -> list[list]:
    """u_k × u_l for every k < l, as a square table (None on and below the
    diagonal): the vertices of line pairs, and the supports of point pairs."""
    return [[_cross(u, w) if k < l else None for l, w in enumerate(vectors)]
            for k, u in enumerate(vectors)]


def _support_table(v, point_crosses) -> list[list]:
    """The support brackets F[t][u] = det(v, p_t, p_u) = v·(p_t × p_u) of vertex
    v from the point crosses of ``_crosses``: one dot product per pair."""
    v0, v1, v2 = v
    F: list[list] = []
    for t, crosses in enumerate(point_crosses):
        F.append([-F[u][t] for u in range(t)] + [0]
                 + [v0 * c0 + v1 * c1 + v2 * c2 for c0, c1, c2 in crosses[t + 1:]])
    return F


def _chord_factors(V, q, ip, f, k, l):
    """x[k, l] = L1·(a_k × a_l) = V_k·q_l(ip) − V_l·q_k(ip), z[k] = f·V_k and
    z[l] = f·V_l of the support lines L1 = v × p_ip, L2 = v × p_jp, where
    f = F_jp(ip) (see the module docstring) and q[l][t] = a_l·p_t."""
    Vk, Vl = V[k], V[l]
    return Vk * q[l][ip] - Vl * q[k][ip], f * Vk, f * Vl


def six_three(A, B, i: int, j: int, k: int, l: int, ip: int, jp: int, kp: int):
    """Degree-(6,3) chord bracket det(L1 × a_k, L2 × a_l, b_kp).

    L1 and L2 are the support lines from the vertex cross(a_i, a_j) through
    b_ip and b_jp; the bracket tests b_kp against the chord between their
    meets with the edge lines a_k and a_l.  Read from the tables as the
    witness scan reads it; never expanded into its 330 monomials.
    """
    rows, cols = _rows_of(A), _cols_of(B)
    v = _cross(rows[i], rows[j])
    V, F = [_dot(v, a) for a in rows], _support_table(v, _crosses(cols))
    q = [[_dot(a, p) for p in cols] for a in rows]
    x, zk, _ = _chord_factors(V, q, ip, F[jp][ip], k, l)
    return x * F[jp][kp] - zk * q[l][kp]


# -- sign contexts ------------------------------------------------------


class _ExactSigns:
    """Decidable sign tests on integer-cleared data.

    ``reads_all`` says that the consumer reads every record, so a large
    orientation is decided in one batch (``_OrientationBatch``).
    ``rechecks`` counts the values the static float filters left undecided,
    which were decided on the integers instead.
    """

    marginal = False

    def __init__(self, reads_all: bool = False):
        self.reads_all = reads_all
        self.rechecks = 0

    @staticmethod
    def sign(value, kind: str) -> int:
        return (value > 0) - (value < 0)

    @staticmethod
    def is_zero_vec(vec, kind: str) -> bool:
        return not any(vec)

    @staticmethod
    def one_sign(values, kind: str) -> bool:
        """Whether the nonzero values share one sign."""
        return min(values) >= 0 or max(values) <= 0


class _FloatSigns:
    """Banded sign tests: |v| below eps * scale^degree counts as zero.

    The scales are the largest line/point magnitudes (both in [0.5, 1)
    after ``_unit_scaled``), so each band is relative to the largest value
    the bracket of that degree can attain;
    values formed from unusually small rows or columns are classified
    conservatively (zero plus a marginal flag).
    """

    reads_all = False  # the batch is exact only: a float scan is the scalar loop

    def __init__(self, line_scale: float, point_scale: float):
        ls, ps = float(line_scale), float(point_scale)
        eps = 1e-9  # the one relative band width
        self.bands = {
            "x2": eps * ls**2,        # cross of two lines
            "x11": eps * ls * ps,     # incidence of a line and a point
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

    def one_sign(self, values, kind: str) -> bool:
        return _one_sign(self.sign(x, kind) for x in values)


# -- witness scan -------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    i: int
    j: int
    iprime: int
    jprime: int
    swapped: bool

    def as_dict(self) -> dict:
        return asdict(self)  # i, j, iprime, jprime, swapped


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
        return {"schema": "1", "verdict": self.verdict,
                "witness": self.witness.as_dict() if self.witness else None,
                "rank": self.rank, "backend": self.backend, "marginal": self.marginal,
                "note": self.note}


def _one_sign(signs) -> bool:
    """Whether the nonzero signs agree; stops reading at the first that does not."""
    first = 0
    for s in signs:
        if s and not first:
            first = s
        elif s and s != first:
            return False
    return True


# A consumer that reads every record has an exact orientation decided in one
# batch (``_OrientationBatch``) when a candidate has at least this many chord
# values, C(M − 2, 2)·(N − 2): 30 at 6x7, 50 at 7x7.  On seeded products the
# batch took 1.14x the lazy scan's time for a boundary test at 6x6 (24
# values), 0.89x at 6x7, 0.77x at 7x7, 0.58x at 8x8 and 0.42x at 9x9.
_ORIENTATION_BATCH_MIN = 30


def _scan_orientation(lines, points, ctx, swapped, line_map, point_map, log, tables):
    """Yield the witnesses of one orientation in index order, lazily.

    ``lines``/``points`` are 3-vectors; index maps translate back to row and
    column indices of the unstripped input.  ``tables`` holds the crosses of
    line pairs and of point pairs (see ``_crosses``) and the incidences
    ``q[l][t] = a_l·p_t``; with the vertex brackets V and the support table
    F of each vertex, every bracket is read from them.  Each record carries
    the chord triples (k, l, k') whose product vanished, which is what the
    boundary classifier consumes.  Rejected candidates are appended to
    ``log`` as the scan passes them.  When ``ctx.reads_all``, a large exact
    orientation is decided in one ``_OrientationBatch`` before the first
    record, and the scan walks its decisions.
    """
    edges, point_crosses, q = tables
    M, N = len(lines), len(points)
    sign = ctx.sign

    def chord_touches(V, F, pairs, ip, jp):
        # The zero chord triples of candidate (ip, jp), or None if a chord
        # product is negative (the inner polygon leaves the triangle).  The
        # chord brackets of (k, l, k') and (l, k, k') are x·y − z_k·q_l and
        # −x·y − z_l·q_k with y = F_jp(k'), which is L2·p_k'.  ``pairs`` are
        # the vertex's (k, l) pairs apart from its own lines, in combination
        # order.
        y, f = F[jp], F[jp][ip]
        kps = [kp for kp in range(N) if kp != ip and kp != jp]
        touches = []
        for k, l in pairs:
            x, zk, zl = _chord_factors(V, q, ip, f, k, l)
            qk, ql = q[k], q[l]
            for kp in kps:
                xy = x * y[kp]
                s1 = sign(xy - zk * ql[kp], "s63")
                s2 = sign(-xy - zl * qk[kp], "s63")
                if s1 * s2 < 0:
                    return None
                if s1 == 0 or s2 == 0:
                    touches.append((line_map[k], line_map[l], point_map[kp]))
        return touches

    batch = None
    if ctx.reads_all and comb(M - 2, 2) * (N - 2) >= _ORIENTATION_BATCH_MIN:
        from .rank3batch import _OrientationBatch  # numpy loads with the first batch
        try:
            batch = _OrientationBatch(lines, points, ctx, tables, line_map, point_map).found
        except OverflowError:  # an integer beyond the float range: the lazy path decides
            pass
    side = "cols" if swapped else "rows"
    for i in range(M):
        for j in range(i + 1, M):
            v = edges[i][j]
            if ctx.is_zero_vec(v, "x2"):  # parallel edge lines: no vertex
                log.append(f"{side} ({line_map[i]},{line_map[j]}): edge lines are parallel")
                continue
            if batch is None:  # V_k = det(a_i, a_j, a_k) shares one sign; V_i = V_j = 0
                v0, v1, v2 = v
                V = [0 if k == i or k == j else v0 * a0 + v1 * a1 + v2 * a2
                     for k, (a0, a1, a2) in enumerate(lines)]
                found = ([None] * N, None) if ctx.one_sign(V, "b3") else None
            else:
                found = batch.get((i, j))
            if found is None:
                log.append(f"{side} ({line_map[i]},{line_map[j]}): vertex sign family mixed")
                continue
            ok, decided = found  # the support flags, and the batch's chord touches
            if batch is None:  # decided as the scan reaches them
                pairs = list(itertools.combinations([k for k in range(M) if k != i and k != j], 2))
                F, qi, qj = _support_table(v, point_crosses), q[i], q[j]

                def supports(t):
                    # whether v × p_t is a line (p_t is not v, the one point on
                    # both edge lines) with every other point on one side of it
                    return (not ctx.is_zero_vec((qi[t], qj[t]), "x11")
                            and ctx.one_sign(F[t], "mj"))  # F[t][t] = 0

            for ip in range(N):
                if ok[ip] is None:
                    ok[ip] = supports(ip)
                if not ok[ip]:
                    log.append(f"candidate ({line_map[i]},{line_map[j]},{point_map[ip]},*): "
                               "support family mixed")
                    continue
                for jp in range(N):
                    if ok[jp] is None:  # ok[ip] is set
                        ok[jp] = supports(jp)
                    if jp == ip or not ok[jp]:
                        continue
                    touches = (chord_touches(V, F, pairs, ip, jp) if batch is None
                               else decided[ip, jp])
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
    rows = [i for i, r in enumerate(P.signs) if any(r)]
    cols = [j for j, c in enumerate(zip(*P.signs)) if any(c)]
    if not rows or (len(rows), len(cols)) == P.shape:  # the zero matrix, or nothing to drop
        return P, rows, cols
    data = tuple(tuple(P.entries[i][j] for j in cols) for i in rows)
    return Matrix(len(rows), len(cols), data, P.backend), rows, cols


def _prepare(P) -> Matrix:
    return P if isinstance(P, Matrix) else Matrix.of(P)


def _witness_stream(lines, points, backend: str, row_map, col_map, reads_all=False):
    """The witnesses of the lines and points of P = A @ B as one lazy stream.

    Returns ``(records, log, ctx)``: an iterator over the unswapped
    orientation and then the swapped one, the failure log it fills as it
    advances, and the sign context whose ``marginal`` flag it raises.  A
    caller that stops early has scanned, logged and flagged only that far;
    one that reads every record says so with ``reads_all``.
    """
    if backend == EXACT:
        ctx = _ExactSigns(reads_all)
    else:
        lines, points = _unit_scaled(lines), _unit_scaled(points)
        ctx = _FloatSigns(max(abs(x) for v in lines for x in v),
                          max(abs(x) for v in points for x in v))
    log: list[str] = []
    line_crosses, point_crosses = _crosses(lines), _crosses(points)
    q = [[_dot(a, p) for p in points] for a in lines]
    records = itertools.chain(
        _scan_orientation(lines, points, ctx, False, row_map, col_map, log,
                          (line_crosses, point_crosses, q)),
        _scan_orientation(points, lines, ctx, True, col_map, row_map, log,
                          (point_crosses, line_crosses, list(zip(*q)))))
    return records, log, ctx


def _unit_scaled(vectors) -> list:
    """Float ``vectors`` times the power of two that brings their largest
    magnitude into [0.5, 1).

    The scan scales its lines and its points apart, which rounds nothing.
    A float verdict then does not depend on the scale of the input, and
    the degree-9 bands and brackets of an input far from 1 stay inside the
    float range.  It also evens out the bands of the swapped orientation:
    there the brackets have their degrees in lines and points swapped, so
    without the scaling a band would be off by (line scale / point scale)
    to a power.
    """
    shift = -frexp(max(abs(x) for v in vectors for x in v))[1]
    return [tuple(ldexp(x, shift) for x in v) for v in vectors]


def _head(records) -> list:
    """The first witness of a stream, or none: what a membership verdict needs."""
    return list(itertools.islice(records, 1))


def _eliminate(P: Matrix):
    """The rank of P and, when it is at most 3, its padded rank-3 factors.

    One elimination gives both.  The factors come in integer form,
    ``(lines, line_den, points, point_den)``: row i of A is
    ``lines[i] / line_den[i]``, P's cleared row i at the pivot columns, and
    column j of B is ``points[j] / point_den[j]``, column j of ``d * RREF``
    divided by its common factor with ``d``.  These are the factors
    ``rank_factorize`` returns, and the witness scan reads the integer
    vectors directly.
    """
    work, pivots, d, cleared, _ = _gauss_jordan(P)
    rank = len(pivots)
    if rank > 3:
        return rank, None
    pad = [0] * (3 - rank)
    lines = [tuple([row[c] for c in pivots] + pad) for row, _ in cleared]
    points, point_den = list(zip(*work[:rank], *[[0] * P.cols] * (3 - rank))), [d] * P.cols
    if P.backend == EXACT:  # lowest terms: smaller integers, cheaper brackets
        gs = [gcd(d, *p) for p in points]
        points = [tuple(x // g for x in p) for p, g in zip(points, gs)]
        point_den = [d // g for g in gs]
    return rank, (lines, [c for _, c in cleared], points, point_den)


def _primitive(vector) -> tuple:
    """An integer vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*vector)
    return tuple(x // g for x in vector) if g > 1 else vector


def _decide(P: Matrix, factors, row_map, col_map, take):
    """The membership ladder every entry point shares, on one elimination.

    Rank > 3 is ``out``, rank < 3 is ``rank_deficient_in``; otherwise the
    witness stream of ``factors`` (the lines and points of a rank-3
    factorization of P, the one eliminated here when None, its exact lines
    in lowest terms) decides, and a matrix with no witness is ``in`` only
    when thin.  Returns the decision, what ``take`` read from the stream,
    and the eliminated factors in integer form (None for rank > 3).
    """
    rank, built = _eliminate(P)
    if rank > 3:
        return MembershipDecision("out", None, rank, P.backend,
                                  failure_log=[f"rank {rank} exceeds 3"]), [], None
    if rank < 3:
        return MembershipDecision("rank_deficient_in", None, rank, P.backend), [], built
    lines, points = factors or (built[0], built[2])
    if not factors and P.backend == EXACT:  # lowest terms, as the points: same signs
        lines = list(map(_primitive, lines))
    # ``list`` reads every record
    records, log, ctx = _witness_stream(lines, points, P.backend, row_map, col_map, take is list)
    head = _head(records)
    found = take(itertools.chain(head, records))
    if head:
        dec = MembershipDecision("in", head[0].witness, rank, P.backend, marginal=ctx.marginal)
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
    A, B = _prepare(A), _prepare(B)
    P = A @ B
    if not P.is_nonnegative():
        raise DomainError("product has negative entries")
    if A.backend == EXACT:  # a positive scaling changes no sign
        lines = [clear_denominators(r)[0] for r in A.entries]
        points = [clear_denominators(c)[0] for c in zip(*B.entries)]
    else:
        lines, points = A.entries, list(zip(*B.entries))
    return _decide(P, (lines, points), list(range(A.rows)), list(range(B.cols)), _head)[0]


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


def _build_triangle(lines, points, s, wit: Witness):
    """Triangle vertices, as homogeneous integer points, for a witness.

    Edge lines i, j index ``lines`` and points i', j' index ``points``.  The
    apex is the outer-polygon vertex cut out by edge lines i and j; the other
    two vertices are where the support lines through points i' and j' exit
    the outer polygon.  ``s`` is the chart functional sum(A @ y) up to a
    positive factor, and each vertex w is scaled to s·w > 0, so a·w has the
    sign a takes at the affine point w / (s·w).  Two points are equal when
    their cross product is zero.  Returns None when this witness is
    degenerate.
    """
    def on_chart(w):
        sigma = _dot(s, w)
        return None if sigma == 0 else w if sigma > 0 else tuple(-x for x in w)

    def same(p, q):
        return not any(_cross(p, q))

    i, j = wit.i, wit.j
    v = on_chart(_cross(lines[i], lines[j]))
    if v is None:
        return None

    def exit_point(t):
        support = _cross(v, points[t])
        candidates = []
        for k in range(len(lines)):
            if k in (i, j):
                continue
            w = on_chart(_cross(support, lines[k]))
            if w is None or same(w, v):
                continue
            if (all(_dot(a, w) >= 0 for a in lines)
                    and not any(same(w, c) for c in candidates)):
                candidates.append(w)
        return candidates[0] if len(candidates) == 1 else None

    w1 = exit_point(wit.iprime)
    w2 = exit_point(wit.jprime)
    return None if w1 is None or w2 is None else (v, w1, w2)


def _reembed(A: Matrix, B: Matrix, m: int, n: int, row_map, col_map):
    zero = (Fraction(0),) * 3
    rows, cols = dict(zip(row_map, A.entries)), dict(zip(col_map, zip(*B.entries)))
    return (Matrix.exact(rows.get(i, zero) for i in range(m)),
            Matrix.exact(zip(*(cols.get(j, zero) for j in range(n)))))


def _low_rank_factorization(P: Matrix, rank: int, form):
    """Nonnegative factors of a rank-1 or rank-2 P from the integer form of
    its padded rank factorization; nonnegative rank equals rank here."""
    lines, line_den, points, den = form
    if rank == 1:  # a column of P times a nonnegative multiple of a row
        return (Matrix.exact([[Fraction(x, c) for x in a] for a, c in zip(lines, line_den)]),
                Matrix.exact([[Fraction(p[k], e) for p, e in zip(points, den)]
                              for k in range(3)]))
    # rank 2: columns live in a pointed planar cone; find two extreme columns,
    # the pair whose coordinates give every column nonnegative coefficients
    zero = Fraction(0)
    for a, b in itertools.combinations(range(P.cols), 2):
        (a0, a1, _), (b0, b1, _) = points[a], points[b]
        det = a0 * b1 - a1 * b0
        coeffs = [(y0 * b1 - y1 * b0, a0 * y1 - a1 * y0) for y0, y1, _ in points]
        if det and all(al * det >= 0 and be * det >= 0 for al, be in coeffs):
            # column y of B is points[y] / den[y], which scales its two
            # coefficients by den[a] / den[y] and den[b] / den[y]
            A = Matrix.exact([row[a], row[b], zero] for row in P.entries)
            B = Matrix.exact([[Fraction(al * den[a], det * e) for (al, _), e in zip(coeffs, den)],
                              [Fraction(be * den[b], det * e) for (_, be), e in zip(coeffs, den)],
                              [zero] * P.cols])
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
        A, B = _low_rank_factorization(stripped, dec.rank, factors)
    elif min(stripped.rows, stripped.cols) <= 3:  # P = P @ I or P = I @ P
        I3 = Matrix.identity(3)
        A, B = (stripped, I3) if stripped.cols == 3 else (I3, stripped)
    else:
        clean = (_triangle_factors(factors, rec.witness) for rec in records)
        A, B = next(filter(None, clean), (None, None))
        if A is None:
            raise ArithmeticError("internal error: no usable witness in either orientation")
    A, B = _reembed(A, B, m, n, row_map, col_map)
    if any(num * x.denominator != x.numerator * den
           for got, want in zip(_cleared_product(A, B), P.entries)
           for (num, den), x in zip(got, want)):
        raise ArithmeticError("internal error: factorization does not reproduce input")
    if not (A.is_nonnegative() and B.is_nonnegative()):
        raise ArithmeticError("internal error: factorization has negative entries")
    return A, B


def _triangle_factors(form, wit: Witness):
    """Nonnegative factors of A @ B from one witness's triangle, or None.

    ``form`` is the integer form of (A, B) (see ``_eliminate``).  With the
    triangle's vertices w_c as the columns of W and the chart functional
    s = sum of A's rows, the vertex matrix is T = W diag(1 / s·w_c), the
    factors are A @ T and T^-1 @ B, and T^-1 has the rows
    (s·w_c) (w_c+1 × w_c+2) / det W.  Signs are read on integers; only the
    factors returned are built as ``Fraction``s.  A swapped witness is an
    unswapped one of (A @ B).T = B.T @ A.T: its triangle is built on the
    swapped form and the factors are transposed back.
    """
    lines, line_den, points, point_den = form
    if wit.swapped:
        lines, line_den, points, point_den = points, point_den, lines, line_den
    sigma = lcm(*line_den)  # s = s_int / sigma
    s = [sum(a[k] * (sigma // c) for a, c in zip(lines, line_den)) for k in range(3)]
    W = _build_triangle(lines, points, s, wit)
    if W is None:
        return None
    inverse = [_cross(W[(c + 1) % 3], W[(c + 2) % 3]) for c in range(3)]
    det = _dot(W[0], inverse[0])
    if det == 0:
        return None
    a_num = [[_dot(a, w) for w in W] for a in lines]
    b_num = [[_dot(r, p) for p in points] for r in inverse]
    if any(x < 0 for row in a_num for x in row) or any(x * det < 0 for row in b_num for x in row):
        return None
    sw = [_dot(s, w) for w in W]
    A_nn = tuple(tuple(Fraction(sigma * x, c * y) for x, y in zip(row, sw))
                 for row, c in zip(a_num, line_den))
    B_nn = tuple(tuple(Fraction(y * x, sigma * det * e) for x, e in zip(row, point_den))
                 for row, y in zip(b_num, sw))
    if wit.swapped:
        A_nn, B_nn = tuple(zip(*B_nn)), tuple(zip(*A_nn))
    return (Matrix(len(A_nn), 3, A_nn, EXACT), Matrix(3, len(B_nn[0]), B_nn, EXACT))
