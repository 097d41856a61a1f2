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

On exact input the support brackets are the 2x2 minors of the incidence
rows of the vertex's two lines, F_t(u) = q_i(t)·q_j(u) − q_i(u)·q_j(t)
(Binet–Cauchy again), the determinant of w_t = (q_i(t), q_j(t)) and w_u,
and no table of them is built.  Every incidence the package scans is a
positive multiple of an entry of a nonnegative P, so the nonzero w_t lie
in one closed quadrant, where the determinant's sign orders their slopes
q_j/q_i: p_t supports the vertex exactly when w_t is nonzero at the
smallest or the largest slope (ties on an extreme ray included, a point
at the vertex excluded), and one pass of cross-multiplications finds
those points.  A chord test reads only the row F_j' of its candidate, N
minors formed when the test runs.  Floats keep the table
F_t(u) = v·(p_t × p_u), because the minors cancel there: read as minors,
18 of the 91 float inputs of the golden verdict corpus change a
``marginal`` flag, 11 of them from unflagged to flagged on every call.
The sign context answers one question per vertex, ``supports``: the
vertex's support flags, the points to read as second points, and a reader
of row t of F.  It carries the chord band as ``band``: a chord value
within ``band`` of zero counts as zero, 0 on exact input.

A candidate has C(M − 2, 2)·(N − 2) chord values for M lines and N points.
The witnesses form one lazy stream: the tuples of this orientation in index
order, then those with the roles of A and B.T swapped.  The scan decides
one candidate at a time, as the stream is read, and evaluates its chord
values in a scalar loop that stops at the first negative pair.

On exact input the scan decides each unordered pair of support points of
a vertex once.  Swapping L1 and L2 trades the two chord brackets with a
sign change, det(L2 × a_k, L1 × a_l, p) = −det(L1 × a_l, L2 × a_k, p), so
the mirror (i, j, j', i') of a candidate with i' < j' is a witness with
the same touches exactly when the candidate is one, and is rejected with
it.  The scan reaches the candidate first and keeps its decision for the
vertex; the mirror takes it and is logged and yielded in its own place, so
records, their order and the log are unchanged.  The exact support flags
of a vertex are decided all at once, since an exact flag raises nothing,
and a candidate's second point is drawn from the supporting points alone.
Floats keep both per candidate and lazy, with no memo: a mirror's chord
values are other products that round apart, so its banded signs and
``marginal`` flag are its own, and a head reader's ``marginal`` depends
on which flags it read, so every point is read as a second point and its
flag decided when the scan first reads it.  The sign context carries the
first difference as ``mirrors`` and the second in what ``supports``
returns.

Every entry point goes through one prologue, ``_decide``.  Zero rows and
columns change neither rank nor nonnegative rank, so it leaves them out for
all of them, ``membership_from_factors`` included: the stream reads the
lines and points of P's nonzero rows and columns only, in P's indices.
Each entry point reads only what it needs: ``nnrank3_membership`` and
``membership_from_factors`` take the first record, ``all_witnesses`` (and so
``boundary_test``) takes them all, ``nonneg_rank3_factorize`` takes the
first whose triangle is not flat, and the ``boundary`` command takes
records up to the first that touches nowhere.

A rank-3 member has a witness, and an ``out`` verdict rests on that.  An
exact member with three rows shows one in the first orientation, as three
lines leave no chord pair and the two extreme points seen from a vertex
support it; with three columns the swapped one does.  The float band can
hide every witness of a thin matrix, which is then ``in`` by its rank.

Every entry point eliminates P, zero lines included, at most once.
``membership_from_factors``, and ``all_witnesses`` and ``boundary_test``
given an exact ``factors = (A, B)`` of a P with no zero entry, read the
stream on A's rows and B's columns; when each factor spans three
dimensions, P has rank 3 and is not eliminated at all.  The stream's signs
are those of any other rank-3 factorization of P, so the records are the
ones P's own elimination gives.

The scan builds only what its caller reads.  A record is a pair of named
tuples, ``WitnessRecord(Witness, touches)``.  A rejected vertex or candidate
is logged as a tuple of its indices and reason, and the log is formatted
into text only when an ``out`` verdict carries it: a member's log is never
read.

This module does not load numpy: every verdict runs on the standard
library.

On the rational backend the path from the elimination to the verdict runs
on Python ints: the lines are P's rows as the elimination cleared them, at
its pivot columns, each divided by the gcd of its entries, and the points
are the columns of d·RREF in lowest terms, positive scalings that change no
sign.  A scaled input is therefore scanned on the integers of the unscaled
one.  The triangle is found in homogeneous integer coordinates too, so a
``Fraction`` appears only where the input has one and in the factors
``nonneg_rank3_factorize`` returns.  The float backend replaces sign tests
with a tolerance band and flags marginal calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import frexp, gcd, lcm, ldexp
from operator import mul
from typing import NamedTuple

# matrix_rank and rank_factorize are not called here; the benchmark's tracer
# wraps them by these names
from .exactla import (EXACT, Matrix, _cleared_operands, _gauss_jordan, matrix_rank,
                      rank_factorize)


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
    """u_k × u_l for every k < l, row k listing l = k + 1, k + 2, ...: the
    vertices of line pairs, and the supports of point pairs."""
    return [[_cross(u, w) for w in vectors[k + 1:]] for k, u in enumerate(vectors)]


def _support_table(v, point_crosses) -> list[list]:
    """The support brackets F[t][u] = det(v, p_t, p_u) = v·(p_t × p_u) of vertex
    v from the point crosses of ``_crosses``: one dot product per pair."""
    v0, v1, v2 = v
    F: list[list] = []
    for t, crosses in enumerate(point_crosses):
        F.append([-F[u][t] for u in range(t)] + [0]
                 + [v0 * c0 + v1 * c1 + v2 * c2 for c0, c1, c2 in crosses])
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
    """Decidable sign tests on integer-cleared data."""

    marginal = False
    band = 0  # a chord value counts as zero only when it is zero
    mirrors = True  # a candidate's mirror takes its decision (see the module docstring)

    @staticmethod
    def supports(v, qi, qj, point_crosses) -> tuple[list, list, object]:
        """The support flags of the vertex v of lines a_i and a_j, the points
        that support it in index order, and a reader of row t of its support
        brackets.  p_t supports v when it is not v (q_i(t), q_j(t) not both
        zero) and row F[t] shares one sign; on the nonnegative incidences the
        package scans, these are the points w_t = (q_i(t), q_j(t)) at the
        smallest and the largest slope q_j/q_i (see the module docstring),
        all N found at once in one pass, as an exact flag raises nothing.
        The reader forms F[t][u] = det(v, p_t, p_u) = q_i(t)·q_j(u) −
        q_i(u)·q_j(t) (Binet–Cauchy), two products per entry; ``v`` and
        ``point_crosses`` are not read."""
        flags, low, high = [False] * len(qi), (), ()
        for t, (it, jt) in enumerate(zip(qi, qj)):
            if not (it or jt):  # p_t is the vertex
                continue
            if not low:  # the first ray is both extremes so far
                li, lj = hi, hj = it, jt
                low, high = [t], [t]
                continue
            d = li * jt - lj * it  # det(w_low, w_t): below zero at a smaller slope
            if d < 0:
                li, lj, low = it, jt, [t]
            elif d == 0:
                low.append(t)
            d = hi * jt - hj * it
            if d > 0:
                hi, hj, high = it, jt, [t]
            elif d == 0:
                high.append(t)
        supporting = sorted({*low, *high})
        for t in supporting:
            flags[t] = True

        def row(t):
            it, jt = qi[t], qj[t]
            return [it * ju - iu * jt for iu, ju in zip(qi, qj)]

        return flags, supporting, row

    @staticmethod
    def is_zero_vec(vec, kind: str) -> bool:
        return not any(vec)

    @staticmethod
    def one_sign(values, kind: str) -> bool:
        """Whether the nonzero values share one sign."""
        return min(values) >= 0 or max(values) <= 0


class _LazyFlags(list):
    """Float support flags, each decided by ``decide(t)`` when first read
    by index (iterating reads the undecided None)."""

    def __init__(self, decide, n: int):
        super().__init__([None] * n)
        self.decide = decide

    def __getitem__(self, t):
        flag = list.__getitem__(self, t)
        if flag is None:
            flag = self[t] = self.decide(t)
        return flag


class _FloatSigns:
    """Banded sign tests: |v| below eps * scale^degree counts as zero.

    The scales are the largest line/point magnitudes (both in [0.5, 1)
    after ``_unit_scaled``), so each band is relative to the largest value
    the bracket of that degree can attain;
    values formed from unusually small rows or columns are classified
    conservatively (zero plus a marginal flag).
    """

    mirrors = False  # a mirror's chord values round apart, so it is evaluated too

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
        self.band = self.bands["s63"]  # the chord values' band, read inline by the scan
        self.marginal = False

    def supports(self, v, qi, qj, point_crosses) -> tuple[_LazyFlags, range, object]:
        """The support flags of vertex v, every point to be read, and a
        reader of the rows of ``_support_table``: on floats the incidence
        minors cancel (see the module docstring).  A flag is decided when
        the scan first reads it, since a banded flag may raise ``marginal``
        and a head reader's ``marginal`` must not depend on flags it never
        read: p_t supports v when v × p_t is a line (p_t is not v, the one
        point on both edge lines) with every other point on one side of it."""
        F = _support_table(v, point_crosses)

        def decide(t):
            return (not self.is_zero_vec((qi[t], qj[t]), "x11")
                    and self.one_sign(F[t], "mj"))  # F[t][t] = 0

        return _LazyFlags(decide, len(qi)), range(len(qi)), F.__getitem__

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


class Witness(NamedTuple):
    """Immutable, hashable and equal by value; built at about tuple cost, as
    the scan makes one per record."""

    i: int
    j: int
    iprime: int
    jprime: int
    swapped: bool

    def as_dict(self) -> dict:
        return self._asdict()  # i, j, iprime, jprime, swapped


class WitnessRecord(NamedTuple):
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


def _log_line(entry) -> str:
    """One failure-log tuple of ``_scan_orientation`` as a line of text.

    Only an ``out`` decision, the one that carries the log, formats it.
    """
    swapped, i, j, ip, jp, reason = entry
    if ip is None:  # a rejected vertex
        return f"{'cols' if swapped else 'rows'} ({i},{j}): {reason}"
    return f"candidate ({i},{j},{ip},{'*' if jp is None else jp}): {reason}"


def _scan_orientation(lines, points, ctx, swapped, line_map, point_map, log, tables):
    """Yield the witnesses of one orientation in index order, lazily.

    ``lines``/``points`` are 3-vectors; index maps translate back to row and
    column indices of the input.  ``tables`` holds the crosses of
    line pairs and of point pairs (see ``_crosses``) and the incidences
    ``q[l][t] = a_l·p_t``; with the vertex brackets V and the support
    brackets F of each vertex, whose rows the sign context's ``supports``
    reads, every bracket is read from them.  Each record carries
    the chord triples (k, l, k') whose product vanished, which is what the
    boundary classifier consumes.  Each rejected vertex or candidate is
    appended to ``log`` as the scan passes it, as the tuple
    ``(swapped, i, j, i', j', reason)`` of input indices, with None for the
    points of a rejected vertex and for j' when point i' does not support;
    ``_log_line`` formats one.
    """
    edges, point_crosses, q = tables
    M, N = len(lines), len(points)
    band, mirrors = ctx.band, ctx.mirrors

    def chord_touches(i, j, V, y, ip, jp):
        # The zero chord triples of candidate (ip, jp), or None if a chord
        # product is negative (the inner polygon leaves the triangle).  The
        # chord brackets of (k, l, k') and (l, k, k') are x·y − z_k·q_l and
        # −x·y − z_l·q_k with y = F_jp(k'), which is L2·p_k', for the pairs
        # (k, l) of lines apart from the vertex's own, in combination order.
        # A value counts as zero within ``band`` of it, and one in the band
        # but not zero flags the call marginal, as ``_FloatSigns.sign`` does;
        # both values are always read.
        f = y[ip]
        kps = [kp for kp in range(N) if kp != ip and kp != jp]
        touches = []
        for k, l in itertools.combinations([k for k in range(M) if k != i and k != j], 2):
            x, zk, zl = _chord_factors(V, q, ip, f, k, l)
            qk, ql = q[k], q[l]
            for kp in kps:
                xy = x * y[kp]
                c1 = xy - zk * ql[kp]
                c2 = -xy - zl * qk[kp]
                if c1 > band:
                    if c2 > band:
                        continue
                    if c2 < -band:
                        return None
                elif c1 < -band:
                    if c2 < -band:
                        continue
                    if c2 > band:
                        return None
                # a value is in the band: a touching triple
                touches.append((line_map[k], line_map[l], point_map[kp]))
                if (c1 and -band <= c1 <= band) or (c2 and -band <= c2 <= band):
                    ctx.marginal = True
        return tuple(touches)

    for i in range(M):
        for j, v in enumerate(edges[i], i + 1):
            ri, rj = line_map[i], line_map[j]
            if ctx.is_zero_vec(v, "x2"):  # parallel edge lines: no vertex
                log.append((swapped, ri, rj, None, None, "edge lines are parallel"))
                continue
            # V_k = det(a_i, a_j, a_k) shares one sign; V_i = V_j = 0
            v0, v1, v2 = v
            V = [v0 * a0 + v1 * a1 + v2 * a2 for a0, a1, a2 in lines]
            V[i] = V[j] = 0  # on floats they are rounding noise
            if not ctx.one_sign(V, "b3"):
                log.append((swapped, ri, rj, None, None, "vertex sign family mixed"))
                continue
            # a float flag is decided as the scan first reads it; the second
            # points are read from ``reach``, which holds every supporting one
            ok, reach, row = ctx.supports(v, q[i], q[j], point_crosses)
            decided = {}  # (i', j') -> its touches, or None if rejected
            for ip in range(N):
                if not ok[ip]:
                    log.append((swapped, ri, rj, point_map[ip], None, "support family mixed"))
                    continue
                for jp in reach:
                    if jp == ip or not ok[jp]:
                        continue
                    if mirrors and jp < ip:  # the mirror of (jp, ip), decided before it
                        touches = decided[jp, ip]
                    else:
                        touches = chord_touches(i, j, V, row(jp), ip, jp)
                        if mirrors:
                            decided[ip, jp] = touches
                    if touches is None:
                        log.append((swapped, ri, rj, point_map[ip], point_map[jp],
                                    "chord product negative"))
                        continue
                    yield WitnessRecord(
                        Witness(ri, rj, point_map[ip], point_map[jp], swapped), touches)


def _prepare(P) -> Matrix:
    return P if isinstance(P, Matrix) else Matrix.of(P)


def _nonzero_lines(P: Matrix) -> tuple[list[int], list[int]]:
    """The indices of P's nonzero rows and of its nonzero columns."""
    return ([i for i, r in enumerate(P.signs) if any(r)],
            [j for j, c in enumerate(zip(*P.signs)) if any(c)])


def _witness_stream(lines, points, backend: str, row_map, col_map):
    """The witnesses of the lines and points of P = A @ B as one lazy stream.

    Returns ``(records, log, ctx)``: an iterator over the unswapped
    orientation and then the swapped one, the failure log (of tuples, see
    ``_scan_orientation``) it fills as it advances, and the sign context
    whose ``marginal`` flag it raises.  A caller that stops early has
    scanned, logged and flagged only that far.
    """
    if backend == EXACT:
        ctx = _ExactSigns()
    else:
        lines, points = _unit_scaled(lines), _unit_scaled(points)
        ctx = _FloatSigns(max(abs(x) for v in lines for x in v),
                          max(abs(x) for v in points for x in v))
    log: list[tuple] = []
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
    vectors directly.  A zero row gives a zero line, a zero column a zero
    point over 1.  Zero rows go last: a float pivot search breaks ties by
    position, and a swapped zero row would reorder the others.
    """
    order = sorted(range(P.rows), key=lambda i: not any(P.signs[i]))
    work, pivots, d, cleared, _ = _gauss_jordan(
        Matrix(P.rows, P.cols, tuple(P.entries[i] for i in order), P.backend))
    cleared = [row for _, row in sorted(zip(order, cleared))]
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


def _spans_three(vectors) -> bool:
    """Whether nonzero exact 3-vectors span three dimensions: one pass
    finds a first u, a first w off its line, then any x off their plane,
    (u × w)·x != 0.  A nonzero row of P = A @ B has a nonzero row of A, and
    ``_decide`` passes only lines and points of P's nonzero rows and columns."""
    rest = iter(vectors)
    u = next(rest)
    normal = next((c for c in (_cross(u, w) for w in rest) if any(c)), None)
    return normal is not None and any(_dot(normal, x) for x in rest)


def _decide(P, take, task: str, factors=None):
    """The prologue and membership ladder of every entry point, on at most
    one elimination.

    A negative P is refused, naming ``task``, and the zero matrix is
    ``rank_deficient_in``.  Zero rows and columns are left out: the stream
    reads only the lines and points at P's nonzero ones, in P's indices.
    Rank > 3 is ``out``, rank < 3 is ``rank_deficient_in``; otherwise the
    witness stream of ``factors`` (the lines and points of a rank-3
    factorization of P, the one eliminated here when None, its exact lines
    in lowest terms) decides, and a matrix with no witness is ``in`` only
    when thin, with at most three nonzero rows or columns, which a float
    input alone reaches.  Exact factors whose lines and points each span
    three dimensions give P rank 3 without an elimination: A has full
    column rank and B full row rank.  Any other P is eliminated whole.
    Returns the decision, what ``take`` read from the stream, and the
    eliminated factors in integer form (None when nothing was eliminated
    and for rank 0 or > 3).
    """
    P = _prepare(P)
    if not P.is_nonnegative():
        raise DomainError(f"{task} requires a nonnegative matrix")
    rows, cols = _nonzero_lines(P)
    if not rows:
        return MembershipDecision("rank_deficient_in", None, 0, P.backend,
                                  note="zero matrix"), [], None
    if factors:
        factors = [factors[0][i] for i in rows], [factors[1][j] for j in cols]
    if factors and P.backend == EXACT and all(map(_spans_three, factors)):
        rank, built = 3, None
    else:
        rank, built = _eliminate(P)
    if rank > 3:
        return MembershipDecision("out", None, rank, P.backend,
                                  failure_log=[f"rank {rank} exceeds 3"]), [], None
    if rank < 3:
        return MembershipDecision("rank_deficient_in", None, rank, P.backend), [], built
    if factors:
        lines, points = factors
    else:
        lines, points = [built[0][i] for i in rows], [built[2][j] for j in cols]
        if P.backend == EXACT:  # lowest terms, as the points: same signs
            lines = list(map(_primitive, lines))
    records, log, ctx = _witness_stream(lines, points, P.backend, rows, cols)
    head = _head(records)
    found = take(itertools.chain(head, records))
    if head:
        dec = MembershipDecision("in", head[0].witness, rank, P.backend, marginal=ctx.marginal)
    elif min(len(rows), len(cols)) <= 3:
        dec = MembershipDecision("in", None, rank, P.backend, marginal=ctx.marginal,
                                 note="thin matrix: nonnegative rank equals rank")
    else:
        dec = MembershipDecision("out", None, rank, P.backend, marginal=ctx.marginal,
                                 failure_log=list(map(_log_line, log)))
    return dec, found, built


def _cleared_factors(A: Matrix, B: Matrix, P: Matrix):
    """A's rows and B's columns as ``(ints, multiplier)`` pairs, or None
    unless the exact ``A @ B`` equals the exact P.  The entries are compared
    on integers, so no ``Fraction`` is built."""
    rows, cols = _cleared_operands(A, B)
    if all(sum(map(mul, ra, cb)) * x.denominator == x.numerator * da * db
           for (ra, da), want in zip(rows, P.entries) for (cb, db), x in zip(cols, want)):
        return rows, cols
    return None


def _checked_factors(P: Matrix, factors):
    """The lines and points of P read on its factorization ``(A, B)``.

    A must be m-by-3 and B 3-by-n for an m-by-n P, and ``A @ B == P`` must
    hold exactly, a float entry read as the dyadic rational it is; anything
    else raises ``DomainError``.  When P and both factors are exact, returns
    A's rows and B's columns cleared to integers, each in lowest terms
    (positive scalings, which change no sign); otherwise None, and P is
    eliminated as without factors.
    """
    A, B = map(_prepare, factors)
    m, n = P.shape
    if A.shape != (m, 3) or B.shape != (3, n):
        raise DomainError(f"factors of shapes {A.rows}x{A.cols} and {B.rows}x{B.cols} "
                          f"do not factor a {m}x{n} matrix as {m}x3 times 3x{n}")
    exact = A.backend == B.backend == P.backend == EXACT
    cleared = _cleared_factors(*(M if M.backend == EXACT else Matrix.exact(M.entries)
                                 for M in (A, B, P)))
    if cleared is None:
        raise DomainError("the factors do not multiply to the matrix")
    if not exact:
        return None
    return [_primitive(r) for r, _ in cleared[0]], [_primitive(c) for c, _ in cleared[1]]


def membership_from_factors(A, B) -> MembershipDecision:
    """Decide nonnegative rank <= 3 for P = A @ B from a given factorization.

    The verdict depends only on P, not on the factorization chosen; this
    entry point exists so callers with an explicit rank-3 factorization
    (sampled boundary strata, invariance tests) have the witnesses read on
    it.  Exact factors that each span three dimensions give P rank 3, and P
    is not eliminated; float or rank-deficient factors leave P eliminated
    once, for its rank.  The scan reads 3-vectors, so factors of another
    inner dimension are not read: P is decided on its own elimination, as
    ``nnrank3_membership`` decides it.  As there, P's zero lines are left
    out and the scan stops at the first witness, so the decision and its
    log are those of ``nnrank3_membership(A @ B)``.
    """
    A, B = _prepare(A), _prepare(B)
    P = A @ B
    if not P.is_nonnegative():
        raise DomainError("product has negative entries")
    if A.cols != 3:
        factors = None
    elif A.backend == EXACT:  # a positive scaling changes no sign
        rows, cols = _cleared_operands(A, B)
        factors = [r for r, _ in rows], [c for c, _ in cols]
    else:
        factors = A.entries, list(zip(*B.entries))
    return _decide(P, _head, "membership test", factors)[0]


def nnrank3_membership(P) -> MembershipDecision:
    """Decide whether P has nonnegative rank at most 3.

    Exact inputs receive a decidable verdict; float inputs use banded sign
    tests and may come back flagged ``marginal``.  Matrices of rank < 3 are
    ``rank_deficient_in``, rank > 3 is ``out`` with the rank as certificate.
    Zero rows and columns are left out of the witness scan (they do not
    affect the verdict); reported witness indices refer to the matrix as
    given.  The scan stops at the first witness, so ``marginal`` covers
    only the sign tests made up to it.
    """
    return _decide(P, _head, "membership test")[0]


def all_witnesses(P, factors=None):
    """All witnesses (both orientations) with their zero-chord contacts.

    Returns ``(decision, records)`` where ``records`` is empty unless the
    matrix is a rank-3 member.  This is the enumeration the topological
    boundary test quantifies over; its first record is the witness
    ``nnrank3_membership`` reports.  Zero rows and columns are left out, as
    there.

    ``factors`` is an optional exact factorization ``(A, B)`` of P, A
    m-by-3 and B 3-by-n; ``A @ B == P`` is checked exactly and a mismatch
    raises ``DomainError``.  A positive P is then read on A's rows and B's
    columns, and is not eliminated when each factor spans three dimensions.
    The witnesses' signs do not depend on the rank-3 factorization they are
    read on, so the result equals ``all_witnesses(P)``.
    """
    P = _prepare(P)
    if factors is not None:
        factors = _checked_factors(P, factors)
        if not all(map(all, P.signs)):
            factors = None
    return _decide(P, list, "witness enumeration", factors)[:2]


# -- constructive nonnegative factorization -----------------------------


def _build_triangle(lines, points, s, wit: Witness):
    """Triangle vertices, as homogeneous integer points, for a witness.

    Edge lines i, j index ``lines`` and points i', j' index ``points``.  The
    apex is the outer-polygon vertex cut out by edge lines i and j; the other
    two vertices are where the support lines through points i' and j' exit
    the outer polygon.  ``s`` is the chart functional sum(A @ y) up to a
    positive factor, and each vertex w is scaled to s·w > 0, so a·w has the
    sign a takes at the affine point w / (s·w).  Two points are equal when
    their cross product is zero.  A support line meets the polygon in a
    segment from the apex to its exit point, so the first meet with an edge
    line in the polygon that is not the apex is that point.  A zero line
    meets nothing: its meet is zero, off the chart.
    """
    def on_chart(w):
        sigma = _dot(s, w)
        return None if sigma == 0 else w if sigma > 0 else tuple(-x for x in w)

    i, j = wit.i, wit.j
    v = on_chart(_cross(lines[i], lines[j]))

    def exit_point(t):
        support = _cross(v, points[t])
        meets = (on_chart(_cross(support, a)) for k, a in enumerate(lines) if k != i and k != j)
        return next(w for w in meets if w is not None and any(_cross(w, v))
                    and all(_dot(a, w) >= 0 for a in lines))

    return v, exit_point(wit.iprime), exit_point(wit.jprime)


def _low_rank_factorization(P: Matrix, rank: int, form):
    """Nonnegative factors of a rank-1 or rank-2 P from the integer form of
    its padded rank factorization; nonnegative rank equals rank here."""
    lines, line_den, points, den = form
    if rank == 1:  # a column of P times a nonnegative multiple of a row
        return (Matrix.exact([[Fraction(x, c) for x in a] for a, c in zip(lines, line_den)]),
                Matrix.exact([[Fraction(p[k], e) for p, e in zip(points, den)]
                              for k in range(3)]))
    # rank 2: the columns span a pointed planar cone, and a column on each of
    # its two extreme rays gives every column nonnegative coefficients (det
    # times Cramer's), so the loop always breaks
    for a, b in itertools.combinations(range(P.cols), 2):
        (a0, a1, _), (b0, b1, _) = points[a], points[b]
        det = a0 * b1 - a1 * b0
        coeffs = [(y0 * b1 - y1 * b0, a0 * y1 - a1 * y0) for y0, y1, _ in points]
        if det and all(al * det >= 0 and be * det >= 0 for al, be in coeffs):
            break
    # column y of B is points[y] / den[y], which scales its two coefficients
    # by den[a] / den[y] and den[b] / den[y]
    zero = Fraction(0)
    A = Matrix.exact([row[a], row[b], zero] for row in P.entries)
    B = Matrix.exact([[Fraction(al * den[a], det * e) for (al, _), e in zip(coeffs, den)],
                      [Fraction(be * den[b], det * e) for (_, be), e in zip(coeffs, den)],
                      [zero] * P.cols])
    return A, B


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
    dec, records, form = _decide(P, iter, "factorization")
    m, n = P.shape
    if dec.rank == 0:
        return Matrix.zeros(m, 3), Matrix.zeros(3, n)
    if not dec:
        raise NotInModelError(f"rank {dec.rank} exceeds 3" if dec.rank > 3
                              else "matrix has nonnegative rank greater than 3")
    rows, cols = _nonzero_lines(P)
    if dec.rank < 3:
        A, B = _low_rank_factorization(P, dec.rank, form)
    elif len(cols) == 3:  # P = P[:, cols] @ E with unit rows E
        A = Matrix.exact([r[j] for j in cols] for r in P.entries)
        B = Matrix.exact([int(j == c) for j in range(n)] for c in cols)
    elif len(rows) == 3:  # P = E @ P[rows, :] with unit columns E
        A = Matrix.exact([int(i == r) for r in rows] for i in range(m))
        B = Matrix.exact(P.entries[i] for i in rows)
    else:
        clean = (_triangle_factors(form, rec.witness) for rec in records)
        A, B = next(filter(None, clean), (None, None))
        if A is None:
            raise ArithmeticError("internal error: no usable witness in either orientation")
    if _cleared_factors(A, B, P) is None:
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
    A witness's triangle holds every point, so its factors are nonnegative;
    a flat one, with both support points on one line through the apex,
    gives None.  The triangle is built on the lines and points divided by
    the gcds of their entries, as the scan reads them: each vertex is then
    a positive multiple of the one the form's vectors give, which T's column
    scaling cancels, and its integers do not grow with the input's scale.
    """
    lines, line_den, points, point_den = form
    if wit.swapped:
        lines, line_den, points, point_den = points, point_den, lines, line_den
    sigma = lcm(*line_den)  # s = s_int / sigma
    s = [sum(a[k] * (sigma // c) for a, c in zip(lines, line_den)) for k in range(3)]
    W = _build_triangle(list(map(_primitive, lines)), list(map(_primitive, points)), s, wit)
    inverse = [_cross(W[(c + 1) % 3], W[(c + 2) % 3]) for c in range(3)]
    det = _dot(W[0], inverse[0])
    if det == 0:
        return None
    a_num = [[_dot(a, w) for w in W] for a in lines]
    b_num = [[_dot(r, p) for p in points] for r in inverse]
    sw = [_dot(s, w) for w in W]
    A_nn = tuple(tuple(Fraction(sigma * x, c * y) for x, y in zip(row, sw))
                 for row, c in zip(a_num, line_den))
    B_nn = tuple(tuple(Fraction(y * x, sigma * det * e) for x, e in zip(row, point_den))
                 for row, y in zip(b_num, sw))
    if wit.swapped:
        A_nn, B_nn = tuple(zip(*B_nn)), tuple(zip(*A_nn))
    return (Matrix(len(A_nn), 3, A_nn, EXACT), Matrix(3, len(B_nn[0]), B_nn, EXACT))
