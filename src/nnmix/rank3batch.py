"""The orientation batch of the witness scan: every decision of one exact
orientation made up front in float64, behind a static filter.

:func:`nnmix.rank3cert.all_witnesses` (and so ``boundary_test``) has an
orientation decided here when a candidate has at least
``rank3cert._ORIENTATION_BATCH_MIN`` chord values; the scan then walks the
decisions, so records, touches and failure logs are the lazy scan's.  The
scan imports this module with the first such orientation, so the witness
scan loads numpy only when it builds a batch.

The batch runs in float64 behind a static filter (Fortune and Van Wyk, ACM
TOG 15, 1996; Shewchuk, DCG 18, 1997): a value ŝ is sure when
|ŝ| > 2e-15·m, where m is the sum of the magnitudes of its terms expanded
down to the integers the float evaluation starts from.  V and F are float
dot products, so with |V|_k = |v|·|a_k| and |F|_t(u) = |v|·|p_t × p_u| the
chord value x·y − z_k·q_l(k') has
m = (|V|_k·|q_l(i')| + |V|_l·|q_k(i')|)·|F|_j'(k') + |F|_j'(i')·|V|_k·|q_l(k')|,
and the same filter decides the signs of V and F themselves.  Each term
passes through at most fifteen roundings: V and F take five (two
conversions, a product, two sums), x three more with the conversion of q,
x·y six more and the difference one.  So |ŝ − s| <= gamma_15·m with
gamma_15 = 15u/(1 − 15u) < 1.67e-15 for u = 2^-53; the bound leaves margin
for the roundings of m itself, and as the tables hold integers no value
underflows.  A sure ŝ has the sign of s, and s is not zero.  Every other
value, zeros, nan and inf included, is recomputed on the integers
(``_ExactSigns.rechecks`` counts them), so touches stay exact; an integer
beyond the float range sends the orientation to the lazy scan.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .rank3cert import _chord_factors, _dot, _support_table

# The batch evaluates at most this many (k, l, k') entries of its candidates'
# blocks in one stack, which bounds its memory: 15 candidates at 12x12, 5 at
# 16x16.
_CHORD_CHUNK = 8192
# The static filters' relative bound on a float value computed from integer
# tables: a term passes through at most fifteen roundings, and
# gamma_15 = 15u/(1 − 15u) < 1.67e-15 for u = 2^-53, with margin.
_FILTER = 2e-15
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None, None]


@functools.lru_cache(maxsize=64)
def _pairs_of(M: int):
    """The pairs k < l of range(M) in combination order, as a tuple and as
    index rows (k, l).  Shared by every caller, so the array is read-only."""
    pairs = tuple(itertools.combinations(range(M), 2))
    KL = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    KL.flags.writeable = False
    return pairs, KL


class _OrientationBatch:
    """Every decision of one exact orientation, made up front for a consumer
    that reads every record.

    Three stages run in float64 from the integer tables, behind the static
    filter, and every value a stage leaves open is recomputed on the integers:

    1. the vertex brackets V of every pair of lines, in one product;
    2. the support tables F of the vertices whose V has one sign, in a second;
    3. the chord values of every candidate (vertex, i', j') whose two points
       support, in stacks of at most ``_CHORD_CHUNK`` entries (``values``
       and ``decide``).

    ``found`` maps each vertex (i, j) whose V has one sign to its support
    flags and its candidates' chord touches (None where a chord product is
    negative); the scan walks them in its own order.
    Raises ``OverflowError`` when an integer, or a bound on the chord values,
    exceeds the float range.
    """

    # an overflow gives inf or nan, which the filters leave to the integers
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, lines, points, ctx, tables, line_map, point_map):
        edges, point_crosses, q = tables
        M, N = len(lines), len(points)
        self.ctx, self.q, self.line_map, self.point_map, self.found = (
            ctx, q, line_map, point_map, {})
        self.every, KL = _pairs_of(M)
        Q = np.array(q, dtype=float)
        QQ = Q[KL[::-1]]  # q_l(t), q_k(t) of every pair
        vertices = [v for i, row in enumerate(edges) for v in row[i + 1:]]
        E, L = np.array(vertices, dtype=float), np.array(lines, dtype=float)
        pc = np.array([c for t, row in enumerate(point_crosses) for c in row[t + 1:]], dtype=float)
        # the chord values' sums of magnitudes are below 27·|e|²·|a|·|p × p'|·|q|
        # (maxima); past the float range with a margin of 3, every value would
        # be left to the integers, and the lazy scan decides faster
        if not np.isfinite(81 * np.abs(E).max() ** 2 * np.abs(L).max() * np.abs(pc).max()
                           * np.abs(Q).max()):
            raise OverflowError("chord values beyond the float range")
        # 1. V[p, k] = v·a_k for the vertex v of pair p; V_i = V_j = 0.  The
        # products are einsum's own loops: a first BLAS call would keep about
        # 0.25 MB of work buffers resident, for products this small
        V, mV = np.einsum("pc,kc->pk", E, L), np.einsum("pc,kc->pk", np.abs(E), np.abs(L))
        rows = np.arange(len(vertices))
        V[rows, KL] = mV[rows, KL] = 0.0
        live = np.flatnonzero(self._one_sign(V, mV, (E != 0).any(1),
                                             lambda p, k: _dot(vertices[p], lines[k])))
        if not live.size:
            return
        # 2. F[a, t, u] = v·(p_t × p_u) of the live vertices; F[a, t, t] = 0
        T, U = _pairs_of(N)[1]
        PC = np.zeros((N, N, 3))
        PC[T, U], PC[U, T] = pc, -pc
        Es, (I, J), S = E[live], KL[:, live].tolist(), len(live)
        F = np.einsum("tuc,ac->atu", PC, Es)
        mF = np.einsum("tuc,ac->atu", np.abs(PC), np.abs(Es))
        exact = {}

        def exact_of(a):  # the integer V and F of live vertex a, for the rechecks
            if a not in exact:  # on integers V_i = V_j = 0 exactly
                v = vertices[live[a]]
                exact[a] = [_dot(v, line) for line in lines], _support_table(v, point_crosses)
            return exact[a]

        # p_t supports when it is not the vertex (q_i(t), q_j(t) not both 0)
        # and F_t has one sign
        ok = self._one_sign(F.reshape(S * N, N), mF.reshape(S * N, N),
                            ((Q[I] != 0) | (Q[J] != 0)).ravel(),
                            lambda r, u: exact_of(r // N)[1][r % N][u])
        # 3. the chord values of every candidate, a chunk of them per stack
        cands = []
        for a in range(S):
            sup = [t for t in range(N) if ok[a * N + t]]
            cands += [(a, ip, jp) for ip in sup for jp in sup if ip != jp]
        # each live vertex's (k, l) rows: the pairs apart from its two lines,
        # by position among all pairs
        apart = (KL.T[live][:, None, :, None] != KL.T[None, :, None, :]).all((2, 3))
        POS = np.nonzero(apart)[1].reshape(S, -1)
        KLs, Vs, mVs = KL[:, POS], V[live], mV[live]
        results, step = [], max(1, _CHORD_CHUNK // (POS.shape[1] * N))
        for lo in range(0, len(cands), step):  # no chunk's arrays outlive its turn
            a, ip, jp = np.array(cands[lo:lo + step]).T
            at, KLc, pos = a[None, :, None], KLs[:, a], POS[a]
            results += self.decide(
                *self.values(Vs[at, KLc], mVs[at, KLc], F[a, jp], mF[a, jp],
                             np.take(QQ, pos, axis=1),
                             np.take(QQ.reshape(2, -1), pos * N + ip[:, None], 1), ip),
                a.tolist(), ip, jp, pos, exact_of)
        by_vertex = [{} for _ in range(S)]
        for (a, ip, jp), touches in zip(cands, results):
            by_vertex[a][ip, jp] = touches
        for a in range(S):
            self.found[I[a], J[a]] = ok[a * N:(a + 1) * N], by_vertex[a]

    def values(self, VV, mVV, y, my, QQ, Qip, ip):
        """The chord values (2, C, R, N) of a stack of C candidates, and where
        the static filter decides them.

        A candidate's block has the vertex's (k, l) pairs in combination order
        as rows and all N points as columns.  ``VV`` (2, C, R) holds V_k and
        V_l of each candidate's (k, l) pairs, ``QQ`` (2, C, R, N) their rows
        q_l and q_k, ``Qip`` (2, C, R) those rows at i', and ``y`` (C, N) the
        support row F_j'.  ``mVV`` and ``my`` are the sums of the magnitudes
        of the terms of V and F (see the module docstring).
        """
        c = np.arange(len(ip))
        t = VV * Qip  # V_k·q_l(i'), V_l·q_k(i')
        s = _PLUS_MINUS * ((t[0] - t[1])[:, :, None] * y[:, None])
        zq = (y[c, ip][:, None] * VV)[..., None] * QQ  # z_k·q_l(k'), z_l·q_k(k')
        s -= zq  # x·y − z_k·q_l(k'), −x·y − z_l·q_k(k')
        # |error| <= gamma_15 times the sum of the magnitudes of the terms;
        # the bound is built in place, which keeps a chunk's peak memory low
        mt, bound = mVV * np.abs(Qip), np.abs(QQ, out=zq)
        bound *= (my[c, ip][:, None] * mVV)[..., None]
        bound += (mt[0] + mt[1])[:, :, None] * my[:, None]
        bound *= _FILTER
        return s, np.abs(s) > bound

    def decide(self, s, sure, a, ip, jp, pos, exact_of) -> list:
        """Each candidate's zero chord triples, or None where a chord product
        is negative, from ``values``.

        Candidate c belongs to live vertex ``a[c]``, and ``pos`` (C, R) holds
        the positions of its (k, l) rows among all pairs.  ``exact_of``
        gives a live vertex's integer vertex brackets and support table,
        which decide every value the filter left open.  A sure value has the
        sign of its exact value, which is not zero.
        """
        stack = np.arange(len(ip))
        decided = sure[0] & sure[1]
        # at k' = i' and k' = j' the two values are never of opposite sign:
        # they are -F_j'(i')·V_l·q_k(k') and -F_j'(i')·V_k·q_l(k'), with V
        # one-signed on a live vertex and q >= 0
        opposite = decided & ((s[0] < 0) != (s[1] < 0))
        negative = opposite.any((1, 2))
        out = [None if neg else [] for neg in negative.tolist()]
        if negative.all():
            return out
        decided[stack, :, ip] = decided[stack, :, jp] = True
        decided[negative] = True
        ctx, q, every, rows = self.ctx, self.q, self.every, pos.tolist()
        ip, jp = ip.tolist(), jp.tolist()
        for c, r, kp in zip(*(x.tolist() for x in np.nonzero(~decided))):
            if out[c] is None:
                continue
            V, F = exact_of(a[c])
            y, (k, l) = F[jp[c]], every[rows[c][r]]
            x, zk, zl = _chord_factors(V, q, ip[c], y[ip[c]], k, l)
            s1 = ctx.sign(x * y[kp] - zk * q[l][kp], "s63")
            s2 = ctx.sign(-x * y[kp] - zl * q[k][kp], "s63")
            ctx.rechecks += 2
            if s1 * s2 < 0:
                out[c] = None
            elif s1 == 0 or s2 == 0:
                out[c].append((self.line_map[k], self.line_map[l], self.point_map[kp]))
        return out

    def _one_sign(self, X, mX, rows, exact) -> list:
        """Whether the nonzero values in each row of X share one sign, for the
        rows marked in ``rows`` (False for the others).

        ``mX`` is the sum of the magnitudes of each value's terms, so a zero
        one is an exact zero; ``exact(row, col)`` gives a value on the
        integers where the filter leaves it open.
        """
        sure = np.abs(X) > _FILTER * mX
        pos, neg = (sure & (X > 0)).any(1), (sure & (X < 0)).any(1)
        ok = rows & ~(pos & neg)
        first = (pos.astype(int) - neg).tolist()
        open_ = ok[:, None] & ~sure & (mX != 0)
        ok = ok.tolist()
        for r, col in zip(*(a.tolist() for a in np.nonzero(open_))):
            if not ok[r]:
                continue
            value = exact(r, col)
            self.ctx.rechecks += 1
            sign = (value > 0) - (value < 0)
            if sign and first[r] and sign != first[r]:
                ok[r] = False
            elif sign:
                first[r] = sign
        return ok
