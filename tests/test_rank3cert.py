"""Bracket evaluators, membership certification, factorization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nnmix import rank3batch, rank3cert
from nnmix.boundary import (boundary_test, canonical_pattern, enumerate_zero_patterns,
                            integer_dist, sample_algebraic_boundary, sample_integer_product)
from nnmix.cli import main
from nnmix.exactla import Matrix, format_matrix, matrix_rank, rref
from nnmix.rank3cert import (DomainError, NotInModelError, all_witnesses, bracket3, meet_join,
                             membership_from_factors, nnrank3_membership, nonneg_rank3_factorize,
                             six_three, Witness, WitnessRecord, _chord_factors, _cross,
                             _crosses, _det3, _dot, _one_sign, _support_table)

from conftest import (NICE_A, NICE_B, NICE_P, fractions_built, random_rational_matrix,
                      rect_rows, uab_normalized)
from verdict_corpus import _chord_path_corpus, scan_corpus


def _rand_frac(rng, lo=-9, hi=9, den=7):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))


def _rand_config(rng, m=4, n=4):
    A = [[_rand_frac(rng) for _ in range(3)] for _ in range(m)]
    B = [[_rand_frac(rng) for _ in range(n)] for _ in range(3)]
    return A, B


def twotwo_expansion(ai, aj, bi, bk):
    """The bilinear bracket written out as its twelve monomials."""
    a1, a2, a3 = ai
    c1, c2, c3 = aj
    p1, p2, p3 = bi
    q1, q2, q3 = bk
    return (a1 * c2 * p1 * q2 - a1 * c2 * q1 * p2
            + a1 * c3 * p1 * q3 - a1 * c3 * q1 * p3
            - a2 * c1 * p1 * q2 + a2 * c1 * q1 * p2
            + a2 * c3 * p2 * q3 - a2 * c3 * q2 * p3
            - a3 * c1 * p1 * q3 + a3 * c1 * q1 * p3
            - a3 * c2 * p2 * q3 + a3 * c2 * q2 * p3)


class TestBracket3:
    def test_identity_rows(self):
        assert bracket3(Matrix.identity(3), 0, 1, 2) == 1

    def test_duplicate_row_content_vanishes(self):
        A = Matrix.exact([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert bracket3(A, 0, 1, 2) == 0

    def test_concurrent_lines_vanish(self):
        A = Matrix.exact([[1, 0, 2], [0, 1, 3], [1, 1, 5]])  # row2 = row0 + row1
        assert bracket3(A, 0, 1, 2) == 0

    def test_repeated_indices_rejected(self):
        with pytest.raises(IndexError):
            bracket3(Matrix.identity(3), 0, 0, 1)


class TestMeetJoin:
    def test_equals_twelve_term_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            A, B = _rand_config(rng)
            i, j = 0, 2
            ip, kp = 1, 3
            cols = [tuple(row[c] for row in B) for c in range(4)]
            expected = twotwo_expansion(tuple(A[i]), tuple(A[j]), cols[ip], cols[kp])
            assert meet_join(A, B, i, j, ip, kp) == expected

    def test_repeated_point_vanishes(self):
        rng = np.random.default_rng(12)
        A, B = _rand_config(rng)
        for row in B:
            row[3] = row[1]
        assert meet_join(A, B, 0, 1, 1, 3) == 0

    def test_parallel_lines_vanish(self):
        rng = np.random.default_rng(13)
        A, B = _rand_config(rng)
        A[1] = list(A[0])
        assert meet_join(A, B, 0, 1, 0, 2) == 0


class TestSixThree:
    def test_point_on_constructed_chord_vanishes(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            A, B = _rand_config(rng)
            rows = [tuple(r) for r in A]
            cols = [tuple(row[c] for row in B) for c in range(4)]
            v = _cross(rows[0], rows[1])
            p1 = _cross(_cross(v, cols[0]), rows[2])
            p2 = _cross(_cross(v, cols[1]), rows[3])
            lam = Fraction(2, 5)
            chord_point = tuple(lam * x + (1 - lam) * y for x, y in zip(p1, p2))
            for row, value in zip(B, chord_point):
                row[3] = value
            assert six_three(A, B, 0, 1, 2, 3, 0, 1, 3) == 0

    def test_expansion_has_330_monomials(self, symbolic_oracle):
        sympy, expr, symbols = symbolic_oracle
        poly = sympy.Poly(expr, *symbols)
        assert len(poly.terms()) == 330

    def test_matches_symbolic_expansion_at_random_points(self, symbolic_oracle):
        sympy, expr, symbols = symbolic_oracle
        rng = np.random.default_rng(15)
        for _ in range(50):
            A, B = _rand_config(rng)
            values = [x for row in A for x in row] + [x for row in B for x in row]
            subs = {s: sympy.Rational(v.numerator, v.denominator)
                    for s, v in zip(symbols, values)}
            expected = expr.xreplace(subs)
            got = six_three(A, B, 0, 1, 2, 3, 0, 1, 3)
            assert sympy.Rational(got.numerator, got.denominator) == expected


class TestMembership:
    def test_gap_example_is_out(self):
        assert nnrank3_membership(uab_normalized(1, 0)).verdict == "out"

    def test_threshold_family(self):
        assert nnrank3_membership(uab_normalized(100, 41)).verdict == "out"
        dec = nnrank3_membership(uab_normalized(100, 42))
        assert dec.verdict == "in" and dec.witness is not None

    def test_rectangle_family(self):
        inside = Matrix.exact(rect_rows(Fraction(1, 4), Fraction(1, 4)))
        outside = Matrix.exact(rect_rows(Fraction(1, 2), Fraction(1, 2)))
        assert nnrank3_membership(inside).verdict == "in"
        assert nnrank3_membership(outside).verdict == "out"

    def test_rank_one_positive(self):
        P = Matrix.exact([[i * j for j in (1, 2, 3, 4)] for i in (1, 2, 3, 5)])
        dec = nnrank3_membership(P)
        assert dec.verdict == "rank_deficient_in" and dec.rank == 1

    def test_rank_four_is_out_with_certificate(self):
        dec = nnrank3_membership(Matrix.identity(4))
        assert dec.verdict == "out" and dec.rank == 4

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            nnrank3_membership(Matrix.exact([[1, -1], [0, 1]]))

    def test_zero_rows_and_columns_do_not_change_verdict(self):
        base = uab_normalized(1, 0)
        padded = [[0] * 6] + [[0] + list(r) + [0] for r in base.entries]
        assert nnrank3_membership(Matrix.exact(padded)).verdict == "out"
        base_in = uab_normalized(100, 42)
        padded = [[0] + list(r) + [0] for r in base_in.entries]
        dec = nnrank3_membership(Matrix.exact(padded))
        assert dec.verdict == "in"
        assert dec.witness.iprime != 0  # indices refer to the padded matrix

    def test_thin_matrices_are_members(self):
        rng = np.random.default_rng(16)
        P = random_rational_matrix(rng, 3, 6)
        while matrix_rank(P) < 3:
            P = random_rational_matrix(rng, 3, 6)
        dec = nnrank3_membership(P)
        assert dec.verdict == "in"

    def test_random_products_are_members(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            A = Matrix.exact([[int(rng.integers(0, 10)) for _ in range(3)]
                              for _ in range(4)])
            B = Matrix.exact([[int(rng.integers(0, 10)) for _ in range(5)]
                              for _ in range(3)])
            assert bool(nnrank3_membership(A @ B))

    def test_factorization_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            A = random_rational_matrix(rng, 4, 3, num_range=6)
            B = random_rational_matrix(rng, 3, 4, num_range=6)
            P = A @ B
            if matrix_rank(P) != 3 or not P.is_nonnegative():
                continue
            verdict = nnrank3_membership(P).verdict
            while True:
                G = random_rational_matrix(rng, 3, 3, num_range=4)
                from nnmix.exactla import determinant
                if determinant(G) != 0:
                    break
            Ginv = _inv(G)
            assert membership_from_factors(A @ G, Ginv @ B).verdict == verdict

    def test_transpose_and_scale_invariance(self):
        cases = [uab_normalized(1, 0), uab_normalized(100, 42),
                 Matrix.exact(rect_rows(Fraction(1, 4), Fraction(1, 4))),
                 Matrix.exact(NICE_P)]
        for P in cases:
            v = nnrank3_membership(P).verdict
            assert nnrank3_membership(P.transpose()).verdict == v
            assert nnrank3_membership(P.scale(Fraction(7, 3))).verdict == v

    def test_float_backend_flags_marginal_near_zero(self):
        P = uab_normalized(100, 42).as_float()
        dec = nnrank3_membership(P)
        assert dec.verdict == "in"
        assert dec.backend == "float"

    def test_float_backend_flags_a_touching_stratum_sample_marginal(self):
        # a kind-b stratum sample touches its triangle: as floats, the exact
        # zero chord products come out as rounding residue inside the band
        pattern = next(p for p in enumerate_zero_patterns(4, 4) if p.kind == "b")
        P, _, _ = sample_algebraic_boundary(pattern, np.random.default_rng(0), integer_dist())
        exact, records = all_witnesses(P)
        assert exact.verdict == "in" and any(rec.touches for rec in records)
        dec = nnrank3_membership(P.as_float())
        assert (dec.verdict, dec.backend, dec.marginal) == ("in", "float", True)

    @pytest.mark.parametrize("scale", [1e60, 1e200])
    def test_float_backend_decides_inputs_far_from_one(self, scale):
        # the degree-9 bands and brackets of these lines pass the float range
        # unless the scan rescales them; the scaled product keeps the
        # verdict, witness and flag of the unscaled one, and a power-of-two
        # scale changes no output at all
        rng = np.random.default_rng(5)
        P = rng.integers(1, 10, (5, 3)) @ rng.integers(1, 10, (3, 5))
        base = Matrix.of(P.astype(float).tolist())
        dec = nnrank3_membership(Matrix.of((P * scale).tolist()))
        assert dec.as_dict() == nnrank3_membership(base).as_dict()
        assert dec.verdict == nnrank3_membership(Matrix.exact(P.tolist())).verdict == "in"
        power = math.ldexp(1.0, round(math.log2(scale)))
        assert all_witnesses(Matrix.of((P * power).tolist())) == all_witnesses(base)

    def test_numpy_float_arrays_route_to_float_backend(self):
        P = uab_normalized(100, 42).to_numpy()
        dec = nnrank3_membership(P)
        assert dec.backend == "float"
        assert dec.verdict == "in"

    def test_integer_lists_route_to_exact_backend(self):
        dec = nnrank3_membership([[1, 1], [1, 1]])
        assert dec.backend == "exact"
        assert dec.verdict == "rank_deficient_in"


def _inv(G: Matrix) -> Matrix:
    rows = [list(r) for r in G.entries]
    det = _det3(*[tuple(r) for r in rows])
    cof = [[(rows[(r + 1) % 3][(c + 1) % 3] * rows[(r + 2) % 3][(c + 2) % 3]
             - rows[(r + 1) % 3][(c + 2) % 3] * rows[(r + 2) % 3][(c + 1) % 3])
            for c in range(3)] for r in range(3)]
    return Matrix.exact([[cof[c][r] / det for c in range(3)] for r in range(3)])


class TestFactorize:
    def test_round_trip_on_members(self):
        cases = [uab_normalized(100, 42),
                 Matrix.exact(NICE_P).scale(Fraction(1, 116)),
                 Matrix.exact(rect_rows(Fraction(1, 3), Fraction(1, 2))).scale(Fraction(1, 16))]
        for P in cases:
            A, B = nonneg_rank3_factorize(P)
            assert A.is_nonnegative() and B.is_nonnegative()
            assert A @ B == P

    def test_low_rank_inputs(self):
        rank1 = Matrix.exact([[2, 4], [1, 2], [3, 6]])
        A, B = nonneg_rank3_factorize(rank1)
        assert A @ B == rank1 and A.is_nonnegative() and B.is_nonnegative()
        rank2 = Matrix.exact([[1, 0, 1, 2], [0, 1, 1, 1], [1, 1, 2, 3], [2, 1, 3, 5]])
        A, B = nonneg_rank3_factorize(rank2)
        assert A @ B == rank2 and A.is_nonnegative() and B.is_nonnegative()

    def test_zero_rows_columns_reinserted(self):
        P = Matrix.exact([[1, 0, 2], [0, 0, 0], [2, 0, 4]])
        A, B = nonneg_rank3_factorize(P)
        assert A @ B == P

    def test_zero_matrix(self):
        P = Matrix.zeros(3, 3)
        A, B = nonneg_rank3_factorize(P)
        assert A @ B == P

    def test_refuses_non_members(self):
        with pytest.raises(NotInModelError):
            nonneg_rank3_factorize(uab_normalized(1, 0))
        with pytest.raises(NotInModelError):
            nonneg_rank3_factorize(Matrix.identity(4))

    def test_refuses_float_backend(self):
        with pytest.raises(DomainError):
            nonneg_rank3_factorize(uab_normalized(100, 42).as_float())

    def test_random_soundness_loop(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            A0 = Matrix.exact([[int(rng.integers(0, 8)) for _ in range(3)]
                               for _ in range(4)])
            B0 = Matrix.exact([[int(rng.integers(0, 8)) for _ in range(4)]
                               for _ in range(3)])
            P = A0 @ B0
            A, B = nonneg_rank3_factorize(P)
            assert A @ B == P
            assert A.is_nonnegative() and B.is_nonnegative()


    def test_factors_once_on_a_swapped_witness(self, monkeypatch):
        # NICE_P has no unswapped witness and two swapped ones: the factors
        # come from the transposed triangle of the one rank-3 factorization.
        calls = []
        real = rank3cert._gauss_jordan

        def spy(P, *args, **kwargs):
            calls.append(P.shape)
            return real(P, *args, **kwargs)

        monkeypatch.setattr(rank3cert, "_gauss_jordan", spy)
        P = Matrix.exact(NICE_P)
        assert [rec.witness.swapped for rec in all_witnesses(P)[1]] == [True, True]
        calls.clear()
        A, B = nonneg_rank3_factorize(P)
        assert calls == [(4, 4)]
        assert A == Matrix.exact([[0, 18, 5], [4, 24, 0], [16, 0, 20], [16, 12, 5]])
        assert B == Matrix.exact([["0", "0", "1/2", "1/2"], ["1/6", "2/3", "1/6", "0"],
                                  ["3/5", "1/5", "0", "1/5"]])

    def test_builds_only_the_returned_fractions(self, monkeypatch):
        # the triangle runs on ints: the Fractions built are the 3(m + n)
        # entries of the factors and the one zero that pads stripped lines
        rng = np.random.default_rng(8)
        for size in (4, 4, 12, 12):
            P = Matrix.exact((rng.integers(1, 10, size=(size, 3))
                              @ rng.integers(1, 10, size=(3, size))).tolist())
            count, (A, B) = fractions_built(monkeypatch, lambda: nonneg_rank3_factorize(P))
            assert count <= 3 * (size + size) + 1, (size, count)
            assert A @ B == P and A.is_nonnegative() and B.is_nonnegative()


def test_verdict_invariant_under_positive_diagonal_scaling():
    """Scaling rows and columns by positive rationals preserves nonnegative
    rank, so scrambled threshold-family matrices must keep their verdicts."""
    rng = np.random.default_rng(123)
    for _ in range(50):
        b = int(rng.integers(0, 100))
        want = b * b + 200 * b - 10000 >= 0
        rows = [[100, 100, b, b], [100, b, 100, b],
                [b, 100, b, 100], [b, b, 100, 100]]
        d1 = [Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 10)))
              for _ in range(4)]
        d2 = [Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 10)))
              for _ in range(4)]
        P = Matrix.exact([[d1[i] * rows[i][j] * d2[j] for j in range(4)]
                          for i in range(4)])
        assert bool(nnrank3_membership(P)) == want, b


def test_degenerate_inputs_do_not_crash():
    """Tie-heavy and duplicated-structure matrices exercise the zero-sign
    paths; verdicts must stay coherent with exact factorization."""
    rng = np.random.default_rng(321)
    for _ in range(60):
        vals = [Fraction(int(rng.integers(0, 3))) for _ in range(6)]
        m = int(rng.integers(3, 6))
        n = int(rng.integers(3, 6))
        P = Matrix.exact([[vals[int(rng.integers(0, 6))] for _ in range(n)]
                          for _ in range(m)])
        if not any(x != 0 for row in P.entries for x in row):
            continue
        dec = nnrank3_membership(P)
        if dec.verdict in ("in", "rank_deficient_in"):
            A, B = nonneg_rank3_factorize(P)
            assert A @ B == P
        else:
            assert dec.rank > 3 or min(P.rows, P.cols) >= 4


def test_all_witnesses_reports_contacts_on_planted_products():
    P = Matrix.exact(NICE_P)
    dec, records = all_witnesses(P)
    assert dec.verdict == "in"
    assert records and all(rec.touches for rec in records)


def test_membership_is_the_head_of_the_enumeration():
    rng = np.random.default_rng(23)
    corpus = []
    for m in range(3, 9):
        for rank in range(1, 5):
            n = int(rng.integers(3, 9))
            A = rng.integers(0, 10, size=(m, rank))
            B = rng.integers(0, 10, size=(rank, n))
            corpus.append(Matrix.exact((A @ B).tolist()))
    zero_row = (rng.integers(0, 10, size=(5, 3)) @ rng.integers(0, 10, size=(3, 5)))
    zero_row[2] = 0
    corpus.append(Matrix.exact(zero_row.tolist()))
    for M in corpus:
        for P in (M, M.as_float()):
            dec = nnrank3_membership(P)
            full, records = all_witnesses(P)
            # ``marginal`` is left out: membership stops at the first witness,
            # while the enumeration makes more banded sign tests and may flag
            # one of them.
            assert (dec.verdict, dec.rank, dec.backend) == \
                (full.verdict, full.rank, full.backend)
            assert dec.witness == (records[0].witness if records else None)


def test_removed_scan_options_are_rejected():
    P = Matrix.exact(NICE_P)
    with pytest.raises(TypeError):
        nnrank3_membership(P, first_only=False)
    with pytest.raises(TypeError):
        nnrank3_membership(P, sign_eps=1e-6)
    with pytest.raises(TypeError):
        all_witnesses(P, sign_eps=1e-6)
    with pytest.raises(TypeError):
        membership_from_factors(Matrix.exact(NICE_P), Matrix.identity(4), first_only=False)


def test_decision_serialization():
    dec = nnrank3_membership(uab_normalized(100, 42))
    payload = dec.as_dict()
    assert payload["schema"] == "1"
    assert payload["verdict"] == "in"
    assert set(payload["witness"]) == {"i", "j", "iprime", "jprime", "swapped"}


def _noisy_rank3_floats(count):
    """Near-rank-3 float 4x4 matrices: a uniform(0.1, 1) rank-3 product plus
    eps * uniform(0, 1) noise, eps = 10**uniform(-10.5, -8.5), seeded."""
    rng = np.random.default_rng(1)
    for _ in range(count):
        A = rng.uniform(0.1, 1, size=(4, 3))
        B = rng.uniform(0.1, 1, size=(3, 4))
        noise = rng.uniform(0, 1, size=(4, 4))
        eps = 10 ** rng.uniform(-10.5, -8.5)
        yield Matrix.from_floats((A @ B + eps * noise).tolist())


class TestFloatRank:
    # the first 12 noisy inputs; at 6, 8, 10 and 11 the elimination finds
    # four pivots where an SVD with the same tolerance counts rank 3
    INPUTS = list(_noisy_rank3_floats(12))
    SPLIT = (6, 8, 10, 11)

    def test_rank_is_the_pivot_count(self):
        for k, M in enumerate(self.INPUTS):
            pivots = len(rref(M)[1])
            assert matrix_rank(M) == pivots, k
            dec = nnrank3_membership(M)
            assert dec.rank == pivots, k
            if k in self.SPLIT:
                assert dec.verdict == "out" and dec.failure_log == ["rank 4 exceeds 3"]
                assert nnrank3_membership(M.as_exact()).verdict == "out"

    def test_float_cli_gives_a_verdict(self, tmp_path):
        path = tmp_path / "m.txt"
        for k in self.SPLIT:
            path.write_text(format_matrix(self.INPUTS[k]))
            assert main(["nnrank3", "--input", str(path), "--backend", "float"]) == 1


def test_one_elimination_per_entry_point_call(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(rank3cert, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("_gauss_jordan", "rank_factorize", "matrix_rank"):
        monkeypatch.setattr(rank3cert, name, spy(name))
    rng = np.random.default_rng(4)
    cases = []
    for rank in (1, 2, 3, 4):
        A = Matrix.exact(rng.integers(1, 8, size=(5, rank)).tolist())
        B = Matrix.exact(rng.integers(1, 8, size=(rank, 5)).tolist())
        cases.append((rank, A @ B, A, B))
    cases.append((3, Matrix.exact(NICE_P), Matrix.exact(NICE_A), Matrix.exact(NICE_B)))
    entry_points = [nnrank3_membership, all_witnesses, boundary_test,
                    nonneg_rank3_factorize]
    for rank, P, A, B in cases:
        assert len(rref(P)[1]) == rank
        for entry in entry_points + [lambda P: membership_from_factors(A, B)]:
            calls.clear()
            try:
                entry(P)
            except NotInModelError:
                pass
            assert calls == ["_gauss_jordan"], (entry, P)
    zero = Matrix.zeros(4, 4)
    for entry in entry_points:
        calls.clear()
        entry(zero)
        assert calls == [], entry


# -- the chord expansion against the composed brackets ---------------------


def composed_six_three(rows, cols, i, j, k, l, ip, jp, kp):
    """The chord bracket as the scan evaluated it before the expansion: the
    two triangle points as meets of meets, then one 3x3 determinant."""
    v = _cross(rows[i], rows[j])
    p1 = _cross(_cross(v, cols[ip]), rows[k])
    p2 = _cross(_cross(v, cols[jp]), rows[l])
    return _det3(p1, p2, cols[kp])


def composed_scan_orientation(lines, points, ctx, swapped, line_map, point_map, log, _tables):
    """``rank3cert._scan_orientation`` with every chord bracket composed, as
    it ran before the expansion; the oracle for witness records and logs.
    It composes each bracket from ``lines`` and ``points`` and ignores the
    scan's bracket tables."""
    M, N = len(lines), len(points)
    cross_cache, supp_cache, pt_cache = {}, {}, {}

    def vertex(i, j):
        if (i, j) not in cross_cache:
            v = _cross(lines[i], lines[j])
            cross_cache[i, j] = None if ctx.is_zero_vec(v, "x2") else v
        return cross_cache[i, j]

    def supports(i, j, t):
        if (i, j, t) not in supp_cache:
            v = vertex(i, j)
            supp_cache[i, j, t] = (not ctx.is_zero_vec(_cross(v, points[t]), "x21")
                                   and _one_sign(ctx.sign(_det3(v, points[t], points[kp]), "mj")
                                                 for kp in range(N) if kp != t))
        return supp_cache[i, j, t]

    def tri_point(i, j, t, k):
        if (i, j, t, k) not in pt_cache:
            pt_cache[i, j, t, k] = _cross(_cross(vertex(i, j), points[t]), lines[k])
        return pt_cache[i, j, t, k]

    def chord_touches(i, j, ip, jp):
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


def chord_configurations(count, seed):
    """Seeded integer lines (5x3) and points (3x5) with planted degeneracies:
    a point on a chord (a touching chord), a support point at the vertex,
    one support line for both points with the tested point at the vertex,
    and both edge lines a_2, a_3 through the vertex."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        rows = [tuple(int(x) for x in rng.integers(-9, 10, size=3)) for _ in range(5)]
        cols = [tuple(int(x) for x in rng.integers(-9, 10, size=3)) for _ in range(5)]
        v = _cross(rows[0], rows[1])
        case = t % 5
        if case == 1:    # b_4 on the chord of (k, l) = (2, 3) through b_0, b_1
            p1 = _cross(_cross(v, cols[0]), rows[2])
            p2 = _cross(_cross(v, cols[1]), rows[3])
            a, b = (int(x) for x in rng.integers(-3, 4, size=2))
            cols[4] = tuple(a * x + b * y for x, y in zip(p1, p2))
        elif case == 2:  # support point b_0 at the vertex
            cols[0] = v
        elif case == 3:  # one support line, tested point b_4 at the vertex
            cols[1] = cols[0]
            cols[4] = v
        elif case == 4:  # edge lines a_2 and a_3 through the vertex
            rows[2] = tuple(x + y for x, y in zip(rows[0], rows[1]))
            rows[3] = tuple(x - 2 * y for x, y in zip(rows[0], rows[1]))
        yield rows, cols


def test_chord_expansion_equals_the_composed_bracket():
    signs = set()
    for rows, cols in chord_configurations(60, seed=41):
        B = [[c[r] for c in cols] for r in range(3)]
        for k, l in itertools.permutations((2, 3, 4), 2):
            for ip, jp, kp in itertools.permutations(range(5), 3):
                want = composed_six_three(rows, cols, 0, 1, k, l, ip, jp, kp)
                assert six_three(rows, B, 0, 1, k, l, ip, jp, kp) == want
                signs.add((want > 0) - (want < 0))
    assert signs == {-1, 0, 1}


def test_tables_equal_the_composed_chord_factors():
    # the scan's tables against the brackets they stand for: F is
    # antisymmetric, x[k, l] = L1·(a_k × a_l) and z[k] = det(L1, a_k, L2)
    signs = {"x": set(), "z": set()}
    for rows, cols in chord_configurations(60, seed=43):
        v = _cross(rows[0], rows[1])
        V, F = [_dot(v, a) for a in rows], _support_table(v, _crosses(cols))
        q = [[_dot(a, p) for p in cols] for a in rows]
        for t, u in itertools.product(range(5), repeat=2):
            assert F[t][u] == -F[u][t] == _det3(v, cols[t], cols[u])
        for ip, jp in itertools.permutations(range(5), 2):
            L1, L2 = _cross(v, cols[ip]), _cross(v, cols[jp])
            for k, l in itertools.permutations(range(5), 2):
                x, zk, zl = _chord_factors(V, q, ip, F[jp][ip], k, l)
                assert x == _dot(L1, _cross(rows[k], rows[l]))
                assert (zk, zl) == (_det3(L1, rows[k], L2), _det3(L1, rows[l], L2))
                signs["x"].add((x > 0) - (x < 0))
                signs["z"].add((zk > 0) - (zk < 0))
    assert signs == {"x": {-1, 0, 1}, "z": {-1, 0, 1}}


def test_planted_degeneracies_vanish():
    for t, (rows, cols) in enumerate(chord_configurations(5, seed=42)):
        B = [[c[r] for c in cols] for r in range(3)]
        value = six_three(rows, B, 0, 1, 2, 3, 0, 1, 4)
        assert (value == 0) == (t in (1, 2, 3, 4)), t


def _scan_outputs(P, factors):
    member = nnrank3_membership(P)
    full, records = all_witnesses(P)
    out = [member.as_dict(), member.failure_log, full.as_dict(), full.failure_log,
           records, boundary_test(P).as_dict()]
    try:
        out.append(nonneg_rank3_factorize(P))
    except NotInModelError as exc:
        out.append(str(exc))
    if factors:
        dec = membership_from_factors(*factors)
        out += [dec.as_dict(), dec.failure_log]
    return out


def test_scan_matches_the_composed_scan(monkeypatch):
    corpus = list(scan_corpus())
    expanded = [_scan_outputs(P, factors) for P, factors in corpus]
    monkeypatch.setattr(rank3cert, "_scan_orientation", composed_scan_orientation)
    monkeypatch.setattr(rank3cert, "_ORIENTATION_BATCH_MIN", 10**9)
    for (P, factors), got in zip(corpus, expanded):
        assert got == _scan_outputs(P, factors), P
    touching = sum(1 for out in expanded if any(rec.touches for rec in out[4]))
    logged = sum(1 for out in expanded if any("chord product negative" in line
                                              for line in out[3]))
    assert touching >= 20 and logged >= 15, (touching, logged)


def test_float_verdicts_agree_or_are_marginal():
    # the float/exact contract: a float verdict that differs from the exact
    # verdict on the same rational matrix is flagged marginal, at 4x4 to
    # 16x16 and past 2**53
    calls = 0
    corpus = _chord_path_corpus()
    floats = [(P, factors) for P, factors in corpus if P.backend == "float"]
    # the exact inputs come first, in the order of their float copies
    for (P, factors), (P_float, float_factors) in zip(corpus, floats):
        pairs = [(nnrank3_membership(P), nnrank3_membership(P_float))]
        if factors:
            pairs.append((membership_from_factors(*factors),
                          membership_from_factors(*float_factors)))
        for exact, approx in pairs:
            calls += 1
            assert approx.backend == "float"
            assert approx.verdict == exact.verdict or approx.marginal, P
    assert calls == 126


def _near_parallel_rows(seed) -> Matrix:
    """A seeded 5x5 rank-3 integer product as floats, with one row replaced
    by another row times (1 + 1e-12) plus noise below 1e-13: the two edge
    lines are parallel up to rounding, so their cross is nonzero but inside
    the ``x2`` band."""
    rng = np.random.default_rng(seed)
    P = (rng.integers(0, 10, (5, 3)) @ rng.integers(0, 10, (3, 5))).astype(float)
    i, j = rng.choice(5, 2, replace=False)
    P[i] = P[j] * (1 + 1e-12) + rng.uniform(0, 1e-13, 5)
    return Matrix.from_floats(P.tolist())


def test_rounded_parallel_edge_lines_are_marginal(monkeypatch):
    # is_zero_vec reads a nonzero cross inside its band as parallel edge
    # lines, and flags the call; on some draws no other sign test flags it,
    # so without that flag the float verdict would look sure
    draws = [_near_parallel_rows(seed) for seed in range(500)]
    flagged = [nnrank3_membership(P).marginal for P in draws]

    def unflagged(self, vec, kind):
        return all(abs(x) <= self.bands[kind] for x in vec)

    monkeypatch.setattr(rank3cert._FloatSigns, "is_zero_vec", unflagged)
    unflagged_flags = [nnrank3_membership(P).marginal for P in draws]
    only_zero_vec = [seed for seed, (with_flag, without) in
                     enumerate(zip(flagged, unflagged_flags)) if with_flag and not without]
    assert len(only_zero_vec) >= 3, only_zero_vec
    assert not any(without and not with_flag
                   for with_flag, without in zip(flagged, unflagged_flags))


def test_exact_rechecks_cover_every_touching_triple(monkeypatch):
    # factors with zeros make many chord values vanish; a zero is never
    # decided by the float filter, so each touching pair is rechecked
    rng = np.random.default_rng(18)
    P = Matrix.exact((rng.integers(0, 4, (12, 3)) @ rng.integers(0, 4, (3, 12))).tolist())
    contexts, stream = [], rank3cert._witness_stream

    def spy(*args):
        out = stream(*args)
        contexts.append(out[2])
        return out

    monkeypatch.setattr(rank3cert, "_witness_stream", spy)
    decision, records = all_witnesses(P)
    touching = sum(len(rec.touches) for rec in records)
    assert decision.rank == 3 and touching > 100
    assert contexts[-1].rechecks >= 2 * touching
    monkeypatch.setattr(rank3cert, "_ORIENTATION_BATCH_MIN", 10**9)
    assert all_witnesses(P) == (decision, records)
    assert contexts[-1].rechecks == 0


def _zero_heavy_products():
    """Rank-3 products of factors with entries 0..3 at 8, 12 and 16: repeated
    and proportional lines, so many brackets vanish and the filters leave
    many values to the integers."""
    rng = np.random.default_rng(23)
    for size in (8, 12, 16):
        P = np.zeros((size, size), dtype=int)
        while np.linalg.matrix_rank(P) != 3:
            P = rng.integers(0, 4, (size, 3)) @ rng.integers(0, 4, (3, size))
        yield Matrix.exact(P.tolist())


def _spy_batches(monkeypatch):
    """Count the orientation batches built, and those that met an integer
    beyond the float range."""
    seen, build = {"built": 0, "overflow": 0}, rank3batch._OrientationBatch.__init__

    def counted(self, *args):
        seen["built"] += 1
        try:
            build(self, *args)
        except OverflowError:
            seen["overflow"] += 1
            raise

    monkeypatch.setattr(rank3batch._OrientationBatch, "__init__", counted)
    return seen


def test_orientation_batch_matches_the_scalar_loop(monkeypatch):
    # all_witnesses records, touching triples, failure logs and boundary
    # classifications from one batch per orientation are the scalar loop's,
    # past 2**53 too; past the float range the batch falls back to it
    corpus = [P for P, _ in _chord_path_corpus() if P.backend == "exact"]
    corpus += list(_zero_heavy_products())
    seen, logs, stream = _spy_batches(monkeypatch), [], rank3cert._witness_stream

    def spy(*args):
        out = stream(*args)
        logs.append(out[1])
        return out

    monkeypatch.setattr(rank3cert, "_witness_stream", spy)

    def outputs(P):
        decision, records = all_witnesses(P)
        return [decision, decision.failure_log, records, list(logs[-1]),
                boundary_test(P).as_dict()]

    batched, built = [], []
    for P in corpus:
        before = dict(seen)
        batched.append(outputs(P))
        built.append({k: seen[k] - before[k] for k in seen})
    assert sum(b["built"] for b in built) > 50, built
    # scale(10**200) is read in lowest terms, inside the float range; the big
    # product is not: both orientations overflow, twice
    assert built[-5] == {"built": 4, "overflow": 0}
    assert built[-4] == {"built": 4, "overflow": 4}
    assert sum(any(rec.touches for rec in out[2]) for out in batched) >= 20
    monkeypatch.setattr(rank3cert, "_ORIENTATION_BATCH_MIN", 10**9)
    seen.update(built=0, overflow=0)
    for P, got in zip(corpus, batched):
        assert got == outputs(P), P
    assert seen["built"] == 0


def _with_vanishing_brackets(Pi):
    """Pi with a row sum and one more column appended, so that vertex brackets
    V and support brackets F are exactly zero though no zero pattern forces
    them: in floats they are rounding residue.  With x_k the minor of rows
    i, j, k at three independent columns, x is V of vertex (i, j) times a
    constant; for a vertex whose V has one sign, column 0 plus |x| puts that
    vertex on the line through point 0 and the new point."""
    Pi = Pi + [[a + b for a, b in zip(Pi[0], Pi[1])]]
    cols = next(c for c in itertools.combinations(range(len(Pi[0])), 3)
                if _det3(*([Pi[k][c_] for c_ in c] for k in range(3))))
    for i, j in itertools.combinations(range(len(Pi)), 2):
        x = [_det3(*([Pi[r][c_] for c_ in cols] for r in (i, j, k))) for k in range(len(Pi))]
        if any(x) and (min(x) >= 0 or max(x) <= 0):
            return [row + [row[0] + abs(xk)] for row, xk in zip(Pi, x)]
    raise AssertionError("no vertex with one-signed brackets")


def test_static_filter_decides_large_entries_as_the_integers(monkeypatch):
    # stratum samples with factor entries up to 10**6 take the batch's float
    # values far past 2**53, and their copies from _with_vanishing_brackets
    # hold exact zeros whose float values are rounding residue; behind the
    # static filter every classification and record is the lazy scan's
    contexts, stream = [], rank3cert._witness_stream

    def spy(*args):
        out = stream(*args)
        contexts.append(out[2])
        return out

    monkeypatch.setattr(rank3cert, "_witness_stream", spy)

    def outputs(P):
        return boundary_test(P).as_dict(), all_witnesses(P)[1]

    corpus, batched = [], []
    for m, n in ((6, 7), (8, 8)):
        rng = np.random.default_rng(0)
        samples = [sample_integer_product(canonical_pattern(m, n), rng, integer_dist(1, 10**6))[0]
                   for _ in range(40)]
        plain = [Matrix.exact(Pi) for Pi in samples]
        contexts.clear()
        got = [outputs(P) for P in plain]
        assert sum(ctx.rechecks for ctx in contexts) > 0, (m, n)
        assert any(status["status"] == "boundary" for status, _ in got), (m, n)
        vanishing = [Matrix.exact(_with_vanishing_brackets(Pi)) for Pi in samples]
        corpus += plain + vanishing
        batched += got + [outputs(P) for P in vanishing]
    monkeypatch.setattr(rank3cert, "_ORIENTATION_BATCH_MIN", 10**9)
    for P, want in zip(corpus, batched):
        assert outputs(P) == want, P


def test_scaled_products_are_read_in_lowest_terms(monkeypatch):
    # the scan divides each line by the gcd of its entries, as it does each
    # point, so a scaled product is decided on the integers of the unscaled
    # one: same records and classification, and no batch leaves the float range
    rng = np.random.default_rng(12)
    P = Matrix.exact((rng.integers(1, 10, (12, 3)) @ rng.integers(0, 10, (3, 12))).tolist())
    want = all_witnesses(P), boundary_test(P).as_dict()
    assert want[0][0].rank == 3 and want[0][1]
    seen = _spy_batches(monkeypatch)
    for scale in (10**50, 10**100):
        assert (all_witnesses(P.scale(scale)), boundary_test(P.scale(scale)).as_dict()) == want
    assert seen == {"built": 8, "overflow": 0}


def test_head_readers_build_no_orientation_batch(monkeypatch):
    # membership, membership from factors and factorization stop at a head
    # of the stream, so they keep the lazy scan; only all_witnesses batches
    rng = np.random.default_rng(5)
    A, B = rng.integers(1, 10, (12, 3)), rng.integers(1, 10, (3, 12))
    P = Matrix.exact((A @ B).tolist())
    seen = _spy_batches(monkeypatch)
    assert nnrank3_membership(P)
    assert membership_from_factors(Matrix.exact(A.tolist()), Matrix.exact(B.tolist()))
    nonneg_rank3_factorize(P)
    assert seen["built"] == 0
    all_witnesses(P)
    assert seen["built"] == 2


def test_orientation_batch_evaluates_bounded_chunks(monkeypatch):
    # a 16x16 orientation has more candidates than one chunk holds; no stack
    # passed to the chord evaluator exceeds the chunk
    rng = np.random.default_rng(16)
    P = Matrix.exact((rng.integers(1, 10, (16, 3)) @ rng.integers(1, 10, (3, 16))).tolist())
    stacks, values = [], rank3batch._OrientationBatch.values

    def spy(self, VV, mVV, y, my, QQ, Qip, ip):
        stacks.append((len(ip), QQ[0].size))  # candidates, (k, l, k') entries
        return values(self, VV, mVV, y, my, QQ, Qip, ip)

    monkeypatch.setattr(rank3batch._OrientationBatch, "values", spy)
    decision, records = all_witnesses(P)
    assert decision.verdict == "in" and records
    assert len(stacks) > 2 and max(c for c, _ in stacks) > 1
    assert max(entries for _, entries in stacks) <= rank3batch._CHORD_CHUNK, stacks


def test_four_by_four_boundary_test_builds_no_array(monkeypatch):
    # a 4x4 candidate has 2 chord values: the scalar loop decides them, and
    # numpy is not reached; at 12x12 the head readers take the scalar loop
    # too, and only the batch of a boundary test reaches numpy
    P, _, _ = sample_algebraic_boundary(enumerate_zero_patterns(4, 4)[0],
                                        np.random.default_rng(7))
    rng = np.random.default_rng(3)
    big = Matrix.exact((rng.integers(1, 10, (12, 3)) @ rng.integers(1, 10, (3, 12))).tolist())
    big_float = big.as_float()
    array, calls = np.array, []

    def counted(*args, **kwargs):
        calls.append(args)
        return array(*args, **kwargs)

    monkeypatch.setattr(rank3batch.np, "array", counted)
    assert boundary_test(P).witnesses > 0
    assert calls == []
    assert nnrank3_membership(big) and nnrank3_membership(big_float)
    nonneg_rank3_factorize(big)
    assert calls == []
    boundary_test(big)
    assert calls  # the counter sees the numpy path
