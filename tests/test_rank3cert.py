"""Bracket evaluators, membership certification, factorization."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from nnmix import rank3cert
from nnmix.boundary import (boundary_test, enumerate_zero_patterns, integer_dist,
                            sample_algebraic_boundary, sample_integer_product)
from nnmix.cli import main
from nnmix.exactla import Matrix, format_matrix, matrix_rank, rank_factorize, rref
from nnmix.families import uab_matrix
from nnmix.harness import BOUNDARY_FRACTION, ExperimentConfig, _boundary_trial
from nnmix.rank3cert import (DomainError, NotInModelError, all_witnesses, bracket3, meet_join,
                             membership_from_factors, nnrank3_membership, nonneg_rank3_factorize,
                             six_three, Witness, WitnessRecord, _chord_factors, _cross,
                             _crosses, _det3, _dot, _ExactSigns, _FloatSigns, _one_sign,
                             _scan_orientation, _support_table, _witness_stream)

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
        with pytest.raises(DomainError, match="product has negative entries"):
            membership_from_factors(Matrix.exact([[1, -1]]), Matrix.exact([[0], [1]]))

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

    def test_exact_thin_members_show_a_witness(self):
        # a rank-3 nonnegative matrix with three rows shows a witness in the
        # first orientation, and one with three columns in the swapped one,
        # also with zero entries and a column (row) on a vertex of the outer
        # triangle; so the thin ``in`` with no witness is never reached on
        # exact input
        rng = np.random.default_rng(31)
        on_vertex = 0
        for n in range(3, 9):
            for _ in range(12):
                rows = rng.integers(0, 4, size=(3, 3)) @ rng.integers(0, 4, size=(3, n))
                rows[:, int(rng.integers(0, n))] = 0
                rows[int(rng.integers(0, 3)), int(rng.integers(0, n))] = 0
                if rng.random() < 0.5:  # a column with two zeros lies on a vertex
                    col = int(rng.integers(0, n))
                    rows[:, col] = 0
                    rows[int(rng.integers(0, 3)), col] = int(rng.integers(1, 9))
                    on_vertex += 1
                for P in (Matrix.exact(rows.tolist()), Matrix.exact(rows.T.tolist())):
                    if matrix_rank(P) != 3:
                        continue
                    dec = nnrank3_membership(P)
                    full, records = all_witnesses(P)
                    assert dec.witness is not None and dec.note is None, P.entries
                    assert full.note is None and records[0].witness == dec.witness
                    assert P.rows != 3 or not dec.witness.swapped
                    assert P.cols != 3 or records[-1].witness.swapped
                    assert boundary_test(P).witnesses == len(records)
        assert on_vertex > 20

    def test_thin_counts_nonzero_rows_and_columns(self):
        # float factors of the thin matrix below with a zero row appended:
        # its product has four rows but three nonzero ones, so with no
        # witness it is ``in`` by its rank, as its stripped product is
        rows = [[1, 0, 1e-3, 0], [0, 1e-6, 1e-2, 0], [1e-4, 0, 0, 1e-1]]
        A, B = rank_factorize(Matrix.from_floats(rows), 3)
        A4 = Matrix.from_floats(list(A.entries) + [(0.0, 0.0, 0.0)])
        want = ("in", None, 3, True, "thin matrix: nonnegative rank equals rank")
        for dec in (membership_from_factors(A4, B), nnrank3_membership(A4 @ B)):
            assert (dec.verdict, dec.witness, dec.rank, dec.marginal, dec.note) == want

    def test_float_zero_rows_take_no_part(self):
        # on these float matrices a zero row between the others, swapped by
        # the pivot search, would break a tie in it otherwise and change the
        # ``marginal`` flag: the decisions and records equal those of the
        # matrix without its zero lines, read in its indices
        for rows in ([[6, 6, 6, 10, 8], [0, 0, 0, 0, 0], [1, 1, 3, 3, 3], [2, 2, 0, 2, 1],
                      [2, 4, 2, 4, 3], [0, 0, 0, 0, 0], [4, 2, 4, 6, 5], [2, 2, 0, 2, 1]],
                     [[0] * 8, [4, 4, 4, 2, 4, 8, 8, 2], [4, 4, 3, 1, 3, 8, 6, 1],
                      [6, 2, 2, 1, 2, 8, 4, 1], [0] * 8, [4, 2, 2, 1, 2, 6, 4, 1]]):
            kept = [i for i, r in enumerate(rows) if any(r)]
            P, S = Matrix.from_floats(rows), Matrix.from_floats([rows[i] for i in kept])
            (dec, records), (want, want_records) = all_witnesses(P), all_witnesses(S)
            assert (dec.verdict, dec.rank, dec.marginal) == (want.verdict, want.rank, want.marginal)
            assert [(w.i, w.j, w.iprime, w.jprime, w.swapped) for w in (r.witness for r in records)] \
                == [(w.i, w.j, kept[w.iprime], kept[w.jprime], True) if w.swapped else
                    (kept[w.i], kept[w.j], w.iprime, w.jprime, False)
                    for w in (r.witness for r in want_records)]
            assert nnrank3_membership(P).marginal == nnrank3_membership(S).marginal

    def test_a_thin_float_matrix_can_show_no_witness(self):
        # the fourth column's RREF coordinates reach 1e10, so every incidence
        # a_l·p_t lies within the band of the largest line times the largest
        # point and no point supports a vertex; swapped, the three unit
        # columns are parallel within the band.  A thin matrix has
        # nonnegative rank equal to its rank, so the verdict is ``in``,
        # flagged; the exact matrix shows a witness
        rows = [["1", "0", "1e-3", "0"], ["0", "1e-6", "1e-2", "0"], ["1e-4", "0", "0", "1e-1"]]
        dec = nnrank3_membership(Matrix.from_floats(rows))
        assert (dec.verdict, dec.witness, dec.rank, dec.marginal, dec.note) == \
            ("in", None, 3, True, "thin matrix: nonnegative rank equals rank")
        for P in (Matrix.exact([[Fraction(x) for x in r] for r in rows]),
                  Matrix.from_floats(rows).transpose()):
            assert nnrank3_membership(P).witness is not None

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

    def test_factors_of_another_inner_dimension_decide_on_the_product(self):
        # U(100, b) has rank 3; its rank factorization lifted through a 3x4 G
        # and a 4x3 H with G @ H = I gives 4x4 factors of the same P, which
        # the scan cannot read as 3-vectors: P is decided on its own
        # elimination, with nnrank3_membership's verdict, witness and rank
        G = Matrix.exact([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]])
        H = Matrix.exact([[2, 1, 1], [2, 3, 2], [3, 3, 4], [-1, -1, -1]])
        assert G @ H == Matrix.identity(3)
        verdicts = set()
        for b in range(20, 60):
            P = uab_matrix(100, b)
            A, B = rank_factorize(P, 3)
            lifted = membership_from_factors(A @ G, H @ B)
            want = nnrank3_membership(P)
            assert (lifted.verdict, lifted.witness, lifted.rank) == \
                (want.verdict, want.witness, want.rank), b
            verdicts.add(want.verdict)
        assert verdicts == {"in", "out"}

    def test_zero_factors_give_the_zero_matrix(self):
        # the zero product is decided before any factor is read
        for r in (2, 3):
            dec = membership_from_factors(Matrix.zeros(4, r), Matrix.zeros(r, 5))
            assert (dec.verdict, dec.rank, dec.witness, dec.note) == \
                ("rank_deficient_in", 0, None, "zero matrix")

    def test_factors_decide_as_their_product(self):
        # zero rows of A and zero columns of B give zero lines of P, which
        # are left out of the scan on the factors as on the product: the
        # decisions and the failure logs agree, "out" ones included
        cases = [(Matrix.zeros(4, 3), Matrix.zeros(3, 5))]
        for b in range(20, 60):
            A, B = rank_factorize(uab_matrix(100, b), 3)
            A0 = Matrix.exact(list(A.entries) + [(0, 0, 0)])
            B0 = Matrix.exact([list(r) + [0] for r in B.entries])
            cases += [(A0, B), (A, B0), (A0, B0)]
        verdicts = set()
        for A, B in cases:
            got, want = membership_from_factors(A, B), nnrank3_membership(A @ B)
            assert (got.as_dict(), got.failure_log) == (want.as_dict(), want.failure_log)
            verdicts.add(want.verdict)
        assert len(cases) == 121 and verdicts == {"in", "out", "rank_deficient_in"}

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

    def test_a_flat_triangle_is_passed_over(self, monkeypatch):
        # the unit square's lines, two points on its diagonal from the vertex
        # (0, 0) and two below it: the two on the diagonal both support the
        # vertex, every chord value of that pair is zero, and their triangle is
        # flat, so the next witness gives the factors
        lines = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]
        points = [(1, 1, 4), (1, 1, 2), (2, 1, 4), (3, 2, 4)]
        P = Matrix.exact([[_dot(a, p) for p in points] for a in lines])
        built, triangle = [], rank3cert._triangle_factors

        def spy(form, wit):
            built.append((wit, triangle(form, wit)))
            return built[-1][1]

        monkeypatch.setattr(rank3cert, "_triangle_factors", spy)
        A, B = nonneg_rank3_factorize(P)
        assert A @ B == P and A.is_nonnegative() and B.is_nonnegative()
        assert [(w, f is None) for w, f in built] == [
            (Witness(0, 1, 0, 1, False), True), (Witness(0, 1, 0, 2, False), False)]
        assert all_witnesses(P)[1][0].touches == ((2, 3, 2), (2, 3, 3))

    def test_internal_errors_stop_a_faulty_construction(self, monkeypatch):
        # the three internal-error checks guard the returned factors against
        # a fault in the parts that build them; each is reached by one fault
        P = Matrix.exact(NICE_P)
        triangle = rank3cert._triangle_factors

        def other_matrix(form, wit):  # factors of 2 P, not of P
            factors = triangle(form, wit)
            return factors and (factors[0].scale(2), factors[1])

        def negated(form, wit):  # (-A)(-B) is still P
            factors = triangle(form, wit)
            return factors and tuple(x.scale(-1) for x in factors)

        for fault, message in ((lambda form, wit: None, "no usable witness"),
                               (other_matrix, "does not reproduce input"),
                               (negated, "has negative entries")):
            with monkeypatch.context() as patch:
                patch.setattr(rank3cert, "_triangle_factors", fault)
                with pytest.raises(ArithmeticError, match=f"internal error: .*{message}"):
                    nonneg_rank3_factorize(P)
        A, B = nonneg_rank3_factorize(P)
        assert A @ B == P and A.is_nonnegative() and B.is_nonnegative()

    def test_builds_only_the_returned_fractions(self, monkeypatch):
        # the triangle runs on ints: the Fractions built are the 3(m + n)
        # entries of the factors
        rng = np.random.default_rng(8)
        for size in (4, 4, 12, 12):
            P = Matrix.exact((rng.integers(1, 10, size=(size, 3))
                              @ rng.integers(1, 10, size=(3, size))).tolist())
            count, (A, B) = fractions_built(monkeypatch, lambda: nonneg_rank3_factorize(P))
            assert count <= 3 * (size + size), (size, count)
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
    # a rank-2 P on an m-by-3 A that spans three dimensions and a B that does not
    A = Matrix.exact(rng.integers(1, 8, size=(5, 3)).tolist())
    B = Matrix.exact((rng.integers(1, 8, size=(3, 2)) @ rng.integers(1, 8, size=(2, 5))).tolist())
    cases.append((2, A @ B, A, B))
    entry_points = [nnrank3_membership, all_witnesses, boundary_test,
                    nonneg_rank3_factorize]
    for rank, P, A, B in cases:
        assert len(rref(P)[1]) == rank
        with_factors = [lambda P: membership_from_factors(A, B)]
        if A.cols == 3:
            with_factors += [lambda P: all_witnesses(P, (A, B)),
                             lambda P: boundary_test(P, factors=(A, B)),
                             lambda P: all_witnesses(P, (A.as_float(), B.as_float())),
                             lambda P: membership_from_factors(A.as_float(), B.as_float())]
        for entry in entry_points + with_factors:
            calls.clear()
            try:
                entry(P)
            except NotInModelError:
                pass
            # exact factors that span three dimensions give P's rank, and P is
            # not eliminated; every other call eliminates P once
            spans = entry in with_factors[:3] and rank == 3
            assert calls == ([] if spans else ["_gauss_jordan"]), (entry, P)
    zero, A, B = Matrix.zeros(4, 4), Matrix.zeros(4, 3), Matrix.zeros(3, 4)
    for entry in entry_points + [lambda P: all_witnesses(P, (A, B)),
                                 lambda P: boundary_test(P, (A, B))]:
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
    It composes each bracket from ``lines`` and ``points``, ignores the
    scan's bracket tables, and logs the scan's tuples.  Its corpus is exact,
    so a sign is the value's own."""
    M, N = len(lines), len(points)

    def sign(value, kind):
        return (value > 0) - (value < 0)

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
                                   and _one_sign(sign(_det3(v, points[t], points[kp]), "mj")
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
                s1 = sign(_det3(tri_point(i, j, ip, k), tri_point(i, j, jp, l),
                                points[kp]), "s63")
                s2 = sign(_det3(tri_point(i, j, ip, l), tri_point(i, j, jp, k),
                                points[kp]), "s63")
                if s1 * s2 < 0:
                    return None
                if s1 == 0 or s2 == 0:
                    touches.append((line_map[k], line_map[l], point_map[kp]))
        return touches

    for i in range(M):
        for j in range(i + 1, M):
            if vertex(i, j) is None:
                log.append((swapped, line_map[i], line_map[j], None, None,
                            "edge lines are parallel"))
                continue
            if not _one_sign(sign(_det3(lines[i], lines[j], lines[k]), "b3")
                             for k in range(M) if k not in (i, j)):
                log.append((swapped, line_map[i], line_map[j], None, None,
                            "vertex sign family mixed"))
                continue
            for ip in range(N):
                if not supports(i, j, ip):
                    log.append((swapped, line_map[i], line_map[j], point_map[ip], None,
                                "support family mixed"))
                    continue
                for jp in range(N):
                    if jp == ip or not supports(i, j, jp):
                        continue
                    touches = chord_touches(i, j, ip, jp)
                    if touches is None:
                        log.append((swapped, line_map[i], line_map[j], point_map[ip],
                                    point_map[jp], "chord product negative"))
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


def test_exact_support_table_is_the_incidence_minors():
    # on integers det(v, p_t, p_u) = q_i(t)·q_j(u) − q_i(u)·q_j(t) for
    # v = a_i × a_j, as the exact row reader forms it: every vertex of
    # seeded lines and points, zero rows among them, in both orientations;
    # the identity holds for incidences of any sign
    rng = np.random.default_rng(31)
    signs = set()
    for t in range(40):
        m, n = (int(x) for x in rng.integers(3, 8, size=2))
        rows = [tuple(int(x) for x in rng.integers(-9, 10, size=3)) for _ in range(m)]
        cols = [tuple(int(x) for x in rng.integers(-9, 10, size=3)) for _ in range(n)]
        if t % 2:
            rows[t % m] = cols[t % n] = (0, 0, 0)
        for lines, points in ((rows, cols), (cols, rows)):
            point_crosses = _crosses(points)
            q = [[_dot(a, p) for p in points] for a in lines]
            for i, j in itertools.combinations(range(len(lines)), 2):
                v = _cross(lines[i], lines[j])
                read = _ExactSigns.supports(v, q[i], q[j], point_crosses)[2]
                F = [read(t) for t in range(len(points))]
                assert F == _support_table(v, point_crosses), (lines, points, i, j)
                signs.update((x > 0) - (x < 0) for row in F for x in row)
    assert signs == {-1, 0, 1}


def _chord_band_scan(ctx, c1, c2, monkeypatch):
    """The records, log and ``marginal`` flag of one orientation whose every
    candidate has the chord values ``c1`` and ``c2``.

    Lines a_0, a_1 meet at v = (0, 0, 1), and the points p_0 and p_2
    support it, so (0, 1, 0, 2) is a candidate; the incidences are all 1 and
    the chord factors are (x, z_k, z_l) = (0, −c1, −c2), so each chord value
    is c1 or c2 as given.  Every other bracket is an integer, 0 or at least
    1 in size, so only the chord values can fall in a band."""
    lines = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    points = [(1, 0, 1), (1, 1, 1), (0, 1, 1)]
    if isinstance(ctx, _FloatSigns):
        lines, points = ([tuple(map(float, u)) for u in vs] for vs in (lines, points))
    zero = c1 * 0
    monkeypatch.setattr(rank3cert, "_chord_factors", lambda *args: (zero, -c1, -c2))
    tables = _crosses(lines), _crosses(points), [[zero + 1] * 3 for _ in lines]
    log = []
    records = list(_scan_orientation(lines, points, ctx, False, range(4), range(3), log, tables))
    return records, log, ctx.marginal


def test_inline_chord_band_is_the_sign_rule(monkeypatch):
    # the scan compares its chord values with ctx.band inline; the result is
    # the one _FloatSigns.sign gives, marginal flag included, at the band's
    # edges and the floats on either side of them; on exact input the band
    # is 0 and a sign is the value's own
    band = _FloatSigns(1.0, 1.0).band
    assert band == _FloatSigns(1.0, 1.0).bands["s63"] > 0 and _ExactSigns.band == 0
    edges = [band, math.nextafter(band, 0.0), math.nextafter(band, 1.0)]
    floats = [0.0, 5e-324, -5e-324, 1.0, -1.0] + edges + [-x for x in edges]
    cases = [(_FloatSigns(1.0, 1.0), c1, c2) for c1 in floats for c2 in floats]
    cases += [(_ExactSigns(), c1, c2) for c1 in (-1, 0, 1) for c2 in (-1, 0, 1)]
    seen = set()
    for ctx, c1, c2 in cases:
        ref = _FloatSigns(1.0, 1.0)  # the sign rule, on a flag of its own
        if isinstance(ctx, _FloatSigns):
            s1, s2 = ref.sign(c1, "s63"), ref.sign(c2, "s63")
        else:
            s1, s2 = (c1 > 0) - (c1 < 0), (c2 > 0) - (c2 < 0)
        records, log, marginal = _chord_band_scan(ctx, c1, c2, monkeypatch)
        negative = [entry for entry in log if entry[-1] == "chord product negative"]
        if s1 * s2 < 0:
            assert not records and negative, (c1, c2)
        else:
            touching = s1 == 0 or s2 == 0
            assert not negative and all(bool(rec.touches) == touching for rec in records)
            found = dict(records)
            assert found[Witness(0, 1, 0, 2, False)] == (((2, 3, 1),) if touching else ())
        assert marginal == ref.marginal, (c1, c2)
        seen.add((s1 * s2 < 0, s1 == 0 or s2 == 0, marginal))
    assert seen == {(True, False, False), (False, True, True), (False, True, False),
                    (False, False, False)}


def test_swapping_the_support_points_mirrors_a_candidate():
    # with L1 and L2 swapped the two chord brackets trade places with a sign
    # change, det(L2 × a_k, L1 × a_l, p) = −det(L1 × a_l, L2 × a_k, p); so an
    # exact candidate (i, j, i', j') is a witness, with the same touches,
    # exactly when (i, j, j', i') is one, and the two are logged "chord
    # product negative" together
    for rows, cols in chord_configurations(20, seed=44):
        B = [[c[r] for c in cols] for r in range(3)]
        for k, l in itertools.permutations((2, 3, 4), 2):
            for ip, jp, kp in itertools.permutations(range(5), 3):
                assert six_three(rows, B, 0, 1, k, l, jp, ip, kp) == \
                    -six_three(rows, B, 0, 1, l, k, ip, jp, kp)
    rng = np.random.default_rng(0)
    patterns = enumerate_zero_patterns(4, 4)
    inputs = [(P, factors) for P, factors in scan_corpus() if factors]
    for t in range(200):
        _, A, B = sample_algebraic_boundary(patterns[t % len(patterns)], rng, integer_dist())
        inputs.append((A @ B, (A, B)))
    for size in (4, 5, 6, 8):
        for _ in range(10):
            A = Matrix.exact(rng.integers(0, 10, (size, 3)).tolist())
            B = Matrix.exact(rng.integers(0, 10, (3, size)).tolist())
            inputs.append((A @ B, (A, B)))
    witnesses = touching = negative = 0
    for P, (A, B) in inputs:
        lines = [tuple(r) for r in A.entries]
        points = list(zip(*B.entries))
        records, log, _ = _witness_stream(lines, points, "exact", range(P.rows), range(P.cols))
        found = {rec.witness: rec.touches for rec in records}
        for w, touches in found.items():
            assert found.get(w._replace(iprime=w.jprime, jprime=w.iprime)) == touches, w
        rejected = {entry[:5] for entry in log if entry[-1] == "chord product negative"}
        for swapped, i, j, ip, jp in rejected:
            assert (swapped, i, j, jp, ip) in rejected
        witnesses += len(found)
        touching += sum(1 for touches in found.values() if touches)
        negative += len(rejected)
    assert witnesses > 4000 and touching > 400 and negative > 400, (witnesses, touching, negative)


def _positive_rank3_factors(seed):
    """Seeded integer (A, B) whose product is positive of rank 3: stratum
    factors of every 4x4 pattern, each with its transpose (the other
    kind), and 4x4 to 8x8 integer products."""
    rng = np.random.default_rng(seed)
    patterns = enumerate_zero_patterns(4, 4)
    for t in range(24):
        _, rows, cols = sample_integer_product(patterns[t % len(patterns)], rng,
                                               integer_dist())[:3]
        A, B = Matrix.exact(rows), Matrix.exact(zip(*cols))
        yield A, B
        yield B.transpose(), A.transpose()
    for size in (4, 5, 6, 8):
        for _ in range(2):
            A = Matrix.exact(rng.integers(1, 10, (size, 3)).tolist())
            B = Matrix.exact(rng.integers(1, 10, (3, size)).tolist())
            yield A, B


def _six_three_orientation(A, B, swapped):
    """The records and the "chord product negative" candidates of one
    orientation, with every ordered candidate's chord values evaluated by
    ``six_three`` on its own: the rows of A are the lines, the columns of B
    the points."""
    M, N = A.rows, B.cols
    sign = lambda x: (x > 0) - (x < 0)  # noqa: E731
    records, negative = [], []
    for i, j in itertools.combinations(range(M), 2):
        v = _cross(A.entries[i], A.entries[j])
        if not any(v) or not _one_sign(sign(bracket3(A.entries, i, j, k))
                                       for k in range(M) if k not in (i, j)):
            continue
        supports = [any(_cross(v, p)) and _one_sign(sign(meet_join(A.entries, B.entries,
                                                                   i, j, t, u))
                                                     for u in range(N) if u != t)
                    for t, p in enumerate(zip(*B.entries))]
        pairs = list(itertools.combinations([k for k in range(M) if k not in (i, j)], 2))
        for ip, jp in itertools.permutations(range(N), 2):
            if not (supports[ip] and supports[jp]):
                continue
            values = [((k, l, kp), six_three(A.entries, B.entries, i, j, k, l, ip, jp, kp),
                       six_three(A.entries, B.entries, i, j, l, k, ip, jp, kp))
                      for k, l in pairs for kp in range(N) if kp not in (ip, jp)]
            if any(c1 * c2 < 0 for _, c1, c2 in values):
                negative.append((swapped, i, j, ip, jp))
            else:
                records.append(WitnessRecord(Witness(i, j, ip, jp, swapped),
                                             tuple(t for t, c1, c2 in values if not c1 * c2)))
    return records, negative


def test_full_enumeration_is_every_candidate_by_six_three(monkeypatch):
    # the scan decides a mirror from its first candidate; evaluated on its
    # own, every ordered candidate gives the same records, touches and
    # "chord product negative" entries, in the same order
    logs, stream = [], rank3cert._witness_stream

    def spy(*args):
        out = stream(*args)
        logs.append(out[1])
        return out

    monkeypatch.setattr(rank3cert, "_witness_stream", spy)
    touching = negative = 0
    for A, B in _positive_rank3_factors(46):
        logs.clear()
        decision, records = all_witnesses(A @ B, (A, B))
        assert decision.rank == 3 and len(logs) == 1
        want, rejected = _six_three_orientation(A, B, False)
        swapped = _six_three_orientation(B.transpose(), A.transpose(), True)
        assert records == want + swapped[0], (A, B)
        assert [e[:5] for e in logs[0] if e[-1] == "chord product negative"] == \
            rejected + swapped[1], (A, B)
        touching += sum(1 for rec in records if rec.touches)
        negative += len(rejected) + len(swapped[1])
    assert touching >= 20 and negative >= 20, (touching, negative)


def test_full_enumeration_evaluates_one_candidate_of_each_mirror(monkeypatch):
    # on exact input the mirror (i, j, j', i') of a candidate with i' < j'
    # takes its decision, so a full enumeration forms the chord factors of
    # half the candidates it forms when each is evaluated, as floats do
    calls, chord_factors = [], rank3cert._chord_factors

    def spy(*args):
        calls.append(args)
        return chord_factors(*args)

    monkeypatch.setattr(rank3cert, "_chord_factors", spy)
    total = 0
    for A, B in _positive_rank3_factors(47):
        P = A @ B
        calls.clear()
        once = all_witnesses(P), boundary_test(P).as_dict()
        counted = len(calls)
        with monkeypatch.context() as each:
            each.setattr(_ExactSigns, "mirrors", False)
            calls.clear()
            assert (all_witnesses(P), boundary_test(P).as_dict()) == once
        assert len(calls) == 2 * counted, P
        total += counted
    assert total > 1000, total


def test_exact_support_flags_are_the_lazy_rule():
    # _ExactSigns decides a vertex's N support flags at once by comparing
    # slopes; each is the row rule, p_t is not the vertex and row F[t] of
    # the incidence minors shares one sign, which the float flags apply as
    # they are read.  On every vertex of seeded nonnegative lines and
    # points, with zero rows and a point planted at the vertex of lines 0
    # and 1, and on incidence pairs with ties at the extreme slopes
    rng = np.random.default_rng(33)
    seen = set()
    pairs = []
    for t in range(40):
        m, n = (int(x) for x in rng.integers(3, 8, size=2))
        rows = [tuple(int(x) for x in rng.integers(0, 10, size=3)) for _ in range(m)]
        cols = [tuple(int(x) for x in rng.integers(0, 10, size=3)) for _ in range(n)]
        rows[0], rows[1] = (0, *rows[0][1:]), (0, *rows[1][1:])
        cols[(t + 1) % n] = (int(rng.integers(1, 10)), 0, 0)  # on a_0 and a_1
        if t % 2:
            rows[t % m] = cols[t % n] = (0, 0, 0)
        for lines, points in ((rows, cols), (cols, rows)):
            q = [[_dot(a, p) for p in points] for a in lines]
            pairs += [(q[i], q[j]) for i, j in itertools.combinations(range(len(lines)), 2)]
    pairs += [([1, 2, 3, 5], [1, 2, 1, 0]),    # two points on the largest slope's ray
              ([4, 0, 6, 3], [0, 5, 0, 1]),    # ties on both axes
              ([0, 1, 2, 1], [0, 1, 1, 3]),    # a point at the vertex
              ([1, 0, 2, 3], [2, 0, 4, 6]),    # every point collinear with v
              ([0, 0, 5, 0], [0, 0, 7, 0])]    # one point off the vertex
    for qi, qj in pairs:
        assert min(qi + qj) >= 0
        N = len(qi)
        F = [[qi[t] * qj[u] - qi[u] * qj[t] for u in range(N)] for t in range(N)]
        rule = [(qi[u] or qj[u]) != 0 and _ExactSigns.one_sign(F[u], "mj") for u in range(N)]
        assert _ExactSigns.supports(None, qi, qj, None)[:2] == (
            rule, [u for u, flag in enumerate(rule) if flag]), (qi, qj)
        # v = (0, 0, 1) and p_t = (q_i(t), q_j(t), 1) realize the pair, so
        # the float table is these minors, exactly on small integers
        points = [(float(x), float(y), 1.0) for x, y in zip(qi, qj)]
        ok, reach, _ = _FloatSigns(1.0, 1.0).supports(
            (0.0, 0.0, 1.0), [p[0] for p in points], [p[1] for p in points], _crosses(points))
        assert [ok[u] for u in range(N)] == rule and reach == range(N), (qi, qj)
        seen.update((flag, qi[u] == qj[u] == 0) for u, flag in enumerate(rule))
    assert seen == {(True, False), (False, False), (False, True)}
    assert len(pairs) >= 850 + 5, len(pairs)


def test_exact_scan_reads_nonnegative_incidences(monkeypatch):
    # the exact support flags compare slopes, which orders the supporting
    # points only when the incidence pairs lie in one closed quadrant:
    # every pair an entry point hands _ExactSigns.supports has no negative
    # entry, each incidence a positive multiple of an entry of P
    seen = []
    supports = _ExactSigns.supports

    def spy(v, qi, qj, point_crosses):
        seen.append(min(*qi, *qj))
        return supports(v, qi, qj, point_crosses)

    monkeypatch.setattr(_ExactSigns, "supports", staticmethod(spy))
    for P, factors in _chord_path_corpus():
        if P.backend != "exact":
            continue
        nnrank3_membership(P)
        all_witnesses(P)
        boundary_test(P)
        try:
            nonneg_rank3_factorize(P)
        except NotInModelError:
            pass
        if factors:
            all_witnesses(P, factors)
            membership_from_factors(*factors)
    for trial in range(300):
        _boundary_trial(ExperimentConfig(mode=BOUNDARY_FRACTION, seed=0), trial)
    assert min(seen) >= 0 and len(seen) > 4500, (min(seen), len(seen))


def test_float_support_flags_are_decided_as_read(monkeypatch):
    # a float flag is decided when the scan first reads it: a head reader
    # decides fewer than a full enumeration, and at the vertex of its first
    # witness it has decided the flags of points 0..max(i', j'), in order
    decided = []  # per vertex, the points whose flag was decided
    supports, one_sign = _FloatSigns.supports, _FloatSigns.one_sign

    def supports_spy(self, v, qi, qj, point_crosses):
        ok, reach, row = supports(self, v, qi, qj, point_crosses)
        decided.append(({id(row(t)): t for t in reach}, []))
        return ok, reach, row

    def one_sign_spy(self, values, kind):
        if kind == "mj":
            points, flags = decided[-1]
            flags.append(points[id(values)])
        return one_sign(self, values, kind)

    monkeypatch.setattr(_FloatSigns, "supports", supports_spy)
    monkeypatch.setattr(_FloatSigns, "one_sign", one_sign_spy)
    short = 0
    for P, _ in _chord_path_corpus():
        if P.backend != "float":
            continue
        decided.clear()
        wit = nnrank3_membership(P).witness
        if wit is None:
            continue
        head = sum(len(flags) for _, flags in decided)
        last = max(wit.iprime, wit.jprime)
        assert decided[-1][1] == list(range(last + 1)), P
        decided.clear()
        all_witnesses(P)
        assert head < sum(len(flags) for _, flags in decided), P
        short += last < len(decided[-1][0]) - 1
    assert short >= 40, short


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
    for (P, factors), got in zip(corpus, expanded):
        assert got == _scan_outputs(P, factors), P
    touching = sum(1 for out in expanded if any(rec.touches for rec in out[4]))
    logged = sum(1 for out in expanded if any("chord product negative" in line
                                              for line in out[3]))
    assert touching >= 20 and logged >= 15, (touching, logged)


def test_members_never_format_the_log(monkeypatch):
    # a member's scan rejects candidates, but only an out decision carries
    # the log, so the formatter is never called
    logs, stream = [], rank3cert._witness_stream

    def spy(*args):
        out = stream(*args)
        logs.append(out[1])
        return out

    def refuse(entry):
        raise AssertionError(f"a member formatted the log entry {entry}")

    monkeypatch.setattr(rank3cert, "_witness_stream", spy)
    monkeypatch.setattr(rank3cert, "_log_line", refuse)
    assert nnrank3_membership(NICE_P).verdict == "in"
    decision, records = all_witnesses(NICE_P)
    assert decision.verdict == "in" and decision.failure_log == [] and len(records) == 2
    assert boundary_test(NICE_P).status == "boundary"
    assert len(logs) == 3 and all(logs), logs
    assert (False, 0, 1, 1, None, "support family mixed") in logs[1]
    assert (False, 0, 3, None, None, "vertex sign family mixed") in logs[1]


def test_out_decision_formats_the_log_lines():
    # U(2, 0) with a copy of row 0 at half scale: rows 0 and 4 are parallel
    # edge lines, and all four reasons appear in both orientations
    P = [[2, 2, 0, 0], [2, 0, 2, 0], [0, 2, 0, 2], [0, 0, 2, 2], [1, 1, 0, 0]]
    decision = nnrank3_membership(P)
    assert (decision.verdict, decision.rank) == ("out", 3)
    assert decision.failure_log == [
        "candidate (0,1,0,*): support family mixed",
        "candidate (0,1,1,2): chord product negative",
        "candidate (0,1,2,1): chord product negative",
        "candidate (0,1,3,*): support family mixed",
        "candidate (0,2,0,3): chord product negative",
        "candidate (0,2,1,*): support family mixed",
        "candidate (0,2,2,*): support family mixed",
        "candidate (0,2,3,0): chord product negative",
        "rows (0,3): vertex sign family mixed",
        "rows (0,4): edge lines are parallel",
        "rows (1,2): vertex sign family mixed",
        "candidate (1,3,0,3): chord product negative",
        "candidate (1,3,1,*): support family mixed",
        "candidate (1,3,2,*): support family mixed",
        "candidate (1,3,3,0): chord product negative",
        "candidate (1,4,0,*): support family mixed",
        "candidate (1,4,1,2): chord product negative",
        "candidate (1,4,2,1): chord product negative",
        "candidate (1,4,3,*): support family mixed",
        "candidate (2,3,0,*): support family mixed",
        "candidate (2,3,1,2): chord product negative",
        "candidate (2,3,2,1): chord product negative",
        "candidate (2,3,3,*): support family mixed",
        "candidate (2,4,0,3): chord product negative",
        "candidate (2,4,1,*): support family mixed",
        "candidate (2,4,2,*): support family mixed",
        "candidate (2,4,3,0): chord product negative",
        "rows (3,4): vertex sign family mixed",
        "candidate (0,1,0,*): support family mixed",
        "candidate (0,1,1,2): chord product negative",
        "candidate (0,1,2,1): chord product negative",
        "candidate (0,1,3,*): support family mixed",
        "candidate (0,1,4,*): support family mixed",
        "candidate (0,2,0,3): chord product negative",
        "candidate (0,2,0,4): chord product negative",
        "candidate (0,2,1,*): support family mixed",
        "candidate (0,2,2,*): support family mixed",
        "candidate (0,2,3,0): chord product negative",
        "candidate (0,2,3,4): chord product negative",
        "candidate (0,2,4,0): chord product negative",
        "candidate (0,2,4,3): chord product negative",
        "cols (0,3): vertex sign family mixed",
        "cols (1,2): vertex sign family mixed",
        "candidate (1,3,0,3): chord product negative",
        "candidate (1,3,0,4): chord product negative",
        "candidate (1,3,1,*): support family mixed",
        "candidate (1,3,2,*): support family mixed",
        "candidate (1,3,3,0): chord product negative",
        "candidate (1,3,3,4): chord product negative",
        "candidate (1,3,4,0): chord product negative",
        "candidate (1,3,4,3): chord product negative",
        "candidate (2,3,0,*): support family mixed",
        "candidate (2,3,1,2): chord product negative",
        "candidate (2,3,2,1): chord product negative",
        "candidate (2,3,3,*): support family mixed",
        "candidate (2,3,4,*): support family mixed",
    ]


def test_scan_records_are_immutable_values():
    decision, records = all_witnesses(NICE_P)
    assert records == [
        WitnessRecord(Witness(0, 1, 1, 2, True), ((2, 3, 0),)),
        WitnessRecord(Witness(0, 1, 2, 1, True), ((2, 3, 0),)),
    ]
    assert decision.witness == Witness(i=0, j=1, iprime=1, jprime=2, swapped=True)
    assert len({*records, *all_witnesses(NICE_P)[1]}) == 2  # hashable, equal by value
    for rec in records:
        with pytest.raises(AttributeError):
            rec.touches = ()
        with pytest.raises(AttributeError):
            rec.witness.i = 3
    assert list(records[0].witness.as_dict().items()) == [
        ("i", 0), ("j", 1), ("iprime", 1), ("jprime", 2), ("swapped", True)]


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


def test_scaled_products_are_read_in_lowest_terms(monkeypatch):
    # the scan divides each line by the gcd of its entries, as it does each
    # point, so a scaled product is decided on the integers of the unscaled
    # one: the same lines and points, records and classification
    rng = np.random.default_rng(12)
    P = Matrix.exact((rng.integers(1, 10, (12, 3)) @ rng.integers(0, 10, (3, 12))).tolist())
    scanned, stream = [], rank3cert._witness_stream

    def spy(lines, points, *args):
        scanned.append((lines, points))
        return stream(lines, points, *args)

    monkeypatch.setattr(rank3cert, "_witness_stream", spy)
    want = all_witnesses(P), boundary_test(P).as_dict()
    assert want[0][0].rank == 3 and want[0][1]
    for scale in (10**50, 10**100):
        assert (all_witnesses(P.scale(scale)), boundary_test(P.scale(scale)).as_dict()) == want
    assert len(scanned) == 6 and all(got == scanned[0] for got in scanned)
    assert all(math.gcd(*line) == 1 for line in scanned[0][0])


def test_factorize_builds_its_triangle_in_lowest_terms(monkeypatch):
    # the triangle is built on the lines and points the scan reads, each
    # divided by the gcd of its entries, so a scaled product builds the
    # unscaled one's triangle; the factors still multiply to the input
    rng = np.random.default_rng(12)
    P = Matrix.exact((rng.integers(1, 10, (12, 3)) @ rng.integers(0, 10, (3, 12))).tolist())
    built, build = [], rank3cert._build_triangle

    def spy(lines, points, *args):
        built.append((lines, points))
        return build(lines, points, *args)

    monkeypatch.setattr(rank3cert, "_build_triangle", spy)
    factors = {}
    for scale in (1, 10**100):
        factors[scale] = nonneg_rank3_factorize(P.scale(scale))
        A, B = factors[scale]
        assert A @ B == P.scale(scale) and A.is_nonnegative() and B.is_nonnegative()
    assert len(built) == 2 and built[0] == built[1]
    assert all(math.gcd(*u) == 1 for vectors in built[1] for u in vectors)


def test_four_by_four_boundary_test_builds_no_array(monkeypatch):
    # the witness scan runs on the standard library: a boundary test, the
    # full enumeration and the head readers import no numpy and build no
    # array, at 4x4 and at 12x12
    P, _, _ = sample_algebraic_boundary(enumerate_zero_patterns(4, 4)[0],
                                        np.random.default_rng(7))
    rng = np.random.default_rng(3)
    big = Matrix.exact((rng.integers(1, 10, (12, 3)) @ rng.integers(1, 10, (3, 12))).tolist())
    big_float = big.as_float()
    array, calls = np.array, []

    def counted(*args, **kwargs):
        calls.append(args)
        return array(*args, **kwargs)

    monkeypatch.setattr(np, "array", counted)
    monkeypatch.setitem(sys.modules, "numpy", None)  # an import of numpy now fails
    assert boundary_test(P).witnesses > 0
    assert nnrank3_membership(big) and nnrank3_membership(big_float)
    nonneg_rank3_factorize(big)
    assert boundary_test(big).status == "interior" and all_witnesses(big)[1]
    assert calls == []
