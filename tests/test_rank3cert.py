"""Bracket evaluators, membership certification, factorization, polygons."""

from fractions import Fraction

import numpy as np
import pytest

from nnmix import rank3cert
from nnmix.boundary import boundary_test
from nnmix.cli import main
from nnmix.exactla import Matrix, format_matrix, matrix_rank, rref
from nnmix.rank3cert import (DomainError, GeometryError, NotInModelError,
                             all_witnesses, bracket3, meet_join,
                             membership_from_factors, nested_polygons,
                             nnrank3_membership, nonneg_rank3_factorize,
                             six_three, _cross, _det3)

from conftest import (NICE_A, NICE_B, NICE_P, random_rational_matrix, rect_rows,
                      uab_normalized)


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
        real = rank3cert.rank_factorize

        def spy(P, r, *args, **kwargs):
            calls.append(P.shape)
            return real(P, r, *args, **kwargs)

        monkeypatch.setattr(rank3cert, "rank_factorize", spy)
        P = Matrix.exact(NICE_P)
        assert [rec.witness.swapped for rec in all_witnesses(P)[1]] == [True, True]
        calls.clear()
        A, B = nonneg_rank3_factorize(P)
        assert calls == [(4, 4)]
        assert A == Matrix.exact([[0, 18, 5], [4, 24, 0], [16, 0, 20], [16, 12, 5]])
        assert B == Matrix.exact([["0", "0", "1/2", "1/2"], ["1/6", "2/3", "1/6", "0"],
                                  ["3/5", "1/5", "0", "1/5"]])


class TestNestedPolygons:
    def test_rectangle_family_gives_square_and_rectangle(self):
        P = Matrix.exact(rect_rows(Fraction(1, 4), Fraction(1, 4)))
        np_ = nested_polygons(P)
        ambient = {tuple(v) for v in np_.outer_ambient}
        half = Fraction(1, 2)
        assert ambient == {(half, half, 0, 0), (0, half, half, 0),
                           (0, 0, half, half), (half, 0, 0, half)}
        assert len(np_.inner) == 4

    def test_inner_polygon_equal_to_outer_for_vertex_columns(self):
        half = Fraction(1, 2)
        cols = [(half, half, 0, 0), (0, half, half, 0),
                (0, 0, half, half), (half, 0, 0, half)]
        P = Matrix.exact([[cols[j][i] for j in range(4)] for i in range(4)])
        np_ = nested_polygons(P)
        assert set(np_.inner) == set(np_.outer)

    def test_inner_contained_in_outer(self):
        rng = np.random.default_rng(20)
        count = 0
        while count < 10:
            A = random_rational_matrix(rng, 4, 3, num_range=5)
            B = random_rational_matrix(rng, 3, 5, num_range=5)
            P = A @ B
            if matrix_rank(P) != 3 or any(all(x == 0 for x in P.col(j))
                                          for j in range(P.cols)):
                continue
            count += 1
            np_ = nested_polygons(P)
            hull = np_.outer
            # each inner point must be inside the outer cycle (cross products
            # against every directed edge share a sign)
            for q in np_.inner:
                for t in range(len(hull)):
                    p0, p1 = hull[t], hull[(t + 1) % len(hull)]
                    cr = ((p1[0] - p0[0]) * (q[1] - p0[1])
                          - (p1[1] - p0[1]) * (q[0] - p0[0]))
                    assert cr >= 0

    def test_rank_requirement(self):
        with pytest.raises(GeometryError):
            nested_polygons(Matrix.exact([[1, 2], [2, 4]]))

    def test_zero_column_rejected(self):
        with pytest.raises(GeometryError):
            nested_polygons(Matrix.exact([[1, 0, 0], [0, 0, 1], [1, 0, 2]]))


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
    # the first 12 noisy inputs; at 6, 8, 10 and 11 the SVD counts rank 3
    # while the elimination finds four pivots
    INPUTS = list(_noisy_rank3_floats(12))
    SPLIT = (6, 8, 10, 11)

    def test_rank_is_the_pivot_count(self):
        for k, M in enumerate(self.INPUTS):
            pivots = len(rref(M)[1])
            assert (matrix_rank(M) != pivots) == (k in self.SPLIT), k
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

    for name in ("rank_factorize", "matrix_rank"):
        monkeypatch.setattr(rank3cert, name, spy(name))
    rng = np.random.default_rng(4)
    cases = []
    for rank in (1, 2, 3, 4):
        A = Matrix.exact(rng.integers(1, 8, size=(5, rank)).tolist())
        B = Matrix.exact(rng.integers(1, 8, size=(rank, 5)).tolist())
        cases.append((rank, A @ B, A, B))
    cases.append((3, Matrix.exact(NICE_P), Matrix.exact(NICE_A), Matrix.exact(NICE_B)))
    entry_points = [nnrank3_membership, all_witnesses, boundary_test,
                    nonneg_rank3_factorize, nested_polygons]
    for rank, P, A, B in cases:
        assert len(rref(P)[1]) == rank
        for entry in entry_points + [lambda P: membership_from_factors(A, B)]:
            calls.clear()
            try:
                entry(P)
            except (NotInModelError, GeometryError):
                pass
            assert calls == ["rank_factorize"], (entry, P)
    zero = Matrix.zeros(4, 4)
    for entry in entry_points:
        calls.clear()
        try:
            entry(zero)
        except GeometryError:
            pass
        assert calls == [], entry
