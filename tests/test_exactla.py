"""Exact/float linear algebra: rank, determinant, RREF factorization, I/O."""

import itertools
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmix.exactla import (DimensionError, Matrix, RankExcessError, _coerce_exact,
                           _gauss_jordan, clear_denominators, determinant, format_matrix,
                           format_scalar, from_numpy, matrix_rank, parse_matrix, parse_scalar,
                           rank_factorize, rref)

from conftest import CURVE_BASE, random_rational_matrix, uab_rows


def minor_rank(M: Matrix) -> int:
    """Brute-force rank oracle: the largest k with a nonzero k-by-k minor."""
    m, n = M.shape
    best = 0
    for k in range(1, min(m, n) + 1):
        found = False
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = Matrix.exact([[M.entries[i][j] for j in cols] for i in rows])
                if determinant(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


class TestRank:
    def test_all_ones_is_rank_one(self):
        assert matrix_rank(Matrix.exact([[1] * 4] * 4)) == 1

    def test_identity(self):
        assert matrix_rank(Matrix.identity(3)) == 3

    def test_symmetric_zero_one_pattern_is_rank_three(self):
        M = Matrix.exact(uab_rows(1, 0))
        assert matrix_rank(M) == 3
        assert minor_rank(M) == 3

    def test_minor_oracle_agrees_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            M = random_rational_matrix(rng, 4, 5)
            assert matrix_rank(M) == minor_rank(M)

    def test_invariant_under_permutation_and_transpose(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            M = random_rational_matrix(rng, 4, 4)
            r = matrix_rank(M)
            perm = rng.permutation(4)
            MP = Matrix.exact([[M.entries[i][j] for j in perm] for i in perm])
            assert matrix_rank(MP) == r
            assert matrix_rank(M.transpose()) == r

    def test_float_backend_pivot_tolerance(self):
        # a numerically rank-1 matrix with 1e-12 noise
        base = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        noisy = base + 1e-12 * np.arange(9).reshape(3, 3)
        assert matrix_rank(Matrix.from_floats(noisy.tolist())) == 1
        assert matrix_rank(Matrix.from_floats(noisy.tolist()), tol=1e-15) == 2

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            Matrix.exact([])


class TestDeterminant:
    def test_curve_base_matrix_is_singular(self):
        assert determinant(Matrix.exact(CURVE_BASE)) == 0

    def test_identity(self):
        assert determinant(Matrix.identity(4)) == 1

    def test_repeated_row(self):
        assert determinant(Matrix.exact([[1, 2], [1, 2]])) == 0

    def test_multiplicativity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = random_rational_matrix(rng, 3, 3)
            B = random_rational_matrix(rng, 3, 3)
            assert determinant(A @ B) == determinant(A) * determinant(B)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(Matrix.exact([[1, 2, 3], [4, 5, 6]]))

    @staticmethod
    def leibniz(M: Matrix):
        """Permutation-sum oracle: sum of sign(p) * prod M[i][p(i)]."""
        n = M.rows
        total = Fraction(0)
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = Fraction(-1 if inversions % 2 else 1)
            for i in range(n):
                term *= M.entries[i][perm[i]]
            total += term
        return total

    @pytest.mark.parametrize("rows, det", [
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
        ([[0, 2, 0], [3, 0, 0], [0, 0, 5]], -30),
        ([[0, 1, 2], [3, 4, 5], [6, 7, 9]], -3),
    ], ids=["swap2", "anti3", "cycle3", "swap_scaled", "leading_zero"])
    def test_sign_under_row_swaps(self, rows, det):
        M = Matrix.exact(rows)
        assert determinant(M) == det == self.leibniz(M)

    def test_leibniz_oracle_on_sparse_random_matrices(self):
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            for _ in range(40):
                M = random_rational_matrix(rng, n, n, num_range=3)
                assert determinant(M) == self.leibniz(M)


class TestRankFactorize:
    def test_rank_one_product(self):
        P = Matrix.exact([[2 * c for c in (1, 2, 3, 4)],
                          [3 * c for c in (1, 2, 3, 4)],
                          [5 * c for c in (1, 2, 3, 4)],
                          [7 * c for c in (1, 2, 3, 4)]])
        A, B = rank_factorize(P, 3)
        assert A @ B == P
        nonzero_cols = [k for k in range(3) if any(A.entries[i][k] != 0 for i in range(4))]
        assert len(nonzero_cols) == 1

    def test_exact_reconstruction(self):
        P = Matrix.exact(uab_rows(1, 0))
        A, B = rank_factorize(P, 3)
        assert A.shape == (4, 3) and B.shape == (3, 4)
        assert A @ B == P

    def test_identity_selects_pivot_columns(self):
        I3 = Matrix.identity(3)
        A, B = rank_factorize(I3, 3)
        assert A @ B == I3

    def test_rank_excess_error(self):
        with pytest.raises(RankExcessError) as err:
            rank_factorize(Matrix.identity(4), 3)
        assert str(err.value) == "matrix has rank 4 > requested 3"

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_for_random_low_rank_products(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        A0 = random_rational_matrix(rng, 5, r)
        B0 = random_rational_matrix(rng, r, 4)
        P = A0 @ B0
        A, B = rank_factorize(P, 3)
        assert A @ B == P

    def test_float_reconstruction_close(self):
        rng = np.random.default_rng(8)
        P = np.asarray(rng.uniform(size=(4, 3)) @ rng.uniform(size=(3, 5)))
        A, B = rank_factorize(Matrix.from_floats(P.tolist()), 3)
        err = np.max(np.abs(A.to_numpy() @ B.to_numpy() - P))
        assert err < 1e-10 * np.max(np.abs(P))


def fraction_gauss_jordan(M: Matrix):
    """The Gauss-Jordan elimination on Fractions that the integer one replaced:
    reduced rows, pivot columns and the signed product of the pivots."""
    m, n = M.shape
    work = [list(r) for r in M.entries]
    pivots, det = [], Fraction(1)
    for c in range(n):
        r = len(pivots)
        if r >= m:
            break
        p = next((i for i in range(r, m) if work[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            work[p], work[r] = work[r], work[p]
            det = -det
        pv = work[r][c]
        det *= pv
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots, det


def oracle_matrices(count: int, seed: int):
    """Seeded rational matrices 1x1 to 7x7 with zero entries, zero columns
    and rows that are combinations of earlier rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(1, 8, size=2))
        rows = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                 if rng.random() > 0.3 else Fraction(0) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            if rng.random() < 0.1:
                for row in rows:
                    row[j] = Fraction(0)
        for i in range(2, m):
            if rng.random() < 0.3:
                a, b = (Fraction(int(x), 3) for x in rng.integers(-4, 5, size=2))
                rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
        yield Matrix.exact(rows)


class TestIntegerElimination:
    """The elimination runs on integers; the Fraction one is the oracle."""

    def test_agrees_with_the_fraction_elimination(self):
        ranks = set()
        for M in oracle_matrices(2000, seed=13):
            work, pivots, det = fraction_gauss_jordan(M)
            rank = len(pivots)
            ranks.add(rank)
            assert rref(M) == (Matrix(M.rows, M.cols, tuple(map(tuple, work)), "exact"),
                               tuple(pivots))
            assert matrix_rank(M) == rank
            assert all(isinstance(x, Fraction) for row in rref(M)[0].entries for x in row)
            if M.rows == M.cols:
                assert determinant(M) == (det if rank == M.cols else 0)
                assert isinstance(determinant(M), Fraction)
            if rank > 3:
                with pytest.raises(RankExcessError) as err:
                    rank_factorize(M, 3)
                assert err.value.rank == rank
                continue
            A, B = rank_factorize(M, 3)
            assert A.entries == tuple(tuple([row[c] for c in pivots] + [0] * (3 - rank))
                                      for row in M.entries)
            assert B.entries == tuple(map(tuple, work[:rank] + [[0] * M.cols] * (3 - rank)))
            assert A @ B == M
            assert all(isinstance(x, Fraction) for F in (A, B) for row in F.entries for x in row)
        assert ranks == set(range(8))

    def test_a_scaled_matrix_is_eliminated_on_the_unscaled_integers(self):
        # each cleared row is divided by the gcd of its entries before the
        # elimination, so a scaled matrix gives the rows, pivots and d of the
        # unscaled one; the clearing is returned as it is, and the
        # determinant multiplies the gcds back
        ranks = set()
        for M in oracle_matrices(1000, seed=29):
            work, pivots, d, _, _ = _gauss_jordan(M)
            ranks.add(len(pivots))
            for k in (10**100, Fraction(7, 3), Fraction(1, 10**50)):
                S = M.scale(k)
                got, got_pivots, got_d, cleared, _ = _gauss_jordan(S)
                assert (list(map(list, got)), got_pivots, got_d) == \
                    (list(map(list, work)), pivots, d)
                assert rref(S) == rref(M)
                assert cleared == [clear_denominators(r) for r in S.entries]
                if M.rows == M.cols:
                    assert determinant(S) == k ** M.rows * determinant(M)
        assert ranks == set(range(8))


def test_clear_denominators_returns_an_int_vector_as_it_is():
    ints = (3, 0, -12)
    assert clear_denominators(ints) == (ints, 1) and clear_denominators(ints)[0] is ints
    assert clear_denominators([Fraction(1, 2), 3, Fraction(-5, 6)]) == ([3, 18, -5], 6)
    assert clear_denominators([True, 2]) == ([1, 2], 1)


def fraction_matmul(A: Matrix, B: Matrix) -> tuple:
    """The product by its definition: a sum of Fraction products per entry."""
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), Fraction(0))
                       for col in zip(*B.entries)) for row in A.entries)


class TestProduct:
    """The exact product clears rows and columns to ints; the Fraction
    definition is the oracle."""

    @staticmethod
    def operands(count: int, seed: int):
        rng = np.random.default_rng(seed)
        for t in range(count):
            m, k, n = (int(x) for x in rng.integers(1, 7, size=3))
            m, n = (1, n) if t % 5 == 1 else (m, 1) if t % 5 == 2 else (m, n)
            A, B = ([[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                      if rng.random() > 0.3 else Fraction(0) for _ in range(c)]
                     for _ in range(r)] for r, c in ((m, k), (k, n)))
            yield Matrix.exact(A), Matrix.exact(B)

    def test_exact_product_agrees_with_the_fraction_definition(self):
        shapes = set()
        for A, B in self.operands(400, seed=17):
            P = A @ B
            assert P.entries == fraction_matmul(A, B)
            assert P.shape == (A.rows, B.cols) and P.backend == "exact"
            assert all(isinstance(x, Fraction) for row in P.entries for x in row)
            shapes.add((A.rows == 1, B.cols == 1))
        assert shapes == {(False, False), (True, False), (False, True), (True, True)}

    def test_mismatched_shapes_raise(self):
        with pytest.raises(DimensionError):
            Matrix.exact([[1, 2]]) @ Matrix.exact([[1, 2]])
        with pytest.raises(DimensionError):
            Matrix.from_floats([[1.0], [2.0]]) @ Matrix.from_floats([[1.0], [2.0]])

    def test_float_product_is_the_plain_sum(self):
        rng = np.random.default_rng(18)
        for A, B in self.operands(200, seed=19):
            Af = Matrix.from_floats(rng.normal(size=A.shape).tolist())
            Bf = Matrix.from_floats(rng.normal(size=B.shape).tolist())
            want = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*Bf.entries))
                         for row in Af.entries)
            got = (Af @ Bf).entries
            assert [[x.hex() for x in row] for row in got] == \
                [[x.hex() for x in row] for row in want]


class TestTextFormat:
    def test_exact_round_trip(self):
        M = Matrix.exact([[Fraction(1, 3), 2], [Fraction(-5, 7), 0]])
        assert parse_matrix(format_matrix(M)) == M

    def test_float_round_trip_is_bit_identical(self):
        M = Matrix.from_floats([[0.1, 1e-17], [3.5, -2.25]])
        again = parse_matrix(format_matrix(M))
        assert again.backend == "float"
        assert all(x == y for r1, r2 in zip(M.entries, again.entries)
                   for x, y in zip(r1, r2))

    def test_mixed_tokens_promote_file_to_float(self):
        M = parse_matrix("1,2.5\n3,4\n")
        assert M.backend == "float"

    def test_parse_error_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_matrix("1,2\nx,4\n")

    def test_zero_denominator_reports_line_and_token(self):
        with pytest.raises(ValueError, match="line 2: zero denominator in '1/0'"):
            parse_matrix("1,2\n1/0,4\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            parse_matrix("1,2\n3\n")

    @pytest.mark.parametrize("text", [
        "1,-2,30\n0,7,-45\n", "1/2,-3/4,2\n5/7,0,-1/3\n", "0.5,-0.125\n2.5,1e-17\n",
    ], ids=["integers", "p_q", "decimals"])
    def test_text_round_trip(self, text):
        assert format_matrix(parse_matrix(text)) == text

    def test_integer_entries_stay_int(self):
        M = parse_matrix("6,-1/2\n0,3\n")
        assert [[type(x) for x in row] for row in M.entries] == [[int, Fraction], [int, int]]
        assert type(parse_scalar(" 6 ")) is int and parse_scalar("4/2") == Fraction(2)
        assert format_scalar(6) == format_scalar(Fraction(6)) == "6"
        assert format_scalar(-7) == format_scalar(Fraction(-7)) == "-7"

    def test_int_and_fraction_entries_make_equal_matrices(self):
        six, twelve_halves = Matrix.exact([[6]]), Matrix.exact([[Fraction(12, 2)]])
        assert type(six[0, 0]) is int and type(twelve_halves[0, 0]) is Fraction
        assert six == twelve_halves and hash(six) == hash(twelve_halves)


def _per_token_parse(text: str) -> Matrix:
    """The reference reading: every token through ``parse_scalar``, then the
    exact-or-float rule of ``Matrix.of``."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([parse_scalar(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"matrix parse error on line {lineno}: {exc}") from exc
    if not rows:
        raise DimensionError("no rows in matrix text")
    for lineno, row in enumerate(rows, start=1):
        if len(row) != len(rows[0]):
            raise ValueError(f"matrix parse error on line {lineno}: ragged row")
    return Matrix.of(rows)


def _parsed(parse, text):
    try:
        M = parse(text)
    except ValueError as exc:  # DimensionError included
        return type(exc), str(exc)
    return M.backend, M.shape, [[(type(x), x) for x in row] for row in M.entries]


@pytest.mark.parametrize("text", [
    "1,2\n3,4\n",
    " 1 , -2 \n\t+3,4  \n",                 # spaces, tabs and signs
    "1_000,2\n3,-4_5\n",                     # underscores
    "# header\n1,2\n\n   \n# note, with a comma\n3,4\n",
    "1/2,3\n-4/6,5\n",                       # p/q
    "1,2/3\n4,5\n",                          # integer and p/q lines
    "0.5,1e-3\n2.5,3E2\n",                   # decimals
    "1,2\n0.5,4\n",                          # integer and decimal lines
    "0.5,2\n3,4\n",
    "-0,+0\n007,1\n",
    "1,2\n3,nan\n", "inf,2\n3,4\n", "1,2\n3,-Infinity\n", "1,2\n1e400,4\n",
    "1,2\nx,4\n", "1,,2\n3,4,5\n", "1,2\n1/0,4\n", "1,2\n3\n", "1,2\n3,4,5\n",
    "1 2\n3 4\n", "1,2.5.1\n3,4\n", "1e,2\n3,4\n", "0x10,1\n2,3\n", "1,2,\n3,4,\n",
    "1/2/3,1\n2,3\n", "1__0,2\n3,4\n",
    "", "# only a comment\n\n",
])
def test_parse_matrix_agrees_with_the_per_token_reading(text):
    # integer lines are read in one pass; values, types, backend and every
    # error message are those of the per-token reading
    assert _parsed(parse_matrix, text) == _parsed(_per_token_parse, text)


def test_rref_pivots_deterministic():
    M = Matrix.exact([[0, 1, 2], [0, 2, 4], [1, 0, 1]])
    R, pivots = rref(M)
    assert pivots == (0, 1)
    assert R.entries[0][0] == 1 and R.entries[1][1] == 1


def test_promotion_round_trip():
    M = Matrix.from_floats([[0.5, 0.25], [0.125, 1.0]])
    E = M.as_exact()
    assert E.backend == "exact" and E.as_exact() is E
    assert repr(E) == "Matrix(2x2, exact)"
    assert E.entries[0][0] == Fraction(1, 2)
    assert np.allclose(E.as_float().to_numpy(), M.to_numpy())


def test_as_float_of_an_entry_too_large_for_a_float():
    with pytest.raises(OverflowError, match="too large for a float"):
        Matrix.exact([[1, Fraction(10**400, 3)]]).as_float()
    assert Matrix.exact([[Fraction(1, 3), -2]]).as_float().entries == ((1 / 3, -2.0),)


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        Matrix.from_floats([[float("nan")]])
    with pytest.raises(ValueError):
        Matrix.from_floats([[float("inf")]])


@pytest.mark.parametrize("build, error, message", [
    (lambda: Matrix(0, 2, (), "exact"), DimensionError, "^empty matrix shape 0x2$"),
    (lambda: Matrix(2, 2, ((1, 2), (3,)), "exact"), DimensionError, "entry grid"),
    (lambda: Matrix(1, 1, ((1,),), "decimal"), ValueError, "unknown backend 'decimal'"),
    (lambda: Matrix.exact([]), DimensionError, "^empty matrix$"),
    (lambda: Matrix.from_floats([]), DimensionError, "^empty matrix$"),
    (lambda: Matrix.exact([[1]]) @ Matrix.from_floats([[1.0]]), ValueError,
     "backend mismatch"),
    (lambda: from_numpy(np.zeros((2, 2, 2))), DimensionError, "expected a 2-d array"),
], ids=["empty_shape", "ragged", "unknown_backend", "exact_empty", "float_empty",
        "mixed_product", "three_d_array"])
def test_malformed_matrices_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400"])
def test_non_finite_tokens_are_reported_as_such(token):
    with pytest.raises(ValueError, match=f"^non-finite entry '{token}'$"):
        parse_scalar(f" {token} ")
    with pytest.raises(ValueError, match=f"line 2: non-finite entry '{token}'$"):
        parse_matrix(f"1,2\n3,{token}\n")
    with pytest.raises(ValueError, match="non-finite entry"):
        Matrix.of([[1, token]])


@pytest.mark.parametrize("rows, backend", [
    ([[1, 2], [3, 4]], "exact"),
    ([[Fraction(1, 3), 0], [np.int64(2), 1]], "exact"),
    ([["1/3", "2"], [0, 1]], "exact"),
    ([[0.5, 1], [1, 1]], "float"),
    ([[Fraction(1, 2), np.float64(0.25)], [1, 1]], "float"),
    ([[np.float32(0.5), 1], [1, 1]], "float"),
    ([["0.5", "1e-3"], [1, 1]], "float"),
], ids=["ints", "fraction_and_numpy_int", "pq_strings", "one_float", "numpy_float",
        "not_rational", "decimal_strings"])
def test_matrix_of_is_exact_only_for_rational_entries(rows, backend):
    M = Matrix.of(rows)
    assert M.backend == backend
    values = [[float(Fraction(x) if isinstance(x, str) else x) for x in row] for row in rows]
    assert M.to_numpy().tolist() == values


def _coerce_in_type_order(x):
    """The exact coercion as it tests types: an int as it is, then Fraction,
    then any other integer, then str or float."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (str, float)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@pytest.mark.parametrize("x", [
    0, -7, 10**40, True, False, np.int64(-3), np.uint8(200), np.int32(5),
    Fraction(-3, 4), Fraction(10**30, 7), "3/4", " -2 ", "0.125", "1e-3", 0.1, -2.5,
    np.float64(0.5), float("nan"), float("inf"), "x", None, 1j, Decimal("0.5"), b"1", [1],
], ids=repr)
def test_coerce_exact_agrees_with_the_type_order(x):
    try:
        want = _coerce_in_type_order(x)
    except (TypeError, ValueError, OverflowError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            _coerce_exact(x)
        return
    got = _coerce_exact(x)
    assert type(got) is type(want) and got == want
    assert type(got) in (int, Fraction)
    assert type(got.numerator) is int and type(got.denominator) is int
    if type(x) in (int, Fraction):
        assert got is x
