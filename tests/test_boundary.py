"""Boundary classification, stratum counting/enumeration, and sampling."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from nnmix.boundary import (boundary_test, canonical_pattern, component_count,
                            enumerate_zero_patterns, integer_dist,
                            rational_dist, sample_algebraic_boundary,
                            unit_rational_dist, ZeroPattern)
from nnmix import rank3cert
from nnmix.exactla import Matrix, matrix_rank, rank_factorize, rref
from nnmix.harness import DISTS
from nnmix.rank3cert import DomainError, all_witnesses, nnrank3_membership

from conftest import NICE_A, NICE_B, NICE_P, fractions_built, rect_rows, uab_normalized


class TestBoundaryTest:
    def test_planted_contact_matrix(self):
        P = Matrix.exact(NICE_P).scale(Fraction(1, 116))
        cls = boundary_test(P)
        assert cls.status == "boundary" and cls
        assert cls.reason == "touching_witnesses"
        assert cls.touching and all(rec.touches for rec in cls.touching)

    def test_curve_base_matrix(self):
        from conftest import CURVE_BASE
        cls = boundary_test(Matrix.exact(CURVE_BASE))
        assert cls.status == "boundary" and cls.reason == "touching_witnesses"

    def test_positive_rank_one_is_interior(self):
        P = Matrix.exact([[i * j for j in (1, 2, 3, 4)] for i in (2, 3, 5, 7)])
        assert boundary_test(P).status == "interior"

    def test_member_with_zero_entry_is_boundary(self):
        cls = boundary_test(uab_normalized(1, 1).scale(Fraction(1, 1)))
        assert cls.status == "interior"  # all-ones matrix has no zeros
        P = Matrix.exact([[0, 1, 1], [1, 1, 1], [1, 1, 2]])
        cls = boundary_test(P)
        assert cls.status == "boundary" and cls.reason == "zero_entry"

    def test_non_member_is_outside(self):
        assert boundary_test(uab_normalized(1, 0)).status == "outside_model"

    def test_rectangle_curve_is_boundary(self):
        for a in (Fraction(1, 5), Fraction(1, 2)):
            b = (1 - a) / (1 + a)
            cls = boundary_test(Matrix.exact(rect_rows(a, b)))
            assert cls.status == "boundary"
        assert boundary_test(
            Matrix.exact(rect_rows(Fraction(1, 4), Fraction(1, 4)))).status == "interior"

    def test_transpose_and_scaling_invariance(self):
        cases = [Matrix.exact(NICE_P), uab_normalized(100, 42),
                 Matrix.exact(rect_rows(Fraction(1, 3), Fraction(1, 2)))]
        for P in cases:
            s = boundary_test(P).status
            assert boundary_test(P.transpose()).status == s
            assert boundary_test(P.scale(Fraction(5, 2))).status == s

    def test_transpose_symmetry_on_rectangular_samples(self):
        rng = np.random.default_rng(24)
        pats = [p for p in enumerate_zero_patterns(4, 5) if p.kind == "a"]
        for pat in pats[:6]:
            P, _, _ = sample_algebraic_boundary(pat, rng)
            assert boundary_test(P).status == boundary_test(P.transpose()).status

    def test_interior_point_survives_small_factor_perturbation(self):
        # a bounded number of draws (3 reach three interior points), so a
        # sampler that yields none fails the test instead of hanging it
        rng = np.random.default_rng(21)
        pattern = canonical_pattern()
        found = 0
        for _ in range(50):
            P, A, B = sample_algebraic_boundary(pattern, rng)
            if boundary_test(P).status != "interior":
                continue
            found += 1
            eps = Fraction(1, 10**6)
            A2 = Matrix.exact([[x + eps for x in row] for row in A.entries])
            assert bool(nnrank3_membership(A2 @ B))
            if found == 3:
                break
        assert found == 3

    def test_float_backend_refused(self):
        with pytest.raises(DomainError):
            boundary_test(uab_normalized(100, 42).as_float())

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            boundary_test(Matrix.exact([[1, -1], [1, 1]]))


class TestComponentCount:
    def test_four_by_four_split(self):
        cc = component_count(4, 4)
        assert (cc.zero_strata, cc.kind_a, cc.kind_b, cc.total) == (16, 144, 144, 304)
        assert cc.dimension == 13

    def test_five_by_five_total(self):
        assert component_count(5, 5).total == 3625

    def test_split_identity_up_to_twelve(self):
        for m in range(4, 13):
            for n in range(4, 13):
                cc = component_count(m, n)
                assert cc.total == m * n + 36 * comb(m, 3) * comb(n, 4) \
                    + 36 * comb(m, 4) * comb(n, 3)
                assert cc.dimension == 3 * m + 3 * n - 11


class TestPatterns:
    def test_four_by_four_counts(self):
        pats = enumerate_zero_patterns(4, 4)
        assert sum(1 for p in pats if p.kind == "a") == 144
        assert sum(1 for p in pats if p.kind == "b") == 144

    def test_four_by_three_counts(self):
        pats = enumerate_zero_patterns(4, 3)
        assert sum(1 for p in pats if p.kind == "b") == 36
        assert sum(1 for p in pats if p.kind == "a") == 0

    def test_counts_match_formula_for_larger_shapes(self):
        for m, n in [(4, 5), (5, 4), (5, 5)]:
            pats = enumerate_zero_patterns(m, n)
            assert sum(1 for p in pats if p.kind == "a") == 36 * comb(m, 3) * comb(n, 4)
            assert sum(1 for p in pats if p.kind == "b") == 36 * comb(m, 4) * comb(n, 3)

    def test_every_pattern_validates_and_is_unique(self):
        pats = enumerate_zero_patterns(4, 4)
        seen = set()
        for p in pats:
            p.validate()
            key = (p.kind, p.A_zeros, p.B_zeros)
            assert key not in seen
            seen.add(key)

    def test_invalid_pattern_rejected(self):
        bad = ZeroPattern("a", 4, 4, ((0, 0), (1, 0), (2, 2)),
                          ((0, 0), (0, 1), (1, 2), (2, 3)))
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("m, n, factor", [(2, 4, "2-by-3 factor A"),
                                              (3, 3, "3-by-3 factor B")])
    def test_canonical_pattern_must_fit_the_factors(self, m, n, factor):
        with pytest.raises(ValueError, match=f"outside the {factor}; kind a needs"):
            canonical_pattern(m, n)

    @pytest.mark.parametrize("call, message", [
        (lambda: component_count(0, 4), "dimensions must be positive"),
        (lambda: ZeroPattern("c", 4, 4, (), ()).validate(), "unknown pattern kind 'c'"),
        (lambda: integer_dist(0, 4), "entries must be positive"),
    ], ids=["no_rows", "kind_c", "zero_entries"])
    def test_bad_arguments_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_kind_b_zeros_must_fit_the_factors(self):
        pat = enumerate_zero_patterns(4, 3)[-1]
        assert pat.kind == "b"
        with pytest.raises(ValueError, match="kind b needs m >= 4 and n >= 3"):
            ZeroPattern("b", 3, 3, pat.A_zeros, pat.B_zeros).validate()


# -- the per-entry distributions and the Fraction sampler, as oracles -----


def scalar_rational_dist(max_height=100):
    return lambda rng: Fraction(int(rng.integers(1, max_height + 1)),
                                int(rng.integers(1, max_height + 1)))


def scalar_unit_rational_dist(max_den=100):
    def draw(rng):
        d = int(rng.integers(1, max_den + 1))
        return Fraction(int(rng.integers(1, d + 1)), d)
    return draw


def scalar_integer_dist(lo=1, hi=4):
    return lambda rng: Fraction(int(rng.integers(lo, hi + 1)))


SCALAR_DISTS = {"rational": scalar_rational_dist,
                "unit_rational": scalar_unit_rational_dist,
                "int1to4": lambda _: scalar_integer_dist(1, 4)}


def fraction_sample(pattern, rng, entry_dist):
    """The sampler on Fraction matrices with one scalar draw per entry, in
    the same order, multiplied out and scaled by 1/total without clearing
    to integers."""
    A = [[Fraction(0) if (i, k) in pattern.A_zeros else entry_dist(rng)
          for k in range(3)] for i in range(pattern.m)]
    B = [[Fraction(0) if (k, j) in pattern.B_zeros else entry_dist(rng)
          for j in range(pattern.n)] for k in range(3)]
    Am, Bm = Matrix.exact(A), Matrix.exact(B)
    P = Am @ Bm
    inv = 1 / P.total()
    return P.scale(inv), Am.scale(inv), Bm


class TestSampling:
    def test_deterministic_fill_matches_hand_product(self):
        # kind-(b) pattern with every free entry set to one
        pat = ZeroPattern("b", 4, 4,
                          ((0, 0), (1, 0), (2, 1), (3, 2)),
                          ((0, 0), (1, 1), (2, 2)))
        ones = lambda rng, count: ([1] * count, [1] * count)
        rng = np.random.default_rng(0)
        P, A, B = sample_algebraic_boundary(pat, rng, ones)
        expected = Matrix.exact([[2, 1, 1, 2], [2, 1, 1, 2],
                                 [1, 2, 1, 2], [1, 1, 2, 2]]).scale(Fraction(1, 24))
        assert P == expected

    def test_planted_example_reproduced(self):
        pat = canonical_pattern(4, 4)
        entries = [1, 3, 1, 4, 4, 4, 4, 1, 2,   # A free slots, row-major
                   2, 2, 3, 1, 1, 1, 4, 1]      # B free slots, row-major

        def draw(rng, count):
            assert count == len(entries)
            return entries, [1] * count
        rng = np.random.default_rng(0)
        P, A, B = sample_algebraic_boundary(pat, rng, draw)
        total = sum(x for row in NICE_P for x in row)
        assert P == Matrix.exact(NICE_P).scale(Fraction(1, total))

    def test_samples_are_members(self):
        rng = np.random.default_rng(22)
        pat = canonical_pattern()
        for dist in (rational_dist(20), unit_rational_dist(20), integer_dist(1, 4)):
            for _ in range(25):
                P, A, B = sample_algebraic_boundary(pat, rng, dist)
                assert A @ B == P
                assert P.total() == 1
                assert bool(nnrank3_membership(P))

    def test_transposed_kind_samples_are_members(self):
        rng = np.random.default_rng(23)
        pats = [p for p in enumerate_zero_patterns(4, 4) if p.kind == "b"]
        for pat in pats[:10]:
            P, A, B = sample_algebraic_boundary(pat, rng)
            assert bool(nnrank3_membership(P))

    @pytest.mark.parametrize("dist", sorted(DISTS))
    def test_integer_product_matches_the_fraction_product(self, dist):
        kind_b = next(p for p in enumerate_zero_patterns(4, 4) if p.kind == "b")
        for pat in (canonical_pattern(), kind_b):
            rng, oracle_rng = np.random.default_rng(31), np.random.default_rng(31)
            for _ in range(60):
                got = sample_algebraic_boundary(pat, rng, DISTS[dist](100))
                assert got == fraction_sample(pat, oracle_rng, SCALAR_DISTS[dist](100))
                assert all(m.backend == "exact" for m in got)

    def test_zero_draws_are_refused(self):
        zeros = lambda rng, count: ([0] * count, [1] * count)
        with pytest.raises(ArithmeticError, match="sampled factors produced a zero matrix"):
            sample_algebraic_boundary(canonical_pattern(), np.random.default_rng(0), zeros)

    @pytest.mark.parametrize("dist", sorted(DISTS))
    def test_batched_draws_equal_scalar_draws(self, dist):
        for param in (1, 7, 100):
            rng, oracle_rng = np.random.default_rng(param), np.random.default_rng(param)
            nums, dens = DISTS[dist](param)(rng, 1000)
            want = [SCALAR_DISTS[dist](param)(oracle_rng) for _ in range(1000)]
            assert [Fraction(p, q) for p, q in zip(nums, dens)] == want
            assert all(type(x) is int for x in nums + dens)
            # the stream is left where the scalar draws leave it
            assert rng.integers(1 << 30) == oracle_rng.integers(1 << 30)


def test_boundary_test_builds_no_fraction(monkeypatch):
    # the sampler's Fractions are the public edge; the verdict runs on ints
    rng = np.random.default_rng(6)
    kind_b = next(p for p in enumerate_zero_patterns(4, 4) if p.kind == "b")
    for pat in (canonical_pattern(), kind_b):
        for _ in range(10):
            P, _, _ = sample_algebraic_boundary(pat, rng)
            count, cls = fractions_built(monkeypatch, lambda: boundary_test(P))
            assert count == 0
            assert cls.status in ("interior", "boundary")


class TestGivenFactors:
    """``boundary_test(P, factors)`` and ``all_witnesses(P, factors)`` equal
    the same calls on P alone, whichever exact factorization they read."""

    @staticmethod
    def assert_same(P, A, B):
        got, want = boundary_test(P, factors=(A, B)), boundary_test(P)
        assert got == want and got.as_dict() == want.as_dict()  # touching records too
        assert all_witnesses(P, (A, B)) == all_witnesses(P)  # failure logs too
        return want

    @staticmethod
    def eliminations(monkeypatch):
        calls = []
        real = rank3cert._gauss_jordan
        monkeypatch.setattr(rank3cert, "_gauss_jordan",
                            lambda *args: calls.append(1) or real(*args))
        return calls

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_stratum_samples_transposed_and_moved(self, kind):
        # G has det -1/2 and Fraction entries; A @ G, G^-1 @ B factor P too
        G = Matrix.exact([[1, Fraction(1, 2), 0], [0, 1, 1], [Fraction(1, 2), 0, 1]])
        G_inv = rref(Matrix.exact([list(r) + [int(i == j) for j in range(3)]
                                   for i, r in enumerate(G.entries)]))[0]
        G_inv = Matrix.exact([r[3:] for r in G_inv.entries])
        assert G @ G_inv == Matrix.identity(3)
        rng = np.random.default_rng(37)
        of_kind = [p for p in enumerate_zero_patterns(4, 4) if p.kind == kind]
        boundary = 0
        for t in range(200):
            P, A, B = sample_algebraic_boundary(of_kind[t % len(of_kind)], rng)
            boundary += self.assert_same(P, A, B).status == "boundary"
            self.assert_same(P.transpose(), B.transpose(), A.transpose())
            self.assert_same(P, A @ G, G_inv @ B)
        assert boundary > 0

    def test_planted_and_outside_matrices(self):
        P = Matrix.exact(NICE_P)
        assert self.assert_same(P, Matrix.exact(NICE_A), Matrix.exact(NICE_B)).touching
        # a rank-3 non-member on its signed rank factorization: the same log
        P = uab_normalized(1, 0)
        assert self.assert_same(P, *rank_factorize(P, 3)).status == "outside_model"

    def test_rank_deficient_factors_are_eliminated(self, monkeypatch):
        draw, rng = integer_dist(1, 4), np.random.default_rng(3)
        calls = self.eliminations(monkeypatch)
        deficient = 0
        factors = [(Matrix.exact([[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 1, 1]]),  # rank 2
                    Matrix.exact([[1, 2, 1, 3], [2, 1, 1, 1], [1, 1, 2, 2]]))]
        for _ in range(200):
            nums, _ = draw(rng, 24)
            factors.append((Matrix.exact([nums[3 * i:3 * i + 3] for i in range(4)]),
                            Matrix.exact([nums[12 + 4 * k:16 + 4 * k] for k in range(3)])))
        for A, B in factors:
            P = A @ B
            self.assert_same(P, A, B)
            calls.clear()
            boundary_test(P, factors=(A, B))
            assert len(calls) == (matrix_rank(P) < 3)
            deficient += len(calls)
        assert deficient > 1  # the explicit rank-2 A and some draws

    def test_zero_entries_take_the_stripped_path(self):
        A = Matrix.exact([[1, 0, 0], [1, 2, 1], [2, 1, 3], [1, 1, 1]])
        B = Matrix.exact([[0, 1, 2, 1], [1, 1, 0, 2], [3, 1, 1, 1]])
        assert self.assert_same(A @ B, A, B).reason == "zero_entry"
        A = Matrix.exact([[0, 0, 0], [1, 2, 1], [2, 1, 3], [1, 1, 1], [3, 1, 2]])
        assert self.assert_same(A @ B, A, B).reason == "zero_entry"  # a zero row
        self.assert_same(Matrix.zeros(4, 4), Matrix.zeros(4, 3), Matrix.zeros(3, 4))

    def test_float_factors_are_eliminated(self, monkeypatch):
        A, B = Matrix.exact(NICE_A), Matrix.exact(NICE_B)
        P = A @ B
        calls = self.eliminations(monkeypatch)
        self.assert_same(P, A.as_float(), B.as_float())
        calls.clear()
        boundary_test(P, factors=(A.as_float(), B.as_float()))
        assert calls == [1]
        assert (all_witnesses(P.as_float(), (A.as_float(), B.as_float()))
                == all_witnesses(P.as_float()))

    def test_mismatched_factors_are_refused(self):
        A, B, P = Matrix.exact(NICE_A), Matrix.exact(NICE_B), Matrix.exact(NICE_P)
        off = Matrix.exact([[*r[:3], r[3] + Fraction(1, 7)] if i == 2 else r
                            for i, r in enumerate(NICE_B)])
        wide = Matrix.exact([r + [0] for r in NICE_A])
        # all ints, with one entry of P off by one
        P_off = Matrix.exact([[x + ((i, j) == (2, 1)) for j, x in enumerate(r)]
                              for i, r in enumerate(NICE_P)])
        cases = [(P, (A, off)), (P, (A.as_float(), off.as_float())), (P, (wide, B)),
                 (P, (B, A)), (P_off, (A, B))]
        for Q, factors in cases:
            for call in (lambda: boundary_test(Q, factors=factors),
                         lambda: all_witnesses(Q, factors)):
                with pytest.raises(DomainError, match="factor"):
                    call()
