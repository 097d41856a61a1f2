"""Parametric families: the symmetric count pattern with its closed-form
maximizers, the rectangle family, and the determinantal pencil."""

from fractions import Fraction

import numpy as np
import pytest

from nnmix import em
from nnmix.boundary import boundary_test
from nnmix.exactla import Matrix, determinant, matrix_rank
from nnmix.families import (AmbiguousRootError, _uab_mle_cubic, greencurve_matrix,
                            polyval, rectangle_family, rectangle_in_model,
                            refine_root, uab_closed_form_mle, uab_in_model,
                            uab_matrix, unique_simple_real_root)
from nnmix.rank3cert import nnrank3_membership, nonneg_rank3_factorize


def cubic(*roots, scale=1):
    """Ascending coefficients of ``scale * prod(t - r)`` over the given roots."""
    coeffs = [Fraction(scale)]
    for r in roots:  # multiply by (t - r)
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


class TestRootIsolation:
    def test_double_root_discarded_simple_root_exact(self):
        # (t - 1)^2 (3t - 4), expanded: 3t^3 - 10t^2 + 11t - 4
        root = unique_simple_real_root([-4, 11, -10, 3])
        assert root == Fraction(4, 3)

    def test_three_simple_real_roots_is_ambiguous(self):
        # (t - 1)(t - 2)(t - 3)
        with pytest.raises(AmbiguousRootError, match="found 3") as err:
            unique_simple_real_root([-6, 11, -6, 1])
        assert sorted(round(r) for r in err.value.roots) == [1, 2, 3]

    def test_triple_root_has_no_simple_root(self):
        # (t - 2)^3
        with pytest.raises(AmbiguousRootError, match="found 0") as err:
            unique_simple_real_root([-8, 12, -6, 1])
        assert err.value.roots == [2.0]

    def test_irrational_simple_root_is_polished(self):
        root = unique_simple_real_root([-2, 0, 0, 1])  # t^3 = 2
        assert isinstance(root, float)
        assert abs(root - 2 ** (1 / 3)) < 1e-14

    def test_rational_root_with_complex_pair_detected_exactly(self):
        # (2t - 3)(t^2 + t + 1) = 2t^3 - t^2 - t - 3
        coeffs = [-3, -1, -1, 2]
        assert unique_simple_real_root(coeffs) == Fraction(3, 2)

    def test_constructed_root_patterns(self):
        p, q = Fraction(1, 3), Fraction(-5, 2)
        # double + simple, on rational coefficients, either order of the roots
        assert unique_simple_real_root(cubic(p, p, q, scale=-7)) == q
        assert unique_simple_real_root(cubic(q, p, q, scale=2)) == p
        # a simple root at zero next to a double one
        assert unique_simple_real_root(cubic(3, 3, 0)) == 0
        # triple
        with pytest.raises(AmbiguousRootError, match="found 0") as err:
            unique_simple_real_root(cubic(q, q, q, scale=4))
        assert err.value.roots == [-2.5]
        # three distinct
        with pytest.raises(AmbiguousRootError, match="found 3") as err:
            unique_simple_real_root(cubic(p, q, 7))
        assert err.value.roots == pytest.approx([-2.5, 1 / 3, 7.0])
        # rational x irreducible quadratic: (5t + 2)(t^2 - 2t + 3)
        assert unique_simple_real_root([6, 11, -8, 5]) == Fraction(-2, 5)
        # rational x quadratic with two irrational real roots: (2t + 3)(t^2 - 2)
        with pytest.raises(AmbiguousRootError, match="found 3"):
            unique_simple_real_root([-6, -4, 3, 2])

    def test_only_cubics_are_accepted(self):
        for coeffs in ([1, 0, 1], [1, 0, 0, 0, 1], [1, 2, 3, 0]):
            with pytest.raises(ValueError, match="cubic"):
                unique_simple_real_root(coeffs)


def sympy_simple_real_roots(coeffs):
    """The real roots of multiplicity one, by sympy."""
    sympy = pytest.importorskip("sympy")
    f = [Fraction(c) for c in reversed(coeffs)]
    roots = sympy.real_roots(sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                         for c in f], sympy.Symbol("t")))
    return [r for r in set(roots) if roots.count(r) == 1]


class TestRootAgainstSympy:
    """The discriminant decision and the returned root against sympy's real
    roots and their multiplicities."""

    @staticmethod
    def assert_agrees(coeffs):
        sympy = pytest.importorskip("sympy")
        simple = sympy_simple_real_roots(coeffs)
        if len(simple) != 1:
            with pytest.raises(AmbiguousRootError, match=f"found {len(simple)}"):
                unique_simple_real_root(coeffs)
            return None
        want = simple[0]
        got = unique_simple_real_root(coeffs)
        if want.is_rational:
            assert got == Fraction(int(want.p), int(want.q)), coeffs
        else:
            assert isinstance(got, float)
            assert got == float(sympy.N(want, 50)), coeffs
        return got

    def test_seeded_integer_cubics(self):
        rng = np.random.default_rng(53)
        kinds = set()
        for _ in range(150):
            coeffs = [int(x) for x in rng.integers(-40, 41, size=4)]
            if coeffs[-1] == 0:
                continue
            kinds.add(type(self.assert_agrees(coeffs)).__name__)
        assert kinds == {"NoneType", "float", "Fraction"}

    def test_uab_cubics_at_a_100(self):
        roots = [self.assert_agrees(_uab_mle_cubic(100, b)) for b in range(42)]
        assert roots[0] == Fraction(400, 3)
        assert all(isinstance(t, float) for t in roots[1:])


def fraction_refine_root(f, lo, hi, width=Fraction(1, 10**24)):
    """The bisection on Fractions that the integer one replaced."""
    if lo == hi:
        return lo, hi
    flo = polyval(f, lo)
    if flo == 0:
        return lo, lo
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = polyval(f, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def discriminant(coeffs):
    d, c, b, a = coeffs
    return (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3
            - 27 * a * a * d * d)


def cauchy_interval(coeffs):
    """``(-B, B)`` with ``B`` the Cauchy bound: it holds every real root."""
    f = [Fraction(c) for c in coeffs]
    bound = 1 + max(abs(c / f[-1]) for c in f[:-1])
    return -bound, bound


class TestIntegerBisection:
    """``refine_root`` bisects on integers; the Fraction bisection is the oracle."""

    @staticmethod
    def assert_same_intervals(f, intervals):
        for lo, hi in intervals:
            assert polyval(f, lo) * polyval(f, hi) < 0, (f, lo, hi)
            for width in (Fraction(1, 10**24), Fraction(1, 10**18), Fraction(3, 7)):
                got = refine_root(f, lo, hi, width)
                assert got == fraction_refine_root(f, lo, hi, width), (f, lo, hi)
                assert all(isinstance(x, Fraction) for x in got)

    def test_point_interval_is_returned_as_is(self):
        assert refine_root(cubic(1, 2, 3), Fraction(2), Fraction(2)) == (2, 2)

    def test_uab_cubic_at_every_off_model_b(self):
        bs = [b for b in range(100) if not uab_in_model(100, b)]
        assert bs == list(range(42))
        for b in bs:
            f = _uab_mle_cubic(100, b)
            self.assert_same_intervals(f, [cauchy_interval(f)])

    def test_seeded_cubics_with_rational_roots(self):
        # the square-free cubic on known distinct roots, each isolated
        # between the midpoints to its neighbours
        rng = np.random.default_rng(51)
        for _ in range(40):
            roots = sorted({Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))
                            for _ in range(3)})
            f = cubic(*roots, scale=int(rng.integers(1, 50)))
            cuts = [roots[0] - 1, *((x + y) / 2 for x, y in zip(roots, roots[1:])),
                    roots[-1] + 1]
            self.assert_same_intervals(f, list(zip(cuts, cuts[1:])))

    def test_seeded_cubics_with_irrational_roots(self):
        rng = np.random.default_rng(52)
        found = 0
        for _ in range(60):
            coeffs = [int(x) for x in rng.integers(-40, 41, size=4)]
            if coeffs[-1] == 0 or discriminant(coeffs) >= 0:
                continue  # keep the cubics with one real root
            self.assert_same_intervals(coeffs, [cauchy_interval(coeffs)])
            found += 1
        assert found > 40

    def test_root_at_an_endpoint_or_a_midpoint(self):
        f = [Fraction(c) for c in (-1, 2)]  # 2x - 1, root 1/2
        assert refine_root(f, Fraction(1, 2), Fraction(3)) == (Fraction(1, 2), Fraction(1, 2))
        assert refine_root(f, Fraction(0), Fraction(1)) == (Fraction(1, 2), Fraction(1, 2))
        # (3x - 1)(x^2 + 1): the root 1/3 is hit after one halving of (-1/3, 1)
        g = [Fraction(c) for c in (-1, 3, -1, 3)]
        for lo, hi in ((Fraction(-1, 3), Fraction(1)), (Fraction(1, 3), Fraction(2))):
            assert refine_root(g, lo, hi) == fraction_refine_root(g, lo, hi) == \
                (Fraction(1, 3), Fraction(1, 3))


class TestUabFamily:
    def test_pattern_anchors(self):
        assert uab_matrix(1, 0).entries == ((1, 1, 0, 0), (1, 0, 1, 0),
                                            (0, 1, 0, 1), (0, 0, 1, 1))
        ones = uab_matrix(1, 1)
        assert matrix_rank(ones) == 1

    def test_rank_at_most_three_on_grid(self):
        for a in range(6):
            for b in range(a + 1):
                if a == b == 0:
                    continue
                assert matrix_rank(uab_matrix(a, b)) <= 3

    def test_membership_threshold(self):
        assert not uab_in_model(100, 41)
        assert uab_in_model(100, 42)
        assert not uab_in_model(1, 0)

    def test_threshold_agrees_with_certificate_on_grid(self):
        for a in range(1, 51):
            for b in range(a + 1):
                from conftest import uab_normalized
                want = uab_in_model(a, b)
                got = bool(nnrank3_membership(uab_normalized(a, b)))
                assert got == want, (a, b)

    def test_closed_form_letters_at_unit_point(self):
        mle = uab_closed_form_mle(1, 0)
        assert (mle.t, mle.s, mle.r, mle.v, mle.w, mle.u) == (
            Fraction(4, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3),
            Fraction(0), Fraction(0))
        P1 = Matrix.exact([[3, 3, 0, 0], [2, 0, 4, 0], [0, 2, 0, 4],
                           [1, 1, 2, 2]]).scale(Fraction(1, 24))
        assert mle.matrices[0] == P1

    def test_scaling_the_pattern_scales_the_root(self):
        assert uab_closed_form_mle(5, 0).t == Fraction(20, 3)

    def test_eight_matrices_invariants(self):
        for a, b in [(1, 0), (3, 0), (5, 2)]:
            mle = uab_closed_form_mle(a, b)
            U = uab_matrix(a, b).to_numpy()
            lls = []
            for M in mle.matrices:
                arr = M.to_numpy()
                assert arr.min() >= -1e-12
                assert arr.sum() == pytest.approx(1.0, abs=1e-12)
                sv = np.linalg.svd(arr, compute_uv=False)
                assert sv[3] < 1e-12 * sv[0]
                lls.append(em.log_likelihood(U, arr))
            assert max(lls) - min(lls) < 1e-10

    def test_irrational_root_residual_is_polished(self):
        from nnmix.families import _uab_mle_cubic
        mle = uab_closed_form_mle(100, 41)
        assert not mle.exact
        coeffs = [float(c) for c in _uab_mle_cubic(100, 41)]
        scale = max(abs(c) for c in coeffs) * max(1.0, abs(mle.t)) ** 3
        assert abs(polyval(coeffs, mle.t)) < 1e-12 * scale

    def test_eight_matrices_are_permutations_of_each_other(self):
        mle = uab_closed_form_mle(5, 2)
        ref = sorted(x for row in mle.matrices[0].entries for x in row)
        for M in mle.matrices[1:]:
            assert sorted(x for row in M.entries for x in row) == pytest.approx(ref)

    def test_exact_point_boundary_and_noncritical(self, u10):
        mle = uab_closed_form_mle(1, 0)
        for M in mle.matrices:
            assert boundary_test(M).status == "boundary"
            R = em.gradient_matrix(u10, M.to_numpy())
            assert not em.is_critical(M.to_numpy(), R, 8).critical

    def test_preconditions(self):
        with pytest.raises(ValueError):
            uab_closed_form_mle(1, 1)  # inside the member set
        with pytest.raises(ValueError):
            uab_closed_form_mle(0, 0)
        with pytest.raises(ValueError):
            uab_in_model(0, 0)
        with pytest.raises(ValueError, match="closed form applies only off the model"):
            uab_closed_form_mle(100, 42)  # a > b, but a member
        with pytest.raises(ValueError, match="requires integers a >= b >= 0"):
            uab_matrix(1, 2)


class TestThresholdCrossValidation:
    def test_likelihood_gap_vanishes_exactly_on_the_member_side(self):
        """Independent numerical check of the membership threshold: the gap
        between the saturated log-likelihood and the best rank-3 fit is zero
        iff the normalized table is a member."""
        for b in (40, 41, 42, 44):
            U = uab_matrix(100, b).to_numpy()
            saturated = float(np.sum(U * np.log(U / U.sum())))
            best, _ = em.run_em_restarts(U, 3, restarts=40, seed=1,
                                         max_iter=3000, tol=1e-12)
            gap = saturated - best.loglik
            if uab_in_model(100, b):
                assert gap < 1e-8, (b, gap)
            else:
                assert gap > 1e-4, (b, gap)


class TestRectangleFamily:
    def test_origin_is_rank_one_member(self):
        P = rectangle_family(0, 0)
        assert matrix_rank(P) == 1
        assert bool(nnrank3_membership(P))

    def test_membership_anchors(self):
        assert rectangle_in_model(Fraction(1, 4), Fraction(1, 4))
        assert not rectangle_in_model(Fraction(1, 2), Fraction(1, 2))

    def test_predicate_agrees_with_certificate_on_grid(self):
        for i in range(0, 20):
            for j in range(0, 20):
                a, b = Fraction(i, 19), Fraction(j, 19)
                got = bool(nnrank3_membership(rectangle_family(a, b)))
                assert got == rectangle_in_model(a, b), (a, b)

    def test_curve_points_are_boundary_members(self):
        for a in (Fraction(1, 4), Fraction(2, 5)):
            b = (1 - a) / (1 + a)
            assert a * b + a + b == 1
            P = rectangle_family(a, b)
            assert bool(nnrank3_membership(P))
            assert boundary_test(P).status == "boundary"
            A, B = nonneg_rank3_factorize(P)
            assert A @ B == P

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rectangle_family(2, 0)
        with pytest.raises(ValueError, match=r"parameters must lie in \[0, 1\]"):
            rectangle_in_model(2, 0)


class TestCurvePencil:
    def test_base_point_determinant_and_boundary(self):
        P = greencurve_matrix(0, 0)
        assert determinant(P) == 0
        assert boundary_test(P).status == "boundary"

    def test_leftmost_intersection_matches_reference(self):
        # intersection of det = 0 with the line x + 5y + 8 = 0
        def g(y):
            return determinant(greencurve_matrix(float(-8 - 5 * y), float(y)))
        lo, hi = -1.05, -0.90
        flo = g(lo)
        for _ in range(60):
            mid = (lo + hi) / 2
            if (g(mid) > 0) == (flo > 0):
                lo, flo = mid, g(mid)
            else:
                hi = mid
        y0 = (lo + hi) / 2
        x0 = -8 - 5 * y0
        assert abs(x0 - (-3.161429)) < 1e-4
        assert abs(y0 - (-0.967714)) < 1e-4

    @staticmethod
    def _curve_y_near_zero(x: float) -> float:
        def f(y):
            return determinant(greencurve_matrix(x, y))
        ys = np.linspace(-1.0, 1.0, 801)
        vals = [f(y) for y in ys]
        best = None
        for i in range(len(ys) - 1):
            if vals[i] * vals[i + 1] < 0:
                a, b = ys[i], ys[i + 1]
                fa = f(a)
                for _ in range(60):
                    m = (a + b) / 2
                    if (f(m) > 0) == (fa > 0):
                        a, fa = m, f(m)
                    else:
                        b = m
                cand = (a + b) / 2
                if best is None or abs(cand) < abs(best):
                    best = cand
        return best

    def test_membership_flips_across_the_base_point(self):
        # the member arc approaches the base point from negative x
        for x, expect in [(-0.5, "in"), (-1.0, "in"), (0.5, "out"), (1.0, "out")]:
            y = self._curve_y_near_zero(float(x))
            P = greencurve_matrix(float(x), float(y))
            assert nnrank3_membership(P).verdict == expect, x

    def test_exact_backend_for_rational_parameters(self):
        P = greencurve_matrix(Fraction(1, 2), Fraction(-1, 3))
        assert P.backend == "exact"
        assert P.entries[0][0] == 51 + Fraction(1, 2) - Fraction(5, 3)
