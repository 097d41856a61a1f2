"""EM iteration, likelihood, gradient, fixed points, and criticality."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmix import em
from nnmix.exactla import Matrix
from nnmix.harness import ExperimentConfig
from nnmix.rank3cert import nonneg_rank3_factorize

from conftest import uab_normalized


def _theta_from_factors(A: Matrix, B: Matrix) -> em.ParameterTriple:
    """Stochastic triple from a nonnegative factorization of a sum-1 matrix."""
    An, Bn = A.to_numpy(), B.to_numpy()
    col = An.sum(axis=0)
    row = Bn.sum(axis=1)
    lam = col * row
    safe_c = np.where(col > 0, col, 1.0)
    safe_r = np.where(row > 0, row, 1.0)
    theta = em.ParameterTriple(An / safe_c, lam, Bn / safe_r[:, None])
    # dead components keep zero weight but need stochastic placeholders
    m, r = theta.A.shape
    n = theta.B.shape[1]
    for k in range(r):
        if lam[k] == 0:
            theta.A[:, k] = 1.0 / m
            theta.B[k, :] = 1.0 / n
    return theta


# The E-step and M-step as the textbook defines them, on the full
# m-by-r-by-n responsibility table: the oracle of the collapsed round
# ``em._em_update``, which never builds that table.


def e_step(U, theta: em.ParameterTriple) -> np.ndarray:
    """Responsibility table v[i,k,j]; zero whenever the mixture cell is zero."""
    U = np.asarray(U, dtype=float)
    contrib = np.einsum("ik,k,kj->ikj", theta.A, theta.lam, theta.B)
    denom = contrib.sum(axis=1)  # = P
    with np.errstate(divide="ignore", invalid="ignore"):
        V = contrib * (U / np.where(denom > 0, denom, 1.0))[:, None, :]
    return np.where((denom > 0)[:, None, :], V, 0.0)


def m_step(V: np.ndarray, u_plus: int) -> tuple[em.ParameterTriple, tuple[int, ...]]:
    """Maximize the complete-data likelihood for a responsibility table.

    Returns the estimate and the components whose weight came out exactly
    zero; those receive uniform conditionals.
    """
    m, r, n = V.shape
    col = V.sum(axis=2)  # (m, r): sum over j
    rowt = V.sum(axis=0)  # (r, n): sum over i
    lam = col.sum(axis=0) / u_plus
    degenerate = tuple(int(k) for k in np.nonzero(lam == 0.0)[0])
    safe = np.where(lam > 0, lam, 1.0)
    A = col / (u_plus * safe)[None, :]
    B = rowt / (u_plus * safe)[:, None]
    for k in degenerate:
        A[:, k] = 1.0 / m
        B[k, :] = 1.0 / n
    return em.ParameterTriple(A, lam, B), degenerate


class TestCountTables:
    @pytest.mark.parametrize("value", [0.3, 0.02])
    def test_non_integer_table_rejected(self, value):
        U = np.full((4, 4), value)
        with pytest.raises(ValueError, match=r"non-integer entries: \(0, 0\)"):
            em.DataMatrix.from_array(U)
        with pytest.raises(ValueError, match="non-integer"):
            em.run_em(U, 3)

    def test_integer_valued_floats_accepted(self):
        data = em.DataMatrix.from_array(np.array([[2.0, 0.0], [1.0, 5.0]]))
        assert data.u_plus == 8 and isinstance(data.u_plus, int)


class TestLogLikelihood:
    def test_uniform_table(self):
        U = np.ones((2, 2))
        P = np.full((2, 2), 0.25)
        assert em.log_likelihood(U, P) == pytest.approx(4 * math.log(0.25))

    def test_zero_count_cells_do_not_contribute(self):
        U = np.zeros((2, 2))
        U[0, 0] = 5
        P = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert em.log_likelihood(U, P) == 0.0

    def test_orbit_matrices_share_value(self, u10, p1_orbit):
        values = [em.log_likelihood(u10, P) for P in p1_orbit]
        assert max(values) - min(values) == 0.0
        assert values[0] == pytest.approx(-2 * math.log(6912), abs=1e-12)

    def test_minus_infinity_sentinel(self):
        U = np.array([[1.0, 1.0], [1.0, 1.0]])
        P = np.array([[0.0, 0.5], [0.25, 0.25]])
        assert em.log_likelihood(U, P) == float("-inf")


class TestESteps:
    def test_single_component_reproduces_counts(self):
        rng = np.random.default_rng(0)
        U = rng.integers(0, 9, size=(3, 4))
        theta = em.random_parameters(3, 4, 1, rng)
        V = e_step(U, theta)
        np.testing.assert_allclose(V[:, 0, :], U)

    def test_identical_components_split_evenly(self):
        U = np.arange(1, 13).reshape(3, 4).astype(float)
        A = np.full((3, 2), 1 / 3)
        B = np.full((2, 4), 1 / 4)
        theta = em.ParameterTriple(A, np.array([0.5, 0.5]), B)
        V = e_step(U, theta)
        np.testing.assert_allclose(V[:, 0, :], U / 2)
        np.testing.assert_allclose(V[:, 1, :], U / 2)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_responsibilities_conserve_counts(self, seed):
        rng = np.random.default_rng(seed)
        m, n, r = 3, 5, 3
        U = rng.integers(0, 20, size=(m, n))
        if U.sum() == 0:
            U[0, 0] = 1
        theta = em.random_parameters(m, n, r, rng)
        V = e_step(U, theta)
        np.testing.assert_allclose(V.sum(axis=1), U, rtol=1e-12, atol=1e-12)


class TestMStep:
    def test_concentrated_mass_gives_unit_weight(self):
        V = np.zeros((2, 3, 2))
        V[:, 0, :] = [[1, 2], [3, 4]]
        theta, degenerate = m_step(V, 10)
        np.testing.assert_allclose(theta.lam, [1.0, 0.0, 0.0])
        assert degenerate == (1, 2)

    def test_single_component_independence_estimate(self):
        rng = np.random.default_rng(1)
        U = rng.integers(1, 9, size=(3, 4)).astype(float)
        theta0 = em.random_parameters(3, 4, 1, rng)
        theta, _ = m_step(e_step(U, theta0), int(U.sum()))
        np.testing.assert_allclose(theta.A[:, 0], U.sum(axis=1) / U.sum())
        np.testing.assert_allclose(theta.B[0, :], U.sum(axis=0) / U.sum())

    def test_outputs_are_stochastic(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            V = rng.exponential(size=(4, 3, 5))
            V *= 50 / V.sum()
            theta, _ = m_step(V, 50)
            theta.validate(atol=1e-12)


class TestGradient:
    def test_saturated_model_has_zero_gradient(self):
        rng = np.random.default_rng(3)
        U = rng.integers(1, 9, size=(4, 4)).astype(float)
        R = em.gradient_matrix(U, U / U.sum())
        np.testing.assert_allclose(R, 0.0, atol=1e-9)

    def test_matched_cell_vanishes(self):
        U = np.array([[2.0, 1.0], [1.0, 4.0]])
        P = np.full((2, 2), 0.25)
        R = em.gradient_matrix(U, P)
        assert R[0, 0] == pytest.approx(0.0)  # u_plus = 8, u/p = 2/0.25 = 8

    def test_zero_probability_under_observation_raises(self):
        U = np.array([[1.0, 0.0], [0.0, 0.0]])
        P = np.array([[0.0, 0.5], [0.25, 0.25]])
        with pytest.raises(ZeroDivisionError):
            em.gradient_matrix(U, P)

    def test_zero_count_cells_get_total(self, u10):
        P = np.array([[3, 3, 0, 0], [2, 0, 4, 0], [0, 2, 0, 4], [1, 1, 2, 2]]) / 24
        R = em.gradient_matrix(u10, P)
        assert R[0, 2] == 8.0  # zero count and zero estimate


class TestFixedPointResidual:
    def test_saturated_point_is_fixed(self):
        rng = np.random.default_rng(4)
        U = rng.integers(1, 9, size=(3, 3)).astype(float)
        P = U / U.sum()
        # exact parameters for the saturated estimate: columns of P as the
        # component conditionals, so the gradient vanishes identically
        col = P.sum(axis=0)
        theta = em.ParameterTriple(P / col, col, np.eye(3))
        R = em.gradient_matrix(U, theta.product())
        r1, r2 = em.fixed_point_residual(theta, R)
        assert max(r1, r2) < 1e-12

    def test_exact_factorization_of_orbit_matrix_is_fixed(self, u10):
        P = uab_normalized(1, 0)
        P1 = Matrix.exact([[3, 3, 0, 0], [2, 0, 4, 0], [0, 2, 0, 4],
                           [1, 1, 2, 2]]).scale(Fraction(1, 24))
        A, B = nonneg_rank3_factorize(P1)
        theta = _theta_from_factors(A, B)
        R = em.gradient_matrix(u10, P1.to_numpy())
        r1, r2 = em.fixed_point_residual(theta, R)
        assert max(r1, r2) < 1e-10

    def test_random_parameters_are_generically_not_fixed(self):
        rng = np.random.default_rng(5)
        U = rng.integers(1, 9, size=(4, 4))
        theta = em.random_parameters(4, 4, 3, rng)
        R = em.gradient_matrix(U, theta.product())
        r1, r2 = em.fixed_point_residual(theta, R)
        assert max(r1, r2) > 1e-3


class TestCriticality:
    def test_saturated_estimate_is_critical(self):
        rng = np.random.default_rng(6)
        U = rng.integers(1, 9, size=(4, 4)).astype(float)
        P = U / U.sum()
        R = em.gradient_matrix(U, P)
        assert em.is_critical(P, R, U.sum()).critical

    def test_boundary_maximizer_is_not_critical(self, u10, p1_orbit):
        R = em.gradient_matrix(u10, p1_orbit[0])
        crit = em.is_critical(p1_orbit[0], R, 8)
        assert not crit.critical
        assert crit.rank_p == 3

    def test_interior_optimum_rank_duality(self):
        rng = np.random.default_rng(7)
        U = rng.integers(10, 99, size=(4, 4))
        res = em.run_em(U, 3, init=3, max_iter=4000, tol=1e-12)
        R = em.gradient_matrix(U, res.P_hat)
        crit = em.is_critical(res.P_hat, R, U.sum())
        if crit.critical:
            sv = np.linalg.svd(R, compute_uv=False)
            rank_r = int(np.sum(sv > 1e-6 * sv[0])) if sv[0] > 0 else 0
            assert rank_r <= 4 - crit.rank_p


def test_dimension_counts():
    assert em.parameter_dimension(4, 4, 3) == 20
    assert em.model_dimension(4, 4, 3) == 14
    # the fibers of the parametrization account for the difference
    for m, n, r in [(3, 3, 2), (4, 4, 3), (5, 7, 4)]:
        assert em.parameter_dimension(m, n, r) - em.model_dimension(m, n, r) \
            == r * r - r
    # boundary strata sit one dimension below the rank-3 set
    from nnmix.boundary import component_count
    for m in range(4, 8):
        for n in range(4, 8):
            assert component_count(m, n).dimension == em.model_dimension(m, n, 3) - 1


def _assert_round_matches_composition(U, got, theta):
    # one collapsed round, split back into (A, lam, B, P), against e_step
    # followed by m_step, placeholders of dead components included
    AL, B, P_new = got
    A, lam = em._split(AL)
    composed, degenerate = m_step(e_step(U, theta), int(U.sum()))
    np.testing.assert_allclose(A, composed.A, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(lam, composed.lam, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(B, composed.B, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(P_new, composed.product(), rtol=1e-13, atol=1e-15)
    return degenerate


def test_collapsed_update_matches_definitional_composition():
    # one round of the collapsed update must equal e_step followed by m_step,
    # on a fully observed table (W is the plain quotient U / P) and on one
    # with zero cells (W is masked)
    rng = np.random.default_rng(42)
    full = rng.integers(1, 15, size=(4, 5)).astype(float)
    holed = full.copy()
    holed.flat[[1, 7, 8, 18]] = 0.0
    for U in (full, holed):
        theta = em.random_parameters(4, 5, 3, rng)
        mask = U > 0
        args = (int(U.sum()), theta.A * theta.lam, theta.B, theta.product())
        got = em._em_update(U, None if mask.all() else mask, *args)
        _assert_round_matches_composition(U, got, theta)
        if mask.all():  # the plain quotient gives the masked one's bits
            masked = em._em_update(U, mask, *args)
            assert all(np.array_equal(a, b) for a, b in zip(got, masked))


def test_batched_update_with_a_dead_component():
    # a start whose weight vector has a zero entry reaches the dead-component
    # branch of the batched round; every slice must still match the
    # definitional composition, uniform placeholders included
    rng = np.random.default_rng(43)
    U = rng.integers(0, 15, size=(4, 5)).astype(float)
    U[0, 0] += 1
    thetas = [em.random_parameters(4, 5, 3, rng) for _ in range(3)]
    thetas[1].lam[1] = 0.0
    thetas[1].lam /= thetas[1].lam.sum()
    got = em._em_update(U, U > 0, int(U.sum()),
                        np.stack([t.A * t.lam for t in thetas]),
                        np.stack([t.B for t in thetas]),
                        np.stack([t.product() for t in thetas]))
    for k, theta in enumerate(thetas):
        degenerate = _assert_round_matches_composition(U, [part[k] for part in got], theta)
        assert degenerate == ((1,) if k == 1 else ())
    assert np.all(got[1][1, 1] == 1 / 5)


class TestQuarantine:
    @staticmethod
    def _starts(U, r, seeds, dead=()):
        # random starts; those at the indices ``dead`` have a zero row of A at
        # an observed row, so their mixture is zero there from the outset
        m, n = U.shape
        thetas = [em.random_parameters(m, n, r, np.random.default_rng(s)) for s in seeds]
        for k in dead:
            thetas[k].A[0] = 0.0
            thetas[k].A /= thetas[k].A.sum(axis=0)
        return [np.stack([getattr(t, name) for t in thetas]) for name in ("A", "lam", "B")]

    def test_underflowing_restart_is_set_aside(self):
        rng = np.random.default_rng(12)
        U = rng.integers(1, 30, size=(4, 4))
        data = em.DataMatrix.from_array(U)
        seeds = list(range(6))
        with_bad, _ = em._em_loop(data, *self._starts(U, 3, seeds, dead=[2]),
                                  max_iter=300, tol=1e-10)
        keep = [k for k in range(len(seeds)) if k != 2]
        clean, _ = em._em_loop(data, *self._starts(U, 3, [seeds[k] for k in keep]),
                               max_iter=300, tol=1e-10)
        for name in ("A", "lam", "B", "P", "loglik", "iterations", "converged"):
            assert np.array_equal(getattr(with_bad, name)[keep], getattr(clean, name)), name
        assert with_bad.quarantined == 1 and clean.quarantined == 0
        assert with_bad.loglik[2] == -np.inf and with_bad.iterations[2] == 0
        assert not with_bad.converged[2]
        assert with_bad.monotonicity_slack == clean.monotonicity_slack
        assert with_bad.best_index == keep[clean.best_index]

    def test_batch_of_underflowing_restarts_raises(self):
        U = np.random.default_rng(13).integers(1, 30, size=(4, 4))
        data = em.DataMatrix.from_array(U)
        with pytest.raises(em.EMNumericalError):
            em._em_loop(data, *self._starts(U, 3, range(3), dead=range(3)),
                        max_iter=50, tol=1e-10)


class TestRunEM:
    def test_single_component_converges_to_independence(self):
        rng = np.random.default_rng(8)
        U = rng.integers(1, 9, size=(4, 5)).astype(float)
        res = em.run_em(U, 1, init=0, max_iter=50, tol=1e-12)
        expected = np.outer(U.sum(axis=1), U.sum(axis=0)) / U.sum() ** 2
        np.testing.assert_allclose(res.P_hat, expected, atol=1e-9)
        assert res.iterations <= 3

    def test_trace_monotone_and_estimate_normalized(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            U = rng.integers(1, 50, size=(4, 4))
            res = em.run_em(U, 3, init=seed, max_iter=800, tol=1e-11)
            assert np.all(np.diff(res.loglik_trace) >= -1e-9)
            assert res.P_hat.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_start_stays_fixed(self):
        rng = np.random.default_rng(10)
        U = rng.integers(1, 9, size=(3, 3)).astype(float)
        first = em.run_em(U, 2, init=4, max_iter=3000, tol=1e-14)
        for max_iter in (1, 3):  # one plain step, one SQUAREM cycle
            again = em.run_em(U, 2, init=first.params, max_iter=max_iter, tol=0.0)
            assert again.iterations == max_iter
            assert np.max(np.abs(again.P_hat - first.P_hat)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_accelerated_run_on_a_boundary_table(self, u10, seed):
        # the 0/1 table's maximizers have zero entries, so extrapolations
        # overshoot into negative entries and must be cut back or dropped
        res = em.run_em(u10, 3, init=seed, max_iter=3000, tol=1e-10)
        assert len(res.loglik_trace) == res.iterations + 1
        assert res.monotonicity_slack <= 1e-9
        theta = res.params
        theta.validate(atol=1e-12)
        assert theta.A.min() >= 0 and theta.B.min() >= 0 and theta.lam.min() >= 0
        np.testing.assert_allclose(res.P_hat, theta.product(), atol=1e-15)
        assert res.P_hat.min() >= 0 and res.P_hat.sum() == pytest.approx(1.0, abs=1e-12)

    def test_accelerated_run_reaches_the_plain_limit_sooner(self):
        # from one start, SQUAREM and plain EM reach the same fixed point;
        # SQUAREM needs a fraction of the EM-map evaluations
        rng = np.random.default_rng(14)
        U = rng.integers(1, 40, size=(5, 5))
        data = em.DataMatrix.from_array(U)
        theta = em.random_parameters(5, 5, 3, np.random.default_rng(15))
        fast = em.run_em(data, 3, init=theta, max_iter=20000, tol=1e-12)
        plain, _ = em._em_loop(data, theta.A[None], theta.lam[None], theta.B[None],
                               max_iter=200000, tol=1e-13)
        assert fast.converged and plain.converged[0]
        assert np.max(np.abs(fast.P_hat - plain.P[0])) < 1e-8
        assert fast.loglik >= plain.loglik[0] - 1e-9 * abs(plain.loglik[0])
        assert 3 * fast.iterations < plain.iterations[0]

    def test_three_named_fixed_points_of_the_zero_one_table(self, u10):
        # three known fixed-point estimates for the 0/1 table, in strictly
        # decreasing likelihood order; each is a member, each stays fixed
        candidates = [
            Matrix.exact([[3, 3, 0, 0], [2, 0, 4, 0], [0, 2, 0, 4],
                          [1, 1, 2, 2]]).scale(Fraction(1, 24)),
            Matrix.exact([[2, 2, 0, 0], [2, 0, 2, 0], [0, 1, 1, 2],
                          [0, 1, 1, 2]]).scale(Fraction(1, 16)),
            Matrix.exact([[4, 8, 0, 0], [3, 0, 4, 5], [5, 4, 0, 3],
                          [0, 0, 8, 4]]).scale(Fraction(1, 48)),
        ]
        logliks = []
        for P in candidates:
            from nnmix.rank3cert import nnrank3_membership
            assert bool(nnrank3_membership(P))
            A, B = nonneg_rank3_factorize(P)
            theta = _theta_from_factors(A, B)
            R = em.gradient_matrix(u10, P.to_numpy())
            assert max(em.fixed_point_residual(theta, R)) < 1e-12
            after = em.run_em(u10, 3, init=theta, max_iter=1, tol=0.0)
            assert np.max(np.abs(after.P_hat - P.to_numpy())) < 1e-12
            logliks.append(em.log_likelihood(u10, P.to_numpy()))
        assert logliks[0] > logliks[1] > logliks[2]

    def test_exact_fixed_point_survives_one_round(self, u10):
        # parameters with zero residual, derived from an exact factorization
        # of a boundary maximizer, must be left unchanged by one E/M round
        P1 = Matrix.exact([[3, 3, 0, 0], [2, 0, 4, 0], [0, 2, 0, 4],
                           [1, 1, 2, 2]]).scale(Fraction(1, 24))
        A, B = nonneg_rank3_factorize(P1)
        theta = _theta_from_factors(A, B)
        res = em.run_em(u10, 3, init=theta, max_iter=1, tol=0.0)
        assert np.max(np.abs(res.P_hat - P1.to_numpy())) < 1e-12

    def test_best_restart_hits_orbit(self, u10, p1_orbit):
        best, batch = em.run_em_restarts(u10, 3, restarts=20, seed=7,
                                         max_iter=2000, tol=1e-10)
        dist = min(np.max(np.abs(best.P_hat - M)) for M in p1_orbit)
        assert dist < 1e-6
        assert not best.critical.critical

    def test_restart_batch_is_deterministic(self, u10):
        seeds = [(0, k) for k in range(8)]
        b1 = em.em_restart_batch(u10, 3, seeds, max_iter=300, tol=1e-10)
        b2 = em.em_restart_batch(u10, 3, seeds, max_iter=300, tol=1e-10)
        assert np.array_equal(b1.P, b2.P)
        assert np.array_equal(b1.loglik, b2.loglik)

    def test_batch_restarts_match_single_runs(self):
        # a run does not depend on its batch: each restart must reproduce the
        # same loop run alone from ``random_parameters`` on its seed, bit for
        # bit, on a table with a zero cell (masked W) and on a fully observed
        # one (plain U / P)
        rng = np.random.default_rng(11)
        holed = rng.integers(0, 30, size=(4, 4))
        holed[0, 0] += 1
        full = rng.integers(1, 30, size=(4, 4))
        assert not (holed > 0).all() and (full > 0).all()
        seeds = [(3, k) for k in range(12)]
        for U in (holed, full):
            data = em.DataMatrix.from_array(U)
            batch = em.em_restart_batch(U, 2, seeds, max_iter=300, tol=1e-10)
            assert 0 < batch.converged.sum() < len(seeds)  # both kinds of run
            for k, seed in enumerate(seeds):
                theta = em.random_parameters(
                    4, 4, 2, np.random.default_rng(np.random.SeedSequence(seed)))
                single, _ = em._em_loop(data, theta.A[None], theta.lam[None],
                                        theta.B[None], max_iter=300, tol=1e-10)
                for name in ("P", "loglik", "iterations", "converged"):
                    assert np.array_equal(getattr(single, name)[0], getattr(batch, name)[k])

    def test_restarts_polish_an_unconverged_winner(self, u10):
        seeds = [(2, k) for k in range(8)]
        batch = em.em_restart_batch(u10, 3, seeds, max_iter=30, tol=1e-10)
        i = batch.best_index
        assert not batch.converged[i]
        polished, again = em.run_em_restarts(u10, 3, restarts=8, seed=2, max_iter=30,
                                             tol=1e-10)
        assert np.array_equal(again.P, batch.P)
        theta = em.ParameterTriple(batch.A[i], batch.lam[i], batch.B[i])
        direct = em.run_em(u10, 3, init=theta, tol=1e-10, max_iter=em.POLISH_ITER)
        assert np.array_equal(polished.P_hat, direct.P_hat)
        assert polished.iterations == 30 + direct.iterations
        assert polished.loglik >= batch.loglik[i]

    @staticmethod
    def _batch(loglik, converged):
        b = len(loglik)
        return em.RestartBatch(A=np.zeros((b, 2, 1)), lam=np.ones((b, 1)),
                               B=np.zeros((b, 1, 2)), P=np.zeros((b, 2, 2)),
                               loglik=np.array(loglik), iterations=np.zeros(b, dtype=int),
                               converged=np.array(converged), monotonicity_slack=0.0)

    def test_winner_ties_within_a_few_ulp(self):
        top = -2396549.165878614
        below = np.nextafter(top, -np.inf)  # one ulp lower
        far = top * (1 + 1e-12)
        # a one-ulp tie goes to the lower index, not to the larger value
        assert self._batch([below, top], [True, True]).best_index == 0
        # within the tie, a converged run beats an unconverged one
        assert self._batch([top, below, top], [False, True, True]).best_index == 1
        # with no converged run in the tie, the lowest index wins
        assert self._batch([far, below, top], [True, False, False]).best_index == 1
        # a run outside the band never wins, converged or not
        assert self._batch([far, top], [True, False]).best_index == 1
        # a quarantined run (-inf) is never tied
        assert self._batch([-np.inf, top], [False, False]).best_index == 1

    def test_restarts_must_be_positive(self, u10):
        with pytest.raises(ValueError, match="restarts"):
            em.run_em_restarts(u10, 3, restarts=0)
        with pytest.raises(ValueError, match="starting point"):
            em.em_restart_batch(u10, 3, [])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(tol=-1), "tol must be nonnegative, got -1"),
        (dict(tol=float("nan")), "tol must be nonnegative, got nan"),
        (dict(crit_tol=0), "crit_tol must be positive, got 0"),
        (dict(crit_tol=float("nan")), "crit_tol must be positive, got nan"),
    ], ids=["negative_tol", "nan_tol", "zero_crit_tol", "nan_crit_tol"])
    def test_run_em_rejects_bad_tolerances(self, u10, kwargs, message):
        with pytest.raises(ValueError, match=message):
            em.run_em(u10, 3, init=0, max_iter=5, **kwargs)

    def test_report_shape(self):
        res = em.run_em(np.array([[3, 1], [1, 3]]), 1, init=0, max_iter=10, tol=1e-9)
        rep = res.report()
        assert rep["schema"] == "1"
        assert set(rep) >= {"estimate", "loglik", "iterations", "residuals",
                            "critical", "seed"}

    def test_defaults_are_the_module_constants(self):
        expected = {"max_iter": em.MAX_ITER, "tol": em.TOL, "crit_tol": em.CRIT_TOL,
                    "rel_tol": em.CRIT_TOL}
        for func, names in ((em.run_em, ("max_iter", "tol", "crit_tol")),
                            (em.em_restart_batch, ("max_iter", "tol")),
                            (em.run_em_restarts, ("max_iter", "tol", "crit_tol")),
                            (em.is_critical, ("rel_tol",))):
            params = inspect.signature(func).parameters
            for name in names:
                assert params[name].default == expected[name], (func.__name__, name)
        cfg = ExperimentConfig(mode="table1")
        assert (cfg.tol, cfg.crit_tol) == (em.TOL, em.CRIT_TOL)
