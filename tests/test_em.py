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

    @pytest.mark.parametrize("U, message", [
        (np.ones((2, 2, 2)), "count table must be 2-d"),
        ([[1, -1], [2, 3]], "count table has negative entries"),
        (np.zeros((3, 3)), "count table total must be positive"),
    ], ids=["three_d", "negative", "all_zero"])
    def test_malformed_table_rejected(self, U, message):
        with pytest.raises(ValueError, match=message):
            em.DataMatrix.from_array(U)

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
    # on a fully observed table (W is the plain quotient U / P), on one with
    # zero cells, and on one whose zero row meets a zero row of A, so that P
    # is exactly 0 at those unobserved cells; no round divides 0 by 0
    rng = np.random.default_rng(42)
    full = rng.integers(1, 15, size=(4, 5)).astype(float)
    holed, unseen = full.copy(), full.copy()
    holed.flat[[1, 7, 8, 18]] = 0.0
    unseen[0] = 0.0
    for U in (full, holed, unseen):
        theta = em.random_parameters(4, 5, 3, rng)
        if U is unseen:
            theta.A[0] = 0.0
            theta.A /= theta.A.sum(axis=0)
        mask = U > 0
        args = (int(U.sum()), theta.A * theta.lam, theta.B, theta.product())
        assert U is not unseen or not args[-1][0].any()
        with np.errstate(divide="raise", invalid="raise"):
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


@pytest.mark.parametrize("accelerate", [False, True], ids=["plain", "squarem"])
@pytest.mark.parametrize("runs", [1, 6])
@pytest.mark.parametrize("observed", ["full", "zero_cell"])
def test_update_and_loop_write_into_no_given_array(observed, runs, accelerate):
    # the round multiplies and divides in place in buffers it makes, and
    # reads the last round's AL through that AL's contiguous memory; neither
    # the round nor the loop may write into an array it is given
    U = np.random.default_rng(44).integers(1, 30, size=(4, 5)).astype(float)
    if observed == "zero_cell":
        U[1, 2] = 0.0
    data = em.DataMatrix.from_array(U)
    mask = None if (U > 0).all() else U > 0
    A, lam, B = TestQuarantine._starts(U, 3, range(runs))
    AL = A * lam[:, None, :]
    Us = np.repeat(U[None], runs, axis=0)
    given = (AL, B, AL @ B)
    for _ in range(3):  # the start's layout, then the last round's
        kept = [x.copy() for x in (Us,) + given]
        got = em._em_update(Us, mask, data.u_plus, *given)
        assert all(np.array_equal(x, y) for x, y in zip((Us,) + given, kept))
        assert not np.shares_memory(got[1], given[1])
        given = got
    starts = (A, lam, B)
    kept = [x.copy() for x in starts + (data.U,)]
    em._em_loop(data, *starts, max_iter=200, tol=1e-8, accelerate=accelerate)
    assert all(np.array_equal(x, y) for x, y in zip(starts + (data.U,), kept))


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

    def test_batch_of_underflowing_restarts_raises(self, monkeypatch):
        U = np.random.default_rng(13).integers(1, 30, size=(4, 4))
        data = em.DataMatrix.from_array(U)
        # quarantine is decided on the starts: no EM step is taken
        monkeypatch.setattr(em, "_em_update", None)
        with pytest.raises(em.EMNumericalError,
                           match="^mixture probability underflowed at an observed cell$"):
            em._em_loop(data, *self._starts(U, 3, range(3), dead=range(3)),
                        max_iter=50, tol=1e-10)

    def test_an_em_step_keeps_observed_cells_above_the_bound(self):
        # the E-step splits u_ij into n_ijk over the components and the
        # M-step divides by u_plus and by totals s_k <= u_plus, so
        # p'_ij >= sum_k n_ijk**2 / u_plus**2 >= u_ij**2 / (r * u_plus**2);
        # at a cell alone in its row and column, with r = 1, it is equal
        rng = np.random.default_rng(27)
        steps, lowest, isolated = 0, np.inf, []
        for t in range(160):
            r = 1 + t % 4
            m, n = (int(x) for x in rng.integers(1, 6, size=2))
            U = rng.integers(0, 10 ** int(rng.integers(1, 7)), size=(m, n)) * (
                rng.random((m, n)) < 0.7)
            lone = r == 1 and t % 8 == 0
            if lone:  # cell (0, 0) alone in its row and its column
                m, n = m + 1, n + 1
                U = np.pad(U, ((1, 0), (1, 0)))
                U[0, 0] = rng.integers(1, 10**6)
            U = U.astype(float)
            U[-1, -1] = max(U[-1, -1], 1.0)
            u_plus, mask = U.sum(), U > 0
            draws = rng.standard_exponential((8, em._draw_size(m, n, r)))
            draws **= rng.uniform(1, 30, size=(8, 1))
            A, lam, B = em._start(draws, m, n, r)
            AL = A * lam[:, None, :]
            P = AL @ B
            fit = (P[:, mask] > em._TINY).all(axis=1)  # _em_update's premise
            AL, B, P = AL[fit], B[fit], P[fit]
            Us = np.repeat(U[None], len(P), axis=0)
            P_new = em._em_update(Us, None if mask.all() else mask, u_plus, AL, B, P)[2]
            ratio = P_new[:, mask] / (U[mask] ** 2 / (r * u_plus**2))
            lowest = min(lowest, ratio.min(initial=np.inf))
            if lone:
                isolated.append(ratio[:, 0])
            steps += len(P)
        assert steps >= 1000
        assert lowest >= 1 - 1e-12
        assert np.abs(np.concatenate(isolated) - 1).max() < 1e-12

    @pytest.mark.parametrize("accelerate, at_round", [(False, 2), (True, 3), (True, 4)],
                             ids=["plain", "extrapolated", "after_extrapolation"])
    def test_underflow_after_a_step_raises(self, monkeypatch, accelerate, at_round):
        U = np.random.default_rng(14).integers(1, 30, size=(4, 4))
        data = em.DataMatrix.from_array(U)
        update, calls = em._em_update, []

        def zero_one_cell(*args):
            AL, B, P = update(*args)
            calls.append(len(P))
            if len(calls) == at_round:
                P[1, 2, 3] = 0.0  # an observed cell of run 1
            return AL, B, P

        monkeypatch.setattr(em, "_em_update", zero_one_cell)
        with pytest.raises(em.EMNumericalError, match="after an EM step"):
            em._em_loop(data, *self._starts(U, 3, range(4)), max_iter=50, tol=1e-10,
                        accelerate=accelerate)
        assert calls == [4] * at_round

    @pytest.mark.parametrize("observed", [True, False], ids=["observed", "unobserved"])
    def test_extrapolated_point_that_underflows_falls_back(self, observed):
        # only row 0 of AL moves, 2c -> c -> c/2 (c a power of two), so
        # alpha = -2 and row 0 of x' = x0 + 4 (x1 - x0) + 4 (x2 - 2 x1 + x0)
        # is exactly 0
        c = 2.0**-3
        B = np.array([[[0.5, 0.5], [0.25, 0.75]]])
        AL0 = np.array([[[2 * c, 2 * c], [0.25, 0.125]]])
        AL1, AL2 = AL0.copy(), AL0.copy()
        AL1[0, 0], AL2[0, 0] = c, c / 2
        U = np.array([[3.0, 1.0], [2.0, 5.0]]) if observed else np.array([[0.0, 0.0],
                                                                           [2.0, 5.0]])
        cells = None if observed else np.flatnonzero(U > 0)
        counts = U.ravel() if observed else U.ravel()[cells]
        P2 = AL2 @ B
        state = (AL2, B, P2, em._loglik(counts, cells, P2)[0], AL1, B, AL0, B)
        AL, B_out, P, use = em._extrapolate(counts, cells, state)
        assert np.array_equal(B_out, B)
        if observed:  # x' is zero at observed cells: x2 it is
            assert use.tolist() == [False]
            assert np.array_equal(AL, AL2) and np.array_equal(P, P2)
        else:
            assert use.tolist() == [True]
            want = AL0.copy()
            want[0, 0] = 0.0
            assert np.array_equal(AL, want) and np.array_equal(P, want @ B)


class TestSeeding:
    # a restart batch hashes its seeds in one pass; each restart's generator
    # state must be the one numpy's SeedSequence gives the seed
    @pytest.mark.parametrize("seeds", [
        [(0,)], [(7, 0)], [(2**31 - 1, 199)], [(3 * 10**6 + 17, 5)],
        [(2**40 + 5, 3)],  # an entry of two words
        [0, 1],
        [(0,), 7, (2**40 + 5, 3), (1, 2, 3, 4, 5, 6), (2**70, 0, 2**33 + 1), [np.uint32(9)]],
    ], ids=["zero", "pair", "int32_max", "large", "two_words", "plain_ints", "mixed_lengths"])
    def test_restart_states_are_numpys(self, seeds):
        for seed, got in zip(seeds, em._pcg64_states(seeds), strict=True):
            want = np.random.PCG64(np.random.SeedSequence(seed)).state["state"]
            assert got == (want["state"], want["inc"]), seed

    def test_plain_int_seeds_start_like_random_parameters(self, u10):
        data = em.DataMatrix.from_array(u10)
        batch = em.em_restart_batch(u10, 3, [0, 1], max_iter=0)
        for k in (0, 1):
            theta = em.random_parameters(4, 4, 3, np.random.default_rng(np.random.SeedSequence(k)))
            alone, _ = em._em_loop(data, theta.A[None], theta.lam[None], theta.B[None],
                                   max_iter=0, tol=em.TOL)
            for name in ("A", "lam", "B", "P", "loglik"):
                assert np.array_equal(getattr(alone, name)[0], getattr(batch, name)[k]), name

    @pytest.mark.parametrize("seed", [-1, (-1,), (3, -2), (2**40, -1)])
    def test_negative_entry_is_rejected_like_numpy(self, u10, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            em.em_restart_batch(u10, 3, [(0,), seed])

    @pytest.mark.parametrize("seed", [1.5, (0, 2.0)], ids=["float", "float_entry"])
    def test_float_seed_is_rejected_like_numpy(self, u10, seed):
        with pytest.raises(TypeError):
            np.random.SeedSequence(seed)
        with pytest.raises(TypeError, match="seed must be integer"):
            em.em_restart_batch(u10, 3, [(0,), seed])


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

    @pytest.mark.parametrize("shapes, r, accelerate", [
        (((6, 4), (4, 4)), 3, True),   # SQUAREM norms, summed per run
        (((8, 3), (3, 12)), 1, False),  # matrix-vector products, whose bits
        (((8, 3), (3, 12)), 1, True),   # depend on the strides
        (((7, 1), (10, 1)), 2, False),
    ], ids=["squarem", "one_component", "one_component_squarem", "one_column"])
    def test_batch_runs_match_single_runs_in_every_layout(self, shapes, r, accelerate):
        # the batch keeps its state with the run axis inside; a run must
        # still get the bits it gets alone
        for shape in shapes:
            U = np.random.default_rng(12).integers(0, 30, size=shape)
            data = em.DataMatrix.from_array(U)
            starts = TestQuarantine._starts(U, r, range(6))
            batch, _ = em._em_loop(data, *starts, max_iter=300, tol=1e-10,
                                   accelerate=accelerate)
            for k in range(6):
                single, _ = em._em_loop(data, *(x[[k]] for x in starts), max_iter=300,
                                        tol=1e-10, accelerate=accelerate)
                for name in ("A", "lam", "B", "P", "loglik", "iterations", "converged"):
                    assert np.array_equal(getattr(single, name)[0], getattr(batch, name)[k])

    @staticmethod
    def _stop_round(U, r, seed, max_iter, tol):
        # the stop rule on one run alone, checked on every round: the round
        # at which max|P_new - P| first falls below tol, or max_iter; and the
        # largest decrease of the log-likelihood over those rounds
        m, n = U.shape
        theta = em.random_parameters(m, n, r, np.random.default_rng(np.random.SeedSequence(seed)))
        data = em.DataMatrix.from_array(U)
        mask = data.U > 0
        cells = None if mask.all() else np.flatnonzero(mask)
        counts = data.U.ravel() if cells is None else data.U.ravel()[cells]
        AL, B = (theta.A * theta.lam)[None], theta.B[None]
        P = AL @ B
        ll = em._loglik(counts, cells, P)[0]
        slack = 0.0
        for rounds in range(1, max_iter + 1):
            AL, B, P_new = em._em_update(data.U, None if cells is None else mask,
                                         data.u_plus, AL, B, P)
            ll_new = em._loglik(counts, cells, P_new)[0]
            slack = max(slack, float(ll[0] - ll_new[0]))
            if np.abs(P_new - P).max() < tol:
                return rounds, True, slack
            P, ll = P_new, ll_new
        return max_iter, False, slack

    def test_each_restart_stops_at_its_own_round(self):
        # the batch looks at single runs only once enough entries are close;
        # every restart must still stop on the round the plain rule names,
        # in the full batch and in a batch of its own, where a stopping run
        # has exactly m*n close entries.  The slack, folded from a short
        # history at each stop and every em._FOLD rounds, must be the
        # largest decrease of any run's log-likelihood, step by step
        rng = np.random.default_rng(11)
        holed = rng.integers(0, 30, size=(4, 4))
        holed[0, 0] += 1
        full = rng.integers(1, 30, size=(4, 4))
        seeds = [(5, k) for k in range(16)]
        for U in (holed, full):
            batch = em.em_restart_batch(U, 3, seeds, max_iter=200, tol=1e-6)
            stopped = batch.iterations[batch.converged]
            assert len(set(stopped)) == len(stopped) >= 2  # distinct stop rounds
            assert not batch.converged.all()
            assert batch.iterations.max() > 2 * em._FOLD  # past two folds
            slack = 0.0
            for k, seed in enumerate(seeds):
                *want, step_slack = self._stop_round(U, 3, seed, 200, 1e-6)
                want = tuple(want)
                slack = max(slack, step_slack)
                assert (batch.iterations[k], batch.converged[k]) == want, k
                alone = em.em_restart_batch(U, 3, [seed], max_iter=200, tol=1e-6)
                assert (alone.iterations[0], alone.converged[0]) == want, k
                assert alone.monotonicity_slack == step_slack, k
            assert batch.monotonicity_slack == slack

    def test_slack_is_the_largest_stepped_decrease(self):
        # counts in the thousands, so the log-likelihood steps down by
        # rounding near a limit.  With tol = 1e-10 the runs stop at many
        # rounds and some run all 200, past three folds; with tol = 0 none
        # stops, and the slack is folded every em._FOLD rounds only
        holed = np.random.default_rng(0).integers(0, 1000, size=(4, 4))
        holed[0, 1] = holed[2, 3] = 0
        full = np.random.default_rng(3).integers(1, 1000, size=(4, 4))
        seeds = [(5, k) for k in range(12)]
        for U in (holed, full):
            for tol in (1e-10, 0.0):
                batch = em.em_restart_batch(U, 3, seeds, max_iter=200, tol=tol)
                assert batch.iterations.max() > 2 * em._FOLD
                if tol:
                    assert len(set(batch.iterations)) > 2 and not batch.converged.all()
                steps = [self._stop_round(U, 3, seed, 200, tol) for seed in seeds]
                assert [(int(i), bool(c)) for i, c in zip(batch.iterations, batch.converged)] \
                    == [step[:2] for step in steps]
                slack = max(step[2] for step in steps)
                assert slack > 0
                assert batch.monotonicity_slack == slack, (tol, batch.monotonicity_slack, slack)

    def test_accelerated_slack_is_the_largest_traced_decrease(self):
        # an accelerated batch's slack is the largest decrease along the
        # runs' log-likelihood traces, each taken from the run alone (a
        # trace is kept whole, not folded)
        U = np.random.default_rng(12).integers(0, 30, size=(4, 4))
        data = em.DataMatrix.from_array(U)
        starts = TestQuarantine._starts(U, 3, range(8))
        batch, _ = em._em_loop(data, *starts, max_iter=400, tol=1e-10, accelerate=True)
        assert len(set(batch.iterations)) > 2 and batch.iterations.max() > 2 * em._FOLD
        slack = 0.0
        for k in range(8):
            _, trace = em._em_loop(data, *(x[[k]] for x in starts), max_iter=400,
                                   tol=1e-10, trace=True, accelerate=True)
            slack = max(slack, float(np.max(trace[:-1] - trace[1:])))
        assert slack > 0
        assert batch.monotonicity_slack == slack

    def test_batch_state_comes_back_run_major(self):
        # the loop keeps its state with the run axis inside; what it returns
        # is C-contiguous, run first, and each run holds what it holds alone:
        # runs that stopped early, ran to max_iter, or were quarantined
        U = np.random.default_rng(12).integers(1, 30, size=(4, 5))
        data = em.DataMatrix.from_array(U)
        starts = TestQuarantine._starts(U, 3, range(8), dead=[3])
        batch, _ = em._em_loop(data, *starts, max_iter=150, tol=1e-5)
        assert batch.converged.any() and not batch.converged.all()
        assert batch.quarantined == 1 and batch.iterations[3] == 0
        for name, shape in (("A", (8, 4, 3)), ("lam", (8, 3)), ("B", (8, 3, 5)),
                            ("P", (8, 4, 5))):
            part = getattr(batch, name)
            assert part.shape == shape and part.flags.c_contiguous, name
        A0, lam0, B0 = starts
        A, lam = em._split(A0[3] * lam0[3])
        frozen = (A, lam, B0[3], (A0[3] * lam0[3]) @ B0[3])
        for k in range(8):
            if k == 3:
                alone = frozen
            else:
                single, _ = em._em_loop(data, A0[[k]], lam0[[k]], B0[[k]],
                                        max_iter=150, tol=1e-5)
                alone = (single.A[0], single.lam[0], single.B[0], single.P[0])
            for name, want in zip(("A", "lam", "B", "P"), alone):
                assert np.array_equal(getattr(batch, name)[k], want), (k, name)

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
        # a starting triple must fit the table and r
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"init has A \(5, 3\) and B \(3, 4\)"):
            em.run_em(u10, 3, init=em.random_parameters(5, 4, 3, rng))
        with pytest.raises(ValueError, match=r"r=2 needs A \(4, 2\) and B \(2, 4\)"):
            em.run_em(u10, 2, init=em.random_parameters(4, 4, 3, rng))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(tol=-1), "tol must be nonnegative, got -1"),
        (dict(tol=float("nan")), "tol must be nonnegative, got nan"),
        (dict(crit_tol=0), "crit_tol must be positive, got 0"),
        (dict(crit_tol=float("nan")), "crit_tol must be positive, got nan"),
    ], ids=["negative_tol", "nan_tol", "zero_crit_tol", "nan_crit_tol"])
    def test_run_em_rejects_bad_tolerances(self, u10, kwargs, message):
        with pytest.raises(ValueError, match=message):
            em.run_em(u10, 3, init=0, max_iter=5, **kwargs)

    @pytest.mark.parametrize("A, lam, B, message", [
        (np.full((4, 3), 0.25), np.full(2, 0.5), np.full((3, 4), 0.25),
         "parameter shapes are inconsistent"),
        (np.array([[1.25, 0.25, 0.25]] + [[-0.25, 0.25, 0.25]] + [[0.0, 0.25, 0.25]] * 2),
         np.full(3, 1 / 3), np.full((3, 4), 0.25), "negative parameter entries"),
        (np.full((4, 3), 0.5), np.full(3, 1 / 3), np.full((3, 4), 0.25),
         "parameters are not stochastic"),
    ], ids=["shapes", "negative", "not_stochastic"])
    def test_run_em_rejects_a_bad_start(self, u10, A, lam, B, message):
        with pytest.raises(ValueError, match=message):
            em.run_em(u10, 3, init=em.ParameterTriple(A, lam, B), max_iter=5)

    def test_report_shape(self):
        res = em.run_em(np.array([[3, 1], [1, 3]]), 1, init=0, max_iter=10, tol=1e-9)
        assert res.params.shape == (2, 1, 2)
        rep = res.report()
        assert rep["schema"] == "1"
        assert set(rep) >= {"estimate", "loglik", "iterations", "residuals",
                            "critical", "seed"}

    def test_defaults_are_the_module_constants(self):
        expected = {"max_iter": em.MAX_ITER, "tol": em.TOL, "crit_tol": em.CRIT_TOL,
                    "rel_tol": em.CRIT_TOL, "restarts": em.RESTARTS}
        for func, names in ((em.run_em, ("max_iter", "tol", "crit_tol")),
                            (em.em_restart_batch, ("max_iter", "tol")),
                            (em.run_em_restarts, ("max_iter", "tol", "crit_tol", "restarts")),
                            (em.is_critical, ("rel_tol",))):
            params = inspect.signature(func).parameters
            for name in names:
                assert params[name].default == expected[name], (func.__name__, name)
        cfg = ExperimentConfig(mode="table1")
        assert (cfg.tol, cfg.crit_tol, cfg.num_restarts) == (em.TOL, em.CRIT_TOL, em.RESTARTS)
