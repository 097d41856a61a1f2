"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Each test prints a PASS line with the measured quantities so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as the acceptance report.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from nnmix import em
from nnmix.boundary import boundary_test, component_count
from nnmix.exactla import Matrix, determinant, matrix_rank
from nnmix.families import (greencurve_matrix, rectangle_family,
                            uab_closed_form_mle, uab_in_model, uab_matrix)
from nnmix.harness import ExperimentConfig, run_experiment
from nnmix.rank3cert import (membership_from_factors, nnrank3_membership,
                             nonneg_rank3_factorize, six_three, meet_join)

from conftest import NICE_P, random_rational_matrix, uab_normalized
from test_em import _theta_from_factors
from test_rank3cert import _inv, twotwo_expansion, _rand_config


def _report(criterion: int, message: str):
    print(f"\n[acceptance] criterion {criterion:2d}: PASS: {message}")


def test_criterion_01_membership_anchors():
    start = time.perf_counter()
    assert nnrank3_membership(uab_normalized(1, 0)).verdict == "out"
    assert nnrank3_membership(uab_normalized(100, 41)).verdict == "out"
    assert nnrank3_membership(uab_normalized(100, 42)).verdict == "in"
    assert nnrank3_membership(rectangle_family(Fraction(1, 4), Fraction(1, 4))).verdict == "in"
    assert nnrank3_membership(rectangle_family(Fraction(1, 2), Fraction(1, 2))).verdict == "out"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"five exact membership anchors in {elapsed * 1000:.0f} ms")


def test_criterion_02_threshold_sweep():
    start = time.perf_counter()
    verdicts = []
    for b in range(0, 101):
        in_model = uab_in_model(100, b)
        member = bool(nnrank3_membership(uab_normalized(100, b)))
        assert member == in_model, b
        verdicts.append(in_model)
    flips = [b for b in range(1, 101) if verdicts[b] != verdicts[b - 1]]
    assert flips == [42]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"threshold flips exactly at 42, certificate agrees on 0..100 "
               f"({elapsed:.1f} s)")


def test_criterion_03_closed_form_anchor(u10):
    mle = uab_closed_form_mle(1, 0)
    assert (mle.t, mle.s, mle.r, mle.v) == (Fraction(4, 3), Fraction(1, 3),
                                            Fraction(2, 3), Fraction(2, 3))
    assert mle.w == 0 and mle.u == 0
    P1 = Matrix.exact([[3, 3, 0, 0], [2, 0, 4, 0], [0, 2, 0, 4],
                       [1, 1, 2, 2]]).scale(Fraction(1, 24))
    assert mle.matrices[0] == P1

    logliks = []
    for M in mle.matrices:
        arr = M.to_numpy()
        R = em.gradient_matrix(u10, arr)
        A, B = nonneg_rank3_factorize(M)
        theta = _theta_from_factors(A, B)
        r1, r2 = em.fixed_point_residual(theta, R)
        assert max(r1, r2) < 1e-10
        assert boundary_test(M).status == "boundary"
        assert not em.is_critical(arr, R, 8).critical
        logliks.append(em.log_likelihood(u10, arr))
    assert max(logliks) - min(logliks) < 1e-10
    _report(3, "exact letters, first matrix anchored, eight maximizers fixed/"
               "boundary/non-critical with equal likelihood")


def test_criterion_04_em_consistency(u10, p1_orbit):
    start = time.perf_counter()
    closed_form = em.log_likelihood(u10, p1_orbit[0])
    best, batch = em.run_em_restarts(u10, 3, restarts=100, seed=0,
                                     max_iter=2000, tol=1e-10)
    assert abs(best.loglik - closed_form) < 1e-6
    assert min(np.max(np.abs(best.P_hat - M)) for M in p1_orbit) < 1e-6
    dists = [min(np.max(np.abs(batch.P[i] - M)) for M in p1_orbit)
             for i in range(100)]
    hit = float(np.mean(np.array(dists) < 1e-6))
    assert hit >= 0.90
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, f"best loglik within {abs(best.loglik - closed_form):.1e} of "
               f"closed form; {hit:.0%} of restarts reach the orbit "
               f"({elapsed:.0f} s)")


def test_criterion_05_monotonicity_suite():
    shapes = [(3, 3, 2)] * 34 + [(4, 4, 3)] * 33 + [(5, 5, 3)] * 33
    rng = np.random.default_rng(2024)
    interior_checked = 0
    for idx, (m, n, r) in enumerate(shapes):
        U = rng.integers(1, 31, size=(m, n))
        res = em.run_em(U, r, init=idx, max_iter=2000, tol=1e-10)
        assert np.all(np.diff(res.loglik_trace) >= -1e-9), (m, n, r, idx)
        interior = (res.converged
                    and min(res.params.A.min(), res.params.B.min()) > 1e-6)
        if interior:
            interior_checked += 1
            bound = 1e-6 * U.sum()
            assert res.critical.resid_ptr < bound and res.critical.resid_rpt < bound
    assert interior_checked >= 30  # the duality check must not be vacuous
    _report(5, f"100 traces non-decreasing (slack 1e-9); duality residuals "
               f"below 1e-6*u_plus at {interior_checked} interior optima")


def test_criterion_06_bracket_identities(symbolic_oracle):
    rng = np.random.default_rng(60)
    for _ in range(100):
        A, B = _rand_config(rng)
        cols = [tuple(row[c] for row in B) for c in range(4)]
        assert meet_join(A, B, 0, 2, 1, 3) == twotwo_expansion(
            tuple(A[0]), tuple(A[2]), cols[1], cols[3])
    sympy, expr, symbols = symbolic_oracle
    poly = sympy.Poly(expr, *symbols)
    assert len(poly.terms()) == 330
    for _ in range(50):
        A, B = _rand_config(rng)
        values = [x for row in A for x in row] + [x for row in B for x in row]
        subs = {s: sympy.Rational(v.numerator, v.denominator)
                for s, v in zip(symbols, values)}
        assert sympy.Rational(*six_three(A, B, 0, 1, 2, 3, 0, 1, 3).as_integer_ratio()) \
            == expr.xreplace(subs)
    _report(6, "12-term identity at 100 points, 330-monomial expansion "
               "matches composition at 50 points")


def test_criterion_07_boundary_anchors():
    P = Matrix.exact(NICE_P).scale(Fraction(1, 116))
    assert boundary_test(P).status == "boundary"
    base = greencurve_matrix(0, 0)
    assert determinant(base) == 0
    assert boundary_test(base).status == "boundary"
    rank1 = Matrix.exact([[i * j for j in (1, 2, 3, 4)] for i in (2, 3, 5, 7)])
    assert boundary_test(rank1).status == "interior"
    _report(7, "planted contact matrix and singular pencil base are boundary; "
               "positive rank-1 is interior")


def test_criterion_08_component_counts():
    cc = component_count(4, 4)
    assert (cc.zero_strata, cc.kind_a, cc.kind_b, cc.total) == (16, 144, 144, 304)
    for m in range(4, 13):
        for n in range(4, 13):
            cc = component_count(m, n)
            assert cc.total == m * n + 36 * comb(m, 3) * comb(n, 4) \
                + 36 * comb(m, 4) * comb(n, 3)
            assert cc.dimension == 3 * m + 3 * n - 11
    _report(8, "304 = 16 + 144 + 144; split identity and dimension checked "
               "for 4 <= m, n <= 12")


@pytest.mark.slow
def test_criterion_09_table1_reproduction(seed0_reports):
    start = time.perf_counter()
    cfg44 = ExperimentConfig(mode="table1", m=4, n=4, r=3, num_matrices=200,
                             num_restarts=100, max_iter=500, seed=0)
    f44 = seed0_reports(cfg44).fraction
    assert 0.01 <= f44 <= 0.10
    cfg55 = ExperimentConfig(mode="table1", m=5, n=5, r=3, num_matrices=200,
                             num_restarts=100, max_iter=500, seed=0)
    f55 = seed0_reports(cfg55).fraction
    assert 0.13 <= f55 <= 0.33
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    _report(9, f"flagged fractions (4,4,3)={f44:.3f} and (5,5,3)={f55:.3f} "
               f"at desk scale ({elapsed:.0f} s)")


@pytest.mark.slow
def test_criterion_10_planted_experiment(seed0_reports):
    start = time.perf_counter()
    cfg10 = ExperimentConfig(mode="planted", m=4, n=4, r=3, T=10,
                             num_matrices=200, num_restarts=100,
                             max_iter=500, seed=0)
    f10 = seed0_reports(cfg10).fraction
    assert 0.07 <= f10 <= 0.20
    cfg25 = ExperimentConfig(mode="planted", m=4, n=4, r=3, T=25,
                             num_matrices=200, num_restarts=100,
                             max_iter=500, seed=0)
    f25 = seed0_reports(cfg25).fraction
    assert f25 < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    _report(10, f"planted fractions T=10: {f10:.3f}, T=25: {f25:.3f} "
                f"({elapsed:.0f} s)")


@pytest.mark.slow
def test_criterion_11_boundary_fraction_experiment():
    cfg = ExperimentConfig(mode="boundary_fraction", num_matrices=2000,
                           seed=0, dist="rational", dist_param=100)
    rep = run_experiment(cfg)
    assert rep.extra["all_members"]
    assert 0.01 < rep.fraction < 0.15
    cfg_int = ExperimentConfig(mode="boundary_fraction", num_matrices=1000,
                               seed=0, dist="int1to4")
    rep_int = run_experiment(cfg_int)
    assert rep_int.extra["all_members"]
    assert rep_int.fraction < 0.02
    _report(11, f"stratum sampling: rational fraction {rep.fraction:.4f}, "
                f"small-integer fraction {rep_int.fraction:.4f}, all members")


@pytest.mark.slow
def test_criterion_12_membership_property_suite():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 500:
        A = random_rational_matrix(rng, 4, 3, num_range=6, den_range=4)
        B = random_rational_matrix(rng, 3, 4, num_range=6, den_range=4)
        P = A @ B
        if matrix_rank(P) != 3:
            continue
        checked += 1
        dec = nnrank3_membership(P)
        assert dec.verdict == "in", P.entries
        assert nnrank3_membership(P.transpose()).verdict == "in"
        assert nnrank3_membership(P.scale(Fraction(3, 7))).verdict == "in"
        while True:
            G = random_rational_matrix(rng, 3, 3, num_range=4, den_range=3)
            if determinant(G) != 0:
                break
        assert membership_from_factors(A @ G, _inv(G) @ B).verdict == "in"
        An, Bn = nonneg_rank3_factorize(P)
        assert An.is_nonnegative() and Bn.is_nonnegative()
        assert An @ Bn == P
    _report(12, "500 random nonnegative products: member under transpose, "
                "scaling, and factorization change; exact factorization "
                "round-trips on all")
