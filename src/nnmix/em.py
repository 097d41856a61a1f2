"""Expectation-maximization for the two-variable mixture model.

The model is the set of m-by-n probability matrices P = A @ diag(lam) @ B
with column-stochastic A (m-by-r), a probability vector lam, and
row-stochastic B (r-by-n).  One EM round estimates the hidden m-by-r-by-n
responsibility table from the current parameters (E-step) and re-fits the
parameters from that table (M-step).

Besides the iteration itself this module provides the log-likelihood, the
gradient matrix R with entries ``u_plus - u_ij / p_ij``, the fixed-point
residuals ``A * (R @ B.T)`` / ``B * (A.T @ R)`` (entrywise products), and the
criticality test based on the duality relations ``P.T @ R = 0 = R @ P.T``
that characterize the normal space of the rank-r matrix variety.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_TINY = 1e-300
POLISH_ITER = 10**4  # rounds allowed to converge an unconverged best restart


class EMNumericalError(ArithmeticError):
    """The mixture probability of an observed cell underflowed to zero."""


@dataclass(frozen=True)
class DataMatrix:
    """A nonnegative integer count table with cached total.

    Entries may be stored as floats but must be whole numbers.
    """

    U: np.ndarray
    u_plus: int

    @staticmethod
    def from_array(U) -> "DataMatrix":
        arr = np.array(U, dtype=float)
        if arr.ndim != 2:
            raise ValueError("count table must be 2-d")
        if np.any(arr < 0):
            raise ValueError("count table has negative entries")
        bad = np.argwhere(~np.isfinite(arr) | (arr != np.round(arr)))
        if len(bad):
            cells = ", ".join(f"({i}, {j}) = {float(arr[i, j])!r}" for i, j in bad[:4])
            more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
            raise ValueError(f"count table has non-integer entries: {cells}{more}")
        total = int(arr.sum())
        if total <= 0:
            raise ValueError("count table total must be positive")
        return DataMatrix(arr, total)

    @property
    def shape(self) -> tuple[int, int]:
        return self.U.shape


def _as_counts(U) -> DataMatrix:
    return U if isinstance(U, DataMatrix) else DataMatrix.from_array(U)


@dataclass
class ParameterTriple:
    """Stochastic factors (A, lam, B): columns of A, lam, and rows of B sum to 1."""

    A: np.ndarray
    lam: np.ndarray
    B: np.ndarray
    degenerate: tuple[int, ...] = ()  # components whose weight hit zero in an M-step

    def validate(self, atol: float = 1e-9):
        m, r = self.A.shape
        r2, n = self.B.shape
        if r2 != r or self.lam.shape != (r,):
            raise ValueError("parameter shapes are inconsistent")
        if np.any(self.A < -atol) or np.any(self.B < -atol) or np.any(self.lam < -atol):
            raise ValueError("negative parameter entries")
        if not (np.allclose(self.A.sum(axis=0), 1.0, atol=atol)
                and np.allclose(self.B.sum(axis=1), 1.0, atol=atol)
                and abs(self.lam.sum() - 1.0) <= atol):
            raise ValueError("parameters are not stochastic")

    def product(self) -> np.ndarray:
        return np.einsum("ik,k,kj->ij", self.A, self.lam, self.B)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.A.shape[1], self.B.shape[1])


def parameter_dimension(m: int, n: int, r: int) -> int:
    """Dimension of the parameter polytope: r simplices of each kind plus
    the weight simplex, r*(m+n) - r - 1."""
    return r * (m + n) - r - 1


def model_dimension(m: int, n: int, r: int) -> int:
    """Dimension of the set of normalized rank-r m-by-n matrices,
    r*(m+n) - r^2 - 1; the parametrization has r^2 - r dimensional fibers."""
    return r * (m + n) - r * r - 1


def random_parameters(m: int, n: int, r: int, rng: np.random.Generator) -> ParameterTriple:
    """Uniform draws from each simplex via normalized exponential variates."""
    if r < 1:
        raise ValueError(f"mixture needs at least one component, got r={r}")
    A = rng.exponential(size=(m, r))
    A /= A.sum(axis=0, keepdims=True)
    lam = rng.exponential(size=r)
    lam /= lam.sum()
    B = rng.exponential(size=(r, n))
    B /= B.sum(axis=1, keepdims=True)
    return ParameterTriple(A, lam, B)


def log_likelihood(U, P) -> float:
    """Sum of u_ij * log(p_ij) over cells with u_ij > 0.

    Returns -inf when some observed cell is assigned probability zero.
    """
    data = _as_counts(U)
    P = np.asarray(P, dtype=float)
    mask = data.U > 0
    if np.any(P[mask] <= 0.0):
        return float("-inf")
    return float(np.sum(data.U[mask] * np.log(P[mask])))


def e_step(U, theta: ParameterTriple) -> np.ndarray:
    """Responsibility table v[i,k,j]; zero whenever the mixture cell is zero."""
    data = _as_counts(U)
    contrib = np.einsum("ik,k,kj->ikj", theta.A, theta.lam, theta.B)
    denom = contrib.sum(axis=1)  # = P
    with np.errstate(divide="ignore", invalid="ignore"):
        V = contrib * (data.U / np.where(denom > 0, denom, 1.0))[:, None, :]
    return np.where((denom > 0)[:, None, :], V, 0.0)


def m_step(V: np.ndarray, u_plus: int) -> ParameterTriple:
    """Maximize the complete-data likelihood for a responsibility table.

    Components whose weight comes out exactly zero receive uniform
    conditionals and are flagged in ``degenerate``; with positive data this
    only happens for degenerate inputs, since the weights stay positive
    along EM trajectories started in the interior.
    """
    if u_plus <= 0:
        raise ValueError("u_plus must be positive")
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
    return ParameterTriple(A, lam, B, degenerate=degenerate)


def gradient_matrix(U, P) -> np.ndarray:
    """Gradient of the log-likelihood at P: r_ij = u_plus - u_ij / p_ij.

    Cells with u_ij = 0 contribute r_ij = u_plus regardless of p_ij (the
    likelihood term is dropped there); a zero p_ij under a positive count is
    an error.
    """
    data = _as_counts(U)
    P = np.asarray(P, dtype=float)
    if np.any((P <= 0.0) & (data.U > 0)):
        raise ZeroDivisionError("gradient undefined: zero probability at an observed cell")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(data.U > 0, data.U / np.where(P > 0, P, 1.0), 0.0)
    return data.u_plus - ratio


def fixed_point_residual(theta: ParameterTriple, R) -> tuple[float, float]:
    """Max-abs entries of A * (R @ B.T) and B * (A.T @ R) (entrywise products).

    Both vanish exactly at EM fixed points.  Accepts float or exact
    (Fraction) arrays; exact inputs are evaluated exactly before taking the
    float of the maximum.
    """
    A, B = theta.A, theta.B
    R = np.asarray(R)
    first = A * (R @ np.transpose(B))
    second = B * (np.transpose(A) @ R)
    to_mag = (lambda x: float(abs(x)))
    m1 = max((to_mag(v) for v in np.ravel(first)), default=0.0)
    m2 = max((to_mag(v) for v in np.ravel(second)), default=0.0)
    return (m1, m2)


@dataclass(frozen=True)
class CriticalityResult:
    critical: bool
    resid_ptr: float  # max-abs entry of P.T @ R
    resid_rpt: float  # max-abs entry of R @ P.T
    threshold: float
    rank_p: int

    def __bool__(self) -> bool:
        return self.critical


def is_critical(P, R, u_plus: float, rel_tol: float = 1e-6) -> CriticalityResult:
    """Test whether P is a critical point of the likelihood on the rank-r variety.

    At a rank-r point the normal space is characterized by ``P.T @ R = 0``
    and ``R @ P.T = 0``, so no factorization is needed.  Both residuals must
    stay below ``rel_tol * u_plus * max|p_ij|``.
    """
    Pf = np.asarray(P, dtype=float)
    Rf = np.asarray(R, dtype=float)
    resid1 = float(np.max(np.abs(Pf.T @ Rf)))
    resid2 = float(np.max(np.abs(Rf @ Pf.T)))
    threshold = rel_tol * float(u_plus) * float(np.max(np.abs(Pf)))
    sv = np.linalg.svd(Pf, compute_uv=False)
    rank_p = int(np.sum(sv > 1e-9 * sv[0])) if sv[0] > 0 else 0
    return CriticalityResult(resid1 < threshold and resid2 < threshold,
                             resid1, resid2, threshold, rank_p)


@dataclass
class EMResult:
    params: ParameterTriple
    P_hat: np.ndarray
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    fixed_point_residual: float
    critical: CriticalityResult
    seed: int | None = None

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    def report(self) -> dict:
        return {
            "schema": "1",
            "estimate": [[float(x) for x in row] for row in self.P_hat],
            "loglik": self.loglik,
            "iterations": self.iterations,
            "converged": self.converged,
            "residuals": {
                "fixed_point": self.fixed_point_residual,
                "ptr": self.critical.resid_ptr,
                "rpt": self.critical.resid_rpt,
            },
            "critical": bool(self.critical),
            "rank": self.critical.rank_p,
            "seed": self.seed,
        }


def _em_update(U, u_plus, A, lam, B, P):
    """One E+M round in collapsed form (the m-by-r-by-n table is never built).

    ``P`` is the current product ``A @ diag(lam) @ B``, above ``_TINY`` at
    every observed cell; returns the new factors and their product.  Works
    on arrays with an optional leading batch axis.
    """
    W = np.where(U > 0, U / np.where(P > _TINY, P, 1.0), 0.0)
    Sa = A * lam[..., None, :] * np.einsum("...ij,...kj->...ik", W, B)
    Sb = lam[..., :, None] * B * np.einsum("...ik,...ij->...kj", A, W)
    lam_new = Sa.sum(axis=-2) / u_plus
    safe = np.where(lam_new > 0, lam_new, 1.0)
    A_new = Sa / (u_plus * safe[..., None, :])
    B_new = Sb / (u_plus * safe[..., :, None])
    if np.any(lam_new == 0):
        m = A.shape[-2]
        n = B.shape[-1]
        dead = lam_new == 0
        A_new = np.where(dead[..., None, :], 1.0 / m, A_new)
        B_new = np.where(dead[..., :, None], 1.0 / n, B_new)
    P_new = np.einsum("...ik,...k,...kj->...ij", A_new, lam_new, B_new)
    return A_new, lam_new, B_new, P_new


@dataclass
class RestartBatch:
    """Final state of a batch of independently started EM runs."""

    A: np.ndarray        # (b, m, r)
    lam: np.ndarray      # (b, r)
    B: np.ndarray        # (b, r, n)
    P: np.ndarray        # (b, m, n)
    loglik: np.ndarray   # (b,)
    iterations: np.ndarray
    converged: np.ndarray
    monotonicity_slack: float  # largest observed per-step decrease of loglik

    @property
    def best_index(self) -> int:
        return int(np.argmax(self.loglik))


def _loglik(U, mask, P) -> np.ndarray:
    """Log-likelihood of each matrix in a (b, m, n) stack, after checking
    that no observed cell has underflowed."""
    if np.any(mask & (P <= _TINY)):
        raise EMNumericalError("mixture probability underflowed at an observed cell")
    return np.einsum("ij,bij->b", U, np.log(np.where(mask, P, 1.0)))


def _em_loop(data: DataMatrix, A, lam, B, max_iter: int, tol: float,
             trace: bool = False) -> tuple[RestartBatch, np.ndarray | None]:
    """The EM driver: iterate a batch of starting points in lockstep.

    ``A`` (b, m, r), ``lam`` (b, r) and ``B`` (b, r, n) are the starting
    parameters.  A run stops when the max entrywise change of its P drops
    below ``tol``, and is frozen from then on, or after ``max_iter`` rounds.
    With ``trace`` set on a batch of one, also returns its log-likelihood
    before the first round and after each round.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    A, lam, B = (np.array(x, dtype=float) for x in (A, lam, B))
    U, mask = data.U, data.U > 0
    P = np.einsum("bik,bk,bkj->bij", A, lam, B)
    ll = _loglik(U, mask, P)
    b = len(ll)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    slack = 0.0
    history = [float(ll[0])] if trace else None
    live = np.arange(b)     # runs still iterating, and their state, compacted
    state = (A, lam, B, P, ll)
    rounds = 0

    def store(sel, conv: bool):
        for full, part in zip((A, lam, B, P, ll), state):
            full[live[sel]] = part[sel]
        iterations[live[sel]] = rounds
        converged[live[sel]] = conv

    while rounds < max_iter and len(live):
        rounds += 1
        A_old, lam_old, B_old, P_old, ll_old = state
        A_new, lam_new, B_new, P_new = _em_update(U, data.u_plus, A_old, lam_old,
                                                  B_old, P_old)
        delta = np.abs(P_new - P_old).reshape(len(live), -1).max(axis=1)
        ll_new = _loglik(U, mask, P_new)
        slack = max(slack, float((ll_old - ll_new).max()))
        state = (A_new, lam_new, B_new, P_new, ll_new)
        if trace:
            history.append(float(ll_new[0]))
        done = delta < tol
        if done.any():
            store(done, True)
            live = live[~done]
            state = tuple(part[~done] for part in state)
    store(slice(None), False)

    batch = RestartBatch(A=A, lam=lam, B=B, P=P, loglik=ll, iterations=iterations,
                         converged=converged, monotonicity_slack=slack)
    return batch, (np.array(history) if trace else None)


def _result(data: DataMatrix, batch: RestartBatch, i: int, trace, crit_tol: float,
            seed) -> EMResult:
    """EMResult for run ``i`` of a batch, with its residuals and criticality."""
    params = ParameterTriple(batch.A[i], batch.lam[i], batch.B[i])
    P = batch.P[i]
    R = gradient_matrix(data, P)
    crit = is_critical(P, R, data.u_plus, crit_tol)
    return EMResult(params=params, P_hat=P, loglik_trace=trace,
                    iterations=int(batch.iterations[i]),
                    converged=bool(batch.converged[i]),
                    fixed_point_residual=max(fixed_point_residual(params, R)),
                    critical=crit, seed=seed)


def run_em(U, r: int, init=None, max_iter: int = 2000, tol: float = 1e-10,
           crit_tol: float = 1e-6) -> EMResult:
    """Run EM on a count table until the estimate stabilizes.

    ``init`` is a ParameterTriple, an integer seed, or None (seed 0).
    Iteration stops when the max entrywise change of P drops below ``tol``
    or after ``max_iter`` rounds.  The returned trace of log-likelihood
    values is non-decreasing up to float rounding.
    """
    data = _as_counts(U)
    m, n = data.shape
    seed = None
    if isinstance(init, ParameterTriple):
        theta = init
        theta.validate()
    else:
        seed = 0 if init is None else int(init)
        theta = random_parameters(m, n, r, np.random.default_rng(np.random.SeedSequence(seed)))
    batch, trace = _em_loop(data, theta.A[None], theta.lam[None], theta.B[None],
                            max_iter, tol, trace=True)
    return _result(data, batch, 0, trace, crit_tol, seed)


def em_restart_batch(U, r: int, seeds, max_iter: int = 2000,
                     tol: float = 1e-10) -> RestartBatch:
    """Vectorized EM over independent restarts (one RNG stream per seed).

    All restarts advance in lockstep; elements that have converged are
    frozen.  The result is bit-reproducible for a fixed seed list, and each
    restart matches ``run_em`` started from the same draw.
    """
    data = _as_counts(U)
    m, n = data.shape
    b = len(seeds)
    A = np.empty((b, m, r))
    lam = np.empty((b, r))
    B = np.empty((b, r, n))
    for idx, seed in enumerate(seeds):
        theta = random_parameters(m, n, r, np.random.default_rng(np.random.SeedSequence(seed)))
        A[idx], lam[idx], B[idx] = theta.A, theta.lam, theta.B
    return _em_loop(data, A, lam, B, max_iter, tol)[0]


def run_em_restarts(U, r: int, restarts: int = 100, seed: int | tuple = 0,
                    max_iter: int = 2000, tol: float = 1e-10,
                    crit_tol: float = 1e-6) -> tuple[EMResult, RestartBatch]:
    """Best-of-``restarts`` EM, the one entry point for a maximizer estimate.

    Restart k starts from ``SeedSequence((seed, k))``; a tuple seed is
    spliced in as ``(*seed, k)``.  The winner is the restart with the highest
    log-likelihood.  If it has not converged within ``max_iter`` rounds,
    ``run_em`` continues it for up to ``POLISH_ITER`` more, so the estimate
    and its criticality describe the limit the winner is heading to.  The
    command line (``em``, with any ``--restarts``) and the experiments both
    come through here, so they classify the same point.  The result's
    ``iterations`` counts batch and polish rounds together.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    data = _as_counts(U)
    prefix = seed if isinstance(seed, tuple) else (seed,)
    batch = em_restart_batch(data, r, [(*prefix, k) for k in range(restarts)],
                             max_iter=max_iter, tol=tol)
    i = batch.best_index
    if batch.converged[i]:
        return _result(data, batch, i, batch.loglik[[i]], crit_tol, seed), batch
    theta = ParameterTriple(batch.A[i], batch.lam[i], batch.B[i])
    polished = run_em(data, r, init=theta, max_iter=POLISH_ITER, tol=tol, crit_tol=crit_tol)
    total = int(batch.iterations[i]) + polished.iterations
    return replace(polished, iterations=total, seed=seed), batch
