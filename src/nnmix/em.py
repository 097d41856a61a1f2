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

from .defaults import CRIT_TOL, MAX_ITER, POLISH_ITER, RESTARTS, TOL
from .exactla import from_numpy, matrix_rank

_TINY = 1e-300
# restarts whose log-likelihoods differ by less than this, relative (about 10
# ulp), reach the same maximizer as far as the arithmetic can tell
_TIE_REL = 2e-15
# ``_em_loop`` folds the log-likelihood steps into the slack at least this often
_FOLD = 64


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


def _draw_size(m: int, n: int, r: int) -> int:
    """The number of exponential draws a start takes: A, lam, B in turn."""
    if r < 1:
        raise ValueError(f"mixture needs at least one component, got r={r}")
    return m * r + r + r * n


def _start(draws, m: int, n: int, r: int):
    """``(A, lam, B)`` from a start's exponential draws, in place: the
    columns of A, lam and the rows of B scaled to sum to 1.  ``draws`` may
    carry a leading batch axis; each row gets the bits it gets alone."""
    lead = draws.shape[:-1]
    A = draws[..., :m * r].reshape(lead + (m, r))
    lam = draws[..., m * r:m * r + r]
    B = draws[..., m * r + r:].reshape(lead + (r, n))
    A /= A.sum(axis=-2, keepdims=True)
    lam /= lam.sum(axis=-1, keepdims=True)
    B /= B.sum(axis=-1, keepdims=True)
    return A, lam, B


def random_parameters(m: int, n: int, r: int, rng: np.random.Generator) -> ParameterTriple:
    """Uniform draws from each simplex via normalized exponential variates."""
    return ParameterTriple(*_start(rng.standard_exponential(_draw_size(m, n, r)), m, n, r))


# numpy's SeedSequence (bit_generator.pyx) and pcg64_set_seed (pcg64.h),
# whose arithmetic ``_pcg64_states`` repeats for a batch of seeds at once
_MASK32 = 0xFFFFFFFF
_POOL = 4                                 # SeedSequence's default pool size
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy hash of mix_entropy
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the output hash of generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _words(entropy) -> list:
    """The uint32 words ``SeedSequence`` reads from a seed: an integer's
    words, low first, or the words of each entry of a sequence in turn."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    if isinstance(entropy, (float, np.inexact)):
        raise TypeError("seed must be integer")
    words = []
    for entry in entropy:
        if type(entry) is int and 0 <= entry <= _MASK32:  # the usual entry: one word
            words.append(entry)
        else:
            words += _words(entry)
    return words


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` values of a hash constant that starts at ``start`` and
    is multiplied by ``mult`` at each use, as a uint32 column."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _pcg64_states(seeds) -> list:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed))`` for each seed.

    The seeds' entropy is hashed as one uint32 array, a column per seed,
    in the steps of numpy's ``mix_entropy`` and ``generate_state``; the two
    LCG steps of the PCG64 seeding run on Python ints.
    """
    entropy = [_words(seed) for seed in seeds]
    lengths = np.array([len(words) for words in entropy])
    length = max(_POOL, int(lengths.max()))
    # a seed shorter than the pool reads zeros past its end
    words = np.array([w + [0] * (length - len(w)) for w in entropy], dtype=np.uint32).T
    shift = np.uint32(16)
    # the constant advances at each hashmix call, the same for every seed;
    # call k xors with constant k and multiplies by constant k + 1
    consts = _hash_constants(_HASH_A, _MULT_A, _POOL * length)
    calls = 0

    def hashmix(value, count):
        """``count`` successive hashmix calls, one per row."""
        nonlocal calls
        value = (value ^ consts[calls:calls + count]) * consts[calls + 1:calls + count + 1]
        calls += count
        return value ^ (value >> shift)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> shift)

    pool = hashmix(words[:_POOL], _POOL)
    for src in range(_POOL):
        # the other words, in order, each mixed with a hash of this one
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for src in range(_POOL, length):  # words past the pool, for the seeds that have them
        pool = np.where(lengths > src, mix(pool, hashmix(words[src], _POOL)), pool)
    # generate_state(4, uint64): eight words from the pool taken twice, each
    # pair the low and high half of a uint64
    out = _hash_constants(_HASH_B, _MULT_B, 2 * _POOL)
    value = (np.concatenate((pool, pool)) ^ out[:-1]) * out[1:]
    value ^= value >> shift
    halves = (value[1::2].astype(np.uint64) << np.uint64(32) | value[::2]).tolist()
    states = []
    for high, low, inc_high, inc_low in zip(*halves):
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        # pcg64_srandom_r: state 0, one step, add the seed, one more step
        states.append((((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


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

    Both vanish exactly at EM fixed points.
    """
    A, B = theta.A, theta.B
    R = np.asarray(R)
    first = A * (R @ np.transpose(B))
    second = B * (np.transpose(A) @ R)
    return (float(np.max(np.abs(first), initial=0.0)),
            float(np.max(np.abs(second), initial=0.0)))


@dataclass(frozen=True)
class CriticalityResult:
    critical: bool
    resid_ptr: float  # max-abs entry of P.T @ R
    resid_rpt: float  # max-abs entry of R @ P.T
    threshold: float
    rank_p: int  # float rank of P: the pivot count of exactla.matrix_rank

    def __bool__(self) -> bool:
        return self.critical


def is_critical(P, R, u_plus: float, rel_tol: float = CRIT_TOL) -> CriticalityResult:
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
    return CriticalityResult(resid1 < threshold and resid2 < threshold,
                             resid1, resid2, threshold, matrix_rank(from_numpy(Pf)))


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

    @property
    def monotonicity_slack(self) -> float:
        """Largest per-step decrease of the log-likelihood along the trace."""
        return float(np.max(-np.diff(self.loglik_trace), initial=0.0))

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


def _em_update(U, mask, u_plus, AL, B, P):
    """One E+M round in collapsed form (the m-by-r-by-n table is never built).

    The round works on ``AL = A @ diag(lam)`` and ``B``.  ``P = AL @ B`` is
    the current product, above ``_TINY`` at every observed cell: those
    marked in ``mask``, or every cell when ``mask`` is None.  ``U`` is the
    count table, or a copy of it per run.  Returns the new ``AL`` and ``B``
    and their product.  Arrays may carry a leading batch axis: a single run
    and a batch go through the same calls.  When m, n and r are all 2 or
    more, the new ``AL`` is a view of an (m, batch, r) buffer, whose strided
    matrices BLAS reads and writes in place.  The round writes only into
    arrays it makes.  A component whose weight comes out zero gets the
    uniform row 1/n in ``B`` (and, from ``_split``, the uniform column 1/m
    in ``A``).
    """
    # an observed cell of a live run has P > _TINY, so the floor only turns
    # 0/0 at an unobserved cell (where U is 0) into 0
    W = U / (P if mask is None else np.maximum(P, _TINY))
    m, r = AL.shape[-2:]
    # the batch axis goes inside unless a product is a matrix-vector one (a
    # dimension is 1): the bits of those depend on the strides
    inside = min(m, r, B.shape[-1]) > 1
    # the contiguous memory Sa lives in: (m, batch, r), or run-major
    buf = np.empty((m,) + AL.shape[:-2] + (r,) if inside else AL.shape)
    rows = buf if inside else buf.swapaxes(0, -2)
    # B.T is copied: the product on a contiguous operand is faster, same bits
    Sa = np.matmul(W, B.swapaxes(-1, -2).copy(), out=rows.swapaxes(0, -2))
    # u_plus * AL_new, on buf: contiguous on both sides when AL is the last
    # round's Sa, which lives in the same layout
    buf *= AL.swapaxes(0, -2) if inside else AL
    Sb = np.matmul(AL.swapaxes(-1, -2), W)
    np.multiply(B, Sb, out=Sb)                 # u_plus * lam_new * B_new
    # u_plus * lam_new: the rows of Sa added in order, which sum(axis=0) does
    # on contiguous rows of two or more numbers, and accumulate on any rows
    s = (rows.sum(axis=0) if inside else np.add.accumulate(rows)[-1])[..., None]
    if np.count_nonzero(s) == s.size:
        B_new = np.divide(Sb, s, out=Sb)
    else:
        dead = s == 0
        B_new = np.where(dead, 1.0 / B.shape[-1], Sb / np.where(dead, 1.0, s))
    buf /= u_plus
    return Sa, B_new, Sa @ B_new


def _split(AL):
    """``(A, lam)`` from ``AL = A @ diag(lam)``; a component of weight zero
    gets the uniform column 1/m."""
    lam = AL.sum(axis=-2)
    weight = lam[..., None, :]
    dead = weight == 0
    return np.where(dead, 1.0 / AL.shape[-2], AL / np.where(dead, 1.0, weight)), lam


@dataclass
class RestartBatch:
    """Final state of a batch of independently started EM runs.

    A quarantined run is one whose start underflowed at an observed cell
    (no EM step does; see ``_em_loop``); it is frozen there with
    log-likelihood -inf, never wins, and is left out of ``monotonicity_slack``.
    """

    A: np.ndarray        # (b, m, r)
    lam: np.ndarray      # (b, r)
    B: np.ndarray        # (b, r, n)
    P: np.ndarray        # (b, m, n)
    loglik: np.ndarray   # (b,)
    iterations: np.ndarray
    converged: np.ndarray
    monotonicity_slack: float  # largest observed per-step decrease of loglik
    quarantined: int = 0       # runs set aside for an underflowing start

    @property
    def best_index(self) -> int:
        """The winner: the lowest-index converged run among those tied with
        the highest log-likelihood, or the lowest-index tied run when none of
        them converged.  Runs tie when within ``_TIE_REL`` of the maximum, so
        the last bits of the arithmetic do not pick the winner."""
        best = self.loglik.max()
        tied = self.loglik >= best - _TIE_REL * abs(best)
        settled = tied & self.converged
        return int(np.argmax(settled if settled.any() else tied))


def _loglik(counts, cells, P):
    """Log-likelihood of each matrix in a (b, m, n) stack, from the counts
    at the observed cells: flat indices ``cells``, or every cell when
    ``cells`` is None.

    Returns it with the mask of runs whose probability at an observed cell
    is ``_TINY`` or below, or with None when there is no such run; those
    runs get -inf.
    """
    Pm = P.reshape(len(P), -1)
    if cells is not None:
        Pm = Pm.take(cells, axis=1)
    # one dot product per run, not one matrix-vector product, so that a
    # run's value does not depend on the other runs in the batch
    if Pm.min() > _TINY:
        return (np.log(Pm)[:, None] @ counts)[:, 0], None
    bad = (Pm <= _TINY).any(axis=1)
    ll = np.full(len(Pm), -np.inf)
    ll[~bad] = (np.log(Pm[~bad])[:, None] @ counts)[:, 0]
    return ll, bad


def _extrapolate(counts, cells, state):
    """The SQUAREM-3 point (Varadhan & Roland, Scand. J. Statist. 35, 2008)
    of each run, from its last three EM iterates x0, x1 = F(x0), x2 = F(x1)
    over ``(AL, B)``.

    ``state`` holds x2 with its product and log-likelihood, then x1 and x0.
    With r = x1 - x0 and v = x2 - 2 x1 + x0 the point is
    x' = x0 - 2 alpha r + alpha^2 v, alpha = min(-|r|/|v|, -1); alpha = -1
    gives x2 back.  While x' has a negative entry, alpha moves halfway to -1.
    Returns the points the next EM step starts from, their products, and
    the mask of runs that start from x'; the others start from x2: their
    alpha reached -1, or x' underflows at an observed cell.
    """
    AL2, B2, P2, _, AL1, B1, AL0, B0 = state
    # run-major copies of the (m, batch, r) iterates, so that a run's norms
    # are summed in the same order in any batch
    AL2, AL1, AL0 = (np.ascontiguousarray(x) for x in (AL2, AL1, AL0))
    rA, rB = AL1 - AL0, B1 - B0
    vA, vB = AL2 - 2 * AL1 + AL0, B2 - 2 * B1 + B0
    r = np.sqrt((rA * rA).sum(axis=(1, 2)) + (rB * rB).sum(axis=(1, 2)))
    v = np.sqrt((vA * vA).sum(axis=(1, 2)) + (vB * vB).sum(axis=(1, 2)))
    # |v| is 0 or above 1e-162, so alpha is finite and the halving below ends
    alpha = np.minimum(-np.divide(r, v, out=np.ones_like(r), where=v > 0), -1.0)
    while True:
        a = alpha[:, None, None]
        a2, aa = 2 * a, a * a
        AL, B = AL0 - a2 * rA + aa * vA, B0 - a2 * rB + aa * vB
        use = alpha < -1
        negative = use & ((AL < 0).any(axis=(1, 2)) | (B < 0).any(axis=(1, 2)))
        if not negative.any():
            break
        alpha = np.where(negative, (alpha - 1) / 2, alpha)
    P = AL @ B
    bad = _loglik(counts, cells, P)[1]
    if bad is not None:
        use &= ~bad
    if not use.all():
        keep = ~use[:, None, None]
        AL, B, P = np.where(keep, AL2, AL), np.where(keep, B2, B), np.where(keep, P2, P)
    return AL, B, P, use


def _em_loop(data: DataMatrix, A, lam, B, max_iter: int, tol: float,
             trace: bool = False,
             accelerate: bool = False) -> tuple[RestartBatch, np.ndarray | None]:
    """The EM driver: iterate a batch of starting points in lockstep.

    ``A`` (b, m, r), ``lam`` (b, r) and ``B`` (b, r, n) are the starting
    parameters.  A run stops when one EM step moves its P by less than
    ``tol`` (max entrywise change), and is frozen from then on, or after
    ``max_iter`` evaluations of the EM map; single runs are looked at only
    once m*n entries of the batch moved that little.  With ``trace`` set on
    a batch of one, also returns its log-likelihood before the first
    evaluation and after each.

    Quarantine is decided on the starting points: a start whose mixture is
    ``_TINY`` or below at an observed cell is frozen (unconverged,
    log-likelihood -inf), and ``EMNumericalError`` is raised if every start
    is.  An EM step gives p_ij >= u_ij**2 / (r * u_plus**2) (the E-step
    splits u_ij over r components, the M-step divides by u_plus and by
    component totals <= u_plus; Cauchy-Schwarz), above ``_TINY`` while
    r * u_plus**2 < 1e300; past that, an underflow after a step raises
    ``EMNumericalError``.  ``_extrapolate``'s fall-back to x2 is the only
    underflow handling inside a round.

    With ``accelerate`` set, every third evaluation is a SQUAREM step: it
    starts from the point ``_extrapolate`` makes of the two plain steps
    before it, and its result is kept only where its log-likelihood is no
    lower than that of the plain double step, which is kept otherwise.  The
    stop test is made on plain steps only.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    # the loop writes into no array it is given
    A, lam, B = (np.ascontiguousarray(x, dtype=float) for x in (A, lam, B))
    if not len(A):
        raise ValueError("EM needs at least one starting point")
    U, mask = data.U, data.U > 0
    if mask.all():  # no cell to leave out of W and the log-likelihood
        mask = cells = None
        counts = U.ravel()
    else:
        cells = np.flatnonzero(mask)
        counts = U.ravel()[cells]
    AL = A * lam[:, None, :]
    P = AL @ B
    ll, bad = _loglik(counts, cells, P)
    b = len(ll)
    quarantined = 0 if bad is None else int(bad.sum())
    if quarantined == b:
        raise EMNumericalError("mixture probability underflowed at an observed cell")
    Us = np.repeat(U[None], b, axis=0)  # the counts per live run, a contiguous stack
    slack = 0.0
    history = [float(ll[0])] if trace else None
    live = np.arange(b)     # runs still iterating, and their state, compacted;
    state = (AL, B, P, ll)  # accelerated, the state also holds the two iterates before
    recent = [ll]           # the live runs' log-likelihoods since the last fold
    retired = []            # per retire: the runs, their state, rounds and flags
    rounds = 0

    def fold():
        """Take the steps in ``recent`` into ``slack``, and keep only the last."""
        nonlocal slack, recent
        if len(recent) > 1:
            lls = np.array(recent)
            slack = max(slack, float((lls[:-1] - lls[1:]).max()))
            recent = recent[-1:]

    def retire(stop, done):
        """Set the runs selected by ``stop`` aside, as converged where
        ``done``, and drop them from the live set."""
        nonlocal live, state, Us, recent
        fold()
        retired.append((live[stop],) + tuple(part[stop] for part in state[:4])
                       + (np.full(np.count_nonzero(stop), rounds), done[stop]))
        keep = ~stop
        live, state = live[keep], tuple(part[keep] for part in state)
        Us, recent = Us[:len(live)], [state[3]]  # every run's counts are the same

    if bad is not None:
        retire(bad, np.zeros_like(bad))
    while rounds < max_iter and len(live):
        rounds += 1
        AL_old, B_old, P_old, ll_old = state[:4]
        extrapolated = accelerate and rounds % 3 == 0
        if extrapolated:
            AL_in, B_in, P_in, ext = _extrapolate(counts, cells, state)
        else:
            AL_in, B_in, P_in = AL_old, B_old, P_old
        AL_new, B_new, P_new = _em_update(Us, mask, data.u_plus, AL_in, B_in, P_in)
        ll_new, bad = _loglik(counts, cells, P_new)
        if bad is not None:  # only past r * u_plus**2 >= 1e300 (see above)
            raise EMNumericalError("mixture probability underflowed after an EM step")
        # entries that moved by less than tol, in one difference buffer
        moved = np.subtract(P_new, P_in)
        close = np.less(np.abs(moved, out=moved), tol)
        if extrapolated and ext.any():
            # keep x2 where the step from x' is lower (an x' that underflows is x2)
            back = ext & ~(ll_new >= ll_old)
            if back.any():
                for new, old in zip((AL_new, B_new, P_new, ll_new), state):
                    new[back] = old[back]
            close[ext] = False
        state = (AL_new, B_new, P_new, ll_new) + ((AL_old, B_old) + state[4:6]
                                                  if accelerate else ())
        if trace:
            history.append(float(ll_new[0]))
        recent.append(ll_new)
        # a run stops when all its m*n entries are close: reduce per run
        # only when the batch has that many close entries
        if np.count_nonzero(close) >= U.size:
            done = close.all(axis=(1, 2))
            if done.any():
                retire(done, done)
        if len(recent) > _FOLD:
            fold()
    retire(np.ones(len(live), dtype=bool), np.zeros(len(live), dtype=bool))
    # the runs set aside, written back at once in run order
    runs, AL, B, P, ll, iterations, converged = (np.concatenate(part) for part in zip(*retired))
    order = np.argsort(runs)
    A, lam = _split(AL[order])
    B, P, ll, iterations, converged = (x[order] for x in (B, P, ll, iterations, converged))
    batch = RestartBatch(A=A, lam=lam, B=B, P=P, loglik=ll, iterations=iterations,
                         converged=converged, monotonicity_slack=slack,
                         quarantined=quarantined)
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


def check_tolerances(tol: float, crit_tol: float, zero_tol: bool = False) -> None:
    """Raise ValueError unless the stop and criticality tolerances are positive.

    NaN is rejected.  ``zero_tol`` also admits ``tol == 0``, with which a
    single ``run_em`` never stops early and makes exactly ``max_iter``
    evaluations of the EM map.
    """
    if not (tol > 0 or zero_tol and tol == 0):
        raise ValueError(f"tol must be {'nonnegative' if zero_tol else 'positive'}, got {tol}")
    if not crit_tol > 0:
        raise ValueError(f"crit_tol must be positive, got {crit_tol}")


def run_em(U, r: int, init=None, max_iter: int = MAX_ITER, tol: float = TOL,
           crit_tol: float = CRIT_TOL) -> EMResult:
    """Run EM on a count table until the estimate stabilizes.

    ``init`` is a ParameterTriple, an integer seed, or None (seed 0).  The
    run is accelerated by SQUAREM: every third evaluation of the EM map
    starts from an extrapolation of the two before it, and falls back to
    the plain double step unless that raises the log-likelihood.  Iteration
    stops when a plain EM step changes P by less than ``tol`` (max entrywise
    change; ``tol = 0`` never stops early) or after ``max_iter`` evaluations
    of the EM map, which is what ``iterations`` counts.  The returned trace
    holds the log-likelihood after each evaluation; it is non-decreasing up
    to float rounding.
    """
    check_tolerances(tol, crit_tol, zero_tol=True)
    data = _as_counts(U)
    m, n = data.shape
    seed = None
    if isinstance(init, ParameterTriple):
        theta = init
        theta.validate()
        if theta.A.shape != (m, r) or theta.B.shape != (r, n):
            raise ValueError(f"init has A {theta.A.shape} and B {theta.B.shape}; a {m}x{n} "
                             f"table with r={r} needs A {(m, r)} and B {(r, n)}")
    else:
        seed = 0 if init is None else int(init)
        theta = random_parameters(m, n, r, np.random.default_rng(np.random.SeedSequence(seed)))
    batch, trace = _em_loop(data, theta.A[None], theta.lam[None], theta.B[None],
                            max_iter, tol, trace=True, accelerate=True)
    return _result(data, batch, 0, trace, crit_tol, seed)


def em_restart_batch(U, r: int, seeds, max_iter: int = MAX_ITER,
                     tol: float = TOL) -> RestartBatch:
    """Vectorized EM over independent restarts (one RNG stream per seed).

    Restart k draws from ``PCG64(SeedSequence(seeds[k]))``, the stream
    ``random_parameters`` gets on that seed; the states are computed for
    the whole batch at once (``_pcg64_states``).  All restarts advance in
    lockstep by plain EM rounds; elements that have converged are frozen.
    The result is bit-reproducible for a fixed seed list, and each restart
    matches the same loop run on its draw alone.
    """
    data = _as_counts(U)
    m, n = data.shape
    draws = np.empty((len(seeds), _draw_size(m, n, r)))
    if len(seeds):
        # one generator, set to each restart's seeded state in turn
        rng = np.random.Generator(np.random.PCG64())
        bit_generator = rng.bit_generator
        for row, (state, inc) in zip(draws, _pcg64_states(seeds)):
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            rng.standard_exponential(out=row)
    # restart k starts from random_parameters on seed k
    A, lam, B = _start(draws, m, n, r)
    return _em_loop(data, A, lam, B, max_iter, tol)[0]


def run_em_restarts(U, r: int, restarts: int = RESTARTS, seed: int | tuple = 0,
                    max_iter: int = MAX_ITER, tol: float = TOL,
                    crit_tol: float = CRIT_TOL) -> tuple[EMResult, RestartBatch]:
    """Best-of-``restarts`` EM, the one entry point for a maximizer estimate.

    Restart k starts from ``SeedSequence((seed, k))``; a tuple seed is
    spliced in as ``(*seed, k)``.  The winner is the restart with the highest
    log-likelihood (see ``RestartBatch.best_index`` for ties).  If it has not
    converged within ``max_iter`` rounds, ``run_em`` continues it, SQUAREM
    accelerated, for up to ``POLISH_ITER`` more evaluations of the EM map,
    so the estimate and its criticality describe the limit the winner is
    heading to.  The command line (``em``, with any ``--restarts``) and the
    experiments both come through here, so they classify the same point.
    The result's ``iterations`` counts batch rounds and polish evaluations
    together.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    check_tolerances(tol, crit_tol)
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
