"""Seeded Monte-Carlo experiment runner.

Three protocols:

* ``table1``: random count tables drawn uniformly from the probability
  simplex (scaled to integer totals), best-of-restarts EM per table, and the
  fraction of tables whose maximizer fails the criticality test (those
  estimates sit on the model boundary);
* ``planted``: count tables sampled multinomially from a planted random
  low-rank product, exercising how sample size per cell drives the
  boundary fraction;
* ``boundary_fraction``: exact sampling on one algebraic-boundary stratum
  followed by the exact topological-boundary test, both on the integer
  product of the sampled factors (``boundary.sample_integer_product``), a
  positive multiple of the normalized sample that classifies the same.

``run_experiment`` runs every protocol.  Trials are independent; each
derives its RNG stream from (seed, trial), so reports are bit-identical for
identical configs.  Trials run as a parallel map over a pool of up to
``jobs`` processes, never more than there are trials, and records come back
in trial order either way; the pool's module is imported only when one
starts.  numpy and :mod:`nnmix.em` are imported by the trials that use
them, so building or validating a ``boundary_fraction`` config, or the
command-line parser, loads neither.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from . import boundary as boundary_mod
from .defaults import CRIT_TOL, TOL
from .exactla import Matrix

if TYPE_CHECKING:
    import numpy as np

TABLE1 = "table1"
PLANTED = "planted"
BOUNDARY_FRACTION = "boundary_fraction"
# criticality margins within which a boundary flag counts as fragile
FRAGILE_MARGIN = (0.1, 10.0)
# a table1 count table is its normalized draw times this, rounded to integers
TABLE1_SCALE = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str                     # a key of TRIALS
    m: int = 4
    n: int = 4
    r: int = 3
    num_matrices: int = 200
    num_restarts: int = 100
    max_iter: int = 500
    tol: float = TOL
    crit_tol: float = CRIT_TOL
    seed: int = 0
    generator: str = "normalized_uniform"  # a key of GENERATORS (table1)
    T: int = 10                   # samples per cell (planted)
    dist: str = "rational"        # a key of DISTS (boundary_fraction)
    dist_param: int = 100

    def validate(self):
        """Raise ValueError on a config no trial can run, before any trial runs."""
        for key, table in (("mode", TRIALS), ("generator", GENERATORS), ("dist", DISTS)):
            if getattr(self, key) not in table:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}; "
                                 f"choose from {', '.join(table)}")
        at_least_one = ["num_matrices", "r"]
        if self.mode == BOUNDARY_FRACTION:
            at_least_one.append("dist_param")
            boundary_mod.canonical_pattern(self.m, self.n)
        else:
            at_least_one += ["num_restarts", "T"]
            if not self.r < min(self.m, self.n):
                raise ValueError("requires r < min(m, n)")
            if self.max_iter < 0:
                raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
            from . import em
            em.check_tolerances(self.tol, self.crit_tol)
        for key in at_least_one:
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list[dict]
    fraction: float
    runtime: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = {
            "schema": "1",
            "config": asdict(self.config),
            "fraction": self.fraction,
            "num_trials": len(self.records),
            "runtime_sec": self.runtime,
        }
        payload.update(self.extra)
        return payload

    def to_csv(self) -> str:
        if not self.records:
            return ""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.records[0]))
        writer.writeheader()
        writer.writerows(self.records)
        return buf.getvalue()


def _em_trial(cfg: ExperimentConfig, trial: int, U: np.ndarray) -> dict:
    from . import em
    data = em.DataMatrix.from_array(U)
    best, batch = em.run_em_restarts(data, cfg.r, restarts=cfg.num_restarts,
                                     seed=(cfg.seed, trial), max_iter=cfg.max_iter,
                                     tol=cfg.tol, crit_tol=cfg.crit_tol)
    crit = best.critical
    return {
        "trial": trial,
        "u_plus": data.u_plus,
        "loglik": best.loglik,
        "iterations": best.iterations,
        "converged": best.converged,
        "resid_ptr": crit.resid_ptr,
        "resid_rpt": crit.resid_rpt,
        "crit_threshold": crit.threshold,
        # flagged exactly when at least 1; near 1 the flag turns on how far EM got
        "crit_margin": max(crit.resid_ptr, crit.resid_rpt) / crit.threshold,
        "rank_p": crit.rank_p,
        "flagged_boundary": not crit.critical,
        "monotonicity_slack": max(batch.monotonicity_slack, best.monotonicity_slack),
        "restarts_converged": int(batch.converged.sum()),
        "restarts_quarantined": batch.quarantined,
        # EM-map evaluations after the batch; 0 when the batch winner converged
        "polish_iterations": best.iterations - int(batch.iterations[batch.best_index]),
    }


def _table1_trial(cfg: ExperimentConfig, trial: int) -> dict:
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 0xDA7A)))
    p = GENERATORS[cfg.generator](rng, cfg.m * cfg.n)
    p /= p.sum()
    U = np.rint(p * TABLE1_SCALE).reshape(cfg.m, cfg.n)
    return _em_trial(cfg, trial, U)


def _planted_trial(cfg: ExperimentConfig, trial: int) -> dict:
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 0x9AB7ED)))
    while True:
        A = rng.integers(0, 101, size=(cfg.m, cfg.r))
        B = rng.integers(0, 101, size=(cfg.r, cfg.n))
        P = (A @ B).astype(float)
        if P.sum() > 0:
            break
    P /= P.sum()
    U = rng.multinomial(cfg.T * cfg.m * cfg.n, P.ravel()).reshape(cfg.m, cfg.n)
    return _em_trial(cfg, trial, U)


def _boundary_trial(cfg: ExperimentConfig, trial: int) -> dict:
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 0xB0D1)))
    pattern = boundary_mod.canonical_pattern(cfg.m, cfg.n)
    # the integer product is a positive multiple of the normalized sample, so
    # it classifies the same and no Fraction is built but its entries
    Pi = boundary_mod.sample_integer_product(pattern, rng, DISTS[cfg.dist](cfg.dist_param))[0]
    cls = boundary_mod.boundary_test(Matrix.exact(Pi))
    return {
        "trial": trial,
        "status": cls.status,
        "rank": cls.rank,
        "witnesses": cls.witnesses,
        "flagged_boundary": cls.status == boundary_mod.BOUNDARY,
        "is_member": cls.status != boundary_mod.OUTSIDE,
    }


# unnormalized table entries; normalized, the exponential draw is uniform on the simplex
GENERATORS = {"normalized_uniform": lambda rng, size: rng.uniform(size=size),
              "dirichlet": lambda rng, size: rng.exponential(size=size)}
# stratum entry distributions, built from ``dist_param``
DISTS = {"rational": boundary_mod.rational_dist,
         "unit_rational": boundary_mod.unit_rational_dist,
         "int1to4": lambda _: boundary_mod.integer_dist(1, 4)}
TRIALS = {TABLE1: _table1_trial, PLANTED: _planted_trial,
          BOUNDARY_FRACTION: _boundary_trial}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the ``cfg.mode`` protocol over ``cfg.num_matrices`` seeded trials."""
    cfg.validate()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    trial = partial(TRIALS[cfg.mode], cfg)
    start = time.perf_counter()
    trials = range(cfg.num_matrices)
    workers = min(jobs, cfg.num_matrices)  # a pool may fork all its workers at once
    if workers > 1:
        # imported here: multiprocessing is a cost of every import otherwise
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(trial, trials, chunksize=8))
    else:
        records = list(map(trial, trials))
    flagged = sum(1 for rec in records if rec["flagged_boundary"])
    fraction = flagged / len(records)
    extra = {}
    if cfg.mode == BOUNDARY_FRACTION:
        extra["all_members"] = all(rec["is_member"] for rec in records)
    else:
        # trials whose best restart is still moving after the polish: their
        # boundary flag is read at a point EM has not settled
        extra["unconverged_trials"] = sum(1 for rec in records if not rec["converged"])
        extra["max_monotonicity_slack"] = max(rec["monotonicity_slack"] for rec in records)
        low, high = FRAGILE_MARGIN
        extra["fragile_flags"] = sum(1 for rec in records if rec["flagged_boundary"]
                                     and low <= rec["crit_margin"] <= high)
    return ExperimentReport(config=cfg, records=records, fraction=fraction,
                            runtime=time.perf_counter() - start, extra=extra)


# the per-mode names, kept for callers that look a runner up by mode
table1_experiment = planted_experiment = boundary_fraction_experiment = run_experiment
