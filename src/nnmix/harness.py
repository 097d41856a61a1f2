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
  followed by the exact topological-boundary test.

Trials are independent; each derives its RNG stream from (seed, trial), so
reports are bit-identical for identical configs.  Trials run as a parallel
map over a process pool when ``jobs`` exceeds one, and records are merged
in trial order either way.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import boundary as boundary_mod
from . import em

TABLE1 = "table1"
PLANTED = "planted"
BOUNDARY_FRACTION = "boundary_fraction"
# criticality margins within which a boundary flag counts as fragile
FRAGILE_MARGIN = (0.1, 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    m: int = 4
    n: int = 4
    r: int = 3
    num_matrices: int = 200
    num_restarts: int = 100
    max_iter: int = 500
    tol: float = 1e-10
    crit_tol: float = 1e-6
    seed: int = 0
    scale: int = 10**6            # integer scaling of random tables (table1)
    generator: str = "normalized_uniform"  # or "dirichlet" (table1)
    T: int = 10                   # samples per cell (planted)
    dist: str = "rational"        # rational | unit_rational | int1to4 (boundary)
    dist_param: int = 100
    check_boundary_consistency: bool = True

    def validate(self):
        if self.mode not in (TABLE1, PLANTED, BOUNDARY_FRACTION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode in (TABLE1, PLANTED) and not self.r < min(self.m, self.n):
            raise ValueError("requires r < min(m, n)")


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list[dict]
    fraction: float
    runtime: float
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema": "1",
            "config": asdict(self.config),
            "fraction": self.fraction,
            "num_trials": len(self.records),
            "runtime_sec": self.runtime,
        }
        payload.update(self.extra)
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        if not self.records:
            return ""
        fieldnames: list[str] = []
        for rec in self.records:  # flagged trials carry extra columns
            for key in rec:
                if key not in fieldnames:
                    fieldnames.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(self.records)
        return buf.getvalue()


def _entry_dist(cfg: ExperimentConfig):
    if cfg.dist == "rational":
        return boundary_mod.rational_dist(cfg.dist_param)
    if cfg.dist == "unit_rational":
        return boundary_mod.unit_rational_dist(cfg.dist_param)
    if cfg.dist == "int1to4":
        return boundary_mod.integer_dist(1, 4)
    raise ValueError(f"unknown entry distribution {cfg.dist!r}")


def _em_trial(cfg: ExperimentConfig, trial: int, U: np.ndarray) -> dict:
    data = em.DataMatrix.from_array(U)
    best, batch = em.run_em_restarts(data, cfg.r, restarts=cfg.num_restarts,
                                     seed=(cfg.seed, trial), max_iter=cfg.max_iter,
                                     tol=cfg.tol, crit_tol=cfg.crit_tol)
    crit = best.critical
    flagged = not crit.critical
    rec = {
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
        "flagged_boundary": flagged,
        "monotonicity_slack": max(batch.monotonicity_slack, best.monotonicity_slack),
        "restarts_converged": int(batch.converged.sum()),
        "restarts_quarantined": batch.quarantined,
        # EM-map evaluations after the batch; 0 when the batch winner converged
        "polish_iterations": best.iterations - int(batch.iterations[batch.best_index]),
    }
    if flagged and cfg.check_boundary_consistency:
        from .exactla import from_numpy
        promoted = from_numpy(best.P_hat).as_exact()
        status = boundary_mod.boundary_test(promoted).status
        rec["promoted_status"] = status
        rec["consistency_exception"] = status == boundary_mod.INTERIOR
    return rec


def _table1_trial(cfg: ExperimentConfig, trial: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 0xDA7A)))
    if cfg.generator == "dirichlet":
        p = rng.exponential(size=cfg.m * cfg.n)  # normalized: uniform on simplex
    elif cfg.generator == "normalized_uniform":
        p = rng.uniform(size=cfg.m * cfg.n)
    else:
        raise ValueError(f"unknown generator {cfg.generator!r}")
    p /= p.sum()
    U = np.rint(p * cfg.scale).reshape(cfg.m, cfg.n)
    return _em_trial(cfg, trial, U)


def _planted_trial(cfg: ExperimentConfig, trial: int) -> dict:
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
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 0xB0D1)))
    pattern = boundary_mod.canonical_pattern(cfg.m, cfg.n)
    P, A, B = boundary_mod.sample_algebraic_boundary(pattern, rng, _entry_dist(cfg))
    cls = boundary_mod.boundary_test(P)
    return {
        "trial": trial,
        "status": cls.status,
        "rank": cls.rank,
        "witnesses": cls.witnesses,
        "flagged_boundary": cls.status == boundary_mod.BOUNDARY,
        "is_member": cls.status != boundary_mod.OUTSIDE,
    }


_TRIAL_FUNCS = {TABLE1: _table1_trial, PLANTED: _planted_trial,
                BOUNDARY_FRACTION: _boundary_trial}


def _run(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    cfg.validate()
    func = _TRIAL_FUNCS[cfg.mode]
    start = time.perf_counter()
    trials = range(cfg.num_matrices)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_trial_worker, [(cfg, t) for t in trials],
                                    chunksize=8))
    else:
        records = [func(cfg, t) for t in trials]
    records.sort(key=lambda rec: rec["trial"])
    flagged = sum(1 for rec in records if rec["flagged_boundary"])
    fraction = flagged / len(records) if records else 0.0
    extra = {}
    if cfg.mode == BOUNDARY_FRACTION:
        extra["all_members"] = all(rec["is_member"] for rec in records)
    else:
        exceptions = sum(1 for rec in records if rec.get("consistency_exception"))
        extra["consistency_exceptions"] = exceptions
        # trials whose best restart is still moving after the polish: their
        # boundary flag is read at a point EM has not settled
        extra["unconverged_trials"] = sum(1 for rec in records if not rec["converged"])
        extra["max_monotonicity_slack"] = max(
            (rec["monotonicity_slack"] for rec in records), default=0.0)
        low, high = FRAGILE_MARGIN
        extra["fragile_flags"] = sum(1 for rec in records if rec["flagged_boundary"]
                                     and low <= rec["crit_margin"] <= high)
    return ExperimentReport(config=cfg, records=records, fraction=fraction,
                            runtime=time.perf_counter() - start, extra=extra)


def _trial_worker(args):
    cfg, trial = args
    return _TRIAL_FUNCS[cfg.mode](cfg, trial)


def table1_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Fraction of random count tables whose maximizer is non-critical."""
    if cfg.mode != TABLE1:
        raise ValueError("config mode must be 'table1'")
    return _run(cfg, jobs)


def planted_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Boundary fraction for multinomial samples of a planted factorization."""
    if cfg.mode != PLANTED:
        raise ValueError("config mode must be 'planted'")
    return _run(cfg, jobs)


def boundary_fraction_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Topological-boundary fraction on one algebraic-boundary stratum."""
    if cfg.mode != BOUNDARY_FRACTION:
        raise ValueError("config mode must be 'boundary_fraction'")
    return _run(cfg, jobs)
