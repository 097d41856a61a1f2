"""The four benchmark workloads: seeded inputs, ops, and output checks.

An op is one harness trial (run as a one-trial experiment through the public
``nnmix.harness`` entry points) or one in-process ``nnmix.cli.main`` call.
Each op returns its output; ``check`` returns a list of problems, empty when
the output is correct.  Checks need no reference: they test what is known by
construction.  For the default seed the experiment workloads also compare
per-trial verdicts against ``reference.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from nnmix import boundary as boundary_mod
from nnmix import cli, families, harness
from nnmix.exactla import Matrix, format_matrix, parse_matrix

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_000       # op i of workload seed s runs harness seed s*STRIDE+i
WARMUP_SEED = 2**31 - 1       # the untimed warm-up op is the same for every seed
LOGLIK_REL_TOL = 1e-8         # reference log-likelihoods, relative
STOCHASTIC_TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    kind: str                         # root span name: harness.<runner> or cli.<cmd>
    run: Callable[[], object]
    check: Callable[[object, dict], list]


def _stochastic(label: str, A, lam, B, P) -> list:
    problems = []
    for name, arr in (("A", A), ("lam", lam), ("B", B), ("P", P)):
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            problems.append(f"{label}: {name} not finite and nonnegative")
    sums = [("lam", lam.sum()), ("P", P.sum())]
    sums += [("A column", s) for s in A.sum(axis=0)]
    sums += [("B row", s) for s in B.sum(axis=1)]
    for name, total in sums:
        if not abs(total - 1.0) <= STOCHASTIC_TOL:
            problems.append(f"{label}: {name} sums to {total!r}")
    return problems


# -- experiment workloads ----------------------------------------------------


class Experiment:
    """Closed loop of one-trial harness experiments with per-op seeds."""

    def __init__(self, name: str, runner: str, cfg: harness.ExperimentConfig,
                 seed: int):
        self.kind = f"harness.{runner}"
        self.runner = getattr(harness, runner)
        self.cfg = cfg
        self.seed = seed
        self.shape = (cfg.m, cfg.n, cfg.r) if cfg.mode != harness.BOUNDARY_FRACTION else None
        use_reference = seed == DEFAULT_SEED and REFERENCE.exists()
        reference = json.loads(REFERENCE.read_text()) if use_reference else {}
        self.reference = reference.get(name, {}).get("trials", [])
        self.reference_fraction = reference.get(name, {}).get("fraction")

    def op(self, index: int) -> Op:
        seed = WARMUP_SEED if index == self.warmup_index else self.seed * SEED_STRIDE + index
        cfg = replace(self.cfg, seed=seed)
        return Op(self.kind, lambda: self.runner(cfg, jobs=1),
                  lambda rep, captured: self.check(index, rep, captured))

    warmup_index = -1

    def check(self, index: int, report, captured: dict) -> list:
        if len(report.records) != 1:
            return [f"expected one trial record, got {len(report.records)}"]
        rec = report.records[0]
        problems = []
        if report.fraction != float(rec["flagged_boundary"]):
            problems.append(f"fraction {report.fraction} disagrees with the trial flag")
        if self.shape:
            problems += self._check_em(rec, captured)
        else:
            problems += self._check_boundary(rec, report)
        if 0 <= index < len(self.reference):
            problems += self._check_reference(rec, self.reference[index])
        return problems

    @staticmethod
    def _check_em(rec, captured) -> list:
        batches = captured["em.em_restart_batch"]
        polished = captured["em.run_em"]
        if len(batches) != 1 or len(polished) > 1:
            return [f"expected one restart batch and at most one polish run, "
                    f"got {len(batches)} and {len(polished)}"]
        batch = batches[0]
        i = batch.best_index
        problems = _stochastic("batch winner", batch.A[i], batch.lam[i],
                               batch.B[i], batch.P[i])
        expected = float(batch.loglik[i])
        if polished:
            res = polished[0]
            problems += _stochastic("polished", res.params.A, res.params.lam,
                                    res.params.B, res.P_hat)
            expected = res.loglik
        if not (math.isfinite(rec["loglik"]) and rec["loglik"] <= 0.0):
            problems.append(f"log-likelihood {rec['loglik']!r} is not finite and <= 0")
        elif rec["loglik"] != expected:
            problems.append("recorded log-likelihood is not the winner's")
        return problems

    @staticmethod
    def _check_boundary(rec, report) -> list:
        problems = []
        if not report.extra.get("all_members"):
            problems.append("all_members is false for a stratum sample")
        if rec["status"] not in (boundary_mod.INTERIOR, boundary_mod.BOUNDARY):
            problems.append(f"stratum sample classified {rec['status']}")
        if rec["flagged_boundary"] != (rec["status"] == boundary_mod.BOUNDARY):
            problems.append("flagged_boundary disagrees with the status")
        if rec["rank"] > 3:
            problems.append(f"stratum sample has rank {rec['rank']}")
        return problems

    def _check_reference(self, rec, ref) -> list:
        problems = []
        if rec["flagged_boundary"] != ref["flagged_boundary"]:
            problems.append(f"flagged_boundary {rec['flagged_boundary']} != "
                            f"reference {ref['flagged_boundary']}")
        if "loglik" in ref and not (abs(rec["loglik"] - ref["loglik"])
                                    <= LOGLIK_REL_TOL * abs(ref["loglik"])):
            problems.append(f"loglik {rec['loglik']!r} != reference {ref['loglik']!r}")
        for key in ("status", "witnesses"):
            if key in ref and rec[key] != ref[key]:
                problems.append(f"{key} {rec[key]!r} != reference {ref[key]!r}")
        return problems

    def reference_entry(self, report) -> dict:
        rec = report.records[0]
        keys = ("flagged_boundary", "loglik") if self.shape else \
            ("flagged_boundary", "status", "witnesses")
        return {k: rec[k] for k in keys}

    @staticmethod
    def digest(report) -> tuple:
        """(flagged, consistency exception): what the summary keeps of a trial."""
        rec = report.records[0]
        return rec["flagged_boundary"], bool(rec.get("consistency_exception"))

    def summary(self, counts, head: list) -> dict:
        """Experiment fraction over the ops run, and the reference comparison.

        ``counts`` maps digests to how often they occurred; ``head`` holds the
        digests of the first ops in order.
        """
        trials = sum(n for d, n in counts.items() if d is not None)
        flagged = sum(n for d, n in counts.items() if d and d[0])
        out = {"fraction": flagged / trials if trials else None, "trials": trials}
        n_ref = len(self.reference)
        if n_ref and len(head) >= n_ref:
            head_flags = [d[0] for d in head[:n_ref] if d is not None]
            out["reference_fraction"] = self.reference_fraction
            out["fraction_matches_reference"] = (
                len(head_flags) == n_ref
                and sum(head_flags) / n_ref == self.reference_fraction)
        if self.shape:
            out["consistency_exceptions"] = sum(n for d, n in counts.items() if d and d[1])
        return out


def table1_5x5(seed, workdir):
    cfg = harness.ExperimentConfig(mode=harness.TABLE1, m=5, n=5, r=3, num_matrices=1,
                                   num_restarts=100, max_iter=500)
    return Experiment("table1_5x5", "table1_experiment", cfg, seed)


def planted_T10(seed, workdir):
    cfg = harness.ExperimentConfig(mode=harness.PLANTED, m=4, n=4, r=3, T=10,
                                   num_matrices=1, num_restarts=100, max_iter=500)
    return Experiment("planted_T10", "planted_experiment", cfg, seed)


def boundary_fraction(seed, workdir):
    cfg = harness.ExperimentConfig(mode=harness.BOUNDARY_FRACTION, num_matrices=1,
                                   dist="rational", dist_param=100)
    return Experiment("boundary_fraction", "boundary_fraction_experiment", cfg, seed)


# -- verdicts: in-process CLI calls on seeded matrices ------------------------

PRODUCT_SIZES = (4, 6, 8, 12)
PRODUCTS_PER_SIZE = 2
RANK4_SIZES = (4, 6)
UAB_A = 100
UAB_THRESHOLD_B = (41, 42)    # the two sides of the threshold, in every deck
UAB_SWEEP = range(25, 60)     # further U(100, b) draws
UAB_SWEEP_SLOTS = 6
FAMILY_SLOTS = 4              # family uab --mle, b drawn below the threshold


def _deck() -> list[tuple]:
    """One deck of (command, backend, input kind, size) slots.

    Every deck holds the same mix; its order is shuffled per deck and every
    slot draws a fresh matrix, so no input repeats within a run.
    """
    deck = []
    inputs = [("product", s) for s in PRODUCT_SIZES for _ in range(PRODUCTS_PER_SIZE)]
    inputs += [("rank4", s) for s in RANK4_SIZES]
    inputs += [(f"uab{b}", 4) for b in UAB_THRESHOLD_B]
    inputs += [("uab", 4)] * UAB_SWEEP_SLOTS
    for kind, size in inputs:
        deck += [("nnrank3", "exact", kind, size), ("nnrank3", "float", kind, size),
                 ("boundary", None, kind, size)]
        if not kind.startswith("uab"):
            deck.append(("factorize", None, kind, size))
    deck += [("family", None, "uab_off", 4)] * FAMILY_SLOTS
    return deck


@dataclass
class _Item:
    matrix: Matrix
    member: bool
    uab_b: int | None = None


class Verdicts:
    """Closed loop of CLI commands; op i draws its matrix from (seed, i)."""

    shape = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.deck = _deck()
        self._order: tuple[int, list] = (-1, [])   # (deck number, slot order)
        self.input = workdir / "input.txt"
        self.out = workdir / "out.json"
        self.prefix = workdir / "factor"
        self.family_out = workdir / "family.txt"

    def _slot(self, index: int) -> tuple:
        deck_no, pos = divmod(index, len(self.deck))
        if self._order[0] != deck_no:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, deck_no, 0xDEC)))
            self._order = (deck_no, rng.permutation(len(self.deck)).tolist())
        return self.deck[self._order[1][pos]]

    def _item(self, index: int, kind: str, size: int) -> _Item:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, index, 0x7E7D)))
        if kind == "product":
            return _Item(_integer_product(rng, size, 3), True)
        if kind == "rank4":
            return _Item(_integer_product(rng, size, 4), False)
        if kind == "uab_off":
            b = int(rng.integers(UAB_SWEEP.start, UAB_THRESHOLD_B[1]))
        elif kind == "uab":
            b = int(rng.choice(UAB_SWEEP))
        else:
            b = int(kind[3:])
        return _Item(families.uab_matrix(UAB_A, b), families.uab_in_model(UAB_A, b), b)

    def op(self, index: int) -> Op:
        cmd, backend, kind, size = self._slot(index)
        item = self._item(index, kind, size)
        for stale in (self.out, self.family_out, *self._factor_files()):
            stale.unlink(missing_ok=True)   # a check must never read an earlier op's output
        argv = [cmd]
        if cmd == "family":
            argv += ["uab", "--a", str(UAB_A), "--b", str(item.uab_b), "--mle",
                     "--matrix-out", str(self.family_out)]
        else:
            self.input.write_text(format_matrix(item.matrix))
            argv += ["--input", str(self.input)]
        if backend:
            argv += ["--backend", backend]
        if cmd == "factorize":
            argv += ["--prefix", str(self.prefix)]
        argv += ["--output", str(self.out)]
        check = getattr(self, f"_check_{cmd}")
        return Op(f"cli.{cmd}", lambda: cli.main(argv),
                  lambda rc, captured: check(rc, item, backend))

    warmup_index = 0

    def _factor_files(self) -> tuple[Path, Path]:
        return (self.prefix.with_name(self.prefix.name + "_A.txt"),
                self.prefix.with_name(self.prefix.name + "_B.txt"))

    @staticmethod
    def _label(item) -> str:
        return f"U({UAB_A},{item.uab_b})" if item.uab_b is not None else \
            f"{item.matrix.rows}x{item.matrix.cols} product"

    def _payload(self) -> dict:
        return json.loads(self.out.read_text())

    def _check_nnrank3(self, rc, item, backend) -> list:
        payload = self._payload()
        verdict = payload["verdict"]
        member = verdict in ("in", "rank_deficient_in")
        problems = []
        if rc != (0 if member else 1):
            problems.append(f"exit code {rc} for verdict {verdict}")
        if payload["backend"] != backend:
            problems.append(f"ran on the {payload['backend']} backend")
        if member != item.member and not (backend == "float" and payload["marginal"]):
            problems.append(f"{self._label(item)}: {backend} verdict {verdict}, "
                            f"member by construction: {item.member}")
        return problems

    def _check_boundary(self, rc, item, backend) -> list:
        status = self._payload()["status"]
        inside = status in (boundary_mod.INTERIOR, boundary_mod.BOUNDARY)
        problems = []
        if rc != (0 if status == boundary_mod.INTERIOR else 1):
            problems.append(f"exit code {rc} for status {status}")
        if inside != item.member:
            problems.append(f"{self._label(item)}: status {status}, "
                            f"member by construction: {item.member}")
        return problems

    def _check_factorize(self, rc, item, backend) -> list:
        payload = self._payload()
        if not item.member:
            return [] if rc == 1 and "error" in payload else \
                [f"{self._label(item)}: non-member factorized (exit {rc})"]
        if rc != 0 or payload.get("status") != "ok":
            return [f"{self._label(item)}: factorize failed (exit {rc}): {payload}"]
        A = parse_matrix(Path(payload["A"]).read_text())
        B = parse_matrix(Path(payload["B"]).read_text())
        m, n = item.matrix.shape
        if A.shape != (m, 3) or B.shape != (3, n):
            return [f"factor shapes {A.shape} and {B.shape}"]
        problems = []
        if not (A.is_nonnegative() and B.is_nonnegative()):
            problems.append("factor has a negative entry")
        if A @ B != item.matrix:
            problems.append("A @ B != P")
        return problems

    def _check_family(self, rc, item, backend) -> list:
        payload = self._payload()
        problems = []
        if rc != 0 or payload.get("in_model") is not False:
            problems.append(f"family uab b={item.uab_b}: exit {rc}, "
                            f"in_model {payload.get('in_model')}")
        if not (math.isfinite(payload.get("loglik", math.nan)) and payload["loglik"] < 0):
            problems.append(f"family uab b={item.uab_b}: loglik {payload.get('loglik')!r}")
        blocks = self.family_out.read_text().split("# ")[1:]
        mles = [parse_matrix(block.split("\n", 1)[1]) for block in blocks
                if block.startswith("mle")]
        if len(mles) != 8:
            problems.append(f"{len(mles)} maximizers written, expected 8")
        for M in mles:
            total = M.total()
            if not M.is_nonnegative() or not abs(float(total) - 1.0) <= STOCHASTIC_TOL:
                problems.append(f"maximizer is not a probability matrix (total {total})")
        return problems

    @staticmethod
    def digest(rc) -> None:
        return None

    def summary(self, counts, head: list) -> dict:
        return {"deck_commands": len(self.deck),
                "decks": sum(counts.values()) / len(self.deck)}


def _integer_product(rng, size: int, rank: int) -> Matrix:
    """A positive integer product of ``size``-by-``rank`` and ``rank``-by-``size``
    factors with entries 1..9, redrawn until it has exactly that rank."""
    while True:
        A = rng.integers(1, 10, size=(size, rank))
        B = rng.integers(1, 10, size=(rank, size))
        P = A @ B
        if np.linalg.matrix_rank(P) == rank:
            return Matrix.exact(P.tolist())


WORKLOADS = {
    "table1_5x5": table1_5x5,
    "planted_T10": planted_T10,
    "boundary_fraction": boundary_fraction,
    "verdicts": Verdicts,
}
