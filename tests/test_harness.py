"""Experiment runner: determinism, protocols, report emission."""

import csv
import io
import json

import numpy as np
import pytest

from nnmix import em, harness
from nnmix.harness import (BOUNDARY_FRACTION, ExperimentConfig, PLANTED, TABLE1,
                           _table1_trial, run_experiment)


def tiny_cfg(mode, **kw):
    base = dict(mode=mode, m=4, n=4, r=3, num_matrices=6, num_restarts=8,
                max_iter=150, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestDeterminism:
    def test_identical_configs_give_identical_reports(self):
        a = run_experiment(tiny_cfg(TABLE1))
        b = run_experiment(tiny_cfg(TABLE1))
        assert a.records == b.records
        assert a.fraction == b.fraction

    def test_parallel_map_matches_serial(self):
        cfg = tiny_cfg(BOUNDARY_FRACTION, num_matrices=12)
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert serial.records == parallel.records

    def test_workers_capped_at_the_trial_count(self, monkeypatch):
        # a pool may fork every worker at its first submit, so it is asked
        # for no more workers than there are trials; the fake starts none
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items, chunksize=1):
                return map(func, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        cfg = tiny_cfg(BOUNDARY_FRACTION, num_matrices=4)
        assert run_experiment(cfg, jobs=64).records == run_experiment(cfg).records
        assert pools == [4]
        run_experiment(tiny_cfg(BOUNDARY_FRACTION, num_matrices=1), jobs=64)
        assert pools == [4]

    def test_restart_dominance_in_nested_seed_sets(self):
        rng = np.random.default_rng(1)
        U = rng.integers(1, 40, size=(4, 4))
        seeds = [(9, k) for k in range(12)]
        batch = em.em_restart_batch(U, 3, seeds, max_iter=300, tol=1e-10)
        best_so_far = -np.inf
        prefix_best = []
        for k in range(1, 13):
            prefix_best.append(batch.loglik[:k].max())
        assert all(x <= y + 1e-15 for x, y in zip(prefix_best, prefix_best[1:]))


class TestProtocols:
    def test_table1_record_fields(self):
        rep = run_experiment(tiny_cfg(TABLE1))
        assert 0.0 <= rep.fraction <= 1.0
        rec = rep.records[0]
        assert {"trial", "loglik", "converged", "flagged_boundary",
                "resid_ptr", "resid_rpt"} <= set(rec)

    def test_rank_one_target_never_flags(self):
        cfg = tiny_cfg(TABLE1, r=1, num_matrices=5, num_restarts=4)
        rep = run_experiment(cfg)
        assert rep.fraction == 0.0

    def test_polished_trial_counts_polish_iterations(self, monkeypatch):
        calls = {}
        for name in ("em_restart_batch", "run_em"):
            original = getattr(em, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] = _original(*args, **kwargs)
                return calls[_name]
            monkeypatch.setattr(em, name, spy)
        rep = run_experiment(tiny_cfg(TABLE1, num_matrices=1, max_iter=20))
        rec = rep.records[0]
        batch, polished = calls["em_restart_batch"], calls["run_em"]
        assert batch.iterations[batch.best_index] == 20
        assert rec["iterations"] == 20 + polished.iterations
        assert rec["polish_iterations"] == polished.iterations > 0
        assert rec["polish_iterations"] == rec["iterations"] - batch.iterations[batch.best_index]
        assert rec["converged"] == polished.converged
        assert rec["loglik"] == polished.loglik
        assert rec["monotonicity_slack"] == max(batch.monotonicity_slack,
                                                polished.monotonicity_slack)
        assert rec["restarts_converged"] == batch.converged.sum()
        assert rec["restarts_quarantined"] == 0

    @pytest.mark.parametrize("mode", [TABLE1, PLANTED])
    def test_report_counts_unconverged_trials(self, monkeypatch, mode):
        # a short polish leaves some winners converged and some still moving
        monkeypatch.setattr(em, "POLISH_ITER", 50)
        rep = run_experiment(tiny_cfg(mode, max_iter=20))
        unconverged = sum(1 for rec in rep.records if not rec["converged"])
        assert 0 < unconverged < len(rep.records)
        assert rep.extra["unconverged_trials"] == unconverged
        assert rep.as_dict()["unconverged_trials"] == unconverged
        slack = max(rec["monotonicity_slack"] for rec in rep.records)
        assert rep.as_dict()["max_monotonicity_slack"] == slack

    def test_trial_counters(self):
        # winners that converged in the batch get no polish rounds; the
        # others were stopped at the batch cap and polished from there
        rep = run_experiment(tiny_cfg(PLANTED, max_iter=300))
        polished = [rec["polish_iterations"] > 0 for rec in rep.records]
        assert any(polished) and not all(polished)
        for rec, was_polished in zip(rep.records, polished):
            batch_rounds = rec["iterations"] - rec["polish_iterations"]
            assert batch_rounds == 300 if was_polished else batch_rounds <= 300
            assert 0 <= rec["restarts_converged"] <= 8
            assert rec["restarts_quarantined"] == 0

    def test_criticality_margin_and_fragile_flags(self):
        # small planted samples flag often, with margins about 10^6; a loose
        # criticality tolerance brings some of them within the fragile band
        rep = run_experiment(tiny_cfg(PLANTED, T=2, num_matrices=20, crit_tol=0.1))
        for rec in rep.records:
            margin = max(rec["resid_ptr"], rec["resid_rpt"]) / rec["crit_threshold"]
            assert rec["crit_margin"] == margin
            assert rec["flagged_boundary"] == (margin >= 1)
        fragile = sum(1 for rec in rep.records
                      if rec["flagged_boundary"] and 0.1 <= rec["crit_margin"] <= 10)
        assert rep.extra["fragile_flags"] == fragile
        assert rep.as_dict()["fragile_flags"] == fragile
        assert 0 < fragile < sum(rec["flagged_boundary"] for rec in rep.records)

    # seed-0 trials whose flag EM used to read before reaching its limit:
    # (m, trial, loglik of the plain-EM polish)
    @pytest.mark.parametrize("m, trial, plain_loglik", [
        (4, 83, -2496611.456530819),     # stalled after 500 + 7960 rounds, ratio 2.77
        (5, 15, -3030019.5141873565),    # unconverged after 500 + 10^4 rounds, ratio 30
    ])
    def test_polish_reaches_the_critical_limit(self, m, trial, plain_loglik):
        cfg = ExperimentConfig(mode=TABLE1, m=m, n=m, r=3, num_matrices=200,
                               num_restarts=100, max_iter=500, seed=0)
        rec = _table1_trial(cfg, trial)
        assert rec["polish_iterations"] > 0
        assert rec["converged"]
        assert not rec["flagged_boundary"] and rec["crit_margin"] < 0.5
        assert rec["loglik"] >= plain_loglik

    def test_planted_mode_runs(self):
        rep = run_experiment(tiny_cfg(PLANTED, T=20))
        assert 0.0 <= rep.fraction <= 1.0
        assert all(rec["u_plus"] == 20 * 16 for rec in rep.records)

    def test_boundary_fraction_samples_are_members(self):
        rep = run_experiment(tiny_cfg(BOUNDARY_FRACTION, num_matrices=20))
        assert rep.extra["all_members"]

    def test_generator_choices(self):
        u = run_experiment(tiny_cfg(TABLE1, generator="normalized_uniform"))
        d = run_experiment(tiny_cfg(TABLE1, generator="dirichlet"))
        assert u.records != d.records
        with pytest.raises(ValueError):
            run_experiment(tiny_cfg(TABLE1, generator="bogus"))

    def test_mode_validation(self, monkeypatch):
        ran = []
        for mode in list(harness.TRIALS):
            monkeypatch.setitem(harness.TRIALS, mode, lambda cfg, t: ran.append(t))
        for bad in (dict(mode="bogus"), dict(mode=TABLE1, generator="bogus"),
                    dict(mode=BOUNDARY_FRACTION, dist="bogus")):
            with pytest.raises(ValueError, match="unknown"):
                run_experiment(tiny_cfg(**bad))
        assert ran == []
        with pytest.raises(ValueError):
            ExperimentConfig(mode=TABLE1, m=3, n=3, r=3).validate()


class TestReports:
    def test_json_payload(self):
        rep = run_experiment(tiny_cfg(TABLE1))
        payload = json.loads(json.dumps(rep.as_dict()))
        assert payload["schema"] == "1"
        assert payload["num_trials"] == 6
        assert payload["config"]["seed"] == 5

    @pytest.mark.parametrize("mode", [TABLE1, PLANTED, BOUNDARY_FRACTION])
    def test_csv_round_trip(self, mode):
        # every record of a mode has the same keys, so the first record's
        # keys are the header and every cell reads back as written
        rep = run_experiment(tiny_cfg(mode, T=2))
        assert len({tuple(rec) for rec in rep.records}) == 1
        rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
        assert rows == [{key: str(value) for key, value in rec.items()}
                        for rec in rep.records]
