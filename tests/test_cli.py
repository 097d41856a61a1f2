"""Command-line interface: verdict exit codes, file round-trips, reports."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nnmix import em, harness
from nnmix.cli import build_parser, main
from nnmix.exactla import Matrix, format_matrix, parse_matrix

from conftest import NICE_P, uab_normalized


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_matrix(path, M):
    path.write_text(format_matrix(M))
    return str(path)


def _subparser(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices[command]


class TestVerdictCommands:
    def test_membership_out_exits_one(self, workdir):
        path = write_matrix(workdir / "u.txt", uab_normalized(1, 0))
        out = workdir / "verdict.json"
        assert main(["nnrank3", "--input", path, "--output", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "out" and payload["schema"] == "1"

    def test_membership_in_exits_zero(self, workdir):
        path = write_matrix(workdir / "u.txt", uab_normalized(100, 42))
        assert main(["nnrank3", "--input", path]) == 0

    def test_boundary_command(self, workdir):
        path = write_matrix(workdir / "p.txt",
                            Matrix.exact(NICE_P).scale(Fraction(1, 116)))
        out = workdir / "b.json"
        assert main(["boundary", "--input", path, "--output", str(out)]) == 1
        assert json.loads(out.read_text())["status"] == "boundary"

    def test_float_file_refused_on_exact_backend(self, workdir, capsys):
        path = workdir / "f.txt"
        path.write_text("0.5,0.5\n0.25,0.75\n")
        for command, hint in [("boundary", "use --backend promote\n"),
                              ("factorize", "use --backend promote\n"),
                              ("nnrank3", "use --backend float or promote\n")]:
            assert main([command, "--input", str(path), "--backend", "exact"]) == 2
            err = capsys.readouterr().err
            assert "float entries" in err and err.endswith(hint), command

    @pytest.mark.parametrize("command", ["boundary", "factorize"])
    def test_exact_commands_offer_only_exact_and_promote(self, command):
        backend = next(a for a in _subparser(command)._actions if a.dest == "backend")
        assert list(backend.choices) == ["exact", "promote"]
        assert backend.default == "exact"

    def test_missing_file_is_usage_error(self, workdir):
        assert main(["nnrank3", "--input", str(workdir / "nope.txt")]) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_entry_is_usage_error(self, workdir, capsys, token):
        path = workdir / "nonfinite.txt"
        path.write_text(f"1,2\n{token},4\n")
        assert main(["nnrank3", "--input", str(path)]) == 2
        assert f"line 2: non-finite entry '{token}'" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1, 1e300])
    def test_promote_backend(self, workdir, scale):
        # promotion rounds exactly, so a large finite float promotes too
        path = write_matrix(workdir / "f.txt", Matrix.of([[0.25 * scale] * 2] * 2))
        assert main(["boundary", "--input", path, "--backend", "promote"]) == 0

    @pytest.mark.parametrize("scale", [1e60, 1e200])
    def test_float_nnrank3_far_from_one(self, workdir, scale):
        # a rank-3 integer product scaled far past 1 is decided on floats,
        # not refused as a numeric failure
        rng = np.random.default_rng(5)
        P = rng.integers(1, 10, (5, 3)) @ rng.integers(1, 10, (3, 5))
        path = write_matrix(workdir / "big.txt", Matrix.of((P * scale).tolist()))
        out = workdir / "v.json"
        assert main(["nnrank3", "--input", path, "--backend", "float",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["verdict"], report["backend"]) == ("in", "float")


class TestFactorize:
    def test_writes_factors_that_multiply_back(self, workdir):
        P = uab_normalized(100, 42)
        path = write_matrix(workdir / "p.txt", P)
        assert main(["factorize", "--input", path, "--prefix",
                     str(workdir / "out"), "--output", str(workdir / "f.json")]) == 0
        A = parse_matrix((workdir / "out_A.txt").read_text())
        B = parse_matrix((workdir / "out_B.txt").read_text())
        assert A @ B == P

    def test_default_prefix(self, workdir):
        path = write_matrix(workdir / "p.txt", uab_normalized(100, 42))
        assert main(["factorize", "--input", path, "--output", str(workdir / "f.json")]) == 0
        assert json.loads((workdir / "f.json").read_text())["A"] == "factor_A.txt"
        assert (workdir / "factor_A.txt").exists() and (workdir / "factor_B.txt").exists()

    def test_refusal_exits_one(self, workdir):
        path = write_matrix(workdir / "p.txt", uab_normalized(1, 0))
        assert main(["factorize", "--input", path,
                     "--output", str(workdir / "f.json")]) == 1


class TestEmCommand:
    def test_em_with_restarts(self, workdir):
        path = write_matrix(workdir / "u.txt", Matrix.exact(
            [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]))
        out = workdir / "em.json"
        est = workdir / "est.txt"
        code = main(["em", "--input", path, "--r", "3", "--restarts", "20",
                     "--seed", "7", "--output", str(out),
                     "--estimate-out", str(est)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["critical"] is False
        M = parse_matrix(est.read_text())
        assert abs(sum(float(x) for r in M.entries for x in r) - 1) < 1e-9


    def test_default_em_polishes_like_the_experiments(self, workdir):
        U = [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
        path = write_matrix(workdir / "u.txt", Matrix.exact(U))
        out = workdir / "em.json"
        assert main(["em", "--input", path, "--r", "3", "--seed", "7",
                     "--max-iter", "50", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        best, batch = em.run_em_restarts(np.array(U), 3, restarts=1, seed=7, max_iter=50)
        assert not batch.converged[0] and best.converged
        assert payload["iterations"] == best.iterations > 50
        assert payload["converged"] is True
        assert payload["restarts"] == 1
        assert main(["em", "--input", path, "--r", "3", "--restarts", "0"]) == 2

    def test_em_numeric_failure_exits_three(self, workdir, monkeypatch, capsys):
        path = write_matrix(workdir / "u.txt", Matrix.exact(
            [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]))

        def underflow(*args, **kwargs):
            raise em.EMNumericalError("cell (0, 0) has probability 0")

        monkeypatch.setattr(em, "run_em_restarts", underflow)
        assert main(["em", "--input", path]) == 3
        assert "numeric failure: cell (0, 0) has probability 0" in capsys.readouterr().err

    def test_defaults_are_the_em_constants(self):
        p = _subparser("em")
        assert p.get_default("max_iter") == em.MAX_ITER
        assert p.get_default("tol") == em.TOL
        assert p.get_default("crit_tol") == em.CRIT_TOL

    @pytest.mark.parametrize("value", ["0.3", "0.02"])
    def test_non_integer_counts_exit_two(self, workdir, capsys, value):
        path = workdir / "u.txt"
        path.write_text((",".join([value] * 4) + "\n") * 4)
        assert main(["em", "--input", str(path), "--r", "3"]) == 2
        assert main(["em", "--input", str(path), "--r", "3", "--restarts", "4"]) == 2
        assert "non-integer entries" in capsys.readouterr().err


    @pytest.mark.parametrize("flags, message", [
        (["--r", "0"], "at least one component"),
        (["--max-iter", "-3"], "max_iter must be nonnegative"),
        (["--tol", "-1"], "tol must be positive"),
        (["--tol", "0"], "tol must be positive"),
        (["--crit-tol", "-1"], "crit_tol must be positive"),
        (["--seed", "-1"], "expected non-negative integer"),
    ], ids=["r0", "negative_max_iter", "negative_tol", "zero_tol", "negative_crit_tol",
            "negative_seed"])
    def test_invalid_r_or_max_iter_exits_two(self, workdir, capsys, flags, message):
        path = write_matrix(workdir / "u.txt", Matrix.exact(
            [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]))
        assert main(["em", "--input", path, *flags]) == 2
        assert message in capsys.readouterr().err


class TestFamilyCommand:
    def test_uab_mle_emission(self, workdir, capsys):
        out = workdir / "fam.json"
        code = main(["family", "uab", "--a", "1", "--b", "0", "--mle",
                     "--matrix-out", str(workdir / "mats.txt"),
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["letters"]["t"] == "4/3"
        text = (workdir / "mats.txt").read_text()
        blocks = [b for b in text.split("# ") if b.strip()]
        assert len(blocks) == 9  # the count table plus eight maximizers
        first = parse_matrix("\n".join(blocks[1].splitlines()[1:]))
        assert first.entries[0][0] == Fraction(1, 8)

    def test_rectangle_and_curve(self, workdir):
        assert main(["family", "rectangle", "--a", "1/4", "--b", "1/4",
                     "--matrix-out", str(workdir / "r.txt"),
                     "--output", str(workdir / "r.json")]) == 0
        assert json.loads((workdir / "r.json").read_text())["in_model"] is True
        assert main(["family", "greencurve", "--a", "0", "--b", "0",
                     "--matrix-out", str(workdir / "g.txt"),
                     "--output", str(workdir / "g.json")]) == 0
        assert json.loads((workdir / "g.json").read_text())["det"] == "0"

    @pytest.mark.parametrize("name", ["rectangle", "greencurve"])
    def test_zero_denominator_is_a_usage_error(self, workdir, capsys, name):
        assert main(["family", name, "--a", "1/0", "--b", "0"]) == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err


class TestExperimentCommand:
    def test_tiny_boundary_fraction_run(self, workdir):
        out = workdir / "exp.json"
        csv_path = workdir / "exp.csv"
        code = main(["experiment", "boundary_fraction", "--num-matrices", "10",
                     "--seed", "3", "--csv", str(csv_path),
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "1" and payload["num_trials"] == 10
        assert csv_path.read_text().count("\n") == 11  # header + rows

    def test_config_file_with_flag_overrides(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"num_matrices": 4, "seed": 9, "T": 30}))
        out = workdir / "exp.json"
        code = main(["experiment", "boundary_fraction", "--config", str(cfg),
                     "--num-matrices", "6", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["num_trials"] == 6  # flag wins
        assert payload["config"]["seed"] == 9  # file value survives

    @pytest.mark.parametrize("mode", ["table1", "planted", "boundary_fraction"])
    def test_defaults_come_from_config_dataclass(self, workdir, monkeypatch, mode):
        seen = []

        def fake_runner(cfg, jobs=1):
            seen.append(cfg)
            return harness.ExperimentReport(config=cfg, records=[], fraction=0.0,
                                            runtime=0.0)
        monkeypatch.setattr(harness, "run_experiment", fake_runner)
        assert main(["experiment", mode, "--output", str(workdir / "e.json")]) == 0
        assert seen == [harness.ExperimentConfig(mode=mode)]

    @pytest.mark.parametrize("mode, config, flags, message", [
        ("table1", None, ["--num-matrices", "0"], "num_matrices must be at least 1"),
        ("table1", None, ["--r", "-1"], "r must be at least 1"),
        ("boundary_fraction", None, ["--r", "0"], "r must be at least 1"),
        ("table1", None, ["--restarts", "0"], "num_restarts must be at least 1"),
        ("planted", None, ["--T", "0"], "T must be at least 1"),
        ("boundary_fraction", None, ["--dist-param", "0"], "dist_param must be at least 1"),
        ("boundary_fraction", None, ["--m", "2"], "kind a needs m >= 3 and n >= 4"),
        ("boundary_fraction", None, ["--n", "3"], "kind a needs m >= 3 and n >= 4"),
        ("table1", {"generator": "bogus"}, [], "unknown generator 'bogus'"),
        ("boundary_fraction", {"generator": "bogus"}, [], "unknown generator 'bogus'"),
        ("planted", {"dist": "bogus"}, [], "unknown dist 'bogus'"),
        ("table1", None, ["--jobs", "0"], "jobs must be at least 1"),
        ("table1", None, ["--max-iter", "-1"], "max_iter must be nonnegative, got -1"),
        ("table1", None, ["--tol", "0"], "tol must be positive, got 0.0"),
        ("planted", None, ["--tol=-1e-10"], "tol must be positive, got -1e-10"),
        ("table1", None, ["--crit-tol", "-1"], "crit_tol must be positive, got -1.0"),
    ], ids=["no_matrices", "negative_r", "zero_r_boundary", "no_restarts", "zero_T",
            "zero_dist_param", "m_below_stratum", "n_below_stratum", "generator",
            "generator_unread", "dist_unread", "no_jobs", "negative_max_iter",
            "zero_tol", "negative_tol", "negative_crit_tol"])
    def test_bad_inputs_exit_two_before_any_trial(self, workdir, monkeypatch, capsys,
                                                   mode, config, flags, message):
        ran = []
        for name in list(harness.TRIALS):
            monkeypatch.setitem(harness.TRIALS, name, lambda cfg, trial: ran.append(trial))
        argv = ["experiment", mode, *flags]
        if config is not None:
            (workdir / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(workdir / "cfg.json")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert ran == []

    def test_flags_cover_the_config_keys(self):
        dests = {action.dest for action in _subparser("experiment")._actions}
        assert dests - {"help"} == {f.name for f in fields(harness.ExperimentConfig)} | {
            "config", "jobs", "csv", "output"}

    @pytest.mark.parametrize("mode, flags", [
        ("table1", ["--generator", "dirichlet"]),
        ("planted", ["--T", "5"]),
        ("boundary_fraction", ["--dist", "int1to4"]),
    ], ids=["table1", "planted", "boundary_fraction"])
    def test_report_config_replays(self, workdir, monkeypatch, mode, flags):
        # a report's config block, mode included, is a config file that
        # reruns the experiment to the same records
        reports = []
        original = harness.run_experiment

        def spy(cfg, jobs=1):
            reports.append(original(cfg, jobs))
            return reports[-1]
        monkeypatch.setattr(harness, "run_experiment", spy)
        out = workdir / "first.json"
        assert main(["experiment", mode, "--num-matrices", "3", "--restarts", "4",
                     "--max-iter", "50", "--seed", "11", *flags,
                     "--output", str(out)]) == 0
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(json.loads(out.read_text())["config"]))
        assert main(["experiment", mode, "--config", str(cfg),
                     "--output", str(workdir / "second.json")]) == 0
        first, second = reports
        assert second.config == first.config
        assert second.records == first.records
        assert second.fraction == first.fraction

    @pytest.mark.parametrize("config, message", [
        ({"bogus": 1}, "unknown config keys ['bogus']"),
        (None, "cannot read"),
        ({"m": "x"}, "config key 'm' must be int"),
        ({"mode": "planted"}, "config mode 'planted' is not the command's 'table1'"),
    ], ids=["unknown_key", "missing_file", "wrong_type", "other_mode"])
    def test_config_errors_exit_two(self, workdir, capsys, config, message):
        cfg = workdir / "cfg.json"
        if config is not None:
            cfg.write_text(json.dumps(config))
        assert main(["experiment", "table1", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_do_not_leak_state(self, workdir, capsys):
        exact = write_matrix(workdir / "p.txt", uab_normalized(100, 42))
        floats = write_matrix(workdir / "f.txt", uab_normalized(100, 42).as_float())
        out = workdir / "v.json"

        def backend(argv):
            assert main(argv + ["--output", str(out)]) == 0
            return json.loads(out.read_text())["backend"]

        assert main(["factorize", "--input", exact, "--prefix", "X"]) == 0
        assert main(["factorize", "--input", exact]) == 0
        assert (workdir / "X_A.txt").exists() and (workdir / "factor_A.txt").exists()
        # a leaked --backend float would decide the exact file on floats
        assert backend(["nnrank3", "--input", exact, "--backend", "float"]) == "float"
        assert backend(["nnrank3", "--input", exact]) == "exact"
        # a leaked --backend exact would refuse the float file with exit 2
        assert backend(["nnrank3", "--input", exact, "--backend", "exact"]) == "exact"
        assert backend(["nnrank3", "--input", floats]) == "float"
        with pytest.raises(SystemExit) as err:
            main(["nnrank3", "--input", floats, "--backend", "bogus"])
        assert err.value.code == 2
        assert backend(["nnrank3", "--input", floats]) == "float"
        capsys.readouterr()

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "nnmix", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: nnmix")


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_malformed_matrix_reports_line(self, workdir, capsys):
        path = workdir / "bad.txt"
        path.write_text("1,2\nx,y\n")
        code = main(["nnrank3", "--input", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_round_trip_exact_values(self, workdir):
        M = Matrix.exact([[Fraction(22, 7), 3], [0, Fraction(-1, 3)]])
        path = workdir / "m.txt"
        path.write_text(format_matrix(M))
        assert parse_matrix(path.read_text()) == M
