"""Command-line interface: verdict exit codes, file round-trips, reports."""

import json
from fractions import Fraction

import numpy as np
import pytest

from nnmix import em, harness
from nnmix.cli import main
from nnmix.exactla import Matrix, format_matrix, parse_matrix

from conftest import NICE_P, uab_normalized


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_matrix(path, M):
    path.write_text(format_matrix(M))
    return str(path)


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
        assert main(["boundary", "--input", str(path), "--backend", "exact"]) == 2
        assert "float entries" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, workdir):
        assert main(["nnrank3", "--input", str(workdir / "nope.txt")]) == 2

    def test_promote_backend(self, workdir):
        path = workdir / "f.txt"
        path.write_text("0.25,0.25\n0.25,0.25\n")
        assert main(["boundary", "--input", str(path), "--backend", "promote"]) == 0


class TestFactorize:
    def test_writes_factors_that_multiply_back(self, workdir):
        P = uab_normalized(100, 42)
        path = write_matrix(workdir / "p.txt", P)
        assert main(["factorize", "--input", path, "--prefix",
                     str(workdir / "out"), "--output", str(workdir / "f.json")]) == 0
        A = parse_matrix((workdir / "out_A.txt").read_text())
        B = parse_matrix((workdir / "out_B.txt").read_text())
        assert A @ B == P

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
    ], ids=["r0", "negative_max_iter"])
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
        monkeypatch.setattr(harness, f"{mode}_experiment", fake_runner)
        assert main(["experiment", mode, "--output", str(workdir / "e.json")]) == 0
        assert seen == [harness.ExperimentConfig(mode=mode)]

    @pytest.mark.parametrize("config, message", [
        ({"bogus": 1}, "unknown config keys ['bogus']"),
        (None, "cannot read"),
        ({"m": "x"}, "config key 'm' must be int"),
    ], ids=["unknown_key", "missing_file", "wrong_type"])
    def test_config_errors_exit_two(self, workdir, capsys, config, message):
        cfg = workdir / "cfg.json"
        if config is not None:
            cfg.write_text(json.dumps(config))
        assert main(["experiment", "table1", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


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
