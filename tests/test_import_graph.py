"""What a fresh interpreter loads: numpy comes in only with EM, the witness
scan's orientation batch, and the functions that compute with it, so
``import nnmix``, ``import nnmix.cli`` and the exact verdict commands start
without it.  The test process has numpy loaded already, so each check runs
in a fresh interpreter."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import nnmix
from nnmix.cli import main
from nnmix.exactla import Matrix, format_matrix

from conftest import NICE_P

SRC = Path(__file__).resolve().parents[1] / "src"

# imports the package and the cli, then runs each argv of sys.argv[1]
# through main(); records after each step whether numpy has been loaded
STEPS = """
import json, sys
import nnmix
imports = ["numpy" in sys.modules]
import nnmix.cli
imports.append("numpy" in sys.modules)
codes, loaded = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(nnmix.cli.main(argv))
    loaded.append("numpy" in sys.modules)
print(json.dumps({"imports": imports, "codes": codes, "loaded": loaded,
                  "batch": "nnmix.rank3batch" in sys.modules}))
"""


def _fresh(script: str, *args, cwd=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _commands(tmp_path, monkeypatch, inputs: dict, argvs: list) -> tuple[dict, dict]:
    """Run ``argvs`` in a fresh interpreter and in this one, each in a
    directory of its own that holds ``inputs``; returns the fresh run and
    the files it wrote, which must be the files this process writes."""
    outputs = []
    for where in ("fresh", "here"):
        root = tmp_path / where
        root.mkdir()
        for name, M in inputs.items():
            (root / name).write_text(format_matrix(M))
        if where == "fresh":
            fresh = _fresh(STEPS, json.dumps(argvs), cwd=root)
        else:
            monkeypatch.chdir(root)
            assert [main(argv) for argv in argvs] == fresh["codes"]
        outputs.append({p.name: p.read_text() for p in sorted(root.iterdir())})
    assert outputs[0] == outputs[1]
    return fresh, outputs[0]


def test_exact_commands_start_without_numpy(tmp_path, monkeypatch):
    # a power-of-two scale, so the float copy promotes back to P exactly
    P = Matrix.exact(NICE_P).scale(Fraction(1, 128))
    argvs = []
    for name, backend in (("exact.txt", "exact"), ("float.txt", "promote")):
        argvs += [
            ["nnrank3", "--input", name, "--output", f"{name}.in.json"],
            ["factorize", "--input", name, "--backend", backend,
             "--prefix", name, "--output", f"{name}.fac.json"],
            ["boundary", "--input", name, "--backend", backend,
             "--output", f"{name}.bd.json"]]
    argvs += [["patterns", "--m", "4", "--n", "4", "--output", "patterns.json"],
              ["family", "uab", "--a", "1", "--b", "0", "--matrix-out", "uab.txt",
               "--output", "uab.json"]]
    inputs = {"exact.txt": P, "float.txt": P.as_float()}
    fresh, outputs = _commands(tmp_path, monkeypatch, inputs, argvs)
    assert fresh["codes"] == [0, 0, 1] * 2 + [0, 0]
    assert json.loads(outputs["float.txt.in.json"])["backend"] == "float"
    assert fresh["imports"] == [False, False]
    assert fresh["loaded"] == [False] * len(argvs) and not fresh["batch"]


def test_numpy_commands_work_from_a_fresh_interpreter(tmp_path, monkeypatch):
    # em and family --mle import em, and a 12x12 boundary test builds the
    # orientation batch; each loads numpy where it needs it
    rng = np.random.default_rng(3)
    big = Matrix.exact((rng.integers(1, 10, (12, 3)) @ rng.integers(1, 10, (3, 12))).tolist())
    counts = Matrix.exact([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    argvs = [["boundary", "--input", "big.txt", "--output", "big.json"],
             ["em", "--input", "u.txt", "--restarts", "5", "--output", "em.json",
              "--estimate-out", "est.txt"],
             ["family", "uab", "--a", "1", "--b", "0", "--mle", "--matrix-out",
              "mle.txt", "--output", "mle.json"]]
    fresh, outputs = _commands(tmp_path, monkeypatch, {"big.txt": big, "u.txt": counts},
                               argvs)
    assert fresh["codes"] == [0, 0, 0] and fresh["batch"]
    assert fresh["imports"] == [False, False] and fresh["loaded"] == [True] * 3
    assert json.loads(outputs["big.json"])["status"] == "interior"
    assert "loglik" in json.loads(outputs["mle.json"])


def test_every_exported_name_resolves():
    script = """
import json, sys
import nnmix
before = "numpy" in sys.modules
from nnmix import run_em
names = {name: type(getattr(nnmix, name)).__name__ for name in nnmix.__all__}
try:
    nnmix.no_such_name
    missing = False
except AttributeError:
    missing = True
print(json.dumps({"before": before, "run_em": run_em.__module__, "names": names,
                  "missing": missing}))
"""
    got = _fresh(script)
    assert got["before"] is False and got["run_em"] == "nnmix.em" and got["missing"]
    assert got["names"] == {name: type(getattr(nnmix, name)).__name__
                            for name in nnmix.__all__}


def test_numpy_is_a_module_import_of_em_and_the_batch_only():
    # the other modules import numpy inside the functions that compute with it
    importers = []
    for path in sorted((SRC / "nnmix").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert importers == ["em.py", "rank3batch.py"]
