"""The benchmark in ``perfbench/`` reaches into the package by name: its
tracer wraps module attributes and its experiment workloads look up harness
runners.  A rename that would break ``perfbench/run.py`` fails here first,
and so does a change that moves the first seed-0 trials off the benchmark's
reference.  The tracer's wrapped imports are also why the package's own
unused-import check lives here."""

import ast
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nnmix import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nnmix"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    tracing = _load("tracing")
    assert tracing.WRAPPED
    for modname, attr, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


def _module_imports(tree):
    """(bound name, line) of each import at the top level of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_module_imports():
    # every module-level import is used in its module, exported in
    # __all__, or kept for the tracer to wrap in that module
    wrapped = {(modname, attr) for modname, attr, _ in _load("tracing").WRAPPED}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = used | _exported(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _module_imports(tree)
                   if name not in kept and (f"nnmix.{path.stem}", name) not in wrapped]
    assert unused == []


def test_every_experiment_runner_resolves(tmp_path):
    workloads = _load("workloads")
    experiments = []
    for name, factory in workloads.WORKLOADS.items():
        workload = factory(0, tmp_path)
        if isinstance(workload, workloads.Experiment):
            prefix, runner = workload.kind.split(".", 1)
            assert prefix == "harness"
            assert getattr(harness, runner) is harness.run_experiment, name
            experiments.append(name)
    assert experiments


# how many of each workload's first seed-0 trials the test reruns
REFERENCE_TRIALS = {"table1_5x5": 4, "planted_T10": 4, "boundary_fraction": 100}


@pytest.mark.parametrize("name", REFERENCE_TRIALS)
def test_seed_zero_trials_match_the_reference(name):
    # the first ops of each experiment workload, against the benchmark's
    # recorded verdicts (flags, stratum statuses and witness counts exactly,
    # log-likelihoods within its relative tolerance), so a kernel or exact
    # layer change that flips a verdict fails here too
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name](0, None)
    trials = REFERENCE_TRIALS[name]
    assert len(workload.reference) >= trials
    for index in range(trials):
        report = workload.op(index).run()
        assert workload._check_reference(report.records[0], workload.reference[index]) == []


# the EM workloads' first seed-0 trials recorded in reference.json
EM_REFERENCE_TRIALS = 24


@pytest.mark.parametrize("name", ["table1_5x5", "planted_T10"])
def test_em_reference_trials_through_run_experiment(name):
    # op i of a workload at seed 0 is a one-trial experiment at harness seed
    # i; every recorded trial, run straight through harness.run_experiment,
    # keeps its flag exactly and its log-likelihood within the benchmark's
    # tolerance, so an EM change that would fail the benchmark's reference
    # check fails here
    workloads = _load("workloads")
    reference = json.loads(workloads.REFERENCE.read_text())[name]["trials"]
    assert len(reference) == EM_REFERENCE_TRIALS
    cfg = workloads.WORKLOADS[name](0, None).cfg
    for seed, ref in enumerate(reference):
        rec = harness.run_experiment(replace(cfg, seed=seed)).records[0]
        assert rec["flagged_boundary"] == ref["flagged_boundary"], (name, seed)
        assert abs(rec["loglik"] - ref["loglik"]) <= \
            workloads.LOGLIK_REL_TOL * abs(ref["loglik"]), (name, seed)
