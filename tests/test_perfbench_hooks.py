"""The benchmark in ``perfbench/`` reaches into the package by name: its
tracer wraps module attributes and its experiment workloads look up harness
runners.  A rename that would break ``perfbench/run.py`` fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

from nnmix import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_every_experiment_runner_resolves(tmp_path):
    workloads = _load("workloads")
    experiments = []
    for name, factory in workloads.WORKLOADS.items():
        workload = factory(0, tmp_path)
        if isinstance(workload, workloads.Experiment):
            prefix, runner = workload.kind.split(".", 1)
            assert prefix == "harness"
            assert callable(getattr(harness, runner)), name
            experiments.append(name)
    assert experiments
