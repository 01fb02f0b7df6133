"""The benchmark (perfbench/workloads.py and perfbench/run.py) calls lgnsde
directly: train_model, test_report, cli.main, BrownianPath, Adam. Each call
runs here once at toy size, so a change that breaks one fails this suite,
not only the benchmark run."""

import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train-cora-sbm", "predict-cora-sbm", "verify-small"])
def test_toy_job_passes_its_checks(tmp_path, name):
    workload = _load("workloads").WORKLOADS[name]("toy", 0, str(tmp_path))
    workload.build()
    assert workload.check(workload.job()) == []


def test_step_peak_is_measured(tmp_path):
    workloads, run = _load("workloads"), _load("run")
    train = workloads.Train("toy", 0, str(tmp_path))
    train.build()
    peak = run._step_peak_mb(train)
    assert math.isfinite(peak) and peak > 0
