"""The package names that the benchmark under ``perfbench/`` calls.

The benchmark is kept fixed, so that its timings compare across versions of
the package.  A package change that drops or renames a name it calls would
crash the benchmark's traced run; this test fails first.  Its tracer and
probes import only numpy and the package, so they load here by file path.
"""
import copy
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gpextremes.experiments as experiments
import gpextremes.orthants as orthants
import gpextremes.sampling as sampling

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_calls_resolve(tmp_path, monkeypatch):
    # the tracer's hook table names the sampling classes when it is imported
    tracer, probes = load("tracer", monkeypatch), load("probes", monkeypatch)
    gen = np.random.default_rng(3)
    with tracer.Tracer() as traced:
        # the FGN probes' call
        assert sampling.FgnSampler(1.5, 1 / 512, 512).increments(8, gen).shape == (8, 512)
    # the hooks that find no name today; any other would leave a span or counter
    # at 0 (constants.ewv_batch feeds the orthants.ewv_batch span and the
    # orthants.clouds counter, so the window reducer calls it by that name)
    assert sorted(traced.missing) == sorted(MISSING_HOOKS)
    clouds = probes._clouds(gen, 4, 3)
    assert orthants.ewv_batch(clouds, gen=gen).shape == (4,)
    assert orthants._pareto_mask(clouds[0]).shape == (probes.M,)
    # the set-up probe: load a workload's config and parse its processes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKLOADS["conj-n2"]["config"]), encoding="utf-8")
    tree = experiments.load_config(config)
    for name in tree["processes"]:
        assert experiments._resolve_process(tree, name, f"processes.{name}").n == 2


# The hooks of perfbench/tracer.py whose names the package no longer defines.
MISSING_HOOKS = [
    "gpextremes.conjunction.sample_vector",
    "gpextremes.conjunction.ensure_valid",
    "gpextremes.sampling.ensure_valid",
    "FgnSampler.increments",
    "StationarySampler.sample",
    "gpextremes.constants.map_blocks",
    "gpextremes.conjunction.map_blocks",
]


@pytest.mark.parametrize("name", WORKLOADS)
def test_setup_probe_accepts_each_workload_config(name, tmp_path):
    # the set-up the benchmark times runs the program's own spec validation
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKLOADS[name]["config"]), encoding="utf-8")
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(config)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


# The draw each workload runs at its own replication count: the estimator its
# experiment calls, the sampler fields of each coordinate's draw in that
# estimate (of every rung's, for a ladder), the replication blocks of each
# draw record, and whether it draws whole paths, R rows of every coordinate
# (the lazy conjunction scan draws coordinate 1 only for the rows still alive).
WORKLOAD_DRAWS = {
    "window-n3": ("estimate_window_constant", [("direct", 32, None)] * 3, [2], True),
    "conj-n2": ("estimate_conjunction_prob", [("dense", 1025, "cholesky")] * 2, [4], False),
    "pickands-n2": ("estimate_pickands", [("dense", 513, "cholesky")] * 8, [4] * 4, True),
}


def draw_records(diagnostics):
    """The draw records in an estimate's diagnostics: its own, or every rung's for a ladder."""
    return diagnostics.get("rung_draws", [diagnostics])


def sampler_fields(diagnostics):
    """``(method, size, factor)`` of each draw that an estimate's diagnostics report."""
    return [
        fields
        for record in draw_records(diagnostics)
        for fields in zip(record["sampler_methods"], record["sampler_sizes"], record["sampler_factors"])
    ]


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_keeps_its_draw(name, monkeypatch):
    # a change of the sampling method rule, of the blocking or of the rows a
    # workload draws must not move it off its draw unnoticed
    estimator, pinned, blocks, whole_paths = WORKLOAD_DRAWS[name]
    estimates, call = [], getattr(experiments, estimator)
    monkeypatch.setattr(experiments, estimator, lambda *args: estimates.append(call(*args)) or estimates[-1])
    tree = copy.deepcopy(WORKLOADS[name]["config"])
    tree["seed"] = 1
    experiments.run_experiment(tree)
    (estimate,) = estimates
    assert sampler_fields(estimate.diagnostics) == pinned
    records = draw_records(estimate.diagnostics)
    assert [record["blocks"] for record in records] == blocks
    R = tree[tree["kind"]]["replications"]
    for record in records:
        rows = record["rows_drawn"]
        if whole_paths:
            assert rows == [R] * len(record["sampler_methods"])
        else:
            assert rows[0] == R > rows[1] > 0
