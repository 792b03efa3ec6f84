"""The benchmark's tracer still finds what it wraps.

``bench/spans.py`` wraps named ergodim functions at run time and stops a
benchmark run when one of them is gone or no longer binds the arguments its
counters read.  These tests read that file and ``bench/run.py`` (without
changing anything under ``bench/``) so that a rename, or a per-layer metric
that is no longer a number, fails here, in the test suite, first.
"""
import importlib
import importlib.util
import inspect
import json
import sys
import time
from pathlib import Path

import pytest

from ergodim.harness import ExperimentConfig, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PY = BENCH / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    try:
        yield _load("_bench_spans", SPANS_PY)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.modules.pop("_bench_spans", None)


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py, with the sibling modules it imports by their plain names."""
    siblings = ("reference", "spans", "workloads")
    saved = {name: sys.modules.pop(name, None) for name in siblings}
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        yield _load("_bench_run", BENCH / "run.py")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode
        sys.modules.pop("_bench_run", None)
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_every_traced_target_resolves(spans):
    assert spans.TARGETS
    for module_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(inspect.getattr_static(owner, leaf)), f"{module_name}.{attr}"


def test_counters_read_what_the_toolkit_passes_and_returns(spans):
    """lipschitz_table binds points/probes/n_schedule; sample_point returns .symbols on shifts."""
    points, probes, ns, window = 6, 16, [1, 2, 4], 16
    cfg = ExperimentConfig.from_dict({
        "task": "chi", "seed": 0,
        "system": {"kind": "full_shift", "alphabet": 2, "metric": "dyadic", "window": window},
        "oracle": {"kind": "markov", "transitions": [[0.7, 0.3], [0.4, 0.6]]},
        "r_schedule": [0.25, 0.125], "n_schedule": ns, "points": points, "probes": probes,
    })
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.run("tier-1"):
            run_experiment(cfg)
    finally:
        tracer.uninstall()
    counts = tracer.counts_by_run["tier-1"]
    assert counts["geometry.lipschitz_table.calls"] == 2  # one call per radius
    assert counts["geometry.probes_drawn"] == 2 * points * probes
    assert counts["geometry.probe_cells"] == 2 * points * probes * len(ns)
    assert counts["measures.sample_point.calls"] == points
    # the chi task may widen the window to reach its n-schedule: 2N + 1 symbols, N >= window
    per_point, rest = divmod(counts["measures.symbols_drawn"], points)
    assert rest == 0 and per_point % 2 == 1 and per_point >= 2 * window + 1
    assert counts["lyapunov.estimate_chi.calls"] == 1


def test_traced_chi_gives_numeric_layer_metrics(bench_run):
    """The per-layer metrics of a traced cat-map chi are finite numbers, none of them null."""
    (raw,) = [cfg for cfg in bench_run.workloads.configs("cat-map", 0, tiny=True) if cfg["task"] == "chi"]
    tracer = bench_run.spans.Tracer()
    tracer.install()
    try:
        with tracer.run("tier-1"):
            t0 = time.perf_counter()
            run_experiment(ExperimentConfig.from_dict(raw))
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics, _ = bench_run.layer_metrics("cat-map", tracer, [wall], [wall], 0.0,
                                         bench_run.threads2_speedup(tracer.chi_calls))
    json.dumps(metrics, allow_nan=False)
    assert None not in metrics.values()


@pytest.mark.parametrize("workload", ["cat-map", "markov-shift", "weighted-shift"])
def test_every_workload_traces_to_numeric_layer_metrics(bench_run, workload):
    """A traced tiny pass of each workload gives every per-layer metric as a finite number.

    A benchmark result line holding ``null`` or ``NaN`` is not strict JSON, so
    each metric must survive ``json.dumps(allow_nan=False)``.
    """
    assert workload in bench_run.workloads.WORKLOADS
    tracer = bench_run.spans.Tracer()
    tracer.install()
    try:
        with tracer.run("tier-1"):
            t0 = time.perf_counter()
            for raw in bench_run.workloads.configs(workload, 0, tiny=True):
                run_experiment(ExperimentConfig.from_dict(raw))
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics, _ = bench_run.layer_metrics(workload, tracer, [wall], [wall], 0.0,
                                         bench_run.threads2_speedup(tracer.chi_calls))
    json.dumps(metrics, allow_nan=False)
    assert None not in metrics.values()
    assert set(metrics) == {name for name, _ in bench_run.PER_LAYER}
