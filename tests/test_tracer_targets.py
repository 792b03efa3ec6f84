"""The benchmark's tracer still finds what it wraps.

``bench/spans.py`` wraps named ergodim functions at run time and stops a
benchmark run when one of them is gone or no longer binds the arguments its
counters read.  These tests read that file (without changing anything under
``bench/``) so that a rename fails here, in the test suite, first.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from ergodim.harness import ExperimentConfig, run_experiment

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.modules.pop(spec.name, None)


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
        "task": "chi", "seed": 0, "window": window,
        "system": {"kind": "full_shift", "alphabet": 2, "metric": "dyadic"},
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
