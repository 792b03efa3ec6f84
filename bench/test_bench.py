"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli_main():
    return run.import_cli()


def tiny_pass(cli_main, tmp_path, workload, seed=0, tracer=None):
    cfgs = run.write_configs(tmp_path / f"cfg-{workload}-{seed}",
                             workloads.configs(workload, seed, tiny=True))
    return run.run_pass(cli_main, cfgs, tmp_path / "reports", tracer)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke_run(cli_main, tmp_path, workload):
    gate = run.Gate(workload, 0, golden=None, full_scale=False)
    for _ in range(2):
        wall, reports = tiny_pass(cli_main, tmp_path, workload)
        gate.check(reports)
        assert wall > 0
        assert [r.task for r in reports] == [c["task"] for c in workloads.WORKLOADS[workload]]
        assert all(r.rc in (0, 2) and r.sha256 for r in reports), [r.log for r in reports]
    assert gate.attempted == 2 * len(workloads.WORKLOADS[workload])
    assert gate.failed == 0, gate.problems


def test_reference_sampler_leaves_payloads_and_takes_its_time_off(cli_main, tmp_path, monkeypatch):
    def slow_load():
        time.sleep(0.02)
        return 0.02

    monkeypatch.setattr(run.reference, "run", slow_load)
    handler = signal.getsignal(signal.SIGALRM)
    plain = tiny_pass(cli_main, tmp_path, "weighted-shift")[1]
    sampler = run.reference.Sampler(period=0.01)
    t0 = time.perf_counter()
    wall, reports = run.run_pass(
        cli_main, run.write_configs(tmp_path / "cfg-sampled", workloads.configs("weighted-shift", 0, tiny=True)),
        tmp_path / "reports", sampler=sampler)
    elapsed = time.perf_counter() - t0
    assert sampler.samples and set(sampler.samples) == {0.02}
    assert 0.0 < wall <= elapsed - sampler.paused
    assert [r.sha256 for r in reports] == [r.sha256 for r in plain]
    assert signal.getsignal(signal.SIGALRM) == handler


def test_seed_changes_hashes_and_same_seed_reproduces(cli_main, tmp_path):
    def hashes(seed):
        return {r.task: r.sha256 for r in tiny_pass(cli_main, tmp_path, "cat-map", seed)[1]}

    first, again, other = hashes(0), hashes(0), hashes(1)
    assert first == again
    assert all(first[task] != other[task] for task in first)


def test_corrupted_payload_counts_as_failed(cli_main, tmp_path):
    def corrupting(argv):
        rc = cli_main(argv)
        if argv[0] == "entropy":
            path = Path(argv[argv.index("--out") + 1]) / "entropy.json"
            doc = json.loads(path.read_text())
            doc["payload"]["value"] += 1e-9
            path.write_text(json.dumps(doc))
        return rc

    gate = run.Gate("markov-shift", 0, golden=None, full_scale=False)
    gate.check(tiny_pass(cli_main, tmp_path, "markov-shift")[1])
    gate.check(tiny_pass(corrupting, tmp_path, "markov-shift")[1])
    assert gate.failed == 1
    assert gate.problems == [("entropy", ["payload bytes differ from the first pass"])]


def test_golden_mismatch_and_new_flags_fail():
    gate = run.Gate("markov-shift", 0, golden={"entropy": {"sha256": "0" * 64, "flags": []}})
    bad = run.ReportRun("entropy", 0.1, 2, "1" * 64, ["surprise"], {"value": 0.0, "mode": "exact",
                        "closed_form_rate": 0.0}, "")
    problems = gate.problems_of(bad)
    assert any("golden" in p for p in problems)
    assert any("flags the golden run did not carry" in p for p in problems)
    assert any("value" in p for p in problems)


def test_self_times_nonnegative_and_within_pass(cli_main, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.run("test/pass0"):
            wall, reports = tiny_pass(cli_main, tmp_path, "cat-map", tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(r.rc == 0 for r in reports)
    recorded = [s for s in tracer.spans if s is not None]
    selfs = spans.self_times(recorded)
    assert all(t >= 0.0 for t in selfs)
    program = sum(t for s, t in zip(recorded, selfs) if not s.name.startswith("bench."))
    assert 0.0 < program <= wall
    names = {s.name for s in recorded}
    assert {"dimension.sample_unstable_set", "geometry.lipschitz_table", "harness.from_dict"} <= names
    assert tracer.counts_by_run["test/pass0"]["lyapunov.estimate_chi.calls"] == 2


def test_missing_traced_function_fails_loudly(monkeypatch):
    import ergodim.harness

    original = ergodim.harness.run_experiment
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("ergodim.dimension", "gone", None),))
    with pytest.raises(RuntimeError, match="ergodim.dimension.gone no longer exists"):
        spans.Tracer().install()
    assert ergodim.harness.run_experiment is original


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, monkeypatch, trace):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    rc = run.main(["--workload", "weighted-shift", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    text = "\n".join(lines[:-1])
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name
    assert "failed_frac" in text


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cat-map", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
