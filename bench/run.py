#!/usr/bin/env python3
"""Benchmark one ergodim workload end to end, with a correctness gate.

Usage:
    python3 bench/run.py --workload cat-map --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36 --trace 0

Load shape: a batch job in one process and one thread, in a closed loop.  A
pass produces every report of the workload, one after the other, each through
the CLI entry point ``ergodim.cli.main`` with reports written to a scratch
directory under ``.bench_out/``.  Passes repeat while another pass of median
length still fits in ``--seconds``; at least one pass always runs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-module metrics (see README.md).  Every
report is checked (closed-form check, no new flags, identical payload bytes on
every pass, golden payload hash at seed 0); any failure makes the exit code 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
PREDICTED_TOP = {
    "cat-map": "dimension.sample_unstable_set",
    "markov-shift": "dimension.box_counting_dimension",
    "weighted-shift": "geometry.lipschitz_table",
}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("verify_norm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
_SELF_SPANS = (
    "harness.from_dict", "harness.run_experiment", "harness.emit_report",
    "lyapunov.estimate_chi", "geometry.lipschitz_table",
    "dimension.verify_main_inequality", "dimension.sample_unstable_set",
    "dimension.box_counting_dimension", "dimension.local_dimension_lower",
    "dimension.unstable_cover_counts", "measures.sample_point",
    "measures.fixed_coords_log_measure", "partitions.local_smb_check",
    "partitions.shift_lemma_check", "partitions.construct_subordinate_partition",
    "partitions.check_atom_in_unstable", "partitions.hamming_ball_bound_check",
    "entropy.block_entropy_rate", "entropy.brin_katok_local",
    "systems.operator_norm_power", "systems.weighted_tail_bound",
    "systems.WeightSequence.check",
)
_COUNTS = (
    "lyapunov.estimate_chi.calls", "lyapunov.points_excluded",
    "geometry.lipschitz_table.calls", "geometry.probes_drawn",
    "dimension.sample_unstable_set.calls", "dimension.cloud.candidates",
    "dimension.box.rows_counted", "dimension.base_point_failures",
    "measures.sample_point.calls", "measures.symbols_drawn",
    "systems.weighted_tail_bound.calls",
)
PER_LAYER = (
    (("harness.import_s", "s"),)
    + tuple((f"{name}.self_s", "s") for name in _SELF_SPANS)
    + tuple((name, "count") for name in _COUNTS)
    + (
        ("geometry.accept_ratio", "ratio"),
        ("dimension.cloud.unique_ratio", "ratio"),
        ("dimension.cloud.admit_ratio", "ratio"),
        ("lyapunov.threads2_speedup", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.top_span_held", "flag"),
    )
)


@dataclass
class ReportRun:
    task: str
    seconds: float
    rc: int
    sha256: str | None
    flags: list
    payload: dict | None
    log: str


def payload_sha256(payload: dict) -> str:
    """sha256 of the payload bytes, as ``Report.payload_bytes`` writes them."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_configs(directory: Path, cfgs: list) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for cfg in cfgs:
        path = directory / f"{cfg['task']}.json"
        path.write_text(json.dumps(cfg))
        out.append((cfg["task"], path))
    return out


def setup_probe(paths: list) -> tuple:
    """(seconds from interpreter start to all configs validated, import seconds)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *map(str, paths)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return t1 - t0, json.loads(line)["import_s"]


def import_cli():
    """ergodim's CLI entry point, imported from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from ergodim.cli import main

    mod = sys.modules["ergodim"]
    if Path(mod.__file__).resolve().parent != (src / "ergodim").resolve():
        raise ImportError(f"ergodim was imported from {mod.__file__}, not {src}")
    return main


def run_pass(cli_main, cfgs: list, out_dir: Path, tracer=None, sampler=None) -> tuple:
    """One pass over the workload's configs: (summed CLI seconds, [ReportRun]).

    Given a ``reference.Sampler``, the reference load is timed during every
    report; the seconds it takes are not part of the report's time.
    """
    reports = []
    for task, path in cfgs:
        report_file = out_dir / f"{task}.json"
        report_file.unlink(missing_ok=True)
        log = io.StringIO()
        paused = sampler.paused if sampler else 0.0
        t0 = time.perf_counter()
        with redirect_stdout(log), redirect_stderr(log):
            try:
                with tracer.span("bench.report") if tracer else nullcontext(), \
                        sampler.active() if sampler else nullcontext():
                    rc = cli_main([task, "--config", str(path), "--out", str(out_dir)])
            except Exception:  # noqa: BLE001 - a crashing report is counted as failed
                traceback.print_exc()
                rc = 1
        seconds = time.perf_counter() - t0 - ((sampler.paused - paused) if sampler else 0.0)
        doc = json.loads(report_file.read_text()) if rc != 1 and report_file.is_file() else None
        reports.append(ReportRun(
            task=task, seconds=seconds, rc=rc,
            sha256=payload_sha256(doc["payload"]) if doc else None,
            flags=doc["flags"] if doc else [], payload=doc["payload"] if doc else None,
            log=log.getvalue(),
        ))
    return sum(r.seconds for r in reports), reports


class Gate:
    """Counts failed reports: errors, closed-form misses, new flags, changed bytes."""

    def __init__(self, workload: str, seed: int, golden: dict | None, full_scale: bool = True):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.full_scale = full_scale
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def problems_of(self, r: ReportRun) -> list:
        if r.rc == 1 or r.payload is None:
            return [f"error (exit code {r.rc}): {r.log.strip()[-600:]}"]
        first = self.first.setdefault(r.task, r.sha256)
        problems = [] if r.sha256 == first else ["payload bytes differ from the first pass"]
        if not self.full_scale:
            return problems
        gold = (self.golden or {}).get(r.task)
        new_flags = [f for f in r.flags if gold is None or f not in gold["flags"]]
        if new_flags:
            problems.append(f"flags the golden run did not carry: {new_flags}")
        problems += workloads.check_payload(self.workload, r.task, r.payload)
        if self.seed == DEFAULT_SEED and self.golden is not None:
            if gold is None:
                problems.append("no golden hash recorded")
            elif r.sha256 != gold["sha256"]:
                problems.append(f"payload sha256 {r.sha256} != golden {gold['sha256']}")
        return problems

    def check(self, reports: list):
        for r in reports:
            self.attempted += 1
            problems = self.problems_of(r)
            if problems:
                self.failed += 1
                self.problems.append((r.task, problems))


def load_golden(workload: str) -> dict:
    return json.loads(GOLDEN.read_text())["workloads"].get(workload, {})


def record_golden(workload: str, reports: list):
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"seed": DEFAULT_SEED, "workloads": {}}
    doc["workloads"][workload] = {r.task: {"sha256": r.sha256, "flags": r.flags} for r in reports}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def threads2_speedup(chi_calls: list):
    """estimate_chi time at threads=1 over threads=2 on the recorded inputs.

    None once ``estimate_chi`` no longer takes ``threads``.
    """
    from ergodim.lyapunov import estimate_chi

    if "threads" not in inspect.signature(estimate_chi).parameters or not chi_calls:
        return None
    elapsed = {1: 0.0, 2: 0.0}
    for call in chi_calls:
        for threads in (1, 2):
            t0 = time.perf_counter()
            estimate_chi(**{**call, "threads": threads})
            elapsed[threads] += time.perf_counter() - t0
    return elapsed[1] / elapsed[2]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, tracer, traced_walls: list, untraced_walls: list,
                  import_s: float, speedup) -> tuple:
    """(per-layer metric values, top self-time span) from the traced passes."""
    table = spans.self_by_run(tracer.spans)
    runs = sorted(table)
    per_run = []
    for run_id in runs:
        st, c = table[run_id], tracer.counts_by_run[run_id]
        vals = {f"{name}.self_s": st.get(name, 0.0) for name in _SELF_SPANS}
        vals["measures.sample_point.self_s"] += st.get("measures.sample_points", 0.0)
        vals.update({name: float(c[name]) for name in _COUNTS})
        vals["geometry.accept_ratio"] = _ratio(c["geometry.probe_cells_accepted"], c["geometry.probe_cells"])
        vals["dimension.cloud.unique_ratio"] = _ratio(c["dimension.cloud.candidates"], c["dimension.cloud.budget"])
        vals["dimension.cloud.admit_ratio"] = _ratio(c["dimension.cloud.admitted"], c["dimension.cloud.candidates"])
        per_run.append(vals)
    metrics = {k: statistics.median(v[k] for v in per_run) for k in per_run[0]}
    program = {k: sum(table[r].get(k, 0.0) for r in runs) for k in {n for r in runs for n in table[r]}}
    top = max((k for k in program if not k.startswith("bench.")), key=program.get)
    metrics["harness.import_s"] = import_s
    metrics["lyapunov.threads2_speedup"] = speedup
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["trace.top_span_held"] = 1.0 if top == PREDICTED_TOP[workload] else 0.0
    return metrics, top


def measure(workload: str, seed: int, seconds: float, trace: bool, record: bool = False) -> dict:
    work = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    try:
        full = write_configs(work / "full", workloads.configs(workload, seed))
        tiny = write_configs(work / "tiny", workloads.configs(workload, seed, tiny=True))
        sampler, probes = reference.Sampler(), []
        for _ in range(SETUP_REPEATS):
            sampler.sample()  # the probes run in a child process, so time the load between them
            probes.append(setup_probe([p for _, p in full]))
        cli_main = import_cli()
        out = work / "reports"
        run_pass(cli_main, tiny, out)  # warm-up: lazy imports and first-call costs
        gate = Gate(workload, seed, None if record else load_golden(workload))
        tracer = spans.Tracer() if trace else None
        walls, traced_walls, verify, steps = [], [], [], []
        speedup = None
        t_start = time.perf_counter()
        while True:
            t_step = time.perf_counter()
            wall, reports = run_pass(cli_main, full, out, sampler=sampler)
            gate.check(reports)
            walls.append(wall)
            verify.append(next(r.seconds for r in reports if r.task == "verify"))
            if record:
                record_golden(workload, reports)
                break
            if tracer is not None:
                tracer.install()
                try:
                    with tracer.run(f"{workload}/seed{seed}/pass{len(traced_walls)}"):
                        wall, reports = run_pass(cli_main, full, out, tracer)
                finally:
                    tracer.uninstall()
                gate.check(reports)
                traced_walls.append(wall)
                if len(traced_walls) == 1:  # timed inside --seconds, like the passes
                    speedup = threads2_speedup(tracer.chi_calls)
            steps.append(time.perf_counter() - t_step)
            if time.perf_counter() - t_start + statistics.median(steps) > seconds:
                break
        result = {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "passes": walls,
            "traced_passes": traced_walls,
            "refs": sampler.samples,
            "raw": {"setup_s": statistics.median(p[0] for p in probes),
                    "wall_s": statistics.median(walls), "verify_s": statistics.median(verify),
                    "ref_s": statistics.fmean(sampler.samples)},
            "problems": gate.problems,
        }
        if tracer is None:
            speed = reference.NOMINAL_S / result["raw"]["ref_s"]
            result["metrics"] = {
                "setup_s": result["raw"]["setup_s"] * speed,
                "wall_norm_s": statistics.median(walls) * speed,
                "verify_norm_s": statistics.median(verify) * speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - gate.failed / gate.attempted,
            }
            return result
        import_s = statistics.median(p[1] for p in probes)
        result["metrics"], result["top_span"] = layer_metrics(
            workload, tracer, traced_walls, walls, import_s, speedup)
        trace_file = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "metrics": result["metrics"],
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": [[s.name, s.start, s.end, s.parent, s.run_id] for s in tracer.spans],
        }))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def machine() -> str:
    import numpy
    import scipy

    return (f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def summary(workload: str, seed: int, trace: bool, result: dict) -> list:
    lines = [f"workload {workload}, seed {seed}; {machine()}"]
    for kind in ("passes", "traced_passes", "refs"):
        if result[kind]:
            lines.append(f"  {kind.replace('_', ' ')} (s): {', '.join(f'{w:.3f}' for w in result[kind])}")
    for name, unit in PER_LAYER if trace else END_TO_END:
        value = result["metrics"][name]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name:48s} {shown:>12s} {unit}")
    for name, value in result["raw"].items():  # before normalization; not bounded
        lines.append(f"  raw {name:44s} {value:12.6g} s")
    lines.append(f"  {'failed_frac':48s} {result['failed'] / result['attempted']:12.6g} ratio"
                 f"  ({result['failed']} of {result['attempted']} reports)")
    if trace:
        held = "held" if result["top_span"] == PREDICTED_TOP[workload] else "did not hold"
        lines.append(f"  top self-time span {result['top_span']}; predicted "
                     f"{PREDICTED_TOP[workload]}: {held}")
    for task, problems in result["problems"]:
        lines.append(f"  FAILED {task}: {'; '.join(problems)}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process; one table row per workload."""
    worst = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        worst = max(worst, proc.returncode)
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write the seed's payload hashes and flags to golden.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.record_golden and (args.seed != DEFAULT_SEED or args.workload == "all"):
        ap.error(f"--record-golden needs one workload at seed {DEFAULT_SEED}")
    if not (ROOT / "src" / "ergodim" / "__init__.py").is_file():
        print(f"error: no ergodim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread, as the load shape says
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.record_golden)
    print("\n".join(summary(args.workload, args.seed, bool(args.trace), result)))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in (PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # a terminated run still waits for its children and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
