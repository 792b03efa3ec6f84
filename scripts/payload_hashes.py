#!/usr/bin/env python3
"""Print the payload sha256 of every benchmark workload report.

Usage:
    python3 scripts/payload_hashes.py [--seeds 0-9] [--tiny]

Runs each config of ``bench/workloads.py`` (11 reports per seed) in process,
once per seed, and prints one line per report:
``<workload> <task> seed=<s> <sha256 of Report.payload_bytes()>``.
Two trees give the same numbers exactly when this output is the same.
``bench/workloads.py`` is read as text and executed, so nothing is written
under ``bench/``.
"""
import argparse
import hashlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ergodim.harness import ExperimentConfig, run_experiment  # noqa: E402


def load_workloads() -> types.ModuleType:
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def hashes(seeds, tiny=False):
    """Yield (workload, task, seed, sha256) for every workload report."""
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for cfg in workloads.configs(name, seed, tiny=tiny):
                rep = run_experiment(ExperimentConfig.from_dict(cfg))
                yield name, cfg["task"], seed, hashlib.sha256(rep.payload_bytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=[0], help="one seed or a range lo-hi")
    ap.add_argument("--tiny", action="store_true", help="the benchmark's warm-up scale")
    args = ap.parse_args(argv)
    for name, task, seed, digest in hashes(args.seeds, args.tiny):
        print(f"{name} {task} seed={seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
