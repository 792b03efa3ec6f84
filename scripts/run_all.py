#!/usr/bin/env python3
"""Run every experiment config and print a one-line summary per task.

Usage:
    python3 scripts/run_all.py [--configs DIR] [--out DIR] [--only TASK ...]

Each config is dispatched through the command-line entry point, so reports,
flags, and exit-code semantics are identical to running ``ergodim <task>``
by hand.  The process exit code is the worst per-task code (0 clean,
2 flagged, 1 failed).
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ergodim.cli import main as cli_main  # noqa: E402
from ergodim.harness import TASKS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", type=Path, default=Path("configs"))
    ap.add_argument("--out", type=Path, default=Path("reports"))
    ap.add_argument("--only", nargs="*", choices=TASKS, default=None)
    args = ap.parse_args(argv)

    tasks = args.only if args.only else list(TASKS)
    worst = 0
    for task in tasks:
        cfg = args.configs / f"{task}.json"
        if not cfg.exists():
            print(f"{task}: no config at {cfg}, skipped")
            continue
        rc = cli_main([task, "--config", str(cfg), "--out", str(args.out)])
        if rc == 1:
            worst = 1
        elif rc == 2 and worst == 0:
            worst = 2
        if rc != 1:
            doc = json.loads((args.out / f"{task}.json").read_text())
            print(f"    {TASKS[task].headline(doc['payload'])}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
