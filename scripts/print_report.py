#!/usr/bin/env python3
"""Pretty-print a saved experiment report JSON.

Usage:
    python3 scripts/print_report.py reports/verify.json [--payload-only]

Shows the task's one-line headline, the config echo, fixed parameters, flags,
and the payload with long arrays elided, so a report can be inspected without
scrolling raw JSON.
"""
import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ergodim.harness import TASKS  # noqa: E402


def elide(obj, max_items=6):
    if isinstance(obj, list):
        if len(obj) > max_items and all(not isinstance(v, (dict, list)) for v in obj):
            return obj[:3] + [f"... {len(obj) - 3} more"]
        return [elide(v, max_items) for v in obj]
    if isinstance(obj, dict):
        return {k: elide(v, max_items) for k, v in obj.items()}
    return obj


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", type=Path)
    ap.add_argument("--payload-only", action="store_true")
    args = ap.parse_args()

    doc = json.loads(args.report.read_text())
    if args.payload_only:
        print(json.dumps(elide(doc["payload"]), indent=2))
        return 0

    print(f"task: {doc['task']}   schema: {doc['schema_version']}")
    print(f"wall clock: {doc['meta']['wall_clock_s']:.2f}s   "
          f"toolkit: {doc['meta']['toolkit_version']}")
    print(f"headline: {TASKS[doc['task']].headline(doc['payload'])}")
    print("\nconfig:")
    print(json.dumps(doc["config"], indent=2))
    print("\nparameters:")
    print(json.dumps(elide(doc["parameters"]), indent=2))
    flags = doc.get("flags", [])
    print(f"\nflags: {flags if flags else 'none'}")
    print("\npayload:")
    print(json.dumps(elide(doc["payload"]), indent=2))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # the reader left early (`| head`): point stdout at devnull so the
        # interpreter's flush at exit does not raise again; exit 1 as on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
