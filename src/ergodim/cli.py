"""Command-line entry point: one subcommand per experiment task.

Exit codes: 0 = clean run, 2 = run completed with flagged diagnostics,
1 = failure (invalid config, task error, I/O).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

from .errors import ErgodimError
from .harness import TASKS, ExperimentConfig, emit_report, run_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 1 for all failures
        self.print_usage(_sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ergodim",
        description="Numerical toolkit for local entropy, Lyapunov exponents, "
        "and dimension proxies of local unstable sets.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} experiment")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("reports"), help="output directory")
        p.add_argument(
            "--format", default="json,csv", help="comma-separated output formats (json, csv)"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            raw = json.loads(Path(args.config).read_text())
        if isinstance(raw, dict):  # anything else is refused by from_dict below
            raw.setdefault("task", args.task)
            if raw["task"] != args.task:
                print(
                    f"error: config task {raw['task']!r} does not match subcommand {args.task!r}",
                    file=_sys.stderr,
                )
                return 1
            if args.seed is not None:
                raw["seed"] = args.seed
        formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
        bad = [f for f in formats if f not in ("json", "csv")]
        if bad:
            print(f"error: unknown format(s): {', '.join(bad)}", file=_sys.stderr)
            return 1
        cfg = ExperimentConfig.from_dict(raw)
        report = run_experiment(cfg)
        paths = emit_report(report, args.out, formats)
        wrote = ", ".join(str(p) for p in paths)
        status = f"{len(report.flags)} flag(s)" if report.flags else "clean"
        print(f"{args.task}: {status}; wrote {wrote}")
        for flag in report.flags:
            print(f"  flag: {flag}")
        return 2 if report.flags else 0
    except (ErgodimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
