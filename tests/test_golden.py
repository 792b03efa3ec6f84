"""Pinned payload bytes: every small config must reproduce its recorded sha256.

``golden_payloads.json`` holds the sha256 of ``Report.payload_bytes()`` for each
config in ``TINY_CONFIGS`` plus small shift-cloud ``dimension``/``verify`` runs
on the dyadic shift with a Markov oracle.  A change that moves one of these
hashes changes a report's numbers; re-recording is a deliberate act that
CHANGES.md must explain (which tasks, and the numerical reason).

Re-record with ``PYTHONPATH=src python -m tests.test_golden``.
"""
import hashlib
import json
from pathlib import Path

import pytest

from ergodim.harness import ExperimentConfig, run_experiment
from tests.test_harness import TINY_CONFIGS

GOLDEN = Path(__file__).with_name("golden_payloads.json")

_MARKOV_SHIFT = {
    "system": {"kind": "full_shift", "alphabet": 2, "metric": "dyadic"},
    "oracle": {"kind": "markov", "transitions": [[0.7, 0.3], [0.4, 0.6]]},
}
# Monte Carlo Bowen-ball masses, the route the exact-cylinder default never runs
_MONTE_CARLO = {"task": "brin-katok", "seed": 0, "mode": "monte_carlo", "samples": 5000,
                "min_hits": 5, "eps_schedule": [0.5, 0.25], "n_schedule": [1, 2, 3, 4]}

CONFIGS = {
    **TINY_CONFIGS,
    "dimension-markov-shift": {"task": "dimension", "seed": 0, "cloud_budget": 4000,
                               **_MARKOV_SHIFT},
    "verify-markov-shift": {"task": "verify", "seed": 0, "base_points": 4, "chi_points": 32,
                            "chi_probes": 48, "cloud_budget": 4000, **_MARKOV_SHIFT},
    # the backward direction runs on the inverted shift, whose clouds vary the past
    "verify-markov-shift-backward": {"task": "verify", "seed": 0, "direction": "backward",
                                     "base_points": 4, "chi_points": 32, "chi_probes": 48,
                                     "cloud_budget": 4000, **_MARKOV_SHIFT},
    # coord_entropy's Markov chain rule, which the Bernoulli default skips
    "partition-build-markov": {**TINY_CONFIGS["partition-build"], **_MARKOV_SHIFT},
    "brin-katok-monte-carlo-cat": {**_MONTE_CARLO,
                                   "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]]}},
    "brin-katok-monte-carlo-shift": {**_MONTE_CARLO, "system": _MARKOV_SHIFT["system"]},
}


def payload_sha256(raw: dict) -> str:
    rep = run_experiment(ExperimentConfig.from_dict(dict(raw)))
    return hashlib.sha256(rep.payload_bytes()).hexdigest()


def test_golden_file_covers_every_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_payload_bytes_match_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert payload_sha256(CONFIGS[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: payload_sha256(v) for k, v in sorted(CONFIGS.items())},
                                 indent=2, sort_keys=True) + "\n")
