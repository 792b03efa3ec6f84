"""Config validation, task dispatch, report schemas, and byte reproducibility."""
import csv
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergodim.errors import ConfigInvalid, TaskFailed
from ergodim.harness import (
    TASKS,
    ExperimentConfig,
    Report,
    build_oracle,
    build_system,
    emit_report,
    run_experiment,
)
from ergodim.measures import BernoulliIID, MarkovStationary
from ergodim.systems import FullShift, ToralAutomorphism, WeightedL2Metric
from tests.conftest import LOG2

TINY_CONFIGS = {
    "chi": {"task": "chi", "seed": 0, "r_schedule": [0.2, 0.1], "n_schedule": [2, 4, 6],
            "points": 32, "probes": 32},
    "entropy": {"task": "entropy", "seed": 0, "n": 8},
    "brin-katok": {"task": "brin-katok", "seed": 0, "eps_schedule": [0.25, 0.0625],
                   "n_schedule": [4, 8, 12, 16], "mode": "exact_cylinder"},
    "partition-build": {"task": "partition-build", "seed": 0, "horizon": 30, "pairs": 40},
    "smb-check": {"task": "smb-check", "seed": 0, "n_schedule": [50, 100, 150, 200],
                  "paths": 50, "shift_k": 3},
    "dimension": {"task": "dimension", "seed": 0, "cloud_budget": 4000},
    "verify": {"task": "verify", "seed": 0, "base_points": 4, "chi_points": 32,
               "chi_probes": 48, "cloud_budget": 4000},
    "appendix-hilbert": {"task": "appendix-hilbert", "seed": 0, "norm_ks": [25, 50, 75],
                         "n_schedule": [2, 4, 8], "points": 16, "probes": 24},
    "hamming-bounds": {"task": "hamming-bounds", "seed": 0, "n_values": [12, 16, 20]},
}


ROOT = Path(__file__).resolve().parents[1]
COMMON_KEYS = {"task", "seed", "system", "oracle"}


def run(raw):
    return run_experiment(ExperimentConfig.from_dict(dict(raw)))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_minimal_config_gets_defaults():
    cfg = ExperimentConfig.from_dict({"task": "chi", "seed": 0})
    assert cfg.system["kind"] == "toral_automorphism"
    assert cfg.oracle["kind"] == "lebesgue"
    shift_cfg = ExperimentConfig.from_dict({"task": "entropy", "seed": 0})
    assert shift_cfg.system["kind"] == "full_shift"
    assert shift_cfg.oracle["kind"] == "bernoulli"


def test_unknown_task_rejected():
    with pytest.raises(ConfigInvalid, match="field 'task'"):
        ExperimentConfig.from_dict({"task": "zeta", "seed": 0})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict(["not", "a", "dict"])


def test_unknown_key_names_the_allowed_set():
    with pytest.raises(ConfigInvalid, match=r"unknown key\(s\) for task 'chi': bogus; allowed:"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "bogus": 1})


def test_seed_is_required_and_checked():
    with pytest.raises(ConfigInvalid, match="seed"):
        ExperimentConfig.from_dict({"task": "chi"})
    with pytest.raises(ConfigInvalid, match="seed"):
        ExperimentConfig.from_dict({"task": "chi", "seed": -1})
    # the thread count is estimate_chi's: no task takes it as a config key
    with pytest.raises(ConfigInvalid, match=r"unknown key\(s\) for task 'chi': threads"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "threads": 2})
    # the window is the system's: a top-level window is an unknown key
    with pytest.raises(ConfigInvalid, match=r"unknown key\(s\) for task 'entropy': window"):
        ExperimentConfig.from_dict({"task": "entropy", "seed": 0, "window": 4})


def test_descriptor_validation():
    with pytest.raises(ConfigInvalid, match="system.kind"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "system": {"kind": "horocycle"}})
    with pytest.raises(ConfigInvalid, match="unknown key\\(s\\) in 'system'"):
        ExperimentConfig.from_dict(
            {"task": "chi", "seed": 0, "system": {"kind": "toral_automorphism", "oops": 1}}
        )
    with pytest.raises(ConfigInvalid, match="oracle"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "oracle": {"kind": "gibbs"}})
    with pytest.raises(ConfigInvalid, match="'system'"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "system": "cat"})


def test_schedule_direction_validation():
    with pytest.raises(ConfigInvalid, match="strictly decreasing"):
        ExperimentConfig.from_dict(
            {"task": "chi", "seed": 0, "r_schedule": [0.1, 0.2], "n_schedule": [2, 4]}
        )
    with pytest.raises(ConfigInvalid, match="strictly increasing"):
        ExperimentConfig.from_dict(
            {"task": "chi", "seed": 0, "r_schedule": [0.2, 0.1], "n_schedule": [4, 4]}
        )
    with pytest.raises(ConfigInvalid, match="strictly increasing"):
        ExperimentConfig.from_dict({"task": "hamming-bounds", "seed": 0, "n_values": [20, 12]})
    with pytest.raises(ConfigInvalid, match="points"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "points": 0})


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"task": "hamming-bounds", "seed": True}, "seed"),
        ({"task": "hamming-bounds", "seed": False}, "seed"),
        ({"task": "partition-build", "seed": 0, "depth": True}, "depth"),
        ({"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "window": True}}, "system"),
        ({"task": "chi", "seed": 0, "points": True}, "points"),
        ({"task": "chi", "seed": 0, "probes": True}, "probes"),
        ({"task": "entropy", "seed": 0, "n": True}, "n"),
        ({"task": "smb-check", "seed": 0, "paths": True}, "paths"),
        ({"task": "partition-build", "seed": 0, "pairs": True}, "pairs"),
        ({"task": "verify", "seed": 0, "cloud_budget": True}, "cloud_budget"),
        ({"task": "verify", "seed": 0, "base_points": True}, "base_points"),
    ],
)
def test_bools_are_not_integers(raw, field):
    with pytest.raises(ConfigInvalid, match=f"field '{field}'"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "task, field, value",
    [
        ("chi", "n_schedule", []),
        ("chi", "n_schedule", "2,4,6"),
        ("chi", "n_schedule", None),
        ("chi", "r_schedule", 0.2),
        ("chi", "r_schedule", [0.2, "0.1"]),
        ("brin-katok", "eps_schedule", []),
        ("dimension", "scales", {"0.1": 1}),
        ("hamming-bounds", "n_values", [12, True]),
        ("appendix-hilbert", "norm_ks", []),
    ],
)
def test_malformed_schedules_rejected(task, field, value):
    with pytest.raises(ConfigInvalid, match=f"field '{field}': expected a non-empty list of numbers"):
        ExperimentConfig.from_dict({"task": task, "seed": 0, field: value})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"task": "entropy", "seed": 0, "n": 2.5}, "field 'n': expected a positive integer"),
        ({"task": "entropy", "seed": 0, "n": 0}, "field 'n': expected a positive integer"),
        (
            {"task": "entropy", "seed": 0,
             "oracle": {"kind": "markov", "transitions": [[0.9, 0.3], [0.4, 0.6]]}},
            "field 'oracle': transition rows must be distributions",
        ),
        (
            {"task": "entropy", "seed": 0, "oracle": {"kind": "bernoulli", "probs": [0.3, 0.3]}},
            "field 'oracle': probs must be a distribution",
        ),
        (
            {"task": "brin-katok", "seed": 0, "eps_schedule": [1.5, 0.45]},
            "field 'eps_schedule': every eps must lie in \\(0, 1\\]",
        ),
        (
            {"task": "brin-katok", "seed": 0, "eps_schedule": [0.5, 0.0]},
            "field 'eps_schedule': every eps must lie in \\(0, 1\\]",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "toral_automorphism", "matrix": "ab"}},
            "field 'system': invalid literal for int\\(\\)",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "toral_automorphism", "matrix": 5}},
            "field 'system': 'int' object is not iterable",
        ),
        (
            {"task": "chi", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 2]]}},
            "field 'system': \\|det\\| must be 1, got det = 3",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "torus_translation", "shift": [0.1]}},
            "field 'system': not enough values to unpack",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": 1}},
            "field 'system': alphabet_size must be >= 2",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": None}},
            "field 'system': int\\(\\) argument must be",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "window": 0}},
            "field 'system': window must be >= 1",
        ),
        (
            {"task": "chi", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[2.7, 1], [1, 1.9]]}},
            "field 'system': matrix entries must be integers, got 2.7",
        ),
        (
            {"task": "chi", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, True]]}},
            "field 'system': matrix entries must be integers, got True",
        ),
        (
            {"task": "chi", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[2, 1e400], [1, 1]]}},
            "field 'system': matrix entries must be integers, got inf",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": 2.7}},
            "field 'system': alphabet must be an integer, got 2.7",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": True}},
            "field 'system': alphabet must be an integer, got True",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "window": 16.9}},
            "field 'system': window must be an integer, got 16.9",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "inverted": "no"}},
            "field 'system': inverted must be true or false, got 'no'",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "inverted": 0}},
            "field 'system': inverted must be true or false, got 0",
        ),
        (
            {"task": "partition-build", "seed": 0, "delta": -1},
            "field 'delta': expected a number in \\(0, inf\\), got -1",
        ),
        (
            {"task": "verify", "seed": 0, "delta": 0.0},
            "field 'delta': expected a number in \\(0, inf\\), got 0.0",
        ),
        (
            {"task": "dimension", "seed": 0, "scales": [0.1, 0.0]},
            "field 'scales': every radius must lie in \\(0, inf\\)",
        ),
        (
            {"task": "chi", "seed": 0, "r_schedule": [float("inf"), 0.1]},
            "field 'r_schedule': every radius must lie in \\(0, inf\\)",
        ),
        (
            {"task": "chi", "seed": 0, "n_schedule": [2, 4.5]},
            "field 'n_schedule': every n must be an integer in \\[1, inf\\)",
        ),
        (
            {"task": "entropy", "seed": 0, "alpha_window": [3, 1]},
            "field 'alpha_window': expected a pair \\[lo, hi\\] of integers with lo <= hi",
        ),
        (
            {"task": "partition-build", "seed": 0, "margin": 1.0},
            "field 'margin': expected a number in \\[0, 1\\)",
        ),
        (
            {"task": "hamming-bounds", "seed": 0, "eps": 0.25},
            "field 'eps': expected a number in \\(0, 0.25\\)",
        ),
        (
            {"task": "hamming-bounds", "seed": 0, "alphabet": 1},
            "field 'alphabet': expected an integer >= 2, got 1",
        ),
        (
            {"task": "smb-check", "seed": 0, "shift_k": 0},
            "field 'shift_k': expected a positive integer, got 0",
        ),
        (
            {"task": "verify", "seed": 0, "chi_floor": float("nan")},
            "field 'chi_floor': expected a number in \\[0, inf\\), got nan",
        ),
        # a cloud below 100 points cannot give a slope: 1 point read as slope 0
        (
            {"task": "dimension", "seed": 0, "cloud_budget": 1},
            "field 'cloud_budget': expected an integer >= 100, got 1",
        ),
        (
            {"task": "dimension", "seed": 0, "cloud_budget": 99},
            "field 'cloud_budget': expected an integer >= 100, got 99",
        ),
        (
            {"task": "verify", "seed": 0, "cloud_budget": 1},
            "field 'cloud_budget': expected an integer >= 100, got 1",
        ),
        (
            {"task": "entropy", "seed": 0, "system": {"kind": "full_shift", "alphabet": 128}},
            "field 'system': alphabet_size must be >= 2 and <= 127",
        ),
        (
            {"task": "chi", "seed": 0, "system": {"kind": "full_shift", "alphabet": 200}},
            "field 'system': alphabet_size must be >= 2 and <= 127",
        ),
        (
            {"task": "partition-build", "seed": 0, "system": {"kind": "full_shift", "metric": "weighted"}},
            r"field 'delta': diam\(beta_1\) = 1.07\d* exceeds delta = 0.5",
        ),
        (
            {"task": "brin-katok", "seed": 0, "system": {"kind": "toral_automorphism"}},
            "field 'mode': 'exact_cylinder' needs a full_shift system",
        ),
        # elliptic and parabolic matrices have no unstable line to sample
        (
            {"task": "verify", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[0, 1], [-1, 0]]}},
            r"field 'system.matrix': \[\[0, 1\], \[-1, 0\]\] is not hyperbolic \(trace 0, det 1\)",
        ),
        (
            {"task": "dimension", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[0, 1], [-1, 0]]}},
            r"field 'system.matrix': \[\[0, 1\], \[-1, 0\]\] is not hyperbolic",
        ),
        (
            {"task": "verify", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[1, 1], [0, 1]]}},
            r"field 'system.matrix': \[\[1, 1\], \[0, 1\]\] is not hyperbolic \(trace 2, det 1\)",
        ),
        (
            {"task": "dimension", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[1, 1], [0, 1]]}},
            r"field 'system.matrix': \[\[1, 1\], \[0, 1\]\] is not hyperbolic",
        ),
        (
            {"task": "verify", "seed": 0,
             "system": {"kind": "toral_automorphism", "matrix": [[0, 1], [1, 0]]}},
            r"field 'system.matrix': \[\[0, 1\], \[1, 0\]\] is not hyperbolic \(trace 0, det -1\)",
        ),
        # weighted cover radii grow about fourfold per octave: past the depth limit, refused
        (
            {"task": "appendix-hilbert", "seed": 0, "octaves": 12},
            r"field 'delta' or 'octaves': the cover of delta = 0.5 over 12 octaves reads cylinders "
            r"deeper than the cover depth limit 524288",
        ),
        (
            {"task": "appendix-hilbert", "seed": 0, "delta": 0.001},
            r"field 'delta' or 'octaves': the cover of delta = 0.001 over 4 octaves reads cylinders deeper",
        ),
        (
            {"task": "verify", "seed": 0, "delta": 0.01, "system": {"kind": "full_shift", "metric": "weighted"}},
            r"field 'delta': the cover of delta = 0.01 over 4 octaves reads cylinders deeper than",
        ),
    ],
)
def test_values_the_runners_reject_are_config_errors(raw, message):
    with pytest.raises(ConfigInvalid, match=message):
        run_experiment(ExperimentConfig.from_dict(raw))


@pytest.mark.parametrize("raw", [
    {"task": "appendix-hilbert", "seed": 0, "octaves": 9},
    {"task": "verify", "seed": 0, "delta": 0.01, "system": {"kind": "full_shift", "metric": "weighted"}},
])
def test_weighted_cover_depths_are_refused_before_chi(monkeypatch, raw):
    import ergodim.harness as harness

    def no_chi(*args, **kwargs):
        raise AssertionError("chi ran before the cover depth was checked")

    monkeypatch.setattr(harness, "estimate_chi", no_chi)
    monkeypatch.setattr(harness, "verify_main_inequality", no_chi)
    with pytest.raises(ConfigInvalid, match="deeper than the cover depth limit"):
        run(raw)


@pytest.mark.parametrize("matrix, horizon", [([[2, 1], [1, 1]], 40), ([[-2, 1], [1, -1]], 40),
                                             ([[1, 1], [1, 0]], 80), ([[3, 1], [2, 1]], 29),
                                             ([[0, 1], [1, 3]], 32), ([[5, 2], [2, 1]], 21)])
def test_a_null_back_horizon_resolves_from_lambda(matrix, horizon):
    # floor(40 log phi^2 / log lambda): the cat map's 40 steps of growth, whatever lambda is
    system = {"kind": "toral_automorphism", "matrix": matrix}
    dim = run({**TINY_CONFIGS["dimension"], "system": system})
    ver = run({**TINY_CONFIGS["verify"], "system": system, "chi_points": 16, "chi_probes": 16,
               "base_points": 1, "direction": "backward"})
    for rep in (dim, ver):
        assert rep.config["back_horizon"] is None  # the echo shows the null default
        assert rep.parameters["back_horizon"] == horizon  # the report, what ran
    explicit = run({**TINY_CONFIGS["dimension"], "system": system, "back_horizon": horizon})
    assert explicit.payload_bytes() == dim.payload_bytes()


def test_non_hyperbolic_matrices_are_refused_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the matrix was checked")

    monkeypatch.setattr("ergodim.harness.sample_point", no_sampling)
    monkeypatch.setattr("ergodim.harness.verify_main_inequality", no_sampling)
    for task in ("dimension", "verify"):
        raw = {"task": task, "seed": 0, "system": {"kind": "toral_automorphism", "matrix": [[1, 1], [0, 1]]}}
        with pytest.raises(ConfigInvalid, match="not hyperbolic"):
            run(raw)


def test_hyperbolic_reflection_still_runs():
    # det -1, trace 1: the golden-mean map is hyperbolic
    rep = run({**TINY_CONFIGS["dimension"], "system": {"kind": "toral_automorphism",
                                                       "matrix": [[1, 1], [1, 0]]}})
    assert rep.payload["admitted"] > 1


@pytest.mark.parametrize(
    "system, oracle, message",
    [
        ({"kind": "full_shift"}, {"kind": "lebesgue"},
         "a LebesgueTorus oracle cannot serve a FullShift system"),
        ({"kind": "full_shift", "metric": "weighted"}, {"kind": "lebesgue"},
         "a LebesgueTorus oracle cannot serve a FullShift system"),
        ({"kind": "toral_automorphism"}, {"kind": "bernoulli"},
         "a BernoulliIID oracle cannot serve a ToralAutomorphism system"),
        ({"kind": "torus_translation"}, {"kind": "markov"},
         "a MarkovStationary oracle cannot serve a TorusTranslation system"),
        ({"kind": "full_shift", "alphabet": 3}, {"kind": "bernoulli", "probs": [0.5, 0.5]},
         "it has 2 symbols, but the system's alphabet has 3"),
        ({"kind": "full_shift", "alphabet": 3}, {"kind": "markov"},
         "it has 2 symbols, but the system's alphabet has 3"),
        ({"kind": "full_shift"}, {"kind": "bernoulli", "probs": [0.2, 0.3, 0.5]},
         "it has 3 symbols, but the system's alphabet has 2"),
    ],
)
def test_an_oracle_that_cannot_serve_its_system_is_a_config_error(system, oracle, message):
    # chi runs on every system family, so only the oracle can be refused here
    with pytest.raises(ConfigInvalid, match=f"field 'oracle': {message}"):
        ExperimentConfig.from_dict({"task": "chi", "seed": 0, "system": system, "oracle": oracle})


def test_default_shift_oracle_is_uniform_over_the_alphabet():
    cfg = ExperimentConfig.from_dict({"task": "chi", "seed": 0, "system": {"kind": "full_shift"}})
    assert cfg.oracle == {"kind": "bernoulli", "probs": [0.5, 0.5]}
    raw = {**TINY_CONFIGS["chi"], "system": {"kind": "full_shift", "alphabet": 3},
           "r_schedule": [0.25, 0.125]}
    rep = run(raw)
    assert rep.config["oracle"] == {"kind": "bernoulli", "probs": [1 / 3] * 3}
    assert rep.payload["chi"] == pytest.approx(LOG2, abs=0.05)
    entropy = run({"task": "entropy", "seed": 0, "n": 4, "system": {"kind": "full_shift", "alphabet": 3}})
    assert entropy.payload["value"] == pytest.approx(math.log(3), abs=1e-12)
    # a Bernoulli oracle that leaves out its probs is the same uniform oracle
    given = run({**entropy.config, "oracle": {"kind": "bernoulli"}})
    assert given.config == entropy.config
    assert given.payload_bytes() == entropy.payload_bytes()


def test_mode_and_direction_validation():
    with pytest.raises(ConfigInvalid, match="mode"):
        ExperimentConfig.from_dict({"task": "brin-katok", "seed": 0, "mode": "exact"})
    for mode in ("plugin", "auto", "monte_carlo"):  # entropy is exact at every n
        with pytest.raises(ConfigInvalid, match="field 'mode': expected one of \\['exact'\\]"):
            ExperimentConfig.from_dict({"task": "entropy", "seed": 0, "mode": mode})
    with pytest.raises(ConfigInvalid, match=r"unknown key\(s\) for task 'entropy': samples"):
        ExperimentConfig.from_dict({"task": "entropy", "seed": 0, "samples": 1000})
    assert set(TASKS["entropy"].options) == {"n", "mode", "alpha_window"}
    with pytest.raises(ConfigInvalid, match="direction"):
        ExperimentConfig.from_dict({"task": "verify", "seed": 0, "direction": "sideways"})


# every option of every task, from the registry
OPTIONS = [(task, name) for task, spec in TASKS.items() for name in spec.options]


@pytest.mark.parametrize("task, name", OPTIONS)
def test_every_option_is_type_checked(task, name):
    for value in ("x", True, {}):
        with pytest.raises(ConfigInvalid, match=f"field '{name}'"):
            ExperimentConfig.from_dict({"task": task, "seed": 0, name: value})


def test_option_types_admit_their_edges():
    cfg = ExperimentConfig.from_dict({"task": "entropy", "seed": 0, "alpha_window": [-2, 3]})
    assert cfg.options["alpha_window"] == [-2, 3]
    cfg = ExperimentConfig.from_dict({"task": "verify", "seed": 0, "chi_floor": 0, "delta": None})
    assert cfg.options["chi_floor"] == 0 and cfg.options["delta"] is None
    cfg = ExperimentConfig.from_dict({"task": "partition-build", "seed": 0, "margin": 0, "k_max": 0})
    assert cfg.options["margin"] == 0 and cfg.options["k_max"] == 0


def _like(default):
    """Values shaped like a registry default: the default, numbers near it, sorted and
    unsorted lists, and JSON of any other shape."""
    numbers = st.integers(-3, 300) | st.floats(-2.0, 2.0) | st.sampled_from([math.inf, math.nan])
    lists = st.lists(numbers, max_size=6)
    words = st.sampled_from(["auto", "exact", "monte_carlo", "exact_cylinder", "forward", "sideways"])
    other = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
        max_leaves=6,
    )
    return (st.just(default) | numbers | lists | lists.map(sorted)
            | lists.map(lambda v: sorted(v, reverse=True)) | words | other)


@given(st.data())
def test_from_dict_fuzz(data):
    """Every input ends as ConfigInvalid or as a config whose options all pass their types."""
    task = data.draw(st.sampled_from(sorted(TASKS)))
    spec = TASKS[task]
    defaults = {"seed": 0, **{k: d for k, (d, _) in spec.options.items()}}
    raw = {"task": task, "seed": data.draw(st.integers(0, 2**63))}
    for name in data.draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1, max_size=3)):
        raw[name] = data.draw(_like(defaults[name]), label=name)
    if data.draw(st.sampled_from([False, False, False, True])):
        raw[data.draw(st.text(min_size=1, max_size=6), label="key")] = 0
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigInvalid as exc:
        field = re.match(r"field '(\w+)'", str(exc))
        if field and field.group(1) in spec.options:
            _, check = spec.options[field.group(1)]
            assert check(raw[field.group(1)]) is not None
        return
    assert set(cfg.options) == set(spec.options)
    for name, (_, check) in spec.options.items():
        assert check(cfg.options[name]) is None, name


def test_build_system_and_oracle():
    sys = build_system({"kind": "full_shift", "metric": "weighted", "window": 64})
    assert isinstance(sys, FullShift) and isinstance(sys.metric, WeightedL2Metric)
    assert sys.window == 64
    assert build_system({"kind": "full_shift"}).window == 256
    assert build_system({"kind": "full_shift", "window": 64}, min_window=300).window == 300
    assert isinstance(build_system({"kind": "toral_automorphism"}), ToralAutomorphism)
    with pytest.raises(ConfigInvalid, match="metric"):
        build_system({"kind": "full_shift", "metric": "hamming"})
    oracle = build_oracle({"kind": "bernoulli", "probs": [0.3, 0.7]})
    assert isinstance(oracle, BernoulliIID) and oracle.p[1] == 0.7
    mk = build_oracle({"kind": "markov", "transitions": [[0.7, 0.3], [0.4, 0.6]]})
    assert isinstance(mk, MarkovStationary)


# ---------------------------------------------------------------------------
# task dispatch and payload schemas
# ---------------------------------------------------------------------------


def test_chi_report_schema():
    rep = run(TINY_CONFIGS["chi"])
    assert rep.schema_version == "1"
    assert set(rep.payload) >= {"chi", "per_r", "series", "diagnostics", "sample_count"}
    assert rep.payload["chi"] > 0.9  # cat map exponent
    assert rep.config["seed"] == 0
    assert "wall_clock_s" in rep.meta and "toolkit_version" in rep.meta


def test_chi_flags_the_integrability_guard(monkeypatch):
    import ergodim.harness as harness

    real = harness.estimate_chi

    def guarded(*args, **kwargs):
        est = real(*args, **kwargs)
        est.diagnostics["integrability_guard_growth"] = True
        return est

    assert run(TINY_CONFIGS["chi"]).flags == []
    monkeypatch.setattr(harness, "estimate_chi", guarded)
    rep = run(TINY_CONFIGS["chi"])
    assert rep.payload["diagnostics"]["integrability_guard_growth"] is True
    assert rep.flags == ["log L_1 tail growth exceeded the integrability guard"]


def test_entropy_task_exact_value():
    rep = run(TINY_CONFIGS["entropy"])
    assert rep.payload["mode"] == "exact"
    assert rep.payload["value"] == pytest.approx(LOG2, abs=1e-12)
    assert rep.payload["closed_form_rate"] == pytest.approx(LOG2, abs=1e-15)


def test_entropy_cost_grows_with_neither_n_nor_the_window():
    # the chain rule reads the window's ends: no coordinate set, no samples
    rep = run({"task": "entropy", "seed": 0, "n": 10**9, "alpha_window": [0, 10**9]})
    assert rep.payload["value"] == pytest.approx(2 * LOG2, rel=1e-12)
    assert rep.payload["mode"] == "exact" and rep.flags == []


def test_brin_katok_task_extrapolates():
    rep = run(TINY_CONFIGS["brin-katok"])
    assert rep.payload["extrapolated"] == pytest.approx(LOG2, abs=1e-9)
    assert rep.payload["lower"] <= rep.payload["upper"]
    assert rep.flags == []


def test_partition_task_plan():
    rep = run(TINY_CONFIGS["partition-build"])
    assert rep.payload["plan"]["ks"] == [0, 1, 2]
    assert rep.payload["sup_c"] == pytest.approx(LOG2, abs=1e-12)
    assert rep.payload["atom_check"]["violations"] == 0
    assert rep.parameters["Q"] == 3 and rep.parameters["P"] == 8
    assert rep.flags == []


def test_weighted_partition_task_above_the_first_diameter():
    # diam(beta_1) = 1.07 on the weighted metric: delta 1.2 admits the chain,
    # and the atom check tracks weighted back-iterate distances
    rep = run({"task": "partition-build", "seed": 0,
               "system": {"kind": "full_shift", "metric": "weighted"}, "delta": 1.2})
    atom = rep.payload["atom_check"]
    assert rep.payload["beta1_diameter"] == pytest.approx(1.0717, abs=1e-4)
    assert atom["violations"] == 0 and atom["level_violations"] == 0
    assert 0.0 < atom["worst_distance"] <= 1.2
    assert all(observed <= bound for _, bound, observed in atom["per_level"])
    assert rep.flags == ["diam(T beta_1) exceeds delta (flagged, not fatal)"]


def test_smb_task_with_shift_lemma():
    rep = run(TINY_CONFIGS["smb-check"])
    assert rep.payload["rel_error"] < 1e-12  # fair coin is exact
    assert rep.payload["shift_lemma"]["k"] == 3
    assert rep.payload["shift_lemma"]["rel_gap"] < 0.05


def test_dimension_task_slope():
    rep = run(TINY_CONFIGS["dimension"])
    assert 0.9 <= rep.payload["slope"] <= 1.1
    assert rep.payload["admitted"] > 100
    assert rep.payload["collinearity_residual"] < 1e-9


def test_dimension_default_scales_below_the_floor_are_a_config_error():
    # the weighted shift's floor (~0.177) leaves one of the default scales 2^-2..2^-9
    with pytest.raises(ConfigInvalid, match=r"field 'scales': fewer than 4 default scales .* floor 0\.17"):
        run({"task": "dimension", "seed": 1, "system": {"kind": "full_shift", "metric": "weighted"}})
    # explicit scales above the floor still run
    rep = run({"task": "dimension", "seed": 1, "cloud_budget": 4000, "scales": [0.9, 0.7, 0.5, 0.3],
               "system": {"kind": "full_shift", "metric": "weighted"}})
    assert len(rep.payload["scales"]) == 4


@pytest.mark.parametrize("task", ["dimension", "verify"])
def test_a_cloud_budget_below_four_default_scales_is_a_config_error(task, monkeypatch):
    # 3^4 = 81 <= 100 < 3^5: a 100-point cloud resolves only 2^-2..2^-4 on 3 symbols
    import ergodim.harness as harness

    def no_sampling(*args, **kwargs):
        raise AssertionError("the refusal must come before any sampling")

    monkeypatch.setattr(harness, "sample_point", no_sampling)
    monkeypatch.setattr(harness, "verify_main_inequality", no_sampling)
    three = {"kind": "full_shift", "alphabet": 3}
    with pytest.raises(ConfigInvalid, match=r"field 'cloud_budget': 100 resolves only 3 default scales"):
        run({"task": task, "seed": 0, "cloud_budget": 100, "system": three})
    monkeypatch.undo()
    if task == "dimension":  # 3^5 = 243 points resolve 2^-2..2^-5, one full octave each
        rep = run({"task": task, "seed": 0, "cloud_budget": 243, "system": three})
        assert rep.payload["counts"] == [9, 27, 81, 243]


@pytest.mark.parametrize("task", ["chi", "verify"])
@pytest.mark.parametrize("system", [{"kind": "toral_automorphism"}, {"kind": "torus_translation"}])
def test_torus_radii_at_or_below_the_floor_are_a_config_error(task, system):
    # torus probe magnitudes start at the 1e-14 floor, so no probe could be accepted
    message = r"field 'r_schedule': radius 1e-1[45] lies at or below this system's resolution floor 1e-14"
    if (task, system["kind"]) == ("verify", "torus_translation"):
        message = r"field 'system': task 'verify' runs on"  # refused before its radii are read
    for radii in ([1e-15], [0.1, 1e-14]):
        with pytest.raises(ConfigInvalid, match=message):
            run({"task": task, "seed": 0, "system": system, "r_schedule": radii})


def test_shift_radii_below_the_conservative_floor_still_run():
    # the weighted floor (~0.177) is a worst-case tail bound; flip probes reach below it
    rep = run({"task": "chi", "seed": 0, "system": {"kind": "full_shift", "metric": "weighted"},
               "r_schedule": [0.1], "n_schedule": [2], "points": 8, "probes": 16})
    assert math.isfinite(rep.payload["chi"])


def test_dimension_with_only_the_base_point_admitted_is_flagged():
    rep = run({"task": "dimension", "seed": 0, "system": {"kind": "full_shift"},
               "oracle": {"kind": "bernoulli"}, "admission_tolerance": 1e-300, "back_horizon": 0})
    assert rep.payload["admitted"] == 1 and rep.payload["slope"] == 0.0
    assert rep.flags == ["only the base point was admitted: the slope measures no local unstable set"]
    assert not any("base point" in f for f in run(TINY_CONFIGS["dimension"]).flags)


def test_verify_total_failure_shows_the_flags():
    with pytest.raises(TaskFailed) as info:
        run({"task": "verify", "seed": 0, "delta": 1e-7, "base_points": 4, "chi_points": 32,
             "chi_probes": 32})
    msg = str(info.value)
    assert "(4 flags: base point 0: EmptyCloud: no nontrivial candidate survived admission" in msg
    assert " | base point 2: " in msg and msg.endswith(" | ...)")


def test_verify_task_payload():
    rep = run(TINY_CONFIGS["verify"])
    assert set(rep.payload) >= {"h", "chi", "ratio", "dim", "slack", "holds", "regime", "disclaimer"}
    assert rep.payload["regime"] == "ratio"
    assert rep.payload["holds"] is True
    assert rep.parameters["aggregation"] == "median over base points"


def test_appendix_task_payload():
    rep = run(TINY_CONFIGS["appendix-hilbert"])
    assert rep.payload["monotone_beyond_50"]
    assert rep.payload["cover"]["strictly_increasing"]
    assert rep.payload["rate_at_max_k"] < 0.2
    assert rep.payload["chi"] <= 0.05
    assert rep.flags == []


def test_hamming_task_flags_crude_failure():
    clean = run(TINY_CONFIGS["hamming-bounds"])
    assert clean.flags == []
    assert all(r["stirling_holds"] for r in clean.payload["rows"])
    flagged = run({"task": "hamming-bounds", "seed": 0, "n_values": [4, 12], "eps": 0.01})
    assert flagged.payload["crude_failures"] == [4]
    assert any("crude bound fails" in f for f in flagged.flags)


def test_task_errors_become_task_failed():
    with pytest.raises(TaskFailed, match="EmptyCloud"):
        run({"task": "dimension", "seed": 0, "delta": 1e-7})


def test_config_errors_pass_through(monkeypatch):
    import ergodim.harness as harness

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was rejected")

    monkeypatch.setattr(harness, "sample_point", no_sampling)
    # a valid config that the runner refuses: exact cylinders exist only on a shift
    cfg = ExperimentConfig.from_dict({**TINY_CONFIGS["brin-katok"],
                                      "system": {"kind": "toral_automorphism"}})
    with pytest.raises(ConfigInvalid, match="field 'mode': 'exact_cylinder' needs a full_shift system"):
        run_experiment(cfg)


@pytest.mark.parametrize("shift_k, n_schedule", [(3, [2, 4]), (3, [3, 4]), (8, [4, 8, 16])])
def test_smb_shift_k_must_stay_below_the_schedule(monkeypatch, shift_k, n_schedule):
    import ergodim.harness as harness

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was rejected")

    monkeypatch.setattr(harness, "sample_point", no_sampling)
    with pytest.raises(ConfigInvalid, match="field 'shift_k': must be below every n_schedule"):
        run({"task": "smb-check", "seed": 0, "n_schedule": n_schedule, "paths": 4,
             "shift_k": shift_k})


def test_starved_monte_carlo_is_flagged_not_fatal():
    rep = run({"task": "brin-katok", "seed": 0, "mode": "monte_carlo", "samples": 500,
               "eps_schedule": [0.3], "n_schedule": [8, 12]})
    assert rep.payload["hit_starvation"] is True
    assert any("hit starvation" in f for f in rep.flags)


# ---------------------------------------------------------------------------
# byte reproducibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("task", sorted(TINY_CONFIGS))
def test_payload_bytes_reproduce(task):
    first = run(TINY_CONFIGS[task]).payload_bytes()
    again = run(TINY_CONFIGS[task]).payload_bytes()
    assert first == again


_SHIFT_16 = {"kind": "full_shift", "window": 16}


@pytest.mark.parametrize("task, raw, window", [
    # the README example: window 16 runs on max(n_schedule) + 64
    ("chi", {"n_schedule": [2, 4], "points": 8, "probes": 16}, 68),
    ("chi", {"n_schedule": [2, 4], "points": 8, "probes": 16, "system": {**_SHIFT_16, "window": 100}},
     100),
    ("brin-katok", {}, 16 + 64),
    ("partition-build", {}, 8 * (3 + 30)),
    ("smb-check", {}, 200 + 64),
    ("dimension", {}, 128),
    ("verify", {}, 192),
    ("appendix-hilbert", {"system": {**_SHIFT_16, "metric": "weighted"}}, 256),
])
def test_shift_runners_report_the_window_they_ran_on(task, raw, window):
    """A shift's window is raised to the task's minimum; parameters say which window ran."""
    cfg = {**TINY_CONFIGS[task], "system": _SHIFT_16, **raw}
    rep = run(cfg)
    assert rep.config["system"] == json.loads(json.dumps(cfg["system"]))  # the echo keeps the config
    assert rep.parameters["window"] == window


def test_torus_runs_report_no_window():
    assert "window" not in run(TINY_CONFIGS["chi"]).parameters


_FAIR_COIN = {"system": {"kind": "full_shift"}, "oracle": {"kind": "bernoulli", "probs": [0.5, 0.5]},
              "cloud_budget": 1000, "seed": 0}


@pytest.mark.parametrize("task, extra", [("dimension", {}),
                                         ("verify", {"base_points": 4, "chi_points": 32, "chi_probes": 48})])
def test_explicit_scales_past_the_cloud_are_flagged(task, extra):
    """A fair-coin cloud of 1000 points varies 9 coordinates (2^9 <= 1000): explicit scales
    2^-10..2^-14 cannot split a box, and their saturated counts pull the slope from 1 to 0.615."""
    raw = {"task": task, **_FAIR_COIN, **extra}
    fine = run({**raw, "scales": [2.0**-k for k in range(2, 15)]})
    slope = fine.payload["slope" if task == "dimension" else "dim"]
    assert slope == pytest.approx(8 / 13, abs=1e-12)
    want = "scales at box radius k = 10, 11, 12, 13, 14 lie past what a cloud of 1000 points resolves"
    assert [f for f in fine.flags if f.startswith("scales")] == [
        want + " (2^k > cloud_budget): their box counts saturate and pull the slope down"]
    for ok in (run(raw), run({**raw, "scales": [2.0**-k for k in range(2, 10)]})):
        assert not [f for f in ok.flags if f.startswith("scales")]
        assert ok.payload["slope" if task == "dimension" else "dim"] == pytest.approx(1.0, abs=1e-12)


_BLOCK_CONFIGS = {
    "chi-cat": TINY_CONFIGS["chi"],
    "chi-dyadic": {**TINY_CONFIGS["chi"], "system": {"kind": "full_shift"}},
    "chi-weighted": {**TINY_CONFIGS["chi"], "system": {"kind": "full_shift", "metric": "weighted"},
                     "r_schedule": [0.4, 0.3]},
    "verify": TINY_CONFIGS["verify"],
    "appendix-hilbert": TINY_CONFIGS["appendix-hilbert"],
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CONFIGS))
def test_probe_blocks_leave_payload_bytes(monkeypatch, name):
    """One point per probe block gives the bytes of the default blocks, which hold every point."""
    import ergodim.geometry as geometry

    raw = _BLOCK_CONFIGS[name]
    want = run(raw).payload_bytes()
    calls = []
    for kernel in ("_torus_ratios_from_draws", "_shift_block_ratios"):
        real = getattr(geometry, kernel)
        monkeypatch.setattr(geometry, kernel, lambda *a, real=real: calls.append(1) or real(*a))
    monkeypatch.setattr(geometry, "_TORUS_BLOCK_ROWS", 1)
    monkeypatch.setattr(geometry, "_SHIFT_BLOCK_CELLS", 1)
    assert run(raw).payload_bytes() == want
    assert len(calls) >= 3 * 16  # every table holds at least 16 points, one block each


def test_seed_changes_sampled_payloads():
    a = run(TINY_CONFIGS["chi"]).payload_bytes()
    b = run({**TINY_CONFIGS["chi"], "seed": 1}).payload_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_json_and_csv(tmp_path):
    rep = run(TINY_CONFIGS["chi"])
    paths = emit_report(rep, tmp_path)
    assert [p.name for p in paths] == ["chi.json", "chi.csv"]
    doc = json.loads(paths[0].read_text())
    assert doc["schema_version"] == "1"
    assert doc["config"]["seed"] == 0
    assert doc["payload"]["chi"] == rep.payload["chi"]
    with paths[1].open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "n", "phi_n_over_n", "Lambda_r"]
    assert len(rows) - 1 == 2 * 3  # |r schedule| x |n schedule|


def test_emit_dimension_csv_consistency(tmp_path):
    rep = run(TINY_CONFIGS["dimension"])
    paths = emit_report(rep, tmp_path, formats=("csv",))
    with paths[0].open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scale", "count", "log_scale", "log_count"]
    for scale, count, log_scale, log_count in rows[1:]:
        assert math.log(float(scale)) == pytest.approx(float(log_scale), abs=1e-12)
        assert math.log(float(count)) == pytest.approx(float(log_count), abs=1e-12)


def test_emit_verify_csv_names_metrics(tmp_path):
    rep = run(TINY_CONFIGS["verify"])
    paths = emit_report(rep, tmp_path, formats=("csv",))
    with paths[0].open() as fh:
        rows = list(csv.reader(fh))
    metrics = {r[0] for r in rows[1:]}
    assert {"h", "chi", "ratio", "dim", "slack", "holds", "regime"} <= metrics


def test_emit_json_only(tmp_path):
    rep = run(TINY_CONFIGS["hamming-bounds"])
    paths = emit_report(rep, tmp_path, formats=("json",))
    assert len(paths) == 1 and paths[0].suffix == ".json"


def test_json_payload_section_reproduces(tmp_path):
    a = emit_report(run(TINY_CONFIGS["entropy"]), tmp_path / "a")
    b = emit_report(run(TINY_CONFIGS["entropy"]), tmp_path / "b")
    da, db = json.loads(a[0].read_text()), json.loads(b[0].read_text())
    assert da["payload"] == db["payload"]
    assert da["config"] == db["config"]


# ---------------------------------------------------------------------------
# the systems each task runs on
# ---------------------------------------------------------------------------

FAMILIES = {
    "toral_automorphism": {"kind": "toral_automorphism"},
    "torus_translation": {"kind": "torus_translation"},
    "full_shift/dyadic": {"kind": "full_shift", "metric": "dyadic"},
    "full_shift/weighted": {"kind": "full_shift", "metric": "weighted"},
}
CAT, TRANSLATION, DYADIC, WEIGHTED = FAMILIES
DECLARED = {
    "chi": {CAT, TRANSLATION, DYADIC, WEIGHTED},
    "entropy": {DYADIC, WEIGHTED},
    "brin-katok": {DYADIC, CAT},
    "partition-build": {DYADIC, WEIGHTED},
    "smb-check": {DYADIC, WEIGHTED},
    "dimension": {CAT, DYADIC, WEIGHTED},
    "verify": {CAT, DYADIC, WEIGHTED},
    "appendix-hilbert": {WEIGHTED},
    "hamming-bounds": {CAT, TRANSLATION, DYADIC, WEIGHTED},  # reads no system
}
# what a declared pair needs beyond its TINY_CONFIGS entry
ON_FAMILY = {
    ("dimension", WEIGHTED): {"scales": [0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2]},
    ("partition-build", WEIGHTED): {"delta": 1.2},
    ("brin-katok", CAT): {"mode": "monte_carlo", "samples": 2000},
}


@pytest.mark.parametrize("task, family", [(t, f) for t in TASKS for f in FAMILIES],
                         ids=lambda v: v)
def test_each_task_runs_on_its_declared_systems_only(task, family):
    raw = {**TINY_CONFIGS[task], **ON_FAMILY.get((task, family), {}), "system": FAMILIES[family]}
    if family in DECLARED[task]:
        assert isinstance(run(raw), Report)
    else:
        with pytest.raises(ConfigInvalid, match=f"field 'system': task '{task}' runs on .*, got {family}$"):
            ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# the task registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("task", list(TASKS))
def test_registry_entry_is_complete(task):
    spec = TASKS[task]
    ExperimentConfig.from_dict(json.loads((ROOT / "configs" / f"{task}.json").read_text()))
    rep = run(TINY_CONFIGS[task])
    assert set(rep.config) == set(spec.options) | COMMON_KEYS
    for key, (default, _) in spec.options.items():
        if key not in TINY_CONFIGS[task]:
            assert rep.config[key] == json.loads(json.dumps(default)), key
    header, rows = spec.table(rep.payload)
    assert rows and all(len(row) == len(header) for row in rows)
    assert spec.headline(rep.payload)


@pytest.mark.parametrize("task", sorted(TINY_CONFIGS))
def test_config_echo_is_a_valid_config(task):
    rep = run(TINY_CONFIGS[task])
    again = run(rep.config)
    assert again.config == rep.config
    assert again.payload_bytes() == rep.payload_bytes()


def test_readme_options_table_names_the_registry_options():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("Per-task options and their defaults.")[1].split("The `null` defaults")[0]
    rows = re.findall(r"^\| `([\w-]+)` \| [^|]+ \| (.+) \|$", table, re.M)
    assert [task for task, _ in rows] == list(TASKS)
    for task, options in rows:
        assert re.findall(r"`(\w+)`", options) == list(TASKS[task].options), task


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_print_report_shows_the_headline(tmp_path, capsys, monkeypatch):
    print_report = _load_script("print_report")
    (path,) = emit_report(run(TINY_CONFIGS["entropy"]), tmp_path, ("json",))
    monkeypatch.setattr("sys.argv", ["print_report.py", str(path)])
    assert print_report.main() == 0
    assert "headline: rate = 0.693147 vs closed form 0.693147 (n = 8)\n" in capsys.readouterr().out


def test_run_all_prints_each_headline(tmp_path, capsys):
    run_all = _load_script("run_all")
    configs = tmp_path / "configs"
    configs.mkdir()
    for task in ("hamming-bounds", "entropy"):
        (configs / f"{task}.json").write_text(json.dumps(TINY_CONFIGS[task]))
    rc = run_all.main(["--configs", str(configs), "--out", str(tmp_path / "out"),
                       "--only", "hamming-bounds", "entropy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "    3 sizes checked, stirling holds for all = True, crude failures []\n" in out
    assert "    rate = 0.693147 vs closed form 0.693147 (n = 8)\n" in out


def test_payload_hashes_cover_every_workload_report(capsys):
    payload_hashes = _load_script("payload_hashes")
    bench_files = sorted((ROOT / "bench").rglob("*"))
    assert payload_hashes.main(["--tiny", "--seeds", "0-1"]) == 0
    assert sorted((ROOT / "bench").rglob("*")) == bench_files  # nothing written under bench/
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 22 and all(len(line) == 4 for line in lines)
    assert sorted({w for w, _, _, _ in lines}) == ["cat-map", "markov-shift", "weighted-shift"]
    assert [seed for _, _, seed, _ in lines].count("seed=1") == 11
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for _, _, _, d in lines)
    with pytest.raises(SystemExit):
        payload_hashes.main(["--threads", "2"])


def test_workload_payloads_match_the_benchmark_golden():
    """The benchmark's seed-0 payload gate, at full scale, from the read-only golden file."""
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert golden["seed"] == 0
    got = {(w, task): d for w, task, _, d in _load_script("payload_hashes").hashes([0])}
    want = {(w, task): rec["sha256"] for w, tasks in golden["workloads"].items()
            for task, rec in tasks.items()}
    assert len(want) == 11
    assert got == want


def test_print_report_leaves_quietly_when_the_reader_closes(tmp_path):
    """`print_report.py big.json | head` ends without a BrokenPipeError traceback."""
    (path,) = emit_report(run(TINY_CONFIGS["entropy"]), tmp_path, ("json",))
    doc = json.loads(path.read_text())
    doc["parameters"]["rows"] = [{"i": i} for i in range(20_000)]  # printed in full, ~0.5 MB
    path.write_text(json.dumps(doc))
    script = ROOT / "scripts" / "print_report.py"
    proc = subprocess.Popen(
        [sys.executable, str(script), str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.read(100).startswith(b"task: entropy")
    proc.stdout.close()  # more than a pipe buffer (64 kB) is still unwritten
    stderr = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
