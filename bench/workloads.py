"""The benchmark's three workloads: their configs and their correctness checks.

Each workload is a list of task configs, one report each, that together cover
one model system end to end.  The configs are copies of the shipped
``configs/*.json`` (plus the acceptance-scale ``verify`` runs of the two shift
systems), so a later change to ``configs/`` cannot change what the benchmark
measures.  The ``threads`` key is dropped: every workload runs single-threaded.

A report passes when its payload meets the closed-form check for its task;
the acceptance tolerances follow the README acceptance table.
"""

from __future__ import annotations

import math

LOG2 = math.log(2.0)
LOG_LAM = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # h = chi of the cat map
CAT = {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]]}
LEBESGUE = {"kind": "lebesgue"}
DYADIC = {"kind": "full_shift", "alphabet": 2, "metric": "dyadic"}
WEIGHTED = {"kind": "full_shift", "alphabet": 2, "metric": "weighted"}
FAIR = {"kind": "bernoulli", "probs": [0.5, 0.5]}
MARKOV_P = [[0.7, 0.3], [0.4, 0.6]]
MARKOV = {"kind": "markov", "transitions": MARKOV_P}

_VERIFY = {"task": "verify", "direction": "forward", "base_points": 20,
           "chi_points": 256, "chi_probes": 96}

WORKLOADS = {
    "cat-map": [
        {"task": "chi", "system": CAT, "oracle": LEBESGUE, "r_schedule": [0.2, 0.1, 0.05],
         "n_schedule": [4, 8, 12, 16, 20, 24], "points": 2000, "probes": 64},
        {"task": "dimension", "system": CAT, "oracle": LEBESGUE, "delta": 0.05,
         "back_horizon": 40, "cloud_budget": 10000},
        {**_VERIFY, "system": CAT, "oracle": LEBESGUE, "cloud_budget": 10000},
    ],
    "markov-shift": [
        {**_VERIFY, "system": DYADIC, "oracle": MARKOV, "cloud_budget": 10000},
        {"task": "smb-check", "oracle": MARKOV, "n_schedule": [2500, 5000, 7500, 10000],
         "paths": 200, "shift_k": 3},
        {"task": "entropy", "oracle": MARKOV, "n": 16, "mode": "exact"},
        {"task": "brin-katok", "mode": "exact_cylinder", "eps_schedule": [0.9, 0.45, 0.2],
         "n_schedule": [4, 8, 12, 16, 20, 24, 28, 32]},
        {"task": "partition-build", "delta": 0.5, "depth": 3, "past_depth": 8,
         "horizon": 50, "pairs": 200},
        {"task": "hamming-bounds", "eps": 0.04, "alphabet": 2, "n_values": list(range(12, 31))},
    ],
    "weighted-shift": [
        {"task": "appendix-hilbert", "norm_ks": [25, 50, 75, 100, 125, 150, 175, 200],
         "n_schedule": [8, 16, 32, 64, 128], "points": 128, "probes": 64},
        {**_VERIFY, "system": WEIGHTED, "oracle": FAIR},
    ],
}

# Small versions of the same tasks, for the warm-up pass and the smoke tests.
_TINY = {
    "chi": {"r_schedule": [0.2, 0.1], "n_schedule": [2, 4, 6], "points": 32, "probes": 32},
    "dimension": {"cloud_budget": 4000},
    "verify": {"base_points": 4, "chi_points": 32, "chi_probes": 48, "cloud_budget": 4000},
    "smb-check": {"n_schedule": [50, 100, 150, 200], "paths": 50},
    "entropy": {"n": 8},
    "brin-katok": {"eps_schedule": [0.25, 0.0625], "n_schedule": [4, 8, 12, 16]},
    "partition-build": {"horizon": 30, "pairs": 40},
    "hamming-bounds": {"n_values": [12, 16, 20]},
    "appendix-hilbert": {"norm_ks": [25, 50, 75], "n_schedule": [2, 4, 8],
                         "points": 16, "probes": 24},
}


def configs(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's configs with ``seed`` written into each."""
    out = []
    for cfg in WORKLOADS[workload]:
        cfg = {**cfg, "seed": seed}
        if tiny:
            cfg.update(_TINY[cfg["task"]])
        out.append(cfg)
    return out


# ---------------------------------------------------------------------------
# closed-form checks (full scale only)
# ---------------------------------------------------------------------------


def _h2(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _markov_rate():
    (a, b), (c, d) = MARKOV_P
    pi0 = c / (b + c)
    pi = (pi0, 1.0 - pi0)
    rate = -sum(pi[i] * p * math.log(p) for i, row in enumerate(MARKOV_P) for p in row)
    return _h2(pi0), rate


MARKOV_H0, MARKOV_H = _markov_rate()


def _need(problems: list, ok: bool, what: str):
    if not ok:
        problems.append(what)


def _check_ratio_verify(p, problems, h, chi_exact):
    _need(problems, p["regime"] == "ratio", f"regime {p['regime']!r}, expected 'ratio'")
    if p["regime"] != "ratio":
        return
    _need(problems, p["holds"] is True, "verify does not hold")
    _need(problems, p["slack"] >= -0.05, f"slack {p['slack']} < -0.05")
    _need(problems, 0.95 <= p["dim"] <= 1.05, f"dim {p['dim']} outside [0.95, 1.05]")
    _need(problems, len(p["per_point_slopes"]) == 20,
          f"{len(p['per_point_slopes'])} of 20 base points produced a slope")
    _need(problems, abs(p["h"] - h) < 1e-12, f"h {p['h']} is not the closed form {h}")
    if chi_exact:
        _need(problems, abs(p["chi"] - LOG2) < 1e-12, f"chi {p['chi']} != log 2")
        _need(problems, abs(p["ratio"] - h / LOG2) < 1e-9, f"ratio {p['ratio']} != h / log 2")
    else:
        _need(problems, abs(p["chi"] - LOG_LAM) <= 0.02 * LOG_LAM,
              f"chi {p['chi']} not within 2% of {LOG_LAM}")
        _need(problems, abs(p["ratio"] - 1.0) <= 0.05, f"ratio {p['ratio']} not within 5% of 1")


def check_payload(workload: str, task: str, p: dict) -> list:
    """Closed-form problems with one full-scale payload; empty when it passes."""
    problems = []
    if task == "chi":
        rel = abs(p["chi"] - LOG_LAM) / LOG_LAM
        _need(problems, rel <= 0.02, f"chi {p['chi']} is {rel:.2%} from log lambda (tol 2%)")
        _need(problems, p["sample_count"] == 2000, f"sample_count {p['sample_count']}")
    elif task == "dimension":
        # one base point, so a wider band than the 20-point median in verify
        _need(problems, abs(p["slope"] - 1.0) <= 0.10, f"slope {p['slope']} not within 0.1 of 1")
        _need(problems, p["admitted"] >= 100, f"only {p['admitted']} admitted points")
    elif task == "verify" and workload == "cat-map":
        _check_ratio_verify(p, problems, LOG_LAM, chi_exact=False)
    elif task == "verify" and workload == "markov-shift":
        _check_ratio_verify(p, problems, MARKOV_H, chi_exact=True)
    elif task == "verify":  # weighted shift: chi vanishes, covers must diverge
        _need(problems, p["regime"] == "divergence", f"regime {p['regime']!r}, expected 'divergence'")
        _need(problems, p["chi"] <= 0.05, f"chi {p['chi']} > 0.05")
        _need(problems, p["holds"] is True, "verify does not hold")
        div = p.get("divergence") or {}
        _need(problems, div.get("strictly_increasing") is True, "cover slopes not strictly increasing")
    elif task == "smb-check":
        _need(problems, p["rel_error"] <= 0.02, f"rel_error {p['rel_error']} > 2%")
        _need(problems, p["shift_lemma"]["rel_gap"] < 0.01,
              f"shifted-block gap {p['shift_lemma']['rel_gap']} >= 1%")
    elif task == "entropy":
        closed_16 = (MARKOV_H0 + 15 * MARKOV_H) / 16
        _need(problems, p["mode"] == "exact", f"mode {p['mode']!r}")
        _need(problems, abs(p["value"] - closed_16) < 1e-12, f"value {p['value']} != {closed_16}")
        _need(problems, abs(p["closed_form_rate"] - MARKOV_H) < 1e-12, "closed_form_rate is off")
        _need(problems, abs(p["value"] - MARKOV_H) / MARKOV_H < 0.01, "gap to the rate >= 1%")
    elif task == "brin-katok":
        ext = p.get("extrapolated")
        _need(problems, isinstance(ext, float) and abs(ext - LOG2) < 1e-9,
              f"intercept {ext} not within 1e-9 of log 2")
        _need(problems, p.get("lower", 1.0) <= p.get("upper", 0.0), "lower > upper")
    elif task == "partition-build":
        atom = p["atom_check"]
        _need(problems, p["plan"]["ks"] == [0, 1, 2], f"translation times {p['plan']['ks']}")
        _need(problems, abs(p["sup_c"] - LOG2) < 1e-12, f"sup_c {p['sup_c']} != log 2")
        _need(problems, atom["violations"] == 0 and atom["level_violations"] == 0,
              f"atom violations {atom['violations']} / {atom['level_violations']}")
        _need(problems, atom["worst_distance"] <= 0.5, f"worst distance {atom['worst_distance']}")
    elif task == "hamming-bounds":
        dc = _h2(2.0 * math.sqrt(p["eps"]))
        _need(problems, abs(p["delta_constant"] - dc) < 1e-12, "delta constant is off")
        _need(problems, all(r["stirling_holds"] for r in p["rows"]), "a Stirling bound fails")
        _need(problems, p["crude_failures"] == [], f"crude failures {p['crude_failures']}")
    elif task == "appendix-hilbert":
        wc = p["weights_check"]
        _need(problems, p["chi"] <= 0.05, f"chi {p['chi']} > 0.05")
        _need(problems, p["norm_ks"][-1] == 200 and p["rate_at_max_k"] <= 0.05,
              f"norm rate {p['rate_at_max_k']} at k = {p['norm_ks'][-1]}")
        _need(problems, p["monotone_beyond_50"] is True, "norm rate not monotone beyond 50")
        _need(problems, len(p["cover"]["octave_slopes"]) == 4
              and p["cover"]["strictly_increasing"] is True, "cover slopes not increasing")
        _need(problems, wc["decreasing"] and wc["ratio_bound"] and wc["subexponential"],
              "weight sequence check failed")
    else:
        problems.append(f"no check for task {task!r}")
    return problems
