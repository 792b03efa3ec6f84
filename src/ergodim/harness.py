"""Declarative experiment runner: validated configs in, deterministic reports out.

A config is a flat JSON object naming a task, a seed, a system and an oracle,
plus task-specific schedules and budgets.  Unknown keys are errors.  Reports
carry the numeric payload separately from wall-clock metadata so that
re-running a config byte-reproduces the payload.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import (
    box_counting_dimension,
    local_dimension_lower,
    sample_unstable_set,
    unstable_cover_counts,
    verify_main_inequality,
)
from .entropy import block_entropy_rate, brin_katok_local
from .errors import ConfigInvalid, ErgodimError, HitStarvation, TaskFailed
from .lyapunov import estimate_chi
from .measures import (
    BernoulliIID,
    LebesgueTorus,
    MarkovStationary,
    entropy_rate,
    sample_point,
)
from .partitions import (
    check_atom_in_unstable,
    construct_subordinate_partition,
    cylinder_window,
    delta_constant,
    hamming_ball_bound_check,
    local_smb_check,
    shift_lemma_check,
)
from .systems import (
    DyadicMetric,
    FullShift,
    ToralAutomorphism,
    TorusTranslation,
    WeightedL2Metric,
    default_weights,
    operator_norm_power,
)

__all__ = ["ExperimentConfig", "Report", "run_experiment", "emit_report", "TASKS"]

TASKS = (
    "chi",
    "entropy",
    "brin-katok",
    "partition-build",
    "smb-check",
    "dimension",
    "verify",
    "appendix-hilbert",
    "hamming-bounds",
)

_COMMON_KEYS = {"task", "seed", "system", "oracle", "threads", "window"}
_TASK_KEYS = {
    "chi": {"r_schedule", "n_schedule", "points", "probes"},
    "entropy": {"n", "mode", "samples", "alpha_window"},
    "brin-katok": {"eps_schedule", "n_schedule", "mode", "samples", "min_hits", "point_index"},
    "partition-build": {
        "delta", "depth", "past_depth", "k_max", "margin", "horizon", "pairs", "point_index",
    },
    "smb-check": {"n_schedule", "past_depth", "paths", "point_index", "shift_k"},
    "dimension": {
        "delta", "scales", "back_horizon", "cloud_budget", "point_index", "admission_tolerance",
    },
    "verify": {
        "direction", "delta", "base_points", "scales", "r_schedule", "n_schedule",
        "chi_points", "chi_probes", "chi_floor", "back_horizon", "cloud_budget", "past_depth",
    },
    "appendix-hilbert": {"norm_ks", "n_schedule", "r_schedule", "delta", "octaves", "points", "probes"},
    "hamming-bounds": {"eps", "alphabet", "n_values"},
}
_SYSTEM_KEYS = {
    "toral_automorphism": {"kind", "matrix"},
    "torus_translation": {"kind", "shift"},
    "full_shift": {"kind", "alphabet", "metric", "window", "inverted"},
}
_ORACLE_KEYS = {
    "lebesgue": {"kind"},
    "bernoulli": {"kind", "probs"},
    "markov": {"kind", "transitions", "pi"},
}


@dataclass
class ExperimentConfig:
    task: str
    seed: int
    system: dict
    oracle: dict
    options: dict = field(default_factory=dict)
    threads: int = 1
    window: int | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("config must be a JSON object")
        task = raw.get("task")
        if task not in TASKS:
            raise ConfigInvalid(f"field 'task': expected one of {sorted(TASKS)}, got {task!r}")
        allowed = _COMMON_KEYS | _TASK_KEYS[task]
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigInvalid(
                f"unknown key(s) for task {task!r}: {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        if "seed" not in raw:
            raise ConfigInvalid("field 'seed': required (no environment entropy is ever used)")
        seed = raw["seed"]
        if not _is_int(seed) or seed < 0:
            raise ConfigInvalid(f"field 'seed': expected a nonnegative integer, got {seed!r}")
        threads = raw.get("threads", 1)
        if not _is_int(threads) or threads < 1:
            raise ConfigInvalid(f"field 'threads': expected a positive integer, got {threads!r}")
        system = raw.get("system", _default_system(task))
        _validate_descriptor(system, _SYSTEM_KEYS, "system")
        oracle = raw.get("oracle", _default_oracle(system))
        _validate_descriptor(oracle, _ORACLE_KEYS, "oracle")
        try:
            build_oracle(oracle)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"field 'oracle': {exc}") from exc
        options = {k: raw[k] for k in raw if k not in _COMMON_KEYS}
        _validate_schedules(task, options)
        window = raw.get("window")
        if window is not None and (not _is_int(window) or window < 8):
            raise ConfigInvalid(f"field 'window': expected an integer >= 8, got {window!r}")
        return ExperimentConfig(
            task=task, seed=seed, system=system, oracle=oracle,
            options=options, threads=threads, window=window,
        )


def _is_int(v) -> bool:
    """An integer that is not a bool (``bool`` subclasses ``int``)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _default_system(task: str) -> dict:
    if task in ("appendix-hilbert",):
        return {"kind": "full_shift", "alphabet": 2, "metric": "weighted"}
    if task in ("hamming-bounds",):
        return {"kind": "full_shift", "alphabet": 2, "metric": "dyadic"}
    if task in ("chi", "dimension", "verify"):
        return {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]]}
    return {"kind": "full_shift", "alphabet": 2, "metric": "dyadic"}


def _default_oracle(system: dict) -> dict:
    if system.get("kind") in ("toral_automorphism", "torus_translation"):
        return {"kind": "lebesgue"}
    return {"kind": "bernoulli", "probs": [0.5, 0.5]}


def _validate_descriptor(desc, table, label):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigInvalid(f"field '{label}': expected an object with a 'kind' key")
    kind = desc["kind"]
    if kind not in table:
        raise ConfigInvalid(f"field '{label}.kind': expected one of {sorted(table)}, got {kind!r}")
    unknown = sorted(set(desc) - table[kind])
    if unknown:
        raise ConfigInvalid(f"unknown key(s) in '{label}': {', '.join(unknown)}")


def _validate_schedules(task: str, options: dict):
    def schedule(name):
        s = options.get(name)
        if name in options and (
            not isinstance(s, list)
            or not s
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in s)
        ):
            raise ConfigInvalid(f"field '{name}': expected a non-empty list of numbers, got {s!r}")
        return s

    def decreasing(name):
        s = schedule(name)
        if s is not None and any(b >= a for a, b in zip(s, s[1:])):
            raise ConfigInvalid(f"field '{name}': must be strictly decreasing, got {s}")

    def increasing(name):
        s = schedule(name)
        if s is not None and any(b <= a for a, b in zip(s, s[1:])):
            raise ConfigInvalid(f"field '{name}': must be strictly increasing, got {s}")

    decreasing("r_schedule")
    decreasing("eps_schedule")
    eps = options.get("eps_schedule")
    if eps is not None and not all(0.0 < e <= 1.0 for e in eps):
        raise ConfigInvalid(f"field 'eps_schedule': every eps must lie in (0, 1], got {eps}")
    decreasing("scales")
    increasing("n_schedule")
    increasing("n_values")
    increasing("norm_ks")
    for name in ("n", "points", "probes", "samples", "paths", "pairs", "cloud_budget", "base_points"):
        v = options.get(name)
        if v is not None and (not _is_int(v) or v < 1):
            raise ConfigInvalid(f"field '{name}': expected a positive integer, got {v!r}")
    allowed_modes = {
        "entropy": ("auto", "exact", "monte_carlo"),
        "brin-katok": ("exact_cylinder", "monte_carlo"),
    }.get(task)
    mode = options.get("mode")
    if mode is not None and allowed_modes is not None and mode not in allowed_modes:
        raise ConfigInvalid(f"field 'mode': expected one of {list(allowed_modes)}, got {mode!r}")
    direction = options.get("direction")
    if direction is not None and direction not in ("forward", "backward"):
        raise ConfigInvalid(f"field 'direction': expected 'forward' or 'backward', got {direction!r}")


def build_system(desc: dict, window: int | None = None):
    kind = desc["kind"]
    if kind == "toral_automorphism":
        m = desc.get("matrix", [[2, 1], [1, 1]])
        return ToralAutomorphism(tuple(tuple(int(v) for v in row) for row in m))
    if kind == "torus_translation":
        sx, sy = desc.get("shift", [0.1234, 0.4321])
        return TorusTranslation((float(sx), float(sy)))
    metric_name = desc.get("metric", "dyadic")
    metric = DyadicMetric() if metric_name == "dyadic" else WeightedL2Metric(default_weights())
    if metric_name not in ("dyadic", "weighted"):
        raise ConfigInvalid(f"field 'system.metric': expected 'dyadic' or 'weighted', got {metric_name!r}")
    return FullShift(
        alphabet_size=int(desc.get("alphabet", 2)),
        metric=metric,
        window=int(window or desc.get("window", 256)),
        inverted=bool(desc.get("inverted", False)),
    )


def build_oracle(desc: dict):
    kind = desc["kind"]
    if kind == "lebesgue":
        return LebesgueTorus()
    if kind == "bernoulli":
        return BernoulliIID(tuple(float(p) for p in desc.get("probs", [0.5, 0.5])))
    pi = desc.get("pi")
    return MarkovStationary(
        tuple(tuple(float(v) for v in row) for row in desc.get("transitions", [[0.7, 0.3], [0.4, 0.6]])),
        tuple(float(v) for v in pi) if pi is not None else None,
    )


@dataclass
class Report:
    schema_version: str
    task: str
    config: dict
    parameters: dict
    payload: dict
    flags: list
    meta: dict

    def payload_bytes(self) -> bytes:
        """The byte-reproducible part: payload only, canonical ordering."""
        return json.dumps(self.payload, sort_keys=True).encode()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, str) or obj is None:
        return obj
    return str(obj)


def _shift_window_for(cfg: ExperimentConfig, need: int) -> int:
    base = cfg.window or cfg.system.get("window", 256)
    return max(int(base), need)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Dispatch a validated config and assemble the deterministic report."""
    t0 = time.perf_counter()
    runner = _RUNNERS.get(cfg.task)
    if runner is None:  # pragma: no cover - from_dict already validates
        raise ConfigInvalid(f"unknown task {cfg.task!r}")
    try:
        payload, parameters, flags = runner(cfg)
    except ConfigInvalid:
        raise
    except ErgodimError as exc:
        raise TaskFailed(f"task {cfg.task!r} failed: {type(exc).__name__}: {exc}") from exc
    wall = time.perf_counter() - t0
    return Report(
        schema_version="1",
        task=cfg.task,
        config=_jsonable(
            {
                "task": cfg.task,
                "seed": cfg.seed,
                "system": cfg.system,
                "oracle": cfg.oracle,
                "threads": cfg.threads,
                **cfg.options,
            }
        ),
        parameters=_jsonable(parameters),
        payload=_jsonable(payload),
        flags=list(flags),
        meta={"toolkit_version": __version__, "wall_clock_s": wall, "threads": cfg.threads},
    )


# ---------------------------------------------------------------------------
# task runners: each returns (payload, parameters, flags)
# ---------------------------------------------------------------------------


def _run_chi(cfg: ExperimentConfig):
    opts = cfg.options
    rs = opts.get("r_schedule", [0.2, 0.1, 0.05])
    ns = opts.get("n_schedule", list(range(2, 25, 2)))
    window = _shift_window_for(cfg, max(ns) + 64)
    sys = build_system(cfg.system, window)
    oracle = build_oracle(cfg.oracle)
    est = estimate_chi(
        sys, oracle, rs, ns,
        points=opts.get("points", 256),
        probes=opts.get("probes", 128),
        seed=cfg.seed,
        threads=cfg.threads,
    )
    payload = {
        "chi": est.value,
        "per_r": [{"r": r, "Lambda": v} for r, v in est.per_r],
        "series": [
            {"r": s.r, "n": list(s.n_schedule), "phi_over_n": [v / n for v, n in zip(s.values, s.n_schedule)]}
            for s in est.series
        ],
        "diagnostics": est.diagnostics,
        "sample_count": est.sample_count,
    }
    flags = []
    if not est.diagnostics.get("monotone_in_r", True):
        flags.append("Lambda_r not monotone within slack across the r schedule")
    if est.diagnostics.get("integrability_guard_growth", 0.0) > 1.0:
        flags.append("log L_1 tail growth exceeded the integrability guard")
    params = {"r_schedule": rs, "n_schedule": ns, "probe_floor": "log-uniform above resolution floor"}
    return payload, params, flags


def _run_entropy(cfg: ExperimentConfig):
    opts = cfg.options
    n = opts.get("n", 16)
    oracle = build_oracle(cfg.oracle)
    lo, hi = opts.get("alpha_window", [0, 0])
    alpha = cylinder_window(int(lo), int(hi), getattr(oracle, "alphabet_size", 2))
    est = block_entropy_rate(
        oracle, alpha, n,
        mode=opts.get("mode", "auto"),
        samples=opts.get("samples", 200_000),
        seed=cfg.seed,
    )
    payload = {
        "value": est.value,
        "mode": est.mode,
        "n": est.n_used,
        "stderr": est.stderr,
        "closed_form_rate": entropy_rate(oracle),
    }
    return payload, {"alpha_window": [int(lo), int(hi)]}, []


def _run_brin_katok(cfg: ExperimentConfig):
    opts = cfg.options
    eps = opts.get("eps_schedule", [0.25, 0.0625])
    ns = opts.get("n_schedule", [10, 20, 30, 40])
    mode = opts.get("mode", "exact_cylinder")
    need = max(ns) + 64
    sys = build_system(cfg.system, _shift_window_for(cfg, need))
    oracle = build_oracle(cfg.oracle)
    x = sample_point(sys, oracle, cfg.seed, opts.get("point_index", 0))
    flags = []
    try:
        rep = brin_katok_local(
            sys, oracle, x, eps, ns,
            mode=mode,
            samples=opts.get("samples", 100_000),
            seed=cfg.seed,
            min_hits=opts.get("min_hits", 50),
        )
    except HitStarvation as exc:
        flags.append(f"hit starvation: {exc}")
        payload = {"hit_starvation": True, "message": str(exc)}
        return payload, {"min_hits": opts.get("min_hits", 50)}, flags
    payload = {
        "lower": rep.lower.value,
        "upper": rep.upper.value,
        "chosen_eps": rep.chosen_eps,
        "mode": rep.mode,
        "stderr": rep.lower.stderr,
        "extrapolated": rep.extrapolated,
        "per_eps": rep.per_eps,
        "n_schedule": rep.n_schedule,
    }
    params = {
        "min_hits": opts.get("min_hits", 50),
        "ball_convention": "open (strict inequality)",
        "proxy": "min/max over trailing half of the n schedule",
    }
    return payload, params, flags


def _run_partition_build(cfg: ExperimentConfig):
    opts = cfg.options
    horizon = opts.get("horizon", 50)
    window = _shift_window_for(cfg, 8 * (opts.get("depth", 3) + horizon))
    sys = build_system(cfg.system, window)
    oracle = build_oracle(cfg.oracle)
    plan = construct_subordinate_partition(
        sys, oracle,
        delta=opts.get("delta", 0.5),
        depth=opts.get("depth", 3),
        past_depth=opts.get("past_depth", 8),
        k_max=opts.get("k_max", 16),
        margin=opts.get("margin", 0.1),
    )
    x = sample_point(sys, oracle, cfg.seed, opts.get("point_index", 0))
    atom = check_atom_in_unstable(
        sys, plan, x, horizon=horizon, pairs=opts.get("pairs", 100), seed=cfg.seed
    )
    flags = []
    if not plan.diagnostics.get("t_beta1_within_delta", True):
        flags.append("diam(T beta_1) exceeds delta (flagged, not fatal)")
    if atom.violations or atom.level_violations:
        flags.append(
            f"atom check: {atom.violations} delta violations, {atom.level_violations} level violations"
        )
    payload = {
        "plan": {
            "betas": [list(b.coords) for b in plan.betas],
            "ks": plan.ks,
            "alphas": [list(a.coords) for a in plan.alphas],
            "residuals": plan.diagnostics["search_residuals"],
        },
        "c_values": plan.c_values,
        "c_values_half_past": plan.c_values_half_past,
        "sup_c": plan.sup_c,
        "oracle_rate": plan.oracle_rate,
        "rate_gap": plan.diagnostics["rate_gap"],
        "beta1_diameter": plan.diagnostics["beta1_diameter"],
        "t_beta1_diameter": plan.diagnostics["t_beta1_diameter"],
        "atom_check": {
            "horizon": atom.horizon,
            "pairs": atom.pairs,
            "past_depth_used": atom.past_depth_used,
            "worst_distance": atom.worst_distance,
            "violations": atom.violations,
            "level_violations": atom.level_violations,
            "per_level": atom.per_level,
        },
    }
    params = {
        "P": plan.past_depth,
        "Q": plan.depth,
        "margin": plan.diagnostics["margin"],
        "k_max": plan.diagnostics["k_max"],
        "delta": plan.delta,
    }
    return payload, params, flags


def _run_smb_check(cfg: ExperimentConfig):
    opts = cfg.options
    ns = opts.get("n_schedule", [100, 400, 1000, 4000, 10_000])
    window = _shift_window_for(cfg, max(ns) + 64)
    sys = build_system(cfg.system, window)
    oracle = build_oracle(cfg.oracle)
    x = sample_point(sys, oracle, cfg.seed, opts.get("point_index", 0))
    rep = local_smb_check(
        sys, oracle, x, ns,
        past_depth=opts.get("past_depth", 8),
        paths=opts.get("paths", 200),
        seed=cfg.seed,
    )
    payload = {
        "n_schedule": rep.n_schedule,
        "mean_per_n": rep.mean_per_n,
        "trailing_mean": rep.trailing_mean,
        "target": rep.target,
        "rel_error": rep.rel_error,
        "paths": rep.paths,
    }
    if "shift_k" in opts:
        lemma = shift_lemma_check(oracle, x, int(opts["shift_k"]), ns)
        payload["shift_lemma"] = {
            "k": lemma.k,
            "base_values": lemma.base_values,
            "shifted_values": lemma.shifted_values,
            "trailing_base": lemma.trailing_base,
            "trailing_shifted": lemma.trailing_shifted,
            "rel_gap": lemma.rel_gap,
            "length_factors": lemma.length_factors,
        }
    params = {"past_depth": rep.past_depth, "past_convention": "strict past -P..-1"}
    return payload, params, []


def _run_dimension(cfg: ExperimentConfig):
    opts = cfg.options
    sys = build_system(cfg.system, _shift_window_for(cfg, 128))
    oracle = build_oracle(cfg.oracle)
    is_torus = isinstance(sys, (ToralAutomorphism, TorusTranslation))
    delta = opts.get("delta", 0.05 if is_torus else 0.5)
    scales = opts.get(
        "scales",
        [delta * 2.0 ** (-j) for j in range(2, 8)] if is_torus else [2.0 ** (-k) for k in range(2, 10)],
    )
    x = sample_point(sys, oracle, cfg.seed, opts.get("point_index", 0))
    cloud = sample_unstable_set(
        sys, oracle, x, delta,
        back_horizon=opts.get("back_horizon", 40),
        budget=opts.get("cloud_budget", 10_000),
        seed=cfg.seed,
        admission_tolerance=opts.get("admission_tolerance"),
    )
    est = box_counting_dimension(cloud, scales, sys=sys)
    flags = [] if est.monotone else ["box counts not monotone across scales"]
    payload = {
        "slope": est.slope,
        "stderr": est.stderr,
        "ci": list(est.ci),
        "scales": est.scales,
        "counts": est.counts,
        "alt_slope": est.alt_slope,
        "n_points": est.n_points,
        "admitted": cloud.admitted,
        "rejected": cloud.rejected,
        "collinearity_residual": cloud.collinearity_residual,
    }
    params = {
        "delta": delta,
        "back_horizon": cloud.back_horizon,
        "admission_tolerance": cloud.admission_tolerance,
        "origin_shift_robustness": 0.25,
    }
    return payload, params, flags


def _run_verify(cfg: ExperimentConfig):
    opts = cfg.options
    window = _shift_window_for(cfg, 192)
    sys = build_system(cfg.system, window)
    oracle = build_oracle(cfg.oracle)
    kwargs = {}
    for key in (
        "direction", "delta", "base_points", "scales", "r_schedule", "n_schedule",
        "chi_points", "chi_probes", "chi_floor", "back_horizon", "cloud_budget", "past_depth",
    ):
        if key in opts:
            kwargs[key] = opts[key]
    rep = verify_main_inequality(sys, oracle, seed=cfg.seed, threads=cfg.threads, **kwargs)
    payload = {
        "direction": rep.direction,
        "h": rep.h_value,
        "chi": rep.chi,
        "ratio": rep.ratio,
        "regime": rep.regime,
        "dim": rep.dim_estimate,
        "per_point_slopes": rep.per_point_slopes,
        "mass_liminf": rep.mass_liminf,
        "slack": rep.slack,
        "holds": rep.holds,
        "divergence": rep.divergence,
        "disclaimer": rep.disclaimer,
    }
    params = {
        "chi_floor": rep.chi_floor,
        "slack_tolerance": 0.05,
        "aggregation": "median over base points",
    }
    return payload, params, list(rep.flags)


def _run_appendix_hilbert(cfg: ExperimentConfig):
    opts = cfg.options
    window = _shift_window_for(cfg, 256)
    sys = build_system(cfg.system, window)
    if not isinstance(sys.metric, WeightedL2Metric):
        raise ConfigInvalid("appendix-hilbert requires system.metric = 'weighted'")
    oracle = build_oracle(cfg.oracle)
    w = sys.metric.weights
    ks = opts.get("norm_ks", [25, 50, 75, 100, 125, 150, 175, 200])
    rates = [math.log(operator_norm_power(w, k, window=window)) / k for k in ks]
    tail = [r for k, r in zip(ks, rates) if k >= 50]
    monotone_beyond_50 = all(b < a for a, b in zip(tail, tail[1:]))
    ns = opts.get("n_schedule", [8, 16, 32, 64, 128])
    rs = opts.get("r_schedule", [0.4, 0.3, 0.2])
    chi_est = estimate_chi(
        sys, oracle, rs, ns,
        points=opts.get("points", 128),
        probes=opts.get("probes", 64),
        seed=cfg.seed,
        threads=cfg.threads,
    )
    delta = opts.get("delta", 0.5)
    cover = unstable_cover_counts(sys, delta, octaves=opts.get("octaves", 4))
    weight_check = w.check()
    flags = []
    failed = [k for k in ("decreasing", "ratio_bound", "subexponential") if not weight_check[k]]
    if failed:
        flags.append(f"weight sequence check failed: {', '.join(failed)}")
    if not monotone_beyond_50:
        flags.append("operator norm rate not monotone beyond k = 50")
    if not cover["strictly_increasing"]:
        flags.append("cover-count slopes not strictly increasing")
    payload = {
        "weights_check": weight_check,
        "norm_ks": ks,
        "norm_rates": rates,
        "rate_at_max_k": rates[-1],
        "monotone_beyond_50": monotone_beyond_50,
        "chi": chi_est.value,
        "h": entropy_rate(oracle),
        "cover": cover,
    }
    params = {"delta": delta, "window": window, "tail_bound": "sqrt(2 * exact tail sum)"}
    return payload, params, flags


def _run_hamming_bounds(cfg: ExperimentConfig):
    opts = cfg.options
    eps = opts.get("eps", 0.04)
    alphabet = opts.get("alphabet", 2)
    n_values = opts.get("n_values", list(range(12, 31)))
    dc = delta_constant(eps, alphabet)
    rows = []
    crude_failures = []
    for n in n_values:
        rep = hamming_ball_bound_check(n, alphabet, eps)
        rows.append(
            {
                "n": rep.n,
                "m": rep.m,
                "log_open_count": math.log(rep.open_ball_count),
                "open_count": str(rep.open_ball_count),
                "closed_sum": str(rep.closed_sum),
                "crude_bound": str(rep.crude_bound),
                "crude_holds": rep.crude_holds,
                "stirling_log_bound": rep.stirling_log_bound,
                "stirling_holds": rep.stirling_holds,
            }
        )
        if not rep.crude_holds:
            crude_failures.append(n)
    flags = []
    if crude_failures:
        flags.append(f"crude bound fails at n in {crude_failures} (expected small-m failure)")
    payload = {
        "eps": eps,
        "alphabet": alphabet,
        "delta_constant": dc.value,
        "rows": rows,
        "crude_failures": crude_failures,
    }
    params = {"radius_convention": "open: i <= ceil(2 n sqrt(eps)) - 1"}
    return payload, params, flags


_RUNNERS = {
    "chi": _run_chi,
    "entropy": _run_entropy,
    "brin-katok": _run_brin_katok,
    "partition-build": _run_partition_build,
    "smb-check": _run_smb_check,
    "dimension": _run_dimension,
    "verify": _run_verify,
    "appendix-hilbert": _run_appendix_hilbert,
    "hamming-bounds": _run_hamming_bounds,
}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _csv_rows(report: Report):
    p = report.payload
    t = report.task
    if t == "chi":
        lam = {row["r"]: row["Lambda"] for row in p["per_r"]}
        header = ["r", "n", "phi_n_over_n", "Lambda_r"]
        rows = [
            [s["r"], n, v, lam[s["r"]]]
            for s in p["series"]
            for n, v in zip(s["n"], s["phi_over_n"])
        ]
    elif t == "entropy":
        header = ["n", "value", "stderr", "mode"]
        rows = [[p["n"], p["value"], p["stderr"], p["mode"]]]
    elif t == "brin-katok":
        if p.get("hit_starvation"):
            return ["status"], [["hit_starvation"]]
        header = ["eps", "n", "value"]
        rows = [
            [rec["eps"], n, v]
            for rec in p["per_eps"]
            for n, v in zip(p["n_schedule"], rec["values"])
        ]
    elif t == "partition-build":
        header = ["level", "k", "c_value", "c_value_half_past"]
        rows = [
            [q + 1, k, c, ch]
            for q, (k, c, ch) in enumerate(
                zip(p["plan"]["ks"], p["c_values"], p["c_values_half_past"])
            )
        ]
    elif t == "smb-check":
        header = ["n", "mean_ratio"]
        rows = [[n, v] for n, v in zip(p["n_schedule"], p["mean_per_n"])]
    elif t == "dimension":
        header = ["scale", "count", "log_scale", "log_count"]
        rows = [
            [s, c, math.log(s), math.log(c)] for s, c in zip(p["scales"], p["counts"])
        ]
    elif t == "verify":
        header = ["metric", "value"]
        rows = [[k, p[k]] for k in ("h", "chi", "ratio", "dim", "slack", "holds", "regime")]
        rows += [[f"point_{i}_slope", s] for i, s in enumerate(p["per_point_slopes"])]
    elif t == "appendix-hilbert":
        header = ["k", "norm_rate"]
        rows = [[k, r] for k, r in zip(p["norm_ks"], p["norm_rates"])]
    else:  # hamming-bounds
        header = ["n", "m", "log_open_count", "stirling_log_bound", "crude_holds", "stirling_holds"]
        rows = [
            [r["n"], r["m"], r["log_open_count"], r["stirling_log_bound"], r["crude_holds"], r["stirling_holds"]]
            for r in p["rows"]
        ]
    return header, rows


def emit_report(report: Report, out_dir, formats=("json", "csv")) -> list:
    """Write report files; returns the written paths.

    JSON carries the full report; CSV carries the flat per-scale/per-n table
    of the task.  The numeric payload is reproducible byte-for-byte across
    identical configs; wall-clock lives only in meta.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / f"{report.task}.json"
        doc = {
            "schema_version": report.schema_version,
            "task": report.task,
            "config": report.config,
            "parameters": report.parameters,
            "payload": report.payload,
            "flags": report.flags,
            "meta": report.meta,
        }
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(path)
    if "csv" in formats:
        header, rows = _csv_rows(report)
        path = out / f"{report.task}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)
    return written
