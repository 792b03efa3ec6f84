"""Declarative experiment runner: validated configs in, deterministic reports out.

A config is a flat JSON object naming a task, a seed, a system and an oracle,
plus task-specific schedules and budgets.  Unknown keys are errors.  Reports
carry the numeric payload separately from wall-clock metadata so that
re-running a config byte-reproduces the payload.

Everything the harness knows about a task lives in its ``TaskSpec`` entry of
``TASKS``: each option's default and type, runner, CSV table, headline and the systems it
runs on.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import operator
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import (
    box_counting_dimension,
    default_delta,
    default_scales,
    sample_unstable_set,
    unstable_cover_counts,
    verify_main_inequality,
)
from .entropy import block_entropy_rate, brin_katok_local
from .errors import ConfigInvalid, ErgodimError, HitStarvation, NonInvertible, TaskFailed
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
    delta_constant,
    hamming_ball_bound_check,
    local_smb_check,
    shift_lemma_check,
)
from .systems import (
    DEFAULT_WINDOW,
    DyadicMetric,
    FullShift,
    ToralAutomorphism,
    TorusTranslation,
    WeightedL2Metric,
    default_weights,
    operator_norm_power,
    resolution_floor,
)

__all__ = ["ExperimentConfig", "Report", "TaskSpec", "run_experiment", "emit_report", "TASKS"]

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


# ---------------------------------------------------------------------------
# option types: each takes a config value and returns an error text, or None
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    """An integer that is not a bool (``bool`` subclasses ``int``)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _int(lo: int):
    """An integer >= lo."""
    wanted = {0: "a nonnegative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
    return lambda v: None if _is_int(v) and v >= lo else f"expected {wanted}, got {v!r}"


def _number(interval: str):
    """A number in an interval written like "(0, 1]" or "[0, inf)"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le
    return lambda v: (None if _is_number(v) and above(lo, v) and below(v, hi)
                      else f"expected a number in {interval}, got {v!r}")


def _schedule(step: int, entry: str, interval: str, integers: bool = False):
    """A non-empty list of numbers in ``interval``, strictly increasing (step 1) or
    strictly decreasing (step -1); with ``integers``, every entry is an integer."""
    number = _number(interval)

    def check(s):
        if not isinstance(s, (list, tuple)) or not s or not all(map(_is_number, s)):
            return f"expected a non-empty list of numbers, got {s!r}"
        if any(b <= a if step > 0 else b >= a for a, b in zip(s, s[1:])):
            return f"must be strictly {'increasing' if step > 0 else 'decreasing'}, got {s!r}"
        if any(number(v) or (integers and not _is_int(v)) for v in s):
            rule = "be an integer in" if integers else "lie in"
            return f"every {entry} must {rule} {interval}, got {s!r}"
        return None

    return check


def _one_of(*choices):
    return lambda v: None if v in choices else f"expected one of {list(choices)}, got {v!r}"


def _nullable(check):
    """None, or a value that passes ``check``."""
    return lambda v: None if v is None else check(v)


def _int_window(v):
    """An integer coordinate window [lo, hi] with lo <= hi."""
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v)) and v[0] <= v[1]:
        return None
    return f"expected a pair [lo, hi] of integers with lo <= hi, got {v!r}"


_RADII = _schedule(-1, "radius", "(0, inf)")
_LENGTHS = _schedule(1, "n", "[1, inf)", integers=True)
_POSITIVE_REAL = _number("(0, inf)")


@dataclass(frozen=True)
class TaskSpec:
    """One task: its options with their defaults and types, how to run and summarise it.

    A default of None is resolved by the runner from the system (for example
    the box-counting scales); the report's config echo shows it as null.
    """

    options: dict  # option name -> (default, type); the keys are the task's config keys
    run: Callable  # ExperimentConfig -> (payload, parameters, flags)
    table: Callable  # payload -> (CSV header, CSV rows)
    headline: Callable  # payload -> one-line summary
    systems: tuple  # descriptors of the system families it runs on; the first is the default


@dataclass
class ExperimentConfig:
    """A validated config; ``options`` holds every option of the task, defaults filled in."""

    task: str
    seed: int
    system: dict
    oracle: dict
    options: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("config must be a JSON object")
        task = raw.get("task")
        if task not in TASKS:
            raise ConfigInvalid(f"field 'task': expected one of {sorted(TASKS)}, got {task!r}")
        typed = {"seed": (None, _int(0)), **TASKS[task].options}  # every task takes the seed
        allowed = {"task", "system", "oracle"} | set(typed)
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigInvalid(
                f"unknown key(s) for task {task!r}: {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        if "seed" not in raw:
            raise ConfigInvalid("field 'seed': required (no environment entropy is ever used)")
        options = {}
        for name, (default, check) in typed.items():
            options[name] = raw.get(name, default)
            error = check(options[name])
            if error:
                raise ConfigInvalid(f"field '{name}': {error}")
        seed = options.pop("seed")
        system = raw.get("system", dict(TASKS[task].systems[0]))
        _validate_descriptor(system, _SYSTEM_KEYS, "system")
        sys = _built("system", build_system, system)
        default = _default_oracle(sys)
        oracle = raw.get("oracle", default)
        _validate_descriptor(oracle, _ORACLE_KEYS, "oracle")
        if oracle["kind"] == default["kind"]:
            oracle = {**default, **oracle}  # a Bernoulli oracle without probs is the uniform one
        measure = _built("oracle", build_oracle, oracle)
        families = [_family(desc) for desc in TASKS[task].systems]
        if _family(system) not in families:
            raise ConfigInvalid(f"field 'system': task {task!r} runs on {', '.join(families)}, "
                                f"got {_family(system)}")
        _check_oracle(sys, measure)
        return ExperimentConfig(task=task, seed=seed, system=system, oracle=oracle,
                                options=options)


def _family(desc: dict) -> str:
    """A system's family: its kind, and for a full shift its metric."""
    kind = desc["kind"]
    return f"{kind}/{desc.get('metric', 'dyadic')}" if kind == "full_shift" else kind


def _built(label: str, build: Callable, desc: dict):
    """``build(desc)``, with a constructor's error raised as a config error."""
    try:
        return build(desc)
    except (TypeError, ValueError, NonInvertible) as exc:
        raise ConfigInvalid(f"field '{label}': {exc}") from exc


def _default_oracle(sys) -> dict:
    """Lebesgue on the torus; on a shift, the uniform Bernoulli oracle over its alphabet."""
    if isinstance(sys, FullShift):
        return {"kind": "bernoulli", "probs": [1.0 / sys.alphabet_size] * sys.alphabet_size}
    return {"kind": "lebesgue"}


def _check_oracle(sys, oracle):
    """Refuse an oracle that cannot serve the system: the torus takes Lebesgue only, and a
    shift takes a Bernoulli or Markov oracle over its own alphabet."""
    if isinstance(sys, FullShift) == isinstance(oracle, LebesgueTorus):
        raise ConfigInvalid(f"field 'oracle': a {type(oracle).__name__} oracle cannot serve "
                            f"a {type(sys).__name__} system")
    if isinstance(sys, FullShift) and oracle.alphabet_size != sys.alphabet_size:
        raise ConfigInvalid(f"field 'oracle': it has {oracle.alphabet_size} symbols, but the "
                            f"system's alphabet has {sys.alphabet_size}")


def _validate_descriptor(desc, table, label):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigInvalid(f"field '{label}': expected an object with a 'kind' key")
    kind = desc["kind"]
    if kind not in table:
        raise ConfigInvalid(f"field '{label}.kind': expected one of {sorted(table)}, got {kind!r}")
    unknown = sorted(set(desc) - table[kind])
    if unknown:
        raise ConfigInvalid(f"unknown key(s) in '{label}': {', '.join(unknown)}")


def _integral(v, rule: str) -> int:
    """``v`` as an int; bools and non-integral numbers are rejected, citing ``rule``."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{rule}, got {v!r}")
    return int(v)


def build_system(desc: dict, min_window: int = 0):
    """The system a descriptor names; a shift keeps at least ``min_window`` coordinates a side."""
    kind = desc["kind"]
    if kind == "toral_automorphism":
        m = desc.get("matrix", [[2, 1], [1, 1]])
        rule = "matrix entries must be integers"
        return ToralAutomorphism(tuple(tuple(_integral(v, rule) for v in row) for row in m))
    if kind == "torus_translation":
        sx, sy = desc.get("shift", [0.1234, 0.4321])
        return TorusTranslation((float(sx), float(sy)))
    metric_name = desc.get("metric", "dyadic")
    metric = DyadicMetric() if metric_name == "dyadic" else WeightedL2Metric(default_weights())
    if metric_name not in ("dyadic", "weighted"):
        raise ConfigInvalid(f"field 'system.metric': expected 'dyadic' or 'weighted', got {metric_name!r}")
    inverted = desc.get("inverted", False)
    if not isinstance(inverted, bool):
        raise ValueError(f"inverted must be true or false, got {inverted!r}")
    return FullShift(
        alphabet_size=_integral(desc.get("alphabet", 2), "alphabet must be an integer"),
        metric=metric,
        window=max(_integral(desc.get("window", DEFAULT_WINDOW), "window must be an integer"),
                   min_window),
        inverted=inverted,
    )


def build_oracle(desc: dict):
    kind = desc["kind"]
    if kind == "lebesgue":
        return LebesgueTorus()
    if kind == "bernoulli":
        # from_dict fills a shift's probs from _default_oracle; only a refused torus config lacks them
        return BernoulliIID(tuple(float(p) for p in desc.get("probs", BernoulliIID.probs)))
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


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Dispatch a validated config and assemble the deterministic report."""
    t0 = time.perf_counter()
    try:
        payload, parameters, flags = TASKS[cfg.task].run(cfg)
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
                **cfg.options,
            }
        ),
        parameters=_jsonable(parameters),
        payload=_jsonable(payload),
        flags=list(flags),
        meta={"toolkit_version": __version__, "wall_clock_s": wall},
    )


# ---------------------------------------------------------------------------
# task runners: each returns (payload, parameters, flags)
# ---------------------------------------------------------------------------


def _check_radii(sys, radii):
    """Reject torus probe radii at or below the resolution floor, before any sampling.

    Torus probe magnitudes are drawn upward from the floor, so below it no
    probe starts inside the ball and the task could only fail.  (A shift's
    flip probes still work somewhat below its conservative floor, and a
    radius no flip depth reaches fails there as ``ScaleUnderflow``.)
    """
    if not isinstance(sys, (ToralAutomorphism, TorusTranslation)):
        return
    floor = resolution_floor(sys)
    low = [r for r in radii if r <= floor]
    if low:
        raise ConfigInvalid(f"field 'r_schedule': radius {low[0]!r} lies at or below this system's "
                            f"resolution floor {floor:.6g}")


def _check_hyperbolic(sys):
    """Reject a toral matrix without an expanding direction, before any sampling.

    With det 1 the map is hyperbolic iff |trace| > 2, with det -1 iff trace != 0;
    otherwise there is no unstable line to sample and log(lambda) is not the entropy.
    """
    if not isinstance(sys, ToralAutomorphism):
        return
    trace = sys.matrix[0][0] + sys.matrix[1][1]
    hyperbolic = abs(trace) > 2 if sys.det == 1 else trace != 0
    if not hyperbolic:
        raise ConfigInvalid(f"field 'system.matrix': {[list(row) for row in sys.matrix]} is not "
                            f"hyperbolic (trace {trace}, det {sys.det}); this task needs "
                            f"|trace| > 2 at det 1 or trace != 0 at det -1")


def _default_scales(sys, opts):
    """``dimension``'s and ``verify``'s default box-counting scales, refused before any sampling
    when ``cloud_budget`` leaves fewer than 4 (a dyadic cloud resolves 2^-k only while
    a^k <= cloud_budget)."""
    delta = opts["delta"] if opts["delta"] is not None else default_delta(sys)
    scales = default_scales(sys, delta, opts["cloud_budget"])
    if len(scales) < 4:
        raise ConfigInvalid(f"field 'cloud_budget': {opts['cloud_budget']} resolves only {len(scales)} "
                            f"default scales on {sys.alphabet_size} symbols (2^-k needs "
                            f"{sys.alphabet_size}^k <= cloud_budget), need 4; raise it or give 'scales'")
    return scales


def _with_window(sys, params: dict) -> dict:
    """``params`` plus the window a shift ran on: ``build_system`` raises the configured
    window to the task's minimum, and the config echo shows the configured one."""
    return {**params, "window": sys.window} if isinstance(sys, FullShift) else params


def _run_chi(cfg: ExperimentConfig):
    rs, ns = cfg.options["r_schedule"], cfg.options["n_schedule"]
    sys = build_system(cfg.system, max(ns) + 64)
    _check_radii(sys, rs)
    oracle = build_oracle(cfg.oracle)
    est = estimate_chi(sys, oracle, seed=cfg.seed, **cfg.options)
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
    if est.diagnostics.get("integrability_guard_growth", False):
        flags.append("log L_1 tail growth exceeded the integrability guard")
    params = {"r_schedule": rs, "n_schedule": ns, "probe_floor": "log-uniform above resolution floor"}
    return payload, _with_window(sys, params), flags


def _chi_table(p):
    lam = {row["r"]: row["Lambda"] for row in p["per_r"]}
    rows = [
        [s["r"], n, v, lam[s["r"]]]
        for s in p["series"]
        for n, v in zip(s["n"], s["phi_over_n"])
    ]
    return ["r", "n", "phi_n_over_n", "Lambda_r"], rows


def _run_entropy(cfg: ExperimentConfig):
    opts = cfg.options
    oracle = build_oracle(cfg.oracle)
    lo, hi = opts["alpha_window"]
    est = block_entropy_rate(oracle, (lo, hi), opts["n"])
    payload = {
        "value": est.value,
        "mode": est.mode,
        "n": est.n_used,
        "stderr": est.stderr,
        "closed_form_rate": entropy_rate(oracle),
    }
    return payload, {"alpha_window": [lo, hi]}, []


def _run_brin_katok(cfg: ExperimentConfig):
    opts = dict(cfg.options)
    if opts["mode"] == "exact_cylinder" and cfg.system["kind"] != "full_shift":
        raise ConfigInvalid("field 'mode': 'exact_cylinder' needs a full_shift system; "
                            "the torus runs 'monte_carlo' only")
    sys = build_system(cfg.system, max(opts["n_schedule"]) + 64)
    oracle = build_oracle(cfg.oracle)
    x = sample_point(sys, oracle, cfg.seed, opts.pop("point_index"))
    flags = []
    try:
        rep = brin_katok_local(sys, oracle, x, seed=cfg.seed, **opts)
    except HitStarvation as exc:
        flags.append(f"hit starvation: {exc}")
        payload = {"hit_starvation": True, "message": str(exc)}
        return payload, _with_window(sys, {"min_hits": opts["min_hits"]}), flags
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
        "min_hits": opts["min_hits"],
        "ball_convention": "open (strict inequality)",
        "proxy": "min/max over trailing half of the n schedule",
    }
    return payload, _with_window(sys, params), flags


def _brin_katok_table(p):
    if p.get("hit_starvation"):
        return ["status"], [["hit_starvation"]]
    rows = [
        [rec["eps"], n, v]
        for rec in p["per_eps"]
        for n, v in zip(p["n_schedule"], rec["values"])
    ]
    return ["eps", "n", "value"], rows


def _brin_katok_headline(p):
    if p.get("hit_starvation"):
        return "hit starvation (see flags)"
    extra = p.get("extrapolated")
    tail = f", intercept {extra:.6f}" if isinstance(extra, float) else ""
    return f"lower {p['lower']:.4f} <= upper {p['upper']:.4f}{tail}"


def _run_partition_build(cfg: ExperimentConfig):
    opts = cfg.options
    horizon = opts["horizon"]
    sys = build_system(cfg.system, 8 * (opts["depth"] + horizon))
    oracle = build_oracle(cfg.oracle)
    try:
        plan = construct_subordinate_partition(
            sys, oracle,
            delta=opts["delta"],
            depth=opts["depth"],
            past_depth=opts["past_depth"],
            k_max=opts["k_max"],
            margin=opts["margin"],
        )
    except ValueError as exc:  # the only one left: diam(beta_1) exceeds delta
        raise ConfigInvalid(f"field 'delta': {exc}") from exc
    x = sample_point(sys, oracle, cfg.seed, opts["point_index"])
    atom = check_atom_in_unstable(
        sys, plan, x, horizon=horizon, pairs=opts["pairs"], seed=cfg.seed
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
    return payload, _with_window(sys, params), flags


def _partition_build_table(p):
    rows = [
        [q + 1, k, c, ch]
        for q, (k, c, ch) in enumerate(zip(p["plan"]["ks"], p["c_values"], p["c_values_half_past"]))
    ]
    return ["level", "k", "c_value", "c_value_half_past"], rows


def _run_smb_check(cfg: ExperimentConfig):
    opts = cfg.options
    ns = opts["n_schedule"]
    if opts["shift_k"] is not None and opts["shift_k"] >= ns[0]:
        raise ConfigInvalid(f"field 'shift_k': must be below every n_schedule entry, "
                            f"got {opts['shift_k']} with n_schedule {ns!r}")
    sys = build_system(cfg.system, max(ns) + 64)
    oracle = build_oracle(cfg.oracle)
    x = sample_point(sys, oracle, cfg.seed, opts["point_index"])
    rep = local_smb_check(
        sys, oracle, x, ns,
        past_depth=opts["past_depth"],
        paths=opts["paths"],
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
    if opts["shift_k"] is not None:
        payload["shift_lemma"] = asdict(shift_lemma_check(oracle, x, opts["shift_k"], ns))
    params = {"past_depth": rep.past_depth, "past_convention": "strict past -P..-1"}
    return payload, _with_window(sys, params), []


def _smb_check_headline(p):
    line = f"pathwise rate rel err {p['rel_error']:.2e}"
    if "shift_lemma" in p:
        line += f", shifted-block gap {p['shift_lemma']['rel_gap']:.2e}"
    return line


def _run_dimension(cfg: ExperimentConfig):
    opts = cfg.options
    sys = build_system(cfg.system, 128)
    _check_hyperbolic(sys)
    oracle = build_oracle(cfg.oracle)
    delta = opts["delta"] if opts["delta"] is not None else default_delta(sys)
    scales = opts["scales"]
    if scales is None:
        scales = _default_scales(sys, opts)
        floor = resolution_floor(sys)
        if sum(s > floor for s in scales) < 4:
            raise ConfigInvalid(f"field 'scales': fewer than 4 default scales lie above this system's "
                                f"resolution floor {floor:.6g}; give 'scales' explicitly")
    x = sample_point(sys, oracle, cfg.seed, opts["point_index"])
    cloud = sample_unstable_set(
        sys, x, delta,
        back_horizon=opts["back_horizon"],
        budget=opts["cloud_budget"],
        admission_tolerance=opts["admission_tolerance"],
    )
    est = box_counting_dimension(cloud, scales, sys=sys)
    flags = [] if est.monotone else ["box counts not monotone across scales"]
    if cloud.admitted == 1:
        flags.append("only the base point was admitted: the slope measures no local unstable set")
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
    return payload, _with_window(sys, params), flags


def _run_verify(cfg: ExperimentConfig):
    sys = build_system(cfg.system, 192)
    _check_hyperbolic(sys)
    if cfg.options["r_schedule"] is not None:
        _check_radii(sys, cfg.options["r_schedule"])
    if cfg.options["scales"] is None:
        _default_scales(sys, cfg.options)  # verify_main_inequality takes the same defaults
    oracle = build_oracle(cfg.oracle)
    rep = verify_main_inequality(sys, oracle, seed=cfg.seed, **cfg.options)
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
        "slack_tolerance": _VERIFY_PARAMETERS["slack_tolerance"].default,
        "aggregation": "median over base points",
    }
    return payload, _with_window(sys, params), list(rep.flags)


def _verify_table(p):
    rows = [[k, p[k]] for k in ("h", "chi", "ratio", "dim", "slack", "holds", "regime")]
    rows += [[f"point_{i}_slope", s] for i, s in enumerate(p["per_point_slopes"])]
    return ["metric", "value"], rows


def _verify_headline(p):
    if p["regime"] == "divergence":
        return (f"chi below floor; cover slopes strictly increasing = "
                f"{p['divergence']['strictly_increasing']}")
    return (f"dim {p['dim']:.4f} vs h/chi {p['ratio']:.4f}, "
            f"slack {p['slack']:+.4f}, holds = {p['holds']}")


def _run_appendix_hilbert(cfg: ExperimentConfig):
    opts = cfg.options
    sys = build_system(cfg.system, 256)
    window = sys.window
    oracle = build_oracle(cfg.oracle)
    w = sys.metric.weights
    ks = opts["norm_ks"]
    rates = [math.log(operator_norm_power(w, k, window=window)) / k for k in ks]
    tail = [r for k, r in zip(ks, rates) if k >= 50]
    monotone_beyond_50 = all(b < a for a, b in zip(tail, tail[1:]))
    chi_est = estimate_chi(
        sys, oracle, opts["r_schedule"], opts["n_schedule"],
        points=opts["points"],
        probes=opts["probes"],
        seed=cfg.seed,
    )
    delta = opts["delta"]
    cover = unstable_cover_counts(sys, delta, octaves=opts["octaves"])
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
    eps = opts["eps"]
    alphabet = opts["alphabet"]
    dc = delta_constant(eps, alphabet)
    rows = []
    crude_failures = []
    for n in opts["n_values"]:
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


def _hamming_bounds_table(p):
    header = ["n", "m", "log_open_count", "stirling_log_bound", "crude_holds", "stirling_holds"]
    return header, [[r[c] for c in header] for r in p["rows"]]


# ---------------------------------------------------------------------------
# the task registry
# ---------------------------------------------------------------------------

_CAT = {"kind": "toral_automorphism", "matrix": ((2, 1), (1, 1))}
_TRANSLATION = {"kind": "torus_translation"}
_DYADIC = {"kind": "full_shift", "alphabet": 2, "metric": "dyadic"}
_WEIGHTED = {"kind": "full_shift", "alphabet": 2, "metric": "weighted"}
_SHIFTS = (_DYADIC, _WEIGHTED)

# verify's defaults are those of verify_main_inequality, read from its signature
_VERIFY_PARAMETERS = inspect.signature(verify_main_inequality).parameters
_VERIFY_OPTIONS = {
    "direction": _one_of("forward", "backward"), "delta": _nullable(_POSITIVE_REAL),
    "base_points": _int(1), "scales": _nullable(_RADII), "r_schedule": _nullable(_RADII),
    "n_schedule": _LENGTHS, "chi_points": _int(1), "chi_probes": _int(1),
    "chi_floor": _number("[0, inf)"), "back_horizon": _int(0), "cloud_budget": _int(100),
    "past_depth": _int(1),
}

TASKS = {
    "chi": TaskSpec(
        run=_run_chi, systems=(_CAT, _TRANSLATION, *_SHIFTS), table=_chi_table,
        options={"r_schedule": ((0.2, 0.1, 0.05), _RADII),
                 "n_schedule": (tuple(range(2, 25, 2)), _LENGTHS),
                 "points": (256, _int(1)), "probes": (128, _int(1))},
        headline=lambda p: f"chi = {p['chi']:.6f} from {p['sample_count']} points",
    ),
    "entropy": TaskSpec(
        run=_run_entropy, systems=_SHIFTS,
        # one mode, kept because configs name it: atoms within ATOM_BUDGET, the chain rule past it
        options={"n": (16, _int(1)), "mode": ("exact", _one_of("exact")),
                 "alpha_window": ((0, 0), _int_window)},
        table=lambda p: (["n", "value", "stderr", "mode"], [[p["n"], p["value"], p["stderr"], p["mode"]]]),
        headline=lambda p: (f"rate = {p['value']:.6f} vs closed form {p['closed_form_rate']:.6f} "
                            f"(n = {p['n']})"),
    ),
    "brin-katok": TaskSpec(
        run=_run_brin_katok, systems=(_DYADIC, _CAT),  # the cat map: monte_carlo only
        options={"eps_schedule": ((0.25, 0.0625), _schedule(-1, "eps", "(0, 1]")),
                 "n_schedule": ((10, 20, 30, 40), _LENGTHS),
                 "mode": ("exact_cylinder", _one_of("exact_cylinder", "monte_carlo")),
                 "samples": (100_000, _int(1)), "min_hits": (50, _int(1)),
                 "point_index": (0, _int(0))},
        table=_brin_katok_table, headline=_brin_katok_headline,
    ),
    "partition-build": TaskSpec(
        run=_run_partition_build, systems=_SHIFTS, table=_partition_build_table,
        options={"delta": (0.5, _POSITIVE_REAL), "depth": (3, _int(1)), "past_depth": (8, _int(1)),
                 "k_max": (16, _int(0)), "margin": (0.1, _number("[0, 1)")), "horizon": (50, _int(0)),
                 "pairs": (100, _int(1)), "point_index": (0, _int(0))},
        headline=lambda p: (f"translation times {p['plan']['ks']}, sup surplus {p['sup_c']:.6f}, "
                            f"atom violations {p['atom_check']['violations']}"),
    ),
    "smb-check": TaskSpec(
        run=_run_smb_check, systems=_SHIFTS, headline=_smb_check_headline,
        # shift_k None skips the dropped-prefix comparison
        options={"n_schedule": ((100, 400, 1000, 4000, 10_000), _LENGTHS),
                 "past_depth": (8, _int(1)), "paths": (200, _int(1)), "point_index": (0, _int(0)),
                 "shift_k": (None, _nullable(_int(1)))},
        table=lambda p: (["n", "mean_ratio"], [[n, v] for n, v in zip(p["n_schedule"], p["mean_per_n"])]),
    ),
    "dimension": TaskSpec(
        run=_run_dimension, systems=(_CAT, *_SHIFTS),
        options={"delta": (None, _nullable(_POSITIVE_REAL)), "scales": (None, _nullable(_RADII)),
                 "back_horizon": (40, _int(0)), "cloud_budget": (10_000, _int(100)),
                 "point_index": (0, _int(0)), "admission_tolerance": (None, _nullable(_POSITIVE_REAL))},
        table=lambda p: (["scale", "count", "log_scale", "log_count"],
                         [[s, c, math.log(s), math.log(c)] for s, c in zip(p["scales"], p["counts"])]),
        headline=lambda p: f"box slope {p['slope']:.4f} from {p['admitted']} admitted points",
    ),
    "verify": TaskSpec(
        run=_run_verify, systems=(_CAT, *_SHIFTS), table=_verify_table, headline=_verify_headline,
        options={k: (_VERIFY_PARAMETERS[k].default, t) for k, t in _VERIFY_OPTIONS.items()},
    ),
    "appendix-hilbert": TaskSpec(
        run=_run_appendix_hilbert, systems=(_WEIGHTED,),
        options={"norm_ks": ((25, 50, 75, 100, 125, 150, 175, 200),
                             _schedule(1, "k", "[1, inf)", integers=True)),
                 "n_schedule": ((8, 16, 32, 64, 128), _LENGTHS),
                 "r_schedule": ((0.4, 0.3, 0.2), _RADII),
                 "delta": (0.5, _POSITIVE_REAL), "octaves": (4, _int(1)), "points": (128, _int(1)),
                 "probes": (64, _int(1))},
        table=lambda p: (["k", "norm_rate"], [[k, r] for k, r in zip(p["norm_ks"], p["norm_rates"])]),
        headline=lambda p: (f"chi = {p['chi']:.4f}, norm rate at k = {p['norm_ks'][-1]} is "
                            f"{p['rate_at_max_k']:.4f}, "
                            f"cover increasing = {p['cover']['strictly_increasing']}"),
    ),
    "hamming-bounds": TaskSpec(
        run=_run_hamming_bounds, table=_hamming_bounds_table,
        systems=(_DYADIC, _CAT, _TRANSLATION, _WEIGHTED),  # it reads no system, so it takes any
        # the counting constant needs 0 < 2 sqrt(eps) < 1
        options={"eps": (0.04, _number("(0, 0.25)")), "alphabet": (2, _int(2)),
                 "n_values": (tuple(range(12, 31)), _LENGTHS)},
        headline=lambda p: (f"{len(p['rows'])} sizes checked, stirling holds for all = "
                            f"{all(r['stirling_holds'] for r in p['rows'])}, "
                            f"crude failures {p['crude_failures']}"),
    ),
}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


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
        path.write_text(json.dumps(asdict(report), sort_keys=True, indent=2) + "\n")
        written.append(path)
    if "csv" in formats:
        header, rows = TASKS[report.task].table(report.payload)
        path = out / f"{report.task}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)
    return written
