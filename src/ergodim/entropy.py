"""Partition entropies and local entropy of Bowen balls.

Exact routes enumerate cylinder atoms or use closed-form log measures; Monte
Carlo routes carry standard errors.  Local entropy follows the two-sided
recipe: for a schedule of radii and times, form -log mu(B_n(x, eps)) / n and
report liminf/limsup proxies as min/max over the trailing half of the time
schedule, per radius, evaluated at the smallest reliable radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AtomBudgetExceeded,
    HitStarvation,
    UnsupportedOracle,
    ZeroMassAtom,
)
from .measures import (
    ATOM_BUDGET,
    BernoulliIID,
    MarkovStationary,
    MeasureOracle,
    fixed_coords_log_measure,
    rng_for,
    sample_symbol_block,
    shannon_entropy,
    word_distribution,
)
from .partitions import CylinderPartition, orbit_join, refine
from .systems import (
    FIXED_DENOM,
    DyadicMetric,
    FullShift,
    ToralAutomorphism,
    TorusPoint,
    dyadic_open_depth,
    torus_norm_rows,
)

__all__ = [
    "EntropyEstimate",
    "conditional_entropy",
    "block_entropy_rate",
    "BrinKatokReport",
    "brin_katok_local",
    "dyadic_agreement_radius",
    "extrapolate_intercept",
]


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value in nats with provenance of how it was computed."""

    value: float
    mode: str  # "exact" or "monte_carlo"
    n_used: int
    sample_count: int
    stderr: float | None = None

    def __post_init__(self):
        if self.value < 0.0 and self.value > -1e-12:
            object.__setattr__(self, "value", 0.0)
        if self.value < 0.0 and not math.isinf(self.value):
            raise ValueError(f"entropy must be >= 0, got {self.value}")


def _dist_entropy(p: np.ndarray) -> float:
    return max(shannon_entropy(p), 0.0)


def conditional_entropy(
    alpha: CylinderPartition,
    cond: CylinderPartition | None,
    oracle: MeasureOracle,
    budget: int = ATOM_BUDGET,
) -> EntropyEstimate:
    """Exact H(alpha | cond) by atom enumeration: H(alpha v cond) - H(cond).

    The joint distribution over the union coordinate set is exactly the
    distribution over (alpha-atom, cond-atom) pairs, so the difference of
    entropies is the pair sum of -mu(A and C) log(mu(A and C)/mu(C)).
    """
    if cond is None:
        dist = word_distribution(oracle, list(alpha.coords), budget=budget)
        value = _dist_entropy(dist)
        return EntropyEstimate(value=value, mode="exact", n_used=len(alpha.coords), sample_count=dist.size)
    joint = refine(alpha, cond)
    if joint.atom_count > budget:
        raise AtomBudgetExceeded(
            f"{joint.atom_count} atom pairs exceed the budget of {budget}"
        )
    j_dist = word_distribution(oracle, list(joint.coords), budget=budget)
    c_dist = word_distribution(oracle, list(cond.coords), budget=budget)
    value = max(_dist_entropy(j_dist) - _dist_entropy(c_dist), 0.0)
    return EntropyEstimate(value=value, mode="exact", n_used=len(joint.coords), sample_count=j_dist.size)


def block_entropy_rate(
    oracle: MeasureOracle,
    alpha: CylinderPartition,
    n: int,
    mode: str = "auto",
    samples: int = 200_000,
    seed: int = 0,
    budget: int = ATOM_BUDGET,
) -> EntropyEstimate:
    """H(alpha_0^{n-1}) / n: the n-block entropy rate of the orbit join.

    Exact when the joined atom count fits the budget; otherwise Monte Carlo
    with plug-in word frequencies (biased low; stderr reported).  ``mode`` is
    "auto", "exact", or "monte_carlo".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block = orbit_join(alpha, 0, n - 1)
    fits = block.atom_count <= budget
    if mode not in ("auto", "exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and not fits:
        raise AtomBudgetExceeded(f"{block.atom_count} atoms exceed the budget of {budget}")
    if mode in ("auto", "exact") and fits:
        dist = word_distribution(oracle, list(block.coords), budget=budget)
        return EntropyEstimate(
            value=_dist_entropy(dist) / n, mode="exact", n_used=n, sample_count=dist.size
        )
    # Monte Carlo: the coordinates form a contiguous window for contiguous
    # alpha; stationarity lets us sample the block law directly.
    coords = block.coords
    span = coords[-1] - coords[0] + 1
    if span != len(coords):
        raise UnsupportedOracle("Monte Carlo block sampling needs a contiguous coordinate window")
    rng = rng_for(seed, 7, n)
    rows = sample_symbol_block(oracle, span, samples, rng)
    _, inverse, counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    neg_log_f = -np.log(counts[inverse] / samples)
    value = float(neg_log_f.mean()) / n
    stderr = float(neg_log_f.std(ddof=1)) / math.sqrt(samples) / n
    return EntropyEstimate(
        value=max(value, 0.0), mode="monte_carlo", n_used=n, sample_count=samples, stderr=stderr
    )


# ---------------------------------------------------------------------------
# local entropy of Bowen balls
# ---------------------------------------------------------------------------


def dyadic_agreement_radius(eps: float) -> int:
    """Largest rho with: dyadic distance < eps iff agreement on all |i| <= rho.

    d(y, z) < eps holds iff the nearest mismatch j satisfies 2^{-j} < eps,
    i.e. j >= rho + 1 with rho = (smallest m with 2^{-m} < eps) - 1.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    return dyadic_open_depth(eps) - 1


@dataclass
class BrinKatokReport:
    lower: EntropyEstimate
    upper: EntropyEstimate
    n_schedule: list
    chosen_eps: float
    mode: str
    per_eps: list  # dicts: {eps, rho?, values, hits?, lower, upper}
    extrapolated: float | None = None


def extrapolate_intercept(ns, values) -> float:
    """Least-squares intercept of v against 1/n (the n -> infinity limit)."""
    inv = 1.0 / np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    A = np.stack([np.ones_like(inv), inv], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    return float(coef[0])


def _bk_exact_cylinder(sys, oracle, x, eps_schedule, ns):
    per_eps = []
    for eps in eps_schedule:
        rho = dyadic_agreement_radius(eps)
        vals = []
        for n in ns:
            coords = list(range(-rho, n + rho))
            logm = fixed_coords_log_measure(oracle, coords, x.coords(coords))
            if logm == -math.inf:
                raise ZeroMassAtom(f"Bowen cylinder at n={n}, eps={eps} has measure zero")
            vals.append(-logm / n)
        per_eps.append(_trailing_range(eps, vals, ns, rho=rho, trailing_n=ns[len(ns) // 2 :]))
    return per_eps


def _bk_mc_shift(sys: FullShift, oracle, x, eps_schedule, ns, samples, seed):
    rhos = [dyadic_agreement_radius(e) for e in eps_schedule]
    rho_max = max(rhos)
    lo, hi = -rho_max, ns[-1] - 1 + rho_max
    span = hi - lo + 1
    rng = rng_for(seed, 11)
    rows = sample_symbol_block(oracle, span, samples, rng)
    target = np.asarray(x.coords(list(range(lo, hi + 1))), dtype=rows.dtype)
    mism = np.cumsum(rows != target[None, :], axis=1, dtype=np.int32)  # mismatches in cols 0..j

    def window_hits(a, b):  # columns for coords a..b inclusive
        ca, cb = a - lo, b - lo
        base = mism[:, ca - 1] if ca >= 1 else 0
        return int((mism[:, cb] - base == 0).sum())

    return [_bk_mc_record(eps, [window_hits(-rho, n - 1 + rho) for n in ns], ns, samples, rho=rho)
            for eps, rho in zip(eps_schedule, rhos)]


def _bk_mc_torus(sys: ToralAutomorphism, x: TorusPoint, eps_schedule, ns, samples, seed):
    rng = rng_for(seed, 12)
    pts = rng.integers(0, FIXED_DENOM, size=(samples, 2), dtype=np.int64)
    xi = np.array(x.ints(), dtype=np.int64)
    A = np.array(sys.matrix, dtype=np.int64)
    run_max = np.zeros(samples)
    per_n_max = {}
    cur = pts.copy()
    cur_x = xi.copy()
    n_set = set(ns)
    for k in range(ns[-1]):
        d = torus_norm_rows((cur - cur_x[None, :]) % FIXED_DENOM / FIXED_DENOM)
        run_max = np.maximum(run_max, d)
        if (k + 1) in n_set:
            per_n_max[k + 1] = run_max.copy()
        cur = (cur @ A.T) % FIXED_DENOM
        cur_x = (A @ cur_x) % FIXED_DENOM
    return [_bk_mc_record(eps, [int((per_n_max[n] < eps).sum()) for n in ns], ns, samples)
            for eps in eps_schedule]


def _trailing_range(eps, vals, ns, **extra):
    """One radius: its values over the n schedule and their min/max over the trailing half."""
    tail = vals[len(ns) // 2 :]
    return {"eps": eps, **extra, "values": vals, "lower": min(tail), "upper": max(tail)}


def _bk_mc_record(eps, hits, ns, samples, **extra):
    """One radius of a Monte Carlo run: -log(hit frequency) / n and its trailing-half range."""
    vals = [(-math.log(h / samples) / n) if h > 0 else math.inf for h, n in zip(hits, ns)]
    return _trailing_range(eps, vals, ns, **extra, hits=hits, min_tail_hits=min(hits[len(ns) // 2 :]))


def brin_katok_local(
    sys,
    oracle,
    x,
    eps_schedule,
    n_schedule,
    mode: str = "exact_cylinder",
    samples: int = 100_000,
    seed: int = 0,
    min_hits: int = 50,
) -> BrinKatokReport:
    """Two-sided local entropy proxies from -log mu(B_n(x, eps)) / n.

    Bowen balls use the strict inequality d(T^k x, T^k y) < eps for all
    0 <= k <= n-1.  In exact-cylinder mode (dyadic shifts) the ball is the
    agreement cylinder on coordinates [-rho, n-1+rho] and its measure is
    computed in closed form; Monte Carlo mode estimates the measure by hit
    frequency and only trusts radii whose trailing-half hit counts reach
    ``min_hits``.  The reported estimates are taken at the smallest reliable
    radius; per-radius curves are returned so the eps -> 0 trend is visible.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule or any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be nonempty and strictly decreasing")
    ns = sorted(int(n) for n in n_schedule)
    if not ns or ns[0] < 1:
        raise ValueError("n schedule must be nonempty with positive entries")

    if mode == "exact_cylinder":
        if not (isinstance(sys, FullShift) and isinstance(sys.metric, DyadicMetric)):
            raise UnsupportedOracle("exact-cylinder mode requires a dyadic-metric shift")
        if not isinstance(oracle, (BernoulliIID, MarkovStationary)):
            raise UnsupportedOracle("exact-cylinder mode requires a Bernoulli or Markov oracle")
        per_eps = _bk_exact_cylinder(sys, oracle, x, eps_schedule, ns)
        chosen = per_eps[-1]
        sample_count = 0
        stderr = None
    elif mode == "monte_carlo":
        if isinstance(sys, FullShift) and isinstance(sys.metric, DyadicMetric):
            per_eps = _bk_mc_shift(sys, oracle, x, eps_schedule, ns, samples, seed)
        elif isinstance(sys, ToralAutomorphism):
            per_eps = _bk_mc_torus(sys, x, eps_schedule, ns, samples, seed)
        else:
            raise UnsupportedOracle(f"no Monte Carlo local entropy for {type(sys).__name__}")
        reliable = [rec for rec in per_eps if rec["min_tail_hits"] >= min_hits]
        if not reliable:
            raise HitStarvation(
                f"no radius reached {min_hits} hits on the trailing half of the schedule"
            )
        chosen = reliable[-1]  # schedule is decreasing: last reliable = smallest eps
        sample_count = samples
        h = max(chosen["min_tail_hits"], 1)
        p_hat = h / samples
        stderr = math.sqrt(max(1.0 - p_hat, 0.0) / (samples * p_hat)) / ns[-1]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    lower = EntropyEstimate(
        value=chosen["lower"],
        mode="exact" if mode == "exact_cylinder" else "monte_carlo",
        n_used=ns[-1],
        sample_count=sample_count,
        stderr=stderr,
    )
    upper = replace(lower, value=chosen["upper"])
    extrap = None
    if mode == "exact_cylinder":
        extrap = extrapolate_intercept(ns, chosen["values"])
    return BrinKatokReport(
        lower=lower,
        upper=upper,
        n_schedule=ns,
        chosen_eps=chosen["eps"],
        mode=mode,
        per_eps=per_eps,
        extrapolated=extrap,
    )
