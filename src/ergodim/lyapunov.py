"""Maximal Lyapunov exponent via subadditive averages of log L_n^r.

The estimator follows the subadditive structure of phi_n = integral of
log+ L_n^r: by Fekete's lemma the limit of phi_n / n equals inf_n phi_n / n,
so the best available finite-n estimate is the minimum of phi_n / n over the
schedule.  The scale r enters through a decreasing schedule; the reported
value is taken at the smallest scale, and monotonicity across scales is a
diagnostic (the underlying quantity is nonincreasing as r shrinks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySchedule, NoProbeAccepted
from .geometry import lipschitz_table
from .measures import sample_points
from .systems import SystemDescriptor

__all__ = [
    "SubadditiveSeries",
    "fekete_limit",
    "ChiEstimate",
    "estimate_chi",
]


@dataclass
class SubadditiveSeries:
    """Averages phi_n over an increasing n-schedule, at a fixed scale r."""

    n_schedule: list
    values: list  # phi_n, same length as n_schedule
    r: float

    def __post_init__(self):
        ns = list(self.n_schedule)
        if not ns:
            raise EmptySchedule("n schedule is empty")
        if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n schedule must be strictly increasing and >= 1")
        if len(self.values) != len(ns):
            raise ValueError("values and n_schedule must have equal length")


def fekete_limit(series: SubadditiveSeries) -> float:
    """min_n phi_n / n over the schedule: the finite-sample stand-in for inf_n.

    For a genuinely subadditive sequence this is an upper bound of the limit
    and never exceeds phi_1 / 1.
    """
    slopes = [v / n for v, n in zip(series.values, series.n_schedule)]
    return float(min(slopes))


@dataclass
class ChiEstimate:
    """Estimate of the maximal Lyapunov exponent with per-scale diagnostics."""

    value: float
    per_r: list  # (r, Lambda_r)
    series: list  # SubadditiveSeries per r
    n_schedule: list
    sample_count: int
    diagnostics: dict = field(default_factory=dict)


def estimate_chi(
    sys: SystemDescriptor,
    oracle,
    r_schedule,
    n_schedule,
    points: int = 256,
    probes: int = 128,
    seed: int = 0,
    threads: int = 1,
) -> ChiEstimate:
    """Estimate chi = lim (1/n) integral log+ L_n^r dmu at shrinking scales.

    Sample points are seeded per index; probe blocks are seeded per
    (scale, point), so the computation is order-independent and reproducible,
    and ``threads`` (the chunks ``lipschitz_table`` maps over a thread pool)
    changes no result.
    Points where no probe lands in the Bowen ball are excluded from the
    average and counted in the diagnostics; an entire empty (r, n) cell
    raises ``NoProbeAccepted``.
    """
    rs = [float(r) for r in r_schedule]
    ns = [int(n) for n in n_schedule]
    if not rs:
        raise EmptySchedule("r schedule is empty")
    if any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r schedule must be strictly decreasing")
    xs = sample_points(sys, oracle, seed, points)

    per_r = []
    all_series = []
    excluded = {}
    max_log_l1 = -math.inf
    max_log_l1_half = -math.inf
    for ri, r in enumerate(rs):
        values, accepted = lipschitz_table(sys, xs, r, ns, probes, seed, ri, threads=threads)
        phi = []
        for j, n in enumerate(ns):
            col = values[:, j]
            good = ~np.isnan(col)
            if not good.any():
                raise NoProbeAccepted(f"no probe accepted for any point at (r={r}, n={n})")
            excluded[(r, n)] = int((~good).sum())
            phi.append(float(np.mean(np.log(np.maximum(col[good], 1.0)))))
        series = SubadditiveSeries(ns, phi, r)
        all_series.append(series)
        per_r.append((r, fekete_limit(series)))
        if ri == len(rs) - 1 and 1 in ns:
            col = values[:, ns.index(1)]
            good = ~np.isnan(col)
            logs = np.log(np.maximum(col[good], 1.0))
            if logs.size:
                max_log_l1 = float(np.max(logs))
                half = logs[: max(1, logs.size // 2)]
                max_log_l1_half = float(np.max(half))

    value = per_r[-1][1]
    slack = 0.05
    monotone = all(b <= a + slack for (_, a), (_, b) in zip(per_r, per_r[1:]))
    last_series = all_series[-1]
    last_slope = last_series.values[-1] / last_series.n_schedule[-1]
    diagnostics = {
        "monotone_in_r": monotone,
        "monotone_slack": slack,
        "last_slope": float(last_slope),
        "fluctuation": float(last_slope - value),
        "excluded_counts": {f"r={r},n={n}": c for (r, n), c in excluded.items() if c},
        "max_log_l1": max_log_l1,
        "integrability_guard_growth": bool(
            math.isfinite(max_log_l1) and max_log_l1 > max_log_l1_half + 1.0
        ),
    }
    return ChiEstimate(
        value=value,
        per_r=per_r,
        series=all_series,
        n_schedule=ns,
        sample_count=points,
        diagnostics=diagnostics,
    )
