"""Subadditive averaging of log+ L_n^r into the maximal-exponent estimate.

Ground truths: for linear torus maps the stretch is |A^n| = lambda^n, so
every phi_n / n equals log lambda; isometries give exactly zero; the dyadic
doubling shift gives log 2; additive test sequences exercise the min-over-
schedule rule directly.
"""
import concurrent.futures
import math
import os

import pytest

from ergodim import geometry, measures
from ergodim.errors import EmptySchedule
from ergodim.lyapunov import ChiEstimate, SubadditiveSeries, estimate_chi, fekete_limit
from ergodim.systems import ToralAutomorphism
from tests.conftest import LOG2, LOG_LAM


# ---------------------------------------------------------------------------
# the schedule minimum
# ---------------------------------------------------------------------------


def test_additive_sequence_recovers_slope():
    ns = list(range(1, 65))
    series = SubadditiveSeries(ns, [0.37 * n for n in ns], r=0.1)
    assert fekete_limit(series) == pytest.approx(0.37, abs=1e-15)


def test_log_correction_within_documented_bound():
    # phi_n = c n + log n: the min over n <= 64 sits within (log 64)/64 of c
    c = 0.81
    ns = list(range(1, 65))
    series = SubadditiveSeries(ns, [c * n + math.log(n) for n in ns], r=0.1)
    got = fekete_limit(series)
    assert c <= got <= c + math.log(64) / 64
    assert got - c <= 0.065


def test_zero_sequence_gives_zero():
    series = SubadditiveSeries([1, 2, 3], [0.0, 0.0, 0.0], r=1.0)
    assert fekete_limit(series) == 0.0


def test_never_exceeds_first_slope():
    series = SubadditiveSeries([1, 2, 4], [0.9, 1.0, 1.1], r=1.0)
    assert fekete_limit(series) <= 0.9


def test_empty_schedule_rejected():
    with pytest.raises(EmptySchedule):
        SubadditiveSeries([], [], r=1.0)


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        SubadditiveSeries([2, 2], [0.0, 0.0], r=1.0)
    with pytest.raises(ValueError):
        SubadditiveSeries([1, 2], [0.0], r=1.0)


# ---------------------------------------------------------------------------
# full estimates on model systems
# ---------------------------------------------------------------------------


def test_cat_map_chi(cat, lebesgue):
    est = estimate_chi(
        cat, lebesgue, r_schedule=[0.2, 0.1, 0.05], n_schedule=[2, 4, 8, 12],
        points=128, probes=96, seed=0,
    )
    assert isinstance(est, ChiEstimate)
    assert abs(est.value - LOG_LAM) / LOG_LAM < 0.02
    # linearity kills the r-dependence entirely
    lams = [v for _, v in est.per_r]
    assert max(lams) - min(lams) < 0.01 * LOG_LAM
    assert est.diagnostics["monotone_in_r"]


def test_translation_chi_is_zero(translation, lebesgue):
    est = estimate_chi(
        translation, lebesgue, r_schedule=[0.2, 0.1], n_schedule=[2, 4, 8],
        points=64, probes=64, seed=1,
    )
    assert abs(est.value) < 1e-9


def test_dyadic_shift_chi_is_log2(dyadic_shift, bern_half):
    est = estimate_chi(
        dyadic_shift, bern_half, r_schedule=[0.25, 0.125], n_schedule=[2, 4, 8],
        points=96, probes=96, seed=2,
    )
    assert abs(est.value - LOG2) / LOG2 < 0.05


def test_weighted_shift_chi_small(weighted_shift, bern_half):
    est = estimate_chi(
        weighted_shift, bern_half, r_schedule=[0.4, 0.3], n_schedule=[2, 4, 8, 16],
        points=48, probes=64, seed=3,
    )
    assert est.value <= 0.05


def test_inverse_cat_same_exponent(cat, lebesgue):
    from ergodim.systems import invert

    est = estimate_chi(
        invert(cat), lebesgue, r_schedule=[0.2, 0.1], n_schedule=[2, 4, 8],
        points=96, probes=96, seed=4,
    )
    assert abs(est.value - LOG_LAM) / LOG_LAM < 0.02


def test_per_r_curve_nonincreasing_within_slack(cat, lebesgue):
    est = estimate_chi(
        cat, lebesgue, r_schedule=[0.3, 0.2, 0.1, 0.05], n_schedule=[2, 4, 6],
        points=64, probes=64, seed=5,
    )
    lams = [v for _, v in est.per_r]
    for a, b in zip(lams, lams[1:]):
        assert b <= a + 0.05


def test_series_and_diagnostics_shape(cat, lebesgue):
    est = estimate_chi(
        cat, lebesgue, r_schedule=[0.2], n_schedule=[1, 2, 4], points=16, probes=32, seed=6,
    )
    assert len(est.series) == 1
    assert est.series[0].n_schedule == [1, 2, 4]
    assert est.sample_count == 16
    assert "max_log_l1" in est.diagnostics
    assert not est.diagnostics["integrability_guard_growth"]
    # values are means of log+ ratios, hence nonnegative
    assert all(v >= 0.0 for v in est.series[0].values)


def test_decreasing_r_schedule_enforced(cat, lebesgue):
    with pytest.raises(ValueError):
        estimate_chi(cat, lebesgue, r_schedule=[0.1, 0.2], n_schedule=[1, 2], points=4, probes=8)
    with pytest.raises(EmptySchedule):
        estimate_chi(cat, lebesgue, r_schedule=[], n_schedule=[1, 2], points=4, probes=8)


@pytest.mark.parametrize("system, oracle", [("cat", "lebesgue"), ("dyadic_shift", "markov")])
@pytest.mark.parametrize("threads", [1, 2])
def test_chi_builds_no_generator_per_point(request, monkeypatch, system, oracle, threads):
    """Sample points and probe blocks are seeded in batches (``child_rngs``), never one by one."""
    def refuse(*args):
        raise AssertionError(f"per-point generator build rng_for{args}")

    monkeypatch.setattr(measures, "rng_for", refuse)
    monkeypatch.setattr(geometry, "rng_for", refuse)
    sys, mu = request.getfixturevalue(system), request.getfixturevalue(oracle)
    est = estimate_chi(sys, mu, [0.2, 0.1], [2, 4], points=12, probes=16, seed=4, threads=threads)
    assert math.isfinite(est.value)


def test_thread_pool_is_capped_at_the_cores(monkeypatch, cat, lebesgue):
    """A huge ``threads`` asks the pool for no more workers than the machine has cores."""
    workers = []

    class SerialPool:  # records the request and starts no thread
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    args = (cat, lebesgue, [0.2], [2, 4])
    capped = estimate_chi(*args, points=12, probes=16, seed=4, threads=100_000)
    assert workers == [3]
    assert capped.per_r == estimate_chi(*args, points=12, probes=16, seed=4).per_r
