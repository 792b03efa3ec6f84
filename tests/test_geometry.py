"""Bowen balls, pointwise Lipschitz probes, and the shrinking-ball inclusion.

Independent oracles used here: brute-force orbit-distance maxima straight
from the definition, exhaustive enumeration of symbol flips for the dyadic
sup ratio (2^n at admissible scales), and singular values of A^n for the
linear torus stretch (for the symmetric cat matrix, |A^n| = lambda^n).
"""
import math

import numpy as np
import pytest

from ergodim.errors import NoProbeAccepted, ScaleUnderflow
from ergodim.geometry import (
    _TORUS_BLOCK_ROWS,
    InclusionReport,
    _nearest_mismatch,
    _probe_ratios,
    _shift_probe_symbols,
    bowen_ball_contains,
    check_ball_inclusion,
    estimate_pointwise_lipschitz,
    lipschitz_table,
)
from ergodim.measures import rng_for, sample_point
from ergodim.systems import (
    FullShift,
    SymbolicPoint,
    TorusPoint,
    distance,
    iterate,
)
from tests.conftest import LOG_LAM


def _orbit_max_distance(sys, x, y, n):
    return max(distance(sys, iterate(sys, x, k), iterate(sys, y, k)) for k in range(n))


# ---------------------------------------------------------------------------
# Bowen balls
# ---------------------------------------------------------------------------


def test_center_always_inside(cat, dyadic_shift, bern_half):
    p = TorusPoint(0.3, 0.8)
    assert bowen_ball_contains(cat, p, p, 7, 1e-9)
    x = sample_point(dyadic_shift, bern_half, 0)
    assert bowen_ball_contains(dyadic_shift, x, x, 12, 1e-6)


def test_step_one_reduces_to_plain_ball(cat):
    x, y = TorusPoint(0.2, 0.2), TorusPoint(0.25, 0.2)
    d = distance(cat, x, y)
    assert bowen_ball_contains(cat, x, y, 1, d + 1e-9)
    assert not bowen_ball_contains(cat, x, y, 1, d)  # open ball: boundary excluded


def test_bowen_matches_definition_brute_force(cat, lebesgue):
    rng = rng_for(31, 0)
    for _ in range(40):
        x = TorusPoint(float(rng.random()), float(rng.random()))
        y = TorusPoint(float(rng.random()), float(rng.random()))
        n = int(rng.integers(1, 9))
        r = float(rng.uniform(0.01, 0.6))
        assert bowen_ball_contains(cat, x, y, n, r) == (_orbit_max_distance(cat, x, y, n) < r)


def test_dyadic_bowen_ball_is_agreement_cylinder(dyadic_shift, bern_half):
    # single flip at coordinate c: membership in B_n(x, 2^-m) holds exactly
    # when c lies outside [-m, n-1+m] (strict inequality 2^-k < 2^-m iff k > m)
    x = sample_point(dyadic_shift, bern_half, 9)
    for n in range(1, 13):
        for m in range(0, 7):
            lo_keep, hi_keep = -m, n - 1 + m
            for c in range(-10, 21):
                ys = x.symbols.copy()
                ys[c - x.lo] ^= 1
                y = SymbolicPoint(ys, x.lo)
                inside = bowen_ball_contains(dyadic_shift, x, y, n, 2.0**-m)
                assert inside == (c < lo_keep or c > hi_keep), (n, m, c)


def test_dyadic_bowen_multi_flip_random(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 10)
    rng = rng_for(77, 3)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, 7))
        flips = rng.integers(-12, 24, size=rng.integers(1, 5))
        ys = x.symbols.copy()
        for c in flips:
            ys[c - x.lo] ^= 1
        y = SymbolicPoint(ys, x.lo)
        expect = _orbit_max_distance(dyadic_shift, x, y, n) < 2.0**-m
        assert bowen_ball_contains(dyadic_shift, x, y, n, 2.0**-m) == expect


def test_bowen_balls_nest_in_n(cat):
    rng = rng_for(13, 1)
    for _ in range(30):
        x = TorusPoint(float(rng.random()), float(rng.random()))
        y = TorusPoint(x.x + float(rng.uniform(-0.05, 0.05)) % 1.0, x.y)
        if bowen_ball_contains(cat, x, y, 6, 0.2):
            assert bowen_ball_contains(cat, x, y, 5, 0.2)


# ---------------------------------------------------------------------------
# pointwise Lipschitz estimates
# ---------------------------------------------------------------------------


def test_cat_lipschitz_matches_matrix_norm(cat, lebesgue):
    # symmetric positive matrix: |A^n| = lambda^n with lambda = (3+sqrt5)/2
    x = TorusPoint(0.31, 0.64)
    for n in (1, 4, 8):
        est = estimate_pointwise_lipschitz(cat, x, n, r=0.2, probes=10_000, seed=2)
        truth = math.exp(n * LOG_LAM)
        assert est.value <= truth * (1.0 + 1e-9)  # sampled sup is a lower bound
        assert est.value >= truth * 0.98


def test_translation_is_isometry(translation):
    x = TorusPoint(0.11, 0.87)
    est = estimate_pointwise_lipschitz(translation, x, 6, r=0.1, probes=500, seed=0)
    assert abs(est.value - 1.0) < 1e-9


def test_dyadic_shift_one_step_doubling(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 21)
    est = estimate_pointwise_lipschitz(dyadic_shift, x, 1, r=0.25, probes=10_000, seed=4)
    assert 1.9 <= est.value <= 2.0


def test_dyadic_exhaustive_flip_oracle(dyadic_shift, bern_half):
    # enumerate every y differing from x only at coordinates 3 <= |i| <= 8
    # (admissible for r = 0.25) and take the definitional sup ratio; the
    # result is exactly 2^n, and the probe estimate reproduces it
    x = sample_point(dyadic_shift, bern_half, 33)
    free = [i for i in range(-8, 9) if abs(i) >= 3]
    r = 0.25
    for n in (1, 2, 4, 6):
        best = 0.0
        for mask in range(1, 2 ** len(free)):
            ys = x.symbols.copy()
            for bit, c in enumerate(free):
                if mask >> bit & 1:
                    ys[c - x.lo] ^= 1
            y = SymbolicPoint(ys, x.lo)
            d0 = distance(dyadic_shift, x, y)
            if d0 == 0.0 or _orbit_max_distance(dyadic_shift, x, y, n) >= r:
                continue
            dn = distance(dyadic_shift, iterate(dyadic_shift, x, n), iterate(dyadic_shift, y, n))
            best = max(best, dn / d0)
        assert best == 2.0**n
        est = estimate_pointwise_lipschitz(dyadic_shift, x, n, r=r, probes=4000, seed=1)
        assert est.value == 2.0**n


def test_estimate_monotone_in_probe_budget(cat):
    x = TorusPoint(0.45, 0.27)
    small = estimate_pointwise_lipschitz(cat, x, 6, r=0.2, probes=200, seed=11)
    large = estimate_pointwise_lipschitz(cat, x, 6, r=0.2, probes=2000, seed=11)
    assert large.value >= small.value  # prefix-stable probe streams
    curve_vals = [v for _, v in large.curve]
    assert all(b >= a for a, b in zip(curve_vals, curve_vals[1:]))


def test_estimate_nonincreasing_in_r_within_slack(cat):
    x = TorusPoint(0.62, 0.4)
    values = [
        estimate_pointwise_lipschitz(cat, x, 6, r=r, probes=3000, seed=8).value
        for r in (0.2, 0.1, 0.05)
    ]
    for a, b in zip(values, values[1:]):
        assert math.log(b) <= math.log(a) + 0.05


def test_subadditivity_exact_and_sampled(cat, dyadic_shift, bern_half):
    # exact route: closed-form L_n for both systems obeys the cocycle bound
    # with equality, log L_{m+n}(x) = log L_m(x) + log L_n(T^m x)
    for m, n in ((2, 3), (4, 4)):
        assert (m + n) * LOG_LAM == pytest.approx(m * LOG_LAM + n * LOG_LAM)
        assert (m + n) * math.log(2) == pytest.approx(m * math.log(2) + n * math.log(2))
    # sampled smoke with slack 0.05 in log scale (both sides biased low)
    x = TorusPoint(0.23, 0.91)
    est = {
        k: math.log(estimate_pointwise_lipschitz(cat, x, k, r=0.2, probes=4000, seed=3).value)
        for k in (2, 3, 5)
    }
    xm = iterate(cat, x, 2)
    shifted = math.log(estimate_pointwise_lipschitz(cat, xm, 3, r=0.2, probes=4000, seed=3).value)
    assert est[5] <= est[2] + shifted + 0.05


def test_no_probe_accepted_surfaces(dyadic_shift, bern_half):
    # a single probe at depth n = 64 almost surely draws a flip too shallow
    # to survive the Bowen filter; the failure is reported, not imputed
    x = sample_point(dyadic_shift, bern_half, 2)
    with pytest.raises(NoProbeAccepted):
        estimate_pointwise_lipschitz(dyadic_shift, x, 64, r=0.25, probes=1, seed=1)


def test_scale_underflow_below_floor(translation):
    with pytest.raises(ScaleUnderflow):
        estimate_pointwise_lipschitz(translation, TorusPoint(0.5, 0.5), 2, r=1e-15, probes=10, seed=0)


def test_lipschitz_table_marks_empty_cells(dyadic_shift, bern_half):
    xs = [sample_point(dyadic_shift, bern_half, 6, i) for i in range(4)]
    values, accepted = lipschitz_table(dyadic_shift, xs, r=0.25, n_schedule=[1, 2], probes=64, seed=5)
    assert values.shape == (4, 2)
    assert np.isfinite(values).all()
    assert (accepted > 0).all()


# ---------------------------------------------------------------------------
# batched kernels against their per-column / per-point references
# ---------------------------------------------------------------------------


def _nearest_reference(diff, lo, n_max):
    """The per-j minimum the dyadic probe route used to build: one pass per j."""
    coords = np.arange(lo, lo + diff.shape[1])
    nearest = np.full((diff.shape[0], n_max + 1), np.inf)
    for j in range(n_max + 1):
        dist_j = np.where(diff, np.abs(coords[None, :] - j), np.inf)
        nearest[:, j] = dist_j.min(axis=1)
    return nearest


def _assert_nearest_matches(diff, lo, n_max):
    got = _nearest_mismatch(diff, lo, n_max)
    want = _nearest_reference(diff, lo, n_max)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, inf included
    assert (2.0 ** -got).tobytes() == (2.0 ** -want).tobytes()


@pytest.mark.parametrize("inverted", [False, True])
def test_nearest_mismatch_matches_reference_on_probes(bern_half, inverted):
    sys = FullShift(alphabet_size=2, inverted=inverted)
    for s in range(3):
        x = sample_point(sys, bern_half, 50 + s)
        for k_lo, n_max in ((3, 1), (3, 8), (5, 24)):
            symbols, _ = _shift_probe_symbols(x, sys, k_lo, k_lo + n_max + 16, rng_for(9, s), 96)
            _assert_nearest_matches(symbols != x.symbols, x.lo, n_max)


def test_nearest_mismatch_matches_reference_on_edge_rows():
    lo, width, n_max = -10, 21, 6  # coords -10..10
    rows = []
    for marks in (
        [3],  # inside [0, n_max] only
        [0, n_max],  # at both ends of [0, n_max]
        [2, 4, -7, 9],  # inside and on both sides
        [-1],  # left side only
        [-10],  # far left only
        [n_max + 1],  # right side only
        [10],  # far right only
        [],  # no mismatch at all
    ):
        row = np.zeros(width, dtype=bool)
        row[np.asarray(marks, dtype=int) - lo] = True
        rows.append(row)
    diff = np.array(rows)
    _assert_nearest_matches(diff, lo, n_max)
    got = _nearest_mismatch(diff, lo, n_max)
    assert np.isinf(got[-1]).all()
    assert np.isfinite(got[:-1]).all()
    rng = np.random.default_rng(4)
    for density in (0.01, 0.1, 0.5):
        _assert_nearest_matches(rng.random((64, width)) < density, lo, n_max)


def test_nearest_mismatch_past_a_small_window(bern_half):
    # window = 8 stores coords -8..8, so n_max = 12 reaches past x.hi; the
    # distances there stay finite, measured from the last stored mismatch
    sys = FullShift(alphabet_size=2, window=8)
    x = sample_point(sys, bern_half, 3)
    assert x.hi == 8
    symbols, _ = _shift_probe_symbols(x, sys, 2, 7, rng_for(2), 64)
    diff = symbols != x.symbols
    for n_max in (8, 9, 12, 20):
        _assert_nearest_matches(diff, x.lo, n_max)
    assert np.isfinite(_nearest_mismatch(diff, x.lo, 12)).all()
    values, accepted = lipschitz_table(sys, [x], r=0.25, n_schedule=[2, 12], probes=64, seed=1)
    assert np.isfinite(values).all() and (accepted > 0).all()


def _table_reference(sys, points, r, ns, probes, seed, r_tag, first_index):
    """lipschitz_table as a per-point loop over _probe_ratios."""
    values = np.full((len(points), len(ns)), np.nan)
    counts = np.zeros((len(points), len(ns)), dtype=int)
    for i, x in enumerate(points):
        acc, rat = _probe_ratios(sys, x, r, ns, probes, rng_for(seed, r_tag, first_index + i))
        counts[i] = acc.sum(axis=0)
        values[i] = np.where(acc.any(axis=0), rat.max(axis=0), np.nan)
    return values, counts


@pytest.mark.parametrize("system", ["cat", "translation"])
@pytest.mark.parametrize("probes, first_index", [(64, 0), (100, 17)])
def test_torus_blocks_match_per_point_loop(request, lebesgue, system, probes, first_index):
    sys = request.getfixturevalue(system)
    per_block = _TORUS_BLOCK_ROWS // probes
    xs = [sample_point(sys, lebesgue, 12, i) for i in range(per_block + 3)]  # straddles a block
    args = (sys, xs, 0.1, [1, 4, 8], probes, 6, 2, first_index)
    values, accepted = lipschitz_table(*args)
    want_values, want_accepted = _table_reference(*args)
    assert values.tobytes() == want_values.tobytes()
    np.testing.assert_array_equal(accepted, want_accepted)
    assert (accepted > 0).all()


# ---------------------------------------------------------------------------
# shrinking-ball inclusion
# ---------------------------------------------------------------------------


def test_inclusion_fast_shrinking_holds(cat, lebesgue):
    x = sample_point(cat, lebesgue, 44)
    rep = check_ball_inclusion(cat, x, lam=1.1, eps=0.1, eta=0.5, n_max=40, probes_per_n=100, seed=3)
    assert isinstance(rep, InclusionReport)
    assert rep.holds_from_n is not None
    assert all(r.violations == 0 for r in rep.records if r.n >= rep.holds_from_n)


def test_inclusion_slow_shrinking_fails_with_witness(cat, lebesgue):
    x = sample_point(cat, lebesgue, 44)
    rep = check_ball_inclusion(cat, x, lam=0.5, eps=0.1, eta=0.5, n_max=40, probes_per_n=100, seed=3)
    assert rep.first_failure is not None
    n_fail, witness = rep.first_failure
    assert n_fail >= 1 and witness is not None


def test_inclusion_isometry_holds_from_the_start(translation):
    x = TorusPoint(0.4, 0.9)
    rep = check_ball_inclusion(translation, x, lam=0.7, eps=0.1, eta=0.05, n_max=20, probes_per_n=50, seed=1)
    assert rep.holds_from_n == 1
    assert all(r.violations == 0 for r in rep.records)


def test_inclusion_parameter_validation(cat):
    x = TorusPoint(0.1, 0.1)
    with pytest.raises(ValueError):
        check_ball_inclusion(cat, x, lam=1.0, eps=0.1, eta=1.5, n_max=5)
    with pytest.raises(ValueError):
        check_ball_inclusion(cat, x, lam=-1.0, eps=0.1, eta=0.5, n_max=5)


def test_inclusion_underflow_raises_when_immediate(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 12)
    with pytest.raises(ScaleUnderflow):
        check_ball_inclusion(dyadic_shift, x, lam=200.0, eps=0.1, eta=0.5, n_max=5, probes_per_n=10, seed=0)
