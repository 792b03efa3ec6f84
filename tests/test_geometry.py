"""Bowen balls, pointwise Lipschitz tables, and the shrinking-ball inclusion.

Independent oracles used here: brute-force orbit-distance maxima straight
from the definition, exhaustive enumeration of symbol flips for the dyadic
sup ratio (2^n at admissible scales), and singular values of A^n for the
linear torus stretch (for the symmetric cat matrix, |A^n| = lambda^n).
"""
import math
import os

import numpy as np
import pytest

from ergodim.errors import NoProbeAccepted, ScaleUnderflow, WindowExhausted
import ergodim.geometry as geometry
from ergodim.geometry import (
    _TORUS_BLOCK_ROWS,
    InclusionReport,
    _below_radius,
    _draw_flip_probes,
    _flip_mismatches,
    _shift_block_ratios,
    _shift_window_plan,
    _torus_ratios_from_draws,
    check_ball_inclusion,
    lipschitz_table,
)
from ergodim.lyapunov import estimate_chi
from ergodim.measures import BernoulliIID, MarkovStationary, rng_for, sample_point
from ergodim.systems import (
    DyadicMetric,
    FullShift,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    TorusTranslation,
    WeightedL2Metric,
    distance,
    iterate,
    open_flip_depth,
    resolution_floor,
    shift_orbit_distances,
    shift_orbit_weights,
    torus_norm_rows,
)
from tests.conftest import LOG_LAM


def _probe_mismatches(x, sys, k_lo, k_hi, rng, probes):
    """One point's flip probes as the production routes build them: (mismatch rows
    against x on its window, flip coordinates)."""
    ks, sides, rand = _draw_flip_probes(rng, k_lo, k_hi, sys.alphabet_size, x.symbols.size, probes)
    return _flip_mismatches(rand != x.symbols, ks, sides, x.lo), sides * ks


def _point_differing_at(x, row, alphabet):
    """A point that differs from x exactly where ``row`` is True (every metric reads only that)."""
    return SymbolicPoint(np.where(row, (x.symbols.astype(int) + 1) % alphabet, x.symbols), x.lo)


def _orbit_max_distance(sys, x, y, n):
    return max(distance(sys, iterate(sys, x, k), iterate(sys, y, k)) for k in range(n))


def _bowen_contains(sys, x, y, n, r):
    """Membership of y in the open Bowen ball B_n(x, r) as the package decides it: on a
    shift from one ``shift_orbit_distances`` call over t < n (the symbolic inclusion
    check's route), on the torus by ``_below_radius`` on the reduced displacements
    A^k (y - x), k < n (the probe kernel's route)."""
    if isinstance(sys, FullShift):
        diff = (y.symbols != x.symbols)[None, :]
        return bool(shift_orbit_distances(sys, diff, x.lo, np.arange(n)).max() < r)
    w = np.array([[y.x - x.x, y.y - x.y]])
    for _ in range(n):
        if not _below_radius(w - np.rint(w), r)[0]:
            return False
        w = w @ sys.as_array().T
    return True


# ---------------------------------------------------------------------------
# Bowen balls
# ---------------------------------------------------------------------------


def test_center_always_inside(cat, dyadic_shift, bern_half):
    p = TorusPoint(0.3, 0.8)
    assert _bowen_contains(cat, p, p, 7, 1e-9)
    x = sample_point(dyadic_shift, bern_half, 0)
    assert _bowen_contains(dyadic_shift, x, x, 12, 1e-6)


def test_step_one_reduces_to_plain_ball(cat):
    x, y = TorusPoint(0.2, 0.2), TorusPoint(0.25, 0.2)
    d = distance(cat, x, y)
    assert _bowen_contains(cat, x, y, 1, d + 1e-9)
    assert not _bowen_contains(cat, x, y, 1, d)  # open ball: boundary excluded


def test_bowen_matches_definition_brute_force(cat, lebesgue):
    rng = rng_for(31, 0)
    for _ in range(40):
        x = TorusPoint(float(rng.random()), float(rng.random()))
        y = TorusPoint(float(rng.random()), float(rng.random()))
        n = int(rng.integers(1, 9))
        r = float(rng.uniform(0.01, 0.6))
        assert _bowen_contains(cat, x, y, n, r) == (_orbit_max_distance(cat, x, y, n) < r)


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
                inside = _bowen_contains(dyadic_shift, x, y, n, 2.0**-m)
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
        assert _bowen_contains(dyadic_shift, x, y, n, 2.0**-m) == expect


def test_bowen_balls_nest_in_n(cat):
    rng = rng_for(13, 1)
    for _ in range(30):
        x = TorusPoint(float(rng.random()), float(rng.random()))
        y = TorusPoint(x.x + float(rng.uniform(-0.05, 0.05)) % 1.0, x.y)
        if _bowen_contains(cat, x, y, 6, 0.2):
            assert _bowen_contains(cat, x, y, 5, 0.2)


# ---------------------------------------------------------------------------
# pointwise Lipschitz estimates (lipschitz_table, the estimator chi runs on)
# ---------------------------------------------------------------------------


def _lipschitz_row(sys, x, r, ns, probes, seed):
    """The L_n^r(x) estimates for each n in ns, from one probe block at x."""
    values, _ = lipschitz_table(sys, [x], r, ns, probes, seed)
    return values[0]


def test_cat_lipschitz_matches_matrix_norm(cat):
    # symmetric positive matrix: |A^n| = lambda^n with lambda = (3+sqrt5)/2
    x = TorusPoint(0.31, 0.64)
    ns = [1, 4, 8]
    for n, value in zip(ns, _lipschitz_row(cat, x, 0.2, ns, 10_000, 2)):
        truth = math.exp(n * LOG_LAM)
        assert value <= truth * (1.0 + 1e-9)  # sampled sup is a lower bound
        assert value >= truth * 0.98


def test_translation_is_isometry(translation):
    x = TorusPoint(0.11, 0.87)
    (value,) = _lipschitz_row(translation, x, 0.1, [6], 500, 0)
    assert abs(value - 1.0) < 1e-9


def test_dyadic_shift_one_step_doubling(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 21)
    (value,) = _lipschitz_row(dyadic_shift, x, 0.25, [1], 10_000, 4)
    assert 1.9 <= value <= 2.0


def test_dyadic_exhaustive_flip_oracle(dyadic_shift, bern_half):
    # enumerate every y differing from x only at coordinates 3 <= |i| <= 8
    # (admissible for r = 0.25) and take the definitional sup ratio; the
    # result is exactly 2^n, and the probe estimate reproduces it
    x = sample_point(dyadic_shift, bern_half, 33)
    free = [i for i in range(-8, 9) if abs(i) >= 3]
    r = 0.25
    ns = [1, 2, 4, 6]
    for n in ns:
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
    assert list(_lipschitz_row(dyadic_shift, x, r, ns, 4000, 1)) == [2.0**n for n in ns]


def test_estimate_nonincreasing_in_r_within_slack(cat):
    x = TorusPoint(0.62, 0.4)
    values = [_lipschitz_row(cat, x, r, [6], 3000, 8)[0] for r in (0.2, 0.1, 0.05)]
    for a, b in zip(values, values[1:]):
        assert math.log(b) <= math.log(a) + 0.05


def test_subadditivity_exact_and_sampled(cat):
    # exact route: closed-form L_n for both systems obeys the cocycle bound
    # with equality, log L_{m+n}(x) = log L_m(x) + log L_n(T^m x)
    for m, n in ((2, 3), (4, 4)):
        assert (m + n) * LOG_LAM == pytest.approx(m * LOG_LAM + n * LOG_LAM)
        assert (m + n) * math.log(2) == pytest.approx(m * math.log(2) + n * math.log(2))
    # sampled smoke with slack 0.05 in log scale (both sides biased low)
    x = TorusPoint(0.23, 0.91)
    est = dict(zip((2, 3, 5), np.log(_lipschitz_row(cat, x, 0.2, [2, 3, 5], 4000, 3))))
    shifted = math.log(_lipschitz_row(cat, iterate(cat, x, 2), 0.2, [3], 4000, 3)[0])
    assert est[5] <= est[2] + shifted + 0.05


def test_no_probe_accepted_surfaces(dyadic_shift, bern_half):
    # the one probe draws its flip depth from [3, 83], and only depth >= 66
    # survives the Bowen filter through n = 64 at r = 1/4; seed 1 draws 41,
    # so the cell stays empty and chi reports it instead of imputing a value
    x = sample_point(dyadic_shift, bern_half, 1)
    (depth,), *_ = _draw_flip_probes(rng_for(1, 0, 0), 3, 83, 2, x.symbols.size, 1)
    assert depth < 66
    values, accepted = lipschitz_table(dyadic_shift, [x], 0.25, [1, 64], 1, 1)
    assert values[0, 0] == 2.0 and accepted[0, 0] == 1
    assert np.isnan(values[0, 1]) and accepted[0, 1] == 0
    with pytest.raises(NoProbeAccepted, match=r"\(r=0.25, n=64\)"):
        estimate_chi(dyadic_shift, bern_half, [0.25], [1, 64], points=1, probes=1, seed=1)


def test_scale_underflow_below_floor(bern_half):
    # r = 2^-20 needs a flip at depth >= 21, past the stored window of 16
    sys = FullShift(window=16)
    with pytest.raises(ScaleUnderflow, match="no admissible flip depth"):
        estimate_chi(sys, bern_half, [2.0**-20], [1, 2], points=4, probes=16)


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


_FORWARD = FullShift(alphabet_size=2)


def _forward_distances(diff, lo, n_max):
    """d(T^j x, T^j y) for j = 0..n_max through the one nearest-mismatch scan."""
    return shift_orbit_distances(_FORWARD, diff, lo, range(n_max + 1))


def _assert_nearest_matches(diff, lo, n_max):
    got = _forward_distances(diff, lo, n_max)
    want = 2.0 ** -_nearest_reference(diff, lo, n_max)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, rows without a mismatch included


@pytest.mark.parametrize("inverted", [False, True])
def test_nearest_mismatch_matches_reference_on_probes(bern_half, inverted):
    sys = FullShift(alphabet_size=2, inverted=inverted)
    for s in range(3):
        x = sample_point(sys, bern_half, 50 + s)
        for k_lo, n_max in ((3, 1), (3, 8), (5, 24)):
            diff, _ = _probe_mismatches(x, sys, k_lo, k_lo + n_max + 16, rng_for(9, s), 96)
            _assert_nearest_matches(diff, x.lo, n_max)


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
    got = _forward_distances(diff, lo, n_max)
    assert (got[-1] == 0.0).all()
    assert (got[:-1] > 0.0).all()
    rng = np.random.default_rng(4)
    for density in (0.01, 0.1, 0.5):
        _assert_nearest_matches(rng.random((64, width)) < density, lo, n_max)


def test_nearest_mismatch_past_a_small_window(bern_half):
    # window = 8 stores coords -8..8, so n_max = 12 reaches past x.hi; the
    # distances there stay finite, measured from the last stored mismatch
    sys = FullShift(alphabet_size=2, window=8)
    x = sample_point(sys, bern_half, 3)
    assert x.hi == 8
    diff, _ = _probe_mismatches(x, sys, 2, 7, rng_for(2), 64)
    for n_max in (8, 9, 12, 20):
        _assert_nearest_matches(diff, x.lo, n_max)
    assert (_forward_distances(diff, x.lo, 12) > 0.0).all()
    values, accepted = lipschitz_table(sys, [x], r=0.25, n_schedule=[2, 12], probes=64, seed=1)
    assert np.isfinite(values).all() and (accepted > 0).all()


@pytest.mark.parametrize("metric", [DyadicMetric(), WeightedL2Metric()], ids=["dyadic", "weighted"])
def test_flip_kernel_plan_gives_the_shared_orbit_distances(metric):
    """The flip kernel's per-window plan against ``shift_orbit_distances`` on forward steps:
    on the dyadic metric the kernel calls it, and it matches the per-j reference bit for
    bit; on the weighted one the matmul matches it to rounding, as it adds in its own order."""
    sys = FullShift(alphabet_size=3, metric=metric, window=40)
    lo, width, n_max = -40, 81, 12  # steps past the window edge meet its cut-off
    rng = np.random.default_rng(7)
    for density in (0.0, 0.02, 0.3):
        diff = rng.random((64, width)) < density
        want = shift_orbit_distances(sys, diff, lo, range(n_max + 1))
        if isinstance(metric, DyadicMetric):
            assert (2.0 ** -_nearest_reference(diff, lo, n_max)).tobytes() == want.tobytes()
        else:
            M = _shift_weight_matrix_reference(sys, np.arange(lo, lo + width), n_max)
            np.testing.assert_allclose(np.sqrt(diff.astype(float) @ M), want, rtol=0, atol=1e-12)


def _shift_weight_matrix_reference(sys, coords, n_max):
    """The flip kernel's own weight matrix before it read ``shift_orbit_weights``:
    M[i, j] = a_|coords[i] - j| for j = 0..n_max, zero where |coords[i] - j| > window."""
    gap = np.abs(coords[:, None] - np.arange(n_max + 1)[None, :])
    vals = sys.metric.weights.values(int(np.abs(coords).max()) + n_max)
    return vals[gap] * (gap <= sys.window)


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("window, n_max", [(256, 128), (40, 12), (8, 20)])
def test_orbit_weights_match_the_kernel_weight_matrix(inverted, window, n_max):
    """One orbit-weight matrix for the ordered sum and the flip kernel's matmul: on
    forward steps (negated on an inverted shift) it is the old kernel matrix, bit for bit."""
    sys = FullShift(metric=WeightedL2Metric(), window=window, inverted=inverted)
    steps = np.arange(n_max + 1)
    want = _shift_weight_matrix_reference(sys, np.arange(-window, window + 1), n_max)
    got = shift_orbit_weights(sys, -window, 2 * window + 1, -steps if inverted else steps)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    plan = _shift_window_plan(sys, 0.9, -window, window, n_max)
    assert plan[2].tobytes() == want.tobytes()


def _probe_ratios(sys, x, r, ns, probes, rng):
    """One point's probe block through the production kernels, on its own generator:
    (accepted, ratios) tables with one row per schedule step."""
    if isinstance(sys, (ToralAutomorphism, TorusTranslation)):
        return _torus_ratios_from_draws(sys, r, ns, rng.random((probes, 2)))
    plan = _shift_window_plan(sys, r, x.lo, x.hi, max(ns))
    return _shift_block_ratios(sys, [x], r, ns, probes, [rng], plan)


def _table_reference(sys, points, r, ns, probes, seed, r_tag):
    """lipschitz_table as a per-point loop over _probe_ratios."""
    values = np.full((len(points), len(ns)), np.nan)
    counts = np.zeros((len(points), len(ns)), dtype=int)
    for i, x in enumerate(points):
        acc, rat = _probe_ratios(sys, x, r, ns, probes, rng_for(seed, r_tag, i))
        counts[i] = acc.sum(axis=1)
        values[i] = np.where(acc.any(axis=1), rat.max(axis=1), np.nan)
    return values, counts


@pytest.mark.parametrize("system", ["cat", "translation"])
@pytest.mark.parametrize("probes, r_tag", [(64, 0), (100, 17)])
def test_torus_blocks_match_per_point_loop(request, monkeypatch, lebesgue, system, probes, r_tag):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two chunks whatever the machine
    sys = request.getfixturevalue(system)
    per_block = _TORUS_BLOCK_ROWS // probes
    xs = [sample_point(sys, lebesgue, 12, i) for i in range(per_block + 3)]  # straddles a block
    args = (sys, xs, 0.1, [1, 4, 8], probes, 6, r_tag)
    want_values, want_accepted = _table_reference(*args)
    for threads in (1, 2):  # one chunk, then two that split the points
        values, accepted = lipschitz_table(*args, threads=threads)
        assert values.tobytes() == want_values.tobytes()
        np.testing.assert_array_equal(accepted, want_accepted)
    assert (accepted > 0).all()


def _torus_ratios_reference(sys, r, ns, u):
    """The all-hypot torus route: the exact torus norm of every displacement at every step.

    Returns (accepted[rows, len(ns)], ratios[rows, len(ns)]), one column per schedule step."""
    floor = max(resolution_floor(sys), 1e-12 * r)
    mags = floor * (r / floor) ** u[:, 0]
    angles = 2.0 * math.pi * u[:, 1]
    v = np.stack([mags * np.cos(angles), mags * np.sin(angles)], axis=1)
    A = sys.as_array()
    w = v.copy()
    d0 = torus_norm_rows(v)
    run_max = d0.copy()
    accepted = np.zeros((len(u), len(ns)), dtype=bool)
    ratios = np.zeros((len(u), len(ns)))
    col = {n: j for j, n in enumerate(ns)}
    for k in range(1, max(ns) + 1):
        w = w @ A.T
        dk = torus_norm_rows(w)
        if k in col:
            ok = (run_max < r) & (d0 > 0.0)
            accepted[:, col[k]] = ok
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios[:, col[k]] = np.where(ok, dk / d0, 0.0)
        run_max = np.maximum(run_max, dk)
    return accepted, ratios


_KERNEL_MATRICES = {
    "cat": ((2, 1), (1, 1)),
    "cat-negative": ((-2, 1), (1, -1)),
    "trace-4": ((3, 1), (2, 1)),
    "det-minus-one": ((0, 1), (1, 3)),
    "golden": ((1, 1), (1, 0)),
    "wide": ((4097, 4096), (1, 1)),
}


@pytest.mark.parametrize("name", [*sorted(_KERNEL_MATRICES), "translation"])
@pytest.mark.parametrize("r", [0.2, 0.05, 1e-12])
def test_torus_kernel_bits_match_the_all_hypot_route(name, r):
    """The guard band and the step-major layout keep every bit of the all-hypot route."""
    sys = TorusTranslation() if name == "translation" else ToralAutomorphism(_KERNEL_MATRICES[name])
    u = np.random.default_rng(11).random((4096, 2))
    for ns in ([1], [1, 2, 5], [1, 3, 6, 10], [4, 8, 12]):
        acc, rat = _torus_ratios_from_draws(sys, r, ns, u)
        want_acc, want_rat = _torus_ratios_reference(sys, r, ns, u)
        assert acc.shape == rat.shape == (len(ns), len(u))
        assert acc.tobytes() == want_acc.T.tobytes()
        assert rat.tobytes() == want_rat.T.tobytes()
        assert acc[0].any() or ns[0] > 1  # at n = 1 every probe of the open ball is in


def _assert_below_radius_is_hypot(f, r):
    got = _below_radius(f, r)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, np.hypot(f[:, 0], f[:, 1]) < r)


def test_band_helper_at_the_radius_and_one_ulp_either_side():
    rng = np.random.default_rng(5)
    for scale in (0.3, 0.05, 1e-6, 1e-14):
        f = (rng.random((200, 2)) - 0.5) * scale
        for row in f:
            d = np.hypot(row[0], row[1])
            for r in (d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)):
                _assert_below_radius_is_hypot(row[None, :], float(r))
        # d = r exactly is outside the open ball
        assert not _below_radius(f[:1], float(np.hypot(*f[0]))).any()


@pytest.mark.parametrize("r", [0.2, 0.05, 3e-8, 1.5e-14])
def test_band_helper_at_the_band_edges(r):
    """Rows whose s = x^2 + y^2 sits just inside and just outside r^2 (1 +- 1e-12)."""
    rng = np.random.default_rng(6)
    angle = 2.0 * math.pi * rng.random(64)
    # s / r^2 - 1 just outside and just inside the band edges, well inside it, and across it
    offsets = [sign * t for t in (1e-12 * (1 + 1e-6), 1e-12 * (1 - 1e-6), 1e-13, 1e-15, 1e-16, 0.0)
               for sign in (-1.0, 1.0)]
    for t in [*offsets, *np.linspace(-2e-12, 2e-12, 41)]:
        mag = r * math.sqrt(1.0 + t)
        _assert_below_radius_is_hypot(np.stack([mag * np.cos(angle), mag * np.sin(angle)], axis=1), r)
    # components near the 1e-14 resolution floor, on both sides of the radius
    f = rng.uniform(-3e-14, 3e-14, size=(4096, 2))
    for r_small in (1e-14, 2e-14, 1.5e-14):
        _assert_below_radius_is_hypot(f, r_small)
    d = np.hypot(f[:, 0], f[:, 1])
    assert (d < 1.5e-14).any() and (d >= 1.5e-14).any()  # rows on both sides of the radius


def _shift_symbols_reference(x, sys, k_lo, k_hi, rng, probes):
    """The probe symbols as the per-point shift route built them."""
    a = sys.alphabet_size
    width = x.symbols.size
    base = np.broadcast_to(x.symbols, (probes, width)).copy()
    ks = rng.integers(k_lo, k_hi + 1, size=probes)
    sides = np.where(rng.random(probes) < 0.5, 1, -1)
    coords = np.arange(x.lo, x.hi + 1)
    rand = rng.integers(0, a, size=(probes, width), dtype=np.int8)
    outside = np.abs(coords)[None, :] >= ks[:, None]
    base[outside] = rand[outside]
    flip_pos = sides * ks - x.lo
    base[np.arange(probes), flip_pos] = (x.symbols[flip_pos].astype(int) + 1) % a  # always another symbol
    return base, ks


def _shift_ratios_reference(sys, x, r, ns, probes, rng):
    """The per-point flip route: symbols materialized, weights rebuilt, a loop over k."""
    n_max = max(ns)
    k_lo = open_flip_depth(sys, r)
    k_hi = min(x.hi - 1, -x.lo - 1, k_lo + n_max + 16)
    if k_hi < k_lo:
        raise ScaleUnderflow(f"no admissible flip depth: need k in [{k_lo}, {k_hi}] inside the window")
    symbols, _ = _shift_symbols_reference(x, sys, k_lo, k_hi, rng, probes)
    accepted = np.zeros((probes, len(ns)), dtype=bool)
    ratios = np.zeros((probes, len(ns)))
    diff = symbols != np.broadcast_to(x.symbols, symbols.shape)
    if isinstance(sys.metric, DyadicMetric):
        d = 2.0 ** (-_nearest_reference(diff, x.lo, n_max))
    else:
        vals = sys.metric.weights.values(max(abs(x.lo), abs(x.hi)) + n_max)
        coords = np.arange(x.lo, x.hi + 1)
        wmat = vals[np.abs(coords[:, None] - np.arange(n_max + 1)[None, :])]
        cap = np.abs(coords[:, None] - np.arange(n_max + 1)[None, :]) <= sys.window
        d = np.sqrt(diff.astype(float) @ (wmat * cap))
    d0 = d[:, 0]
    col = {n: j for j, n in enumerate(ns)}
    run_max = d[:, 0].copy()
    for k in range(1, n_max + 1):
        if k in col:
            j = col[k]
            ok = (run_max < r) & (d0 > 0.0)
            accepted[:, j] = ok
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios[:, j] = np.where(ok, d[:, k] / d0, 0.0)
        run_max = np.maximum(run_max, d[:, k])
    return accepted, ratios


def _shift_table_reference(sys, points, r, ns, probes, seed, r_tag):
    """lipschitz_table on a shift as a per-point loop over the reference route."""
    values = np.full((len(points), len(ns)), np.nan)
    counts = np.zeros((len(points), len(ns)), dtype=int)
    for i, x in enumerate(points):
        rng = rng_for(seed, r_tag, i)
        acc, rat = _shift_ratios_reference(sys, x, r, ns, probes, rng)
        counts[i] = acc.sum(axis=0)
        values[i] = np.where(acc.any(axis=0), rat.max(axis=0), np.nan)
    return values, counts


_MARKOV = MarkovStationary(((0.7, 0.3), (0.4, 0.6)))


def _shift_points(sys, seed, count):
    """Markov points on two symbols, uniform ones on more."""
    a = sys.alphabet_size
    oracle = _MARKOV if a == 2 else BernoulliIID((1.0 / a,) * a)
    return [sample_point(sys, oracle, seed, i) for i in range(count)]


_SHIFTS = {
    "dyadic": (FullShift(), 0.2, [1, 3, 8]),
    "dyadic-inverted": (FullShift(inverted=True), 0.05, [2, 5, 12, 20]),
    "weighted": (FullShift(metric=WeightedL2Metric()), 0.25, [1, 4, 16]),
    "weighted-inverted": (FullShift(metric=WeightedL2Metric(), inverted=True), 0.3, [2, 8, 32]),
    # n_max near the window: the dyadic route's column range is clamped on both sides
    "dyadic-small-window": (FullShift(window=12), 0.2, [1, 4, 9]),
    # x + offset wrapped in int8 on 86-127 symbols, and the forced flip could keep x's symbol
    "weighted-100-symbols": (FullShift(alphabet_size=100, metric=WeightedL2Metric()), 0.25, [1, 4, 16]),
}


@pytest.mark.parametrize("name", ["dyadic", "dyadic-inverted", "dyadic-small-window"])
def test_dyadic_columns_hold_every_nearest_mismatch(name):
    # worst case for the column range: besides the forced flip, at most one
    # mismatch, anywhere in the window
    sys, r, ns = _SHIFTS[name]
    n_max, lo, width = max(ns), -sys.window, 2 * sys.window + 1
    k_lo, k_hi, _, (first, last) = _shift_window_plan(sys, r, lo, sys.window, n_max)
    flips = [side * k for k in range(k_lo, k_hi + 1) for side in (1, -1)]
    diff = np.zeros((len(flips), width + 1, width), dtype=bool)
    for row, f in enumerate(flips):
        diff[row, :, f - lo] = True
        diff[row, np.arange(width), np.arange(width)] = True  # the last row keeps the flip alone
    diff = diff.reshape(-1, width)
    got = _forward_distances(diff[:, first - lo : last - lo + 1], first, n_max)
    assert got.tobytes() == (2.0 ** -_nearest_reference(diff, lo, n_max)).tobytes()


def _assert_table_matches(sys, xs, r, ns, probes, threads=1, r_tag=2):
    args = (sys, xs, r, ns, probes, 6, r_tag)
    values, accepted = lipschitz_table(*args, threads=threads)
    want_values, want_accepted = _shift_table_reference(*args)
    assert values.tobytes() == want_values.tobytes()  # bit for bit, NaN included
    np.testing.assert_array_equal(accepted, want_accepted)
    assert (accepted > 0).any()


def _columns_read(sys, r, ns):
    _, _, _, (first, last) = _shift_window_plan(sys, r, -sys.window, sys.window, max(ns))
    return last - first + 1


def _spy_on_blocks(monkeypatch):
    sizes = []
    real = geometry._shift_block_ratios

    def spy(sys, xs, *args):
        sizes.append(len(xs))
        return real(sys, xs, *args)

    monkeypatch.setattr(geometry, "_shift_block_ratios", spy)
    return sizes


@pytest.mark.parametrize("name", sorted(_SHIFTS))
@pytest.mark.parametrize("r_tag", [0, 17])
def test_shift_blocks_match_per_point_loop(monkeypatch, name, r_tag):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two chunks whatever the machine
    sys, r, ns = _SHIFTS[name]
    probes = 48
    xs = _shift_points(sys, 12, 7)
    _assert_table_matches(sys, xs[:1], r, ns, probes, threads=2, r_tag=r_tag)
    # three points per block: blocks of 3, 3 and 1; on two threads, chunks 0..2 and 3..6
    monkeypatch.setattr(geometry, "_SHIFT_BLOCK_CELLS", 3 * probes * _columns_read(sys, r, ns))
    sizes = _spy_on_blocks(monkeypatch)
    _assert_table_matches(sys, xs, r, ns, probes, r_tag=r_tag)
    assert sizes == [3, 3, 1]
    sizes.clear()
    _assert_table_matches(sys, xs, r, ns, probes, threads=2, r_tag=r_tag)
    assert sorted(sizes) == [1, 3, 3]


def test_shift_blocks_match_per_point_loop_at_the_default_cap(monkeypatch):
    sys, r, ns = _SHIFTS["dyadic"]
    probes = 48
    per_block = geometry._SHIFT_BLOCK_CELLS // (probes * _columns_read(sys, r, ns))
    xs = [sample_point(sys, _MARKOV, 13, i) for i in range(per_block + 2)]  # straddles a block
    sizes = _spy_on_blocks(monkeypatch)
    _assert_table_matches(sys, xs, r, ns, probes)
    assert sizes == [per_block, 2]


def test_shift_points_on_two_windows_are_rejected(bern_half):
    sys = FullShift(window=24)
    xs = [sample_point(FullShift(window=w), bern_half, 3, i) for i, w in enumerate([24, 24, 16])]
    with pytest.raises(ValueError, match="one window"):
        lipschitz_table(sys, xs, 0.2, [1, 4, 6], 32, 5)


@pytest.mark.parametrize("system", ["cat", "dyadic_shift"])
def test_no_points_give_empty_tables(request, system):
    values, accepted = lipschitz_table(request.getfixturevalue(system), [], 0.2, [1, 4], 32, 5)
    assert values.shape == accepted.shape == (0, 2)


@pytest.mark.parametrize("name", sorted(_SHIFTS))
def test_threaded_shift_table_matches_per_point_loop(monkeypatch, name):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sys, r, ns = _SHIFTS[name]
    xs = _shift_points(sys, 14, 5)
    values, accepted = lipschitz_table(sys, xs, r, ns, 40, 6, 2, threads=2)
    want_values, want_accepted = _shift_table_reference(sys, xs, r, ns, 40, 6, 2)
    assert values.tobytes() == want_values.tobytes()
    np.testing.assert_array_equal(accepted, want_accepted)


@pytest.mark.parametrize("name", sorted(_SHIFTS))
def test_one_point_route_matches_reference(name):
    sys, r, ns = _SHIFTS[name]
    (x,) = _shift_points(sys, 15, 1)
    for probes in (1, 64, 4096):
        acc, rat = _probe_ratios(sys, x, r, ns, probes, rng_for(3, probes))
        want_acc, want_rat = _shift_ratios_reference(sys, x, r, ns, probes, rng_for(3, probes))
        np.testing.assert_array_equal(acc, want_acc.T)
        assert rat.tobytes() == want_rat.T.tobytes()
        k_lo = open_flip_depth(sys, r)
        got, _ = _probe_mismatches(x, sys, k_lo, k_lo + 9, rng_for(4, probes), probes)
        want, _ = _shift_symbols_reference(x, sys, k_lo, k_lo + 9, rng_for(4, probes), probes)
        assert got.tobytes() == (want != x.symbols).tobytes()


def test_shift_table_underflow_matches_reference():
    sys = FullShift(metric=WeightedL2Metric(), window=16)
    xs = [sample_point(sys, _MARKOV, 1, i) for i in range(2)]
    with pytest.raises(ScaleUnderflow, match="no admissible flip depth") as got:
        lipschitz_table(sys, xs, 0.05, [1, 2], 8, 0)
    with pytest.raises(ScaleUnderflow) as want:
        _shift_table_reference(sys, xs, 0.05, [1, 2], 8, 0, 0)
    assert str(got.value) == str(want.value)


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


def test_inclusion_symbolic_route(bern_half):
    # a flip at depth k sits at 2^-k and reaches 2^-(k - n + 1) within n steps:
    # radius 2^-(1.5 n + 1) keeps that below eps = 1/4, radius 2^-(0.5 n + 1) does not
    sys = FullShift(window=64)
    x = sample_point(sys, bern_half, 12)
    args = dict(eps=0.25, eta=0.5, n_max=12, probes_per_n=100, seed=0)
    fast = check_ball_inclusion(sys, x, lam=1.5 * math.log(2.0), **args)
    assert fast.holds_from_n == 1 and fast.first_failure is None
    assert fast.tested_up_to == 12 and fast.underflow_from_n is None
    slow = check_ball_inclusion(sys, x, lam=0.5 * math.log(2.0), **args)
    assert slow.holds_from_n is None
    n_fail, witness = slow.first_failure
    assert n_fail == 1 and set(witness) == {"flip_coordinate", "worst_distance"}
    # the probe's forced flip, not the stored window's edge x.lo = -64; at n = 1 the
    # worst distance is d(x, y) = 2^-|flip|, at or above eps
    flip = witness["flip_coordinate"]
    assert flip != x.lo and 1 <= abs(flip) < -x.lo
    assert witness["worst_distance"] == 2.0 ** -abs(flip) >= args["eps"]


@pytest.mark.parametrize("inverted", [False, True])
def test_inclusion_symbolic_witness_reads_the_orbit_maximum(bern_half, inverted):
    """The witness's worst distance is max_{t < n} d(T^t x, T^t y) over some probe flipped there."""
    sys = FullShift(window=64, inverted=inverted)
    x = sample_point(sys, bern_half, 12)
    args = dict(eps=0.3, eta=0.5, n_max=12, probes_per_n=100, seed=0)
    rep = check_ball_inclusion(sys, x, lam=0.25 * math.log(2.0), **args)
    n_fail, witness = rep.first_failure
    assert n_fail > 1
    # rebuild the violating probe: the generator of its n, the same draws, the first probe
    # inside the open ball and outside the Bowen ball
    radius = args["eta"] * math.exp(-n_fail * 0.25 * math.log(2.0))
    k_lo = open_flip_depth(sys, radius)
    k_hi = min(-x.lo - 1, x.hi - 1, k_lo + 16)
    diff, flips = _probe_mismatches(x, sys, k_lo, k_hi, rng_for(0, n_fail), 100)
    for row, flip in zip(diff, flips):
        y = _point_differing_at(x, row, sys.alphabet_size)
        if 0.0 < distance(sys, x, y) < radius and _orbit_max_distance(sys, x, y, n_fail) >= args["eps"]:
            break
    assert witness["flip_coordinate"] == flip
    assert witness["worst_distance"] == _orbit_max_distance(sys, x, y, n_fail) >= args["eps"]


def _shift_inclusion_loop(sys, x, radius, eps, n, probes, rng):
    """The per-probe symbolic inclusion sample: two distances and an iterate-and-measure
    Bowen check for every probe, stopping at its first step outside the ball."""
    violations = 0
    witness = None
    k_lo = open_flip_depth(sys, radius)
    k_hi = min(-x.lo - 1, x.hi - 1, k_lo + 16)
    if k_hi < k_lo:
        raise ScaleUnderflow("no flip depth available inside the window at this radius")
    diff, flips = _probe_mismatches(x, sys, k_lo, k_hi, rng, probes)
    for row, flip in zip(diff, flips):
        y = _point_differing_at(x, row, sys.alphabet_size)
        if distance(sys, x, y) >= radius or distance(sys, x, y) == 0.0:
            continue
        if any(distance(sys, iterate(sys, x, k), iterate(sys, y, k)) >= eps for k in range(n)):
            violations += 1
            if witness is None:
                worst = shift_orbit_distances(sys, row[None], x.lo, np.arange(n)).max()
                witness = {"flip_coordinate": int(flip), "worst_distance": float(worst)}
    return violations, witness


_LOG2 = math.log(2.0)
_INCLUSION_CASES = {
    "fast": (FullShift(window=64), dict(lam=1.5 * _LOG2, eps=0.25, eta=0.5, n_max=12)),
    "slow": (FullShift(window=64), dict(lam=0.5 * _LOG2, eps=0.25, eta=0.5, n_max=12)),
    "witness": (FullShift(window=64), dict(lam=0.25 * _LOG2, eps=0.3, eta=0.5, n_max=12)),
    "witness-inverted": (FullShift(window=64, inverted=True), dict(lam=0.25 * _LOG2, eps=0.3, eta=0.5, n_max=12)),
    "three-symbols": (FullShift(alphabet_size=3, window=48), dict(lam=0.4, eps=0.2, eta=0.5, n_max=20)),
    # radii run from 0.86 down past the floor 0.35 of the 64-coordinate weighted window at n = 24
    "weighted": (FullShift(metric=WeightedL2Metric(), window=64), dict(lam=0.04, eps=0.95, eta=0.9, n_max=24)),
    # radius 0.75 * 4^-n: flips fit the 16-coordinate window through n = 7, then underflow
    "underflow": (FullShift(window=16), dict(lam=2.0 * _LOG2, eps=0.25, eta=0.75, n_max=12)),
}


@pytest.mark.parametrize("name", sorted(_INCLUSION_CASES))
def test_symbolic_inclusion_matches_the_per_probe_loop(monkeypatch, name):
    sys, args = _INCLUSION_CASES[name]
    oracle = _MARKOV if sys.alphabet_size == 2 else BernoulliIID((0.2, 0.3, 0.5))
    x = sample_point(sys, oracle, 12)
    got = check_ball_inclusion(sys, x, probes_per_n=100, seed=0, **args)
    monkeypatch.setattr(geometry, "_shift_inclusion_sample", _shift_inclusion_loop)
    want = check_ball_inclusion(sys, x, probes_per_n=100, seed=0, **args)
    assert got == want
    assert got.tested_up_to > 1


@pytest.mark.parametrize("inverted", [False, True])
def test_symbolic_inclusion_past_the_window_raises_as_the_loop_did(monkeypatch, bern_half, inverted):
    """A probe still in the Bowen ball where the stored window stops covering 0 ends the check;
    one step short of that, nothing is raised."""
    sys = FullShift(window=8, inverted=inverted)
    x = sample_point(sys, bern_half, 3)
    last = -x.lo if inverted else x.hi  # the last step at which the window covers 0
    args = dict(lam=0.02, eps=0.5, eta=0.5, probes_per_n=200, seed=0)
    with pytest.raises(WindowExhausted) as got:
        check_ball_inclusion(sys, x, n_max=last + 2, **args)
    got_short = check_ball_inclusion(sys, x, n_max=last + 1, **args)
    monkeypatch.setattr(geometry, "_shift_inclusion_sample", _shift_inclusion_loop)
    with pytest.raises(WindowExhausted) as want:
        check_ball_inclusion(sys, x, n_max=last + 2, **args)
    assert str(got.value) == str(want.value)
    assert got_short == check_ball_inclusion(sys, x, n_max=last + 1, **args)
