"""Systems layer: iteration, metrics, weights, and the shift operator norms.

Expected values below are derived independently of the implementation:
matrix-vector products by hand, metric values from single-term sums, and
operator norms from the ratio grid max_{|n|<=N} a_|n-k|/a_|n| computed with
plain Python loops.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ergodim.errors import MixedSystems, NonInvertible, WindowExhausted
from ergodim.measures import rng_for, sample_point
from ergodim.systems import (
    FullShift,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    TorusTranslation,
    WeightSequence,
    default_weights,
    distance,
    invert,
    iterate,
    operator_norm_power,
    resolution_floor,
    shift_orbit_distances,
    weighted_tail_bound,
)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def test_cat_origin_is_fixed(cat):
    p = TorusPoint(0.0, 0.0)
    q = iterate(cat, p, 5)
    assert (q.x, q.y) == (0.0, 0.0)


def test_cat_single_step_matches_hand_product(cat):
    # [[2,1],[1,1]] @ (0.25, 0.5) = (1.0, 0.75) == (0.0, 0.75) mod 1
    q = iterate(cat, TorusPoint(0.25, 0.5), 1)
    assert q.x == pytest.approx(0.0, abs=1e-15)
    assert q.y == pytest.approx(0.75, abs=1e-15)


def test_shift_moves_coordinate_index(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 3)
    y = iterate(dyadic_shift, x, 1)
    # left shift: new coordinate i holds the old coordinate i+1
    for i in range(-5, 6):
        assert y.coord(i) == x.coord(i + 1)


@given(st.integers(min_value=-200, max_value=200))
def test_torus_round_trip_exact(n):
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    p = TorusPoint(0.372810419, 0.918273645)
    q = iterate(cat, iterate(cat, p, n), -n)
    assert q.ints() == p.ints()


def test_translation_round_trip_exact(translation):
    p = TorusPoint(0.1234, 0.5678)
    q = iterate(translation, iterate(translation, p, 57), -57)
    assert q.ints() == p.ints()


def test_shift_round_trip_within_window(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 11)
    y = iterate(dyadic_shift, iterate(dyadic_shift, x, 40), -40)
    assert y == x


def test_shift_window_exhaustion_raises(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, 1)
    with pytest.raises(WindowExhausted):
        iterate(dyadic_shift, x, dyadic_shift.window + 1)


def test_non_invertible_matrix_rejected():
    with pytest.raises(NonInvertible):
        ToralAutomorphism(((2, 0), (0, 2)))


def test_inverse_matrix_is_inverse(cat):
    (a, b), (c, d) = cat.matrix
    (e, f), (g, h) = cat.inverse_matrix
    assert (a * e + b * g, a * f + b * h) == (1, 0)
    assert (c * e + d * g, c * f + d * h) == (0, 1)


def test_invert_round_trips(cat, translation, dyadic_shift):
    p = TorusPoint(0.31, 0.77)
    for sys in (cat, translation):
        inv = invert(sys)
        q = iterate(inv, iterate(sys, p, 1), 1)
        assert q.ints() == p.ints()
    x = SymbolicPoint(np.arange(9) % 2, lo=-4)
    y = iterate(invert(dyadic_shift), iterate(dyadic_shift, x, 2), 2)
    assert y == x


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_torus_metric_wraps_around(cat):
    # 0.01 and 0.99 are 0.02 apart through the seam, not 0.98
    assert distance(cat, TorusPoint(0.99, 0.0), TorusPoint(0.01, 0.0)) == pytest.approx(0.02, abs=1e-15)
    assert distance(cat, TorusPoint(0.75, 0.75), TorusPoint(0.25, 0.25)) == pytest.approx(
        math.sqrt(0.5), abs=1e-15
    )


def test_dyadic_distance_first_disagreement(dyadic_shift):
    base = np.zeros(13, dtype=np.int8)
    x = SymbolicPoint(base, lo=-6)
    ys = base.copy()
    ys[3 - (-6)] = 1  # differ at +3
    ys[-3 - (-6)] = 1  # and at -3
    y = SymbolicPoint(ys, lo=-6)
    assert distance(dyadic_shift, x, y) == 0.125


def test_dyadic_distance_zero_for_equal(dyadic_shift):
    x = SymbolicPoint(np.ones(7, dtype=np.int8), lo=-3)
    assert distance(dyadic_shift, x, x) == 0.0


def _dyadic_orbit_reference(sys, diff, first, times):
    """2^-min|i| over the mismatches i after each step t, one pass per t (0 without one)."""
    step = -1 if sys.inverted else 1
    coords = first + np.arange(diff.shape[1])
    out = np.empty((len(diff), len(times)))
    for k, t in enumerate(times):
        # a mismatch at column c sits at coordinate coords[c] - t after t steps (+ t inverted)
        nearest = np.where(diff, np.abs(coords - step * t)[None, :], np.inf).min(axis=1, initial=np.inf)
        out[:, k] = 2.0**-nearest
    return out


_TIMES = {
    "unsorted-repeated": [3, -2, 7, 3, 0, -2, 11],
    "all-left": [-30, -25, -41],  # every column j = t - first lies left of the matrix
    "all-past": [40, 33, 52],  # every column lies past the matrix
    "single": [4],
    "straddling": list(range(-24, 25, 3)),  # both edges of the matrix at once
}


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("times", sorted(_TIMES))
def test_dyadic_orbit_distances_match_a_per_time_reference(inverted, times):
    sys = FullShift(alphabet_size=3, window=10, inverted=inverted)
    first, width = -10, 21  # coordinates -10..10
    rng = np.random.default_rng(11)
    diff = np.vstack([rng.random((48, width)) < 0.08, np.zeros((3, width), dtype=bool)])
    diff[-1, [0, -1]] = True  # only the two end columns
    diff[-2, width // 2] = True  # only coordinate 0
    got = shift_orbit_distances(sys, diff, first, _TIMES[times])
    want = _dyadic_orbit_reference(sys, diff, first, _TIMES[times])
    assert got.tobytes() == want.tobytes()
    assert (got[-3] == 0.0).all()  # the row without a mismatch


def test_dyadic_orbit_distances_on_single_columns():
    # one column at a time, steps reaching it from either side and on it
    sys = FullShift()
    for first in (-3, 0, 5):
        diff = np.array([[True], [False]])
        times = [-6, first, first + 1, 9]
        got = shift_orbit_distances(sys, diff, first, times)
        assert got.tobytes() == _dyadic_orbit_reference(sys, diff, first, times).tobytes()
        assert got[0, 1] == 1.0 and (got[1] == 0.0).all()


def test_weighted_distance_single_coordinate(weighted_shift):
    zeros = np.zeros(11, dtype=np.int8)
    x = SymbolicPoint(zeros, lo=-5)
    y0 = zeros.copy()
    y0[5] = 1  # coordinate 0
    assert distance(weighted_shift, x, SymbolicPoint(y0, lo=-5)) == pytest.approx(1.0)
    y2 = zeros.copy()
    y2[2 - (-5)] = 1  # coordinate 2: weight 1/(2^2+1) = 1/5
    assert distance(weighted_shift, x, SymbolicPoint(y2, lo=-5)) == pytest.approx(
        math.sqrt(1.0 / 5.0)
    )


def _random_points(sys, oracle, seed, count):
    return [sample_point(sys, oracle, seed, i) for i in range(count)]


@pytest.mark.parametrize("which", ["torus", "dyadic", "weighted"])
def test_metric_axioms_on_random_triples(which, cat, dyadic_shift, weighted_shift, lebesgue, bern_half):
    rng = rng_for(2024, 5)
    if which == "torus":
        sys = cat
        pts = [TorusPoint(float(a), float(b)) for a, b in rng.random((3 * 1000, 2))]
    else:
        sys = dyadic_shift if which == "dyadic" else weighted_shift
        pts = _random_points(sys, bern_half, 77, 60)
        pts = [pts[i] for i in rng.integers(0, len(pts), size=3 * 1000)]
    tol = 1e-12
    for i in range(0, 3 * 1000, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        dxy = distance(sys, x, y)
        assert dxy >= 0.0
        assert dxy == distance(sys, y, x)
        assert distance(sys, x, x) == 0.0
        assert dxy <= distance(sys, x, z) + distance(sys, z, y) + tol


def test_mixed_systems_rejected(cat, dyadic_shift):
    x = TorusPoint(0.1, 0.2)
    with pytest.raises((MixedSystems, AttributeError)):
        distance(dyadic_shift, x, x)


# ---------------------------------------------------------------------------
# weight sequence and the shift operator norms
# ---------------------------------------------------------------------------


def test_default_weights_invariants():
    w = default_weights()
    vals = [w.a(k) for k in range(300)]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # strictly decreasing
    assert vals[-1] < 1e-4  # tends to zero
    # closed-form total: sum 1/(k^2+1) = (1 + pi coth pi)/2
    expect = 0.5 * (1.0 + math.pi / math.tanh(math.pi))
    assert math.fsum(w.a(k) for k in range(200_000)) == pytest.approx(expect, abs=1e-5)
    assert w.tail_sum(0) == pytest.approx(expect - 1.0, rel=1e-12)
    with pytest.raises(TypeError, match="total"):
        WeightSequence()  # tail sums read the closed-form total, so it has no default


def test_weight_ratio_witness_on_grid():
    # a_k / a_l <= C * b(|k-l|) over the test grid, with (1/m)|log b(m)| -> 0
    w = default_weights()
    for k in range(0, 120):
        for l in range(0, 120, 7):
            assert w.a(k) / w.a(l) <= w.C * w.b(abs(k - l)) + 1e-12
    m = 512
    assert abs(math.log(w.b(m))) / m < 0.05


def test_operator_norm_identity_and_first_power():
    w = default_weights()
    assert operator_norm_power(w, 0) == pytest.approx(1.0)
    # grid oracle: max over n of a_|n-1|/a_|n| is a_1/a_2 = 2.5 (attained at
    # n = 2, beating a_0/a_1 = 2 at n = 1), so the one-step norm is sqrt(2.5)
    grid_max = max(w.a(abs(n - 1)) / w.a(abs(n)) for n in range(-300, 301))
    assert grid_max == pytest.approx(2.5)
    assert operator_norm_power(w, 1) == pytest.approx(math.sqrt(2.5))


def test_operator_norms_exceed_one_and_rates_decay():
    w = default_weights()
    ks = [1, 2, 5, 10, 50, 100, 150, 200]
    norms = [operator_norm_power(w, k) for k in ks]
    assert all(v > 1.0 for v in norms)
    rates = [math.log(v) / k for v, k in zip(norms, ks)]
    assert rates[-1] <= 0.05
    beyond = [r for k, r in zip(ks, rates) if k >= 50]
    assert all(b < a for a, b in zip(beyond, beyond[1:]))  # decreasing toward 0


def test_resolution_floors(cat, dyadic_shift, weighted_shift):
    assert resolution_floor(cat) == 1e-14
    assert resolution_floor(dyadic_shift) == 2.0 ** (-dyadic_shift.window)
    w = weighted_shift.metric.weights
    assert resolution_floor(weighted_shift) == pytest.approx(
        2.0 * weighted_tail_bound(w, weighted_shift.window)
    )
    # the documented truncation bound at the default window stays below 0.09
    assert weighted_tail_bound(w, 256) < 0.09
