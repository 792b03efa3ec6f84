"""Local unstable sets, dimension proxies, and the end-to-end inequality check.

Independent oracles: admission is re-verified definitionally (exact integer
backward orbits must stay delta-close at every step); symbolic box counts are
predicted in closed form (2^k distinct central words at window radius k); the
weighted-metric covering radii are re-derived by direct per-scale tail-sum
search rather than the production incremental scan.
"""
import itertools
import math

import numpy as np
import pytest

from ergodim.dimension import (
    COVER_DEPTH_LIMIT,
    PointCloud,
    _cloud_box_counts,
    _distinct_rows,
    _fit_line,
    _lattice_ladder,
    _symbolic_box_radius,
    _torus_candidates,
    _unstable_direction,
    box_counting_dimension,
    default_back_horizon,
    default_scales,
    local_dimension_lower,
    sample_unstable_set,
    unstable_cover_counts,
    verify_main_inequality,
)
from ergodim.entropy import dyadic_agreement_radius
from ergodim.errors import (
    EmptyCloud,
    MassStarvation,
    ScaleUnderflow,
    TooFewPoints,
    TooFewScales,
    UnsupportedOracle,
    WindowExhausted,
)
from ergodim.measures import BernoulliIID, MarkovStationary, sample_point, sample_points
from ergodim.partitions import disintegrate_past
from ergodim.systems import (
    FIXED_DENOM,
    DyadicMetric,
    FullShift,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    WeightedL2Metric,
    WeightSequence,
    cylinder_depth,
    distance,
    dyadic_depth,
    dyadic_open_depth,
    invert,
    iterate,
    one_sided_depth,
    open_flip_depth,
    weighted_tail_bound,
)
from tests.conftest import LOG2, LOG_LAM


# ---------------------------------------------------------------------------
# unstable cloud sampling: torus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cat_cloud(cat, lebesgue):
    x = sample_point(cat, lebesgue, 0, 1000)
    return x, sample_unstable_set(cat, x, 0.05, back_horizon=40, budget=10_000)


def test_torus_cloud_shape(cat_cloud):
    x, cloud = cat_cloud
    assert cloud.kind == "torus"
    assert cloud.admitted == len(cloud.points) == 10_000
    assert cloud.rejected == 0
    assert cloud.base is x


def test_torus_cloud_is_collinear(cat_cloud):
    _, cloud = cat_cloud
    assert cloud.collinearity_residual < 1e-9


def test_torus_admission_verified_definitionally(cat, cat_cloud):
    # exact integer backward orbits of the displacement must stay within delta
    # at every step and within the admission tolerance at the horizon
    x, cloud = cat_cloud
    Minv = np.array(cat.inverse_matrix, dtype=np.int64)
    xi = np.array(x.ints(), dtype=np.int64)
    sample = cloud.points[:: max(1, len(cloud.points) // 200)]
    disp = np.array([p.ints() for p in sample], dtype=np.int64) - xi[None, :]
    disp %= FIXED_DENOM
    cur = disp.copy()
    for i in range(cloud.back_horizon + 1):
        frac = cur / FIXED_DENOM
        frac -= np.round(frac)
        d = np.hypot(frac[:, 0], frac[:, 1])
        assert (d <= cloud.delta + 1e-15).all(), f"admission broken at back-step {i}"
        if i == cloud.back_horizon:
            assert (d <= cloud.admission_tolerance + 1e-15).all()
        cur = (cur @ Minv.T) % FIXED_DENOM


def _cloud_fields(cloud):
    return (cloud.base.ints(), cloud.admitted, cloud.rejected, cloud.collinearity_residual,
            cloud.diagnostics, cloud.delta, cloud.back_horizon, cloud.admission_tolerance)


@pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((1, -1), (-1, 2)), ((3, 2), (1, 1))])
def test_translated_cloud_equals_sampling_at_the_new_base(matrix, lebesgue):
    # ((1, -1), (-1, 2)) is the inverse of the cat map: the backward-direction system
    sys = ToralAutomorphism(matrix)
    x0 = sample_point(sys, lebesgue, 0, 1000)
    template = sample_unstable_set(sys, x0, 0.05, back_horizon=40, budget=3000)
    bases = [sample_point(sys, lebesgue, s, 1000 + i) for s, i in ((0, 1), (0, 7), (3, 2))]
    bases += [TorusPoint(0.0, 0.0), TorusPoint.from_ints(FIXED_DENOM - 1, FIXED_DENOM - 1)]
    for x in bases:
        moved = template.translated(x)
        direct = sample_unstable_set(sys, x, 0.05, back_horizon=40, budget=3000)
        assert moved.rows.dtype == direct.rows.dtype
        assert np.array_equal(moved.rows, direct.rows)
        assert moved.base is x
        assert _cloud_fields(moved) == _cloud_fields(direct)
        assert moved.diagnostics is not template.diagnostics
    assert template.base is x0


def test_shift_clouds_are_not_translated(shift_cloud):
    _, _, x, cloud = shift_cloud
    with pytest.raises(ValueError, match="torus"):
        cloud.translated(x)


def _spy_on_sampling(monkeypatch):
    import ergodim.dimension as dimension

    calls = []
    real = dimension.sample_unstable_set

    def spy(sys, x, delta, **kwargs):
        try:
            cloud = real(sys, x, delta, **kwargs)
        except Exception as exc:
            calls.append((x, f"{type(exc).__name__}: {exc}"))
            raise
        calls.append((x, cloud))
        return cloud

    monkeypatch.setattr(dimension, "sample_unstable_set", spy)
    return calls


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_verify_samples_the_torus_cloud_once(monkeypatch, cat, lebesgue, direction):
    calls = _spy_on_sampling(monkeypatch)
    rep = verify_main_inequality(
        cat, lebesgue, direction=direction, base_points=5, cloud_budget=3000,
        chi_points=16, chi_probes=16, n_schedule=(2, 4), seed=2,
    )
    assert len(calls) == 1
    work = cat if direction == "forward" else invert(cat)
    scales = default_scales(work, 0.05, 3000)
    expected = []
    for i in range(5):
        x = sample_point(work, lebesgue, 2, 1000 + i)
        cloud = sample_unstable_set(work, x, 0.05, back_horizon=40, budget=3000)
        expected.append(box_counting_dimension(cloud, scales, sys=work).slope)
    assert rep.per_point_slopes == expected
    assert rep.flags == []


def test_failing_torus_admission_flags_every_base_point(monkeypatch, cat, lebesgue):
    # admission that fails does not depend on the base point, so no cloud is
    # ever translated: every base point samples and fails on its own
    calls = _spy_on_sampling(monkeypatch)
    with pytest.raises(EmptyCloud, match="no base point produced"):
        verify_main_inequality(
            cat, lebesgue, delta=1e-7, base_points=4, chi_points=16, chi_probes=16,
            n_schedule=(2, 4), seed=0,
        )
    assert [x.ints() for x, _ in calls] == [
        sample_point(cat, lebesgue, 0, 1000 + i).ints() for i in range(4)
    ]
    for x, outcome in calls:
        with pytest.raises(EmptyCloud) as direct:
            sample_unstable_set(cat, x, 1e-7, back_horizon=40, budget=10_000)
        assert outcome == f"EmptyCloud: {direct.value}"


def test_torus_cloud_empty_below_resolution(cat, lebesgue):
    x = sample_point(cat, lebesgue, 0, 1000)
    with pytest.raises(EmptyCloud):
        sample_unstable_set(cat, x, 1e-8, back_horizon=40)


def test_delta_must_be_positive(cat, lebesgue):
    x = sample_point(cat, lebesgue, 0, 1000)
    with pytest.raises(ValueError):
        sample_unstable_set(cat, x, 0.0)


@pytest.mark.parametrize("system, oracle", [("cat", "lebesgue"), ("dyadic_shift", "bern_half")])
def test_admission_tolerance_must_be_nonnegative(request, system, oracle):
    sys, mu = request.getfixturevalue(system), request.getfixturevalue(oracle)
    x = sample_point(sys, mu, 0, 3)
    with pytest.raises(ValueError, match="admission_tolerance must be nonnegative"):
        sample_unstable_set(sys, x, 0.25, back_horizon=10, admission_tolerance=-1e-3)


def test_no_unstable_sampling_for_isometries(translation):
    with pytest.raises(UnsupportedOracle):
        sample_unstable_set(translation, TorusPoint(0.1, 0.2), 0.05)


# ---------------------------------------------------------------------------
# unstable cloud sampling: shifts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shift_cloud():
    shift = FullShift(alphabet_size=2)
    oracle = BernoulliIID((0.5, 0.5))
    x = sample_point(shift, oracle, 0, 1000)
    return shift, oracle, x, sample_unstable_set(shift, x, 0.5, back_horizon=40, budget=10_000)


def test_dyadic_cloud_admits_everything(shift_cloud):
    # varying future coordinates can only shrink backward distances, so at
    # delta = 1/2 every enumerated word is admitted
    _, _, x, cloud = shift_cloud
    assert cloud.lo == 1 and cloud.rows.shape == (8192, 13)  # 2^13 = 8192 <= budget < 2^14
    assert len({row.tobytes() for row in cloud.rows}) == 8192  # every word over coordinates 1..13
    assert cloud.admitted == 8192
    assert cloud.rejected == 0
    assert cloud.diagnostics["m_delta"] == 1


def test_shift_admission_verified_definitionally(shift_cloud):
    shift, _, x, cloud = shift_cloud
    for p in cloud.points[:: 1024]:
        xx, yy = x, p
        for i in range(6):
            assert distance(shift, xx, yy) <= cloud.delta
            xx, yy = iterate(shift, xx, -1), iterate(shift, yy, -1)


def test_shift_cloud_window_guards(shift_cloud):
    shift, oracle, x, _ = shift_cloud
    with pytest.raises(WindowExhausted):
        sample_unstable_set(shift, x, 0.5, back_horizon=300)
    with pytest.raises(EmptyCloud):
        sample_unstable_set(shift, x, 2.0**-300, back_horizon=10)


def test_shift_cloud_budget_below_the_alphabet_is_too_few_points():
    # 4 words cannot enumerate even one coordinate over 5 symbols
    shift = FullShift(alphabet_size=5)
    x = sample_point(shift, BernoulliIID((0.2,) * 5), 0, 1000)
    with pytest.raises(TooFewPoints, match="cloud budget 4 is below the alphabet size 5"):
        sample_unstable_set(shift, x, 0.5, back_horizon=40, budget=4)
    cloud = sample_unstable_set(shift, x, 0.5, back_horizon=40, budget=5)
    assert cloud.rows.shape[1] == 1
    assert cloud.admitted + cloud.rejected == 5


def test_weighted_cloud_admission(weighted_shift, bern_half):
    x = sample_point(weighted_shift, bern_half, 0, 1000)
    cloud = sample_unstable_set(weighted_shift, x, 0.5, back_horizon=20, budget=512)
    assert cloud.admitted >= 1
    assert cloud.lo == cloud.diagnostics["m_delta"]
    for p in cloud.points[:: max(1, len(cloud.points) // 8)]:
        xx, yy = x, p
        for i in range(5):
            assert distance(weighted_shift, xx, yy) <= cloud.delta + 1e-12
            xx, yy = iterate(weighted_shift, xx, -1), iterate(weighted_shift, yy, -1)


# ---------------------------------------------------------------------------
# array kernels against per-point reference loops
# ---------------------------------------------------------------------------


def _reference_torus_candidates(sys, delta, back_horizon, budget, tol):
    """The per-target greedy ladder loop, one Python step at a time."""
    lam, e_u = _unstable_direction(np.array(sys.matrix, dtype=float))
    s_max = 0.98 * delta * FIXED_DENOM
    vecs, projs, perps = _lattice_ladder(sys, e_u, s_max)
    perp_budget = (tol * FIXED_DENOM) / (lam**back_horizon) / 16.0
    usable = [j for j in range(len(vecs)) if perps[j] <= perp_budget]
    if not usable:
        raise EmptyCloud(
            "no lattice direction survives the admission tolerance: "
            f"delta={delta} is below the backward-horizon resolution floor"
        )
    usable = [j for j in usable if abs(projs[j]) > 0]
    order = sorted(usable, key=lambda j: -abs(projs[j]))
    smallest = min(abs(projs[j]) for j in usable)
    seen = set()
    disp = []
    for t in np.linspace(-s_max, s_max, budget):
        s = float(t)
        kx, ky = 0, 0
        for j in order:
            w = projs[j]
            aw = abs(w)
            while abs(s) >= aw and aw >= smallest:
                sgn = 1 if (s > 0) == (w > 0) else -1
                kx += sgn * vecs[j][0]
                ky += sgn * vecs[j][1]
                s -= sgn * w
        if (kx, ky) not in seen:
            seen.add((kx, ky))
            disp.append((kx, ky))
    return len(usable), disp


@pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((3, 2), (1, 1)), ((4097, 4096), (1, 1))])
@pytest.mark.parametrize("budget", [250, 600])
def test_vector_ladder_matches_reference_loop(matrix, budget):
    sys = ToralAutomorphism(matrix)
    args = (sys, 0.05, 4, budget, 0.05 / 8)
    levels_ref, disp_ref = _reference_torus_candidates(*args)
    _, _, levels, disp = _torus_candidates(*args)
    assert disp.dtype == np.int64
    assert levels == levels_ref
    assert [tuple(int(v) for v in row) for row in disp] == disp_ref


def test_vector_ladder_matches_reference_failure():
    # at back_horizon 40 the candidates still agree, and every nontrivial one
    # of the 4097 matrix fails admission, with the message the per-point loop gave
    sys = ToralAutomorphism(((4097, 4096), (1, 1)))
    args = (sys, 0.05, 40, 1000, 0.05 / 8)
    _, disp_ref = _reference_torus_candidates(*args)
    assert [tuple(int(v) for v in row) for row in _torus_candidates(*args)[3]] == disp_ref
    with pytest.raises(EmptyCloud) as err:
        sample_unstable_set(sys, TorusPoint(0.25, 0.5), 0.05, back_horizon=40, budget=1000)
    assert str(err.value) == "no nontrivial candidate survived admission; tightest failing n = 8"


def _torus_cloud_of(ints):
    ints = np.asarray(ints, dtype=np.int64)
    return PointCloud(
        rows=ints, base=None, delta=0.05, back_horizon=0, admission_tolerance=0.01,
        kind="torus", admitted=len(ints), rejected=0,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_packed_torus_box_counts_match_unique_rows(cat, seed):
    rng = np.random.default_rng(seed)
    spread = rng.integers(0, FIXED_DENOM, size=(1500, 2))  # the whole torus
    # a thin segment across the wrap-around, with repeated points
    t = rng.integers(-(2**45), 2**45, size=1500)
    segment = (np.stack([t, 3 * t // 5], axis=1) + 5) % FIXED_DENOM
    segment[::7] = segment[0]
    # 2^-40 boxes make 2^80 index pairs, past the int64 key: forces re-ranking
    scales = [0.1, 0.01, 2.0**-20, 2.0**-33, 2.0**-40]
    for ints in (spread, segment):
        cloud = _torus_cloud_of(ints)
        P = (ints % FIXED_DENOM) / FIXED_DENOM
        for shift in (0.0, 0.25):
            want = [
                np.unique(np.floor((P + shift * eps) / eps).astype(np.int64), axis=0).shape[0]
                for eps in scales
            ]
            assert _cloud_box_counts(cloud, cat, scales, origin_shift=shift) == want


@pytest.mark.parametrize("alphabet", [2, 3])
def test_packed_symbolic_box_counts_match_unique_rows(alphabet):
    shift = FullShift(alphabet_size=alphabet)
    rng = np.random.default_rng(alphabet)
    lo, width = -100, 201
    base = rng.integers(0, alphabet, size=width)
    S = np.repeat(base[None, :], 600, axis=0)
    # 150 free columns (more than 62 bits at radius 100), clustered words
    free = np.arange(20, 170)
    S[:, free] = rng.integers(0, alphabet, size=(600, free.size))
    S[300:, free[:40]] = S[0, free[:40]]
    # distinct rows that agree on the last 70 free columns: an unranked binary
    # key keeps only the last 64 bits and would merge them
    S[400:450, free[-70:]] = S[350:400, free[-70:]]
    S[500:] = S[:100]
    S = S.astype(np.int8)
    cloud = PointCloud(
        rows=S, base=None, delta=0.5, back_horizon=0, admission_tolerance=0.01,
        kind="shift", admitted=len(S), rejected=0, lo=lo,
    )
    scales = [2.0**-k for k in (1, 5, 20, 40, 70, 100)]
    want = []
    for eps in scales:
        k = _symbolic_box_radius(shift, eps)
        want.append(np.unique(S[:, -k - lo : k - lo + 1], axis=0).shape[0])
    assert _cloud_box_counts(cloud, shift, scales) == want
    assert want[-1] == 500  # the deepest window separates every distinct row


def _unique_rows(block):
    return np.unique(block, axis=0).shape[0] if block.shape[1] else min(len(block), 1)


@pytest.mark.parametrize("seed", range(6))
def test_occupancy_counts_match_unique_rows(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 3000))
    for radix, width, dtype in [(2, 12, np.int8), (3, 30, np.int8), (None, 3, np.int64)]:
        hi = radix if radix is not None else 2**45
        block = rng.integers(-hi if radix is None else 0, hi, size=(rows, width)).astype(dtype)
        block[rows // 2 :] = block[: rows - rows // 2]  # repeated rows
        assert _distinct_rows(block, radix) == _unique_rows(block)


def test_occupancy_counts_at_the_bound_and_past_it():
    rng = np.random.default_rng(7)
    # 1000 rows: the bound is 2^16 packed values, so 16 binary columns fill it
    # exactly and the 17th and later ones force re-ranking
    block = rng.integers(0, 2, size=(1000, 80)).astype(np.int8)
    block[500:] = block[:500]
    for width in (15, 16, 17, 80):
        assert _distinct_rows(block[:, :width], 2) == _unique_rows(block[:, :width])
    # one column whose range is exactly the bound, and one past it (packed digit by digit)
    for top in (1 << 16, (1 << 16) + 1, 1 << 40):
        col = np.concatenate([[0, top - 1], rng.integers(0, top, size=998)])[:, None]
        assert _distinct_rows(np.hstack([col, col % 3]), None) == _unique_rows(np.hstack([col, col % 3]))
    assert _distinct_rows(np.zeros((5, 0), dtype=np.int8), 2) == 1  # no columns: one box
    assert _distinct_rows(block[:1], 2) == 1


@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_torus_box_counts_match_the_whole_array_minimum(cat, cat_cloud, shift):
    _, cloud = cat_cloud
    scales = default_scales(cat, 0.05, 10_000)
    P = cloud.torus_coords()
    want = []
    for eps in scales:
        idx = np.floor((P + shift * eps) / eps).astype(np.int64)
        want.append(_unique_rows(idx - idx.min(axis=0)))
    assert _cloud_box_counts(cloud, cat, scales, origin_shift=shift) == want


def _reference_dyadic_cloud_rows(sys, x, delta, back_horizon, budget, tol):
    """Dyadic admission from the dense words x depth x (back_horizon + 1) tensor."""
    a = sys.alphabet_size
    m_delta = 0
    while 2.0 ** (-m_delta) > delta:
        m_delta += 1
    m_delta = max(m_delta, 1)
    side = 1 if not sys.inverted else -1
    room = x.hi - m_delta + 1 if side == 1 else -m_delta - x.lo + 1
    depth = 1
    while a ** (depth + 1) <= budget and depth + 1 <= room:
        depth += 1
    words = np.array(
        [[(w_ // a**j) % a for j in range(depth - 1, -1, -1)] for w_ in range(a**depth)],
        dtype=np.int8,
    )
    if side == 1:
        var_coords = np.arange(m_delta, m_delta + depth)
    else:
        var_coords = np.arange(-m_delta - depth + 1, -m_delta + 1)
    diff = words != np.asarray(x.coords(list(var_coords)), dtype=np.int8)[None, :]
    iis = np.arange(back_horizon + 1)
    shifted = np.abs(var_coords[None, :, None] + side * iis[None, None, :])
    big = np.where(diff[:, :, None], shifted, np.iinfo(np.int64).max)
    nearest = big.min(axis=1).astype(float)
    dists = np.where(nearest < 1e17, 2.0**-nearest, 0.0)
    ok = (dists <= delta).all(axis=1) & (dists[:, -1] <= tol)
    rows = []
    for i in np.flatnonzero(ok):
        syms = x.symbols.copy()
        syms[var_coords - x.lo] = words[i]
        rows.append(syms)
    return np.stack(rows), len(words) - len(rows), int(var_coords[0])


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("delta, tol", [(0.5, 2.0**-45), (0.2, 2.0**-49), (0.5, 0.0625)])
def test_first_mismatch_admission_matches_dense_tensor(inverted, delta, tol):
    shift = FullShift(alphabet_size=2, metric=DyadicMetric(), window=64, inverted=inverted)
    x = sample_point(shift, BernoulliIID((0.5, 0.5)), 3, 1000)
    rows_ref, rejected_ref, start = _reference_dyadic_cloud_rows(shift, x, delta, 40, 2048, tol)
    cloud = sample_unstable_set(
        shift, x, delta, back_horizon=40, budget=2048, admission_tolerance=tol
    )
    depth = cloud.rows.shape[1]
    assert cloud.lo == start
    assert np.array_equal(cloud.rows, rows_ref[:, start - x.lo : start - x.lo + depth])
    assert cloud.rejected == rejected_ref
    assert np.array_equal(np.stack([p.symbols for p in cloud.points]), rows_ref)
    assert cloud.points[-1] == SymbolicPoint(rows_ref[-1], x.lo)


_ROUND_TRIP = {
    "dyadic": (FullShift(window=64), 0.25, [2.0**-k for k in range(1, 15)]),
    "dyadic-inverted": (FullShift(window=64, inverted=True), 0.5, [2.0**-k for k in range(1, 15)]),
    "weighted-3-symbols": (FullShift(alphabet_size=3, metric=WeightedL2Metric(), window=64), 0.5,
                           [0.8, 0.6, 0.5, 0.45, 0.4, 0.35, 0.3]),
}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP))
def test_shift_cloud_points_round_trip_through_their_words(name):
    # a shift cloud stores only its words: every point is the base point with
    # its word pasted over the varied coordinates, and box counts over the
    # words equal distinct full rows on each box's coordinates
    sys, delta, scales = _ROUND_TRIP[name]
    a = sys.alphabet_size
    x = sample_point(sys, BernoulliIID((1 / a,) * a), 5, 1000)
    cloud = sample_unstable_set(sys, x, delta, back_horizon=20, budget=729)
    assert cloud.admitted > 100
    varied = np.arange(cloud.lo, cloud.lo + cloud.rows.shape[1]) - x.lo
    kept = np.ones(x.symbols.size, dtype=bool)
    kept[varied] = False
    points = list(cloud.points)
    assert all(p.lo == x.lo for p in points)
    full = np.stack([p.symbols for p in points])
    assert (full[:, kept] == x.symbols[kept]).all()
    assert np.array_equal(full[:, varied], cloud.rows)
    want = []
    for eps in scales:
        k = _symbolic_box_radius(sys, eps)
        want.append(np.unique(full[:, max(-k - x.lo, 0) : k - x.lo + 1], axis=0).shape[0])
    assert len(set(want)) > 2  # the scales cut through the varied coordinates
    assert _cloud_box_counts(cloud, sys, scales) == want


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------


def test_dyadic_default_scales_stop_where_the_cloud_saturates(weighted_shift):
    # the finest default scale is 2^-k for the largest k <= 9 with a^k <= budget
    finest = {(2, 10_000): 9, (2, 512): 9, (2, 511): 8, (2, 100): 6,
              (3, 10_000): 8, (3, 6561): 8, (3, 6560): 7, (4, 10_000): 6, (127, 10_000): 1}
    for (a, budget), k in finest.items():
        assert default_scales(FullShift(alphabet_size=a), 0.5, budget) == [2.0**-j for j in range(2, k + 1)]
    # the weighted metric and the torus keep their scales
    assert default_scales(weighted_shift, 0.5, 100) == [2.0**-j for j in range(2, 10)]
    assert default_scales(ToralAutomorphism(), 0.05, 100) == [0.05 * 2.0**-j for j in range(2, 8)]


def test_torus_line_cloud_slope_near_one(cat, cat_cloud):
    _, cloud = cat_cloud
    scales = [0.05 * 2.0 ** (-j) for j in range(2, 8)]
    est = box_counting_dimension(cloud, scales, sys=cat)
    assert 0.95 <= est.slope <= 1.05
    assert est.monotone
    assert est.alt_slope is not None and 0.9 <= est.alt_slope <= 1.1
    assert est.method == "box_count"
    assert est.n_points == 10_000


def test_single_point_has_slope_zero(cat):
    cloud = PointCloud(
        rows=np.array([TorusPoint(0.3, 0.4).ints()]), base=TorusPoint(0.3, 0.4), delta=0.05,
        back_horizon=0, admission_tolerance=0.01, kind="torus", admitted=1, rejected=0,
    )
    est = box_counting_dimension(cloud, [0.01, 0.005, 0.0025, 0.00125], sys=cat)
    assert est.slope == 0.0
    assert est.ci == (0.0, 0.0)


def test_symbolic_counts_are_powers_of_two(shift_cloud):
    shift, _, _, cloud = shift_cloud
    scales = [2.0 ** (-k) for k in range(2, 10)]
    est = box_counting_dimension(cloud, scales, sys=shift)
    # window radius k frees exactly the varied coordinates 1..k
    assert est.counts == [2 ** min(k, 13) for k in range(2, 10)]
    assert abs(est.slope - 1.0) < 1e-6
    assert est.monotone


def test_too_few_points(cat):
    pts = [TorusPoint(0.1 * i, 0.2) for i in range(5)]
    cloud = PointCloud(
        rows=np.array([p.ints() for p in pts]), base=pts[0], delta=0.05, back_horizon=0,
        admission_tolerance=0.01, kind="torus", admitted=5, rejected=0,
    )
    with pytest.raises(TooFewPoints):
        box_counting_dimension(cloud, [0.01, 0.005, 0.0025, 0.00125], sys=cat)


def test_too_few_scales_above_floor(shift_cloud):
    shift, _, _, cloud = shift_cloud
    with pytest.raises(TooFewScales):
        box_counting_dimension(cloud, [2.0**-300, 2.0**-301, 2.0**-302, 2.0**-303], sys=shift)
    with pytest.raises(TooFewScales):
        box_counting_dimension(cloud, [0.1, 0.05, 0.025], sys=shift)


def test_empty_cloud_rejected(cat):
    cloud = PointCloud(
        rows=np.empty((0, 2), dtype=np.int64), base=None, delta=0.05, back_horizon=0,
        admission_tolerance=0.01, kind="torus", admitted=0, rejected=10,
    )
    with pytest.raises(EmptyCloud):
        box_counting_dimension(cloud, [0.01, 0.005, 0.0025, 0.00125], sys=cat)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _log_grid(n, base=0.05):
    return np.log(1.0 / (base * 2.0 ** -np.arange(2, 2 + n)))


def test_fit_line_matches_linregress_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    cases = []
    for n in range(4, 17):
        x = _log_grid(n)
        for _ in range(40):
            slope = rng.uniform(-3.0, 3.0)  # negative slopes: local-mass fits
            cases.append((x, slope * x + rng.normal(0.0, rng.choice([1e-3, 0.1, 1.0]), n)))
        cases.append((x, np.log(rng.integers(1, 10_000, n).astype(float))))  # log counts
        cases.append((x, np.full(n, math.log(7.0))))  # constant y
        cases.append((x, 3.0 * x))  # collinear y
        cases.append((x, -2.5 * x + 1.0))
    for x, y in cases:
        ref = stats.linregress(x, y)
        slope, stderr = _fit_line(x, y)
        assert _same_bits(slope, ref.slope) and _same_bits(stderr, ref.stderr), (x, y)


def test_fit_line_degenerate_cases():
    x = _log_grid(8)
    slope, stderr = _fit_line(x, np.full(8, 2.0))
    assert slope == 0.0 and math.isnan(stderr)
    # exactly collinear: the raw correlation lands an ulp outside [-1, 1] and is clipped
    for n, a in ((4, 3.0), (14, -2.5)):
        x = _log_grid(n)
        ssxm, ssxym, _, ssym = np.cov(x, a * x, bias=1).flat
        assert abs(ssxym / np.sqrt(ssxm * ssym)) > 1.0
        slope, stderr = _fit_line(x, a * x)
        assert stderr == 0.0 and abs(slope - a) < 1e-12
    with pytest.raises(ValueError, match="all x values are identical"):
        _fit_line(np.full(5, 0.3), np.arange(5.0))


# ---------------------------------------------------------------------------
# local mass dimension
# ---------------------------------------------------------------------------


def test_exact_conditional_masses_dyadic(shift_cloud):
    shift, oracle, x, cloud = shift_cloud
    cond = disintegrate_past(oracle, 12, x)
    probe = cloud.points[1]
    scales = [2.0 ** (-k) for k in range(2, 10)]
    est = local_dimension_lower(cloud, cond, probe, scales, sys=shift)
    # ball of radius 2^-k pins coords -k..k; the negatives are already fixed
    # by the conditioning, leaving k+1 free fair coins
    for k, ratio in zip(range(2, 10), est.per_scale_ratio):
        assert ratio == pytest.approx((k + 1) / k, abs=1e-12)
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.liminf_proxy == pytest.approx(10 / 9, abs=1e-12)
    assert est.method == "local_mass"
    assert est.monotone


def test_point_mass_conditional_slope_zero(shift_cloud):
    shift, _, x, cloud = shift_cloud
    zero = type(x)(np.zeros_like(x.symbols), x.lo)
    cond = disintegrate_past(BernoulliIID((1.0, 0.0)), 12, zero)
    est = local_dimension_lower(cloud, cond, zero, [0.25, 0.125, 0.0625, 0.03125], sys=shift)
    assert est.slope == 0.0
    assert est.liminf_proxy == 0.0


def test_local_mass_needs_a_conditional_oracle(shift_cloud, cat_cloud, cat):
    shift, oracle, _, cloud = shift_cloud
    scales = [2.0 ** (-k) for k in range(2, 10)]
    with pytest.raises(UnsupportedOracle, match="conditional shift oracle"):
        local_dimension_lower(cloud, oracle, cloud.points[1], scales, sys=shift)
    _, torus_cloud = cat_cloud
    with pytest.raises(UnsupportedOracle, match="conditional shift oracle"):
        local_dimension_lower(torus_cloud, None, torus_cloud.points[1], scales, sys=cat)


def test_mass_starvation(shift_cloud):
    # the probe carries a 1 at coordinate 0, which the all-zeros measure never emits
    shift, _, x, cloud = shift_cloud
    zero = type(x)(np.zeros_like(x.symbols), x.lo)
    cond = disintegrate_past(BernoulliIID((1.0, 0.0)), 12, zero)
    probe = type(x)(np.ones_like(x.symbols), x.lo)
    with pytest.raises(MassStarvation, match="only 0 scales carry mass"):
        local_dimension_lower(cloud, cond, probe, [0.25, 0.125, 0.0625, 0.03125], sys=shift)


def test_mass_needs_four_scales(cat_cloud, cat):
    _, cloud = cat_cloud
    with pytest.raises(TooFewScales):
        local_dimension_lower(cloud, None, cloud.points[1], [0.01, 0.005, 0.0025], sys=cat)


def test_cloud_admits_the_words_distance_admits_on_three_symbols():
    sys = FullShift(alphabet_size=3, metric=WeightedL2Metric())
    x = sample_point(sys, BernoulliIID((1 / 3,) * 3), 0, 1000)
    delta, horizon = 0.5, 12
    cloud = sample_unstable_set(sys, x, delta, back_horizon=horizon, budget=81)
    start, depth = cloud.lo, cloud.rows.shape[1]
    admitted = {row.tobytes() for row in cloud.rows}
    for word in itertools.product(range(3), repeat=depth):
        symbols = x.symbols.copy()
        symbols[start - x.lo : start - x.lo + depth] = word
        y = SymbolicPoint(symbols, x.lo)
        d = [distance(sys, iterate(sys, x, -i), iterate(sys, y, -i)) for i in range(horizon + 1)]
        ok = max(d) <= delta and d[-1] <= cloud.admission_tolerance
        assert ok == (np.array(word, dtype=np.int8).tobytes() in admitted), word
    assert 0 < cloud.admitted < 3**depth


def test_exact_mass_needs_dyadic_metric(weighted_shift, bern_half):
    x = sample_point(weighted_shift, bern_half, 0, 1000)
    cloud = sample_unstable_set(weighted_shift, x, 0.5, back_horizon=10, budget=64)
    cond = disintegrate_past(bern_half, 8, x)
    with pytest.raises(UnsupportedOracle):
        local_dimension_lower(cloud, cond, cloud.points[0], [0.5, 0.25, 0.125, 0.0625], sys=weighted_shift)


# ---------------------------------------------------------------------------
# scale -> depth helpers against the loops they replaced, one per call site
# ---------------------------------------------------------------------------


def _old_flip_depth(sys, r):
    """geometry: ``_shift_probe_ratios`` and ``_shift_inclusion_sample`` held this loop twice."""
    if isinstance(sys.metric, DyadicMetric):
        k_lo = int(math.floor(math.log2(1.0 / r))) + 1
        while 2.0 ** (-k_lo) >= r:
            k_lo += 1
    else:
        k_lo = 1
        while weighted_tail_bound(sys.metric.weights, k_lo - 1) >= r and k_lo < sys.window:
            k_lo += 1
    return k_lo


def _old_cloud_depth(sys, delta):
    """dimension: ``_shift_unstable_cloud``, before its max(m_delta, 1)."""
    if isinstance(sys.metric, DyadicMetric):
        m_delta = 0
        while 2.0 ** (-m_delta) > delta:
            m_delta += 1
    else:
        w = sys.metric.weights
        m_delta = 0
        while math.sqrt(max(w.total - math.fsum(w.a(k) for k in range(m_delta)), 0.0)) > delta:
            m_delta += 1
            if m_delta > sys.window:
                break
    return m_delta


def _old_dyadic_depth(eps):
    """systems: ``dyadic_depth``."""
    k = 0
    while 2.0 ** (-k) > eps:
        k += 1
    return k


def _old_agreement_radius(eps):
    """entropy: ``dyadic_agreement_radius``."""
    m = 0
    while 2.0 ** (-m) >= eps:
        m += 1
    return m - 1


def _old_box_radius(sys, eps):
    """dimension: ``_symbolic_box_radius``."""
    if isinstance(sys.metric, DyadicMetric):
        k = 0
        while 2.0 ** (-k) > eps:
            k += 1
        return k
    w = sys.metric.weights
    k = 0
    while math.sqrt(2.0 * w.tail_sum(k)) > eps:
        k += 1
        if k > 10 * sys.window:
            raise ValueError(f"scale {eps} below the weighted-metric resolution")
    return k


def _old_cover_depth(sys, delta):
    """dimension: ``unstable_cover_counts``'s m_delta."""
    if isinstance(sys.metric, DyadicMetric):
        m_delta = 0
        while 2.0 ** (-m_delta) > delta:
            m_delta += 1
    else:
        w = sys.metric.weights
        m_delta = 0
        while math.sqrt(2.0 * w.tail_sum(m_delta - 1 if m_delta else 0)) > delta and m_delta < 10_000:
            m_delta += 1
    return max(m_delta, 1)


def _old_cylinder_depth(weights, eps, limit):
    """systems: ``cylinder_depth``'s linear scan."""
    k = 0
    while k <= limit and math.sqrt(2.0 * weights.tail_sum(k)) > eps:
        k += 1
    return k


def _old_one_sided_depth(weights, eps, limit):
    """systems: ``one_sided_depth``'s linear scan."""
    m = 0
    while m <= limit and math.sqrt(weights.tail_sum(m - 1)) > eps:
        m += 1
    return m


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _radii(lowest_octave):
    """Powers of two from 4 down, each with its float neighbours, plus radii above 1."""
    grid = [1.5, 3.0]
    for j in range(-2, lowest_octave + 1):
        r = 2.0 ** -j
        grid += [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
    return grid


_DEPTH_SHIFTS = {
    "dyadic": (FullShift(alphabet_size=2), 60),
    "weighted": (FullShift(alphabet_size=2, metric=WeightedL2Metric()), 4),
    # a small window reaches every cap; on three symbols the depths are those of two
    "weighted-ternary-w16": (FullShift(alphabet_size=3, metric=WeightedL2Metric(), window=16), 4),
}


@pytest.mark.parametrize("name", sorted(_DEPTH_SHIFTS))
def test_depth_helpers_match_the_loops_they_replaced(name):
    sys, lowest_octave = _DEPTH_SHIFTS[name]
    dyadic = isinstance(sys.metric, DyadicMetric)
    for r in _radii(lowest_octave):
        flip = open_flip_depth(sys, r)
        if dyadic:
            # the least k with 2**-k < r; the old loop's float log2 could overshoot it by one
            assert 2.0**-flip < r <= 2.0 ** (1 - flip), r
            assert _old_flip_depth(sys, r) in (flip, flip + 1), r
        else:
            assert flip == _old_flip_depth(sys, r), r
        if dyadic:
            cloud_depth = dyadic_depth(r)
        else:
            cloud_depth = one_sided_depth(sys.metric.weights, r, sys.window)
        assert cloud_depth == _old_cloud_depth(sys, r), r
        assert _outcome(_symbolic_box_radius, sys, r) == _outcome(_old_box_radius, sys, r), r
        assert unstable_cover_counts(sys, r, octaves=0)["m_delta"] == _old_cover_depth(sys, r), r
    if dyadic:
        # every power of two down to the least subnormal, its float neighbours, random radii
        powers = [2.0**-j for j in range(1075)]
        radii = [math.nextafter(r, to) for r in powers for to in (0.0, math.inf)] + powers
        radii += list(np.random.default_rng(0).random(2000))
        for r in (r for r in radii if r > 0.0):
            assert dyadic_depth(r) == _old_dyadic_depth(r), r
            if r <= 1.0:
                assert dyadic_agreement_radius(r) == _old_agreement_radius(r), r


@pytest.mark.parametrize(
    "sys",
    [
        FullShift(metric=WeightedL2Metric()),
        FullShift(alphabet_size=3, metric=WeightedL2Metric(), window=16),
        # geometric weights, sum_k 2^-k = 2
        FullShift(
            metric=WeightedL2Metric(WeightSequence(a=lambda k: 0.5**k, b=lambda m: 1.0, C=1.0, total=2.0)),
            window=24,
        ),
    ],
    ids=["default", "ternary-w16", "geometric"],
)
def test_weighted_flip_depth_matches_the_per_k_loop(sys):
    """The one depth search gives the depths the per-k loops gave.

    The grid holds every tail bound the loops compare with (two-sided and one-sided)
    and its float neighbours, so a sum rounded differently from ``fsum``, or a search
    that is off by one at a boundary, moves a depth.
    """
    w = sys.metric.weights
    bounds = [weighted_tail_bound(w, k) for k in range(-1, sys.window + 1)]
    bounds += [math.sqrt(w.tail_sum(m)) for m in range(-1, sys.window + 1)]
    radii = [r for b in bounds for r in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))]
    for r in radii + [1e-300, 10.0]:
        if r > 0.0:
            assert open_flip_depth(sys, r) == _old_flip_depth(sys, r), r
            for limit in (0, 5, sys.window):
                assert cylinder_depth(w, r, limit) == _old_cylinder_depth(w, r, limit), (r, limit)
                assert one_sided_depth(w, r, limit) == _old_one_sided_depth(w, r, limit), (r, limit)


@pytest.mark.parametrize("r", [-1.0, 0.0, -0.0, math.inf, math.nan])
def test_dyadic_depths_reject_radii_that_are_not_positive_and_finite(r):
    # the closed-ball loop never ended for r <= 0
    for depth in (dyadic_depth, dyadic_open_depth):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            depth(r)


def test_depth_grid_reaches_the_caps():
    """The grid above hits the window caps and the box-radius error, not only interior depths."""
    sys, lowest_octave = _DEPTH_SHIFTS["weighted-ternary-w16"]
    r = 2.0 ** -lowest_octave
    assert open_flip_depth(sys, r) == sys.window
    assert _old_cloud_depth(sys, r) == sys.window + 1
    with pytest.raises(ValueError, match="below the weighted-metric resolution"):
        _symbolic_box_radius(sys, r)
    # just above a power of two the least depth is that power's, which a float log2 overshot
    r = math.nextafter(2.0**-5, math.inf)
    assert open_flip_depth(FullShift(), r) == 5 and 2.0**-5 < r
    assert _old_flip_depth(FullShift(), r) == 6


@pytest.mark.parametrize("j", [-3, 0, 1, 5, 30, 52, 60, 1022])
def test_dyadic_flip_depth_is_exact_around_powers_of_two(j):
    sys = FullShift()
    power = 2.0**-j
    assert open_flip_depth(sys, math.nextafter(power, math.inf)) == j
    assert open_flip_depth(sys, power) == j + 1  # open ball: 2**-j itself is not below r
    assert open_flip_depth(sys, math.nextafter(power, 0.0)) == j + 1


# ---------------------------------------------------------------------------
# exact cover counts (divergence regime)
# ---------------------------------------------------------------------------


def test_dyadic_cover_slopes_constant(dyadic_shift):
    cover = unstable_cover_counts(dyadic_shift, 0.5, octaves=4)
    assert cover["m_delta"] == 1
    assert cover["octave_slopes"] == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-12)
    assert not cover["strictly_increasing"]


def test_weighted_cover_radii_match_direct_search(weighted_shift):
    cover = unstable_cover_counts(weighted_shift, 0.5, octaves=4)
    w = weighted_shift.metric.weights
    for eps, k_got in zip(cover["scales"], cover["window_radii"]):
        k = 0
        while math.sqrt(2.0 * w.tail_sum(k)) > eps:
            k += 1
        assert k == k_got
    for k, lc in zip(cover["window_radii"], cover["log_counts"]):
        assert lc == pytest.approx(max(k - cover["m_delta"] + 1, 0) * LOG2, abs=1e-12)


def test_weighted_cover_first_coordinate_is_not_capped_at_ten_thousand(weighted_shift):
    # sqrt(2 * sum_{j > k} 1/(j^2 + 1)) <= 0.01 first at k = 20000, so m_delta = 20001
    cover = unstable_cover_counts(weighted_shift, 0.01, octaves=0)
    assert cover["m_delta"] == 20_001
    assert weighted_tail_bound(weighted_shift.metric.weights, 20_000) <= 0.01
    assert weighted_tail_bound(weighted_shift.metric.weights, 19_999) > 0.01


def test_weighted_cover_depths_past_the_limit_are_refused():
    w = FullShift(metric=WeightedL2Metric()).metric.weights
    # the radius at octave j of delta 0.5 is about 32 * 4^j: octave 7 fits, octave 8 does not
    cover = unstable_cover_counts(FullShift(metric=WeightedL2Metric()), 0.5, octaves=7)
    assert cover["window_radii"][-1] <= COVER_DEPTH_LIMIT
    with pytest.raises(ScaleUnderflow, match=f"over 8 octaves .* deeper than the cover depth limit {COVER_DEPTH_LIMIT}"):
        unstable_cover_counts(FullShift(metric=WeightedL2Metric()), 0.5, octaves=8)
    # m_delta itself lies past the limit: about 2 / delta^2
    with pytest.raises(ScaleUnderflow, match="delta = 0.001 over 0 octaves"):
        unstable_cover_counts(FullShift(metric=WeightedL2Metric()), 0.001, octaves=0)
    assert cylinder_depth(w, 0.001, COVER_DEPTH_LIMIT) > COVER_DEPTH_LIMIT


def test_weighted_cover_slopes_strictly_increase(weighted_shift):
    cover = unstable_cover_counts(weighted_shift, 0.5, octaves=4)
    slopes = cover["octave_slopes"]
    assert cover["strictly_increasing"]
    assert all(b > 3.5 * a for a, b in zip(slopes, slopes[1:]))


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------


def test_verify_cat_map(cat, lebesgue):
    rep = verify_main_inequality(
        cat, lebesgue, base_points=6, cloud_budget=5000, chi_points=64, chi_probes=64, seed=0
    )
    assert rep.regime == "ratio"
    assert rep.h_value == pytest.approx(LOG_LAM, abs=1e-12)
    assert abs(rep.chi - LOG_LAM) / LOG_LAM < 0.02
    assert 0.9 <= rep.dim_estimate <= 1.1
    assert abs(rep.ratio - 1.0) < 0.05
    assert rep.holds and rep.slack >= -0.05
    assert rep.flags == []
    assert rep.disclaimer


def test_verify_dyadic_shift(dyadic_shift, bern_half):
    rep = verify_main_inequality(
        dyadic_shift, bern_half, base_points=5, cloud_budget=8192,
        chi_points=48, chi_probes=64, seed=0,
    )
    assert rep.regime == "ratio"
    assert rep.h_value == pytest.approx(LOG2, abs=1e-15)
    assert rep.dim_estimate == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.ratio - 1.0) < 0.05
    assert rep.mass_liminf is not None and rep.mass_liminf > 1.0
    assert rep.holds


def test_verify_backward_direction(cat, lebesgue):
    rep = verify_main_inequality(
        cat, lebesgue, direction="backward", base_points=4, cloud_budget=5000,
        chi_points=48, chi_probes=64, seed=0,
    )
    assert rep.direction == "backward"
    assert rep.regime == "ratio"
    assert abs(rep.ratio - 1.0) < 0.05
    assert rep.holds


def test_verify_weighted_divergence(weighted_shift, bern_half):
    rep = verify_main_inequality(
        weighted_shift, bern_half, chi_points=32, chi_probes=48, n_schedule=(2, 4, 8),
        base_points=4, seed=0,
    )
    assert rep.regime == "divergence"
    assert rep.chi <= rep.chi_floor
    assert rep.ratio == math.inf
    assert rep.dim_estimate is None
    assert rep.divergence["strictly_increasing"]
    assert rep.holds


def test_verify_direction_validation(cat, lebesgue):
    with pytest.raises(ValueError):
        verify_main_inequality(cat, lebesgue, direction="sideways")


def test_verify_isometry_has_no_divergence_route(translation, lebesgue):
    # chi = 0 trips the floor, and the divergence criterion is undefined off
    # the shift systems
    with pytest.raises(UnsupportedOracle):
        verify_main_inequality(
            translation, lebesgue, base_points=2, chi_points=16, chi_probes=16,
            n_schedule=(2, 4),
        )


def test_verify_surfaces_total_failure(cat, lebesgue):
    with pytest.raises(EmptyCloud):
        verify_main_inequality(
            cat, lebesgue, delta=1e-9, base_points=3, chi_points=16, chi_probes=16,
            n_schedule=(2, 4),
        )


def test_backward_verify_samples_mu_itself(monkeypatch):
    # mu is invariant under the inverse shift on the same coordinates, so
    # backward base points must follow mu's own transition law; the cyclic
    # chain is not reversible, so its time reversal would read differently
    import ergodim.dimension as dimension

    rows = ((0.1, 0.8, 0.1), (0.1, 0.1, 0.8), (0.8, 0.1, 0.1))
    chain = MarkovStationary(rows)
    handed = []

    def recording_sample_point(sys, oracle, *args, **kwargs):
        handed.append(oracle)
        return sample_point(sys, oracle, *args, **kwargs)

    monkeypatch.setattr(dimension, "sample_point", recording_sample_point)
    shift = FullShift(alphabet_size=3, window=64)
    verify_main_inequality(
        shift, chain, direction="backward", base_points=1, cloud_budget=729,
        chi_points=8, chi_probes=8, n_schedule=(2, 4), seed=0,
    )
    assert handed and all(oracle is chain for oracle in handed)
    xs = sample_points(invert(FullShift(alphabet_size=3, window=4)), handed[0], 0, 3000)
    pairs = np.array([x.coords([0, 1]) for x in xs])
    after_zero = pairs[pairs[:, 0] == 0, 1]
    row = np.bincount(after_zero, minlength=3) / len(after_zero)
    np.testing.assert_allclose(row, rows[0], atol=0.03)
