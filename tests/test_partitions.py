"""Partition lattice, subordinate-chain construction, local SMB checks, and
Hamming-ball counting bounds.

Independent oracles: coordinate-set entropies are cross-checked against full
atom enumeration; Hamming ball counts against brute-force word enumeration;
the subordinate chain's translation times against the hand argument that the
top coordinate of the chain must not advance (for a one-sided-window chain
the least admissible translation at level q is q - 1).
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ergodim.errors import (
    EpsOutOfRange,
    LengthMismatch,
    MixedSystems,
    SearchExhausted,
    UnsupportedOracle,
)
from ergodim.measures import BernoulliIID, rng_for, sample_point, uniform_symbols, word_distribution
from ergodim.partitions import (
    CylinderPartition,
    check_atom_in_unstable,
    construct_subordinate_partition,
    coord_entropy,
    cylinder_window,
    delta_constant,
    disintegrate_past,
    hamming_ball_bound_check,
    local_smb_check,
    orbit_join,
    past_join,
    pullback,
    refine,
    shift_lemma_check,
)
from ergodim.systems import FullShift, SymbolicPoint, WeightedL2Metric, distance, iterate
from tests.conftest import LOG2


def h2(p: float) -> float:
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q))


def dist_entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def test_refine_unions_coordinates():
    joined = refine(cylinder_window(0, 2), cylinder_window(1, 4))
    assert joined.coords == (0, 1, 2, 3, 4)
    assert joined.atom_count == 32


def test_refine_commutes_and_absorbs():
    a, b = cylinder_window(-1, 1), cylinder_window(0, 3)
    assert refine(a, b) == refine(b, a)
    assert refine(a, a) == a


def test_pullback_translates():
    assert pullback(cylinder_window(0, 1), 3).coords == (3, 4)
    assert pullback(pullback(cylinder_window(0, 0), 1), 2) == pullback(cylinder_window(0, 0), 3)


def test_orbit_join_of_time_zero_is_window():
    assert orbit_join(cylinder_window(0, 0), 0, 4) == cylinder_window(0, 4)
    assert orbit_join(cylinder_window(0, 1), 0, 2).coords == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        orbit_join(cylinder_window(0, 0), 3, 2)


def test_past_join_is_strict_past():
    assert past_join(cylinder_window(0, 0), 3).coords == (-3, -2, -1)
    assert past_join(cylinder_window(-1, 1), 2).coords == (-3, -2, -1, 0)
    with pytest.raises(ValueError):
        past_join(cylinder_window(0, 0), 0)


def test_mixed_kinds_rejected():
    with pytest.raises(MixedSystems):
        refine(cylinder_window(0, 0), cylinder_window(0, 0, alphabet=3))


def test_cylinder_labels_read_point(dyadic_shift):
    x = SymbolicPoint((1, 0, 1, 1, 0), lo=-2)
    assert cylinder_window(-1, 1).label(x) == (0, 1, 1)
    with pytest.raises(ValueError):
        CylinderPartition((0, 0))


# ---------------------------------------------------------------------------
# diameter bounds are exact sups
# ---------------------------------------------------------------------------


def test_dyadic_diameter_bound_achieved(dyadic_shift):
    part = cylinder_window(-2, 5)
    bound = part.diameter_bound(dyadic_shift)
    assert bound == 2.0**-3
    # achieving pair: agree on the window, differ at the nearest free coord
    base = [0] * 21
    other = list(base)
    other[-3 + 10] = 1
    x, y = SymbolicPoint(base, lo=-10), SymbolicPoint(other, lo=-10)
    assert part.label(x) == part.label(y)
    assert distance(dyadic_shift, x, y) == bound


def test_dyadic_diameter_dominates_samples(dyadic_shift):
    part = cylinder_window(-1, 3)
    bound = part.diameter_bound(dyadic_shift)
    rng = np.random.default_rng(0)
    pinned = np.array(part.coords) + 10
    for _ in range(200):
        a = rng.integers(0, 2, size=21, dtype=np.int8)
        b = rng.integers(0, 2, size=21, dtype=np.int8)
        b[pinned] = a[pinned]
        d = distance(dyadic_shift, SymbolicPoint(a, lo=-10), SymbolicPoint(b, lo=-10))
        assert d <= bound + 1e-15


@pytest.mark.parametrize("alphabet", [2, 3])
def test_weighted_diameter_bound_achieved(alphabet):
    sys = FullShift(alphabet_size=alphabet, metric=WeightedL2Metric())
    part = cylinder_window(-2, 2, alphabet)
    bound = part.diameter_bound(sys)
    W = sys.window
    # a pair that differs at every free coordinate attains the sup, whatever its symbols
    free = np.array([i for i in range(-W, W + 1) if abs(i) > 2]) + W
    pair_rng = np.random.default_rng(0)
    a = pair_rng.integers(0, alphabet, size=2 * W + 1, dtype=np.int8)
    b = a.copy()
    b[free] = (a[free] + pair_rng.integers(1, alphabet, size=free.size)) % alphabet
    x, y = SymbolicPoint(a, lo=-W), SymbolicPoint(b, lo=-W)
    assert part.label(x) == part.label(y)
    assert distance(sys, x, y) == pytest.approx(bound, rel=1e-12)
    rng = np.random.default_rng(1)
    pinned = np.array(part.coords) + W
    for _ in range(50):
        a = rng.integers(0, alphabet, size=2 * W + 1, dtype=np.int8)
        b = rng.integers(0, alphabet, size=2 * W + 1, dtype=np.int8)
        b[pinned] = a[pinned]
        d = distance(sys, SymbolicPoint(a, lo=-W), SymbolicPoint(b, lo=-W))
        assert d <= bound + 1e-12


# ---------------------------------------------------------------------------
# coordinate-set entropy vs enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("coords", [[0], [0, 2, 5], [-3, -1, 0, 4]])
def test_markov_coord_entropy_matches_enumeration(markov, coords):
    fast = coord_entropy(markov, coords)
    slow = dist_entropy(word_distribution(markov, sorted(coords)))
    assert fast == pytest.approx(slow, abs=1e-12)


def test_bernoulli_coord_entropy(bern_biased):
    assert coord_entropy(bern_biased, [0, 3, 9]) == pytest.approx(3 * h2(0.3), abs=1e-13)
    assert coord_entropy(bern_biased, []) == 0.0


def test_coord_entropy_unsupported(lebesgue):
    with pytest.raises(UnsupportedOracle):
        coord_entropy(lebesgue, [0, 1])


# ---------------------------------------------------------------------------
# subordinate partition construction
# ---------------------------------------------------------------------------


def test_fair_coin_chain_translations(dyadic_shift, bern_half):
    plan = construct_subordinate_partition(dyadic_shift, bern_half, delta=0.5, depth=3)
    # the top chain coordinate must not advance past its level-1 value, and
    # level q's block reaches q - k above zero: least admissible k is q - 1
    assert plan.ks == [0, 1, 2]
    assert plan.sup_c == pytest.approx(LOG2, abs=1e-12)
    assert plan.oracle_rate == pytest.approx(LOG2, abs=1e-15)
    assert all(c == pytest.approx(LOG2, abs=1e-12) for c in plan.c_values)
    assert plan.diagnostics["t_beta1_within_delta"]
    assert plan.diagnostics["beta1_diameter"] == 0.25
    assert plan.diagnostics["t_beta1_diameter"] == 0.5


def test_depth_one_chain(dyadic_shift, bern_half):
    plan = construct_subordinate_partition(dyadic_shift, bern_half, delta=0.5, depth=1)
    assert plan.ks == [0]
    assert plan.alphas == [cylinder_window(-1, 1)]
    assert plan.sup_c == pytest.approx(LOG2, abs=1e-12)


def test_markov_chain_conditional_entropies_hit_rate(dyadic_shift, markov):
    # conditioning on any past that includes the previous coordinate collapses
    # to the one-step transition entropy, so every c-value equals the rate
    plan = construct_subordinate_partition(dyadic_shift, markov, delta=0.5, depth=3)
    assert plan.ks == [0, 1, 2]
    for c in plan.c_values:
        assert c == pytest.approx(plan.oracle_rate, abs=1e-12)
    assert plan.diagnostics["rate_gap"] == pytest.approx(0.0, abs=1e-12)


def test_degenerate_oracle_accepts_immediately(dyadic_shift):
    plan = construct_subordinate_partition(dyadic_shift, BernoulliIID((1.0, 0.0)), delta=0.5, depth=3)
    assert plan.ks == [0, 0, 0]
    assert plan.sup_c == 0.0


def test_search_exhausted_carries_residuals(dyadic_shift, bern_half):
    with pytest.raises(SearchExhausted) as exc:
        construct_subordinate_partition(dyadic_shift, bern_half, delta=0.5, depth=3, k_max=0)
    residuals = exc.value.residuals
    assert residuals[-1]["q"] == 2
    assert all(excess > 0 for _, excess in residuals[-1]["residuals"])


def test_chain_validation(dyadic_shift, bern_half):
    with pytest.raises(ValueError):
        construct_subordinate_partition(dyadic_shift, bern_half, delta=0.0)
    with pytest.raises(ValueError):
        construct_subordinate_partition(dyadic_shift, bern_half, delta=0.5, depth=0)
    with pytest.raises(ValueError):
        # diam(beta_1) = 0.25 exceeds a tiny delta
        construct_subordinate_partition(dyadic_shift, bern_half, delta=0.1)


# ---------------------------------------------------------------------------
# sampled atom checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fair_plan():
    shift = FullShift(alphabet_size=2)
    oracle = BernoulliIID((0.5, 0.5))
    return shift, oracle, construct_subordinate_partition(shift, oracle, delta=0.5, depth=3)


def test_atom_pairs_stay_in_unstable(fair_plan):
    shift, oracle, plan = fair_plan
    x = sample_point(shift, oracle, master_seed=2)
    rep = check_atom_in_unstable(shift, plan, x, horizon=50, pairs=100, seed=0)
    assert rep.violations == 0
    assert rep.level_violations == 0
    assert rep.past_depth_used == 51
    # past of the chain [-5..1] to depth 51 pins exactly [-56, 0]
    assert rep.agreement_coords == 57
    assert rep.worst_distance <= plan.delta
    for _, bound, observed in rep.per_level:
        assert observed <= bound


def test_atom_check_distances_are_those_of_distance_on_three_symbols():
    sys = FullShift(alphabet_size=3, metric=WeightedL2Metric(), window=96)
    oracle = BernoulliIID((1 / 3,) * 3)
    plan = construct_subordinate_partition(sys, oracle, delta=2.5)
    x = sample_point(sys, oracle, master_seed=2)
    horizon, seed = 20, 0
    rep = check_atom_in_unstable(sys, plan, x, horizon=horizon, pairs=1, seed=seed)
    # the one pair as the check draws it: y, then z, both pinned to x on the atom's coordinates
    rng = rng_for(seed, horizon)
    y, z = (uniform_symbols(rng, 3, x.symbols.size) for _ in range(2))
    agree = np.array(past_join(plan.alphas[-1], rep.past_depth_used).coords) - x.lo
    y[agree] = z[agree] = x.symbols[agree]
    y, z = SymbolicPoint(y, x.lo), SymbolicPoint(z, x.lo)
    d = [distance(sys, iterate(sys, y, -i), iterate(sys, z, -i)) for i in range(horizon + 1)]
    assert rep.worst_distance == max(d)
    assert [worst for _, _, worst in rep.per_level] == [max(d[k + 1 :], default=0.0) for k in plan.ks]


def test_atom_check_worst_distance_is_sharp(fair_plan):
    # some pair differs at coordinate 1, so the sup 1/2 is actually attained
    shift, oracle, plan = fair_plan
    x = sample_point(shift, oracle, master_seed=2)
    rep = check_atom_in_unstable(shift, plan, x, horizon=50, pairs=100, seed=0)
    assert rep.worst_distance == 0.5


def test_atom_check_detects_broken_delta(fair_plan):
    shift, oracle, plan = fair_plan
    x = sample_point(shift, oracle, master_seed=2)
    rep = check_atom_in_unstable(shift, replace(plan, delta=0.1), x, horizon=50, pairs=100, seed=0)
    assert rep.violations > 0


def test_atom_check_detects_broken_translations(fair_plan):
    # zero translations put level-2 back-iterates outside diam(beta_2)
    shift, oracle, plan = fair_plan
    x = sample_point(shift, oracle, master_seed=2)
    rep = check_atom_in_unstable(shift, replace(plan, ks=[0, 0, 0]), x, horizon=50, pairs=100, seed=0)
    assert rep.level_violations >= 1


def test_atom_check_zero_horizon(fair_plan):
    shift, oracle, plan = fair_plan
    x = sample_point(shift, oracle, master_seed=4)
    rep = check_atom_in_unstable(shift, plan, x, horizon=0, pairs=20, seed=0)
    assert rep.past_depth_used == plan.past_depth
    assert rep.agreement_coords == 14  # [-13, 0]
    assert rep.level_violations == 0


def test_atom_check_window_guard(fair_plan):
    shift, oracle, plan = fair_plan
    x = sample_point(shift, oracle, master_seed=2)
    with pytest.raises(LengthMismatch):
        check_atom_in_unstable(shift, plan, x, horizon=300, pairs=10, seed=0)


# ---------------------------------------------------------------------------
# past disintegration and local SMB
# ---------------------------------------------------------------------------


def test_disintegrate_fixes_strict_past(markov, dyadic_shift):
    x = sample_point(dyadic_shift, markov, master_seed=6)
    cond = disintegrate_past(markov, 5, x)
    assert set(cond.fixed) == {-5, -4, -3, -2, -1}
    assert all(cond.fixed[i] == x.coord(i) for i in cond.fixed)
    with pytest.raises(ValueError):
        disintegrate_past(markov, 0, x)


def test_fair_coin_smb_is_exact(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, master_seed=8)
    rep = local_smb_check(dyadic_shift, bern_half, x, [50, 100, 150, 200], paths=50, seed=0)
    assert rep.target == pytest.approx(LOG2, abs=1e-15)
    for v in rep.mean_per_n:
        assert v == pytest.approx(LOG2, abs=1e-13)
    assert rep.rel_error < 1e-13
    assert all(v == pytest.approx(LOG2, abs=1e-13) for v in rep.per_path_final)


def test_biased_coin_smb_converges(dyadic_shift, bern_biased):
    x = sample_point(dyadic_shift, bern_biased, master_seed=8)
    rep = local_smb_check(
        dyadic_shift, bern_biased, x, [400, 800, 1200, 1600], paths=200, seed=1
    )
    assert rep.target == pytest.approx(h2(0.3), abs=1e-15)
    assert rep.rel_error < 0.01


def test_markov_smb_converges(dyadic_shift, markov):
    x = sample_point(dyadic_shift, markov, master_seed=9)
    rep = local_smb_check(dyadic_shift, markov, x, [400, 800, 1200, 1600], paths=200, seed=2)
    assert rep.rel_error < 0.01
    assert len(rep.per_path_final) == 200


def test_markov_smb_peak_memory_at_bench_scale(dyadic_shift, markov):
    # 200 paths x 10^4 steps: the uniforms alone are 16 MB, and they are freed
    # before the walk; the log-masses (16 MB) are gathered in row chunks and
    # summed in place, so nothing else of that size is alive beside them
    x = sample_point(dyadic_shift, markov, master_seed=9)
    tracemalloc.start()
    try:
        local_smb_check(dyadic_shift, markov, x, [2500, 5000, 7500, 10_000], paths=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_smb_schedule_validation(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, master_seed=8)
    with pytest.raises(ValueError):
        local_smb_check(dyadic_shift, bern_half, x, [], paths=10)
    with pytest.raises(ValueError):
        local_smb_check(dyadic_shift, bern_half, x, [0, 5], paths=10)


# ---------------------------------------------------------------------------
# dropped-prefix (shifted-block) comparison
# ---------------------------------------------------------------------------


def test_fair_coin_shifted_blocks_exact():
    wide = FullShift(alphabet_size=2, window=10_100)
    oracle = BernoulliIID((0.5, 0.5))
    x = sample_point(wide, oracle, master_seed=10)
    ns = [2500, 5000, 7500, 10000]
    rep = shift_lemma_check(oracle, x, k=3, n_schedule=ns)
    for n, b, s in zip(ns, rep.base_values, rep.shifted_values):
        assert b == pytest.approx((n + 1) * LOG2 / n, abs=1e-12)
        assert s == pytest.approx((n - 2) * LOG2 / n, abs=1e-12)
    assert rep.rel_gap < 0.01
    assert rep.length_factors == [(n - 2) / (n + 1) for n in ns]


def test_markov_shifted_blocks_agree(markov):
    wide = FullShift(alphabet_size=2, window=10_100)
    x = sample_point(wide, markov, master_seed=11)
    rep = shift_lemma_check(markov, x, k=3, n_schedule=[2500, 5000, 7500, 10000])
    assert rep.rel_gap < 0.01


def test_shift_check_validation(markov, dyadic_shift):
    x = sample_point(dyadic_shift, markov, master_seed=11)
    with pytest.raises(ValueError):
        shift_lemma_check(markov, x, k=5, n_schedule=[4, 8])
    with pytest.raises(ValueError):
        shift_lemma_check(markov, x, k=0, n_schedule=[4, 8])


# ---------------------------------------------------------------------------
# Hamming-ball counting bounds
# ---------------------------------------------------------------------------


def test_delta_constant_binary_closed_form():
    got = delta_constant(0.04, 2)
    assert got.value == pytest.approx(h2(0.4), abs=1e-12)
    assert delta_constant(0.01, 2).value == pytest.approx(h2(0.2), abs=1e-12)


def test_delta_constant_larger_alphabet():
    s = 2 * math.sqrt(0.04)
    expect = s * math.log(2) + h2(s)
    assert delta_constant(0.04, 3).value == pytest.approx(expect, abs=1e-12)


def test_delta_constant_monotone_below_cap():
    vals = [delta_constant(e, 2).value for e in (0.005, 0.01, 0.02, 0.04, 0.06)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_delta_constant_domain():
    with pytest.raises(EpsOutOfRange):
        delta_constant(0.25, 2)
    with pytest.raises(EpsOutOfRange):
        delta_constant(0.0, 2)
    with pytest.raises(ValueError):
        delta_constant(0.04, 1)


def test_hamming_ball_small_case_by_hand():
    rep = hamming_ball_bound_check(4, 2, 0.04)
    assert rep.m == 2
    assert rep.open_ball_count == 5  # zero word plus the four single flips
    assert rep.closed_sum == 11
    assert rep.crude_bound == 12
    assert rep.crude_holds
    assert rep.stirling_holds


def test_hamming_ball_count_matches_brute_force():
    s = 2 * math.sqrt(0.04)
    for n in (6, 8, 10):
        rep = hamming_ball_bound_check(n, 2, 0.04)
        count = 0
        zero = np.zeros(n, dtype=int)
        for w in range(2**n):
            word = np.array([(w >> i) & 1 for i in range(n)])
            if np.mean(zero != word) < s:
                count += 1
        assert rep.open_ball_count == count
        assert math.log(count) <= rep.stirling_log_bound


def test_crude_bound_fails_for_tiny_radius():
    # m = 1: the closed sum 1 + n exceeds the crude value n, and the report
    # says so instead of hiding it
    rep = hamming_ball_bound_check(4, 2, 0.01)
    assert rep.m == 1
    assert not rep.crude_holds


@pytest.mark.parametrize("n", [12, 18, 24, 30])
def test_bounds_hold_in_working_range(n):
    rep = hamming_ball_bound_check(n, 2, 0.04)
    assert rep.crude_holds
    assert rep.stirling_holds
