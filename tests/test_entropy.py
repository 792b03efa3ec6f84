"""Pointwise information, block entropy rates, and local entropy of Bowen balls.

Oracles used as ground truth: binary entropy closed forms, the stationary
chain rate -sum_i pi_i sum_j P_ij log P_ij with pi solved by hand, and the
exact cylinder identity -log mu(B_n(x, eps)) = (n + 2 rho) log 2 for the fair
coin under the dyadic metric (strict-open balls).
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergodim.entropy import (
    block_entropy_rate,
    brin_katok_local,
    conditional_entropy,
    dyadic_agreement_radius,
    extrapolate_intercept,
)
from ergodim.errors import (
    AtomBudgetExceeded,
    HitStarvation,
    UnsupportedOracle,
    ZeroMassAtom,
)
from ergodim.measures import (
    BernoulliIID,
    ConditionalShiftOracle,
    MarkovStationary,
    fixed_coords_log_measure,
    sample_point,
)
from ergodim.partitions import CylinderPartition, cylinder_window, orbit_join, pullback, refine
from ergodim.systems import FullShift, SymbolicPoint
from tests.conftest import LOG2, LOG_LAM


def h2(p: float) -> float:
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q))


MARKOV_PI = (4.0 / 7.0, 3.0 / 7.0)  # solves pi P = pi for ((0.7,0.3),(0.4,0.6))
MARKOV_H = MARKOV_PI[0] * h2(0.3) + MARKOV_PI[1] * h2(0.4)


def point(symbols, lo=0):
    return SymbolicPoint(tuple(symbols), lo)


# ---------------------------------------------------------------------------
# pointwise information, -log mu(x_i | x_given), through the conditional oracle
# ---------------------------------------------------------------------------


def information(oracle, x, i, given=()):
    """-log of the mass of x's symbol at i, conditioned on x's symbols at ``given``."""
    law = ConditionalShiftOracle(oracle, {j: x.coord(j) for j in given}) if given else oracle
    return -fixed_coords_log_measure(law, [i], [x.coord(i)])


def test_unconditional_information(bern_biased):
    x = point([1, 0, 1], lo=0)
    assert information(bern_biased, x, 0) == pytest.approx(-math.log(0.7), abs=1e-14)


def test_condition_determines_atom_gives_zero(markov):
    x = point([0, 1, 1, 0], lo=0)
    assert information(markov, x, 1, given=range(0, 3)) == pytest.approx(0.0, abs=1e-14)


@given(st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_independent_condition_changes_nothing(word):
    oracle = BernoulliIID((0.3, 0.7))
    x = point(word, lo=0)
    free = information(oracle, x, 0)
    given_future = information(oracle, x, 0, given=range(1, 4))
    assert given_future == pytest.approx(free, abs=1e-12)


def test_markov_conditional_is_transition_logprob(markov):
    x = point([0, 1], lo=0)
    assert information(markov, x, 1, given=[0]) == pytest.approx(-math.log(0.3), abs=1e-14)


def test_zero_mass_condition_raises():
    oracle = BernoulliIID((1.0, 0.0))
    x = point([1, 0], lo=0)
    with pytest.raises(ZeroMassAtom):
        information(oracle, x, 1, given=[0])


def test_zero_joint_in_positive_condition_is_infinite():
    oracle = BernoulliIID((1.0, 0.0))
    x = point([0, 1], lo=0)
    assert information(oracle, x, 1, given=[0]) == math.inf


# ---------------------------------------------------------------------------
# conditional entropy, exact enumeration
# ---------------------------------------------------------------------------


def test_single_coordinate_entropy(bern_biased):
    est = conditional_entropy(cylinder_window(0, 0), None, bern_biased)
    assert est.mode == "exact"
    assert est.value == pytest.approx(h2(0.3), abs=1e-14)


def test_markov_one_step_conditional(markov):
    est = conditional_entropy(cylinder_window(1, 1), cylinder_window(0, 0), markov)
    assert est.value == pytest.approx(MARKOV_H, abs=1e-12)


def test_conditioning_never_increases_entropy(markov):
    alpha = cylinder_window(2, 2)
    free = conditional_entropy(alpha, None, markov).value
    conditioned = conditional_entropy(alpha, cylinder_window(0, 1), markov).value
    assert conditioned <= free + 1e-12


def test_refining_never_decreases_entropy(markov):
    cond = cylinder_window(0, 0)
    coarse = conditional_entropy(cylinder_window(1, 1), cond, markov).value
    fine = conditional_entropy(cylinder_window(1, 2), cond, markov).value
    assert fine >= coarse - 1e-12


def test_chain_rule_exact(markov):
    alpha = cylinder_window(1, 2)
    beta = cylinder_window(0, 0)
    joint = conditional_entropy(refine(alpha, beta), None, markov).value
    split = conditional_entropy(beta, None, markov).value + conditional_entropy(
        alpha, beta, markov
    ).value
    assert joint == pytest.approx(split, abs=1e-12)


def test_orbit_cocycle_decomposition(markov):
    # H(join of the first n shifts) equals the telescoping sum of one-step
    # conditionals on the growing past -- exactly, atom by atom
    alpha = cylinder_window(0, 0)
    n = 6
    total = conditional_entropy(orbit_join(alpha, 0, n - 1), None, markov).value
    acc = conditional_entropy(alpha, None, markov).value
    for k in range(1, n):
        acc += conditional_entropy(pullback(alpha, k), orbit_join(alpha, 0, k - 1), markov).value
    assert total == pytest.approx(acc, abs=1e-10)


def test_shift_invariance_of_entropy(markov):
    base = conditional_entropy(cylinder_window(0, 1), None, markov).value
    shifted = conditional_entropy(pullback(cylinder_window(0, 1), 5), None, markov).value
    assert shifted == pytest.approx(base, abs=1e-14)


def test_atom_budget_enforced(bern_half):
    with pytest.raises(AtomBudgetExceeded):
        conditional_entropy(cylinder_window(0, 20), None, bern_half, budget=2**16)
    with pytest.raises(AtomBudgetExceeded):
        conditional_entropy(
            cylinder_window(0, 10), cylinder_window(11, 20), bern_half, budget=2**16
        )


# ---------------------------------------------------------------------------
# block entropy rates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 8])
def test_fair_coin_rate_is_log2_exactly(bern_half, n):
    est = block_entropy_rate(bern_half, cylinder_window(0, 0), n)
    assert est.mode == "exact"
    assert est.value == pytest.approx(LOG2, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_biased_coin_rate_is_binary_entropy(bern_biased, n):
    est = block_entropy_rate(bern_biased, cylinder_window(0, 0), n)
    assert est.value == pytest.approx(h2(0.3), abs=1e-12)


def test_deterministic_coin_rate_is_zero():
    est = block_entropy_rate(BernoulliIID((1.0, 0.0)), cylinder_window(0, 0), 6)
    assert est.value == 0.0


@pytest.mark.parametrize("n", [2, 5, 10])
def test_markov_block_rate_closed_form(markov, n):
    # H_n = H(pi) + (n-1) h for a stationary chain
    h_pi = h2(MARKOV_PI[0])
    expect = (h_pi + (n - 1) * MARKOV_H) / n
    est = block_entropy_rate(markov, cylinder_window(0, 0), n)
    assert est.value == pytest.approx(expect, abs=1e-12)


def test_markov_rate_gap_at_block_16(markov):
    # this chain's marginal surplus H(pi) - h is small enough that the n=16
    # block rate sits within 1% of the asymptotic rate
    est = block_entropy_rate(markov, cylinder_window(0, 0), 16)
    assert abs(est.value - MARKOV_H) / MARKOV_H < 0.01


def test_high_surplus_chain_misses_one_percent_at_16():
    # a strongly uneven chain keeps >1% gap at n=16: the finite-block rate
    # genuinely needs the marginal-surplus correction, it is not a solver bug
    chain = MarkovStationary(((0.9, 0.1), (0.5, 0.5)))
    pi0 = 5.0 / 6.0
    h = pi0 * h2(0.1) + (1 - pi0) * h2(0.5)
    est = block_entropy_rate(chain, cylinder_window(0, 0), 16)
    expect = (h2(pi0) + 15 * h) / 16
    assert est.value == pytest.approx(expect, abs=1e-12)
    assert abs(est.value - h) / h > 0.01


@pytest.mark.parametrize("lo, hi", [(0, 0), (-2, 1)])
def test_chain_rule_past_the_budget_matches_enumeration(markov, bern_biased, lo, hi):
    # a budget of 2^12 atoms holds the span n + hi - lo = 12 block and sends 13 past it
    alpha = cylinder_window(lo, hi)
    for oracle in (markov, bern_biased):
        n = 12 - (hi - lo)
        inside = block_entropy_rate(oracle, alpha, n, budget=2**12)
        past = block_entropy_rate(oracle, alpha, n + 1, budget=2**12)
        enumerated = block_entropy_rate(oracle, alpha, n + 1, budget=2**13)
        assert inside.sample_count == 2**12 and enumerated.sample_count == 2**13
        assert past.sample_count == 0 and past.mode == "exact" and past.stderr is None
        assert past.value == pytest.approx(enumerated.value, abs=1e-12)
        # the window's two ends name the same partition
        assert block_entropy_rate(oracle, (lo, hi), n + 1, budget=2**12) == past


@pytest.mark.parametrize("window", [(0, 0), (-10**9, 10**9)])
def test_huge_block_is_the_closed_form(markov, window):
    n = 10**9
    span = n + window[1] - window[0]
    est = block_entropy_rate(markov, window, n)
    assert est.value == pytest.approx((h2(MARKOV_PI[0]) + (span - 1) * MARKOV_H) / n, rel=1e-12)


def test_block_rate_needs_a_window(bern_half):
    with pytest.raises(ValueError, match="consecutive coordinates"):
        block_entropy_rate(bern_half, CylinderPartition((0, 2)), 4)
    with pytest.raises(ValueError, match="lo <= hi"):
        block_entropy_rate(bern_half, (2, 0), 4)


# ---------------------------------------------------------------------------
# dyadic agreement radii
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "eps,rho",
    [(1.0, 0), (0.6, 0), (0.51, 0), (0.5, 1), (0.3, 1), (0.26, 1), (0.25, 2), (2.0**-5, 5)],
)
def test_agreement_radius_values(eps, rho):
    assert dyadic_agreement_radius(eps) == rho


def test_agreement_radius_matches_metric(dyadic_shift):
    from ergodim.systems import distance

    # definitional check: flipping coordinate c keeps d < eps iff |c| > rho
    for eps in (0.9, 0.5, 0.24, 0.1):
        rho = dyadic_agreement_radius(eps)
        x = point([0] * 41, lo=-20)
        for c in range(-10, 11):
            syms = list(x.symbols)
            syms[c + 20] = 1
            y = point(syms, lo=-20)
            inside = distance(dyadic_shift, x, y) < eps
            assert inside == (abs(c) > rho), (eps, c)


def test_agreement_radius_domain():
    with pytest.raises(ValueError):
        dyadic_agreement_radius(0.0)
    with pytest.raises(ValueError):
        dyadic_agreement_radius(1.5)


def test_extrapolate_recovers_affine_intercept():
    ns = [4, 8, 16, 32]
    vals = [1.37 + 5.1 / n for n in ns]
    assert extrapolate_intercept(ns, vals) == pytest.approx(1.37, abs=1e-12)


# ---------------------------------------------------------------------------
# local entropy, exact cylinder route
# ---------------------------------------------------------------------------


def test_fair_coin_local_entropy_exact(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, master_seed=3)
    eps = [0.9, 0.45, 0.2]
    ns = [4, 8, 16, 32]
    rep = brin_katok_local(dyadic_shift, bern_half, x, eps, ns, mode="exact_cylinder")
    for rec in rep.per_eps:
        rho = rec["rho"]
        for n, v in zip(ns, rec["values"]):
            assert v == pytest.approx(LOG2 * (n + 2 * rho) / n, abs=1e-12)
    # the 1/n correction is exactly affine, so the intercept nails the rate
    assert rep.extrapolated == pytest.approx(LOG2, abs=1e-9)
    assert rep.lower.value <= rep.upper.value
    assert rep.chosen_eps == 0.2


def test_markov_local_entropy_approaches_rate(markov):
    wide = FullShift(alphabet_size=2, window=8400)
    x = sample_point(wide, markov, master_seed=11)
    ns = [2000, 4000, 6000, 8000]
    rep = brin_katok_local(wide, markov, x, [0.5], ns, mode="exact_cylinder")
    assert abs(rep.extrapolated - MARKOV_H) / MARKOV_H < 0.02
    assert abs(rep.lower.value - MARKOV_H) / MARKOV_H < 0.02
    assert abs(rep.upper.value - MARKOV_H) / MARKOV_H < 0.02


def test_point_mass_local_entropy_zero(dyadic_shift):
    oracle = BernoulliIID((1.0, 0.0))
    x = point([0] * 61, lo=-20)
    rep = brin_katok_local(dyadic_shift, oracle, x, [0.5], [2, 4, 8], mode="exact_cylinder")
    assert rep.lower.value == 0.0 and rep.upper.value == 0.0
    assert rep.extrapolated == pytest.approx(0.0, abs=1e-15)


def test_zero_mass_cylinder_raises(dyadic_shift):
    oracle = BernoulliIID((1.0, 0.0))
    x = point([0, 1, 0, 0, 0, 0], lo=-2)
    with pytest.raises(ZeroMassAtom):
        brin_katok_local(dyadic_shift, oracle, x, [0.5], [2, 4], mode="exact_cylinder")


def test_exact_mode_needs_dyadic_metric(weighted_shift, bern_half):
    x = point([0] * 9, lo=-4)
    with pytest.raises(UnsupportedOracle):
        brin_katok_local(weighted_shift, bern_half, x, [0.5], [2, 4], mode="exact_cylinder")


# ---------------------------------------------------------------------------
# local entropy, Monte Carlo route
# ---------------------------------------------------------------------------


def test_fair_coin_local_entropy_monte_carlo(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, master_seed=5)
    rep = brin_katok_local(
        dyadic_shift, bern_half, x, [0.9, 0.6], [6, 8, 10, 12],
        mode="monte_carlo", samples=400_000, seed=0,
    )
    assert rep.lower.mode == "monte_carlo"
    assert rep.lower.stderr is not None
    for est in (rep.lower, rep.upper):
        assert abs(est.value - LOG2) / LOG2 < 0.10
    assert rep.lower.value <= rep.upper.value


def test_cat_map_local_entropy_monte_carlo(cat, lebesgue):
    x = sample_point(cat, lebesgue, master_seed=7)
    rep = brin_katok_local(
        cat, lebesgue, x, [0.45, 0.3], [4, 6, 8], mode="monte_carlo", samples=600_000, seed=1
    )
    # only the small radius is in the local regime; the coarse one biases low
    assert rep.chosen_eps == 0.3
    for est in (rep.lower, rep.upper):
        assert abs(est.value - LOG_LAM) / LOG_LAM < 0.10
    coarse, fine = rep.per_eps
    assert max(coarse["values"]) < min(fine["values"])


def test_hit_starvation_raises(dyadic_shift, bern_half):
    x = sample_point(dyadic_shift, bern_half, master_seed=5)
    with pytest.raises(HitStarvation):
        brin_katok_local(
            dyadic_shift, bern_half, x, [0.3], [8, 12], mode="monte_carlo", samples=2000, seed=0
        )


def test_monte_carlo_unsupported_system(translation, lebesgue):
    from ergodim.systems import TorusPoint

    with pytest.raises(UnsupportedOracle):
        brin_katok_local(
            translation, lebesgue, TorusPoint(0.2, 0.3), [0.5], [2, 4], mode="monte_carlo"
        )


def test_schedule_validation(dyadic_shift, bern_half):
    x = point([0] * 21, lo=-10)
    with pytest.raises(ValueError):
        brin_katok_local(dyadic_shift, bern_half, x, [0.2, 0.5], [2, 4])
    with pytest.raises(ValueError):
        brin_katok_local(dyadic_shift, bern_half, x, [], [2, 4])
    with pytest.raises(ValueError):
        brin_katok_local(dyadic_shift, bern_half, x, [0.5], [])
    with pytest.raises(ValueError):
        brin_katok_local(dyadic_shift, bern_half, x, [0.5], [2], mode="bogus")
