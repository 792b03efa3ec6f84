"""Measure oracles: exact cylinder masses, stationarity, sampling laws, RNG.

Expected values are independent closed forms: products of symbol
probabilities, pi_a P_ab for Markov words, binomial confidence radii for
sampled frequencies, and the law of total probability for conditionals.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from ergodim.errors import IncompatibleOracle, UnsupportedOracle, ZeroMassAtom
from ergodim.measures import (
    _CHILD_CHUNK,
    BernoulliIID,
    ConditionalShiftOracle,
    LebesgueTorus,
    MarkovStationary,
    child_rngs,
    entropy_rate,
    fixed_coords_log_measure,
    fixed_coords_measure,
    marginal_entropy,
    rng_for,
    sample_point,
    sample_points,
    sample_symbol_block,
    stationary_distribution,
    uniform_symbols,
    word_distribution,
)
from ergodim.systems import FullShift


# ---------------------------------------------------------------------------
# exact cylinder measures
# ---------------------------------------------------------------------------


def test_bernoulli_half_cylinder_is_power_of_two(bern_half):
    word = [0, 1, 1, 0, 1, 0, 0]
    assert fixed_coords_measure(bern_half, range(7), word) == pytest.approx(2.0**-7, rel=1e-14)


def test_bernoulli_biased_word(bern_biased):
    # 0.3 * 0.7 * 0.7 = 0.147
    assert fixed_coords_measure(bern_biased, [0, 1, 2], [0, 1, 1]) == pytest.approx(0.147, rel=1e-14)


def test_markov_word_is_pi_times_transition(markov):
    pi = markov.pi_vec
    P = markov.P
    assert fixed_coords_measure(markov, [0, 1], [0, 1]) == pytest.approx(pi[0] * P[0, 1], rel=1e-14)
    assert fixed_coords_measure(markov, [0, 1, 2], [1, 1, 0]) == pytest.approx(
        pi[1] * P[1, 1] * P[1, 0], rel=1e-14
    )


def test_cylinder_measure_translation_invariant(markov):
    # stationarity: the same word has the same mass at any start index
    w = [0, 1, 1, 0]
    at_zero = fixed_coords_measure(markov, range(4), w)
    assert at_zero == pytest.approx(fixed_coords_measure(markov, range(-17, -13), w))


def test_lebesgue_has_no_cylinder_measure():
    with pytest.raises(UnsupportedOracle):
        fixed_coords_measure(LebesgueTorus(), [0, 1], [0, 1])


@pytest.mark.parametrize("length", [1, 2, 3, 6, 10, 12, 20])
def test_word_masses_sum_to_one(bern_biased, markov, length):
    for oracle in (bern_biased, markov):
        dist = word_distribution(oracle, list(range(length)))
        assert dist.size == 2**length
        assert math.fsum(float(v) for v in dist) == pytest.approx(1.0, abs=1e-12)


def test_gapped_coordinates_use_transition_powers(markov):
    # mu(x_0 = a, x_3 = b) = pi_a (P^3)_ab
    P3 = markov.power(3)
    pi = markov.pi_vec
    got = fixed_coords_measure(markov, [0, 3], [1, 0])
    assert got == pytest.approx(pi[1] * P3[1, 0], rel=1e-13)


def test_fixed_coords_log_measure_matches_measure(markov, bern_biased):
    for oracle in (markov, bern_biased):
        idx = [-3, -1, 0, 2]
        syms = [1, 0, 1, 1]
        m = fixed_coords_measure(oracle, idx, syms)
        lm = fixed_coords_log_measure(oracle, idx, syms)
        assert lm == pytest.approx(math.log(m), rel=1e-13)


@pytest.mark.parametrize("symbol", [-1, 2])
@pytest.mark.parametrize("measure", [fixed_coords_measure, fixed_coords_log_measure])
def test_symbols_outside_the_alphabet_are_rejected(markov, bern_biased, measure, symbol):
    # a negative symbol must not index from the end of the probability vector
    for oracle in (bern_biased, markov):
        with pytest.raises(ValueError, match="symbol outside the oracle alphabet"):
            measure(oracle, [0, 1], [1, symbol])


def test_word_distribution_additive_over_refinement(bern_biased):
    # summing the length-3 distribution over the last symbol gives length-2
    d3 = word_distribution(bern_biased, [0, 1, 2]).reshape(2, 2, 2)
    d2 = word_distribution(bern_biased, [0, 1]).reshape(2, 2)
    np.testing.assert_allclose(d3.sum(axis=2), d2, rtol=1e-13)


# ---------------------------------------------------------------------------
# stationarity and degenerate chains
# ---------------------------------------------------------------------------


def test_stationary_vector_is_stationary(markov):
    pi = markov.pi_vec
    assert np.max(np.abs(pi @ markov.P - pi)) < 1e-12
    # independent check: for P = [[0.7,0.3],[0.4,0.6]], pi solves
    # pi_0 * 0.3 = pi_1 * 0.4 -> pi = (4/7, 3/7)
    assert pi[0] == pytest.approx(4.0 / 7.0, rel=1e-12)


def test_stationary_distribution_of_symmetric_chain():
    pi = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-13)


def test_bad_oracle_parameters_rejected():
    with pytest.raises(ValueError):
        BernoulliIID((0.4, 0.4))
    with pytest.raises(ValueError):
        MarkovStationary(((0.5, 0.6), (0.5, 0.5)))
    with pytest.raises(ValueError):
        MarkovStationary(((0.7, 0.3), (0.4, 0.6)), pi=(0.5, 0.5))


def test_degenerate_identity_chain_emits_constant_word():
    sys = FullShift(alphabet_size=2, window=64)
    oracle = MarkovStationary(((1.0, 0.0), (0.0, 1.0)), pi=(1.0, 0.0))
    x = sample_point(sys, oracle, 5)
    assert np.all(x.symbols == 0)


def test_entropy_rates_closed_form(bern_half, bern_biased, markov):
    assert entropy_rate(bern_half) == pytest.approx(math.log(2.0), abs=1e-15)
    assert entropy_rate(bern_biased) == pytest.approx(
        -0.3 * math.log(0.3) - 0.7 * math.log(0.7), rel=1e-14
    )
    pi, P = markov.pi_vec, markov.P
    expect = -sum(
        pi[i] * P[i, j] * math.log(P[i, j]) for i in range(2) for j in range(2) if P[i, j] > 0
    )
    assert entropy_rate(markov) == pytest.approx(expect, rel=1e-14)
    assert marginal_entropy(markov) == pytest.approx(
        -sum(p * math.log(p) for p in pi), rel=1e-14
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_bernoulli_sampling_frequency(dyadic_shift, bern_half):
    # 10^6 draws of coordinate 0; binomial 5-sigma radius ~ 0.0025 < 0.005
    rng = rng_for(101, 0)
    rows = sample_symbol_block(bern_half, 1, 1_000_000, rng)
    freq = float((rows == 0).mean())
    assert abs(freq - 0.5) < 0.005


def test_markov_sampling_matches_stationary_law(markov):
    rng = rng_for(55, 1)
    rows = sample_symbol_block(markov, 2, 200_000, rng)
    freq0 = float((rows[:, 0] == 0).mean())
    assert abs(freq0 - markov.pi_vec[0]) < 0.005
    # transition frequency out of state 0
    sel = rows[:, 0] == 0
    f01 = float((rows[sel, 1] == 1).mean())
    assert abs(f01 - markov.P[0, 1]) < 0.01


def test_lebesgue_sampling_uniform(cat, lebesgue):
    pts = sample_points(cat, lebesgue, 7, 100_000)
    xs = np.array([p.x for p in pts])
    # Kolmogorov-Smirnov against U[0,1): stay above the 1% threshold
    assert stats.kstest(xs, "uniform").pvalue > 0.01


def test_sample_point_deterministic_and_index_dependent(dyadic_shift, bern_half):
    a = sample_point(dyadic_shift, bern_half, 42, 3)
    b = sample_point(dyadic_shift, bern_half, 42, 3)
    c = sample_point(dyadic_shift, bern_half, 42, 4)
    assert a == b
    assert a != c


def test_incompatible_oracle_rejected(cat, lebesgue, bern_half):
    sys = FullShift(alphabet_size=3)
    with pytest.raises(IncompatibleOracle):
        sample_point(sys, bern_half, 0)
    with pytest.raises(IncompatibleOracle):
        sample_point(cat, bern_half, 0)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=50))
def test_rng_streams_are_reproducible(seed, tag):
    a = rng_for(seed, tag).random(4)
    b = rng_for(seed, tag).random(4)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ_across_tags():
    a = rng_for(9, 1).random(8)
    b = rng_for(9, 2).random(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# batched child generators against rng_for, their single-generator reference
# ---------------------------------------------------------------------------

# int8 draws leave half of a uint32 buffered in the generator, so a child
# that did not clear it would start its own int8 draws from its predecessor's
_CHILD_DRAWS = (
    lambda g: g.integers(0, 3, size=3, dtype=np.int8),
    lambda g: g.random(5),
    lambda g: g.integers(0, 2**40, size=3, dtype=np.int64),
    lambda g: g.choice(3, size=9, p=[0.2, 0.5, 0.3]),
    lambda g: g.integers(0, 3, size=1, dtype=np.int8),
)
# windows that straddle chunk boundaries, and the last window below 2**32
_CHILD_WINDOWS = (
    (0, 3),
    (_CHILD_CHUNK - 2, _CHILD_CHUNK + 3),
    (2 * _CHILD_CHUNK - 1, 3 * _CHILD_CHUNK + 1),
    (2**32 - 4, 2**32),
)


# 2**96 + 5 is four entropy words, so with the tags and the index the
# SeedSequence hash runs its loop over words past the pool
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**96 + 5])
@pytest.mark.parametrize("tags", [(), (7,), (7, 300)])
def test_child_rngs_match_rng_for(seed, tags):
    for start, stop in _CHILD_WINDOWS:
        drawn = 0
        for i, rng in zip(range(start, stop), child_rngs(seed, *tags, start=start, stop=stop)):
            want = rng_for(seed, *tags, i)
            for draw in _CHILD_DRAWS:
                np.testing.assert_array_equal(draw(rng), draw(want))
            drawn += 1
        assert drawn == stop - start
        assert next(child_rngs(seed, *tags, start=stop, stop=stop), None) is None


def test_child_rngs_reject_what_they_cannot_seed():
    with pytest.raises(ValueError, match="nonnegative"):
        child_rngs(-1, start=0, stop=1)
    with pytest.raises(ValueError, match="nonnegative"):
        child_rngs(0, 3, -2, start=0, stop=1)
    with pytest.raises(ValueError, match="nonnegative"):
        child_rngs(0, start=-1, stop=1)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        child_rngs(0, start=2**32 - 1, stop=2**32 + 1)


# cell counts that are and are not multiples of 4 (one word holds 4 bytes),
# a scalar shape and empty ones
_SYMBOL_SHAPES = ((96, 513), (3, 5), (13,), (5, 2), (1, 1), 7, (), (0,), (4, 0))


def _buffered_rng(seed):
    """A generator whose PCG64 holds a buffered half-word, as after the depth draw."""
    rng = rng_for(seed)
    rng.integers(3, 20, size=5)  # five 32-bit draws from a small int64 range
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("alphabet", range(2, 128))
def test_uniform_symbols_match_numpy_draws(alphabet):
    for shape in _SYMBOL_SHAPES:
        for make in (rng_for, _buffered_rng):
            got_rng, want_rng = make(alphabet), make(alphabet)
            got = uniform_symbols(got_rng, alphabet, shape)
            want = want_rng.integers(0, alphabet, size=shape, dtype=np.int8)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


def test_uniform_symbols_reject_what_int8_cannot_hold():
    for alphabet in (1, 128):
        with pytest.raises(ValueError, match="2..127"):
            uniform_symbols(rng_for(0), alphabet, 4)


@pytest.mark.parametrize("kind", ["torus", "markov"])
def test_sample_points_match_per_point_draws(kind, cat, lebesgue, markov):
    sys, oracle = (cat, lebesgue) if kind == "torus" else (FullShift(window=8), markov)
    count = _CHILD_CHUNK + 2  # straddles a chunk boundary
    got = sample_points(sys, oracle, 5, count)
    want = [sample_point(sys, oracle, 5, i) for i in range(count)]
    for a, b in zip(got, want, strict=True):
        if kind == "torus":
            assert (a.x, a.y) == (b.x, b.y)
        else:
            assert a.lo == b.lo and a.symbols.tobytes() == b.symbols.tobytes()


# ---------------------------------------------------------------------------
# array-drawn Markov windows against the per-symbol loops they replaced
# ---------------------------------------------------------------------------


def _categorical_reference(rng, cumulative):
    return int(np.searchsorted(cumulative, rng.random(), side="right"))


def _markov_window_reference(oracle, window, rng):
    """One uniform and one searchsorted per symbol: coordinate 0, then 1..N, then -1..-N."""
    n = 2 * window + 1
    out = np.empty(n, dtype=np.int8)
    cum_f = np.cumsum(oracle.P, axis=1)
    cum_b = np.cumsum(oracle.backward(), axis=1)
    out[window] = _categorical_reference(rng, np.cumsum(oracle.pi_vec))
    for j in range(window + 1, n):
        out[j] = _categorical_reference(rng, cum_f[out[j - 1]])
    for j in range(window - 1, -1, -1):
        out[j] = _categorical_reference(rng, cum_b[out[j + 1]])
    return out


def _conditional_window_reference(oracle, window, rng):
    """The fixed block, then the chain run outward: its right end first, then its left."""
    N = window
    lo_f, hi_f = oracle.block
    out = np.empty(2 * N + 1, dtype=np.int8)
    cum_f = np.cumsum(oracle.base.P, axis=1)
    cum_b = np.cumsum(oracle.base.backward(), axis=1)
    for i in range(lo_f, hi_f + 1):
        out[i + N] = oracle.fixed[i]
    for i in range(hi_f + 1, N + 1):
        out[i + N] = _categorical_reference(rng, cum_f[out[i - 1 + N]])
    for i in range(lo_f - 1, -N - 1, -1):
        out[i + N] = _categorical_reference(rng, cum_b[out[i + 1 + N]])
    return out


_CHAINS = {
    "two-state": ((0.7, 0.3), (0.4, 0.6)),
    "three-state-with-zeros": ((0.5, 0.5, 0.0), (0.0, 0.2, 0.8), (0.6, 0.0, 0.4)),
}


@pytest.mark.parametrize("chain", sorted(_CHAINS))
@pytest.mark.parametrize("window", [8, 256])
def test_markov_window_matches_per_symbol_reference(chain, window):
    oracle = MarkovStationary(_CHAINS[chain])
    sys = FullShift(alphabet_size=oracle.alphabet_size, window=window)
    for seed in range(40):
        got = sample_point(sys, oracle, seed, 3).symbols
        want = _markov_window_reference(oracle, window, rng_for(seed, 3))
        assert got.tobytes() == want.tobytes(), seed
    assert {int(s) for s in got} == set(range(oracle.alphabet_size))


@pytest.mark.parametrize("chain", sorted(_CHAINS))
@pytest.mark.parametrize("window", [8, 256])
def test_conditional_markov_window_matches_per_symbol_reference(chain, window):
    base = MarkovStationary(_CHAINS[chain])
    sys = FullShift(alphabet_size=base.alphabet_size, window=window)
    x = sample_point(sys, base, 77)  # a sampled window: every block of it has positive mass
    N = window
    blocks = {
        "left-edge": (-N, -N + 2),
        "right-edge": (N - 2, N),
        "interior": (-1, 0),
        "single": (0, 0),
        "whole-window": (-N, N),
    }
    for name, (lo_f, hi_f) in blocks.items():
        cond = ConditionalShiftOracle(base, {i: x.coord(i) for i in range(lo_f, hi_f + 1)})
        for seed in range(10):
            got = sample_point(sys, cond, seed, 5).symbols
            want = _conditional_window_reference(cond, window, rng_for(seed, 5))
            assert got.tobytes() == want.tobytes(), (name, seed)
            assert got[lo_f + N : hi_f + N + 1].tolist() == [cond.fixed[i] for i in range(lo_f, hi_f + 1)]


# ---------------------------------------------------------------------------
# conditional oracles
# ---------------------------------------------------------------------------


def test_conditional_is_unconditional_for_iid(bern_half):
    cond = ConditionalShiftOracle(bern_half, {-2: 0, -1: 1})
    for length in (1, 3, 5):
        idx = list(range(length))
        word = [1] * length
        assert fixed_coords_measure(cond, idx, word) == pytest.approx(
            2.0**-length, rel=1e-13
        )


def test_conditional_markov_restarts_from_boundary(markov):
    cond = ConditionalShiftOracle(markov, {-1: 1})
    # mu(x_0 = 0 | x_-1 = 1) = P[1, 0]
    assert fixed_coords_measure(cond, [0], [0]) == pytest.approx(markov.P[1, 0], rel=1e-13)
    # and the Markov property chains transitions forward
    assert fixed_coords_measure(cond, [0, 1], [0, 1]) == pytest.approx(
        markov.P[1, 0] * markov.P[0, 1], rel=1e-13
    )


def test_conditional_law_of_total_probability(markov):
    # sum over depth-2 pasts of mu(past) * mu(future | past) = mu(future)
    future_idx, future_word = [0, 1], [1, 0]
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            past_mass = fixed_coords_measure(markov, [-2, -1], [a, b])
            cond = ConditionalShiftOracle(markov, {-2: a, -1: b})
            total += past_mass * fixed_coords_measure(cond, future_idx, future_word)
    assert total == pytest.approx(fixed_coords_measure(markov, future_idx, future_word), rel=1e-12)


def test_zero_mass_conditioning_rejected():
    oracle = MarkovStationary(((1.0, 0.0), (0.0, 1.0)), pi=(1.0, 0.0))
    with pytest.raises(ZeroMassAtom):
        ConditionalShiftOracle(oracle, {-1: 1})
