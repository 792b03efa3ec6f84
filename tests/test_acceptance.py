"""Acceptance gate: every headline guarantee of the toolkit at full scale.

Each test exercises one guarantee end to end with its stated tolerance and
prints a single [PASS]/[FAIL] line carrying the measured numbers, so a plain
test run doubles as the acceptance record.
"""
import math
import os
import time

import numpy as np
import pytest

from ergodim.entropy import (
    block_entropy_rate,
    brin_katok_local,
    conditional_entropy,
    extrapolate_intercept,
)
from ergodim.geometry import check_ball_inclusion
from ergodim.harness import ExperimentConfig, run_experiment
from ergodim.lyapunov import SubadditiveSeries, estimate_chi, fekete_limit
from ergodim.measures import (
    BernoulliIID,
    LebesgueTorus,
    MarkovStationary,
    entropy_rate,
    sample_point,
)
from ergodim.partitions import (
    check_atom_in_unstable,
    construct_subordinate_partition,
    cylinder_window,
    coord_entropy,
    delta_constant,
    hamming_ball_bound_check,
    local_smb_check,
    orbit_join,
    pullback,
    shift_lemma_check,
)
from ergodim.dimension import verify_main_inequality
from ergodim.systems import (
    FullShift,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    WeightedL2Metric,
    default_weights,
    distance,
)
from tests.conftest import LOG2, LOG_LAM


def h2(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def announce(capsys, tag, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="module")
def cat():
    return ToralAutomorphism(((2, 1), (1, 1)))


@pytest.fixture(scope="module")
def shift():
    return FullShift(alphabet_size=2, window=256)


@pytest.fixture(scope="module")
def fair():
    return BernoulliIID((0.5, 0.5))


@pytest.fixture(scope="module")
def markov():
    return MarkovStationary(((0.7, 0.3), (0.4, 0.6)))


def test_cat_map_exponent_within_two_percent(capsys, cat):
    t0 = time.perf_counter()
    est = estimate_chi(
        cat, LebesgueTorus(), (0.2, 0.1, 0.05), (4, 8, 12, 16, 20, 24),
        points=2000, probes=64, seed=0, threads=2,
    )
    elapsed = time.perf_counter() - t0
    rel = abs(est.value - LOG_LAM) / LOG_LAM
    ok = rel <= 0.02 and elapsed < 60.0 and est.sample_count == 2000
    announce(
        capsys, "lyapunov exponent, hyperbolic torus map", ok,
        f"chi = {est.value:.6f} vs log lambda = {LOG_LAM:.6f} "
        f"(rel err {rel:.3%}, tol 2%), {elapsed:.1f}s < 60s",
    )


def test_block_entropy_rates_converge(capsys, fair, markov):
    alpha = cylinder_window(0, 0)
    fair_est = block_entropy_rate(fair, alpha, 16)
    fair_err = abs(fair_est.value - LOG2)
    h = entropy_rate(markov)
    mk_est = block_entropy_rate(markov, alpha, 16)
    closed_16 = (h2(4 / 7) + 15 * h) / 16
    mk_gap = abs(mk_est.value - h) / h
    # past the 2^24-atom budget: (alphabet, oracle, n, closed form (H(x_0) + (n - 1) h) / n)
    past_budget = [
        (3, {"kind": "bernoulli", "probs": [0.2, 0.3, 0.5]}, 16,
         -sum(p * math.log(p) for p in (0.2, 0.3, 0.5))),
        (4, {"kind": "bernoulli"}, 16, math.log(4)),
        (2, {"kind": "markov", "transitions": [[0.7, 0.3], [0.4, 0.6]]}, 25,
         (h2(4 / 7) + 24 * (4 / 7 * h2(0.3) + 3 / 7 * h2(0.4))) / 25),
        (2, {"kind": "bernoulli"}, 30, LOG2),
    ]
    past_err, past_clean = 0.0, True
    for alphabet, oracle, n, closed in past_budget:
        rep = run_experiment(ExperimentConfig.from_dict(
            {"task": "entropy", "seed": 0, "n": n, "oracle": oracle,
             "system": {"kind": "full_shift", "alphabet": alphabet}}))
        past_err = max(past_err, abs(rep.payload["value"] - closed))
        past_clean = past_clean and rep.payload["mode"] == "exact" and not rep.flags
    ok = (fair_err < 1e-12 and abs(mk_est.value - closed_16) < 1e-12 and mk_gap < 0.01
          and past_err < 1e-12 and past_clean)
    announce(
        capsys, "block entropy rates at n = 16", ok,
        f"fair coin |rate - log 2| = {fair_err:.2e} (tol 1e-12); "
        f"Markov gap to rate {mk_gap:.3%} (tol 1%); past the atom budget "
        f"(3 and 4 symbols at n = 16, Markov at 25, fair coin at 30) "
        f"max |rate - closed form| = {past_err:.2e} (tol 1e-12)",
    )


def test_local_entropy_two_sided_estimates(capsys, shift, fair):
    x = sample_point(shift, fair, master_seed=3)
    exact = brin_katok_local(
        shift, fair, x, (0.9, 0.45, 0.2), (4, 8, 12, 16, 20, 24, 28, 32),
        mode="exact_cylinder",
    )
    exact_err = abs(exact.extrapolated - LOG2)
    mc = brin_katok_local(
        shift, fair, x, (0.9, 0.6), (6, 8, 10, 12),
        mode="monte_carlo", samples=1_000_000, seed=0,
    )
    mc_rel = abs(mc.upper.value - LOG2) / LOG2
    ok = exact_err < 1e-9 and mc_rel <= 0.10 and mc.lower.value <= mc.upper.value
    announce(
        capsys, "local entropy from shrinking-ball masses", ok,
        f"exact-cylinder intercept err {exact_err:.2e} (tol 1e-9); "
        f"Monte Carlo rel err {mc_rel:.2%} at 1e6 samples (tol 10%); "
        f"lower {mc.lower.value:.4f} <= upper {mc.upper.value:.4f}",
    )


def test_dimension_entropy_exponent_ratio_holds(capsys, cat, shift, fair):
    cat_rep = verify_main_inequality(
        cat, LebesgueTorus(), base_points=20, cloud_budget=10_000,
        chi_points=256, chi_probes=96, seed=0,
    )
    sym_rep = verify_main_inequality(
        shift, fair, base_points=20, cloud_budget=10_000,
        chi_points=256, chi_probes=96, seed=0,
    )
    ok = True
    for rep in (cat_rep, sym_rep):
        ok = ok and 0.95 <= rep.dim_estimate <= 1.05
        ok = ok and abs(rep.ratio - 1.0) <= 0.05
        ok = ok and rep.holds and rep.slack >= -0.05
        ok = ok and len(rep.per_point_slopes) == 20 and not rep.flags
    ok = ok and sym_rep.mass_liminf is not None and sym_rep.mass_liminf > 1.0
    announce(
        capsys, "dimension >= entropy / exponent on model systems", ok,
        f"torus: dim {cat_rep.dim_estimate:.4f}, ratio {cat_rep.ratio:.5f}, "
        f"slack {cat_rep.slack:+.4f}; shift: dim {sym_rep.dim_estimate:.6f}, "
        f"ratio {sym_rep.ratio:.5f}, mass liminf {sym_rep.mass_liminf:.4f} "
        f"(20 base points each, slack tol -0.05)",
    )


def test_verify_holds_on_three_and_four_symbol_dyadic_shifts(capsys):
    # at defaults the finest scale stops where a^k reaches the cloud budget
    # (2^-8 on 3 symbols, 2^-6 on 4), so the box counts never saturate
    rows = []
    ok = True
    for a in (3, 4):
        for seed in (0, 1):
            rep = run_experiment(ExperimentConfig.from_dict({
                "task": "verify", "seed": seed, "system": {"kind": "full_shift", "alphabet": a},
                "oracle": {"kind": "bernoulli", "probs": [1 / a] * a},
            }))
            p = rep.payload
            ok = ok and p["holds"] and abs(p["dim"] - math.log2(a)) <= 0.05
            rows.append(f"{a} symbols seed {seed}: dim {p['dim']:.4f} vs h/chi {p['ratio']:.4f}")
    announce(capsys, "verify on uniform 3- and 4-symbol dyadic shifts", ok,
             "; ".join(rows) + " (dim within 0.05 of log a / log 2, holds)")


def test_weighted_metric_zero_exponent_regime(capsys):
    rep = run_experiment(ExperimentConfig.from_dict({"task": "appendix-hilbert", "seed": 0}))
    p = rep.payload
    wc = p["weights_check"]
    ok = (
        p["chi"] <= 0.05
        and p["norm_ks"][-1] == 200 and p["rate_at_max_k"] <= 0.05
        and p["monotone_beyond_50"]
        and len(p["cover"]["octave_slopes"]) == 4 and p["cover"]["strictly_increasing"]
        and wc["decreasing"] and wc["ratio_bound"] and wc["subexponential"]
        and rep.flags == []
    )
    announce(
        capsys, "weighted sequence metric: vanishing exponent, diverging covers", ok,
        f"chi = {p['chi']:.4f} <= 0.05; norm rate at k=200 = {p['rate_at_max_k']:.4f} "
        f"<= 0.05, monotone beyond 50; cover slopes "
        f"{['%.0f' % s for s in p['cover']['octave_slopes']]} "
        f"strictly increasing over 4 octaves",
    )


def test_subordinate_partition_and_atom_geometry(capsys, shift, fair):
    plan = construct_subordinate_partition(shift, fair, delta=0.5, depth=3)
    sup_err = abs(plan.sup_c - LOG2)
    x = sample_point(shift, fair, master_seed=5)
    atom = check_atom_in_unstable(shift, plan, x, horizon=50, pairs=200, seed=0)
    ok = (
        plan.ks == [0, 1, 2] and sup_err < 1e-12
        and atom.violations == 0 and atom.level_violations == 0
        and atom.worst_distance <= 0.5
        and atom.past_depth_used == 51 and atom.agreement_coords == 57
    )
    announce(
        capsys, "subordinate partition build and atom containment", ok,
        f"translation times {plan.ks}, sup conditional surplus err {sup_err:.1e} "
        f"(tol 1e-12); {atom.pairs} atom pairs stay delta-close over horizon 50 "
        f"({atom.violations} violations, worst distance {atom.worst_distance:.3f} <= 0.5)",
    )


def test_pathwise_rates_and_shifted_blocks(capsys, shift, fair, markov):
    ns = [2500, 5000, 7500, 10000]
    x_fair = sample_point(shift, fair, master_seed=3)
    smb_fair = local_smb_check(shift, fair, x_fair, ns, paths=200, seed=2)
    x_mk = sample_point(shift, markov, master_seed=9)
    smb_mk = local_smb_check(shift, markov, x_mk, ns, paths=200, seed=2)
    wide = FullShift(alphabet_size=2, window=10_100)
    y_fair = sample_point(wide, fair, master_seed=10)
    sh_fair = shift_lemma_check(fair, y_fair, k=3, n_schedule=ns)
    fair_exact = all(
        abs(b - (n + 1) * LOG2 / n) < 1e-12 and abs(s - (n - 2) * LOG2 / n) < 1e-12
        for n, b, s in zip(ns, sh_fair.base_values, sh_fair.shifted_values)
    )
    y_mk = sample_point(wide, markov, master_seed=11)
    sh_mk = shift_lemma_check(markov, y_mk, k=3, n_schedule=ns)
    ok = (
        smb_fair.rel_error < 1e-12 and smb_mk.rel_error < 0.02
        and fair_exact and sh_fair.rel_gap < 0.01 and sh_mk.rel_gap < 0.01
    )
    announce(
        capsys, "pathwise block rates and dropped-prefix invariance", ok,
        f"fair-coin pathwise rate err {smb_fair.rel_error:.1e} (tol 1e-12); "
        f"Markov {smb_mk.rel_error:.3%} at N = 1e4, 200 paths (tol 2%); "
        f"shifted-block gaps {sh_fair.rel_gap:.1e} / {sh_mk.rel_gap:.2e} (tol 1%)",
    )


def test_shrinking_ball_inclusion_regimes(capsys, cat):
    total_viol = 0
    all_hold = True
    for seed in range(100):
        rep = check_ball_inclusion(
            cat, None, lam=1.1, eps=0.1, eta=0.25, n_max=40,
            probes_per_n=100, seed=seed,
        )
        total_viol += sum(rec.violations for rec in rep.records)
        all_hold = all_hold and rep.holds_from_n == 1
    witness = check_ball_inclusion(
        cat, None, lam=0.5, eps=0.1, eta=0.25, n_max=40, probes_per_n=100, seed=0,
    )
    ok = (
        all_hold and total_viol == 0
        and witness.first_failure is not None
        and witness.holds_from_n is None
        and witness.records[-1].violations > 0
    )
    announce(
        capsys, "shrinking-ball inclusion in Bowen balls", ok,
        f"rate 1.1 > exponent: inclusion holds from n = 1 over 100 runs x "
        f"100 probes x 40 scales ({total_viol} violations); rate 0.5: "
        f"first failure at n = {witness.first_failure[0]}, persists at n = 40",
    )


def test_hamming_counting_bounds(capsys):
    dc2 = delta_constant(0.04, 2)
    s = 2 * math.sqrt(0.04)
    dc2_err = abs(dc2.value - h2(s))
    dc3_err = abs(delta_constant(0.04, 3).value - (s * math.log(2) + h2(s)))
    stirling_all = all(
        hamming_ball_bound_check(n, 2, 0.04).stirling_holds for n in range(12, 31)
    )
    small_m = hamming_ball_bound_check(4, 2, 0.01)
    flagged = run_experiment(
        ExperimentConfig.from_dict(
            {"task": "hamming-bounds", "seed": 0, "n_values": [4, 12], "eps": 0.01}
        )
    )
    ok = (
        dc2_err < 1e-12 and dc3_err < 1e-12 and stirling_all
        and not small_m.crude_holds
        and any("crude bound fails" in f for f in flagged.flags)
    )
    announce(
        capsys, "Hamming-ball counting bounds", ok,
        f"counting-constant closed forms err {max(dc2_err, dc3_err):.1e} (tol 1e-12); "
        f"Stirling bound holds for all 12 <= n <= 30; crude bound fails at "
        f"n = 4, m = {small_m.m} and the run flags it",
    )


def test_infrastructure_exactness_and_reproducibility(capsys, monkeypatch, cat, shift, markov):
    # information cocycle: block entropy telescopes into conditional terms
    alpha = cylinder_window(0, 0)
    total = coord_entropy(markov, range(16))
    telescoped = coord_entropy(markov, [0]) + sum(
        conditional_entropy(pullback(alpha, k), orbit_join(alpha, 0, k - 1), markov).value
        for k in range(1, 16)
    )
    cocycle_err = abs(total - telescoped)

    # metric axioms on 1000 sampled triples per system
    rng = np.random.default_rng(0)
    weighted = FullShift(
        alphabet_size=2, window=256, metric=WeightedL2Metric(default_weights())
    )
    axioms_ok = True
    for sys_ in (shift, weighted):
        span = 2 * sys_.window + 1
        syms = rng.integers(0, 2, size=(3000, span))
        pts = [SymbolicPoint(row, lo=-sys_.window) for row in syms]
        for i in range(0, 3000, 3):
            x, y, z = pts[i], pts[i + 1], pts[i + 2]
            dxy, dyx = distance(sys_, x, y), distance(sys_, y, x)
            axioms_ok = axioms_ok and dxy == dyx and dxy >= 0.0
            axioms_ok = axioms_ok and distance(sys_, x, x) == 0.0
            axioms_ok = axioms_ok and (
                distance(sys_, x, z) <= dxy + distance(sys_, y, z) + 1e-12
            )
    uv = rng.random(size=(3000, 2))
    for i in range(0, 3000, 3):
        x, y, z = (TorusPoint(*uv[j]) for j in (i, i + 1, i + 2))
        dxy, dyx = distance(cat, x, y), distance(cat, y, x)
        axioms_ok = axioms_ok and dxy == dyx and dxy >= 0.0
        axioms_ok = axioms_ok and distance(cat, x, x) == 0.0
        axioms_ok = axioms_ok and distance(cat, x, z) <= dxy + distance(cat, y, z) + 1e-12

    # finite-sample subadditive limits on synthetic series
    ns = list(range(1, 65))
    lin = fekete_limit(SubadditiveSeries(ns, [0.37 * n for n in ns], r=0.1))
    sub = fekete_limit(SubadditiveSeries(ns, [0.37 * n + math.log(n) for n in ns], r=0.1))
    series_ok = abs(lin - 0.37) < 1e-15 and 0.37 <= sub <= 0.37 + math.log(64) / 64

    # the chi estimate is identical serial and on 2 threads, on every probe route
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two chunks whatever the machine
    repro_ok = True
    for sys_, oracle, rs in ((cat, LebesgueTorus(), (0.2, 0.1, 0.05)),
                             (shift, markov, (0.2, 0.1, 0.05)),
                             (weighted, BernoulliIID((0.5, 0.5)), (0.4, 0.3, 0.2))):
        args = (sys_, oracle, rs, (2, 4, 8))
        serial = estimate_chi(*args, points=64, probes=32, seed=0)
        threaded = estimate_chi(*args, points=64, probes=32, seed=0, threads=2)
        repro_ok = repro_ok and serial == threaded

    ok = cocycle_err < 1e-10 and axioms_ok and series_ok and repro_ok
    announce(
        capsys, "exact cocycle, metric axioms, reproducible reports", ok,
        f"16-step information-cocycle telescoping err {cocycle_err:.1e} (tol 1e-10); "
        f"metric axioms hold on 1000 triples x 3 metrics; finite-sample "
        f"subadditive limits bracket the slope; chi estimates on the cat map, "
        f"dyadic and weighted shifts identical serial vs 2 threads",
    )
