"""Finite partitions, subordinate-partition construction, and local checks.

The central construction builds, from a nested chain of finite partitions
beta_1 < beta_2 < ... with shrinking diameters, translated joins

    alpha_q = join_{p <= q} T^{k_p} beta_p,   k_1 = 0,

choosing each k_q as the least translation time for which conditioning on the
finite past of alpha_q costs almost nothing more than conditioning on the
past of alpha_{q-1}:

    H(alpha_p | past(alpha_{q-1})) - H(alpha_p | past(alpha_q)) < 1 / (p 2^{q-p})

for every p < q, with a safety margin.  The atoms of the resulting past
partition are then contained in small stable/unstable pieces, which the
sampled atom check verifies directly on back-iterates.

Pasts are finite-depth proxies: past(alpha) = join_{1 <= n <= P} T^n alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EpsOutOfRange,
    LengthMismatch,
    MixedSystems,
    SearchExhausted,
    UnsupportedOracle,
)
from .measures import (
    BernoulliIID,
    ConditionalShiftOracle,
    MarkovStationary,
    entropy_rate,
    marginal_entropy,
    rng_for,
    sample_symbol_block,
    transition_entropy,
    uniform_symbols,
)
from .systems import DyadicMetric, FullShift, SymbolicPoint, WeightedL2Metric

__all__ = [
    "CylinderPartition",
    "cylinder_window",
    "refine",
    "pullback",
    "orbit_join",
    "past_join",
    "coord_entropy",
    "SubordinatePlan",
    "construct_subordinate_partition",
    "AtomCheckReport",
    "check_atom_in_unstable",
    "disintegrate_past",
    "SmbReport",
    "local_smb_check",
    "ShiftLemmaReport",
    "shift_lemma_check",
    "DeltaConstant",
    "delta_constant",
    "HammingBoundReport",
    "hamming_ball_bound_check",
]


# ---------------------------------------------------------------------------
# partition types and lattice operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderPartition:
    """Partition of a full shift by the symbols on a fixed coordinate set."""

    coords: tuple
    alphabet: int = 2

    def __post_init__(self):
        cs = tuple(sorted(int(c) for c in self.coords))
        if len(set(cs)) != len(cs) or not cs:
            raise ValueError("coords must be nonempty and distinct")
        object.__setattr__(self, "coords", cs)

    @property
    def atom_count(self) -> int:
        return self.alphabet ** len(self.coords)

    def label(self, point: SymbolicPoint) -> tuple:
        return tuple(int(s) for s in point.coords(list(self.coords)))

    def diameter_bound(self, sys: FullShift) -> float:
        """Exact sup of pairwise distances within one atom."""
        S = set(self.coords)
        if isinstance(sys.metric, DyadicMetric):
            # sup distance = 2^{-s} for the smallest |i| not pinned by S
            s = 0
            while s in S and -s in S:
                s += 1
            return 2.0 ** (-s)
        if isinstance(sys.metric, WeightedL2Metric):
            w = sys.metric.weights
            free = [i for i in range(-sys.window, sys.window + 1) if i not in S]
            mass = math.fsum(w.a(abs(i)) for i in free)
            return (sys.alphabet_size - 1) * math.sqrt(mass)
        raise MixedSystems("unknown shift metric")


def cylinder_window(lo: int, hi: int, alphabet: int = 2) -> CylinderPartition:
    """The partition by symbols on the contiguous window lo..hi."""
    if hi < lo:
        raise ValueError("window must satisfy lo <= hi")
    return CylinderPartition(tuple(range(lo, hi + 1)), alphabet)


def refine(a: CylinderPartition, b: CylinderPartition) -> CylinderPartition:
    """Common refinement (join) of two cylinder partitions."""
    if a.alphabet != b.alphabet:
        raise MixedSystems("cannot join cylinder partitions over different alphabets")
    return CylinderPartition(tuple(sorted(set(a.coords) | set(b.coords))), a.alphabet)


def pullback(a: CylinderPartition, k: int) -> CylinderPartition:
    """T^{-k} a: the coordinate set translates by +k."""
    return CylinderPartition(tuple(c + k for c in a.coords), a.alphabet)


def orbit_join(a: CylinderPartition, k_from: int, k_to: int) -> CylinderPartition:
    """join_{k_from <= k <= k_to} T^{-k} a."""
    if k_to < k_from:
        raise ValueError("empty orbit range")
    coords = set()
    for k in range(k_from, k_to + 1):
        coords.update(c + k for c in a.coords)
    return CylinderPartition(tuple(sorted(coords)), a.alphabet)


def past_join(a: CylinderPartition, past_depth: int) -> CylinderPartition:
    """The depth-P past join_{1 <= n <= P} T^n a (coordinates shift by -n)."""
    if past_depth < 1:
        raise ValueError("past_depth must be >= 1")
    return orbit_join(a, -past_depth, -1)


def coord_entropy(oracle, coords) -> float:
    """Exact entropy of the symbol distribution on a coordinate set.

    Uses the chain rule along sorted coordinates; for Markov oracles the
    conditional given the nearest coordinate to the left is exact, so the
    cost is linear in the number of coordinates.  Cross-checked in the test
    suite against full atom enumeration.
    """
    cs = sorted(set(int(c) for c in coords))
    if not cs:
        return 0.0
    if isinstance(oracle, BernoulliIID):
        return len(cs) * entropy_rate(oracle)
    if isinstance(oracle, MarkovStationary):
        total = marginal_entropy(oracle)
        for a, b in zip(cs, cs[1:]):
            total += transition_entropy(oracle.pi_vec, oracle.power(b - a))
        return total
    raise UnsupportedOracle(f"no coordinate-set entropy for {type(oracle).__name__}")


def _cond_coord_entropy(oracle, alpha: CylinderPartition, cond_coords) -> float:
    """H(alpha | partition on cond_coords) = H(union) - H(cond)."""
    union = sorted(set(alpha.coords) | set(cond_coords))
    return coord_entropy(oracle, union) - coord_entropy(oracle, cond_coords)


# ---------------------------------------------------------------------------
# subordinate partition construction
# ---------------------------------------------------------------------------


@dataclass
class SubordinatePlan:
    """A built chain alpha_q = join_{p<=q} T^{k_p} beta_p with its diagnostics."""

    delta: float
    depth: int
    past_depth: int
    betas: list
    ks: list
    alphas: list
    c_values: list  # H(alpha_p | depth-P past of alpha_Q), one per level
    c_values_half_past: list  # same at past depth P // 2 (sensitivity probe)
    sup_c: float
    oracle_rate: float
    diagnostics: dict = field(default_factory=dict)


def construct_subordinate_partition(
    sys: FullShift,
    oracle,
    delta: float,
    depth: int = 3,
    past_depth: int = 8,
    k_max: int = 16,
    margin: float = 0.1,
) -> SubordinatePlan:
    """Choose translation times k_q by least-k search under the entropy-gap test.

    The chain is beta_p = the cylinder window -p..p, for p = 1..depth.

    Raises ``SearchExhausted`` (carrying the residual curve of the failed
    level) if no k <= k_max satisfies the gap inequality with the margin.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not (0.0 < delta):
        raise ValueError("delta must be positive")
    betas = [cylinder_window(-p, p, sys.alphabet_size) for p in range(1, depth + 1)]

    beta1_diam = betas[0].diameter_bound(sys)
    t_beta1_diam = pullback(betas[0], -1).diameter_bound(sys)  # T beta_1
    if beta1_diam > delta:
        raise ValueError(f"diam(beta_1) = {beta1_diam} exceeds delta = {delta}")

    ks = [0]
    alphas = [betas[0]]
    residual_log = []
    for q in range(2, depth + 1):
        prev_past = past_join(alphas[-1], past_depth).coords
        lhs_prev = {p: _cond_coord_entropy(oracle, alphas[p - 1], prev_past) for p in range(1, q)}
        chosen = None
        level_residuals = []
        for k in range(0, k_max + 1):
            shifted = pullback(betas[q - 1], -k)  # T^k beta_q
            cand_alpha = refine(alphas[-1], shifted)
            cand_past = past_join(cand_alpha, past_depth).coords
            worst_excess = -math.inf
            ok = True
            for p in range(1, q):
                rhs = 1.0 / (p * 2.0 ** (q - p))
                gap = lhs_prev[p] - _cond_coord_entropy(oracle, alphas[p - 1], cand_past)
                excess = gap - rhs * (1.0 - margin)
                worst_excess = max(worst_excess, excess)
                if excess > 0.0:
                    ok = False
            level_residuals.append((k, worst_excess))
            if ok:
                chosen = (k, cand_alpha)
                break
        residual_log.append({"q": q, "residuals": level_residuals})
        if chosen is None:
            raise SearchExhausted(
                f"no admissible k <= {k_max} at level q = {q}", residuals=residual_log
            )
        ks.append(chosen[0])
        alphas.append(chosen[1])

    full_past = past_join(alphas[-1], past_depth).coords
    half_past = past_join(alphas[-1], max(1, past_depth // 2)).coords
    c_values = [_cond_coord_entropy(oracle, a, full_past) for a in alphas]
    c_half = [_cond_coord_entropy(oracle, a, half_past) for a in alphas]
    rate = entropy_rate(oracle)
    sup_c = max(c_values)
    return SubordinatePlan(
        delta=delta,
        depth=depth,
        past_depth=past_depth,
        betas=betas,
        ks=ks,
        alphas=alphas,
        c_values=c_values,
        c_values_half_past=c_half,
        sup_c=sup_c,
        oracle_rate=rate,
        diagnostics={
            "beta1_diameter": beta1_diam,
            "t_beta1_diameter": t_beta1_diam,
            "t_beta1_within_delta": t_beta1_diam <= delta,
            "rate_gap": rate - sup_c,
            "margin": margin,
            "k_max": k_max,
            "search_residuals": residual_log,
        },
    )


# ---------------------------------------------------------------------------
# sampled geometric check of the past-partition atoms
# ---------------------------------------------------------------------------


@dataclass
class AtomCheckReport:
    horizon: int
    pairs: int
    past_depth_used: int
    agreement_coords: int
    worst_distance: float
    delta: float
    violations: int
    per_level: list  # (level j, diam bound, worst observed back-iterate distance)
    level_violations: int


def _pair_distances_under_backshift(sys: FullShift, y_syms, z_syms, lo, horizon):
    """d(T^{-i} y, T^{-i} z) for i = 0..horizon, from stored mismatch positions."""
    diff = np.flatnonzero(y_syms != z_syms) + lo  # mismatch coordinates
    iis = np.arange(horizon + 1)
    if diff.size == 0:
        return np.zeros(horizon + 1)
    if isinstance(sys.metric, DyadicMetric):
        nearest = np.abs(diff[:, None] + iis[None, :]).min(axis=0)
        return 2.0 ** (-nearest.astype(float))
    w = sys.metric.weights
    kmax = int(np.abs(diff).max() + horizon)
    vals = w.values(kmax)
    shifted = np.abs(diff[:, None] + iis[None, :])
    keep = shifted <= sys.window
    return np.sqrt((vals[shifted] * keep).sum(axis=0))


def check_atom_in_unstable(
    sys: FullShift,
    plan: SubordinatePlan,
    x: SymbolicPoint,
    horizon: int = 50,
    pairs: int = 100,
    seed: int = 0,
) -> AtomCheckReport:
    """Sample point pairs in the past-partition atom of x and track back-iterates.

    The finite-depth past at depth P only pins coordinates P steps back, so
    the pair-agreement set is built at past depth max(P, horizon + 1): this is
    the finite shadow of the infinite past that the atom approximates.  Pairs
    must stay delta-close under T^{-i} for all i <= horizon, and within
    diam(beta_j) under T^{-(k_j + i)} for i >= 1 at each level j.
    """
    depth_used = max(plan.past_depth, horizon + 1)
    agree = past_join(plan.alphas[-1], depth_used).coords
    lo, hi = x.lo, x.hi
    if min(agree) < lo or max(agree) > hi:
        raise LengthMismatch("agreement set exceeds the stored window of x")
    a = sys.alphabet_size
    rng = rng_for(seed, horizon)
    width = x.symbols.size
    agree_pos = np.array(agree) - lo

    worst = 0.0
    violations = 0
    level_worst = [0.0] * len(plan.betas)
    for _ in range(pairs):
        y = uniform_symbols(rng, a, width)
        z = uniform_symbols(rng, a, width)
        y[agree_pos] = x.symbols[agree_pos]
        z[agree_pos] = x.symbols[agree_pos]
        d = _pair_distances_under_backshift(sys, y, z, lo, horizon)
        worst = max(worst, float(d.max()))
        violations += int((d > plan.delta).sum() > 0)
        for j, (k_j, beta_j) in enumerate(zip(plan.ks, plan.betas)):
            top = horizon - k_j
            if top >= 1:
                seg = d[k_j + 1 : k_j + top + 1]
                if seg.size:
                    level_worst[j] = max(level_worst[j], float(seg.max()))
    per_level = []
    level_violations = 0
    for j, beta_j in enumerate(plan.betas):
        bound = beta_j.diameter_bound(sys)
        per_level.append((j + 1, bound, level_worst[j]))
        if level_worst[j] > bound:
            level_violations += 1
    return AtomCheckReport(
        horizon=horizon,
        pairs=pairs,
        past_depth_used=depth_used,
        agreement_coords=len(agree),
        worst_distance=worst,
        delta=plan.delta,
        violations=violations,
        per_level=per_level,
        level_violations=level_violations,
    )


# ---------------------------------------------------------------------------
# disintegration over the past and local Shannon-McMillan-Breiman checks
# ---------------------------------------------------------------------------


def disintegrate_past(oracle, past_depth: int, x: SymbolicPoint) -> ConditionalShiftOracle:
    """Exact conditional oracle given the strict past coordinates -P..-1 of x.

    The strict past (coordinate 0 excluded) matches the past sigma-algebra of
    the time-0 partition, so for an iid oracle the conditional law of the
    future block 0..N-1 is the unconditioned product.
    """
    if past_depth < 1:
        raise ValueError("past_depth must be >= 1")
    fixed = {i: x.coord(i) for i in range(-past_depth, 0)}
    return ConditionalShiftOracle(oracle, fixed)


@dataclass
class SmbReport:
    n_schedule: list
    mean_per_n: list  # mean over paths of -log mu_x(alpha-block of y)/N
    trailing_mean: float
    target: float
    rel_error: float
    paths: int
    past_depth: int
    per_path_final: list


def _conditional_block_log_mass(cond: ConditionalShiftOracle, blocks: np.ndarray) -> np.ndarray:
    """log mu_x of the cylinder 0..N-1 on each row, cumulatively for every prefix.

    Returns an array of shape (paths, N): column N-1 is the log-mass of the
    length-N prefix.  Matches fixed_coords_log_measure on the conditional
    oracle (tested), evaluated via cumulative sums for speed.
    """
    base = cond.base
    count, length = blocks.shape
    if isinstance(base, BernoulliIID):
        logs = np.log(base.p)[blocks]
        return np.cumsum(logs, axis=1)
    if isinstance(base, MarkovStationary):
        logP = np.where(base.P > 0.0, np.log(np.where(base.P > 0.0, base.P, 1.0)), -np.inf)
        state0 = cond.fixed[-1]
        first = logP[state0, blocks[:, 0]]
        if length == 1:
            return first[:, None]
        steps = logP[blocks[:, :-1], blocks[:, 1:]]
        return np.cumsum(np.concatenate([first[:, None], steps], axis=1), axis=1)
    raise UnsupportedOracle(f"no conditional block mass for {type(base).__name__}")


def local_smb_check(
    sys: FullShift,
    oracle,
    x: SymbolicPoint,
    n_schedule,
    past_depth: int = 8,
    paths: int = 200,
    seed: int = 0,
) -> SmbReport:
    """Sampled check that -log mu_x(time-0 block of y)/N converges to the rate.

    mu_x conditions on the strict past of x to depth P; paths y are drawn from
    that conditional law, and the information of their length-N time-0 block
    is averaged.  The comparison target is the closed-form entropy rate.
    """
    ns = sorted(int(n) for n in n_schedule)
    if not ns or ns[0] < 1:
        raise ValueError("n schedule must be nonempty with positive entries")
    cond = disintegrate_past(oracle, past_depth, x)
    rng = rng_for(seed, 101)
    blocks = sample_symbol_block(cond.base, ns[-1], paths, rng, after=cond.fixed[-1])
    log_mass = _conditional_block_log_mass(cond, blocks)
    cols = np.array(ns) - 1
    ratios = -log_mass[:, cols] / np.array(ns, dtype=float)[None, :]
    mean_per_n = ratios.mean(axis=0)
    tail = mean_per_n[len(ns) // 2 :]
    trailing = float(tail.mean())
    target = entropy_rate(oracle)
    rel = abs(trailing - target) / target if target > 0 else abs(trailing)
    return SmbReport(
        n_schedule=ns,
        mean_per_n=[float(v) for v in mean_per_n],
        trailing_mean=trailing,
        target=float(target),
        rel_error=float(rel),
        paths=paths,
        past_depth=past_depth,
        per_path_final=[float(v) for v in ratios[:, -1]],
    )


@dataclass
class ShiftLemmaReport:
    k: int
    base_values: list  # -log mu(block 0..n of x) / n
    shifted_values: list  # -log mu(block k..n of x) / n
    trailing_base: float
    trailing_shifted: float
    rel_gap: float
    length_factors: list  # (n - k + 1) / (n + 1)


def shift_lemma_check(oracle, x: SymbolicPoint, k: int, n_schedule) -> ShiftLemmaReport:
    """Exact comparison of block information rates started at 0 versus at k.

    Both sequences use the stored symbols of x and exact log measures, so the
    only difference is the dropped prefix; trailing means must agree up to
    O(k/n).
    """
    ns = sorted(int(n) for n in n_schedule)
    if not ns or ns[0] <= k:
        raise ValueError("schedule entries must exceed k")
    if k < 1:
        raise ValueError("k must be >= 1")
    syms = np.asarray(x.coords(list(range(0, ns[-1] + 1))), dtype=int)
    log_prefix = _stationary_block_log_mass(oracle, syms)
    base, shifted = [], []
    for n in ns:
        base.append(-float(log_prefix(0, n)) / n)
        shifted.append(-float(log_prefix(k, n)) / n)
    half = len(ns) // 2
    tb = float(np.mean(base[half:]))
    ts = float(np.mean(shifted[half:]))
    rel = abs(tb - ts) / tb if tb > 0 else abs(tb - ts)
    return ShiftLemmaReport(
        k=k,
        base_values=base,
        shifted_values=shifted,
        trailing_base=tb,
        trailing_shifted=ts,
        rel_gap=rel,
        length_factors=[(n - k + 1) / (n + 1) for n in ns],
    )


def _stationary_block_log_mass(oracle, syms: np.ndarray):
    """log mu of contiguous blocks of x: a function (start, end) -> log measure.

    Only the block shapes needed by shift_lemma_check are materialized:
    (0, n) and (k, n) for all n, via cumulative transition sums.
    """
    if isinstance(oracle, BernoulliIID):
        logs = np.log(oracle.p)[syms]
        cum = np.concatenate([[0.0], np.cumsum(logs)])  # cum[j] = sum of first j
        return lambda s, e: cum[e + 1] - cum[s]
    if isinstance(oracle, MarkovStationary):
        P = oracle.P
        pi = oracle.pi_vec
        trans = np.log(P[syms[:-1], syms[1:]])
        cum = np.concatenate([[0.0], np.cumsum(trans)])  # cum[j] = first j transitions
        logpi = np.log(pi[syms])
        return lambda s, e: logpi[s] + cum[e] - cum[s]
    raise UnsupportedOracle(f"no block masses for {type(oracle).__name__}")


# ---------------------------------------------------------------------------
# Hamming-ball counting bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaConstant:
    alphabet: int
    value: float


def delta_constant(eps: float, alphabet: int) -> DeltaConstant:
    """The exponential counting constant for Hamming balls of radius 2 sqrt(eps).

    With s = 2 sqrt(eps) in (0, 1):  Delta = s log(#A - 1) - s log s - (1-s) log(1-s).
    For a binary alphabet this is the binary entropy of s in nats.
    """
    if alphabet < 2:
        raise ValueError("alphabet must be >= 2")
    s = 2.0 * math.sqrt(eps)
    if not (0.0 < s < 1.0):
        raise EpsOutOfRange(f"need 0 < 2 sqrt(eps) < 1, got {s}")
    value = s * math.log(alphabet - 1) - s * math.log(s) - (1.0 - s) * math.log(1.0 - s)
    return DeltaConstant(alphabet=alphabet, value=value)


@dataclass
class HammingBoundReport:
    n: int
    alphabet: int
    m: int
    open_ball_count: int  # exact count of words within open radius 2 sqrt(eps)
    closed_sum: int  # sum through i = m (the count the crude bound addresses)
    crude_bound: int
    crude_holds: bool
    stirling_log_bound: float
    stirling_holds: bool


def hamming_ball_bound_check(n: int, alphabet: int, eps: float) -> HammingBoundReport:
    """Exact binomial counts against the crude and exponential bounds.

    The open Hamming ball of radius s = 2 sqrt(eps) around a word counts
    mismatch numbers i with i/n < s, i.e. i <= ceil(ns) - 1 (strict-inequality
    convention; for integral ns the top term is likewise excluded).  The crude
    bound m C(n, m) (#A-1)^m is checked against the closed sum through i = m,
    which is the comparison it claims; it fails for small m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = 2.0 * math.sqrt(eps)
    if not (0.0 < s < 1.0):
        raise EpsOutOfRange(f"need 0 < 2 sqrt(eps) < 1, got {s}")
    m = math.ceil(n * s)
    q = alphabet - 1
    open_count = sum(math.comb(n, i) * q**i for i in range(0, m))
    closed_sum = sum(math.comb(n, i) * q**i for i in range(0, m + 1))
    crude = m * math.comb(n, m) * q**m
    delta = delta_constant(eps, alphabet).value
    stirling_log = (delta + eps) * n
    return HammingBoundReport(
        n=n,
        alphabet=alphabet,
        m=m,
        open_ball_count=open_count,
        closed_sum=closed_sum,
        crude_bound=crude,
        crude_holds=closed_sum < crude,
        stirling_log_bound=stirling_log,
        stirling_holds=math.log(open_count) <= stirling_log,
    )
