"""Bowen balls, pointwise Lipschitz estimation, and ball-inclusion checks.

The pointwise Lipschitz constant at x over scale r and time n is

    L_n^r(x) = sup { d(T^n x, T^n y) / d(x, y) : y in B_n(x, r), y != x }

where B_n(x, r) is the open Bowen ball {y : max_{0<=k<n} d(T^k x, T^k y) < r}.
The sup is estimated by probing: candidate points are drawn in B(x, r) across
logarithmically spread scales (small scales are essential, otherwise expanding
directions are thinned out of the Bowen ball and the sup is unreachable),
filtered by Bowen membership, and the ratio is maximized over survivors.

For linear torus maps all probe arithmetic runs on displacement vectors,
which is exact for the linearized orbit and immune to the catastrophic
cancellation that direct point iteration suffers below ~1e-14.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ScaleUnderflow
from .systems import (
    DyadicMetric,
    FullShift,
    SystemDescriptor,
    ToralAutomorphism,
    TorusTranslation,
    iterate,
    open_flip_depth,
    resolution_floor,
    shift_orbit_distances,
    shift_orbit_weights,
    torus_norm_rows,
)
from .measures import child_rngs, rng_for, uniform_symbols

__all__ = [
    "lipschitz_table",
    "InclusionRecord",
    "InclusionReport",
    "check_ball_inclusion",
]


# ---------------------------------------------------------------------------
# probe kernels (vectorized over probes; value = max ratio per requested n)
# ---------------------------------------------------------------------------


# probe rows per vector pass of the batched torus route: large enough to
# amortize numpy's per-call cost, small enough to keep peak memory flat
_TORUS_BLOCK_ROWS = 8192


# relative half-width of the band around r^2 inside which Bowen membership
# is decided by np.hypot rather than by the sum of squares
_GUARD_BAND = 1e-12


def _below_radius(f, r):
    """Exactly ``np.hypot(f[:, 0], f[:, 1]) < r``, calling ``np.hypot`` only on rows near r.

    s = fl(x^2 + y^2) lies within about 2u of x^2 + y^2 (u = 2^-53), and
    np.hypot within one ulp of sqrt(x^2 + y^2): both far inside the band
    r^2 (1 +- 1e-12).  So s below the band means hypot < r, s above it means
    hypot > r, and only the rows inside it need hypot.  The bound needs r^2
    clear of underflow: torus radii lie above the 1e-14 resolution floor, so
    r^2 >= 1e-28, and a row whose s does underflow is far below r^2.
    """
    sq = f * f
    s = sq[:, 0] + sq[:, 1]
    r2 = r * r
    below = s < r2 * (1.0 - _GUARD_BAND)
    band = ~below & (s <= r2 * (1.0 + _GUARD_BAND))
    if band.any():
        below[band] = np.hypot(f[band, 0], f[band, 1]) < r
    return below


def _torus_ratios_from_draws(sys, r, ns, u):
    """Displacement-route ratios for linear torus maps, from uniform draws u[rows, 2].

    Each row is one probe and is evaluated independently of the others.
    Returns (accepted[len(ns), rows], ratios[len(ns), rows]), one row per
    schedule step.  d_0 is the exact torus norm; later steps decide d_k < r
    by ``_below_radius`` and take d_n = np.hypot only on the probes still in
    the Bowen ball at n in the schedule, so every bit is that of the
    all-hypot route.
    """
    floor = max(resolution_floor(sys), 1e-12 * r)
    mags = floor * (r / floor) ** u[:, 0]  # log-uniform across scales in [floor, r)
    angles = 2.0 * math.pi * u[:, 1]
    w = np.stack([mags * np.cos(angles), mags * np.sin(angles)], axis=1)

    step = np.ascontiguousarray(sys.as_array().T)  # a contiguous operand keeps the matmul fast
    n_max = max(ns)
    d0 = torus_norm_rows(w)
    inside = (d0 < r) & (d0 > 0.0)  # in B_k(x, r) for the k reached so far, and distinct from x
    accepted = np.zeros((len(ns), len(u)), dtype=bool)
    ratios = np.zeros((len(ns), len(u)))
    col = {n: j for j, n in enumerate(ns)}
    for k in range(1, n_max + 1):
        w = w @ step
        f = w - np.rint(w)  # nearest-integer reduction, as in ``torus_norm_rows``
        if k in col:  # Bowen membership uses d_0..d_{k-1}
            accepted[col[k]] = inside
            rows = np.flatnonzero(inside)
            near = f.take(rows, axis=0)
            ratios[col[k]].put(rows, np.hypot(near[:, 0], near[:, 1]) / d0.take(rows))
        if k < n_max:
            inside &= _below_radius(f, r)
    return accepted, ratios


# probe cells (rows x columns the window plan reads) per vector pass of the
# batched shift route: enough rows to amortize numpy's per-call cost, few
# enough that a block's arrays stay at a few MB and peak memory stays flat on
# wide windows
_SHIFT_BLOCK_CELLS = 1 << 18


def _draw_flip_probes(rng, k_lo, k_hi, alphabet, width, probes):
    """One point's flip-probe draws, in stream order: depths, sides, symbols."""
    ks = rng.integers(k_lo, k_hi + 1, size=probes)
    sides = np.where(rng.random(probes) < 0.5, 1, -1)
    return ks, sides, uniform_symbols(rng, alphabet, (probes, width))


def _flip_mismatches(unequal, ks, sides, first):
    """Where flip probes differ from their points on the coordinates first, first + 1, ...: where
    randomized (|coord| >= k) and the draw is ``unequal`` (updated in place), and at the flip side * k."""
    unequal &= np.abs(first + np.arange(unequal.shape[1]))[None, :] >= ks[:, None]
    unequal[np.arange(len(ks)), sides * ks - first] = True
    return unequal


def _shift_window_plan(sys: FullShift, r, lo: int, hi: int, n_max: int):
    """What every flip-route block on the window lo..hi shares: (k_lo, k_hi, weight matrix, cols).

    ``cols`` are the coordinates first..last the route reads, as (first, last).
    The weight matrix is None on the dyadic metric.
    """
    k_lo = open_flip_depth(sys, r)
    # flips surviving Bowen membership through time n sit at depth >= n + k_lo,
    # so the draw range must extend past n_max + k_lo (within the stored window)
    k_hi = min(hi - 1, -lo - 1, k_lo + n_max + 16)
    if k_hi < k_lo:
        raise ScaleUnderflow(
            f"no admissible flip depth: need k in [{k_lo}, {k_hi}] inside the window"
        )
    if isinstance(sys.metric, DyadicMetric):
        # d(T^j x, T^j y) = 2^-|i - j| for the nearest mismatch i; the forced flip
        # f (|f| <= reach) always mismatches, so for j in 0..n_max that i lies
        # within |f - j| <= reach + j of j, inside -reach..reach + 2 n_max
        reach = max(k_hi, -k_lo)
        return k_lo, k_hi, None, (max(lo, min(-reach, -1)), min(hi, reach + 2 * n_max))
    steps = np.arange(n_max + 1)
    return k_lo, k_hi, shift_orbit_weights(sys, lo, hi - lo + 1, -steps if sys.inverted else steps), (lo, hi)


def _shift_block_ratios(sys: FullShift, xs: list, r, ns, probes, rngs, plan):
    """Flip-route ratios for a block of points that share one window (dyadic or weighted).

    Point i draws its probes from the i-th generator of ``rngs``, exactly as a
    lone point would; rows i * probes .. (i + 1) * probes - 1 of the result
    are its probes.  ``plan`` is ``_shift_window_plan`` of the block's window.
    Returns (accepted[len(ns), rows], ratios[len(ns), rows]), one row per schedule step.
    """
    x0 = xs[0]
    lo, hi, width, a = x0.lo, x0.hi, x0.symbols.size, sys.alphabet_size
    n_max = max(ns)
    k_lo, k_hi, M, (first, last) = plan
    cols = slice(first - lo, last - lo + 1)
    draws = [_draw_flip_probes(rng, k_lo, k_hi, a, width, probes) for rng in rngs]
    ks, sides, rand = (np.concatenate(parts) for parts in zip(*[(k, s, sym[:, cols]) for k, s, sym in draws]))
    centers = np.stack([x.symbols[cols] for x in xs])
    unequal = (rand.reshape(len(xs), probes, -1) != centers[:, None, :]).reshape(len(ks), -1)
    diff = _flip_mismatches(unequal, ks, sides, first)

    # d(T^j x, T^j y) as ``shift_orbit_distances`` defines it, planned per window;
    # mismatches move as on the forward shift even when ``sys.inverted`` (its
    # steps are negated there): the mismatch law of the probes is mirror-symmetric
    # (flip side and random tail alike), so the ratios have the same law in
    # either direction
    if M is None:
        steps = np.arange(n_max + 1)
        d = shift_orbit_distances(sys, diff, first, -steps if sys.inverted else steps)
    else:
        # d(T^j x, T^j y)^2 = sum_i a_|i - j| * diff_i, one matmul covers all j;
        # one matmul per point keeps each product the shape it always had
        d = np.empty((len(ks), n_max + 1))
        for s in range(0, len(ks), probes):
            np.sqrt(diff[s : s + probes].astype(float) @ M, out=d[s : s + probes])
    d0 = d[:, 0]
    run_max = np.maximum.accumulate(d, axis=1)  # run_max[:, k] = max_{j <= k} d_j
    accepted = np.zeros((len(ns), len(ks)), dtype=bool)
    ratios = np.zeros((len(ns), len(ks)))
    for n, j in {n: j for j, n in enumerate(ns)}.items():
        if n < 1:
            continue  # no Bowen ball at n < 1: the row stays unaccepted
        ok = (run_max[:, n - 1] < r) & (d0 > 0.0)
        accepted[j] = ok
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[j] = np.where(ok, d[:, n] / d0, 0.0)
    return accepted, ratios


def lipschitz_table(
    sys: SystemDescriptor,
    points: list,
    r: float,
    n_schedule: list,
    probes: int,
    seed: int,
    r_tag: int = 0,
    threads: int = 1,
):
    """Batched L_n^r estimates: values[point, n_index], NaN where no probe accepted.

    Each point gets its own derived generator (seed, r_tag, point index), and
    one probe block is drawn per point and reused across the n-schedule, so
    results are independent of evaluation order and of ``threads``.  The points
    run in at most ``threads`` contiguous chunks (never more than the machine
    has cores); each chunk seeds its generators in one batch (``child_rngs``)
    and walks its points in blocks, and more than one chunk runs on a thread
    pool.  Shift points must all be stored on one window (``ValueError``
    otherwise).
    """
    ns = [int(n) for n in n_schedule]
    values = np.full((len(points), len(ns)), np.nan)
    accepted_counts = np.zeros((len(points), len(ns)), dtype=int)
    if not points:
        return values, accepted_counts
    if isinstance(sys, (ToralAutomorphism, TorusTranslation)):
        # the torus kernel ignores x: stack the per-point draws, one vector pass per block
        per_block = max(1, _TORUS_BLOCK_ROWS // probes)

        def block_ratios(block, rngs):
            u = np.concatenate([next(rngs).random((probes, 2)) for _ in block])
            return _torus_ratios_from_draws(sys, r, ns, u)
    elif isinstance(sys, FullShift):
        lo, width = points[0].lo, points[0].symbols.size
        if any((x.lo, x.symbols.size) != (lo, width) for x in points):
            raise ValueError("shift points must all be stored on one window")
        plan = _shift_window_plan(sys, r, lo, lo + width - 1, max(ns))
        first, last = plan[3]
        # blocks bounded by probe cells of the columns the plan reads
        per_block = max(1, _SHIFT_BLOCK_CELLS // (probes * (last - first + 1)))

        def block_ratios(block, rngs):
            return _shift_block_ratios(sys, block, r, ns, probes, itertools.islice(rngs, len(block)), plan)
    else:
        raise NotImplementedError(f"no probe kernel for {type(sys).__name__}")

    def run_chunk(begin, end):
        rngs = child_rngs(seed, r_tag, start=begin, stop=end)
        for start in range(begin, end, per_block):
            block = points[start : min(start + per_block, end)]
            # step-major tables: each (step, point) cell reduces over contiguous probes
            acc, rat = (a.reshape(len(ns), len(block), probes) for a in block_ratios(block, rngs))
            counts = acc.sum(axis=2)
            accepted_counts[start : start + len(block)] = counts.T
            values[start : start + len(block)] = np.where(counts > 0, rat.max(axis=2), np.nan).T

    # more workers than cores buy nothing, and a large ``threads`` must not start that many
    chunks = min(threads, len(points), os.cpu_count() or 1)
    if chunks <= 1:
        run_chunk(0, len(points))
    else:
        from concurrent.futures import ThreadPoolExecutor

        bounds = [len(points) * c // chunks for c in range(chunks + 1)]
        with ThreadPoolExecutor(max_workers=chunks) as pool:
            list(pool.map(run_chunk, bounds[:-1], bounds[1:]))
    return values, accepted_counts


# ---------------------------------------------------------------------------
# ball inclusion: B(x, eta e^{-n lambda}) vs the Bowen ball B_n(x, eps)
# ---------------------------------------------------------------------------


@dataclass
class InclusionRecord:
    n: int
    violations: int
    underflow: bool


@dataclass
class InclusionReport:
    records: list
    holds_from_n: int | None
    first_failure: tuple | None
    tested_up_to: int
    underflow_from_n: int | None


def check_ball_inclusion(
    sys: SystemDescriptor,
    x,
    lam: float,
    eps: float,
    eta: float,
    n_max: int,
    probes_per_n: int = 100,
    seed: int = 0,
) -> InclusionReport:
    """Sampled check of B(x, eta e^{-n lam}) subset of B_n(x, eps) for n <= n_max.

    For linear torus maps membership is evaluated on displacements, which is
    exact for arbitrarily small radii.  For symbolic systems, scales below
    the metric's resolution floor cannot be probed; those n are marked
    ``underflow`` and excluded (a run whose very first scale underflows
    raises ``ScaleUnderflow``).
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    if lam <= 0.0 or eps <= 0.0 or n_max < 1:
        raise ValueError("lam, eps must be positive and n_max >= 1")

    linear_torus = isinstance(sys, (ToralAutomorphism, TorusTranslation))
    floor = resolution_floor(sys)
    records = []
    first_failure = None
    underflow_from = None
    tested_up_to = 0
    for n in range(1, n_max + 1):
        radius = eta * math.exp(-n * lam)
        if not linear_torus and radius < floor:
            if n == 1:
                raise ScaleUnderflow(
                    f"radius {radius} below resolution floor {floor} at n = 1"
                )
            if underflow_from is None:
                underflow_from = n
            records.append(InclusionRecord(n, 0, True))
            continue
        tested_up_to = n
        rng = rng_for(seed, n)
        if linear_torus:
            violations, witness = _torus_inclusion_sample(sys, radius, eps, n, probes_per_n, rng)
        else:
            violations, witness = _shift_inclusion_sample(sys, x, radius, eps, n, probes_per_n, rng)
        records.append(InclusionRecord(n, violations, False))
        if violations and first_failure is None:
            first_failure = (n, witness)

    holds_from = None
    for n in range(1, n_max + 1):
        tail = [rec for rec in records if rec.n >= n and not rec.underflow]
        if tail and all(rec.violations == 0 for rec in tail):
            holds_from = n
            break
    return InclusionReport(
        records=records,
        holds_from_n=holds_from,
        first_failure=first_failure,
        tested_up_to=tested_up_to,
        underflow_from_n=underflow_from,
    )


def _torus_inclusion_sample(sys, radius, eps, n, probes, rng):
    A = sys.as_array()
    u = rng.random((probes, 2))
    mags = radius * np.sqrt(u[:, 0])  # area-uniform in the open ball
    angles = 2.0 * math.pi * u[:, 1]
    v = np.stack([mags * np.cos(angles), mags * np.sin(angles)], axis=1)
    w = v.copy()
    worst = torus_norm_rows(w)
    for _ in range(1, n):
        w = w @ A.T
        worst = np.maximum(worst, torus_norm_rows(w))
    bad = worst >= eps
    witness = None
    if bad.any():
        i = int(np.argmax(bad))
        witness = {"displacement": v[i].tolist(), "worst_distance": float(worst[i])}
    return int(bad.sum()), witness


def _shift_inclusion_sample(sys, x, radius, eps, n, probes, rng):
    k_lo = open_flip_depth(sys, radius)
    k_hi = min(-x.lo - 1, x.hi - 1, k_lo + 16)
    if k_hi < k_lo:
        raise ScaleUnderflow("no flip depth available inside the window at this radius")
    ks, sides, rand = _draw_flip_probes(rng, k_lo, k_hi, sys.alphabet_size, x.symbols.size, probes)
    diff = _flip_mismatches(rand != x.symbols, ks, sides, x.lo)
    d = shift_orbit_distances(sys, diff, x.lo, np.arange(n))  # d(T^t x, T^t y), t < n
    # a candidate lies in the open ball and is distinguishable from x
    candidate = (d[:, 0] < radius) & (d[:, 0] > 0.0)
    outside = d >= eps
    # the stored window covers coordinate 0 for t <= last only: a candidate still
    # in the Bowen ball there cannot be followed further
    last = -x.lo if sys.inverted else x.hi
    if n - 1 > last and (candidate & ~outside[:, : last + 1].any(axis=1)).any():
        iterate(sys, x, last + 1)  # raises WindowExhausted
    bad = candidate & outside.any(axis=1)
    witness = None
    if bad.any():
        i = int(np.argmax(bad))
        witness = {"flip_coordinate": int(sides[i] * ks[i]), "worst_distance": float(d[i].max())}
    return int(bad.sum()), witness
