"""Local unstable sets, box-counting and local-mass dimension, and the
end-to-end check that the dimension proxy dominates entropy / expansion rate.

The delta-local unstable set of x collects points whose backward orbit stays
within delta of the backward orbit of x.  The limit "distance tends to 0" is
replaced by a finite-horizon admission test: every returned point is checked
at all back-iterates up to the horizon and must come within an admission
tolerance (default delta / 8) at the final one.  All admission arithmetic is
exact on the dyadic grid / stored symbol windows.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .entropy import dyadic_agreement_radius
from .errors import (
    EmptyCloud,
    MassStarvation,
    ScaleUnderflow,
    TooFewPoints,
    TooFewScales,
    UnsupportedOracle,
    WindowExhausted,
)
from .lyapunov import estimate_chi
from .measures import (
    BernoulliIID,
    ConditionalShiftOracle,
    MarkovStationary,
    entropy_rate,
    fixed_coords_log_measure,
    sample_point,
)
from .partitions import disintegrate_past
from .systems import (
    FIXED_DENOM,
    DyadicMetric,
    FullShift,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    cylinder_depth,
    dyadic_depth,
    invert,
    one_sided_depth,
    resolution_floor,
    shift_orbit_distances,
    torus_norm_rows,
)

__all__ = [
    "PointCloud",
    "DimensionEstimate",
    "default_delta",
    "default_back_horizon",
    "default_scales",
    "scale_saturation_flags",
    "sample_unstable_set",
    "box_counting_dimension",
    "local_dimension_lower",
    "unstable_cover_counts",
    "VerifyReport",
    "verify_main_inequality",
]


@dataclass
class PointCloud:
    """Points admitted into the delta-local unstable set of a base point.

    ``rows`` is the one stored representation: for torus clouds an (N, 2)
    int64 array of dyadic grid integers, for shift clouds an (N, depth) int8
    matrix of the admitted words on the varied coordinates lo..lo + depth - 1;
    off them every point agrees with ``base``.  Point objects are built only
    on access, through ``points``.
    """

    rows: np.ndarray
    base: object
    delta: float
    back_horizon: int
    admission_tolerance: float
    kind: str  # "torus" or "shift"
    admitted: int
    rejected: int
    lo: int = 0  # shift clouds: coordinate of column 0 of ``rows``
    collinearity_residual: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def points(self) -> "_CloudPoints":
        return _CloudPoints(self)

    def torus_coords(self) -> np.ndarray:
        """(N, 2) float coordinates, exactly as ``TorusPoint.from_ints`` gives them."""
        return (self.rows % FIXED_DENOM) / FIXED_DENOM

    def translated(self, x) -> "PointCloud":
        """This torus cloud moved to base point ``x``.

        Torus admission reads only the displacement y - base, so the cloud of
        any other base point is this one translated by x - base.
        """
        if self.kind != "torus":
            raise ValueError("only torus clouds are translates of one another")
        step = np.array(x.ints(), dtype=np.int64) - np.array(self.base.ints(), dtype=np.int64)
        return replace(self, rows=(self.rows + step) % FIXED_DENOM, base=x,
                       diagnostics=dict(self.diagnostics))


class _CloudPoints(Sequence):
    """Read-only view of a cloud that builds one point object per access."""

    def __init__(self, cloud: PointCloud):
        self._cloud = cloud

    def __len__(self) -> int:
        return len(self._cloud.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        cloud = self._cloud
        row = cloud.rows[i]
        if cloud.kind == "torus":
            return TorusPoint.from_ints(int(row[0]), int(row[1]))
        symbols = cloud.base.symbols.copy()
        start = cloud.lo - cloud.base.lo
        symbols[start : start + row.size] = row
        return SymbolicPoint(symbols, cloud.base.lo)


@dataclass
class DimensionEstimate:
    scales: list
    counts: list  # box counts, or ball masses for the local-mass method
    slope: float
    stderr: float
    ci: tuple
    method: str  # "box_count" or "local_mass"
    n_points: int
    monotone: bool
    alt_slope: float | None = None
    liminf_proxy: float | None = None
    per_scale_ratio: list | None = None


# ---------------------------------------------------------------------------
# unstable set sampling
# ---------------------------------------------------------------------------


def _unstable_direction(matrix: np.ndarray):
    """The largest eigenvalue modulus and its unit eigenvector, sign-normalized.

    A complex pair (a rotation) has modulus 1, not the 0 of its real part.
    """
    vals, vecs = np.linalg.eig(matrix.astype(float))
    i = int(np.argmax(np.abs(vals)))
    e = np.real(vecs[:, i])
    e = e / np.linalg.norm(e)
    if e[0] < 0 or (e[0] == 0 and e[1] < 0):
        e = -e
    return float(abs(vals[i])), e


def _lattice_ladder(sys: ToralAutomorphism, e_u: np.ndarray, s_max: float):
    """Integer vectors M^j v0 hugging the unstable line, with projections.

    Returns (vectors, projections, perpendiculars) for j = 0, 1, ... while the
    unstable projection stays below s_max.  These are the only lattice
    directions whose backward iterates do not blow up in the stable direction,
    so candidate displacements are built as short signed combinations of them.
    """
    M = np.array(sys.matrix, dtype=object)
    v = np.array([1, 0], dtype=object)
    if abs(float(v[0]) * e_u[0] + float(v[1]) * e_u[1]) < 1e-9:
        v = np.array([0, 1], dtype=object)
    vecs, projs, perps = [], [], []
    for _ in range(200):
        vf = np.array([float(v[0]), float(v[1])])
        proj = float(vf @ e_u)
        if abs(proj) > s_max:
            break
        perp = float(np.linalg.norm(vf - proj * e_u))
        vecs.append((int(v[0]), int(v[1])))
        projs.append(proj)
        perps.append(perp)
        v = M @ v
    return vecs, projs, perps


def _torus_candidates(sys, delta, back_horizon, budget, tol):
    """Candidate displacements along the unstable line: (lambda, e_u, levels, disp).

    ``budget`` targets evenly spaced on the unstable line are each decomposed
    greedily along the usable ladder levels (largest projection first): while
    |s| >= |w|, step one ladder vector toward s and subtract its projection.
    All targets advance together in masked passes, so each sees the same float
    subtractions, in the same order, as a per-target loop would.  ``disp`` is
    an (n, 2) int64 array of the distinct results in first-seen order; ladder
    coordinates stay below ~2^49, so int64 is exact.
    """
    lam, e_u = _unstable_direction(np.array(sys.matrix, dtype=float))
    if lam <= 1.0:
        raise UnsupportedOracle("unstable sampling needs a hyperbolic matrix")
    s_max = 0.98 * delta * FIXED_DENOM
    vecs, projs, perps = _lattice_ladder(sys, e_u, s_max)
    # keep ladder levels whose stable residue stays below the admission
    # tolerance after back_horizon steps of exponential growth
    perp_budget = (tol * FIXED_DENOM) / (lam**back_horizon) / 16.0
    usable = [j for j in range(len(vecs)) if perps[j] <= perp_budget]
    if not usable:
        raise EmptyCloud(
            "no lattice direction survives the admission tolerance: "
            f"delta={delta} is below the backward-horizon resolution floor"
        )
    usable = [j for j in usable if abs(projs[j]) > 0]

    s = np.linspace(-s_max, s_max, budget)
    k = np.zeros((len(s), 2), dtype=np.int64)
    for j in sorted(usable, key=lambda j: -abs(projs[j])):
        w = projs[j]
        aw = abs(w)
        v = np.array(vecs[j], dtype=np.int64)
        active = np.flatnonzero(np.abs(s) >= aw)
        while active.size:
            sgn = np.where((s[active] > 0) == (w > 0), 1, -1)
            k[active] += sgn[:, None] * v
            s[active] -= sgn * w
            active = active[np.abs(s[active]) >= aw]
    # first occurrence of each distinct row: a stable sort keeps ties in index order
    by_row = np.lexsort((k[:, 1], k[:, 0]))
    sorted_k = k[by_row]
    first = np.ones(len(k), dtype=bool)
    first[1:] = (sorted_k[1:] != sorted_k[:-1]).any(axis=1)
    return lam, e_u, len(usable), k[np.sort(by_row[first])]


def _torus_unstable_cloud(sys, x, delta, back_horizon, budget, tol):
    lam, e_u, levels, disp = _torus_candidates(sys, delta, back_horizon, budget, tol)
    if len(disp) == 0 or (len(disp) == 1 and not disp.any()):
        raise EmptyCloud("no candidate displacements at this delta")

    D = disp % FIXED_DENOM
    Minv = np.array(sys.inverse_matrix, dtype=np.int64)
    cur = D.copy()
    ok = np.ones(len(disp), dtype=bool)
    first_fail = np.full(len(disp), -1)
    final_d = None
    for i in range(back_horizon + 1):
        d = torus_norm_rows(cur / FIXED_DENOM)
        bad = ok & (d > delta)
        first_fail[bad & (first_fail < 0)] = i
        ok &= d <= delta
        if i == back_horizon:
            final_d = d
        else:
            cur = (cur @ Minv.T) % FIXED_DENOM
    ok &= final_d <= tol
    fail_tol = (final_d > tol) & (first_fail < 0)
    first_fail[fail_tol] = back_horizon
    keep = np.flatnonzero(ok)
    if not disp[keep].any():
        tightest = int(first_fail[first_fail >= 0].min()) if (first_fail >= 0).any() else 0
        raise EmptyCloud(
            f"no nontrivial candidate survived admission; tightest failing n = {tightest}"
        )
    rows = (np.array(x.ints(), dtype=np.int64) + disp[keep]) % FIXED_DENOM
    # perpendicular offset from the unstable line through x (exact displacements)
    Df = disp[keep].astype(float) / FIXED_DENOM
    perp_resid = float(np.abs(Df @ np.array([-e_u[1], e_u[0]])).max())
    return PointCloud(
        rows=rows,
        base=x,
        delta=delta,
        back_horizon=back_horizon,
        admission_tolerance=tol,
        kind="torus",
        admitted=len(rows),
        rejected=len(disp) - len(rows),
        collinearity_residual=perp_resid,
        diagnostics={
            "lambda": lam,
            "ladder_levels": levels,
            "final_distance_max": float(final_d[keep].max()),
        },
    )


@functools.lru_cache(maxsize=8)
def _words(a: int, depth: int) -> np.ndarray:
    """All a**depth words of ``depth`` symbols, in lexicographic order (read-only, cached)."""
    powers = a ** np.arange(depth - 1, -1, -1)
    words = ((np.arange(a**depth)[:, None] // powers) % a).astype(np.int8)
    words.flags.writeable = False
    return words


def _shift_unstable_cloud(sys: FullShift, x, delta, back_horizon, budget, tol):
    a = sys.alphabet_size
    if isinstance(sys.metric, DyadicMetric):
        m_delta = dyadic_depth(delta)
    else:
        m_delta = one_sided_depth(sys.metric.weights, delta, sys.window)
    m_delta = max(m_delta, 1)
    side = 1 if not sys.inverted else -1
    # forward shifts expand futures: vary coordinates >= m_delta; inverted
    # shifts expand pasts: vary coordinates <= -m_delta
    if side == 1:
        room = x.hi - m_delta + 1
    else:
        room = -m_delta - x.lo + 1
    if room < 1:
        raise EmptyCloud(f"delta={delta} requires varying coordinates outside the stored window")
    if back_horizon > (-x.lo if side == 1 else x.hi):
        raise WindowExhausted("back horizon exceeds the stored window of the base point")

    if a > budget:
        raise TooFewPoints(f"cloud budget {budget} is below the alphabet size {a}: "
                           f"not even one varied coordinate can be enumerated")
    depth = 1
    while a ** (depth + 1) <= budget and depth + 1 <= room:
        depth += 1
    words = _words(a, depth)
    if side == 1:
        var_coords = np.arange(m_delta, m_delta + depth)
    else:
        var_coords = np.arange(-m_delta - depth + 1, -m_delta + 1)

    base_word = np.asarray(x.coords(list(var_coords)), dtype=np.int8)
    # dyadic distances only shrink along this backward orbit (the varied
    # coordinates move away from 0): a word that fails fails at back-iterate 0
    # already, so the first and last back-iterates decide admission
    steps = [0, back_horizon] if isinstance(sys.metric, DyadicMetric) else range(back_horizon + 1)
    d = shift_orbit_distances(sys, words != base_word[None, :], int(var_coords[0]), -np.asarray(steps))
    # the base point's own word is at distance 0, so at least one row is admitted
    keep = np.flatnonzero((d <= delta).all(axis=1) & (d[:, -1] <= tol))
    rows = words[keep]
    return PointCloud(
        rows=rows,
        base=x,
        delta=delta,
        back_horizon=back_horizon,
        admission_tolerance=tol,
        kind="shift",
        admitted=len(rows),
        rejected=int(len(words) - len(rows)),
        lo=int(var_coords[0]),
        diagnostics={"m_delta": m_delta, "alphabet": a, "inverted": sys.inverted},
    )


def default_delta(sys) -> float:
    """Local unstable set radius used when none is given."""
    return 0.05 if isinstance(sys, ToralAutomorphism) else 0.5


# log phi^2, the growth per step of the cat map: a 40-step horizon is tuned to it
_LOG_CAT_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def default_back_horizon(sys) -> int:
    """Backward horizon used when none is given: 40 on a shift, and on a torus map as many
    steps as the cat map takes to grow 40 times, floor(40 log phi^2 / log lambda).

    Torus admission keeps ladder levels whose stable residue stays within budget after
    lambda^back_horizon growth, so the horizon scales with 1 / log lambda (40 on both cat
    maps, 80 on the golden-mean map); the 1e-9 keeps an exact quotient from rounding down.
    """
    if not isinstance(sys, ToralAutomorphism):
        return 40
    lam, _ = _unstable_direction(np.array(sys.matrix, dtype=float))
    if lam <= 1.0:
        raise UnsupportedOracle("unstable sampling needs a hyperbolic matrix")
    return math.floor(40.0 * _LOG_CAT_LAMBDA / math.log(lam) + 1e-9)


def default_scales(sys, delta: float, budget: int) -> list:
    """Box-counting scales used when none are given: six octaves from delta/4, or 2^-2..2^-9.

    On the dyadic metric a cloud of ``budget`` points varies at most depth
    coordinates, with a^depth <= budget, so its counts saturate at 2^-k once
    a^k > budget: the scales stop at the largest such k <= 9.
    """
    if isinstance(sys, ToralAutomorphism):
        return [delta * 2.0 ** (-j) for j in range(2, 8)]
    return [2.0 ** (-k) for k in range(2, 10) if not _saturates(sys, 2.0 ** (-k), budget)]


def _saturates(sys, eps: float, budget: int) -> bool:
    """Whether a dyadic cloud of ``budget`` points is past resolving scale eps: it varies at
    most depth coordinates, a^depth <= budget, so its box counts stop growing once a^k > budget
    at the box radius k of eps.  Never on other metrics."""
    dyadic = isinstance(sys, FullShift) and isinstance(sys.metric, DyadicMetric)
    return dyadic and sys.alphabet_size ** dyadic_depth(eps) > budget


def scale_saturation_flags(sys, scales, budget: int) -> list:
    """One flag naming the scales (given explicitly; defaults stop short of them) at which
    a dyadic cloud of ``budget`` points cannot split a box, or no flag."""
    past = [dyadic_depth(s) for s in scales if _saturates(sys, s, budget)]
    if not past:
        return []
    return [f"scales at box radius k = {', '.join(map(str, past))} lie past what a cloud of {budget} "
            f"points resolves ({sys.alphabet_size}^k > cloud_budget): their box counts saturate "
            f"and pull the slope down"]


def sample_unstable_set(
    sys,
    x,
    delta: float,
    back_horizon: int | None = None,
    budget: int = 10_000,
    admission_tolerance: float | None = None,
) -> PointCloud:
    """Sample the delta-local unstable set of x with exact admission testing.

    Hyperbolic torus maps sweep the unstable eigendirection through x using
    lattice displacements whose backward iterates stay small; shifts vary the
    expanding coordinates of x.  Every candidate is admission-tested exactly:
    d(T^{-i} x, T^{-i} y) <= delta for all i <= back_horizon and <= the
    admission tolerance (default delta/8) at the horizon itself.  A null
    ``back_horizon`` is ``default_back_horizon(sys)``.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if back_horizon is None:
        back_horizon = default_back_horizon(sys)
    tol = delta / 8.0 if admission_tolerance is None else admission_tolerance
    if not tol >= 0:
        raise ValueError("admission_tolerance must be nonnegative")
    if isinstance(sys, ToralAutomorphism):
        return _torus_unstable_cloud(sys, x, delta, back_horizon, budget, tol)
    if isinstance(sys, FullShift):
        return _shift_unstable_cloud(sys, x, delta, back_horizon, budget, tol)
    raise UnsupportedOracle(f"no unstable sampling for {type(sys).__name__}")


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------


def _symbolic_box_radius(sys: FullShift, eps: float) -> int:
    """Smallest window radius whose cylinders have diameter <= eps."""
    if isinstance(sys.metric, DyadicMetric):
        return dyadic_depth(eps)
    limit = 10 * sys.window
    k = cylinder_depth(sys.metric.weights, eps, limit)
    if k > limit:
        raise ValueError(f"scale {eps} below the weighted-metric resolution")
    return k


def _distinct_rows(block: np.ndarray, radix: int | None = None) -> int:
    """Number of distinct rows of an integer matrix.

    Columns are packed into one int64 key per row in mixed radix (``radix``
    for every column, or each column's own range), and keys are counted by
    occupancy: one flag per packed value.  Whenever the packed range would
    pass max(2^16, 8 rows), the key is first re-ranked to 0..(distinct - 1)
    by the same flags, and a column still too wide for the ranked key is
    packed one leading digit at a time.  So the flags never outnumber that
    bound, and the count is exact for any width and any column range.
    """
    limit = max(1 << 16, 8 * len(block))
    key = np.zeros(len(block), dtype=np.int64)
    span = 1
    for col in block.T:
        if radix is None:
            col = col - np.int64(col.min())
            r = int(col.max()) + 1
        else:
            r = radix
        while span * r > limit:
            key, span = _ranked(key, span)
            if span * r > limit:
                digits = limit // span  # >= 8, so each digit shrinks r eightfold
                q = -(-r // digits)
                key = key * digits + col // q
                col, r, span = col % q, q, span * digits
        key = key * r + col
        span *= r
    return int(np.count_nonzero(_occupied(key, span)))


def _occupied(key: np.ndarray, span: int) -> np.ndarray:
    """One flag per packed value 0..span - 1: is it some row's key?"""
    seen = np.zeros(span, dtype=bool)
    seen[key] = True
    return seen


def _ranked(key: np.ndarray, span: int):
    """(rank of each key among the distinct keys, number of distinct keys)."""
    below = np.cumsum(_occupied(key, span))
    return below[key] - 1, int(below[-1])


def _cloud_box_counts(cloud: PointCloud, sys, scales, origin_shift: float = 0.0):
    counts = []
    if cloud.kind == "torus":
        P = cloud.torus_coords().T  # one contiguous row per coordinate
        for eps in scales:
            idx = np.floor((P + origin_shift * eps) / eps).astype(np.int64)
            counts.append(_distinct_rows(idx.T))
    else:
        # a box at radius k reads coordinates -k..k; off the stored words every
        # point agrees with the base, so only the words can split a box
        words = np.ascontiguousarray(cloud.rows.T)  # one contiguous row per coordinate
        coords = cloud.lo + np.arange(len(words))
        for eps in scales:
            k = _symbolic_box_radius(sys, eps)
            rows = slice(np.searchsorted(coords, -k), np.searchsorted(coords, k, side="right"))
            counts.append(_distinct_rows(words[rows].T, sys.alphabet_size))
    return counts


def _fit_line(x, y):
    """Least-squares slope of y on x and its standard error, for n >= 3 points.

    Population (co)variances, a correlation clipped to [-1, 1] (nan for a
    constant y) and n - 2 degrees of freedom: the textbook ``linregress``
    arithmetic in its exact operation order, so the floats match it bit for
    bit (pinned in ``tests/test_dimension.py``).
    """
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return float(ssxym / ssxm), float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))


def box_counting_dimension(cloud: PointCloud, scales, sys=None) -> DimensionEstimate:
    """Slope of log N(eps) against log(1/eps) over occupied half-open boxes.

    Symbolic clouds count distinct central words at the window radius whose
    cylinders have diameter <= eps.  A quarter-scale origin shift is rerun on
    torus clouds as a robustness column.
    """
    scales = sorted(float(s) for s in scales)[::-1]  # decreasing
    n_pts = len(cloud)
    if n_pts == 0:
        raise EmptyCloud("no points to count")
    if 1 < n_pts < 100:
        raise TooFewPoints(f"{n_pts} points is too few for a slope (need >= 100 or exactly 1)")
    floor = resolution_floor(sys) if sys is not None else 0.0
    kept = [s for s in scales if s > floor]
    if len(kept) < 4:
        raise TooFewScales(f"only {len(kept)} scales above the resolution floor {floor}")
    counts = _cloud_box_counts(cloud, sys, kept)
    monotone = all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    logs = np.log(1.0 / np.array(kept))
    logc = np.log(np.array(counts, dtype=float))
    if np.allclose(logc, logc[0]):
        slope, stderr = 0.0, 0.0
        est_ci = (0.0, 0.0)
    else:
        slope, stderr = _fit_line(logs, logc)
        est_ci = (slope - 1.96 * stderr, slope + 1.96 * stderr)
    alt = None
    if cloud.kind == "torus":
        alt_counts = _cloud_box_counts(cloud, sys, kept, origin_shift=0.25)
        alt_logc = np.log(np.array(alt_counts, dtype=float))
        if np.allclose(alt_logc, alt_logc[0]):
            alt = 0.0
        else:
            alt = _fit_line(logs, alt_logc)[0]
    return DimensionEstimate(
        scales=kept,
        counts=counts,
        slope=slope,
        stderr=stderr,
        ci=est_ci,
        method="box_count",
        n_points=n_pts,
        monotone=monotone,
        alt_slope=alt,
    )


# ---------------------------------------------------------------------------
# local mass dimension
# ---------------------------------------------------------------------------


def local_dimension_lower(
    cloud: PointCloud,
    conditional_oracle,
    probe_y,
    scales,
    sys=None,
) -> DimensionEstimate:
    """Slope and liminf proxy of log mu_x(B(y, r)) / log r over the scales.

    The ball masses are exact cylinder measures of a conditional shift oracle
    on a dyadic-metric shift; scales where the ball has zero mass are dropped
    (fewer than four left -> MassStarvation).
    """
    scales = sorted(float(s) for s in scales)[::-1]
    if len(scales) < 4:
        raise TooFewScales(f"{len(scales)} scales requested, need >= 4")
    if not isinstance(conditional_oracle, ConditionalShiftOracle):
        raise UnsupportedOracle(
            f"local mass needs a conditional shift oracle, got {type(conditional_oracle).__name__}"
        )
    if not (isinstance(sys, FullShift) and isinstance(sys.metric, DyadicMetric)):
        raise UnsupportedOracle("exact local mass needs a dyadic-metric shift")
    masses = []
    kept = []
    for r in scales:
        rho = dyadic_agreement_radius(r)
        coords = list(range(-rho, rho + 1))
        logm = fixed_coords_log_measure(conditional_oracle, coords, probe_y.coords(coords))
        if logm != -math.inf:
            kept.append(r)
            masses.append(logm)
    log_mass = np.array(masses)
    if len(kept) < 4:
        raise MassStarvation(
            f"only {len(kept)} scales carry mass (dropped {len(scales) - len(kept)}); need >= 4"
        )
    log_r = np.log(np.array(kept))
    ratios = log_mass / log_r
    slope, stderr = _fit_line(log_r, log_mass)
    tail = ratios[len(ratios) // 2 :]
    return DimensionEstimate(
        scales=kept,
        counts=[float(np.exp(v)) for v in log_mass],
        slope=slope,
        stderr=stderr,
        ci=(slope - 1.96 * stderr, slope + 1.96 * stderr),
        method="local_mass",
        n_points=len(cloud),
        monotone=all(m2 <= m1 for m1, m2 in zip(masses, masses[1:])),
        liminf_proxy=float(tail.min()),
        per_scale_ratio=[float(v) for v in ratios],
    )


# ---------------------------------------------------------------------------
# exact cover counts for the divergence regime
# ---------------------------------------------------------------------------


# deepest weighted cylinder a cover count may read: the radii grow about fourfold
# per octave (about 2 / eps^2), and a search this deep takes a fraction of a second
COVER_DEPTH_LIMIT = 1 << 19


def unstable_cover_counts(sys: FullShift, delta: float, octaves: int = 4):
    """Exact log cover counts of the full delta-local unstable set of a shift.

    The set of points agreeing with the base on the contracting side is
    covered by cylinders of diameter <= eps on the window [-k(eps), k(eps)];
    the count is alphabet^(k(eps) - m_delta + 1), exact in log space.  Returns
    dicts with per-octave scales, log counts, and successive slopes.  A weighted
    depth past ``COVER_DEPTH_LIMIT`` raises ``ScaleUnderflow``.
    """
    a = sys.alphabet_size
    scales = [delta / 2.0 * 2.0 ** (-j) for j in range(octaves + 1)]
    if isinstance(sys.metric, DyadicMetric):
        m_delta = max(dyadic_depth(delta), 1)
        ks = [_symbolic_box_radius(sys, e) for e in scales]
    else:
        # the first coordinate past the delta-cylinder's radius, and the analytic
        # covering radii (the stored-window cap does not apply here); the scales
        # descend, so each search starts from the radius before it
        w = sys.metric.weights
        m_delta = cylinder_depth(w, delta, COVER_DEPTH_LIMIT - 1) + 1
        ks = []
        for e in scales:
            ks.append(cylinder_depth(w, e, COVER_DEPTH_LIMIT, start=ks[-1] if ks else 0))
        if max(m_delta, ks[-1]) > COVER_DEPTH_LIMIT:
            raise ScaleUnderflow(f"the cover of delta = {delta} over {octaves} octaves reads cylinders "
                                 f"deeper than the cover depth limit {COVER_DEPTH_LIMIT}")
    log_counts = [max(k - m_delta + 1, 0) * math.log(a) for k in ks]
    slopes = [
        (c2 - c1) / math.log(2.0) for c1, c2 in zip(log_counts, log_counts[1:])
    ]
    return {
        "m_delta": m_delta,
        "scales": scales,
        "window_radii": ks,
        "log_counts": log_counts,
        "octave_slopes": slopes,
        "strictly_increasing": all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:])),
    }


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    direction: str
    h_value: float
    chi: float
    chi_floor: float
    regime: str  # "ratio" or "divergence"
    ratio: float
    dim_estimate: float | None
    per_point_slopes: list
    mass_liminf: float | None
    slack: float | None
    holds: bool
    divergence: dict | None
    flags: list
    disclaimer: str
    diagnostics: dict = field(default_factory=dict)


_DISCLAIMER = (
    "The reported dimension is a box-counting proxy computed on sampled "
    "finite-horizon local unstable sets, paired with a local-mass lower "
    "proxy where conditional measures are exact; it upper-bounds nothing "
    "and is compared to h/chi as an empirical slope, not as a Hausdorff "
    "dimension."
)


def _closed_form_h(sys, oracle) -> float:
    if isinstance(sys, ToralAutomorphism):
        lam, _ = _unstable_direction(np.array(sys.matrix, dtype=float))
        return math.log(lam)
    return entropy_rate(oracle)


def verify_main_inequality(
    sys,
    oracle,
    direction: str = "forward",
    delta: float | None = None,
    base_points: int = 20,
    cloud_budget: int = 10_000,
    scales=None,
    r_schedule=None,
    n_schedule=(2, 4, 6, 8),
    chi_points: int = 256,
    chi_probes: int = 128,
    back_horizon: int | None = None,
    chi_floor: float = 0.05,
    slack_tolerance: float = 0.05,
    mass_points: int = 5,
    past_depth: int = 8,
    seed: int = 0,
) -> VerifyReport:
    """Compare a box-dimension proxy of local unstable sets against h / chi.

    h is taken in closed form (log of the expanding eigenvalue for hyperbolic
    torus maps, the entropy rate for shift oracles); chi comes from the
    pointwise-Lipschitz estimator.  When chi falls at or below ``chi_floor``
    the ratio is treated as infinite and the verdict switches to the
    divergence criterion: exact cover-count slopes of the local unstable set
    must strictly increase across the last four scale octaves.  Per-point
    failures are flagged, not fatal.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    # mu is invariant under T^-1 on the same coordinates, so both directions sample mu
    work_sys = sys if direction == "forward" else invert(sys)
    flags = []
    if r_schedule is None:
        # weighted-metric flip probes cannot reach below the stored-window
        # tail bound, so their schedule starts coarser
        weighted = isinstance(work_sys, FullShift) and not isinstance(work_sys.metric, DyadicMetric)
        r_schedule = (0.4, 0.3, 0.2) if weighted else (0.2, 0.1, 0.05)

    h_value = _closed_form_h(work_sys if isinstance(sys, ToralAutomorphism) else sys, oracle)
    chi_est = estimate_chi(
        work_sys,
        oracle,
        r_schedule=r_schedule,
        n_schedule=n_schedule,
        points=chi_points,
        probes=chi_probes,
        seed=seed,
    )
    chi = chi_est.value

    if delta is None:
        delta = default_delta(work_sys)

    if chi <= chi_floor:
        if not isinstance(work_sys, FullShift):
            raise UnsupportedOracle("divergence regime is only defined for shift systems here")
        cover = unstable_cover_counts(work_sys, delta, octaves=4)
        holds = bool(cover["strictly_increasing"])
        return VerifyReport(
            direction=direction,
            h_value=h_value,
            chi=chi,
            chi_floor=chi_floor,
            regime="divergence",
            ratio=math.inf,
            dim_estimate=None,
            per_point_slopes=[],
            mass_liminf=None,
            slack=None,
            holds=holds,
            divergence=cover,
            flags=flags,
            disclaimer=_DISCLAIMER,
            diagnostics={"chi_diagnostics": chi_est.diagnostics},
        )

    if scales is None:
        scales = default_scales(work_sys, delta, cloud_budget)
    flags += scale_saturation_flags(work_sys, scales, cloud_budget)

    slopes = []
    mass_liminfs = []
    template = None  # the first torus cloud; later base points translate it
    for i in range(base_points):
        try:
            x = sample_point(work_sys, oracle, seed, 1000 + i)
            if template is not None:
                cloud = template.translated(x)
            else:
                cloud = sample_unstable_set(
                    work_sys, x, delta, back_horizon=back_horizon, budget=cloud_budget
                )
                if cloud.kind == "torus":
                    template = cloud
            est = box_counting_dimension(cloud, scales, sys=work_sys)
            slopes.append(est.slope)
            if not est.monotone:
                flags.append(f"base point {i}: non-monotone box counts")
            if (
                len(mass_liminfs) < mass_points
                and isinstance(work_sys, FullShift)
                and isinstance(work_sys.metric, DyadicMetric)
                and isinstance(oracle, (BernoulliIID, MarkovStationary))
            ):
                # condition deeply enough that no ball radius reaches past
                # the fixed block (keeps the per-scale ratios clean)
                need = dyadic_agreement_radius(min(scales)) + 1
                cond = disintegrate_past(oracle, max(past_depth, need), x)
                probe = cloud.points[min(1, len(cloud.points) - 1)]
                mass_est = local_dimension_lower(cloud, cond, probe, scales, sys=work_sys)
                mass_liminfs.append(mass_est.liminf_proxy)
        except Exception as exc:  # noqa: BLE001 - per-point failures are flagged
            flags.append(f"base point {i}: {type(exc).__name__}: {exc}")
    if not slopes:
        shown = " | ".join(flags[:3]) + (" | ..." if len(flags) > 3 else "")
        raise EmptyCloud(f"no base point produced a dimension estimate ({len(flags)} flags: {shown})")

    dim_est = float(np.median(slopes))
    ratio = float(h_value / chi)
    slack = float(dim_est - ratio)
    holds = bool(slack >= -slack_tolerance)
    return VerifyReport(
        direction=direction,
        h_value=h_value,
        chi=chi,
        chi_floor=chi_floor,
        regime="ratio",
        ratio=ratio,
        dim_estimate=dim_est,
        per_point_slopes=[float(s) for s in slopes],
        mass_liminf=float(np.median(mass_liminfs)) if mass_liminfs else None,
        slack=slack,
        holds=holds,
        divergence=None,
        flags=flags,
        disclaimer=_DISCLAIMER,
        diagnostics={
            "delta": delta,
            "points_used": len(slopes),
            "chi_diagnostics": chi_est.diagnostics,
        },
    )
