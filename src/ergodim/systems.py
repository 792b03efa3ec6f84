"""Concrete invertible systems, their point types, and their metrics.

Three system kinds are supported:

* ``ToralAutomorphism`` -- an integer matrix with |det| = 1 acting on the
  2-torus.  Coordinates live on the dyadic grid k / 2**53, and iteration is
  carried out in exact integer arithmetic, so forward-then-backward iteration
  is an exact identity.
* ``TorusTranslation`` -- rigid translation of the 2-torus (an isometry,
  useful as a zero-expansion control case).
* ``FullShift`` -- the two-sided full shift on a finite alphabet, stored on a
  finite coordinate window -N..N.  Two metrics are available: the dyadic
  metric 2**(-k) of first disagreement, and a weighted little-l2 metric whose
  weights decrease subexponentially.

Shift convention: (Tx)_i = x_{i+1} (the left shift).  Symbolic operations
never pad silently; when a computation would need coordinates outside the
stored window it raises ``WindowExhausted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MixedSystems, NonInvertible, WindowExhausted

__all__ = [
    "FIXED_DENOM",
    "WeightSequence",
    "default_weights",
    "SystemDescriptor",
    "ToralAutomorphism",
    "TorusTranslation",
    "FullShift",
    "TorusPoint",
    "SymbolicPoint",
    "iterate",
    "distance",
    "torus_displacement_norm",
    "torus_norm_rows",
    "invert",
    "resolution_floor",
    "weighted_tail_bound",
    "open_flip_depth",
    "dyadic_open_depth",
    "dyadic_depth",
    "cylinder_depth",
    "one_sided_depth",
    "operator_norm_power",
    "operator_norm_curve",
]

# Torus coordinates are multiples of 2**-53; this makes mod-1 arithmetic exact.
FIXED_DENOM = 1 << 53

# Default truncation window for symbolic systems (coordinates -N..N).
DEFAULT_WINDOW = 256


# ---------------------------------------------------------------------------
# weight sequences for the weighted little-l2 shift metric
# ---------------------------------------------------------------------------


def _default_a(k: int) -> float:
    return 1.0 / (k * k + 1.0)


def _default_b(m: int) -> float:
    return float((m + 1) * (m + 1))


# sum_{k>=0} 1/(k^2+1) = (1 + pi*coth(pi)) / 2
_DEFAULT_TOTAL = 0.5 * (1.0 + math.pi / math.tanh(math.pi))


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Weights a_k > 0, strictly decreasing, with subexponential-ratio witness.

    The witness asserts a_k / a_l <= C * b(|k - l|) with (1/m) log b(m) -> 0.
    ``total`` is sum_{k>=0} a_k in closed form, which makes tail sums exact.
    """

    a: callable = _default_a
    b: callable = _default_b
    C: float = 2.0
    total: float = field(kw_only=True)

    def values(self, kmax: int) -> np.ndarray:
        return np.array([self.a(k) for k in range(kmax + 1)], dtype=float)

    def tail_sum(self, kmin: int) -> float:
        """sum_{k > kmin} a_k."""
        partial = math.fsum(self.a(k) for k in range(kmin + 1))
        return max(self.total - partial, 0.0)

    def check(self, grid_max: int = 512, horizon: int = 100_000, tol: float = 1e-3) -> dict:
        """Numeric checks of the decreasing / ratio-bound / subexponential claims.

        The horizon must be deep enough for the witness's decay to clear the
        tolerance: polynomial b(m) gives (1/m) log b(m) ~ (deg/m) log m, so
        quadratic witnesses need m >~ 1e5 to fall under 1e-3.
        """
        vals = self.values(grid_max)
        decreasing = bool(np.all(np.diff(vals) < 0.0))
        ks = np.arange(grid_max + 1)
        ratio_ok = True
        # check a_k / a_l <= C b(|k-l|) on a thinned grid to keep this cheap
        grid = np.unique(np.concatenate([ks[:64], ks[:: max(1, grid_max // 64)]]))
        for k in grid:
            for l in grid:
                if vals[k] / vals[l] > self.C * self.b(abs(int(k) - int(l))) + 1e-12:
                    ratio_ok = False
        sub_exp = abs(math.log(self.b(horizon))) / horizon <= tol
        return {
            "decreasing": decreasing,
            "ratio_bound": ratio_ok,
            "subexponential": sub_exp,
            "grid_max": grid_max,
            "horizon": horizon,
        }


def default_weights() -> WeightSequence:
    """The standard weights a_k = 1/(k^2+1) with witness b(m) = (m+1)^2, C = 2."""
    return WeightSequence(total=_DEFAULT_TOTAL)


# ---------------------------------------------------------------------------
# system descriptors
# ---------------------------------------------------------------------------


class SystemDescriptor:
    """Marker base class for system descriptors."""


@dataclass(frozen=True)
class ToralAutomorphism(SystemDescriptor):
    """Integer 2x2 matrix with |det| = 1 acting on the 2-torus mod 1."""

    matrix: tuple[tuple[int, int], tuple[int, int]] = ((2, 1), (1, 1))

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        for entry in (a, b, c, d):
            if entry != int(entry):
                raise NonInvertible("matrix entries must be integers")
        if abs(a * d - b * c) != 1:
            raise NonInvertible(f"|det| must be 1, got det = {a * d - b * c}")

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    @property
    def inverse_matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        (a, b), (c, d) = self.matrix
        s = self.det  # +1 or -1
        return ((d * s, -b * s), (-c * s, a * s))

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


@dataclass(frozen=True)
class TorusTranslation(SystemDescriptor):
    """Rigid translation x -> x + shift mod 1; an isometry of the torus.

    The shift is snapped to the dyadic coordinate grid at construction so
    iteration stays exact.
    """

    shift: tuple[float, float] = (0.5 * (math.sqrt(5.0) - 1.0), math.sqrt(2.0) - 1.0)

    @property
    def shift_ints(self) -> tuple[int, int]:
        return (
            int(round(self.shift[0] * FIXED_DENOM)) % FIXED_DENOM,
            int(round(self.shift[1] * FIXED_DENOM)) % FIXED_DENOM,
        )

    def as_array(self) -> np.ndarray:
        """The linear part of the translation: the identity."""
        return np.eye(2)


class ShiftMetric:
    """Marker base for the metric choice of a full shift."""


@dataclass(frozen=True)
class DyadicMetric(ShiftMetric):
    """d(x, y) = 2**(-k), k = min{|i| : x_i != y_i}; 0 if no disagreement is stored."""


@dataclass(frozen=True, eq=False)
class WeightedL2Metric(ShiftMetric):
    """d(x, y) = (sum_{|i|<=N} a_|i| |x_i - y_i|^2)^(1/2) with truncation tail bound."""

    weights: WeightSequence = field(default_factory=default_weights)


@dataclass(frozen=True, eq=False)
class FullShift(SystemDescriptor):
    """Two-sided full shift on ``alphabet_size`` symbols, window -N..N.

    ``inverted=True`` flips the direction of iteration (models T^-1).
    """

    alphabet_size: int = 2
    metric: ShiftMetric = field(default_factory=DyadicMetric)
    window: int = DEFAULT_WINDOW
    inverted: bool = False

    def __post_init__(self):
        if not 2 <= self.alphabet_size <= 127:
            raise ValueError("alphabet_size must be >= 2 and <= 127 (symbols are stored as int8)")
        if self.window < 1:
            raise ValueError("window must be >= 1")


# ---------------------------------------------------------------------------
# point types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusPoint:
    """A point of the 2-torus with coordinates in [0, 1) on the dyadic grid."""

    x: float
    y: float

    def ints(self) -> tuple[int, int]:
        return (
            int(round(self.x * FIXED_DENOM)) % FIXED_DENOM,
            int(round(self.y * FIXED_DENOM)) % FIXED_DENOM,
        )

    @staticmethod
    def from_ints(kx: int, ky: int) -> "TorusPoint":
        return TorusPoint((kx % FIXED_DENOM) / FIXED_DENOM, (ky % FIXED_DENOM) / FIXED_DENOM)


class SymbolicPoint:
    """A truncated bi-infinite symbol sequence.

    ``symbols[j]`` is coordinate ``lo + j``.  Iterating the shift relabels the
    window rather than copying symbols, so round trips are exact.
    """

    __slots__ = ("symbols", "lo")

    def __init__(self, symbols, lo: int):
        arr = np.asarray(symbols, dtype=np.int8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("symbols must be a nonempty 1-d array")
        self.symbols = arr
        self.lo = int(lo)

    @property
    def hi(self) -> int:
        return self.lo + self.symbols.size - 1

    def coord(self, i: int) -> int:
        if not (self.lo <= i <= self.hi):
            raise WindowExhausted(f"coordinate {i} outside stored window [{self.lo}, {self.hi}]")
        return int(self.symbols[i - self.lo])

    def coords(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < self.lo or idx.max() > self.hi):
            raise WindowExhausted(
                f"coordinates {idx.min()}..{idx.max()} outside window [{self.lo}, {self.hi}]"
            )
        return self.symbols[idx - self.lo]

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicPoint)
            and self.lo == other.lo
            and np.array_equal(self.symbols, other.symbols)
        )

    def __repr__(self):
        return f"SymbolicPoint(lo={self.lo}, len={self.symbols.size})"


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def _int_matrix_power(m: tuple[tuple[int, int], tuple[int, int]], n: int):
    """Exact n-th power of an integer 2x2 matrix (Python ints, no overflow)."""
    (a, b), (c, d) = m
    ra, rb, rc, rd = 1, 0, 0, 1
    while n > 0:
        if n & 1:
            ra, rb, rc, rd = ra * a + rb * c, ra * b + rb * d, rc * a + rd * c, rc * b + rd * d
        a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
        n >>= 1
    return ra, rb, rc, rd


def iterate(sys: SystemDescriptor, point, n: int):
    """Apply T^n to ``point``; n may be negative (all systems are invertible)."""
    if isinstance(sys, ToralAutomorphism):
        m = sys.matrix if n >= 0 else sys.inverse_matrix
        a, b, c, d = _int_matrix_power(m, abs(n))
        kx, ky = point.ints()
        return TorusPoint.from_ints(a * kx + b * ky, c * kx + d * ky)
    if isinstance(sys, TorusTranslation):
        sx, sy = sys.shift_ints
        kx, ky = point.ints()
        return TorusPoint.from_ints(kx + n * sx, ky + n * sy)
    if isinstance(sys, FullShift):
        nn = -n if sys.inverted else n
        new_lo = point.lo - nn
        new_hi = point.hi - nn
        if not (new_lo <= 0 <= new_hi):
            raise WindowExhausted(
                f"shift by {n} moves window to [{new_lo}, {new_hi}], which no longer covers 0"
            )
        return SymbolicPoint(point.symbols, new_lo)
    raise MixedSystems(f"unknown system kind {type(sys).__name__}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

_TRANSLATES = np.array(
    [(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)], dtype=float
)


def torus_displacement_norm(dx: float, dy: float) -> float:
    """Distance from (0,0) to (dx, dy) on the torus: min over 9 lattice translates."""
    best = math.inf
    for ti, tj in _TRANSLATES:
        vx = dx + ti
        vy = dy + tj
        d = vx * vx + vy * vy
        if d < best:
            best = d
    return math.sqrt(best)


def torus_norm_rows(v: np.ndarray) -> np.ndarray:
    """Torus norm (min over the 9 lattice translates) of each displacement row."""
    frac = v - np.round(v)  # nearest-integer reduction = min translate per axis
    return np.hypot(frac[:, 0], frac[:, 1])


def _dyadic_distance(x: SymbolicPoint, y: SymbolicPoint) -> float:
    lo = max(x.lo, y.lo)
    hi = min(x.hi, y.hi)
    if not (lo <= 0 <= hi):
        raise WindowExhausted("known windows do not overlap around coordinate 0")
    xs = x.symbols[lo - x.lo : hi - x.lo + 1]
    ys = y.symbols[lo - y.lo : hi - y.lo + 1]
    mism = np.flatnonzero(xs != ys)
    if mism.size == 0:
        return 0.0  # indistinguishable within the stored representation
    k = int(np.min(np.abs(mism + lo)))
    return 2.0 ** (-k)


def _weighted_distance(x: SymbolicPoint, y: SymbolicPoint, metric: WeightedL2Metric, window: int) -> float:
    lo = max(x.lo, y.lo, -window)
    hi = min(x.hi, y.hi, window)
    if not (lo <= 0 <= hi):
        raise WindowExhausted("known windows do not overlap around coordinate 0")
    xs = x.symbols[lo - x.lo : hi - x.lo + 1].astype(float)
    ys = y.symbols[lo - y.lo : hi - y.lo + 1].astype(float)
    idx = np.abs(np.arange(lo, hi + 1))
    kmax = int(idx.max())
    w = metric.weights.values(kmax)[idx]
    return math.sqrt(float(np.dot(w, (xs - ys) ** 2)))


def distance(sys: SystemDescriptor, x, y) -> float:
    """Metric of the system; symbolic distances are truncated to stored windows.

    For symbolic systems the stored window limits resolution: two points that
    agree on every stored coordinate report distance 0, and the truncation
    tail bound of the metric is available via ``weighted_tail_bound`` /
    ``resolution_floor``.
    """
    if isinstance(sys, (ToralAutomorphism, TorusTranslation)):
        return torus_displacement_norm(x.x - y.x, x.y - y.y)
    if isinstance(sys, FullShift):
        if isinstance(sys.metric, DyadicMetric):
            return _dyadic_distance(x, y)
        return _weighted_distance(x, y, sys.metric, sys.window)
    raise MixedSystems(f"unknown system kind {type(sys).__name__}")


def invert(sys: SystemDescriptor) -> SystemDescriptor:
    """The inverse system T^-1, as a descriptor of the same family."""
    if isinstance(sys, ToralAutomorphism):
        return ToralAutomorphism(sys.inverse_matrix)
    if isinstance(sys, TorusTranslation):
        return TorusTranslation((-sys.shift[0] % 1.0, -sys.shift[1] % 1.0))
    if isinstance(sys, FullShift):
        return FullShift(sys.alphabet_size, sys.metric, sys.window, not sys.inverted)
    raise MixedSystems(f"unknown system kind {type(sys).__name__}")


TORUS_RESOLUTION_FLOOR = 1e-14


def resolution_floor(sys: SystemDescriptor) -> float:
    """Smallest scale at which distances of the system are trustworthy."""
    if isinstance(sys, (ToralAutomorphism, TorusTranslation)):
        return TORUS_RESOLUTION_FLOOR
    if isinstance(sys, FullShift):
        if isinstance(sys.metric, DyadicMetric):
            return 2.0 ** (-sys.window)
        return 2.0 * weighted_tail_bound(sys.metric.weights, sys.window)
    raise MixedSystems(f"unknown system kind {type(sys).__name__}")


# ---------------------------------------------------------------------------
# weighted-metric tail bound (the Hilbert-space model of the divergence regime)
# ---------------------------------------------------------------------------


def weighted_tail_bound(weights: WeightSequence, radius: int) -> float:
    """Worst-case metric mass outside |n| <= radius for 0/1 symbol differences."""
    return math.sqrt(2.0 * weights.tail_sum(radius))


# ---------------------------------------------------------------------------
# scale -> coordinate depth on the full shift, one function per convention
# ---------------------------------------------------------------------------


def open_flip_depth(sys: FullShift, r: float) -> int:
    """Smallest depth k at which one flipped symbol sits at distance below r (open ball).

    Weighted depths stop at the window; dyadic depths are exact (``dyadic_open_depth``).
    """
    if isinstance(sys.metric, DyadicMetric):
        return dyadic_open_depth(r)
    weights = sys.metric.weights
    a = []  # a_0 .. a_{k-1}, each read once
    k = 1
    while k < sys.window:
        a.append(weights.a(k - 1))
        # weighted_tail_bound(weights, k - 1): tail_sum's prefix is fsum(a), and
        # fsum is correctly rounded, so the bound is the same
        bound = math.sqrt(2.0 * max(weights.total - math.fsum(a), 0.0))
        if bound < r:
            break
        k += 1
    return k


def dyadic_open_depth(r: float) -> int:
    """Least k with 2**-k < r (open ball), read from the binary exponent of r."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    # r = m * 2**e exactly, with 0.5 <= m < 1: 2**(e - 1) < r unless m = 0.5
    m, e = math.frexp(r)
    return 2 - e if m == 0.5 else 1 - e


def dyadic_depth(eps: float) -> int:
    """Smallest k >= 0 with 2**-k <= eps (closed ball), read from the binary exponent of eps."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"radius must be positive and finite, got {eps}")
    # eps = m * 2**e exactly, with 0.5 <= m < 1, so 2**(e - 1) <= eps < 2**e
    return max(0, 1 - math.frexp(eps)[1])


def cylinder_depth(weights: WeightSequence, alphabet: int, eps: float, limit: int) -> int:
    """Smallest k <= limit whose cylinder fixing |i| <= k has weighted diameter
    (alphabet - 1) * sqrt(2 * sum_{j > k} a_j) <= eps (two-sided); limit + 1 if none."""
    k = 0
    while k <= limit and (alphabet - 1) * math.sqrt(2.0 * weights.tail_sum(k)) > eps:
        k += 1
    return k


def one_sided_depth(weights: WeightSequence, alphabet: int, eps: float, limit: int) -> int:
    """Smallest m <= limit with (alphabet - 1) * sqrt(sum_{j >= m} a_j) <= eps, the most
    that changing coordinates >= m on one side moves a point; limit + 1 if none."""
    m = 0
    while m <= limit and (alphabet - 1) * math.sqrt(weights.tail_sum(m - 1)) > eps:
        m += 1
    return m


def operator_norm_curve(weights: WeightSequence, k: int, window: int) -> np.ndarray:
    """Grid values a_|n-k| / a_|n| for |n| <= window (square of the stretch per mode)."""
    ns = np.arange(-window, window + 1)
    vals = weights.values(int(np.abs(ns).max() + abs(k)))
    return vals[np.abs(ns - k)] / vals[np.abs(ns)]


def operator_norm_power(weights: WeightSequence, k: int, window: int = DEFAULT_WINDOW) -> float:
    """Operator norm of the k-step shift on the weighted little-l2 space.

    ||T^k|| = sup_n (a_|n-k| / a_|n|)^(1/2), evaluated on the grid |n| <= window.
    Raises ``WindowExhausted`` if the sup is attained on the grid boundary,
    which signals the window is too small for this k.
    """
    curve = operator_norm_curve(weights, k, window)
    arg = int(np.argmax(curve))
    if arg in (0, curve.size - 1) and k != 0:
        raise WindowExhausted(
            f"operator norm sup for k={k} attained at window boundary; enlarge window > {window}"
        )
    return math.sqrt(float(curve[arg]))
