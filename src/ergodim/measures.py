"""Measure oracles: exact cylinder measures and seeded samplers.

An oracle answers two kinds of question: "what is the measure of this
cylinder?" (exactly, for symbolic oracles) and "give me a typical point"
(seeded, reproducible).  Sampling uses a counter-based scheme: the generator
for sample point ``i`` is seeded from ``(master_seed, i)``, so serial and
parallel draws produce byte-identical streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtomBudgetExceeded,
    IncompatibleOracle,
    LengthMismatch,
    UnsupportedOracle,
    ZeroMassAtom,
)
from .systems import (
    FullShift,
    SymbolicPoint,
    SystemDescriptor,
    ToralAutomorphism,
    TorusPoint,
    TorusTranslation,
)

__all__ = [
    "MeasureOracle",
    "LebesgueTorus",
    "BernoulliIID",
    "MarkovStationary",
    "ConditionalShiftOracle",
    "stationary_distribution",
    "shannon_entropy",
    "transition_entropy",
    "entropy_rate",
    "marginal_entropy",
    "rng_for",
    "child_rngs",
    "uniform_symbols",
    "sample_point",
    "sample_points",
    "fixed_coords_measure",
    "word_distribution",
    "sample_symbol_block",
    "ATOM_BUDGET",
]

# Hard cap on exact enumerations: number of joint atoms a computation may touch.
ATOM_BUDGET = 1 << 24


def rng_for(master_seed: int, *tags: int) -> np.random.Generator:
    """Deterministic child generator for (master_seed, tag, tag, ...)."""
    entropy = [int(master_seed)] + [int(t) for t in tags]
    if any(e < 0 for e in entropy):
        raise ValueError("seeds and tags must be nonnegative integers")
    return np.random.default_rng(entropy)


# indices hashed per vector pass of ``child_rngs``: enough to amortize numpy's
# per-call cost, few enough that its arrays and the Python ints it hands on
# per chunk stay small, so peak memory does not grow with the point count
_CHILD_CHUNK = 128

# numpy's SeedSequence constants (pool of 4 uint32 words) and PCG64's multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list:
    """SeedSequence's little-endian 32-bit words of a nonnegative int (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, calls: int):
    """(xor, mult) columns of SeedSequence's hash for ``calls`` calls in a row.

    Call k XORs with c_k and multiplies by c_{k+1}, where c_0 = init and
    c_{k+1} = c_k * mult mod 2**32.
    """
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _MASK32)
    col = np.array(c, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


def _hashmix(values, xor, mult):
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy[:, j]).generate_state(4, uint64)`` for every column j.

    ``entropy`` is (words, n) uint32; returns (4, n) uint64.  Each hash step
    runs in wrapping uint32 arithmetic on whole rows: the steps of one
    SeedSequence that read the same pool word are done as one (rows, n) op.
    """
    extra = max(len(entropy) - 4, 0)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra)
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: min(len(entropy), 4)] = entropy[:4]
    pool = _hashmix(pool, xor[:4], mult[:4])
    call = 4
    for src in range(4):
        # mixing pool[src] into the other three leaves pool[src] itself unchanged
        dst = [d for d in range(4) if d != src]
        mixed = _hashmix(pool[src], xor[call : call + 3], mult[call : call + 3])
        pool[dst] = _mix(pool[dst], mixed)
        call += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, xor[call : call + 4], mult[call : call + 4]))
        call += 4
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)  # little-endian word pairs


def child_rngs(master_seed: int, *tags: int, start: int, stop: int):
    """Iterator over the generators ``rng_for(master_seed, *tags, i)`` for i in [start, stop).

    The SeedSequence hash runs as uint32 array arithmetic over chunks of
    indices and PCG64's seeding step in Python ints; every step re-seeds one
    ``Generator`` that the iterator owns, so a yielded generator is valid only
    until the next one is drawn.  Its stream is bit for bit that of
    ``np.random.default_rng([master_seed, *tags, i])``.  Indices stay below
    2**32, so the index is always the last single entropy word.
    """
    prefix = [int(master_seed)] + [int(t) for t in tags]
    if any(e < 0 for e in prefix) or start < 0:
        raise ValueError("seeds, tags and indices must be nonnegative integers")
    if stop > _MASK32 + 1:
        raise ValueError("child indices must be below 2**32")
    return _reseeded([w for e in prefix for w in _uint32_words(e)], start, stop)


def _reseeded(words: list, start: int, stop: int):
    """``child_rngs`` past its checks: ``words`` are the prefix's uint32 entropy words."""
    bit_gen = np.random.PCG64(0)  # any seed: every yield overwrites the state
    rng = np.random.Generator(bit_gen)
    pcg = {"state": 0, "inc": 1}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    entropy = np.empty((len(words) + 1, _CHILD_CHUNK), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    for lo in range(start, stop, _CHILD_CHUNK):
        n = min(_CHILD_CHUNK, stop - lo)
        entropy[-1, :n] = np.arange(lo, lo + n, dtype=np.uint32)
        for v0, v1, v2, v3 in zip(*_pcg64_seed_words(entropy[:, :n]).tolist()):
            # PCG64 takes words 0:1 as the initial state and 2:3 as the sequence
            # (high word first); srandom sets inc = 2 seq + 1 and
            # state = (inc + initial) * MULT + inc, all mod 2**128
            pcg["inc"] = inc = (v2 << 64 | v3) << 1 & _MASK128 | 1
            pcg["state"] = ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _MASK128
            bit_gen.state = state  # also clears the buffered uint32
            yield rng


def _next_uint32(bit_gen: np.random.PCG64, count: int) -> np.ndarray:
    """The next ``count`` words of PCG64's ``next_uint32`` stream, as little-endian uint32.

    next_uint32 returns a buffered high half if it holds one, else the low
    half of a fresh 64-bit output, buffering its high half.  Here the fresh
    outputs come from one ``random_raw`` draw, and the buffer fields are set
    as the word-by-word calls would leave them.
    """
    state = bit_gen.state
    head = [state["uinteger"]] if state["has_uint32"] else []
    raw = bit_gen.random_raw(max(count - len(head) + 1, 0) // 2)
    words = np.concatenate([np.array(head, dtype="<u4"), raw.astype("<u8", copy=False).view("<u4")])
    if raw.size:
        state["state"] = bit_gen.state["state"]
        state["uinteger"] = int(words[-1])  # the last high half, read or not
    state["has_uint32"] = int(words.size > count)
    bit_gen.state = state
    return words[:count]


def uniform_symbols(rng: np.random.Generator, alphabet: int, shape) -> np.ndarray:
    """``rng.integers(0, alphabet, size=shape, dtype=np.int8)``, drawn from whole words.

    ``rng`` runs on PCG64, as every generator of ``rng_for`` and
    ``child_rngs`` does.  numpy draws each int8 by Lemire's method from one
    byte of a buffered 32-bit word (low byte first, a fresh word per call):
    byte b gives m = b * alphabet, is rejected when m mod 256 < 256 mod
    alphabet, and else yields m >> 8.  Here the words come in one batch of
    the same ``next_uint32`` stream and the bytes are scaled and filtered as
    arrays.  Each accepted symbol takes at least one byte, so a refill of
    ceil(missing / 4) words never draws past what numpy draws: the symbols
    and the generator's state afterwards are bit for bit numpy's.
    """
    if not 2 <= alphabet <= 127:
        raise ValueError("alphabet must lie in 2..127 for int8 symbols")
    out = np.empty(shape, dtype=np.int8)
    flat = out.reshape(-1)
    threshold = 256 % alphabet
    filled = 0
    while filled < out.size:
        words = _next_uint32(rng.bit_generator, -(-(out.size - filled) // 4))
        m = np.multiply(words.view(np.uint8), alphabet, dtype=np.uint16)
        if threshold:
            m = m[(m & 0xFF) >= threshold]
        take = min(m.size, out.size - filled)
        flat[filled : filled + take] = m[:take] >> 8
        filled += take
    return out


class MeasureOracle:
    """Marker base class for measure oracles."""


@dataclass(frozen=True)
class LebesgueTorus(MeasureOracle):
    """Normalized Lebesgue measure on the 2-torus."""


@dataclass(frozen=True, eq=False)
class BernoulliIID(MeasureOracle):
    """Product measure on the full shift with iid symbol distribution ``probs``."""

    probs: tuple = (0.5, 0.5)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2 or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be a distribution over >= 2 symbols")

    @property
    def p(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class MarkovStationary(MeasureOracle):
    """Stationary two-sided Markov measure with transition matrix ``transitions``.

    The stationary vector is computed from the transition matrix unless given,
    and stationarity pi P = pi is validated to 1e-12 either way.
    """

    transitions: tuple = ((0.9, 0.1), (0.5, 0.5))
    pi: tuple | None = None

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise ValueError("transitions must be a square matrix of size >= 2")
        if np.any(P < 0.0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must be distributions")
        pi = stationary_distribution(P) if self.pi is None else np.asarray(self.pi, dtype=float)
        if np.max(np.abs(pi @ P - pi)) > 1e-12:
            raise ValueError("pi is not stationary for the transition matrix")
        object.__setattr__(self, "pi", tuple(float(v) for v in pi))

    @property
    def P(self) -> np.ndarray:
        return np.asarray(self.transitions, dtype=float)

    @property
    def pi_vec(self) -> np.ndarray:
        return np.asarray(self.pi, dtype=float)

    @property
    def alphabet_size(self) -> int:
        return len(self.transitions)

    def backward(self) -> np.ndarray:
        """Backward transition kernel B[j, i] = pi_i P_ij / pi_j (rows for pi_j > 0)."""
        P = self.P
        pi = self.pi_vec
        B = np.zeros_like(P)
        for j in range(P.shape[0]):
            if pi[j] > 0.0:
                B[j, :] = pi * P[:, j] / pi[j]
        return B

    def power(self, d: int) -> np.ndarray:
        return np.linalg.matrix_power(self.P, int(d))


@dataclass(frozen=True, eq=False)
class ConditionalShiftOracle(MeasureOracle):
    """A shift oracle conditioned on fixing a contiguous block of coordinates.

    ``fixed`` maps coordinate index -> symbol over a contiguous index block.
    Measures are ratios mu(fixed and query) / mu(fixed) of the base oracle.
    """

    base: MeasureOracle
    fixed: dict

    def __post_init__(self):
        idx = sorted(self.fixed)
        if not idx:
            raise ValueError("fixed block must be nonempty")
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise ValueError("fixed coordinates must form a contiguous block")
        base_mass = fixed_coords_measure(self.base, idx, [self.fixed[i] for i in idx])
        if base_mass <= 0.0:
            raise ZeroMassAtom("conditioning block has measure zero")
        object.__setattr__(self, "_block_mass", base_mass)

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    @property
    def block(self) -> tuple[int, int]:
        idx = sorted(self.fixed)
        return idx[0], idx[-1]


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix via the unit left eigenvector."""
    vals, vecs = np.linalg.eig(np.asarray(P, dtype=float).T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, i])
    v = np.abs(v)
    return v / v.sum()


def shannon_entropy(p: np.ndarray) -> float:
    """-sum p log p over the positive entries of a probability vector, in nats."""
    pos = p[p > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def transition_entropy(pi: np.ndarray, P: np.ndarray) -> float:
    """-sum_i pi_i sum_j P_ij log P_ij: the entropy of one step of kernel P from law pi."""
    mask = P > 0.0
    terms = np.where(mask, P * np.log(np.where(mask, P, 1.0)), 0.0)
    return float(-(pi[:, None] * terms).sum())


def entropy_rate(oracle: MeasureOracle) -> float:
    """Closed-form entropy rate (nats per step) of a symbolic oracle."""
    if isinstance(oracle, BernoulliIID):
        return shannon_entropy(oracle.p)
    if isinstance(oracle, MarkovStationary):
        return transition_entropy(oracle.pi_vec, oracle.P)
    if isinstance(oracle, ConditionalShiftOracle):
        return entropy_rate(oracle.base)
    raise UnsupportedOracle(f"no closed-form entropy rate for {type(oracle).__name__}")


def marginal_entropy(oracle: MeasureOracle) -> float:
    """Entropy of the single-coordinate marginal."""
    if isinstance(oracle, BernoulliIID):
        return entropy_rate(oracle)
    if isinstance(oracle, MarkovStationary):
        return shannon_entropy(oracle.pi_vec)
    raise UnsupportedOracle(f"no marginal entropy for {type(oracle).__name__}")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _markov_walk(cum: np.ndarray, state: int, u: np.ndarray) -> list:
    """States of a chain run from ``state``, one step per uniform in ``u``.

    Step t moves to ``searchsorted(cum[state], u[t], side="right")``, exactly
    the per-step categorical draw, read from one next-state table per state
    (one vector ``searchsorted`` per row of ``cum``).
    """
    tables = [np.searchsorted(row, u, side="right").tolist() for row in cum]
    path = [0] * len(u)
    for t in range(len(u)):
        path[t] = state = tables[state][t]
    return path


def _walk_outward(chain: MarkovStationary, out: np.ndarray, lo: int, hi: int, u) -> np.ndarray:
    """Fill ``out`` right of position hi by the chain and left of lo by its backward kernel.

    Each walk starts from the state already stored at hi (lo); ``u`` holds the
    uniforms of positions hi+1, hi+2, ... and then lo-1, lo-2, ..., 0.
    """
    ahead = len(out) - 1 - hi
    out[hi + 1 :] = _markov_walk(np.cumsum(chain.P, axis=1), int(out[hi]), u[:ahead])
    out[:lo] = _markov_walk(np.cumsum(chain.backward(), axis=1), int(out[lo]), u[ahead:])[::-1]
    return out


def _sample_markov_window(oracle: MarkovStationary, window: int, rng) -> np.ndarray:
    """Window -N..N of a stationary two-sided chain: forward from 0, backward kernel below.

    Uniforms are drawn in one block, in coordinate order 0, 1..N, -1..-N.
    """
    u = rng.random(2 * window + 1)
    out = np.empty(2 * window + 1, dtype=np.int8)
    out[window] = np.searchsorted(np.cumsum(oracle.pi_vec), u[0], side="right")
    return _walk_outward(oracle, out, window, window, u[1:])


def _sample_shift_window(sys: FullShift, oracle: MeasureOracle, rng) -> np.ndarray:
    N = sys.window
    if isinstance(oracle, (BernoulliIID, MarkovStationary)) and oracle.alphabet_size != sys.alphabet_size:
        raise IncompatibleOracle("oracle alphabet does not match system alphabet")
    if isinstance(oracle, BernoulliIID):
        return rng.choice(oracle.alphabet_size, size=2 * N + 1, p=oracle.p).astype(np.int8)
    if isinstance(oracle, MarkovStationary):
        return _sample_markov_window(oracle, N, rng)
    if isinstance(oracle, ConditionalShiftOracle):
        return _sample_conditional_window(sys, oracle, rng)
    raise IncompatibleOracle(f"{type(oracle).__name__} cannot sample a full shift")


def _sample_conditional_window(sys: FullShift, oracle: ConditionalShiftOracle, rng) -> np.ndarray:
    N = sys.window
    lo_f, hi_f = oracle.block
    if lo_f < -N or hi_f > N:
        raise IncompatibleOracle("conditioning block exceeds the system window")
    base = oracle.base
    if isinstance(base, BernoulliIID):
        out = _sample_shift_window(sys, base, rng)  # iid: the block only overwrites its coordinates
    elif isinstance(base, MarkovStationary):
        out = np.empty(2 * N + 1, dtype=np.int8)
    else:
        raise IncompatibleOracle(f"cannot sample conditional of {type(base).__name__}")
    for i in range(lo_f, hi_f + 1):
        out[i + N] = oracle.fixed[i]
    if isinstance(base, MarkovStationary):
        # the chain runs outward from the block's two ends: uniforms for
        # coordinates hi_f+1..N first, then lo_f-1..-N
        _walk_outward(base, out, lo_f + N, hi_f + N, rng.random(2 * N - hi_f + lo_f))
    return out


def sample_point(
    sys: SystemDescriptor, oracle: MeasureOracle, master_seed: int, point_index: int = 0, rng=None
):
    """A typical point of the system, seeded per (master_seed, point_index).

    A caller that already holds that point's generator (``child_rngs``) passes
    it as ``rng``.
    """
    if rng is None:
        rng = rng_for(master_seed, point_index)
    if isinstance(sys, (ToralAutomorphism, TorusTranslation)):
        if not isinstance(oracle, LebesgueTorus):
            raise IncompatibleOracle(f"{type(oracle).__name__} cannot sample the torus")
        xy = rng.random(2)
        return TorusPoint(float(xy[0]), float(xy[1]))
    if isinstance(sys, FullShift):
        return SymbolicPoint(_sample_shift_window(sys, oracle, rng), -sys.window)
    raise IncompatibleOracle(f"unknown system kind {type(sys).__name__}")


def sample_points(sys, oracle, master_seed: int, count: int) -> list:
    rngs = child_rngs(master_seed, start=0, stop=count)
    return [sample_point(sys, oracle, master_seed, i, rng=rng) for i, rng in enumerate(rngs)]


# ---------------------------------------------------------------------------
# exact cylinder measures
# ---------------------------------------------------------------------------


def _constraints(oracle: MeasureOracle, indices, symbols):
    """(indices, symbols) sorted by index with repeated indices merged.

    Returns None when one index is fixed to two different symbols (a
    measure-zero constraint).  Symbols must lie in the oracle's alphabet.
    """
    idx = [int(i) for i in indices]
    syms = [int(s) for s in symbols]
    if len(idx) != len(syms):
        raise LengthMismatch(f"{len(idx)} indices vs {len(syms)} symbols")
    alphabet = getattr(oracle, "alphabet_size", None)
    if alphabet is not None and syms and (min(syms) < 0 or max(syms) >= alphabet):
        raise ValueError("symbol outside the oracle alphabet")
    fixed = {}
    for i, s in zip(idx, syms):
        if fixed.setdefault(i, s) != s:
            return None
    order = sorted(fixed)
    return order, [fixed[i] for i in order]


def fixed_coords_measure(oracle: MeasureOracle, indices, symbols) -> float:
    """Measure of {x : x_i = s_i for each fixed coordinate}."""
    constraints = _constraints(oracle, indices, symbols)
    if constraints is None:
        return 0.0
    idx, syms = constraints
    if not idx:
        return 1.0
    if isinstance(oracle, BernoulliIID):
        return float(np.prod(oracle.p[syms]))
    if isinstance(oracle, MarkovStationary):
        m = oracle.pi_vec[syms[0]]
        for j in range(len(idx) - 1):
            gap = idx[j + 1] - idx[j]
            m *= oracle.power(gap)[syms[j], syms[j + 1]]
        return float(m)
    if isinstance(oracle, ConditionalShiftOracle):
        joint = fixed_coords_measure(oracle.base, [*oracle.fixed, *idx], [*oracle.fixed.values(), *syms])
        return joint / oracle._block_mass
    raise UnsupportedOracle(f"{type(oracle).__name__} has no exact cylinder measures")


def fixed_coords_log_measure(oracle: MeasureOracle, indices, symbols) -> float:
    """log mu{x : x_i = s_i}, computed in log space (safe for very long words).

    Returns -inf for measure-zero constraints.
    """
    constraints = _constraints(oracle, indices, symbols)
    if constraints is None:
        return -math.inf
    idx, syms = constraints
    if not idx:
        return 0.0
    if isinstance(oracle, BernoulliIID):
        p = oracle.p
        chosen = p[syms]
        if np.any(chosen <= 0.0):
            return -math.inf
        return float(np.sum(np.log(chosen)))
    if isinstance(oracle, MarkovStationary):
        start = oracle.pi_vec[syms[0]]
        if start <= 0.0:
            return -math.inf
        total = math.log(start)
        P = oracle.P
        for j in range(len(idx) - 1):
            gap = idx[j + 1] - idx[j]
            entry = P[syms[j], syms[j + 1]] if gap == 1 else oracle.power(gap)[syms[j], syms[j + 1]]
            if entry <= 0.0:
                return -math.inf
            total += math.log(entry)
        return total
    if isinstance(oracle, ConditionalShiftOracle):
        joint = fixed_coords_log_measure(oracle.base, [*oracle.fixed, *idx], [*oracle.fixed.values(), *syms])
        return joint - math.log(oracle._block_mass)
    raise UnsupportedOracle(f"{type(oracle).__name__} has no exact cylinder measures")


def word_distribution(oracle: MeasureOracle, indices, budget: int = ATOM_BUDGET) -> np.ndarray:
    """Probabilities of all symbol words on ``indices`` (sorted, distinct).

    The result is a vector of length alphabet**len(indices) in mixed-radix
    order: the first index is the most significant digit.
    """
    idx = sorted(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    if not isinstance(oracle, (BernoulliIID, MarkovStationary)):
        raise UnsupportedOracle(f"{type(oracle).__name__} has no word distributions")
    a = oracle.alphabet_size
    count = a ** len(idx)
    if count > budget:
        raise AtomBudgetExceeded(f"{count} atoms exceed the budget of {budget}")

    if isinstance(oracle, BernoulliIID):
        probs = np.ones(1)
        for _ in idx:
            probs = np.multiply.outer(probs, oracle.p).ravel()
        return probs
    probs = oracle.pi_vec.copy()
    for j in range(len(idx) - 1):
        gap = idx[j + 1] - idx[j]
        Pg = oracle.power(gap)
        last = np.arange(probs.size) % a  # least significant digit = latest coordinate
        probs = (probs[:, None] * Pg[last, :]).ravel()
    return probs


def sample_symbol_block(oracle: MeasureOracle, length: int, count: int, rng, after=None) -> np.ndarray:
    """``count`` independent words of ``length`` consecutive symbols, as an array; a Markov
    word starts from pi, or from the transition row of ``after``, the symbol before it."""
    if isinstance(oracle, BernoulliIID):
        return rng.choice(oracle.alphabet_size, size=(count, length), p=oracle.p).astype(np.int8)
    if isinstance(oracle, MarkovStationary):
        # a symbol counts the cumulative columns at or below its uniform; the
        # last column is the row sum, 1, and a uniform at or above it (possible
        # only where the sum rounds below 1) would name no symbol, so it is dropped
        cum_f = np.cumsum(oracle.P, axis=1)[:, :-1]
        first = np.cumsum(oracle.pi_vec)[:-1] if after is None else cum_f[after]
        u = rng.random((count, length))
        out = np.empty((count, length), dtype=np.int8)
        out[:, 0] = (u[:, 0:1] >= first).sum(axis=1)
        steps = length - 1
        if steps > 0:
            table = _next_symbol_table(cum_f, u[:, 1:], math.isqrt(steps - 1) + 1)
            del u  # the walk reads only the table
            out[:, 1:] = _blocked_walk(table, out[:, 0])[:, :steps]
        return out
    raise UnsupportedOracle(f"{type(oracle).__name__} cannot sample symbol blocks")


def _next_symbol_table(cum: np.ndarray, u: np.ndarray, size: int) -> np.ndarray:
    """table[i, s, p, j]: the symbol after state s at step j * size + i of row p of ``u``.

    Each entry adds up ``u >= cum[s, c]`` one column c at a time, the per-step
    categorical draw itself; steps past the end of ``u`` read symbol 0.
    """
    count, steps = u.shape
    blocks = -(-steps // size)
    table = np.empty((size, len(cum), count, blocks), dtype=np.int8)
    nxt = np.empty((count, blocks * size), dtype=np.int8)
    for s, row in enumerate(cum):
        nxt[:] = 0
        for c in row:
            nxt[:, :steps] += u >= c
        table[:, s] = nxt.reshape(count, blocks, size).transpose(2, 0, 1)
    return table


def _blocked_walk(table: np.ndarray, start: np.ndarray) -> np.ndarray:
    """walked[p, t]: the symbol at step t of row p, walked through ``_next_symbol_table``.

    Row p starts from ``start[p]``.  Pass 1 runs every block of steps from every
    entry state at once, pass 2 chains the blocks' exits in order, which fixes
    each block's entry state, and pass 3 walks each block once more from it.
    Every step is one flat gather from the table's contiguous (state, row, block)
    slice, so the Python loops run over the ~sqrt(L) steps of a block and the
    ~sqrt(L) blocks, not over the L steps.
    """
    size, a, count, blocks = table.shape
    stride = np.intp(count * blocks)  # flat offset of state s's slice is s * stride
    flat = table.reshape(size, a * stride)
    cells = np.arange(stride)  # p * blocks + j

    def walk(states, cells, record=None):
        for i, step in enumerate(flat):
            states = step[states * stride + cells]
            if record is not None:
                record[:, :, i] = states.reshape(count, blocks)
        return states

    exits = walk(np.repeat(np.arange(a, dtype=np.int8), stride), np.tile(cells, a))
    entry = np.empty((count, blocks), dtype=np.int8)
    state, rows = start, cells[::blocks]
    for j in range(blocks):
        entry[:, j] = state
        state = exits[state * stride + rows + j]
    walked = np.empty((count, blocks, size), dtype=np.int8)
    walk(entry.ravel(), cells, walked)
    return walked.reshape(count, blocks * size)
