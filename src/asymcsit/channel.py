"""Random channel states, transmitter-side estimates and precoder bases.

Per slot, each user's 2x1 channel is i.i.d. circularly-symmetric complex
Gaussian with unit per-component variance.  The transmitter predicts the
current channel with an additive error whose total variance is
sigma_k^2 = P**(-alpha_k); estimate and error are drawn independently with
variances summing to the unit-covariance total, so E[h h^H] = I at every P.

The zero-forcing precoder basis for a user is the unit vector along the
other user's estimate together with its orthogonal complement.  The key
scaling these draws must reproduce: |h^H orth(h_est)|^2 averages to
sigma_1^2 / 2, i.e. it decays as P**(-alpha1).

The draw layout.  A draw's standard normals have the shape _row gives:
per trial 16 of them, as (user h, then g; the estimate, then the error;
the real part, then the imaginary part), each a block of shape
`(size, 2)`.  One standard_normal call fills them in that order, which is
the order eight separate `(size, 2)` calls would draw, so a stream gives
the same channels however it is batched.

Streams.  The grid pass draws every slot's channels at every grid point
from one stream per (grid point, slot): the generator of
default_rng(SeedSequence([seed, _TAG_CHANNEL, _db_key(point's dB), slot
index])), whose row of n trials is _row(n).  So results are reproducible
for a given (seed, trial count, grid) however the work is ordered, and
schemes compared on one grid read the same channels.  The pass seeds all
of its streams at once, in two steps of array operations over the whole
table: SeedSequence's hash as uint32 operations (_seed_words), then
PCG64's seeding as uint64 ones (_pcg_states).  That gives each stream's
start, its 128-bit state and increment, 32 B laid out as the generator
holds them in memory.  The order of those four 64-bit words is read once
per process (_word_order), and a layout other than the four halves in
some order is refused.

Reseeds.  A thread that draws keeps one PCG64 and reseeds it right before
it fills a stream's row, by copying the stream's 32 B into the
generator's state memory (_state_memory, _draw): exactly the draws of
default_rng(SeedSequence(key)), at a fraction of its cost per stream, and
never through numpy's state setter.  Rows are taken from a deque of
positions, so each row is filled once, by one thread, from its own
stream, and the draws do not depend on which thread fills it or on thread
timing.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .geometry import CsitQuality

__all__ = [
    "SnrPoint",
    "ChannelRealization",
    "sample_channel",
    "orth_complement",
    "unit",
]

_TAG_CHANNEL = 1  # a channel stream key's second word

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding, which
# _seed_words and _pcg_states reproduce exactly
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # the 128-bit LCG multiplier's halves
# a PCG64's state and increment as ctypes sees them.  ctypes caches an
# array type only weakly, and only the cyclic garbage collector frees a
# type, so `c_uint64 * 4` written in _state_memory would make a new type
# after each collection and leave it as cyclic garbage; held here, a pass
# leaves none
_STATE_WORDS = ctypes.c_uint64 * 4


@dataclass(frozen=True)
class SnrPoint:
    """Transmit power P (linear, > 1) plus the CSIT quality it scales."""

    p: float
    quality: CsitQuality

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"transmit power must be finite and > 1, got {self.p}")

    @classmethod
    def from_db(cls, p_db: float, quality: CsitQuality) -> "SnrPoint":
        """dB convention: P = 10**(p_db / 10)."""
        return cls(10.0 ** (p_db / 10.0), quality)

    @property
    def p_db(self) -> float:
        return 10.0 * math.log10(self.p)

    @property
    def log2p(self) -> float:
        return math.log2(self.p)

    def sigma_sq(self, user: int) -> float:
        """Estimation-error variance P**(-alpha_user) for user 1 or 2."""
        alpha = {1: self.quality.alpha1, 2: self.quality.alpha2}[user]
        return self.p ** (-alpha)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One slot's true channels, estimates and errors for both users.

    Fields are complex arrays with trailing axis 2; a leading axis batches
    independent trials.  h_true == h_est + h_err holds exactly (bitwise) by
    construction, and likewise for g.
    """

    h_true: np.ndarray
    g_true: np.ndarray
    h_est: np.ndarray
    g_est: np.ndarray
    h_err: np.ndarray
    g_err: np.ndarray


_FIELDS = tuple(f.name for f in fields(ChannelRealization))
_LAYOUT = (2, 2, 2)  # a draw's axes before the channel's: (user, estimate or error, real or imaginary part)


def _row(size: int | None) -> tuple[int, ...]:
    """The shape of a draw's normals: of one trial without a trial axis
    (size None), or of a stream's row of size trials."""
    return _LAYOUT + ((2,) if size is None else (size, 2))


def sample_channel(snr: SnrPoint | Sequence[SnrPoint], rng: np.random.Generator | np.ndarray,
                   size: int | None = None, out: ChannelRealization | None = None) -> ChannelRealization:
    """Draw one slot's channels (optionally a batch of `size` trials).

    Per user k: the error vector is CSCG with total variance P**(-alpha_k)
    (per component half of that), independent of the estimate, whose
    per-component variance tops the total back up to 1.  The normals are
    drawn in the order the module docstring states.

    snr is one SnrPoint, or a sequence of G of them (a power grid); a grid
    draws once per point and puts the point axis before the trial axis.
    Each point's scale is then a column broadcast over its trials, so every
    value equals the one-point call's.

    rng is a Generator, or the normals already drawn from one: the float64
    array of shape `lead + _row(size)`, which may be a view into a larger
    buffer.  lead is `()` for one point; for a grid it ends in G, and any
    axes before that batch more draws (say, one per slot).  A Generator
    draws a grid's points in order, as G one-point calls would.  Any other
    shape or dtype raises ValueError.  This lets a caller draw on another
    thread and scale here.

    With out, the draw is written into out's arrays (complex128, each of
    shape `lead + (2,)` or `lead + (size, 2)`, which may be views into
    larger arrays) and out is returned; its values equal those of a call
    without out.
    """
    row = _row(size)
    shape = row[len(_LAYOUT):]
    grid = not isinstance(snr, SnrPoint)
    points = tuple(snr) if grid else (snr,)
    if isinstance(rng, np.ndarray):
        lead = rng.shape[:max(0, rng.ndim - len(row))]
        if (rng.shape[len(lead):] != row or rng.dtype != np.float64
                or (lead[-1:] != (len(points),) if grid else lead)):
            want = ("(..., G)" if grid else "()") + f" + {row}"
            raise ValueError(f"normals must be float64 of shape {want}, got {rng.dtype} of shape {rng.shape}")
        normals = rng
    else:
        lead = (len(points),) if grid else ()
        normals = rng.standard_normal(lead + row)
    if out is None:
        out = ChannelRealization(**{f: np.empty(lead + shape, complex) for f in _FIELDS})
    elif any(getattr(out, f).shape != lead + shape or getattr(out, f).dtype != complex for f in _FIELDS):
        raise ValueError(f"out arrays must be complex128 of shape {lead + shape}")
    normals = np.moveaxis(normals, range(len(lead), len(lead) + len(_LAYOUT)), range(len(_LAYOUT)))
    column = (len(points),) + (1,) * len(shape)  # one scale per grid point, over its trials
    for z, user, est, err, true in ((normals[0], 1, out.h_est, out.h_err, out.h_true),
                                    (normals[1], 2, out.g_est, out.g_err, out.g_true)):
        err_comp_var = [p.sigma_sq(user) / 2.0 for p in points]
        for (re, im), comp_var, field in ((z[0], [1.0 - v for v in err_comp_var], est), (z[1], err_comp_var, err)):
            scales = [math.sqrt(v / 2.0) for v in comp_var]
            scale = np.array(scales).reshape(column) if grid else scales[0]
            np.multiply(re, scale, out=field.real)
            np.multiply(im, scale, out=field.imag)
        np.add(est, err, out=true)
    return out


def _db_key(p_db: float) -> int:
    """A grid point's stream key: its power rounded to 0.001 dB."""
    return int(round(p_db * 1000.0))


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    n = operator.index(n)  # numpy integers too, floats refused
    if n < 0:
        raise ValueError(f"stream keys must be >= 0, got {n}")
    return [n] if n <= _MASK32 else [n & _MASK32] + _words(n >> 32)


def _hash_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mix and generate_state(4, np.uint64), one stream
    per entry of entropy's leading axes, whose last axis holds the stream's
    uint32 words.

    The hash constants advance the same way whatever the data, so each step
    is one uint32 array operation over all streams, wrapping as the scalar
    code does.
    """
    *lead, width = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x, y):  # in place on x and y
        x *= np.uint32(_MIX_L)
        y *= np.uint32(_MIX_R)
        x -= y
        x ^= x >> np.uint32(16)
        return x

    words = [entropy[..., j] for j in range(width)] + [np.zeros(lead, np.uint32)] * (_POOL - width)
    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    hash_const = _INIT_B
    state = np.empty((*lead, 2 * _POOL), np.uint32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[..., i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _seed_words(seed: int, p_keys: list[int], slots: list[int]) -> np.ndarray:
    """Entry [s, k] is SeedSequence([seed, _TAG_CHANNEL, p_keys[k],
    slots[s]]).generate_state(4, np.uint64): the words default_rng's PCG64
    seeds that (grid point, slot) stream from.

    The entropy rows are built as arrays, and all streams whose keys take
    the same number of words are hashed together.
    """
    head = _words(seed) + [_TAG_CHANNEL]
    point_words = [_words(k) for k in p_keys]
    slot_words = [_words(s) for s in slots]
    out = np.empty((len(slots), len(p_keys), _POOL), np.uint64)
    for point_width in {len(w) for w in point_words}:
        cols = [k for k, w in enumerate(point_words) if len(w) == point_width]
        for slot_width in {len(w) for w in slot_words}:
            rows = [s for s, w in enumerate(slot_words) if len(w) == slot_width]
            entropy = np.empty((len(rows), len(cols), len(head) + point_width + slot_width), np.uint32)
            entropy[..., :len(head)] = head
            entropy[..., len(head):len(head) + point_width] = [point_words[k] for k in cols]
            entropy[..., len(head) + point_width:] = np.array([slot_words[s] for s in rows])[:, None, :]
            out[np.ix_(rows, cols)] = _hash_pool(entropy)
    return out


def _mul64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products of the uint64 array a and the 64-bit constant b,
    as their (high, low) uint64 halves: 32-bit limbs, whose products are
    exact in uint64, with the carries added explicitly."""
    shift, mask = np.uint64(32), np.uint64(_MASK32)
    a1, a0 = a >> shift, a & mask
    b1, b0 = np.uint64(b >> 32), np.uint64(b & _MASK32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> shift) + (p01 & mask) + (p10 & mask)  # below 3 * 2**32
    return p11 + (p01 >> shift) + (p10 >> shift) + (mid >> shift), mid << shift | p00 & mask


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(a + b) mod 2**128 for (high, low) pairs of uint64 arrays, which wrap
    mod 2**64: the low half's carry goes into the high half.

    The carry is the top bit of the low halves' 65-bit sum, taken with the
    shifts, ands and adds that the rest of the arithmetic runs too: a
    comparison, and adding its bools, would run numpy loops that no other
    step of a pass runs, whose code adds about 0.2 MB to the resident set.
    """
    one = np.uint64(1)
    carry = ((a[1] >> one) + (b[1] >> one) + (a[1] & b[1] & one)) >> np.uint64(63)
    return a[0] + b[0] + carry, a[1] + b[1]


def _pcg_states(words: np.ndarray) -> np.ndarray:
    """The PCG64 state that each stream starts at, from its four seed words
    (the last axis of words, as _seed_words gives them), laid out as
    _state_memory holds it: its four uint64 words in _word_order.

    This is pcg64_set_seed, which default_rng runs on those words: seed and
    initseq are the 128-bit numbers (words 0, 1) and (words 2, 3), high
    half first; inc = 2 initseq + 1, and two steps of the LCG from state 0
    give state = (seed + inc) * multiplier + inc, mod 2**128.  Each step is
    a uint64 array operation over the whole table.
    """
    s_hi, s_lo, i_hi, i_lo = (words[..., j] for j in range(_POOL))
    one = np.uint64(1)
    inc = (i_hi << one | i_lo >> np.uint64(63), i_lo << one | one)
    t_hi, t_lo = _add128((s_hi, s_lo), inc)
    hi, lo = _mul64(t_lo, _PCG_MULT_LO)
    # the products that reach the high half only, each wrapping mod 2**64
    hi += t_hi * np.uint64(_PCG_MULT_LO) + t_lo * np.uint64(_PCG_MULT_HI)
    out = np.empty_like(words)
    for at, half in zip(_word_order(), _add128((hi, lo), inc) + inc):
        out[..., at] = half
    return out


def _state_memory(bit_generator: np.random.PCG64) -> memoryview:
    """The 32 bytes that hold a PCG64's state and increment, as a writable
    memoryview.  numpy's bit_generator.ctypes.state_address points at the
    generator's pcg64_state, whose first field points at those bytes; its
    has_uint32 and uinteger are not in them.  The view does not keep the
    generator alive: its caller does."""
    at = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return memoryview(_STATE_WORDS.from_address(at)).cast("B")


@functools.cache
def _word_order() -> tuple[int, ...]:
    """Where _state_memory keeps the state's high and low halves and the
    increment's: entry j is the position, among its four uint64 words, of
    (state high, state low, inc high, inc low)[j].

    numpy's 128-bit type is the compiler's own integer where there is one
    and a (high, low) pair of words where there is not, so the order is
    read off once per process, the first time _pcg_states needs it: a probe
    PCG64's state is set through numpy's state setter to four distinct
    halves, and its memory is read back.  Any other content than those four
    halves, in some order, is refused.
    """
    # 32 distinct bytes, so that a word or byte out of place shows; inc is odd
    halves = (0x0001020304050607, 0x08090A0B0C0D0E0F, 0x1011121314151617, 0x18191A1B1C1D1E1F)
    probe = np.random.PCG64(0)
    probe.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                   "state": {"state": halves[0] << 64 | halves[1], "inc": halves[2] << 64 | halves[3]}}
    found = np.frombuffer(_state_memory(probe), np.uint64).tolist()
    if sorted(found) != sorted(halves):
        raise RuntimeError(f"numpy {np.__version__} keeps a PCG64's state in a layout that the grid pass does not "
                           f"know: its memory read {[hex(w) for w in found]} for the state and increment halves "
                           f"{[hex(h) for h in halves]}")
    return tuple(found.index(h) for h in halves)


def _draw(rng: np.random.Generator, take: Callable[[], int], states: np.ndarray, rows: np.ndarray) -> None:
    """Draw streams until take() finds none left: each take() gives the
    position k of a stream that no thread has taken; copy the stream's
    start, states[k] (_pcg_states), into rng's PCG64 state memory, then
    fill its row, rows[k].

    The copy is the whole of a reseed: the 32 bytes of state and increment,
    in the generator's own layout.  has_uint32 and uinteger stay 0, as the
    generator was made, because standard_normal neither reads nor writes
    them; so the draws are exactly those of default_rng(SeedSequence(key)).
    take pops a deque of positions, whose pops are atomic, so two threads
    may draw one deque, each with its own generator, from either end.
    standard_normal releases the GIL while it fills a row.  Nothing but
    _state_memory is called here, so a thread that runs only this calls
    nothing that the benchmark's tracer patches.
    """
    memory, starts = _state_memory(rng.bit_generator), memoryview(states).cast("B")
    size = memory.nbytes
    while True:
        try:
            k = take()
        except IndexError:  # every stream of the deque is taken
            return
        memory[:] = starts[k * size:(k + 1) * size]
        rng.standard_normal(out=rows[k])


def unit(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v / ||v|| along the trailing axis of length 2, as complex; rejects
    zero vectors.

    Bit-identical to v / np.linalg.norm(v, axis=-1, keepdims=True) for
    complex v, in fewer and smaller temporaries: the squared norm adds the
    two terms of (conj(v) * v).real, the same floating-point steps as the
    norm takes, and numpy divides a complex by a real norm as a product with
    its reciprocal, so each real and imaginary part is multiplied by
    1 / norm here.

    With out (complex128, v's shape, not sharing v's memory), the result is
    written into out and out is returned, with the same values.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] != 2:
        raise ValueError("unit expects trailing axis of length 2")
    prod = np.conjugate(v, out=out)
    prod *= v
    sq = prod.real
    inv = sq[..., :1] + sq[..., 1:]
    np.sqrt(inv, out=inv)
    if np.any(inv == 0.0):
        raise ValueError("cannot normalize a zero vector")
    np.divide(1.0, inv, out=inv)
    for part, src in ((prod.real, v.real), (prod.imag, v.imag)):
        for j in (0, 1):
            np.multiply(src[..., j], inv[..., 0], out=part[..., j])
    return prod


def orth_complement(v: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to v (trailing axis 2): v^H u = 0.

    Phase convention: (a, b) maps to (-conj(b), conj(a)) normalized, so the
    result is deterministic and applying the map twice returns a unit vector
    collinear with the input.
    """
    v = np.asarray(v)
    if v.shape[-1] != 2:
        raise ValueError("orth_complement expects trailing axis of length 2")
    u = np.stack([-np.conj(v[..., 1]), np.conj(v[..., 0])], axis=-1)
    return unit(u)


def _dot(hc: np.ndarray, v: np.ndarray, prod: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h^H v along the trailing axis of length 2, from hc = conj(h), written
    into out; prod is scratch of hc's shape.

    The two products are added directly: the same bits as
    (np.conj(h) * v).sum(axis=-1), without the conjugate's copy or the
    reduction's overhead.
    """
    np.multiply(hc, v, out=prod)
    return np.add(prod[..., 0], prod[..., 1], out=out)


def _orth(a: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Turn a = unit(v) into orth_complement(v) in place, bit for bit:
    (-conj(a1), conj(a0)).  tmp is scratch shaped like a[..., 0].

    orth_complement normalises (-conj(v1), conj(v0)), whose squared norm
    adds the same two squares as unit(v)'s in the other order, and whose
    parts are unit(v)'s parts times the same reciprocal, up to a sign.
    """
    np.copyto(tmp, a[..., 0])
    np.conjugate(a[..., 1], out=a[..., 0])
    np.negative(a[..., 0], out=a[..., 0])
    np.conjugate(tmp, out=a[..., 1])
    return a
