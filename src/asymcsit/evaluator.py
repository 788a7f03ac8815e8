"""Finite-SNR Gaussian mutual-information evaluation of a scheme plan.

Per Monte-Carlo trial the evaluator draws an independent channel
realization for every slot and accounts rates layer by layer in decode
dependency order:

  1. first-antenna (common) layers, decoded at both users by SIC in
     decreasing power exponent (one order per slot, the same at every
     power), everything else as noise;
  2. quantized-interference links resolved: the usable description rate of
     each overheard interference is min(its quantization rate, the carrying
     common layer's delivered mutual information at either user), and the
     receivers' residual after subtracting the reconstruction is Gaussian
     with the matching rate-distortion variance (exactly 1 when the link is
     well provisioned and fully delivered);
  3. private zero-forced symbols and jointly decoded two-symbol vectors.
     A vector's owner decodes from its direct observation (after common
     removal and, where linked, interference subtraction) stacked with the
     quantized record of the vector overheard at the other user, a 2x2
     log-det rate.

All grid points are evaluated in one pass over the slots, a draw chunk
of whole slots at a time (as many as fit in _DRAW_BUDGET normals, at
least one).  Each slot is drawn at every grid point, and a chunk's draws
are stacked on leading (slot, grid point) axes: one sample_channel call
scales them, and each precoder direction is projected once per chunk,
with every |gain|**2 taken once.  The decode wiring is resolved once,
when the plan is built (SchemePlan.shapes and SchemePlan.wiring, which
validate_plan reads too): the SIC order, the fresh groups, which links a
slot carries and which each user overhears there, each interference's
received exponent and the slot its groups wait for.  Slots of one shape
(a cycled plan's cycle positions) share one decode template, which the
pass makes once from the shape and the grid powers: power columns, rate
caps and each link's quantizer scale and demand.  The pass keeps no
record of its own per slot: a draw chunk is a range of slot positions,
each slot's shape, link rows and settle point are read from
SchemePlan.wiring in place, and its first rate row from one list of row
offsets, made once per pass.  A chunk is decoded a template at a time:
the SIC MIs, link noise and cross minors of all of the chunk's slots of
one template run once, on (slot, grid point, trial) arrays that are
views of the chunk's gains when those slots step evenly through it
(always, for a chunk of one slot).  Step 1 is settled as the template is
decoded, and a carrier's decode writes its links' delivered MI and
residual into the pass's per-link output.  A link's carrier comes after
its source, so step 3 waits: a chunk waits whole, in a
first-in-first-out queue of chunks, until the slot that its last group
settles after has been decoded.  It holds its template batches' fresh
power gains and the cross minors of the groups that get a side row; then
each group reads its residuals from its link rows.  After each chunk,
every ready chunk at the head of the queue is settled, one call per
template batch, and each user's per-trial total then adds up slot by
slot in slot order (the slot's user-owned first-antenna layers, then
user 1's group, then user 2's), the same sums in the same order at any
chunk size.  Memory is bounded by the chunks in that queue, not by the
plan length (apart from the per-layer and per-link results and one row
offset per slot), and the Python work is paid once per chunk and
template, not once per slot and grid point.  The pass returns arrays
over the grid; estimate_dof fits the per-user ones, and a RateLedger is
built only at one point (evaluate_plan).

residual_power_probe is that one-point ledger, read off as
RateLedger.link_noise: step 2's effective residual variance per link.  Its
log-slope in P is 0 for a sound plan.

Every layer of a plan that builds is decoded, either by SIC (a
first-antenna layer) or in its user's jointly decoded group (any other
layer).  Building the plan refuses what would break that: a common layer
off the first antenna, a vanishing pre-log or power, a repeated (owner,
precoder) in a slot, a link whose source, overheard interference or
common carrier is missing or whose carrier is not after its source, and a
carrier shared by two links.  What validate_plan still reports, and evaluate_plan and
estimate_dof refuse with PlanValidationError, are design faults only.

Rates are mutual informations, not symbol-error simulations: the point is
the high-SNR slope, estimated by least squares on the top half of a power
grid that check_grid_db accepts (ExperimentConfig runs the same check up
front).  Per-layer entries of a jointly decoded vector are the joint rate
split proportionally to each symbol's genie-aided (others-known) rate, so
they sum to the joint rate and keep each symbol's pre-log.

All randomness is drawn from streams keyed by (seed, grid point, slot), so
results are reproducible for a given (seed, trial count, grid) no matter
how the work is ordered, and the same channels are reused when different
schemes are compared on the same grid.

The standard normals are the one part of a slot that can run off the
calling thread: numpy's standard_normal releases the GIL.  So the pass
keeps one worker thread, for the length of the call, and two float64 draw
buffers of shape (chunk, point, 2, 2, 2, trial, 2), used in turn.  The
worker keeps up to two chunks ahead: while the calling thread scales
chunk k out of one buffer, chunk k + 1 is being drawn into the other, and
chunk k + 2 is handed to the first buffer as soon as chunk k has been
scaled, before chunk k is projected and decoded.  So a slot template that
decodes faster than it draws and one that draws faster than it decodes,
taking turns, keep both threads busy.  Every stream of the pass is hashed
on the calling thread, once, before the first hand-off: SeedSequence's
hash (which holds the GIL) is run as uint32 array operations over the
whole table of seed words, 32 B per (slot, grid point) stream.  Each
hand-off takes its chunk's slice of that table, and the worker sets the
pass's one PCG64 from a stream's words right before it fills that
stream's row, so no generator is ever reseeded while another draw uses
it.  That gives exactly the draws of default_rng(SeedSequence(key)), at a
fraction of its cost per stream.  Every stream fills its own row of a
buffer, so the results do not depend on thread timing.  The worker calls
nothing but _reseed and standard_normal; sample_channel and unit run on
the calling thread only.

The pass writes each chunk's errors into its true channels (sample_channel
adds the estimates in place, with the same bits) and then conjugates the
true channels in place, once, so every projection is a product and a sum.
Each estimate is normalised once per chunk, and orth_to(k)'s direction is
derived from unit of user k's estimate (_orth), bit for bit what
orth_complement gives.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

# orth_complement is not called here (_orth derives it from unit), but the
# benchmark's tracer (perfbench/tracing.py) patches it under this module
from .channel import ChannelRealization, SnrPoint, orth_complement, sample_channel, unit  # noqa: F401
from .geometry import DofPoint
from .schemes import _DIRECTIONS, _USERS, OWNER_COMMON, SchemePlan, SlotShape, SymbolLayer, _require_int, validate_plan

__all__ = [
    "RateLedger",
    "DofEstimate",
    "PlanValidationError",
    "evaluate_plan",
    "estimate_dof",
    "check_grid_db",
    "residual_power_probe",
]

_TAG_CHANNEL = 1
_DRAW_BUDGET = 2 ** 15  # normals the worker draws per hand-off: as many whole slots as fit, at least one
_PRECISION_CEILING = 30.0  # largest alpha2 * dB / 10 that check_grid_db accepts

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding, which
# _seed_words and _reseed reproduce exactly
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class PlanValidationError(ValueError):
    """evaluate_plan refused a plan with outstanding design diagnostics
    (validate_plan: power budget, quantization rate, predicted DoF)."""


@dataclass(frozen=True, eq=False)
class RateLedger:
    """Measured rates and channel-use accounting for one evaluated plan.

    per_symbol_rate is each layer's mean rate in bits.  user_rate are total
    bits per plan run (sum of the owning layers' per_symbol_rate entries),
    with Monte-Carlo stderrs in user_rate_stderr; divide by channel_uses for
    bits per use.  link_delivered maps each interference id to the carrying
    common layer's delivered MI (min over the two users of the trial mean),
    link_noise to the effective residual variance after subtraction.
    """

    per_symbol_rate: dict[str, float]
    user_rate: tuple[float, float]
    user_rate_stderr: tuple[float, float]
    channel_uses: float
    link_delivered: dict[str, float]
    link_noise: dict[str, float]


@dataclass(frozen=True, eq=False)
class DofEstimate:
    """Per-user rate points over a power grid and the fitted pre-log slopes."""

    points: tuple[tuple[float, float, float], ...]      # (log2 P, r1, r2)
    point_stderr: tuple[tuple[float, float], ...]
    slope: DofPoint
    stderr: tuple[float, float]


def _db_key(p_db: float) -> int:
    """A grid point's stream key: its power rounded to 0.001 dB."""
    return int(round(p_db * 1000.0))


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    n = operator.index(n)  # numpy integers too, floats refused
    if n < 0:
        raise ValueError(f"stream keys must be >= 0, got {n}")
    words = []
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            return words


def _hash_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mix and generate_state(4, np.uint64), one stream
    per row of entropy (uint32 words, all rows of one length).

    The hash constants advance the same way whatever the data, so each step
    is one uint32 array operation over all rows, wrapping as the scalar
    code does.
    """
    n, width = entropy.shape
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

    words = list(entropy.T) + [np.zeros(n, np.uint32)] * (_POOL - width)
    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    hash_const = _INIT_B
    state = np.empty((n, 2 * _POOL), np.uint32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
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
            hashed = _hash_pool(entropy.reshape(-1, entropy.shape[-1]))
            out[np.ix_(rows, cols)] = hashed.reshape(len(rows), len(cols), _POOL)
    return out


def _reseed(rng: np.random.Generator, words: list[int]) -> None:
    """Put rng's PCG64 where PCG64 seeded with these four words starts:
    pcg64_set_seed's two steps of the 128-bit LCG from state 0."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
    state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def _draw(rng: np.random.Generator, words: list[list[int]], normals: np.ndarray) -> None:
    """Fill normals' leading rows, one stream per row (worker thread): set
    rng to the stream's start from its four seed words, then draw the row.

    rng is the pass's one generator and words the chunk's slice of the seed
    table that the calling thread hashed once for the pass; draws run one
    at a time on the one worker, so no stream is reseeded in flight.
    standard_normal releases the GIL while it fills a row, so the calling
    thread keeps running meanwhile.  Nothing else is called here: the
    benchmark's tracer (perfbench/tracing.py) keeps a single span stack, for
    the calling thread.
    """
    for w, row in zip(words, normals):
        _reseed(rng, w)
        rng.standard_normal(out=row)


def _dot(hc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^H v along the trailing axis of length 2, from hc = conj(h).

    The two products are added directly: the same bits as
    (np.conj(h) * v).sum(axis=-1), without the conjugate's copy or the
    reduction's overhead.
    """
    prod = hc * v
    return prod[..., 0] + prod[..., 1]


def _orth(a: np.ndarray) -> np.ndarray:
    """orth_complement(v), bit for bit, from a = unit(v): (-conj(a1), conj(a0)).

    orth_complement normalises (-conj(v1), conj(v0)), whose squared norm
    adds the same two squares as unit(v)'s in the other order, and whose
    parts are unit(v)'s parts times the same reciprocal, up to a sign.
    """
    out = np.empty_like(a)
    np.conjugate(a[..., 1], out=out[..., 0])
    np.negative(out[..., 0], out=out[..., 0])
    np.conjugate(a[..., 0], out=out[..., 1])
    return out


def _project(true_conj, est, precoders):
    """Each precoder's receive gains at user 1 and user 2, as two lists
    aligned with precoders: the complex gains and their |gain|**2.

    true_conj holds the conjugated true channels of user 1 and user 2 and
    est their estimates, each with leading axes before the trial axis.
    Each direction is projected once; a None precoder gets None.  Each
    estimate that a direction needs is normalised once: orth_to(k) and
    along(k) both read unit of user k's estimate.  The first antenna gets
    power gains only: its layers are decoded by SIC, which reads nothing
    else.
    """
    gain, power_gain = [None] * len(precoders), [None] * len(precoders)
    for i, pc in enumerate(precoders):
        if pc is not None and pc.kind == "first_antenna":
            # a contiguous copy: on the strided (slot, point, trial) view
            # itself, np.abs ran about 40x slower
            g = (true_conj[0][..., 0].copy(), true_conj[1][..., 0].copy())
            power_gain[i] = (np.abs(g[0]) ** 2, np.abs(g[1]) ** 2)
    for user in (1, 2):
        mine = [i for i, pc in enumerate(precoders)
                if pc is not None and pc.kind != "first_antenna" and pc.user == user]
        if not mine:
            continue
        a = unit(est[user - 1])  # one estimate's unit vector alive at a time
        for i in mine:
            v = _orth(a) if precoders[i].kind == "orth" else a
            g = gain[i] = (_dot(true_conj[0], v), _dot(true_conj[1], v))
            power_gain[i] = (np.abs(g[0]) ** 2, np.abs(g[1]) ** 2)
            del v  # before the next direction's vector is made
        del a
    return gain, power_gain


def _common_mis(sic_power, fresh, power_gain):
    """SIC mutual informations of a slot's first-antenna layers at both users.

    sic_power lists their (grid point, 1) power columns in decode order
    (decreasing power exponent); the noise for each layer is every later
    first-antenna layer plus the slot's fresh layers, (direction, power
    column) per layer, at their true received powers plus unit AWGN.
    power_gain is _project's over _DIRECTIONS, so the first antenna's is at
    0.  Returns each user's MIs in decode order.
    """
    if not sic_power:
        return [], []
    out = []
    for u in (0, 1):
        fresh_rx = sum(power_gain[d][u] * col for d, col in fresh)
        first = power_gain[0][u]
        rx = [first * col for col in sic_power]
        out.append([np.log2(1.0 + rx[i] / (sum(rx[i + 1:]) + fresh_rx + 1.0)) for i in range(len(rx))])
    return out[0], out[1]


def _cross_minors(direct, cross, powers):
    """det(A)'s Cauchy-Binet sum for two observation rows of a jointly
    decoded group, before the noise: sum over i < j of
    p_i p_j |d_i c_j - d_j c_i|**2, with d and c the layers' complex gains
    in the two rows (0 for a single layer)."""
    k = len(powers)
    return sum(powers[i] * powers[j] * np.abs(direct[i] * cross[j] - direct[j] * cross[i]) ** 2
               for i in range(k) for j in range(i + 1, k))


def _logdet_mi(rows, powers, minors=0):
    """log2 det(I + H Q H^H N^-1) for one or two observation rows.

    rows is a list of (per-layer |gain|**2, noise variance); powers the
    per-layer transmit powers.  With a single row this reduces to the
    scalar SINR formula.  With two, det = 1 + a11 + a22 + det(A), and
    det(A) is the rows' _cross_minors over the two noises: a sum of
    nonnegative 2x2 minors, so nearly collinear rows lose no precision to
    cancellation.
    """
    abs1, n1 = rows[0]
    a11 = sum(p * a for a, p in zip(abs1, powers)) / n1
    if len(rows) == 1:
        return np.log2(1.0 + a11)
    abs2, n2 = rows[1]
    a22 = sum(p * a for a, p in zip(abs2, powers)) / n2
    return np.log2(1.0 + a11 + a22 + minors / (n1 * n2))


def _link_noise(scale: list[float], demand: list[float], delivered: list[float]) -> list[float]:
    """Effective residual variance after the subtraction, per grid point.

    scale is the quantizer's own rate-distortion variance: the source is
    received at ~ P**e_src, and quant_prelog * log2(P) bits (demand)
    describe it down to P**(e_src - quant_prelog), exactly 1 for a sound
    link.  A shortfall of the carrying common layer's delivered MI below
    that demand coarsens the description the receivers get: every missing
    bit doubles the residual variance.
    """
    return [s * 2.0 ** max(0.0, q - d) for s, q, d in zip(scale, demand, delivered)]


def _take(positions: list[int]):
    """Increasing chunk positions as an index along the chunk axis: a basic
    slice, which reads the chunk's arrays as views, when they step evenly,
    else an index array, which copies."""
    lo, hi = positions[0], positions[-1] + 1
    step = positions[1] - lo if len(positions) > 1 else 1
    return slice(lo, hi, step) if positions == list(range(lo, hi, step)) else np.array(positions)


def _shift(index, k: int):
    """A _take index with k added to every position."""
    return slice(index.start + k, index.stop + k, index.step) if isinstance(index, slice) else index + k


@dataclass(frozen=True, eq=False)
class _Template:
    """The decode tables of one slot shape at the grid powers, shared by
    every slot of that shape (see _compile)."""

    groups: tuple  # (the shape's SlotGroup, its layers' (grid point, 1) power columns) of user 1 and of user 2
    fresh: tuple  # (direction, power column) per layer of the groups, user 1's first: what SIC reads as noise
    sic: tuple  # (position in the slot, user, rate cap) per first-antenna layer in decode order (common: user -1)
    sic_power: tuple  # their (grid point, 1) power columns
    carried: tuple  # (carrier's SIC rank, quantizer variance, demand) per link carried here, as _link_noise reads them


def _compile(plan: SchemePlan, ps: list[float]) -> list[_Template]:
    """One _Template per entry of plan.shapes, in that order, at the grid
    powers ps.

    All that does not depend on the powers is read off the plan, which
    resolved it when it was built: one SlotShape per way a slot decodes
    (SIC order, groups, carried links), and each slot's SlotWiring, which
    the pass reads in place.  So a template only attaches the powers: a
    power column per layer, rate caps, and each carried link's quantizer
    variance and demand.  A cycled plan has one shape per cycle position,
    however many cycles it has.  A common-owned first-antenna layer's rate
    cap is its encoding pre-log times log2(P): it carries no user bits,
    only the quantization bits it was built for.
    """
    log2p = np.array([math.log2(p) for p in ps])

    def column(l: SymbolLayer) -> np.ndarray:
        return np.array([l.power(p) for p in ps])[:, None]

    def template(shape: SlotShape) -> _Template:
        groups = tuple((g, tuple(column(shape.layers[k]) for k in g.positions)) for g in shape.groups)
        sic = [shape.layers[k] for k in shape.sic]
        return _Template(
            groups,
            tuple(pair for g, cols in groups for pair in zip(g.directions, cols)),
            tuple((k, -1, l.encoding_prelog * log2p) if l.owner == OWNER_COMMON else (k, _USERS.index(l.owner), None)
                  for k, l in zip(shape.sic, sic)),
            tuple(column(l) for l in sic),
            tuple((rank, [p ** (e_src - q) for p in ps], [q * math.log2(p) for p in ps])
                  for rank, q, e_src in shape.carried),
        )

    return [template(shape) for shape in plan.shapes]


class _Batch(NamedTuple):
    """A template's slots from one draw chunk, along a leading slot axis,
    settled in one go once the whole chunk is ready."""

    template: _Template
    size: int  # its slots
    rows: slice | np.ndarray  # its slots' first rate rows, as _take indexes them
    links: list  # per link column, its slots' link rows as _take indexes them (None: no link there)
    power_gain: dict  # direction -> the users' |gain|**2, for the directions of the template's groups
    bits: list  # (user, per-trial bits) of the user-owned first-antenna layers
    minors: list  # each group's cross minors, 0 without a side row


def _evaluate_grid(plan: SchemePlan, snrs: list[SnrPoint], n_trials: int, seed: int):
    """One pass over the slots at every grid point of snrs, as arrays with
    one column per point: (rate, link_out, mean, stderr) are each layer's
    mean rate (rows in plan order), each link's delivered MI and effective
    noise (2 x link, in plan.links order), and each user's per-run bits and
    Monte-Carlo stderr.

    A draw chunk is a range [lo, hi) of positions in plan.all_slots(), and
    each slot's shape, link rows and settle_after are read from plan.wiring
    at its position; its first rate row is its entry in one list of row
    offsets.  A chunk is decoded a slot template at a time: the SIC MIs,
    link noise and cross minors of all the chunk's slots of one template run
    in one go on (slot, grid point, trial) arrays, read as views of the
    chunk's gains when the slots step evenly through the chunk (always, for
    a chunk of one slot); rate and link rows that step evenly are indexed by
    basic slices too, by _take's rule.  The chunk then waits whole until the
    slot that its last group settles after has been decoded, and is settled
    a template batch at a time; each user's total adds up slot by slot in
    slot order, so the sums are the same at any chunk size.

    No validate_plan here: the public callers that need a sound plan run it
    first, and SchemePlan has already checked the links.  n_trials must be
    an integer >= 1 and seed one >= 0 (bools refused, as in
    ExperimentConfig); both are checked before any stream is seeded.  Grid
    point k's trial i reads row i of the stream keyed by (seed, the point's
    power, slot index), so a point's numbers do not depend on the rest of
    the grid, the chunk size or thread timing.  A draw that raises on the
    worker thread re-raises here.
    """
    _require_int("n_trials", n_trials, 1)
    _require_int("seed", seed, 0)
    if any(s.quality != plan.quality for s in snrs):
        raise ValueError("SNR point and plan disagree on CSIT quality")
    ps = [s.p for s in snrs]
    slots, wiring = plan.all_slots(), plan.wiring
    templates = _compile(plan, ps)
    starts = list(accumulate((len(s.layers) for s in slots), initial=0))  # each slot's first rate row, then the end
    rate = np.full((starts[-1], len(ps)), np.nan)
    link_out = np.empty((2, len(plan.links), len(ps)))  # delivered MI, effective noise
    totals = np.zeros((2, len(ps), n_trials))  # per-user bits per run

    def trial_mean(x):
        # x.mean(axis=-1), bit for bit, without its Python-level wrapper
        return np.add.reduce(x, axis=-1) / n_trials

    def decode(t: _Template, part: list[int], at, gain, power_gain) -> _Batch:
        # the first-antenna layers of the slots at plan positions part (at
        # `at` in the chunk), at every grid point, and the cross minors of
        # each group that gets a side row
        power_gain = [a and (a[0][at], a[1][at]) for a in power_gain]
        rows = _take([starts[p] for p in part])
        links = [_take(list(col)) if col[0] >= 0 else None for col in zip(*(wiring[p].links for p in part))]
        mi1, mi2 = _common_mis(t.sic_power, t.fresh, power_gain)
        bits = []
        for (k, user, cap), m1, m2 in zip(t.sic, mi1, mi2):
            per_trial = np.minimum(m1, m2)
            if cap is None:
                rate[_shift(rows, k)] = trial_mean(per_trial)
                bits.append((user, per_trial))
            else:
                # retransmission overhead, no user bits; the usable rate is
                # capped by the quantization bits the layer actually carries
                rate[_shift(rows, k)] = np.minimum(trial_mean(per_trial), cap)
        for j, (k, scale, demand) in enumerate(t.carried):
            link_out[0, links[j]] = mi = np.minimum(trial_mean(mi1[k]), trial_mean(mi2[k]))
            link_out[1, links[j]] = [_link_noise(scale, demand, d) for d in mi.tolist()]
        minors = [_cross_minors([gain[d][u][at] for d in g.directions], [gain[d][1 - u][at] for d in g.directions],
                                powers) if g.side_link >= 0 else 0 for u, (g, powers) in enumerate(t.groups)]
        return _Batch(t, len(part), rows, links, {d: power_gain[d] for d, _ in t.fresh}, bits, minors)

    def settle(b: _Batch):
        # each user's fresh layers in b's slots decode jointly.  The direct
        # observation's noise is 1 + the residual of the linked
        # own-interference, or the other user's layers at their true leakage
        # powers when nothing was quantized; the side observation (when the
        # group's image at the other user is linked) carries only the
        # quantization error.  Every link row read here was filled when its
        # carrier was decoded: b's chunk waits whole until the slot that its
        # last group settles after has been decoded.  Returns each slot's
        # (user, per-trial bits) additions, in the order they add up.
        t, power_gain = b.template, b.power_gain
        joints = []
        for u, (group, powers) in enumerate(t.groups):
            if not powers:
                continue
            if group.own_link >= 0:
                own_noise = link_out[1, b.links[group.own_link], :, None]
            else:
                leak, leak_powers = t.groups[1 - u]
                own_noise = sum(power_gain[d][u] * col for d, col in zip(leak.directions, leak_powers))
            rows = [([power_gain[d][u] for d in group.directions], 1.0 + own_noise)]
            if group.side_link >= 0:
                rows.append(([power_gain[d][1 - u] for d in group.directions],
                             link_out[1, b.links[group.side_link], :, None]))
            joint = _logdet_mi(rows, powers, b.minors[u])
            joints.append((u, joint))
            if len(powers) == 1:
                shares = [joint]
            else:
                # genie-aided rates (the group's other layers known): MRC of
                # all observation rows against noise only
                genie = [np.log2(1.0 + sum(a[i] / n for a, n in rows) * powers[i]) for i in range(len(powers))]
                total = sum(genie)
                shares = [np.where(total > 0.0, joint * g / np.where(total > 0.0, total, 1.0), 0.0)
                          for g in genie]
            for k, share in zip(group.positions, shares):
                rate[_shift(b.rows, k)] = trial_mean(share)
        return [[(user, x[j]) for user, x in b.bits + joints] for j in range(b.size)]

    def decode_chunk(lo: int, hi: int, stack):
        # the chunk holds the slots at plan positions [lo, hi).  Its complex
        # gains die on return; its batches wait, holding their fresh
        # directions' power gains, until the slot that the chunk's last
        # group settles after has been decoded
        at: dict[int, list[int]] = {}  # shape number -> its slots' plan positions
        for p in range(lo, hi):
            at.setdefault(wiring[p].shape, []).append(p)
        # every layer off the first antenna (direction 0) is in a group
        used = {d for n in at for d, _ in templates[n].fresh} | {0 for n in at if templates[n].sic}
        gain, power_gain = _project((stack.h_true, stack.g_true), (stack.h_est, stack.g_est),
                                    [pc if d in used else None for d, pc in enumerate(_DIRECTIONS)])
        batches = {n: decode(templates[n], part, _take([p - lo for p in part]), gain, power_gain)
                   for n, part in at.items()}
        del gain, power_gain
        waiting.append((max(w.settle_after for w in wiring[lo:hi]), lo, hi, batches))
        while waiting and waiting[0][0] <= slots[hi - 1].index:
            _, start, stop, done = waiting.popleft()
            additions = {n: iter(settle(b)) for n, b in done.items()}
            for w in wiring[start:stop]:
                for user, x in next(additions[w.shape]):
                    totals[user] += x

    chunk = min(len(slots), max(1, _DRAW_BUDGET // (len(ps) * 16 * n_trials)))  # 16 normals per trial
    n_chunks = -(-len(slots) // chunk)
    bufs = {name: np.empty((chunk, len(ps), n_trials, 2), complex) for name in ("h_true", "g_true", "h_est", "g_est")}
    # sample_channel writes each error into its channel and adds the
    # estimate in place: the same bits, and no error is read after that
    bufs["h_err"], bufs["g_err"] = bufs["h_true"], bufs["g_true"]
    # two draw buffers, used in turn (the second only when there is a
    # second chunk), and one generator, which the worker reseeds per stream
    normals = [np.empty((chunk, len(ps), 2, 2, 2, n_trials, 2)) for _ in range(min(2, n_chunks))]
    rng = np.random.Generator(np.random.PCG64(0))
    # every stream's seed words, (slot, point, word), hashed in one call
    words = _seed_words(seed, [_db_key(snr.p_db) for snr in snrs], [s.index for s in slots])
    waiting: deque = deque()  # (largest settle_after, lo, hi, {shape number: _Batch}) per chunk not yet settled
    with ThreadPoolExecutor(max_workers=1) as pool:

        def draw_into(k):
            # chunk k's streams, one row each, into buffer k % 2: called only
            # once that buffer's last draw has been scaled
            buf = normals[k % 2]
            rows = buf.reshape((-1,) + buf.shape[2:])
            return pool.submit(_draw, rng, words[k * chunk:(k + 1) * chunk].reshape(-1, _POOL).tolist(), rows)

        drawn = deque(draw_into(k) for k in range(len(normals)))  # chunk 0, and chunk 1 if there is one
        for k in range(n_chunks):
            b = k % 2  # chunk k's buffer
            lo, hi = k * chunk, min(len(slots), (k + 1) * chunk)
            drawn.popleft().result()
            stack = ChannelRealization(**{name: buf[:hi - lo] for name, buf in bufs.items()})
            sample_channel(snrs, normals[b][:hi - lo], size=n_trials, out=stack)
            if k + 2 < n_chunks:
                # buffer b is free: the worker draws chunk k + 2 into it
                # once chunk k + 1 is drawn, while this chunk decodes
                drawn.append(draw_into(k + 2))
            for true in (stack.h_true, stack.g_true):
                np.conjugate(true, out=true)  # each gain is conj(true) . direction
            decode_chunk(lo, hi, stack)

    stderr = totals.std(axis=-1, ddof=1) / math.sqrt(n_trials) if n_trials > 1 else np.zeros((2, len(ps)))
    return rate, link_out, totals.mean(axis=-1), stderr


def _point_ledger(plan: SchemePlan, snr: SnrPoint, n_trials: int, seed: int) -> RateLedger:
    """The grid pass at the single point snr, as a RateLedger."""
    rate, link_out, mean, stderr = (a[..., 0].tolist() for a in _evaluate_grid(plan, [snr], n_trials, seed))
    link_ids = [link.interference_id for link in plan.links]
    return RateLedger(
        per_symbol_rate=dict(zip((l.id for s in plan.all_slots() for l in s.layers), rate)),
        user_rate=tuple(mean),
        user_rate_stderr=tuple(stderr),
        channel_uses=plan.channel_uses(),
        link_delivered=dict(zip(link_ids, link_out[0])),
        link_noise=dict(zip(link_ids, link_out[1])),
    )


def _require_valid(plan: SchemePlan) -> None:
    diags = validate_plan(plan)
    if diags:
        raise PlanValidationError("; ".join(diags))


def evaluate_plan(plan: SchemePlan, snr: SnrPoint, n_trials: int, seed: int) -> RateLedger:
    """Measure every layer's Gaussian MI rate over n_trials channel draws.

    Raises PlanValidationError when the plan has validation diagnostics and
    ValueError on a quality mismatch or when n_trials is not an integer
    >= 1 or seed not one >= 0.  Deterministic for a given
    (seed, n_trials, snr), and equal to the same point of estimate_dof's grid.
    """
    _require_valid(plan)
    return _point_ledger(plan, snr, n_trials, seed)


def check_grid_db(p_db: list[float], alpha2: float) -> None:
    """Reject a power grid (in dB) that cannot support the slope fit.

    Its points must be finite and above 0 dB (SnrPoint needs P > 1), low
    enough that P = 10**(dB/10) is a finite float, strictly increasing, at
    least 3 and spanning at least 40 dB.  No two may round to the same
    0.001 dB, the stream key of their channel draws, or they would share
    draws that the slope stderr counts as independent.  They must also stay
    below the precision ceiling alpha2 * dB / 10 <= 30: zero-forcing leakage
    cannot fall below about eps**2 ~ 1e-32 of the signal, so once the
    estimation error variance P**-alpha2 drops under ~1e-30 the fitted
    slopes come out wrong without any other sign.
    """
    if not all(math.isfinite(x) and x > 0.0 for x in p_db):
        raise ValueError(f"power grid points must be finite and above 0 dB, got {list(p_db)}")
    for x in p_db:
        try:
            math.pow(10.0, x / 10.0)
        except OverflowError:
            raise ValueError(f"power grid point {x} dB overflows: 10**(dB/10) is not a finite float") from None
    if any(b <= a for a, b in zip(p_db, p_db[1:])):
        raise ValueError("power grid must be strictly increasing")
    if len(p_db) < 3:
        raise ValueError("power grid needs at least 3 points")
    for a, b in zip(p_db, p_db[1:]):
        if _db_key(a) == _db_key(b):
            raise ValueError(f"power grid points {a} and {b} dB share one channel stream (same dB to 0.001)")
    if alpha2 * max(p_db) / 10.0 > _PRECISION_CEILING:
        raise ValueError(f"power grid point {max(p_db)} dB is above the precision ceiling at alpha2 = {alpha2}: "
                         f"alpha2 * dB / 10 must be at most {_PRECISION_CEILING:g}")
    if p_db[-1] - p_db[0] < 40.0 - 1e-9:
        raise ValueError("power grid must span at least 40 dB")


def estimate_dof(plan: SchemePlan, p_grid: list[SnrPoint], n_trials: int, seed: int) -> DofEstimate:
    """Fit the per-user rate slopes against log2(P) over a power grid.

    The grid must pass check_grid_db at the plan's alpha2 (at least 3
    strictly increasing points above 0 dB spanning 40 dB, below the
    precision ceiling) and match the plan's quality; the plan must
    validate clean (PlanValidationError otherwise).  The fit
    uses the top half of the grid (at least two points) to suppress the
    O(1) offsets that bias small-P slopes.  The whole grid is evaluated in
    one pass over the slots; each point equals evaluate_plan at that power.
    The slope standard error
    propagates the per-point Monte-Carlo errors through the least-squares
    weights.  Tiny negative fitted slopes are floored at 0 (pre-logs are
    nonnegative; the raw rates stay available in points).
    """
    check_grid_db([s.p_db for s in p_grid], plan.quality.alpha2)
    _require_valid(plan)
    _, _, mean, stderr = _evaluate_grid(plan, p_grid, n_trials, seed)
    uses = plan.channel_uses()
    rates, rate_se = mean / uses, stderr / uses

    k = max(2, math.ceil(len(p_grid) / 2))
    x = np.array([snr.log2p for snr in p_grid[-k:]])
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    weights = (x - xbar) / sxx
    slopes = (weights * rates[:, -k:]).sum(axis=-1).tolist()
    errs = np.sqrt((weights ** 2 * rate_se[:, -k:] ** 2).sum(axis=-1)).tolist()

    return DofEstimate(
        points=tuple((snr.log2p, r1, r2) for snr, r1, r2 in zip(p_grid, *rates.tolist())),
        point_stderr=tuple(zip(*rate_se.tolist())),
        slope=DofPoint(max(slopes[0], 0.0), max(slopes[1], 0.0)),
        stderr=(errs[0], errs[1]),
    )


def residual_power_probe(plan: SchemePlan, snr: SnrPoint, n_trials: int, seed: int) -> dict[str, float]:
    """Effective residual variance after each interference subtraction.

    Returns the same per-link numbers evaluate_plan reports as link_noise,
    from the same channel draws: the quantizer's rate-distortion variance,
    doubled for every bit the carrying common layer fails to deliver.  A
    sound plan's residual stays at the unit noise floor (log-slope 0 in P);
    a link whose quantization pre-log undershoots the interference's
    received-power exponent by x leaves a residual growing as P**x.

    Diagnostic tool: runs on plans that fail validation (that is the point
    of probing a deliberately mis-specified link).
    """
    return _point_ledger(plan, snr, n_trials, seed).link_noise
