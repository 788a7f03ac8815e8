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
     well provisioned and fully delivered).  The interference's received
     exponent comes from SchemePlan.source_exponent, the same rule the
     builders and validate_plan use;
  3. private zero-forced symbols and jointly decoded two-symbol vectors.
     A vector's owner decodes from its direct observation (after common
     removal and, where linked, interference subtraction) stacked with the
     quantized record of the vector overheard at the other user, a 2x2
     log-det rate.

All grid points are evaluated in one pass over the slots.  Each slot is
drawn at every grid point, the draws are stacked on a leading grid axis,
and the projections, gains, SIC MIs, link noise and fresh-group log-dets
run once per slot on (grid point, trial) arrays.  Step 1 is settled as soon
as a slot is drawn.  A link's carrier comes after its source, so a slot's
step 3 waits in a first-in-first-out window until the carriers of the
links sourced there have been decoded; then its fresh-layer gains are
freed.  Memory is bounded by that window, not by the plan length, and the
per-slot Python work is paid once per slot, not once per slot and grid
point.  The pass returns arrays over the grid; estimate_dof fits the
per-user ones, and a RateLedger is built only at one point (evaluate_plan).

residual_power_probe is that one-point ledger, read off as
RateLedger.link_noise: step 2's effective residual variance per link.  Its
log-slope in P is 0 for a sound plan.  A link whose source or first-antenna
carrier is missing never reaches the pass: SchemePlan refuses it when the
plan is built.

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
keeps one worker thread, for the length of the call, that draws the next
chunk of slots into a buffer while the calling thread scales, projects and
decodes the current slot.  Streams are still seeded on the calling thread,
because SeedSequence hashing holds the GIL and would stall the decode.
Every stream fills its own rows of the buffer, so the results do not
depend on thread timing, and the worker calls nothing but standard_normal.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .channel import ChannelRealization, SnrPoint, orth_complement, sample_channel, unit
from .geometry import DofPoint
from .schemes import (
    OWNER_COMMON,
    OWNER_USER1,
    OWNER_USER2,
    PrecoderSpec,
    QuantizationLink,
    SchemePlan,
    SlotPlan,
    SymbolLayer,
    _require_int,
    validate_plan,
)

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


class PlanValidationError(ValueError):
    """evaluate_plan refused a plan with outstanding diagnostics."""


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


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(k) for k in key]))


def _p_key(snr: SnrPoint) -> int:
    return _db_key(snr.p_db)


def _db_key(p_db: float) -> int:
    """A grid point's stream key: its power rounded to 0.001 dB."""
    return int(round(p_db * 1000.0))


def _draw(rngs: list[np.random.Generator], normals: np.ndarray) -> None:
    """Fill normals' leading rows from rngs, one stream per row (worker thread).

    standard_normal releases the GIL while it fills a row, so the calling
    thread keeps running meanwhile.  Nothing else is called here: the
    benchmark's tracer (perfbench/tracing.py) keeps a single span stack, for
    the calling thread.
    """
    for rng, row in zip(rngs, normals):
        rng.standard_normal(out=row)


def _vdot(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^H v along the trailing axis of length 2.

    The two products are added directly: the same sum as prod.sum(axis=-1),
    without its reduction overhead.
    """
    prod = np.conj(h)
    prod *= v
    return prod[..., 0] + prod[..., 1]


def _gains_for_slot(slot: SlotPlan, ch):
    """Per-layer complex receive gains at user 1 and user 2.

    ch is a ChannelRealization, or a stack of them with a leading grid axis
    before the trial axis; only the true channels and the estimates are
    read.  Each precoder direction the slot uses is projected once, and its
    layers share the resulting gain arrays.
    """
    by_precoder: dict[PrecoderSpec, list[SymbolLayer]] = {}
    for layer in slot.layers:
        by_precoder.setdefault(layer.precoder, []).append(layer)
    gain1, gain2 = {}, {}
    for pc, layers in by_precoder.items():
        if pc.kind == "first_antenna":
            g1, g2 = np.conj(ch.h_true[..., 0]), np.conj(ch.g_true[..., 0])
        else:
            est = ch.h_est if pc.user == 1 else ch.g_est
            v = orth_complement(est) if pc.kind == "orth" else unit(est)
            g1, g2 = _vdot(ch.h_true, v), _vdot(ch.g_true, v)
            del v  # one projection alive at a time
        for layer in layers:
            gain1[layer.id], gain2[layer.id] = g1, g2
    return gain1, gain2


def _common_mis(slot: SlotPlan, gain1, gain2, power: dict[str, np.ndarray]):
    """SIC mutual informations of every first-antenna layer at both users.

    Decoding in slot.commons() order (decreasing power exponent); the noise
    for each layer is every later first-antenna layer plus all fresh layers
    at their true received powers plus unit AWGN.  power maps each layer id
    to its (grid point, 1) power column, one row per leading row of the
    gains.
    """
    sic = slot.commons()
    fresh = slot.fresh(OWNER_USER1) + slot.fresh(OWNER_USER2)
    out = []
    for gains in (gain1, gain2):
        mis = {}
        fresh_rx = sum(np.abs(gains[l.id]) ** 2 * power[l.id] for l in fresh) if fresh else 0.0
        rx = [np.abs(gains[l.id]) ** 2 * power[l.id] for l in sic]
        for i, layer in enumerate(sic):
            below = sum(rx[i + 1:]) + fresh_rx
            mis[layer.id] = np.log2(1.0 + rx[i] / (below + 1.0))
        out.append(mis)
    return out[0], out[1]


def _logdet_mi(rows, powers):
    """log2 det(I + H Q H^H N^-1) for one or two observation rows.

    rows is a list of (per-layer gain arrays, noise variance); powers the
    per-layer transmit powers.  With a single row this reduces to the scalar
    SINR formula.  With two, det = 1 + a11 + a22 + det(A), and det(A) is
    expanded by Cauchy-Binet into a sum of nonnegative 2x2 minors, so nearly
    collinear rows lose no precision to cancellation.
    """
    g1, n1 = rows[0]
    a11 = sum(p * np.abs(g) ** 2 for g, p in zip(g1, powers)) / n1
    if len(rows) == 1:
        return np.log2(1.0 + a11)
    g2, n2 = rows[1]
    a22 = sum(p * np.abs(g) ** 2 for g, p in zip(g2, powers)) / n2
    k = len(powers)
    gram = sum(powers[i] * powers[j] * np.abs(g1[i] * g2[j] - g1[j] * g2[i]) ** 2
               for i in range(k) for j in range(i + 1, k))
    return np.log2(1.0 + a11 + a22 + gram / (n1 * n2))


def _settle_commons(slot: SlotPlan, gain1, gain2, ps: list[float], power: dict[str, np.ndarray]):
    """Settle a slot's first-antenna layers at every grid point; drop their gains.

    One _common_mis call decodes the whole grid.  Returns (settled, bits):
    each layer's (usable rate, delivered MI) arrays over the grid, and
    (owner, per-trial bits) of the user-owned layers, in decode order.
    """
    mi1, mi2 = _common_mis(slot, gain1, gain2, power)
    log2p = np.array([math.log2(p) for p in ps])
    settled, bits = {}, []
    for layer in slot.commons():
        lid = layer.id
        per_trial = np.minimum(mi1[lid], mi2[lid])
        rate = per_trial.mean(axis=-1)
        if layer.owner == OWNER_COMMON:
            # retransmission overhead, no user bits; the usable rate is
            # capped by the quantization bits the layer actually carries
            rate = np.minimum(rate, layer.encoding_prelog * log2p)
        else:
            bits.append((layer.owner, per_trial))
        delivered = np.minimum(mi1[lid].mean(axis=-1), mi2[lid].mean(axis=-1))
        settled[lid] = (rate, delivered)
        del gain1[lid], gain2[lid]
    return settled, bits


def _link_noise(link: QuantizationLink, e_src: float, delivered: np.ndarray, ps: list[float]) -> list[float]:
    """Effective residual variance after the subtraction, per grid point.

    A shortfall of the carrying common layer's delivered MI below the
    quantization-rate demand coarsens the description the receivers get:
    every missing bit doubles the residual variance.
    """
    # rate-distortion variance of the quantizer itself: the source is
    # received at ~ P**e_src, and quant_prelog * log2(P) bits describe it
    # down to P**(e_src - quant_prelog), exactly 1 for a sound link
    return [p ** (e_src - link.quant_prelog) * 2.0 ** max(0.0, link.quant_prelog * math.log2(p) - d)
            for p, d in zip(ps, delivered.tolist())]


def _evaluate_grid(plan: SchemePlan, snrs: list[SnrPoint], n_trials: int, seed: int):
    """One pass over the slots at every grid point of snrs, as arrays with
    one column per point: (rate, link_out, mean, stderr) are each layer's
    mean rate (rows in plan order), each link's delivered MI and effective
    noise (2 x link), and each user's per-run bits and Monte-Carlo stderr.
    No validate_plan here: the public callers that need a sound plan run it
    first, and SchemePlan has already checked the links.  n_trials must be
    an integer >= 1 and seed one >= 0 (bools refused, as in
    ExperimentConfig); both are checked before any stream is made.

    Grid point k's trial i reads row i of the stream keyed by (seed, the
    point's power, slot index), so a point's draws do not depend on the rest
    of the grid.  One stacked ChannelRealization, each field of shape
    (grid point, trial, 2), is allocated per pass; sample_channel writes
    point k's draw straight into its row k (out=), once per slot and point,
    so no draw is copied.  With the layer powers as (point, 1) columns,
    projections, gains and SIC run once per slot, in the slot's one decode
    order at every point, and the first-antenna layers settle at once.  The
    fresh groups wait in a first-in-first-out window until the carriers of
    every link sourced in that slot have been decoded, then settle and free
    their gains.  Settling only from the head keeps each user's per-trial
    total adding up slot by slot: the slot's user-owned first-antenna
    layers, then user 1's group, then user 2's.

    The standard normals are drawn one chunk ahead on a single worker
    thread: a chunk is as many whole slots as fit in _DRAW_BUDGET normals
    (at least one), held in one float64 buffer of shape (chunk, point, 2,
    2, 2, trial, 2).  Once the last slot of a chunk has been scaled out of
    the buffer, the next chunk's streams are seeded here and the worker
    fills the buffer while this thread projects and decodes that slot.
    Seeding stays on this thread because SeedSequence hashing holds the
    GIL; the worker runs only standard_normal, which releases it.  Each
    stream fills its own row, so the values do not depend on thread timing.
    sample_channel, orth_complement and unit are called on this thread
    only.  The pool lives for this call; a draw that raises re-raises here.
    """
    _require_int("n_trials", n_trials, 1)
    _require_int("seed", seed, 0)
    if any(s.quality != plan.quality for s in snrs):
        raise ValueError("SNR point and plan disagree on CSIT quality")
    ready: dict[int, int] = {}  # source slot -> slot of its last carrier
    carried: dict[int, list] = {}  # carrier slot -> [(link row, link)]
    for i, link in enumerate(plan.links):
        home = plan.find_layer(link.retransmit_layer)[0].index
        ready[link.source_slot] = max(home, ready.get(link.source_slot, home))
        carried.setdefault(home, []).append((i, link))

    ps = [s.p for s in snrs]
    slots = plan.all_slots()
    rate = np.full((sum(len(s.layers) for s in slots), len(ps)), np.nan)
    link_out = np.empty((2, len(plan.links), len(ps)))  # delivered MI, effective noise
    linked: dict[tuple[int, str], np.ndarray] = {}
    totals = np.zeros((2, len(ps), n_trials))  # per-user bits per run
    by_owner = {OWNER_USER1: totals[0], OWNER_USER2: totals[1]}

    def settle(slot, row0, gain1, gain2, power, bits):
        # each user's fresh layers in the slot decode jointly.  The direct
        # observation's noise is 1 + the residual of the linked
        # own-interference, or the other user's layers at their true leakage
        # powers when nothing was quantized; the side observation (when the
        # group's image at the other user is linked) carries only the
        # quantization error.
        for owner, trial_bits in bits:
            by_owner[owner] += trial_bits
        row = {l.id: row0 + i for i, l in enumerate(slot.layers)}
        for owner, other, direct, cross in ((OWNER_USER1, OWNER_USER2, gain1, gain2),
                                            (OWNER_USER2, OWNER_USER1, gain2, gain1)):
            group = slot.fresh(owner)
            if not group:
                continue
            powers = [power[l.id] for l in group]
            own_noise = linked.get((slot.index, owner))
            if own_noise is None:
                own_noise = sum(np.abs(direct[l.id]) ** 2 * power[l.id] for l in slot.fresh(other))
            rows = [([direct[l.id] for l in group], 1.0 + own_noise)]
            if (slot.index, other) in linked:
                rows.append(([cross[l.id] for l in group], linked[(slot.index, other)]))
            joint = _logdet_mi(rows, powers)
            by_owner[owner] += joint
            if len(group) == 1:
                shares = [joint]
            else:
                # genie-aided rates (the group's other layers known): MRC of
                # all observation rows against noise only
                genie = [np.log2(1.0 + sum(np.abs(g[i]) ** 2 / n for g, n in rows) * powers[i])
                         for i in range(len(group))]
                total = sum(genie)
                shares = [np.where(total > 0.0, joint * g / np.where(total > 0.0, total, 1.0), 0.0)
                          for g in genie]
            for layer, share in zip(group, shares):
                rate[row[layer.id]] = share.mean(axis=-1)
        linked.pop((slot.index, OWNER_USER1), None)
        linked.pop((slot.index, OWNER_USER2), None)

    bufs = {f.name: np.empty((len(ps), n_trials, 2), complex) for f in fields(ChannelRealization)}
    stack = ChannelRealization(**bufs)
    rows = [ChannelRealization(**{name: buf[k] for name, buf in bufs.items()}) for k in range(len(ps))]
    chunk = max(1, _DRAW_BUDGET // (len(ps) * 16 * n_trials))  # 16 normals per trial
    normals = np.empty((chunk, len(ps), 2, 2, 2, n_trials, 2))
    stream_rows = normals.reshape((-1,) + normals.shape[2:])  # one row per (slot, point) stream
    window: deque = deque()
    row0 = 0
    with ThreadPoolExecutor(max_workers=1) as pool:

        def draw_from(start):
            rngs = [_stream(seed, _TAG_CHANNEL, _p_key(snr), slot.index)
                    for slot in slots[start:start + chunk] for snr in snrs]
            return pool.submit(_draw, rngs, stream_rows)

        drawn = draw_from(0)
        for s, slot in enumerate(slots):
            if s % chunk == 0:
                drawn.result()
            for snr, row, z in zip(snrs, rows, normals[s % chunk]):
                sample_channel(snr, z, size=n_trials, out=row)
            if s % chunk == chunk - 1 and s + 1 < len(slots):
                drawn = draw_from(s + 1)  # the buffer is free: draw the next chunk while this slot decodes
            gain1, gain2 = _gains_for_slot(slot, stack)
            power = {l.id: np.array([l.power(p) for p in ps])[:, None] for l in slot.layers}
            settled, bits = _settle_commons(slot, gain1, gain2, ps, power)
            for i, layer in enumerate(slot.layers):
                if layer.id in settled:
                    rate[row0 + i] = settled[layer.id][0]
            for i, link in carried.get(slot.index, ()):
                link_out[0, i] = mi = settled[link.retransmit_layer][1]
                link_out[1, i] = _link_noise(link, plan.source_exponent(link), mi, ps)
                linked[(link.source_slot, link.observer)] = link_out[1, i, :, None]
            window.append((slot, row0, gain1, gain2, power, bits))
            row0 += len(slot.layers)
            while window and ready.get(window[0][0].index, -1) <= slot.index:
                settle(*window.popleft())

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
