"""Finite-SNR Gaussian mutual-information evaluation of a scheme plan.

Per Monte-Carlo trial the evaluator draws an independent channel
realization for every slot and accounts rates layer by layer in decode
dependency order:

  1. first-antenna (common) layers, decoded at both users by SIC strongest
     first, everything else as noise;
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

residual_power_probe reports step 2's effective residual variance per link,
the same number RateLedger.link_noise holds, from the same draws; its
log-slope in P is 0 for a sound plan.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SnrPoint, orth_complement, sample_channel, unit
from .geometry import DofPoint
from .schemes import (
    OWNER_COMMON,
    OWNER_USER1,
    OWNER_USER2,
    QuantizationLink,
    SchemePlan,
    SlotPlan,
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


class PlanValidationError(ValueError):
    """evaluate_plan refused a plan with outstanding diagnostics."""


@dataclass(frozen=True, eq=False)
class RateLedger:
    """Measured rates and channel-use accounting for one evaluated plan.

    user_rate are total bits per plan run (sum of the owning layers'
    per_symbol_rate entries); divide by channel_uses for bits per use.
    link_delivered maps each interference id to the carrying common layer's
    delivered MI (min over the two users of the trial mean), link_noise to
    the effective residual variance after subtraction.
    """

    per_symbol_rate: dict[str, float]
    user_rate: tuple[float, float]
    user_rate_stderr: tuple[float, float]
    channel_uses: float
    snr: SnrPoint
    n_trials: int
    seed: int
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
    return int(round(snr.p_db * 1000.0))


def _vdot(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^H v along the trailing axis."""
    return (np.conj(h) * v).sum(axis=-1)


def _gains_for_slot(slot: SlotPlan, ch: ChannelRealization):
    """Per-layer complex receive gains at user 1 and user 2."""
    vecs = {
        (1, "orth"): orth_complement(ch.h_est),
        (1, "along"): unit(ch.h_est),
        (2, "orth"): orth_complement(ch.g_est),
        (2, "along"): unit(ch.g_est),
    }
    gain1, gain2 = {}, {}
    for layer in slot.layers:
        pc = layer.precoder
        if pc.kind == "first_antenna":
            gain1[layer.id] = np.conj(ch.h_true[..., 0])
            gain2[layer.id] = np.conj(ch.g_true[..., 0])
        else:
            v = vecs[(pc.user, pc.kind)]
            gain1[layer.id] = _vdot(ch.h_true, v)
            gain2[layer.id] = _vdot(ch.g_true, v)
    return gain1, gain2


def _common_mis(slot: SlotPlan, gain1, gain2, p: float):
    """SIC mutual informations of every first-antenna layer at both users.

    Decoding strongest first; the noise for each layer is every weaker
    first-antenna layer plus all fresh layers at their true received powers
    plus unit AWGN.
    """
    sic = slot.commons(p)
    fresh = [l for l in slot.layers if l.precoder.kind != "first_antenna"]
    out = []
    for gains in (gain1, gain2):
        mis = {}
        fresh_rx = sum(np.abs(gains[l.id]) ** 2 * l.power(p) for l in fresh) if fresh else 0.0
        rx = [np.abs(gains[l.id]) ** 2 * l.power(p) for l in sic]
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


def _genie_mi(rows, powers, i):
    """Rate of layer i when the other layers of its group are known: MRC of
    all observation rows against noise only."""
    snr = sum(np.abs(g[i]) ** 2 / n for g, n in rows) * powers[i]
    return np.log2(1.0 + snr)


class _SlotEval:
    """Per-slot channel draw digested into gains, powers and common MIs."""

    __slots__ = ("slot", "gain1", "gain2", "mi1", "mi2")

    def __init__(self, slot: SlotPlan, ch: ChannelRealization, p: float):
        self.slot = slot
        self.gain1, self.gain2 = _gains_for_slot(slot, ch)
        self.mi1, self.mi2 = _common_mis(slot, self.gain1, self.gain2, p)


@dataclass(frozen=True, eq=False)
class _LinkInfo:
    link: QuantizationLink
    delivered: float
    effective_var: float


def _resolve_links(plan: SchemePlan, evals: dict[int, _SlotEval], p: float):
    """Delivered rates and effective residual variances, one entry per link.

    A shortfall of the carrying common layer's delivered MI below the
    quantization-rate demand coarsens the description the receivers get:
    every missing bit doubles the residual variance.
    """
    log2p = math.log2(p)
    info: dict[tuple[int, str], _LinkInfo] = {}
    for link in plan.links:
        carrier_slot, _ = plan.find_layer(link.retransmit_layer)
        ev = evals[carrier_slot.index]
        delivered = min(
            float(np.mean(ev.mi1[link.retransmit_layer])),
            float(np.mean(ev.mi2[link.retransmit_layer])),
        )
        e_src = plan.source_exponent(link)
        if e_src is None:
            raise ValueError(f"link {link.interference_id}: source interference missing")
        # rate-distortion variance of the quantizer itself: the source is
        # received at ~ P**e_src, and quant_prelog * log2(P) bits describe it
        # down to P**(e_src - quant_prelog), exactly 1 for a sound link
        quant_var = p ** (e_src - link.quant_prelog)
        shortfall = max(0.0, link.quant_prelog * log2p - delivered)
        info[(link.source_slot, link.observer)] = _LinkInfo(
            link=link,
            delivered=delivered,
            effective_var=quant_var * 2.0 ** shortfall,
        )
    return info


def _fresh_group_rates(ev: _SlotEval, link_info, p: float, owner: str):
    """Joint rate and per-layer split of one user's fresh layers in a slot.

    Returns None when the user has no fresh layers here.  The direct
    observation's noise is 1 + the residual of the linked own-interference,
    or the other user's layers at their true leakage powers when nothing
    was quantized; the side observation (when the group's image at the
    other user is linked) carries only the quantization error.
    """
    slot = ev.slot
    layers = slot.fresh(owner)
    if not layers:
        return None
    if owner == OWNER_USER1:
        gains_direct, gains_cross, other = ev.gain1, ev.gain2, OWNER_USER2
    else:
        gains_direct, gains_cross, other = ev.gain2, ev.gain1, OWNER_USER1

    powers = [l.power(p) for l in layers]
    own_link = link_info.get((slot.index, owner))
    if own_link is not None:
        n_direct = 1.0 + own_link.effective_var
    else:
        leak = sum(np.abs(gains_direct[l.id]) ** 2 * l.power(p) for l in slot.fresh(other))
        n_direct = 1.0 + leak
    rows = [([gains_direct[l.id] for l in layers], n_direct)]

    record_link = link_info.get((slot.index, other))
    if record_link is not None:
        rows.append(([gains_cross[l.id] for l in layers], record_link.effective_var))

    joint = _logdet_mi(rows, powers)
    if len(layers) == 1:
        return layers, joint, [joint]
    genie = [_genie_mi(rows, powers, i) for i in range(len(layers))]
    total = sum(genie)
    shares = [np.where(total > 0.0, joint * g / np.where(total > 0.0, total, 1.0), 0.0) for g in genie]
    return layers, joint, shares


def _slot_evals(plan: SchemePlan, snr: SnrPoint, n_trials: int, seed: int) -> dict[int, _SlotEval]:
    """Draw every slot's channel at one grid point and digest it.

    Channel streams are keyed by (seed, grid point, slot index), trial i
    reading row i of each draw.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if snr.quality != plan.quality:
        raise ValueError("SNR point and plan disagree on CSIT quality")
    pkey = _p_key(snr)
    evals: dict[int, _SlotEval] = {}
    for slot in plan.all_slots():
        rng = _stream(seed, _TAG_CHANNEL, pkey, slot.index)
        ch = sample_channel(snr, rng, size=n_trials)
        evals[slot.index] = _SlotEval(slot, ch, snr.p)
    return evals


def evaluate_plan(plan: SchemePlan, snr: SnrPoint, n_trials: int, seed: int) -> RateLedger:
    """Measure every layer's Gaussian MI rate over n_trials channel draws.

    Raises PlanValidationError when the plan has validation diagnostics and
    ValueError on a quality mismatch.  Deterministic for a given
    (seed, n_trials, snr).
    """
    diags = validate_plan(plan)
    if diags:
        raise PlanValidationError("; ".join(diags))
    evals = _slot_evals(plan, snr, n_trials, seed)
    p = snr.p
    link_info = _resolve_links(plan, evals, p)

    per_symbol: dict[str, float] = {}
    totals = {OWNER_USER1: np.zeros(n_trials), OWNER_USER2: np.zeros(n_trials)}

    log2p = math.log2(p)
    for slot in plan.all_slots():
        ev = evals[slot.index]
        for layer in slot.commons(p):
            per_trial = np.minimum(ev.mi1[layer.id], ev.mi2[layer.id])
            if layer.owner == OWNER_COMMON:
                # retransmission overhead, no user bits; the usable rate is
                # capped by the quantization bits the layer actually carries
                per_symbol[layer.id] = min(float(np.mean(per_trial)), layer.encoding_prelog * log2p)
            else:
                totals[layer.owner] += per_trial
                per_symbol[layer.id] = float(np.mean(per_trial))
        for owner in (OWNER_USER1, OWNER_USER2):
            group = _fresh_group_rates(ev, link_info, p, owner)
            if group is None:
                continue
            layers, joint, shares = group
            totals[owner] += joint
            for layer, share in zip(layers, shares):
                per_symbol[layer.id] = float(np.mean(share))

    r1, r2 = totals[OWNER_USER1], totals[OWNER_USER2]

    def _se(x):
        return float(np.std(x, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0

    return RateLedger(
        per_symbol_rate=per_symbol,
        user_rate=(float(np.mean(r1)), float(np.mean(r2))),
        user_rate_stderr=(_se(r1), _se(r2)),
        channel_uses=plan.channel_uses(),
        snr=snr,
        n_trials=n_trials,
        seed=seed,
        link_delivered={li.link.interference_id: li.delivered for li in link_info.values()},
        link_noise={li.link.interference_id: li.effective_var for li in link_info.values()},
    )


def check_grid_db(p_db: list[float]) -> None:
    """Reject a power grid (in dB) that cannot support the slope fit.

    It must be strictly increasing, hold at least 3 points and span at
    least 40 dB.
    """
    if any(b <= a for a, b in zip(p_db, p_db[1:])):
        raise ValueError("power grid must be strictly increasing")
    if len(p_db) < 3:
        raise ValueError("power grid needs at least 3 points")
    if p_db[-1] - p_db[0] < 40.0 - 1e-9:
        raise ValueError("power grid must span at least 40 dB")


def estimate_dof(plan: SchemePlan, p_grid: list[SnrPoint], n_trials: int, seed: int) -> DofEstimate:
    """Fit the per-user rate slopes against log2(P) over a power grid.

    The grid must pass check_grid_db (at least 3 strictly increasing
    points spanning 40 dB) and match the plan's quality; the fit
    uses the top half of the grid (at least two points) to suppress the
    O(1) offsets that bias small-P slopes.  The slope standard error
    propagates the per-point Monte-Carlo errors through the least-squares
    weights.  Tiny negative fitted slopes are floored at 0 (pre-logs are
    nonnegative; the raw rates stay available in points).
    """
    check_grid_db([s.p_db for s in p_grid])
    for s in p_grid:
        if s.quality != plan.quality:
            raise ValueError("p_grid quality mismatch with plan")

    points, stderrs = [], []
    for snr in p_grid:
        ledger = evaluate_plan(plan, snr, n_trials, seed)
        uses = ledger.channel_uses
        points.append((snr.log2p, ledger.user_rate[0] / uses, ledger.user_rate[1] / uses))
        stderrs.append((ledger.user_rate_stderr[0] / uses, ledger.user_rate_stderr[1] / uses))

    k = max(2, math.ceil(len(points) / 2))
    x = np.array([pt[0] for pt in points[-k:]])
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    weights = (x - xbar) / sxx

    slopes, errs = [], []
    for user in (1, 2):
        y = np.array([pt[user] for pt in points[-k:]])
        se = np.array([e[user - 1] for e in stderrs[-k:]])
        slopes.append(float((weights * y).sum()))
        errs.append(float(np.sqrt((weights ** 2 * se ** 2).sum())))

    return DofEstimate(
        points=tuple(points),
        point_stderr=tuple(stderrs),
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
    evals = _slot_evals(plan, snr, n_trials, seed)
    link_info = _resolve_links(plan, evals, snr.p)
    return {li.link.interference_id: li.effective_var for li in link_info.values()}
