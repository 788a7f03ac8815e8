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

All grid points are evaluated in one pass over the slots, a decode chunk
of whole slots at a time: as many as fit in _DRAW_BUDGET normals, at
least one, so 51 slots at 20 trials on a 4-point grid and one at 2000.
One pass serves every plan of a run (estimate_dofs): it walks the sorted
union of the plans' slot indices, and each (grid point, slot) stream is
drawn, scaled and projected once, for every plan that has that slot.
Each plan then decodes and settles its own slots of a chunk with its own
templates, outputs and queue (_PlanPass), so its numbers are those of a
pass of its own.  A chunk is drawn whole before it is scaled (below).
Each slot is drawn at every grid point, and a chunk's draws are stacked
on leading (slot, grid point) axes: one sample_channel call scales them,
and each precoder direction is projected once per chunk, with every
|gain|**2 taken once.  The decode wiring is resolved once, when the plan
is built (SchemePlan.shapes and SchemePlan.wiring, which validate_plan
reads too): the SIC order, the fresh groups, which links a slot carries
and which each user overhears there, each interference's received
exponent and the slot its groups wait for.  Slots of one shape (a cycled
plan's cycle positions) share one decode template, which the pass makes
once from the shape and the grid powers: power columns, rate caps and
each link's quantizer scale and demand.  The pass keeps no record of its
own per slot: a decode chunk is a range of positions in the union of slot
indices, each slot's shape, link rows and settle point are read from
SchemePlan.wiring in place, and its first rate row from one list of row
offsets, made once per pass and plan.  A chunk is decoded a plan and a
template at a time: the SIC MIs, link noise and cross minors of all of
the chunk's slots of one template run once, on (slot, grid point, trial)
arrays that are views of the chunk's gains when those slots step evenly
through it (always, for a chunk of one slot).  Step 1 is settled as the
template is decoded, and a carrier's decode writes its links' delivered
MI and residual into the pass's per-link output.  A link's carrier comes
after its source, so step 3 waits: a plan's part of a chunk waits whole,
in the plan's first-in-first-out queue, until the slot that its last
group settles after has been decoded.  It holds its template batches'
fresh power gains and the cross minors of the groups that get a side row;
then each group reads its residuals from its link rows.  After each
chunk, every ready part at the head of a plan's queue is settled, one
call per template batch, and each user's per-trial total then adds up
slot by slot in slot order (the slot's user-owned first-antenna layers,
then user 1's group, then user 2's), the same sums in the same order at
any chunk size.  Memory is bounded by the chunk size and the parts in
those queues, besides the per-layer and per-link results (NaN until
written), one row offset per slot and each plan's per-trial user totals,
which are freed once the plan's last slot has settled.  No preset carries
a link past the next cycle, so a queue stays a few chunks long; a link
carried far past its source holds every chunk decoded in between, and the
queue then grows with the plan.  The Python work is paid once per chunk
and template, not once per slot and grid point.

The chunk's arrays are buffers kept for the pass, made once at the chunk
size: the channels, the draw buffer, one estimate-shaped scratch and the
first antenna's power gains.  The fresh directions' power gains go into a
block that each chunk makes when it is projected, for the directions that
any plan's slots of it use, and that is freed once every plan's part of
the chunk has settled, so no block is written while a chunk that reads it
waits.  The complex gains are made one estimate at a time and dropped as
soon as the cross minors that read them are formed; each minor keeps its
operands' order, as numpy's complex product need not be bitwise
commutative.  The pass returns arrays over the grid per plan;
estimate_dofs fits the per-user ones (estimate_dof is estimate_dofs of
one plan), and a RateLedger is built only at one point (evaluate_plan).

residual_power_probe is that one-point ledger, read off as
RateLedger.link_noise: step 2's effective residual variance per link.  Its
log-slope in P is 0 for a sound plan.

Every layer of a plan that builds is decoded, either by SIC (a
first-antenna layer) or in its user's jointly decoded group (any other
layer).  Building the plan refuses what would break that: a common layer
off the first antenna, a vanishing pre-log or power, a repeated (owner,
precoder) in a slot, a link whose source, overheard interference or common
carrier is missing or whose carrier is not after its source, and a carrier
shared by two links.  What validate_plan still reports, and evaluate_plan,
estimate_dof and estimate_dofs refuse with PlanValidationError, are design
faults only; estimate_dofs validates every plan before the first stream is
seeded.

Rates are mutual informations, not symbol-error simulations: the point is
the high-SNR slope, estimated by least squares on the top half of a power
grid that check_grid_db accepts (ExperimentConfig runs the same check up
front).  Per-layer entries of a jointly decoded vector are the joint rate
split proportionally to each symbol's genie-aided (others-known) rate, so
they sum to the joint rate and keep each symbol's pre-log.

Channels come from one stream per (grid point, slot), keyed by the seed
too; channel.py's module docstring states the keys, the draw layout, the
seeding and the reseeds.  So results are reproducible for a given (seed,
trial count, grid) however the work is ordered, and schemes compared on
one grid read the same channels, which one estimate_dofs pass draws only
once.  The pass seeds all of its streams on the calling thread, once,
before the first chunk is drawn, and keeps only their PCG64 starts, a
slice of them per chunk.

The draw schedule.  The pass's draw buffer is (part, slot, grid point) +
a stream's row, and its parts are filled in turn, a chunk to a part.
Every chunk is handed over one part ahead, as its streams' starts, its
rows and a deque of their positions: the first chunk of each part before
the decode tables are made, and each later one as soon as the chunk
before it in its part has been scaled.  Where a chunk is one slot, the
buffer has two parts, and one worker thread, kept for the whole pass
however many plans it serves, starts on each deque at once, from the
front, so the next chunk is drawn while this one decodes.  When the
calling thread needs the chunk, it draws from the back the rows that the
worker has not taken and then waits only for the row that the worker is
drawing; standard_normal releases the GIL, so both draw at once.  Where a
chunk holds more slots, the buffer has one part and no thread is started:
the calling thread draws each chunk whole right before it scales it.
There a row is a few hundred normals, and two threads would trade the GIL
for every reseed, which cost about what drawing beside the decode saved
where the host ran both threads at once, and far more where it did not
(BENCH_inline_draws.json).  The worker calls nothing but _draw;
sample_channel and unit run on the calling thread only, where the
benchmark's tracer (perfbench/tracing.py) keeps its one span stack.

The pass writes each chunk's errors into its true channels (sample_channel
adds the estimates in place, with the same bits) and then conjugates the
true channels in place, once, so every projection is a product and a sum
(_project).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

# orth_complement is not called here (_orth derives it from unit), but the
# benchmark's tracer (perfbench/tracing.py) patches it under this module
from .channel import ChannelRealization, SnrPoint, orth_complement, sample_channel, unit  # noqa: F401
from .channel import _db_key, _dot, _draw, _orth, _pcg_states, _row, _seed_words
from .geometry import DofPoint
from .schemes import _DIRECTIONS, _USERS, OWNER_COMMON, SchemePlan, SlotShape, SymbolLayer, _require_int, validate_plan

__all__ = [
    "RateLedger",
    "DofEstimate",
    "PlanValidationError",
    "evaluate_plan",
    "estimate_dof",
    "estimate_dofs",
    "check_grid_db",
    "residual_power_probe",
]

_DRAW_BUDGET = 2 ** 16  # normals per decode chunk: as many whole slots as fit, at least one
_PRECISION_CEILING = 30.0  # largest alpha2 * dB / 10 that check_grid_db accepts


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


def _project(true_conj, est, directions, a, power_gain):
    """Each direction's receive gains at user 1 and user 2: |gain|**2 is
    written into power_gain[d], the chunk's power-gain block, and the
    complex gains off the first antenna are yielded, one estimate at a time,
    as a dict from direction to a new array.  Each has the user on its
    leading axis.

    true_conj holds the conjugated true channels of user 1 and user 2 and
    est their estimates, each with leading axes before the trial axis;
    directions are the indices in _DIRECTIONS to project, each once.  a is
    scratch shaped like an estimate.  Each estimate that a direction needs
    is normalised once, into a: along(k) reads unit of user k's estimate as
    it is, and orth_to(k) turns it into the orth vector in place, so along
    goes first.  The estimate is not read again, so its buffer then holds
    _dot's products.  The first antenna gets power gains only: its layers
    are decoded by SIC, which reads nothing else.
    """
    if 0 in directions:
        # contiguous copies, in a before it holds a unit vector: on the
        # strided (slot, point, trial) view itself, np.abs ran about 40x
        # slower
        first = a.reshape((2,) + a.shape[:-1])
        for u in (0, 1):
            np.copyto(first[u, ...], true_conj[u][..., 0])
        np.square(np.abs(first, out=power_gain[0]), out=power_gain[0])
    for user in (1, 2):
        mine = sorted((d for d in directions if d and _DIRECTIONS[d].user == user),
                      key=lambda d: _DIRECTIONS[d].kind == "orth")
        if not mine:
            continue
        prod = est[user - 1]
        unit(prod, out=a)
        gain = {}
        for d in mine:
            g = gain[d] = np.empty((2,) + a.shape[:-1], complex)
            if _DIRECTIONS[d].kind == "orth":
                _orth(a, g[0, ...])  # its copy goes where the gain is written next
            for u in (0, 1):
                _dot(true_conj[u], a, prod, g[u, ...])
            np.square(np.abs(g, out=power_gain[d]), out=power_gain[d])
        yield gain


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
    directions: tuple  # the _DIRECTIONS indices its layers use, increasing


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
            tuple(sorted({d for g in shape.groups for d in g.directions} | ({0} if shape.sic else set()))),
        )

    return [template(shape) for shape in plan.shapes]


class _Batch(NamedTuple):
    """A template's slots from one decode chunk, along a leading slot axis,
    settled in one go once the plan's whole part of the chunk is ready."""

    template: _Template
    size: int  # its slots
    rows: slice | np.ndarray  # its slots' first rate rows, as _take indexes them
    links: list  # per link column, its slots' link rows as _take indexes them (None: no link there)
    power_gain: dict  # direction -> the users' |gain|**2, for the directions of the template's groups
    bits: list  # (user, per-trial bits) of the user-owned first-antenna layers
    minors: list  # each group's cross minors, 0 without a side row


class _PlanPass:
    """One plan's part of a grid pass: its decode templates, its outputs and
    the queue of its decode chunks that wait to settle.

    The pass draws, scales and projects each chunk of the sorted union of
    its plans' slot indices once, for every plan; each plan then decodes
    and settles its own slots of the chunk from the chunk's gains, with
    nothing of its own shared, so its results are the same whichever plans
    share the pass.
    """

    def __init__(self, plan: SchemePlan, slots: tuple, ps: list[float], n_trials: int):
        self.slots, self.wiring, self.n_trials = slots, plan.wiring, n_trials
        self.templates = _compile(plan, ps)
        # each slot's first rate row, then the end
        self.starts = list(accumulate((len(s.layers) for s in slots), initial=0))
        self.rate = np.full((self.starts[-1], len(ps)), np.nan)
        # delivered MI, effective noise; NaN until decoded
        self.link_out = np.full((2, len(plan.links), len(ps)), np.nan)
        self.totals = None  # per-user bits per run, (2, point, trial): made when the first slot settles
        # (largest settle_after, lo, hi, {shape number: _Batch}) per chunk part not yet settled
        self.waiting: deque = deque()
        self.decoded = 0  # its slots at plan positions [0, decoded) are decoded
        self.result = None  # (rate, link_out, mean, stderr), once every slot has settled

    def trial_mean(self, x):
        # x.mean(axis=-1), bit for bit, without its Python-level wrapper
        return np.add.reduce(x, axis=-1) / self.n_trials

    def split(self, indices: list[int], lo: int, hi: int) -> dict[int, tuple]:
        """Its slots in the chunk that holds the union's slots indices[lo:hi],
        by shape number: their plan positions, and their positions in the
        chunk as _take indexes them.  Both lists are sorted, so its slots
        not yet decoded are matched in one walk over the chunk."""
        parts: dict[int, tuple[list[int], list[int]]] = {}
        p, slots = self.decoded, self.slots
        for q in range(lo, hi):
            if p < len(slots) and slots[p].index == indices[q]:
                part, at = parts.setdefault(self.wiring[p].shape, ([], []))
                part.append(p)
                at.append(q - lo)
                p += 1
        return {n: (part, _take(at)) for n, (part, at) in parts.items()}

    def decode(self, t: _Template, part: list[int], at, power_gain, minors) -> _Batch:
        # the first-antenna layers of the slots at plan positions part (at
        # `at` in the chunk), at every grid point; minors are each group's
        # cross minors there
        power_gain = {d: (power_gain[d][0][at], power_gain[d][1][at]) for d in t.directions}
        rows = _take([self.starts[p] for p in part])
        links = [_take(list(col)) if col[0] >= 0 else None for col in zip(*(self.wiring[p].links for p in part))]
        mi1, mi2 = _common_mis(t.sic_power, t.fresh, power_gain)
        rate, link_out, trial_mean = self.rate, self.link_out, self.trial_mean
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
        return _Batch(t, len(part), rows, links, {d: power_gain[d] for d, _ in t.fresh}, bits, minors)

    def settle(self, b: _Batch):
        # each user's fresh layers in b's slots decode jointly.  The direct
        # observation's noise is 1 + the residual of the linked
        # own-interference, or the other user's layers at their true leakage
        # powers when nothing was quantized; the side observation (when the
        # group's image at the other user is linked) carries only the
        # quantization error.  Every link row read here was filled when its
        # carrier was decoded: b's chunk part waits whole until the slot that
        # its last group settles after has been decoded.  Returns each slot's
        # (user, per-trial bits) additions, in the order they add up.
        t, power_gain, link_out = b.template, b.power_gain, self.link_out
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
                self.rate[_shift(b.rows, k)] = self.trial_mean(share)
        return [[(user, x[j]) for user, x in b.bits + joints] for j in range(b.size)]

    def add(self, share: dict[int, tuple], block: dict, minors: dict) -> None:
        """Decode its slots of a chunk (split's share) from the chunk's
        power-gain block and cross minors ((self, shape number, user) ->
        minors), queue them, and settle every ready part at the head of the
        queue.  The part's batches wait, holding views of the block for
        their fresh directions, until the slot that its last group settles
        after has been decoded."""
        lo, hi = self.decoded, max(part[-1] for part, _ in share.values()) + 1
        batches = {n: self.decode(self.templates[n], part, at, block, [minors.get((self, n, u), 0) for u in (0, 1)])
                   for n, (part, at) in share.items()}
        self.decoded = hi
        self.waiting.append((max(w.settle_after for w in self.wiring[lo:hi]), lo, hi, batches))
        while self.waiting and self.waiting[0][0] <= self.slots[hi - 1].index:
            if self.totals is None:  # so that plans whose first slots wait for a carrier hold none meanwhile
                self.totals = np.zeros((2,) + self.rate.shape[1:] + (self.n_trials,))
            _, start, stop, done = self.waiting.popleft()
            additions = {n: iter(self.settle(b)) for n, b in done.items()}
            for w in self.wiring[start:stop]:
                for user, x in next(additions[w.shape]):
                    self.totals[user] += x
        if hi == len(self.slots):
            # every slot has settled: keep (rate, link_out, mean, stderr), and
            # free the per-trial totals while other plans still decode
            totals, n_trials = self.totals, self.n_trials
            stderr = totals.std(axis=-1, ddof=1) / math.sqrt(n_trials) if n_trials > 1 else np.zeros(totals.shape[:2])
            self.result = self.rate, self.link_out, totals.mean(axis=-1), stderr
            del self.totals


def _evaluate_grid(plans: list[SchemePlan], snrs: list[SnrPoint], n_trials: int, seed: int) -> list[tuple]:
    """One pass over the slots of every plan at every grid point of snrs:
    per plan, arrays with one column per point, (rate, link_out, mean,
    stderr): each layer's mean rate (rows in plan order), each link's
    delivered MI and effective noise (2 x link, in plan.links order), and
    each user's per-run bits and Monte-Carlo stderr.  The module docstring
    states how the pass walks, draws, decodes and settles the chunks.

    No validate_plan here: the public callers that need a sound plan run it
    first, and SchemePlan has already checked the links.  n_trials must be
    an integer >= 1 and seed one >= 0 (bools refused, as in
    ExperimentConfig); both are checked before any stream is seeded, and
    so are the plans, which share the grid's quality.  Grid point k's trial
    i reads row i of the stream keyed by (seed, the point's power, slot
    index), so a point's numbers do not depend on the rest of the grid, the
    other plans, the chunk size, which thread draws a row or thread timing.
    A draw that raises on the worker thread re-raises here; one on this
    thread raises directly.
    """
    _require_int("n_trials", n_trials, 1)
    _require_int("seed", seed, 0)
    if not plans:
        raise ValueError("the grid pass needs at least one plan")
    if any(s.quality != plan.quality for plan in plans for s in snrs):
        raise ValueError("SNR point and plan disagree on CSIT quality")
    ps = [s.p for s in snrs]
    own = [plan.all_slots() for plan in plans]
    indices = sorted({s.index for slots in own for s in slots})  # the union of the plans' slot indices

    def decode_chunk(lo: int, hi: int, stack):
        # the chunk holds the slots at union positions [lo, hi).  Each plan
        # with slots there decodes them from the chunk's one power-gain
        # block, made for the directions that any of them uses
        shares = [(pp, share) for pp in passes if (share := pp.split(indices, lo, hi))]
        directions = sorted({d for pp, share in shares for n in share for d in pp.templates[n].directions})
        block = {d: first[:, :hi - lo] if d == 0 else np.empty((2, hi - lo) + shape[1:]) for d in directions}
        # each group that gets a side row has its cross minors formed as soon
        # as its directions are projected (one estimate's, in every preset);
        # then the complex gains that no group still to come reads are dropped
        minors = {}  # (plan pass, shape number, user) -> the group's cross minors in this chunk
        pending = [((pp, n, u), *pp.templates[n].groups[u], at) for pp, share in shares
                   for n, (_, at) in share.items() for u in (0, 1) if pp.templates[n].groups[u][0].side_link >= 0]
        gain = {}
        for projected in _project((stack.h_true, stack.g_true), (stack.h_est, stack.g_est),
                                  directions, scratch[:hi - lo], block):
            gain |= projected
            del projected
            for key, g, powers, at in pending:
                u = key[2]
                if all(d in gain for d in g.directions):
                    minors[key] = _cross_minors([gain[d][u][at] for d in g.directions],
                                                [gain[d][1 - u][at] for d in g.directions], powers)
            pending = [entry for entry in pending if entry[0] not in minors]
            gain = {d: x for d, x in gain.items() if any(d in entry[1].directions for entry in pending)}
        for pp, share in shares:
            pp.add(share, block, minors)

    per_slot = len(ps) * math.prod(_row(n_trials))  # normals per slot
    chunk = max(1, _DRAW_BUDGET // per_slot)  # slots per decode chunk
    shared = chunk == 1  # a worker draws beside this thread, and the draw buffer has two parts
    chunk = min(len(indices), chunk)
    n_chunks = -(-len(indices) // chunk)
    normals = np.empty((min(n_chunks, 2 if shared else 1), chunk, len(ps)) + _row(n_trials))
    states = _pcg_states(_seed_words(seed, [_db_key(snr.p_db) for snr in snrs], indices))
    with ThreadPoolExecutor(max_workers=1) if shared else nullcontext() as pool:
        worker_rng = np.random.Generator(np.random.PCG64(0)) if pool else None

        def hand_over(k):
            # chunk k: its streams' PCG64 starts, their rows of buffer part
            # k % len(normals) and a deque of their positions, which a worker
            # starts on at once, from the front
            rows = normals[k % len(normals)].reshape((-1,) + _row(n_trials))
            streams = states[k * chunk:(k + 1) * chunk].reshape(-1, states.shape[-1])
            queue = deque(range(len(streams)))
            return queue, streams, rows, pool.submit(_draw, worker_rng, queue.popleft, streams, rows) if pool else None

        drawn = deque(hand_over(k) for k in range(len(normals)))
        passes = [_PlanPass(plan, slots, ps, n_trials) for plan, slots in zip(plans, own)]
        shape = (chunk, len(ps), n_trials)
        bufs = {name: np.empty(shape + (2,), complex) for name in ("h_true", "g_true", "h_est", "g_est")}
        # sample_channel writes each error into its channel and adds the
        # estimate in place: the same bits, and no error is read after that
        bufs["h_err"], bufs["g_err"] = bufs["h_true"], bufs["g_true"]
        # the projection's scratch and the first antenna's power gains, which
        # are read only while a chunk decodes, so every chunk's power-gain
        # block shares this one array
        scratch = np.empty(shape + (2,), complex)
        first = np.empty((2,) + shape)
        rng = np.random.Generator(np.random.PCG64(0))
        for k in range(n_chunks):
            lo, hi = k * chunk, min(len(indices), (k + 1) * chunk)
            queue, streams, rows, future = drawn.popleft()
            _draw(rng, queue.pop, streams, rows)  # what no worker has taken, from the back
            if future:
                future.result()  # the row the worker is drawing
            stack = ChannelRealization(**{name: buf[:hi - lo] for name, buf in bufs.items()})
            sample_channel(snrs, normals[k % len(normals), :hi - lo], size=n_trials, out=stack)
            if k + len(normals) < n_chunks:
                drawn.append(hand_over(k + len(normals)))  # into the part just scaled, while this chunk decodes
            for true in (stack.h_true, stack.g_true):
                np.conjugate(true, out=true)  # each gain is conj(true) . direction
            decode_chunk(lo, hi, stack)

    return [pp.result for pp in passes]


def _point_ledger(plan: SchemePlan, snr: SnrPoint, n_trials: int, seed: int) -> RateLedger:
    """The grid pass at the single point snr, as a RateLedger."""
    rate, link_out, mean, stderr = (a[..., 0].tolist() for a in _evaluate_grid([plan], [snr], n_trials, seed)[0])
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
    if diags := validate_plan(plan):
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
    return estimate_dofs([plan], p_grid, n_trials, seed)[0]


def estimate_dofs(plans: list[SchemePlan], p_grid: list[SnrPoint], n_trials: int, seed: int) -> list[DofEstimate]:
    """estimate_dof of each plan, in order, from one pass over the union of
    their slots: each (grid point, slot index) stream is drawn, scaled and
    projected once for every plan that has that slot, and each estimate is
    == to estimate_dof of its plan alone.

    The plans must be at least one and share the grid's quality.  The grid
    is checked and every plan validated before the first stream is seeded,
    so a plan that fails validation (PlanValidationError) costs no work.
    """
    for plan in plans:
        check_grid_db([s.p_db for s in p_grid], plan.quality.alpha2)
    for plan in plans:
        _require_valid(plan)
    return [_fit(plan, p_grid, mean, stderr)
            for plan, (_, _, mean, stderr) in zip(plans, _evaluate_grid(plans, p_grid, n_trials, seed))]


def _fit(plan: SchemePlan, p_grid: list[SnrPoint], mean: np.ndarray, stderr: np.ndarray) -> DofEstimate:
    """estimate_dof's slope fit of one plan's per-run bits over the grid."""
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
