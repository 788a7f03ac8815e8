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
of whole slots at a time: as many as fit in _DRAW_BUDGET normals, at
least one, so 51 slots at 20 trials on a 4-point grid and one at 2000.
One pass serves every plan of a run (estimate_dofs): it walks the sorted
union of the plans' slot indices, and each (grid point, slot) stream is
drawn, scaled and projected once, for every plan that has that slot.
Each plan then decodes and settles its own slots with its own templates,
outputs and queue (_PlanPass), so its numbers are those of a pass of its
own.  A chunk is drawn whole before it is scaled (below).  Each slot is
drawn at every grid point, and a chunk's draws are stacked on leading
(slot, grid point) axes: one sample_channel call scales them, and each
precoder direction is projected once per chunk, with every |gain|**2
taken once.  The decode index is made once, when the plan is built, and
validate_plan reads it too (see schemes): the SIC order, the fresh
groups, which links a slot carries and which each user overhears there,
each interference's received exponent, the slot its groups wait for, each
shape's slots and link rows, each slot's first rate row and how many
additions to each user's totals come before it.  Slots of one shape (a
cycled plan's cycle positions) share one decode template, which the pass
makes once from the shape and the grid powers: power columns, rate caps
and each link's quantizer scale and demand.

Draw chunks and parts.  Slots are decoded a draw chunk at a time and
settled a part at a time.  A part is two draw chunks where a chunk holds
more than one slot (the last part may be one, and may be short), and
one chunk, so one slot, where it does not.  Both are ranges of
positions in the union of slot indices; a one-plan pass's union is the
plan's own slots, and the pass's only per-slot table is, beside another
plan, each shape's slots' positions there (_PlanPass).  The rest it reads
off the plan's index in place, so splitting, decoding and settling are
array operations per template batch, with no Python per slot, link or
addition.  A chunk is decoded a plan and a template at a time: the SIC
MIs (both users' in one set of operations), link noise and cross minors
of all of the chunk's slots of one template run once, on (user, slot,
grid point, trial) arrays that are views of the chunk's gains when those
slots step evenly through it (always, for a chunk of one slot).  Step 1
is settled as the template is decoded, and a carrier's decode writes its
links' delivered MI and residual into the pass's per-link output.  A
link's carrier comes after its source, so step 3 waits: a plan's part
waits whole, in the plan's first-in-first-out queue, until the slot that
its last group settles after has been decoded, as a rule one in the next
part's first chunk.  A waiting part keeps its template batches' fresh
power gains (the part's power-gain block, read at their slots), the bits of their
user-owned first-antenna layers (the lesser of the two users' MIs) and the
cross minors of the groups that get a side row, each made once for the
part and written a chunk's slice at a time; then each group reads its
residuals from its link rows.  After each chunk, every ready part at the
head of a plan's queue is settled, one call per template batch of the
part, each writing its slots' additions in place into the part's stack:
row 0 a copy of the per-trial user totals, then each user's additions in
slot order (each slot's user-owned first-antenna layers, then its group).
One np.add.reduce along the stack's leading axis adds the rows up in turn
into the totals, the same bits as adding them one by one (at one grid
point and one trial, where numpy would sum the rows pairwise, _add_up
accumulates them instead); a user's single addition of a part, as in a
one-slot part, takes no stack and adds with one +=.  So each total adds
up slot by slot in slot order, the same sums in the same order at any
chunk or part size.  Memory is bounded by the part size and the parts in
those queues, besides the per-layer and per-link results (NaN until
written), the union positions and each plan's per-trial user totals,
which are freed once the plan's last slot has settled.  No preset carries
a link past the next cycle, so a queue stays a part or two long; a link
carried far past its source holds every part decoded in between, and the
queue then grows with the plan.  The Python work is paid once per chunk
and template to decode and once per part and template to settle, not
once per slot, link, addition or grid point.

The chunk's arrays are buffers kept for the pass, made once at the chunk
size: the channels, the draw buffer, one estimate-shaped scratch and the
first antenna's power gains.  Where no worker draws, the draw buffer lies
idle from a chunk's scaling until the next chunk's draw, so the scratch
and the first antenna's gains are made in it.  The fresh directions'
power gains go into a part's block, for the directions that any plan's
slots of the part use, and each chunk's projection writes its slice of
it.  A one-slot part makes its block when its chunk is projected, and it
is freed once every plan's part has settled.  Parts of two chunks take
theirs from a ring of three chunks kept for the pass, read forward by
even parts and backward by odd ones: so a part's first chunk lands where
the part before it, which waits for that chunk, keeps nothing, and its
second lands on the ring's middle chunk once that part has settled.  A
part that a part before it might still need the ring's memory for, as
behind a link carried far, makes a block of its own instead; no block is
written while a part that reads it waits.  The complex gains are made one
estimate at a time and dropped as soon as the cross minors that read
them are formed; each minor keeps its operands' order, as numpy's complex
product need not be bitwise commutative.  The pass returns arrays over
the grid per plan; estimate_dofs fits the per-user ones (estimate_dof is
estimate_dofs of one plan), and a RateLedger is built only at one point
(evaluate_plan).

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
from bisect import bisect_left
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# orth_complement is not called here (_orth derives it from unit), but the
# benchmark's tracer (perfbench/tracing.py) patches it under this module
from .channel import ChannelRealization, SnrPoint, orth_complement, sample_channel, unit  # noqa: F401
from .channel import _db_key, _dot, _draw, _orth, _pcg_states, _power, _row, _seed_words
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

_DRAW_BUDGET = 2 ** 16  # normals per draw chunk: as many whole slots as fit, at least one
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
    written into power_gain[d], the chunk's view of its part's power-gain
    block, and the complex gains off the first antenna are yielded, one
    estimate at a time, as a dict from direction to a new array.  Each has
    the user on its leading axis.

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
    power_gain maps each direction in _DIRECTIONS that they use to both
    users' |gain|**2, with the user on the leading axis (the first
    antenna's at 0), so both users' received powers and MIs are made in one
    set of operations.  Returns the MIs in decode order, each with the user
    on its leading axis.
    """
    if not sic_power:
        return []
    fresh_rx = _sum(power_gain[d] * col for d, col in fresh)
    rx = [power_gain[0] * col for col in sic_power]
    return [np.log2(1.0 + rx[i] / (_sum(rx[i + 1:] + [fresh_rx]) + 1.0)) for i in range(len(rx))]


def _cross_minors(direct, cross, powers, out=None):
    """det(A)'s Cauchy-Binet sum for two observation rows of a jointly
    decoded group, before the noise: sum over i < j of
    p_i p_j |d_i c_j - d_j c_i|**2, with d and c the layers' complex gains
    in the two rows (0 for a single layer), into out when it is given."""
    k = len(powers)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if not pairs:
        if out is None:
            return 0
        out[...] = 0.0
        return out
    for n, (i, j) in enumerate(pairs):
        term = np.multiply(powers[i] * powers[j], np.abs(direct[i] * cross[j] - direct[j] * cross[i]) ** 2,
                           out=None if n else out)
        if n:
            total += term  # the terms added left to right, as _sum adds them
        else:
            total = term
    return total


def _logdet_mi(rows, powers, minors=0, out=None):
    """log2 det(I + H Q H^H N^-1) for one or two observation rows, into out
    when it is given.

    rows is a list of (per-layer |gain|**2, noise variance); powers the
    per-layer transmit powers.  With a single row this reduces to the
    scalar SINR formula.  With two, det = 1 + a11 + a22 + det(A), and
    det(A) is the rows' _cross_minors over the two noises: a sum of
    nonnegative 2x2 minors, so nearly collinear rows lose no precision to
    cancellation.
    """
    abs1, n1 = rows[0]
    a11 = _sum(p * a for a, p in zip(abs1, powers)) / n1
    if len(rows) == 1:
        return np.log2(1.0 + a11, out=out)
    abs2, n2 = rows[1]
    a22 = _sum(p * a for a, p in zip(abs2, powers)) / n2
    return np.log2(1.0 + a11 + a22 + minors / (n1 * n2), out=out)


def _sum(terms):
    """sum(terms), added left to right, without the 0 + that builtin sum
    starts from (a whole-array copy with the same bits); 0 for no terms."""
    terms = iter(terms)
    total = next(terms, 0)
    for x in terms:
        total = total + x
    return total


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


def _sub(index, part: slice):
    """The entries part (a range) of a _take index, as a _take index."""
    if isinstance(index, slice):
        return slice(index.start + part.start * index.step, index.start + part.stop * index.step, index.step)
    return index[part]


def _add_up(stack: np.ndarray, out: np.ndarray) -> None:
    """stack's rows added up in turn along its leading axis, into out: row
    0, plus row 1, plus row 2, and so on.  np.add.reduce adds them so when
    its inner loop runs over the other axes; with one element a row numpy
    runs it along the rows instead, as a pairwise sum, so there they are
    accumulated in place (a sequential sum by definition)."""
    if stack[0].size > 1:
        np.add.reduce(stack, axis=0, out=out)
    else:
        out[...] = np.add.accumulate(stack, axis=0, out=stack)[-1]


@dataclass(frozen=True, eq=False)
class _Template:
    """The decode tables of one slot shape at the grid powers, shared by
    every slot of that shape (see _compile)."""

    shape: SlotShape
    groups: tuple  # (the shape's SlotGroup, its layers' (grid point, 1) power columns) of user 1 and of user 2
    fresh: tuple  # (direction, power column) per layer of the groups, user 1's first: what SIC reads as noise
    sic: tuple  # (position in the slot, user, rate cap) per first-antenna layer in decode order (common: user -1)
    sic_power: tuple  # their (grid point, 1) power columns
    carried: tuple  # (carrier's SIC rank, quantizer variance, demand) per link carried here, each per grid point


def _compile(plan: SchemePlan, ps: list[float]) -> list[_Template]:
    """One _Template per entry of plan.shapes, in that order, at the grid
    powers ps.

    All that does not depend on the powers is read off the plan's decode
    index, made when the plan was built: one SlotShape per way a slot
    decodes (SIC order, groups, carried links, directions, additions),
    which the template keeps, and the per-slot and per-shape tables that
    the pass reads in place.  So a template only attaches the powers: a
    power column per layer, rate caps, and each carried link's quantizer
    variance and demand.  A cycled plan has one shape per cycle position,
    however many cycles it has.  A common-owned first-antenna layer's rate
    cap is its encoding pre-log times log2(P): it carries no user bits,
    only the quantization bits it was built for; a user-owned one has no
    cap (inf).
    """
    log2p = np.array([math.log2(p) for p in ps])

    def column(l: SymbolLayer) -> np.ndarray:
        return np.array([l.power(p) for p in ps])[:, None]

    def template(shape: SlotShape) -> _Template:
        groups = tuple((g, tuple(column(shape.layers[k]) for k in g.positions)) for g in shape.groups)
        sic = [shape.layers[k] for k in shape.sic]
        return _Template(
            shape,
            groups,
            tuple(pair for g, cols in groups for pair in zip(g.directions, cols)),
            tuple((k, -1, l.encoding_prelog * log2p) if l.owner == OWNER_COMMON
                  else (k, _USERS.index(l.owner), math.inf) for k, l in zip(shape.sic, sic)),
            tuple(column(l) for l in sic),
            tuple((rank, np.array([p ** (e_src - q) for p in ps]), np.array([q * math.log2(p) for p in ps]))
                  for rank, q, e_src in shape.carried),
        )

    return [template(shape) for shape in plan.shapes]


class _Batch(NamedTuple):
    """A template's slots from one chunk part, along a leading slot axis,
    settled in one go once the plan's whole part is ready."""

    template: _Template
    firsts: list  # per user, its slots' first rows among the user's additions of their chunk part
    rows: slice | np.ndarray  # its slots' first rate rows, as _take indexes them
    links: list  # per link column, its slots' link rows as _take indexes them (None: no link there)
    power_gain: dict  # direction -> the users' |gain|**2 (user, slot, point, trial) in the part, for its groups
    at: slice | np.ndarray  # its slots' positions in the part, as _take indexes them
    owned: list  # (user, its bits: the lesser MI of the two users) per user-owned first-antenna layer
    minors: list  # each group's cross minors, 0 without a side row


class _PlanPass:
    """One plan's part of a grid pass: its decode templates, its outputs,
    the chunk part that it decodes and the queue of its parts that wait to
    settle.

    The pass draws, scales and projects each draw chunk of the sorted union
    of its plans' slot indices once, for every plan; each plan then decodes
    its own slots of the chunk from the chunk's gains, and settles them a
    chunk part at a time, with nothing of its own shared, so its results
    are the same whichever plans share the pass.

    It makes its templates (the grid powers) and, beside another plan, per
    slot shape its slots' positions in the union: alone, they are the
    plan's own slot positions (plan.members).  All else that it reads
    per slot is the plan's decode index, read in place: the shape numbers,
    settle positions, each shape's slots and link rows, each slot's first
    rate row and how many additions to each user's totals come before it.  A
    template batch is a range of one shape's slots, and reads their link
    rows as views.  Which of its slots a chunk or a part holds, and of
    which shapes, it finds by bisecting its union positions and counting
    shape numbers in a slice of a tuple: no numpy loop that the rest of the
    pass does not run, as each new one pages in more of numpy's code.  Each
    chunk part adds to a user's per-trial totals through one stack, (row,
    grid point, trial): row 0 is a copy of the totals, and the other rows
    are the user's additions in slot order (each slot's owned first-antenna
    layers' bits, then its group's joint rate), which settle writes in
    place.  _add_up then adds the rows up in turn along the stack's leading
    axis, the bits of a sequential +=, into the totals.  A single addition,
    as in each one-slot part, needs no stack: one += adds it.  One user's
    additions are made and added up before the other's, so a part holds no
    more than one user's additions at a time.
    """

    def __init__(self, plan: SchemePlan, union: list[int] | range, ps: list[float], n_trials: int):
        # union: each slot's position in the union of the pass's slot indices
        self.plan, self.union, self.n_trials = plan, union, n_trials
        self.templates = _compile(plan, ps)
        if isinstance(union, range):  # a pass of this plan alone: its slots are the union
            self.at = list(plan.members)  # each shape's slots' union positions
        else:
            at = np.array(union)
            self.at = [at[m] for m in plan.members]
        self.next = [0] * len(plan.shapes)  # per shape, its first slot not yet decoded
        self.rate = np.full((int(plan.starts[-1]), len(ps)), np.nan)
        # delivered MI, effective noise; NaN until decoded
        self.link_out = np.full((2, len(plan.links), len(ps)), np.nan)
        self.part = None  # the chunk part being decoded: (lo, hi, its block, per shape its slots' tables)
        # (largest settle_after, lo, hi, its _Batches) per chunk part not yet settled
        self.waiting: deque = deque()
        self.totals = None  # per-user bits per run, (2, point, trial): made when the first slot settles
        self.result = None  # (rate, link_out, mean, stderr), once every slot has settled

    def trial_mean(self, x):
        # x.mean(axis=-1), bit for bit, without its Python-level wrapper
        return np.add.reduce(x, axis=-1) / self.n_trials

    def split(self, lo: int, hi: int) -> dict[int, tuple]:
        """Its slots among the union's slots at positions [lo, hi), a draw
        chunk or a chunk part, by shape number: their range in the shape's
        slots (the plan's members), and their positions from lo as _take
        indexes them.  Each shape's slots not yet decoded come first in plan
        order, so they are the ones below hi."""
        start = sum(self.next)  # its slots at plan positions [0, start) are decoded
        ahead = self.plan.shape_of[start:bisect_left(self.union, hi, start)]
        share = {}
        for n in set(ahead):
            j = self.next[n]
            k = j + ahead.count(n)
            share[n] = (slice(j, k), _take((self.at[n][j:k] - lo).tolist()))
        return share

    def begin(self, share: dict[int, tuple], block: dict) -> None:
        """Start a chunk part: its slots there (split's share) and the
        part's power-gain block.  Per shape it keeps their rate and link
        rows and one array per user-owned first-antenna layer for its bits,
        which each draw chunk's decode writes its slots' slice of."""
        plan, shape = self.plan, self.rate.shape[1:] + (self.n_trials,)
        tables = {}
        for n, (part, at) in share.items():
            m = plan.members[n][part]  # their plan positions
            tables[n] = (part, at, _take(plan.starts[m].tolist()),
                         [_take(col) if col[0] >= 0 else None for col in plan.link_rows[n][part].T.tolist()],
                         [(user, np.empty((len(m),) + shape)) for _, user, _ in self.templates[n].sic if user >= 0])
        lo = sum(self.next)
        self.part = lo, lo + sum(part.stop - part.start for part, _ in share.values()), block, tables

    def decode(self, n: int, part: slice, at, power_gain) -> None:
        # the first-antenna layers of the slots part of shape n (at `at` in
        # the draw chunk, whose gains power_gain holds) at every grid point:
        # their rates and the common ones' links' outputs; the owned ones'
        # bits go into their slice of the part's arrays, to wait for the
        # settle
        t = self.templates[n]
        whole, _, rows, links, owned = self.part[3][n]
        sub = slice(part.start - whole.start, part.stop - whole.start)  # their range among the part's
        rows = _sub(rows, sub)
        mis = _common_mis(t.sic_power, t.fresh, {d: power_gain[d][:, at] for d in t.shape.directions})
        rate, link_out, trial_mean = self.rate, self.link_out, self.trial_mean
        owned = iter(owned)
        for (k, user, cap), mi in zip(t.sic, mis):
            bits = np.minimum(mi[0], mi[1], out=next(owned)[1][sub] if user >= 0 else None)
            rate[_shift(rows, k)] = np.minimum(trial_mean(bits), cap)
        for j, (k, scale, demand) in enumerate(t.carried):
            mean = trial_mean(mis[k])
            at_link = _sub(links[j], sub)
            link_out[0, at_link] = mi = np.minimum(mean[0], mean[1])
            # the effective residual variance after the subtraction: the
            # quantizer's own rate-distortion variance (the source, received
            # at ~ P**e_src, described by quant_prelog * log2(P) bits, the
            # demand, down to P**(e_src - quant_prelog): exactly 1 for a sound
            # link), doubled for every bit the carrier delivers short of the
            # demand.  np.float_power is libm's pow, as Python's 2.0 ** x is
            link_out[1, at_link] = scale * np.float_power(2.0, np.fmax(0.0, demand - mi))

    def settle_part(self, lo: int, hi: int, batches: list) -> None:
        # the chunk part at plan positions [lo, hi), a user at a time: its
        # batches write the user's n additions in slot order into n rows,
        # which then add up into the user's totals.  More than one are rows
        # 1 to n of a stack whose row 0 is a copy of the totals; a single one
        # (a one-slot part) adds with one +=, the same bits, and no copy
        if self.totals is None:  # made when the first part settles, so that plans whose first slots wait hold none
            self.totals = np.zeros((2,) + self.rate.shape[1:] + (self.n_trials,))
        shape = self.totals.shape[1:]
        for u, n in enumerate((self.plan.added[:, hi] - self.plan.added[:, lo]).tolist()):
            if n:
                stack = np.empty((1 + n,) + shape) if n > 1 else None
                rows = np.empty((1,) + shape) if stack is None else stack[1:]
                for b in batches:
                    self.settle(b, u, rows)
                if stack is None:
                    self.totals[u] += rows[0]
                else:
                    stack[0] = self.totals[u]
                    _add_up(stack, self.totals[u])

    def settle(self, b: _Batch, u: int, out: np.ndarray) -> None:
        # user u's additions from b's slots, written in place into their
        # rows of out, user u's rows of their chunk part: the owned
        # first-antenna layers' bits, then the group's joint rate.  The
        # group's fresh layers decode jointly.  The direct observation's
        # noise is 1 + the residual of the linked own-interference, or the
        # other user's layers at their true leakage powers when nothing was
        # quantized; the side observation (when the group's image at the
        # other user is linked) carries only the quantization error.  Every
        # link row read here was filled when its carrier was decoded: b's
        # chunk part waits whole until the slot that its last group settles
        # after has been decoded.
        t, link_out, rate, trial_mean = b.template, self.link_out, self.rate, self.trial_mean
        if not t.shape.additions[u]:
            return

        def gain(d, v):  # user v's |gain|**2 along direction d at b's slots: a view where they step evenly
            return b.power_gain[d][v][b.at]

        group, powers = t.groups[u]
        at = _take(b.firsts[u])
        for user, bits in b.owned:
            if user == u:
                out[at] = bits
                at = _shift(at, 1)
        if not powers:
            return
        if group.own_link >= 0:
            own_noise = link_out[1, b.links[group.own_link], :, None]
        else:
            leak, leak_powers = t.groups[1 - u]
            own_noise = _sum(gain(d, u) * col for d, col in zip(leak.directions, leak_powers))
        rows = [([gain(d, u) for d in group.directions], 1.0 + own_noise)]
        if group.side_link >= 0:
            rows.append(([gain(d, 1 - u) for d in group.directions],
                         link_out[1, b.links[group.side_link], :, None]))
        # in place where at is a slice, else copied there
        joint = _logdet_mi(rows, powers, b.minors[u], out=out[at] if isinstance(at, slice) else None)
        if not isinstance(at, slice):
            out[at] = joint
        if len(powers) == 1:
            shares = [joint]
        else:
            # genie-aided rates (the group's other layers known): MRC of all
            # observation rows against noise only
            genie = [np.log2(1.0 + _sum(a[i] / n for a, n in rows) * powers[i]) for i in range(len(powers))]
            total = _sum(genie)
            positive = total > 0.0
            safe = np.where(positive, total, 1.0)
            shares = (np.where(positive, joint * g / safe, 0.0) for g in genie)
        for k, share in zip(group.positions, shares):
            rate[_shift(b.rows, k)] = trial_mean(share)

    def add(self, share: dict[int, tuple], block: dict, minors: dict) -> None:
        """Decode its slots of a draw chunk (split's share) from the chunk's
        gains, its views of the part's power-gain block.  Once the part's
        last slot is decoded, queue the part, with the cross minors of its
        groups ((self, shape number, user) -> their minors in the part),
        and after each chunk settle every ready part at the head of the
        queue.  A queued part's batches hold views of its block for their
        fresh directions until the slot that its last group settles after
        has been decoded."""
        for n, (part, at) in share.items():
            self.decode(n, part, at, block)
            self.next[n] = part.stop
        decoded = sum(self.next)  # its slots at plan positions [0, decoded) are decoded
        lo, hi, part_block, tables = self.part
        if decoded == hi:
            plan, batches = self.plan, []
            for n, (part, at, rows, links, owned) in tables.items():
                t, m = self.templates[n], plan.members[n][part]
                batches.append(_Batch(t, (plan.added[:, m] - plan.added[:, lo, None]).tolist(), rows, links,
                                      {d: part_block[d] for d, _ in t.fresh}, at, owned,
                                      [minors.get((self, n, u), 0) for u in (0, 1)]))
            self.waiting.append((max(plan.settle_after[lo:hi]), lo, hi, batches))
            self.part = None
        while self.waiting and self.waiting[0][0] < decoded:
            self.settle_part(*self.waiting.popleft()[1:])
        if decoded == len(self.plan.shape_of):
            # every slot has settled: keep (rate, link_out, mean, stderr), and
            # free the per-trial totals while other plans still decode
            totals, n_trials = self.totals, self.n_trials
            del self.totals
            stderr = totals.std(axis=-1, ddof=1) / math.sqrt(n_trials) if n_trials > 1 else np.zeros(totals.shape[:2])
            self.result = self.rate, self.link_out, totals.mean(axis=-1), stderr


def _evaluate_grid(plans: list[SchemePlan], snrs: list[SnrPoint], n_trials: int, seed: int) -> list[tuple]:
    """One pass over the slots of every plan at every grid point of snrs:
    per plan, arrays with one column per point, (rate, link_out, mean,
    stderr): each layer's mean rate (rows in plan order), each link's
    delivered MI and effective noise (2 x link, in plan.links order), and
    each user's per-run bits and Monte-Carlo stderr.  The module docstring
    states how the pass walks, draws, decodes and settles.

    In short: slots are drawn, scaled, projected and decoded (SIC and
    links) a draw chunk at a time, and settled (the groups, into the
    totals) a part at a time.  A part spans two draw chunks where a chunk
    holds more than one slot, and is the chunk's one slot where it does
    not.  A decoded part waits until the carriers its groups read have
    been decoded, as a rule those in the next part's first chunk, and
    keeps till then its fresh power gains (views of its block in the
    ring, or of its own), the bits of its user-owned first-antenna layers
    and its groups' cross minors.

    No validate_plan here: the public callers that need a sound plan run it
    first, and SchemePlan has already checked the links.  n_trials must be
    an integer >= 1 and seed one >= 0 (bools refused, as in
    ExperimentConfig); both are checked before any stream is seeded, and
    so are the plans, which share the grid's quality, and every point,
    which must be at most the precision ceiling (_require_precise), so
    every rate entry point refuses a point above it.  Grid point k's trial
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
    for s in snrs:
        _require_precise(s.p_db, s.quality.alpha2)
    ps = [s.p for s in snrs]
    own = [plan.all_slots() for plan in plans]
    if len(plans) == 1:  # the union is the plan's own slots, in plan order
        indices, positions = [s.index for s in own[0]], [range(len(own[0]))]
    else:
        indices = sorted({s.index for slots in own for s in slots})  # the union of the plans' slot indices
        union = {index: k for k, index in enumerate(indices)}
        positions = [[union[s.index] for s in slots] for slots in own]

    def begin_part(lo: int, hi: int, q: int) -> tuple:
        # part q holds the slots at union positions [lo, hi).  Each plan
        # with slots there starts it, and the part's power-gain block and
        # cross minors are made for the directions and side-row groups of
        # all of them: (each plan's share, directions, block, minors).  The
        # block is the ring's, read forward for an even q and backward for
        # an odd one, where no part that keeps gains there still waits when
        # this part's chunks are projected: a part read the same way must
        # have settled, and the part before it must settle once this part's
        # first chunk is decoded (its second overwrites the ring's middle)
        shares = {pp: share for pp in passes if (share := pp.split(lo, hi))}
        directions = sorted({d for pp, share in shares.items() for n in share for d in pp.templates[n].shape.directions})
        if ring and wait[q % 2] < lo and wait[1 - q % 2] < lo + chunk:
            block = {d: (ring[d] if q % 2 == 0 else ring[d][:, ::-1])[:, :hi - lo] for d in directions if d}
        else:
            block = {d: np.empty((2, hi - lo) + shape[1:]) for d in directions if d}
        minors = {(pp, n, u): np.empty((part.stop - part.start,) + shape[1:]) for pp, share in shares.items()
                  for n, (part, _) in share.items() for u in (0, 1) if pp.templates[n].groups[u][0].side_link >= 0}
        for pp, share in shares.items():
            pp.begin(share, block)
        return shares, directions, block, minors

    def decode_chunk(lo: int, hi: int, stack, part_lo: int, parts: dict, directions, block, minors) -> None:
        # the chunk holds the slots at union positions [lo, hi) of the part
        # from part_lo.  Each plan with slots there decodes them from the
        # chunk's gains: its view of the part's power-gain block, for every
        # direction of the part
        shares = parts.items() if span == 1 else [(pp, share) for pp in parts if (share := pp.split(lo, hi))]
        gains = {d: first[:, :hi - lo] if d == 0 else block[d][:, lo - part_lo:hi - part_lo] for d in directions}
        # each group that gets a side row has its cross minors formed, into
        # its slots' range of the part's minors, as soon as its directions
        # are projected (one estimate's, in every preset); then the complex
        # gains that no group still to come reads are dropped
        pending = []
        for pp, share in shares:
            for n, (part, at) in share.items():
                start = parts[pp][n][0].start
                for u in (0, 1):
                    group, powers = pp.templates[n].groups[u]
                    if group.side_link >= 0:
                        pending.append((u, group, powers, at, minors[pp, n, u][part.start - start:part.stop - start]))
        gain = {}
        for projected in _project((stack.h_true, stack.g_true), (stack.h_est, stack.g_est),
                                  directions, scratch[:hi - lo], gains):
            gain |= projected
            del projected
            later = []
            for u, group, powers, at, out in pending:
                if all(d in gain for d in group.directions):
                    _cross_minors([gain[d][u][at] for d in group.directions],
                                  [gain[d][1 - u][at] for d in group.directions], powers, out)
                else:
                    later.append((u, group, powers, at, out))
            pending = later
            gain = {d: x for d, x in gain.items() if any(d in entry[1].directions for entry in pending)}
        for pp, share in shares:
            pp.add(share, gains, minors)

    per_slot = len(ps) * math.prod(_row(n_trials))  # normals per slot
    chunk = max(1, _DRAW_BUDGET // per_slot)  # slots per draw chunk
    shared = chunk == 1  # a worker draws beside this thread, and the draw buffer has two parts
    span = 1 if shared else 2  # draw chunks per chunk part
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
        passes = [_PlanPass(plan, at, ps, n_trials) for plan, at in zip(plans, positions)]
        shape = (chunk, len(ps), n_trials)
        bufs = {name: np.empty(shape + (2,), complex) for name in ("h_true", "g_true", "h_est", "g_est")}
        # sample_channel writes each error into its channel and adds the
        # estimate in place: the same bits, and no error is read after that
        bufs["h_err"], bufs["g_err"] = bufs["h_true"], bufs["g_true"]
        # the projection's scratch and the first antenna's power gains, which
        # are read only while a chunk decodes, so every chunk shares them:
        # where no worker draws, they are made in the draw buffer, idle from
        # a chunk's scaling until the next chunk's draw
        if shared:
            scratch, first = np.empty(shape + (2,), complex), np.empty((2,) + shape)
        else:
            idle, size = normals.reshape(-1), math.prod(shape)
            scratch = idle[:4 * size].view(complex).reshape(shape + (2,))
            first = idle[4 * size:6 * size].reshape((2,) + shape)
        # where a pass has several parts of two chunks, the fresh
        # directions' power gains go into a ring of three chunks, kept for
        # the pass: a part waits, as a rule, only for the first chunk of the
        # next, and that chunk's gains go where the waiting part keeps none
        ring = {d: np.empty((2, (span + 1) * chunk) + shape[1:])
                for d in sorted({d for pp in passes for s in pp.plan.shapes for d in s.directions if d})
                } if 1 < span < n_chunks else {}
        wait = [-1, -1]  # per way of reading the ring, the last union position that a part read so waits for
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
            if k % span == 0:
                part_lo, part = lo, begin_part(lo, min(len(indices), lo + span * chunk), k // span)
            decode_chunk(lo, hi, stack, part_lo, *part)
            if ring and (k + 1) % span == 0:
                q = k // span % 2
                wait[q] = max([wait[q]] + [pp.union[entry[0]] for pp in passes for entry in pp.waiting])

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
    ValueError on a quality mismatch, on a point above the precision
    ceiling that check_grid_db applies to grids (alpha2 * dB / 10 <= 30),
    or when n_trials is not an integer >= 1 or seed not one >= 0, each
    before any stream is seeded.  Deterministic for a given
    (seed, n_trials, snr), and equal to the same point of estimate_dof's grid.
    """
    _require_valid(plan)
    return _point_ledger(plan, snr, n_trials, seed)


def _require_precise(p_db: float, alpha2: float) -> None:
    """ValueError unless the power point p_db (in dB) is at most the
    precision ceiling at alpha2: alpha2 * dB / 10 <= 30.  Zero-forcing
    leakage cannot fall below about eps**2 ~ 1e-32 of the signal, so once
    the estimation error variance P**-alpha2 drops under ~1e-30 the rates
    come out wrong without any other sign (on sc-zf at alpha2 = 1, rate /
    log2 P reads 0.979 at 300 dB and 0.876 at 400 dB)."""
    if alpha2 * p_db / 10.0 > _PRECISION_CEILING:
        raise ValueError(f"power point {p_db} dB is above the precision ceiling at alpha2 = {alpha2}: "
                         f"alpha2 * dB / 10 must be at most {_PRECISION_CEILING:g}")


def check_grid_db(p_db: list[float], alpha2: float) -> None:
    """Reject a power grid (in dB) that cannot support the slope fit.

    Each point must be a power point that channel._require_power accepts:
    finite and above 0 dB, with P = 10**(dB/10) a finite float above 1
    (not rounding to 1, nor overflowing).  The points must be strictly
    increasing, at least 3 and span at least 40 dB.  No two may round to
    the same 0.001 dB, the stream key of their channel draws, or they would
    share draws that the slope stderr counts as independent.  They must
    also stay below the precision ceiling alpha2 * dB / 10 <= 30
    (_require_precise), which the grid pass applies to every point too, so
    single-point calls (evaluate_plan, residual_power_probe) refuse a
    point above it as well.  A point's dB there is the one read back from
    its power, 10 * log10(P), as the pass reads it.
    """
    powers = [_power(x) for x in p_db]
    if any(b <= a for a, b in zip(p_db, p_db[1:])):
        raise ValueError("power grid must be strictly increasing")
    if len(p_db) < 3:
        raise ValueError("power grid needs at least 3 points")
    for a, b in zip(p_db, p_db[1:]):
        if _db_key(a) == _db_key(b):
            raise ValueError(f"power grid points {a} and {b} dB share one channel stream (same dB to 0.001)")
    # judged on the dB that the grid pass reads back from the power
    # (SnrPoint.p_db), which can be an ulp above the dB given
    _require_precise(10.0 * math.log10(max(powers)), alpha2)
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
    of probing a deliberately mis-specified link).  A point above the
    precision ceiling (alpha2 * dB / 10 <= 30) raises ValueError, as in
    evaluate_plan, before any stream is seeded.
    """
    return _point_ledger(plan, snr, n_trials, seed).link_noise
