"""Declarative multi-slot transmission plans and the five scheme presets.

A plan is a list of slots; each slot stacks layers (one symbol or one
retransmitted quantized-interference message) with a precoder, a power of
the form  coef * P**exp - sub_coef * P**sub_exp  and an encoding pre-log.
Quantization links tie an overheard interference (the image of one user's
symbols at the other user's antenna) to the later common layer that
multicasts its quantized bits.

Preset catalogue (selected by CSIT quality (alpha1, alpha2), Delta = gap):

  ges12-asym   three-slot baseline designed for equal qualities, run with
               unequal ones; slot-3 symbol of user 1 is interference-limited
               and user 2 gives up Delta/3 DoF.
  case-i       two-slot cycle achieving ((1+alpha1)/2, 1); requires
               2*alpha2 - alpha1 >= 1.
  case-ii      three-slot cycle achieving the max-sum intersection point
               ((2+2*alpha1-alpha2)/3, (2+2*alpha2-alpha1)/3); requires
               2*alpha2 - alpha1 < 1.
  case-ii-alt  case-i flow with user 1's big-slot symbol turned down to
               P**alpha2, achieving (alpha2, 1); requires 2*alpha2-alpha1 < 1.
  sc-zf        single-slot superposition + zero-forcing, achieving
               (1, alpha1).

Layers whose encoding pre-log evaluates to <= 0 at the given quality are
dropped, together with any quantization link whose rate vanishes; the rate
accounting is unchanged by construction.  Each link is derived from the
built slot it is overheard in (_link), by the one overheard rule,
_source_exponent.

A plan resolves every slot's decode wiring once, when it is built.  Slots
that decode alike share one SlotShape: the SIC decode order of its
first-antenna layers, each user's jointly decoded group with its
directions and whether it reads an own and a side link, and each carried
link's carrier, quantization pre-log and source exponent.  Each slot keeps
only a SlotWiring: its shape, its link rows and the slot it waits for
(SchemePlan.shapes and SchemePlan.wiring).  validate_plan and the
evaluator's grid pass read that index and work none of it out again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .geometry import CsitQuality, DofPoint, contains, dof_region

__all__ = [
    "OWNER_USER1",
    "OWNER_USER2",
    "OWNER_COMMON",
    "PrecoderSpec",
    "orth_to",
    "along",
    "first_antenna",
    "SymbolLayer",
    "QuantizationLink",
    "SlotPlan",
    "SchemePlan",
    "SchemeConditionError",
    "build_ges12_asym",
    "build_case_i",
    "build_case_ii",
    "build_case_ii_alt",
    "build_sc_zf",
    "build_preset",
    "PRESET_NAMES",
    "validate_plan",
    "plan_as_dict",
]

OWNER_USER1 = "user1"
OWNER_USER2 = "user2"
OWNER_COMMON = "common"

_PRELOG_EPS = 1e-12


class SchemeConditionError(ValueError):
    """A preset was requested outside its quality-pair validity condition."""


def _require_int(name: str, value, low: int) -> None:
    """ValueError naming `name` unless value is an integer (not a bool) >= low:
    the one rule for n_cycles, n_trials and seed, wherever they are taken."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class PrecoderSpec:
    """Direction a layer is transmitted on.

    kind "orth"/"along" target the named user's estimated channel (its unit
    orthogonal complement / the unit estimate itself); "first_antenna" puts
    the layer on antenna 1 only, which is how common messages are stacked.
    """

    kind: str
    user: int | None = None

    def __post_init__(self):
        if self.kind not in ("orth", "along", "first_antenna"):
            raise ValueError(f"unknown precoder kind {self.kind!r}")
        if self.kind == "first_antenna":
            if self.user is not None:
                raise ValueError("first_antenna precoder takes no user")
        elif self.user not in (1, 2):
            raise ValueError("precoder user must be 1 or 2")


def orth_to(user: int) -> PrecoderSpec:
    return PrecoderSpec("orth", user)


def along(user: int) -> PrecoderSpec:
    return PrecoderSpec("along", user)


def first_antenna() -> PrecoderSpec:
    return PrecoderSpec("first_antenna")


# every direction a layer can be sent on, the first antenna first; a
# direction is its index here, and a user its index in _USERS
_DIRECTIONS = (first_antenna(), orth_to(1), orth_to(2), along(1), along(2))
_USERS = (OWNER_USER1, OWNER_USER2)


@dataclass(frozen=True)
class SymbolLayer:
    """One stacked signal component of a slot.

    Power at transmit SNR P is

        max(power_coefficient * P**power_exponent
            - power_sub_coefficient * P**power_sub_exponent, 0)

    which covers both the plain coef*P**exp allocations and the
    "P - P**s"-style differences used for the top layers.  The subtracted
    term's coefficient must be >= 0, and the term may not dominate at high
    P (a larger exponent, or an equal one with a coefficient at least as
    large): such a power is 0 once P is large, at the high-SNR end the
    slope fit reads.
    encoding_prelog is the layer's code rate divided by log2(P); it must be
    above _PRELOG_EPS (the builders drop a layer whose pre-log vanishes).
    precoder must be a PrecoderSpec, and a common layer's must be the first
    antenna, where the evaluator decodes it by SIC.  Each fault raises
    ValueError naming the layer.
    """

    id: str
    owner: str
    precoder: PrecoderSpec
    power_exponent: float
    power_coefficient: float
    encoding_prelog: float
    power_sub_coefficient: float = 0.0
    power_sub_exponent: float = 0.0

    def __post_init__(self):
        if self.owner not in (OWNER_USER1, OWNER_USER2, OWNER_COMMON):
            raise ValueError(f"unknown owner {self.owner!r}")
        if not isinstance(self.precoder, PrecoderSpec):
            raise ValueError(f"layer {self.id!r}: precoder must be a PrecoderSpec, got {self.precoder!r}")
        for name in ("power_coefficient", "power_exponent", "power_sub_coefficient", "power_sub_exponent",
                     "encoding_prelog"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"layer {self.id!r}: {name} must be finite, got {getattr(self, name)}")
        if self.power_coefficient <= 0.0:
            raise ValueError(f"layer {self.id!r}: power_coefficient must be positive, got {self.power_coefficient}")
        if self.power_sub_coefficient < 0.0:
            raise ValueError(f"layer {self.id!r}: power_sub_coefficient must be >= 0, got {self.power_sub_coefficient}")
        if self.power_sub_coefficient and ((self.power_sub_exponent, self.power_sub_coefficient)
                                           >= (self.power_exponent, self.power_coefficient)):
            raise ValueError(f"layer {self.id!r}: the subtracted {self.power_sub_coefficient:g}*P**"
                             f"{self.power_sub_exponent:g} is not below {self.power_coefficient:g}*P**"
                             f"{self.power_exponent:g} at high P, so the power vanishes there")
        if self.encoding_prelog <= _PRELOG_EPS:
            raise ValueError(f"layer {self.id!r}: encoding_prelog must be positive, got {self.encoding_prelog}")
        if self.owner == OWNER_COMMON and self.precoder.kind != "first_antenna":
            raise ValueError(f"layer {self.id!r}: a common layer must ride on the first antenna, "
                             f"not an {self.precoder.kind!r} precoder")

    def power(self, p: float) -> float:
        """Allocated power at transmit SNR p (floored at 0)."""
        value = self.power_coefficient * p ** self.power_exponent
        if self.power_sub_coefficient:
            value -= self.power_sub_coefficient * p ** self.power_sub_exponent
        return max(value, 0.0)


@dataclass(frozen=True)
class QuantizationLink:
    """Ties an overheard interference to the common layer retransmitting it.

    observer is the user at whose antenna the interference was received;
    quant_prelog is the quantization rate divided by log2(P), chosen equal
    to the interference's received-power exponent so the quantization error
    lands at the unit noise floor.
    """

    source_slot: int
    observer: str
    interference_id: str
    quant_prelog: float
    retransmit_layer: str

    def __post_init__(self):
        _require_int(f"link {self.interference_id} source slot", self.source_slot, 0)
        if self.observer not in (OWNER_USER1, OWNER_USER2):
            raise ValueError(f"link {self.interference_id}: observer must be user1 or user2, got {self.observer!r}")
        if not math.isfinite(self.quant_prelog):
            raise ValueError(f"link {self.interference_id}: quant_prelog must be finite, got {self.quant_prelog}")


@dataclass(frozen=True)
class SlotPlan:
    """One channel use: an ordered stack of layers.

    index is an integer >= 0.  First-antenna layers are decoded by SIC
    (commons()); every other layer joins its owner's jointly decoded group
    (fresh()), where two layers of one user on one precoder could not be
    told apart, so a repeated (owner, precoder) among them raises
    ValueError naming the slot and both layers.
    """

    index: int
    layers: tuple[SymbolLayer, ...]

    def __post_init__(self):
        _require_int("slot index", self.index, 0)
        seen: dict[tuple, SymbolLayer] = {}
        for l in self.layers:
            kind, user = l.precoder.kind, l.precoder.user
            if kind != "first_antenna" and seen.setdefault((l.owner, kind, user), l) is not l:
                raise ValueError(f"slot {self.index}: layers {seen[l.owner, kind, user].id!r} and {l.id!r} "
                                 f"share owner {l.owner} and precoder {kind}({user})")

    def commons(self) -> list[SymbolLayer]:
        """First-antenna layers in SIC decode order, the same at every power:
        decreasing power exponent, ties in slot order, as the builders stack them."""
        sic = [l for l in self.layers if l.precoder.kind == "first_antenna"]
        return sorted(sic, key=lambda l: l.power_exponent, reverse=True)

    def fresh(self, owner: str) -> list[SymbolLayer]:
        """Zero-forcing / vector layers of one user (first-antenna excluded)."""
        return [l for l in self.layers if l.owner == owner and l.precoder.kind != "first_antenna"]


class SlotGroup(NamedTuple):
    """One user's fresh layers in a slot shape, decoded jointly."""

    positions: tuple[int, ...]  # in the slot's layers, in slot order (SlotPlan.fresh)
    directions: tuple[int, ...]  # each layer's index in _DIRECTIONS
    own_link: int  # column in the slot's links of the interference this user overhears there (-1: none)
    side_link: int  # column of this group's image at the other user (-1: none)


class SlotShape(NamedTuple):
    """The decode wiring of every slot that decodes alike, by position in
    the slot's layers.

    Two slots decode alike when their layers match position by position in
    owner, precoder and power spec (and pre-log, on a common layer), their
    carried links in carrier, quant_prelog and source exponent, and the same
    users overhear a linked interference in them.  A slot's links name at
    most one link per user overhearing there, so each group has at most one
    own and one side link.
    """

    layers: tuple[SymbolLayer, ...]  # the first such slot's
    sic: tuple[int, ...]  # the first-antenna layers in SIC decode order (SlotPlan.commons)
    groups: tuple[SlotGroup, SlotGroup]  # user 1's and user 2's
    carried: tuple[tuple[int, float, float], ...]  # (carrier's SIC rank, quant_prelog, source exponent) per link


class SlotWiring(NamedTuple):
    """One slot's part of the wiring: its shape and where its links are."""

    shape: int  # position in SchemePlan.shapes
    links: tuple[int, ...]  # link rows: those carried here, then those user 1 and user 2 overhear here (-1: none)
    settle_after: int  # the last slot carrying a link overheard here (-1: none)


def _shape(slot: SlotPlan, carried, overheard) -> SlotShape:
    """slot's SlotShape, from (carrier's position, quant_prelog, source
    exponent) per link it carries and whether each user overhears a linked
    interference there.  Layers are found by equality, which tells them
    apart by id, and a plan's layer ids are unique."""
    sic = tuple(map(slot.layers.index, slot.commons()))
    groups = tuple(SlotGroup(tuple(map(slot.layers.index, fresh)), tuple(_DIRECTIONS.index(l.precoder) for l in fresh),
                             len(carried) + u if overheard[u] else -1, len(carried) + 1 - u if overheard[1 - u] else -1)
                   for u, fresh in enumerate(map(slot.fresh, _USERS)))
    return SlotShape(slot.layers, sic, groups, tuple((sic.index(k), q, e) for k, q, e in carried))


@dataclass(frozen=True)
class SchemePlan:
    """A fully materialized transmission plan.

    prologue_slots holds the lead-in slots plus the terminating
    boundary slot that flushes the last cycle's retransmissions;
    cycle_slots holds the n_cycles repetitions of the cycle pattern.
    Channel-use accounting is the virtual one: the prologue counts
    prologue_channel_uses and each cycle cycle_channel_uses, fractional
    because retransmission layers only occupy part of a slot.  Both must be
    finite and >= 0, n_cycles an integer >= 0, and channel_uses() above 0.
    The cycles must match the cycle slots: none without cycle slots, and
    otherwise as many as split the cycle slots evenly, each taking
    cycle_channel_uses > 0; ValueError names the plan otherwise.

    The slot order and the slot/layer lookups are indexed once, at
    construction: all_slots() is the slots in index order, and slot() and
    find_layer() are dict reads.  The decode wiring is resolved there too,
    and nowhere else, in one pass over the slots: shapes holds one SlotShape
    per way a slot decodes, and wiring one SlotWiring per slot, in
    all_slots() order.  What each user overhears is worked out once per
    slot layout (owners, precoders and powers).  A duplicate slot index or
    layer id raises ValueError, and so does a link whose source slot, overheard
    interference or carrier is missing, whose carrier is not a common
    (hence first-antenna) layer, or is not in a later slot than its source.
    Each overheard interference has at most one link, and each carrier
    carries at most one: a second link with the same interference_id, the
    same (source_slot, observer) or the same retransmit_layer raises
    ValueError naming both.  A plan with no slots raises ValueError too.
    So every layer of a plan that builds is decoded, and every link
    resolves; what is left to judge (validate_plan) is the design.
    """

    name: str
    quality: CsitQuality
    prologue_slots: tuple[SlotPlan, ...]
    cycle_slots: tuple[SlotPlan, ...]
    links: tuple[QuantizationLink, ...]
    predicted_dof: DofPoint
    prologue_channel_uses: float
    cycle_channel_uses: float
    n_cycles: int
    _slots: tuple[SlotPlan, ...] = field(init=False, repr=False, compare=False)
    _slot_by_index: dict[int, SlotPlan] = field(init=False, repr=False, compare=False)
    _layer_home: dict[str, tuple[SlotPlan, SymbolLayer]] = field(init=False, repr=False, compare=False)
    shapes: tuple[SlotShape, ...] = field(init=False, repr=False, compare=False)
    wiring: tuple[SlotWiring, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_int("n_cycles", self.n_cycles, 0)
        for name in ("prologue_channel_uses", "cycle_channel_uses"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.channel_uses() <= 0.0:
            raise ValueError(f"plan {self.name!r} takes no channel uses")
        if not (self.prologue_slots or self.cycle_slots):
            raise ValueError(f"plan {self.name!r} has no slots")
        slots = tuple(sorted(self.prologue_slots + self.cycle_slots, key=lambda s: s.index))
        by_index: dict[int, SlotPlan] = {}
        home: dict[str, tuple[SlotPlan, SymbolLayer]] = {}
        position: dict[str, int] = {}  # layer id -> its position in its slot
        # each slot's layers' owners, precoders, power specs and common pre-logs, numbered
        layouts: dict[tuple, int] = {}
        layout: dict[int, int] = {}  # slot index -> its layout's number
        exponents: list[list[float]] = []  # per layout, the source exponent of what user 1 and user 2 overhear
        for s in slots:
            if s.index in by_index:
                raise ValueError(f"duplicate slot index {s.index}")
            by_index[s.index] = s
            for k, layer in enumerate(s.layers):
                if layer.id in home:
                    raise ValueError(
                        f"duplicate layer id {layer.id!r} (slots {home[layer.id][0].index} and {s.index})"
                    )
                home[layer.id] = (s, layer)
                position[layer.id] = k
            key = tuple((l.owner, l.precoder.kind, l.precoder.user, l.power_coefficient, l.power_exponent,
                         l.power_sub_coefficient, l.power_sub_exponent,
                         l.encoding_prelog if l.owner == OWNER_COMMON else None) for l in s.layers)
            n = layout[s.index] = layouts.setdefault(key, len(layouts))
            if n == len(exponents):
                exponents.append([_source_exponent(s, observer, self.quality) for observer in _USERS])
        n_cycle_slots = len(self.cycle_slots)
        if self.n_cycles == 0 and n_cycle_slots:
            raise ValueError(f"plan {self.name!r} has {n_cycle_slots} cycle slots and n_cycles = 0")
        if self.n_cycles and (n_cycle_slots == 0 or n_cycle_slots % self.n_cycles):
            raise ValueError(f"plan {self.name!r}: {n_cycle_slots} cycle slots do not make {self.n_cycles} cycles")
        if self.n_cycles and self.cycle_channel_uses == 0.0:
            raise ValueError(f"plan {self.name!r}: n_cycles = {self.n_cycles} but cycle_channel_uses = 0")
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_slot_by_index", by_index)
        object.__setattr__(self, "_layer_home", home)
        first: dict = {}  # interference id, (source slot, observer) and carrier -> position of the first link with it
        carried: dict[int, list] = {}  # slot index -> (link, carrier's position, quant_prelog, exponent) per link
        heard: dict[int, list] = {}  # slot index -> [user 1's link, user 2's link, last carrier slot]
        for i, link in enumerate(self.links):
            name = f"link {link.interference_id}"
            for key, clash in ((link.interference_id, "repeats"), ((link.source_slot, link.observer), "repeats"),
                               (("carrier", link.retransmit_layer), f"shares carrier {link.retransmit_layer!r} with")):
                j = first.setdefault(key, i)
                if j != i:
                    other = self.links[j]
                    raise ValueError(f"{name} (slot {link.source_slot}, {link.observer}) {clash} link "
                                     f"{other.interference_id} (slot {other.source_slot}, {other.observer})")
            if link.source_slot not in by_index:
                raise ValueError(f"{name}: source slot {link.source_slot} missing")
            exponent = exponents[layout[link.source_slot]][_USERS.index(link.observer)]
            if exponent == -math.inf:
                raise ValueError(f"{name}: source interference missing")
            carrier = home.get(link.retransmit_layer)
            if carrier is None or carrier[1].owner != OWNER_COMMON:
                raise ValueError(f"{name}: no first-antenna carrier {link.retransmit_layer!r} "
                                 f"(a carrier is a common layer)")
            at = carrier[0].index
            if at <= link.source_slot:
                raise ValueError(f"{name}: carrier slot {at} is not after source slot {link.source_slot}")
            carried.setdefault(at, []).append((i, position[link.retransmit_layer], link.quant_prelog, exponent))
            h = heard.setdefault(link.source_slot, [-1, -1, -1])
            h[_USERS.index(link.observer)] = i
            h[2] = max(h[2], at)
        # (layout, carried links, whether user 1 and user 2 overhear a link) -> (shape's position, its first slot)
        shape_of: dict[tuple, tuple[int, SlotPlan]] = {}
        wiring = []
        for s in slots:
            links = carried.get(s.index, [])
            o1, o2, settle_after = heard.get(s.index, (-1, -1, -1))
            key = (layout[s.index], tuple(c[1:] for c in links), o1 >= 0, o2 >= 0)
            n = shape_of.setdefault(key, (len(shape_of), s))[0]
            wiring.append(SlotWiring(n, tuple(c[0] for c in links) + (o1, o2), settle_after))
        object.__setattr__(self, "shapes", tuple(_shape(s, key[1], key[2:]) for key, (_, s) in shape_of.items()))
        object.__setattr__(self, "wiring", tuple(wiring))

    def all_slots(self) -> tuple[SlotPlan, ...]:
        return self._slots

    def channel_uses(self) -> float:
        return self.prologue_channel_uses + self.n_cycles * self.cycle_channel_uses

    def slot(self, index: int) -> SlotPlan:
        try:
            return self._slot_by_index[index]
        except KeyError:
            raise KeyError(f"no slot with index {index}") from None

    def find_layer(self, layer_id: str) -> tuple[SlotPlan, SymbolLayer]:
        try:
            return self._layer_home[layer_id]
        except KeyError:
            raise KeyError(f"no layer with id {layer_id!r}") from None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _layer(layer_id, owner, precoder, coef, exp, prelog, sub=(0.0, 0.0)) -> tuple[SymbolLayer, ...]:
    """A layer as a tuple of zero or one, which the builders concatenate:
    empty when its encoding pre-log vanishes."""
    if prelog <= _PRELOG_EPS:
        return ()
    return (SymbolLayer(
        id=layer_id,
        owner=owner,
        precoder=precoder,
        power_exponent=exp,
        power_coefficient=coef,
        encoding_prelog=prelog,
        power_sub_coefficient=sub[0],
        power_sub_exponent=sub[1],
    ),)


def _source_exponent(slot: SlotPlan, observer: str, quality: CsitQuality) -> float:
    """Received-power exponent of the interference `observer` overhears in `slot`.

    What `observer` overhears is the other user's fresh layers, received
    through the orth-precoder attenuation: P**(-alpha1) at user 1, P**(-alpha2)
    at user 2.  The exponent is their max power exponent minus that
    attenuation (-inf when nothing is overheard).  The builders' _link and
    SchemePlan's construction are its only callers.
    """
    other, alpha = (OWNER_USER2, quality.alpha1) if observer == OWNER_USER1 else (OWNER_USER1, quality.alpha2)
    return max((l.power_exponent for l in slot.fresh(other)), default=-math.inf) - alpha


def _link(slot: SlotPlan, observer: str, quality: CsitQuality) -> list[QuantizationLink]:
    """Quantization link eta_<s>_<t> for what `observer` (user t) overhears
    in the built slot s, carried by the common layer eta_hat_<s>_<t>, as a
    list of zero or one link, which the builders concatenate.

    The quantization rate is pinned to the source's received-power exponent;
    a vanishing rate means the interference sits at the noise floor and
    nothing needs to be retransmitted.
    """
    exponent = _source_exponent(slot, observer, quality)
    if exponent <= _PRELOG_EPS:
        return []
    tag = f"{slot.index}_{1 if observer == OWNER_USER1 else 2}"
    return [QuantizationLink(
        source_slot=slot.index,
        observer=observer,
        interference_id=f"eta_{tag}",
        quant_prelog=exponent,
        retransmit_layer=f"eta_hat_{tag}",
    )]


def _prologue(quality: CsitQuality):
    """Slots 1-2 shared by ges12-asym, case-i and case-ii, plus their links.

    Slot 1 sends a two-symbol vector per user (top symbols zero-forced, the
    extra symbols along the estimates); both overheard interferences are
    quantized, one multicast in slot 2 and one in slot 3.  Slot 2 carries
    that first common message over single zero-forced symbols at P**alpha1.
    Coefficients follow the generic power template (1/2 and 1/4 splits) so
    each slot's total power meets the transmit constraint.
    """
    a1, a2 = quality.alpha1, quality.alpha2
    slot1 = SlotPlan(1, _layer("u1_1", OWNER_USER1, orth_to(2), 0.5, 1.0, 1.0, sub=(0.25, 1.0 - a2))
                     + _layer("u1_2", OWNER_USER1, along(2), 0.25, 1.0 - a2, 1.0 - a2)
                     + _layer("v1_1", OWNER_USER2, orth_to(1), 0.5, 1.0, 1.0, sub=(0.25, 1.0 - a1))
                     + _layer("v1_2", OWNER_USER2, along(1), 0.25, 1.0 - a1, 1.0 - a1))
    link11 = _link(slot1, OWNER_USER1, quality)
    link12 = _link(slot1, OWNER_USER2, quality)
    slot2 = SlotPlan(2, _carriers(link11)
                     + _layer("u2", OWNER_USER1, orth_to(2), 0.5, a1, a1)
                     + _layer("v2", OWNER_USER2, orth_to(1), 0.5, a1, a1))
    return slot1, slot2, link12, link11 + link12


def _slot3_fresh(idx: int, quality: CsitQuality):
    """Fresh layers of the small-power cycle slot: u at P**alpha2/2, the
    user-2 vector split as (P**alpha2/2 - P**Delta/4, P**Delta/4)."""
    a2, d = quality.alpha2, quality.delta()
    return (_layer(f"u{idx}", OWNER_USER1, orth_to(2), 0.5, a2, a2)
            + _layer(f"v{idx}_1", OWNER_USER2, orth_to(1), 0.5, a2, a2, sub=(0.25, d))
            + _layer(f"v{idx}_2", OWNER_USER2, along(1), 0.25, d, d))


def build_ges12_asym(quality: CsitQuality) -> SchemePlan:
    """Three-slot baseline: both interference records multicast sequentially.

    Slot 3 is where the asymmetry bites: user 2's fresh symbol is received
    by user 1 with power P**Delta above the noise floor and is never
    retransmitted, so user 1's slot-3 symbol is encoded at pre-log alpha1
    only.  Predicted DoF ((2+2*alpha1-alpha2)/3, (2+alpha2)/3), i.e. user 2
    sits Delta/3 below the region's max-sum corner.
    """
    a1, a2 = quality.alpha1, quality.alpha2
    slot1, slot2, link12, links = _prologue(quality)

    slot3 = SlotPlan(3, _carriers(link12)
                     + _layer("u3", OWNER_USER1, orth_to(2), 0.5, a2, a1)  # interference-limited rate
                     + _layer("v3", OWNER_USER2, orth_to(1), 0.5, a2, a2))

    predicted = DofPoint((2.0 + 2.0 * a1 - a2) / 3.0, (2.0 + a2) / 3.0)
    return SchemePlan(
        name="ges12-asym",
        quality=quality,
        prologue_slots=(slot1, slot2, slot3),
        cycle_slots=(),
        links=tuple(links),
        predicted_dof=predicted,
        prologue_channel_uses=3.0,
        cycle_channel_uses=0.0,
        n_cycles=0,
    )


def _cycled_plan(name, quality, n_cycles, slots_per_cycle, make_cycle, terminal_carriers, predicted, cycle_uses):
    """Common assembly for the cycled presets.

    make_cycle(k, first_index, pending) returns (slots, links, pending) of
    cycle k, where pending are the links whose carriers land after the
    cycle: in the next cycle, or in the terminating slot made of
    terminal_carriers(pending) (none when that is empty).
    """
    _require_int("n_cycles", n_cycles, 1)
    slot1, slot2, pending, links = _prologue(quality)
    cycle_slots: list[SlotPlan] = []

    for k in range(n_cycles):
        first = 3 + slots_per_cycle * k
        slots, new_links, pending = make_cycle(k, first, pending)
        cycle_slots += slots
        links += new_links

    layers = terminal_carriers(pending)
    terminator = (SlotPlan(3 + slots_per_cycle * n_cycles, layers),) if layers else ()
    prologue = (slot1, slot2) + terminator

    a2 = quality.alpha2
    return SchemePlan(
        name=name,
        quality=quality,
        prologue_slots=prologue,
        cycle_slots=tuple(cycle_slots),
        links=tuple(links),
        predicted_dof=predicted,
        prologue_channel_uses=3.0 - a2,
        cycle_channel_uses=cycle_uses,
        n_cycles=n_cycles,
    )


def _carriers(links, sub_exp=None, exp=1.0) -> tuple[SymbolLayer, ...]:
    """Common layers multicasting each given link's quantized bits at power
    P**exp - P**sub_exp, or P**exp without sub_exp."""
    sub = (0.0, 0.0) if sub_exp is None else (1.0, sub_exp)
    return tuple(c for l in links
                 for c in _layer(l.retransmit_layer, OWNER_COMMON, first_antenna(), 1.0, exp, l.quant_prelog, sub=sub))


def _build_two_slot_cycle(name, quality, n_cycles, u_big_exponent):
    """Shared skeleton of case-i and case-ii-alt (two-slot cycles A, B).

    A slots use the small-power pattern; B slots send user 1's symbol at
    P**u_big_exponent / 2 and user 2's vector split as
    (P**(1-Delta)/2 - P**(1-alpha2)/4, P**(1-alpha2)/4).  Each A slot's
    overheard interference is multicast inside the same cycle's B slot; each
    B slot's inside the next A slot (or the terminator).
    """
    a1, a2, d = quality.alpha1, quality.alpha2, quality.delta()

    def make_cycle(k, first, pending):
        a_idx, b_idx = first, first + 1
        slot_a = SlotPlan(a_idx, _carriers(pending, a2) + _slot3_fresh(a_idx, quality))
        link_a = _link(slot_a, OWNER_USER1, quality)
        slot_b = SlotPlan(b_idx, _carriers(link_a, 1.0 - d)
                          + _layer(f"u{b_idx}", OWNER_USER1, orth_to(2), 0.5, u_big_exponent, u_big_exponent)
                          + _layer(f"v{b_idx}_1", OWNER_USER2, orth_to(1), 0.5, 1.0 - d, 1.0 - d, sub=(0.25, 1.0 - a2))
                          + _layer(f"v{b_idx}_2", OWNER_USER2, along(1), 0.25, 1.0 - a2, 1.0 - a2))
        link_b = _link(slot_b, OWNER_USER1, quality)
        return [slot_a, slot_b], link_a + link_b, link_b

    predicted = DofPoint((1.0 + a1) / 2.0, 1.0) if name == "case-i" else DofPoint(a2, 1.0)
    return _cycled_plan(name, quality, n_cycles, 2, make_cycle, lambda pending: _carriers(pending, a2),
                        predicted, 2.0)


def _is_case_i(quality: CsitQuality) -> bool:
    """The case split: case-i needs 2*alpha2 - alpha1 >= 1 (the boundary
    included), case-ii and case-ii-alt the strict complement."""
    return 2.0 * quality.alpha2 - quality.alpha1 >= 1.0


def _require_side(name: str, quality: CsitQuality, case_i: bool) -> None:
    """SchemeConditionError unless `quality` is on the named preset's side."""
    if _is_case_i(quality) != case_i:
        need, other = (">= 1", "case-ii") if case_i else ("< 1", "case-i")
        raise SchemeConditionError(
            f"{name} requires 2*alpha2 - alpha1 {need} "
            f"(got {2.0 * quality.alpha2 - quality.alpha1!r}); use {other}"
        )


def build_case_i(quality: CsitQuality, n_cycles: int) -> SchemePlan:
    """Two-slot cycle achieving ((1+alpha1)/2, 1); needs 2*alpha2-alpha1 >= 1.

    Per cycle user 1 sends one symbol per slot (pre-logs alpha2 and 1-Delta)
    and user 2 a two-symbol vector per slot (pre-log sums alpha2+Delta and
    2-Delta-alpha2); only user 1 overhears interference, quantized at
    pre-log Delta resp. 1-alpha2 and multicast in the following slot.
    """
    _require_side("case-i", quality, case_i=True)
    return _build_two_slot_cycle("case-i", quality, n_cycles, 1.0 - quality.delta())


def build_case_ii_alt(quality: CsitQuality, n_cycles: int) -> SchemePlan:
    """case-i flow with user 1's big symbol turned down to P**alpha2.

    Keeping the channel-use accounting of the two-slot cycle while capping
    user 1 at pre-log alpha2 per slot lands on the corner (alpha2, 1).
    Valid where the max-sum intersection point is interior, i.e.
    2*alpha2 - alpha1 < 1.
    """
    _require_side("case-ii-alt", quality, case_i=False)
    return _build_two_slot_cycle("case-ii-alt", quality, n_cycles, quality.alpha2)


def build_case_ii(quality: CsitQuality, n_cycles: int) -> SchemePlan:
    """Three-slot cycle achieving the max-sum corner; needs 2*alpha2-alpha1 < 1.

    Cycle slots A, C use the small-power pattern; the middle slot B sends a
    two-symbol vector to BOTH users, so both overhear interference there.
    B's user-1 record is multicast in C; B's user-2 record and C's user-1
    record are stacked in the next cycle's A slot over disjoint power
    intervals [P**(Delta+alpha2), P] and [P**alpha2, P**(Delta+alpha2)],
    decoded in that order.
    """
    _require_side("case-ii", quality, case_i=False)
    a1, a2, d = quality.alpha1, quality.alpha2, quality.delta()

    def stacked_carriers(pending):
        # pending: the B slot's user-2 link and the C slot's user-1 link, either may be missing
        top = [l for l in pending if l.observer == OWNER_USER2]
        low = [l for l in pending if l.observer == OWNER_USER1]
        return _carriers(top, d + a2) + _carriers(low, a2, exp=d + a2)

    def make_cycle(k, first, pending):
        a_idx, b_idx, c_idx = first, first + 1, first + 2

        commons_a = _carriers(pending, a2) if k == 0 else stacked_carriers(pending)
        slot_a = SlotPlan(a_idx, commons_a + _slot3_fresh(a_idx, quality))
        link_a = _link(slot_a, OWNER_USER1, quality)

        slot_b = SlotPlan(b_idx, _carriers(link_a, 1.0 - d)
                          + _layer(f"u{b_idx}_1", OWNER_USER1, orth_to(2), 0.5, 1.0 - d, 1.0 - d,
                                   sub=(0.25, 1.0 - d - a2))
                          + _layer(f"u{b_idx}_2", OWNER_USER1, along(2), 0.25, 1.0 - d - a2, 1.0 - d - a2)
                          + _layer(f"v{b_idx}_1", OWNER_USER2, orth_to(1), 0.5, 1.0 - d, 1.0 - d, sub=(0.25, 1.0 - a2))
                          + _layer(f"v{b_idx}_2", OWNER_USER2, along(1), 0.25, 1.0 - a2, 1.0 - a2))
        link_b1 = _link(slot_b, OWNER_USER1, quality)
        link_b2 = _link(slot_b, OWNER_USER2, quality)

        slot_c = SlotPlan(c_idx, _carriers(link_b1, a2) + _slot3_fresh(c_idx, quality))
        link_c = _link(slot_c, OWNER_USER1, quality)
        return [slot_a, slot_b, slot_c], link_a + link_b1 + link_b2 + link_c, link_b2 + link_c

    predicted = DofPoint((2.0 + 2.0 * a1 - a2) / 3.0, (2.0 + 2.0 * a2 - a1) / 3.0)
    return _cycled_plan("case-ii", quality, n_cycles, 3, make_cycle, stacked_carriers, predicted, 3.0)


def build_sc_zf(quality: CsitQuality) -> SchemePlan:
    """Single-slot superposition + zero-forcing achieving (1, alpha1).

    A user-1 message rides on top at P - P**alpha1, decoded by both
    receivers and stripped; underneath, each user gets one zero-forced
    symbol at P**alpha1 / 2.
    """
    a1 = quality.alpha1
    slot = SlotPlan(1, _layer("x_c", OWNER_USER1, first_antenna(), 1.0, 1.0, 1.0 - a1, sub=(1.0, a1))
                    + _layer("u1", OWNER_USER1, orth_to(2), 0.5, a1, a1)
                    + _layer("v1", OWNER_USER2, orth_to(1), 0.5, a1, a1))
    return SchemePlan(
        name="sc-zf",
        quality=quality,
        prologue_slots=(slot,),
        cycle_slots=(),
        links=(),
        predicted_dof=DofPoint(1.0, a1),
        prologue_channel_uses=1.0,
        cycle_channel_uses=0.0,
        n_cycles=0,
    )


_BUILDERS = {
    "ges12-asym": lambda q, n: build_ges12_asym(q),
    "case-i": build_case_i,
    "case-ii": build_case_ii,
    "case-ii-alt": build_case_ii_alt,
    "sc-zf": lambda q, n: build_sc_zf(q),
}

PRESET_NAMES = tuple(_BUILDERS) + ("auto",)


def build_preset(name: str, quality: CsitQuality, n_cycles: int) -> SchemePlan:
    """Build a preset by name; "auto" picks case-i or case-ii per the
    2*alpha2 - alpha1 >= 1 condition (boundary routed to case-i).  Every
    preset needs an integer n_cycles >= 1, even the acyclic ones."""
    _require_int("n_cycles", n_cycles, 1)
    if name == "auto":
        name = "case-i" if _is_case_i(quality) else "case-ii"
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_NAMES)}") from None
    return builder(quality, n_cycles)


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------

_BUDGET_TOL = 1e-9


def validate_plan(plan: SchemePlan) -> list[str]:
    """Design diagnostics; an empty list means the plan is sound.

    A plan that builds is already decodable (see SchemePlan and SlotPlan),
    so what is left to judge is the design: the asymptotic per-slot power
    budget (no exponent above 1 and leading coefficients summing to at most
    1), each link's quantization rate against the received-power exponent
    of the interference it describes, and that the predicted DoF sits
    inside the region polygon.
    """
    diags: list[str] = []
    for s in plan.all_slots():
        max_exp = max((l.power_exponent for l in s.layers), default=0.0)
        if max_exp > 1.0 + _BUDGET_TOL:
            diags.append(f"power budget exceeded: slot {s.index} has exponent {max_exp:.6g} > 1")
        # net coefficient at the leading exponent; subtracted terms may land there too
        top_coef = sum(l.power_coefficient for l in s.layers
                       if abs(l.power_exponent - max_exp) <= _BUDGET_TOL)
        top_coef -= sum(l.power_sub_coefficient for l in s.layers
                        if l.power_sub_coefficient and abs(l.power_sub_exponent - max_exp) <= _BUDGET_TOL)
        if max_exp >= 1.0 - _BUDGET_TOL and top_coef > 1.0 + _BUDGET_TOL:
            diags.append(
                f"power budget exceeded: slot {s.index} leading coefficients sum to {top_coef:.6g} > 1"
            )

    exponents = {i: e for w in plan.wiring for i, (_, _, e) in zip(w.links, plan.shapes[w.shape].carried)}
    for i, link in enumerate(plan.links):
        if abs(exponents[i] - link.quant_prelog) > 1e-9:
            diags.append(
                f"link {link.interference_id}: quantization rate mismatch "
                f"(prelog {link.quant_prelog:.6g} vs received exponent {exponents[i]:.6g})"
            )

    region = dof_region(plan.quality)
    if not contains(region, plan.predicted_dof, tol=1e-9):
        diags.append(f"predicted DoF {plan.predicted_dof.as_tuple()} outside the region")
    return diags


def plan_as_dict(plan: SchemePlan) -> dict:
    """JSON tree mirroring the plan's fields, for inspection and goldens."""

    def layer_dict(l: SymbolLayer) -> dict:
        d = {
            "id": l.id,
            "owner": l.owner,
            "precoder": {"kind": l.precoder.kind, "user": l.precoder.user},
            "power_coefficient": l.power_coefficient,
            "power_exponent": l.power_exponent,
            "encoding_prelog": l.encoding_prelog,
        }
        if l.power_sub_coefficient:
            d["power_sub_coefficient"] = l.power_sub_coefficient
            d["power_sub_exponent"] = l.power_sub_exponent
        return d

    return {
        "name": plan.name,
        "alpha1": plan.quality.alpha1,
        "alpha2": plan.quality.alpha2,
        "n_cycles": plan.n_cycles,
        "predicted_dof": list(plan.predicted_dof.as_tuple()),
        "prologue_channel_uses": plan.prologue_channel_uses,
        "cycle_channel_uses": plan.cycle_channel_uses,
        "slots": [
            {"index": s.index, "layers": [layer_dict(l) for l in s.layers]}
            for s in plan.all_slots()
        ],
        "links": [
            {
                "source_slot": k.source_slot,
                "observer": k.observer,
                "interference_id": k.interference_id,
                "quant_prelog": k.quant_prelog,
                "retransmit_layer": k.retransmit_layer,
            }
            for k in plan.links
        ],
    }


def perturb_link_prelog(plan: SchemePlan, interference_id: str, delta: float) -> SchemePlan:
    """Copy of the plan with one link's quantization pre-log shifted.

    Diagnostic helper: a deliberately under-provisioned link leaves residual
    interference growing as P**(-delta), which the residual-power probe is
    expected to flag.
    """
    new_links = []
    found = False
    for link in plan.links:
        if link.interference_id == interference_id:
            link = replace(link, quant_prelog=link.quant_prelog + delta)
            found = True
        new_links.append(link)
    if not found:
        raise KeyError(f"no link with interference id {interference_id!r}")
    return replace(plan, links=tuple(new_links))
