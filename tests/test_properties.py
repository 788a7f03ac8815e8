"""Property tests over the whole quality triangle 0 <= alpha1 <= alpha2 <= 1.

Qualities are drawn from the interior and from every edge the presets
special-case: alpha1 = 0, alpha2 = 1, alpha1 = alpha2, and the case-split
line 2*alpha2 - alpha1 = 1 (parametrised both ways, so rounding lands on
either side of it).
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asymcsit import (
    PRESET_NAMES,
    CsitQuality,
    DofPoint,
    SchemeConditionError,
    SnrPoint,
    build_preset,
    corner_points,
    dof_region,
    estimate_dof,
    estimate_dofs,
    evaluate_plan,
    residual_power_probe,
    validate_plan,
)
from asymcsit import evaluator
from asymcsit.schemes import (
    OWNER_COMMON,
    OWNER_USER1,
    OWNER_USER2,
    _DIRECTIONS,
    _USERS,
    _source_exponent,
    orth_to,
    perturb_link_prelog,
)

_unit = st.floats(0.0, 1.0, allow_nan=False)

qualities = st.one_of(
    st.tuples(_unit, _unit).map(sorted),
    _unit.map(lambda a: (0.0, a)),
    _unit.map(lambda a: (a, 1.0)),
    _unit.map(lambda a: (a, a)),
    st.floats(0.5, 1.0).map(lambda a2: (max(0.0, 2.0 * a2 - 1.0), a2)),
    _unit.map(lambda a1: (a1, (1.0 + a1) / 2.0)),
).map(lambda pair: CsitQuality(*pair))

cycles = st.integers(1, 3)

_SETTINGS = settings(max_examples=60, deadline=None)


def _buildable(quality, n_cycles):
    plans = []
    for name in PRESET_NAMES:
        try:
            plans.append(build_preset(name, quality, n_cycles))
        except SchemeConditionError:
            assert name in ("case-i", "case-ii", "case-ii-alt")
    return plans


@_SETTINGS
@given(qualities, cycles)
def test_every_buildable_preset_validates_clean(quality, n_cycles):
    for plan in _buildable(quality, n_cycles):
        assert validate_plan(plan) == [], plan.name


@_SETTINGS
@given(qualities, cycles)
def test_slot_indices_and_layer_ids_are_unique(quality, n_cycles):
    for plan in _buildable(quality, n_cycles):
        slots = plan.prologue_slots + plan.cycle_slots
        assert len({s.index for s in slots}) == len(slots)
        ids = [l.id for s in slots for l in s.layers]
        assert len(set(ids)) == len(ids)


@_SETTINGS
@given(qualities, cycles)
def test_indexed_lookups_agree_with_a_scan(quality, n_cycles):
    for plan in _buildable(quality, n_cycles):
        slots = plan.all_slots()
        assert [s.index for s in slots] == sorted(s.index for s in plan.prologue_slots + plan.cycle_slots)
        for s in slots:
            assert plan.slot(s.index) is s
            for layer in s.layers:
                home, found = plan.find_layer(layer.id)
                assert home is s and found is layer


def _stored_exponents(plan):
    """Each link's source exponent as the plan resolved it, by position in plan.links."""
    return {i: e for shape, rows in zip(plan.shapes, plan.link_rows)
            for row in rows.tolist() for i, (_, _, e) in zip(row, shape.carried)}


def _stored_wiring(plan):
    """Each slot's decode wiring as the plan's index stores it, in layer ids,
    precoders, link rows and slot indices, read through each shape's members
    and link rows: SIC order, each user's group (layers, precoders, own and
    side link), the carried links (link, carrier, quant_prelog), the links of
    what user 1 and user 2 overhear, the slot its groups wait for
    (settle_after), the directions it uses, each user's additions in it,
    its first rate row and each user's additions before it; then the rate
    rows and additions of the whole plan."""
    def decoded(l):  # what the decode reads of a layer
        return (l.owner, l.precoder, l.power_coefficient, l.power_exponent, l.power_sub_coefficient,
                l.power_sub_exponent, l.encoding_prelog if l.owner == OWNER_COMMON else None)

    slots, out = plan.all_slots(), {}
    assert len(plan.members) == len(plan.link_rows) == len(plan.shapes), plan.name
    assert len(plan.shape_of) == len(plan.settle_after) == len(slots), plan.name
    for n, (shape, members, rows) in enumerate(zip(plan.shapes, plan.members, plan.link_rows)):
        assert members.tolist() == sorted(members.tolist()) and len(rows) == len(members), (plan.name, n)
        for k, links in zip(members.tolist(), rows.tolist()):
            s = slots[k]
            assert plan.shape_of[k] == n and s.index not in out, (plan.name, s.index)
            assert list(map(decoded, shape.layers)) == list(map(decoded, s.layers)), (plan.name, s.index)
            row = lambda column: links[column] if column >= 0 else -1  # noqa: E731
            settle = plan.settle_after[k]
            out[s.index] = (
                tuple(s.layers[j].id for j in shape.sic),
                tuple((tuple(s.layers[j].id for j in g.positions), tuple(_DIRECTIONS[d] for d in g.directions),
                       row(g.own_link), row(g.side_link)) for g in shape.groups),
                tuple((i, s.layers[shape.sic[rank]].id, q) for i, (rank, q, _) in zip(links, shape.carried)),
                tuple(links[len(shape.carried):]),
                slots[settle].index if settle >= 0 else -1,
                tuple(_DIRECTIONS[d] for d in shape.directions),
                shape.additions,
                int(plan.starts[k]),
                tuple(plan.added[:, k].tolist()),
            )
    out["end"] = (int(plan.starts[-1]), tuple(plan.added[:, -1].tolist()))
    return out


def _scanned_wiring(plan):
    """The same wiring by a plain scan of plan.links and the slots' layers,
    with SlotPlan.commons() and SlotPlan.fresh()."""
    carrier = {l.id: s.index for s in plan.all_slots() for l in s.layers}
    links = {s.index: ([], [-1, -1], -1) for s in plan.all_slots()}
    for i, link in enumerate(plan.links):
        at = carrier[link.retransmit_layer]
        links[at][0].append((i, link.retransmit_layer, link.quant_prelog))
        carried, overheard, settle = links[link.source_slot]
        overheard[(OWNER_USER1, OWNER_USER2).index(link.observer)] = i
        links[link.source_slot] = (carried, overheard, max(settle, at))
    out, row, added = {}, 0, (0, 0)
    for s in plan.all_slots():
        carried, overheard, settle = links[s.index]
        fresh = (s.fresh(OWNER_USER1), s.fresh(OWNER_USER2))
        groups = tuple((tuple(l.id for l in f), tuple(l.precoder for l in f), overheard[u], overheard[1 - u])
                       for u, f in enumerate(fresh))
        precoders = {l.precoder for l in s.layers}
        adds = tuple(sum(l.owner == o for l in s.commons()) + bool(f)
                     for o, f in zip((OWNER_USER1, OWNER_USER2), fresh))
        out[s.index] = (tuple(l.id for l in s.commons()), groups, tuple(carried), tuple(overheard), settle,
                        tuple(d for d in _DIRECTIONS if d in precoders), adds, row, added)
        row, added = row + len(s.layers), (added[0] + adds[0], added[1] + adds[1])
    out["end"] = (row, added)
    return out


def _template_key(plan, slot):
    """What the grid pass once keyed a slot's decode template by, slot by
    slot: each layer's owner, precoder, power spec and (common layers only)
    pre-log; each carried link's carrier position, quant_prelog and source
    exponent; and which users overhear a linked interference there."""
    ids = [l.id for l in slot.layers]
    carried = [link for link in plan.links if link.retransmit_layer in ids]
    return (tuple((l.owner, l.precoder.kind, l.precoder.user, l.power_coefficient, l.power_exponent,
                   l.power_sub_coefficient, l.power_sub_exponent,
                   l.encoding_prelog if l.owner == OWNER_COMMON else None) for l in slot.layers),
            tuple((ids.index(link.retransmit_layer), link.quant_prelog,
                   _source_exponent(plan.slot(link.source_slot), link.observer, plan.quality)) for link in carried),
            tuple(any(link.source_slot == slot.index and link.observer == o for link in plan.links)
                  for o in (OWNER_USER1, OWNER_USER2)))


def _check_wiring(plan):
    # the stored index is what the scan gives, and two slots share a shape
    # exactly when their old template keys are equal
    assert _stored_wiring(plan) == _scanned_wiring(plan), plan.name
    pairs = {(_template_key(plan, s), n) for s, n in zip(plan.all_slots(), plan.shape_of)}
    assert len({key for key, _ in pairs}) == len(pairs) == len(plan.shapes), plan.name


@_SETTINGS
@given(qualities, cycles)
def test_quant_prelog_is_the_source_exponent(quality, n_cycles):
    for plan in _buildable(quality, n_cycles):
        exponents = _stored_exponents(plan)
        for i, link in enumerate(plan.links):
            assert link.quant_prelog == exponents[i]


@_SETTINGS
@given(qualities, cycles, st.data(), st.floats(-2.0, 2.0))
def test_link_wiring_is_resolved_once_at_build(quality, n_cycles, data, delta):
    # the whole decode index the plan stores (SIC order, groups, links,
    # settle_after, each shape's members and link rows, rate rows and
    # addition offsets) is what a scan of its slots and links gives, in either
    # link order, each stored exponent is the overheard rule's own, and a
    # perturbed quantization rate moves no exponent
    for plan in _buildable(quality, n_cycles):
        exponents = _stored_exponents(plan)
        _check_wiring(plan)
        _check_wiring(replace(plan, links=tuple(reversed(plan.links))))
        assert sorted(exponents) == list(range(len(plan.links))), plan.name
        for i, link in enumerate(plan.links):
            assert exponents[i] == _source_exponent(plan.slot(link.source_slot), link.observer, quality), plan.name
        if plan.links:
            bad = perturb_link_prelog(plan, data.draw(st.sampled_from(plan.links)).interference_id, delta)
            _check_wiring(bad)
            assert _stored_exponents(bad) == exponents, plan.name


@_SETTINGS
@given(qualities, cycles, st.data(), st.one_of(st.floats(-2.0, -1e-6), st.floats(1e-6, 2.0)))
def test_a_mismatched_link_still_builds_and_is_the_one_diagnostic(quality, n_cycles, data, delta):
    # a quantization rate off the received exponent is a design fault, not
    # a structural one: the plan builds, and validate_plan names that link
    for plan in _buildable(quality, n_cycles):
        if not plan.links:
            continue
        link = data.draw(st.sampled_from(plan.links))
        bad = perturb_link_prelog(plan, link.interference_id, delta)
        assert validate_plan(bad) == [
            f"link {link.interference_id}: quantization rate mismatch "
            f"(prelog {link.quant_prelog + delta:.6g} vs received exponent {link.quant_prelog:.6g})"
        ], plan.name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(qualities)
@example(CsitQuality(0.0, 0.0))
@example(CsitQuality(1.0, 1.0))
@example(CsitQuality(0.0, 1.0))
@example(CsitQuality(0.0, 0.5))  # on the case-split line: case i
@example(CsitQuality(0.2, 0.8))
@example(CsitQuality(0.3, 0.5))
def test_no_preset_overhears_a_source_above_its_nominal_exponent(quality):
    # validate_plan refuses a link whose observer hears its source louder
    # than the nominal exponent (every overheard layer zero-forced at the
    # observer).  The presets zero-force every layer a link describes, so
    # each source, worked out here layer by layer, is heard at its nominal
    # exponent: case-i's and auto's user-1 sources only up to rounding,
    # which the refusal's 1e-9 must not catch
    for n_cycles in (1, 3):
        for plan in _buildable(quality, n_cycles):
            assert validate_plan(plan) == [], plan.name
            nominal = _stored_exponents(plan)
            for i, link in enumerate(plan.links):
                user = _USERS.index(link.observer) + 1
                alpha = (quality.alpha1, quality.alpha2)[user - 1]
                heard = max(l.power_exponent - alpha if l.precoder == orth_to(user) else l.power_exponent
                            for l in plan.slot(link.source_slot).fresh(_USERS[2 - user]))
                assert abs(heard - nominal[i]) <= 1e-12, (plan.name, link.interference_id)


@_SETTINGS
@given(qualities, cycles)
def test_builders_stack_first_antenna_layers_in_decode_order(quality, n_cycles):
    # commons() orders by decreasing power exponent; the builders already
    # list the first-antenna layers that way, so the order is the slot's own
    for plan in _buildable(quality, n_cycles):
        for s in plan.all_slots():
            listed = [l for l in s.layers if l.precoder.kind == "first_antenna"]
            assert s.commons() == listed, (plan.name, s.index)


@settings(max_examples=200, deadline=None)
@given(qualities)
@example(CsitQuality(0.4, 0.7))  # 2*alpha2 - alpha1 rounds to just below 1: case ii
@example(CsitQuality(0.0, 0.5))  # exactly on the line: case i
@example(CsitQuality(0.2, 0.6))
@example(CsitQuality(0.5, 0.75))
@example(CsitQuality(1.0, 1.0))  # the case-i corners coincide
@example(CsitQuality(0.0, 0.0))
@example(CsitQuality(0.0, 1.0))
def test_corner_points_are_region_vertices(quality):
    # each corner once, each a region vertex to criterion 1's 1e-12, and the
    # max-sum intersection listed exactly where auto builds case-ii
    corners = corner_points(quality)
    assert len(set(corners)) == len(corners)
    vertices = dof_region(quality).vertices
    for c in corners:
        assert min(math.hypot(v.d1 - c.d1, v.d2 - c.d2) for v in vertices) <= 1e-12, c
    a1, a2 = quality.alpha1, quality.alpha2
    max_sum = DofPoint((2.0 + 2.0 * a1 - a2) / 3.0, (2.0 + 2.0 * a2 - a1) / 3.0)
    case_i_corner = DofPoint((1.0 + a1) / 2.0, 1.0)
    if build_preset("auto", quality, 1).name == "case-ii":
        assert max_sum in corners and DofPoint(a2, 1.0) in corners
    else:
        # on the line the intersection and (alpha2, 1) are the case-i corner
        assert corners[-1] == case_i_corner
        assert all(p not in corners or p == case_i_corner for p in (max_sum, DofPoint(a2, 1.0)))


@_SETTINGS
@given(qualities, st.integers(1, 2), st.floats(10.0, 120.0), st.integers(0, 2**32 - 1))
def test_evaluator_ledger_invariants(quality, n_cycles, p_db, seed):
    # 20 trials at one grid point: rates finite and nonnegative, user totals
    # the sums of their layers, links keyed by the plan's interference ids,
    # and the probe reading the ledger's own link noise
    snr = SnrPoint.from_db(p_db, quality)
    for plan in _buildable(quality, n_cycles):
        ledger = evaluate_plan(plan, snr, 20, seed)
        assert all(math.isfinite(r) and r >= 0.0 for r in ledger.per_symbol_rate.values()), plan.name
        for k, owner in enumerate((OWNER_USER1, OWNER_USER2)):
            layer_sum = sum(ledger.per_symbol_rate[l.id] for s in plan.all_slots() for l in s.layers
                            if l.owner == owner)
            assert ledger.user_rate[k] == pytest.approx(layer_sum, rel=1e-9), (plan.name, owner)
        ids = {link.interference_id for link in plan.links}
        assert ledger.link_delivered.keys() == ids and ledger.link_noise.keys() == ids
        assert residual_power_probe(plan, snr, 20, seed) == ledger.link_noise


@settings(max_examples=30, deadline=None)
@given(qualities, st.integers(1, 2), st.integers(0, 2**32 - 1))
@example(CsitQuality(0.05, 0.5), 2, 7)  # case-ii's stacked carriers of slots 6 and 9 cross in power inside the grid
@example(CsitQuality(0.0, 0.0), 1, 7)
@example(CsitQuality(1.0, 1.0), 2, 7)
def test_grid_pass_equals_per_point_evaluation(quality, n_cycles, seed):
    # estimate_dof evaluates the whole grid in one stacked pass; each of its
    # points must be exactly the one-point evaluation at that power
    grid = [SnrPoint.from_db(db, quality) for db in (60.0, 80.0, 100.0, 120.0)]
    for plan in _buildable(quality, n_cycles):
        est = estimate_dof(plan, grid, 20, seed)
        ledgers = [evaluate_plan(plan, snr, 20, seed) for snr in grid]
        assert est.points == tuple(
            (snr.log2p, led.user_rate[0] / led.channel_uses, led.user_rate[1] / led.channel_uses)
            for snr, led in zip(grid, ledgers)
        ), plan.name
        assert est.point_stderr == tuple(
            (led.user_rate_stderr[0] / led.channel_uses, led.user_rate_stderr[1] / led.channel_uses)
            for led in ledgers
        ), plan.name


def _check_shared_pass(plans, grid, n_trials, seed):
    # one grid pass for every plan, each stream drawn once and scaled and
    # projected once per quality, must give each plan exactly its own pass's
    # estimate.  Plans of the grid's quality share estimate_dofs' pass;
    # plans of several share _estimates' (sweep's), in which each reads the
    # grid's powers at its own quality
    one = all(plan.quality == grid[0].quality for plan in plans)
    shared = (estimate_dofs if one else evaluator._estimates)(plans, grid, n_trials, seed)
    assert len(shared) == len(plans)
    for plan, got in zip(plans, shared):
        alone = estimate_dof(plan, [SnrPoint(s.p, plan.quality) for s in grid], n_trials, seed)
        for field in ("points", "point_stderr", "slope", "stderr"):
            assert getattr(got, field) == getattr(alone, field), (plan.name, plan.quality, plan.n_cycles, field)


# plans of 1, 3 and 12 slots; None: the grid's quality
_MIX = [("sc-zf", 1, None), ("ges12-asym", 2, None), ("case-ii", 3, None)]
# the same presets at three qualities, and case-i, whose slot indices
# interleave with case-ii's, at alpha = 1
_QUALITIES_MIX = [("sc-zf", 1, CsitQuality(0.0, 0.0)), ("ges12-asym", 2, None),
                  ("case-ii", 3, CsitQuality(0.4, 0.4)), ("case-i", 2, CsitQuality(1.0, 1.0))]


@settings(max_examples=40, deadline=None)
@given(qualities, st.lists(st.tuples(st.sampled_from(PRESET_NAMES), cycles, st.one_of(st.none(), qualities)),
                           min_size=1, max_size=4),
       st.sampled_from([20, 2100]), st.integers(0, 2**32 - 1))
@example(CsitQuality(0.3, 0.5), _MIX, 20, 7)
@example(CsitQuality(0.3, 0.5), _MIX, 2100, 7)
@example(CsitQuality(0.2, 0.8), [("case-i", 3, None), ("sc-zf", 2, None), ("case-i", 1, None), ("ges12-asym", 3, None)],
         20, 5)
@example(CsitQuality(0.3, 0.5), _QUALITIES_MIX, 20, 7)
@example(CsitQuality(0.3, 0.5), _QUALITIES_MIX, 2100, 7)
def test_one_pass_for_several_plans_equals_a_pass_per_plan(quality, mix, n_trials, seed):
    # 20 trials: draw chunks of many slots; 2100: a slot is over the draw
    # budget, so a chunk is one slot and the calling thread helps draw it.
    # Any presets and cycles, repeats allowed, each plan at the grid's
    # quality or at its own
    plans = []
    for name, n_cycles, own in mix:
        try:
            plans.append(build_preset(name, own or quality, n_cycles))
        except SchemeConditionError:
            assert name in ("case-i", "case-ii", "case-ii-alt")
    assume(plans)
    _check_shared_pass(plans, [SnrPoint.from_db(db, quality) for db in (60.0, 80.0, 100.0, 120.0)], n_trials, seed)
