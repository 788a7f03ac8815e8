"""Property tests over the whole quality triangle 0 <= alpha1 <= alpha2 <= 1.

Qualities are drawn from the interior and from every edge the presets
special-case: alpha1 = 0, alpha2 = 1, alpha1 = alpha2, and the case-split
line 2*alpha2 - alpha1 = 1 (parametrised both ways, so rounding lands on
either side of it).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcsit import (
    PRESET_NAMES,
    CsitQuality,
    SchemeConditionError,
    build_preset,
    corner_points,
    dof_region,
    validate_plan,
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


@_SETTINGS
@given(qualities, cycles)
def test_quant_prelog_is_the_source_exponent(quality, n_cycles):
    for plan in _buildable(quality, n_cycles):
        for link in plan.links:
            assert link.quant_prelog == plan.source_exponent(link)


@settings(max_examples=200, deadline=None)
@given(qualities)
def test_corner_points_are_region_vertices(quality):
    vertices = dof_region(quality).vertices
    for c in corner_points(quality):
        assert min(math.hypot(v.d1 - c.d1, v.d2 - c.d2) for v in vertices) <= 1e-9
