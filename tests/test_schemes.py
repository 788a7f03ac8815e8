import gc
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from asymcsit import (
    PRESET_NAMES,
    CsitQuality,
    PlanValidationError,
    SchemeConditionError,
    SchemePlan,
    SlotPlan,
    SnrPoint,
    SymbolLayer,
    build_case_i,
    build_case_ii,
    build_case_ii_alt,
    build_ges12_asym,
    build_preset,
    build_sc_zf,
    contains,
    corner_points,
    dof_region,
    estimate_dof,
    plan_as_dict,
    validate_plan,
)
from asymcsit import evaluator
from asymcsit.geometry import DofPoint
from asymcsit.schemes import (
    OWNER_COMMON,
    OWNER_USER1,
    OWNER_USER2,
    PrecoderSpec,
    QuantizationLink,
    along,
    first_antenna,
    orth_to,
    perturb_link_prelog,
)


def _random_case_i_quality(rng):
    a2 = rng.uniform(0.5, 1.0)
    a1 = rng.uniform(0.0, 2.0 * a2 - 1.0)
    return CsitQuality(a1, a2)


def _random_case_ii_quality(rng):
    while True:
        a2 = rng.uniform(0.0, 1.0)
        a1 = rng.uniform(max(0.0, 2.0 * a2 - 1.0), a2)
        if 2.0 * a2 - a1 < 1.0 - 1e-9:
            return CsitQuality(a1, a2)


def _cycle_prelog_sums(plan):
    per = {OWNER_USER1: 0.0, OWNER_USER2: 0.0}
    per_cycle = len(plan.cycle_slots) // plan.n_cycles
    for slot in plan.cycle_slots[:per_cycle]:
        for owner in per:
            per[owner] += sum(l.encoding_prelog for l in slot.fresh(owner))
    return per[OWNER_USER1], per[OWNER_USER2]


class TestPredictedDof:
    def test_ges12_examples(self):
        assert build_ges12_asym(CsitQuality(0.3, 0.5)).predicted_dof.as_tuple() == pytest.approx(
            (0.7, 2.5 / 3), abs=1e-12
        )
        assert build_ges12_asym(CsitQuality(0.0, 0.0)).predicted_dof.as_tuple() == pytest.approx(
            (2 / 3, 2 / 3), abs=1e-12
        )

    def test_ges12_symmetric_is_optimal(self):
        for alpha in (0.2, 0.5, 0.9):
            plan = build_ges12_asym(CsitQuality(alpha, alpha))
            assert plan.predicted_dof.as_tuple() == pytest.approx(
                ((2 + alpha) / 3, (2 + alpha) / 3), abs=1e-12
            )

    def test_case_i_examples(self):
        assert build_case_i(CsitQuality(0.2, 0.8), 2).predicted_dof.as_tuple() == pytest.approx(
            (0.6, 1.0), abs=1e-12
        )
        assert build_case_i(CsitQuality(1.0, 1.0), 2).predicted_dof.as_tuple() == pytest.approx(
            (1.0, 1.0), abs=1e-12
        )

    def test_case_ii_examples(self):
        assert build_case_ii(CsitQuality(0.3, 0.5), 2).predicted_dof.as_tuple() == pytest.approx(
            (0.7, 0.9), abs=1e-12
        )
        assert build_case_ii(CsitQuality(0.0, 0.0), 2).predicted_dof.as_tuple() == pytest.approx(
            (2 / 3, 2 / 3), abs=1e-12
        )

    def test_case_ii_alt_examples(self):
        assert build_case_ii_alt(CsitQuality(0.3, 0.5), 2).predicted_dof.as_tuple() == pytest.approx(
            (0.5, 1.0), abs=1e-12
        )
        assert build_case_ii_alt(CsitQuality(0.0, 0.0), 2).predicted_dof.as_tuple() == pytest.approx(
            (0.0, 1.0), abs=1e-12
        )

    def test_sc_zf_examples(self):
        assert build_sc_zf(CsitQuality(0.3, 0.5)).predicted_dof.as_tuple() == pytest.approx(
            (1.0, 0.3), abs=1e-12
        )
        assert build_sc_zf(CsitQuality(0.0, 0.7)).predicted_dof.as_tuple() == pytest.approx(
            (1.0, 0.0), abs=1e-12
        )
        assert build_sc_zf(CsitQuality(1.0, 1.0)).predicted_dof.as_tuple() == pytest.approx(
            (1.0, 1.0), abs=1e-12
        )


class TestCaseSplit:
    def test_case_i_rejects_interior_quality(self):
        with pytest.raises(SchemeConditionError, match=r"2\*alpha2 - alpha1 >= 1"):
            build_case_i(CsitQuality(0.3, 0.5), 2)

    def test_case_ii_rejects_outer_quality(self):
        with pytest.raises(SchemeConditionError, match=r"2\*alpha2 - alpha1 < 1"):
            build_case_ii(CsitQuality(0.2, 0.8), 2)

    def test_case_ii_alt_rejects_outer_quality(self):
        with pytest.raises(SchemeConditionError):
            build_case_ii_alt(CsitQuality(0.2, 0.8), 2)

    def test_condition_error_prints_the_exact_value(self):
        # 2*alpha2 - alpha1 rounds to 0.9999999999999999 here, just inside case-ii
        q = CsitQuality(0.13, (1.0 + 0.13) / 2.0)
        with pytest.raises(SchemeConditionError, match=r"got 0\.9999999999999999\)"):
            build_case_i(q, 2)
        assert build_preset("auto", q, 2).name == "case-ii"

    def test_boundary_routes_to_case_i(self):
        q = CsitQuality(0.2, 0.6)  # 2*a2 - a1 = 1 exactly
        assert build_preset("auto", q, 2).name == "case-i"
        build_case_i(q, 2)  # no error

    def test_auto_selection(self):
        assert build_preset("auto", CsitQuality(0.3, 0.5), 2).name == "case-ii"
        assert build_preset("auto", CsitQuality(0.2, 0.8), 2).name == "case-i"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_preset("nope", CsitQuality(0.3, 0.5), 2)

    def test_n_cycles_validated(self):
        with pytest.raises(ValueError):
            build_case_ii(CsitQuality(0.3, 0.5), 0)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("n_cycles, message", [
        (True, "n_cycles must be an integer, got True"),
        (2.0, "n_cycles must be an integer, got 2.0"),
        ("2", "n_cycles must be an integer, got '2'"),
        (None, "n_cycles must be an integer, got None"),
        (0, "n_cycles must be >= 1, got 0"),
        (-1, "n_cycles must be >= 1, got -1"),
    ])
    def test_every_preset_checks_n_cycles_by_name(self, name, n_cycles, message):
        quality = CsitQuality(0.2, 0.8) if name == "case-i" else CsitQuality(0.3, 0.5)
        with pytest.raises(ValueError, match=message):
            build_preset(name, quality, n_cycles)

    @pytest.mark.parametrize("build, quality", [
        (build_case_i, CsitQuality(0.2, 0.8)),
        (build_case_ii, CsitQuality(0.3, 0.5)),
        (build_case_ii_alt, CsitQuality(0.3, 0.5)),
    ])
    def test_cycled_builders_check_n_cycles_by_name(self, build, quality):
        for n_cycles, message in ((True, "an integer, got True"), (2.0, "an integer, got 2.0"), (0, ">= 1, got 0")):
            with pytest.raises(ValueError, match=f"n_cycles must be {message}"):
                build(quality, n_cycles)
        assert build(quality, np.int64(2)).n_cycles == 2


class TestBookkeeping:
    def test_case_i_rates_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = _random_case_i_quality(rng)
            plan = build_case_i(q, 3)
            s1, s2 = _cycle_prelog_sums(plan)
            assert abs(s1 / plan.cycle_channel_uses - (1 + q.alpha1) / 2) <= 1e-12
            assert abs(s2 / plan.cycle_channel_uses - 1.0) <= 1e-12

    def test_case_ii_rates_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = _random_case_ii_quality(rng)
            plan = build_case_ii(q, 3)
            s1, s2 = _cycle_prelog_sums(plan)
            assert abs(s1 / 3 - (2 + 2 * q.alpha1 - q.alpha2) / 3) <= 1e-12
            assert abs(s2 / 3 - (2 + 2 * q.alpha2 - q.alpha1) / 3) <= 1e-12

    def test_ges12_deficit_is_third_of_gap(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = _random_case_ii_quality(rng)
            plan = build_ges12_asym(q)
            corner = corner_points(q)[2]
            assert abs((corner.d2 - plan.predicted_dof.d2) - q.delta() / 3) <= 1e-12


class TestTablePowers:
    def test_case_i_small_slot_rows(self):
        q = CsitQuality(0.2, 0.8)
        plan = build_case_i(q, 1)
        _, v32 = plan.find_layer("v3_2")
        assert v32.power_coefficient == pytest.approx(0.25)
        assert v32.power_exponent == pytest.approx(q.delta())
        assert v32.encoding_prelog == pytest.approx(q.delta())
        _, u3 = plan.find_layer("u3")
        assert (u3.power_coefficient, u3.power_exponent) == (0.5, 0.8)
        assert u3.encoding_prelog == pytest.approx(0.8)
        _, carrier = plan.find_layer("eta_hat_3_1")
        assert carrier.power_sub_exponent == pytest.approx(1 - q.delta())
        assert carrier.encoding_prelog == pytest.approx(q.delta())

    def test_case_ii_big_slot_rows(self):
        q = CsitQuality(0.3, 0.5)
        plan = build_case_ii(q, 1)
        _, u41 = plan.find_layer("u4_1")
        assert u41.power_exponent == pytest.approx(0.8)
        assert u41.power_sub_exponent == pytest.approx(0.3)
        assert u41.encoding_prelog == pytest.approx(0.8)
        _, u42 = plan.find_layer("u4_2")
        assert u42.encoding_prelog == pytest.approx(0.3)
        _, v42 = plan.find_layer("v4_2")
        assert v42.encoding_prelog == pytest.approx(0.5)
        # slot 6 stacked carriers over disjoint power intervals
        _, top = plan.find_layer("eta_hat_4_2")
        _, second = plan.find_layer("eta_hat_5_1")
        assert (top.power_exponent, top.power_sub_exponent) == pytest.approx((1.0, 0.7))
        assert (second.power_exponent, second.power_sub_exponent) == pytest.approx((0.7, 0.5))
        assert top.encoding_prelog == pytest.approx(0.3)
        assert second.encoding_prelog == pytest.approx(0.2)

    def test_case_ii_alt_substitution(self):
        q = CsitQuality(0.3, 0.5)
        plan = build_case_ii_alt(q, 1)
        _, u4 = plan.find_layer("u4")
        assert u4.power_exponent == pytest.approx(0.5)
        assert u4.encoding_prelog == pytest.approx(0.5)
        # user-2 vector keeps the case-i allocation
        _, v41 = plan.find_layer("v4_1")
        assert v41.power_exponent == pytest.approx(1 - q.delta())

    def test_layer_power_floor(self):
        # 0.1*P**0.5 - P**0.4 is below 0 at P = 100 and grows as P**0.5
        layer = SymbolLayer("x", OWNER_USER1, orth_to(2), 0.5, 0.1, 1.0,
                            power_sub_coefficient=1.0, power_sub_exponent=0.4)
        assert layer.power(100.0) == 0.0
        assert layer.power(1e12) > 0.0


class TestDegenerateDrops:
    def test_symmetric_drops_gap_layers(self):
        plan = build_case_ii(CsitQuality(0.4, 0.4), 1)
        ids = {l.id for s in plan.all_slots() for l in s.layers}
        for absent in ("v3_2", "eta_hat_3_1", "eta_hat_5_1"):
            assert absent not in ids
        assert "eta_hat_4_2" in ids

    def test_no_csit_reduces_to_three_slot_shape(self):
        plan = build_case_ii(CsitQuality(0.0, 0.0), 1)
        slot4 = plan.slot(4)
        assert len(slot4.fresh(OWNER_USER1)) == 2
        assert len(slot4.fresh(OWNER_USER2)) == 2
        assert slot4.commons() == []
        # slots 5 and 6 are pure retransmission
        assert plan.slot(5).fresh(OWNER_USER1) == [] and plan.slot(5).fresh(OWNER_USER2) == []
        assert len(plan.slot(6).commons()) == 1

    def test_perfect_csit_drops_all_links(self):
        plan = build_case_i(CsitQuality(1.0, 1.0), 2)
        assert plan.links == ()
        assert all(l.precoder.kind != "first_antenna" for s in plan.all_slots() for l in s.layers)

    def test_sc_zf_perfect_csit_drops_common(self):
        plan = build_sc_zf(CsitQuality(1.0, 1.0))
        assert {l.id for l in plan.slot(1).layers} == {"u1", "v1"}


class TestValidation:
    @pytest.mark.parametrize("name,a1,a2", [
        ("ges12-asym", 0.3, 0.5),
        ("case-ii", 0.3, 0.5),
        ("case-ii-alt", 0.3, 0.5),
        ("case-i", 0.2, 0.8),
        ("sc-zf", 0.3, 0.5),
        ("case-ii", 0.0, 0.0),
        ("case-i", 1.0, 1.0),
    ])
    def test_presets_validate_clean(self, name, a1, a2):
        plan = build_preset(name, CsitQuality(a1, a2), 3)
        assert validate_plan(plan) == []

    def test_power_budget_diagnostic(self):
        q = CsitQuality(0.3, 0.5)
        slot = SlotPlan(1, (
            SymbolLayer("a", OWNER_USER1, orth_to(2), 1.0, 1.0, 1.0),
            SymbolLayer("b", OWNER_USER2, orth_to(1), 1.0, 1.0, 1.0),
        ))
        plan = SchemePlan("hand", q, (slot,), (), (), DofPoint(0, 0), 1.0, 0.0, 0)
        diags = validate_plan(plan)
        assert any("power budget exceeded" in d for d in diags)

    @staticmethod
    def _budget_scan(plan):
        """The power budget diagnostics of a plain scan of every slot."""
        diags = []
        for s in plan.all_slots():
            max_exp = max((l.power_exponent for l in s.layers), default=0.0)
            if max_exp > 1.0 + 1e-9:
                diags.append(f"power budget exceeded: slot {s.index} has exponent {max_exp:.6g} > 1")
            top_coef = sum(l.power_coefficient for l in s.layers if abs(l.power_exponent - max_exp) <= 1e-9)
            top_coef -= sum(l.power_sub_coefficient for l in s.layers
                            if l.power_sub_coefficient and abs(l.power_sub_exponent - max_exp) <= 1e-9)
            if max_exp >= 1.0 - 1e-9 and top_coef > 1.0 + 1e-9:
                diags.append(f"power budget exceeded: slot {s.index} leading coefficients sum to {top_coef:.6g} > 1")
        return diags

    @pytest.mark.parametrize("name", sorted(PRESET_NAMES))
    def test_budget_judged_per_shape_matches_a_scan_of_every_slot(self, name):
        for a1, a2 in ((0.0, 0.0), (0.3, 0.5), (0.2, 0.8), (0.0, 0.5), (1.0, 1.0)):
            try:
                plan = build_preset(name, CsitQuality(a1, a2), 3)
            except SchemeConditionError:
                continue
            budget = [d for d in validate_plan(plan) if d.startswith("power budget")]
            assert budget == self._budget_scan(plan), (name, a1, a2)

    def test_budget_judged_per_shape_on_a_cycled_plan_over_budget(self):
        # every cycle's first slot sums its leading coefficients to more
        # than 1, and every cycle's second slot has an exponent above 1:
        # each such slot is reported, by index, in slot order
        plan = build_case_ii(CsitQuality(0.3, 0.5), 4)
        period = len(plan.cycle_slots) // plan.n_cycles

        def over(k, slot):
            if k % period == 0:
                return replace(slot, layers=tuple(replace(l, power_coefficient=3.0 * l.power_coefficient)
                                                  for l in slot.layers))
            if k % period == 1:
                return replace(slot, layers=(replace(slot.layers[0], power_exponent=1.25),) + slot.layers[1:])
            return slot

        plan = replace(plan, cycle_slots=tuple(over(k, s) for k, s in enumerate(plan.cycle_slots)))
        scan = self._budget_scan(plan)
        assert sum("leading coefficients" in d for d in scan) >= plan.n_cycles
        assert sum("has exponent 1.25 > 1" in d for d in scan) == plan.n_cycles
        assert [d for d in validate_plan(plan) if d.startswith("power budget")] == scan

    @pytest.mark.parametrize("make, message", [
        (lambda: PrecoderSpec("diagonal", 1), "unknown precoder kind 'diagonal'"),
        (lambda: PrecoderSpec("first_antenna", 1), "first_antenna precoder takes no user"),
        (lambda: PrecoderSpec("orth", 3), "precoder user must be 1 or 2"),
        (lambda: PrecoderSpec("along"), "precoder user must be 1 or 2"),
        (lambda: orth_to(3), "precoder user must be 1 or 2"),
        (lambda: along(0), "precoder user must be 1 or 2"),
        (lambda: SymbolLayer("x", "user3", orth_to(2), 0.5, 0.5, 0.5), "unknown owner 'user3'"),
        (lambda: QuantizationLink(1, OWNER_COMMON, "eta_1_1", 0.2, "c"),
         "link eta_1_1: observer must be user1 or user2, got 'common'"),
    ], ids=["precoder-kind", "first-antenna-user", "precoder-user-3", "precoder-no-user", "orth-to-3", "along-0",
            "owner", "observer"])
    def test_unknown_name_rejected_at_construction(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_predicted_dof_outside_the_region_diagnostic(self):
        # (1, 1) breaks 2*d1 + d2 <= 2 + alpha2 at (0.3, 0.5); the plan
        # itself is the sound case-ii, so this is the one diagnostic
        plan = replace(build_case_ii(CsitQuality(0.3, 0.5), 1), predicted_dof=DofPoint(1.0, 1.0))
        assert validate_plan(plan) == ["predicted DoF (1.0, 1.0) outside the region"]

    def test_common_layer_off_the_first_antenna_rejected_at_construction(self):
        # the evaluator decodes common layers on the first antenna only; a
        # zero-forced one used to build, get no rate (nan) and count in no
        # noise term, so the user layer beside it read as if it were absent
        with pytest.raises(ValueError, match="layer 'c': a common layer must ride on the first antenna, "
                                             "not an 'orth' precoder"):
            SymbolLayer("c", OWNER_COMMON, orth_to(1), 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("owner, precoder", [(OWNER_USER1, "orth"), (OWNER_COMMON, "first_antenna")])
    def test_precoder_that_is_not_a_spec_rejected_at_construction(self, owner, precoder):
        # a string precoder used to build, and fail later with an
        # AttributeError in the slot that held it (or, for a common layer,
        # in the layer's own first-antenna check)
        with pytest.raises(ValueError, match=f"layer 'x': precoder must be a PrecoderSpec, got '{precoder}'"):
            SymbolLayer("x", owner, precoder, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("prelog", [0.0, 1e-13, -0.2])
    def test_vanishing_prelog_layer_rejected_at_construction(self, prelog):
        # the builders drop such a layer; a hand-built one is refused
        with pytest.raises(ValueError, match=f"layer 'x': encoding_prelog must be positive, got {prelog}"):
            SymbolLayer("x", OWNER_USER1, orth_to(2), 0.5, 0.5, prelog)

    def test_duplicate_owner_and_precoder_rejected_at_construction(self):
        # two layers of one user on one direction; first-antenna layers may
        # repeat (they are told apart by SIC)
        c = (SymbolLayer("c1", OWNER_COMMON, first_antenna(), 0.5, 1.0, 0.5),
             SymbolLayer("c2", OWNER_COMMON, first_antenna(), 0.5, 0.5, 0.5))
        SlotPlan(1, c + (SymbolLayer("a", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),
                         SymbolLayer("b", OWNER_USER2, orth_to(2), 0.5, 0.5, 0.5)))
        with pytest.raises(ValueError, match=r"slot 1: layers 'a' and 'b' share owner user1 and precoder orth\(2\)"):
            SlotPlan(1, c + (SymbolLayer("a", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),
                             SymbolLayer("b", OWNER_USER1, orth_to(2), 0.25, 0.2, 0.2)))

    def test_duplicate_layer_id_rejected_at_construction(self):
        q = CsitQuality(0.3, 0.5)
        slot1 = SlotPlan(1, (SymbolLayer("a", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),))
        slot2 = SlotPlan(2, (SymbolLayer("a", OWNER_USER2, orth_to(1), 0.5, 0.5, 0.5),))
        with pytest.raises(ValueError, match=r"duplicate layer id 'a' \(slots 1 and 2\)"):
            SchemePlan("hand", q, (slot1,), (slot2,), (), DofPoint(0, 0), 2.0, 0.0, 0)

    def test_duplicate_slot_index_rejected_at_construction(self):
        q = CsitQuality(0.3, 0.5)
        slot_a = SlotPlan(3, (SymbolLayer("a", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),))
        slot_b = SlotPlan(3, (SymbolLayer("b", OWNER_USER2, orth_to(1), 0.5, 0.5, 0.5),))
        with pytest.raises(ValueError, match="duplicate slot index 3"):
            SchemePlan("hand", q, (slot_a, slot_b), (), (), DofPoint(0, 0), 2.0, 0.0, 0)

    @pytest.mark.parametrize("precoder", [orth_to(2), first_antenna()], ids=["orth", "first-antenna"])
    def test_link_carrier_must_ride_the_first_antenna(self, precoder):
        # the evaluator decodes carriers by SIC on the first antenna; a
        # zero-forced 'w' would never deliver the quantized bits, and a
        # user-owned first-antenna 'w' (built and validated clean before)
        # counted its bits twice, as user 1's and as the link's delivery
        q = CsitQuality(0.3, 0.5)
        slot1 = SlotPlan(1, (SymbolLayer("v", OWNER_USER2, orth_to(1), 0.5, 0.5, 0.5),))
        slot2 = SlotPlan(2, (SymbolLayer("w", OWNER_USER1, precoder, 0.5, 1.0, 0.2),))
        link = QuantizationLink(1, OWNER_USER1, "eta_1_1", 0.2, "w")
        with pytest.raises(ValueError, match=r"link eta_1_1: no first-antenna carrier 'w' \(a carrier is a common"):
            SchemePlan("hand", q, (slot1, slot2), (), (link,), DofPoint(0, 0), 2.0, 0.0, 0)

    def test_link_source_slot_must_exist(self):
        q = CsitQuality(0.3, 0.5)
        slot2 = SlotPlan(2, (SymbolLayer("c", OWNER_COMMON, first_antenna(), 1.0, 1.0, 0.2),))
        link = QuantizationLink(1, OWNER_USER1, "eta_1_1", 0.2, "c")
        with pytest.raises(ValueError, match="link eta_1_1: source slot 1 missing"):
            SchemePlan("hand", q, (slot2,), (), (link,), DofPoint(0, 0), 1.0, 0.0, 0)

    @pytest.mark.parametrize("k, change, in_place, message", [
        # the same link twice: the ledger used to list 6 links for 7
        (0, {}, False, r"link eta_1_1 \(slot 1, user1\) repeats link eta_1_1 \(slot 1, user1\)"),
        # a second id for one overheard interference
        (1, {"interference_id": "eta_9_9"}, False,
         r"link eta_9_9 \(slot 1, user2\) repeats link eta_1_2 \(slot 1, user2\)"),
        # one id for two interferences
        (2, {"interference_id": "eta_1_1"}, False,
         r"link eta_1_1 \(slot 3, user1\) repeats link eta_1_1 \(slot 1, user1\)"),
        # one carrier for two links: eta_4_2 re-pointed at eta_4_1's carrier
        # built and validated clean, and its 0.5-pre-log carrier "delivered"
        # 0.8 (20.864 bits against 11.945 at 120 dB, 400 trials)
        (4, {"retransmit_layer": "eta_hat_4_1"}, True,
         r"link eta_4_2 \(slot 4, user2\) shares carrier 'eta_hat_4_1' with link eta_4_1 \(slot 4, user1\)"),
    ])
    def test_second_link_for_one_interference_rejected(self, k, change, in_place, message):
        # the changed copy of link k is added to the plan's links, or
        # replaces link k in place
        plan = build_case_ii(CsitQuality(0.3, 0.5), 1)
        edited = replace(plan.links[k], **change)
        links = plan.links[:k] + (edited,) + plan.links[k + 1:] if in_place else plan.links + (edited,)
        with pytest.raises(ValueError, match=message):
            replace(plan, links=links)

    @pytest.mark.parametrize("index, message", [
        (-1, "slot index must be >= 0, got -1"),
        (1.5, "slot index must be an integer, got 1.5"),
        (True, "slot index must be an integer, got True"),
    ])
    def test_slot_index_must_be_a_nonnegative_integer(self, index, message):
        # -1 used to build and validate, then fail in the evaluator's stream
        # keys; True ran as slot 1
        with pytest.raises(ValueError, match=message):
            SlotPlan(index, (SymbolLayer("u", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),))

    @pytest.mark.parametrize("uses, n_cycles, n_slots, message", [
        ((1.0, 0.0), -5, 1, "n_cycles must be >= 0, got -5"),
        ((1.0, 0.0), 1.0, 1, "n_cycles must be an integer, got 1.0"),
        ((1.0, 0.0), True, 1, "n_cycles must be an integer, got True"),
        ((-1.0, 2.0), 1, 1, "prologue_channel_uses must be finite and >= 0, got -1.0"),
        ((1.0, math.nan), 1, 1, "cycle_channel_uses must be finite and >= 0, got nan"),
        ((math.inf, 0.0), 0, 1, "prologue_channel_uses must be finite and >= 0, got inf"),
        ((0.0, 3.0), 0, 1, "plan 'hand' takes no channel uses"),
        ((0.0, 0.0), 4, 1, "plan 'hand' takes no channel uses"),
        # no slots used to build and validate clean, then every entry
        # point died with ZeroDivisionError sizing the draw chunks
        ((1.0, 0.0), 0, 0, "plan 'hand' has no slots"),
        # cycles that do not match the cycle slots used to build and
        # validate clean: three cycle slots at n_cycles = 0 read d2 > 1
        ((1.0, 1.0), 0, 4, "plan 'hand' has 3 cycle slots and n_cycles = 0"),
        ((1.0, 1.0), 2, 4, "plan 'hand': 3 cycle slots do not make 2 cycles"),
        ((1.0, 1.0), 3, 1, "plan 'hand': 0 cycle slots do not make 3 cycles"),
        ((1.0, 0.0), 1, 2, "plan 'hand': n_cycles = 1 but cycle_channel_uses = 0"),
    ])
    def test_channel_use_accounting_checked_at_construction(self, uses, n_cycles, n_slots, message):
        # 0 uses used to run a whole estimate_dof pass and then divide by
        # zero.  Slot 1 is the prologue, the other n_slots - 1 cycle slots
        slots = tuple(SlotPlan(i, (SymbolLayer(f"u{i}", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),))
                      for i in range(1, n_slots + 1))
        with pytest.raises(ValueError, match=message):
            SchemePlan("hand", CsitQuality(0.3, 0.5), slots[:1], slots[1:], (), DofPoint(0, 0), *uses, n_cycles)

    def test_lookup_misses_raise_key_error(self):
        plan = build_case_ii(CsitQuality(0.3, 0.5), 1)  # each miss is its map's first lookup
        with pytest.raises(KeyError, match="no slot with index 99"):
            plan.slot(99)
        with pytest.raises(KeyError, match="no layer with id 'zz'"):
            plan.find_layer("zz")
        with pytest.raises(KeyError, match="no link with interference id 'eta_9_9'"):
            perturb_link_prelog(plan, "eta_9_9", 0.1)

    @pytest.mark.parametrize("name", ["case-ii", "ges12-asym", "sc-zf"])
    def test_lookups_return_the_plans_own_records(self, name):
        # the maps are made on the first lookup, a miss here, and after a
        # pickle round trip again from the copy's own slots
        plan = build_preset(name, CsitQuality(0.3, 0.5), 3)
        for p in (plan, pickle.loads(pickle.dumps(plan))):
            with pytest.raises(KeyError, match="no slot with index -1"):
                p.slot(-1)
            for s in p.all_slots():
                assert p.slot(s.index) is s
                for layer in s.layers:
                    home, found = p.find_layer(layer.id)
                    assert home is s and found is layer

    @pytest.mark.parametrize("carrier_slot", [1, 2])
    def test_carrier_not_after_its_source_rejected_at_construction(self, carrier_slot):
        # slot 2's interference carried in slot 1 (before) or in slot 2 itself
        q = CsitQuality(0.3, 0.5)
        carrier = SymbolLayer("eta_hat_2_1", OWNER_COMMON, first_antenna(), 1.0, 1.0, 0.5, 1.0, 0.5)
        fresh = (SymbolLayer("u2", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),
                 SymbolLayer("v2", OWNER_USER2, orth_to(1), 0.5, 0.5, 0.5))
        slot1 = SlotPlan(1, (carrier,) if carrier_slot == 1 else ())
        slot2 = SlotPlan(2, ((carrier,) if carrier_slot == 2 else ()) + fresh)
        link = QuantizationLink(2, OWNER_USER1, "eta_2_1", 0.5 - 0.3, "eta_hat_2_1")
        with pytest.raises(ValueError, match=f"link eta_2_1: carrier slot {carrier_slot} is not after source slot 2"):
            SchemePlan("hand", q, (slot1, slot2), (), (link,), DofPoint(0, 0), 2.0, 0.0, 0)

    @pytest.mark.parametrize("source_slot, message", [
        (True, "must be an integer, got True"),
        (1.0, "must be an integer, got 1.0"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_link_source_slot_must_be_a_nonnegative_integer(self, source_slot, message):
        # True and 1.0 used to build, validate clean and serialize as true/1.0
        with pytest.raises(ValueError, match=f"link eta_1_1 source slot {message}"):
            QuantizationLink(source_slot, OWNER_USER1, "eta_1_1", 0.2, "c")
        plan = build_case_ii(CsitQuality(0.3, 0.5), 1)
        with pytest.raises(ValueError, match=f"link eta_1_1 source slot {message}"):
            replace(plan.links[0], source_slot=source_slot)

    def test_quant_rate_mismatch_diagnostic(self):
        plan = build_case_ii(CsitQuality(0.3, 0.5), 1)
        bad = perturb_link_prelog(plan, "eta_4_1", -0.1)
        diags = validate_plan(bad)
        assert any("quantization rate mismatch" in d for d in diags)

    def test_mismatched_links_are_named_once_each_in_link_order(self):
        # the rates are judged per slot shape, and a shape that fails names
        # each of its links: two links far apart, perturbed in the reverse
        # of plan.links order
        plan = build_case_ii(CsitQuality(0.3, 0.5), 50)
        first, last = plan.links[5], plan.links[-5]
        bad = perturb_link_prelog(perturb_link_prelog(plan, last.interference_id, 0.2), first.interference_id, -0.1)
        assert [d for d in validate_plan(bad) if "mismatch" in d] == [
            f"link {first.interference_id}: quantization rate mismatch "
            f"(prelog {first.quant_prelog - 0.1:.6g} vs received exponent {first.quant_prelog:.6g})",
            f"link {last.interference_id}: quantization rate mismatch "
            f"(prelog {last.quant_prelog + 0.2:.6g} vs received exponent {last.quant_prelog:.6g})",
        ]

    def test_an_overheard_layer_not_zero_forced_at_the_observer_is_refused(self, monkeypatch):
        # user 2's v2 is sent on orth_to(2), so user 1 hears it at P**1, but
        # the link is sized for the nominal exponent 1 - alpha1 = 0.2 of
        # zero-forced interference.  Unrefused, the plan read d2 = 1.399 +-
        # 0.009 (60-120 dB, 2000 trials, seed 7), above the single-user
        # bound of 1
        q = CsitQuality(0.8, 0.8)
        slots = (SlotPlan(1, (SymbolLayer("v1", OWNER_USER2, orth_to(1), 1.0, 0.5, 1.0),
                              SymbolLayer("v2", OWNER_USER2, orth_to(2), 1.0, 0.5, 1.0))),
                 SlotPlan(2, (SymbolLayer("eta_hat_1_1", OWNER_COMMON, first_antenna(), 0.2, 0.5, 0.2),
                              SymbolLayer("v3", OWNER_USER2, orth_to(1), 1.0, 0.5, 1.0))))
        link = QuantizationLink(1, OWNER_USER1, "eta_1_1", 0.2, "eta_hat_1_1")
        plan = SchemePlan("hand", q, slots, (), (link,), DofPoint(0.0, 1.0), 2.0, 0.0, 0)
        assert validate_plan(plan) == [
            "link eta_1_1: user1 hears its source at exponent 1, above the nominal 0.2 "
            "(an overheard layer not zero-forced at user1)"]

        def seeded(*args):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(evaluator, "_seed_words", seeded)
        with pytest.raises(PlanValidationError, match="link eta_1_1: user1 hears its source at exponent 1"):
            estimate_dof(plan, [SnrPoint.from_db(db, q) for db in (60, 80, 100, 120)], 2000, 7)

    def test_quant_rates_match_received_exponents(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            q = _random_case_ii_quality(rng)
            plan = build_case_ii(q, 2)
            for link in plan.links:
                owner = OWNER_USER2 if link.observer == OWNER_USER1 else OWNER_USER1
                src = plan.slot(link.source_slot).fresh(owner)
                alpha = q.alpha1 if link.observer == OWNER_USER1 else q.alpha2
                assert abs(link.quant_prelog - (max(l.power_exponent for l in src) - alpha)) <= 1e-12

    @pytest.mark.parametrize("field", ["power_coefficient", "power_exponent", "power_sub_coefficient",
                                       "power_sub_exponent", "encoding_prelog"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_layer_number_rejected_at_construction(self, field, value):
        # a NaN power used to pass validate_plan and come out as a NaN rate
        kwargs = dict(power_exponent=0.5, power_coefficient=0.5, encoding_prelog=0.5,
                      power_sub_coefficient=0.0, power_sub_exponent=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"layer 'x': {field} must be finite"):
            SymbolLayer("x", OWNER_USER1, orth_to(2), **kwargs)

    @pytest.mark.parametrize("power, message", [
        ((0.5, 0.5, -0.25, 0.2), "power_sub_coefficient must be >= 0, got -0.25"),
        # the power 0.5*P**0.5 - 0.25*P**0.8 is 0 at every grid point
        ((0.5, 0.5, 0.25, 0.8), r"the subtracted 0\.25\*P\*\*0\.8 is not below 0\.5\*P\*\*0\.5 at high P"),
        ((0.5, 1.0, 0.5, 1.0), r"the subtracted 0\.5\*P\*\*1 is not below 0\.5\*P\*\*1 at high P"),
        ((0.5, 1.0, 0.75, 1.0), r"the subtracted 0\.75\*P\*\*1 is not below 0\.5\*P\*\*1 at high P"),
        ((0.0, 0.5, 0.0, 0.0), "power_coefficient must be positive, got 0.0"),
        ((-0.5, 0.5, 0.0, 0.0), "power_coefficient must be positive, got -0.5"),
    ], ids=["negative", "larger-exponent", "equal", "equal-exponent-larger-coefficient",
            "zero-coefficient", "negative-coefficient"])
    def test_power_that_vanishes_at_high_snr_rejected_at_construction(self, power, message):
        # such a layer used to validate clean and read a rate of 0
        coef, exp, sub_coef, sub_exp = power
        with pytest.raises(ValueError, match=f"layer 'x': {message}"):
            SymbolLayer("x", OWNER_USER1, orth_to(2), exp, coef, 0.5, sub_coef, sub_exp)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_quant_prelog_rejected_at_construction(self, value):
        with pytest.raises(ValueError, match="link eta_1_1: quant_prelog must be finite"):
            QuantizationLink(1, OWNER_USER1, "eta_1_1", value, "c")
        with pytest.raises(ValueError, match="link eta_4_1: quant_prelog must be finite"):
            perturb_link_prelog(build_case_ii(CsitQuality(0.3, 0.5), 1), "eta_4_1", value)


class TestRegionConsistency:
    @pytest.mark.parametrize("name", ["case-i", "case-ii", "case-ii-alt", "sc-zf", "ges12-asym"])
    def test_predicted_inside_region_and_on_corner(self, name):
        rng = np.random.default_rng(15)
        for _ in range(10):
            if name in ("case-ii", "case-ii-alt"):
                q = _random_case_ii_quality(rng)
            elif name == "case-i":
                q = _random_case_i_quality(rng)
            else:
                a1 = rng.uniform(0, 1)
                q = CsitQuality(a1, rng.uniform(a1, 1))
            plan = build_preset(name, q, 2)
            region = dof_region(q)
            assert contains(region, plan.predicted_dof, tol=1e-9)
            if name != "ges12-asym":
                corners = corner_points(q)
                dist = min(
                    math.hypot(c.d1 - plan.predicted_dof.d1, c.d2 - plan.predicted_dof.d2)
                    for c in corners
                )
                assert dist <= 1e-9


def _index(plan):
    """The plan's decode index, in plain Python values."""
    return (plan.shapes, plan.shape_of, plan.settle_after, [m.tolist() for m in plan.members],
            [r.tolist() for r in plan.link_rows], plan.starts.tolist(), plan.added.tolist())


def test_plan_pickle_round_trip():
    plan = build_case_ii(CsitQuality(0.3, 0.5), 3)
    plan.find_layer("u3")  # a copy made after the lookup maps are made
    for copy in (pickle.loads(pickle.dumps(plan)), pickle.loads(pickle.dumps(build_case_ii(plan.quality, 3)))):
        assert copy == plan and repr(copy) == repr(plan) and plan_as_dict(copy) == plan_as_dict(plan)
        assert _index(copy) == _index(plan)
        # replace builds the index again from the new links: reversed, each
        # link row and the stacked carriers' column order move, and the
        # plan's own links give its index back
        flipped = replace(copy, links=tuple(reversed(plan.links)))
        assert flipped.link_rows[0].tolist() == [[len(plan.links) - 1, len(plan.links) - 2]]
        assert _index(flipped) != _index(plan) and _index(replace(flipped, links=plan.links)) == _index(plan)


class TestPlanFootprint:
    # tracemalloc current of one case-ii build at (0.3, 0.5), 400 cycles
    # (1203 slots, 5608 layers, 1602 links), after a warm-up build, read
    # once a full collection has emptied the free lists, which keep up to
    # 0.4 MB of the build's freed tuples, floats and dicts: 1,504,337 B.  It
    # read 2,826,297-2,905,737 B while each layer held its own PrecoderSpec,
    # each layer, slot and link its own __dict__, and the plan its slot and
    # layer lookup maps from construction on
    PLAN_CURRENT = 1_504_337

    def test_plan_footprint_stays_within_ten_percent_of_its_measure(self):
        quality = CsitQuality(0.3, 0.5)
        build_case_ii(quality, 400)
        tracemalloc.start()
        try:
            plan = build_case_ii(quality, 400)
            gc.collect()
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan.all_slots()) == 1203
        assert current <= 1.1 * self.PLAN_CURRENT, current

    def test_each_direction_has_one_spec(self):
        specs = [orth_to(1), orth_to(2), along(1), along(2), first_antenna()]
        assert all(a is b for a, b in zip(specs, [orth_to(1), orth_to(2), along(1), along(2), first_antenna()]))
        plan = build_case_ii(CsitQuality(0.3, 0.5), 3)
        assert len({id(l.precoder) for s in plan.all_slots() for l in s.layers}) == 5


def test_plan_serialization_round_trip():
    plan = build_case_ii(CsitQuality(0.3, 0.5), 2)
    d = plan_as_dict(plan)
    assert d["name"] == "case-ii"
    assert d["n_cycles"] == 2
    assert len(d["slots"]) == len(plan.all_slots())
    assert len(d["links"]) == len(plan.links)
    ids = {l["id"] for s in d["slots"] for l in s["layers"]}
    assert {"u3", "v4_2", "eta_hat_3_1"} <= ids
