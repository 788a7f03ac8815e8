import gc
import math
import operator
import sys
import threading
import tracemalloc
from collections import deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_properties import _check_shared_pass

from asymcsit import (
    ChannelRealization,
    CsitQuality,
    ExperimentConfig,
    PlanValidationError,
    SnrPoint,
    build_case_i,
    build_case_ii,
    build_ges12_asym,
    build_preset,
    build_sc_zf,
    estimate_dof,
    estimate_dofs,
    evaluate_plan,
    residual_power_probe,
    run,
    sample_channel,
)
from asymcsit import channel, evaluator, schemes
from asymcsit.channel import _TAG_CHANNEL, _db_key, _draw, _pcg_states, _seed_words, _state_memory, _word_order
from asymcsit.evaluator import _common_mis, _cross_minors, _evaluate_grid, _logdet_mi, _project, check_grid_db
from asymcsit.geometry import DofPoint
from asymcsit.schemes import (
    OWNER_COMMON,
    OWNER_USER1,
    OWNER_USER2,
    QuantizationLink,
    SchemePlan,
    SlotPlan,
    SymbolLayer,
    along,
    first_antenna,
    orth_to,
    perturb_link_prelog,
)

Q35 = CsitQuality(0.3, 0.5)
Q28 = CsitQuality(0.2, 0.8)


def _hand_plan(indices, user1, observers):
    """A plan at (0.3, 0.5) over the increasing slot indices given.  Each
    slot holds user 1's layers, (precoder, power exponent) each, and user
    2's zero-forced v; what observers[k % len(observers)] overhears in the
    k-th slot is linked and carried two slots later, by a common layer of
    its own, at the interference's received exponent."""
    other = {OWNER_USER1: OWNER_USER2, OWNER_USER2: OWNER_USER1}
    alpha = {OWNER_USER1: Q35.alpha1, OWNER_USER2: Q35.alpha2}
    layers = {i: [SymbolLayer(f"u{k}_{i}", OWNER_USER1, pc, e, 1.0, 0.5) for k, (pc, e) in enumerate(user1)]
              + [SymbolLayer(f"v_{i}", OWNER_USER2, orth_to(1), 0.5, 1.0, 0.5)] for i in indices}
    links = []
    for k, (i, j) in enumerate(zip(indices, indices[2:])):
        observer = observers[k % len(observers)]
        exponent = max(l.power_exponent for l in layers[i] if l.owner == other[observer]) - alpha[observer]
        links.append(QuantizationLink(i, observer, f"eta_{i}", exponent, f"c_{j}"))
        layers[j].append(SymbolLayer(f"c_{j}", OWNER_COMMON, first_antenna(), 1.0, 1.0, exponent))
    slots = tuple(SlotPlan(i, tuple(layers[i])) for i in indices)
    return SchemePlan("hand", Q35, slots, (), tuple(links), DofPoint(0, 0), float(len(slots)), 0.0, 0)


def _grid(quality, dbs=(60, 80, 100, 120)):
    return [SnrPoint.from_db(db, quality) for db in dbs]


def _fixed_channel():
    """Deterministic realization: h = (1, 0), g = (0, 1), perfect estimates."""
    e1 = np.array([1.0 + 0j, 0.0 + 0j])
    e2 = np.array([0.0 + 0j, 1.0 + 0j])
    zero = np.zeros(2, dtype=complex)
    return ChannelRealization(h_true=e1, g_true=e2, h_est=e1, g_est=e2, h_err=zero, g_err=zero)


def _project_channel(ch, precoders):
    """_project on one realization, its true channels conjugated as the
    pass's are: each precoder's complex gains (None on the first antenna)
    and |gain|**2, the user on the leading axis.  The estimates are copied,
    because _project reuses their buffers."""
    directions = [schemes._DIRECTIONS.index(pc) for pc in precoders]
    power_gain = {d: np.empty(2) for d in directions}
    gain = {}
    for projected in _project((np.conj(ch.h_true), np.conj(ch.g_true)), (ch.h_est.copy(), ch.g_est.copy()),
                              sorted(set(directions)), np.empty(2, complex), power_gain):
        gain |= projected
    return [gain.get(d) for d in directions], [power_gain[d] for d in directions]


def _zf_rate(layer, ch, p, noise):
    """The evaluator's direct-observation rate of a lone zero-forced symbol."""
    _, (power_gain,) = _project_channel(ch, [layer.precoder])
    return float(_logdet_mi([([power_gain[0]], noise)], [layer.power(p)]))


def _vector_rate(layers, ch, p, direct_noise, side_noise):
    """The evaluator's 2x2 log-det rate of a user-2 vector: direct row at
    user 2 stacked with the record overheard at user 1."""
    gain, power_gain = _project_channel(ch, [l.precoder for l in layers])
    powers = [l.power(p) for l in layers]
    rows = [([a[1] for a in power_gain], direct_noise), ([a[0] for a in power_gain], side_noise)]
    minors = _cross_minors([g[1] for g in gain], [g[0] for g in gain], powers, np.empty(()))
    return float(_logdet_mi(rows, powers, minors))


class TestRateOps:
    """The evaluator's rate primitives on fixed or single draws."""

    def test_single_common_is_point_to_point_capacity(self):
        snr = SnrPoint(1e6, Q35)
        _, power_gain = _project_channel(_fixed_channel(), [first_antenna()])
        # one layer's MIs, (user, grid point, trial)
        (mi,) = _common_mis([np.array([[snr.p]])], [], {0: power_gain[0][:, None, None]})
        mi1, mi2 = mi
        assert mi1.item() == pytest.approx(math.log2(1 + 1e6), abs=1e-12)
        assert mi2.item() == 0.0  # g has no first-antenna component here

    def test_zf_symbol_clean(self):
        snr = SnrPoint(1e4, Q35)
        u = SymbolLayer("u", OWNER_USER1, orth_to(2), 1.0, 1.0, 1.0)
        # orth(g_est) = orth((0,1)) is along e1, so the gain is |h^H e1| = 1
        rate = _zf_rate(u, _fixed_channel(), snr.p, 1.0)
        assert rate == pytest.approx(math.log2(1 + 1e4), abs=1e-9)

    def test_zf_symbol_residual_noise(self):
        snr = SnrPoint(1e4, Q35)
        u = SymbolLayer("u", OWNER_USER1, orth_to(2), 1.0, 1.0, 1.0)
        r0 = _zf_rate(u, _fixed_channel(), snr.p, 1.0)
        r3 = _zf_rate(u, _fixed_channel(), snr.p, 1.0 + 3.0)  # residual 3 on top of unit noise
        assert r3 == pytest.approx(math.log2(1 + 1e4 / 4.0), abs=1e-9)
        assert r3 < r0

    def test_joint_vector_zero_power(self):
        snr = SnrPoint(1e6, Q35)
        ch = sample_channel(snr, np.random.default_rng(0))
        layers = [
            SymbolLayer("v1", OWNER_USER2, orth_to(1), 0.5, 0.1, 0.5, 1.0, 0.4),  # power 0 at P = 1e6
            SymbolLayer("v2", OWNER_USER2, along(1), 0.2, 0.1, 0.2, 1.0, 0.1),    # power 0 at P = 1e6
        ]
        assert [l.power(snr.p) for l in layers] == [0.0, 0.0]
        assert _vector_rate(layers, ch, snr.p, 1.0, 1.0) == 0.0

    def test_joint_vector_positive_and_noise_monotone(self):
        snr = SnrPoint(1e6, Q35)
        ch = sample_channel(snr, np.random.default_rng(1))
        layers = [
            SymbolLayer("v1", OWNER_USER2, orth_to(1), 0.5, 0.5, 0.5),
            SymbolLayer("v2", OWNER_USER2, along(1), 0.25, 0.2, 0.2),
        ]
        r1 = _vector_rate(layers, ch, snr.p, direct_noise=1.0, side_noise=1.0)
        r2 = _vector_rate(layers, ch, snr.p, direct_noise=5.0, side_noise=2.0)
        assert r1 > r2 > 0.0

    @pytest.mark.parametrize("tilt,bits", [(1e-12, 82.048), (1e-9, 99.658), ((1e-9, 3e-9), 103.465)])
    def test_joint_vector_nearly_collinear_rows(self, tilt, bits):
        # both rows see the layers along almost the same direction, so det(A)
        # is far below a11*a22 (~1e48); expanding (1+a11)(1+a22) - |a12|**2
        # in floats cancels it away (0 bits at tilt 1e-12, 110 at 1e-9, 0 for
        # three layers).  A tuple tilts a second and a third layer: three
        # pairs of layers, so _cross_minors adds terms after its first
        tilts = tilt if isinstance(tilt, tuple) else (tilt,)
        row1 = [1e8] * (1 + len(tilts))
        row2 = [1e8] + [1e8 * (1.0 + t) for t in tilts]
        powers = [1e8] * (1 + len(tilts))
        gains = [[np.array([complex(g)]) for g in row] for row in (row1, row2)]
        rows = [([np.abs(g) ** 2 for g in row], 1.0) for row in gains]
        minors = _cross_minors(gains[0], gains[1], powers, np.empty(1))

        p, h, g = [Fraction(x) for x in powers], [Fraction(x) for x in row1], [Fraction(x) for x in row2]
        a11 = sum(pi * hi * hi for pi, hi in zip(p, h))
        a22 = sum(pi * gi * gi for pi, gi in zip(p, g))
        a12 = sum(pi * hi * gi for pi, hi, gi in zip(p, h, g))
        exact = math.log2((1 + a11) * (1 + a22) - a12 * a12)

        assert exact == pytest.approx(bits, abs=1e-3)
        assert float(_logdet_mi(rows, powers, minors)[0]) == pytest.approx(exact, rel=1e-6)


class TestEvaluatePlan:
    def test_sc_zf_compositional_identity(self):
        # one trial: the ledger must equal an independent numpy recomputation
        # of the SIC and zero-forcing rates on the same channel draw
        snr = SnrPoint.from_db(80, Q35)
        plan = build_sc_zf(Q35)
        seed = 123
        ledger = evaluate_plan(plan, snr, 1, seed)

        stream = np.random.default_rng(np.random.SeedSequence([seed, _TAG_CHANNEL, _db_key(snr.p_db), 1]))
        ch = sample_channel(snr, stream, size=1)
        h, g = ch.h_true[0], ch.g_true[0]
        power = {l.id: l.power(snr.p) for l in plan.slot(1).layers}

        def orth(v):
            w = np.array([-np.conj(v[1]), np.conj(v[0])])
            return w / np.linalg.norm(w)

        w_u, w_v = orth(ch.g_est[0]), orth(ch.h_est[0])  # u1 nulls user 2, v1 user 1

        def rx(c, w, layer_id):
            return abs(np.vdot(c, w)) ** 2 * power[layer_id]

        # x_c rides on antenna 1 and is decoded at both users under both
        # zero-forced symbols; each zero-forced symbol then sees the other's
        # leakage
        r_xc = min(
            math.log2(1 + abs(c[0]) ** 2 * power["x_c"] / (rx(c, w_u, "u1") + rx(c, w_v, "v1") + 1))
            for c in (h, g)
        )
        r_u = math.log2(1 + rx(h, w_u, "u1") / (1 + rx(h, w_v, "v1")))
        r_v = math.log2(1 + rx(g, w_v, "v1") / (1 + rx(g, w_u, "u1")))

        assert ledger.user_rate[0] == pytest.approx(r_xc + r_u, abs=1e-12)
        assert ledger.user_rate[1] == pytest.approx(r_v, abs=1e-12)
        assert ledger.per_symbol_rate["x_c"] == pytest.approx(r_xc, abs=1e-12)

    def test_rates_nonnegative_near_unit_power(self):
        snr = SnrPoint(1.001, Q35)
        for plan in (build_sc_zf(Q35), build_case_ii(Q35, 2), build_ges12_asym(Q35)):
            ledger = evaluate_plan(plan, snr, 50, seed=5)
            assert ledger.user_rate[0] >= 0.0
            assert ledger.user_rate[1] >= 0.0
            assert all(v >= 0.0 for v in ledger.per_symbol_rate.values())

    def test_user_totals_are_layer_sums(self):
        snr = SnrPoint.from_db(80, Q35)
        plan = build_case_ii(Q35, 3)
        ledger = evaluate_plan(plan, snr, 200, seed=2)
        sums = {OWNER_USER1: 0.0, OWNER_USER2: 0.0}
        for slot in plan.all_slots():
            for layer in slot.layers:
                if layer.owner in sums:
                    sums[layer.owner] += ledger.per_symbol_rate[layer.id]
        assert ledger.user_rate[0] == pytest.approx(sums[OWNER_USER1], rel=1e-9)
        assert ledger.user_rate[1] == pytest.approx(sums[OWNER_USER2], rel=1e-9)

    def test_monotone_in_power(self):
        plan = build_case_ii(Q35, 3)
        rates = [
            evaluate_plan(plan, snr, 300, seed=3).user_rate
            for snr in _grid(Q35)
        ]
        for (a1, a2), (b1, b2) in zip(rates, rates[1:]):
            assert b1 > a1 and b2 > a2

    def test_deterministic_and_seed_sensitive(self):
        snr = SnrPoint.from_db(80, Q35)
        plan = build_case_ii(Q35, 2)
        l1 = evaluate_plan(plan, snr, 100, seed=9)
        l2 = evaluate_plan(plan, snr, 100, seed=9)
        assert l1.user_rate == l2.user_rate
        assert l1.per_symbol_rate == l2.per_symbol_rate
        l3 = evaluate_plan(plan, snr, 100, seed=10)
        assert l1.user_rate != l3.user_rate

    def test_rejects_invalid_plan(self):
        bad = perturb_link_prelog(build_case_ii(Q35, 1), "eta_4_1", -0.1)
        with pytest.raises(PlanValidationError, match="quantization rate mismatch"):
            evaluate_plan(bad, SnrPoint.from_db(80, Q35), 10, seed=0)

    def test_rejects_quality_mismatch(self):
        plan = build_case_ii(Q35, 1)
        with pytest.raises(ValueError, match="quality"):
            evaluate_plan(plan, SnrPoint.from_db(80, Q28), 10, seed=0)

    def test_outer_bound_respected_at_finite_power(self):
        snr = SnrPoint(1e8, Q35)
        plan = build_case_ii(Q35, 50)
        ledger = evaluate_plan(plan, snr, 2000, seed=7)
        r1 = ledger.user_rate[0] / ledger.channel_uses
        r2 = ledger.user_rate[1] / ledger.channel_uses
        assert (r1 + 2 * r2) / snr.log2p <= 2 + Q35.alpha2 + 0.1

    def test_cap_tightness_delivered_vs_demand(self):
        # the carrying common layer's delivered MI pre-log must cover the
        # quantization pre-log of every link
        plan = build_case_ii(Q35, 3)
        grid = _grid(Q35)
        delivered = {}
        for snr in grid:
            ledger = evaluate_plan(plan, snr, 400, seed=4)
            for k, v in ledger.link_delivered.items():
                delivered.setdefault(k, []).append(v)
        x = [s.log2p for s in grid]
        prelogs = {link.interference_id: link.quant_prelog for link in plan.links}
        for k, ys in delivered.items():
            slope = float(np.polyfit(x, ys, 1)[0])
            assert slope >= prelogs[k] - 0.05, (k, slope, prelogs[k])


class TestPerLayerPrelogs:
    """Fitted per-symbol rate slopes must reproduce the allocation tables."""

    @staticmethod
    def _layer_slopes(plan, quality, trials=600, seed=11):
        grid = _grid(quality)
        ledgers = [evaluate_plan(plan, snr, trials, seed) for snr in grid]
        x = np.array([s.log2p for s in grid])
        slopes = {}
        for layer_id in ledgers[0].per_symbol_rate:
            y = np.array([led.per_symbol_rate[layer_id] for led in ledgers])
            slopes[layer_id] = float(np.polyfit(x[-2:], y[-2:], 1)[0])
        return slopes

    def test_case_ii_all_rows(self):
        # every layer's fitted rate slope matches its encoding pre-log:
        # the allocation tables verified row by row
        plan = build_case_ii(Q35, 3)
        slopes = self._layer_slopes(plan, Q35)
        prelogs = {l.id: l.encoding_prelog for s in plan.all_slots() for l in s.layers}
        for layer_id, prelog in prelogs.items():
            assert slopes[layer_id] == pytest.approx(prelog, abs=0.05), layer_id

    def test_case_ii_named_rows(self):
        # the first cycle's rows: small slot, big slot, stacked carriers
        plan = build_case_ii(Q35, 3)
        slopes = self._layer_slopes(plan, Q35)
        assert slopes["eta_hat_3_1"] == pytest.approx(0.2, abs=0.05)   # Delta
        assert slopes["eta_hat_4_2"] == pytest.approx(0.3, abs=0.05)   # 1 - Delta - alpha2
        assert slopes["eta_hat_5_1"] == pytest.approx(0.2, abs=0.05)   # Delta after stripping the top carrier
        assert slopes["u3"] == pytest.approx(0.5, abs=0.05)            # alpha2

    def test_case_ii_vector_rates(self):
        # joint vector pre-logs at the big slot: user 1 2-2*Delta-alpha2,
        # user 2 2-Delta-alpha2
        plan = build_case_ii(Q35, 3)
        slopes = self._layer_slopes(plan, Q35)
        assert slopes["u4_1"] + slopes["u4_2"] == pytest.approx(1.1, abs=0.05)
        assert slopes["v4_1"] + slopes["v4_2"] == pytest.approx(1.3, abs=0.05)

    def test_case_i_rows(self):
        plan = build_case_i(Q28, 3)
        slopes = self._layer_slopes(plan, Q28)
        prelogs = {l.id: l.encoding_prelog for s in plan.all_slots() for l in s.layers}
        for layer_id, prelog in prelogs.items():
            assert slopes[layer_id] == pytest.approx(prelog, abs=0.05), layer_id
        assert slopes["u3"] == pytest.approx(0.8, abs=0.05)           # alpha2
        assert slopes["u4"] == pytest.approx(0.4, abs=0.05)           # 1 - Delta
        assert slopes["eta_hat_3_1"] == pytest.approx(0.6, abs=0.05)  # Delta
        assert slopes["eta_hat_4_1"] == pytest.approx(0.2, abs=0.05)  # 1 - alpha2

    def test_sc_zf_rows(self):
        plan = build_sc_zf(Q35)
        slopes = self._layer_slopes(plan, Q35, trials=2000)
        assert slopes["u1"] == pytest.approx(0.3, abs=0.05)
        assert slopes["v1"] == pytest.approx(0.3, abs=0.05)
        assert slopes["x_c"] == pytest.approx(0.7, abs=0.05)

    def test_ges12_restricted_symbol(self):
        plan = build_ges12_asym(Q35)
        slopes = self._layer_slopes(plan, Q35, trials=2000)
        assert slopes["u3"] == pytest.approx(0.3, abs=0.05)  # limited to alpha1
        assert slopes["v3"] == pytest.approx(0.5, abs=0.05)
        assert slopes["u1_1"] + slopes["u1_2"] == pytest.approx(1.5, abs=0.05)
        assert slopes["v1_1"] + slopes["v1_2"] == pytest.approx(1.7, abs=0.05)


class TestEstimateDof:
    def test_grid_validation(self):
        plan = build_case_ii(Q35, 2)
        with pytest.raises(ValueError, match="at least 3"):
            estimate_dof(plan, _grid(Q35, (60, 120)), 10, seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_dof(plan, _grid(Q35, (60, 60, 120)), 10, seed=0)
        with pytest.raises(ValueError, match="40 dB"):
            estimate_dof(plan, _grid(Q35, (60, 70, 80)), 10, seed=0)
        with pytest.raises(ValueError, match="quality"):
            estimate_dof(plan, _grid(Q28), 10, seed=0)

    def test_several_plans_need_one_quality_and_at_least_one_plan(self, monkeypatch):
        # refused before any stream is seeded
        def no_streams(*args):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(evaluator, "_seed_words", no_streams)
        with pytest.raises(ValueError, match="at least one plan"):
            estimate_dofs([], _grid(Q35), 10, seed=0)
        with pytest.raises(ValueError, match="quality"):
            estimate_dofs([build_sc_zf(Q35), build_sc_zf(Q28)], _grid(Q35), 10, seed=0)

    def test_grid_at_the_precision_ceiling_still_fits(self):
        # alpha2 * 300 / 10 = 30 is the top of what the grid check accepts,
        # and the zero-forcing leakage still resolves there
        q = CsitQuality(1.0, 1.0)
        est = estimate_dof(build_sc_zf(q), _grid(q, (240, 270, 300)), 200, seed=7)
        assert est.slope.as_tuple() == pytest.approx((1.0, 1.0), abs=0.05)
        check_grid_db([540.0, 570.0, 600.0], 0.5)  # the ceiling scales with alpha2

    def test_grid_above_the_precision_ceiling_is_refused(self):
        # at alpha2 = 1 the slopes read (0.976, 0.964) over 260-320 dB and
        # (0.223, 0.267) over 340-400 dB, with nothing else to show for it
        q = CsitQuality(1.0, 1.0)
        with pytest.raises(ValueError, match="320.0 dB is above the precision ceiling at alpha2 = 1.0"):
            estimate_dof(build_sc_zf(q), _grid(q, (260, 290, 320)), 200, seed=7)
        with pytest.raises(ValueError, match="precision ceiling"):
            check_grid_db([600.0, 640.0, 680.0], 0.5)

    def test_single_points_above_the_precision_ceiling_are_refused(self, monkeypatch):
        # on sc-zf at (1, 1) rate / log2 P reads 0.979 at 300 dB, 0.962 at
        # 340 dB and 0.876 at 400 dB: the grid's ceiling holds at one point
        # too, before any stream is seeded
        q = CsitQuality(1.0, 1.0)
        plan = build_sc_zf(q)

        def no_streams(*args):
            raise AssertionError("a stream was seeded")

        with monkeypatch.context() as m:
            m.setattr(evaluator, "_seed_words", no_streams)
            for call in (evaluate_plan, residual_power_probe):
                with pytest.raises(ValueError, match="320.0 dB is above the precision ceiling at alpha2 = 1.0"):
                    call(plan, SnrPoint.from_db(320.0, q), 20, seed=7)
        assert evaluate_plan(plan, SnrPoint.from_db(300.0, q), 20, seed=7).user_rate[0] > 0
        assert residual_power_probe(plan, SnrPoint.from_db(300.0, q), 20, seed=7) == {}

    def test_points_and_stderr_shape(self):
        plan = build_case_ii(Q35, 3)
        est = estimate_dof(plan, _grid(Q35), 200, seed=6)
        assert len(est.points) == 4
        assert len(est.point_stderr) == 4
        assert est.stderr[0] > 0 and est.stderr[1] > 0
        assert est.slope.d1 > 0 and est.slope.d2 > 0

    @pytest.mark.parametrize("alpha1", [0.0, 0.2, 0.4])
    def test_case_ii_reaches_its_corner_next_to_the_case_split(self, alpha1):
        # at 2*alpha2 - alpha1 = 0.98 the stacked carriers' powers
        # P - P**(Delta+alpha2) and P**(Delta+alpha2) - P**alpha2 cross inside
        # 60-120 dB: a per-point power order would decode the weaker-exponent
        # carrier first there and miss the corner by 0.11-0.18
        q = CsitQuality(alpha1, (0.98 + alpha1) / 2.0)
        plan = build_preset("auto", q, 20)
        assert plan.name == "case-ii"
        est = estimate_dof(plan, _grid(q), 300, seed=7)
        assert est.slope.as_tuple() == pytest.approx(plan.predicted_dof.as_tuple(), abs=0.05)

    def test_memory_does_not_grow_with_the_plan(self):
        # a part waits whole until the slot that its last group settles
        # after has been decoded, and its fresh-layer gains (in the ring, or
        # a block of its own) are given up then, so ten times the cycles may
        # not cost ten times the peak.
        # At 20 trials the per-slot arrays are small, so the peak shows what
        # the pass keeps per layer and link over the whole plan.
        estimate_dof(build_case_ii(Q35, 1), _grid(Q35), 20, seed=3)  # first-call allocations
        for n_trials, cycles, bound in ((200, (4, 40), 1.5), (20, (10, 100), 5.0)):
            peaks = []
            for n_cycles in cycles:
                plan = build_case_ii(Q35, n_cycles)
                tracemalloc.start()
                try:
                    estimate_dof(plan, _grid(Q35), n_trials, seed=3)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= bound * peaks[0], (n_trials, peaks)

    # tracemalloc peak of the pass below after a warm-up call: 2,434,388 B
    # (three runs within 0.3 %), numpy 2.4.6, Python 3.11.7, x86-64 Linux
    PASS_PEAK = 2_434_388
    # the same for the sc-zf pass below: 3,354,673 B in three runs, against
    # 3,419,764 B while its user-owned first-antenna layer held both users'
    # MIs, not their minimum, from its decode to its settle
    SC_ZF_PASS_PEAK = 3_354_673

    @staticmethod
    def _pass_peak(plan, n_trials):
        grid = _grid(Q35)
        _evaluate_grid([build_case_ii(Q35, 1)], grid, 20, 3)  # first-call allocations
        tracemalloc.start()
        try:
            _evaluate_grid([plan], grid, n_trials, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pass_peak_stays_within_ten_percent_of_its_measure(self):
        # a gate on the pass's own memory, draw chunks of 51 slots and parts
        # of two: its buffers kept for the pass, among them the ring that
        # holds a waiting part's power gains, the waiting part's bits and
        # cross minors, the complex gains of one estimate at a time, and the
        # per-layer and per-link results of a plan of 303 slots
        peak = self._pass_peak(build_case_ii(Q35, 100), 20)
        assert peak <= 1.1 * self.PASS_PEAK, peak

    def test_sc_zf_pass_peak_stays_within_ten_percent_of_its_measure(self):
        # one slot over the draw budget at 2000 trials, so a worker draws
        # beside the decode; its user-owned first-antenna layer keeps one
        # array of bits from its decode to its settle
        _evaluate_grid([build_sc_zf(Q35)], _grid(Q35), 2000, 3)  # the worker's first-call allocations
        peak = self._pass_peak(build_sc_zf(Q35), 2000)
        assert peak <= 1.1 * self.SC_ZF_PASS_PEAK, peak

    @pytest.mark.parametrize("n_trials", [20, 600], ids=["this-thread-draws", "worker-draws"])
    def test_a_pass_leaves_no_cyclic_garbage(self, n_trials):
        # what only the cyclic collector frees is freed when it happens to
        # run, which moves the process's peak resident set from run to run
        plan, grid = build_case_ii(Q35, 2), _grid(Q35)
        _evaluate_grid([plan], grid, n_trials, 3)
        gc.collect()
        gc.disable()
        try:
            _evaluate_grid([plan], grid, n_trials, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSlotTemplates:
    """The pass compiles one decode template per slot shape, not per slot."""

    @pytest.mark.parametrize("name, quality", [
        ("case-i", Q28), ("case-ii", Q35), ("case-ii-alt", Q35), ("ges12-asym", Q35), ("sc-zf", Q35),
    ], ids=lambda v: f"{v.alpha1}-{v.alpha2}" if isinstance(v, CsitQuality) else v)
    def test_templates_do_not_grow_with_the_cycles(self, name, quality):
        # compiled only: nothing is drawn.  One template per shape, in
        # plan.shapes order, and every slot's shape number names one of them
        ps = [s.p for s in _grid(quality)]
        counts = []
        for n_cycles in (3, 400):
            plan = build_preset(name, quality, n_cycles)
            templates = evaluator._compile(plan, ps)
            assert len(templates) == len(plan.shapes) == len(set(plan.shape_of))
            for t, shape in zip(templates, plan.shapes):
                assert t.shape is shape and tuple(g for g, _ in t.groups) == shape.groups
                assert tuple(k for k, _, _ in t.sic) == shape.sic
            counts.append(len(templates))
        assert counts[0] == counts[1]
        if name == "case-ii":
            # slots 1 and 2, the three cycle positions (the first cycle's A
            # slot has the C slots' shape at (0.3, 0.5)) and the terminator
            assert counts[1] == 6

    @pytest.mark.parametrize("n_cycles, n_trials", [(20, 20), (400, 20), (3, 600)])
    def test_each_part_settles_once_per_template(self, monkeypatch, n_cycles, n_trials):
        # 20 trials: draw chunks of 51 slots and parts of two chunks, whose
        # groups wait for the next part's first chunk's carriers; 600
        # trials: a slot is over the draw budget, so one slot per chunk and
        # per part.  Either way a part's slots of one template settle in one
        # _logdet_mi call per group
        plan, grid = build_case_ii(Q35, n_cycles), _grid(Q35)
        calls = []
        logdet = evaluator._logdet_mi

        def counting_logdet(*args, **kwargs):
            calls.append(1)
            return logdet(*args, **kwargs)

        monkeypatch.setattr(evaluator, "_logdet_mi", counting_logdet)
        _evaluate_grid([plan], grid, n_trials, 5)
        templates = evaluator._compile(plan, [s.p for s in grid])
        shapes = plan.shape_of
        chunk = max(1, evaluator._DRAW_BUDGET // (len(grid) * math.prod(channel._row(n_trials))))
        part = chunk if chunk == 1 else 2 * chunk
        assert len(calls) == sum(sum(1 for g, _ in templates[n].groups if g.positions)
                                 for lo in range(0, len(shapes), part)
                                 for n in set(shapes[lo:lo + part]))

    def test_evenly_spaced_slots_are_read_as_views(self):
        # per range of a table, less the range's base: a slice where the
        # entries step evenly upwards, else an index array.  The tables lie
        # end to end, and no range reads a step across their seam
        rising, falling = np.array([0, 2, 4, 7, 10, 13, 16]), np.array([9, 7, 5, 4, 3, 3, 8])
        ranges = [(0, 0, 3, 0), (0, 3, 7, 3), (0, 0, 4, 1), (0, 6, 7, 10), (1, 6, 7, 0), (1, 0, 3, 0),
                  (1, 1, 4, 9), (1, 4, 6, 0), (1, 0, 2, 0)]
        got = evaluator._takes([rising, falling], ranges)
        assert got[:2] == [slice(0, 5, 2), slice(4, 14, 3)]
        assert got[3:5] == [slice(6, 7, 1), slice(8, 9, 1)]  # a chunk of one slot, as at 2000 trials
        assert np.array_equal(got[2], [-1, 1, 3, 6])
        for (t, j, k, base), take in zip(ranges[5:], got[5:]):  # stepping down, or standing still
            assert np.array_equal(take, [rising, falling][t][j:k] - base)
        assert evaluator._takes([np.array([5, 8])], [(0, 0, 1, 2), (0, 1, 2, 0)]) == [slice(3, 4, 1), slice(8, 9, 1)]


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.integers(-5, 40), min_size=1, max_size=12), min_size=1, max_size=4), st.data())
    def test_takes_match_one_range_at_a_time(self, tables, data):
        # each range's index, made with all the others, is what the range's
        # own entries give: a slice where they step evenly upwards (or are
        # one entry), else those entries as an index array
        ranges = []
        for t, table in enumerate(tables):
            for _ in range(data.draw(st.integers(0, 3))):
                j = data.draw(st.integers(0, len(table) - 1))
                ranges.append((t, j, data.draw(st.integers(j + 1, len(table))), data.draw(st.integers(-3, 3))))
        if not ranges:
            return
        got = evaluator._takes([np.array(table) for table in tables], ranges)
        for (t, j, k, base), take in zip(ranges, got):
            entries = [x - base for x in tables[t][j:k]]
            step = entries[1] - entries[0] if len(entries) > 1 else 1
            if step > 0 and entries == list(range(entries[0], entries[-1] + 1, step)):
                assert take == slice(entries[0], entries[-1] + 1, step)
            else:
                assert isinstance(take, np.ndarray) and take.tolist() == entries


# the shortfall of delivered MI below a link's demand: none (exact
# delivery), a surplus, or a shortfall, in bits
_gap = st.one_of(st.just(0.0), st.floats(1e-12, 80.0), st.floats(-80.0, -1e-12))


class TestArrayArithmetic:
    """The pass's array forms give the bits of the per-element Python and
    the in-turn additions they stand for, on this numpy at this dispatch
    level; a numpy whose loops round otherwise fails here by name, not only
    in a digest."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-30, 1e30), st.floats(0.0, 120.0), st.lists(_gap, min_size=1, max_size=8)),
                    min_size=1, max_size=6))
    @example([(1.0, 40.0, [0.0, 3.5, -2.25])])
    def test_link_noise_is_pythons_pow_bit_for_bit(self, points):
        # a carried link's noise column as _PlanPass.decode writes it, one row
        # per slot and one column per grid point: the quantizer variance
        # scale, doubled for every bit of delivered MI short of the demand
        n_slots = min(len(gaps) for _, _, gaps in points)
        scale = np.array([s for s, _, _ in points])
        demand = np.array([q for _, q, _ in points])
        delivered = np.array([[q - gaps[j] for _, q, gaps in points] for j in range(n_slots)])
        got = scale * np.float_power(2.0, np.fmax(0.0, demand - delivered))
        want = [[s * 2.0 ** max(0.0, q - d) for s, q, d in zip(scale.tolist(), demand.tolist(), row)]
                for row in delivered.tolist()]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 8, 52, 151])
    @pytest.mark.parametrize("n_points, n_trials", [(4, 20), (1, 2000), (4, 1), (1, 1)])
    @pytest.mark.parametrize("layout", ["contiguous", "take-slice"])
    def test_a_stack_adds_up_as_its_rows_added_in_turn(self, n_rows, n_points, n_trials, layout):
        # a user's stack of a part, (row, grid point, trial): row 0 the
        # totals, then nonnegative rates, which _PlanPass.settle_part adds up
        # along the leading axis into the totals with _add_up.  Each
        # template's rows are written through _takes slices of it, and the
        # strided layout is one such slice.  At one point and one trial numpy
        # runs np.add.reduce along the rows as a pairwise sum, which from 8
        # rows on has other bits
        rng = np.random.default_rng(n_rows)
        rows = rng.exponential(3.0, (n_rows, n_points, n_trials))
        rows[0] *= 50.0
        if layout == "contiguous":
            stack = rows
        else:
            index, = evaluator._takes([np.arange(1, 3 * n_rows, 3)], [(0, 0, n_rows, 0)])
            assert isinstance(index, slice)
            stack = np.zeros((3 * n_rows, n_points, n_trials))[index]
            stack[...] = rows
        want = stack[0].copy()
        for row in stack[1:]:
            want += row
        total = np.empty((n_points, n_trials))
        evaluator._add_up(stack, total)
        assert total.tobytes() == want.tobytes()


class TestLinkWiring:
    """The pass reads the link wiring the plan resolved when it was built."""

    @pytest.mark.parametrize("name, quality", [("case-ii", Q35), ("case-i", Q28), ("ges12-asym", Q35)],
                             ids=lambda v: f"{v.alpha1}-{v.alpha2}" if isinstance(v, CsitQuality) else v)
    # 20 trials: 51 slots per draw chunk; 200 trials: 5
    @pytest.mark.parametrize("n_cycles, n_trials", [(40, 20), (3, 200)])
    def test_the_pass_does_not_depend_on_link_order(self, name, quality, n_cycles, n_trials):
        # reversed links give decreasing link rows, which _takes reads
        # through an index array, not a slice
        plan = build_preset(name, quality, n_cycles)
        flipped = replace(plan, links=tuple(reversed(plan.links)))
        grid = _grid(quality)
        est, got = estimate_dof(plan, grid, n_trials, 5), estimate_dof(flipped, grid, n_trials, 5)
        assert (got.points, got.point_stderr, got.slope, got.stderr) == (est.points, est.point_stderr, est.slope,
                                                                         est.stderr)
        led, got = evaluate_plan(plan, grid[2], n_trials, 5), evaluate_plan(flipped, grid[2], n_trials, 5)
        for field in ("per_symbol_rate", "user_rate", "link_delivered", "link_noise"):
            assert getattr(got, field) == getattr(led, field), field

    def test_a_pass_builds_no_plan_table(self, monkeypatch):
        # a pass reads the plan's decode index in place.  The only int
        # arrays that it holds as tables are its shapes' union positions,
        # one per shape: alone, they are the plan's own slot positions
        # (plan.members), so the pass makes none; beside another plan, they
        # are its own arrays.  Every other table it reads is the plan's: its
        # schedule holds index arrays only for ranges of slots that do not
        # step evenly, within its per-part and per-chunk entries, each no
        # longer than its range.  Every list, tuple and dict that the pass
        # holds is walked, however deep
        plan, passes, init = build_case_ii(Q35, 20), [], evaluator._PlanPass.__init__

        def spy(self, *args):
            init(self, *args)
            passes.append(self)

        def held(x) -> list:
            # the int arrays in x and in every list, tuple, deque and dict
            # in it
            if isinstance(x, np.ndarray):
                return [x] if x.dtype.kind == "i" else []
            if isinstance(x, dict):
                x = list(x.keys()) + list(x.values())
            return [a for v in x for a in held(v)] if isinstance(x, (list, tuple, deque)) else []

        monkeypatch.setattr(evaluator._PlanPass, "__init__", spy)
        for plans in ([plan], [plan], [plan, build_sc_zf(Q35)]):
            _evaluate_grid(plans, _grid(Q35), 20, 5)
        alone, again, shared = (pp for pp in passes if pp.plan is plan)
        uneven = 0
        for pp in (alone, again, shared):
            # (index array, its range's length): per part, each shape's
            # positions, rate rows, link rows and first additions of its
            # slots there; per chunk, each shape's positions there
            ranged = [(a, size) for part in filter(None, pp.parts) for _, size, *indexes in part[-1]
                      for a in held(indexes)]
            ranged += [(a, sub.stop - sub.start) for _, entries in pp.chunks for _, sub, at in entries
                       for a in held([at])]
            assert all(len(a) <= size for a, size in ranged)
            uneven += len(ranged)
            allowed = list(pp.at) + [a for a, _ in ranged]
            assert sorted(map(id, held(list(vars(pp).values())))) == sorted(map(id, allowed))
        assert uneven  # case-ii's prologue shares a shape with its cycles: some range steps unevenly
        assert all(map(operator.is_, alone.at, plan.members)) and all(map(operator.is_, again.at, plan.members))
        assert not any(map(np.shares_memory, shared.at, plan.members))
        assert [a.tolist() for a in shared.at] == [m.tolist() for m in plan.members]  # sc-zf's slot is one of case-ii's

    def test_a_built_plan_resolves_no_link_again(self, monkeypatch):
        calls = {"_source_exponent": 0, "find_layer": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(schemes, "_source_exponent", counting("_source_exponent", schemes._source_exponent))
        monkeypatch.setattr(SchemePlan, "find_layer", counting("find_layer", SchemePlan.find_layer))
        plan = build_case_ii(Q35, 3)
        plan.find_layer("u3")
        # _link once per link, then the plan's check once per user and slot
        # layout: slot 1's, slot 2's, the B slots', the C slots' (shared with
        # the first A slot), the later A slots' and the terminator's
        assert calls == {"_source_exponent": len(plan.links) + 2 * 6, "find_layer": 1}
        calls.update(_source_exponent=0, find_layer=0)
        grid = _grid(Q35)
        estimate_dof(plan, grid, 20, 5)
        evaluate_plan(plan, grid[0], 20, 5)
        assert calls == {"_source_exponent": 0, "find_layer": 0}


class TestStderrHonesty:
    """The reported slope stderr must match the slope's seed-to-seed spread.

    A change to the sampling design (chunking, look-ahead, shared or
    antithetic draws) must keep the fit from looking more or less certain
    than it is.  The band was set from the spread measured before the
    chunk-wide draws: (0.990, 0.844) for sc-zf and (0.971, 1.056) for
    case-ii.  Grid points that share their draws read 0.02-0.04, and a
    stderr divided by sqrt(n_trials * points) reads about 2.
    """

    @pytest.mark.parametrize("name, n_cycles, n_trials, n_seeds", [
        ("sc-zf", 1, 200, 80),
        ("case-ii", 1, 50, 60),
    ])
    def test_slope_spread_matches_the_reported_stderr(self, name, n_cycles, n_trials, n_seeds):
        plan = build_preset(name, Q35, n_cycles)
        ests = [estimate_dof(plan, _grid(Q35), n_trials, seed) for seed in range(1, n_seeds + 1)]
        spread = np.array([e.slope.as_tuple() for e in ests]).std(axis=0, ddof=1)
        ratio = spread / np.array([e.stderr for e in ests]).mean(axis=0)
        assert np.all((0.7 <= ratio) & (ratio <= 1.35)), ratio


class TestEntryPointArguments:
    ENTRY_POINTS = ("evaluate_plan", "estimate_dof", "residual_power_probe")

    @staticmethod
    def _call(entry, n_trials, seed):
        plan = build_case_ii(Q35, 1)
        grid = _grid(Q35)
        if entry == "estimate_dof":
            return estimate_dof(plan, grid, n_trials, seed)
        return getattr(evaluator, entry)(plan, grid[1], n_trials, seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("n_trials, seed, message", [
        (50, 7.9, "seed must be an integer, got 7.9"),  # used to run as seed 7
        (50, "7", "seed must be an integer, got '7'"),
        (50, True, "seed must be an integer, got True"),
        (50, np.float64(7.0), "seed must be an integer, got"),
        (50, -1, "seed must be >= 0, got -1"),
        (50.0, 7, "n_trials must be an integer, got 50.0"),
        (True, 7, "n_trials must be an integer, got True"),
        ("50", 7, "n_trials must be an integer, got '50'"),
        (0, 7, "n_trials must be >= 1, got 0"),
    ])
    def test_bad_seed_or_trials_rejected_before_any_stream(self, monkeypatch, entry, n_trials, seed, message):
        # the pass seeds its streams through _seed_words; a check moved
        # after it lets a bad argument reach the hash (a float seed raises
        # TypeError there, a negative one ValueError with another message)
        def no_streams(seed, p_keys, slots):
            raise AssertionError(f"{len(p_keys) * len(slots)} streams seeded before the arguments were checked")

        monkeypatch.setattr(evaluator, "_seed_words", no_streams)
        with pytest.raises(ValueError, match=message):
            self._call(entry, n_trials, seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_integers_accepted(self, entry):
        assert repr(self._call(entry, np.int64(30), np.int32(7))) == repr(self._call(entry, 30, 7))


# seeds over [0, 2**64): one uint32 word, two words, and the edges between
_seeds = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                   st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]))
# grid point keys and slot indexes as the pass makes them: 0.001 dB up to
# the largest finite power (about 3083 dB), slots of a long plan
_point_keys = st.lists(st.integers(0, 3_083_000), min_size=1, max_size=5)
_slot_indexes = st.lists(st.integers(0, 5000), min_size=1, max_size=6)


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the four words it is given."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return np.array(self.words, np.uint64)


def _reseeded(states: np.ndarray) -> list:
    """Run _draw over the streams of a state table, (stream, word), one
    40-normal row each, with one generator as in the pass; return per
    stream its generator's whole state when its row was drawn (what the
    reseed left) and the row."""
    rng, held = np.random.Generator(np.random.PCG64(0)), []

    class Watched:  # rng, keeping its state at each row it fills
        bit_generator = rng.bit_generator

        @staticmethod
        def standard_normal(out):
            held.append(rng.bit_generator.state)
            rng.standard_normal(out=out)

    rows = np.empty((len(states), 40))
    _draw(Watched(), deque(range(len(states))).popleft, states, rows)
    return list(zip(held, rows))


class TestStreamSeeding:
    """The pass seeds its streams all together; each must equal the stream
    default_rng(SeedSequence([seed, _TAG_CHANNEL, point key, slot])) draws,
    with the generator's whole state equal to that stream's at its start."""

    @settings(max_examples=150, deadline=None)
    @given(_seeds, _point_keys, _slot_indexes)
    @example(7, [60000, 80000, 100000, 120000], [1, 2, 3])
    @example(2 ** 64 - 1, [0], [0])
    @example(5, [80000, 2 ** 33], [1, 2 ** 40, 0])  # keys of one and two words in one call
    def test_seeded_streams_equal_default_rng(self, seed, p_keys, slots):
        words = _seed_words(seed, p_keys, slots)
        assert words.shape == (len(slots), len(p_keys), 4)
        states = _pcg_states(words)
        assert states.shape == words.shape and states.dtype == np.uint64
        reseeded = iter(_reseeded(states.reshape(-1, 4)))
        for s, slot in enumerate(slots):
            for k, p_key in enumerate(p_keys):
                ref = np.random.SeedSequence([seed, _TAG_CHANNEL, p_key, slot])
                assert np.array_equal(words[s, k], ref.generate_state(4, np.uint64)), (p_key, slot)
                ref_rng = np.random.default_rng(ref)
                held, row = next(reseeded)
                assert held == ref_rng.bit_generator.state, (p_key, slot)
                assert held["has_uint32"] == held["uinteger"] == 0
                assert np.array_equal(row, ref_rng.standard_normal(40)), (p_key, slot)

    @pytest.mark.parametrize("words", [
        [0, 2 ** 64 - 1, 0, 0],  # the seed's low half plus inc's (1) carries
        [2 ** 64 - 1, 2 ** 64 - 1, 0, 2 ** 63],  # inc = 2**64 + 1, and the seed plus inc wraps mod 2**128
        [5, 2 ** 63, 7, 2 ** 63 - 1],  # inc's low half is 2**64 - 1, and its sum with the seed's carries
        [2 ** 64 - 1] * 4,
        [0, 0, 0, 0],
    ])
    def test_a_start_whose_low_halves_carry(self, words):
        # the carries out of the low halves, which random words take about
        # half of the time, and the edges of the words' range
        held, row = _reseeded(_pcg_states(np.array([words], np.uint64)))[0]
        ref = np.random.Generator(np.random.PCG64(_Words(words)))
        assert held == ref.bit_generator.state
        assert np.array_equal(row, ref.standard_normal(40))

    def test_the_state_memory_layout_is_read_through_the_setter_once(self, monkeypatch):
        # a PCG64 whose state setter counts its calls.  numpy's setter
        # refuses a state for another class name, so it keeps PCG64's
        setter, base = [], np.random.PCG64

        class PCG64(base):
            @property
            def state(self):
                return base.state.__get__(self)

            @state.setter
            def state(self, value):
                setter.append(value["state"])
                base.state.__set__(self, value)

        monkeypatch.setattr(np.random, "PCG64", PCG64)
        plan, grid = build_case_ii(Q35, 1), _grid(Q35)
        _word_order.cache_clear()
        try:
            order = _word_order()
            assert sorted(order) == [0, 1, 2, 3] and len(setter) == 1
            for n_trials in (20, TestPrefetch.N_TRIALS):  # this thread draws alone, and the worker draws too
                _evaluate_grid([plan], grid, n_trials, 5)
            assert len(setter) == 1, "a pass set a generator's state through numpy's setter"
        finally:
            _word_order.cache_clear()

    @pytest.mark.parametrize("memory", [
        lambda words: words[::-1].byteswap(),  # each word's bytes in the other order
        lambda words: np.zeros(4, np.uint64),
        lambda words: words[[0, 0, 1, 2]],  # a half missing, another twice
    ], ids=["byte-swapped", "zeros", "half-repeated"])
    def test_a_state_memory_layout_that_is_not_known_is_refused(self, monkeypatch, memory):
        def seen(bit_generator):
            return memoryview(memory(np.frombuffer(_state_memory(bit_generator), np.uint64)).copy()).cast("B")

        monkeypatch.setattr(channel, "_state_memory", seen)
        _word_order.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=f"numpy {np.__version__} keeps a PCG64's state in a layout"):
                _evaluate_grid([build_case_ii(Q35, 1)], _grid(Q35), 20, 5)
        finally:
            _word_order.cache_clear()

    def test_negative_or_fractional_keys_are_refused(self):
        with pytest.raises(ValueError, match=">= 0"):
            _seed_words(7, [80000], [-1])
        with pytest.raises(TypeError):
            _seed_words(7.0, [80000], [1])


class TestPrefetch:
    """Where a chunk is one slot, the next chunks' normals are drawn on one
    worker thread while this thread decodes, and this thread draws the rows
    that the worker has not taken when a chunk needs them.  Where a chunk
    holds more slots, this thread draws each chunk alone, right before it
    scales it, and no thread is started.  The results may not depend on the
    chunking or on which thread draws a row."""

    N_TRIALS = 600  # 4 points x 16 normals x 600 trials per slot: over the budget, so a chunk is one slot

    @staticmethod
    def _spy_chunks(m) -> list:
        """Patch _draw to keep each chunk's PCG64 starts, one row per
        stream, in chunk order: both threads may draw a chunk, so it is kept
        at the first draw of it, under a lock."""
        chunks, seen, lock = [], {}, threading.Lock()
        draw = evaluator._draw

        def spy_draw(rng, take, states, rows):
            with lock:
                if id(states) not in seen:
                    seen[id(states)] = states  # kept, so that no id is reused
                    chunks.append(states)
            draw(rng, take, states, rows)

        m.setattr(evaluator, "_draw", spy_draw)
        return chunks

    @classmethod
    def _pass(cls, monkeypatch, plan, budget=None, n_trials=N_TRIALS):
        """_evaluate_grid's arrays and the stream count of each chunk."""
        with monkeypatch.context() as m:
            chunks = cls._spy_chunks(m)
            if budget is not None:
                m.setattr(evaluator, "_DRAW_BUDGET", budget)
            return _evaluate_grid([plan], _grid(plan.quality), n_trials, 5)[0], [len(c) for c in chunks]

    @staticmethod
    def _streams(n_slots: int, slots_per_chunk: int) -> list[int]:
        """The stream count of each chunk of a 4-point pass."""
        return [4 * min(slots_per_chunk, n_slots - s) for s in range(0, n_slots, slots_per_chunk)]

    def _check_chunking(self, monkeypatch, plan, n_trials: int, chunkings) -> None:
        """At each of chunkings' slots per draw chunk, which this thread
        draws alone, the pass hands each chunk its streams and its arrays
        == those of one slot per chunk, where a slot is over the budget."""
        n_slots = len(plan.all_slots())
        per_slot = 4 * math.prod(channel._row(n_trials))
        ref, _ = self._pass(monkeypatch, plan, per_slot - 1, n_trials)
        for slots_per_chunk in chunkings:
            got, handed = self._pass(monkeypatch, plan, slots_per_chunk * per_slot, n_trials)
            assert handed == self._streams(n_slots, slots_per_chunk)
            for what, a, b in zip(("rate", "link_out", "mean", "stderr"), got, ref):
                assert np.array_equal(a, b), (slots_per_chunk, what)

    @pytest.mark.parametrize("slots_per_chunk", [1, 2, 7, 20])
    def test_chunking_does_not_change_the_pass(self, monkeypatch, slots_per_chunk):
        plan = build_case_ii(Q35, 3)  # 12 slots: 7 does not divide them, and 20 is more than all of them
        n_slots = len(plan.all_slots())
        ref, ref_handed = self._pass(monkeypatch, plan)
        assert ref_handed == [4] * n_slots
        per_slot = 4 * math.prod(channel._row(self.N_TRIALS))
        # one normal short of another whole slot: a draw chunk holds whole
        # slots only
        got, handed = self._pass(monkeypatch, plan, (slots_per_chunk + 1) * per_slot - 1)
        assert handed == self._streams(n_slots, slots_per_chunk)
        for name, a, b in zip(("rate", "link_out", "mean", "stderr"), got, ref):
            assert np.array_equal(a, b), name

    # every preset, each with its own slot templates: case-i at (0.2, 0.8),
    # the rest at (0.3, 0.5).  ges12-asym at (0, 0.5) drops u2, v2 and u3,
    # so its slot 3 decodes user 2's group beside an empty user-1 group, and
    # sc-zf has no links at all.
    @pytest.mark.parametrize("name, quality", [
        ("case-i", Q28), ("case-ii", Q35), ("case-ii-alt", Q35), ("ges12-asym", Q35), ("sc-zf", Q35),
        ("ges12-asym", CsitQuality(0.0, 0.5)),
    ], ids=lambda v: f"{v.alpha1}-{v.alpha2}" if isinstance(v, CsitQuality) else v)
    def test_chunking_does_not_change_any_preset(self, monkeypatch, name, quality):
        plan = build_preset(name, quality, 3)
        self._check_chunking(monkeypatch, plan, 40, (2, 4, 7, len(plan.all_slots())))

    def test_a_chunk_may_wait_several_chunks(self, monkeypatch):
        # slot 1's user-1 group settles only once slot 6 carries eta_1_1, so
        # at 1 (the reference), 2 and 4 slots per draw chunk the parts
        # decoded since wait behind it
        quant = 0.5 - Q35.alpha1  # v1's received exponent at user 1
        slots = tuple(SlotPlan(i, (SymbolLayer(f"u{i}", OWNER_USER1, orth_to(2), 0.5, 1.0, 0.5),
                                   SymbolLayer(f"v{i}", OWNER_USER2, orth_to(1), 0.5, 1.0, 0.5))
                              + ((SymbolLayer("c", OWNER_COMMON, first_antenna(), 1.0, 1.0, quant),) if i == 6 else ()))
                      for i in range(1, 7))
        link = QuantizationLink(1, OWNER_USER1, "eta_1_1", quant, "c")
        plan = SchemePlan("hand", Q35, slots, (), (link,), DofPoint(0, 0), 6.0, 0.0, 0)
        self._check_chunking(monkeypatch, plan, 40, (2, 4, 6))

    def test_one_point_one_trial_does_not_depend_on_chunking(self, monkeypatch):
        # evaluate_plan at one trial: each stack row is one element.  The
        # whole plan is one chunk, or 3 slots a chunk make three parts of
        # two chunks, so a part adds up many rows at once, which must give
        # the bits of one slot per chunk, where each part adds few
        plan = build_case_ii(Q35, 5)  # 18 slots
        snr = SnrPoint.from_db(80.0, Q35)
        per_slot = math.prod(channel._row(1))
        ledgers = []
        for budget in (per_slot, evaluator._DRAW_BUDGET, 3 * per_slot):
            with monkeypatch.context() as m:
                m.setattr(evaluator, "_DRAW_BUDGET", budget)
                ledgers.append(evaluate_plan(plan, snr, 1, 5))
        assert len(plan.all_slots()) <= evaluator._DRAW_BUDGET // per_slot  # one chunk
        for got in ledgers[1:]:
            for field in ("per_symbol_rate", "user_rate", "link_delivered", "link_noise"):
                assert getattr(got, field) == getattr(ledgers[0], field), field

    @pytest.mark.parametrize("slots_per_chunk", [5, 7])
    def test_a_parts_last_chunk_may_be_short(self, monkeypatch, slots_per_chunk):
        # 18 slots: chunks of 5 make parts [0, 10) and [10, 18), whose
        # second chunk is the plan's last, of 3 slots, and the second part's
        # first chunk lands in the ring beside the first part's; chunks of 7
        # make parts [0, 14) and [14, 18), the last of one short chunk
        self._check_chunking(monkeypatch, build_case_ii(Q35, 5), 40, (slots_per_chunk,))

    def test_a_part_may_wait_past_the_next_parts_first_chunk(self, monkeypatch):
        # slot 1's user-1 group settles only once slot 10 carries eta_1_1,
        # and slot 4's once slot 5 carries eta_4_1.  At 2 slots a chunk the
        # parts are slots 1-4, 5-8 and 9-10: eta_4_1 is carried across the
        # first part boundary, and the first part waits through the second
        # part into the third, so neither later part may take its gains'
        # place in the ring; at 3 a chunk the first part, slots 1-6, waits
        # into the second part's second chunk
        quant = 0.5 - Q35.alpha1  # v1's received exponent at user 1
        carried = {10: "c10", 5: "c5"}
        slots = tuple(SlotPlan(i, (SymbolLayer(f"u{i}", OWNER_USER1, orth_to(2), 0.5, 1.0, 0.5),
                                   SymbolLayer(f"v{i}", OWNER_USER2, orth_to(1), 0.5, 1.0, 0.5))
                              + ((SymbolLayer(carried[i], OWNER_COMMON, first_antenna(), 1.0, 1.0, quant),)
                                 if i in carried else ()))
                      for i in range(1, 11))
        links = (QuantizationLink(1, OWNER_USER1, "eta_1_1", quant, "c10"),
                 QuantizationLink(4, OWNER_USER1, "eta_4_1", quant, "c5"))
        plan = SchemePlan("hand", Q35, slots, (), links, DofPoint(0, 0), 10.0, 0.0, 0)
        self._check_chunking(monkeypatch, plan, 40, (2, 3))

    def test_chunking_does_not_change_a_pass_of_three_plans(self, monkeypatch):
        # one estimate_dofs pass over case-ii (12 slots), sc-zf (1) and
        # ges12-asym (3), in parts of two chunks of 2 or 3 union slots, each
        # plan's part settled on its own: == to one slot per chunk
        plans = [build_case_ii(Q35, 3), build_sc_zf(Q35), build_ges12_asym(Q35)]
        n_trials = 40
        per_slot = 4 * math.prod(channel._row(n_trials))
        runs = []
        for budget in (per_slot - 1, 2 * per_slot, 3 * per_slot):
            with monkeypatch.context() as m:
                m.setattr(evaluator, "_DRAW_BUDGET", budget)
                runs.append(estimate_dofs(plans, _grid(Q35), n_trials, 5))
        for got in runs[1:]:
            for a, b in zip(got, runs[0]):
                for field in ("points", "point_stderr", "slope", "stderr"):
                    assert getattr(a, field) == getattr(b, field), field

    def test_a_pass_makes_its_scales_and_its_chunk_realization_once(self, monkeypatch):
        # what depends only on the grid and the chunk size is made before
        # the first chunk: each point's scales (two sigma_sq reads a point)
        # and a whole chunk's realization, which every chunk of the pass
        # fills, but a short last one.  Seven chunks of 51 slots and one of
        # 48 here, so the pass calls sample_channel eight times
        plan, grid, calls = build_case_ii(Q35, 134), _grid(Q35), {"sigma_sq": 0, "realization": 0, "scaled": []}
        sigma_sq, realization, scale = SnrPoint.sigma_sq, evaluator.ChannelRealization, evaluator.sample_channel

        def counted_sigma_sq(self, user):
            calls["sigma_sq"] += 1
            return sigma_sq(self, user)

        def counted_realization(**fields):
            calls["realization"] += 1
            return realization(**fields)

        def scaled(snr, normals, size=None, out=None):
            calls["scaled"].append((snr, out))
            return scale(snr, normals, size=size, out=out)

        monkeypatch.setattr(SnrPoint, "sigma_sq", counted_sigma_sq)
        monkeypatch.setattr(evaluator, "ChannelRealization", counted_realization)
        monkeypatch.setattr(evaluator, "sample_channel", scaled)
        _evaluate_grid([plan], grid, 20, 5)
        assert len(plan.all_slots()) == 7 * 51 + 48 and len(calls["scaled"]) == 8
        assert calls["sigma_sq"] == 2 * len(grid) and calls["realization"] == 2
        assert all(snr is calls["scaled"][0][0] for snr, _ in calls["scaled"])
        assert all(out is calls["scaled"][0][1] for _, out in calls["scaled"][:-1])

    @pytest.mark.parametrize("n_trials", [20, 2100], ids=["parts-of-two-chunks", "one-slot-parts"])
    def test_a_pass_makes_each_plans_schedule_once(self, monkeypatch, n_trials):
        # which slots every part and chunk holds, and every index their
        # batches read, is worked out once per plan and pass, by one _takes
        # call: a part or a chunk makes no index of its own
        plans, calls, takes = [build_case_ii(Q35, 20), build_sc_zf(Q35)], [], evaluator._takes

        def counted(tables, ranges):
            calls.append(len(ranges))
            return takes(tables, ranges)

        monkeypatch.setattr(evaluator, "_takes", counted)
        estimate_dofs(plans, _grid(Q35), n_trials, 5)
        assert len(calls) == len(plans)

    @pytest.mark.parametrize("n_trials", [20, 2100])
    def test_chunking_does_not_change_a_group_of_three_layers(self, monkeypatch, n_trials):
        # user 1's group of three layers, overheard by user 2 and linked, so
        # it gets a side row whose cross minors add three pairs of layers;
        # no preset has such a group.  Parts of two chunks of 2 or 3 slots,
        # and one chunk of all 6: == to one slot per chunk.  Its along
        # layers reach user 2 unattenuated, so they sit at or below the
        # zero-forced layer's exponent there, 0.9 - alpha2 = 0.4, that the
        # link is sized for (validate_plan refuses a louder one)
        plan = _hand_plan(range(1, 7), [(orth_to(2), 0.9), (along(2), 0.4), (along(1), 0.3)], (OWNER_USER2,))
        group = plan.shapes[plan.shape_of[0]].groups[0]
        assert len(group.positions) == 3 and group.side_link >= 0
        assert schemes.validate_plan(plan) == []
        self._check_chunking(monkeypatch, plan, n_trials, (2, 3, 6))

    def test_a_shared_pass_of_interleaved_slot_indices(self, monkeypatch):
        # two plans whose slot indices interleave, so each plan's union
        # positions skip the other's slots (the presets' indices are 1 to
        # n, so theirs never do), each with links carried two of its slots
        # later, past slots of the other plan: at 1, 2 and 3 union slots a
        # chunk, estimate_dofs gives each plan's own pass
        plans = [_hand_plan((1, 3, 5, 8, 9, 12), [(orth_to(2), 0.9)], (OWNER_USER1, OWNER_USER2)),
                 _hand_plan((2, 3, 4, 7, 9, 10, 11), [(orth_to(2), 0.9)], (OWNER_USER2, OWNER_USER1))]
        for n_trials in (20, 2100):
            per_slot = 4 * math.prod(channel._row(n_trials))
            for slots_per_chunk in (1, 2, 3):
                with monkeypatch.context() as m:
                    m.setattr(evaluator, "_DRAW_BUDGET", slots_per_chunk * per_slot)
                    _check_shared_pass(plans, _grid(Q35), n_trials, 7)

    def test_stream_keys_of_one_and_two_words_in_one_pass(self, monkeypatch):
        # slot indices on both sides of 2**32 key their streams with one and
        # with two entropy words; the pass hashes them all in one _seed_words
        # call and turns them into PCG64 starts in one _pcg_states call, and
        # each chunk must get its own streams' starts: the 32 bytes that
        # default_rng(SeedSequence(key))'s generator holds
        slots = tuple(SlotPlan(i, (SymbolLayer(f"u{i}", OWNER_USER1, orth_to(2), 0.5, 1.0, 0.5),
                                   SymbolLayer(f"v{i}", OWNER_USER2, orth_to(1), 0.5, 1.0, 0.5)))
                      for i in (2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1))
        plan = SchemePlan("hand", Q35, slots, (), (), DofPoint(0, 0), 4.0, 0.0, 0)
        grid, n_trials, seed = _grid(Q35), 40, 5
        refs = [np.random.default_rng(np.random.SeedSequence([seed, _TAG_CHANNEL, _db_key(snr.p_db), s.index]))
                for s in slots for snr in grid]
        starts = [bytes(_state_memory(ref.bit_generator)) for ref in refs]
        seed_words, pcg_states = evaluator._seed_words, evaluator._pcg_states
        runs = []
        for slots_per_chunk in (1, 2, len(slots)):
            hashed = []

            def counting(name, fn):
                def counted(*args):
                    hashed.append(name)
                    return fn(*args)
                return counted

            with monkeypatch.context() as m:
                m.setattr(evaluator, "_seed_words", counting("_seed_words", seed_words))
                m.setattr(evaluator, "_pcg_states", counting("_pcg_states", pcg_states))
                chunks = self._spy_chunks(m)
                m.setattr(evaluator, "_DRAW_BUDGET", slots_per_chunk * 4 * math.prod(channel._row(n_trials)))
                runs.append(_evaluate_grid([plan], grid, n_trials, seed)[0])
            assert hashed == ["_seed_words", "_pcg_states"], slots_per_chunk
            assert [start.tobytes() for c in chunks for start in c] == starts, slots_per_chunk
        for got in runs[1:]:
            for what, a, b in zip(("rate", "link_out", "mean", "stderr"), got, runs[0]):
                assert np.array_equal(a, b), what

    @staticmethod
    def _address(a: np.ndarray) -> int:
        return a.__array_interface__["data"][0]

    def _log_chunks(self, monkeypatch):
        """Log, in the order they happen on either thread, each chunk's
        first draw (by the address of its first row), each row taken (by
        thread, generator and address, atomically with the take), reseeded
        (by thread, the state its generator holds when it fills the row, and
        the row's stream start) and filled, and each scaling of a buffer."""
        log, seen, lock = [], {}, threading.Lock()
        draw, scale = evaluator._draw, evaluator.sample_channel

        def spy_draw(rng, take, states, rows):
            with lock:
                if id(states) not in seen:
                    seen[id(states)] = states
                    log.append(("chunk", self._address(rows[0])))
            memory = _state_memory(rng.bit_generator)

            def logged_take():
                with lock:
                    k = take()
                    log.append(("take", self._address(rows[k]), threading.get_ident(), id(rng), rows[k].nbytes))
                return k

            class Logged:  # rng, logging the state it fills each row from, and each row it fills
                bit_generator = rng.bit_generator

                @staticmethod
                def standard_normal(out):
                    k = (self._address(out) - self._address(rows[0])) // out.nbytes
                    log.append(("reseed", threading.get_ident(), bytes(memory), states[k].tobytes()))
                    rng.standard_normal(out=out)
                    log.append(("drawn", self._address(out)))

            draw(Logged(), logged_take, states, rows)

        def spy_scale(snrs, normals, *args, **kwargs):
            log.append(("scale", self._address(normals), normals.nbytes))
            return scale(snrs, normals, *args, **kwargs)

        monkeypatch.setattr(evaluator, "_draw", spy_draw)
        monkeypatch.setattr(evaluator, "sample_channel", spy_scale)
        return log

    @staticmethod
    def _check_chunks(log, n_streams):
        """Each row of the draw buffer goes free -> taken -> drawn -> scaled
        (free) in turn: no row is taken again from the take of it until it
        has been scaled, and a scaling reads only drawn rows, every row in
        its range.  Each thread draws with one generator of its own, and
        each of the n_streams streams is reseeded exactly once, to its own
        start, by the thread that took its row.  Returns the first row of
        each chunk, in chunk order."""
        takes = [e for e in log if e[0] == "take"]
        generators = {}
        for _, _, thread, rng, _ in takes:
            generators.setdefault(thread, set()).add(rng)
        assert all(len(g) == 1 for g in generators.values()), "one generator per thread"
        assert len(set.union(*generators.values())) == len(generators), "no generator shared by the threads"
        reseeds = [e for e in log if e[0] == "reseed"]
        assert len({e[2] for e in reseeds}) == len(reseeds) == len(takes) == n_streams
        assert all(held == start for _, _, held, start in reseeds)
        for thread in generators:
            assert sum(e[1] == thread for e in reseeds) == sum(e[2] == thread for e in takes)
        row_bytes = takes[0][4]
        state: dict[int, str] = {}
        for e in log:
            if e[0] == "take":
                at = e[1]
                now = state.get(at, "free")
                assert now == "free", f"row {at:#x} taken again while {now}"
                state[at] = "taken"
            elif e[0] == "drawn":
                state[e[1]] = "drawn"
            elif e[0] == "scale":
                for at in range(e[1], e[1] + e[2], row_bytes):
                    assert state.get(at) == "drawn", f"row {at:#x} scaled while {state.get(at, 'never drawn')}"
                    state[at] = "free"
        assert all(v == "free" for v in state.values())
        return [e[1] for e in log if e[0] == "chunk"]

    def test_hand_off_holds_under_frequent_thread_switches(self, monkeypatch):
        # where a chunk is one slot, each buffer part is scaled here and
        # refilled by the worker and this thread, each with its own
        # generator, reseeded for each stream it draws: a read before a draw
        # finished, a refill before the read, or a row drawn twice or never
        # would show as changed values once the threads switch every few
        # microseconds, and the spies see it in the order of events.
        # Chunks of 1 slot (600 trials: a slot is over the budget, and both
        # threads draw), whose two buffer parts take turns, and chunks of as
        # many slots as fit in the budget, 3 (300 trials) or 51 (20 trials),
        # drawn by this thread alone into one part
        for n_cycles, n_trials in ((2, 600), (2, 300), (20, 20)):
            plan = build_case_ii(Q35, n_cycles)
            ref = _evaluate_grid([plan], _grid(Q35), n_trials, 9)[0]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            runs = []
            try:
                for _ in range(5):
                    with monkeypatch.context() as m:
                        log = self._log_chunks(m)
                        runs.append((_evaluate_grid([plan], _grid(Q35), n_trials, 9)[0], log))
            finally:
                sys.setswitchinterval(interval)
            n_slots = len(plan.all_slots())
            chunk = max(1, evaluator._DRAW_BUDGET // (4 * math.prod(channel._row(n_trials))))
            n_chunks, parts = math.ceil(n_slots / chunk), 2 if chunk == 1 else 1
            assert n_chunks > parts
            for got, log in runs:
                assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (n_cycles, n_trials)
                order = self._check_chunks(log, n_slots * 4)
                assert len(order) == n_chunks and len(set(order)) == parts
                assert order == [order[k % parts] for k in range(n_chunks)], "the buffer parts take turns"

    def test_traced_names_run_on_the_calling_thread(self, monkeypatch, one_drawer):
        # perfbench's tracer keeps one span stack, for the calling thread;
        # only _draw, which reseeds, its _state_memory (and standard_normal)
        # run on the worker.  The calling thread's draws (a slot over the
        # budget: it helps) are held, so that the worker draws every row.
        # The state memory's layout is read before the spies go in: a first
        # pass in the process reads it on this thread
        caller = threading.get_ident()
        _word_order()
        one_drawer("worker")
        seen: dict[str, set] = {}
        for module, name in ((evaluator, "sample_channel"), (evaluator, "unit"), (evaluator, "_draw"),
                             (channel, "_state_memory")):
            def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
                seen.setdefault(_name, set()).add(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        estimate_dof(build_case_ii(Q35, 1), _grid(Q35), self.N_TRIALS, seed=4)
        assert seen["sample_channel"] == seen["unit"] == {caller}
        assert len(seen["_draw"]) == 2 and caller in seen["_draw"]
        assert seen["_state_memory"] == seen["_draw"] - {caller}

    def _handed_over(self, monkeypatch, plan, n_trials):
        """The draws submitted to the worker before _compile runs, those
        submitted in the whole estimate_dof pass, and the buffer parts (by
        the address of their first row) that _draw fills."""
        submitted, at_compile, parts = [], [], set()
        compile_templates, draw = evaluator._compile, evaluator._draw

        class Pool(evaluator.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        def spy_compile(*args):
            at_compile.append(len(submitted))
            return compile_templates(*args)

        def spy_draw(rng, take, states, rows):
            parts.add(self._address(rows[0]))
            draw(rng, take, states, rows)

        monkeypatch.setattr(evaluator, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(evaluator, "_compile", spy_compile)
        monkeypatch.setattr(evaluator, "_draw", spy_draw)
        estimate_dof(plan, _grid(Q35), n_trials, seed=4)
        return at_compile, len(submitted), len(parts)

    def test_the_first_hand_offs_are_handed_over_before_the_decode_tables(self, monkeypatch):
        # where a chunk is one slot (N_TRIALS), the worker draws chunks 0 and
        # 1, into the two buffer parts, while this thread compiles the slot
        # templates and makes the output arrays; each chunk is one submit
        plan = build_case_ii(Q35, 1)
        assert self._handed_over(monkeypatch, plan, self.N_TRIALS) == ([2], len(plan.all_slots()), 2)

    @staticmethod
    def _no_pool(monkeypatch) -> list:
        """Patch ThreadPoolExecutor to keep every executor the pass makes."""
        pools = []

        class Pool(evaluator.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(evaluator, "ThreadPoolExecutor", Pool)
        return pools

    def test_a_chunk_of_many_slots_is_drawn_on_this_thread_right_before_it_is_scaled(self, monkeypatch):
        # 20 trials: chunks of 51 slots.  The pass makes no executor and
        # starts no thread, every _draw and every reseed and fill of a row
        # runs here, one _draw per chunk, and each chunk is drawn just before
        # it is scaled, with no chunk drawn ahead of the decode (unit) of the
        # one before
        caller, before = threading.get_ident(), threading.active_count()
        pools = self._no_pool(monkeypatch)
        events, threads, alive = [], set(), set()
        draw, scale, normalise = evaluator._draw, evaluator.sample_channel, evaluator.unit

        def spy_draw(rng, take, states, rows):
            events.append("draw")
            threads.add(threading.get_ident())
            alive.add(threading.active_count())

            class Logged:  # rng, logging each row it fills from a reseeded state
                bit_generator = rng.bit_generator

                @staticmethod
                def standard_normal(out):
                    threads.add(threading.get_ident())
                    events.append("reseed")
                    rng.standard_normal(out=out)

            draw(Logged(), take, states, rows)

        def spy_scale(*args, **kwargs):
            events.append("scale")
            return scale(*args, **kwargs)

        def spy_unit(*args, **kwargs):
            events.append("decode")
            return normalise(*args, **kwargs)

        monkeypatch.setattr(evaluator, "_draw", spy_draw)
        monkeypatch.setattr(evaluator, "sample_channel", spy_scale)
        monkeypatch.setattr(evaluator, "unit", spy_unit)
        plan = build_case_ii(Q35, 20)
        n_slots = len(plan.all_slots())
        n_chunks = math.ceil(n_slots / (evaluator._DRAW_BUDGET // (4 * math.prod(channel._row(20)))))
        assert n_chunks > 1
        estimate_dof(plan, _grid(Q35), 20, seed=4)
        assert pools == [] and threads == {caller} and alive == {before}
        steps = [e for e in events if e != "reseed"]
        assert [e for i, e in enumerate(steps) if not i or e != steps[i - 1]] == ["draw", "scale", "decode"] * n_chunks
        assert events.count("reseed") == 4 * n_slots
        assert threading.active_count() == before

    def test_no_thread_outlives_the_pass(self, monkeypatch):
        plan = build_case_ii(Q35, 1)
        before = threading.active_count()
        estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
        assert threading.active_count() == before
        # fail on this thread in a later slot's decode, with the next draws handed off
        calls = []
        normalise = evaluator.unit

        def failing_unit(v, **kwargs):
            calls.append(v)
            if len(calls) == 3:
                raise ZeroDivisionError("decode failed")
            return normalise(v, **kwargs)

        monkeypatch.setattr(evaluator, "unit", failing_unit)
        with pytest.raises(ZeroDivisionError, match="decode failed"):
            estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
        assert threading.active_count() == before

    def _run_three_schemes(self, monkeypatch, tmp_path, n_trials) -> tuple[list, set]:
        """The executors made and the threads that drew in one run of three
        schemes, which must leave no thread behind."""
        pools, drawers = self._no_pool(monkeypatch), set()
        draw = evaluator._draw

        def spy_draw(rng, take, states, rows):
            drawers.add(threading.get_ident())
            draw(rng, take, states, rows)

        monkeypatch.setattr(evaluator, "_draw", spy_draw)
        before = threading.active_count()
        report = run(ExperimentConfig(0.3, 0.5, schemes=["case-ii", "sc-zf", "ges12-asym"], n_trials=n_trials,
                                      n_cycles=1, output_dir=tmp_path))
        assert [r.name for r in report.results] == ["case-ii", "sc-zf", "ges12-asym"]
        assert threading.active_count() == before
        return pools, drawers - {threading.get_ident()}

    def test_one_run_of_three_schemes_starts_one_draw_worker(self, monkeypatch, tmp_path):
        # the run's plans share one grid pass, so one executor and one worker
        # thread draw for all of them (chunks of one slot), and neither
        # outlives the run
        pools, workers = self._run_three_schemes(monkeypatch, tmp_path, self.N_TRIALS)
        assert len(pools) == 1 and len(workers) == 1

    def test_one_run_of_three_schemes_in_a_chunk_of_many_slots_starts_no_thread(self, monkeypatch, tmp_path):
        # 20 trials: the run's whole union of slots is one chunk, which this
        # thread draws, so no executor is made
        assert self._run_three_schemes(monkeypatch, tmp_path, 20) == ([], set())

    def test_a_decode_failure_in_a_pass_of_many_slot_chunks_leaves_no_thread(self, monkeypatch):
        # 20 trials: chunks of 51 slots, drawn on this thread.  The decode
        # fails in the second chunk (unit runs once per user and chunk), and
        # no executor or thread was made or is left
        plan = build_case_ii(Q35, 20)
        pools, calls, normalise = self._no_pool(monkeypatch), [], evaluator.unit
        alive = set()

        def failing_unit(v, **kwargs):
            calls.append(v)
            alive.add(threading.active_count())
            if len(calls) == 3:
                raise ZeroDivisionError("decode failed")
            return normalise(v, **kwargs)

        monkeypatch.setattr(evaluator, "unit", failing_unit)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="decode failed"):
            estimate_dof(plan, _grid(Q35), 20, seed=4)
        assert len(calls) == 3 and pools == [] and alive == {before}
        assert threading.active_count() == before

    def test_a_decode_failure_with_two_draws_in_flight_leaves_no_thread(self, monkeypatch):
        # the worker's draws of the next two chunks are held until chunk 0's
        # decode fails, so both are in flight when it raises; this thread
        # draws what it needs of chunk 0 and takes nothing after the failure
        plan = build_case_ii(Q35, 1)
        caller = threading.get_ident()
        futures, started, in_flight = [], [], []
        release = threading.Event()
        draw = evaluator._draw

        class Pool(evaluator.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                futures.append(super().submit(fn, *args, **kwargs))
                return futures[-1]

        def held_draw(rng, take, states, rows):
            if threading.get_ident() != caller:
                started.append(len(states))
                if len(started) > 1:
                    assert release.wait(timeout=60)
            draw(rng, take, states, rows)

        def failing_unit(v, **kwargs):
            in_flight.append(sum(not f.done() for f in futures))
            release.set()
            raise ZeroDivisionError("decode failed")

        monkeypatch.setattr(evaluator, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(evaluator, "_draw", held_draw)
        monkeypatch.setattr(evaluator, "unit", failing_unit)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="decode failed"):
            estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
        assert in_flight == [2] and len(futures) == 3
        assert all(f.done() for f in futures)
        assert threading.active_count() == before

    # odd chunks go to the second buffer part: the third chunk fills the
    # first part, the fourth the second (a chunk is one slot at N_TRIALS).
    # One thread draws every row, so the failing draw runs there: on the
    # worker it re-raises from this thread's wait, here it raises directly
    @pytest.mark.parametrize("failing", [3, 4], ids=["first-buffer", "second-buffer"])
    def test_a_failed_draw_raises_from_the_caller(self, one_drawer, failing):
        class DrawFailed(Exception):
            pass

        failure = DrawFailed("standard_normal failed")

        class BrokenStream:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator  # _draw reseeds it

            def standard_normal(self, out):
                raise failure

        plan = build_case_ii(Q35, 1)
        draw = evaluator._draw

        def nth_draw_fails(rng, take, states, rows):
            buffers.append(self._address(rows))
            draw(BrokenStream(rng) if len(buffers) == failing else rng, take, states, rows)

        for drawer in ("worker", "caller"):
            buffers = []
            one_drawer(drawer, nth_draw_fails)
            before = threading.active_count()
            with pytest.raises(DrawFailed) as info:
                estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
            assert info.value is failure, drawer
            assert buffers[failing - 1] == buffers[(failing - 1) % 2] != buffers[failing % 2], drawer
            assert threading.active_count() == before, drawer


class TestResidualProbe:
    def test_probe_reads_evaluator_link_noise(self):
        plan = build_case_ii(Q35, 2)
        for snr in _grid(Q35):
            ledger = evaluate_plan(plan, snr, 300, seed=7)
            assert residual_power_probe(plan, snr, 300, seed=7) == ledger.link_noise

    def test_probe_rejects_quality_mismatch(self):
        plan = build_case_ii(Q35, 1)
        with pytest.raises(ValueError, match="quality"):
            residual_power_probe(plan, SnrPoint.from_db(80, Q28), 10, seed=0)

    def test_probe_rejects_link_without_source(self):
        # slot 1 sends nothing user 1 overhears, so the link has no source;
        # the plan is refused before there is anything to probe
        slot1 = SlotPlan(1, (SymbolLayer("u", OWNER_USER1, orth_to(2), 0.5, 0.5, 0.5),))
        slot2 = SlotPlan(2, (SymbolLayer("c", OWNER_COMMON, first_antenna(), 1.0, 1.0, 0.2),))
        link = QuantizationLink(1, OWNER_USER1, "eta_1_1", 0.2, "c")
        with pytest.raises(ValueError, match="eta_1_1: source interference missing"):
            SchemePlan("hand", Q35, (slot1, slot2), (), (link,), DofPoint(0, 0), 2.0, 0.0, 0)

    def test_probe_rejects_link_without_carrier(self):
        slot1 = SlotPlan(1, (SymbolLayer("v", OWNER_USER2, orth_to(1), 0.5, 0.5, 0.5),))
        slot2 = SlotPlan(2, (SymbolLayer("c", OWNER_COMMON, first_antenna(), 1.0, 1.0, 0.2),))
        link = QuantizationLink(1, OWNER_USER1, "eta_1_1", 0.2, "eta_hat_1_1")
        with pytest.raises(ValueError, match="eta_1_1: no first-antenna carrier 'eta_hat_1_1'"):
            SchemePlan("hand", Q35, (slot1, slot2), (), (link,), DofPoint(0, 0), 2.0, 0.0, 0)

    def test_residual_unit_power(self):
        plan = build_case_ii(Q35, 2)
        for snr in (SnrPoint(1e4, Q35), SnrPoint(1e10, Q35)):
            res = residual_power_probe(plan, snr, 4000, seed=8)
            for k, v in res.items():
                assert v == pytest.approx(1.0, rel=0.10), (k, v)

    def test_residual_slope_zero(self):
        plan = build_case_ii(Q35, 2)
        grid = _grid(Q35)
        x = [s.log2p for s in grid]
        series = {}
        for snr in grid:
            for k, v in residual_power_probe(plan, snr, 4000, seed=8).items():
                series.setdefault(k, []).append(v)
        for k, ys in series.items():
            slope = float(np.polyfit(x, np.log2(ys), 1)[0])
            assert abs(slope) <= 0.05, (k, slope)

    def test_probe_detects_deficient_link(self):
        plan = perturb_link_prelog(build_case_ii(Q35, 2), "eta_4_1", -0.1)
        grid = _grid(Q35)
        x = [s.log2p for s in grid]
        ys = [residual_power_probe(plan, snr, 4000, seed=8)["eta_4_1"] for snr in grid]
        slope = float(np.polyfit(x, np.log2(ys), 1)[0])
        assert slope > 0.05
