import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from asymcsit import (
    ChannelRealization,
    CsitQuality,
    PlanValidationError,
    SnrPoint,
    build_case_i,
    build_case_ii,
    build_ges12_asym,
    build_sc_zf,
    estimate_dof,
    evaluate_plan,
    residual_power_probe,
    sample_channel,
)
from asymcsit import evaluator
from asymcsit.evaluator import (
    _TAG_CHANNEL,
    _common_mis,
    _evaluate_grid,
    _gains_for_slot,
    _logdet_mi,
    _p_key,
    _stream,
    check_grid_db,
)
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


def _grid(quality, dbs=(60, 80, 100, 120)):
    return [SnrPoint.from_db(db, quality) for db in dbs]


def _fixed_channel():
    """Deterministic realization: h = (1, 0), g = (0, 1), perfect estimates."""
    e1 = np.array([1.0 + 0j, 0.0 + 0j])
    e2 = np.array([0.0 + 0j, 1.0 + 0j])
    zero = np.zeros(2, dtype=complex)
    return ChannelRealization(h_true=e1, g_true=e2, h_est=e1, g_est=e2, h_err=zero, g_err=zero)


def _zf_rate(layer, ch, p, noise):
    """The evaluator's direct-observation rate of a lone zero-forced symbol."""
    gain1, _ = _gains_for_slot(SlotPlan(1, (layer,)), ch)
    return float(_logdet_mi([([gain1[layer.id]], noise)], [layer.power(p)]))


def _vector_rate(layers, ch, p, direct_noise, side_noise):
    """The evaluator's 2x2 log-det rate of a user-2 vector: direct row at
    user 2 stacked with the record overheard at user 1."""
    gain1, gain2 = _gains_for_slot(SlotPlan(1, tuple(layers)), ch)
    rows = [([gain2[l.id] for l in layers], direct_noise), ([gain1[l.id] for l in layers], side_noise)]
    return float(_logdet_mi(rows, [l.power(p) for l in layers]))


class TestRateOps:
    """The evaluator's rate primitives on fixed or single draws."""

    def test_single_common_is_point_to_point_capacity(self):
        snr = SnrPoint(1e6, Q35)
        layer = SymbolLayer("c", OWNER_COMMON, first_antenna(), 1.0, 1.0, 1.0)
        slot = SlotPlan(1, (layer,))
        gain1, gain2 = _gains_for_slot(slot, _fixed_channel())
        mi1, mi2 = _common_mis(slot, gain1, gain2, {"c": np.array([[snr.p]])}, slot.commons(snr.p))
        assert mi1["c"].item() == pytest.approx(math.log2(1 + 1e6), abs=1e-12)
        assert mi2["c"].item() == 0.0  # g has no first-antenna component here

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
            SymbolLayer("v1", OWNER_USER2, orth_to(1), 0.5, 1.0, 0.5, 1.0, 0.5),  # power 0
            SymbolLayer("v2", OWNER_USER2, along(1), 0.2, 1.0, 0.2, 1.0, 0.2),    # power 0
        ]
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

    @pytest.mark.parametrize("tilt,bits", [(1e-12, 82.048), (1e-9, 99.658)])
    def test_joint_vector_nearly_collinear_rows(self, tilt, bits):
        # both rows see the two layers along almost the same direction, so
        # det(A) is far below a11*a22 (~1e48); expanding (1+a11)(1+a22) -
        # |a12|**2 in floats cancels it away (0 bits at tilt 1e-12, 110 at 1e-9)
        row1 = [1e8, 1e8]
        row2 = [1e8, 1e8 * (1.0 + tilt)]
        powers = [1e8, 1e8]
        rows = [([np.array([complex(g)]) for g in row1], 1.0), ([np.array([complex(g)]) for g in row2], 1.0)]

        p, h, g = [Fraction(x) for x in powers], [Fraction(x) for x in row1], [Fraction(x) for x in row2]
        a11 = sum(pi * hi * hi for pi, hi in zip(p, h))
        a22 = sum(pi * gi * gi for pi, gi in zip(p, g))
        a12 = sum(pi * hi * gi for pi, hi, gi in zip(p, h, g))
        exact = math.log2((1 + a11) * (1 + a22) - a12 * a12)

        assert exact == pytest.approx(bits, abs=1e-3)
        assert float(_logdet_mi(rows, powers)[0]) == pytest.approx(exact, rel=1e-6)


class TestEvaluatePlan:
    def test_sc_zf_compositional_identity(self):
        # one trial: the ledger must equal an independent numpy recomputation
        # of the SIC and zero-forcing rates on the same channel draw
        snr = SnrPoint.from_db(80, Q35)
        plan = build_sc_zf(Q35)
        seed = 123
        ledger = evaluate_plan(plan, snr, 1, seed)

        ch = sample_channel(snr, _stream(seed, _TAG_CHANNEL, _p_key(snr), 1), size=1)
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

    def test_points_and_stderr_shape(self):
        plan = build_case_ii(Q35, 3)
        est = estimate_dof(plan, _grid(Q35), 200, seed=6)
        assert len(est.points) == 4
        assert len(est.point_stderr) == 4
        assert est.stderr[0] > 0 and est.stderr[1] > 0
        assert est.slope.d1 > 0 and est.slope.d2 > 0

    def test_memory_does_not_grow_with_the_plan(self):
        # a slot's fresh-layer gains are freed once the carriers of its links
        # are decoded, so ten times the cycles may not cost ten times the peak.
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
        def no_stream(*key):
            raise AssertionError(f"stream {key} made before the arguments were checked")

        monkeypatch.setattr(evaluator, "_stream", no_stream)
        with pytest.raises(ValueError, match=message):
            self._call(entry, n_trials, seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_integers_accepted(self, entry):
        assert repr(self._call(entry, np.int64(30), np.int32(7))) == repr(self._call(entry, 30, 7))


class TestPrefetch:
    """The next chunk of slots' normals is drawn on one worker thread while
    this thread decodes; the results may not depend on the chunking."""

    N_TRIALS = 600  # 4 points x 16 normals x 600 trials per slot: over the budget, so a chunk is one slot

    @staticmethod
    def _pass(monkeypatch, plan, budget=None):
        """_evaluate_grid's arrays and the stream count of each hand-off."""
        handed = []
        draw = evaluator._draw

        def counting_draw(rngs, normals):
            handed.append(len(rngs))
            draw(rngs, normals)

        with monkeypatch.context() as m:
            m.setattr(evaluator, "_draw", counting_draw)
            if budget is not None:
                m.setattr(evaluator, "_DRAW_BUDGET", budget)
            return _evaluate_grid(plan, _grid(Q35), TestPrefetch.N_TRIALS, 5), handed

    @pytest.mark.parametrize("slots_per_chunk", [1, 2, 7, 20])
    def test_chunking_does_not_change_the_pass(self, monkeypatch, slots_per_chunk):
        plan = build_case_ii(Q35, 3)  # 12 slots: 7 does not divide them, and 20 is more than all of them
        n_slots, points = len(plan.all_slots()), 4
        ref, ref_handed = self._pass(monkeypatch, plan)
        assert ref_handed == [points] * n_slots
        per_slot = points * 16 * self.N_TRIALS
        # one normal short of another whole slot: a chunk holds whole slots only
        got, handed = self._pass(monkeypatch, plan, (slots_per_chunk + 1) * per_slot - 1)
        assert handed == [points * min(slots_per_chunk, n_slots - s) for s in range(0, n_slots, slots_per_chunk)]
        for name, a, b in zip(("rate", "link_out", "mean", "stderr"), got, ref):
            assert np.array_equal(a, b), name

    def test_hand_off_holds_under_frequent_thread_switches(self):
        # the buffer is scaled here and refilled by the worker: a read
        # before the draw finished, or a refill before the read, would show
        # as changed values once the threads switch every few microseconds
        plan = build_case_ii(Q35, 2)
        ref = _evaluate_grid(plan, _grid(Q35), 300, 9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_evaluate_grid(plan, _grid(Q35), 300, 9) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for got in runs:
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_traced_names_run_on_the_calling_thread(self, monkeypatch):
        # perfbench's tracer keeps one span stack, for the calling thread;
        # only standard_normal runs on the worker
        caller = threading.get_ident()
        seen: dict[str, set] = {}
        for name in ("sample_channel", "orth_complement", "unit"):
            def spy(*args, _fn=getattr(evaluator, name), _name=name, **kwargs):
                seen.setdefault(_name, set()).add(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(evaluator, name, spy)
        drawn_on = set()
        stream = evaluator._stream

        class SpyStream:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                drawn_on.add(threading.get_ident())
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(evaluator, "_stream", lambda *key: SpyStream(stream(*key)))
        estimate_dof(build_case_ii(Q35, 1), _grid(Q35), 50, seed=4)
        assert seen == {name: {caller} for name in ("sample_channel", "orth_complement", "unit")}
        assert len(drawn_on) == 1 and caller not in drawn_on

    def test_no_thread_outlives_the_pass(self, monkeypatch):
        plan = build_case_ii(Q35, 1)
        before = threading.active_count()
        estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
        assert threading.active_count() == before
        # fail on this thread in a later slot's decode, with the next draw handed off
        calls = []
        orth = evaluator.orth_complement

        def failing_orth(v):
            calls.append(v)
            if len(calls) == 3:
                raise ZeroDivisionError("decode failed")
            return orth(v)

        monkeypatch.setattr(evaluator, "orth_complement", failing_orth)
        with pytest.raises(ZeroDivisionError, match="decode failed"):
            estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
        assert threading.active_count() == before

    def test_a_failed_draw_raises_from_the_caller(self, monkeypatch):
        class DrawFailed(Exception):
            pass

        failure = DrawFailed("standard_normal failed")

        class BrokenStream:
            def standard_normal(self, out):
                raise failure

        plan = build_case_ii(Q35, 1)
        broken_slot = plan.all_slots()[2].index
        stream = evaluator._stream
        monkeypatch.setattr(evaluator, "_stream",
                            lambda seed, tag, p_key, slot: BrokenStream() if slot == broken_slot
                            else stream(seed, tag, p_key, slot))
        before = threading.active_count()
        with pytest.raises(DrawFailed) as info:
            estimate_dof(plan, _grid(Q35), self.N_TRIALS, seed=4)
        assert info.value is failure
        assert threading.active_count() == before


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
