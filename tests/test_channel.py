import math

import numpy as np
import pytest

from asymcsit import ChannelRealization, CsitQuality, SnrPoint, orth_complement, sample_channel, unit
from asymcsit.evaluator import _vdot

FIELDS = ("h_true", "g_true", "h_est", "g_est", "h_err", "g_err")


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestSnrPoint:
    def test_from_db(self):
        snr = SnrPoint.from_db(80.0, CsitQuality(0.3, 0.5))
        assert snr.p == pytest.approx(1e8)
        assert snr.p_db == pytest.approx(80.0)
        assert snr.sigma_sq(1) == pytest.approx(1e8 ** -0.3)
        assert snr.sigma_sq(2) == pytest.approx(1e8 ** -0.5)

    @pytest.mark.parametrize("p", [1.0, 0.5, -3.0, float("inf")])
    def test_rejects_degenerate_power(self, p):
        with pytest.raises(ValueError):
            SnrPoint(p, CsitQuality(0.3, 0.5))


class TestSampling:
    def test_construction_identity_bitwise(self):
        snr = SnrPoint.from_db(60.0, CsitQuality(0.3, 0.5))
        ch = sample_channel(snr, _rng(), size=1000)
        assert np.array_equal(ch.h_est + ch.h_err, ch.h_true)
        assert np.array_equal(ch.g_est + ch.g_err, ch.g_true)

    def test_error_variance_perfect_csit_scaling(self):
        # alpha1 = 1 at P = 1e6: error variance 1e-6 within 5 percent
        snr = SnrPoint(1e6, CsitQuality(1.0, 1.0))
        ch = sample_channel(snr, _rng(1), size=100_000)
        mean_err = np.mean(np.sum(np.abs(ch.h_err) ** 2, axis=-1))
        assert mean_err == pytest.approx(1e-6, rel=0.05)

    def test_error_variance_no_csit(self):
        # alpha = 0: unit error variance independent of P
        for p in (1e2, 1e8):
            snr = SnrPoint(p, CsitQuality(0.0, 0.0))
            ch = sample_channel(snr, _rng(2), size=100_000)
            mean_err = np.mean(np.sum(np.abs(ch.h_err) ** 2, axis=-1))
            assert mean_err == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_exponent_recovery(self, alpha):
        q = CsitQuality(alpha, alpha)
        logp, logerr = [], []
        for k in range(3, 10):
            snr = SnrPoint(10.0 ** k, q)
            ch = sample_channel(snr, _rng(100 + k), size=100_000)
            logp.append(math.log10(snr.p))
            logerr.append(math.log10(np.mean(np.sum(np.abs(ch.g_err) ** 2, axis=-1))))
        slope = np.polyfit(logp, logerr, 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.03)

    @staticmethod
    def _eight_call_draw(snr, rng, shape):
        # the draw as eight (size, 2) standard_normal calls: user h then g,
        # estimate then error, real then imaginary part
        out = {}
        for name, user in (("h", 1), ("g", 2)):
            err_var = snr.sigma_sq(user) / 2.0
            for part, var in (("est", 1.0 - err_var), ("err", err_var)):
                re, im = rng.standard_normal(shape), rng.standard_normal(shape)
                out[f"{name}_{part}"] = math.sqrt(var / 2.0) * (re + 1j * im)
            out[f"{name}_true"] = out[f"{name}_est"] + out[f"{name}_err"]
        return out

    @pytest.mark.parametrize("size", [None, 1, 257])
    def test_draw_layout_matches_eight_calls(self, size):
        snr = SnrPoint.from_db(80.0, CsitQuality(0.3, 0.5))
        ch = sample_channel(snr, _rng(11), size=size)
        ref = self._eight_call_draw(snr, _rng(11), (2,) if size is None else (size, 2))
        for f in FIELDS:
            assert np.array_equal(getattr(ch, f), ref[f]), f

    def test_out_is_filled_in_place(self):
        snr = SnrPoint.from_db(60.0, CsitQuality(0.2, 0.8))
        stack = {f: np.zeros((3, 50, 2), complex) for f in FIELDS}
        row = ChannelRealization(**{f: a[1] for f, a in stack.items()})
        got = sample_channel(snr, _rng(12), size=50, out=row)
        ref = sample_channel(snr, _rng(12), size=50)
        assert got is row
        for f in FIELDS:
            assert np.array_equal(stack[f][1], getattr(ref, f)), f
            assert not stack[f][0].any() and not stack[f][2].any(), f
        single = ChannelRealization(**{f: np.empty(2, complex) for f in FIELDS})
        sample_channel(snr, _rng(13), out=single)
        ref = sample_channel(snr, _rng(13))
        for f in FIELDS:
            assert np.array_equal(getattr(single, f), getattr(ref, f)), f

    def test_out_of_the_wrong_shape_rejected(self):
        snr = SnrPoint.from_db(60.0, CsitQuality(0.2, 0.8))
        bad = ChannelRealization(**{f: np.empty((4, 50, 2), complex) for f in FIELDS})
        with pytest.raises(ValueError, match="out arrays"):
            sample_channel(snr, _rng(), size=50, out=bad)

    @pytest.mark.parametrize("size", [None, 1, 257])
    def test_normals_input_matches_generator(self, size):
        # the evaluator draws on a worker thread and hands the normals over
        snr = SnrPoint.from_db(80.0, CsitQuality(0.3, 0.5))
        shape = (2,) if size is None else (size, 2)
        ref = sample_channel(snr, _rng(14), size=size)
        got = sample_channel(snr, _rng(14).standard_normal((2, 2, 2) + shape), size=size)
        into = ChannelRealization(**{f: np.empty(shape, complex) for f in FIELDS})
        sample_channel(snr, _rng(14).standard_normal((2, 2, 2) + shape), size=size, out=into)
        for f in FIELDS:
            assert np.array_equal(getattr(got, f), getattr(ref, f)), f
            assert np.array_equal(getattr(into, f), getattr(ref, f)), f

    @pytest.mark.parametrize("normals", [
        np.zeros((2, 2, 2, 49, 2)),     # another trial count
        np.zeros((8, 50, 2)),           # the right count, not the layout
        np.zeros((2, 2, 2, 2)),         # a single trial's shape
        np.zeros((2, 2, 2, 50, 2), np.float32),
        np.zeros((2, 2, 2, 50, 2), complex),
    ])
    def test_normals_of_the_wrong_shape_or_dtype_rejected(self, normals):
        snr = SnrPoint.from_db(60.0, CsitQuality(0.2, 0.8))
        with pytest.raises(ValueError, match="normals must be float64 of shape"):
            sample_channel(snr, normals, size=50)

    def test_draw_into_a_chunk_row_matches_a_shaped_draw(self):
        # the evaluator's chunk buffer: (slot, grid point) + one draw's normals
        buf = np.zeros((3, 4, 2, 2, 2, 40, 2))
        _rng(15).standard_normal(out=buf[1, 2])
        assert np.array_equal(buf[1, 2], _rng(15).standard_normal((2, 2, 2, 40, 2)))
        buf[1, 2] = 0.0
        assert not buf.any()

    def test_isotropy_and_user_independence(self):
        snr = SnrPoint(1e4, CsitQuality(0.5, 0.5))
        ch = sample_channel(snr, _rng(3), size=100_000)
        h = ch.h_true
        cov = np.einsum("ni,nj->ij", h, np.conj(h)) / h.shape[0]
        assert abs(cov[0, 1]) < 0.02
        assert cov[0, 0].real == pytest.approx(1.0, abs=0.02)
        assert cov[1, 1].real == pytest.approx(1.0, abs=0.02)
        cross = np.mean(np.sum(np.conj(h) * ch.g_true, axis=-1))
        assert abs(cross) < 0.02


class TestBasisVectors:
    def test_unit_examples(self):
        assert np.allclose(unit(np.array([2.0, 0.0])), [1.0, 0.0])
        assert np.allclose(unit(np.array([0.0, 3.0j])), [0.0, 1.0j])

    def test_unit_norm_random(self):
        v = _rng(4).standard_normal((500, 2)) + 1j * _rng(5).standard_normal((500, 2))
        norms = np.linalg.norm(unit(v), axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    @staticmethod
    def _vectors(seed, shape):
        # magnitudes over many binades, so the rounding of every step shows
        rng = _rng(seed)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return v * np.exp(rng.uniform(-20.0, 20.0, shape[:-1] + (1,)))

    @pytest.mark.parametrize("shape", [(8000, 2), (4, 2000, 2), (2,)])
    def test_unit_bit_identical_to_linalg_norm(self, shape):
        v = self._vectors(8, shape)
        assert np.array_equal(unit(v), v / np.linalg.norm(v, axis=-1, keepdims=True))

    @pytest.mark.parametrize("shape", [(8000, 2), (4, 2000, 2), (2,)])
    def test_vdot_bit_identical_to_sum(self, shape):
        h, v = self._vectors(9, shape), self._vectors(10, shape)
        assert np.array_equal(_vdot(h, v), (np.conj(h) * v).sum(axis=-1))

    def test_unit_rejects_other_lengths(self):
        with pytest.raises(ValueError, match="length 2"):
            unit(np.ones(3, dtype=complex))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            unit(np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            orth_complement(np.zeros(2, dtype=complex))

    def test_orth_simple(self):
        u = orth_complement(np.array([1.0 + 0j, 0.0 + 0j]))
        assert abs(np.vdot(np.array([1.0, 0.0]), u)) < 1e-15
        assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_orth_random_property(self):
        rng = _rng(6)
        v = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
        u = orth_complement(v)
        inner = np.abs(np.sum(np.conj(v) * u, axis=-1)) / np.linalg.norm(v, axis=-1)
        assert np.max(inner) < 1e-12
        assert np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) < 1e-12

    def test_double_orth_collinear(self):
        rng = _rng(7)
        v = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        w = orth_complement(orth_complement(v))
        align = np.abs(np.sum(np.conj(unit(v)) * w, axis=-1))
        assert np.max(np.abs(align - 1.0)) < 1e-12

    def test_zf_leakage_scaling(self):
        # |h^H orth(h_est)|^2 must decay as P**(-alpha1)
        alpha = 0.6
        q = CsitQuality(alpha, alpha)
        logp, leak = [], []
        for k in range(3, 10, 2):
            snr = SnrPoint(10.0 ** k, q)
            ch = sample_channel(snr, _rng(200 + k), size=100_000)
            u = orth_complement(ch.h_est)
            gain = np.abs(np.sum(np.conj(ch.h_true) * u, axis=-1)) ** 2
            logp.append(math.log10(snr.p))
            leak.append(math.log10(np.mean(gain)))
        slope = np.polyfit(logp, leak, 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.05)
