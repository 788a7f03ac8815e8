import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcsit import ChannelRealization, CsitQuality, SnrPoint, orth_complement, sample_channel, unit
from asymcsit.channel import _dot, _orth

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
        # the evaluator draws the normals itself (on a worker thread too,
        # where a decode chunk is one slot) and hands them over
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

    @pytest.mark.parametrize("size", [None, 1, 37])
    def test_grid_call_matches_one_call_per_point(self, size):
        # the evaluator scales a chunk (slot, grid point) in one call; every
        # value must equal the one-point call's on the same normals
        q = CsitQuality(0.2, 0.7)
        grid = [SnrPoint.from_db(db, q) for db in (3.0, 60.0, 250.0)]
        shape = (2,) if size is None else (size, 2)
        normals = _rng(16).standard_normal((4, len(grid), 2, 2, 2) + shape)
        into = ChannelRealization(**{f: np.empty((4, len(grid)) + shape, complex) for f in FIELDS})
        assert sample_channel(grid, normals, size=size, out=into) is into
        for s in range(4):
            for k, snr in enumerate(grid):
                ref = sample_channel(snr, normals[s, k], size=size)
                for f in FIELDS:
                    assert np.array_equal(getattr(into, f)[s, k], getattr(ref, f)), (s, k, f)
        drawn = sample_channel(grid, _rng(17), size=size)
        rng = _rng(17)
        for k, snr in enumerate(grid):  # a Generator draws the points in order
            ref = sample_channel(snr, rng, size=size)
            for f in FIELDS:
                assert np.array_equal(getattr(drawn, f)[k], getattr(ref, f)), (k, f)

    def test_grid_normals_or_out_of_the_wrong_shape_rejected(self):
        q = CsitQuality(0.2, 0.7)
        grid = [SnrPoint.from_db(db, q) for db in (60.0, 80.0)]
        with pytest.raises(ValueError, match=r"normals must be float64 of shape \(\.\.\., G\)"):
            sample_channel(grid, np.zeros((3, 2, 2, 2, 50, 2)), size=50)  # 3 points' normals for 2
        with pytest.raises(ValueError, match=r"normals must be float64 of shape \(\)"):
            sample_channel(grid[0], np.zeros((2, 2, 2, 2, 50, 2)), size=50)  # a grid's for one point
        bad = ChannelRealization(**{f: np.empty((50, 2), complex) for f in FIELDS})
        with pytest.raises(ValueError, match=r"out arrays must be complex128 of shape \(2, 50, 2\)"):
            sample_channel(grid, np.zeros((2, 2, 2, 2, 50, 2)), size=50, out=bad)

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

    @pytest.mark.parametrize("shape", [(4, 2000, 2), (2,)])
    def test_unit_into_out_is_the_same(self, shape):
        v = self._vectors(11, shape)
        out = np.empty(shape, complex)
        assert unit(v, out=out) is out
        assert out.tobytes() == unit(v).tobytes()

    @pytest.mark.parametrize("shape", [(8000, 2), (4, 2000, 2), (2,)])
    def test_vdot_bit_identical_to_sum(self, shape):
        h, v = self._vectors(9, shape), self._vectors(10, shape)
        assert np.array_equal(_gain(np.conj(h), v), (np.conj(h) * v).sum(axis=-1))

    def test_unit_rejects_other_lengths(self):
        with pytest.raises(ValueError, match="length 2"):
            unit(np.ones(3, dtype=complex))
        with pytest.raises(ValueError, match="trailing axis of length 2"):
            orth_complement(np.ones((2, 3), dtype=complex))

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


# parts of a complex 2-vector: signed zeros, and magnitudes from 1e-150 to
# 1e150, whose squares reach down to subnormals and up to 1e300
_part = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-150, 1e150).flatmap(lambda x: st.sampled_from([x, -x])),
)
_vectors = st.lists(st.tuples(_part, _part, _part, _part), min_size=1, max_size=6).map(
    lambda rows: np.array([[complex(a, b), complex(c, d)] for a, b, c, d in rows]))


def _gain(hc, v):
    """_dot into new arrays."""
    return _dot(hc, v, np.empty_like(hc), np.empty(hc.shape[:-1], complex))


def _orth_of(a):
    """_orth on a copy of a."""
    a = a.copy()
    return _orth(a, np.empty(a.shape[:-1], complex))


def _vdot(h, v):
    """h^H v as the pass took it before its channels were conjugated in place."""
    prod = np.conj(h)
    prod *= v
    return prod[..., 0] + prod[..., 1]


class TestProjectionIdentities:
    """The pass's projection shortcuts are exact: the bytes match, signed
    zeros included."""

    @settings(max_examples=300, deadline=None)
    @given(_vectors)
    @example(np.array([[complex(0.0, -0.0), complex(-0.0, 1e-150)], [complex(1e150, -1e150), complex(-0.0, 0.0)]]))
    def test_orth_from_unit_is_orth_complement(self, v):
        v = v[np.any(v != 0.0, axis=-1)]  # unit and orth_complement refuse zero vectors
        assert _orth_of(unit(v)).tobytes() == orth_complement(v).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_vectors, _vectors)
    @example(np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)]]),
             np.array([[complex(-0.0, 0.0), complex(-0.0, -0.0)]]))
    def test_dot_on_a_conjugated_channel_is_vdot(self, h, v):
        n = min(len(h), len(v))
        h, v = h[:n], v[:n]
        hc = h.copy()
        np.conjugate(hc, out=hc)  # in place, as the pass conjugates its own buffers
        assert _gain(hc, v).tobytes() == _vdot(h, v).tobytes()
