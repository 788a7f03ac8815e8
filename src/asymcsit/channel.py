"""Random channel states, transmitter-side estimates and precoder bases.

Per slot, each user's 2x1 channel is i.i.d. circularly-symmetric complex
Gaussian with unit per-component variance.  The transmitter predicts the
current channel with an additive error whose total variance is
sigma_k^2 = P**(-alpha_k); estimate and error are drawn independently with
variances summing to the unit-covariance total, so E[h h^H] = I at every P.

The zero-forcing precoder basis for a user is the unit vector along the
other user's estimate together with its orthogonal complement.  The key
scaling these draws must reproduce: |h^H orth(h_est)|^2 averages to
sigma_1^2 / 2, i.e. it decays as P**(-alpha1).

A slot's 16 standard normals per trial come from one standard_normal call,
in stream order: user h, then user g; per user the estimate, then the
error; per field the real part, then the imaginary part (each block of
shape `(size, 2)`).  That is the order eight separate `(size, 2)` calls
would draw, so a stream gives the same channels however it is batched.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .geometry import CsitQuality

__all__ = [
    "SnrPoint",
    "ChannelRealization",
    "sample_channel",
    "orth_complement",
    "unit",
]


@dataclass(frozen=True)
class SnrPoint:
    """Transmit power P (linear, > 1) plus the CSIT quality it scales."""

    p: float
    quality: CsitQuality

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"transmit power must be finite and > 1, got {self.p}")

    @classmethod
    def from_db(cls, p_db: float, quality: CsitQuality) -> "SnrPoint":
        """dB convention: P = 10**(p_db / 10)."""
        return cls(10.0 ** (p_db / 10.0), quality)

    @property
    def p_db(self) -> float:
        return 10.0 * math.log10(self.p)

    @property
    def log2p(self) -> float:
        return math.log2(self.p)

    def sigma_sq(self, user: int) -> float:
        """Estimation-error variance P**(-alpha_user) for user 1 or 2."""
        alpha = {1: self.quality.alpha1, 2: self.quality.alpha2}[user]
        return self.p ** (-alpha)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One slot's true channels, estimates and errors for both users.

    Fields are complex arrays with trailing axis 2; a leading axis batches
    independent trials.  h_true == h_est + h_err holds exactly (bitwise) by
    construction, and likewise for g.
    """

    h_true: np.ndarray
    g_true: np.ndarray
    h_est: np.ndarray
    g_est: np.ndarray
    h_err: np.ndarray
    g_err: np.ndarray


_FIELDS = tuple(f.name for f in fields(ChannelRealization))


def sample_channel(snr: SnrPoint | Sequence[SnrPoint], rng: np.random.Generator | np.ndarray,
                   size: int | None = None, out: ChannelRealization | None = None) -> ChannelRealization:
    """Draw one slot's channels (optionally a batch of `size` trials).

    Per user k: the error vector is CSCG with total variance P**(-alpha_k)
    (per component half of that), independent of the estimate, whose
    per-component variance tops the total back up to 1.  The normals are
    drawn in the order the module docstring states.

    snr is one SnrPoint, or a sequence of G of them (a power grid); a grid
    draws once per point and puts the point axis before the trial axis.
    Each point's scale is then a column broadcast over its trials, so every
    value equals the one-point call's.

    rng is a Generator, or the normals already drawn from one: the float64
    array of shape `lead + (2, 2, 2) + shape` (shape is `(2,)` or `(size,
    2)`), which may be a view into a larger buffer.  lead is `()` for one
    point; for a grid it ends in G, and any axes before that batch more
    draws (say, one per slot).  A Generator draws a grid's points in order,
    as G one-point calls would.  Any other shape or dtype raises ValueError.
    This lets a caller draw on another thread and scale here.

    With out, the draw is written into out's arrays (complex128, each of
    shape `lead + shape`, which may be views into larger arrays) and out is
    returned; its values equal those of a call without out.
    """
    shape = (2,) if size is None else (size, 2)
    grid = not isinstance(snr, SnrPoint)
    points = tuple(snr) if grid else (snr,)
    if isinstance(rng, np.ndarray):
        lead = rng.shape[:max(0, rng.ndim - 3 - len(shape))]
        if (rng.shape[len(lead):] != (2, 2, 2) + shape or rng.dtype != np.float64
                or (lead[-1:] != (len(points),) if grid else lead)):
            want = ("(..., G)" if grid else "()") + f" + {(2, 2, 2) + shape}"
            raise ValueError(f"normals must be float64 of shape {want}, got {rng.dtype} of shape {rng.shape}")
        normals = rng
    else:
        lead = (len(points),) if grid else ()
        normals = rng.standard_normal(lead + (2, 2, 2) + shape)
    if out is None:
        out = ChannelRealization(**{f: np.empty(lead + shape, complex) for f in _FIELDS})
    elif any(getattr(out, f).shape != lead + shape or getattr(out, f).dtype != complex for f in _FIELDS):
        raise ValueError(f"out arrays must be complex128 of shape {lead + shape}")
    normals = np.moveaxis(normals, range(len(lead), len(lead) + 3), range(3))
    column = (len(points),) + (1,) * len(shape)  # one scale per grid point, over its trials
    for z, user, est, err, true in ((normals[0], 1, out.h_est, out.h_err, out.h_true),
                                    (normals[1], 2, out.g_est, out.g_err, out.g_true)):
        err_comp_var = [p.sigma_sq(user) / 2.0 for p in points]
        for (re, im), comp_var, field in ((z[0], [1.0 - v for v in err_comp_var], est), (z[1], err_comp_var, err)):
            scales = [math.sqrt(v / 2.0) for v in comp_var]
            scale = np.array(scales).reshape(column) if grid else scales[0]
            np.multiply(re, scale, out=field.real)
            np.multiply(im, scale, out=field.imag)
        np.add(est, err, out=true)
    return out


def unit(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v / ||v|| along the trailing axis of length 2, as complex; rejects
    zero vectors.

    Bit-identical to v / np.linalg.norm(v, axis=-1, keepdims=True) for
    complex v, in fewer and smaller temporaries: the squared norm adds the
    two terms of (conj(v) * v).real, the same floating-point steps as the
    norm takes, and numpy divides a complex by a real norm as a product with
    its reciprocal, so each real and imaginary part is multiplied by
    1 / norm here.

    With out (complex128, v's shape, not sharing v's memory), the result is
    written into out and out is returned, with the same values.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] != 2:
        raise ValueError("unit expects trailing axis of length 2")
    prod = np.conjugate(v, out=out)
    prod *= v
    sq = prod.real
    inv = sq[..., :1] + sq[..., 1:]
    np.sqrt(inv, out=inv)
    if np.any(inv == 0.0):
        raise ValueError("cannot normalize a zero vector")
    np.divide(1.0, inv, out=inv)
    for part, src in ((prod.real, v.real), (prod.imag, v.imag)):
        for j in (0, 1):
            np.multiply(src[..., j], inv[..., 0], out=part[..., j])
    return prod


def orth_complement(v: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to v (trailing axis 2): v^H u = 0.

    Phase convention: (a, b) maps to (-conj(b), conj(a)) normalized, so the
    result is deterministic and applying the map twice returns a unit vector
    collinear with the input.
    """
    v = np.asarray(v)
    if v.shape[-1] != 2:
        raise ValueError("orth_complement expects trailing axis of length 2")
    u = np.stack([-np.conj(v[..., 1]), np.conj(v[..., 0])], axis=-1)
    return unit(u)
