"""Closed-form DoF region geometry for the two-user MISO broadcast channel.

With a two-antenna transmitter, single-antenna users, perfect knowledge of
all past channel states and current per-user channel estimates of quality
exponents (alpha1, alpha2), the pre-log (degrees-of-freedom) region is the
polygon

    d1 >= 0,  d2 >= 0,  d1 <= 1,  d2 <= 1,
    d1 + 2*d2 <= 2 + alpha2,
    2*d1 + d2 <= 2 + alpha1.

This module enumerates the polygon's vertices by brute force over pairs of
bounding lines (dimension 2, at most 15 candidates), lists the nontrivial
corner points in closed form, and evaluates the two weighted-sum outer
bounds.  Everything here is exact arithmetic on floats; no simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CsitQuality",
    "Halfspace",
    "DofPoint",
    "DofRegion",
    "dof_region",
    "corner_points",
    "contains",
    "outer_bound_slack",
    "region_as_dict",
]

# Candidate vertices violating any halfspace by more than this are discarded.
FEASIBILITY_TOL = 1e-12
# Vertices closer than this (Euclidean) are treated as one point: a
# rounding apart, not two corners (an alpha of 1e-10 puts the corner
# (alpha2, 1) 1e-10 from (0, 1), and both are vertices).
DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class CsitQuality:
    """Pair of current-CSIT accuracy exponents (alpha1, alpha2).

    The transmitter-side estimation error of user k's channel has variance
    scaling as P**(-alpha_k): alpha=0 means the current estimate is useless,
    alpha=1 means it is effectively perfect.  User 1 is, by convention, the
    user with the weaker estimate, so alpha1 <= alpha2 is required.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
            raise ValueError("alpha exponents must be finite")
        if not 0.0 <= self.alpha1 <= self.alpha2 <= 1.0:
            raise ValueError(
                "need 0 <= alpha1 <= alpha2 <= 1, got "
                f"({self.alpha1}, {self.alpha2})"
            )

    def delta(self) -> float:
        """Asymmetry gap alpha2 - alpha1 (in [0, 1])."""
        return self.alpha2 - self.alpha1

    def case_i(self) -> bool:
        """The case split, the one place it is stated: True in case i,
        2*alpha2 - alpha1 >= 1 (the boundary included), where the
        intersection of the two sum bounds has d2 >= 1; False in case ii,
        where it has d2 < 1."""
        return 2.0 * self.alpha2 - self.alpha1 >= 1.0


@dataclass(frozen=True)
class Halfspace:
    """Constraint a*d1 + b*d2 <= c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("degenerate halfspace: (a, b) = (0, 0)")

    def slack(self, p: "DofPoint") -> float:
        """c - (a*d1 + b*d2); nonnegative iff p satisfies the constraint."""
        return self.c - (self.a * p.d1 + self.b * p.d2)


@dataclass(frozen=True)
class DofPoint:
    """A pre-log pair (d1, d2)."""

    d1: float
    d2: float

    def __post_init__(self):
        if not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ValueError("DoF coordinates must be finite")
        if self.d1 < -1e-9 or self.d2 < -1e-9:
            raise ValueError(f"DoF coordinates must be nonnegative, got ({self.d1}, {self.d2})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.d1, self.d2)


@dataclass(frozen=True)
class DofRegion:
    """Halfspace list plus the enumerated vertex polygon.

    Vertices are ordered counter-clockwise starting at the origin.  Every
    vertex satisfies every halfspace to FEASIBILITY_TOL and lies on at least
    two active constraints.
    """

    quality: CsitQuality
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[DofPoint, ...]


def _bounding_halfspaces(quality: CsitQuality) -> tuple[Halfspace, ...]:
    return (
        Halfspace(-1.0, 0.0, 0.0),   # d1 >= 0
        Halfspace(0.0, -1.0, 0.0),   # d2 >= 0
        Halfspace(1.0, 0.0, 1.0),    # d1 <= 1
        Halfspace(0.0, 1.0, 1.0),    # d2 <= 1
        Halfspace(1.0, 2.0, 2.0 + quality.alpha2),
        Halfspace(2.0, 1.0, 2.0 + quality.alpha1),
    )


def _intersect(h1: Halfspace, h2: Halfspace) -> tuple[float, float] | None:
    det = h1.a * h2.b - h1.b * h2.a
    if abs(det) < 1e-12:
        return None
    d1 = (h1.c * h2.b - h1.b * h2.c) / det
    d2 = (h1.a * h2.c - h1.c * h2.a) / det
    return (d1, d2)


def dof_region(quality: CsitQuality) -> DofRegion:
    """Enumerate the DoF polygon for the given CSIT quality pair.

    Brute-force vertex enumeration: intersect every pair of the six bounding
    lines, keep the points feasible for all six halfspaces (slack down to
    -FEASIBILITY_TOL), merge duplicates, sort counter-clockwise and rotate so
    the origin comes first.  When 2*alpha2 - alpha1 > 1 the intersection of
    the two sum constraints has d2 > 1 and is dropped by the feasibility
    filter.
    """
    halfspaces = _bounding_halfspaces(quality)
    candidates: list[tuple[float, float]] = []
    for i in range(len(halfspaces)):
        for j in range(i + 1, len(halfspaces)):
            pt = _intersect(halfspaces[i], halfspaces[j])
            if pt is None:
                continue
            if all(h.c - (h.a * pt[0] + h.b * pt[1]) >= -FEASIBILITY_TOL for h in halfspaces):
                candidates.append(pt)

    unique: list[tuple[float, float]] = []
    for pt in candidates:
        if all(math.hypot(pt[0] - q[0], pt[1] - q[1]) > DEDUP_TOL for q in unique):
            unique.append(pt)

    cx = sum(p[0] for p in unique) / len(unique)
    cy = sum(p[1] for p in unique) / len(unique)
    unique.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    start = min(range(len(unique)), key=lambda k: unique[k][0] ** 2 + unique[k][1] ** 2)
    ordered = unique[start:] + unique[:start]

    # Clamp the tiny negative rounding slack so DofPoint's nonnegativity holds.
    vertices = tuple(DofPoint(max(p[0], 0.0) + 0.0, max(p[1], 0.0) + 0.0) for p in ordered)
    return DofRegion(quality=quality, halfspaces=halfspaces, vertices=vertices)


def corner_points(quality: CsitQuality) -> list[DofPoint]:
    """Nontrivial upper-boundary corner points in closed form, each once.

    Returns (1, alpha1) plus, in case ii (CsitQuality.case_i false:
    2*alpha2 - alpha1 < 1), the corner (alpha2, 1) and the max-sum
    intersection point ((2 + 2*alpha1 - alpha2)/3, (2 + 2*alpha2 - alpha1)/3).
    In case i the max-sum point is ((1 + alpha1)/2, 1) instead: the
    intersection has d2 >= 1, and on the boundary line it is that point and
    (alpha2, 1) too.  At alpha1 = 1 the one corner is (1, 1).  Just below
    the line, (alpha2, 1) and the intersection are two corners a rounding
    apart.
    """
    a1, a2 = quality.alpha1, quality.alpha2
    if quality.case_i():
        corners = [DofPoint(1.0, a1), DofPoint((1.0 + a1) / 2.0, 1.0)]
    else:
        corners = [DofPoint(1.0, a1), DofPoint(a2, 1.0),
                   DofPoint((2.0 + 2.0 * a1 - a2) / 3.0, (2.0 + 2.0 * a2 - a1) / 3.0)]
    return list(dict.fromkeys(corners))


def contains(region: DofRegion, p: DofPoint, tol: float = 1e-9) -> bool:
    """True iff p satisfies every halfspace with slack >= -tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return all(h.slack(p) >= -tol for h in region.halfspaces)


def outer_bound_slack(quality: CsitQuality, p: DofPoint) -> tuple[float, float]:
    """Slack of the two weighted-sum outer bounds at p.

    Returns ((2 + alpha2) - (d1 + 2*d2), (2 + alpha1) - (2*d1 + d2)): the
    slacks of the last two rows of _bounding_halfspaces.  Nonnegative
    slacks certify that p respects the converse bounds.
    """
    sum2, sum1 = _bounding_halfspaces(quality)[-2:]
    return (sum2.slack(p), sum1.slack(p))


def region_as_dict(region: DofRegion) -> dict:
    """JSON-ready description: vertex polygon, corner points, halfspaces."""
    return {
        "alpha1": region.quality.alpha1,
        "alpha2": region.quality.alpha2,
        "vertices": [[v.d1, v.d2] for v in region.vertices],
        "corners": [[c.d1, c.d2] for c in corner_points(region.quality)],
        "halfspaces": [[h.a, h.b, h.c] for h in region.halfspaces],
    }
