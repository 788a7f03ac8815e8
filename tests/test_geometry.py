import math

import numpy as np
import pytest

from asymcsit import (
    CsitQuality,
    DofPoint,
    Halfspace,
    contains,
    corner_points,
    dof_region,
    outer_bound_slack,
    region_as_dict,
)


def _has_vertex(region, d1, d2, tol=1e-12):
    return any(abs(v.d1 - d1) <= tol and abs(v.d2 - d2) <= tol for v in region.vertices)


class TestCsitQuality:
    def test_valid_range(self):
        q = CsitQuality(0.3, 0.5)
        assert q.delta() == pytest.approx(0.2)

    @pytest.mark.parametrize("a1,a2", [(0.6, 0.5), (-0.1, 0.5), (0.2, 1.2), (float("nan"), 0.5)])
    def test_rejects_invalid(self, a1, a2):
        with pytest.raises(ValueError):
            CsitQuality(a1, a2)

    def test_degenerate_halfspace_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(0.0, 0.0, 1.0)

    def test_negative_dof_point_rejected(self):
        with pytest.raises(ValueError):
            DofPoint(-0.5, 0.2)

    @pytest.mark.parametrize("d1, d2", [(math.nan, 0.2), (0.2, math.inf), (-math.inf, 0.0)])
    def test_non_finite_dof_point_rejected(self, d1, d2):
        with pytest.raises(ValueError, match="DoF coordinates must be finite"):
            DofPoint(d1, d2)


class TestRegion:
    def test_no_csit_region(self):
        # alpha = 0: box capped by the sum constraints through (2/3, 2/3)
        region = dof_region(CsitQuality(0.0, 0.0))
        assert _has_vertex(region, 1.0, 0.0)
        assert _has_vertex(region, 2.0 / 3.0, 2.0 / 3.0)
        assert _has_vertex(region, 0.0, 1.0)
        assert len(region.vertices) == 4

    def test_perfect_csit_region_is_unit_square(self):
        region = dof_region(CsitQuality(1.0, 1.0))
        assert _has_vertex(region, 1.0, 1.0)
        assert len(region.vertices) == 4

    def test_region_03_05(self):
        region = dof_region(CsitQuality(0.3, 0.5))
        for d1, d2 in [(1.0, 0.3), (0.7, 0.9), (0.5, 1.0)]:
            assert _has_vertex(region, d1, d2)
        assert len(region.vertices) == 6

    def test_region_02_08_drops_triple_intersection(self):
        # 2*alpha2 - alpha1 = 1.4 > 1: the sum-constraint intersection
        # ((2+2a1-a2)/3, (2+2a2-a1)/3) = (0.5333, 1.1333) is infeasible
        region = dof_region(CsitQuality(0.2, 0.8))
        assert _has_vertex(region, 1.0, 0.2)
        assert _has_vertex(region, 0.6, 1.0)
        bad = ((2 + 0.4 - 0.8) / 3, (2 + 1.6 - 0.2) / 3)
        assert not _has_vertex(region, bad[0], bad[1], tol=1e-6)
        assert len(region.vertices) == 5

    def test_vertices_feasible_and_extreme(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a1 = rng.uniform(0, 1)
            a2 = rng.uniform(a1, 1)
            region = dof_region(CsitQuality(a1, a2))
            for v in region.vertices:
                slacks = [h.slack(v) for h in region.halfspaces]
                assert min(slacks) >= -1e-12
                active = sum(1 for s in slacks if abs(s) <= 1e-9)
                assert active >= 2

    def test_polygon_convex_ccw(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a1 = rng.uniform(0, 1)
            a2 = rng.uniform(a1, 1)
            vs = dof_region(CsitQuality(a1, a2)).vertices
            assert vs[0].as_tuple() == (0.0, 0.0)
            n = len(vs)
            area2 = sum(
                vs[i].d1 * vs[(i + 1) % n].d2 - vs[(i + 1) % n].d1 * vs[i].d2
                for i in range(n)
            )
            assert area2 > 0  # counter-clockwise
            for i in range(n):
                ax, ay = vs[(i + 1) % n].d1 - vs[i].d1, vs[(i + 1) % n].d2 - vs[i].d2
                bx, by = vs[(i + 2) % n].d1 - vs[(i + 1) % n].d1, vs[(i + 2) % n].d2 - vs[(i + 1) % n].d2
                assert ax * by - ay * bx >= -1e-12  # convex turns only

    def test_monotone_in_quality(self):
        # relaxing the constraints can only grow the region
        rng = np.random.default_rng(2)
        for _ in range(30):
            a1 = rng.uniform(0, 1)
            a2 = rng.uniform(a1, 1)
            b1 = rng.uniform(a1, min(1.0, a2))
            b2 = rng.uniform(max(a2, b1), 1)
            small = dof_region(CsitQuality(a1, a2))
            big = dof_region(CsitQuality(b1, b2))
            for v in small.vertices:
                assert contains(big, v, tol=1e-9)


class TestCornerPoints:
    def test_case_interior(self):
        pts = {(round(c.d1, 12), round(c.d2, 12)) for c in corner_points(CsitQuality(0.3, 0.5))}
        assert (1.0, 0.3) in pts
        assert (0.5, 1.0) in pts
        assert (round(0.7, 12), round(0.9, 12)) in {(round(a, 12), round(b, 12)) for a, b in pts}

    def test_case_outside(self):
        pts = [c.as_tuple() for c in corner_points(CsitQuality(0.2, 0.8))]
        assert len(pts) == 2
        assert pts[0] == pytest.approx((1.0, 0.2), abs=1e-12)
        assert pts[1] == pytest.approx((0.6, 1.0), abs=1e-12)

    def test_no_csit(self):
        pts = [c.as_tuple() for c in corner_points(CsitQuality(0.0, 0.0))]
        assert pts[0] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert pts[1] == pytest.approx((0.0, 1.0), abs=1e-12)
        assert pts[2] == pytest.approx((2 / 3, 2 / 3), abs=1e-12)

    def test_symmetric_reduction(self):
        for alpha in np.linspace(0.0, 1.0, 11):
            pts = corner_points(CsitQuality(alpha, alpha))
            target = (2.0 + alpha) / 3.0
            assert any(
                abs(c.d1 - target) < 1e-12 and abs(c.d2 - target) < 1e-12 for c in pts
            )

    def test_case_split_continuity(self):
        # at 2*alpha2 - alpha1 = 1 the triple intersection equals ((1+a1)/2, 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a1 = rng.uniform(0, 1)
            a2 = (1 + a1) / 2
            pts = corner_points(CsitQuality(a1, a2))
            third = pts[-1]
            assert abs(third.d1 - (1 + a1) / 2) < 1e-12
            assert abs(third.d2 - 1.0) < 1e-12

    def test_corners_are_vertices(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a1 = rng.uniform(0, 1)
            a2 = rng.uniform(a1, 1)
            region = dof_region(CsitQuality(a1, a2))
            for c in corner_points(region.quality):
                assert any(
                    math.hypot(v.d1 - c.d1, v.d2 - c.d2) < 1e-9 for v in region.vertices
                )


class TestContainsAndBounds:
    def test_contains_vertex(self):
        region = dof_region(CsitQuality(0.3, 0.5))
        assert contains(region, DofPoint(0.7, 0.9), tol=1e-9)

    def test_contains_rejects_outside(self):
        region = dof_region(CsitQuality(0.3, 0.5))
        assert not contains(region, DofPoint(0.8, 0.9), tol=1e-9)  # 2*0.8+0.9 > 2.3

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            contains(dof_region(CsitQuality(0.3, 0.5)), DofPoint(0.0, 0.0), tol=-1e-9)

    def test_origin_always_inside(self):
        for a1, a2 in [(0, 0), (0.2, 0.8), (1, 1)]:
            assert contains(dof_region(CsitQuality(a1, a2)), DofPoint(0.0, 0.0), tol=0.0)

    def test_slack_at_intersection(self):
        s = outer_bound_slack(CsitQuality(0.3, 0.5), DofPoint(0.7, 0.9))
        assert s == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_slack_at_zf_corner(self):
        s = outer_bound_slack(CsitQuality(0.3, 0.5), DofPoint(1.0, 0.3))
        assert s == pytest.approx((0.9, 0.0), abs=1e-12)

    def test_slack_at_origin(self):
        q = CsitQuality(0.25, 0.75)
        assert outer_bound_slack(q, DofPoint(0, 0)) == pytest.approx((2.75, 2.25), abs=1e-12)

    def test_vertex_slacks_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a1 = rng.uniform(0, 1)
            a2 = rng.uniform(a1, 1)
            q = CsitQuality(a1, a2)
            for v in dof_region(q).vertices:
                s1, s2 = outer_bound_slack(q, v)
                assert s1 >= -1e-12 and s2 >= -1e-12


def test_region_as_dict_shape():
    d = region_as_dict(dof_region(CsitQuality(0.3, 0.5)))
    assert set(d) == {"alpha1", "alpha2", "vertices", "corners", "halfspaces"}
    assert [0.7, 0.9] in [[round(a, 6), round(b, 6)] for a, b in d["vertices"]]
    assert len(d["halfspaces"]) == 6
