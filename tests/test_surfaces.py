import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import SurfaceError
from bandtopo.surfaces import SLICE, SPHERE, TUBE, ClosedSurface, LoopPath, loop_clearance

from conftest import (
    reference_loop_clearance,
    reference_parallel_frames,
    reference_quads,
    reference_spherical_area,
)


class TestSphere:
    def test_quad_count_and_poles(self):
        s = bt.sphere_around([0, 0, math.pi / 2], 0.3, 32, 32)
        assert s.n_u == 32 and s.n_v == 32
        # poles are single vertices: unique points = 32*31 + 2
        assert len(s.points) == 32 * 31 + 2
        assert len(list(s.plaquettes())) == 32 * 32

    def test_solid_angle_outward(self):
        s = bt.sphere_around([0.5, -0.2, 0.1], 0.4, 24, 24)
        omega = s.signed_solid_angle([0.5, -0.2, 0.1])
        assert abs(omega - 4 * math.pi) < 1e-6

    def test_reversed_orientation(self):
        s = bt.sphere_around([0, 0, 0], 0.4, 16, 16)
        omega = s.reversed().signed_solid_angle([0, 0, 0])
        assert abs(omega + 4 * math.pi) < 1e-6

    def test_validation_excludes_center(self, weyl2):
        s = bt.sphere_around([0, 0, math.pi / 2], 0.3, 32, 32)
        assert bt.validate(s, weyl2) > 0.1

    def test_box_exit_error(self, four_band):
        with pytest.raises(SurfaceError):
            bt.sphere_around([2.9, 0, 0], 0.5, 16, 16, domain=four_band.domain)

    def test_torus_radius_cap(self):
        with pytest.raises(SurfaceError):
            bt.sphere_around([0, 0, 0], 3.5, 16, 16)

    def test_edges_shared_by_two_quads(self):
        s = bt.sphere_around([0, 0, 0], 0.3, 12, 12)
        counts = s.edge_quad_count()
        assert set(counts.values()) == {2}


class TestTube:
    def test_closed_mesh(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        t = bt.tube_around(loop, 0.15, 32, 32)
        assert len(t.points) == 32 * 32
        counts = t.edge_quad_count()
        assert set(counts.values()) == {2}

    def test_validation_positive(self, nodal_loop2, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        t = bt.tube_around(loop, 0.15, 32, 32)
        assert bt.validate(t, nodal_loop2) > 0.05

    def test_radius_too_large(self, nodal_loop2_locus):
        with pytest.raises(SurfaceError):
            bt.tube_around(nodal_loop2_locus.loops[0], 10.0, 16, 16)

    def test_meridian_extraction(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        t = bt.tube_around(loop, 0.15, 32, 48)
        mer = t.meridian(0)
        assert len(mer) == 48
        # the meridian encircles the nodal line once: winding of the local
        # (h1, h3) field around it is +-1 (checked in invariants tests); here
        # check geometry: all meridian points at tube-radius distance from
        # the loop polyline
        d = np.linalg.norm(
            mer.vertices[:, None, :] - loop.vertices[None, :, :], axis=-1
        ).min(axis=1)
        assert np.max(np.abs(d - 0.15)) < 0.02

    def test_meridian_resampled_equals_fine_tube(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        tube = bt.tube_around(loop, 0.15, 32, 16)
        for iu in (0, 7):
            fine = bt.tube_around(loop, 0.15, 32, 400).meridian(iu).vertices
            assert np.array_equal(tube.meridian(iu, n=400).vertices, fine)
            assert np.array_equal(tube.meridian(iu, n=16).vertices, tube.meridian(iu).vertices)
        # the reversed twin shares the frame
        assert np.array_equal(tube.reversed().meridian(0, n=400).vertices,
                              tube.meridian(0, n=400).vertices)

    def test_slice_meridian_fixed_size(self):
        s = bt.slice_torus("z", 0.5, 12, 10)
        assert len(s.meridian(3)) == len(s.meridian(3, n=10)) == 10
        with pytest.raises(SurfaceError):
            s.meridian(0, n=40)

    def test_outward_orientation(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        t = bt.tube_around(loop, 0.15, 24, 24)
        # plaquette normals point away from the loop core
        iu, iv = 3, 5
        ids = t.plaquette_vertex_ids(iu, iv)
        quad = t.points[ids]
        center = quad.mean(axis=0)
        normal = np.cross(quad[1] - quad[0], quad[3] - quad[0])
        core = loop.vertices[
            np.argmin(np.linalg.norm(loop.vertices - center, axis=1))
        ]
        assert np.dot(normal, center - core) > 0

    def test_gap_decreases_with_radius(self, nodal_loop2, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        gaps = [
            bt.validate(bt.tube_around(loop, r, 24, 24), nodal_loop2)
            for r in (0.20, 0.12, 0.06)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_clearance_accounts_for_other_components(self, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        arc = four_band_locus.open_arcs[0]
        solo = loop_clearance(loop)
        with_arc = loop_clearance(loop, [arc.vertices])
        assert with_arc <= solo
        assert abs(with_arc - 1.0) < 0.05  # circle radius 1 around the axis
        with pytest.raises(SurfaceError):
            bt.tube_around(loop, 0.4, 16, 16, other_components=[arc.vertices])


class TestLoopClearance:
    """``loop_clearance`` equals the pair-by-pair loop reference."""

    @staticmethod
    def loops_and_others(nodal_loop2_locus, four_band_locus, four_band_lattice_locus):
        rng = np.random.default_rng(3)
        wobbly = bt.circle_loop([0.2, 0.1, 0.0], 0.8, [1, 1, 0], 120)
        wobbly.vertices += rng.normal(scale=0.02, size=wobbly.vertices.shape)
        pinched = bt.circle_loop([0, 0, 0], 1.0, [0, 0, 1], 90)
        pinched.vertices[:45, 1] *= 0.05  # half the loop squashed flat
        t = 2 * math.pi * np.arange(160) / 160  # passes over itself at 0.1
        crossing = LoopPath(np.column_stack([np.cos(t), np.sin(2 * t) / 2, 0.05 * np.sin(t)]))
        yield crossing, ()
        yield nodal_loop2_locus.loops[0], ()
        yield wobbly, ()
        yield pinched, ()
        yield pinched, [wobbly, np.zeros((1, 3))]
        for locus in (four_band_locus, four_band_lattice_locus):
            comps = [*locus.loops, *locus.open_arcs]
            for c in locus.loops:
                yield c, [o.vertices for o in comps if o is not c]

    def test_matches_reference(self, nodal_loop2_locus, four_band_locus,
                               four_band_lattice_locus):
        seen = 0
        for loop, others in self.loops_and_others(
                nodal_loop2_locus, four_band_locus, four_band_lattice_locus):
            want = reference_loop_clearance(loop, others)
            assert math.isfinite(want)
            if seen == 0:  # limited by the self-approach chord
                assert abs(want - 0.1) < 1e-3
            assert abs(loop_clearance(loop, others) - want) <= 1e-12 * want
            seen += 1
        assert seen >= 10


class TestParallelFrames:
    """``_parallel_frames`` gives bitwise the per-vertex ``np.cross`` frames."""

    @staticmethod
    def assert_bitwise(center):
        from bandtopo.surfaces import _parallel_frames

        got, ref = _parallel_frames(center), reference_parallel_frames(center)
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))

    def test_lattice_lines_tubes(self, nodal_loop2_locus, four_band_locus,
                                 four_band_lattice_locus):
        from bandtopo.surfaces import _resample_loop

        loops = [*nodal_loop2_locus.loops, *four_band_locus.loops,
                 *four_band_lattice_locus.loops]
        assert len(loops) == 14
        for loop in loops:
            for n_u in (32, 64):
                self.assert_bitwise(_resample_loop(loop.vertices, n_u))

    def test_random_closed_curves(self):
        rng = np.random.default_rng(21)
        for n in (3, 17, 64, 257):
            t = 2 * math.pi * np.arange(n) / n
            modes = rng.normal(size=(2, 3, 3))
            curve = sum(np.outer(np.cos(j * t), modes[0, j - 1])
                        + np.outer(np.sin(j * t), modes[1, j - 1]) for j in (1, 2, 3))
            self.assert_bitwise(curve)


class TestNonFinite:
    """Non-finite radii and sampled gaps raise instead of passing every check."""

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_sphere_radius(self, radius):
        with pytest.raises(SurfaceError, match="finite"):
            bt.sphere_around([0, 0, 0], radius, 8, 8)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_tube_radius(self, nodal_loop2_locus, radius):
        with pytest.raises(SurfaceError, match="finite"):
            bt.tube_around(nodal_loop2_locus.loops[0], radius, 8, 8)

    def test_validate_nan_gap(self, weyl2):
        s = bt.sphere_around([0.5, 0.5, 0.5], 0.3, 8, 8)
        s.points[3] = math.nan
        with pytest.raises(SurfaceError, match="non-finite gap"):
            bt.validate(s, weyl2)
        assert s.min_gap_on_surface is None


class TestSliceTorus:
    def test_valid_slice(self, weyl2):
        s = bt.slice_torus("z", 0.0, 32, 32)
        assert bt.validate(s, weyl2) > 1.0

    def test_slice_through_weyl_point(self, weyl2):
        s = bt.slice_torus("z", math.pi / 2, 32, 32)
        assert bt.validate(s, weyl2) < 0.2

    def test_axis_x_slice(self, weyl2):
        s = bt.slice_torus("x", 1.0, 32, 32)
        assert bt.validate(s, weyl2) > 0.1

    def test_unknown_axis(self):
        with pytest.raises(SurfaceError):
            bt.slice_torus("w", 0.0)

    def test_closed(self):
        s = bt.slice_torus("y", 0.3, 16, 16)
        assert len(s.points) == 16 * 16
        assert set(s.edge_quad_count().values()) == {2}


def reference_unique_grid(grid, identify):
    """Slot-by-slot reference: a vertex per identification class, numbered
    in row-major order of first appearance."""
    index_map = np.zeros(grid.shape[:2], dtype=int)
    points, seen = [], {}
    for iu in range(grid.shape[0]):
        for iv in range(grid.shape[1]):
            key = identify(iu, iv)
            if key not in seen:
                seen[key] = len(points)
                points.append(grid[iu, iv])
            index_map[iu, iv] = seen[key]
    return np.array(points), index_map


def sphere_rule(n_u, n_v):
    def identify(iu, iv):
        if iv == 0:
            return ("N",)
        if iv == n_v:
            return ("S",)
        return (iu % n_u, iv)

    return identify


def torus_rule(n_u, n_v):
    return lambda iu, iv: (iu % n_u, iv % n_v)


@pytest.fixture()
def meshes(nodal_loop2_locus):
    """One mesh of each kind, with small and unequal sizes."""
    return [
        bt.sphere_around([0.1, -0.3, 0.7], 0.4, 7, 5),
        bt.sphere_around([0.0, 0.0, 0.0], 0.2, 3, 3),
        bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 9, 6),
        bt.slice_torus("x", 0.4, 5, 7),
        bt.slice_torus("z", -1.0, 3, 4),
    ]


class TestQuadIndexArray:
    def test_points_and_index_map_match_identify_rules(self, meshes):
        for s in meshes:
            rule = (sphere_rule if s.kind == SPHERE else torus_rule)(s.n_u, s.n_v)
            points, index_map = reference_unique_grid(s.grid, rule)
            assert np.array_equal(s.points, points)
            assert np.array_equal(s.index_map, index_map)
            assert s.index_map.dtype == index_map.dtype

    def test_quads_match_slot_rule_both_orientations(self, meshes):
        for s in meshes:
            for t in (s, s.reversed()):
                quads = t.quad_vertex_ids()
                assert quads.tolist() == reference_quads(t)
                assert [t.plaquette_vertex_ids(iu, iv).tolist()
                        for iu, iv in t.plaquettes()] == reference_quads(t)
        # a reversed twin does not change its original
        assert meshes[0].quad_vertex_ids().tolist() == reference_quads(meshes[0])

    def test_solid_angle_matches_triangle_loop(self, meshes):
        about = [0.1, -0.3, 0.7]
        for s in meshes:
            for t in (s, s.reversed()):
                vecs = t.points - np.asarray(about)
                unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
                expected = reference_spherical_area(t, unit)
                assert abs(t.signed_solid_angle(about) - expected) < 1e-12

    def test_fully_collapsed_quad_rejected(self):
        s = bt.slice_torus("z", 0.0, 6, 6)
        index_map = s.index_map.copy()
        index_map[1, 0] = index_map[0, 0]
        index_map[1, 1] = index_map[0, 1]
        with pytest.raises(SurfaceError, match="fully collapsed"):
            ClosedSurface(SLICE, s.grid, index_map, s.points, "collapsed")

    def test_sphere_pole_triangle_count_checked(self):
        s = bt.sphere_around([0, 0, 0], 0.3, 8, 6)
        # south pole opened into a ring of n_u vertices: only n_u triangles left
        index_map = s.index_map.copy()
        index_map[:, -1] = len(s.points) + np.arange(s.n_u + 1) % s.n_u
        points = np.vstack([s.points, s.grid[:-1, -1]])
        with pytest.raises(SurfaceError, match="pole triangles"):
            ClosedSurface(SPHERE, s.grid, index_map, points, "open-pole")
        t = bt.slice_torus("z", 0.0, 8, 6)
        with pytest.raises(SurfaceError, match="pole triangles"):
            ClosedSurface(SPHERE, t.grid, t.index_map, t.points, "no-poles")

    def test_torus_kinds_reject_degenerate_quads(self):
        s = bt.sphere_around([0, 0, 0], 0.3, 8, 6)
        with pytest.raises(SurfaceError, match="degenerate quads"):
            ClosedSurface(TUBE, s.grid, s.index_map, s.points, "tube-with-poles")


class TestMeshSizes:
    @pytest.mark.parametrize("n_u, n_v", [(0, 0), (2, 8), (8, 2), (-4, 8)])
    def test_below_three_rejected(self, nodal_loop2_locus, n_u, n_v):
        with pytest.raises(SurfaceError, match="at least 3x3"):
            bt.sphere_around([0, 0, 0], 0.3, n_u, n_v)
        with pytest.raises(SurfaceError, match="at least 3x3"):
            bt.tube_around(nodal_loop2_locus.loops[0], 0.15, n_u, n_v)
        with pytest.raises(SurfaceError, match="at least 3x3"):
            bt.slice_torus("z", 0.0, n_u, n_v)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_slice_value_rejected(self, value):
        with pytest.raises(SurfaceError, match="finite"):
            bt.slice_torus("z", value, 8, 8)


class TestLoopPath:
    def test_circle_loop(self):
        c = bt.circle_loop([0, 0, 0], 0.5, [0, 0, 1], 100)
        assert len(c) == 100
        assert np.allclose(np.linalg.norm(c.vertices[:, :2], axis=1), 0.5)
        assert np.allclose(c.vertices[:, 2], 0.0)

    def test_reversed(self):
        c = bt.circle_loop([0, 0, 0], 0.5, [0, 0, 1], 10)
        r = c.reversed()
        assert np.allclose(r.vertices, c.vertices[::-1])
        assert r.orientation == -c.orientation

    def test_surface_export(self, weyl2):
        s = bt.sphere_around([0, 0, 0], 0.3, 8, 8)
        bt.validate(s, weyl2)
        payload = s.to_json()
        assert payload["schema_version"] == 1
        assert payload["kind"] == "sphere"
        assert len(payload["vertices"]) == len(s.points)
        assert payload["min_gap_on_surface"] is not None
