import math
import re
import warnings

import numpy as np
import pytest

import bandtopo as bt
from bandtopo import invariants
from bandtopo.exceptions import SurfaceError
from bandtopo.invariants import SURFACE_GAP_FLOOR, frames_at, loop_frames
from bandtopo.model import BlochModel, reduce_torus
from bandtopo.mvcheck import DEFAULT_SPHERE_RADIUS, DEFAULT_TUBE_RADIUS
from bandtopo.surfaces import (
    SLICE,
    SPHERE,
    TUBE,
    ClosedSurface,
    LoopPath,
    _solid_angles,
    loop_clearance,
    meridian_ring,
)

from conftest import (
    random_two_band,
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
        assert s.quad_vertex_ids().shape == (32 * 32, 4)

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
        assert bt.validate(s, weyl2)[0] > 0.1

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
        assert bt.validate(t, nodal_loop2)[0] > 0.05

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

    def test_meridian_ring_equals_tube_meridian(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        fine = bt.tube_around(loop, 0.15, 32, 400).meridian(0)
        ring = meridian_ring(loop, 0.15, 32, 16, n=400)
        assert ring.vertices.tobytes() == fine.vertices.tobytes()
        # at n = n_v it is the tube's own meridian, label included
        tube = bt.tube_around(loop, 0.15, 32, 16, surface_id="tube(L0)")
        ring = meridian_ring(loop, 0.15, 32, 16, surface_id="tube(L0)")
        assert ring.vertices.tobytes() == tube.meridian(0).vertices.tobytes()
        assert ring.label == tube.meridian(0).label == "tube(L0):meridian(u=0)"

    def test_meridian_ring_checks_as_the_tube(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        for args in ((10.0, 16, 16), (0.15, 2, 64), (0.15, 64, 2), (0.0, 16, 16)):
            with pytest.raises(SurfaceError) as tube_err:
                bt.tube_around(loop, *args)
            with pytest.raises(SurfaceError) as ring_err:
                meridian_ring(loop, *args, n=400)
            assert str(ring_err.value) == str(tube_err.value)

    def test_slice_meridian_fixed_size(self):
        s = bt.slice_torus("z", 0.5, 12, 10)
        mer = s.meridian(3)
        assert len(mer) == 10
        assert np.array_equal(mer.vertices, s.grid[3, :10])
        with pytest.raises(SurfaceError, match="no closed meridian"):
            bt.sphere_around([0, 0, 0], 0.3, 8, 8).meridian(0)

    def test_outward_orientation(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        t = bt.tube_around(loop, 0.15, 24, 24)
        # plaquette normals point away from the loop core
        iu, iv = 3, 5
        ids = t.quad_vertex_ids()[iu * t.n_v + iv]
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
            bt.validate(bt.tube_around(loop, r, 24, 24), nodal_loop2)[0]
            for r in (0.20, 0.12, 0.06)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_clearance_accounts_for_other_components(self, four_band, four_band_locus):
        # the loop alone admits the radius; the ledger checks the arc 1.0 away
        # (a circle of radius 1 around the axis)
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        assert loop_clearance(loop) > 1.5
        bt.tube_around(loop, 0.4, 16, 16)
        with pytest.raises(SurfaceError, match="from the nearest other component"):
            bt.assemble_ledger(four_band, four_band_locus, mesh=(16, 16), tube_radius=0.4)


class TestLoopClearance:
    """``loop_clearance`` equals the pair-by-pair loop reference."""

    @staticmethod
    def loops(nodal_loop2_locus, four_band_locus, four_band_lattice_locus):
        rng = np.random.default_rng(3)
        wobbly = bt.circle_loop([0.2, 0.1, 0.0], 0.8, [1, 1, 0], 120)
        wobbly.vertices += rng.normal(scale=0.02, size=wobbly.vertices.shape)
        pinched = bt.circle_loop([0, 0, 0], 1.0, [0, 0, 1], 90)
        pinched.vertices[:45, 1] *= 0.05  # half the loop squashed flat
        t = 2 * math.pi * np.arange(160) / 160  # passes over itself at 0.1
        crossing = LoopPath(np.column_stack([np.cos(t), np.sin(2 * t) / 2, 0.05 * np.sin(t)]))
        yield from (crossing, nodal_loop2_locus.loops[0], wobbly, pinched)
        yield from four_band_locus.loops
        yield from four_band_lattice_locus.loops

    def test_matches_reference(self, nodal_loop2_locus, four_band_locus,
                               four_band_lattice_locus):
        seen = 0
        for loop in self.loops(nodal_loop2_locus, four_band_locus, four_band_lattice_locus):
            want = reference_loop_clearance(loop)
            if seen == 0:  # limited by the self-approach chord
                assert abs(want - 0.1) < 1e-3
            got = loop_clearance(loop)
            assert abs(got - want) <= 1e-12 * want
            seen += 1
        assert seen >= 10

    def test_winding_line_meets_its_images(self, four_band_lattice_locus):
        # a straight line has neither a close chord nor curvature: its
        # clearance is the 2 pi to its own images across the zone
        lines = [lp for lp in four_band_lattice_locus.loops if lp.winding != (0, 0, 0)]
        assert len(lines) == 4
        for line in lines:
            assert abs(loop_clearance(line) - 2 * math.pi) < 1e-9
        with pytest.raises(SurfaceError, match="loop clearance is 6.28319"):
            bt.tube_around(lines[0], 3.5, 16, 16)
        bt.tube_around(lines[0], 2.0, 16, 16)


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

    def test_validate_nan_gap_keeps_no_frames(self, weyl2):
        s = bt.sphere_around([0.5, 0.5, 0.5], 0.3, 8, 8)
        s.points[3] = math.nan
        keys = set(vars(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SurfaceError, match="non-finite gap"):
                bt.validate(s, weyl2)
        assert set(vars(s)) == keys


def unique_grid_by_sorting(grid, poles=False):
    """The np.unique form of ``_unique_grid``: rank the first grid slot of
    each identification class."""
    n_u, n_v = grid.shape[0] - 1, grid.shape[1] - 1
    iu, iv = np.indices(grid.shape[:2])
    first_u, first_v = iu % n_u, iv % n_v
    if poles:
        first_u[:, [0, n_v]], first_v = 0, iv
    first = np.ravel_multi_index((first_u, first_v), iu.shape)
    slots, index_map = np.unique(first, return_inverse=True)
    return grid.reshape(-1, 3)[slots], index_map.reshape(iu.shape)


def solid_angles_by_cross(a, b, c):
    """The np.cross / np.sum form of ``_solid_angles``."""
    num = np.sum(a * np.cross(b, c), axis=-1)
    den = 1.0 + np.sum(a * b, axis=-1) + np.sum(b * c, axis=-1) + np.sum(c * a, axis=-1)
    return 2.0 * np.arctan2(num, den)


class TestBitwiseGeometryKernels:
    @pytest.mark.parametrize("n_u, n_v", [(64, 64), (5, 7), (3, 3)])
    def test_unique_grid_matches_sorting(self, nodal_loop2_locus, n_u, n_v):
        for s in (
            bt.sphere_around([0.1, -0.3, 0.7], 0.4, n_u, n_v),
            bt.tube_around(nodal_loop2_locus.loops[0], 0.15, n_u, n_v),
            bt.slice_torus("y", -0.4, n_u, n_v),
        ):
            points, index_map = unique_grid_by_sorting(s.grid, poles=s.kind == SPHERE)
            assert s.points.dtype == points.dtype and s.points.shape == points.shape
            assert s.points.tobytes() == points.tobytes()
            assert s.index_map.dtype == index_map.dtype
            assert np.array_equal(s.index_map, index_map)
            # the points own their memory: editing one leaves the grid alone
            assert not np.shares_memory(s.points, s.grid)

    def test_solid_angles_match_cross_form(self, nodal_loop2_locus):
        rng = np.random.default_rng(3)
        unit = rng.normal(size=(3, 4000, 3))
        unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
        a, b, c = unit
        assert _solid_angles(a, b, c).tobytes() == solid_angles_by_cross(a, b, c).tobytes()
        s = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 24, 16)
        vecs = s.points - np.array([0.3, 0.1, -0.2])
        unit = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        a, b, c, d = unit[s.quad_vertex_ids().T]
        for tri in ((a, b, c), (a, c, d)):
            assert _solid_angles(*tri).tobytes() == solid_angles_by_cross(*tri).tobytes()


class TestValidateFrames:
    """``validate`` returns the gauge-fixed vertex frames of its eigensolve."""

    @pytest.fixture()
    def cases(self, weyl2, four_band, four_band_locus, four_band_lattice):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        return [
            (weyl2, bt.sphere_around([0, 0, math.pi / 2], 0.3, 16, 12)),
            (weyl2, bt.slice_torus("z", 0.3, 12, 10)),
            (four_band, bt.tube_around(loop, 0.25, 16, 16)),
            (four_band_lattice, bt.sphere_around([math.pi / 2] * 3, 0.4, 16, 12)),
        ]

    def test_frames_equal_frames_at(self, cases):
        for model, s in cases:
            _, frames = bt.validate(s, model)
            assert frames.shape == (len(s.points), model.band_count, model.occupied_count)
            ref = frames_at(model, s.points)
            assert frames.dtype == ref.dtype and frames.tobytes() == ref.tobytes()

    def test_gap_equals_sampled_spectrum(self, cases):
        for model, s in cases:
            sample = np.vstack([s.points, s.quad_centers().reshape(-1, 3)])
            if model.domain.is_torus:
                sample = reduce_torus(sample)
            expected = float(np.min(model.direct_gap(sample)))
            got, _ = bt.validate(s, model)
            if model.band_count == 2:  # the same closed form either way
                assert got == expected
            else:  # eigh and eigvalsh may round the last bit apart
                assert abs(got - expected) < 1e-12


class TestSliceTorus:
    def test_valid_slice(self, weyl2):
        s = bt.slice_torus("z", 0.0, 32, 32)
        assert bt.validate(s, weyl2)[0] > 1.0

    def test_slice_through_weyl_point(self, weyl2):
        s = bt.slice_torus("z", math.pi / 2, 32, 32)
        assert bt.validate(s, weyl2)[0] < 0.2

    def test_axis_x_slice(self, weyl2):
        s = bt.slice_torus("x", 1.0, 32, 32)
        assert bt.validate(s, weyl2)[0] > 0.1

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

    @pytest.mark.parametrize("radius, normal, n, match", [
        (math.nan, [0, 0, 1], 10, "radius must be finite"),
        (math.inf, [0, 0, 1], 10, "radius must be finite"),
        (-0.5, [0, 0, 1], 10, "radius must be positive"),
        (0.0, [0, 0, 1], 10, "radius must be positive"),
        (0.5, [0, 0, 0], 10, "normal must be finite and nonzero"),
        (0.5, [0, math.nan, 1], 10, "normal must be finite and nonzero"),
        (0.5, [0, 0, 1], 2, "at least 3 vertices, got 2"),
        (0.5, [0, 0, 1], 0, "at least 3 vertices, got 0"),
    ])
    def test_circle_loop_rejects_bad_input(self, radius, normal, n, match):
        with pytest.raises(SurfaceError, match=match):
            bt.circle_loop([0, 0, 0], radius, normal, n)

    def test_reversed(self):
        c = bt.circle_loop([0, 0, 0], 0.5, [0, 0, 1], 10)
        r = c.reversed()
        assert np.allclose(r.vertices, c.vertices[::-1])
        assert r.orientation == -c.orientation


def count_between_solves(monkeypatch):
    """Record the number of k-points of every ``direct_gap`` call: the
    points between the vertices that a certificate left open."""
    solved = []
    direct_gap = BlochModel.direct_gap

    def counted(self, k, gap_index=None):
        solved.append(np.asarray(k).size // 3)
        return direct_gap(self, k, gap_index)

    monkeypatch.setattr(BlochModel, "direct_gap", counted)
    return solved


class TestGapCertificate:
    """With a floor, ``validate`` and the ring sampler solve only the points
    between vertices that the gap-drift bound cannot place above it, and
    decide against the floor exactly as if every point were solved."""

    @pytest.fixture()
    def cases(self, weyl2, four_band, four_band_lattice, four_band_lattice_locus,
              nodal_loop2, nodal_loop2_locus):
        on_loop = four_band_lattice_locus.loops[0].vertices[5]
        out = [
            (weyl2, bt.sphere_around([0, 0, math.pi / 2], 0.3, 16, 12)),
            (weyl2, bt.sphere_around([0.05, 0, math.pi / 2 + 0.15], 0.16, 24, 16)),
            (four_band, bt.sphere_around([0, 1, 0.1], 0.2, 24, 16, domain=four_band.domain)),
            (four_band_lattice, bt.sphere_around(on_loop + [0.05, 0, 0], 0.15, 24, 16)),
            (weyl2, bt.slice_torus("z", math.pi / 2, 32, 32)),
            (random_two_band(3), bt.slice_torus("z", 0.0, 32, 24)),
            (random_two_band(3), bt.slice_torus("x", math.pi, 24, 32)),
        ]
        for model, locus in ((four_band_lattice, four_band_lattice_locus),
                             (nodal_loop2, nodal_loop2_locus)):
            for loop in locus.loops[:2]:
                clearance = loop_clearance(loop)
                out += [(model, bt.tube_around(loop, f * clearance, 32, 16))
                        for f in (0.02, 0.1, 0.3)]
        return out

    @staticmethod
    def floors(exact, gaps, spectrum):
        ulps = 4 * np.spacing(np.max(np.abs(spectrum)))  # the eigensolver's rounding
        return [exact - ulps, exact, exact + ulps, *np.quantile(gaps, [0.1, 0.5])]

    def test_decides_as_brute_force(self, cases):
        for model, s in cases:
            exact, frames = bt.validate(s, model)
            sample = np.vstack([s.points, s.quad_centers().reshape(-1, 3)])
            if model.domain.is_torus:
                sample = reduce_torus(sample)
            spectrum = model.spectrum(sample)
            for floor in self.floors(exact, model.gap_of(spectrum), spectrum):
                got, got_frames = bt.validate(s, model, floor)
                assert (got <= floor) == (exact <= floor), (s.surface_id, floor)
                assert got >= exact
                if exact <= floor:
                    assert got == exact, (s.surface_id, floor)
                assert got_frames.tobytes() == frames.tobytes()

    def test_ring_decides_as_brute_force(self, monkeypatch, nodal_loop2):
        for centre, radius in (([math.pi / 3, math.pi / 3, 0.1], 0.15), ([0, 0, 2.0], 0.3)):
            loop = bt.circle_loop(centre, radius, [0, 1, 0], 200)
            pts = loop.vertices
            mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
            spectrum = nodal_loop2.spectrum(reduce_torus(np.vstack([pts, mids])))
            gaps = nodal_loop2.gap_of(spectrum)
            exact = float(np.min(gaps))
            for floor in self.floors(exact, gaps, spectrum):
                monkeypatch.setattr(invariants, "LOOP_MIN_GAP", floor)
                if exact <= floor:
                    text = f"gap collapses to {exact:.3e} along loop {loop.label}"
                    with pytest.raises(SurfaceError, match=re.escape(text)):
                        loop_frames(nodal_loop2, loop)
                else:
                    assert loop_frames(nodal_loop2, loop).shape[0] == len(pts)

    def test_most_centres_certified(self, monkeypatch, cases):
        solved = count_between_solves(monkeypatch)
        for model, s in cases:
            bt.validate(s, model, SURFACE_GAP_FLOOR)
        assert 0 < sum(solved) < 0.5 * sum(s.n_u * s.n_v for _, s in cases)

    @pytest.mark.parametrize("where", ["points", "grid"])
    def test_nan_keeps_its_text(self, weyl2, where):
        for model in (weyl2, random_two_band(0)):
            s = bt.sphere_around([0.5, 0.5, 0.5], 0.3, 8, 8)
            getattr(s, where)[3] = math.nan
            texts = []
            for floor in (None, SURFACE_GAP_FLOOR):
                with pytest.raises(SurfaceError) as err:
                    bt.validate(s, model, floor)
                texts.append(str(err.value))
            assert texts == [f"surface {s.surface_id} has a non-finite gap nan"] * 2

    def test_no_centre_solved_on_ledger_surfaces(self, monkeypatch, four_band_lattice,
                                                 four_band_lattice_locus, weyl2, weyl2_locus):
        surfaces = [(four_band_lattice,
                     bt.tube_around(loop, min(DEFAULT_TUBE_RADIUS, loop_clearance(loop) / 3.5),
                                    64, 64))
                    for loop in four_band_lattice_locus.loops
                    if loop.gap_index == four_band_lattice.occupied_count]
        surfaces += [(weyl2, bt.sphere_around(p.position, DEFAULT_SPHERE_RADIUS, 64, 64))
                     for p in weyl2_locus.points]
        assert len(surfaces) > 2
        solved = count_between_solves(monkeypatch)
        for model, s in surfaces:
            assert bt.validate(s, model, SURFACE_GAP_FLOOR)[0] > SURFACE_GAP_FLOOR
        assert solved == []
