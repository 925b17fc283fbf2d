import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import (
    MeshResolutionError,
    SurfaceError,
    UnsupportedModelError,
)
from bandtopo.invariants import _polar_unitary, frames_at, holonomy, loop_frames
from bandtopo.model import CoefficientSpec, TwoBandField, reduce_torus

from conftest import (
    random_two_band,
    reference_holonomy,
    reference_quads,
    reference_spherical_area,
    reference_w2_general,
)


def validated_sphere(model, center, radius=0.3, n=32):
    s = bt.sphere_around(center, radius, n, n, domain=model.domain)
    bt.validate(s, model)
    return s


def planar_winding(field, loop, axes=(0, 2)):
    """Independent oracle: winding number of (h[a], h[b]) around zero."""
    h = field(np.asarray(loop.vertices, dtype=float))
    z = h[:, axes[0]] + 1j * h[:, axes[1]]
    total = np.sum(np.angle(np.roll(z, -1) / z))
    return int(np.rint(total / (2 * math.pi)))


class TestChernFlux:
    def test_weyl_point_charges(self, weyl2):
        # chirality = sign det dh/dk, diag(1, 1, -sin kz) at the zeros
        c_minus = bt.chern_flux(weyl2, validated_sphere(weyl2, [0, 0, -math.pi / 2]))
        c_plus = bt.chern_flux(weyl2, validated_sphere(weyl2, [0, 0, math.pi / 2]))
        assert c_minus.value == 1
        assert c_plus.value == -1
        assert c_minus.residual < 0.01 and c_plus.residual < 0.01

    def test_gapped_sphere_zero(self, weyl2):
        s = validated_sphere(weyl2, [math.pi, math.pi, math.pi], 0.4)
        assert bt.chern_flux(weyl2, s).value == 0

    def test_slice_equals_degree_oracle(self, weyl2):
        s = bt.slice_torus("z", 0.0, 48, 48)
        bt.validate(s, weyl2)
        flux = bt.chern_flux(weyl2, s)
        deg = bt.degree(weyl2.two_band_field, s)
        assert flux.value == deg.value

    def test_mesh_refinement_invariance(self, weyl2):
        vals = []
        for n in (24, 48):
            s = validated_sphere(weyl2, [0, 0, math.pi / 2], n=n)
            vals.append(bt.chern_flux(weyl2, s).value)
        assert vals[0] == vals[1]

    def test_orientation_reversal_negates(self, weyl2):
        s = validated_sphere(weyl2, [0, 0, math.pi / 2])
        assert bt.chern_flux(weyl2, s.reversed()).value == -bt.chern_flux(weyl2, s).value

    def test_gauge_invariance_random_phases(self, weyl2):
        s = validated_sphere(weyl2, [0, 0, -math.pi / 2])
        frames = frames_at(weyl2, s.points)
        rng = np.random.default_rng(7)
        phases = np.exp(2j * math.pi * rng.random((len(s.points), 1, 1)))
        assert (
            bt.chern_flux(weyl2, s, frames=frames * phases).value
            == bt.chern_flux(weyl2, s, frames=frames).value
        )

    def test_unvalidated_surface_near_nodal_set_rejected(self, weyl2):
        s = bt.sphere_around([0, 0, math.pi / 2 - 0.299], 0.3, 16, 16)
        bt.validate(s, weyl2)
        with pytest.raises(SurfaceError):
            bt.chern_flux(weyl2, s)

    def test_coarse_mesh_rejected(self, weyl2):
        # 3x3 mesh with the Weyl point near the surface: a single plaquette
        # holds most of the flux quantum
        s = bt.sphere_around([0.05, 0.03, math.pi / 2 - 0.24], 0.3, 3, 3)
        bt.validate(s, weyl2)
        with pytest.raises(MeshResolutionError):
            bt.chern_flux(weyl2, s, residual_tol=0.005)


class TestDegree:
    def test_identity_field(self):
        # h = k - k0 around k0: the identity map has degree +1
        k0 = np.array([0.2, -0.1, 0.4])
        comps = []
        for a in range(3):
            n = [0, 0, 0]
            n[a] = 1
            comps.append(
                CoefficientSpec([("poly", tuple(n), 1.0), ("poly", (0, 0, 0), -k0[a])])
            )
        field = TwoBandField(comps, domain=bt.Domain("box", 3.0))
        s = bt.sphere_around(k0, 0.3, 24, 24)
        assert bt.degree(field, s).value == 1

    def test_real_field_degree_zero(self, nodal_loop2):
        # h2 = 0 confines the image to a great circle: degree vanishes
        s = bt.sphere_around([math.pi, 0, math.pi / 2], 0.4, 24, 24)
        assert bt.degree(nodal_loop2.two_band_field, s).value == 0

    def test_matches_chern_at_weyl_point(self, weyl2):
        s = validated_sphere(weyl2, [0, 0, math.pi / 2])
        assert bt.degree(weyl2.two_band_field, s).value == -1
        assert bt.degree(weyl2.two_band_field, s).value == bt.chern_flux(weyl2, s).value

    def test_vanishing_field_rejected(self, weyl2):
        s = bt.sphere_around([0, 0, 0], math.pi / 2, 16, 16)
        # sphere passes through the zeros at (0, 0, +-pi/2)
        with pytest.raises(SurfaceError):
            bt.degree(weyl2.two_band_field, s)

    def test_orientation_reversal_negates(self, weyl2):
        s = validated_sphere(weyl2, [0, 0, -math.pi / 2])
        f = weyl2.two_band_field
        assert bt.degree(f, s.reversed()).value == -bt.degree(f, s).value

    @pytest.mark.parametrize("seed", range(6))
    def test_degree_chern_equivalence_random_models(self, seed):
        model = random_two_band(seed)
        locus = bt.extract_locus(model, resolution=24)
        assert locus.points, "fixture models must have zeros"
        for p in locus.points:
            s = validated_sphere(model, p.position, 0.25, 32)
            flux = bt.chern_flux(model, s)
            deg = bt.degree(model.two_band_field, s)
            assert flux.value == deg.value


def reference_flux(frames, surface):
    """Per-plaquette loop reference for the total Berry flux of a mesh."""
    total = 0.0
    for quad in reference_quads(surface):
        prod = np.eye(frames.shape[-1])
        for a, b in zip(quad, quad[1:] + quad[:1]):
            u, _, vh = np.linalg.svd(np.conj(frames[a]).T @ frames[b])
            prod = prod @ (u @ vh)
        total += float(np.angle(np.linalg.det(prod)))
    return total


class TestQuadLoopReference:
    """``degree`` and ``chern_flux`` equal per-triangle and per-plaquette
    loops over the same mesh, in both orientations."""

    @pytest.fixture()
    def surfaces(self, weyl2):
        # the tube core passes through the Weyl point at (0, 0, pi/2)
        core = bt.circle_loop([0.5, 0, math.pi / 2], 0.5, [0, 1, 0], 200)
        out = [
            bt.sphere_around([0, 0, math.pi / 2], 0.3, 24, 20),
            bt.tube_around(core, 0.15, 48, 16),
            bt.slice_torus("z", 0.0, 24, 20),
        ]
        for s in out:
            bt.validate(s, weyl2)
        return out

    def test_degree_matches_triangle_loop(self, weyl2, surfaces):
        fld = weyl2.two_band_field
        for s in surfaces:
            h = fld(reduce_torus(s.points))
            unit = h / np.linalg.norm(h, axis=-1, keepdims=True)
            for t in (s, s.reversed()):
                raw = reference_spherical_area(t, unit) / (4 * math.pi)
                deg = bt.degree(fld, t)
                assert deg.value == int(np.rint(raw)) != 0
                assert abs(deg.residual - abs(raw - deg.value)) < 1e-12

    def test_chern_flux_matches_plaquette_loop(self, weyl2, surfaces):
        for s in surfaces:
            frames = frames_at(weyl2, s.points)
            for t in (s, s.reversed()):
                raw = -reference_flux(frames, t) / (2 * math.pi)
                flux = bt.chern_flux(weyl2, t, frames=frames)
                assert flux.value == int(np.rint(raw)) == bt.degree(
                    weyl2.two_band_field, t).value
                assert abs(flux.residual - abs(raw - flux.value)) < 1e-12


class TestHolonomy:
    """``holonomy`` equals per-step products of polar overlaps on loops,
    tube and sphere u-cycles (pole rows included) and closed quads, in both
    orientations, and every invariant makes one batched SVD per call."""

    @staticmethod
    def assert_matches_reference(frames, paths):
        batched = holonomy(frames, paths)
        for got, path in zip(batched, paths):
            assert np.max(np.abs(got - reference_holonomy(frames, path))) < 1e-12

    def test_random_unitary_frames_keep_order(self):
        # generic complex rank-2 frames: the links do not commute, so only the
        # left-to-right product order matches the reference
        rng = np.random.default_rng(5)
        m = rng.normal(size=(12, 4, 2)) + 1j * rng.normal(size=(12, 4, 2))
        frames = np.linalg.qr(m)[0]
        paths = rng.integers(0, 12, size=(3, 5, 9))
        paths[0, 0, 3] = paths[0, 0, 2]  # a repeated vertex is a unit step
        self.assert_matches_reference(frames, paths.reshape(-1, 9))
        assert holonomy(frames, paths).shape == (3, 5, 2, 2)

    def test_loop_both_orientations(self, nodal_loop2, nodal_loop2_locus):
        loop = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 16, 200).meridian(0)
        frames = frames_at(nodal_loop2, loop.vertices)
        path = np.arange(201) % 200
        for p in (path, path[::-1]):
            assert np.max(np.abs(holonomy(frames, p) - reference_holonomy(frames, p))) < 1e-12

    @pytest.mark.parametrize("kind", ["tube", "sphere"])
    def test_surface_cycles_and_quads(self, four_band, four_band_locus,
                                      four_band_lattice, kind):
        if kind == "tube":
            loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
            model, surf = four_band, bt.tube_around(loop, 0.25, 24, 16)
        else:
            model = four_band_lattice
            surf = bt.sphere_around([math.pi / 2] * 3, 0.4, 16, 12)
        frames = frames_at(model, surf.points)
        cycles = surf.index_map.T  # one u-cycle per row iv, poles included
        for s in (surf, surf.reversed()):
            self.assert_matches_reference(frames, cycles if s is surf else cycles[:, ::-1])
            quads = s.quad_vertex_ids()
            self.assert_matches_reference(frames, np.column_stack([quads, quads[:, 0]]))
        if kind == "sphere":  # a pole row stays on one vertex: exactly 1
            poles = holonomy(frames, cycles[[0, -1]])
            assert np.array_equal(poles, np.broadcast_to(np.eye(2), poles.shape))

    @pytest.fixture()
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_one_svd_call_per_invariant(self, weyl2, nodal_loop2, nodal_loop2_locus,
                                        four_band, four_band_locus, svd_calls):
        sphere = validated_sphere(weyl2, [0, 0, math.pi / 2], 0.3, 24)
        mer = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 16, 200).meridian(0)
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32)
        bt.validate(tube, four_band)
        del svd_calls[:]
        # one occupied band: the rank-1 links take no SVD at all
        bt.chern_flux(weyl2, sphere)
        bt.berry_phase(nodal_loop2, mer)
        bt.w1_along(nodal_loop2, mer)
        assert svd_calls == []
        bt.w2_on(four_band, tube)
        assert len(svd_calls) <= 3

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_rank_one_polar_matches_svd(self, dtype):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(7, 5, 1, 1))
        if dtype is complex:
            m = m + 1j * rng.normal(size=m.shape)
        u, _, vh = np.linalg.svd(m)
        got = _polar_unitary(m)
        assert got.shape == m.shape and got.dtype == m.dtype
        assert np.max(np.abs(got - u @ vh)) <= 1e-15

    def test_rank_one_polar_near_singular(self):
        z = np.array([[[0.6 + 0.8j]], [[3e-9 - 4e-9j]]])
        with pytest.raises(MeshResolutionError) as exc:
            _polar_unitary(z)
        assert exc.value.residual == abs(z[1, 0, 0])


class TestBerryPhase:
    def test_meridian_pi_matches_winding_oracle(self, nodal_loop2, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        tube = bt.tube_around(loop, 0.15, 32, 400)
        mer = tube.meridian(0)
        w = planar_winding(nodal_loop2.two_band_field, mer)
        assert abs(w) == 1
        res = bt.berry_phase(nodal_loop2, mer)
        assert abs(res.phase - math.pi) < 1e-3
        assert res.quantized == math.pi
        assert res.quantization_residual < 1e-3

    def test_contractible_gapped_loop_zero(self, nodal_loop2):
        loop = bt.circle_loop([0, 0, 2.0], 0.3, [0, 0, 1], 400)
        res = bt.berry_phase(nodal_loop2, loop)
        assert res.quantized == 0.0
        assert res.quantization_residual < 1e-3

    def test_four_band_meridian_pi(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 400)
        res = bt.berry_phase(four_band, tube.meridian(0))
        assert abs(res.phase - math.pi) < 1e-3

    def test_orientation_odd(self, nodal_loop2, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        mer = bt.tube_around(loop, 0.15, 32, 200).meridian(0)
        a = bt.berry_phase(nodal_loop2, mer).phase
        b = bt.berry_phase(nodal_loop2, mer.reversed()).phase
        assert abs(((a + b) % (2 * math.pi))) < 1e-6 or abs(a - b) < 1e-6

    def test_gap_collapse_error(self, nodal_loop2):
        # circle in the z = 0 plane crosses the nodal curve itself
        loop = bt.circle_loop([math.pi / 2, 0, 0], 0.2, [0, 0, 1], 100)
        with pytest.raises(SurfaceError):
            bt.berry_phase(nodal_loop2, loop)

    def test_nan_loop_error(self, nodal_loop2):
        loop = bt.circle_loop([0, 0, 2.0], 0.3, [0, 0, 1], 100)
        loop.vertices[7, 1] = math.nan
        with pytest.raises(SurfaceError, match="non-finite gap"):
            bt.berry_phase(nodal_loop2, loop)

    def test_nan_frames_error(self, nodal_loop2):
        loop = bt.circle_loop([0, 0, 2.0], 0.3, [0, 0, 1], 100)
        frames = loop_frames(nodal_loop2, loop)
        frames[5] = math.nan
        with pytest.raises(MeshResolutionError, match="nearly singular"):
            bt.berry_phase(nodal_loop2, loop, frames=frames)


class TestW1:
    def test_meridian_one(self, nodal_loop2, nodal_loop2_locus):
        mer = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 32, 200).meridian(0)
        assert bt.w1_along(nodal_loop2, mer) == 1

    def test_contractible_zero(self, nodal_loop2):
        loop = bt.circle_loop([0, 0, 2.0], 0.3, [0, 0, 1], 200)
        assert bt.w1_along(nodal_loop2, loop) == 0

    def test_double_traversal_zero(self, nodal_loop2, nodal_loop2_locus):
        mer = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 32, 200).meridian(0)
        doubled = bt.LoopPath(np.vstack([mer.vertices, mer.vertices]))
        assert bt.w1_along(nodal_loop2, doubled) == 0

    def test_matches_berry_parity_random_loops(self, nodal_loop2):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            center = rng.uniform(-math.pi, math.pi, 3)
            radius = rng.uniform(0.2, 0.6)
            normal = rng.normal(size=3)
            loop = bt.circle_loop(center, radius, normal, 200)
            try:
                phase = bt.berry_phase(nodal_loop2, loop)
                w1 = bt.w1_along(nodal_loop2, loop)
            except SurfaceError:
                continue
            assert w1 == int(round(phase.phase / math.pi)) % 2
            checked += 1

    def test_complex_model_unsupported(self, weyl2):
        loop = bt.circle_loop([0, 0, 0], 0.3, [0, 0, 1], 50)
        with pytest.raises(UnsupportedModelError):
            bt.w1_along(weyl2, loop)


class TestW2:
    def test_four_band_tube(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        arc = four_band_locus.open_arcs[0]
        tube = bt.tube_around(loop, 0.25, 64, 64, other_components=[arc.vertices])
        bt.validate(tube, four_band)
        res = bt.w2_on(four_band, tube)
        assert res.value == 1
        assert res.value == res.crossing_count % 2
        assert res.w1_cycles == (0, 1)

    def test_mesh_refinement_stability(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        vals = []
        for n in (64, 128):
            tube = bt.tube_around(loop, 0.25, n, n)
            bt.validate(tube, four_band)
            vals.append(bt.w2_on(four_band, tube).value)
        assert vals == [1, 1]

    def test_two_band_unsupported(self, nodal_loop2, nodal_loop2_locus):
        tube = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 32, 32)
        bt.validate(tube, nodal_loop2)
        with pytest.raises(UnsupportedModelError):
            bt.w2_on(nodal_loop2, tube)

    def test_complex_model_unsupported(self, weyl2):
        s = validated_sphere(weyl2, [math.pi, math.pi, math.pi], 0.4)
        with pytest.raises(UnsupportedModelError):
            bt.w2_on(weyl2, s)

    def test_gapped_sphere_zero(self, four_band_lattice):
        s = bt.sphere_around([math.pi / 2, math.pi / 2, math.pi / 2], 0.4, 48, 48)
        bt.validate(s, four_band_lattice)
        res = bt.w2_on(four_band_lattice, s)
        assert res.value == 0
        assert res.w1_cycles == (0, 0)

    def test_orientation_reversal_preserves(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 48, 48)
        bt.validate(tube, four_band)
        assert bt.w2_on(four_band, tube.reversed()).value == bt.w2_on(four_band, tube).value


    @pytest.mark.parametrize("reverse", [False, True])
    def test_general_path_matches_reference(self, four_band, four_band_locus, reverse):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32,
                              other_components=[four_band_locus.open_arcs[0].vertices])
        bt.validate(tube, four_band)
        if reverse:
            tube = tube.reversed()
        res = bt.w2_on(four_band, tube, occupied_count=3, keep_spectrum=True)
        count, spectrum = reference_w2_general(tube, frames_at(four_band, tube.points, 3))
        assert res.crossing_count == count
        assert res.spectrum.dtype == spectrum.dtype
        assert res.spectrum.tobytes() == spectrum.tobytes()


class TestChernScan:
    def test_weyl_scan_and_jumps(self, weyl2):
        entries = bt.chern_scan(weyl2, "z", [-2.0, 0.0, 2.0], n_u=48, n_v=48)
        values = [e.chern.value for e in entries]
        assert values == [0, 1, 0]
        # jump across each Weyl point equals its chirality
        assert values[1] - values[0] == 1  # passes (0, 0, -pi/2), charge +1
        assert values[2] - values[1] == -1  # passes (0, 0, +pi/2), charge -1

    def test_gapped_model_slices_equal(self):
        from conftest import gapped_model

        entries = bt.chern_scan(gapped_model(), "z", [-2.0, 0.0, 1.0], n_u=16, n_v=16)
        vals = {e.chern.value for e in entries}
        assert vals == {0}

    def test_slice_through_w_marked(self, weyl2):
        entries = bt.chern_scan(weyl2, "z", [math.pi / 2], n_u=24, n_v=24)
        assert entries[0].skipped
        assert entries[0].chern is None
        assert "gap" in entries[0].reason

    def test_continuum_model_rejected(self, four_band):
        with pytest.raises(UnsupportedModelError):
            bt.chern_scan(four_band, "z", [0.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, weyl2, value):
        with pytest.raises(SurfaceError, match="finite"):
            bt.chern_scan(weyl2, "z", [0.0, value], n_u=8, n_v=8)


class TestRecords:
    def test_chirality_record(self, weyl2):
        s = validated_sphere(weyl2, [0, 0, math.pi / 2])
        rec = bt.chern_flux(weyl2, s).to_record()
        assert set(rec) == {"value", "surface_id", "method", "residual", "mesh"}
        assert rec["method"] == "berry-flux"

    def test_w2_record_with_spectrum(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32)
        bt.validate(tube, four_band)
        res = bt.w2_on(four_band, tube, keep_spectrum=True)
        rec = res.to_record(include_spectrum=True)
        assert len(rec["spectrum"]) == res.mesh[1] + 1
