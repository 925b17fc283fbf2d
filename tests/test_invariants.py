import copy
import dataclasses
import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import (
    MeshResolutionError,
    SurfaceError,
    UnsupportedModelError,
)
from bandtopo.invariants import (
    _polar_unitary,
    _rank_two,
    _flux_charge,
    _total_plaquette_flux,
    _w2_rank2,
    frames_at,
    holonomy,
    loop_frames,
)
from bandtopo.model import BlochModel, CoefficientSpec, TwoBandField, reduce_torus

from conftest import (
    random_two_band,
    reference_holonomy,
    reference_quads,
    reference_spherical_area,
    reference_w2_track,
)


def sphere_in(model, center, radius=0.3, n=32):
    return bt.sphere_around(center, radius, n, n, domain=model.domain)


def planar_winding(field, loop, axes=(0, 2)):
    """Independent oracle: winding number of (h[a], h[b]) around zero."""
    h = field(np.asarray(loop.vertices, dtype=float))
    z = h[:, axes[0]] + 1j * h[:, axes[1]]
    total = np.sum(np.angle(np.roll(z, -1) / z))
    return int(np.rint(total / (2 * math.pi)))


class TestChernFlux:
    def test_weyl_point_charges(self, weyl2):
        # chirality = sign det dh/dk, diag(1, 1, -sin kz) at the zeros
        c_minus = bt.chern_flux(weyl2, sphere_in(weyl2, [0, 0, -math.pi / 2]))
        c_plus = bt.chern_flux(weyl2, sphere_in(weyl2, [0, 0, math.pi / 2]))
        assert c_minus.value == 1
        assert c_plus.value == -1
        assert c_minus.residual < 0.01 and c_plus.residual < 0.01

    def test_gapped_sphere_zero(self, weyl2):
        s = sphere_in(weyl2, [math.pi, math.pi, math.pi], 0.4)
        assert bt.chern_flux(weyl2, s).value == 0

    def test_slice_equals_degree_oracle(self, weyl2):
        s = bt.slice_torus("z", 0.0, 48, 48)
        flux = bt.chern_flux(weyl2, s)
        deg = bt.degree(weyl2.two_band_field, s)
        assert flux.value == deg.value

    def test_mesh_refinement_invariance(self, weyl2):
        vals = []
        for n in (24, 48):
            s = sphere_in(weyl2, [0, 0, math.pi / 2], n=n)
            vals.append(bt.chern_flux(weyl2, s).value)
        assert vals[0] == vals[1]

    def test_orientation_reversal_negates(self, weyl2):
        s = sphere_in(weyl2, [0, 0, math.pi / 2])
        assert bt.chern_flux(weyl2, s.reversed()).value == -bt.chern_flux(weyl2, s).value

    def test_gauge_invariance_random_phases(self, weyl2):
        s = sphere_in(weyl2, [0, 0, -math.pi / 2])
        frames = frames_at(weyl2, s.points)
        rng = np.random.default_rng(7)
        phases = np.exp(2j * math.pi * rng.random((len(s.points), 1, 1)))
        assert _flux_charge(s, frames * phases).value == bt.chern_flux(weyl2, s).value == 1

    def test_unvalidated_surface_near_nodal_set_rejected(self, weyl2):
        s = bt.sphere_around([0, 0, math.pi / 2 - 0.299], 0.3, 16, 16)
        with pytest.raises(SurfaceError):
            bt.chern_flux(weyl2, s)

    def test_coarse_mesh_rejected(self, weyl2):
        # 3x3 mesh with the Weyl point near the surface: a single plaquette
        # holds most of the flux quantum, at the default tolerance
        s = bt.sphere_around([-0.07, -0.103, math.pi / 2 + 0.107], 0.3, 3, 3)
        with pytest.raises(MeshResolutionError, match=r"plaquette flux 2\.\d+ close to the branch cut"):
            bt.chern_flux(weyl2, s)


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
        s = sphere_in(weyl2, [0, 0, math.pi / 2])
        assert bt.degree(weyl2.two_band_field, s).value == -1
        assert bt.degree(weyl2.two_band_field, s).value == bt.chern_flux(weyl2, s).value

    def test_vanishing_field_rejected(self, weyl2):
        s = bt.sphere_around([0, 0, 0], math.pi / 2, 16, 16)
        # sphere passes through the zeros at (0, 0, +-pi/2)
        with pytest.raises(SurfaceError):
            bt.degree(weyl2.two_band_field, s)

    def test_orientation_reversal_negates(self, weyl2):
        s = sphere_in(weyl2, [0, 0, -math.pi / 2])
        f = weyl2.two_band_field
        assert bt.degree(f, s.reversed()).value == -bt.degree(f, s).value

    @pytest.mark.parametrize("seed", range(6))
    def test_degree_chern_equivalence_random_models(self, seed):
        model = random_two_band(seed)
        locus = bt.extract_locus(model, resolution=24)
        assert locus.points, "fixture models must have zeros"
        for p in locus.points:
            s = sphere_in(model, p.position, 0.25, 32)
            flux = bt.chern_flux(model, s)
            deg = bt.degree(model.two_band_field, s)
            assert flux.value == deg.value


def reference_flux(frames, surface):
    """Per-plaquette loop reference for the Berry flux of a mesh: arg det of
    the product of polar links around each quad.  Returns the total and the
    largest |flux|."""
    angles = [
        float(np.angle(np.linalg.det(reference_holonomy(frames, quad + quad[:1]))))
        for quad in reference_quads(surface)
    ]
    return sum(angles), max(abs(a) for a in angles)


def smooth_rank_two_frames(points, seed):
    """Complex rank-2 frames in C^4 that vary smoothly over the points, in a
    random per-point U(2) gauge: their links do not commute."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    harmonics = rng.integers(-1, 2, size=(3, 3))
    m = cplx(4, 2) + sum(
        0.4 * np.cos(points @ n)[:, None, None] * cplx(4, 2) for n in harmonics
    )
    gauge = np.linalg.qr(cplx(len(points), 2, 2))[0]
    return np.linalg.qr(m)[0] @ gauge


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
                raw = -reference_flux(frames, t)[0] / (2 * math.pi)
                flux = bt.chern_flux(weyl2, t)
                assert flux.value == int(np.rint(raw)) == bt.degree(
                    weyl2.two_band_field, t).value
                assert abs(flux.residual - abs(raw - flux.value)) < 1e-12


class TestEdgePhaseFlux:
    """One phase per mesh edge gives the per-quad products of polar links:
    the same total and peak plaquette flux, in both orientations."""

    @staticmethod
    def assert_matches_reference(frames, surface):
        for t in (surface, surface.reversed()):
            total, peak = _total_plaquette_flux(frames, t)
            ref_total, ref_peak = reference_flux(frames, t)
            assert abs(total - ref_total) < 1e-12
            assert abs(peak - ref_peak) < 1e-12

    @staticmethod
    def surfaces(center, radius, value):
        return [bt.sphere_around(center, radius, 16, 12), bt.slice_torus("z", value, 16, 16)]

    def test_weyl_lattice(self, weyl2):
        surfs = self.surfaces([0, 0, math.pi / 2], 0.3, 0.0)
        for s in surfs:
            self.assert_matches_reference(frames_at(weyl2, s.points), s)
        # both enclose one unit of flux
        assert [round(-reference_flux(frames_at(weyl2, s.points), s)[0] / (2 * math.pi))
                for s in surfs] == [-1, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_two_band(self, seed):
        model = random_two_band(seed)
        for s in self.surfaces([0, 0, 0], 0.6, math.pi / 2):
            self.assert_matches_reference(frames_at(model, s.points), s)

    def test_rank_two_lattice(self, four_band_lattice):
        for s in self.surfaces([math.pi / 2] * 3, 0.4, 1.0):
            frames = frames_at(four_band_lattice, s.points)
            assert frames.shape[-1] == 2
            self.assert_matches_reference(frames, s)

    def test_rank_two_complex_frames(self):
        for i, s in enumerate(self.surfaces([0.2, -0.1, 0.3], 0.5, 0.7)):
            self.assert_matches_reference(smooth_rank_two_frames(s.points, i), s)

    def test_nan_frame_rejected(self, weyl2):
        s = bt.slice_torus("z", 0.0, 8, 8)
        frames = frames_at(weyl2, s.points)
        frames[5] = math.nan
        with pytest.raises(MeshResolutionError, match="nearly singular"):
            _total_plaquette_flux(frames, s)


class TestHolonomy:
    """``holonomy`` equals per-step products of polar overlaps on loops,
    tube and sphere u-cycles (pole rows included) and closed quads, in both
    orientations, and no invariant with fewer than 3 occupied bands calls
    the SVD."""

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
        sphere = sphere_in(weyl2, [0, 0, math.pi / 2], 0.3, 24)
        mer = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 16, 200).meridian(0)
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32)
        del svd_calls[:]
        # one occupied band: the rank-1 links take no SVD at all
        bt.chern_flux(weyl2, sphere)
        bt.berry_phase(nodal_loop2, mer)
        bt.w1_along(nodal_loop2, mer)
        assert svd_calls == []
        # two occupied bands: the rank-2 links take the closed form
        bt.w2_on(four_band, tube)
        assert svd_calls == []

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

    @staticmethod
    def rank_two_blocks(dtype, sigma=None, seed=13):
        """Blocks q1 @ diag(sigma) @ q2 with random q1, q2 in U(2) or O(2);
        without sigma, near-unitary q1 @ (1 + 0.2 g) like mesh overlaps."""
        rng = np.random.default_rng(seed)

        def draw(*shape):
            m = rng.normal(size=shape)
            return m + 1j * rng.normal(size=shape) if dtype is complex else m

        q1, q2 = np.linalg.qr(draw(7, 5, 2, 2))[0], np.linalg.qr(draw(7, 5, 2, 2))[0]
        if sigma is None:
            return q1 @ (np.eye(2) + 0.2 * draw(7, 5, 2, 2))
        return q1 @ np.diag(sigma) @ q2

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_rank_two_polar_matches_svd(self, dtype):
        m = self.rank_two_blocks(dtype)
        u, _, vh = np.linalg.svd(m)
        got = _polar_unitary(m)
        assert got.shape == m.shape and got.dtype == m.dtype
        assert np.max(np.abs(got - u @ vh)) <= 1e-15

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("s_min", [1e-3, 1e-6, 2e-8, 3e-9])
    def test_rank_two_singular_value_near_singular(self, dtype, s_min):
        m = self.rank_two_blocks(dtype, [1.0, s_min])
        svd = np.linalg.svd(m, compute_uv=False)[..., -1]
        _, total, got = _rank_two(m)
        assert np.max(np.abs(got - svd)) <= 1e-15
        assert np.max(np.abs(total - 1.0 - s_min)) <= 1e-15
        if s_min < 1e-8:
            with pytest.raises(MeshResolutionError) as exc:
                _polar_unitary(m)
            assert exc.value.residual == np.min(got)
        else:  # the polar factor itself stays unitary
            u = _polar_unitary(m)
            assert np.max(np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(2))) < 1e-14

    @pytest.mark.parametrize("shape", [(3, 1, 1), (3, 2, 2), (3, 3, 3)])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_nan_blocks_raise_mesh_resolution_error(self, shape, dtype):
        with pytest.raises(MeshResolutionError, match="nearly singular") as exc:
            _polar_unitary(np.full(shape, np.nan, dtype=dtype))
        assert math.isnan(exc.value.residual)


class TestFrameReuse:
    """Each charge on a surface makes one ``validate``, whose one eigensolve
    at the vertices gives both the gap and the frames; the surface itself
    keeps nothing."""

    @pytest.fixture()
    def eig_calls(self, monkeypatch):
        calls = []
        eigenframes = BlochModel.eigenframes

        def counted(model, k, occupied=None):
            calls.append(np.shape(k)[:-1])
            return eigenframes(model, k, occupied)

        monkeypatch.setattr(BlochModel, "eigenframes", counted)
        return calls

    @pytest.mark.parametrize("name, surfaces, loops", [
        ("weyl2", 2, 0),
        ("nodal_loop2", 0, 1),
        ("four_band", 1, 1),
        ("four_band_lattice", 8, 12),
    ])
    def test_assemble_ledger_one_call_per_surface(self, request, monkeypatch, eig_calls,
                                                   name, surfaces, loops):
        # one vertex eigensolve per surface a charge reads (a sphere's
        # chirality, a Fermi tube's w2), none on the other tubes
        model = request.getfixturevalue(name)
        locus = request.getfixturevalue(f"{name}_locus")
        validated = []
        validate = bt.invariants.validate

        def recorded(surface, *args, **kwargs):
            validated.append(surface.surface_id)
            return validate(surface, *args, **kwargs)

        monkeypatch.setattr(bt.invariants, "validate", recorded)
        del eig_calls[:]
        ledger = bt.assemble_ledger(model, locus)
        mesh_points = {64 * 63 + 2, 64 * 64}  # sphere, tube
        assert [n[0] for n in eig_calls].count(bt.mvcheck.DEFAULT_LOOP_POINTS) == loops
        assert sum(n[0] in mesh_points for n in eig_calls) == surfaces
        assert len(eig_calls) == surfaces + loops
        read = [e.surface_id for e in ledger.entries
                if e.chirality is not None or e.w2 is not None]
        assert sorted(validated) == sorted(read)
        companions = {e.surface_id for e in ledger.entries
                      if e.kind == "loop" and e.gap_index != model.occupied_count}
        assert len(companions) == (4 if name == "four_band_lattice" else 0)
        assert not companions & set(validated)

    def test_each_charge_makes_one_eigensolve(self, weyl2, four_band, four_band_locus,
                                              eig_calls):
        sphere = sphere_in(weyl2, [0, 0, math.pi / 2])
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32)
        del eig_calls[:]
        flux = bt.chern_flux(weyl2, sphere)
        assert eig_calls == [(len(sphere.points),)]
        w2 = bt.w2_on(four_band, tube)
        assert eig_calls == [(len(sphere.points),), (len(tube.points),)]
        # the surface keeps nothing: a second call solves afresh, to the same charge
        assert flux == bt.chern_flux(weyl2, sphere)
        assert w2.to_record() == bt.w2_on(four_band, tube).to_record()
        assert len(eig_calls) == 4

    def test_surface_unchanged_by_validate_and_charges(self, weyl2, four_band,
                                                       four_band_locus):
        def snapshot(surface):
            def freeze(v):
                if isinstance(v, np.ndarray):
                    return v.dtype.str, v.shape, v.tobytes()
                if isinstance(v, tuple):
                    return tuple(freeze(x) for x in v)
                return copy.deepcopy(v)
            return {k: freeze(v) for k, v in vars(surface).items()}

        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        sphere = sphere_in(weyl2, [0, 0, math.pi / 2])
        tube = bt.tube_around(loop, 0.25, 32, 32)
        for model, surf, charges in ((weyl2, sphere, [bt.chern_flux]),
                                     (four_band, tube, [bt.chern_flux, bt.w2_on])):
            before = snapshot(surf)
            bt.validate(surf, model)
            for charge in charges:
                charge(model, surf)
            assert snapshot(surf) == before

    def test_chern_scan_one_call_per_slice(self, weyl2, eig_calls):
        bt.chern_scan(weyl2, "z", [-2.0, 0.0, math.pi / 2, 2.0], n_u=16, n_v=16)
        assert eig_calls == [(16 * 16,)] * 4


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

    def test_frames_at_nan_error(self, nodal_loop2):
        with pytest.raises(SurfaceError, match="non-finite gap nan at the sampled k-points"):
            frames_at(nodal_loop2, [[0.0, math.nan, 0.0]])

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
        tube = bt.tube_around(loop, 0.25, 64, 64)
        res = bt.w2_on(four_band, tube)
        assert res.value == 1
        assert res.value == res.crossing_count % 2
        assert res.w1_cycles == (0, 1)

    def test_mesh_refinement_stability(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        vals = []
        for n in (64, 128):
            tube = bt.tube_around(loop, 0.25, n, n)
            vals.append(bt.w2_on(four_band, tube).value)
        assert vals == [1, 1]

    def test_two_band_unsupported(self, nodal_loop2, nodal_loop2_locus):
        tube = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 32, 32)
        with pytest.raises(UnsupportedModelError):
            bt.w2_on(nodal_loop2, tube)

    def test_complex_model_unsupported(self, weyl2):
        s = sphere_in(weyl2, [math.pi, math.pi, math.pi], 0.4)
        with pytest.raises(UnsupportedModelError):
            bt.w2_on(weyl2, s)

    def test_gapped_sphere_zero(self, four_band_lattice):
        s = bt.sphere_around([math.pi / 2, math.pi / 2, math.pi / 2], 0.4, 48, 48)
        res = bt.w2_on(four_band_lattice, s)
        assert res.value == 0
        assert res.w1_cycles == (0, 0)

    def test_orientation_reversal_preserves(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 48, 48)
        assert bt.w2_on(four_band, tube.reversed()).value == bt.w2_on(four_band, tube).value

    def test_transport_matches_matrix_reference(self, four_band, four_band_locus,
                                                four_band_lattice, four_band_lattice_locus):
        # the sign transport against the O(2) matrix transport, in both
        # orientations: four-band tubes, the lattice Fermi tubes, spheres
        # around those loops, a gapped sphere and gapped slices
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        cases = [(four_band, bt.tube_around(loop, 0.25, n, n), 1) for n in (32, 64, 128)]
        fermi = [l for l in four_band_lattice_locus.loops if l.gap_index == 2]
        assert len(fermi) == 8
        for l in fermi:
            cases.append((four_band_lattice, bt.tube_around(l, 0.14, 32, 32), 1))
            cases.append((four_band_lattice, bt.sphere_around(l.vertices.mean(axis=0), 0.9,
                                                              32, 32), 1))
        cases.append((four_band_lattice, bt.sphere_around([math.pi / 2] * 3, 0.4, 32, 32), 0))
        for axis, value in (("x", -1.5), ("y", 1.5), ("z", -0.7)):
            cases.append((four_band_lattice, bt.slice_torus(axis, value, 24, 24), 0))
        for model, surf, w2 in cases:
            frames = frames_at(model, surf.points)
            for twin in (surf, surf.reversed()):
                res = _w2_rank2(twin, frames)
                track, count, w1 = reference_w2_track(twin, frames)
                assert np.max(np.abs(res.spectrum[:, 1] - track)) < 1e-12
                assert (res.value, res.crossing_count, res.w1_cycles) == (w2, count, (0, w1))
                assert w1 == (surf.kind == "tube-torus")

    def test_occupied_rank_other_than_two_unsupported(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32)
        for occupied in (1, 3):
            model = dataclasses.replace(four_band, occupied_count=occupied)
            with pytest.raises(UnsupportedModelError,
                               match=f"exactly 2 occupied bands.* has {occupied} occupied of 4"):
                bt.w2_on(model, tube)


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
        s = sphere_in(weyl2, [0, 0, math.pi / 2])
        rec = bt.chern_flux(weyl2, s).to_record()
        assert set(rec) == {"value", "surface_id", "method", "residual", "mesh"}
        assert rec["method"] == "berry-flux"

    def test_w2_record_with_spectrum(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        tube = bt.tube_around(loop, 0.25, 32, 32)
        res = bt.w2_on(four_band, tube)
        rec = res.to_record(include_spectrum=True)
        assert len(rec["spectrum"]) == res.mesh[1] + 1
