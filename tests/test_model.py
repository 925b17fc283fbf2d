import itertools
import json
import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import ConfigError, DomainError, MeshResolutionError, SurfaceError
from bandtopo.invariants import frames_at
from bandtopo.model import (
    TORUS,
    BlochModel,
    CoefficientSpec,
    Domain,
    TwoBandField,
    model_from_config,
    model_from_field,
    pauli_word,
    reduce_torus,
)

from conftest import (
    gapped_model,
    random_two_band,
    reference_hamiltonian,
    reference_hamiltonian_gradient,
)

RNG = np.random.default_rng(1234)


def random_k(n=1000):
    return RNG.uniform(-math.pi, math.pi, size=(n, 3))


class TestEval:
    def test_four_band_eigenvalues_at_origin(self, four_band):
        # E = +-sqrt(kx^2 + (rho +- |m|)^2) gives {-1, -1, +1, +1} at k = 0
        ev = four_band.spectrum([0.0, 0.0, 0.0])
        assert np.allclose(ev, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_constant_field_spectrum(self):
        hz = CoefficientSpec([("cos", (0, 0, 0), 1.0)])
        field = TwoBandField([CoefficientSpec([]), CoefficientSpec([]), hz])
        m = model_from_field("const", field)
        ev = m.spectrum([0.3, -1.2, 2.0])
        assert np.allclose(ev, [-1.0, 1.0], atol=1e-14)

    def test_weyl_lattice_zero_matrix(self, weyl2):
        h = weyl2.hamiltonian([0.0, 0.0, math.pi / 2])
        assert np.max(np.abs(h)) < 1e-14
        assert np.allclose(weyl2.spectrum([0.0, 0.0, math.pi / 2]), [0.0, 0.0])

    def test_continuum_domain_error(self, four_band):
        with pytest.raises(DomainError):
            four_band.hamiltonian([4.0, 0.0, 0.0])

    def test_hermitian_and_real(self, four_band):
        h = four_band.hamiltonian(RNG.uniform(-2, 2, size=(100, 3)))
        assert h.dtype == np.float64
        assert np.max(np.abs(h - np.swapaxes(h, -1, -2))) < 1e-12


class TestSpectrum:
    def test_two_band_345(self):
        hx = CoefficientSpec([("cos", (0, 0, 0), 3.0)])
        hy = CoefficientSpec([("cos", (0, 0, 0), 4.0)])
        field = TwoBandField([hx, hy, CoefficientSpec([])])
        m = model_from_field("h345", field)
        assert np.allclose(m.spectrum([0, 0, 0]), [-5.0, 5.0], atol=1e-12)

    def test_four_band_rho_two(self, four_band):
        ev = four_band.spectrum([0.0, 2.0, 0.0])
        assert np.allclose(ev, [-3.0, -1.0, 1.0, 3.0], atol=1e-12)

    def test_torus_periodicity(self, weyl2):
        k = RNG.uniform(-math.pi, math.pi, size=(50, 3))
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = 2 * math.pi
            a = weyl2.spectrum(k)
            b = weyl2.spectrum(k + shift)
            assert np.max(np.abs(a - b)) < 1e-12


class TestDirectGap:
    def test_zero_at_crossing(self):
        field = TwoBandField([CoefficientSpec([])] * 3)
        m = model_from_field("null", field)
        assert m.direct_gap([0.1, 0.2, 0.3]) == 0.0

    def test_two_norm(self):
        hx = CoefficientSpec([("cos", (0, 0, 0), 3.0)])
        hy = CoefficientSpec([("cos", (0, 0, 0), 4.0)])
        m = model_from_field("h345", TwoBandField([hx, hy, CoefficientSpec([])]))
        assert abs(m.direct_gap([0, 0, 0]) - 10.0) < 1e-12

    def test_four_band_nodal_circle(self, four_band):
        # nodal circle at rho = |m|, kx = 0
        assert four_band.direct_gap([0.0, 1.0, 0.0]) < 1e-12
        assert four_band.direct_gap([0.0, 0.6, 0.8]) < 1e-12

    def test_gap_index(self, four_band):
        # the axis rho = 0 is a crossing of the two occupied bands
        assert four_band.direct_gap([1.5, 0.0, 0.0], gap_index=1) < 1e-12
        assert four_band.direct_gap([1.5, 0.0, 0.0], gap_index=2) > 1.0


class TestBuiltin:
    def test_four_band_linked_metadata(self, four_band):
        assert four_band.band_count == 4
        assert four_band.occupied_count == 2
        assert four_band.reality
        assert not four_band.domain.is_torus

    def test_weyl_lattice_two_zeros(self, weyl2):
        # hand derivation: sin kx = sin ky = 0 and cos kx + cos ky + cos kz = 2
        # forces kx = ky = 0, kz = +-pi/2
        for kz in (math.pi / 2, -math.pi / 2):
            assert weyl2.direct_gap([0.0, 0.0, kz]) < 1e-14
        # no other TRIM-branch admits a zero at m = 2
        for kx, ky in [(0, math.pi), (math.pi, 0), (math.pi, math.pi)]:
            kz = np.linspace(-math.pi, math.pi, 101)
            pts = np.stack([np.full(101, kx), np.full(101, ky), kz], axis=-1)
            assert np.min(weyl2.direct_gap(pts)) > 1.9

    def test_nodal_loop_real_flags(self, nodal_loop2):
        assert nodal_loop2.reality
        assert nodal_loop2.band_count == 2
        # zero set: kz = 0 and cos kx + cos ky = 1 (a closed contour)
        theta = math.pi / 3
        assert nodal_loop2.direct_gap([theta, theta, 0.0]) < 1e-12
        assert nodal_loop2.direct_gap([0.0, math.pi / 2, 0.0]) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            bt.builtin("unknown-model")

    def test_parameter_range(self):
        with pytest.raises(ConfigError):
            bt.builtin("weyl-lattice", m=5.0)
        with pytest.raises(ConfigError):
            bt.builtin("nodal-loop-real", m=0.5)
        with pytest.raises(ConfigError):
            bt.builtin("four-band-linked-lattice", m=3.0)


class TestInvariants:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("weyl-lattice", {"m": 2}),
            ("nodal-loop-real", {"m": 2}),
            ("four-band-linked-lattice", {"m": 1}),
        ],
    )
    def test_hermiticity_on_random_k(self, name, params):
        m = bt.builtin(name, **params)
        h = m.hamiltonian(random_k())
        assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) < 1e-12

    @pytest.mark.parametrize(
        "name,params",
        [("nodal-loop-real", {"m": 2}), ("four-band-linked-lattice", {"m": 1})],
    )
    def test_reality_on_random_k(self, name, params):
        m = bt.builtin(name, **params)
        h = m.hamiltonian(random_k())
        assert np.max(np.abs(np.imag(h))) < 1e-12

    def test_exact_lattice_periodicity(self, weyl2, four_band_lattice):
        k = random_k(200)
        for m in (weyl2, four_band_lattice):
            for axis in range(3):
                shift = np.zeros(3)
                shift[axis] = 2 * math.pi
                d = m.hamiltonian(k + shift) - m.hamiltonian(k)
                assert np.max(np.abs(d)) < 1e-12

    def test_two_band_spectrum_matches_field_norm(self, weyl2):
        k = random_k()
        ev = weyl2.spectrum(k)
        norm = np.linalg.norm(weyl2.two_band_field(k), axis=-1)
        assert np.max(np.abs(ev[:, 1] - norm)) < 1e-10
        assert np.max(np.abs(ev[:, 0] + norm)) < 1e-10

    def test_random_models_well_formed(self):
        for seed in range(5):
            m = random_two_band(seed)
            h = m.hamiltonian(random_k(100))
            assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) < 1e-12


class TestKPoint:
    """Torus k-points reduce to the fundamental domain [-pi, pi)^3."""

    def test_reduce_torus_range(self):
        k = RNG.uniform(-20, 20, size=(200, 3))
        r = reduce_torus(k)
        assert np.all(r >= -math.pi) and np.all(r < math.pi)

    def test_reduce_torus_bitwise_remainder(self):
        """The fmod form equals ``(k + pi) % 2 pi - pi`` bit for bit."""
        two_pi = 2 * math.pi
        special = [0.0, -0.0, math.pi, -math.pi, np.nextafter(math.pi, 0),
                   np.nextafter(-math.pi, -4), two_pi, -two_pi, 7 * two_pi,
                   -3 * two_pi, 1e17, -3e300, math.nan, math.inf, -math.inf]
        k = np.concatenate([special, RNG.uniform(-20, 20, 3000),
                            RNG.normal(scale=1e12, size=300)])
        with np.errstate(invalid="ignore"):  # +-inf has no remainder
            got = reduce_torus(k)
            expected = (k + math.pi) % two_pi - math.pi
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got[len(special) - 3 : len(special)]).all()
        assert got[0] == got[1] == 0.0 and not np.signbit(got[1])
        for x in map(np.float64, (-0.0, math.pi, -7.5)):  # 0-d and (3,) inputs keep their shape
            assert reduce_torus(x).tobytes() == ((x + math.pi) % two_pi - math.pi).tobytes()
        assert reduce_torus((1.0, 4.0, -4.0)).shape == (3,)


class TestConfig:
    def test_round_trip(self, tmp_path, nodal_loop2):
        path = tmp_path / "model.json"
        bt.save_model_config(nodal_loop2, path)
        loaded = bt.load_model_config(path)
        k = random_k(50)
        assert np.allclose(loaded.hamiltonian(k), nodal_loop2.hamiltonian(k), atol=1e-14)
        assert loaded.reality == nodal_loop2.reality

    def test_four_band_round_trip(self, tmp_path, four_band_lattice):
        path = tmp_path / "model.json"
        bt.save_model_config(four_band_lattice, path)
        loaded = bt.load_model_config(path)
        k = random_k(50)
        assert np.allclose(
            loaded.hamiltonian(k), four_band_lattice.hamiltonian(k), atol=1e-14
        )

    def test_scaled_terms_round_trip(self):
        # term matrices 2 X and -0.5 ZX: the weights go into the amplitudes
        terms = (
            (CoefficientSpec([("cos", (1, 0, 0), 1.0), ("cos", (0, 0, 0), 0.3)]),
             2.0 * pauli_word("X")),
            (CoefficientSpec([("sin", (0, 1, 1), 0.7)]), -0.5 * pauli_word("Z")),
        )
        model = BlochModel("scaled", 2, 1, True, TORUS, terms)
        loaded = model_from_config(json.loads(json.dumps(model.to_config())))
        k = random_k(50)
        assert np.allclose(loaded.hamiltonian(k), model.hamiltonian(k), atol=1e-14)
        wide = BlochModel("scaled4", 4, 2, True, TORUS,
                          ((terms[0][0], 1.5 * pauli_word("ZX")),))
        assert np.allclose(model_from_config(wide.to_config()).hamiltonian(k),
                           wide.hamiltonian(k), atol=1e-14)

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            bt.load_model_config(path)
        path2 = tmp_path / "bad2.json"
        path2.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ConfigError):
            bt.load_model_config(path2)

    def test_reality_validation(self):
        # sigma_y term contradicts the reality flag
        hy = CoefficientSpec([("cos", (0, 0, 0), 1.0)])
        field = TwoBandField([CoefficientSpec([]), hy, CoefficientSpec([])])
        with pytest.raises(ConfigError):
            model_from_field("bad", field, reality=True)

    def test_torus_rejects_polynomials(self):
        cx = CoefficientSpec([("poly", (1, 0, 0), 1.0)])
        field = TwoBandField([cx, CoefficientSpec([]), CoefficientSpec([])])
        with pytest.raises(ConfigError):
            model_from_field("bad", field, domain=Domain("torus"))

    def test_gapped_model_has_no_zero(self):
        m = gapped_model()
        k = random_k(200)
        assert np.min(m.direct_gap(k)) > 1.9


# -- two-band closed form ------------------------------------------------------


def identity_term_model():
    """weyl-lattice(m=2) plus an I term, from a config."""
    def spec(*entries):
        return [{"kind": kind, "harmonic": list(n), "amplitude": a} for kind, n, a in entries]

    return model_from_config({
        "name": "weyl-with-identity",
        "band_count": 2,
        "occupied_count": 1,
        "reality": False,
        "domain": {"type": "torus"},
        "terms": [
            {"pauli": "I", "coeff": spec(("cos", (1, 1, 0), 0.7), ("sin", (0, 0, 1), 0.4))},
            {"pauli": "X", "coeff": spec(("sin", (1, 0, 0), 1.0))},
            {"pauli": "Y", "coeff": spec(("sin", (0, 1, 0), 1.0))},
            {"pauli": "Z", "coeff": spec(
                ("cos", (1, 0, 0), 1.0), ("cos", (0, 1, 0), 1.0),
                ("cos", (0, 0, 1), 1.0), ("cos", (0, 0, 0), -2.0),
            )},
        ],
    })


def mixed_term_model():
    """A real model whose term matrices mix I, X and Z."""
    a = CoefficientSpec([("cos", (1, 0, 0), 1.0), ("cos", (0, 1, 0), 1.0),
                         ("cos", (0, 0, 1), 1.0), ("cos", (0, 0, 0), -2.0)])
    b = CoefficientSpec([("sin", (0, 0, 1), 1.0), ("cos", (1, 0, 1), 0.2)])
    terms = ((a, 0.3 * pauli_word("I") + 0.8 * pauli_word("X")),
             (b, 0.6 * pauli_word("Z") - 0.1 * pauli_word("I")))
    return BlochModel("mixed", 2, 1, True, TORUS, terms)


CLOSED_FORM_MODELS = {
    "weyl-lattice-2": lambda: bt.builtin("weyl-lattice", m=2),
    "weyl-lattice-1.7": lambda: bt.builtin("weyl-lattice", m=1.7),
    "nodal-loop-real-2": lambda: bt.builtin("nodal-loop-real", m=2),
    **{f"random-{s}": (lambda s=s: random_two_band(s)) for s in range(6)},
    "identity-term": identity_term_model,
    "mixed-terms": mixed_term_model,
}


def pauli_parts(model, k):
    """(h0, h) of a two-band H(k) by traces with the Paulis, from the matrix."""
    h = model.hamiltonian(k)
    coeff = [np.trace(h @ pauli_word(p), axis1=-2, axis2=-1).real / 2 for p in "IXYZ"]
    return coeff[0], np.stack(coeff[1:], axis=-1)


def points_across_hz_zero(model, n=40):
    """Pairs of k-points on either side of hz = 0: up to two pairs on each
    of n random kz-lines, bisected to within 1e-12 in kz."""
    rng = np.random.default_rng(7)
    kz = np.linspace(-math.pi, math.pi, 65) + 0.01  # no grid point on a TRIM plane
    out = []
    for kx, ky in rng.uniform(-math.pi, math.pi, size=(n, 2)):
        line = np.column_stack([np.full_like(kz, kx), np.full_like(kz, ky), kz])
        hz = pauli_parts(model, line)[1][:, 2]
        for j in np.flatnonzero(np.sign(hz[:-1]) * np.sign(hz[1:]) < 0)[:2]:
            lo, hi = line[j].copy(), line[j + 1].copy()
            sign_lo = np.sign(hz[j])
            while hi[2] - lo[2] > 1e-12:
                mid = 0.5 * (lo + hi)
                if np.sign(pauli_parts(model, mid)[1][2]) == sign_lo:
                    lo = mid
                else:
                    hi = mid
            out.extend([lo, hi])
    return np.array(out)


class TestClosedFormTwoBand:
    """Two-band spectra and frames come from the Pauli projection in closed
    form; LAPACK on the assembled H(k) is the reference."""

    @pytest.fixture(params=sorted(CLOSED_FORM_MODELS), scope="class")
    def model(self, request):
        return CLOSED_FORM_MODELS[request.param]()

    @pytest.fixture(scope="class")
    def points(self, model):
        return np.vstack([random_k(400), points_across_hz_zero(model)])

    def test_projection_is_cached(self, model, points):
        fld = model.two_band_field
        assert fld is model.two_band_field
        assert np.max(np.abs(fld(points) - pauli_parts(model, points)[1])) <= 1e-14

    def test_eigenvalues_match_lapack(self, model, points):
        ev = model.spectrum(points)
        ref = np.linalg.eigvalsh(model.hamiltonian(points))
        scale = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert ev.shape == ref.shape
        assert np.all(np.abs(ev - ref) <= 1e-13 * scale)
        assert np.array_equal(model.eigenframes(points)[0], ev)

    def test_gap_is_twice_field_norm(self, model, points):
        gap = model.direct_gap(points)
        norm = np.linalg.norm(model.two_band_field(points), axis=-1)
        h0 = pauli_parts(model, points)[0]
        if not np.any(h0):
            assert np.array_equal(gap, 2 * norm)
        assert np.max(np.abs(gap - 2 * norm)) <= 1e-15 * (1 + np.max(np.abs(h0)))

    def test_frames_match_lapack(self, model, points):
        hz = pauli_parts(model, points)[1][:, 2]
        _, vecs = np.linalg.eigh(model.hamiltonian(points))
        keep = model.direct_gap(points) > 0.02
        near = keep & (np.abs(hz) < 1e-9)  # both branches, at their seam
        assert np.any(near & (hz > 0)) and np.any(near & (hz < 0))
        for occ in (1, 2):
            _, frames = model.eigenframes(points, occupied=occ)
            assert frames.shape == (len(points), 2, occ)
            overlap = np.abs(np.sum(np.conj(frames) * vecs[..., :occ], axis=-2))
            assert np.max(np.abs(overlap[keep] - 1.0)) <= 1e-12
        frames = model.eigenframes(points, occupied=2)[1]
        eye = np.conj(np.swapaxes(frames, -1, -2)) @ frames
        assert np.max(np.abs(eye - np.eye(2))) <= 1e-14

    def test_frames_real_for_real_models(self, model, points):
        _, frames = model.eigenframes(points)
        assert np.iscomplexobj(frames) == (not model.reality)
        assert np.iscomplexobj(frames_at(model, points)) == (not model.reality)

    def test_single_point_shapes(self, model):
        k = RNG.uniform(-math.pi, math.pi, size=3)
        ev, frames = model.eigenframes(k)
        assert ev.shape == (2,) and frames.shape == (2, 1)
        assert model.spectrum(k).shape == (2,)
        assert np.ndim(model.direct_gap(k)) == 0


class TestClosedFormNodes:
    @pytest.mark.parametrize("reality", [False, True])
    def test_unit_column_at_exact_node(self, reality):
        comps = [CoefficientSpec([("sin", (1, 0, 0), 1.0)]),
                 CoefficientSpec([] if reality else [("sin", (0, 1, 0), 1.0)]),
                 CoefficientSpec([("sin", (0, 0, 1), 1.0)])]
        model = model_from_field("sines", TwoBandField(comps), reality=reality)
        k = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.0], [0.0, 0.0, -0.4]])
        assert np.all(model.two_band_field(k[0]) == 0.0)
        ev, frames = model.eigenframes(k)
        assert np.array_equal(ev[0], [0.0, 0.0])
        assert np.all(np.isfinite(frames))
        assert np.allclose(np.linalg.norm(frames, axis=-2), 1.0, atol=1e-15)
        # the node takes the first column of the identity, as LAPACK does for H = 0
        assert np.array_equal(frames[0], [[1.0], [0.0]])
        full = model.eigenframes(k[0], occupied=2)[1]
        assert np.array_equal(full, np.eye(2))
        assert np.allclose(np.linalg.norm(frames_at(model, k), axis=-2), 1.0, atol=1e-15)

    def test_weyl_node_frame_is_unit(self, weyl2):
        # h = (0, 0, cos(pi/2)): a node up to rounding
        ev, frames = weyl2.eigenframes([0.0, 0.0, math.pi / 2])
        assert np.max(np.abs(ev)) < 1e-15
        assert abs(np.linalg.norm(frames) - 1.0) < 1e-15


def lapack_spectrum(self, k):
    return np.linalg.eigvalsh(self.hamiltonian(k))


def lapack_eigenframes(self, k, occupied=None):
    occ = self.occupied_count if occupied is None else int(occupied)
    energies, vectors = np.linalg.eigh(self.hamiltonian(k))
    return energies, vectors[..., :, :occ]


TRIM = list(itertools.product((0.0, math.pi), repeat=3))
WEYL_SEEDS = {
    "weyl-lattice-2": [(0.0, 0.0, math.pi / 2), (0.0, 0.0, -math.pi / 2)],
    "weyl-lattice-1.7": [(0.0, 0.0, math.acos(-0.3)), (0.0, 0.0, -math.acos(-0.3))],
    "identity-term": [(0.0, 0.0, math.pi / 2), (0.0, 0.0, -math.pi / 2)],
    **{f"random-{s}": TRIM for s in range(6)},  # one zero near each TRIM point
}


class TestClosedFormCharges:
    """The charges equal those of LAPACK frames, up to the last few bits."""

    def charges(self, model, surfaces):
        row = []
        for surf in surfaces:
            try:
                flux = bt.chern_flux(model, surf)
            except (MeshResolutionError, SurfaceError) as exc:
                row.append(type(exc).__name__)
                continue
            deg = bt.degree(model.two_band_field, surf)
            row.append((flux.value, flux.residual, deg.value, deg.residual,
                        bt.validate(surf, model)[0]))
        return row

    @pytest.mark.parametrize("name", sorted(WEYL_SEEDS))
    def test_chern_flux_and_degree_unchanged(self, monkeypatch, name):
        model = CLOSED_FORM_MODELS[name]()
        points = [bt.refine_point(model, seed).position for seed in WEYL_SEEDS[name]]
        surfaces = [bt.slice_torus("z", 0.9, 32, 32), bt.slice_torus("x", 1.0, 32, 32)]
        surfaces += [bt.sphere_around(p, 0.3, 24, 24) for p in points]
        new = self.charges(model, surfaces)
        monkeypatch.setattr(BlochModel, "spectrum", lapack_spectrum)
        monkeypatch.setattr(BlochModel, "eigenframes", lapack_eigenframes)
        old = self.charges(model, surfaces)
        assert sum(isinstance(a, tuple) for a in new) >= 4
        for a, b in zip(new, old):
            if isinstance(a, str):
                assert a == b
                continue
            assert a[0] == b[0] and a[2:4] == b[2:4]
            assert abs(a[1] - b[1]) <= 1e-12 and abs(a[4] - b[4]) <= 1e-12
        assert sum(a[0] for a in new[2:]) == 0  # chiralities cancel on T^3

    def test_berry_phase_unchanged(self, monkeypatch, nodal_loop2, nodal_loop2_locus):
        mer = bt.tube_around(nodal_loop2_locus.loops[0], 0.15, 16, 200).meridian(0)
        far = bt.circle_loop([math.pi, math.pi, math.pi], 0.5, [0.0, 0.0, 1.0])
        loops = (mer, mer.reversed(), far)

        def charges():
            out = []
            for lp in loops:
                bp = bt.berry_phase(nodal_loop2, lp)
                out.append((bp.phase, bp.quantized, bp.quantization_residual,
                            bt.w1_along(nodal_loop2, lp)))
            return out

        new = charges()
        monkeypatch.setattr(BlochModel, "spectrum", lapack_spectrum)
        monkeypatch.setattr(BlochModel, "eigenframes", lapack_eigenframes)
        old = charges()
        assert [a[3] for a in new] == [1, 1, 0]
        for a, b in zip(new, old):
            assert a[1] == b[1] and a[3] == b[3]
            assert abs(a[0] - b[0]) <= 1e-12 and abs(a[2] - b[2]) <= 1e-12


class TestNoEigensolverForTwoBand:
    def test_two_band_paths_never_call_lapack(self, monkeypatch, weyl2, nodal_loop2):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK eigensolver called on a two-band model")

        k = random_k(64)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for model in (weyl2, nodal_loop2, identity_term_model()):
            model.spectrum(k)
            model.direct_gap(k)
            model.eigenframes(k)
            model.eigenframes(k[0], occupied=2)
        sphere = bt.sphere_around([0, 0, math.pi / 2], 0.3, 24, 24)
        assert bt.chern_flux(weyl2, sphere).value == -1
        # multiband models keep the eigensolver
        four = bt.builtin("four-band-linked-lattice", m=1)
        with pytest.raises(AssertionError, match="LAPACK"):
            four.spectrum(k)


# -- Pauli-word expansion ------------------------------------------------------


BUILTIN_PARAMS = [
    ("weyl-lattice", 2.0), ("weyl-lattice", 1.7), ("nodal-loop-real", 2.0),
    ("four-band-linked", 1.0), ("four-band-linked-lattice", 1.0),
]
EXPANDED_MODELS = {
    **{f"{name}-{m:g}": (lambda name=name, m=m: bt.builtin(name, m=m))
       for name, m in BUILTIN_PARAMS},
    **{f"random-{s}": (lambda s=s: random_two_band(s)) for s in range(6)},
}


def word_of(mat):
    """The Pauli word equal to ``mat``, by search over all words."""
    sites = mat.shape[0].bit_length() - 1
    for letters in itertools.product("IXYZ", repeat=sites):
        if np.array_equal(pauli_word("".join(letters)), mat):
            return "".join(letters)
    raise AssertionError("term matrix is not a Pauli word")


def domain_points(model, n=500):
    ext = math.pi if model.domain.is_torus else model.domain.extent
    return RNG.uniform(-ext, ext, size=(n, 3))


class TestPauliExpansion:
    """Every model is expanded once on the Pauli words of its band count."""

    @pytest.mark.parametrize("name", sorted(EXPANDED_MODELS))
    def test_config_writes_the_built_words(self, name):
        model = EXPANDED_MODELS[name]()
        assert model.to_config()["terms"] == [
            {"pauli": word_of(mat), "coeff": coeff.to_dict()} for coeff, mat in model.terms
        ]

    def test_mixed_terms_round_trip(self):
        spec = CoefficientSpec([("cos", (1, 0, 0), 1.0), ("sin", (0, 1, 1), 0.4)])
        four = BlochModel("mixed4", 4, 2, True, TORUS,
                          ((spec, 0.5 * pauli_word("IX") + 0.3 * pauli_word("ZZ")),))
        k = random_k(200)
        for model, words in ((mixed_term_model(), ["I", "X", "Z"]), (four, ["IX", "ZZ"])):
            config = json.loads(json.dumps(model.to_config()))
            assert [t["pauli"] for t in config["terms"]] == words
            loaded = model_from_config(config)
            assert loaded.to_config() == config
            assert np.max(np.abs(loaded.hamiltonian(k) - reference_hamiltonian(model, k))) <= 1e-14
        assert [[e["amplitude"] for e in t["coeff"]] for t in four.to_config()["terms"]] == [
            [0.5, 0.2], [0.3, 0.4 * 0.3]
        ]

    def test_expansion_is_exact_on_a_dense_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        spec = CoefficientSpec([("cos", (1, 0, 0), 1.0), ("sin", (0, 0, 1), 0.5)])
        model = BlochModel("dense", 4, 2, False, TORUS, ((spec, a + a.conj().T),))
        k = random_k(200)
        assert len(model.to_config()["terms"]) == 16
        assert np.max(np.abs(model.hamiltonian(k) - reference_hamiltonian(model, k))) <= 1e-13

    @pytest.mark.parametrize("bands", [3, 6])
    def test_band_count_not_power_of_two(self, bands):
        spec = CoefficientSpec([("cos", (0, 0, 0), 1.0)])
        mat = np.diag(np.arange(bands, dtype=float))
        with pytest.raises(ConfigError, match="power of two"):
            BlochModel("odd", bands, 1, True, TORUS, ((spec, mat),))


def poly_box_model():
    """A real four-band box model with a kx^2 ky monomial, from a config."""
    def spec(*entries):
        return [{"kind": "poly", "harmonic": list(n), "amplitude": a} for n, a in entries]

    return model_from_config({
        "name": "poly-box",
        "band_count": 4,
        "occupied_count": 2,
        "reality": True,
        "domain": {"type": "box", "extent": 2.0},
        "terms": [
            {"pauli": "IX", "coeff": spec(((2, 1, 0), 0.7), ((0, 0, 1), 1.0))},
            {"pauli": "ZZ", "coeff": spec(((0, 0, 0), 0.5), ((1, 1, 1), -0.3))},
            {"pauli": "YY", "coeff": spec(((0, 3, 0), 0.2))},
        ],
    })


GRADIENT_MODELS = {
    **{f"{name}-{m:g}": (lambda name=name, m=m: bt.builtin(name, m=m))
       for name, m in BUILTIN_PARAMS},
    **{f"random-{s}": (lambda s=s: random_two_band(s)) for s in range(4)},
    "poly-box": poly_box_model,
}


class TestHamiltonianGradient:
    """dH/dk read off the Pauli words matches central differences of H."""

    @pytest.mark.parametrize("name", sorted(GRADIENT_MODELS))
    def test_matches_central_differences(self, name):
        model = GRADIENT_MODELS[name]()
        k = 0.9 * domain_points(model, 100)
        got = model.hamiltonian_gradient(k)
        assert got.shape == k.shape[:1] + (3, model.band_count, model.band_count)
        assert got.dtype == model.hamiltonian(k).dtype
        h = 1e-5
        for axis in range(3):
            dk = np.zeros(3)
            dk[axis] = h
            ref = (model.hamiltonian(k + dk) - model.hamiltonian(k - dk)) / (2 * h)
            assert np.max(np.abs(got[:, axis] - ref)) <= 1e-8
        assert np.array_equal(model.hamiltonian_gradient(k[0]), got[0])

    def test_box_domain_checked(self, four_band):
        with pytest.raises(DomainError):
            four_band.hamiltonian_gradient([3.5, 0.0, 0.0])


def shared_harmonics_model():
    """A complex four-band model whose words share harmonics: one n under
    cos and sin, on several words and twice within one word, with constant
    terms, |n| up to 3 and three words meeting on the diagonal."""
    a = CoefficientSpec([("cos", (1, 2, -3), 0.7), ("sin", (1, 2, -3), -0.4),
                         ("cos", (0, 0, 0), 0.25), ("cos", (1, 2, -3), 0.2),
                         ("sin", (3, 0, 1), 0.3)])
    b = CoefficientSpec([("sin", (1, 2, -3), 0.9), ("cos", (0, -3, 2), 1.1),
                         ("cos", (0, 0, 0), -0.6), ("sin", (0, 0, 0), 0.5)])
    c = CoefficientSpec([("cos", (3, 0, 1), -0.8), ("cos", (1, 2, -3), 0.35)])
    terms = ((a, 0.5 * pauli_word("IX") + 0.3 * pauli_word("ZY")),
             (b, pauli_word("ZY") - 0.7 * pauli_word("XZ")),
             (c, 0.9 * pauli_word("IZ") + 0.4 * pauli_word("ZZ") - 0.2 * pauli_word("ZI")
              + pauli_word("YY")))
    return BlochModel("shared-harmonics", 4, 2, False, TORUS, terms)


def cubic_box_model():
    """A real four-band box model with monomials up to cubic, one of them on
    two words, from a config."""
    def spec(*entries):
        return [{"kind": "poly", "harmonic": list(n), "amplitude": a} for n, a in entries]

    return model_from_config({
        "name": "cubic-box",
        "band_count": 4,
        "occupied_count": 2,
        "reality": True,
        "domain": {"type": "box", "extent": 1.5},
        "terms": [
            {"pauli": "IX", "coeff": spec(((3, 0, 0), 0.4), ((1, 2, 0), -0.6), ((0, 0, 0), 0.3))},
            {"pauli": "ZZ", "coeff": spec(((0, 3, 1), 0.25), ((2, 1, 0), 0.5), ((3, 0, 0), -0.3))},
            {"pauli": "YY", "coeff": spec(((1, 1, 1), 0.7), ((0, 0, 3), -0.2), ((3, 3, 3), 0.05))},
        ],
    })


REFERENCE_MODELS = {
    **EXPANDED_MODELS,
    **GRADIENT_MODELS,
    "identity-term": identity_term_model,
    "mixed-terms": mixed_term_model,
    "shared-harmonics": shared_harmonics_model,
    "cubic-box": cubic_box_model,
}


def points_with_zeros(model):
    """Random domain points, some with exactly zero (or -0.0) components,
    and the origin."""
    k = domain_points(model, 300)
    k[::3, 0] = 0.0
    k[1::3, 1] = -0.0
    k[2::5, 2] = 0.0
    k[::7, :2] = 0.0
    return np.vstack([k, np.zeros(3)])


class TestHarmonicTable:
    """Every model is one harmonic table: H and dH/dk agree with the
    per-entry sum of its terms, and one k-point with a batch, bit for bit."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_matches_per_entry_reference(self, name):
        model = REFERENCE_MODELS[name]()
        k = points_with_zeros(model)
        for got, ref in ((model.hamiltonian(k), reference_hamiltonian(model, k)),
                         (model.hamiltonian_gradient(k), reference_hamiltonian_gradient(model, k))):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * (1 + np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_single_point_equals_batch(self, name):
        model = REFERENCE_MODELS[name]()
        k = points_with_zeros(model)
        for evaluate in (model.hamiltonian, model.hamiltonian_gradient, model.spectrum):
            batch = evaluate(k)
            for i in (0, 1, 2, 7, 150, len(k) - 1):
                assert evaluate(k[i]).tobytes() == batch[i].tobytes()
            grid = evaluate(k[:300].reshape(10, 30, 3))
            assert grid.tobytes() == batch[:300].tobytes()

    def test_each_harmonic_tabulated_once(self):
        model = shared_harmonics_model()
        rows = [(kind, tuple(n)) for kind, ns, _ in model._table.value for n in ns]
        assert len(rows) == len(set(rows)) == 7
        entries = sum(len(spec.entries) for _, spec in model._words)
        assert entries > len(rows)


SLOPE_MODELS = {
    **{f"{name}-{m:g}": (lambda name=name, m=m: bt.builtin(name, m=m))
       for name, m in BUILTIN_PARAMS},
    **{f"random-{s}": (lambda s=s: random_two_band(s)) for s in range(8)},
    "shared-harmonics": shared_harmonics_model,
    "cubic-box": cubic_box_model,
}


class TestGapSlopes:
    """The per-word slope constants behind ``gap_drift`` bound the model's
    own coefficient gradients, and the drift bounds how far a gap moves."""

    @pytest.mark.parametrize("name", sorted(SLOPE_MODELS))
    def test_slopes_bound_word_gradients(self, name):
        model = SLOPE_MODELS[name]()
        kept, slopes, families, _ = model._slopes
        n = model.band_count
        k = np.random.default_rng(28).uniform(-1, 1, (200, 3)) * (
            math.pi if model.domain.is_torus else model.domain.extent)
        grad = model.hamiltonian_gradient(k)  # (points, axis, n, n)
        for word, _ in model._words:
            # d c_w / dk_i = tr(P_w dH/dk_i) / n
            dc = np.einsum("ij,paji->pa", pauli_word(word), grad).real / n
            if word not in kept:  # the identity, or a word without slope
                assert set(word) == {"I"} or not np.any(dc)
                continue
            bound = slopes[kept.index(word)]
            assert np.all(np.abs(dc) <= bound * (1 + 1e-12) + 1e-14)
        assert sorted(np.concatenate(families).tolist()) == list(range(len(kept)))
        for family in families:
            for a, b in itertools.combinations(family, 2):
                p, q = pauli_word(kept[a]), pauli_word(kept[b])
                assert np.array_equal(p @ q, -(q @ p))

    @pytest.mark.parametrize("name", sorted(SLOPE_MODELS))
    def test_drift_bounds_every_gap(self, name):
        model = SLOPE_MODELS[name]()
        rng = np.random.default_rng(29)
        ext = math.pi if model.domain.is_torus else model.domain.extent
        for reach in ([0.05, 0.05, 0.05], [0.2, 0.0, 0.01], [0.0, 0.0, 0.0]):
            reach = np.array(reach)
            k = rng.uniform(-1, 1, (300, 3)) * (ext - reach)
            step = rng.uniform(-1, 1, (300, 3)) * reach
            moved = np.abs(np.diff(model.spectrum(k + step) - model.spectrum(k), axis=-1))
            assert np.all(moved <= model.gap_drift(reach))

    def test_two_band_words_form_one_family(self, weyl2):
        kept, _, families, _ = weyl2._slopes
        assert len(families) == 1 and len(kept) == 3
        for reach in ([np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0]):  # certifies nothing
            assert not math.isfinite(weyl2.gap_drift(reach))


class TestInputValidation:
    @pytest.mark.parametrize("entry", [
        ("cos", (1, 0, 0), math.nan), ("sin", (1, 0, 0), math.inf),
        ("poly", (1, 0, 0), -math.inf), ("cos", (1.5, 0, 0), 1.0),
        ("cos", (math.nan, 0, 0), 1.0), ("cos", ("1", 0, 0), 1.0),
        ("poly", (0, -1, 0), 1.0),
    ])
    def test_coefficient_entry_rejected(self, entry):
        with pytest.raises(ConfigError):
            CoefficientSpec([entry])

    def test_whole_float_harmonic_accepted(self):
        assert CoefficientSpec([("cos", (1.0, -2.0, 0.0), 1.0)]).entries == (
            ("cos", (1, -2, 0), 1.0),
        )

    @pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_box_extent_rejected(self, extent):
        with pytest.raises(ConfigError):
            Domain("box", extent)
