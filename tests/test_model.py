import json
import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import ConfigError, DomainError
from bandtopo.model import (
    TORUS,
    BlochModel,
    CoefficientSpec,
    Domain,
    KPoint,
    TwoBandField,
    model_from_config,
    model_from_field,
    pauli_word,
    reduce_torus,
)

from conftest import gapped_model, random_two_band

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
        norm = weyl2.two_band_field.norm(k)
        assert np.max(np.abs(ev[:, 1] - norm)) < 1e-10
        assert np.max(np.abs(ev[:, 0] + norm)) < 1e-10

    def test_random_models_well_formed(self):
        for seed in range(5):
            m = random_two_band(seed)
            h = m.hamiltonian(random_k(100))
            assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) < 1e-12


class TestKPoint:
    def test_reduction(self):
        p = KPoint((3 * math.pi, 0.0, -math.pi))
        assert np.allclose(p.reduced(), [-math.pi, 0.0, -math.pi])

    def test_equality_and_hash(self):
        a = KPoint((math.pi / 2, 0.0, 0.0))
        b = KPoint((math.pi / 2 + 2 * math.pi, 0.0, 0.0))
        assert a == b
        assert hash(a) == hash(b)
        assert a != KPoint((0.0, 0.0, 0.0))

    def test_reduce_torus_range(self):
        k = RNG.uniform(-20, 20, size=(200, 3))
        r = reduce_torus(k)
        assert np.all(r >= -math.pi) and np.all(r < math.pi)


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
