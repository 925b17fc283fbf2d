import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import LinkingError
from bandtopo.knots import gauss_pair_sum
from bandtopo.locus import NodalLoop, split_components


def hopf_pair(n=120):
    a = bt.circle_loop([0, 0, 0], 1.0, [0, 0, 1], n)
    b = bt.circle_loop([1, 0, 0], 1.0, [0, 1, 0], n)
    return a, b


class TestLinkingNumber:
    def test_hopf_configuration(self):
        a, b = hopf_pair()
        res = bt.linking_number(a, b)
        assert abs(res.value) == 1
        assert res.residual < 1e-10
        assert res.method == "gauss-sum"

    def test_disjoint_coplanar_circles(self):
        a = bt.circle_loop([0, 0, 0], 1.0, [0, 0, 1], 80)
        b = bt.circle_loop([4, 0, 0], 1.0, [0, 0, 1], 80)
        assert bt.linking_number(a, b).value == 0

    def test_orientation_reversal_negates(self):
        a, b = hopf_pair()
        v = bt.linking_number(a, b).value
        assert bt.linking_number(a.reversed(), b).value == -v
        assert bt.linking_number(a, b.reversed()).value == -v
        assert bt.linking_number(a.reversed(), b.reversed()).value == v

    def test_refinement_invariance(self):
        a1, b1 = hopf_pair(60)
        a2, b2 = hopf_pair(240)
        assert bt.linking_number(a1, b1).value == bt.linking_number(a2, b2).value

    def test_translation_invariance(self):
        a, b = hopf_pair()
        shift = np.array([0.7, -1.3, 2.1])
        a2 = bt.LoopPath(a.vertices + shift)
        b2 = bt.LoopPath(b.vertices + shift)
        assert bt.linking_number(a2, b2).value == bt.linking_number(a, b).value

    def test_too_close_error(self):
        a = bt.circle_loop([0, 0, 0], 1.0, [0, 0, 1], 12)
        b = bt.circle_loop([1, 0, 0], 1.0, [0, 1, 0], 12)
        with pytest.raises(LinkingError):
            bt.linking_number(a, b)

    def test_non_contractible_torus_loop_rejected(self):
        theta = 2 * np.pi * np.arange(40) / 40
        line = np.stack([theta - np.pi, np.zeros(40), np.zeros(40)], axis=-1)
        wrapped = NodalLoop(vertices=line, winding=(1, 0, 0))
        other = bt.circle_loop([0, 2, 0], 0.5, [1, 0, 0], 40)
        with pytest.raises(LinkingError):
            bt.linking_number(wrapped, other, on_torus=True)

    def test_minimal_image_on_torus(self):
        a = bt.circle_loop([0, 0, 0], 0.8, [0, 0, 1], 80)
        b = bt.circle_loop([0.8, 0, 0], 0.8, [0, 1, 0], 80)
        base = bt.linking_number(a, b, on_torus=True).value
        b_shift = bt.LoopPath(b.vertices + np.array([2 * np.pi, 0, 0]))
        b_shift.winding = (0, 0, 0)
        assert bt.linking_number(a, b_shift, on_torus=True).value == base

    def test_gauss_sum_exactness(self):
        a, b = hopf_pair(90)
        raw = gauss_pair_sum(a.vertices, b.vertices)
        assert abs(raw - round(raw)) < 1e-12


class TestCloseArc:
    def test_four_band_linking_parity(self, four_band, four_band_locus):
        loop = [l for l in four_band_locus.loops if l.gap_index == 2][0]
        arc = four_band_locus.open_arcs[0]
        closed, meta = bt.close_arc(arc, distance=200.0)
        res = bt.linking_number(loop, closed, closure=meta)
        assert abs(res.value) == 1
        tube = bt.tube_around(loop, 0.25, 64, 64)
        w2 = bt.w2_on(four_band, tube)
        assert w2.value == abs(res.value) % 2

    def test_closure_metadata(self, four_band_locus):
        arc = four_band_locus.open_arcs[0]
        closed, meta = bt.close_arc(arc, distance=150.0)
        assert meta["closed_by"] == "far-field-return"
        assert meta["distance"] == 150.0
        assert len(closed) == len(arc.vertices) + 2


class TestLinkingMatrix:
    def test_four_band_matrix(self, four_band_locus):
        comps = split_components(four_band_locus)
        matrix = bt.linking_matrix(comps, on_torus=False)
        assert len(matrix["pairs"]) == 1
        rec = matrix["pairs"][0]
        assert abs(rec["value"]) == 1
        assert "closure" in rec

    def test_lattice_skips_non_contractible(self, four_band_lattice_locus):
        comps = split_components(four_band_lattice_locus)
        matrix = bt.linking_matrix(comps, on_torus=True)
        # every pair involving a winding line is skipped with a reason
        skipped_ids = {tuple(s["pair"]) for s in matrix["skipped"]}
        assert skipped_ids, "expected some non-contractible skips"
        for rec in matrix["pairs"]:
            assert isinstance(rec["value"], int)
