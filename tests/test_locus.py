import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import LocusAmbiguityError, RefinementError
from bandtopo.locus import scan_grid, split_components, trace_loops
from bandtopo.model import CoefficientSpec, TwoBandField, model_from_field, torus_delta

from conftest import (
    dense_zero_count,
    gapped_model,
    random_two_band,
    reference_cluster_cells,
    reference_correct_to_curve,
    reference_gap_tangent,
    reference_newton_on_field,
    reference_normal_basis,
    reference_transverse_slope,
)


def cluster_count(scan, gap_index=1):
    from bandtopo.locus import _cluster_cells

    return len(
        _cluster_cells(scan.flagged[gap_index], scan.grid.n_cells, scan.grid.torus)
    )


class TestScanGrid:
    def test_gapped_model_empty(self):
        scan = scan_grid(gapped_model(), resolution=16, gap_threshold=0.5)
        assert scan.flagged[1] == []

    def test_weyl_two_clusters(self, weyl2):
        scan = scan_grid(weyl2, resolution=32, gap_threshold=0.3)
        assert cluster_count(scan) == 2
        # clusters sit around (0, 0, +-pi/2)
        from bandtopo.locus import _cluster_cells

        clusters = _cluster_cells(scan.flagged[1], 32, True)
        centers = []
        for cl in clusters:
            pts = np.array([scan.grid.cell_center(c) for c in cl])
            centers.append(pts.mean(axis=0))
        zs = sorted(c[2] for c in centers)
        assert abs(zs[0] + math.pi / 2) < 0.3
        assert abs(zs[1] - math.pi / 2) < 0.3

    def test_nodal_ring_cluster(self, nodal_loop2):
        scan = scan_grid(nodal_loop2, resolution=32, gap_threshold=0.3)
        assert cluster_count(scan) == 1
        cells = np.array(scan.flagged[1])
        centers = np.array([scan.grid.cell_center(c) for c in cells])
        assert np.max(np.abs(centers[:, 2])) < 0.5  # confined to the kz = 0 plane

    def test_determinism(self, weyl2):
        a = scan_grid(weyl2, resolution=16, gap_threshold=0.4)
        b = scan_grid(weyl2, resolution=16, gap_threshold=0.4)
        assert a.flagged == b.flagged

    def test_resolution_floor(self, weyl2):
        with pytest.raises(ValueError):
            scan_grid(weyl2, resolution=4)

    def test_one_spectrum_per_scan(self, four_band_lattice, monkeypatch):
        # both gaps come from one eigensolve per grid point
        calls = count_spectrum_calls(monkeypatch)
        scan = scan_grid(four_band_lattice, resolution=16)
        assert sorted(scan.flagged) == [1, 2]
        assert sum(calls) == 16**3

    def test_explicit_gap_index_checked(self, weyl2):
        with pytest.raises(ValueError, match="gap_index"):
            scan_grid(weyl2, resolution=8, gap_index=2)


class TestRefinePoint:
    def test_weyl_seed(self, weyl2):
        p = bt.refine_point(weyl2, [0.1, -0.1, 1.5])
        assert np.linalg.norm(p.position - np.array([0, 0, math.pi / 2])) < 1e-6
        assert p.residual_gap < 1e-8

    def test_gapped_seed_fails(self):
        with pytest.raises(RefinementError) as info:
            bt.refine_point(gapped_model(), [0.3, 0.3, 0.3])
        assert info.value.residual is not None

    def test_exact_zero_zero_iterations(self, weyl2):
        p = bt.refine_point(weyl2, [0.0, 0.0, math.pi / 2])
        assert p.refinement_iterations == 0
        assert p.residual_gap < 1e-10


class TestTraceLoops:
    def test_nodal_loop_planar(self, nodal_loop2):
        scan = scan_grid(nodal_loop2, resolution=32)
        loops, arcs = trace_loops(nodal_loop2, scan)
        assert len(loops) == 1 and not arcs
        loop = loops[0]
        assert np.max(np.abs(loop.vertices[:, 2])) < 1e-6
        assert loop.max_vertex_gap < 1e-6

    def test_four_band_loop_and_arc(self, four_band_locus):
        loops = [l for l in four_band_locus.loops]
        arcs = four_band_locus.open_arcs
        assert len(loops) == 1 and len(arcs) == 1
        loop = loops[0]
        # circle of radius |m| = 1 in the kx = 0 plane
        assert np.max(np.abs(loop.vertices[:, 0])) < 1e-6
        radii = np.linalg.norm(loop.vertices[:, 1:], axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-6
        # the open arc runs along the kx axis and hits the box boundary
        arc = arcs[0]
        assert np.max(np.abs(arc.vertices[:, 1:])) < 1e-6
        assert np.max(np.abs(arc.vertices[:, 0])) > 2.5

    def test_weyl_zero_loops(self, weyl2):
        scan = scan_grid(weyl2, resolution=32)
        loops, arcs = trace_loops(weyl2, scan)
        assert loops == [] and arcs == []

    def test_nodal_surface_is_ambiguous(self):
        # gap vanishes on the 2D sheets cos kz = 0.3: dimension must be
        # rejected loudly
        h1 = CoefficientSpec([("cos", (0, 0, 1), 1.0), ("cos", (0, 0, 0), -0.3)])
        field = TwoBandField([h1, CoefficientSpec([]), CoefficientSpec([])])
        m = model_from_field("nodal-surface", field, reality=True)
        with pytest.raises(LocusAmbiguityError):
            bt.extract_locus(m, resolution=16)

    def test_consecutive_vertex_spacing(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        spacing = 2 * math.pi / 32
        deltas = np.linalg.norm(
            np.roll(loop.vertices, -1, axis=0) - loop.vertices, axis=1
        )
        assert np.max(deltas) < 2 * spacing

    def test_orientation_convention(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        t = loop.vertices[1] - loop.vertices[0]
        t = t / np.linalg.norm(t)
        lead = next(c for c in t if abs(c) > 1e-6)
        assert lead > 0


class TestSplitComponents:
    def test_empty(self):
        assert split_components(bt.NodalLocus()) == []

    def test_two_points(self, weyl2_locus):
        comps = split_components(weyl2_locus)
        assert [c.kind for c in comps] == ["point", "point"]
        assert [c.id for c in comps] == ["P0", "P1"]

    def test_linked_loops_two_components(self, four_band_locus):
        comps = split_components(four_band_locus)
        kinds = sorted(c.kind for c in comps)
        assert kinds == ["arc", "loop"]

    def test_lattice_component_split(self, four_band_lattice_locus):
        comps = split_components(four_band_lattice_locus)
        fermi = [c for c in comps if c.kind == "loop" and c.gap_index == 2]
        lines = [c for c in comps if c.kind == "loop" and c.gap_index == 1]
        assert len(fermi) == 8
        assert len(lines) == 4
        assert all(c.item.is_contractible for c in fermi)
        assert all(not c.item.is_contractible for c in lines)


class TestLocusInvariants:
    def test_reported_gaps_below_tolerance(self, weyl2_locus, nodal_loop2_locus):
        for p in weyl2_locus.points:
            assert p.residual_gap < 1e-8
        for l in nodal_loop2_locus.loops:
            assert l.max_vertex_gap < 1e-6

    def test_resolution_doubling_points(self, weyl2):
        a = bt.extract_locus(weyl2, resolution=16)
        b = bt.extract_locus(weyl2, resolution=32)
        pa = sorted(tuple(np.round(p.position, 9)) for p in a.points)
        pb = sorted(tuple(np.round(p.position, 9)) for p in b.points)
        assert len(pa) == len(pb) == 2
        for x, y in zip(pa, pb):
            assert np.linalg.norm(np.array(x) - np.array(y)) < 1e-6

    def test_resolution_doubling_loops_hausdorff(self, nodal_loop2):
        a = bt.extract_locus(nodal_loop2, resolution=16).loops[0].vertices
        b = bt.extract_locus(nodal_loop2, resolution=32).loops[0].vertices
        d = 0.0
        for p in a:
            d = max(d, np.linalg.norm(torus_delta(b, p), axis=-1).min())
        for p in b:
            d = max(d, np.linalg.norm(torus_delta(a, p), axis=-1).min())
        assert d < 2 * math.pi / 16

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_dense_oracle(self, seed):
        model = random_two_band(seed)
        locus = bt.extract_locus(model, resolution=24)
        oracle = dense_zero_count(model.two_band_field, 96)
        assert len(locus.points) == oracle
        assert len(locus.loops) == 0

    def test_export_round_trip(self, four_band_locus):
        payload = four_band_locus.to_json()
        assert payload["schema_version"] == 1
        kinds = sorted(c["type"] for c in payload["components"])
        assert kinds == ["arc", "loop"]
        ids = [c["id"] for c in payload["components"]]
        assert len(set(ids)) == len(ids)


def count_spectrum_calls(monkeypatch):
    """Count ``BlochModel.spectrum`` calls; returns the k-points of each call."""
    calls = []
    spectrum = bt.BlochModel.spectrum

    def counted(self, k):
        calls.append(int(np.prod(np.shape(k)[:-1])))
        return spectrum(self, k)

    monkeypatch.setattr(bt.BlochModel, "spectrum", counted)
    return calls


BUILTIN_LOCI = ["weyl2_locus", "nodal_loop2_locus", "four_band_locus",
                "four_band_lattice_locus"]


def locus_and_model(request, name):
    locus = request.getfixturevalue(name)
    model = request.getfixturevalue(name[: -len("_locus")])
    return locus, model


def near_locus_points(locus, rng, per_curve=2, noise=0.05):
    """(k, gap index) a little off the refined points and traced vertices."""
    anchors = [(p.position, p.gap_index) for p in locus.points]
    for curve in (*locus.loops, *locus.open_arcs):
        for i in rng.choice(len(curve.vertices), size=per_curve, replace=False):
            anchors.append((curve.vertices[i], curve.gap_index))
    return [(k + rng.normal(scale=noise, size=3), g) for k, g in anchors]


def scan_spacing(model, resolution=32):
    return bt.locus.ScanGrid(model, resolution).spacing


class TestBatchedKernels:
    """The batched stencils give bitwise the pointwise results of the
    references in conftest."""

    @pytest.mark.parametrize("name", BUILTIN_LOCI)
    def test_gap_tangent_bitwise(self, request, name):
        from bandtopo.locus import _gap_tangent

        _, model = locus_and_model(request, name)
        rng = np.random.default_rng(11)
        ext = math.pi if model.domain.is_torus else 0.8 * model.domain.extent
        for k in rng.uniform(-ext, ext, size=(6, 3)):
            for g in range(1, model.band_count):
                # the floor, the seed corrector's and the marcher's steps
                for fd in (1e-5, scan_spacing(model) / 10, 0.6 * scan_spacing(model) / 8):
                    t, w = _gap_tangent(model, k, g, fd)
                    rt, rw = reference_gap_tangent(model, k, g, fd)
                    assert t.tobytes() == rt.tobytes()
                    assert w.tobytes() == rw.tobytes()

    @pytest.mark.parametrize("name", BUILTIN_LOCI)
    def test_corrector_bitwise(self, request, name):
        from bandtopo.exceptions import RefinementError
        from bandtopo.locus import VERTEX_TOL, _correct_to_curve

        locus, model = locus_and_model(request, name)
        rng = np.random.default_rng(12)
        fd = max(scan_spacing(model) / 10.0, 1e-5)
        outcomes = set()
        for k, g in near_locus_points(locus, rng)[:8]:
            tangent, _ = reference_gap_tangent(model, k, g, fd)
            try:
                ref = reference_correct_to_curve(model, k, tangent, g, VERTEX_TOL, fd)
            except RefinementError as exc:
                with pytest.raises(RefinementError) as info:
                    _correct_to_curve(model, k, tangent, g, VERTEX_TOL, fd)
                assert str(info.value) == str(exc)
                assert info.value.position.tobytes() == exc.position.tobytes()
                outcomes.add("stalled")
                continue
            got = _correct_to_curve(model, k, tangent, g, VERTEX_TOL, fd)
            assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]
            outcomes.add("converged")
        # point-like loci stall in the curve corrector; near a curve it converges
        point_like = name == "weyl2_locus"
        assert ("converged" in outcomes) != point_like

    @pytest.mark.parametrize("name", BUILTIN_LOCI[1:])
    def test_transverse_slope_bitwise(self, request, name):
        from bandtopo.locus import _transverse_slope

        locus, model = locus_and_model(request, name)
        spacing = scan_spacing(model)
        for curve in (*locus.loops, *locus.open_arcs):
            got = _transverse_slope(model, curve.vertices, curve.gap_index, spacing)
            ref = reference_transverse_slope(model, curve.vertices, curve.gap_index, spacing)
            assert got == ref

    @pytest.mark.parametrize("model", [bt.builtin("weyl-lattice", m=2), random_two_band(3)],
                             ids=["weyl-lattice", "random-two-band-3"])
    def test_newton_bitwise(self, model):
        from bandtopo.locus import POINT_TOL, _newton_on_field

        field = model.two_band_field
        rng = np.random.default_rng(13)
        converged = 0
        for seed in rng.uniform(-math.pi, math.pi, size=(6, 3)):
            got = _newton_on_field(field, seed, POINT_TOL / 2.0, 60)
            ref = reference_newton_on_field(field, seed, POINT_TOL / 2.0, 60)
            assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]
            converged += 0 < got[1] < 60
        assert converged

    def test_normal_basis_bitwise(self, four_band_lattice_locus):
        from bandtopo.locus import _normal_basis

        rng = np.random.default_rng(14)
        tangents = [*rng.normal(size=(100, 3)), np.array([0.0, 0.0, 1.0]),
                    np.array([-1.0, 0.0, -0.0]), np.array([1e-300, 2.0, -3.0])]
        for loop in four_band_lattice_locus.loops:
            tangents += list(np.diff(loop.vertices, axis=0))
        for t in tangents:
            got, ref = _normal_basis(t), reference_normal_basis(t)
            assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))


def random_cell_sets():
    """Flagged-cell sets: sparse random sets (many seam crossings), lines
    and a helix that wind around T^3, and box grids."""
    rng = np.random.default_rng(5)
    sets = []
    for n, density in ((8, 0.08), (8, 0.25), (12, 0.05), (12, 0.15), (16, 0.03)):
        mask = rng.random((n, n, n)) < density
        sets.append((n, True, [tuple(map(int, c)) for c in np.argwhere(mask)]))
    n = 12
    line = [(i, 3, 5) for i in range(n)]
    helix = [(i, (2 * i) % n, (i + j) % n) for i in range(n) for j in (0, 1)]
    seam = [(n - 1, 0, 0), (0, 0, 0), (0, n - 1, n - 1), (1, 1, n - 1), (6, 6, 6)]
    sets += [(n, True, line), (n, True, helix), (n, True, seam), (n, True, line + helix)]
    for n, density in ((8, 0.2), (12, 0.1)):
        mask = rng.random((n, n, n)) < density
        cells = [tuple(map(int, c)) for c in np.argwhere(mask)]
        sets.append((n, False, cells))
    sets.append((12, False, line + seam))
    return sets


class TestClusterCells:
    @pytest.mark.parametrize("case", range(len(random_cell_sets())))
    def test_matches_set_reference(self, case):
        from bandtopo.locus import _cluster_cells

        n, torus, cells = random_cell_sets()[case]
        rng = np.random.default_rng(case)
        shuffled = [cells[i] for i in rng.permutation(len(cells))]
        got = _cluster_cells(shuffled, n, torus)
        assert got == reference_cluster_cells(shuffled, n, torus)
        assert all(type(x) is int for cl in got for c in cl for x in c)

    def test_winding_clusters_unwrapped(self):
        from bandtopo.locus import _cluster_cells

        line = [(i, 3, 5) for i in range(12)]
        (cluster,) = _cluster_cells(line, 12, True)
        assert np.ptp(np.array(cluster)[:, 0]) == 11

    @pytest.mark.parametrize("name", BUILTIN_LOCI)
    def test_scan_clusters_match_reference(self, request, name):
        from bandtopo.locus import _cluster_cells

        _, model = locus_and_model(request, name)
        scan = scan_grid(model, resolution=32)
        for g, cells in scan.flagged.items():
            assert _cluster_cells(cells, 32, scan.grid.torus) == reference_cluster_cells(
                cells, 32, scan.grid.torus
            )

    def test_empty(self):
        from bandtopo.locus import _cluster_cells

        assert _cluster_cells([], 8, True) == []


class TestCoverage:
    def test_names_first_uncovered_cell(self, weyl2):
        from bandtopo.locus import ScanGrid, _check_coverage

        grid = ScanGrid(weyl2, 16)
        verts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        centers = np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        with pytest.raises(LocusAmbiguityError, match=r"cell at \[2\.0, 0\.0, 0\.0\] lies 1\.500"):
            _check_coverage(verts, centers, grid, [None] * 3, 1, 1.0)

    def test_torus_distance_wraps(self, weyl2):
        from bandtopo.locus import ScanGrid, _check_coverage

        grid = ScanGrid(weyl2, 16)
        _check_coverage(np.array([[-3.1, 0.0, 0.0]]), np.array([[3.1, 0.0, 0.0]]),
                        grid, [None], 1, 0.1)


class TestEigensolveCounts:
    """Each stencil is one eigensolve call, so the extraction makes few."""

    @pytest.mark.parametrize("name, m, limit", [
        ("four-band-linked-lattice", 1, 2400),
        ("weyl-lattice", 2, 250),
    ])
    def test_extract_spectrum_calls(self, monkeypatch, name, m, limit):
        calls = count_spectrum_calls(monkeypatch)
        bt.extract_locus(bt.builtin(name, m=m), resolution=32)
        assert 0 < len(calls) <= limit


def rotated_nodal_loop(m, seed):
    """nodal-loop-real with its field rotated by a random orthogonal matrix:
    still one nodal loop, but no component of h vanishes identically, so
    Newton on h can converge onto the loop."""
    base = bt.builtin("nodal-loop-real", m=m).two_band_field
    rot = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    comps = [
        CoefficientSpec([(kind, n, rot[i, j] * amp) for j in range(3)
                         for kind, n, amp in base.components[j].entries])
        for i in range(3)
    ]
    return model_from_field(f"rotated-nodal-loop-{seed}", TwoBandField(comps), reality=False)


SEED_CASES = {
    "weyl-1.7": (lambda: bt.builtin("weyl-lattice", m=1.7), 32),
    "weyl-2": (lambda: bt.builtin("weyl-lattice", m=2), 32),
    "nodal-loop-real": (lambda: bt.builtin("nodal-loop-real", m=2), 32),
    "four-band-linked": (lambda: bt.builtin("four-band-linked", m=1), 32),
    "four-band-linked-lattice": (lambda: bt.builtin("four-band-linked-lattice", m=1), 32),
    **{f"random-{s}": (lambda s=s: random_two_band(s), 32) for s in range(6)},
    # coarse grids, where curve seeds can pass the seed-ratio test
    "four-band-linked-lattice-16": (lambda: bt.builtin("four-band-linked-lattice", m=1), 16),
    "rotated-nodal-loop-16": (lambda: rotated_nodal_loop(1.5, 0), 16),
}


class TestSeedClassification:
    """Trying point-like seeds as points first changes no extracted locus."""

    @staticmethod
    def components(locus):
        # to_record keeps every coordinate as a float, so the records compare
        # positions and vertices exactly
        return [c.to_record() for c in split_components(locus)]

    @pytest.mark.parametrize("case", sorted(SEED_CASES))
    def test_same_locus_as_curve_first(self, monkeypatch, case):
        from bandtopo import locus as locus_mod

        make, grid = SEED_CASES[case]
        model = make()
        corrector = []
        correct = locus_mod._correct_to_curve

        def counted(*args, **kwargs):
            corrector.append(None)
            return correct(*args, **kwargs)

        monkeypatch.setattr(locus_mod, "_correct_to_curve", counted)
        got = self.components(bt.extract_locus(model, resolution=grid))
        seed_first = len(corrector)
        monkeypatch.setattr(locus_mod, "SEED_POINT_RATIO", math.inf)
        assert got == self.components(bt.extract_locus(model, resolution=grid))
        if case.startswith("weyl"):
            # curve-first runs the corrector on every Weyl cluster; seed-first never
            assert seed_first == 0 < len(corrector)

    def test_rotated_loop_stays_a_loop(self):
        # Newton converges onto this loop from a point-like seed; only the
        # Hessian ratio at the refined zero rejects it as a point
        locus = bt.extract_locus(rotated_nodal_loop(1.5, 0), resolution=16)
        assert (len(locus.points), len(locus.loops)) == (0, 1)

    @pytest.mark.parametrize("name, m, grid, limit", [
        ("weyl-lattice", 2, 32, 40),
        ("four-band-linked-lattice", 1, 16, 1500),
    ])
    def test_spectrum_calls(self, monkeypatch, name, m, grid, limit):
        # Weyl clusters run no curve tracer; multiband curve clusters run no
        # Nelder-Mead point attempt, even where their seeds look point-like
        calls = count_spectrum_calls(monkeypatch)
        bt.extract_locus(bt.builtin(name, m=m), resolution=grid)
        assert 0 < len(calls) <= limit
