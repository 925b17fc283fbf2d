import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import LocusAmbiguityError, RefinementError
from bandtopo.locus import scan_grid, split_components
from bandtopo.model import CoefficientSpec, TwoBandField, model_from_field, torus_delta

from conftest import (
    dense_zero_count,
    gapped_model,
    random_two_band,
    reference_cluster_cells,
    reference_transverse_slope,
)


def reference_scan_grid(model, resolution, gap_threshold=None):
    """Cell flags of ``scan_grid`` from rolled corner copies and per-cell
    indexing: thresholds, flagged cells and their minimum gaps."""
    from bandtopo.locus import ScanGrid

    grid = ScanGrid(model, resolution)
    pts = grid.points()
    spectrum = model.spectrum(pts.reshape(-1, 3)).reshape(pts.shape[:-1] + (-1,))
    n = grid.resolution
    thresholds, flagged, min_gaps = {}, {}, {}
    for g in range(1, model.occupied_count + 1):
        gap = model.gap_of(spectrum, g)
        mins = np.full((n, n, n), np.inf)
        maxs = np.full((n, n, n), -np.inf)
        for di in (0, 1):
            for dj in (0, 1):
                for dl in (0, 1):
                    if grid.torus:
                        block = np.roll(np.roll(np.roll(gap, -di, 0), -dj, 1), -dl, 2)
                    else:
                        block = gap[di : di + n, dj : dj + n, dl : dl + n]
                    mins = np.minimum(mins, block)
                    maxs = np.maximum(maxs, block)
        spread = maxs - mins
        if gap_threshold is None:
            floor = 0.12 * float(np.max(spread))
            mask = mins < np.maximum(1.35 * spread, floor)
            thresholds[g] = float(np.max(spread)) * 1.35
        else:
            mask = mins < float(gap_threshold)
            thresholds[g] = float(gap_threshold)
        idx = np.argwhere(mask)
        flagged[g] = [tuple(map(int, t)) for t in idx]
        min_gaps[g] = {tuple(map(int, t)): float(mins[tuple(t)]) for t in idx}
    return thresholds, flagged, min_gaps


def cluster_count(scan, gap_index=1):
    from bandtopo.locus import _cluster_cells

    return len(
        _cluster_cells(scan.flagged[gap_index], scan.grid.resolution, scan.grid.torus)
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

    @pytest.mark.parametrize("name", ["weyl2", "nodal_loop2", "four_band", "four_band_lattice"])
    @pytest.mark.parametrize("threshold", [None, 0.3])
    def test_matches_rolled_corner_reference(self, request, name, threshold):
        """Same flagged cells in the same order, with bitwise-equal minimum
        gaps, as rolled corner copies and per-cell indexing give."""
        model = request.getfixturevalue(name)
        scan = scan_grid(model, resolution=16, gap_threshold=threshold)
        ref_thresholds, ref_flagged, ref_min = reference_scan_grid(model, 16, threshold)
        assert scan.gap_threshold == ref_thresholds
        assert scan.flagged == ref_flagged
        for g, cells in scan.flagged.items():
            assert all(type(i) is int for cell in cells for i in cell)
            got = scan.cell_min_gap[g]
            assert list(got) == list(ref_min[g])
            assert np.array(list(got.values())).tobytes() == np.array(
                list(ref_min[g].values())).tobytes()
        assert sum(map(len, scan.flagged.values())) > 0


class TestRefinePoint:
    def test_weyl_seed(self, weyl2):
        p = bt.refine_point(weyl2, [0.1, -0.1, 1.5])
        assert np.linalg.norm(p.position - np.array([0, 0, math.pi / 2])) < 1e-6
        assert p.residual_gap < 1e-8

    def test_gapped_seed_fails(self):
        with pytest.raises(RefinementError) as info:
            bt.refine_point(gapped_model(), [0.3, 0.3, 0.3])
        assert info.value.residual is not None

    def test_newton_converges_in_few_steps(self, weyl2):
        p = bt.refine_point(weyl2, [0.1, -0.1, 1.5])
        assert p.residual_gap < bt.locus.POINT_TOL
        assert 0 < p.refinement_iterations <= 4

    def test_exact_zero_zero_iterations(self, weyl2):
        p = bt.refine_point(weyl2, [0.0, 0.0, math.pi / 2])
        assert p.refinement_iterations == 0
        assert p.residual_gap < 1e-10


class TestTraceLoops:
    def test_nodal_loop_planar(self, nodal_loop2_locus):
        loops, arcs = nodal_loop2_locus.loops, nodal_loop2_locus.open_arcs
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

    def test_weyl_zero_loops(self, weyl2_locus):
        assert weyl2_locus.loops == [] and weyl2_locus.open_arcs == []
        assert len(weyl2_locus.points) == 2

    def test_nodal_surface_is_ambiguous(self):
        # gap vanishes on the 2D sheets cos kz = 0.3: dimension must be
        # rejected loudly
        h1 = CoefficientSpec([("cos", (0, 0, 1), 1.0), ("cos", (0, 0, 0), -0.3)])
        field = TwoBandField([h1, CoefficientSpec([]), CoefficientSpec([])])
        m = model_from_field("nodal-surface", field, reality=True)
        # the crossing Jacobian has rank 1 on a sheet: its second singular
        # value, the flattest transverse slope, is exactly 0
        with pytest.raises(LocusAmbiguityError, match=r"gap slope 0\.00e\+00"):
            bt.extract_locus(m, resolution=16)

    def test_consecutive_vertex_spacing(self, nodal_loop2_locus):
        loop = nodal_loop2_locus.loops[0]
        spacing = 2 * math.pi / 32
        deltas = np.linalg.norm(
            np.roll(loop.vertices, -1, axis=0) - loop.vertices, axis=1
        )
        assert np.max(deltas) < 2 * spacing

    @pytest.mark.parametrize("m", [0.93, 1])
    def test_winding_matches_vertex_order(self, m, four_band_lattice_locus):
        # the reported winding is that of the stored vertex order, also for
        # loops the canonical orientation reversed
        locus = (four_band_lattice_locus if m == 1 else
                 bt.extract_locus(bt.builtin("four-band-linked-lattice", m=m), resolution=32))
        windings = set()
        for loop in locus.loops:
            edges = torus_delta(np.roll(loop.vertices, -1, axis=0), loop.vertices)
            assert list(loop.winding) == np.round(edges.sum(axis=0) / (2 * math.pi)).tolist()
            windings.add(tuple(loop.winding))
        assert len(windings) > 1

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


def count_eigensolve_calls(monkeypatch):
    """Count ``BlochModel.spectrum`` and ``eigenframes`` calls."""
    calls = []
    for name in ("spectrum", "eigenframes"):
        method = getattr(bt.BlochModel, name)

        def counted(self, *args, method=method, **kwargs):
            calls.append(None)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(bt.BlochModel, name, counted)
    return calls


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


def scan_spacing(model, resolution=32):
    return bt.locus.ScanGrid(model, resolution).spacing


class TestCurveSlopes:
    """The transverse gap slopes of a traced curve come from the crossing
    Jacobian at its vertices: 2 min s1 and 2 max s0."""

    @pytest.mark.parametrize("name", [*BUILTIN_LOCI[1:], "four_band_lattice_093"])
    def test_jacobian_slopes_match_probes(self, request, name):
        from bandtopo.locus import _singular_values

        if name in BUILTIN_LOCI:
            locus, model = locus_and_model(request, name)
        else:
            model = bt.builtin("four-band-linked-lattice", m=0.93)
            locus = bt.extract_locus(model, resolution=32)
        spacing = scan_spacing(model)
        curves = (*locus.loops, *locus.open_arcs)
        assert curves
        for curve in curves:
            s = np.array([_singular_values(model, v, curve.gap_index) for v in curve.vertices])
            probe_min, probe_max = reference_transverse_slope(
                model, curve.vertices, curve.gap_index, spacing
            )
            assert 0.9 <= 2.0 * s[:, 1].min() / probe_min <= 1.15
            assert 0.9 <= 2.0 * s[:, 0].max() / probe_max <= 1.15

    def test_one_spectrum_call_per_scan_block_and_cluster(self, monkeypatch):
        # the curve tracer reads the gap from its own eigenframes: the only
        # spectrum calls left are the scan's blocks and one seed per cluster
        from bandtopo.locus import SCAN_BLOCK, _cluster_cells

        model = bt.builtin("four-band-linked-lattice", m=1)
        scan = scan_grid(model, resolution=32)
        clusters = sum(len(_cluster_cells(cells, 32, True)) for cells in scan.flagged.values())
        calls = count_spectrum_calls(monkeypatch)
        bt.extract_locus(model, resolution=32)
        assert len(calls) == math.ceil(32 ** 3 / SCAN_BLOCK) + clusters


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
    """Each Newton step is one eigensolve call, so the extraction makes few."""

    @pytest.mark.parametrize("name, m, limit", [
        ("four-band-linked-lattice", 1, 2400),
        ("weyl-lattice", 2, 250),
    ])
    def test_extract_spectrum_calls(self, monkeypatch, name, m, limit):
        calls = count_eigensolve_calls(monkeypatch)
        bt.extract_locus(bt.builtin(name, m=m), resolution=32)
        assert 0 < len(calls) <= limit

    def test_curve_tracing_calls(self, monkeypatch):
        # 12 curves of ~45 vertices, about two Newton steps per vertex
        calls = count_eigensolve_calls(monkeypatch)
        bt.extract_locus(bt.builtin("four-band-linked-lattice", m=1), resolution=32)
        assert 0 < len(calls) <= 1200


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
        # Newton on h converges onto this loop from any seed; the rank of the
        # crossing Jacobian keeps it from being taken for a point
        locus = bt.extract_locus(rotated_nodal_loop(1.5, 0), resolution=16)
        assert (len(locus.points), len(locus.loops)) == (0, 1)

    @pytest.mark.parametrize("name, m, grid, limit", [
        ("weyl-lattice", 2, 32, 40),
        ("four-band-linked-lattice", 1, 16, 1500),
    ])
    def test_spectrum_calls(self, monkeypatch, name, m, grid, limit):
        # Weyl clusters run no curve tracer; curve clusters run no point
        # attempt first
        calls = count_eigensolve_calls(monkeypatch)
        bt.extract_locus(bt.builtin(name, m=m), resolution=grid)
        assert 0 < len(calls) <= limit

    @pytest.mark.parametrize("name, m, points", [
        ("nodal-loop-real", 2, False),
        ("four-band-linked-lattice", 1, False),
        ("weyl-lattice", 2, True),
        ("weyl-lattice", 1.7, True),
    ])
    def test_seed_ratio_separates_points_from_curves(self, name, m, points):
        # real models have a 2x3 crossing Jacobian, so their ratio is exactly 0
        from bandtopo.locus import (
            SEED_POINT_RATIO, _cluster_cells, _cluster_seed, _point_ratio, _singular_values,
        )

        model = bt.builtin(name, m=m)
        scan = scan_grid(model, resolution=32)
        ratios = []
        for g, cells in scan.flagged.items():
            for cluster in _cluster_cells(cells, 32, scan.grid.torus):
                seed = _cluster_seed(model, scan.grid, cluster, g)[1]
                ratios.append(_point_ratio(_singular_values(model, seed, g)))
        assert ratios
        if points:
            assert min(ratios) > 2 * SEED_POINT_RATIO
        else:
            assert set(ratios) == {0.0}


class TestLockstep:
    """Tracing every curve cluster in lockstep gives, bitwise, what tracing
    each cluster alone gives."""

    @staticmethod
    def traced(monkeypatch, model, scan):
        # _march_curve's (vertices, gaps, singular values, closed, winding)
        # for every curve _resolve_clusters marches, in vertex-bytes order
        from bandtopo import locus as locus_mod

        marches = []
        march = locus_mod._march_curve

        def recorded(*args):
            result = yield from march(*args)
            marches.append(result)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(locus_mod, "_march_curve", recorded)
            items = locus_mod._resolve_clusters(model, scan)
        return items, sorted(marches, key=lambda m: m[0].tobytes())

    @pytest.mark.parametrize("name, grid, kinds", [
        ("four-band-linked-lattice", 16, {(1, "loop"): 4, (2, "loop"): 8}),
        ("four-band-linked", 32, {(1, "arc"): 1, (2, "loop"): 1}),
    ], ids=["four-band-linked-lattice-16", "four-band-linked-32"])
    def test_alone_equals_together(self, monkeypatch, name, grid, kinds):
        import dataclasses

        from bandtopo.locus import NodalLoop, _cluster_cells

        model = bt.builtin(name, m=1)
        scan = scan_grid(model, resolution=grid)
        items, together = self.traced(monkeypatch, model, scan)
        got = {}
        for item in items:
            key = (item.gap_index, "loop" if isinstance(item, NodalLoop) else "arc")
            got[key] = got.get(key, 0) + 1
        assert got == kinds
        alone = []
        n = scan.grid.npoints
        for g, cells in scan.flagged.items():
            for cluster in _cluster_cells(cells, grid, scan.grid.torus):
                wrapped = [tuple(x % n for x in c) for c in cluster]
                one = dataclasses.replace(scan, flagged={g: wrapped})
                alone += self.traced(monkeypatch, model, one)[1]
        alone.sort(key=lambda m: m[0].tobytes())
        assert len(alone) == len(together) == len(items)
        for (v0, g0, s0, c0, w0), (v1, g1, s1, c1, w1) in zip(alone, together):
            for a, b in ((v0, v1), (g0, g1), (s0, s1)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert c0 == c1
            assert (w0 is None and w1 is None) or np.array_equal(w0, w1)

    def test_first_failing_cluster_raises(self):
        # at grid 16 two Weyl points share one cluster; the lockstep tracer
        # raises that cluster's error, as tracing the clusters in turn does
        with pytest.raises(LocusAmbiguityError, match=(
            r"^cluster of 126 cells near \[2\.945, 2\.945, -0\.196\] \(gap 1\) is "
            "neither point-like nor curve-like"
        )):
            bt.extract_locus(random_two_band(6), resolution=16)
