import math

import numpy as np
import pytest

import bandtopo as bt
from bandtopo.exceptions import LedgerError, SurfaceError
from bandtopo.mvcheck import ChargeLedger, LedgerEntry, verify_ledger

from conftest import gapped_model


def ledger_with_points(charges, axis_coords=None):
    ledger = ChargeLedger(model_name="synthetic", occupied_count=1)
    for i, q in enumerate(charges):
        pos = [0.0, 0.0, axis_coords[i]] if axis_coords else [0.0, 0.0, 0.0]
        ledger.entries.append(
            LedgerEntry(id=f"P{i}", kind="point", gap_index=1, position=pos, chirality=q)
        )
    return ledger


def ledger_with_loops(w2s):
    ledger = ChargeLedger(model_name="synthetic", occupied_count=2)
    for i, w in enumerate(w2s):
        ledger.entries.append(
            LedgerEntry(id=f"L{i}", kind="loop", gap_index=2, w2=w)
        )
    return ledger


class TestCancellationChirality:
    def test_balanced_pair_passes(self, weyl2):
        assert bt.cancellation_chirality(weyl2, ledger_with_points([1, -1])).passed

    def test_empty_passes(self, weyl2):
        assert bt.cancellation_chirality(weyl2, ledger_with_points([])).passed

    def test_unbalanced_fails(self, weyl2):
        assert not bt.cancellation_chirality(weyl2, ledger_with_points([1, 1])).passed

    def test_missing_entry_errors(self, weyl2):
        ledger = ledger_with_points([1])
        ledger.entries.append(
            LedgerEntry(id="P9", kind="point", gap_index=1, position=[0, 0, 0])
        )
        with pytest.raises(LedgerError):
            bt.cancellation_chirality(weyl2, ledger)

    def test_pure_function_of_ledger(self, weyl2):
        ledger = ledger_with_points([2, -2])
        a = bt.cancellation_chirality(weyl2, ledger)
        b = bt.cancellation_chirality(weyl2, ledger)
        assert a.passed == b.passed and a.detail == b.detail


class TestCancellationW2:
    def test_pair_passes(self, four_band_lattice):
        assert bt.cancellation_w2(four_band_lattice, ledger_with_loops([1, 1])).passed

    def test_single_fails(self, four_band_lattice):
        assert not bt.cancellation_w2(four_band_lattice, ledger_with_loops([1])).passed

    def test_missing_errors(self, four_band_lattice):
        ledger = ledger_with_loops([1])
        ledger.entries.append(LedgerEntry(id="L9", kind="loop", gap_index=2))
        with pytest.raises(LedgerError):
            bt.cancellation_w2(four_band_lattice, ledger)

    def test_sub_fermi_loops_ignored(self, four_band_lattice):
        ledger = ledger_with_loops([1, 1])
        ledger.entries.append(
            LedgerEntry(id="L9", kind="loop", gap_index=1, w2=None)
        )
        assert bt.cancellation_w2(four_band_lattice, ledger).passed


class TestStokesJumpCheck:
    def test_weyl_scan_passes(self, weyl2, weyl2_locus):
        ledger = bt.assemble_ledger(weyl2, weyl2_locus, mesh=(48, 48))
        verdict = bt.stokes_jump_check(weyl2, "z", ledger, n_u=48, n_v=48)
        assert verdict.passed, verdict.detail

    def test_gapped_trivially_passes(self):
        model = gapped_model()
        ledger = ChargeLedger(model_name=model.name, occupied_count=1)
        verdict = bt.stokes_jump_check(model, "z", ledger, n_u=16, n_v=16)
        assert verdict.passed

    def test_one_valid_slice_not_applicable(self, weyl2):
        # one point gives one slice, which brackets the whole torus
        ledger = ledger_with_points([1], axis_coords=[1.0])
        verdict = bt.stokes_jump_check(weyl2, "z", ledger, n_u=16, n_v=16)
        assert verdict.passed and not verdict.applicable
        assert "fewer than two valid slices: 1 of 1" in verdict.detail

    def test_flipped_sign_fails(self, weyl2, weyl2_locus):
        ledger = bt.assemble_ledger(weyl2, weyl2_locus, mesh=(48, 48))
        for e in ledger.entries:
            e.chirality = -e.chirality
        verdict = bt.stokes_jump_check(weyl2, "z", ledger, n_u=48, n_v=48)
        assert not verdict.passed


class TestAssembleLedger:
    def test_weyl_ledger(self, weyl2, weyl2_locus):
        ledger = bt.assemble_ledger(weyl2, weyl2_locus, mesh=(48, 48))
        assert len(ledger.entries) == 2
        by_z = {round(e.position[2], 3): e.chirality for e in ledger.entries}
        assert by_z[round(-math.pi / 2, 3)] == 1
        assert by_z[round(math.pi / 2, 3)] == -1
        assert all(e.chirality_residual < 0.01 for e in ledger.entries)
        totals = ledger.totals()
        assert totals["chirality_sum"] == 0

    def test_nodal_loop_ledger(self, nodal_loop2, nodal_loop2_locus):
        ledger = bt.assemble_ledger(nodal_loop2, nodal_loop2_locus, mesh=(32, 32))
        (entry,) = ledger.entries
        assert entry.kind == "loop"
        assert abs(entry.berry_phase - math.pi) < 1e-3
        assert entry.berry_w1 == 1
        assert entry.w2 is None  # two-band model carries no monopole charge

    @pytest.mark.parametrize("name", ["nodal_loop2", "four_band_lattice"])
    def test_one_gap_check_and_frames_per_meridian(self, monkeypatch, request, name):
        from bandtopo import invariants

        model = request.getfixturevalue(name)
        locus = request.getfixturevalue(f"{name}_locus")
        sampled = []
        sample = invariants.sample_frames

        def counted_sample(model, points, between, *args, **kwargs):
            sampled.append((np.asarray(points), between))
            return sample(model, points, between, *args, **kwargs)

        monkeypatch.setattr(invariants, "sample_frames", counted_sample)
        ledger = bt.assemble_ledger(model, locus, mesh=(32, 32))
        loops = [e for e in ledger.entries if e.kind == "loop"]
        assert loops and all(e.berry_w1 is not None for e in loops)
        # each meridian is sampled once, at its 400 vertices and the
        # midpoints of its edges, for both loop charges
        assert len(sampled) == len(loops)
        for verts, mids in sampled:
            assert verts.shape == (400, 3)
            assert np.array_equal(mids, 0.5 * (verts + np.roll(verts, -1, axis=0)))

    @pytest.mark.parametrize("name, tubes", [
        ("four_band_lattice", 8), ("four_band", 1), ("nodal_loop2", 0), ("weyl2", 0),
    ])
    def test_tubes_only_where_w2_reads_them(self, monkeypatch, request, name, tubes):
        from bandtopo import mvcheck

        model = request.getfixturevalue(name)
        locus = request.getfixturevalue(f"{name}_locus")
        built = []
        tube_around = mvcheck.tube_around

        def counted_tube(*args, **kwargs):
            built.append(tube_around(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(mvcheck, "tube_around", counted_tube)
        ledger = bt.assemble_ledger(model, locus)
        assert len(built) == tubes
        assert [t.surface_id for t in built] == [
            e.surface_id for e in ledger.fermi_loop_entries if e.w2 is not None
        ]

    def test_loop_errors_keep_their_text(self, four_band_lattice, four_band_lattice_locus):
        # the first loop, L0, is a gap-1 companion that gets no tube: its
        # meridian ring refuses the radius and the mesh as the tube would
        locus = four_band_lattice_locus
        assert locus.loops[0].gap_index == 1
        with pytest.raises(SurfaceError, match=r"^tube radius 2\.5 too large: loop clearance "
                           r"is 6\.28319 \(needs radius < clearance / 3\)$"):
            bt.assemble_ledger(four_band_lattice, locus, tube_radius=2.5)
        with pytest.raises(SurfaceError, match=r"^mesh must be at least 3x3, got 2x2$"):
            bt.assemble_ledger(four_band_lattice, locus, mesh=(2, 2))

    def test_explicit_zero_radius_rejected(self, nodal_loop2, nodal_loop2_locus):
        with pytest.raises(SurfaceError, match="sphere radius must be positive"):
            bt.sphere_around([0, 0, 0], 0.0)
        with pytest.raises(SurfaceError, match="tube radius must be positive"):
            bt.assemble_ledger(nodal_loop2, nodal_loop2_locus, tube_radius=0.0)

    def test_tube_clearance_measured_on_the_torus(self, nodal_loop2):
        # circles of radius 0.5 at x = +-2.9: 5.8 apart in R^3, but only
        # 2 pi - 5.8 = 0.483 across the zone boundary
        loops = [
            bt.NodalLoop(bt.circle_loop([x, 0.0, 0.0], 0.5, [1, 0, 0], 120).vertices)
            for x in (-2.9, 2.9)
        ]
        locus = bt.NodalLocus(loops=loops, model_name=nodal_loop2.name)
        with pytest.raises(SurfaceError, match="0.483.* from the nearest other component"):
            bt.assemble_ledger(nodal_loop2, locus, mesh=(16, 16), tube_radius=0.2)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, nodal_loop2, nodal_loop2_locus, radius):
        with pytest.raises(SurfaceError, match="finite"):
            bt.assemble_ledger(nodal_loop2, nodal_loop2_locus, tube_radius=radius)

    def test_verify_ledger_verdicts(self, weyl2, weyl2_locus):
        ledger = bt.assemble_ledger(weyl2, weyl2_locus, mesh=(48, 48))
        verify_ledger(weyl2, ledger)
        names = [v.name for v in ledger.verdicts]
        assert "cancellation_chirality" in names
        assert "stokes_jump_check" in names
        assert all(v.passed for v in ledger.verdicts)

    def test_ledger_json_round_trip(self, weyl2, weyl2_locus):
        ledger = bt.assemble_ledger(weyl2, weyl2_locus, mesh=(48, 48))
        verify_ledger(weyl2, ledger)
        payload = ledger.to_json()
        assert payload["schema_version"] == 1
        assert payload["totals"]["chirality_sum"] == 0
        assert {e["id"] for e in payload["entries"]} == {"P0", "P1"}
