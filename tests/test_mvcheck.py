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
    def test_balanced_pair_passes(self):
        assert bt.cancellation_chirality(ledger_with_points([1, -1])).passed

    def test_empty_passes(self):
        assert bt.cancellation_chirality(ledger_with_points([])).passed

    def test_unbalanced_fails(self):
        assert not bt.cancellation_chirality(ledger_with_points([1, 1])).passed

    def test_missing_entry_errors(self):
        ledger = ledger_with_points([1])
        ledger.entries.append(
            LedgerEntry(id="P9", kind="point", gap_index=1, position=[0, 0, 0])
        )
        with pytest.raises(LedgerError):
            bt.cancellation_chirality(ledger)

    def test_pure_function_of_ledger(self):
        ledger = ledger_with_points([2, -2])
        a = bt.cancellation_chirality(ledger)
        b = bt.cancellation_chirality(ledger)
        assert a.passed == b.passed and a.detail == b.detail


class TestCancellationW2:
    def test_pair_passes(self):
        assert bt.cancellation_w2(ledger_with_loops([1, 1])).passed

    def test_single_fails(self):
        assert not bt.cancellation_w2(ledger_with_loops([1])).passed

    def test_missing_errors(self):
        ledger = ledger_with_loops([1])
        ledger.entries.append(LedgerEntry(id="L9", kind="loop", gap_index=2))
        with pytest.raises(LedgerError):
            bt.cancellation_w2(ledger)

    def test_sub_fermi_loops_ignored(self):
        ledger = ledger_with_loops([1, 1])
        ledger.entries.append(
            LedgerEntry(id="L9", kind="loop", gap_index=1, w2=None)
        )
        assert bt.cancellation_w2(ledger).passed


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
        checked, framed = [], []
        check, frames_at = invariants._check_loop_gap, invariants.frames_at

        def counted_check(model, loop, min_gap):
            checked.append(np.asarray(loop.vertices))
            return check(model, loop, min_gap)

        def counted_frames(model, points, occupied=None):
            framed.append(np.asarray(points))
            return frames_at(model, points, occupied=occupied)

        monkeypatch.setattr(invariants, "_check_loop_gap", counted_check)
        monkeypatch.setattr(invariants, "frames_at", counted_frames)
        ledger = bt.assemble_ledger(model, locus, mesh=(32, 32))
        loops = [e for e in ledger.entries if e.kind == "loop"]
        assert loops and all(e.berry_w1 is not None for e in loops)
        assert len(checked) == len(loops)
        for verts in checked:  # each meridian's frames are taken once
            assert sum(f.shape == verts.shape and np.array_equal(f, verts)
                       for f in framed) == 1

    def test_explicit_zero_radius_rejected(self, weyl2, weyl2_locus, nodal_loop2,
                                           nodal_loop2_locus):
        with pytest.raises(SurfaceError, match="sphere radius must be positive"):
            bt.assemble_ledger(weyl2, weyl2_locus, sphere_radius=0.0)
        with pytest.raises(SurfaceError, match="tube radius must be positive"):
            bt.assemble_ledger(nodal_loop2, nodal_loop2_locus, tube_radius=0.0)

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
        assert ledger.all_passed

    def test_ledger_json_round_trip(self, weyl2, weyl2_locus):
        ledger = bt.assemble_ledger(weyl2, weyl2_locus, mesh=(48, 48))
        verify_ledger(weyl2, ledger)
        payload = ledger.to_json()
        assert payload["schema_version"] == 1
        assert payload["totals"]["chirality_sum"] == 0
        assert {e["id"] for e in payload["entries"]} == {"P0", "P1"}
