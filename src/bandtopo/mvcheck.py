"""Charge-cancellation harness.

Assembles per-component charges into a ChargeLedger and checks the global
consistency conditions that exactness of the Mayer-Vietoris sequence
imposes: point chiralities sum to zero, Fermi-loop Z2 monopole charges sum
to zero mod 2, and slice Chern numbers jump by the enclosed chirality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import LedgerError, ObstructionError, UnsupportedModelError
from .invariants import (
    berry_phase,
    chern_flux,
    chern_scan,
    degree,
    loop_frames,
    w1_along,
    w2_on,
)
from .locus import split_components
from .model import TWO_PI, torus_delta
from .surfaces import loop_clearance, sphere_around, tube_around, validate


@dataclass
class LedgerEntry:
    """Charges attached to one locus component."""

    id: str
    kind: str  # "point" | "loop" | "arc"
    gap_index: int
    position: list | None = None
    chirality: int | None = None
    chirality_residual: float | None = None
    berry_w1: int | None = None
    berry_phase: float | None = None
    berry_residual: float | None = None
    w2: int | None = None
    w2_crossings: int | None = None
    surface_id: str | None = None
    notes: str = ""
    # the W2Result with its Wilson spectrum, for CSV export; not serialized
    w2_result: object = field(default=None, repr=False, compare=False)

    def to_record(self):
        return {
            "id": self.id,
            "kind": self.kind,
            "gap_index": int(self.gap_index),
            "position": self.position,
            "chirality": self.chirality,
            "chirality_residual": self.chirality_residual,
            "berry_w1": self.berry_w1,
            "berry_phase": self.berry_phase,
            "berry_residual": self.berry_residual,
            "w2": self.w2,
            "w2_crossings": self.w2_crossings,
            "surface_id": self.surface_id,
            "notes": self.notes,
        }


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""

    def to_record(self):
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


@dataclass
class ChargeLedger:
    """Per-component charges with totals and cancellation verdicts."""

    model_name: str
    occupied_count: int
    entries: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    def entry(self, comp_id):
        for e in self.entries:
            if e.id == comp_id:
                return e
        raise LedgerError(f"no ledger entry with id {comp_id!r}")

    @property
    def point_entries(self):
        return [e for e in self.entries if e.kind == "point"]

    @property
    def fermi_loop_entries(self):
        return [
            e
            for e in self.entries
            if e.kind == "loop" and e.gap_index == self.occupied_count
        ]

    def totals(self):
        chir = [e.chirality for e in self.point_entries if e.chirality is not None]
        w2s = [e.w2 for e in self.fermi_loop_entries if e.w2 is not None]
        return {
            "chirality_sum": int(sum(chir)) if chir else 0,
            "w2_sum_mod2": int(sum(w2s) % 2) if w2s else 0,
            "n_points": len(self.point_entries),
            "n_fermi_loops": len(self.fermi_loop_entries),
        }

    def to_json(self):
        return {
            "schema_version": 1,
            "model": self.model_name,
            "occupied_count": int(self.occupied_count),
            "entries": [e.to_record() for e in self.entries],
            "totals": self.totals(),
            "verdicts": [v.to_record() for v in self.verdicts],
        }

    @property
    def all_passed(self):
        return all(v.passed for v in self.verdicts)


# -- cancellation verdicts -----------------------------------------------------


def cancellation_chirality(ledger):
    """Pass iff the point chiralities sum to zero (missing entries error)."""
    points = ledger.point_entries
    missing = [e.id for e in points if e.chirality is None]
    if missing:
        raise LedgerError(f"points without chirality entries: {missing}")
    total = sum(e.chirality for e in points)
    return Verdict(
        "cancellation_chirality",
        total == 0,
        f"sum of {len(points)} point chiralities = {total}",
    )


def cancellation_w2(ledger):
    """Pass iff the Fermi-level loop monopole charges sum to zero mod 2."""
    loops = ledger.fermi_loop_entries
    missing = [e.id for e in loops if e.w2 is None]
    if missing:
        raise LedgerError(f"Fermi loops without w2 entries: {missing}")
    total = sum(e.w2 for e in loops) % 2
    return Verdict(
        "cancellation_w2",
        total == 0,
        f"sum of {len(loops)} loop w2 charges mod 2 = {total}",
    )


def stokes_jump_check(model, axis, ledger, values=None, n_u=64, n_v=64):
    """Pass iff slice Chern jumps match the enclosed point chiralities.

    Slice values default to midpoints between the sorted axis coordinates
    of the ledger's points (plus the wrap-around midpoint), so every
    consecutive pair of slices brackets a known set of charges.
    """
    from .surfaces import AXES

    if not model.domain.is_torus:
        raise UnsupportedModelError("stokes_jump_check requires a lattice model")
    a = AXES[axis]
    points = ledger.point_entries
    missing = [e.id for e in points if e.chirality is None or e.position is None]
    if missing:
        raise LedgerError(f"points without chirality entries: {missing}")

    if values is None:
        coords = sorted({float(e.position[a]) for e in points})
        if not coords:
            values = [-math.pi + TWO_PI * i / 4 for i in range(4)]
        else:
            values = []
            for i, c in enumerate(coords):
                nxt = coords[(i + 1) % len(coords)]
                gap = (nxt - c) % TWO_PI
                values.append((c + gap / 2.0 + math.pi) % TWO_PI - math.pi)
            values = sorted(values)
    scan = chern_scan(model, axis, values, n_u=n_u, n_v=n_v)
    valid = [s for s in scan if not s.skipped]
    if len(valid) < len(values):
        skipped = [s.value for s in scan if s.skipped]
        raise LedgerError(f"slices through unclassified W at {skipped}")

    ok = True
    details = []
    n = len(valid)
    for i in range(n):
        s0, s1 = valid[i], valid[(i + 1) % n]
        expected = 0
        for e in points:
            c = float(e.position[a])
            lo, hi = s0.value, s1.value
            inside = (lo < c < hi) if i + 1 < n else (c > lo or c < hi)
            if inside:
                expected += e.chirality
        jump = s1.chern.value - s0.chern.value
        match = jump == expected
        ok = ok and match
        details.append(
            f"[{s0.value:+.3f},{s1.value:+.3f}]: dC={jump} expected={expected}"
        )
    return Verdict("stokes_jump_check", ok, "; ".join(details))


# -- ledger assembly --------------------------------------------------------------


DEFAULT_SPHERE_RADIUS = 0.3
DEFAULT_TUBE_RADIUS = 0.15
DEFAULT_MESH = (64, 64)
DEFAULT_LOOP_POINTS = 400


def _sample_points(comp):
    """The k-points that stand for a component: its position or vertices."""
    if comp.kind == "point":
        return np.asarray([comp.item.position])
    return np.asarray(comp.item.vertices)


def _component_min_separation(comp, others, torus):
    own = _sample_points(comp)[:, None, :]
    best = math.inf
    for other in others:
        if other.id == comp.id:
            continue
        pts = _sample_points(other)[None, :, :]
        delta = torus_delta(own, pts) if torus else own - pts
        best = min(float(np.linalg.norm(delta, axis=-1).min()), best)
    return best


def assemble_ledger(model, locus, mesh=DEFAULT_MESH, sphere_radius=None,
                    tube_radius=None):
    """Compute every applicable charge for every locus component.

    Points get a Berry-flux chirality (cross-checked against the map degree
    for two-band models); Fermi-level loops get the meridian Berry phase,
    w1, and, for real multiband models, the w2 monopole charge on a tube.
    The loop charges share one tube; the meridian samples its ring at
    ``DEFAULT_LOOP_POINTS`` angles or more.
    """
    comps = split_components(locus)
    torus = model.domain.is_torus
    n_u, n_v = mesh
    ledger = ChargeLedger(model_name=model.name, occupied_count=model.occupied_count)
    for comp in comps:
        entry = LedgerEntry(id=comp.id, kind=comp.kind, gap_index=comp.gap_index)
        if comp.kind == "point":
            entry.position = [float(x) for x in comp.item.position]
            sep = _component_min_separation(comp, comps, torus)
            radius = sphere_radius
            if radius is None:
                radius = min(DEFAULT_SPHERE_RADIUS, sep / 3.0)
            sphere = sphere_around(
                comp.item.position, radius, n_u, n_v, domain=model.domain,
                surface_id=f"sphere({comp.id},r={radius:g})",
            )
            validate(sphere, model)
            flux = chern_flux(model, sphere)
            entry.chirality = flux.value
            entry.chirality_residual = flux.residual
            entry.surface_id = sphere.surface_id
            fld = model.two_band_field
            if fld is not None:
                deg = degree(fld, sphere)
                if deg.value != flux.value:
                    entry.notes = (
                        f"degree oracle disagrees: {deg.value} vs {flux.value}"
                    )
        elif comp.kind == "loop":
            sep = _component_min_separation(comp, comps, torus)
            clearance = min(loop_clearance(comp.item), sep)
            radius = tube_radius
            if radius is None:
                radius = min(DEFAULT_TUBE_RADIUS, clearance / 3.5)
            others = [_sample_points(c) for c in comps if c.id != comp.id]
            tube = tube_around(
                comp.item, radius, n_u, n_v, other_components=others,
                surface_id=f"tube({comp.id},r={radius:g})",
            )
            validate(tube, model)
            entry.surface_id = tube.surface_id
            meridian = tube.meridian(0, n=max(n_v, DEFAULT_LOOP_POINTS))
            frames = loop_frames(model, meridian)  # one gap check for both charges
            bp = berry_phase(model, meridian, frames=frames)
            entry.berry_phase = bp.phase
            entry.berry_residual = bp.quantization_residual
            if model.reality:
                entry.berry_w1 = w1_along(model, meridian, frames=frames)
                if model.band_count > 2 and comp.gap_index == model.occupied_count:
                    try:
                        res = w2_on(model, tube, keep_spectrum=True)
                        entry.w2_result = res
                        entry.w2 = res.value
                        entry.w2_crossings = res.crossing_count
                    except ObstructionError as exc:
                        entry.notes = str(exc)
        else:  # open arc: no closed enclosing surface in the box
            entry.notes = "open arc: charges require a closed enclosing surface"
        ledger.entries.append(entry)
    return ledger


def verify_ledger(model, ledger, axis="z"):
    """Run every applicable cancellation verdict and attach it to the ledger."""
    verdicts = []
    if ledger.point_entries:
        verdicts.append(cancellation_chirality(ledger))
        if model.domain.is_torus:
            verdicts.append(stokes_jump_check(model, axis, ledger))
    else:
        verdicts.append(
            Verdict("cancellation_chirality", True, "no point components")
        )
    loops = ledger.fermi_loop_entries
    if loops and all(e.w2 is not None for e in loops):
        verdicts.append(cancellation_w2(ledger))
    elif not loops:
        verdicts.append(Verdict("cancellation_w2", True, "no Fermi loop components"))
    ledger.verdicts = verdicts
    return ledger
