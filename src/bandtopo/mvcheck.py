"""Charge-cancellation harness.

Assembles per-component charges into a ChargeLedger and checks the laws
that exactness of the Mayer-Vietoris sequence of the closed T^3 imposes.
Each law says where it applies, and elsewhere passes as "not applicable"
with the reason: point chiralities sum to zero (on T^3); slice Chern numbers
jump by the enclosed chirality (on T^3, complex models, two or more slices
clear of W); Fermi-loop w2 charges sum to zero mod 2 (on T^3, real models
of more than two bands whose Fermi loops carry w2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .cohomology import Verdict
from .exceptions import LedgerError, ObstructionError, SurfaceError, UnsupportedModelError
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
from .model import TWO_PI, _integer, torus_delta
from .surfaces import loop_clearance, meridian_ring, sphere_around, tube_around


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

    @classmethod
    def _record_fields(cls):
        return [f.name for f in fields(cls) if f.name != "w2_result"]

    def to_record(self):
        rec = {name: getattr(self, name) for name in self._record_fields()}
        rec["gap_index"] = int(self.gap_index)
        return rec

    @classmethod
    def from_record(cls, rec):
        """The entry a ``to_record`` dict describes.  Absent fields take
        their defaults, and ``gap_index`` defaults to 1; a gap index that is
        not a whole number is a ConfigError."""
        kwargs = {name: rec[name] for name in cls._record_fields() if name in rec}
        kwargs["gap_index"] = _integer(kwargs.get("gap_index", 1), "ledger entry gap_index")
        return cls(**kwargs)


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


# -- cancellation verdicts -----------------------------------------------------


OPEN_BOX = "open box: no closed base manifold"


def cancellation_chirality(model, ledger):
    """Pass iff the point chiralities sum to zero (missing entries error).
    Not applicable on an open box."""
    name = "cancellation_chirality"
    if not model.domain.is_torus:
        return Verdict.not_applicable(name, OPEN_BOX)
    points = ledger.point_entries
    missing = [e.id for e in points if e.chirality is None]
    if missing:
        raise LedgerError(f"points without chirality entries: {missing}")
    total = sum(e.chirality for e in points)
    return Verdict(name, total == 0, f"sum of {len(points)} point chiralities = {total}")


def cancellation_w2(model, ledger):
    """Pass iff the Fermi-level loop monopole charges sum to zero mod 2.

    Not applicable on an open box, on a complex or two-band model, or where
    a Fermi loop carries no w2 and its notes say why; a Fermi loop with
    neither is a malformed ledger (LedgerError).
    """
    name = "cancellation_w2"
    if not model.domain.is_torus:
        return Verdict.not_applicable(name, OPEN_BOX)
    if not model.reality:
        return Verdict.not_applicable(name, "complex model")
    if model.band_count == 2:
        return Verdict.not_applicable(name, "two-band real model")
    loops = ledger.fermi_loop_entries
    missing = [e for e in loops if e.w2 is None]
    unexplained = [e.id for e in missing if not e.notes]
    if unexplained:
        raise LedgerError(f"Fermi loops without w2 entries or notes: {unexplained}")
    if missing:
        reasons = {}
        for e in missing:
            reasons.setdefault(e.notes, []).append(e.id)
        return Verdict.not_applicable(
            name, "; ".join(f"{', '.join(ids)}: {note}" for note, ids in reasons.items())
        )
    total = sum(e.w2 for e in loops) % 2
    return Verdict(name, total == 0, f"sum of {len(loops)} loop w2 charges mod 2 = {total}")


def stokes_jump_check(model, axis, ledger, n_u=64, n_v=64):
    """Pass iff slice Chern jumps match the enclosed point chiralities.

    Slices sit at the midpoints between the sorted axis coordinates of the
    ledger's points (plus the wrap-around midpoint), so every consecutive
    pair of slices brackets a known set of charges.  A slice through W is
    skipped, which merges its two brackets into one.  Not applicable on an
    open box, on a real model (the slice Chern numbers of real bands
    vanish), or with fewer than two valid slices.
    """
    from .surfaces import AXES

    name = "stokes_jump_check"
    if not model.domain.is_torus:
        return Verdict.not_applicable(name, OPEN_BOX)
    if model.reality:
        return Verdict.not_applicable(
            name, "real model: the slice Chern numbers of real bands vanish"
        )
    a = AXES[axis]
    points = ledger.point_entries
    missing = [e.id for e in points if e.chirality is None or e.position is None]
    if missing:
        raise LedgerError(f"points without chirality entries: {missing}")

    coords = sorted({float(e.position[a]) for e in points})
    if not coords:
        values = [-math.pi + TWO_PI * i / 4 for i in range(4)]
    else:
        values = []
        for i, c in enumerate(coords):
            gap = (coords[(i + 1) % len(coords)] - c) % TWO_PI
            values.append((c + gap / 2.0 + math.pi) % TWO_PI - math.pi)
        values.sort()
    scan = chern_scan(model, axis, values, n_u=n_u, n_v=n_v)
    valid = [s for s in scan if not s.skipped]
    skipped = [f"{s.value:+.3f}" for s in scan if s.skipped]
    note = f"skipped through W at [{', '.join(skipped)}]"
    if len(valid) < 2:
        return Verdict.not_applicable(
            name, f"fewer than two valid slices: {len(valid)} of {len(scan)}, {note}"
        )
    ok, details = True, []
    for s0, s1 in zip(valid, valid[1:] + valid[:1]):
        lo, hi = s0.value, s1.value
        expected = sum(  # the last bracket (lo > hi) wraps around the zone
            e.chirality for e in points
            if (lo < e.position[a] < hi if lo < hi else not hi <= e.position[a] <= lo)
        )
        jump = s1.chern.value - s0.chern.value
        ok = ok and jump == expected
        details.append(f"[{lo:+.3f},{hi:+.3f}]: dC={jump} expected={expected}")
    if skipped:
        details.append(note)
    return Verdict(name, ok, "; ".join(details))


# -- ledger assembly --------------------------------------------------------------


DEFAULT_SPHERE_RADIUS = 0.3
DEFAULT_TUBE_RADIUS = 0.15
DEFAULT_MESH = (64, 64)
DEFAULT_LOOP_POINTS = 400


def _separations(comps, torus):
    """Each component's distance, on the torus or in the box, to the nearest
    other one: its samples (position or vertices) against all the others'."""
    samples = [np.reshape(c.item.position if c.kind == "point" else c.item.vertices, (-1, 3))
               for c in comps]
    stacked = np.concatenate([np.empty((0, 3)), *samples])
    owner = np.repeat(np.arange(len(samples)), [len(s) for s in samples])
    seps = []
    for i, own in enumerate(samples):
        delta = torus_delta(own[:, None], stacked) if torus else own[:, None] - stacked
        dist = np.linalg.norm(delta, axis=-1)
        dist[:, owner == i] = math.inf
        seps.append(float(dist.min()))
    return seps


def assemble_ledger(model, locus, mesh=DEFAULT_MESH, tube_radius=None):
    """Compute every applicable charge for every locus component.

    Points get a Berry-flux chirality on a sphere of radius
    min(DEFAULT_SPHERE_RADIUS, separation / 3), cross-checked against the
    map degree for two-band models (a disagreement raises LedgerError);
    loops get the Berry phase and, for real models, w1 on a meridian ring
    of ``DEFAULT_LOOP_POINTS`` angles or more, and Fermi-level loops of real
    multiband models the w2 monopole charge on a tube: the ring is the
    tube's meridian at u = 0, and the tube is built only where w2 reads it.
    The tube radius defaults to min(DEFAULT_TUBE_RADIUS,
    clearance / 3.5); a ``tube_radius`` at or above clearance / 3 raises
    SurfaceError, where the clearance is the smaller of the loop's own and
    its distance on the torus (or in the box) to every other component.
    """
    comps = split_components(locus)
    seps = _separations(comps, model.domain.is_torus)
    n_u, n_v = mesh
    ledger = ChargeLedger(model_name=model.name, occupied_count=model.occupied_count)
    for comp, sep in zip(comps, seps):
        entry = LedgerEntry(id=comp.id, kind=comp.kind, gap_index=comp.gap_index)
        if comp.kind == "point":
            entry.position = [float(x) for x in comp.item.position]
            radius = min(DEFAULT_SPHERE_RADIUS, sep / 3.0)
            sphere = sphere_around(
                comp.item.position, radius, n_u, n_v, domain=model.domain,
                surface_id=f"sphere({comp.id},r={radius:g})",
            )
            # the flux validates the sphere; the degree oracle reads the field
            flux = chern_flux(model, sphere)
            entry.chirality = flux.value
            entry.chirality_residual = flux.residual
            entry.surface_id = sphere.surface_id
            fld = model.two_band_field
            if fld is not None and (deg := degree(fld, sphere)).value != flux.value:
                raise LedgerError(
                    f"degree oracle disagrees at {comp.id} {entry.position}: "
                    f"degree {deg.value}, Chern flux {flux.value}"
                )
        elif comp.kind == "loop":
            clearance = min(loop_clearance(comp.item), sep)
            radius = tube_radius
            if radius is None:
                radius = min(DEFAULT_TUBE_RADIUS, clearance / 3.5)
            entry.surface_id = f"tube({comp.id},r={radius:g})"
            # the ring checks the mesh, radius and own clearance as the tube would
            meridian = meridian_ring(
                comp.item, radius, n_u, n_v, n=max(n_v, DEFAULT_LOOP_POINTS),
                surface_id=entry.surface_id,
            )
            if radius >= clearance / 3.0:
                raise SurfaceError(
                    f"tube radius {radius:g} too large: {comp.id} is {sep:g} from the "
                    "nearest other component (needs radius < clearance / 3)"
                )
            frames = loop_frames(model, meridian)  # one gap check for both charges
            bp = berry_phase(model, meridian, frames=frames)
            entry.berry_phase = bp.phase
            entry.berry_residual = bp.quantization_residual
            if model.reality:
                entry.berry_w1 = w1_along(model, meridian, frames=frames)
                if model.band_count > 2 and comp.gap_index == model.occupied_count:
                    # w2 exists for two occupied bands; at any other rank,
                    # or on an obstruction, the entry notes why it is missing
                    tube = tube_around(comp.item, radius, n_u, n_v, surface_id=entry.surface_id)
                    try:
                        res = w2_on(model, tube)
                        entry.w2_result = res
                        entry.w2 = res.value
                        entry.w2_crossings = res.crossing_count
                    except (ObstructionError, UnsupportedModelError) as exc:
                        entry.notes = str(exc)
        else:  # open arc: no closed enclosing surface in the box
            entry.notes = "open arc: charges require a closed enclosing surface"
        ledger.entries.append(entry)
    return ledger


def verify_ledger(model, ledger, axis="z"):
    """Attach the three cancellation verdicts, each applicable or saying
    why not: chirality, Stokes jumps, w2."""
    ledger.verdicts = [
        cancellation_chirality(model, ledger),
        stokes_jump_check(model, axis, ledger),
        cancellation_w2(model, ledger),
    ]
    return ledger
