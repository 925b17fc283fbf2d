"""Topological charges on closed surfaces and loops.

All quantities are built from overlap matrices of occupied eigenframes
(never individual eigenvectors), polar-unitarized before any determinant
is taken, so degenerate occupied subspaces and arbitrary per-vertex gauge
choices are harmless.  Integer and Z2 results carry their pre-rounding
residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    MeshResolutionError,
    ObstructionError,
    SurfaceError,
    UnsupportedModelError,
)
from .model import TWO_PI, reduce_torus
from .surfaces import SPHERE, slice_torus, validate

CHERN_RESIDUAL_TOL = 0.01
DEGREE_RESIDUAL_TOL = 0.05
BERRY_QUANTIZATION_TOL = 1e-3
W2_FLAT_TOL = 1e-5


# -- frames and overlaps -------------------------------------------------------


def frames_at(model, points, occupied=None):
    """Occupied eigenframes at a batch of points, with a deterministic
    per-column gauge (largest-magnitude entry made real positive)."""
    pts = np.asarray(points, dtype=float)
    if model.domain.is_torus:
        pts = reduce_torus(pts)
    _, frames = model.eigenframes(pts, occupied=occupied)
    idx = np.argmax(np.abs(frames), axis=-2)
    lead = np.take_along_axis(frames, idx[..., None, :], axis=-2)[..., 0, :]
    phase = lead / np.where(np.abs(lead) < 1e-300, 1.0, np.abs(lead))
    frames = frames * np.conj(phase)[..., None, :]
    return frames


def _polar_unitary(m):
    """Closest (stack of) unitary/orthogonal matrices to m.

    A stack of 1x1 overlaps z (one occupied band) takes the closed form
    z / |z|, the abelian link variable of Fukui, Hatsugai & Suzuki, with
    singular value |z|; larger blocks take u @ vh of one batched SVD.
    """
    rank_one = m.shape[-1] == 1
    if rank_one:
        s = np.abs(m)
    else:
        u, s, vh = np.linalg.svd(m)
    if np.min(s) < 1e-8:
        raise MeshResolutionError(
            "overlap matrix nearly singular: mesh too coarse or surface too "
            "close to the nodal set",
            residual=float(np.min(s)),
        )
    return m / s if rank_one else u @ vh


def _links(frames, a, b):
    """Polar-unitarized overlaps F_a^dagger F_b for index arrays a, b of any
    shape, in one batched polar step; exactly the identity where a == b."""
    links = _polar_unitary(np.conj(np.swapaxes(frames[a], -1, -2)) @ frames[b])
    links[a == b] = np.eye(frames.shape[-1])
    return links


def holonomy(frames, paths):
    """Ordered product of the links along each path of vertex ids.

    ``paths`` has shape (..., L+1); the result has shape (..., occ, occ) and
    is the left fold W = U_01 @ U_12 @ ... @ U_{L-1,L}.
    """
    paths = np.asarray(paths)
    links = _links(frames, paths[..., :-1], paths[..., 1:])
    prod = links[..., 0, :, :]
    for j in range(1, links.shape[-3]):
        prod = prod @ links[..., j, :, :]
    return prod


def _require_validated(surface, model, floor):
    if surface.min_gap_on_surface is None:
        validate(surface, model)
    if surface.min_gap_on_surface <= floor:
        raise SurfaceError(
            f"surface {surface.surface_id} has min gap "
            f"{surface.min_gap_on_surface:.3e} <= required floor {floor:.3e}"
        )


# -- result types --------------------------------------------------------------


@dataclass
class Chirality:
    """Integer local charge of a closed surface."""

    value: int
    surface_id: str
    method: str  # "berry-flux" | "degree"
    residual: float
    mesh: tuple = (0, 0)

    def __int__(self):
        return int(self.value)

    def to_record(self):
        return {
            "value": int(self.value),
            "surface_id": self.surface_id,
            "method": self.method,
            "residual": float(self.residual),
            "mesh": [int(m) for m in self.mesh],
        }


@dataclass
class BerryPhaseResult:
    """Berry phase of a closed loop, with quantization data for real models."""

    phase: float
    quantized: float | None
    quantization_residual: float | None
    loop_label: str = ""
    n_vertices: int = 0

    def to_record(self):
        return {
            "phase": float(self.phase),
            "quantized": None if self.quantized is None else float(self.quantized),
            "quantization_residual": (
                None
                if self.quantization_residual is None
                else float(self.quantization_residual)
            ),
            "loop": self.loop_label,
            "n_vertices": int(self.n_vertices),
        }


@dataclass
class W2Result:
    """Second Stiefel-Whitney charge from Wilson-loop spectral flow."""

    value: int
    crossing_count: int
    surface_id: str
    w1_cycles: tuple = (0, 0)
    mesh: tuple = (0, 0)
    flat_spectrum: bool = False
    spectrum: object = field(default=None, repr=False)

    @property
    def orientable(self):
        return self.w1_cycles == (0, 0)

    def to_record(self, include_spectrum=False):
        rec = {
            "value": int(self.value),
            "crossing_count": int(self.crossing_count),
            "surface_id": self.surface_id,
            "w1_cycles": [int(w) for w in self.w1_cycles],
            "orientable": bool(self.orientable),
            "mesh": [int(m) for m in self.mesh],
            "flat_spectrum": bool(self.flat_spectrum),
        }
        if include_spectrum and self.spectrum is not None:
            rec["spectrum"] = [[float(x) for x in row] for row in self.spectrum]
        return rec


@dataclass
class SliceChern:
    """One entry of a slice scan; ``chern`` is None for skipped slices."""

    value: float
    chern: Chirality | None
    skipped: bool = False
    reason: str = ""

    def to_record(self):
        return {
            "value": float(self.value),
            "chern": None if self.chern is None else self.chern.to_record(),
            "skipped": bool(self.skipped),
            "reason": self.reason,
        }


# -- Chern flux ------------------------------------------------------------------


def chern_flux(model, surface, occupied_count=None, residual_tol=CHERN_RESIDUAL_TOL,
               frames=None):
    """Integer Berry-flux charge of a validated closed surface.

    Plaquette fluxes are arg det of the product of polar-unitarized occupied
    overlaps around each (outward-oriented) quad; their total over the closed
    mesh is 2 pi times an integer.  Raises MeshResolutionError when the
    pre-rounding deviation reaches ``residual_tol``.
    """
    _require_validated(surface, model, 10.0 * residual_tol)
    occ = model.occupied_count if occupied_count is None else int(occupied_count)
    if frames is None:
        frames = frames_at(model, surface.points, occupied=occ)
    total, peak = _total_plaquette_flux(frames, surface)
    # sign fixed so the charge equals the degree of the two-band field on
    # the same outward-oriented surface
    raw = -total / TWO_PI
    value = int(np.rint(raw))
    residual = abs(raw - value)
    if residual >= residual_tol:
        raise MeshResolutionError(
            f"Chern flux residual {residual:.4f} >= {residual_tol}: mesh too "
            "coarse / surface too close to W",
            residual=residual,
        )
    # the total is quantized by construction, so under-resolution shows up
    # as single plaquettes holding a large fraction of a flux quantum
    if peak > 2.5:
        raise MeshResolutionError(
            f"plaquette flux {peak:.3f} close to the branch cut: mesh too "
            "coarse / surface too close to W",
            residual=peak,
        )
    return Chirality(
        value=value,
        surface_id=surface.surface_id,
        method="berry-flux",
        residual=residual,
        mesh=(surface.n_u, surface.n_v),
    )


def _total_plaquette_flux(frames, surface):
    quads = surface.quad_vertex_ids()
    prod = holonomy(frames, np.column_stack([quads, quads[:, 0]]))
    angles = np.angle(np.linalg.det(prod))
    return float(np.sum(angles)), float(np.max(np.abs(angles)))


# -- map degree -------------------------------------------------------------------


def degree(fld, surface, residual_tol=DEGREE_RESIDUAL_TOL):
    """Degree of the normalized two-band field over a closed surface.

    Sums the signed spherical areas of the normalized-field images of the
    surface's triangles; total is 4 pi times the degree.
    """
    pts = surface.points
    if fld.domain.is_torus:
        pts = reduce_torus(pts)
    h = fld(pts)
    norms = np.linalg.norm(h, axis=-1)
    if np.min(norms) < 1e-10:
        raise SurfaceError("two-band field vanishes on the surface")
    raw = surface.spherical_area(h / norms[..., None]) / (4.0 * math.pi)
    value = int(np.rint(raw))
    residual = abs(raw - value)
    if residual >= residual_tol:
        raise MeshResolutionError(
            f"degree residual {residual:.4f} >= {residual_tol}", residual=residual
        )
    return Chirality(
        value=value,
        surface_id=surface.surface_id,
        method="degree",
        residual=residual,
        mesh=(surface.n_u, surface.n_v),
    )


# -- Berry phase and first Stiefel-Whitney charge -----------------------------------


def loop_frames(model, loop, occupied_count=None, min_gap=0.01):
    """Occupied frames at the vertices of a closed loop, once the gap along
    it (vertices and edge midpoints) has been checked to exceed min_gap."""
    _check_loop_gap(model, loop, min_gap)
    return frames_at(model, np.asarray(loop.vertices, dtype=float), occupied=occupied_count)


def _loop_holonomy(frames):
    n = frames.shape[0]
    return holonomy(frames, np.arange(n + 1) % n)


def _check_loop_gap(model, loop, min_gap):
    pts = np.asarray(loop.vertices, dtype=float)
    mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
    pts = np.vstack([pts, mids])
    if model.domain.is_torus:
        pts = reduce_torus(pts)
    gap = float(np.min(model.direct_gap(pts)))
    if gap <= min_gap:
        raise SurfaceError(
            f"gap collapses to {gap:.3e} along loop {loop.label or '<loop>'}"
        )
    return gap


def berry_phase(model, loop, occupied_count=None, min_gap=0.01, frames=None):
    """Berry phase of the occupied frame around a closed loop, in [0, 2 pi).

    For reality-flagged models the nearest quantized value in {0, pi} and
    the distance to it are reported as well.  ``frames``, if given, are the
    gap-checked frames of ``loop_frames``.
    """
    if frames is None:
        frames = loop_frames(model, loop, occupied_count, min_gap)
    n = frames.shape[0]
    phase = (-np.angle(np.linalg.det(_loop_holonomy(frames)))) % TWO_PI
    quantized = None
    residual = None
    if model.reality:
        dist0 = min(phase, TWO_PI - phase)
        distpi = abs(phase - math.pi)
        quantized = 0.0 if dist0 <= distpi else math.pi
        residual = min(dist0, distpi)
    return BerryPhaseResult(
        phase=float(phase),
        quantized=quantized,
        quantization_residual=residual,
        loop_label=loop.label,
        n_vertices=n,
    )


def w1_along(model, loop, occupied_count=None, min_gap=0.01, frames=None):
    """First Stiefel-Whitney charge of a loop: 1 iff the real occupied frame
    returns orientation-reversed after parallel transport around it.
    ``frames``, if given, are the gap-checked frames of ``loop_frames``."""
    if not model.reality:
        raise UnsupportedModelError("w1 requires a reality-flagged model")
    if frames is None:
        frames = loop_frames(model, loop, occupied_count, min_gap)
    if np.iscomplexobj(frames):
        raise UnsupportedModelError("w1 requires real eigenframes")
    det = float(np.linalg.det(_loop_holonomy(frames)))
    return 0 if det > 0 else 1


# -- second Stiefel-Whitney charge ---------------------------------------------------


def w2_on(model, surface, occupied_count=None, residual_tol=CHERN_RESIDUAL_TOL,
          flat_tol=W2_FLAT_TOL, keep_spectrum=False):
    """Z2 monopole charge of a validated closed surface of a real model.

    Wilson loops along the u-cycles are tracked as a function of v with a
    parallel-transported basepoint frame; the charge is the parity of
    transversal eigenphase crossings of pi.  The v-cycle may be
    orientation-reversing for the occupied frame (w1 = 1 on meridians of
    nodal-line tubes); that holonomy is folded into the crossing count and
    reported in ``w1_cycles``.  An orientation-reversing u-cycle is a
    genuine obstruction and raises ObstructionError.
    """
    if not model.reality:
        raise UnsupportedModelError("w2 requires a reality-flagged model")
    occ = model.occupied_count if occupied_count is None else int(occupied_count)
    if model.band_count == 2 or occ < 2:
        raise UnsupportedModelError(
            "w2 is not defined for two-band models (only the first "
            "Stiefel-Whitney charge exists there); need >= 2 occupied bands "
            "of a >= 4 band model"
        )
    _require_validated(surface, model, 10.0 * residual_tol)
    frames = frames_at(model, surface.points, occupied=occ)
    if np.iscomplexobj(frames):
        raise UnsupportedModelError("w2 requires real eigenframes")
    if occ == 2:
        return _w2_rank2(model, surface, frames, flat_tol, keep_spectrum)
    return _w2_general(model, surface, frames, keep_spectrum)


def _u_cycle_wilson(surface, frames, rows):
    """Wilson matrices of the u-cycles at the given rows iv, each in the
    frame of slot (0, iv); a sphere pole row gives the identity."""
    return holonomy(frames, surface.index_map[:, rows].T)


def _transport_basepoints(surface, frames, rows):
    """Parallel-transport an occupied frame along the v-line at u = 0.

    Returns per-row orthogonal matrices ``c`` with transported frame
    G_row = F_row @ c[row], plus the O(occ) mismatch after closing the
    cycle (None for spheres, whose v-line is not a cycle).
    """
    ids = surface.index_map[0, rows]
    if surface.kind != SPHERE:  # close the cycle back to the first row
        ids = np.append(ids, ids[0])
    # polar(F_j^T F_{j-1} c_{j-1}) = polar(F_j^T F_{j-1}) c_{j-1} for orthogonal c
    cs = [np.eye(frames.shape[-1])]
    for link in _links(frames, ids[1:], ids[:-1]):
        cs.append(link @ cs[-1])
    # transported frame at v=2pi expressed at v=0
    closure = cs.pop() if surface.kind != SPHERE else None
    return cs, closure


def _rotation_angle(w):
    return math.atan2(w[1, 0] - w[0, 1], w[0, 0] + w[1, 1])


def _wrap(angle):
    return (angle + math.pi) % TWO_PI - math.pi


def _w2_rank2(model, surface, frames, flat_tol, keep_spectrum):
    n_v = surface.n_v
    is_sphere = surface.kind == SPHERE
    raw = _u_cycle_wilson(surface, frames, np.arange(n_v + is_sphere))
    if not is_sphere:
        raw = np.concatenate([raw, raw[:1]])

    if np.any(np.linalg.det(raw) < 0):
        raise ObstructionError(
            "u-cycle holonomy is orientation-reversing (w1 != 0 on the "
            "u-cycle); w2 alone is not well-defined on this surface"
        )

    # provisional distance-to-pi is gauge-sign invariant; pick the start row
    # farthest from the crossing line (spheres stay anchored at the pole)
    prov = [abs(_wrap(abs(_rotation_angle(w)) - math.pi)) for w in raw[:-1]]
    start = 0 if is_sphere else int(np.argmax(prov))
    ordered = [(start + i) % n_v for i in range(n_v)] + [start]

    cs, closure = _transport_basepoints(surface, frames, ordered)
    thetas = []
    for pos, iv in enumerate(ordered):
        w = raw[iv] if pos < n_v or is_sphere else raw[start]
        wt = cs[pos].T @ w @ cs[pos]
        thetas.append(_rotation_angle(wt))
    track = [thetas[0]]
    for th in thetas[1:]:
        track.append(track[-1] + _wrap(th - track[-1]))

    w1_v = 0
    if closure is not None and float(np.linalg.det(closure)) < 0:
        w1_v = 1

    flat = all(abs(_wrap(th - math.pi)) < flat_tol for th in thetas)
    if flat and not is_sphere:
        value = w1_v
        count = value
    else:
        lo = math.floor((track[0] - math.pi) / TWO_PI)
        hi = math.floor((track[-1] - math.pi) / TWO_PI)
        count = abs(hi - lo)
        value = count % 2

    spectrum = None
    if keep_spectrum:
        vs = [TWO_PI * iv / n_v if not is_sphere else math.pi * iv / n_v
              for iv in range(len(track))]
        spectrum = np.column_stack([vs, track])
    return W2Result(
        value=value,
        crossing_count=count,
        surface_id=surface.surface_id,
        w1_cycles=(0, w1_v),
        mesh=(surface.n_u, surface.n_v),
        flat_spectrum=bool(flat),
        spectrum=spectrum,
    )


def _w2_general(model, surface, frames, keep_spectrum):
    """Crossing counting for occupied rank > 2 by eigenphase continuity.

    Bands are matched between adjacent v-rows by nearest phase with a
    half-gap acceptance threshold; crossings of pi are counted per band.
    """
    n_v = surface.n_v
    is_sphere = surface.kind == SPHERE
    ev = np.linalg.eigvals(_u_cycle_wilson(surface, frames, np.arange(n_v + is_sphere)))
    phases_rows = np.sort(np.angle(ev), axis=-1)
    if not is_sphere:  # close the v-cycle on row 0
        phases_rows = np.concatenate([phases_rows, phases_rows[:1]])
    count = 0
    for prev, cur in zip(phases_rows[:-1], phases_rows[1:]):
        gaps = np.diff(np.sort(prev))
        half_gap = 0.5 * (np.min(gaps) if len(gaps) and np.min(gaps) > 0 else math.pi)
        matched = _match_bands(prev, cur, half_gap)
        for a, b in matched:
            if (a - math.pi) * (b - math.pi) < 0 or (
                (a + math.pi) * (b + math.pi) < 0
            ):
                count += 1
    count //= 2  # conjugate pairs cross together
    spectrum = None
    if keep_spectrum:
        spectrum = np.column_stack([np.arange(len(phases_rows)), phases_rows[:, 0]])
    return W2Result(
        value=count % 2,
        crossing_count=count,
        surface_id=surface.surface_id,
        w1_cycles=(0, 0),
        mesh=(surface.n_u, surface.n_v),
        spectrum=spectrum,
    )


def _match_bands(prev, cur, half_gap):
    used = set()
    pairs = []
    for a in prev:
        best, best_d = None, math.inf
        for j, b in enumerate(cur):
            if j in used:
                continue
            d = abs(_wrap(b - a))
            if d < best_d:
                best, best_d = j, d
        if best is not None and best_d <= max(half_gap, 0.5):
            used.add(best)
            pairs.append((a, cur[best]))
    return pairs


# -- slice scans ----------------------------------------------------------------


def chern_scan(model, axis, values, occupied_count=None, n_u=64, n_v=64,
               residual_tol=CHERN_RESIDUAL_TOL):
    """Slice Chern numbers at a list of fixed-coordinate values.

    Slices that intersect the nodal set (min gap at or below the 10x
    residual-tolerance floor) are skipped with a marker entry.
    """
    if not model.domain.is_torus:
        raise UnsupportedModelError("slice scans require a lattice (torus) model")
    out = []
    floor = 10.0 * residual_tol
    for value in values:
        surf = slice_torus(axis, value, n_u, n_v)
        mg = validate(surf, model)
        if mg <= floor:
            out.append(
                SliceChern(
                    float(value), None, skipped=True,
                    reason=f"slice intersects W (min gap {mg:.3e})",
                )
            )
            continue
        ch = chern_flux(model, surf, occupied_count, residual_tol=residual_tol)
        out.append(SliceChern(float(value), ch))
    return out
