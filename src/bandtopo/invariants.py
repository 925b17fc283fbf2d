"""Topological charges on closed surfaces and loops.

All quantities are built from overlap matrices F_a^dagger F_b of occupied
eigenframes (never individual eigenvectors), so degenerate occupied
subspaces and arbitrary per-vertex gauge choices are harmless.  The Berry
flux through a closed mesh takes one U(1) phase arg det(F_a^dagger F_b) per
mesh edge straight from the raw overlaps (Fukui, Hatsugai & Suzuki, J. Phys.
Soc. Jpn. 74, 1674 (2005)); each plaquette's flux is the wrapped sum of its
four edge phases.  Polar factors of the overlaps are taken only for the
Wilson lines of Berry phases, w1 and w2.  w2 is computed for real models
with exactly two occupied bands, where the u-cycle Wilson loop is one SO(2)
rotation angle; any other occupied rank is refused.  Every overlap must keep
its smallest singular value above 1e-8.  Integer and Z2 results carry their
pre-rounding residuals.
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
from .surfaces import SLICE, SPHERE, sample_frames, slice_torus, validate

CHERN_RESIDUAL_TOL = 0.01
DEGREE_RESIDUAL_TOL = 0.05
# a surface whose gap falls to this is too close to W for its charges
SURFACE_GAP_FLOOR = 10.0 * CHERN_RESIDUAL_TOL
# a loop whose gap falls to this is too close to W for its frames
LOOP_MIN_GAP = 0.01
W2_FLAT_TOL = 1e-5


# -- frames and overlaps -------------------------------------------------------


def frames_at(model, points):
    """Occupied eigenframes at a batch of points, with a deterministic
    per-column gauge (largest-magnitude entry made real positive)."""
    return sample_frames(model, points)[1]


def _gapped_frames(model, surface):
    """The vertex frames of one ``validate`` of the surface, once its
    minimum gap clears SURFACE_GAP_FLOOR (else SurfaceError)."""
    min_gap, frames = validate(surface, model, SURFACE_GAP_FLOOR)
    if min_gap <= SURFACE_GAP_FLOOR:
        raise SurfaceError(
            f"surface {surface.surface_id} has min gap "
            f"{min_gap:.3e} <= required floor {SURFACE_GAP_FLOOR:.3e}"
        )
    return frames


def _require_regular(s):
    """Raise MeshResolutionError unless all singular values s are >= 1e-8."""
    if not np.min(s) >= 1e-8:  # a NaN counts as singular
        raise MeshResolutionError(
            "overlap matrix nearly singular: mesh too coarse or surface too "
            "close to the nodal set",
            residual=float(np.min(s)),
        )


def _rank_two(m):
    """det M, s_1 + s_2 = sqrt(|M|_F^2 + 2 |det M|) and the smaller
    singular value s_2 of a stack of 2x2 blocks, in closed form."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    sq = m.real * m.real
    if np.iscomplexobj(m):
        sq += m.imag * m.imag
    fro2 = np.sum(sq, axis=(-2, -1))
    abs_det = np.abs(det)
    total = np.sqrt(fro2 + 2.0 * abs_det)
    # s_1 - s_2 = sqrt(|M|_F^2 - 2 |det M|); rounding may push it below 0
    return det, total, 0.5 * (total - np.sqrt(np.maximum(fro2 - 2.0 * abs_det, 0.0)))


def _require_finite(m):
    """Reject a non-finite block as singular before LAPACK's SVD sees it."""
    if not np.all(np.isfinite(m)):
        _require_regular(np.nan)


def _polar_unitary(m):
    """Closest (stack of) unitary/orthogonal matrices to m.

    A stack of 1x1 overlaps z (one occupied band) takes the closed form
    z / |z|, the abelian link variable of Fukui, Hatsugai & Suzuki, with
    singular value |z|.  2x2 blocks take the closed form
    (M + (det M / |det M|) conj(cof M)) / (s_1 + s_2).  Larger blocks take
    u @ vh of one batched SVD.
    """
    rank = m.shape[-1]
    if rank == 1:
        s = np.abs(m)
        _require_regular(s)
        return m / s
    if rank == 2:
        det, total, s_min = _rank_two(m)
        _require_regular(s_min)
        cof = np.stack([m[..., 1, 1], -m[..., 1, 0], -m[..., 0, 1], m[..., 0, 0]], axis=-1)
        phase = (det / np.abs(det))[..., None, None]
        return (m + phase * np.conj(cof.reshape(m.shape))) / total[..., None, None]
    _require_finite(m)
    u, s, vh = np.linalg.svd(m)
    _require_regular(s)
    return u @ vh


def _overlaps(frames, a, b):
    """F_a^dagger F_b for index arrays a, b of one shape (``np.take``
    gathers stacked frames several times faster than fancy indexing)."""
    fa, fb = np.take(frames, a, axis=0), np.take(frames, b, axis=0)
    return np.conj(np.swapaxes(fa, -1, -2)) @ fb


def _links(frames, a, b):
    """Polar-unitarized overlaps F_a^dagger F_b for index arrays a, b of any
    shape, in one batched polar step; exactly the identity where a == b."""
    links = _polar_unitary(_overlaps(frames, a, b))
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


def chern_flux(model, surface):
    """Integer Berry-flux charge of a closed surface.

    One ``validate`` gives the surface's minimum gap, which must clear
    SURFACE_GAP_FLOOR (else SurfaceError), and its vertex frames.  Each
    plaquette's flux is the wrapped sum of the edge phases
    arg det(F_a^dagger F_b) around its (outward-oriented) quad; their total
    over the closed mesh is 2 pi times an integer.  Raises
    MeshResolutionError when the pre-rounding deviation reaches
    CHERN_RESIDUAL_TOL or one plaquette nears the branch cut.
    """
    return _flux_charge(surface, _gapped_frames(model, surface))


def _flux_charge(surface, frames):
    """The Chirality of ``chern_flux`` from the surface's vertex frames."""
    total, peak = _total_plaquette_flux(frames, surface)
    # sign fixed so the charge equals the degree of the two-band field on
    # the same outward-oriented surface
    raw = -total / TWO_PI
    value = int(np.rint(raw))
    residual = abs(raw - value)
    if residual >= CHERN_RESIDUAL_TOL:
        raise MeshResolutionError(
            f"Chern flux residual {residual:.4f} >= {CHERN_RESIDUAL_TOL}: mesh too "
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


def _edge_phases(frames, a, b):
    """arg det(F_a^dagger F_b) for index arrays a, b of one shape, exactly 0
    where a == b; raises MeshResolutionError if an overlap is nearly
    singular."""
    m = _overlaps(frames, a, b)
    rank = m.shape[-1]
    if rank == 1:
        det = m[..., 0, 0]
        _require_regular(np.abs(det))
    elif rank == 2:
        det, _, s_min = _rank_two(m)
        _require_regular(s_min)
    else:
        _require_finite(m)
        _require_regular(np.linalg.svd(m, compute_uv=False))
        det = np.linalg.det(m)
    phases = np.angle(det)
    phases[a == b] = 0.0
    return phases


def _total_plaquette_flux(frames, surface):
    """Total and largest |flux| over the plaquettes of a closed mesh.

    Each mesh edge takes one phase: the v-edges m[:, :-1] -> m[:, 1:] and
    the u-edges m[:-1] -> m[1:] of the index map m.  Quad (iu, iv) then
    holds v(iu, iv) + u(iu, iv+1) - v(iu+1, iv) - u(iu, iv), wrapped, in
    the corner order of ``quad_vertex_ids``: negated on slices, which
    traverse the other way, and on reversed surfaces.
    """
    m = surface.index_map
    n_v_edges = m.shape[0] * (m.shape[1] - 1)
    a = np.concatenate([m[:, :-1].ravel(), m[:-1].ravel()])
    b = np.concatenate([m[:, 1:].ravel(), m[1:].ravel()])
    phases = _edge_phases(frames, a, b)
    v = phases[:n_v_edges].reshape(m.shape[0], -1)
    u = phases[n_v_edges:].reshape(-1, m.shape[1])
    sign = -surface.orientation if surface.kind == SLICE else surface.orientation
    flux = sign * (v[:-1] + u[:, 1:] - v[1:] - u[:, :-1])
    flux -= TWO_PI * np.rint(flux / TWO_PI)  # into [-pi, pi]
    return float(np.sum(flux)), float(np.max(np.abs(flux)))


# -- map degree -------------------------------------------------------------------


def degree(fld, surface):
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
    if residual >= DEGREE_RESIDUAL_TOL:
        raise MeshResolutionError(
            f"degree residual {residual:.4f} >= {DEGREE_RESIDUAL_TOL}", residual=residual
        )
    return Chirality(
        value=value,
        surface_id=surface.surface_id,
        method="degree",
        residual=residual,
        mesh=(surface.n_u, surface.n_v),
    )


# -- Berry phase and first Stiefel-Whitney charge -----------------------------------


def loop_frames(model, loop):
    """Occupied frames at the vertices of a closed loop, once the gap along
    it (vertices and edge midpoints) has been checked to exceed LOOP_MIN_GAP.
    A midpoint lies within half the largest edge of both its ends, along
    each axis, so it is solved only where their gaps leave it open."""
    pts = np.asarray(loop.vertices, dtype=float)
    name = loop.label or "<loop>"
    ends = np.roll(pts, -1, axis=0)
    with np.errstate(invalid="ignore"):  # a non-finite loop reaches NaN
        reach = 0.5 * np.max(np.abs(ends - pts), axis=0, initial=0.0)
    gap, frames = sample_frames(
        model, pts, 0.5 * (pts + ends),
        lambda gap: f"non-finite gap {gap} along loop {name}",
        corners=np.append(np.arange(len(pts)), 0), reach=reach, floor=LOOP_MIN_GAP,
    )
    if gap <= LOOP_MIN_GAP:
        raise SurfaceError(f"gap collapses to {gap:.3e} along loop {name}")
    return frames


def _loop_holonomy(frames):
    n = frames.shape[0]
    return holonomy(frames, np.arange(n + 1) % n)


def berry_phase(model, loop, frames=None):
    """Berry phase of the occupied frame around a closed loop, in [0, 2 pi).

    For reality-flagged models the nearest quantized value in {0, pi} and
    the distance to it are reported as well.  ``frames``, if given, are the
    gap-checked frames of ``loop_frames``.
    """
    if frames is None:
        frames = loop_frames(model, loop)
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


def w1_along(model, loop, frames=None):
    """First Stiefel-Whitney charge of a loop: 1 iff the real occupied frame
    returns orientation-reversed after parallel transport around it.
    ``frames``, if given, are the gap-checked frames of ``loop_frames``."""
    if not model.reality:
        raise UnsupportedModelError("w1 requires a reality-flagged model")
    if frames is None:
        frames = loop_frames(model, loop)
    if np.iscomplexobj(frames):
        raise UnsupportedModelError("w1 requires real eigenframes")
    det = float(np.linalg.det(_loop_holonomy(frames)))
    return 0 if det > 0 else 1


# -- second Stiefel-Whitney charge ---------------------------------------------------


def w2_on(model, surface):
    """Z2 monopole charge of a closed surface of a real model with exactly
    two occupied bands.

    One ``validate`` gives the surface's vertex frames; its minimum gap must
    clear SURFACE_GAP_FLOOR (else SurfaceError).  Wilson loops along the
    u-cycles are tracked as a function of v with a parallel-transported
    basepoint frame; the charge is the parity of transversal eigenphase
    crossings of pi.  The v-cycle may be orientation-reversing for the
    occupied frame (w1 = 1 on meridians of nodal-line tubes); that holonomy
    is folded into the crossing count and reported in ``w1_cycles``.  An
    orientation-reversing u-cycle is a genuine obstruction and raises
    ObstructionError.  Any other occupied rank raises UnsupportedModelError.
    """
    if not model.reality:
        raise UnsupportedModelError("w2 requires a reality-flagged model")
    occ = model.occupied_count
    if model.band_count == 2 or occ != 2:
        raise UnsupportedModelError(
            "w2 is computed for exactly 2 occupied bands of a >= 4 band model; "
            f"this one has {occ} occupied of {model.band_count}"
        )
    frames = _gapped_frames(model, surface)
    if np.iscomplexobj(frames):
        raise UnsupportedModelError("w2 requires real eigenframes")
    return _w2_rank2(surface, frames)


def _wrap(angle):
    return (angle + math.pi) % TWO_PI - math.pi


def _w2_rank2(surface, frames):
    """w2 from the spectral flow of the u-cycle Wilson loops along v.

    Row iv's Wilson loop is an SO(2) rotation by theta_iv in the frame at
    slot (0, iv).  Transporting that frame along the line u = 0 conjugates
    the rotation by an O(2) matrix, which keeps theta_iv if its determinant
    is +1 and negates it if -1.  So the transported angle is theta_iv times
    the running product of the determinant signs of the v-links; on a tube
    the last sign, after the v-cycle closes, is w1 of that cycle.  A tube's
    v-path starts at the row farthest from a crossing of pi; a sphere's runs
    from the north to the south pole, where the Wilson loops are 1.
    """
    n_v = surface.n_v
    is_sphere = surface.kind == SPHERE
    raw = holonomy(frames, surface.index_map.T)  # one u-cycle per row iv
    if np.any(np.linalg.det(raw) < 0):
        raise ObstructionError(
            "u-cycle holonomy is orientation-reversing (w1 != 0 on the "
            "u-cycle); w2 alone is not well-defined on this surface"
        )
    angles = np.arctan2(raw[:, 1, 0] - raw[:, 0, 1], raw[:, 0, 0] + raw[:, 1, 1])

    if is_sphere:
        rows = np.arange(n_v + 1)
    else:  # the distance to pi is gauge-sign invariant
        start = int(np.argmax(np.abs(_wrap(np.abs(angles[:n_v]) - math.pi))))
        rows = (start + np.arange(n_v + 1)) % n_v
    ids = surface.index_map[0, rows]
    link_signs = np.sign(np.linalg.det(_links(frames, ids[:-1], ids[1:])))
    signs = np.concatenate([[1.0], np.cumprod(link_signs)])
    thetas = (signs * angles[rows]).tolist()
    track = [thetas[0]]
    for th in thetas[1:]:
        track.append(track[-1] + _wrap(th - track[-1]))

    w1_v = 0 if is_sphere else int(signs[-1] < 0)
    flat = all(abs(_wrap(th - math.pi)) < W2_FLAT_TOL for th in thetas)
    if flat and not is_sphere:
        value = w1_v
        count = value
    else:
        lo = math.floor((track[0] - math.pi) / TWO_PI)
        hi = math.floor((track[-1] - math.pi) / TWO_PI)
        count = abs(hi - lo)
        value = count % 2

    vs = (math.pi if is_sphere else TWO_PI) * np.arange(n_v + 1) / n_v
    return W2Result(
        value=value,
        crossing_count=count,
        surface_id=surface.surface_id,
        w1_cycles=(0, w1_v),
        mesh=(surface.n_u, surface.n_v),
        flat_spectrum=bool(flat),
        spectrum=np.column_stack([vs, track]),
    )


# -- slice scans ----------------------------------------------------------------


def chern_scan(model, axis, values, n_u=64, n_v=64):
    """Slice Chern numbers at a list of fixed-coordinate values.

    Each slice takes one ``validate``.  Slices that intersect the nodal set
    (min gap at or below SURFACE_GAP_FLOOR) are skipped with a marker
    entry; the others read their Chern number off its vertex frames.
    """
    if not model.domain.is_torus:
        raise UnsupportedModelError("slice scans require a lattice (torus) model")
    out = []
    for value in values:
        surf = slice_torus(axis, value, n_u, n_v)
        mg, frames = validate(surf, model, SURFACE_GAP_FLOOR)
        if mg <= SURFACE_GAP_FLOOR:
            out.append(
                SliceChern(
                    float(value), None, skipped=True,
                    reason=f"slice intersects W (min gap {mg:.3e})",
                )
            )
            continue
        out.append(SliceChern(float(value), _flux_charge(surf, frames)))
    return out
