"""Closed oriented quadrilateral meshes and rings in the Brillouin zone.

Three parametric mesh families: spheres around points, tube tori around
nodal loops, and coordinate slice tori.  Meshes are stored as
(n_u+1) x (n_v+1) vertex grids with explicit identifications (seams, poles)
so that every gauge-theoretic computation uses one frame per geometric
vertex and the mesh closes exactly.  Rings are closed polylines: planar
circles, and the meridian ring of a tube, built without its mesh.  One
sampler, ``sample_frames``, gives the occupied frames and the minimum gap
of a model on the vertices of either, and between them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SurfaceError
from .model import TWO_PI, as_k_array, fix_gauge, reduce_torus, torus_delta

SPHERE = "sphere"
TUBE = "tube-torus"
SLICE = "slice-torus"
MIN_MESH = 3


@dataclass
class LoopPath:
    """A closed discretized 1-cycle (closure implied, first != last)."""

    vertices: np.ndarray
    orientation: int = 1
    label: str = ""

    def __len__(self):
        return len(self.vertices)

    def reversed(self):
        return LoopPath(self.vertices[::-1].copy(), -self.orientation, self.label)


def circle_loop(center, radius, normal, n=200, label=""):
    """A planar circle of given center, radius and plane normal, sampled at
    ``n`` (at least MIN_MESH) equally spaced angles."""
    if n < MIN_MESH:
        raise SurfaceError(f"circle must have at least {MIN_MESH} vertices, got {n}")
    center = as_k_array(center)
    if not math.isfinite(radius):
        raise SurfaceError(f"circle radius must be finite, got {radius}")
    if radius <= 0:
        raise SurfaceError("circle radius must be positive")
    normal = np.asarray(normal, dtype=float)
    length = float(np.linalg.norm(normal))
    if not (math.isfinite(length) and length > 0):
        raise SurfaceError(f"circle normal must be finite and nonzero, got {normal.tolist()}")
    normal = normal / length
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(normal)))] = 1.0
    a = np.cross(normal, ref)
    a /= np.linalg.norm(a)
    b = np.cross(normal, a)
    theta = TWO_PI * np.arange(n) / n
    verts = center + radius * (np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * b)
    return LoopPath(verts, 1, label or f"circle(r={radius:g})")


class ClosedSurface:
    """Oriented closed 2-manifold mesh with explicit vertex identifications.

    ``grid`` has shape (n_u+1, n_v+1, 3); ``index_map`` sends each grid slot
    to its unique geometric vertex in ``points`` (shape (N, 3)).  Plaquettes
    are traversed counterclockwise as seen from the outward (or +axis)
    normal when ``orientation`` is +1.  A surface holds geometry only: its
    gap and occupied frames under a model come from ``validate``.
    """

    def __init__(self, kind, grid, index_map, points, surface_id):
        self.kind = kind
        self.grid = grid
        self.index_map = index_map
        self.points = points
        self.surface_id = surface_id
        self.orientation = 1
        self.n_u = grid.shape[0] - 1
        self.n_v = grid.shape[1] - 1
        self._check_quads()

    def _check_quads(self):
        ids = np.sort(self.quad_vertex_ids(), axis=1)
        distinct = 1 + np.count_nonzero(np.diff(ids, axis=1), axis=1)
        if np.any(distinct < 3):
            raise SurfaceError("mesh has a fully collapsed quad")
        degenerate = int(np.count_nonzero(distinct == 3))
        if self.kind == SPHERE:
            expected = 2 * self.n_u
            if degenerate != expected:
                raise SurfaceError("sphere pole triangles inconsistent")
        elif degenerate:
            raise SurfaceError(f"{self.kind} mesh has degenerate quads")

    # -- combinatorics ---------------------------------------------------

    def quad_vertex_ids(self):
        """Corner vertex ids of every quad, shape (n_u * n_v, 4).

        Row ``iu * n_v + iv`` holds quad (iu, iv), its corners in traversal
        order for the current orientation.
        """
        m = self.index_map
        a, c = m[:-1, :-1], m[1:, 1:]
        du, dv = m[1:, :-1], m[:-1, 1:]
        cols = (a, du, c, dv) if self.kind == SLICE else (a, dv, c, du)
        quads = np.stack(cols, axis=-1).reshape(-1, 4)
        return quads if self.orientation > 0 else quads[:, ::-1]

    def reversed(self):
        import copy

        twin = copy.copy(self)
        twin.orientation = -self.orientation
        return twin

    # -- sampled geometry --------------------------------------------------

    def quad_centers(self):
        g = self.grid
        return 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:])

    def meridian(self, iu=0):
        """The v-cycle at fixed u (tube/slice only) as a closed LoopPath of
        n_v vertices."""
        if self.kind == SPHERE:
            raise SurfaceError("sphere meshes have no closed meridian cycle")
        iu %= self.n_u
        return LoopPath(self.grid[iu, :self.n_v].copy(), 1, f"{self.surface_id}:meridian(u={iu})")

    def edge_quad_count(self):
        """Multiset check data: each undirected edge with its quad count."""
        q = self.quad_vertex_ids()
        edges = np.stack([q, np.roll(q, -1, axis=1)], axis=-1).reshape(-1, 2)
        edges = np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1)  # drop pole edges
        keys, counts = np.unique(edges, axis=0, return_counts=True)
        return dict(zip(map(tuple, keys.tolist()), counts.tolist()))

    def spherical_area(self, unit):
        """Total signed spherical area of the image of the mesh under unit
        vectors ``unit`` (one per point): 4 pi times the map degree."""
        a, b, c, d = np.take(unit, self.quad_vertex_ids().T, axis=0)
        return float(np.sum(_solid_angles(a, b, c)) + np.sum(_solid_angles(a, c, d)))

    def signed_solid_angle(self, about):
        """Total signed solid angle of the mesh about a point (4 pi for an
        outward sphere)."""
        vecs = self.points - as_k_array(about)
        return self.spherical_area(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))


def _solid_angles(a, b, c):
    """Signed spherical areas of unit-vector triangles, stacked along the
    leading axes (van Oosterom-Strackee).

    Written out by component; each product, difference and left-to-right
    three-term sum rounds as in ``np.sum(a * np.cross(b, c), axis=-1)``.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
    num = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
    den = (1.0 + (a0 * b0 + a1 * b1 + a2 * b2) + (b0 * c0 + b1 * c1 + b2 * c2)
           + (c0 * a0 + c1 * a1 + c2 * a2))
    return 2.0 * np.arctan2(num, den)


def _check_mesh(n_u, n_v):
    if n_u < MIN_MESH or n_v < MIN_MESH:
        raise SurfaceError(f"mesh must be at least {MIN_MESH}x{MIN_MESH}, got {n_u}x{n_v}")


def _unique_grid(grid, poles=False):
    """Build points/index_map from a full grid.

    The seam row u = n_u is identified with u = 0.  The seam column v = n_v
    is identified with v = 0, unless ``poles``: then the columns v = 0 and
    v = n_v each collapse to one vertex.  Points are numbered in row-major
    order of their first grid slot.
    """
    n_u, n_v = grid.shape[0] - 1, grid.shape[1] - 1
    iu, iv = np.ogrid[: n_u + 1, : n_v + 1]
    first_u = iu % n_u
    if not poles:
        index_map = first_u * n_v + iv % n_v
        return grid[:n_u, :n_v].reshape(-1, 3), index_map  # a copy: rows are not contiguous
    # row u = 0 holds the north pole, its n_v - 1 inner slots and the south
    # pole (ids 0..n_v); every later row adds its n_v - 1 inner slots
    index_map = first_u * (n_v - 1) + iv + (first_u > 0)
    index_map[:, 0], index_map[:, n_v] = 0, n_v
    return np.concatenate([grid[0], grid[1:n_u, 1:n_v].reshape(-1, 3)]), index_map


def sphere_around(center, radius, n_u=64, n_v=64, domain=None, surface_id=None):
    """Latitude-longitude sphere mesh with outward orientation.

    Pole rows are collapsed to single vertices; pole quads degenerate to
    triangles, which downstream flux sums handle natively.
    """
    _check_mesh(n_u, n_v)
    center = as_k_array(center)
    if not math.isfinite(radius):
        raise SurfaceError(f"sphere radius must be finite, got {radius}")
    if radius <= 0:
        raise SurfaceError("sphere radius must be positive")
    if domain is not None and not domain.is_torus:
        if np.any(np.abs(center) + radius > domain.extent + 1e-12):
            raise SurfaceError("sphere exits the continuum box")
    if (domain is None or domain.is_torus) and radius >= math.pi:
        raise SurfaceError("sphere radius must be below pi on the torus")
    phi = TWO_PI * np.arange(n_u + 1) / n_u
    theta = math.pi * np.arange(n_v + 1) / n_v
    st, ct = np.sin(theta), np.cos(theta)
    grid = np.empty((n_u + 1, n_v + 1, 3))
    grid[..., 0] = center[0] + radius * st[None, :] * np.cos(phi)[:, None]
    grid[..., 1] = center[1] + radius * st[None, :] * np.sin(phi)[:, None]
    grid[..., 2] = center[2] + radius * ct[None, :]

    points, index_map = _unique_grid(grid, poles=True)
    sid = surface_id or (
        f"sphere(c=({center[0]:.4f},{center[1]:.4f},{center[2]:.4f}),r={radius:g})"
    )
    return ClosedSurface(SPHERE, grid, index_map, points, sid)


def loop_clearance(loop):
    """Geometric clearance of a loop: min(self-approach, curvature radius).

    The self-approach of a loop winding around the torus counts the chords
    to its images under the lattice translations 2 pi s with s not a multiple
    of the winding: the other strands of the same line."""
    verts = np.asarray(loop.vertices, dtype=float)
    n = len(verts)
    clearance = math.inf
    arc = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(arc)])
    # chords between vertices at least two steps apart that are short
    # against the arc length between them (the shorter way round)
    i, j = np.triu_indices(n, 2)
    along = cum[j] - cum[i]
    s = np.minimum(along, cum[-1] - along)
    chord = np.linalg.norm(verts[j] - verts[i], axis=-1)
    close = chord < 0.5 * s
    if np.any(close):
        clearance = float(np.min(chord[close]))
    w = np.array(getattr(loop, "winding", (0, 0, 0)))
    if np.any(w):
        # one period of the line, unwrapped; the shifts that are not
        # multiples of w, by the lower bound on their chords from the box
        lift = np.cumsum(np.vstack([verts[:1], torus_delta(verts[1:], verts[:-1])]), axis=0)
        r = int(np.abs(w).max()) + 1
        shifts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)))
        dot = shifts @ w
        shifts = shifts[np.any(shifts * (w @ w) != np.outer(dot, w), axis=1) | (dot % (w @ w) != 0)]
        gap = np.maximum(0.0, TWO_PI * np.abs(shifts) - np.ptp(lift, axis=0))
        bound = np.linalg.norm(gap, axis=1)
        for b, offset in sorted(zip(bound, shifts.tolist())):
            if b < clearance:
                gaps = lift[:, None, :] - lift[None, :, :] + TWO_PI * np.array(offset)
                clearance = min(clearance, float(np.linalg.norm(gaps, axis=-1).min()))
    # curvature radius from vertex triples
    radii = _circumradii(np.roll(verts, 1, axis=0), verts, np.roll(verts, -1, axis=0))
    return min(clearance, 2.0 * float(np.min(radii)))


def _circumradii(a, b, c):
    """Circumradii of stacked triangles (inf for collinear ones)."""
    ab, ac, bc = b - a, c - a, c - b
    cross = np.linalg.norm(np.cross(ab, ac), axis=-1)
    prod = np.linalg.norm(ab, axis=-1) * np.linalg.norm(ac, axis=-1) * np.linalg.norm(bc, axis=-1)
    flat = cross < 1e-14
    return np.where(flat, math.inf, prod / (2.0 * np.where(flat, 1.0, cross)))


def _resample_loop(verts, n):
    verts = np.asarray(verts, dtype=float)
    seg = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = total * np.arange(n) / n
    out = np.empty((n, 3))
    j = 0
    closed = np.vstack([verts, verts[:1]])
    for i, s in enumerate(targets):
        while cum[j + 1] < s:
            j += 1
        t = (s - cum[j]) / max(cum[j + 1] - cum[j], 1e-30)
        out[i] = (1 - t) * closed[j] + t * closed[j + 1]
    return out


def _parallel_frames(verts):
    """Rotation-minimizing normal frames along a closed polyline, with the
    closure mismatch spread as a uniform counter-twist."""
    n = len(verts)
    tangents = np.roll(verts, -1, axis=0) - np.roll(verts, 1, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(tangents[0])))] = 1.0
    n0 = ref - np.dot(ref, tangents[0]) * tangents[0]
    n0 /= np.linalg.norm(n0)
    normals = [n0]
    for i in range(1, n):
        v = normals[-1] - np.dot(normals[-1], tangents[i]) * tangents[i]
        normals.append(v / np.linalg.norm(v))
    # closure mismatch in the plane normal to t0
    v = normals[-1] - np.dot(normals[-1], tangents[0]) * tangents[0]
    v /= np.linalg.norm(v)
    cosang = float(np.clip(np.dot(v, n0), -1.0, 1.0))
    sinang = float(np.dot(np.cross(v, n0), tangents[0]))
    alpha = math.atan2(sinang, cosang)
    # math.cos/sin per vertex: numpy's vectorized ones may differ in the last bit
    angles = [alpha * i / n for i in range(n)]
    cos = np.array([math.cos(a) for a in angles])[:, None]
    sin = np.array([math.sin(a) for a in angles])[:, None]
    normals = np.array(normals)
    out_n = cos * normals + sin * np.cross(tangents, normals)
    return out_n, np.cross(tangents, out_n)


def tube_frame(loop, radius, n_u=64, n_v=64, clearance=None):
    """The checks of ``tube_around``, then the n_u centres resampled along
    the loop and their parallel-transported normal frames.  ``clearance``,
    if given, is ``loop_clearance(loop)``, already measured."""
    _check_mesh(n_u, n_v)
    verts = np.asarray(loop.vertices, dtype=float)
    if clearance is None:
        clearance = loop_clearance(loop)
    if not math.isfinite(radius):
        raise SurfaceError(f"tube radius must be finite, got {radius}")
    if radius <= 0:
        raise SurfaceError("tube radius must be positive")
    if radius >= clearance / 3.0:
        raise SurfaceError(
            f"tube radius {radius:g} too large: loop clearance is {clearance:g} "
            "(needs radius < clearance / 3)"
        )
    center = _resample_loop(verts, n_u)
    return (center, *_parallel_frames(center))


def tube_around(loop, radius, n_u=64, n_v=64, surface_id=None, frame=None):
    """Torus mesh around a nodal loop: u along the loop, v around the
    meridian, outward orientation.

    The framing is parallel-transported (rotation-minimizing) so meridians
    carry no spurious twist.  Raises SurfaceError when the radius reaches a
    third of the loop's own clearance (self-approach or curvature); the
    clearance to other components is the caller's to check.  ``frame``, if
    given, is ``tube_frame(loop, radius, n_u, n_v)``, already checked.
    """
    center, normals, binormals = frame or tube_frame(loop, radius, n_u, n_v)
    ring = _rings(center, normals, binormals, radius, n_v)
    grid = np.concatenate([ring, ring[:1]])

    points, index_map = _unique_grid(grid)
    sid = surface_id or f"tube(r={radius:g},n={n_u}x{n_v})"
    return ClosedSurface(TUBE, grid, index_map, points, sid)


def meridian_ring(loop, radius, n_u=64, n_v=64, n=None, surface_id=None, frame=None):
    """The meridian at u = 0 of ``tube_around(loop, radius, n_u, n_v,
    surface_id)``, with its checks and label, sampled at ``n`` angles
    (default n_v) without building the tube: bit for bit the meridian of
    the n_u x n tube.  ``frame`` is as for ``tube_around``."""
    center, normals, binormals = frame or tube_frame(loop, radius, n_u, n_v)
    n = n_v if n is None else n
    verts = _rings(center[:1], normals[:1], binormals[:1], radius, n)[0, :n]
    sid = surface_id or f"tube(r={radius:g},n={n_u}x{n_v})"
    return LoopPath(verts, 1, f"{sid}:meridian(u=0)")


def _rings(center, normals, binormals, radius, n):
    """Circles of the given radius in each normal plane, sampled at the
    n + 1 angles 2 pi j / n (the last closes the ring): shape (m, n+1, 3)."""
    vang = TWO_PI * np.arange(n + 1) / n
    return (
        center[:, None, :]
        + radius * np.cos(vang)[None, :, None] * normals[:, None, :]
        + radius * np.sin(vang)[None, :, None] * binormals[:, None, :]
    )


AXES = {"x": 0, "y": 1, "z": 2}


def slice_torus(axis, value, n_u=64, n_v=64, surface_id=None):
    """Coordinate 2-torus at a fixed momentum component (lattice models).

    Oriented so the plaquette normal points along the +axis direction.
    """
    if axis not in AXES:
        raise SurfaceError(f"slice axis must be one of x, y, z, got {axis!r}")
    if not math.isfinite(value):
        raise SurfaceError(f"slice value must be finite, got {value!r}")
    _check_mesh(n_u, n_v)
    a = AXES[axis]
    u_axis, v_axis = (a + 1) % 3, (a + 2) % 3
    us = -math.pi + TWO_PI * np.arange(n_u + 1) / n_u
    vs = -math.pi + TWO_PI * np.arange(n_v + 1) / n_v
    grid = np.empty((n_u + 1, n_v + 1, 3))
    grid[..., a] = float(value)
    grid[..., u_axis] = us[:, None]
    grid[..., v_axis] = vs[None, :]

    points, index_map = _unique_grid(grid)
    sid = surface_id or f"slice({axis}={value:.6g},n={n_u}x{n_v})"
    return ClosedSurface(SLICE, grid, index_map, points, sid)


def sample_frames(model, points, between=(),
                  describe=lambda gap: f"non-finite gap {gap} at the sampled k-points",
                  corners=None, reach=None, floor=None):
    """A model's gauge-fixed occupied frames at ``points`` and its smallest
    direct gap at ``points`` and ``between`` (quad centres of a mesh, edge
    midpoints of a ring): one eigensolve at the points, one spectrum call at
    the points between them that a bound leaves open.  Returns ``(min_gap,
    frames)``; a non-finite gap raises SurfaceError with the text
    ``describe(gap)``.

    Without a ``floor`` every point between is solved and ``min_gap`` is the
    exact minimum over all samples.  With one, ``corners`` indexes
    ``points`` on a grid one longer than ``between`` along each leading
    axis: the point between at index i lies in the cell of corners i to
    i + 1 along every axis, within ``reach[j]`` of each corner along k-axis
    j.  By Weyl's inequality its gap is at least any corner's minus
    ``model.gap_drift(reach)``, so a point between whose best corner clears
    the floor by that much is not solved.  ``min_gap`` is then the exact
    minimum whenever that is at or below the floor, and above the floor
    otherwise: a caller comparing it with the floor decides as if every
    point were solved.
    """
    pts = np.asarray(points, dtype=float)
    mids = np.asarray(between, dtype=float)
    if model.domain.is_torus:
        pts = reduce_torus(pts)
    else:
        model.domain.check(pts)
        model.domain.check(mids)
    # a non-finite vertex gives non-finite frames; the gap check drops them
    with np.errstate(invalid="ignore"):
        energies, frames = model.eigenframes(pts)
    gaps = model.gap_of(energies)
    gap = float(np.min(gaps))
    if floor is not None and mids.size:
        best = gaps[corners]  # the best corner of each cell, one axis at a time
        for axis in range(best.ndim):
            best = np.maximum(best[(slice(None),) * axis + (slice(None, -1),)],
                              best[(slice(None),) * axis + (slice(1, None),)])
        with np.errstate(invalid="ignore"):  # a NaN bound certifies nothing
            mids = mids[~(best > floor + model.gap_drift(reach))]
    if mids.size:
        if model.domain.is_torus:
            mids = reduce_torus(mids)
        gap = float(np.minimum(gap, np.min(model.direct_gap(mids))))
    if not math.isfinite(gap):  # NaN would pass every gap floor
        raise SurfaceError(describe(gap))
    return gap, fix_gauge(frames)


def validate(surface, model, floor=None):
    """Sample the direct gap of a model on a surface's vertices and quad
    centers.

    Returns ``(min_gap, frames)`` of ``sample_frames``.  Without a ``floor``
    ``min_gap`` is the exact minimum over vertices and quad centres.  With
    one, a centre is not solved where the gap bound from its corners clears
    the floor: each corner lies within half the largest u-edge plus half the
    largest v-edge of the centre along each axis.  ``min_gap`` is then exact
    whenever it is at or below the floor.  The surface is left unchanged.
    Raises SurfaceError on a non-finite gap; the charges raise on a gap at
    or below their floor.
    """
    g = np.ascontiguousarray(np.moveaxis(surface.grid, -1, 0))  # (3, n_u + 1, n_v + 1)
    centres = 0.25 * (g[:, :-1, :-1] + g[:, 1:, :-1] + g[:, :-1, 1:] + g[:, 1:, 1:])
    reach = None
    if floor is not None:
        with np.errstate(invalid="ignore"):  # a non-finite grid reaches NaN
            du, dv = np.abs(g[:, 1:] - g[:, :-1]), np.abs(g[:, :, 1:] - g[:, :, :-1])
            reach = 0.5 * (du.reshape(3, -1).max(axis=1) + dv.reshape(3, -1).max(axis=1))
    return sample_frames(
        model, surface.points, np.moveaxis(centres, 0, -1),
        lambda gap: f"surface {surface.surface_id} has a non-finite gap {gap}",
        corners=surface.index_map, reach=reach, floor=floor,
    )
