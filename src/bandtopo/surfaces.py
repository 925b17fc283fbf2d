"""Closed oriented quadrilateral meshes in the Brillouin zone.

Three parametric families: spheres around points, tube tori around nodal
loops, and coordinate slice tori.  Meshes are stored as (n_u+1) x (n_v+1)
vertex grids with explicit identifications (seams, poles) so that every
gauge-theoretic computation uses one frame per geometric vertex and the
mesh closes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SurfaceError
from .model import TWO_PI, as_k_array, reduce_torus

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
    """A planar circle of given center, radius and plane normal."""
    center = as_k_array(center)
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
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
    normal when ``orientation`` is +1.
    """

    def __init__(self, kind, grid, index_map, points, surface_id, meta=None):
        self.kind = kind
        self.grid = grid
        self.index_map = index_map
        self.points = points
        self.surface_id = surface_id
        self.meta = meta or {}
        self.orientation = 1
        self.min_gap_on_surface = None
        self.tube_frame = None  # (center, normals, binormals, radius) of a tube
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

    def plaquettes(self):
        """(iu, iv) of each row of ``quad_vertex_ids``, in row order."""
        return np.ndindex(self.n_u, self.n_v)

    def plaquette_vertex_ids(self, iu, iv):
        return self.quad_vertex_ids()[iu * self.n_v + iv]

    def reversed(self):
        import copy

        twin = copy.copy(self)
        twin.orientation = -self.orientation
        return twin

    # -- sampled geometry --------------------------------------------------

    def quad_centers(self):
        g = self.grid
        return 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:])

    def meridian(self, iu=0, n=None):
        """The v-cycle at fixed u (tube/slice only) as a closed LoopPath.

        A tube from ``tube_around`` samples its ring at any ``n`` angles,
        other meshes only at their n_v grid angles.
        """
        if self.kind == SPHERE:
            raise SurfaceError("sphere meshes have no closed meridian cycle")
        iu %= self.n_u
        n = self.n_v if n is None else int(n)
        if n == self.n_v:
            verts = self.grid[iu, :n].copy()
        elif self.tube_frame is not None:
            center, normals, binormals, radius = self.tube_frame
            verts = _rings(center[iu:iu + 1], normals[iu:iu + 1],
                           binormals[iu:iu + 1], radius, n)[0, :n]
        else:
            raise SurfaceError(f"meridians of this mesh have {self.n_v} vertices, got {n}")
        return LoopPath(verts, 1, f"{self.surface_id}:meridian(u={iu})")

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
        a, b, c, d = unit[self.quad_vertex_ids().T]
        return float(np.sum(_solid_angles(a, b, c)) + np.sum(_solid_angles(a, c, d)))

    def signed_solid_angle(self, about):
        """Total signed solid angle of the mesh about a point (4 pi for an
        outward sphere)."""
        vecs = self.points - as_k_array(about)
        return self.spherical_area(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))

    def to_json(self):
        return {
            "schema_version": 1,
            "kind": self.kind,
            "surface_id": self.surface_id,
            "n_u": self.n_u,
            "n_v": self.n_v,
            "orientation": int(self.orientation),
            "vertices": [[float(x) for x in p] for p in self.points],
            "index_map": [[int(i) for i in row] for row in self.index_map],
            "min_gap_on_surface": (
                None
                if self.min_gap_on_surface is None
                else float(self.min_gap_on_surface)
            ),
            "meta": self.meta,
        }


def _solid_angles(a, b, c):
    """Signed spherical areas of unit-vector triangles, stacked along the
    leading axes (van Oosterom-Strackee)."""
    num = np.sum(a * np.cross(b, c), axis=-1)
    den = 1.0 + np.sum(a * b, axis=-1) + np.sum(b * c, axis=-1) + np.sum(c * a, axis=-1)
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
    iu, iv = np.indices(grid.shape[:2])
    first_u, first_v = iu % n_u, iv % n_v
    if poles:
        first_u[:, [0, n_v]], first_v = 0, iv
    first = np.ravel_multi_index((first_u, first_v), iu.shape)
    slots, index_map = np.unique(first, return_inverse=True)
    return grid.reshape(-1, 3)[slots], index_map.reshape(iu.shape)


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
    return ClosedSurface(
        SPHERE, grid, index_map, points, sid,
        meta={"center": [float(x) for x in center], "radius": float(radius)},
    )


def loop_clearance(loop, others=()):
    """Geometric clearance of a loop: min(self-approach, curvature radius,
    distance to other components)."""
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
    # curvature radius from vertex triples
    radii = _circumradii(np.roll(verts, 1, axis=0), verts, np.roll(verts, -1, axis=0))
    clearance = min(clearance, 2.0 * float(np.min(radii)))
    for other in others:
        overts = np.asarray(getattr(other, "vertices", other), dtype=float)
        d = np.linalg.norm(verts[:, None, :] - overts[None, :, :], axis=-1).min()
        clearance = min(clearance, d)
    return clearance


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


def tube_around(loop, radius, n_u=64, n_v=64, other_components=(), surface_id=None):
    """Torus mesh around a nodal loop: u along the loop, v around the
    meridian, outward orientation.

    The framing is parallel-transported (rotation-minimizing) so meridians
    carry no spurious twist.  Raises SurfaceError when the radius exceeds a
    third of the loop's clearance (self-approach, curvature, or distance to
    other components).
    """
    _check_mesh(n_u, n_v)
    verts = np.asarray(loop.vertices, dtype=float)
    clearance = loop_clearance(loop, other_components)
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
    normals, binormals = _parallel_frames(center)
    ring = _rings(center, normals, binormals, radius, n_v)
    grid = np.concatenate([ring, ring[:1]])

    points, index_map = _unique_grid(grid)
    sid = surface_id or f"tube(r={radius:g},n={n_u}x{n_v})"
    tube = ClosedSurface(
        TUBE, grid, index_map, points, sid,
        meta={"radius": float(radius), "loop_length": int(len(verts))},
    )
    tube.tube_frame = (center, normals, binormals, radius)
    return tube


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
    return ClosedSurface(
        SLICE, grid, index_map, points, sid,
        meta={"axis": axis, "value": float(value)},
    )


def validate(surface, model):
    """Sample the direct gap on vertices and quad centers; store the minimum.

    Returns the minimum gap.  Downstream invariants refuse surfaces whose
    stored minimum is too small for their tolerance.
    """
    pts = surface.points
    centers = surface.quad_centers().reshape(-1, 3)
    sample = np.vstack([pts, centers])
    if model.domain.is_torus:
        sample = reduce_torus(sample)
    else:
        model.domain.check(sample)
    mg = float(np.min(model.direct_gap(sample)))
    if not math.isfinite(mg):  # NaN would pass every gap floor
        raise SurfaceError(f"surface {surface.surface_id} has a non-finite gap {mg}")
    surface.min_gap_on_surface = mg
    return mg
