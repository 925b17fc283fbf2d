"""Extraction of the band-crossing locus: isolated points and nodal curves.

The pipeline is scan (coarse grid flagging), cluster (torus-aware connected
components of flagged cells), classify (point-like vs curve-like), then
refine (Newton / gap minimization) or trace (predictor-corrector marching
along the zero curve).  Degenerate clusters fail loudly.

The scan takes one spectrum of the grid (in blocks) for all gaps.  Each
finite-difference stencil (tangent Hessian, corrector, slope probes, Newton
Jacobian) is one batched evaluation with pointwise arithmetic, so results
are bitwise those of one eigensolve per point.

``scipy.optimize`` is imported inside ``_minimize_gap``, the multiband
Nelder-Mead refinement, and nowhere else: most runs never reach it, and its
import alone takes longer than a small report.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .exceptions import LocusAmbiguityError, RefinementError
from .model import TWO_PI, as_k_array, reduce_torus, torus_delta

POINT_TOL = 1e-8
VERTEX_TOL = 1e-6
MIN_SCAN_RESOLUTION = 8
# a two-band cluster whose seed Hessian of gap^2 has eigenvalue ratio
# w[0]/w[-1] above this is tried as a point first, and kept only if the ratio
# at the refined zero clears it too. Measured on the builtins and random
# two-band models at grids 16-48: point seeds >= 0.12 and refined points
# >= 0.16; curve seeds <= 0.035 at grid 32 (up to 0.19 at grid 16), and
# zeros refined onto curves <= 0.0094
SEED_POINT_RATIO = 0.07
# k-points per eigensolve call of the scan: one call for the whole grid
# raised peak memory by ~10 MB at grid 32
SCAN_BLOCK = 2048


# -- grid geometry -----------------------------------------------------------


class ScanGrid:
    """Uniform sampling grid over the torus or a continuum box."""

    def __init__(self, model, resolution):
        if resolution < MIN_SCAN_RESOLUTION:
            raise ValueError(f"scan resolution must be at least {MIN_SCAN_RESOLUTION}")
        self.resolution = int(resolution)
        self.torus = model.domain.is_torus
        if self.torus:
            self.origin = np.full(3, -math.pi)
            self.spacing = TWO_PI / self.resolution
            self.npoints = self.resolution
        else:
            ext = model.domain.extent
            self.origin = np.full(3, -ext)
            self.spacing = 2.0 * ext / self.resolution
            self.npoints = self.resolution + 1

    def points(self):
        axes = [self.origin[a] + self.spacing * np.arange(self.npoints) for a in range(3)]
        kx, ky, kz = np.meshgrid(*axes, indexing="ij")
        return np.stack([kx, ky, kz], axis=-1)

    def cell_center(self, idx):
        return self.origin + self.spacing * (np.asarray(idx, dtype=float) + 0.5)

    @property
    def n_cells(self):
        return self.resolution


@dataclass
class ScanResult:
    """Flagged cells per gap index, plus their sampled minimal gaps."""

    model: object
    resolution: int
    grid: ScanGrid
    gap_threshold: dict
    flagged: dict  # gap_index -> list of (i, j, l) cell index triples
    cell_min_gap: dict  # gap_index -> {cell: min sampled gap}


def scan_grid(model, resolution=48, gap_threshold=None, gap_index=None):
    """Flag grid cells whose minimal sampled direct gap is below threshold.

    ``gap_index=None`` scans every gap between bands 1..occupied_count, so
    crossings inside the occupied set (companion nodal lines) are found
    along with the Fermi-level locus.  With no explicit threshold, one is
    derived per gap from the largest neighbor-to-neighbor gap variation on
    the scan grid (a Lipschitz estimate), which guarantees cells containing
    a zero are flagged.
    """
    grid = ScanGrid(model, resolution)
    pts = grid.points()
    flat = pts.reshape(-1, 3)
    spectrum = np.concatenate(
        [model.spectrum(flat[i : i + SCAN_BLOCK]) for i in range(0, len(flat), SCAN_BLOCK)]
    ).reshape(pts.shape[:-1] + (-1,))
    gaps = range(1, model.occupied_count + 1) if gap_index is None else [int(gap_index)]
    flagged = {}
    thresholds = {}
    min_gaps = {}
    for g in gaps:
        gap = model.gap_of(spectrum, g)
        n = grid.n_cells
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
            # a cell containing a zero has min corner gap below its own
            # corner spread; the absolute floor catches zeros centered so
            # symmetrically that their own cell's corner spread vanishes
            floor = 0.12 * float(np.max(spread))
            mask = mins < np.maximum(1.35 * spread, floor)
            thresholds[g] = float(np.max(spread)) * 1.35
        else:
            mask = mins < float(gap_threshold)
            thresholds[g] = float(gap_threshold)
        idx = np.argwhere(mask)
        flagged[g] = [tuple(map(int, t)) for t in idx]
        min_gaps[g] = {tuple(map(int, t)): float(mins[tuple(t)]) for t in idx}
    return ScanResult(model, resolution, grid, thresholds, flagged, min_gaps)


# -- clustering --------------------------------------------------------------


_OFFSETS = [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)]


def _cluster_cells(cells, n, torus):
    """Connected components of cell index triples in [0, n)^3 under 26-adjacency.

    Returns clusters as lists of unwrapped integer triples (torus clusters
    are unwrapped by a depth-first walk from their smallest cell, so their
    bounding boxes are meaningful), in order of that cell.
    """
    cells = np.unique(np.asarray(cells, dtype=np.int64).reshape(-1, 3), axis=0)
    if not len(cells):
        return []
    # number of each flagged cell on the grid (-1 elsewhere), padded by one
    # layer: wrapped on the torus, unflagged around a box
    index = np.full((n, n, n), -1, dtype=np.int32)
    index[tuple(cells.T)] = np.arange(len(cells), dtype=np.int32)
    index = np.pad(index, 1, mode="wrap") if torus else np.pad(index, 1, constant_values=-1)
    strides = np.array([(n + 2) ** 2, n + 2, 1])
    table = index.ravel()[((cells + 1) @ strides)[:, None] + np.array(_OFFSETS) @ strides]
    # flagged neighbours of cell r, in offset order: entries start[r]:start[r + 1]
    flagged = table >= 0
    start = np.concatenate([[0], np.cumsum(np.count_nonzero(flagged, axis=1))]).tolist()
    neighbour = array("i", table[flagged].tobytes())
    offset = array("b", np.nonzero(flagged)[1].astype(np.int8).tobytes())

    seen = [False] * len(cells)
    clusters = []
    for seed, coords in enumerate(cells.tolist()):
        if seen[seed]:
            continue
        seen[seed] = True
        unwrapped = {seed: tuple(coords)}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            ux, uy, uz = unwrapped[cur]
            lo, hi = start[cur], start[cur + 1]
            for j, o in zip(neighbour[lo:hi], offset[lo:hi]):
                if not seen[j]:
                    seen[j] = True
                    di, dj, dl = _OFFSETS[o]
                    unwrapped[j] = (ux + di, uy + dj, uz + dl)
                    frontier.append(j)
        clusters.append(sorted(unwrapped.values()))
    return clusters


def _bbox_diameter(cluster):
    arr = np.array(cluster)
    return float(np.max(arr.max(axis=0) - arr.min(axis=0)))


# -- refinement --------------------------------------------------------------


def _gap_value(model, k, gap_index):
    return float(model.direct_gap(np.asarray(k, dtype=float), gap_index=gap_index))


def refine_point(model, seed, gap_index=None, tol=POINT_TOL, max_iter=60):
    """Refine a gap zero to a WeylPoint with residual gap below tol.

    Two-band models use damped Newton on h(k) = 0; multiband models
    minimize the squared gap.  Raises RefinementError on non-convergence.
    """
    g = model.occupied_count if gap_index is None else int(gap_index)
    k = np.array(as_k_array(seed), dtype=float)
    field = model.two_band_field

    gap0 = _gap_value(model, k, g)
    if gap0 < tol:
        return WeylPoint(_canonical_position(model, k), gap0, 0, gap_index=g)

    if field is not None:
        k, iterations = _newton_on_field(field, k, tol / 2.0, max_iter)
    else:
        k, iterations = _minimize_gap(model, k, g, tol, max_iter)

    gap = _gap_value(model, k, g)
    if gap >= tol or not np.all(np.isfinite(k)):
        raise RefinementError(
            f"refinement did not reach gap < {tol:g} (residual {gap:.3e})",
            residual=gap,
            position=k,
            iterations=iterations,
        )
    return WeylPoint(_canonical_position(model, k), gap, iterations, gap_index=g)


def _canonical_position(model, k):
    return reduce_torus(k) if model.domain.is_torus else np.asarray(k, dtype=float)


def _newton_on_field(field, k, htol, max_iter):
    step_fd = 1e-6
    dk = step_fd * np.eye(3)
    for it in range(1, max_iter + 1):
        h = field(k)
        if np.linalg.norm(h) < htol:
            return k, it - 1
        hk = field(np.concatenate([k + dk, k - dk]))
        jac = ((hk[:3] - hk[3:]) / (2 * step_fd)).T
        try:
            delta = np.linalg.solve(jac, -h)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        norm0 = np.linalg.norm(h)
        for _ in range(20):
            trial = k + scale * delta
            if np.linalg.norm(field(trial)) < norm0:
                k = trial
                break
            scale *= 0.5
        else:
            break
    return k, max_iter


def _minimize_gap(model, k, gap_index, tol, max_iter):
    from scipy.optimize import minimize

    def q(x):
        return _gap_value(model, x, gap_index) ** 2

    res = minimize(
        q,
        k,
        method="Nelder-Mead",
        options={
            "xatol": 1e-12,
            "fatol": (tol / 4.0) ** 4,
            "maxiter": 400 * max_iter,
            "maxfev": 400 * max_iter,
        },
    )
    return np.asarray(res.x, dtype=float), int(res.nit)


# -- curve tracing ------------------------------------------------------------


def _squared_gaps(model, pts, gap_index):
    """Squared gaps at a batch of points, squared as Python floats: numpy's
    ``** 2`` can differ from ``float ** 2`` in the last bit."""
    return [float(g) ** 2 for g in model.direct_gap(pts, gap_index=gap_index)]


_HESS_A, _HESS_B = np.triu_indices(3)


def _gap_tangent(model, k, gap_index, fd):
    """Unit tangent of the nodal curve from the null space of Hess(gap^2)."""
    da = fd * np.eye(3)[_HESS_A]
    db = fd * np.eye(3)[_HESS_B]
    stencil = np.stack([k + da + db, k + da - db, k - da + db, k - da - db], axis=1)
    q = np.array(_squared_gaps(model, stencil.reshape(-1, 3), gap_index)).reshape(-1, 4)
    hess = np.empty((3, 3))
    hess[_HESS_A, _HESS_B] = hess[_HESS_B, _HESS_A] = (
        (q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3]) / (4 * fd * fd)
    )
    w, v = np.linalg.eigh(hess)
    return v[:, 0], w


# (u, v) offsets of the corrector's off-centre stencil, in units of its step
_PLANE_STENCIL = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)


def _correct_to_curve(model, k, tangent, gap_index, tol, fd, max_iter=40):
    """Pull a point onto the zero curve: Newton on gap^2 in the plane normal
    to the tangent, re-estimating the tangent plane as the point closes in."""
    total_it = 0
    for _outer in range(8):
        basis = _normal_basis(tangent)
        for _ in range(max_iter):
            gap = _gap_value(model, k, gap_index)
            if gap < tol:
                return k, total_it
            total_it += 1
            # finite-difference step tracks the distance to the zero so the
            # truncation bias shrinks quadratically as the corrector closes in
            h = float(np.clip(gap, 1e-7, fd))
            grad = np.empty(2)
            hess = np.empty((2, 2))
            uv = h * _PLANE_STENCIL
            q0 = gap**2
            qp0, qm0, q0p, q0m, qpp, qpm, qmp, qmm = _squared_gaps(
                model, k + uv[:, :1] * basis[0] + uv[:, 1:] * basis[1], gap_index
            )
            grad[0] = (qp0 - qm0) / (2 * h)
            grad[1] = (q0p - q0m) / (2 * h)
            hess[0, 0] = (qp0 - 2 * q0 + qm0) / (h * h)
            hess[1, 1] = (q0p - 2 * q0 + q0m) / (h * h)
            hess[0, 1] = hess[1, 0] = (qpp - qpm - qmp + qmm) / (4 * h * h)
            try:
                delta = np.linalg.solve(hess + 1e-14 * np.eye(2), -grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None:
                break
            step = delta[0] * basis[0] + delta[1] * basis[1]
            norm = np.linalg.norm(step)
            if norm < 1e-14:
                break
            if norm > 4 * fd:
                step = step * (4 * fd / norm)
            k = k + step
        else:
            # out of steps; a break leaves k where the gap was just >= tol
            gap = _gap_value(model, k, gap_index)
            if gap < tol:
                return k, total_it
        # the plane missed the curve: re-aim with a fresh tangent estimate
        tangent, _ = _gap_tangent(model, k, gap_index, fd)
    raise RefinementError(
        f"curve corrector stalled at gap {gap:.3e}", residual=gap, position=k
    )


def _normal_basis(tangent):
    t = tangent / np.linalg.norm(tangent)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(t)))] = 1.0
    u = _cross(t, ref)
    u /= np.linalg.norm(u)
    v = _cross(t, u)
    return u, v


def _cross(a, b):
    """``np.cross`` of two 3-vectors in float arithmetic, in its operation
    order (so bitwise equal), without its per-call overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _march_curve(model, start, gap_index, step, tol, torus, box_extent):
    """March along the zero curve; returns (vertices, closed, winding)."""
    fd = max(step / 8.0, 1e-5)
    k = np.array(start, dtype=float)
    tangent, _ = _gap_tangent(model, k, gap_index, fd)
    direction = tangent / np.linalg.norm(tangent)

    def inside(p):
        return torus or np.all(np.abs(p) <= box_extent + 1e-9)

    max_steps = int(60.0 * TWO_PI / step)

    def march(k0, d0):
        verts = [np.array(k0)]
        d = np.array(d0)
        for _ in range(max_steps):
            pred = verts[-1] + step * d
            if not inside(pred):
                return verts, False, None
            t, _w = _gap_tangent(model, pred, gap_index, fd)
            t = t / np.linalg.norm(t)
            if np.dot(t, d) < 0:
                t = -t
            cur, _ = _correct_to_curve(model, pred, t, gap_index, tol, fd)
            if not inside(cur):
                return verts, False, None
            d_new = cur - verts[-1]
            n_new = np.linalg.norm(d_new)
            if n_new < step * 0.05:
                raise RefinementError("curve tracing stalled (no progress)")
            d = d_new / n_new
            verts.append(cur)
            disp = verts[-1] - verts[0]
            if torus:
                winding = np.round(disp / TWO_PI)
                near = np.linalg.norm(disp - TWO_PI * winding) < 0.75 * step
            else:
                winding = np.zeros(3)
                near = np.linalg.norm(disp) < 0.75 * step
            if len(verts) > 4 and near:
                return verts[:-1], True, winding.astype(int)
        raise RefinementError("curve tracing exceeded maximum length")

    verts, closed, winding = march(k, direction)
    if closed:
        return np.array(verts), True, winding
    # open arc: march the other way from the start and join
    back, closed_back, _ = march(k, -direction)
    if closed_back:
        return np.array(back), True, np.zeros(3, dtype=int)
    verts = list(reversed(back[1:])) + verts
    return np.array(verts), False, None


# -- result types -------------------------------------------------------------


@dataclass
class WeylPoint:
    """An isolated gap zero after refinement."""

    position: np.ndarray
    residual_gap: float
    refinement_iterations: int
    gap_index: int = 1

    def to_record(self):
        return {
            "type": "point",
            "position": [float(x) for x in self.position],
            "residual_gap": float(self.residual_gap),
            "refinement_iterations": int(self.refinement_iterations),
            "gap_index": int(self.gap_index),
        }


@dataclass
class NodalLoop:
    """A closed nodal curve as an oriented polyline (closure implied)."""

    vertices: np.ndarray
    orientation: int = 1
    max_vertex_gap: float = 0.0
    gap_index: int = 1
    winding: tuple = (0, 0, 0)

    def __len__(self):
        return len(self.vertices)

    @property
    def is_contractible(self):
        return tuple(self.winding) == (0, 0, 0)

    def reversed(self):
        return NodalLoop(
            vertices=self.vertices[::-1].copy(),
            orientation=-self.orientation,
            max_vertex_gap=self.max_vertex_gap,
            gap_index=self.gap_index,
            winding=tuple(-w for w in self.winding),
        )

    def to_record(self):
        return {
            "type": "loop",
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "orientation": int(self.orientation),
            "max_vertex_gap": float(self.max_vertex_gap),
            "gap_index": int(self.gap_index),
            "winding": [int(w) for w in self.winding],
        }


@dataclass
class OpenArc:
    """A nodal curve hitting the continuum box boundary (open polyline)."""

    vertices: np.ndarray
    max_vertex_gap: float = 0.0
    gap_index: int = 1

    def __len__(self):
        return len(self.vertices)

    def to_record(self):
        return {
            "type": "arc",
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "max_vertex_gap": float(self.max_vertex_gap),
            "gap_index": int(self.gap_index),
        }


@dataclass
class NodalLocus:
    """The full band-crossing locus split into connected components."""

    points: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    open_arcs: list = field(default_factory=list)
    model_name: str = ""
    resolution: int = 0

    @property
    def is_empty(self):
        return not (self.points or self.loops or self.open_arcs)

    def to_json(self):
        return {
            "schema_version": 1,
            "model": self.model_name,
            "resolution": self.resolution,
            "components": [c.to_record() for c in split_components(self)],
        }


@dataclass
class Component:
    """A labeled connected component of the locus."""

    id: str
    kind: str  # "point" | "loop" | "arc"
    item: object
    gap_index: int

    def to_record(self):
        rec = self.item.to_record()
        rec["id"] = self.id
        return rec


def split_components(locus):
    """Deterministically labeled components: points, loops, then arcs."""
    comps = []
    pts = sorted(locus.points, key=lambda p: tuple(np.round(p.position, 9)))
    for i, p in enumerate(pts):
        comps.append(Component(f"P{i}", "point", p, p.gap_index))
    loops = sorted(
        locus.loops, key=lambda l: tuple(np.round(np.min(l.vertices, axis=0), 9))
    )
    for i, l in enumerate(loops):
        comps.append(Component(f"L{i}", "loop", l, l.gap_index))
    arcs = sorted(
        locus.open_arcs, key=lambda a: tuple(np.round(np.min(a.vertices, axis=0), 9))
    )
    for i, a in enumerate(arcs):
        comps.append(Component(f"A{i}", "arc", a, a.gap_index))
    return comps


# -- classification and assembly ----------------------------------------------


def _canonicalize_loop(vertices, torus):
    """Fix the traversal convention: start at the lexicographic minimum and
    orient so the initial tangent has a positive leading component
    (x, then y, then z tie-break)."""
    verts = np.asarray(vertices)
    if torus:
        reduced = reduce_torus(verts)
    else:
        reduced = verts
    keys = [tuple(np.round(v, 6)) for v in reduced]
    start = min(range(len(keys)), key=lambda i: keys[i])
    verts = np.roll(verts, -start, axis=0)
    if torus:
        # re-anchor the rolled polyline in the fundamental domain
        verts = verts - verts[0] + reduce_torus(verts[0])
    tangent = verts[1] - verts[0]
    tangent = tangent / np.linalg.norm(tangent)
    flip = False
    for a in range(3):
        if abs(tangent[a]) > 1e-6:
            flip = tangent[a] < 0
            break
    if flip:
        verts = np.roll(verts[::-1], 1, axis=0)
    return verts


def _cluster_seed(model, grid, cluster, gap_index):
    centers = grid.cell_center(cluster)
    if grid.torus:
        centers = reduce_torus(centers)
    else:
        centers = np.clip(centers, grid.origin, -grid.origin)
    gaps = model.direct_gap(centers, gap_index=gap_index)
    return centers, centers[int(np.argmin(gaps))], float(np.min(gaps))


def _point_from_cluster(model, grid, cluster, centers, seed, gap_index, gap_bound,
                        min_ratio=1e-3):
    point = refine_point(model, seed, gap_index=gap_index)
    # a resolved isolated zero has a full-rank squared-gap Hessian
    _, eigs = _gap_tangent(model, point.position, gap_index, max(grid.spacing / 8, 1e-5))
    if eigs[-1] <= 0 or eigs[0] / eigs[-1] < min_ratio:
        raise LocusAmbiguityError(
            f"zero near {np.round(point.position, 4).tolist()} is not point-like "
            "(rank-deficient crossing); increase the scan resolution"
        )
    slope = math.sqrt(max(eigs[0], 1e-30) / 2.0)
    limit = _coverage_limit(grid, gap_bound, slope)
    _check_coverage(np.asarray([point.position]), centers, grid, cluster, gap_index, limit)
    return point


def _curve_from_cluster(model, grid, cluster, centers, seed, seed_tangent, gap_index,
                        step_factor, vertex_tol, gap_bound):
    step = step_factor * grid.spacing
    corrected, _ = _correct_to_curve(
        model, seed, seed_tangent, gap_index, vertex_tol, _seed_fd(grid.spacing)
    )
    verts, closed, winding = _march_curve(
        model, corrected, gap_index, step, vertex_tol,
        grid.torus, None if grid.torus else model.domain.extent,
    )
    slope_min, slope_max = _transverse_slope(model, verts, gap_index, grid.spacing)
    if slope_min < max(1e-4, 0.03 * slope_max):
        raise LocusAmbiguityError(
            f"zero set traced near {np.round(verts[0], 3).tolist()} is not a "
            f"transversally isolated curve (gap slope {slope_min:.2e} in some "
            "normal direction); locus dimension ambiguous"
        )
    limit = _coverage_limit(grid, gap_bound, slope_min)
    _check_coverage(verts, centers, grid, cluster, gap_index, limit)
    max_gap = float(
        np.max(
            model.direct_gap(
                reduce_torus(verts) if grid.torus else verts, gap_index=gap_index
            )
        )
    )
    if closed:
        canon = _canonicalize_loop(verts, grid.torus)
        return NodalLoop(
            vertices=canon,
            orientation=1,
            max_vertex_gap=max_gap,
            gap_index=gap_index,
            winding=tuple(int(w) for w in winding),
        )
    ends = sorted([tuple(np.round(verts[0], 6)), tuple(np.round(verts[-1], 6))])
    if tuple(np.round(verts[0], 6)) != ends[0]:
        verts = verts[::-1]
    return OpenArc(vertices=verts, max_vertex_gap=max_gap, gap_index=gap_index)


def _coverage_limit(grid, gap_bound, slope):
    """How far a flagged cell may legitimately sit from the extracted zero
    set: its sampled gap divided by the local gap slope, padded by cell
    diagonals."""
    reach = gap_bound / max(slope, 1e-12)
    return min(reach, 12.0 * grid.spacing) + 2.5 * grid.spacing * math.sqrt(3.0)


def _transverse_slope(model, verts, gap_index, spacing):
    """(min, max) transverse gap slope sampled along a traced curve.

    A vanishing minimum means the zero set extends beyond the curve (a
    nodal surface or a crossing network): not a transversally isolated
    curve."""
    n = len(verts)
    tangents = np.gradient(np.asarray(verts), axis=0)
    probes = []
    for i in range(0, n, max(1, n // 8)):
        t = tangents[i]
        nrm = np.linalg.norm(t)
        if nrm < 1e-12:
            continue
        u, v = _normal_basis(t / nrm)
        for ang in (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi):
            d = math.cos(ang) * u + math.sin(ang) * v
            probes.append(verts[i] + spacing * d)
    probes = np.reshape(probes, (-1, 3))
    if model.domain.is_torus:
        probes = reduce_torus(probes)
    else:
        probes = probes[model.domain.contains(probes)]
    if not len(probes):
        return 1.0, 1.0
    slopes = model.direct_gap(probes, gap_index=gap_index) / spacing
    return float(slopes.min()), float(slopes.max())


def _classify_cluster(model, grid, cluster, gap_index, step_factor, vertex_tol,
                      gap_bound):
    """Resolve one flagged-cell cluster into a point, loop, arc, or None
    (spurious near-gap region with no actual zero).

    A two-band cluster whose seed Hessian of gap^2 has a smallest-to-largest
    eigenvalue ratio above SEED_POINT_RATIO is tried as a point first, and
    kept only if the Hessian at the refined zero clears the same ratio.  Any
    other cluster, and a point attempt that fails, goes through the curve
    tracer and then the point refinement.  Multiband clusters always trace
    first: their point refinement is Nelder-Mead on the gap, which drifts
    along a nodal curve for thousands of eigensolves before it stops.
    """
    centers, seed, _ = _cluster_seed(model, grid, cluster, gap_index)
    as_point = functools.partial(
        _point_from_cluster, model, grid, cluster, centers, seed, gap_index, gap_bound
    )
    if _bbox_diameter(cluster) < 3:
        try:
            return as_point()
        except RefinementError:
            # refinement bottomed out above tolerance: near-gap but no zero
            return None
    tangent, eigs = _gap_tangent(model, seed, gap_index, _seed_fd(grid.spacing))
    if model.band_count == 2 and eigs[-1] > 0 and eigs[0] / eigs[-1] > SEED_POINT_RATIO:
        try:
            return as_point(SEED_POINT_RATIO)
        except (RefinementError, LocusAmbiguityError):
            pass
    try:
        # ambiguity errors mean zeros were found but are not a clean curve:
        # those always propagate; refinement errors mean no zero was reached
        # and the cluster may still be an isolated point or spurious
        return _curve_from_cluster(
            model, grid, cluster, centers, seed, tangent, gap_index, step_factor,
            vertex_tol, gap_bound,
        )
    except RefinementError as curve_exc:
        try:
            return as_point()
        except RefinementError:
            return None
        except LocusAmbiguityError:
            raise LocusAmbiguityError(
                f"cluster of {len(cluster)} cells near {np.round(seed, 3).tolist()} "
                f"(gap {gap_index}) is neither point-like nor curve-like: {curve_exc}"
            ) from curve_exc


def _cluster_gap_bound(scan, cluster, gap_index):
    n = scan.grid.npoints
    table = scan.cell_min_gap[gap_index]
    vals = []
    for c in cluster:
        key = tuple(x % n for x in c) if scan.grid.torus else c
        if key in table:
            vals.append(table[key])
    return max(vals) if vals else scan.gap_threshold[gap_index]


def _resolve_clusters(model, scan, step_factor, vertex_tol):
    """Points, loops and arcs of every flagged-cell cluster of a scan, in gap
    and cluster order; spurious clusters are dropped.

    A cluster that is neither point-like nor traceable as a single covered
    curve raises LocusAmbiguityError naming the cluster.
    """
    grid = scan.grid
    items = []
    for g in sorted(scan.flagged):
        for cluster in _cluster_cells(scan.flagged[g], grid.n_cells, grid.torus):
            item = _classify_cluster(
                model, grid, cluster, g, step_factor, vertex_tol,
                _cluster_gap_bound(scan, cluster, g),
            )
            if item is not None:
                items.append(item)
    return items


def _of_kind(items, kind):
    return [item for item in items if isinstance(item, kind)]


def trace_loops(model, scan, step_factor=0.6, vertex_tol=VERTEX_TOL):
    """Loops and open arcs of a scan's curve-like clusters (see _resolve_clusters)."""
    items = _resolve_clusters(model, scan, step_factor, vertex_tol)
    return _of_kind(items, NodalLoop), _of_kind(items, OpenArc)


def _seed_fd(spacing):
    """Finite-difference step of the seed Hessian and the seed corrector."""
    return max(spacing / 10.0, 1e-5)


def _check_coverage(verts, centers, grid, cluster, gap_index, limit):
    """Every flagged cell of the cluster must hug the extracted locus."""
    verts = np.asarray(verts)
    squared = 0.0
    for a in range(3):  # one (centers, verts) plane per axis bounds the memory
        delta = verts[None, :, a] - centers[:, None, a]
        if grid.torus:
            delta = reduce_torus(delta)
        squared = squared + delta * delta
    dist = np.sqrt(squared.min(axis=1))
    far = np.flatnonzero(dist > limit)
    if far.size:
        c, d = centers[far[0]], dist[far[0]]
        raise LocusAmbiguityError(
            f"cluster of {len(cluster)} cells (gap {gap_index}) is not covered by "
            f"the extracted locus: cell at {np.round(c, 3).tolist()} lies "
            f"{d:.3f} away; locus dimension ambiguous"
        )


def extract_locus(model, resolution=48, gap_threshold=None, gap_index=None,
                  step_factor=0.6, vertex_tol=VERTEX_TOL):
    """Scan, classify, refine and trace: the full locus of a model."""
    scan = scan_grid(
        model, resolution=resolution, gap_threshold=gap_threshold, gap_index=gap_index,
    )
    items = _resolve_clusters(model, scan, step_factor, vertex_tol)
    return NodalLocus(
        points=_dedupe_points(_of_kind(items, WeylPoint), model.domain.is_torus),
        loops=_of_kind(items, NodalLoop),
        open_arcs=_of_kind(items, OpenArc),
        model_name=model.name,
        resolution=resolution,
    )


def _dedupe_points(points, torus, tol=1e-5):
    unique = []
    for p in sorted(points, key=lambda q: tuple(np.round(q.position, 9))):
        dup = False
        for u in unique:
            if u.gap_index != p.gap_index:
                continue
            delta = torus_delta(u.position, p.position) if torus else u.position - p.position
            if np.linalg.norm(delta) < tol:
                dup = True
                break
        if not dup:
            unique.append(p)
    return unique
