"""Extraction of the band-crossing locus: isolated points and nodal curves.

The pipeline is scan (coarse grid flagging), cluster (torus-aware connected
components of flagged cells), classify (point-like vs curve-like), then
refine (damped Newton) or trace (predictor-corrector marching along the
zero curve).  Degenerate clusters fail loudly.

The scan takes one spectrum of the grid (in blocks) for all gaps.  Every
zero-finder reads one primitive, ``_crossing``: one eigensolve at k projects
H and the analytic dH/dk onto the two crossing bands, giving a field d that
vanishes on the locus and its Jacobian J.  One SVD of J (``_newton``) gives
the Newton step, the curve tangent and the rank that tells points from
curves.  The same singular values, kept at every vertex the curve
corrector accepts, give a traced curve's transverse gap slopes and its
vertex gaps.  The curves of all clusters are traced in lockstep, with one
batched crossing and SVD per gap and corrector round.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BandTopoError, LocusAmbiguityError, RefinementError
from .model import TWO_PI, as_k_array, reduce_torus, torus_delta

POINT_TOL = 1e-8
POINT_MAX_ITER = 60
CORRECTOR_MAX_ITER = 40
VERTEX_TOL = 1e-6
# curve-tracer step, in grid spacings
STEP_FACTOR = 0.6
MIN_SCAN_RESOLUTION = 8
# a cluster whose seed crossing Jacobian has (s_min / s_max)^2 above this is
# tried as a point first, and kept only if the ratio at the refined zero
# clears it too. Measured on the builtins, random two-band models and a
# rotated nodal loop at grids 16-48: all Weyl-point seeds are >= 0.136; curve
# seeds are exactly 0 on real models (J is 2x3) and <= 3e-34 on the rotated
# (complex) loop
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


@dataclass
class ScanResult:
    """Flagged cells per gap index, plus their sampled minimal gaps."""

    model: object
    resolution: int
    grid: ScanGrid
    gap_threshold: dict
    flagged: dict  # gap_index -> list of (i, j, l) cell index triples
    cell_min_gap: dict  # gap_index -> (n, n, n) min sampled gap of every cell


def scan_grid(model, resolution=48, gap_threshold=None, gap_index=None):
    """Flag grid cells whose minimal sampled direct gap is below threshold.

    ``gap_index=None`` scans every gap between bands 1..occupied_count, so
    crossings inside the occupied set (companion nodal lines) are found
    along with the Fermi-level locus.  With no explicit threshold a cell is
    flagged when its smallest corner gap is below 1.35 x its corner spread,
    floored at 0.12 x the largest corner spread on the grid: a heuristic
    that nothing proves complete (ROADMAP Direction M gives a bound that does).
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
        n = grid.resolution
        # corner (di, dj, dl) of every cell as a view; the torus wraps its last layer
        corners = np.pad(gap, (0, 1), mode="wrap") if grid.torus else gap
        mins = np.full((n, n, n), np.inf)
        maxs = np.full((n, n, n), -np.inf)
        for di, dj, dl in itertools.product((0, 1), repeat=3):
            block = corners[di : di + n, dj : dj + n, dl : dl + n]
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
        flagged[g] = list(map(tuple, np.argwhere(mask).tolist()))
        min_gaps[g] = mins
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


# -- the crossing primitive ---------------------------------------------------


def _crossing(model, k, g):
    """The crossing of bands g and g + 1 near k (one k-point, or a stack
    solved by one eigensolve), as a zero of a small field d.

    Projected onto the two bands' eigenvectors at k, H is the 2x2 block
    E + d . (sigma_z, sigma_x[, sigma_y]) with d = (-gap / 2, 0[, 0]), and
    the same projection of dH/dk gives d's Jacobian J (one row per sigma,
    one column per k axis).  Real models have no sigma_y part, so J is 2x3
    for them and 3x3 otherwise.  Returns ``(gap, d, J)``.
    """
    energies, frames = model.eigenframes(k, occupied=g + 1)
    pair = frames[..., None, :, g - 1 :]  # one copy per k axis of dH/dk
    block = np.conj(pair.swapaxes(-1, -2)) @ model.hamiltonian_gradient(k) @ pair
    rows = [(block[..., 0, 0] - block[..., 1, 1]).real / 2.0, block[..., 0, 1].real]
    if not model.reality:
        rows.append(-block[..., 0, 1].imag)
    gap = energies[..., g] - energies[..., g - 1]
    d = np.zeros(gap.shape + (len(rows),))
    d[..., 0] = -gap / 2.0
    return gap, d, np.array(rows).swapaxes(0, -2)


def _newton(jac, d, rank):
    """One SVD of each J: the minimum-norm Newton step of J dk = -d on J's
    ``rank`` largest singular values (those above 1e-12 of the largest),
    the unit null direction of J (the curve tangent) and the three singular
    values, largest first (zero-padded for a 2x3 J)."""
    u, s, vt = np.linalg.svd(jac)
    live = s[..., :rank] > 1e-12 * s[..., :1]
    coef = (u[..., :rank].swapaxes(-1, -2) @ d[..., None])[..., 0] / np.where(live, s[..., :rank], 1.0)
    step = -(vt[..., : live.shape[-1], :].swapaxes(-1, -2) @ np.where(live, coef, 0.0)[..., None])
    pad = np.zeros(s.shape[:-1] + (3 - s.shape[-1],))
    return step[..., 0], vt[..., -1, :], np.concatenate([s, pad], axis=-1)


def _singular_values(model, k, g):
    _, d, jac = _crossing(model, k, g)
    return _newton(jac, d, 3)[2]


def _point_ratio(s):
    """(s_min / s_max)^2 of the crossing Jacobian: the eigenvalue ratio of
    the Hessian of gap^2, 0 where the crossing is a curve."""
    return (s[2] / s[0]) ** 2 if s[0] > 0 else 0.0


# -- refinement --------------------------------------------------------------


def refine_point(model, seed, gap_index=None):
    """Refine a gap zero to a WeylPoint with residual gap below POINT_TOL.

    Damped rank-3 Newton on the crossing field d of ``_crossing``: each
    step is halved until the gap falls.  Raises RefinementError on
    non-convergence.
    """
    g = model.occupied_count if gap_index is None else int(gap_index)
    k = np.array(as_k_array(seed), dtype=float)
    gap, d, jac = _crossing(model, k, g)
    iterations = 0
    while gap >= POINT_TOL and iterations < POINT_MAX_ITER:
        step = _newton(jac, d, 3)[0]
        for _ in range(20):
            trial = k + step
            if model.domain.contains(trial):
                crossing = _crossing(model, trial, g)
                if crossing[0] < gap:
                    break
            step = step / 2.0
        else:
            break
        k = trial
        gap, d, jac = crossing
        iterations += 1
    gap = float(gap)
    if gap >= POINT_TOL or not np.all(np.isfinite(k)):
        raise RefinementError(
            f"refinement did not reach gap < {POINT_TOL:g} (residual {gap:.3e})",
            residual=gap,
            position=k,
            iterations=iterations,
        )
    return WeylPoint(_canonical_position(model, k), gap, iterations, gap_index=g)


def _canonical_position(model, k):
    return reduce_torus(k) if model.domain.is_torus else np.asarray(k, dtype=float)


# -- curve tracing ------------------------------------------------------------


def _correct_to_curve(model, k, reach):
    """Pull a point onto the zero curve by rank-2 Newton, which steps normal
    to the curve, each step at most ``reach`` long.  A generator: it yields
    each k and is sent its gap, Newton step, tangent and J's singular values.
    Returns the point with its tangent, gap and singular values; a point that
    leaves a box domain is returned as is, with tangent None."""
    for _ in range(CORRECTOR_MAX_ITER):
        if not model.domain.contains(k):
            return k, None, None, None
        gap, step, tangent, s = yield k
        if gap < VERTEX_TOL:
            return k, tangent, gap, s
        norm = math.sqrt(step @ step)
        if norm < 1e-14:
            break
        k = k + step * min(1.0, reach / norm)
    raise RefinementError(
        f"curve corrector stalled at gap {gap:.3e}", residual=gap, position=k
    )


def _march_curve(model, start, step):
    """March along the zero curve from a corrected ``start`` (the output of
    ``_correct_to_curve``), steering by the last chord; an open arc is
    marched both ways and joined.  Yields the corrector's k-points.

    Returns (vertices, gaps, singular values, closed, winding): the
    corrector's gap and J's singular values at every vertex, in vertex
    order."""
    torus = model.domain.is_torus
    max_steps = int(60.0 * TWO_PI / step)
    k0, tangent, gap0, s0 = start

    def march(d):
        rows = [(np.array(k0), gap0, s0)]
        for _ in range(max_steps):
            last = rows[-1][0]
            pred = last + step * d
            if not model.domain.contains(pred):
                return rows, False, None
            cur, tangent, gap, s = yield from _correct_to_curve(model, pred, 0.5 * step)
            if tangent is None:
                return rows, False, None
            d_new = cur - last
            n_new = math.sqrt(d_new @ d_new)
            if n_new < step * 0.05:
                raise RefinementError("curve tracing stalled (no progress)")
            d = d_new / n_new
            rows.append((cur, gap, s))
            disp = cur - rows[0][0]
            winding = np.rint(disp / TWO_PI) if torus else np.zeros(3)
            if len(rows) > 4 and np.linalg.norm(disp - TWO_PI * winding) < 0.75 * step:
                return rows[:-1], True, winding.astype(int)
        raise RefinementError("curve tracing exceeded maximum length")

    rows, closed, winding = yield from march(tangent)
    if not closed:
        # open arc: march the other way from the start and join
        back, closed, _ = yield from march(-tangent)
        if closed:
            rows, winding = back, np.zeros(3, dtype=int)
        else:
            rows = back[:0:-1] + rows
    verts, gaps, svals = (np.array(col) for col in zip(*rows))
    return verts, gaps, svals, closed, winding


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
    (x, then y, then z tie-break).  Returns the vertices and whether their
    order was reversed."""
    verts = np.asarray(vertices)
    keys = [tuple(np.round(v, 6)) for v in (reduce_torus(verts) if torus else verts)]
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
    return verts, flip


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
    # a resolved isolated zero has a full-rank crossing Jacobian
    s = _singular_values(model, point.position, gap_index)
    if _point_ratio(s) < min_ratio:
        raise LocusAmbiguityError(
            f"zero near {np.round(point.position, 4).tolist()} is not point-like "
            "(rank-deficient crossing); increase the scan resolution"
        )
    limit = _coverage_limit(grid, gap_bound, 2.0 * s[2])
    _check_coverage(np.asarray([point.position]), centers, grid, cluster, gap_index, limit)
    return point


def _curve_from_cluster(model, grid, cluster, centers, seed, gap_index, gap_bound):
    step = STEP_FACTOR * grid.spacing
    start = yield from _correct_to_curve(model, seed, 0.4 * grid.spacing)
    if start[1] is None:
        raise RefinementError("curve corrector left the box", position=start[0])
    verts, gaps, svals, closed, winding = yield from _march_curve(model, start, step)
    # the gap rises as 2 |J dk| across the curve: 2 s1 in the flattest normal
    # direction, 2 s0 in the steepest
    slope_min, slope_max = 2.0 * float(svals[:, 1].min()), 2.0 * float(svals[:, 0].max())
    if slope_min < max(1e-4, 0.03 * slope_max):
        raise LocusAmbiguityError(
            f"zero set traced near {np.round(verts[0], 3).tolist()} is not a "
            f"transversally isolated curve (gap slope {slope_min:.2e} in some "
            "normal direction); locus dimension ambiguous"
        )
    limit = _coverage_limit(grid, gap_bound, slope_min)
    _check_coverage(verts, centers, grid, cluster, gap_index, limit)
    max_gap = float(gaps.max())
    if closed:
        canon, flipped = _canonicalize_loop(verts, grid.torus)
        return NodalLoop(
            vertices=canon,
            orientation=1,
            max_vertex_gap=max_gap,
            gap_index=gap_index,
            winding=tuple(-int(w) if flipped else int(w) for w in winding),
        )
    ends = sorted([tuple(np.round(verts[0], 6)), tuple(np.round(verts[-1], 6))])
    if tuple(np.round(verts[0], 6)) != ends[0]:
        verts = verts[::-1]
    return OpenArc(vertices=verts, max_vertex_gap=max_gap, gap_index=gap_index)


def _coverage_limit(grid, gap_bound, slope):
    """How far a flagged cell may legitimately sit from the extracted zero
    set: its sampled gap divided by the smallest rate at which the gap rises
    away from the zero set (2 s_min of the crossing Jacobian), padded by
    cell diagonals."""
    reach = gap_bound / max(slope, 1e-12)
    return min(reach, 12.0 * grid.spacing) + 2.5 * grid.spacing * math.sqrt(3.0)


def _classify_cluster(model, grid, cluster, gap_index, gap_bound):
    """Resolve one flagged-cell cluster into a point, loop, arc, or None
    (spurious near-gap region with no actual zero).

    A cluster whose seed crossing Jacobian has (s_min / s_max)^2 above
    SEED_POINT_RATIO is tried as a point first, and kept only if the
    Jacobian at the refined zero clears the same ratio.  Any other cluster,
    and a point attempt that fails, goes through the curve tracer and then
    the point refinement.  A generator, driven by ``_resolve_clusters``.
    """
    centers, seed, _ = _cluster_seed(model, grid, cluster, gap_index)
    as_point = functools.partial(
        _point_from_cluster, model, grid, cluster, centers, seed, gap_index, gap_bound
    )
    if np.ptp(cluster, axis=0).max() < 3:  # bounding box under 3 cells
        try:
            return as_point()
        except RefinementError:
            # refinement bottomed out above tolerance: near-gap but no zero
            return None
    if _point_ratio(_singular_values(model, seed, gap_index)) > SEED_POINT_RATIO:
        try:
            return as_point(SEED_POINT_RATIO)
        except (RefinementError, LocusAmbiguityError):
            pass
    try:
        # ambiguity errors mean zeros were found but are not a clean curve:
        # those always propagate; refinement errors mean no zero was reached
        # and the cluster may still be an isolated point or spurious
        return (yield from _curve_from_cluster(
            model, grid, cluster, centers, seed, gap_index, gap_bound
        ))
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
    """The largest sampled cell gap of a cluster: one lookup of the scan's
    per-cell minima (box cells stay below the resolution: only torus cells
    wrap)."""
    cells = np.asarray(cluster) % scan.grid.resolution
    return float(np.max(scan.cell_min_gap[gap_index][tuple(cells.T)]))


def _resolve_clusters(model, scan):
    """Points, loops and arcs of every flagged-cell cluster of a scan, in gap
    and cluster order; spurious clusters are dropped.  The clusters' curve
    tracers advance in lockstep, each round solving the k-points they wait on
    with one crossing and rank-2 SVD per gap.  A cluster that is neither
    point-like nor a single covered curve raises LocusAmbiguityError; as in
    a sequential run, the first one raises and those after it are dropped."""
    grid = scan.grid
    tracers = [(g, _classify_cluster(model, grid, c, g, _cluster_gap_bound(scan, c, g)))
               for g in sorted(scan.flagged)
               for c in _cluster_cells(scan.flagged[g], grid.resolution, grid.torus)]
    outcomes = [None] * len(tracers)
    live, replies = range(len(tracers)), itertools.repeat(None)
    while live:
        asked = []
        for i, reply in zip(live, replies):
            try:
                asked.append((i, tracers[i][1].send(reply)))
            except StopIteration as done:
                outcomes[i] = done.value
            except BandTopoError as exc:
                outcomes[i:] = [exc]
                break
        live, replies = [], []
        for g, batch in itertools.groupby(asked, lambda ask: tracers[ask[0]][0]):
            ids, ks = zip(*batch)  # the tracers come in gap order
            live += ids
            if len(ks) == 1:  # unbatched: H(k) at one k-point costs less so
                gap, d, jac = _crossing(model, ks[0], g)
                replies.append((float(gap), *_newton(jac, d, 2)))
            else:
                gap, d, jac = _crossing(model, np.array(ks), g)
                replies += zip(gap.tolist(), *_newton(jac, d, 2))
    if outcomes and isinstance(outcomes[-1], BandTopoError):
        raise outcomes[-1]
    return [item for item in outcomes if item is not None]


def _of_kind(items, kind):
    return [item for item in items if isinstance(item, kind)]


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


def extract_locus(model, resolution=48):
    """Scan, classify, refine and trace: the full locus of a model."""
    items = _resolve_clusters(model, scan_grid(model, resolution=resolution))
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
