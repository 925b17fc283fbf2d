"""Cubical complexes on the 3-torus and their cohomology.

T^3 is cellulated by n^3 cubes; nodal loci are voxelized as grid vertices,
thickened to cube tubes, and the torus is split into tube, complement, and
shared boundary surface.  Cohomology runs over Q and Z2 by sparse field
rank, and over Z by Smith normal form of the boundary matrices, which also
yields torsion.  Dimension-level Mayer-Vietoris and universal-coefficient
checks sit on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .exceptions import ComplexError
from .smith import rank_field, smith_normal_form

CUBE_FACE_SIGNS = (1, -1, 1)


@dataclass
class CellComplex:
    """Cubical cell complex: cell counts and integer boundary matrices.

    ``boundaries[d]`` maps d-chains to (d-1)-chains, shape (n_{d-1}, n_d).
    """

    name: str
    n_cells: tuple
    boundaries: dict

    def __post_init__(self):
        for d in (1, 2, 3):
            b = self.boundaries[d]
            expect = (self.n_cells[d - 1], self.n_cells[d])
            if b.shape != expect:
                raise ComplexError(
                    f"boundary {d} has shape {b.shape}, expected {expect}"
                )
        self.check_boundary()

    def check_boundary(self):
        for d in (1, 2):
            prod = self.boundaries[d] @ self.boundaries[d + 1]
            prod.eliminate_zeros()
            if prod.nnz:
                raise ComplexError(f"d{d} o d{d + 1} != 0")

    def euler_characteristic(self):
        return sum((-1) ** d * n for d, n in enumerate(self.n_cells))

    def boundary_rank(self, d, coefficients):
        if d < 1 or d > 3 or self.n_cells[d] == 0 or self.n_cells[d - 1] == 0:
            return 0
        return rank_field(self.boundaries[d], coefficients)


@dataclass
class CohomologyGroups:
    """Per-degree free ranks and torsion coefficient lists."""

    coefficients: str  # "Z" | "Q" | "Z2"
    ranks: tuple
    torsion: tuple

    def __post_init__(self):
        if self.coefficients in ("Q", "Z2") and any(self.torsion):
            raise ComplexError("field cohomology cannot carry torsion")

    @property
    def betti(self):
        return self.ranks

    def to_record(self):
        return {
            "coefficients": self.coefficients,
            "ranks": [int(r) for r in self.ranks],
            "torsion": [[int(t) for t in row] for row in self.torsion],
        }


def cohomology_groups(cx, coefficients="Q"):
    """Cohomology of a complex over Z (via SNF), Q, or Z2 (via field rank)."""
    n = cx.n_cells
    if coefficients in ("Q", "Z2"):
        r = [0] + [cx.boundary_rank(d, coefficients) for d in (1, 2, 3)] + [0]
        ranks = tuple(n[q] - r[q] - r[q + 1] for q in range(4))
        return CohomologyGroups(coefficients, ranks, ((), (), (), ()))
    if coefficients != "Z":
        raise ValueError(f"unknown coefficient system {coefficients!r}")
    snfs = {d: smith_normal_form(cx.boundaries[d]) for d in (1, 2, 3)}
    r = [0] + [snfs[d].rank for d in (1, 2, 3)] + [0]
    ranks = tuple(n[q] - r[q] - r[q + 1] for q in range(4))
    torsion = tuple(
        () if q == 0 else tuple(snfs[q].torsion) if q <= 3 else () for q in range(4)
    )
    return CohomologyGroups("Z", ranks, torsion)


# -- torus complex ------------------------------------------------------------


def torus_complex(resolution):
    """Cubical complex of T^3 at n points per axis: (n^3, 3n^3, 3n^3, n^3)."""
    n = int(resolution)
    if n < 4:
        raise ComplexError("torus complex needs resolution >= 4")

    def vid(x, y, z):
        return ((x % n) * n + (y % n)) * n + (z % n)

    nv = n**3
    axes = np.eye(3, dtype=int)

    rows, cols, vals = [], [], []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = vid(x, y, z)
                for a in range(3):
                    e = 3 * v + a
                    head = vid(x + axes[a][0], y + axes[a][1], z + axes[a][2])
                    rows += [head, v]
                    cols += [e, e]
                    vals += [1, -1]
    d1 = sparse.csc_matrix((vals, (rows, cols)), shape=(nv, 3 * nv), dtype=np.int64)

    rows, cols, vals = [], [], []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = vid(x, y, z)
                pt = np.array([x, y, z])
                for a in range(3):
                    p, q = [ax for ax in range(3) if ax != a]
                    f = 3 * v + a
                    vp = vid(*(pt + axes[p]))
                    vq = vid(*(pt + axes[q]))
                    rows += [3 * v + p, 3 * vp + q, 3 * vq + p, 3 * v + q]
                    cols += [f, f, f, f]
                    vals += [1, 1, -1, -1]
    d2 = sparse.csc_matrix((vals, (rows, cols)), shape=(3 * nv, 3 * nv), dtype=np.int64)

    rows, cols, vals = [], [], []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = vid(x, y, z)
                pt = np.array([x, y, z])
                for a in range(3):
                    va = vid(*(pt + axes[a]))
                    s = CUBE_FACE_SIGNS[a]
                    rows += [3 * va + a, 3 * v + a]
                    cols += [v, v]
                    vals += [s, -s]
    d3 = sparse.csc_matrix((vals, (rows, cols)), shape=(3 * nv, nv), dtype=np.int64)

    return CellComplex(
        name=f"T3(n={n})",
        n_cells=(nv, 3 * nv, 3 * nv, nv),
        boundaries={1: d1, 2: d2, 3: d3},
    )


# -- subcomplex extraction ------------------------------------------------------


def _closure_of_cubes(parent, cube_ids):
    d3 = parent.boundaries[3].tocsc()
    d2 = parent.boundaries[2].tocsc()
    d1 = parent.boundaries[1].tocsc()
    faces = set()
    for c in cube_ids:
        faces.update(d3.indices[d3.indptr[c] : d3.indptr[c + 1]].tolist())
    edges = set()
    for f in faces:
        edges.update(d2.indices[d2.indptr[f] : d2.indptr[f + 1]].tolist())
    verts = set()
    for e in edges:
        verts.update(d1.indices[d1.indptr[e] : d1.indptr[e + 1]].tolist())
    return verts, edges, faces


def _closure_of_faces(parent, face_ids):
    d2 = parent.boundaries[2].tocsc()
    d1 = parent.boundaries[1].tocsc()
    edges = set()
    for f in face_ids:
        edges.update(d2.indices[d2.indptr[f] : d2.indptr[f + 1]].tolist())
    verts = set()
    for e in edges:
        verts.update(d1.indices[d1.indptr[e] : d1.indptr[e + 1]].tolist())
    return verts, edges


def _restrict(mat, rows_keep, cols_keep):
    if not cols_keep:
        return sparse.csc_matrix((len(rows_keep), 0), dtype=np.int64)
    sub = mat[:, sorted(cols_keep)]
    sub = sub[sorted(rows_keep), :]
    return sub.tocsc()


def subcomplex_from_cubes(parent, cube_ids, name):
    verts, edges, faces = _closure_of_cubes(parent, cube_ids)
    cubes = sorted(cube_ids)
    return CellComplex(
        name=name,
        n_cells=(len(verts), len(edges), len(faces), len(cubes)),
        boundaries={
            1: _restrict(parent.boundaries[1], verts, edges),
            2: _restrict(parent.boundaries[2], edges, faces),
            3: _restrict(parent.boundaries[3], faces, cubes),
        },
    )


def subcomplex_from_faces(parent, face_ids, name):
    verts, edges = _closure_of_faces(parent, face_ids)
    faces = sorted(face_ids)
    return CellComplex(
        name=name,
        n_cells=(len(verts), len(edges), len(faces), 0),
        boundaries={
            1: _restrict(parent.boundaries[1], verts, edges),
            2: _restrict(parent.boundaries[2], edges, faces),
            3: sparse.csc_matrix((len(faces), 0), dtype=np.int64),
        },
    )


# -- voxel loci and the tube decomposition ---------------------------------------


def voxel_point(at=(0, 0, 0)):
    return {"type": "point", "vertices": [tuple(int(c) for c in at)]}


def voxel_rect_loop(n, lo=2, hi=None, plane_z=None):
    """Axis-aligned rectangle loop (unit steps) in a z = const plane."""
    hi = (n - lo - 2) if hi is None else hi
    z = n // 2 if plane_z is None else plane_z
    if not (0 <= lo < hi < n):
        raise ComplexError("rectangle corners out of range")
    path = []
    for x in range(lo, hi):
        path.append((x, lo, z))
    for y in range(lo, hi):
        path.append((hi, y, z))
    for x in range(hi, lo, -1):
        path.append((x, hi, z))
    for y in range(hi, lo, -1):
        path.append((lo, y, z))
    return {"type": "loop", "vertices": path}


def voxel_hopf_link(n):
    """Two interlocked rectangle loops with 4-cell clearance (needs n >= 16,
    so radius-1 tubes around the two components stay disjoint)."""
    if n < 16:
        raise ComplexError("hopf link fixture needs resolution >= 16")
    a = voxel_rect_loop(n, lo=2, hi=10, plane_z=8)
    mid = 6
    x0, x1 = 6, 14
    z0, z1 = 2, 14
    b_path = []
    for x in range(x0, x1):
        b_path.append((x, mid, z0))
    for z in range(z0, z1):
        b_path.append((x1, mid, z))
    for x in range(x1, x0, -1):
        b_path.append((x, mid, z1))
    for z in range(z1, z0, -1):
        b_path.append((x0, mid, z))
    return [a, {"type": "loop", "vertices": b_path}]


def voxelize_polyline(vertices, resolution, torus=True):
    """Snap a continuum loop to a grid vertex cycle with unit steps."""
    n = resolution
    scale = n / (2 * np.pi)
    pts = np.asarray(vertices, dtype=float)
    snapped = []
    for p in pts:
        g = np.round((p + np.pi) * scale).astype(int) % n if torus else np.round(p * scale).astype(int)
        t = tuple(int(c) for c in g)
        if not snapped or t != snapped[-1]:
            snapped.append(t)
    if len(snapped) > 1 and snapped[-1] == snapped[0]:
        snapped.pop()
    # connect consecutive snapped vertices with unit axis steps
    path = []

    def push(p):
        if not path or p != path[-1]:
            path.append(p)

    for a, b in zip(snapped, snapped[1:] + snapped[:1]):
        cur = list(a)
        push(tuple(cur))
        for axis in range(3):
            delta = (b[axis] - cur[axis]) % n
            if delta > n // 2:
                delta -= n
            step = 1 if delta > 0 else -1
            for _ in range(abs(delta)):
                cur[axis] = (cur[axis] + step) % n
                push(tuple(cur))
    if len(path) > 1 and path[-1] == path[0]:
        path.pop()
    return {"type": "loop", "vertices": path}


def _validate_locus(locus, n):
    for comp in locus:
        if comp["type"] == "point":
            if len(comp["vertices"]) != 1:
                raise ComplexError("point component must hold exactly one vertex")
        elif comp["type"] == "loop":
            verts = comp["vertices"]
            if len(verts) < 4:
                raise ComplexError("voxel loop needs at least 4 vertices")
            for a, b in zip(verts, verts[1:] + verts[:1]):
                step = [min((b[i] - a[i]) % n, (a[i] - b[i]) % n) for i in range(3)]
                if sum(step) != 1:
                    raise ComplexError(
                        f"voxel loop is not a unit-step cycle at {a} -> {b}"
                    )
        else:
            raise ComplexError(f"unknown locus component type {comp['type']!r}")


@dataclass
class ComplementDecomposition:
    """T^3 = complement U tube, glued along the boundary surface."""

    total: CellComplex
    complement: CellComplex
    tube: CellComplex
    boundary: CellComplex
    n_components: int
    resolution: int
    tube_voxels: int


def complement_complex(resolution, locus, tube_voxels=2, total=None):
    """Split T^3 into tube neighbourhood, complement, and shared boundary.

    ``locus`` is a list of voxel components (see voxel_point /
    voxel_rect_loop).  The tube holds every cube all of whose corners lie
    within Chebyshev distance ``tube_voxels`` of the locus; the boundary
    surface is the set of faces shared by tube and complement cubes, and
    must come out a closed 2-manifold, else the radius self-touches.
    """
    n = int(resolution)
    r = int(tube_voxels)
    if r < 1:
        raise ComplexError("tube_voxels must be >= 1")
    _validate_locus(locus, n)
    parent = total if total is not None else torus_complex(n)

    def vid(x, y, z):
        return ((x % n) * n + (y % n)) * n + (z % n)

    w_verts = set()
    for comp in locus:
        for v in comp["vertices"]:
            w_verts.add(tuple(c % n for c in v))
    ball = set(w_verts)
    for _ in range(r):
        grown = set(ball)
        for (x, y, z) in ball:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        grown.add(((x + dx) % n, (y + dy) % n, (z + dz) % n))
        ball = grown

    tube_cubes = set()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                corners_in = all(
                    ((x + dx) % n, (y + dy) % n, (z + dz) % n) in ball
                    for dx in (0, 1)
                    for dy in (0, 1)
                    for dz in (0, 1)
                )
                if corners_in:
                    tube_cubes.add(vid(x, y, z))
    if not tube_cubes:
        raise ComplexError("tube is empty; radius too small for this grid")
    all_cubes = set(range(n**3))
    comp_cubes = all_cubes - tube_cubes
    if not comp_cubes:
        raise ComplexError("tube fills the torus; radius too large")

    axes = np.eye(3, dtype=int)
    shared_faces = set()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = vid(x, y, z)
                pt = np.array([x, y, z])
                for a in range(3):
                    c_plus = v
                    c_minus = vid(*(pt - axes[a]))
                    f = 3 * v + a
                    if (c_plus in tube_cubes) != (c_minus in tube_cubes):
                        shared_faces.add(f)

    tube_cells = _closure_of_cubes(parent, tube_cubes)
    comp_cells = _closure_of_cubes(parent, comp_cubes)
    bnd_verts, bnd_edges = _closure_of_faces(parent, shared_faces)
    inter = (
        tube_cells[0] & comp_cells[0],
        tube_cells[1] & comp_cells[1],
        tube_cells[2] & comp_cells[2],
    )
    if inter != (bnd_verts, bnd_edges, shared_faces):
        raise ComplexError(
            "tube radius causes self-touching: the tube/complement interface "
            "is larger than the shared boundary surface"
        )
    # closed-2-manifold check: each boundary edge borders exactly 2 faces
    d2 = parent.boundaries[2].tocsc()
    edge_count = {}
    for f in shared_faces:
        for e in d2.indices[d2.indptr[f] : d2.indptr[f + 1]]:
            edge_count[int(e)] = edge_count.get(int(e), 0) + 1
    if any(c != 2 for c in edge_count.values()):
        raise ComplexError(
            "tube radius causes self-touching: boundary surface is not a "
            "closed 2-manifold"
        )

    tube_cx = subcomplex_from_cubes(parent, tube_cubes, f"tube(n={n},r={r})")
    n_loops = sum(1 for comp in locus if comp["type"] == "loop")
    expected = (len(locus), n_loops, 0, 0)
    got = cohomology_groups(tube_cx, "Z2").ranks
    if got != expected:
        raise ComplexError(
            f"tube radius causes self-touching: tube Betti {got} does not "
            f"match the locus homotopy type {expected}"
        )

    return ComplementDecomposition(
        total=parent,
        complement=subcomplex_from_cubes(parent, comp_cubes, f"T3-minus-tube(n={n})"),
        tube=tube_cx,
        boundary=subcomplex_from_faces(parent, shared_faces, f"S_W(n={n},r={r})"),
        n_components=len(locus),
        resolution=n,
        tube_voxels=r,
    )


def klein_complex(resolution=8):
    """Cubical Klein bottle: the standard 2-torsion fixture.

    H^2(K; Z) = Z/2, so the universal-coefficient check must fail here.
    """
    n = int(resolution)
    if n < 2:
        raise ComplexError("klein complex needs resolution >= 2")
    nv = n * n

    def vid(x, y):
        return (x % n) * n + (y % n)

    def target_up(x, y):
        # crossing the top row glues with the orientation-reversing flip
        if y + 1 < n:
            return vid(x, y + 1)
        return vid((n - x) % n, 0)

    # edges: ex(x,y) horizontal, ey(x,y) vertical
    def exid(x, y):
        return 2 * vid(x, y)

    def eyid(x, y):
        return 2 * vid(x, y) + 1

    rows, cols, vals = [], [], []
    for x in range(n):
        for y in range(n):
            e = exid(x, y)
            rows += [vid(x + 1, y), vid(x, y)]
            cols += [e, e]
            vals += [1, -1]
            e = eyid(x, y)
            rows += [target_up(x, y), vid(x, y)]
            cols += [e, e]
            vals += [1, -1]
    d1 = sparse.csc_matrix((vals, (rows, cols)), shape=(nv, 2 * nv), dtype=np.int64)

    rows, cols, vals = [], [], []
    for x in range(n):
        for y in range(n):
            f = vid(x, y)
            if y + 1 < n:
                top = (exid(x, y + 1), -1)
            else:
                top = (exid((n - x - 1) % n, 0), 1)
            entries = [
                (exid(x, y), 1),
                (eyid((x + 1) % n, y), 1),
                top,
                (eyid(x, y), -1),
            ]
            agg = {}
            for e, s in entries:
                agg[e] = agg.get(e, 0) + s
            for e, s in agg.items():
                if s:
                    rows.append(e)
                    cols.append(f)
                    vals.append(s)
    d2 = sparse.csc_matrix((vals, (rows, cols)), shape=(2 * nv, nv), dtype=np.int64)
    d3 = sparse.csc_matrix((nv, 0), dtype=np.int64)
    return CellComplex(
        name=f"klein(n={n})",
        n_cells=(nv, 2 * nv, nv, 0),
        boundaries={1: d1, 2: d2, 3: d3},
    )


# -- verdicts ---------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    table: dict
    detail: str = ""

    def to_record(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "table": self.table,
            "detail": self.detail,
        }


def mv_dimension_check(total, complement, tube, boundary, coefficients="Q",
                       n_components=None, betti_override=None):
    """Dimension-level exactness bookkeeping of the Mayer-Vietoris sequence.

    Checks: (a) the alternating sum of dimensions along the sequence
    vanishes; (b) the top boundary-surface cohomology has one generator per
    locus component; (c) the final sum-of-charges map is onto H^3(T^3) with
    kernel of dimension (#components - 1).  ``betti_override`` substitutes
    precomputed dimension vectors (validation hook).
    """
    spaces = {
        "total": total,
        "complement": complement,
        "tube": tube,
        "boundary": boundary,
    }
    betti = {}
    for key, cx in spaces.items():
        if betti_override and key in betti_override:
            betti[key] = tuple(betti_override[key])
        else:
            betti[key] = cohomology_groups(cx, coefficients).ranks
    if n_components is None:
        n_components = betti["tube"][0]
    ok_tube = betti["tube"][0] == n_components

    alt = sum(
        (-1) ** q
        * (
            betti["total"][q]
            - betti["complement"][q]
            - betti["tube"][q]
            + betti["boundary"][q]
        )
        for q in range(4)
    )
    ok_a = alt == 0
    ok_b = betti["boundary"][2] == n_components
    h3 = (betti["total"][3], betti["complement"][3], betti["tube"][3])
    ok_surj = h3 == (1, 0, 0)
    kernel_dim = betti["boundary"][2] - h3[0]
    ok_c = ok_surj and kernel_dim == n_components - 1
    rank_needed = betti["boundary"][2] - 1
    ok_c = ok_c and rank_needed <= betti["complement"][2] + betti["tube"][2]

    table = {
        "coefficients": coefficients,
        "betti": {k: [int(x) for x in v] for k, v in betti.items()},
        "n_components": int(n_components),
        "alternating_sum": int(alt),
        "kernel_dim": int(kernel_dim),
    }
    detail = (
        f"(a) alternating sum = {alt}; "
        f"(b) h2(S_W) = {betti['boundary'][2]} vs components = {n_components} "
        f"(tube components {betti['tube'][0]}); "
        f"(c) ker(sum map) dim = {kernel_dim}"
    )
    return CheckReport(
        name=f"mv_dimension_check[{coefficients}]",
        passed=bool(ok_a and ok_b and ok_c and ok_tube),
        table=table,
        detail=detail,
    )


def uct_check(cx):
    """Universal-coefficient / freeness check for one complex.

    Passes iff integral cohomology is torsion-free in every degree and the
    Z2 dimensions equal the integral ranks degree by degree.
    """
    integral = cohomology_groups(cx, "Z")
    mod2 = cohomology_groups(cx, "Z2")
    torsion_free = all(len(t) == 0 for t in integral.torsion)
    dims_match = integral.ranks == mod2.ranks
    table = {
        "space": cx.name,
        "integral_ranks": [int(r) for r in integral.ranks],
        "integral_torsion": [[int(t) for t in row] for row in integral.torsion],
        "z2_dims": [int(r) for r in mod2.ranks],
    }
    detail = (
        f"torsion-free: {torsion_free}; "
        f"rank_Z {list(integral.ranks)} vs dim_Z2 {list(mod2.ranks)}"
    )
    return CheckReport(
        name=f"uct_check[{cx.name}]",
        passed=bool(torsion_free and dims_match),
        table=table,
        detail=detail,
    )
