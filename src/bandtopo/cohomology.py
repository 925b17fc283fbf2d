"""Cubical complexes on the 3-torus and their cohomology.

T^3 is cellulated by n^3 cubes; nodal loci are voxelized as grid vertices,
thickened to cube tubes, and the torus is split into tube, complement, and
shared boundary surface, all built with array ops.  Each complex is reduced
first (``CellComplex.reduced``: unit-incidence cell pairs removed by spanning
forests and exact elimination, which keeps integral homology) to a few
cells; only then does cohomology run, over Q, Z2 and Z from the invariant
factors of the reduced boundary matrices (the Z groups also carry the
torsion).  Dimension-level Mayer-Vietoris and universal-coefficient checks
sit on top.

``scipy.sparse`` is imported inside the functions that build or reduce
sparse matrices, so importing this module (and with it the ``bandtopo``
CLI) loads numpy only; scipy loads with the first complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ComplexError
from .smith import eliminate_units, rank_field, smith_normal_form

CUBE_FACE_SIGNS = (1, -1, 1)
MIN_COMPLEX_RESOLUTION = 4


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

    @cached_property
    def reduced(self):
        """A complex of a few cells with the same integral homology.

        Removing a pair of cells (a, b) with [b : a] = +-1 keeps integral
        homology (Kaczynski, Mrozek & Slusarek 1998): the cofaces c of a
        get boundary dc - [c : a][b : a] db.  Array ops remove most pairs
        at once: a spanning forest of the 1-skeleton pairs every non-root
        vertex with the tree edge to its parent, and one of the dual graph
        (cubes plus an outside node, joined by faces with one or two unit
        cofaces) pairs every tree face with its child cube.  Exact unit-pivot
        elimination then removes the pairs that are left, per boundary
        matrix: array-op rounds take every free pair (a unit entry alone in
        its row or column, so no other incidence changes), and a pivot heap
        handles the few entries after them.  The result is
        checked like any complex (d o d = 0), and a changed Euler
        characteristic raises ComplexError.
        """
        from scipy import sparse

        d1, d2, d3 = (self.boundaries[d].tocsc() for d in (1, 2, 3))
        n0, n3 = self.n_cells[0], self.n_cells[3]

        # vertex-edge pairs; a vertex is homologous to its root, so each
        # remaining edge's boundary becomes its per-component sum
        lines, ends, coef = _unit_lines(d1.T)
        plain = (ends[:, 1] >= 0) & (coef[:, 0] == -coef[:, 1])
        labels, _, _, via = _spanning_forest(n0, ends[plain])
        keep_e = _kept(d1.shape[1], lines[plain][via])
        component_sum = sparse.csr_matrix(
            (np.ones(n0, dtype=np.int64), (labels, np.arange(n0))),
            shape=(labels.max(initial=-1) + 1, n0),
        )
        d1 = (component_sum @ d1[:, keep_e]).tocsc()

        # face-cube pairs; node 0 is the outside, node c + 1 is cube c.  A
        # closed component keeps its root cube, whose boundary is d3 s with
        # s[child] = -[parent : f][child : f] s[parent] along the tree
        lines, ends, coef = _unit_lines(d3)
        labels, kids, parents, via = _spanning_forest(n3 + 1, ends + 1)
        up = np.arange(n3 + 1)
        up[kids] = parents
        s = np.ones(n3 + 1, dtype=np.int64)
        s[kids] = -coef[via, 0] * np.where(ends[via, 1] >= 0, coef[via, 1], 1)
        while True:  # pointer doubling: s becomes the product up to the root
            s = s * s[up]
            if np.array_equal(up, up[up]):
                break
            up = up[up]
        roots = np.unique(labels, return_index=True)[1]
        closed = np.flatnonzero(roots > 0)
        root_chain = sparse.csr_matrix(
            (s[1:], (labels[1:], np.arange(n3))), shape=(len(roots), n3)
        )[closed]
        keep_f = _kept(d3.shape[0], lines[via])
        b = {
            1: d1,
            2: d2[keep_e][:, keep_f].tocsc(),
            3: (d3[keep_f] @ root_chain.T).tocsc(),
        }

        for d in (2, 1, 3):
            pivots, residual = eliminate_units(b[d])
            if not len(pivots):
                continue
            keep_r = _kept(b[d].shape[0], pivots[:, 0])
            keep_c = _kept(b[d].shape[1], pivots[:, 1])
            entries = [(r, c, v) for c, col in residual.items() for r, v in col.items()]
            r, c, v = np.array(entries, dtype=np.int64).reshape(-1, 3).T
            b[d] = sparse.csc_matrix(
                (v, (np.searchsorted(keep_r, r), np.searchsorted(keep_c, c))),
                shape=(len(keep_r), len(keep_c)),
            )
            if d > 1:
                b[d - 1] = b[d - 1][:, keep_r]
            if d < 3:
                b[d + 1] = b[d + 1][keep_c]
        n_cells = (b[1].shape[0], *(b[d].shape[1] for d in (1, 2, 3)))
        red = CellComplex(f"{self.name}/reduced", n_cells, b)
        if red.euler_characteristic() != self.euler_characteristic():
            raise ComplexError(
                f"reduction of {self.name} changed the Euler characteristic"
            )
        return red


def _kept(n, gone):
    """The indices 0..n-1 not in ``gone``, sorted."""
    keep = np.ones(n, dtype=bool)
    keep[gone] = False
    return np.flatnonzero(keep)


def _unit_lines(m):
    """Rows of ``m`` with one or two nonzero entries, all +-1.

    Returns ``(ids, ends, coef)``: the row indices, and per row the column
    indices and values of its entries, (k, 2) each, with column -1 and value
    0 where a row has a single entry.
    """
    m = m.tocsr(copy=True)
    m.eliminate_zeros()
    count = np.diff(m.indptr)
    ids = np.flatnonzero((count == 1) | (count == 2))
    first = m.indptr[ids]
    two = count[ids] == 2
    second = np.where(two, first + 1, first)
    ends = np.stack([m.indices[first], np.where(two, m.indices[second], -1)], axis=1)
    coef = np.stack([m.data[first], np.where(two, m.data[second], 0)], axis=1)
    unit = (np.abs(coef[:, 0]) == 1) & (np.abs(coef[:, 1]) <= 1)
    return ids[unit], ends[unit], coef[unit]


def _spanning_forest(n_nodes, ends):
    """Breadth-first spanning forest of a graph on ``n_nodes`` nodes.

    ``ends`` holds the node pairs of the edges; each component is rooted at
    its lowest node.  Returns ``(labels, kids, parents, via)``: the
    component of every node (numbered as the roots are ordered), the
    non-root nodes with every parent before its children, their parents,
    and the row of ``ends`` that joins each to its parent.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    lo, hi = np.sort(ends, axis=1).T
    keys, first = np.unique(lo * n_nodes + hi, return_index=True)
    lo, hi = lo[first], hi[first]
    adjacency = sparse.coo_matrix((np.ones(len(lo)), (lo, hi)), shape=(n_nodes, n_nodes))
    n_comp, labels = csgraph.connected_components(adjacency, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    # a hub node joined to every root makes the forest one breadth-first tree
    rows = np.concatenate([lo, np.full(n_comp, n_nodes)])
    cols = np.concatenate([hi, roots])
    graph = sparse.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_nodes + 1, n_nodes + 1)
    ).tocsr()
    order, pred = csgraph.breadth_first_order(
        graph, n_nodes, directed=False, return_predecessors=True
    )
    kids = order[1:][pred[order[1:]] != n_nodes]
    parents = pred[kids]
    pair = np.minimum(kids, parents) * n_nodes + np.maximum(kids, parents)
    return labels, kids, parents, first[np.searchsorted(keys, pair)]


@dataclass
class CohomologyGroups:
    """Per-degree free ranks and torsion coefficient lists."""

    coefficients: str  # "Z" | "Q" | "Z2"
    ranks: tuple
    torsion: tuple

    def __post_init__(self):
        if self.coefficients in ("Q", "Z2") and any(self.torsion):
            raise ComplexError("field cohomology cannot carry torsion")

    def to_record(self):
        return {
            "coefficients": self.coefficients,
            "ranks": [int(r) for r in self.ranks],
            "torsion": [[int(t) for t in row] for row in self.torsion],
        }


def cohomology_groups(cx, coefficients="Q"):
    """Cohomology of a complex over Z (via SNF), Q, or Z2 (via field rank,
    read off the same invariant factors), computed on its reduced form."""
    red = cx.reduced
    n, b = red.n_cells, red.boundaries
    if coefficients in ("Q", "Z2"):
        r = [0] + [rank_field(b[d], coefficients) for d in (1, 2, 3)] + [0]
        ranks = tuple(n[q] - r[q] - r[q + 1] for q in range(4))
        return CohomologyGroups(coefficients, ranks, ((), (), (), ()))
    if coefficients != "Z":
        raise ValueError(f"unknown coefficient system {coefficients!r}")
    snfs = {d: smith_normal_form(b[d]) for d in (1, 2, 3)}
    r = [0] + [snfs[d].rank for d in (1, 2, 3)] + [0]
    ranks = tuple(n[q] - r[q] - r[q + 1] for q in range(4))
    torsion = ((),) + tuple(tuple(snfs[q].torsion) for q in (1, 2, 3))
    return CohomologyGroups("Z", ranks, torsion)


# -- torus complex ------------------------------------------------------------


def _assemble(shape, terms):
    """Integer CSC matrix from ``(rows, cols, values)`` terms of index arrays
    and a value or value array; repeated entries add up."""
    from scipy import sparse

    rows, cols, vals = zip(*terms)
    vals = [np.broadcast_to(v, np.shape(r)) for r, v in zip(rows, vals)]
    return sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape, dtype=np.int64,
    )


def torus_complex(resolution):
    """Cubical complex of T^3 at n points per axis: (n^3, 3n^3, 3n^3, n^3).

    Vertex (x, y, z) has index v = (x n + y) n + z; edge, face and cube
    3v + a, 3v + a and v start at v, the face normal to axis a.
    """
    n = int(resolution)
    if n < MIN_COMPLEX_RESOLUTION:
        raise ComplexError(f"torus complex needs resolution >= {MIN_COMPLEX_RESOLUTION}")
    nv = n**3
    grid = np.arange(nv).reshape(n, n, n)
    v = grid.ravel()
    step = [np.roll(grid, -1, axis=a).ravel() for a in range(3)]  # v + e_a
    d1 = _assemble((nv, 3 * nv), [
        term for a in range(3) for term in ((step[a], 3 * v + a, 1), (v, 3 * v + a, -1))
    ])
    d2 = []
    for a in range(3):
        p, q = [ax for ax in range(3) if ax != a]
        f = 3 * v + a
        d2 += [(3 * v + p, f, 1), (3 * step[p] + q, f, 1),
               (3 * step[q] + p, f, -1), (3 * v + q, f, -1)]
    d3 = _assemble((3 * nv, nv), [
        term for a, s in enumerate(CUBE_FACE_SIGNS)
        for term in ((3 * step[a] + a, v, s), (3 * v + a, v, -s))
    ])
    return CellComplex(
        name=f"T3(n={n})",
        n_cells=(nv, 3 * nv, 3 * nv, nv),
        boundaries={1: d1, 2: _assemble((3 * nv, 3 * nv), d2), 3: d3},
    )


# -- subcomplex extraction ------------------------------------------------------


def _closure(parent, top, ids):
    """Sorted cell indices, one array per dimension 0..top, of the closure
    of the ``top``-cells ``ids`` (sorted) in ``parent``."""
    cells = [np.asarray(ids, dtype=np.int64)]
    for d in range(top, 0, -1):
        faces = np.zeros(parent.n_cells[d - 1], dtype=bool)
        faces[parent.boundaries[d].tocsc()[:, cells[0]].indices] = True
        cells.insert(0, np.flatnonzero(faces))
    return cells


def _subcomplex(parent, cells, name):
    cells = list(cells) + [np.zeros(0, dtype=np.int64)] * (4 - len(cells))
    return CellComplex(
        name=name,
        n_cells=tuple(len(c) for c in cells),
        boundaries={
            d: parent.boundaries[d].tocsc()[:, cells[d]][cells[d - 1], :].tocsc()
            for d in (1, 2, 3)
        },
    )


# -- voxel loci and the tube decomposition ---------------------------------------


def voxel_point(at=(0, 0, 0)):
    return {"type": "point", "vertices": [tuple(int(c) for c in at)]}


def _rectangle(u0, u1, v0, v1, place):
    """Unit-step cycle around [u0, u1] x [v0, v1]; ``place(u, v)`` is the
    grid vertex at plane coordinates (u, v)."""
    return (
        [place(u, v0) for u in range(u0, u1)] + [place(u1, v) for v in range(v0, v1)]
        + [place(u, v1) for u in range(u1, u0, -1)]
        + [place(u0, v) for v in range(v1, v0, -1)]
    )


def voxel_rect_loop(n, lo=2, hi=None, plane_z=None):
    """Axis-aligned rectangle loop (unit steps) in a z = const plane."""
    hi = (n - lo - 2) if hi is None else hi
    z = n // 2 if plane_z is None else plane_z
    if not (0 <= lo < hi < n):
        raise ComplexError("rectangle corners out of range")
    return {"type": "loop", "vertices": _rectangle(lo, hi, lo, hi, lambda x, y: (x, y, z))}


def voxel_hopf_link(n):
    """Two interlocked rectangle loops with 4-cell clearance (needs n >= 16,
    so radius-1 tubes around the two components stay disjoint)."""
    if n < 16:
        raise ComplexError("hopf link fixture needs resolution >= 16")
    a = voxel_rect_loop(n, lo=2, hi=10, plane_z=8)
    b = _rectangle(6, 14, 2, 14, lambda x, z: (x, 6, z))
    return [a, {"type": "loop", "vertices": b}]


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

    ball = np.zeros((n, n, n), dtype=bool)
    for comp in locus:
        ball[tuple((np.asarray(comp["vertices"]) % n).T)] = True
    for axis in range(3):  # Chebyshev ball of radius r, periodic
        ball = np.logical_or.reduce([np.roll(ball, k, axis) for k in range(-r, r + 1)])
    tube = ball
    for axis in range(3):  # cubes with all eight corners in the ball
        tube = tube & np.roll(tube, -1, axis)
    if not tube.any():
        raise ComplexError("tube is empty; radius too small for this grid")
    if tube.all():
        raise ComplexError("tube fills the torus; radius too large")
    # face 3v + a separates cube v from cube v - e_a
    shared_faces = np.flatnonzero(
        np.stack([tube != np.roll(tube, 1, a) for a in range(3)], axis=-1)
    )
    tube_cells = _closure(parent, 3, np.flatnonzero(tube))
    comp_cells = _closure(parent, 3, np.flatnonzero(~tube))
    bnd_cells = _closure(parent, 2, shared_faces)
    if not all(
        np.array_equal(np.intersect1d(a, b, assume_unique=True), c)
        for a, b, c in zip(tube_cells, comp_cells, bnd_cells)
    ):
        raise ComplexError(
            "tube radius causes self-touching: the tube/complement interface "
            "is larger than the shared boundary surface"
        )
    # closed-2-manifold check: each boundary edge borders exactly 2 faces
    edge_count = np.bincount(parent.boundaries[2].tocsc()[:, shared_faces].indices)
    if np.any(edge_count[edge_count > 0] != 2):
        raise ComplexError(
            "tube radius causes self-touching: boundary surface is not a "
            "closed 2-manifold"
        )

    tube_cx = _subcomplex(parent, tube_cells, f"tube(n={n},r={r})")
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
        complement=_subcomplex(parent, comp_cells, f"T3-minus-tube(n={n})"),
        tube=tube_cx,
        boundary=_subcomplex(parent, bnd_cells, f"S_W(n={n},r={r})"),
        n_components=len(locus),
        resolution=n,
        tube_voxels=r,
    )


def klein_complex(resolution=8):
    """Cubical Klein bottle: the standard 2-torsion fixture.

    H^2(K; Z) = Z/2, so the universal-coefficient check must fail here.
    Vertex (x, y) is x n + y, with edges 2v (along x) and 2v + 1 (along y);
    crossing the top row glues with the orientation-reversing flip x -> -x.
    """
    from scipy import sparse

    n = int(resolution)
    if n < 2:
        raise ComplexError("klein complex needs resolution >= 2")
    nv = n * n
    v = np.arange(nv)
    x, y = np.divmod(v, n)
    top = y == n - 1
    right = ((x + 1) % n) * n + y
    up = np.where(top, ((n - x) % n) * n, v + 1)
    d1 = _assemble((nv, 2 * nv), [
        (right, 2 * v, 1), (v, 2 * v, -1), (up, 2 * v + 1, 1), (v, 2 * v + 1, -1),
    ])
    d2 = _assemble((2 * nv, nv), [
        (2 * v, v, 1), (2 * right + 1, v, 1), (2 * v + 1, v, -1),
        (np.where(top, 2 * ((n - x - 1) % n) * n, 2 * (v + 1)), v, np.where(top, 1, -1)),
    ])
    return CellComplex(
        name=f"klein(n={n})",
        n_cells=(nv, 2 * nv, nv, 0),
        boundaries={1: d1, 2: d2, 3: sparse.csc_matrix((nv, 0), dtype=np.int64)},
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
    precomputed dimension vectors (groups the caller already has, or a
    corrupted table to test the check).
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
