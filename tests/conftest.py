import itertools
import math

import numpy as np
import pytest
from scipy import sparse

import bandtopo as bt
from bandtopo.model import CoefficientSpec, TwoBandField, model_from_field


@pytest.fixture(scope="session")
def weyl2():
    return bt.builtin("weyl-lattice", m=2)


@pytest.fixture(scope="session")
def nodal_loop2():
    return bt.builtin("nodal-loop-real", m=2)


@pytest.fixture(scope="session")
def four_band():
    return bt.builtin("four-band-linked", m=1)


@pytest.fixture(scope="session")
def four_band_lattice():
    return bt.builtin("four-band-linked-lattice", m=1)


@pytest.fixture(scope="session")
def weyl2_locus(weyl2):
    return bt.extract_locus(weyl2, resolution=32)


@pytest.fixture(scope="session")
def nodal_loop2_locus(nodal_loop2):
    return bt.extract_locus(nodal_loop2, resolution=32)


@pytest.fixture(scope="session")
def four_band_locus(four_band):
    return bt.extract_locus(four_band, resolution=32)


@pytest.fixture(scope="session")
def four_band_lattice_locus(four_band_lattice):
    return bt.extract_locus(four_band_lattice, resolution=32)


def gapped_model():
    """H = sigma_z: fully gapped two-band lattice model."""
    hz = CoefficientSpec([("cos", (0, 0, 0), 1.0)])
    field = TwoBandField([CoefficientSpec([]), CoefficientSpec([]), hz])
    return model_from_field("gapped", field, reality=False)


def random_two_band(seed, amplitude=0.3):
    """Perturbed sine field: 8 generic Weyl points near the TRIM points."""
    rng = np.random.default_rng(seed)
    comps = []
    for axis in range(3):
        main = [0, 0, 0]
        main[axis] = 1
        entries = [("sin", tuple(main), 1.0)]
        for _ in range(2):
            n = tuple(int(v) for v in rng.integers(-1, 2, size=3))
            if n == (0, 0, 0):
                continue
            kind = "cos" if rng.random() < 0.5 else "sin"
            entries.append((kind, n, float(rng.uniform(-amplitude, amplitude))))
        comps.append(CoefficientSpec(entries))
    field = TwoBandField(comps)
    return model_from_field(f"random-two-band-{seed}", field, reality=False)


def dense_zero_count(field, resolution):
    """Independent oracle: count sign-consistent zero cells of h on a dense
    grid (every component changes sign inside the cell)."""
    import numpy as np

    axes = [
        -np.pi + 2 * np.pi * np.arange(resolution) / resolution for _ in range(3)
    ]
    kx, ky, kz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([kx, ky, kz], axis=-1)
    h = field(pts)
    consistent = np.ones(h.shape[:-1], dtype=bool)
    for c in range(3):
        comp = h[..., c]
        pos = np.zeros_like(comp, dtype=bool)
        neg = np.zeros_like(comp, dtype=bool)
        for di in (0, 1):
            for dj in (0, 1):
                for dl in (0, 1):
                    corner = np.roll(np.roll(np.roll(comp, -di, 0), -dj, 1), -dl, 2)
                    pos |= corner > 0
                    neg |= corner < 0
        consistent &= pos & neg
    # cluster flagged cells so adjacent sign-change cells count once
    cells = [tuple(map(int, t)) for t in np.argwhere(consistent)]
    from bandtopo.locus import _cluster_cells

    return len(_cluster_cells(cells, resolution, True))


def reference_quads(surface):
    """Loop reference for ``ClosedSurface.quad_vertex_ids``: the corner ids of
    each quad read slot by slot from ``index_map``."""
    quads = []
    for iu in range(surface.n_u):
        for iv in range(surface.n_v):
            if surface.kind == "slice-torus":
                order = [(iu, iv), (iu + 1, iv), (iu + 1, iv + 1), (iu, iv + 1)]
            else:
                order = [(iu, iv), (iu, iv + 1), (iu + 1, iv + 1), (iu + 1, iv)]
            if surface.orientation < 0:
                order.reverse()
            quads.append([int(surface.index_map[c]) for c in order])
    return quads


def reference_spherical_area(surface, unit):
    """Per-triangle loop reference for ``ClosedSurface.spherical_area``."""

    def solid_angle(a, b, c):
        num = float(np.dot(a, np.cross(b, c)))
        den = 1.0 + float(np.dot(a, b)) + float(np.dot(b, c)) + float(np.dot(c, a))
        return 2.0 * math.atan2(num, den)

    total = 0.0
    for a, b, c, d in reference_quads(surface):
        total += solid_angle(unit[a], unit[b], unit[c])
        total += solid_angle(unit[a], unit[c], unit[d])
    return total


def reference_holonomy(frames, path):
    """Per-step loop reference for ``invariants.holonomy`` on one path: the
    product of the polar parts of the successive overlaps, one SVD each,
    skipping steps that stay on the same vertex."""
    prod = np.eye(frames.shape[-1])
    for a, b in zip(path[:-1], path[1:]):
        if a != b:
            u, _, vh = np.linalg.svd(frames[a].conj().T @ frames[b])
            prod = prod @ (u @ vh)
    return prod


def reference_loop_clearance(loop, others=()):
    """Pair-by-pair loop reference for ``surfaces.loop_clearance``."""
    verts = np.asarray(loop.vertices, dtype=float)
    n = len(verts)
    clearance = math.inf
    arc = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(arc)])
    total = cum[-1]
    for i in range(n):
        for j in range(i + 2, n):
            s = min(cum[j] - cum[i], total - (cum[j] - cum[i]))
            chord = np.linalg.norm(verts[j] - verts[i])
            if chord < 0.5 * s:
                clearance = min(clearance, chord)
    for i in range(n):
        a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
        ab, ac, bc = b - a, c - a, c - b
        cross = np.linalg.norm(np.cross(ab, ac))
        if cross >= 1e-14:
            r = np.linalg.norm(ab) * np.linalg.norm(ac) * np.linalg.norm(bc) / (2.0 * cross)
            clearance = min(clearance, 2.0 * r)
    for other in others:
        overts = np.asarray(getattr(other, "vertices", other), dtype=float)
        d = np.linalg.norm(verts[:, None, :] - overts[None, :, :], axis=-1).min()
        clearance = min(clearance, d)
    return clearance


def reference_parallel_frames(verts):
    """Per-vertex ``np.cross`` reference for ``surfaces._parallel_frames``."""
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
    v = normals[-1] - np.dot(normals[-1], tangents[0]) * tangents[0]
    v /= np.linalg.norm(v)
    cosang = float(np.clip(np.dot(v, n0), -1.0, 1.0))
    sinang = float(np.dot(np.cross(v, n0), tangents[0]))
    alpha = math.atan2(sinang, cosang)
    out_n = np.empty((n, 3))
    out_b = np.empty((n, 3))
    for i in range(n):
        t = tangents[i]
        b = np.cross(t, normals[i])
        ang = alpha * i / n
        out_n[i] = math.cos(ang) * normals[i] + math.sin(ang) * b
        out_b[i] = np.cross(t, out_n[i])
    return out_n, out_b


def reference_normal_basis(tangent):
    """``np.cross`` reference for ``locus._normal_basis``."""
    t = tangent / np.linalg.norm(tangent)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(t)))] = 1.0
    u = np.cross(t, ref)
    u /= np.linalg.norm(u)
    return u, np.cross(t, u)


def reference_w2_general(surface, frames):
    """Crossing count and spectrum of ``invariants._w2_general`` with the
    u-cycle Wilson loop evaluated at every row, row 0 twice on a tube."""
    from bandtopo.invariants import _match_bands, _u_cycle_wilson

    rows = np.arange(surface.n_v + 1) % surface.n_v
    ev = np.linalg.eigvals(_u_cycle_wilson(surface, frames, rows))
    phases_rows = np.sort(np.angle(ev), axis=-1)
    count = 0
    for prev, cur in zip(phases_rows[:-1], phases_rows[1:]):
        gaps = np.diff(np.sort(prev))
        half_gap = 0.5 * (np.min(gaps) if len(gaps) and np.min(gaps) > 0 else math.pi)
        for a, b in _match_bands(prev, cur, half_gap):
            if (a - math.pi) * (b - math.pi) < 0 or ((a + math.pi) * (b + math.pi) < 0):
                count += 1
    spectrum = np.column_stack([np.arange(len(phases_rows)), [p[0] for p in phases_rows]])
    return count // 2, spectrum


def _reference_gap(model, k, gap_index):
    return float(model.direct_gap(np.asarray(k, dtype=float), gap_index=gap_index))


def reference_gap_tangent(model, k, gap_index, fd):
    """Pointwise reference for ``locus._gap_tangent``: one eigensolve per
    stencil point."""
    hess = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            da = np.zeros(3)
            db = np.zeros(3)
            da[a] = fd
            db[b] = fd
            qpp = _reference_gap(model, k + da + db, gap_index) ** 2
            qpm = _reference_gap(model, k + da - db, gap_index) ** 2
            qmp = _reference_gap(model, k - da + db, gap_index) ** 2
            qmm = _reference_gap(model, k - da - db, gap_index) ** 2
            hess[a, b] = hess[b, a] = (qpp - qpm - qmp + qmm) / (4 * fd * fd)
    w, v = np.linalg.eigh(hess)
    return v[:, 0], w


def reference_correct_to_curve(model, k, tangent, gap_index, tol, fd, max_iter=40):
    """Pointwise reference for ``locus._correct_to_curve``: one eigensolve per
    point of the 2-D stencil, its centre included."""
    from bandtopo.exceptions import RefinementError
    from bandtopo.locus import _normal_basis

    total_it = 0
    for _outer in range(8):
        basis = _normal_basis(tangent)
        for _ in range(max_iter):
            gap = _reference_gap(model, k, gap_index)
            if gap < tol:
                return k, total_it
            total_it += 1
            h = float(np.clip(gap, 1e-7, fd))
            grad = np.empty(2)
            hess = np.empty((2, 2))

            def q(u, v_):
                return (
                    _reference_gap(model, k + u * basis[0] + v_ * basis[1], gap_index)
                    ** 2
                )

            q0 = q(0, 0)
            qp0, qm0 = q(h, 0), q(-h, 0)
            q0p, q0m = q(0, h), q(0, -h)
            qpp, qpm = q(h, h), q(h, -h)
            qmp, qmm = q(-h, h), q(-h, -h)
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
        if _reference_gap(model, k, gap_index) < tol:
            return k, total_it
        tangent, _ = reference_gap_tangent(model, k, gap_index, fd)
    gap = _reference_gap(model, k, gap_index)
    if gap < tol:
        return k, total_it
    raise RefinementError(
        f"curve corrector stalled at gap {gap:.3e}", residual=gap, position=k
    )


def reference_newton_on_field(field, k, htol, max_iter):
    """Pointwise reference for ``locus._newton_on_field``: one field call per
    Jacobian point."""
    step_fd = 1e-6
    for it in range(1, max_iter + 1):
        h = field(k)
        if np.linalg.norm(h) < htol:
            return k, it - 1
        jac = np.empty((3, 3))
        for a in range(3):
            dk = np.zeros(3)
            dk[a] = step_fd
            jac[:, a] = (field(k + dk) - field(k - dk)) / (2 * step_fd)
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


def reference_transverse_slope(model, verts, gap_index, spacing):
    """Pointwise reference for ``locus._transverse_slope``."""
    from bandtopo.locus import _normal_basis
    from bandtopo.model import reduce_torus

    n = len(verts)
    tangents = np.gradient(np.asarray(verts), axis=0)
    slopes = []
    for i in range(0, n, max(1, n // 8)):
        t = tangents[i]
        nrm = np.linalg.norm(t)
        if nrm < 1e-12:
            continue
        u, v = _normal_basis(t / nrm)
        for ang in (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi):
            d = math.cos(ang) * u + math.sin(ang) * v
            probe = verts[i] + spacing * d
            if model.domain.is_torus:
                probe = reduce_torus(probe)
            elif not np.all(model.domain.contains(probe)):
                continue
            hi = model.direct_gap(probe, gap_index=gap_index)
            slopes.append(float(hi) / spacing)
    if not slopes:
        return 1.0, 1.0
    return min(slopes), max(slopes)


def reference_cluster_cells(cells, n, torus):
    """Set-based reference for ``locus._cluster_cells``: a depth-first walk
    from the smallest remaining cell, offsets in lexicographic order."""
    remaining = set(cells)
    clusters = []
    offsets = [
        (di, dj, dl)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        for dl in (-1, 0, 1)
        if (di, dj, dl) != (0, 0, 0)
    ]
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        frontier = [seed]
        unwrapped = {seed: seed}
        while frontier:
            cur = frontier.pop()
            ux, uy, uz = unwrapped[cur]
            for off in offsets:
                if torus:
                    nb = tuple((cur[a] + off[a]) % n for a in range(3))
                else:
                    nb = tuple(cur[a] + off[a] for a in range(3))
                if nb in remaining:
                    remaining.discard(nb)
                    unwrapped[nb] = (ux + off[0], uy + off[1], uz + off[2])
                    frontier.append(nb)
        clusters.append(sorted(unwrapped.values()))
    return clusters


def _csc(entries, shape):
    keys = list(entries)
    rows, cols = (np.array([k[i] for k in keys], dtype=np.int64) for i in (0, 1))
    vals = np.array([entries[k] for k in keys], dtype=np.int64)
    return sparse.csc_matrix((vals, (rows, cols)), shape=shape)


def reference_torus_boundaries(n):
    """Cell-by-cell loop reference for the boundary matrices of
    ``cohomology.torus_complex``."""

    def vid(x, y, z):
        return ((x % n) * n + (y % n)) * n + (z % n)

    d = {1: {}, 2: {}, 3: {}}

    def add(k, row, col, val):
        d[k][row, col] = d[k].get((row, col), 0) + val

    for x, y, z in itertools.product(range(n), repeat=3):
        v = vid(x, y, z)
        nb = [vid(x + 1, y, z), vid(x, y + 1, z), vid(x, y, z + 1)]
        for a in range(3):
            add(1, nb[a], 3 * v + a, 1)
            add(1, v, 3 * v + a, -1)
            p, q = [b for b in range(3) if b != a]
            for row, val in ((3 * v + p, 1), (3 * nb[p] + q, 1),
                             (3 * nb[q] + p, -1), (3 * v + q, -1)):
                add(2, row, 3 * v + a, val)
            sign = (1, -1, 1)[a]
            add(3, 3 * nb[a] + a, v, sign)
            add(3, 3 * v + a, v, -sign)
    nv = n**3
    shapes = {1: (nv, 3 * nv), 2: (3 * nv, 3 * nv), 3: (3 * nv, nv)}
    return {k: _csc(d[k], shapes[k]) for k in d}


def reference_decomposition_cells(parent, n, locus, r):
    """Per-voxel set reference for the cells of ``complement_complex``:
    sorted cell indices per dimension of the tube, complement and boundary
    surface, in ``parent`` = T^3 at resolution n."""

    def vid(x, y, z):
        return ((x % n) * n + (y % n)) * n + (z % n)

    ball = {tuple(c % n for c in v) for comp in locus for v in comp["vertices"]}
    for _ in range(r):
        ball = {
            ((x + dx) % n, (y + dy) % n, (z + dz) % n)
            for x, y, z in ball
            for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
        }
    voxels = list(itertools.product(range(n), repeat=3))
    tube = {
        vid(x, y, z) for x, y, z in voxels
        if all(((x + dx) % n, (y + dy) % n, (z + dz) % n) in ball
               for dx, dy, dz in itertools.product((0, 1), repeat=3))
    }
    shared = {
        3 * vid(x, y, z) + a for x, y, z in voxels for a in range(3)
        if (vid(x, y, z) in tube)
        != (vid(*[c - (i == a) for i, c in enumerate((x, y, z))]) in tube)
    }

    def closure(top, ids):
        cells = [set(ids)]
        for d in range(top, 0, -1):
            m = parent.boundaries[d].tocsc()
            cells.insert(0, {
                int(i) for c in cells[0] for i in m.indices[m.indptr[c]:m.indptr[c + 1]]
            })
        return [sorted(c) for c in cells] + [[]] * (3 - top)

    return {
        "tube": closure(3, tube),
        "complement": closure(3, set(range(n**3)) - tube),
        "boundary": closure(2, shared),
    }


def circle_complex(n):
    """S^1 as n vertices and n edges, edge k running from vertex k to k + 1."""
    v = np.arange(n)
    d1 = sparse.csc_matrix(
        (np.r_[np.ones(n), -np.ones(n)], (np.r_[(v + 1) % n, v], np.r_[v, v])),
        shape=(n, n), dtype=np.int64,
    )
    empty = sparse.csc_matrix((n, 0), dtype=np.int64)
    return bt.CellComplex(f"S1(n={n})", (n, n, 0, 0),
                          {1: d1, 2: empty, 3: sparse.csc_matrix((0, 0), dtype=np.int64)})


def product_complex(a, b):
    """Cellular product a x b of total dimension <= 3, with
    d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy, built with ``sparse.kron``."""

    def size(i, j):
        return a.n_cells[i] * b.n_cells[j]

    def block(i2, j2, i, j):
        if (i2, j2) == (i - 1, j):
            return sparse.kron(a.boundaries[i], sparse.identity(b.n_cells[j], dtype=np.int64))
        if (i2, j2) == (i, j - 1):
            return (-1) ** i * sparse.kron(
                sparse.identity(a.n_cells[i], dtype=np.int64), b.boundaries[j]
            )
        return sparse.csr_matrix((size(i2, j2), size(i, j)), dtype=np.int64)

    def pieces(k):
        return [(i, k - i) for i in range(k + 1)]

    boundaries = {
        k: sparse.bmat(
            [[block(*lo, *hi) for hi in pieces(k)] for lo in pieces(k - 1)],
            format="csc", dtype=np.int64,
        )
        for k in (1, 2, 3)
    }
    n_cells = tuple(sum(size(i, j) for i, j in pieces(k)) for k in range(4))
    return bt.CellComplex(f"{a.name}x{b.name}", n_cells, boundaries)


@pytest.fixture(scope="session")
def klein_s1():
    """Klein bottle x S^1: non-orientable closed 3-manifold with 2-torsion
    in H^2 and H^3, the one fixture whose reduced top cube has a non-zero
    boundary."""
    return product_complex(bt.klein_complex(4), circle_complex(4))
