import math

import numpy as np
import pytest

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
