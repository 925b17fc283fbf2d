"""Gauss linking numbers of disjoint closed polylines.

The double sum over segment pairs uses the exact signed-solid-angle form of
the Gauss integral for polygons, so the result is an integer up to float
roundoff for genuinely closed disjoint curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import LinkingError
from .model import TWO_PI

LINKING_RESIDUAL_TOL = 0.05


@dataclass
class LinkingResult:
    value: int
    pair: tuple
    method: str = "gauss-sum"
    residual: float = 0.0
    closure: dict | None = None

    def __int__(self):
        return int(self.value)

    def to_record(self):
        rec = {
            "value": int(self.value),
            "pair": list(self.pair),
            "method": self.method,
            "residual": float(self.residual),
        }
        if self.closure:
            rec["closure"] = self.closure
        return rec


def _loop_vertices(loop):
    verts = np.asarray(getattr(loop, "vertices", loop), dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 3:
        raise LinkingError("a loop needs at least 3 vertices of dimension 3")
    return verts


def _loop_winding(loop):
    w = getattr(loop, "winding", (0, 0, 0))
    return tuple(int(x) for x in w)


def gauss_pair_sum(verts_a, verts_b):
    """Exact Gauss sum over all segment pairs of two closed polylines."""
    a0 = verts_a
    a1 = np.roll(verts_a, -1, axis=0)
    b0 = verts_b
    b1 = np.roll(verts_b, -1, axis=0)

    def unit(p, q):
        d = p[:, None, :] - q[None, :, :]
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.min(n) < 1e-12:
            raise LinkingError("loops intersect (coincident points)")
        return d / n

    u00 = unit(a0, b0)
    u01 = unit(a0, b1)
    u10 = unit(a1, b0)
    u11 = unit(a1, b1)

    def tri(x, y, z):
        num = np.einsum("ijk,ijk->ij", x, np.cross(y, z))
        den = (
            1.0
            + np.einsum("ijk,ijk->ij", x, y)
            + np.einsum("ijk,ijk->ij", y, z)
            + np.einsum("ijk,ijk->ij", z, x)
        )
        return 2.0 * np.arctan2(num, den)

    omega = tri(u00, u01, u11) + tri(u00, u11, u10)
    return float(np.sum(omega)) / (4.0 * math.pi)


def linking_number(loop_a, loop_b, pair=("A", "B"), on_torus=False, closure=None):
    """Linking number of two disjoint closed polylines via the Gauss sum.

    On the torus both loops must be contractible (zero winding); the
    computation then runs in the universal-cover chart with loop B
    translated to its minimal image.  Antisymmetric under orientation
    reversal of either loop.
    """
    va = _loop_vertices(loop_a)
    vb = _loop_vertices(loop_b).copy()
    if on_torus:
        if _loop_winding(loop_a) != (0, 0, 0) or _loop_winding(loop_b) != (0, 0, 0):
            raise LinkingError(
                "linking on the torus is only defined here for contractible "
                "loop pairs; got a non-contractible loop"
            )
        shift = TWO_PI * np.round((va.mean(axis=0) - vb.mean(axis=0)) / TWO_PI)
        vb = vb + shift

    seg_a = np.linalg.norm(np.roll(va, -1, axis=0) - va, axis=1)
    seg_b = np.linalg.norm(np.roll(vb, -1, axis=0) - vb, axis=1)
    dists = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=-1)
    i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
    dmin = float(dists[i, j])
    # resolution matters where the loops approach each other, so the bound
    # uses the segment lengths local to the closest vertex pair
    local = max(seg_a[i - 1], seg_a[i % len(seg_a)], seg_b[j - 1], seg_b[j % len(seg_b)])
    if dmin < 3.0 * local:
        raise LinkingError(
            f"loops too close for the segment resolution: min distance {dmin:.4f} "
            f"< 3 x local segment length {local:.4f}"
        )

    raw = gauss_pair_sum(va, vb)
    value = int(np.rint(raw))
    residual = abs(raw - value)
    if residual >= LINKING_RESIDUAL_TOL:
        raise LinkingError(
            f"Gauss sum {raw:.4f} is not integer to within {LINKING_RESIDUAL_TOL}"
        )
    return LinkingResult(
        value=value, pair=tuple(pair), residual=residual, closure=closure
    )


def close_arc(arc, distance=200.0):
    """Close an open arc with a rectangular far-field return path.

    The return path runs from the last vertex out by ``distance`` along the
    axis least aligned with the arc's chord, across, and back to the first
    vertex.  The convention is recorded on the result so downstream reports
    can flag it.
    """
    verts = np.asarray(getattr(arc, "vertices", arc), dtype=float)
    chord = verts[-1] - verts[0]
    if np.linalg.norm(chord) < 1e-12:
        return verts, {"closed": False}
    direction = np.zeros(3)
    direction[int(np.argmin(np.abs(chord)))] = 1.0
    far_end = verts[-1] + distance * direction
    far_start = verts[0] + distance * direction
    closed = np.vstack([verts, far_end, far_start])
    meta = {
        "closed_by": "far-field-return",
        "distance": float(distance),
        "direction": [float(x) for x in direction],
    }
    return closed, meta


def linking_matrix(components, on_torus=False):
    """Pairwise linking numbers over loop/arc components.

    Returns ``{"pairs": [...], "skipped": [...]}``; arcs are closed by the
    far-field convention, non-contractible torus loops are skipped with a
    reason.
    """
    loops = []
    for comp in components:
        if comp.kind == "loop":
            loops.append((comp.id, comp.item, None))
        elif comp.kind == "arc":
            closed, meta = close_arc(comp.item)
            loops.append((comp.id, closed, meta))
    pairs = []
    skipped = []
    for i in range(len(loops)):
        for j in range(i + 1, len(loops)):
            id_a, la, meta_a = loops[i]
            id_b, lb, meta_b = loops[j]
            closure = {}
            if meta_a:
                closure[id_a] = meta_a
            if meta_b:
                closure[id_b] = meta_b
            try:
                res = linking_number(
                    la, lb, pair=(id_a, id_b), on_torus=on_torus,
                    closure=closure or None,
                )
                pairs.append(res.to_record())
            except LinkingError as exc:
                skipped.append({"pair": [id_a, id_b], "reason": str(exc)})
    return {"pairs": pairs, "skipped": skipped}
