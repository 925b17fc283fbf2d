"""Exact linear algebra for integer boundary matrices.

Cubical complexes are reduced first (``CellComplex.reduced``): exact
elimination of +-1 pivots (``eliminate_units``) keeps integral homology and
leaves a few cells, and only then do ranks and Smith normal forms run.
There is one factorization: ``eliminate_units`` removes the unit pivots and
sympy's arbitrary-precision invariant-factor routine finishes the (small)
residual block, so coefficient growth can never overflow.  The Smith form
over Z and the ranks over Q and Z2 are all read off its invariant factors.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy import sparse


def _to_csc(mat):
    if sparse.issparse(mat):
        return mat.tocsc()
    arr = np.asarray(mat)
    if arr.size == 0:
        return sparse.csc_matrix(arr.reshape(arr.shape if arr.ndim == 2 else (0, 0)))
    return sparse.csc_matrix(arr)


def rank_field(mat, coefficients):
    """Rank over Q or Z2, read off the invariant factors.

    With U A V = diag(factors) for unimodular U, V (invertible mod 2 as
    well), the rank over Q is the number of factors and the rank over Z2
    the number of odd ones.
    """
    if coefficients not in ("Q", "Z2"):
        raise ValueError(f"unknown field {coefficients!r}")
    factors = _invariant_factors(mat)
    if coefficients == "Z2":
        return sum(d % 2 for d in factors)
    return len(factors)


@dataclass
class SmithForm:
    """Invariant factors d1 | d2 | ... of an integer matrix."""

    factors: tuple
    shape: tuple

    @property
    def rank(self):
        return len(self.factors)

    @property
    def torsion(self):
        return tuple(d for d in self.factors if d > 1)

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors violate divisibility: {self.factors}")


def smith_normal_form(mat):
    """Smith normal form (invariant factors) of an integer matrix."""
    m = _to_csc(mat)
    return SmithForm(tuple(_invariant_factors(m)), m.shape)


def _invariant_factors(mat):
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    ``eliminate_units`` removes every +-1 pivot first; the residual block,
    if any, goes through sympy's arbitrary-precision invariant-factor
    routine (imported only then).
    """
    pivots, residual = eliminate_units(mat)
    factors = []
    if residual:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        rows = sorted({r for col in residual.values() for r in col})
        dense = [[col.get(r, 0) for col in residual.values()] for r in rows]
        factors = [abs(int(d)) for d in invariant_factors(Matrix(dense), domain=ZZ)]
    return [1] * len(pivots) + [d for d in factors if d]


def eliminate_units(mat):
    """Exact elimination of every +-1 pivot of an integer matrix.

    Pivoting on entry (r, c) subtracts ``mat[r, k] * mat[r, c]`` times
    column c from every other column k that meets row r (a unit is its own
    inverse), then drops row r and column c: the Schur complement, which
    keeps the invariant factors.  Pivots leave a lazy heap in Markowitz
    order, cost (row length - 1) * (column length - 1), so free pairs
    (cost 0) go first.  Only entries whose value changed are pushed again;
    a popped entry whose cost has grown goes back at its new cost.

    Returns ``(pivots, residual)``: the (row, column) pivots in order, and
    the residual block on the other rows and columns as dict columns
    ``{col: {row: value}}`` of Python ints, which cannot overflow.
    """
    m = _to_csc(mat)
    cols = {}
    rows = defaultdict(set)
    indices, data = m.indices.tolist(), m.data.tolist()
    for j in range(m.shape[1]):
        col = {}
        for t in range(m.indptr[j], m.indptr[j + 1]):
            v = int(data[t])
            if v:
                col[indices[t]] = v
                rows[indices[t]].add(j)
        if col:
            cols[j] = col

    def cost(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    heap = [(cost(r, c), r, c) for c, col in cols.items() for r, v in col.items() if v in (1, -1)]
    heapq.heapify(heap)
    pivots = []
    while heap:
        popped, r, c = heapq.heappop(heap)
        pcol = cols.get(c)
        if pcol is None or pcol.get(r) not in (1, -1):
            continue
        now = cost(r, c)
        if now > popped:
            heapq.heappush(heap, (now, r, c))
            continue
        pivots.append((r, c))
        del cols[c]
        p = pcol.pop(r)
        for r2 in pcol:
            rows[r2].discard(c)
        for k in rows.pop(r) - {c}:
            col = cols[k]
            f = col.pop(r) * p
            changed = []
            for r2, v in pcol.items():
                nv = col.get(r2, 0) - f * v
                if nv:
                    if r2 not in col:
                        rows[r2].add(k)
                    col[r2] = nv
                    if nv in (1, -1):
                        changed.append(r2)
                elif r2 in col:
                    del col[r2]
                    rows[r2].discard(k)
            if not col:
                del cols[k]
            for r2 in changed:
                heapq.heappush(heap, (cost(r2, k), r2, k))
    return pivots, cols

