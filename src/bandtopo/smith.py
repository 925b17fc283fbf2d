"""Exact linear algebra for integer boundary matrices.

Cubical complexes are reduced first (``CellComplex.reduced``): exact
elimination of +-1 pivots (``eliminate_units``) keeps integral homology and
leaves a few cells, and only then do ranks and Smith normal forms run.
There is one factorization.  ``eliminate_units`` first takes the free unit
pivots, those alone in their row or column, in array-op rounds on the COO
entries; a lazy pivot heap then eliminates the unit pivots among the few
entries left, and sympy's arbitrary-precision invariant-factor routine
finishes the (small) residual block, so coefficient growth can never
overflow.  The Smith form over Z and the ranks over Q and Z2 are all read
off its invariant factors.

``scipy.sparse`` is imported in ``_to_csc`` and sympy in
``_invariant_factors``, where they run, so importing ``bandtopo`` loads
neither.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _to_csc(mat):
    from scipy import sparse

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

    ``eliminate_units`` removes the +-1 pivots first; the residual block,
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
    """Exact elimination of the +-1 pivots of an integer matrix.

    Pivoting on entry (r, c) subtracts ``mat[r, k] * mat[r, c]`` times
    column c from every other column k that meets row r (a unit is its own
    inverse), then drops row r and column c: the Schur complement, which
    keeps the invariant factors.

    Free pivots come first, in array-op rounds on the live entries: a +-1
    entry alone in its row or its column costs nothing, as the Schur
    complement is then just the matrix without row r and column c.  Free
    pivots on distinct rows and columns stay free whatever the order, so
    each round takes one per row and column of all of them at once.  The
    few entries left go into a lazy pivot heap keyed by the Markowitz cost
    (row length - 1) * (column length - 1).  Only entries whose value
    changed are pushed again, and a popped entry whose cost has grown goes
    back at its new cost; an entry whose cost fell is not re-pushed, so the
    order is only roughly Markowitz.

    Returns ``(pivots, residual)``: the (row, column) pivots in order, a
    (k, 2) integer array, and the residual block on the other rows and
    columns as dict columns ``{col: {row: value}}`` of Python ints, which
    cannot overflow.
    """
    m = _to_csc(mat)
    m.sum_duplicates()  # repeated entries add up
    col_of = np.repeat(np.arange(m.shape[1], dtype=np.int64), np.diff(m.indptr))
    live = m.data != 0
    free, left = _free_pivots(
        m.indices[live].astype(np.int64), col_of[live], m.data[live].astype(np.int64)
    )

    # the entries left keep the column-major order of the CSC input
    cols = {}
    rows = defaultdict(set)
    for r, c, v in zip(*(a.tolist() for a in left)):
        cols.setdefault(c, {})[r] = v
        rows[r].add(c)

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
    return np.concatenate([free, np.array(pivots, dtype=np.int64).reshape(-1, 2)]), cols


def _free_pivots(r, c, v):
    """Take free unit pivots off COO entries ``(r, c, v)``, round by round.

    Each round counts the live entries per row and column, takes the +-1
    entries alone in their row or column, keeps one per row and then one
    per column, and drops the rows and columns they use.  Returns the
    pivots, a (k, 2) array in order, and the live entries left.
    """
    rounds = [np.zeros((0, 2), dtype=np.int64)]
    while len(v):
        free = (np.abs(v) == 1) & ((np.bincount(r)[r] == 1) | (np.bincount(c)[c] == 1))
        if not free.any():
            break
        pr, pc = r[free], c[free]
        one = np.unique(pr, return_index=True)[1]
        one = one[np.unique(pc[one], return_index=True)[1]]
        pr, pc = pr[one], pc[one]
        rounds.append(np.stack([pr, pc], axis=1))
        dead_r = np.zeros(r.max() + 1, dtype=bool)
        dead_c = np.zeros(c.max() + 1, dtype=bool)
        dead_r[pr] = dead_c[pc] = True
        live = ~(dead_r[r] | dead_c[c])
        r, c, v = r[live], c[live], v[live]
    return np.concatenate(rounds), (r, c, v)

