"""Exact linear algebra for integer boundary matrices.

Cubical complexes are reduced first (``CellComplex.reduced``): exact
elimination of +-1 pivots (``eliminate_units``) keeps integral homology and
leaves a few cells, and only then do ranks and Smith normal forms run.
Field ranks are sparse column reductions: GF(2) on Python-int bitmasks,
rationals via modular elimination at two large primes (asserted to agree).
Integer Smith normal form eliminates the unit pivots first and finishes the
(small) residual block with a dense arbitrary-precision algorithm, so
coefficient growth can never overflow.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

PRIMES = (2147483647, 2147483629)


def _to_csc(mat):
    if sparse.issparse(mat):
        return mat.tocsc()
    arr = np.asarray(mat)
    if arr.size == 0:
        return sparse.csc_matrix(arr.reshape(arr.shape if arr.ndim == 2 else (0, 0)))
    return sparse.csc_matrix(arr)


def rank_gf2(mat):
    """Rank over GF(2) by column reduction on bitmask integers."""
    m = _to_csc(mat)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return 0
    pivots = {}
    rank = 0
    indptr, indices = m.indptr, m.indices
    data = np.asarray(m.data)
    for j in range(m.shape[1]):
        col = 0
        for t in range(indptr[j], indptr[j + 1]):
            if int(data[t]) % 2:
                col |= 1 << int(indices[t])
        while col:
            lead = col.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = col
                rank += 1
                break
            col ^= piv
    return rank


def rank_modp(mat, p):
    """Rank over GF(p) by sparse column reduction (dict columns)."""
    m = _to_csc(mat)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return 0
    pivots = {}
    rank = 0
    indptr, indices = m.indptr, m.indices
    data = np.asarray(m.data)
    for j in range(m.shape[1]):
        col = {}
        for t in range(indptr[j], indptr[j + 1]):
            v = int(data[t]) % p
            if v:
                col[int(indices[t])] = v
        while col:
            lead = max(col)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(col[lead], p - 2, p)
                col = {r: (v * inv) % p for r, v in col.items()}
                pivots[lead] = col
                rank += 1
                break
            f = col[lead]
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return rank


def rank_field(mat, coefficients):
    """Rank over Z2 or Q (the latter via two independent modular ranks)."""
    if coefficients == "Z2":
        return rank_gf2(mat)
    if coefficients == "Q":
        r0 = rank_modp(mat, PRIMES[0])
        r1 = rank_modp(mat, PRIMES[1])
        if r0 != r1:
            raise ArithmeticError(
                f"modular ranks disagree ({r0} vs {r1}); matrix is adversarial"
            )
        return r0
    raise ValueError(f"unknown field {coefficients!r}")


@dataclass
class SmithForm:
    """Invariant factors d1 | d2 | ... of an integer matrix."""

    factors: tuple
    shape: tuple
    U: list | None = None
    V: list | None = None

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


def smith_normal_form(mat, with_transforms=False):
    """Smith normal form of an integer matrix.

    With ``with_transforms`` a dense algorithm runs throughout and the
    unimodular U, V with U A V = diag(factors) are returned (intended for
    small matrices).  Otherwise ``eliminate_units`` removes every +-1 pivot
    first and the residual block goes through sympy's arbitrary-precision
    invariant-factor routine.
    """
    m = _to_csc(mat)
    if with_transforms:
        dense = [[int(v) for v in row] for row in m.toarray()]
        factors, U, V = _dense_snf(dense, m.shape[0], m.shape[1], True)
        return SmithForm(tuple(factors), m.shape, U, V)
    pivots, residual = eliminate_units(m)
    factors = []
    if residual:
        rows = sorted({r for col in residual.values() for r in col})
        factors = _residual_factors([[col.get(r, 0) for col in residual.values()] for r in rows])
    return SmithForm(tuple([1] * len(pivots) + factors), m.shape)


def _residual_factors(dense):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    factors = [int(d) for d in invariant_factors(Matrix(dense), domain=ZZ)]
    return [abs(d) for d in factors if d != 0]


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


def _dense_snf(a, m, n, transforms):
    """Classic Smith reduction on a dense list-of-lists of Python ints."""
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transforms else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for c in range(n):
            ai[c] -= q * aj[c]
        if transforms:
            ui, uj = U[i], U[j]
            for c in range(m):
                ui[c] -= q * uj[c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            a[r][i] -= q * a[r][j]
        if transforms:
            for r in range(n):
                V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        if transforms:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        if transforms:
            for r in range(n):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def negate_row(i):
        for c in range(n):
            a[i][c] = -a[i][c]
        if transforms:
            for c in range(m):
                U[i][c] = -U[i][c]

    def reduce_slot(t):
        """Reduce diagonal slot t so the pivot divides the whole trailing
        block.

        The pivot is the gcd of the trailing block when this returns, which
        both yields the divisibility chain automatically and keeps entry
        growth minor-bounded (no coefficient explosion).  Returns False when
        the trailing block is zero.
        """
        pr = pc = -1
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if best is None:
            return False
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if not done:
                continue
            # pull any entry the pivot does not divide into the pivot row;
            # the pivot then strictly shrinks on the next pass
            culprit = None
            p = a[t][t]
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_op(t, culprit, -1)
            if a[t][t].bit_length() > 100000:
                raise ArithmeticError(
                    "entry growth out of control in the transform-tracking "
                    "Smith reduction; use smith_normal_form without transforms"
                )
        if a[t][t] < 0:
            negate_row(t)
        return True

    def fix_pair(i):
        """Replace diag(d1, d2) at slots (i, i+1) by diag(gcd, lcm).

        The matrix is diagonal outside the pair, so the row/column Euclid
        stays confined to the 2x2 block; the pivot is a strictly decreasing
        positive integer, so this terminates.
        """
        row_op(i, i + 1, -1)  # row_i += row_{i+1}: block [[d1, d2], [0, d2]]
        while True:
            if a[i][i + 1]:
                q = a[i][i + 1] // a[i][i]
                col_op(i + 1, i, q)
                if a[i][i + 1]:
                    swap_cols(i, i + 1)
                continue
            if a[i + 1][i]:
                q = a[i + 1][i] // a[i][i]
                row_op(i + 1, i, q)
                if a[i + 1][i]:
                    swap_rows(i, i + 1)
                continue
            break
        for t in (i, i + 1):
            if a[t][t] < 0:
                negate_row(t)

    t = 0
    while t < min(m, n) and reduce_slot(t):
        t += 1
    rank = t
    # enforce the divisibility chain; fixing a pair only ever shrinks the
    # earlier factor, so the factor vector decreases lexicographically
    i = 0
    while i + 1 < rank:
        if a[i + 1][i + 1] % a[i][i] != 0:
            fix_pair(i)
            i = max(i - 1, 0)
        else:
            i += 1
    factors = [a[i][i] for i in range(rank)]
    return factors, U, V
