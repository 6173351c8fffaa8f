"""Exact linear algebra over the rationals.

Matrices come in as lists of rows of ``fractions.Fraction`` (or ints) and
never touch floating point.  They reach the dimension of E8 (248) but are
sparse, so they are held as dict rows ``{column: value}`` that never store a
zero; ``symmetric_signature`` also takes such rows (of ints or Fractions)
as input, and every input row is copied with Fraction values, so division
stays exact.  Every elimination in the module is one step,
``_eliminate``: subtract from every row with an entry in the pivot column
the multiple of the pivot row that clears it.  ``rref`` takes that step
column by column, pivoting on the sparsest candidate row, and ``solve``
and ``nullspace`` read its result.
``symmetric_signature`` takes the same step as a congruence: clearing a
pivot's column from the remaining rows leaves their Schur complement, which
is symmetric again, so the pivot index is dropped and its sign counted.
"""

from __future__ import annotations

import heapq
from fractions import Fraction as Q

Row = dict[int, Q]


def _rows(a) -> list[Row]:
    """Copies of a's rows (lists or dict rows) as dict rows of Fractions."""
    return [
        {j: Q(x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        for row in a
    ]


def _eliminate(rows: list[Row], targets, pivot: int, col: int) -> None:
    """Clear ``col`` in every target row but ``pivot`` with multiples of it."""
    p = rows[pivot]
    pc = p[col]
    for t in targets:
        row = rows[t]
        if t == pivot or col not in row:
            continue
        f = row[col] / pc
        for c, v in p.items():
            x = row.get(c, 0) - f * v
            if x:
                row[c] = x
            else:
                del row[c]


def rref(a) -> tuple[list[Row], list[int], Q]:
    """Reduced row echelon form of a (rows may exceed columns).

    Returns the nonzero reduced rows as dict rows, their pivot columns in
    order, and the product of the pivots signed by the row swaps, which is
    det(a) when a is square and nonsingular.
    """
    rows = _rows(a)
    cols = len(a[0]) if a else 0
    order = list(range(len(rows)))  # order[k]: the row in position k
    pivots: list[int] = []
    scale = Q(1)
    for c in range(cols):
        k = len(pivots)
        cand = [i for i in range(k, len(rows)) if c in rows[order[i]]]
        if not cand:
            continue
        i = min(cand, key=lambda i: len(rows[order[i]]))
        if i != k:
            order[k], order[i] = order[i], order[k]
            scale = -scale
        r = order[k]
        p = rows[r][c]
        scale *= p
        rows[r] = {j: v / p for j, v in rows[r].items()}
        _eliminate(rows, order, r, c)
        pivots.append(c)
    return [rows[r] for r in order[: len(pivots)]], pivots, scale


def solve(a, b) -> list[Q]:
    """Solve a x = b exactly for square nonsingular a, by reducing [a | b]."""
    n = len(a)
    rows, pivots, _ = rref([[*row, x] for row, x in zip(a, b)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row.get(n, Q(0)) for row in rows]


def nullspace(a) -> list[list[Q]]:
    """Basis of the right kernel of a (rows may exceed columns).

    One vector per free column c: 1 at c and minus the reduced rows'
    entries in column c at their pivots.
    """
    if not a:
        return []
    rows, pivots, _ = rref(a)
    cols = len(a[0])
    bound = set(pivots)
    basis = {
        c: [Q(int(j == c)) for j in range(cols)]
        for c in range(cols)
        if c not in bound
    }
    for row, pc in zip(rows, pivots):
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = -v
    return list(basis.values())


def symmetric_signature(a) -> tuple[int, int]:
    """Signature (positives, negatives) of a symmetric rational matrix.

    Congruence by Schur complements, so the count is exact.  A nonzero
    diagonal pivot counts by its sign.  When every remaining diagonal entry
    vanishes, an entry b at (i, j) is a hyperbolic block [[0, b], [b, 0]]:
    clearing column i with row j and column j with row i drops both indices,
    and the block counts once each way.  The matrix must be nondegenerate.

    The pivot is the shortest row, ties to the lowest index, among the
    rows with a diagonal entry if any, else among all remaining rows: the
    least key (no diagonal, length, index).  A heap holds the keys; one that
    no longer matches its row, or whose row is used, is stale and skipped.
    By symmetry the rows with an entry in column c are the columns of row c,
    so each step visits only those rows.
    """
    rows = _rows(a)
    alive = set(range(len(rows)))

    def key(t: int) -> tuple[bool, int, int]:
        return t not in rows[t], len(rows[t]), t

    heap = [key(t) for t in alive]
    heapq.heapify(heap)

    def eliminate(pivot: int, col: int) -> None:
        targets = list(rows[col])
        _eliminate(rows, targets, pivot, col)
        for t in targets:
            if t != pivot:
                heapq.heappush(heap, key(t))

    pos = neg = 0
    while alive:
        entry = heapq.heappop(heap)
        i = entry[-1]
        if i not in alive or entry != key(i):
            continue
        if i in rows[i]:
            eliminate(i, i)
            alive.remove(i)
            if rows[i][i] > 0:
                pos += 1
            else:
                neg += 1
            continue
        if not rows[i]:
            raise ZeroDivisionError("form is degenerate")
        j = min(rows[i])
        eliminate(j, i)
        eliminate(i, j)
        alive -= {i, j}
        pos += 1
        neg += 1
    return pos, neg
