"""Exact linear algebra over the rationals.

Everything here works on lists of lists of ``fractions.Fraction`` (or ints)
and never touches floating point.  Matrices reach the dimension of E8 (248)
but stay sparse, and elimination skips zero entries, so plain Gaussian
elimination is adequate.  ``inverse``, ``det`` and ``nullspace`` share one
reduced-row-echelon routine, ``rref``; ``symmetric_signature`` diagonalizes
by congruence instead, because it must keep the form's signature.
"""

from __future__ import annotations

from fractions import Fraction as Q

Matrix = list[list[Q]]


def identity(n: int) -> Matrix:
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def mat_copy(a) -> Matrix:
    return [[Q(x) for x in row] for row in a]


def mat_mul(a, b) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[Q(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a, v) -> list[Q]:
    return [sum((c * x for c, x in zip(row, v) if c), Q(0)) for row in a]


def rref(a) -> tuple[Matrix, list[int], Q]:
    """Reduced row echelon form of a copy of a (rows may exceed columns).

    Returns the reduced rows, the pivot columns in order, and the product of
    the pivots signed by the row swaps, which is det(a) when a is square and
    nonsingular.  Every elimination in this module except the congruence in
    ``symmetric_signature`` runs through here.
    """
    m = mat_copy(a)
    rows, cols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    scale = Q(1)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale = -scale
        scale *= m[r][c]
        inv_p = Q(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, scale


def inverse(a) -> Matrix:
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(a)
    m, pivots, _ = rref([[*row, *e] for row, e in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in m]


def solve(a, b) -> list[Q]:
    """Solve a x = b exactly for square nonsingular a."""
    return mat_vec(inverse(a), [Q(x) for x in b])


def det(a) -> Q:
    _, pivots, scale = rref(a)
    return scale if len(pivots) == len(a) else Q(0)


def nullspace(a) -> list[list[Q]]:
    """Basis of the right kernel of a (rows may exceed columns)."""
    if not a:
        return []
    m, pivots, _ = rref(a)
    cols = len(a[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Q(0)] * cols
        v[fc] = Q(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][fc]
        basis.append(v)
    return basis


def symmetric_signature(a) -> tuple[int, int]:
    """Signature (positives, negatives) of a symmetric rational matrix.

    Uses congruence (Lagrange) diagonalization, so the count is exact.  The
    matrix must be nondegenerate.
    """
    n = len(a)
    m = mat_copy(a)
    pos = neg = 0
    idx = list(range(n))
    for step in range(n):
        k = len(idx)
        if k == 0:
            break
        # Find a nonzero diagonal entry, creating one if necessary.
        dpos = next((t for t in range(k) if m[idx[t]][idx[t]]), None)
        if dpos is None:
            # All diagonal entries vanish; use a nonzero off-diagonal pair.
            pair = next(
                ((s, t) for s in range(k) for t in range(s + 1, k) if m[idx[s]][idx[t]]),
                None,
            )
            if pair is None:
                raise ZeroDivisionError("form is degenerate")
            s, t = pair
            i, j = idx[s], idx[t]
            # Row/column operation: e_i <- e_i + e_j makes the (i,i) entry 2*m[i][j].
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            dpos = s
        i = idx[dpos]
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.pop(dpos)
        for t in list(idx):
            f = m[t][i] / d
            if f:
                for c in range(n):
                    m[t][c] -= f * m[i][c]
                for r in range(n):
                    m[r][t] -= f * m[r][i]
    return pos, neg
