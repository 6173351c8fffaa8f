from fractions import Fraction as Q
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parakahler import ratlin
from reference import det, inverse


def M(rows):
    return [[Q(x) for x in row] for row in rows]


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return M([[int(i == j) for j in range(n)] for i in range(n)])


def test_inverse_and_solve():
    a = M([[2, -1], [-3, 2]])
    inv = inverse(a)
    assert inv == M([[2, 1], [3, 2]])
    assert mat_mul(a, inv) == identity(2)
    assert ratlin.solve(a, [Q(1), Q(0)]) == [Q(2), Q(3)]
    with pytest.raises(ZeroDivisionError):
        inverse(M([[1, 2], [2, 4]]))


def test_det():
    assert det(M([[2, -1], [-3, 2]])) == 1
    assert det(M([[1, 2], [2, 4]])) == 0
    assert det(M([[0, 1], [1, 0]])) == -1


def test_nullspace():
    a = M([[1, 2, 3], [2, 4, 6]])
    basis = ratlin.nullspace(a)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(row[j] * vec[j] for j in range(3)) == 0 for row in a
        )
    assert ratlin.nullspace(M([[1, 0], [0, 1]])) == []


def test_signature_diagonal_and_hyperbolic():
    assert ratlin.symmetric_signature(M([[1, 0], [0, -2]])) == (1, 1)
    assert ratlin.symmetric_signature(M([[3]])) == (1, 0)
    assert ratlin.symmetric_signature(M([[1, 0, 0], [0, 2, 0], [0, 0, -5]])) == (2, 1)
    # Hyperbolic plane: zero diagonal, signature (1, 1).
    assert ratlin.symmetric_signature(M([[0, 1], [1, 0]])) == (1, 1)
    # Two hyperbolic blocks with different scales.
    h2 = M([[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 0, -7], [0, 0, -7, 0]])
    assert ratlin.symmetric_signature(h2) == (2, 2)
    # A dense indefinite example, checked against its diagonalization.
    dense = M([[2, 1, 0], [1, -1, 2], [0, 2, 1]])
    assert ratlin.symmetric_signature(dense) == (2, 1)
    with pytest.raises(ZeroDivisionError):
        ratlin.symmetric_signature(M([[0, 0], [0, 0]]))
    # Dict rows, the form the Einstein metric is stored in, are read as
    # given and left as they were.
    rows = ({1: Q(3)}, {0: Q(3)}, {3: Q(-7)}, {2: Q(-7)})
    assert ratlin.symmetric_signature(rows) == (2, 2)
    assert rows == ({1: Q(3)}, {0: Q(3)}, {3: Q(-7)}, {2: Q(-7)})


def test_signature_of_int_dict_rows_is_exact():
    # Positive definite (det = 10**18 + 1 - 10**18 = 1).  Int dict rows used
    # to be eliminated with float division, which rounds the Schur
    # complement to 0 and reported the form as degenerate.
    big = [[1, 10**9], [10**9, 10**18 + 1]]
    rows = [{j: x for j, x in enumerate(row)} for row in big]
    assert ratlin.symmetric_signature(big) == (2, 0)
    assert ratlin.symmetric_signature(rows) == (2, 0)
    assert rows == [{0: 1, 1: 10**9}, {0: 10**9, 1: 10**18 + 1}]


def test_inverse_singular_after_row_swap():
    # The first pivot needs a swap; the third column is the sum of the others.
    with pytest.raises(ZeroDivisionError):
        inverse(M([[0, 1, 1], [2, 0, 2], [1, 1, 2]]))


def test_nullspace_rectangular():
    # More rows than columns: rank 2 of 4 rows, kernel spanned by (1, -1, 1).
    tall = M([[1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 2, 0]])
    assert ratlin.nullspace(tall) == [M([[1, -1, 1]])[0]]
    # More columns than rows: a 2 x 4 matrix of rank 2 has a 2-dim kernel.
    wide = M([[0, 2, 0, 4], [1, 0, 3, 0]])
    basis = ratlin.nullspace(wide)
    assert basis == M([[-3, 0, 1, 0], [0, -2, 0, 1]])
    for vec in basis:
        assert mat_vec(wide, vec) == [0, 0]


def test_det_with_row_swaps():
    # One swap at the first pivot flips the sign of the pivot product.
    assert det(M([[0, 2, 1], [3, 1, 0], [1, 0, 2]])) == -13
    assert det(M([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert det(M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert det(M([[0, 1], [0, 2]])) == 0


# -- against routes that share no code with ratlin ----------------------------


def leibniz(a):
    """det(a) as the signed sum over permutations."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def minor_rank(a):
    """The size of the largest nonzero minor."""
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                if leibniz([[a[i][j] for j in c] for i in r]):
                    return k
    return 0


entry = st.integers(-3, 3)


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def symmetric(draw, size=st.integers(1, 6)):
    n = draw(size)
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_matches_leibniz(a):
    assert det(a) == leibniz(a)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_is_a_kernel_basis(a):
    basis = ratlin.nullspace(a)
    cols = len(a[0])
    for vec in basis:
        assert mat_vec(a, vec) == [0] * len(a)
    assert len(basis) == cols - minor_rank(a)
    if basis:
        assert minor_rank(basis) == len(basis)


@settings(max_examples=200, deadline=None)
@given(symmetric())
def test_signature_matches_jacobi_sign_changes(a):
    # Jacobi: with every leading principal minor D_k nonzero, the number of
    # negative squares is the number of sign changes in 1, D_1, ..., D_n.
    n = len(a)
    minors = [1] + [leibniz([row[:k] for row in a[:k]]) for k in range(1, n + 1)]
    assume(all(minors))
    neg = sum(x * y < 0 for x, y in zip(minors, minors[1:]))
    assert ratlin.symmetric_signature(a) == (n - neg, neg)


@st.composite
def null_corner_blocks(draw):
    k = draw(st.integers(1, 3))
    b = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    c = draw(symmetric(size=st.just(k)))
    full = [[0] * k + b[i] for i in range(k)]
    full += [[b[j][i] for j in range(k)] + c[i] for i in range(k)]
    order = draw(st.permutations(range(2 * k)))
    return b, [[full[i][j] for j in order] for i in order]


@settings(max_examples=200, deadline=None)
@given(null_corner_blocks())
def test_signature_of_a_null_corner_block(block):
    # [[0, B], [B^T, C]] with B nonsingular k x k has signature (k, k) for any
    # symmetric C, and a symmetric permutation of the indices keeps it.
    b, a = block
    assume(leibniz(b))
    assert ratlin.symmetric_signature(a) == (len(b), len(b))
    rows = [{j: Q(x) for j, x in enumerate(row) if x} for row in a]
    assert ratlin.symmetric_signature(rows) == (len(b), len(b))
