from fractions import Fraction as Q

import pytest

from parakahler import ratlin


def M(rows):
    return [[Q(x) for x in row] for row in rows]


def test_inverse_and_solve():
    a = M([[2, -1], [-3, 2]])
    inv = ratlin.inverse(a)
    assert inv == M([[2, 1], [3, 2]])
    assert ratlin.mat_mul(a, inv) == ratlin.identity(2)
    assert ratlin.solve(a, [Q(1), Q(0)]) == [Q(2), Q(3)]
    with pytest.raises(ZeroDivisionError):
        ratlin.inverse(M([[1, 2], [2, 4]]))


def test_det():
    assert ratlin.det(M([[2, -1], [-3, 2]])) == 1
    assert ratlin.det(M([[1, 2], [2, 4]])) == 0
    assert ratlin.det(M([[0, 1], [1, 0]])) == -1


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


def test_inverse_singular_after_row_swap():
    # The first pivot needs a swap; the third column is the sum of the others.
    with pytest.raises(ZeroDivisionError):
        ratlin.inverse(M([[0, 1, 1], [2, 0, 2], [1, 1, 2]]))


def test_nullspace_rectangular():
    # More rows than columns: rank 2 of 4 rows, kernel spanned by (1, -1, 1).
    tall = M([[1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 2, 0]])
    assert ratlin.nullspace(tall) == [M([[1, -1, 1]])[0]]
    # More columns than rows: a 2 x 4 matrix of rank 2 has a 2-dim kernel.
    wide = M([[0, 2, 0, 4], [1, 0, 3, 0]])
    basis = ratlin.nullspace(wide)
    assert basis == M([[-3, 0, 1, 0], [0, -2, 0, 1]])
    for vec in basis:
        assert ratlin.mat_vec(wide, vec) == [0, 0]


def test_det_with_row_swaps():
    # One swap at the first pivot flips the sign of the pivot product.
    assert ratlin.det(M([[0, 2, 1], [3, 1, 0], [1, 0, 2]])) == -13
    assert ratlin.det(M([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert ratlin.det(M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert ratlin.det(M([[0, 1], [0, 2]])) == 0
