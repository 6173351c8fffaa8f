from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakahler.chevalley import (
    AlgebraElement,
    basis_element,
    bracket,
    cartan_element,
    killing_form,
    root_vector,
)
from parakahler.rootsys import Root


def zero_element(L):
    return AlgebraElement((Q(0),) * L.dim)


def ad_matrix(L, x):
    """Matrix of ad_x = [x, .] over the basis (column j is [x, e_j])."""
    columns = [bracket(L, x, basis_element(L, j)).coords for j in range(L.dim)]
    return [list(row) for row in zip(*columns)]


def test_a1_has_no_n_constants(algebra):
    rs, L = algebra("A1")
    assert L.nconst == {}
    a = Root((1,))
    h = bracket(L, root_vector(L, a), root_vector(L, -a))
    assert h == cartan_element(L, [1])


def test_a2_constant_magnitude(algebra):
    # p = 0 for the alpha1-string through alpha2, so |N| = 1.
    rs, L = algebra("A2")
    assert abs(L.nconst[(Root((1, 0)), Root((0, 1)))]) == 1
    out = bracket(L, root_vector(L, Root((1, 0))), root_vector(L, Root((0, 1))))
    assert out.coords[L.index_of_root(Root((1, 1)))] in (Q(1), Q(-1))


def test_g2_constant_magnitude(algebra):
    # alpha1-string through alpha1+alpha2 has p = 1, so |N| = 2.
    rs, L = algebra("G2")
    assert abs(L.nconst[(Root((1, 0)), Root((1, 1)))]) == 2


def test_extraspecial_seeds_positive(algebra):
    # The seeded pair (alpha1, alpha2) in A2 carries +1.
    rs, L = algebra("A2")
    assert L.nconst[(Root((1, 0)), Root((0, 1)))] == 1


def test_bracket_basis_rules(algebra):
    rs, L = algebra("A2")
    h1 = cartan_element(L, [1, 0])
    a1 = Root((1, 0))
    # [H_1, X_a] = a(H_1) X_a
    out = bracket(L, h1, root_vector(L, a1))
    assert out == root_vector(L, a1).scale(2)
    # Cartan is abelian
    assert bracket(L, h1, cartan_element(L, [0, 1])).is_zero()
    # antisymmetry on elements
    x = root_vector(L, a1) + cartan_element(L, [1, 2])
    assert bracket(L, x, x).is_zero()


def test_coroot_expansion(algebra):
    rs, L = algebra("G2")
    # alpha = 3a1+2a2 is long: H_alpha = k_i d_i / d_alpha -> (1, 2)
    assert rs.coroot(Root((3, 2))) == (1, 2)
    # short root 2a1+a2: d_alpha = 1 -> (2, 3)
    assert rs.coroot(Root((2, 1))) == (2, 3)
    assert rs.coroot(-Root((2, 1))) == (-2, -3)


def test_ad_matrix_diagonal_on_cartan(algebra):
    rs, L = algebra("A2")
    h = cartan_element(L, [1, 1])
    m = ad_matrix(L, h)
    for root in L.roots:
        i = L.index_of_root(root)
        expected = sum(
            c * rs.cartan[j][t] for j, c in enumerate(root.coeffs) for t in (0, 1)
        )
        assert m[i][i] == expected
        for k in range(L.dim):
            if k != i:
                assert m[k][i] == 0
    assert ad_matrix(L, zero_element(L)) == [[Q(0)] * L.dim for _ in range(L.dim)]


def test_killing_sl2_golden(algebra):
    rs, L = algebra("A1")
    h = cartan_element(L, [1])
    a = Root((1,))
    # Independent brute-force check over the 3-dim basis.
    m = ad_matrix(L, h)
    trace = sum(
        m[i][j] * m[j][i] for i in range(L.dim) for j in range(L.dim)
    )
    assert trace == 8
    assert killing_form(L, h, h) == 8
    assert killing_form(L, root_vector(L, a), root_vector(L, -a)) == 4
    assert killing_form(L, h, zero_element(L)) == 0


def test_killing_grading_orthogonality(algebra):
    rs, L = algebra("B2")
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a != b:
                assert killing_form(L, root_vector(L, a), root_vector(L, -b)) == 0
            assert killing_form(L, root_vector(L, a), root_vector(L, b)) == 0


@pytest.mark.parametrize("name", ["A8", "B6", "C6", "D6", "E6", "E7"])
def test_structure_constants_high_rank(name, algebra):
    # Branch topologies and long chains beyond the acceptance sweep.
    from parakahler.verify import check_jacobi, check_structure_constants

    _, L = algebra(name)
    assert check_jacobi(L)["ok"]
    assert check_structure_constants(L)["ok"]


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@given(
    xs=st.lists(small_rationals, min_size=8, max_size=8),
    ys=st.lists(small_rationals, min_size=8, max_size=8),
    c=small_rationals,
)
@settings(max_examples=60, deadline=None)
def test_bracket_bilinear_antisymmetric(algebra, xs, ys, c):
    rs, L = algebra("A2")
    from parakahler.chevalley import AlgebraElement

    x = AlgebraElement(tuple(Q(v) for v in xs))
    y = AlgebraElement(tuple(Q(v) for v in ys))
    assert bracket(L, x, y) == bracket(L, y, x).scale(-1)
    assert bracket(L, x.scale(c), y) == bracket(L, x, y).scale(c)
    z = basis_element(L, 3)
    assert bracket(L, x + z, y) == bracket(L, x, y) + bracket(L, z, y)
