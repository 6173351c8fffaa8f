import hashlib
from fractions import Fraction as Q
from itertools import combinations

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
from parakahler.errors import DomainError
from parakahler.rootsys import Root


def zero_element(L):
    return AlgebraElement({})


def ad_matrix(L, x):
    """Matrix of ad_x = [x, .] over the basis (column j is [x, e_j])."""
    columns = [bracket(L, x, basis_element(L, j)).coords for j in range(L.dim)]
    return [[col.get(i, 0) for col in columns] for i in range(L.dim)]


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
    assert not bracket(L, h1, cartan_element(L, [0, 1])).coords
    # antisymmetry on elements
    x = root_vector(L, a1) + cartan_element(L, [1, 2])
    assert not bracket(L, x, x).coords


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


# A3 has B(H_1, H_3) = 0, a traced entry that must not be stored.
@pytest.mark.parametrize("name", ["A2", "A3", "G2"])
def test_killing_rows_match_ad_traces(name, algebra):
    _, L = algebra(name)
    ads = [ad_matrix(L, basis_element(L, u)) for u in range(L.dim)]
    rows = L.killing_basis()
    for u in range(L.dim):
        assert all(rows[u].values())
        for v in range(L.dim):
            trace = sum(
                ads[u][i][j] * ads[v][j][i] for i in range(L.dim) for j in range(L.dim)
            )
            assert rows[u].get(v, 0) == trace


@pytest.mark.parametrize("index", [99, 14, -1])
def test_basis_index_out_of_range_raises(index, algebra):
    _, L = algebra("G2")
    with pytest.raises(DomainError):
        basis_element(L, index)
    stray = AlgebraElement({index: 1})
    with pytest.raises(DomainError):
        bracket(L, stray, basis_element(L, 0))
    with pytest.raises(DomainError):
        bracket(L, basis_element(L, 0), stray)


@pytest.mark.parametrize("name", ["A8", "B6", "C6", "D6", "E6", "E7", "E8"])
def test_structure_constants_high_rank(name, algebra):
    # Branch topologies and long chains beyond the acceptance sweep.
    from parakahler.verify import check_jacobi, check_structure_constants

    _, L = algebra(name)
    assert check_jacobi(L)["ok"]
    assert check_structure_constants(L)["ok"]


# sha256 of each type's constants, entries hashed in insertion order as
# repr([(a.coeffs, b.coeffs, N(a, b)), ...]).  Recorded from the earlier
# Fraction-based construction: the integer one gives byte-identical tables.
NCONST_SHA256 = {
    "A1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A2": "f33cfac59d62595cb783d9319c1fd58b200e96769e0277d91395f6c217bf5da9",
    "A3": "01080ca35ca1a384d74646422057c47dc3345ff5619b83541b40f5b8d97c591b",
    "A4": "fcba0dacb5888551ab32210f86cc9f85aa9756d0666b95a974d13482d1affbae",
    "A5": "761d3eff78f6dd6eba0b829cc83cada584a12ccab1ab0cb4be18af72d54a8408",
    "A6": "81f4d55d2d4c4dc6f1d35a5e9eb02db40ad8c2f1086b3d22e1acc3d05a14a4f1",
    "A7": "497af08b321bfe83f4a33ec37aefbddd6f3693f66bb14e56b66ea97b6f93e9b5",
    "A8": "d13acbaf8368311a3e9be2afe972b6e37eeacca238b82dd3be080cd7d6de5967",
    "B2": "bb6a9d9ee7cc74e5a8c86890297936b5c83f36e00b9e34cbf47718eeccb157dc",
    "B3": "5ab73b9ba76bf81957423f52e15ef59d31273f9df65444114893042e532b8ee9",
    "B4": "5934825b4ffdd239ace875d48ce7bcfad0fedf355617b5502ca4bd5b003889cd",
    "B5": "89c4b51a6a679152aacdde364f8fa6aaddb86e0b98cfb50761a426fd52098468",
    "B6": "863652e948ce96b223cd7dbd623479010b0d86c935ef3a1e1ec01d274579545b",
    "B7": "8fa6337d1fb9c16caedbc63f2a8ea8adac26cdb67711258a4d9c5d696198c6dd",
    "B8": "32a75e7de12dff2880b83f4e4407739297d87dfd8c3a96e3c70b7895eb1300ac",
    "C3": "ce5f3584e4ecb936d4a78aa6798efb4bf282496f2e8e8d64de01d97f7387e0dc",
    "C4": "36292fcd95d9ae0e4cebec0d0988c50955a5954dc293272fa0b11a81296169fa",
    "C5": "f07fce4d51172f54dd9005f00275729944360d7c051cacd3190cd4f1e9a4de2e",
    "C6": "8d56a77891f310c50d64ec08e3e35197b114677effe0f2bc1d54a1f3a304d5f3",
    "C7": "2ce278a07043b3d6359b18219f3e7b543ae4e16a41b58563a752c0f3d4b42240",
    "C8": "f5aa3b995d9a22001db36ca77ad35d3c931c6ad680e48c5241e5722f255794cb",
    "D4": "9e2ec4a64d665338f80a44ea208620e3a2850d12733b4f7c12a125c4bfc5a302",
    "D5": "41f479313ae50bbbbe2a3760b6432a3904ce62ecf0585eb4018e38ac8c8e8d45",
    "D6": "d616046ac5692a047e9aade4486fc8c5ffe3c6c52d2a3119ca44f8036df48dfc",
    "D7": "fd2ed93015ec1ccde9832fd6a2ceb253c7991b5b31e65b1c0fb977624b1ec806",
    "D8": "0cead92f6560440659ef710511f2cb5dd0e404964436e5a88f57e2b044278e1c",
    "E6": "5a026e194b5601bfe0b32e6dc9df3b7a611169d8ff190ae3f410bc87e4d7ac59",
    "E7": "027ffffeb6cf255256fde7e9b1e23bdf7a024883108b1eb8d3f775d86a7c025b",
    "E8": "d4b7cd65e907903e8995013c9edbe34ac43b2a7a6841e711379f77bca77920d0",
    "F4": "95244536e5d6d874d32578bf12fc6454473dc63f3aec9a2e8ec00ac1536f27e4",
    "G2": "69f2a54929fabd5f57999121625be6b818c8e9db1f0fb1f14cc5c17456a5cb62",
}


def test_constant_digests_cover_every_type():
    from parakahler.verify import sweep_types

    assert sorted(NCONST_SHA256) == sorted(str(t) for t in sweep_types(8))


@pytest.mark.parametrize("name", sorted(NCONST_SHA256))
def test_constants_digest(name, algebra):
    _, L = algebra(name)
    text = repr([(a.coeffs, b.coeffs, n) for (a, b), n in L.nconst.items()])
    assert hashlib.sha256(text.encode()).hexdigest() == NCONST_SHA256[name]


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

    x = AlgebraElement({i: Q(v) for i, v in enumerate(xs)})
    y = AlgebraElement({i: Q(v) for i, v in enumerate(ys)})
    assert bracket(L, x, y) == bracket(L, y, x).scale(-1)
    assert bracket(L, x.scale(c), y) == bracket(L, x, y).scale(c)
    z = basis_element(L, 3)
    assert bracket(L, x + z, y) == bracket(L, x, y) + bracket(L, z, y)


@pytest.mark.parametrize("name", ["A1", "A2", "B3", "G2"])
def test_zero_weight_triples_match_brute_force(algebra, name):
    _, L = algebra(name)
    wt = L.weights
    brute = tuple(
        (i, j, k)
        for i, j, k in combinations(range(L.dim), 3)
        if not any(map(sum, zip(wt[i], wt[j], wt[k])))
    )
    assert L.zero_weight_triples == brute
    assert L.zero_weight_triples is L.zero_weight_triples


def test_e8_zero_weight_triple_count(algebra):
    _, L = algebra("E8")
    assert len(L.zero_weight_triples) == 3256
