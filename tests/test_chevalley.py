import hashlib
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from operator import add

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


def constant(L, a: Root, b: Root) -> int:
    """N(a, b): the one term of the stored [X_a, X_b], on X_{a+b}."""
    out = L.basis_bracket(L.index_of_root(a), L.index_of_root(b))
    (t, n), = out.items()
    assert t == L.index_of_root(a + b)
    return n


def test_a1_has_no_n_constants(algebra):
    rs, L = algebra("A1")
    # Each root row holds only the Cartan rule and the coroot rule.
    assert [sorted(L.brackets[x]) for x in (1, 2)] == [[0, 2], [0, 1]]
    assert L.brackets[1][2] == {0: 1} and L.brackets[2][1] == {0: -1}
    a = Root((1,))
    h = bracket(L, root_vector(L, a), root_vector(L, -a))
    assert h == cartan_element(L, [1])


def test_a2_constant_magnitude(algebra):
    # p = 0 for the alpha1-string through alpha2, so |N| = 1.
    rs, L = algebra("A2")
    assert abs(constant(L, Root((1, 0)), Root((0, 1)))) == 1
    out = bracket(L, root_vector(L, Root((1, 0))), root_vector(L, Root((0, 1))))
    assert out.coords[L.index_of_root(Root((1, 1)))] in (Q(1), Q(-1))


def test_g2_constant_magnitude(algebra):
    # alpha1-string through alpha1+alpha2 has p = 1, so |N| = 2.
    rs, L = algebra("G2")
    assert abs(constant(L, Root((1, 0)), Root((1, 1)))) == 2


def test_extraspecial_seeds_positive(algebra):
    # The seeded pair (alpha1, alpha2) in A2 carries +1.
    rs, L = algebra("A2")
    assert constant(L, Root((1, 0)), Root((0, 1))) == 1


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


# sha256 of each type's full bracket rows: every stored entry (the Cartan
# rule, the coroot rule and the root-root constants) in insertion order, as
# repr([(i, j, t, c), ...]) for [e_i, e_j] = ... + c e_t.  Recorded while the
# Cartan rule was still computed through ``coroot_pairing``; NCONST_SHA256
# pins the root-root constants alone.
BRACKET_ROWS_SHA256 = {
    "A1": "a3b25a0049e862931a862b419d4ecb4be46c8470fb7dc785525c6ad19e5e7fb0",
    "A2": "96b84c7ba8b9c7972f0d3563e77cc69fc7905bf0dc5a907031583f8faeb18845",
    "A3": "7238d76acdcd6aa9e0d153f372efa3403945135433812767bffff67634a63dca",
    "A4": "e369ee91d425f1b8c63ac1c05966b39b8ebf95f9b83b09e7cced5e9ff4aa265d",
    "A5": "61aa71b721f7df29a1d501bda7920afea146b5d43c3189c874e37aaa79e2130e",
    "A6": "87be9c29971c8cd2149b1b1d2bb2ba6560efa6736be6f280f03b4f3344d09069",
    "A7": "ab1b98767f8d8853434ffa4bb1718ea76ba3362a7de5d3e1a7906c6d67129843",
    "A8": "2cdeb20d5799b779c1024fa4882e5af87b703a213215fbb9ce8273fe5d6c0bf4",
    "B2": "109844b56376175822ad490b71da6cfb3308b22b6a0876919be8a28a8b804ec7",
    "B3": "93e1780db921606f434f79a908f17f5da612a0de51cf6f160fc81a6285f56a1f",
    "B4": "6eff126025711730836e72fc6e84dcdbc0e1a0adf976fa86e198bdc606bfcd92",
    "B5": "4dd586c01cce7fafc9809b797ed35543cd64c596f911f0c5719e9235c9d86f63",
    "B6": "f7ec543ee1ebb84621cc8c4fc2afaf9e890cf56f10f65c44696ecfb4133be4df",
    "B7": "6d5663f789dac245b3c9cae41bd5f262c570a1ba8e53d106391267bed493ccb2",
    "B8": "0c6a59acb3f9cbb45986c93231ee33277e47d1a94f2e2d050b379dcebb7694e1",
    "C3": "09f0512daaf989694faf240e928e512c84548b6d8221df2bb882849e8b6a1f06",
    "C4": "35dc51de6c9ffa3ec5adadf763a04977e1f5e5edaa52ae0c9b540e8c48cf76bf",
    "C5": "63da7cd39f3f94af8e58e3eb674831ee241ea39000b900b69f15713ebd555499",
    "C6": "853dadf8a6d641df00249942c3c961b5d5bde2196d7d67183fc93071f3c770ed",
    "C7": "ce13caadde0ad03bd24a42acf1175244f5efc65d5d27112535c188dff6f2c72c",
    "C8": "0669c288a149c36a2413290f389b43e1853d134d1af9f2c925432eef3aea1674",
    "D4": "4df9b65326b0ca429824fbea4fc4c4c8d3dba297fab08bb5ddf6812956ee262e",
    "D5": "45b4493196e8b01845539e10e334dd09f144e24dcab8a95dc0ba9f17eb3af4da",
    "D6": "42fd1f10874cdc324467735f63ca9beec93cc64c13f7cb535fcf75e5576f3262",
    "D7": "2ab1626137278abbbc5f43dc609795baa52df928a359446f85a4da130bf52165",
    "D8": "ddaaa8964818c56f20b26c42449231ba8b719af160088ee8e9b243113a6c1968",
    "E6": "b41522122830c9c8f762cfe5adcb64b64cf7aa8fd13110bbd245aa27df5db998",
    "E7": "f3679dceb823d3001f93aff15b8746c43657cb5e2d012803b1f964f42d20ed07",
    "E8": "69f447dd3afd94baf1acc1daf51bb89f77da4f700086dff0de3da3a92a71cb44",
    "F4": "2ad3efac5d1583557d272185e636f7157ecff1da36bd8177d28022daff228912",
    "G2": "56742b801a11861b2cf84661caaa620180d9750162a2f98f474b3959b6222933",
}


def test_constant_digests_cover_every_type():
    from parakahler.verify import sweep_types

    types = sorted(str(t) for t in sweep_types(8))
    assert sorted(NCONST_SHA256) == sorted(BRACKET_ROWS_SHA256) == types


@pytest.mark.parametrize("name", sorted(NCONST_SHA256))
def test_constants_digest(name, algebra):
    # Every N(a, b) in row-major root order, read from the bracket rows.
    _, L = algebra(name)
    roots = L.roots
    constants = [
        (a.coeffs, b.coeffs, n)
        for i, a in enumerate(roots, L.rank)
        for j, b in enumerate(roots, L.rank)
        if any(map(add, a.coeffs, b.coeffs))  # [X_a, X_-a] = H_a is no constant
        for n in L.basis_bracket(i, j).values()
    ]
    text = repr(constants)
    assert hashlib.sha256(text.encode()).hexdigest() == NCONST_SHA256[name]


@pytest.mark.parametrize("name", sorted(BRACKET_ROWS_SHA256))
def test_bracket_rows_digest(name, algebra):
    _, L = algebra(name)
    entries = [
        (i, j, t, c)
        for i, row in enumerate(L.brackets)
        for j, out in row.items()
        for t, c in out.items()
    ]
    text = repr(entries)
    assert hashlib.sha256(text.encode()).hexdigest() == BRACKET_ROWS_SHA256[name]


@pytest.mark.parametrize("name", sorted(NCONST_SHA256))
def test_weight_keys_tell_apart_sums_and_differences(name, algebra):
    # Every x + y with x, y in R + {0} has one key, kx + ky, and no two of
    # them share a key.  R + {0} is closed under negation, so the sums cover
    # every x - y, and x + 0 covers the weights themselves.
    _, L = algebra(name)
    points = set(zip(L.weights, L.keys))  # the H_i share weight 0 and key 0
    assert len(points) == len(L.roots) + 1
    seen = {}
    for x, kx in points:
        for y, ky in points:
            assert seen.setdefault(tuple(map(add, x, y)), kx + ky) == kx + ky
    assert len(set(seen.values())) == len(seen)


@pytest.mark.parametrize("name", sorted(NCONST_SHA256))
def test_stored_constants_obey_the_triple_relations(name, algebra):
    # Read from the bracket rows alone: N(-a, -b) = -N(a, b), and for
    # c = -a-b the cyclic N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b).
    rs, L = algebra(name)
    sq = rs.root_length_sq
    for a in L.roots:
        for b in L.roots:
            c = -(a + b)
            if not any(c.coeffs) or not rs.is_root(c):
                continue
            n = constant(L, a, b)
            assert constant(L, -a, -b) == -n, (a, b)
            ratio = Q(n, sq(c))
            assert Q(constant(L, b, c), sq(a)) == ratio == Q(constant(L, c, a), sq(b)), (a, b)


def _entries_off_the_coroot_rule(L):
    """The stored (i, j, [e_i, e_j]) other than the coroot entries [X_a, X_-a]."""
    keys = L.keys
    return [
        (i, j, out)
        for i, row in enumerate(L.brackets)
        for j, out in row.items()
        if i < L.rank or j < L.rank or keys[i] + keys[j]
    ]


SHARED_TERMS = {"E6": 168, "E7": 280, "E8": 512}


@pytest.mark.parametrize(
    "name", [n for n in sorted(NCONST_SHA256) if int(n[1:]) <= 4] + sorted(SHARED_TERMS)
)
def test_equal_single_terms_share_one_dict(name, algebra):
    # Off the coroot rule every entry is one term {t: c}; two entries are the
    # same dict exactly when they are equal.  The 2|R+| coroot entries are
    # each their own dict.
    rs, L = algebra(name)
    entries = _entries_off_the_coroot_rule(L)
    assert all(len(out) == 1 for _, _, out in entries)
    by_value = {}
    for _, _, out in entries:
        assert by_value.setdefault(tuple(out.items()), out) is out
    assert len({id(out) for _, _, out in entries}) == len(by_value)
    if name in SHARED_TERMS:
        assert len(by_value) == SHARED_TERMS[name]
    every = {id(out) for row in L.brackets for out in row.values()}
    assert len(every) == len(by_value) + 2 * len(rs.positive_roots)


@pytest.mark.parametrize("name", ["G2", "E6"])
def test_replacing_a_shared_entry_leaves_the_others(name):
    # The tamper tests replace an entry and never mutate its dict; replacing
    # the most shared term changes that entry alone.
    from parakahler.chevalley import chevalley_constants
    from parakahler.rootsys import SimpleType, build_root_system

    rs = build_root_system(SimpleType.parse(name))
    L, fresh = chevalley_constants(rs), chevalley_constants(rs)
    entries = _entries_off_the_coroot_rule(L)
    uses = {}
    for _, _, out in entries:
        uses[id(out)] = uses.get(id(out), 0) + 1
    i, j, _ = max(entries, key=lambda e: uses[id(e[2])])
    assert uses[id(L.brackets[i][j])] > 1
    L.brackets[i][j] = {t: -c for t, c in L.brackets[i][j].items()}
    assert L.brackets[i][j] == {t: -c for t, c in fresh.brackets[i][j].items()}
    assert [sorted(row) for row in L.brackets] == [sorted(row) for row in fresh.brackets]
    for p, row in enumerate(fresh.brackets):
        for q, out in row.items():
            if (p, q) != (i, j):
                assert L.brackets[p][q] == out, (p, q)


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


@pytest.mark.parametrize("name", ["A1", "A2", "B3", "G2", "F4"])
def test_zero_weight_pairs_match_brute_force(algebra, name):
    _, L = algebra(name)
    wt = L.weights
    everything = range(L.dim)
    assert [L.partners(i) for i in everything] == [
        tuple(k for k in everything if not any(map(add, wt[i], wt[k]))) for i in everything
    ]
    brute = [
        [
            (x, y)
            for x, y in combinations_with_replacement(range(L.dim), 2)
            if not any(map(sum, zip(wt[z], wt[x], wt[y])))
        ]
        for z in range(L.dim)
    ]
    assert L.zero_weight_pairs == brute
    assert L.zero_weight_pairs is L.zero_weight_pairs


def test_e8_zero_weight_pair_count(algebra):
    # Each triple z < x < y appears once per place of z; the other 120 pairs
    # repeat an index and lie in the Cartan.
    _, L = algebra("E8")
    pairs = L.zero_weight_pairs
    assert sum(map(len, pairs)) == 9888
    assert sum(z < x < y for z, zs in enumerate(pairs) for x, y in zs) == 3256
