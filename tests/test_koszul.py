import re
from fractions import Fraction as Q

import pytest

from parakahler import koszul, ratlin
from parakahler.chevalley import (
    AlgebraElement,
    basis_element,
    cartan_element,
    killing_form,
    root_vector,
)
from parakahler.errors import DomainError
from parakahler.gradation import CrossingSet, enumerate_crossings, grade_from_crossing
from parakahler.koszul import (
    TwoForm,
    delta_sum,
    einstein_structure,
    kernel_is_g0,
    kernel_of,
    killing_dual,
    koszul_coefficients,
    koszul_form,
    koszul_trace,
    omega_z,
    scaled_killing_dual,
    two_form_from_weight,
)
from parakahler.rootsys import Root, SimpleType, Weight, build_root_system, n_pairing
from parakahler.verify import sweep_types
from reference import metric_rows, two_form_matrix, two_form_rows


def W(*coords):
    return Weight(tuple(Q(c) for c in coords))


def zero_element(L):
    return AlgebraElement({})


def evaluate(f: TwoForm, L, x, y):
    """f(x, y), bilinear over the pairs (X_a, X_-a) that carry f."""
    total = Q(0)
    for root, c in zip(f.rs.positive_roots, f.coeffs):
        i, j = L.index_of_root(root), L.index_of_root(-root)
        x_i, x_j = x.coords.get(i, 0), x.coords.get(j, 0)
        total += c * (x_i * y.coords.get(j, 0) - x_j * y.coords.get(i, 0))
    return total


def test_delta_sums(algebra):
    rs, _ = algebra("G2")
    assert delta_sum(rs, rs.positive_roots) == W(10, 6)
    assert delta_sum(rs, [Root((0, 1))]) == W(0, 1)
    assert delta_sum(rs, []) == W(0, 0)
    with pytest.raises(DomainError):
        delta_sum(rs, [Root((1, 2))])
    with pytest.raises(DomainError):
        delta_sum(rs, [-Root((1, 0))])

    a1rs, _ = algebra("A1")
    assert delta_sum(a1rs, a1rs.positive_roots) == W(1)


def test_koszul_form_golden(algebra):
    g2, _ = algebra("G2")
    assert koszul_form(grade_from_crossing(g2, CrossingSet.of(1))) == W(20, 10)
    assert koszul_form(grade_from_crossing(g2, CrossingSet.of(2))) == W(18, 12)
    assert koszul_form(grade_from_crossing(g2, CrossingSet.of(1, 2))) == W(20, 12)

    a3, _ = algebra("A3")
    assert koszul_form(grade_from_crossing(a3, CrossingSet.of(2))) == W(4, 8, 4)

    a1, _ = algebra("A1")
    assert koszul_form(grade_from_crossing(a1, CrossingSet.of(1))) == W(2)


def test_koszul_form_vanishes_on_uncrossed_weights(algebra):
    from parakahler.rootsys import weight_in_pi_basis

    a3, _ = algebra("A3")
    g = grade_from_crossing(a3, CrossingSet.of(2))
    pi_coords = weight_in_pi_basis(a3, koszul_form(g))
    assert pi_coords == (Q(0), Q(8), Q(0))


def test_koszul_coefficients_golden(algebra):
    g2, _ = algebra("G2")
    assert koszul_coefficients(grade_from_crossing(g2, CrossingSet.of(1))) == {1: 5}
    assert koszul_coefficients(grade_from_crossing(g2, CrossingSet.of(2))) == {2: 3}
    assert koszul_coefficients(grade_from_crossing(g2, CrossingSet.of(1, 2))) == {
        1: 2,
        2: 2,
    }
    a3, _ = algebra("A3")
    assert koszul_coefficients(grade_from_crossing(a3, CrossingSet.of(2))) == {2: 4}


def test_trace_oracle_matches_weight_formula(algebra):
    rs, L = algebra("G2")
    for crossing in enumerate_crossings(2):
        g = grade_from_crossing(rs, crossing)
        psi = koszul_form(g)
        for i in range(1, 3):
            assert koszul_trace(g, L, basis_element(L, i - 1)) == rs.coroot_pairing(
                psi, i
            )
        for root in rs.all_roots():
            assert koszul_trace(g, L, root_vector(L, root)) == 0
        assert koszul_trace(g, L, zero_element(L)) == 0
        # On the grading element the value is twice the total positive degree.
        d = cartan_element(L, g.grading_element)
        expected = 2 * sum(g.degree(r) for r in g.nonzero_positive())
        assert koszul_trace(g, L, d) == expected


@pytest.mark.parametrize("index", [99, 14, -1])
def test_koszul_trace_rejects_out_of_range_index(index, algebra):
    rs, L = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    with pytest.raises(DomainError):
        koszul_trace(g, L, AlgebraElement({index: 1}))


def test_koszul_trace_on_mixed_elements(algebra):
    # The trace is linear and kills every root direction, so a Cartan
    # element plus root-vector noise traces like the Cartan part alone.
    from parakahler.gradation import CrossingSet as CS

    rs, L = algebra("B2")
    g = grade_from_crossing(rs, CS.of(2))
    d = cartan_element(L, g.grading_element)
    noisy = (
        d
        + root_vector(L, Root((1, 0))).scale(Q(3, 2))
        + root_vector(L, -Root((1, 1)))
    )
    assert koszul_trace(g, L, noisy) == koszul_trace(g, L, d)


def test_two_form_from_weight_golden(algebra):
    g2, _ = algebra("G2")
    pi1, pi2 = g2.weights

    rho1 = two_form_from_weight(g2, pi1.scale(10))
    assert {str(r): c for r, c in zip(g2.positive_roots, rho1.coeffs)} == {
        "1a1": 10, "1a2": 0, "1a1+1a2": 10, "2a1+1a2": 20,
        "3a1+1a2": 10, "3a1+2a2": 10,
    }

    rho2 = two_form_from_weight(g2, pi2.scale(6))
    assert {str(r): c for r, c in zip(g2.positive_roots, rho2.coeffs)} == {
        "1a1": 0, "1a2": 6, "1a1+1a2": 18, "2a1+1a2": 18,
        "3a1+1a2": 6, "3a1+2a2": 12,
    }

    zero = two_form_from_weight(g2, Weight.zero(2))
    assert not any(zero.coeffs)


def test_kernel_of(algebra):
    g2, _ = algebra("G2")
    g = grade_from_crossing(g2, CrossingSet.of(1))
    rho = two_form_from_weight(g2, koszul_form(g))
    kernel = kernel_of(rho, g)
    labels = {bi.label() for bi in kernel}
    assert labels == {"H1", "H2", "X[1a2]", "X[-1a2]"}
    assert kernel_is_g0(rho, g)

    # d(pi_1) on A2 annihilates the alpha2 pair.
    a2, _ = algebra("A2")
    ga = grade_from_crossing(a2, CrossingSet.of(1))
    dpi1 = two_form_from_weight(a2, a2.weights[0])
    kernel_roots = {bi.root for bi in kernel_of(dpi1, ga) if bi.kind == "X"}
    assert Root((0, 1)) in kernel_roots and -Root((0, 1)) in kernel_roots

    z = two_form_from_weight(a2, Weight.zero(2))
    assert len(kernel_of(z, ga)) == a2.rank + 6  # whole algebra


def test_omega_z_and_killing_dual(algebra):
    rs, L = algebra("A1")
    h1 = cartan_element(L, [1])
    w = omega_z(L, h1)
    assert w.coeffs[rs.positive_roots.index(Root((1,)))] == 8  # B(H1, H1)
    with pytest.raises(DomainError):
        omega_z(L, root_vector(L, Root((1,))))
    assert not any(omega_z(L, zero_element(L)).coeffs)

    # Killing dual of the Koszul form reproduces d(psi), exactly.
    for name in ["A2", "B2", "G2"]:
        rs, L = algebra(name)
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            psi = koszul_form(g)
            z = killing_dual(L, psi)
            assert omega_z(L, z).coeffs == two_form_from_weight(rs, psi).coeffs
            dz, d = scaled_killing_dual(L, psi)  # the same z over one int d
            assert all(isinstance(c, int) for c in dz.coords.values())
            assert omega_z(L, dz, d).coeffs == omega_z(L, z).coeffs


def _omega_z_per_root(L, z):
    """B(z, H_a) on each positive root a, one Killing evaluation per root."""
    rs = L.rs
    return tuple(killing_form(L, z, cartan_element(L, rs.coroot(a))) for a in rs.positive_roots)


@pytest.mark.parametrize(
    "name, crossings", [("G2", [(1,), (1, 2)]), ("F4", [(1,), (2, 4)]), ("E6", [(1,), (3, 6)])]
)
def test_omega_z_matches_per_root_killing_values(algebra, name, crossings):
    rs, L = algebra(name)
    gradations = [grade_from_crossing(rs, CrossingSet.of(*c)) for c in crossings]
    duals = [killing_dual(L, koszul_form(g)) for g in gradations]
    off_lattice = cartan_element(L, [Q(2 * i - 3, i + 1) for i in range(L.rank)])
    for z in [*duals, off_lattice]:
        assert omega_z(L, z).coeffs == _omega_z_per_root(L, z)


def test_omega_z_evaluates_the_killing_form_once_per_simple_coroot(algebra, monkeypatch):
    rs, L = algebra("E6")
    calls = []

    def counted(*args):
        calls.append(args)
        return killing_form(*args)

    monkeypatch.setattr(koszul, "killing_form", counted)
    z = killing_dual(L, koszul_form(grade_from_crossing(rs, CrossingSet.of(2))))
    omega_z(L, z)
    assert len(calls) == L.rank


def test_two_form_evaluate_and_matrix(algebra):
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    rho = two_form_from_weight(rs, koszul_form(g))
    a = Root((1, 0))
    c = rho.coeffs[rs.positive_roots.index(a)]
    xa, xma = root_vector(L, a), root_vector(L, -a)
    assert evaluate(rho, L, xa, xma) == c
    assert evaluate(rho, L, xma, xa) == -c
    assert evaluate(rho, L, xa, xa) == 0
    m = two_form_matrix(rho, L)
    i, j = L.index_of_root(a), L.index_of_root(-a)
    assert m[i][j] == c and m[j][i] == -c


def test_einstein_structure_a1(algebra):
    rs, L = algebra("A1")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    es = einstein_structure(g, L, 1)
    assert [bi.label() for bi in es.basis] == ["X[1a1]", "X[-1a1]"]
    assert es.metric == (-4,)  # g(X_a1, X_-a1)
    assert metric_rows(es) == [{1: -4}, {0: -4}]
    assert es.signature() == (1, 1)

    # Scaling in lambda is exactly linear in 1/lambda.
    es2 = einstein_structure(g, L, 2)
    assert es.metric == tuple(2 * v for v in es2.metric)

    with pytest.raises(DomainError):
        einstein_structure(g, L, 0)


def test_einstein_structure_g2(algebra):
    for name, crossed, signature in [
        ("G2", (1,), (5, 5)),
        ("E8", (1, 4, 8), (112, 112)),
    ]:
        rs, L = algebra(name)
        g = grade_from_crossing(rs, CrossingSet.of(*crossed))
        es = einstein_structure(g, L, 1)
        assert len(es.basis) == sum(signature)
        assert es.signature() == signature
        # Pairs X_a with X_-a by -n(psi, |a|); off-pair entries vanish and
        # are not stored.
        assert len(es.metric) == signature[0] and all(es.metric)
        roots, rows = [bi.root for bi in es.basis], metric_rows(es)
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                expected = Q(0)
                if not any((a + b).coeffs):
                    expected = -es.rho.coeffs[rs.positive_roots.index(a if a.is_positive else -a)]
                assert rows[i].get(j, 0) == expected


@pytest.mark.parametrize("lam", [1, Q(-3, 7)], ids=str)
def test_metric_is_rho_of_k_over_lambda(algebra, lam):
    # g(X, Y) = rho(X, K Y) / lam on m, from the dense two-form and K as the
    # sign of each degree, against the k stored values expanded into rows.
    for stype in sweep_types(3):
        rs, L = algebra(str(stype))
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            es = einstein_structure(g, None, lam)
            rho = two_form_matrix(es.rho, L)
            index = [L.index_of_root(bi.root) for bi in es.basis]
            ksign = [g.ksign(bi.root) for bi in es.basis]
            want = [[rho[x][y] * s / lam for y, s in zip(index, ksign)] for x in index]
            got = [[row.get(j, 0) for j in range(len(index))] for row in metric_rows(es)]
            assert got == want, (stype, crossing)


def test_einstein_metric_entries_are_int_where_integral(algebra):
    rs, L = algebra("E6")
    g = grade_from_crossing(rs, CrossingSet.of(1, 4, 6))
    es = einstein_structure(g, L, 1)
    values = es.metric
    assert values and all(type(v) is int for v in values)
    assert type(es.lam) is Q
    as_fractions = [{j: Q(v) for j, v in row.items()} for row in metric_rows(es)]
    half = len(es.basis) // 2
    assert es.signature() == ratlin.symmetric_signature(as_fractions) == (half, half)
    # At lambda = 3 the entries divisible by 3 stay ints, the others are thirds.
    thirds = list(einstein_structure(g, L, 3).metric)
    assert thirds == [Q(v, 3) for v in values]
    assert [type(w) is int for w in thirds] == [v % 3 == 0 for v in values]
    assert {type(w) for w in thirds} == {int, Q}


@pytest.mark.parametrize(
    "coeffs, message",
    [
        pytest.param((Q(1),), "coefficients missing for 1a2", id="short"),
        pytest.param((1, 2, 3, 4), "must be a tuple over the 3 positive roots", id="long"),
        pytest.param({Root((1, 0)): 1, Root((0, 1)): 2, Root((1, 1)): 3},
                     "must be a tuple over the 3 positive roots", id="root_keyed"),
    ],
)
def test_two_form_requires_full_coefficients(algebra, coeffs, message):
    # By position over 1a1, 1a2, 1a1+1a2; a Root-keyed dict is refused, not read as its keys.
    rs, _ = algebra("A2")
    with pytest.raises(DomainError, match=re.escape(message)):
        TwoForm(rs, coeffs)


@pytest.mark.parametrize("form_type, grading_type", [("B3", "C3"), ("A8", "E6")])
def test_kernel_refuses_a_two_form_of_another_root_system(form_type, grading_type):
    # Equal |R+| (9 and 36): reading by position would pair the wrong roots silently.
    rs, other = (build_root_system(SimpleType.parse(t)) for t in (form_type, grading_type))
    assert len(rs.positive_roots) == len(other.positive_roots)
    rho = two_form_from_weight(rs, koszul_form(grade_from_crossing(rs, CrossingSet.of(2))))
    g = grade_from_crossing(other, CrossingSet.of(2))
    for reader in (kernel_of, kernel_is_g0, lambda f, g: einstein_structure(g, None, 1, f)):
        with pytest.raises(DomainError, match="two-form and gradation use different root systems"):
            reader(rho, g)


@pytest.mark.parametrize("stype", sweep_types(8), ids=str)
def test_integer_root_data_are_plain_ints(stype):
    rs = build_root_system(stype)
    for root in rs.all_roots():
        assert type(rs.root_length_sq(root)) is int
        assert all(type(c) is int for c in rs.coroot(root))
    for crossing in (CrossingSet.of(1), CrossingSet(frozenset(range(1, rs.rank + 1)))):
        g = grade_from_crossing(rs, crossing)
        psi = koszul_form(g)
        assert all(type(c) is int for c in psi.coords)
        assert all(type(c) is int for c in two_form_from_weight(rs, psi).coeffs)
        assert all(type(a) is int for a in koszul_coefficients(g).values())


@pytest.mark.parametrize("stype", sweep_types(8), ids=str)
def test_two_form_from_weight_matches_n_pairing(stype):
    # One pairing vector per weight against the per-root n(xi, alpha).
    rs = build_root_system(stype)
    g = grade_from_crossing(rs, CrossingSet(frozenset(range(1, rs.rank + 1))))
    for xi in (koszul_form(g), *rs.weights):
        coeffs = two_form_from_weight(rs, xi).coeffs
        assert len(coeffs) == len(rs.positive_roots)
        for root, c in zip(rs.positive_roots, coeffs):
            want = n_pairing(rs, xi, root)
            assert c == want and type(c) is type(want)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_einstein_structure_without_algebra(name, algebra):
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(1, 4, rs.rank))
    with_l, without = einstein_structure(g, L, 3), einstein_structure(g, None, 3)
    assert without.basis == with_l.basis
    assert without.metric == with_l.metric
    assert without.rho.coeffs == with_l.rho.coeffs


def test_einstein_structure_rejects_other_root_system(algebra):
    rs, _ = algebra("A2")
    _, other = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    with pytest.raises(DomainError, match="different root systems"):
        einstein_structure(g, other, 1)


def test_two_form_rows_refuse_another_root_system(algebra):
    # Rows are read by position, so the algebra must list the same roots.
    rs, _ = algebra("A2")
    _, other = algebra("G2")
    rho = two_form_from_weight(rs, koszul_form(grade_from_crossing(rs, CrossingSet.of(1))))
    with pytest.raises(DomainError, match="different root systems"):
        two_form_rows(rho, other)


def _signature_pairs(max_rank):
    """(pair count, general algorithm) of the metric of every gradation up to a rank."""
    for stype in sweep_types(max_rank):
        rs = build_root_system(stype)
        for crossing in enumerate_crossings(rs.rank):
            es = einstein_structure(grade_from_crossing(rs, crossing), None, 1)
            yield es.signature(), ratlin.symmetric_signature(metric_rows(es))


def test_pair_count_signature_matches_the_general_algorithm():
    pairs = list(_signature_pairs(4))
    assert len(pairs) == sum(2**t.rank - 1 for t in sweep_types(4)) == 106
    assert all(count == general for count, general in pairs)


@pytest.mark.slow
def test_pair_count_signature_matches_the_general_algorithm_on_every_gradation():
    pairs = list(_signature_pairs(8))
    assert len(pairs) == 2455
    assert all(count == general for count, general in pairs)


def test_signature_refuses_a_degenerate_pair(algebra):
    # A2 {1, 2}: m is every root, and g_alpha = 0 at any position leaves the
    # pair (X_alpha, X_-alpha) in the kernel.
    rs, _ = algebra("A2")
    es = einstein_structure(grade_from_crossing(rs, CrossingSet.of(1, 2)), None, 1)
    assert es.signature() == (3, 3)
    true_metric = es.metric
    for p, label in enumerate(["X[1a1]", "X[1a2]", "X[1a1+1a2]"]):
        es.metric = true_metric[:p] + (0,) + true_metric[p + 1:]
        with pytest.raises(DomainError, match=rf"^metric is degenerate at {re.escape(label)}$"):
            es.signature()
