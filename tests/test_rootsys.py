import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakahler import rootsys
from parakahler.errors import DomainError
from parakahler.rootsys import (
    Root,
    SimpleType,
    Weight,
    build_root_system,
    exact_div,
    format_coeffs,
    inner_product,
    n_pairing,
)
from parakahler.verify import sweep_types
from reference import inverse, root_data, tuple_walk_positive_roots

# Classical positive-root counts per (family, rank).
COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 8): 36,
    ("B", 2): 4, ("B", 4): 16,
    ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}


def test_invalid_ranks_rejected():
    for family, rank in [("E", 9), ("E", 5), ("F", 3), ("G", 3), ("A", 0), ("D", 2)]:
        with pytest.raises(DomainError):
            SimpleType(family, rank)


def test_parse_round_trip():
    assert str(SimpleType.parse("g2")) == "G2"
    assert SimpleType.parse("A8").rank == 8
    for bad in ["G", "X2", "A", "2A"]:
        with pytest.raises(DomainError):
            SimpleType.parse(bad)


def test_c2_builds_as_b2_twin():
    rs = build_root_system(SimpleType("C", 2))
    assert len(rs.positive_roots) == 4
    assert rs.d == (1, 2)


def test_inner_product_dimension_mismatch():
    rs = build_root_system(SimpleType("A", 2))
    with pytest.raises(DomainError):
        inner_product(rs, Weight((Q(1),)), Weight((Q(1), Q(0))))


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    assert len(rs.positive_roots) == COUNTS[(family, rank)]


def test_g2_positive_roots_explicit():
    rs = build_root_system(SimpleType("G", 2))
    listed = {r.coeffs for r in rs.positive_roots}
    assert listed == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert rs.highest_root == Root((3, 2))


def test_a1_and_a3_positive_roots():
    rs1 = build_root_system(SimpleType("A", 1))
    assert [r.coeffs for r in rs1.positive_roots] == [(1,)]

    # Brute-force expectation for A3: consecutive sums of simple roots.
    rs3 = build_root_system(SimpleType("A", 3))
    expected = set()
    for i in range(3):
        for j in range(i, 3):
            expected.add(tuple(int(i <= k <= j) for k in range(3)))
    assert {r.coeffs for r in rs3.positive_roots} == expected


def test_closure_under_root_strings():
    # alpha + beta is a root iff it appears in the computed set; spot-check
    # that the set is closed: no missing sums inside the lattice span.
    rs = build_root_system(SimpleType("B", 3))
    roots = set(rs.all_roots())
    for a in roots:
        for b in roots:
            s = a + b
            if s in roots:
                assert rs.is_root(s)


def test_fundamental_weights_golden():
    g2 = build_root_system(SimpleType("G", 2))
    assert g2.weights[0] == Weight((Q(2), Q(1)))
    assert g2.weights[1] == Weight((Q(3), Q(2)))

    a1 = build_root_system(SimpleType("A", 1))
    assert a1.weights[0] == Weight((Q(1, 2),))

    a3 = build_root_system(SimpleType("A", 3))
    assert a3.weights[1] == Weight((Q(1, 2), Q(1), Q(1, 2)))


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "F4", "G2"])
def test_weights_times_cartan_is_identity(name):
    rs = build_root_system(SimpleType.parse(name))
    for i, w in enumerate(rs.weights):
        for j in range(rs.rank):
            want = Q(int(i == j))
            assert rs.coroot_pairing(w, j + 1) == want
            assert n_pairing(rs, w, rs.simple_root(j + 1)) == want


def test_inner_product_g2_golden():
    rs = build_root_system(SimpleType("G", 2))
    a1 = Weight(rs.simple_root(1).coeffs)
    a2 = Weight(rs.simple_root(2).coeffs)
    assert inner_product(rs, a1, a1) == 2
    assert inner_product(rs, a2, a2) == 6
    assert inner_product(rs, a1, a2) == -3


def test_inner_product_simply_laced():
    rs = build_root_system(SimpleType("A", 2))
    s = Weight(Root((1, 1)).coeffs)
    assert inner_product(rs, s, s) == 2
    zero = Weight.zero(2)
    assert inner_product(rs, zero, zero) == 0


def test_n_pairing_golden():
    g2 = build_root_system(SimpleType("G", 2))
    pi1, pi2 = g2.weights
    assert n_pairing(g2, pi1.scale(10), Root((2, 1))) == 20
    assert n_pairing(g2, pi2.scale(6), Root((1, 1))) == 18
    with pytest.raises(DomainError):
        n_pairing(g2, pi1, Root((1, 2)))


def test_short_roots_have_squared_length_two():
    for name in ["B3", "C3", "F4", "G2"]:
        rs = build_root_system(SimpleType.parse(name))
        lengths = {rs.root_length_sq(r) for r in rs.positive_roots}
        assert min(lengths) == 2
        assert len(lengths) == 2  # exactly short and long


def test_deterministic_rebuild():
    a = build_root_system(SimpleType("F", 4))
    b = build_root_system(SimpleType("F", 4))
    assert a == b
    assert a.positive_roots == b.positive_roots


def test_format_coeffs():
    assert format_coeffs((2, 1)) == "2a1+1a2"
    assert format_coeffs((0, 0)) == "0"
    assert format_coeffs((-1, 3)) == "-1a1+3a2"


@given(
    coeffs=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_n_pairing_integral_on_weight_lattice(coeffs, data):
    # Cartan integrality: weight-lattice elements pair integrally with roots.
    rs = build_root_system(SimpleType("G", 2))
    xi = Weight.zero(2)
    for c, w in zip(coeffs, rs.weights):
        xi = xi + w.scale(c)
    alpha = data.draw(st.sampled_from(rs.all_roots()))
    assert n_pairing(rs, xi, alpha).denominator == 1


ALL_TYPES = [str(t) for t in sweep_types(8)]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_n_pairing_matches_inner_product_reference(name):
    # Reference route: 2(xi, alpha)/(alpha, alpha), both from inner_product;
    # (xi, alpha) is expanded bilinearly over the simple roots.
    rs = build_root_system(SimpleType.parse(name))
    simple = [Weight(rs.simple_root(j).coeffs) for j in range(1, rs.rank + 1)]
    gram = [[inner_product(rs, xi, s) for s in simple] for xi in rs.weights]
    for alpha in rs.all_roots():
        aw = Weight(alpha.coeffs)
        length = inner_product(rs, aw, aw)
        assert rs.root_length_sq(alpha) == length
        for xi, row in zip(rs.weights, gram):
            pairing = sum(k * g for k, g in zip(alpha.coeffs, row))
            assert n_pairing(rs, xi, alpha) == 2 * pairing / length


@pytest.mark.parametrize("name", ALL_TYPES)
def test_integer_weights_invert_cartan_matrix(name):
    # The fraction-free inverse against the independent Fraction elimination.
    rs = build_root_system(SimpleType.parse(name))
    inv = [list(w.coords) for w in rs.weights]
    assert inv == inverse(rs.cartan)
    r = rs.rank
    for i in range(r):
        for j in range(r):
            assert sum(rs.cartan[i][k] * inv[k][j] for k in range(r)) == (i == j)
    for row in inv:
        for c in row:
            assert type(c) is (int if Q(c).denominator == 1 else Q)


@pytest.mark.parametrize("name", ["E8", "F4", "G2"])
def test_unimodular_weights_are_plain_ints(name):
    rs = build_root_system(SimpleType.parse(name))
    assert all(type(c) is int for w in rs.weights for c in w.coords)


def test_exact_div_refuses_a_remainder_explicitly():
    # An explicit raise, not an assert, so ``python -O`` cannot floor it.
    assert exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_int_key_closure_matches_the_tuple_walk(name):
    # The same positive roots in the same order as the closure on tuples, and
    # the same pairings, coroots and squared lengths as read from A directly.
    stype = SimpleType.parse(name)
    rs = build_root_system(stype)
    assert [r.coeffs for r in rs.positive_roots] == tuple_walk_positive_roots(stype)
    assert len(rs.pairings) == len(rs.positive_roots)
    for root, pairing in zip(rs.positive_roots, rs.pairings):
        want_pairing, coroot, lensq = root_data(rs.cartan, rs.d, root.coeffs)
        assert pairing == want_pairing
        assert rs.coroot(root) == coroot and rs.root_length_sq(root) == lensq
        assert rs.coroot(-root) == tuple(-c for c in coroot) and rs.root_length_sq(-root) == lensq
        assert all(type(c) is int for c in (*pairing, *rs.coroot(root)))


def test_weights_and_grading_element_are_built_on_first_read():
    from parakahler.gradation import CrossingSet, grade_from_crossing

    rs = build_root_system(SimpleType("E", 8))
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert "cartan_inverse" not in vars(rs) and "grading_element" not in vars(g)
    assert g.grading_element == (4, 5, 7, 10, 8, 6, 4, 2)  # the first column of A^-1
    assert "cartan_inverse" in vars(rs) and rs.cartan_inverse[1] == 1  # det A = 1
    assert rs.weights[0].coords == (4, 5, 7, 10, 8, 6, 4, 2)  # A is symmetric


# Two orthogonal simple roots: both are highest, of height 1.
_SPLIT = """
import pytest
from parakahler import rootsys
rootsys.cartan_matrix = lambda stype: ((2, 0), (0, 2))
rootsys._POSITIVE_COUNTS["A"] = lambda r: 2
with pytest.raises(AssertionError, match=r"^highest root of A2 is not unique$"):
    rootsys.build_root_system(rootsys.SimpleType("A", 2))
print("raised")
"""


def test_a_second_highest_root_raises(monkeypatch):
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda stype: ((2, 0), (0, 2)))
    monkeypatch.setitem(rootsys._POSITIVE_COUNTS, "A", lambda r: 2)
    with pytest.raises(AssertionError, match=r"^highest root of A2 is not unique$"):
        build_root_system(SimpleType("A", 2))


def test_a_second_highest_root_raises_under_optimize():
    # An explicit raise, not an assert, so ``python -O`` keeps it.
    src = os.path.dirname(os.path.dirname(rootsys.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", _SPLIT], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
