"""Value semantics of the package's plain classes: equal for the same class with
equal fields, hashes that agree, and the cases that stay unhashable."""

from fractions import Fraction as Q

import pytest

from parakahler.chevalley import AlgebraElement, BasisIndex
from parakahler.gradation import CrossingSet, grade_from_crossing
from parakahler.rootsys import Root, RootSystem, SimpleType, Weight, build_root_system


@pytest.mark.parametrize("make, other", [
    (lambda: Root((1, 0)), Root((0, 1))),
    (lambda: Weight((Q(1, 2), 0)), Weight((Q(1, 2), 1))),
    (lambda: SimpleType("B", 3), SimpleType("C", 3)),
    (lambda: CrossingSet.of(1, 3), CrossingSet.of(1)),
    (lambda: BasisIndex.X(Root((1, 0))), BasisIndex.X(Root((0, 1)))),
    (lambda: BasisIndex.H(1), BasisIndex.H(2)),
], ids=["Root", "Weight", "SimpleType", "CrossingSet", "BasisIndex.X", "BasisIndex.H"])
def test_equal_fields_give_equal_values_and_hashes(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2


def test_values_of_different_classes_differ():
    assert Root((1, 0)) != Weight((1, 0)) and Weight((1, 0)) != Root((1, 0))
    assert len({Root((1, 0)), Weight((1, 0))}) == 2
    assert Root((1, 0)) != (1, 0) and CrossingSet.of(1) != frozenset({1})
    assert BasisIndex.H(1) != ("H", 1, None)


def test_root_systems_ignore_pairings_and_keys():
    rs = build_root_system(SimpleType("B", 3))
    bare = RootSystem(rs.type, rs.cartan, rs.d, rs.positive_roots, pairings=(), positive_keys=())
    assert bare == rs and hash(bare) == hash(rs)
    assert rs != build_root_system(SimpleType("C", 3))


def test_algebra_element_drops_zero_coefficients_into_its_own_dict():
    coords = {0: 0, 1: 2, 3: Q(0)}
    x = AlgebraElement(coords)
    coords[1] = 5
    assert x.coords == {1: 2} and x == AlgebraElement({1: 2, 2: 0})
    assert (x + AlgebraElement({1: -2})).coords == {}


def test_gradations_and_algebra_elements_are_unhashable():
    g = grade_from_crossing(build_root_system(SimpleType("A", 2)), CrossingSet.of(1))
    for value in (g, AlgebraElement({0: 1})):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
