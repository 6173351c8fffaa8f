import pytest

from parakahler.chevalley import cartan_element, bracket, root_vector
from parakahler.errors import ConfigError, DomainError
from parakahler.gradation import (
    CrossingSet,
    SatakeDiagram,
    catalog_lookup,
    catalog_names,
    enumerate_crossings,
    grade_from_crossing,
    gradation_for_diagram,
    is_fundamental,
    orbit_dimension,
    parse_diagram_config,
    satake_consistent,
    satake_violations,
)
from parakahler.rootsys import Root, SimpleType


def test_empty_crossing_rejected():
    with pytest.raises(DomainError):
        CrossingSet(frozenset())


def test_crossing_out_of_range(algebra):
    rs, _ = algebra("A2")
    with pytest.raises(DomainError):
        grade_from_crossing(rs, CrossingSet.of(3))


def test_g2_depths_and_degrees(algebra):
    rs, _ = algebra("G2")
    g1 = grade_from_crossing(rs, CrossingSet.of(1))
    assert g1.depth == 3
    assert g1.degree(Root((3, 2))) == 3
    assert orbit_dimension(g1) == 10

    g12 = grade_from_crossing(rs, CrossingSet.of(1, 2))
    assert g12.depth == 5
    assert g12.degree(Root((3, 2))) == 5
    assert orbit_dimension(g12) == 12

    g2 = grade_from_crossing(rs, CrossingSet.of(2))
    assert orbit_dimension(g2) == 10


def test_a1_three_term_gradation(algebra):
    rs, _ = algebra("A1")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert g.depth == 1
    assert [g.degree(r) for r in rs.all_roots()] == [1, -1]


def test_orbit_dimension_a_series(algebra):
    # Block formula (l+1)^2 - sum (i_k - i_{k-1})^2 for A_l.
    rs, _ = algebra("A3")
    g = grade_from_crossing(rs, CrossingSet.of(2))
    assert orbit_dimension(g) == 16 - (4 + 4)

    rs2, _ = algebra("A2")
    g2 = grade_from_crossing(rs2, CrossingSet.of(1, 2))
    assert orbit_dimension(g2) == 9 - 3


def test_grading_element_acts_by_degree(algebra):
    rs, L = algebra("G2")
    for crossing in enumerate_crossings(2):
        g = grade_from_crossing(rs, crossing)
        d = cartan_element(L, g.grading_element)
        for root in rs.all_roots():
            x = root_vector(L, root)
            assert bracket(L, d, x) == x.scale(g.degree(root))


def test_bracket_respects_degrees(algebra):
    rs, L = algebra("B2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    for a in rs.all_roots():
        for b in rs.all_roots():
            s = a + b
            if rs.is_root(s) and any(s.coeffs):
                assert g.degree(s) == g.degree(a) + g.degree(b)


def test_mplus_generated_by_degree_one(algebra):
    # Constructive fundamentality: iterated brackets of g_1 span each g_p.
    rs, L = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert is_fundamental(g)
    reached = {r for r in rs.positive_roots if g.degree(r) == 1}
    for p in range(2, g.depth + 1):
        layer = set()
        for a in reached:
            for b in (r for r in rs.positive_roots if g.degree(r) == 1):
                s = a + b
                if rs.is_root(s) and g.degree(s) == p:
                    x = bracket(L, root_vector(L, a), root_vector(L, b))
                    if x.coords:
                        layer.add(s)
        assert layer == {r for r in rs.positive_roots if g.degree(r) == p}
        reached |= layer


def test_enumerate_crossings_count():
    assert len(enumerate_crossings(4)) == 15
    assert len({frozenset(c.crossed) for c in enumerate_crossings(4)}) == 15


# -- Satake ---------------------------------------------------------------------


def test_satake_consistency_sl2h():
    diagram = catalog_lookup("sl2H")
    assert diagram.black == frozenset({1, 3})
    assert satake_consistent(diagram, CrossingSet.of(2))
    assert not satake_consistent(diagram, CrossingSet.of(1))
    reasons = satake_violations(diagram, CrossingSet.of(1))
    assert "black node 1" in reasons[0]


def test_satake_split_forms_vacuous():
    diagram = catalog_lookup("sl4R")
    for crossing in enumerate_crossings(3):
        assert satake_consistent(diagram, crossing)
    assert catalog_lookup("g2split").black == frozenset()


def test_catalog_contents():
    names = catalog_names()
    for required in ["sl2R", "sl9R", "b4split", "c4split", "d4split",
                     "g2split", "f4split", "sl2H"]:
        assert required in names
    with pytest.raises(DomainError):
        catalog_lookup("nonsense")


def test_catalog_env_override(tmp_path, monkeypatch):
    (tmp_path / "myform.satake").write_text(
        "type = A\nrank = 3\nblack = 1, 3\narrows =\n"
    )
    monkeypatch.setenv("PARAKAHLER_CATALOG", str(tmp_path))
    diagram = catalog_lookup("myform")
    assert diagram.black == frozenset({1, 3})


def test_arrow_consistency():
    diagram = SatakeDiagram.make(SimpleType("A", 3), arrows=[(1, 3)])
    assert satake_consistent(diagram, CrossingSet.of(1, 3))
    assert satake_consistent(diagram, CrossingSet.of(2))
    assert not satake_consistent(diagram, CrossingSet.of(1))


def test_diagram_config_parsing():
    diagram, crossing = parse_diagram_config(
        """
        # su(2,2)-like decoration
        type = a
        rank = 3
        black =
        arrows = 1-3
        crossed = 2
        """
    )
    assert diagram.type == SimpleType("A", 3)
    assert diagram.arrows == frozenset({(1, 3)})
    assert crossing == CrossingSet.of(2)
    with pytest.raises(ConfigError):
        parse_diagram_config("rank = 3")
    with pytest.raises(ConfigError):
        parse_diagram_config("type = A\nrank = x")
    with pytest.raises(ConfigError):
        parse_diagram_config("type = A\nrank = 3\narrows = 1:3")
    with pytest.raises(ConfigError, match="line 3: unknown key 'arrow'"):
        parse_diagram_config("type = A\nrank = 3\narrow = 1-3\n")


def test_gradation_for_diagram_rejects_inconsistent():
    diagram = catalog_lookup("sl2H")
    with pytest.raises(DomainError, match="black node"):
        gradation_for_diagram(diagram, CrossingSet.of(1))
    g = gradation_for_diagram(diagram, CrossingSet.of(2))
    assert orbit_dimension(g) == 8


def test_catalog_lookup_rejects_paths(tmp_path, monkeypatch):
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    (tmp_path / "outside.satake").write_text("type = A\nrank = 3\n")
    (catalog / "inside.satake").write_text("type = A\nrank = 3\n")
    monkeypatch.setenv("PARAKAHLER_CATALOG", str(catalog))
    for name in ("../outside", str(tmp_path / "outside"), "sub/inside", ".."):
        with pytest.raises(DomainError, match="path"):
            catalog_lookup(name)
    assert catalog_lookup("inside").type == SimpleType("A", 3)


@pytest.mark.parametrize(
    "name, arrows",
    [("A3", [(1, 3)]), ("A5", [(1, 5), (2, 4)]), ("A5", [(2, 4)]), ("D3", [(2, 3)]),
     ("D4", [(1, 3)]), ("D4", [(3, 4)]), ("D5", [(4, 5)]), ("E6", [(1, 6), (3, 5)])],
)
def test_arrows_of_one_diagram_involution_accepted(name, arrows):
    diagram = SatakeDiagram.make(SimpleType.parse(name), arrows=arrows)
    assert diagram.arrows == frozenset(arrows)


@pytest.mark.parametrize(
    "name, arrows",
    [("G2", [(1, 2)]), ("A3", [(1, 2)]), ("A4", [(1, 3)]), ("B3", [(1, 3)]),
     ("D4", [(1, 3), (1, 4)]), ("D5", [(1, 2)]), ("E6", [(1, 6), (2, 4)]),
     ("E7", [(1, 7)]), ("F4", [(1, 4)])],
)
def test_arrows_outside_diagram_involutions_rejected(name, arrows):
    with pytest.raises(DomainError, match="involution"):
        SatakeDiagram.make(SimpleType.parse(name), arrows=arrows)
