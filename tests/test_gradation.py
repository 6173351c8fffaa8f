from fractions import Fraction as Q

import pytest

from parakahler.chevalley import cartan_element, bracket, root_vector
from parakahler.errors import ConfigError, DomainError
from parakahler.gradation import (
    CrossingSet,
    Gradation,
    SatakeDiagram,
    catalog_lookup,
    catalog_names,
    enumerate_crossings,
    grade_from_crossing,
    gradation_for_diagram,
    orbit_dimension,
    parse_diagram_config,
    satake_violations,
)
from parakahler.rootsys import Root, SimpleType, build_root_system
from parakahler.verify import sweep_types
from reference import degrees, is_fundamental, regraded


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


def test_depth_is_read_from_the_degrees(algebra):
    # A2 {1,2} has degrees (1, 1, 2) on (a1, a2, a1+a2): a directly built
    # gradation and an edited copy read their depth off the degrees.
    rs, _ = algebra("A2")
    g = Gradation(rs, CrossingSet.of(1, 2), (1, 1, 2))
    assert g.depth == 2
    assert regraded(g, {Root((1, 1)): 3}).depth == 3


def test_regraded_refuses_a_negative_root(algebra):
    rs, _ = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    with pytest.raises(ValueError, match=r"^-1a1 is not a positive root"):
        regraded(g, {Root((-1, 0)): 0})


def test_half_vector_readers_match_an_all_roots_walk():
    # Each reader of the positive degrees against the crossed coefficient sum
    # of every root of all_roots(), on every gradation of rank <= 4.
    for stype in sweep_types(4):
        rs = build_root_system(stype)
        roots = rs.all_roots()
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            want = [sum(r.coeffs[i - 1] for i in crossing.crossed) for r in roots]
            where = (stype, crossing)
            assert [g.degree(r) for r in roots] == want, where
            assert g.signed_degrees == tuple(want) and g.signed_degrees is g.signed_degrees, where
            assert [g.ksign(r) for r in roots] == [(d > 0) - (d < 0) for d in want], where
            assert g.depth == max(want), where
            m = g.nonzero_roots()
            assert m == tuple(r for r, d in zip(roots, want) if d), where
            assert {id(r) for r in m} <= {id(r) for r in roots}, where  # the cached objects
            for p in range(-g.depth, g.depth + 1):
                assert g.roots_of_degree(p) == tuple(r for r, d in zip(roots, want) if d == p)
            assert orbit_dimension(g) == 2 * len(g.nonzero_positive()) == len(m), where


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


def test_grading_element_is_int_where_integral(algebra):
    rs, _ = algebra("E6")
    d = grade_from_crossing(rs, CrossingSet.of(1, 4, 6)).grading_element
    assert d == (4, 5, 7, 10, 7, 4) and all(type(c) is int for c in d)
    # alpha_i(d) = 1 on the crossed nodes and 0 elsewhere.
    assert [sum(c * row[i] for c, row in zip(d, rs.cartan)) for i in range(6)] == [
        1, 0, 0, 1, 0, 1,
    ]
    rs2, _ = algebra("A2")  # d = (2/3, 1/3): alpha_1(d) = 1, alpha_2(d) = 0
    d2 = grade_from_crossing(rs2, CrossingSet.of(1)).grading_element
    assert d2 == (Q(2, 3), Q(1, 3))


def _fundamental_by_degree(g) -> bool:
    """Reference: a table degree -> roots, and a degree-1 split for each degree >= 2."""
    by_degree, degree_of = {}, degrees(g)
    for root, d in degree_of.items():
        by_degree.setdefault(d, set()).add(root)
    return all(
        any(root - one in by_degree.get(d - 1, ()) for one in by_degree.get(1, ()))
        for root, d in degree_of.items()
        if d >= 2
    )


def test_is_fundamental_matches_by_degree_reference():
    # Every crossing of every type of rank <= 5, as graded and with its first
    # degree-1 root moved to degree 0, which breaks some splits but not all.
    verdicts = set()
    for stype in sweep_types(5):
        rs = build_root_system(stype)
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            assert is_fundamental(g) and _fundamental_by_degree(g), (stype, crossing)
            one = next(r for r in rs.positive_roots if g.degree(r) == 1)
            edited = regraded(g, {one: 0})
            verdicts.add(is_fundamental(edited))
            assert is_fundamental(edited) == _fundamental_by_degree(edited), (stype, crossing)
    assert verdicts == {True, False}


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
    assert not satake_violations(diagram, CrossingSet.of(2))
    assert satake_violations(diagram, CrossingSet.of(1))
    reasons = satake_violations(diagram, CrossingSet.of(1))
    assert "black node 1" in reasons[0]


def test_satake_split_forms_vacuous():
    diagram = catalog_lookup("sl4R")
    for crossing in enumerate_crossings(3):
        assert not satake_violations(diagram, crossing)
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
    assert not satake_violations(diagram, CrossingSet.of(1, 3))
    assert not satake_violations(diagram, CrossingSet.of(2))
    assert satake_violations(diagram, CrossingSet.of(1))


def test_diagram_config_parsing():
    diagram = parse_diagram_config(
        """
        # su(2,2)-like decoration
        type = a
        rank = 3
        black =
        arrows = 1-3
        """
    )
    assert diagram.type == SimpleType("A", 3)
    assert diagram.arrows == frozenset({(1, 3)})
    assert diagram.black == frozenset()
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


def test_nonzero_roots_put_each_negative_half_way_along():
    # m[k:] = -m[:k], element by element, on every crossing of rank <= 8:
    # the Einstein metric pairs alpha = m[a] with m[a + k] by position.
    for stype in sweep_types(8):
        rs = build_root_system(stype)
        for crossing in enumerate_crossings(rs.rank):
            m = grade_from_crossing(rs, crossing).nonzero_roots()
            k = len(m) // 2
            assert len(m) == 2 * k, (stype, crossing)
            for alpha, beta in zip(m[:k], m[k:]):
                assert alpha.is_positive and beta == -alpha, (stype, crossing, alpha)
