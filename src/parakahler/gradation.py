"""Fundamental gradations from crossed diagrams, plus Satake-diagram data.

A nonempty subset of simple-root nodes (the crossing set) grades the algebra
by deg(alpha) = sum of the crossed coefficients of alpha.  The grading
element d is the Cartan element with alpha_i(d) = 1 on crossed nodes and 0
elsewhere.  A Satake diagram (black nodes + arrows) is consistent with a
crossing set iff no black node is crossed and arrow-linked nodes are crossed
together.
"""

from __future__ import annotations

import os
from fractions import Fraction as Q
from functools import cache, cached_property
from itertools import combinations
from pathlib import Path

from .config import Fields, integer, nodes
from .errors import DomainError
from .rootsys import Root, RootSystem, SimpleType, build_root_system, ratio


class CrossingSet:
    """Crossed simple-root nodes, 1-based.  Immutable by convention."""

    def __init__(self, crossed: frozenset[int]) -> None:
        if not crossed:
            raise DomainError(
                "crossing set is empty: the gradation would be trivial and "
                "carry no symplectic form"
            )
        if not all(isinstance(i, int) and i >= 1 for i in crossed):
            raise DomainError("crossing nodes must be positive integers")
        self.crossed = crossed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.crossed == other.crossed

    def __hash__(self) -> int:
        return hash(self.crossed)

    @staticmethod
    def of(*nodes: int) -> "CrossingSet":
        return CrossingSet(frozenset(nodes))

    def sorted(self) -> list[int]:
        return sorted(self.crossed)


class Gradation:
    """A fundamental gradation: the degree of each positive root, grading element.

    ``root_degrees`` holds the degree of each root of ``rs.positive_roots`` by
    position, the same shape as ``TwoForm.coeffs``.  The degree of -alpha is
    -deg(alpha) by definition, so m is closed under negation and K gives
    X_alpha and X_-alpha opposite signs.  ``degree``, ``ksign`` and ``depth``
    are readers of it; the grading element is built on first read.  Immutable
    by convention, and unhashable.
    """

    __hash__ = None

    def __init__(self, rs: RootSystem, crossing: CrossingSet,
                 root_degrees: tuple[int, ...]) -> None:
        n, count = len(root_degrees), len(rs.positive_roots)
        if n != count:
            lacking = f": {rs.positive_roots[n]} has no degree" if n < count else ""
            raise DomainError(f"{n} degrees for the {count} positive roots of {rs.type}{lacking}")
        self.rs, self.crossing, self.root_degrees = rs, crossing, root_degrees

    @property
    def depth(self) -> int:
        return max(self.root_degrees)

    @cached_property
    def grading_element(self) -> tuple[Q | int, ...]:
        """d over the H_i with alpha_i(d) = [i crossed]: the crossed columns of A^-1, summed."""
        m, det = self.rs.cartan_inverse
        return tuple(ratio(sum(row[i - 1] for i in self.crossing.crossed), det) for row in m)

    def degree(self, root: Root) -> int:
        try:
            p = self.rs.positions[root.coeffs]
        except KeyError:
            raise DomainError(f"{root} has no degree in this gradation of {self.rs.type}") from None
        return self.signed_degrees[p]

    def ksign(self, root: Root) -> int:
        """The para-complex structure on root vectors: sign of the degree."""
        return ((d := self.degree(root)) > 0) - (d < 0)

    @cached_property
    def signed_degrees(self) -> tuple[int, ...]:
        """The degree of each root of ``rs.all_roots()``: the positive half, then its negation."""
        return (*self.root_degrees, *(-d for d in self.root_degrees))

    def roots_of_degree(self, p: int) -> tuple[Root, ...]:
        return tuple(r for r, d in zip(self.rs.all_roots(), self.signed_degrees) if d == p)

    def zero_degree_positive(self) -> tuple[Root, ...]:
        """R0+: positive roots spanning the semisimple part of g_0."""
        return tuple(r for r, d in zip(self.rs.positive_roots, self.root_degrees) if d == 0)

    def nonzero_positive(self) -> tuple[Root, ...]:
        return tuple(r for r, d in zip(self.rs.positive_roots, self.root_degrees) if d)

    def nonzero_roots(self) -> tuple[Root, ...]:
        """Roots of m in canonical order: positive roots, then their negatives in that order."""
        return tuple(r for r, d in zip(self.rs.all_roots(), self.signed_degrees) if d)


def crossed_sums(rs: RootSystem, crossing: CrossingSet) -> tuple[int, ...]:
    """The sum of the crossed coefficients of each root of ``rs.positive_roots``, by position."""
    columns = tuple(zip(*(r.coeffs for r in rs.positive_roots)))
    return tuple(map(sum, zip(*(columns[i - 1] for i in crossing.sorted()))))


def grade_from_crossing(rs: RootSystem, crossing: CrossingSet) -> Gradation:
    """Grade the root system by the crossed coefficients."""
    if max(crossing.crossed) > rs.rank:
        raise DomainError(f"crossed node {max(crossing.crossed)} exceeds rank {rs.rank}")
    return Gradation(rs=rs, crossing=crossing, root_degrees=crossed_sums(rs, crossing))


def orbit_dimension(g: Gradation) -> int:
    """Dimension of the adjoint orbit: the number of nonzero-degree roots."""
    return len(g.nonzero_roots())


def unsplit_root(g: Gradation) -> Root | None:
    """The first root of degree p >= 2 that splits off no degree-1 root, or None.

    With none, and antisymmetry, g_{+-1} generates the nilpotent parts, which
    holds for every crossing-set gradation; kept as a runtime check rather
    than an assumption.  It walks the positive roots and ``rs.positive_keys``:
    with deg(-alpha) = -deg(alpha), they hold every root of degree >= 1 of a
    crossing-set gradation.  Roots are compared by their int weight keys,
    which tell apart every difference of two roots.
    """
    keys, deg = g.rs.positive_keys, g.root_degrees
    degree_of = dict(zip(keys, deg))
    ones = [k for k, d in zip(keys, deg) if d == 1]
    for root, k, d in zip(g.rs.positive_roots, keys, deg):
        if d >= 2 and not any(degree_of.get(k - one) == d - 1 for one in ones):
            return root
    return None


def enumerate_crossings(rank: int) -> list[CrossingSet]:
    """All 2^rank - 1 nonempty crossing sets, in deterministic order."""
    out = []
    for size in range(1, rank + 1):
        for combo in combinations(range(1, rank + 1), size):
            out.append(CrossingSet(frozenset(combo)))
    return out


# -- Satake diagrams ----------------------------------------------------------


class SatakeDiagram:
    """Dynkin diagram with black nodes and arrows (pairs one involution swaps).

    Immutable by convention.
    """

    def __init__(self, type: SimpleType, black: frozenset[int],
                 arrows: frozenset[tuple[int, int]]) -> None:
        rank = type.rank
        for i in black:
            if not 1 <= i <= rank:
                raise DomainError(f"black node {i} out of range for {type}")
        for pair in arrows:
            i, j = pair
            if i == j or not (1 <= i <= rank and 1 <= j <= rank):
                raise DomainError(f"bad arrow {pair} for {type}")
            if i in black or j in black:
                raise DomainError(f"arrow {pair} touches a black node")
        pairs = {tuple(sorted(p)) for p in arrows}
        if pairs and not any(pairs <= swap for swap in _diagram_involutions(type)):
            raise DomainError(
                f"arrows {sorted(pairs)} are not one involution of {type}"
            )
        self.type, self.black, self.arrows = type, black, arrows

    @staticmethod
    def make(stype: SimpleType, black=(), arrows=()) -> "SatakeDiagram":
        normal = frozenset(tuple(sorted(p)) for p in arrows)
        return SatakeDiagram(stype, frozenset(black), normal)


def _diagram_involutions(stype: SimpleType) -> list[set[tuple[int, int]]]:
    """Nontrivial involutions of the Dynkin diagram, each as its swapped pairs."""
    r = stype.rank
    return {  # D4 has three, one per pair of outer nodes
        "A": [{(i, r + 1 - i) for i in range(1, r // 2 + 1)}],
        "D": [{p} for p in ((1, 3), (1, 4), (3, 4))] if r == 4 else [{(r - 1, r)}],
        "E": [{(1, 6), (3, 5)}] if r == 6 else [],
    }.get(stype.family, [])


def satake_violations(diagram: SatakeDiagram, crossing: CrossingSet) -> list[str]:
    """Human-readable reasons the crossing set is inconsistent, if any."""
    if max(crossing.crossed) > diagram.type.rank:
        raise DomainError(
            f"crossed node {max(crossing.crossed)} exceeds rank of {diagram.type}"
        )
    problems = []
    for i in sorted(diagram.black & crossing.crossed):
        problems.append(f"condition (i): black node {i} is crossed")
    for i, j in sorted(diagram.arrows):
        if (i in crossing.crossed) != (j in crossing.crossed):
            problems.append(
                f"condition (ii): arrow {i}-{j} links a crossed and an "
                f"uncrossed node"
            )
    return problems


@cache
def _builtin_catalog() -> dict[str, SatakeDiagram]:
    """The built-in diagrams by name, built on first lookup."""
    cat: dict[str, SatakeDiagram] = {}

    def split(name: str, stype: SimpleType) -> None:
        cat[name] = SatakeDiagram.make(stype)

    for rank in range(1, 9):
        split(f"sl{rank + 1}R", SimpleType("A", rank))
        split(f"a{rank}split", SimpleType("A", rank))
    for rank in range(2, 5):
        split(f"b{rank}split", SimpleType("B", rank))
        split(f"c{rank}split", SimpleType("C", rank))
    for rank in range(3, 5):
        split(f"d{rank}split", SimpleType("D", rank))
    split("g2split", SimpleType("G", 2))
    split("f4split", SimpleType("F", 4))
    # su*(4) = sl(2, H): compact end nodes on the A3 diagram.
    cat["sl2H"] = SatakeDiagram.make(SimpleType("A", 3), black=(1, 3))
    cat["su*4"] = cat["sl2H"]
    return cat


CATALOG_ENV = "PARAKAHLER_CATALOG"


def catalog_names() -> list[str]:
    return sorted(_builtin_catalog())


def catalog_lookup(name: str) -> SatakeDiagram:
    """Find a diagram by name, preferring files in $PARAKAHLER_CATALOG."""
    if ".." in name or "/" in name or os.sep in name:
        raise DomainError(f"Satake diagram name {name!r} must not contain a path")
    directory = os.environ.get(CATALOG_ENV)
    if directory:
        for candidate in (Path(directory) / name, Path(directory) / f"{name}.satake"):
            if candidate.is_file():
                return parse_diagram_config(candidate.read_text())
    try:
        return _builtin_catalog()[name]
    except KeyError:
        raise DomainError(f"unknown Satake diagram {name!r}") from None


def parse_diagram_config(text: str) -> SatakeDiagram:
    """Parse line-oriented ``key = value`` diagram text.

    Keys: ``type`` (family letter), ``rank``, ``black`` (node list) and ``arrows``
    (pairs like ``1-6, 3-5``); nodes are 1-based.  Unknown keys are errors.
    """
    fields = Fields(text, ("type", "rank", "black", "arrows"), required=("type", "rank"))
    stype = SimpleType(fields.get("type").upper(), fields.get("rank", integer))
    arrows = fields.get("arrows", lambda value, where: nodes(value, where, pairs=True), ())
    return SatakeDiagram.make(stype, black=fields.get("black", nodes, ()), arrows=arrows)


def gradation_for_diagram(
    diagram: SatakeDiagram, crossing: CrossingSet
) -> Gradation:
    """Grade the complexification after checking Satake consistency."""
    problems = satake_violations(diagram, crossing)
    if problems:
        raise DomainError(
            f"crossing {sorted(crossing.crossed)} is inconsistent with the "
            f"Satake diagram: " + "; ".join(problems)
        )
    return grade_from_crossing(build_root_system(diagram.type), crossing)
