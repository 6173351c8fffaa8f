"""Exact root systems for the complex simple Lie algebras A-G.

Conventions, fixed once and used everywhere:

* Cartan matrix ``A[i][j] = <alpha_i, alpha_j^v> = 2(alpha_i,alpha_j)/(alpha_j,alpha_j)``
  with Bourbaki node numbering.  For G2 this gives A = [[2,-1],[-3,2]] and
  fundamental weights pi_1 = 2a1+a2, pi_2 = 3a1+2a2.
* The invariant inner product is normalized so short roots have squared
  length 2; the symmetrizers d_i = (alpha_i,alpha_i)/2 make D*A symmetric.
  Only ratios of inner products enter any result downstream.
* Positive roots are ordered by height, then so that lower-index simple
  roots come first (descending lexicographic on coefficient vectors).
  Rebuilding a root system is bit-identical.

``build_root_system`` runs one closure on int keys and keeps each positive
root's pairings <beta, alpha_j^v> by position; ``coroot`` (H_alpha over the
H_i) and ``root_length_sq`` are read from them, and ``n_pairing`` is xi(H_alpha).
The fundamental weights (A^-1) are built on first read.  All arithmetic is
exact: ints wherever a value is an integer, ``fractions.Fraction`` for the rest.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property
from operator import add, mul

from .errors import DomainError

FAMILIES = frozenset("ABCDEFG")

_RANK_RULES = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (3, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# Classical positive-root counts, used as a closure cross-check.
_POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


class SimpleType:
    """A simple Lie algebra type: family letter plus rank.  Immutable by convention."""

    def __init__(self, family: str, rank: int) -> None:
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}")
        lo, hi = _RANK_RULES[family]
        if not (isinstance(rank, int) and lo <= rank <= hi):
            raise DomainError(
                f"invalid rank {rank} for family {family} "
                f"(allowed {lo}..{hi})"
            )
        self.family, self.rank = family, rank

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.rank) == (other.family, other.rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    @staticmethod
    def parse(text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise DomainError(f"cannot parse simple type from {text!r}")
        return SimpleType(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class Root:
    """A root written as an integer vector over the simple roots.  Immutable by convention."""

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    @cached_property
    def label(self) -> str:
        """``format_coeffs`` of the coefficients, formatted once per root."""
        return format_coeffs(self.coeffs)

    def __str__(self) -> str:
        return self.label


class Weight:
    """A rational vector in simple-root coordinates (ints when integral).

    Immutable by convention.
    """

    def __init__(self, coords: tuple[Q | int, ...]) -> None:
        self.coords = coords

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    @staticmethod
    def zero(rank: int) -> "Weight":
        return Weight((0,) * rank)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, factor) -> "Weight":
        return Weight(tuple(factor * c for c in self.coords))

    def __str__(self) -> str:
        return format_coeffs(self.coords)


def format_coeffs(coeffs, symbol: str = "a") -> str:
    """Render a coefficient vector as e.g. ``2a1+1a2`` (zero terms dropped)."""
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(c)}{symbol}{i}")
    return "".join(parts) if parts else "0"


def cartan_matrix(stype: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A[i][j] = <alpha_i, alpha_j^v>, Bourbaki numbering."""
    r = stype.rank
    a = [[2 * int(i == j) for j in range(r)] for i in range(r)]

    def join(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    fam = stype.family
    if fam in "ABCF":
        for i in range(r - 1):
            join(i, i + 1)
        if fam == "B":
            join(r - 2, r - 1, -2, -1)  # alpha_r short
        elif fam == "C":
            join(r - 2, r - 1, -1, -2)  # alpha_r long
        elif fam == "F":
            join(1, 2, -2, -1)  # alpha_3, alpha_4 short
    elif fam == "D":
        for i in range(r - 3):
            join(i, i + 1)
        join(r - 3, r - 2)
        join(r - 3, r - 1)
    elif fam == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)  # node 2 hangs off node 4
    elif fam == "G":
        join(0, 1, -1, -3)  # alpha_1 short
    return tuple(tuple(row) for row in a)


def _symmetrizers(cartan) -> tuple[int, ...]:
    """Integers d_i with d_i = (alpha_i,alpha_i)/2 and min d_i = 1."""
    r = len(cartan)
    # Squared lengths differ by a factor 1, 2 or 3: from 6 every step is exact.
    d: list[int | None] = [6] + [None] * (r - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if i != j and cartan[i][j] and d[j] is None:
                # (alpha_i,alpha_j) symmetric: A[i][j] d_j = A[j][i] d_i
                d[j] = exact_div(d[i] * cartan[j][i], cartan[i][j])
                stack.append(j)
    if None in d:
        raise DomainError("Dynkin diagram is not connected")
    return tuple(exact_div(v, min(d)) for v in d)


class RootSystem:
    """Root data of a simple type: Cartan matrix, positive roots, their pairings.

    Two root systems are equal when their type, Cartan matrix, symmetrizers and
    positive roots are; ``pairings`` and ``positive_keys`` follow from those.
    Immutable by convention.
    """

    def __init__(self, type: SimpleType, cartan: tuple[tuple[int, ...], ...], d: tuple[int, ...],
                 positive_roots: tuple[Root, ...], pairings: tuple[tuple[int, ...], ...],
                 positive_keys: tuple[int, ...]) -> None:
        self.type, self.cartan, self.d, self.positive_roots = type, cartan, d, positive_roots
        # By position over the positive roots: <beta, alpha_j^v> over j, and the int key.
        self.pairings, self.positive_keys = pairings, positive_keys

    def _compared(self) -> tuple:
        return self.type, self.cartan, self.d, self.positive_roots

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    @property
    def rank(self) -> int:
        return self.type.rank

    def is_root(self, root: Root) -> bool:
        return root.coeffs in self.positions

    def all_roots(self) -> tuple[Root, ...]:
        """Positive roots in canonical order, then their negatives."""
        return self._all_roots

    @cached_property
    def _all_roots(self) -> tuple[Root, ...]:
        return self.positive_roots + tuple(-r for r in self.positive_roots)

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        return Root(tuple(int(j == i - 1) for j in range(self.rank)))

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    @cached_property
    def keys(self) -> tuple[int, ...]:
        """The key sum_k c_k 32^(r-1-k) of each root of ``all_roots()``, k from 0.

        Keys add like weights and tell apart all x + y and x - y, x, y in R + {0}:
        two of those differ by a d with |d_k| <= 4 * 6 < 32 (no root coefficient
        exceeds 6), and sum_k d_k 32^(r-1-k) = 0 then forces d = 0.
        """
        return self.positive_keys + tuple(-k for k in self.positive_keys)

    @cached_property
    def positive_lengths(self) -> tuple[int, ...]:
        """(alpha, alpha) for each positive root, by position: sum_j k_j d_j <alpha, alpha_j^v>."""
        return tuple(sum(map(mul, map(mul, r.coeffs, self.d), pairing))
                     for r, pairing in zip(self.positive_roots, self.pairings))

    @cached_property
    def positive_coroots(self) -> tuple[tuple[int, ...], ...]:
        """H_alpha = sum_i k_i (2 d_i / (alpha, alpha)) H_i in ints, by position."""
        return tuple(tuple(2 * k * d // n for k, d in zip(r.coeffs, self.d))
                     for r, n in zip(self.positive_roots, self.positive_lengths))

    @cached_property
    def positions(self) -> dict[tuple[int, ...], int]:
        """Root coefficients -> the index of the root in ``all_roots()``."""
        return {r.coeffs: p for p, r in enumerate(self._all_roots)}

    @cached_property
    def cartan_inverse(self) -> tuple[list[list[int]], int]:
        """(M, det) in ints with M = det A^-1, by ``bareiss_inverse`` on first read."""
        return bareiss_inverse(self.cartan)

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        """The fundamental weights: the rows of A^-1, an entry an int where it is one."""
        m, det = self.cartan_inverse
        return tuple(Weight(tuple(ratio(x, det) for x in row)) for row in m)

    def _position(self, root: Root) -> tuple[int, int]:
        """(p, s): root = s times the p-th positive root, s = +-1."""
        p, npos = self.positions.get(root.coeffs), len(self.positive_roots)
        if p is None:
            raise DomainError(f"{root} is not a root of {self.type}")
        return p % npos, 1 if p < npos else -1

    def coroot(self, root: Root) -> tuple[int, ...]:
        """H_alpha as an integer vector over the H_i (negated for -alpha)."""
        p, s = self._position(root)
        return tuple(s * c for c in self.positive_coroots[p])

    def root_length_sq(self, root: Root) -> int:
        """(alpha, alpha), with short roots of squared length 2."""
        return self.positive_lengths[self._position(root)[0]]

    def coroot_pairing(self, xi: Weight, i: int) -> Q | int:
        """xi(H_i) = 2(xi, alpha_i)/(alpha_i, alpha_i), 1-based i; int for int xi."""
        return sum(c * self.cartan[j][i - 1] for j, c in enumerate(xi.coords) if c)


def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct the full root system of a simple type.

    beta + alpha_i is a root iff p > <beta, alpha_i^v>, p the largest k with
    beta - k alpha_i still a positive root.  The closure walks the strings on
    the int keys (``RootSystem.keys``), where alpha_i is 32^(r-1-i): each vector
    it looks up (digits -1..7) has a key of its own.  Each root carries its
    pairings, and beta + alpha_i adds row i of A.  Roots are read in height
    order while the list grows, so all roots below beta are known at beta.
    """
    cartan = cartan_matrix(stype)
    r = stype.rank
    units = [32 ** (r - 1 - i) for i in range(r)]
    keys, pairings = list(units), list(cartan)
    coeffs = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    known = set(keys)
    for beta, c, pairing in zip(keys, coeffs, pairings):  # appended roots are read too
        for i, unit in enumerate(units):
            p, down = 0, beta - unit
            while down in known:
                p, down = p + 1, down - unit
            up = beta + unit
            if p > pairing[i] and up not in known:
                known.add(up)
                keys.append(up)
                coeffs.append(c[:i] + (c[i] + 1,) + c[i + 1:])
                pairings.append(tuple(map(add, pairing, cartan[i])))
    top = 32**r  # above every key: height * top - key orders by height, then descending key
    rank_keys = [sum(c) * top - k for k, c in zip(keys, coeffs)]
    order = sorted(range(len(keys)), key=rank_keys.__getitem__)
    positive = tuple(Root(coeffs[t]) for t in order)

    if len(positive) != (expected := _POSITIVE_COUNTS[stype.family](r)):
        raise AssertionError(f"closure produced {len(positive)} roots for {stype}, not {expected}")
    if len(positive) > 1 and positive[-2].height == positive[-1].height:
        raise AssertionError(f"highest root of {stype} is not unique")

    return RootSystem(
        type=stype,
        cartan=cartan,
        d=_symmetrizers(cartan),
        positive_roots=positive,
        pairings=tuple(pairings[t] for t in order),
        positive_keys=tuple(keys[t] for t in order),
    )


def bareiss_inverse(a) -> tuple[list[list[int]], int]:
    """(M, d) in ints with M = d a^-1 for a square int matrix a, d = +-det(a).

    Fraction-free (Bareiss) Gauss-Jordan on [a | I]: each step divides
    exactly, and the left block ends as d I.  A zero pivot swaps in a lower
    row (a Cartan matrix and a Killing Cartan block need none); a singular a
    raises ZeroDivisionError.
    """
    r = len(a)
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(a)]
    prev = 1
    for k in range(r):
        p = next((i for i in range(k, r) if m[i][k]), None)
        if p is None:
            raise ZeroDivisionError("matrix is singular")
        m[k], m[p] = m[p], m[k]
        top = m[k]
        for i, row in enumerate(m):
            if i != k:
                m[i] = [exact_div(top[k] * x - row[k] * y, prev) for x, y in zip(row, top)]
        prev = top[k]
    return [row[r:] for row in m], prev


def exact_div(num: int, den: int) -> int:
    """num / den for a den that divides num; ArithmeticError if it does not."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{num} / {den} is not an exact int division")
    return q


def ratio(num: int, den: int) -> Q | int:
    """num / den as an int where den divides num, else as a Fraction."""
    return Q(num, den) if num % den else num // den


def inner_product(rs: RootSystem, xi: Weight, eta: Weight) -> Q:
    """Invariant inner product (xi, eta), short roots of squared length 2."""
    if len(xi.coords) != rs.rank or len(eta.coords) != rs.rank:
        raise DomainError("coordinate length does not match rank")
    total = Q(0)
    for i, a in enumerate(xi.coords):
        if not a:
            continue
        for j, b in enumerate(eta.coords):
            if b:
                total += a * b * rs.cartan[i][j] * rs.d[j]
    return total


def n_pairing(rs: RootSystem, xi: Weight, alpha: Root) -> Q | int:
    """n(xi, alpha) = 2 (xi, alpha) / (alpha, alpha) = xi(H_alpha); int for int xi."""
    coroot = rs.coroot(alpha)
    return sum(c * rs.coroot_pairing(xi, i) for i, c in enumerate(coroot, start=1) if c)


def weight_in_pi_basis(rs: RootSystem, xi: Weight) -> tuple:
    """Coordinates of xi over the fundamental weights: c_i = n(xi, alpha_i)."""
    return tuple(rs.coroot_pairing(xi, i) for i in range(1, rs.rank + 1))
