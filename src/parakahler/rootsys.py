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

``RootSystem`` owns the integer root data: ``coroot`` (H_alpha over the H_i)
and ``root_length_sq`` come from one table over the positive roots, and
``n_pairing`` is xi(H_alpha).  All arithmetic is exact: plain ints wherever
a value is an integer (roots, coroots, lengths, pairings of integral
weights, integral coordinates of the pi_i), ``fractions.Fraction`` for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import mul

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


@dataclass(frozen=True)
class SimpleType:
    """A simple Lie algebra type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RULES[self.family]
        if not (isinstance(self.rank, int) and lo <= self.rank <= hi):
            raise DomainError(
                f"invalid rank {self.rank} for family {self.family} "
                f"(allowed {lo}..{hi})"
            )

    @staticmethod
    def parse(text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise DomainError(f"cannot parse simple type from {text!r}")
        return SimpleType(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Root:
    """A root written as an integer vector over the simple roots."""

    coeffs: tuple[int, ...]

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

    def __str__(self) -> str:
        return format_coeffs(self.coeffs)


@dataclass(frozen=True)
class Weight:
    """A rational vector in simple-root coordinates (ints when integral)."""

    coords: tuple[Q | int, ...]

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


@dataclass(frozen=True)
class RootSystem:
    """Root data of a simple type: Cartan matrix, positive roots, weights."""

    type: SimpleType
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    weights: tuple[Weight, ...]

    @property
    def rank(self) -> int:
        return self.type.rank

    def is_root(self, root: Root) -> bool:
        return root.coeffs in self._coroots

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
        """The key sum_k c_k B^k of each root of ``all_roots()``, B = 4 max|c| + 1.

        Keys add like weights and tell apart all x + y and x - y with x, y in
        R + {0}: any two of those differ by a d with |d_k| <= 4 max|c| < B, and
        sum_k d_k B^k = 0 makes the lowest d_k != 0 a multiple of B, so d = 0.
        """
        base = 4 * max(abs(c) for r in self._all_roots for c in r.coeffs) + 1
        return tuple(sum(c * base**k for k, c in enumerate(r.coeffs)) for r in self._all_roots)

    @cached_property
    def positive_coroots(self) -> tuple[tuple[int, ...], ...]:
        """H_alpha over the H_i for each positive root, by position."""
        return tuple(self._coroots[r.coeffs][0] for r in self.positive_roots)

    @cached_property
    def positions(self) -> dict[tuple[int, ...], int]:
        """Root coefficients -> the index of the root in ``all_roots()``."""
        return {r.coeffs: p for p, r in enumerate(self._all_roots)}

    @cached_property
    def _coroots(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
        """Root coefficients -> (coroot, squared length), for both signs.

        For a = sum_i k_i alpha_i, (a, a) = sum_j k_j d_j <a, alpha_j^v> and
        H_a = sum_i k_i (d_i / d_a) H_i with d_a = (a, a)/2.
        """
        columns = tuple(zip(*self.cartan))
        negatives = self._all_roots[len(self.positive_roots):]
        table = {}
        for root, neg in zip(self.positive_roots, negatives):
            k = root.coeffs
            lensq = sum(
                kj * dj * sum(map(mul, k, column))
                for kj, dj, column in zip(k, self.d, columns) if kj
            )
            coroot = tuple(2 * ki * di // lensq for ki, di in zip(k, self.d))
            table[k] = (coroot, lensq)
            table[neg.coeffs] = (tuple(-c for c in coroot), lensq)
        return table

    def _coroot_entry(self, root: Root) -> tuple[tuple[int, ...], int]:
        try:
            return self._coroots[root.coeffs]
        except KeyError:
            raise DomainError(f"{root} is not a root of {self.type}") from None

    def coroot(self, root: Root) -> tuple[int, ...]:
        """H_alpha as an integer vector over the H_i (negated for -alpha)."""
        return self._coroot_entry(root)[0]

    def root_length_sq(self, root: Root) -> int:
        """(alpha, alpha), with short roots of squared length 2."""
        return self._coroot_entry(root)[1]

    def coroot_pairing(self, xi: Weight, i: int) -> Q | int:
        """xi(H_i) = 2(xi, alpha_i)/(alpha_i, alpha_i), 1-based i; int for int xi."""
        return sum(c * self.cartan[j][i - 1] for j, c in enumerate(xi.coords) if c)


def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct the full root system of a simple type.

    The closure runs on coefficient tuples: a candidate beta + alpha_i is a
    root iff its alpha_i-string through beta climbs, i.e.
    q = p - <beta, alpha_i^v> > 0 where p is the largest k with
    beta - k*alpha_i still a (positive) root.  Roots are read in height
    order while the list grows, so every root below beta is known when
    beta is read.
    """
    cartan = cartan_matrix(stype)
    r = stype.rank
    found = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    known = set(found)
    for beta in found:  # appended roots are read too, one height higher
        for i, column in enumerate(zip(*cartan)):
            head, tail = beta[:i], beta[i + 1:]
            p = 0
            while head + (beta[i] - p - 1,) + tail in known:
                p += 1
            up = head + (beta[i] + 1,) + tail
            if p > sum(map(mul, beta, column)) and up not in known:
                known.add(up)
                found.append(up)
    found.sort(key=lambda k: (sum(k), [-c for c in k]))
    positive = tuple(map(Root, found))

    expected = _POSITIVE_COUNTS[stype.family](r)
    if len(positive) != expected:
        raise AssertionError(
            f"closure produced {len(positive)} positive roots for {stype}, "
            f"expected {expected}"
        )
    inv, d = bareiss_inverse(cartan)
    top = positive[-1].height
    assert sum(1 for p in positive if p.height == top) == 1, "highest root not unique"

    return RootSystem(
        type=stype,
        cartan=cartan,
        d=_symmetrizers(cartan),
        positive_roots=positive,
        # The fundamental weights: rows of A^-1, an entry an int where it is one.
        weights=tuple(Weight(tuple(ratio(x, d) for x in row)) for row in inv),
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
    return sum(
        c * rs.coroot_pairing(xi, i)
        for i, c in enumerate(rs.coroot(alpha), start=1) if c
    )


def weight_in_pi_basis(rs: RootSystem, xi: Weight) -> tuple:
    """Coordinates of xi over the fundamental weights: c_i = n(xi, alpha_i)."""
    return tuple(rs.coroot_pairing(xi, i) for i in range(1, rs.rank + 1))
