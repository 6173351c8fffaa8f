"""Chevalley bases: structure constants, brackets, Killing form.

The basis is {H_1..H_l} followed by {X_alpha} for the positive roots in
canonical order and then their negatives in the same order.  Brackets follow
the classical rules

    [H_i, H_j] = 0
    [H_i, X_a] = a(H_i) X_a
    [X_a, X_-a] = H_a            (coroot, an integer vector over the H_i)
    [X_a, X_b]  = N(a,b) X_{a+b} when a+b is a root, else 0.

Signs of the N(a,b) are pinned by the extraspecial-pair convention: order the
positive roots by height (ties broken so lower-index simple roots come
first); for each non-simple positive root g the extraspecial pair is
(alpha_j, g - alpha_j) with j minimal, and gets N = p+1 > 0 where p is the
length of the descending alpha_j-string through g - alpha_j.  Every other
constant is forced from these seeds by the standard relations

    N(b,a) = -N(a,b),   N(-a,-b) = -N(a,b),
    N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b)   for a+b+c = 0,

plus one Jacobi identity per remaining special pair.  The result is exact;
``verify.check_jacobi`` checks the Jacobi identity on every basis triple
with a nonzero term and ``verify.check_structure_constants`` checks
|N(a,b)| = p+1 against an independent root-string computation.

Constants, brackets and the Killing Gram are ints.  Root lengths, coroots
and the pairings alpha(H_i) come from the ``RootSystem``; the relations
above, through their length ratios, are the only divisions.  ``grading_failure`` certifies that each
bracket lands in the sum of its arguments' weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import add

from .errors import DomainError
from .rootsys import Root, RootSystem, Weight


_NO_TERMS: dict[int, int] = {}  # every zero bracket; shared, never mutated


@dataclass(frozen=True)
class BasisIndex:
    """Label of a Chevalley basis vector: Cartan H_i or root vector X_alpha."""

    kind: str  # "H" or "X"
    cartan: int | None = None  # 1-based, when kind == "H"
    root: Root | None = None  # when kind == "X"

    @staticmethod
    def H(i: int) -> "BasisIndex":
        return BasisIndex("H", cartan=i)

    @staticmethod
    def X(root: Root) -> "BasisIndex":
        return BasisIndex("X", root=root)

    def label(self) -> str:
        if self.kind == "H":
            return f"H{self.cartan}"
        return f"X[{self.root}]"


class LieAlgebraData:
    """Structure constants and cached bracket/Killing data for one algebra.

    Immutable by convention after construction; every cache is derived data.
    """

    def __init__(self, rs: RootSystem, nconst: dict[tuple[Root, Root], int]):
        self.rs = rs
        self.nconst = nconst
        self.rank = rs.rank
        self.roots = rs.all_roots()
        self.dim = self.rank + len(self.roots)
        self._root_index = {
            root: self.rank + k for k, root in enumerate(self.roots)
        }
        self._killing: list[list[int]] | None = None

    # -- basis bookkeeping -------------------------------------------------

    def index_of_root(self, root: Root) -> int:
        try:
            return self._root_index[root]
        except KeyError:
            raise DomainError(f"{root} is not a root of {self.rs.type}") from None

    # -- weight grading --------------------------------------------------------

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Weight of each basis index: 0 for H_i, the root for X_alpha."""
        return ((0,) * self.rank,) * self.rank + tuple(r.coeffs for r in self.roots)

    @cached_property
    def _cancelling(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Weight w -> the indices k with wt(k) = -w: one per root, all H_i for 0."""
        table = {tuple(-c for c in w): (i,) for i, w in enumerate(self.weights)}
        table[(0,) * self.rank] = tuple(range(self.rank))
        return table

    def partners(self, i: int, j: int | None = None) -> tuple[int, ...]:
        """Indices k with wt(i) + wt(j) + wt(k) = 0; j may be left out."""
        w = self.weights[i]
        if j is not None:
            w = tuple(map(add, w, self.weights[j]))
        return self._cancelling.get(w, ())

    @cached_property
    def grading_failure(self) -> str | None:
        """Where some [e_i, e_j] leaves weight wt(i) + wt(j); None if none does.

        Costs dim^2 brackets, paid on first use only.
        """
        wt = self.weights
        for i in range(self.dim):
            for j in range(self.dim):
                for t, c in self.basis_bracket(i, j).items():
                    if c and wt[t] != tuple(map(add, wt[i], wt[j])):
                        return f"bracket {(i, j)} leaves weight wt({i}) + wt({j})"
        return None

    # -- brackets ------------------------------------------------------------

    @cached_property
    def _brackets(self) -> list[dict[int, int] | None]:
        """[e_i, e_j] cached at i * dim + j, seeded with every N(a, b) term."""
        dim, idx = self.dim, self._root_index
        table: list[dict[int, int] | None] = [None] * (dim * dim)
        for (a, b), n in self.nconst.items():
            if n:
                table[idx[a] * dim + idx[b]] = {idx[a + b]: n}
        return table

    def basis_bracket(self, i: int, j: int) -> dict[int, int]:
        """Sparse coordinates of [e_i, e_j]; shared, so never mutate them."""
        key = i * self.dim + j
        hit = self._brackets[key]
        if hit is not None:
            return hit
        out: dict[int, int] = {}
        rk, rs = self.rank, self.rs
        if i < rk and j < rk:
            pass  # Cartan is abelian
        elif i < rk or j < rk:  # [H_t, X_b] = b(H_t) X_b, antisymmetric
            h, x, sign = (i, j, 1) if i < rk else (j, i, -1)
            c = rs.coroot_pairing(Weight(self.roots[x - rk].coeffs), h + 1)
            if c:
                out[x] = sign * c
        else:  # root pairs with a constant are seeded; [X_a, X_-a] = H_a
            alpha = self.roots[i - rk]
            if self.roots[j - rk] == -alpha:
                out = {t: c for t, c in enumerate(rs.coroot(alpha)) if c}
        self._brackets[key] = out = out or _NO_TERMS
        return out

    def killing_basis(self) -> list[list[int]]:
        """Gram matrix of the Killing form on the basis, by brute-force trace.

        Only entries with wt(u) + wt(v) = 0 are traced: ad_u ad_v shifts
        weights by wt(u) + wt(v), so the other traces vanish once
        ``grading_failure`` has passed; raises DomainError if it has not.
        """
        if self._killing is not None:
            return self._killing
        if self.grading_failure is not None:
            raise DomainError(f"weight grading fails: {self.grading_failure}")
        dim = self.dim
        pair = self.basis_bracket
        b = [[0] * dim for _ in range(dim)]
        for u in range(dim):
            for v in self.partners(u):
                if v < u:
                    continue
                total = 0
                for j in range(dim):
                    for m, c in pair(v, j).items():
                        c2 = pair(u, m).get(j)
                        if c2:
                            total += c * c2
                b[u][v] = b[v][u] = total
        self._killing = b
        return b


@dataclass(frozen=True)
class AlgebraElement:
    """An element of the algebra as rational coordinates over the basis."""

    coords: tuple[Q, ...]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def scale(self, factor) -> "AlgebraElement":
        f = Q(factor)
        return AlgebraElement(tuple(f * c for c in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)


def basis_element(L: LieAlgebraData, i: int) -> AlgebraElement:
    return AlgebraElement(tuple(Q(int(j == i)) for j in range(L.dim)))


def cartan_element(L: LieAlgebraData, coords) -> AlgebraElement:
    """Element sum_i coords[i] * H_i of the Cartan subalgebra."""
    if len(coords) != L.rank:
        raise DomainError("Cartan coordinate length does not match rank")
    pad = (Q(0),) * (L.dim - L.rank)
    return AlgebraElement(tuple(Q(c) for c in coords) + pad)


def root_vector(L: LieAlgebraData, root: Root) -> AlgebraElement:
    return basis_element(L, L.index_of_root(root))


def is_cartan(L: LieAlgebraData, x: AlgebraElement) -> bool:
    return not any(x.coords[L.rank:])


# -- construction of the constants -------------------------------------------


def chevalley_constants(rs: RootSystem) -> LieAlgebraData:
    """Structure constants of the Chevalley basis for a root system."""
    pos = rs.positive_roots
    simple = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
    sq = rs.root_length_sq

    def string_down(s: Root, r: Root) -> int:
        """Largest p with s - p*r a root."""
        p = 0
        cur = s - r
        while rs.is_root(cur):
            p += 1
            cur = cur - r
        return p

    order = {root: k for k, root in enumerate(pos)}

    # Seed constants on positive special pairs (r, s): r before s, r+s a root.
    npos: dict[tuple[Root, Root], Q | int] = {}

    def nfull(al: Root, be: Root) -> Q | int:
        """N(al, be) for any root pair with al+be a root."""
        pa, pb = al.is_positive, be.is_positive
        if pa and pb:
            if order[al] < order[be]:
                return npos[(al, be)]
            return -npos[(be, al)]
        if not pa and not pb:
            return -nfull(-al, -be)
        if not pa:
            return -nfull(be, al)
        # al positive, be negative, al+be a root
        total = al + be
        if total.is_positive:
            return -Q(sq(total), sq(al)) * nfull(-be, total)
        return Q(sq(total), sq(be)) * nfull(-total, al)

    for gamma in pos:
        if gamma.height < 2:
            continue
        # Extraspecial pair: smallest simple root that stays inside R+ (gamma
        # has height >= 2, so gamma - s is a root only if it is positive).
        a = next(s for s in simple if rs.is_root(gamma - s))
        b = gamma - a
        npos[(a, b)] = string_down(b, a) + 1
        for r in pos:
            if order[r] >= order[gamma]:
                break
            s = gamma - r  # height(s) >= 0, so a root s is positive
            if not rs.is_root(s) or order[r] >= order[s] or (r, s) == (a, b):
                continue
            # One Jacobi identity on (X_a, X_b, X_-r) pins N(r, s).
            t_b = 0
            br = b - r
            if rs.is_root(br):
                t_b = nfull(b, -r) * nfull(br, a)
            t_a = 0
            ar = a - r
            if rs.is_root(ar):
                t_a = nfull(-r, a) * nfull(ar, b)
            npos[(r, s)] = Q(sq(gamma), sq(s) * npos[(a, b)]) * (t_b + t_a)

    # Materialize the full table over every bracketable root pair.
    all_roots = rs.all_roots()
    nconst: dict[tuple[Root, Root], int] = {}
    for al in all_roots:
        for be in all_roots:
            total = al + be
            if any(total.coeffs) and rs.is_root(total):
                val = nfull(al, be)
                assert val.denominator == 1 and val != 0
                nconst[(al, be)] = int(val)
    return LieAlgebraData(rs, nconst)


# -- operations ---------------------------------------------------------------


def bracket(L: LieAlgebraData, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y], extended bilinearly from the basis rules."""
    if len(x.coords) != L.dim or len(y.coords) != L.dim:
        raise DomainError("element dimension does not match the algebra")
    acc: dict[int, Q] = {}
    for i, a in enumerate(x.coords):
        if not a:
            continue
        for j, b in enumerate(y.coords):
            if not b:
                continue
            ab = a * b
            for t, c in L.basis_bracket(i, j).items():
                acc[t] = acc.get(t, Q(0)) + ab * c
    coords = [Q(0)] * L.dim
    for t, c in acc.items():
        coords[t] = c
    return AlgebraElement(tuple(coords))


def killing_form(L: LieAlgebraData, x: AlgebraElement, y: AlgebraElement) -> Q:
    """B(x, y) = tr(ad_x ad_y), bilinear over the cached basis Gram matrix."""
    b = L.killing_basis()
    ys = [(j, c) for j, c in enumerate(y.coords) if c]
    total = Q(0)
    for i, a in enumerate(x.coords):
        if not a:
            continue
        row = b[i]
        for j, c in ys:
            if row[j]:
                total += a * c * row[j]
    return total
