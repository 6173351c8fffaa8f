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

The constants are computed on root indices with ``root_sum_table``; each
length ratio is an exact int division that asserts a zero remainder, so no
``Fraction`` arises.  Brackets are stored as sparse int rows of the nonzero
[e_i, e_j], built on first use; ``grading_failure`` certifies that each one
lands in the sum of its arguments' weights.  The Killing Gram is held the
same way, as rows {v: B(e_u, e_v)} of its nonzero entries, and an
``AlgebraElement`` is one such row {basis index: coefficient}, so brackets
and Killing values visit stored entries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import add

from .errors import DomainError
from .rootsys import Root, RootSystem, Weight, exact_div


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

    ``plus`` is the ``root_sum_table`` of ``roots``.  Immutable by convention
    after construction; every cache is derived data.
    """

    def __init__(self, rs: RootSystem, nconst: dict[tuple[Root, Root], int]):
        self.rs = rs
        self.nconst = nconst
        self.rank = rs.rank
        self.roots = rs.all_roots()
        self.dim = self.rank + len(self.roots)
        self.plus = root_sum_table(self.roots)
        self._root_index = {
            root.coeffs: self.rank + k for k, root in enumerate(self.roots)
        }
        self._killing: list[list[int]] | None = None

    # -- basis bookkeeping -------------------------------------------------

    def index_of_root(self, root: Root) -> int:
        try:
            return self._root_index[root.coeffs]
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
    def zero_weight_triples(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted basis triples i < j < k with wt(i) + wt(j) + wt(k) = 0."""
        return tuple(
            (i, j, k)
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
            for k in self.partners(i, j)
            if k > j
        )

    @cached_property
    def grading_failure(self) -> str | None:
        """Where some [e_i, e_j] leaves weight wt(i) + wt(j); None if none does.

        Visits the stored bracket entries only, on first use.
        """
        wt = self.weights
        for i, row in enumerate(self.brackets):
            for j, out in row.items():
                w = tuple(map(add, wt[i], wt[j]))
                for t, c in out.items():
                    if c and wt[t] != w:
                        return f"bracket {(i, j)} leaves weight wt({i}) + wt({j})"
        return None

    # -- brackets ------------------------------------------------------------

    @cached_property
    def brackets(self) -> list[dict[int, dict[int, int]]]:
        """Sparse rows: brackets[i][j] is [e_i, e_j] as {t: c}, if nonzero.

        Built on first use from the basis rules and ``nconst``; raises
        DomainError on a constant stored for a pair whose sum is not a root.
        """
        rk, rs, plus = self.rank, self.rs, self.plus
        half = len(self.roots) // 2
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for x, root in enumerate(self.roots, rk):
            minus = x + half if x < rk + half else x - half  # [X_a, X_-a] = H_a
            rows[x][minus] = {t: c for t, c in enumerate(rs.coroot(root)) if c}
            for h in range(rk):  # [H_h, X_b] = b(H_h) X_b, antisymmetric
                c = rs.coroot_pairing(Weight(root.coeffs), h + 1)
                if c:
                    rows[h][x] = {x: c}
                    rows[x][h] = {x: -c}
        idx = self._root_index
        for (a, b), n in self.nconst.items():
            i, j = idx.get(a.coeffs), idx.get(b.coeffs)
            total = -1 if i is None or j is None else plus[i - rk][j - rk]
            if total < 0:
                raise DomainError(f"N({a}, {b}) is stored for a pair without a root sum")
            if n:
                rows[i][j] = {total + rk: n}
        return rows

    def basis_bracket(self, i: int, j: int) -> dict[int, int]:
        """Sparse coordinates of [e_i, e_j]; shared, so never mutate them."""
        return self.brackets[i].get(j, _NO_TERMS)

    def killing_basis(self) -> list[dict[int, int]]:
        """Killing Gram on the basis as rows {v: B(e_u, e_v)}, by brute-force trace.

        Only entries with wt(u) + wt(v) = 0 are traced: ad_u ad_v shifts
        weights by wt(u) + wt(v), so the other traces vanish once
        ``grading_failure`` has passed; raises DomainError if it has not.
        Each trace sums over the stored brackets [e_v, e_j] only, and rows
        store nonzero entries only.
        """
        if self._killing is not None:
            return self._killing
        if self.grading_failure is not None:
            raise DomainError(f"weight grading fails: {self.grading_failure}")
        rows = self.brackets
        b: list[dict[int, int]] = [{} for _ in range(self.dim)]
        for u, row_u in enumerate(rows):
            for v in self.partners(u):
                if v < u:
                    continue
                total = 0
                for j, out in rows[v].items():
                    for m, c in out.items():
                        c2 = row_u.get(m, _NO_TERMS).get(j)
                        if c2:
                            total += c * c2
                if total:
                    b[u][v] = b[v][u] = total
        self._killing = b
        return b

    def cartan_block(self) -> list[list[int]]:
        """The Killing Gram on the Cartan H_1..H_l, as a dense matrix."""
        b = self.killing_basis()
        return [[b[i].get(j, 0) for j in range(self.rank)] for i in range(self.rank)]


@dataclass(frozen=True)
class AlgebraElement:
    """An element of the algebra as sparse coordinates {basis index: coefficient}.

    Zero coefficients are dropped on construction, so equal elements have
    equal ``coords``; the other values are kept as given.
    """

    coords: dict[int, Q | int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", {i: c for i, c in self.coords.items() if c})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        a, b = self.coords, other.coords
        return AlgebraElement({i: a.get(i, 0) + b.get(i, 0) for i in {**a, **b}})

    def scale(self, factor) -> "AlgebraElement":
        f = Q(factor)
        return AlgebraElement({i: f * c for i, c in self.coords.items()})


def check_support(L: LieAlgebraData, x: AlgebraElement) -> AlgebraElement:
    """x itself; DomainError if one of its keys is not a basis index of L."""
    for i in x.coords:
        if not 0 <= i < L.dim:
            raise DomainError(f"basis index {i} is outside 0..{L.dim - 1}")
    return x


def basis_element(L: LieAlgebraData, i: int) -> AlgebraElement:
    return check_support(L, AlgebraElement({i: 1}))


def cartan_element(L: LieAlgebraData, coords) -> AlgebraElement:
    """Element sum_i coords[i] * H_i of the Cartan subalgebra."""
    if len(coords) != L.rank:
        raise DomainError("Cartan coordinate length does not match rank")
    return AlgebraElement(dict(enumerate(coords)))


def root_vector(L: LieAlgebraData, root: Root) -> AlgebraElement:
    return basis_element(L, L.index_of_root(root))


def is_cartan(L: LieAlgebraData, x: AlgebraElement) -> bool:
    return all(i < L.rank for i in x.coords)


# -- construction of the constants -------------------------------------------


def root_sum_table(roots: tuple[Root, ...]) -> list[list[int]]:
    """plus[i][j]: the index of roots[i] + roots[j] in ``roots``, or -1.

    Each root gets the linear key sum_k c_k B^k, which is injective on
    vectors with |c_k| < B/2, so it tells apart every sum of two roots.
    """
    base = 4 * max(abs(c) for r in roots for c in r.coeffs) + 1
    keys = [sum(c * base**k for k, c in enumerate(r.coeffs)) for r in roots]
    at = {key: i for i, key in enumerate(keys)}
    return [[at.get(a + b, -1) for b in keys] for a in keys]


def chevalley_constants(rs: RootSystem) -> LieAlgebraData:
    """Structure constants of the Chevalley basis for a root system."""
    nconst: dict[tuple[Root, Root], int] = {}
    L = LieAlgebraData(rs, nconst)  # nconst is filled below; every cache is lazy
    roots, plus = L.roots, L.plus
    npos_count = len(rs.positive_roots)
    neg = [*range(npos_count, 2 * npos_count), *range(npos_count)]  # index of -roots[i]
    sq = [rs.root_length_sq(r) for r in roots]

    # Seed constants on positive special pairs (r, s): r < s (canonical
    # order is by height), r+s a root.  None marks a pair not yet pinned.
    npos: list[list[int | None]] = [[None] * npos_count for _ in range(npos_count)]

    def nfull(al: int, be: int) -> int:
        """N(al, be) for any root pair with al+be a root."""
        pa, pb = al < npos_count, be < npos_count
        if pa and pb:
            return npos[al][be] if al < be else -npos[be][al]
        if not pa and not pb:
            return -nfull(neg[al], neg[be])
        if not pa:
            return -nfull(be, al)
        # al positive, be negative, al+be a root
        total = plus[al][be]
        if total < npos_count:
            return -exact_div(sq[total] * nfull(neg[be], total), sq[al])
        return exact_div(sq[total] * nfull(neg[total], al), sq[be])

    # The simple roots lead the canonical order; the others have height >= 2.
    for gamma in range(rs.rank, npos_count):
        # Extraspecial pair: smallest simple root that stays inside R+.
        up = plus[gamma]
        a = next(s for s in range(rs.rank) if up[neg[s]] >= 0)
        b = up[neg[a]]
        p, cur = 0, plus[b][neg[a]]  # p: the length of the a-string below b
        while cur >= 0:
            p, cur = p + 1, plus[cur][neg[a]]
        seed = npos[a][b] = p + 1
        for r in range(gamma):
            s = up[neg[r]]  # height(s) >= 0, so a root s is positive
            if s < 0 or r >= s or (r, s) == (a, b):
                continue
            # One Jacobi identity on (X_a, X_b, X_-r) pins N(r, s).
            t = 0
            if (br := plus[b][neg[r]]) >= 0:
                t += nfull(b, neg[r]) * nfull(br, a)
            if (ar := plus[a][neg[r]]) >= 0:
                t += nfull(neg[r], a) * nfull(ar, b)
            npos[r][s] = exact_div(sq[gamma] * t, sq[s] * seed)

    # Materialize the full table over every bracketable root pair.
    for i, row in enumerate(plus):
        for j, total in enumerate(row):
            if total >= 0:
                val = nfull(i, j)
                assert val != 0
                nconst[(roots[i], roots[j])] = val
    return L


# -- operations ---------------------------------------------------------------


def bracket(L: LieAlgebraData, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y], extended bilinearly over the stored basis brackets."""
    xs, ys = check_support(L, x).coords, check_support(L, y).coords
    rows = L.brackets
    acc: dict[int, Q | int] = {}
    for i, a in xs.items():
        row = rows[i]
        for j, b in ys.items():
            for t, c in row.get(j, _NO_TERMS).items():
                acc[t] = acc.get(t, 0) + a * (b * c)
    return AlgebraElement(acc)


def killing_form(L: LieAlgebraData, x: AlgebraElement, y: AlgebraElement) -> Q | int:
    """B(x, y) = tr(ad_x ad_y), bilinear over the stored Killing Gram entries."""
    b, ys = L.killing_basis(), check_support(L, y).coords
    return sum(
        a * sum(c * b[i][j] for j, c in ys.items() if j in b[i])
        for i, a in check_support(L, x).coords.items()
    )
