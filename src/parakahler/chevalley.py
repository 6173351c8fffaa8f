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
``verify.check_jacobi`` checks Jacobi (antisymmetry, generation by X_{+-alpha_i}
and their derivation identity) and ``verify.check_structure_constants``
checks |N(a,b)| = p+1 against an independent root-string computation.

Each constant is computed once, on root indices, when its root triple is
pinned: N(r, s) fixes by those relations the 11 other ordered pairs of
{r, s, -(r+s)} and its negative; root sums are found by ``RootSystem.keys``, and
a length ratio is an int division that raises on a remainder.  They are
stored once, in the sparse int bracket rows of the nonzero [e_i, e_j] that
``chevalley_constants`` builds in the same pass (equal single terms {t: c} are
one shared dict: replace, never mutate); ``grading_failure`` certifies that each
bracket lands in the sum of its arguments' weights, compared as those int keys.
The Killing Gram is held the same way, as rows {v: B(e_u, e_v)} of its nonzero
entries, and an ``AlgebraElement`` is one such row {basis index: coefficient},
so brackets and Killing values visit stored entries only.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property

from .errors import DomainError
from .rootsys import Root, RootSystem, bareiss_inverse, exact_div


_NO_TERMS: dict[int, int] = {}  # every zero bracket; shared, never mutated


class BasisIndex:
    """Label of a Chevalley basis vector: Cartan H_i or root vector X_alpha.

    Immutable by convention.
    """

    def __init__(self, kind: str, cartan: int | None = None, root: Root | None = None) -> None:
        self.kind = kind  # "H" or "X"
        self.cartan = cartan  # 1-based, when kind == "H"
        self.root = root  # when kind == "X"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.cartan, self.root) == (other.kind, other.cartan, other.root)

    def __hash__(self) -> int:
        return hash((self.kind, self.cartan, self.root))

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
    """The bracket rows of one algebra, with cached int weight keys and Killing data.

    ``brackets[i][j]`` is [e_i, e_j] as sparse int coordinates {t: c}, stored
    only when nonzero: the one store of the constants, N(a, b) being the single
    coefficient of (X_a, X_b).  Equal single terms share one dict, so replace an
    entry, never mutate it; immutable by convention, every cache derived data.
    """

    def __init__(self, rs: RootSystem, brackets: list[dict[int, dict[int, int]]]):
        self.rs = rs
        self.brackets = brackets
        self.rank = rs.rank
        self.roots = rs.all_roots()
        self.dim = self.rank + len(self.roots)
        self._killing: list[list[int]] | None = None

    # -- basis bookkeeping -------------------------------------------------

    def index_of_root(self, root: Root) -> int:
        try:
            return self.rank + self.rs.positions[root.coeffs]
        except KeyError:
            raise DomainError(f"{root} is not a root of {self.rs.type}") from None

    # -- weight grading --------------------------------------------------------

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Weight of each basis index: 0 for H_i, the root for X_alpha."""
        return ((0,) * self.rank,) * self.rank + tuple(r.coeffs for r in self.roots)

    @cached_property
    def keys(self) -> tuple[int, ...]:
        """``weights`` as ``RootSystem.keys`` ints, which add like the weights."""
        return (0,) * self.rank + self.rs.keys

    @cached_property
    def _cancelling(self) -> dict[int, tuple[int, ...]]:
        """Key w -> the indices k with key(wt(k)) = -w: one per root, all H_i for 0."""
        return {**{-w: (i,) for i, w in enumerate(self.keys)}, 0: tuple(range(self.rank))}

    def partners(self, i: int) -> tuple[int, ...]:
        """Indices k with wt(i) + wt(k) = 0."""
        return self._cancelling[self.keys[i]]

    @cached_property
    def zero_weight_pairs(self) -> list[list[tuple[int, int]]]:
        """``[z]``: the sorted pairs x <= y with wt(z) + wt(x) + wt(y) = 0."""
        keys, cancelling = self.keys, self._cancelling
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for x, kx in enumerate(keys):
            for y in range(x, self.dim):
                for z in cancelling.get(kx + keys[y], ()):
                    pairs[z].append((x, y))
        return pairs

    @cached_property
    def grading_failure(self) -> str | None:
        """Where some [e_i, e_j] leaves weight wt(i) + wt(j); None if none does.

        Visits the stored bracket entries only, on first use; compares ``keys``.
        """
        keys = self.keys
        for i, row in enumerate(self.brackets):
            for j, out in row.items():
                w = keys[i] + keys[j]
                for t, c in out.items():
                    if c and keys[t] != w:
                        return f"bracket {(i, j)} leaves weight wt({i}) + wt({j})"
        return None

    # -- brackets ------------------------------------------------------------

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

    # -- the gradation plan: per-gradation oracles compiled once per algebra --

    @cached_property
    def invariance_terms(self) -> list[tuple[tuple[int, int, int, int, int], ...]]:
        """``[z]``: (x, y, -y, [z,x]_-y, [z,y]_-x) for the root pairs of ``zero_weight_pairs[z]``.

        A form pairing e_u with e_-u only, r[u] = f(e_u, e_-u), has
        f([z,x],y) + f(x,[z,y]) = [z,x]_-y r[-y] + [z,y]_-x r[x]; terms zero
        for every r are dropped.
        """
        rk, rows = self.rank, self.brackets
        terms = []
        for z, pairs in enumerate(self.zero_weight_pairs):
            kept = []
            for x, y in (p for p in pairs if p[0] >= rk):
                (nx,), (ny,) = self.partners(x), self.partners(y)
                a, b = rows[z].get(x, _NO_TERMS).get(ny, 0), rows[z].get(y, _NO_TERMS).get(nx, 0)
                if (a + b) if ny == x else (a or b):
                    kept.append((x, y, ny, a, b))
            terms.append(tuple(kept))
        return terms

    @cached_property
    def cartan_action(self) -> tuple[tuple[int, ...], ...]:
        """``[p]``: a(H_h) over h for the p-th root a, read from the stored [H_h, X_a]."""
        rows, rk = self.brackets, self.rank
        return tuple(tuple(rows[h].get(x, _NO_TERMS).get(x, 0) for h in range(rk))
                     for x in range(rk, self.dim))

    @cached_property
    def killing_cartan_inverse(self) -> tuple[list[list[int]], int]:
        """(M, d) in ints with M = d times the inverse of ``cartan_block``."""
        return bareiss_inverse(self.cartan_block())


class AlgebraElement:
    """An element of the algebra as sparse coordinates {basis index: coefficient}.

    Zero coefficients are dropped on construction, so equal elements have
    equal ``coords``; the other values are kept as given.  Immutable by
    convention, and unhashable, as ``coords`` is a dict.
    """

    def __init__(self, coords: dict[int, Q | int]) -> None:
        self.coords = {i: c for i, c in coords.items() if c}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

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


def chevalley_constants(rs: RootSystem) -> LieAlgebraData:
    """The Chevalley basis of a root system, as its sparse bracket rows."""
    rk, roots = rs.rank, rs.all_roots()
    L = LieAlgebraData(rs, [{} for _ in range(rk + len(roots))])  # rows filled below
    rows, keys = L.brackets, L.keys[rk:]
    at = {key: i for i, key in enumerate(keys)}  # root key -> root index
    npos = len(rs.positive_roots)
    neg = [*range(npos, 2 * npos), *range(npos)]  # index of -roots[i]
    sq = rs.positive_lengths * 2  # (a, a) = (-a, -a)
    N: list[dict[int, int]] = [{} for _ in roots]  # N[i][j] = N(roots[i], roots[j])

    def pin(r: int, s: int, n: int) -> None:
        """N(r, s) = n, and the 11 constants it forces on r, s, t = -(r+s) and -r, -s, -t."""
        if not n:
            raise ArithmeticError(f"N({roots[r]}, {roots[s]}) would be 0")
        t = neg[at[keys[r] + keys[s]]]
        for x, y, v in ((r, s, n), (s, t, exact_div(n * sq[r], sq[t])),
                        (t, r, exact_div(n * sq[s], sq[t]))):
            N[x][y], N[y][x], N[neg[x]][neg[y]], N[neg[y]][neg[x]] = v, -v, -v, v

    # The simple roots lead the canonical order; the others have height >= 2,
    # and every triple a Jacobi step reads was pinned at a lower height.
    for gamma in range(rk, npos):
        # Extraspecial pair: smallest simple root that stays inside R+.
        a = next(a for a in range(rk) if keys[gamma] - keys[a] in at)
        b = at[keys[gamma] - keys[a]]
        p, cur = 0, keys[b] - keys[a]  # p: the length of the a-string below b
        while cur in at:
            p, cur = p + 1, cur - keys[a]
        pin(a, b, p + 1)
        for r in range(gamma):
            s = at.get(keys[gamma] - keys[r], -1)  # height(s) >= 0, so a root s is positive
            if s <= r or (r, s) == (a, b):
                continue
            # One Jacobi identity on (X_a, X_b, X_-r) pins N(r, s).
            t = 0
            if (br := at.get(keys[b] - keys[r])) is not None:
                t += N[b][neg[r]] * N[br][a]
            if (ar := at.get(keys[a] - keys[r])) is not None:
                t += N[neg[r]][a] * N[ar][b]
            pin(r, s, exact_div(sq[gamma] * t, sq[s] * (p + 1)))

    # The bracket rows, root by root: the coroot rule, the Cartan rule (antisymmetric)
    # and [X_a, X_b] = N(a, b) X_{a+b}; equal single terms {t: c} share one dict.
    terms: dict[tuple[int, int], dict[int, int]] = {}

    def term(t: int, c: int) -> dict[int, int]:
        return terms.get((t, c)) or terms.setdefault((t, c), {t: c})

    for i in range(len(roots)):
        x, p, sign = rk + i, i % npos, 1 if i < npos else -1  # roots[i] = sign * the p-th
        rows[x][rk + neg[i]] = {t: sign * c for t, c in enumerate(rs.positive_coroots[p]) if c}
        for h, c in enumerate(rs.pairings[p]):  # a(H_h) = <a, alpha_h^v>
            if c:
                rows[h][x], rows[x][h] = term(x, sign * c), term(x, -sign * c)
        for j in sorted(N[i]):
            rows[x][rk + j] = term(rk + at[keys[i] + keys[j]], N[i][j])
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
