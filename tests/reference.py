"""Reference code that only the tests use: predicates, dense forms, edits of gradations,
the all-z invariance walks and closedness functionals of a bracket table, and the
chart lab's oracles (split-complex arithmetic, the Christoffel block).
"""

import dataclasses
import functools
import itertools
import math
from collections import defaultdict
from fractions import Fraction as Q
from operator import add, mul

from parakahler import ratlin
from parakahler.chevalley import _NO_TERMS, LieAlgebraData
from parakahler.errors import DomainError, SingularPointError
from parakahler.gradation import Gradation, unsplit_root
from parakahler.koszul import EinsteinStructure, TwoForm
from parakahler.paracomplex import (
    ChartPotential,
    PolyTable,
    _metric_block,
    _poly_diff,
    _poly_eval,
    _rows,
    _stencil,
)
from parakahler.rootsys import SimpleType, cartan_matrix


def is_fundamental(g: Gradation) -> bool:
    """Every root of degree p >= 2 splits off a degree-1 root (``unsplit_root``)."""
    return unsplit_root(g) is None


def degrees(g: Gradation) -> dict:
    """The degree of each root of g, as a dict keyed by ``Root``."""
    return {r: g.degree(r) for r in g.rs.all_roots()}


def regraded(g: Gradation, changes: dict) -> Gradation:
    """g with the degree of each positive root in ``changes`` replaced, by position.

    The degree of -alpha follows that of alpha, so a negative root is refused
    rather than edited away in silence.
    """
    degrees, npos = list(g.root_degrees), len(g.root_degrees)
    for root, d in changes.items():
        p = g.rs.positions[root.coeffs]
        if p >= npos:
            raise ValueError(f"{root} is not a positive root: its degree is -deg({-root})")
        degrees[p] = d
    return Gradation(g.rs, g.crossing, tuple(degrees))


def tuple_walk_positive_roots(stype: SimpleType) -> list[tuple[int, ...]]:
    """The positive roots' coefficient tuples in canonical order, by a closure on tuples.

    beta + alpha_i is a root iff p > <beta, alpha_i^v>, p the length of the
    alpha_i-string below beta, with both read off the tuples and the Cartan
    matrix directly (no keys, no carried pairings).
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
    return found


def root_data(cartan, d, k) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(<a, alpha_j^v> over j, coroot, (a, a)) of the root a with coefficients k, from A."""
    pairing = tuple(sum(map(mul, k, column)) for column in zip(*cartan))
    lensq = sum(kj * dj * pj for kj, dj, pj in zip(k, d, pairing))
    coroot = tuple(Q(2 * ki * di, lensq) for ki, di in zip(k, d))
    return pairing, coroot, lensq


def det(a) -> Q:
    """det(a) from ``ratlin.rref``: the signed product of its pivots, 0 when singular."""
    _, pivots, scale = ratlin.rref(a)
    return scale if len(pivots) == len(a) else Q(0)


def inverse(a) -> list[list[Q]]:
    """Inverse of a square rational matrix by ``ratlin.rref``; raises on singular input."""
    n = len(a)
    rows, pivots, _ = ratlin.rref(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    )
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[row.get(j, Q(0)) for j in range(n, 2 * n)] for row in rows]


def two_form_rows(f: TwoForm, L: LieAlgebraData) -> list[dict]:
    """Dict rows {j: f(e_i, e_j)}, zeros not stored; X_alpha at x pairs X_-alpha at x+npos."""
    if L.rs != f.rs:
        raise DomainError("algebra and two-form use different root systems")
    npos = len(f.rs.positive_roots)
    rows: list[dict] = [{} for _ in range(L.dim)]
    for x, c in enumerate(f.coeffs, L.rank):
        if c:
            rows[x][x + npos], rows[x + npos][x] = c, -c
    return rows


def metric_rows(es: EinsteinStructure) -> list[dict]:
    """The metric as 2k dict rows {column: value} over ``es.basis``, zeros not stored.

    Row a < k holds g_alpha = ``es.metric[a]`` at column a + k, and row a + k
    holds it at column a: X_-alpha sits k places after X_alpha in the basis.
    """
    k = len(es.metric)
    rows: list[dict] = [{} for _ in range(2 * k)]
    for a, v in enumerate(es.metric):
        if v:
            rows[a][a + k] = rows[a + k][a] = v
    return rows


def two_form_matrix(f: TwoForm, L: LieAlgebraData) -> list[list[Q]]:
    return [[row.get(j, Q(0)) for j in range(L.dim)] for row in two_form_rows(f, L)]


@functools.cache
def _zero_weight_pairs(weights: tuple) -> tuple[tuple[tuple[int, int], ...], ...]:
    at = defaultdict(list)  # weight -> the basis indices that carry it
    for k, w in enumerate(weights):
        at[w].append(k)
    pairs: list[list[tuple[int, int]]] = [[] for _ in weights]
    for x, y in itertools.combinations_with_replacement(range(len(weights)), 2):
        for z in at.get(tuple(-a - b for a, b in zip(weights[x], weights[y])), ()):
            pairs[z].append((x, y))
    return tuple(map(tuple, pairs))


def weights(L: LieAlgebraData) -> tuple[tuple[int, ...], ...]:
    """The weight of each basis index as coefficients: 0 for H_i, the root for X_alpha."""
    return ((0,) * L.rank,) * L.rank + tuple(r.coeffs for r in L.roots)


def zero_weight_pairs(L: LieAlgebraData) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``[z]``: the sorted pairs x <= y with wt(z) + wt(x) + wt(y) = 0, from ``weights``."""
    return _zero_weight_pairs(weights(L))


def negatives(L: LieAlgebraData) -> list[int | None]:
    """The basis index of X_-a for each X_a, from ``weights``; None for each H_i."""
    wt = weights(L)
    at = {w: k for k, w in enumerate(wt) if any(w)}
    return [at.get(tuple(-c for c in w)) for w in wt]


def invariance_triples(L: LieAlgebraData, acting, domain):
    """Each (z, x, y) with z in ``acting``, x <= y in ``domain`` and zero weight sum.

    Read from ``zero_weight_pairs(L)[z]``, which holds repeated indices too.
    """
    domain, pairs = set(domain), zero_weight_pairs(L)
    for z in acting:
        for x, y in pairs[z]:
            if x in domain and y in domain:
                yield z, x, y


def invariance_failure(L: LieAlgebraData, form, acting, domain) -> tuple | None:
    """First (z, x, y) with form([z,x], y) + form(x, [z,y]) != 0, from dict rows.

    The all-z walk: every z in ``acting``, where the checks visit generators only.
    """
    pair = L.basis_bracket
    for z, x, y in invariance_triples(L, acting, domain):
        lhs = sum(c * form[m].get(y, 0) for m, c in pair(z, x).items())
        lhs += sum(c * form[x].get(m, 0) for m, c in pair(z, y).items())
        if lhs:
            return z, x, y
    return None


def invariance_terms(L: LieAlgebraData) -> list[tuple[tuple[int, int, int, int, int], ...]]:
    """``[z]`` for every basis index z: (x, y, -y, [z,x]_-y, [z,y]_-x) on the root pairs
    of ``zero_weight_pairs(L)[z]`` whose terms are not zero for every form.
    """
    rk, rows, neg = L.rank, L.brackets, negatives(L)
    terms = []
    for z, pairs in enumerate(zero_weight_pairs(L)):
        kept = []
        for x, y in (p for p in pairs if p[0] >= rk):
            nx, ny = neg[x], neg[y]
            a, b = rows[z].get(x, _NO_TERMS).get(ny, 0), rows[z].get(y, _NO_TERMS).get(nx, 0)
            if (a + b) if ny == x else (a or b):
                kept.append((x, y, ny, a, b))
        terms.append(tuple(kept))
    return terms


def closedness_functionals(L: LieAlgebraData) -> tuple[tuple[tuple[int, int, int], tuple], ...]:
    """(first triple, ((p, coefficient), ...)): d(f) on the zero-weight i < j < k.

    A two-form with f(X_a, X_-a) = c_p (a the p-th positive root) pairs
    e_m with e_t only for m = -t, so f([i,j],k) + f([j,k],i) - f([i,k],j)
    is an int functional of c.  Each distinct nonzero one is kept once, in
    walk order, with the first triple that produced it.
    """
    rk, npos, rows, neg = L.rank, len(L.rs.positive_roots), L.brackets, negatives(L)
    first: dict[tuple, tuple[int, int, int]] = {}
    for i, pairs in enumerate(zero_weight_pairs(L)):
        for j, k in (p for p in pairs if i < p[0] < p[1]):
            f: dict[int, int] = {}
            for u, v, t, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
                if t >= rk and (a := rows[u].get(v, _NO_TERMS).get(neg[t])):
                    # f(e_-t, e_t) is c_col for a negative root t, -c_col for a positive one.
                    col = (t - rk) % npos
                    f[col] = f.get(col, 0) + (sign if t >= rk + npos else -sign) * a
            if key := tuple(sorted((col, a) for col, a in f.items() if a)):
                first.setdefault(key, (i, j, k))
    return tuple((triple, key) for key, triple in first.items())


def jacobi_sums(rows: list[dict[int, dict[int, int]]]):
    """Per a, the sorted ((b, c), J) over the triples a < b < c with a nonzero term.

    J = {t: c} is [[a,b],c] + [[b,c],a] - [[a,c],b], each product of stored
    brackets added once: [[a,j],k] from a stored (a, j) with j, k > a (the last
    term of J(a, k, j) if j > k), [[b,c],a] from a stored (b, c) with b > a that
    produces an m with [e_m, e_a] != 0.  Neither route assumes antisymmetry.
    """
    tied: list[list[int]] = [[] for _ in rows]  # tied[a]: the m with [e_m, e_a] != 0
    producers: list[list[tuple]] = [[] for _ in rows]  # (b, c, x): b < c, x e_m in [e_b, e_c]
    for m, row in enumerate(rows):
        for k, out in row.items():
            if out:
                tied[k].append(m)
            if k > m:
                for t, x in out.items():
                    producers[t].append((m, k, x))
    for a, row in enumerate(rows):
        sums: defaultdict[tuple[int, int], dict[int, int]] = defaultdict(dict)
        for j, out in row.items():
            if j <= a:
                continue
            for m, x in out.items():
                for k, out2 in rows[m].items():
                    if k > a and k != j and out2:
                        acc, s = (sums[j, k], x) if j < k else (sums[k, j], -x)
                        for t, y in out2.items():
                            acc[t] = acc.get(t, 0) + s * y
        for m in tied[a]:
            for b, c, x in producers[m]:
                if b > a:
                    acc = sums[b, c]
                    for t, y in rows[m][a].items():
                        acc[t] = acc.get(t, 0) + x * y
        yield a, [(bc, sums[bc]) for bc in sorted(sums)]


def jacobi_all_triples(L: LieAlgebraData) -> dict:
    """Jacobi on every basis triple a < b < c with a nonzero term, in sorted order.

    It assumes neither antisymmetry nor generation, so it is the independent
    route for ``verify.check_jacobi``.
    """
    count = 0
    for a, sums in jacobi_sums(L.brackets):
        for (b, c), total in sums:
            count += 1
            if any(total.values()):
                problem = f"jacobi fails on basis triple {(a, b, c)}"
                return {"ok": False, "first_failure": problem, "triples": count}
    return {"ok": True, "first_failure": None, "triples": count}


def poly_mixed_hessian_exact(F: ChartPotential, u, v) -> list[list[Q]]:
    """Metric block d^2 f / du^a dv^b; exact (Fractions) at rational points."""
    n, p, g = F.n, Q(_poly_eval(F.p, u, v)), F.derivatives.exact
    flat = [sum(_poly_eval({(a, b): c / p**k}, u, v) for (a, b, k), c in gab.items())
            for gab in g[: n * n]]
    return [flat[a * n : (a + 1) * n] for a in range(n)]


def admissible(F: ChartPotential, point, margin: float = 0.1) -> bool:
    """Is the point clear of the log singularity: P >= margin (any point if c = 0)?

    The per-point predicate that ``grid_points`` applies a column at a time.
    """
    return not F.c or _poly_eval(F.p, point[: F.n], point[F.n :]) >= margin


# -- split-complex arithmetic ---------------------------------------------------------


class NullConeError(DomainError, ZeroDivisionError):
    """Inversion of a split-complex number with x^2 = y^2."""


@dataclasses.dataclass(frozen=True)
class ParaComplex:
    """A split-complex number x + e y, e^2 = 1."""

    x: float
    y: float

    def __add__(self, other: "ParaComplex") -> "ParaComplex":
        return ParaComplex(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "ParaComplex") -> "ParaComplex":
        return ParaComplex(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "ParaComplex":
        return ParaComplex(-self.x, -self.y)

    def __mul__(self, other: "ParaComplex") -> "ParaComplex":
        return ParaComplex(
            self.x * other.x + self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    def conj(self) -> "ParaComplex":
        return ParaComplex(self.x, -self.y)

    def modulus_sq(self):
        """z * conj(z) = x^2 - y^2 (negative inside the cone)."""
        return self.x * self.x - self.y * self.y

    def inverse(self) -> "ParaComplex":
        m = self.modulus_sq()
        if m == 0:
            raise NullConeError(f"{self} lies on the null cone x^2 = y^2")
        return ParaComplex(self.x / m, -self.y / m)

    def __truediv__(self, other: "ParaComplex") -> "ParaComplex":
        return self * other.inverse()

    @property
    def plus(self):
        return self.x + self.y

    @property
    def minus(self):
        return self.x - self.y

    @staticmethod
    def from_split(plus, minus) -> "ParaComplex":
        half = Q(1, 2) if isinstance(plus, (int, Q)) and isinstance(minus, (int, Q)) else 0.5
        return ParaComplex((plus + minus) * half, (plus - minus) * half)

    def __repr__(self) -> str:
        return f"({self.x} + {self.y}e)"


E = ParaComplex(0, 1)


def pc(x, y=0) -> ParaComplex:
    return ParaComplex(x, y)


def mixed_partial_pc(F: ChartPotential, a_idx: int, b_idx: int, z) -> ParaComplex:
    """d_a d_bbar F at para-complex chart values z, via split-complex algebra.

    Evaluates the differentiated z / zbar monomials of P and Q with ParaComplex
    arithmetic and d_a d_bbar (c log P) = c (P P_abbar - P_a P_bbar) / P^2: a
    route to the metric that shares only ``_poly_diff`` with the table.
    """
    zs = [*z, *(w.conj() for w in z)]

    def evaluate(table: PolyTable, *sides: str) -> ParaComplex:
        for side in sides:  # "u" differentiates along z^a_idx, "v" along zbar^b_idx
            table = _poly_diff(table, a_idx if side == "u" else b_idx, side)
        total = ParaComplex(0, 0)
        for (a, b), coeff in table.items():
            term = ParaComplex(coeff, coeff * 0)
            for w, e in zip(zs, a + b):
                for _ in range(e):
                    term = term * w
            total = total + term
        return total

    value = evaluate(F.q, "u", "v")
    if F.c:
        p, pa, pb, pab = (evaluate(F.p, *sides) for sides in ("", "u", "v", "uv"))
        value = value + ParaComplex(F.c, F.c * 0) * (p * pab - pa * pb) / (p * p)
    return value


# -- finite differences ---------------------------------------------------------------


def _fd1(fn, point, axis: int, h: float) -> float:
    step = h * max(1.0, abs(point[axis]))

    def shifted(offset: float) -> float:
        q = list(point)
        q[axis] += offset
        return fn(tuple(q))

    return _stencil(*(shifted(k * step) for k in (-2, -1, 1, 2)), 12 * step)


def fd_partial(fn, point, axes, h: float) -> float:
    """Nested 5-point stencils; axes sorted so mixed partials are symmetric."""
    axes = sorted(axes)
    if not axes:
        return fn(tuple(point))
    first, rest = axes[0], tuple(axes[1:])
    if not rest:
        return _fd1(fn, point, first, h)
    return _fd1(lambda q: fd_partial(fn, q, rest, h), point, first, h)


# -- the chart lab one point at a time ------------------------------------------------
#
# The float path of ``paracomplex`` evaluates blocks of points.  These are the
# per-point forms it replaced; the block kernel must give the same floats, so
# the tests compare the two with ``==``.


def table_values(F: ChartPotential, point) -> list[float]:
    """Every row of ``F.derivatives.exact`` at one float point, one point at a time."""
    table = F.derivatives
    if len(point) != 2 * F.n:
        raise DomainError("point length must be twice the chart dimension")
    powers = [1.0]
    for x, top in zip(point, table._top):
        powers.extend(itertools.accumulate(itertools.repeat(x, top), mul))
    p = sum(c * math.prod(powers[i] for i in table._gather[m]) for c, m in table._p_terms)
    if p <= 0:
        raise SingularPointError(f"log argument {p} is not positive")
    powers.extend(p**-k for k in range(1, table._kmax + 1))
    mono = [math.prod(powers[i] for i in gather) for gather in table._gather]
    vals = [0.0] * len(table.exact)
    for r, m, c in table.triplets[: -len(F.p)]:
        vals[r] += c * mono[m]
    return vals


def gauss_jordan(m) -> tuple[list[list[float]] | None, float]:
    """(inverse, determinant) of one square float matrix, by Gauss-Jordan
    elimination with partial pivoting.  A zero pivot column gives (None, 0.0).
    """
    n = len(m)
    rows = [[*row, *[0.0] * n] for row in m]
    for i in range(n):
        rows[i][n + i] = 1.0
    det = 1.0
    for c in range(n):
        r = c
        for i in range(c + 1, n):
            if abs(rows[i][c]) > abs(rows[r][c]):
                r = i
        pivot = rows[r][c]
        if pivot == 0:
            return None, 0.0
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det *= pivot
        rows[c] = row = [x / pivot for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], row)]
    return [row[n:] for row in rows], det


def _dot(x, y) -> float:
    return sum(map(mul, x, y))


def metric_sample(F: ChartPotential, point) -> tuple[list, list]:
    """(g, log-det Hessian) at one point, each a list of rows, one point at a time.

    d_ua d_vb log|det g| = tr(g^-1 d_ua d_vb g) - tr(g^-1 d_ua g g^-1 d_vb g);
    row i of the products with g^-1 is sum_k (g^-1)[i][k] (row k of every
    d_ut g, then every d_vd g), summed lazily in k order.
    """
    point = tuple(map(float, point))
    n, n2, span = F.n, F.n**2, 2 * F.n**2
    vals = table_values(F, point)
    g = [vals[i : i + n] for i in range(0, n2, n)]
    ginv, det = gauss_jordan(g)
    if abs(det) < 1e-12:
        raise SingularPointError(f"metric is singular at {point}")
    stacked = [[vals[n2 + t * n2 + k * n + j] for t in range(2 * n) for j in range(n)]
               for k in range(n)]
    ab = []
    for weights in ginv:
        combination = map(mul, itertools.repeat(weights[0]), stacked[0])
        for w, row in zip(weights[1:], stacked[1:]):
            combination = map(add, combination, map(mul, itertools.repeat(w), row))
        ab.extend(combination)
    lefts = [[ab[i * span + c * n + j] for i in range(n) for j in range(n)] for c in range(n)]
    rights = [[ab[j * span + (n + d) * n + i] for i in range(n) for j in range(n)]
              for d in range(n)]
    ginv_t = [x for column in zip(*ginv) for x in column]
    trace = [_dot(vals[i : i + n2], ginv_t) for i in range(n2 + 2 * n**3, len(vals), n2)]
    ldh = [[trace[c * n + d] - _dot(lefts[c], rights[d]) for d in range(n)] for c in range(n)]
    return g, ldh


def einstein_residual(F: ChartPotential, lam: float, points):
    """(max-norm of ric - lambda * g, the first point attaining it), one point at a time."""
    defects = []
    for p in points:
        point = tuple(map(float, p))
        g, ldh = metric_sample(F, point)
        defect = max(abs(-h - lam * x) for hrow, grow in zip(ldh, g) for h, x in zip(hrow, grow))
        defects.append((defect, point))
    return max(defects, key=lambda d: d[0], default=(0.0, None))


# -- Christoffel block ------------------------------------------------------------------
#
# G[a][b][c] = sum_m (M^-1)[m][a] d^3 f / du^b du^c dv^m, read from the d_u g rows of
# the derivative table through the block path (a block of one).


def christoffel(F: ChartPotential, point) -> list[list[list[float]]]:
    """Christoffel block G[a][b][c], symmetric in (b, c); mixed components vanish."""
    point, n = tuple(map(float, point)), F.n
    vals, ginv, _ = _metric_block(F, [point], n * n + n**3)
    third, columns = _rows(vals[n * n :], n), list(zip(*([x for (x,) in r] for r in ginv)))
    return [[[_dot(col, third[b * n + c]) for c in range(n)] for b in range(n)] for col in columns]
