"""A chart-level numeric curvature lab: potential -> metric -> log-det Hessian -> residual.

A potential F on C^n is evaluated in adapted real coordinates, stored as one
flat vector (z_plus^1..z_plus^n, z_minus^1..z_minus^n) called ``(u, v)``
below.  Because F is real-valued, its split-plus value f(u, v)
determines everything; the minus component is the mirror f(v, u).  In this
frame:

    metric block      M[a][b]   = d^2 f / du^a dv^b
    Ricci block       ric[a][b] = - d^2 log|det M| / du^a dv^b

The Ricci sign is the one that makes F = log(1 + z zbar) Einstein with a
positive constant (lambda = 2 for n = 1); the opposite sign fails that model.

A ``ChartPotential`` is the data (c, P, Q) of f = c log P + Q, P and Q
polynomials (log model: c = scale, P = 1 + sum u_k v_k, Q = 0; polynomial:
c = 0, P = 1).  ``DerivativeTable`` differentiates f exactly, once, into sparse
(row, column, coefficient) triplets.  The float path evaluates a block of points
at once (one point is a block of one), one column, a list over the points, per
value.  Each point is pivoted on its own and gets the floats it would get alone,
in a fixed order that may differ from BLAS/LAPACK in the last bits.  ``split_value``
stays off that path as an independent oracle; the split-complex arithmetic, the
Christoffel block and the nested finite differences of the tests are the others
(``tests/reference.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction as Q
from operator import add, itemgetter, mul, neg, sub, truediv

from .config import Fields, finite_float, float_rational, integer
from .errors import ConfigError, DomainError, SingularPointError


# -- potentials -----------------------------------------------------------------

Monomial = tuple[tuple[int, ...], tuple[int, ...], Q]  # (z exps, zbar exps, coeff)

PolyTable = dict[tuple[tuple[int, ...], tuple[int, ...]], Q]


class ChartPotential:
    """The real-valued potential f = c log P + Q on a chart of C^n.

    P and Q map (z exponents, zbar exponents) to rational coefficients; real
    values demand each table be symmetric under swapping the two.  Entries
    that sum to 0 are dropped after that check.  Immutable by convention.
    """

    def __init__(self, n: int, c: Q, p: PolyTable, q: PolyTable) -> None:
        if n < 1:
            raise DomainError("chart dimension must be at least 1")
        for table in (p, q):
            for (a, b), coeff in table.items():
                if len(a) != n or len(b) != n:
                    raise DomainError("monomial exponent length != chart dimension")
                if table.get((b, a), 0) != coeff:
                    raise DomainError(
                        "potential is not real-valued: coefficient of "
                        f"z^{a} zbar^{b} has no matching conjugate term"
                    )
        self.n, self.c = n, c
        self.p = {k: v for k, v in p.items() if v}
        self.q = {k: v for k, v in q.items() if v}

    # The split-plus coordinate function f(u, v); the full potential value at
    # an adapted point has split coordinates (f(u, v), f(v, u)).
    def split_value(self, u, v):
        value = _poly_eval(self.q, u, v)
        if self.c:  # no float log term in an exact polynomial value
            arg = _poly_eval(self.p, u, v)
            if arg <= 0:
                raise SingularPointError(f"log argument {arg} is not positive")
            value = value + float(self.c) * math.log(arg)
        return value

    @functools.cached_property
    def derivatives(self) -> DerivativeTable:
        """The exact derivative table of f, built on first use and kept."""
        return DerivativeTable(self)


def flat_potential(n: int) -> ChartPotential:
    """F = sum_k z^k zbar^k: constant identity metric, zero curvature."""
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return polynomial_potential(n, [(a, a, 1) for a in units])


def log_model_potential(n: int = 1, scale=1) -> ChartPotential:
    """F = scale * log(1 + sum z^k zbar^k), the nonflat Einstein model."""
    zero = (0,) * n
    return ChartPotential(n, Q(scale), {(zero, zero): 1, **flat_potential(n).q}, {})


def polynomial_potential(n: int, monomials) -> ChartPotential:
    """F = sum of coeff * z^a * zbar^b over the (a, b, coeff) monomials."""
    q: PolyTable = {}
    for a, b, coeff in monomials:
        q[(a, b)] = q.get((a, b), 0) + coeff
    return ChartPotential(n, 0, {((0,) * n, (0,) * n): 1}, q)


# -- points ----------------------------------------------------------------------


def grid_points(F: ChartPotential, extent: float, count: int,
                margin: float = 0.1) -> list[tuple[float, ...]]:
    """Admissible points of a regular grid with |coordinate| <= extent, of at most
    200,000 points: count <= 447, 21, 7, 4, 3, 2, 2, 2 for n = 1..8."""
    if count < 1:
        raise DomainError("grid count must be positive")
    if count ** (2 * F.n) > 200_000:
        raise DomainError("grid too large; reduce count or dimension")
    axis = [-extent + 2 * extent * k / (count - 1) for k in range(count)] if count > 1 else [0.0]
    points = list(itertools.product(axis, repeat=2 * F.n))
    if not F.c:
        return points
    return [c for c, p in zip(points, _poly_columns(F.p, list(zip(*points)))) if p >= margin]


# -- symbolic polynomial derivatives ----------------------------------------------


def _poly_diff(table: PolyTable, axis: int, side: str) -> PolyTable:
    out: PolyTable = {}
    for (a, b), coeff in table.items():
        exps = a if side == "u" else b
        e = exps[axis]
        if not e:
            continue
        reduced = tuple(x - int(i == axis) for i, x in enumerate(exps))
        key = (reduced, b) if side == "u" else (a, reduced)
        out[key] = out.get(key, 0) + coeff * e
    return out


def _poly_eval(table: PolyTable, u, v):
    return _poly_columns(table, [[x] for x in (*u, *v)])[0]


def _poly_columns(table: PolyTable, coords) -> list:
    """A polynomial over a block of points, given as coordinate columns (u, then v):
    each term is its coefficient times x^e per coordinate in order, summed from 0."""
    total = [0] * len(coords[0])
    for (a, b), coeff in table.items():
        term = [coeff] * len(total)
        for x, e in zip(coords, a + b):
            if e:
                term = list(map(mul, term, map(pow, x, itertools.repeat(e))))
        total = list(map(add, total, term))
    return total


# (u exps, v exps, k) -> coeff, standing for sum coeff * u^a v^b / P^k.
QuotientTable = dict[tuple[tuple[int, ...], tuple[int, ...], int], Q]


class DerivativeTable:
    """Exact derivatives of the split-plus function f = c log P + Q.

    ``exact`` lists g_ab = d^2 f / du_a dv_b, then d g_ab / du_c,
    d g_ab / dv_d and d^2 g_ab / du_c dv_d, each flattened in index order
    (c, d, a, b), as quotient tables with rational coefficients (int where
    integral).  ``triplets`` holds the same rows, and last the row of P, as
    sparse (row, column, float coefficient) entries; column m stands for the
    monomial u^a v^b / P^k of ``monomials[m]``.  ``columns`` is the one
    reader: the leading rows over a block of points, one column per row.
    """

    def __init__(self, F: ChartPotential) -> None:
        n = self.n = F.n
        self.p = F.p
        g = []
        for a in range(n):  # df / du_a = dQ / du_a + c (dP / du_a) / P
            first = {(*key, 0): c for key, c in _poly_diff(F.q, a, "u").items()}
            first.update(((*key, 1), F.c * dp) for key, dp in _poly_diff(F.p, a, "u").items())
            g.extend(self._diff(first, b, "v") for b in range(n))
        gu = [self._diff(gab, c, "u") for c in range(n) for gab in g]
        gv = [self._diff(gab, d, "v") for d in range(n) for gab in g]
        self.exact = g + gu + gv + [self._diff(x, c, "u") for c in range(n) for x in gv]

        rows = [*self.exact, {(*key, 0): c for key, c in self.p.items()}]  # last: P
        self.monomials = sorted({key for table in rows for key in table})
        col = {m: i for i, m in enumerate(self.monomials)}
        floats: dict[float, float] = {}  # one float object per distinct coefficient
        try:
            self.triplets = [
                (r, col[key], floats.setdefault(float(c), float(c)))
                for r, table in enumerate(rows)
                for key, c in table.items()
            ]
        except OverflowError:
            raise DomainError("a derivative coefficient is outside the float range") from None

        # A block's power columns are 1, x_i^1..x_i^top_i for each coordinate i, then
        # P^-1..P^-kmax; monomial m multiplies the columns _gather[m] picks, in order.
        self._top = [max((a + b)[i] for a, b, _ in self.monomials) for i in range(2 * n)]
        start = list(itertools.accumulate(self._top, initial=0))
        self._gather = [
            [start[i] + e for i, e in enumerate(a + b) if e] + [start[-1] + k] * (k > 0) or [0]
            for a, b, k in self.monomials
        ]
        self._kmax = max(k for _, _, k in self.monomials)
        terms: list[list] = [[] for _ in rows]
        for r, m, c in self.triplets:
            terms[r].append((m, c))
        self._p_terms = [(c, m) for m, c in terms.pop()]
        # Identical rows are summed once: _at[r] numbers row r's terms in order of first use.
        distinct: dict[tuple, int] = {}
        self._at = [distinct.setdefault(tuple(row), len(distinct)) for row in terms]
        self._distinct = list(distinct)

    def _diff(self, table: QuotientTable, axis: int, side: str) -> QuotientTable:
        """Quotient rule per term: d(N / P^k) = N' / P^k - k N P' / P^(k+1)."""
        dp = _poly_diff(self.p, axis, side)
        out: QuotientTable = {}
        for (a, b, k), coeff in table.items():
            for (da, db), c in _poly_diff({(a, b): coeff}, axis, side).items():
                out[(da, db, k)] = out.get((da, db, k), 0) + c
            for (pa, pb), c in dp.items():
                key = (tuple(map(sum, zip(a, pa))), tuple(map(sum, zip(b, pb))), k + 1)
                out[key] = out.get(key, 0) - k * coeff * c
        return {m: c if c.denominator > 1 else c.numerator for m, c in out.items() if c}

    def columns(self, points, rows: int | None = None) -> tuple[list, Exception | None]:
        """Rows ``[:rows]`` of ``exact`` (all by default) over a block of points, one
        column (a list over the points) per row, stopping at the first point that fails,
        and its error (or None).  Each point gets the floats it would get alone."""
        bad = next((j for j, p in enumerate(points) if len(p) != 2 * self.n), None)
        if bad is not None:  # the points before it, then its error unless one of them fails
            vals, error = self.columns(points[:bad], rows)
            return vals, error or DomainError("point length must be twice the chart dimension")
        powers = [[1] * len(points)]  # math.prod(()) is the int 1

        def monomial(m):  # the power columns _gather[m] picks, multiplied in order, lazily
            return functools.reduce(_lazy_times, map(powers.__getitem__, self._gather[m]))

        for i, top in enumerate(self._top):  # x, x*x, (x*x)*x, ...
            powers += itertools.accumulate(itertools.repeat([p[i] for p in points], top), _times)
        terms = [[c * x for x in monomial(m)] for c, m in self._p_terms]
        inverse = []  # P^-1..P^-kmax by point, never at a point with P <= 0
        try:
            for p in map(sum, zip(*terms)) if terms else [0] * len(points):
                if p <= 0:
                    raise SingularPointError(f"log argument {p} is not positive")
                inverse.append([p**-k for k in range(1, self._kmax + 1)])
        except (SingularPointError, OverflowError) as exc:  # the points before this one
            return self.columns(points[: len(inverse)], rows)[0], exc
        powers += [[i[k] for i in inverse] for k in range(self._kmax)]

        def add_term(acc, term):  # a row is 0.0 + c m + c' m' + ..., in triplet order
            return map(add, acc, map(mul, itertools.repeat(term[1]), monomial(term[0])))

        at = self._at[:rows]
        vals = [list(functools.reduce(add_term, row, [0.0] * len(points)))
                for row in self._distinct[: max(at) + 1]]
        return list(map(vals.__getitem__, at)), None


def _times(x, y) -> list:
    return list(map(mul, x, y))


_lazy_times, _lazy_add = functools.partial(map, mul), functools.partial(map, add)


# -- finite differences -------------------------------------------------------------


def _stencil(m2, m1, p1, p2, denom: float):
    """(f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / 12h, entry by entry on nested lists."""
    if isinstance(m2, list):
        return [_stencil(*entries, denom) for entries in zip(m2, m1, p1, p2)]
    return (m2 - 8 * m1 + 8 * p1 - p2) / denom


# -- metric and Ricci --------------------------------------------------------------

FD_STEP_OUTER = 1e-2


class MetricSample:
    """Metric data at one chart point, as lists of rows of floats.

    ``g`` is the adapted mixed Hessian block d^2 F / dz_plus^a dz_minus^b;
    the para-Hermitian components are g_{a bbar} = e_+ g[a][b] + e_- g[b][a].
    ``logdet_hessian`` is the mixed Hessian of log|det g| (the negative of
    the Ricci block).
    """

    def __init__(self, point: tuple[float, ...], g: list[list[float]],
                 logdet_hessian: list[list[float]]) -> None:
        self.point, self.g, self.logdet_hessian = point, g, logdet_hessian


def metric_matrix(F: ChartPotential, point) -> list[list[float]]:
    """The n x n adapted metric block at a point, as a list of rows of floats."""
    vals, error = F.derivatives.columns([point], F.n**2)
    if error is not None:
        raise error
    return _rows(vals, F.n)


def _gauss_jordan(m) -> tuple[list, list[float]]:
    """(inverse, determinants) of a block of float matrices, m[i][j] a column over the
    block, by Gauss-Jordan elimination with partial pivoting per point.  A zero pivot
    column gives that point alone determinant 0.0."""
    n, count = len(m), len(m[0][0])
    rows = [[*row, *([float(i == j)] * count for j in range(n))] for i, row in enumerate(m)]
    det, dead = [1.0] * count, [False] * count
    for c in range(n):
        pick = [c] * count
        for i in range(c + 1, n):  # the first strict maximum of |column c| pivots
            pick = [i if abs(x) > abs(rows[k][c][b]) else k
                    for b, (x, k) in enumerate(zip(rows[i][c], pick))]
        if any(k != c for k in pick):  # at point b, rows c and pick[b] trade places
            order = [[k if i == c else c if i == k else i for k in pick] for i in range(n)]
            rows = [[[rows[k][j][b] for b, k in enumerate(o)] for j in range(2 * n)] for o in order]
        dead = [d or not p for d, p in zip(dead, rows[c][c])]
        pivot = [p or 1.0 for p in rows[c][c]]  # a dead point's values are dropped
        det = [(-d if k != c else d) * p for d, k, p in zip(det, pick, pivot)]
        rows[c] = row = [list(map(truediv, x, pivot)) for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and any(f):  # row i minus f times row c, where f is nonzero
                rows[i] = [[a - b * d if b else a for a, d, b in zip(*xy, f)]
                           for xy in zip(rows[i], row)]
    return [row[n:] for row in rows], [0.0 if s else d for s, d in zip(dead, det)]


def _metric_block(F: ChartPotential, points, rows: int | None = None,
                  regular: slice = slice(None)) -> tuple[list, list, list]:
    """Table columns, g^-1 and det g over a block; the first failing point raises, where
    only the points ``points[regular]`` fail on a singular metric."""
    vals, error = F.derivatives.columns(points, rows)
    ginv, det = _gauss_jordan([vals[i : i + F.n] for i in range(0, F.n**2, F.n)])
    for point, d in zip(points[regular], det[regular]):
        if abs(d) < 1e-12:
            raise SingularPointError(f"metric is singular at {point}")
    if error is not None:
        raise error
    return vals, ginv, det


def _dot(x, y) -> float:
    return sum(map(mul, x, y))


def _logdet_hessian(vals, ginv, n: int) -> list[list[float]]:
    """d_ua d_vb log|det g| = tr(g^-1 d_ua d_vb g) - tr(g^-1 d_ua g g^-1 d_vb g)
    over a block, as n^2 columns in (a, b) order, with tr(A B) = sum_ij A_ij B_ji.
    M_t = d_ut g (t < n) or d_v(t-n) g, M_t[k][j] at table row n^2 + t n^2 + k n + j;
    row i of ab = g^-1 [M_0 | ... | M_2n-1] sums (g^-1)[i][k] (row k of every M_t)."""
    n2, span, ns = n * n, 2 * n * n, range(n)
    stacked = [[n2 + t * n2 + k * n + j for t in range(2 * n) for j in ns] for k in ns]
    ab = [list(functools.reduce(_lazy_add, map(_lazy_times, w, [vals[r[e]] for r in stacked])))
          for w in ginv for e in range(span)]
    ginv_t, out = [x for column in zip(*ginv) for x in column], []
    for c, d in itertools.product(ns, ns):  # each trace is a sum(map(mul, ...)) per point
        left = [ab[i * span + c * n + j] for i in ns for j in ns]
        right = [ab[j * span + (n + d) * n + i] for i in ns for j in ns]
        at = n2 + 2 * n**3 + (c * n + d) * n2
        trace = map(sum, zip(*map(_lazy_times, vals[at : at + n2], ginv_t)))
        out.append(list(map(sub, trace, map(sum, zip(*map(_lazy_times, left, right))))))
    return out


def _rows(cols, n: int) -> list[list[float]]:
    """The columns of a block of one point, as rows of n."""
    return [[x for (x,) in cols[i : i + n]] for i in range(0, len(cols), n)]


def metric_from_potential(F: ChartPotential, point) -> MetricSample:
    """Metric block and log-det Hessian at an admissible point, as a block of one."""
    point, n = tuple(map(float, point)), F.n
    vals, ginv, _ = _metric_block(F, [point])
    return MetricSample(point, _rows(vals[: n * n], n), _rows(_logdet_hessian(vals, ginv, n), n))


BLOCK = 64  # grid points that einstein_residual evaluates together


def einstein_residual(F: ChartPotential, lam: float, points):
    """(max-norm of ric - lambda * g over admissible points, the first point attaining it),
    in blocks of ``BLOCK``; (0.0, None) for no points."""
    points, defects = iter(points), []
    while block := [tuple(map(float, p)) for p in itertools.islice(points, BLOCK)]:
        vals, ginv, _ = _metric_block(F, block)
        # |-h - lam x| per (a, b) column, then the max per point over (a, b) in order.
        columns = (map(abs, map(sub, map(neg, h), map(mul, itertools.repeat(lam), x)))
                   for h, x in zip(_logdet_hessian(vals, ginv, F.n), vals))
        defects += zip(functools.reduce(functools.partial(map, max), columns), block)
    return max(defects, key=itemgetter(0), default=(0.0, None))


def fit_lambda(F: ChartPotential, point) -> float:
    """Least-squares fit of ric = lambda * g at one point."""
    sample = metric_from_potential(F, point)
    g = [x for row in sample.g for x in row]
    denom = _dot(g, g)
    if denom == 0:
        raise SingularPointError("cannot fit lambda against a zero metric")
    return -_dot([x for row in sample.logdet_hessian for x in row], g) / denom


def determinant_identity_residual(F: ChartPotential, pairs) -> list[float]:
    """|d det(g)/du_axis - det(g) tr(g^-1 dg/du_axis)| by a 5-point stencil, one per
    (point, axis) pair of the list.  Every pair's stencil points and then its centre join
    one block; the first to fail raises, and only a centre's metric must be nonsingular."""
    n, block, denoms = F.n, [], []
    for centre, axis in pairs:
        centre = tuple(map(float, centre))
        step = FD_STEP_OUTER * max(1.0, abs(centre[axis]))
        for k in (-2, -1, 1, 2):
            q = list(centre)
            q[axis] += k * step
            block.append(tuple(q))
        block.append(centre)
        denoms.append(12 * step)
    vals, ginv, det = _metric_block(F, block, n * n, slice(4, None, 5))  # centres regular
    out = []
    for at, denom in zip(range(0, len(block), 5), denoms):
        # The stencil is elementwise, so one stencil differentiates det g and g.
        lhs, dm = _stencil(*([det[j], [[x[j] for x in vals[i : i + n]] for i in range(0, n * n, n)]]
                             for j in range(at, at + 4)), denom)
        inverse = [x[at + 4] for row in ginv for x in row]
        rhs = det[at + 4] * _dot(inverse, [x for col in zip(*dm) for x in col])
        out.append(abs(lhs - rhs))
    return out


# -- config parsing --------------------------------------------------------------------

_MONO_FACTOR = re.compile(r"^(z|zbar)(\d+)(?:\^(\d+))?$")
_COMMON_KEYS = ("n", "kind", "lambda", "extent", "grid", "margin")
_KIND_KEYS = {"builtin": ("builtin", "scale"), "polynomial": ("monomial",)}
_BUILTINS = {"log1p_zzbar": log_model_potential}
_MAX_CHART_DIM = 8  # beyond it, 2+ points per axis exceed the grid_points limit


def _parse_monomial(text: str, where: str, n: int) -> Monomial:
    parts = [p.strip() for p in text.split("*") if p.strip()]
    if not parts:
        raise ConfigError(f"{where} is empty")
    coeff = float_rational(parts[0], f"{where} coefficient")
    exps = {"z": [0] * n, "zbar": [0] * n}
    for factor in parts[1:]:
        m = _MONO_FACTOR.match(factor)
        if not m:
            raise ConfigError(f"{where} has a bad factor {factor!r}")
        idx = integer(m.group(2), f"{where} variable index")
        exp = integer(m.group(3) or "1", f"{where} exponent")
        if not 1 <= idx <= n:
            raise ConfigError(f"{where} has variable index {idx} out of range 1..{n}")
        exps[m.group(1)][idx - 1] += exp
    return tuple(exps["z"]), tuple(exps["zbar"]), coeff


def parse_potential_config(text: str) -> tuple[ChartPotential, dict]:
    """Parse a line-oriented potential description.

    Keys: ``n``, ``kind`` (polynomial | builtin), ``builtin``, ``scale``,
    repeated ``monomial = coeff * z1^a1 * zbar1^b1 ...`` lines, and the
    sampling options ``lambda``, ``extent``, ``grid``, ``margin``.  Unknown
    keys and keys of the other kind are errors.  The options also carry
    ``kind`` and ``builtin`` (None for a polynomial) for the report.
    """
    all_keys = _COMMON_KEYS + sum(_KIND_KEYS.values(), ())
    fields = Fields(text, all_keys, required=("n",), repeated=("monomial",))
    n = fields.get("n", integer)
    if not 1 <= n <= _MAX_CHART_DIM:  # exponent vectors have length n
        raise ConfigError(f"line {fields.line('n')}: n must be between 1 and {_MAX_CHART_DIM}")
    kind = fields.get("kind", default="polynomial").lower()
    if kind not in _KIND_KEYS:
        raise ConfigError(f"line {fields.line('kind')}: unknown kind {kind!r}")
    for key in fields.lines:
        if key not in _COMMON_KEYS + _KIND_KEYS[kind]:
            raise ConfigError(f"line {fields.line(key)}: {key!r} is not valid for kind = {kind}")
    builtin = None
    if kind == "builtin":
        builtin = fields.get("builtin", default="log1p_zzbar")
        if builtin not in _BUILTINS:
            raise ConfigError(f"line {fields.line('builtin')}: unknown builtin {builtin!r}")
        potential = _BUILTINS[builtin](n, fields.get("scale", float_rational, Q(1)))
    else:
        monomials = fields.all("monomial", lambda value, where: _parse_monomial(value, where, n))
        if not monomials:
            raise ConfigError("polynomial potential needs at least one monomial")
        potential = polynomial_potential(n, monomials)
    options = {
        "kind": kind,
        "builtin": builtin,
        "lambda": fields.get("lambda", float_rational),
        "extent": fields.get("extent", finite_float, 0.3),
        "grid": fields.get("grid", integer, 9),
        "margin": fields.get("margin", finite_float, 0.1),
    }
    return potential, options
