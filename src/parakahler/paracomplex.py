"""Split-complex arithmetic and a chart-level numeric curvature lab.

Numbers: z = x + e y with e^2 = 1.  The idempotents (1+e)/2 and (1-e)/2
diagonalize the algebra, so every z carries split coordinates
(plus, minus) = (x+y, x-y), and multiplication acts componentwise.  The null
cone plus*minus = 0 is where inversion fails.

Charts: a potential F on C^n is evaluated in adapted real coordinates,
stored as one flat vector (z_plus^1..z_plus^n, z_minus^1..z_minus^n) called
``(u, v)`` below.  Because F is real-valued, its split-plus value f(u, v)
determines everything; the minus component is the mirror f(v, u).  In this
frame:

    metric block      M[a][b]   = d^2 f / du^a dv^b
    Christoffel       G[a][b][c] = sum_m (M^-1)[m][a] d^3 f / du^b du^c dv^m
    Ricci block       ric[a][b] = - d^2 log|det M| / du^a dv^b

The Ricci sign is the one that makes F = log(1 + z zbar) Einstein with a
positive constant (lambda = 2 for n = 1); the opposite sign fails that model.

Polynomial potentials are differentiated symbolically (exact rational
coefficients); builtin potentials use 5-point central differences, fourth
order, with the step scaled by the coordinate magnitude.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .errors import ConfigError, DomainError, NullConeError, SingularPointError


@dataclass(frozen=True)
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

    def is_null(self) -> bool:
        return self.modulus_sq() == 0

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
PC_ONE = ParaComplex(1, 0)


def pc(x, y=0) -> ParaComplex:
    return ParaComplex(x, y)


def pc_mul(z: ParaComplex, w: ParaComplex) -> ParaComplex:
    return z * w


def pc_conj(z: ParaComplex) -> ParaComplex:
    return z.conj()


def pc_inv(z: ParaComplex) -> ParaComplex:
    return z.inverse()


# -- potentials -----------------------------------------------------------------

Monomial = tuple[tuple[int, ...], tuple[int, ...], Q]  # (z exps, zbar exps, coeff)

BUILTIN_NAMES = ("log1p_zzbar",)


@dataclass(frozen=True)
class ChartPotential:
    """A real-valued potential on a chart of C^n.

    Polynomial kind: sum of coeff * z^a * zbar^b monomials with rational
    coefficients; real-valuedness demands the coefficient map be symmetric
    under swapping a and b.  Builtin kind: a named closed form, currently
    ``log1p_zzbar`` = scale * log(1 + sum z^k zbar^k).
    """

    n: int
    kind: str
    monomials: tuple[Monomial, ...] = ()
    builtin: str | None = None
    scale: Q = Q(1)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("chart dimension must be at least 1")
        if self.kind == "polynomial":
            table: dict[tuple, Q] = {}
            for a, b, coeff in self.monomials:
                if len(a) != self.n or len(b) != self.n:
                    raise DomainError("monomial exponent length != chart dimension")
                key = (a, b)
                table[key] = table.get(key, Q(0)) + coeff
            for (a, b), coeff in table.items():
                if table.get((b, a), Q(0)) != coeff:
                    raise DomainError(
                        "potential is not real-valued: coefficient of "
                        f"z^{a} zbar^{b} has no matching conjugate term"
                    )
        elif self.kind == "builtin":
            if self.builtin not in BUILTIN_NAMES:
                raise DomainError(f"unknown builtin potential {self.builtin!r}")
        else:
            raise DomainError(f"unknown potential kind {self.kind!r}")

    # The split-plus coordinate function f(u, v); the full potential value at
    # an adapted point is ParaComplex.from_split(f(u, v), f(v, u)).
    def plus_poly(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Q]:
        table: dict[tuple, Q] = {}
        for a, b, coeff in self.monomials:
            key = (a, b)
            table[key] = table.get(key, Q(0)) + coeff
        return {k: c for k, c in table.items() if c}

    def split_value(self, u, v):
        if self.kind == "polynomial":
            return _poly_eval(self.plus_poly(), u, v)
        arg = 1 + sum(uk * vk for uk, vk in zip(u, v))
        if arg <= 0:
            raise SingularPointError(f"log argument {arg} is not positive")
        return float(self.scale) * math.log(arg)


def flat_potential(n: int) -> ChartPotential:
    """F = sum_k z^k zbar^k: constant identity metric, zero curvature."""
    monomials = []
    for k in range(n):
        a = tuple(int(i == k) for i in range(n))
        monomials.append((a, a, Q(1)))
    return ChartPotential(n=n, kind="polynomial", monomials=tuple(monomials))


def log_model_potential(n: int = 1, scale=1) -> ChartPotential:
    """F = scale * log(1 + sum z^k zbar^k), the nonflat Einstein model."""
    return ChartPotential(n=n, kind="builtin", builtin="log1p_zzbar", scale=Q(scale))


def polynomial_potential(n: int, monomials) -> ChartPotential:
    return ChartPotential(n=n, kind="polynomial", monomials=tuple(monomials))


# -- points ----------------------------------------------------------------------


def paraholomorphic_coords(point, n: int) -> list[ParaComplex]:
    """The chart values z^k as para-complex numbers, from adapted coords."""
    u, v = point[:n], point[n:]
    return [ParaComplex.from_split(uk, vk) for uk, vk in zip(u, v)]


def admissible(F: ChartPotential, point, margin: float = 0.1) -> bool:
    """Is the point clear of potential singularities and the null cone?"""
    n = F.n
    u, v = point[:n], point[n:]
    if F.kind == "builtin":
        arg = 1 + sum(uk * vk for uk, vk in zip(u, v))
        mirror = 1 + sum(vk * uk for uk, vk in zip(u, v))
        return min(arg, mirror) >= margin
    return True


def grid_points(
    F: ChartPotential, extent: float, count: int, margin: float = 0.1
) -> list[tuple[float, ...]]:
    """Admissible points of a regular grid with |coordinate| <= extent."""
    if count < 1:
        raise DomainError("grid count must be positive")
    axis = (
        [0.0]
        if count == 1
        else [-extent + 2 * extent * k / (count - 1) for k in range(count)]
    )
    if len(axis) ** (2 * F.n) > 200_000:
        raise DomainError("grid too large; reduce count or dimension")
    pts = []
    for combo in itertools.product(axis, repeat=2 * F.n):
        if admissible(F, combo, margin):
            pts.append(tuple(combo))
    return pts


# -- symbolic polynomial derivatives ----------------------------------------------

PolyTable = dict[tuple[tuple[int, ...], tuple[int, ...]], Q]


def _poly_diff(table: PolyTable, axis: int, side: str) -> PolyTable:
    out: PolyTable = {}
    for (a, b), coeff in table.items():
        exps = a if side == "u" else b
        e = exps[axis]
        if not e:
            continue
        reduced = tuple(x - int(i == axis) for i, x in enumerate(exps))
        key = (reduced, b) if side == "u" else (a, reduced)
        out[key] = out.get(key, Q(0)) + coeff * e
    return out


def _poly_eval(table: PolyTable, u, v):
    total = 0
    for (a, b), coeff in table.items():
        term = coeff
        for uk, ak in zip(u, a):
            if ak:
                term = term * uk**ak
        for vk, bk in zip(v, b):
            if bk:
                term = term * vk**bk
        total = total + term
    return total


def poly_mixed_hessian_exact(F: ChartPotential, u, v) -> list[list[Q]]:
    """Metric block d^2 f / du^a dv^b by symbolic differentiation.

    Exact (Fraction-valued) when the point is rational; float otherwise.
    """
    if F.kind != "polynomial":
        raise DomainError("exact Hessian needs a polynomial potential")
    base = F.plus_poly()
    n = F.n
    out = []
    for a in range(n):
        da = _poly_diff(base, a, "u")
        out.append([_poly_eval(_poly_diff(da, b, "v"), u, v) for b in range(n)])
    return out


def mixed_partial_pc(F: ChartPotential, a_idx: int, b_idx: int, z) -> ParaComplex:
    """d_a d_bbar F at para-complex chart values z, via split-complex algebra.

    Differentiates the z / zbar monomials symbolically and evaluates the
    result with ParaComplex arithmetic; an independent route to the metric.
    """
    if F.kind != "polynomial":
        raise DomainError("para-holomorphic differentiation needs a polynomial")
    zbar = [w.conj() for w in z]
    total = ParaComplex(0, 0)
    for a, b, coeff in F.monomials:
        if not a[a_idx] or not b[b_idx]:
            continue
        factor = Q(a[a_idx]) * b[b_idx] * coeff
        term = ParaComplex(factor, factor * 0)
        for k, ak in enumerate(a):
            e = ak - int(k == a_idx)
            for _ in range(e):
                term = term * z[k]
        for k, bk in enumerate(b):
            e = bk - int(k == b_idx)
            for _ in range(e):
                term = term * zbar[k]
        total = total + term
    return total


# -- finite differences -------------------------------------------------------------


def _fd1(fn, point, axis: int, h: float) -> float:
    step = h * max(1.0, abs(point[axis]))

    def at(offset: float) -> float:
        q = list(point)
        q[axis] += offset
        return fn(tuple(q))

    return (at(-2 * step) - 8 * at(-step) + 8 * at(step) - at(2 * step)) / (12 * step)


def fd_partial(fn, point, axes, h: float) -> float:
    """Nested 5-point stencils; axes sorted so mixed partials are symmetric."""
    axes = sorted(axes)
    if not axes:
        return fn(tuple(point))
    first, rest = axes[0], tuple(axes[1:])
    if not rest:
        return _fd1(fn, point, first, h)
    return _fd1(lambda q: fd_partial(fn, q, rest, h), point, first, h)


# -- metric, Christoffel, Ricci -------------------------------------------------------

FD_STEP = 1e-3
FD_STEP_OUTER = 1e-2


@dataclass
class MetricSample:
    """Metric data at one chart point.

    ``g`` is the adapted mixed Hessian block d^2 F / dz_plus^a dz_minus^b;
    the para-Hermitian components are g_{a bbar} = e_+ g[a][b] + e_- g[b][a].
    ``logdet_hessian`` is the mixed Hessian of log|det g| (the negative of
    the Ricci block).
    """

    point: tuple[float, ...]
    g: np.ndarray
    logdet_hessian: np.ndarray


def metric_matrix(F: ChartPotential, point) -> np.ndarray:
    """The n x n adapted metric block at a point (floats)."""
    n = F.n
    if len(point) != 2 * n:
        raise DomainError("point length must be twice the chart dimension")
    if F.kind == "polynomial":
        exact = poly_mixed_hessian_exact(F, point[:n], point[n:])
        return np.array([[float(x) for x in row] for row in exact])

    def f(q):
        return F.split_value(q[:n], q[n:])

    m = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            m[a, b] = fd_partial(f, point, (a, n + b), FD_STEP)
    return m


def _logdet_fn(F: ChartPotential):
    n = F.n
    ref_sign: list[float] = []

    def phi(q) -> float:
        d = float(np.linalg.det(metric_matrix(F, q)))
        if d == 0:
            raise SingularPointError(f"metric degenerates at {q}")
        if not ref_sign:
            ref_sign.append(math.copysign(1.0, d))
        elif math.copysign(1.0, d) != ref_sign[0]:
            raise SingularPointError(
                "det(g) changes sign near the sample point; log undefined"
            )
        return math.log(abs(d))

    return phi


def metric_from_potential(F: ChartPotential, point) -> MetricSample:
    """Metric block and log-det Hessian at an admissible point."""
    point = tuple(float(c) for c in point)
    g = metric_matrix(F, point)
    if abs(float(np.linalg.det(g))) < 1e-12:
        raise SingularPointError(f"metric is singular at {point}")
    n = F.n
    phi = _logdet_fn(F)
    ldh = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            ldh[a, b] = fd_partial(phi, point, (a, n + b), FD_STEP_OUTER)
    return MetricSample(point=point, g=g, logdet_hessian=ldh)


def christoffel(F: ChartPotential, point) -> np.ndarray:
    """Christoffel block G[a][b][c], symmetric in (b, c); mixed blocks vanish."""
    point = tuple(float(c) for c in point)
    n = F.n
    m = metric_matrix(F, point)
    det = float(np.linalg.det(m))
    if abs(det) < 1e-12:
        raise SingularPointError(f"metric is singular at {point}")
    minv = np.linalg.inv(m)
    third = np.empty((n, n, n))  # d^3 f / du^b du^c dv^mu
    if F.kind == "polynomial":
        base = F.plus_poly()
        for b in range(n):
            db = _poly_diff(base, b, "u")
            for c in range(b, n):
                dbc = _poly_diff(db, c, "u")
                for mu in range(n):
                    val = float(
                        _poly_eval(_poly_diff(dbc, mu, "v"), point[:n], point[n:])
                    )
                    third[b, c, mu] = val
                    third[c, b, mu] = val
    else:

        def f(q):
            return F.split_value(q[:n], q[n:])

        for b in range(n):
            for c in range(b, n):
                for mu in range(n):
                    val = fd_partial(f, point, (b, c, n + mu), FD_STEP)
                    third[b, c, mu] = val
                    third[c, b, mu] = val
    # G[a,b,c] = sum_mu (M^-1)[mu,a] * third[b,c,mu]
    return np.einsum("ma,bcm->abc", minv, third)


def ricci(F: ChartPotential, point) -> np.ndarray:
    """Ricci block ric[a][b] = -d^2 log|det g| / du^a dv^b."""
    return -metric_from_potential(F, point).logdet_hessian


def einstein_residual(F: ChartPotential, lam: float, points) -> float:
    """Max-norm of ric - lambda * g over a list of admissible points."""
    worst = 0.0
    for p in points:
        sample = metric_from_potential(F, p)
        defect = np.max(np.abs(-sample.logdet_hessian - lam * sample.g))
        worst = max(worst, float(defect))
    return worst


def fit_lambda(F: ChartPotential, point) -> float:
    """Least-squares fit of ric = lambda * g at one point."""
    sample = metric_from_potential(F, point)
    ric = -sample.logdet_hessian
    g = sample.g
    denom = float(np.sum(g * g))
    if denom == 0:
        raise SingularPointError("cannot fit lambda against a zero metric")
    return float(np.sum(ric * g) / denom)


def determinant_identity_residual(F: ChartPotential, point, axis: int = 0) -> float:
    """|d det(g)/du_axis - det(g) tr(g^-1 dg/du_axis)| at a point."""
    point = tuple(float(c) for c in point)
    n = F.n

    def detf(q) -> float:
        return float(np.linalg.det(metric_matrix(F, q)))

    lhs = fd_partial(detf, point, (axis,), FD_STEP_OUTER)
    m = metric_matrix(F, point)
    dm = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            dm[a, b] = fd_partial(
                lambda q: float(metric_matrix(F, q)[a, b]), point, (axis,), FD_STEP_OUTER
            )
    rhs = float(np.linalg.det(m)) * float(np.trace(np.linalg.inv(m) @ dm))
    return abs(lhs - rhs)


# -- config parsing --------------------------------------------------------------------

_MONO_FACTOR = re.compile(r"^(z|zbar)(\d+)(?:\^(\d+))?$")


def _parse_monomial(text: str, n: int) -> Monomial:
    parts = [p.strip() for p in text.split("*") if p.strip()]
    if not parts:
        raise ConfigError(f"empty monomial in {text!r}")
    try:
        coeff = Q(parts[0])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"monomial must start with a rational, got {parts[0]!r}")
    a = [0] * n
    b = [0] * n
    for factor in parts[1:]:
        m = _MONO_FACTOR.match(factor)
        if not m:
            raise ConfigError(f"bad monomial factor {factor!r}")
        which, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        if not 1 <= idx <= n:
            raise ConfigError(f"variable index {idx} out of range 1..{n}")
        if which == "z":
            a[idx - 1] += exp
        else:
            b[idx - 1] += exp
    return tuple(a), tuple(b), coeff


def parse_potential_config(text: str) -> tuple[ChartPotential, dict]:
    """Parse a line-oriented potential description.

    Keys: ``n``, ``kind`` (polynomial | builtin), ``builtin``, ``scale``,
    repeated ``monomial = coeff * z1^a1 * zbar1^b1 ...`` lines, and the
    sampling options ``lambda``, ``extent``, ``grid``, ``margin``.
    """
    fields: dict[str, str] = {}
    monomial_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key == "monomial":
            monomial_lines.append(value)
        elif key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        else:
            fields[key] = value
    if "n" not in fields:
        raise ConfigError("missing required key 'n'")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ConfigError(f"n must be an integer, got {fields['n']!r}") from None
    kind = fields.get("kind", "polynomial").lower()
    if kind == "builtin":
        potential = ChartPotential(
            n=n,
            kind="builtin",
            builtin=fields.get("builtin", "log1p_zzbar"),
            scale=Q(fields.get("scale", "1")),
        )
    elif kind == "polynomial":
        if not monomial_lines:
            raise ConfigError("polynomial potential needs at least one monomial")
        monos = tuple(_parse_monomial(m, n) for m in monomial_lines)
        potential = ChartPotential(n=n, kind="polynomial", monomials=monos)
    else:
        raise ConfigError(f"unknown kind {kind!r}")
    options = {
        "lambda": Q(fields["lambda"]) if "lambda" in fields else None,
        "extent": float(fields.get("extent", "0.3")),
        "grid": int(fields.get("grid", "9")),
        "margin": float(fields.get("margin", "0.1")),
    }
    return potential, options
