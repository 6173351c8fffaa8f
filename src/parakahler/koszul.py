"""Koszul 1-form, its symplectic differential, and the Einstein metric.

Two independent routes to the same 1-form are kept side by side on purpose:

* the weight formula: twice the sum of positive roots minus twice the sum of
  the degree-zero positive roots (``koszul_form``),
* the trace formula: -tr over the complement of g_0 of
  (ad_{K~x} - K~ ad_x), where K~ is the sign-of-degree endomorphism with
  kernel g_0 (``koszul_trace``), summed over the stored coordinates of x
  and the stored brackets only.

The differential convention is d(xi)(X, Y) = xi([X, Y]), which makes
d(xi)(X_a, X_-a) = n(xi, a) for positive a; the Killing-dual pairing
``omega_z`` reproduces the same two-form with this convention, with no extra
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul

from . import ratlin
from .chevalley import (
    AlgebraElement,
    BasisIndex,
    LieAlgebraData,
    basis_element,
    cartan_element,
    check_support,
    is_cartan,
    killing_form,
)
from .errors import DomainError
from .gradation import Gradation
from .rootsys import Root, RootSystem, Weight, n_pairing, weight_in_pi_basis


@dataclass
class TwoForm:
    """Antisymmetric pairing c_a = f(X_a, X_-a) indexed by positive roots.

    Cartan directions and pairs other than (a, -a) pair to zero, which is
    exactly the shape of the differential of any Cartan 1-form.
    """

    rs: RootSystem
    coeffs: dict[Root, Q | int]

    def __post_init__(self) -> None:
        missing = [r for r in self.rs.positive_roots if r not in self.coeffs]
        if missing:
            raise DomainError(f"coefficients missing for {missing[0]}")

    def rows(self, L: LieAlgebraData) -> list[dict[int, Q | int]]:
        """Dict rows {j: f(e_i, e_j)}, zeros not stored; X_alpha at x pairs X_-alpha at x+npos."""
        if L.rs != self.rs:
            raise DomainError("algebra and two-form use different root systems")
        npos = len(self.rs.positive_roots)
        rows: list[dict[int, Q | int]] = [{} for _ in range(L.dim)]
        for x, root in enumerate(self.rs.positive_roots, L.rank):
            if c := self.coeffs[root]:
                rows[x][x + npos], rows[x + npos][x] = c, -c
        return rows

    def matrix(self, L: LieAlgebraData) -> list[list[Q]]:
        return [[row.get(j, Q(0)) for j in range(L.dim)] for row in self.rows(L)]


def delta_sum(rs: RootSystem, subset) -> Weight:
    """Sum of a collection of positive roots, as a weight with int coordinates."""
    total = [0] * rs.rank
    for root in subset:
        if not (root.is_positive and rs.is_root(root)):
            raise DomainError(f"{root} is not a positive root of {rs.type}")
        for i, c in enumerate(root.coeffs):
            total[i] += c
    return Weight(tuple(total))


def koszul_form(g: Gradation) -> Weight:
    """Koszul 1-form psi = 2(delta_g - delta_h) = 2 sum(m+), since R+ splits into R0+ and m+."""
    return delta_sum(g.rs, g.nonzero_positive()).scale(2)


def koszul_coefficients(g: Gradation) -> dict[int, int]:
    """Coefficients a_i over the crossed nodes: psi = 2 sum a_i pi_i.

    a_i = 2 + b_i with b_i = -n(delta_h, alpha_i) >= 0; both are integers.
    """
    delta_h = delta_sum(g.rs, g.zero_degree_positive())
    out: dict[int, int] = {}
    for i in g.crossing.sorted():
        b = -n_pairing(g.rs, delta_h, g.rs.simple_root(i))
        if b < 0:
            raise ArithmeticError(f"b_{i} = {b} is negative")
        out[i] = 2 + b
    return out


def koszul_trace(g: Gradation, L: LieAlgebraData, x: AlgebraElement) -> Q | int:
    """Koszul form by brute-force traces of ad matrices.

    Computes -tr(pr_m (ad_{K~x} - K~ ad_x) |_m) where m is the span of the
    nonzero-degree root vectors (the canonical complement of g_0) and K~
    multiplies a root vector by the sign of its degree and kills g_0.
    """
    rk, roots, rows = L.rank, L.roots, L.brackets

    def sign(i: int) -> int:  # K~ on e_i
        return g.ksign(roots[i - rk]) if i >= rk else 0

    trace = 0
    for j, a in check_support(L, x).coords.items():
        kx = sign(j) * a  # the coordinate of K~x at e_j
        for i, out in rows[j].items():
            if i in out and (s := sign(i)):
                trace += (kx - s * a) * out[i]
    return -trace


def _coroot_expansion(rs: RootSystem, lh) -> TwoForm:
    """The differential of the Cartan 1-form l with l(H_i) = lh[i], on each pair."""
    n = {r: sum(c * x for c, x in zip(rs.coroot(r), lh) if c) for r in rs.positive_roots}
    return TwoForm(rs, n)


def two_form_from_weight(rs: RootSystem, xi: Weight) -> TwoForm:
    """Differential of a Cartan 1-form: n(xi, a) = sum_i H_a[i] xi(H_i) on each pair.

    Each xi(H_i) is computed once; ints when xi has int coordinates (psi does).
    """
    return _coroot_expansion(rs, weight_in_pi_basis(rs, xi))


def kernel_of(f: TwoForm, g: Gradation) -> tuple[BasisIndex, ...]:
    """Kernel of the two-form: the H_i, the zero-coefficient positive roots, their negatives."""
    zero = [r for r in g.rs.positive_roots if not f.coeffs[r]]
    cartan = [BasisIndex.H(i) for i in range(1, g.rs.rank + 1)]
    return (*cartan, *map(BasisIndex.X, zero + [-r for r in zero]))


def kernel_is_g0(f: TwoForm, g: Gradation) -> bool:
    """Does the kernel coincide with the degree-zero subalgebra?"""
    kernel_roots = {bi.root for bi in kernel_of(f, g) if bi.kind == "X"}
    return kernel_roots == set(g.roots_of_degree(0))


def omega_z(L: LieAlgebraData, z: AlgebraElement) -> TwoForm:
    """The pairing B(z, [X, Y]) for a Cartan element z, as a TwoForm.

    On the standard pairs this is B(z, H_a), the Killing-dual description of
    the differential of the 1-form B(z, .).  It is linear in H_a, so B(z, H_i)
    is evaluated once per simple coroot, through ``killing_form`` on z's own
    (possibly Fraction) coordinates, as an int where it is integral.
    """
    if not is_cartan(L, z):
        raise DomainError("omega_z needs an element of the Cartan subalgebra")
    values = [killing_form(L, z, basis_element(L, i)) for i in range(L.rank)]
    return _coroot_expansion(L.rs, [v.numerator if v.denominator == 1 else v for v in values])


def killing_dual(L: LieAlgebraData, xi: Weight) -> AlgebraElement:
    """The Cartan element z with B(z, h) = xi(h) for every Cartan h, in Fractions.

    z = M b / d with b_i = xi(H_i), from the int inverse (M, d) of the Killing
    Cartan block that ``L.killing_cartan_inverse`` builds once per algebra.
    """
    m, d = L.killing_cartan_inverse
    rhs = [L.rs.coroot_pairing(xi, i) for i in range(1, L.rank + 1)]
    return cartan_element(L, [Q(sum(map(mul, row, rhs)), d) for row in m])


@dataclass
class EinsteinStructure:
    """Para-Kahler Einstein data on the orbit tangent space.

    ``metric`` is lambda^{-1} rho(X, K Y) over the root vectors of m listed in
    ``basis``, as ``ratlin`` dict rows ``{column: value}`` storing no zeros:
    rho pairs X_alpha with X_-alpha only, and -m[a] = m[a + k] with k = |m|/2,
    so rows a and a + k hold their one entry in each other's column.  An
    integral entry is an int, any other a Fraction; ``lam`` is the Einstein constant.
    """

    gradation: Gradation
    lam: Q
    rho: TwoForm
    basis: tuple[BasisIndex, ...]
    metric: tuple[dict[int, Q | int], ...]

    def signature(self) -> tuple[int, int]:
        """Exact signature via rational congruence diagonalization."""
        return ratlin.symmetric_signature(self.metric)


def einstein_structure(g: Gradation, L: LieAlgebraData | None, lam) -> EinsteinStructure:
    """Assemble the invariant Einstein metric lambda^{-1} rho(., K .).

    The metric depends on g alone; ``L`` is optional and only checked.
    """
    lam = Q(lam)
    if lam == 0:
        raise DomainError("the Einstein constant lambda must be nonzero")
    if L is not None and L.rs != g.rs:
        raise DomainError("algebra and gradation use different root systems")
    rho = two_form_from_weight(g.rs, koszul_form(g))
    m = g.nonzero_roots()
    k = len(m) // 2
    if m[k:] != tuple(-alpha for alpha in m[:k]):
        bad = next((alpha for alpha, beta in zip(m[:k], m[k:]) if beta != -alpha), m[-1])
        raise DomainError(f"the negative of {bad} is not at its offset in m")
    # With alpha = m[a]: g[a][a+k] = K(-alpha) c_alpha / lam, g[a+k][a] = -K(alpha) c_alpha / lam.
    # c_alpha / lam = c_alpha den / num, a Fraction only where it is not an int.
    num, den = lam.numerator, lam.denominator
    c = [Q(n, num) if n % num else n // num for n in (rho.coeffs[alpha] * den for alpha in m[:k])]
    ksign = [1 if d > 0 else -1 for d in g.root_degrees if d]  # K on m, by position
    values = [s * v for s, v in zip(ksign[k:], c)]
    values += [-s * v for s, v in zip(ksign, c)]
    metric = [{(a + k) % len(m): v} if v else {} for a, v in enumerate(values)]
    return EinsteinStructure(
        gradation=g,
        lam=lam,
        rho=rho,
        basis=tuple(BasisIndex.X(r) for r in m),
        metric=tuple(metric),
    )
