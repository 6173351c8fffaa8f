"""Koszul 1-form, its symplectic differential, and the Einstein metric.

Two independent routes to the same 1-form are kept side by side on purpose:

* the weight formula: twice the sum of positive roots minus twice the sum of
  the degree-zero positive roots (``koszul_form``),
* the trace formula: -tr over the complement of g_0 of
  (ad_{K~x} - K~ ad_x), where K~ is the sign-of-degree endomorphism with
  kernel g_0 (``koszul_trace``), summed over the stored coordinates of x
  and the stored brackets only.

The differential convention is d(xi)(X, Y) = xi([X, Y]), so d(xi)(X_a, X_-a) =
n(xi, a) for positive a, stored by position over ``rs.positive_roots`` as a
gradation stores its degrees; the Killing-dual pairing ``omega_z`` reproduces
the same two-form with this convention, with no extra factor.  The Einstein
metric is stored the same way, one value g(X_a, X_-a) per positive root a of m.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property
from operator import mul

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
from .rootsys import Root, RootSystem, Weight, ratio, weight_in_pi_basis


class TwoForm:
    """Antisymmetric pairing c_a = f(X_a, X_-a), a tuple by position over ``rs.positive_roots``.

    Cartan directions and pairs other than (a, -a) pair to zero, which is
    exactly the shape of the differential of any Cartan 1-form.  Immutable by
    convention.
    """

    def __init__(self, rs: RootSystem, coeffs: tuple[Q | int, ...]) -> None:
        roots, n = rs.positive_roots, len(coeffs)
        if not isinstance(coeffs, tuple) or n > len(roots):
            raise DomainError(f"coefficients must be a tuple over the {len(roots)} positive roots")
        if n < len(roots):
            raise DomainError(f"coefficients missing for {roots[n]}")
        self.rs, self.coeffs = rs, coeffs

    def over(self, g: Gradation) -> tuple[Q | int, ...]:
        """``coeffs``, once g is known to grade the same root system: both read by position."""
        if self.rs != g.rs:
            raise DomainError("two-form and gradation use different root systems")
        return self.coeffs


def delta_sum(rs: RootSystem, subset) -> Weight:
    """Sum of a collection of positive roots, as a weight with int coordinates."""
    coeffs, npos = [root.coeffs for root in subset], len(rs.positive_roots)
    if bad := next((c for c in coeffs if rs.positions.get(c, npos) >= npos), None):
        raise DomainError(f"{Root(bad)} is not a positive root of {rs.type}")
    return Weight(tuple(map(sum, zip(*coeffs))) or (0,) * rs.rank)


def koszul_form(g: Gradation) -> Weight:
    """Koszul 1-form psi = 2(delta_g - delta_h) = 2 sum(m+), since R+ splits into R0+ and m+."""
    return delta_sum(g.rs, g.nonzero_positive()).scale(2)


def koszul_coefficients(g: Gradation) -> dict[int, int]:
    """Coefficients a_i over the crossed nodes: psi = 2 sum a_i pi_i.

    a_i = 2 + b_i with b_i = -n(delta_h, alpha_i) = -delta_h(H_i) >= 0; both are integers.
    """
    delta_h = delta_sum(g.rs, g.zero_degree_positive())
    out: dict[int, int] = {}
    for i in g.crossing.sorted():
        b = -g.rs.coroot_pairing(delta_h, i)
        if b < 0:
            raise ArithmeticError(f"b_{i} = {b} is negative")
        out[i] = 2 + b
    return out


def basis_degrees(L: LieAlgebraData, g: Gradation) -> tuple[int, ...]:
    """g's degree of each basis index of L, 0 on the Cartan."""
    if g.rs != L.rs:
        raise DomainError("algebra and gradation use different root systems")
    return (0,) * L.rank + g.signed_degrees


def koszul_trace(g: Gradation, L: LieAlgebraData, x: AlgebraElement) -> Q | int:
    """Koszul form by brute-force traces of ad matrices.

    Computes -tr(pr_m (ad_{K~x} - K~ ad_x) |_m) where m is the span of the
    nonzero-degree root vectors (the canonical complement of g_0) and K~
    multiplies a root vector by the sign of its degree and kills g_0.
    """
    rows, deg = L.brackets, basis_degrees(L, g)  # K~ e_i = sign(deg_i) e_i
    trace = 0
    for j, a in check_support(L, x).coords.items():
        kx = ((deg[j] > 0) - (deg[j] < 0)) * a  # the coordinate of K~x at e_j
        for i, out in rows[j].items():
            if i in out and (d := deg[i]):
                trace += (kx - ((d > 0) - (d < 0)) * a) * out[i]
    return -trace


def _coroot_expansion(rs: RootSystem, lh) -> TwoForm:
    """The differential of the Cartan 1-form l with l(H_i) = lh[i], on each pair."""
    return TwoForm(rs, tuple(sum(map(mul, coroot, lh)) for coroot in rs.positive_coroots))


def two_form_from_weight(rs: RootSystem, xi: Weight) -> TwoForm:
    """Differential of a Cartan 1-form: n(xi, a) = sum_i H_a[i] xi(H_i) on each pair.

    Each xi(H_i) is computed once; ints when xi has int coordinates (psi does).
    """
    return _coroot_expansion(rs, weight_in_pi_basis(rs, xi))


def kernel_of(f: TwoForm, g: Gradation) -> tuple[BasisIndex, ...]:
    """Kernel of the two-form: the H_i, the zero-coefficient positive roots, their negatives."""
    zero = [r for r, c in zip(g.rs.positive_roots, f.over(g)) if not c]
    cartan = [BasisIndex.H(i) for i in range(1, g.rs.rank + 1)]
    return (*cartan, *map(BasisIndex.X, zero + [-r for r in zero]))


def kernel_is_g0(f: TwoForm, g: Gradation) -> bool:
    """Does the kernel coincide with g_0?  By position: f(X_a, X_-a) = 0 iff deg(a) = 0."""
    return all((not c) == (not d) for c, d in zip(f.over(g), g.root_degrees))


def omega_z(L: LieAlgebraData, z: AlgebraElement, d: int = 1) -> TwoForm:
    """The pairing B(z / d, [X, Y]) for a Cartan element z, as a TwoForm.

    On the standard pairs this is B(z, H_a) / d, the Killing-dual description
    of the differential of the 1-form B(z / d, .).  It is linear in H_a, so
    B(z, H_i) is evaluated once per simple coroot through ``killing_form``, in
    ints where z has int coordinates (``scaled_killing_dual`` gives such a z),
    and divided by d once: an int where d divides it.
    """
    if not is_cartan(L, z):
        raise DomainError("omega_z needs an element of the Cartan subalgebra")
    values = [killing_form(L, z, basis_element(L, i)) for i in range(L.rank)]
    return _coroot_expansion(L.rs, [ratio(v, d) for v in values] if d != 1 else values)


def scaled_killing_dual(L: LieAlgebraData, xi: Weight) -> tuple[AlgebraElement, int]:
    """(d z, d) in ints, z the Killing dual of xi: B(z, h) = xi(h) for every Cartan h.

    d z = M b with b_i = xi(H_i), from the int inverse (M, d) of the Killing
    Cartan block that ``L.killing_cartan_inverse`` builds once per algebra.
    """
    m, d = L.killing_cartan_inverse
    rhs = weight_in_pi_basis(L.rs, xi)
    return cartan_element(L, [sum(map(mul, row, rhs)) for row in m]), d


def killing_dual(L: LieAlgebraData, xi: Weight) -> AlgebraElement:
    """The Killing dual z of xi: a coordinate is an int where d divides d z, else a Fraction."""
    dz, d = scaled_killing_dual(L, xi)
    return AlgebraElement({i: ratio(c, d) for i, c in dz.coords.items()})


class EinsteinStructure:
    """Para-Kahler Einstein data on the orbit tangent space.

    ``basis`` lists the root vectors of m (the gradation's ``nonzero_roots``,
    built on first use): its k positive roots, then their negatives in the
    same order.  The metric lambda^{-1} rho(X, K Y) pairs X_alpha with X_-alpha
    only, so ``metric`` holds its k values g_alpha = g(X_alpha, X_-alpha), by
    position over the first k entries of ``basis``: an int where integral,
    else a Fraction.  ``lam`` is the Einstein constant.  Immutable by convention.
    """

    def __init__(self, gradation: Gradation, lam: Q, rho: TwoForm,
                 metric: tuple[Q | int, ...]) -> None:
        self.gradation, self.lam, self.rho, self.metric = gradation, lam, rho, metric

    @cached_property
    def basis(self) -> tuple[BasisIndex, ...]:
        return tuple(map(BasisIndex.X, self.gradation.nonzero_roots()))

    def signature(self) -> tuple[int, int]:
        """(k, k): the metric is k hyperbolic blocks, one per pair (X_alpha, X_-alpha).

        A zero g_alpha raises DomainError naming X_alpha; ``ratlin.symmetric_signature``
        is the general algorithm, kept as the tests' reference.
        """
        if 0 in self.metric:
            raise DomainError(f"metric is degenerate at {self.basis[self.metric.index(0)].label()}")
        return len(self.metric), len(self.metric)


def einstein_structure(g: Gradation, L: LieAlgebraData | None, lam, rho=None) -> EinsteinStructure:
    """Assemble the invariant Einstein metric lambda^{-1} rho(., K .).

    The metric depends on g alone; ``L`` is optional and only checked.  ``rho``
    is d(psi) as a TwoForm, built here unless the caller already holds it.
    K is the sign of the degree and deg(-alpha) = -deg(alpha), so m pairs each
    positive root alpha with -alpha, of the opposite K.
    """
    lam = Q(lam)
    if lam == 0:
        raise DomainError("the Einstein constant lambda must be nonzero")
    if L is not None and L.rs != g.rs:
        raise DomainError("algebra and gradation use different root systems")
    rho = two_form_from_weight(g.rs, koszul_form(g)) if rho is None else rho
    # g_alpha = rho(X_alpha, K X_-alpha) / lam = -sign(deg alpha) c_alpha / lam, and
    # c_alpha / lam = c_alpha den / num, a Fraction only where it is not an int.
    num, den = lam.numerator, lam.denominator
    metric = tuple(ratio(c * den if d < 0 else -c * den, num)
                   for c, d in zip(rho.over(g), g.root_degrees) if d)
    return EinsteinStructure(gradation=g, lam=lam, rho=rho, metric=metric)
