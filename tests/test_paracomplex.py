import itertools
import random
import sys
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakahler.errors import DomainError, SingularPointError
from parakahler.paracomplex import (
    BLOCK,
    FD_STEP_OUTER,
    ChartPotential,
    DerivativeTable,
    _gauss_jordan,
    _logdet_hessian,
    _metric_block,
    determinant_identity_residual,
    einstein_residual,
    fit_lambda,
    flat_potential,
    grid_points,
    log_model_potential,
    metric_from_potential,
    metric_matrix,
    parse_potential_config,
    polynomial_potential,
)
import reference
from reference import (
    E,
    NullConeError,
    ParaComplex,
    admissible,
    christoffel,
    fd_partial,
    gauss_jordan,
    mixed_partial_pc,
    pc,
    poly_mixed_hessian_exact,
)

rational = st.fractions(min_value=-4, max_value=4, max_denominator=8)
pc_rational = st.builds(ParaComplex, rational, rational)


# -- split-complex arithmetic ----------------------------------------------------


def test_unit_square():
    assert E * E == pc(1)


def test_hand_product():
    assert pc(1, 2) * pc(3, 1) == pc(5, 7)


def test_null_cone_not_invertible():
    with pytest.raises(NullConeError):
        pc(1, 1).inverse()
    with pytest.raises(NullConeError):
        pc(2, 3) / pc(1, -1)


def test_inverse_on_invertibles():
    z = pc(Q(3), Q(1))
    assert z * z.inverse() == pc(Q(1), Q(0))


@given(z=pc_rational, w=pc_rational, v=pc_rational)
@settings(max_examples=150)
def test_ring_laws(z, w, v):
    assert z * w == w * z
    assert (z * w) * v == z * (w * v)
    assert z * (w + v) == z * w + z * v
    assert (z * w).conj() == z.conj() * w.conj()
    assert z * z.conj() == pc(z.x * z.x - z.y * z.y, z.x * 0)


@given(z=pc_rational)
@settings(max_examples=80)
def test_split_coordinates_multiplicative(z):
    w = pc(Q(2), Q(1, 3))
    prod = z * w
    assert prod.plus == z.plus * w.plus
    assert prod.minus == z.minus * w.minus
    assert ParaComplex.from_split(z.plus, z.minus) == z


# -- potentials and realness -----------------------------------------------------


def test_potential_realness_enforced():
    with pytest.raises(DomainError):
        # z1 zbar1^2 with no mirror term is not real-valued.
        polynomial_potential(1, [((1,), (2,), Q(1))])
    polynomial_potential(1, [((1,), (2,), Q(1)), ((2,), (1,), Q(1))])


def test_unknown_builtin_rejected():
    with pytest.raises(DomainError):
        parse_potential_config("n = 1\nkind = builtin\nbuiltin = mystery\n")
    with pytest.raises(DomainError):
        parse_potential_config("n = 1\nkind = fancy\n")


# -- metric ------------------------------------------------------------------------


def test_flat_metric_is_identity():
    flat = flat_potential(2)
    sample = metric_from_potential(flat, (0.3, -0.1, 0.2, 0.7))
    assert np.allclose(sample.g, np.eye(2), atol=0)
    assert np.max(np.abs(sample.logdet_hessian)) <= 1e-10


def test_log_model_metric_at_origin():
    logm = log_model_potential(1)
    sample = metric_from_potential(logm, (0.0, 0.0))
    assert abs(sample.g[0][0] - 1.0) < 1e-9


def test_log_model_metric_closed_form():
    # M = (1 + uv)^-2 from differentiating log(1 + uv) twice.
    logm = log_model_potential(1)
    for u, v in [(0.1, 0.2), (-0.25, 0.3), (0.0, -0.2)]:
        m = metric_matrix(logm, (u, v))[0][0]
        assert abs(m - (1 + u * v) ** -2) < 1e-9


def test_metric_closure_relations():
    # d M_ab / du_c symmetric in (a, c): the two-form is closed.
    F = polynomial_potential(
        2,
        [
            ((2, 0), (1, 1), Q(1, 2)),
            ((1, 1), (2, 0), Q(1, 2)),
            ((1, 1), (1, 1), Q(2)),
            ((0, 2), (0, 2), Q(1, 3)),
        ],
    )

    def entry(a, b):
        def f(q):
            return float(metric_matrix(F, q)[a][b])

        return f

    point = (0.3, -0.2, 0.15, 0.4)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                lhs = fd_partial(entry(a, b), point, (c,), 1e-3)
                rhs = fd_partial(entry(c, b), point, (a,), 1e-3)
                assert abs(lhs - rhs) < 1e-8


def test_adapted_vs_paraholomorphic_paths_agree_exactly():
    # The e * del delbar route through split-complex arithmetic reproduces
    # the adapted mixed Hessian exactly on rational points.
    F = polynomial_potential(
        2,
        [
            ((1, 0), (1, 0), Q(1)),
            ((0, 1), (0, 1), Q(1)),
            ((2, 0), (0, 1), Q(1, 3)),
            ((0, 1), (2, 0), Q(1, 3)),
            ((1, 1), (1, 1), Q(5, 7)),
        ],
    )
    n = 2
    point = (Q(1, 3), Q(-1, 2), Q(2, 5), Q(1, 7))
    big_m = poly_mixed_hessian_exact(F, point[:n], point[n:])
    z = [ParaComplex.from_split(point[k], point[n + k]) for k in range(n)]

    def dz(vec, k):  # dz^k on a real tangent vector (u-part, v-part)
        return ParaComplex.from_split(vec[k], vec[n + k])

    def dzbar(vec, k):
        return ParaComplex.from_split(vec[n + k], vec[k])

    vectors = [
        (Q(1), Q(0), Q(0), Q(0)),
        (Q(0), Q(1), Q(0), Q(0)),
        (Q(0), Q(0), Q(1), Q(0)),
        (Q(1), Q(2), Q(-1), Q(3)),
    ]
    e = ParaComplex(Q(0), Q(1))
    for X in vectors:
        for Y in vectors:
            total = ParaComplex(Q(0), Q(0))
            for a in range(n):
                for b in range(n):
                    gab = mixed_partial_pc(F, a, b, z)
                    total = total + gab * (
                        dz(X, a) * dzbar(Y, b) - dz(Y, a) * dzbar(X, b)
                    )
            omega = e * total
            adapted = sum(
                big_m[a][b] * (X[a] * Y[n + b] - Y[a] * X[n + b])
                for a in range(n)
                for b in range(n)
            )
            assert omega.y == 0
            assert omega.x == adapted


def test_finite_difference_order():
    # Exact polynomial path as ground truth: halving h cuts the stencil
    # error by at least 8 (it is a 4th-order scheme).
    F = polynomial_potential(1, [((6,), (5,), Q(1, 2)), ((5,), (6,), Q(1, 2))])
    point = (0.5, 0.4)
    exact = float(poly_mixed_hessian_exact(F, point[:1], point[1:])[0][0])

    def f(q):
        return F.split_value(q[:1], q[1:])

    err = abs(fd_partial(f, point, (0, 1), 2e-2) - exact)
    err_half = abs(fd_partial(f, point, (0, 1), 1e-2) - exact)
    assert err_half > 0
    assert err / err_half >= 8


# -- Christoffel and Ricci ------------------------------------------------------------


def test_flat_christoffel_vanishes():
    flat = flat_potential(2)
    gamma = christoffel(flat, (0.1, 0.2, -0.3, 0.4))
    assert np.max(np.abs(gamma)) == 0


def test_log_model_christoffel_closed_form():
    logm = log_model_potential(1)
    assert abs(christoffel(logm, (0.0, 0.0))[0][0][0]) < 1e-8
    for u, v in [(0.1, 0.0), (0.25, -0.2), (-0.3, 0.15)]:
        got = christoffel(logm, (u, v))[0][0][0]
        want = -2 * v / (1 + u * v)
        assert abs(got - want) < 1e-7


def test_christoffel_symmetry():
    F = polynomial_potential(
        2,
        [
            ((1, 0), (1, 0), Q(1)),
            ((0, 1), (0, 1), Q(1)),
            ((2, 1), (1, 0), Q(1, 4)),
            ((1, 0), (2, 1), Q(1, 4)),
        ],
    )
    gamma = christoffel(F, (0.2, -0.1, 0.3, 0.1))
    for a in range(2):
        assert np.allclose(gamma[a], np.asarray(gamma[a]).T, atol=1e-8)


def test_christoffel_against_full_levi_civita():
    # Independent oracle: assemble the full 2n x 2n metric [[0, M], [M^T, 0]]
    # in adapted coordinates and run the textbook Levi-Civita formula with
    # finite differences.  The mixed-type symbols must vanish and the pure
    # block must match the adapted-frame shortcut.
    logm = log_model_potential(1)
    point = (0.2, -0.15)

    def full_metric(q):
        m = metric_matrix(logm, q)
        n = 1
        g = np.zeros((2 * n, 2 * n))
        g[:n, n:] = m
        g[n:, :n] = np.asarray(m).T
        return g

    def entry(i, j):
        return lambda q: float(full_metric(q)[i, j])

    n2 = 2
    ginv = np.linalg.inv(full_metric(point))
    gamma_full = np.zeros((n2, n2, n2))
    for k in range(n2):
        for i in range(n2):
            for j in range(n2):
                total = 0.0
                for ell in range(n2):
                    total += 0.5 * ginv[k, ell] * (
                        fd_partial(entry(j, ell), point, (i,), 1e-3)
                        + fd_partial(entry(i, ell), point, (j,), 1e-3)
                        - fd_partial(entry(i, j), point, (ell,), 1e-3)
                    )
                gamma_full[k, i, j] = total
    shortcut = christoffel(logm, point)
    # Pure u-block agrees; every symbol with a v index among (k=u; i,j) or
    # the conjugate block structure vanishes.
    assert abs(gamma_full[0, 0, 0] - shortcut[0][0][0]) < 1e-6
    assert abs(gamma_full[1, 0, 0]) < 1e-6  # Gamma^{v}_{uu} = 0
    assert abs(gamma_full[0, 0, 1]) < 1e-6  # Gamma^{u}_{uv} = 0
    assert abs(gamma_full[0, 1, 1]) < 1e-6  # Gamma^{u}_{vv} = 0


def test_ricci_against_christoffel_contraction():
    # Second route to the Ricci block: ric = -d_v (sum_g Gamma^g_{a g}).
    logm = log_model_potential(1)
    point = (0.1, 0.2)

    def gamma_trace(q):
        return float(christoffel(logm, q)[0][0][0])

    # Coarse outer step: gamma_trace carries its own stencil noise.
    via_contraction = -fd_partial(gamma_trace, point, (1,), 1e-2)
    via_logdet = -metric_from_potential(logm, point).logdet_hessian[0][0]
    assert abs(via_contraction - via_logdet) < 1e-4


def test_log_model_is_einstein_with_lambda_two():
    # Direct symbolic oracle: log(det g) = -2 log(1 + uv), so ric = 2 g.
    # This pins the sign convention of the Ricci block.
    logm = log_model_potential(1)
    for point in [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.25)]:
        sample = metric_from_potential(logm, point)
        ric = -np.asarray(sample.logdet_hessian)
        assert np.max(np.abs(ric - 2.0 * np.asarray(sample.g))) < 1e-5


def test_einstein_residual_flat_cases():
    flat = flat_potential(1)
    pts = grid_points(flat, 0.3, 3)
    assert einstein_residual(flat, 0.0, pts)[0] <= 1e-10
    assert abs(einstein_residual(flat, 1.0, pts)[0] - 1.0) <= 1e-10


def test_fit_lambda_log_model():
    logm = log_model_potential(1)
    assert abs(fit_lambda(logm, (0.0, 0.0)) - 2.0) < 1e-4
    pts = grid_points(logm, 0.3, 9)
    assert len(pts) == 81
    assert einstein_residual(logm, fit_lambda(logm, (0.0, 0.0)), pts)[0] < 1e-5


def test_determinant_identity():
    logm = log_model_potential(1)
    for point in [(0.1, 0.2), (-0.2, 0.3)]:
        assert determinant_identity_residual(logm, [(point, 0)])[0] < 1e-7
    F = polynomial_potential(
        2,
        [
            ((1, 0), (1, 0), Q(1)),
            ((0, 1), (0, 1), Q(1)),
            ((1, 1), (1, 1), Q(1, 2)),
        ],
    )
    assert determinant_identity_residual(F, [((0.1, 0.2, -0.1, 0.3), 1)])[0] < 1e-7


# -- admissibility and errors ---------------------------------------------------------


def test_admissibility_margin():
    logm = log_model_potential(1)
    assert admissible(logm, (0.1, 0.1))
    assert not admissible(logm, (1.0, -0.95))  # 1 + uv = 0.05 < margin
    assert admissible(logm, (1.0, -0.95), margin=0.01)
    flat = flat_potential(1)
    assert admissible(flat, (5.0, -5.0))


def _admissible_grid(F, extent, count, margin=0.1):
    axis = [-extent + 2 * extent * k / (count - 1) for k in range(count)] if count > 1 else [0.0]
    return [c for c in itertools.product(axis, repeat=2 * F.n) if admissible(F, c, margin)]


@pytest.mark.parametrize("n,count", [(1, 21), (2, 7), (3, 4), (4, 3)])
def test_grid_points_keep_the_admissible_points(n, count):
    for scale in (1, -1):
        F = log_model_potential(n, scale)
        for extent, margin in ((0.3, 0.1), (1.2, 0.1), (1.2, -0.5)):
            assert grid_points(F, extent, count, margin) == _admissible_grid(F, extent, count, margin)
        assert 0 < len(grid_points(F, 1.2, count)) < count ** (2 * n)  # some points are dropped
    assert grid_points(F, 0.3, 1) == [(0.0,) * (2 * n)]


def test_grid_points_of_a_scaled_log_model_with_a_polynomial():
    # P with a Fraction coefficient, Q a polynomial: only P decides admissibility.
    p = {**log_model_potential(2).p, ((2, 0), (2, 0)): Q(1, 3)}
    F = ChartPotential(2, Q(3, 2), p, {((1, 1), (0, 1)): Q(2, 7), ((0, 1), (1, 1)): Q(2, 7)})
    for extent in (0.3, 1.1):
        assert grid_points(F, extent, 7) == _admissible_grid(F, extent, 7)


def test_grid_points_keep_a_point_where_p_equals_the_margin():
    logm = log_model_potential(1)  # P(0.5, -0.5) = 0.75 exactly
    assert (0.5, -0.5) in grid_points(logm, 0.5, 3, 0.75)
    assert (0.5, -0.5) not in grid_points(logm, 0.5, 3, 0.7500001)
    for margin in (0.75, 0.7500001):
        assert grid_points(logm, 0.5, 3, margin) == _admissible_grid(logm, 0.5, 3, margin)


def test_singular_log_point_raises():
    logm = log_model_potential(1)
    with pytest.raises(SingularPointError):
        metric_from_potential(logm, (2.0, -0.5))  # log argument hits zero


def test_degenerate_polynomial_metric_raises():
    # F = z1 zbar1 restricted to n = 2 leaves the second direction flat.
    F = polynomial_potential(2, [((1, 0), (1, 0), Q(1))])
    with pytest.raises(SingularPointError):
        metric_from_potential(F, (0.1, 0.1, 0.1, 0.1))


# -- config parsing ---------------------------------------------------------------------


def test_parse_potential_config_polynomial():
    potential, options = parse_potential_config(
        """
        n = 1
        kind = polynomial
        monomial = 1 * z1 * zbar1
        monomial = 1/3 * z1^2 * zbar1^2
        lambda = 0
        extent = 0.2
        grid = 3
        """
    )
    assert options["kind"] == "polynomial"
    assert len(potential.q) == 2
    assert options["lambda"] == 0
    assert options["grid"] == 3


def test_parse_potential_config_builtin_and_errors():
    potential, options = parse_potential_config(
        "n = 1\nkind = builtin\nbuiltin = log1p_zzbar\nscale = 1\n"
    )
    assert options["builtin"] == "log1p_zzbar"
    from parakahler.errors import ConfigError

    with pytest.raises(ConfigError):
        parse_potential_config("kind = builtin")
    with pytest.raises(ConfigError):
        parse_potential_config("n = 1\nkind = polynomial\n")
    with pytest.raises(ConfigError):
        parse_potential_config("n = 1\nmonomial = 1 * q1\n")
    # A dimension below 1 is refused with its line before any tuple of length n is built.
    for n in ("0", "-9223372036854775809"):
        with pytest.raises(ConfigError, match="^line 1: n must be between 1 and "):
            parse_potential_config(f"n = {n}\nkind = builtin\n")


def test_not_real_valued_message_names_cancelled_key():
    # z1 zbar1^2 cancels to 0 while z1^2 zbar1 has no mirror: the error names
    # the cancelled key, whose conjugate coefficient is the one that differs.
    with pytest.raises(DomainError) as exc:
        polynomial_potential(
            1, [((1,), (2,), Q(1)), ((1,), (2,), Q(-1)), ((2,), (1,), Q(1))]
        )
    assert str(exc.value) == (
        "potential is not real-valued: coefficient of z^(1,) zbar^(2,) "
        "has no matching conjugate term"
    )


# -- exact derivative table ---------------------------------------------------------


def test_derivative_table_is_exact():
    # log(1 + uv): g = 1/P - uv/P^2, with int coefficients; scale 1/2 keeps
    # the rational.  Evaluated at a rational point it is (1 + uv)^-2 exactly.
    table = log_model_potential(1).derivatives
    assert table.exact[0] == {((0,), (0,), 1): 1, ((1,), (1,), 2): -1}
    assert all(type(c) is int for c in table.exact[0].values())
    half = log_model_potential(1, Q(1, 2)).derivatives
    assert half.exact[0] == {((0,), (0,), 1): Q(1, 2), ((1,), (1,), 2): Q(-1, 2)}
    u, v = Q(1, 3), Q(-2, 5)
    p = 1 + u * v
    value = sum(c * u ** a[0] * v ** b[0] / p**k for (a, b, k), c in table.exact[0].items())
    assert value == 1 / p**2


def test_exact_oracles_cover_the_log_term():
    # At a rational point the split-complex route and the exact table both
    # give g_ab = s (delta_ab P - v_a u_b) / P^2 for s log(1 + u.v) exactly.
    s = Q(1, 2)
    F = log_model_potential(2, s)
    u, v = (Q(1, 3), Q(-1, 2)), (Q(2, 5), Q(1, 7))
    p = 1 + sum(x * y for x, y in zip(u, v))
    big_m = poly_mixed_hessian_exact(F, u, v)
    z = [ParaComplex.from_split(uk, vk) for uk, vk in zip(u, v)]
    for a in range(2):
        for b in range(2):
            assert big_m[a][b] == s * ((a == b) * p - v[a] * u[b]) / p**2
            gab = mixed_partial_pc(F, a, b, z)
            assert (gab.plus, gab.minus) == (big_m[a][b], big_m[b][a])


def test_exact_table_matches_nested_finite_differences():
    # Independent routes at n = 2: 5-point stencils of the plain potential
    # value for g, nested stencils of log|det(metric_matrix)| for its Hessian.
    logm = log_model_potential(2)

    def f(q):
        return logm.split_value(q[:2], q[2:])

    def logdet(q):
        return float(np.log(abs(np.linalg.det(metric_matrix(logm, q)))))

    for point in [(0.1, -0.2, 0.25, 0.05), (-0.3, 0.2, 0.1, -0.15), (0.0, 0.0, 0.0, 0.0)]:
        sample = metric_from_potential(logm, point)
        for a in range(2):
            for b in range(2):
                assert abs(sample.g[a][b] - fd_partial(f, point, (a, 2 + b), 1e-3)) < 1e-9
                fd = fd_partial(logdet, point, (a, 2 + b), 1e-2)
                assert abs(sample.logdet_hessian[a][b] - fd) < 1e-7


@pytest.mark.parametrize("n,scale", [(1, 1), (2, 1), (1, -1)])
def test_log_model_einstein_to_rounding(n, scale):
    # The exact table leaves only float rounding: lambda = (n + 1) / scale.
    logm = log_model_potential(n, scale)
    pts = grid_points(logm, 0.3, 9 if n == 1 else 4)
    lam = fit_lambda(logm, (0.0,) * (2 * n))
    assert abs(lam - (n + 1) / scale) < 1e-12
    assert einstein_residual(logm, lam, pts)[0] < 1e-12


def test_log_model_christoffel_closed_form_n2():
    # G^a_bc = -(delta_ab v_c + delta_ac v_b) / (1 + u.v).
    logm = log_model_potential(2)
    for point in [(0.1, -0.2, 0.25, 0.05), (-0.3, 0.2, 0.1, -0.15)]:
        v, p = point[2:], 1 + sum(x * y for x, y in zip(point[:2], point[2:]))
        gamma = christoffel(logm, point)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    want = -((a == b) * v[c] + (a == c) * v[b]) / p
                    assert abs(gamma[a][b][c] - want) < 1e-12


def test_einstein_residual_locates_its_maximum():
    logm = log_model_potential(1)
    pts = grid_points(logm, 0.3, 3)
    residual, where = einstein_residual(logm, 1.0, pts)
    sample = metric_from_potential(logm, where)
    assert float(np.max(np.abs(-np.asarray(sample.logdet_hessian) - sample.g))) == residual
    assert einstein_residual(logm, 1.0, []) == (0.0, None)


@pytest.mark.parametrize(
    "text,key,line",
    [
        ("n = 1\nkind = builtin\nlamda = 7\n", "lamda", 3),
        ("n = 1\nkind = builtin\nmonomial = 1 * z1 * zbar1\n", "monomial", 3),
        ("n = 1\nscale = 2\nmonomial = 1 * z1 * zbar1\n", "scale", 2),
        ("n = 1\nkind = polynomial\nbuiltin = log1p_zzbar\nmonomial = 1 * z1 * zbar1\n",
         "builtin", 3),
    ],
)
def test_parse_potential_config_rejects_unknown_and_conflicting_keys(text, key, line):
    from parakahler.errors import ConfigError

    with pytest.raises(ConfigError) as exc:
        parse_potential_config(text)
    assert f"line {line}:" in str(exc.value) and repr(key) in str(exc.value)


# -- float kernel (numpy is the independent reference) --------------------------------


def _block(matrices):
    """The column form of a list of matrices: entry [i][j] lists m[i][j] over them."""
    n = len(matrices[0])
    return [[[m[i][j] for m in matrices] for j in range(n)] for i in range(n)]


def _block_gauss_jordan(matrices):
    """The block kernel on a list of matrices, read back as one (inverse, det) per matrix."""
    inverse, det = _gauss_jordan(_block(matrices))
    n = len(matrices[0])
    return [([[inverse[i][j][b] for j in range(n)] for i in range(n)], d)
            for b, d in enumerate(det)]


@pytest.mark.parametrize("n", range(1, 9))
def test_gauss_jordan_matches_numpy(n):
    # The block kernel on a block of one and on a block of five, against numpy; each
    # point's floats equal the per-point reference exactly.
    rng = random.Random(n)
    ms = [[[rng.uniform(-1, 1) + n * (i == j) for j in range(n)] for i in range(n)]
          for _ in range(5)]
    together = _block_gauss_jordan(ms)
    for m, in_block in zip(ms, together):
        (inverse, det), = _block_gauss_jordan([m])
        assert (inverse, det) == in_block == gauss_jordan(m)
        assert np.max(np.abs(np.asarray(inverse) - np.linalg.inv(m))) < 1e-12
        assert abs(det - np.linalg.det(m)) < 1e-12 * abs(np.linalg.det(m))


def test_gauss_jordan_swaps_rows_for_a_zero_leading_entry():
    swap2 = [[0.0, 1.0], [2.0, 3.0]]
    assert _block_gauss_jordan([swap2]) == [([[-1.5, 0.5], [1.0, 0.0]], -2.0)]
    m = [[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [4.0, 1.0, 0.0]]
    (inverse, det), = _block_gauss_jordan([m])
    assert np.max(np.abs(np.asarray(inverse) - np.linalg.inv(m))) < 1e-12
    assert abs(det - np.linalg.det(m)) < 1e-12
    # Points that swap different rows, or none, in one block, each as if alone.
    ms = [m, [row[::-1] for row in m], [[5.0, 1.0, 0.0], [1.0, 4.0, 2.0], [0.0, 1.0, 3.0]],
          [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]], m[::-1]]
    assert _block_gauss_jordan(ms) == [gauss_jordan(x) for x in ms]
    # A tie in |pivot| keeps the upper row, and a zero multiplier leaves its row
    # alone, the sign of a zero included (repr tells -0.0 from 0.0).
    ms = [[[1.0, 2.0], [-1.0, 3.0]], [[-1.0, -0.0], [0.0, -1.0]], swap2]
    assert repr(_block_gauss_jordan(ms)) == repr([gauss_jordan(x) for x in ms])


def test_singular_metric_raises():
    singular = [[1.0, 2.0], [2.0, 4.0]]
    assert gauss_jordan(singular) == (None, 0.0)
    # In a block, the singular point gets det 0.0, raises nothing, and leaves the
    # other points as they are alone.
    regular = [[2.0, 1.0], [1.0, 3.0]]
    dead = [[0.0, 1.0], [0.0, 2.0]]  # a zero pivot column at the first step
    got = _block_gauss_jordan([regular, singular, dead, regular])
    assert got[0] == got[3] == gauss_jordan(regular)
    assert got[1][1] == got[2][1] == 0.0
    # A metric with |det g| < 1e-12 is singular at its point.
    units = [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    tiny = polynomial_potential(2, [(a, b, Q(1, 10**7)) for a, b in units])
    with pytest.raises(SingularPointError, match=r"^metric is singular at \(0.1, 0.1, 0.1, 0.1\)$"):
        metric_from_potential(tiny, (0.1, 0.1, 0.1, 0.1))
    rank_one = polynomial_potential(2, [((1, 0), (1, 0), Q(1)), ((1, 0), (0, 1), Q(2)),
                                        ((0, 1), (1, 0), Q(2)), ((0, 1), (0, 1), Q(4))])
    with pytest.raises(SingularPointError, match="^metric is singular at "):
        metric_from_potential(rank_one, (0.1, 0.2, 0.3, 0.4))


def test_log_model_table_is_sparse():
    # The n = 8 table: 7,361 nonzero triplets, the 9 terms of P included,
    # instead of a dense 5,185 x 2,027 coefficient matrix.
    F = log_model_potential(8)
    table = F.derivatives
    assert len(table.triplets) == 7361
    assert all(c != 0 for _, _, c in table.triplets)
    assert len([t for t in table.triplets if t[0] == len(table.exact)]) == len(F.p) == 9
    assert len(table.monomials) == 2027
    entries = {id(x): x for triplet in table.triplets for x in triplet}.values()
    stored = sys.getsizeof(table.triplets) + sum(map(sys.getsizeof, table.triplets))
    assert stored + sum(map(sys.getsizeof, entries)) < 1_000_000


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_metric_matches_exact_hessian(n):
    # At rational points the float table and the exact Fraction evaluation agree.
    first = tuple(int(i == 0) for i in range(n))
    last2 = tuple(2 * (i == n - 1) for i in range(n))
    flat = [(a, b, c) for (a, b), c in flat_potential(n).q.items()]
    cross = [(first, last2, Q(1, 3)), (last2, first, Q(1, 3))]
    rng = random.Random(n)
    for F in (log_model_potential(n, Q(3, 2)), polynomial_potential(n, flat + cross)):
        for _ in range(4):
            point = [Q(rng.randint(-3, 3), rng.randint(4, 9)) for _ in range(2 * n)]
            exact = poly_mixed_hessian_exact(F, point[:n], point[n:])
            got = metric_matrix(F, [float(x) for x in point])
            for a in range(n):
                for b in range(n):
                    assert abs(got[a][b] - float(exact[a][b])) < 1e-12


def _two_stencil_residual(F, point, axis):
    # det g and g each through a stencil of their own, inverted one point at a time.
    def det_at(q):
        return gauss_jordan(metric_matrix(F, q))[1]

    lhs = fd_partial(det_at, point, (axis,), FD_STEP_OUTER)
    dm = fd_partial(lambda q: metric_matrix(F, q), point, (axis,), FD_STEP_OUTER)
    inverse, det = gauss_jordan(metric_matrix(F, point))
    flat_inverse = [x for row in inverse for x in row]
    rhs = det * sum(x * y for x, y in zip(flat_inverse, [x for col in zip(*dm) for x in col]))
    return abs(lhs - rhs)


def test_determinant_identity_shares_its_stencil_points(monkeypatch):
    curved = [((1, 0), (1, 0), Q(1)), ((0, 1), (0, 1), Q(1)), ((2, 1), (2, 1), Q(1, 5)),
               ((1, 0), (0, 1), Q(1, 4)), ((0, 1), (1, 0), Q(1, 4))]
    cases = [
        (log_model_potential(1), (0.1, -0.2)),
        (log_model_potential(2), (0.1, -0.2, 0.25, 0.05)),
        (polynomial_potential(2, curved), (0.3, -0.2, 0.15, 0.4)),
    ]
    blocks = []
    columns = DerivativeTable.columns

    def spy(self, points, rows=None):
        blocks.append(len(points))
        return columns(self, points, rows)

    monkeypatch.setattr(DerivativeTable, "columns", spy)
    for F, point in cases:
        pairs = [(point, axis) for axis in range(len(point))]
        want = [_two_stencil_residual(F, point, axis) for axis in range(len(point))]
        for (point, axis), residual in zip(pairs, want):
            blocks.clear()
            assert determinant_identity_residual(F, [(point, axis)]) == [residual]
            assert blocks == [5]  # four stencil points and the centre, in one block
        blocks.clear()
        assert determinant_identity_residual(F, pairs) == want
        assert blocks == [5 * len(pairs)]  # every pair's five points, in one block


def test_determinant_identity_block_raises_its_first_error():
    # g = 1/P^2 - 1 with P = 1 + u v: log argument <= 0 where u v <= -1, singular where u v = 0.
    G = ChartPotential(1, Q(1), {((0,), (0,)): 1, ((1,), (1,)): 1}, {((1,), (1,)): Q(-1)})
    beyond = ((1.0, -0.995), 0)  # the stencil point u = 1.01 has P < 0; the centre is regular
    singular = ((0.0, 0.3), 1)  # the centre has g = 0
    regular = ((0.01, 0.3), 0)  # the stencil point u = 0 has det g = 0, which is allowed
    log_error = _first_error(determinant_identity_residual, G, [beyond])
    assert log_error[0] is SingularPointError and log_error[1].startswith("log argument -0.00")
    assert _first_error(determinant_identity_residual, G, [regular, beyond, singular]) == log_error
    assert _first_error(determinant_identity_residual, G, [regular, singular, beyond]) == (
        SingularPointError, "metric is singular at (0.0, 0.3)")
    assert determinant_identity_residual(G, [regular]) == [_two_stencil_residual(G, *regular)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_metric_and_christoffel_slice_the_flat_values(n):
    F = log_model_potential(n)
    point = tuple(0.2 * (-1) ** k / (k + 1) for k in range(2 * n))
    vals = [x for (x,) in F.derivatives.columns([point])[0]]
    g = metric_matrix(F, point)
    assert g == [[vals[a * n + b] for b in range(n)] for a in range(n)]
    ginv = gauss_jordan(g)[0]
    gamma = christoffel(F, point)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                third = [vals[n * n + (b * n + c) * n + m] for m in range(n)]
                assert gamma[a][b][c] == sum(ginv[m][a] * third[m] for m in range(n))


# -- blocks against the per-point references (tests/reference.py) ----------------------


def _curved():
    # The non-flat n = 2 polynomial of test_determinant_identity_shares_its_stencil_points.
    return polynomial_potential(2, [
        ((1, 0), (1, 0), Q(1)), ((0, 1), (0, 1), Q(1)), ((2, 1), (2, 1), Q(1, 5)),
        ((1, 0), (0, 1), Q(1, 4)), ((0, 1), (1, 0), Q(1, 4)),
    ])


def _swapping():
    # g = [[4 u1 v1, 1], [1, 1]]: the points with |4 u1 v1| < 1 pivot on row 2.
    return polynomial_potential(2, [
        ((2, 0), (2, 0), Q(1)), ((1, 0), (0, 1), Q(1)), ((0, 1), (1, 0), Q(1)),
        ((0, 1), (0, 1), Q(1)),
    ])


BLOCK_CASES = [
    *((f"log-n{n}-scale{s}", lambda n=n, s=s: log_model_potential(n, s), grid, 0.3)
      for n, grid in ((1, 9), (2, 5), (3, 3)) for s in (1, -1, Q(3, 2))),
    ("flat-n2", lambda: flat_potential(2), 5, 0.3),
    ("curved-n2", _curved, 5, 0.3),
    ("swapping-n2", _swapping, 6, 0.8),
]


@pytest.mark.parametrize("make,grid,extent", [c[1:] for c in BLOCK_CASES],
                         ids=[c[0] for c in BLOCK_CASES])
def test_blocks_match_the_per_point_reference_exactly(make, grid, extent):
    F = make()
    pts = grid_points(F, extent, grid)
    assert len(pts) % BLOCK  # the last block is a partial one
    for lam in (0.0, 1.0, -2.5):
        want = reference.einstein_residual(F, lam, pts)
        assert einstein_residual(F, lam, pts) == want
    n = F.n
    for start in range(0, len(pts), BLOCK):
        block = pts[start : start + BLOCK]
        vals, ginv, det = _metric_block(F, block)
        ldh = _logdet_hessian(vals, ginv, n)
        for b, point in enumerate(block):  # repr tells -0.0 from 0.0
            assert repr([col[b] for col in vals]) == repr(reference.table_values(F, point))
            g, want = reference.metric_sample(F, point)
            got = ([[x[b] for x in row] for row in ginv], det[b])
            assert repr(got) == repr(gauss_jordan(g))
            assert repr([col[b] for col in ldh]) == repr([x for row in want for x in row])
    for point in pts[:: len(pts) // 7]:  # a block of one gives the same floats
        sample = metric_from_potential(F, point)
        assert (sample.g, sample.logdet_hessian) == reference.metric_sample(F, point)
        assert metric_matrix(F, point) == reference.metric_sample(F, point)[0]


def _first_error(fn, *args):
    with pytest.raises(DomainError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def test_block_errors_are_those_of_the_first_failing_point():
    # F = z1^2 zbar1^2 has g = 4 u v: singular where u v = 0, a zero pivot there.
    F = polynomial_potential(1, [((2,), (2,), Q(1))])
    pts = grid_points(F, 0.3, 3)
    assert _first_error(einstein_residual, F, 0.0, pts) == (
        SingularPointError, "metric is singular at (-0.3, 0.0)")
    # One singular point among regular ones, late in a full block and early in the next.
    regular = [(0.1 * (1 + k % 3), 0.2) for k in range(2 * BLOCK)]
    for at in (BLOCK - 3, BLOCK + 1):
        pts = regular[:at] + [(0.0, 0.25)] + regular[at:]
        assert _first_error(einstein_residual, F, 0.0, pts) == (
            SingularPointError, "metric is singular at (0.0, 0.25)")
        assert _first_error(reference.einstein_residual, F, 0.0, pts) == (
            SingularPointError, "metric is singular at (0.0, 0.25)")
    assert einstein_residual(F, 0.0, regular) == reference.einstein_residual(
        F, 0.0, regular)
    # g = 1/P^2 - 1 with P = 1 + u v: singular at u v = 0 (where P = 1), log
    # argument 0.0 at u v = -1; whichever comes first in the block raises.
    G = ChartPotential(1, Q(1), {((0,), (0,)): 1, ((1,), (1,)): 1}, {((1,), (1,)): Q(-1)})
    for pts, want in (
        ([(0.5, 0.5), (0.0, 0.3), (1.0, -1.0)], "metric is singular at (0.0, 0.3)"),
        ([(0.5, 0.5), (1.0, -1.0), (0.0, 0.3)], "log argument 0.0 is not positive"),
        ([(0.5, 0.5), (0.5,), (0.0, 0.3)], "point length must be twice the chart dimension"),
    ):
        got = _first_error(einstein_residual, G, 1.0, pts)
        assert got[1] == want and got == _first_error(reference.einstein_residual, G, 1.0, pts)
    logm = log_model_potential(1)
    pts = grid_points(logm, 2, 9, margin=-5)
    assert _first_error(einstein_residual, logm, 2.0, pts) == (
        SingularPointError, "log argument 0.0 is not positive")
