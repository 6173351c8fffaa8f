"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every algebraic assertion is exact (Fraction arithmetic, zero
tolerance); the numeric chart criteria carry the stated float tolerances.
"""

import time
from fractions import Fraction as Q

import numpy as np

from parakahler import ratlin
from parakahler.chevalley import basis_element, chevalley_constants
from parakahler.gradation import (
    CrossingSet,
    catalog_lookup,
    enumerate_crossings,
    grade_from_crossing,
    orbit_dimension,
    satake_violations,
)
from parakahler.koszul import (
    einstein_structure,
    kernel_is_g0,
    killing_dual,
    koszul_coefficients,
    koszul_form,
    koszul_trace,
    omega_z,
    two_form_from_weight,
)
from parakahler.paracomplex import (
    determinant_identity_residual,
    einstein_residual,
    fit_lambda,
    flat_potential,
    grid_points,
    log_model_potential,
    metric_from_potential,
    polynomial_potential,
)
from parakahler.rootsys import SimpleType, Weight, build_root_system
from parakahler.verify import (
    check_jacobi,
    check_killing_invariance,
    check_structure_constants,
    sweep_types,
)
from reference import (
    fd_partial,
    metric_rows,
    poly_mixed_hessian_exact,
    two_form_matrix,
    two_form_rows,
)

_ALGEBRAS = {}
_ROOTSYS = {}


def _rootsys(stype):
    key = str(stype)
    if key not in _ROOTSYS:
        _ROOTSYS[key] = build_root_system(stype)
    return _ROOTSYS[key]


def _algebra(stype):
    key = str(stype)
    if key not in _ALGEBRAS:
        rs = _rootsys(stype)
        _ALGEBRAS[key] = (rs, chevalley_constants(rs))
    return _ALGEBRAS[key]


def _report(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_g2_golden():
    start = time.perf_counter()
    rs = _rootsys(SimpleType("G", 2))
    pi1, pi2 = rs.weights
    cases = {
        (1,): (pi1.scale(10), {(1, 0): 10, (1, 1): 10, (2, 1): 20, (3, 1): 10,
                               (3, 2): 10, (0, 1): 0}),
        (2,): (pi2.scale(6), {(0, 1): 6, (1, 1): 18, (2, 1): 18, (3, 1): 6,
                              (3, 2): 12, (1, 0): 0}),
        (1, 2): ((pi1 + pi2).scale(4), {(1, 0): 4, (0, 1): 4, (1, 1): 16,
                                        (2, 1): 20, (3, 1): 8, (3, 2): 12}),
    }
    assert pi1 == Weight((Q(2), Q(1))) and pi2 == Weight((Q(3), Q(2)))
    for crossed, (psi_expected, rho_expected) in cases.items():
        g = grade_from_crossing(rs, CrossingSet.of(*crossed))
        psi = koszul_form(g)
        assert psi == psi_expected
        rho = two_form_from_weight(rs, psi)
        assert {r.coeffs: int(c) for r, c in zip(rs.positive_roots, rho.coeffs)} == rho_expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "three G2 crossings, psi and rho exact")


def test_criterion_2_a_series_golden():
    start = time.perf_counter()
    checked = 0
    for ell in range(1, 9):
        rs = _rootsys(SimpleType("A", ell))
        for crossing in enumerate_crossings(ell):
            nodes = crossing.sorted()
            fenced = [0] + nodes + [ell + 1]
            g = grade_from_crossing(rs, crossing)
            # Koszul formula via the block pattern of the crossing set.
            expected = Weight.zero(ell)
            for k, node in enumerate(nodes, start=1):
                expected = expected + rs.weights[node - 1].scale(
                    2 * (fenced[k + 1] - fenced[k - 1])
                )
            assert koszul_form(g) == expected
            acoef = koszul_coefficients(g)
            for k, node in enumerate(nodes, start=1):
                assert acoef[node] == fenced[k + 1] - fenced[k - 1]
            # Orbit dimension via the block-square count.
            blocks = sum(
                (fenced[k] - fenced[k - 1]) ** 2 for k in range(1, len(fenced))
            )
            assert orbit_dimension(g) == (ell + 1) ** 2 - blocks
            checked += 1

    # sl(2, H): the crossed middle node of A3 with compact end nodes.
    rs3 = _rootsys(SimpleType("A", 3))
    g = grade_from_crossing(rs3, CrossingSet.of(2))
    assert koszul_coefficients(g) == {2: 4}  # a_2 = 4, so b_2 = 2
    assert koszul_form(g) == Weight((Q(4), Q(8), Q(4)))
    assert orbit_dimension(g) == 8
    diagram = catalog_lookup("sl2H")
    assert not satake_violations(diagram, CrossingSet.of(2))
    assert satake_violations(diagram, CrossingSet.of(1))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, f"{checked} crossing sets over A1..A8, plus sl(2,H)")


def test_criterion_3_trace_oracle_sweep():
    start = time.perf_counter()
    gradations = 0
    for stype in sweep_types(4):
        rs, L = _algebra(stype)
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            psi = koszul_form(g)
            for i in range(1, rs.rank + 1):
                assert koszul_trace(g, L, basis_element(L, i - 1)) == \
                    rs.coroot_pairing(psi, i)
            for root in L.roots:
                idx = L.index_of_root(root)
                assert koszul_trace(g, L, basis_element(L, idx)) == 0
            gradations += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"{gradations} gradations, trace == weight formula")


def test_criterion_4_kernel_theorem():
    start = time.perf_counter()
    gradations = 0
    for stype in sweep_types(4):
        rs, L = _algebra(stype)
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            psi = koszul_form(g)
            rho = two_form_from_weight(rs, psi)
            assert kernel_is_g0(rho, g)
            # Exact nullspace of the assembled matrix agrees.
            null = ratlin.nullspace(two_form_matrix(rho, L))
            g0_idx = set(range(L.rank)) | {
                L.index_of_root(r) for r in g.roots_of_degree(0)
            }
            assert len(null) == len(g0_idx)
            for vec in null:
                assert all(not c for i, c in enumerate(vec) if i not in g0_idx)
            # Killing-dual pairing gives the same two-form, exactly.
            z = killing_dual(L, psi)
            assert omega_z(L, z).coeffs == rho.coeffs
            gradations += 1
    elapsed = time.perf_counter() - start
    _report(4, elapsed, f"{gradations} gradations, kernel = g_0 and omega_z match")


def test_criterion_5_lie_substrate():
    start = time.perf_counter()
    for stype in sweep_types(4):
        _, L = _algebra(stype)
        assert check_jacobi(L)["ok"], str(stype)
        assert check_killing_invariance(L)["ok"], str(stype)
        assert check_structure_constants(L)["ok"], str(stype)
    elapsed = time.perf_counter() - start
    _report(5, elapsed, "Jacobi, Killing invariance, |N| = p+1 on 12 algebras")


def test_criterion_6_einstein_structure():
    start = time.perf_counter()
    gradations = 0
    for stype in sweep_types(4):
        rs, L = _algebra(stype)
        for crossing in enumerate_crossings(rs.rank):
            g = grade_from_crossing(rs, crossing)
            es = einstein_structure(g, L, 1)
            roots = [bi.root for bi in es.basis]
            n, metric = len(roots), metric_rows(es)
            # Type (1,1): rho only pairs opposite degrees.
            form = two_form_rows(es.rho, L)
            for a in rs.all_roots():
                for b in rs.all_roots():
                    if g.degree(a) + g.degree(b) != 0:
                        assert form[L.index_of_root(a)].get(L.index_of_root(b), 0) == 0
            # Symmetry and K-skewness, exactly.
            for i in range(n):
                for j in range(n):
                    gij = metric[i].get(j, 0)
                    assert gij == metric[j].get(i, 0)
                    si, sj = g.ksign(roots[i]), g.ksign(roots[j])
                    assert si * sj * gij == -gij
            # ad-invariance under every basis element of g_0.
            pos_of = {L.index_of_root(r): k for k, r in enumerate(roots)}
            g0 = list(range(L.rank)) + [
                L.index_of_root(r) for r in g.roots_of_degree(0)
            ]
            for h in g0:
                for a in range(n):
                    pha = L.basis_bracket(h, L.index_of_root(roots[a]))
                    for b in range(n):
                        total = Q(0)
                        for m, c in pha.items():
                            k = pos_of.get(m)
                            if k is not None:
                                total += c * metric[k].get(b, 0)
                        for m, c in L.basis_bracket(
                            h, L.index_of_root(roots[b])
                        ).items():
                            k = pos_of.get(m)
                            if k is not None:
                                total += c * metric[a].get(k, 0)
                        assert total == 0
            # Neutral signature (m, m) with 2m the orbit dimension.
            pos, neg = es.signature()
            assert pos == neg == orbit_dimension(g) // 2
            gradations += 1
    elapsed = time.perf_counter() - start
    _report(6, elapsed, f"{gradations} Einstein structures, all exact")


def test_criterion_7_numeric_pipeline():
    start = time.perf_counter()

    flat = flat_potential(1)
    flat_pts = grid_points(flat, 0.3, 5)
    assert max(
        float(np.max(np.abs(metric_from_potential(flat, p).logdet_hessian))) for p in flat_pts
    ) <= 1e-10

    logm = log_model_potential(1)
    pts = grid_points(logm, 0.3, 9)
    assert len(pts) == 81
    lam = fit_lambda(logm, (0.0, 0.0))
    assert abs(lam - 2.0) < 1e-3
    assert einstein_residual(logm, lam, pts)[0] < 1e-5

    # Polynomial path vs finite-difference path on the same potential.
    poly = polynomial_potential(
        1, [((1,), (1,), Q(1)), ((2,), (2,), Q(1, 4))]
    )

    def f(q):
        return poly.split_value(q[:1], q[1:])

    worst = 0.0
    for p in grid_points(poly, 0.3, 5):
        exact = float(poly_mixed_hessian_exact(poly, p[:1], p[1:])[0][0])
        fd = fd_partial(f, p, (0, 1), 1e-3)
        worst = max(worst, abs(exact - fd))
    assert worst < 1e-7

    assert determinant_identity_residual(logm, [((0.1, 0.2), 0)])[0] < 1e-7
    assert determinant_identity_residual(poly, [((0.2, -0.1), 0)])[0] < 1e-7

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, elapsed, "flat, log-model, path agreement, determinant identity")


def test_criterion_8_verification_scope():
    # The invariant metric's Einstein property is certified structurally
    # (criteria 3-6, exact) plus numerically on charts (criterion 7); no
    # general Lie-theoretic curvature computation is attempted.
    sample = metric_from_potential(log_model_potential(1), (0.1, -0.1))
    assert np.shape(sample.g) == (1, 1)
    _report(8, 0.0, "scope: structural suite + chart-level numerics")
