"""The compiled gradation plan against the dict-row walks it replaced.

``check_einstein`` and ``check_grading`` evaluate int data that
``LieAlgebraData`` compiles once per algebra, and ``killing_dual`` reads the
algebra's int Bareiss inverse.  The references below walk the bracket rows for
every gradation, as the checks did before the plan existed; both routes must
give identical reports, also on tampered algebras, two-forms and metrics.

No gradation checks rho's closedness or ad_{g_0}-invariance: both follow from
Jacobi and the kernel step (``verify``).  The functionals that once checked
closedness per gradation stay here as the independent route to that argument.
"""

from fractions import Fraction as Q

import pytest

from parakahler import ratlin, verify
from parakahler.errors import DomainError
from parakahler.gradation import CrossingSet, Gradation, enumerate_crossings, grade_from_crossing
from parakahler.koszul import EinsteinStructure, TwoForm, killing_dual, koszul_form
from parakahler.rootsys import Weight
from reference import closedness_functionals, invariance_triples, metric_rows, regraded
from test_verify import _corrupted, _reverse_flipped


def _report(problem: str | None = None) -> dict:
    return {"ok": problem is None, "first_failure": problem}


def _invariance_failure(L, form, acting, domain) -> tuple | None:
    """First (z, x, y) with form([z,x], y) + form(x, [z,y]) != 0, from dict rows."""
    pair = L.basis_bracket
    for z, x, y in invariance_triples(L, acting, domain):
        lhs = sum(c * form[m].get(y, 0) for m, c in pair(z, x).items())
        lhs += sum(c * form[x].get(m, 0) for m, c in pair(z, y).items())
        if lhs:
            return z, x, y
    return None


def reference_two_form(L, g) -> dict:
    """``check_two_form`` from rho's coefficients and the positive roots of degree 0."""
    rs = L.rs
    psi = verify.koszul_form(g)
    rho = verify.two_form_from_weight(rs, psi)
    if not verify.kernel_is_g0(rho, g):
        return _report("kernel of d(psi) is not g_0")
    zero_pos = set(g.zero_degree_positive())
    for root, c in zip(rs.positive_roots, rho.coeffs):
        if root in zero_pos and c != 0:
            return _report(f"coefficient on {root} should vanish")
        if root not in zero_pos and c <= 0:
            return _report(f"coefficient on {root} not positive: {c}")
    acoef = verify.koszul_coefficients(g)
    recon = Weight.zero(rs.rank)
    for i, a in acoef.items():
        recon = recon + rs.weights[i - 1].scale(2 * a)
    if recon != psi:
        return _report("2 sum a_i pi_i != psi")
    return _report("some a_i < 2" if any(a < 2 for a in acoef.values()) else None)


def reference_einstein(L, g) -> dict:
    """``check_einstein`` with the metric as dict rows over basis indices."""
    try:
        es = verify.einstein_structure(g, L, 1)
    except DomainError as err:
        return _report(str(err))
    roots, rows = g.nonzero_roots(), metric_rows(es)
    index = [L.index_of_root(r) for r in roots]
    metric = [{} for _ in range(L.dim)]
    for a, row in enumerate(rows):
        for b, v in row.items():
            if rows[b].get(a, 0) != v:
                return _report("metric not symmetric")
            if g.ksign(roots[a]) * g.ksign(roots[b]) * v != -v:
                return _report("metric not K-skew")
            if v and L.keys[index[a]] + L.keys[index[b]]:
                return _report(f"metric pairs {roots[a]} with {roots[b]}")
            metric[index[a]][index[b]] = v
    g0 = [*range(L.rank), *map(L.index_of_root, g.roots_of_degree(0))]
    if _invariance_failure(L, metric, g0, index):
        return _report("metric not ad-invariant under g_0")
    if empty := [x for x, row in zip(es.basis, rows) if not row]:
        return _report(f"metric is degenerate at {empty[0].label()}")
    sig = ratlin.symmetric_signature(rows)
    return _report(None if sig == (len(roots) // 2,) * 2 else f"signature {sig} is not neutral")


def reference_grading(L, g) -> dict:
    """``check_grading`` with [d, X_a] from ``basis_bracket`` and Fraction d."""
    crossed = [i - 1 for i in g.crossing.sorted()]
    d = [(h, c) for h, c in enumerate(g.grading_element) if c]
    for x, root in enumerate(L.roots, L.rank):
        if g.degree(root) != sum(root.coeffs[i] for i in crossed):
            return _report(f"degree of {root} is not its crossed coefficient sum")
        if sum(c * L.basis_bracket(h, x).get(x, 0) for h, c in d) != g.degree(root):
            return _report(f"grading element acts wrongly on {root}")
    return _report()


def _agree(L, g) -> None:
    assert L.grading_failure is None  # the references skip the certificate
    assert verify.check_two_form(L, g) == reference_two_form(L, g)
    assert verify.check_einstein(L, g) == reference_einstein(L, g)
    assert verify.check_grading(L, g) == reference_grading(L, g)


_EVERY_CROSSING = [
    (str(t), crossing) for t in verify.sweep_types(3) for crossing in enumerate_crossings(t.rank)
] + [("E6", CrossingSet.of(1))]


@pytest.mark.parametrize(
    "name, crossing", _EVERY_CROSSING, ids=[f"{n}{sorted(c.crossed)}" for n, c in _EVERY_CROSSING]
)
def test_compiled_checks_match_the_walks(algebra, name, crossing):
    rs, L = algebra(name)
    g = grade_from_crossing(rs, crossing)
    _agree(L, g)
    assert verify.check_two_form(L, g)["ok"] and verify.check_einstein(L, g)["ok"]
    # The Killing dual from the int Bareiss inverse equals a Fraction solve.
    rhs = [rs.coroot_pairing(koszul_form(g), i) for i in range(1, rs.rank + 1)]
    solved = ratlin.solve(L.cartan_block(), rhs)
    assert killing_dual(L, koszul_form(g)).coords == {i: x for i, x in enumerate(solved) if x}


@pytest.mark.parametrize(
    "name, tamper", [("A2", _corrupted), ("A2", _reverse_flipped), ("G2", _reverse_flipped)]
)
def test_tampered_algebras_fail_alike(algebra, name, tamper):
    # Jacobi and Killing invariance kill both tampers once per algebra; per
    # gradation the metric's invariance sees them where X_a2 acts from g_0.
    rs, L = algebra(name)
    broken = tamper(L)
    assert not verify.check_jacobi(broken)["ok"]
    assert not verify.check_killing_invariance(broken)["ok"]
    failed = 0
    for crossing in enumerate_crossings(rs.rank):
        g = grade_from_crossing(rs, crossing)
        _agree(broken, g)
        failed += not verify.check_einstein(broken, g)["ok"]
    assert failed


@pytest.mark.parametrize("name", ["A2", "G2", "B3"])
def test_nonlinear_degrees_fail_alike(algebra, name):
    # Moving b, and with it -b, to degree 0 breaks linearity: g_0 then
    # brackets into m, and only the m-domain filter keeps those terms out of
    # the metric's invariance check, as the walk does.
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(1))
    for beta in g.nonzero_positive():
        bad = regraded(g, {beta: 0})
        _agree(L, bad)


@pytest.mark.parametrize("name, crossed", [("A3", (1, 3)), ("B3", (2,)), ("G2", (1,))])
def test_rho_with_one_coefficient_off_fails_alike(algebra, monkeypatch, name, crossed):
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(*crossed))
    true_form = verify.two_form_from_weight
    reports = []
    for off in range(len(rs.positive_roots)):
        def shifted(rs, xi, off=off):
            c = true_form(rs, xi).coeffs
            return TwoForm(rs, c[:off] + (c[off] + 1,) + c[off + 1:])

        monkeypatch.setattr(verify, "two_form_from_weight", shifted)
        assert verify.check_two_form(L, g) == reference_two_form(L, g), rs.positive_roots[off]
        reports.append(verify.check_killing_dual(L, g))  # omega_z never reads rho
    assert not any(r["ok"] for r in reports)


@pytest.mark.parametrize(
    "name, crossed", [("A3", (1,)), ("B3", (1, 3)), ("C3", (2,)), ("G2", (1,))]
)
def test_metric_with_one_pair_doubled_fails_alike(algebra, monkeypatch, name, crossed):
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(*crossed))
    true_es = verify.einstein_structure(g, L, 1)
    failed = 0
    for a, v in enumerate(true_es.metric):
        metric = true_es.metric[:a] + (2 * v,) + true_es.metric[a + 1:]
        es = EinsteinStructure(true_es.gradation, true_es.lam, true_es.rho, metric)
        monkeypatch.setattr(verify, "einstein_structure", lambda *args, es=es: es)
        report = verify.check_einstein(L, g)
        assert report == reference_einstein(L, g), a
        failed += not report["ok"]
    assert failed  # the doubled pair breaks ad_{g_0}-invariance somewhere


@pytest.mark.parametrize("name, count", [("E8", 1120), ("E7", 336), ("D8", 224)])
def test_closedness_functionals_are_one_per_positive_root_triple(algebra, name, count):
    # Every nonzero cyclic sum is a functional on one root triple a + b = c of R+.
    _, L = algebra(name)
    functionals = closedness_functionals(L)
    assert len(functionals) == count
    assert all(len(f) == 3 for _, f in functionals)


@pytest.mark.parametrize("name", [str(stype) for stype in verify.sweep_types(8)])
def test_closedness_and_rho_invariance_follow_from_the_kernel(algebra, name):
    # rho = d(psi) has c = C psi_H, C the coroot table.  F C = 0 (d o d = 0 on
    # Cartan 1-forms) makes rho closed for every psi.  Each invariance term,
    # read as a functional of psi_H, is k H_b for z = X_b, so it vanishes once
    # the kernel step gives psi(H_b) = c_b = 0 for b in g_0; a Cartan z keeps
    # no term, as each cancels for every form.
    rs, L = algebra(name)
    coroots, rk = rs.positive_coroots, L.rank
    for triple, f in closedness_functionals(L):
        assert not any(sum(a * coroots[p][h] for p, a in f) for h in range(rk)), triple
    assert not any(L.invariance_terms[:rk])
    coroot = [None] * rk + [rs.coroot(root) for root in L.roots]  # H_{wt(u)} by basis index
    for z, terms in enumerate(L.invariance_terms[rk:], rk):
        for x, _, ny, a, b in terms:
            v = [a * p + b * q for p, q in zip(coroot[ny], coroot[x])]
            k = next((v[h] // c for h, c in enumerate(coroot[z]) if c), 0)
            assert v == [k * c for c in coroot[z]], (z, x, ny)


def test_missing_degree_names_the_root(algebra):
    # positive_roots is (a1, a2, a1+a2); a vector of 2 degrees lacks a1+a2.
    # No gradation is built, so no check can read it.
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    with pytest.raises(
        DomainError, match=r"^2 degrees for the 3 positive roots of A2: 1a1\+1a2 has no degree$"
    ):
        Gradation(g.rs, g.crossing, g.root_degrees[:2])
    with pytest.raises(DomainError, match=r"^4 degrees for the 3 positive roots of A2$"):
        Gradation(g.rs, g.crossing, (*g.root_degrees, 1))


def test_grading_scales_a_fractional_grading_element(algebra):
    # A2 {1} has d = (2/3, 1/3): the check compares a(3d) with 3 deg(a).
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert g.grading_element == (Q(2, 3), Q(1, 3))
    assert verify.check_grading(L, g) == reference_grading(L, g) == _report()
    # A copy; the grading element is built on first read.
    halved = Gradation(g.rs, g.crossing, g.root_degrees)
    halved.grading_element = (Q(1, 3), Q(1, 6))
    assert verify.check_grading(L, halved) == reference_grading(L, halved)
    assert verify.check_grading(L, halved)["first_failure"] == "grading element acts wrongly on 1a1"
