import ast
import copy
from collections import Counter

import pytest

from parakahler.chevalley import (
    LieAlgebraData,
    basis_element,
    bracket,
    chevalley_constants,
    killing_form,
)
from parakahler.errors import DomainError
from parakahler.gradation import (
    CrossingSet,
    enumerate_crossings,
    grade_from_crossing,
)
from parakahler import verify
from parakahler.koszul import (
    TwoForm,
    einstein_structure,
    koszul_coefficients,
    two_form_from_weight,
)
from parakahler.rootsys import Root, build_root_system
from reference import (
    invariance_triples,
    is_fundamental,
    jacobi_all_triples,
    jacobi_sums,
    regraded,
    weights,
)
from parakahler.verify import (
    check_algebra,
    check_einstein,
    check_gradation,
    check_grading,
    check_jacobi,
    check_killing_cartan,
    check_killing_dual,
    check_killing_invariance,
    check_structure_constants,
    check_trace_oracle,
    check_two_form,
    run_sweep,
    sweep_types,
)


def test_sweep_types_rank4():
    names = [str(t) for t in sweep_types(4)]
    assert names == [
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    ]


def test_run_sweep_rank1_trivially_passes():
    result = run_sweep(1)
    assert result["all_ok"]
    assert result["algebras"] == 1
    assert result["gradations"] == 1


def test_run_sweep_rank2():
    result = run_sweep(2)
    assert result["all_ok"], result["failures"][:3]
    assert result["gradations"] == 10  # A1 + A2 + B2 + G2 crossings


def test_run_sweep_rank6():
    # Every oracle on every gradation of the 21 types of rank <= 6, E6 included.
    result = run_sweep(6)
    assert result["all_ok"], result["failures"][:3]
    assert (result["algebras"], result["gradations"]) == (21, 545)


def _copy(L: LieAlgebraData) -> LieAlgebraData:
    """A fresh algebra with empty caches over deep copies of the bracket rows."""
    rows = [{j: dict(out) for j, out in row.items()} for row in L.brackets]
    return LieAlgebraData(L.rs, rows)


def _corrupted(L: LieAlgebraData) -> LieAlgebraData:
    """Flip one pair of structure constants, keeping antisymmetry."""
    bad = _copy(L)
    i, j = L.index_of_root(Root((1, 0))), L.index_of_root(Root((0, 1)))
    for p, q in ((i, j), (j, i)):
        bad.brackets[p][q] = {t: -c for t, c in bad.brackets[p][q].items()}
    return bad


def test_corrupted_constants_fail_jacobi(algebra):
    rs, L = algebra("A2")
    assert check_jacobi(L)["ok"]
    broken = _corrupted(L)
    report = check_jacobi(broken)
    assert not report["ok"]
    assert "jacobi" in report["first_failure"]
    # The magnitude check still passes (only signs were flipped)...
    assert check_structure_constants(broken)["ok"]
    # ...and the aggregate verdict is a failure.
    assert not all(v["ok"] for v in check_algebra(broken).values())


def test_individual_checks_on_g2(algebra):
    rs, L = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(2))
    assert check_trace_oracle(L, g)["ok"]
    assert check_two_form(L, g)["ok"]
    assert check_killing_dual(L, g)["ok"]
    assert check_einstein(L, g)["ok"]


def test_killing_dual_names_the_root_where_omega_z_is_off(algebra, monkeypatch):
    # omega_z off by one on a single root must fail there, with both values.
    rs, L = algebra("B3")
    g = grade_from_crossing(rs, CrossingSet.of(2))
    p, off = 4, rs.positive_roots[4]
    true_omega_z = verify.omega_z

    def shifted(L, z, d=1):
        c = true_omega_z(L, z, d).coeffs
        return TwoForm(L.rs, c[:p] + (c[p] + 1,) + c[p + 1:])

    direct = two_form_from_weight(rs, verify.koszul_form(g)).coeffs[p]
    monkeypatch.setattr(verify, "omega_z", shifted)
    assert check_killing_dual(L, g) == {
        "ok": False,
        "first_failure": f"omega_z != d(psi) on {off}: {direct + 1} vs {direct}",
    }


@pytest.mark.parametrize("step", ["d", "1"])
def test_killing_dual_sees_a_perturbed_cartan_inverse(algebra, step):
    # The dual's route (the int inverse and the Killing Gram) shares nothing
    # with rho, so one changed entry of the inverse fails there alone.  On B3 {2}
    # psi(H_i) is nonzero at i = 2 only, so column 2 of the inverse moves z.
    # Adding d moves z by an int and omega_z stays integral; adding 1 leaves
    # B(D z, H_i) / D without an int value, reported as a Fraction.
    rs, shared = algebra("B3")
    g = grade_from_crossing(rs, CrossingSet.of(2))
    m, d = shared.killing_cartan_inverse
    L = _copy(shared)
    perturbed = [list(row) for row in m]
    perturbed[0][1] += d if step == "d" else 1
    L.killing_cartan_inverse = (perturbed, d)
    report = check_killing_dual(L, g)
    assert not report["ok"]
    assert report["first_failure"].startswith("omega_z != d(psi) on 1a1: ")
    via_b, direct = report["first_failure"].split(": ")[1].split(" vs ")
    assert ("/" in via_b) == (step == "1") and "/" not in direct
    assert check_two_form(L, g)["ok"] and check_killing_dual(shared, g)["ok"]


def test_killing_dual_reports_a_degenerate_cartan_block(algebra):
    # With every [H_1, .] dropped, ad H_1 = 0 and the Killing Cartan block is
    # singular; the weights still grade, so the dual reaches the missing inverse.
    rs, L = algebra("A2")
    broken = _copy(L)
    broken.brackets[0].clear()
    assert broken.grading_failure is None
    assert check_killing_cartan(broken)["first_failure"] == "degenerate Cartan block"
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert check_killing_dual(broken, g) == {"ok": False, "first_failure": "matrix is singular"}


def test_run_sweep_builds_psi_and_rho_once_per_gradation(monkeypatch):
    # run_sweep hands one (psi, rho) pair per gradation to the four checks that
    # read psi or rho, so each closed form runs once per gradation.
    calls = Counter()
    for name in ("koszul_form", "two_form_from_weight"):
        def counted(*args, fn=getattr(verify, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(verify, name, counted)
    result = run_sweep(2)
    assert result["all_ok"] and result["gradations"] == 10
    assert calls == {"koszul_form": 10, "two_form_from_weight": 10}


def test_bracket_off_its_weight_fails_every_sparse_check(algebra):
    # The sparse checks skip triples whose weights cannot cancel; a bracket
    # outside its weight voids that skip, so none of them may pass.
    rs, shared = algebra("G2")
    L = _copy(shared)
    i = L.index_of_root(Root((1, 0)))
    j = L.index_of_root(Root((0, 1)))
    wrong = L.index_of_root(Root((2, 1)))  # [X_a1, X_a2] lies in weight a1+a2
    L.brackets[i][j] = {wrong: 1}
    assert f"bracket {(i, j)}" in L.grading_failure
    g = grade_from_crossing(rs, CrossingSet.of(1))
    reports = {
        "killing_invariance": check_killing_invariance(L),
        "killing_cartan": check_killing_cartan(L),
        "grading": check_grading(L, g),
        "trace_oracle": check_trace_oracle(L, g),
        "two_form": check_two_form(L, g),
        "killing_dual": check_killing_dual(L, g),
        "einstein": check_einstein(L, g),
    }
    for name, report in reports.items():
        assert not report["ok"], name
        assert f"bracket {(i, j)}" in report["first_failure"], name
    with pytest.raises(DomainError, match="weight grading fails"):
        L.killing_basis()
    # Jacobi reads the bracket table directly and sees the same corruption.
    assert not check_jacobi(L)["ok"]


@pytest.mark.parametrize(
    "first, second",
    [
        ("H1", (1, 0)),  # Cartan rule [H_t, X_b] = b(H_t) X_b
        ((1, 0), (0, 1)),  # constant [X_a, X_b] = N(a, b) X_{a+b}
        ((1, 0), (-1, 0)),  # coroot rule [X_a, X_-a] = H_a
    ],
)
def test_grading_certificate_names_each_bracket_rule(algebra, first, second):
    rs, shared = algebra("G2")
    L = _copy(shared)
    i = 0 if first == "H1" else L.index_of_root(Root(first))
    j = L.index_of_root(Root(second))
    assert L.basis_bracket(i, j)  # a stored entry of that rule
    wrong = L.index_of_root(Root((2, 1)))  # no rule lands here from (i, j)
    L.brackets[i][j] = {wrong: 1}
    assert L.grading_failure == f"bracket {(i, j)} leaves weight wt({i}) + wt({j})"


def test_off_weight_bracket_on_a_cartan_index_fails_certificate(algebra):
    # The Cartan has key 0, which no sum of two nonzero weights may share.
    rs, shared = algebra("G2")
    L = _copy(shared)
    i, j = L.index_of_root(Root((1, 0))), L.index_of_root(Root((0, 1)))
    L.brackets[i][j] = {0: 1}  # [X_a1, X_a2] = H_1
    assert L.grading_failure == f"bracket {(i, j)} leaves weight wt({i}) + wt({j})"


def _with_constants(L: LieAlgebraData, edit) -> LieAlgebraData:
    """A copy of L after ``edit(rows, i, j)`` on the rows of X_a1 (i) and X_a2 (j)."""
    broken = _copy(L)
    edit(broken.brackets, L.index_of_root(Root((1, 0))), L.index_of_root(Root((0, 1))))
    return broken


def test_stray_constant_fails_structure_check_and_bracket_rows(algebra):
    # a1 + (a1+a2) is not a root of A2, yet N = 2 with its antisymmetric
    # partner used to pass the magnitude check.
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((1, 1))
    i, k = L.index_of_root(a), L.index_of_root(b)

    def stray(rows, *_):
        rows[i][k], rows[k][i] = {k: 2}, {k: -2}

    broken = _with_constants(L, stray)
    report = check_structure_constants(broken)
    assert not report["ok"]
    assert report["first_failure"] == f"N({a}, {b}) is stored for a pair without a root sum"
    # No weight lies at a1 + (a1+a2), so the weight certificate names it too.
    assert broken.grading_failure == f"bracket {(i, k)} leaves weight wt({i}) + wt({k})"


def test_missing_reverse_fails_structure_check(algebra):
    # The pair count misses the popped N(a2, a1); Jacobi's first step names it too.
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((0, 1))
    broken = _with_constants(L, lambda rows, i, j: rows[j].pop(i))
    report = check_structure_constants(broken)
    assert not report["ok"]
    assert report["first_failure"] == f"({b}, {a}) has a root sum but no stored N"
    assert check_jacobi(broken)["first_failure"] == "antisymmetry fails on basis pair (2, 3)"


def test_missing_bracketable_pair_fails_structure_check(algebra):
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((0, 1))

    def drop(rows, i, j):
        del rows[i][j], rows[j][i]

    report = check_structure_constants(_with_constants(L, drop))
    assert not report["ok"]
    assert report["first_failure"] == f"({a}, {b}) has a root sum but no stored N"


def _scaled(L: LieAlgebraData, factor: int, both: bool) -> LieAlgebraData:
    """L with [X_a1, X_a2] scaled by ``factor``, and its reverse too when ``both``."""
    def scale(rows, i, j):
        for p, q in ((i, j), (j, i))[: 1 + both]:
            rows[p][q] = {t: factor * c for t, c in rows[p][q].items()}

    return _with_constants(L, scale)


@pytest.mark.parametrize(
    "both, factor, message",
    [
        (True, 2, "|N| != p+1 on (1a1, 1a2): 2 vs p=0"),  # the a1-string through a2 has p = 0
    ],
)
def test_wrong_constant_value_fails_structure_check(algebra, both, factor, message):
    rs, L = algebra("A2")
    report = check_structure_constants(_scaled(L, factor, both))
    assert report["first_failure"] == message


@pytest.mark.parametrize("factor, value", [(2, 4), (-1, -2)])
def test_scaled_coroot_fails_structure_check_naming_the_root(algebra, factor, value):
    # On A1, [X_a, X_-a] scaled with its reverse still gives a Lie algebra, so
    # Jacobi and Killing invariance pass; only a([X_a, X_-a]) = 2 fails.
    rs, L = algebra("A1")
    a = Root((1,))
    i, j = L.index_of_root(a), L.index_of_root(-a)
    bad = _copy(L)
    for p, q in ((i, j), (j, i)):
        bad.brackets[p][q] = {t: factor * c for t, c in bad.brackets[p][q].items()}
    reports = check_algebra(bad)
    assert [name for name, report in reports.items() if not report["ok"]] == [
        "structure_constants"]
    assert reports["structure_constants"]["first_failure"] == (
        f"{a}([X[{a}], X[{-a}]]) = {value}, not 2")


@pytest.mark.parametrize(
    "name, root, message",
    [
        # Rho and omega_z both double, so they agree: of the other checks only
        # the metric's formula, which reads H_a off the bracket rows, sees it.
        ("A1", (1,), "[X[1a1], X[-1a1]] is not the coroot table's (2,)"),
        # Only rho's closedness saw this one, when each gradation walked it.
        ("G2", (2, 1), "[X[2a1+1a2], X[-2a1-1a2]] is not the coroot table's (4, 3)"),
    ],
)
def test_coroot_table_off_the_brackets_fails_the_coroot_rule(algebra, name, root, message):
    # The first entry of H_a in rs.positive_coroots, which rho and omega_z
    # expand over, doubled after the bracket rows were built from it.
    rs, L = algebra(name)
    p, table = rs.positions[root], rs.positive_coroots
    bad_rs = copy.copy(rs)
    bad_rs.positive_coroots = (*table[:p], (2 * table[p][0], *table[p][1:]), *table[p + 1:])
    bad = copy.copy(L)
    bad.rs = bad_rs
    reports = check_algebra(bad)
    assert [check for check, report in reports.items() if not report["ok"]] == [
        "structure_constants"]
    assert reports["structure_constants"]["first_failure"] == message
    for crossing in enumerate_crossings(rs.rank):
        g = grade_from_crossing(bad_rs, crossing)
        for check in (check_trace_oracle, check_two_form, check_killing_dual):
            assert check(bad, g)["ok"], (check.__name__, crossing.crossed)
        # Where the doubled entry meets psi(H_h) != 0, rho moves off the brackets.
        moved = verify.closed_forms(bad, g)[1].coeffs != verify.closed_forms(L, g)[1].coeffs
        report = check_einstein(bad, g)
        assert report["ok"] is not moved, crossing.crossed
        assert report["ok"] or report["first_failure"].startswith(
            f"metric is not d(psi)(., K .) at {Root(root)}: ")


def test_one_sided_negation_fails_jacobi_and_killing_invariance(algebra):
    # |N| = p + 1 still holds on both sides; antisymmetry is Jacobi's first step.
    rs, L = algebra("A2")
    reports = check_algebra(_scaled(L, -1, False))
    assert reports["structure_constants"]["ok"]
    assert reports["jacobi"]["first_failure"] == "antisymmetry fails on basis pair (2, 3)"
    assert not reports["killing_invariance"]["ok"]
    assert reports["killing_cartan_nondegenerate"]["ok"]


@pytest.mark.parametrize("target", [(-1, 0), (1, 0), None])
def test_constant_off_its_root_sum_fails_structure_check(algebra, target):
    # [X_a1, X_a2] moved off X_{a1+a2}, or given a second term there.
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((0, 1))

    def move(rows, i, j):
        (t, n), = rows[i][j].items()
        if target is None:
            rows[i][j] = {t: n, L.index_of_root(a): 1}
        else:
            rows[i][j] = {L.index_of_root(Root(target)): n}

    report = check_structure_constants(_with_constants(L, move))
    assert not report["ok"]
    assert report["first_failure"] == f"[X[{a}], X[{b}]] is not a single term on X[{a + b}]"


def test_tampered_degree_fails_grading(algebra):
    rs, L = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert check_grading(L, g)["ok"]
    root = Root((1, 1))
    bad = regraded(g, {root: g.degree(root) + 1})
    report = check_grading(L, bad)
    assert not report["ok"]
    assert str(root) in report["first_failure"]


def test_degree_without_a_degree_one_split_fails_fundamental(algebra):
    # On A2 {1,2}, a1 + a2 (degree 2) splits only as a1 + a2; with a2 moved
    # to degree 0, neither summand leaves a degree-1 root of degree 1.
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(1, 2))
    assert check_gradation(L, g)["fundamental"]["ok"]
    bad = regraded(g, {Root((0, 1)): 0})
    assert not is_fundamental(bad)
    assert check_gradation(L, bad)["fundamental"] == {
        "ok": False,
        "first_failure": "1a1+1a2 of degree 2 has no degree-1 split",
    }


def test_grading_sees_a_wrong_cartan_action(algebra):
    # Negating [H1, X_a1] keeps it in weight a1, so the certificate passes,
    # but the grading element no longer acts on X_a1 by its degree.
    rs, shared = algebra("G2")
    L = _copy(shared)
    h, a = 0, L.index_of_root(Root((1, 0)))
    L.brackets[h][a] = {m: -c for m, c in shared.basis_bracket(h, a).items()}
    assert L.grading_failure is None
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert check_grading(shared, g)["ok"]
    report = check_grading(L, g)
    assert report["first_failure"] == "grading element acts wrongly on 1a1"


def test_trace_oracle_sees_a_wrong_cartan_action(algebra):
    # Negating [H1, X_a1] keeps every bracket in its weight, so the
    # certificate passes and only the trace itself can see it.
    rs, shared = algebra("G2")
    L = _copy(shared)
    h, a = 0, L.index_of_root(Root((1, 0)))
    L.brackets[h][a] = {m: -c for m, c in shared.basis_bracket(h, a).items()}
    assert L.grading_failure is None
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert check_trace_oracle(shared, g)["ok"]
    report = check_trace_oracle(L, g)
    assert not report["ok"]
    assert report["first_failure"].endswith("on H1")


def test_sign_flip_fails_jacobi_and_killing_invariance(algebra):
    # Flipping N(a1, a2) with its reverse keeps antisymmetry and every bracket
    # in its weight; rho's closedness is Jacobi, checked once per algebra.  The
    # metric reads only the [X_a, X_-a], which the flip leaves, so no crossing fails it.
    rs, L = algebra("A2")
    broken = _corrupted(L)
    reports = check_algebra(broken)
    assert reports["jacobi"]["first_failure"] == "jacobi fails on basis triple (2, 3, 5)"
    assert reports["killing_invariance"]["first_failure"] == "killing invariance fails on (2, 0, 5)"
    for crossing in enumerate_crossings(rs.rank):
        assert check_einstein(broken, grade_from_crossing(rs, crossing))["ok"], crossing.crossed


def test_wrong_cartan_action_fails_jacobi_and_the_coroot_rule(algebra):
    # Negating [H1, X_a1] with its reverse keeps every bracket in its weight;
    # Jacobi sees it on (X_a1, H1, X_a2), and a1([X_a1, X_-a1]) reads -2.
    rs, shared = algebra("A2")
    L = _copy(shared)
    h, a = 0, L.index_of_root(Root((1, 0)))
    for p, q in ((h, a), (a, h)):
        L.brackets[p][q] = {m: -c for m, c in shared.basis_bracket(p, q).items()}
    assert L.grading_failure is None
    reports = check_algebra(L)
    assert reports["jacobi"]["first_failure"] == "jacobi fails on basis triple (2, 0, 3)"
    assert reports["structure_constants"]["first_failure"] == "1a1([X[1a1], X[-1a1]]) = -2, not 2"
    assert not reports["killing_invariance"]["ok"]
    report = check_grading(L, grade_from_crossing(rs, CrossingSet.of(1)))
    assert report["first_failure"] == "grading element acts wrongly on 1a1"


def _reverse_flipped(L: LieAlgebraData) -> LieAlgebraData:
    """Negate [X_a2, X_a1] alone, keeping [X_a1, X_a2]."""
    bad = _copy(L)
    i, j = L.index_of_root(Root((1, 0))), L.index_of_root(Root((0, 1)))
    bad.brackets[j][i] = {t: -c for t, c in bad.brackets[j][i].items()}
    return bad


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_reverse_sign_flip_fails_each_invariance_check(algebra, name):
    # The flip keeps every bracket in its weight; Jacobi's antisymmetry step and
    # Killing invariance see it.  No gradation check reads [X_a2, X_a1]: the
    # metric is compared with psi on the [X_a, X_-a] only.
    rs, L = algebra(name)
    broken = _reverse_flipped(L)
    assert broken.grading_failure is None
    assert check_jacobi(broken)["first_failure"] == "antisymmetry fails on basis pair (2, 3)"

    report = check_killing_invariance(broken)
    assert not report["ok"]
    prefix = "killing invariance fails on "
    assert report["first_failure"].startswith(prefix)
    where = ast.literal_eval(report["first_failure"][len(prefix):])
    z, x, y = (basis_element(broken, i) for i in where)
    assert killing_form(broken, bracket(broken, z, x), y) + killing_form(
        broken, x, bracket(broken, z, y)
    )

    for crossing in enumerate_crossings(rs.rank):
        g = grade_from_crossing(rs, crossing)
        assert check_two_form(broken, g)["ok"], crossing.crossed
        assert check_einstein(broken, g)["ok"], crossing.crossed


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "F4"])
def test_invariance_walk_yields_exactly_the_zero_weight_triples(algebra, name):
    # Brute force: z in acting, x <= y in domain, weights summing to zero.
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(1))
    g0 = [*range(L.rank), *map(L.index_of_root, g.roots_of_degree(0))]
    m = [L.index_of_root(r) for r in g.nonzero_roots()]
    wt = weights(L)
    shapes = {
        "all x all": (range(L.dim), range(L.dim)),
        "g_0 x roots": (g0, range(L.rank, L.dim)),
        "g_0 x m": (g0, m),
    }
    for shape, (acting, domain) in shapes.items():
        walked = list(invariance_triples(L, acting, domain))
        brute = {
            (z, x, y)
            for z in acting
            for x in domain
            for y in domain
            if x <= y and not any(map(sum, zip(wt[z], wt[x], wt[y])))
        }
        assert len(walked) == len(set(walked)), shape
        assert set(walked) == brute, shape


def _two_form_report(algebra, monkeypatch, crossed, **closed_forms) -> dict:
    """check_two_form on A2 after replacing closed forms in verify's namespace."""
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(*crossed))
    assert check_two_form(L, g)["ok"]
    for name, replacement in closed_forms.items():
        monkeypatch.setattr(verify, name, replacement)
    report = check_two_form(L, g)
    assert not report["ok"]
    return report


def test_two_form_with_a_kernel_beyond_g0_fails(algebra, monkeypatch):
    def zeroed(rs, xi):  # X_a1 has degree 1 at {1}
        p = rs.positive_roots.index(Root((1, 0)))
        c = two_form_from_weight(rs, xi).coeffs
        return TwoForm(rs, c[:p] + (0,) + c[p + 1:])

    report = _two_form_report(algebra, monkeypatch, (1,), two_form_from_weight=zeroed)
    assert report["first_failure"] == "kernel of d(psi) is not g_0"


def test_two_form_nonzero_on_g0_fails_the_kernel_check(algebra, monkeypatch):
    # X_a2 has degree 0 at {1}: c_a2 != 0 shrinks the kernel below g_0, so the
    # kernel check already proves c_alpha = 0 exactly on degree 0.
    def tampered(rs, xi):
        p = rs.positive_roots.index(Root((0, 1)))
        c = two_form_from_weight(rs, xi).coeffs
        return TwoForm(rs, c[:p] + (1,) + c[p + 1:])

    report = _two_form_report(algebra, monkeypatch, (1,), two_form_from_weight=tampered)
    assert report["first_failure"] == "kernel of d(psi) is not g_0"


def test_negative_two_form_fails_positivity(algebra, monkeypatch):
    # d(-psi) has the kernel g_0 and is closed, so only the sign can fail.
    def negated(rs, xi):
        return two_form_from_weight(rs, xi.scale(-1))

    report = _two_form_report(algebra, monkeypatch, (1,), two_form_from_weight=negated)
    assert report["first_failure"] == "coefficient on 1a1 not positive: -6"


def test_coefficients_off_psi_fail_the_expansion(algebra, monkeypatch):
    def shifted(g):
        return {i: a + 1 for i, a in koszul_coefficients(g).items()}

    report = _two_form_report(algebra, monkeypatch, (1,), koszul_coefficients=shifted)
    assert report["first_failure"] == "2 sum a_i pi_i != psi"


def test_coefficient_below_two_fails(algebra):
    # A2 {1,2} with a1 moved to degree 0 passes the kernel, closedness and
    # positivity steps, but delta_h = a1 gives b_1 = -2, so a_1 = 0 < 2:
    # koszul_coefficients refuses it, and the check reports that instead of raising.
    rs, L = algebra("A2")
    bad = regraded(grade_from_crossing(rs, CrossingSet.of(1, 2)), {Root((1, 0)): 0})
    assert check_two_form(L, bad) == {"ok": False, "first_failure": "b_1 = -2 is negative"}


@pytest.mark.parametrize(
    "crossed, factor, message",
    [
        ((1, 2), 2, "metric is not d(psi)(., K .) at 1a1: -8 vs -4"),
        ((1, 2), -1, "metric is not d(psi)(., K .) at 1a1: 4 vs -4"),
        ((1, 2), 0, "metric is not d(psi)(., K .) at 1a1: 0 vs -4"),
        ((1,), 0, "metric is not d(psi)(., K .) at 1a1: 0 vs -6"),
    ],
)
def test_metric_off_its_formula_fails_einstein(algebra, monkeypatch, crossed, factor, message):
    # g_a1 scaled.  At the Borel crossing {1,2} g_0 is the Cartan, under which
    # every metric pairing X_a with X_-a only is invariant; the formula
    # g_a = -sign(deg a) psi([X_a, X_-a]) sees the doubled or negated value, and
    # it runs before the signature counts the pairs.
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(*crossed))
    es = einstein_structure(g, L, 1)
    assert es.basis[0].label() == "X[1a1]"
    es.metric = (factor * es.metric[0], *es.metric[1:])
    monkeypatch.setattr(verify, "einstein_structure", lambda *args: es)
    assert check_einstein(L, g) == {"ok": False, "first_failure": message}


def test_metric_row_storing_a_zero_fails_einstein(algebra, monkeypatch):
    # A zero g_a1 on A1, which has no root in g_0 to act on it: the formula
    # refuses it, and check_einstein reports that instead of raising.
    rs, L = algebra("A1")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    es = einstein_structure(g, L, 1)
    es.metric = (0,)
    monkeypatch.setattr(verify, "einstein_structure", lambda *args: es)
    message = "metric is not d(psi)(., K .) at 1a1: 0 vs -4"
    assert check_einstein(L, g) == {"ok": False, "first_failure": message}


def test_psi_vanishing_on_m_fails_einstein_as_degenerate(algebra):
    # psi = 2 pi_2 on A2 {1,2}: psi(H_a1) = 0, so rho and the metric agree with
    # the formula and g_a1 = 0.  The pair count refuses it, and check_einstein
    # reports that instead of raising.
    rs, L = algebra("A2")
    g = grade_from_crossing(rs, CrossingSet.of(1, 2))
    psi = rs.weights[1].scale(2)
    report = check_einstein(L, g, (psi, two_form_from_weight(rs, psi)))
    assert report == {"ok": False, "first_failure": "metric is degenerate at X[1a1]"}


def test_sign_flip_keeping_weights_fails_sparse_jacobi(algebra):
    rs, L = algebra("G2")
    broken = _corrupted(L)
    assert broken.grading_failure is None
    report = check_jacobi(broken)
    assert not report["ok"]
    assert "jacobi fails" in report["first_failure"]
    assert report["triples"] < 364  # C(14, 3): only triples with a term


def test_jacobi_examines_exactly_the_triples_with_a_term(algebra):
    # The reference walk's dense count: triples i < j < k where [[i,j],k],
    # [[j,k],i] or [[k,i],j] has a nonzero product of basis brackets.
    _, L = algebra("B3")
    pair = L.basis_bracket

    def has_term(i, j, k):
        return any(pair(m, k) for m in pair(i, j))

    dense = sum(
        has_term(i, j, k) or has_term(j, k, i) or has_term(k, i, j)
        for i in range(L.dim)
        for j in range(i + 1, L.dim)
        for k in range(j + 1, L.dim)
    )
    report = jacobi_all_triples(L)
    assert report["ok"]
    assert report["triples"] == dense < 1330  # C(21, 3)


def _dense_jacobi_triples(L: LieAlgebraData) -> list[tuple[int, int, int]]:
    """Sorted triples i < j < k with a nonzero product in [[i,j],k], [[j,k],i] or [[i,k],j].

    A scan over every triple, to check the sparse walk of ``reference.jacobi_sums``.
    """
    pair = L.basis_bracket

    def has_term(i, j, k):
        return any(pair(m, k) for m in pair(i, j))

    return [
        (i, j, k)
        for i in range(L.dim)
        for j in range(i + 1, L.dim)
        for k in range(j + 1, L.dim)
        if has_term(i, j, k) or has_term(j, k, i) or has_term(i, k, j)
    ]


def _generators(L: LieAlgebraData) -> list[int]:
    """``L.generators``, checked against the roots: X_{alpha_i}, then X_{-alpha_i}."""
    gens = list(L.generators)
    unit = [tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank)]
    assert [L.roots[x - L.rank].coeffs for x in gens] == unit + [
        tuple(-c for c in u) for u in unit
    ]
    return gens


def _defect(L: LieAlgebraData, x: int, y: int, z: int) -> tuple[bool, Counter]:
    """(has a term, [x,[y,z]] - [[x,y],z] - [y,[x,z]]) from the basis brackets."""
    pair, acc, term = L.basis_bracket, Counter(), False
    products = (
        (1, pair(y, z), lambda m: pair(x, m)),  # [x,[y,z]]
        (-1, pair(x, y), lambda m: pair(m, z)),  # -[[x,y],z]
        (-1, pair(x, z), lambda m: pair(y, m)),  # -[y,[x,z]]
    )
    for sign, inner, outer in products:
        for m, c in inner.items():
            for t, c2 in outer(m).items():
                term = True
                acc[t] += sign * c * c2
    return term, acc


def _dense_derivation_pairs(L: LieAlgebraData) -> list[tuple[int, int, int]]:
    """Sorted (x, y, z), x a generator and y < z, where the defect has a product term."""
    return [
        (x, y, z)
        for x in _generators(L)
        for y in range(L.dim)
        for z in range(y + 1, L.dim)
        if _defect(L, x, y, z)[0]
    ]


def test_derivation_jacobi_examines_exactly_the_generator_pairs_with_a_term(algebra):
    _, L = algebra("B3")
    assert check_jacobi(L) == {
        "ok": True,
        "first_failure": None,
        "triples": len(_dense_derivation_pairs(L)),
    }


@pytest.mark.parametrize("name, triples", [("F4", 5654), ("E6", 13056)])
def test_jacobi_triple_counts(algebra, name, triples):
    # The reference all-triples walk on the two algebras the exceptional benchmark checks.
    _, L = algebra(name)
    assert jacobi_all_triples(L) == {"ok": True, "first_failure": None, "triples": triples}


@pytest.mark.parametrize("name, triples", [("F4", 2488), ("E6", 5382)])
def test_derivation_jacobi_triple_counts(algebra, name, triples):
    # The exceptional benchmark pass runs Jacobi on these two: 7,870 (x, y, z).
    _, L = algebra(name)
    assert check_jacobi(L) == {"ok": True, "first_failure": None, "triples": triples}


def test_one_flipped_constant_reports_the_dense_first_failure(algebra):
    # Flip N(a2, a3) but not N(a3, a2).  The reference's reported triple and
    # count must be those of the first failing triple in the dense sorted list
    # of triples with a term, each summed from the basis brackets.
    _, shared = algebra("B3")
    L = _copy(shared)
    i, j = L.index_of_root(Root((0, 1, 0))), L.index_of_root(Root((0, 0, 1)))
    L.brackets[i][j] = {t: -c for t, c in L.brackets[i][j].items()}
    pair = L.basis_bracket

    def fails(i, j, k):
        acc = Counter()
        for p, q, r, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
            for m, c in pair(p, q).items():
                for t, c2 in pair(m, r).items():
                    acc[t] += sign * c * c2
        return any(acc.values())

    dense = _dense_jacobi_triples(L)
    n = next(n for n, triple in enumerate(dense) if fails(*triple))
    assert 0 < n < len(dense) - 1
    assert jacobi_all_triples(L) == {
        "ok": False,
        "first_failure": f"jacobi fails on basis triple {dense[n]}",
        "triples": n + 1,
    }
    # The derivation check stops at its first step, on the stored pair.
    assert check_jacobi(L) == {
        "ok": False,
        "first_failure": f"antisymmetry fails on basis pair {(min(i, j), max(i, j))}",
        "triples": 0,
    }


def test_one_flipped_pair_reports_the_dense_first_derivation_failure(algebra):
    # Flip N(a2, a3) with N(a3, a2): antisymmetry and generation hold, so the
    # triple and count are those of the first failing (x, y, z) in the dense
    # sorted list of generator pairs with a term.
    _, shared = algebra("B3")
    L = _copy(shared)
    i, j = L.index_of_root(Root((0, 1, 0))), L.index_of_root(Root((0, 0, 1)))
    for p, q in ((i, j), (j, i)):
        L.brackets[p][q] = {t: -c for t, c in L.brackets[p][q].items()}
    dense = _dense_derivation_pairs(L)
    n = next(n for n, triple in enumerate(dense) if any(_defect(L, *triple)[1].values()))
    assert 0 < n < len(dense) - 1
    assert check_jacobi(L) == {
        "ok": False,
        "first_failure": f"jacobi fails on basis triple {dense[n]}",
        "triples": n + 1,
    }
    assert not jacobi_all_triples(L)["ok"]


@pytest.mark.parametrize("upper", [True, False])
def test_deleted_reverse_entry_fails_antisymmetry_at_the_stored_pair(algebra, upper):
    _, shared = algebra("G2")
    L = _copy(shared)
    i, j = next(
        (i, j) for i in range(L.rank, L.dim) for j in L.brackets[i]
        if j >= L.rank and (i < j) == upper
    )
    del L.brackets[j][i]
    assert check_jacobi(L) == {
        "ok": False,
        "first_failure": f"antisymmetry fails on basis pair {(i, j)}",
        "triples": 0,
    }


def test_stored_self_bracket_fails_antisymmetry(algebra):
    _, shared = algebra("A2")
    L = _copy(shared)
    L.brackets[3][3] = {}  # stored, although empty
    assert check_jacobi(L)["first_failure"] == "antisymmetry fails on basis pair (3, 3)"


def test_unreachable_root_fails_generation_naming_it(algebra):
    # Without [X_a1, X_a2] (both orders) no single-term step reaches X_{a1+a2};
    # X_{-a1-a2} is still reached from [X_-a1, X_-a2].
    _, shared = algebra("A2")
    L = _copy(shared)
    i, j = L.index_of_root(Root((1, 0))), L.index_of_root(Root((0, 1)))
    del L.brackets[i][j], L.brackets[j][i]
    assert check_jacobi(L) == {
        "ok": False,
        "first_failure": f"generation fails: {Root((1, 1))} is not reached",
        "triples": 0,
    }


def test_simple_coroots_missing_the_cartan_fail_generation(algebra):
    # [X_a1, X_-a1] = H_1 + H_2 and [X_a2, X_-a2] = H_1 + H_2 (both orders)
    # span one line of the Cartan.
    _, shared = algebra("A2")
    L = _copy(shared)
    for a in (Root((1, 0)), Root((0, 1))):
        x, nx = L.index_of_root(a), L.index_of_root(-a)
        L.brackets[x][nx], L.brackets[nx][x] = {0: 1, 1: 1}, {0: -1, 1: -1}
    assert check_jacobi(L) == {
        "ok": False,
        "first_failure": "generation fails: the [X_a, X_-a] miss the Cartan",
        "triples": 0,
    }


@pytest.mark.parametrize("name", [str(stype) for stype in sweep_types(4)])
def test_derivation_jacobi_agrees_with_the_all_triples_walk(algebra, name):
    _, L = algebra(name)
    assert check_jacobi(L)["ok"] and jacobi_all_triples(L)["ok"]


@pytest.mark.slow
def test_derivation_jacobi_agrees_with_the_all_triples_walk_to_rank_8():
    for stype in sweep_types(8):
        L = chevalley_constants(build_root_system(stype))
        assert check_jacobi(L)["ok"] and jacobi_all_triples(L)["ok"], str(stype)


def _root_constant_tampers(L: LieAlgebraData):
    """Copies with one stored [X_a, X_b], a before b, and its reverse doubled or negated.

    Each root-root entry: N(a, b) X_{a+b}, or the coroot H_a when b = -a.
    """
    for i in range(L.rank, L.dim):
        for j in L.brackets[i]:
            if j > i:
                for factor in (2, -1):
                    bad = _copy(L)
                    for p, q in ((i, j), (j, i)):
                        bad.brackets[p][q] = {t: factor * c for t, c in bad.brackets[p][q].items()}
                    yield (i, j, factor), bad


@pytest.mark.parametrize("name, tampers", [("A2", 18), ("B3", 138), ("C3", 138), ("G2", 72)])
def test_every_tampered_root_constant_fails_both_jacobi_routes(algebra, name, tampers):
    # Each keeps antisymmetry and generation, so only the derivation step can
    # catch it; the reference must fail as well.
    _, L = algebra(name)
    seen = 0
    for where, bad in _root_constant_tampers(L):
        seen += 1
        assert not check_jacobi(bad)["ok"], where
        assert not jacobi_all_triples(bad)["ok"], where
    assert seen == tampers


@pytest.mark.parametrize("upper", [True, False])
def test_jacobi_streams_sorted_triples_without_antisymmetry(algebra, upper):
    # Drop one stored root-root bracket, so its reverse has no partner; the
    # reference stream must still be exactly the sorted triples whose checked
    # terms [[i,j],k], [[j,k],i] and [[i,k],j] have a nonzero product.
    _, shared = algebra("G2")
    L = _copy(shared)
    rows = L.brackets
    i, j = next(
        (i, j) for i in range(L.rank, L.dim) for j in rows[i]
        if j >= L.rank and (i < j) == upper
    )
    del rows[i][j]
    streamed = [(a, b, c) for a, sums in jacobi_sums(rows) for (b, c), _ in sums]
    assert streamed == _dense_jacobi_triples(L)


@pytest.mark.parametrize(
    "name, signature", [("E7", (33, 33)), ("E8", (78, 78))]
)
def test_exceptional_oracles_at_crossing_one(algebra, name, signature):
    # Jacobi on E7 runs in test_chevalley.test_structure_constants_high_rank.
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(1))
    reports = {
        "killing_invariance": check_killing_invariance(L),
        "two_form": check_two_form(L, g),
        "einstein": check_einstein(L, g),
        "trace_oracle": check_trace_oracle(L, g),
        "killing_dual": check_killing_dual(L, g),
    }
    for check, report in reports.items():
        assert report["ok"], (check, report["first_failure"])
    assert einstein_structure(g, L, 1).signature() == signature


@pytest.mark.parametrize(
    "name, crossed, signature",
    [
        ("E6", (1, 4, 6), (33, 33)),
        ("E6", tuple(range(1, 7)), (36, 36)),
        ("E7", (1, 4, 7), (58, 58)),
        ("E7", tuple(range(1, 8)), (63, 63)),
        ("E8", (1, 4, 8), (112, 112)),
        ("E8", tuple(range(1, 9)), (120, 120)),
    ],
)
def test_exceptional_two_form_and_einstein(algebra, name, crossed, signature):
    rs, L = algebra(name)
    g = grade_from_crossing(rs, CrossingSet.of(*crossed))
    for check in (check_two_form, check_einstein):
        report = check(L, g)
        assert report["ok"], (check.__name__, report["first_failure"])
    assert einstein_structure(g, L, 1).signature() == signature
