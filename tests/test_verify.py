import dataclasses
import re
import time
from fractions import Fraction as Q

import pytest

from parakahler.chevalley import LieAlgebraData
from parakahler.errors import DomainError
from parakahler.gradation import CrossingSet, enumerate_crossings, grade_from_crossing
from parakahler import verify
from parakahler.koszul import einstein_structure
from parakahler.rootsys import Root
from parakahler.verify import (
    check_algebra,
    check_einstein,
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


def _copy(L: LieAlgebraData, nconst=None) -> LieAlgebraData:
    """A fresh algebra with empty caches, optionally with other constants."""
    return LieAlgebraData(L.rs, dict(nconst or L.nconst))


def _corrupted(L: LieAlgebraData) -> LieAlgebraData:
    """Flip one pair of structure constants, keeping antisymmetry."""
    a, b = Root((1, 0)), Root((0, 1))
    bad = dict(L.nconst)
    bad[(a, b)] = -bad[(a, b)]
    bad[(b, a)] = -bad[(b, a)]
    return _copy(L, bad)


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


def _with_constants(L: LieAlgebraData, edit) -> LieAlgebraData:
    nconst = dict(L.nconst)
    edit(nconst)
    return LieAlgebraData(L.rs, nconst)


def test_stray_constant_fails_structure_check_and_bracket_rows(algebra):
    # a1 + (a1+a2) is not a root of A2, yet N = 2 with its antisymmetric
    # partner used to pass the magnitude check.
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((1, 1))

    def stray(nconst):
        nconst[(a, b)], nconst[(b, a)] = 2, -2

    broken = _with_constants(L, stray)
    report = check_structure_constants(broken)
    assert not report["ok"]
    assert report["first_failure"] == f"N({a}, {b}) is stored for a pair without a root sum"
    with pytest.raises(DomainError, match=re.escape(f"N({a}, {b})")):
        check_jacobi(broken)


def test_missing_reverse_fails_structure_check(algebra):
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((0, 1))
    broken = _with_constants(L, lambda nconst: nconst.pop((b, a)))
    report = check_structure_constants(broken)
    assert not report["ok"]
    assert report["first_failure"] == f"N({a}, {b}) is stored without N({b}, {a})"


def test_missing_bracketable_pair_fails_structure_check(algebra):
    rs, L = algebra("A2")
    a, b = Root((1, 0)), Root((0, 1))

    def drop(nconst):
        del nconst[(a, b)], nconst[(b, a)]

    report = check_structure_constants(_with_constants(L, drop))
    assert not report["ok"]
    assert report["first_failure"] == f"({a}, {b}) has a root sum but no stored N"


def test_tampered_degree_fails_grading(algebra):
    rs, L = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    assert check_grading(L, g)["ok"]
    root = Root((1, 1))
    bad = dataclasses.replace(g, degrees={**g.degrees, root: g.degrees[root] + 1})
    report = check_grading(L, bad)
    assert not report["ok"]
    assert str(root) in report["first_failure"]


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


def test_sign_flip_fails_closedness_at_every_crossing(algebra):
    # Flipping N(a1, a2) alone breaks the cyclic sum on
    # (X_a1, X_a2, X_-(a1+a2)), the first zero-weight triple it touches.
    rs, L = algebra("A2")
    broken = _corrupted(L)
    for crossing in enumerate_crossings(rs.rank):
        report = check_two_form(broken, grade_from_crossing(rs, crossing))
        assert not report["ok"], crossing
        assert report["first_failure"] == "d(rho) != 0 on triple (2, 3, 7)"


def test_wrong_cartan_action_fails_closedness(algebra):
    # Negating [H1, X_a1] with its reverse keeps every bracket in its
    # weight; the cyclic sum on (H1, X_a1, X_-a1) is the first to see it.
    rs, shared = algebra("A2")
    L = _copy(shared)
    h, a = 0, L.index_of_root(Root((1, 0)))
    for p, q in ((h, a), (a, h)):
        L.brackets[p][q] = {m: -c for m, c in shared.basis_bracket(p, q).items()}
    assert L.grading_failure is None
    report = check_two_form(L, grade_from_crossing(rs, CrossingSet.of(1)))
    assert not report["ok"]
    assert report["first_failure"] == "d(rho) != 0 on triple (0, 2, 5)"


def _tampered_einstein(algebra, monkeypatch, tamper) -> dict:
    """check_einstein on G2 {1} after ``tamper(metric, roots, g)`` edits rows."""
    rs, L = algebra("G2")
    g = grade_from_crossing(rs, CrossingSet.of(1))
    es = einstein_structure(g, L, 1)
    metric = [dict(row) for row in es.metric]
    tamper(metric, g.nonzero_roots(), g)
    es.metric = tuple(metric)
    monkeypatch.setattr(verify, "einstein_structure", lambda *args: es)
    report = check_einstein(L, g)
    assert not report["ok"]
    return report


def test_metric_entry_without_transpose_fails_einstein(algebra, monkeypatch):
    def tamper(metric, roots, g):
        metric[roots.index(Root((-1, 0)))].clear()  # (a1, -a1) stays stored

    report = _tampered_einstein(algebra, monkeypatch, tamper)
    assert report["first_failure"] == "metric not symmetric"


def test_metric_pairing_equal_degree_signs_fails_einstein(algebra, monkeypatch):
    def tamper(metric, roots, g):
        a, b = roots.index(Root((1, 0))), roots.index(Root((1, 1)))
        assert g.ksign(roots[a]) == g.ksign(roots[b]) == 1
        metric[a][b] = metric[b][a] = Q(1)

    report = _tampered_einstein(algebra, monkeypatch, tamper)
    assert report["first_failure"] == "metric not K-skew"


def test_metric_off_its_weights_fails_einstein(algebra, monkeypatch):
    # The sparse ad-invariance check skips triples whose weights do not
    # cancel, so a metric entry off the weight pairs must be caught first.
    def tamper(metric, roots, g):
        a = next(k for k, r in enumerate(roots) if g.ksign(r) > 0)
        b = next(
            k for k, r in enumerate(roots) if g.ksign(r) < 0 and r != -roots[a]
        )
        metric[a][b] = metric[b][a] = Q(1)  # symmetric and K-skew, wrong weight

    report = _tampered_einstein(algebra, monkeypatch, tamper)
    assert "metric pairs" in report["first_failure"]


def test_sign_flip_keeping_weights_fails_sparse_jacobi(algebra):
    rs, L = algebra("G2")
    broken = _corrupted(L)
    assert broken.grading_failure is None
    report = check_jacobi(broken)
    assert not report["ok"]
    assert "jacobi fails" in report["first_failure"]
    assert report["triples"] < 364  # C(14, 3): only triples with a term


def test_jacobi_examines_exactly_the_triples_with_a_term(algebra):
    # Dense count: triples i < j < k where [[i,j],k], [[j,k],i] or [[k,i],j]
    # has a nonzero product of basis brackets.
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
    report = check_jacobi(L)
    assert report["ok"]
    assert report["triples"] == dense < 1330  # C(21, 3)


@pytest.mark.parametrize("upper", [True, False])
def test_jacobi_streams_sorted_triples_without_antisymmetry(algebra, upper):
    # Drop one stored root-root bracket, so its reverse has no partner; the
    # stream must still be exactly the sorted triples whose checked terms
    # [[i,j],k], [[j,k],i] and [[i,k],j] have a nonzero product.
    _, shared = algebra("G2")
    L = _copy(shared)
    rows = L.brackets
    i, j = next(
        (i, j) for i in range(L.rank, L.dim) for j in rows[i]
        if j >= L.rank and (i < j) == upper
    )
    del rows[i][j]
    pair = L.basis_bracket

    def has_term(i, j, k):
        return any(pair(m, k) for m in pair(i, j))

    dense = [
        (i, j, k)
        for i in range(L.dim)
        for j in range(i + 1, L.dim)
        for k in range(j + 1, L.dim)
        if has_term(i, j, k) or has_term(j, k, i) or has_term(i, k, j)
    ]
    assert list(verify._jacobi_triples(rows)) == dense


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
