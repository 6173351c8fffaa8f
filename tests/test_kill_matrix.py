"""The oracle kill matrix: single tampers of six families on every type of rank <= 3.

Each tamper doubles, negates or zeroes one stored value, and only edits that
change a value are made.  The algebra-level families (a bracket term with its
partner, a coroot table entry, an entry of the Killing Cartan inverse) run
``check_algebra`` and every gradation check on every crossing; the
gradation-level families (a positive-root degree, a coefficient of rho, a
metric value) run the gradation checks of their crossing, as ``run_sweep``
does.  Per family the test pins how many tampers each set of failing checks
kills, so a check that stops killing, or a removed check that was the only
one to kill some tamper, moves a count; no tamper of any family passes every
check.  Killing invariance acts by generators, which covers all of L only on
an algebra that passes Jacobi, and the metric's invariance is argued from a
linear degree vector; a bracket or degree tamper that they let through fails
``jacobi``, ``structure_constants`` or ``grading``.
"""

import copy
from collections import Counter

import pytest

from parakahler import verify
from parakahler.chevalley import LieAlgebraData
from parakahler.gradation import enumerate_crossings, grade_from_crossing
from parakahler.koszul import EinsteinStructure, TwoForm, einstein_structure
from reference import regraded

TYPES = [str(stype) for stype in verify.sweep_types(3)]  # A1 A2 A3 B2 B3 C3 G2
FACTORS = (2, -1, 0)


def _gradation_failures(L, g, forms=None) -> set[str]:
    forms = forms or verify.closed_forms(L, g)
    reports = {
        **verify.check_gradation(L, g),
        "trace_oracle": verify.check_trace_oracle(L, g, forms),
        "two_form": verify.check_two_form(L, g, forms),
        "killing_dual": verify.check_killing_dual(L, g, forms),
        "einstein": verify.check_einstein(L, g, forms),
    }
    return {name for name, report in reports.items() if not report["ok"]}


def _failures(L) -> set[str]:
    """Every check of ``check_algebra``, then the gradation checks of every crossing."""
    failed = {name for name, report in verify.check_algebra(L).items() if not report["ok"]}
    for crossing in enumerate_crossings(L.rank):
        failed |= _gradation_failures(L, grade_from_crossing(L.rs, crossing))
    return failed


def _scaled(terms: dict, t: int, f: int) -> dict:
    return {s: c * f if s == t else c for s, c in terms.items() if c * f or s != t}


def _bracket_tampers(L):
    """Each stored term t of [e_i, e_j], i < j, scaled together with its partner in [e_j, e_i]."""
    for i, row in enumerate(L.brackets):
        for j in (j for j in sorted(row) if j > i):
            for t in sorted(row[j]):
                for f in FACTORS:
                    rows = [{k: dict(out) for k, out in r.items()} for r in L.brackets]
                    for p, q in ((i, j), (j, i)):
                        rows[p][q] = _scaled(rows[p][q], t, f)
                        if not rows[p][q]:
                            del rows[p][q]  # rows store nonzero brackets only
                    yield (i, j, t, f), LieAlgebraData(L.rs, rows)


def _coroot_tampers(L):
    """One entry of ``rs.positive_coroots`` scaled after the bracket rows were built."""
    table = L.rs.positive_coroots
    for p, coroot in enumerate(table):
        for h, c in enumerate(coroot):
            for f in FACTORS if c else ():
                rs = copy.copy(L.rs)
                rs.positive_coroots = (*table[:p], (*coroot[:h], c * f, *coroot[h + 1:]),
                                       *table[p + 1:])
                bad = copy.copy(L)
                bad.rs = rs
                yield (p, h, f), bad


def _killing_inverse_tampers(L):
    """One entry of M in ``killing_cartan_inverse`` = (M, d) scaled."""
    m, d = L.killing_cartan_inverse
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            for f in FACTORS if v else ():
                bad = copy.copy(L)
                bad.killing_cartan_inverse = ([*m[:r], [*row[:c], v * f, *row[c + 1:]],
                                               *m[r + 1:]], d)
                yield (r, c, f), bad


def _algebra_matrix(algebra, tampers) -> Counter:
    kills = Counter()
    for name in TYPES:
        _, L = algebra(name)
        for _, bad in tampers(L):
            kills[" ".join(sorted(_failures(bad)))] += 1
    return kills


def _gradations(algebra):
    for name in TYPES:
        rs, L = algebra(name)
        for crossing in enumerate_crossings(rs.rank):
            yield name, L, grade_from_crossing(rs, crossing)


@pytest.mark.parametrize(
    "family, tampers, kills",
    [
        ("bracket", _bracket_tampers, {
            "grading jacobi killing_invariance structure_constants trace_oracle": 300,
            "grading jacobi killing_invariance trace_oracle": 156,
            "jacobi killing_invariance structure_constants": 384,
            "jacobi killing_invariance": 192,
            # The 201 terms of the [X_a, X_-a], a > 0, move the metric off its formula.
            "einstein jacobi killing_invariance structure_constants": 132,
            "einstein jacobi structure_constants": 51,
            "einstein jacobi killing_invariance": 15,
            "einstein structure_constants": 2,  # A1: [X_a, X_-a] times 2 or -1
            "einstein jacobi": 1,  # A1: [X_a, X_-a] zeroed, so the Cartan is not reached
        }),
        ("coroot", _coroot_tampers, {
            "einstein structure_constants two_form": 134,
            "einstein structure_constants": 67,
        }),
        ("killing_inverse", _killing_inverse_tampers, {"killing_dual": 120}),
    ],
)
def test_algebra_tampers(algebra, family, tampers, kills):
    seen = _algebra_matrix(algebra, tampers)
    assert "" not in seen, seen[""]  # no tamper escapes
    assert dict(seen) == kills


def test_degree_tampers(algebra):
    # The metric is d(psi)(., K .) of the tampered degrees too; only a zero g_a
    # fails einstein, and every tamper fails grading.
    seen = Counter()
    for _, L, g in _gradations(algebra):
        for root, d in zip(g.rs.positive_roots, g.root_degrees):
            for f in FACTORS if d else ():
                seen[" ".join(sorted(_gradation_failures(L, regraded(g, {root: d * f}))))] += 1
    assert "" not in seen, seen[""]
    assert dict(seen) == {
        "fundamental grading": 167,
        "fundamental grading trace_oracle": 61,
        "fundamental grading two_form": 60,
        "grading trace_oracle": 106,
        "grading two_form": 99,
        "einstein grading two_form": 7,
        "einstein fundamental grading two_form": 1,
    }


def test_rho_tampers(algebra):
    # Every shifted rho fails check_killing_dual and check_einstein, neither of
    # which reads rho's coefficients but in the comparison: omega_z comes from
    # the Killing Gram, the metric's formula from psi on the bracket rows.
    seen = Counter()
    for _, L, g in _gradations(algebra):
        psi, rho = verify.closed_forms(L, g)
        c = rho.coeffs
        for p, v in enumerate(c):
            for f in FACTORS if v else ():
                bad = (psi, TwoForm(g.rs, c[:p] + (v * f,) + c[p + 1:]))
                seen[" ".join(sorted(_gradation_failures(L, g, bad)))] += 1
    assert dict(seen) == {
        "einstein killing_dual": 167,
        "einstein killing_dual two_form": 334,
    }


def test_metric_tampers(algebra, monkeypatch):
    # Each scaled g_a is off its formula -sign(deg a) psi([X_a, X_-a]).
    seen = Counter()
    for name, L, g in _gradations(algebra):
        es = einstein_structure(g, L, 1)
        metric = es.metric
        for a, v in enumerate(metric):
            for f in FACTORS:
                bad = EinsteinStructure(g, es.lam, es.rho, metric[:a] + (v * f,) + metric[a + 1:])
                monkeypatch.setattr(verify, "einstein_structure", lambda *args, bad=bad: bad)
                failed = _gradation_failures(L, g)
                seen[" ".join(sorted(failed))] += 1
                assert failed, (name, g.crossing.crossed, a, f)
    assert dict(seen) == {"einstein": 501}
