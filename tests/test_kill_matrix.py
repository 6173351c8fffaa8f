"""The oracle kill matrix: single tampers of six families on every type of rank <= 3.

Each tamper doubles, negates or zeroes one stored value, and only edits that
change a value are made.  The algebra-level families (a bracket term with its
partner, a coroot table entry, an entry of the Killing Cartan inverse) run
``check_algebra`` and every gradation check on every crossing; the
gradation-level families (a positive-root degree, a coefficient of rho, a
metric value) run the gradation checks of their crossing, as ``run_sweep``
does.  Per family the test pins how many tampers each set of failing checks
kills, so a check that stops killing, or a removed check that was the only
one to kill some tamper, moves a count.  A tamper that every check passes
fails the test unless ``ESCAPES`` names its family with the reason.  The
invariance checks act by generators, which covers all of L or g_0 only on an
algebra that passes Jacobi and a linear degree vector; a bracket or degree
tamper they let through fails ``jacobi``, ``structure_constants`` or ``grading``.
"""

import copy
from collections import Counter

import pytest

from parakahler import verify
from parakahler.chevalley import LieAlgebraData
from parakahler.gradation import enumerate_crossings, grade_from_crossing
from parakahler.koszul import EinsteinStructure, TwoForm, basis_degrees, einstein_structure
from reference import invariance_terms, regraded

TYPES = [str(stype) for stype in verify.sweep_types(3)]  # A1 A2 A3 B2 B3 C3 G2
FACTORS = (2, -1, 0)

# Family -> the reason its tampers that every check passes are let through.
ESCAPES = {
    "metric": "g_a times 2 or -1, with no term of the g_0-invariance check linking a to "
              "another root of m, is still invariant and nondegenerate; no check compares "
              "the metric with its Ricci form",
}


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


def _algebra_matrix(algebra, tampers) -> tuple[Counter, list]:
    kills, escaped = Counter(), []
    for name in TYPES:
        _, L = algebra(name)
        for where, bad in tampers(L):
            failed = _failures(bad)
            kills[" ".join(sorted(failed))] += 1
            if not failed:
                escaped.append((name, where))
    return kills, escaped


def _gradations(algebra):
    for name in TYPES:
        rs, L = algebra(name)
        for crossing in enumerate_crossings(rs.rank):
            yield name, L, grade_from_crossing(rs, crossing)


@pytest.mark.parametrize(
    "family, tampers, kills",
    [
        ("bracket", _bracket_tampers, {
            "einstein grading jacobi killing_invariance structure_constants trace_oracle": 300,
            "einstein grading jacobi killing_invariance trace_oracle": 156,
            "einstein jacobi killing_invariance structure_constants": 252,
            "einstein jacobi killing_invariance": 126,
            "jacobi killing_invariance structure_constants": 264,
            "jacobi killing_invariance": 81,
            "jacobi structure_constants": 51,
            "structure_constants": 2,  # A1: [X_a, X_-a] times 2 or -1
            "jacobi": 1,  # A1: [X_a, X_-a] zeroed, so the Cartan is not reached
        }),
        ("coroot", _coroot_tampers, {
            "structure_constants": 6,
            "structure_constants two_form": 3,
            "einstein structure_constants two_form": 131,
            "einstein structure_constants": 61,
        }),
        ("killing_inverse", _killing_inverse_tampers, {"killing_dual": 120}),
    ],
)
def test_algebra_tampers(algebra, family, tampers, kills):
    seen, escaped = _algebra_matrix(algebra, tampers)
    assert not escaped or family in ESCAPES, escaped
    assert dict(seen) == kills


def test_degree_tampers(algebra):
    seen = Counter()
    for _, L, g in _gradations(algebra):
        for root, d in zip(g.rs.positive_roots, g.root_degrees):
            for f in FACTORS if d else ():
                seen[" ".join(sorted(_gradation_failures(L, regraded(g, {root: d * f}))))] += 1
    assert dict(seen) == {
        "fundamental grading": 167,
        "grading trace_oracle": 27,
        "grading two_form": 38,
        "einstein grading trace_oracle": 79,
        "fundamental grading trace_oracle": 31,
        "fundamental grading two_form": 32,
        "einstein grading two_form": 68,
        "einstein fundamental grading trace_oracle": 30,
        "einstein fundamental grading two_form": 29,
    }


def test_rho_tampers(algebra):
    # Every shifted rho fails check_killing_dual, which reads nothing of rho but the comparison.
    seen = Counter()
    for _, L, g in _gradations(algebra):
        psi, rho = verify.closed_forms(L, g)
        c = rho.coeffs
        for p, v in enumerate(c):
            for f in FACTORS if v else ():
                bad = (psi, TwoForm(g.rs, c[:p] + (v * f,) + c[p + 1:]))
                seen[" ".join(sorted(_gradation_failures(L, g, bad)))] += 1
    assert dict(seen) == {
        "killing_dual": 58,
        "killing_dual two_form": 58,
        "einstein killing_dual two_form": 276,
        "einstein killing_dual": 109,
    }


def _unlinked(L, g) -> set[int]:
    """Positions over m+ of the roots that no g_0-invariance term of the all-z walk links to
    another root of m."""
    deg, rk, npos = basis_degrees(L, g), L.rank, len(L.rs.positive_roots)
    terms = invariance_terms(L)
    linked = {(u - rk) % npos
              for z, d in enumerate(deg) if not d
              for x, y, ny, _, _ in terms[z] if deg[x] and deg[y] and x != ny
              for u in (x, y)}
    return {a for a, p in enumerate(p for p in range(npos) if deg[rk + p]) if p not in linked}


def test_metric_tampers(algebra, monkeypatch):
    seen = Counter()
    for name, L, g in _gradations(algebra):
        es, unlinked = einstein_structure(g, L, 1), _unlinked(L, g)
        metric = es.metric
        for a, v in enumerate(metric):
            for f in FACTORS:
                bad = EinsteinStructure(g, es.lam, es.rho, metric[:a] + (v * f,) + metric[a + 1:])
                monkeypatch.setattr(verify, "einstein_structure", lambda *args, bad=bad: bad)
                failed = _gradation_failures(L, g)
                seen[" ".join(sorted(failed))] += 1
                # The listed escapes are exactly the unlinked roots scaled by 2 or -1.
                assert (not failed) == (f != 0 and a in unlinked), (name, g.crossing.crossed, a, f)
    assert "metric" in ESCAPES
    assert dict(seen) == {"einstein": 385, "": 116}
