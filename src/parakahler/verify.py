"""Brute-force verification sweeps over algebras and gradations.

These checks recompute everything from first principles (basis brackets,
honest traces, cyclic sums of rho over basis triples) so they can serve as
oracles for the closed-form routes.  All arithmetic is exact; a check
either passes or returns a description of the first failure.

Triple loops skip only basis tuples whose terms all vanish.  Jacobi visits
triples where [[i,j],k], [[j,k],i] or [[k,i],j] has a nonzero product of
basis brackets.  Killing invariance, closedness of rho and both
ad_{g_0}-invariance checks visit triples with wt(i) + wt(j) + wt(k) = 0
only: each term pairs [e_i, e_j] with e_k under a form that vanishes unless
the weights cancel (``check_einstein`` checks that of the metric), so other
triples contribute nothing once every bracket lands in weight wt(i) + wt(j).
``LieAlgebraData.grading_failure`` certifies that; if it fails, these
checks return ok: False with its location.  Closedness reads the sorted
triples i < j < k from ``LieAlgebraData.zero_weight_triples``, built once
per algebra.  The same certificate leaves the trace oracle only the Cartan
to check: ad_{X_b} and K~ ad_{X_b} shift weights by b != 0, so their
traces vanish.  ``check_einstein`` reads the entries the metric's dict rows
store, one per row, instead of all n^2.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction as Q
from itertools import product

from . import ratlin
from .chevalley import (
    LieAlgebraData,
    basis_element,
    bracket,
    cartan_element,
    chevalley_constants,
    root_vector,
)
from .gradation import (
    Gradation,
    enumerate_crossings,
    grade_from_crossing,
    is_fundamental,
    orbit_dimension,
)
from .koszul import (
    einstein_structure,
    kernel_is_g0,
    killing_dual,
    koszul_coefficients,
    koszul_form,
    koszul_trace,
    omega_z,
    two_form_from_weight,
)
from .rootsys import SimpleType, Weight, build_root_system


def _first_failure(problems: list[str]) -> dict:
    return {"ok": not problems, "first_failure": problems[0] if problems else None}


def _certified(check):
    """Run ``check`` only once the weight grading certificate has passed."""

    @functools.wraps(check)
    def guarded(L: LieAlgebraData, *args, **kwargs) -> dict:
        bad = L.grading_failure
        if bad is not None:
            return _first_failure([f"weight grading fails: {bad}"])
        return check(L, *args, **kwargs)

    return guarded


def _invariance_failure(L: LieAlgebraData, form, acting, domain) -> tuple | None:
    """First (z, x, y) with form([z,x], y) + form(x, [z,y]) != 0.

    z runs over ``acting``, x <= y over ``domain``; ``form(m, k)`` is the
    bilinear form on basis indices and must be symmetric or antisymmetric.
    """
    inside = set(domain)
    pair = L.basis_bracket
    for z, x in product(acting, domain):
        for y in L.partners(z, x):  # wt(z) + wt(x) + wt(y) = 0
            if y < x or y not in inside:
                continue
            lhs = sum(c * form(m, y) for m, c in pair(z, x).items())
            lhs += sum(c * form(x, m) for m, c in pair(z, y).items())
            if lhs:
                return z, x, y
    return None


# -- algebra-level checks ------------------------------------------------------


def _jacobi_triples(rows: list[dict[int, dict[int, int]]]):
    """Basis triples a < b < c with a nonzero Jacobi term, streamed in order.

    [[i,j],k] has a nonzero term only if some m in the support of [e_i, e_j]
    has [e_m, e_k] != 0.  Grouped by its smallest index a, such a triple
    comes from a stored pair (a, j) with j > a, or from a stored pair (b, c)
    with a < b < c that produces an m with [e_m, e_a] != 0.  Neither route
    assumes the rows are antisymmetric.
    """
    ties = [[k for k, out in row.items() if out] for row in rows]  # k: [e_m, e_k] != 0
    tied: list[list[int]] = [[] for _ in rows]  # tied[a]: the m with a in ties[m]
    producers: list[list[tuple[int, int]]] = [[] for _ in rows]  # b < c: e_m in [e_b, e_c]
    for m, ks in enumerate(ties):
        for k in ks:
            tied[k].append(m)
    for b, row in enumerate(rows):
        for c, out in row.items():
            if c > b:
                for m in out:
                    producers[m].append((b, c))
    for a, row in enumerate(rows):
        pairs = {
            (min(j, k), max(j, k))
            for j, out in row.items() if j > a
            for m in out
            for k in ties[m] if k > a and k != j
        }
        pairs.update(bc for m in tied[a] for bc in producers[m] if bc[0] > a)
        yield from ((a, b, c) for b, c in sorted(pairs))


def check_jacobi(L: LieAlgebraData) -> dict:
    """Jacobi identity on every unordered basis triple with a nonzero term."""
    pair = L.basis_bracket
    count = 0
    for count, (i, j, k) in enumerate(_jacobi_triples(L.brackets), 1):
        acc: dict[int, int] = {}
        # [[i,j],k] + [[j,k],i] + [[k,i],j], with [[k,i],j] = -[[i,k],j]
        for p, q, r, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
            for m, c in pair(p, q).items():
                for t, c2 in pair(m, r).items():
                    acc[t] = acc.get(t, 0) + sign * c * c2
        if any(acc.values()):
            failure = _first_failure([f"jacobi fails on basis triple {(i, j, k)}"])
            return {**failure, "triples": count}
    return {**_first_failure([]), "triples": count}


@_certified
def check_killing_invariance(L: LieAlgebraData) -> dict:
    """B([z,x],y) + B(x,[z,y]) = 0 over all basis triples."""
    b = L.killing_basis()
    everything = range(L.dim)
    bad = _invariance_failure(L, lambda m, k: b[m].get(k, 0), everything, everything)
    return _first_failure([f"killing invariance fails on {bad}"] if bad else [])


@_certified
def check_killing_cartan(L: LieAlgebraData) -> dict:
    """Killing form restricted to the Cartan subalgebra is nondegenerate."""
    ok = ratlin.det(L.cartan_block()) != 0
    return {"ok": ok, "first_failure": None if ok else "degenerate Cartan block"}


def check_structure_constants(L: LieAlgebraData) -> dict:
    """|N(a,b)| = p+1 against an independent root-string walk; antisymmetry.

    Every stored pair must have a stored reverse and a root sum, and every
    pair of roots with a root sum must have a stored constant.
    """
    rs, nconst = L.rs, L.nconst
    for (al, be), n in nconst.items():
        rev = nconst.get((be, al))
        if rev is None:
            return _first_failure([f"N({al}, {be}) is stored without N({be}, {al})"])
        if rev != -n:
            return _first_failure([f"antisymmetry fails on ({al}, {be})"])
        if not rs.is_root(al + be):
            return _first_failure([f"N({al}, {be}) is stored for a pair without a root sum"])
        p = 0
        cur = be - al
        while rs.is_root(cur):
            p += 1
            cur = cur - al
        if abs(n) != p + 1:
            return _first_failure([f"|N| != p+1 on ({al}, {be}): {n} vs p={p}"])
    # The stored pairs are distinct and bracketable, so none is missing if as
    # many are stored as there are bracketable pairs.  W permutes the roots of
    # one length transitively, so one root of each length counts its pairs.
    lengths = Counter(map(rs.root_length_sq, L.roots))
    one_of = {rs.root_length_sq(al): al for al in L.roots}
    if len(nconst) != sum(
        lengths[k] * sum(rs.is_root(al + be) for be in L.roots) for k, al in one_of.items()
    ):
        for al, be in product(L.roots, L.roots):
            if (al, be) not in nconst and rs.is_root(al + be):
                return _first_failure([f"({al}, {be}) has a root sum but no stored N"])
    return _first_failure([])


def check_algebra(L: LieAlgebraData) -> dict:
    return {
        "jacobi": check_jacobi(L),
        "killing_invariance": check_killing_invariance(L),
        "killing_cartan_nondegenerate": check_killing_cartan(L),
        "structure_constants": check_structure_constants(L),
    }


# -- gradation-level checks ----------------------------------------------------


@_certified
def check_grading(L: LieAlgebraData, g: Gradation) -> dict:
    """Brackets respect degrees and the grading element acts by the degree.

    Every bracket lands in weight wt(i) + wt(j) (the certificate), so brackets
    add degrees once the degree is linear: the sum of crossed coefficients.
    """
    crossed = [i - 1 for i in g.crossing.sorted()]
    for root in L.roots:
        if g.degree(root) != sum(root.coeffs[i] for i in crossed):
            return _first_failure([f"degree of {root} is not its crossed coefficient sum"])

    d = cartan_element(L, g.grading_element)
    for root in L.roots:
        x = root_vector(L, root)
        if bracket(L, d, x) != x.scale(g.degree(root)):
            return _first_failure([f"grading element acts wrongly on {root}"])
    return _first_failure([])


def check_gradation(L: LieAlgebraData, g: Gradation) -> dict:
    dim_m = orbit_dimension(g)
    return {
        "grading": check_grading(L, g),
        "fundamental": {"ok": is_fundamental(g), "first_failure": None},
        "orbit_dimension_even": {
            "ok": dim_m % 2 == 0 and dim_m == 2 * len(g.nonzero_positive()),
            "first_failure": None,
        },
    }


# -- Koszul / Einstein checks ----------------------------------------------------


@_certified
def check_trace_oracle(L: LieAlgebraData, g: Gradation) -> dict:
    """Trace formula equals the weight formula on the Cartan.

    On root vectors both vanish with nothing to check: psi is a Cartan
    1-form, and ad_{X_b} and K~ ad_{X_b} shift weights by b != 0 (the
    certificate), so neither has a diagonal entry.
    """
    psi = koszul_form(g)
    for i in range(1, L.rank + 1):
        via_trace = koszul_trace(g, L, basis_element(L, i - 1))
        via_weight = L.rs.coroot_pairing(psi, i)
        if via_trace != via_weight:
            return _first_failure(
                [f"trace {via_trace} != weight value {via_weight} on H{i}"]
            )
    return _first_failure([])


@_certified
def check_two_form(L: LieAlgebraData, g: Gradation) -> dict:
    """Kernel, closedness, positivity, coefficient consistency, invariance.

    Type (1,1) needs no check: rho pairs X_alpha with X_-alpha only, and the
    degree is linear, so the two degrees always cancel.  Closedness and
    invariance read rho from a sparse lookup of its int entries.
    """
    rs, rk = L.rs, L.rank
    psi = koszul_form(g)
    rho = two_form_from_weight(rs, psi)
    if not kernel_is_g0(rho, g):
        return _first_failure(["kernel of d(psi) is not g_0"])
    form: dict[tuple[int, int], int] = {}  # keyed by basis indices
    for root, c in rho.coeffs.items():
        if c:
            i, j = L.index_of_root(root), L.index_of_root(-root)
            form[i, j], form[j, i] = c, -c

    # Closedness: cyclic sum of rho([x,y],z) over the zero-weight triples.
    pair = L.basis_bracket

    def rho_vec(vec: dict[int, int], k: int) -> int:
        return sum(c * form.get((m, k), 0) for m, c in vec.items())

    for i, j, k in L.zero_weight_triples:
        if rho_vec(pair(i, j), k) + rho_vec(pair(j, k), i) != rho_vec(pair(i, k), j):
            return _first_failure([f"d(rho) != 0 on triple {(i, j, k)}"])

    # Coefficient positivity and the a_i expansion.
    zero_pos = set(g.zero_degree_positive())
    for root in rs.positive_roots:
        c = rho.coeffs[root]
        if root in zero_pos and c != 0:
            return _first_failure([f"coefficient on {root} should vanish"])
        if root not in zero_pos and c <= 0:
            return _first_failure([f"coefficient on {root} not positive: {c}"])
    acoef = koszul_coefficients(g)
    recon = Weight.zero(rs.rank)
    for i, a in acoef.items():
        recon = recon + rs.weights[i - 1].scale(2 * a)
    if recon != psi:
        return _first_failure(["2 sum a_i pi_i != psi"])
    if any(a < 2 for a in acoef.values()):
        return _first_failure(["some a_i < 2"])

    # ad_h-invariance of rho for every basis element h of g_0.
    g0 = [*range(rk), *map(L.index_of_root, g.roots_of_degree(0))]
    bad = _invariance_failure(L, lambda m, k: form.get((m, k), 0), g0, range(rk, L.dim))
    if bad:
        return _first_failure([f"rho not ad-invariant under index {bad[0]}"])
    return _first_failure([])


@_certified
def check_killing_dual(L: LieAlgebraData, g: Gradation) -> dict:
    """omega_z with z the Killing dual of psi reproduces d(psi) exactly."""
    psi = koszul_form(g)
    z = killing_dual(L, psi)
    direct = two_form_from_weight(L.rs, psi)
    via_b = omega_z(L, z)
    ok = via_b.coeffs == direct.coeffs
    return {"ok": ok, "first_failure": None if ok else "omega_z != d(psi)"}


@_certified
def check_einstein(L: LieAlgebraData, g: Gradation, lam=Q(1)) -> dict:
    """Symmetry, K-skewness, weight sparsity, ad_{g_0}-invariance, signature.

    The first three run over the entries the metric's dict rows store.
    """
    es = einstein_structure(g, L, lam)
    roots = g.nonzero_roots()
    index = [L.index_of_root(r) for r in roots]
    metric: dict[tuple[int, int], Q] = {}  # keyed by basis indices
    for a, row in enumerate(es.metric):
        for b, v in row.items():
            if es.metric[b].get(a, 0) != v:
                return _first_failure(["metric not symmetric"])
            if g.ksign(roots[a]) * g.ksign(roots[b]) * v != -v:
                return _first_failure(["metric not K-skew"])
            # The invariance check below visits zero-weight triples only.
            if v and any((roots[a] + roots[b]).coeffs):
                return _first_failure([f"metric pairs {roots[a]} with {roots[b]}"])
            metric[index[a], index[b]] = v

    g0 = [*range(L.rank), *map(L.index_of_root, g.roots_of_degree(0))]
    if _invariance_failure(L, lambda m, k: metric.get((m, k), 0), g0, index):
        return _first_failure(["metric not ad-invariant under g_0"])

    pos, neg = es.signature()
    if not (pos == neg == len(roots) // 2):
        return _first_failure([f"signature {(pos, neg)} is not neutral"])
    return _first_failure([])


# -- sweep orchestration ---------------------------------------------------------


def sweep_types(max_rank: int) -> list[SimpleType]:
    """All simple types of rank <= max_rank, skipping B2=C2 and A3=D3 twins."""
    types = [SimpleType("A", r) for r in range(1, max_rank + 1)]
    types += [SimpleType("B", r) for r in range(2, max_rank + 1)]
    types += [SimpleType("C", r) for r in range(3, max_rank + 1)]
    types += [SimpleType("D", r) for r in range(4, max_rank + 1)]
    types += [SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        types.append(SimpleType("F", 4))
    if max_rank >= 2:
        types.append(SimpleType("G", 2))
    return types


def run_sweep(max_rank: int) -> dict:
    """Run every oracle over every type and crossing set up to a rank bound."""
    rows = []
    failures: list[str] = []
    algebra_count = 0
    gradation_count = 0
    for stype in sweep_types(max_rank):
        rs = build_root_system(stype)
        L = chevalley_constants(rs)
        algebra_count += 1
        alg = check_algebra(L)
        for name, res in alg.items():
            if not res["ok"]:
                failures.append(f"{stype}: {name}: {res['first_failure']}")
        for crossing in enumerate_crossings(stype.rank):
            gradation_count += 1
            g = grade_from_crossing(rs, crossing)
            results = {
                **check_gradation(L, g),
                "trace_oracle": check_trace_oracle(L, g),
                "two_form": check_two_form(L, g),
                "killing_dual": check_killing_dual(L, g),
                "einstein": check_einstein(L, g),
            }
            for name, res in results.items():
                if not res["ok"]:
                    failures.append(
                        f"{stype} crossed {sorted(crossing.crossed)}: "
                        f"{name}: {res['first_failure']}"
                    )
        rows.append(str(stype))
    return {
        "types": rows,
        "algebras": algebra_count,
        "gradations": gradation_count,
        "failures": failures,
        "all_ok": not failures,
    }
