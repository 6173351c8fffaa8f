"""Brute-force verification sweeps over algebras and gradations.

These checks recompute everything from first principles (basis brackets,
honest traces, cyclic sums of rho over basis triples) so they can serve as
oracles for the closed-form routes.  All arithmetic is exact; a check
either passes or returns a description of the first failure.

Triple loops skip only basis tuples whose terms all vanish.  Jacobi sums
each product of stored brackets once, into the triple it belongs to, so it
visits the triples where [[i,j],k], [[j,k],i] or [[k,i],j] has one.  Killing
invariance, closedness of rho and both ad_{g_0}-invariance checks pair
[e_i, e_j] with e_k under a form that vanishes unless the weights cancel
(``check_einstein`` checks that of the metric), so they visit the triples
with wt(i) + wt(j) + wt(k) = 0 only, once ``LieAlgebraData.grading_failure``
certifies that every bracket lands in weight wt(i) + wt(j); if it fails,
they return ok: False with its location.  All four read
``LieAlgebraData.zero_weight_pairs``, built once per algebra: the invariance
checks look up the pairs of each acting index, and closedness keeps the
pairs with z < x < y.  The same certificate leaves the trace oracle only the
Cartan to check.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from fractions import Fraction as Q
from itertools import product

from . import ratlin
from .chevalley import LieAlgebraData, basis_element, chevalley_constants
from .errors import DomainError
from .gradation import (
    Gradation,
    enumerate_crossings,
    grade_from_crossing,
    unsplit_root,
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


def _invariance_triples(L: LieAlgebraData, acting, domain):
    """Each (z, x, y) with z in ``acting``, x <= y in ``domain`` and zero weight sum.

    Read from ``L.zero_weight_pairs[z]``, which holds repeated indices too.
    """
    domain = set(domain)
    for z in acting:
        for x, y in L.zero_weight_pairs[z]:
            if x in domain and y in domain:
                yield z, x, y


def _invariance_failure(L: LieAlgebraData, form, acting, domain) -> tuple | None:
    """First (z, x, y) with form([z,x], y) + form(x, [z,y]) != 0.

    ``form`` is symmetric or antisymmetric, as dict rows over basis indices.
    """
    pair = L.basis_bracket
    for z, x, y in _invariance_triples(L, acting, domain):
        lhs = sum(c * form[m].get(y, 0) for m, c in pair(z, x).items())
        lhs += sum(c * form[x].get(m, 0) for m, c in pair(z, y).items())
        if lhs:
            return z, x, y
    return None


# -- algebra-level checks ------------------------------------------------------


def _jacobi_sums(rows: list[dict[int, dict[int, int]]]):
    """Per a, the sorted ((b, c), J) over the triples a < b < c with a nonzero term.

    J = {t: c} is [[a,b],c] + [[b,c],a] - [[a,c],b], each product of stored
    brackets added once: [[a,j],k] from a stored (a, j) with j, k > a (the last
    term of J(a, k, j) if j > k), [[b,c],a] from a stored (b, c) with b > a that
    produces an m with [e_m, e_a] != 0.  Neither route assumes antisymmetry.
    """
    tied: list[list[int]] = [[] for _ in rows]  # tied[a]: the m with [e_m, e_a] != 0
    producers: list[list[tuple]] = [[] for _ in rows]  # (b, c, x): b < c, x e_m in [e_b, e_c]
    for m, row in enumerate(rows):
        for k, out in row.items():
            if out:
                tied[k].append(m)
            if k > m:
                for t, x in out.items():
                    producers[t].append((m, k, x))
    for a, row in enumerate(rows):
        sums: defaultdict[tuple[int, int], dict[int, int]] = defaultdict(dict)
        for j, out in row.items():
            if j <= a:
                continue
            for m, x in out.items():
                for k, out2 in rows[m].items():
                    if k > a and k != j and out2:
                        acc, s = (sums[j, k], x) if j < k else (sums[k, j], -x)
                        for t, y in out2.items():
                            acc[t] = acc.get(t, 0) + s * y
        for m in tied[a]:
            for b, c, x in producers[m]:
                if b > a:
                    acc = sums[b, c]
                    for t, y in rows[m][a].items():
                        acc[t] = acc.get(t, 0) + x * y
        yield a, [(bc, sums[bc]) for bc in sorted(sums)]


def check_jacobi(L: LieAlgebraData) -> dict:
    """Jacobi identity on every unordered basis triple with a nonzero term, in order."""
    count = 0
    for a, sums in _jacobi_sums(L.brackets):
        for (b, c), total in sums:
            count += 1
            if any(total.values()):
                failure = _first_failure([f"jacobi fails on basis triple {(a, b, c)}"])
                return {**failure, "triples": count}
    return {**_first_failure([]), "triples": count}


@_certified
def check_killing_invariance(L: LieAlgebraData) -> dict:
    """B([z,x],y) + B(x,[z,y]) = 0 over all basis triples."""
    everything = range(L.dim)
    bad = _invariance_failure(L, L.killing_basis(), everything, everything)
    return _first_failure([f"killing invariance fails on {bad}"] if bad else [])


@_certified
def check_killing_cartan(L: LieAlgebraData) -> dict:
    """Killing form restricted to the Cartan subalgebra is nondegenerate."""
    ok = ratlin.det(L.cartan_block()) != 0
    return {"ok": ok, "first_failure": None if ok else "degenerate Cartan block"}


def check_structure_constants(L: LieAlgebraData) -> dict:
    """|N(a,b)| = p+1 against an independent root-string walk; antisymmetry.

    N(a, b) is read from the stored [X_a, X_b] with a + b != 0, which must be
    a single term on X_{a+b}; root sums and strings are walked on ``L.keys``
    against this check's own key -> index map.  Every stored pair must have a
    stored reverse and a root sum, and every root pair with a root sum a constant.
    """
    rs, rk, roots, rows, keys = L.rs, L.rank, L.roots, L.brackets, L.keys
    where = {keys[k]: k for k in range(rk, L.dim)}  # root key -> basis index
    stored = 0
    for i, al in enumerate(roots, rk):
        for j, out in rows[i].items():
            if j < rk:
                continue  # the Cartan rule
            total = keys[i] + keys[j]
            if not total:
                continue  # the coroot rule [X_a, X_-a] = H_a
            stored += 1
            be, t = roots[j - rk], where.get(total)
            if t is None:
                return _first_failure([f"N({al}, {be}) is stored for a pair without a root sum"])
            if len(out) != 1 or t not in out:
                return _first_failure([f"[X[{al}], X[{be}]] is not a single term on X[{al + be}]"])
            n, rev = out[t], rows[j].get(i)
            if rev is None:
                return _first_failure([f"N({al}, {be}) is stored without N({be}, {al})"])
            if rev.get(t) != -n:
                return _first_failure([f"antisymmetry fails on ({al}, {be})"])
            p, cur = 0, keys[j] - keys[i]
            while cur in where:
                p, cur = p + 1, cur - keys[i]
            if abs(n) != p + 1:
                return _first_failure([f"|N| != p+1 on ({al}, {be}): {n} vs p={p}"])
    # The stored pairs are distinct and have root sums, so none is missing if
    # as many are stored as pairs have a root sum.  W permutes the roots of one
    # length transitively, so one root of each length counts its pairs.
    lengths = Counter(map(rs.root_length_sq, roots))
    one_of = {rs.root_length_sq(al): keys[i] for i, al in enumerate(roots, rk)}
    if stored != sum(n * sum(one_of[d] + k in where for k in where) for d, n in lengths.items()):
        for (i, al), (j, be) in product(enumerate(roots, rk), repeat=2):
            if j not in rows[i] and keys[i] + keys[j] in where:
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
    [d, X_a] is read from the stored Cartan rows [H_i, X_a].
    """
    crossed = [i - 1 for i in g.crossing.sorted()]
    d = [(h, c) for h, c in enumerate(g.grading_element) if c]
    for x, root in enumerate(L.roots, L.rank):
        if g.degree(root) != sum(root.coeffs[i] for i in crossed):
            return _first_failure([f"degree of {root} is not its crossed coefficient sum"])
        # [H_h, X_a] lies in weight a (the certificate), so on X_a alone.
        if sum(c * L.basis_bracket(h, x).get(x, 0) for h, c in d) != g.degree(root):
            return _first_failure([f"grading element acts wrongly on {root}"])
    return _first_failure([])


def check_gradation(L: LieAlgebraData, g: Gradation) -> dict:
    bad = unsplit_root(g)
    unpaired = next((r for r in g.nonzero_roots() if not g.degrees[-r]), None)
    return {
        "grading": check_grading(L, g),
        "fundamental": _first_failure(
            [] if bad is None else [f"{bad} of degree {g.degree(bad)} has no degree-1 split"]
        ),
        # Closed under negation, m has |m| = 2|m+| and -m[a] at m[a + |m|/2].
        "orbit_dimension_even": _first_failure(
            [] if unpaired is None else [f"{unpaired} is in m but {-unpaired} is not"]
        ),
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
    invariance read rho from dict rows of its int entries.
    """
    rs, rk = L.rs, L.rank
    psi = koszul_form(g)
    rho = two_form_from_weight(rs, psi)
    if not kernel_is_g0(rho, g):
        return _first_failure(["kernel of d(psi) is not g_0"])
    form = rho.rows(L)

    # Closedness: cyclic sum of rho([x,y],z) over the zero-weight triples.
    pair = L.basis_bracket

    def rho_vec(vec: dict[int, int], k: int) -> int:
        return sum(c * form[m].get(k, 0) for m, c in vec.items())

    for i, pairs in enumerate(L.zero_weight_pairs):
        for j, k in (p for p in pairs if i < p[0] < p[1]):
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
    bad = _invariance_failure(L, form, g0, range(rk, L.dim))
    if bad:
        return _first_failure([f"rho not ad-invariant under index {bad[0]}"])
    return _first_failure([])


@_certified
def check_killing_dual(L: LieAlgebraData, g: Gradation) -> dict:
    """omega_z with z the Killing dual of psi reproduces d(psi) exactly."""
    psi = koszul_form(g)
    direct = two_form_from_weight(L.rs, psi).coeffs
    via_b = omega_z(L, killing_dual(L, psi)).coeffs
    for root in L.rs.positive_roots:
        if via_b[root] != direct[root]:
            return _first_failure(
                [f"omega_z != d(psi) on {root}: {via_b[root]} vs {direct[root]}"]
            )
    return _first_failure([])


@_certified
def check_einstein(L: LieAlgebraData, g: Gradation) -> dict:
    """Symmetry, K-skewness, weight sparsity, ad_{g_0}-invariance, no empty row, signature.

    The first three run over the entries the metric's dict rows store.
    """
    try:
        es = einstein_structure(g, L, 1)
    except DomainError as err:  # a root of m without its negative at its offset
        return _first_failure([str(err)])
    roots = g.nonzero_roots()
    index = [L.index_of_root(r) for r in roots]
    metric: list[dict[int, Q | int]] = [{} for _ in range(L.dim)]  # rows by basis index
    for a, row in enumerate(es.metric):
        for b, v in row.items():
            if es.metric[b].get(a, 0) != v:
                return _first_failure(["metric not symmetric"])
            if g.ksign(roots[a]) * g.ksign(roots[b]) * v != -v:
                return _first_failure(["metric not K-skew"])
            # The invariance check below visits zero-weight triples only.
            if v and L.keys[index[a]] + L.keys[index[b]]:
                return _first_failure([f"metric pairs {roots[a]} with {roots[b]}"])
            metric[index[a]][index[b]] = v

    g0 = [*range(L.rank), *map(L.index_of_root, g.roots_of_degree(0))]
    if _invariance_failure(L, metric, g0, index):
        return _first_failure(["metric not ad-invariant under g_0"])
    if empty := [alpha for alpha, row in zip(roots, es.metric) if not row]:
        return _first_failure([f"metric is degenerate: the row of {empty[0]} is empty"])

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
