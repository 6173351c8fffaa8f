"""Brute-force verification sweeps over algebras and gradations.

These checks recompute everything from first principles (basis brackets,
honest traces, Killing Gram rows) so they can serve as oracles for the
closed-form routes.  All arithmetic is exact; a check either passes or returns
a description of the first failure, and never raises: a ``DomainError`` or
``ArithmeticError`` inside it is that failure.

Jacobi is the derivation identity of the 2 rank generators X_{+-alpha_i}
(``check_jacobi``): the x with [x, -] a derivation form a subalgebra, so with
antisymmetric stored brackets and generators that generate, it gives Jacobi
on every triple; the all-triples walk is the tests' reference.  Killing
invariance and the metric's ad_{g_0}-invariance visit the triples with
wt(i) + wt(j) + wt(k) = 0 only (``LieAlgebraData.zero_weight_pairs``), as
their forms vanish unless the weights cancel, once
``LieAlgebraData.grading_failure`` certifies that every bracket lands in
weight wt(i) + wt(j); if it fails, they return ok: False with its location.
The same certificate leaves the trace oracle only the Cartan.

No gradation checks that rho = d(psi) is closed or ad_{g_0}-invariant: with
d(psi)(x, y) = psi([x, y]), d(rho) = d(d(psi)) = 0 is Jacobi (the
Chevalley-Eilenberg complex), and for z = X_b in g_0 Jacobi makes
rho([z, x], y) + rho(x, [z, y]) = psi([z, [x, y]]) = k psi(H_b), k an int,
which the kernel step of ``check_two_form`` proves zero.  That holds once
``check_algebra`` passes, whose coroot rule ties the coroot table C that
``two_form_from_weight`` and ``omega_z`` expand over to the stored [X_a, X_-a],
and ``check_killing_dual`` has shown rho = C psi_H.

Per gradation, the metric's invariance evaluates the terms of each acting
index (``invariance_terms``) on g_alpha; the grading check reads alpha(H_h)
(``cartan_action``) against an int grading element; ``scaled_killing_dual``
reads the int inverse (M, d) of the Killing Cartan block
(``killing_cartan_inverse``) and gives d z in ints, which ``omega_z`` pairs
with the Killing Gram in ints and divides by d once; all are compiled once per
algebra.  ``run_sweep`` builds psi and rho once per gradation (``closed_forms``)
for the four checks that read them; a check called with (L, g) alone builds its
own, so a closed form patched here is seen.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from math import lcm
from operator import mul

from .chevalley import _NO_TERMS, LieAlgebraData, basis_element, chevalley_constants
from .errors import DomainError
from .gradation import Gradation, crossed_sums, enumerate_crossings, grade_from_crossing
from .gradation import unsplit_root
from .koszul import (
    TwoForm,
    basis_degrees,
    einstein_structure,
    kernel_is_g0,
    koszul_coefficients,
    koszul_form,
    koszul_trace,
    omega_z,
    scaled_killing_dual,
    two_form_from_weight,
)
from .rootsys import SimpleType, Weight, bareiss_inverse, build_root_system, exact_div
from .rootsys import weight_in_pi_basis


def _first_failure(problems: list[str], **counts: int) -> dict:
    return {"ok": not problems, "first_failure": problems[0] if problems else None, **counts}


def _certified(check):
    """Run ``check`` only once the weight grading certificate has passed; a
    ``DomainError`` or ``ArithmeticError`` raised inside it is its first failure."""

    @functools.wraps(check)
    def guarded(L: LieAlgebraData, *args, **kwargs) -> dict:
        bad = L.grading_failure
        if bad is not None:
            return _first_failure([f"weight grading fails: {bad}"])
        try:
            return check(L, *args, **kwargs)
        except (DomainError, ArithmeticError) as err:
            return _first_failure([str(err)])

    return guarded


ClosedForms = tuple[Weight, TwoForm]  # (psi, rho) of one gradation


def closed_forms(L: LieAlgebraData, g: Gradation) -> ClosedForms:
    """psi and rho = d(psi) of g, by this module's ``koszul_form`` and ``two_form_from_weight``."""
    psi = koszul_form(g)
    return psi, two_form_from_weight(L.rs, psi)


# -- algebra-level checks ------------------------------------------------------


def check_jacobi(L: LieAlgebraData) -> dict:
    """Jacobi as the derivation identity of the 2 rank generators X_{+-alpha_i}.

    Der = {x : [x, -] is a derivation} is a subalgebra, as [[x,y], -] = [[x,-], [y,-]]
    for x in Der, so Der = L once the generators lie in it and generate L.  Three
    steps, each with its first failure: antisymmetry (every stored [e_i, e_j] is
    -[e_j, e_i], no [e_i, e_i] is stored); generation (single-term steps [x, e_s]
    reach every root vector, and the Cartan parts of the [X_alpha_i, X_-alpha_i] have
    full rank); and [x,[y,z]] - [[x,y],z] - [y,[x,z]] = 0, Jacobi on (x, y, z), for
    each generator x and pair y < z with a nonzero term, which ``triples`` counts.
    """
    rows, rk, dim, npos = L.brackets, L.rank, L.dim, len(L.rs.positive_roots)
    d2, count = dim * dim, 0
    producers: list[list[tuple[int, int]]] = [[] for _ in rows]  # ((y dim + z) dim, c), y < z
    for i, row in enumerate(rows):
        for j, out in row.items():
            if i == j or rows[j].get(i, _NO_TERMS) != {t: -c for t, c in out.items()}:
                return _first_failure([f"antisymmetry fails on basis pair {(i, j)}"], triples=0)
            for m, c in (out.items() if j > i else ()):  # c e_m in [e_i, e_j], i < j
                producers[m].append((i * d2 + j * dim, c))
    gens = [*range(rk, 2 * rk), *range(rk + npos, 2 * rk + npos)]
    reached = set(gens)
    for s in (queue := list(gens)):  # the queue grows while it is read
        for out in (rows[x].get(s, _NO_TERMS) for x in gens):
            t, c = next(iter(out.items())) if len(out) == 1 else (0, 0)
            if c and t >= rk and t not in reached:
                reached.add(t)
                queue.append(t)
    if missing := [L.roots[t - rk] for t in range(rk, dim) if t not in reached]:
        return _first_failure([f"generation fails: {missing[0]} is not reached"], triples=0)
    try:
        bareiss_inverse([[rows[x].get(x + npos, _NO_TERMS).get(j, 0) for j in range(rk)]
                         for x in gens[:rk]])
    except ZeroDivisionError:
        return _first_failure(["generation fails: the [X_a, X_-a] miss the Cartan"], triples=0)

    # D(x; y, z) = [x,[y,z]] - P(y, z) + P(z, y) with P(u, v) = [[x,u],v], summed on int
    # keys (y dim + z) dim + t; a pair holding x sums to 0 by antisymmetry.
    for x in gens:
        lx, acc = rows[x], {}
        get = acc.get
        for m, xm in lx.items():  # [x,[y,z]] from c e_m in [e_y, e_z]
            for base, c in producers[m]:
                for t, d in xm.items():
                    acc[base + t] = get(base + t, 0) + c * d
        for u, xu in lx.items():  # P(u, v) at the pair (v, u), -P(u, v) at (u, v)
            for m, c in xu.items():
                for v, out in rows[m].items():
                    if v != u:
                        base, s = (u * d2 + v * dim, -c) if v > u else (v * d2 + u * dim, c)
                        for t, d in out.items():
                            acc[base + t] = get(base + t, 0) + s * d
        pairs = {k // dim for k in acc}
        if any(acc.values()):
            first = min(k // dim for k, v in acc.items() if v)
            triple, count = (x, *divmod(first, dim)), count + sum(p <= first for p in pairs)
            return _first_failure([f"jacobi fails on basis triple {triple}"], triples=count)
        count += len(pairs)
    return _first_failure([], triples=count)


@_certified
def check_killing_invariance(L: LieAlgebraData) -> dict:
    """B([z,x],y) + B(x,[z,y]) = 0 on each z and x <= y of ``L.zero_weight_pairs[z]``.

    Read from the Killing rows; the pairs hold repeated indices too.
    """
    b, pair = L.killing_basis(), L.basis_bracket
    for z, pairs in enumerate(L.zero_weight_pairs):
        for x, y in pairs:
            lhs = sum(c * b[m].get(y, 0) for m, c in pair(z, x).items())
            if lhs + sum(c * b[x].get(m, 0) for m, c in pair(z, y).items()):
                return _first_failure([f"killing invariance fails on {(z, x, y)}"])
    return _first_failure([])


@_certified
def check_killing_cartan(L: LieAlgebraData) -> dict:
    """The Killing form on the Cartan is nondegenerate: the inverse the dual reads exists."""
    try:
        L.killing_cartan_inverse
    except ZeroDivisionError:
        return _first_failure(["degenerate Cartan block"])
    return _first_failure([])


def check_structure_constants(L: LieAlgebraData) -> dict:
    """|N(a,b)| = p+1 against an independent root-string walk, and a(H) = 2 on H = [X_a, X_-a].

    N(a, b) is read from the stored [X_a, X_b] with a + b != 0, which must be
    a single term on X_{a+b}; root sums and strings are walked on ``L.keys``
    against this check's own key -> index map.  Every stored pair must have a
    root sum, and every root pair with a root sum a constant; antisymmetry is
    the first step of ``check_jacobi``.  The coroot rule reads a(H_h) from the
    stored [H_h, X_a], not from the coroots that built H, and ties H to the
    coroot table ``rs.positive_coroots`` that rho and ``omega_z`` read, for a > 0.
    """
    rs, rk, roots, rows, keys = L.rs, L.rank, L.roots, L.brackets, L.keys
    where = {keys[k]: k for k in range(rk, L.dim)}  # root key -> basis index
    cartan, zeros, tied = range(rk), (0,) * rk, rs.positive_coroots + (None,) * len(roots)
    stored = 0
    for i, al, ki, ha in zip(range(rk, L.dim), roots, keys[rk:], tied):  # ha: H_a if a > 0
        for j, out in rows[i].items():
            if j < rk:
                continue  # the Cartan rule
            total = ki + keys[j]
            if not total:  # the coroot rule: a(H) = 2 on H = [X_a, X_-a], H = H_a for a > 0
                v = sum(c * rows[h].get(i, _NO_TERMS).get(i, 0) for h, c in out.items() if h < rk)
                if v != 2:
                    return _first_failure([f"{al}([X[{al}], X[{-al}]]) = {v}, not 2"])
                if ha is not None and tuple(map(out.get, cartan, zeros)) != ha:
                    return _first_failure([f"[X[{al}], X[{-al}]] is not the coroot table's {ha}"])
                continue
            stored += 1
            if (t := where.get(total)) is None or len(out) != 1 or t not in out:
                be = roots[j - rk]  # named on a failure only
                return _first_failure([f"N({al}, {be}) is stored for a pair without a root sum"
                                       if t is None else
                                       f"[X[{al}], X[{be}]] is not a single term on X[{al + be}]"])
            n, p, cur = out[t], 0, keys[j] - ki
            while cur in where:
                p, cur = p + 1, cur - ki
            if abs(n) != p + 1:
                return _first_failure([f"|N| != p+1 on ({al}, {roots[j - rk]}): {n} vs p={p}"])
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
    [H_h, X_a] lies in weight a (the certificate), so [d, X_a] = a(d) X_a with
    a(H_h) from ``L.cartan_action``; d is scaled to ints by the common
    denominator D of its coordinates, and a(D d) is compared with D deg(a).
    """
    den = lcm(*(c.denominator for c in g.grading_element))
    d = [c.numerator * exact_div(den, c.denominator) for c in g.grading_element]
    sums = crossed_sums(L.rs, g.crossing)
    for root, deg, want in zip(L.rs.positive_roots, g.root_degrees, sums):
        if deg != want:
            return _first_failure([f"degree of {root} is not its crossed coefficient sum"])
    for root, deg, act in zip(L.roots, basis_degrees(L, g)[L.rank:], L.cartan_action):
        if sum(map(mul, d, act)) != deg * den:
            return _first_failure([f"grading element acts wrongly on {root}"])
    return _first_failure([])


def check_gradation(L: LieAlgebraData, g: Gradation) -> dict:
    bad = unsplit_root(g)
    return {
        "grading": check_grading(L, g),
        "fundamental": _first_failure(
            [] if bad is None else [f"{bad} of degree {g.degree(bad)} has no degree-1 split"]
        ),
    }


# -- Koszul / Einstein checks ----------------------------------------------------


@_certified
def check_trace_oracle(L: LieAlgebraData, g: Gradation, forms: ClosedForms | None = None) -> dict:
    """Trace formula equals the weight formula on the Cartan.

    On root vectors both vanish with nothing to check: psi is a Cartan
    1-form, and ad_{X_b} and K~ ad_{X_b} shift weights by b != 0 (the
    certificate), so neither has a diagonal entry.
    """
    psi, _ = forms or closed_forms(L, g)
    for i, via_weight in enumerate(weight_in_pi_basis(L.rs, psi), 1):
        via_trace = koszul_trace(g, L, basis_element(L, i - 1))
        if via_trace != via_weight:
            return _first_failure([f"trace {via_trace} != weight value {via_weight} on H{i}"])
    return _first_failure([])


@_certified
def check_two_form(L: LieAlgebraData, g: Gradation, forms: ClosedForms | None = None) -> dict:
    """Kernel, positivity and coefficient consistency of rho = d(psi).

    Type (1,1) needs no check: rho pairs X_alpha with X_-alpha only, and the
    degree is linear, so the two degrees always cancel.  Closedness and
    ad_{g_0}-invariance follow once ``check_algebra`` passes (Jacobi, the weight
    certificate, the coroot tie) and ``check_killing_dual`` shows rho = C psi_H:
    d(rho) = d(d(psi)) = 0 is Jacobi, and Jacobi turns invariance under X_b into
    k psi(H_b) = k c_b, which the kernel step proves zero for b in g_0.
    """
    (psi, rho), rk = forms or closed_forms(L, g), L.rank
    deg, c = basis_degrees(L, g), rho.coeffs
    if not kernel_is_g0(rho, g):
        return _first_failure(["kernel of d(psi) is not g_0"])

    # Positivity off g_0 (the kernel check gave c_alpha = 0 on g_0) and the a_i expansion.
    for root, d, v in zip(L.rs.positive_roots, deg[rk:], c):
        if d and v <= 0:
            return _first_failure([f"coefficient on {root} not positive: {v}"])
    # 2 sum a_i pi_i = psi over the basis pi_i: psi(H_i) is 2 a_i on a crossed node, else 0.
    acoef = koszul_coefficients(g)  # raises on a b_i < 0, that is on an a_i < 2
    if any(v != 2 * acoef.get(i, 0) for i, v in enumerate(weight_in_pi_basis(L.rs, psi), 1)):
        return _first_failure(["2 sum a_i pi_i != psi"])
    return _first_failure([])


@_certified
def check_killing_dual(L: LieAlgebraData, g: Gradation, forms: ClosedForms | None = None) -> dict:
    """omega_z with z the Killing dual of psi reproduces d(psi) exactly.

    d z comes from the int inverse of the Killing Cartan block and omega_z from
    the Killing Gram rows, never from rho; only the comparison reads rho.
    """
    psi, rho = forms or closed_forms(L, g)
    via_b, direct = omega_z(L, *scaled_killing_dual(L, psi)).coeffs, rho.coeffs
    if via_b != direct:
        root, u, v = next(t for t in zip(L.rs.positive_roots, via_b, direct) if t[1] != t[2])
        return _first_failure([f"omega_z != d(psi) on {root}: {u} vs {v}"])
    return _first_failure([])


@_certified
def check_einstein(L: LieAlgebraData, g: Gradation, forms: ClosedForms | None = None) -> dict:
    """The metric is built, ad_{g_0}-invariant and nondegenerate, in that order.

    The invariance check evaluates ``L.invariance_terms`` on g_alpha at both
    (alpha, -alpha) and (-alpha, alpha); ``signature`` refuses a zero g_alpha.
    """
    (_, rho), deg = forms or closed_forms(L, g), basis_degrees(L, g)
    es = einstein_structure(g, L, 1, rho)
    rk, npos = L.rank, len(L.rs.positive_roots)
    gval: list[Q | int] = [0] * L.dim  # g(e_u, e_-u) by basis index
    for p, v in zip((p for p in range(npos) if deg[rk + p]), es.metric):
        gval[rk + p] = gval[rk + npos + p] = v

    terms = L.invariance_terms
    for z in (z for z, d in enumerate(deg) if not d):
        if any(deg[x] and deg[y] and a * gval[ny] + b * gval[x] for x, y, ny, a, b in terms[z]):
            return _first_failure(["metric not ad-invariant under g_0"])
    es.signature()  # refuses a zero g_alpha
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
    types, failures, gradation_count = sweep_types(max_rank), [], 0
    for stype in types:
        rs = build_root_system(stype)
        L = chevalley_constants(rs)
        for name, res in check_algebra(L).items():
            if not res["ok"]:
                failures.append(f"{stype}: {name}: {res['first_failure']}")
        for crossing in enumerate_crossings(stype.rank):
            gradation_count += 1
            g = grade_from_crossing(rs, crossing)
            forms = closed_forms(L, g)
            results = {
                **check_gradation(L, g),
                "trace_oracle": check_trace_oracle(L, g, forms),
                "two_form": check_two_form(L, g, forms),
                "killing_dual": check_killing_dual(L, g, forms),
                "einstein": check_einstein(L, g, forms),
            }
            for name, res in results.items():
                if not res["ok"]:
                    failures.append(
                        f"{stype} crossed {sorted(crossing.crossed)}: "
                        f"{name}: {res['first_failure']}"
                    )
    return {
        "types": [str(stype) for stype in types],
        "algebras": len(types),
        "gradations": gradation_count,
        "failures": failures,
        "all_ok": not failures,
    }
