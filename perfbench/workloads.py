"""The four benchmark workloads: inputs from a seed, one pass, output checks.

A pass is a plan: a list of named steps.  ``execute`` times each step as one
operation, checks what the program produced, and samples the calibration
loop between steps.  A failed check, a nonzero exit or an exception fails
that operation, never the run.

Every call into the program goes through a module attribute
(``verify.run_sweep``, ``cli.main``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import calibrate
from parakahler import chevalley, cli, gradation, koszul, rootsys, verify

GOLDENS = Path(__file__).resolve().parent / "goldens" / "queries.sha256"
CALIBRATE_EVERY_S = 1.0


@dataclass
class Op:
    """One timed operation of a pass and the verdict on its output.

    ``k_ms`` is the calibration loop's time around the operation.
    """

    name: str
    ms: float = 0.0
    k_ms: float = 0.0
    ok: bool = False
    detail: str | None = None
    extra: dict = field(default_factory=dict)


Step = Callable[[Op], None]
Plan = list[tuple[str, Step]]


def execute(plan: Plan, tracer=None) -> list[Op]:
    """Run a plan; with a tracer, each operation is one root span."""
    ops: list[Op] = []
    samples: list[float] = []
    sample_of: list[int] = []
    last = float("-inf")
    for name, step in plan:
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            samples.append(calibrate.sample_ms())
            last = time.perf_counter()
        sample_of.append(len(samples) - 1)
        op = Op(name)
        scope = tracer.root_span() if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter_ns()
        try:
            with scope:
                step(op)
        except Exception:
            op.ok = False
            op.detail = traceback.format_exc(limit=3)
        op.ms = (time.perf_counter_ns() - start) / 1e6
        ops.append(op)
    samples.append(calibrate.sample_ms())
    for op, i in zip(ops, sample_of):
        op.k_ms = (samples[i] + samples[i + 1]) / 2
    return ops


def _verdict(op: Op, problems: list[str]) -> None:
    op.ok = not problems
    op.detail = "; ".join(problems) or None


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# -- sweep ---------------------------------------------------------------------

# max_rank -> (algebras, gradations) that run_sweep must cover.
SWEEP_EXPECT = {3: (7, 31), 2: (4, 10)}


def sweep_inputs(seed: int, small: bool, workdir: Path) -> dict:
    return {"max_rank": 2 if small else 3}


def sweep_plan(inputs: dict, pass_index: int) -> Plan:
    max_rank = inputs["max_rank"]
    algebras, gradations = SWEEP_EXPECT[max_rank]

    def step(op: Op) -> None:
        result = verify.run_sweep(max_rank)
        problems = list(result["failures"][:3])
        if not result["all_ok"]:
            problems.append("all_ok is false")
        if result["algebras"] != algebras:
            problems.append(f"{result['algebras']} algebras, expected {algebras}")
        if result["gradations"] != gradations:
            problems.append(f"{result['gradations']} gradations, expected {gradations}")
        _verdict(op, problems)

    return [(f"run_sweep({max_rank})", step)]


# -- exceptional -----------------------------------------------------------------

# (family, rank, expected signature at crossing {1}, run the O(dim^3) oracles).
EXCEPTIONAL = (("F", 4, (15, 15), True), ("E", 6, (16, 16), True),
               ("E", 7, (33, 33), False), ("E", 8, (78, 78), False))
EXCEPTIONAL_SMALL = (("G", 2, (5, 5), True),)
ALGEBRA_CHECKS = ("check_structure_constants", "check_killing_cartan")
GRADATION_CHECKS = ("check_grading", "check_trace_oracle", "check_killing_dual")
FULL_ALGEBRA_CHECKS = ("check_jacobi", "check_killing_invariance")
FULL_GRADATION_CHECKS = ("check_two_form", "check_einstein")


def exceptional_inputs(seed: int, small: bool, workdir: Path) -> dict:
    return {"algebras": EXCEPTIONAL_SMALL if small else EXCEPTIONAL}


def exceptional_plan(inputs: dict, pass_index: int) -> Plan:
    """Per algebra: cold build, Killing Gram, closed forms, then each oracle."""
    plan: Plan = []
    for family, rank, expected, full in inputs["algebras"]:
        name = f"{family}{rank}"
        state: dict = {}

        def build(op: Op, family=family, rank=rank, state=state) -> None:
            rs = rootsys.build_root_system(rootsys.SimpleType(family, rank))
            state["L"] = chevalley.chevalley_constants(rs)
            state["g"] = gradation.grade_from_crossing(rs, gradation.CrossingSet.of(1))
            _verdict(op, [])

        def killing(op: Op, state=state) -> None:
            state["L"].killing_basis()
            _verdict(op, [])

        def closed_forms(op: Op, expected=expected, state=state) -> None:
            signature = koszul.einstein_structure(state["g"], state["L"], 1).signature()
            ok = tuple(signature) == expected
            _verdict(op, [] if ok else [f"signature {signature}, expected {expected}"])

        def oracle(op: Op, check: str, on_gradation: bool, last: bool, state=state) -> None:
            args = (state["L"], state["g"]) if on_gradation else (state["L"],)
            if last:  # free the algebra before the next one is built
                state.clear()
            result = getattr(verify, check)(*args)
            _verdict(op, [] if result["ok"] else [str(result["first_failure"])])

        plan += [(f"{name} build", build), (f"{name} killing_basis", killing),
                 (f"{name} einstein signature", closed_forms)]
        gradation_checks = GRADATION_CHECKS + (FULL_GRADATION_CHECKS if full else ())
        checks = ALGEBRA_CHECKS + (FULL_ALGEBRA_CHECKS if full else ()) + gradation_checks
        for check in checks:
            plan.append((f"{name} {check}", functools.partial(
                oracle, check=check, on_gradation=check in gradation_checks,
                last=check == checks[-1])))
    return plan


# -- queries -----------------------------------------------------------------------

COMMANDS = ("roots", "gradations", "koszul", "rho", "einstein")


def query_set(seed: int, small: bool) -> list[list[str]]:
    """One query per (command, type) pair; the seed draws each crossing."""
    rng = random.Random(seed)
    types = verify.sweep_types(2 if small else 8)
    queries = []
    for command in COMMANDS:
        for stype in types:
            argv = [command, stype.family, str(stype.rank)]
            if command != "roots":
                mask = rng.randrange(1, 2**stype.rank)
                nodes = [str(i + 1) for i in range(stype.rank) if mask >> i & 1]
                argv += ["--cross", ",".join(nodes)]
            queries.append(argv + ["--json"])
    return queries


def load_goldens(path: Path = GOLDENS) -> dict[str, str]:
    """Recorded sha256 of each query's ``--json`` output, keyed by the query."""
    if not path.is_file():
        return {}
    table = {}
    for line in path.read_text().splitlines():
        if line.strip():
            digest, query = line.split("  ", 1)
            table[query] = digest
    return table


def queries_inputs(seed: int, small: bool, workdir: Path) -> dict:
    return {"seed": seed, "queries": query_set(seed, small), "goldens": load_goldens()}


def query_step(argv: list[str], goldens: dict[str, str]) -> Step:
    key = " ".join(argv)

    def step(op: Op) -> None:
        code, out, err = _run_cli(argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        op.extra["digest"] = digest
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[:200]}")
        else:
            failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
            problems += [f"check failed: {name}" for name in failed]
        want = goldens.get(key)
        if want is not None and want != digest:
            problems.append(f"sha256 {digest[:16]} differs from recorded {want[:16]}")
        _verdict(op, problems)

    return step


def queries_plan(inputs: dict, pass_index: int) -> Plan:
    queries = inputs["queries"]
    order = list(range(len(queries)))
    random.Random(f"{inputs['seed']}/{pass_index}").shuffle(order)
    return [(" ".join(queries[i]), query_step(queries[i], inputs["goldens"])) for i in order]


# -- chart --------------------------------------------------------------------------

# (name, n, grid, kind); the 256-point log model dominates the pass.  Grid 4
# rather than 5 at n = 2 keeps a pass near 5 s, so a run holds several.
CHARTS = (("log-n1-grid9", 1, 9, "log"), ("log-n2-grid4", 2, 4, "log"),
          ("flat-n2-grid4", 2, 4, "flat"))
CHARTS_SMALL = (("log-n1-grid3", 1, 3, "log"), ("flat-n1-grid3", 1, 3, "flat"))


def chart_config(n: int, grid: int, kind: str, scale: int, extent: float) -> tuple[str, float]:
    """Config text and the exact Einstein constant it must give."""
    if kind == "log":
        text = f"n = {n}\nkind = builtin\nbuiltin = log1p_zzbar\nscale = {scale}\n"
        lam = (n + 1) / scale
    else:
        monomials = "".join(f"monomial = 1 * z{k} * zbar{k}\n" for k in range(1, n + 1))
        text = f"n = {n}\nkind = polynomial\n{monomials}lambda = 0\n"
        lam = 0.0
    return text + f"grid = {grid}\nextent = {extent}\n", lam


def chart_inputs(seed: int, small: bool, workdir: Path) -> dict:
    rng = random.Random(seed)
    configs = []
    for name, n, grid, kind in CHARTS_SMALL if small else CHARTS:
        scale = rng.choice((1, -1))
        # Extents above the default 0.3 push the n = 2 residual towards its gate.
        extent = round(0.3 - 0.03 * rng.random(), 6)
        text, lam = chart_config(n, grid, kind, scale, extent)
        path = Path(workdir) / f"{name}.cfg"
        path.write_text(text)
        configs.append({"name": name, "path": str(path), "lambda": lam})
    return {"configs": configs}


def chart_plan(inputs: dict, pass_index: int) -> Plan:
    plan: Plan = []
    for cfg in inputs["configs"]:

        def step(op: Op, cfg=cfg) -> None:
            code, out, err = _run_cli(["potential", cfg["path"], "--json"])
            if code != 0 and not out:
                _verdict(op, [f"exit {code}: {err.strip()[:200]}"])
                return
            report = json.loads(out)
            payload = report["payload"]
            lam_err = abs(payload["lambda"] - cfg["lambda"])
            op.extra = {"residual": payload["einstein_residual"], "lambda_err": lam_err}
            problems = [f"check failed: {c['name']}" for c in report["checks"] if not c["ok"]]
            if code != 0:
                problems.append(f"exit {code}")
            if not lam_err < 1e-3:
                problems.append(f"|lambda - {cfg['lambda']}| = {lam_err}")
            _verdict(op, problems)

        plan.append((cfg["name"], step))
    return plan


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, bool, Path], dict]
    plan: Callable[[dict, int], Plan]


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_plan),
    "exceptional": Workload(exceptional_inputs, exceptional_plan),
    "queries": Workload(queries_inputs, queries_plan),
    "chart": Workload(chart_inputs, chart_plan),
}
