"""Command-line reports for root systems, gradations, Koszul data, metrics.

Every subcommand builds one structured payload; the human-readable text and
the ``--json`` output are two renderings of that same payload, so they cannot
drift apart.  Exit codes: 0 success, 1 domain error (including failed
verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction as Q
from operator import mul
from pathlib import Path

from .config import nodes, rational
from .errors import DomainError
from .gradation import (
    CrossingSet,
    Gradation,
    SatakeDiagram,
    catalog_lookup,
    catalog_names,
    enumerate_crossings,
    grade_from_crossing,
    gradation_for_diagram,
    orbit_dimension,
    parse_diagram_config,
)
from .koszul import (
    einstein_structure,
    kernel_is_g0,
    kernel_of,
    koszul_coefficients,
    koszul_form,
    two_form_from_weight,
)
from .paracomplex import (
    determinant_identity_residual,
    einstein_residual,
    fit_lambda,
    grid_points,
    parse_potential_config,
)
from .rootsys import (
    SimpleType,
    build_root_system,
    format_coeffs,
    weight_in_pi_basis,
)
from .verify import run_sweep

SCHEMA = "parakahler-report/1"


class Report:
    """One command's echo, inputs, payload, and verification summary."""

    def __init__(self, command: str, inputs: dict, payload: dict, checks: list[dict]) -> None:
        self.command, self.inputs, self.payload, self.checks = command, inputs, payload, checks

    def digest(self) -> str:
        canonical = json.dumps(self.inputs, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "digest": self.digest(),
            "payload": self.payload,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_text(self) -> str:
        lines = [f"{self.command}  [digest {self.digest()}]"]
        _render(self.payload, lines, indent=1)
        if self.checks:
            lines.append("checks:")
            for check in self.checks:
                mark = "pass" if check["ok"] else "FAIL"
                lines.append(f"  [{mark}] {check['name']}")
        return "\n".join(lines)


def _render(value, lines: list[str], indent: int, key: str | None = None) -> None:
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render(v, lines, indent + (key is not None), k)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        lines.append(f"{pad}{key}:")
        item_pad = "  " * (indent + 1)
        for item in value:
            lines.append(item_pad + "  ".join(f"{k}={v}" for k, v in item.items()))
    elif isinstance(value, list) and value and isinstance(value[0], list):
        lines.append(f"{pad}{key}:")
        item_pad = "  " * (indent + 1)
        for item in value:
            lines.append(item_pad + ", ".join(str(v) for v in item))
    elif isinstance(value, list):
        lines.append(f"{pad}{label}{', '.join(str(v) for v in value)}")
    else:
        lines.append(f"{pad}{label}{value}")


def _rat(x) -> str:
    return str(Q(x))


def _rho_rows(rho) -> list[dict]:
    rows = zip(rho.rs.positive_roots, rho.coeffs)
    return [{"root": str(r), "coefficient": _rat(c)} for r, c in rows]


def _weight_payload(rs, xi) -> dict:
    pi = weight_in_pi_basis(rs, xi)
    return {
        "alpha_basis": format_coeffs(xi.coords),
        "alpha_coeffs": [_rat(c) for c in xi.coords],
        "pi_basis": format_coeffs(pi, symbol="pi"),
        "pi_coeffs": [_rat(c) for c in pi],
    }


def sweep_rank(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > 8:
        raise argparse.ArgumentTypeError(f"must be at most 8, got {value}")
    return value


def _parse_cross(text: str) -> CrossingSet:
    return CrossingSet(frozenset(nodes(text, "--cross")))


def _resolve_satake(name: str) -> SatakeDiagram:
    path = Path(name)
    if path.is_file():
        return parse_diagram_config(path.read_text())
    return catalog_lookup(name)


# -- subcommands -------------------------------------------------------------------


def cmd_roots(args) -> Report:
    stype = SimpleType(args.family.upper(), args.rank)
    rs = build_root_system(stype)
    m, det = rs.cartan_inverse  # the weights are the rows of m / det
    prod_ok = all(
        sum(map(mul, row, column)) == det * (i == j)
        for i, row in enumerate(m)
        for j, column in enumerate(zip(*rs.cartan))
    )
    payload = {
        "type": str(stype),
        "cartan_matrix": [list(row) for row in rs.cartan],
        "symmetrizers": list(rs.d),
        "positive_root_count": len(rs.positive_roots),
        "positive_roots": [str(r) for r in rs.positive_roots],
        "highest_root": str(rs.highest_root),
        "fundamental_weights": [str(w) for w in rs.weights],
    }
    checks = [{"name": "weights inverse to cartan matrix", "ok": prod_ok}]
    return Report("roots", {"type": str(stype)}, payload, checks)


def cmd_gradations(args) -> Report:
    stype = SimpleType(args.family.upper(), args.rank)
    rs = build_root_system(stype)
    cross = args.cross
    crossings = enumerate_crossings(rs.rank) if cross is None else [_parse_cross(cross)]
    rows = []
    for crossing in crossings:
        g = grade_from_crossing(rs, crossing)
        rows.append(
            {
                "crossed": crossing.sorted(),
                "depth": g.depth,
                "orbit_dimension": orbit_dimension(g),
                "dim_g0": rs.rank + 2 * len(g.zero_degree_positive()),
            }
        )
    payload = {"type": str(stype), "gradations": rows}
    inputs = {"type": str(stype), "cross": args.cross or "all"}
    return Report("gradations", inputs, payload, [])


def _koszul_payload(g: Gradation) -> tuple[dict, list[dict]]:
    rs = g.rs
    psi = koszul_form(g)
    acoef = koszul_coefficients(g)
    rho = two_form_from_weight(rs, psi)
    payload = {
        "type": str(rs.type),
        "crossed": g.crossing.sorted(),
        "depth": g.depth,
        "orbit_dimension": orbit_dimension(g),
        "psi": _weight_payload(rs, psi),
        "coefficients": [{"node": i, "a": a, "b": a - 2} for i, a in sorted(acoef.items())],
        "rho": _rho_rows(rho),
        "degree_zero_positive": [str(r) for r in g.zero_degree_positive()],
    }
    checks = [
        {"name": "kernel of d(psi) equals g_0", "ok": kernel_is_g0(rho, g)},
        {"name": "rho positive off g_0",
         "ok": all(c > 0 for c, d in zip(rho.coeffs, g.root_degrees) if d)},
    ]
    return payload, checks


def cmd_koszul(args) -> Report:
    stype = SimpleType(args.family.upper(), args.rank)
    rs = build_root_system(stype)
    crossing = _parse_cross(args.cross)
    inputs = {
        "type": str(stype),
        "cross": crossing.sorted(),
        "satake": args.satake,
    }
    diagram = _resolve_satake(args.satake) if args.satake else None
    if diagram is None:
        g = grade_from_crossing(rs, crossing)
    elif diagram.type != stype:
        raise DomainError(
            f"Satake diagram {args.satake} is of type {diagram.type}, not {stype}"
        )
    else:
        g = gradation_for_diagram(diagram, crossing)
    payload, checks = _koszul_payload(g)
    if diagram is not None:
        payload["satake"] = {
            "name": args.satake,
            "black": sorted(diagram.black),
            "arrows": [list(p) for p in sorted(diagram.arrows)],
        }
    return Report("koszul", inputs, payload, checks)


def cmd_rho(args) -> Report:
    stype = SimpleType(args.family.upper(), args.rank)
    rs = build_root_system(stype)
    crossing = _parse_cross(args.cross)
    g = grade_from_crossing(rs, crossing)
    rho = two_form_from_weight(rs, koszul_form(g))
    kernel = kernel_of(rho, g)
    payload = {
        "type": str(stype),
        "crossed": crossing.sorted(),
        "rho": _rho_rows(rho),
        "kernel_basis": [bi.label() for bi in kernel],
        "kernel_dimension": len(kernel),
    }
    checks = [{"name": "kernel of d(psi) equals g_0", "ok": kernel_is_g0(rho, g)}]
    return Report("rho", {"type": str(stype), "cross": crossing.sorted()}, payload, checks)


def cmd_einstein(args) -> Report:
    stype = SimpleType(args.family.upper(), args.rank)
    rs = build_root_system(stype)
    crossing = _parse_cross(args.cross)
    lam = rational(args.lam, "--lambda")
    g = grade_from_crossing(rs, crossing)
    es = einstein_structure(g, None, lam)
    pos, neg = es.signature()
    m, basis = g.nonzero_roots(), [bi.label() for bi in es.basis]
    degrees = [d for d in g.signed_degrees if d]  # of each root of m
    pairs = zip(basis, basis[pos:], es.metric)  # (X_alpha, X_-alpha, g_alpha)
    payload = {
        "type": str(stype),
        "crossed": crossing.sorted(),
        "lambda": _rat(lam),
        "orbit_dimension": orbit_dimension(g),
        "k_plus": [str(r) for r, d in zip(m, degrees) if d > 0],
        "k_minus": [str(r) for r, d in zip(m, degrees) if d < 0],
        "metric_basis": basis,
        "metric_entries": [{"x": x, "y": y, "value": _rat(v)} for x, y, v in pairs],
        "signature": [pos, neg],
    }
    checks = [{"name": "neutral signature", "ok": pos == neg == orbit_dimension(g) // 2}]
    inputs = {"type": str(stype), "cross": crossing.sorted(), "lambda": _rat(lam)}
    return Report("einstein", inputs, payload, checks)


def cmd_verify(args) -> Report:
    result = run_sweep(args.max_rank)
    payload = {
        "max_rank": args.max_rank,
        "types": result["types"],
        "algebras": result["algebras"],
        "gradations": result["gradations"],
        "failures": result["failures"],
    }
    checks = [{"name": "all oracle checks", "ok": result["all_ok"]}]
    return Report("verify", {"max_rank": args.max_rank}, payload, checks)


def cmd_potential(args) -> Report:
    text = Path(args.config).read_text()
    potential, options = parse_potential_config(text)
    pts = grid_points(
        potential, options["extent"], options["grid"], options["margin"]
    )
    if not pts:
        raise DomainError("no admissible sample points in the requested grid")
    center = min(pts, key=lambda p: sum(c * c for c in p))
    if options["lambda"] is not None:
        lam = float(options["lambda"])
        lam_source = "config"
    else:
        lam = fit_lambda(potential, center)
        lam_source = "fitted"
    residual, argmax = einstein_residual(potential, lam, pts)
    # Five points spread over the grid, first and last included; the
    # derivative cycles through all 2n coordinates u_1..u_n, v_1..v_n.
    det_points = [pts[i] for i in sorted({k * (len(pts) - 1) // 4 for k in range(5)})]
    det_residual = max(determinant_identity_residual(
        potential, [(p, k % len(p)) for k, p in enumerate(det_points)]))
    payload = {
        "config": str(args.config),
        "kind": options["kind"],
        "n": potential.n,
        "builtin": options["builtin"],
        "points": len(pts),
        "lambda": lam,
        "lambda_source": lam_source,
        "einstein_residual": residual,
        "residual_argmax": list(argmax),
        "determinant_identity_residual": det_residual,
        "det_identity_points": len(det_points),
    }
    checks = [
        {"name": "einstein residual below 1e-5", "ok": residual < 1e-5},
        {"name": "determinant identity below 1e-7", "ok": det_residual < 1e-7},
    ]
    return Report("potential", {"config": str(args.config)}, payload, checks)


def cmd_catalog(args) -> Report:
    if args.name:
        diagram = catalog_lookup(args.name)
        payload = {
            "name": args.name,
            "type": str(diagram.type),
            "black": sorted(diagram.black),
            "arrows": [list(p) for p in sorted(diagram.arrows)],
        }
        return Report("catalog", {"name": args.name}, payload, [])
    payload = {"names": catalog_names()}
    return Report("catalog", {"name": None}, payload, [])


# -- entry point ---------------------------------------------------------------------


_TYPE = (("family", {"help": "simple type family letter A..G"}),
         ("rank", {"type": int, "help": "rank of the simple type"}))
_CROSS = ("--cross", {"required": True, "help": "comma list of crossed nodes, 1-based"})
_JSON = ("--json", {"action": "store_true", "help": "emit JSON"})
_BARE = ("--json", {"action": "store_true"})

# Each subcommand once: name, help and its arguments as (name or flag, add_argument keywords);
# read_argv knows help, type, default, required, dest, store_true and nargs="?".  Subcommand
# name runs cmd_<name>, looked up when argv is read, so a wrapper put on it is called.
COMMANDS = (
    ("roots", "positive roots and fundamental weights", (*_TYPE, _JSON)),
    ("gradations", "gradations from crossing sets",
     (*_TYPE, ("--cross", {**_CROSS[1], "required": False}), _JSON)),
    ("koszul", "Koszul form and symplectic coefficients",
     (*_TYPE, _CROSS, _JSON, ("--satake", {"help": "catalog name or diagram file to check"}))),
    ("rho", "two-form coefficients and kernel", (*_TYPE, _CROSS, _JSON)),
    ("einstein", "invariant Einstein metric data", (*_TYPE, _CROSS, _JSON,
     ("--lambda", {"dest": "lam", "default": "1", "help": "Einstein constant as a rational p/q"}))),
    ("verify", "run the exact oracle sweep",
     (("--max-rank", {"type": sweep_rank, "default": 3}), _BARE)),
    ("potential", "numeric chart pipeline from a config", (("config", {}), _BARE)),
    ("catalog", "bundled Satake diagrams", (("name", {"nargs": "?"}), _BARE)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parakahler", description=(
        "Invariant para-Kahler Einstein structures on adjoint orbits."))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=globals()[f"cmd_{name}"])
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def read_argv(argv) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for a well-formed argv, without the parser's cost.

    Reads exact long flags, each at most once (store_true bare; ``--opt=value``, or ``--opt
    value`` not starting with '-'), and positionals not starting with '-'.  Otherwise, or when
    an argument is missing or its type fails, None: argparse writes every help and usage error.
    """
    arguments = next((c[2] for c in COMMANDS if argv and argv[0] == c[0]), None)
    if arguments is None:
        return None
    flags = {flag: kw for flag, kw in arguments if flag.startswith("-")}
    positionals = [flag for flag, _ in arguments if flag not in flags]
    given, values, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not token.startswith("-"):
            values.append(token)
        elif flag not in flags or flag in given or eq and flags[flag].get("action"):
            return None
        elif flags[flag].get("action"):
            given[flag] = True
        elif not eq and (value := next(tokens, "-")).startswith("-"):
            return None
        else:
            given[flag] = value
    if len(values) > len(positionals):
        return None
    given.update(zip(positionals, values))
    args = argparse.Namespace(subcommand=argv[0], fn=globals()[f"cmd_{argv[0]}"])
    for flag, kw in arguments:
        if flag in given:
            try:
                value = kw["type"](given[flag]) if "type" in kw else given[flag]
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
        elif kw.get("required") or flag in positionals and kw.get("nargs") != "?":
            return None
        else:
            value = kw.get("default", False if kw.get("action") else None)
        setattr(args, kw.get("dest", flag.lstrip("-").replace("-", "_")), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv) or build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except (OSError, ValueError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(report.to_json() if args.json else report.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (`| head`): send the exit-time flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return int(any(not check["ok"] for check in report.checks))


if __name__ == "__main__":
    sys.exit(main())
