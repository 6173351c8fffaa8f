"""In-memory span tracer installed from outside the package.

The tracer wraps public functions and methods of ``parakahler`` so that each
call records a span ``[name, start_ns, end_ns, parent]``.  Very hot calls are
only counted, because a span per call would cost more than the call.

The package imports functions by name (``verify.py`` does
``from .koszul import koszul_form``), so a wrapper is installed in every
package module whose namespace holds the original object; methods are
patched on their class.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "parakahler"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is ``name`` or ``Class.method``."""

    module: str
    attr: str
    metric: str
    observe: Callable[[Counter, object], None] | None = None

    @property
    def span_name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


def _add_jacobi_triples(counts: Counter, result) -> None:
    counts["verify.jacobi_triples"] += result["triples"]


_CLI_COMMANDS = (
    "cmd_roots",
    "cmd_gradations",
    "cmd_koszul",
    "cmd_rho",
    "cmd_einstein",
    "cmd_verify",
    "cmd_potential",
    "cmd_catalog",
)

# Calls recorded as spans; ``metric`` is the per-layer metric that sums
# their self time.
SPANS: tuple[Target, ...] = (
    *(
        Target("parakahler.verify", name, f"verify.{name}_s")
        for name in (
            "check_two_form",
            "check_killing_invariance",
            "check_einstein",
            "check_trace_oracle",
            "check_grading",
            "check_killing_dual",
            "check_structure_constants",
        )
    ),
    Target(
        "parakahler.verify", "check_jacobi", "verify.check_jacobi_s", _add_jacobi_triples
    ),
    Target("parakahler.chevalley", "chevalley_constants", "chevalley.chevalley_constants_s"),
    Target("parakahler.chevalley", "LieAlgebraData.killing_basis", "chevalley.killing_basis_s"),
    Target("parakahler.koszul", "koszul_form", "koszul.koszul_form_s"),
    Target("parakahler.koszul", "koszul_trace", "koszul.koszul_trace_s"),
    Target("parakahler.koszul", "einstein_structure", "koszul.einstein_structure_s"),
    Target("parakahler.koszul", "EinsteinStructure.signature", "koszul.signature_s"),
    Target("parakahler.ratlin", "nullspace", "ratlin.nullspace_s"),
    Target("parakahler.ratlin", "symmetric_signature", "ratlin.symmetric_signature_s"),
    Target("parakahler.ratlin", "solve", "ratlin.solve_s"),
    Target("parakahler.rootsys", "build_root_system", "rootsys.build_root_system_s"),
    Target("parakahler.gradation", "grade_from_crossing", "gradation.grade_from_crossing_s"),
    *(Target("parakahler.cli", name, "cli.cmd_s") for name in _CLI_COMMANDS),
    Target("parakahler.cli", "Report.to_json", "cli.render_s"),
    Target("parakahler.cli", "Report.render_text", "cli.render_s"),
    Target("parakahler.paracomplex", "einstein_residual", "paracomplex.einstein_residual_s"),
    Target("parakahler.paracomplex", "fit_lambda", "paracomplex.fit_lambda_s"),
    Target(
        "parakahler.paracomplex",
        "determinant_identity_residual",
        "paracomplex.determinant_identity_residual_s",
    ),
)

# Calls that are only counted.
COUNTERS: tuple[Target, ...] = (
    Target("parakahler.chevalley", "LieAlgebraData.basis_bracket", "chevalley.basis_bracket_calls"),
    Target("parakahler.paracomplex", "metric_matrix", "paracomplex.metric_matrix_calls"),
    Target("parakahler.paracomplex", "ChartPotential.split_value", "paracomplex.split_value_calls"),
)

ROOT = "workload"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def root_span(self):
        """A top-level span around one operation of a pass."""
        rec = [ROOT, time.perf_counter_ns(), 0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _spanned(self, name: str, fn, observe):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for target in SPANS:
            self._patch(target, lambda fn, t=target: self._spanned(t.span_name, fn, t.observe))
        for target in COUNTERS:
            self._patch(target, lambda fn, t=target: self._counted(t.metric, fn))

    def _patch(self, target: Target, make) -> None:
        owner = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(owner, target.attr)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    # -- summaries -------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics: summed self time per metric, call counts, ratios."""
        metric_of = {t.span_name: t.metric for t in SPANS}
        out: dict[str, float] = {t.metric: 0.0 for t in SPANS}
        out.update({t.metric: 0 for t in COUNTERS})
        out.update({"trace.unattributed_s": 0.0, "verify.jacobi_triples": 0})
        calls: Counter = Counter()
        for (name, *_), self_ns in zip(self.spans, self.self_times_ns()):
            calls[name] += 1
            out[metric_of.get(name, "trace.unattributed_s")] += self_ns / 1e9
        out.update(self.counts)
        gradations = calls["gradation.grade_from_crossing"]
        out["gradation.gradations"] = gradations
        out["koszul.koszul_form_calls_per_gradation"] = (
            calls["koszul.koszul_form"] / gradations if gradations else 0.0
        )
        out["paracomplex.det_identity_points"] = calls[
            "paracomplex.determinant_identity_residual"
        ]
        return out

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}))
                fh.write("\n")
