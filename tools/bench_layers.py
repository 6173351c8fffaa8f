"""Per-layer timings of the oracle sweep, cold reports, bracket tables, chart lab and start-up, as one JSON file.

Runs ``verify.run_sweep(max_rank)`` with a timer around every check and
closed form it calls through ``verify``'s namespace, and around every
cached per-algebra table of ``LieAlgebraData`` the measured tree has; each
layer reports its self time (nested timed calls subtracted) and its call
count.  Then it runs the 155 reports of one seed of perfbench's ``queries``
workload (``workloads.query_set``: five commands over the 31 types of rank
<= 8, ``--json``) through ``cli.main`` with timers around the layers of a
cold report (``QUERY_LAYERS``).  Each of the two sections runs ``PASSES`` times and
reports the median wall time and the median self time per layer; the call
counts are those of the first pass (every pass makes the same calls).  For
F4, E6, E7 and E8 (``algebra_tables``) it records what one
``chevalley_constants`` build holds: its median wall time over ``PASSES``
builds, then the bytes of one build under ``tracemalloc`` (what the result
keeps and the peak during the call), its stored bracket entries and the
distinct dicts that hold them.  Then it times the log model per point for
each chart dimension n, twice, as the median of ``PASSES`` passes over all n:
``metric_from_potential`` one point at a time (``chart_log_model``) and
``einstein_residual`` over a whole grid (``chart_grid``); and the stages of a
``potential --json`` report on each config of one seed of perfbench's
``chart`` workload (``workloads.chart_inputs``; ``chart_report``, ``PASSES``
passes, median self times).
Last, ``startup`` takes the median time of ``import parakahler.cli`` over
``STARTUP_RUNS`` fresh interpreters under ``-X importtime``, without bytecode
and with it, and each module's median self time.  Nothing in the package is
changed: the timers are installed from outside and removed after each pass.

The output is ``BENCH_<commit>.json`` in ``--out``, with the ``src/`` line
count, the Python version and the processor count beside the timings::

    python3 tools/bench_layers.py                      # run_sweep(8), queries of seed 1
    python3 tools/bench_layers.py --src ../other/src --commit 8624fe1

Compare two files only from back-to-back runs on one host.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PASSES = 3  # timed passes per section; a layer reports its median self time

# Names ``run_sweep`` reaches through ``verify``'s module namespace.
VERIFY_LAYERS = (
    "check_jacobi", "check_killing_invariance", "check_killing_cartan",
    "check_structure_constants", "check_gradation", "check_grading",
    "check_trace_oracle", "check_two_form", "check_killing_dual", "check_einstein", "closed_forms",
    "build_root_system", "chevalley_constants", "grade_from_crossing", "unsplit_root",
    "koszul_form", "koszul_trace", "koszul_coefficients", "two_form_from_weight",
    "kernel_is_g0", "scaled_killing_dual", "omega_z", "einstein_structure",
)


class LayerTimer:
    """Self time and call count per layer name, for nested timed calls."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._children: list[float] = []  # time spent in timed callees, per open call

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                self.self_s[name] += total - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += total

        return timed


def timed_passes(install, run, digits: int = 4) -> tuple[object, dict]:
    """``PASSES`` runs of ``run()``, each under fresh timers that ``install(timer)`` puts in.

    ``install`` returns (owner, attribute, original) triples, restored after
    each pass.  Returns the first pass's result and the section's record:
    median wall and self times in seconds, rounded to ``digits``, and the first
    pass's call counts.
    """
    results, walls, timers = [], [], []
    for _ in range(PASSES):
        timer = LayerTimer()
        undo = install(timer)
        try:
            start = time.perf_counter()
            results.append(run())
            walls.append(time.perf_counter() - start)
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
        timers.append(timer)
    self_s = {name: statistics.median(t.self_s[name] for t in timers) for name in timers[0].calls}
    layers = sorted(self_s.items(), key=lambda item: -item[1])
    return results[0], {
        "passes": PASSES,
        "wall_s": round(statistics.median(walls), digits),
        "layers_self_s": {name: round(s, digits) for name, s in layers},
        "calls": dict(sorted(timers[0].calls.items())),
    }


def _install_layers(layers, timer: LayerTimer) -> list[tuple[object, str, object]]:
    """Wrap ``layers``, (module, attribute) pairs with a method as ``Class.name``; returns
    (owner, attribute, original) triples to restore.

    A function is wrapped in every package namespace that holds it, a cached
    property's function in place; a name the measured tree lacks is skipped.
    """
    undo = []
    for module, attr in layers:
        owner = importlib.import_module(f"parakahler.{module}")
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(owner, cls_name)
            member = cls.__dict__.get(name)
            if isinstance(member, cached_property):
                cls, name, member = member, "func", member.func
            if callable(member):
                undo.append((cls, name, member))
                setattr(cls, name, timer.wrap(attr, member))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapped = timer.wrap(f"{module}.{attr}", original)
        for name, mod in list(sys.modules.items()):
            if mod is not None and name.split(".")[0] == "parakahler":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
    return undo


# The layers of a cold report.  The weights are ``bareiss_inverse`` (the
# inverse of A) and, where it is built on first read, ``RootSystem.weights``.
QUERY_LAYERS = (
    ("rootsys", "build_root_system"),
    ("rootsys", "bareiss_inverse"), ("rootsys", "RootSystem.weights"),  # the weights
    ("gradation", "grade_from_crossing"), ("koszul", "two_form_from_weight"),
    ("koszul", "einstein_structure"), ("koszul", "EinsteinStructure.signature"),
    ("rootsys", "format_coeffs"), ("chevalley", "BasisIndex.label"),  # label formatting
    ("cli", "Report.to_json"), ("cli", "read_argv"),
    ("cli", "build_parser"),  # once per report before read_argv; now help and usage errors only
)
QUERY_SEED = 1


def _workloads():
    """perfbench's workload module, imported once the measured ``parakahler`` is."""
    path = str(ROOT / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import workloads

    return workloads


def query_layers(seed: int) -> dict:
    """Median self times and calls of ``QUERY_LAYERS`` over the reports of perfbench's
    ``queries`` workload of one seed (``workloads.query_set``)."""
    from parakahler import cli

    queries = _workloads().query_set(seed, False)

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return sum(cli.main(argv) != 0 for argv in queries)

    failed, record = timed_passes(functools.partial(_install_layers, QUERY_LAYERS), run)
    return {"seed": seed, "reports": len(queries), "failed": failed, **record}


def sweep_layers(max_rank: int) -> dict:
    """Median self times and calls of ``VERIFY_LAYERS`` and of ``LieAlgebraData``'s
    ``killing_basis`` and cached per-algebra tables over ``run_sweep(max_rank)``."""
    from parakahler import verify
    from parakahler.chevalley import LieAlgebraData

    tables = [name for name, attr in vars(LieAlgebraData).items()
              if isinstance(attr, cached_property)]
    layers = [("verify", name) for name in VERIFY_LAYERS]
    layers += [("chevalley", f"LieAlgebraData.{name}") for name in ("killing_basis", *tables)]
    result, record = timed_passes(functools.partial(_install_layers, layers),
                                  lambda: verify.run_sweep(max_rank))
    return {
        "max_rank": max_rank,
        "algebras": result["algebras"],
        "gradations": result["gradations"],
        "all_ok": result["all_ok"],
        **record,
    }


TABLE_TYPES = ("F4", "E6", "E7", "E8")


def algebra_tables() -> dict:
    """Per type of ``TABLE_TYPES``: the median wall time of ``PASSES`` untraced
    ``chevalley_constants`` builds, then one build under ``tracemalloc`` with its
    stored bracket entries and the distinct dicts that hold them."""
    import tracemalloc

    from parakahler.chevalley import chevalley_constants
    from parakahler.rootsys import SimpleType, build_root_system

    out = {}
    for name in TABLE_TYPES:
        rs = build_root_system(SimpleType.parse(name))
        walls = []
        for _ in range(PASSES):  # the first build also fills the root system's caches
            start = time.perf_counter()
            chevalley_constants(rs)
            walls.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            L = chevalley_constants(rs)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = [e for row in L.brackets for e in row.values()]
        out[name] = {"build_s": round(statistics.median(walls), 4),
                     "traced_bytes": current, "traced_peak_bytes": peak,
                     "entries": len(entries), "distinct_dicts": len({id(e) for e in entries})}
    return out


CHART_DIMS = (1, 2, 4, 8)
# (n, grid) of the ``chart_grid`` section: the log model's admissible points at
# extent 0.3 (81, 256 and 256 points); n = 8 takes 64 fixed points instead,
# as 2 points per axis would already be 65,536.
CHART_GRIDS = ((1, 9), (2, 4), (4, 2), (8, None))


def _fixed_points(n: int, count: int) -> list[tuple[float, ...]]:
    """Fixed points with |coordinate| <= 0.2, well inside P = 1 + u.v > 0."""
    return [tuple(0.1 * ((k + i) % 5 - 2) for i in range(2 * n)) for k in range(count)]


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def chart_per_point(points: int = 20, repeats: int = 5) -> dict:
    """Per n, the medians over ``PASSES`` passes of the table build (a fresh table
    each pass) and of the best-of-``repeats`` mean time per point of
    ``metric_from_potential`` called one point at a time, on the log model."""
    from parakahler.paracomplex import log_model_potential, metric_from_potential

    builds, per_point = defaultdict(list), defaultdict(list)
    for _ in range(PASSES):
        for n in CHART_DIMS:
            F = log_model_potential(n)
            start = time.perf_counter()
            F.derivatives
            builds[n].append(time.perf_counter() - start)
            pts = _fixed_points(n, points)
            per_point[n].append(_best(lambda: [metric_from_potential(F, p) for p in pts],
                                      repeats) / points)
    return {str(n): {"table_build_ms": round(statistics.median(builds[n]) * 1e3, 3),
                     "per_point_ms": round(statistics.median(per_point[n]) * 1e3, 4)}
            for n in CHART_DIMS}


def chart_grid(repeats: int = 5) -> dict:
    """Per n, the median over ``PASSES`` passes of the best-of-``repeats`` time per
    point of ``einstein_residual`` over a whole point set of the log model
    (``CHART_GRIDS``), the table built beforehand."""
    from parakahler.paracomplex import einstein_residual, grid_points, log_model_potential

    sets = {}
    for n, grid in CHART_GRIDS:
        F = log_model_potential(n)
        F.derivatives
        sets[n] = F, grid, grid_points(F, 0.3, grid) if grid else _fixed_points(n, 64)
    per_point = defaultdict(list)
    for _ in range(PASSES):
        for n, (F, grid, pts) in sets.items():
            best = _best(lambda: einstein_residual(F, float(n + 1), pts), repeats)
            per_point[n].append(best / len(pts))
    return {str(n): {"grid": grid, "points": len(pts),
                     "per_point_ms": round(statistics.median(per_point[n]) * 1e3, 4)}
            for n, (_, grid, pts) in sets.items()}


# The stages of ``cli.cmd_potential``, with the derivative table's build apart
# (it happens in the first stage that evaluates the table).
CHART_LAYERS = (
    ("paracomplex", "parse_potential_config"), ("paracomplex", "grid_points"),
    ("paracomplex", "ChartPotential.derivatives"), ("paracomplex", "fit_lambda"),
    ("paracomplex", "einstein_residual"), ("paracomplex", "determinant_identity_residual"),
    ("cli", "Report.to_json"),
)
CHART_SEED = 1


def chart_report(seed: int) -> dict:
    """Median self times of ``CHART_LAYERS`` in one ``potential --json`` report per
    config of perfbench's ``chart`` workload of one seed, each config on its own."""
    from parakahler import cli

    out = {"seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in _workloads().chart_inputs(seed, False, Path(tmp))["configs"]:

            def run(path=cfg["path"]) -> int:
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(["potential", path, "--json"])

            code, record = timed_passes(functools.partial(_install_layers, CHART_LAYERS), run, 6)
            out[cfg["name"]] = {"exit": code, **record}
    return out


STARTUP_RUNS = 7  # fresh interpreters per start-up measurement
IMPORT_TIMER = ("import time; start = time.perf_counter(); import parakahler.cli; "
                "print(time.perf_counter() - start)")


def _import_self_us(stderr: str) -> dict[str, int]:
    """The self time in microseconds of each module that ``import parakahler.cli``
    imports, read from ``-X importtime`` output (which lists a top-level import
    after the modules nested in it)."""
    out, group = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line.removeprefix("import time:").split("|")
        group[name.strip()] = int(self_us)
        if not name.startswith("  "):  # a top-level import closes its group
            if name.strip().startswith("parakahler"):
                out.update(group)
            group = {}
    return out


def startup(src: Path, runs: int) -> dict:
    """The median wall time of ``import parakahler.cli`` from ``src`` over ``runs``
    fresh interpreters under ``-X importtime``, and each imported module's median
    self time there: without bytecode and with it.

    Bytecode is read only under a temporary ``PYTHONPYCACHEPREFIX``, never from a
    tree's ``__pycache__``.  Without bytecode the prefix stays empty and
    ``PYTHONDONTWRITEBYTECODE=1``, so every module the import reaches is
    compiled, the standard library's included; with it, one uncounted import
    fills the prefix first.
    """
    out = {"runs": runs}
    for mode in ("no_bytecode", "bytecode"):
        with tempfile.TemporaryDirectory() as prefix:
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=prefix,
                       PYTHONDONTWRITEBYTECODE="1")
            if mode == "bytecode":
                del env["PYTHONDONTWRITEBYTECODE"]
                subprocess.run([sys.executable, "-c", "import parakahler.cli"], env=env, check=True)
            walls, self_us = [], defaultdict(list)
            for _ in range(runs):
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_TIMER],
                                      env=env, capture_output=True, text=True, check=True)
                walls.append(float(proc.stdout))
                for name, us in _import_self_us(proc.stderr).items():
                    self_us[name].append(us)
            medians = {name: statistics.median(us) for name, us in self_us.items()}
            out[mode] = {"import_s": round(statistics.median(walls), 4),
                         "self_us": dict(sorted(medians.items(), key=lambda item: -item[1]))}
    return out


def _commit(src: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv=None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=8)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree to measure")
    parser.add_argument("--commit", help="label of the measured tree (default: git describe)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import parakahler

    package = Path(parakahler.__file__).resolve().parent
    if package.parent != src:
        raise SystemExit(f"parakahler was already imported from {package}, not from {src}")
    commit = args.commit or _commit(src)
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(package.glob("*.py"))),
        "sweep": sweep_layers(args.max_rank),
        "queries": query_layers(QUERY_SEED),
        "algebra_tables": algebra_tables(),
        "chart_log_model": chart_per_point(),
        "chart_grid": chart_grid(),
        "chart_report": chart_report(CHART_SEED),
        "startup": startup(src, STARTUP_RUNS),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{commit}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return path


if __name__ == "__main__":
    main()
