"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with the monotonic time of the spawn, so that the set-up
time covers interpreter start, ``import parakahler`` and input generation.
Times are raw here; ``run.py`` calibrates them with the ``k_ms`` samples.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--small", action="store_true", help="reduced-size inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=Path, help="trace the pass; write spans here")
    args = ap.parse_args(argv)

    import workloads  # imports parakahler

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.small, args.workdir)
    setup_s = (time.perf_counter_ns() - args.spawn_ns) / 1e9
    record: dict = {"setup_s": setup_s, "setup_k_ms": workloads.calibrate.sample_ms()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.execute(workload.plan(inputs, args.pass_index), tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
        record["per_layer"] = tracer.per_layer()
        record["self_sum_s"] = sum(tracer.self_times_ns()) / 1e9
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["ops"] = [dataclasses.asdict(op) for op in ops]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
