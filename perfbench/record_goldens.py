"""Record the sha256 of every ``queries`` output for a range of seeds.

    PYTHONPATH=src python3 perfbench/record_goldens.py 0 10

Writes ``goldens/queries.sha256`` (``<sha256>  <query>`` lines, sorted).
Run it only at a commit whose ``--json`` output is the reference: later runs
of the ``queries`` workload count every output that differs as a failed op.
"""

from __future__ import annotations

import sys

import workloads


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    table: dict[str, str] = {}
    for seed in range(first, last + 1):
        queries = workloads.query_set(seed, small=False)
        plan = [(" ".join(q), workloads.query_step(q, {})) for q in queries]
        for op in workloads.execute(plan):
            if not op.ok:
                print(f"error: {op.name}: {op.detail}", file=sys.stderr)
                return 1
            table[op.name] = op.extra["digest"]
    workloads.GOLDENS.parent.mkdir(exist_ok=True)
    workloads.GOLDENS.write_text(
        "".join(f"{digest}  {query}\n" for query, digest in sorted(table.items()))
    )
    print(f"{len(table)} digests for seeds {first}..{last} -> {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
