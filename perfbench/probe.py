"""Child processes of the benchmark.

    python3 perfbench/probe.py setup <workload>
        imports the workload's modules, builds its forms and representations,
        then prints ``ready <import seconds>``;
    python3 perfbench/probe.py cli <totals.json> <vvaf arguments...>
        runs one CLI command under the tracer and writes its totals.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list) -> int:
    if argv[0] == "setup":
        imported = workloads.setup_probe(argv[1])
        print(f"ready {imported!r}", flush=True)
        return 0
    if argv[0] == "cli":
        tracer = tracing.Tracer()
        tracer.install()
        from vvaf import cli

        tracer.active = True
        start = perf_counter()
        try:
            code = cli.run(argv[2:])
        finally:
            tracer.active = False
            Path(argv[1]).write_text(json.dumps(tracer.stats.totals(perf_counter() - start)))
        return code
    print(f"unknown probe {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
