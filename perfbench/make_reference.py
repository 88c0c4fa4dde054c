"""Write perfbench/reference.json: job values at the default seed.

    python3 perfbench/make_reference.py

Runs pass 0 of every workload with the default seed and stores each job's
``values``.  Run it only when the job lists change, on a commit whose
outputs are trusted; the benchmark then checks every later run against it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    reference: dict = {}
    ok = True
    for name, wl in WORKLOADS.items():
        ctx = wl.setup()
        wl.refresh(ctx)
        outputs: dict = {}
        stored: dict = {}
        try:
            for job in wl.jobs(ctx, DEFAULT_SEED, 0):
                outputs[job.name] = result = job.call()
                bad = job.check(result, outputs) if job.check else []
                if bad:
                    ok = False
                    print(f"{name} {job.name}: {'; '.join(bad)}", file=sys.stderr)
                if job.values:
                    stored[job.name] = job.values(result)
        finally:
            if "out_root" in ctx:  # the CLI commands' artifacts
                shutil.rmtree(ctx["out_root"], ignore_errors=True)
        reference[name] = stored
        print(f"{name}: {len(stored)} jobs stored")
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
