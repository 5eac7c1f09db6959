"""Write reference.json: the values every job of every workload produces at
the reference seed, for runs of later code to be compared with.

    python3 perfbench/make_reference.py

Refuses to write when any job fails its closed-form checks.  Run it only on
the commit whose values are the reference, never to make a failing run pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE_SEED, RESULTS, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    values: dict[str, dict] = {}
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for name, build in workloads.WORKLOADS.items():
            for job in build(REFERENCE_SEED, Path(tmp)):
                got, problems = job.verify(job.run())
                if problems:
                    print(f"{name}/{job.name}: {problems}", file=sys.stderr)
                    return 1
                if job.name in values:
                    raise SystemExit(f"duplicate job name {job.name}")
                values[job.name] = got
    doc = {"seed": REFERENCE_SEED, "jobs": values}
    out = RESULTS.parent / "reference.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {len(values)} jobs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
