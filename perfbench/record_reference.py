"""Rewrite reference.json from one pass of every workload at the current commit.

    python3 perfbench/record_reference.py

The reference holds, per job id, the exit code, the discrete facts and the
certified enclosures that checker.py compares later runs against.  Record
it again only on purpose, when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, REFERENCE, SRC, run_pass
from workloads import WORKLOADS, pass_jobs, write_configs


def main() -> int:
    sys.path.insert(0, str(SRC))
    from ifsdim.cli import main as cli_main

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    reference = {}
    try:
        for workload in WORKLOADS:
            configs = write_configs(workload, tmp)
            jobs = pass_jobs(workload, random.Random(0), every_point=True)
            for r in run_pass(cli_main, jobs, configs, tmp, None):
                reference[r.job.id] = r.facts
                print(f"{r.wall:8.2f} s  exit {r.rc}  {r.job.id}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
