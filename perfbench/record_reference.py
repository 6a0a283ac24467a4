#!/usr/bin/env python3
"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record_reference.py

Runs ``sweep-svd`` and ``backtest-raw`` once at full size with the default
seed and writes their ``sweep_sharpe.csv`` and ``report.csv`` values to
``perfbench/reference.json``.  Re-record only when a change is meant to
move those outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run

FILES = {"sweep-svd": "sweep_sharpe.csv", "backtest-raw": "report.csv"}


def main() -> int:
    flexls = run.import_flexls()
    recorded = {}
    run.RESULTS.mkdir(exist_ok=True)
    for name, filename in FILES.items():
        with tempfile.TemporaryDirectory(dir=run.RESULTS, prefix="reference-") as work:
            session = run.Session(flexls, run.WORKLOADS[name], run.DEFAULT_SEED, Path(work))
            session.prepare()
            result = session.attempt()
            if result is None:
                print(session.failures[-1], file=sys.stderr)
                return 1
            header, rows = checks.read_table(session.out_dir / filename)
            recorded[name] = {filename: {"header": header, "rows": rows}}
    run.REFERENCE_PATH.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "workloads": recorded},
        indent=1,
    ) + "\n")
    print(f"wrote {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
