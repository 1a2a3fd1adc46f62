#!/usr/bin/env python3
"""Record the reference outputs that the scan and lunar gates compare to.

    python3 perfbench/record_reference.py scan lunar

Runs every CLI seed of the workload's pool once and writes
perfbench/reference/<workload>.json: per CLI seed, the status, page point
x and return fx of each row.  Re-record only when the inputs or the
expected outputs change on purpose, and say so in the change.
"""

import csv
import json
import os
import shutil
import sys
import tempfile

import run


def _digits(text):
    """15 significant digits: well inside the gates' tolerances."""
    return float("%.15g" % float(text))


def record(name):
    cli = run.load_program()
    cfg = run.SCAN if name == "scan" else run.LUNAR
    base = run.scan_argv(name)
    lines = []
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for seed in range(cfg["pool"]):
            out = os.path.join(tmp, "out")
            rc = cli.main(base + ["--seed", str(seed), "--out", out])
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: exit code {rc}")
            with open(out + ".csv") as fh:
                rows = list(csv.DictReader(fh))
            entry = {
                "status": [r["status"] for r in rows],
                "x": [[_digits(r[f"x{j}"]) for j in range(6)] for r in rows],
                "fx": [[_digits(r[f"fx{j}"]) for j in range(6)]
                       for r in rows],
            }
            lines.append(f'  "{seed}": {json.dumps(entry)}')
            print(name, seed, entry["status"], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(run.REFERENCE_DIR, name + ".json"), "w") as fh:
        # one pool seed per line, so a re-recording diffs readably
        fh.write('{"argv": %s,\n "pool": {\n%s\n}}\n'
                 % (json.dumps(base), ",\n".join(lines)))


if __name__ == "__main__":
    run.pin_threads()
    for workload in sys.argv[1:]:
        record(workload)
