"""Record reference fingerprints for the benchmark's correctness checks.

Runs one operation of a workload per seed and stores its fingerprint in
reference/<workload>.json, keyed by size and seed:

- ``ensemble-small``: the ``moments.csv`` text, compared byte for byte;
- ``solve-large``: the iteration count and sup, end and mean of the
  solution;
- ``crosscheck-frac``: ``frac_rel_err``, the gap to ``young_rs`` and
  the sup and end of ``young_frac``.

Run it only on a commit whose outputs are the accepted reference.  From
the root of a checkout:

    python3 perfbench/record_references.py --workload solve-large --first 0 --last 31
    python3 perfbench/record_references.py --workload ensemble-small --first 0 --last 3 --tiny
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import OUT_ROOT, import_package

RECORDED = ("solve-large", "ensemble-small", "crosscheck-frac")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=RECORDED)
    ap.add_argument("--first", type=int, required=True)
    ap.add_argument("--last", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    workloads = import_package()
    w = workloads.WORKLOADS[args.workload](args.tiny)
    table = workloads.recorded(w.name)
    out_dir = OUT_ROOT / f"record-{os.getpid()}"
    try:
        for seed in range(args.first, args.last + 1):
            inputs = w.setup(seed, out_dir)
            out = w.op(inputs)
            if not out.ok:
                print(f"seed {seed}: operation failed", file=sys.stderr)
                return 1
            table[w.key] = w.fingerprint(inputs, out)
            print(f"seed {seed}: recorded {w.key}", flush=True)
    finally:
        workloads.clean(out_dir)
    workloads.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{w.name}.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
