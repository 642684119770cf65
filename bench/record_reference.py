"""Record bench/reference.json: the exact-spectra fingerprints and verdicts
that the spectra workloads are checked against.

    python3 bench/record_reference.py [--seed N]

The records come from the ratdyn in this checkout, so run it only at a
commit whose spectra are trusted; a later commit must reproduce them factor
for factor, at every seed.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = {}
    for size in workloads.SIZES:
        out[size] = {}
        for workload in ("spectra_exceptional", "spectra_generic"):
            records = {}
            for task in workloads.build(workload, size, None):
                record, problems = task.check(task.run(args.seed))
                if problems:
                    sys.exit(f"{size} {task.name}: {problems}")
                records[task.name] = record
            out[size][workload] = records
            print(f"{size} {workload}: {len(records)} records", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
