"""Pin the output digests that run.py checks every pass against.

    python3 perfbench/pin.py --mode full --seeds 0-31 [--workload NAME]

Run from the root of a checkout whose answers are trusted: each listed
(workload, seed) gets one untraced pass, which must pass its output checks,
and its digest is written into perfbench/digests.json.  Re-pin only in a
change that is meant to alter an answer, and say which answers changed.
"""

import argparse
import json
import os
import sys

from run import HERE, WORKLOADS, BenchError, one_pass


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("full", "smoke"), required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--workload", choices=WORKLOADS)
    args = ap.parse_args()
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)
    table = digests.setdefault(args.mode, {})
    for workload in [args.workload] if args.workload else WORKLOADS:
        for seed in args.seeds:
            result = one_pass(workload, seed, args.mode, 0, 170)
            if result["problems"]:
                raise BenchError(f"{workload} seed {seed}: {result['problems'][:5]}")
            table.setdefault(workload, {})[str(seed)] = result["digest"]
            print(workload, seed, result["digest"], flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
