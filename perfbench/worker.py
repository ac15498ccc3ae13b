"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode full|smoke --trace 0|1

Run from the root of an alcove-lab checkout; the library is imported from
its `src/`.  Prints one JSON line: set-up time, per-operation latencies and
failures, output-check problems, the output digest, workload properties,
peak RSS and, when traced, the per-function span summary.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()   # set-up time counts from here, before the import

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, candidate_bounds  # noqa: E402


CALIBRATE_EVERY_S = 0.1


def calibrate():
    """Seconds a fixed pure-Python task takes: exact rationals, tuples and a
    dict, like the library's own work but none of its code.  Its median
    time in a pass shows how fast the shared machine ran during the pass."""
    start = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 101):
        a, b = Fraction(i, 7 + i % 13), Fraction(3 * i + 1, 11 + i % 17)
        acc = (acc + a * b - a / b) % 1000
        key = (a.numerator % 31, b.denominator % 17)
        seen[key] = seen.get(key, 0) + 1
        tuple(x * a for x in (1, 2, 3))
    return perf_counter() - start


class Ops:
    """Times one top-level library call per `call`; collects the digest
    items, output-check problems and workload properties of a pass.
    Off the clock, it runs `calibrate` after any call that ends 0.1 s or
    more after the last calibration."""

    def __init__(self):
        self.records = []      # (operation kind, seconds, exception type or None)
        self.calibration = [calibrate()]
        self.last_calibration = perf_counter()
        self.problems = []
        self.items = []
        self.props = {}
        self.kept_bounds = self.candidate_bounds = 0

    def call(self, kind, fn, *args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:   # a failed operation, counted by type
            self.records.append((kind, perf_counter() - start, type(exc).__name__))
            result, ok = exc, False
        else:
            self.records.append((kind, perf_counter() - start, None))
            ok = True
        if perf_counter() - self.last_calibration >= CALIBRATE_EVERY_S:
            self.calibrate()
        return ok, result

    def calibrate(self):
        self.calibration.append(calibrate())
        self.last_calibration = perf_counter()

    def check(self, condition, problem):
        if not condition:
            self.problems.append(problem)

    def out(self, *item):
        self.items.append(item)

    def kept(self, alcove, walls):
        self.kept_bounds += len(alcove.inequalities)
        self.candidate_bounds += candidate_bounds(walls)

    def digest(self):
        blob = json.dumps(self.items, sort_keys=True, separators=(",", ":"),
                          default=str).encode()
        return hashlib.sha256(blob).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "alcovelab", "__init__.py")):
        sys.exit(f"no alcove-lab sources under {src}")
    sys.path.insert(0, src)
    import alcovelab as lib
    import alcovelab.cli  # noqa: F401  (cli_mix calls lib.cli.dispatch)
    if not os.path.abspath(lib.__file__).startswith(src + os.sep):
        sys.exit(f"alcovelab was imported from {lib.__file__}, not {src}")

    setup, run = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as workdir:
        state = setup(lib, rng, args.mode, workdir)
        setup_s = perf_counter() - START
        ops = Ops()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(lib)
        try:
            run(lib, state, ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        ops.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    props = {"compat.repeat_share": 0.0,
             "alcoves.real_alcove_of.kept_ratio":
                 ops.kept_bounds / ops.candidate_bounds if ops.candidate_bounds else 0.0,
             "orders.labels": 0, "orders.closure_pairs": 0,
             "orders.order_compat_check.pairs_checked": 0}
    props.update(ops.props)
    result = {"setup_s": setup_s, "records": ops.records,
              "calibration": ops.calibration, "problems": ops.problems,
              "digest": ops.digest(), "props": props, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        calls, self_s, durations = tracer.summary()
        result["trace"] = {"calls": calls, "self_s": self_s, "durations": durations,
                           "totals": tracer.totals}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
