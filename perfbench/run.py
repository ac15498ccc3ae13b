"""Run the alcove-lab benchmark and print its metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of an alcove-lab checkout.  Without --workload every
workload runs, one after another.  Each workload repeats passes of its
seeded operation list, every pass in a fresh interpreter (perfbench/worker.py),
about S seconds' worth.  The load is a closed loop: one client, one process
at a time, one thread.  With --trace 0 the last line is one JSON
object with the end-to-end metrics; with --trace 1 passes alternate between
untraced and traced and the last line has the per-layer metrics.  A failed
output check or a digest that differs from perfbench/digests.json prints
"correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("alcove_sweep", "compat_translates", "label_orders", "cli_mix")
RUN_LIMIT_S = 170          # every invocation ends well inside 180 s
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)
# seconds one pass takes, start to end, on the 2-core x86 VM the sizes
# were tuned on; --seconds / PASS_S passes make a run
PASS_S = {"alcove_sweep": 3.4, "compat_translates": 4.6, "label_orders": 6.0,
          "cli_mix": 2.8}
# median time of worker.calibrate() in a pass on that VM, when no other
# tenant slowed it
CALIBRATION_REF_S = 0.0021


class BenchError(Exception):
    pass


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_pct(per_pass_count):
    """The highest ladder percentile with at least ten samples beyond it in
    one pass; 100 (the maximum) when a pass is too short for any."""
    return next((p for p in TAIL_LADDER if per_pass_count * (1 - p / 100) >= 10), 100)


def one_pass(workload, seed, mode, trace, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a pass outlasted {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: pass exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, mode, trace):
    """A fixed number of passes, about `seconds` worth at the nominal pass
    time, so that every run takes its medians over as many repetitions.
    A run on a slowed machine stops early rather than overrun.  With
    --trace 1 passes alternate between untraced and traced."""
    target = max(2, round(seconds / PASS_S[workload])) if mode == "full" else 1 + trace
    start = perf_counter()
    passes = []
    while len(passes) < target:
        flag = len(passes) % 2 if trace else 0
        elapsed = perf_counter() - start
        passes.append((flag, one_pass(workload, seed, mode, flag,
                                      RUN_LIMIT_S - elapsed)))
        elapsed = perf_counter() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= 1 + trace and elapsed + per_pass > min(
                1.25 * seconds, RUN_LIMIT_S - 10):
            break
    return passes


def slowdown(p):
    """How much slower than the reference the machine ran during a pass:
    its median calibration time over CALIBRATION_REF_S."""
    return statistics.median(p["calibration"]) / CALIBRATION_REF_S


def end_to_end(passes):
    """Every pass runs the same operation list.  Each pass's times are
    divided by its slowdown; then each operation gets the median of its
    repetitions over the passes, and the metrics are taken from those.
    Other tenants of a shared machine slow it in spells of seconds to
    minutes, which the calibration follows, and in bursts, which the
    median of the repetitions leaves out."""
    n = len(passes[0]["records"])
    same = all([r[0] for r in p["records"]] == [r[0] for r in passes[0]["records"]]
               for p in passes)
    if not same:
        raise BenchError("passes ran different operation lists")
    scale = [slowdown(p) for p in passes]
    latencies = [statistics.median(p["records"][i][1] / s for p, s in zip(passes, scale))
                 for i in range(n)]
    ok = sum(1 for _, _, exc in passes[0]["records"] if exc is None)
    pct = tail_pct(n)
    return {
        "setup_s": statistics.median(p["setup_s"] / s for p, s in zip(passes, scale)),
        "ops_per_s": ok / sum(latencies),
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_tail_ms": 1000 * percentile(latencies, pct),
        "ok_share": ok / n,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, pct


def per_layer(traced, untraced):
    """Per-function numbers from the traced passes: counts from the first
    (they repeat exactly), times as medians over the traced passes."""
    first = traced[0]["trace"]
    calls, totals = first["calls"], first["totals"]
    values = {}
    for p in traced:
        tr = p["trace"]
        for name, secs in tr["self_s"].items():
            values.setdefault(f"{name}.self_s", []).append(secs)
        for name in ("alcoves.real_alcove_of", "compat.find_compatible"):
            durations = tr["durations"].get(name) or [0.0]
            values.setdefault(f"{name}.p50_ms", []).append(
                1000 * percentile(durations, 50))
            values.setdefault(f"{name}.tail_ms", []).append(
                1000 * percentile(durations, tail_pct(len(durations))))
    out = {k: statistics.median(v) for k, v in values.items()}
    out.update({f"{name}.calls": n for name, n in calls.items()})
    out["polyhedra.feasible.input_rows"] = totals.get("polyhedra.feasible.input_rows", 0)
    candidates = totals.get("alcoves.candidate_bounds", 0)
    out["alcoves.real_alcove_of.kept_ratio"] = (
        totals.get("alcoves.kept_bounds", 0) / candidates if candidates else 0.0)
    out["orders.order_compat_check.pairs_checked"] = totals.get(
        "orders.order_compat_check.pairs_checked", 0)
    for key in ("compat.repeat_share", "orders.labels", "orders.closure_pairs"):
        out[key] = traced[0]["props"][key]
    traced_rate = end_to_end(traced)[0]["ops_per_s"]
    untraced_rate = end_to_end(untraced)[0]["ops_per_s"]
    out["trace.ops_per_s"] = traced_rate
    out["trace.untraced_ops_per_s"] = untraced_rate
    out["trace.overhead"] = untraced_rate / traced_rate
    return out


def check(workload, seed, mode, passes, digests):
    """Output-check problems and digest mismatches of a workload's passes."""
    problems = [f"pass {i}: {msg}" for i, (_, p) in enumerate(passes)
                for msg in p["problems"][:5]]
    seen = sorted({p["digest"] for _, p in passes})
    if len(seen) > 1:
        problems.append(f"passes disagree on the output digest: {seen}")
    pinned = digests.get(mode, {}).get(workload, {}).get(str(seed))
    if pinned is not None and seen != [pinned]:
        problems.append(f"digest {seen} differs from the pinned {pinned}")
    return problems, seen[0], pinned is not None


def report(workload, seed, args, bench, digests):
    mode = "smoke" if args.smoke else "full"
    passes = run_passes(workload, seed, args.seconds, mode, args.trace)
    problems, digest, pinned = check(workload, seed, mode, passes, digests)
    untraced = [p for flag, p in passes if not flag]
    traced = [p for flag, p in passes if flag]
    metrics, pct = end_to_end(untraced)
    records = [r for p in (traced if args.trace else untraced) for r in p["records"]]
    failures = {}
    for _, _, exc in records:
        if exc is not None:
            failures[exc] = failures.get(exc, 0) + 1

    print(f"== {workload}  seed {seed}  {mode}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  digest {digest[:16]}"
          f" ({'pinned' if pinned else 'not pinned'})  slowdown of the passes"
          f" {' '.join(f'{slowdown(p):.2f}' for p in untraced)}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        note = f"  (p{pct:g} of {len(untraced[0]['records'])} ops a pass)" \
            if name == "op_tail_ms" else ""
        print(f"  {name:<14} {value:14.6g} {units.get(name, '')}{note}")
    failed = sum(1 for _, _, exc in records if exc is not None)
    listed = json.dumps(failures, sort_keys=True) if failures else "none"
    print(f"  failed_share   {failed / len(records):14.6g} ratio  ({failed} of "
          f"{len(records)} failed: {listed})")
    props = untraced[0]["props"]
    print("  properties: " + ", ".join(f"{k}={v:.6g}" for k, v in props.items()))
    for msg in problems:
        print(f"  CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        layer = per_layer(traced, untraced)
        names = [m["name"] for m in bench["per_layer"]]
        for name in names:
            print(f"  {name:<46} {layer.get(name, 0):14.6g} {units[name]}")
        chosen = {n: layer.get(n, 0) for n in names}
    else:
        chosen = {m["name"]: metrics[m["name"]] for m in bench["end_to_end"]}
    if problems:   # a wrong answer is not reported as a timing
        chosen = {}
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in chosen.items()}}
    print(json.dumps(result))
    return not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short pass of each workload's smoke-sized inputs")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "alcovelab", "__init__.py")):
        print(f"run.py: no alcove-lab sources under {root}/src; run it from the "
              "root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            ok = report(workload, args.seed, args, bench, digests) and ok
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
