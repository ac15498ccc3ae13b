"""The benchmark's own tests.  From the repository root:

    python3 -m pytest perfbench

Each workload runs its smoke-sized pass and must reproduce the pinned
digest; the traced run must report every per-layer metric; a digest
mismatch and a checkout without sources must fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass_reproduces_pinned_digest(workload):
    proc = bench("--smoke", "--workload", workload, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "(pinned)" in proc.stdout.splitlines()[0]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_traced_smoke_reports_every_per_layer_metric():
    proc = bench("--smoke", "--workload", "cli_mix", "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["cli.dispatch.calls"]["value"] > 0


def test_digest_mismatch_is_a_failed_check():
    passes = [(0, {"problems": [], "digest": "a" * 64})]
    pinned = {"full": {"cli_mix": {"7": "b" * 64}}}
    problems, _, was_pinned = run.check("cli_mix", 7, "full", passes, pinned)
    assert was_pinned and problems
    assert run.check("cli_mix", 8, "full", passes, pinned)[0] == []


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    proc = bench("--workload", "alcove_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 6.0, 0]]
    calls, self_s, _ = tracer.summary()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 6.0, "inner": 4.0}
