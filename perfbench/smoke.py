"""Fast self-test of the benchmark at minimal size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload, in both ``--trace`` modes, it runs ``run.py --seconds 1``
(the smallest fixed unit sequence: one table pass, one study or one request
cycle, each of the same shape as in a full run) and asserts that

* the run exits 0 and its last line is the JSON result, with the output
  checks passed (``correct`` true, nothing failed);
* every metric named in ``BENCHMARK.json`` is printed with its unit and a
  numeric value (end-to-end metrics untraced, per-layer metrics traced);
* the traced window printed the same result digest as the untraced one;
* for ``pool-b32`` and ``service-fabric`` the calibration slice ran in a
  worker process (a pid other than the benchmark's own).

It also checks that the benchmark fails without printing a result when the
program source is missing.  Exit code 0 means every assertion held.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    completed = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed.returncode, completed.stdout.splitlines(), completed.stderr


def check(workload: str, trace: int, spec) -> None:
    code, lines, stderr = run(workload, trace)
    label = f"{workload} --trace {trace}"
    assert code == 0, f"{label}: exit {code}\n{stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {lines[-25:]}"
    assert result["attempted"] >= 1, label
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in wanted}, (
        f"{label}: printed {sorted(metrics)}"
    )
    for metric in wanted:
        printed = metrics[metric["name"]]
        assert printed["unit"] == metric["unit"], f"{label}: {metric['name']} unit {printed['unit']}"
        assert isinstance(printed["value"], (int, float)), f"{label}: {metric['name']} value"
    environment = json.loads(next(line for line in lines if line.startswith("environment: "))[13:])
    if workload != "verify-suite":
        workers = environment["worker_pids"]
        assert workers and environment["parent_pid"] not in workers, (
            f"{label}: calibration never reached a worker ({environment})"
        )
    if trace:
        digests = [line.split(":", 1)[1].strip() for line in lines if line.startswith("digest ")]
        assert len(digests) == 2 and digests[0] == digests[1], f"{label}: digests {digests}"
        assert metrics["bench.worker_slices"]["value"] > 0 or workload == "verify-suite", label
    print(f"ok  {label}: {result['attempted']} operations, {len(metrics)} metrics")


def check_without_source() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, fail with no result."""
    bare = os.path.join(ROOT, ".perfbench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, lines, _ = run("verify-suite", 0, cwd=bare,
                             script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print(f"ok  no program source: exit {code}, no result printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            check(workload, trace, spec)
    check_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
