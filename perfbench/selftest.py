"""Self-test of the benchmark at tiny size (one second per run).

    python3 perfbench/selftest.py

For every workload and both --trace modes it checks that the run exits 0,
that its last stdout line is the JSON result with exactly the keys
correct/attempted/failed/metrics, that no op failed, and that every metric
BENCHMARK.json declares for that mode is printed by name with its unit, and
nothing else.  It then copies BENCHMARK.json and this directory, without
the program, into a scratch directory and checks that the benchmark refuses
to run there: a non-zero exit and no result line.  Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"ops failed: {result['failed']} of {result['attempted']}")
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"metrics {sorted(set(result['metrics']) ^ set(names))} differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got} (want unit {m['unit']})")
        if not any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines[:-1]):
            problems.append(f"{m['name']} not printed with its unit")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, bench[key])
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"without the program: {'refused' if refused else 'FAIL: ran'} (exit {proc.returncode})")
    shutil.rmtree(bare)
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
