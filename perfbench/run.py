"""pulseforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run spawns
SETUPS fresh workers one after another: all but the last only set up (import,
input generation, one warm-up op) so that ``setup_s`` is a median, and the
last one also runs the timed loop.  With ``--trace 1`` one worker runs an
untraced and a traced half and reports the per-layer metrics.  Human-readable
lines come first; the last line of stdout is the JSON result.  Every output
stays under ``perfbench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    Falls back to the median when the run has too few samples."""
    xs = sorted(latencies_ms)
    n = len(xs)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else (n - 1) // 2
    return xs[k], 100.0 * k / max(n - 1, 1), n - 1 - k


def provenance(seed: int) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    sha = "unknown"
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def spawn(args, out: Path, k: int, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    # one client thread; the BLAS pools get one thread too (nproc is the ceiling)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    result = out / f"w{k}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(ROOT / "src"),
           "--workdir", str(out / f"w{k}"), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def unit_of(metric: str) -> str:
    if metric.endswith("ms_per_op"):
        return "ms"
    if metric.endswith("bytes_per_op"):
        return "B"
    if metric.endswith("ns_per_step"):
        return "ns"
    if metric.endswith("_share"):
        return "1"
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pulseforge" / "cli.py").is_file():
        print(f"error: no pulseforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    n_workers = 1 if args.trace else SETUPS
    try:
        workers = [spawn(args, out, k, k < n_workers - 1, deadline) for k in range(n_workers)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    main_worker = workers[-1]

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    prov = provenance(args.seed)
    prov.update(main_worker["versions"], inputs_sha256=main_worker["input_digest"])
    print(f"pulseforge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"ops: attempted={attempted} failed={failed} fail_frac={failed / attempted!r} (1)")
    for w in workers:
        for reason in w["reasons"]:
            print(f"failure: {reason}")

    extra: dict = {}
    if args.trace:
        traced = main_worker["traced_latencies"]
        untraced_rate = main_worker["passed"] / sum(main_worker["latencies"])
        traced_rate = main_worker["traced_passed"] / sum(traced)
        metrics = {"cli.import_ms": (main_worker["import_ms"], "ms")}
        metrics.update({name: (value, unit_of(name)) for name, value in main_worker["layers"].items()})
        metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "1")
        extra["largest_self_time"] = main_worker["largest_self_time"]
        extra["absent"] = main_worker["absent"]
        extra["expectations"] = WORKLOADS[args.workload].expectations(
            main_worker["layers"], main_worker["largest_self_time"])
        print(f"traced ops: {len(traced)}; absent layers: {', '.join(extra['absent']) or 'none'}")
    else:
        lat_ms = [1e3 * x for x in main_worker["latencies"]]
        tail_ms, tail_pct, beyond = tail(lat_ms)
        setups = [w["setup_s"] for w in workers]
        metrics = {
            "ops_per_s": (main_worker["passed"] / sum(main_worker["latencies"]), "op/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (main_worker["peak_rss_mb"], "MB"),
        }
        extra.update(ops_timed=len(lat_ms), tail_percentile=tail_pct, tail_beyond=beyond, setups_s=setups,
                     fail_frac=failed / attempted)

    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{extra['tail_percentile']:.1f}: {extra['tail_beyond']} of {extra['ops_timed']} samples beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(extra['setups_s'])} set-ups)"
        print(f"{name} = {value!r} {unit}{note}")
    if args.trace:
        top = ", ".join(f"{name} {ms / len(traced):.3f} ms/op" for name, ms in extra["largest_self_time"][:4])
        print(f"largest self time: {top}")
        for claim, met in extra["expectations"]:
            print(f"expect {claim}: {'met' if met else 'NOT MET'}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_file = out / "result.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "provenance": prov,
        **result, **extra,
    }, indent=1))
    print(f"result -> {result_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
