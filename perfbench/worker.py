"""One benchmark worker: a fresh process that runs one workload in process.

It imports ``pulseforge.cli`` (numpy and scipy included, as a CLI user pays),
generates the workload's inputs from the seed, runs one warm-up op, and then,
unless it is a set-up-only worker, runs ops back to back (a closed loop with
one client) until their summed latency reaches the time budget, in whole
blocks.  Each op calls ``pulseforge.cli.main(argv)`` with stdout and stderr
captured; its correctness check runs outside the timed region.  The worker
writes its raw results as JSON to ``--result``; ``run.py`` turns them into
metrics.

With ``--trace 1`` the budget is split between untraced blocks and traced
blocks, with spans around each layer (see ``spans.py``), in turn; the two
halves give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REASONS = 5


def run_main(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one ``pulseforge`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["pulseforge.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Ops:
    """Runs and checks ops, counting every attempt and failure."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, i: int) -> tuple[float, bool]:
        """Latency (s) of op i and whether it passed its check."""
        w = self.workload
        w.clear(i)
        outputs = []
        code, reason = 0, None
        if self.tracer is not None:
            self.tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            for argv in w.op(i):
                code, out = run_main(argv)
                outputs.append(out)
                if code != 0:
                    break
        except Exception:
            # a crash inside the program is a failed op, never a dropped one
            code, reason = -1, traceback.format_exc(limit=-3)
        latency = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.end_op()
        if code == 0:
            try:
                reason = w.check(i, outputs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"check could not read the outputs: {exc!r}"
        elif code != -1:
            reason = f"exit code {code}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"op {i}: {reason}")
        return latency, reason is None

    def block(self, start: int) -> tuple[list[float], int]:
        """Latencies (s) and number passed of the block of ops from index ``start``."""
        results = [self.run(i) for i in range(start, start + self.workload.block)]
        return [latency for latency, _ in results], sum(ok for _, ok in results)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent spawned us")
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    t0 = time.perf_counter()
    import pulseforge.cli  # noqa: F401

    import_ms = 1e3 * (time.perf_counter() - t0)
    src = Path(args.src).resolve()
    if src not in Path(sys.modules["pulseforge"].__file__).resolve().parents:
        print(f"pulseforge was imported from outside {src}", file=sys.stderr)
        return 1
    import numpy
    import scipy

    workload = WORKLOADS[args.workload](Path(args.workdir), args.seed)
    workload.setup(run_main)
    tracer = Tracer() if args.trace else None
    ops = Ops(workload, tracer)
    ops.run(workload.warmup_op())
    setup_s = time.monotonic() - args.spawned

    result = {
        "setup_s": setup_s,
        "import_ms": import_ms,
        "input_digest": workload.digest.hexdigest(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if not args.setup_only:
        # With tracing, untraced and traced blocks alternate, so that a slow
        # spell of the machine falls on both halves alike.  The client moves
        # to the next CPU it may use after each round: each CPU's speed drifts
        # on its own (a busy neighbour on the host), and a run that stayed on
        # one CPU would measure that CPU's spell rather than the program.
        budget = args.seconds / 2 if args.trace else args.seconds
        latencies, passed = {False: [], True: []}, {False: 0, True: 0}
        cpus = sorted(os.sched_getaffinity(0))
        i = rounds = 0
        while sum(latencies[False]) < budget:
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            rounds += 1
            for traced in (False, True) if tracer else (False,):
                with tracer.installed() if traced else contextlib.nullcontext():
                    lat, ok = ops.block(i)
                latencies[traced] += lat
                passed[traced] += ok
                i += workload.block
        result.update(latencies=latencies[False], passed=passed[False])
        if tracer:
            result.update(
                traced_latencies=latencies[True],
                traced_passed=passed[True],
                layers=tracer.layer_metrics(len(latencies[True])),
                largest_self_time=tracer.largest_self_time(),
                absent=tracer.absent,
            )
    result.update(
        attempted=ops.attempted,
        failed=ops.failed,
        reasons=ops.reasons,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer and not args.setup_only:
        tracer.write(Path(args.result).with_name("spans.json"))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
