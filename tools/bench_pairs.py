"""Alternating parent/change pairs of the benchmark, summarized per metric.

Usage::

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W [--pairs 10] [--first-seed 1]

``PARENT_ROOT`` and ``CHANGE_ROOT`` are two checkouts, each with its
``BENCHMARK.json``; the two files must be byte-identical.  Pair k runs the
benchmark's command (``perfbench/run.py``) with ``--workload W --seed
FIRST_SEED+k --seconds <run_seconds> --trace 0`` in each root, one process at
a time, the parent first when k is even and the change first when k is odd.
A run that exits non-zero, whose last line is not a result object, or that
reports ``"correct": false`` stops the tool with its side and seed.

For each end-to-end metric of ``BENCHMARK.json`` the tool prints every pair,
then each side's median and quartiles, the pairs the change won under the
metric's ``better`` (ties count for neither), whether a gain may be claimed
(at least 9 wins in 10 and a median gap, in the better direction, larger
than the parent's interquartile range) and whether the change's median is
within the metric's bound of the parent's.  It writes nothing besides what
``run.py`` writes under each root's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SIDES = ("parent", "change")


class RunFailed(Exception):
    """A benchmark run that gave no usable result."""


@dataclass
class Summary:
    """One metric over all pairs: each side's quartiles and the verdicts."""

    parent: tuple[float, float, float]  # (q1, median, q3)
    change: tuple[float, float, float]
    wins: int
    pairs: int
    claim: bool
    bound: str  # "within", "beyond" or "unresolved"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(better: str, bound: float, parent: list[float], change: list[float]) -> Summary:
    """Verdicts on one metric from its pairs (``parent[k]`` with ``change[k]``).

    The claim rule: the change wins at least nine tenths of the pairs and
    its median beats the parent's by more than the parent's interquartile
    range.  The bound is ``within`` when the change's median is worse than
    the parent's by at most ``bound`` of it and ``beyond`` when worse by
    more; it is ``unresolved`` instead when the parent's interquartile range
    is wider than ``bound`` of its median, unless every change run beats
    every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    claim = 10 * wins >= 9 * len(parent) and gain > pq[2] - pq[0]
    scale = abs(pq[1])
    if pq[2] - pq[0] > bound * scale and not all(sign * (c - p) > 0 for c in change for p in parent):
        verdict = "unresolved"
    elif -gain <= bound * scale:
        verdict = "within"
    else:
        verdict = "beyond"
    return Summary(parent=pq, change=cq, wins=wins, pairs=len(parent), claim=claim, bound=verdict)


def parse_result(returncode: int, stdout: str, names: list[str]) -> dict[str, float]:
    """The values of metrics ``names`` in one run, from its exit status and its last stdout line."""
    if returncode != 0:
        raise RunFailed(f"exited {returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct, metrics = result["correct"], result["metrics"]
        values = {name: float(metrics[name]["value"]) for name in names}
    except (IndexError, ValueError, TypeError, KeyError) as exc:
        raise RunFailed(f"malformed last line: {lines[-1] if lines else ''!r}") from exc
    if correct is not True:
        failed, attempted = result.get("failed"), result.get("attempted")
        raise RunFailed(f"reported correct: {correct!r} ({failed} of {attempted} ops failed)")
    return values


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: int,
             names: list[str]) -> dict[str, float]:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0 and done.stderr:
        print(done.stderr, end="", file=sys.stderr)
    return parse_result(done.returncode, done.stdout, names)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_root", type=Path, help="checkout of the parent commit")
    p.add_argument("change_root", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    specs = {side: (root / "BENCHMARK.json").read_bytes() for side, root in roots.items()}
    if specs["parent"] != specs["change"]:
        print("error: BENCHMARK.json differs between the two roots", file=sys.stderr)
        return 2
    spec = json.loads(specs["parent"])
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"--workload must be one of {', '.join(w['name'] for w in spec['workloads'])}")
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    names = [m["name"] for m in metrics]
    print(f"{args.workload}: {args.pairs} pairs of {seconds} s runs, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}")
    print("seed first  " + "  ".join(f"{n} (parent/change)" for n in names), flush=True)
    values: dict[str, dict[str, list[float]]] = {side: {n: [] for n in names} for side in SIDES}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            try:
                result = run_once(roots[side], spec["command"], args.workload, seed, seconds, names)
            except RunFailed as exc:
                print(f"error: {side} run, seed {seed}: {exc}", file=sys.stderr)
                return 1
            for n in names:
                values[side][n].append(result[n])
        cells = (f"{_fmt(values['parent'][n][-1])}/{_fmt(values['change'][n][-1])}" for n in names)
        print(f"{seed:>4} {order[0]:<6} " + "  ".join(cells), flush=True)

    for m in metrics:
        n = m["name"]
        s = summarize(m["better"], m["bound"], values["parent"][n], values["change"][n])
        (pq1, pmed, pq3), (cq1, cmed, cq3) = s.parent, s.change
        print(f"{n} ({m['unit']}, {m['better']} is better): "
              f"parent {_fmt(pmed)} [{_fmt(pq1)}, {_fmt(pq3)}]  change {_fmt(cmed)} [{_fmt(cq1)}, {_fmt(cq3)}]  "
              f"change wins {s.wins}/{s.pairs}  claim {'holds' if s.claim else 'not met'}  "
              f"bound {m['bound']}: {s.bound}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
