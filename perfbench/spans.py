"""Traced run: spans around each layer's public functions, from outside ``src/``.

``Tracer.installed`` replaces each function in TARGETS with a wrapper in every
``pulseforge`` module that binds it (so ``cli`` and ``propagate`` calls to
names they import from sibling modules are seen too), and the method
``ControlSchedule.controls_at`` on its class.  A wrapper records a span
(name, start, end, parent, op id, work) only while an op is running, so the
benchmark's own checks are never traced.  A target the package no longer
defines is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import time


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _points(args, kwargs, result):
    return getattr(args[1] if len(args) > 1 else kwargs["t"], "size", 1)


def _matrices(args, kwargs, result):
    return result.size // 16


def _steps(args, kwargs, result):
    return len(result.times) - 1


# span name -> (module, attribute, what "work" counts on each call)
TARGETS = {
    "cli.main": ("pulseforge.cli", "main", None),
    "io.load_plan": ("pulseforge.io", "load_plan", None),
    "io.write_schedule": ("pulseforge.io", "write_schedule", _path_bytes),
    "io.read_schedule": ("pulseforge.io", "read_schedule", _path_bytes),
    "io.write_trajectory_csv": ("pulseforge.io", "write_trajectory_csv", _path_bytes),
    "io.write_trajectory_json": ("pulseforge.io", "write_trajectory_json", _path_bytes),
    "io.write_json": ("pulseforge.io", "write_json", None),
    "synth.synthesize_gate": ("pulseforge.synth", "synthesize_gate", None),
    "synth.controls_at": ("pulseforge.synth", "ControlSchedule.controls_at", _points),
    "dqd.propagator_matrix": ("pulseforge.dqd", "propagator_matrix", _matrices),
    "propagate.integrate": ("pulseforge.propagate", "integrate", _steps),
    "propagate.compare_analytic": ("pulseforge.propagate", "compare_analytic", None),
    "propagate.fidelity_trace": ("pulseforge.propagate", "fidelity_trace", None),
}

NAME, START, END, PARENT, OP, WORK, REPEAT = range(7)


def _integrate_key(args, kwargs):
    """(schedule, grid) identity of an integrate call."""
    schedule = args[0]
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    h = hashlib.sha256()
    for a in (schedule.times, schedule.tau, schedule.alpha):
        h.update(a.tobytes())
    return h.hexdigest(), None if grid is None else (grid.t_end, grid.n_steps)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self._integrated: set = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._integrated.clear()

    def end_op(self) -> None:
        self.op = None

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1, tracer.op, 0, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                tracer.stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            if name == "propagate.integrate":
                key = _integrate_key(args, kwargs)
                span[REPEAT] = key in tracer._integrated
                tracer._integrated.add(key)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put the originals back."""
        pulseforge = [m for n, m in list(sys.modules.items()) if n == "pulseforge" or n.startswith("pulseforge.")]
        self.absent = []
        installed = []
        for name, (module, attr, work) in TARGETS.items():
            owner = sys.modules.get(module)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, work)
            bindings = [(owner, fn_name)] if cls_name else [
                (mod, key) for mod in pulseforge for key, value in vars(mod).items() if value is fn]
            for target, key in bindings:
                setattr(target, key, wrapper)
                installed.append((target, key, fn))
        try:
            yield self
        finally:
            for target, key, fn in reversed(installed):
                setattr(target, key, fn)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover (ns)."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op totals of each layer, from the spans of ``n_ops`` traced ops."""
        own = self.self_times()
        ms, calls, work, repeats = {}, {}, {}, {}
        for s, t in zip(self.spans, own):
            ms[s[NAME]] = ms.get(s[NAME], 0) + t / 1e6
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            work[s[NAME]] = work.get(s[NAME], 0) + s[WORK]
            repeats[s[NAME]] = repeats.get(s[NAME], 0) + s[REPEAT]

        def per_op(table, name):
            return table.get(name, 0) / n_ops

        integrate = "propagate.integrate"
        return {
            "cli.main.self_ms_per_op": per_op(ms, "cli.main"),
            "io.load_plan.ms_per_op": per_op(ms, "io.load_plan"),
            "io.write_schedule.ms_per_op": per_op(ms, "io.write_schedule"),
            "io.write_schedule.bytes_per_op": per_op(work, "io.write_schedule"),
            "io.read_schedule.ms_per_op": per_op(ms, "io.read_schedule"),
            "io.read_schedule.bytes_per_op": per_op(work, "io.read_schedule"),
            "io.write_trajectory_csv.ms_per_op": per_op(ms, "io.write_trajectory_csv"),
            "io.write_trajectory_json.ms_per_op": per_op(ms, "io.write_trajectory_json"),
            "io.trajectory.bytes_per_op": per_op(work, "io.write_trajectory_csv")
            + per_op(work, "io.write_trajectory_json"),
            "io.write_json.ms_per_op": per_op(ms, "io.write_json"),
            "synth.synthesize_gate.ms_per_op": per_op(ms, "synth.synthesize_gate"),
            "synth.synthesize_gate.calls_per_op": per_op(calls, "synth.synthesize_gate"),
            "synth.controls_at.ms_per_op": per_op(ms, "synth.controls_at"),
            "synth.controls_at.points_per_op": per_op(work, "synth.controls_at"),
            "dqd.propagator_matrix.ms_per_op": per_op(ms, "dqd.propagator_matrix"),
            "dqd.propagator_matrix.matrices_per_op": per_op(work, "dqd.propagator_matrix"),
            "propagate.integrate.ms_per_op": per_op(ms, integrate),
            "propagate.integrate.steps_per_op": per_op(work, integrate),
            "propagate.integrate.ns_per_step": 1e6 * ms.get(integrate, 0) / max(work.get(integrate, 0), 1),
            "propagate.integrate.repeat_share": repeats.get(integrate, 0) / max(calls.get(integrate, 0), 1),
            "propagate.compare_analytic.self_ms_per_op": per_op(ms, "propagate.compare_analytic"),
            "propagate.fidelity_trace.ms_per_op": per_op(ms, "propagate.fidelity_trace"),
        }

    def largest_self_time(self) -> list[tuple[str, float]]:
        """Layers by total self time, largest first (ms)."""
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + t / 1e6
        return sorted(totals.items(), key=lambda kv: -kv[1])

    def write(self, path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op", "work", "repeat"]
        with open(path, "w") as f:
            json.dump({"fields": fields, "absent": self.absent, "spans": self.spans}, f)
