"""Seeded inputs, operations and per-op correctness checks of the three workloads.

Every workload hands the program only files and argv: plan JSON files and
schedule files generated here from the seed, and the argument lists of
``pulseforge`` commands.  Inputs come in *blocks* with a fixed composition
(gate kinds, step counts, sample counts, formats), so that the cost of a
block, and of any run made of whole blocks, does not depend on the seed; the
seed only orders a block and draws the continuous values.

The generator uses its own closed forms (``_target_qubit``, ``_transport_a``)
and the checks their own parsers rather than the package's, so a defect in
the package cannot shape its own inputs.  The one package function a check
calls is ``dqd.propagator_matrix``, the closed form, which the RK4 path it
checks never touches.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
# keep chi off the poles and amplitudes off zero, where the phase is undefined
CHI_MARGIN = 0.15

TRAJECTORY_HEADER = (
    "t,tau,re_alpha,im_alpha,p1,p2,p3,p4,"
    "re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4,fidelity"
)
VERIFY_GAP = re.compile(r"max \|numeric - analytic\| over \d+ probe states: (\S+)")
VERIFY_TOL = 1e-7
SIMULATE_TOL = 1e-7
CHAIN_FIDELITY_FLOOR = 1.0 - 1e-6


def fmt_complex(z: complex) -> str:
    """``re+imj`` at repr precision, which the CLI parses back exactly."""
    re_s, im_s = repr(float(z.real)), repr(float(z.imag))
    return f"{re_s}{im_s if im_s.startswith('-') else '+' + im_s}j"


def unit_state(rng: random.Random) -> list[complex]:
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / norm for c in v]


def _target_qubit(b2: complex, b3: complex) -> tuple[float, float]:
    """(chi, mu) of the right-dot qubit (b2, b3); the next stage's input."""
    return math.atan2(abs(b3), abs(b2)), math.atan2((b3 / b2).imag, (b3 / b2).real) % TWO_PI


def _transport_a(chi: float, mu: float, theta: float) -> float:
    """|b2| after a transport at mixing angle theta (gamma_final = pi/2)."""
    a2 = 0.5 * (1.0 + math.cos(2 * chi) * math.cos(2 * theta)
                + math.cos(mu) * math.sin(2 * chi) * math.sin(2 * theta))
    return math.sqrt(max(0.0, a2))


def _prepare_stage(rng: random.Random, ansatz: dict) -> tuple[dict, float, float]:
    c = rng.uniform(CHI_MARGIN, HALF_PI - CHI_MARGIN)
    b2 = math.cos(c) * complex(math.cos(p := rng.uniform(0, TWO_PI)), math.sin(p))
    b3 = math.sin(c) * complex(math.cos(p := rng.uniform(0, TWO_PI)), math.sin(p))
    stage = {"gate": "prepare", "target": {"b2": fmt_complex(b2), "b3": fmt_complex(b3)}, "ansatz": ansatz}
    return stage, *_target_qubit(b2, b3)


def _gate_stage(rng: random.Random, gate: str, chi: float, mu: float, ansatz: dict,
                declare: bool) -> tuple[dict, float, float]:
    """A phase/not/transport stage from qubit (chi, mu) and the qubit it leaves."""
    stage = {"gate": gate, "ansatz": ansatz}
    if declare:
        stage["chi"], stage["mu"] = chi, mu
    if gate == "phase":
        shift = rng.uniform(0, TWO_PI)
        stage["phase_shift"] = shift
        lam = (mu + shift) % TWO_PI
        b2, b3 = math.cos(chi), math.sin(chi) * complex(math.cos(lam), math.sin(lam))
    elif gate == "not":
        b2, b3 = math.sin(chi), math.cos(chi) * complex(math.cos(-mu), math.sin(-mu))
    else:
        # A from the forward map of a drawn theta is feasible by construction
        while True:
            a = _transport_a(chi, mu, rng.uniform(-HALF_PI, HALF_PI))
            if math.cos(HALF_PI - CHI_MARGIN) <= a <= math.cos(CHI_MARGIN):
                break
        b = math.sqrt(1.0 - a * a)
        lam = rng.uniform(0, TWO_PI)
        stage.update({"A": a, "B": b, "lambda": lam})
        b2, b3 = a, b * complex(math.cos(lam), math.sin(lam))
    return stage, *_target_qubit(complex(b2), b3)


def _sampled_ansatz(rng: random.Random, n_samples: int) -> dict:
    """Clamped-spline drive angle: the cosine ramp plus a seeded bump."""
    s = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    eps = rng.uniform(-0.04, 0.04)
    g = [HALF_PI * (0.5 * (1 - math.cos(math.pi * x)) + eps * math.sin(2 * math.pi * x)) for x in s]
    g[0], g[-1] = 0.0, HALF_PI
    return {"family": "sampled", "n_samples": n_samples, "profile": {"s": s, "gamma": g}}


def _plan(rng: random.Random, stages: list[dict]) -> dict:
    return {"system": {"delta_rad_per_s": math.pi * 1e9 * rng.uniform(0.8, 1.25)}, "stages": stages}


def single_stage_plan(rng: random.Random, gate: str) -> dict:
    """One-stage plan of the given gate kind, cosine ramp, 2000 samples."""
    ansatz = {"family": "cosine", "n_samples": 2000}
    if gate == "prepare":
        stage, _, _ = _prepare_stage(rng, ansatz)
    else:
        chi = rng.uniform(CHI_MARGIN, HALF_PI - CHI_MARGIN)
        stage, _, _ = _gate_stage(rng, gate, chi, rng.uniform(0, TWO_PI), ansatz, declare=True)
    return _plan(rng, [stage])


# per chain plan: (n_samples, family) of its 8 stages, in seeded order
CHAIN_STAGE_MIX = [(2000, "cosine")] * 3 + [(2000, "sampled")] + [(8000, "cosine")] * 2 + [(8000, "sampled")] * 2
CHAIN_GATE_MIX = ["phase", "phase", "not", "not", "transport", "transport", "transport"]


def chain_plan(rng: random.Random) -> dict:
    """A prepare stage then 7 phase/not/transport stages; 3 of 8 sampled."""
    mix = CHAIN_STAGE_MIX[:]
    rng.shuffle(mix)
    gates = CHAIN_GATE_MIX[:]
    rng.shuffle(gates)
    ansatze = [_sampled_ansatz(rng, n) if fam == "sampled" else {"family": "cosine", "n_samples": n}
               for n, fam in mix]
    stage, chi, mu = _prepare_stage(rng, ansatze[0])
    stages = [stage]
    for gate, ansatz in zip(gates, ansatze[1:]):
        stage, chi, mu = _gate_stage(rng, gate, chi, mu, ansatz, declare=False)
        stages.append(stage)
    return _plan(rng, stages)


def read_schedule_header(path: Path) -> dict[str, str]:
    header = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key.strip()] = value.strip()
    return header


class Workload:
    """Inputs, operations and checks of one workload.

    ``block`` is the number of ops with a fixed composition; runs measure
    whole blocks.  ``op(i)`` returns the argv lists of op ``i`` (run back to
    back, stopping at the first non-zero exit), and ``check(i, outputs)``
    returns None or the reason the op failed.
    """

    name = ""
    block = 1
    pool_blocks = 4

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = root / "inputs"
        self.outputs = root / "ops"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.digest = hashlib.sha256()

    def write_input(self, name: str, payload: dict) -> Path:
        text = json.dumps(payload, indent=1)
        self.digest.update(name.encode() + b"\0" + text.encode())
        path = self.inputs / name
        path.write_text(text)
        return path

    def record_argv(self, argvs: list[list[str]]) -> None:
        # paths relative to the workload directory, so the digest names the inputs only
        self.digest.update(json.dumps(argvs).replace(str(self.root), "").encode())

    @property
    def pool(self) -> int:
        return self.block * self.pool_blocks

    def setup(self, main) -> None:
        raise NotImplementedError

    def warmup_op(self) -> int:
        """Index of the op run once in set-up, before timing."""
        return 0

    @staticmethod
    def expectations(layers: dict, largest: list) -> list[tuple[str, bool]]:
        """Claims about the traced run that this workload was built to show.

        A claim the code does not bear out is reported as not met; the
        workload is not reshaped to meet it."""
        return []

    def clear(self, i: int) -> None:
        """Remove the outputs op i will check, so a stale file cannot pass."""
        for path in self.outputs.iterdir():
            path.unlink()


class VerifySweep(Workload):
    """prepare|gate on a one-stage plan, then verify at the defaults."""

    name = "verify_sweep"
    block = 4
    GATES = ["prepare", "phase", "not", "transport"]

    def setup(self, main) -> None:
        self.argvs = []
        for b in range(self.pool_blocks):
            gates = self.GATES[:]
            self.rng.shuffle(gates)
            for k, gate in enumerate(gates):
                plan = self.write_input(f"plan{b * self.block + k:02d}.json", single_stage_plan(self.rng, gate))
                command = "prepare" if gate == "prepare" else "gate"
                schedule = self.outputs / f"stage01_{gate}.csv"
                self.argvs.append([
                    [command, "--plan", str(plan), "--out", str(self.outputs)],
                    ["verify", "--schedule", str(schedule)],
                ])
        self.record_argv(self.argvs)

    def op(self, i: int) -> list[list[str]]:
        return self.argvs[i % self.pool]

    @staticmethod
    def expectations(layers: dict, largest: list) -> list[tuple[str, bool]]:
        return [
            ("propagate.integrate has the largest self time",
             bool(largest) and largest[0][0] == "propagate.integrate"),
            ("propagate.integrate.repeat_share = 0.75", layers["propagate.integrate.repeat_share"] == 0.75),
        ]

    def check(self, i: int, outputs: list[str]) -> str | None:
        m = VERIFY_GAP.search(outputs[-1])
        if m is None:
            return "verify printed no max gap"
        gap = float(m.group(1))
        if not gap <= VERIFY_TOL:
            return f"verify gap {gap!r} > {VERIFY_TOL}"
        return None


class SimulateExport(Workload):
    """simulate a schedule made in set-up, at mixed step counts and formats."""

    name = "simulate_export"
    block = 12
    STEPS = (1000, 4000, 16000)

    def setup(self, main) -> None:
        # a transport gate has a generic theta, so no control column is all
        # zeros (a phase gate's alpha is), and the exported rows are full length
        plan = self.write_input("schedule_plan.json", single_stage_plan(self.rng, "transport"))
        schedule_dir = self.root / "schedule"
        argv = ["gate", "--plan", str(plan), "--out", str(schedule_dir)]
        code, _ = main(argv)
        if code != 0:
            raise RuntimeError(f"set-up synthesis {argv} exited {code}")
        self.schedule = schedule_dir / "stage01_transport.csv"
        self.digest.update(self.schedule.read_bytes())
        h = read_schedule_header(self.schedule)
        # the closed-form U(T) the final states are checked against
        from pulseforge.dqd import propagator_matrix

        u = propagator_matrix(float(h["gamma_final"]), float(h["theta"]), float(h["delta"]), float(h["T"]))
        self.u = [[complex(x) for x in row] for row in u]

        self.ops = []  # (steps, fmt, psi0, argv)
        for _ in range(self.pool_blocks):
            # per block: each step count 3 times as csv and once as json;
            # every 4th op is json, so the json ops cover each step count once
            json_steps = list(self.STEPS)
            csv_steps = list(self.STEPS) * 3
            self.rng.shuffle(json_steps)
            self.rng.shuffle(csv_steps)
            for k in range(self.block):
                fmt = "json" if k % 4 == 3 else "csv"
                steps = (json_steps if fmt == "json" else csv_steps).pop()
                self.ops.append(self._op(steps, fmt))
        self.warmup = self._op(4000, "csv")
        self.record_argv([o[3] for o in self.ops] + [self.warmup[3]])

    def _op(self, steps: int, fmt: str):
        psi0 = unit_state(self.rng)
        target = unit_state(self.rng)
        argv = ["simulate", "--schedule", str(self.schedule), "--out", str(self.outputs),
                "--steps", str(steps),
                # '=' form: a state may start with '-', which argparse would take for an option
                "--psi0=" + ",".join(fmt_complex(c) for c in psi0),
                "--target=" + ",".join(fmt_complex(c) for c in target)]
        if fmt == "json":
            argv += ["--format", "json"]
        return steps, fmt, psi0, argv

    def warmup_op(self) -> int:
        return -1

    def _get(self, i: int):
        return self.warmup if i < 0 else self.ops[i % self.pool]

    def op(self, i: int) -> list[list[str]]:
        return [self._get(i)[3]]

    @staticmethod
    def expectations(layers: dict, largest: list) -> list[tuple[str, bool]]:
        writers = ("io.write_trajectory_csv", "io.write_trajectory_json")
        writing = sum(ms for name, ms in largest if name in writers)
        others = max((ms for name, ms in largest if name not in writers), default=0.0)
        return [("the trajectory writers have the largest self time", writing > others)]

    def check(self, i: int, outputs: list[str]) -> str | None:
        steps, fmt, psi0, _ = self._get(i)
        if fmt == "csv":
            lines = (self.outputs / "trajectory.csv").read_text().splitlines()
            if lines[0] != TRAJECTORY_HEADER:
                return f"trajectory header {lines[0]!r}"
            if len(lines) - 1 != steps + 1:
                return f"trajectory has {len(lines) - 1} rows, want {steps + 1}"
            cells = [float(x) for x in lines[-1].split(",")[8:16]]
            final = [complex(cells[2 * k], cells[2 * k + 1]) for k in range(4)]
        else:
            doc = json.loads((self.outputs / "trajectory.json").read_text())
            keys = {"t", "tau", "re_alpha", "im_alpha", "populations", "states_re", "states_im", "fidelity"}
            if set(doc) != keys:
                return f"trajectory json keys {sorted(doc)}"
            if not all(len(doc[k]) == steps + 1 for k in keys):
                return f"trajectory json rows differ from {steps + 1}"
            final = [complex(r, m) for r, m in zip(doc["states_re"][-1], doc["states_im"][-1])]
        expected = [sum(row[c] * psi0[c] for c in range(4)) for row in self.u]
        gap = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(final, expected)))
        if not gap <= SIMULATE_TOL:
            return f"final state misses closed form by {gap!r}"
        return None


class ChainDeep(Workload):
    """chain on 8-stage plans: 1 prepare, 7 phase/not/transport, 3 sampled."""

    name = "chain_deep"
    block = 1

    def setup(self, main) -> None:
        self.plans = []
        self.argvs = []
        for i in range(self.pool):
            plan = chain_plan(self.rng)
            path = self.write_input(f"chain{i:02d}.json", plan)
            self.plans.append(plan)
            self.argvs.append([["chain", "--plan", str(path), "--out", str(self.outputs)]])
        self.record_argv(self.argvs)

    def op(self, i: int) -> list[list[str]]:
        return self.argvs[i % self.pool]

    def check(self, i: int, outputs: list[str]) -> str | None:
        plan = self.plans[i % self.pool]
        names = [f"stage{k + 1:02d}_{stage['gate']}.csv" for k, stage in enumerate(plan["stages"])]
        missing = [name for name in names if not (self.outputs / name).is_file()]
        if missing:
            return f"missing schedule files {missing}"
        report = json.loads((self.outputs / "chain_report.json").read_text())
        dev, tol = report["composed_vs_chained_deviation"], report["deviation_tolerance"]
        if not dev <= tol:
            return f"deviation {dev!r} > tolerance {tol!r}"
        fid = report["ode_fidelity_vs_declared_target"]
        if not fid >= CHAIN_FIDELITY_FLOOR:
            return f"ODE fidelity {fid!r} < {CHAIN_FIDELITY_FLOOR}"
        return None


WORKLOADS = {w.name: w for w in (VerifySweep, SimulateExport, ChainDeep)}
