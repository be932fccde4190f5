"""Command-line interface: synthesize, simulate, verify, and chain schedules.

Commands
--------
prepare   synthesize a preparation stage from a plan
gate      synthesize a phase/not/transport stage from a plan
simulate  integrate a schedule file and export the trajectory
verify    cross-check a schedule file against the closed-form propagator
chain     run a multi-stage plan across a dot chain

Exit codes: 0 success, 2 invalid input, 3 infeasible target, 4 failed check;
each error class carries its own code, and :mod:`pulseforge.errors` states
the contract.

Bloch convention: each stage's qubit basis is ordered (spin-down, spin-up),
i.e. (|1>, |4>) on the left dot and (|2>, |3>) on the right dot, with
z = +1 for spin-down.  No core path uses randomness.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dqd import SystemParams, analytic_propagator, basis_state, check_normalized, left_qubit_state
from .errors import InfeasibleTargetError, PlanError, PulseforgeError, UnsupportedComparisonError
from .io import (
    PlanDocument,
    StagePlan,
    load_plan,
    parse_complex,
    read_schedule,
    write_json,
    write_schedule,
    write_trajectory_csv,
    write_trajectory_json,
)
from .propagate import (
    DEFAULT_N_STEPS,
    STEP_BUDGET,
    TimeGrid,
    Trajectory,
    _integrate_columns,
    fidelity_trace,
    integrate,
    steps_for,
    verify,
)
from .synth import (
    ControlSchedule,
    GateSpec,
    NotGateSpec,
    PhaseGateSpec,
    PrepareSpec,
    TransportSpec,
    synthesize_gate,
)

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_VERIFY = 4
DEFAULT_TOL = 1e-7
# the word main prints before an error's message, by the error's exit code
_LABELS = {2: "error", 3: "infeasible", 4: "verification failure"}


def bloch_vector(a_down: complex, a_up: complex) -> tuple[float, float, float]:
    """Bloch coordinates of a qubit amplitude pair, z = +1 for spin-down."""
    cross = np.conj(a_down) * a_up
    return (
        float(2.0 * cross.real),
        float(2.0 * cross.imag),
        float(abs(a_down) ** 2 - abs(a_up) ** 2),
    )


def materialize(stage: StagePlan, chi: float | None, mu: float | None) -> GateSpec:
    """Turn a parsed plan stage into a concrete gate spec on the qubit (chi, mu).

    A prepare stage starts from |1> and reads neither.
    """
    if stage.gate == "prepare":
        b1, b2, b3, b4 = stage.target
        if abs(b4) > 1e-12:
            raise InfeasibleTargetError(
                "target puts weight on |4>: direct |1> -> |4> transfer is "
                "structurally forbidden (the propagator's 4,1 entry is identically zero)"
            )
        if abs(b1) > 1e-12:
            raise InfeasibleTargetError(
                "target keeps weight on |1>; preparation drives gamma to an odd "
                "multiple of pi/2 where the |1> amplitude vanishes"
            )
        return PrepareSpec(b2=b2, b3=b3)
    if chi is None or mu is None:
        raise PlanError(f"{stage.gate} stage needs chi and mu")
    if stage.gate == "phase":
        return PhaseGateSpec(chi=chi, mu=mu, phase_shift=stage.phase_shift)
    if stage.gate == "not":
        return NotGateSpec(chi=chi, mu=mu)
    return TransportSpec(chi=chi, mu=mu, a=stage.amp_a, b=stage.amp_b, lam=stage.lam)


def _parse_state(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"state needs 4 comma-separated amplitudes, got {len(parts)}")
    return check_normalized(np.array([parse_complex(p) for p in parts]))


def _qubit_from_target(target: np.ndarray) -> tuple[float, float]:
    """(chi, mu) of the right-dot qubit a stage's declared target encodes."""
    a_down, a_up = target[1], target[2]
    chi = math.atan2(abs(a_up), abs(a_down))
    if abs(a_down) < 1e-12 or abs(a_up) < 1e-12:
        return chi, 0.0
    return chi, float(np.angle(a_up / a_down)) % TWO_PI


def _format_amplitudes(state: np.ndarray) -> str:
    return "  ".join(f"c{k + 1}={amp.real:+.9f}{amp.imag:+.9f}j" for k, amp in enumerate(state))


def _schedule_filename(index: int, gate: str) -> str:
    return f"stage{index:02d}_{gate}.csv"


def _out_dir(args, plan: PlanDocument | None = None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if plan is not None and plan.out_dir is not None:
        return Path(plan.out_dir)
    return Path(".")


@dataclass
class StageOutcome:
    """What the chain composer records about one executed stage."""

    index: int
    spec: GateSpec
    schedule: ControlSchedule
    chi_in: float
    mu_in: float
    t_start: float
    steps: int

    @property
    def gate(self) -> str:
        return self.spec.gate

    @property
    def dots(self) -> tuple[int, int]:
        return self.index, self.index + 1

    @property
    def t_end(self) -> float:
        return self.t_start + self.schedule.T

    @property
    def input_amplitudes(self) -> tuple[complex, complex]:
        return tuple(complex(a) for a in left_qubit_state(self.chi_in, self.mu_in)[[0, 3]])

    @property
    def output_amplitudes(self) -> tuple[complex, complex]:
        target = self.spec.target_state()
        return complex(target[1]), complex(target[2])

    @property
    def input_bloch(self) -> tuple[float, float, float]:
        return bloch_vector(*self.input_amplitudes)

    @property
    def output_bloch(self) -> tuple[float, float, float]:
        return bloch_vector(*self.output_amplitudes)


@dataclass
class ChainResult:
    outcomes: list[StageOutcome]
    analytic_final: np.ndarray
    ode_final: np.ndarray

    @property
    def deviation(self) -> float:
        return float(np.linalg.norm(self.analytic_final - self.ode_final))

    def declared_final(self) -> np.ndarray:
        return self.outcomes[-1].spec.target_state()

    def ode_fidelity(self) -> float:
        return float(abs(np.vdot(self.declared_final(), self.ode_final)) ** 2)

    def analytic_fidelity(self) -> float:
        return float(abs(np.vdot(self.declared_final(), self.analytic_final)) ** 2)


def _run_stage(
    stage: StagePlan, spec: GateSpec, params: SystemParams, psi: np.ndarray
) -> tuple[ControlSchedule, np.ndarray]:
    """A stage's schedule, on the stage's branch, and the closed-form U(T) psi."""
    schedule = synthesize_gate(spec, params, stage.ansatz, stage.branch)
    return schedule, analytic_propagator(schedule.angles(), schedule.T, params) @ psi


def _input_qubit(stage: StagePlan, prev: StageOutcome | None) -> tuple[float, float]:
    """(chi, mu) of a chain stage's input qubit: |1> for a prepare stage, valid
    only first; declared by another first stage; else the one ``prev`` left,
    which a declared chi or mu must match."""
    if stage.gate == "prepare":
        if prev is not None:
            raise PlanError("prepare is only valid as the first chain stage")
        return 0.0, 0.0
    if prev is None:
        if stage.chi is None or stage.mu is None:
            raise PlanError("first chain stage must be a prepare or declare chi and mu")
        return stage.chi, stage.mu
    inherited = _qubit_from_target(prev.spec.target_state())
    for name, declared, derived in zip(("chi", "mu"), (stage.chi, stage.mu), inherited):
        if declared is not None and abs(declared - derived) > 1e-9:
            raise PlanError(
                f"declared {name}={declared!r} disagrees with the "
                f"qubit inherited from stage {prev.index} ({derived!r})"
            )
    return inherited


def compose_chain(plan: PlanDocument, n_steps: int | None = None, tol: float = DEFAULT_TOL) -> ChainResult:
    """Run every stage of a plan sequentially along the dot chain.

    A stage's output qubit on (|2>, |3>) becomes the next stage's input on
    (|1>, |4>): the right dot of one pair is the left dot of the next.
    Complex amplitudes (including the running global phase) are carried
    exactly; the declared targets drive the per-stage gate specs.

    The closed-form and RK4 states are the columns of one (4, 2) stack; the
    RK4 column is never renormalized, so its drift accumulates against the
    per-step limit.  Each stage takes ``n_steps`` RK4 steps, or, when it is
    None, the count ``steps_for`` derives from the stage's pulse and ``tol``.
    A stage's error gains a ``stage N (gate): `` prefix.
    """
    if not plan.stages:
        raise PlanError("stages must be a non-empty list")
    outcomes: list[StageOutcome] = []
    for index, stage in enumerate(plan.stages, 1):
        prev = outcomes[-1] if outcomes else None
        try:
            chi_in, mu_in = _input_qubit(stage, prev)
            # the right dot of the previous pair is the left dot of this one
            psi = (np.array([psi[1], (0.0, 0.0), (0.0, 0.0), psi[2]], dtype=complex) if prev
                   else np.stack([left_qubit_state(chi_in, mu_in)] * 2, axis=1))
            spec = materialize(stage, chi_in, mu_in)
            schedule, analytic = _run_stage(stage, spec, plan.system, psi[:, 0])
            steps = n_steps if n_steps is not None else steps_for(schedule, tol)
            grid = TimeGrid(schedule.T, steps)
            # one expression, so that no name keeps the stage's states alive into the next
            psi = np.column_stack([analytic, _integrate_columns(schedule, psi[:, 1:], grid)[-1]])
        except (PulseforgeError, ValueError) as exc:
            exc.args = (f"stage {index} ({stage.gate}): {exc}",)
            raise
        outcomes.append(StageOutcome(index, spec, schedule, chi_in, mu_in, prev.t_end if prev else 0.0, steps))
    return ChainResult(outcomes=outcomes, analytic_final=psi[:, 0], ode_final=psi[:, 1])


def _stage_report_dict(outcome: StageOutcome, filename: str) -> dict:
    meta = outcome.schedule.meta
    return {
        "index": outcome.index,
        "dots": list(outcome.dots),
        "gate": outcome.gate,
        "theta": meta.theta,
        "branch": meta.branch,
        "T": outcome.schedule.T,
        "t_start": outcome.t_start,
        "t_end": outcome.t_end,
        "input": {
            "chi": outcome.chi_in,
            "mu": outcome.mu_in,
            "amplitudes": [[a.real, a.imag] for a in outcome.input_amplitudes],
            "bloch": list(outcome.input_bloch),
        },
        "output": {
            "amplitudes": [[a.real, a.imag] for a in outcome.output_amplitudes],
            "bloch": list(outcome.output_bloch),
        },
        "schedule_file": filename,
        "steps": outcome.steps,
    }


def _run_single_stage(args, want_prepare: bool) -> int:
    plan = load_plan(args.plan)
    if not 0 <= args.stage < len(plan.stages):
        raise PlanError(f"stage index {args.stage} out of range: plan has {len(plan.stages)} stage(s)")
    stage = plan.stages[args.stage]
    is_prepare = stage.gate == "prepare"
    if is_prepare != want_prepare:
        cmd, other = ("prepare", "gate") if is_prepare else ("gate", "prepare")
        raise PlanError(f"stage {args.stage} is a {stage.gate} stage; use the '{cmd}' command, not '{other}'")

    spec = materialize(stage, stage.chi, stage.mu)
    schedule, predicted = _run_stage(stage, spec, plan.system, spec.start_state())

    out_dir = _out_dir(args, plan)
    filename = _schedule_filename(args.stage + 1, stage.gate)
    write_schedule(out_dir / filename, schedule)

    print(f"stage {args.stage + 1}: gate={stage.gate}")
    print(f"theta = {schedule.meta.theta!r} rad (branch {schedule.meta.branch})")
    print(f"T = {schedule.T!r} s")
    print(f"predicted final state: {_format_amplitudes(predicted)}")
    print(f"schedule -> {out_dir / filename}")
    if args.format == "json":
        report = {
            "stage": args.stage + 1,
            "gate": stage.gate,
            "theta": schedule.meta.theta,
            "branch": schedule.meta.branch,
            "T": schedule.T,
            "predicted_final": [[c.real, c.imag] for c in predicted],
            "schedule_file": filename,
        }
        write_json(out_dir / f"stage{args.stage + 1:02d}_report.json", report)
    return EXIT_OK


def cmd_prepare(args) -> int:
    return _run_single_stage(args, want_prepare=True)


def cmd_gate(args) -> int:
    return _run_single_stage(args, want_prepare=False)


def cmd_simulate(args) -> int:
    schedule = read_schedule(args.schedule)
    psi0 = _parse_state(args.psi0)
    target = _parse_state(args.target) if args.target is not None else None

    if schedule.T == 0.0:
        # degenerate zero-length schedule: a single sample, no evolution
        traj = Trajectory(times=np.array([0.0]), states=psi0.reshape(1, 4))
        tau = np.array([schedule.tau[0]])
        alpha = np.array([schedule.alpha[0]])
    else:
        # at least DEFAULT_N_STEPS, so a short pulse keeps its trajectory rows
        steps = args.steps if args.steps is not None else max(DEFAULT_N_STEPS, steps_for(schedule))
        traj = integrate(schedule, psi0, TimeGrid(schedule.T, steps))
        tau, alpha = schedule.controls_at(traj.times)
    trace = fidelity_trace(traj, target if target is not None else psi0)

    out_dir = _out_dir(args)
    name = "trajectory.json" if args.format == "json" else "trajectory.csv"
    writer = write_trajectory_json if args.format == "json" else write_trajectory_csv
    writer(out_dir / name, traj, np.asarray(tau), np.asarray(alpha, dtype=complex), trace)

    pops = traj.populations[-1]
    print(f"final populations: {pops[0]:.9f} {pops[1]:.9f} {pops[2]:.9f} {pops[3]:.9f}")
    against = "target" if target is not None else "initial state"
    print(f"final fidelity vs {against}: {trace.fidelity[-1]:.12f}")
    print(f"max norm drift: {float(np.max(np.abs(traj.norms - 1.0))):.3e}")
    print(f"trajectory -> {out_dir / name}")
    return EXIT_OK


def cmd_verify(args) -> int:
    schedule = read_schedule(args.schedule)
    if schedule.T == 0.0:
        raise UnsupportedComparisonError(f"{args.schedule}: one sample spans T = 0 s, nothing to verify")
    if args.steps is not None:
        steps, source = args.steps, "--steps"
    else:
        steps, source = steps_for(schedule, args.tol), f"derived for tol {args.tol:.3e}"

    probes = np.stack([
        basis_state(1),
        basis_state(4),
        left_qubit_state(0.25 * math.pi, 0.0),
        left_qubit_state(0.25 * math.pi, 0.5 * math.pi),
    ], axis=1)
    max_error, operator_gap, unitarity = verify(schedule, probes, TimeGrid(schedule.T, steps))

    # PASS is decided on the probes; the operator gap is reported only
    ok = max_error <= args.tol
    print(f"integration steps: {steps} ({source})")
    print(f"max |numeric - analytic| over {probes.shape[1]} probe states: {max_error:.3e}")
    print(f"max ||U_numeric - U_analytic||_2 over the grid: {operator_gap:.3e}")
    print(f"max unitarity residual of the closed form: {unitarity:.3e}")
    if not schedule._samples_match_angles or schedule.sample_gap > args.tol:
        # an edit too small to move the integrated states is still an edit
        print(f"max relative gap of the samples to their drive-angle controls: {schedule.sample_gap:.3e}")
        ok = ok and schedule.sample_gap <= args.tol
    print(f"tolerance: {args.tol:.3e} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_chain(args) -> int:
    plan = load_plan(args.plan)
    result = compose_chain(plan, n_steps=args.steps, tol=args.tol)
    out_dir = _out_dir(args, plan)

    stage_dicts = []
    for outcome in result.outcomes:
        filename = _schedule_filename(outcome.index, outcome.gate)
        write_schedule(out_dir / filename, outcome.schedule)
        stage_dicts.append(_stage_report_dict(outcome, filename))

    tol_total = args.tol * len(result.outcomes)
    deviation = result.deviation
    ok = deviation <= tol_total

    report = {
        "stages": stage_dicts,
        "total_time": result.outcomes[-1].t_end,
        "composed_vs_chained_deviation": deviation,
        "deviation_tolerance": tol_total,
        "analytic_fidelity_vs_declared_target": result.analytic_fidelity(),
        "ode_fidelity_vs_declared_target": result.ode_fidelity(),
        "final_state_ode": [[c.real, c.imag] for c in result.ode_final],
        "final_state_analytic": [[c.real, c.imag] for c in result.analytic_final],
    }
    write_json(out_dir / "chain_report.json", report)

    for outcome in result.outcomes:
        bx, by, bz = outcome.output_bloch
        print(
            f"stage {outcome.index} ({outcome.gate}, dots {outcome.dots[0]}-{outcome.dots[1]}): "
            f"theta={outcome.schedule.meta.theta:+.6f} T={outcome.schedule.T:.6e} s "
            f"t_end={outcome.t_end:.6e} s bloch_out=({bx:+.6f},{by:+.6f},{bz:+.6f})"
        )
    print(f"chained ODE fidelity vs declared target: {result.ode_fidelity():.12f}")
    print(f"composed analytic vs chained ODE deviation: {deviation:.3e} "
          f"(tolerance {tol_total:.3e}) -> {'PASS' if ok else 'FAIL'}")
    print(f"report -> {out_dir / 'chain_report.json'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number >= 0; inf or nan would let any gap pass or none."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _steps(text: str) -> int:
    """A ``--steps`` value: an integer from 2, the fewest steps a time grid
    has, to STEP_BUDGET, the most one integration takes."""
    try:
        steps = int(text)
    except ValueError:
        steps = 0
    if not 2 <= steps <= STEP_BUDGET:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2 and <= {STEP_BUDGET}, got {text!r}")
    return steps


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pulseforge`` parser, built on the first call and shared after it.

    Parsing keeps nothing between calls: each one fills a new namespace.
    """
    parser = argparse.ArgumentParser(
        prog="pulseforge",
        description="Synthesize and verify tunneling/spin-orbit pulse schedules "
        "for a four-level double-dot spin qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help, plan=False, schedule=False, steps=False, tol=False, fmt=False):
        if plan:
            p.add_argument("--plan", required=True, help="JSON plan document")
        if schedule:
            p.add_argument("--schedule", required=True, help="schedule file")
        p.add_argument("--out", default=None, help=out_help)
        if steps:
            derived = "--tol" if tol else f"the norm-drift limit, at least {DEFAULT_N_STEPS}"
            p.add_argument(
                "--steps", type=_steps, default=None,
                help=f"integration steps, at most {STEP_BUDGET} (default: derived from the pulse and {derived})",
            )
        if tol:
            p.add_argument(
                "--tol", type=_tolerance, default=DEFAULT_TOL, help="verification tolerance (default 1e-7)"
            )
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="export format")

    plan_out = "output directory (default: plan io.out_dir or '.')"
    p = sub.add_parser("prepare", help="synthesize a preparation stage")
    add_common(p, plan_out, plan=True, fmt=True)
    p.add_argument("--stage", type=int, default=0, help="stage index in the plan (default 0)")

    p = sub.add_parser("gate", help="synthesize a phase/not/transport stage")
    add_common(p, plan_out, plan=True, fmt=True)
    p.add_argument("--stage", type=int, default=0, help="stage index in the plan (default 0)")

    p = sub.add_parser("simulate", help="integrate a schedule and export the trajectory")
    add_common(p, "output directory (default: '.')", schedule=True, steps=True, fmt=True)
    p.add_argument("--psi0", default="1,0,0,0", help="initial state, 4 comma-separated amplitudes")
    p.add_argument("--target", default=None, help="optional target state for the fidelity column")

    p = sub.add_parser("verify", help="cross-check a schedule against the closed form")
    add_common(p, "accepted and unused: verify writes no file", schedule=True, steps=True, tol=True)

    p = sub.add_parser("chain", help="run a multi-stage plan across a dot chain")
    add_common(p, plan_out, plan=True, steps=True, tol=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each call, so a replaced cmd_* function is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (PulseforgeError, ValueError) as exc:
        code = getattr(exc, "exit_code", PulseforgeError.exit_code)
        print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
