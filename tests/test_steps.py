"""The RK4 step count that verify, chain and simulate derive from the pulse
when ``--steps`` is omitted (``propagate.steps_for``), and the step budget
that bounds it and ``--steps``."""

import contextlib
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseforge import propagate, transport_amplitudes
from pulseforge.cli import main
from pulseforge.io import read_schedule
from pulseforge.propagate import DEFAULT_N_STEPS, STEP_BUDGET, steps_for
from pulseforge.synth import AnsatzSpec
from conftest import REF_DELTA

TOL = 1e-7
STEPS_LINE = re.compile(r"integration steps: (\d+) \((.*)\)")
GAP_LINE = re.compile(r"max \|numeric - analytic\| over 4 probe states: (\S+)")
# a not gate at REF_DELTA, 2 ns a Zeeman period, which gate accepted at 20-100 ns
# while verify rejected 40-100 ns at the fixed 4000 steps
NOT_STAGE = {"gate": "not", "chi": 0.3, "mu": 0.2}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _plan(directory, stages, delta=REF_DELTA):
    path = Path(directory) / "plan.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"system": {"delta_rad_per_s": delta}, "stages": stages}))
    return str(path)


def _gate(directory, stage, delta=REF_DELTA):
    """Exit code of prepare|gate on a one-stage plan, and the schedule path it writes."""
    command = "prepare" if stage["gate"] == "prepare" else "gate"
    code, _, _ = _run([command, "--plan", _plan(directory, [stage], delta), "--out", str(directory)])
    return code, Path(directory) / f"stage01_{stage['gate']}.csv"


# ------------------------------------------------------- the contract property

_POLAR = st.one_of(st.floats(0.0, 0.5 * math.pi), st.sampled_from([0.0, 1e-12, 0.5 * math.pi - 1e-12, 0.5 * math.pi]))
_PHASE = st.one_of(st.floats(0.0, 2.0 * math.pi), st.sampled_from([0.0, 1e-12, 2.0 * math.pi - 1e-12]))
_S = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


@st.composite
def _stages(draw):
    gate = draw(st.sampled_from(["prepare", "phase", "not", "transport"]))
    chi, mu = draw(_POLAR), draw(_PHASE)
    if gate == "prepare":
        stage = {"gate": gate, "target": {"b2": math.cos(chi), "b3": {"abs": math.sin(chi), "phase": mu}}}
    else:
        stage = {"gate": gate, "chi": chi, "mu": mu}
    if gate == "phase":
        stage["phase_shift"] = draw(_PHASE)
    elif gate == "transport":
        b = transport_amplitudes(chi, mu, draw(st.floats(-0.5 * math.pi, 0.5 * math.pi)), 0.5 * math.pi, 0.0)
        stage.update({"A": abs(b[1]), "B": abs(b[2]), "lambda": draw(_PHASE)})
    ansatz = {"n_samples": draw(st.integers(2, 3000))}
    if draw(st.booleans()):
        bump = draw(st.floats(-0.04, 0.04))
        gamma = [0.5 * math.pi * (0.5 * (1.0 - math.cos(math.pi * s)) + bump * math.sin(2.0 * math.pi * s))
                 for s in _S]
        ansatz.update({"family": "sampled", "profile": {"s": _S, "gamma": [0.0, *gamma[1:-1], 0.5 * math.pi]}})
    return stage, ansatz


@settings(deadline=None, max_examples=60)
@given(
    stage=_stages(),
    delta=st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-300, 299)),
    periods=st.one_of(st.none(), st.floats(0.01, 30.0)),
)
def test_what_gate_accepts_verify_accepts_at_its_defaults(stage, delta, periods):
    stage, ansatz = stage
    if periods is not None:
        ansatz["T"] = periods * 2.0 * math.pi / delta
    with tempfile.TemporaryDirectory() as d:
        code, path = _gate(d, {**stage, "ansatz": ansatz}, delta)
        if code != 0:
            return
        code, out, err = _run(["verify", "--schedule", str(path)])
        assert code == 0, out + err
        steps, source = STEPS_LINE.search(out).groups()
        assert source == "derived for tol 1.000e-07"
        assert int(steps) <= STEP_BUDGET
        if read_schedule(path)._samples_match_angles:
            assert float(GAP_LINE.search(out).group(1)) <= TOL / 5


# ------------------------------------------------- long not gates and chains


@pytest.mark.parametrize("t_ns", [20, 40, 60, 80, 100])
def test_not_gates_of_20_to_100_ns_verify_at_the_defaults(tmp_path, t_ns):
    code, path = _gate(tmp_path, {**NOT_STAGE, "ansatz": {"T": t_ns * 1e-9}})
    assert code == 0
    code, out, err = _run(["verify", "--schedule", str(path)])
    assert (code, err) == (0, "")
    assert float(GAP_LINE.search(out).group(1)) <= TOL / 5
    # 20 ns is 10 Zeeman periods, past what the old fixed 4000 steps resolved to 1e-8
    assert int(STEPS_LINE.search(out).group(1)) > DEFAULT_N_STEPS


def test_a_chain_with_a_100_ns_not_stage_passes_and_reports_its_steps(tmp_path):
    stages = [{"gate": "prepare", "target": {"b2": 0.6, "b3": 0.8}},
              {"gate": "not", "ansatz": {"T": 1e-7}}]
    code, out, err = _run(["chain", "--plan", _plan(tmp_path, stages), "--out", str(tmp_path)])
    assert (code, err) == (0, ""), out
    report = json.loads((tmp_path / "chain_report.json").read_text())
    steps = [stage["steps"] for stage in report["stages"]]
    # one Zeeman period, then fifty
    assert steps[0] < DEFAULT_N_STEPS < steps[1] <= STEP_BUDGET


def test_steps_given_to_a_chain_hold_for_every_stage(tmp_path):
    stages = [{"gate": "prepare", "target": {"b2": 0.6, "b3": 0.8}}, {"gate": "not"}]
    assert _run(["chain", "--plan", _plan(tmp_path, stages), "--out", str(tmp_path), "--steps", "3000"])[0] == 0
    report = json.loads((tmp_path / "chain_report.json").read_text())
    assert [stage["steps"] for stage in report["stages"]] == [3000, 3000]


# ------------------------------------------------------ where the count comes from


def _prepare_schedule(tmp_path):
    code, path = _gate(tmp_path, {"gate": "prepare", "target": {"b2": 0.6, "b3": 0.8}})
    assert code == 0
    return path


def test_verify_names_its_step_count_and_where_it_came_from(tmp_path):
    path = _prepare_schedule(tmp_path)
    derived = steps_for(read_schedule(path), TOL)
    assert 2 <= derived < DEFAULT_N_STEPS
    out = _run(["verify", "--schedule", str(path)])[1]
    assert f"integration steps: {derived} (derived for tol 1.000e-07)\n" in out
    out = _run(["verify", "--schedule", str(path), "--steps", "700"])[1]
    assert "integration steps: 700 (--steps)\n" in out


def test_a_looser_tolerance_takes_fewer_steps(tmp_path):
    schedule = read_schedule(_gate(tmp_path, {**NOT_STAGE, "ansatz": {"T": 2e-8}})[1])
    counts = [steps_for(schedule, tol) for tol in (1e-9, 1e-7, 1e-5)]
    assert counts == sorted(counts, reverse=True) and counts[0] > counts[-1]
    # the phase bound falls as tol^(1/4): a hundredfold tolerance, about a third of the steps
    assert counts[1] / counts[2] == pytest.approx(100 ** 0.25, rel=0.02)


def test_an_interpolated_schedule_still_takes_the_4000_floor(tmp_path):
    path = _prepare_schedule(tmp_path)
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if not line.startswith(("#", "t,"))) + 10
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    lines[row] = ",".join(cells)
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join(lines) + "\n")
    schedule = read_schedule(edited)
    assert not schedule._samples_match_angles
    assert steps_for(read_schedule(path), TOL) < steps_for(schedule, TOL) == DEFAULT_N_STEPS
    out = _run(["verify", "--schedule", str(edited)])[1]
    assert f"integration steps: {DEFAULT_N_STEPS} (derived for tol 1.000e-07)\n" in out


def test_simulate_takes_at_least_4000_steps_and_more_for_a_long_pulse(tmp_path):
    short = _prepare_schedule(tmp_path)
    assert _run(["simulate", "--schedule", str(short), "--out", str(tmp_path / "a")])[0] == 0
    assert len((tmp_path / "a" / "trajectory.csv").read_text().splitlines()) == 1 + DEFAULT_N_STEPS + 1
    # the 100 ns not gate drifted 4.8e-6 at 4000 steps
    long = _gate(tmp_path / "b", {**NOT_STAGE, "ansatz": {"T": 1e-7}})[1]
    code, out, err = _run(["simulate", "--schedule", str(long), "--out", str(tmp_path / "b")])
    assert (code, err) == (0, "")
    n = steps_for(read_schedule(long))
    assert DEFAULT_N_STEPS < n < steps_for(read_schedule(long), TOL)
    assert len((tmp_path / "b" / "trajectory.csv").read_text().splitlines()) == 1 + n + 1
    assert float(re.search(r"max norm drift: (\S+)", out).group(1)) <= propagate.NORM_DRIFT_LIMIT / 5


# ------------------------------------------------------------- the step budget


@pytest.mark.parametrize("steps", [STEP_BUDGET + 1, 2 ** 62])
@pytest.mark.parametrize("command", ["verify", "simulate", "chain"])
def test_steps_past_the_budget_is_a_usage_error(tmp_path, capsys, command, steps):
    argv = {"chain": ["chain", "--plan", "plan.json"]}.get(command, [command, "--schedule", "s.csv"])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path), "--steps", str(steps)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pulseforge")
    assert f"argument --steps: must be an integer >= 2 and <= {STEP_BUDGET}, got '{steps}'" in err


def test_the_budget_itself_is_accepted(tmp_path):
    path = _prepare_schedule(tmp_path)
    assert _run(["verify", "--schedule", str(path), "--steps", str(STEP_BUDGET)])[0] == 0


def test_a_derived_count_past_the_budget_exits_2_naming_it(tmp_path):
    # 5000 Zeeman periods: about 2.6e7 steps for 1e-7
    path = _gate(tmp_path, {**NOT_STAGE, "ansatz": {"T": 1e-5, "n_samples": 50}})[1]
    for argv in (["verify", "--schedule", str(path)], ["simulate", "--schedule", str(path), "--out", str(tmp_path)]):
        code, out, err = _run(argv)
        assert (code, out) == (2, "")
        needed = float(re.fullmatch(r"error: RK4 needs about (\S+) steps for .* --steps .*\n", err).group(1))
        assert needed > STEP_BUDGET
    stages = [{**NOT_STAGE, "ansatz": {"T": 1e-5, "n_samples": 50}}]
    code, out, err = _run(["chain", "--plan", _plan(tmp_path, stages), "--out", str(tmp_path)])
    assert code == 2 and err.startswith("error: stage 1 (not): RK4 needs about ")
    # a tolerance too tight for any count within the budget
    code, _, err = _run(["verify", "--schedule", str(_prepare_schedule(tmp_path)), "--tol", "1e-300"])
    assert code == 2 and "past the budget" in err


def test_a_non_finite_omega_exits_2(tmp_path):
    # |delta| plus the drive overflows to inf
    path = tmp_path / "huge.csv"
    path.write_text("# delta=1.5e+308\nt,tau,re_alpha,im_alpha\n0.0,1e+308,0.0,0.0\n1e-09,1e+308,0.0,0.0\n")
    for argv in (["verify", "--schedule", str(path)], ["simulate", "--schedule", str(path), "--out", str(tmp_path)]):
        code, out, err = _run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: RK4 needs about inf steps for T * omega = inf rad") and "--steps" in err


def test_a_zero_tolerance_bounds_the_norm_loss_alone(tmp_path):
    schedule = read_schedule(_prepare_schedule(tmp_path))
    assert steps_for(schedule, 0.0) == steps_for(schedule) < steps_for(schedule, TOL)


def test_a_sampled_ramp_takes_the_knot_term(tmp_path, monkeypatch):
    # the spline's third derivative jumps at its knots, which the smooth-pulse
    # estimate misses: this profile (tests/test_cli.py's SAMPLED_ANSATZ)
    # missed 1e-7 at 105 to 140 steps
    profile = {"s": [0.0, 0.01, 0.02, 0.5, 1.0], "gamma": [0.0, 0.001, 0.004, 0.8, 0.5 * math.pi]}
    path = _gate(tmp_path, {**NOT_STAGE, "ansatz": {"family": "sampled", "profile": profile}})[1]
    schedule = read_schedule(path)
    assert schedule._samples_match_angles
    derived = steps_for(schedule, TOL)
    assert derived == math.ceil((schedule._ramp.knot_jump / (324.0 * (TOL / 10.0))) ** (1.0 / 3.0))
    with monkeypatch.context() as m:
        m.setattr(AnsatzSpec, "knot_jump", 0.0)
        assert steps_for(read_schedule(path), TOL) < derived < DEFAULT_N_STEPS
    code, out, err = _run(["verify", "--schedule", str(path)])
    assert (code, err) == (0, "")
    assert f"integration steps: {derived} (derived for tol 1.000e-07)\n" in out
    assert float(GAP_LINE.search(out).group(1)) <= TOL / 5


def test_a_two_sample_sampled_schedule_verifies(tmp_path):
    # build_schedule pins both end samples to 0, where the spline's slope
    # rounds to about -3.5e-17; with no other sample that rounding was the
    # whole column's scale, a relative gap of 1
    profile = {"s": _S, "gamma": [0.5 * math.pi * s * s * (3.0 - 2.0 * s) for s in _S]}
    stage = {"gate": "prepare", "target": {"b2": 1.0, "b3": 0.0},
             "ansatz": {"n_samples": 2, "family": "sampled", "profile": profile}}
    code, path = _gate(tmp_path, stage, delta=1.0)
    assert code == 0
    assert read_schedule(path).sample_gap == 0.0
    code, out, err = _run(["verify", "--schedule", str(path)])
    assert (code, err) == (0, ""), out


# ------------------------------------------------- the spline's knot term


@st.composite
def _uneven_profiles(draw):
    """A sampled ramp on 2 to 6 inner knots whose smallest gap reaches 0.005:
    the cosine ramp plus a bump and a per-knot wobble."""
    k = draw(st.integers(2, 6))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1))
    total = sum(weights) or 1.0
    s = [0.0]
    for w in weights[:-1]:
        s.append(s[-1] + 0.005 + (1.0 - 0.005 * (k + 1)) * w / total)
    s.append(1.0)
    bump = draw(st.floats(-0.04, 0.04))
    wobble = draw(st.lists(st.floats(-0.01, 0.01), min_size=k + 2, max_size=k + 2))
    gamma = [0.5 * math.pi * (0.5 * (1.0 - math.cos(math.pi * x)) + bump * math.sin(2.0 * math.pi * x) + w)
             for x, w in zip(s, wobble)]
    return {"s": s, "gamma": [0.0, *gamma[1:-1], 0.5 * math.pi]}


@settings(deadline=None, max_examples=100)
@given(
    stage=_stages(),
    profile=_uneven_profiles(),
    delta=st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-300, 299)),
    periods=st.one_of(st.none(), st.floats(0.01, 30.0)),
)
def test_what_gate_accepts_on_uneven_knots_verify_accepts_at_its_defaults(stage, profile, delta, periods):
    stage, ansatz = stage
    ansatz.update({"family": "sampled", "profile": profile})
    if periods is not None:
        ansatz["T"] = periods * 2.0 * math.pi / delta
    with tempfile.TemporaryDirectory() as d:
        code, path = _gate(d, {**stage, "ansatz": ansatz}, delta)
        if code != 0:
            return
        code, out, err = _run(["verify", "--schedule", str(path)])
        assert code == 0, out + err
        assert read_schedule(path)._samples_match_angles
        assert float(GAP_LINE.search(out).group(1)) <= TOL / 5


def test_knot_jump_is_the_jump_of_scipys_third_derivative():
    interpolate = pytest.importorskip("scipy.interpolate")
    s = [0.0, 0.01, 0.3, 0.31, 0.7, 1.0]
    gamma = [0.0, 0.002, 0.5, 0.55, 1.2, 0.5 * math.pi]
    third = interpolate.CubicSpline(s, gamma, bc_type=((1, 0.0), (1, 0.0))).derivative(3)
    # constant on each interval: read it at the midpoints
    g3 = third([0.5 * (a + b) for a, b in zip(s, s[1:])])
    expected = float(sum(abs(b - a) for a, b in zip(g3, g3[1:])))
    ramp = AnsatzSpec(family="sampled", profile=(s, gamma))
    assert ramp.knot_jump == pytest.approx(expected, rel=1e-9)
    assert AnsatzSpec().knot_jump == 0.0


def test_a_knot_term_past_the_budget_exits_2_before_anything_is_allocated(tmp_path, monkeypatch):
    # a 2e-4 rad zigzag over knots 1e-5 apart: a modest drive, but third
    # derivatives near 1e11 that take about 9e5 steps at 1e-7
    profile = {"s": [0.0, 0.5, 0.50001, 0.50002, 1.0], "gamma": [0.0, 0.785, 0.7852, 0.785, 0.5 * math.pi]}
    stage = {**NOT_STAGE, "ansatz": {"family": "sampled", "profile": profile}}
    code, path = _gate(tmp_path, stage)
    assert code == 0
    with monkeypatch.context() as m:
        m.setattr(AnsatzSpec, "knot_jump", 0.0)
        assert steps_for(read_schedule(path), TOL) < DEFAULT_N_STEPS
    runs = [["verify", "--schedule", str(path)],
            ["chain", "--plan", _plan(tmp_path / "c", [stage]), "--out", str(tmp_path / "c")]]
    for argv in runs:
        tracemalloc.start()
        try:
            code, out, err = _run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert re.search(r"RK4 needs about (\S+) steps for T \* omega = \S+ rad and spline knot jumps \S+ "
                         r"at tol 1\.000e-07, past the budget of 250000; pass --steps", err), err
        needed = float(re.search(r"about (\S+) steps", err).group(1))
        assert needed > STEP_BUDGET
        # verify at the budget peaks near 200 MB; the refusal comes before it
        assert peak < 16e6
