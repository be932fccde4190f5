import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulseforge
from pulseforge import NotGateSpec, cli, synthesize_gate
from pulseforge.cli import bloch_vector, compose_chain, main
from pulseforge import io as pfio
from pulseforge.errors import PlanError, PulseforgeError, ScheduleFormatError
from pulseforge.synth import SAMPLE_BUDGET, AnsatzSpec
from pulseforge.io import (
    load_plan,
    parse_angle,
    parse_complex,
    read_schedule,
    write_schedule,
    zeeman_splitting,
)
from conftest import REF_DELTA

SQRT3_HALF = math.sqrt(3.0) / 2.0


def write_plan(tmp_path, doc, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def prep_plan(tmp_path, out_dir):
    return write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {
                    "gate": "prepare",
                    "target": {"b2": 0.5, "b3": {"abs": SQRT3_HALF, "phase": "0.5pi"}},
                }
            ],
            "io": {"out_dir": str(out_dir)},
        },
    )


def not_plan(tmp_path, out_dir):
    return write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [{"gate": "not", "chi": "pi/3", "mu": "pi/4"}],
            "io": {"out_dir": str(out_dir)},
        },
        name="not_plan.json",
    )


def chain_plan(tmp_path, out_dir):
    return write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {
                    "gate": "prepare",
                    "target": {"b2": 0.5, "b3": {"abs": SQRT3_HALF, "phase": "0.5pi"}},
                },
                {"gate": "phase", "phase_shift": "pi/4"},
                {"gate": "not"},
            ],
            "io": {"out_dir": str(out_dir)},
        },
        name="chain_plan.json",
    )


# -------------------------------------------------------------- pure parsing


def test_parse_angle_literals():
    assert parse_angle(1.25) == 1.25
    assert parse_angle("90deg") == pytest.approx(math.pi / 2)
    assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("pi/3") == pytest.approx(math.pi / 3)
    assert parse_angle("3pi/2") == pytest.approx(1.5 * math.pi)
    assert parse_angle("-45deg") == pytest.approx(-math.pi / 4)
    for bad in ("threepi", "pi/", "1.2.3", None, True):
        with pytest.raises(PlanError):
            parse_angle(bad)


def test_parse_complex_literals():
    assert parse_complex(0.5) == 0.5 + 0j
    assert parse_complex("0.5+0.25j") == 0.5 + 0.25j
    assert parse_complex("1i") == 1j
    assert parse_complex([0.3, -0.4]) == 0.3 - 0.4j
    assert parse_complex({"re": 1.0, "im": 2.0}) == 1 + 2j
    val = parse_complex({"abs": 2.0, "phase": "0.5pi"})
    assert abs(val - 2j) < 1e-15
    for bad in ("zz", [1, 2, 3], {"nope": 1}, True):
        with pytest.raises(PlanError):
            parse_complex(bad)


def test_zeeman_splitting_from_field():
    # mu_B * |g B| / hbar with CODATA constants
    from scipy.constants import hbar, physical_constants

    mu_b = physical_constants["Bohr magneton"][0]
    expected = mu_b * 0.44 * 0.1 / hbar
    assert zeeman_splitting(100.0, -0.44) == pytest.approx(expected, rel=1e-12)


def test_bloch_vector_convention():
    assert bloch_vector(1.0, 0.0) == (0.0, 0.0, 1.0)  # spin-down is +z
    assert bloch_vector(0.0, 1.0) == (0.0, 0.0, -1.0)
    x, y, z = bloch_vector(1 / math.sqrt(2), 1j / math.sqrt(2))
    assert abs(x) < 1e-15
    assert abs(y - 1.0) < 1e-15
    assert abs(z) < 1e-15


# ------------------------------------------------------------- plan loading


def test_load_plan_b_field(tmp_path):
    path = write_plan(
        tmp_path,
        {
            "system": {"b_field_mT": 100.0, "g_factor": -0.44},
            "stages": [{"gate": "not", "chi": 0.5, "mu": 0.0}],
        },
    )
    plan = load_plan(path)
    assert plan.system.delta == pytest.approx(zeeman_splitting(100.0, -0.44))


def test_load_plan_rejects_ambiguous_system(tmp_path):
    path = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": 1e9, "b_field_mT": 100.0, "g_factor": -0.44},
            "stages": [{"gate": "not", "chi": 0.5, "mu": 0.0}],
        },
    )
    with pytest.raises(PlanError):
        load_plan(path)


def test_load_plan_rejects_empty_stages(tmp_path):
    path = write_plan(tmp_path, {"system": {"delta_rad_per_s": 1e9}, "stages": []})
    with pytest.raises(PlanError):
        load_plan(path)


# ----------------------------------------------------------------- commands


def test_prepare_command_reports_and_writes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["prepare", "--plan", prep_plan(tmp_path, out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "theta = -1.0471975511965976" in text
    assert "T = 1.5e-09" in text
    sched_file = out / "stage01_prepare.csv"
    assert sched_file.exists()
    sched = read_schedule(sched_file)
    assert sched.meta.gate == "prepare"
    assert sched.n_samples == 2000


def test_prepare_command_on_gate_stage_exits_2(tmp_path):
    rc = main(["prepare", "--plan", not_plan(tmp_path, tmp_path)])
    assert rc == 2


def test_gate_command_not_gate_report(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["gate", "--plan", not_plan(tmp_path, out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "theta = 0.6847192030022827" in text
    assert "T = 5e-10" in text
    assert (out / "stage01_not.csv").exists()


def test_forbidden_target_exits_3(tmp_path, capsys):
    path = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [{"gate": "prepare", "target": {"b2": 0.0, "b3": 0.0, "b4": 1.0}}],
        },
    )
    rc = main(["prepare", "--plan", path, "--out", str(tmp_path)])
    assert rc == 3
    assert "forbidden" in capsys.readouterr().err


def test_infeasible_amplitude_exits_3(tmp_path):
    path = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {"gate": "transport", "chi": "pi/4", "mu": "pi/2", "A": 1.0, "B": 0.0, "lambda": 0.0}
            ],
        },
    )
    assert main(["gate", "--plan", path, "--out", str(tmp_path)]) == 3


def test_malformed_plan_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["prepare", "--plan", str(bad), "--out", str(tmp_path)]) == 2


def test_simulate_reference_prep_trajectory(tmp_path, capsys):
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    capsys.readouterr()
    rc = main([
        "simulate", "--schedule", str(out / "stage01_prepare.csv"), "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:8] == ["t", "tau", "re_alpha", "im_alpha", "p1", "p2", "p3", "p4"]
    assert header[-1] == "fidelity"
    final = lines[-1].split(",")
    p = [float(x) for x in final[4:8]]
    assert abs(p[0]) < 1e-6 and abs(p[1] - 0.25) < 1e-6
    assert abs(p[2] - 0.75) < 1e-6 and p[3] < 1e-8
    # |1> population decays monotonically for this pulse
    p1_col = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(b - a <= 1e-12 for a, b in zip(p1_col, p1_col[1:]))


def test_simulate_deterministic_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    sched = out / "stage01_prepare.csv"
    main(["simulate", "--schedule", str(sched), "--out", str(out / "a")])
    main(["simulate", "--schedule", str(sched), "--out", str(out / "b")])
    assert (out / "a" / "trajectory.csv").read_bytes() == (out / "b" / "trajectory.csv").read_bytes()


def test_simulate_with_target_fidelity(tmp_path, capsys):
    out = tmp_path / "out"
    main(["gate", "--plan", not_plan(tmp_path, out)])
    capsys.readouterr()
    # target lives on (|2>, |3>): order amplitudes accordingly
    b2 = math.sin(math.pi / 3) * np.exp(1j * math.pi / 4)
    target = f"0,{b2.real}+{b2.imag}j,{math.cos(math.pi/3)},0"
    rc = main([
        "simulate", "--schedule", str(out / "stage01_not.csv"), "--out", str(out),
        "--psi0", f"{math.cos(math.pi/3)},0,0,{(np.exp(1j*math.pi/4)*math.sin(math.pi/3)).real}+{(np.exp(1j*math.pi/4)*math.sin(math.pi/3)).imag}j",
        "--target", target,
    ])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert float(lines[-1].split(",")[-1]) >= 1 - 1e-6


def test_simulate_json_format(tmp_path, capsys):
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    rc = main([
        "simulate", "--schedule", str(out / "stage01_prepare.csv"), "--out", str(out),
        "--format", "json", "--steps", "500",
    ])
    assert rc == 0
    data = json.loads((out / "trajectory.json").read_text())
    assert len(data["t"]) == 501
    assert abs(data["populations"][-1][2] - 0.75) < 1e-6


def test_simulate_zero_length_schedule(tmp_path, capsys):
    sched = tmp_path / "zero.csv"
    sched.write_text(
        "# delta=1000000000.0\n# T=0.0\nt,tau,re_alpha,im_alpha\n0.0,0.0,0.0,0.0\n"
    )
    rc = main(["simulate", "--schedule", str(sched), "--out", str(tmp_path), "--psi0", "0,1,0,0"])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the single sample
    row = lines[1].split(",")
    assert float(row[5]) == 1.0  # p2 of psi0


def test_simulate_malformed_schedule_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,tau\n0.0,0.0\n")
    assert main(["simulate", "--schedule", str(bad), "--out", str(tmp_path)]) == 2


def test_simulate_nan_tau_cell_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    lines = (out / "stage01_prepare.csv").read_text().splitlines()
    first_row = next(i for i, line in enumerate(lines) if not line.startswith(("#", "t,")))
    cells = lines[first_row + 10].split(",")
    cells[1] = "nan"
    lines[first_row + 10] = ",".join(cells)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--schedule", str(bad), "--out", str(tmp_path / "sim")]) == 4


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "column, value",
    [(1, "inf"), (2, "nan"), (3, "-inf"), (1, "nan")],
    ids=["inf-tau", "nan-re_alpha", "neg-inf-im_alpha", "nan-tau"],
)
def test_non_finite_sample_exits_4(tmp_path, capsys, command, column, value):
    # one corrupt cell must reach the integrator, never be replaced by the ansatz
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    lines = (out / "stage01_prepare.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if not line.startswith(("#", "t,"))) + 10
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main([command, "--schedule", str(bad), "--out", str(tmp_path / "sim")]) == 4
    assert "PASS" not in capsys.readouterr().out


def test_verify_pass_and_corruption(tmp_path, capsys):
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    sched = out / "stage01_prepare.csv"
    assert main(["verify", "--schedule", str(sched)]) == 0

    # hand-edit the tau column: scale every tau by 1.01
    lines = sched.read_text().splitlines()
    edited = []
    for line in lines:
        if line.startswith("#") or line.startswith("t,"):
            edited.append(line)
        else:
            cells = line.split(",")
            cells[1] = repr(float(cells[1]) * 1.01)
            edited.append(",".join(cells))
    bad = tmp_path / "corrupted.csv"
    bad.write_text("\n".join(edited) + "\n")
    assert main(["verify", "--schedule", str(bad)]) == 4
    # a vacuous tolerance accepts anything
    assert main(["verify", "--schedule", str(bad), "--tol", "1"]) == 0


def test_verify_without_metadata_exits_2(tmp_path):
    sched = tmp_path / "plain.csv"
    sched.write_text(
        "# delta=1000000000.0\nt,tau,re_alpha,im_alpha\n0.0,0.0,0.0,0.0\n1e-09,0.0,0.0,0.0\n"
    )
    assert main(["verify", "--schedule", str(sched)]) == 2


# -------------------------------------------------------------------- chain


def test_chain_reference_sequence(tmp_path, capsys):
    out = tmp_path / "chain"
    rc = main(["chain", "--plan", chain_plan(tmp_path, out)])
    assert rc == 0
    report = json.loads((out / "chain_report.json").read_text())
    stages = report["stages"]
    assert [s["gate"] for s in stages] == ["prepare", "phase", "not"]
    assert [tuple(s["dots"]) for s in stages] == [(1, 2), (2, 3), (3, 4)]
    for k in range(3):
        assert (out / stages[k]["schedule_file"]).exists()

    # stage timeline is cumulative
    assert stages[0]["t_start"] == 0.0
    for prev, cur in zip(stages, stages[1:]):
        assert cur["t_start"] == pytest.approx(prev["t_end"], rel=1e-12)

    # stage 2 adds exactly pi/4 of relative phase
    def rel_phase(amps):
        (d_re, d_im), (u_re, u_im) = amps
        return np.angle(complex(u_re, u_im) / complex(d_re, d_im))

    phi1 = rel_phase(stages[0]["output"]["amplitudes"])
    phi2 = rel_phase(stages[1]["output"]["amplitudes"])
    assert abs(math.remainder(phi2 - phi1 - math.pi / 4, 2 * math.pi)) < 1e-6

    # the NOT stage flips the Bloch z component
    assert stages[2]["output"]["bloch"][2] == pytest.approx(-stages[2]["input"]["bloch"][2], abs=1e-9)

    # pure states sit on the Bloch sphere
    for s in stages:
        for side in ("input", "output"):
            assert np.linalg.norm(s[side]["bloch"]) <= 1 + 1e-10

    assert report["composed_vs_chained_deviation"] < 3e-7
    assert report["ode_fidelity_vs_declared_target"] > 1 - 1e-6


def test_single_stage_chain_matches_gate_output(tmp_path, capsys):
    out_gate = tmp_path / "gate_out"
    out_chain = tmp_path / "chain_out"
    plan_gate = not_plan(tmp_path, out_gate)
    plan_chain = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [{"gate": "not", "chi": "pi/3", "mu": "pi/4"}],
            "io": {"out_dir": str(out_chain)},
        },
        name="chain1.json",
    )
    assert main(["gate", "--plan", plan_gate]) == 0
    assert main(["chain", "--plan", plan_chain]) == 0
    a = (out_gate / "stage01_not.csv").read_bytes()
    b = (out_chain / "stage01_not.csv").read_bytes()
    assert a == b


def test_double_not_restores_bloch_z(tmp_path):
    plan = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {"gate": "not", "chi": "pi/3", "mu": "pi/4"},
                {"gate": "not"},
            ],
        },
        name="double_not.json",
    )
    result = compose_chain(load_plan(plan))
    z_in = result.outcomes[0].input_bloch[2]
    z_out = result.outcomes[1].output_bloch[2]
    assert abs(z_out - z_in) < 1e-6
    # and the chained ODE state agrees
    final = result.ode_final
    z_ode = abs(final[1]) ** 2 - abs(final[2]) ** 2
    assert abs(z_ode - z_in) < 1e-6


def test_stage_level_branch_override(tmp_path, capsys):
    out = tmp_path / "out"
    plan = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {
                    "gate": "prepare",
                    "target": {"b2": 0.5, "b3": {"abs": SQRT3_HALF, "phase": "0.5pi"}},
                    "branch": 1,
                }
            ],
            "io": {"out_dir": str(out)},
        },
        name="branch_override.json",
    )
    rc = main(["prepare", "--plan", plan])
    assert rc == 0
    text = capsys.readouterr().out
    assert "theta = 1.0471975511965976" in text  # the positive branch
    assert "T = 5e-10" in text


def test_chain_rejects_prepare_after_first_stage(tmp_path):
    plan = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {"gate": "not", "chi": "pi/3", "mu": "pi/4"},
                {"gate": "prepare", "target": {"b2": 1.0, "b3": 0.0}},
            ],
        },
        name="late_prepare.json",
    )
    with pytest.raises(PlanError):
        compose_chain(load_plan(plan))


def test_simulate_rejects_unnormalized_psi0(tmp_path, capsys):
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    rc = main([
        "simulate", "--schedule", str(out / "stage01_prepare.csv"),
        "--out", str(out), "--psi0", "1,1,0,0",
    ])
    assert rc == 2


def test_chain_stage_mismatch_is_rejected(tmp_path):
    plan = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {"gate": "not", "chi": "pi/3", "mu": "pi/4"},
                {"gate": "not", "chi": "pi/5"},  # disagrees with inherited chi = pi/6
            ],
        },
        name="mismatch.json",
    )
    with pytest.raises(PlanError):
        compose_chain(load_plan(plan))


def test_chain_infeasible_stage_reports_index(tmp_path, capsys):
    plan = write_plan(
        tmp_path,
        {
            "system": {"delta_rad_per_s": REF_DELTA},
            "stages": [
                {"gate": "phase", "chi": "pi/4", "mu": "pi/2"},
                {"gate": "transport", "A": 1.0, "B": 0.0, "lambda": 0.0},
            ],
        },
        name="infeasible_chain.json",
    )
    rc = main(["chain", "--plan", plan, "--out", str(tmp_path)])
    assert rc == 3
    assert "stage 2" in capsys.readouterr().err


# ------------------------------------------------------------- file format


def test_schedule_round_trip_exact(tmp_path, ref_params):
    sched = synthesize_gate(NotGateSpec(chi=0.7, mu=1.3), ref_params)
    path = tmp_path / "s.csv"
    write_schedule(path, sched)
    back = read_schedule(path)
    assert np.array_equal(back.times, sched.times)
    assert np.array_equal(back.tau, sched.tau)
    assert np.array_equal(back.alpha, sched.alpha)
    assert back.meta.theta == sched.meta.theta
    assert back.meta.gamma_final == sched.meta.gamma_final
    assert back.params.delta == sched.params.delta
    assert back._samples_match_angles


@pytest.mark.parametrize("key, value", [("branch", "x"), ("n_samples", "abc")])
def test_bad_integer_header_names_file_and_key(tmp_path, ref_params, key, value):
    sched = synthesize_gate(NotGateSpec(chi=0.7, mu=1.3), ref_params)
    path = tmp_path / "s.csv"
    write_schedule(path, sched)
    lines = [f"# {key}={value}" if line.startswith(f"# {key}=") else line
             for line in path.read_text().splitlines()]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleFormatError, match=rf"bad\.csv: bad header value for {key}"):
        read_schedule(bad)
    assert main(["verify", "--schedule", str(bad)]) == 2


def test_v1_schedule_with_drive_reading_headers_still_reads(tmp_path, capsys):
    # older writers added "# alpha0=..." and "# omega=..." header lines
    out = tmp_path / "out"
    main(["prepare", "--plan", prep_plan(tmp_path, out)])
    plain = out / "stage01_prepare.csv"
    lines = plain.read_text().splitlines()
    at = lines.index("# ansatz=cosine") + 1
    lines[at:at] = ["# alpha0=0j", f"# omega={REF_DELTA!r}"]
    old = tmp_path / "old.csv"
    old.write_text("\n".join(lines) + "\n")

    back = read_schedule(old)
    assert back._samples_match_angles
    assert np.array_equal(back.alpha, read_schedule(plain).alpha)
    capsys.readouterr()
    assert main(["verify", "--schedule", str(old)]) == 0
    verified_old = capsys.readouterr().out
    assert main(["verify", "--schedule", str(plain)]) == 0
    assert capsys.readouterr().out == verified_old
    for sched, sub in ((old, "old"), (plain, "plain")):
        assert main(["simulate", "--schedule", str(sched), "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "old" / "trajectory.csv").read_bytes() == (
        tmp_path / "plain" / "trajectory.csv"
    ).read_bytes()


def test_cli_import_does_not_load_scipy():
    src = str(Path(pulseforge.__file__).resolve().parents[1])
    code = (
        "import sys, pulseforge.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


# knots whose elimination swaps rows (2 (dx0 + dx1) < dx2)
SAMPLED_ANSATZ = {"family": "sampled", "profile": {"s": [0.0, 0.01, 0.02, 0.5, 1.0],
                                                   "gamma": [0.0, 0.001, 0.004, 0.8, 0.5 * math.pi]}}


def _scipy_free_argv(command, tmp_path):
    if command in ("gate", "chain"):
        stages = [{**NOT_STAGE, "ansatz": SAMPLED_ANSATZ}]
        if command == "chain":
            stages = [PREPARE_STAGE, {"gate": "not", "ansatz": SAMPLED_ANSATZ}]
        plan = write_plan(tmp_path, {"system": {"delta_rad_per_s": REF_DELTA}, "stages": stages,
                                     "io": {"out_dir": str(tmp_path / "out")}})
        return [command, "--plan", plan]
    assert main(["gate", "--plan", _stage_plan(tmp_path, {**NOT_STAGE, "ansatz": SAMPLED_ANSATZ})]) == 0
    argv = [command, "--schedule", str(tmp_path / "out" / "stage01_not.csv")]
    return argv + (["--out", str(tmp_path / "sim")] if command == "simulate" else [])


@pytest.mark.parametrize("command", ["gate", "chain", "verify", "simulate"])
def test_sampled_ansatz_commands_do_not_load_scipy(tmp_path, command):
    # the sampled ramp's spline is the package's own
    src = str(Path(pulseforge.__file__).resolve().parents[1])
    code = (
        "import json, sys; from pulseforge.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_scipy_free_argv(command, tmp_path))],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip().splitlines()[-1] == "0 []"


def test_cli_import_does_not_load_orjson():
    # only the writers need it, and verify writes nothing
    src = str(Path(pulseforge.__file__).resolve().parents[1])
    code = "import sys, pulseforge.cli; print('orjson' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


def test_package_exports_its_names_not_its_submodules():
    from types import ModuleType

    names = {n for n, v in vars(pulseforge).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert sorted(pulseforge.__all__) == sorted(names)


# ------------------------------------------- plan numbers and the options


def _stage_plan(tmp_path, stage, system=None):
    return write_plan(tmp_path, {
        "system": system or {"delta_rad_per_s": REF_DELTA},
        "stages": [stage],
        "io": {"out_dir": str(tmp_path / "out")},
    })


NOT_STAGE = {"gate": "not", "chi": 0.3, "mu": 0.2}
TRANSPORT_STAGE = {"gate": "transport", "chi": 0.8, "mu": 0.3, "A": 0.6, "B": 0.8, "lambda": 1.9}
PREPARE_STAGE = {"gate": "prepare", "target": {"b2": {"abs": 0.6, "phase": 0}, "b3": 0.8}}


@pytest.mark.parametrize("command, stage, system, named", [
    ("gate", {**NOT_STAGE, "ansatz": {"T": None}}, None, "ansatz.T"),
    ("gate", {**NOT_STAGE, "ansatz": {"T": "inf"}}, None, "ansatz.T"),
    ("gate", {**NOT_STAGE, "ansatz": {"gamma_final": "inf"}}, None, "'inf'"),
    ("gate", {**NOT_STAGE, "ansatz": {"n_samples": None}}, None, "ansatz.n_samples"),
    ("gate", {**NOT_STAGE, "mu": "nan"}, None, "'nan'"),
    ("gate", {**NOT_STAGE, "chi": "pi/0"}, None, "'pi/0'"),
    ("gate", {**TRANSPORT_STAGE, "A": None}, None, "A must be"),
    ("gate", NOT_STAGE, {"delta_rad_per_s": "inf"}, "delta_rad_per_s"),
    ("gate", NOT_STAGE, {"b_field_mT": None, "g_factor": 2.0}, "b_field_mT"),
    ("prepare", {**PREPARE_STAGE, "target": {"b2": {"abs": None, "phase": 0}, "b3": 0.8}}, None, "abs"),
    ("prepare", {**PREPARE_STAGE, "target": {"b2": "nan", "b3": 0.8}}, None, "'nan'"),
])
def test_non_finite_or_missing_plan_number_exits_2(tmp_path, capsys, command, stage, system, named):
    assert main([command, "--plan", _stage_plan(tmp_path, stage, system)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


PHASE_STAGE = {"gate": "phase", "chi": 0.3, "mu": 0.2, "phase_shift": 0.7}

# Each huge or tiny finite value in one field of an otherwise valid plan.
# ansatz.n_samples and --steps are left out: a huge count would allocate
# gigabytes before anything could reject it.
EXTREME_FIELDS = [
    ("ansatz.T", lambda v: ({**NOT_STAGE, "ansatz": {"T": v}}, None)),
    ("t_max", lambda v: ({**NOT_STAGE, "ansatz": {"t_max": v}}, None)),
    ("chi", lambda v: ({**NOT_STAGE, "chi": v}, None)),
    ("mu", lambda v: ({**NOT_STAGE, "mu": v}, None)),
    ("phase_shift", lambda v: ({**PHASE_STAGE, "phase_shift": v}, None)),
    ("lambda", lambda v: ({**TRANSPORT_STAGE, "lambda": v}, None)),
    ("A", lambda v: ({**TRANSPORT_STAGE, "A": v}, None)),
    ("gamma_final", lambda v: ({**NOT_STAGE, "ansatz": {"gamma_final": v}}, None)),
    ("delta_rad_per_s", lambda v: (NOT_STAGE, {"delta_rad_per_s": v})),
    ("b_field_mT", lambda v: (NOT_STAGE, {"b_field_mT": v, "g_factor": 2.0})),
    ("g_factor", lambda v: (NOT_STAGE, {"b_field_mT": 100.0, "g_factor": v})),
    ("prepare ansatz.T", lambda v: ({**PREPARE_STAGE, "ansatz": {"T": v}}, None)),
    # a target on one spin state takes T as given, not phase-quantized
    ("prepare free ansatz.T", lambda v: ({"gate": "prepare", "target": {"b2": 1.0, "b3": 0.0}, "ansatz": {"T": v}}, None)),
]


@pytest.mark.parametrize("value", [1e300, 1e-300])
@pytest.mark.parametrize("field, plan", EXTREME_FIELDS, ids=[f for f, _ in EXTREME_FIELDS])
def test_extreme_finite_plan_number_keeps_the_exit_contract(tmp_path, capsys, field, plan, value):
    stage, system = plan(value)
    command = "prepare" if stage["gate"] == "prepare" else "gate"
    # a RuntimeWarning is an error under the test settings, so none may occur
    code = main([command, "--plan", _stage_plan(tmp_path, stage, system)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        (written,) = (tmp_path / "out").glob("*.csv")
        schedule = read_schedule(written)
        assert np.isfinite(schedule.tau).all() and np.isfinite(schedule.alpha).all()
    else:
        assert capsys.readouterr().err.startswith(("error: ", "infeasible: ", "verification failure: "))


def test_non_finite_synthesized_samples_exit_4_and_write_nothing(tmp_path, capsys):
    # delta = 1.76e308 rad/s makes T subnormal and the ramp slope overflow
    system = {"b_field_mT": 1e300, "g_factor": 2}
    assert main(["gate", "--plan", _stage_plan(tmp_path, NOT_STAGE, system)]) == 4
    assert "non-finite control sample" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overflowing_operation_time_exits_3(tmp_path, capsys):
    stage = {**NOT_STAGE, "ansatz": {"T": 1e299}}
    assert main(["gate", "--plan", _stage_plan(tmp_path, stage)]) == 3
    assert "overflows" in capsys.readouterr().err


def test_nan_fidelity_fails_the_synthesis_check():
    from pulseforge.errors import VerificationError
    from pulseforge.synth import ControlSchedule, ScheduleMeta, _verify_schedule

    meta = ScheduleMeta(gate="not", theta=math.nan, gamma_final=0.5 * math.pi)
    schedule = ControlSchedule(params=pulseforge.SystemParams(delta=REF_DELTA), times=[0.0, 1e-9],
                               tau=[0.0, 0.0], alpha=[0.0, 0.0], meta=meta)
    with pytest.raises(VerificationError, match="fidelity nan"):
        _verify_schedule(schedule, pulseforge.basis_state(1), pulseforge.basis_state(2))


def test_empty_theta_candidate_list_exits_3(tmp_path, capsys):
    # |2A^2 - 1| inside solve_theta's slack past the reach, outside its filter
    stage = {"gate": "transport", "chi": 0.05, "mu": "0.5pi",
             "A": 0.049979164768802486, "B": 0.9987502606202477, "lambda": 0.3}
    assert main(["gate", "--plan", _stage_plan(tmp_path, stage)]) == 3
    assert capsys.readouterr().err.startswith("infeasible: ")


@pytest.mark.parametrize("argv", [["verify", "--schedule", "s.csv"], ["chain", "--plan", "p.json"]])
def test_format_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_gate_json_format_writes_the_stage_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gate", "--plan", _stage_plan(tmp_path, TRANSPORT_STAGE), "--format", "json"]) == 0
    schedule = read_schedule(out / "stage01_transport.csv")
    report = json.loads((out / "stage01_report.json").read_text())
    assert report["theta"] == schedule.meta.theta
    assert report["T"] == schedule.T
    assert report["gate"] == "transport" and report["schedule_file"] == "stage01_transport.csv"


def test_non_string_out_dir_exits_2(tmp_path, capsys):
    plan = write_plan(tmp_path, {"system": {"delta_rad_per_s": REF_DELTA}, "stages": [NOT_STAGE], "io": {"out_dir": 5}})
    assert main(["gate", "--plan", plan]) == 2
    assert "io.out_dir" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [1e15, 1e16, 1e300, -1e300])
def test_huge_transport_lambda_reaches_its_target(tmp_path, capsys, lam):
    stage = {"gate": "transport", "chi": 0.6, "mu": 0.4, "A": 0.8, "B": 0.6, "lambda": lam}
    assert main(["gate", "--plan", _stage_plan(tmp_path, stage)]) == 0
    schedule = read_schedule(tmp_path / "out" / "stage01_transport.csv")
    final = pulseforge.analytic_propagator(schedule.angles(), schedule.T, schedule.params) @ (
        pulseforge.left_qubit_state(0.6, 0.4)
    )
    target = np.array([0.0, 0.8, 0.6 * np.exp(1j * lam), 0.0])
    assert abs(np.vdot(target, final)) ** 2 > 1 - 1e-9


def test_free_duration_past_t_max_exits_3(tmp_path, capsys):
    stage = {"gate": "prepare", "target": {"b2": 1.0, "b3": 0.0}, "ansatz": {"t_max": 1e-9}}
    assert main(["prepare", "--plan", _stage_plan(tmp_path, stage)]) == 3
    assert capsys.readouterr().err.startswith("infeasible: ")


def test_verify_without_drive_angle_headers_names_them(tmp_path, capsys):
    sched = tmp_path / "plain.csv"
    sched.write_text(
        "# delta=1000000000.0\nt,tau,re_alpha,im_alpha\n0.0,0.0,0.0,0.0\n1e-09,0.0,0.0,0.0\n"
    )
    assert main(["verify", "--schedule", str(sched)]) == 2
    assert "theta/gamma_final headers" in capsys.readouterr().err
    with pytest.raises(pulseforge.UnsupportedComparisonError, match="theta/gamma_final headers"):
        pulseforge.compare_analytic(read_schedule(sched), pulseforge.basis_state(1))


def test_verify_names_a_ramp_slope_past_the_float_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gate", "--plan", not_plan(tmp_path, out)]) == 0
    lines = (out / "stage01_not.csv").read_text().splitlines()
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join("# gamma_final=1e300" if line.startswith("# gamma_final=") else line
                                 for line in lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--schedule", str(edited)]) == 2
    err = capsys.readouterr().err
    assert "gamma_final = 1e+300 over T = 5e-10 s puts the ramp's slope past the float range" in err
    # the samples themselves are fine; simulate integrates them
    assert main(["simulate", "--schedule", str(edited), "--steps", "200", "--out", str(tmp_path / "sim")]) == 0


@pytest.mark.parametrize("target", [{"b2": 1e300, "b3": 0.8}, {"b2": 0.6, "b3": {"abs": 1e300, "phase": 0}}])
def test_prepare_target_past_the_float_square_exits_2(tmp_path, capsys, target):
    assert main(["prepare", "--plan", _stage_plan(tmp_path, {"gate": "prepare", "target": target})]) == 2
    assert "must be 1 within 1e-10" in capsys.readouterr().err


# ------------------------------------------------------- the shared parser


def _run_module(*argv, cwd):
    src = str(Path(pulseforge.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pulseforge.cli", *argv], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_command_replaced_after_a_call_is_the_one_run(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["gate", "--plan", not_plan(tmp_path, out)]) == 0
    assert main(["verify", "--schedule", str(out / "stage01_not.csv")]) == 0
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert main(["verify", "--schedule", str(out / "stage01_not.csv")]) == 7


def test_an_option_value_does_not_carry_into_the_next_call(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gate", "--plan", not_plan(tmp_path, out)]) == 0
    schedule = str(out / "stage01_not.csv")
    capsys.readouterr()
    assert main(["verify", "--schedule", schedule, "--tol", "1e-3"]) == 0
    assert "tolerance: 1.000e-03 -> PASS" in capsys.readouterr().out
    assert main(["verify", "--schedule", schedule]) == 0
    assert "tolerance: 1.000e-07 -> PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["bogus"], ["verify"], ["verify", "--schedule", "s.csv", "--tol=nan"],
                                  ["gate", "--plan", "p.json", "--stage", "x"]])
def test_a_usage_error_after_a_call_reads_as_in_a_fresh_process(tmp_path, capsys, argv):
    assert main(["gate", "--plan", not_plan(tmp_path, tmp_path / "out")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pulseforge")
    fresh = _run_module(*argv, cwd=tmp_path)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, "", err)


# ------------------------------------------------ unwritable and unreadable


def _regular_file(tmp_path):
    """A regular file where an output directory would be made."""
    path = tmp_path / "s.csv"
    path.write_text("")
    return path


def _unwritable_argv(tmp_path, command, blocker):
    if command == "gate":
        return ["gate", "--plan", not_plan(tmp_path, tmp_path / "out"), "--out", str(blocker / "sub")]
    if command == "chain":
        return ["chain", "--plan", chain_plan(tmp_path, tmp_path / "out"), "--out", str(blocker)]
    assert main(["gate", "--plan", not_plan(tmp_path, tmp_path / "out")]) == 0
    return ["simulate", "--schedule", str(tmp_path / "out" / "stage01_not.csv"), "--steps", "200",
            "--out", str(blocker / "sub")]


@pytest.mark.parametrize("command", ["gate", "simulate", "chain"])
def test_an_output_under_a_regular_file_exits_2(tmp_path, capsys, command):
    blocker = _regular_file(tmp_path)
    argv = _unwritable_argv(tmp_path, command, blocker)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}{os.sep}") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_a_plan_out_dir_under_a_regular_file_exits_2(tmp_path, capsys):
    blocker = _regular_file(tmp_path)
    assert main(["prepare", "--plan", prep_plan(tmp_path, blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocker / 'sub'}{os.sep}")


def test_a_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    # a directory where the schedule file goes: the rename onto it fails
    (out / "stage01_not.csv").mkdir(parents=True)
    assert main(["gate", "--plan", not_plan(tmp_path, out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'stage01_not.csv'}: ")
    assert [p.name for p in out.iterdir()] == ["stage01_not.csv"]


def test_a_failed_write_is_named_and_leaves_no_temp_file(tmp_path, monkeypatch):
    class FullDisk(io.FileIO):
        def write(self, chunk):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pfio.os, "fdopen", lambda fd, mode: FullDisk(fd, "wb"))
    with pytest.raises(PulseforgeError, match=r"^cannot write .*out\.csv: .*No space left"):
        pfio._atomic_write(tmp_path / "out.csv", [b"t\n"])
    assert list(tmp_path.iterdir()) == []


def test_an_oserror_while_producing_the_data_is_not_a_write_error(tmp_path):
    def chunks():
        yield b"t\n"
        raise FileNotFoundError("a missing input")

    with pytest.raises(FileNotFoundError, match="a missing input"):
        pfio._atomic_write(tmp_path / "out.csv", chunks())
    assert list(tmp_path.iterdir()) == []


def test_an_unwritable_output_exits_2_from_the_process(tmp_path):
    blocker = _regular_file(tmp_path)
    result = _run_module(*_unwritable_argv(tmp_path, "gate", blocker), cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


NOT_UTF8 = b"\xff\xfe# pulseforge schedule v1\n"


@pytest.mark.parametrize("command, flag", [
    ("verify", "--schedule"), ("simulate", "--schedule"), ("gate", "--plan"), ("chain", "--plan"),
])
def test_an_input_that_is_not_utf8_is_named(tmp_path, capsys, command, flag):
    path = tmp_path / "input"
    path.write_bytes(NOT_UTF8)
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and f" {path}: " in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_an_input_that_is_not_utf8_raises_the_readers_error(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ScheduleFormatError, match="cannot read schedule file"):
        read_schedule(path)
    with pytest.raises(PlanError, match="cannot read plan"):
        load_plan(path)


# ------------------------------------------------- verify's one evaluation


def test_verify_names_a_one_sample_schedule(tmp_path, capsys):
    sched = tmp_path / "zero.csv"
    sched.write_text(
        "# delta=1000000000.0\n# T=0.0\nt,tau,re_alpha,im_alpha\n0.0,0.0,0.0,0.0\n"
    )
    assert main(["verify", "--schedule", str(sched)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {sched}: one sample spans T = 0 s, nothing to verify\n"


def test_verify_keeps_no_schedule_alive(tmp_path, monkeypatch, capsys):
    import gc
    import weakref

    out = tmp_path / "out"
    assert main(["gate", "--plan", not_plan(tmp_path, out)]) == 0
    refs = []

    def read_and_watch(path):
        schedule = read_schedule(path)
        refs.append(weakref.ref(schedule))
        return schedule

    monkeypatch.setattr(cli, "read_schedule", read_and_watch)
    assert main(["verify", "--schedule", str(out / "stage01_not.csv")]) == 0
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_one_verify_op_integrates_once_and_evaluates_the_closed_form_once(tmp_path, monkeypatch, capsys):
    from pulseforge import propagate

    out = tmp_path / "out"
    assert main(["gate", "--plan", not_plan(tmp_path, out)]) == 0
    calls = {"_rk4_states": 0, "propagator_entries": 0}

    def counted(name):
        original = getattr(propagate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(propagate, name, counted(name))
    assert main(["verify", "--schedule", str(out / "stage01_not.csv")]) == 0
    assert calls == {"_rk4_states": 1, "propagator_entries": 1}


@pytest.mark.parametrize("n_samples", [SAMPLE_BUDGET + 1, 1e12, 1e300])
@pytest.mark.parametrize("command", ["gate", "chain"])
def test_a_sample_count_past_the_budget_exits_2_naming_it(tmp_path, capsys, command, n_samples):
    # refused while the plan is read, before any array is sized by it
    stage = {**NOT_STAGE, "ansatz": {"n_samples": n_samples}}
    assert main([command, "--plan", _stage_plan(tmp_path, stage)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"n_samples must be at most {SAMPLE_BUDGET}, got " in err
    assert not (tmp_path / "out").exists()


def test_the_sample_budget_itself_is_accepted():
    assert AnsatzSpec(n_samples=SAMPLE_BUDGET).n_samples == SAMPLE_BUDGET


@pytest.mark.parametrize("phase", [1e16, 1e17, 1e200])
@pytest.mark.parametrize("stage", [NOT_STAGE, TRANSPORT_STAGE, PREPARE_STAGE], ids=["not", "transport", "prepare"])
def test_a_requested_T_past_the_floats_phase_resolution_exits_3_naming_it(tmp_path, capsys, stage, phase):
    # delta * T past 2^53 rad: lifting T by whole periods loses the phase, and
    # the closed-form check used to fail the schedule (exit 4) instead
    t = phase / REF_DELTA
    stage = {**stage, "ansatz": {"T": t, "n_samples": 50}}
    command = "prepare" if stage["gate"] == "prepare" else "gate"
    assert main([command, "--plan", _stage_plan(tmp_path, stage)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and f"the requested T = {t:.6g} s" in err and "past 2^53 rad" in err


def test_operation_time_refuses_a_zeeman_phase_past_2_to_the_53():
    from pulseforge.errors import NoFeasibleTimeError
    from pulseforge.synth import operation_time

    assert operation_time(1.0, 0.0, 1.0, t_min=2.0 ** 52) * 1.0 <= 2.0 ** 53
    with pytest.raises(NoFeasibleTimeError, match=r"requested T = 1\.8\d+e\+16 s"):
        operation_time(1.0, 0.0, 1.0, t_min=2.0 ** 54)
