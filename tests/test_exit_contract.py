"""The exit-code contract: each error class's code and label, the process
exit status, and properties: an edited sample or header never verifies, and
a mutated plan or header ends in 0/2/3/4 without a traceback or a warning."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulseforge
from pulseforge import AnsatzSpec, NotGateSpec, PhaseGateSpec, PrepareSpec, SystemParams, TransportSpec
from pulseforge import synthesize_gate
from pulseforge import cli
from pulseforge.cli import main
from pulseforge.io import load_plan, write_schedule
from conftest import REF_DELTA

_S = np.linspace(0.0, 1.0, 6)
SAMPLED = {"family": "sampled", "profile": (_S, 0.5 * math.pi * _S * _S * (3.0 - 2.0 * _S))}

SPECS = {
    "prepare": PrepareSpec(b2=0.6, b3=0.8j),
    "not": NotGateSpec(chi=0.3, mu=0.2),
    "phase": PhaseGateSpec(chi=0.3, mu=0.2, phase_shift=0.7),
    "transport": TransportSpec(chi=0.8, mu=0.3, a=0.6, b=0.8, lam=1.9),
    # theta ~ 1.5e-3: the alpha column peaks three decades below tau
    "weak-alpha": TransportSpec(chi=0.8, mu=0.3, a=math.cos(0.8) + 1e-3,
                                b=math.sqrt(1.0 - (math.cos(0.8) + 1e-3) ** 2), lam=1.0),
}


@functools.lru_cache(maxsize=None)
def _schedule_lines(gate: str, family: str, n_samples: int) -> tuple[str, ...]:
    ansatz = AnsatzSpec(n_samples=n_samples, **(SAMPLED if family == "sampled" else {}))
    schedule = synthesize_gate(SPECS[gate], SystemParams(delta=REF_DELTA), ansatz)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.csv"
        write_schedule(path, schedule)
        return tuple(path.read_text().splitlines())


@settings(deadline=None, max_examples=40)
@given(
    gate=st.sampled_from(sorted(SPECS)),
    family=st.sampled_from(["cosine", "sampled"]),
    # 8000 samples interpolate closely enough that an edit barely moves the states
    n_samples=st.sampled_from([2000, 8000]),
    column=st.sampled_from(["tau", "alpha"]),
    pick=st.floats(0.0, 1.0),
    eps=st.floats(1e-3, 1.0),
)
def test_an_edited_sample_never_verifies(gate, family, n_samples, column, pick, eps):
    lines = list(_schedule_lines(gate, family, n_samples))
    body = lines.index("t,tau,re_alpha,im_alpha") + 1
    table = np.array([[float(x) for x in line.split(",")] for line in lines[body:]])
    values = table[:, 1] if column == "tau" else table[:, 2] + 1j * table[:, 3]
    peak = float(np.max(np.abs(values)))
    cells = np.flatnonzero((np.abs(values) >= 1e-3 * peak) & (values != 0))
    if cells.size == 0:
        # a phase gate's alpha is zero throughout: scaling it edits nothing
        return
    row = int(cells[min(int(pick * cells.size), cells.size - 1)])
    cols = [1] if column == "tau" else [2, 3]
    parts = lines[body + row].split(",")
    for c in cols:
        parts[c] = repr(float(parts[c]) * (1.0 + eps))
    lines[body + row] = ",".join(parts)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(["verify", "--schedule", str(path)])
    out = stdout.getvalue()
    assert code == 4
    assert "-> FAIL" in out and "PASS" not in out


# ------------------------------------------------------- codes and labels

EXIT_CODES = {
    "PulseforgeError": 2,
    "InvalidAnsatzError": 2,
    "UnsupportedComparisonError": 2,
    "ScheduleFormatError": 2,
    "PlanError": 2,
    "InfeasibleTargetError": 3,
    "InfeasibleAmplitudeError": 3,
    "NoFeasibleTimeError": 3,
    "DegeneratePhaseError": 3,
    "VerificationError": 4,
    "IntegrationError": 4,
}
LABELS = {2: "error", 3: "infeasible", 4: "verification failure"}


def test_every_exported_error_class_carries_its_exit_code():
    exported = {
        name for name in pulseforge.__all__
        if isinstance(getattr(pulseforge, name), type) and issubclass(getattr(pulseforge, name), Exception)
    }
    assert exported == set(EXIT_CODES)
    assert {name: getattr(pulseforge, name).exit_code for name in exported} == EXIT_CODES


def _raise(error):
    def command(args):
        raise error("boom")
    return command


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_main_exits_with_the_error_class_code_and_label(monkeypatch, capsys, name):
    error = getattr(pulseforge, name)
    monkeypatch.setattr(cli, "cmd_verify", _raise(error))
    assert main(["verify", "--schedule", "unused.csv"]) == error.exit_code
    assert capsys.readouterr().err == f"{LABELS[error.exit_code]}: boom\n"


def test_a_value_error_and_a_new_subclass_exit_2(monkeypatch, capsys):
    class NewError(pulseforge.PulseforgeError):
        pass

    for error in (ValueError, NewError):
        monkeypatch.setattr(cli, "cmd_verify", _raise(error))
        assert main(["verify", "--schedule", "unused.csv"]) == 2
        assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_a_chain_stage_error_keeps_its_code_and_names_the_stage(tmp_path, monkeypatch, capsys, name):
    error = getattr(pulseforge, name)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "not", "chi": 0.3, "mu": 0.2}],
    }))
    monkeypatch.setattr(cli, "synthesize_gate", lambda *args: _raise(error)(None))
    assert main(["chain", "--plan", str(plan), "--out", str(tmp_path)]) == error.exit_code
    assert capsys.readouterr().err == f"{LABELS[error.exit_code]}: stage 1 (not): boom\n"


def _run_module(*argv, cwd):
    src = str(Path(pulseforge.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pulseforge.cli", *argv], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("code, target", [
    (0, {"b2": 0.6, "b3": 0.8}),
    (2, {"b2": "text", "b3": 0.8}),
    # weight on |4> cannot be prepared from |1>
    (3, {"b2": 0.6, "b3": 0.0, "b4": 0.8}),
])
def test_the_process_exit_status_of_a_plan(tmp_path, code, target):
    (tmp_path / "plan.json").write_text(json.dumps({
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "prepare", "target": target, "ansatz": {"n_samples": 50}}],
    }))
    result = _run_module("prepare", "--plan", "plan.json", cwd=tmp_path)
    assert result.returncode == code
    assert result.stderr.startswith(f"{LABELS[code]}: ") if code else result.stderr == ""


def test_the_process_exit_status_of_a_failed_verify(tmp_path):
    lines = list(_schedule_lines("not", "cosine", 2000))
    body = lines.index("t,tau,re_alpha,im_alpha") + 1
    lines[body + 1000] = ",".join(lines[body + 1000].split(",")[:1] + ["inf", "0.0", "0.0"])
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
    result = _run_module("verify", "--schedule", "s.csv", cwd=tmp_path)
    assert result.returncode == 4
    assert result.stderr.startswith("verification failure: ")


# ----------------------------------------------------------------- plans

PLANS = [
    ("prepare", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{
            "gate": "prepare",
            "target": {"b2": {"abs": 0.6, "phase": "0.25pi"}, "b3": 0.8},
            "ansatz": {"gamma_final": "0.5pi", "family": "cosine", "n_samples": 300, "T": 1e-9, "t_max": 1e-8},
            "branch": 1,
        }],
        "io": {"out_dir": "out"},
    }),
    ("gate", {
        "system": {"b_field_mT": 100.0, "g_factor": 2.0},
        "stages": [{
            "gate": "not", "chi": 0.3, "mu": 0.2, "branch": "min-theta",
            "ansatz": {"family": "sampled", "n_samples": 300,
                       "profile": {"s": [0.0, 0.3, 0.7, 1.0], "gamma": [0.0, 0.3, 1.2, "0.5pi"]}},
        }],
    }),
    ("gate", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "transport", "chi": 0.8, "mu": 0.3, "A": 0.6, "B": 0.8, "lambda": 1.9,
                    "ansatz": {"n_samples": 300}}],
    }),
    ("gate", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "phase", "chi": 0.3, "mu": 0.2, "phase_shift": 0.7, "ansatz": {"n_samples": 300}}],
    }),
    ("chain", {
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [
            {"gate": "prepare", "target": {"b2": 0.5, "b3": {"abs": math.sqrt(3.0) / 2.0, "phase": "0.5pi"}}},
            {"gate": "phase", "phase_shift": "pi/4"},
            {"gate": "not", "chi": "pi/3"},
            {"gate": "transport", "A": 0.6, "B": 0.8, "lambda": 0.4},
        ],
        "io": {"out_dir": "out"},
    }),
]

MUTANTS = [None, "nan", "inf", "text", [1.0], 1e300]


def _fields(node, prefix=()):
    """Path of every key and list item of a plan document, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _fields(value, prefix + (key,))


MUTATIONS = [
    (p, field, value)
    for p, (_, plan) in enumerate(PLANS)
    for field in _fields(plan)
    for value in MUTANTS
    # a huge sample count would allocate gigabytes before anything rejects it
    if not (field[-1] == "n_samples" and value == 1e300)
]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(MUTATIONS))
def test_a_mutated_plan_keeps_the_exit_contract(mutation):
    p, field, value = mutation
    command, plan = PLANS[p]
    doc = copy.deepcopy(plan)
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    cwd = os.getcwd()
    with (
        tempfile.TemporaryDirectory() as d,
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        warnings.simplefilter("always")
        # a mutated io.out_dir is a relative path; keep it inside the scratch directory
        os.chdir(d)
        try:
            Path("plan.json").write_text(json.dumps(doc))
            code = main([command, "--plan", "plan.json", "--steps", "500"] if command == "chain"
                        else [command, "--plan", "plan.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []


# ------------------------------------------------------- schedule headers

# header edits that used to read fine: NaN T and a T off by 1e-6 verified,
# theta=nan failed as a sample, theta=inf as a bare domain error, and an
# unknown ansatz blamed the angle headers in verify and passed in simulate
HEADER_REPROS = [
    ("not", "cosine", "T", "nan"),
    ("not", "cosine", "T", "-nan"),
    *[(gate, family, "T", 1e-6) for gate in ("prepare", "not", "phase", "transport")
      for family in ("cosine", "sampled")],
    ("not", "cosine", "T", 1e-3),
    ("not", "cosine", "theta", "nan"),
    ("not", "cosine", "theta", "inf"),
    ("not", "cosine", "gamma_final", "nan"),
    ("not", "cosine", "ansatz", "bogus"),
]


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("gate, family, key, value", HEADER_REPROS)
def test_a_malformed_header_is_an_invalid_schedule(tmp_path, capsys, command, gate, family, key, value):
    lines = []
    for line in _schedule_lines(gate, family, 2000):
        if line.startswith(f"# {key}="):
            old = line.split("=", 1)[1]
            line = f"# {key}=" + (repr(float(old) * (1.0 + value)) if isinstance(value, float) else value)
        lines.append(line)
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    extra = ["--steps", "200", "--out", str(tmp_path)] if command == "simulate" else []
    assert main([command, "--schedule", str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and f" {key}" in captured.err
    assert "PASS" not in captured.out

COLUMNS = "t,tau,re_alpha,im_alpha"
HEADER_VALUES = ["nan", "-nan", "inf", "", "text", "1e300", "-1", "0"]
FLOAT_KEYS = ("delta", "T", "theta", "gamma_final")
READ_KEYS = {"delta", "T", "theta", "gamma_final", "n_samples", "gate", "branch", "ansatz",
             "profile_s", "profile_gamma"}


def _header(lines) -> dict[str, str]:
    """The header values the reader takes: the last line of a key wins."""
    return dict(line[2:].split("=", 1) for line in lines[1:lines.index(COLUMNS)] if "=" in line)


def _moved(old: str, new: str) -> bool:
    """Whether a float header changed by at least 1e-6 (relative) or went non-finite."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return True
    return not math.isfinite(b) or (b != a and abs(b - a) >= 1e-6 * abs(a))


def test_a_ramp_whose_slope_overflows_is_not_used(tmp_path, capsys):
    # gamma_final = 1e300 over 1.3e-10 s: the ramp's flat ends would be inf * 0
    lines = [line.replace("# gamma_final=1.5707963267948966", "# gamma_final=1e300")
             for line in _schedule_lines("not", "cosine", 2000)]
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--schedule", str(path)]) == 2
    assert "lacks drive-angle metadata" in capsys.readouterr().err
    # the samples themselves are fine; simulate integrates them
    assert main(["simulate", "--schedule", str(path), "--steps", "200", "--out", str(tmp_path)]) == 0


@st.composite
def header_edits(draw):
    """A written schedule with one header line dropped, duplicated with
    another value, set to a bad value, scaled by 1 + eps, or joined by an
    unknown key."""
    gate, family = draw(st.sampled_from(sorted(SPECS))), draw(st.sampled_from(["cosine", "sampled"]))
    lines = list(_schedule_lines(gate, family, 2000))
    # most draws scale a number, and half edit a float header: the edits a
    # PASS could hide
    edit = draw(st.sampled_from(["drop", "duplicate", "set", "scale", "unknown"]) | st.just("scale"))
    # a number to scale ends in a digit
    rows = [r for r in range(1, lines.index(COLUMNS)) if edit != "scale" or lines[r][-1].isdigit()]
    row = draw(st.sampled_from([r for r in rows if lines[r][2:].split("=")[0] in FLOAT_KEYS]) | st.sampled_from(rows))
    key, value = lines[row][2:].split("=", 1)
    if edit == "drop":
        del lines[row]
    elif edit == "duplicate":
        lines.insert(row + draw(st.integers(0, 1)), f"# {key}={draw(st.sampled_from(HEADER_VALUES))}")
    elif edit == "set":
        lines[row] = f"# {key}={draw(st.sampled_from(HEADER_VALUES))}"
    elif edit == "scale":
        eps = 10.0 ** draw(st.floats(-6.0, 3.0))
        lines[row] = f"# {key}=" + ",".join(repr(float(x) * (1.0 + eps)) for x in value.split(","))
    else:
        unknown = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(lambda k: k not in READ_KEYS))
        lines.insert(row, f"# {unknown}={draw(st.sampled_from(HEADER_VALUES + [value]))}")
    return gate, family, lines


@settings(deadline=None, max_examples=80)
@given(header_edits())
def test_an_edited_header_keeps_the_exit_contract_and_never_verifies(case):
    gate, family, lines = case
    old = _header(_schedule_lines(gate, family, 2000))
    new = _header(lines)
    # a phase gate's alpha column is zero: its samples do not depend on delta
    guarded = FLOAT_KEYS if gate != "phase" else FLOAT_KEYS[1:]
    moved = [k for k in guarded if k in old and k in new and _moved(old[k], new[k])]
    with (
        tempfile.TemporaryDirectory() as d,
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stderr(io.StringIO()),
    ):
        warnings.simplefilter("always")
        path = Path(d) / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        codes = {}
        for argv in (["simulate", "--schedule", str(path), "--steps", "200", "--out", d],
                     ["verify", "--schedule", str(path)]):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                codes[argv[0]] = main(argv)
    assert set(codes.values()) <= {0, 2, 3, 4}
    assert [str(w.message) for w in caught] == []
    if moved:
        assert "PASS" not in stdout.getvalue(), moved


# ------------------------------------------------- --tol and n_samples values

BAD_TOLS = ["nan", "inf", "-inf", "-1e-7", "text"]


@pytest.fixture(scope="module")
def tol_inputs(tmp_path_factory):
    """A valid schedule and a valid chain plan, so only --tol can be wrong."""
    d = tmp_path_factory.mktemp("tol")
    (d / "s.csv").write_text("\n".join(_schedule_lines("not", "cosine", 2000)) + "\n")
    (d / "plan.json").write_text(json.dumps({
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "prepare", "target": {"b2": 0.6, "b3": 0.8}, "ansatz": {"n_samples": 50}}],
    }))
    return {"verify": ["verify", "--schedule", str(d / "s.csv")],
            "chain": ["chain", "--plan", str(d / "plan.json"), "--out", str(d / "out")]}


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("command", ["verify", "chain"])
def test_a_non_finite_or_negative_tolerance_exits_2(tol_inputs, capsys, command, tol):
    # '=' form: argparse takes '-inf' or '-1e-7' after a space for an option
    argv = tol_inputs[command] + [f"--tol={tol}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    result = _run_module(*argv, cwd=Path(argv[2]).parent)
    assert result.returncode == 2
    assert "--tol" in result.stderr and result.stdout == ""


@pytest.mark.parametrize("command", ["verify", "chain"])
def test_a_zero_tolerance_still_runs(tol_inputs, capsys, command):
    # no gap is exactly zero, so the check runs and fails
    assert main(tol_inputs[command] + ["--tol", "0"]) == 4
    assert "-> FAIL" in capsys.readouterr().out


def _prepare_plan(tmp_path, n_samples):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "system": {"delta_rad_per_s": REF_DELTA},
        "stages": [{"gate": "prepare", "target": {"b2": 0.6, "b3": 0.8}, "ansatz": {"n_samples": n_samples}}],
    }))
    return str(plan)


@pytest.mark.parametrize("n_samples", [2.5, 2000.9, "2.5", "2000.5", 1e-3], ids=repr)
def test_a_fractional_sample_count_exits_2(tmp_path, capsys, n_samples):
    out = tmp_path / "out"
    assert main(["prepare", "--plan", _prepare_plan(tmp_path, n_samples), "--out", str(out)]) == 2
    assert "ansatz.n_samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_samples", [2000.0, "2000", "2000.0"], ids=repr)
def test_a_whole_sample_count_reads_as_that_integer(tmp_path, capsys, n_samples):
    files = []
    for k, value in enumerate([2000, n_samples]):
        out = tmp_path / f"out{k}"
        (tmp_path / f"p{k}").mkdir()
        assert main(["prepare", "--plan", _prepare_plan(tmp_path / f"p{k}", value), "--out", str(out)]) == 0
        files.append((out / "stage01_prepare.csv").read_bytes())
    assert b"# n_samples=2000\n" in files[0]
    assert files[0] == files[1]


# ----------------------------------------------------------------- chain

# a 50-sample preparation, then a NOT: coarse enough that a few hundred RK4
# steps leave the carried state off norm 1 by more than 1e-10
SHORT_CHAIN = {
    "system": {"delta_rad_per_s": 1e9},
    "stages": [
        {"gate": "prepare", "target": {"b2": 0.6, "b3": 0.8}, "ansatz": {"n_samples": 50}},
        {"gate": "not"},
    ],
}


def _short_chain(tmp_path) -> str:
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(SHORT_CHAIN))
    return str(plan)


@pytest.mark.parametrize("steps, code, out, err", [
    (300, 0, "deviation: 2.161e-08 (tolerance 2.000e-07) -> PASS", ""),
    (100, 4, "deviation: 1.751e-06 (tolerance 2.000e-07) -> FAIL", ""),
    (40, 4, None, "verification failure: stage 1 (prepare): state norm drifted by 2.37e-06 (limit 1e-06); "
                  "increase the number of integration steps\n"),
], ids=["pass", "fail", "drift"])
def test_a_chain_carries_its_rk4_state_without_the_input_norm_check(tmp_path, capsys, steps, code, out, err):
    assert main(["chain", "--plan", _short_chain(tmp_path), "--steps", str(steps), "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if out is not None:
        assert out in captured.out


@pytest.mark.parametrize("steps, code", [(300, 0), (40, 4)])
def test_the_process_exit_status_of_a_coarse_chain(tmp_path, steps, code):
    _short_chain(tmp_path)
    result = _run_module("chain", "--plan", "plan.json", "--steps", str(steps), cwd=tmp_path)
    assert result.returncode == code
    if code:
        assert result.stderr.startswith("verification failure: stage 1 (prepare): ")
        assert result.stderr.count("\n") == 1
    else:
        assert result.stderr == ""


def test_a_chain_never_renormalizes_its_rk4_state(tmp_path):
    plan = load_plan(_short_chain(tmp_path))
    chained = cli.compose_chain(plan, n_steps=300)
    # within tolerance, though farther off norm 1 than an input state may be
    assert chained.deviation <= 2e-7
    assert abs(np.linalg.norm(chained.ode_final) - 1.0) > 1e-10
    # RK4 is linear, so a carried state keeps every stage's norm loss: the
    # final norm is the product of the stages' norms, each run alone
    first, second = plan.stages
    plan.stages = [first]
    alone = [cli.compose_chain(plan, n_steps=300).ode_final]
    plan.stages = [dataclasses.replace(second, chi=chained.outcomes[1].chi_in, mu=chained.outcomes[1].mu_in)]
    alone.append(cli.compose_chain(plan, n_steps=300).ode_final)
    product = np.linalg.norm(alone[0]) * np.linalg.norm(alone[1])
    assert np.linalg.norm(chained.ode_final) == pytest.approx(product, rel=0, abs=1e-14)


def test_a_chain_of_no_stages_is_a_plan_error(tmp_path):
    plan = load_plan(_short_chain(tmp_path))
    plan.stages = []
    with pytest.raises(pulseforge.PlanError, match="stages must be a non-empty list"):
        cli.compose_chain(plan)


def test_a_chain_stage_error_keeps_its_attributes(tmp_path):
    with pytest.raises(pulseforge.IntegrationError) as info:
        cli.compose_chain(load_plan(_short_chain(tmp_path)), n_steps=40)
    assert str(info.value).startswith("stage 1 (prepare): state norm drifted by 2.37e-06")
    assert info.value.exit_code == 4
    assert info.value.drift == pytest.approx(2.37e-6, rel=1e-2)


@pytest.mark.parametrize("stages, prefix, message", [
    ([{"gate": "not", "chi": 0.3, "mu": 0.2},
      {"gate": "transport", "A": 0.6, "B": 0.6, "lambda": 0.0}],
     "stage 2 (transport)", "A^2 + B^2 = 0.72 must be 1 within 1e-10"),
    ([{"gate": "not", "chi": 0.3, "mu": 0.2, "branch": 7}],
     "stage 1 (not)", "branch index 7 out of range: 2 solution(s)"),
    ([{"gate": "phase", "chi": 2.0, "mu": 0.2}],
     "stage 1 (phase)", "chi must lie in [0, pi/2], got 2.0"),
], ids=["amplitudes", "branch", "chi"])
def test_every_chain_stage_value_error_names_its_stage(tmp_path, capsys, stages, prefix, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"system": {"delta_rad_per_s": REF_DELTA}, "stages": stages}))
    assert main(["chain", "--plan", str(plan), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {prefix}: {message}\n"


@pytest.mark.parametrize("steps", ["1", "0", "-3", "2.5", "many"])
@pytest.mark.parametrize("command", ["verify", "simulate", "chain"])
def test_steps_below_2_or_not_an_integer_is_a_usage_error(tol_inputs, capsys, command, steps):
    argv = {**tol_inputs, "simulate": ["simulate", *tol_inputs["verify"][1:]]}[command]
    # '=' form: argparse takes '-3' after a space for an option
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(Path(argv[2]).parent / "out"), f"--steps={steps}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pulseforge") and "argument --steps: must be an integer >= 2" in err
    assert "stage" not in err


def test_two_steps_is_the_fewest_that_run(tol_inputs, capsys):
    # two steps over a whole gate drift far off norm 1: the integration ran
    assert main(tol_inputs["verify"] + ["--steps", "2"]) == 4
    assert capsys.readouterr().err.startswith("verification failure: state norm drifted by")
