"""Numeric writers against per-cell reference writers, and the sampled-ansatz
profile's disk round trip."""

import json
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pulseforge import AnsatzSpec, SystemParams, TransportSpec, synthesize_gate
from pulseforge.cli import main
from pulseforge.dqd import check_normalized
from pulseforge.errors import IntegrationError, ScheduleFormatError
from pulseforge.io import (
    SCHEDULE_COLUMNS,
    TRAJECTORY_COLUMNS,
    read_schedule,
    write_schedule,
    write_trajectory_csv,
    write_trajectory_json,
)
from pulseforge.propagate import FidelityTrace, TimeGrid, integrate
from pulseforge.synth import ControlSchedule, ScheduleMeta
from conftest import REF_DELTA

# ------------------------------------------------- reference writers (per cell)


def reference_schedule(schedule):
    meta = schedule.meta
    lines = ["# pulseforge schedule v1"]
    lines.append(f"# delta={float(schedule.params.delta)!r}")
    lines.append(f"# T={float(schedule.T)!r}")
    if meta.theta is not None:
        lines.append(f"# theta={float(meta.theta)!r}")
    if meta.gamma_final is not None:
        lines.append(f"# gamma_final={float(meta.gamma_final)!r}")
    lines.append(f"# n_samples={schedule.n_samples}")
    lines.append(f"# gate={meta.gate}")
    lines.append(f"# branch={meta.branch}")
    lines.append(f"# ansatz={meta.ansatz}")
    lines.append(SCHEDULE_COLUMNS)
    for t, tau, alpha in zip(schedule.times, schedule.tau, schedule.alpha):
        lines.append(f"{float(t)!r},{float(tau)!r},{float(alpha.real)!r},{float(alpha.imag)!r}")
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(traj, tau, alpha, fidelity):
    lines = [TRAJECTORY_COLUMNS]
    pops = traj.populations
    for k, t in enumerate(traj.times):
        c = traj.states[k]
        cells = [repr(float(t)), repr(float(tau[k])), repr(float(alpha[k].real)), repr(float(alpha[k].imag))]
        cells += [repr(float(p)) for p in pops[k]]
        for amp in c:
            cells += [repr(float(amp.real)), repr(float(amp.imag))]
        cells.append(repr(float(fidelity.fidelity[k])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_trajectory_json(traj, tau, alpha, fidelity):
    payload = {
        "t": [float(x) for x in traj.times],
        "tau": [float(x) for x in tau],
        "re_alpha": [float(x) for x in alpha.real],
        "im_alpha": [float(x) for x in alpha.imag],
        "populations": [[float(p) for p in row] for row in traj.populations],
        "states_re": [[float(c.real) for c in row] for row in traj.states],
        "states_im": [[float(c.imag) for c in row] for row in traj.states],
        "fidelity": [float(x) for x in fidelity.fidelity],
    }
    return json.dumps(payload, indent=2) + "\n"


# ------------------------------------------------------------------ strategies

# signed zeros, the subnormal floor, repr's switch to exponent form below
# 1e-4 and from 1e16 on, and the ends of the exponent range
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e-4, -1e-4, 1e16, -1e16,
           1e300, -1e300, 1e-300, -1e-300]
FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


def _complex(re, im):
    # assembled without arithmetic, so signed zeros and infinities survive
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _trajectory_parts(table):
    """Writer arguments whose 17 cells per row are exactly ``table``'s."""
    traj = SimpleNamespace(
        times=table[:, 0],
        populations=table[:, 4:8],
        states=np.ascontiguousarray(table[:, 8:16]).view(complex),
    )
    fid = FidelityTrace(times=table[:, 0], fidelity=table[:, 16])
    return traj, table[:, 1], _complex(table[:, 2], table[:, 3]), fid


def _written(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out"
        writer(path, *args)
        return path.read_bytes()


def _tables(cells):
    return arrays(np.float64, st.tuples(st.integers(1, 64), st.just(17)), elements=cells)


# --------------------------------------------------------------- writer oracles


@settings(deadline=None)
@given(_tables(FINITE))
def test_trajectory_writers_match_reference(table):
    parts = _trajectory_parts(table)
    assert _written(write_trajectory_csv, *parts) == reference_trajectory_csv(*parts).encode()
    assert _written(write_trajectory_json, *parts) == reference_trajectory_json(*parts).encode()


@settings(deadline=None)
@given(_tables(NON_FINITE))
def test_non_finite_cells_are_spelled_as_repr_and_json_do(table):
    parts = _trajectory_parts(table)
    assert _written(write_trajectory_csv, *parts) == reference_trajectory_csv(*parts).encode()
    text = _written(write_trajectory_json, *parts)
    assert text == reference_trajectory_json(*parts).encode()
    back = json.loads(text)
    assert np.array_equal(np.array(back["t"]), table[:, 0], equal_nan=True)
    assert np.array_equal(np.array(back["states_im"]), table[:, 9:16:2], equal_nan=True)
    assert np.array_equal(np.array(back["fidelity"]), table[:, 16], equal_nan=True)


def test_non_finite_spelling():
    table = np.zeros((2, 17))
    table[0, 1], table[1, 5], table[1, 16] = math.nan, math.inf, -math.inf
    parts = _trajectory_parts(table)
    rows = _written(write_trajectory_csv, *parts).decode().splitlines()
    assert rows[1].split(",")[1] == "nan"
    assert rows[2].split(",")[5] == "inf" and rows[2].split(",")[16] == "-inf"
    text = _written(write_trajectory_json, *parts).decode()
    assert "\n    NaN" in text and "\n      Infinity" in text and "\n    -Infinity" in text


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 64))
    later = draw(st.lists(st.one_of(st.sampled_from([s for s in SPECIAL if s > 0]),
                                    st.floats(min_value=5e-324, allow_infinity=False)),
                          min_size=n - 1, max_size=n - 1, unique=True))
    times = [draw(st.sampled_from([0.0, -0.0]))] + sorted(later)
    cols = [np.array(draw(st.lists(FINITE, min_size=n, max_size=n))) for _ in range(3)]
    meta = ScheduleMeta(gate="not", theta=draw(FINITE), gamma_final=draw(FINITE), branch=1)
    return ControlSchedule(params=SystemParams(delta=REF_DELTA), times=times, tau=cols[0],
                           alpha=_complex(cols[1], cols[2]), meta=meta)


@settings(deadline=None)
@given(schedules())
def test_schedule_writer_matches_reference(schedule):
    assert _written(write_schedule, schedule) == reference_schedule(schedule).encode()


# -------------------------------------------------- sampled-ansatz profile knots

PROFILE_S = [0.0, 0.2, 0.5, 0.8, 1.0]
PROFILE_GAMMA = [0.0, 0.1, 0.25 * math.pi, 1.4, 0.5 * math.pi]


@pytest.fixture
def sampled_transport(ref_params):
    ansatz = AnsatzSpec(family="sampled", profile=(PROFILE_S, PROFILE_GAMMA), n_samples=3000)
    spec = TransportSpec(chi=math.pi / 3, mu=math.pi / 4, a=0.6, b=0.8, lam=0.7)
    return synthesize_gate(spec, ref_params, ansatz)


def test_sampled_profile_round_trips(tmp_path, sampled_transport):
    path = tmp_path / "s.csv"
    write_schedule(path, sampled_transport)
    text = path.read_text()
    assert "# profile_s=0.0,0.2,0.5,0.8,1.0\n" in text
    assert f"# profile_gamma={','.join(map(repr, PROFILE_GAMMA))}\n" in text
    back = read_schedule(path)
    assert back.meta.ansatz == "sampled"
    assert np.array_equal(back.meta.profile[0], PROFILE_S)
    assert np.array_equal(back.meta.profile[1], PROFILE_GAMMA)
    assert back._samples_match_angles


def test_verify_passes_on_written_sampled_schedule(tmp_path, capsys, sampled_transport):
    path = tmp_path / "s.csv"
    write_schedule(path, sampled_transport)
    assert main(["verify", "--schedule", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_simulate_of_sampled_schedule_matches_in_memory_integration(tmp_path, capsys, sampled_transport):
    path = tmp_path / "s.csv"
    write_schedule(path, sampled_transport)
    assert main(["simulate", "--schedule", str(path), "--out", str(tmp_path), "--steps", "1000",
                 "--psi0", "0.6,0,0,0.8j"]) == 0
    last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")
    cells = [float(x) for x in last[8:16]]
    on_disk = np.array(cells[0::2]) + 1j * np.array(cells[1::2])
    psi0 = check_normalized(np.array([0.6, 0.0, 0.0, 0.8j]))
    in_memory = integrate(sampled_transport, psi0, TimeGrid(sampled_transport.T, 1000)).final_state
    assert np.array_equal(on_disk, in_memory)


def test_cosine_schedule_has_no_profile_lines(tmp_path, ref_prep_schedule):
    path = tmp_path / "s.csv"
    write_schedule(path, ref_prep_schedule)
    assert "profile" not in path.read_text()
    assert read_schedule(path).meta.profile is None


def test_sampled_schedule_without_profile_lines_reads_as_before(tmp_path, capsys, sampled_transport):
    path = tmp_path / "s.csv"
    write_schedule(path, sampled_transport)
    lines = [line for line in path.read_text().splitlines() if not line.startswith("# profile_")]
    old = tmp_path / "old.csv"
    old.write_text("\n".join(lines) + "\n")
    back = read_schedule(old)
    assert back.meta.profile is None and back.angles() is None
    assert main(["verify", "--schedule", str(old)]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("profile_s", "0.0,0.2,x,0.8,1.0"),
        ("profile_s", ""),
        ("profile_s", "0.0,0.5,0.2,0.8,1.0"),
        ("profile_s", "0.0,0.2,nan,0.8,1.0"),
        ("profile_gamma", "0.0,0.1,0.7"),
        ("profile_gamma", "0.0,0.1,0.7,1.4,1.0"),
        ("profile_gamma", "0.0,0.1,inf,1.4,1.5707963267948966"),
    ],
    ids=["not-a-float", "empty", "not-increasing", "nan-knot", "length", "end-value", "inf-knot"],
)
def test_bad_profile_names_file_and_key(tmp_path, sampled_transport, key, value):
    path = tmp_path / "s.csv"
    write_schedule(path, sampled_transport)
    lines = [f"# {key}={value}" if line.startswith(f"# {key}=") else line
             for line in path.read_text().splitlines()]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleFormatError, match=rf"bad\.csv.*{key}"):
        read_schedule(bad)


def test_half_a_profile_names_the_missing_key(tmp_path, sampled_transport):
    path = tmp_path / "s.csv"
    write_schedule(path, sampled_transport)
    lines = [line for line in path.read_text().splitlines() if not line.startswith("# profile_gamma=")]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleFormatError, match=r"bad\.csv.*profile_gamma"):
        read_schedule(bad)


# ------------------------------------------------------------ non-finite controls


def test_non_finite_control_names_time_without_warning(ref_prep_schedule, ref_params):
    tau = ref_prep_schedule.tau.copy()
    alpha = ref_prep_schedule.alpha.copy()
    tau[10] = math.inf
    alpha[20] = _complex(np.array(0.0), np.array(-math.inf))
    poisoned = ControlSchedule(params=ref_params, times=ref_prep_schedule.times, tau=tau,
                               alpha=alpha, meta=ref_prep_schedule.meta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="not finite at t = "):
            integrate(poisoned, np.array([1.0, 0.0, 0.0, 0.0]))
