"""Numeric writers against per-cell reference writers, the sampled-ansatz
profile's disk round trip, and the schedule reader."""

import json
import math
import os
import re
import stat
import struct
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pulseforge import AnsatzSpec, SystemParams, TransportSpec, synthesize_gate
from pulseforge.cli import main
from pulseforge.dqd import check_normalized
from pulseforge.errors import IntegrationError, ScheduleFormatError
from pulseforge.io import (
    SCHEDULE_COLUMNS,
    TRAJECTORY_COLUMNS,
    _ROW_BLOCK,
    _formatted,
    _repr_dumps,
    read_schedule,
    write_json,
    write_schedule,
    write_trajectory_csv,
    write_trajectory_json,
)
from pulseforge.propagate import FidelityTrace, TimeGrid, integrate
from pulseforge.synth import SAMPLE_BUDGET, ControlSchedule, ScheduleMeta
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


# ------------------------------------------------- the formatter, cell by cell

# every float64, NaN payloads and both infinities included
BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# repr writes exponent form below 1e-4, orjson only below 1e-5
BAND = st.builds(lambda x, negative: -x if negative else x,
                 st.floats(1e-5, 1e-4, exclude_max=True), st.booleans())
# one-, two- and three-digit exponents of both signs; past the float range
# a value parses as 0 or inf, which the other draws also cover
EXPONENTS = st.builds(lambda mantissa, exponent, negative: float(f"{'-' if negative else ''}{mantissa!r}e{exponent}"),
                      st.floats(1.0, 10.0, exclude_max=True), st.integers(-330, 310), st.booleans())
SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_subnormal=True)
EDGES = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-5, 1e-4, 1e16,
                         9999999999999998.0, 1.7976931348623157e308])
CELLS = st.one_of(BIT_PATTERNS, BAND, EXPONENTS, SUBNORMALS, EDGES)


@settings(deadline=None, max_examples=300)
@given(st.lists(CELLS, min_size=1, max_size=40))
@example([1.5e-05, -1e-05, 1e-07, -9.5e-09, 1e+16, -2.5e+100, 1e-100, 3e-310, math.nan, math.inf, -math.inf,
          -0.0, 10.00001, 1000000000.0000002])
def test_formatter_matches_repr_cell_by_cell(cells):
    assert _repr_dumps(np.array(cells, dtype=float))[1:-1] == ",".join(map(repr, cells)).encode()


def test_writers_match_reference_across_row_blocks():
    # the writers format a block of rows per call; these rows span three
    rows = 2 * _ROW_BLOCK + 76
    rng = np.random.default_rng(3)
    table = rng.normal(size=(rows, 17)) * 10.0 ** rng.integers(-12, 12, size=(rows, 17))
    table[_ROW_BLOCK - 1, 3], table[_ROW_BLOCK, 16], table[-1, 0] = 1.5e-05, math.nan, -math.inf
    parts = _trajectory_parts(table)
    assert _written(write_trajectory_csv, *parts) == reference_trajectory_csv(*parts).encode()
    assert _written(write_trajectory_json, *parts) == reference_trajectory_json(*parts).encode()


# the edges of the magnitude classes the formatter fixes by index, and the
# float next to each toward zero, which falls in the class below
CLASS_EDGES = [1e-9, 1e-5, 1e-4, 1e16, 1e100]
EDGE_CELLS = [sign * x for edge in CLASS_EDGES for x in (edge, float(np.nextafter(edge, 0.0))) for sign in (1.0, -1.0)]
EDGE_CELLS += [5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 0.0, -0.0, math.nan, math.inf, -math.inf]


def _reference_rows(table):
    """CSV lines of ``table``, `repr` cell by cell."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def _edge_table(ncol, rows, seed):
    """``rows`` x ``ncol`` cells, about half of them class edges, the rest spread over 1e-12..1e20."""
    rng = np.random.default_rng(seed)
    spread = rng.normal(size=rows * ncol) * 10.0 ** rng.uniform(-12, 20, size=rows * ncol)
    edges = rng.choice(np.array(EDGE_CELLS), size=rows * ncol)
    return np.where(rng.random(rows * ncol) < 0.5, edges, spread).reshape(rows, ncol)


@pytest.mark.parametrize("ncol", range(1, 18))
def test_formatter_fixes_every_class_edge_in_both_layouts(ncol):
    # three blocks of rows: the first, a middle one and the last
    table = _edge_table(ncol, 2 * _ROW_BLOCK + 1, seed=ncol)
    assert b"".join(_formatted(table, "csv")) == _reference_rows(table)
    column = table[:, 0] if ncol == 1 else table
    field = b"".join(_formatted(column, "json"))
    assert b'{\n  "k": ' + field + b"\n}" == json.dumps({"k": column.tolist()}, indent=2).encode()
    if ncol == 17:
        parts = _trajectory_parts(table)
        assert _written(write_trajectory_csv, *parts) == reference_trajectory_csv(*parts).encode()
        assert _written(write_trajectory_json, *parts) == reference_trajectory_json(*parts).encode()


def test_every_edge_cell_alone_and_at_each_end_of_a_block():
    for cell in EDGE_CELLS:
        assert bytes(_repr_dumps(np.array([cell]))[1:-1]) == repr(cell).encode()
    table = np.zeros((_ROW_BLOCK + 1, 2))
    for cell in EDGE_CELLS:
        table[[0, _ROW_BLOCK - 1, _ROW_BLOCK], [0, 1, 1]] = cell
        assert b"".join(_formatted(table, "csv")) == _reference_rows(table)
        text = b'{\n  "k": ' + b"".join(_formatted(table, "json")) + b"\n}"
        assert text == json.dumps({"k": table.tolist()}, indent=2).encode()


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


# ------------------------------------------------------------------ the reader


@st.composite
def schedules_with_non_finite_cells(draw):
    s = draw(schedules())
    cols = [np.array(draw(st.lists(NON_FINITE, min_size=s.n_samples, max_size=s.n_samples)))
            for _ in range(3)]
    return ControlSchedule(params=s.params, times=s.times, tau=cols[0],
                           alpha=_complex(cols[1], cols[2]), meta=s.meta)


def _body_cells(text):
    """Each body cell of a schedule file through float(), as a (n, 4) table."""
    lines = text.splitlines()
    rows = lines[lines.index(SCHEDULE_COLUMNS) + 1:]
    return np.array([[float(cell) for cell in row.split(",")] for row in rows])


def _read_table(schedule):
    return np.column_stack((schedule.times, schedule.tau, schedule.alpha.real, schedule.alpha.imag))


@settings(deadline=None)
@given(schedules_with_non_finite_cells())
def test_reader_is_bit_equal_to_float_of_each_cell(schedule):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.csv"
        write_schedule(path, schedule)
        expected = _body_cells(path.read_text())
        back = read_schedule(path)
    assert np.array_equal(_read_table(back).view(np.uint64), expected.view(np.uint64))


def test_reader_skips_blank_lines_and_reads_crlf(tmp_path, ref_prep_schedule):
    path = tmp_path / "s.csv"
    write_schedule(path, ref_prep_schedule)
    lines = path.read_text().splitlines()
    k = lines.index(SCHEDULE_COLUMNS)
    lines[k + 3:k + 3] = ["", "   ", "# a comment"]
    lines[k + 1:k + 1] = [""]
    odd = tmp_path / "odd.csv"
    odd.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
    back = read_schedule(odd)
    assert np.array_equal(_read_table(back), _read_table(ref_prep_schedule))
    assert back.meta.theta == ref_prep_schedule.meta.theta


@pytest.mark.parametrize(
    "row, cells, reason",
    [
        (2, "1e-12,x,0.0,0.0", "could not convert string 'x'"),
        (0, "0.0,0.0,0.0", "expected 4 columns, got 3"),
        (3, "1e-12,0.0,0.0", "expected 4 columns, got 3"),
        (3, "1e-12,0.0,0.0,0.0,0.0", "expected 4 columns, got 5"),
        (4, "1e-12,0.0,,0.0", "could not convert string ''"),
    ],
    ids=["bad-cell", "first-row-3-columns", "3-columns", "5-columns", "empty-cell"],
)
def test_bad_body_row_names_file_and_line(tmp_path, ref_prep_schedule, row, cells, reason):
    path = tmp_path / "s.csv"
    write_schedule(path, ref_prep_schedule)
    lines = path.read_text().splitlines()
    k = lines.index(SCHEDULE_COLUMNS)
    # a blank line and a comment before the bad row shift it off its data-row index
    lines[k + 1:k + 1] = ["", "# note"]
    bad_index = k + 3 + row
    lines[bad_index] = cells
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleFormatError, match=rf"bad\.csv:{bad_index + 1}: {re.escape(reason)}"):
        read_schedule(bad)


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("row, value", [(10, "nan"), (-1, "inf")], ids=["nan-time", "inf-last-time"])
def test_non_finite_time_exits_2(tmp_path, capsys, ref_prep_schedule, command, row, value):
    path = tmp_path / "s.csv"
    write_schedule(path, ref_prep_schedule)
    lines = path.read_text().splitlines()
    k = lines.index(SCHEDULE_COLUMNS)
    row = row if row >= 0 else len(lines) - k - 2
    cells = lines[k + 1 + row].split(",")
    cells[0] = value
    lines[k + 1 + row] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleFormatError, match=r"bad\.csv: schedule time .* is not finite"):
        read_schedule(bad)
    assert main([command, "--schedule", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "bad.csv" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_schedule_and_grid_reject_non_finite_times(ref_params, value):
    with pytest.raises(ValueError, match="not finite"):
        ControlSchedule(params=ref_params, times=[0.0, value, 2.0], tau=[0.0] * 3, alpha=[0.0] * 3)
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(value)


def test_a_reworded_whole_body_error_still_names_the_line(tmp_path, ref_prep_schedule, monkeypatch):
    path = tmp_path / "s.csv"
    write_schedule(path, ref_prep_schedule)
    lines = path.read_text().splitlines()
    k = lines.index(SCHEDULE_COLUMNS)
    lines[k + 5] = "1e-12,x,0.0,0.0"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    loadtxt = np.loadtxt

    def reworded(rows, *args, **kwargs):
        # the whole body fails with a message naming no row; one line reaches numpy
        if len(rows) > 1:
            raise ValueError("reworded")
        return loadtxt(rows, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", reworded)
    with pytest.raises(ScheduleFormatError, match=rf"bad\.csv:{k + 6}: could not convert string 'x'"):
        read_schedule(bad)


def test_a_body_past_the_sample_budget_is_refused_before_it_is_parsed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "long.csv"
    path.write_text(f"# delta={REF_DELTA!r}\n{SCHEDULE_COLUMNS}\n" + "0.0,0.0,0.0,0.0\n" * (SAMPLE_BUDGET + 1))

    def no_parse(*args, **kwargs):
        raise AssertionError("the body was parsed")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    with pytest.raises(ScheduleFormatError, match=rf"long\.csv: more than {SAMPLE_BUDGET} lines"):
        read_schedule(path)
    assert main(["verify", "--schedule", str(path)]) == 2
    assert "long.csv" in capsys.readouterr().err


@pytest.mark.parametrize("end", ["\n", ""], ids=["terminated", "unterminated"])
def test_the_budget_counts_every_line_after_the_column_header(tmp_path, monkeypatch, end):
    monkeypatch.setattr("pulseforge.io.SAMPLE_BUDGET", 4)
    header = f"# delta={REF_DELTA!r}\n\n# note\n{SCHEDULE_COLUMNS}\n"
    rows = [f"{k * 1e-12!r},0.0,0.0,0.0" for k in range(3)]
    path = tmp_path / "s.csv"
    # three samples and a blank line are four lines: within the budget
    path.write_text(header + "\n".join(rows[:1] + [""] + rows[1:]) + end)
    assert read_schedule(path).n_samples == 3
    path.write_text(header + "\n".join(rows[:1] + ["", "# a comment"] + rows[1:]) + end)
    with pytest.raises(ScheduleFormatError, match=r"s\.csv: more than 4 lines"):
        read_schedule(path)


def test_a_form_feed_does_not_end_a_line_past_the_budget(tmp_path, monkeypatch):
    # str.splitlines breaks at a form feed; the budget's count does not
    monkeypatch.setattr("pulseforge.io.SAMPLE_BUDGET", 3)
    path = tmp_path / "ff.csv"
    rows = "\f".join(f"{k * 1e-12!r},0.0,0.0,0.0" for k in range(6))
    path.write_text(f"# delta={REF_DELTA!r}\n{SCHEDULE_COLUMNS}\n{rows}\n")
    with pytest.raises(ScheduleFormatError, match=r"ff\.csv:3: could not convert string"):
        read_schedule(path)


_BAD_ROWS = {
    "1e-12,x,0.0,0.0": "could not convert string 'x'",
    "1e-12,0.0,,0.0": "could not convert string ''",
    "1_0,0.0,0.0,0.0": "could not convert string '1_0'",
    "1e-12,0.0,0.0": "expected 4 columns, got 3",
    "1e-12,0.0,0.0,0.0,0.0": "expected 4 columns, got 5",
}
_FILLERS = ("", "   ", "#", "# a comment")


@settings(deadline=None)
@given(
    n_rows=st.integers(1, 6),
    data=st.data(),
    bad=st.sampled_from(sorted(_BAD_ROWS)),
)
def test_the_error_names_the_bad_row_among_blank_comment_and_crlf_lines(n_rows, data, bad):
    at = data.draw(st.integers(0, n_rows), label="bad position")
    rows = [f"{k * 1e-12!r},0.0,0.0,0.0" for k in range(n_rows)]
    rows.insert(at, bad)
    lines = ["# delta=1.0", SCHEDULE_COLUMNS]
    for k, row in enumerate(rows):
        lines += data.draw(st.lists(st.sampled_from(_FILLERS), max_size=3), label="fillers")
        if k == at:
            lineno = len(lines) + 1
        lines.append(row)
    lines += data.draw(st.lists(st.sampled_from(_FILLERS), max_size=3), label="trailing fillers")
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)),
                     label="line ends")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.csv"
        path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode())
        with pytest.raises(ScheduleFormatError, match=rf"bad\.csv:{lineno}: {re.escape(_BAD_ROWS[bad])}"):
            read_schedule(path)


@pytest.mark.parametrize(
    "cells, cell, column",
    [
        ("x,0.0,0.0,0.0", "x", "t"),
        ("1e-12,x,0.0,0.0", "x", "tau"),
        ("1e-12,0.0,,0.0", "", "re_alpha"),
        ("1e-12,0.0,0.0,1_0 # note", "1_0 ", "im_alpha"),
    ],
    ids=["t", "tau", "re_alpha-empty", "im_alpha-before-a-comment"],
)
def test_a_bad_cell_is_named_by_its_column_header(tmp_path, ref_prep_schedule, cells, cell, column):
    path = tmp_path / "s.csv"
    write_schedule(path, ref_prep_schedule)
    lines = path.read_text().splitlines()
    k = lines.index(SCHEDULE_COLUMNS)
    lines[k + 5] = cells
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleFormatError) as exc:
        read_schedule(bad)
    # the file's line and the column's header, and no row or column of numpy's own
    assert str(exc.value) == f"{bad}:{k + 6}: could not convert string {cell!r} to float64 in column {column}"


def test_writers_give_new_files_the_mode_a_plain_open_gives(tmp_path, ref_prep_schedule):
    # 0o666 less the umask, as open(path, "w") makes a file, whatever the umask
    traj = integrate(ref_prep_schedule, np.array([1, 0, 0, 0], dtype=complex), TimeGrid(ref_prep_schedule.T / 250, 16))
    fidelity = FidelityTrace(times=traj.times, fidelity=np.ones(len(traj.times)))
    tau, alpha = ref_prep_schedule.controls_at(traj.times)
    for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
        out = tmp_path / f"umask{umask:03o}"
        saved = os.umask(umask)
        try:
            write_schedule(out / "s.csv", ref_prep_schedule)
            write_trajectory_csv(out / "t.csv", traj, tau, alpha, fidelity)
            write_json(out / "r.json", {"ok": True})
        finally:
            os.umask(saved)
        modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in out.iterdir()}
        assert modes == {"s.csv": mode, "t.csv": mode, "r.json": mode}
