"""File formats: schedule files, trajectory exports, and plan documents.

Schedule files are plain text: `# key=value` header lines followed by a CSV
body `t,tau,re_alpha,im_alpha`.  Floats are written as `repr` spells them,
which round-trips exactly, so a schedule read back from disk simulates
bit-identically to the in-memory original.  A sampled-ansatz schedule also
carries its profile knots in `profile_s` and `profile_gamma` header lines.

Each numeric writer (schedule body and knots, trajectory CSV and JSON)
stacks its cells into float arrays and formats them with `_repr_dumps`, a
block of rows (a JSON key) per call, writing each chunk as it comes.
orjson writes the shortest round-trip digits, the same digits as `repr`;
whole-buffer byte rewrites then give the exponents, the [1e-5, 1e-4) band
and the non-finite cells `repr`'s spelling, so the bytes are those of
calling `repr` cell by cell.  The JSON export is laid out exactly as
`json.dumps(payload, indent=2)` lays it out.

The reader takes the header lines up to the column line, then parses the
whole body in one `np.loadtxt` call, which rounds each cell exactly as
`float()` does.  A body that call refuses is read again a line at a time,
counting the file's own lines: the first line with a cell that is not a
float, or without 4 cells, is reported as `file:line:` followed by the
parser's reason.

Plans are JSON.  Angles accept plain numbers (radians) or literals such as
"90deg", "0.5pi", "pi/3"; complex amplitudes accept numbers, "re+imj"
strings (i or j), [re, im] pairs, or {"abs": ..., "phase": ...} objects.
Every plan number must come out finite; anything else is a PlanError.

A writer that cannot write its file (a directory that cannot be made, a
full disk, a failed rename) raises PulseforgeError naming the path, not the
OSError it met; a reader that cannot read or decode its file raises
ScheduleFormatError or PlanError naming the file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dqd import SystemParams
from .errors import InvalidAnsatzError, PlanError, PulseforgeError, ScheduleFormatError
from .propagate import FidelityTrace, Trajectory
from .synth import ANSATZ_FAMILIES, AnsatzSpec, ControlSchedule, ScheduleMeta

# CODATA 2018 values, as scipy.constants reports them; a literal keeps scipy
# out of the import path of every command
HBAR_SI = 1.0545718176461565e-34
MU_BOHR_SI = 9.2740100657e-24

_PI_LITERAL = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|[+-]?)pi(?:/(?P<den>(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?))?"
)


def _plan_number(value, what: str) -> float:
    """A finite float from a plan value: a number or a numeric string.

    Anything else (null, a boolean, a list, text, nan, inf, an integer too
    large for a float) raises PlanError naming ``what``.
    """
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise PlanError(f"{what} must be a finite number, got {value!r}")


def parse_angle(value) -> float:
    """Finite angle in radians from a number or a deg/pi-suffixed literal."""
    angle = value
    if isinstance(value, str):
        angle = value.strip().lower().replace(" ", "")
        m = _PI_LITERAL.fullmatch(angle)
        try:
            if m:
                coeff = {"": 1.0, "+": 1.0, "-": -1.0}.get(m.group("num"))
                angle = (float(m.group("num")) if coeff is None else coeff) * math.pi
                if m.group("den"):
                    angle /= float(m.group("den"))
            elif angle.endswith("deg"):
                angle = math.radians(float(angle[:-3]))
        except (ValueError, ZeroDivisionError):
            raise PlanError(f"cannot parse angle literal {value!r}") from None
    return _plan_number(angle, "angle")


def parse_complex(value) -> complex:
    """Finite complex amplitude from a number, string, [re, im], or abs/phase object."""
    if isinstance(value, (int, float)):
        return complex(_plan_number(value, "complex amplitude"))
    if isinstance(value, str):
        s = value.strip().replace(" ", "").replace("i", "j").replace("I", "j")
        try:
            z = complex(s)
        except ValueError:
            raise PlanError(f"cannot parse complex literal {value!r}") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise PlanError(f"complex amplitude must be finite, got {value!r}")
        return z
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_plan_number(value[0], "real part"), _plan_number(value[1], "imaginary part"))
    if isinstance(value, dict):
        if "abs" in value and "phase" in value:
            return _plan_number(value["abs"], "amplitude abs") * complex(np.exp(1j * parse_angle(value["phase"])))
        if "re" in value or "im" in value:
            return complex(_plan_number(value.get("re", 0.0), "re"), _plan_number(value.get("im", 0.0), "im"))
    raise PlanError(f"cannot parse complex literal {value!r}")


def zeeman_splitting(b_field_mT: float, g_factor: float) -> float:
    """Zeeman splitting mu_B |g* B| / hbar in rad/s from field and g-factor."""
    b_tesla = float(b_field_mT) * 1e-3
    return MU_BOHR_SI * abs(float(g_factor) * b_tesla) / HBAR_SI


@contextlib.contextmanager
def _naming_write_errors(path: Path):
    """Raise an OSError of the block as a PulseforgeError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise PulseforgeError(f"cannot write {path}: {exc}") from exc


def _atomic_write(path: Path, chunks) -> None:
    """Write an iterable of bytes chunks to ``path`` through a temp file and a rename.

    An OSError from making the directory or the temp file, a write or the
    rename (a parent that is a regular file, a full disk) is raised as a
    PulseforgeError naming ``path``; one raised while ``chunks`` produces
    its data is raised as it is.  A failed write leaves no temp file.
    """
    tmp = None
    try:
        with _naming_write_errors(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            f = os.fdopen(fd, "wb")
        with f:
            for chunk in chunks:
                with _naming_write_errors(path):
                    f.write(chunk)
            with _naming_write_errors(path):
                f.flush()
        with _naming_write_errors(path):
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise


SCHEDULE_COLUMNS = "t,tau,re_alpha,im_alpha"

# orjson writes 1e16 and 1e-7 where repr writes 1e+16 and 1e-07; both take
# an exponent only from 1e16 up, so a positive one has two digits or three.
# Each pattern starts with a literal, which regex search skips to.
_EXP_POSITIVE = re.compile(rb"e(?=\d)")
_EXP_NEGATIVE_ONE_DIGIT = re.compile(rb"e-(?=\d\b)")
# orjson writes [1e-5, 1e-4) positionally, 0.000015 for repr's 1.5e-05
_BAND_TAIL = re.compile(rb"\.0000(\d)(\d*)")
_DIGITS = frozenset(b"0123456789")


def _band_to_exponent(buf: bytes) -> bytes:
    """``buf`` with each cell 0.0000d... respelled d....e-05, as repr spells it."""
    parts, last = [], 0
    for m in _BAND_TAIL.finditer(buf):
        # the cell is exactly "0" before the point; 10.00001 is not in the band
        zero = m.start() - 1
        if buf[zero] != ord("0") or (zero and buf[zero - 1] in _DIGITS):
            continue
        lead, rest = m.groups()
        parts += (buf[last:zero], lead, b"." + rest if rest else b"", b"e-05")
        last = m.end()
    parts.append(buf[last:])
    return b"".join(parts)


def _repr_dumps(data, indent: bool = False) -> bytes:
    """orjson's bytes for ``data``, every float cell spelled as `repr` spells it.

    ``data`` is a C-contiguous float array or a dict of them.  orjson writes
    a non-finite cell as null; it comes back as repr's nan, inf or -inf.
    """
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_INDENT_2 if indent else 0)
    buf = orjson.dumps(data, option=option)
    # each rewrite runs only where its cells occur; both formats switch to
    # exponent form at 1e16 exactly, and orjson's positional band is
    # [1e-5, 1e-4) exactly
    arrays = list(data.values()) if isinstance(data, dict) else [data]
    magnitudes = [np.abs(a) for a in arrays]
    if any((m >= 1e16).any() for m in magnitudes):
        buf = _EXP_POSITIVE.sub(b"e+", buf)
    buf = _EXP_NEGATIVE_ONE_DIGIT.sub(b"e-0", buf)
    if any(((m >= 1e-5) & (m < 1e-4)).any() for m in magnitudes):
        buf = _band_to_exponent(buf)
    if not all(np.isfinite(m).all() for m in magnitudes):
        cells = np.concatenate([a.ravel() for a in arrays])
        words = [repr(x).encode() for x in cells[~np.isfinite(cells)].tolist()]
        parts = buf.split(b"null")
        buf = b"".join(itertools.chain.from_iterable(zip(parts, words))) + parts[-1]
    return buf


# rows formatted per orjson call: the writers hold a block's few buffers at a
# time, not several copies of the whole export
_ROW_BLOCK = 512


def _csv_rows(table: np.ndarray):
    """A C-contiguous 2-d float table as CSV lines of `repr` cells, a block of rows at a time."""
    for start in range(0, len(table), _ROW_BLOCK):
        # orjson writes [[a,b],[c,d]]
        yield _repr_dumps(table[start:start + _ROW_BLOCK])[2:-2].replace(b"],[", b"\n") + b"\n"


def _float_list(values) -> str:
    return _repr_dumps(np.ascontiguousarray(values, dtype=float))[1:-1].decode()


def write_schedule(path: str | Path, schedule: ControlSchedule) -> None:
    """Write a schedule file atomically (temp file then rename)."""
    path = Path(path)
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
    if meta.ansatz == "sampled" and meta.profile is not None:
        s, g = meta.profile
        lines.append(f"# profile_s={_float_list(s)}")
        lines.append(f"# profile_gamma={_float_list(g)}")
    lines.append(SCHEDULE_COLUMNS)
    table = np.column_stack((schedule.times, schedule.tau, schedule.alpha.real, schedule.alpha.imag))
    _atomic_write(path, itertools.chain([("\n".join(lines) + "\n").encode()], _csv_rows(table)))


def _refused_cell(line: str) -> str:
    """Why loadtxt refuses one body line: the first cell it cannot convert,
    named by its column's header, or else the line's width."""
    # loadtxt's own comment and delimiter rules
    cells = line.partition("#")[0].split(",")
    for k, (cell, name) in enumerate(zip(cells, SCHEDULE_COLUMNS.split(","))):
        try:
            np.loadtxt([line], delimiter=",", usecols=k)
        except ValueError:
            return f"could not convert string {cell!r} to float64 in column {name}"
    return f"expected 4 columns, got {len(cells)}"


def _sample_table(path: Path, body: list[str], first: int) -> np.ndarray:
    """The (n, 4) samples of a schedule body, parsed in one loadtxt call.

    ``body`` holds the stripped lines after the column header, which is
    file line ``first``.  If that call fails or reads another width, the
    body is parsed again a line at a time: the first line that loadtxt
    refuses, or that has other than 4 cells, raises ScheduleFormatError
    naming its file line (and, for a cell loadtxt cannot convert, the
    column).
    """
    with contextlib.suppress(ValueError):
        table = np.loadtxt(body, delimiter=",", ndmin=2)
        if table.shape[1] == 4:
            return table
    for lineno, line in enumerate(body, first + 1):
        if not line or line.startswith("#"):
            continue
        try:
            row = np.loadtxt([line], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ScheduleFormatError(f"{path}:{lineno}: {_refused_cell(line)}") from exc
        if row.shape[1] != 4:
            raise ScheduleFormatError(f"{path}:{lineno}: expected 4 columns, got {row.shape[1]}")
    raise ScheduleFormatError(f"{path}: the samples do not parse as one table, though each line does")


def read_schedule(path: str | Path) -> ControlSchedule:
    """Parse a schedule file; raises ScheduleFormatError on malformed input."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScheduleFormatError(f"cannot read schedule file {path}: {exc}") from exc
    lines = raw.splitlines()
    header: dict[str, str] = {}
    first = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        if line.replace(" ", "") != SCHEDULE_COLUMNS:
            raise ScheduleFormatError(
                f"{path}:{lineno}: expected column header {SCHEDULE_COLUMNS!r}, got {line!r}"
            )
        first = lineno
        break
    # stripped, a blank line is empty, which loadtxt skips like a comment
    body = [line.strip() for line in lines[first:]] if first is not None else []
    if not any(line and not line.startswith("#") for line in body):
        raise ScheduleFormatError(f"{path}: no schedule samples found")
    table = _sample_table(path, body, first)

    def _number(key: str, kind=float):
        if key not in header:
            return None
        try:
            value = kind(header[key])
        except ValueError as exc:
            raise ScheduleFormatError(f"{path}: bad header value for {key}: {exc}") from exc
        if kind is float and not math.isfinite(value):
            raise ScheduleFormatError(f"{path}: bad header value for {key}: {header[key]!r} is not finite")
        return value

    delta = _number("delta")
    if delta is None:
        raise ScheduleFormatError(f"{path}: missing required header key 'delta'")

    times = table[:, 0]
    tau = table[:, 1]
    # the (re, im) pair read as one complex, without arithmetic: 1j * inf
    # would turn an infinite imaginary part into a nan real part
    alpha = np.ascontiguousarray(table[:, 2:]).view(complex)[:, 0]

    t_header = _number("T")
    span = float(times[-1])
    if t_header is not None and not abs(t_header - span) <= 1e-12 * abs(span):
        raise ScheduleFormatError(
            f"{path}: header T={t_header!r} disagrees with last sample time {span!r}"
        )
    n_header = _number("n_samples", int)
    if n_header is not None and n_header != len(table):
        raise ScheduleFormatError(
            f"{path}: header n_samples={header['n_samples']} disagrees with {len(table)} rows"
        )

    def _knots(key: str) -> np.ndarray:
        if key not in header:
            raise ScheduleFormatError(f"{path}: missing header key {key!r} of the profile")
        try:
            return np.array([float(x) for x in header[key].split(",")])
        except ValueError as exc:
            raise ScheduleFormatError(f"{path}: bad header value for {key}: {exc}") from exc

    gamma_final = _number("gamma_final")
    profile = None
    if "profile_s" in header or "profile_gamma" in header:
        profile = (_knots("profile_s"), _knots("profile_gamma"))
        if gamma_final is None:
            raise ScheduleFormatError(f"{path}: profile_s/profile_gamma need the gamma_final header")
        try:
            AnsatzSpec(gamma_final=gamma_final, family="sampled", profile=profile)
        except InvalidAnsatzError as exc:
            raise ScheduleFormatError(f"{path}: bad header value for profile_s/profile_gamma: {exc}") from exc

    ansatz = header.get("ansatz", "cosine")
    if ansatz not in ANSATZ_FAMILIES:
        raise ScheduleFormatError(f"{path}: bad header value for ansatz: {ansatz!r} is not one of {ANSATZ_FAMILIES}")
    meta = ScheduleMeta(
        gate=header.get("gate", "raw"),
        theta=_number("theta"),
        gamma_final=gamma_final,
        branch=_number("branch", int) or 0,
        ansatz=ansatz,
        profile=profile,
    )
    try:
        return ControlSchedule(params=SystemParams(delta=delta), times=times, tau=tau, alpha=alpha, meta=meta)
    except ValueError as exc:
        raise ScheduleFormatError(f"{path}: {exc}") from exc


TRAJECTORY_COLUMNS = (
    "t,tau,re_alpha,im_alpha,p1,p2,p3,p4,"
    "re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4,fidelity"
)


# JSON keys of a trajectory export and the table columns each one holds
_TRAJECTORY_JSON = (
    ("t", 0),
    ("tau", 1),
    ("re_alpha", 2),
    ("im_alpha", 3),
    ("populations", slice(4, 8)),
    ("states_re", slice(8, 16, 2)),
    ("states_im", slice(9, 16, 2)),
    ("fidelity", 16),
)


def _trajectory_table(
    traj: Trajectory, tau: np.ndarray, alpha: np.ndarray, fidelity: FidelityTrace
) -> np.ndarray:
    """One row per time step holding the cells of TRAJECTORY_COLUMNS."""
    states = np.ascontiguousarray(traj.states, dtype=complex)
    return np.column_stack((
        traj.times, tau, alpha.real, alpha.imag, traj.populations, states.view(float), fidelity.fidelity,
    ))


def write_trajectory_csv(
    path: str | Path,
    traj: Trajectory,
    tau: np.ndarray,
    alpha: np.ndarray,
    fidelity: FidelityTrace,
) -> None:
    table = _trajectory_table(traj, tau, alpha, fidelity)
    _atomic_write(Path(path), itertools.chain([TRAJECTORY_COLUMNS.encode() + b"\n"], _csv_rows(table)))


def write_trajectory_json(
    path: str | Path,
    traj: Trajectory,
    tau: np.ndarray,
    alpha: np.ndarray,
    fidelity: FidelityTrace,
) -> None:
    """The layout of ``json.dumps(payload, indent=2)``, formatted a key at a time."""
    table = _trajectory_table(traj, tau, alpha, fidelity)
    _atomic_write(Path(path), _json_fields(table))


def _json_fields(table: np.ndarray):
    """The trajectory JSON export of ``table``, one chunk per key."""
    for k, (key, cols) in enumerate(_TRAJECTORY_JSON):
        block = np.ascontiguousarray(table[:, cols])
        # orjson writes {\n  "key": [...]\n}; the field lies between the braces
        field = _repr_dumps({key: block}, indent=True)[2:-2]
        if not np.isfinite(block).all():
            # json spells repr's nan, inf and -inf as NaN, Infinity and -Infinity;
            # no key holds either word
            field = field.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
        yield b",\n" + field if k else b"{\n" + field
    yield b"\n}\n"


def write_json(path: str | Path, payload: dict) -> None:
    _atomic_write(Path(path), [(json.dumps(payload, indent=2) + "\n").encode()])


@dataclass
class StagePlan:
    """One stage of a plan: gate kind plus whatever parameters it declares.

    chi/mu may be omitted for stages after the first in a chain; the chain
    composer derives them from the previous stage's output.  ``branch``
    overrides the command-line branch choice for this stage only.
    """

    gate: str
    ansatz: AnsatzSpec
    target: tuple[complex, complex, complex, complex] | None = None
    chi: float | None = None
    mu: float | None = None
    phase_shift: float = 0.0
    amp_a: float | None = None
    amp_b: float | None = None
    lam: float | None = None
    branch: int | str | None = None


@dataclass
class PlanDocument:
    system: SystemParams
    stages: list[StagePlan] = field(default_factory=list)
    out_dir: str | None = None


_GATE_NAMES = ("prepare", "phase", "not", "transport")


def _parse_ansatz(obj) -> AnsatzSpec:
    if obj is None:
        return AnsatzSpec()
    if not isinstance(obj, dict):
        raise PlanError(f"ansatz must be an object, got {type(obj).__name__}")
    kwargs = {}
    if "gamma_final" in obj:
        kwargs["gamma_final"] = parse_angle(obj["gamma_final"])
    if "family" in obj:
        kwargs["family"] = str(obj["family"])
    for key in ("T", "t_max"):
        if key in obj:
            kwargs[key] = _plan_number(obj[key], f"ansatz.{key}")
    if "n_samples" in obj:
        n_samples = _plan_number(obj["n_samples"], "ansatz.n_samples")
        if not n_samples.is_integer():
            raise PlanError(f"ansatz.n_samples must be a whole number, got {obj['n_samples']!r}")
        kwargs["n_samples"] = int(n_samples)
    if "profile" in obj:
        prof = obj["profile"]
        try:
            s = np.array([_plan_number(x, "profile s") for x in prof["s"]])
            g = np.array([parse_angle(x) for x in prof["gamma"]])
        except (KeyError, TypeError) as exc:
            raise PlanError(f"bad sampled-gamma profile: {exc}") from exc
        kwargs["profile"] = (s, g)
    try:
        return AnsatzSpec(**kwargs)
    except InvalidAnsatzError as exc:
        raise PlanError(f"invalid ansatz: {exc}") from exc


def _parse_stage(obj, index: int) -> StagePlan:
    if not isinstance(obj, dict):
        raise PlanError(f"stage {index}: expected an object")
    gate = obj.get("gate")
    if gate not in _GATE_NAMES:
        raise PlanError(f"stage {index}: gate must be one of {_GATE_NAMES}, got {gate!r}")
    stage = StagePlan(gate=gate, ansatz=_parse_ansatz(obj.get("ansatz")))
    if "branch" in obj:
        b = obj["branch"]
        if not (b == "min-theta" or isinstance(b, int) and not isinstance(b, bool)):
            raise PlanError(f"stage {index}: branch must be 'min-theta' or an integer, got {b!r}")
        stage.branch = b
    if gate == "prepare":
        tgt = obj.get("target")
        if not isinstance(tgt, dict):
            raise PlanError(f"stage {index}: prepare needs a target object with b2, b3")
        if "b2" not in tgt or "b3" not in tgt:
            raise PlanError(f"stage {index}: prepare target must declare b2 and b3")
        stage.target = tuple(
            parse_complex(tgt.get(key, 0.0)) for key in ("b1", "b2", "b3", "b4")
        )
    else:
        if "chi" in obj:
            stage.chi = parse_angle(obj["chi"])
        if "mu" in obj:
            stage.mu = parse_angle(obj["mu"])
        if gate == "phase":
            stage.phase_shift = parse_angle(obj.get("phase_shift", 0.0))
        if gate == "transport":
            for key in ("A", "B", "lambda"):
                if key not in obj:
                    raise PlanError(f"stage {index}: transport needs A, B and lambda")
            stage.amp_a = _plan_number(obj["A"], f"stage {index}: A")
            stage.amp_b = _plan_number(obj["B"], f"stage {index}: B")
            stage.lam = parse_angle(obj["lambda"])
    return stage


def load_plan(path: str | Path) -> PlanDocument:
    """Load and validate a JSON plan document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise PlanError(f"cannot read plan {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlanError(f"plan {path}: top level must be an object")

    system = doc.get("system")
    if not isinstance(system, dict):
        raise PlanError(f"plan {path}: missing system section")
    has_delta = "delta_rad_per_s" in system
    has_field = "b_field_mT" in system or "g_factor" in system
    if has_delta == has_field:
        raise PlanError(
            f"plan {path}: give exactly one of delta_rad_per_s or (b_field_mT + g_factor)"
        )
    if has_delta:
        delta = _plan_number(system["delta_rad_per_s"], "system.delta_rad_per_s")
    else:
        if "b_field_mT" not in system or "g_factor" not in system:
            raise PlanError(f"plan {path}: b_field_mT and g_factor must be given together")
        delta = zeeman_splitting(
            _plan_number(system["b_field_mT"], "system.b_field_mT"), _plan_number(system["g_factor"], "system.g_factor")
        )
    try:
        params = SystemParams(delta=delta)
    except ValueError as exc:
        raise PlanError(f"plan {path}: {exc}") from exc

    stages_obj = doc.get("stages")
    if not isinstance(stages_obj, list) or not stages_obj:
        raise PlanError(f"plan {path}: stages must be a non-empty list")
    stages = [_parse_stage(obj, i) for i, obj in enumerate(stages_obj)]

    io_obj = doc.get("io", {})
    if not isinstance(io_obj, dict):
        raise PlanError(f"plan {path}: io section must be an object")
    out_dir = io_obj.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise PlanError(f"plan {path}: io.out_dir must be a string, got {out_dir!r}")
    return PlanDocument(system=params, stages=stages, out_dir=out_dir)
