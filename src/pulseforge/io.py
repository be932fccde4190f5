"""File formats: schedule files, trajectory exports, and plan documents.

Schedule files are plain text: `# key=value` header lines followed by a CSV
body `t,tau,re_alpha,im_alpha`.  Floats are written as `repr` spells them,
which round-trips exactly, so a schedule read back from disk simulates
bit-identically to the in-memory original.  A sampled-ansatz schedule also
carries its profile knots in `profile_s` and `profile_gamma` header lines.

Each numeric writer (schedule body and knots, trajectory CSV and JSON)
stacks its cells into a float table and formats it with `_repr_dumps`, one
orjson call per block of rows (flattened), writing each chunk as it comes.
orjson writes the shortest round-trip digits, the same digits as `repr`,
and spells a cell differently only in known magnitude classes.  One comma
scan gives every cell's end, and each fix goes in by index from there,
picked by the cell's magnitude, so the bytes are those of calling `repr`
cell by cell, with no regex or replace pass over the text.  A CSV row ends
where a newline is written over every ncol-th comma; the JSON export takes
orjson's indented layout, which is that of `json.dumps(payload, indent=2)`.

The reader splits lines at "\n" alone, and refuses a body of more lines
than `synth.SAMPLE_BUDGET` before it splits it.  It takes the header lines
up to the column line, then
parses the whole body in one `np.loadtxt` call, which rounds each cell
exactly as `float()` does.  A body that call refuses is read again a line
at a time, counting the file's own lines: the first line with a cell that
is not a float, or without 4 cells, is reported as `file:line:` followed by
the parser's reason.

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
from .synth import ANSATZ_FAMILIES, SAMPLE_BUDGET, AnsatzSpec, ControlSchedule, ScheduleMeta

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

# Where orjson's spelling of a float differs from repr's, by magnitude: from
# 1e16 its exponent has no "+" (from 1e100 it has three digits), in [1e-9,
# 1e-5) a one-digit negative exponent has no leading 0, in [1e-5, 1e-4) it
# writes the cell positionally (0.000015 for 1.5e-05), and a non-finite cell
# as null.  Both write the shortest round-trip digits, so a float's exponent
# reaches an edge exactly when the float reaches the edge's own float.
_PLUS_FROM, _THREE_DIGITS_FROM = 1e16, 1e100
_ONE_DIGIT_FROM, _BAND_FROM, _BAND_TO = 1e-9, 1e-5, 1e-4
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_COMMA = ord(",")


def _repr_dumps(cells: np.ndarray, ncol: int = 1, layout: str = "flat") -> memoryview:
    """orjson's bytes for the flat float array ``cells``, ``ncol`` cells a
    row, with each cell spelled as `repr` spells it.

    ``layout`` is ``"flat"``, orjson's ``[a,b,...]``; ``"csv"``, the same
    with a newline for the comma (or bracket) after each row; or ``"json"``,
    orjson's indented layout of ``[rows]`` (of ``[cells]`` where ``ncol`` is
    1), whose inner list is what json.dumps(indent=2) writes for a key
    holding the rows, with json's words for the non-finite cells.  The
    bytes are a writable view, which slicing does not copy.

    One comma scan gives every cell's end, and each fix is placed by index
    from it, picked by the cells' magnitudes: a ``+`` two bytes before the
    end (three from 1e100), or a ``0`` one byte before it.  The rare cells
    orjson spells another way are dumped as 0.0, and repr's word is spliced
    in for those three bytes.
    """
    import orjson

    mag = np.abs(cells)
    rare = ~(mag < np.inf) | ((mag >= _BAND_FROM) & (mag < _BAND_TO))
    any_rare = rare.any()
    dumped = np.where(rare, 0.0, cells) if any_rare else cells
    # each cell ends at the comma after it, the last one at the closing
    # bracket, or in the indented layout at the newline before the brackets
    if layout == "json":
        raw = orjson.dumps(dumped.reshape(1, -1, ncol) if ncol > 1 else dumped.reshape(1, -1),
                           option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2)
        ends = np.append(np.flatnonzero(np.frombuffer(raw, np.uint8) == _COMMA), len(raw) - 6)
        # a row's last cell ends 6 bytes ("\n    ]") before the comma after the row
        if ncol > 1:
            ends[ncol - 1::ncol] -= 6
    else:
        raw = orjson.dumps(dumped, option=orjson.OPT_SERIALIZE_NUMPY)
        ends = np.append(np.flatnonzero(np.frombuffer(raw, np.uint8) == _COMMA), len(raw) - 1)
    big = (mag >= _PLUS_FROM) & (mag < np.inf)
    small = (mag >= _ONE_DIGIT_FROM) & (mag < _BAND_FROM)
    fixed = big | small
    if fixed.any():
        # the fixes' offsets increase with the cells', so each inserted byte's
        # place in the output is its offset plus the count inserted before it
        at = ends[fixed] - np.where(big, 2 + (mag >= _THREE_DIGITS_FROM), 1)[fixed]
        at += np.arange(len(at))
        buf = np.empty(len(raw) + len(at), np.uint8)
        kept = np.ones(len(buf), bool)
        kept[at] = False
        buf[kept] = np.frombuffer(raw, np.uint8)
        buf[at] = np.where(big[fixed], ord("+"), ord("0"))
        ends += np.cumsum(fixed)
    else:
        buf = np.frombuffer(bytearray(raw), np.uint8)
    if layout == "csv":
        buf[ends[ncol - 1::ncol]] = ord("\n")
    if not any_rare:
        return memoryview(buf)
    words = _JSON_WORDS if layout == "json" else {}
    parts, last = [], 0
    for end, x in zip(ends[rare].tolist(), cells[rare].tolist()):
        word = repr(x)
        parts += (buf[last:end - 3], words.get(word, word).encode())
        last = end
    parts.append(buf[last:])
    return memoryview(bytearray().join(parts))


# rows formatted per orjson call: the writers hold a block's few buffers at a
# time, not several copies of the whole export
_ROW_BLOCK = 512


def _formatted(table: np.ndarray, layout: str):
    """A float table (or column) in the ``"csv"`` or ``"json"`` layout of
    `_repr_dumps`, a block of rows at a time: CSV lines, or a JSON key's list."""
    table = table.reshape(len(table), -1)
    for start in range(0, len(table), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        chunk = _repr_dumps(np.ascontiguousarray(table[start:stop]).ravel(), table.shape[1], layout)
        if layout == "csv":
            yield chunk[1:]
            continue
        # the list inside orjson's "[\n  [...]\n]": a block after the first
        # drops its "[", and one before the last its "\n  ]" for a comma
        if stop < len(table):
            chunk[-6] = _COMMA
        yield chunk[4 if start == 0 else 5:-2 if stop >= len(table) else -5]


def _float_list(values) -> str:
    return bytes(_repr_dumps(np.ascontiguousarray(values, dtype=float))[1:-1]).decode()


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
    _atomic_write(path, itertools.chain([("\n".join(lines) + "\n").encode()], _formatted(table, "csv")))


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


def _body_lines(raw: str) -> int:
    """How many lines of ``raw`` follow its first line that is neither blank
    nor a comment (the column line), counted by their ends, without a split."""
    pos = 0
    while (end := raw.find("\n", pos)) >= 0:
        line = raw[pos:end].strip()
        pos = end + 1
        if line and not line.startswith("#"):
            return raw.count("\n", pos) + (not raw.endswith("\n"))
    return 0


def read_schedule(path: str | Path) -> ControlSchedule:
    """Parse a schedule file; raises ScheduleFormatError on malformed input."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScheduleFormatError(f"cannot read schedule file {path}: {exc}") from exc
    # no writer makes more samples than the budget; a longer body is refused
    # before its lines are split, which costs over 100 bytes a line.  Text
    # mode has made every line end "\n", and only "\n" ends a line, so the
    # count and the split agree (str.splitlines also breaks at form feeds)
    if _body_lines(raw) > SAMPLE_BUDGET:
        raise ScheduleFormatError(f"{path}: more than {SAMPLE_BUDGET} lines follow the column header")
    lines = raw.split("\n")
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
    _atomic_write(Path(path), itertools.chain([TRAJECTORY_COLUMNS.encode() + b"\n"], _formatted(table, "csv")))


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
    """The trajectory JSON export of ``table``, a key at a time."""
    for k, (key, cols) in enumerate(_TRAJECTORY_JSON):
        yield (b",\n" if k else b"{\n") + f'  "{key}": '.encode()
        yield from _formatted(table[:, cols], "json")
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
