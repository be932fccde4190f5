"""File formats: schedule files, trajectory exports, and plan documents.

Schedule files are plain text: `# key=value` header lines followed by a CSV
body `t,tau,re_alpha,im_alpha`.  Floats are written with `repr`, which
round-trips exactly, so a schedule read back from disk simulates
bit-identically to the in-memory original.

Plans are JSON.  Angles accept plain numbers (radians) or literals such as
"90deg", "0.5pi", "pi/3"; complex amplitudes accept numbers, "re+imj"
strings (i or j), [re, im] pairs, or {"abs": ..., "phase": ...} objects.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dqd import SystemParams
from .errors import PlanError, ScheduleFormatError
from .propagate import FidelityTrace, Trajectory
from .synth import AnsatzSpec, ControlSchedule, ScheduleMeta

# CODATA 2018 values, as scipy.constants reports them; a literal keeps scipy
# out of the import path of every command
HBAR_SI = 1.0545718176461565e-34
MU_BOHR_SI = 9.2740100657e-24

_PI_LITERAL = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|[+-]?)pi(?:/(?P<den>(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?))?"
)


def parse_angle(value) -> float:
    """Angle in radians from a number or a deg/pi-suffixed literal."""
    if isinstance(value, bool):
        raise PlanError(f"cannot parse angle literal {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise PlanError(f"cannot parse angle literal {value!r}")
    s = value.strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    if s.endswith("deg"):
        try:
            return math.radians(float(s[:-3]))
        except ValueError:
            raise PlanError(f"cannot parse angle literal {value!r}") from None
    m = _PI_LITERAL.fullmatch(s)
    if m:
        num = m.group("num")
        coeff = {"": 1.0, "+": 1.0, "-": -1.0}.get(num)
        if coeff is None:
            coeff = float(num)
        angle = coeff * math.pi
        if m.group("den"):
            angle /= float(m.group("den"))
        return angle
    raise PlanError(f"cannot parse angle literal {value!r}")


def parse_complex(value) -> complex:
    """Complex amplitude from a number, string, [re, im], or abs/phase object."""
    if isinstance(value, bool):
        raise PlanError(f"cannot parse complex literal {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        s = value.strip().replace(" ", "").replace("i", "j").replace("I", "j")
        try:
            return complex(s)
        except ValueError:
            raise PlanError(f"cannot parse complex literal {value!r}") from None
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            raise PlanError(f"cannot parse complex literal {value!r}") from None
    if isinstance(value, dict):
        if "abs" in value and "phase" in value:
            return float(value["abs"]) * complex(np.exp(1j * parse_angle(value["phase"])))
        if "re" in value or "im" in value:
            return complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
    raise PlanError(f"cannot parse complex literal {value!r}")


def zeeman_splitting(b_field_mT: float, g_factor: float) -> float:
    """Zeeman splitting mu_B |g* B| / hbar in rad/s from field and g-factor."""
    b_tesla = float(b_field_mT) * 1e-3
    return MU_BOHR_SI * abs(float(g_factor) * b_tesla) / HBAR_SI


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


SCHEDULE_COLUMNS = "t,tau,re_alpha,im_alpha"


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
    lines.append(SCHEDULE_COLUMNS)
    for t, tau, alpha in zip(schedule.times, schedule.tau, schedule.alpha):
        # repr of Python floats round-trips exactly; numpy scalars do not
        lines.append(f"{float(t)!r},{float(tau)!r},{float(alpha.real)!r},{float(alpha.imag)!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_schedule(path: str | Path) -> ControlSchedule:
    """Parse a schedule file; raises ScheduleFormatError on malformed input."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ScheduleFormatError(f"cannot read schedule file {path}: {exc}") from exc
    header: dict[str, str] = {}
    rows: list[tuple[float, float, float, float]] = []
    saw_columns = False
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        if not saw_columns:
            if line.replace(" ", "") != SCHEDULE_COLUMNS:
                raise ScheduleFormatError(
                    f"{path}:{lineno}: expected column header {SCHEDULE_COLUMNS!r}, got {line!r}"
                )
            saw_columns = True
            continue
        parts = next(csv.reader([line]))
        if len(parts) != 4:
            raise ScheduleFormatError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ScheduleFormatError(f"{path}:{lineno}: {exc}") from exc
    if not saw_columns or not rows:
        raise ScheduleFormatError(f"{path}: no schedule samples found")

    def _number(key: str, kind=float):
        if key not in header:
            return None
        try:
            return kind(header[key])
        except ValueError as exc:
            raise ScheduleFormatError(f"{path}: bad header value for {key}: {exc}") from exc

    delta = _number("delta")
    if delta is None:
        raise ScheduleFormatError(f"{path}: missing required header key 'delta'")

    times = np.array([r[0] for r in rows])
    tau = np.array([r[1] for r in rows])
    alpha = np.array([complex(r[2], r[3]) for r in rows])

    t_header = _number("T")
    span = float(times[-1])
    if t_header is not None and abs(t_header - span) > 1e-12 * max(1.0, abs(span)):
        raise ScheduleFormatError(
            f"{path}: header T={t_header!r} disagrees with last sample time {span!r}"
        )
    n_header = _number("n_samples", int)
    if n_header is not None and n_header != len(rows):
        raise ScheduleFormatError(
            f"{path}: header n_samples={header['n_samples']} disagrees with {len(rows)} rows"
        )

    meta = ScheduleMeta(
        gate=header.get("gate", "raw"),
        theta=_number("theta"),
        gamma_final=_number("gamma_final"),
        branch=_number("branch", int) or 0,
        ansatz=header.get("ansatz", "cosine"),
    )
    try:
        return ControlSchedule(params=SystemParams(delta=delta), times=times, tau=tau, alpha=alpha, meta=meta)
    except ValueError as exc:
        raise ScheduleFormatError(f"{path}: {exc}") from exc


TRAJECTORY_COLUMNS = (
    "t,tau,re_alpha,im_alpha,p1,p2,p3,p4,"
    "re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4,fidelity"
)


def write_trajectory_csv(
    path: str | Path,
    traj: Trajectory,
    tau: np.ndarray,
    alpha: np.ndarray,
    fidelity: FidelityTrace,
) -> None:
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
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def write_trajectory_json(
    path: str | Path,
    traj: Trajectory,
    tau: np.ndarray,
    alpha: np.ndarray,
    fidelity: FidelityTrace,
) -> None:
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
    _atomic_write(Path(path), json.dumps(payload, indent=2) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    _atomic_write(Path(path), json.dumps(payload, indent=2) + "\n")


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
    if "T" in obj:
        kwargs["T"] = float(obj["T"])
    if "t_max" in obj:
        kwargs["t_max"] = float(obj["t_max"])
    if "n_samples" in obj:
        kwargs["n_samples"] = int(obj["n_samples"])
    if "profile" in obj:
        prof = obj["profile"]
        try:
            s = np.array([float(x) for x in prof["s"]])
            g = np.array([parse_angle(x) for x in prof["gamma"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"bad sampled-gamma profile: {exc}") from exc
        kwargs["profile"] = (s, g)
    try:
        return AnsatzSpec(**kwargs)
    except Exception as exc:
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
            stage.amp_a = float(obj["A"])
            stage.amp_b = float(obj["B"])
            stage.lam = parse_angle(obj["lambda"])
    return stage


def load_plan(path: str | Path) -> PlanDocument:
    """Load and validate a JSON plan document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
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
        delta = float(system["delta_rad_per_s"])
    else:
        if "b_field_mT" not in system or "g_factor" not in system:
            raise PlanError(f"plan {path}: b_field_mT and g_factor must be given together")
        delta = zeeman_splitting(system["b_field_mT"], system["g_factor"])
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
    return PlanDocument(system=params, stages=stages, out_dir=io_obj.get("out_dir"))
