"""Inverse pulse engineering: from a declarative gate target to a sampled
control schedule.

The pipeline is: pick the constant mixing angle theta so the final amplitude
magnitudes come out right (a closed-form inversion of the forward map, which
is linear in cos 2*theta and sin 2*theta), then pick the operation time T so
the Zeeman precession supplies the required relative phase, then sample the
smooth drive-angle ramp gamma(t) into (tau, alpha) arrays.

Phase angles are always extracted as arguments of the complex final
amplitudes rather than from cot/tan expressions, which removes the spurious
singularities of the arctan form at mu -> 0 or chi -> 0.

Every synthesized schedule is checked against the closed-form propagator
before it is returned; a schedule that misses its own target by more than
1e-9 in fidelity raises :class:`~pulseforge.errors.VerificationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dqd import (
    DiamondAngles,
    SystemParams,
    analytic_propagator,
    basis_state,
    drive_controls,
    left_qubit_state,
)
from .errors import (
    DegeneratePhaseError,
    InfeasibleAmplitudeError,
    InvalidAnsatzError,
    NoFeasibleTimeError,
    VerificationError,
)

TWO_PI = 2.0 * math.pi

DEFAULT_N_SAMPLES = 2000

_AMP_TOL = 1e-12


def gamma_ansatz(t, duration: float, gamma_final: float):
    """Smooth ramp gamma(t) = (gamma_final/2) * (1 - cos(pi t / duration)).

    Returns ``(gamma, gamma_dot)`` with the derivative evaluated
    analytically; both ends of the ramp have exactly zero slope, so every
    schedule built from it switches on and off smoothly.  Accepts scalars
    or arrays for ``t``.
    """
    if not duration > 0.0:
        raise InvalidAnsatzError(f"ansatz duration must be positive, got {duration!r}")
    x = math.pi * (np.asarray(t, dtype=float) / duration)
    half = 0.5 * gamma_final
    sin_x = np.sin(x)
    # sin(pi) rounds to ~1.2e-16; the pulse must switch off exactly at t = duration
    sin_x = np.where(x == math.pi, 0.0, sin_x)
    gamma = half * (1.0 - np.cos(x))
    gamma_dot = half * (math.pi / duration) * sin_x
    if np.ndim(t) == 0:
        return float(gamma), float(gamma_dot)
    return gamma, gamma_dot


@dataclass(frozen=True, eq=False)
class AnsatzSpec:
    """Drive-angle ramp family plus timing preferences.

    ``T`` is the requested duration: a lower bound when the gate's phase
    condition quantizes T, the actual duration when the gate leaves T free
    (defaults to one Zeeman period).  ``t_max`` bounds the accepted
    operation time; exceeding it raises
    :class:`~pulseforge.errors.NoFeasibleTimeError`.

    ``profile`` is only used by the "sampled" family: a pair of arrays
    (s, gamma) on the normalized time axis s in [0, 1], interpolated by a
    clamped cubic spline so the end slopes are exactly zero.
    """

    gamma_final: float = 0.5 * math.pi
    family: str = "cosine"
    T: float | None = None
    t_max: float | None = None
    n_samples: int = DEFAULT_N_SAMPLES
    profile: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.family not in ("cosine", "sampled"):
            raise InvalidAnsatzError(f"unknown ansatz family {self.family!r}")
        if self.n_samples < 2:
            raise InvalidAnsatzError("n_samples must be at least 2")
        if self.T is not None and not self.T > 0.0:
            raise InvalidAnsatzError(f"requested duration must be positive, got {self.T!r}")
        if self.t_max is not None:
            if not self.t_max > 0.0:
                raise InvalidAnsatzError("t_max must be positive")
            if self.T is not None and self.T > self.t_max:
                raise InvalidAnsatzError("requested duration exceeds t_max")
        if self.family == "sampled":
            if self.profile is None:
                raise InvalidAnsatzError("sampled family requires a (s, gamma) profile")
            s, g = (np.asarray(a, dtype=float) for a in self.profile)
            if s.ndim != 1 or s.shape != g.shape or s.size < 4:
                raise InvalidAnsatzError("profile needs matching 1-d arrays with >= 4 points")
            if not (np.isfinite(s).all() and np.isfinite(g).all()):
                raise InvalidAnsatzError("profile knots must be finite")
            if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0):
                raise InvalidAnsatzError("profile abscissae must increase strictly from 0 to 1")
            if abs(g[0]) > 1e-9 or abs(g[-1] - self.gamma_final) > 1e-9:
                raise InvalidAnsatzError("profile must run from gamma=0 to gamma=gamma_final")
            object.__setattr__(self, "profile", (s, g))

    def gamma_fn(self, duration: float):
        """Closure t -> (gamma, gamma_dot) for a concrete duration."""
        if not duration > 0.0:
            raise InvalidAnsatzError(f"ansatz duration must be positive, got {duration!r}")
        if self.family == "cosine":
            gamma_final = self.gamma_final

            def fn(t):
                return gamma_ansatz(t, duration, gamma_final)

            return fn
        from scipy.interpolate import CubicSpline

        s, g = self.profile
        spline = CubicSpline(s, g, bc_type=((1, 0.0), (1, 0.0)))
        deriv = spline.derivative()

        def fn(t):
            x = np.asarray(t, dtype=float) / duration
            gamma = spline(x)
            gamma_dot = deriv(x) / duration
            if np.ndim(t) == 0:
                return float(gamma), float(gamma_dot)
            return gamma, gamma_dot

        return fn


@dataclass(frozen=True)
class PrepareSpec:
    """Target right-dot qubit (b2, b3) prepared from |1>; b1 = b4 = 0."""

    b2: complex
    b3: complex

    def __post_init__(self) -> None:
        norm = abs(self.b2) ** 2 + abs(self.b3) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"|b2|^2 + |b3|^2 = {norm!r} must be 1 within 1e-10")


def _validated_qubit(chi: float, mu: float) -> tuple[float, float]:
    if not 0.0 <= chi <= 0.5 * math.pi:
        raise ValueError(f"chi must lie in [0, pi/2], got {chi!r}")
    mu = float(mu) % TWO_PI
    # mu carries no information when the qubit sits on a pole
    if math.sin(chi) * math.cos(chi) < _AMP_TOL:
        mu = 0.0
    return float(chi), mu


@dataclass(frozen=True)
class PhaseGateSpec:
    """Transport plus relative-phase rotation: theta = 0, no spin-flip drive.

    ``phase_shift`` is the added relative phase; the final qubit phase is
    mu + phase_shift (mod 2*pi).
    """

    chi: float
    mu: float
    phase_shift: float = 0.0

    def __post_init__(self) -> None:
        chi, mu = _validated_qubit(self.chi, self.mu)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class NotGateSpec:
    """Transport plus NOT: swaps the spin amplitudes, final phase -mu."""

    chi: float
    mu: float

    def __post_init__(self) -> None:
        chi, mu = _validated_qubit(self.chi, self.mu)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class TransportSpec:
    """Transport to arbitrary real magnitudes (A, B) with relative phase lam."""

    chi: float
    mu: float
    a: float
    b: float
    lam: float

    def __post_init__(self) -> None:
        chi, mu = _validated_qubit(self.chi, self.mu)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mu", mu)
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("A and B are magnitudes; fold signs into lam")
        norm = self.a * self.a + self.b * self.b
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"A^2 + B^2 = {norm!r} must be 1 within 1e-10")


GateSpec = PrepareSpec | PhaseGateSpec | NotGateSpec | TransportSpec


@dataclass(frozen=True)
class ScheduleMeta:
    """Provenance of a schedule: gate kind, branch, and generating angles."""

    gate: str = "raw"
    theta: float | None = None
    gamma_final: float | None = None
    branch: int = 0
    ansatz: str = "cosine"
    profile: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False)


@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """Sampled controls on a uniform grid over [0, T], immutable once built."""

    params: SystemParams
    times: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    meta: ScheduleMeta = ScheduleMeta()

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        tau = np.array(self.tau, dtype=float)
        alpha = np.array(self.alpha, dtype=complex)
        if not (times.ndim == 1 and times.shape == tau.shape == alpha.shape):
            raise ValueError("times, tau, alpha must be matching 1-d arrays")
        if times.size < 1 or times[0] != 0.0:
            raise ValueError("schedule grid must start at t = 0")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("schedule grid must increase strictly")
        for a in (times, tau, alpha):
            a.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "alpha", alpha)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def _gamma_fn(self):
        m = self.meta
        if m.theta is None or m.gamma_final is None or self.T <= 0.0:
            return None
        if m.ansatz == "cosine":
            return AnsatzSpec(gamma_final=m.gamma_final).gamma_fn(self.T)
        if m.ansatz == "sampled" and m.profile is not None:
            spec = AnsatzSpec(gamma_final=m.gamma_final, family="sampled", profile=m.profile)
            return spec.gamma_fn(self.T)
        return None

    def angles(self) -> DiamondAngles | None:
        """Generating drive angles, when the metadata allows reconstruction."""
        fn = self._gamma_fn()
        if fn is None:
            return None
        return DiamondAngles(gamma=fn, theta=self.meta.theta)

    @cached_property
    def _samples_match_angles(self) -> bool:
        """True when the stored samples agree with the generating ansatz.

        A hand-edited tau or alpha column breaks the agreement, which
        forces integration back onto the (corrupted) samples so the
        numerical oracle can see the corruption.  A non-finite sample never
        agrees: it would otherwise slip past the relative tolerance (an
        infinite scale) or out of the max (a NaN).
        """
        fn = self._gamma_fn()
        if fn is None or not (np.isfinite(self.tau).all() and np.isfinite(self.alpha).all()):
            return False
        _, gdot = fn(self.times)
        tau_ref, alpha_ref = drive_controls(gdot, self.meta.theta, self.params.delta, self.times)
        scale = max(float(np.max(np.abs(self.tau))), float(np.max(np.abs(self.alpha))), 1.0)
        err = max(float(np.max(np.abs(self.tau - tau_ref))), float(np.max(np.abs(self.alpha - alpha_ref))))
        return err <= 1e-9 * scale

    def controls_at(self, t):
        """Control values at arbitrary times within [0, T].

        Uses the generating ansatz when the samples verifiably match it;
        otherwise interpolates linearly in tau and in the real and
        imaginary parts of alpha.
        """
        t = np.asarray(t, dtype=float)
        if self._samples_match_angles:
            _, gdot = self._gamma_fn()(t)
            return drive_controls(gdot, self.meta.theta, self.params.delta, t)
        tau = np.interp(t, self.times, self.tau)
        # 1j * inf is nan + inf j; a non-finite result is the caller's to
        # reject, and writing .real/.imag apart would flip signed zeros
        with np.errstate(invalid="ignore"):
            alpha = np.interp(t, self.times, self.alpha.real) + 1j * np.interp(t, self.times, self.alpha.imag)
        return tau, alpha


def build_schedule(
    theta: float,
    ansatz: AnsatzSpec,
    duration: float,
    params: SystemParams,
    gate: str = "raw",
    branch: int = 0,
) -> ControlSchedule:
    """Sample a drive-angle ramp into a control schedule."""
    times = np.linspace(0.0, duration, ansatz.n_samples)
    _, gdot = ansatz.gamma_fn(duration)(times)
    tau, alpha = drive_controls(gdot, theta, params.delta, times)
    tau = np.array(tau)
    alpha = np.array(alpha)
    # the drive-angle slope vanishes at both ends; pin the samples exactly
    tau[0] = tau[-1] = 0.0
    alpha[0] = alpha[-1] = 0j
    meta = ScheduleMeta(
        gate=gate,
        theta=float(theta),
        gamma_final=float(ansatz.gamma_final),
        branch=int(branch),
        ansatz=ansatz.family,
        profile=ansatz.profile,
    )
    return ControlSchedule(params=params, times=times, tau=tau, alpha=alpha, meta=meta)


def schedule_from_angles(
    theta: float,
    gamma_final: float,
    duration: float,
    params: SystemParams,
    n_samples: int = DEFAULT_N_SAMPLES,
    gate: str = "raw",
) -> ControlSchedule:
    """Raw cosine-ramp schedule from (theta, gamma_final, duration)."""
    ansatz = AnsatzSpec(gamma_final=gamma_final, n_samples=n_samples)
    return build_schedule(theta, ansatz, duration, params, gate=gate)


def transport_amplitudes(chi: float, mu: float, theta: float, gamma_t: float, zeeman_phase: float) -> np.ndarray:
    """Forward map: final amplitudes (b1..b4) for the left-dot qubit
    cos(chi)|1> + e^{i mu} sin(chi)|4> after a pulse reaching gamma_t, with
    accumulated Zeeman phase ``zeeman_phase`` = delta * T."""
    eimu = np.exp(1j * mu)
    c, s = math.cos(gamma_t), math.sin(gamma_t)
    cc, sc = math.cos(chi), math.sin(chi)
    ct, st = math.cos(theta), math.sin(theta)
    ez = np.exp(-1j * zeeman_phase)
    return np.array([
        cc * c,
        -1j * s * (cc * ct + eimu * sc * st),
        1j * ez * s * (cc * st - eimu * sc * ct),
        sc * c * np.exp(1j * mu) * ez,
    ])


def solve_theta(chi: float, mu: float, a_target: float, b_target: float, tol: float = 1e-9) -> list[float]:
    """All mixing angles in (-pi/2, pi/2] that realize magnitudes (A, B).

    Inverts the forward map directly: with gamma(T) an odd multiple of
    pi/2, A^2 - B^2 = cos(2 chi) cos(2 theta) + cos(mu) sin(2 chi)
    sin(2 theta), which is linear in (cos 2 theta, sin 2 theta).  Solutions
    are sorted by |theta|, non-positive first, so index 0 is the branch
    with the weakest spin-orbit demand.
    """
    if a_target < 0.0 or b_target < 0.0:
        raise ValueError("A and B are magnitudes and must be non-negative")
    if abs(a_target * a_target + b_target * b_target - 1.0) > 1e-10:
        raise ValueError("target magnitudes must satisfy A^2 + B^2 = 1")
    d = 2.0 * a_target * a_target - 1.0
    a = math.cos(2.0 * chi)
    b = math.cos(mu) * math.sin(2.0 * chi)
    r = math.hypot(a, b)
    if r < 1e-15:
        # every theta yields A = B = 1/sqrt(2); return the canonical branch
        if abs(d) <= tol:
            return [0.0]
        raise InfeasibleAmplitudeError(
            f"target A={a_target!r} unreachable: chi={chi!r}, mu={mu!r} pin A^2 to 1/2"
        )
    if abs(d) > r + tol:
        raise InfeasibleAmplitudeError(
            f"target A={a_target!r} unreachable for chi={chi!r}, mu={mu!r}: "
            f"need |2A^2 - 1| <= {r:.6g}, got {abs(d):.6g}"
        )
    base = math.atan2(b, a)
    half = math.acos(min(1.0, max(-1.0, d / r)))
    thetas: list[float] = []
    for two_theta in (base - half, base + half):
        w = math.remainder(two_theta, TWO_PI)
        if w <= -math.pi:
            w += TWO_PI
        th = 0.5 * w
        if abs(th) < 1e-12:
            th = 0.0
        if not any(abs(th - seen) <= 1e-12 for seen in thetas):
            thetas.append(th)
    # keep only candidates that actually reproduce A through the forward map
    def forward_a(th: float) -> float:
        val = 0.5 * (1.0 + a * math.cos(2.0 * th) + b * math.sin(2.0 * th))
        return math.sqrt(max(0.0, val))

    thetas = [th for th in thetas if abs(forward_a(th) - a_target) < 1e-9]
    thetas.sort(key=lambda th: (abs(th), 0.0 if th <= 0.0 else 1.0))
    return thetas


def zeta_phases(chi: float, mu: float, theta: float, gamma_final: float = 0.5 * math.pi) -> tuple[float, float]:
    """Phases of the final right-dot amplitudes before Zeeman precession.

    Extracted as arguments of the complex amplitudes themselves, which
    stays finite wherever the amplitudes do; a vanishing amplitude has no
    phase and raises :class:`~pulseforge.errors.DegeneratePhaseError`.
    """
    eimu = np.exp(1j * mu)
    s = math.sin(gamma_final)
    b2 = -1j * s * (math.cos(chi) * math.cos(theta) + eimu * math.sin(chi) * math.sin(theta))
    b3 = 1j * s * (math.cos(chi) * math.sin(theta) - eimu * math.sin(chi) * math.cos(theta))
    if abs(b2) < _AMP_TOL:
        raise DegeneratePhaseError("b2 amplitude vanishes; zeta_A is undefined")
    if abs(b3) < _AMP_TOL:
        raise DegeneratePhaseError("b3 amplitude vanishes; zeta_B is undefined")
    return float(np.angle(b2)), float(np.angle(b3))


def operation_time(
    zeta: float,
    lam_target: float,
    delta: float,
    t_min: float = 0.0,
    t_max: float | None = None,
) -> float:
    """Smallest strictly positive T with delta*T = zeta - lam (mod 2*pi).

    A zero phase difference lifts to a full Zeeman period rather than
    T = 0.  With ``t_min`` set, T is lifted by whole periods until it is
    no smaller; with ``t_max`` set, an out-of-window T raises
    :class:`~pulseforge.errors.NoFeasibleTimeError`.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    phase = (zeta - lam_target) % TWO_PI
    if phase == 0.0:
        phase = TWO_PI
    duration = phase / delta
    if duration < t_min:
        periods = math.ceil((t_min - duration) * delta / TWO_PI - 1e-12)
        duration += max(periods, 0) * TWO_PI / delta
    if t_max is not None and duration > t_max:
        raise NoFeasibleTimeError(
            f"required operation time {duration:.6g} s exceeds the allowed maximum {t_max:.6g} s"
        )
    return duration


def _require_odd_half_pi(gamma_final: float) -> float:
    """Gates need gamma(T) at an odd multiple of pi/2 so b1 = b4 = 0."""
    ratio = gamma_final / (0.5 * math.pi)
    nearest = round(ratio)
    if abs(ratio - nearest) > 1e-9 or nearest % 2 == 0:
        raise InvalidAnsatzError(
            f"gamma_final = {gamma_final!r} must be an odd multiple of pi/2 for gate synthesis"
        )
    return math.sin(gamma_final)


def _resolve_branch(ordered: list[float], branch) -> int:
    if branch is None or branch == "min-theta":
        return 0
    try:
        idx = int(branch)
    except (TypeError, ValueError):
        raise ValueError(f"branch must be 'min-theta' or an integer index, got {branch!r}") from None
    if not 0 <= idx < len(ordered):
        raise ValueError(f"branch index {idx} out of range: {len(ordered)} solution(s)")
    return idx


def _fidelity(target: np.ndarray, state: np.ndarray) -> float:
    return float(abs(np.vdot(target, state)) ** 2)


def _verify_schedule(schedule: ControlSchedule, psi0: np.ndarray, target: np.ndarray) -> None:
    u = analytic_propagator(schedule.angles(), schedule.T, schedule.params)
    fid = _fidelity(target, u @ psi0)
    if fid < 1.0 - 1e-9:
        raise VerificationError(
            f"synthesized schedule misses its target: fidelity {fid!r} < 1 - 1e-9"
        )


def _free_duration(ansatz: AnsatzSpec, params: SystemParams) -> float:
    duration = ansatz.T if ansatz.T is not None else TWO_PI / params.delta
    if ansatz.t_max is not None and duration > ansatz.t_max:
        raise NoFeasibleTimeError(
            f"requested duration {duration:.6g} s exceeds the allowed maximum {ansatz.t_max:.6g} s"
        )
    return duration


def synthesize_preparation(
    target: PrepareSpec,
    params: SystemParams,
    ansatz: AnsatzSpec | None = None,
    branch="min-theta",
) -> ControlSchedule:
    """Schedule that takes |1> to the right-dot qubit (0, b2, b3, 0).

    The magnitudes fix |theta|; the sign branch fixes whether the Zeeman
    phase must supply the target relative phase directly or offset by pi,
    and the operation time is the smallest positive solution.  Index 0 is
    the non-positive-theta branch.
    """
    ansatz = ansatz if ansatz is not None else AnsatzSpec()
    _require_odd_half_pi(ansatz.gamma_final)
    m2, m3 = abs(target.b2), abs(target.b3)
    theta0 = math.atan2(m3, m2)
    if theta0 < _AMP_TOL:
        candidates = [0.0]
    elif abs(theta0 - 0.5 * math.pi) < _AMP_TOL:
        candidates = [-0.5 * math.pi, 0.5 * math.pi]
    else:
        candidates = [-theta0, theta0]
    candidates.sort(key=lambda th: (abs(th), 0.0 if th <= 0.0 else 1.0))
    idx = _resolve_branch(candidates, branch)
    theta = candidates[idx]

    if m2 < _AMP_TOL or m3 < _AMP_TOL:
        # single-amplitude target: no relative phase to set, T is free
        duration = _free_duration(ansatz, params)
    else:
        lam = float(np.angle(target.b3 / target.b2))
        # realized ratio b3/b2 = -tan(theta) e^{-i delta T}
        offset = 0.0 if theta < 0.0 else math.pi
        duration = operation_time(offset, lam, params.delta, t_min=ansatz.T or 0.0, t_max=ansatz.t_max)

    schedule = build_schedule(theta, ansatz, duration, params, gate="prepare", branch=idx)
    target_vec = np.array([0.0, target.b2, target.b3, 0.0], dtype=complex)
    _verify_schedule(schedule, basis_state(1), target_vec)
    return schedule


def _synthesize_transport(
    chi: float,
    mu: float,
    a_amp: float,
    b_amp: float,
    lam: float,
    params: SystemParams,
    ansatz: AnsatzSpec,
    branch,
    gate: str,
    force_theta: float | None = None,
) -> ControlSchedule:
    _require_odd_half_pi(ansatz.gamma_final)
    if force_theta is not None:
        candidates = [force_theta]
    else:
        candidates = solve_theta(chi, mu, a_amp, b_amp)
    idx = _resolve_branch(candidates, branch)
    theta = candidates[idx]

    if a_amp < _AMP_TOL or b_amp < _AMP_TOL:
        duration = _free_duration(ansatz, params)
    else:
        zeta_a, zeta_b = zeta_phases(chi, mu, theta, ansatz.gamma_final)
        duration = operation_time(
            zeta_b - zeta_a, lam, params.delta, t_min=ansatz.T or 0.0, t_max=ansatz.t_max
        )

    schedule = build_schedule(theta, ansatz, duration, params, gate=gate, branch=idx)
    target_vec = np.array([0.0, a_amp, b_amp * np.exp(1j * lam), 0.0], dtype=complex)
    _verify_schedule(schedule, left_qubit_state(chi, mu), target_vec)
    return schedule


def synthesize_gate(
    spec: GateSpec,
    params: SystemParams,
    ansatz: AnsatzSpec | None = None,
    branch="min-theta",
) -> ControlSchedule:
    """Synthesize a schedule for any declarative gate target."""
    ansatz = ansatz if ansatz is not None else AnsatzSpec()
    if isinstance(spec, PrepareSpec):
        return synthesize_preparation(spec, params, ansatz, branch)
    if isinstance(spec, PhaseGateSpec):
        # theta is pinned to exactly zero so alpha vanishes on every sample
        lam = (spec.mu + spec.phase_shift) % TWO_PI
        return _synthesize_transport(
            spec.chi, spec.mu, math.cos(spec.chi), math.sin(spec.chi), lam,
            params, ansatz, branch, gate="phase", force_theta=0.0,
        )
    if isinstance(spec, NotGateSpec):
        return _synthesize_transport(
            spec.chi, spec.mu, math.sin(spec.chi), math.cos(spec.chi), -spec.mu,
            params, ansatz, branch, gate="not",
        )
    if isinstance(spec, TransportSpec):
        return _synthesize_transport(
            spec.chi, spec.mu, spec.a, spec.b, spec.lam,
            params, ansatz, branch, gate="transport",
        )
    raise TypeError(f"unsupported gate spec {type(spec).__name__}")


def declared_target(spec: GateSpec) -> np.ndarray:
    """The four-component target state a gate spec declares, up to global phase."""
    if isinstance(spec, PrepareSpec):
        return np.array([0.0, spec.b2, spec.b3, 0.0], dtype=complex)
    if isinstance(spec, PhaseGateSpec):
        lam = (spec.mu + spec.phase_shift) % TWO_PI
        return np.array(
            [0.0, math.cos(spec.chi), math.sin(spec.chi) * np.exp(1j * lam), 0.0], dtype=complex
        )
    if isinstance(spec, NotGateSpec):
        return np.array(
            [0.0, math.sin(spec.chi), math.cos(spec.chi) * np.exp(-1j * spec.mu), 0.0], dtype=complex
        )
    if isinstance(spec, TransportSpec):
        return np.array([0.0, spec.a, spec.b * np.exp(1j * spec.lam), 0.0], dtype=complex)
    raise TypeError(f"unsupported gate spec {type(spec).__name__}")


def initial_state(spec: GateSpec) -> np.ndarray:
    """The four-component state a gate spec starts from."""
    if isinstance(spec, PrepareSpec):
        return basis_state(1)
    return left_qubit_state(spec.chi, spec.mu)
