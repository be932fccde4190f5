"""Inverse pulse engineering: from a declarative gate target to a sampled
control schedule.

The pipeline is: pick the constant mixing angle theta so the final amplitude
magnitudes come out right (a closed-form inversion of the forward map, which
is linear in cos 2*theta and sin 2*theta), then pick the operation time T so
the Zeeman precession supplies the required relative phase, then sample the
smooth drive-angle ramp gamma(t) into (tau, alpha) arrays.

The forward map (:func:`transport_amplitudes`) is the closed-form
propagator applied to the left-dot qubit, and the transport phases
(:func:`zeta_phases`) are read from it.  Phase angles are always extracted
as arguments of the complex final amplitudes rather than from cot/tan
expressions, which removes the spurious singularities of the arctan form at
mu -> 0 or chi -> 0.

Every gate kind takes this one path in :func:`synthesize_gate`; a spec
class supplies only its own data (start and target states, the target
magnitudes, its theta candidates and its phase condition).  The operation
time always comes from :func:`operation_time`: a target with a vanishing
amplitude has no phase to set, so its zero phase gap lifts to one Zeeman
period unless the ansatz requests T.  Every synthesized schedule is checked
against the closed-form propagator before it is returned; a schedule that
misses its own target by more than 1e-9 in fidelity raises
:class:`~pulseforge.errors.VerificationError`.

A :class:`ControlSchedule` resolves its drive-angle ramp once, through one
:class:`AnsatzSpec` built from its metadata; the closed form, the sample
check and :meth:`ControlSchedule.controls_at` all read that one object, and
:meth:`AnsatzSpec.gamma_fn` is the only place a ramp family is chosen.

The "sampled" ramp is the clamped cubic spline through the profile knots,
computed here with numpy alone: the knot slopes come from a port of LAPACK
``dgtsv`` (the tridiagonal solve with row interchanges that scipy's
``CubicSpline`` runs through ``solve_banded``), the coefficients from
scipy's ``CubicHermiteSpline`` formulas, and an evaluation finds each
point's interval with ``np.searchsorted`` and sums ascending powers from
0.0 as scipy's ``PPoly`` does.  The values and slopes are bit-equal to
``CubicSpline(s, g, bc_type=((1, 0.0), (1, 0.0)))`` and its derivative, and
no command loads scipy.
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
    propagator_matrix,
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

# the most samples one ansatz asks for: synthesis peaks near 110 B a sample
# (140 MB RSS for a 1e6-sample prepare), and verify reads its 78 MB file at
# about 300 B a sample (330 MB)
SAMPLE_BUDGET = 1_000_000

ANSATZ_FAMILIES = ("cosine", "sampled")

# largest relative sample gap (ControlSchedule.sample_gap) of a schedule
# whose samples still follow its drive angles
_SAMPLE_MATCH_TOL = 1e-9

_AMP_TOL = 1e-12
_PHASE_TOL = 1e-12
# past this Zeeman phase delta * T a float resolves no phase mod 2 pi
_ZEEMAN_PHASE_LIMIT = 2.0 ** 53
# slack of solve_theta's reach test |2A^2 - 1| <= r
_REACH_TOL = 1e-9


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
    clamped cubic spline (:func:`_clamped_spline`) so the end slopes are
    zero.
    """

    gamma_final: float = 0.5 * math.pi
    family: str = "cosine"
    T: float | None = None
    t_max: float | None = None
    n_samples: int = DEFAULT_N_SAMPLES
    profile: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.family not in ANSATZ_FAMILIES:
            raise InvalidAnsatzError(f"unknown ansatz family {self.family!r}")
        if self.n_samples < 2:
            raise InvalidAnsatzError("n_samples must be at least 2")
        if self.n_samples > SAMPLE_BUDGET:
            raise InvalidAnsatzError(f"n_samples must be at most {SAMPLE_BUDGET}, got {self.n_samples:.6g}")
        if not math.isfinite(self.gamma_final):
            raise InvalidAnsatzError(f"gamma_final must be finite, got {self.gamma_final!r}")
        if self.T is not None and not (self.T > 0.0 and math.isfinite(self.T)):
            raise InvalidAnsatzError(f"requested duration must be positive and finite, got {self.T!r}")
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
        s, g = self.profile
        p0, p1, p2, p3 = _clamped_spline(s, g)
        # the derivative's coefficients, as scipy's PPoly.derivative scales them
        q2, q3 = 2.0 * p2, 3.0 * p3
        inner = s[1:-1]

        def fn(t):
            x = np.asarray(t, dtype=float) / duration
            # interval i holds s[i] <= x < s[i + 1]; x = 1 falls in the last one
            i = np.searchsorted(inner, x, side="right")
            h = x - s[i]
            h2 = h * h
            # ascending powers summed from 0.0, as scipy's PPoly does
            gamma = 0.0 + p0[i] + p1[i] * h + p2[i] * h2 + p3[i] * (h2 * h)
            gamma_dot = (0.0 + p1[i] + q2[i] * h + q3[i] * h2) / duration
            if np.ndim(t) == 0:
                return float(gamma), float(gamma_dot)
            return gamma, gamma_dot

        return fn

    @property
    def knot_jump(self) -> float:
        """Sum over the profile's inner knots of the jumps |dG3_k| of the
        ramp's third derivative, G3 = d^3 G / ds^3 with G(s) the ramp on the
        normalized time axis s = t / T; 0.0 for the smooth cosine ramp.

        The clamped spline is cubic on each interval, where G3 = 6 p3[i]
        (:func:`_clamped_spline`'s coefficient rows).
        """
        if self.family == "cosine":
            return 0.0
        p3 = _clamped_spline(*self.profile)[3]
        return float(np.sum(np.abs(np.diff(6.0 * p3))))


def _clamped_spline(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of the cubic spline through the knots (s, g) with zero
    slope at both ends: row k, shape (n - 1,), multiplies (s - s_i)^k on
    interval i.

    The knot slopes solve scipy's tridiagonal system by a port of LAPACK
    ``dgtsv`` (Gaussian elimination with row interchanges), and the
    coefficients follow scipy's ``CubicHermiteSpline``.
    """
    n = s.size
    dx = np.diff(s)
    slope = np.diff(g) / dx
    # sub-, main and super-diagonal, and right-hand side; the end rows pin
    # the end slopes to zero
    dl = [*dx[1:].tolist(), 0.0]
    d = [1.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 1.0]
    du = [0.0, *dx[:-1].tolist()]
    b = [0.0, *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(), 0.0]
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1; dl[i] then holds the second
            # superdiagonal the interchange fills in
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    m = np.array(b)
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    return np.stack((g[:-1], m[:-1], (slope - m[:-1]) / dx - t, t / dx))


@dataclass(frozen=True)
class PrepareSpec:
    """Target right-dot qubit (b2, b3) prepared from |1>; b1 = b4 = 0.

    Preparation is transport of the chi = 0 qubit with its own closed-form
    inversion: theta = -/+ atan2(|b3|, |b2|), a pair even at |b2| = 0, and
    the 0/pi offset of the realized ratio b3/b2 = -tan(theta) e^{-i delta T}.
    """

    b2: complex
    b3: complex

    gate = "prepare"

    def __post_init__(self) -> None:
        a2, a3 = abs(self.b2), abs(self.b3)
        # products, not powers: a float power past 1e154 raises OverflowError
        norm = a2 * a2 + a3 * a3
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"|b2|^2 + |b3|^2 = {norm!r} must be 1 within 1e-10")

    def start_state(self) -> np.ndarray:
        return basis_state(1)

    def target_state(self) -> np.ndarray:
        return np.array([0.0, self.b2, self.b3, 0.0], dtype=complex)

    def amplitudes(self) -> tuple[float, float]:
        return abs(self.b2), abs(self.b3)

    def theta_candidates(self) -> list[float]:
        theta0 = math.atan2(abs(self.b3), abs(self.b2))
        if theta0 < _AMP_TOL:
            return [0.0]
        if abs(theta0 - 0.5 * math.pi) < _AMP_TOL:
            return [-0.5 * math.pi, 0.5 * math.pi]
        return [-theta0, theta0]

    def phase_condition(self, theta: float, gamma_final: float) -> tuple[float, float]:
        return (0.0 if theta < 0.0 else math.pi), float(np.angle(self.b3 / self.b2))


def _validated_qubit(chi: float, mu: float) -> tuple[float, float]:
    if not 0.0 <= chi <= 0.5 * math.pi:
        raise ValueError(f"chi must lie in [0, pi/2], got {chi!r}")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    mu = float(mu) % TWO_PI
    # mu carries no information when the qubit sits on a pole
    if math.sin(chi) * math.cos(chi) < _AMP_TOL:
        mu = 0.0
    return float(chi), mu


@dataclass(frozen=True)
class _LeftQubitSpec:
    """Transport of the left-dot qubit cos(chi)|1> + e^{i mu} sin(chi)|4>;
    a subclass names the right-dot qubit it leaves in ``target_qubit``."""

    chi: float
    mu: float

    def __post_init__(self) -> None:
        chi, mu = _validated_qubit(self.chi, self.mu)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mu", mu)

    def start_state(self) -> np.ndarray:
        return left_qubit_state(self.chi, self.mu)

    def target_state(self) -> np.ndarray:
        a, b, lam = self.target_qubit()
        return np.array([0.0, a, b * np.exp(1j * lam), 0.0], dtype=complex)

    def amplitudes(self) -> tuple[float, float]:
        return self.target_qubit()[:2]

    def theta_candidates(self) -> list[float]:
        return solve_theta(self.chi, self.mu, *self.amplitudes())

    def phase_condition(self, theta: float, gamma_final: float) -> tuple[float, float]:
        zeta_a, zeta_b = zeta_phases(self.chi, self.mu, theta, gamma_final)
        return zeta_b - zeta_a, self.target_qubit()[2]


@dataclass(frozen=True)
class PhaseGateSpec(_LeftQubitSpec):
    """Transport plus relative-phase rotation: theta = 0, no spin-flip drive.

    ``phase_shift`` is the added relative phase; the final qubit phase is
    mu + phase_shift (mod 2*pi).
    """

    phase_shift: float = 0.0

    gate = "phase"

    def target_qubit(self) -> tuple[float, float, float]:
        return math.cos(self.chi), math.sin(self.chi), (self.mu + self.phase_shift) % TWO_PI

    def theta_candidates(self) -> list[float]:
        # theta is pinned to exactly zero so alpha vanishes on every sample
        return [0.0]


@dataclass(frozen=True)
class NotGateSpec(_LeftQubitSpec):
    """Transport plus NOT: swaps the spin amplitudes, final phase -mu."""

    gate = "not"

    def target_qubit(self) -> tuple[float, float, float]:
        return math.sin(self.chi), math.cos(self.chi), -self.mu


@dataclass(frozen=True)
class TransportSpec(_LeftQubitSpec):
    """Transport to arbitrary real magnitudes (A, B) with relative phase lam."""

    a: float
    b: float
    lam: float

    gate = "transport"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("A and B are magnitudes; fold signs into lam")
        norm = self.a * self.a + self.b * self.b
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"A^2 + B^2 = {norm!r} must be 1 within 1e-10")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam!r}")
        if abs(self.lam) > TWO_PI:
            # reduced once, as e^{i lam} in the target reduces it, so the phase
            # condition reads the same angle; a float mod by TWO_PI drifts from
            # that as |lam| grows, and zeta - lam loses zeta past ~1e16
            object.__setattr__(self, "lam", float(np.angle(np.exp(1j * self.lam))))

    def target_qubit(self) -> tuple[float, float, float]:
        return self.a, self.b, self.lam


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
        if not np.isfinite(times).all():
            bad = int(np.argmin(np.isfinite(times)))
            raise ValueError(f"schedule time {float(times[bad])!r} of sample {bad} is not finite")
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

    @cached_property
    def ramp_refusal(self) -> str | None:
        """Why the metadata builds no drive-angle ramp, or None when it does."""
        m = self.meta
        if m.theta is None or m.gamma_final is None:
            return "schedule lacks drive-angle metadata (theta/gamma_final headers)"
        why = None
        if self.T <= 0.0:
            why = f"T = {self.T!r} s is not a positive span"
        elif m.ansatz not in ANSATZ_FAMILIES:
            why = f"ansatz family {m.ansatz!r} is unknown"
        elif m.ansatz == "sampled" and m.profile is None:
            why = "the sampled ansatz has no profile knots (profile_s/profile_gamma headers)"
        # gamma_ansatz's slope scale: an infinite one makes its flat ends inf * 0
        elif math.isinf(0.5 * m.gamma_final * (math.pi / self.T)):
            why = f"gamma_final = {m.gamma_final!r} over T = {self.T!r} s puts the ramp's slope past the float range"
        return None if why is None else f"schedule lacks drive-angle metadata that builds a ramp: {why}"

    @cached_property
    def _ramp(self) -> AnsatzSpec | None:
        """The one ramp every reader shares, built once; None when
        :attr:`ramp_refusal` names a reason."""
        if self.ramp_refusal is not None:
            return None
        m = self.meta
        return AnsatzSpec(m.gamma_final, family=m.ansatz, profile=m.profile)

    @cached_property
    def _angles(self) -> DiamondAngles | None:
        """The ramp's drive angles over [0, T]; None without a ramp."""
        ramp = self._ramp
        return None if ramp is None else DiamondAngles(gamma=ramp.gamma_fn(self.T), theta=self.meta.theta)

    def angles(self) -> DiamondAngles | None:
        """Generating drive angles, when the metadata allows reconstruction."""
        return self._angles

    @cached_property
    def sample_gap(self) -> float:
        """Largest gap of the stored samples to the controls the drive angles
        generate, relative to the largest control of the same column.

        A hand-edited tau or alpha cell opens the gap.  Each column is
        measured against its own scale, so a small alpha column cannot hide
        behind a large tau column.  Without drive angles, or with a
        non-finite sample, the gap is infinite: a NaN would otherwise drop
        out of the max.
        """
        angles = self._angles
        if angles is None or not (np.isfinite(self.tau).all() and np.isfinite(self.alpha).all()):
            return math.inf
        _, gdot = angles.gamma(self.times)
        # build_schedule pins the end samples to exactly 0, where the slope vanishes
        gdot[[0, -1]] = 0.0
        refs = drive_controls(gdot, self.meta.theta, self.params.delta, self.times)
        gap = 0.0
        for samples, ref in zip((self.tau, self.alpha), refs):
            err = float(np.max(np.abs(samples - ref)))
            if err > 0.0:
                scale = float(np.max(np.abs(ref)))
                gap = max(gap, err / scale if scale > 0.0 else math.inf)
        return gap

    @property
    def _samples_match_angles(self) -> bool:
        """True when the stored samples agree with the generating ansatz.

        A corrupted sample breaks the agreement, which forces integration
        back onto the (corrupted) samples so the numerical oracle can see
        the corruption.
        """
        return self.sample_gap <= _SAMPLE_MATCH_TOL

    def controls_at(self, t):
        """Control values at arbitrary times within [0, T].

        Uses the generating ansatz when the samples verifiably match it;
        otherwise interpolates linearly in tau and in the real and
        imaginary parts of alpha.
        """
        t = np.asarray(t, dtype=float)
        if self._samples_match_angles:
            _, gdot = self._angles.gamma(t)
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
    # a duration near the float range's ends gives inf or nan samples, which
    # the synthesis check rejects; they are not worth a warning first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    accumulated Zeeman phase ``zeeman_phase`` = delta * T: the closed-form
    propagator applied to :func:`~pulseforge.dqd.left_qubit_state`."""
    return propagator_matrix(gamma_t, theta, zeeman_phase, 1.0) @ left_qubit_state(chi, mu)


def solve_theta(chi: float, mu: float, a_target: float, b_target: float) -> list[float]:
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
        if abs(d) <= _REACH_TOL:
            return [0.0]
        raise InfeasibleAmplitudeError(
            f"target A={a_target!r} unreachable: chi={chi!r}, mu={mu!r} pin A^2 to 1/2"
        )
    if abs(d) > r + _REACH_TOL:
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
    """Phases of the final right-dot amplitudes b2, b3 of
    :func:`transport_amplitudes` before Zeeman precession.

    Extracted as arguments of the complex amplitudes themselves, which
    stays finite wherever the amplitudes do; a vanishing amplitude has no
    phase and raises :class:`~pulseforge.errors.DegeneratePhaseError`.
    """
    _, b2, b3, _ = transport_amplitudes(chi, mu, theta, gamma_final, 0.0)
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

    A phase difference below 1e-12 rad lifts to a full Zeeman period
    rather than to T ~ 0.  With ``t_min`` set, T is lifted by whole periods
    until it is no smaller, to within 1e-12 of a period plus the rounding of
    the period count (about 4e-16 * t_min); with ``t_max`` set, an
    out-of-window T raises
    :class:`~pulseforge.errors.NoFeasibleTimeError`, as does a T past the
    float range or a Zeeman phase delta*T past 2^53 rad, where the float
    no longer holds a phase.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    phase = (zeta - lam_target) % TWO_PI
    # a gap within rounding of zero is zero; taken literally it gives a T that
    # underflows to 0 or a ramp too steep to sample
    if phase < _PHASE_TOL:
        phase = TWO_PI
    duration = phase / delta
    if duration < t_min:
        periods = (t_min - duration) * delta / TWO_PI - 1e-12
        # past the float range there is no whole period count to lift by
        duration += max(math.ceil(periods), 0) * TWO_PI / delta if math.isfinite(periods) else math.inf
    if not math.isfinite(duration):
        raise NoFeasibleTimeError(
            f"the operation time for delta = {delta:.6g} rad/s and t_min = {t_min:.6g} s overflows"
        )
    if delta * duration > _ZEEMAN_PHASE_LIMIT:
        raise NoFeasibleTimeError(
            f"the requested T = {t_min:.6g} s puts the Zeeman phase delta * T = {delta * duration:.3g} rad "
            f"past 2^53 rad, where adjacent floats are 2 rad apart and no phase survives"
        )
    if t_max is not None and duration > t_max:
        raise NoFeasibleTimeError(
            f"required operation time {duration:.6g} s exceeds the allowed maximum {t_max:.6g} s"
        )
    return duration


def _require_odd_half_pi(gamma_final: float) -> None:
    """Gates need gamma(T) at an odd multiple of pi/2 so b1 = b4 = 0."""
    ratio = gamma_final / (0.5 * math.pi)
    nearest = round(ratio)
    if abs(ratio - nearest) > 1e-9 or nearest % 2 == 0:
        raise InvalidAnsatzError(
            f"gamma_final = {gamma_final!r} must be an odd multiple of pi/2 for gate synthesis"
        )


def _resolve_branch(ordered: list[float], branch) -> int:
    if not ordered:
        # solve_theta's reach test allows 1e-9 slack that its round-trip filter does not
        raise InfeasibleAmplitudeError("no mixing angle reproduces the target magnitudes")
    if branch is None or branch == "min-theta":
        return 0
    try:
        idx = int(branch)
    except (TypeError, ValueError):
        raise ValueError(f"branch must be 'min-theta' or an integer index, got {branch!r}") from None
    if not 0 <= idx < len(ordered):
        raise ValueError(f"branch index {idx} out of range: {len(ordered)} solution(s)")
    return idx


def _verify_schedule(schedule: ControlSchedule, psi0: np.ndarray, target: np.ndarray) -> None:
    finite = np.isfinite(schedule.tau) & np.isfinite(schedule.alpha)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise VerificationError(
            f"synthesized schedule has a non-finite control sample at t = {float(schedule.times[bad])!r} s"
        )
    u = analytic_propagator(schedule.angles(), schedule.T, schedule.params)
    fid = float(abs(np.vdot(target, u @ psi0)) ** 2)
    # written so that a nan fidelity fails too
    if not fid >= 1.0 - 1e-9:
        raise VerificationError(
            f"synthesized schedule misses its target: fidelity {fid!r} is not >= 1 - 1e-9"
        )


def synthesize_gate(
    spec: GateSpec,
    params: SystemParams,
    ansatz: AnsatzSpec | None = None,
    branch="min-theta",
) -> ControlSchedule:
    """Synthesize a schedule for any declarative gate target.

    Every spec takes one path: its theta candidates (index 0 has the least
    |theta|, non-positive first), the branch, then the operation time T,
    free for a single-amplitude target and phase-quantized otherwise.
    """
    ansatz = ansatz if ansatz is not None else AnsatzSpec()
    _require_odd_half_pi(ansatz.gamma_final)
    candidates = spec.theta_candidates()
    idx = _resolve_branch(candidates, branch)
    theta = candidates[idx]

    a_amp, b_amp = spec.amplitudes()
    if a_amp < _AMP_TOL or b_amp < _AMP_TOL:
        # no relative phase to set: T is the requested one, or the zero phase
        # gap lifted to a full Zeeman period
        duration = ansatz.T if ansatz.T is not None else operation_time(0.0, 0.0, params.delta, t_max=ansatz.t_max)
    else:
        zeta, lam = spec.phase_condition(theta, ansatz.gamma_final)
        duration = operation_time(zeta, lam, params.delta, t_min=ansatz.T or 0.0, t_max=ansatz.t_max)

    schedule = build_schedule(theta, ansatz, duration, params, gate=spec.gate, branch=idx)
    _verify_schedule(schedule, spec.start_state(), spec.target_state())
    return schedule


def synthesize_preparation(
    target: PrepareSpec,
    params: SystemParams,
    ansatz: AnsatzSpec | None = None,
    branch="min-theta",
) -> ControlSchedule:
    """Schedule that takes |1> to the right-dot qubit (0, b2, b3, 0)."""
    return synthesize_gate(target, params, ansatz, branch)

