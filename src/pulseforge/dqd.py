"""Four-level double-quantum-dot model: Hamiltonians, phase frame, controls,
and the closed-form propagator.

Bare basis ordering, fixed everywhere (array index = label - 1):

    |1> = left dot,  spin down      |2> = right dot, spin down
    |3> = right dot, spin up        |4> = left dot,  spin up

Units: hbar = 1, so Hamiltonian entries are angular frequencies (rad/s) and
times are seconds.  The coupling topology is a diamond: 1-2 and 3-4 carry the
real spin-conserving tunneling tau(t), 1-3 and 2-4 the complex spin-flip
(Rashba) coupling alpha(t); there is no 1-4 or 2-3 link, which forbids
direct |1> -> |4> transfer.

The model has one Hamiltonian builder, :func:`hamiltonian`, which is the
only place the diamond entries are written, and one control relation,
:func:`drive_controls`.  In the diamond gauge, with gamma(t) the drive angle
and theta the constant coupling mixing angle:

    tau(t)   = gamma_dot(t) * cos(theta)
    alpha(t) = -exp(i*delta*t) * gamma_dot(t) * sin(theta)

i.e. the spin-flip drive is resonant with the Zeeman splitting delta.
:func:`h0_matrix` and :func:`full_hamiltonian` are single-instant views of
the two.  The closed-form U(t) has one writer too,
:func:`propagator_entries`, entries first (4, 4, ...); each shared entry is
evaluated once.  :func:`propagator_matrix` is a view of it with the entry
axes last, and :func:`analytic_propagator` evaluates it along gamma(t).

The diamond Hamiltonian commutes with the swap S|1> = |2>, S|3> = -|4>, so
in the constant basis ``SECTOR_BASIS`` of S's eigenvectors it is two 2x2
blocks; :func:`sector_hamiltonian` writes them, and the RK4 integrator
steps the two sectors instead of the 4x4 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GammaFunc = Callable[[np.ndarray | float], tuple[np.ndarray | float, np.ndarray | float]]

# largest accepted |norm - 1| of a state
_NORM_TOL = 1e-10
# largest accepted gap of a phase frame's phases and rates to the diamond gauge
_FRAME_TOL = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Static system parameters: Zeeman splitting delta in rad/s (hbar = 1)."""

    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")


@dataclass(frozen=True)
class ControlSample:
    """Control values at one instant: real tau, complex alpha (rad/s)."""

    t: float
    tau: float
    alpha: complex

    def __post_init__(self) -> None:
        if isinstance(self.tau, complex):
            raise TypeError("tau is a spin-conserving tunneling rate and must be real")


@dataclass(frozen=True)
class PhaseFrame:
    """Diagonal phase frame K(t) = diag(1, e^{i phi2}, e^{i phi3}, e^{i phi4}).

    Stores the three phase functions and their time derivatives (phi1 = 0).
    """

    phi2: Callable[[float], float]
    phi3: Callable[[float], float]
    phi4: Callable[[float], float]
    phi2_dot: Callable[[float], float]
    phi3_dot: Callable[[float], float]
    phi4_dot: Callable[[float], float]

    @classmethod
    def diamond(cls, delta: float) -> "PhaseFrame":
        """The gauge that makes the diamond Hamiltonian match the lab frame:
        phi2 = -pi/2, phi3 = -delta*t + pi/2, phi4 = -delta*t."""
        return cls(
            phi2=lambda t: -0.5 * math.pi,
            phi3=lambda t: -delta * t + 0.5 * math.pi,
            phi4=lambda t: -delta * t,
            phi2_dot=lambda t: 0.0,
            phi3_dot=lambda t: -delta,
            phi4_dot=lambda t: -delta,
        )

    def k_matrix(self, t: float) -> np.ndarray:
        return np.diag([
            1.0 + 0.0j,
            np.exp(1j * self.phi2(t)),
            np.exp(1j * self.phi3(t)),
            np.exp(1j * self.phi4(t)),
        ])

    def is_diamond(self, delta: float, t: float) -> bool:
        expected = PhaseFrame.diamond(delta)
        return (
            abs(self.phi2(t) - expected.phi2(t)) <= _FRAME_TOL
            and abs(self.phi3(t) - expected.phi3(t)) <= _FRAME_TOL
            and abs(self.phi4(t) - expected.phi4(t)) <= _FRAME_TOL
            and abs(self.phi2_dot(t)) <= _FRAME_TOL
            and abs(self.phi3_dot(t) + delta) <= _FRAME_TOL
            and abs(self.phi4_dot(t) + delta) <= _FRAME_TOL
        )


@dataclass(frozen=True)
class DiamondAngles:
    """Drive angle gamma(t) plus the constant mixing angle theta.

    ``gamma`` maps t -> (gamma, gamma_dot) and must satisfy gamma(0) = 0
    (any multiple of 2*pi is accepted so the propagator starts at identity).
    theta may be any real; negative mixing angles are meaningful.
    """

    gamma: GammaFunc
    theta: float

    def __post_init__(self) -> None:
        g0, _ = self.gamma(0.0)
        if abs(math.remainder(float(g0), 2.0 * math.pi)) > 1e-9:
            raise ValueError(f"gamma(0) = {g0!r} is not a multiple of 2*pi")


def basis_state(n: int) -> np.ndarray:
    """Bare basis vector |n>, n in 1..4."""
    if n not in (1, 2, 3, 4):
        raise ValueError(f"basis label must be 1..4, got {n}")
    v = np.zeros(4, dtype=complex)
    v[n - 1] = 1.0
    return v


def left_qubit_state(chi: float, mu: float) -> np.ndarray:
    """Qubit on the left dot: cos(chi)|1> + e^{i mu} sin(chi)|4>."""
    v = np.zeros(4, dtype=complex)
    v[0] = math.cos(chi)
    v[3] = np.exp(1j * mu) * math.sin(chi)
    return v


def right_qubit_state(chi: float, mu: float) -> np.ndarray:
    """Qubit on the right dot: cos(chi)|2> + e^{i mu} sin(chi)|3>."""
    v = np.zeros(4, dtype=complex)
    v[1] = math.cos(chi)
    v[2] = np.exp(1j * mu) * math.sin(chi)
    return v


def check_normalized(state: np.ndarray) -> np.ndarray:
    """Return the state as a complex array, raising if its norm is off 1 by more than 1e-10."""
    psi = np.asarray(state, dtype=complex).reshape(4)
    n = float(np.linalg.norm(psi))
    if abs(n - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {n!r} deviates from 1 by more than {_NORM_TOL}")
    return psi


def hamiltonian(tau, alpha, delta: float) -> np.ndarray:
    """Laboratory-frame Hamiltonian for (tau, alpha) controls, shape (..., 4, 4).

    Zeros on diagonal entries 1, 2 and delta on 3, 4; tau on the 1-2 and 3-4
    links; alpha on 1-3 and -alpha on 2-4, conjugated below the diagonal.
    Broadcasts over the leading axes of ``tau`` and ``alpha``.
    """
    tau = np.asarray(tau, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    h = np.zeros(np.broadcast_shapes(tau.shape, alpha.shape) + (4, 4), dtype=complex)
    h[..., 0, 1] = h[..., 1, 0] = h[..., 2, 3] = h[..., 3, 2] = tau
    h[..., 0, 2] = alpha
    h[..., 2, 0] = np.conj(alpha)
    h[..., 1, 3] = -alpha
    h[..., 3, 1] = -np.conj(alpha)
    h[..., 2, 2] = h[..., 3, 3] = delta
    return h


# Columns e1 = |1> + |2>, e2 = |3> - |4> (sector +) and f1 = |1> - |2>,
# f2 = |3> + |4> (sector -).  The diamond Hamiltonian commutes with the
# swap S|1> = |2>, S|3> = -|4>, whose eigenvectors these are, so in this
# basis it is block-diagonal for every tau, alpha and delta.  The inverse
# is SECTOR_BASIS.T / 2, exact in binary.
SECTOR_BASIS = np.array([[1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 1], [0, -1, 0, 1]], dtype=float)


def sector_hamiltonian(tau, alpha, delta: float, out: np.ndarray | None = None) -> np.ndarray:
    """The two blocks of :func:`hamiltonian` in ``SECTOR_BASIS``, shape (..., 2, 2, 2).

    Axes are sector (+, -), row, column:

        H+ = [[ tau, alpha], [conj(alpha), delta - tau]]
        H- = [[-tau, alpha], [conj(alpha), delta + tau]]

    Broadcasts over the leading axes of ``tau`` and ``alpha``; written into
    ``out``, a complex array of that shape, when it is given.
    """
    tau = np.asarray(tau, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    if out is None:
        out = np.empty(np.broadcast_shapes(tau.shape, alpha.shape) + (2, 2, 2), dtype=complex)
    out[..., 0, 0, 0] = tau
    out[..., 1, 0, 0] = -tau
    out[..., :, 0, 1] = alpha[..., None]
    out[..., :, 1, 0] = np.conj(alpha)[..., None]
    out[..., 0, 1, 1] = delta - tau
    out[..., 1, 1, 1] = delta + tau
    return out


def drive_controls(gamma_dot, theta: float, delta: float, t):
    """The control relation: (tau, alpha) from the drive-angle slope.

    Broadcasts over ``gamma_dot`` and ``t``.  The lab-frame reading is a
    spin-flip drive with no DC part and carrier frequency delta (resonant).
    """
    tau = gamma_dot * math.cos(theta)
    alpha = -(np.exp(1j * delta * t) * gamma_dot * math.sin(theta))
    return tau, alpha


def h0_matrix(sample: ControlSample, params: SystemParams) -> np.ndarray:
    """Laboratory-frame Hamiltonian for one control sample."""
    return hamiltonian(sample.tau, sample.alpha, params.delta)


def controls_from_angles(angles: DiamondAngles, t: float, params: SystemParams) -> ControlSample:
    """Inverse-engineered controls at time t for the given drive angles."""
    _, gdot = angles.gamma(t)
    tau, alpha = drive_controls(float(gdot), angles.theta, params.delta, t)
    return ControlSample(t=float(t), tau=tau, alpha=complex(alpha))


def full_hamiltonian(
    angles: DiamondAngles,
    t: float,
    params: SystemParams,
    frame: PhaseFrame | None = None,
) -> np.ndarray:
    """Diamond-gauge Hamiltonian at time t for the drive angles.

    If a frame is passed it must be the diamond gauge for these params;
    this guards against evaluating the closed form in the wrong gauge.
    """
    if frame is not None and not frame.is_diamond(params.delta, t):
        raise ValueError("phase frame does not match the diamond gauge")
    return h0_matrix(controls_from_angles(angles, t, params), params)


def general_hamiltonian_check(
    gamma1_dot: float,
    gamma2_dot: float,
    theta1: float,
    theta2: float,
    frame: PhaseFrame,
    t: float,
) -> np.ndarray:
    """Diamond-form Hamiltonian before gauge fixing (diagnostic).

    Valid under frozen angles (theta and the azimuthal phases constant,
    azimuthal phases zero).  Reduces to :func:`full_hamiltonian` when
    gamma2 is frozen, theta2 = 0 and the diamond gauge is substituted.
    The Hermitian conjugate applies to the couplings only; the diagonal
    -phi_dot terms appear once.
    """
    p2, p3, p4 = frame.phi2(t), frame.phi3(t), frame.phi4(t)
    c12 = -1j * np.exp(-1j * p2) * (gamma1_dot * math.cos(theta1) + gamma2_dot * math.cos(theta2))
    c13 = -1j * np.exp(-1j * p3) * (gamma1_dot * math.sin(theta1) + gamma2_dot * math.sin(theta2))
    c24 = -1j * np.exp(1j * (p2 - p4)) * (-gamma1_dot * math.sin(theta1) + gamma2_dot * math.sin(theta2))
    c34 = -1j * np.exp(1j * (p3 - p4)) * (gamma1_dot * math.cos(theta1) - gamma2_dot * math.cos(theta2))
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = -frame.phi2_dot(t)
    h[2, 2] = -frame.phi3_dot(t)
    h[3, 3] = -frame.phi4_dot(t)
    h[0, 1] = c12
    h[1, 0] = np.conj(c12)
    h[0, 2] = c13
    h[2, 0] = np.conj(c13)
    h[1, 3] = c24
    h[3, 1] = np.conj(c24)
    h[2, 3] = c34
    h[3, 2] = np.conj(c34)
    return h


def propagator_entries(gamma, theta: float, delta: float, t) -> np.ndarray:
    """Closed-form evolution operator, entries first: shape (4, 4, ...).

    The one writer of the closed form.  Broadcasts over ``gamma`` and
    ``t``; entry (i, j) is the array ``u[i, j]`` over their broadcast
    shape, so a grid of nodes is one contiguous row per entry.  Each entry
    shared by two positions is evaluated once.  The entries linking |1>
    with |4> and |2> with |3> are written as zeros: the diamond has no
    such links, so direct |1> -> |4> transfer is structurally forbidden.
    """
    g = np.asarray(gamma, dtype=float)
    tt = np.asarray(t, dtype=float)
    u = np.empty((4, 4) + np.broadcast(g, tt).shape, dtype=complex)
    c = np.cos(g)
    # an array, 0-d for a scalar call: a float64 scalar would take Python's
    # complex products, which sign some zeros unlike numpy's
    s = np.sin(g)[...]
    ct = math.cos(theta)
    st = math.sin(theta)
    e = np.exp(-1j * delta * tt)
    u[0, 0] = u[1, 1] = c
    u[0, 1] = u[1, 0] = -1j * ct * s
    u[0, 2] = 1j * st * s
    u[1, 3] = -1j * st * s
    u[2, 0] = 1j * e * s * st
    u[3, 1] = -1j * e * s * st
    u[2, 2] = u[3, 3] = e * c
    u[2, 3] = u[3, 2] = -1j * e * ct * s
    u[0, 3] = u[1, 2] = u[2, 1] = u[3, 0] = 0.0
    return u


def propagator_matrix(gamma, theta: float, delta: float, t) -> np.ndarray:
    """Closed-form evolution operator for given gamma value(s) and time(s).

    Broadcasts over ``gamma`` and ``t``; returns shape (..., 4, 4), a view
    of :func:`propagator_entries` with the entry axes moved last.  The
    (4, 1) entry is identically zero: direct |1> -> |4> transfer is
    structurally forbidden by the diamond topology.
    """
    u = propagator_entries(gamma, theta, delta, t)
    return u.transpose(*range(2, u.ndim), 0, 1)


def analytic_propagator(angles: DiamondAngles, t: float, params: SystemParams) -> np.ndarray:
    """U(t) from the closed form, evaluated along the drive angle gamma(t)."""
    g, _ = angles.gamma(t)
    return propagator_matrix(float(g), angles.theta, params.delta, float(t))
