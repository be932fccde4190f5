"""Independent numerical verification: fixed-step integration of the
time-dependent Schrodinger equation under a control schedule.

This module never touches the closed-form propagator when it integrates;
it builds the laboratory-frame Hamiltonian from the schedule's control
values and steps the state with classical fourth-order Runge-Kutta.  That
keeps it an honest cross-check of every synthesized pulse.

The equation is linear in the state, so each RK4 step is one 4x4 transfer
matrix built from the Hamiltonian at the step's start, midpoint and end.
The matrices are built in fixed-size blocks of steps and applied to the
state one step at a time, which is the same classical RK4 with its
rounding in a different order.  A stack of initial states rides through
the same pass, so checking several probe states costs one integration.

The integrator is deterministic: fixed step, no adaptivity, pure numpy
arithmetic in a fixed order, so repeated runs on one platform are
bit-identical.  The state norm is monitored at every step but never
renormalized; renormalizing would mask integrator faults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dqd import check_normalized, hamiltonian, propagator_matrix
from .errors import IntegrationError, UnsupportedComparisonError
from .synth import ControlSchedule

DEFAULT_N_STEPS = 4000

NORM_DRIFT_LIMIT = 1e-6

# steps whose transfer matrices are built at once; bounds the working set
# (16 complex entries per step) whatever the grid size
TRANSFER_BLOCK = 512


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid over [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int = DEFAULT_N_STEPS

    def __post_init__(self) -> None:
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be at least 2, got {self.n_steps!r}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    @property
    def half_times(self) -> np.ndarray:
        """Node and midpoint times interleaved (the RK4 evaluation points)."""
        return np.linspace(0.0, self.t_end, 2 * self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated state history on a time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (n_times, 4), complex

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class FidelityTrace:
    """Pointwise overlap-squared against a fixed target state."""

    times: np.ndarray
    fidelity: np.ndarray


def _hamiltonian_stack(tau: np.ndarray, alpha: np.ndarray, delta: float) -> np.ndarray:
    """-i H at each time, stacked; vectorized over the leading axis."""
    return -1j * hamiltonian(tau, alpha, delta)


def _transfer_matrices(a_stack: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices from -i H at the node and midpoint times they span.

    ``a_stack`` holds 2m + 1 matrices (node, midpoint, node, ...); the result
    holds the m matrices ``M`` with ``psi_{i+1} = M_i psi_i``.
    """
    eye = np.eye(4)
    k1 = a_stack[0:-1:2]
    a2 = a_stack[1::2]
    a3 = a_stack[2::2]
    k2 = a2 @ (eye + (0.5 * h) * k1)
    k3 = a2 @ (eye + (0.5 * h) * k2)
    k4 = a3 @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _integrate_columns(schedule: ControlSchedule, psi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States of every column of ``psi`` (shape (4, k)) on the grid: (n + 1, 4, k).

    Raises :class:`~pulseforge.errors.IntegrationError` when a sampled
    control is not finite, or when any state's norm drifts by more than
    NORM_DRIFT_LIMIT at any step, or is not finite.
    """
    if grid.t_end > schedule.T * (1.0 + 1e-12):
        raise ValueError(
            f"grid extends to {grid.t_end!r} s beyond the schedule span {schedule.T!r} s"
        )
    tau, alpha = schedule.controls_at(grid.half_times)
    tau = np.asarray(tau, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    finite = np.isfinite(tau) & np.isfinite(alpha)
    if not finite.all():
        bad = float(grid.half_times[np.argmin(finite)])
        raise IntegrationError(f"control samples are not finite at t = {bad!r} s")

    n = grid.n_steps
    h = grid.t_end / n
    states = np.empty((n + 1,) + psi.shape, dtype=complex)
    states[0] = psi
    for start in range(0, n, TRANSFER_BLOCK):
        stop = min(start + TRANSFER_BLOCK, n)
        nodes = slice(2 * start, 2 * stop + 1)
        m = _transfer_matrices(_hamiltonian_stack(tau[nodes], alpha[nodes], schedule.params.delta), h)
        for i in range(start, stop):
            np.dot(m[i - start], states[i], out=states[i + 1])

    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    if not drift <= NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"state norm drifted by {drift:.3g} (limit {NORM_DRIFT_LIMIT:g}); "
            "increase the number of integration steps"
        )
    return states


def integrate(schedule: ControlSchedule, psi0: np.ndarray, grid: TimeGrid | None = None) -> Trajectory:
    """Integrate i d psi/dt = H(t) psi over the grid with fixed-step RK4.

    The grid must lie within the schedule's span.  Raises
    :class:`~pulseforge.errors.IntegrationError` when the state norm
    drifts by more than 1e-6, which signals too coarse a step, or stops
    being finite.
    """
    if grid is None:
        grid = TimeGrid(schedule.T)
    psi = check_normalized(psi0)
    states = _integrate_columns(schedule, psi.reshape(4, 1), grid)
    return Trajectory(times=grid.times, states=states.reshape(-1, 4))


def fidelity_trace(traj: Trajectory, target: np.ndarray) -> FidelityTrace:
    """|<target | psi(t)>|^2 along a trajectory; global phases drop out."""
    tgt = check_normalized(target)
    overlaps = traj.states @ np.conj(tgt)
    return FidelityTrace(times=traj.times, fidelity=np.abs(overlaps) ** 2)


def compare_analytic(schedule: ControlSchedule, psi0: np.ndarray, grid: TimeGrid | None = None) -> float:
    """Max 2-norm gap between the integrated state and the closed form.

    ``psi0`` is one state, shape (4,), or a stack of them, shape (k, 4);
    a stack is integrated in one pass and the max gap over all of its
    states is returned.  Requires the schedule to carry its generating
    drive angles; raises
    :class:`~pulseforge.errors.UnsupportedComparisonError` otherwise.
    """
    angles = schedule.angles()
    if angles is None:
        raise UnsupportedComparisonError(
            "schedule carries no reconstructible drive-angle metadata"
        )
    if grid is None:
        grid = TimeGrid(schedule.T)
    probes = np.stack([check_normalized(p) for p in np.reshape(psi0, (-1, 4))], axis=1)
    states = _integrate_columns(schedule, probes, grid)
    times = grid.times
    gammas, _ = angles.gamma(times)
    u = propagator_matrix(gammas, angles.theta, schedule.params.delta, times)
    return float(np.max(np.linalg.norm(states - u @ probes, axis=1)))
