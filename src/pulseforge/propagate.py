"""Independent numerical verification: fixed-step integration of the
time-dependent Schrodinger equation under a control schedule.

This module never touches the closed-form propagator when it integrates;
it builds the laboratory-frame Hamiltonian, in its two sectors (below),
from the schedule's control values and steps the state with classical
fourth-order Runge-Kutta.  That keeps it an honest cross-check of every
synthesized pulse.

The equation is linear in the state, so each RK4 step is one transfer
matrix built from the Hamiltonian at the step's start, midpoint and end.
The diamond Hamiltonian commutes with a fixed swap of the bare levels, so
in the constant basis ``dqd.SECTOR_BASIS`` it is block-diagonal: two 2x2
sectors (``dqd.sector_hamiltonian``).  The RK4 transfer matrix is a
polynomial in the stage generators, so stepping the sector coordinates
``c = SECTOR_BASIS^-1 psi`` is the same RK4 with the same truncation
error, its rounding in a different order, at a quarter of the multiplies:
every product is two 2x2 products instead of one 4x4.

The matrices are built in fixed-size blocks of steps, entries first: a
stack of m sector pairs is a (2, 2, 2, m) array (row, column, sector,
step), and a batched product is two broadcast multiply-adds over the
steps.  Inside a block the states come from a two-level scan.  The block
is cut into chunks of SCAN_CHUNK steps; the running products within every
chunk are formed together (one batched product per position in the
chunk), each chunk's entry state is carried from the previous one by one
product of the chunk's sector pair, and a last batched product applies
every running product to its chunk's entry state.  That is about one
matrix product per step, like the step-by-step loop, with a handful of
Python iterations per block instead of one per step; a full log-depth
scan would cost n log n products.  Each block then writes its states back
in lab form, ``psi = SECTOR_BASIS c`` (sums and differences), so the norm
is checked on the lab state at every step.  A stack of initial states
rides through the same pass.

:func:`verify` evaluates the closed form U once and integrates two
states whatever its probes.  W, the RK4 propagator, and U both commute
with S, so their columns |1> and |4> fix every entry (W|2> = S W|1>,
W|3> = -S W|4>).  In S's eigenbasis, the coordinates of those two columns
are the columns of each operator's two 2x2 sector blocks.  Each probe's
norm and its gap to the closed form are quadratic forms in the per-node
Gram matrices of W's blocks and of W - U's blocks.  The largest
eigenvalue of a 2x2 Gram matrix has a closed form, so the operator 2-norm
of W - U over the grid comes from the same Grams.  Nothing outlives the call.

The integrator is deterministic: fixed step, no adaptivity, pure numpy
arithmetic in a fixed order, so repeated runs on one platform are
bit-identical.  The state norm is monitored at every step but never
renormalized; renormalizing would mask integrator faults.

Each integration allocates its buffers once, before its first block: the
generator stack, the RK4 stages, the step matrices, and the scan's
running products and states, each an array of its own.  Every block
writes into them with ``out=``, and writes its lab states straight into
their rows of the returned stack.  Without that, the allocator may hand a
block's temporaries back to the system and fault them in again for the
next block.

:func:`verify` is the one place a schedule without a usable drive-angle
ramp is refused (:func:`compare_analytic` refuses it before it builds its
default grid): it raises
:class:`~pulseforge.errors.UnsupportedComparisonError` with the reason
``ControlSchedule.ramp_refusal`` gives (missing theta/gamma_final headers,
an unknown family, a sampled ansatz without knots, or a slope scale past
the float range).  The closed form reads the schedule's one resolved ramp
(``ControlSchedule.angles()``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dqd import SECTOR_BASIS, check_normalized, hamiltonian, propagator_entries, sector_hamiltonian
from .errors import IntegrationError, PulseforgeError, UnsupportedComparisonError
from .synth import ControlSchedule

DEFAULT_N_STEPS = 4000

NORM_DRIFT_LIMIT = 1e-6

# the most steps one integration takes: verify's peak grows by about 0.8 kB
# a step, so this many keep it near 200 MB
STEP_BUDGET = 250_000

# points at which steps_for reads the drive of an ansatz that RK4 plays
DRIVE_POINTS = 257

# steps whose transfer matrices are built at once; bounds the working set
# (8 complex entries per step, two sectors' 2x2 matrices) whatever the grid size
TRANSFER_BLOCK = 512

# steps per chunk of the two-level scan: SCAN_CHUNK - 1 batched products
# within the chunks, then one sector-pair product per chunk, per block
SCAN_CHUNK = 16

_EYE = np.eye(4).reshape(4, 4, 1)
# both sectors' identity, entries first
_EYE2 = np.eye(2).reshape(2, 2, 1, 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid over [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int = DEFAULT_N_STEPS

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
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


def _peak_drive(tau: np.ndarray, alpha: np.ndarray) -> float:
    """The largest finite sqrt(tau^2 + |alpha|^2), or 0.0 when none is finite."""
    drive = np.hypot(tau, np.abs(alpha))
    return float(np.max(drive, where=np.isfinite(drive), initial=0.0))


def steps_for(schedule: ControlSchedule, tol: float = 0.0) -> int:
    """The fewest RK4 steps whose predicted errors stay under a tenth of
    ``tol`` and of NORM_DRIFT_LIMIT.

    On the imaginary axis RK4's stability function R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24 (Hairer and Wanner, *Solving ODEs II*, §IV.2) loses
    about y^6 / 144 of the norm per step of y = h omega, and about y^5 / 120
    of the phase.  Over n steps of a pulse with x = T omega that is a norm
    loss of x^6 / (144 n^5) and a phase error of x^5 / (120 n^4).  omega
    bounds ||H||: |delta| plus the largest finite sqrt(tau^2 + |alpha|^2)
    of the samples and, where RK4 plays the ansatz, of the ansatz at
    DRIVE_POINTS times (a non-finite sample is the integration's to
    reject).  A ``tol`` of 0 bounds the norm loss alone: no count meets it,
    and any gap fails it.

    The sampled ramp's clamped spline G(s), with gamma(t) = G(t / T), is
    cubic between knots, so the drive gamma_dot = G'(t / T) / T has a second
    derivative that jumps by dG3_k / T^3 at knot k (G3 = d^3 G / ds^3,
    ``AnsatzSpec.knot_jump`` sums the |dG3_k|).  RK4's first-order term on a
    step is Simpson's rule, and on a step of length h that holds a jump J of
    the integrand's second derivative Simpson's error is at most
    |J| h^3 / 324, reached with the jump a third into the step.  That is
    the Peano kernel theorem: Simpson's rule is exact for cubics, so its
    error on f is its third-order Peano kernel K integrated against f's
    third derivative, here J delta(t - a), which gives J K(a), and
    max |K| = h^3 / 324 at a = h/3 and 2h/3 (Davis and Rabinowitz,
    *Methods of Numerical Integration*, on Peano kernels).  With h = T / n
    the T's cancel: the knots add a phase error of at most
    sum_k |dG3_k| / (324 n^3), held to tol / 10 like the stability term.

    Where RK4 plays the samples linearly interpolated, DEFAULT_N_STEPS is
    a floor: the interpolant's kinks at every sample are not bounded here.

    Raises :class:`~pulseforge.errors.PulseforgeError` (exit 2) when omega
    is not finite or the count is past STEP_BUDGET.
    """
    # RK4 plays the ramp where the samples follow it, else their interpolant
    ramp = schedule._ramp if schedule._samples_match_angles else None
    jumps = 0.0 if ramp is None else ramp.knot_jump
    with np.errstate(over="ignore", invalid="ignore"):
        peak = _peak_drive(schedule.tau, schedule.alpha)
        if ramp is not None:
            # the ramp may peak between sparse samples
            peak = max(peak, _peak_drive(*schedule.controls_at(np.linspace(0.0, schedule.T, DRIVE_POINTS))))
        omega = abs(schedule.params.delta) + peak
        x = np.float64(schedule.T) * omega
        need = x ** 1.2 / (144.0 * (NORM_DRIFT_LIMIT / 10.0)) ** 0.2
        if tol > 0.0:
            need = max(need, x ** 1.25 / (120.0 * (tol / 10.0)) ** 0.25,
                       (jumps / (324.0 * (tol / 10.0))) ** (1.0 / 3.0))
    if not need <= STEP_BUDGET:
        raise PulseforgeError(
            f"RK4 needs about {need:.3g} steps for T * omega = {x:.3g} rad and spline knot jumps {jumps:.3g} "
            f"at tol {tol:.3e}, "
            f"past the budget of {STEP_BUDGET}; pass --steps (at most {STEP_BUDGET}) to choose the count"
        )
    n = max(2, math.ceil(need))
    return n if ramp is not None else max(n, DEFAULT_N_STEPS)


def _hamiltonian_stack(tau: np.ndarray, alpha: np.ndarray, delta: float) -> np.ndarray:
    """-i H at each time, stacked; vectorized over the leading axis."""
    h = hamiltonian(tau, alpha, delta)
    return np.multiply(-1j, h, out=h)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Batched matrix products, entries first: ``a`` is (r, n, ...), ``b`` is (n, k, ...).

    Written into ``out``, with ``tmp`` of the same shape as scratch, when
    they are given; neither may share memory with ``a`` or ``b``.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a[:, 0, None].shape, b[0].shape), dtype=np.result_type(a, b))
        tmp = np.empty_like(out)
    np.multiply(a[:, 0, None], b[0], out=out)
    for j in range(1, a.shape[1]):
        out += np.multiply(a[:, j, None], b[j], out=tmp)
    return out


def _transfer_matrices(a: np.ndarray, h: float, out: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """RK4 step matrices of both sectors from -i H at the node and midpoint times they span.

    ``a`` holds 2m + 1 matrix pairs, shape (2, 2, 2, 2m + 1), in the order
    node, midpoint, node, ...; the m pairs ``M`` with ``c_{i+1} = M_i c_i``
    are written into ``out``, shape (2, 2, 2, m), which is also the
    products' scratch until then.  ``stages`` is scratch, shape
    (3, 2, 2, 2, m).
    """
    k1 = a[..., 0:-1:2]
    a2 = a[..., 1::2]
    a3 = a[..., 2::2]
    x, k2, k3 = stages
    k2 = _product(a2, np.add(_EYE2, np.multiply(0.5 * h, k1, out=x), out=x), k2, out)
    k3 = _product(a2, np.add(_EYE2, np.multiply(0.5 * h, k2, out=x), out=x), k3, out)
    np.add(_EYE2, np.multiply(h, k3, out=x), out=x)
    # _EYE2 + (h / 6) * (k1 + 2 * (k2 + k3) + k4), in that order; k4 takes k3's place
    s = np.add(k2, k3, out=k2)
    k4 = _product(a3, x, k3, out)
    s = np.multiply(2.0, s, out=s)
    s = np.add(np.add(k1, s, out=s), k4, out=s)
    return np.add(_EYE2, np.multiply(h / 6.0, s, out=s), out=out)


def _to_lab(c: np.ndarray, out: np.ndarray) -> None:
    """Lab states ``SECTOR_BASIS @ c`` into ``out``, (4, k, ...), from
    sector coordinates ``c``, (row, k, sector, ...)."""
    np.add(c[:, :, 0], c[:, :, 1], out=out[0::2])
    np.subtract(c[0, :, 0], c[0, :, 1], out=out[1])
    np.subtract(c[1, :, 1], c[1, :, 0], out=out[3])


def _rk4_states(schedule: ControlSchedule, psi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States of every column of ``psi`` (shape (4, k)) on the grid: (n + 1, 4, k).

    Raises :class:`~pulseforge.errors.IntegrationError` when a sampled
    control is not finite.  The norm drift is the caller's to check
    (:func:`_check_drift`), on the states it reports.
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
    k = psi.shape[1]
    # buffers for a full block; a shorter last block takes leading slices.
    # Every matrix stack is (row, column, sector, ...), every state stack
    # (row, probe, sector, ...)
    size = min(n, TRANSFER_BLOCK)
    chunks = -(-size // SCAN_CHUNK)
    # -i H in both sectors at the block's nodes and midpoints
    generators = np.empty((2, 2, 2, 2 * size + 1), dtype=complex)
    stages = np.empty((3, 2, 2, 2, size), dtype=complex)
    # step matrices padded with identities to whole chunks, and the running
    # products within each chunk, (..., position in the chunk, chunk), so
    # that each position's products are written contiguously
    steps = np.empty((2, 2, 2, chunks * SCAN_CHUNK), dtype=complex)
    runs = np.empty((2, 2, 2, SCAN_CHUNK, chunks), dtype=complex)
    run_tmp = np.empty((2, 2, 2, chunks), dtype=complex)
    # per chunk, sector first for matmul, its step (chunk, sector, row,
    # column) and the sector coordinates entering it (chunk, sector, row,
    # probe); entry[0] carries the state from block to block
    chunk_steps = np.empty((chunks, 2, 2, 2), dtype=complex)
    entry = np.empty((chunks, 2, 2, k), dtype=complex)
    scan = np.empty((2, k, 2, SCAN_CHUNK, chunks), dtype=complex)
    scan_tmp = np.empty_like(scan)
    # a last block's padding steps write up to SCAN_CHUNK - 1 rows past the grid
    states = np.empty((n + SCAN_CHUNK,) + psi.shape, dtype=complex)
    states[0] = psi
    # sector coordinates c = SECTOR_BASIS^-1 psi, (sector, row, probe)
    np.multiply(0.5, (SECTOR_BASIS.T @ psi).reshape(2, 2, -1), out=entry[0])
    # a step matrix too large for RK4 overflows to inf and nan; the caller's
    # drift check rejects every such state, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, TRANSFER_BLOCK):
            stop = min(start + TRANSFER_BLOCK, n)
            m = stop - start
            c = -(-m // SCAN_CHUNK)
            nodes = slice(2 * start, 2 * stop + 1)
            a = generators[..., :2 * m + 1]
            sector_hamiltonian(tau[nodes], alpha[nodes], schedule.params.delta, a.transpose(3, 2, 0, 1))
            np.multiply(-1j, a, out=a)
            _transfer_matrices(a, h, steps[..., :m], stages[..., :m])
            steps[..., m:c * SCAN_CHUNK] = _EYE2
            # the two-level scan: running products within every chunk, then
            # each chunk's entry state from the one before, then every
            # running product applied to its chunk's entry state
            block = steps[..., :c * SCAN_CHUNK].reshape(2, 2, 2, c, SCAN_CHUNK)
            run = runs[..., :c]
            run[..., 0, :] = block[..., 0]
            for j in range(1, SCAN_CHUNK):
                _product(block[..., j], run[..., j - 1, :], run[..., j, :], run_tmp[..., :c])
            np.copyto(chunk_steps[:c], run[..., -1, :].transpose(3, 2, 0, 1))
            for i in range(c - 1):
                np.matmul(chunk_steps[i], entry[i], out=entry[i + 1])
            chunk_scan = scan[..., :c]
            _product(run, entry[:c].transpose(2, 3, 1, 0)[:, :, :, None], chunk_scan, scan_tmp[..., :c])
            last, j = divmod(m - 1, SCAN_CHUNK)
            np.copyto(entry[0], chunk_scan[..., j, last].transpose(2, 0, 1))
            # the state after step SCAN_CHUNK * i + j goes to row
            # start + 1 + SCAN_CHUNK * i + j, written in lab form
            rows = states[start + 1:start + 1 + c * SCAN_CHUNK].reshape(c, SCAN_CHUNK, 4, k)
            _to_lab(chunk_scan, rows.transpose(2, 3, 1, 0))
    return states[:n + 1]


def _check_drift(drift: float) -> None:
    """Raise :class:`~pulseforge.errors.IntegrationError` unless ``drift``,
    the largest |norm - 1| of the reported states, is within NORM_DRIFT_LIMIT."""
    if not drift <= NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"state norm drifted by {drift:.3g} (limit {NORM_DRIFT_LIMIT:g}); "
            "increase the number of integration steps",
            drift=drift,
        )


def _integrate_columns(schedule: ControlSchedule, psi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """States of every column of ``psi`` (shape (4, k)) on the grid: (n + 1, 4, k).

    Raises :class:`~pulseforge.errors.IntegrationError` when a sampled
    control is not finite, or when any state's norm drifts by more than
    NORM_DRIFT_LIMIT at any step, or is not finite.
    """
    states = _rk4_states(schedule, psi, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    _check_drift(drift)
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


def _closed_form(schedule: ControlSchedule, grid: TimeGrid) -> np.ndarray:
    """Closed-form U at the grid's nodes, entries first (4, 4, n + 1).

    The schedule must carry its drive angles.
    """
    angles = schedule.angles()
    times = grid.times
    gammas, _ = angles.gamma(times)
    return propagator_entries(gammas, angles.theta, schedule.params.delta, times)


def _unitarity(u: np.ndarray) -> float:
    """Max |U^dagger U - 1| entry of closed-form entries ``u`` (4, 4, n + 1).

    The Gram matrices are formed TRANSFER_BLOCK nodes at a time in one
    buffer, so the check holds one block's products whatever the grid size.
    """
    n = u.shape[-1]
    buf = np.empty((3, 4, 4, min(n, TRANSFER_BLOCK)), dtype=complex)
    maxima = np.empty(-(-n // TRANSFER_BLOCK))
    for i, start in enumerate(range(0, n, TRANSFER_BLOCK)):
        block = u[..., start:start + TRANSFER_BLOCK]
        adjoint, gram, tmp = buf[..., :block.shape[-1]]
        _product(np.conj(block.transpose(1, 0, 2), out=adjoint), block, gram, tmp)
        gram -= _EYE
        maxima[i] = np.max(np.abs(gram, out=tmp.real))
    # np.max, not a running max, so that a NaN entry anywhere reads as NaN
    return float(np.max(maxima))


def _unitarity_residual(schedule: ControlSchedule, grid: TimeGrid) -> float:
    """Max |U^dagger U - 1| entry of the closed form over the grid's nodes."""
    return _unitarity(_closed_form(schedule, grid))


def _sector_coordinates(x: np.ndarray) -> np.ndarray:
    """Twice the coordinates of lab vectors ``x``, (4, ...), in S's eigenbasis
    |1> + |2>, |4> - |3> (sector +) and |1> - |2>, |3> + |4> (sector -):
    shape (2, 2, ...) as (row, sector, ...).

    These basis vectors are twice the projections of |1> and |4> onto the
    two sectors (``SECTOR_BASIS`` with its |3> - |4> column negated), so
    for an operator that commutes with S, the returned values of its columns
    |1> and |4> are the two columns of its 2x2 block in each sector.  The
    basis is orthogonal with norm sqrt(2): coordinates y give |x|^2 = 2 |y|^2.
    """
    out = np.empty((2, 2) + x.shape[1:], dtype=complex)
    np.add(x[0], x[1], out=out[0, 0])
    np.subtract(x[0], x[1], out=out[0, 1])
    np.subtract(x[3], x[2], out=out[1, 0])
    np.add(x[2], x[3], out=out[1, 1])
    return out


def _gram(blocks: np.ndarray) -> np.ndarray:
    """Gram matrices ``B^dagger B`` of 2x2 sector blocks (row, sector, column, ...).

    Returns (sector, 4, ...): the entries G00, G11, Re G01 and Im G01.
    """
    g = np.empty((2, 4) + blocks.shape[3:])
    sq = np.square(blocks.real)
    sq += np.square(blocks.imag)
    np.add(sq[0], sq[1], out=g[:, :2])
    off = np.conj(blocks[0, :, 0]) * blocks[0, :, 1]
    off += np.conj(blocks[1, :, 0]) * blocks[1, :, 1]
    g[:, 2] = off.real
    g[:, 3] = off.imag
    return g


def _probe_norms_sq(gram: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """|X psi|^2 at every node, (k, n + 1), for each column psi of ``probes``
    (4, k), from the sector Grams of an S-commuting X (:func:`_gram`)."""
    y = 0.5 * _sector_coordinates(probes)
    z = np.conj(y[0]) * y[1]
    # y^dagger G y = |y0|^2 G00 + |y1|^2 G11 + 2 Re(conj(y0) y1 G01) per sector
    w = np.stack([np.abs(y[0]) ** 2, np.abs(y[1]) ** 2, 2.0 * z.real, -2.0 * z.imag], axis=1)
    # the basis vectors' norm is sqrt(2), so |X psi|^2 = 2 sum y^dagger G y
    return 2.0 * (w.reshape(8, -1).T @ gram.reshape(8, -1))


# the lab columns |1> and |4>; the others of an operator that commutes with
# S are their S-images, U e2 = S U e1 and U e3 = -S U e4
_COLUMNS = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)


def verify(schedule: ControlSchedule, probes: np.ndarray, grid: TimeGrid) -> tuple[float, float, float]:
    """Probe gap, operator gap and unitarity residual of one evaluation.

    ``probes`` holds unit states as columns, (4, k).  The gaps are the max
    over the nodes of each probe's 2-norm gap and of the operator 2-norm of
    W - U.  The latter is block-diagonal in S's orthogonal eigenbasis, so
    its 2-norm is the larger of its blocks' largest singular values, each
    the square root of its Gram matrix's larger eigenvalue
    ``(G00 + G11) / 2 + sqrt(((G00 - G11) / 2)^2 + |G01|^2)``.

    Raises :class:`~pulseforge.errors.UnsupportedComparisonError` without a
    usable drive-angle ramp, and :class:`~pulseforge.errors.IntegrationError`
    when any probe's norm drifts by more than NORM_DRIFT_LIMIT at any node,
    before any gap is read.
    """
    if schedule.angles() is None:
        raise UnsupportedComparisonError(f"{schedule.ramp_refusal}; cannot verify")
    u = _closed_form(schedule, grid)
    lab = _rk4_states(schedule, _COLUMNS, grid).transpose(1, 2, 0)
    # a state that overflowed is rejected by the drift check, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        w = _gram(_sector_coordinates(lab))
        gap = _gram(_sector_coordinates(lab - u[:, ::3]))
        drift = float(np.max(np.abs(np.sqrt(_probe_norms_sq(w, probes)) - 1.0)))
    _check_drift(drift)
    probe_gap = math.sqrt(float(np.max(_probe_norms_sq(gap, probes))))
    g00, g11, re, im = gap.transpose(1, 0, 2)
    half = 0.5 * (g00 - g11)
    top = 0.5 * (g00 + g11) + np.sqrt(half * half + re * re + im * im)
    return probe_gap, math.sqrt(float(np.max(top))), _unitarity(u)


def _operator_gap(schedule: ControlSchedule, grid: TimeGrid) -> float:
    """Max over the grid's nodes of the operator 2-norm of W - U (:func:`verify`)."""
    return verify(schedule, _COLUMNS, grid)[1]


def compare_analytic(schedule: ControlSchedule, psi0: np.ndarray, grid: TimeGrid | None = None) -> float:
    """Max 2-norm gap between the integrated state and the closed form.

    ``psi0`` is one state, shape (4,), or a stack of them, shape (k, 4);
    the max gap over all of its states is returned.  RK4 integrates the
    columns |1> and |4> once, and every state's norm and gap are read from
    their sector Grams, so a stack costs no more integration than one
    state.  Raises :class:`~pulseforge.errors.IntegrationError` when any
    state's norm drifts by more than NORM_DRIFT_LIMIT at any node.
    Requires the schedule to carry its generating drive angles; raises
    :class:`~pulseforge.errors.UnsupportedComparisonError` otherwise.
    """
    if schedule.angles() is None:
        raise UnsupportedComparisonError(f"{schedule.ramp_refusal}; cannot verify")
    if grid is None:
        grid = TimeGrid(schedule.T)
    probes = np.stack([check_normalized(p) for p in np.reshape(psi0, (-1, 4))], axis=1)
    return verify(schedule, probes, grid)[0]
