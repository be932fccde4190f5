import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseforge import (
    AnsatzSpec,
    ControlSchedule,
    IntegrationError,
    NotGateSpec,
    PrepareSpec,
    ScheduleMeta,
    SystemParams,
    TimeGrid,
    UnsupportedComparisonError,
    basis_state,
    compare_analytic,
    fidelity_trace,
    integrate,
    left_qubit_state,
    schedule_from_angles,
    synthesize_gate,
    synthesize_preparation,
)
from pulseforge.dqd import propagator_matrix
from pulseforge.propagate import (
    DEFAULT_N_STEPS,
    NORM_DRIFT_LIMIT,
    SCAN_CHUNK,
    TRANSFER_BLOCK,
    _closed_form,
    _hamiltonian_stack,
    _integrate_columns,
    _operator_gap,
    _product,
    _rk4_states,
    _unitarity_residual,
)
from conftest import REF_DELTA, random_unit_state


def verify_probes():
    """The four probe states ``pulseforge verify`` checks, stacked."""
    return np.stack([
        basis_state(1),
        basis_state(4),
        left_qubit_state(0.25 * math.pi, 0.0),
        left_qubit_state(0.25 * math.pi, 0.5 * math.pi),
    ])


def loop_rk4(schedule, psi0, grid):
    """Reference: classical RK4 stepped on the state vector, one step at a time."""
    tau, alpha = schedule.controls_at(grid.half_times)
    a_stack = _hamiltonian_stack(np.asarray(tau, dtype=float), np.asarray(alpha, dtype=complex), schedule.params.delta)
    n = grid.n_steps
    h = grid.t_end / n
    h6 = h / 6.0
    psi = np.asarray(psi0, dtype=complex)
    states = np.empty((n + 1, 4), dtype=complex)
    states[0] = psi
    for i in range(n):
        a1 = a_stack[2 * i]
        a2 = a_stack[2 * i + 1]
        a3 = a_stack[2 * i + 2]
        k1 = a1 @ psi
        k2 = a2 @ (psi + (0.5 * h) * k1)
        k3 = a2 @ (psi + (0.5 * h) * k2)
        k4 = a3 @ (psi + h * k3)
        psi = psi + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        states[i + 1] = psi
    return states


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_end=0.0)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, n_steps=1)
    grid = TimeGrid(t_end=2.0, n_steps=4)
    assert grid.times[0] == 0.0 and grid.times[-1] == 2.0
    assert grid.half_times.size == 2 * grid.n_steps + 1


def test_free_evolution_phases_only():
    # gamma_final = 0 freezes the drive; |3> just precesses at the splitting
    delta = 3.7
    sched = schedule_from_angles(0.4, 0.0, 2.0, SystemParams(delta=delta), n_samples=32)
    assert np.all(sched.tau == 0) and np.all(sched.alpha == 0)
    traj = integrate(sched, basis_state(3), TimeGrid(2.0, 2000))
    expected = np.exp(-1j * delta * traj.times)
    assert np.max(np.abs(traj.states[:, 2] - expected)) < 1e-9
    assert np.max(np.abs(traj.populations - [0, 0, 1, 0])) < 1e-12


def test_populations_sum_to_one(ref_prep_schedule):
    traj = integrate(ref_prep_schedule, basis_state(1))
    sums = traj.populations.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-8


def test_norm_conservation(ref_prep_schedule):
    traj = integrate(ref_prep_schedule, basis_state(1))
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-9


def test_integration_matches_closed_form(ref_prep_schedule):
    err = compare_analytic(ref_prep_schedule, basis_state(1))
    assert err < 1e-8


def test_reference_prep_final_populations_and_blocked_level(ref_prep_schedule):
    traj = integrate(ref_prep_schedule, basis_state(1))
    np.testing.assert_allclose(traj.populations[-1], [0, 0.25, 0.75, 0], atol=1e-6)
    assert np.max(traj.populations[:, 3]) < 1e-8
    # the release of |1> is monotone for this pulse
    p1 = traj.populations[:, 0]
    assert np.all(np.diff(p1) <= 1e-12)


def test_blocked_level_for_random_schedules(rng):
    # the 1e-8 leakage bound holds at the default integration resolution
    for _ in range(10):
        sched = schedule_from_angles(
            rng.uniform(-math.pi / 2, math.pi / 2),
            rng.choice([math.pi / 2, math.pi, 1.5 * math.pi]),
            rng.uniform(0.5e-9, 5e-9),
            SystemParams(delta=rng.uniform(1e9, 1e10)),
        )
        traj = integrate(sched, basis_state(1))
        assert np.max(np.abs(traj.states[:, 3])) < 1e-8


def test_fidelity_trace_endpoints(ref_prep_schedule):
    traj = integrate(ref_prep_schedule, basis_state(1))
    same = fidelity_trace(traj, traj.states[0])
    assert abs(same.fidelity[0] - 1.0) < 1e-12
    orthogonal = fidelity_trace(traj, basis_state(4))
    assert np.max(orthogonal.fidelity) < 1e-12


def test_fidelity_stays_in_range(ref_prep_schedule, rng):
    traj = integrate(ref_prep_schedule, basis_state(1))
    for _ in range(10):
        trace = fidelity_trace(traj, random_unit_state(rng))
        assert np.all(trace.fidelity >= 0.0)
        assert np.all(trace.fidelity <= 1.0 + 1e-12)


def test_fidelity_global_phase_invariance(ref_prep_schedule, rng):
    traj = integrate(ref_prep_schedule, basis_state(1))
    target = random_unit_state(rng)
    base = fidelity_trace(traj, target).fidelity
    rotated = fidelity_trace(traj, np.exp(0.83j) * target).fidelity
    np.testing.assert_allclose(base, rotated, rtol=0, atol=1e-14)


def test_fidelity_requires_normalized_target(ref_prep_schedule):
    traj = integrate(ref_prep_schedule, basis_state(1))
    with pytest.raises(ValueError):
        fidelity_trace(traj, np.array([1.0, 1.0, 0.0, 0.0]))


def test_step_halving_shrinks_error_sixteenfold(ref_prep_schedule):
    coarse = compare_analytic(ref_prep_schedule, basis_state(1), TimeGrid(ref_prep_schedule.T, 200))
    fine = compare_analytic(ref_prep_schedule, basis_state(1), TimeGrid(ref_prep_schedule.T, 400))
    ratio = coarse / fine
    assert 10.0 < ratio < 25.0


def test_short_horizon_limit(ref_prep_schedule):
    err = compare_analytic(
        ref_prep_schedule, basis_state(1), TimeGrid(ref_prep_schedule.T * 1e-6, 16)
    )
    assert err < 1e-12


def test_corrupted_tunneling_is_detected(ref_prep_schedule, ref_params):
    corrupted = ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=ref_prep_schedule.tau * 1.01,
        alpha=ref_prep_schedule.alpha,
        meta=ref_prep_schedule.meta,
    )
    err = compare_analytic(corrupted, basis_state(1))
    assert err > 1e-3


def test_corrupted_tunneling_is_detected_with_stacked_probes(ref_prep_schedule, ref_params):
    corrupted = ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=ref_prep_schedule.tau * 1.01,
        alpha=ref_prep_schedule.alpha,
        meta=ref_prep_schedule.meta,
    )
    err = compare_analytic(corrupted, verify_probes())
    assert err > 1e-3


def test_stacked_probes_match_per_probe_calls(ref_prep_schedule, rng):
    probes = np.concatenate([verify_probes(), [random_unit_state(rng)]])
    grid = TimeGrid(ref_prep_schedule.T, 1000)
    stacked = compare_analytic(ref_prep_schedule, probes, grid)
    per_probe = max(compare_analytic(ref_prep_schedule, p, grid) for p in probes)
    assert abs(stacked - per_probe) <= 1e-13


def test_compare_requires_angle_metadata(ref_prep_schedule, ref_params):
    stripped = ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=ref_prep_schedule.tau,
        alpha=ref_prep_schedule.alpha,
        meta=ScheduleMeta(gate="raw"),
    )
    with pytest.raises(UnsupportedComparisonError):
        compare_analytic(stripped, basis_state(1))


@pytest.mark.parametrize(
    "meta, reason",
    [
        (ScheduleMeta(theta=0.3, gamma_final=0.5 * math.pi, ansatz="gaussian"), "ansatz family 'gaussian' is unknown"),
        (ScheduleMeta(theta=0.3, gamma_final=0.5 * math.pi, ansatz="sampled"), "sampled ansatz has no profile knots"),
    ],
)
def test_compare_names_why_the_ramp_cannot_be_built(ref_prep_schedule, ref_params, meta, reason):
    sched = ControlSchedule(
        params=ref_params, times=ref_prep_schedule.times, tau=ref_prep_schedule.tau,
        alpha=ref_prep_schedule.alpha, meta=meta,
    )
    with pytest.raises(UnsupportedComparisonError, match=reason):
        compare_analytic(sched, basis_state(1))


def test_grid_must_stay_within_schedule(ref_prep_schedule):
    with pytest.raises(ValueError):
        integrate(ref_prep_schedule, basis_state(1), TimeGrid(ref_prep_schedule.T * 2, 100))


def test_initial_state_must_be_normalized(ref_prep_schedule):
    with pytest.raises(ValueError):
        integrate(ref_prep_schedule, np.array([1.0, 1.0, 0.0, 0.0]))


def test_norm_drift_raises():
    # absurdly coarse grid on a violent pulse: RK4 blows up and must say so
    wild = schedule_from_angles(0.3, 200 * math.pi, 1.0, SystemParams(delta=1.0), n_samples=64)
    with pytest.raises(IntegrationError):
        integrate(wild, basis_state(1), TimeGrid(1.0, 8))


def test_non_finite_control_raises(ref_prep_schedule, ref_params):
    # a NaN sample turns every later state into NaN; the drift check must
    # reject that rather than pass it as "no measurable drift"
    tau = ref_prep_schedule.tau.copy()
    tau[tau.size // 2] = np.nan
    poisoned = ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=tau,
        alpha=ref_prep_schedule.alpha,
        meta=ref_prep_schedule.meta,
    )
    with pytest.raises(IntegrationError):
        integrate(poisoned, basis_state(1))


def _sampled_prep_schedule(params):
    s_ax = np.linspace(0.0, 1.0, 80)
    g_ax = 0.25 * math.pi * (1 - np.cos(math.pi * s_ax))
    ansatz = AnsatzSpec(family="sampled", profile=(s_ax, g_ax))
    return synthesize_preparation(PrepareSpec(b2=0.5, b3=0.5j * math.sqrt(3.0)), params, ansatz)


@pytest.mark.parametrize("n_steps", [2, 511, 512, 513, 4000])
@pytest.mark.parametrize("family", ["cosine", "sampled", "interpolated"])
def test_transfer_matrices_match_vector_loop(family, n_steps, ref_prep_schedule, ref_params, rng):
    # the step matrices reorder the rounding of the loop's arithmetic, and
    # n_steps straddles the edges of the matrix blocks
    if family == "cosine":
        sched = ref_prep_schedule
    elif family == "sampled":
        sched = _sampled_prep_schedule(ref_params)
    else:
        sched = ControlSchedule(
            params=ref_params,
            times=ref_prep_schedule.times,
            tau=ref_prep_schedule.tau,
            alpha=ref_prep_schedule.alpha,
            meta=ScheduleMeta(gate="raw"),
        )
    # the default step size, so short grids stay accurate
    grid = TimeGrid(sched.T * n_steps / DEFAULT_N_STEPS, n_steps)
    psi0 = random_unit_state(rng)
    states = integrate(sched, psi0, grid).states
    assert np.max(np.abs(states - loop_rk4(sched, psi0, grid))) <= 1e-12


def _family_schedule(family, ref_prep_schedule, ref_params):
    if family == "cosine":
        return ref_prep_schedule
    if family == "sampled":
        return _sampled_prep_schedule(ref_params)
    return ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=ref_prep_schedule.tau,
        alpha=ref_prep_schedule.alpha,
        meta=ScheduleMeta(gate="raw"),
    )


# one step either side of a scan chunk and of a transfer block, and a long grid
SCAN_EDGES = [SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, TRANSFER_BLOCK - 1, TRANSFER_BLOCK + 1, 16000]


@pytest.mark.parametrize("n_steps", SCAN_EDGES)
@pytest.mark.parametrize("family", ["cosine", "sampled", "interpolated"])
def test_scan_matches_vector_loop_at_chunk_and_block_edges(family, n_steps, ref_prep_schedule, ref_params, rng):
    sched = _family_schedule(family, ref_prep_schedule, ref_params)
    # the default step size up to the full span, so short grids stay accurate
    grid = TimeGrid(sched.T * min(n_steps, DEFAULT_N_STEPS) / DEFAULT_N_STEPS, n_steps)
    psi0 = random_unit_state(rng)
    states = integrate(sched, psi0, grid).states
    assert np.max(np.abs(states - loop_rk4(sched, psi0, grid))) <= 1e-12
    assert np.array_equal(states, integrate(sched, psi0, grid).states)

    angles = sched.angles()
    if angles is None:
        return
    probes = verify_probes()
    gammas, _ = angles.gamma(grid.times)
    u = propagator_matrix(gammas, angles.theta, sched.params.delta, grid.times)
    loop_gap = max(
        float(np.max(np.linalg.norm(loop_rk4(sched, p, grid) - u @ p, axis=1))) for p in probes
    )
    gap = compare_analytic(sched, probes, grid)
    assert abs(gap - loop_gap) <= 1e-12
    assert gap == compare_analytic(sched, probes, grid)


def test_third_route_agreement_with_adaptive_integrator(ref_prep_schedule):
    # fixed-step RK4, the closed form, and scipy's adaptive RK45 must all
    # land on the same final state
    from scipy.integrate import solve_ivp

    sched = ref_prep_schedule
    psi0 = basis_state(1)

    def rhs(t, psi):
        tau, alpha = sched.controls_at(t)
        tau = float(tau)
        alpha = complex(alpha)
        delta = sched.params.delta
        c1, c2, c3, c4 = psi
        return -1j * np.array([
            tau * c2 + alpha * c3,
            tau * c1 - alpha * c4,
            np.conj(alpha) * c1 + delta * c3 + tau * c4,
            -np.conj(alpha) * c2 + tau * c3 + delta * c4,
        ])

    sol = solve_ivp(rhs, (0.0, sched.T), psi0, rtol=1e-11, atol=1e-13, max_step=sched.T / 100)
    adaptive_final = sol.y[:, -1]
    rk4_final = integrate(sched, psi0).final_state
    assert np.linalg.norm(adaptive_final - rk4_final) < 1e-7


def test_integration_deterministic(ref_prep_schedule, rng):
    psi0 = random_unit_state(rng)
    a = integrate(ref_prep_schedule, psi0)
    b = integrate(ref_prep_schedule, psi0)
    assert np.array_equal(a.states, b.states)


def test_interpolated_schedule_still_integrates(ref_prep_schedule, ref_params):
    # strip the metadata: integration falls back to linear interpolation of
    # the samples and stays accurate to the interpolation floor
    stripped = ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=ref_prep_schedule.tau,
        alpha=ref_prep_schedule.alpha,
        meta=ScheduleMeta(gate="raw"),
    )
    ref = integrate(ref_prep_schedule, basis_state(1)).final_state
    approx = integrate(stripped, basis_state(1)).final_state
    assert np.linalg.norm(ref - approx) < 1e-3
    assert np.linalg.norm(ref - approx) > 0.0


def test_overflowing_steps_raise_without_warnings():
    # step matrices overflow to inf and nan; the drift check is the only report
    wild = schedule_from_angles(0.3, 1e40, 1.0, SystemParams(delta=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="drifted by nan"):
            integrate(wild, basis_state(1), TimeGrid(wild.T, 8))


@pytest.mark.parametrize("probes_b", [1, 4])
@pytest.mark.parametrize("steps_b", [511, 513, 1025])
def test_integration_buffers_do_not_leak_between_calls(steps_b, probes_b, ref_prep_schedule, ref_params):
    # A, then B at another step and probe count, then A again: A's states
    # must not depend on what an earlier integration left behind
    sched_a = ref_prep_schedule
    sched_b = _sampled_prep_schedule(ref_params)
    probes = verify_probes().T.copy()
    grid_a = TimeGrid(sched_a.T, 1000)
    first = _integrate_columns(sched_a, probes, grid_a)
    _integrate_columns(sched_b, probes[:, :probes_b].copy(), TimeGrid(sched_b.T, steps_b))
    again = _integrate_columns(sched_a, probes, grid_a)
    assert first.tobytes() == again.tobytes()
    # nor on the block before: the last block of 1000 steps is a partial one
    for k in range(probes.shape[1]):
        assert np.max(np.abs(first[:, :, k] - loop_rk4(sched_a, probes[:, k], grid_a))) <= 1e-12


def _loop_drift(sched, grid):
    """Largest per-step |norm - 1| of the step loop over the verify probes."""
    return max(
        float(np.max(np.abs(np.linalg.norm(loop_rk4(sched, p, grid), axis=1) - 1.0))) for p in verify_probes()
    )


def test_drift_check_reads_every_lab_step():
    # The kernel steps sector coordinates c with |psi|^2 = 2 |c|^2; a drift
    # read at that scale, or on fewer states, would not match the loop's.
    # A not gate of 100 ns (50 Zeeman periods) drifts by about 4.8e-6 at
    # the default 4000 steps.
    sched = synthesize_gate(NotGateSpec(chi=0.3, mu=0.2), SystemParams(delta=math.pi * 1e9), AnsatzSpec(T=1e-7))
    coarse = TimeGrid(sched.T, DEFAULT_N_STEPS)
    expected = _loop_drift(sched, coarse)
    assert expected > NORM_DRIFT_LIMIT
    with pytest.raises(IntegrationError, match="drifted by") as exc:
        compare_analytic(sched, verify_probes(), coarse)
    assert exc.value.drift == pytest.approx(expected, rel=1e-6)
    # just under the limit the same pulse integrates, with the loop's drift
    fine = TimeGrid(sched.T, 5500)
    expected = _loop_drift(sched, fine)
    assert 0.9 * NORM_DRIFT_LIMIT < expected <= NORM_DRIFT_LIMIT
    states = _integrate_columns(sched, verify_probes().T.copy(), fine)
    assert float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0))) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n_steps", [TRANSFER_BLOCK - 1, TRANSFER_BLOCK, DEFAULT_N_STEPS])
def test_blockwise_unitarity_residual_matches_the_whole_grid(n_steps, ref_prep_schedule):
    # n_steps + 1 nodes: one whole block, a block and one node, and a
    # partial last block
    grid = TimeGrid(ref_prep_schedule.T, n_steps)
    u = _closed_form(ref_prep_schedule, grid)
    whole = float(np.max(np.abs(_product(np.conj(u.transpose(1, 0, 2)), u) - np.eye(4).reshape(4, 4, 1))))
    assert _unitarity_residual(ref_prep_schedule, grid) == whole


@functools.lru_cache(maxsize=None)
def _compare_schedule(family):
    """A preparation whose closed form ``compare_analytic`` reads, its RK4
    controls from the cosine ramp, the sampled ramp, or (interpolated) its
    tunneling samples edited past the sample-gap tolerance, which RK4 plays
    as linearly interpolated samples."""
    params = SystemParams(delta=REF_DELTA)
    if family == "sampled":
        return _sampled_prep_schedule(params)
    sched = synthesize_preparation(PrepareSpec(b2=0.5, b3=0.5j * math.sqrt(3.0)), params)
    if family == "cosine":
        return sched
    return ControlSchedule(params=params, times=sched.times, tau=sched.tau * (1.0 + 1e-7), alpha=sched.alpha, meta=sched.meta)


def _loop_closed_form(sched, grid):
    angles = sched.angles()
    gammas, _ = angles.gamma(grid.times)
    return propagator_matrix(gammas, angles.theta, sched.params.delta, grid.times)


COMPARE_FAMILIES = ["cosine", "sampled", "interpolated"]


@settings(deadline=None, max_examples=30)
@given(
    family=st.sampled_from(COMPARE_FAMILIES),
    n_steps=st.sampled_from([15, 16, 17, 511, 513, 4000]),
    n_random=st.integers(min_value=1, max_value=3),
    with_verify_probes=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_two_column_gap_and_drift_match_the_probe_loop(family, n_steps, n_random, with_verify_probes, seed):
    # RK4 integrates |1> and |4> only; every probe's gap and norm drift come
    # from their sector Grams, and must match stepping each probe itself
    sched = _compare_schedule(family)
    grid = TimeGrid(sched.T, n_steps)
    rng = np.random.default_rng(seed)
    probes = [random_unit_state(rng) for _ in range(n_random)]
    if with_verify_probes:
        probes = [*verify_probes(), *probes]
    loops = [loop_rk4(sched, p, grid) for p in probes]
    drift = max(float(np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0))) for s in loops)
    if drift > NORM_DRIFT_LIMIT:
        with pytest.raises(IntegrationError, match="drifted by") as exc:
            compare_analytic(sched, np.stack(probes), grid)
        assert exc.value.drift == pytest.approx(drift, rel=1e-6)
        return
    u = _loop_closed_form(sched, grid)
    loop_gap = max(float(np.max(np.linalg.norm(s - u @ p, axis=1))) for s, p in zip(loops, probes))
    assert abs(compare_analytic(sched, np.stack(probes), grid) - loop_gap) <= 1e-13


# S|1> = |2>, S|2> = |1>, S|3> = -|4>, S|4> = -|3>, as a row map and signs
_S_ROWS = [1, 0, 3, 2]
_S_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("n_steps", [15, 16, 17, 511, 513, 4000])
@pytest.mark.parametrize("family", COMPARE_FAMILIES)
def test_s_images_of_columns_one_and_four_are_the_direct_rk4_columns(family, n_steps):
    # W e2 = S W e1 and W e3 = -S W e4, bit for bit (a zero's sign aside)
    sched = _compare_schedule(family)
    states = _rk4_states(sched, np.eye(4, dtype=complex), TimeGrid(sched.T, n_steps))
    s_image_1 = states[:, _S_ROWS, 0] * _S_SIGNS
    s_image_4 = states[:, _S_ROWS, 3] * -_S_SIGNS
    assert (s_image_1 + 0.0).tobytes() == (states[:, :, 1] + 0.0).tobytes()
    assert (s_image_4 + 0.0).tobytes() == (states[:, :, 2] + 0.0).tobytes()


@pytest.mark.parametrize("n_steps", [511, 4000])
@pytest.mark.parametrize("family", COMPARE_FAMILIES)
def test_operator_gap_bounds_every_probe_and_is_the_two_norm(family, n_steps, rng):
    sched = _compare_schedule(family)
    grid = TimeGrid(sched.T, n_steps)
    probes = [*verify_probes(), *[random_unit_state(rng) for _ in range(8)]]
    gaps = [compare_analytic(sched, p, grid) for p in probes]
    operator_gap = _operator_gap(sched, grid)
    assert operator_gap >= max(gaps)
    # per node, the largest singular value of the full 4x4 gap
    gap = _integrate_columns(sched, np.eye(4, dtype=complex), grid) - _loop_closed_form(sched, grid)
    assert abs(operator_gap - float(np.max(np.linalg.norm(gap, ord=2, axis=(1, 2))))) <= 1e-15


def test_operator_gap_alone_checks_the_drift():
    # the 100 ns not gate drifts past the limit at the default 4000 steps;
    # read alone, the operator gap must refuse it, not report a number
    sched = synthesize_gate(NotGateSpec(chi=0.3, mu=0.2), SystemParams(delta=math.pi * 1e9), AnsatzSpec(T=1e-7))
    with pytest.raises(IntegrationError, match="drifted by"):
        _operator_gap(sched, TimeGrid(sched.T, DEFAULT_N_STEPS))


def test_rk4_working_set_is_bounded_by_the_block_not_the_grid(ref_prep_schedule):
    # past the returned states, the traced peak grows with the grid only by
    # its 2n + 1 evaluation points: tau (8 B), alpha (16 B) and their times
    # (8 B).  A buffer of one state or step matrix per step adds 128 B a step
    columns = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
    extra = {}
    for n_steps in (16000, 64000):
        tracemalloc.start()
        try:
            states = _rk4_states(ref_prep_schedule, columns, TimeGrid(ref_prep_schedule.T, n_steps))
            extra[n_steps] = tracemalloc.get_traced_memory()[1] - states.nbytes
        finally:
            tracemalloc.stop()
    assert extra[64000] - extra[16000] <= 32 * 2 * (64000 - 16000)
