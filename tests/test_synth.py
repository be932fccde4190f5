import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pulseforge import (
    AnsatzSpec,
    ControlSchedule,
    DegeneratePhaseError,
    InfeasibleAmplitudeError,
    InvalidAnsatzError,
    NoFeasibleTimeError,
    NotGateSpec,
    PhaseGateSpec,
    PrepareSpec,
    TransportSpec,
    basis_state,
    gamma_ansatz,
    integrate,
    left_qubit_state,
    operation_time,
    propagator_matrix,
    solve_theta,
    synthesize_gate,
    synthesize_preparation,
    transport_amplitudes,
    zeta_phases,
)
from conftest import REF_DELTA

NOT_CHI, NOT_MU = math.pi / 3, math.pi / 4  # the NOT-gate worked example
NOT_THETA = 0.5 * math.acos(0.2)  # = 0.6847192..., rounds to 0.685


def fidelity(target, state):
    return abs(np.vdot(target, state)) ** 2


# ---------------------------------------------------------------- gamma ramp


def test_gamma_ansatz_boundary_values():
    g, gd = gamma_ansatz(0.0, 2.0, math.pi / 2)
    assert g == 0.0 and gd == 0.0
    g, gd = gamma_ansatz(2.0, 2.0, math.pi / 2)
    assert g == math.pi / 2
    assert gd == 0.0  # exactly: the pulse switches off


def test_gamma_ansatz_midpoint():
    duration = 3.0
    g, gd = gamma_ansatz(duration / 2, duration, math.pi / 2)
    assert abs(g - math.pi / 4) < 1e-15
    assert abs(gd - math.pi**2 / (4 * duration)) < 1e-15


def test_gamma_ansatz_rejects_bad_duration():
    with pytest.raises(InvalidAnsatzError):
        gamma_ansatz(0.0, 0.0, math.pi / 2)
    with pytest.raises(InvalidAnsatzError):
        gamma_ansatz(0.0, -1.0, math.pi / 2)


def test_ansatz_spec_validation():
    with pytest.raises(InvalidAnsatzError):
        AnsatzSpec(family="bogus")
    with pytest.raises(InvalidAnsatzError):
        AnsatzSpec(n_samples=1)
    with pytest.raises(InvalidAnsatzError):
        AnsatzSpec(T=2.0, t_max=1.0)
    with pytest.raises(InvalidAnsatzError):
        AnsatzSpec(family="sampled")  # profile missing
    bad = (np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, math.pi / 2]))
    with pytest.raises(InvalidAnsatzError):
        AnsatzSpec(family="sampled", profile=bad)  # too few points


# ------------------------------------------------------------- forward maps


def test_transport_amplitudes_theta_zero_pattern():
    chi, mu, zp = 0.4, 1.2, 2.7
    b = transport_amplitudes(chi, mu, 0.0, math.pi / 2, zp)
    np.testing.assert_allclose(
        b,
        [
            0.0,
            -1j * math.cos(chi),
            -1j * np.exp(1j * (mu - zp)) * math.sin(chi),
            0.0,
        ],
        atol=1e-15,
    )


def test_transport_amplitudes_no_transport_when_gamma_zero():
    chi, mu, zp = 0.8, 0.9, 1.1
    b = transport_amplitudes(chi, mu, 0.5, 0.0, zp)
    np.testing.assert_allclose(
        b,
        [math.cos(chi), 0.0, 0.0, math.sin(chi) * np.exp(1j * (mu - zp))],
        atol=1e-15,
    )


def test_transport_amplitudes_not_gate_swaps_magnitudes():
    # rounded theta = 0.685 still swaps |b2| and |b3| to a few 1e-4
    b = transport_amplitudes(NOT_CHI, NOT_MU, 0.685, math.pi / 2, 0.0)
    assert abs(abs(b[1]) - math.sin(NOT_CHI)) < 2e-4
    assert abs(abs(b[2]) - math.cos(NOT_CHI)) < 2e-4


def test_transport_amplitudes_match_propagator(rng):
    for _ in range(100):
        chi = rng.uniform(0, math.pi / 2)
        mu = rng.uniform(0, 2 * math.pi)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        gamma_t = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0, 8)
        delta = abs(rng.normal()) + 0.2
        b = transport_amplitudes(chi, mu, theta, gamma_t, delta * t)
        psi = propagator_matrix(gamma_t, theta, delta, t) @ left_qubit_state(chi, mu)
        np.testing.assert_allclose(b, psi, atol=1e-14)


_HALF_PI = 0.5 * math.pi


@settings(deadline=None, max_examples=300)
@given(
    chi=st.one_of(st.just(0.0), st.just(_HALF_PI), st.floats(0.0, 1e-9), st.floats(0.0, _HALF_PI)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 2.0 * math.pi)),
    theta=st.floats(-_HALF_PI, _HALF_PI),
    gamma_t=st.one_of(st.sampled_from([_HALF_PI, 3.0 * _HALF_PI]), st.floats(0.0, 2.0 * math.pi)),
    zeeman_phase=st.floats(-1e3, 1e3),
)
def test_forward_map_and_transport_phases_are_the_closed_form(chi, mu, theta, gamma_t, zeeman_phase):
    psi = left_qubit_state(chi, mu)
    expected = propagator_matrix(gamma_t, theta, zeeman_phase, 1.0) @ psi
    assert np.array_equal(transport_amplitudes(chi, mu, theta, gamma_t, zeeman_phase), expected)
    # the transport phases are read before Zeeman precession
    b = propagator_matrix(gamma_t, theta, 0.0, 1.0) @ psi
    if min(abs(b[1]), abs(b[2])) < 1e-12:
        with pytest.raises(DegeneratePhaseError):
            zeta_phases(chi, mu, theta, gamma_t)
    else:
        assert zeta_phases(chi, mu, theta, gamma_t) == (float(np.angle(b[1])), float(np.angle(b[2])))


def test_amplitude_sum_equals_sin_squared_gamma(rng):
    for _ in range(300):
        chi = rng.uniform(0, math.pi / 2)
        mu = rng.uniform(0, 2 * math.pi)
        theta = rng.uniform(-math.pi, math.pi)
        gamma_t = rng.uniform(0, 2 * math.pi)
        b = transport_amplitudes(chi, mu, theta, gamma_t, 0.0)
        total = abs(b[1]) ** 2 + abs(b[2]) ** 2
        assert abs(total - math.sin(gamma_t) ** 2) < 1e-12


# ------------------------------------------------------------ theta solving


def test_solve_theta_phase_gate_pattern():
    chi, mu = 0.7, 1.9
    sols = solve_theta(chi, mu, math.cos(chi), math.sin(chi))
    assert sols[0] == 0.0


def test_solve_theta_not_gate_branches():
    sols = solve_theta(NOT_CHI, NOT_MU, math.sin(NOT_CHI), math.cos(NOT_CHI))
    assert abs(sols[0] - NOT_THETA) < 1e-12
    assert abs(sols[0] - 0.685) < 5e-4
    assert any(abs(s - math.pi / 2) < 1e-12 for s in sols)


def test_solve_theta_second_branch_satisfies_forward_map():
    # cos(2 theta) = -1, sin(2 theta) = 0 also reproduces the NOT amplitudes
    a = math.cos(2 * NOT_CHI)
    b = math.cos(NOT_MU) * math.sin(2 * NOT_CHI)
    d = 2 * math.sin(NOT_CHI) ** 2 - 1
    assert abs(a * (-1.0) + b * 0.0 - d) < 1e-15


def test_solve_theta_infeasible_amplitude():
    # chi = pi/4, mu = pi/2 pins A^2 to 1/2; demanding A = 1 is unreachable
    with pytest.raises(InfeasibleAmplitudeError):
        solve_theta(math.pi / 4, math.pi / 2, 1.0, 0.0)
    # chi = pi/4, mu = pi/3 caps |2A^2 - 1| at 1/2; A = 1 is outside
    with pytest.raises(InfeasibleAmplitudeError):
        solve_theta(math.pi / 4, math.pi / 3, 1.0, 0.0)


def test_solve_theta_rejects_bad_targets():
    with pytest.raises(ValueError):
        solve_theta(0.3, 0.1, 0.5, 0.5)  # not normalized
    with pytest.raises(ValueError):
        solve_theta(0.3, 0.1, -0.6, 0.8)  # negative magnitude


def test_solve_theta_round_trip(rng):
    count = 0
    while count < 100:
        chi = rng.uniform(0.05, math.pi / 2 - 0.05)
        mu = rng.uniform(0, 2 * math.pi)
        reach = math.hypot(math.cos(2 * chi), math.cos(mu) * math.sin(2 * chi))
        if reach < 1e-3:
            continue
        d = rng.uniform(-0.999 * reach, 0.999 * reach)
        a_t = math.sqrt(0.5 * (1 + d))
        b_t = math.sqrt(max(0.0, 1 - a_t * a_t))
        sols = solve_theta(chi, mu, a_t, b_t)
        assert sols
        for theta in sols:
            assert -math.pi / 2 < theta <= math.pi / 2
            b = transport_amplitudes(chi, mu, theta, math.pi / 2, 0.0)
            assert abs(abs(b[1]) - a_t) < 1e-10
            assert abs(abs(b[2]) - b_t) < 1e-10
        count += 1


# ------------------------------------------------------------- phase angles


def test_zeta_phases_not_gate_values():
    # exact closed forms for the worked example: -arctan(2) and -arctan(1/3)
    za, zb = zeta_phases(NOT_CHI, NOT_MU, NOT_THETA)
    assert abs(za + math.atan(2.0)) < 1e-12
    assert abs(zb + math.atan(1.0 / 3.0)) < 1e-12
    assert abs((zb - za) - math.pi / 4) < 1e-12


def test_zeta_phases_mu_right_angle():
    za, _ = zeta_phases(math.pi / 4, math.pi / 2, math.pi / 4)
    assert abs(za + math.pi / 4) < 1e-12


def test_zeta_phases_degenerate_amplitude():
    # A = 0 happens when the b2 bracket cancels: chi = pi/4, mu = 0, theta = -pi/4
    with pytest.raises(DegeneratePhaseError):
        zeta_phases(math.pi / 4, 0.0, -math.pi / 4)


def test_zeta_phases_agree_with_cot_formulas(rng):
    # the cot/tan closed forms hold modulo pi wherever they are defined
    checked = 0
    while checked < 200:
        chi = rng.uniform(0.1, math.pi / 2 - 0.1)
        mu = rng.uniform(0.1, 2 * math.pi - 0.1)
        theta = rng.uniform(-math.pi / 2 + 0.1, math.pi / 2 - 0.1)
        if min(abs(math.sin(mu)), abs(math.sin(theta)), abs(math.cos(theta))) < 0.05:
            continue
        try:
            za, zb = zeta_phases(chi, mu, theta)
        except DegeneratePhaseError:
            continue
        cot_mu = math.cos(mu) / math.sin(mu)
        cot_chi = math.cos(chi) / math.sin(chi)
        ref_a = -math.atan(cot_mu + (1 / math.tan(theta)) * cot_chi / math.sin(mu))
        ref_b = -math.atan(cot_mu - math.tan(theta) * cot_chi / math.sin(mu))
        assert abs(math.remainder(za - ref_a, math.pi)) < 1e-9
        assert abs(math.remainder(zb - ref_b, math.pi)) < 1e-9
        checked += 1


# ----------------------------------------------------------- operation time


def test_operation_time_examples():
    delta = REF_DELTA
    assert abs(operation_time(math.pi / 4, -math.pi / 4, delta) - 0.5e-9) < 1e-24
    assert abs(operation_time(1.3, 1.3, delta) - 2 * math.pi / delta) < 1e-24
    assert abs(operation_time(1.5 * math.pi, 0.0, delta) - 1.5e-9) < 1e-24


def test_operation_time_minimum_lift():
    delta = 2.0
    base = operation_time(1.0, 0.0, delta)
    lifted = operation_time(1.0, 0.0, delta, t_min=base + 0.1)
    assert abs(lifted - (base + math.pi)) < 1e-12


def test_operation_time_window_error():
    with pytest.raises(NoFeasibleTimeError):
        operation_time(math.pi, 0.0, 1.0, t_max=1.0)


# -------------------------------------------------------------- preparation


def test_prepare_spec_validation():
    with pytest.raises(ValueError):
        PrepareSpec(b2=1.0, b3=0.5)


def test_prepare_reference_superposition(ref_params):
    spec = PrepareSpec(b2=0.5, b3=0.5j * math.sqrt(3))
    sched = synthesize_preparation(spec, ref_params)
    assert abs(sched.meta.theta + math.pi / 3) < 1e-12
    assert abs(sched.T - 1.5e-9) < 1e-21
    assert sched.meta.gate == "prepare"


def test_prepare_other_branch_is_faster_here(ref_params):
    spec = PrepareSpec(b2=0.5, b3=0.5j * math.sqrt(3))
    sched = synthesize_preparation(spec, ref_params, branch=1)
    assert abs(sched.meta.theta - math.pi / 3) < 1e-12
    assert abs(sched.T - 0.5e-9) < 1e-21
    traj = integrate(sched, basis_state(1))
    target = np.array([0, 0.5, 0.5j * math.sqrt(3), 0], dtype=complex)
    assert fidelity(target, traj.final_state) > 1 - 1e-9


def test_prepare_pure_tunneling_target(ref_params):
    sched = synthesize_preparation(PrepareSpec(b2=1.0, b3=0.0), ref_params)
    assert sched.meta.theta == 0.0
    assert np.all(sched.alpha == 0)
    traj = integrate(sched, basis_state(1))
    np.testing.assert_allclose(traj.populations[-1], [0, 1, 0, 0], atol=1e-9)


def test_prepare_equal_weights_oracle(ref_params):
    # the Zeeman phase must wind a full period for this target on the
    # negative-theta branch (checked end to end by the integrator)
    spec = PrepareSpec(b2=1 / math.sqrt(2), b3=1 / math.sqrt(2))
    sched = synthesize_preparation(spec, ref_params)
    assert abs(sched.meta.theta + math.pi / 4) < 1e-12
    assert abs(sched.T - 2 * math.pi / ref_params.delta) < 1e-21
    traj = integrate(sched, basis_state(1))
    target = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    assert fidelity(target, traj.final_state) > 1 - 1e-6
    b2, b3 = traj.final_state[1], traj.final_state[2]
    assert abs(np.angle(b3 / b2)) < 1e-6


def test_prepare_random_targets_end_to_end(ref_params, rng):
    # random right-dot qubits: the schedule must land on the target with the
    # declared relative phase, checked by the numerical oracle
    for _ in range(25):
        chi = rng.uniform(0.05, math.pi / 2 - 0.05)
        phase = rng.uniform(0, 2 * math.pi)
        b2 = math.cos(chi)
        b3 = math.sin(chi) * np.exp(1j * phase)
        sched = synthesize_preparation(PrepareSpec(b2=b2, b3=b3), ref_params)
        final = integrate(sched, basis_state(1)).final_state
        target = np.array([0, b2, b3, 0], dtype=complex)
        assert fidelity(target, final) > 1 - 1e-6
        assert abs(math.remainder(np.angle(final[2] / final[1]) - phase, 2 * math.pi)) < 1e-6


def test_prepare_every_branch_reaches_target(ref_params, rng):
    for _ in range(10):
        chi = rng.uniform(0.1, math.pi / 2 - 0.1)
        phase = rng.uniform(0, 2 * math.pi)
        b2 = math.cos(chi)
        b3 = math.sin(chi) * np.exp(1j * phase)
        target = np.array([0, b2, b3, 0], dtype=complex)
        for branch in (0, 1):
            sched = synthesize_preparation(PrepareSpec(b2=b2, b3=b3), ref_params, branch=branch)
            final = integrate(sched, basis_state(1)).final_state
            assert fidelity(target, final) > 1 - 1e-6


def test_prepare_respects_t_max(ref_params):
    spec = PrepareSpec(b2=0.5, b3=0.5j * math.sqrt(3))
    with pytest.raises(NoFeasibleTimeError):
        synthesize_preparation(spec, ref_params, AnsatzSpec(t_max=1e-9))


def test_prepare_rejects_even_gamma_final(ref_params):
    spec = PrepareSpec(b2=1.0, b3=0.0)
    with pytest.raises(InvalidAnsatzError):
        synthesize_preparation(spec, ref_params, AnsatzSpec(gamma_final=math.pi))


# -------------------------------------------------------------------- gates


def test_not_gate_worked_example(ref_params):
    sched = synthesize_gate(NotGateSpec(chi=NOT_CHI, mu=NOT_MU), ref_params)
    assert abs(sched.meta.theta - 0.685) < 1e-3
    assert abs(sched.T - 0.5e-9) < 1e-12
    traj = integrate(sched, left_qubit_state(NOT_CHI, NOT_MU))
    target = np.array(
        [0, math.sin(NOT_CHI) * np.exp(1j * NOT_MU), math.cos(NOT_CHI), 0], dtype=complex
    )
    assert fidelity(target, traj.final_state) > 1 - 1e-6


def test_not_gate_equator_qubit_oracle(ref_params):
    chi, mu = math.pi / 4, 0.0
    sched = synthesize_gate(NotGateSpec(chi=chi, mu=mu), ref_params)
    traj = integrate(sched, left_qubit_state(chi, mu))
    target = np.array([0, math.sin(chi), math.cos(chi), 0], dtype=complex)
    assert fidelity(target, traj.final_state) > 1 - 1e-6


def test_phase_gate_alpha_identically_zero(ref_params):
    sched = synthesize_gate(PhaseGateSpec(chi=0.9, mu=2.2, phase_shift=1.0), ref_params)
    assert sched.meta.theta == 0.0
    assert np.all(sched.alpha == 0)
    assert np.all(sched.tau[1:-1] != 0)


def test_phase_gate_reaches_shifted_phase(ref_params):
    chi, mu, shift = 0.6, 1.1, math.pi / 4
    sched = synthesize_gate(PhaseGateSpec(chi=chi, mu=mu, phase_shift=shift), ref_params)
    traj = integrate(sched, left_qubit_state(chi, mu))
    b2, b3 = traj.final_state[1], traj.final_state[2]
    assert abs(math.remainder(np.angle(b3 / b2) - (mu + shift), 2 * math.pi)) < 1e-6


def test_transport_spec_custom_target(ref_params):
    chi, mu = 0.8, 0.3
    a_t, b_t, lam = 0.6, 0.8, 1.9
    sched = synthesize_gate(TransportSpec(chi=chi, mu=mu, a=a_t, b=b_t, lam=lam), ref_params)
    traj = integrate(sched, left_qubit_state(chi, mu))
    target = np.array([0, a_t, b_t * np.exp(1j * lam), 0], dtype=complex)
    assert fidelity(target, traj.final_state) > 1 - 1e-6


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        NotGateSpec(chi=2.0, mu=0.0)  # chi outside [0, pi/2]
    with pytest.raises(ValueError):
        TransportSpec(chi=0.3, mu=0.0, a=0.9, b=0.9, lam=0.0)  # not normalized
    spec = PhaseGateSpec(chi=0.0, mu=5.0)
    assert spec.mu == 0.0  # mu is meaningless on a pole and normalizes to 0


def test_branch_override_and_validation(ref_params):
    sols = solve_theta(NOT_CHI, NOT_MU, math.sin(NOT_CHI), math.cos(NOT_CHI))
    sched = synthesize_gate(NotGateSpec(chi=NOT_CHI, mu=NOT_MU), ref_params, branch=1)
    assert abs(sched.meta.theta - sols[1]) < 1e-12
    traj = integrate(sched, left_qubit_state(NOT_CHI, NOT_MU))
    target = np.array([0, math.sin(NOT_CHI) * np.exp(1j * NOT_MU), math.cos(NOT_CHI), 0], dtype=complex)
    assert fidelity(target, traj.final_state) > 1 - 1e-6
    with pytest.raises(ValueError):
        synthesize_gate(NotGateSpec(chi=NOT_CHI, mu=NOT_MU), ref_params, branch=7)
    with pytest.raises(ValueError):
        synthesize_gate(NotGateSpec(chi=NOT_CHI, mu=NOT_MU), ref_params, branch="bogus")


def test_sampled_gamma_family(ref_params):
    s_ax = np.linspace(0.0, 1.0, 80)
    g_ax = 0.25 * math.pi * (1 - np.cos(math.pi * s_ax))
    ansatz = AnsatzSpec(family="sampled", profile=(s_ax, g_ax))
    sched = synthesize_gate(NotGateSpec(chi=NOT_CHI, mu=NOT_MU), ref_params, ansatz)
    assert sched.tau[0] == 0.0 and sched.tau[-1] == 0.0
    traj = integrate(sched, left_qubit_state(NOT_CHI, NOT_MU))
    target = np.array([0, math.sin(NOT_CHI) * np.exp(1j * NOT_MU), math.cos(NOT_CHI), 0], dtype=complex)
    assert fidelity(target, traj.final_state) > 1 - 1e-6


# ---------------------------------------------------------------- schedules


def test_schedule_invariants(ref_prep_schedule):
    s = ref_prep_schedule
    assert s.times[0] == 0.0 and s.times[-1] == s.T
    assert np.all(np.diff(s.times) > 0)
    assert s.tau[0] == 0.0 and s.tau[-1] == 0.0
    assert s.alpha[0] == 0 and s.alpha[-1] == 0


def test_schedule_peak_tunneling_scale(ref_prep_schedule):
    s = ref_prep_schedule
    expected = math.pi**2 / (4 * s.T) * abs(math.cos(s.meta.theta))
    assert np.isclose(np.max(np.abs(s.tau)), expected, rtol=1e-6)


def test_schedule_arrays_immutable(ref_prep_schedule):
    with pytest.raises(ValueError):
        ref_prep_schedule.tau[0] = 1.0


def test_schedule_grid_validation(ref_params):
    with pytest.raises(ValueError):
        ControlSchedule(
            params=ref_params,
            times=np.array([0.1, 0.2]),
            tau=np.zeros(2),
            alpha=np.zeros(2, dtype=complex),
        )
    with pytest.raises(ValueError):
        ControlSchedule(
            params=ref_params,
            times=np.array([0.0, 0.2, 0.2]),
            tau=np.zeros(3),
            alpha=np.zeros(3, dtype=complex),
        )


def test_controls_at_falls_back_on_corruption(ref_prep_schedule, ref_params):
    clean_tau, _ = ref_prep_schedule.controls_at(ref_prep_schedule.times)
    np.testing.assert_array_equal(clean_tau, np.asarray(ref_prep_schedule.controls_at(ref_prep_schedule.times)[0]))
    corrupted = ControlSchedule(
        params=ref_params,
        times=ref_prep_schedule.times,
        tau=ref_prep_schedule.tau * 1.01,
        alpha=ref_prep_schedule.alpha,
        meta=ref_prep_schedule.meta,
    )
    assert not corrupted._samples_match_angles
    tau_mid, _ = corrupted.controls_at(np.array([corrupted.T / 2]))
    assert abs(tau_mid[0] - 1.01 * np.max(ref_prep_schedule.tau)) < 1e-3 * np.max(ref_prep_schedule.tau)


def test_sample_gap_scales_each_column_on_its_own(ref_params):
    # theta ~ 1.5e-4: alpha peaks 1e-4 below tau, so a scale shared by both
    # columns would take a 1e-3 edit of alpha for rounding
    a = math.cos(0.8) + 1e-4
    sched = synthesize_gate(TransportSpec(chi=0.8, mu=0.3, a=a, b=math.sqrt(1 - a * a), lam=1.0), ref_params)
    assert sched._samples_match_angles and sched.sample_gap <= 1e-15
    alpha = sched.alpha.copy()
    peak = int(np.argmax(np.abs(alpha)))
    alpha[peak] *= 1.001
    edited = ControlSchedule(params=ref_params, times=sched.times, tau=sched.tau, alpha=alpha, meta=sched.meta)
    assert not edited._samples_match_angles
    assert edited.sample_gap == pytest.approx(1e-3, rel=1e-6)


# ------------------------------------------------- one ramp, one duration


def _profile():
    s_ax = np.linspace(0.0, 1.0, 9)
    return s_ax, 0.25 * math.pi * (1 - np.cos(math.pi * s_ax))


@pytest.mark.parametrize("family", ["cosine", "sampled"])
def test_schedule_resolves_its_ramp_once(ref_params, family):
    profile = _profile() if family == "sampled" else None
    sched = synthesize_gate(NotGateSpec(chi=NOT_CHI, mu=NOT_MU), ref_params,
                            AnsatzSpec(family=family, profile=profile))
    angles = sched.angles()
    assert angles is sched.angles()
    assert angles.theta == sched.meta.theta
    # controls_at reads the same ramp the closed form does
    tau, alpha = sched.controls_at(sched.times)
    np.testing.assert_array_equal(tau[1:-1], sched.tau[1:-1])
    np.testing.assert_array_equal(alpha[1:-1], sched.alpha[1:-1])


def test_free_duration_is_one_zeeman_period_or_the_requested_one(ref_params):
    spec = PrepareSpec(b2=1, b3=0)
    assert synthesize_gate(spec, ref_params).T.hex() == (2 * math.pi / REF_DELTA).hex()
    requested = 3.3e-9
    assert synthesize_gate(spec, ref_params, AnsatzSpec(T=requested)).T.hex() == requested.hex()


def test_free_duration_past_t_max_is_infeasible(ref_params):
    # one Zeeman period is 2 ns here
    with pytest.raises(NoFeasibleTimeError, match="exceeds the allowed maximum"):
        synthesize_gate(PrepareSpec(b2=0, b3=1), ref_params, AnsatzSpec(t_max=1e-9))


def test_huge_transport_lambda_is_reduced_as_the_target_reads_it():
    for lam in (1e15, 1e300, -1e300):
        spec = TransportSpec(chi=0.6, mu=0.4, a=0.8, b=0.6, lam=lam)
        assert -math.pi <= spec.lam <= math.pi
        assert abs(np.exp(1j * spec.lam) - np.exp(1j * lam)) < 1e-15
    # within one turn either way lambda is kept bit for bit
    for lam in (2 * math.pi, -2 * math.pi, 1.9):
        assert TransportSpec(chi=0.6, mu=0.4, a=0.8, b=0.6, lam=lam).lam == lam
    with pytest.raises(ValueError, match="lambda must be finite"):
        TransportSpec(chi=0.6, mu=0.4, a=0.8, b=0.6, lam=math.inf)


# ------------------------------------------- the sampled ramp's spline


@st.composite
def _knots(draw):
    """Knots s, 4 to 12 of them from 0 to 1, with gaps over six decades, so
    that many layouts need row interchanges, and knot values g from 0 to
    gamma_final."""
    n = draw(st.integers(4, 12))
    gaps = np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=n - 1, max_size=n - 1)))
    s = np.concatenate(([0.0], np.cumsum(10.0 ** gaps)))
    s = s / s[-1]
    s[-1] = 1.0
    assume(np.all(np.diff(s) > 0.0))
    gamma_final = draw(st.sampled_from([0.5 * math.pi, 1.5 * math.pi, -0.5 * math.pi]))
    inner = draw(st.lists(st.floats(-10.0, 10.0), min_size=n - 2, max_size=n - 2))
    return s, np.array([0.0, *inner, gamma_final])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(deadline=None, max_examples=150)
@given(knots=_knots(), duration=st.sampled_from([1.0, 2.0**-30, 1.3e-10]), xs=st.lists(st.floats(0.0, 1.0), max_size=20))
# 2 (dx0 + dx1) < dx2: the elimination swaps rows at the second knot
@example(knots=(np.array([0.0, 0.01, 0.02, 1.0]), np.array([0.0, 0.3, -0.2, 0.5 * math.pi])), duration=1.0, xs=[0.015])
# a -0.0 knot whose higher terms are -0.0 there too: the sum from 0.0 reads +0.0
@example(knots=(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.array([0.0, -0.0, -0.35, -0.66, 0.5 * math.pi])),
         duration=1.0, xs=[])
def test_sampled_ramp_is_scipy_clamped_spline_bit_for_bit(knots, duration, xs):
    from scipy.interpolate import CubicSpline

    s, g = knots
    spline = CubicSpline(s, g, bc_type=((1, 0.0), (1, 0.0)))
    deriv = spline.derivative()
    fn = AnsatzSpec(g[-1], family="sampled", profile=(s, g)).gamma_fn(duration)
    # random points, every knot, both ends
    t = np.concatenate((np.array(xs), s, [0.0, 1.0])) * duration
    gamma, gamma_dot = fn(t)
    assert _bits(gamma) == _bits(spline(t / duration))
    assert _bits(gamma_dot) == _bits(deriv(t / duration) / duration)
    for tk in t:
        g_k, gd_k = fn(float(tk))
        assert isinstance(g_k, float) and isinstance(gd_k, float)
        assert _bits(g_k) == _bits(spline(tk / duration))
        assert _bits(gd_k) == _bits(deriv(tk / duration) / duration)
    assert fn(0.0) == (0.0, 0.0)
