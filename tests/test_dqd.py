import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseforge import (
    ControlSample,
    DiamondAngles,
    PhaseFrame,
    SphericalAngles,
    SystemParams,
    analytic_propagator,
    basis_state,
    check_normalized,
    controls_from_angles,
    full_hamiltonian,
    gamma_ansatz,
    general_hamiltonian_check,
    h0_matrix,
    left_isoclinic,
    left_qubit_state,
    propagator_matrix,
    quat_from_angles,
    right_qubit_state,
)
from pulseforge.dqd import SECTOR_BASIS, hamiltonian, propagator_entries, sector_hamiltonian


def cosine_angles(theta, gamma_final, duration):
    return DiamondAngles(gamma=lambda t: gamma_ansatz(t, duration, gamma_final), theta=theta)


def test_system_params_requires_positive_delta():
    with pytest.raises(ValueError):
        SystemParams(delta=0.0)
    with pytest.raises(ValueError):
        SystemParams(delta=-1.0)


def test_control_sample_rejects_complex_tau():
    with pytest.raises(TypeError):
        ControlSample(t=0.0, tau=1.0 + 1.0j, alpha=0j)


def test_basis_and_qubit_states():
    np.testing.assert_array_equal(basis_state(3), [0, 0, 1, 0])
    psi = left_qubit_state(math.pi / 3, math.pi / 4)
    assert abs(psi[0] - 0.5) < 1e-15 and psi[1] == 0 and psi[2] == 0
    assert abs(psi[3] - np.exp(1j * math.pi / 4) * math.sin(math.pi / 3)) < 1e-15
    psi_r = right_qubit_state(0.3, 0.7)
    assert psi_r[0] == 0 and psi_r[3] == 0
    with pytest.raises(ValueError):
        basis_state(5)
    with pytest.raises(ValueError):
        check_normalized(np.array([1.0, 1.0, 0.0, 0.0]))


def test_h0_diagonal_when_uncoupled():
    h = h0_matrix(ControlSample(0.0, 0.0, 0j), SystemParams(delta=2.5))
    np.testing.assert_array_equal(h, np.diag([0, 0, 2.5, 2.5]).astype(complex))


def test_h0_tunneling_blocks_split_symmetrically():
    h = h0_matrix(ControlSample(0.0, 1.0, 0j), SystemParams(delta=1e-300))
    eig = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(eig, [-1, -1, 1, 1], atol=1e-12)


def test_h0_entry_placement():
    alpha = 0.1 + 0.2j
    h = h0_matrix(ControlSample(0.0, 0.3, alpha), SystemParams(delta=1.0))
    assert h[0, 1] == 0.3 and h[2, 3] == 0.3
    assert h[0, 2] == alpha
    assert h[1, 3] == -alpha
    assert h[3, 1] == -np.conj(alpha)
    np.testing.assert_array_equal(h, h.conj().T)


def test_h0_hermitian_random(rng):
    for _ in range(100):
        tau = rng.normal()
        alpha = complex(rng.normal(), rng.normal())
        h = h0_matrix(ControlSample(0.0, tau, alpha), SystemParams(delta=abs(rng.normal()) + 0.1))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_full_hamiltonian_diag_when_gamma_frozen():
    angles = DiamondAngles(gamma=lambda t: (0.0, 0.0), theta=0.4)
    h = full_hamiltonian(angles, 0.7, SystemParams(delta=3.0))
    np.testing.assert_array_equal(h, np.diag([0, 0, 3.0, 3.0]).astype(complex))


def test_full_hamiltonian_theta_zero_pure_tunneling():
    angles = DiamondAngles(gamma=lambda t: (0.0, 1.7), theta=0.0)
    h = full_hamiltonian(angles, 0.2, SystemParams(delta=1.0))
    assert h[0, 1] == 1.7 and h[2, 3] == 1.7
    assert h[0, 2] == 0 and h[1, 3] == 0


def test_full_equals_h0_of_inverse_controls(rng):
    # identity between the direct diamond form and the control relations
    for _ in range(200):
        params = SystemParams(delta=abs(rng.normal()) + 0.1)
        angles = DiamondAngles(
            gamma=lambda t, g=rng.normal(), gd=rng.normal(): (0.0, gd),
            theta=rng.uniform(-math.pi, math.pi),
        )
        t = rng.uniform(0.0, 10.0)
        h_direct = full_hamiltonian(angles, t, params)
        h_composed = h0_matrix(controls_from_angles(angles, t, params), params)
        assert np.max(np.abs(h_direct - h_composed)) < 1e-13


def test_full_hamiltonian_rejects_wrong_gauge():
    params = SystemParams(delta=2.0)
    angles = cosine_angles(0.3, math.pi / 2, 1.0)
    good = PhaseFrame.diamond(params.delta)
    assert full_hamiltonian(angles, 0.5, params, frame=good) is not None
    bad = PhaseFrame.diamond(params.delta * 2.0)
    with pytest.raises(ValueError):
        full_hamiltonian(angles, 0.5, params, frame=bad)


def test_controls_zero_drive():
    angles = DiamondAngles(gamma=lambda t: (0.0, 0.0), theta=1.1)
    s = controls_from_angles(angles, 0.3, SystemParams(delta=1.0))
    assert s.tau == 0.0 and s.alpha == 0j


def test_controls_pure_transport_limit():
    g = 2.3
    angles = DiamondAngles(gamma=lambda t: (0.0, g), theta=0.0)
    s = controls_from_angles(angles, 0.9, SystemParams(delta=1.0))
    assert s.tau == g and s.alpha == 0j


def test_controls_cosine_ramp_closed_form():
    # tau = (pi^2 / 4T) sin(pi t / T) cos(theta), alpha the resonant spin-flip drive
    theta, duration, delta = -math.pi / 3, 1.5, 2.2
    params = SystemParams(delta=delta)
    angles = cosine_angles(theta, math.pi / 2, duration)
    for t in (0.11, 0.5, 0.75, 1.2):
        s = controls_from_angles(angles, t, params)
        scale = math.pi**2 / (4 * duration) * math.sin(math.pi * t / duration)
        assert abs(s.tau - scale * math.cos(theta)) < 1e-14
        expected_alpha = -np.exp(1j * delta * t) * scale * math.sin(theta)
        assert abs(s.alpha - expected_alpha) < 1e-14


def test_propagator_identity_at_start():
    angles = cosine_angles(0.7, math.pi / 2, 1.0)
    u = analytic_propagator(angles, 0.0, SystemParams(delta=5.0))
    np.testing.assert_array_equal(u, np.eye(4, dtype=complex))


def test_propagator_reaches_reference_superposition():
    # gamma = pi/2, theta = -pi/3, delta*t = 3pi/2 applied to |1>
    delta = 1.0
    t = 1.5 * math.pi
    u = propagator_matrix(math.pi / 2, -math.pi / 3, delta, t)
    psi = u @ basis_state(1)
    np.testing.assert_allclose(psi, [0.0, -0.5j, math.sqrt(3) / 2, 0.0], atol=1e-15)
    pops = np.abs(psi) ** 2
    np.testing.assert_allclose(pops, [0.0, 0.25, 0.75, 0.0], atol=1e-15)
    assert abs(psi[2] / psi[1] - math.sqrt(3) * np.exp(1j * math.pi / 2)) < 1e-14


def test_propagator_forbidden_transfer_entries_exact_zero(rng):
    for _ in range(100):
        u = propagator_matrix(rng.uniform(-6, 6), rng.uniform(-3, 3), abs(rng.normal()) + 0.1, rng.uniform(0, 9))
        assert u[3, 0] == 0.0
        assert u[0, 3] == 0.0


def test_propagator_unitary_on_dense_grid():
    gammas = np.linspace(0.0, 3.0 * math.pi, 61)
    times = np.linspace(0.0, 4.0 * math.pi, 17)
    for theta in np.linspace(-math.pi / 2, math.pi / 2, 21):
        u = propagator_matrix(gammas[:, None], theta, 1.0, times[None, :])
        gram = np.einsum("...ji,...jk->...ik", np.conj(u), u)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_propagator_solves_schrodinger_equation():
    # iU'(t)U^dag should reproduce the Hamiltonian (finite-difference check)
    params = SystemParams(delta=3.0)
    angles = cosine_angles(0.9, math.pi / 2, 1.0)
    h_fd_tol = 1e-6
    step = 1e-5
    for t in (0.21, 0.5, 0.83):
        u_plus = analytic_propagator(angles, t + step, params)
        u_minus = analytic_propagator(angles, t - step, params)
        u = analytic_propagator(angles, t, params)
        du = (u_plus - u_minus) / (2 * step)
        h_fd = 1j * du @ u.conj().T
        h = full_hamiltonian(angles, t, params)
        assert np.max(np.abs(h_fd - h)) < h_fd_tol


def test_propagator_matches_framed_isoclinic_construction(rng):
    # K(t) L(q(gamma, theta)) K(0)^dag reproduces the closed form
    for _ in range(50):
        delta = abs(rng.normal()) + 0.2
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        gamma = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0, 5)
        q = quat_from_angles(SphericalAngles(gamma=gamma, theta=theta, phi=0.0))
        frame = PhaseFrame.diamond(delta)
        u_frame = frame.k_matrix(t) @ left_isoclinic(q).m @ frame.k_matrix(0.0).conj().T
        u = propagator_matrix(gamma, theta, delta, t)
        assert np.max(np.abs(u_frame - u)) < 1e-14


def test_phase_frame_diamond_values():
    delta = 4.0
    frame = PhaseFrame.diamond(delta)
    t = 0.8
    assert frame.phi2(t) == -math.pi / 2
    assert frame.phi3(t) == -delta * t + math.pi / 2
    assert frame.phi4(t) == -delta * t
    assert frame.is_diamond(delta, t)
    assert not frame.is_diamond(delta * 1.5, t)


def test_general_hamiltonian_diagonal_only_when_undriven():
    frame = PhaseFrame.diamond(2.0)
    h = general_hamiltonian_check(0.0, 0.0, 0.3, 0.9, frame, 0.5)
    np.testing.assert_array_equal(h, np.diag([0, 0, 2.0, 2.0]).astype(complex))


def test_general_hamiltonian_reduces_to_diamond_gauge(rng):
    for _ in range(100):
        delta = abs(rng.normal()) + 0.2
        params = SystemParams(delta=delta)
        theta = rng.uniform(-math.pi, math.pi)
        gdot = rng.normal()
        t = rng.uniform(0, 5)
        angles = DiamondAngles(gamma=lambda s, gd=gdot: (0.0, gd), theta=theta)
        frame = PhaseFrame.diamond(delta)
        h_general = general_hamiltonian_check(gdot, 0.0, theta, 0.0, frame, t)
        h_diamond = full_hamiltonian(angles, t, params)
        assert np.max(np.abs(h_general - h_diamond)) < 1e-13


def test_general_hamiltonian_equal_drives_double_and_cancel():
    # theta1 = theta2, gdot1 = gdot2: the 1-2 and 1-3 couplings double while
    # the 2-4 and 3-4 couplings cancel
    frame = PhaseFrame.diamond(1.0)
    theta, gdot, t = 0.6, 1.3, 0.4
    h2 = general_hamiltonian_check(gdot, gdot, theta, theta, frame, t)
    h1 = general_hamiltonian_check(gdot, 0.0, theta, theta, frame, t)
    assert abs(h2[0, 1] - 2 * h1[0, 1]) < 1e-14
    assert abs(h2[0, 2] - 2 * h1[0, 2]) < 1e-14
    assert abs(h2[1, 3]) < 1e-14
    assert abs(h2[2, 3]) < 1e-14


def test_diamond_angles_require_gamma_zero_at_start():
    with pytest.raises(ValueError):
        DiamondAngles(gamma=lambda t: (0.5, 0.0), theta=0.0)
    # whole multiples of 2*pi are valid continuations
    DiamondAngles(gamma=lambda t: (2 * math.pi, 0.0), theta=0.0)


# the swap the diamond Hamiltonian commutes with: S|1> = |2>, S|3> = -|4>
SECTOR_SWAP = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], dtype=float)

# signed zeros, the smallest subnormal and the float range's far ends, then
# any float whose sums of four stay finite
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300),
)


def _sector_transform(h):
    """SECTOR_BASIS^-1 h SECTOR_BASIS, the inverse being the transpose over 2."""
    return 0.5 * (SECTOR_BASIS.T @ h @ SECTOR_BASIS)


def test_sector_basis_inverse_is_its_transpose_over_two():
    np.testing.assert_array_equal(SECTOR_BASIS.T @ SECTOR_BASIS, 2.0 * np.eye(4))
    # its columns are the swap's eigenvectors: +1 for sector +, -1 for sector -
    np.testing.assert_array_equal(SECTOR_SWAP @ SECTOR_BASIS, SECTOR_BASIS * [1, 1, -1, -1])


@settings(deadline=None, max_examples=300)
@given(tau=EDGE_FLOATS, re=EDGE_FLOATS, im=EDGE_FLOATS, delta=EDGE_FLOATS)
def test_hamiltonian_splits_into_the_sector_blocks(tau, re, im, delta):
    alpha = complex(re, im)
    h = hamiltonian(tau, alpha, delta)
    np.testing.assert_array_equal(SECTOR_SWAP @ h, h @ SECTOR_SWAP)
    t = _sector_transform(h)
    assert np.all(t[:2, 2:] == 0) and np.all(t[2:, :2] == 0)
    blocks = sector_hamiltonian(tau, alpha, delta)
    for sector, sign in ((0, 1.0), (1, -1.0)):
        block = t[2 * sector:2 * sector + 2, 2 * sector:2 * sector + 2]
        assert block[0, 0] == sign * tau == blocks[sector, 0, 0]
        assert block[0, 1] == alpha == blocks[sector, 0, 1]
        assert block[1, 0] == np.conj(alpha) == blocks[sector, 1, 0]
        corner = delta - sign * tau
        assert blocks[sector, 1, 1] == corner
        # one rounding of delta -+ tau
        assert block[1, 1].imag == 0.0 and abs(block[1, 1].real - corner) <= np.spacing(abs(corner))


@settings(deadline=None, max_examples=300)
@given(gamma=EDGE_FLOATS, theta=EDGE_FLOATS, delta=EDGE_FLOATS, t=st.floats(min_value=0.0, max_value=1e-6))
def test_propagator_commutes_with_the_sector_swap(gamma, theta, delta, t):
    u = propagator_matrix(gamma, theta, delta, t)
    assert np.max(np.abs(SECTOR_SWAP @ u - u @ SECTOR_SWAP)) <= 1e-15


def test_sector_hamiltonian_broadcasts_like_hamiltonian(rng):
    tau = rng.normal(size=(3, 5))
    alpha = rng.normal(size=5) + 1j * rng.normal(size=5)
    blocks = sector_hamiltonian(tau, alpha, 2.5)
    assert blocks.shape == (3, 5, 2, 2, 2)
    out = np.empty_like(blocks)
    assert sector_hamiltonian(tau, alpha, 2.5, out) is out
    np.testing.assert_array_equal(out, blocks)
    for i, j in np.ndindex(3, 5):
        np.testing.assert_array_equal(blocks[i, j], sector_hamiltonian(tau[i, j], alpha[j], 2.5))


def reference_propagator_matrix(gamma, theta, delta, t):
    """The closed form written one entry at a time, from broadcast views,
    into a zeroed (..., 4, 4) array: the entries-first writer's reference."""
    g = np.asarray(gamma, dtype=float)
    tt = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(g.shape, tt.shape)
    c = np.broadcast_to(np.cos(g), shape)
    s = np.broadcast_to(np.sin(g), shape)
    ct = math.cos(theta)
    st_ = math.sin(theta)
    e = np.broadcast_to(np.exp(-1j * delta * tt), shape)
    u = np.zeros(shape + (4, 4), dtype=complex)
    u[..., 0, 0] = c
    u[..., 0, 1] = -1j * ct * s
    u[..., 0, 2] = 1j * st_ * s
    u[..., 1, 0] = -1j * ct * s
    u[..., 1, 1] = c
    u[..., 1, 3] = -1j * st_ * s
    u[..., 2, 0] = 1j * e * s * st_
    u[..., 2, 2] = e * c
    u[..., 2, 3] = -1j * e * ct * s
    u[..., 3, 1] = -1j * e * s * st_
    u[..., 3, 2] = -1j * e * ct * s
    u[..., 3, 3] = e * c
    return u


def _assert_bit_equal(u, ref):
    assert u.shape == ref.shape
    assert np.ascontiguousarray(u).tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=300)
@given(gamma=EDGE_FLOATS, theta=EDGE_FLOATS, delta=EDGE_FLOATS, t=st.floats(min_value=0.0, max_value=1e-6))
def test_entries_first_writer_is_bit_equal_to_the_reference_on_scalars(gamma, theta, delta, t):
    _assert_bit_equal(propagator_matrix(gamma, theta, delta, t), reference_propagator_matrix(gamma, theta, delta, t))
    _assert_bit_equal(propagator_entries(gamma, theta, delta, t), reference_propagator_matrix(gamma, theta, delta, t))


@pytest.mark.parametrize("g_shape, t_shape", [((5, 1), (7,)), ((9,), ()), ((), (4, 3)), ((6,), (6,)), ((4001,), (4001,))])
def test_entries_first_writer_is_bit_equal_to_the_reference_on_grids(g_shape, t_shape, rng):
    for _ in range(20):
        gamma = rng.uniform(-10.0, 10.0, size=g_shape)
        t = rng.uniform(0.0, 1e-6, size=t_shape)
        theta = rng.uniform(-4.0, 4.0)
        delta = 10.0 ** rng.uniform(-3.0, 12.0)
        ref = reference_propagator_matrix(gamma, theta, delta, t)
        _assert_bit_equal(propagator_matrix(gamma, theta, delta, t), ref)
        # entries first: entry (i, j) is one array over the broadcast shape
        u = propagator_entries(gamma, theta, delta, t)
        _assert_bit_equal(np.moveaxis(u, (0, 1), (-2, -1)), ref)
