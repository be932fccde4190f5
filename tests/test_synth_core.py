"""The one synthesis path: preparation's own inversion data, the empty
candidate list, and the inversion near its edges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseforge import (
    AnsatzSpec,
    DegeneratePhaseError,
    InfeasibleAmplitudeError,
    InfeasibleTargetError,
    NoFeasibleTimeError,
    NotGateSpec,
    PhaseGateSpec,
    PrepareSpec,
    SystemParams,
    TransportSpec,
    basis_state,
    operation_time,
    propagator_matrix,
    solve_theta,
    synthesize_gate,
    synthesize_preparation,
    transport_amplitudes,
)
from conftest import REF_DELTA

HALF_PI = 0.5 * math.pi


def test_prepare_at_b2_pole_keeps_both_branches(ref_params):
    # solve_theta(0, 0, 0, 1) offers only +pi/2; preparation keeps the pair
    spec = PrepareSpec(b2=0.0, b3=1j)
    assert synthesize_preparation(spec, ref_params, branch=0).meta.theta == -HALF_PI
    assert synthesize_preparation(spec, ref_params, branch=1).meta.theta == HALF_PI


def test_prepare_three_half_pi_time_uses_the_pi_offset(ref_params):
    # at gamma_final = 3pi/2 and theta > 0, zeta_phases puts the b3/b2 phase
    # gap at -pi; for this target that rounds T differently from the +pi offset
    b2, b3 = 0.5, 0.5 * math.sqrt(3.0) * np.exp(2j * math.pi / 3)
    lam = float(np.angle(b3 / b2))
    ansatz = AnsatzSpec(gamma_final=1.5 * math.pi)
    sched = synthesize_preparation(PrepareSpec(b2=b2, b3=b3), ref_params, ansatz, branch=1)
    assert sched.meta.theta > 0.0
    assert sched.T == operation_time(math.pi, lam, ref_params.delta)
    assert sched.T != operation_time(-math.pi, lam, ref_params.delta)
    u = propagator_matrix(1.5 * math.pi, sched.meta.theta, ref_params.delta, sched.T)
    final = u @ basis_state(1)
    assert abs(np.vdot([0, b2, b3, 0], final)) ** 2 > 1 - 1e-12


# |2A^2 - 1| just inside the reach r, but within solve_theta's 1e-9 slack
# past its round-trip filter: no candidate survives
EDGE_TRANSPORT = dict(chi=0.05, mu=HALF_PI, a=0.049979164768802486, b=0.9987502606202477, lam=0.3)


@pytest.mark.parametrize("branch", ["min-theta", 0, 1])
def test_empty_candidate_list_is_infeasible(ref_params, branch):
    spec = TransportSpec(**EDGE_TRANSPORT)
    assert solve_theta(spec.chi, spec.mu, spec.a, spec.b) == []
    with pytest.raises(InfeasibleAmplitudeError):
        synthesize_gate(spec, ref_params, branch=branch)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda mu: NotGateSpec(chi=0.3, mu=mu),
    lambda mu: PhaseGateSpec(chi=0.0, mu=mu),
    lambda mu: TransportSpec(chi=0.3, mu=mu, a=0.6, b=0.8, lam=0.0),
])
def test_non_finite_mu_is_rejected(make, mu):
    with pytest.raises(ValueError, match="mu must be finite"):
        make(mu)


@pytest.mark.parametrize("gap", [5e-324, 1e-300, 1e-17, 9e-13])
def test_phase_gap_within_rounding_of_zero_takes_a_full_period(ref_params, gap):
    period = 2 * math.pi / ref_params.delta
    assert operation_time(gap, 0.0, ref_params.delta) == period
    assert operation_time(0.0, -gap, ref_params.delta) == period
    # chi = 0 with A ~ 1e-8: zeta_B - zeta_A is 0, so lam = -gap is the gap
    a = math.sqrt(0.5 * (1.0 - (1.0 - 1e-16)))
    spec = TransportSpec(chi=0.0, mu=0.0, a=a, b=math.sqrt(1.0 - a * a), lam=-gap)
    sched = synthesize_gate(spec, ref_params, AnsatzSpec(n_samples=16))
    assert sched.T == period
    assert np.isfinite(sched.tau).all()


@pytest.mark.parametrize("make", [
    lambda: PrepareSpec(b2=math.nan, b3=1.0),
    lambda: TransportSpec(chi=0.3, mu=0.2, a=math.nan, b=0.8, lam=0.0),
])
def test_nan_magnitude_fails_the_norm_check(make):
    with pytest.raises(ValueError, match="must be 1 within 1e-10"):
        make()


# ------------------------------------------- the inversion near its edges

_TINY = st.sampled_from([0.0, 5e-324, 1e-300, 1e-16, 1e-13, 1e-12, 1e-10, 1e-9, 1e-7, 1e-4])
CHI = st.one_of(_TINY, _TINY.map(lambda e: HALF_PI - e), st.floats(0.0, HALF_PI))
MU = st.one_of(_TINY, _TINY.map(lambda e: -e), st.floats(-2 * math.pi, 4 * math.pi))
# how far |2A^2 - 1| sits inside the reach (a fraction of it), and how far
# past it, up to solve_theta's own tolerance
INSIDE = st.one_of(_TINY, st.floats(0.0, 1.0))
PAST = st.sampled_from([0.0, 1e-13, 1e-11, 3e-10, 1e-9])


def _edge_target(chi, mu, inside, past, upper):
    reach = math.hypot(math.cos(2 * chi), math.cos(mu) * math.sin(2 * chi))
    d = min(1.0, reach * (1.0 - inside) + past)
    a = math.sqrt(0.5 * (1.0 + (d if upper else -d)))
    return a, math.sqrt(max(0.0, 1.0 - a * a))


@settings(max_examples=400, deadline=None)
@given(chi=CHI, mu=MU, inside=INSIDE, past=PAST, upper=st.booleans())
def test_solve_theta_candidates_reproduce_a(chi, mu, inside, past, upper):
    a, b = _edge_target(chi, mu, inside, past, upper)
    try:
        thetas = solve_theta(chi, mu, a, b)
    except InfeasibleAmplitudeError:
        return
    for theta in thetas:
        assert -HALF_PI < theta <= HALF_PI
        realized = abs(transport_amplitudes(chi, mu, theta, HALF_PI, 0.0)[1])
        # solve_theta inverts 2A^2 - 1; at A ~ 1e-8 a rounding of A^2 alone
        # moves A by more than 1e-9, so there A^2 is what round-trips
        assert abs(realized - a) < 1e-9 or abs(realized**2 - a**2) < 1e-15


@settings(max_examples=150, deadline=None)
@given(chi=CHI, mu=MU, inside=INSIDE, past=PAST, upper=st.booleans(), lam=st.floats(-10.0, 10.0))
def test_synthesize_gate_near_the_edges_returns_or_says_why(chi, mu, inside, past, upper, lam):
    # a target the inversion cannot meet exits 3, a malformed one 2; at A ~ 1e-8
    # the realized b2 can vanish, which leaves zeta_A undefined
    a, b = _edge_target(chi, mu, inside, past, upper)
    try:
        spec = TransportSpec(chi=chi, mu=mu, a=a, b=b, lam=lam)
        synthesize_gate(spec, SystemParams(delta=REF_DELTA), AnsatzSpec(n_samples=16))
    except (InfeasibleTargetError, InfeasibleAmplitudeError, DegeneratePhaseError, ValueError):
        pass


# ------------------------------------------ the operation-time window edges

TWO_PI = 2.0 * math.pi
# a phase gap within 1e-12 and 1e-10 of 0 and of a whole turn
GAP = st.builds(
    lambda turn, near: turn + near,
    st.sampled_from([0.0, TWO_PI, -TWO_PI]),
    st.one_of(st.floats(-1e-12, 1e-12), st.floats(-1e-10, 1e-10), st.floats(0.0, TWO_PI)),
)


@st.composite
def operation_windows(draw):
    """(zeta, lam, delta, t_min, t_max) with t_min on or next to a whole
    Zeeman period past the free answer, and t_max at the answer or an ulp
    below it."""
    delta = 10.0 ** draw(st.floats(-3.0, 20.0))
    lam = draw(st.sampled_from([0.0]) | st.floats(-10.0, 10.0))
    zeta = lam + draw(GAP)
    period = TWO_PI / delta
    periods = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 10**6) | st.integers(0, 10**15))
    base = draw(st.sampled_from([0.0, ((zeta - lam) % TWO_PI) / delta]))
    t_min = base + periods * period
    t_min = draw(st.sampled_from([
        t_min, math.nextafter(t_min, math.inf), math.nextafter(t_min, -math.inf),
        t_min * (1.0 + 1e-12), t_min * (1.0 - 1e-12), t_min + 1e-12 * period, t_min - 1e-12 * period,
    ]))
    t_min = max(t_min, 0.0)
    try:
        free = operation_time(zeta, lam, delta, t_min=t_min)
    except NoFeasibleTimeError:
        return zeta, lam, delta, t_min, None
    t_max = draw(st.sampled_from([None, free, math.nextafter(free, -math.inf), 2.0 * free]))
    return zeta, lam, delta, t_min, t_max


@settings(max_examples=200, deadline=None)
@given(operation_windows())
def test_operation_time_is_the_least_window_time_on_the_phase(window):
    zeta, lam, delta, t_min, t_max = window
    try:
        T = operation_time(zeta, lam, delta, t_min=t_min, t_max=t_max)
    except NoFeasibleTimeError:
        # past the float range, or an answer past t_max
        assert t_max is None or operation_time(zeta, lam, delta, t_min=t_min) > t_max
        return
    period = TWO_PI / delta
    gap = zeta - lam
    assert math.isfinite(T) and T > 0.0
    assert t_max is None or T <= t_max
    assert abs(math.remainder(delta * T - gap, TWO_PI)) <= 1e-12 + 4e-16 * (delta * T + abs(gap))
    # t_min is met to 1e-12 of a period plus the rounding of the period count,
    # and no whole period could come off while T stayed clearly past it
    slack = 1e-12 * period + 4e-16 * t_min
    assert T >= t_min - slack
    assert T - period <= t_min + slack
