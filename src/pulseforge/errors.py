"""Exception hierarchy shared across the package, and the CLI's exit codes.

This is the one statement of the exit-code contract.  Every class carries
the code ``pulseforge`` exits with when it ends a command, as ``exit_code``:

- 0: success (no error);
- 2: invalid plan, schedule or arguments -- the base class's code, so a new
  subclass has one by construction; a ``ValueError`` exits 2 as well;
- 3: infeasible synthesis target (an operation time past the float range
  included);
- 4: verification or integration failure (a synthesized schedule with a
  non-finite sample included; nothing is written then).
"""


class PulseforgeError(Exception):
    """Base class for all pulseforge errors."""

    exit_code = 2


class InvalidAnsatzError(PulseforgeError):
    """Pulse-shape specification is unusable (e.g. non-positive duration)."""


class InfeasibleTargetError(PulseforgeError):
    """Requested final state cannot be reached by any schedule."""

    exit_code = 3


class InfeasibleAmplitudeError(PulseforgeError):
    """Amplitude pair (A, B) is outside the reachable set for this qubit."""

    exit_code = 3


class NoFeasibleTimeError(PulseforgeError):
    """No operation time satisfies the phase condition within the allowed window."""

    exit_code = 3


class DegeneratePhaseError(PulseforgeError):
    """A phase was requested for an amplitude that vanishes."""

    exit_code = 3


class VerificationError(PulseforgeError):
    """A synthesized schedule failed its internal propagation check."""

    exit_code = 4


class IntegrationError(PulseforgeError):
    """Numerical integration lost accuracy (norm drift beyond tolerance).

    ``drift`` is the largest |norm - 1| over every state when the drift is
    the reason (nan when a state is not finite), and None otherwise.
    """

    exit_code = 4

    def __init__(self, message: str, drift: float | None = None):
        super().__init__(message)
        self.drift = drift


class UnsupportedComparisonError(PulseforgeError):
    """Schedule lacks the angle metadata needed for an analytic comparison."""


class ScheduleFormatError(PulseforgeError):
    """Schedule file is malformed or missing required header keys."""


class PlanError(PulseforgeError):
    """Plan document is malformed or inconsistent."""
