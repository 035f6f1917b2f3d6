"""Exception hierarchy for the DarkGates reproduction library.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing unrelated bugs.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a model is constructed with inconsistent parameters.

    Examples include a SKU whose minimum frequency exceeds its maximum
    frequency, a package that references a voltage domain the die does not
    define, or a power-management policy given an empty frequency grid.
    """


class ConstraintViolation(ReproError):
    """Raised when an operating point violates a hard platform limit.

    Hard limits are the ones described in Section 2.4 of the paper: TDP,
    Tjmax, Vmax, Vmin, Iccmax (EDC), and thermal-design current (TDC).
    The power-management firmware normally clips operating points so this
    error signals a bug in a caller that bypassed the firmware.
    """

    def __init__(self, limit: str, requested: float, allowed: float) -> None:
        self.limit = limit
        self.requested = requested
        self.allowed = allowed
        super().__init__(
            f"{limit} violated: requested {requested:.6g}, allowed {allowed:.6g}"
        )


class SimulationError(ReproError):
    """Raised when a simulation cannot make forward progress.

    Typical causes are a singular PDN admittance matrix (floating node),
    a workload trace with zero duration, or a fixed-point power/thermal
    iteration that fails to converge.
    """


class StoreError(ReproError):
    """Raised when the persistent run store cannot honour a request.

    Typical causes are a manifest that fails validation, a result payload
    written by a newer schema than this library understands, or a value
    that cannot be JSON-encoded faithfully for persistence.
    """
