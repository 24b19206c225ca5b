"""Domain exceptions shared across the toolkit.

Everything raised on purpose derives from SimulationError so the CLI can
map domain failures to exit code 1 while genuine bugs still surface as
ordinary tracebacks.
"""

from numbers import Integral


def is_integer(value) -> bool:
    """Whether value is a Python or NumPy integer; a bool is none."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


class SimulationError(Exception):
    """Base class for all expected domain errors."""


class InvalidParameter(SimulationError, ValueError):
    """A configuration value outside its valid range."""


class ZeroSeed(SimulationError):
    """All-zero seed rejected: zero is the LFSR's stuck state."""


class MalformedPolynomial(SimulationError):
    """Characteristic polynomial without the required g_0 = g_n = 1 taps."""


class OrderTooLarge(SimulationError):
    """Requested order exceeds the exhaustive-enumeration bound."""


class InsufficientPrimitives(SimulationError):
    """Fewer than two primitive polynomials exist at this order."""


class WidthMismatch(SimulationError):
    """Bit-width of an input does not match what the consumer expects."""


class EvenVoterWidth(InvalidParameter):
    """Majority voting needs an odd number of votes."""


class NoConvergence(SimulationError):
    """Randomness adjustment did not reach the accept band in time."""


class InterfaceFused(SimulationError):
    """The disposable raw-CRP interface has been permanently fused."""


class NonMonotonicTicks(SimulationError):
    """Frame ticks must strictly increase on a channel timeline."""


class ChannelTimeout(SimulationError):
    """No response frame arrived for an outstanding challenge."""


class EmptyStore(SimulationError):
    """Replay attacker has not eavesdropped any interaction yet."""


class EmptyDataset(SimulationError):
    """Model training requires at least one CRP."""


class InsufficientSample(SimulationError):
    """Metric tolerances assume a minimum challenge sample size."""
