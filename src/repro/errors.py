"""Exception hierarchy for the ModSRAM reproduction library.

Every exception raised by :mod:`repro` derives from :class:`ReproError` so
that callers can distinguish library failures from programming errors in
their own code with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class BitWidthError(ReproError, ValueError):
    """An operand does not fit in the declared bit width."""


class OperandRangeError(ReproError, ValueError):
    """An operand violates a range precondition (e.g. ``0 <= a < p``)."""


class ModulusError(ReproError, ValueError):
    """The modulus is invalid for the requested operation."""


class ConfigurationError(ReproError, ValueError):
    """A hardware or algorithm configuration is inconsistent."""


class MemoryMapError(ReproError, ValueError):
    """A request addresses the SRAM memory map incorrectly."""


class SramAccessError(ReproError, ValueError):
    """An SRAM array access is out of range or malformed."""


class ReadDisturbError(ReproError, RuntimeError):
    """A simulated access pattern would corrupt 6T cells (read disturb)."""


class SenseMarginError(ReproError, RuntimeError):
    """The sense amplifier could not resolve the bitline level reliably."""


class ControllerError(ReproError, RuntimeError):
    """The ModSRAM controller reached an illegal state."""


class TierMismatchError(ReproError, RuntimeError):
    """A simulation tier's product or cycle report failed its check."""


class CurveError(ReproError, ValueError):
    """An elliptic-curve parameter or point is invalid."""


class NttError(ReproError, ValueError):
    """An NTT size or modulus is unsupported."""


class ServiceError(ReproError, RuntimeError):
    """The serving layer could not accept or complete a request."""


class AdmissionError(ServiceError):
    """A request was rejected at admission (queue full — backpressure)."""


class DeadlineError(ServiceError):
    """A request's deadline expired before it could be dispatched."""


class WorkerCrashError(ServiceError):
    """A pool worker died and the job exhausted its cross-shard retries.

    The cluster router raises the same error when a *node* is lost and a
    job exhausts its cross-node re-dispatches: the pool's crash-retry
    contract, generalized over the wire."""


class ProtocolError(ServiceError):
    """A cluster wire frame is malformed, oversized or of unknown type.

    The router answers such frames with a structured error response (the
    connection stays usable); the raising side carries the reason."""
